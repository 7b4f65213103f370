"""Spans recorded from outside the program, and the per-layer metrics they give.

The tracer replaces every public function of each ``axiferro`` module, at
every module that binds it (the defining module, the modules that imported
it by name, and the package namespace), with a wrapper that records a span:
name, start, end, parent span, pass id, whether it raised, and a few counts
taken from the arguments or the result.  Nothing under ``src/`` changes; the
original functions are put back by ``uninstall``.  Spans stay in memory and
are written out once, when the worker ends.
"""

import functools
import inspect
import os
import sys
import time

PACKAGE = "axiferro"

# Library names bound in an axiferro module that are traced at that module
# only: the banded solve in ``stationary`` is one Newton iteration.
EXTRA_TARGETS = (("axiferro.stationary", "solve_banded", "stationary.solve_banded"),)

NAME, START, END, PARENT, PASS, RAISED, INFO = range(7)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _eigs_info(args, kwargs, result):
    worst = float(max(result.residuals / result.operator_scale))
    return {"k": int(_arg(args, kwargs, 1, "k")), "pair_residual": worst}


def _flow_info(args, kwargs, result):
    return {"steps": int(result.steps),
            "stationary": result.status.value == "stationary"}


def _branch_info(args, kwargs, result):
    return {"points": len(result.points)}


def _sweep_info(args, kwargs, result):
    return {"failed_rows": sum(r.status.startswith("failed") for r in result.rows)}


def _csv_written(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _csv_read(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


HOOKS = {
    "spectrum.eigs_lowest": _eigs_info,
    "flow.run": _flow_info,
    "stationary.continue_branch": _branch_info,
    "saddle.sweep": _sweep_info,
    "profile.write_profile_csv": _csv_written,
    "profile.read_profile_csv": _csv_read,
}


def _short(module_name):
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    """Records spans around the public functions of the ``axiferro`` modules."""

    def __init__(self):
        self.spans = []
        self.pass_id = -1
        self.clock = time.perf_counter
        self.hook_errors = []
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, self.clock
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.pass_id, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                try:
                    span[INFO] = hook(args, kwargs, result)
                except Exception as exc:  # the count is left out, the call stands
                    self.hook_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrappers = {}
        for module in modules:
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    name = f"{_short(module.__name__)}.{value.__name__}"
                    wrappers[id(value)] = self._wrap(value, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        for module_name, attr, name in EXTRA_TARGETS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _per_name(spans, self_time):
    calls, self_s = {}, {}
    for i, span in enumerate(spans):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + self_time[i]
    return calls, self_s


def _nearest(spans, names):
    """Index of each span's nearest enclosing span (itself included) named in names."""
    out = []
    for span in spans:
        if span[NAME] in names:
            out.append(len(out))
        else:
            out.append(out[span[PARENT]] if span[PARENT] >= 0 else -1)
    return out


def layer_metrics(spans, scales, traced_wall_s, untraced_wall_s, oracle_max_dev):
    """Per-layer metrics per traced pass, from the spans of those passes.

    ``scales`` maps each traced pass id to the factor that turns its clock
    seconds into reference seconds.  Self time is a span's duration minus
    the time its child spans cover.  A layer's self time is the sum over the
    spans of its module.
    """
    passes = len(scales)
    duration = [(s[END] - s[START]) * scales[s[PASS]] for s in spans]
    self_time = list(duration)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            self_time[span[PARENT]] -= duration[i]
    calls, self_s = _per_name(spans, self_time)

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)

    def with_name(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    eigs = with_name("spectrum.eigs_lowest")
    pairs = sum(spans[i][INFO]["k"] for i in eigs if spans[i][INFO])
    runs = with_name("flow.run")
    flow_infos = [spans[i][INFO] for i in runs if spans[i][INFO]]
    steps = sum(info["steps"] for info in flow_infos)
    in_flow = _nearest(spans, {"flow.run"})
    in_newton = _nearest(spans, {"stationary.newton_solve"})
    in_sweep = _nearest(spans, {"saddle.sweep"})
    residuals = with_name("energy.el_residual")
    newton = with_name("stationary.newton_solve")
    iterations = sum(1 for i in with_name("stationary.solve_banded") if in_newton[i] >= 0)
    newton_evals = sum(1 for i in residuals if in_newton[i] >= 0)
    trials = newton_evals - len(newton)
    sweeps = with_name("saddle.sweep")
    first_in_sweep = sum(1 for i in with_name("saddle.find_first_type") if in_sweep[i] >= 0)
    csv_spans = with_name("profile.write_profile_csv") + with_name("profile.read_profile_csv")

    def csv_bytes(name):
        return sum(spans[i][INFO]["bytes"] for i in with_name(name) if spans[i][INFO])

    per = 1.0 / passes
    spectrum_self = layer_self("spectrum")
    totals = {
        "spectrum.eigs_lowest.calls": calls.get("spectrum.eigs_lowest", 0),
        "spectrum.eigs_lowest.self_s": self_s.get("spectrum.eigs_lowest", 0.0),
        "spectrum.pairs": pairs,
        "spectrum.classify.calls": calls.get("spectrum.classify", 0),
        "spectrum.classify.self_s": self_s.get("spectrum.classify", 0.0),
        "spectrum.self_s": spectrum_self,
        "flow.run.calls": len(runs),
        "flow.run.self_s": self_s.get("flow.run", 0.0),
        "flow.steps": steps,
        "energy.el_residual.calls": len(residuals),
        "energy.el_residual.self_s": self_s.get("energy.el_residual", 0.0),
        "energy.reduced_energy.calls": calls.get("energy.reduced_energy", 0),
        "energy.reduced_energy.self_s": self_s.get("energy.reduced_energy", 0.0),
        "energy.assemble_second_variation.calls":
            calls.get("energy.assemble_second_variation", 0),
        "energy.assemble_second_variation.self_s":
            self_s.get("energy.assemble_second_variation", 0.0),
        "stationary.newton_solve.calls": len(newton),
        "stationary.newton_solve.self_s": self_s.get("stationary.newton_solve", 0.0),
        "stationary.newton.iterations": iterations,
        "stationary.newton.residual_evals": newton_evals,
        "stationary.newton.failures": sum(1 for i in newton if spans[i][RAISED]),
        "stationary.continue_branch.self_s": self_s.get("stationary.continue_branch", 0.0),
        "stationary.branch.points": sum(spans[i][INFO]["points"]
                                        for i in with_name("stationary.continue_branch")
                                        if spans[i][INFO]),
        "saddle.self_s": layer_self("saddle"),
        "saddle.failed_rows": sum(spans[i][INFO]["failed_rows"] for i in sweeps
                                  if spans[i][INFO]),
        "profile.wedge_check.calls": calls.get("profile.wedge_check", 0),
        "profile.wedge_check.self_s": self_s.get("profile.wedge_check", 0.0),
        "profile.hemispheric_deviation.self_s":
            self_s.get("profile.hemispheric_deviation", 0.0),
        "profile.csv.bytes_written": csv_bytes("profile.write_profile_csv"),
        "profile.csv.bytes_read": csv_bytes("profile.read_profile_csv"),
        "profile.csv.self_s": sum(self_time[i] for i in csv_spans),
        "grid.quad_sin.calls": calls.get("grid.quad_sin", 0),
        "grid.quad_sin.self_s": self_s.get("grid.quad_sin", 0.0),
        "cli.main.calls": calls.get("cli.main", 0),
        # the cli layer's own time: argparse, config hashing and output I/O
        "cli.main.self_s": layer_self("cli"),
        "bench.spans": len(spans),
    }
    metrics = {k: v * per for k, v in totals.items()}
    eigs_self = totals["spectrum.eigs_lowest.self_s"]
    flow_total = sum(duration[i] for i in runs)
    metrics.update({
        "spectrum.s_per_pair": eigs_self / pairs if pairs else 0.0,
        "spectrum.max_pair_residual": max((spans[i][INFO]["pair_residual"]
                                           for i in eigs if spans[i][INFO]), default=0.0),
        "spectrum.oracle_max_dev": oracle_max_dev,
        "spectrum.share_of_wall": spectrum_self * per / traced_wall_s,
        "flow.step_s": flow_total / steps if steps else 0.0,
        "flow.stationary_ratio": (sum(info["stationary"] for info in flow_infos)
                                  / len(flow_infos) if flow_infos else 0.0),
        "energy.el_residual.per_flow_step":
            sum(1 for i in residuals if in_flow[i] >= 0) / steps if steps else 0.0,
        "stationary.newton.accept_ratio": iterations / trials if trials else 0.0,
        "saddle.pipeline_runs_per_bracket": first_in_sweep / len(sweeps) if sweeps else 0.0,
        "bench.traced_wall_s": traced_wall_s,
        "bench.untraced_wall_s": untraced_wall_s,
        "bench.tracing_overhead_s": traced_wall_s - untraced_wall_s,
    })
    return metrics
