"""The benchmark's workloads: inputs made from a seed, one timed pass, checks.

Each workload calls only the public API of ``axiferro`` and receives the
package module as ``ax``.  ``run_pass`` times the pass and each task in it
(a task is one top-level call the user waits for); ``check`` runs after the
timed region and appends problems to the tasks it faults.  Times are read
from the ``clock`` the worker passes in; ``probe_kernel`` names the
``calibrate`` kernel that resembles the workload's work, and
``nominal_pass_s`` is a pass in reference seconds.  A task fails on
an exception, a non-zero CLI exit, a flow that is not stationary, a
``SaddleReport.validate()`` problem or a failed output check.

Seed jitter is shaped so that every seed does the same amount of solver work
(same pipeline runs, continuation steps and flow runs per pass) while the
inputs themselves differ; otherwise the run-to-run spread of the timings
would measure the seed rather than the program.
"""

import contextlib
import io
import json
import os

import numpy as np

KAPPA0_MEASURED = (6.656, 6.688)
KAPPA1_MEASURED = (3.20, 3.25)
BRACKET_WIDTH = 0.05
WIDTH_SLACK = 1e-9          # bracket ends are sums of float steps
LIMIT_TOL = 1e-6            # relaxed limit vs the unperturbed run, sup norm


def _overlaps(bracket, interval):
    return bracket[0] < interval[1] and bracket[1] > interval[0]


def _bracket_problems(what, bracket, measured):
    if bracket is None:
        return [f"no {what} bracket"]
    problems = []
    lo, hi = bracket
    if not hi - lo <= BRACKET_WIDTH + WIDTH_SLACK:
        problems.append(f"{what} bracket ({lo:.6g}, {hi:.6g}) wider than {BRACKET_WIDTH}")
    if not _overlaps(bracket, measured):
        problems.append(f"{what} bracket ({lo:.6g}, {hi:.6g}) misses {measured}")
    return problems


def _timed(name, fn, clock):
    """Run one task; returns (task record, result or None)."""
    start = clock()
    task = {"name": name, "start": start, "seconds": 0.0, "problems": []}
    try:
        result = fn()
    except Exception as exc:  # a failed task is recorded, the pass goes on
        result = None
        task["problems"].append(f"{type(exc).__name__}: {exc}")
    task["seconds"] = clock() - start
    return task, result


def _oracle_material(ax, report, task_index):
    """Operator at a reported profile and the eigenvalues the pipeline gave."""
    op = ax.assemble_second_variation(report.profile, ax.EnergyParams(report.kappa))
    return {"task": task_index, "kappa": report.kappa,
            "diag": [float(v) for v in op.diag],
            "offdiag": [float(v) for v in op.offdiag],
            "eigenvalues": [float(v) for v in report.spectrum.eigenvalues]}


class SweepKappa0:
    """First-type sweep over kappa in [4, 8] with bisection of kappa0."""

    nominal_pass_s = 7.5
    probe_kernel = "loop"

    def __init__(self, ax, seed, scratch):
        self.ax = ax
        rng = np.random.default_rng(seed)
        # interior points move by <= 0.3; the bracket (6 + j6, 7 + j7) around
        # kappa0 stays 0.8..1.6 wide, so bisection takes five midpoints on
        # every seed and a pass is always ten pipeline runs
        while True:
            j5, j6, j7 = rng.uniform(-0.3, 0.3, 3)
            if j7 - j6 > -0.2 + 1e-6:
                break
        self.kappas = [4.0, 5.0 + j5, 6.0 + j6, 7.0 + j7, 8.0]

    def inputs(self):
        return {"kappas": self.kappas}

    def run_pass(self, pass_dir, clock):
        saddle = self.ax.saddle
        inner = saddle.find_first_type
        tasks = []

        def find_first_type(kappa, *args, **kwargs):
            start = clock()
            task = {"name": f"find_first_type({kappa!r})", "kappa": kappa,
                    "start": start, "seconds": 0.0, "problems": []}
            try:
                return inner(kappa, *args, **kwargs)
            except Exception as exc:
                task["problems"].append(f"{type(exc).__name__}: {exc}")
                raise
            finally:
                task["seconds"] = clock() - start
                tasks.append(task)

        saddle.find_first_type = find_first_type
        try:
            start = clock()
            result = self.ax.sweep(self.kappas, types=("first",), estimate_kappa1=False)
            wall = clock() - start
        finally:
            saddle.find_first_type = inner
        return wall, tasks, result

    def check(self, result, tasks):
        by_kappa = {r.kappa: r for r in result.reports}
        for task in tasks:
            report = by_kappa.get(task["kappa"])
            if report is not None:
                task["problems"].extend(report.validate())
            elif not task["problems"]:
                task["problems"].append("no report for this kappa")
        problems = _bracket_problems("kappa0", result.kappa0_estimate, KAPPA0_MEASURED)
        if problems:
            # the bracket is the joint output of every pipeline run in the pass
            for task in tasks:
                task["problems"].extend(problems)
            return []
        lo = result.kappa0_estimate[0]
        index = next(i for i, t in enumerate(tasks) if t["kappa"] == lo)
        return [_oracle_material(self.ax, by_kappa[lo], index)]


class BranchKappa1:
    """The kappa1 probe plus two second-type continuations below kappa = 4."""

    nominal_pass_s = 25.0
    probe_kernel = "loop"

    def __init__(self, ax, seed, scratch):
        self.ax = ax
        rng = np.random.default_rng(seed)
        # each kappa moves inside one 0.05 continuation step, so the walks
        # from kappa = 4 take 11 and 6 Newton steps on every seed
        self.kappas = (3.455 + 0.04 * rng.random(), 3.705 + 0.04 * rng.random())

    def inputs(self):
        return {"kappas": list(self.kappas)}

    def run_pass(self, pass_dir, clock):
        ax = self.ax
        tasks, outputs = [], []
        start = clock()
        task, probe = _timed("probe_second_branch_floor()", ax.probe_second_branch_floor,
                             clock)
        tasks.append(task)
        outputs.append(probe)
        for kappa in self.kappas:
            task, report = _timed(f"find_second_type({kappa!r})",
                                  lambda kappa=kappa: ax.find_second_type(kappa), clock)
            tasks.append(task)
            outputs.append(report)
        return clock() - start, tasks, outputs

    def check(self, outputs, tasks):
        probe, reports = outputs[0], outputs[1:]
        if not tasks[0]["problems"]:
            tasks[0]["problems"].extend(
                _bracket_problems("kappa1", probe, KAPPA1_MEASURED))
        for task, kappa, report in zip(tasks[1:], self.kappas, reports):
            if report is None:
                continue
            task["problems"].extend(report.validate())
            if report.kappa != kappa or report.saddle_type != self.ax.SECOND:
                task["problems"].append(f"report is {report.saddle_type} at "
                                        f"kappa={report.kappa!r}")
        if reports[0] is None or tasks[1]["problems"]:
            return []
        return [_oracle_material(self.ax, reports[0], 1)]


def _run_cli(ax, argv):
    """Drive ``axiferro.cli.main`` in-process; returns (exit code, stdout, stderr).

    ``main`` always ends in ``sys.exit``, also on success.
    """
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ax.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code is None:
        code = 0
    elif not isinstance(code, int):
        code = 1
    return code, out.getvalue(), err.getvalue()


def _read_limit(path):
    """Values column of a profile CSV, parsed without the package's reader."""
    with open(path) as fh:
        rows = [ln for ln in fh.read().splitlines()
                if ln and not ln.startswith("#") and ln != "theta,h"]
    return np.array([float(ln.split(",")[1]) for ln in rows])


def _cli_problems(code, stderr, outdir):
    """Problems of one ``flow`` run, from its exit code and its run.json."""
    if code != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return [f"cli exit {code} {last[0]}".strip()]
    try:
        with open(os.path.join(outdir, "run.json")) as fh:
            record = json.load(fh)
        status = record["status"]
        flags = (record["energy_monotone"], record["wedge_always_ok"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"run.json unreadable: {exc!r}"]
    problems = [] if status == "stationary" else [f"flow status {status}"]
    if not flags[0]:
        problems.append("energy not monotone")
    if not flags[1]:
        problems.append("wedge left")
    return problems


def _limit(outdir):
    """Relaxed limit of a ``flow`` run, or None if its CSV is unreadable."""
    try:
        return _read_limit(os.path.join(outdir, "final_profile.csv"))
    except (OSError, ValueError, IndexError):
        return None


class RelaxFlow:
    """The ``flow`` subcommand at n = 4096 on perturbed profile CSVs."""

    nominal_pass_s = 2.9
    probe_kernel = "mixed"
    n = 4096
    tol = "1e-7"
    families = (("first-type", "W1", (5.0, 7.0)), ("two-theta", "W2", (6.0, 10.0)))
    perturbations = 3

    def __init__(self, ax, seed, scratch):
        self.ax = ax
        rng = np.random.default_rng(seed)
        grid = ax.make_grid(self.n)
        inputs_dir = os.path.join(scratch, "inputs")
        os.makedirs(inputs_dir)
        self.runs = []        # (name, argv without --out, reference limit)
        self.params = []
        common = ["--n", str(self.n), "--tol", self.tol]
        for init, wedge, kappas in self.families:
            for kappa in kappas:
                half = ["--kappa", repr(kappa), *common, "--half-interval", "--wedge", wedge]
                ref = self._reference(scratch, ["flow", "--init", init, *half])
                for i in range(self.perturbations):
                    p, shape = self._perturbed(grid, init, kappa, rng)
                    path = os.path.join(inputs_dir, f"{init}-{kappa:g}-{i}.csv")
                    ax.write_profile_csv(p, path, kappa=kappa)
                    self.runs.append((f"flow {init} kappa={kappa:g} #{i}",
                                      ["flow", "--init", path, *half], ref))
                    self.params.append({"init": init, "kappa": kappa, **shape})
        full = ["flow", "--init", "pi", "--kappa", "5", *common]
        self.runs.append(("flow pi kappa=5 full", full, self._reference(scratch, full)))

    def inputs(self):
        return {"perturbations": self.params}

    def _reference(self, scratch, argv):
        """Limit of the unperturbed run, computed once at set-up; None if it failed."""
        outdir = os.path.join(scratch, f"reference-{len(os.listdir(scratch))}")
        code, _, stderr = _run_cli(self.ax, [*argv, "--out", outdir])
        return None if _cli_problems(code, stderr, outdir) else _limit(outdir)

    def _perturbed(self, grid, init, kappa, rng):
        """Convex mix of the pipeline's start profile with another wedge member.

        Both lie in the wedge, which is convex, so the mix does too; the right
        half is the hemispheric reflection of the left, midpoint exactly pi.
        """
        ax = self.ax
        mid = grid.midpoint_index
        theta = grid.nodes[:mid + 1]
        s, c, power = rng.uniform(0.35, 0.45), rng.uniform(0.8, 1.0), rng.uniform(1.0, 1.5)
        bump = c * theta * (1.0 - 2.0 * theta / np.pi) ** power
        if init == "first-type":
            base = ax.make_initial_first_type(grid, kappa).values[:mid + 1]
            left = (1.0 - s) * base + s * (np.pi + bump)
            m, n_end = 1, 1
        else:
            left = 2.0 * theta - s * bump
            m, n_end = 0, 2
        values = np.empty(grid.n + 1)
        values[:mid + 1] = left
        values[mid] = np.pi
        values[mid + 1:] = 2.0 * np.pi - left[:-1][::-1]
        shape = {"mix": s, "amplitude": c, "power": power}
        return ax.make_profile(grid, values, m, n_end), shape

    def run_pass(self, pass_dir, clock):
        tasks, outputs = [], []
        start = clock()
        for i, (name, argv, _) in enumerate(self.runs):
            outdir = os.path.join(pass_dir, str(i))
            task, result = _timed(name, lambda: _run_cli(self.ax, [*argv, "--out", outdir]),
                                  clock)
            tasks.append(task)
            outputs.append((outdir, result))
        return clock() - start, tasks, outputs

    def check(self, outputs, tasks):
        for task, (outdir, result), (_, _, ref) in zip(tasks, outputs, self.runs):
            if result is None:
                continue
            code, _, stderr = result
            task["problems"].extend(_cli_problems(code, stderr, outdir))
            if task["problems"]:
                continue
            if ref is None:
                task["problems"].append("unperturbed reference run failed")
                continue
            limit = _limit(outdir)
            if limit is None or limit.shape != ref.shape:
                task["problems"].append("final_profile.csv unreadable or of wrong size")
                continue
            gap = float(np.max(np.abs(limit - ref)))
            if not gap <= LIMIT_TOL:
                task["problems"].append(f"limit differs from the unperturbed run by {gap:.3g}")
        return []


WORKLOADS = {"sweep_kappa0": SweepKappa0, "branch_kappa1": BranchKappa1,
             "relax_flow": RelaxFlow}
