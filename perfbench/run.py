"""Benchmark of axiferro: time to a checked result, end to end and per layer.

Usage, from the root of a checkout (the code is imported from ``src/``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``):

* ``sweep_kappa0``  first-type sweep over kappa in [4, 8] plus kappa0
  bisection at n = 1024: flow, Newton and spectrum in their real proportions.
* ``branch_kappa1`` the kappa1 probe and two second-type continuations below
  kappa = 4: Newton and the spectrum, no flow.
* ``relax_flow``    the ``flow`` subcommand driven in-process at n = 4096 on
  perturbed profile CSVs: flow, energy, profile and cli, no spectrum.

A run makes ``round(seconds / nominal pass time)`` passes (at least one), so
on the reference machine it measures about ``--seconds`` and every run has
the same number of tasks.  The workload runs in a fresh worker process with
BLAS and OpenMP pinned to one thread.  Pass and task times are in reference
seconds: measured seconds times the core-speed factor that
``calibrate.SpeedProbe`` sampled during the same pass or task (raw seconds
are kept in the record).  ``setup_s`` is raw; it is measured in fresh
processes.  Output checks and the dense spectrum oracle run outside the
timed region; the oracle runs in this process, so it is outside the worker's
memory peak too.  ``task_ok_ratio`` is 1 - failed/attempted, so that no
end-to-end metric is 0.  Every file a run writes stays under ``.perfbench/``
of the checkout; pass outputs go to a temporary directory removed after the
pass.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics,
taken from spans recorded around the package's public functions.  The last
line of standard output is the JSON result; the full record (environment,
quartiles, tail percentile, task failures, inputs) goes to
``.perfbench/result-<workload>-seed<seed>-trace<t>.json``, and the spans of a
traced run to ``.perfbench/spans-<workload>-seed<seed>.json``.

A claim of a gain is rerun on the held-out seed ``HELD_OUT_SEED``, which is
used for nothing else.
"""

import os

PINNED_THREADS = 1
PINNED_ENV = {name: str(PINNED_THREADS) for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_ENV)  # before numpy is imported, here and in children

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HELD_OUT_SEED = 90017
WORK_DIR = ".perfbench"
SOURCE_DIR = os.path.join("src", "axiferro")
SETUP_PROBES = 5
SETUP_PROBE = ("import sys, time\n"
               "sys.path.insert(0, 'src')\n"
               "start = time.perf_counter()\n"
               "import axiferro\n"
               "axiferro.make_grid(1024)\n"
               "print(repr(time.perf_counter() - start))\n")
# dense eigvalsh vs the pipeline's eigenvalues, relative to max(|lambda|, 1);
# eigvalsh alone is accurate to about eps * ||A|| ~ 1e-10 at n = 1024
ORACLE_TOL = 1e-8
RUN_LIMIT_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_seconds():
    """Median time, in fresh processes, to import axiferro and build a grid.

    Raw seconds: most of an import is loading files and shared libraries,
    which the speed probe's kernel does not track.
    """
    values = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True,
                             text=True, timeout=60, check=True)
        values.append(float(out.stdout.split()[-1]))
    return statistics.median(values), values


def run_worker(workload, seed, passes, trace, run_dir, deadline):
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    cmd = [sys.executable, worker, "--workload", workload, "--seed", str(seed),
           "--passes", str(passes), "--trace", str(trace), "--run-dir", run_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"worker for {workload} did not finish within {RUN_LIMIT_S:.0f} s")
    if proc.returncode != 0:
        fail(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(os.path.join(run_dir, "result.json")) as fh:
        return json.load(fh)


def oracle_deviation(material):
    """Max gap between the pipeline's lowest eigenvalues and a dense eigvalsh,
    and whether every gap is within tolerance."""
    off = np.array(material["offdiag"])
    dense = np.diag(np.array(material["diag"])) + np.diag(off, 1) + np.diag(off, -1)
    computed = np.array(material["eigenvalues"])
    reference = np.linalg.eigvalsh(dense)[:computed.size]
    gap = np.abs(computed - reference)
    return float(np.max(gap)), bool(np.all(gap <= ORACLE_TOL * np.maximum(np.abs(reference), 1.0)))


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def tail(values):
    """Highest percentile with at least ten samples beyond it, and that percentile.

    Below 20 samples no percentile from the median up qualifies; the maximum
    is given as p100 then.
    """
    ordered = sorted(values)
    if len(ordered) < 20:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SOURCE_DIR)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(SOURCE_DIR, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(seed):
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "blas_threads": PINNED_THREADS,
            "git_commit": git_commit(), "source_sha256": source_digest(),
            "seed": seed, "held_out_seed": HELD_OUT_SEED}


def main():
    parser = argparse.ArgumentParser(description="axiferro benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SOURCE_DIR, "__init__.py")):
        fail(f"no {SOURCE_DIR} here; run from the root of an axiferro checkout")
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    passes = max(1, round(args.seconds / WORKLOADS[args.workload].nominal_pass_s))
    if args.trace:
        passes = 2 * math.ceil(passes / 2)  # untraced, traced, untraced, ...
    setup_s, setup_values = (None, []) if args.trace else setup_seconds()

    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        result = run_worker(args.workload, args.seed, passes, args.trace, run_dir,
                            deadline)
        spans, hook_errors = None, []
        if args.trace:
            with open(os.path.join(run_dir, "spans.json")) as fh:
                trace = json.load(fh)
            spans, hook_errors = trace["spans"], trace["hook_errors"]
            shutil.move(os.path.join(run_dir, "spans.json"),
                        os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    tasks_by_pass = [p["tasks"] for p in result["passes"]]
    for material in result["oracle"]:
        dev, ok = oracle_deviation(material)
        material["max_dev"] = dev
        if not ok:
            tasks_by_pass[material["pass"]][material["task"]]["problems"].append(
                f"dense oracle gap {dev:.3g} at kappa={material['kappa']!r}")
        for key in ("diag", "offdiag"):
            del material[key]
    all_tasks = [t for tasks in tasks_by_pass for t in tasks]
    failed = sum(1 for t in all_tasks if t["problems"])
    untraced = [p for p in result["passes"] if not p["traced"]]
    raw_walls = [p["wall_s"] for p in untraced]
    walls = [p["wall_s"] * p["scale"] for p in untraced]
    task_s = [t["seconds"] * t["scale"] for p in untraced for t in p["tasks"]]
    tail_s, tail_pct = tail(task_s)

    if args.trace:
        traced = {i: p for i, p in enumerate(result["passes"]) if p["traced"]}
        computed = layer_metrics(
            spans, {i: p["scale"] for i, p in traced.items()},
            statistics.median(p["wall_s"] * p["scale"] for p in traced.values()),
            statistics.median(walls),
            max((m["max_dev"] for m in result["oracle"]), default=0.0))
    else:
        computed = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                    "task_p50_s": statistics.median(task_s), "task_tail_s": tail_s,
                    "peak_rss_mb": result["peak_rss_mb"],
                    "task_ok_ratio": 1.0 - failed / len(all_tasks)}
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(args.seed), "inputs": result["inputs"],
        "passes": len(result["passes"]), "untraced_passes": len(walls),
        "wall_s_quartiles": quartiles(walls), "raw_wall_s_quartiles": quartiles(raw_walls),
        "scales": [p["scale"] for p in untraced], "setup_s_samples": setup_values,
        "workload_setup_s": result["workload_setup_s"],
        "tasks": len(task_s), "task_tail_percentile": tail_pct,
        "failed_ratio": failed / len(all_tasks), "oracle": result["oracle"],
        "tracer_hook_errors": hook_errors,
        "failures": [{"task": t["name"], "problems": t["problems"]}
                     for t in all_tasks if t["problems"]],
        "untraced_tasks": [{"task": t["name"], "seconds": t["seconds"] * t["scale"],
                            "raw_seconds": t["seconds"]}
                           for p in untraced for t in p["tasks"]],
        "metrics": metrics,
    }
    with open(os.path.join(WORK_DIR, f"result-{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed}: {len(walls)} untraced of "
          f"{len(result['passes'])} passes, wall_s quartiles "
          + " ".join(f"{q:.4g}" for q in record["wall_s_quartiles"])
          + f"; {len(task_s)} tasks, tail = p{tail_pct:.1f}; "
          f"failed {failed}/{len(all_tasks)}")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure['task']}: {'; '.join(failure['problems'])}")
    for error in hook_errors[:10]:
        print(f"  tracer could not read a count: {error}")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps({"correct": failed == 0, "attempted": len(all_tasks),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
