"""One workload in a fresh process: set-up, timed passes, checks.

Run by ``run.py``; writes ``result.json`` (and ``spans.json`` when traced)
into the run directory it is given.  Every pass runs under a ``SpeedProbe``
and records the factors that turn its times into reference seconds.  BLAS
and OpenMP threads are pinned by the environment ``run.py`` sets.  The peak
resident memory reported is this process's; the dense oracle runs in the
parent so it does not count here.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

from calibrate import KERNELS, SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-dir", required=True)
    args = parser.parse_args()

    sys.path.insert(0, os.path.abspath("src"))
    import axiferro
    import axiferro.cli  # noqa: F401  (bound so that the tracer wraps it)

    scratch = tempfile.mkdtemp(prefix="scratch-", dir=args.run_dir)
    try:
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](axiferro, args.seed, scratch)
        setup_s = time.perf_counter() - start
        tracer = Tracer() if args.trace else None
        passes, oracle = [], []
        # traced runs alternate untraced and traced passes, so the tracing
        # overhead is measured in the same process under the same conditions
        for i in range(args.passes):
            traced = bool(args.trace) and i % 2 == 1
            pass_dir = tempfile.mkdtemp(prefix=f"pass{i}-", dir=scratch)
            with SpeedProbe(KERNELS[workload.probe_kernel]) as probe:
                if traced:
                    # spans read the probe's clock, so they exclude its time
                    tracer.clock, tracer.pass_id = probe.clock, i
                    tracer.install()
                try:
                    start = probe.clock()
                    wall, tasks, outputs = workload.run_pass(pass_dir, probe.clock)
                finally:
                    if traced:
                        tracer.uninstall()
            for task in tasks:
                task["scale"] = probe.scale(task["start"], task["start"] + task["seconds"])
            record = {"traced": traced, "scale": probe.scale(start, start + wall),
                      "probe_samples": len(probe.samples)}
            for material in workload.check(outputs, tasks):
                oracle.append({"pass": i, **material})
            del outputs
            shutil.rmtree(pass_dir)
            passes.append({**record, "wall_s": wall, "tasks": tasks})
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {"workload": args.workload, "seed": args.seed,
              "inputs": workload.inputs(), "workload_setup_s": setup_s,
              "passes": passes, "oracle": oracle, "peak_rss_mb": peak_rss_mb}
    with open(os.path.join(args.run_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        with open(os.path.join(args.run_dir, "spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass",
                                  "raised", "info"], "spans": tracer.spans,
                       "hook_errors": tracer.hook_errors}, fh)


if __name__ == "__main__":
    main()
