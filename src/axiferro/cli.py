"""Command-line entry points.

Outputs are plot-ready CSV plus JSON run records.  Every CSV starts with a
comment header carrying a hash of the canonical config, and the same hash is
the first field of every JSON record, so outputs can be traced back to the
exact configuration that produced them.  The same configuration reproduces
every output byte for byte (the wall_time_s field of run records excepted);
only ``validate``, whose property checks draw random data, takes a seed.

Exit codes: 0 success / stationary, 1 configuration or pipeline error,
2 flow horizon reached, 3 suspected blowup.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .energy import (EnergyParams, el_residual, reduced_energy,
                     residual_supnorm, second_variation_form,
                     assemble_second_variation, wedge_certificates)
from .flow import (FlowConfig, FlowStatus, _require_resolvable, comparison_trial, run,
                   write_energy_trace_csv)
from .grid import make_grid
from .profile import (W1, W2, WedgeSpec, _csv_rows, builtin_profile, degree,
                      make_profile, read_profile_csv, write_profile_csv)
from .saddle import (FIRST, SECOND, BlowupError, ContinuationError,
                     SaddleValidationError, _pipeline_grid, find_first_type,
                     find_second_type, sweep)
from .spectrum import _require_pair_count, eigs_lowest, legendre_validation
from .stationary import NewtonError

OUTDIR_ENV = "AXIFERRO_OUTDIR"
# kappas one sweep may ask for; each is at least one pipeline run
_MAX_SWEEP_POINTS = 100_000


def config_hash(config):
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _outdir(args):
    out = args.out or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, payload):
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _load_initial(name, grid, kappa):
    if name.endswith(".csv"):
        p, _ = read_profile_csv(name, grid)
        return p
    return builtin_profile(name, grid, kappa=kappa)


def _auto_wedge(init_name):
    if init_name in ("pi", "first-type"):
        return WedgeSpec(W1, 1e-8)
    if init_name == "two-theta":
        return WedgeSpec(W2, 1e-8)
    return None


def cmd_flow(args):
    config = {"command": "flow", "init": args.init, "kappa": args.kappa,
              "n": args.n, "dt": args.dt, "t_max": args.t_max, "tol": args.tol,
              "record_every": args.record_every, "wedge": args.wedge,
              "half_interval": args.half_interval}
    h = config_hash(config)
    wedge = {"none": None, "W1": WedgeSpec(W1, 1e-8), "W2": WedgeSpec(W2, 1e-8),
             "auto": _auto_wedge(args.init)}[args.wedge]
    cfg = FlowConfig(dt=args.dt, t_max=args.t_max, stationary_tol=args.tol,
                     record_every=args.record_every, wedge=wedge)
    # a grid too fine for the tolerance is refused before it is built; bad
    # input leaves no output directory, and an unusable one is refused before
    # the flow runs
    _require_resolvable(args.n, cfg.stationary_tol)
    grid = make_grid(args.n)
    p0 = _load_initial(args.init, grid, args.kappa)
    params = EnergyParams(args.kappa)
    out = _outdir(args)
    t0 = time.perf_counter()
    result = run(p0, params, cfg, half_interval=args.half_interval)
    wall = time.perf_counter() - t0
    write_energy_trace_csv(result, os.path.join(out, "energy_trace.csv"),
                           header_lines=[f"# config_hash={h}"])
    write_profile_csv(result.final, os.path.join(out, "final_profile.csv"),
                      kappa=args.kappa, extra_header=f"# config_hash={h}")
    record = {"config_hash": h, "config": config, "tool_version": __version__,
              "status": result.status.value, "steps": result.steps,
              "t_end": result.records[-1].t,
              "E_final": result.records[-1].energy,
              "residual_sup": result.records[-1].sup_residual,
              "energy_monotone": result.energy_monotone,
              "wedge_always_ok": result.wedge_always_ok,
              "wall_time_s": wall}
    _write_json(os.path.join(out, "run.json"), record)
    print(f"{result.status.value}: steps={result.steps} "
          f"E={record['E_final']:.9g} residual={record['residual_sup']:.3g}")
    return {FlowStatus.STATIONARY: 0, FlowStatus.HORIZON_REACHED: 2,
            FlowStatus.BLOWUP_SUSPECTED: 3}[result.status]


def _report_payload(report, h, config):
    verdict = report.wedge_verdict
    return {"config_hash": h, "config": config, "tool_version": __version__,
            "kappa": report.kappa, "type": report.saddle_type,
            "provenance": report.provenance,
            "energy": report.energy,
            "full_energy": 2.0 * np.pi * report.energy,
            "eigenvalues": [float(v) for v in report.spectrum.eigenvalues],
            "lambda1": report.lambda1, "lambda2": report.lambda2,
            "morse_index": report.spectrum.morse_index,
            "explicit_direction_value": report.explicit_direction_value,
            "residual_sup": report.residual_sup,
            "hemispheric": report.hemispheric,
            "hemispheric_dev": report.hemispheric_dev,
            "wedge": {"inside": verdict.inside, "node": verdict.node,
                      "excess": verdict.excess},
            "marginal": report.marginal,
            "degree": degree(report.profile),
            "boundary_class": [report.profile.m, report.profile.n_end],
            "grid_n": report.profile.grid.n}


def cmd_saddle(args):
    config = {"command": "saddle", "type": args.type, "kappa": args.kappa,
              "n": args.n}
    h = config_hash(config)
    grid = _pipeline_grid(args.n, [args.kappa], [args.type])
    if args.type == FIRST:
        report = find_first_type(args.kappa, grid=grid)
    else:
        report = find_second_type(args.kappa, grid=grid)
    out = _outdir(args)
    payload = _report_payload(report, h, config)
    _write_json(os.path.join(out, "report.json"), payload)
    write_profile_csv(report.profile, os.path.join(out, "profile.csv"),
                      kappa=args.kappa, extra_header=f"# config_hash={h}")
    print(f"{args.type} saddle at kappa={args.kappa}: lambda1={report.lambda1:.6g} "
          f"dir_value={report.explicit_direction_value:.6g} "
          f"morse={report.spectrum.morse_index}"
          + (" [marginal]" if report.marginal else ""))
    return 0


def cmd_sweep(args):
    for flag, value in (("--from", args.kappa_from), ("--to", args.kappa_to)):
        if not np.isfinite(value):
            raise ValueError(f"kappa must be finite, got {flag} {value}")
    if not (np.isfinite(args.step) and args.step > 0):
        raise ValueError(f"--step must be finite and positive, got {args.step}")
    if not 0 < args.kappa_from <= args.kappa_to:
        raise ValueError(f"kappa range needs 0 < --from <= --to, got --from "
                         f"{args.kappa_from} --to {args.kappa_to}")
    # the ratio is compared as a float, since it may be inf; np.arange would
    # allocate that many kappas before anything else looked at them
    if (args.kappa_to - args.kappa_from) / args.step > _MAX_SWEEP_POINTS:
        raise ValueError(f"--step {args.step} asks for more than {_MAX_SWEEP_POINTS} "
                         f"kappas from --from {args.kappa_from} to --to {args.kappa_to}")
    kappas = np.arange(args.kappa_from, args.kappa_to + 0.5 * args.step, args.step)
    config = {"command": "sweep", "types": args.type, "from": args.kappa_from,
              "to": args.kappa_to, "step": args.step, "n": args.n,
              "kappa1_probe": args.kappa1_probe}
    h = config_hash(config)
    # an unresolvable grid is refused before the run directory is made
    grid = _pipeline_grid(args.n, kappas, args.type)
    out = _outdir(args)
    os.makedirs(os.path.join(out, "profiles"), exist_ok=True)
    _write_json(os.path.join(out, "config.json"),
                {"config_hash": h, "config": config, "tool_version": __version__})
    result = sweep(kappas, types=tuple(args.type), grid=grid,
                   estimate_kappa1=args.kappa1_probe)
    lines = [f"# config_hash={h}"]
    k0 = result.kappa0_estimate
    k1 = result.kappa1_estimate
    lines.append(f"# kappa0_bracket={k0[0]!r},{k0[1]!r}" if k0 else "# kappa0_bracket=none")
    lines.append(f"# kappa1_bracket={k1[0]!r},{k1[1]!r}" if k1 else "# kappa1_bracket=none")
    with open(os.path.join(out, "sweep.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
        # a failure status may contain commas; the writer quotes only such fields
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kappa", "type", "E", "lambda1", "lambda2", "dir_value", "status"])
        writer.writerows([repr(r.kappa), r.saddle_type, repr(r.energy), repr(r.lambda1),
                          repr(r.lambda2), repr(r.dir_value), r.status]
                         for r in result.rows)
    for report in result.reports:
        name = f"kappa_{report.kappa:g}_{report.saddle_type}.csv"
        write_profile_csv(report.profile, os.path.join(out, "profiles", name),
                          kappa=report.kappa, extra_header=f"# config_hash={h}")
    print(f"swept {len(result.rows)} rows; kappa0={k0}; kappa1={k1}")
    return 0


def cmd_spectrum(args):
    config = {"command": "spectrum", "profile": args.profile,
              "kappa": args.kappa, "k": args.k, "n": args.n,
              "vectors": args.vectors}
    h = config_hash(config)
    grid = make_grid(args.n)
    p = _load_initial(args.profile, grid, args.kappa)
    op = assemble_second_variation(p, EnergyParams(args.kappa))
    # a bad --k leaves no output directory; an unusable one is refused
    # before the eigensolve
    _require_pair_count(op, args.k)
    out = _outdir(args)
    result = eigs_lowest(op, args.k)
    lines = [f"# config_hash={h}", "index,lambda"]
    for i, lam in enumerate(result.eigenvalues):
        lines.append(f"{i + 1},{float(lam)!r}")
    with open(os.path.join(out, "spectrum.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if args.vectors:
        for i in range(args.k):
            vec_lines = [f"# config_hash={h}",
                         f"# eigenvalue={float(result.eigenvalues[i])!r}", "theta,v"]
            vec_lines.extend(_csv_rows(grid, result.eigenvectors[i]))
            with open(os.path.join(out, f"eigvec_{i + 1}.csv"), "w") as fh:
                fh.write("\n".join(vec_lines) + "\n")
    print("eigenvalues:", " ".join(f"{v:.6g}" for v in result.eigenvalues))
    return 0


def _validate_properties(n, seed):
    """The property suite behind cmd_validate; yields (name, ok, detail)."""
    grid = make_grid(n)
    rng = np.random.default_rng(seed)

    # exact solutions stay residual-free
    theta_p = builtin_profile("theta", grid)
    two_theta = builtin_profile("two-theta", grid)
    worst = max(max(residual_supnorm(theta_p, EnergyParams(k))
                    for k in (0.0, 1.0, 4.0, 10.0)),
                residual_supnorm(two_theta, EnergyParams(4.0)))
    yield ("exact-solution-residuals", worst < 1e-6, f"sup residual {worst:.3g}")

    # analytic energies; the bar follows the second-order discretization error
    pi_p = builtin_profile("pi", grid)
    errs = (abs(reduced_energy(theta_p, EnergyParams(3.0)) - 2.0) / 2.0,
            abs(reduced_energy(two_theta, EnergyParams(4.0)) - 8.0) / 8.0,
            abs(reduced_energy(pi_p, EnergyParams(6.0)) - 4.0) / 4.0)
    energy_bar = 1e-5 * max(1.0, (1024.0 / n) ** 2)
    yield ("analytic-energies", max(errs) < energy_bar,
           f"max rel err {max(errs):.3g}")

    # Legendre spectrum of the singular operator
    rep = legendre_validation(grid, 5)
    ok = rep.max_deviation_coarse < 1e-2 and 3.0 < rep.refinement_ratio < 5.0
    yield ("legendre-table", ok,
           f"max dev {rep.max_deviation_coarse:.3g}, ratio {rep.refinement_ratio:.2f}")

    # gradient and Hessian consistency against centered differences
    base = make_profile(grid, np.pi + 0.2 * np.sin(grid.nodes)
                        + 0.1 * np.sin(2 * grid.nodes), 1, 1)
    params = EnergyParams(1.5)
    eps = 1e-4
    grad_worst = hess_worst = 0.0
    e0 = reduced_energy(base, params)
    w_r = grid.stencil.weight * el_residual(base, params)  # -(grad E) at nodes 1..n-1
    for _ in range(20):
        coef = rng.uniform(-1.0, 1.0, 3)
        g = sum(c * np.sin((i + 1) * grid.nodes) for i, c in enumerate(coef))
        g[0] = g[-1] = 0.0
        plus = make_profile(grid, base.values + eps * g, 1, 1)
        minus = make_profile(grid, base.values - eps * g, 1, 1)
        e_plus, e_minus = reduced_energy(plus, params), reduced_energy(minus, params)
        fd1 = (e_plus - e_minus) / (2 * eps)
        grad_worst = max(grad_worst, abs(fd1 + w_r @ g[1:-1]))
        fd2 = (e_plus - 2 * e0 + e_minus) / eps ** 2
        hess_worst = max(hess_worst,
                         abs(fd2 - second_variation_form(base, params, g)))
    fd_bar = 1e-4 * max(1.0, (512.0 / n) ** 2)
    yield ("gradient-consistency", grad_worst < fd_bar, f"worst {grad_worst:.3g}")
    yield ("hessian-consistency", hess_worst < fd_bar, f"worst {hess_worst:.3g}")

    # sign certificates on the wedges
    cert_ok = True
    detail = []
    for kappa in (4.0, 7.0):
        rep = wedge_certificates(kappa)
        cert_ok = cert_ok and rep.all_hold
        detail.append(f"kappa={kappa:g} {'ok' if rep.all_hold else 'VIOLATED'}")
    yield ("wedge-certificates", cert_ok, ", ".join(detail))

    # comparison principle on randomized ordered pairs
    cgrid = make_grid(256)
    worst = 0.0
    for _ in range(5):
        a = rng.uniform(0.05, 0.4)
        b = rng.uniform(0.05, 0.3)
        lo_vals = np.pi + a * np.sin(cgrid.nodes) ** 2 * np.cos(cgrid.nodes)
        up_vals = lo_vals + b * np.sin(cgrid.nodes) ** 2
        lo = make_profile(cgrid, lo_vals, 1, 1)
        up = make_profile(cgrid, up_vals, 1, 1)
        verdict = comparison_trial(lo, up, EnergyParams(5.0),
                                   FlowConfig(t_max=5.0, record_every=10))
        worst = max(worst, verdict.max_violation)
    yield ("comparison-trials", worst <= 1e-6, f"worst violation {worst:.3g}")


def cmd_validate(args):
    failures = 0
    for name, ok, detail in _validate_properties(args.n, args.seed):
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="axiferro",
        description="Axisymmetric profile flow, saddle certification, and "
                    "kappa sweeps for the spherical-ferromagnet energy.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None,
                     help=f"output directory (default: ${OUTDIR_ENV} or .)")

    p = sub.add_parser("flow", parents=[out], help="integrate the profile heat flow")
    p.add_argument("--init", required=True,
                   help="pi | theta | two-theta | first-type | <profile.csv>")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-max", type=float, default=1e3)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--record-every", type=int, default=10)
    p.add_argument("--wedge", choices=["auto", "none", "W1", "W2"], default="auto")
    p.add_argument("--half-interval", action="store_true")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("saddle", parents=[out], help="run one saddle pipeline")
    p.add_argument("--type", choices=[FIRST, SECOND], required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=cmd_saddle)

    p = sub.add_parser("sweep", parents=[out],
                       help="sweep kappa and bracket the thresholds")
    p.add_argument("--type", nargs="+", choices=[FIRST, SECOND],
                   default=[FIRST, SECOND])
    p.add_argument("--from", dest="kappa_from", type=float, required=True)
    p.add_argument("--to", dest="kappa_to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--kappa1-probe", action=argparse.BooleanOptionalAction,
                   default=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", parents=[out], help="lowest eigenvalues at a profile")
    p.add_argument("--profile", required=True,
                   help="pi | theta | two-theta | first-type | <profile.csv>")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--vectors", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("validate", help="run the numerical property suite")
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            sys.exit(1)
        raise
    try:
        code = args.func(args)
    except (ValueError, OSError, SaddleValidationError, ContinuationError,
            BlowupError, NewtonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
