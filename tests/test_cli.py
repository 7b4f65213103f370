import csv
import io
import json
import sys
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from axiferro import cli, flow
from axiferro.grid import make_grid
from axiferro.profile import WedgeSpec, make_profile, write_profile_csv
from axiferro.saddle import SYMMETRY_TOL, sweep

# a warning used to break the one-line stderr checks; it still fails the test
pytestmark = pytest.mark.filterwarnings("error")

CliResult = namedtuple("CliResult", "returncode stdout stderr")


def run_cli(*args):
    """Run ``axiferro *args`` in this process; ``main`` always ends in ``sys.exit``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as info:
        cli.main(list(args))
    return CliResult(info.value.code, out.getvalue(), err.getvalue())


def assert_one_line_error(r):
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr


class TestFlowCommand:
    def test_stationary_exit_zero(self, tmp_path):
        r = run_cli("flow", "--init", "pi", "--kappa", "5", "--n", "512",
                    "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        record = json.loads((tmp_path / "run.json").read_text())
        assert record["status"] == "stationary"
        assert record["E_final"] < 10.0 / 3.0
        assert record["energy_monotone"]
        trace = (tmp_path / "energy_trace.csv").read_text().splitlines()
        assert trace[0].startswith("# config_hash=")
        assert trace[1] == "t,E,sup_residual,wedge_ok"
        assert (tmp_path / "final_profile.csv").exists()

    def test_first_type_at_kappa_100_energy_monotone(self, tmp_path):
        # the trace's energy is the one whose gradient the flow follows
        r = run_cli("flow", "--init", "first-type", "--kappa", "100", "--n", "1024",
                    "--half-interval", "--wedge", "W1", "--tol", "1e-7",
                    "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        record = json.loads((tmp_path / "run.json").read_text())
        assert record["status"] == "stationary"
        assert record["energy_monotone"] is True

    def test_exact_solution_exits_immediately(self, tmp_path):
        r = run_cli("flow", "--init", "two-theta", "--kappa", "4", "--n", "512",
                    "--out", str(tmp_path))
        assert r.returncode == 0
        assert json.loads((tmp_path / "run.json").read_text())["steps"] <= 2

    def test_help_says_what_max_steps_bounds(self):
        r = run_cli("flow", "--help")
        assert r.returncode == 0
        text = " ".join(r.stdout.split())
        assert "--dt DT pseudo-time step of the flow (default: 1.0)" in text
        assert ("--max-steps MAX_STEPS step cap; exits 2 if not stationary by then "
                "(default: 1000)") in text
        assert "--t-max" not in text

    def test_horizon_exit_two(self, tmp_path):
        r = run_cli("flow", "--init", "pi", "--kappa", "5", "--n", "256",
                    "--max-steps", "1", "--out", str(tmp_path))
        assert r.returncode == 2

    def test_large_dt_runs_the_step_cap(self, tmp_path):
        # a pseudo-time horizon of 1e3 stopped this run after 1 step at dt = 1000
        r = run_cli("flow", "--init", "two-theta", "--kappa", "4.5", "--n", "1024",
                    "--dt", "1000", "--max-steps", "3", "--out", str(tmp_path))
        assert r.returncode == 2
        record = json.loads((tmp_path / "run.json").read_text())
        assert record["status"] == "horizon_reached"
        assert record["steps"] == 3
        assert record["t_end"] == 3000.0
        assert record["config"]["max_steps"] == 3

    @pytest.mark.parametrize("init,code,status", [("two-theta", 0, "stationary"),
                                                  ("bubble", 3, "blowup_suspected")])
    def test_last_allowed_step_is_tested(self, tmp_path, init, code, status):
        # capped at the steps the uncapped run takes, the run ends the same
        # way; the cap used to exit 2 with horizon_reached
        if init == "two-theta":
            args = ("--init", "two-theta", "--kappa", "4.5", "--n", "1024",
                    "--dt", "1000", "--half-interval")
        else:
            g = make_grid(2048)
            vals = 2.0 * np.arctan(np.tan(g.nodes / 2) / 1.2e-3)
            vals[0], vals[-1] = 0.0, np.pi
            write_profile_csv(make_profile(g, vals, 0, 1), tmp_path / "bubble.csv")
            args = ("--init", str(tmp_path / "bubble.csv"), "--kappa", "1",
                    "--n", "2048", "--dt", "1e-2")
        args = ("flow", *args, "--tol", "1e-7")
        assert run_cli(*args, "--out", str(tmp_path / "free")).returncode == code
        steps = json.loads((tmp_path / "free" / "run.json").read_text())["steps"]
        r = run_cli(*args, "--max-steps", str(steps), "--out", str(tmp_path / "capped"))
        assert r.returncode == code, r.stderr
        record = json.loads((tmp_path / "capped" / "run.json").read_text())
        assert (record["status"], record["steps"]) == (status, steps)
        assert steps > 0

    def test_overflowing_dt_refused_in_one_line(self, tmp_path):
        # dt = 1e308 overflows the step matrix; numpy's overflow warnings
        # used to come before the error line
        r = run_cli("flow", "--init", "pi", "--kappa", "5", "--n", "256",
                    "--dt", "1e308", "--out", str(tmp_path))
        assert_one_line_error(r)
        assert "dt = 1e+308 is too large for n = 256" in r.stderr
        assert not (tmp_path / "run.json").exists()

    def test_blowup_exit_three(self, tmp_path):
        g = make_grid(2048)
        vals = 2.0 * np.arctan(np.tan(g.nodes / 2) / 1e-4)
        vals[0] = 0.0
        vals[-1] = np.pi
        csv = tmp_path / "bubble.csv"
        write_profile_csv(make_profile(g, vals, 0, 1), csv)
        r = run_cli("flow", "--init", str(csv), "--kappa", "1", "--n", "2048",
                    "--max-steps", "1", "--out", str(tmp_path))
        assert r.returncode == 3

    @staticmethod
    def wedge_outputs(out):
        """run.json's wedge_always_ok and the trace's wedge_ok field of every row."""
        record = json.loads((out / "run.json").read_text())
        rows = (out / "energy_trace.csv").read_text().splitlines()[2:]
        assert rows
        return record["wedge_always_ok"], {row.split(",")[3] for row in rows}

    @pytest.mark.parametrize("init, wedge", [("two-theta", "none"), ("theta", "auto"),
                                             ("csv", "auto")])
    def test_run_without_monitor_writes_no_wedge_verdict(self, tmp_path, init, wedge):
        # a start with no wedge of its own gets no monitor from --wedge auto
        if init == "csv":
            init = str(tmp_path / "start.csv")
            write_profile_csv(make_profile(make_grid(256), np.full(257, np.pi), 1, 1), init)
        r = run_cli("flow", "--init", init, "--kappa", "3", "--n", "256",
                    "--wedge", wedge, "--out", str(tmp_path / "out"))
        assert r.returncode in (0, 2), r.stderr
        assert self.wedge_outputs(tmp_path / "out") == (None, {""})

    def test_run_leaving_its_monitored_wedge_writes_false(self, tmp_path):
        # at kappa = 3 < 4 the flow from 2*theta leaves W2
        r = run_cli("flow", "--init", "two-theta", "--kappa", "3", "--n", "256",
                    "--wedge", "W2", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        verdict, fields = self.wedge_outputs(tmp_path)
        assert verdict is False and "0" in fields and fields <= {"0", "1"}

    def test_grid_precondition_exit_one(self, tmp_path):
        r = run_cli("flow", "--init", "theta", "--kappa", "7", "--n", "15",
                    "--out", str(tmp_path))
        assert r.returncode == 1
        assert "15" in r.stderr

    def test_unreadable_profile_exit_one(self, tmp_path):
        r = run_cli("flow", "--init", str(tmp_path / "absent.csv"),
                    "--kappa", "5", "--n", "256", "--out", str(tmp_path))
        assert r.returncode == 1

    @pytest.mark.parametrize("content", ["", "# m=1 n=1 kappa=5.0\ntheta,h\n"])
    def test_profile_without_data_exit_one(self, tmp_path, content):
        path = tmp_path / "empty.csv"
        path.write_text(content)
        r = run_cli("flow", "--init", str(path), "--kappa", "5", "--n", "256",
                    "--out", str(tmp_path))
        assert r.returncode == 1
        assert r.stderr.count("\n") == 1
        assert r.stderr.startswith("error: ") and str(path) in r.stderr

    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            r = run_cli("flow", "--init", "pi", "--kappa", "5", "--n", "256",
                        "--out", str(out))
            assert r.returncode == 0
        for name in ("energy_trace.csv", "final_profile.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        rec1 = json.loads((out1 / "run.json").read_text())
        rec2 = json.loads((out2 / "run.json").read_text())
        rec1.pop("wall_time_s")
        rec2.pop("wall_time_s")
        assert rec1 == rec2

    def test_run_record_carries_the_step(self, tmp_path):
        records = {}
        for name, dt in (("default", ()), ("one", ("--dt", "1")),
                         ("small", ("--dt", "0.01"))):
            r = run_cli("flow", "--init", "pi", "--kappa", "5", "--n", "256", *dt,
                        "--out", str(tmp_path / name))
            assert r.returncode == 0, r.stderr
            records[name] = json.loads((tmp_path / name / "run.json").read_text())
        assert records["default"]["config"]["dt"] == 1.0
        assert records["small"]["config"]["dt"] == 0.01
        for record in records.values():
            assert record["config_hash"] == cli.config_hash(record["config"])
        # an omitted --dt is the same configuration as the default step given
        assert records["default"]["config_hash"] == records["one"]["config_hash"]
        assert records["default"]["config_hash"] != records["small"]["config_hash"]
        assert records["small"]["steps"] > records["default"]["steps"]

    @pytest.mark.parametrize("init,kind", [("pi", "W1"), ("first-type", "W1"),
                                           ("two-theta", "W2"), ("theta", "none"),
                                           ("csv", "none")])
    def test_wedge_auto_is_the_start_wedge(self, tmp_path, monkeypatch, init, kind):
        # --wedge auto monitors the wedge a builtin start lies in, at the
        # reports' slack, and nothing for any other start: its outputs are
        # those of that --wedge given, apart from the configuration
        if init == "csv":
            g = make_grid(256)
            init = str(tmp_path / "start.csv")
            write_profile_csv(make_profile(g, np.pi + 0.3 * np.sin(g.nodes) ** 2, 1, 1),
                              init, kappa=5.0)
        real = flow.wedge_check
        specs = {}
        outputs = {}
        for wedge in ("auto", kind):
            seen = specs[wedge] = set()
            monkeypatch.setattr(flow, "wedge_check",
                                lambda p, spec: seen.add(spec) or real(p, spec))
            out = tmp_path / wedge
            r = run_cli("flow", "--init", init, "--kappa", "5", "--n", "256",
                        "--wedge", wedge, "--out", str(out))
            assert r.returncode == 0, r.stderr
            record = json.loads((out / "run.json").read_text())
            assert record["config"].pop("wedge") == wedge
            for key in ("config_hash", "wall_time_s"):
                del record[key]
            # the first line of the trace and the second of the profile carry the hash
            outputs[wedge] = (record, r.stdout,
                              (out / "energy_trace.csv").read_text().split("\n")[1:],
                              (out / "final_profile.csv").read_text().split("\n", 2)[::2])
        assert specs["auto"] == ({WedgeSpec(kind, SYMMETRY_TOL)} if kind != "none" else set())
        assert specs["auto"] == specs[kind]
        assert outputs["auto"] == outputs[kind]

    def test_outdir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AXIFERRO_OUTDIR", str(tmp_path / "envout"))
        r = run_cli("flow", "--init", "two-theta", "--kappa", "4", "--n", "256")
        assert r.returncode == 0
        assert (tmp_path / "envout" / "run.json").exists()


class TestSaddleCommand:
    def test_second_type_at_four(self, tmp_path):
        r = run_cli("saddle", "--type", "second", "--kappa", "4",
                    "--n", "512", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["lambda1"] == pytest.approx(-2.0, abs=1e-2)
        # the field energy is 2*pi times the reduced energy
        assert report["full_energy"] == pytest.approx(2 * np.pi * report["energy"],
                                                      rel=1e-14)
        assert report["morse_index"] == 1
        assert report["degree"] == 0
        assert list(report)[0] == "config_hash"
        assert (tmp_path / "profile.csv").exists()

    def test_first_type_fig1_profile(self, tmp_path):
        r = run_cli("saddle", "--type", "first", "--kappa", "10",
                    "--n", "512", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["explicit_direction_value"] < 0
        assert report["wedge"]["inside"]
        assert report["hemispheric"]

    def test_precondition_exit_one(self, tmp_path):
        r = run_cli("saddle", "--type", "first", "--kappa", "3",
                    "--out", str(tmp_path))
        assert r.returncode == 1

    def test_marginal_report_is_written(self, tmp_path):
        # below kappa0 the first type is marginal; the flag must serialize
        r = run_cli("saddle", "--type", "first", "--kappa", "5",
                    "--n", "512", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["marginal"] is True
        assert report["grid_n"] == 512

    # kappa = 1e9 asks for n ~ 1e6, whose residual noise floor lies above the
    # flow tolerance; kappa = 0.5 is past the end of the second-type branch
    @pytest.mark.parametrize("saddle_type, kappa, message", [
        ("first", "1e9", "noise floor"),
        ("second", "0.5", "last solved kappa=3.25")])
    def test_pipeline_error_exit_one(self, tmp_path, saddle_type, kappa, message):
        r = run_cli("saddle", "--type", saddle_type, "--kappa", kappa,
                    "--out", str(tmp_path))
        assert_one_line_error(r)
        assert message in r.stderr


@pytest.mark.parametrize("argv", [
    ("saddle", "--type", "first", "--kappa", "inf"),
    ("saddle", "--type", "second", "--kappa", "inf"),
    ("saddle", "--type", "first", "--kappa", "nan"),
    ("sweep", "--from", "4", "--to", "inf", "--step", "1")])
def test_nonfinite_kappa_refused_before_any_output(tmp_path, argv):
    out = tmp_path / "out"
    r = run_cli(*argv, "--out", str(out))
    assert_one_line_error(r)
    assert "kappa must be finite" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("flow", "--init", "pi", "--kappa", "inf", "--n", "256"), "kappa must be finite"),
    (("flow", "--init", "pi", "--kappa", "5", "--n", "255"), "odd subdivision"),
    (("spectrum", "--profile", "pi", "--kappa", "nan"), "kappa must be finite"),
    # the residual noise floor at n = 4096, 2.1e-9, is above the default --tol 1e-9
    (("flow", "--init", "first-type", "--kappa", "5", "--n", "4096", "--half-interval"),
     "noise floor"),
    # the operator at n = 64 has 63 interior nodes
    (("spectrum", "--profile", "pi", "--kappa", "5", "--n", "64", "--k", "0"),
     "k = 0 out of range 1..63"),
    (("spectrum", "--profile", "pi", "--kappa", "5", "--n", "64", "--k", "64"),
     "k = 64 out of range 1..63"),
    # n = 0 is refused by make_grid, not divided by in the noise-floor check
    (("flow", "--init", "pi", "--kappa", "5", "--n", "0"), "n = 0 too coarse"),
    (("flow", "--init", "pi", "--kappa", "5", "--n", "256", "--max-steps", "0"),
     "max_steps must be an integer >= 1, got 0")])
def test_flow_and_spectrum_refuse_bad_input_before_any_output(tmp_path, argv, message):
    out = tmp_path / "out"
    r = run_cli(*argv, "--out", str(out))
    assert_one_line_error(r)
    assert message in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", [("flow", "--init"), ("spectrum", "--profile")])
def test_overflowing_profile_refused_before_any_output(tmp_path, command):
    # the residual of these values overflows: flow used to exit 3 after numpy's
    # warnings, and spectrum to fail in one line that named LAPACK's dstebz
    values = np.full(257, np.pi)
    values[5], values[6] = 1.7e308, -1.7e308
    path = tmp_path / "huge.csv"
    write_profile_csv(make_profile(make_grid(256), values, 1, 1), path)
    out = tmp_path / "out"
    r = run_cli(*command, str(path), "--kappa", "5", "--n", "256", "--out", str(out))
    assert_one_line_error(r)
    assert f"{path}: the residual at kappa = 5 is not finite" in r.stderr
    assert not out.exists()


# n = 3.2e9 (the default grid at kappa = 1e16 too) would be three arrays of
# 25.6 GB each; its noise floor is above both tolerances.  Each of these
# requests runs a flow; the sweep over (5, 1e16) makes no run directory
@pytest.mark.parametrize("argv", [
    ("flow", "--init", "pi", "--kappa", "5", "--n", "3200000000"),
    ("saddle", "--type", "first", "--kappa", "1e16"),
    ("saddle", "--type", "first", "--kappa", "5", "--n", "3200000000"),
    ("saddle", "--type", "second", "--kappa", "10", "--n", "3200000000"),
    ("sweep", "--from", "5", "--to", "6", "--step", "1", "--n", "3200000000"),
    ("sweep", "--type", "first", "--from", "5", "--to", "1e16", "--step", "5e15")])
def test_unresolvable_grid_refused_before_it_is_built(tmp_path, no_huge_grids, argv):
    out = tmp_path / "out"
    r = run_cli(*argv, "--out", str(out))
    assert_one_line_error(r)
    assert "noise floor" in r.stderr
    assert not out.exists()


# requests that run no flow, or a flow whose --tol is above the noise floor,
# meet the grid's own ceiling, and validate its lower one; validate takes no
# --out, so the directory that must not appear is named by the environment
@pytest.mark.parametrize("argv", [
    ("validate", "--n", "3200000000"),
    ("spectrum", "--profile", "pi", "--kappa", "5", "--n", "3200000000"),
    ("saddle", "--type", "second", "--kappa", "3.5", "--n", "3200000000"),
    ("sweep", "--type", "second", "--from", "3", "--to", "3.5", "--step", "0.5",
     "--n", "3200000000"),
    ("flow", "--init", "pi", "--kappa", "5", "--n", "3200000000", "--tol", "1e4")])
def test_oversize_grid_refused_before_it_is_built(tmp_path, monkeypatch, no_huge_grids, argv):
    monkeypatch.setenv("AXIFERRO_OUTDIR", str(tmp_path / "out"))
    r = run_cli(*argv)
    assert_one_line_error(r)
    assert "3200000000 too fine" in r.stderr
    ceiling = "need --n <= 16384" if argv[0] == "validate" else "need n <= 1048576"
    assert ceiling in r.stderr
    assert not (tmp_path / "out").exists()


# validate keeps --seed: its property checks draw random data
@pytest.mark.parametrize("argv", [
    ("flow", "--init", "pi", "--kappa", "5", "--n", "256"),
    ("saddle", "--type", "second", "--kappa", "4", "--n", "256"),
    ("sweep", "--from", "4", "--to", "5", "--step", "1", "--n", "256"),
    ("spectrum", "--profile", "pi", "--kappa", "5", "--n", "64")])
def test_seed_refused_where_nothing_reads_it(tmp_path, argv):
    out = tmp_path / "out"
    r = run_cli(*argv, "--seed", "3", "--out", str(out))
    assert_one_line_error(r)
    assert "unrecognized arguments: --seed 3" in r.stderr
    assert not out.exists()


# argparse's own errors used to print its usage text before the error line
@pytest.mark.parametrize("argv, message", [
    (("flow", "--init", "pi", "--kappa", "5", "--n", "256", "--max-steps", "1e3"),
     "argument --max-steps: invalid int value: '1e3'"),
    (("sweep", "--type", "third", "--from", "4", "--to", "5", "--step", "1"),
     "argument --type: invalid choice: 'third'"),
    ((), "the following arguments are required: cmd")])
def test_parse_errors_are_one_line(tmp_path, monkeypatch, argv, message):
    monkeypatch.setenv("AXIFERRO_OUTDIR", str(tmp_path / "out"))
    r = run_cli(*argv)
    assert_one_line_error(r)
    assert message in r.stderr
    assert r.stdout == ""
    assert not (tmp_path / "out").exists()


def test_version_exits_zero():
    r = run_cli("--version")
    assert r.returncode == 0
    assert r.stdout.strip() == cli.__version__


@pytest.mark.parametrize("argv, stage", [
    (("flow", "--init", "pi", "--kappa", "5", "--n", "256"), "run"),
    (("spectrum", "--profile", "pi", "--kappa", "5", "--n", "256"), "eigs_lowest")])
def test_unusable_outdir_refused_before_the_computation(tmp_path, monkeypatch, argv, stage):
    out = tmp_path / "taken"
    out.write_text("")
    monkeypatch.setattr(cli, stage, lambda *a, **k: pytest.fail(f"{stage} was called"))
    r = run_cli(*argv, "--out", str(out))
    assert_one_line_error(r)


def test_process_boundary(tmp_path):
    # the only test that starts interpreters: the module entry points, and
    # a refusal that crosses the process boundary as one line and exit 1
    import subprocess

    def python_m(*args):
        return subprocess.run([sys.executable, "-m", *args], capture_output=True, text=True)

    out = tmp_path / "flow"
    r = python_m("axiferro.cli", "flow", "--init", "pi", "--kappa", "5", "--n", "256",
                 "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert (out / "run.json").exists()
    out = tmp_path / "bad"
    r = python_m("axiferro", "saddle", "--type", "first", "--kappa", "inf", "--out", str(out))
    assert_one_line_error(r)
    assert not out.exists()


class TestSweepCommand:
    def test_both_types_with_kappa1_probe(self, tmp_path):
        r = run_cli("sweep", "--type", "first", "second", "--from", "4",
                    "--to", "4.5", "--step", "0.5", "--n", "256",
                    "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        # branch probe reports where the downward continuation ends
        k1_line = next(ln for ln in lines if ln.startswith("# kappa1_bracket="))
        lo, hi = map(float, k1_line.split("=")[1].split(","))
        assert 0 < lo < hi < 4.0
        types_seen = {ln.split(",")[1] for ln in lines[4:]}
        assert types_seen == {"first", "second"}

    def test_failed_rows_parse_to_seven_fields(self, tmp_path):
        # below the fold every second-type row fails with a status that
        # contains a comma; the field is quoted, not split
        r = run_cli("sweep", "--type", "second", "--from", "3.0", "--to", "3.1",
                    "--step", "0.1", "--n", "256", "--no-kappa1-probe",
                    "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
        assert rows[0] == ["kappa", "type", "E", "lambda1", "lambda2", "dir_value",
                           "status"]
        assert all(len(row) == 7 for row in rows)
        expected = sweep([3.0, 3.1], types=("second",), grid=make_grid(256),
                         estimate_kappa1=False)
        assert [row[6] for row in rows[1:]] == [row.status for row in expected.rows]
        assert all(row[6].startswith("failed: continuation from (4, 2*theta)")
                   for row in rows[1:])

    def test_run_directory_layout(self, tmp_path):
        r = run_cli("sweep", "--type", "first", "--from", "6.5", "--to", "7",
                    "--step", "0.25", "--n", "512", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "config.json").exists()
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1].startswith("# kappa0_bracket=")
        assert lines[2].startswith("# kappa1_bracket=")
        assert lines[3] == "kappa,type,E,lambda1,lambda2,dir_value,status"
        assert len(lines) >= 4 + 3
        profiles = list((tmp_path / "profiles").iterdir())
        assert any(p.name.startswith("kappa_6.5_first") for p in profiles)
        # bracket refined below the requested width
        lo, hi = map(float, lines[1].split("=")[1].split(","))
        assert hi - lo <= 0.05

    def test_one_profile_file_per_report(self, tmp_path):
        # the five kappas agree to six significant digits, so a file name
        # built from kappa:g would give all five reports the same file
        r = run_cli("sweep", "--type", "second", "--from", "3.9", "--to", "3.900004",
                    "--step", "0.000001", "--n", "256", "--no-kappa1-probe",
                    "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        assert len(rows) == 5 and all(row["status"] == "saddle" for row in rows)
        names = sorted(p.name for p in (tmp_path / "profiles").iterdir())
        assert names == sorted(f"kappa_{row['kappa']}_second.csv" for row in rows)

    @pytest.mark.parametrize("bounds", [("4", "5", "0"), ("4", "5", "-1"),
                                        ("4", "5", "nan"), ("5", "4", "1"),
                                        ("0", "1", "0.5"), ("4", "5", "1e-12"),
                                        ("4", "1e300", "1"), ("4", "1e300", "1e-300")])
    def test_bad_range_refused_before_any_output(self, tmp_path, bounds):
        kappa_from, kappa_to, step = bounds
        out = tmp_path / "out"
        r = run_cli("sweep", "--from", kappa_from, "--to", kappa_to,
                    "--step", step, "--out", str(out))
        assert_one_line_error(r)
        assert not out.exists()


class TestSpectrumCommand:
    def test_legendre_values(self, tmp_path):
        r = run_cli("spectrum", "--profile", "two-theta", "--kappa", "4",
                    "--k", "5", "--n", "1024", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[1] == "index,lambda"
        values = [float(ln.split(",")[1]) for ln in lines[2:]]
        assert np.allclose(values, [-2, 2, 8, 16, 26], atol=1e-2)

    def test_eigenvector_files(self, tmp_path):
        r = run_cli("spectrum", "--profile", "two-theta", "--kappa", "4",
                    "--k", "2", "--n", "256", "--vectors",
                    "--out", str(tmp_path))
        assert r.returncode == 0
        assert (tmp_path / "eigvec_1.csv").exists()
        assert (tmp_path / "eigvec_2.csv").exists()

    def test_eigenvector_rows_use_the_grid_nodes(self, tmp_path):
        r = run_cli("spectrum", "--profile", "two-theta", "--kappa", "4",
                    "--k", "2", "--n", "256", "--vectors", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        nodes = make_grid(256).nodes
        for i in (1, 2):
            lines = (tmp_path / f"eigvec_{i}.csv").read_text().splitlines()
            assert lines[2] == "theta,v"
            rows = [ln.split(",") for ln in lines[3:]]
            assert [t for t, _ in rows] == [repr(float(t)) for t in nodes]
            assert all(repr(float(v)) == v for _, v in rows)


class TestValidateCommand:
    def test_full_suite_passes(self):
        r = run_cli("validate", "--n", "512", "--seed", "7")
        assert r.returncode == 0, r.stdout + r.stderr
        lines = [ln for ln in r.stdout.splitlines() if ln]
        assert len(lines) == 7
        assert all(ln.startswith("PASS") for ln in lines)

    def test_refinement_grid_refused_before_any_result(self):
        # the fixed bars hold up to n = 16384, so a finer --n is refused
        # before its grid is built
        for n in ("16386", "524290"):
            r = run_cli("validate", "--n", n)
            assert_one_line_error(r)
            assert "need --n <= 16384" in r.stderr
            assert r.stdout == ""

    def test_coarse_grid_refused_before_any_result(self):
        # the Legendre table's fixed 1e-2 bar fails a correct build below
        # n = 236, so --n < 256 is refused before any result line
        for n in ("16", "128", "254"):
            r = run_cli("validate", "--n", n)
            assert_one_line_error(r)
            assert "need --n >= 256" in r.stderr
            assert r.stdout == ""

    def test_finest_accepted_grid_passes(self):
        r = run_cli("validate", "--n", "16384")
        assert r.returncode == 0, r.stdout + r.stderr
        lines = [ln for ln in r.stdout.splitlines() if ln]
        assert len(lines) == 7
        assert all(ln.startswith("PASS") for ln in lines)

    def test_coarser_grid_still_passes(self):
        r = run_cli("validate", "--n", "256", "--seed", "3")
        assert r.returncode == 0, r.stdout + r.stderr
