"""End-to-end CLI flows against temporary problem/gain files."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hinfgcc
from hinfgcc import cli

from conftest import PUBLISHED_EX1, PUBLISHED_EX2


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


TOY_PROBLEM = {
    "A": [[-1.0]],
    "B1": [[1.0]],
    "B2": [[1.0]],
    "C": [[1.0], [0.0]],
    "D": [[0.0], [1.0]],
    "solver": {"sigma": 1.0, "tau": 1.618, "eps": 1e-6},
}


# A = [[0, 1], [-1, 0]] with K = 0: a marginal loop whose pencil is singular
# at omega = 1
ROTATION_PROBLEM = {
    "A": [[0.0, 1.0], [-1.0, 0.0]],
    "B1": [[1.0, 0.0], [0.0, 1.0]],
    "B2": [[1.0], [0.0]],
    "C": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
    "D": [[0.0], [0.0], [1.0]],
}


@pytest.fixture()
def toy_file(tmp_path):
    return write_json(tmp_path / "toy.json", TOY_PROBLEM)


@pytest.fixture()
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestSolveCommand:
    def test_toy_solve_writes_report_and_history(self, toy_file, in_tmp):
        out = in_tmp / "toy_report.json"
        code = cli.main(["solve", toy_file, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "converged"
        assert report["gamma_star"] == pytest.approx(math.sqrt(2) / 2, rel=1e-3)
        assert report["K_star"][0][0] == pytest.approx(1.0, rel=1e-3)
        assert report["gamma_star"] == pytest.approx(1 / math.sqrt(report["mu_star"]), abs=1e-12)
        assert report["verification"]["all_stable"]
        assert report["verification"]["feasibility_passed"]

        hist = (in_tmp / "toy_report_history.csv").read_text()
        lines = hist.splitlines()
        assert lines[0] == "k,err_W,err_mu,err_Y,err_eq,err,mu"
        assert hist.endswith("\n")
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[2]) == 0.5
        assert len(lines) - 1 == report["iters"] + 1
        assert all("." in field or field.isdigit() for field in lines[2].split(","))

    def test_aircraft_example_reproduces_attenuation(self, in_tmp):
        problem = hinfgcc.fixture_path("example1.json")
        out = in_tmp / "ex1.json"
        code = cli.main(["solve", problem, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "converged"
        assert abs(report["gamma_star"] - PUBLISHED_EX1["gamma_star"]) <= 0.01 * PUBLISHED_EX1["gamma_star"]
        assert report["verification"]["all_stable"]

    def test_flag_overrides_beat_file_settings(self, toy_file, in_tmp):
        out = in_tmp / "loose.json"
        assert cli.main(["solve", toy_file, "--eps", "1e-2", "--out", str(out)]) == 0
        loose = json.loads(out.read_text())
        out2 = in_tmp / "tight.json"
        assert cli.main(["solve", toy_file, "--out", str(out2)]) == 0
        tight = json.loads(out2.read_text())
        assert loose["iters"] < tight["iters"]
        assert loose["solver"]["eps"] == pytest.approx(1e-2)

    def test_max_iters_exit_code(self, toy_file, in_tmp):
        code = cli.main(["solve", toy_file, "--max-iters", "3", "--out", str(in_tmp / "r.json")])
        assert code == 4

    def test_solver_block_lists_the_config_in_field_order(self, toy_file, in_tmp):
        out = in_tmp / "r.json"
        cli.main(["solve", toy_file, "--max-iters", "3", "--tau", "1.5", "--out", str(out)])
        block = json.loads(out.read_text())["solver"]
        assert list(block) == ["sigma", "tau", "eps", "max_iters"]
        assert block["tau"] == 1.5 and block["max_iters"] == 3

    @pytest.mark.parametrize("sigma", ["1e-200", "1e200"])
    def test_overflowing_sigma_exits_5(self, toy_file, in_tmp, sigma, capsys):
        out = in_tmp / "r.json"
        with np.errstate(all="ignore"):
            code = cli.main(["solve", toy_file, "--sigma", sigma, "--out", str(out)])
        assert code == 5
        # a failed run reports no gamma, no gain and no verification table
        report = json.loads(out.read_text())
        assert report["status"] == "numerical-failure"
        assert report["gamma_star"] is None
        assert report["K_star"] is None
        assert "verification" not in report
        printed = capsys.readouterr().out
        assert "gamma*" not in printed
        assert "K*" not in printed

    def test_verification_error_keeps_the_report(self, toy_file, in_tmp, monkeypatch, capsys):
        # a gain whose table cannot be evaluated still gets its report
        def broken(*args, **kwargs):
            raise hinfgcc.InvalidInputError("matrix contains non-finite entries")

        monkeypatch.setattr(cli.verify_mod, "check_feasibility", broken)
        out = in_tmp / "r.json"
        code = cli.main(["solve", toy_file, "--max-iters", "3", "--out", str(out)])
        assert code == 4
        report = json.loads(out.read_text())
        assert report["K_star"] is not None
        assert "non-finite" in report["verification"]["error"]
        assert "verification failed" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["1e-200", "1e200"])
    def test_overflow_prints_no_floating_point_warning(self, toy_file, tmp_path, sigma):
        # a fresh process, as from the shell, so that numpy's warnings
        # would reach stderr
        src = os.path.dirname(os.path.dirname(os.path.abspath(hinfgcc.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "hinfgcc.cli", "solve", toy_file, "--sigma", sigma,
             "--out", str(tmp_path / "r.json")],
            env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path, capture_output=True, text=True,
        )
        assert proc.returncode == 5
        assert "RuntimeWarning" not in proc.stderr, proc.stderr

    def test_zero_feedthrough_rejected_with_exit_3(self, tmp_path, in_tmp):
        bad = dict(TOY_PROBLEM)
        bad["D"] = [[0.0], [0.0]]
        path = write_json(tmp_path / "bad.json", bad)
        code = cli.main(["solve", path])
        assert code == 3

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main(["solve", str(path)]) == 2

    def test_missing_matrix_rejected(self, tmp_path):
        bad = {k: v for k, v in TOY_PROBLEM.items() if k != "B2"}
        path = write_json(tmp_path / "missing.json", bad)
        assert cli.main(["solve", path]) == 2

    def test_uncertainty_on_output_matrices_rejected(self, tmp_path):
        bad = dict(TOY_PROBLEM)
        bad["uncertainty"] = {"relative_bounds": {"C": [[0.1], [0.1]]}}
        path = write_json(tmp_path / "badunc.json", bad)
        assert cli.main(["solve", path]) == 2

    def test_parallel_solver_key_rejected(self, tmp_path, capsys):
        bad = dict(TOY_PROBLEM)
        bad["solver"] = {**TOY_PROBLEM["solver"], "parallel": True}
        path = write_json(tmp_path / "parallel.json", bad)
        assert cli.main(["solve", path]) == 2
        assert "unknown solver keys: ['parallel']" in capsys.readouterr().err

    @pytest.mark.parametrize(("extra", "status", "code"), [
        ([], "converged", 0),
        (["--max-iters", "3"], "max-iters", 4),
    ])
    def test_closed_stdout_keeps_report_and_exit_code(
        self, toy_file, in_tmp, monkeypatch, extra, status, code
    ):
        # `hinfgcc solve ... | head -2`: the reader goes away mid-summary
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        out = in_tmp / "piped.json"
        assert cli.main(["solve", toy_file, "--out", str(out), *extra]) == code
        report = json.loads(out.read_text())
        assert report["status"] == status
        assert "verification" in report
        assert (in_tmp / "piped_history.csv").exists()


class TestCertifiedHeadline:
    """solve's headline is the closed-form certificate of its W*, printed
    before the ADMM estimate gamma*."""

    def test_uncertain_example_bounds_every_vertex_norm(self, in_tmp, capsys):
        out = in_tmp / "ex2.json"
        assert cli.main(["solve", hinfgcc.fixture_path("example2.json"), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        gamma, mu = report["gamma_certified"], report["mu_certified"]
        assert gamma == 1.0 / math.sqrt(mu)
        peaks = [row["sweep_peak"] for row in report["verification"]["vertices"]]
        assert len(peaks) == 256 and max(peaks) <= gamma
        # the ADMM estimate alone does not bound the worst vertex
        assert report["gamma_star"] < max(peaks)
        lines = capsys.readouterr().out.splitlines()
        certified = next(i for i, line in enumerate(lines) if line.startswith("certified gamma = "))
        estimate = next(i for i, line in enumerate(lines) if line.startswith("gamma* = "))
        assert certified < estimate and f"{gamma:.6g}" in lines[certified]
        assert f"worst vertex H-infinity norm = {max(peaks):.6g}" in lines

    def test_aircraft_published_settings_have_no_certificate(self, in_tmp, capsys):
        out = in_tmp / "ex1.json"
        assert cli.main(["solve", hinfgcc.fixture_path("example1.json"), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["gamma_certified"] is None and report["mu_certified"] is None
        assert report["gamma_star"] is not None
        assert "certified gamma: none" in capsys.readouterr().out

    def test_failed_run_has_no_certificate(self, toy_file, in_tmp, capsys):
        out = in_tmp / "r.json"
        with np.errstate(all="ignore"):
            assert cli.main(["solve", toy_file, "--sigma", "1e200", "--out", str(out)]) == 5
        report = json.loads(out.read_text())
        assert report["gamma_certified"] is None and report["mu_certified"] is None
        assert "certified" not in capsys.readouterr().out

    def test_toy_certificate_is_the_library_value(self, toy_file, in_tmp, toy):
        out = in_tmp / "r.json"
        assert cli.main(["solve", toy_file, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        expected = hinfgcc.certified_attenuation(toy.ext, np.array(report["W_star"]))
        assert (report["mu_certified"], report["gamma_certified"]) == expected


class TestVerifyCommand:
    def test_published_gain_passes(self, in_tmp, tmp_path):
        problem = hinfgcc.fixture_path("example1.json")
        gain = write_json(tmp_path / "gain.json", {"K": PUBLISHED_EX1["K_star"].tolist()})
        out = in_tmp / "verify.json"
        assert cli.main(["verify", problem, gain, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["all_stable"]
        peak_db = report["vertices"][0]["sweep_peak_db"]
        assert abs(peak_db - PUBLISHED_EX1["sweep_peak_db"]) <= 0.1

    def test_zero_gain_on_unstable_plant_flags_failures(self, in_tmp):
        problem = hinfgcc.fixture_path("example2.json")
        gain = write_json(in_tmp / "zero.json", {"K": [[0.0, 0.0], [0.0, 0.0]]})
        out = in_tmp / "verify2.json"
        assert cli.main(["verify", problem, gain, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert not report["all_stable"]
        assert any(not row["stable"] for row in report["vertices"])

    def test_round_trip_solution_reverifies(self, toy_file, in_tmp):
        out = in_tmp / "sol.json"
        assert cli.main(["solve", toy_file, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        gain = write_json(
            in_tmp / "roundtrip.json",
            {"K": report["K_star"], "W": report["W_star"], "mu": report["mu_star"]},
        )
        vout = in_tmp / "reverify.json"
        assert cli.main(["verify", toy_file, str(gain), "--out", str(vout)]) == 0
        vreport = json.loads(vout.read_text())
        assert vreport["feasibility_passed"] == report["verification"]["feasibility_passed"]
        assert [r["feasible"] for r in vreport["vertices"]] == [
            r["feasible"] for r in report["verification"]["vertices"]
        ]

    @pytest.mark.parametrize("flags, failing", [
        # mu* < 0 with every vertex block feasible
        (["--sigma", "0.1", "--max-iters", "15"], "mu"),
        # W* indefinite with every vertex block feasible
        (["--sigma", "1", "--max-iters", "43"], "w_min_eig"),
    ])
    def test_round_trip_agrees_on_infeasible_side_conditions(self, toy_file, in_tmp, flags, failing):
        out = in_tmp / "sol.json"
        assert cli.main(["solve", toy_file, *flags, "--eps", "1e-12", "--out", str(out)]) == 4
        report = json.loads(out.read_text())
        assert all(r["feasible"] for r in report["verification"]["vertices"])
        gain = write_json(
            in_tmp / "roundtrip.json",
            {"K": report["K_star"], "W": report["W_star"], "mu": report["mu_star"]},
        )
        vout = in_tmp / "reverify.json"
        assert cli.main(["verify", toy_file, str(gain), "--out", str(vout)]) == 0
        vreport = json.loads(vout.read_text())
        assert vreport[failing] < -1e-6
        assert vreport["feasibility_passed"] is False
        assert report["verification"]["feasibility_passed"] is False

    def test_no_feasibility_tol_without_mu(self, toy_file, in_tmp):
        gain = write_json(in_tmp / "w_only.json", {"K": [[1.0]], "W": [[1.0, 1.0], [1.0, 2.0]]})
        out = in_tmp / "v.json"
        assert cli.main(["verify", toy_file, gain, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["feasibility_tol"] is None and "feasibility_passed" not in report

    def test_feasibility_is_evaluated_once(self, in_tmp, monkeypatch):
        problem = hinfgcc.fixture_path("example2.json")
        w, mu = PUBLISHED_EX2["W_star"], PUBLISHED_EX2["mu_star"]
        gain = write_json(
            in_tmp / "gain.json", {"K": PUBLISHED_EX2["K_star"].tolist(), "W": w.tolist(), "mu": mu}
        )
        real = cli.verify_mod.check_feasibility
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli.verify_mod, "check_feasibility", counting)
        out = in_tmp / "v.json"
        assert cli.main(["verify", problem, gain, "--out", str(out)]) == 0
        assert len(calls) == 1
        report = json.loads(out.read_text())
        feas = real(cli._pipeline(problem)[4], w, mu, 1e-6)
        assert [r["theta1_max_eig"] for r in report["vertices"]] == [
            v.theta1_max_eig for v in feas.per_vertex
        ]
        assert [r["feasible"] for r in report["vertices"]] == [v.feasible for v in feas.per_vertex]
        assert report["feasibility_passed"] == feas.passed
        assert report["w_min_eig"] == feas.w_min_eig
        assert report["mu"] == mu and report["feasibility_tol"] == 1e-6

    def test_malformed_gain_rejected(self, toy_file, tmp_path):
        gain = write_json(tmp_path / "nok.json", {"gain": [[1.0]]})
        assert cli.main(["verify", toy_file, gain]) == 2

    def test_peak_beyond_float_range_is_a_numerical_failure(self, tmp_path, in_tmp, capsys):
        # the peak, about 5e159, squares beyond the float range
        problem = write_json(tmp_path / "big.json", dict(TOY_PROBLEM, B1=[[1e60]], C=[[1e100], [0.0]]))
        gain = write_json(tmp_path / "gain.json", {"K": [[1.0]]})
        assert cli.main(["verify", problem, gain]) == 5
        assert "error:" in capsys.readouterr().err

    def test_wrong_gain_shape_rejected(self, toy_file, tmp_path):
        gain = write_json(tmp_path / "wrong.json", {"K": [[1.0, 2.0]]})
        assert cli.main(["verify", toy_file, gain]) == 2


ZERO_OUTPUT_PROBLEM = dict(TOY_PROBLEM, C=[[0.0], [0.0]])


class TestZeroResponseLoop:
    """C = 0 with K = 0 leaves a closed loop whose response is identically 0."""

    @pytest.fixture()
    def files(self, tmp_path):
        return (
            write_json(tmp_path / "zero_out.json", ZERO_OUTPUT_PROBLEM),
            write_json(tmp_path / "k0.json", {"K": [[0.0]]}),
        )

    def test_verify_reports_null_db(self, files, in_tmp):
        problem, gain = files
        out = in_tmp / "v.json"
        assert cli.main(["verify", problem, gain, "--out", str(out)]) == 0
        row = json.loads(out.read_text())["vertices"][0]
        assert row["sweep_peak"] == 0.0 and row["sweep_peak_db"] is None

    def test_sweep_writes_minus_inf(self, files, in_tmp):
        problem, gain = files
        out = in_tmp / "s.csv"
        assert cli.main(["sweep", problem, gain, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "peak_db=-inf" in lines[0]
        assert lines[2].split(",")[1:] == ["0", "-inf"]


class TestSimulateCommand:
    def test_trajectories_decay(self, toy_file, in_tmp):
        gain = write_json(in_tmp / "k1.json", {"K": [[1.0]]})
        code = cli.main(
            ["simulate", toy_file, gain, "--horizon", "3", "--dt", "0.001",
             "--out", str(in_tmp / "imp")]
        )
        assert code == 0
        lines = (in_tmp / "imp_ch0.csv").read_text().splitlines()
        assert lines[0] == "t,x1"
        t, x = zip(*[tuple(map(float, ln.split(","))) for ln in lines[1:]])
        assert x[0] == pytest.approx(1.0)
        # closed loop is dx = -2x, so x(3) = e^{-6}
        assert x[-1] == pytest.approx(math.exp(-6.0), rel=1e-5)

    def test_vertex_selection_on_uncertain_problem(self, in_tmp):
        problem = hinfgcc.fixture_path("example2.json")
        gain = write_json(in_tmp / "kp.json", {"K": PUBLISHED_EX2["K_star"].tolist()})
        code = cli.main(
            ["simulate", problem, gain, "--vertex", "0", "--horizon", "1",
             "--dt", "0.01", "--out", str(in_tmp / "v0")]
        )
        assert code == 0
        assert (in_tmp / "v0_ch0.csv").exists() and (in_tmp / "v0_ch1.csv").exists()

    def test_step_count_over_cap_exits_2(self, toy_file, in_tmp, capsys):
        gain = write_json(in_tmp / "k.json", {"K": [[1.0]]})
        argv = ["simulate", toy_file, gain, "--horizon", "1e300", "--dt", "1e-3",
                "--out", str(in_tmp / "imp")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "exceeds the cap" in err and "Traceback" not in err
        assert not list(in_tmp.glob("imp*"))

    def test_zero_dt_rejected(self, toy_file, in_tmp):
        gain = write_json(in_tmp / "k.json", {"K": [[1.0]]})
        assert cli.main(["simulate", toy_file, gain, "--dt", "0"]) == 2

    def test_vertex_out_of_range_rejected(self, toy_file, in_tmp):
        gain = write_json(in_tmp / "k.json", {"K": [[1.0]]})
        assert cli.main(["simulate", toy_file, gain, "--vertex", "5"]) == 2


def sweep_in_shell(cwd, problem, gain, *flags):
    """`hinfgcc sweep` in a fresh process, as from the shell, so that any
    warning reaches stderr; returns the process and the CSV path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hinfgcc.__file__)))
    out = cwd / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "hinfgcc.cli", "sweep", problem, gain, *flags, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), cwd=cwd, capture_output=True, text=True,
    )
    return proc, out


def read_sweep_csv(path):
    """The sweep CSV's header fields and its (omega, sigma_max, dB) rows."""
    lines = path.read_text().splitlines()
    header = dict(item.split("=") for item in lines[0].lstrip("# ").split(","))
    rows = np.array([list(map(float, ln.split(","))) for ln in lines[2:]])
    return {k: float(v) for k, v in header.items()}, rows


class TestSweepCommand:
    def test_aircraft_peak_in_header(self, in_tmp):
        problem = hinfgcc.fixture_path("example1.json")
        gain = write_json(in_tmp / "kp.json", {"K": PUBLISHED_EX1["K_star"].tolist()})
        out = in_tmp / "sweep.csv"
        assert cli.main(["sweep", problem, gain, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# peak_sigma_max=")
        peak_db = float(lines[0].split("peak_db=")[1].split(",")[0])
        assert abs(peak_db - PUBLISHED_EX1["sweep_peak_db"]) <= 0.05
        assert lines[1] == "omega_rad_s,sigma_max,sigma_max_db"
        w0, s0, db0 = map(float, lines[2].split(","))
        assert w0 == pytest.approx(1e-3)
        assert db0 == pytest.approx(20 * math.log10(s0), abs=1e-9)

    def test_uncertain_example_lower_vertex_peak(self, in_tmp):
        # the published diagram value belongs to the all-lower-bounds
        # extreme system (vertex 0)
        problem = hinfgcc.fixture_path("example2.json")
        gain = write_json(in_tmp / "k2.json", {"K": PUBLISHED_EX2["K_star"].tolist()})
        out = in_tmp / "sweep2.csv"
        assert cli.main(["sweep", problem, gain, "--vertex", "0", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        peak_db = float(header.split("peak_db=")[1].split(",")[0])
        assert abs(peak_db - PUBLISHED_EX2["sweep_peak_db"]) <= 0.05

    def test_flat_first_order_system(self, tmp_path, in_tmp):
        problem = write_json(
            tmp_path / "flat.json",
            {
                "A": [[-1.0, 0.0], [0.0, -1.0]],
                "B1": [[1.0, 0.0], [0.0, 1.0]],
                "B2": [[1.0, 0.0], [0.0, 1.0]],
                "C": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
                "D": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            },
        )
        gain = write_json(tmp_path / "k0.json", {"K": [[0.0, 0.0], [0.0, 0.0]]})
        out = in_tmp / "flat.csv"
        assert cli.main(["sweep", problem, gain, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows = np.array([list(map(float, ln.split(","))) for ln in lines[2:]])
        np.testing.assert_allclose(rows[:, 1], 1 / np.sqrt(1 + rows[:, 0] ** 2), rtol=1e-9)
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-5)

    def test_unstable_loop_peak_is_the_grid_maximum(self, toy_file, tmp_path):
        # toy plant at K = -2: A_c = +1
        gain = write_json(tmp_path / "km2.json", {"K": [[-2.0]]})
        proc, out = sweep_in_shell(tmp_path, toy_file, gain)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert "not asymptotically stable" in proc.stderr
        header, rows = read_sweep_csv(out)
        k = int(rows[:, 1].argmax())
        assert header["peak_sigma_max"] == rows[k, 1]
        assert header["peak_omega_rad_s"] == rows[k, 0]

    def test_singular_grid_point_skipped_with_warning(self, tmp_path):
        # the grid's first point is omega = 1, where the pencil is singular
        problem = write_json(tmp_path / "rot.json", ROTATION_PROBLEM)
        gain = write_json(tmp_path / "k0.json", {"K": [[0.0, 0.0]]})
        proc, out = sweep_in_shell(
            tmp_path, problem, gain, "--fmin", "1", "--fmax", "100", "--npts", "64"
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert "not asymptotically stable" in proc.stderr
        assert "skipped 1 frequencies where the pencil is singular" in proc.stderr
        _, rows = read_sweep_csv(out)
        assert rows.shape == (63, 3) and np.isfinite(rows).all()

    def test_grid_of_singular_points_exits_2(self, tmp_path, in_tmp, capsys):
        # rotations at 1 and 10 rad/s: the pencil is singular at both points
        a = np.zeros((4, 4))
        a[0, 1], a[1, 0], a[2, 3], a[3, 2] = 1.0, -1.0, 10.0, -10.0
        problem = write_json(tmp_path / "rot2.json", {
            "A": a.tolist(), "B1": np.eye(4).tolist(), "B2": [[1.0], [0.0], [0.0], [0.0]],
            "C": np.vstack([np.eye(4), np.zeros((1, 4))]).tolist(),
            "D": [[0.0], [0.0], [0.0], [0.0], [1.0]],
        })
        gain = write_json(tmp_path / "k0.json", {"K": [[0.0, 0.0, 0.0, 0.0]]})
        out = in_tmp / "s.csv"
        argv = ["sweep", problem, gain, "--fmin", "1", "--fmax", "10", "--npts", "2"]
        assert cli.main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "singular at every frequency" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        pytest.param(["--fmin", "1", "--fmax", "0.1"], id="fmax-below-fmin"),
        pytest.param(["--npts", "1"], id="one-point"),
    ])
    def test_bad_grid_rejected(self, toy_file, in_tmp, capsys, flags):
        gain = write_json(in_tmp / "k1.json", {"K": [[1.0]]})
        out = in_tmp / "s.csv"
        assert cli.main(["sweep", toy_file, gain, *flags, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_fmax_rejected(self, toy_file, in_tmp, capsys):
        gain = write_json(in_tmp / "k1.json", {"K": [[1.0]]})
        out = in_tmp / "s.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", toy_file, gain, "--fmin", "1", "--fmax", "inf", "--out", str(out)])
        assert exc.value.code == 2
        assert "not a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("npts", [10**12, None], ids=["1e12", "cap+1"])
    def test_npts_over_cap_exits_2_before_any_work(self, toy_file, in_tmp, capsys, monkeypatch, npts):
        def no_curve(*args):
            raise AssertionError("the curve was evaluated")

        monkeypatch.setattr(cli.verify_mod, "gain_curve", no_curve)
        npts = cli.MAX_SWEEP_POINTS + 1 if npts is None else npts
        gain = write_json(in_tmp / "k1.json", {"K": [[1.0]]})
        out = in_tmp / "s.csv"
        assert cli.main(["sweep", toy_file, gain, "--npts", str(npts), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "exceeds the cap" in err and "Traceback" not in err
        assert not out.exists()


class TestNonFiniteInput:
    """A non-finite number on the command line or in the solver settings
    exits 2 with a message, never with a traceback or a numpy warning."""

    @pytest.mark.parametrize("argv, solver", [
        pytest.param(["simulate", "{problem}", "{gain}", "--horizon", "inf"], None, id="horizon-inf"),
        pytest.param(["simulate", "{problem}", "{gain}", "--horizon", "nan"], None, id="horizon-nan"),
        pytest.param(["simulate", "{problem}", "{gain}", "--dt", "nan"], None, id="dt-nan"),
        # finite flags whose step count overflows
        pytest.param(["simulate", "{problem}", "{gain}", "--horizon", "1e10", "--dt", "1e-300"], None,
                     id="steps-overflow"),
        pytest.param(["sweep", "{problem}", "{gain}", "--fmax", "inf"], None, id="fmax-inf"),
        pytest.param(["sweep", "{problem}", "{gain}", "--fmin", "nan"], None, id="fmin-nan"),
        pytest.param(["sweep", "{problem}", "{gain}", "--fmax", "nan"], None, id="fmax-nan"),
        pytest.param(["verify", "{problem}", "{gain}", "--tol", "nan"], None, id="verify-tol-nan"),
        pytest.param(["solve", "{problem}", "--eps", "inf"], None, id="eps-inf"),
        pytest.param(["solve", "{problem}", "--tol", "inf"], None, id="solve-tol-inf"),
        # json reads 1e999 as inf
        pytest.param(["solve", "{problem}"], '{"sigma": 1e999}', id="file-sigma-inf"),
        pytest.param(["solve", "{problem}"], '{"eps": 1e999}', id="file-eps-inf"),
        pytest.param(["solve", "{problem}"], '{"sigma": 1' + "0" * 400 + "}", id="file-sigma-bigint"),
    ])
    def test_exits_2_without_traceback(self, tmp_path, in_tmp, capsys, argv, solver):
        toy = {k: v for k, v in TOY_PROBLEM.items() if k != "solver"}
        text = json.dumps(toy)
        if solver is not None:
            text = text[:-1] + ', "solver": ' + solver + "}"
        problem = tmp_path / "p.json"
        problem.write_text(text, encoding="utf-8")
        gain = write_json(tmp_path / "g.json", {"K": [[1.0]], "W": [[1.0, 1.0], [1.0, 2.0]], "mu": 2.0})
        argv = [a.format(problem=problem, gain=gain) for a in argv] + ["--out", str(in_tmp / "o")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a flag's value
                code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestEnumerateCommand:
    def test_example2_count(self, capsys):
        assert cli.main(["enumerate", hinfgcc.fixture_path("example2.json")]) == 0
        assert "N = 256" in capsys.readouterr().out

    def test_no_uncertainty_single_vertex(self, toy_file, capsys):
        assert cli.main(["enumerate", toy_file]) == 0
        assert "N = 1" in capsys.readouterr().out

    def test_full_listing_prints_matrices(self, toy_file, capsys):
        assert cli.main(["enumerate", toy_file, "--full"]) == 0
        assert "vertex 0" in capsys.readouterr().out

    def test_out_is_not_an_option(self, toy_file):
        # enumerate only prints, so it takes no output path
        with pytest.raises(SystemExit) as exc:
            cli.main(["enumerate", toy_file, "--out", "listing.txt"])
        assert exc.value.code == 2

    def test_vertex_cap_exceeded(self, tmp_path):
        a = np.ones((4, 4))
        delta = np.zeros((4, 4))
        delta.flat[:13] = 0.1
        problem = write_json(
            tmp_path / "cap.json",
            {
                "A": a.tolist(),
                "B1": np.eye(4).tolist(),
                "B2": np.ones((4, 1)).tolist(),
                "C": np.vstack([np.eye(4), np.zeros((1, 4))]).tolist(),
                "D": np.vstack([np.zeros((4, 1)), np.eye(1)]).tolist(),
                "uncertainty": {"relative_bounds": {"A": delta.tolist()}},
            },
        )
        assert cli.main(["enumerate", problem]) == 2


class TestMalformedFiles:
    """Values of the wrong type are schema errors (exit 2), not tracebacks
    or silent conversions."""

    @pytest.mark.parametrize("key, value", [
        ("max_iters", 2.5),
        ("max_iters", True),
        ("max_iters", "100"),
        ("sigma", True),
        ("tau", False),
        ("eps", None),
    ])
    def test_bad_solver_setting_is_a_schema_error(self, tmp_path, capsys, key, value):
        bad = dict(TOY_PROBLEM, solver={**TOY_PROBLEM["solver"], key: value})
        path = write_json(tmp_path / "bad.json", bad)
        for command in (["solve", path], ["enumerate", path]):
            assert cli.main(command) == 2
            assert "invalid solver settings" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix", [
        [["1"]],
        [[True]],
        [[False]],
        [[None]],
        [[10**400]],
        [[1.0, 2.0], [3.0]],
        [1.0],
    ])
    def test_non_numeric_matrix_is_a_schema_error(self, tmp_path, matrix):
        path = write_json(tmp_path / "bad.json", dict(TOY_PROBLEM, A=matrix))
        assert cli.main(["enumerate", path]) == 2

    @pytest.mark.parametrize("gain", [
        {"K": [["1"]]},
        {"K": [[True]]},
        {"K": [[1.0]], "W": [[1.0, False], [1.0, 2.0]], "mu": 2.0},
    ])
    def test_non_numeric_gain_is_a_schema_error(self, toy_file, tmp_path, in_tmp, gain):
        path = write_json(tmp_path / "gain.json", gain)
        assert cli.main(["verify", toy_file, path]) == 2
        assert not (in_tmp / "verify_report.json").exists()

    @pytest.mark.parametrize("mu", [True, "2", float("nan"), float("inf"), -float("inf"), 10**400])
    def test_bad_mu_is_a_schema_error(self, toy_file, tmp_path, in_tmp, capsys, mu):
        path = write_json(tmp_path / "gain.json", {"K": [[1.0]], "W": [[1.0, 1.0], [1.0, 2.0]], "mu": mu})
        assert cli.main(["verify", toy_file, path]) == 2
        assert "mu must be" in capsys.readouterr().err

    def test_boolean_vertex_cap_is_a_schema_error(self, tmp_path):
        bad = dict(TOY_PROBLEM, uncertainty={"relative_bounds": {"A": [[0.1]]}, "vertex_cap": True})
        path = write_json(tmp_path / "bad.json", bad)
        assert cli.main(["enumerate", path]) == 2

    @pytest.mark.parametrize("uncertainty", [
        {"relative_bounds": {"A": [[0.1, 0.1]]}},
        {"vertices": [{"A": [[1.0, 2.0]], "B2": [[1.0]]}]},
    ])
    def test_uncertainty_shape_mismatch_is_a_schema_error(self, tmp_path, uncertainty):
        path = write_json(tmp_path / "bad.json", dict(TOY_PROBLEM, uncertainty=uncertainty))
        assert cli.main(["enumerate", path]) == 2


# any JSON value: the fuzz below puts these where the loaders expect numbers,
# matrices and objects
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
DELETE = object()

PROBLEM_BASES = [
    dict(TOY_PROBLEM, uncertainty={"relative_bounds": {"A": [[0.1]], "B2": [[0.2]]}, "vertex_cap": 16}),
    dict(TOY_PROBLEM, uncertainty={"vertices": [{"A": [[-1.0]], "B2": [[1.0]]},
                                                {"A": [[-2.0]], "B2": [[0.5]]}]}),
]
PROBLEM_PATHS = [
    ("A",), ("A", 0), ("A", 0, 0), ("B1",), ("B1", 0, 0), ("B2", 0, 0), ("C",), ("C", 1),
    ("C", 0, 0), ("D", 1, 0), ("solver",), ("solver", "sigma"), ("solver", "tau"),
    ("solver", "eps"), ("solver", "max_iters"), ("solver", "extra"), ("uncertainty",),
    ("uncertainty", "relative_bounds"), ("uncertainty", "relative_bounds", "A"),
    ("uncertainty", "relative_bounds", "A", 0, 0), ("uncertainty", "relative_bounds", "B2", 0),
    ("uncertainty", "vertex_cap"), ("uncertainty", "vertices"), ("uncertainty", "vertices", 0),
    ("uncertainty", "vertices", 1, "A"), ("uncertainty", "vertices", 0, "B2", 0, 0), ("extra",),
]
GAIN_BASE = {"K": [[1.0]], "W": [[1.0, 1.0], [1.0, 2.0]], "mu": 2.0}
GAIN_PATHS = [("K",), ("K", 0), ("K", 0, 0), ("W",), ("W", 1), ("W", 0, 1), ("mu",), ("extra",)]


def mutated(base, edits):
    """A deep copy of a JSON document with each (path, value) edit applied; a
    value of DELETE removes the entry, and an edit whose path does not exist
    in the document is skipped."""
    doc = json.loads(json.dumps(base))
    for path, value in edits:
        parent = doc
        for key in path[:-1]:
            try:
                parent = parent[key]
            except (KeyError, IndexError, TypeError):
                break
        else:
            key = path[-1]
            if isinstance(parent, dict) and value is DELETE:
                parent.pop(key, None)
            elif isinstance(parent, dict) or (
                isinstance(parent, list) and isinstance(key, int) and key < len(parent)
            ):
                if value is DELETE:
                    del parent[key]
                else:
                    parent[key] = value
    return doc


def edits(paths):
    return st.lists(
        st.tuples(st.sampled_from(paths), JSON_VALUES | st.just(DELETE)), min_size=1, max_size=3
    )


class TestLoaderFuzz:
    """Any problem or gain file ends in exit 0, 2 or 3 with a message, never
    in a traceback (or, in this suite, a floating-point warning). The one
    exception is a gain the loader accepts whose closed loop overflows the
    norm check (say, K = 1e154, where C^T C overflows): that is a numerical
    failure, exit 5."""

    @settings(max_examples=300, deadline=None)
    @given(base=st.sampled_from(PROBLEM_BASES), changes=edits(PROBLEM_PATHS))
    @example(base=PROBLEM_BASES[0], changes=[(("B1", 0, 0), 1e200)])
    @example(base=PROBLEM_BASES[0], changes=[(("D", 1, 0), -1e200)])
    @example(base=PROBLEM_BASES[0], changes=[(("A", 0, 0), 1e308),
                                             (("uncertainty", "relative_bounds", "A", 0, 0), 1.0)])
    def test_problem_loader(self, tmp_path_factory, base, changes):
        path = write_json(tmp_path_factory.mktemp("fuzz") / "p.json", mutated(base, changes))
        assert cli.main(["enumerate", path]) in (0, 2, 3)

    @settings(max_examples=300, deadline=None)
    @given(changes=edits(GAIN_PATHS))
    @example(changes=[(("K", 0, 0), 1.3407807929942597e154)])
    def test_gain_loader(self, tmp_path_factory, changes):
        work = tmp_path_factory.mktemp("fuzz")
        problem = write_json(work / "p.json", TOY_PROBLEM)
        gain = write_json(work / "g.json", mutated(GAIN_BASE, changes))
        code = cli.main(["verify", problem, gain, "--out", str(work / "r.json")])
        assert code in (0, 2, 3, 5)
        if code == 5:
            k = np.abs(cli.load_gain(gain, cli.load_problem(problem)[0])[0]).max()
            assert k >= 1e150, f"exit 5 for a gain of size {k}"
