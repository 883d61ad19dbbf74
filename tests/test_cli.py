"""End-to-end CLI flows against temporary problem/gain files."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

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

    @pytest.mark.parametrize("sigma", ["1e-200", "1e200"])
    def test_overflowing_sigma_exits_5(self, toy_file, in_tmp, sigma, capsys):
        out = in_tmp / "r.json"
        with np.errstate(all="ignore"):
            code = cli.main(["solve", toy_file, "--sigma", sigma, "--out", str(out)])
        assert code == 5
        # the report is written even when the verification table cannot be
        # built, and a failed run reports no gamma
        report = json.loads(out.read_text())
        assert report["status"] == "numerical-failure"
        assert report["gamma_star"] is None
        assert "gamma*" not in capsys.readouterr().out
        if sigma == "1e-200":
            assert "non-finite" in report["verification"]["error"]

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

    def test_zero_dt_rejected(self, toy_file, in_tmp):
        gain = write_json(in_tmp / "k.json", {"K": [[1.0]]})
        assert cli.main(["simulate", toy_file, gain, "--dt", "0"]) == 2

    def test_vertex_out_of_range_rejected(self, toy_file, in_tmp):
        gain = write_json(in_tmp / "k.json", {"K": [[1.0]]})
        assert cli.main(["simulate", toy_file, gain, "--vertex", "5"]) == 2


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
