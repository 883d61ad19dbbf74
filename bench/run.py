"""Benchmark of the hinfgcc pipeline on the two bundled problem files.

Usage:
    python3 bench/run.py --workload ex1|ex2 --seed N --seconds S --trace 0|1

A run attempts one round of operations, each checked, and then samples the
timed steps again until --seconds have passed. It prints a summary and, as
its last line, one JSON object {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the in-process calls run under span wrappers (tracer.py) and the
metrics are the per-layer ones.

The inputs are the bundled fixtures at their own solver settings, so --seed
selects nothing; it only names the trace file. Every output is checked
against oracle.py, which does not import hinfgcc. See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

sys.path.insert(0, str(BENCH))
import oracle  # noqa: E402
import selfcheck  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = {"ex1": "example1.json", "ex2": "example2.json"}

# Operations that fail on every run because solve calls "converged" at a
# point whose gamma is no guarantee (ROADMAP aim 3). Any other failure is a
# wrong output and makes the run incorrect.
KNOWN_FAULTS = {"ex1": {"certify", "headline"}, "ex2": {"headline"}}

# Fresh set-up processes in the round; measure() adds one per cycle.
SETUPS_PER_ROUND = 2
# In-process passes shorter than this are repeated until the span reaches
# it, and the time per pass is reported (ex1's verify pass takes ~15 ms).
MIN_SPAN_S = 0.5
CHILD_TIMEOUT_S = 120.0
# Iterations of the untimed solve that warms numpy and the solver's code
# paths before the first timed one.
WARMUP_ITERS = 50


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_checkout():
    """Import hinfgcc from this checkout's src/ and nowhere else."""
    if not (SRC / "hinfgcc" / "__init__.py").is_file():
        fail(f"no hinfgcc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hinfgcc
    from hinfgcc import cli, kernels, model, problem, solver, verify

    where = Path(hinfgcc.__file__).resolve()
    if SRC.resolve() not in where.parents:
        fail(f"hinfgcc was imported from {where}, not from {SRC}")
    return hinfgcc, cli, kernels, model, problem, solver, verify


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def run_child(argv: list[str], log: Path, cwd: Path) -> tuple[int, float, float]:
    """Run a child process to its end: (exit code, wall s, peak RSS MB).

    The child is held to the CPU this process is running on. On the shared
    2-vCPU host one vCPU at a time runs slow for minutes; single-threaded
    work stays on the healthy one, but the CLI's two-thread vertex pool was
    dragged by the slow one (`hinfgcc verify` up to +60% where the in-process
    verify moved +10%). The price: `cli_s` does not see the pool's parallel
    gain (about 15% of `cli_s` on ex2 when both cores are idle).
    """
    with open(log, "wb") as out:
        cpu = current_cpu()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=cwd, env=child_env())
        try:
            os.sched_setaffinity(proc.pid, {cpu})
        except ProcessLookupError:  # already gone; wait4 still reaps it
            pass
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def repeat(fn):
    """Call fn() until MIN_SPAN_S has passed: (last result, time of each call)."""
    times, t0 = [], time.perf_counter()
    while sum(times) < MIN_SPAN_S:
        result = fn()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        t0 = t1
    return result, times


def median(values):
    return statistics.median(values) if values else None


class Check(Exception):
    """An operation's output failed an independent check."""


class Bench:
    """One workload's operations, samples and per-layer totals."""

    def __init__(self, workload: str, trace: bool):
        self.workdir = RUNS  # replaced by a private directory for the run
        (self.hg, self.cli, self.kernels, self.model, self.problem, self.solver,
         self.verify) = import_checkout()
        self.fixture = self.hg.fixture_path(WORKLOADS[workload])
        self.plant = oracle.load_plant(self.fixture)
        self.tracer = Tracer() if trace else None
        self.solves = 0
        self.attempted = 0
        self.longest: dict[str, float] = {}  # longest wall time of each operation so far
        self.last_round = None
        self.repeats: dict[str, int] = {}
        self.failures: dict[str, list[str]] = {}
        self.integrity: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.layers: list[dict[str, float]] = []
        self.facts: dict[str, float] = {}
        self._norms: dict[bytes, np.ndarray] = {}
        self._first_solve = None
        self._solve_bytes = 0

    # --- bookkeeping -------------------------------------------------------

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def op(self, name: str, fn, *args):
        """Attempt one operation; a raised exception or Check is a failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            self.failures.setdefault(name, []).append(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.longest[name] = max(self.longest.get(name, 0.0), time.perf_counter() - t0)

    def norms(self, gain: np.ndarray) -> np.ndarray:
        key = np.ascontiguousarray(gain).tobytes()
        if key not in self._norms:
            self._norms[key] = oracle.vertex_norms(self.plant, gain)
        return self._norms[key]

    def traced(self, op: str, fn):
        """Call fn() under span wrappers when tracing; return (result, totals).

        fn must look hinfgcc functions up when called, not before, so that
        it reaches the wrappers.
        """
        if self.tracer is None:
            return fn(), {}
        self.tracer.begin(op)
        self.tracer.install(self.targets())
        try:
            result = fn()
        finally:
            self.tracer.remove()
        return result, self.tracer.totals

    def targets(self):
        cli, model, problem, solver, kernels, verify = (
            self.cli, self.model, self.problem, self.solver, self.kernels, self.verify)
        return [
            (cli, "load_problem", "cli.load_problem", None),
            (model, "validate_plant", "model.validate_plant", None),
            (model, "enumerate_vertices", "model.enumerate_vertices", None),
            (problem, "build_extended", "problem.build_extended", None),
            (problem, "build_schur", "problem.build_schur", None),
            (solver, "solve", "solver.solve", None),
            (solver, "update_y", "solver.update_y", None),
            (solver, "backward_mu", "solver.backward_mu", None),
            (solver, "update_w", "solver.update_w", None),
            (solver, "forward_mu", "solver.forward_mu", None),
            (solver, "update_z", "solver.update_z", None),
            (solver, "residuals", "solver.residuals", None),
            (solver, "eval_g_all", "problem.eval_g_all", None),
            (kernels, "project_psd_stack", "kernels.project_psd_stack", len),
            (kernels, "sym_eig", "kernels.sym_eig", None),
            (kernels, "spd_solve", "kernels.spd_solve", None),
            (verify, "closed_loop", "verify.closed_loop", None),
            (verify, "stability_margin", "verify.stability_margin", None),
            (verify, "hinf_sweep", "verify.hinf_sweep", None),
            (verify, "check_feasibility", "verify.check_feasibility", None),
            (verify, "certified_attenuation", "verify.certified_attenuation", None),
            (verify, "eval_theta1", "verify.eval_theta1", None),
        ]

    # --- operations ----------------------------------------------------------

    def setup(self) -> None:
        """Fresh process: import hinfgcc, then the five set-up steps."""
        log = self.workdir / "setup.log"
        code, _, _ = run_child([sys.executable, str(BENCH / "setup_child.py"), self.fixture],
                               log, self.workdir)
        lines = log.read_text(encoding="utf-8").strip().splitlines()
        if code != 0 or not lines:
            raise Check(f"set-up process exited {code}: {lines[-1] if lines else ''}")
        out = json.loads(lines[-1])
        if SRC.resolve() not in Path(out["module"]).parents:
            raise Check(f"set-up process imported {out['module']}")
        n, m = self.plant.n, self.plant.m
        if (out["N"], out["p"], out["r"]) != (len(self.plant.vertices), n + m, m + 2 * n):
            raise Check(f"set-up sizes N={out['N']} p={out['p']} r={out['r']} are wrong")
        self.sample("setup_s", out["setup_s"])
        self.sample("cli.import_s", out["import_s"])

    def build(self):
        """In-process set-up; the vertex set must match the oracle's."""
        def pipeline():
            plant, spec, settings = self.cli.load_problem(self.fixture)
            self.model.validate_plant(plant)
            vset = self.model.enumerate_vertices(plant, spec)
            ext = self.problem.build_extended(plant, vset)
            return plant, vset, ext, self.problem.build_schur(ext), settings

        if self.tracer is None:
            plant, vset, ext, schur, settings = pipeline()
        else:  # the steps take 0.02-30 ms each, so repeat them for their spans
            ((plant, vset, ext, schur, settings), passes), totals = self.traced(
                "build", lambda: repeat(pipeline))
            self.layers.append({
                f"{name}_s": totals[name].inclusive / len(passes) for name in (
                    "model.validate_plant", "model.enumerate_vertices",
                    "problem.build_extended", "problem.build_schur") if name in totals})
        mine = self.plant.vertices
        if vset.N != len(mine) or any(
            not (np.array_equal(a, c) and np.array_equal(b, d)) for (a, b), (c, d) in zip(vset, mine)
        ):
            raise Check("enumerate_vertices disagrees with the oracle's vertex set")
        self.facts["model.vertices"] = vset.N
        config = self.solver.SolverConfig(**settings)
        return plant, vset, ext, schur, config

    def solve(self, schur, config):
        """hinfgcc.solve at the fixture's settings, timed untraced."""
        self.solves += 1
        traced_first = self.tracer is not None and self.solves % 2 == 0
        if traced_first:  # alternate the order so neither side is always the cold one
            traced, totals = self.traced("solve", lambda: self.solver.solve(schur, config))
        t0 = time.perf_counter()
        sol = self.solver.solve(schur, config)
        wall = time.perf_counter() - t0
        if self.tracer is not None:
            if not traced_first:
                traced, totals = self.traced("solve", lambda: self.solver.solve(schur, config))
            if traced.iters != sol.iters or not np.array_equal(traced.W_star, sol.W_star):
                self.integrity.append("traced solve differs from the untraced one")
            self.solver_layers(totals, sol.iters, wall)
        else:
            self.sample("solve_s", wall)
        self.check_solution(sol)
        return sol

    def check_solution(self, sol) -> None:
        if self._first_solve is None:
            self._first_solve = sol
        elif sol.iters != self._first_solve.iters or not np.array_equal(sol.W_star, self._first_solve.W_star):
            self.integrity.append("solve is not deterministic across repeats")
        if sol.status != "converged":
            raise Check(f"status {sol.status} after {sol.iters} iterations")
        n, m = self.plant.n, self.plant.m
        gain = np.asarray(sol.K_star)
        if gain.shape != (m, n) or not np.all(np.isfinite(gain)):
            raise Check(f"gain has shape {gain.shape} or non-finite entries")
        w1, w2 = sol.W_star[:n, :n], sol.W_star[:n, n:]
        if not np.allclose(gain, np.linalg.solve(w1, w2).T, rtol=1e-9, atol=1e-12):
            raise Check("K* is not W2^T W1^-1 of the returned W*")
        if not (sol.mu_star > 0.0 and math.isclose(sol.gamma_star, 1.0 / math.sqrt(sol.mu_star), rel_tol=1e-12)):
            raise Check(f"gamma* {sol.gamma_star} is not 1/sqrt(mu*) for mu* {sol.mu_star}")
        self.facts["iters"] = sol.iters
        self.facts["worst_norm"] = float(np.max(self.norms(gain)))

    def stabilize(self, sol) -> None:
        reason = oracle.check_stabilizes(self.plant, sol.K_star)
        if reason:
            raise Check(reason)

    def verify_gain(self, plant, vset, ext, sol) -> None:
        """Vertex-by-vertex check as `hinfgcc verify` does it, timed."""
        verify = self.verify

        def check_all():
            rows = []
            for i in range(vset.N):
                cl = verify.closed_loop(plant, vset[i], sol.K_star, i)
                margin = verify.stability_margin(cl)
                rows.append((margin, verify.hinf_sweep(cl).peak if margin < 0 else None))
            return rows, verify.check_feasibility(ext, sol.W_star, sol.mu_star)

        ((rows, feas), passes), totals = self.traced("verify", lambda: repeat(check_all))
        if totals:
            self.layers.append({
                f"{name}_s": totals[name].inclusive / len(passes) for name in (
                    "verify.hinf_sweep", "verify.stability_margin", "verify.check_feasibility")
                if name in totals})
        else:
            self.samples.setdefault("verify_s", []).extend(passes)
        norms = self.norms(sol.K_star)
        for i, (margin, peak) in enumerate(rows):
            alpha = oracle.spectral_abscissa(oracle.closed_loop(self.plant, i, sol.K_star)[0])
            if not math.isclose(margin, alpha, rel_tol=1e-9, abs_tol=1e-12):
                raise Check(f"vertex {i}: stability margin {margin} but abscissa {alpha}")
            if peak is None:
                raise Check(f"vertex {i}: no sweep for a stable loop")
            reason = oracle.check_sweep_peak(peak, norms[i], i)
            if reason:
                raise Check(reason)
        mine = oracle.theta1_max_eigs(self.plant, sol.W_star, sol.mu_star)
        theirs = np.array([v.theta1_max_eig for v in feas.per_vertex])
        if not np.allclose(theirs, mine, rtol=1e-9, atol=1e-12 * max(1.0, np.abs(mine).max())):
            raise Check("check_feasibility disagrees with the oracle's theta1")
        if not math.isclose(feas.w_min_eig, np.linalg.eigvalsh(sol.W_star)[0], rel_tol=1e-9, abs_tol=1e-12):
            raise Check("check_feasibility reports a wrong min eigenvalue of W")

    def certify(self, ext, sol) -> None:
        """certified_attenuation(ext, W*) must return a valid certificate."""
        result, totals = self.traced(
            "certify", lambda: self.verify.certified_attenuation(ext, sol.W_star))
        if totals:
            self.layers.append({
                "verify.certify_s": totals["verify.certified_attenuation"].inclusive,
                "verify.theta1_evals": totals["verify.eval_theta1"].calls
                if "verify.eval_theta1" in totals else None,
            })
        # mu, not gamma = 1/sqrt(mu): None (no certificate) reads as mu = 0
        self.facts["verify.mu_cert"] = 0.0 if result is None else result[0]
        if result is None:
            raise Check("returned None: no mu > 0 is certified for W*")
        mu, gamma = result
        reason = oracle.check_certificate(self.plant, sol.W_star, mu, gamma, self.norms(sol.K_star))
        if reason:
            raise Check(reason)

    def cli_solve(self, sol) -> dict:
        out = self.workdir / "report.json"
        code, wall, rss = run_child(
            [sys.executable, "-m", "hinfgcc.cli", "solve", self.fixture, "--out", str(out)],
            self.workdir / "solve.log", self.workdir)
        if code != 0:
            raise Check(f"hinfgcc solve exited {code}")
        report = json.loads(out.read_text(encoding="utf-8"))
        history = Path(report["history_csv"])
        rows = history.read_text(encoding="utf-8").count("\n") - 1
        self.sample("cli.solve_s", wall)
        self.sample("peak_rss_mb", rss)
        self.facts["cli.history_rows"] = rows
        self._solve_bytes = out.stat().st_size + history.stat().st_size
        if report["iters"] != sol.iters:
            raise Check(f"CLI took {report['iters']} iterations, in-process {sol.iters}")
        gain = np.array(report["K_star"], dtype=float)
        if not np.allclose(gain, sol.K_star, rtol=1e-12, atol=0.0):
            raise Check("CLI gain differs from the in-process gain")
        if rows != sol.iters + 1:
            raise Check(f"history has {rows} rows for {sol.iters} iterations")
        norms = self.norms(gain)
        for row in report["verification"]["vertices"]:
            reason = oracle.check_sweep_peak(row["sweep_peak"], norms[row["vertex"]], row["vertex"])
            if reason:
                raise Check(f"report: {reason}")
        return report

    def cli_verify(self, report) -> None:
        if report is None:
            raise Check("no solve report to verify")
        gain_file = self.workdir / "gain.json"
        gain_file.write_text(json.dumps(
            {"K": report["K_star"], "W": report["W_star"], "mu": report["mu_star"]}), encoding="utf-8")
        out = self.workdir / "verify_report.json"
        code, wall, _ = run_child(
            [sys.executable, "-m", "hinfgcc.cli", "verify", self.fixture, str(gain_file), "--out", str(out)],
            self.workdir / "verify.log", self.workdir)
        if code != 0:
            raise Check(f"hinfgcc verify exited {code}")
        self.sample("cli.verify_s", wall)
        self.facts["cli.output_bytes"] = self._solve_bytes + out.stat().st_size
        result = json.loads(out.read_text(encoding="utf-8"))
        if len(result["vertices"]) != len(self.plant.vertices) or result["all_stable"] is not True:
            raise Check("verify does not report all vertices stable")

    def headline(self, report) -> None:
        """The gamma `hinfgcc solve` reports bounds every vertex norm."""
        if report is None:
            raise Check("no solve report")
        gamma = report.get("gamma_certified")
        gamma = report["gamma_star"] if gamma is None else gamma
        norms = self.norms(np.array(report["K_star"], dtype=float))
        self.facts["verify.headline_ratio"] = float(np.max(norms)) / gamma
        reason = oracle.check_gamma_bounds(gamma, norms)
        if reason:
            raise Check(reason)

    def warm_up(self) -> None:
        """Untimed: a short solve, so that the first timed one is not the cold one."""
        plant, spec, settings = self.cli.load_problem(self.fixture)
        ext = self.problem.build_extended(plant, self.model.enumerate_vertices(plant, spec))
        config = self.solver.SolverConfig(**settings)
        self.solver.solve(self.problem.build_schur(ext), dataclasses.replace(config, max_iters=WARMUP_ITERS))

    def round(self) -> None:
        """One of each operation, in pipeline order."""
        for _ in range(SETUPS_PER_ROUND):
            self.op("setup", self.setup)
        built = self.op("build", self.build)
        plant, vset, ext, schur, config = built if built else (None,) * 5
        sol = self.op("solve", self.solve, schur, config)
        self.op("stabilize", self.stabilize, sol)
        self.op("verify", self.verify_gain, plant, vset, ext, sol)
        self.op("certify", self.certify, ext, sol)
        report = self.op("cli_solve", self.cli_solve, sol)
        self.op("cli_verify", self.cli_verify, report)
        self.op("headline", self.headline, report)
        ok = built is not None and sol is not None
        self.last_round = (plant, vset, ext, schur, config, sol) if ok else None

    def measure(self, deadline: float) -> None:
        """Sample the timed steps again, on the round's inputs, until the run's time is up.

        Cycles of one set-up process, one solve and one verify span, so that
        each time metric is sampled all through the run rather than in one
        stretch of it: this host's speed drifts by 10-30% over tens of
        seconds, and a median over samples spread across the run is what
        repeats from run to run. A step runs only while its longest time so
        far still fits. These are repeated measurements, not operations:
        `attempted` and `failed` count the one round, so their ratio is the
        same in every run. Each repeat is checked as in the round, and the
        solve must return the round's result; a repeat that fails makes the
        run incorrect.
        """
        if self.last_round is None:
            return
        plant, vset, ext, schur, config, sol = self.last_round
        steps = [
            ("setup", self.setup),
            ("solve", lambda: self.solve(schur, config)),
            ("verify", lambda: self.verify_gain(plant, vset, ext, sol)),
        ]
        ran = True
        while ran:
            ran = False
            for name, step in steps:
                if time.perf_counter() + self.longest[name] > deadline:
                    continue
                t0 = time.perf_counter()
                try:
                    step()
                except Exception as exc:  # noqa: BLE001 - a repeat must not fail where the round did not
                    self.integrity.append(f"repeated {name} failed: {type(exc).__name__}: {exc}")
                    return
                self.longest[name] = max(self.longest[name], time.perf_counter() - t0)
                self.repeats[name] = self.repeats.get(name, 0) + 1
                ran = True

    # --- per-layer figures -----------------------------------------------------

    def solver_layers(self, totals, iters: int, untraced_wall: float) -> None:
        def per_iter(*names, unit=1e6, field="inclusive"):
            if any(name not in totals for name in names):
                return None
            return sum(getattr(totals[name], field) for name in names) * unit / iters

        eig = ("kernels.project_psd_stack", "kernels.sym_eig")
        blocks = per_iter(*eig, unit=1, field="units")
        eig_us = per_iter(*eig)
        self.layers.append({
            "solver.iter_us": per_iter("solver.solve"),
            "solver.update_y_us": per_iter("solver.update_y"),
            "solver.mu_sweeps_us": per_iter("solver.backward_mu", "solver.forward_mu"),
            "solver.update_w_us": per_iter("solver.update_w"),
            "solver.update_z_us": per_iter("solver.update_z"),
            "solver.residuals_us": per_iter("solver.residuals"),
            "solver.self_us": per_iter("solver.solve", field="self_time"),
            "problem.eval_g_all_per_iter": per_iter("problem.eval_g_all", unit=1, field="calls"),
            "kernels.eig_blocks_per_iter": blocks,
            "kernels.eig_us_per_block": eig_us / blocks if blocks else None,
            "kernels.spd_solves_per_iter": per_iter("kernels.spd_solve", unit=1, field="calls"),
            "trace.overhead_ratio": totals["solver.solve"].inclusive / untraced_wall
            if "solver.solve" in totals else None,
        })

    def layer_value(self, name: str):
        """Median over samples of a traced figure; None when it was not seen."""
        values = [row[name] for row in self.layers if row.get(name) is not None]
        return median(values)


def collect(bench: Bench, metrics: list[dict]) -> dict:
    """Each metric of BENCHMARK.json by name: value (None if never seen) and unit."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        if name in bench.samples:
            value = median(bench.samples[name])
        elif name in bench.facts:
            value = bench.facts[name]
        else:
            value = bench.layer_value(name)
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + args.seconds
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    bench = Bench(args.workload, bool(args.trace))

    RUNS.mkdir(exist_ok=True)
    workdir = bench.workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        bench.integrity += [f"oracle self-check: {line}" for line in selfcheck.run_all()]
        # warm the file cache and lazy imports once before anything is timed
        run_child([sys.executable, str(BENCH / "setup_child.py"), bench.fixture],
                  workdir / "warmup.log", workdir)
        bench.warm_up()
        t0 = time.perf_counter()
        bench.round()
        print(f"round: {time.perf_counter() - t0:.2f} s", flush=True)
        t0 = time.perf_counter()
        bench.measure(deadline)
        print(f"repeats: {bench.repeats} in {time.perf_counter() - t0:.2f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if bench.tracer is not None:
        trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.npz"
        bench.tracer.save(str(trace_path))
        print(f"trace: {trace_path.relative_to(ROOT)} "
              f"(missing wrappers: {sorted(bench.tracer.missing) or 'none'})")
    failed = sum(len(v) for v in bench.failures.values())
    for name, reasons in sorted(bench.failures.items()):
        known = "known fault" if name in KNOWN_FAULTS[args.workload] else "UNEXPECTED"
        print(f"failed {name} x{len(reasons)} ({known}): {reasons[0]}")
    for name, values in sorted(bench.samples.items()):
        print(f"samples {name}: {' '.join(f'{v:.4g}' for v in values)}")
    for line in bench.integrity:
        print(f"integrity: {line}")
    unexpected = set(bench.failures) - KNOWN_FAULTS[args.workload]
    metrics = collect(bench, spec["per_layer"] if args.trace else spec["end_to_end"])
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']!r:>24} {entry['unit']}")
    print(json.dumps({
        "correct": not unexpected and not bench.integrity,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
