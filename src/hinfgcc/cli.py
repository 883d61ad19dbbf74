"""Command-line entry point.

Subcommands: solve, verify, simulate, sweep, enumerate. Problem and gain
files are JSON (schemas documented in the README); outputs are a JSON report
plus CSV files suitable for plotting.

Exit codes: 0 success/converged, 2 schema or input error, 3 modeling
assumption violated, 4 iteration cap reached, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import solver as solver_mod
from . import verify as verify_mod
from .errors import (
    AssumptionError,
    CapacityError,
    DimensionError,
    HinfgccError,
    SchemaError,
)
from .model import (
    DEFAULT_VERTEX_CAP,
    PlantModel,
    UncertaintySpec,
    VertexSet,
    enumerate_vertices,
    validate_plant,
)
from .problem import build_extended, build_schur
from .solver import CONVERGED, MAX_ITERS, SolverConfig

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_ASSUMPTION = 3
EXIT_MAX_ITERS = 4
EXIT_NUMERICAL = 5

# the SolverConfig fields a problem file's "solver" object and the solve
# command's flags may set
_SOLVER_KEYS = ("sigma", "tau", "eps", "max_iters")

# the sweep command's default grid: log-spaced over [1e-3, 1e4] rad/s
SWEEP_FMIN = 1e-3
SWEEP_FMAX = 1e4
SWEEP_NPTS = 2000
# Largest grid the sweep command evaluates: 10^6 points on example1.json
# take 7.0 s and 475 MB peak RSS and write a 60 MB CSV (2-core host).
MAX_SWEEP_POINTS = 10**6


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _db(gain: float) -> float:
    """20 log10 of a gain; -inf for a loop with zero response."""
    return 20.0 * math.log10(gain) if gain > 0.0 else -math.inf


def _say(line: str) -> None:
    """Print one line of the summary; a reader that has gone away (say,
    `hinfgcc solve ... | head -2`) ends the summary, not the command."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        # Python flushes stdout again at exit; point its descriptor at
        # devnull so that flush cannot fail too
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _require(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _is_number(value) -> bool:
    """A JSON number: true and false are not numbers, nor are strings."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _matrix(data, name: str) -> np.ndarray:
    _require(isinstance(data, list) and data, f"{name} must be a non-empty nested array")
    _require(
        all(isinstance(row, list) for row in data),
        f"{name} must be a 2-d array (rows of numbers)",
    )
    _require(
        all(_is_number(x) for row in data for x in row),
        f"{name} must contain only numbers",
    )
    try:
        arr = np.array(data, dtype=float)
    except (OverflowError, ValueError) as exc:  # ragged rows, or an int beyond float range
        raise SchemaError(f"{name} is not a matrix of floats: {exc}") from exc
    _require(arr.ndim == 2, f"{name} must be a 2-d array (rows of numbers)")
    _require(np.all(np.isfinite(arr)), f"{name} contains non-finite values")
    return arr


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), f"{path} must contain a JSON object")
    return data


def load_problem(path: str) -> tuple[PlantModel, UncertaintySpec, dict]:
    """Parse a problem file into a plant, uncertainty spec, solver settings."""
    data = _load_json(path)
    for key in ("A", "B1", "B2", "C", "D"):
        _require(key in data, f"problem file is missing matrix {key!r}")
    plant = PlantModel(
        A=_matrix(data["A"], "A"),
        B1=_matrix(data["B1"], "B1"),
        B2=_matrix(data["B2"], "B2"),
        C=_matrix(data["C"], "C"),
        D=_matrix(data["D"], "D"),
    )

    unc = data.get("uncertainty")
    if unc is None:
        spec = UncertaintySpec.none()
    else:
        _require(isinstance(unc, dict), "uncertainty must be an object")
        cap = unc.get("vertex_cap", DEFAULT_VERTEX_CAP)
        _require(
            isinstance(cap, int) and not isinstance(cap, bool) and cap >= 1,
            "vertex_cap must be a positive integer",
        )
        known = {"relative_bounds", "vertices", "vertex_cap"}
        extra = set(unc) - known
        _require(not extra, f"unknown uncertainty keys: {sorted(extra)}")
        if "relative_bounds" in unc:
            _require("vertices" not in unc, "give either relative_bounds or vertices, not both")
            rb = unc["relative_bounds"]
            _require(isinstance(rb, dict), "relative_bounds must be an object")
            bad = set(rb) - {"A", "B2"}
            # only A and B2 may be uncertain: R and Q must not vary per vertex
            _require(
                not bad,
                f"uncertainty is only supported on A and B2, got: {sorted(bad)}",
            )
            da = _matrix(rb["A"], "relative_bounds.A") if "A" in rb else np.zeros_like(plant.A)
            db = (
                _matrix(rb["B2"], "relative_bounds.B2")
                if "B2" in rb
                else np.zeros_like(plant.B2)
            )
            spec = UncertaintySpec.relative(da, db, cap=cap)
        elif "vertices" in unc:
            vs = unc["vertices"]
            _require(isinstance(vs, list) and vs, "vertices must be a non-empty list")
            pairs = []
            for idx, item in enumerate(vs):
                _require(
                    isinstance(item, dict) and "A" in item and "B2" in item,
                    f"vertex {idx} must be an object with A and B2",
                )
                pairs.append((_matrix(item["A"], f"vertices[{idx}].A"),
                              _matrix(item["B2"], f"vertices[{idx}].B2")))
            spec = UncertaintySpec.from_vertices(pairs)
        else:
            spec = UncertaintySpec(cap=cap)

    settings = data.get("solver", {})
    _require(isinstance(settings, dict), "solver must be an object")
    extra = set(settings).difference(_SOLVER_KEYS)
    _require(not extra, f"unknown solver keys: {sorted(extra)}")
    _config(settings)
    return plant, spec, dict(settings)


def load_gain(path: str, plant: PlantModel):
    """Parse a gain file: K required, W and mu optional."""
    data = _load_json(path)
    _require("K" in data, "gain file is missing 'K'")
    gain = _matrix(data["K"], "K")
    _require(
        gain.shape == (plant.m, plant.n),
        f"K must be {plant.m}x{plant.n}, got {gain.shape}",
    )
    w = _matrix(data["W"], "W") if "W" in data else None
    mu = data.get("mu")
    if mu is not None:
        _require(_is_number(mu), "mu must be a number")
        try:
            mu = float(mu)
        except OverflowError:  # an integer beyond float range
            mu = math.inf
        _require(math.isfinite(mu), f"mu must be finite, got {mu}")
    if w is not None:
        p = plant.n + plant.m
        _require(w.shape == (p, p), f"W must be {p}x{p}, got {w.shape}")
    return gain, w, mu


def _config(settings: dict) -> SolverConfig:
    try:
        return SolverConfig(**settings)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid solver settings: {exc}") from exc


def _solver_config(settings: dict, args) -> SolverConfig:
    merged = dict(settings)
    for name in _SOLVER_KEYS:
        if getattr(args, name) is not None:
            merged[name] = getattr(args, name)
    return _config(merged)


def _vertex_rows(
    plant: PlantModel,
    vset: VertexSet,
    gain: np.ndarray,
    feas: verify_mod.FeasibilityReport | None,
) -> list[dict]:
    """Per-vertex margin + H-infinity norm (+ feasibility when a report is given)."""
    rows = []
    for i in range(vset.N):
        cl = verify_mod.closed_loop(plant, vset[i], gain, index=i)
        margin = verify_mod.stability_margin(cl)
        sweep = verify_mod.hinf_sweep(cl) if margin < 0 else None
        row = {
            "vertex": i,
            "stability_margin": margin,
            "stable": margin < 0,
            "sweep_peak": sweep.peak if sweep else None,
            # JSON has no -inf: a zero peak reads null
            "sweep_peak_db": _db(sweep.peak) if sweep and sweep.peak > 0.0 else None,
        }
        if feas is not None:
            row["theta1_max_eig"] = feas.per_vertex[i].theta1_max_eig
            row["feasible"] = feas.per_vertex[i].feasible
        rows.append(row)
    return rows


def _write_history_csv(path: str, history) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,err_W,err_mu,err_Y,err_eq,err,mu\n")
        for h in history:
            fh.write(
                f"{h.k},{_fmt(h.err_w)},{_fmt(h.err_mu)},{_fmt(h.err_y)},"
                f"{_fmt(h.err_eq)},{_fmt(h.err)},{_fmt(h.mu)}\n"
            )


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _pipeline(problem_path: str):
    plant, spec, settings = load_problem(problem_path)
    validation = validate_plant(plant)
    for msg in validation.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    vset = enumerate_vertices(plant, spec)
    ext = build_extended(plant, vset)
    return plant, spec, settings, vset, ext


def cmd_solve(args) -> int:
    plant, _, settings, vset, ext = _pipeline(args.problem)
    config = _solver_config(settings, args)
    schur = build_schur(ext)

    t0 = time.perf_counter()
    sol = solver_mod.solve(schur, config)
    wall = time.perf_counter() - t0

    out = args.out or "report.json"
    hist_path = os.path.splitext(out)[0] + "_history.csv"
    _write_history_csv(hist_path, sol.history)

    report = {
        "status": sol.status,
        "iters": sol.iters,
        "wall_time_seconds": wall,
        "gamma_certified": None,
        "mu_certified": None,
        "mu_star": sol.mu_star,
        "gamma_star": sol.gamma_star,
        "K_star": sol.K_star.tolist() if sol.K_star is not None else None,
        "W_star": sol.W_star.tolist(),
        "solver": dataclasses.asdict(config),
        "history_csv": hist_path,
        "N": vset.N,
    }
    peaks = []
    if sol.K_star is not None:
        try:
            cert = verify_mod.certified_attenuation(ext, sol.W_star)
            if cert is not None:
                report["mu_certified"], report["gamma_certified"] = cert
            feas = verify_mod.check_feasibility(ext, sol.W_star, sol.mu_star, args.tol)
            rows = _vertex_rows(plant, vset, sol.K_star, feas)
        except HinfgccError as exc:
            # the solve's outcome is still worth a report (a numerical
            # failure can leave a W the table cannot evaluate)
            print(f"warning: verification failed: {exc}", file=sys.stderr)
            report["verification"] = {"error": str(exc)}
        else:
            report["verification"] = {
                "feasibility_tol": args.tol,
                "vertices": rows,
                "all_stable": all(r["stable"] for r in rows),
                "feasibility_passed": feas.passed,
            }
            peaks = [r["sweep_peak"] for r in rows if r["sweep_peak"] is not None]
    _write_json(out, report)

    _say(f"status: {sol.status} after {sol.iters} iterations ({wall:.2f} s)")
    if report["gamma_certified"] is not None:
        _say(f"certified gamma = {report['gamma_certified']:.6g} "
             f"(mu = {report['mu_certified']:.6g}): bounds every vertex's H-infinity norm")
    elif sol.K_star is not None:
        _say("certified gamma: none (no mu > 0 is certified for W*)")
    if sol.gamma_star is not None:
        _say(f"gamma* = {sol.gamma_star:.6g} (mu* = {sol.mu_star:.6g}), the ADMM estimate")
    if peaks:
        _say(f"worst vertex H-infinity norm = {max(peaks):.6g}")
    if sol.K_star is not None:
        _say(f"K* = {np.array_str(sol.K_star, precision=6)}")
    _say(f"report: {out}\nhistory: {hist_path}")
    if sol.status == CONVERGED:
        return EXIT_OK
    if sol.status == MAX_ITERS:
        return EXIT_MAX_ITERS
    return EXIT_NUMERICAL


def cmd_verify(args) -> int:
    plant, _, _, vset, ext = _pipeline(args.problem)
    gain, w, mu = load_gain(args.gain, plant)
    feas = None
    if w is not None and mu is not None:
        feas = verify_mod.check_feasibility(ext, w, mu, args.tol)
    rows = _vertex_rows(plant, vset, gain, feas)
    report = {
        "K": gain.tolist(),
        "feasibility_tol": args.tol if feas is not None else None,
        "vertices": rows,
        "all_stable": all(r["stable"] for r in rows),
    }
    if feas is not None:
        report["feasibility_passed"] = feas.passed
        report["w_min_eig"] = feas.w_min_eig
        report["mu"] = mu
    out = args.out or "verify_report.json"
    _write_json(out, report)
    worst = max(rows, key=lambda r: r["stability_margin"])
    _say(f"vertices: {vset.N}, all stable: {report['all_stable']} "
          f"(worst margin {worst['stability_margin']:.6g} at vertex {worst['vertex']})")
    if "feasibility_passed" in report:
        _say(f"feasibility at tol {args.tol:g}: {report['feasibility_passed']}")
    peaks = [r["sweep_peak"] for r in rows if r["sweep_peak"] is not None]
    if peaks:
        _say(f"max H-infinity norm over stable vertices: {max(peaks):.6g}")
    _say(f"report: {out}")
    return EXIT_OK


def _select_vertex(vset: VertexSet, plant: PlantModel, which: str):
    if which == "nominal":
        return (plant.A, plant.B2), "nominal"
    try:
        idx = int(which)
    except ValueError as exc:
        raise SchemaError(f"--vertex must be an integer or 'nominal', got {which!r}") from exc
    if not (0 <= idx < vset.N):
        raise SchemaError(f"--vertex {idx} out of range (N = {vset.N})")
    return vset[idx], idx


def cmd_simulate(args) -> int:
    plant, _, _, vset, _ = _pipeline(args.problem)
    gain, _, _ = load_gain(args.gain, plant)
    vertex, label = _select_vertex(vset, plant, args.vertex)
    cl = verify_mod.closed_loop(plant, vertex, gain)
    resp = verify_mod.impulse_response(cl, args.horizon, args.dt)
    prefix = args.out or "impulse"
    paths = []
    for j in range(plant.l):
        path = f"{prefix}_ch{j}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t," + ",".join(f"x{i + 1}" for i in range(plant.n)) + "\n")
            for k, t in enumerate(resp.t):
                fh.write(_fmt(t) + "," + ",".join(_fmt(v) for v in resp.states[j, k]) + "\n")
        paths.append(path)
    _say(f"simulated vertex {label} for {args.horizon} s at dt {args.dt}")
    _say("trajectories: " + ", ".join(paths))
    return EXIT_OK


def cmd_sweep(args) -> int:
    if not (0 < args.fmin < args.fmax) or args.npts < 2:
        raise DimensionError("need 0 < fmin < fmax < inf and npts >= 2")
    if args.npts > MAX_SWEEP_POINTS:
        raise DimensionError(f"--npts {args.npts} exceeds the cap of {MAX_SWEEP_POINTS}")
    plant, _, _, vset, _ = _pipeline(args.problem)
    gain, _, _ = load_gain(args.gain, plant)
    vertex, label = _select_vertex(vset, plant, args.vertex)
    cl = verify_mod.closed_loop(plant, vertex, gain)
    omegas = np.logspace(math.log10(args.fmin), math.log10(args.fmax), args.npts)
    curve = verify_mod.gain_curve(cl, omegas)
    if verify_mod.stability_margin(cl) < 0:
        peak, peak_freq = verify_mod.hinf_sweep(cl)
    else:
        # no H-infinity norm: report the largest gain the grid reads
        print("warning: closed loop is not asymptotically stable; sweep peak is not an "
              "H-infinity norm", file=sys.stderr)
        finite = np.isfinite(curve)
        if not finite.any():
            raise DimensionError("the pencil is singular at every frequency of the grid")
        if not finite.all():
            print(f"warning: skipped {int((~finite).sum())} frequencies where the pencil "
                  "is singular", file=sys.stderr)
            omegas, curve = omegas[finite], curve[finite]
        k = int(curve.argmax())
        peak, peak_freq = float(curve[k]), float(omegas[k])
    out = args.out or "sweep.csv"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"# peak_sigma_max={_fmt(peak)},"
            f"peak_db={_fmt(_db(peak))},"
            f"peak_omega_rad_s={_fmt(peak_freq)}\n"
        )
        fh.write("omega_rad_s,sigma_max,sigma_max_db\n")
        for w_, s in zip(omegas, curve):
            fh.write(f"{_fmt(w_)},{_fmt(s)},{_fmt(_db(s))}\n")
    _say(f"vertex {label}: peak {peak:.6g} ({_db(peak):.4g} dB) at {peak_freq:.6g} rad/s")
    _say(f"csv: {out}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    _, _, _, vset, _ = _pipeline(args.problem)
    _say(f"N = {vset.N}")
    if args.full:
        for i, (ai, bi) in enumerate(vset):
            _say(f"vertex {i}:")
            _say("  A_i = " + np.array_str(ai, precision=6).replace("\n", "\n        "))
            _say("  B2_i = " + np.array_str(bi, precision=6).replace("\n", "\n         "))
    return EXIT_OK


def _finite_float(text: str) -> float:
    """argparse type of the float flags: inf and nan exit 2, as a typo does."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hinfgcc",
        description="Robust state-feedback synthesis with guaranteed disturbance attenuation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("problem", help="problem JSON file")
        p.add_argument("--out", default=None, help="output path")

    p_solve = sub.add_parser("solve", help="synthesize a gain and verify it")
    add_common(p_solve)
    p_solve.add_argument("--sigma", type=_finite_float, default=None)
    p_solve.add_argument("--tau", type=_finite_float, default=None)
    p_solve.add_argument("--eps", type=_finite_float, default=None)
    p_solve.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p_solve.add_argument("--tol", type=_finite_float, default=1e-6,
                         help="feasibility tolerance for the verification table")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a gain against the problem")
    add_common(p_verify)
    p_verify.add_argument("gain", help="gain JSON file (K required, W/mu optional)")
    p_verify.add_argument("--tol", type=_finite_float, default=1e-6)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="impulse response of the closed loop")
    add_common(p_sim)
    p_sim.add_argument("gain", help="gain JSON file")
    p_sim.add_argument("--horizon", type=_finite_float, default=10.0)
    p_sim.add_argument("--dt", type=_finite_float, default=1e-3)
    p_sim.add_argument("--vertex", default="nominal",
                       help="vertex index or 'nominal' (default)")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="singular-value frequency sweep")
    add_common(p_sweep)
    p_sweep.add_argument("gain", help="gain JSON file")
    p_sweep.add_argument("--fmin", type=_finite_float, default=SWEEP_FMIN)
    p_sweep.add_argument("--fmax", type=_finite_float, default=SWEEP_FMAX)
    p_sweep.add_argument("--npts", type=int, default=SWEEP_NPTS)
    p_sweep.add_argument("--vertex", default="nominal")
    p_sweep.set_defaults(func=cmd_sweep)

    p_enum = sub.add_parser("enumerate", help="list the extreme systems")
    p_enum.add_argument("problem", help="problem JSON file")
    p_enum.add_argument("--full", action="store_true", help="print every vertex")
    p_enum.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, CapacityError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except AssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except HinfgccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
