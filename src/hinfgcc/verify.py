"""Independent certification of a synthesized gain.

Everything here works from the closed-loop matrices and the original
problem data only, so it cross-checks the solver rather than trusting it:
spectral stability margins, the H-infinity norm of each Hurwitz closed
loop, vertexwise feasibility of a candidate (W, mu) pair, and impulse-
response simulation.

The norm (hinf_sweep) comes from the Hamiltonian level-set iteration, not
from a frequency grid, so it cannot miss a narrow resonance or a peak at
DC: the reported peak is a gain attained at `peak_frequency` (0 for a DC
peak) and the norm exceeds it by at most a factor 1 + 2 NORM_RTOL. It is
defined for Hurwitz loops only. gain_curve evaluates the response gain at
frequencies the caller chooses, for any loop: the norm iteration reads it
at its trial points, and the `sweep` command on its log grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DimensionError, InvalidInputError, NumericalError, SingularSystemError
from .model import PlantModel
from .problem import ExtendedMatrices, eval_theta1

# hinf_sweep's norm of a Hurwitz loop is an attained gain `peak` with
# peak <= norm <= (1 + 2 NORM_RTOL) peak.
NORM_RTOL = 1e-10
# A Hamiltonian eigenvalue counts as imaginary when its real part is below
# this share of the matrix's largest entry. Rounding moves a near-double
# imaginary eigenvalue off the axis by about sqrt(machine eps) ~ 1e-8 of
# the scale, while a level 2 NORM_RTOL above the peak leaves it ~1e-5 off.
_IMAG_AXIS_TOL = 1e-7
# The iteration converges quadratically; a handful of passes is typical.
_MAX_LEVEL_PASSES = 100

# Largest step count impulse_response integrates: 10 s at the default
# dt = 1e-3 is 10^4 steps, while 10^6 steps of a 3-state, 3-channel loop
# already take 72 MB and about 7 s (0.7 s per 10^5 steps on a 2-core host).
MAX_STEPS = 10**6


@dataclass(frozen=True)
class ClosedLoop:
    """Closed-loop data A_c = A_i - B2_i K, C_c = C - D K for one vertex."""

    ac: np.ndarray
    cc: np.ndarray
    b1: np.ndarray
    vertex: int = 0

    @cached_property
    def poles(self) -> np.ndarray:
        """Eigenvalues of A_c, computed once for the margin and the norm."""
        return kernels.eig_general(self.ac)


def closed_loop(
    plant: PlantModel, vertex: tuple[np.ndarray, np.ndarray], gain: np.ndarray, index: int = 0
) -> ClosedLoop:
    """Closed loop of one extreme system (A_i, B2_i) under u = -K x."""
    ai, b2i = vertex
    gain = np.asarray(gain, dtype=float)
    if gain.shape != (plant.m, plant.n):
        raise DimensionError(f"gain must be {plant.m}x{plant.n}, got {gain.shape}")
    return ClosedLoop(
        ac=ai - b2i @ gain,
        cc=plant.C - plant.D @ gain,
        b1=plant.B1.copy(),
        vertex=index,
    )


def stability_margin(cl: ClosedLoop) -> float:
    """Spectral abscissa of A_c; negative means asymptotically stable."""
    return float(cl.poles.real.max())


class HinfNorm(NamedTuple):
    """H-infinity norm of a Hurwitz closed loop: a gain `peak` attained at
    `peak_frequency` (0 for a peak at DC), with
    peak <= norm <= (1 + 2 NORM_RTOL) peak."""

    peak: float
    peak_frequency: float


def gain_curve(cl: ClosedLoop, omegas: np.ndarray) -> np.ndarray:
    """Largest singular value of the disturbance-to-output response at each
    frequency in `omegas`; singular points (only possible for a marginally
    stable or unstable loop) come back as NaN."""
    try:
        return kernels.response_gains(cl.ac, cl.b1, cl.cc, omegas)
    except np.linalg.LinAlgError:
        out = np.full(omegas.size, np.nan)
        for k in range(omegas.size):
            try:
                out[k] = kernels.response_gains(cl.ac, cl.b1, cl.cc, omegas[k : k + 1])[0]
            except np.linalg.LinAlgError:
                continue
        return out


def hinf_sweep(cl: ClosedLoop) -> HinfNorm:
    """H-infinity norm of a Hurwitz closed loop by the Hamiltonian level-set
    iteration (Boyd-Balakrishnan; Bruinsma-Steinbuch, Syst. Control Lett.
    1990).

    gamma is a singular value of G(jw) exactly when jw is an eigenvalue of
    the Hamiltonian [[A, B B^T / gamma^2], [-C^T C, -A^T]]. Starting from
    the gains at DC and at the pole frequencies, each pass puts the level
    just above the best attained gain, reads the frequencies where the
    response crosses it and evaluates the gain at the midpoints between
    them, each interval between crossings lying wholly above or below the
    level. It stops when no crossing is left or none of them raises the gain.

    A loop that is not asymptotically stable has no H-infinity norm and
    raises InvalidInputError; the poles are read from `cl.poles`. Raises
    NumericalError when the iteration does not converge or the peak is
    beyond the float range of gamma^2.
    """
    poles = cl.poles
    if not poles.real.max() < 0:
        raise InvalidInputError(
            "closed loop is not asymptotically stable; it has no H-infinity norm"
        )
    # peaks sit at DC or near the pole frequencies
    trial = np.concatenate(([0.0], np.abs(poles), np.abs(poles.imag)))
    gains = gain_curve(cl, trial)
    k = int(gains.argmax())
    best, best_freq = float(gains[k]), float(trial[k])
    if best == 0.0:
        return HinfNorm(0.0, 0.0)
    ac, b1, cc = cl.ac, cl.b1, cl.cc
    n = ac.shape[0]
    # only the B B^T / gamma^2 block changes from pass to pass; a block that
    # overflows (or a gamma^2 that underflows to 0) makes eig_general raise
    # InvalidInputError
    ham = np.empty((2 * n, 2 * n))
    ham[:n, :n] = ac
    with np.errstate(over="ignore", invalid="ignore"):
        bbt = b1 @ b1.T
        ham[n:, :n] = -(cc.T @ cc)
    ham[n:, n:] = -ac.T
    for _ in range(_MAX_LEVEL_PASSES):
        gamma = (1.0 + 2.0 * NORM_RTOL) * best
        try:
            gamma_sq = gamma**2
        except OverflowError as exc:  # a Python float power raises rather than overflow
            raise NumericalError(
                f"peak gain {best:.3e} is beyond the level-set iteration's range"
            ) from exc
        with np.errstate(over="ignore", divide="ignore"):
            ham[:n, n:] = bbt / gamma_sq
        eig = kernels.eig_general(ham)
        on_axis = np.abs(eig.real) < _IMAG_AXIS_TOL * np.abs(ham).max()
        crossings = np.sort(eig.imag[on_axis])
        if crossings.size == 0:
            return HinfNorm(best, best_freq)
        mids = np.abs(0.5 * (crossings[:-1] + crossings[1:]) if crossings.size > 1 else crossings)
        gains = gain_curve(cl, mids)
        k = int(gains.argmax())
        if not gains[k] > best:
            return HinfNorm(best, best_freq)
        best, best_freq = float(gains[k]), float(mids[k])
    raise NumericalError(
        f"H-infinity level-set iteration did not converge in {_MAX_LEVEL_PASSES} passes"
    )


@dataclass(frozen=True)
class VertexFeasibility:
    vertex: int
    theta1_max_eig: float
    feasible: bool


@dataclass(frozen=True)
class FeasibilityReport:
    """Vertexwise feasibility of (W, mu) plus the W and mu side conditions."""

    per_vertex: tuple[VertexFeasibility, ...]
    w_min_eig: float
    mu: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            all(v.feasible for v in self.per_vertex)
            and self.w_min_eig >= -self.tol
            and self.mu > 0.0
        )

    @property
    def worst_vertex(self) -> VertexFeasibility:
        return max(self.per_vertex, key=lambda v: v.theta1_max_eig)


def check_feasibility(
    ext: ExtendedMatrices, w: np.ndarray, mu: float, tol: float = 1e-6
) -> FeasibilityReport:
    """Evaluate the stability block at every vertex; pass iff max eig <= tol."""
    max_eig = kernels.max_eigs(eval_theta1(ext, w, mu))
    rows = tuple(VertexFeasibility(i, float(e), float(e) <= tol) for i, e in enumerate(max_eig))
    w_min = float(kernels.sym_eig(w).eigenvalues[-1])
    return FeasibilityReport(rows, w_min, float(mu), tol)


# Cap on certified_attenuation's mu (so gamma >= 2^-27); it binds when the
# vertex blocks barely or never tighten as mu grows, as with B1 = 0.
MU_CERT_MAX = 2.0**54


def certified_attenuation(
    ext: ExtendedMatrices, w: np.ndarray
) -> tuple[float, float] | None:
    """Largest mu for which (W, mu) is feasible at every vertex, with gamma.

    The stability block is affine in mu, theta1_i(W, mu) = theta1_i(W, 0)
    + mu B1 B1^T. With L_i L_i^T = -theta1_i(W, 0) it is <= 0 exactly when
    mu <= 1 / lambda_max(L_i^{-1} B1 B1^T L_i^{-T}), so the certificate is
    the smallest of these bounds over the vertices, at most MU_CERT_MAX.
    That closed form is exact only up to rounding, so the certificate never
    overstates mu: until the batched check of check_feasibility gives every
    block a max eigenvalue <= 0, mu steps down by one ulp, then by steps
    that double. (A typical closed form is off by a few ulps. When some
    -theta1_i(W, 0) is barely definite the check is noise over a range of
    mu as wide as mu itself, which ulp steps alone would take ~2^52 checks
    to leave.)

    Returns None when the state block W1 of W is not positive definite (the
    bounded real lemma needs W1 > 0, and without it the gain W encodes may
    destabilize the plant), when some -theta1_i(W, 0) is not positive
    definite, or when no mu > 0 passes the check.
    """
    n = ext.n
    if not float(kernels.sym_eig(w[:n, :n]).eigenvalues[-1]) > 0.0:
        return None
    try:
        lam = kernels.max_pencil_eigs(ext.B1B1t, -eval_theta1(ext, w, 0.0))
    except SingularSystemError:
        return None
    mu = 1.0 / max(float(lam.max()), 1.0 / MU_CERT_MAX)
    step = mu - float(np.nextafter(mu, 0.0))
    while kernels.max_eigs(eval_theta1(ext, w, mu)).max() > 0.0:
        mu -= step
        step *= 2.0
        if not mu > 0.0:
            return None
    return mu, 1.0 / math.sqrt(mu)


@dataclass(frozen=True)
class ImpulseResponse:
    """State trajectories per disturbance channel: states[j, k] is x(t_k)
    for the impulse on channel j, realized as the initial state B1 e_j."""

    t: np.ndarray  # (steps + 1,)
    states: np.ndarray  # (l, steps + 1, n)


def impulse_response(cl: ClosedLoop, horizon: float, dt: float) -> ImpulseResponse:
    """Integrate dx = A_c x from x(0) = B1 e_j with a fixed-step RK4 scheme.

    The impulse enters as an equivalent initial condition, which is exact
    for an LTI system and avoids discretizing the impulse itself. A horizon
    or step that is not positive, or whose step count horizon / dt is not
    finite or exceeds MAX_STEPS, raises DimensionError before anything is
    allocated.
    """
    if not (dt > 0 and horizon > 0):
        raise DimensionError("horizon and dt must be positive")
    ratio = float(horizon) / float(dt)  # a Python float overflows to inf silently
    if not math.isfinite(ratio):
        raise DimensionError(f"horizon / dt = {ratio} steps is not a finite count")
    ac = cl.ac
    steps = max(1, int(round(ratio)))
    if steps > MAX_STEPS:
        raise DimensionError(f"horizon / dt = {ratio:.3g} steps exceeds the cap of {MAX_STEPS}")
    x = cl.b1.copy()  # columns evolve all channels at once
    out = np.empty((steps + 1, *x.shape))
    out[0] = x
    for k in range(steps):
        k1 = ac @ x
        k2 = ac @ (x + 0.5 * dt * k1)
        k3 = ac @ (x + 0.5 * dt * k2)
        k4 = ac @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = x
    t = np.arange(steps + 1) * dt
    return ImpulseResponse(t=t, states=out.transpose(2, 0, 1))
