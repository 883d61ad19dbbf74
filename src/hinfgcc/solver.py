"""Symmetric Gauss-Seidel ADMM loop for the Schur-form synthesis program.

One iteration performs, in order:

  1. independent cone projections of the consensus blocks Y,
  2. a backward sweep: closed-form scalar update of mu, then the vectorized
     linear solve for W against the prefactorized SPD operator,
  3. a forward sweep repeating the scalar mu update at the new W,
  4. a multiplier step of length tau*sigma on Z,
  5. the four relative KKT residuals, whose maximum drives the stopping rule.

All cross-vertex reductions are accumulated in fixed index order, so runs
are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DimensionError, ExtractionError, NumericalError, SingularSystemError
from .problem import SchurData, eval_g_all

TAU_MAX = (1.0 + math.sqrt(5.0)) / 2.0

CONVERGED = "converged"
MAX_ITERS = "max-iters"
NUMERICAL_FAILURE = "numerical-failure"

# Condition-number ceiling on the state block of W for gain extraction.
GAIN_COND_LIMIT = 1e12


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters: penalty sigma, step tau in (0, (1+sqrt 5)/2), stopping
    tolerance eps and iteration cap.
    """

    sigma: float = 1.0
    tau: float = 1.618
    eps: float = 1e-4
    max_iters: int = 100_000

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not (0.0 < self.tau < TAU_MAX):
            raise ValueError(f"tau must lie strictly inside (0, {TAU_MAX}), got {self.tau}")
        if not (self.eps > 0):
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


@dataclass
class ConsensusVector:
    """Block vector over the cone: a p x p block, N r x r blocks, a scalar."""

    y0: np.ndarray
    yi: np.ndarray  # (N, r, r)
    ylast: float

    def copy(self) -> "ConsensusVector":
        return ConsensusVector(self.y0.copy(), self.yi.copy(), float(self.ylast))

    def norm(self) -> float:
        return math.sqrt(
            float(np.sum(self.y0 * self.y0))
            + float(np.sum(self.yi * self.yi))
            + self.ylast**2
        )


def cv_zeros(schur: SchurData) -> ConsensusVector:
    return ConsensusVector(
        np.zeros((schur.p, schur.p)), np.zeros((schur.N, schur.r, schur.r)), 0.0
    )


def cv_diff_norm(a: ConsensusVector, b: ConsensusVector) -> float:
    d0 = a.y0 - b.y0
    di = a.yi - b.yi
    return math.sqrt(
        float(np.sum(d0 * d0)) + float(np.sum(di * di)) + (a.ylast - b.ylast) ** 2
    )


def apply_hmap(schur: SchurData, w: np.ndarray, mu: float) -> ConsensusVector:
    """The consensus map (W, all vertex constraint blocks, mu)."""
    return ConsensusVector(w.copy(), eval_g_all(schur, w, mu), float(mu))


def project_cone(cv: ConsensusVector) -> ConsensusVector:
    """Blockwise projection onto PSD cones and the nonnegative half-line."""
    return ConsensusVector(
        kernels.project_psd(cv.y0),
        kernels.project_psd_stack(cv.yi),
        kernels.project_nonneg(cv.ylast),
    )


class HistoryEntry(NamedTuple):
    k: int
    err_w: float
    err_mu: float
    err_y: float
    err_eq: float
    err: float
    mu: float
    gap: float


@dataclass
class SolverState:
    """Mutable iterate: primal (W, mu), consensus Y, multipliers Z, history."""

    w: np.ndarray
    mu: float
    y: ConsensusVector
    z: ConsensusVector
    k: int = 0
    history: list[HistoryEntry] = field(default_factory=list)


@dataclass
class Solution:
    W_star: np.ndarray
    mu_star: float
    K_star: np.ndarray | None
    gamma_star: float | None
    status: str
    iters: int
    history: list[HistoryEntry]


def init(
    schur: SchurData,
    config: SolverConfig,
    start: tuple[np.ndarray, float, ConsensusVector, ConsensusVector] | None = None,
) -> SolverState:
    """Fresh all-zero state, or a verbatim copy of a supplied start point."""
    if start is None:
        return SolverState(
            w=np.zeros((schur.p, schur.p)),
            mu=0.0,
            y=cv_zeros(schur),
            z=cv_zeros(schur),
        )
    w0, mu0, y0, z0 = start
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (schur.p, schur.p):
        raise DimensionError(f"start W must be {schur.p}x{schur.p}, got {w0.shape}")
    for name, cv in (("Y", y0), ("Z", z0)):
        if cv.y0.shape != (schur.p, schur.p) or cv.yi.shape != (schur.N, schur.r, schur.r):
            raise DimensionError(f"start {name} blocks do not match problem dimensions")
    return SolverState(w=w0.copy(), mu=float(mu0), y=y0.copy(), z=z0.copy())


def update_y(state: SolverState, schur: SchurData, config: SolverConfig) -> ConsensusVector:
    """Project the shifted consensus blocks onto their cones; the N vertex
    blocks go through one batched projection."""
    sigma = config.sigma
    ylast = kernels.project_nonneg(state.mu - state.z.ylast / sigma)
    target = eval_g_all(schur, state.w, state.mu) - state.z.yi / sigma
    yi = kernels.project_psd_stack(target)
    y0 = kernels.project_psd(state.w - state.z.y0 / sigma)
    return ConsensusVector(y0, yi, ylast)


def _mu_closed_form(
    schur: SchurData, config: SolverConfig, w: np.ndarray, y: ConsensusVector, z: ConsensusVector
) -> float:
    """Stationary point of the augmented Lagrangian in mu at fixed (Y, W, Z)."""
    sigma = config.sigma
    lin = schur.h1 @ w @ schur.h2
    lin = lin + (schur.h2.T @ w) @ schur.h1.transpose(0, 2, 1)
    inner = float(np.einsum("irs,rs->", lin - y.yi - z.yi / sigma, schur.h3))
    num = (
        1.0
        - sigma * inner
        + sigma * y.ylast
        + z.ylast
        - sigma * schur.N * schur.h0_dot_h3
    )
    return num / (sigma * (schur.N * schur.tr_h3_sq + 1.0))


def backward_mu(state: SolverState, schur: SchurData, config: SolverConfig) -> float:
    """Backward-sweep mu update; expects state.y already advanced."""
    return _mu_closed_form(schur, config, state.w, state.y, state.z)


def update_w(
    state: SolverState, schur: SchurData, config: SolverConfig, mu_bar: float
) -> np.ndarray:
    """Solve the vectorized W subproblem against the prefactorized operator."""
    sigma = config.sigma
    mid = mu_bar * schur.h3 + schur.h0 - state.y.yi - state.z.yi / sigma
    s = (schur.h1.transpose(0, 2, 1) @ mid @ schur.h2.T).sum(axis=0)
    t0 = -state.y.y0 - state.z.y0 / sigma + s + s.T
    w_vec = -kernels.spd_solve(schur.wsolve_factor, kernels.vec(t0))
    return kernels.symmetrize(kernels.unvec(w_vec, schur.p, schur.p))


def forward_mu(
    state: SolverState, schur: SchurData, config: SolverConfig, w_new: np.ndarray
) -> float:
    """Forward-sweep mu update: same closed form evaluated at the new W."""
    return _mu_closed_form(schur, config, w_new, state.y, state.z)


def update_z(state: SolverState, schur: SchurData, config: SolverConfig) -> ConsensusVector:
    """Multiplier step along the primal residual; expects primals advanced."""
    step = config.tau * config.sigma
    h = apply_hmap(schur, state.w, state.mu)
    z0 = kernels.symmetrize(state.z.y0 + step * (state.y.y0 - h.y0))
    zi = state.z.yi + step * (state.y.yi - h.yi)
    zi = (zi + zi.transpose(0, 2, 1)) / 2.0
    zlast = state.z.ylast + step * (state.y.ylast - h.ylast)
    return ConsensusVector(z0, zi, zlast)


def residuals(state: SolverState, schur: SchurData) -> tuple[float, float, float, float, float]:
    """Relative KKT residuals (err_W, err_mu, err_Y, err_eq) and their max."""
    z = state.z
    h1t = schur.h1.transpose(0, 2, 1)
    per_vertex = h1t @ z.yi @ schur.h2.T + schur.h2 @ z.yi @ schur.h1
    grad_w = z.y0 + per_vertex.sum(axis=0)
    den_w = 1.0 + np.linalg.norm(z.y0) + float(np.linalg.norm(per_vertex, axis=(1, 2)).sum())
    err_w = float(np.linalg.norm(grad_w)) / den_w

    err_mu = abs(1.0 + z.ylast + float(np.einsum("irs,rs->", z.yi, schur.h3))) / 2.0

    shifted = ConsensusVector(state.y.y0 - z.y0, state.y.yi - z.yi, state.y.ylast - z.ylast)
    err_y = cv_diff_norm(state.y, project_cone(shifted)) / (
        1.0 + state.y.norm() + z.norm()
    )

    h = apply_hmap(schur, state.w, state.mu)
    err_eq = cv_diff_norm(state.y, h) / (1.0 + state.y.norm() + h.norm())

    err = max(err_w, err_mu, err_y, err_eq)
    return err_w, err_mu, err_y, err_eq, err


def lagrangian(
    schur: SchurData,
    config: SolverConfig,
    y: ConsensusVector,
    w: np.ndarray,
    mu: float,
    z: ConsensusVector,
) -> float:
    """Smooth part of the augmented Lagrangian (cone indicator omitted).

    The indicator of the cone is constant in (W, mu), so this value is the
    right objective for finite-difference stationarity checks of the sweep
    updates.
    """
    sigma = config.sigma
    h = apply_hmap(schur, w, mu)
    shifted = ConsensusVector(
        y.y0 - h.y0 + z.y0 / sigma,
        y.yi - h.yi + z.yi / sigma,
        y.ylast - h.ylast + z.ylast / sigma,
    )
    return -mu + 0.5 * sigma * shifted.norm() ** 2 - z.norm() ** 2 / (2.0 * sigma)


def extract_gain(w: np.ndarray, n: int, m: int) -> np.ndarray:
    """Feedback gain W2^T W1^{-1} from the partition of a p x p W."""
    w = np.asarray(w, dtype=float)
    if w.shape != (n + m, n + m):
        raise DimensionError(f"W must be {n + m}x{n + m}, got {w.shape}")
    w1 = w[:n, :n]
    w2 = w[:n, n:]
    cond = np.linalg.cond(w1)
    if not np.isfinite(cond) or cond >= GAIN_COND_LIMIT:
        raise ExtractionError(f"state block of W is near singular (cond ~ {cond:.2e})")
    return np.linalg.solve(w1.T, w2).T


def solve(schur: SchurData, config: SolverConfig, start: tuple | None = None) -> Solution:
    """Run the ADMM loop until err < eps or the iteration cap.

    The residuals at the initial point are recorded as history row k = 0 but
    the stopping rule is only evaluated after full iterations. On an
    eigensolver or linear-solve breakdown the last state is preserved in the
    history and the status is numerical-failure.
    """
    state = init(schur, config, start)
    status = MAX_ITERS
    prev_mu = state.mu
    err_w, err_mu, err_y, err_eq, err = residuals(state, schur)
    state.history.append(HistoryEntry(0, err_w, err_mu, err_y, err_eq, err, state.mu, 0.0))
    for k in range(1, config.max_iters + 1):
        try:
            state.y = update_y(state, schur, config)
            mu_bar = backward_mu(state, schur, config)
            state.w = update_w(state, schur, config, mu_bar)
            state.mu = forward_mu(state, schur, config, state.w)
            state.z = update_z(state, schur, config)
            err_w, err_mu, err_y, err_eq, err = residuals(state, schur)
        except (np.linalg.LinAlgError, NumericalError, SingularSystemError):
            status = NUMERICAL_FAILURE
            break
        state.k = k
        gap = err_eq * abs(state.mu - prev_mu)
        prev_mu = state.mu
        state.history.append(HistoryEntry(k, err_w, err_mu, err_y, err_eq, err, state.mu, gap))
        if err < config.eps:
            status = CONVERGED
            break

    n_from_r = schur.r - schur.p  # r = m + 2n and p = m + n
    m_dim = schur.p - n_from_r
    gamma = None
    gain = None
    if status == CONVERGED and state.mu <= 0.0:
        # mu stuck at the cone boundary: gamma = 1/sqrt(mu) is undefined
        status = NUMERICAL_FAILURE
    if state.mu > 0.0:
        gamma = 1.0 / math.sqrt(state.mu)
    try:
        gain = extract_gain(state.w, n_from_r, m_dim)
    except ExtractionError:
        gain = None
        if status == CONVERGED:
            status = NUMERICAL_FAILURE
    return Solution(
        W_star=state.w,
        mu_star=state.mu,
        K_star=gain,
        gamma_star=gamma,
        status=status,
        iters=state.k,
        history=state.history,
    )
