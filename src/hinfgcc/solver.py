"""Symmetric Gauss-Seidel ADMM loop for the Schur-form synthesis program.

One iteration performs, in order:

  1. independent cone projections of the consensus blocks Y,
  2. a backward sweep: closed-form scalar update of mu, then the vectorized
     linear solve for W against the prefactorized SPD operator,
  3. a forward sweep repeating the scalar mu update at the new W,
  4. a multiplier step of length tau*sigma on Z,
  5. the four relative KKT residuals, whose maximum drives the stopping rule.

Each piece of work is done once per iteration:

  - The constraint map is evaluated once, after the W solve: its W-linear
    part feeds the forward mu update and the next backward one, and the
    consensus map h = (W, G(W, mu), mu) feeds the Z step, the residuals and
    the next Y step.
  - The vertex blocks of Y - Z (for err_Y) and of G - Z/sigma (for the next
    Y step) depend only on the state after the iteration, so they go through
    one batched projection of 2N blocks; the two p x p blocks stay on
    kernels.project_psd.
  - Y, Z and h are ConsensusVectors: one flat buffer each, with block views,
    so the Z step is one axpy and every norm is one dot product.

The step functions below take these shared inputs as arguments. W, mu and
the iteration count are bitwise those of the unfused order (tests pin this).

All cross-vertex reductions are accumulated in fixed index order, so runs
are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import (
    DimensionError,
    ExtractionError,
    InvalidInputError,
    NumericalError,
    SingularSystemError,
)
from .problem import SchurData, eval_g_all, eval_lin_all

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


class ConsensusVector:
    """Block vector over the cone: a p x p block, N r x r blocks, a scalar.

    The three parts live in one flat buffer, `flat`; y0 and yi are views of
    it and ylast reads its last entry, so sums, steps and norms over the
    whole vector are single operations on `flat`. The constructor copies
    the given blocks into a new buffer.
    """

    __slots__ = ("flat", "y0", "yi")

    def __init__(self, y0: np.ndarray, yi: np.ndarray, ylast: float):
        y0 = np.asarray(y0, dtype=float)
        yi = np.asarray(yi, dtype=float)
        self._view(np.empty(y0.size + yi.size + 1), y0.shape[0], yi.shape[0], yi.shape[1])
        self.y0[...] = y0
        self.yi[...] = yi
        self.flat[-1] = ylast

    def _view(self, flat: np.ndarray, p: int, n_blocks: int, r: int) -> None:
        self.flat = flat
        self.y0 = flat[: p * p].reshape(p, p)
        self.yi = flat[p * p : -1].reshape(n_blocks, r, r)

    @classmethod
    def empty(cls, schur: SchurData) -> "ConsensusVector":
        """Uninitialized vector shaped for the problem."""
        cv = cls.__new__(cls)
        cv._view(np.empty(schur.p * schur.p + schur.N * schur.r * schur.r + 1),
                 schur.p, schur.N, schur.r)
        return cv

    @classmethod
    def zeros(cls, schur: SchurData) -> "ConsensusVector":
        cv = cls.empty(schur)
        cv.flat[...] = 0.0
        return cv

    @property
    def ylast(self) -> float:
        return float(self.flat[-1])

    @ylast.setter
    def ylast(self, value: float) -> None:
        self.flat[-1] = value

    def norm(self) -> float:
        return _norm(self.flat)


def apply_hmap(schur: SchurData, w: np.ndarray, mu: float, lin: np.ndarray) -> ConsensusVector:
    """The consensus map (W, all vertex constraint blocks, mu); lin is
    eval_lin_all(schur, w)."""
    h = ConsensusVector.empty(schur)
    h.y0[...] = w
    h.yi[...] = eval_g_all(schur, lin, mu)
    h.flat[-1] = mu
    return h


def _norm(a: np.ndarray) -> float:
    """Frobenius norm, as np.linalg.norm computes it, without its dispatch."""
    v = a.ravel()
    return math.sqrt(float(v @ v))


class HistoryEntry(NamedTuple):
    k: int
    err_w: float
    err_mu: float
    err_y: float
    err_eq: float
    err: float
    mu: float


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
            y=ConsensusVector.zeros(schur),
            z=ConsensusVector.zeros(schur),
        )
    w0, mu0, y0, z0 = start
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (schur.p, schur.p):
        raise DimensionError(f"start W must be {schur.p}x{schur.p}, got {w0.shape}")
    for name, cv in (("Y", y0), ("Z", z0)):
        if cv.y0.shape != (schur.p, schur.p) or cv.yi.shape != (schur.N, schur.r, schur.r):
            raise DimensionError(f"start {name} blocks do not match problem dimensions")
    return SolverState(
        w=w0.copy(),
        mu=float(mu0),
        y=ConsensusVector(y0.y0, y0.yi, y0.ylast),
        z=ConsensusVector(z0.y0, z0.yi, z0.ylast),
    )


def update_y(
    state: SolverState, schur: SchurData, config: SolverConfig, yi: np.ndarray
) -> ConsensusVector:
    """Project the shifted consensus blocks onto their cones.

    yi is the projection of the vertex blocks G(W, mu) - Z_i/sigma, which
    solve computes one iteration early, batched with the residual's.
    """
    sigma = config.sigma
    y = ConsensusVector.empty(schur)
    y.flat[-1] = kernels.project_nonneg(state.mu - state.z.ylast / sigma)
    y.yi[...] = yi
    y.y0[...] = kernels.project_psd(state.w - state.z.y0 / sigma)
    return y


def backward_mu(
    state: SolverState, schur: SchurData, config: SolverConfig, lin: np.ndarray
) -> float:
    """Closed-form mu update: the stationary point of the augmented Lagrangian
    in mu at fixed (Y, W, Z); expects state.y already advanced.

    lin is eval_lin_all at the sweep's W: the old W in the backward sweep,
    the new one in the forward sweep. The term <h0, h3> of the stationarity
    condition is absent: the two blocks have disjoint support.
    """
    sigma = config.sigma
    y, z = state.y, state.z
    inner = float(np.einsum("irs,rs->", lin - y.yi - z.yi / sigma, schur.h3))
    num = 1.0 - sigma * inner + sigma * y.ylast + z.ylast
    return num / (sigma * (schur.N * schur.tr_h3_sq + 1.0))


# The forward sweep is the same update at the new W, under its own name so
# that the two sweeps can be timed apart.
forward_mu = backward_mu


def update_w(
    state: SolverState, schur: SchurData, config: SolverConfig, mu_bar: float
) -> np.ndarray:
    """Solve the vectorized W subproblem against the precomputed inverse."""
    sigma = config.sigma
    mid = mu_bar * schur.h3 + schur.h0 - state.y.yi - state.z.yi / sigma
    s = (schur.h1.transpose(0, 2, 1) @ mid @ schur.h2.T).sum(axis=0)
    t0 = -state.y.y0 - state.z.y0 / sigma + s + s.T
    w_vec = -kernels.spd_solve(schur.wsolve_inv, kernels.vec(t0))
    return kernels.symmetrize(kernels.unvec(w_vec, schur.p, schur.p))


def update_z(
    state: SolverState, schur: SchurData, config: SolverConfig, h: ConsensusVector
) -> ConsensusVector:
    """Multiplier step along the primal residual; expects primals advanced.

    h is the consensus map at the state's (W, mu).
    """
    z = ConsensusVector.empty(schur)
    np.multiply(config.tau * config.sigma, state.y.flat - h.flat, out=z.flat)
    z.flat += state.z.flat
    z.y0 += z.y0.T
    z.y0 /= 2.0
    z.yi += z.yi.transpose(0, 2, 1)
    z.yi /= 2.0
    return z


def residuals(
    state: SolverState,
    schur: SchurData,
    h: ConsensusVector,
    proj_yi: np.ndarray,
) -> tuple[float, float, float, float, float]:
    """Relative KKT residuals (err_W, err_mu, err_Y, err_eq) and their max.

    h is the consensus map at the state's (W, mu) and proj_yi the projection
    of the vertex blocks of Y - Z. Raises NumericalError when an iterate or
    a residual is not finite.
    """
    y, z = state.y, state.z
    h1t = schur.h1.transpose(0, 2, 1)
    per_vertex = h1t @ z.yi @ schur.h2.T + schur.h2 @ z.yi @ schur.h1
    grad_w = z.y0 + per_vertex.sum(axis=0)
    vertex_norms = np.sqrt(np.add.reduce(per_vertex * per_vertex, axis=(1, 2)))
    den_w = 1.0 + _norm(z.y0) + float(vertex_norms.sum())
    err_w = _norm(grad_w) / den_w

    err_mu = abs(1.0 + z.ylast + float(np.einsum("irs,rs->", z.yi, schur.h3))) / 2.0

    proj = ConsensusVector.empty(schur)
    proj.y0[...] = kernels.project_psd(y.y0 - z.y0)
    proj.yi[...] = proj_yi
    proj.flat[-1] = kernels.project_nonneg(y.ylast - z.ylast)
    norm_y = y.norm()
    norm_z = z.norm()
    err_y = _norm(y.flat - proj.flat) / (1.0 + norm_y + norm_z)

    norm_h = h.norm()
    err_eq = _norm(y.flat - h.flat) / (1.0 + norm_y + norm_h)

    # an overflowed norm turns a residual into 0 or nan, so test the norms too
    if not all(map(math.isfinite, (norm_y, norm_z, norm_h, err_w, err_mu, err_y, err_eq))):
        raise NumericalError("non-finite iterate or residual")
    err = max(err_w, err_mu, err_y, err_eq)
    return err_w, err_mu, err_y, err_eq, err


def extract_gain(w: np.ndarray, n: int, m: int) -> np.ndarray:
    """Feedback gain W2^T W1^{-1} from the partition of a p x p W."""
    w = np.asarray(w, dtype=float)
    if w.shape != (n + m, n + m):
        raise DimensionError(f"W must be {n + m}x{n + m}, got {w.shape}")
    if not np.isfinite(w).all():
        raise ExtractionError("W has non-finite entries")
    w1 = w[:n, :n]
    w2 = w[:n, n:]
    cond = np.linalg.cond(w1)
    if not np.isfinite(cond) or cond >= GAIN_COND_LIMIT:
        raise ExtractionError(f"state block of W is near singular (cond ~ {cond:.2e})")
    return np.linalg.solve(w1.T, w2).T


# Breakdowns inside the loop: an eigensolver or linear solve that fails, or
# an iterate that is no longer finite (the problem data were checked).
_BREAKDOWNS = (np.linalg.LinAlgError, InvalidInputError, NumericalError, SingularSystemError)


def _project_pair(
    state: SolverState, h: ConsensusVector, sigma: float
) -> tuple[np.ndarray, np.ndarray | Exception]:
    """Projections of Y_i - Z_i (for err_Y) and of G_i - Z_i/sigma (for the
    next Y step) in one batched call; both depend only on the current state.

    If the batched call fails, each half is projected alone, so a failure
    surfaces where the unbatched order meets it: a failure in the first half
    ends this row's err_Y; one in the second is returned in place of the
    projection and raised at the next Y step.
    """
    y, z = state.y, state.z
    n = y.yi.shape[0]
    pair = np.concatenate((y.yi - z.yi, h.yi - z.yi / sigma))
    try:
        out = kernels.project_psd_stack(pair)
    except _BREAKDOWNS:
        proj_yi = kernels.project_psd_stack(pair[:n])
        try:
            return proj_yi, kernels.project_psd_stack(pair[n:])
        except _BREAKDOWNS as exc:
            return proj_yi, exc
    return out[:n], out[n:]


def _record(
    state: SolverState, schur: SchurData, config: SolverConfig, h: ConsensusVector, k: int
) -> np.ndarray | Exception:
    """Append history row k; return the next Y step's vertex projection."""
    proj_yi, y_next = _project_pair(state, h, config.sigma)
    err_w, err_mu, err_y, err_eq, err = residuals(state, schur, h, proj_yi)
    state.k = k
    state.history.append(HistoryEntry(k, err_w, err_mu, err_y, err_eq, err, state.mu))
    return y_next


def solve(schur: SchurData, config: SolverConfig, start: tuple | None = None) -> Solution:
    """Run the ADMM loop until err < eps or the iteration cap.

    The residuals at the initial point are recorded as history row k = 0 but
    the stopping rule is only evaluated after full iterations. On an
    eigensolver or linear-solve breakdown, or a non-finite iterate, the
    history ends at the last complete row and the status is
    numerical-failure. Overflow inside the loop is such a breakdown, caught
    by the finite checks rather than reported as a floating-point warning.
    """
    state = init(schur, config, start)
    status = MAX_ITERS
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            lin = eval_lin_all(schur, state.w)
            y_next = _record(state, schur, config, apply_hmap(schur, state.w, state.mu, lin), 0)
            for k in range(1, config.max_iters + 1):
                if isinstance(y_next, Exception):
                    raise y_next
                state.y = update_y(state, schur, config, y_next)
                mu_bar = backward_mu(state, schur, config, lin)
                state.w = update_w(state, schur, config, mu_bar)
                lin = eval_lin_all(schur, state.w)
                state.mu = forward_mu(state, schur, config, lin)
                h = apply_hmap(schur, state.w, state.mu, lin)
                state.z = update_z(state, schur, config, h)
                y_next = _record(state, schur, config, h, k)
                if state.history[-1].err < config.eps:
                    status = CONVERGED
                    break
    except _BREAKDOWNS:
        status = NUMERICAL_FAILURE

    n_from_r = schur.r - schur.p  # r = m + 2n and p = m + n
    m_dim = schur.p - n_from_r
    if status == CONVERGED and state.mu <= 0.0:
        # mu stuck at the cone boundary: gamma = 1/sqrt(mu) is undefined
        status = NUMERICAL_FAILURE
    try:
        gain = extract_gain(state.w, n_from_r, m_dim)
    except ExtractionError:
        gain = None
        if status == CONVERGED:
            status = NUMERICAL_FAILURE
    # a failed run has no gamma estimate, whatever mu it stopped at
    gamma = None
    if status != NUMERICAL_FAILURE and state.mu > 0.0:
        gamma = 1.0 / math.sqrt(state.mu)
    return Solution(
        W_star=state.w,
        mu_star=state.mu,
        K_star=gain,
        gamma_star=gamma,
        status=status,
        iters=state.k,
        history=state.history,
    )
