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
  - Z/sigma is computed once per Z step and feeds both sweeps, the W solve
    and the next Y step's targets.
  - The projections of Y - Z (for err_Y) and of the next Y step's targets,
    W - Z0/sigma and G - Z/sigma, depend only on the state after the
    iteration, so each pair is projected in one call: the two p x p blocks
    as one stack (kernels.project_psd), the 2N vertex blocks as another, in
    which only the blocks that are not positive definite are
    eigendecomposed (kernels.project_psd_stack). The differences are
    written into the state's two pair stacks, the vertex pair is projected
    into a third, and the Y step only assembles Y from the projections. A
    breakdown in either half of a pair ends the run at that row, as every
    other breakdown in the loop does.
  - Y, Z, h and Z/sigma are ConsensusVectors over the rows of one workspace,
    with the Z step, Y - h and Y - Pi(Y - Z). Every step writes into its
    row, so no consensus vector is allocated per iteration (the constraint
    map's stacks still are), the Z step is one axpy, and the norms of Y, Z,
    h, Y - h and Y - Pi(Y - Z) are one np.vecdot over five rows, which
    rounds as one dot product per row does.
  - All of a solve's memory lives in its SolverState: SolverState(schur) is
    the all-zero start, and it allocates W, the workspace, the projection
    stacks and the history once. The history is the one thing that grows
    with the iteration count: each iteration writes one row of six named
    float64 fields (HISTORY_DTYPE; k is the row's index) into a structured
    array that is replaced by one a quarter larger when full, 48 B per row
    plus at most a quarter spare; the stopping rule compares the err that
    _record returns, so no row object is built in the loop.

The per-vertex products use the structure of the operators (see
problem.SchurData): h2 = [I_n 0], so the W step forms only the first n
columns of mu_bar h3 + h0 - Y_i - Z_i/sigma, and the per-vertex gradient in
the residuals is one batched h1_i^T Z_i[:, :n] plus its transpose. Y, h and
Z have exactly symmetric blocks (W and the projections are symmetrized, and
the constraint map keeps symmetry bit for bit), so the Z step is not
re-symmetrized, and both products read the first n rows of Y_i and Z_i,
transposed, where the columns are strided. All of these are byte-equal to
the dense products (tests compare them with the dense forms and pin the
symmetry along whole runs).

The step functions below take these shared inputs as arguments. W, mu and
the iteration count are bitwise those of the unfused order (tests pin this).

All cross-vertex reductions are accumulated in fixed index order, so runs
are reproducible.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

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
    tolerance eps and iteration cap; sigma and eps must be finite. A bool is
    no value for any of them, and the cap must be an integer (TypeError).
    """

    sigma: float = 1.0
    tau: float = 1.618
    eps: float = 1e-4
    max_iters: int = 100_000

    def __post_init__(self):
        for name in ("sigma", "tau", "eps", "max_iters"):
            if isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a number, got {getattr(self, name)}")
        if not isinstance(self.max_iters, numbers.Integral):
            raise TypeError(f"max_iters must be an integer, got {self.max_iters!r}")
        # compared with the largest float, not tested with math.isfinite, so
        # that an integer beyond the float range is rejected, not an OverflowError
        if not (0 < self.sigma <= sys.float_info.max):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (0.0 < self.tau < TAU_MAX):
            raise ValueError(f"tau must lie strictly inside (0, {TAU_MAX}), got {self.tau}")
        if not (0 < self.eps <= sys.float_info.max):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


class ConsensusVector:
    """Block vector over the cone: a p x p block, N r x r blocks, a scalar.

    The three parts live in one flat buffer, `flat`, which the constructor
    wraps without copying: y0 and yi are views of it and ylast reads its
    last entry, so sums, steps and norms over the whole vector are single
    operations on `flat`.
    """

    __slots__ = ("flat", "y0", "yi")

    def __init__(self, flat: np.ndarray, p: int, r: int):
        self.flat = flat
        self.y0 = flat[: p * p].reshape(p, p)
        self.yi = flat[p * p : -1].reshape(-1, r, r)

    @property
    def ylast(self) -> float:
        return float(self.flat[-1])


def _norm(a: np.ndarray) -> float:
    """Frobenius norm, as np.linalg.norm computes it, without its dispatch."""
    v = a.ravel()
    return math.sqrt(float(v @ v))


# One history row per iteration: the four relative KKT residuals, named as
# in residuals, their max (the err the stopping rule compares) and mu; k is
# the row's index. The CLI's history CSV header is k and these names.
HISTORY_DTYPE = np.dtype(
    [(name, np.float64) for name in ("err_W", "err_mu", "err_Y", "err_eq", "err", "mu")]
)


class SolverState:
    """All the memory of one solve, allocated once: the iterate (W, mu, Y,
    Z), its iteration count k, the history and the buffers the steps write
    into. SolverState(schur) is the all-zero start the loop runs from.

    The history is an array of HISTORY_DTYPE whose first history_len rows
    are written; _record writes row k. It starts at 16 rows and, when full,
    is replaced by one a quarter larger, so it is the only part that grows
    with k: 48 B per row plus at most a quarter spare. The workspace is one
    zeroed (7, L) array, L the length of a consensus vector, whose rows hold
    Y, Z, the consensus map h, Y - h, Y - Pi(Y - Z), Z/sigma and the Z step,
    each seen through a ConsensusVector; the residuals take norms of the
    first five. pair0 (2, p, p) and pairi (2N, r, r) get the blocks of Y - Z
    in their first half and the next Y step's targets in their second; the
    vertex pair is projected into proj (2N, r, r).
    """

    def __init__(self, schur: SchurData):
        p, N, r = schur.p, schur.N, schur.r
        self.w = np.zeros((p, p))
        self.mu = 0.0
        self.k = 0
        self.history = np.empty(16, HISTORY_DTYPE)
        self.history_len = 0
        self.rows = np.zeros((7, p * p + N * r * r + 1))
        self.y, self.z, self.h, self.eq, self.gap, self.zs, self.step = (
            ConsensusVector(row, p, r) for row in self.rows
        )
        self.pair0 = np.empty((2, p, p))
        self.pairi, self.proj = np.empty((2, 2 * N, r, r))


@dataclass
class Solution:
    """Outcome of solve: W*, mu*, the gain and gamma estimate (None on a
    numerical failure), the status, the iteration count and the history:
    a view of the solve's HISTORY_DTYPE array, whose row k (history[k]["err"],
    a column as history["err"]) is iteration k's. It has iters + 1 rows, or
    none when row 0 never completes (e.g. a NaN start).
    """

    W_star: np.ndarray
    mu_star: float
    K_star: np.ndarray | None
    gamma_star: float | None
    status: str
    iters: int
    history: np.ndarray


def update_y(
    state: SolverState, zs: ConsensusVector, y0: np.ndarray, yi: np.ndarray
) -> ConsensusVector:
    """Assemble Y in the state's row from the cone projections of the
    shifted consensus blocks; return it.

    zs is Z/sigma; y0 and yi are the projections of W - Z0/sigma and of the
    vertex blocks G(W, mu) - Z_i/sigma that _record made one iteration
    early; only the scalar block is projected here.
    """
    y = state.y
    y.y0[...] = y0
    y.yi[...] = yi
    y.flat[-1] = kernels.project_nonneg(state.mu - zs.flat[-1])
    return y


def backward_mu(
    state: SolverState, schur: SchurData, config: SolverConfig, lin: np.ndarray,
    zs: ConsensusVector,
) -> float:
    """Closed-form mu update: the stationary point of the augmented Lagrangian
    in mu at fixed (Y, W, Z); expects state.y already advanced.

    lin is eval_lin_all at the sweep's W: the old W in the backward sweep,
    the new one in the forward sweep; zs is Z/sigma. The term <h0, h3> of
    the stationarity condition is absent: the two blocks have disjoint
    support.
    """
    sigma = config.sigma
    y, z = state.y, state.z
    inner = float(np.einsum("irs,rs->", lin - y.yi - zs.yi, schur.h3))
    num = 1.0 - sigma * inner + sigma * y.ylast + z.ylast
    return num / (sigma * (schur.N * schur.tr_h3_sq + 1.0))


# The forward sweep is the same update at the new W, under its own name so
# that the two sweeps can be timed apart.
forward_mu = backward_mu


def update_w(
    state: SolverState, schur: SchurData, mu_bar: float, zs: ConsensusVector
) -> np.ndarray:
    """Solve the vectorized W subproblem against the precomputed inverse;
    zs is Z/sigma.

    The right-hand side sums h1_i^T mid_i h2^T over the vertices, with
    mid_i = mu_bar h3 + h0 - Y_i - Z_i/sigma. As h2 = [I_n 0], only the
    first n columns of mid are needed, and the sum fills the first n
    columns of s. They are formed transposed, from the first n rows of Y_i
    and Z_i/sigma, which are exactly symmetric.
    """
    _, r, p = schur.h1.shape
    n = r - p
    mid_t = (mu_bar * schur.h3 + schur.h0)[:, :n].T - state.y.yi[:, :n, :] - zs.yi[:, :n, :]
    s = np.zeros((p, p))
    s[:, :n] = (schur.h1.transpose(0, 2, 1) @ mid_t.transpose(0, 2, 1)).sum(axis=0)
    t0 = -state.y.y0 - zs.y0 + s + s.T
    # vec stacks columns, so both reshapes are column-major
    w_vec = -kernels.spd_solve(schur.wsolve_inv, t0.reshape(-1, order="F"))
    return kernels.symmetrize(w_vec.reshape((p, p), order="F"))


def update_z(state: SolverState, config: SolverConfig, h: ConsensusVector) -> ConsensusVector:
    """Multiplier step along the primal residual, in the state's Z row;
    expects primals advanced, and returns Z.

    h is the consensus map at the state's (W, mu). Y, h and Z have exactly
    symmetric blocks, so the step has too and is not re-symmetrized.
    """
    step = np.subtract(state.y.flat, h.flat, out=state.step.flat)
    step *= config.tau * config.sigma
    state.z.flat += step
    return state.z


def residuals(
    state: SolverState, schur: SchurData, proj_y0: np.ndarray, proj_yi: np.ndarray
) -> tuple[float, float, float, float, float]:
    """Relative KKT residuals (err_W, err_mu, err_Y, err_eq) and their max.

    state.h must hold the consensus map at the state's (W, mu); proj_y0 and
    proj_yi are the projections of the p x p block and of the vertex blocks
    of Y - Z. Y - h and Y - Pi(Y - Z) are written into their rows, and the
    norms of Y, Z, h and those two rows come from one np.vecdot over the
    workspace. Raises NumericalError when an iterate or a residual is not
    finite.

    The gradient of vertex i, h1_i^T Z_i h2^T + h2 Z_i h1_i, is Q_i in the
    first n columns plus Q_i^T in the first n rows, Q_i = h1_i^T Z_i[:, :n]:
    h2 = [I_n 0]. Z_i is exactly symmetric, so Q_i reads Z_i[:n, :]^T.
    """
    y, z = state.y, state.z
    N, r, p = schur.h1.shape
    n = r - p
    q = schur.h1.transpose(0, 2, 1) @ z.yi[:, :n, :].transpose(0, 2, 1)
    per_vertex = np.zeros((N, p, p))
    per_vertex[:, :, :n] = q
    per_vertex[:, :n, :] += q.transpose(0, 2, 1)
    grad_w = z.y0 + per_vertex.sum(axis=0)
    vertex_norms = np.sqrt(np.add.reduce(per_vertex * per_vertex, axis=(1, 2)))
    den_w = 1.0 + _norm(z.y0) + float(vertex_norms.sum())
    err_w = _norm(grad_w) / den_w

    err_mu = abs(1.0 + z.ylast + float(np.einsum("irs,rs->", z.yi, schur.h3))) / 2.0

    gap = state.gap
    np.subtract(y.y0, proj_y0, out=gap.y0)
    np.subtract(y.yi, proj_yi, out=gap.yi)
    gap.flat[-1] = y.ylast - kernels.project_nonneg(y.ylast - z.ylast)
    np.subtract(y.flat, state.h.flat, out=state.eq.flat)
    # rows Y, Z, h, Y - h, Y - Pi(Y - Z)
    rows = state.rows[:5]
    norm_y, norm_z, norm_h, norm_eq, norm_gap = np.sqrt(np.vecdot(rows, rows)).tolist()
    err_y = norm_gap / (1.0 + norm_y + norm_z)
    err_eq = norm_eq / (1.0 + norm_y + norm_h)

    # an overflowed norm turns a residual into 0 or nan, so test the norms too
    if not all(map(math.isfinite, (norm_y, norm_z, norm_h, err_w, err_mu, err_y, err_eq))):
        raise NumericalError("non-finite iterate or residual")
    err = max(err_w, err_mu, err_y, err_eq)
    return err_w, err_mu, err_y, err_eq, err


def extract_gain(w: np.ndarray, n: int, m: int) -> np.ndarray:
    """Feedback gain W2^T W1^{-1} from the partition of a p x p W.

    The state block W1 must be positive definite, as the bounded real lemma
    needs; a W1 without a Cholesky factor raises ExtractionError.
    """
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
    try:
        np.linalg.cholesky(w1)
    except np.linalg.LinAlgError:
        raise ExtractionError("state block of W is not positive definite") from None
    return np.linalg.solve(w1.T, w2).T


# Breakdowns inside the loop: an eigensolver or linear solve that fails, or
# an iterate that is no longer finite (the problem data were checked).
_BREAKDOWNS = (np.linalg.LinAlgError, InvalidInputError, NumericalError, SingularSystemError)


def _write_hmap(state: SolverState, schur: SchurData, lin: np.ndarray) -> None:
    """Write the consensus map (W, all vertex constraint blocks, mu) at the
    state's (W, mu) into state.h; lin is eval_lin_all(schur, state.w)."""
    h = state.h
    h.y0[...] = state.w
    h.yi[...] = eval_g_all(schur, lin, state.mu)
    h.flat[-1] = state.mu


def _record(state: SolverState, schur: SchurData, k: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Write history row k; return its err, which the stopping rule
    compares, and the next Y step's projections of W - Z0/sigma and of
    G - Z/sigma.

    The state's pair0 and pairi get the blocks of Y - Z in their first half
    and the targets in their second. Each pair is projected in one call,
    the vertex pair into state.proj, and a breakdown raises before row k is
    written.
    """
    y, z, zs = state.y, state.z, state.zs
    pair0, pairi = state.pair0, state.pairi
    n = len(y.yi)
    np.subtract(y.y0, z.y0, out=pair0[0])
    np.subtract(state.w, zs.y0, out=pair0[1])
    np.subtract(y.yi, z.yi, out=pairi[:n])
    np.subtract(state.h.yi, zs.yi, out=pairi[n:])
    proj0 = kernels.project_psd(pair0)
    proji = kernels.project_psd_stack(pairi, out=state.proj)
    err_w, err_mu, err_y, err_eq, err = residuals(state, schur, proj0[0], proji[:n])
    if k == len(state.history):
        grown = np.empty(k * 5 // 4, HISTORY_DTYPE)
        grown[:k] = state.history
        state.history = grown
    state.history[k] = (err_w, err_mu, err_y, err_eq, err, state.mu)
    state.k = k
    state.history_len = k + 1
    return err, proj0[1], proji[n:]


def solve(schur: SchurData, config: SolverConfig) -> Solution:
    """Run the ADMM loop from the all-zero point until err < eps or the
    iteration cap.

    The residuals at the initial point are recorded as history row k = 0 but
    the stopping rule is only evaluated after full iterations. On an
    eigensolver or linear-solve breakdown, or a non-finite iterate, the
    history ends at the last complete row and the status is
    numerical-failure. Overflow inside the loop is such a breakdown, caught
    by the finite checks rather than reported as a floating-point warning.
    """
    state = SolverState(schur)
    status = MAX_ITERS
    zs = state.zs
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            lin = eval_lin_all(schur, state.w)
            np.divide(state.z.flat, config.sigma, out=zs.flat)
            _write_hmap(state, schur, lin)
            _, y0_next, yi_next = _record(state, schur, 0)
            for k in range(1, config.max_iters + 1):
                update_y(state, zs, y0_next, yi_next)
                mu_bar = backward_mu(state, schur, config, lin, zs)
                state.w = update_w(state, schur, mu_bar, zs)
                lin = eval_lin_all(schur, state.w)
                state.mu = forward_mu(state, schur, config, lin, zs)
                _write_hmap(state, schur, lin)
                update_z(state, config, state.h)
                np.divide(state.z.flat, config.sigma, out=zs.flat)
                err, y0_next, yi_next = _record(state, schur, k)
                if err < config.eps:
                    status = CONVERGED
                    break
    except _BREAKDOWNS:
        status = NUMERICAL_FAILURE

    if status == CONVERGED and state.mu <= 0.0:
        # mu stuck at the cone boundary: gamma = 1/sqrt(mu) is undefined
        status = NUMERICAL_FAILURE
    # a failed run has no gain or gamma estimate, whatever W and mu it ended at
    gain = gamma = None
    if status != NUMERICAL_FAILURE:
        try:
            gain = extract_gain(state.w, schur.n, schur.m)
        except ExtractionError:
            if status == CONVERGED:
                status = NUMERICAL_FAILURE
    if status != NUMERICAL_FAILURE and state.mu > 0.0:
        gamma = 1.0 / math.sqrt(state.mu)
    return Solution(
        W_star=state.w,
        mu_star=state.mu,
        K_star=gain,
        gamma_star=gamma,
        status=status,
        iters=state.k,
        history=state.history[: state.history_len],
    )
