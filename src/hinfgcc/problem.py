"""Conic-program data built from the plant and its vertex set.

The synthesis problem is posed over a symmetric p x p variable W (p = m + n)
and a scalar mu = 1/gamma^2. Feasibility of a pair (W, mu) means the n x n
quadratic stability block is negative semidefinite at every vertex; the
equivalent Schur-complement form turns each of those quadratic constraints
into a linear r x r semidefinite constraint (r = m + 2n) built from constant
operator matrices h0, h1[i], h2, h3, with the vertex stacks written into h1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionError
from .model import PlantModel, VertexSet


@dataclass(frozen=True)
class ExtendedMatrices:
    """The vertex set's stacks A and B2 with the weight blocks of the
    synthesis program, B1B1t = B1 B1^T, CtC = C^T C and DtD = D^T D."""

    A: np.ndarray  # (N, n, n)
    B2: np.ndarray  # (N, n, m)
    B1B1t: np.ndarray  # (n, n)
    CtC: np.ndarray  # (n, n)
    DtD: np.ndarray  # (m, m)

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.B2.shape[2]

    @property
    def p(self) -> int:
        return self.n + self.m

    @property
    def N(self) -> int:
        return self.A.shape[0]


def build_extended(plant: PlantModel, vset: VertexSet) -> ExtendedMatrices:
    """The vertex stacks of vset together with the plant's weight blocks."""
    return ExtendedMatrices(
        A=vset.A,
        B2=vset.B2,
        B1B1t=plant.B1 @ plant.B1.T,
        CtC=plant.C.T @ plant.C,
        DtD=plant.D.T @ plant.D,
    )


@dataclass(frozen=True)
class SchurData:
    """Constant operator matrices of the Schur-form conic program.

    The sizes are those of the h1 stack, (N, r, p) with r = m + 2n and
    p = m + n. wsolve_inv is the inverse of w_operator(h1, h2), the SPD
    matrix of the vectorized W subproblem, computed once.

    Three of the operators are sparse in a fixed pattern that the per-vertex
    maps (eval_lin_all, eval_g_all and the solver's W step and residuals)
    use instead of multiplying by them: h2 is the selector [I_n 0], so a
    product with h2 or h2^T is a column or row slice; h0 is zero outside
    its trailing p x p block, the identity; h3 is zero outside its leading
    n x n block, -B1 B1^T. The structured forms are byte-equal to the dense
    products (tests compare them with the dense formulas).
    """

    h0: np.ndarray  # (r, r)
    h1: np.ndarray  # (N, r, p)
    h2: np.ndarray  # (p, r)
    h3: np.ndarray  # (r, r)
    wsolve_inv: np.ndarray  # (p^2, p^2)
    tr_h3_sq: float

    @property
    def N(self) -> int:
        return self.h1.shape[0]

    @property
    def r(self) -> int:
        return self.h1.shape[1]

    @property
    def p(self) -> int:
        return self.h1.shape[2]

    @property
    def n(self) -> int:
        return self.r - self.p

    @property
    def m(self) -> int:
        return 2 * self.p - self.r


def w_operator(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """The p^2 x p^2 SPD matrix of the vectorized W subproblem.

    It is the identity plus four Kronecker terms summed over the vertices,
    so its minimum eigenvalue is at least 1. With C_i = h2 h1_i and
    S = sum_i h1_i^T h1_i, that sum is kron(h2 h2^T, S) + kron(S, h2 h2^T)
    + X + X^T, where X = sum_i kron(C_i, C_i^T) is one einsum over the
    (N, p, p) stack.
    """
    p = h2.shape[0]
    h2h2t = h2 @ h2.T
    s = (h1.transpose(0, 2, 1) @ h1).sum(axis=0)
    c = h2 @ h1
    cross = np.einsum("iab,idc->acbd", c, c).reshape(p * p, p * p)
    op = np.eye(p * p) + np.kron(h2h2t, s) + np.kron(s, h2h2t) + cross + cross.T
    return kernels.symmetrize(op)


def build_schur(ext: ExtendedMatrices) -> SchurData:
    """Build the Schur-form operator matrices and invert the W-solve matrix;
    h1[i] = [[-A_i, B2_i], [R^1/2]] with R = blockdiag(C^T C, D^T D)."""
    n, m, p, N = ext.n, ext.m, ext.p, ext.N
    r = m + 2 * n

    h0 = np.zeros((r, r))
    h0[n:, n:] = np.eye(p)
    h2 = np.zeros((p, r))
    h2[:n, :n] = np.eye(n)
    h3 = np.zeros((r, r))
    h3[:n, :n] = -ext.B1B1t
    weight = np.zeros((p, p))
    weight[:n, :n] = ext.CtC
    weight[n:, n:] = ext.DtD
    h1 = np.empty((N, r, p))
    h1[:, :n, :n] = -ext.A
    h1[:, :n, n:] = ext.B2
    h1[:, n:, :] = kernels.sym_sqrt(weight)
    return SchurData(
        h0=h0,
        h1=h1,
        h2=h2,
        h3=h3,
        wsolve_inv=kernels.spd_factor(w_operator(h1, h2)),
        tr_h3_sq=float(np.trace(h3 @ h3)),
    )


def eval_theta1(ext: ExtendedMatrices, w: np.ndarray, mu: float) -> np.ndarray:
    """Quadratic stability blocks of every vertex at (W, mu), (N, n, n);
    (W, mu) is feasible at vertex i iff block i is <= 0.

    Computed from the partition blocks of W: with W1 the state block and W2
    the cross block, block i is

        A_i W1 - B2_i W2^T + W1 A_i^T - W2 B2_i^T
        + W1 C^T C W1 + W2 D^T D W2^T + mu B1 B1^T.

    Entries that overflow come back as inf or nan, without a warning; the
    eigenvalue kernels reject them. A W that is not p x p raises
    DimensionError.
    """
    p, n = ext.p, ext.n
    if w.shape != (p, p):
        raise DimensionError(f"W must be {p}x{p}, got {w.shape}")
    a, b2, w1, w2 = ext.A, ext.B2, w[:n, :n], w[:n, n:]
    with np.errstate(over="ignore", invalid="ignore"):
        out = (
            a @ w1
            - b2 @ w2.T
            + w1 @ a.transpose(0, 2, 1)
            - w2 @ b2.transpose(0, 2, 1)
            + w1 @ ext.CtC @ w1
            + w2 @ ext.DtD @ w2.T
            + mu * ext.B1B1t
        )
        return kernels.symmetrize(out)


def eval_lin_all(schur: SchurData, w: np.ndarray) -> np.ndarray:
    """The part of every constraint block that is linear in W, (N, r, r):
    h1_i W h2 + (h2^T W) h1_i^T for each vertex i.

    As h2 = [I_n 0], the first term is h1_i W[:, :n] in the first n columns
    and the second is (h1_i W[:n, :]^T)^T in the first n rows, so both come
    from one (N r, p) x (p, 2n) product of the stacked h1 with
    [W[:, :n] | W[:n, :]^T], and one transpose-add; the result is byte-equal
    to the dense products. The second term is formed from W[:n, :] rather
    than as the transpose of the first, so the expression stays the exact
    linearization even when probed with a nonsymmetric W (finite-difference
    tests rely on this); for symmetric W the two readings coincide.
    """
    N, r, p = schur.h1.shape
    n = r - p
    cols = np.concatenate((w[:, :n], w[:n, :].T), axis=1)
    prod = (schur.h1.reshape(N * r, p) @ cols).reshape(N, r, 2 * n)
    lin = np.zeros((N, r, r))
    lin[:, :, :n] = prod[:, :, :n]
    lin[:, :n, :] += prod[:, :, n:].transpose(0, 2, 1)
    return lin


def eval_g_all(schur: SchurData, lin: np.ndarray, mu: float) -> np.ndarray:
    """All N Schur-form constraint blocks as one (N, r, r) stack, from their
    W-linear part lin = eval_lin_all(schur, w); block i is feasible iff >= 0.

    The constant mu h3 + h0 is formed once and added in one pass; h3 and h0
    have disjoint supports, so this is byte-equal to adding them one after
    the other.
    """
    return lin + (mu * schur.h3 + schur.h0)
