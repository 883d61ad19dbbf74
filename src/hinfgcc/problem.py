"""Conic-program data built from the plant and its vertex set.

The synthesis problem is posed over a symmetric p x p variable W (p = m + n)
and a scalar mu = 1/gamma^2. Feasibility of a pair (W, mu) means the n x n
quadratic stability block is negative semidefinite at every vertex; the
equivalent Schur-complement form turns each of those quadratic constraints
into a linear r x r semidefinite constraint (r = m + 2n) built from constant
operator matrices h0, h1[i], h2, h3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import PlantModel, VertexSet


@dataclass(frozen=True)
class ExtendedMatrices:
    """Vertexwise extended system matrices and the shared weights.

    F[i] stacks [[A_i, -B2_i], [0, 0]]; Q and R collect the disturbance and
    output weights blockdiagonally; rhalf is the symmetric square root of R;
    V = [I_n 0] selects the state block.
    """

    F: np.ndarray  # (N, p, p)
    Q: np.ndarray  # (p, p)
    R: np.ndarray  # (p, p)
    rhalf: np.ndarray  # (p, p)
    V: np.ndarray  # (n, p)
    n: int
    m: int

    @property
    def p(self) -> int:
        return self.n + self.m

    @property
    def N(self) -> int:
        return self.F.shape[0]


def build_extended(plant: PlantModel, vset: VertexSet) -> ExtendedMatrices:
    """Assemble the extended matrices for every vertex of the polytope."""
    n, m = plant.n, plant.m
    p = n + m
    F = np.zeros((vset.N, p, p))
    for i, (ai, bi) in enumerate(vset):
        F[i, :n, :n] = ai
        F[i, :n, n:] = -bi
    Q = np.zeros((p, p))
    Q[:n, :n] = plant.B1 @ plant.B1.T
    R = np.zeros((p, p))
    R[:n, :n] = plant.C.T @ plant.C
    R[n:, n:] = plant.D.T @ plant.D
    rhalf = kernels.sym_sqrt(R)
    V = np.hstack([np.eye(n), np.zeros((n, m))])
    return ExtendedMatrices(F=F, Q=Q, R=R, rhalf=rhalf, V=V, n=n, m=m)


@dataclass(frozen=True)
class SchurData:
    """Constant operator matrices of the Schur-form conic program.

    wsolve_inv is the inverse of w_operator(h1, h2), the SPD matrix of the
    vectorized W subproblem, computed once since the operator does not
    change across iterations.
    """

    h0: np.ndarray  # (r, r)
    h1: np.ndarray  # (N, r, p)
    h2: np.ndarray  # (p, r)
    h3: np.ndarray  # (r, r)
    p: int
    r: int
    N: int
    wsolve_inv: np.ndarray  # (p^2, p^2)
    tr_h3_sq: float


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
    op = np.eye(p * p) + kernels.kron(h2h2t, s) + kernels.kron(s, h2h2t) + cross + cross.T
    return kernels.symmetrize(op)


def build_schur(ext: ExtendedMatrices) -> SchurData:
    """Build the Schur-form operator matrices and invert the W-solve matrix."""
    n, m, p, N = ext.n, ext.m, ext.p, ext.N
    r = m + 2 * n

    h0 = np.zeros((r, r))
    h0[n:, n:] = np.eye(p)
    h2 = np.hstack([ext.V.T, np.zeros((p, p))])
    h3 = np.zeros((r, r))
    h3[:n, :n] = -(ext.V @ ext.Q @ ext.V.T)
    h1 = np.empty((N, r, p))
    h1[:, :n, :] = -(ext.V @ ext.F)
    h1[:, n:, :] = ext.rhalf
    return SchurData(
        h0=h0,
        h1=h1,
        h2=h2,
        h3=h3,
        p=p,
        r=r,
        N=N,
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
    eigenvalue kernels reject them.
    """
    n = ext.n
    a = ext.F[:, :n, :n]
    b2 = -ext.F[:, :n, n:]
    w1 = w[:n, :n]
    w2 = w[:n, n:]
    ctc = ext.R[:n, :n]
    dtd = ext.R[n:, n:]
    b1b1t = ext.Q[:n, :n]
    with np.errstate(over="ignore", invalid="ignore"):
        out = (
            a @ w1
            - b2 @ w2.T
            + w1 @ a.transpose(0, 2, 1)
            - w2 @ b2.transpose(0, 2, 1)
            + w1 @ ctc @ w1
            + w2 @ dtd @ w2.T
            + mu * b1b1t
        )
        return kernels.symmetrize(out)


def eval_lin_all(schur: SchurData, w: np.ndarray) -> np.ndarray:
    """The part of every constraint block that is linear in W, (N, r, r).

    Written with the second product transposing the operator factors rather
    than W itself, so the expression stays the exact linearization even when
    probed with a nonsymmetric W (finite-difference tests rely on this); for
    symmetric W the two readings coincide.
    """
    lin = schur.h1 @ w @ schur.h2
    return lin + (schur.h2.T @ w) @ schur.h1.transpose(0, 2, 1)


def eval_g_all(schur: SchurData, lin: np.ndarray, mu: float) -> np.ndarray:
    """All N Schur-form constraint blocks as one (N, r, r) stack, from their
    W-linear part lin = eval_lin_all(schur, w); block i is feasible iff >= 0.
    """
    return lin + mu * schur.h3 + schur.h0
