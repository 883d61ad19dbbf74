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

    wsolve is the p^2 x p^2 SPD matrix of the vectorized W subproblem
    (identity plus four Kronecker terms summed over the vertices), assembled
    in closed form; wsolve_inv is its inverse, computed once since the
    operator does not change across iterations. The minimum eigenvalue of
    wsolve is at least 1 because of the identity term.
    """

    h0: np.ndarray  # (r, r)
    h1: np.ndarray  # (N, r, p)
    h2: np.ndarray  # (p, r)
    h3: np.ndarray  # (r, r)
    p: int
    r: int
    N: int
    wsolve: np.ndarray  # (p^2, p^2)
    wsolve_inv: np.ndarray  # (p^2, p^2)
    tr_h3_sq: float


def build_schur(ext: ExtendedMatrices) -> SchurData:
    """Build the Schur-form operator matrices and invert the W-solve matrix.

    With C_i = h2 h1_i and S = sum_i h1_i^T h1_i, the vertex sum of the four
    Kronecker terms is kron(h2 h2^T, S) + kron(S, h2 h2^T) + X + X^T, where
    X = sum_i kron(C_i, C_i^T) is one einsum over the (N, p, p) stack.
    """
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

    h2h2t = h2 @ h2.T
    s = (h1.transpose(0, 2, 1) @ h1).sum(axis=0)
    c = h2 @ h1
    cross = np.einsum("iab,idc->acbd", c, c).reshape(p * p, p * p)
    wsolve = np.eye(p * p) + kernels.kron(h2h2t, s) + kernels.kron(s, h2h2t) + cross + cross.T
    wsolve = kernels.symmetrize(wsolve)
    return SchurData(
        h0=h0,
        h1=h1,
        h2=h2,
        h3=h3,
        p=p,
        r=r,
        N=N,
        wsolve=wsolve,
        wsolve_inv=kernels.spd_factor(wsolve),
        tr_h3_sq=float(np.trace(h3 @ h3)),
    )


def eval_theta1(ext: ExtendedMatrices, i: int, w: np.ndarray, mu: float) -> np.ndarray:
    """Quadratic stability block for vertex i at (W, mu); feasible iff <= 0.

    Computed from the partition blocks of W: with W1 the state block and W2
    the cross block,

        A_i W1 - B2_i W2^T + W1 A_i^T - W2 B2_i^T
        + W1 C^T C W1 + W2 D^T D W2^T + mu B1 B1^T.
    """
    n = ext.n
    ai = ext.F[i, :n, :n]
    b2i = -ext.F[i, :n, n:]
    w1 = w[:n, :n]
    w2 = w[:n, n:]
    ctc = ext.R[:n, :n]
    dtd = ext.R[n:, n:]
    b1b1t = ext.Q[:n, :n]
    out = (
        ai @ w1
        - b2i @ w2.T
        + w1 @ ai.T
        - w2 @ b2i.T
        + w1 @ ctc @ w1
        + w2 @ dtd @ w2.T
        + mu * b1b1t
    )
    return kernels.symmetrize(out)


def eval_g(schur: SchurData, i: int, w: np.ndarray, mu: float) -> np.ndarray:
    """Schur-form constraint block for vertex i; feasible iff >= 0."""
    lin = schur.h1[i] @ w @ schur.h2 + schur.h2.T @ w @ schur.h1[i].T
    return kernels.symmetrize(lin + mu * schur.h3 + schur.h0)


def eval_lin_all(schur: SchurData, w: np.ndarray) -> np.ndarray:
    """The part of every constraint block that is linear in W, (N, r, r).

    Written with the second product transposing the operator factors rather
    than W itself, so the expression stays the exact linearization even when
    probed with a nonsymmetric W (finite-difference tests rely on this); for
    symmetric W the two readings coincide.
    """
    lin = schur.h1 @ w @ schur.h2
    return lin + (schur.h2.T @ w) @ schur.h1.transpose(0, 2, 1)


def eval_g_all(
    schur: SchurData, w: np.ndarray, mu: float, lin: np.ndarray | None = None
) -> np.ndarray:
    """All N Schur-form constraint blocks as one (N, r, r) stack.

    lin, when given, must be eval_lin_all(schur, w); the solver computes it
    once per iteration and shares it with the scalar mu update.
    """
    if lin is None:
        lin = eval_lin_all(schur, w)
    return lin + mu * schur.h3 + schur.h0


def wsolve_apply(schur: SchurData, x: np.ndarray) -> np.ndarray:
    """Apply the (un-vectorized) W-solve operator to a symmetric matrix.

    Reference implementation used to validate the Kronecker assembly of
    wsolve: returns X plus the vertex sum of the sandwich terms.
    """
    h1, h2 = schur.h1, schur.h2
    h1t = h1.transpose(0, 2, 1)
    lin = h1 @ x @ h2 + (h2.T @ x) @ h1t
    out = x + (h1t @ lin @ h2.T + h2 @ lin @ h1).sum(axis=0)
    return out
