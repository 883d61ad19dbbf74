"""Test-only reference implementations.

These are the single-vertex and unvectorized forms of the program's maps,
the augmented Lagrangian used for finite-difference stationarity checks,
the bisection that certified_attenuation's closed form replaced, and the
one-call forms of the solver's steps: each rebuilds from the state the
shared inputs that solve computes once per iteration and passes them on.
"""

import math

from hinfgcc import kernels, solver
from hinfgcc.problem import eval_lin_all, w_operator


# --- program maps --------------------------------------------------------------


def eval_g(schur, i, w, mu):
    """Schur-form constraint block for vertex i; feasible iff >= 0."""
    lin = schur.h1[i] @ w @ schur.h2 + schur.h2.T @ w @ schur.h1[i].T
    return kernels.symmetrize(lin + mu * schur.h3 + schur.h0)


def eval_theta1(ext, i, w, mu):
    """Quadratic stability block for vertex i at (W, mu); feasible iff <= 0."""
    n = ext.n
    ai = ext.F[i, :n, :n]
    b2i = -ext.F[i, :n, n:]
    w1 = w[:n, :n]
    w2 = w[:n, n:]
    out = (
        ai @ w1
        - b2i @ w2.T
        + w1 @ ai.T
        - w2 @ b2i.T
        + w1 @ ext.R[:n, :n] @ w1
        + w2 @ ext.R[n:, n:] @ w2.T
        + mu * ext.Q[:n, :n]
    )
    return kernels.symmetrize(out)


def wsolve(schur):
    """The p^2 x p^2 W-solve matrix whose inverse build_schur keeps."""
    return w_operator(schur.h1, schur.h2)


def wsolve_apply(schur, x):
    """Apply the (un-vectorized) W-solve operator to a symmetric matrix:
    X plus the vertex sum of the sandwich terms."""
    h1, h2 = schur.h1, schur.h2
    h1t = h1.transpose(0, 2, 1)
    lin = h1 @ x @ h2 + (h2.T @ x) @ h1t
    return x + (h1t @ lin @ h2.T + h2 @ lin @ h1).sum(axis=0)


def lagrangian(schur, cfg, y, w, mu, z):
    """Smooth part of the augmented Lagrangian (cone indicator omitted).

    The indicator of the cone is constant in (W, mu), so this value is the
    right objective for finite-difference stationarity checks of the sweep
    updates.
    """
    sigma = cfg.sigma
    h = solver.apply_hmap(schur, w, mu, eval_lin_all(schur, w))
    shifted = y.flat - h.flat + z.flat / sigma
    return -mu + 0.5 * sigma * float(shifted @ shifted) - float(z.flat @ z.flat) / (2.0 * sigma)


def certified_attenuation(ext, w, bisection_steps=120):
    """Largest certified mu by bisection on the vertexwise check, with gamma.

    The stability block is affine and monotone nondecreasing in mu, so the
    largest feasible mu is bracketed and bisected; the feasible end of the
    bracket is returned. None when W1 is not positive definite or when even
    mu -> 0+ is infeasible.
    """
    n = ext.n
    if not float(kernels.sym_eig(w[:n, :n]).eigenvalues[-1]) > 0.0:
        return None

    def worst(mu):
        return max(
            float(kernels.sym_eig(eval_theta1(ext, i, w, mu)).eigenvalues[0])
            for i in range(ext.N)
        )

    if worst(0.0) > 0.0:
        return None
    hi = 1.0
    while worst(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e16:
            break
    lo = 0.0
    for _ in range(bisection_steps):
        mid = 0.5 * (lo + hi)
        if worst(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    if lo <= 0.0:
        return None
    return lo, 1.0 / math.sqrt(lo)


# --- one-call forms of the solver's steps ------------------------------------------


def consensus_map(schur, state):
    """The consensus map h at the state's (W, mu)."""
    return solver.apply_hmap(schur, state.w, state.mu, eval_lin_all(schur, state.w))


def update_y(state, schur, cfg):
    """solver.update_y with the target projected from the state."""
    target = consensus_map(schur, state).yi - state.z.yi / cfg.sigma
    return solver.update_y(state, schur, cfg, kernels.project_psd_stack(target))


def backward_mu(state, schur, cfg):
    """solver.backward_mu at the state's W."""
    return solver.backward_mu(state, schur, cfg, eval_lin_all(schur, state.w))


def forward_mu(state, schur, cfg, w_new):
    """solver.forward_mu at a new W."""
    return solver.forward_mu(state, schur, cfg, eval_lin_all(schur, w_new))


def update_z(state, schur, cfg):
    """solver.update_z with the consensus map evaluated at the state."""
    return solver.update_z(state, schur, cfg, consensus_map(schur, state))


def residuals(state, schur):
    """solver.residuals with its shared inputs rebuilt from the state."""
    proj_yi = kernels.project_psd_stack(state.y.yi - state.z.yi)
    return solver.residuals(state, schur, consensus_map(schur, state), proj_yi)
