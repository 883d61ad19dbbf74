"""Test-only reference implementations.

These are the single-vertex and unvectorized forms of the program's maps,
the augmented Lagrangian used for finite-difference stationarity checks,
the dense products with the sparse operators h0, h2 and h3 that the
per-vertex maps replaced by slices of their supports, the bisection that
certified_attenuation's closed form replaced, the
padded extended system and per-vertex enumeration loop that the vertex
stacks replaced, the per-vertex norm check as it was before it called the
LAPACK gufuncs directly, and the one-call forms of the solver's steps: each
rebuilds from the state the shared inputs that solve computes once per
iteration (the consensus map among them, as a new vector) and passes them
on, and a step that writes into the state's workspace runs on a copy of
the state.
"""

import math
from typing import NamedTuple

import numpy as np

from hinfgcc import kernels, solver, verify
from hinfgcc.errors import NumericalError
from hinfgcc.problem import eval_g_all, eval_lin_all, w_operator


# --- program maps --------------------------------------------------------------


def eval_g(schur, i, w, mu):
    """Schur-form constraint block for vertex i; feasible iff >= 0."""
    lin = schur.h1[i] @ w @ schur.h2 + schur.h2.T @ w @ schur.h1[i].T
    return kernels.symmetrize(lin + mu * schur.h3 + schur.h0)


def eval_theta1(ext, i, w, mu):
    """Quadratic stability block for vertex i at (W, mu); feasible iff <= 0."""
    n = ext.n
    ai = ext.A[i]
    b2i = ext.B2[i]
    w1 = w[:n, :n]
    w2 = w[:n, n:]
    out = (
        ai @ w1
        - b2i @ w2.T
        + w1 @ ai.T
        - w2 @ b2i.T
        + w1 @ ext.CtC @ w1
        + w2 @ ext.DtD @ w2.T
        + mu * ext.B1B1t
    )
    return kernels.symmetrize(out)


def wsolve(schur):
    """The p^2 x p^2 W-solve matrix whose inverse build_schur keeps."""
    return w_operator(schur.h1, schur.h2)


def wsolve_apply(schur, x):
    """Apply the (un-vectorized) W-solve operator to a symmetric matrix:
    X plus the vertex sum of the sandwich terms."""
    return x + vertex_grads_dense(schur, lin_dense(schur, x)).sum(axis=0)


# --- dense forms of the per-vertex operators ------------------------------------
#
# The maps as products with the full h0, h2 and h3, the way eval_lin_all,
# eval_g_all, solver.update_w and solver.residuals computed them before they
# used that h2 is the selector [I_n 0] and that h0 and h3 vanish outside one
# diagonal block each. The structured forms must give the same bytes.


def lin_dense(schur, w):
    """h1_i W h2 + (h2^T W) h1_i^T for every vertex, (N, r, r)."""
    return schur.h1 @ w @ schur.h2 + (schur.h2.T @ w) @ schur.h1.transpose(0, 2, 1)


def g_dense(schur, lin, mu):
    """The constraint blocks from their W-linear part, adding mu h3 and h0
    one after the other."""
    return lin + mu * schur.h3 + schur.h0


def w_rhs_dense(schur, mid):
    """sum_i h1_i^T mid_i h2^T, (p, p)."""
    return (schur.h1.transpose(0, 2, 1) @ mid @ schur.h2.T).sum(axis=0)


def vertex_grads_dense(schur, zi):
    """h1_i^T Z_i h2^T + h2 Z_i h1_i for every vertex, (N, p, p)."""
    return schur.h1.transpose(0, 2, 1) @ zi @ schur.h2.T + schur.h2 @ zi @ schur.h1


def update_w_dense(state, schur, mu_bar, zs):
    """solver.update_w with the full mid and w_rhs_dense."""
    mid = mu_bar * schur.h3 + schur.h0 - state.y.yi - zs.yi
    s = w_rhs_dense(schur, mid)
    t0 = -state.y.y0 - zs.y0 + s + s.T
    w_vec = -kernels.spd_solve(schur.wsolve_inv, t0.reshape(-1, order="F"))
    return kernels.symmetrize(w_vec.reshape((schur.p, schur.p), order="F"))


def err_w_dense(state, schur):
    """The err_W residual of solver.residuals from vertex_grads_dense."""
    z = state.z
    per_vertex = vertex_grads_dense(schur, z.yi)
    grad_w = z.y0 + per_vertex.sum(axis=0)
    vertex_norms = np.sqrt(np.add.reduce(per_vertex * per_vertex, axis=(1, 2)))
    den_w = 1.0 + math.sqrt(float(z.y0.ravel() @ z.y0.ravel())) + float(vertex_norms.sum())
    return math.sqrt(float(grad_w.ravel() @ grad_w.ravel())) / den_w


def lagrangian(schur, cfg, y, w, mu, z):
    """Smooth part of the augmented Lagrangian (cone indicator omitted).

    The indicator of the cone is constant in (W, mu), so this value is the
    right objective for finite-difference stationarity checks of the sweep
    updates.
    """
    sigma = cfg.sigma
    h = apply_hmap(schur, w, mu)
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


# --- the padded extended system and the per-vertex enumeration loop -------------
#
# Frozen copies of the layout the package used before the vertex systems were
# stored once as two stacks: F[i] = [[A_i, -B2_i], [0, 0]] (N, p, p), the p x p
# weights Q = blockdiag(B1 B1^T, 0) and R = blockdiag(C^T C, D^T D), the
# square root rhalf of R and the selector V = [I_n 0], from which the Schur
# blocks were sliced. build_schur and enumerate_vertices must reproduce them.


def enumerate_vertices_loop(plant, spec):
    """Vertex pairs (A_i, B2_i) built one vertex at a time, in the
    documented order; the spec is assumed valid."""
    if spec.is_explicit:
        return [(a.copy(), b.copy()) for a, b in spec.vertex_list]
    da = spec.delta_a if spec.delta_a is not None else np.zeros_like(plant.A)
    db = spec.delta_b2 if spec.delta_b2 is not None else np.zeros_like(plant.B2)
    entries = []
    for mat_key, nominal, frac in (("A", plant.A, da), ("B2", plant.B2, db)):
        for i in range(nominal.shape[0]):
            for j in range(nominal.shape[1]):
                if frac[i, j] > 0.0 and nominal[i, j] != 0.0:
                    entries.append((mat_key, i, j, frac[i, j]))
    vertices = []
    for index in range(2 ** len(entries)):
        ai = plant.A.copy()
        bi = plant.B2.copy()
        for bit, (mat_key, i, j, frac) in enumerate(entries):
            factor = 1.0 + frac if (index >> bit) & 1 else 1.0 - frac
            if mat_key == "A":
                ai[i, j] = plant.A[i, j] * factor
            else:
                bi[i, j] = plant.B2[i, j] * factor
        vertices.append((ai, bi))
    return vertices


class PaddedSystem(NamedTuple):
    F: np.ndarray  # (N, p, p)
    Q: np.ndarray  # (p, p)
    R: np.ndarray  # (p, p)
    rhalf: np.ndarray  # (p, p)
    V: np.ndarray  # (n, p)


def padded_extended(plant, vertices):
    """The padded extended system of a plant and its vertex pairs."""
    n, m = plant.n, plant.m
    p = n + m
    F = np.zeros((len(vertices), p, p))
    for i, (ai, bi) in enumerate(vertices):
        F[i, :n, :n] = ai
        F[i, :n, n:] = -bi
    Q = np.zeros((p, p))
    Q[:n, :n] = plant.B1 @ plant.B1.T
    R = np.zeros((p, p))
    R[:n, :n] = plant.C.T @ plant.C
    R[n:, n:] = plant.D.T @ plant.D
    V = np.hstack([np.eye(n), np.zeros((n, m))])
    return PaddedSystem(F, Q, R, kernels.sym_sqrt(R), V)


def padded_schur(padded):
    """(h0, h1, h2, h3, wsolve_inv, tr_h3_sq) sliced out of the padded system."""
    n, p = padded.V.shape
    m = p - n
    r = m + 2 * n
    h0 = np.zeros((r, r))
    h0[n:, n:] = np.eye(p)
    h2 = np.hstack([padded.V.T, np.zeros((p, p))])
    h3 = np.zeros((r, r))
    h3[:n, :n] = -(padded.V @ padded.Q @ padded.V.T)
    h1 = np.empty((padded.F.shape[0], r, p))
    h1[:, :n, :] = -(padded.V @ padded.F)
    h1[:, n:, :] = padded.rhalf
    wsolve_inv = kernels.spd_factor(w_operator(h1, h2))
    return h0, h1, h2, h3, wsolve_inv, float(np.trace(h3 @ h3))


# --- the per-vertex norm check through np.linalg -------------------------------
#
# Frozen copies of stability_margin and hinf_sweep from before the closed loop
# kept its poles and kernels called the LAPACK gufuncs directly: the poles are
# computed twice, the Hamiltonian is assembled by np.block, and every solve,
# SVD and eigenvalue call goes through np.linalg. The margin, peak and peak
# frequency of the program must equal these bit for bit.


def stability_margin(cl):
    """Spectral abscissa of A_c."""
    return float(np.linalg.eigvals(cl.ac).real.max())


def gain_grid(cl, omegas):
    """Response gain at each frequency; NaN where the pencil is singular."""
    n = cl.ac.shape[0]
    pencil = 1j * omegas[:, None, None] * np.eye(n) - cl.ac
    rhs = np.broadcast_to(cl.b1, (omegas.size, *cl.b1.shape))
    try:
        resolvent = np.linalg.solve(pencil, rhs)
    except np.linalg.LinAlgError:
        out = np.full(omegas.size, np.nan)
        for k, omega in enumerate(omegas):
            try:
                h = np.linalg.solve(1j * omega * np.eye(n) - cl.ac, cl.b1)
            except np.linalg.LinAlgError:
                continue
            out[k] = float(np.linalg.svd(cl.cc @ h, compute_uv=False)[0])
        return out
    return np.linalg.svd(cl.cc @ resolvent, compute_uv=False)[:, 0]


def hinf_norm(cl, poles):
    """Level-set iteration for a Hurwitz loop: (attained peak, its frequency)."""
    ac, b1, cc = cl.ac, cl.b1, cl.cc
    bbt = b1 @ b1.T
    ctc = cc.T @ cc
    trial = np.concatenate(([0.0], np.abs(poles), np.abs(poles.imag)))
    gains = gain_grid(cl, trial)
    k = int(gains.argmax())
    best, best_freq = float(gains[k]), float(trial[k])
    if best == 0.0:
        return 0.0, 0.0
    for _ in range(verify._MAX_LEVEL_PASSES):
        gamma = (1.0 + 2.0 * verify.NORM_RTOL) * best
        ham = np.block([[ac, bbt / gamma**2], [-ctc, -ac.T]])
        eig = np.linalg.eigvals(ham)
        on_axis = np.abs(eig.real) < verify._IMAG_AXIS_TOL * np.abs(ham).max()
        crossings = np.sort(eig.imag[on_axis])
        if crossings.size == 0:
            return best, best_freq
        mids = np.abs(0.5 * (crossings[:-1] + crossings[1:]) if crossings.size > 1 else crossings)
        gains = gain_grid(cl, mids)
        k = int(gains.argmax())
        if not gains[k] > best:
            return best, best_freq
        best, best_freq = float(gains[k]), float(mids[k])
    raise NumericalError("H-infinity level-set iteration did not converge")


def hinf_sweep(cl):
    """(peak, peak_frequency) of a Hurwitz closed loop: its H-infinity norm."""
    poles = np.linalg.eigvals(cl.ac)
    assert poles.real.max() < 0, "a loop that is not Hurwitz has no H-infinity norm"
    return hinf_norm(cl, poles)


# --- one-call forms of the solver's steps ------------------------------------------


def apply_hmap(schur, w, mu):
    """The consensus map (W, all vertex constraint blocks, mu) as a new vector."""
    return solver.ConsensusVector(w, eval_g_all(schur, eval_lin_all(schur, w), mu), mu)


def consensus_map(schur, state):
    """The consensus map h at the state's (W, mu)."""
    return apply_hmap(schur, state.w, state.mu)


def _copy(state):
    """A state with the same iterate and a workspace of its own, for a step
    to write into, so that the caller's state keeps its pre-step values."""
    return solver.SolverState(w=state.w, mu=state.mu, y=state.y, z=state.z)


def _z_over_sigma(state, cfg):
    return state.z.like(state.z.flat / cfg.sigma)


def update_y(state, schur, cfg):
    """solver.update_y with both targets projected from the state."""
    zs = _z_over_sigma(state, cfg)
    target = consensus_map(schur, state).yi - zs.yi
    return solver.update_y(
        _copy(state), zs, kernels.project_psd(state.w - zs.y0), kernels.project_psd_stack(target)
    )


def backward_mu(state, schur, cfg):
    """solver.backward_mu at the state's W."""
    return solver.backward_mu(state, schur, cfg, eval_lin_all(schur, state.w), _z_over_sigma(state, cfg))


def update_w(state, schur, cfg, mu_bar):
    """solver.update_w with Z/sigma formed from the state."""
    return solver.update_w(state, schur, mu_bar, _z_over_sigma(state, cfg))


def forward_mu(state, schur, cfg, w_new):
    """solver.forward_mu at a new W."""
    return solver.forward_mu(state, schur, cfg, eval_lin_all(schur, w_new), _z_over_sigma(state, cfg))


def update_z(state, schur, cfg):
    """solver.update_z with the consensus map evaluated at the state."""
    return solver.update_z(_copy(state), cfg, consensus_map(schur, state))


def residuals(state, schur):
    """solver.residuals with its shared inputs rebuilt from the state."""
    st = _copy(state)
    st.h.flat[...] = consensus_map(schur, state).flat
    proj_y0 = kernels.project_psd(state.y.y0 - state.z.y0)
    proj_yi = kernels.project_psd_stack(state.y.yi - state.z.yi)
    return solver.residuals(st, schur, proj_y0, proj_yi)
