"""Independent reference computations for checking hinfgcc's outputs.

Nothing here imports hinfgcc: the plant is read straight from the problem
JSON, the vertices are enumerated here, the H-infinity norm comes from the
Hamiltonian level-set iteration (Boyd-Balakrishnan, Syst. Control Lett.
1990; Bruinsma-Steinbuch, Syst. Control Lett. 1990) and the vertex
stability block theta1 is formed from the plant matrices. The checks at the
bottom turn a program output into a pass/fail verdict with a reason.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Relative accuracy of hinf_norm: the returned value is an attained
# singular value and the true norm lies below (1 + 2 * NORM_RTOL) times it.
NORM_RTOL = 1e-10
# A Hamiltonian eigenvalue counts as imaginary when its real part is below
# this share of the matrix scale. Rounding moves a near-double imaginary
# eigenvalue off the axis by about sqrt(machine eps) ~ 1e-8 at most, while
# one level 2 * NORM_RTOL above the peak sits ~1e-5 off it.
IMAG_AXIS_TOL = 1e-7
# How far a frequency-sweep peak may fall below the exact norm. The sweep
# grid starts at 1e-3 rad/s, so a peak at DC is read there, which costs
# O(1e-6) of the norm: 6.2e-6 at ex2 vertex 195. A missed resonance costs
# far more than 1e-4.
SWEEP_RTOL = 1e-4


@dataclass(frozen=True)
class Plant:
    """Plant data and extreme systems read from a problem file."""

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C: np.ndarray
    D: np.ndarray
    vertices: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B2.shape[1]


def load_plant(path: str) -> Plant:
    """Parse a problem file with relative bounds (or none) into a Plant.

    Vertex order follows the documented file semantics: uncertain entries
    row-major, A before B2, vertex index bit k choosing the upper bound of
    entry k; entries whose nominal value is zero never vary.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    mats = {k: np.array(data[k], dtype=float) for k in ("A", "B1", "B2", "C", "D")}
    bounds = (data.get("uncertainty") or {}).get("relative_bounds", {})
    entries = []
    for key in ("A", "B2"):
        frac = np.array(bounds.get(key, np.zeros_like(mats[key])), dtype=float)
        for i, j in np.ndindex(*mats[key].shape):
            if frac[i, j] > 0.0 and mats[key][i, j] != 0.0:
                entries.append((key, i, j, frac[i, j]))
    vertices = []
    for index in range(2 ** len(entries)):
        vert = {"A": mats["A"].copy(), "B2": mats["B2"].copy()}
        for bit, (key, i, j, frac) in enumerate(entries):
            sign = 1.0 if (index >> bit) & 1 else -1.0
            vert[key][i, j] = mats[key][i, j] * (1.0 + sign * frac)
        vertices.append((vert["A"], vert["B2"]))
    return Plant(vertices=tuple(vertices), **mats)


def spectral_abscissa(a: np.ndarray) -> float:
    """Largest real part of the eigenvalues of a."""
    return float(np.linalg.eigvals(a).real.max())


def _sigma_max(a, b, c, omega: float) -> float:
    n = a.shape[0]
    resp = c @ np.linalg.solve(1j * omega * np.eye(n) - a, b)
    return float(np.linalg.svd(resp, compute_uv=False)[0])


def hinf_norm(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """H-infinity norm of c (sI - a)^-1 b for Hurwitz a, to NORM_RTOL.

    gamma is a singular value of G(jw) exactly when jw is an eigenvalue of
    the Hamiltonian [[a, b b^T / gamma^2], [-c^T c, -a^T]]. Each pass sets
    gamma just above the best attained value, reads off the frequencies
    where the response crosses that level, and evaluates the response at
    the midpoints between them; when no crossing remains the attained value
    is within NORM_RTOL of the norm.
    """
    poles = np.linalg.eigvals(a)
    if poles.real.max() >= 0.0:
        raise ValueError("hinf_norm needs a Hurwitz state matrix")
    n = a.shape[0]
    bbt = b @ b.T
    ctc = c.T @ c
    # start from DC and the pole frequencies, where peaks sit
    trial = [0.0] + [abs(p) for p in poles] + [abs(p.imag) for p in poles]
    best = max(_sigma_max(a, b, c, w) for w in trial)
    if best == 0.0:
        return 0.0
    for _ in range(200):
        gamma = (1.0 + 2.0 * NORM_RTOL) * best
        ham = np.block([[a, bbt / gamma**2], [-ctc, -a.T]])
        eig = np.linalg.eigvals(ham)
        scale = max(1.0, float(np.abs(ham).max()))
        freqs = np.sort(eig.imag[np.abs(eig.real) < IMAG_AXIS_TOL * scale])
        if freqs.size == 0:
            return best
        mids = 0.5 * (freqs[:-1] + freqs[1:]) if freqs.size > 1 else np.abs(freqs)
        found = max(_sigma_max(a, b, c, abs(w)) for w in mids)
        if found <= best:
            return best
        best = found
    raise RuntimeError("hinf_norm did not converge in 200 passes")


def closed_loop(plant: Plant, vertex: int, gain: np.ndarray):
    """(A_c, B1, C_c) of vertex i under u = -K x."""
    ai, b2i = plant.vertices[vertex]
    return ai - b2i @ gain, plant.B1, plant.C - plant.D @ gain


def vertex_norms(plant: Plant, gain: np.ndarray) -> np.ndarray:
    """H-infinity norm of every vertex closed loop; inf where unstable."""
    out = np.empty(len(plant.vertices))
    for i in range(len(plant.vertices)):
        ac, b1, cc = closed_loop(plant, i, gain)
        out[i] = hinf_norm(ac, b1, cc) if spectral_abscissa(ac) < 0.0 else math.inf
    return out


def theta1(plant: Plant, vertex: int, w: np.ndarray, mu: float) -> np.ndarray:
    """Vertex stability block at (W, mu); (W, mu) is feasible iff it is <= 0.

    With W1 the state block and W2 the cross block of W,
    A W1 - B2 W2^T + W1 A^T - W2 B2^T + W1 C^T C W1 + W2 D^T D W2^T + mu B1 B1^T.
    """
    n = plant.n
    ai, b2i = plant.vertices[vertex]
    w1, w2 = w[:n, :n], w[:n, n:]
    lin = ai @ w1 - b2i @ w2.T
    quad = w1 @ plant.C.T @ plant.C @ w1 + w2 @ plant.D.T @ plant.D @ w2.T
    out = lin + lin.T + quad + mu * plant.B1 @ plant.B1.T
    return 0.5 * (out + out.T)


def _theta1_scale(plant: Plant, vertex: int, w: np.ndarray, mu: float) -> float:
    """Sum of the norms of the terms of theta1: the size of its rounding error."""
    n = plant.n
    ai, b2i = plant.vertices[vertex]
    nw1, nw2 = np.linalg.norm(w[:n, :n]), np.linalg.norm(w[:n, n:])
    return float(
        2.0 * (np.linalg.norm(ai) * nw1 + np.linalg.norm(b2i) * nw2)
        + nw1**2 * np.linalg.norm(plant.C) ** 2
        + nw2**2 * np.linalg.norm(plant.D) ** 2
        + abs(mu) * np.linalg.norm(plant.B1) ** 2
    )


def theta1_max_eigs(plant: Plant, w: np.ndarray, mu: float) -> np.ndarray:
    return np.array(
        [np.linalg.eigvalsh(theta1(plant, i, w, mu))[-1] for i in range(len(plant.vertices))]
    )


# --- checks: each returns None on success or a one-line reason -----------


def check_stabilizes(plant: Plant, gain: np.ndarray) -> str | None:
    """Every vertex closed loop A_i - B2_i K is Hurwitz."""
    for i in range(len(plant.vertices)):
        alpha = spectral_abscissa(closed_loop(plant, i, gain)[0])
        if not alpha < 0.0:
            return f"vertex {i} closed loop has spectral abscissa {alpha:.6g} >= 0"
    return None


def check_sweep_peak(peak: float, norm: float, vertex: int) -> str | None:
    """A sweep peak is an attained value: at most the norm, and close to it."""
    if peak > norm * (1.0 + 2.0 * NORM_RTOL) * (1.0 + 1e-12):
        return f"vertex {vertex}: sweep peak {peak:.12g} exceeds the H-inf norm {norm:.12g}"
    if peak < norm * (1.0 - SWEEP_RTOL):
        return f"vertex {vertex}: sweep peak {peak:.12g} misses the H-inf norm {norm:.12g}"
    return None


def check_certificate(
    plant: Plant, w: np.ndarray, mu: float, gamma: float, norms: np.ndarray
) -> str | None:
    """(W, mu) with gamma = 1/sqrt(mu) is a valid attenuation certificate.

    theta1 <= 0 at every vertex with W1 > 0 is the bounded-real-lemma
    condition, so it implies every vertex norm is at most gamma; all three
    are checked, the last against the independently computed norms.
    """
    if not (mu > 0.0 and math.isclose(gamma, 1.0 / math.sqrt(mu), rel_tol=1e-12)):
        return f"gamma {gamma!r} is not 1/sqrt(mu) for mu {mu!r}"
    w1_min = float(np.linalg.eigvalsh(0.5 * (w + w.T)[: plant.n, : plant.n])[0])
    if not w1_min > 0.0:
        return f"state block of W is not positive definite (min eigenvalue {w1_min:.6g})"
    worst = theta1_max_eigs(plant, w, mu)
    i = int(worst.argmax())
    if worst[i] > 1e-12 * _theta1_scale(plant, i, w, mu):
        return f"theta1 at vertex {i} has max eigenvalue {worst[i]:.6g} > 0"
    return check_gamma_bounds(gamma, norms)


def check_gamma_bounds(gamma: float, norms: np.ndarray) -> str | None:
    """gamma is at least every vertex norm."""
    i = int(np.argmax(norms))
    if not norms[i] <= gamma * (1.0 + 2.0 * NORM_RTOL):
        return f"vertex {i} norm {norms[i]:.8g} exceeds gamma {gamma:.8g} (x{norms[i] / gamma:.6g})"
    return None
