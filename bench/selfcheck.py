"""Closed-form tests of the reference computations in oracle.py.

Each check must pass on a right answer and fail on a wrong one: a
destabilizing gain, a W whose state block is indefinite, a gamma below a
vertex norm, a sweep peak off the norm. run.py calls run_all() at the start
of every run; the file also runs standalone (python3 bench/selfcheck.py)
or under pytest (python -m pytest bench/selfcheck.py).
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracle  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "hinfgcc", "fixtures")


def toy_plant() -> oracle.Plant:
    """dx = -x + u + w, z = (x, u): the 1-state plant whose optimum is sqrt(2)/2."""
    return oracle.Plant(
        A=np.array([[-1.0]]),
        B1=np.array([[1.0]]),
        B2=np.array([[1.0]]),
        C=np.array([[1.0], [0.0]]),
        D=np.array([[0.0], [1.0]]),
        vertices=((np.array([[-1.0]]), np.array([[1.0]])),),
    )


def test_first_order_lag_norm_is_one_over_a():
    for a in (0.01, 0.5, 2.0, 300.0):
        norm = oracle.hinf_norm(np.array([[-a]]), np.array([[1.0]]), np.array([[1.0]]))
        assert math.isclose(norm, 1.0 / a, rel_tol=1e-12), (a, norm)


def test_toy_plant_at_unit_gain_has_norm_sqrt2_over_2():
    norms = oracle.vertex_norms(toy_plant(), np.array([[1.0]]))
    assert math.isclose(norms[0], math.sqrt(2.0) / 2.0, rel_tol=1e-12), norms


def test_narrow_resonance_is_found():
    # wn^2 / (s^2 + 2 zeta wn s + wn^2) peaks at 1 / (2 zeta sqrt(1 - zeta^2))
    zeta, wn = 1e-3, 37.0
    a = np.array([[0.0, 1.0], [-(wn**2), -2.0 * zeta * wn]])
    norm = oracle.hinf_norm(a, np.array([[0.0], [wn**2]]), np.array([[1.0, 0.0]]))
    exact = 1.0 / (2.0 * zeta * math.sqrt(1.0 - zeta**2))
    assert abs(norm - exact) <= 2.0 * oracle.NORM_RTOL * exact, (norm, exact)


def test_destabilizing_gain_is_rejected():
    plant = toy_plant()
    assert oracle.check_stabilizes(plant, np.array([[1.0]])) is None
    reason = oracle.check_stabilizes(plant, np.array([[-10.0]]))  # pole at +9
    assert reason is not None and "abscissa 9" in reason, reason
    assert oracle.vertex_norms(plant, np.array([[-10.0]]))[0] == math.inf


def test_valid_certificate_passes():
    # W1 = W2 = 1 encodes K = 1; theta1 = -4 + 2 + mu <= 0 for mu <= 2
    plant = toy_plant()
    w = np.array([[1.0, 1.0], [1.0, 3.0]])
    norms = oracle.vertex_norms(plant, np.array([[1.0]]))
    assert oracle.check_certificate(plant, w, 1.9, 1.0 / math.sqrt(1.9), norms) is None
    reason = oracle.check_certificate(plant, w, 2.1, 1.0 / math.sqrt(2.1), norms)
    assert reason is not None and "theta1" in reason, reason


def test_indefinite_state_block_is_rejected():
    # hinfgcc's certified_attenuation accepts this W with mu = 0.79, gamma 1.125;
    # the gain it encodes, K = -10, destabilizes the plant
    plant = toy_plant()
    w = np.array([[-0.1, 1.0], [1.0, 0.5]])
    assert oracle.theta1_max_eigs(plant, w, 0.79)[0] <= 0.0
    reason = oracle.check_certificate(plant, w, 0.79, 1.0 / math.sqrt(0.79), np.array([1.0]))
    assert reason is not None and "not positive definite" in reason, reason


def test_gamma_below_a_vertex_norm_is_rejected():
    norms = np.array([0.3, math.sqrt(2.0) / 2.0, 0.5])
    assert oracle.check_gamma_bounds(0.71, norms) is None
    reason = oracle.check_gamma_bounds(0.70, norms)
    assert reason is not None and "vertex 1" in reason, reason


def test_sweep_peak_must_sit_just_below_the_norm():
    assert oracle.check_sweep_peak(1.0 - 1e-7, 1.0, 0) is None
    assert "exceeds" in oracle.check_sweep_peak(1.0 + 1e-6, 1.0, 0)
    assert "misses" in oracle.check_sweep_peak(0.99, 1.0, 0)


def test_theta1_matches_the_closed_loop_bounded_real_form():
    # with W2 = W1 K^T and C^T D = 0, theta1 = Ac W1 + W1 Ac^T + W1 Cc^T Cc W1 + mu B1 B1^T
    rng = np.random.default_rng(7)
    n, m = 3, 2
    c = np.vstack([rng.normal(size=(2, n)), np.zeros((m, n))])
    d = np.vstack([np.zeros((2, m)), rng.normal(size=(m, m))])
    a, b2, b1 = rng.normal(size=(n, n)), rng.normal(size=(n, m)), rng.normal(size=(n, 2))
    plant = oracle.Plant(a, b1, b2, c, d, ((a, b2),))
    gain = rng.normal(size=(m, n))
    w1 = rng.normal(size=(n, n))
    w1 = w1 @ w1.T + n * np.eye(n)
    w = np.block([[w1, w1 @ gain.T], [gain @ w1, np.eye(m)]])
    ac, _, cc = oracle.closed_loop(plant, 0, gain)
    brl = ac @ w1 + w1 @ ac.T + w1 @ cc.T @ cc @ w1 + 0.3 * b1 @ b1.T
    assert np.allclose(oracle.theta1(plant, 0, w, 0.3), brl, rtol=1e-12, atol=1e-10)


def test_fixture_vertices_follow_the_documented_order():
    plant = oracle.load_plant(os.path.join(FIXTURES, "example2.json"))
    assert len(plant.vertices) == 256
    lo, hi = plant.vertices[0], plant.vertices[255]
    assert np.allclose(lo[0], 0.8 * plant.A) and np.allclose(hi[1], 1.2 * plant.B2)
    a1 = plant.vertices[1][0]  # bit 0 is A[0, 0]
    assert a1[0, 0] == plant.A[0, 0] * 1.2 and a1[0, 1] == plant.A[0, 1] * 0.8
    assert len(oracle.load_plant(os.path.join(FIXTURES, "example1.json")).vertices) == 1


def run_all() -> list[str]:
    """Run every test; return one line per failure."""
    failures = []
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - every failure is reported
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
    return failures


if __name__ == "__main__":
    problems = run_all()
    for line in problems:
        print("FAIL", line)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} failed")
    sys.exit(1 if problems else 0)
