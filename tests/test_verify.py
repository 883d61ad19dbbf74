"""Independent certification: closed loops, margins, H-infinity norms, gain
curves, feasibility, impulse responses."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hinfgcc as hg
from hinfgcc import cli, kernels, verify
from hinfgcc.verify import ClosedLoop

import oracles
from conftest import (
    PUBLISHED_EX1,
    PUBLISHED_EX2,
    BuiltProblem,
    make_example1_plant,
    make_example2_plant,
    make_toy_plant,
)
from test_problem import random_problem

# certified_attenuation's mu for example2's W* at its published settings,
# as the 120-step bisection it replaced (tests/oracles.certified_attenuation)
# computes it; W* is the one solved with the Cholesky-screened projection
EX2_BISECTION_MU = 0.02667209954708176


def gain_encoding_w(rng, plant, scale):
    """A W that encodes u = -K x for a random K: W1 = scale * P, W2 = W1 K^T,
    W3 = K W1 K^T + scale * I, where P solves the Lyapunov equation of the
    nominal closed loop A - B2 K when that is Hurwitz (so small scales
    certify) and is a random positive definite matrix otherwise."""
    n, m = plant.n, plant.m
    k = 0.5 * rng.standard_normal((m, n))
    acl = plant.A - plant.B2 @ k
    if np.linalg.eigvals(acl).real.max() < 0.0:
        lyap = np.kron(np.eye(n), acl) + np.kron(acl, np.eye(n))
        p = np.linalg.solve(lyap, -np.eye(n).ravel()).reshape(n, n)
        p = (p + p.T) / 2
    else:
        x = rng.standard_normal((n, n))
        p = x @ x.T + 0.1 * np.eye(n)
    w1 = scale * p
    return np.block([[w1, w1 @ k.T], [k @ w1, k @ w1 @ k.T + scale * np.eye(m)]])


def sweep_grid(npts: int = cli.SWEEP_NPTS) -> np.ndarray:
    """The `sweep` command's default log grid, with npts points."""
    return np.logspace(math.log10(cli.SWEEP_FMIN), math.log10(cli.SWEEP_FMAX), npts)


def count_theta1_calls(monkeypatch):
    calls = []
    real = verify.eval_theta1

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "eval_theta1", counting)
    return calls


class TestClosedLoop:
    def test_zero_gain_is_open_loop(self):
        plant = make_example1_plant()
        cl = hg.closed_loop(plant, (plant.A, plant.B2), np.zeros((1, 3)))
        npt.assert_array_equal(cl.ac, plant.A)
        npt.assert_array_equal(cl.cc, plant.C)

    def test_published_gain_stabilizes_aircraft(self):
        plant = make_example1_plant()
        cl = hg.closed_loop(plant, (plant.A, plant.B2), PUBLISHED_EX1["K_star"])
        assert hg.stability_margin(cl) < 0

    def test_scalar_toy_hand_arithmetic(self):
        plant = make_toy_plant()
        cl = hg.closed_loop(plant, (plant.A, plant.B2), [[1.0]])
        npt.assert_allclose(cl.ac, [[-2.0]])
        npt.assert_allclose(cl.cc, [[1.0], [-1.0]])

    def test_gain_shape_checked(self):
        plant = make_toy_plant()
        with pytest.raises(hg.DimensionError):
            hg.closed_loop(plant, (plant.A, plant.B2), np.zeros((2, 2)))


def sigma_max_at(cl: ClosedLoop, omega: float) -> float:
    """Largest singular value of C (j omega I - A)^-1 B, one point at a time."""
    n = cl.ac.shape[0]
    resp = cl.cc @ np.linalg.solve(1j * omega * np.eye(n) - cl.ac, cl.b1)
    return float(np.linalg.svd(resp, compute_uv=False)[0])


def second_order_mode(wn: float, zeta: float, gain: float):
    """(A, B, C) of gain * wn^2 / (s^2 + 2 zeta wn s + wn^2)."""
    a = np.array([[0.0, 1.0], [-wn**2, -2.0 * zeta * wn]])
    return a, np.array([[0.0], [1.0]]), np.array([[gain * wn**2, 0.0]])


def two_mode_loop() -> ClosedLoop:
    """A resonance at 1 rad/s with peak 50 and a far narrower one at
    10.0123 rad/s with peak 100, whose half-power width (2e-4 rad/s) is a
    thousandth of the default grid spacing there."""
    a1, b1, c1 = second_order_mode(1.0, 0.01, 1.0)
    a2, b2, c2 = second_order_mode(10.0123, 1e-5, 0.002)
    ac = np.block([[a1, np.zeros((2, 2))], [np.zeros((2, 2)), a2]])
    return ClosedLoop(ac=ac, cc=np.hstack([c1, c2]), b1=np.vstack([b1, b2]))


def golden_max(f, lo: float, hi: float, steps: int = 120) -> float:
    """Maximum of a unimodal f on [lo, hi] by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    return max(fc, fd)


class TestStabilityMargin:
    def test_negative_identity(self):
        assert hg.stability_margin(ClosedLoop(-np.eye(3), np.eye(3), np.eye(3))) == pytest.approx(-1.0)

    def test_marginal_rotation(self):
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert hg.stability_margin(ClosedLoop(rot, np.eye(2), np.eye(2))) == pytest.approx(0.0, abs=1e-12)

    def test_all_256_vertices_stable_under_published_gain(self, example2):
        plant = make_example2_plant()
        margins = [
            hg.stability_margin(hg.closed_loop(plant, example2.vset[i], PUBLISHED_EX2["K_star"], i))
            for i in range(example2.vset.N)
        ]
        assert max(margins) < 0

    def test_open_loop_nominal_unstable(self):
        # the 2-state plant has a positive eigenvalue, so K = 0 must be flagged
        plant = make_example2_plant()
        cl = hg.closed_loop(plant, (plant.A, plant.B2), np.zeros((2, 2)))
        assert hg.stability_margin(cl) > 0


class TestHinfSweep:
    def test_aircraft_peak_matches_published_diagram(self):
        plant = make_example1_plant()
        cl = hg.closed_loop(plant, (plant.A, plant.B2), PUBLISHED_EX1["K_star"])
        sweep = hg.hinf_sweep(cl)
        peak_db = 20 * math.log10(sweep.peak)
        assert abs(peak_db - PUBLISHED_EX1["sweep_peak_db"]) <= 0.1
        assert sweep.peak == pytest.approx(PUBLISHED_EX1["sweep_peak"], abs=5e-4)

    def test_uncertain_example_lower_vertex_peak_matches_published_diagram(self, example2):
        # the published diagram corresponds to the all-lower-bounds extreme
        # system, which is vertex 0 in enumeration order
        plant = make_example2_plant()
        cl = hg.closed_loop(plant, example2.vset[0], PUBLISHED_EX2["K_star"], 0)
        sweep = hg.hinf_sweep(cl)
        peak_db = 20 * math.log10(sweep.peak)
        assert abs(peak_db - PUBLISHED_EX2["sweep_peak_db"]) <= 0.1

    def test_scalar_toy_closed_form(self):
        plant = make_toy_plant()
        cl = hg.closed_loop(plant, (plant.A, plant.B2), [[1.0]])
        sweep = hg.hinf_sweep(cl)
        # |H(jw)| = sqrt(2)/sqrt(w^2+4) peaks at low frequency
        assert sweep.peak == pytest.approx(math.sqrt(2) / 2, rel=1e-6)
        assert sweep.peak_frequency <= 2e-3

    def test_flat_first_order_curve(self):
        cl = ClosedLoop(-np.eye(2), np.eye(2), np.eye(2))
        omegas = sweep_grid()
        curve = hg.gain_curve(cl, omegas)
        expected = 1.0 / np.sqrt(1.0 + omegas**2)
        npt.assert_allclose(curve, expected, rtol=1e-9)
        assert curve[0] == pytest.approx(1.0, abs=1e-5)
        assert hg.hinf_sweep(cl).peak <= 1.0 + 1e-12

    def test_grid_refinement_never_loses_the_peak(self):
        plant = make_example1_plant()
        cl = hg.closed_loop(plant, (plant.A, plant.B2), PUBLISHED_EX1["K_star"])
        peak = hg.hinf_sweep(cl).peak
        for npts in (200, 400, cli.SWEEP_NPTS):
            assert peak >= max(hg.gain_curve(cl, sweep_grid(npts)))

    @pytest.mark.parametrize("ac", [
        pytest.param([[1.0]], id="unstable"),
        pytest.param([[0.0, 1.0], [-1.0, 0.0]], id="marginal-rotation"),
    ])
    def test_non_hurwitz_loop_raises(self, ac):
        n = len(ac)
        cl = ClosedLoop(np.array(ac), np.eye(n), np.eye(n))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(hg.InvalidInputError, match="not asymptotically stable"):
                hg.hinf_sweep(cl)
        assert caught == []


class TestHinfNorm:
    """hinf_sweep's peak of a Hurwitz loop is the H-infinity norm."""

    def test_narrow_resonance_between_grid_points(self):
        cl = two_mode_loop()
        # the narrow mode is unimodal on this bracket, so the search is exact
        exact = golden_max(lambda w: sigma_max_at(cl, w), 10.0122, 10.0124)
        assert exact == pytest.approx(100.0000212, abs=1e-7)
        sweep = hg.hinf_sweep(cl)
        assert sweep.peak == pytest.approx(exact, rel=1e-9)
        assert sweep.peak_frequency == pytest.approx(10.0123, rel=1e-6)
        # the default grid alone reads only the broad mode
        assert hg.gain_curve(cl, sweep_grid()).max() < 51.0

    def test_dc_peak_of_scalar_toy(self):
        plant = make_toy_plant()
        sweep = hg.hinf_sweep(hg.closed_loop(plant, (plant.A, plant.B2), [[1.0]]))
        assert sweep.peak_frequency == 0.0
        assert sweep.peak == pytest.approx(math.sqrt(2) / 2, rel=1e-12)

    def test_dc_peak_of_worst_uncertain_vertex(self, example2, example2_published_solution):
        # vertex 195 peaks at DC, below the grid's first point at 1e-3 rad/s
        cl = hg.closed_loop(
            example2.plant, example2.vset[195], example2_published_solution.K_star, 195
        )
        sweep = hg.hinf_sweep(cl)
        assert sweep.peak_frequency == 0.0
        assert sweep.peak == pytest.approx(sigma_max_at(cl, 0.0), rel=1e-12)
        assert sweep.peak == pytest.approx(6.0594687, abs=1e-7)

    @pytest.mark.parametrize("loop", ["two-mode", "aircraft", "toy"])
    def test_peak_is_attained_at_peak_frequency(self, loop):
        if loop == "two-mode":
            cl = two_mode_loop()
        elif loop == "aircraft":
            plant = make_example1_plant()
            cl = hg.closed_loop(plant, (plant.A, plant.B2), PUBLISHED_EX1["K_star"])
        else:
            plant = make_toy_plant()
            cl = hg.closed_loop(plant, (plant.A, plant.B2), [[1.0]])
        sweep = hg.hinf_sweep(cl)
        assert sigma_max_at(cl, sweep.peak_frequency) == pytest.approx(sweep.peak, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e100, 1e160])
    def test_gain_beyond_float_range_is_a_numerical_error(self, scale):
        # G(s) = scale^2 / (s + 1) peaks at scale^2: at 1e100 the level's
        # gamma^2 overflows, at 1e160 the frequency response itself
        cl = ClosedLoop(-np.eye(1), np.array([[scale]]), np.array([[scale]]))
        with pytest.raises((hg.NumericalError, hg.InvalidInputError)):
            hg.hinf_sweep(cl)

    def test_no_convergence_is_a_numerical_error(self, monkeypatch):
        monkeypatch.setattr(verify, "_MAX_LEVEL_PASSES", 0)
        with pytest.raises(hg.NumericalError):
            hg.hinf_sweep(two_mode_loop())

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        inputs=st.integers(1, 3),
        outputs=st.integers(1, 3),
        margin=st.floats(1e-3, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_peak_bounds_its_own_grid(self, n, inputs, outputs, margin, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0)
        # shift the spectrum so that its abscissa is exactly -margin
        ac = m - (np.linalg.eigvals(m).real.max() + margin) * np.eye(n)
        cl = ClosedLoop(
            ac=ac,
            cc=rng.standard_normal((outputs, n)),
            b1=rng.standard_normal((n, inputs)),
        )
        if hg.stability_margin(cl) >= 0:  # rounding of the shift
            return
        sweep = hg.hinf_sweep(cl)
        assert sweep.peak >= (1 - 1e-9) * hg.gain_curve(cl, sweep_grid()).max()
        assert sigma_max_at(cl, sweep.peak_frequency) == pytest.approx(sweep.peak, rel=1e-12)


def random_loop(kind, n, inputs, outputs, stable, b1_zero, seed) -> ClosedLoop:
    """A random closed loop of one of three kinds: a general matrix whose
    abscissa is shifted to +-margin, real poles with a peak at DC, or lightly
    damped second-order modes (plus one real pole for odd n) mixed by a
    random rotation."""
    rng = np.random.default_rng(seed)
    if kind == "general":
        ac = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0)
    elif kind == "dc":
        ac = np.diag(-rng.uniform(0.01, 10.0, n)) + np.triu(0.1 * rng.standard_normal((n, n)), 1)
    else:
        ac = np.zeros((n, n))
        for j in range(0, n - 1, 2):
            wn, zeta = 10.0 ** rng.uniform(-1.0, 2.0), 10.0 ** rng.uniform(-4.0, -1.0)
            ac[j : j + 2, j : j + 2] = [[0.0, 1.0], [-wn**2, -2.0 * zeta * wn]]
        if n % 2:
            ac[-1, -1] = -rng.uniform(0.1, 10.0)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        ac = q @ ac @ q.T
    if kind == "general" or not stable:
        # shift the spectrum so that its abscissa is -margin or +margin
        margin = rng.uniform(1e-3, 2.0) * (-1.0 if stable else 1.0)
        ac = ac - (np.linalg.eigvals(ac).real.max() - margin) * np.eye(n)
    b1 = np.zeros((n, inputs)) if b1_zero else rng.standard_normal((n, inputs))
    return ClosedLoop(ac=ac, cc=rng.standard_normal((outputs, n)), b1=b1)


def bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def assert_bitwise_the_frozen_check(cl: ClosedLoop) -> None:
    """The margin equals the frozen np.linalg form of the check
    (tests/oracles.py) bit for bit. So do the peak and peak frequency of a
    Hurwitz loop; any other loop has no norm, and its gain curve on the
    sweep command's default grid equals the frozen one bit for bit."""
    margin = hg.stability_margin(cl)
    assert bits(margin) == bits(oracles.stability_margin(cl))
    if margin < 0:
        sweep = hg.hinf_sweep(cl)
        assert bits(sweep.peak, sweep.peak_frequency) == bits(*oracles.hinf_sweep(cl))
    else:
        with pytest.raises(hg.InvalidInputError, match="not asymptotically stable"):
            hg.hinf_sweep(cl)
        omegas = sweep_grid()
        assert hg.gain_curve(cl, omegas).tobytes() == oracles.gain_grid(cl, omegas).tobytes()


class TestFrozenNormCheck:
    """The norm check computes the poles once, fills the Hamiltonian in place
    and calls the LAPACK gufuncs directly; its results are bitwise those of
    the np.linalg form it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(["general", "dc", "resonant"]),
        n=st.integers(1, 6),
        inputs=st.integers(1, 3),
        outputs=st.integers(1, 3),
        stable=st.booleans(),
        b1_zero=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_loops(self, kind, n, inputs, outputs, stable, b1_zero, seed):
        assert_bitwise_the_frozen_check(random_loop(kind, n, inputs, outputs, stable, b1_zero, seed))

    @pytest.mark.parametrize("problem", ["example1", "example2"])
    def test_every_fixture_vertex(self, problem, request):
        built = request.getfixturevalue(problem)
        gain = request.getfixturevalue(f"{problem}_published_solution").K_star
        for i in range(built.vset.N):
            assert_bitwise_the_frozen_check(hg.closed_loop(built.plant, built.vset[i], gain, i))

    def test_named_loops(self):
        plant = make_toy_plant()
        for cl in (two_mode_loop(), hg.closed_loop(plant, (plant.A, plant.B2), [[1.0]])):
            assert_bitwise_the_frozen_check(cl)

    def test_singular_grid_point_fallback(self):
        # the pencil of this marginal rotation is singular at omega = 1
        cl = ClosedLoop(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2), np.eye(2))
        omegas = np.logspace(0.0, 2.0, 64)
        curve = verify.gain_curve(cl, omegas)
        assert np.isnan(curve[0]) and np.isfinite(curve[1:]).all()
        assert curve.tobytes() == oracles.gain_grid(cl, omegas).tobytes()

    def test_poles_are_computed_once_per_loop(self, monkeypatch):
        calls = []
        real = kernels.eig_general

        def counting(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(kernels, "eig_general", counting)
        cl = two_mode_loop()
        hg.stability_margin(cl)
        hg.hinf_sweep(cl)
        # one call for the 4x4 poles; the rest are 8x8 Hamiltonians
        assert calls.count((4, 4)) == 1 and set(calls) == {(4, 4), (8, 8)}


class TestCheckFeasibility:
    def test_toy_optimum_is_exactly_feasible(self, toy):
        w_star = np.array([[1.0, 1.0], [1.0, 2.0]])
        report = hg.check_feasibility(toy.ext, w_star, 2.0, tol=1e-6)
        assert report.passed
        assert report.worst_vertex.theta1_max_eig == pytest.approx(0.0, abs=1e-12)

    def test_zero_w_with_positive_mu_fails(self, example1):
        report = hg.check_feasibility(example1.ext, np.zeros((4, 4)), 1.0, tol=1e-6)
        assert not report.passed
        # the block reduces to B1 B1^T = I: max eigenvalue 1
        assert report.worst_vertex.theta1_max_eig == pytest.approx(1.0)

    def test_solver_output_cross_check(self, toy, toy_solution):
        report = hg.check_feasibility(toy.ext, toy_solution.W_star, toy_solution.mu_star, tol=1e-5)
        assert report.passed
        assert report.mu > 0

    def test_nonpositive_mu_fails_overall(self, toy):
        w_star = np.array([[1.0, 1.0], [1.0, 2.0]])
        report = hg.check_feasibility(toy.ext, w_star, 0.0, tol=1e-6)
        assert not report.passed

    def test_per_vertex_rows_cover_all_vertices(self, example2):
        report = hg.check_feasibility(example2.ext, np.eye(4), 0.1, tol=1e-6)
        assert len(report.per_vertex) == 256
        assert [row.vertex for row in report.per_vertex] == list(range(256))

    def test_batched_check_matches_single_vertex_blocks(self, example2, example2_published_solution):
        sol = example2_published_solution
        report = hg.check_feasibility(example2.ext, sol.W_star, sol.mu_star, tol=1e-6)
        expected = [
            kernels.sym_eig(oracles.eval_theta1(example2.ext, i, sol.W_star, sol.mu_star)).eigenvalues[0]
            for i in range(256)
        ]
        got = [row.theta1_max_eig for row in report.per_vertex]
        npt.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        assert [row.feasible for row in report.per_vertex] == [e <= 1e-6 for e in expected]

    def test_overflowing_blocks_rejected_without_warning(self, toy):
        with pytest.raises(hg.InvalidInputError):
            hg.check_feasibility(toy.ext, np.full((2, 2), 1e200), 1.0)


class TestCertifiedAttenuation:
    def test_toy_certificate_is_exact(self, toy):
        w_star = np.array([[1.0, 1.0], [1.0, 2.0]])
        mu_c, gamma_c = hg.certified_attenuation(toy.ext, w_star)
        assert mu_c == pytest.approx(2.0, rel=1e-9)
        assert gamma_c == pytest.approx(1 / math.sqrt(2.0), rel=1e-9)

    def test_certificate_is_feasible(self, toy, toy_solution):
        mu_c, _ = hg.certified_attenuation(toy.ext, toy_solution.W_star)
        report = hg.check_feasibility(toy.ext, toy_solution.W_star, mu_c, tol=1e-9)
        assert all(v.feasible for v in report.per_vertex)

    def test_indefinite_state_block_returns_none(self, toy):
        # W encodes K = W2 / W1 = -10, which puts the closed-loop pole at +9;
        # the stability block alone is negative for small mu
        w = np.array([[-0.1, 1.0], [1.0, 0.5]])
        assert hg.certified_attenuation(toy.ext, w) is None

    def test_infeasible_w_returns_none(self, toy):
        # W = 0 forces the stability block to mu * B1 B1^T which is never <= 0
        assert hg.certified_attenuation(toy.ext, np.zeros((2, 2))) is None

    def test_example2_certificate_is_the_bisections(self, example2, example2_published_solution, monkeypatch):
        calls = count_theta1_calls(monkeypatch)
        mu_c, gamma_c = hg.certified_attenuation(example2.ext, example2_published_solution.W_star)
        # never above the bisection's value and at most a few ulps below it
        assert mu_c <= EX2_BISECTION_MU
        assert mu_c >= EX2_BISECTION_MU - 4 * np.spacing(EX2_BISECTION_MU)
        assert gamma_c == 1.0 / math.sqrt(mu_c)
        # one evaluation at mu = 0 and one check per step, not a bisection
        assert len(calls) <= 3

    def test_no_disturbance_input_keeps_the_bisection_cap(self):
        # with B1 = 0 the block does not depend on mu; the bisection's bracket
        # stopped at 2^54, which the closed form keeps instead of dividing by 0
        plant = hg.PlantModel(A=[[-1.0]], B1=[[0.0]], B2=[[1.0]], C=[[1.0], [0.0]], D=[[0.0], [1.0]])
        hg.validate_plant(plant)
        built = BuiltProblem(plant, hg.UncertaintySpec.none())
        w = np.array([[1.0, 1.0], [1.0, 2.0]])
        assert hg.certified_attenuation(built.ext, w) == (2.0**54, 2.0**-27)
        assert oracles.certified_attenuation(built.ext, w) == (2.0**54, 2.0**-27)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        n_vertices=st.integers(1, 3),
        log_scale=st.floats(-3.0, 0.0),
    )
    def test_closed_form_matches_bisection(self, seed, n, m, n_vertices, log_scale):
        rng = np.random.default_rng(seed)
        built = random_problem(rng, n=n, m=m, n_vertices=n_vertices)
        ext = built.ext
        w = gain_encoding_w(rng, built.plant, 10.0**log_scale)
        got = hg.certified_attenuation(ext, w)
        ref = oracles.certified_attenuation(ext, w)
        assert (got is None) == (ref is None)
        if got is None:
            return
        mu_c, gamma_c = got
        assert abs(mu_c - ref[0]) <= 1e-12 * ref[0]
        assert gamma_c == 1.0 / math.sqrt(mu_c)
        # never overstated: the package's check passes at the returned mu
        assert all(v.feasible for v in hg.check_feasibility(ext, w, mu_c, tol=0.0).per_vertex)

    def test_barely_definite_block_ends_in_few_checks(self, monkeypatch):
        # W1 = I, B2 = I, C = 0, D^T D = I give theta1(W, 0) =
        # (W2 - I)(W2 - I)^T + A + A^T - I; W2 puts one eigenvalue of that
        # within rounding of 0, where the check is noise over a range of mu
        # as wide as mu itself
        rng = np.random.default_rng(1)
        calls = count_theta1_calls(monkeypatch)
        longest = 0
        for _ in range(30):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            a, b = rng.uniform(0.5, 2.0, 2)
            plant = hg.PlantModel(
                A=(q @ np.diag([-a, -b]) @ q.T + np.eye(2)) / 2,
                B1=rng.standard_normal((2, 2)),
                B2=np.eye(2),
                C=np.zeros((4, 2)),
                D=np.vstack([np.zeros((2, 2)), np.eye(2)]),
            )
            ext = BuiltProblem(plant, hg.UncertaintySpec.none()).ext
            w = 3.0 * np.eye(4)
            w[:2, :2] = np.eye(2)
            w[:2, 2:] = np.eye(2) + q @ np.diag([math.sqrt(a), 0.5 * math.sqrt(b)]) @ q.T
            w[2:, :2] = w[:2, 2:].T
            calls.clear()
            cert = hg.certified_attenuation(ext, w)
            longest = max(longest, len(calls))
            assert len(calls) <= 60
            if cert is not None:
                assert all(v.feasible for v in hg.check_feasibility(ext, w, cert[0], tol=0.0).per_vertex)
        # some closed form needed stepping far below itself: one ulp at a
        # time that would take more than 2^30 checks
        assert longest > 30

    def test_feasible_pair_bounds_every_vertex_norm(self, toy):
        # feasibility at tol 1e-8 with mu > 0 implies the sweep peak of the
        # extracted gain stays below (1/sqrt(mu)) * 1.01
        w_star = np.array([[1.0, 1.0], [1.0, 2.0]])
        mu = 2.0
        report = hg.check_feasibility(toy.ext, w_star, mu, tol=1e-8)
        assert report.passed
        gain = hg.extract_gain(w_star, 1, 1)
        peak = hg.hinf_sweep(hg.closed_loop(toy.plant, toy.vset[0], gain)).peak
        assert peak <= (1.0 / math.sqrt(mu)) * 1.01


class TestImpulseResponse:
    def test_scalar_exponential(self):
        cl = ClosedLoop(np.array([[-1.0]]), np.eye(1), np.eye(1))
        resp = hg.impulse_response(cl, horizon=5.0, dt=1e-3)
        expected = np.exp(-resp.t)
        assert np.abs(resp.states[0, :, 0] - expected).max() <= 1e-6

    def test_channels_are_independent(self):
        cl = ClosedLoop(-np.eye(2), np.eye(2), np.eye(2))
        resp = hg.impulse_response(cl, horizon=2.0, dt=1e-3)
        for j in range(2):
            npt.assert_allclose(resp.states[j, :, j], np.exp(-resp.t), atol=1e-8)
            other = 1 - j
            npt.assert_allclose(resp.states[j, :, other], 0.0, atol=1e-12)

    def test_aircraft_loop_decays_past_slowest_mode(self):
        # decay-rate oracle: ||exp(A t)|| <= kappa(V) exp(margin t), so pick
        # the horizon where that envelope drops below 1e-3
        plant = make_example1_plant()
        cl = hg.closed_loop(plant, (plant.A, plant.B2), PUBLISHED_EX1["K_star"])
        margin = hg.stability_margin(cl)
        assert margin < 0
        _, vecs = np.linalg.eig(cl.ac)
        kappa = np.linalg.cond(vecs)
        horizon = math.log(1e3 * kappa) / abs(margin)
        resp = hg.impulse_response(cl, horizon=horizon, dt=1e-3)
        x0 = np.linalg.norm(resp.states[:, 0, :], axis=1)
        xT = np.linalg.norm(resp.states[:, -1, :], axis=1)
        assert np.all(xT <= 1e-3 * x0)

    def test_fourth_order_convergence(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            m = rng.standard_normal((3, 3))
            ac = -(m @ m.T) / 2.0 - 0.25 * np.eye(3)
            b1 = rng.standard_normal((3, 2))
            cl = ClosedLoop(ac, np.eye(3), b1)
            horizon, dt = 2.0, 0.05
            ref = hg.impulse_response(cl, horizon, dt=dt / 8)
            coarse = hg.impulse_response(cl, horizon, dt=dt)
            fine = hg.impulse_response(cl, horizon, dt=dt / 2)
            # compare against the dt/8 reference at shared sample times
            err_coarse = np.abs(coarse.states - ref.states[:, ::8, :]).max()
            err_fine = np.abs(fine.states - ref.states[:, ::4, :]).max()
            assert err_fine <= err_coarse / 8.0

    def test_bad_step_rejected(self):
        cl = ClosedLoop(-np.eye(1), np.eye(1), np.eye(1))
        with pytest.raises(hg.DimensionError):
            hg.impulse_response(cl, horizon=1.0, dt=0.0)

    @pytest.mark.parametrize("horizon, dt", [
        (np.nan, 1e-3), (1.0, np.nan), (np.inf, 1e-3), (1e10, 1e-300),
    ])
    def test_non_finite_step_count_rejected(self, horizon, dt):
        cl = ClosedLoop(-np.eye(1), np.eye(1), np.eye(1))
        with pytest.raises(hg.DimensionError):
            hg.impulse_response(cl, horizon=horizon, dt=dt)

    @pytest.mark.parametrize("horizon, dt", [
        (1e300, 1e-3), ((verify.MAX_STEPS + 1) * 1e-3, 1e-3),
    ])
    def test_step_count_over_cap_rejected_before_any_work(self, horizon, dt):
        # a loop without matrices: touching it before the check would raise
        # something else than DimensionError
        cl = ClosedLoop(None, None, None)
        with pytest.raises(hg.DimensionError, match="exceeds the cap"):
            hg.impulse_response(cl, horizon=horizon, dt=dt)
