"""ADMM loop mechanics: projections, sweep updates, residuals, termination.

The scalar toy plant (A = -1, B2 = 1, B1 = 1, C = [1;0], D = [0;1]) has a
known optimum mu* = 2, K* = 1, and an analytic KKT quadruple used below:
W* = [[1,1],[1,2]], Y* = (W*, G*, 2) with G* the constraint block at the
optimum, and multipliers Z* = (0, 3 v v^T, 0) for v = (1,-1,-1)/sqrt(3).
"""

import numpy as np
import numpy.testing as npt
import pytest

import hinfgcc as hg
from hinfgcc import kernels, solver
from hinfgcc.solver import ConsensusVector, apply_hmap, lagrangian

from conftest import BuiltProblem


def random_state(rng, built, scale=1.0):
    """Random in-cone Y, random symmetric Z, random symmetric W."""
    s = built.schur
    w = rng.standard_normal((s.p, s.p)) * scale
    w = (w + w.T) / 2
    mu = float(rng.standard_normal())
    y = ConsensusVector(
        kernels.project_psd(rng.standard_normal((s.p, s.p))),
        kernels.project_psd_stack(rng.standard_normal((s.N, s.r, s.r))),
        abs(float(rng.standard_normal())),
    )
    z = ConsensusVector(
        kernels.symmetrize(rng.standard_normal((s.p, s.p))),
        (lambda a: (a + a.transpose(0, 2, 1)) / 2)(rng.standard_normal((s.N, s.r, s.r))),
        float(rng.standard_normal()),
    )
    state = solver.init(s, hg.SolverConfig(sigma=0.7, tau=1.0, eps=1e-6), (w, mu, y, z))
    return state


@pytest.fixture(scope="module")
def small_problem():
    """Random 2-state, 4-vertex problem for stationarity checks."""
    rng = np.random.default_rng(100)
    plant = hg.PlantModel(
        A=rng.standard_normal((2, 2)),
        B1=rng.standard_normal((2, 2)),
        B2=rng.standard_normal((2, 1)),
        C=np.vstack([np.eye(2), np.zeros((1, 2))]),
        D=np.vstack([np.zeros((2, 1)), np.eye(1)]),
    )
    pairs = [
        (plant.A, plant.B2),
        (plant.A * 1.1, plant.B2),
        (plant.A, plant.B2 * 0.9),
        (plant.A * 0.95, plant.B2 * 1.05),
    ]
    return BuiltProblem(plant, hg.UncertaintySpec.from_vertices(pairs))


class TestSolverConfig:
    def test_tau_outside_golden_ratio_rejected(self):
        with pytest.raises(ValueError):
            hg.SolverConfig(tau=1.7)

    def test_tau_at_boundary_rejected(self):
        with pytest.raises(ValueError):
            hg.SolverConfig(tau=solver.TAU_MAX)

    @pytest.mark.parametrize("kwargs", [{"sigma": 0.0}, {"eps": 0.0}, {"max_iters": 0}, {"tau": 0.0}])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            hg.SolverConfig(**kwargs)

    def test_defaults_valid(self):
        cfg = hg.SolverConfig()
        assert cfg.tau == 1.618 and cfg.sigma > 0


class TestInit:
    def test_default_start_is_zero(self, toy):
        st = solver.init(toy.schur, hg.SolverConfig())
        assert not st.w.any() and st.mu == 0.0
        assert not st.y.y0.any() and not st.y.yi.any() and st.y.ylast == 0.0
        assert not st.z.y0.any() and st.k == 0

    def test_supplied_start_echoed(self, toy, small_problem):
        rng = np.random.default_rng(0)
        st = random_state(rng, small_problem)
        w, mu = st.w.copy(), st.mu
        st2 = solver.init(small_problem.schur, hg.SolverConfig(), (st.w, st.mu, st.y, st.z))
        npt.assert_array_equal(st2.w, w)
        assert st2.mu == mu
        npt.assert_array_equal(st2.y.yi, st.y.yi)
        npt.assert_array_equal(st2.z.y0, st.z.y0)

    def test_start_dimension_mismatch(self, toy):
        bad = np.zeros((3, 3))
        cv = solver.cv_zeros(toy.schur)
        with pytest.raises(hg.DimensionError):
            solver.init(toy.schur, hg.SolverConfig(), (bad, 0.0, cv, cv))


class TestUpdateY:
    def test_zero_state_projects_constant_block(self, toy):
        cfg = hg.SolverConfig(sigma=0.5)
        st = solver.init(toy.schur, cfg)
        y = solver.update_y(st, toy.schur, cfg)
        npt.assert_allclose(y.y0, 0.0)
        # constraint block at zero is h0, which is already PSD
        npt.assert_allclose(y.yi[0], toy.schur.h0, atol=1e-14)
        assert y.ylast == 0.0

    def test_scalar_projection(self, toy):
        cfg = hg.SolverConfig(sigma=1.0)
        st = solver.init(toy.schur, cfg)
        st.mu = 1.0
        assert solver.update_y(st, toy.schur, cfg).ylast == 1.0
        st.mu = -1.0
        assert solver.update_y(st, toy.schur, cfg).ylast == 0.0

    def test_blocks_are_projection_fixed_points(self, small_problem):
        rng = np.random.default_rng(1)
        cfg = hg.SolverConfig(sigma=0.7, tau=1.0)
        for _ in range(5):
            st = random_state(rng, small_problem)
            y = solver.update_y(st, small_problem.schur, cfg)
            npt.assert_allclose(kernels.project_psd(y.y0), y.y0, atol=1e-10)
            npt.assert_allclose(kernels.project_psd_stack(y.yi), y.yi, atol=1e-10)
            assert y.ylast >= 0.0


def central_diff_mu(schur, cfg, y, w, mu, z):
    h = 1e-6 * (1 + abs(mu))
    up = lagrangian(schur, cfg, y, w, mu + h, z)
    dn = lagrangian(schur, cfg, y, w, mu - h, z)
    return (up - dn) / (2 * h)


def central_diff_w(schur, cfg, y, w, mu, z):
    grad = np.zeros_like(w)
    for a in range(w.shape[0]):
        for b in range(w.shape[1]):
            h = 1e-6 * (1 + abs(w[a, b]))
            wp = w.copy()
            wp[a, b] += h
            wm = w.copy()
            wm[a, b] -= h
            grad[a, b] = (
                lagrangian(schur, cfg, y, wp, mu, z) - lagrangian(schur, cfg, y, wm, mu, z)
            ) / (2 * h)
    return grad


class TestSweepUpdates:
    def test_first_iteration_closed_form(self, example2):
        # from the all-zero state the scalar update reduces to
        # 1 / (sigma * (N tr(h3^2) + 1)) because <h0, h3> = 0
        cfg = hg.SolverConfig(sigma=0.1)
        st = solver.init(example2.schur, cfg)
        st.y = solver.update_y(st, example2.schur, cfg)
        expected = 1.0 / (cfg.sigma * (example2.schur.N * example2.schur.tr_h3_sq + 1.0))
        assert solver.backward_mu(st, example2.schur, cfg) == pytest.approx(expected)

    def test_no_disturbance_reduces_to_scalar_quadratic(self):
        # with B1 = 0 the mu coupling block vanishes and the stationary point
        # of the remaining 1-d quadratic is sigma^{-1} (1 + sigma ylast + zlast)
        plant = hg.PlantModel(A=[[-1.0]], B1=[[0.0]], B2=[[1.0]], C=[[1.0], [0.0]], D=[[0.0], [1.0]])
        built = BuiltProblem(plant, hg.UncertaintySpec.none())
        assert built.schur.tr_h3_sq == 0.0
        cfg = hg.SolverConfig(sigma=0.5)
        rng = np.random.default_rng(2)
        st = random_state(rng, built)
        got = solver.backward_mu(st, built.schur, cfg)
        expected = (1.0 + cfg.sigma * st.y.ylast + st.z.ylast) / cfg.sigma
        assert got == pytest.approx(expected, rel=1e-12)

    def test_backward_mu_is_stationary(self, small_problem):
        rng = np.random.default_rng(3)
        cfg = hg.SolverConfig(sigma=0.7, tau=1.0)
        for _ in range(10):
            st = random_state(rng, small_problem)
            st.y = solver.update_y(st, small_problem.schur, cfg)
            mu_bar = solver.backward_mu(st, small_problem.schur, cfg)
            g = central_diff_mu(small_problem.schur, cfg, st.y, st.w, mu_bar, st.z)
            assert abs(g) <= 1e-5

    def test_update_w_is_stationary(self, small_problem):
        rng = np.random.default_rng(4)
        cfg = hg.SolverConfig(sigma=0.7, tau=1.0)
        for _ in range(10):
            st = random_state(rng, small_problem)
            st.y = solver.update_y(st, small_problem.schur, cfg)
            mu_bar = solver.backward_mu(st, small_problem.schur, cfg)
            w_new = solver.update_w(st, small_problem.schur, cfg, mu_bar)
            grad = central_diff_w(small_problem.schur, cfg, st.y, w_new, mu_bar, st.z)
            assert np.abs(grad).max() <= 1e-5

    def test_forward_mu_is_stationary_and_matches_backward_at_same_w(self, small_problem):
        rng = np.random.default_rng(5)
        cfg = hg.SolverConfig(sigma=0.7, tau=1.0)
        st = random_state(rng, small_problem)
        st.y = solver.update_y(st, small_problem.schur, cfg)
        assert solver.forward_mu(st, small_problem.schur, cfg, st.w) == solver.backward_mu(
            st, small_problem.schur, cfg
        )
        mu_bar = solver.backward_mu(st, small_problem.schur, cfg)
        w_new = solver.update_w(st, small_problem.schur, cfg, mu_bar)
        mu_next = solver.forward_mu(st, small_problem.schur, cfg, w_new)
        g = central_diff_mu(small_problem.schur, cfg, st.y, w_new, mu_next, st.z)
        assert abs(g) <= 1e-5

    def test_update_w_inverts_trivial_operator(self, toy):
        # with zero vertex maps the operator is the identity and W = -T0,
        # where T0 reduces to -(Y0 + Z0/sigma)
        s = toy.schur
        zeroed = hg.SchurData(
            h0=s.h0, h1=np.zeros_like(s.h1), h2=s.h2, h3=s.h3, p=s.p, r=s.r, N=s.N,
            wsolve=np.eye(s.p * s.p), wsolve_factor=kernels.spd_factor(np.eye(s.p * s.p)),
            tr_h3_sq=s.tr_h3_sq, h0_dot_h3=s.h0_dot_h3,
        )
        cfg = hg.SolverConfig(sigma=2.0)
        rng = np.random.default_rng(6)
        st = random_state(rng, toy)
        w = solver.update_w(st, zeroed, cfg, mu_bar=0.3)
        npt.assert_allclose(w, st.y.y0 + st.z.y0 / cfg.sigma, atol=1e-12)

    def test_t0_zero_gives_w_zero(self, toy):
        # choose Y_i to cancel the constant blocks so T0 vanishes exactly
        cfg = hg.SolverConfig(sigma=1.0)
        st = solver.init(toy.schur, cfg)
        mu_bar = 0.37
        st.y = ConsensusVector(
            np.zeros((2, 2)), (mu_bar * toy.schur.h3 + toy.schur.h0)[None, :, :].copy(), 0.0
        )
        w = solver.update_w(st, toy.schur, cfg, mu_bar)
        npt.assert_allclose(w, 0.0, atol=1e-14)


class TestUpdateZ:
    def test_zero_residual_leaves_z_unchanged(self, small_problem):
        rng = np.random.default_rng(7)
        cfg = hg.SolverConfig(sigma=0.7, tau=1.0)
        st = random_state(rng, small_problem)
        st.y = apply_hmap(small_problem.schur, st.w, st.mu)
        z = solver.update_z(st, small_problem.schur, cfg)
        npt.assert_allclose(z.y0, st.z.y0, atol=1e-12)
        npt.assert_allclose(z.yi, st.z.yi, atol=1e-12)
        assert z.ylast == pytest.approx(st.z.ylast)

    def test_unit_step_equals_primal_residual(self, small_problem):
        # tau * sigma = 1 and Z = 0 make the new Z the primal residual itself
        cfg = hg.SolverConfig(sigma=1.0, tau=1.0)
        rng = np.random.default_rng(8)
        st = random_state(rng, small_problem)
        st.z = solver.cv_zeros(small_problem.schur)
        z = solver.update_z(st, small_problem.schur, cfg)
        h = apply_hmap(small_problem.schur, st.w, st.mu)
        npt.assert_allclose(z.y0, st.y.y0 - h.y0, atol=1e-12)
        npt.assert_allclose(z.yi, st.y.yi - h.yi, atol=1e-12)
        assert z.ylast == pytest.approx(st.y.ylast - h.ylast)

    def test_step_direction_scales_with_tau_sigma(self, small_problem):
        cfg = hg.SolverConfig(sigma=0.4, tau=1.3)
        rng = np.random.default_rng(9)
        st = random_state(rng, small_problem)
        z = solver.update_z(st, small_problem.schur, cfg)
        h = apply_hmap(small_problem.schur, st.w, st.mu)
        step = cfg.tau * cfg.sigma
        npt.assert_allclose(z.y0 - st.z.y0, step * (st.y.y0 - h.y0), atol=1e-12)
        npt.assert_allclose(z.yi - st.z.yi, step * (st.y.yi - h.yi), atol=1e-12)

    def test_symmetry_preserved(self, small_problem):
        rng = np.random.default_rng(10)
        cfg = hg.SolverConfig(sigma=0.7, tau=1.0)
        st = random_state(rng, small_problem)
        z = solver.update_z(st, small_problem.schur, cfg)
        npt.assert_allclose(z.y0, z.y0.T, atol=1e-14)
        npt.assert_allclose(z.yi, z.yi.transpose(0, 2, 1), atol=1e-14)


class TestResiduals:
    def test_all_zero_state(self, toy):
        st = solver.init(toy.schur, hg.SolverConfig())
        err_w, err_mu, err_y, err_eq, err = solver.residuals(st, toy.schur)
        assert err_w == 0.0
        assert err_mu == 0.5  # |1 + 0 + 0| / 2
        assert err_y == 0.0
        assert err_eq > 0.0  # the constant constraint block is nonzero
        assert err == max(err_mu, err_eq)

    def test_analytic_kkt_point_has_zero_residuals(self, toy):
        w_star = np.array([[1.0, 1.0], [1.0, 2.0]])
        mu_star = 2.0
        g_star = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        z1 = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])
        y = ConsensusVector(w_star.copy(), g_star[None, :, :].copy(), mu_star)
        z = ConsensusVector(np.zeros((2, 2)), z1[None, :, :].copy(), 0.0)
        st = solver.init(toy.schur, hg.SolverConfig(), (w_star, mu_star, y, z))
        err_w, err_mu, err_y, err_eq, err = solver.residuals(st, toy.schur)
        assert err_w <= 1e-14
        assert err_mu <= 1e-14
        assert err_y <= 1e-14
        assert err_eq <= 1e-14

    def test_equality_residual_zero_when_consensus_holds(self, small_problem):
        rng = np.random.default_rng(11)
        st = random_state(rng, small_problem)
        st.y = apply_hmap(small_problem.schur, st.w, st.mu)
        _, _, _, err_eq, _ = solver.residuals(st, small_problem.schur)
        assert err_eq <= 1e-14


class TestSolveToy:
    def test_reaches_known_optimum(self, toy_solution):
        assert toy_solution.status == hg.CONVERGED
        assert toy_solution.gamma_star == pytest.approx(np.sqrt(2) / 2, rel=1e-3)
        assert toy_solution.K_star[0, 0] == pytest.approx(1.0, rel=1e-3)
        assert toy_solution.mu_star == pytest.approx(2.0, rel=1e-3)

    def test_history_records_every_iteration(self, toy_solution):
        ks = [h.k for h in toy_solution.history]
        assert ks == list(range(toy_solution.iters + 1))
        final = toy_solution.history[-1]
        assert final.err < 1e-6
        assert final.err == max(final.err_w, final.err_mu, final.err_y, final.err_eq)

    def test_final_iterate_near_feasible(self, toy, toy_solution):
        # converged solutions sit within ~10 eps of the constraint surface
        # for unit-scale problems like this one
        feas = hg.check_feasibility(toy.ext, toy_solution.W_star, toy_solution.mu_star, tol=1e-5)
        assert feas.passed
        assert feas.w_min_eig >= -1e-5

    def test_cone_feasibility_along_iterations(self, toy):
        cfg = hg.SolverConfig(sigma=1.0, tau=1.618, eps=1e-6)
        st = solver.init(toy.schur, cfg)
        for _ in range(25):
            st.y = solver.update_y(st, toy.schur, cfg)
            mu_bar = solver.backward_mu(st, toy.schur, cfg)
            st.w = solver.update_w(st, toy.schur, cfg, mu_bar)
            st.mu = solver.forward_mu(st, toy.schur, cfg, st.w)
            st.z = solver.update_z(st, toy.schur, cfg)
            assert np.linalg.eigvalsh(st.y.y0).min() >= -1e-10
            assert np.linalg.eigvalsh(st.y.yi[0]).min() >= -1e-10
            assert st.y.ylast >= 0.0

    def test_determinism_bitwise(self, toy):
        cfg = hg.SolverConfig(sigma=1.0, tau=1.618, eps=1e-6)
        a = hg.solve(toy.schur, cfg)
        b = hg.solve(toy.schur, cfg)
        assert [tuple(h) for h in a.history] == [tuple(h) for h in b.history]

    def test_max_iters_status(self, toy):
        sol = hg.solve(toy.schur, hg.SolverConfig(sigma=1.0, tau=1.618, eps=1e-14, max_iters=5))
        assert sol.status == hg.MAX_ITERS
        assert sol.iters == 5

    def test_unstabilizable_plant_yields_no_certificate(self):
        # B2 = 0 leaves the unstable mode untouched, so the only point of
        # the feasible set is (W, mu) = (0, 0): depending on which side of
        # zero mu lands at termination the run either reports a numerical
        # failure or a vacuous mu* ~ 0 that certified_attenuation refuses
        plant = hg.PlantModel(A=[[1.0]], B1=[[1.0]], B2=[[0.0]], C=[[1.0], [0.0]], D=[[0.0], [1.0]])
        built = BuiltProblem(plant, hg.UncertaintySpec.none())
        for eps in (1e-8, 1e-6):
            sol = hg.solve(built.schur, hg.SolverConfig(sigma=1.0, tau=1.618, eps=eps, max_iters=2000))
            if sol.status == hg.CONVERGED:
                assert sol.mu_star <= 1e-6
                assert hg.certified_attenuation(built.ext, sol.W_star) is None
            else:
                assert sol.status == hg.NUMERICAL_FAILURE
                assert sol.gamma_star is None or sol.mu_star <= 1e-6


class TestExtractGain:
    def test_zero_cross_block_gives_zero_gain(self):
        w = np.diag([1.0, 2.0, 3.0])
        npt.assert_allclose(solver.extract_gain(w, 2, 1), 0.0)

    def test_published_aircraft_solution(self):
        from conftest import PUBLISHED_EX1

        gain = solver.extract_gain(PUBLISHED_EX1["W_star"], 3, 1)
        npt.assert_allclose(gain, PUBLISHED_EX1["K_star"], rtol=5e-3)

    def test_published_uncertain_solution(self):
        from conftest import PUBLISHED_EX2

        gain = solver.extract_gain(PUBLISHED_EX2["W_star"], 2, 2)
        npt.assert_allclose(gain, PUBLISHED_EX2["K_star"], rtol=5e-3)

    def test_near_singular_state_block_rejected(self):
        w = np.zeros((3, 3))
        w[2, 2] = 1.0
        with pytest.raises(hg.ExtractionError):
            solver.extract_gain(w, 2, 1)

    def test_shape_checked(self):
        with pytest.raises(hg.DimensionError):
            solver.extract_gain(np.eye(3), 3, 1)


class TestSolutionInvariants:
    def test_gamma_is_inverse_sqrt_mu(self, toy_solution):
        assert toy_solution.gamma_star == pytest.approx(
            1.0 / np.sqrt(toy_solution.mu_star), abs=1e-12
        )

    def test_gain_matches_partition(self, toy_solution):
        expected = solver.extract_gain(toy_solution.W_star, 1, 1)
        npt.assert_allclose(toy_solution.K_star, expected)

    def test_sweep_peak_bounded_by_gamma(self, toy, toy_solution):
        cl = hg.closed_loop(toy.plant, toy.vset[0], toy_solution.K_star)
        peak = hg.hinf_sweep(cl).peak
        assert peak <= toy_solution.gamma_star * 1.01
