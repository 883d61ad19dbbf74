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
from hinfgcc.solver import ConsensusVector

import oracles
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
        cv = ConsensusVector.zeros(toy.schur)
        with pytest.raises(hg.DimensionError):
            solver.init(toy.schur, hg.SolverConfig(), (bad, 0.0, cv, cv))


class TestUpdateY:
    def test_zero_state_projects_constant_block(self, toy):
        cfg = hg.SolverConfig(sigma=0.5)
        st = solver.init(toy.schur, cfg)
        y = oracles.update_y(st, toy.schur, cfg)
        npt.assert_allclose(y.y0, 0.0)
        # constraint block at zero is h0, which is already PSD
        npt.assert_allclose(y.yi[0], toy.schur.h0, atol=1e-14)
        assert y.ylast == 0.0

    def test_scalar_projection(self, toy):
        cfg = hg.SolverConfig(sigma=1.0)
        st = solver.init(toy.schur, cfg)
        st.mu = 1.0
        assert oracles.update_y(st, toy.schur, cfg).ylast == 1.0
        st.mu = -1.0
        assert oracles.update_y(st, toy.schur, cfg).ylast == 0.0

    def test_blocks_are_projection_fixed_points(self, small_problem):
        rng = np.random.default_rng(1)
        cfg = hg.SolverConfig(sigma=0.7, tau=1.0)
        for _ in range(5):
            st = random_state(rng, small_problem)
            y = oracles.update_y(st, small_problem.schur, cfg)
            npt.assert_allclose(kernels.project_psd(y.y0), y.y0, atol=1e-10)
            npt.assert_allclose(kernels.project_psd_stack(y.yi), y.yi, atol=1e-10)
            assert y.ylast >= 0.0


def central_diff_mu(schur, cfg, y, w, mu, z):
    h = 1e-6 * (1 + abs(mu))
    up = oracles.lagrangian(schur, cfg, y, w, mu + h, z)
    dn = oracles.lagrangian(schur, cfg, y, w, mu - h, z)
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
                oracles.lagrangian(schur, cfg, y, wp, mu, z)
                - oracles.lagrangian(schur, cfg, y, wm, mu, z)
            ) / (2 * h)
    return grad


class TestSweepUpdates:
    def test_first_iteration_closed_form(self, example2):
        # from the all-zero state the scalar update reduces to
        # 1 / (sigma * (N tr(h3^2) + 1)) because <h0, h3> = 0
        cfg = hg.SolverConfig(sigma=0.1)
        st = solver.init(example2.schur, cfg)
        st.y = oracles.update_y(st, example2.schur, cfg)
        expected = 1.0 / (cfg.sigma * (example2.schur.N * example2.schur.tr_h3_sq + 1.0))
        assert oracles.backward_mu(st, example2.schur, cfg) == pytest.approx(expected)

    def test_no_disturbance_reduces_to_scalar_quadratic(self):
        # with B1 = 0 the mu coupling block vanishes and the stationary point
        # of the remaining 1-d quadratic is sigma^{-1} (1 + sigma ylast + zlast)
        plant = hg.PlantModel(A=[[-1.0]], B1=[[0.0]], B2=[[1.0]], C=[[1.0], [0.0]], D=[[0.0], [1.0]])
        built = BuiltProblem(plant, hg.UncertaintySpec.none())
        assert built.schur.tr_h3_sq == 0.0
        cfg = hg.SolverConfig(sigma=0.5)
        rng = np.random.default_rng(2)
        st = random_state(rng, built)
        got = oracles.backward_mu(st, built.schur, cfg)
        expected = (1.0 + cfg.sigma * st.y.ylast + st.z.ylast) / cfg.sigma
        assert got == pytest.approx(expected, rel=1e-12)

    def test_backward_mu_is_stationary(self, small_problem):
        rng = np.random.default_rng(3)
        cfg = hg.SolverConfig(sigma=0.7, tau=1.0)
        for _ in range(10):
            st = random_state(rng, small_problem)
            st.y = oracles.update_y(st, small_problem.schur, cfg)
            mu_bar = oracles.backward_mu(st, small_problem.schur, cfg)
            g = central_diff_mu(small_problem.schur, cfg, st.y, st.w, mu_bar, st.z)
            assert abs(g) <= 1e-5

    def test_update_w_is_stationary(self, small_problem):
        rng = np.random.default_rng(4)
        cfg = hg.SolverConfig(sigma=0.7, tau=1.0)
        for _ in range(10):
            st = random_state(rng, small_problem)
            st.y = oracles.update_y(st, small_problem.schur, cfg)
            mu_bar = oracles.backward_mu(st, small_problem.schur, cfg)
            w_new = solver.update_w(st, small_problem.schur, cfg, mu_bar)
            grad = central_diff_w(small_problem.schur, cfg, st.y, w_new, mu_bar, st.z)
            assert np.abs(grad).max() <= 1e-5

    def test_forward_mu_is_stationary_and_matches_backward_at_same_w(self, small_problem):
        rng = np.random.default_rng(5)
        cfg = hg.SolverConfig(sigma=0.7, tau=1.0)
        st = random_state(rng, small_problem)
        st.y = oracles.update_y(st, small_problem.schur, cfg)
        # the forward sweep is the backward update evaluated at the new W
        assert solver.forward_mu is solver.backward_mu
        mu_bar = oracles.backward_mu(st, small_problem.schur, cfg)
        w_new = solver.update_w(st, small_problem.schur, cfg, mu_bar)
        mu_next = oracles.forward_mu(st, small_problem.schur, cfg, w_new)
        g = central_diff_mu(small_problem.schur, cfg, st.y, w_new, mu_next, st.z)
        assert abs(g) <= 1e-5

    def test_update_w_inverts_trivial_operator(self, toy):
        # with zero vertex maps the operator is the identity and W = -T0,
        # where T0 reduces to -(Y0 + Z0/sigma)
        s = toy.schur
        zeroed = hg.SchurData(
            h0=s.h0, h1=np.zeros_like(s.h1), h2=s.h2, h3=s.h3, p=s.p, r=s.r, N=s.N,
            wsolve_inv=kernels.spd_factor(np.eye(s.p * s.p)),
            tr_h3_sq=s.tr_h3_sq,
        )
        assert np.trace(zeroed.h0 @ zeroed.h3) == 0.0
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
        st.y = oracles.consensus_map(small_problem.schur, st)
        z = oracles.update_z(st, small_problem.schur, cfg)
        npt.assert_allclose(z.y0, st.z.y0, atol=1e-12)
        npt.assert_allclose(z.yi, st.z.yi, atol=1e-12)
        assert z.ylast == pytest.approx(st.z.ylast)

    def test_unit_step_equals_primal_residual(self, small_problem):
        # tau * sigma = 1 and Z = 0 make the new Z the primal residual itself
        cfg = hg.SolverConfig(sigma=1.0, tau=1.0)
        rng = np.random.default_rng(8)
        st = random_state(rng, small_problem)
        st.z = ConsensusVector.zeros(small_problem.schur)
        z = oracles.update_z(st, small_problem.schur, cfg)
        h = oracles.consensus_map(small_problem.schur, st)
        npt.assert_allclose(z.y0, st.y.y0 - h.y0, atol=1e-12)
        npt.assert_allclose(z.yi, st.y.yi - h.yi, atol=1e-12)
        assert z.ylast == pytest.approx(st.y.ylast - h.ylast)

    def test_step_direction_scales_with_tau_sigma(self, small_problem):
        cfg = hg.SolverConfig(sigma=0.4, tau=1.3)
        rng = np.random.default_rng(9)
        st = random_state(rng, small_problem)
        z = oracles.update_z(st, small_problem.schur, cfg)
        h = oracles.consensus_map(small_problem.schur, st)
        step = cfg.tau * cfg.sigma
        npt.assert_allclose(z.y0 - st.z.y0, step * (st.y.y0 - h.y0), atol=1e-12)
        npt.assert_allclose(z.yi - st.z.yi, step * (st.y.yi - h.yi), atol=1e-12)

    def test_symmetry_preserved(self, small_problem):
        rng = np.random.default_rng(10)
        cfg = hg.SolverConfig(sigma=0.7, tau=1.0)
        st = random_state(rng, small_problem)
        z = oracles.update_z(st, small_problem.schur, cfg)
        npt.assert_allclose(z.y0, z.y0.T, atol=1e-14)
        npt.assert_allclose(z.yi, z.yi.transpose(0, 2, 1), atol=1e-14)


class TestResiduals:
    def test_all_zero_state(self, toy):
        st = solver.init(toy.schur, hg.SolverConfig())
        err_w, err_mu, err_y, err_eq, err = oracles.residuals(st, toy.schur)
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
        err_w, err_mu, err_y, err_eq, err = oracles.residuals(st, toy.schur)
        assert err_w <= 1e-14
        assert err_mu <= 1e-14
        assert err_y <= 1e-14
        assert err_eq <= 1e-14

    def test_equality_residual_zero_when_consensus_holds(self, small_problem):
        rng = np.random.default_rng(11)
        st = random_state(rng, small_problem)
        st.y = oracles.consensus_map(small_problem.schur, st)
        _, _, _, err_eq, _ = oracles.residuals(st, small_problem.schur)
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
            st.y = oracles.update_y(st, toy.schur, cfg)
            mu_bar = oracles.backward_mu(st, toy.schur, cfg)
            st.w = solver.update_w(st, toy.schur, cfg, mu_bar)
            st.mu = oracles.forward_mu(st, toy.schur, cfg, st.w)
            st.z = oracles.update_z(st, toy.schur, cfg)
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


class TestNonFiniteIterates:
    """Extreme penalties overflow the iterates; the run must end in a status."""

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-6])
    @pytest.mark.parametrize("sigma", [1e-200, 1e-30, 1e200])
    def test_extreme_sigma_never_converges(self, toy, sigma, eps):
        with np.errstate(all="ignore"):
            sol = hg.solve(toy.schur, hg.SolverConfig(sigma=sigma, eps=eps, max_iters=2000))
        assert sol.status != hg.CONVERGED
        assert [h.k for h in sol.history] == list(range(sol.iters + 1))

    @pytest.mark.parametrize("sigma", [1e-200, 1e200])
    def test_overflow_is_a_numerical_failure(self, toy, sigma):
        with np.errstate(all="ignore"):
            sol = hg.solve(toy.schur, hg.SolverConfig(sigma=sigma))
        assert sol.status == hg.NUMERICAL_FAILURE
        assert sol.gamma_star is None  # a failed run has no gamma estimate

    @pytest.mark.parametrize("bad", ["W", "Z"])
    def test_nan_start_is_a_numerical_failure(self, toy, bad):
        w = np.full((2, 2), np.nan) if bad == "W" else np.eye(2)
        z = ConsensusVector.zeros(toy.schur)
        if bad == "Z":
            z.yi[0, 0, 0] = np.nan
        sol = hg.solve(toy.schur, hg.SolverConfig(), (w, 1.0, ConsensusVector.zeros(toy.schur), z))
        assert sol.status == hg.NUMERICAL_FAILURE
        assert sol.iters == 0 and sol.history == []
        assert (sol.K_star is None) == (bad == "W")


# --- frozen copy of the unfused iteration ------------------------------------
#
# One ADMM iteration as the loop performed it before the constraint map was
# shared, the two vertex projections batched and the consensus vectors made
# flat: every step rebuilds what it needs from (W, mu, Y, Z), with np.clip and
# the W solve written out as a product with the operator's inverse. solve()
# must reproduce its W and mu bit for bit.


def _ref_project_psd(s):
    s = (s + s.T) / 2.0
    w, v = np.linalg.eigh(s)
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    out = (v * np.clip(w, 0.0, None)) @ v.T
    return (out + out.T) / 2.0


def _ref_project_stack(stack):
    stack = (stack + np.swapaxes(stack, -1, -2)) / 2.0
    w, v = np.linalg.eigh(stack)
    out = v @ (np.clip(w, 0.0, None)[..., None] * np.swapaxes(v, -1, -2))
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def _ref_g_all(s, w, mu):
    lin = s.h1 @ w @ s.h2
    lin = lin + (s.h2.T @ w) @ s.h1.transpose(0, 2, 1)
    return lin + mu * s.h3 + s.h0


def _ref_mu(s, sigma, w, y, z):
    lin = s.h1 @ w @ s.h2
    lin = lin + (s.h2.T @ w) @ s.h1.transpose(0, 2, 1)
    inner = float(np.einsum("irs,rs->", lin - y[1] - z[1] / sigma, s.h3))
    num = 1.0 - sigma * inner + sigma * y[2] + z[2] - sigma * s.N * float(np.trace(s.h0 @ s.h3))
    return num / (sigma * (s.N * s.tr_h3_sq + 1.0))


def _ref_sq(blocks):
    return float(np.sum(blocks[0] ** 2)) + float(np.sum(blocks[1] ** 2)) + blocks[2] ** 2


def _ref_residuals(s, w, mu, y, z):
    h1t = s.h1.transpose(0, 2, 1)
    per_vertex = h1t @ z[1] @ s.h2.T + s.h2 @ z[1] @ s.h1
    grad_w = z[0] + per_vertex.sum(axis=0)
    den_w = 1.0 + np.linalg.norm(z[0]) + float(np.linalg.norm(per_vertex, axis=(1, 2)).sum())
    err_w = float(np.linalg.norm(grad_w)) / den_w
    err_mu = abs(1.0 + z[2] + float(np.einsum("irs,rs->", z[1], s.h3))) / 2.0
    proj = (
        _ref_project_psd(y[0] - z[0]),
        _ref_project_stack(y[1] - z[1]),
        max(y[2] - z[2], 0.0),
    )
    norm_y, norm_z = np.sqrt(_ref_sq(y)), np.sqrt(_ref_sq(z))
    err_y = np.sqrt(_ref_sq([a - b for a, b in zip(y, proj)])) / (1.0 + norm_y + norm_z)
    h = (w, _ref_g_all(s, w, mu), mu)
    err_eq = np.sqrt(_ref_sq([a - b for a, b in zip(y, h)])) / (1.0 + norm_y + np.sqrt(_ref_sq(h)))
    return err_w, err_mu, err_y, err_eq


def _ref_run(s, cfg, iters):
    """(W, mu, rows) after `iters` unfused iterations from the zero state."""
    sigma, step = cfg.sigma, cfg.tau * cfg.sigma
    w, mu = np.zeros((s.p, s.p)), 0.0
    y = (np.zeros((s.p, s.p)), np.zeros((s.N, s.r, s.r)), 0.0)
    z = (np.zeros((s.p, s.p)), np.zeros((s.N, s.r, s.r)), 0.0)
    rows = [_ref_residuals(s, w, mu, y, z)]
    for _ in range(iters):
        y = (
            _ref_project_psd(w - z[0] / sigma),
            _ref_project_stack(_ref_g_all(s, w, mu) - z[1] / sigma),
            max(mu - z[2] / sigma, 0.0),
        )
        mu_bar = _ref_mu(s, sigma, w, y, z)
        mid = mu_bar * s.h3 + s.h0 - y[1] - z[1] / sigma
        t = (s.h1.transpose(0, 2, 1) @ mid @ s.h2.T).sum(axis=0)
        t0 = -y[0] - z[0] / sigma + t + t.T
        w_vec = -(s.wsolve_inv @ t0.reshape(-1, order="F"))
        w = w_vec.reshape((s.p, s.p), order="F")
        w = (w + w.T) / 2.0
        mu = _ref_mu(s, sigma, w, y, z)
        g = _ref_g_all(s, w, mu)
        z0 = z[0] + step * (y[0] - w)
        zi = z[1] + step * (y[1] - g)
        z = ((z0 + z0.T) / 2.0, (zi + zi.transpose(0, 2, 1)) / 2.0, z[2] + step * (y[2] - mu))
        rows.append(_ref_residuals(s, w, mu, y, z))
    return w, mu, rows


class TestFusedIterationMatchesReference:
    @pytest.mark.parametrize(
        "name, cfg",
        [
            ("toy", hg.SolverConfig(sigma=1.0, tau=1.618, eps=1e-14, max_iters=20)),
            ("example2", hg.SolverConfig(sigma=0.1, tau=0.618, eps=1e-14, max_iters=20)),
        ],
    )
    def test_iterates_bitwise_and_residuals_close(self, request, name, cfg):
        s = request.getfixturevalue(name).schur
        sol = hg.solve(s, cfg)
        w, mu, rows = _ref_run(s, cfg, cfg.max_iters)
        assert sol.status == hg.MAX_ITERS and sol.iters == cfg.max_iters
        assert sol.W_star.tobytes() == w.tobytes()
        assert sol.mu_star == mu
        got = np.array([h[1:5] for h in sol.history])
        npt.assert_allclose(got, np.array(rows), rtol=1e-12, atol=0.0)
        assert [h.err for h in sol.history] == [max(h[1:5]) for h in sol.history]


class TestResidualsFromDefinition:
    def test_random_states_with_indefinite_blocks(self, small_problem):
        s = small_problem.schur
        rng = np.random.default_rng(12)
        for trial in range(20):
            st = random_state(rng, small_problem)
            if trial % 2:  # leave the cone: Y blocks indefinite, ylast negative
                st.y.y0[...] = kernels.symmetrize(rng.standard_normal((s.p, s.p)))
                a = rng.standard_normal((s.N, s.r, s.r))
                st.y.yi[...] = (a + a.transpose(0, 2, 1)) / 2
                st.y.ylast = -abs(float(rng.standard_normal()))
                assert np.linalg.eigvalsh(st.y.yi).min() < 0.0
            y = (st.y.y0, st.y.yi, st.y.ylast)
            z = (st.z.y0, st.z.yi, st.z.ylast)
            # projections by explicit eigendecomposition of Y - Z
            proj = [np.zeros_like(st.y.y0), np.zeros_like(st.y.yi), max(y[2] - z[2], 0.0)]
            for blk, (a, b) in enumerate(((y[0], z[0]),) + tuple(zip(y[1], z[1]))):
                lam, vec = np.linalg.eigh(a - b)
                p = vec @ np.diag(np.maximum(lam, 0.0)) @ vec.T
                if blk == 0:
                    proj[0] = p
                else:
                    proj[1][blk - 1] = p
            g = np.stack([oracles.eval_g(s, i, st.w, st.mu) for i in range(s.N)])

            def norm(parts):
                return np.sqrt(sum(float(np.sum(np.square(q))) for q in parts))

            grad = z[0] + sum(
                s.h1[i].T @ z[1][i] @ s.h2.T + s.h2 @ z[1][i] @ s.h1[i] for i in range(s.N)
            )
            den = 1.0 + norm([z[0]]) + sum(
                norm([s.h1[i].T @ z[1][i] @ s.h2.T + s.h2 @ z[1][i] @ s.h1[i]]) for i in range(s.N)
            )
            expected = (
                norm([grad]) / den,
                abs(1.0 + z[2] + sum(float(np.sum(z[1][i] * s.h3)) for i in range(s.N))) / 2.0,
                norm([y[0] - proj[0], y[1] - proj[1], y[2] - proj[2]])
                / (1.0 + norm(y) + norm(z)),
                norm([y[0] - st.w, y[1] - g, y[2] - st.mu]) / (1.0 + norm(y) + norm([st.w, g, st.mu])),
            )
            got = oracles.residuals(st, s)
            npt.assert_allclose(got[:4], expected, rtol=1e-12, atol=1e-15)
            assert got[4] == max(got[:4])


class TestBatchedProjectionFallback:
    """A failed batched projection must leave status, iters and history as the
    unbatched order would have them."""

    @staticmethod
    def flaky(monkeypatch, n_blocks, fail_pair_at, fail_target):
        """Fail batched pair call number `fail_pair_at`; with fail_target, also
        fail the second N-block call after it, which is the Y step's own
        projection of the target (the first is the fallback's Y - Z half)."""
        real = kernels.project_psd_stack
        seen = {"pairs": 0, "after": None}

        def fake(stack):
            if len(stack) == 2 * n_blocks:
                seen["pairs"] += 1
                if seen["pairs"] == fail_pair_at:
                    seen["after"] = 0
                    raise np.linalg.LinAlgError("injected")
            elif seen["after"] is not None:
                seen["after"] += 1
                if fail_target and seen["after"] == 2:
                    raise np.linalg.LinAlgError("injected")
            return real(stack)

        monkeypatch.setattr(kernels, "project_psd_stack", fake)

    def test_spurious_failure_changes_nothing(self, toy, monkeypatch):
        cfg = hg.SolverConfig(sigma=1.0, tau=1.618, eps=1e-6)
        clean = hg.solve(toy.schur, cfg)
        self.flaky(monkeypatch, toy.schur.N, fail_pair_at=5, fail_target=False)
        sol = hg.solve(toy.schur, cfg)
        assert sol.status == clean.status and sol.iters == clean.iters
        assert sol.W_star.tobytes() == clean.W_star.tobytes()
        assert [tuple(h) for h in sol.history] == [tuple(h) for h in clean.history]

    def test_target_failure_surfaces_in_next_y_step(self, toy, monkeypatch):
        cfg = hg.SolverConfig(sigma=1.0, tau=1.618, eps=1e-6)
        clean = hg.solve(toy.schur, cfg)
        # pair call j + 1 is made after iteration j; its target half feeds
        # iteration j + 1, which therefore fails and leaves rows 0..j
        self.flaky(monkeypatch, toy.schur.N, fail_pair_at=8, fail_target=True)
        sol = hg.solve(toy.schur, cfg)
        assert sol.status == hg.NUMERICAL_FAILURE and sol.iters == 7
        assert [tuple(h) for h in sol.history] == [tuple(h) for h in clean.history[:8]]

    def test_converged_row_stays_converged(self, toy, monkeypatch):
        cfg = hg.SolverConfig(sigma=1.0, tau=1.618, eps=1e-6)
        clean = hg.solve(toy.schur, cfg)
        self.flaky(monkeypatch, toy.schur.N, fail_pair_at=clean.iters + 1, fail_target=True)
        sol = hg.solve(toy.schur, cfg)
        assert sol.status == hg.CONVERGED and sol.iters == clean.iters
        assert sol.W_star.tobytes() == clean.W_star.tobytes()


class TestPinnedIterationCounts:
    def test_published_settings(self, example1_published_solution, example2_published_solution):
        assert example1_published_solution.iters == 7333
        assert example2_published_solution.iters == 357
