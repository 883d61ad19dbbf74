"""ADMM loop mechanics: projections, sweep updates, residuals, termination.

The scalar toy plant (A = -1, B2 = 1, B1 = 1, C = [1;0], D = [0;1]) has a
known optimum mu* = 2, K* = 1, and an analytic KKT quadruple used below:
W* = [[1,1],[1,2]], Y* = (W*, G*, 2) with G* the constraint block at the
optimum, and multipliers Z* = (0, 3 v v^T, 0) for v = (1,-1,-1)/sqrt(3).
"""

import gc
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import hinfgcc as hg
from hinfgcc import kernels, solver
from hinfgcc.solver import ConsensusVector

import oracles
from conftest import PUBLISHED_EX1, PUBLISHED_EX2, BuiltProblem


def random_state(rng, built, scale=1.0):
    """Random in-cone Y, random symmetric Z, random symmetric W."""
    s = built.schur
    w = rng.standard_normal((s.p, s.p)) * scale
    w = (w + w.T) / 2
    mu = float(rng.standard_normal())
    y = (
        kernels.project_psd(rng.standard_normal((s.p, s.p))),
        kernels.project_psd_stack(rng.standard_normal((s.N, s.r, s.r))),
        abs(float(rng.standard_normal())),
    )
    z = (
        kernels.symmetrize(rng.standard_normal((s.p, s.p))),
        (lambda a: (a + a.transpose(0, 2, 1)) / 2)(rng.standard_normal((s.N, s.r, s.r))),
        float(rng.standard_normal()),
    )
    return oracles.make_state(s, w, mu, y, z)


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

    @pytest.mark.parametrize("kwargs", [
        {"sigma": 0.0}, {"eps": 0.0}, {"max_iters": 0}, {"tau": 0.0},
        {"sigma": np.inf}, {"sigma": np.nan}, {"sigma": 10**400}, {"eps": np.inf}, {"eps": np.nan},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            hg.SolverConfig(**kwargs)

    def test_defaults_valid(self):
        cfg = hg.SolverConfig()
        assert cfg.tau == 1.618 and cfg.sigma > 0


class TestConsensusVector:
    def test_constructor_wraps_without_copy(self, small_problem):
        s = small_problem.schur
        flat = np.arange(s.p * s.p + s.N * s.r * s.r + 1, dtype=float)
        v = ConsensusVector(flat, s.p, s.r)
        assert v.flat is flat
        assert np.shares_memory(v.y0, flat) and np.shares_memory(v.yi, flat)
        assert v.y0.shape == (s.p, s.p) and v.yi.shape == (s.N, s.r, s.r)
        assert v.y0[0, 1] == 1.0 and v.yi[0, 0, 1] == s.p * s.p + 1
        assert v.ylast == flat[-1]


class TestInit:
    def test_state_blocks_share_no_memory(self, toy):
        st = solver.SolverState(toy.schur)
        assert not np.shares_memory(st.y.flat, st.z.flat)
        assert not np.shares_memory(st.w, st.y.flat) and not np.shares_memory(st.w, st.z.flat)
        assert not np.shares_memory(st.pairi, st.proj)

    def test_default_start_is_zero(self, toy):
        st = solver.SolverState(toy.schur)
        assert not st.w.any() and st.mu == 0.0
        assert not st.y.y0.any() and not st.y.yi.any() and st.y.ylast == 0.0
        assert not st.z.y0.any() and st.k == 0
        assert not st.rows.any() and st.history_len == 0
        s = toy.schur
        assert st.pair0.shape == (2, s.p, s.p)
        assert st.pairi.shape == st.proj.shape == (2 * s.N, s.r, s.r)


class TestWorkspace:
    """Each solve writes Y, Z and h into the rows of one workspace, and the
    projection pairs into stacks, that its state allocates once."""

    @pytest.mark.parametrize("name, config", [
        ("toy", hg.SolverConfig(sigma=1.0, tau=1.618, eps=1e-6)),
        ("example2", hg.SolverConfig(
            sigma=PUBLISHED_EX2["sigma"], tau=PUBLISHED_EX2["tau"], eps=PUBLISHED_EX2["eps"])),
    ], ids=["toy", "example2"])
    def test_y_z_and_h_keep_their_buffers_at_every_row(self, request, monkeypatch, name, config):
        built = request.getfixturevalue(name)
        step = solver.update_z
        project_psd, project_psd_stack = kernels.project_psd, kernels.project_psd_stack
        seen, states, pairs0, pairsi = [], [], [], []

        def recording(state, cfg, h):
            z = step(state, cfg, h)
            vectors = (state.y, z, h)
            assert all(np.shares_memory(v.flat, state.rows) for v in vectors)
            seen.append(tuple(v.flat.ctypes.data for v in vectors))
            states.append(state)
            return z

        def psd(stack):
            pairs0.append(stack)
            return project_psd(stack)

        def psd_stack(stack, **kwargs):
            pairsi.append((stack, kwargs["out"]))
            return project_psd_stack(stack, **kwargs)

        monkeypatch.setattr(solver, "update_z", recording)
        monkeypatch.setattr(kernels, "project_psd", psd)
        monkeypatch.setattr(kernels, "project_psd_stack", psd_stack)
        sol = hg.solve(built.schur, config)
        assert sol.status == hg.CONVERGED
        assert len(seen) == sol.iters and len(set(seen)) == 1
        assert len(set(seen[0])) == 3
        # one state over the run, and rows 0..iters project into its own stacks
        st = states[0]
        assert all(s is st for s in states)
        assert len(pairs0) == len(pairsi) == sol.iters + 1
        assert all(a is st.pair0 for a in pairs0)
        assert all(a is st.pairi and out is st.proj for a, out in pairsi)


class TestUpdateY:
    def test_zero_state_projects_constant_block(self, toy):
        cfg = hg.SolverConfig(sigma=0.5)
        st = solver.SolverState(toy.schur)
        y = oracles.update_y(st, toy.schur, cfg)
        npt.assert_allclose(y.y0, 0.0)
        # constraint block at zero is h0, which is already PSD
        npt.assert_allclose(y.yi[0], toy.schur.h0, atol=1e-14)
        assert y.ylast == 0.0

    def test_scalar_projection(self, toy):
        cfg = hg.SolverConfig(sigma=1.0)
        st = solver.SolverState(toy.schur)
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
        st = solver.SolverState(example2.schur)
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
            w_new = oracles.update_w(st, small_problem.schur, cfg, mu_bar)
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
        w_new = oracles.update_w(st, small_problem.schur, cfg, mu_bar)
        mu_next = oracles.forward_mu(st, small_problem.schur, cfg, w_new)
        g = central_diff_mu(small_problem.schur, cfg, st.y, w_new, mu_next, st.z)
        assert abs(g) <= 1e-5

    def test_update_w_inverts_trivial_operator(self, toy):
        # with zero vertex maps the operator is the identity and W = -T0,
        # where T0 reduces to -(Y0 + Z0/sigma)
        s = toy.schur
        zeroed = hg.SchurData(
            h0=s.h0, h1=np.zeros_like(s.h1), h2=s.h2, h3=s.h3,
            wsolve_inv=kernels.spd_factor(np.eye(s.p * s.p)),
            tr_h3_sq=s.tr_h3_sq,
        )
        assert np.trace(zeroed.h0 @ zeroed.h3) == 0.0
        cfg = hg.SolverConfig(sigma=2.0)
        rng = np.random.default_rng(6)
        st = random_state(rng, toy)
        w = oracles.update_w(st, zeroed, cfg, mu_bar=0.3)
        npt.assert_allclose(w, st.y.y0 + st.z.y0 / cfg.sigma, atol=1e-12)

    def test_t0_zero_gives_w_zero(self, toy):
        # choose Y_i to cancel the constant blocks so T0 vanishes exactly
        cfg = hg.SolverConfig(sigma=1.0)
        st = solver.SolverState(toy.schur)
        mu_bar = 0.37
        st.y.yi[...] = mu_bar * toy.schur.h3 + toy.schur.h0
        w = oracles.update_w(st, toy.schur, cfg, mu_bar)
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
        st.z.flat[...] = 0.0
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
        st = solver.SolverState(toy.schur)
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
        y = (w_star, g_star, mu_star)
        z = (np.zeros((2, 2)), z1, 0.0)
        st = oracles.make_state(toy.schur, w_star, mu_star, y, z)
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


class TestStructuredSteps:
    """update_w and residuals use that h2 = [I_n 0] and that Z is exactly
    symmetric: W and err_W are byte-equal to the dense products."""

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_update_w_is_byte_equal_to_dense(self, request, name):
        built = request.getfixturevalue(name)
        cfg = hg.SolverConfig(sigma=0.3, tau=1.0)
        rng = np.random.default_rng(44)
        for _ in range(3):
            st = random_state(rng, built)
            zs = ConsensusVector(st.z.flat / cfg.sigma, built.schur.p, built.schur.r)
            mu_bar = float(rng.standard_normal())
            w = solver.update_w(st, built.schur, mu_bar, zs)
            assert w.tobytes() == oracles.update_w_dense(st, built.schur, mu_bar, zs).tobytes()

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_err_w_is_byte_equal_to_dense(self, request, name):
        built = request.getfixturevalue(name)
        rng = np.random.default_rng(45)
        for _ in range(3):
            st = random_state(rng, built)
            err_w = oracles.residuals(st, built.schur)[0]
            assert err_w == oracles.err_w_dense(st, built.schur)


class TestExactSymmetry:
    """update_z does not re-symmetrize its step: Y, the consensus map h and
    the Z step have exactly symmetric blocks at every iteration."""

    @pytest.mark.parametrize("name, config", [
        ("toy", hg.SolverConfig(sigma=1.0, tau=1.618, eps=1e-6)),
        ("example1", hg.SolverConfig(
            sigma=PUBLISHED_EX1["sigma"], tau=PUBLISHED_EX1["tau"], eps=PUBLISHED_EX1["eps"])),
        ("example2", hg.SolverConfig(
            sigma=PUBLISHED_EX2["sigma"], tau=PUBLISHED_EX2["tau"], eps=PUBLISHED_EX2["eps"])),
    ], ids=["toy", "example1", "example2"])
    def test_blocks_equal_their_transposes_at_every_row(self, request, monkeypatch, name, config):
        built = request.getfixturevalue(name)
        step = solver.update_z
        rows = []

        def checked(state, cfg, h):
            z = step(state, cfg, h)
            rows.append(all(
                np.array_equal(v.y0, v.y0.T) and np.array_equal(v.yi, v.yi.transpose(0, 2, 1))
                for v in (state.y, h, z)
            ))
            return z

        monkeypatch.setattr(solver, "update_z", checked)
        sol = hg.solve(built.schur, config)
        assert sol.status == hg.CONVERGED
        assert len(rows) == sol.iters and all(rows)


class TestSolveToy:
    def test_reaches_known_optimum(self, toy_solution):
        assert toy_solution.status == hg.CONVERGED
        assert toy_solution.gamma_star == pytest.approx(np.sqrt(2) / 2, rel=1e-3)
        assert toy_solution.K_star[0, 0] == pytest.approx(1.0, rel=1e-3)
        assert toy_solution.mu_star == pytest.approx(2.0, rel=1e-3)

    def test_history_records_every_iteration(self, toy_solution):
        assert len(toy_solution.history) == toy_solution.iters + 1
        final = toy_solution.history[-1]
        assert final["err"] < 1e-6
        assert final["err"] == max(final["err_W"], final["err_mu"], final["err_Y"], final["err_eq"])

    def test_final_iterate_near_feasible(self, toy, toy_solution):
        # converged solutions sit within ~10 eps of the constraint surface
        # for unit-scale problems like this one
        feas = hg.check_feasibility(toy.ext, toy_solution.W_star, toy_solution.mu_star, tol=1e-5)
        assert feas.passed
        assert feas.w_min_eig >= -1e-5

    def test_cone_feasibility_along_iterations(self, toy):
        cfg = hg.SolverConfig(sigma=1.0, tau=1.618, eps=1e-6)
        st = solver.SolverState(toy.schur)
        for _ in range(25):
            st.y = oracles.update_y(st, toy.schur, cfg)
            mu_bar = oracles.backward_mu(st, toy.schur, cfg)
            st.w = oracles.update_w(st, toy.schur, cfg, mu_bar)
            st.mu = oracles.forward_mu(st, toy.schur, cfg, st.w)
            st.z = oracles.update_z(st, toy.schur, cfg)
            assert np.linalg.eigvalsh(st.y.y0).min() >= -1e-10
            assert np.linalg.eigvalsh(st.y.yi[0]).min() >= -1e-10
            assert st.y.ylast >= 0.0

    def test_determinism_bitwise(self, toy):
        cfg = hg.SolverConfig(sigma=1.0, tau=1.618, eps=1e-6)
        a = hg.solve(toy.schur, cfg)
        b = hg.solve(toy.schur, cfg)
        assert a.history.tobytes() == b.history.tobytes()

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


class TestHistory:
    """Solution.history is a structured array of HISTORY_DTYPE, one row per
    iteration with k as the row index."""

    def test_retains_under_80_bytes_per_row(self, toy):
        # a fixed-length run: eps is never met, so the run makes 2,001 rows;
        # tracemalloc slows the loop about tenfold, so it is not longer
        cfg = hg.SolverConfig(sigma=1.0, tau=1.618, eps=1e-300, max_iters=2000)
        hg.solve(toy.schur, hg.SolverConfig(max_iters=3))  # warm numpy's caches
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sol = hg.solve(toy.schur, cfg)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(sol.history) == 2001
        assert retained / len(sol.history) <= 80.0

    def test_array_contract(self, toy_solution):
        h = toy_solution.history
        assert h.dtype == solver.HISTORY_DTYPE
        assert h.dtype.names == ("err_W", "err_mu", "err_Y", "err_eq", "err", "mu")
        assert h.shape == (toy_solution.iters + 1,)
        four = np.column_stack([h["err_W"], h["err_mu"], h["err_Y"], h["err_eq"]])
        assert np.array_equal(h["err"], four.max(axis=1))
        assert h[-1]["mu"] == toy_solution.mu_star


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

    def test_indefinite_state_block_rejected(self):
        # W1 = diag(-1, 1) is perfectly conditioned but has no Cholesky factor
        w = np.diag([-1.0, 1.0, 1.0])
        w[0, 2] = w[2, 0] = 0.5
        assert np.linalg.cond(w[:2, :2]) == 1.0
        with pytest.raises(hg.ExtractionError):
            solver.extract_gain(w, 2, 1)


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

    @pytest.mark.parametrize("name, sigma, eps", [
        *(pytest.param("toy", s, e, id=f"{s}-{e}")
          for e in (1e-3, 1e-4, 1e-6) for s in (1e-200, 1e-30, 1e200)),
        # every norm grows to about 1e27, so the relative residuals meet eps
        # at mu ~ 2e17 and a W whose state block is indefinite
        pytest.param("example2", 1e-30, 1e-6, id="example2-1e-30-1e-06"),
    ])
    def test_extreme_sigma_never_converges(self, request, name, sigma, eps):
        schur = request.getfixturevalue(name).schur
        with np.errstate(all="ignore"):
            sol = hg.solve(schur, hg.SolverConfig(sigma=sigma, eps=eps, max_iters=2000))
        assert sol.status != hg.CONVERGED
        assert sol.K_star is None
        assert len(sol.history) == sol.iters + 1

    @pytest.mark.parametrize("sigma", [1e-200, 1e200])
    def test_overflow_is_a_numerical_failure(self, toy, sigma):
        with np.errstate(all="ignore"):
            sol = hg.solve(toy.schur, hg.SolverConfig(sigma=sigma))
        assert sol.status == hg.NUMERICAL_FAILURE
        assert sol.gamma_star is None  # a failed run has no gamma estimate

    @pytest.mark.parametrize("bad", ["W", "Z"])
    def test_nan_start_is_a_numerical_failure(self, toy, bad, monkeypatch):
        w = np.full((2, 2), np.nan) if bad == "W" else np.eye(2)
        start = solver.SolverState(toy.schur)
        start.w, start.mu = w, 1.0
        if bad == "Z":
            start.z.yi[0, 0, 0] = np.nan
        monkeypatch.setattr(solver, "SolverState", lambda schur: start)
        sol = hg.solve(toy.schur, hg.SolverConfig())
        assert sol.status == hg.NUMERICAL_FAILURE
        assert sol.iters == 0 and sol.history.shape == (0,)
        assert sol.history.dtype == solver.HISTORY_DTYPE
        # a failed run reports no gain, whatever W it stopped at
        assert sol.K_star is None


# --- frozen copy of the unfused iteration ------------------------------------
#
# One ADMM iteration as the loop performed it before the constraint map was
# shared, the two vertex projections batched and the consensus vectors made
# flat: every step rebuilds what it needs from (W, mu, Y, Z), with np.clip and
# the W solve written out as a product with the operator's inverse. Its vertex
# projection skips the eigensolver for the blocks a per-block Cholesky
# factorization accepts, as kernels.project_psd_stack does with its batched
# screen. solve() must reproduce its W and mu bit for bit.


def _ref_project_psd(s):
    s = (s + s.T) / 2.0
    w, v = np.linalg.eigh(s)
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    out = (v * np.clip(w, 0.0, None)) @ v.T
    return (out + out.T) / 2.0


def _ref_project_stack(stack):
    """Blocks with a Cholesky factor are their own projection; the rest are
    clipped through one batched eigendecomposition."""
    stack = (stack + np.swapaxes(stack, -1, -2)) / 2.0
    rest = np.ones(len(stack), dtype=bool)
    for i, blk in enumerate(stack):
        try:
            np.linalg.cholesky(blk)
            rest[i] = False
        except np.linalg.LinAlgError:
            pass
    if rest.any():
        w, v = np.linalg.eigh(stack[rest])
        out = v @ (np.clip(w, 0.0, None)[..., None] * np.swapaxes(v, -1, -2))
        stack[rest] = (out + np.swapaxes(out, -1, -2)) / 2.0
    return stack


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
            ("example1", hg.SolverConfig(sigma=0.001, tau=0.618, eps=1e-14, max_iters=20)),
        ],
    )
    def test_iterates_bitwise_and_residuals_close(self, request, name, cfg):
        s = request.getfixturevalue(name).schur
        sol = hg.solve(s, cfg)
        w, mu, rows = _ref_run(s, cfg, cfg.max_iters)
        assert sol.status == hg.MAX_ITERS and sol.iters == cfg.max_iters
        assert sol.W_star.tobytes() == w.tobytes()
        assert sol.mu_star == mu
        h = sol.history
        got = np.column_stack([h["err_W"], h["err_mu"], h["err_Y"], h["err_eq"]])
        npt.assert_allclose(got, np.array(rows), rtol=1e-12, atol=0.0)
        assert np.array_equal(h["err"], got.max(axis=1))


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
                st.y.flat[-1] = -abs(float(rng.standard_normal()))
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


class TestProjectionBreakdown:
    @pytest.mark.parametrize("j", [1, 2, 8])
    @pytest.mark.parametrize("name", ["project_psd", "project_psd_stack"])
    def test_breakdown_ends_the_run_at_that_row(self, toy, monkeypatch, name, j):
        """The solver calls each kernel once per row, on a stack of Y - Z and
        the next Y step's targets; call j belongs to row j - 1, so a
        breakdown there leaves the clean run's rows 0..j - 2."""
        cfg = hg.SolverConfig(sigma=1.0, tau=1.618, eps=1e-6)
        clean = hg.solve(toy.schur, cfg)
        real = getattr(kernels, name)
        calls = {"n": 0}

        def fake(stack, **kwargs):
            calls["n"] += 1
            if calls["n"] == j:
                raise np.linalg.LinAlgError("injected")
            return real(stack, **kwargs)

        monkeypatch.setattr(kernels, name, fake)
        sol = hg.solve(toy.schur, cfg)
        assert sol.status == hg.NUMERICAL_FAILURE
        assert sol.iters == max(j - 2, 0)
        assert sol.K_star is None
        assert sol.history.tobytes() == clean.history[: j - 1].tobytes()


class TestPinnedIterationCounts:
    def test_published_settings(self, example1_published_solution, example2_published_solution):
        assert example1_published_solution.iters == 7333
        assert example2_published_solution.iters == 357


class TestTracerCallingForm:
    def test_vertex_projection_gets_the_stack_as_its_only_positional_argument(self, toy, monkeypatch):
        """The benchmark's tracer counts the units of this wrap point as
        len(*args), so a second positional argument breaks every traced run."""
        real = kernels.project_psd_stack
        positional = []

        def recording(*args, **kwargs):
            positional.append(len(args))
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, "project_psd_stack", recording)
        sol = hg.solve(toy.schur, hg.SolverConfig(sigma=1.0, tau=1.618, eps=1e-6))
        assert len(positional) == sol.iters + 1
        assert set(positional) == {1}


class TestProjectionScreen:
    def test_most_example2_blocks_skip_the_eigensolver(self, example2, monkeypatch):
        """At convergence most vertices are inactive: their projected blocks
        are positive definite and pass the Cholesky screen untouched."""
        from conftest import PUBLISHED_EX2

        # every symmetric eigendecomposition in kernels goes through _eigh
        real = kernels._eigh
        counted = {"matrices": 0}

        def counting_eigh(a):
            counted["matrices"] += int(np.prod(np.shape(a)[:-2]))
            return real(a)

        monkeypatch.setattr(kernels, "_eigh", counting_eigh)
        config = hg.SolverConfig(sigma=PUBLISHED_EX2["sigma"], tau=PUBLISHED_EX2["tau"], eps=PUBLISHED_EX2["eps"])
        sol = hg.solve(example2.schur, config)
        assert sol.iters == 357
        # each iteration offers 2N vertex blocks to the screen and one stack
        # of two p x p blocks, which always goes to the eigensolver
        offered = (2 * example2.schur.N + 2) * sol.iters
        assert 0 < counted["matrices"] < 0.25 * offered
