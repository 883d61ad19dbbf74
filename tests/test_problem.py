"""Program-data assembly: extended matrices, Schur operator blocks, evaluators."""

import numpy as np
import numpy.testing as npt
import pytest

import hinfgcc as hg
from hinfgcc import kernels
from hinfgcc.problem import eval_g_all, eval_lin_all

import oracles
from conftest import BuiltProblem


def random_problem(rng, n=2, m=2, n_vertices=3):
    """Small random plant with a stable-ish A and a valid output structure."""
    a = rng.standard_normal((n, n))
    b2 = rng.standard_normal((n, m))
    b1 = rng.standard_normal((n, n))
    c = np.vstack([rng.standard_normal((n, n)), np.zeros((m, n))])
    d = np.vstack([np.zeros((n, m)), np.eye(m) + 0.1 * np.diag(rng.random(m))])
    plant = hg.PlantModel(A=a, B1=b1, B2=b2, C=c, D=d)
    pairs = [(a, b2)] + [
        (a + 0.1 * rng.standard_normal((n, n)), b2 + 0.1 * rng.standard_normal((n, m)))
        for _ in range(n_vertices - 1)
    ]
    return BuiltProblem(plant, hg.UncertaintySpec.from_vertices(pairs))


class TestBuildExtended:
    def test_example1_disturbance_weight_block(self, example1):
        # B1 = I so the top-left weight block is the identity
        npt.assert_allclose(example1.ext.Q[:3, :3], np.eye(3))
        npt.assert_allclose(example1.ext.Q[3:, :], 0.0)

    def test_example2_output_weight_is_identity(self, example2):
        npt.assert_allclose(example2.ext.R, np.eye(4))

    def test_vertex_blocks(self, example2):
        for i, (ai, bi) in enumerate(example2.vset):
            npt.assert_array_equal(example2.ext.F[i, :2, :2], ai)
            npt.assert_array_equal(example2.ext.F[i, :2, 2:], -bi)
            npt.assert_array_equal(example2.ext.F[i, 2:, :], 0.0)

    def test_rhalf_squares_to_r(self, example1):
        npt.assert_allclose(example1.ext.rhalf @ example1.ext.rhalf, example1.ext.R, atol=1e-9)

    def test_selector_and_input_map(self, example1):
        npt.assert_array_equal(example1.ext.V, np.hstack([np.eye(3), np.zeros((3, 1))]))
        # the input map [0; I_m] is the complement of the selector
        npt.assert_array_equal(
            np.eye(4) - example1.ext.V.T @ example1.ext.V, np.diag([0.0, 0.0, 0.0, 1.0])
        )


class TestBuildSchur:
    def test_example1_dimensions(self, example1):
        assert (example1.schur.p, example1.schur.r, example1.schur.N) == (4, 7, 1)

    def test_block_layout(self, example1):
        s, e = example1.schur, example1.ext
        n, p = 3, 4
        npt.assert_array_equal(s.h0[:n, :], 0.0)
        npt.assert_array_equal(s.h0[n:, n:], np.eye(p))
        npt.assert_array_equal(s.h2, np.hstack([e.V.T, np.zeros((p, p))]))
        npt.assert_allclose(s.h3[:n, :n], -(e.V @ e.Q @ e.V.T))
        npt.assert_array_equal(s.h3[n:, :], 0.0)
        npt.assert_allclose(s.h1[0, :n, :], -(e.V @ e.F[0]))
        npt.assert_allclose(s.h1[0, n:, :], e.rhalf)

    def test_disjoint_blocks_make_h0_h3_orthogonal(self, example1, example2):
        for s in (example1.schur, example2.schur):
            assert np.trace(s.h0 @ s.h3) == 0.0

    def test_trace_identities(self, example1):
        b1b1t = example1.ext.Q[:3, :3]
        assert example1.schur.tr_h3_sq == pytest.approx(np.trace(b1b1t @ b1b1t))

    def test_wsolve_spd_with_unit_floor(self, example2):
        w = oracles.wsolve(example2.schur)
        npt.assert_allclose(w, w.T, atol=1e-12)
        assert np.linalg.eigvalsh(w).min() >= 1.0 - 1e-9

    def test_wsolve_matches_unvectorized_operator(self):
        rng = np.random.default_rng(20)
        for trial in range(10):
            built = random_problem(rng, n=rng.integers(1, 4), m=rng.integers(1, 3))
            s = built.schur
            x = rng.standard_normal((s.p, s.p))
            x = (x + x.T) / 2
            lhs = kernels.unvec(oracles.wsolve(s) @ kernels.vec(x), s.p, s.p)
            rhs = oracles.wsolve_apply(s, x)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))


    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_wsolve_matches_per_vertex_kronecker_loop(self, request, name):
        # the operator as a plain sum of four Kronecker terms per vertex
        s = request.getfixturevalue(name).schur
        h2h2t = s.h2 @ s.h2.T
        expected = np.eye(s.p * s.p)
        for h1i in s.h1:
            h2h1 = s.h2 @ h1i
            h1th1 = h1i.T @ h1i
            expected += (
                np.kron(h2h2t, h1th1)
                + np.kron(h2h1, h2h1.T)
                + np.kron(h2h1.T, h2h1)
                + np.kron(h1th1, h2h2t)
            )
        assert np.abs(oracles.wsolve(s) - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_h1_stack_matches_vertex_blocks(self, example2):
        s, e = example2.schur, example2.ext
        for i in (0, 17, 255):
            npt.assert_array_equal(s.h1[i, :2, :], -(e.V @ e.F[i]))
            npt.assert_array_equal(s.h1[i, 2:, :], e.rhalf)


class TestEvalTheta1:
    def test_zero_point_is_zero(self, example1):
        npt.assert_allclose(hg.eval_theta1(example1.ext, np.zeros((4, 4)), 0.0)[0], 0.0)

    def test_only_mu_term_survives_at_w_zero(self, example1):
        # B1 = I so the block reduces to mu * I
        npt.assert_allclose(hg.eval_theta1(example1.ext, np.zeros((4, 4)), 1.0)[0], np.eye(3))

    def test_agrees_with_full_extended_form(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            built = random_problem(rng)
            ext = built.ext
            w = rng.standard_normal((ext.p, ext.p))
            w = (w + w.T) / 2
            mu = float(rng.random())
            stacked = hg.eval_theta1(ext, w, mu)
            assert stacked.shape == (ext.N, ext.n, ext.n)
            for i in range(ext.N):
                theta = ext.F[i] @ w + w @ ext.F[i].T + w @ ext.R @ w + mu * ext.Q
                expected = ext.V @ theta @ ext.V.T
                npt.assert_allclose(stacked[i], expected, atol=1e-10)
                npt.assert_allclose(stacked[i], oracles.eval_theta1(ext, i, w, mu), rtol=1e-12, atol=1e-14)


class TestEvalG:
    def test_zero_point_gives_constant_block(self, example1):
        npt.assert_allclose(oracles.eval_g(example1.schur, 0, np.zeros((4, 4)), 0.0), example1.schur.h0)

    def test_batched_matches_single(self, example2):
        rng = np.random.default_rng(22)
        w = rng.standard_normal((4, 4))
        w = (w + w.T) / 2
        stacked = eval_g_all(example2.schur, eval_lin_all(example2.schur, w), 0.7)
        for i in (0, 100, 255):
            npt.assert_allclose(stacked[i], oracles.eval_g(example2.schur, i, w, 0.7), atol=1e-12)

    def test_schur_equivalence_on_random_samples(self, example1):
        # sign of the smallest eigenvalue of the linear block agrees with the
        # sign of minus the largest eigenvalue of the quadratic block
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(200):
            m = rng.standard_normal((4, 4))
            w = m.T @ m * rng.random()
            mu = float(rng.random() * 5 + 1e-3)
            g_min = np.linalg.eigvalsh(oracles.eval_g(example1.schur, 0, w, mu)).min()
            t_max = np.linalg.eigvalsh(hg.eval_theta1(example1.ext, w, mu)[0]).max()
            if abs(g_min) > 1e-8 and abs(t_max) > 1e-8:
                checked += 1
                assert (g_min >= 0) == (t_max <= 0), (g_min, t_max)
        assert checked > 100
