"""Program-data assembly: extended matrices, Schur operator blocks, evaluators."""

import numpy as np
import numpy.testing as npt
import pytest

import hinfgcc as hg
from hinfgcc import kernels
from hinfgcc.problem import eval_g_all, eval_lin_all

import oracles
from conftest import BuiltProblem, make_example1_plant, make_example2_plant, make_toy_plant


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


def output_weight(ext):
    """R = blockdiag(C^T C, D^T D), whose square root build_schur writes
    into every block of h1."""
    n = ext.n
    r = np.zeros((ext.p, ext.p))
    r[:n, :n] = ext.CtC
    r[n:, n:] = ext.DtD
    return r


class TestBuildExtended:
    def test_example1_disturbance_weight_block(self, example1):
        # B1 = I so the disturbance weight block is the identity
        assert example1.ext.B1B1t.shape == (3, 3)
        npt.assert_allclose(example1.ext.B1B1t, np.eye(3))

    def test_example2_output_weight_is_identity(self, example2):
        npt.assert_allclose(example2.ext.CtC, np.eye(2))
        npt.assert_allclose(example2.ext.DtD, np.eye(2))

    def test_vertex_blocks(self, example2):
        assert example2.ext.A is example2.vset.A and example2.ext.B2 is example2.vset.B2
        for i, (ai, bi) in enumerate(example2.vset):
            npt.assert_array_equal(example2.ext.A[i], ai)
            npt.assert_array_equal(example2.ext.B2[i], bi)

    def test_rhalf_squares_to_r(self, example1):
        rhalf = example1.schur.h1[0, 3:, :]
        npt.assert_allclose(rhalf @ rhalf, output_weight(example1.ext), atol=1e-9)

    def test_selector_and_input_map(self, example1):
        # h2 = [V^T 0] with the state selector V = [I_n 0]
        v = example1.schur.h2[:, :3].T
        npt.assert_array_equal(v, np.hstack([np.eye(3), np.zeros((3, 1))]))
        # the input map [0; I_m] is the complement of the selector
        npt.assert_array_equal(np.eye(4) - v.T @ v, np.diag([0.0, 0.0, 0.0, 1.0]))

    def test_sizes_are_read_from_the_stacks(self, example1, example2):
        assert (example1.ext.n, example1.ext.m, example1.ext.p, example1.ext.N) == (3, 1, 4, 1)
        assert (example2.ext.n, example2.ext.m, example2.ext.p, example2.ext.N) == (2, 2, 4, 256)


class TestBuildSchur:
    def test_example1_dimensions(self, example1):
        assert (example1.schur.p, example1.schur.r, example1.schur.N) == (4, 7, 1)

    def test_sizes_are_read_from_h1(self, example1, example2):
        for b in (example1, example2):
            s = b.schur
            assert s.h1.shape == (s.N, s.r, s.p)
            assert (s.n, s.m, s.N) == (b.ext.n, b.ext.m, b.ext.N)

    def test_block_layout(self, example1):
        s, e = example1.schur, example1.ext
        n, p = 3, 4
        npt.assert_array_equal(s.h0[:n, :], 0.0)
        npt.assert_array_equal(s.h0[n:, n:], np.eye(p))
        selector = np.hstack([np.eye(n), np.zeros((n, p - n))])
        npt.assert_array_equal(s.h2, np.hstack([selector.T, np.zeros((p, p))]))
        npt.assert_allclose(s.h3[:n, :n], -e.B1B1t)
        npt.assert_array_equal(s.h3[n:, :], 0.0)
        npt.assert_allclose(s.h1[0, :n, :n], -e.A[0])
        npt.assert_allclose(s.h1[0, :n, n:], e.B2[0])
        npt.assert_allclose(s.h1[0, n:, :], kernels.sym_sqrt(output_weight(e)))

    def test_large_output_weight_is_accepted(self):
        # R = blockdiag(C^T C, D^T D) is PSD, but its smallest computed
        # eigenvalue is -0.35 next to a largest of 1.9e17: roundoff on the
        # scale of the largest eigenvalue, which an absolute threshold
        # rejected as indefinite
        plant = hg.PlantModel(
            A=np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -3.0]]),
            B1=np.eye(3),
            B2=np.array([[1.0], [0.0], [1.0]]),
            C=np.array([[3e8, 3e8, 1e8], [0.0, 0.0, 0.0]]),
            D=np.array([[0.0], [1.0]]),
        )
        hg.validate_plant(plant)
        built = BuiltProblem(plant, hg.UncertaintySpec.none())
        r = output_weight(built.ext)
        half = built.schur.h1[0, built.ext.n :, :]
        npt.assert_allclose(half @ half, r, rtol=0.0, atol=1e-14 * np.linalg.norm(r))

    def test_disjoint_blocks_make_h0_h3_orthogonal(self, example1, example2):
        for s in (example1.schur, example2.schur):
            assert np.trace(s.h0 @ s.h3) == 0.0

    def test_trace_identities(self, example1):
        b1b1t = example1.ext.B1B1t
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
            lhs = (oracles.wsolve(s) @ x.reshape(-1, order="F")).reshape((s.p, s.p), order="F")
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
        rhalf = kernels.sym_sqrt(output_weight(e))
        for i in (0, 17, 255):
            npt.assert_array_equal(s.h1[i, :2, :2], -e.A[i])
            npt.assert_array_equal(s.h1[i, :2, 2:], e.B2[i])
            npt.assert_array_equal(s.h1[i, 2:, :], rhalf)


def random_bounds_spec(rng):
    """Small random plant with relative bounds on some entries of A and B2,
    a few of them on zero entries, which stay fixed."""
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.8)
    b2 = rng.standard_normal((n, m)) * (rng.random((n, m)) < 0.8)
    c = np.vstack([rng.standard_normal((n, n)), np.zeros((m, n))])
    d = np.vstack([np.zeros((n, m)), np.eye(m) + 0.1 * np.diag(rng.random(m))])
    plant = hg.PlantModel(A=a, B1=rng.standard_normal((n, n)), B2=b2, C=c, D=d)
    da = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    db = rng.random((n, m)) * (rng.random((n, m)) < 0.5)
    return plant, hg.UncertaintySpec.relative(da, db)


def random_explicit_spec(rng):
    """The plant of random_problem with its explicit vertex list."""
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    plant = random_problem(rng, n=n, m=m).plant
    pairs = [(plant.A + 0.1 * rng.standard_normal((n, n)),
              plant.B2 + 0.1 * rng.standard_normal((n, m)))
             for _ in range(int(rng.integers(1, 5)))]
    return plant, hg.UncertaintySpec.from_vertices(pairs)


def frozen_reference_cases():
    ex2_spec = hg.UncertaintySpec.relative(0.2 * np.ones((2, 2)), 0.2 * np.ones((2, 2)))
    cases = {
        "toy": (make_toy_plant(), hg.UncertaintySpec.none()),
        "example1": (make_example1_plant(), hg.UncertaintySpec.none()),
        "example2": (make_example2_plant(), ex2_spec),
    }
    rng = np.random.default_rng(24)
    for k in range(15):
        cases[f"bounds{k}"] = random_bounds_spec(rng)
        cases[f"explicit{k}"] = random_explicit_spec(rng)
    return cases


FROZEN_CASES = frozen_reference_cases()


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestFrozenPaddedLayout:
    """The vertex stacks and named weight blocks give the numbers of the
    padded layout they replaced: every vertex and h1 equal, the other Schur
    blocks byte for byte (h1 may differ in the sign of a zero, where the
    padding negated B2 twice)."""

    @pytest.mark.parametrize("name", list(FROZEN_CASES))
    def test_matches_padded_layout(self, name):
        plant, spec = FROZEN_CASES[name]
        built = BuiltProblem(plant, spec)
        loop = oracles.enumerate_vertices_loop(plant, spec)
        assert built.vset.N == len(loop)
        for (a, b2), (ref_a, ref_b2) in zip(built.vset, loop):
            npt.assert_array_equal(a, ref_a)
            npt.assert_array_equal(b2, ref_b2)
        h0, h1, h2, h3, wsolve_inv, tr_h3_sq = oracles.padded_schur(
            oracles.padded_extended(plant, loop))
        s = built.schur
        npt.assert_array_equal(s.h1, h1)
        for got, ref in ((s.h0, h0), (s.h2, h2), (s.h3, h3), (s.wsolve_inv, wsolve_inv)):
            assert same_bytes(got, ref)
        assert same_bytes(s.tr_h3_sq, tr_h3_sq)

    def test_random_cases_cover_both_modes_and_fixed_zeros(self):
        # the bounds cases include uncertain entries and zero nominal entries
        # with a positive fraction, which enumeration must leave at zero
        bounds = [FROZEN_CASES[k] for k in FROZEN_CASES if k.startswith("bounds")]
        assert sum(hg.enumerate_vertices(p, s).N > 1 for p, s in bounds) >= 5
        assert any(((s.delta_a > 0) & (p.A == 0)).any() for p, s in bounds)


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
            # the paper's extended form, on the padded system
            pad = oracles.padded_extended(built.plant, list(built.vset))
            w = rng.standard_normal((ext.p, ext.p))
            w = (w + w.T) / 2
            mu = float(rng.random())
            stacked = hg.eval_theta1(ext, w, mu)
            assert stacked.shape == (ext.N, ext.n, ext.n)
            for i in range(ext.N):
                theta = pad.F[i] @ w + w @ pad.F[i].T + w @ pad.R @ w + mu * pad.Q
                expected = pad.V @ theta @ pad.V.T
                npt.assert_allclose(stacked[i], expected, atol=1e-10)
                npt.assert_allclose(stacked[i], oracles.eval_theta1(ext, i, w, mu), rtol=1e-12, atol=1e-14)


class TestStructuredOperators:
    """eval_lin_all and eval_g_all slice the supports of h0, h2 and h3
    instead of multiplying by them: byte-equal to the dense products for
    symmetric W, equal to rounding for nonsymmetric W."""

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_lin_is_byte_equal_to_dense_for_symmetric_w(self, request, name):
        schur = request.getfixturevalue(name).schur
        rng = np.random.default_rng(41)
        for _ in range(5):
            w = kernels.symmetrize(rng.standard_normal((schur.p, schur.p)))
            assert same_bytes(eval_lin_all(schur, w), oracles.lin_dense(schur, w))

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_lin_matches_dense_for_nonsymmetric_w(self, request, name):
        schur = request.getfixturevalue(name).schur
        rng = np.random.default_rng(42)
        for _ in range(5):
            w = rng.standard_normal((schur.p, schur.p))
            npt.assert_allclose(eval_lin_all(schur, w), oracles.lin_dense(schur, w), rtol=1e-14)

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_g_is_byte_equal_to_adding_h3_and_h0_apart(self, request, name):
        schur = request.getfixturevalue(name).schur
        rng = np.random.default_rng(43)
        w = kernels.symmetrize(rng.standard_normal((schur.p, schur.p)))
        lin = eval_lin_all(schur, w)
        for mu in (0.0, -0.0, 0.7, -1.3, float(rng.standard_normal())):
            assert same_bytes(eval_g_all(schur, lin, mu), oracles.g_dense(schur, lin, mu))


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
