"""Contracts of the dense numerical primitives."""

import numpy as np
import numpy.testing as npt
import pytest

from hinfgcc import kernels
from hinfgcc.errors import (
    DimensionError,
    InvalidInputError,
    NotPsdError,
    SingularSystemError,
)

import oracles


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2


class TestSymEig:
    def test_diagonal(self):
        dec = kernels.sym_eig(np.diag([3.0, 1.0]))
        npt.assert_allclose(dec.eigenvalues, [3.0, 1.0])
        npt.assert_allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-14)

    def test_identity(self):
        dec = kernels.sym_eig(np.eye(4))
        npt.assert_allclose(dec.eigenvalues, np.ones(4))

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = random_symmetric(rng, 5, scale=3.0)
            w, v = kernels.sym_eig(s)
            rebuilt = (v * w) @ v.T
            assert np.linalg.norm(rebuilt - s) <= 1e-9 * max(1.0, np.linalg.norm(s))
            npt.assert_allclose(v.T @ v, np.eye(5), atol=1e-9)
            assert np.all(np.diff(w) <= 1e-14)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            kernels.sym_eig(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestProjectPsd:
    def test_clips_negative_eigenvalue(self):
        npt.assert_allclose(kernels.project_psd(np.diag([2.0, -3.0])), np.diag([2.0, 0.0]), atol=1e-14)

    def test_psd_fixed_point(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.standard_normal((4, 4))
            s = m.T @ m
            assert np.linalg.norm(kernels.project_psd(s) - s) <= 1e-10 * max(1.0, np.linalg.norm(s))

    def test_nearest_point_beats_random_candidates(self):
        rng = np.random.default_rng(2)
        s = random_symmetric(rng, 4, scale=2.0)
        proj = kernels.project_psd(s)
        d_proj = np.linalg.norm(s - proj)
        for _ in range(1000):
            m = rng.standard_normal((4, 4))
            cand = m.T @ m
            assert d_proj <= np.linalg.norm(s - cand) + 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = random_symmetric(rng, 6)
            p1 = kernels.project_psd(s)
            p2 = kernels.project_psd(p1)
            assert np.linalg.norm(p2 - p1) <= 1e-10

    def test_moreau_decomposition(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = random_symmetric(rng, 5, scale=4.0)
            plus = kernels.project_psd(s)
            minus = kernels.project_psd(-s)
            assert np.linalg.norm(s - (plus - minus)) <= 1e-9

    def test_stack_matches_single(self):
        rng = np.random.default_rng(5)
        stack = np.stack([random_symmetric(rng, 4) for _ in range(8)])
        batched = kernels.project_psd_stack(stack)
        for i in range(8):
            npt.assert_allclose(batched[i], kernels.project_psd(stack[i]), atol=1e-12)


class TestProjectNonneg:
    @pytest.mark.parametrize("x,expected", [(2.5, 2.5), (-1.0, 0.0), (0.0, 0.0)])
    def test_values(self, x, expected):
        assert kernels.project_nonneg(x) == expected


class TestSymSqrt:
    def test_identity(self):
        npt.assert_allclose(kernels.sym_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        npt.assert_allclose(kernels.sym_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_square_reproduces_input(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            m = rng.standard_normal((5, 5))
            s = m.T @ m
            root = kernels.sym_sqrt(s)
            assert np.linalg.norm(root @ root - s) <= 1e-9 * max(1.0, np.linalg.norm(s))
            assert np.linalg.eigvalsh(root).min() >= -1e-10

    def test_indefinite_rejected(self):
        with pytest.raises(NotPsdError):
            kernels.sym_sqrt(np.diag([1.0, -1.0]))


class TestKronVec:
    def test_identity_product(self):
        npt.assert_allclose(kernels.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_hand_expansion(self):
        out = kernels.kron(np.array([[1.0, 2.0]]), np.array([[0.0], [1.0]]))
        npt.assert_allclose(out, np.array([[0.0, 0.0], [1.0, 2.0]]))

    def test_vec_is_column_major(self):
        npt.assert_allclose(kernels.vec(np.array([[1.0, 3.0], [2.0, 4.0]])), [1, 2, 3, 4])

    def test_vec_of_column_is_itself(self):
        v = np.arange(4.0).reshape(4, 1)
        npt.assert_allclose(kernels.vec(v), v.ravel())

    def test_unvec_roundtrip(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((3, 5))
        npt.assert_allclose(kernels.unvec(kernels.vec(m), 3, 5), m)

    def test_unvec_length_mismatch(self):
        with pytest.raises(DimensionError):
            kernels.unvec(np.zeros(5), 2, 3)

    def test_kron_vec_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.standard_normal((4, 3))
            b = rng.standard_normal((5, 2))
            x = rng.standard_normal((2, 3))
            lhs = kernels.vec(b @ x @ a.T)
            rhs = kernels.kron(a, b) @ kernels.vec(x)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))


def solve_spd(m, b):
    return kernels.spd_solve(kernels.spd_factor(m), b)


def backward_error(m, x, b):
    """||M x - b|| / (||M||_2 ||x||): the relative size of the smallest
    perturbation of M for which x is an exact solution."""
    return np.linalg.norm(m @ x - b) / (np.linalg.norm(m, 2) * np.linalg.norm(x))


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        npt.assert_allclose(solve_spd(np.eye(3), b), b)

    def test_diagonal(self):
        npt.assert_allclose(solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 8.0])), [1.0, 2.0])

    def test_residual_on_random_spd(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = rng.standard_normal((6, 6))
            spd = m.T @ m + np.eye(6)
            b = rng.standard_normal(6)
            x = solve_spd(spd, b)
            assert np.linalg.norm(spd @ x - b) <= 1e-10 * max(1.0, np.linalg.norm(b))

    def test_singular_rejected(self):
        with pytest.raises(SingularSystemError):
            solve_spd(np.zeros((2, 2)), np.ones(2))

    def test_indefinite_rejected(self):
        with pytest.raises(SingularSystemError):
            kernels.spd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            kernels.spd_factor(np.array([[1.0, 0.0], [0.0, np.inf]]))

    def test_overflowing_inverse_rejected(self):
        # the Cholesky factor of a subnormal pivot exists, its inverse does not
        with pytest.raises(SingularSystemError):
            kernels.spd_factor(np.array([[1e-320]]))

    def test_inverse_is_symmetric(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((9, 9))
        inv = kernels.spd_factor(m.T @ m + np.eye(9))
        assert np.array_equal(inv, inv.T)

    def test_backward_error_on_random_spd(self):
        rng = np.random.default_rng(11)
        for n in (1, 4, 9, 16, 36):
            for scale in (1e-3, 1.0, 1e3):
                m = rng.standard_normal((n, n)) * scale
                spd = m.T @ m + np.eye(n)
                b = rng.standard_normal(n)
                assert backward_error(spd, solve_spd(spd, b), b) <= 1e-14

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_backward_error_on_fixture_operators(self, request, name):
        s = request.getfixturevalue(name).schur
        wsolve = oracles.wsolve(s)
        rng = np.random.default_rng(12)
        for _ in range(10):
            b = rng.standard_normal(s.p * s.p)
            assert backward_error(wsolve, kernels.spd_solve(s.wsolve_inv, b), b) <= 1e-14

    def test_non_finite_rhs_rejected(self):
        factor = kernels.spd_factor(np.eye(2))
        with pytest.raises(InvalidInputError):
            kernels.spd_solve(factor, np.array([1.0, np.nan]))


class TestMaxEigs:
    def test_matches_per_matrix_eigvalsh(self):
        rng = np.random.default_rng(13)
        stack = np.stack([random_symmetric(rng, 4) for _ in range(6)])
        expected = [np.linalg.eigvalsh(m).max() for m in stack]
        npt.assert_allclose(kernels.max_eigs(stack), expected, rtol=1e-14, atol=1e-14)

    def test_nonfinite_rejected(self):
        stack = np.zeros((2, 2, 2))
        stack[1, 0, 0] = np.inf
        with pytest.raises(InvalidInputError):
            kernels.max_eigs(stack)


class TestMaxPencilEigs:
    def test_matches_generalized_eigenvalues(self):
        # lambda_max(L^-1 B L^-T) is the largest lambda with det(B - lambda A) = 0
        rng = np.random.default_rng(14)
        b = random_symmetric(rng, 3)
        a = np.stack([m @ m.T + np.eye(3) for m in rng.standard_normal((5, 3, 3))])
        expected = [np.linalg.eigvals(np.linalg.solve(ai, b)).real.max() for ai in a]
        npt.assert_allclose(kernels.max_pencil_eigs(b, a), expected, rtol=1e-12)

    def test_identity_pencil_is_max_eig(self):
        b = np.diag([2.0, -1.0, 0.5])
        npt.assert_allclose(kernels.max_pencil_eigs(b, np.eye(3)[None]), [2.0])

    @pytest.mark.parametrize("a", [np.diag([1.0, 0.0]), np.diag([1.0, -1.0])])
    def test_not_positive_definite_rejected(self, a):
        with pytest.raises(SingularSystemError):
            kernels.max_pencil_eigs(np.eye(2), np.stack([np.eye(2), a]))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            kernels.max_pencil_eigs(np.eye(2), np.full((1, 2, 2), np.nan))


class TestEigGeneral:
    def test_diagonal(self):
        npt.assert_allclose(sorted(kernels.eig_general(np.diag([-1.0, -2.0])).real), [-2.0, -1.0])

    def test_rotation_gives_imaginary_pair(self):
        eigs = kernels.eig_general(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        npt.assert_allclose(sorted(eigs.imag), [-1.0, 1.0], atol=1e-12)
        npt.assert_allclose(eigs.real, 0.0, atol=1e-12)

    def test_trace_det_and_charpoly(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.standard_normal((6, 6))
            eigs = kernels.eig_general(a)
            assert abs(eigs.sum().real - np.trace(a)) <= 1e-8 * max(1.0, abs(np.trace(a)))
            det = np.linalg.det(a)
            assert abs(np.prod(eigs) - det) <= 1e-6 * max(1.0, abs(det))
            for lam in eigs:
                assert abs(np.linalg.det(a - lam * np.eye(6))) <= 1e-6 * max(
                    1.0, abs(det)
                )

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionError):
            kernels.eig_general(np.zeros((2, 3)))


class TestMaxSingularValue:
    def test_identity(self):
        assert kernels.max_singular_value(np.eye(3)) == pytest.approx(1.0)

    def test_complex_diagonal_uses_moduli(self):
        assert kernels.max_singular_value(np.diag([3.0, 2.0j])) == pytest.approx(3.0)

    def test_rayleigh_sampling_lower_bound(self):
        # two-dimensional domain so 1e4 random directions provably get within
        # ~1e-4 of the top singular direction
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        smax = kernels.max_singular_value(m)
        vs = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        gains = np.linalg.norm(vs @ m.T, axis=1)
        assert gains.max() <= smax * (1 + 1e-12)
        assert gains.max() >= smax * (1 - 1e-3)


def test_symmetrize_enforces_symmetry_to_tolerance():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((7, 7))
    s = kernels.symmetrize(a)
    assert np.abs(s - s.T).max() <= 1e-12


def test_symmetrize_acts_on_each_matrix_of_a_stack():
    rng = np.random.default_rng(15)
    stack = rng.standard_normal((3, 4, 4))
    out = kernels.symmetrize(stack)
    for a, s in zip(stack, out):
        assert np.array_equal(s, kernels.symmetrize(a))
