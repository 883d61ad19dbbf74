"""Contracts of the dense numerical primitives."""

import inspect
import re

import numpy as np
import numpy.testing as npt
import pytest
from numpy.linalg import _umath_linalg

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

    def test_stack_is_bitwise_each_matrix_alone(self):
        # the solver projects its two p x p blocks as one stack; each must get
        # the bits it got when projected on its own
        rng = np.random.default_rng(6)
        for n in range(2, 9):
            for _ in range(40):
                stack = rng.standard_normal((3, n, n)) * 10.0 ** rng.uniform(-3, 3)
                got = kernels.project_psd(stack)
                for g, s in zip(got, stack):
                    assert g.tobytes() == kernels.project_psd(s).tobytes()

    def test_stack_matches_single(self):
        rng = np.random.default_rng(5)
        stack = np.stack([random_symmetric(rng, 4) for _ in range(8)])
        batched = kernels.project_psd_stack(stack)
        for i in range(8):
            npt.assert_allclose(batched[i], kernels.project_psd(stack[i]), atol=1e-12)


def _block(rng, kind, n=6):
    """A random n x n test block of the given kind, not exactly symmetric."""
    m = rng.standard_normal((n, n))
    pd = m @ m.T + 0.1 * np.eye(n)
    if kind == "pd":
        blk = pd
    elif kind == "nd":
        blk = -pd
    elif kind == "indefinite":
        q, _ = np.linalg.qr(m)
        blk = (q * np.linspace(-2.0, 3.0, n)) @ q.T
    else:  # rank-deficient PSD
        r = m[:, : n - 2]
        blk = r @ r.T
    skew = 1e-3 * rng.standard_normal((n, n))
    return blk + skew - skew.T


def _clip_reference(stack):
    """Per-block eigendecomposition with every negative eigenvalue clipped."""
    out = []
    for s in stack:
        w, v = np.linalg.eigh((s + s.T) / 2)
        out.append((v * np.clip(w, 0.0, None)) @ v.T)
    return np.array(out)


def _full_eigh_projection(stack):
    """project_psd_stack before its Cholesky screen: every block through eigh."""
    stack = (stack + np.swapaxes(stack, -1, -2)) / 2.0
    w, v = np.linalg.eigh(stack)
    out = v @ (np.maximum(w, 0.0)[..., None] * np.swapaxes(v, -1, -2))
    return (out + np.swapaxes(out, -1, -2)) / 2.0


class TestProjectPsdStack:
    KINDS = ("pd", "nd", "indefinite", "psd_rank_deficient")

    @pytest.mark.parametrize(
        "kinds",
        [KINDS * 3, ("pd",) * 5, ("indefinite",) * 5, ("nd", "pd"), ("pd", "psd_rank_deficient")],
        ids=["mixed", "all_pd", "all_indefinite", "nd_pd", "pd_rank_deficient"],
    )
    def test_matches_per_block_clipping(self, kinds):
        rng = np.random.default_rng(20)
        stack = np.stack([_block(rng, kind) for kind in kinds])
        got = kernels.project_psd_stack(stack)
        for g, ref, s in zip(got, _clip_reference(stack), stack):
            assert np.abs(g - ref).max() <= 1e-13 * max(1.0, np.linalg.norm(s))
            assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("kinds", [KINDS * 2 + ("pd",) * 3, ("pd",) * 7], ids=["mixed", "all_pd"])
    def test_definite_blocks_come_back_as_their_symmetric_part(self, kinds):
        rng = np.random.default_rng(21)
        stack = np.stack([_block(rng, kind) for kind in kinds])
        got = kernels.project_psd_stack(stack)
        sym = (stack + np.swapaxes(stack, -1, -2)) / 2.0
        for g, s, kind in zip(got, sym, kinds):
            if kind == "pd":
                assert g.tobytes() == s.tobytes()

    @pytest.mark.parametrize("n", [4, 7])
    def test_all_indefinite_stack_is_bitwise_the_full_eigensolve(self, n):
        # no block passes the screen on the aircraft example, whose arithmetic
        # must stay that of the unscreened projection
        rng = np.random.default_rng(23)
        stack = np.stack([_block(rng, kind, n=n) for kind in ("indefinite", "nd") * 3])
        assert kernels.project_psd_stack(stack).tobytes() == _full_eigh_projection(stack).tobytes()

    def test_input_is_not_modified(self):
        rng = np.random.default_rng(24)
        stack = np.stack([_block(rng, kind) for kind in self.KINDS])
        before = stack.copy()
        kernels.project_psd_stack(stack)
        assert stack.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "kinds", [KINDS * 2, ("pd",) * 4, ("indefinite",) * 4], ids=["mixed", "all_pd", "all_indefinite"]
    )
    def test_out_gets_the_projection(self, kinds):
        rng = np.random.default_rng(29)
        stack = np.stack([_block(rng, kind) for kind in kinds])
        before = stack.copy()
        out = np.full_like(stack, np.nan)
        assert kernels.project_psd_stack(stack, out=out) is out
        assert out.tobytes() == kernels.project_psd_stack(stack).tobytes()
        assert stack.tobytes() == before.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        stack = np.stack([np.eye(3), -np.eye(3)])
        stack[1, 2, 0] = bad
        with pytest.raises(InvalidInputError):
            kernels.project_psd_stack(stack)

    def test_cholesky_gufunc_marks_failed_blocks_with_nan(self):
        # project_psd_stack reads a block's failure from the private gufunc
        # behind np.linalg.cholesky; if a numpy release changes this contract
        # the screen would skip blocks that need clipping, so fail loudly here
        rng = np.random.default_rng(25)
        kinds = self.KINDS + ("pd", "nd")
        stack = np.stack([(b + b.T) / 2 for b in (_block(rng, kind) for kind in kinds)])
        stack[3] = np.diag([1.0, 1.0, 0.0, 1.0, 1.0, 1.0])  # exactly singular
        with np.errstate(invalid="ignore"):  # RuntimeWarnings are errors in this suite
            chol = _umath_linalg.cholesky_lo(stack, signature="d->d")
        for c, s, kind in zip(chol, stack, kinds):
            if kind == "pd":
                assert np.isfinite(c).all()
                npt.assert_array_equal(c, np.linalg.cholesky(s))
            else:
                assert np.isnan(c).all()


# Every gufunc behind np.linalg that kernels calls directly: (name, the loop
# kernels asks for, the gufunc's core signature). A numpy release that renames
# one, drops the loop or changes its shapes fails here rather than in a solve.
GUFUNCS = [
    ("cholesky_lo", "d->d", "(m,m)->(m,m)"),
    ("eigh_lo", "d->dd", "(m,m)->(m),(m,m)"),
    ("eigvals", "d->D", "(m,m)->(m)"),
    ("solve", "DD->D", "(m,m),(m,n)->(m,n)"),
    ("svd", "d->d", "(m,n)->(p)"),
    ("svd", "D->d", "(m,n)->(p)"),
]


class TestGufuncContracts:
    """What kernels relies on in each gufunc it calls: a failed matrix (not
    positive definite, singular, or an iteration that does not converge)
    comes back as NaN and raises the invalid-value flag, and only that
    matrix of a stack is affected."""

    def test_kernels_calls_only_the_pinned_gufuncs(self):
        called = set(re.findall(r"_umath_linalg\.(\w+)\(", inspect.getsource(kernels)))
        assert called == {name for name, _, _ in GUFUNCS}

    @pytest.mark.parametrize("name, loop, core", GUFUNCS, ids=[f"{g[0]}:{g[1]}" for g in GUFUNCS])
    def test_name_signature_and_loop(self, name, loop, core):
        gufunc = getattr(_umath_linalg, name)
        assert isinstance(gufunc, np.ufunc)
        assert gufunc.signature == core
        assert loop in gufunc.types

    def test_solve_marks_a_singular_matrix_with_nan(self):
        rng = np.random.default_rng(26)
        pencil = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        pencil[1] = np.diag([1.0, 1.0, 0.0, 1.0])  # exactly singular
        rhs = rng.standard_normal((4, 2))
        with np.errstate(invalid="ignore"):
            out = _umath_linalg.solve(pencil, rhs, signature="DD->D")
        assert np.isnan(out[1]).all()
        for k in (0, 2):
            assert out[k].tobytes() == np.linalg.solve(pencil[k], rhs.astype(complex)).tobytes()
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            _umath_linalg.solve(pencil, rhs, signature="DD->D")

    @pytest.mark.parametrize(
        "name, loop", [("eigh_lo", "d->dd"), ("eigvals", "d->D"), ("svd", "d->d"), ("svd", "D->d")]
    )
    def test_no_convergence_is_nan_with_the_invalid_flag(self, name, loop):
        # NaN input is the one failure of the iteration that is reproducible
        # (LAPACK also reports it on stderr, which pytest captures)
        bad = np.full((3, 3), np.nan, dtype=complex if loop[0] == "D" else float)
        with np.errstate(invalid="ignore"):
            out = getattr(_umath_linalg, name)(bad, signature=loop)
        for part in out if isinstance(out, tuple) else (out,):  # eigh_lo: values and vectors
            assert np.isnan(part).all()
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            getattr(_umath_linalg, name)(bad, signature=loop)

    def test_eigh_is_bitwise_np_linalg_eigh_on_a_stack(self):
        rng = np.random.default_rng(27)
        for n in (2, 4, 7):
            stack = rng.standard_normal((5, n, n))
            stack = (stack + np.swapaxes(stack, -1, -2)) / 2
            w, v = kernels._eigh(stack)
            ref_w, ref_v = np.linalg.eigh(stack)
            assert w.tobytes() == ref_w.tobytes() and v.tobytes() == ref_v.tobytes()
        with pytest.raises(np.linalg.LinAlgError):
            kernels._eigh(np.full((2, 3, 3), np.nan))


class TestVecdotContract:
    """solver.residuals takes the norms of five workspace rows from one
    np.vecdot; its history rows stay those of one `v @ v` per vector only
    while the two round alike."""

    @pytest.mark.parametrize("length", [1, 66, 9_233, 37_000])
    def test_vecdot_over_rows_is_bitwise_the_row_dots(self, length):
        rng = np.random.default_rng(28)
        scales = 10.0 ** np.arange(-10, 11)
        rows = rng.standard_normal((scales.size, length)) * scales[:, None]
        assert rows.flags.c_contiguous
        got = np.vecdot(rows, rows)
        assert got.tobytes() == np.array([float(v @ v) for v in rows]).tobytes()


class TestResponseGains:
    def test_bitwise_the_np_linalg_form(self):
        rng = np.random.default_rng(27)
        for n, inputs, outputs in [(1, 1, 1), (3, 2, 1), (6, 3, 3)]:
            a = rng.standard_normal((n, n)) - 3.0 * np.eye(n)
            b = rng.standard_normal((n, inputs))
            c = rng.standard_normal((outputs, n))
            omegas = np.concatenate(([0.0], rng.uniform(0.0, 20.0, 7)))
            pencil = 1j * omegas[:, None, None] * np.eye(n) - a
            resolvent = np.linalg.solve(pencil, np.broadcast_to(b, (omegas.size, n, inputs)))
            expected = np.linalg.svd(c @ resolvent, compute_uv=False)[:, 0]
            assert kernels.response_gains(a, b, c, omegas).tobytes() == expected.tobytes()

    def test_singular_pencil_raises_linalg_error(self):
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-j
        with pytest.raises(np.linalg.LinAlgError):
            kernels.response_gains(rot, np.eye(2), np.eye(2), np.array([0.5, 1.0, 2.0]))

    def test_overflowing_response_is_rejected(self):
        c = np.array([[1e300, 0.0]])
        b = np.array([[1e300], [0.0]])
        with pytest.raises(InvalidInputError):
            kernels.response_gains(-np.eye(2), b, c, np.array([1.0]))


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
    def test_kron_vec_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.standard_normal((4, 3))
            b = rng.standard_normal((5, 2))
            x = rng.standard_normal((2, 3))
            lhs = (b @ x @ a.T).reshape(-1, order="F")
            rhs = np.kron(a, b) @ x.reshape(-1, order="F")
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

    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_np_linalg_eigvals_with_its_real_return(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 5))
        if seed % 2:  # symmetric: every eigenvalue is real
            a = (a + a.T) / 2
        eigs, expected = kernels.eig_general(a), np.linalg.eigvals(a)
        assert eigs.dtype == expected.dtype == (float if seed % 2 else complex)
        assert eigs.tobytes() == expected.tobytes()


class TestMaxSingularValue:
    def test_stack_gives_each_matrix_its_own(self):
        rng = np.random.default_rng(28)
        stack = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
        expected = [np.linalg.svd(m, compute_uv=False)[0] for m in stack]
        assert kernels.max_singular_value(stack).tobytes() == np.array(expected).tobytes()

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


def test_symmetrize_halving_is_bitwise_division_by_two():
    # subnormal, signed-zero, huge and non-finite entries round the same way
    rng = np.random.default_rng(16)
    stack = rng.standard_normal((5, 4, 4)) * 10.0 ** rng.integers(-320, 308, (5, 4, 4))
    stack[0, 0, 1], stack[0, 1, 0] = -0.0, -0.0
    stack[1, 2, 3], stack[1, 3, 2] = 1.7e308, 1.7e308
    stack[2, 0, 3], stack[3, 1, 1] = np.inf, np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        dense = (stack + stack.swapaxes(-1, -2)) / 2.0
        out = kernels.symmetrize(stack)
    assert out.tobytes() == dense.tobytes()


def test_symmetrize_acts_on_each_matrix_of_a_stack():
    rng = np.random.default_rng(15)
    stack = rng.standard_normal((3, 4, 4))
    out = kernels.symmetrize(stack)
    for a, s in zip(stack, out):
        assert np.array_equal(s, kernels.symmetrize(a))
