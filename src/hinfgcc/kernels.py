"""Dense numerical primitives with explicit contracts.

The ADMM loop, the problem assembly and the verifier route their linear
algebra through here so that numerical policy (symmetrization, eigenvalue
clipping, factorization choices) lives in one place. Two checks that run
once per problem call np.linalg directly: model.validate_plant (eigvalsh
of D^T D and PBH rank tests) and solver.extract_gain (cond, Cholesky test
and solve of the state block of W). All functions are pure, apart from
filling an `out` array that a caller gives, and safe to call concurrently
on distinct outputs.

Only numpy is used. The one linear system the solver meets, the p^2 x p^2
W operator, is inverted once through its Cholesky factor (spd_factor), so
each iteration's solve is a single matrix-vector product (spd_solve).

The solver's 2N vertex projections per iteration (project_psd_stack) are
screened by one batched Cholesky factorization: the positive definite
blocks, which inactive vertices give, are their own projection, and only
the rest are eigendecomposed. The projection goes into a buffer that the
solver allocates once per solve.

The solver's symmetric eigendecompositions (sym_eig, and the blocks that
fail the screen) and the per-vertex norm check (eig_general and
response_gains, a few times per vertex) work on matrices of a few rows,
where np.linalg's wrappers cost more than the LAPACK work. So these, like
the Cholesky screen, call the gufuncs behind np.linalg
(numpy.linalg._umath_linalg) directly, with np.linalg's error state: this
module is their only caller, and tests/test_kernels.py pins the name,
signature and failure signal of each one used.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import (
    DimensionError,
    InvalidInputError,
    NotPsdError,
    NumericalError,
    SingularSystemError,
)

# Inputs to sym_sqrt may dip this far below zero, relative to their largest
# eigenvalue (or 1, whichever is larger), before they are rejected rather
# than clipped.
SQRT_PSD_TOL = 1e-6


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


def _raise_no_convergence(err, flag):
    raise LinAlgError("LAPACK iteration did not converge")


def _lapack_errors(handler):
    """np.linalg's error state around a LAPACK gufunc: the gufunc flags a
    failed matrix (singular, or an iteration that did not converge) as an
    invalid value, which calls `handler`; overflow and underflow in its
    output are not reported."""
    return np.errstate(call=handler, invalid="call", over="ignore", divide="ignore", under="ignore")


class EigDecomp(NamedTuple):
    """Symmetric eigendecomposition with eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns, one per eigenvalue


def symmetrize(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Return (S + S^T)/2, the symmetric part of a square matrix or of each
    matrix of a (k, n, n) stack, in `out` when one is given (it must not
    overlap S).

    The sum is halved in place by multiplying with 0.5, which rounds
    exactly as dividing by 2 does, at a fraction of its cost.
    """
    out = np.add(s, s.swapaxes(-1, -2), out=out)
    out *= 0.5
    return out


def _check_finite(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of a symmetric matrix or (k, n, n) stack, ascending,
    bit for bit; an iteration that does not converge raises LinAlgError."""
    with _lapack_errors(_raise_no_convergence):
        return _umath_linalg.eigh_lo(a, signature="d->dd")


def sym_eig(s: np.ndarray) -> EigDecomp:
    """Eigendecomposition of a symmetric matrix, or of each matrix of a
    (k, n, n) stack, eigenvalues descending."""
    s = _check_finite(s, "matrix")
    w, v = _eigh(symmetrize(s))
    return EigDecomp(w[..., ::-1].copy(), v[..., ::-1].copy())


def max_eigs(stack: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each symmetric matrix of a (k, n, n) stack."""
    return np.linalg.eigvalsh(_check_finite(stack, "matrix"))[..., -1]


def max_pencil_eigs(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each pencil (B, A_i) for a symmetric B and a
    (k, n, n) stack of positive definite A_i: lambda_max(L_i^{-1} B L_i^{-T})
    with L_i L_i^T = A_i.

    An A_i that is not positive definite raises SingularSystemError;
    non-finite input raises InvalidInputError.
    """
    a = _check_finite(a, "matrix")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"pencil matrix is not positive definite: {exc}") from exc
    half = np.linalg.solve(chol, np.broadcast_to(b, a.shape))  # L^{-1} B
    return max_eigs(symmetrize(np.linalg.solve(chol, np.swapaxes(half, -1, -2))))


def project_psd(s: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix to symmetric S, or to
    each matrix of a (k, n, n) stack, which gives each matrix the bits it
    gets alone.

    Eigenvalues are clipped at exactly zero; no positive floor is applied.
    (np.maximum(w, 0.0) returns np.clip's values for finite w, a -0.0
    eigenvalue included, at a quarter of its call cost.)
    """
    w, v = sym_eig(s)
    out = (v * np.maximum(w, 0.0)[..., None, :]) @ np.swapaxes(v, -1, -2)
    return symmetrize(out)


def _clip_stack(stack: np.ndarray) -> np.ndarray:
    """Eigenvalue clipping of every block of a symmetric (k, n, n) stack."""
    w, v = _eigh(stack)
    return symmetrize(v @ (np.maximum(w, 0.0)[..., None] * np.swapaxes(v, -1, -2)))


def project_psd_stack(stack: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """project_psd of each block of a (k, n, n) array, screened.

    Same clipping policy as project_psd; kept here so every projection in
    the package shares it. One batched Cholesky factorization screens the
    stack first: a block it factors is positive definite and is its own
    projection, so it is returned as its symmetric part; only the blocks
    that fail the screen are eigendecomposed, as one batch.

    The projection is written into `out`, a new array unless the caller
    gives one shaped as the stack that does not overlap it: a caller that
    projects once per iteration allocates it once.
    """
    stack = _check_finite(stack, "stack")
    out = symmetrize(stack, out)
    # the gufunc behind np.linalg.cholesky: a block it cannot factor comes
    # back as NaN (with an invalid-value flag) instead of failing the call
    with np.errstate(invalid="ignore"):
        chol = _umath_linalg.cholesky_lo(out, signature="d->d")
    fails = np.isnan(chol[..., 0, 0])
    if fails.all():
        out[...] = _clip_stack(out)
    elif fails.any():
        out[fails] = _clip_stack(out[fails])
    return out


def project_nonneg(x: float) -> float:
    """Projection of a scalar onto the nonnegative half-line."""
    return max(float(x), 0.0)


def sym_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root R of a PSD matrix, R @ R = S.

    Slightly negative eigenvalues (roundoff) are clipped to zero; anything
    below -SQRT_PSD_TOL * max(1, largest eigenvalue) is treated as a
    genuinely indefinite input. The threshold is relative because the
    roundoff of an eigensolver scales with the matrix norm.
    """
    w, v = sym_eig(s)
    if w[-1] < -SQRT_PSD_TOL * max(1.0, w[0]):
        raise NotPsdError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e}")
    out = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return symmetrize(out)


def spd_factor(m: np.ndarray) -> np.ndarray:
    """Explicit inverse of a symmetric positive definite matrix.

    Built from the Cholesky factor, M^{-1} = L^{-T} L^{-1}, and symmetrized;
    a matrix that is not positive definite raises SingularSystemError.
    """
    m = _check_finite(m, "matrix")
    try:
        chol = np.linalg.cholesky(symmetrize(m))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"SPD factorization failed: {exc}") from exc
    with np.errstate(over="ignore"):  # reported as the error below
        li = np.linalg.inv(chol)
        inv = symmetrize(li.T @ li)
    if not np.isfinite(inv).all():
        raise SingularSystemError("SPD inverse overflowed")
    return inv


def spd_solve(inv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M x = b given M's inverse from spd_factor."""
    return inv @ _check_finite(b, "right-hand side")


def eig_general(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a general real square matrix: a complex array, or a
    real one when every imaginary part is zero (np.linalg.eigvals' rule)."""
    a = _check_finite(a, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    try:
        with _lapack_errors(_raise_no_convergence):
            w = _umath_linalg.eigvals(a, signature="d->D")
    except LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration did not converge: {exc}") from exc
    return w if w.imag.any() else w.real


def response_gains(a: np.ndarray, b: np.ndarray, c: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Largest singular value of C (j w I - A)^{-1} B at each frequency w.

    As np.linalg.solve does, a singular pencil j w I - A raises
    np.linalg.LinAlgError, so a caller can fall back to one frequency at a
    time; a response that overflows raises InvalidInputError.
    """
    # j w I - A, entry for entry as complex arithmetic forms it (the real
    # part is 0 - A, which is +0 where A is -0)
    n = a.shape[0]
    pencil = np.zeros((omegas.size, n, n), dtype=complex)
    pencil.real[...] = np.subtract(0.0, a)
    pencil.reshape(omegas.size, n * n)[:, :: n + 1].imag = omegas[:, None]
    with _lapack_errors(_raise_singular):
        resolvent = _umath_linalg.solve(pencil, b, signature="DD->D")
    with np.errstate(over="ignore", invalid="ignore"):  # reported as non-finite
        response = c @ resolvent
    return max_singular_value(response)


def max_singular_value(m: np.ndarray) -> float | np.ndarray:
    """Largest singular value of a real or complex matrix, or of each matrix
    of a stack; an SVD that does not converge raises NumericalError."""
    m = np.asarray(m)
    if not np.isfinite(m).all():
        raise InvalidInputError("matrix contains non-finite entries")
    try:
        with _lapack_errors(_raise_no_convergence):
            return _umath_linalg.svd(m, signature="D->d" if m.dtype.kind == "c" else "d->d")[..., 0]
    except LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
