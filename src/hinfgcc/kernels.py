"""Dense numerical primitives with explicit contracts.

Every other module routes its linear algebra through here so that numerical
policy (symmetrization, eigenvalue clipping, factorization choices) lives in
one place. All functions are pure and safe to call concurrently.

Only numpy is used. The one linear system the solver meets, the p^2 x p^2
W operator, is inverted once through its Cholesky factor (spd_factor), so
each iteration's solve is a single matrix-vector product (spd_solve).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    InvalidInputError,
    NotPsdError,
    NumericalError,
    SingularSystemError,
)

# Inputs to sym_sqrt may dip this far below zero before they are rejected
# rather than clipped.
SQRT_PSD_TOL = 1e-6


class EigDecomp(NamedTuple):
    """Symmetric eigendecomposition with eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns, one per eigenvalue


def symmetrize(s: np.ndarray) -> np.ndarray:
    """Return (S + S^T)/2, the symmetric part of a square matrix or of each
    matrix of a (k, n, n) stack."""
    return (s + s.swapaxes(-1, -2)) / 2.0


def _check_finite(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def sym_eig(s: np.ndarray) -> EigDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""
    s = _check_finite(s, "matrix")
    w, v = np.linalg.eigh(symmetrize(s))
    return EigDecomp(w[::-1].copy(), v[:, ::-1].copy())


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
    """Frobenius-nearest positive semidefinite matrix to symmetric S.

    Eigenvalues are clipped at exactly zero; no positive floor is applied.
    (np.maximum(w, 0.0) returns np.clip's values for finite w, a -0.0
    eigenvalue included, at a quarter of its call cost.)
    """
    w, v = sym_eig(s)
    out = (v * np.maximum(w, 0.0)) @ v.T
    return symmetrize(out)


def project_psd_stack(stack: np.ndarray) -> np.ndarray:
    """Batched project_psd over the leading axis of a (k, n, n) array.

    Same clipping policy as project_psd; kept here so every projection in
    the package shares it.
    """
    stack = _check_finite(stack, "stack")
    stack = (stack + np.swapaxes(stack, -1, -2)) / 2.0
    w, v = np.linalg.eigh(stack)
    out = v @ (np.maximum(w, 0.0)[..., None] * np.swapaxes(v, -1, -2))
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def project_nonneg(x: float) -> float:
    """Projection of a scalar onto the nonnegative half-line."""
    return max(float(x), 0.0)


def sym_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root R of a PSD matrix, R @ R = S.

    Slightly negative eigenvalues (roundoff) are clipped to zero; anything
    below -SQRT_PSD_TOL is treated as a genuinely indefinite input.
    """
    w, v = sym_eig(s)
    if w[-1] < -SQRT_PSD_TOL:
        raise NotPsdError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e}")
    out = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return symmetrize(out)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def vec(m: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into one vector."""
    return np.asarray(m, dtype=float).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of vec: rebuild a rows-by-cols matrix column by column."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != rows * cols:
        raise DimensionError(f"cannot unvec length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


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
    """Eigenvalues of a general real square matrix (complex array)."""
    a = _check_finite(a, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration did not converge: {exc}") from exc


def max_singular_value(m: np.ndarray) -> float:
    """Largest singular value of a real or complex matrix."""
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix contains non-finite entries")
    return float(np.linalg.svd(m, compute_uv=False)[0])
