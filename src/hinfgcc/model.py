"""Plant description, modeling assumptions, and uncertainty vertex enumeration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import AssumptionError, CapacityError, DimensionError

DEFAULT_VERTEX_CAP = 4096

# Hard assumption tolerances: C^T D must vanish entrywise to this absolute
# tolerance, D^T D must have eigenvalues at least this large.
CTD_TOL = 1e-9
DTD_MIN_EIG = 1e-9


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d matrix, got ndim={a.ndim}")
    return a


@dataclass(frozen=True)
class PlantModel:
    """Nominal LTI plant  dx = A x + B2 u + B1 w,  z = C x + D u.

    Immutable after construction; dimension consistency is checked here,
    the modeling assumptions are checked by validate_plant.
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in ("A", "B1", "B2", "C", "D"):
            object.__setattr__(self, name, _as_matrix(getattr(self, name), name))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionError(f"A must be square, got {self.A.shape}")
        if self.B1.shape[0] != n:
            raise DimensionError(f"B1 must have {n} rows, got {self.B1.shape}")
        if self.B1.shape[1] == 0:
            raise DimensionError("B1 must have at least one column (a disturbance input)")
        if self.B2.shape[0] != n:
            raise DimensionError(f"B2 must have {n} rows, got {self.B2.shape}")
        if self.B2.shape[1] == 0:
            raise DimensionError("B2 must have at least one column (a control input)")
        if self.C.shape[1] != n:
            raise DimensionError(f"C must have {n} columns, got {self.C.shape}")
        if self.D.shape != (self.C.shape[0], self.B2.shape[1]):
            raise DimensionError(
                f"D must be {self.C.shape[0]}x{self.B2.shape[1]}, got {self.D.shape}"
            )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B2.shape[1]

    @property
    def l(self) -> int:
        return self.B1.shape[1]

    @property
    def q(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class PlantValidation:
    """Result of validate_plant: hard checks passed, warnings are advisory."""

    ctd_max_abs: float
    dtd_min_eig: float
    warnings: tuple[str, ...] = ()


def validate_plant(plant: PlantModel) -> PlantValidation:
    """Check the hard modeling assumptions and run advisory PBH rank tests.

    Hard failures (raise AssumptionError): a weight B1 B1^T, C^T C, D^T D
    or C^T D beyond the float range, C^T D != 0, or D^T D not positive
    definite. Advisory only (returned as warnings): PBH rank tests for
    stabilizability of [A, B2] and observability of [A, C]; rank tests near
    marginal cases can misfire, so they never fail the plant.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        products = {
            "B1 B1^T": plant.B1 @ plant.B1.T,
            "C^T C": plant.C.T @ plant.C,
            "D^T D": plant.D.T @ plant.D,
            "C^T D": plant.C.T @ plant.D,
        }
    for name, product in products.items():
        if not np.isfinite(product).all():
            raise AssumptionError(f"{name} overflows the float range: rescale the plant")
    ctd = products["C^T D"]
    ctd_max = float(np.abs(ctd).max()) if ctd.size else 0.0
    if ctd_max > CTD_TOL:
        raise AssumptionError(
            f"C^T D must be zero (max abs entry {ctd_max:.3e} > {CTD_TOL:g})"
        )
    dtd_eigs = np.linalg.eigvalsh(kernels.symmetrize(products["D^T D"]))
    dtd_min = float(dtd_eigs[0]) if dtd_eigs.size else 0.0
    if dtd_min < DTD_MIN_EIG:
        raise AssumptionError(
            f"D^T D not positive definite (min eigenvalue {dtd_min:.3e})"
        )

    warnings: list[str] = []
    n = plant.n
    eigs = kernels.eig_general(plant.A)
    scale = max(1.0, float(np.abs(plant.A).max()))
    for lam in eigs:
        pencil = lam * np.eye(n) - plant.A
        # stabilizability only constrains modes in the closed right half plane
        if lam.real >= -1e-9:
            ctrb = np.hstack([pencil, plant.B2.astype(complex)])
            if np.linalg.matrix_rank(ctrb, tol=1e-9 * scale) < n:
                warnings.append(
                    f"[A, B2] may not be stabilizable: PBH rank deficient at "
                    f"eigenvalue {lam:.6g}"
                )
        obsv = np.vstack([pencil, plant.C.astype(complex)])
        if np.linalg.matrix_rank(obsv, tol=1e-9 * scale) < n:
            warnings.append(
                f"[A, C] may not be observable: PBH rank deficient at "
                f"eigenvalue {lam:.6g}"
            )
    return PlantValidation(ctd_max, dtd_min, tuple(warnings))


@dataclass(frozen=True)
class UncertaintySpec:
    """Entrywise relative bounds on A and B2, or an explicit vertex list.

    In bounds mode each uncertain entry ranges over nominal*(1 +/- fraction);
    entries with zero nominal value stay zero regardless of the fraction.
    Either way enumerate_vertices yields at most `cap` vertices.
    """

    delta_a: np.ndarray | None = None
    delta_b2: np.ndarray | None = None
    vertex_list: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None
    cap: int = DEFAULT_VERTEX_CAP

    @classmethod
    def relative(cls, delta_a, delta_b2, cap: int = DEFAULT_VERTEX_CAP) -> "UncertaintySpec":
        da = _as_matrix(delta_a, "delta_a")
        db = _as_matrix(delta_b2, "delta_b2")
        if (da < 0).any() or (db < 0).any():
            raise DimensionError("uncertainty fractions must be nonnegative")
        return cls(delta_a=da, delta_b2=db, cap=cap)

    @classmethod
    def from_vertices(cls, pairs, cap: int = DEFAULT_VERTEX_CAP) -> "UncertaintySpec":
        vlist = tuple(
            (_as_matrix(a, "vertex A"), _as_matrix(b, "vertex B2")) for a, b in pairs
        )
        if not vlist:
            raise DimensionError("vertex list must contain at least one vertex")
        return cls(vertex_list=vlist, cap=cap)

    @classmethod
    def none(cls) -> "UncertaintySpec":
        """No uncertainty: enumeration yields the single nominal vertex."""
        return cls(delta_a=None, delta_b2=None, vertex_list=None)

    @property
    def is_explicit(self) -> bool:
        return self.vertex_list is not None


@dataclass(frozen=True)
class VertexSet:
    """The extreme systems (A_i, B2_i) of the uncertainty polytope as two
    stacks; indexing and iteration give (A_i, B2_i) pairs of views.

    Enumeration order is deterministic: uncertain entries are ordered
    row-major with A before B2, and the binary expansion of the vertex index
    picks the lower (bit 0) or upper (bit 1) bound per entry, least
    significant bit first. Vertex 0 therefore has every entry at its lower
    bound; with no uncertainty the single vertex is the nominal plant.
    """

    A: np.ndarray  # (N, n, n)
    B2: np.ndarray  # (N, n, m)

    @property
    def N(self) -> int:
        return self.A.shape[0]

    def __iter__(self):
        return zip(self.A, self.B2)

    def __getitem__(self, i):
        return self.A[i], self.B2[i]


def enumerate_vertices(plant: PlantModel, spec: UncertaintySpec) -> VertexSet:
    """Enumerate the extreme systems described by an UncertaintySpec; more
    than spec.cap of them, listed or enumerated, raise CapacityError."""
    if spec.is_explicit:
        if len(spec.vertex_list) > spec.cap:
            raise CapacityError(
                f"{len(spec.vertex_list)} listed vertices exceed the cap of {spec.cap}"
            )
        for a, b in spec.vertex_list:
            if a.shape != plant.A.shape or b.shape != plant.B2.shape:
                raise DimensionError(
                    f"vertex shapes {a.shape}/{b.shape} do not match plant "
                    f"{plant.A.shape}/{plant.B2.shape}"
                )
        a, b2 = zip(*spec.vertex_list)
        return VertexSet(A=np.stack(a), B2=np.stack(b2))

    da = spec.delta_a if spec.delta_a is not None else np.zeros_like(plant.A)
    db = spec.delta_b2 if spec.delta_b2 is not None else np.zeros_like(plant.B2)
    if da.shape != plant.A.shape:
        raise DimensionError(f"delta_a shape {da.shape} != A shape {plant.A.shape}")
    if db.shape != plant.B2.shape:
        raise DimensionError(f"delta_b2 shape {db.shape} != B2 shape {plant.B2.shape}")

    # (matrix, row, col, fraction) per uncertain entry, row-major, A first;
    # zero-nominal entries are skipped: a relative bound on 0 is still 0.
    entries = [
        (key, i, j, frac[i, j])
        for key, nominal, frac in (("A", plant.A, da), ("B2", plant.B2, db))
        for i, j in zip(*np.nonzero((frac > 0.0) & (nominal != 0.0)))
    ]

    u = len(entries)
    if u > 0 and 2**u > spec.cap:
        raise CapacityError(
            f"{u} uncertain entries require 2^{u} = {2**u} vertices, "
            f"exceeding the cap of {spec.cap}"
        )

    stacks = {key: np.repeat(getattr(plant, key)[None], 2**u, axis=0) for key in ("A", "B2")}
    # upper[index, bit]: vertex index takes entry bit at its upper bound
    upper = ((np.arange(2**u)[:, None] >> np.arange(u)) & 1).astype(bool)
    with np.errstate(over="ignore"):  # reported below
        for bit, (key, i, j, frac) in enumerate(entries):
            nominal = getattr(plant, key)[i, j]
            stacks[key][:, i, j] = np.where(
                upper[:, bit], nominal * (1.0 + frac), nominal * (1.0 - frac)
            )
    if not all(np.isfinite(stack).all() for stack in stacks.values()):
        raise AssumptionError("the uncertainty bounds put a vertex entry beyond the float range")
    return VertexSet(**stacks)
