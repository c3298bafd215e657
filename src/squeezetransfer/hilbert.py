"""Labeled finite-dimensional Hilbert spaces and the operator algebra on them.

Conventions
-----------
The canonical factor order for the full model space is
(atom 1, photons 1, atom 2, photons 2).  Basis enumeration is row-major in
that order (first factor slowest).  Atom levels are ordered (g, e); photon
modes are Fock-ordered 0..n_max.

All containers are immutable after construction and every operation is a
pure function of its inputs.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_FLOOR = -1e-10
IMAG_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """An operator or vector does not fit the space it is applied to."""


class NumericalConsistencyError(RuntimeError):
    """A quantity that must be real/Hermitian/normalized failed its check."""


class Kind(enum.Enum):
    ATOM = "atom"
    PHOTON_MODE = "photon_mode"


@dataclass(frozen=True)
class SubsystemSpec:
    """One tensor factor: a two-level atom or a truncated photon mode."""

    kind: Kind
    dimension: int

    def __post_init__(self):
        if self.kind is Kind.ATOM and self.dimension != 2:
            raise ValueError(f"atom factor must have dimension 2, got {self.dimension}")
        if self.kind is Kind.PHOTON_MODE and self.dimension < 3:
            raise ValueError(
                f"photon mode must resolve photon numbers 0..2, need dimension >= 3, "
                f"got {self.dimension}"
            )

    @property
    def labels(self) -> tuple:
        if self.kind is Kind.ATOM:
            return ("g", "e")
        return tuple(range(self.dimension))


def atom() -> SubsystemSpec:
    return SubsystemSpec(Kind.ATOM, 2)


def photon_mode(n_max: int = 2) -> SubsystemSpec:
    return SubsystemSpec(Kind.PHOTON_MODE, n_max + 1)


@dataclass(frozen=True)
class CompositeSpace:
    """Ordered tensor product of subsystem factors with labeled basis."""

    factors: tuple[SubsystemSpec, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("composite space needs at least one factor")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dimension for f in self.factors)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def basis_labels(self) -> list[tuple]:
        return list(itertools.product(*(f.labels for f in self.factors)))

    def basis_index(self, label: Sequence) -> int:
        if len(label) != len(self.factors):
            raise DimensionMismatchError(
                f"label {label!r} has {len(label)} entries for {len(self.factors)} factors"
            )
        idx = 0
        for part, factor in zip(label, self.factors):
            pos = factor.labels.index(part)
            idx = idx * factor.dimension + pos
        return idx

    def basis_vector(self, label: Sequence) -> np.ndarray:
        vec = np.zeros(self.total_dim, dtype=complex)
        vec[self.basis_index(label)] = 1.0
        return vec

    def subspace(self, keep: Sequence[int]) -> "CompositeSpace":
        return CompositeSpace(tuple(self.factors[i] for i in keep))

    def factor_indices(self, kind: Kind) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.factors) if f.kind is kind)


def standard_space(n_max: int = 2) -> CompositeSpace:
    """The canonical (atom 1, photons 1, atom 2, photons 2) model space."""
    return CompositeSpace((atom(), photon_mode(n_max), atom(), photon_mode(n_max)))


@functools.lru_cache(maxsize=None)
def _triangle_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat row-major indices of the entries (i, j), i <= j, of a d x d matrix,
    and of their mirror images (j, i)."""
    flat = np.arange(d * d).reshape(d, d)
    upper = np.arange(d)[:, None] <= np.arange(d)
    pairs = flat[upper], flat.T[upper]
    for index in pairs:  # shared by every caller through the cache
        index.setflags(write=False)
    return pairs


def hermiticity_deviation(matrix: np.ndarray) -> float:
    """Largest entry of |M - M^dag| over one matrix or a stack (..., d, d).

    |M_ij - conj(M_ji)| and |M_ji - conj(M_ij)| are the same number, so only
    the upper triangle with its diagonal is compared, with the same result."""
    d = matrix.shape[-1]
    upper, lower = _triangle_pairs(d)
    flat = matrix.reshape(matrix.shape[:-2] + (d * d,))
    return float(np.max(np.abs(flat.take(upper, axis=-1) - flat.take(lower, axis=-1).conj())))


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix acting on a labeled composite space."""

    space: CompositeSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.space.total_dim
        if mat.shape != (d, d):
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} does not match space dimension {d}"
            )
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True, eq=False)
class HermitianOperator(Operator):
    """Operator verified Hermitian on construction."""

    def __post_init__(self):
        super().__post_init__()
        dev = hermiticity_deviation(self.matrix)
        if not dev < HERMITICITY_TOL:
            raise NumericalConsistencyError(
                f"operator deviates from Hermiticity by {dev:.3e}"
            )


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator.

    `matrix` is one (d, d) matrix or a stack (..., d, d) of them, such as one
    per time of a grid row; every matrix of a stack passes the same checks.
    """

    space: CompositeSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.space.total_dim
        if mat.shape[-2:] != (d, d):
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} does not match space dimension {d}"
            )
        dev = hermiticity_deviation(mat)
        if not dev < HERMITICITY_TOL:
            raise NumericalConsistencyError(
                f"density matrix deviates from Hermiticity by {dev:.3e}"
            )
        tr_dev = np.max(np.abs(np.trace(mat, axis1=-2, axis2=-1) - 1.0))
        if not tr_dev < TRACE_TOL:
            raise NumericalConsistencyError(
                f"density matrix trace deviates from 1 by {tr_dev:.3e}"
            )
        lowest = np.linalg.eigvalsh(mat).min()
        if not lowest >= POSITIVITY_FLOOR:
            raise NumericalConsistencyError(
                f"density matrix has negative eigenvalue {lowest:.3e}"
            )
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_state_vector(cls, space: CompositeSpace, vec: np.ndarray) -> "DensityMatrix":
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (space.total_dim,):
            raise DimensionMismatchError(
                f"vector shape {vec.shape} does not match space dimension {space.total_dim}"
            )
        return cls(space, np.outer(vec, vec.conj()))


def embed(space: CompositeSpace, factor_ops: Sequence[Optional[np.ndarray]]) -> np.ndarray:
    """Kronecker product in canonical factor order as a bare (d, d) matrix;
    None means identity.  A factor given as a (..., d_i, d_i) stack gives the
    (..., d, d) stack of products.  Each step is one broadcast product, with
    the same bits as np.kron."""
    if len(factor_ops) != len(space.factors):
        raise DimensionMismatchError(
            f"{len(factor_ops)} factor operators supplied for "
            f"{len(space.factors)} factors"
        )
    full = np.ones((1, 1), dtype=complex)
    for i, (op, factor) in enumerate(zip(factor_ops, space.factors)):
        d = factor.dimension
        if op is None:
            local = np.eye(d, dtype=complex)
        else:
            local = np.asarray(op, dtype=complex)
            if local.shape[-2:] != (d, d):
                raise DimensionMismatchError(
                    f"factor {i}: operator shape {local.shape} does not match "
                    f"dimension {d}"
                )
        full = full[..., :, None, :, None] * local[..., None, :, None, :]
        n = full.shape[-2] * full.shape[-1]
        full = full.reshape(full.shape[:-4] + (n, n))
    return full


def expectation(op: Operator, rho: DensityMatrix) -> float | np.ndarray:
    """Tr(op rho), checked real to within 1e-10; one value per matrix of a stack."""
    if op.space != rho.space:
        raise DimensionMismatchError("operator and state live on different spaces")
    val = np.einsum("ij,...ji->...", op.matrix, rho.matrix)
    residue = np.max(np.abs(val.imag))
    if not residue < IMAG_TOL:
        raise NumericalConsistencyError(
            f"expectation value has imaginary residue {residue:.3e}"
        )
    return val.real

