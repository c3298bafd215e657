"""Named operators of the model: ladder operators, atomic transitions,
collective atomic spin, photonic pseudo-spin, and field quadratures.

The pseudo-spin L follows the Schwinger construction over the two cavity
modes; commutators satisfy [L_a, L_b] = i eps_abc L_c on states whose total
photon number stays clear of the Fock cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .hilbert import (
    CompositeSpace,
    HermitianOperator,
    Kind,
    Operator,
    embed,
    tensor_product,
)

# The (i, j) of the six symmetrized products among SpinTriple.moment_operators,
# and the position among them of each entry of the 3x3 second-moment matrix.
MOMENT_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
SECOND_MOMENT_INDEX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


@dataclass(frozen=True, eq=False)
class SpinTriple:
    """Cartesian components of an SU(2) (pseudo-)spin on the full space."""

    x: HermitianOperator
    y: HermitianOperator
    z: HermitianOperator

    @property
    def components(self) -> tuple[HermitianOperator, ...]:
        return (self.x, self.y, self.z)

    @cached_property
    def moment_operators(self) -> np.ndarray:
        """The 3 components, then the 6 symmetrized products {S_i, S_j}/2 for
        (i, j) in MOMENT_PAIRS: a read-only (9, d, d) stack, built once."""
        comps = [s.matrix for s in self.components]
        products = [(comps[i] @ comps[j] + comps[j] @ comps[i]) / 2 for i, j in MOMENT_PAIRS]
        ops = np.stack(comps + products)
        ops.setflags(write=False)
        return ops


@dataclass(frozen=True, eq=False)
class QuadraturePair:
    """X1 = (a^dag + a)/2 and X2 = i(a^dag - a)/2 for one photon mode."""

    x1: HermitianOperator
    x2: HermitianOperator


def lowering_matrix(dimension: int) -> np.ndarray:
    """Truncated a with a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, dimension, dtype=float)), k=1).astype(complex)


def _on_factor(space: CompositeSpace, index: int, local: np.ndarray) -> list:
    """Factor operators with `local` at `index` and identity elsewhere."""
    ops: list = [None] * len(space.factors)
    ops[index] = local
    return ops


def ladder_matrices(space: CompositeSpace, mode_index: int) -> tuple[np.ndarray, np.ndarray]:
    """(lowering, raising) for the photon mode at `mode_index`, embedded as
    bare matrices."""
    factor = space.factors[mode_index]
    if factor.kind is not Kind.PHOTON_MODE:
        raise ValueError(f"factor {mode_index} is {factor.kind.value}, not a photon mode")
    a = lowering_matrix(factor.dimension)
    low, high = embed(space, _on_factor(space, mode_index, np.stack([a, a.conj().T])))
    return low, high


def ladder(space: CompositeSpace, mode_index: int) -> tuple[Operator, Operator]:
    """(lowering, raising) for the photon mode at `mode_index`, embedded."""
    low, high = ladder_matrices(space, mode_index)
    return Operator(space, low), Operator(space, high)


def _transition_locals(
    space: CompositeSpace, cavity: int, transitions: Sequence[tuple[str, str]]
) -> tuple[int, np.ndarray]:
    """The factor index of the atom of the given cavity, and the (k, 2, 2)
    stack of |to><from| for each (from_level, to_level) of `transitions`."""
    if cavity not in (1, 2):
        raise ValueError(f"cavity must be 1 or 2, got {cavity}")
    levels = ("g", "e")
    local = np.zeros((len(transitions), 2, 2), dtype=complex)
    for k, (from_level, to_level) in enumerate(transitions):
        if from_level not in levels or to_level not in levels:
            raise ValueError(f"levels must be 'g' or 'e', got {from_level!r}, {to_level!r}")
        local[k, levels.index(to_level), levels.index(from_level)] = 1.0
    atoms = space.factor_indices(Kind.ATOM)
    if len(atoms) < cavity:
        raise ValueError(f"space has {len(atoms)} atom factors, cavity {cavity} requested")
    return atoms[cavity - 1], local


def atomic_transition(
    space: CompositeSpace, cavity: int, from_level: str, to_level: str
) -> Operator:
    """|to><from| on the atom of the given cavity (1 or 2), identity elsewhere."""
    index, local = _transition_locals(space, cavity, [(from_level, to_level)])
    return tensor_product(space, _on_factor(space, index, local[0]))


def transition_matrices(
    space: CompositeSpace, cavity: int, transitions: Sequence[tuple[str, str]]
) -> np.ndarray:
    """atomic_transition(space, cavity, from_level, to_level) for each
    (from_level, to_level) of `transitions`, as a (k, d, d) stack of bare matrices."""
    index, local = _transition_locals(space, cavity, transitions)
    return embed(space, _on_factor(space, index, local))


def _single_atom_spin() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sy = np.array([[0, 1j], [-1j, 0]], dtype=complex) / 2  # basis order (g, e)
    sz = np.array([[-1, 0], [0, 1]], dtype=complex) / 2
    return sx, sy, sz


def collective_atomic_spin(space: CompositeSpace) -> SpinTriple:
    """S = S^(1) x 1 + 1 x S^(2), summed over the two atom factors."""
    atoms = space.factor_indices(Kind.ATOM)
    if len(atoms) != 2:
        raise ValueError(f"space must contain exactly two atoms, found {len(atoms)}")
    singles = np.stack(_single_atom_spin())
    totals = np.zeros((3, space.total_dim, space.total_dim), dtype=complex)
    for idx in atoms:
        totals = totals + embed(space, _on_factor(space, idx, singles))
    return SpinTriple(*(HermitianOperator(space, m) for m in totals))


def photonic_pseudospin(space: CompositeSpace) -> SpinTriple:
    """Schwinger pseudo-spin over the two cavity modes:
    L_x = (a1^dag a2 + a2^dag a1)/2, L_y = -i(a1^dag a2 - a2^dag a1)/2,
    L_z = (a1^dag a1 - a2^dag a2)/2.
    """
    modes = space.factor_indices(Kind.PHOTON_MODE)
    if len(modes) != 2:
        raise ValueError(f"space must contain exactly two photon modes, found {len(modes)}")
    a1, a1d = ladder_matrices(space, modes[0])
    a2, a2d = ladder_matrices(space, modes[1])
    lx = (a1d @ a2 + a2d @ a1) / 2
    ly = -1j * (a1d @ a2 - a2d @ a1) / 2
    lz = (a1d @ a1 - a2d @ a2) / 2
    return SpinTriple(
        HermitianOperator(space, lx),
        HermitianOperator(space, ly),
        HermitianOperator(space, lz),
    )


def quadratures(space: CompositeSpace, mode_index: int) -> QuadraturePair:
    a, ad = ladder_matrices(space, mode_index)
    x1 = (ad + a) / 2
    x2 = 1j * (ad - a) / 2
    return QuadraturePair(HermitianOperator(space, x1), HermitianOperator(space, x2))


def commutator(a: Operator, b: Operator) -> np.ndarray:
    return a.matrix @ b.matrix - b.matrix @ a.matrix


def total_photon_projector(space: CompositeSpace, max_total: int) -> np.ndarray:
    """Projector onto basis states with total photon number <= max_total.

    Used to restrict algebraic identities to the subspace the Fock cutoff
    cannot clip.
    """
    modes = space.factor_indices(Kind.PHOTON_MODE)
    diag = np.zeros(space.total_dim)
    for i, label in enumerate(space.basis_labels):
        total = sum(label[m] for m in modes)
        if total <= max_total:
            diag[i] = 1.0
    return np.diag(diag).astype(complex)
