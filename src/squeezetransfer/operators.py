"""Named operators of the model: ladder operators, atomic transitions,
collective atomic spin, photonic pseudo-spin, and field quadratures.

The pseudo-spin L follows the Schwinger construction over the two cavity
modes; commutators satisfy [L_a, L_b] = i eps_abc L_c on states whose total
photon number stays clear of the Fock cutoff.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .hilbert import CompositeSpace, Frozen, HermitianOperator, Kind, Operator, embed


class SpinTriple(Frozen):
    """Cartesian components of an SU(2) (pseudo-)spin on the full space."""

    def __init__(self, x: HermitianOperator, y: HermitianOperator, z: HermitianOperator):
        self._set(x=x, y=y, z=z)

    @property
    def components(self) -> tuple[HermitianOperator, ...]:
        return (self.x, self.y, self.z)


class QuadraturePair(Frozen):
    """X1 = (a^dag + a)/2 and X2 = i(a^dag - a)/2 for one photon mode."""

    def __init__(self, x1: HermitianOperator, x2: HermitianOperator):
        self._set(x1=x1, x2=x2)


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


def transition_matrices(
    space: CompositeSpace, cavity: int, transitions: Sequence[tuple[str, str]]
) -> np.ndarray:
    """|to><from| on the atom of the given cavity (1 or 2), identity elsewhere,
    for each (from_level, to_level) of `transitions`: a (k, d, d) stack of bare
    matrices."""
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
    return embed(space, _on_factor(space, atoms[cavity - 1], local))


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
