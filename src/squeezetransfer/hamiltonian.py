"""Interaction-picture model Hamiltonian and its invariant four-state block.

Per cavity the interaction-picture Hamiltonian is

    mu |e><e| + eta |g><g| + lam (|e><g| a^2 + |g><e| a^dag^2) - (e_g + e_e)/2,

(hbar = 1) and the cavities are coupled by the two-photon hopping term
zeta (a1^dag^2 a2^2 + a2^dag^2 a1^2).  The carrier frequency omega cancels
in the interaction picture and never enters the dynamics.

The four states

    phi1 = (|g,2;g,0> + |g,0;g,2>)/sqrt(2)      (symmetric, photonic)
    phi2 = (|g,2;g,0> - |g,0;g,2>)/sqrt(2)      (antisymmetric, photonic)
    phi3 = (|e,0;g,0> + |g,0;e,0>)/sqrt(2)      (symmetric, atomic)
    phi4 = (|e,0;g,0> - |g,0;e,0>)/sqrt(2)      (antisymmetric, atomic)

span a subspace the Hamiltonian maps into itself; within it the dynamics
splits into two real-symmetric 2x2 blocks that differ only by the sign of
the hopping contribution.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .hilbert import (
    CompositeSpace,
    HermitianOperator,
    Kind,
)
from .operators import atomic_transition, ladder

LEAKAGE_TOL = 1e-12


class ModelInconsistencyError(RuntimeError):
    """The Hamiltonian does not exhibit the structure the model guarantees."""


@dataclass(frozen=True)
class ModelParams:
    """Model parameters; lam is the energy unit, zeta is quoted in units of lam."""

    omega: float = 0.0
    mu: float = 0.0
    eta: float = 0.0
    lam: float = 1.0
    zeta: float = 0.0
    e_g: float = 0.0
    e_e: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.lam <= 0:
            raise ValueError(f"lam must be positive (it sets the scale), got {self.lam}")
        if self.zeta < 0:
            raise ValueError(f"zeta must be non-negative, got {self.zeta}")

    def replace(self, **kwargs) -> "ModelParams":
        return dataclasses.replace(self, **kwargs)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, float]) -> "ModelParams":
        known = {"omega", "mu", "eta", "lam", "lambda", "zeta", "e_g", "e_e"}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        kwargs = {k: float(v) for k, v in mapping.items() if k != "lambda"}
        if "lambda" in mapping:
            if "lam" in mapping:
                raise ValueError("give either 'lam' or 'lambda', not both")
            kwargs["lam"] = float(mapping["lambda"])
        return cls(**kwargs)


def _require_canonical(space: CompositeSpace) -> None:
    kinds = tuple(f.kind for f in space.factors)
    expected = (Kind.ATOM, Kind.PHOTON_MODE, Kind.ATOM, Kind.PHOTON_MODE)
    if kinds != expected:
        raise ValueError(
            f"space must be (atom, mode, atom, mode), got {[k.value for k in kinds]}"
        )


def hopping_operator(space: CompositeSpace) -> HermitianOperator:
    """a1^dag^2 a2^2 + a2^dag^2 a1^2 with unit coefficient."""
    _require_canonical(space)
    modes = space.factor_indices(Kind.PHOTON_MODE)
    a1, a1d = (op.matrix for op in ladder(space, modes[0]))
    a2, a2d = (op.matrix for op in ladder(space, modes[1]))
    hop = a1d @ a1d @ a2 @ a2 + a2d @ a2d @ a1 @ a1
    return HermitianOperator(space, hop)


def build_hamiltonian(params: ModelParams, space: CompositeSpace) -> HermitianOperator:
    """Full interaction-picture Hamiltonian on the canonical space."""
    _require_canonical(space)
    modes = space.factor_indices(Kind.PHOTON_MODE)
    d = space.total_dim
    h = np.zeros((d, d), dtype=complex)
    for cavity in (1, 2):
        see = atomic_transition(space, cavity, "e", "e").matrix
        sgg = atomic_transition(space, cavity, "g", "g").matrix
        seg = atomic_transition(space, cavity, "g", "e").matrix  # |e><g|
        sge = atomic_transition(space, cavity, "e", "g").matrix  # |g><e|
        a, ad = (op.matrix for op in ladder(space, modes[cavity - 1]))
        h += params.mu * see + params.eta * sgg
        h += params.lam * (seg @ a @ a + sge @ ad @ ad)
        h -= 0.5 * (params.e_g + params.e_e) * np.eye(d)
    h += params.zeta * hopping_operator(space).matrix
    return HermitianOperator(space, h)


def manifold_basis(space: CompositeSpace) -> np.ndarray:
    """Columns phi1..phi4 as vectors in the full space."""
    _require_canonical(space)
    v20 = space.basis_vector(("g", 2, "g", 0))
    v02 = space.basis_vector(("g", 0, "g", 2))
    ve1 = space.basis_vector(("e", 0, "g", 0))
    ve2 = space.basis_vector(("g", 0, "e", 0))
    s = 1 / np.sqrt(2)
    return np.column_stack(
        [s * (v20 + v02), s * (v20 - v02), s * (ve1 + ve2), s * (ve1 - ve2)]
    )


def _ordered_block_eigen(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues descending; eigenvector signs fixed by a positive leading
    component so amplitude formulas are deterministic."""
    evals, evecs = np.linalg.eigh(block)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    for j in range(evecs.shape[1]):
        col = evecs[:, j]
        lead = col[np.argmax(np.abs(col))]
        if lead.real < 0:
            evecs[:, j] = -col
    return evals, evecs


@dataclass(frozen=True, eq=False)
class ManifoldBlock:
    """Projected 4x4 Hamiltonian with its symmetric/antisymmetric sub-blocks.

    Eigenfrequencies are in units of lam: omegas = (w1, w2, w3, w4) with
    (w1, w2) the descending eigenvalues of h_sym on (phi1, phi3) and
    (w3, w4) the descending eigenvalues of h_anti on (phi2, phi4).
    """

    basis: np.ndarray
    h_sym: np.ndarray
    h_anti: np.ndarray
    omegas: np.ndarray
    vecs_sym: np.ndarray
    vecs_anti: np.ndarray

    @property
    def delta_12(self) -> float:
        return float(self.omegas[0] - self.omegas[1])

    @property
    def delta_34(self) -> float:
        return float(self.omegas[2] - self.omegas[3])


def extract_manifold_block(h: HermitianOperator, lam: float = 1.0) -> ManifoldBlock:
    """Project onto span{phi1..phi4} and split into parity sub-blocks."""
    phi = manifold_basis(h.space)
    h4 = phi.conj().T @ h.matrix @ phi
    leakage = np.max(np.abs(h.matrix @ phi - phi @ h4))
    if not leakage < LEAKAGE_TOL:
        raise ModelInconsistencyError(
            f"Hamiltonian leaks out of the four-state manifold by {leakage:.3e}"
        )
    h4 = h4 / lam
    if not np.max(np.abs(h4.imag)) < LEAKAGE_TOL:
        raise ModelInconsistencyError("projected block is not real")
    h4 = h4.real
    sym = h4[np.ix_([0, 2], [0, 2])]
    anti = h4[np.ix_([1, 3], [1, 3])]
    cross = h4[np.ix_([0, 2], [1, 3])]
    if not np.max(np.abs(cross)) < LEAKAGE_TOL:
        raise ModelInconsistencyError(
            f"symmetric and antisymmetric sectors mix by {np.max(np.abs(cross)):.3e}"
        )
    w_sym, v_sym = _ordered_block_eigen(sym)
    w_anti, v_anti = _ordered_block_eigen(anti)
    return ManifoldBlock(
        basis=phi,
        h_sym=sym,
        h_anti=anti,
        omegas=np.concatenate([w_sym, w_anti]),
        vecs_sym=v_sym,
        vecs_anti=v_anti,
    )
