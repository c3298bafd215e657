"""Interaction-picture model Hamiltonian and its invariant four-state block.

Per cavity the interaction-picture Hamiltonian is

    (mu - eta) |e><e| + lam (|e><g| a^2 + |g><e| a^dag^2)

(hbar = 1) and the cavities are coupled by the two-photon hopping term
zeta (a1^dag^2 a2^2 + a2^dag^2 a1^2).  The paper's per-cavity terms
mu |e><e| + eta |g><g| - (e_g + e_e)/2 are this plus a scalar, and the
carrier frequency omega cancels in the interaction picture: both set only a
global phase, so H leaves them out and its rounding does not grow with them.

The four states

    phi1 = (|g,2;g,0> + |g,0;g,2>)/sqrt(2)      (symmetric, photonic)
    phi2 = (|g,2;g,0> - |g,0;g,2>)/sqrt(2)      (antisymmetric, photonic)
    phi3 = (|e,0;g,0> + |g,0;e,0>)/sqrt(2)      (symmetric, atomic)
    phi4 = (|e,0;g,0> - |g,0;e,0>)/sqrt(2)      (antisymmetric, atomic)

span a subspace the Hamiltonian maps into itself; within it the dynamics
splits into two real-symmetric 2x2 blocks that differ only by the sign of
the hopping contribution: the hopping operator projects to diag(2, -2, 0, 0).
"""

from __future__ import annotations

import numbers
from typing import Mapping

import numpy as np

from .hilbert import (
    HERMITICITY_TOL,
    CompositeSpace,
    Frozen,
    HermitianOperator,
    Kind,
    Value,
    hermiticity_deviation,
)
from .operators import ladder_matrices, transition_matrices

LEAKAGE_TOL = 1e-12


class ModelInconsistencyError(RuntimeError):
    """The Hamiltonian does not exhibit the structure the model guarantees."""


class ModelParams(Value):
    """Model parameters in one energy unit.  The dynamics read mu - eta, lam and
    zeta; omega, e_g and e_e are checked but set only a global phase."""

    def __init__(self, omega: float = 0.0, mu: float = 0.0, eta: float = 0.0,
                 lam: float = 1.0, zeta: float = 0.0, e_g: float = 0.0, e_e: float = 0.0):
        self._set(omega=omega, mu=mu, eta=eta, lam=lam, zeta=zeta, e_g=e_g, e_e=e_e)
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.lam <= 0:
            raise ValueError(f"lam must be positive (it sets the scale), got {self.lam}")
        if self.zeta < 0:
            raise ValueError(f"zeta must be non-negative, got {self.zeta}")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, float]) -> "ModelParams":
        """Parameters from flat keys; every value must be a real number, not a bool."""
        if not isinstance(mapping, Mapping):
            raise ValueError(
                f"parameters must be an object of names to numbers, got {type(mapping).__name__}"
            )
        known = {"omega", "mu", "eta", "lam", "lambda", "zeta", "e_g", "e_e"}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        for k, v in mapping.items():
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{k} must be a number, got {v!r}")
        try:
            kwargs = {k: float(v) for k, v in mapping.items()}
        except OverflowError as exc:
            raise ValueError(f"parameter out of float range: {exc}") from exc
        if "lambda" in kwargs:
            if "lam" in kwargs:
                raise ValueError("give either 'lam' or 'lambda', not both")
            kwargs["lam"] = kwargs.pop("lambda")
        return cls(**kwargs)


def _require_canonical(space: CompositeSpace) -> None:
    kinds = tuple(f.kind for f in space.factors)
    expected = (Kind.ATOM, Kind.PHOTON_MODE, Kind.ATOM, Kind.PHOTON_MODE)
    if kinds != expected:
        raise ValueError(
            f"space must be (atom, mode, atom, mode), got {[k.value for k in kinds]}"
        )


def hopping_matrix(ladders: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """a1^dag^2 a2^2 + a2^dag^2 a1^2 from the two modes' (a, a^dag)."""
    (a1, a1d), (a2, a2d) = ladders
    return a1d @ a1d @ a2 @ a2 + a2d @ a2d @ a1 @ a1


def model_operators(
    params: ModelParams, space: CompositeSpace
) -> tuple[HermitianOperator, HermitianOperator]:
    """(H, Hop): the full interaction-picture Hamiltonian on the canonical
    space, and the hopping operator a1^dag^2 a2^2 + a2^dag^2 a1^2 that it
    adds with coefficient zeta, both from the same embedded ladder operators.

    Finite parameters can still overflow H; that raises a ValueError naming
    them, without numpy's floating-point warnings."""
    _require_canonical(space)
    ladders = [ladder_matrices(space, m) for m in space.factor_indices(Kind.PHOTON_MODE)]
    h = np.zeros((space.total_dim,) * 2, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for cavity, (a, ad) in zip((1, 2), ladders):
            see, seg, sge = transition_matrices(  # |e><e|, |e><g| and |g><e|
                space, cavity, [("e", "e"), ("g", "e"), ("e", "g")])
            h += (params.mu - params.eta) * see
            h += params.lam * (seg @ a @ a + sge @ ad @ ad)
        hop = hopping_matrix(ladders)
        h += params.zeta * hop
    if not np.isfinite(h).all():
        names = ", ".join(f"{k}={getattr(params, k)!r}" for k in ("mu", "eta", "lam", "zeta"))
        raise ValueError(f"the Hamiltonian overflows for {names}: it has non-finite entries")
    return HermitianOperator(space, h), HermitianOperator(space, hop)


def build_hamiltonian(params: ModelParams, space: CompositeSpace) -> HermitianOperator:
    """Full interaction-picture Hamiltonian on the canonical space."""
    return model_operators(params, space)[0]


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


def _ordered_block_eigen(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues descending for each 2x2 block of a (..., 2, 2) stack;
    eigenvector signs fixed by a positive leading (largest-magnitude)
    component so amplitude formulas are deterministic."""
    evals, evecs = np.linalg.eigh(blocks)
    evals, evecs = evals[..., ::-1], evecs[..., ::-1]
    lead = np.take_along_axis(evecs, np.argmax(np.abs(evecs), axis=-2)[..., None, :], axis=-2)
    return evals, np.where(lead.real < 0, -evecs, evecs)


class ManifoldBlock(Frozen):
    """Projected 4x4 Hamiltonian with its symmetric/antisymmetric sub-blocks,
    for one zeta or for a stack of them.

    Eigenfrequencies are in units of lam: omegas = (w1, w2, w3, w4) with
    (w1, w2) the descending eigenvalues of h_sym on (phi1, phi3) and
    (w3, w4) the descending eigenvalues of h_anti on (phi2, phi4).  One zeta
    has h_sym, h_anti, vecs_sym, vecs_anti of shape (2, 2) and omegas of
    shape (4,); a stack of n puts a leading (n,) axis on each of them, and
    block[rows] takes its rows.  The basis (dim, 4) is shared.
    """

    __iter__ = None  # not a sequence: __getitem__ alone would make it iterable

    def __init__(self, basis: np.ndarray, h_sym: np.ndarray, h_anti: np.ndarray,
                 omegas: np.ndarray, vecs_sym: np.ndarray, vecs_anti: np.ndarray):
        self._set(basis=basis, h_sym=h_sym, h_anti=h_anti, omegas=omegas, vecs_sym=vecs_sym,
                  vecs_anti=vecs_anti)

    def __getitem__(self, rows) -> "ManifoldBlock":
        return ManifoldBlock(self.basis, self.h_sym[rows], self.h_anti[rows], self.omegas[rows],
                             self.vecs_sym[rows], self.vecs_anti[rows])

    @property
    def delta_12(self) -> float | np.ndarray:
        return self.omegas[..., 0] - self.omegas[..., 1]


def _project(h: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, float]:
    """phi^dag h phi, and how far h maps span{phi1..phi4} out of itself."""
    h4 = phi.conj().T @ h @ phi
    return h4, float(np.max(np.abs(h @ phi - phi @ h4)))


def _parity_blocks(h4: np.ndarray, leakage: float, phi: np.ndarray) -> ManifoldBlock:
    """Check (n, 4, 4) projected blocks in units of lam, of Hamiltonians that leak
    by at most `leakage`, and split them into one stack of parity sub-blocks."""
    if not leakage < LEAKAGE_TOL:
        raise ModelInconsistencyError(
            f"Hamiltonian leaks out of the four-state manifold by {leakage:.3e}"
        )
    if not np.max(np.abs(h4.imag)) < LEAKAGE_TOL:
        raise ModelInconsistencyError("projected block is not real")
    h4 = h4.real
    cross = np.max(np.abs(h4[:, [[0], [2]], [1, 3]]))
    if not cross < LEAKAGE_TOL:
        raise ModelInconsistencyError(
            f"symmetric and antisymmetric sectors mix by {cross:.3e}"
        )
    sym, anti = h4[:, [[0], [2]], [0, 2]], h4[:, [[1], [3]], [1, 3]]
    w_sym, v_sym = _ordered_block_eigen(sym)
    w_anti, v_anti = _ordered_block_eigen(anti)
    omegas = np.concatenate([w_sym, w_anti], axis=-1)
    return ManifoldBlock(phi, sym, anti, omegas, v_sym, v_anti)


def extract_manifold_block(h: HermitianOperator, lam: float = 1.0) -> ManifoldBlock:
    """Project onto span{phi1..phi4} and split into parity sub-blocks."""
    phi = manifold_basis(h.space)
    h4, leakage = _project(h.matrix, phi)
    return _parity_blocks(h4[None] / lam, leakage, phi)[0]


def manifold_blocks(
    h0: HermitianOperator, hop: HermitianOperator, zetas: np.ndarray, lam: float = 1.0
) -> ManifoldBlock:
    """The stack of blocks of H(zeta) = h0 + zeta * lam * hop, with zeta in
    units of lam, row i for zetas[i], from one projection of each: the basis
    does not depend on zeta, so the block is linear in it.
    By the triangle inequality, x(h0) + max|zeta * lam| * x(hop) bounds
    x(H(zeta)) for x the leakage and the Hermiticity deviation; both bounds
    are checked.  A block that overflows in units of lam raises a ValueError
    naming lam and the largest zeta, without numpy's floating-point
    warnings."""
    zetas = np.asarray(zetas, dtype=float)
    hoppings = zetas * lam
    h_max = float(np.max(np.abs(hoppings)))
    phi = manifold_basis(h0.space)
    (h4_0, leak_0), (h4_hop, leak_hop) = _project(h0.matrix, phi), _project(hop.matrix, phi)
    herm = hermiticity_deviation(h0.matrix) + h_max * hermiticity_deviation(hop.matrix)
    if not herm < HERMITICITY_TOL:
        raise ModelInconsistencyError(f"Hamiltonian deviates from Hermiticity by {herm:.3e}")
    with np.errstate(over="ignore", invalid="ignore"):
        h4 = (h4_0 + hoppings[:, None, None] * h4_hop) / lam
    if not np.isfinite(h4).all():
        raise ValueError(f"the four-state block overflows in units of lam={lam!r} for zeta up "
                         f"to {float(np.max(np.abs(zetas)))!r}: it has non-finite entries")
    return _parity_blocks(h4, leak_0 + h_max * leak_hop, phi)
