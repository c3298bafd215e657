"""Time evolution of the two initial states, by two independent routes.

Route one expands the state in the eigenvectors of the 2x2 parity blocks and
attaches spectral phases (closed form).  Route two exponentiates the full
Hamiltonian through a dense Hermitian eigendecomposition (numeric oracle).
Time is measured in units of 1/lam throughout, matching the eigenfrequencies
returned in units of lam.

The grid functions of both routes take any window of at least 2 times and
give that window of a longer grid; BLAS may round a window of a product's
columns unlike the whole product, which with real eigenvectors (the model's)
changes only the sign of exact zeros.  So a caller can cut the time axis to
bound its arrays: the sweep cuts long rows into chunks, and the oracle's
rows into cache-sized sub-chunks.  Phases are multiplied in place, and
evolve_closed_form_grid writes into the caller's buffer if given one.

Amplitude letters follow the coefficient naming used by the witness module:
A and B are the amplitudes over phi1 and phi3 (symmetric sector), C and D
the amplitudes over phi2 and phi4 (antisymmetric sector).
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .hamiltonian import ManifoldBlock
from .hilbert import (
    HERMITICITY_TOL,
    TRACE_TOL,
    CompositeSpace,
    DensityMatrix,
    DimensionMismatchError,
    Frozen,
    HermitianOperator,
    Kind,
    NumericalConsistencyError,
    hermiticity_deviation,
)

NORM_TOL = 1e-10
_SIDE_KINDS = {"atoms": Kind.ATOM, "photons": Kind.PHOTON_MODE}


class InitialState(enum.Enum):
    ENTANGLED_SYMMETRIC = "entangled"
    SEPARABLE_ONE_CAVITY = "separable"


def initial_amplitudes(kind: InitialState) -> np.ndarray:
    """Amplitudes over (phi1, phi2, phi3, phi4) at t = 0."""
    if kind is InitialState.ENTANGLED_SYMMETRIC:
        return np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    s = 1 / np.sqrt(2)
    return np.array([s, s, 0.0, 0.0], dtype=complex)  # |g,2>|g,0> = (phi1+phi2)/sqrt2


def initial_vector(kind: InitialState, space: CompositeSpace) -> np.ndarray:
    if kind is InitialState.ENTANGLED_SYMMETRIC:
        v = space.basis_vector(("g", 2, "g", 0)) + space.basis_vector(("g", 0, "g", 2))
        return v / np.sqrt(2)
    return space.basis_vector(("g", 2, "g", 0))


class ManifoldState(Frozen):
    """Four complex amplitudes over (phi1, phi2, phi3, phi4) at a given time.

    Amplitudes of shape (4, nt) with nt times hold one state per column, and
    of shape (4, ..., nt) a stack of such rows.  The state keeps a read-only
    view of a complex input, so it shares the caller's array: the caller must
    not write to it afterwards.
    """

    def __init__(self, amplitudes: np.ndarray, time: float | np.ndarray):
        amp = np.asarray(amplitudes, dtype=complex)
        if amp.shape[:1] != (4,):
            raise ValueError(f"need 4 amplitudes, got shape {amp.shape}")
        norm_dev = np.max(np.abs(np.sum(np.abs(amp) ** 2, axis=0) - 1.0))
        if not norm_dev < NORM_TOL:
            raise ValueError(f"manifold state norm deviates from 1 by {norm_dev}")
        amp = amp.view()
        amp.setflags(write=False)
        self._set(amplitudes=amp, time=time)


def _time_range(times: np.ndarray) -> str:
    return f"{float(np.min(times))!r}..{float(np.max(times))!r}"


def _phases(evals: np.ndarray, times: np.ndarray, route: str) -> np.ndarray:
    """exp(-i w t) for each eigenvalue w of evals (..., k) and time t: shape
    (..., k, nt).  Phases that overflow raise a ValueError naming the route's
    phases and the time range."""
    with np.errstate(over="ignore", invalid="ignore"):
        angles = evals[..., :, None] * times
    if not np.isfinite(angles).all():
        raise ValueError(f"the {route} phases overflow over the time range "
                         f"{_time_range(times)} (units of 1/lam)")
    return np.exp(-1j * angles)


def _block_propagate(
    evals: np.ndarray, evecs: np.ndarray, amp2: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Spectral propagation of a 2-vector by a 2x2 block, or by each block of a
    stack, with eigenvalues (..., 2) and eigenvectors (..., 2, 2): shape (..., 2, nt).
    Phases that overflow raise a ValueError naming the time range."""
    coeffs = evecs.conj().swapaxes(-1, -2) @ amp2
    phases = _phases(evals, times, "closed form's")
    phases *= coeffs[..., :, None]
    return evecs @ phases


def evolve_closed_form_grid(
    initial: InitialState, block: ManifoldBlock, times: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Amplitudes over (phi1, phi2, phi3, phi4) for every time: shape (4, nt)
    for one block, and (4, n, nt) for a stack of n blocks, one row each;
    written into out, a complex array of that shape, if given."""
    times = np.asarray(times, dtype=float)
    amp0 = initial_amplitudes(initial)
    if out is None:
        out = np.empty((4, *block.omegas.shape[:-1], times.size), dtype=complex)
    sym = _block_propagate(block.omegas[..., :2], block.vecs_sym, amp0[[0, 2]], times)
    out[0], out[2] = sym[..., 0, :], sym[..., 1, :]
    del sym
    if initial is InitialState.SEPARABLE_ONE_CAVITY:
        anti = _block_propagate(block.omegas[..., 2:], block.vecs_anti, amp0[[1, 3]], times)
        out[1], out[3] = anti[..., 0, :], anti[..., 1, :]
    else:
        out[1] = out[3] = 0
    return out


def evolve_closed_form(
    initial: InitialState, block: ManifoldBlock, t: float
) -> ManifoldState:
    if not t >= 0:
        raise ValueError(f"time must be non-negative, got {t}")
    amps = evolve_closed_form_grid(initial, block, np.array([t]))[..., 0]
    return ManifoldState(amps, t)


class CoefficientSet(Frozen):
    """Moduli of the manifold amplitudes, and the two cross terms that the
    closed forms read (ac in the quadrature variance, ac and bd in analytic_rho_*).

    Cross-term fields hold X * conj(Y) for the letter pair in the name,
    e.g. ac = A conj(C).  Every field is a scalar, or an (nt,) array when the
    set comes from a (4, nt) state, and an (..., nt) array from a (4, ..., nt)
    stack of rows.
    """

    def __init__(self, abs_a2: float | np.ndarray, abs_b2: float | np.ndarray,
                 abs_c2: float | np.ndarray, abs_d2: float | np.ndarray,
                 ac: complex | np.ndarray, bd: complex | np.ndarray):
        self._set(abs_a2=abs_a2, abs_b2=abs_b2, abs_c2=abs_c2, abs_d2=abs_d2, ac=ac, bd=bd)
        total = self.abs_a2 + self.abs_b2 + self.abs_c2 + self.abs_d2
        total_dev = np.max(np.abs(total - 1.0))
        if not total_dev < NORM_TOL:
            raise ValueError(f"coefficient moduli sum deviates from 1 by {total_dev}")
        pairs = {
            "ac": (self.ac, self.abs_a2, self.abs_c2),
            "bd": (self.bd, self.abs_b2, self.abs_d2),
        }
        for name, (cross, m1, m2) in pairs.items():
            excess = np.max(np.abs(cross) ** 2 - m1 * m2)
            if not excess <= NORM_TOL:
                raise ValueError(
                    f"cross term {name} violates Cauchy-Schwarz: "
                    f"|{name}|^2 exceeds the product of moduli by {excess}"
                )


def coefficients(state: ManifoldState) -> CoefficientSet:
    a, c, b, d = state.amplitudes  # (phi1, phi2, phi3, phi4) -> (A, C, B, D)
    return CoefficientSet(
        abs_a2=np.abs(a) ** 2,
        abs_b2=np.abs(b) ** 2,
        abs_c2=np.abs(c) ** 2,
        abs_d2=np.abs(d) ** 2,
        ac=a * np.conj(c),
        bd=b * np.conj(d),
    )


class SpectralPropagator:
    """exp(-i H t / lam) through one dense Hermitian eigendecomposition."""

    def __init__(self, h: HermitianOperator, lam: float = 1.0):
        self.space = h.space
        evals, evecs = np.linalg.eigh(h.matrix)
        self._evals = evals / lam
        self._evecs = evecs

    def evolve_grid(self, vec: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Columns are the evolved state at each time: shape (dim, nt).  Phases
        that overflow raise a ValueError naming the time range."""
        times = np.asarray(times, dtype=float)
        coeffs = self._evecs.conj().T @ np.asarray(vec, dtype=complex)
        phases = _phases(self._evals, times, "full-space")
        phases *= coeffs[:, None]
        return self._evecs @ phases


def evolve_numeric_oracle(
    initial: InitialState, h: HermitianOperator, t: float, lam: float = 1.0
) -> np.ndarray:
    """Full-space propagated state vector; independent of the closed form."""
    if not t >= 0:
        raise ValueError(f"time must be non-negative, got {t}")
    psi0 = initial_vector(initial, h.space)
    return SpectralPropagator(h, lam).evolve_grid(psi0, np.array([t]))[:, 0]


def project_amplitudes(vec: np.ndarray, block: ManifoldBlock) -> np.ndarray:
    """Overlap of a full-space vector with (phi1, phi2, phi3, phi4), the basis
    of the block, which a stack of blocks shares."""
    return block.basis.conj().T @ np.asarray(vec, dtype=complex)


def reduced_spaces(space: CompositeSpace) -> dict[str, CompositeSpace]:
    """The spaces of the atom factors and of the photon factors of `space`."""
    return {side: space.subspace(space.factor_indices(k)) for side, k in _SIDE_KINDS.items()}


@functools.lru_cache(maxsize=None)
def _gram_layout(space: CompositeSpace) -> tuple[tuple[int, ...], tuple[int, int]]:
    """The factor axes of `space` atoms first, and the dimensions of
    reduced_spaces(space), built once per space."""
    order = tuple(i for k in _SIDE_KINDS.values() for i in space.factor_indices(k))
    return order, tuple(sub.total_dim for sub in reduced_spaces(space).values())


def reduced_states(states: np.ndarray, space: CompositeSpace) -> dict[str, np.ndarray]:
    """The "atoms" and "photons" states, on reduced_spaces(space), of pure states
    given as (dim,) or one per column of (dim, nt), as Gram matrices: each state
    with its factor axes reordered atoms first is a (d_atoms, d_photons) matrix
    M, and rho_atoms = M M^dag, rho_photons = M^T M^*.  A Gram matrix is positive
    semidefinite by construction, so only the trace (TRACE_TOL) and Hermiticity
    (HERMITICITY_TOL) are checked, raising NumericalConsistencyError; M and
    its conjugate are let go before the checks."""
    psi = np.asarray(states, dtype=complex)
    if psi.shape[:1] != (space.total_dim,) or psi.ndim > 2:
        raise DimensionMismatchError(f"states of shape {psi.shape} do not fit {space.dims}")
    order, sides = _gram_layout(space)
    n, lead = len(space.dims), psi.shape[1:]
    m = psi.reshape(space.dims + lead).transpose(*range(n, psi.ndim + n - 1), *order)
    m = m.reshape(lead + sides)
    mc = m.conj()
    rhos = {"atoms": m @ mc.swapaxes(-1, -2), "photons": m.swapaxes(-1, -2) @ mc}
    del m, mc
    for side, rho in rhos.items():
        tr_dev = np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0))
        dev = hermiticity_deviation(rho)
        if not (tr_dev < TRACE_TOL and dev < HERMITICITY_TOL):
            raise NumericalConsistencyError(f"reduced state of the {side}: trace deviates "
                                            f"from 1 by {tr_dev:.3e}, Hermiticity by {dev:.3e}")
    return rhos


def density_matrices(
    vec: np.ndarray, space: CompositeSpace
) -> tuple[DensityMatrix, DensityMatrix, DensityMatrix]:
    """(rho_full, rho_atoms, rho_photons) of a pure state, as checked DensityMatrix."""
    rho, spaces = reduced_states(vec, space), reduced_spaces(space)
    return (DensityMatrix.from_state_vector(space, vec),
            *(DensityMatrix(spaces[side], rho[side]) for side in _SIDE_KINDS))


def analytic_rho_atoms(coeffs: CoefficientSet) -> np.ndarray:
    """The paper's reduced two-atom density matrix (a test reference).

    Basis order (gg, ge, eg, ee).  Follows from tracing the photons out of
    the manifold density operator; the symmetric/antisymmetric amplitude
    combinations (B +- D)/sqrt(2) populate the one-excitation sector.
    Array-valued coefficients give a stack of shape (nt, 4, 4).
    """
    rho = np.zeros(np.shape(coeffs.abs_a2) + (4, 4), dtype=complex)
    rho[..., 0, 0] = coeffs.abs_a2 + coeffs.abs_c2
    # |e g> has weight |B + D|^2 / 2, |g e> has |B - D|^2 / 2
    rho[..., 2, 2] = (coeffs.abs_b2 + coeffs.abs_d2 + 2 * np.real(coeffs.bd)) / 2
    rho[..., 1, 1] = (coeffs.abs_b2 + coeffs.abs_d2 - 2 * np.real(coeffs.bd)) / 2
    rho[..., 2, 1] = (coeffs.abs_b2 - coeffs.abs_d2 - 2j * np.imag(coeffs.bd)) / 2
    rho[..., 1, 2] = np.conj(rho[..., 2, 1])
    return rho


def analytic_rho_photons(coeffs: CoefficientSet, n_max: int = 2) -> np.ndarray:
    """The paper's reduced two-mode density matrix (a test reference).

    Populated entries are |2,0>, |0,2> (combinations (A +- C)/sqrt(2)) and
    the vacuum |0,0> with weight |B|^2 + |D|^2.  Array-valued coefficients
    give a stack of shape (nt, d^2, d^2).
    """
    d = n_max + 1
    rho = np.zeros(np.shape(coeffs.abs_a2) + (d * d, d * d), dtype=complex)
    i20 = 2 * d + 0
    i02 = 0 * d + 2
    i00 = 0
    rho[..., i20, i20] = (coeffs.abs_a2 + coeffs.abs_c2 + 2 * np.real(coeffs.ac)) / 2
    rho[..., i02, i02] = (coeffs.abs_a2 + coeffs.abs_c2 - 2 * np.real(coeffs.ac)) / 2
    rho[..., i20, i02] = (coeffs.abs_a2 - coeffs.abs_c2 - 2j * np.imag(coeffs.ac)) / 2
    rho[..., i02, i20] = np.conj(rho[..., i20, i02])
    rho[..., i00, i00] = coeffs.abs_b2 + coeffs.abs_d2
    return rho
