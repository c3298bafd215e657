"""Squeezing and entanglement quantifiers.

Generic path: the four collective-spin inequalities evaluated on a density
matrix (violation of any witnesses particle entanglement), the Kitagawa-Ueda
parameter xi, and the Sorensen parameter xi_e^2.  Each is a function of the
spin mean and covariance; given a stacked DensityMatrix (one matrix per time)
every value becomes an array over the stack.  The mean and covariance are
the expectations of the nine moment_operators of a spin; density_spin_moments
contracts a stack of density matrices with them.  The contraction is either
the contraction_matrix of the operators themselves, or the moment_matrix of
their 4x4 blocks basis^dag O basis on the four-state manifold, which takes the
manifold density matrices a a^dag of manifold amplitudes a.

Closed-form path: the per-branch witness expressions in the manifold
coefficients, plus the per-branch quadrature-variance expressions.  The two
paths are compared by the test suite; they are deliberately kept independent.

Slack convention: every inequality is reported as the signed amount by which
it is satisfied, so negative slack (beyond tolerance) means "violated".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CoefficientSet, InitialState
from .hilbert import (
    HERMITICITY_TOL,
    IMAG_TOL,
    DensityMatrix,
    DimensionMismatchError,
    NumericalConsistencyError,
    Operator,
    expectation,
    hermiticity_deviation,
)
from .operators import QuadraturePair, SpinTriple

VIOLATION_TOL = 1e-10
MEAN_SPIN_FLOOR = 1e-8
DENOMINATOR_FLOOR = 1e-12

_AXES = ("x", "y", "z")
# The (i, j) of the six symmetrized products among moment_operators, and the
# position among them of each entry of the 3x3 second-moment matrix.
_MOMENT_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_SECOND_MOMENT_INDEX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


class BranchMismatchError(ValueError):
    """Coefficients do not belong to the requested initial-state branch."""


def moment_operators(spin: SpinTriple) -> np.ndarray:
    """The 3 components, then the 6 symmetrized products {S_i, S_j}/2 for
    (i, j) in _MOMENT_PAIRS: the (9, d, d) stack whose expectations make the
    spin mean and covariance."""
    comps = [s.matrix for s in spin.components]
    products = [(comps[i] @ comps[j] + comps[j] @ comps[i]) / 2 for i, j in _MOMENT_PAIRS]
    return np.stack(comps + products)


def contraction_matrix(operators: np.ndarray) -> np.ndarray:
    """(d*d, k) matrix C of a (k, d, d) operator stack, with Tr(O_k rho) =
    (flat(rho) @ C)_k = sum_ij O_ij rho_ji for a row-major flattened rho."""
    k, d, _ = operators.shape
    return operators.swapaxes(-1, -2).reshape(k, d * d).T


def _mean_and_covariance(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split (..., 9) values of moment_operators into the mean and
    the symmetrized covariance, after checking them real to within IMAG_TOL."""
    residue = np.max(np.abs(vals.imag))
    if not residue < IMAG_TOL:
        raise NumericalConsistencyError(
            f"spin moment has imaginary residue {residue:.3e}"
        )
    mean = vals.real[..., :3]
    second = vals.real[..., 3:][..., _SECOND_MOMENT_INDEX]
    return mean, second - mean[..., :, None] * mean[..., None, :]


def density_spin_moments(rho: np.ndarray, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """spin_moments of a (..., d, d) stack of density matrices, from the (d*d, 9)
    contraction_matrix or moment_matrix of moment_operators."""
    flat = rho.reshape(rho.shape[:-2] + (rho.shape[-1] ** 2,))
    return _mean_and_covariance(flat @ matrix)


def spin_moments(rho: DensityMatrix, spin: SpinTriple) -> tuple[np.ndarray, np.ndarray]:
    """(mean vector, 3x3 symmetrized covariance matrix), with shapes (..., 3)
    and (..., 3, 3) for a stack of matrices.

    One contraction of the flattened states against the 3 components and the
    6 symmetrized products of moment_operators(spin).  Every value is checked
    real to within IMAG_TOL.
    """
    if spin.x.space != rho.space:
        raise DimensionMismatchError("operator and state live on different spaces")
    return density_spin_moments(rho.matrix, contraction_matrix(moment_operators(spin)))


def moment_matrix(operators: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """(16, k) matrix of the manifold moments of a (k, d, d) operator stack.

    Each operator O becomes its 4x4 matrix basis^dag O basis on the manifold,
    checked Hermitian to within HERMITICITY_TOL, so that for amplitudes `a`
    over the columns of `basis` the expectation is <O> = a^dag (basis^dag O
    basis) a = Tr((basis^dag O basis) a a^dag): the matrix is laid out for
    density_spin_moments of the (..., 4, 4) stack of a a^dag.
    """
    if basis.shape != (operators.shape[-1], 4):
        raise DimensionMismatchError(
            f"basis of shape {basis.shape} does not fit operators of shape {operators.shape}"
        )
    blocks = basis.conj().T @ operators @ basis
    dev = hermiticity_deviation(blocks)
    if not dev < HERMITICITY_TOL:
        raise NumericalConsistencyError(
            f"manifold moment matrix deviates from Hermiticity by {dev:.3e}"
        )
    return contraction_matrix(blocks)


@dataclass(frozen=True)
class OssiReport:
    """Signed slack of each collective-spin inequality.

    slack_c and slack_d are keyed by the singled-out axis m; the remaining
    two axes play the symmetric (k, l) roles.
    """

    n_particles: int
    slack_a: float | np.ndarray
    slack_b: float | np.ndarray
    slack_c: dict[str, float | np.ndarray]
    slack_d: dict[str, float | np.ndarray]

    @property
    def min_slack(self) -> float | np.ndarray:
        return np.min(
            [self.slack_a, self.slack_b, *self.slack_c.values(), *self.slack_d.values()],
            axis=0,
        )


def ossi_of(mean: np.ndarray, cov: np.ndarray, n_particles: int) -> OssiReport:
    """All four inequalities from the spin mean and covariance."""
    if n_particles < 2:
        raise ValueError(f"need at least 2 particles, got {n_particles}")
    n = n_particles
    var = np.diagonal(cov, axis1=-2, axis2=-1)
    second = var + mean**2  # <J_k^2>

    slack_a = n * (n + 2) / 4 - second.sum(axis=-1)
    slack_b = var.sum(axis=-1) - n / 2
    slack_c = {}
    slack_d = {}
    for m in range(3):
        k, l = [i for i in range(3) if i != m]
        slack_c[_AXES[m]] = (n - 1) * var[..., m] - second[..., k] - second[..., l] + n / 2
        slack_d[_AXES[m]] = (
            (n - 1) * (var[..., k] + var[..., l]) - second[..., m] - n * (n - 2) / 4
        )
    return OssiReport(n, slack_a, slack_b, slack_c, slack_d)


def ossi(rho: DensityMatrix, spin: SpinTriple, n_particles: int) -> OssiReport:
    """Evaluate all four inequalities on the given state."""
    return ossi_of(*spin_moments(rho, spin), n_particles)


@dataclass(frozen=True)
class BranchWitnesses:
    """Closed-form witness values with their per-branch violation orientation."""

    ineq_a: float | np.ndarray
    ineq_p: float | np.ndarray
    a_violated: bool | np.ndarray
    p_violated: bool | np.ndarray


def branch_witnesses(coeffs: CoefficientSet, branch: InitialState) -> BranchWitnesses:
    """Per-branch closed forms.

    Entangled branch: ineq_a = 4 - 5|A|^2 and ineq_p = |A|^2, squeezing
    flagged by positive values.  Separable branch:
    ineq_a = 3|B|^2 - |D|^2 - 2(|B|^2 + |D|^2)^2 and ineq_p = 2|A|^2 - 1,
    squeezing flagged by negative values.
    """
    if branch is InitialState.ENTANGLED_SYMMETRIC:
        antisym = np.max(coeffs.abs_c2 + coeffs.abs_d2)
        if not antisym <= 1e-10:
            raise BranchMismatchError(
                f"entangled branch must have no antisymmetric weight, "
                f"found |C|^2 + |D|^2 = {antisym:.3e}"
            )
        ineq_a = 4 - 5 * coeffs.abs_a2
        ineq_p = coeffs.abs_a2
        return BranchWitnesses(
            ineq_a,
            ineq_p,
            a_violated=ineq_a > VIOLATION_TOL,
            p_violated=ineq_p > VIOLATION_TOL,
        )
    s = coeffs.abs_b2 + coeffs.abs_d2
    ineq_a = 3 * coeffs.abs_b2 - coeffs.abs_d2 - 2 * s**2
    ineq_p = 2 * coeffs.abs_a2 - 1
    return BranchWitnesses(
        ineq_a,
        ineq_p,
        a_violated=ineq_a < -VIOLATION_TOL,
        p_violated=ineq_p < -VIOLATION_TOL,
    )


def _transverse_basis(n0: np.ndarray) -> np.ndarray:
    """Columns e1, e2 spanning the plane orthogonal to the unit vector(s) n0:
    shape (..., 3, 2)."""
    axis = np.eye(3)[np.argmin(np.abs(n0), axis=-1)]
    e1 = axis - np.sum(axis * n0, axis=-1, keepdims=True) * n0
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    (a0, a1, a2), (b0, b1, b2) = np.moveaxis(n0, -1, 0), np.moveaxis(e1, -1, 0)
    # e2 = n0 x e1, each component's products and difference in np.cross's order
    e2 = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)
    return np.stack([e1, e2], axis=-1)


def _smallest_eigenvalue_2x2(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each real symmetric block of a (..., 2, 2) stack,
    read from the lower triangle as eigvalsh does.

    The eigenvalue of larger magnitude is (a + c)/2 +- hypot((a - c)/2, b);
    the other is det / that one, written as in LAPACK's dlae2 so that a small
    eigenvalue keeps its absolute accuracy.
    """
    a, b, c = m[..., 0, 0], m[..., 1, 0], m[..., 1, 1]
    half_sum = (a + c) / 2
    big = half_sum + np.copysign(np.hypot((a - c) / 2, b), half_sum)
    a_wider = np.abs(a) > np.abs(c)
    wide, narrow = np.where(a_wider, a, c), np.where(a_wider, c, a)
    nonzero = big != 0  # big == 0 only for the all-zero block
    safe = np.where(nonzero, big, 1.0)
    other = np.where(nonzero, (wide / safe) * narrow - (b / safe) * b, 0.0)
    return np.minimum(big, other)


def kitagawa_ueda_xi_of(
    mean: np.ndarray, cov: np.ndarray, n_particles: int
) -> float | np.ndarray:
    """Minimal transverse standard deviation over sqrt(J/2) with J = N/2.

    Returns nan when the mean spin direction is undefined (|<J>| too small).
    """
    norm = np.linalg.norm(mean, axis=-1)
    defined = norm > MEAN_SPIN_FLOOR
    n0 = mean / np.where(defined, norm, 1.0)[..., None]
    basis = _transverse_basis(n0)
    m = basis.swapaxes(-1, -2) @ cov @ basis
    lam_min = np.maximum(_smallest_eigenvalue_2x2(m), 0.0)
    j_total = n_particles / 2
    xi = np.sqrt(lam_min) / math.sqrt(j_total / 2)
    return np.where(defined, xi, math.nan)[()]  # [()]: a scalar for one state


def kitagawa_ueda_xi(
    rho: DensityMatrix, spin: SpinTriple, n_particles: int
) -> float | np.ndarray:
    """kitagawa_ueda_xi_of on the moments of the given state."""
    return kitagawa_ueda_xi_of(*spin_moments(rho, spin), n_particles)


def sorensen_xi_e2_of(
    mean: np.ndarray, cov: np.ndarray, n_particles: int
) -> float | np.ndarray:
    """N Var(J_n1) / (<J_n2>^2 + <J_n3>^2), minimal over orthonormal frames.

    The denominator equals |<J>|^2 - <J_n1>^2, so only n1 varies.  In the
    frame (e1, e2, m) with m the unit mean spin, split the covariance into
    its transverse 2x2 block C_perp, the coupling c to m, and C_mm.  Writing
    n1 = u + s m with u transverse, the minimum over s and then over the
    direction of u is exact:

        xi_e^2 = N lambda_min(C_perp - c c^T / C_mm) / |<J>|^2,

    the Schur complement of C_mm (Sorensen & Molmer, PRL 86, 4431 (2001)).
    When C_mm <= DENOMINATOR_FLOOR, positivity forces c -> 0 and the c c^T
    term is dropped.  Returns nan when |<J>|^2 <= DENOMINATOR_FLOOR.
    """
    m2 = np.sum(mean**2, axis=-1)
    defined = m2 > DENOMINATOR_FLOOR
    m_hat = mean / np.sqrt(np.where(defined, m2, 1.0))[..., None]
    basis = _transverse_basis(m_hat)
    c_perp = basis.swapaxes(-1, -2) @ cov @ basis
    c = np.einsum("...ia,...ij,...j->...a", basis, cov, m_hat)
    c_mm = np.einsum("...i,...ij,...j->...", m_hat, cov, m_hat)
    c_mm = np.where(c_mm > DENOMINATOR_FLOOR, c_mm, math.inf)
    schur = c_perp - c[..., :, None] * c[..., None, :] / c_mm[..., None, None]
    lam_min = _smallest_eigenvalue_2x2(schur)
    return (n_particles * lam_min / np.where(defined, m2, math.nan))[()]


def sorensen_xi_e2(
    rho: DensityMatrix, spin: SpinTriple, n_particles: int
) -> float | np.ndarray:
    """sorensen_xi_e2_of on the moments of the given state."""
    return sorensen_xi_e2_of(*spin_moments(rho, spin), n_particles)


def quadrature_variances(
    rho_photons: DensityMatrix, pair: QuadraturePair
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Generic (Delta X1)^2 and (Delta X2)^2 for the designated mode."""
    out = []
    for op in (pair.x1, pair.x2):
        sq = Operator(op.space, op.matrix @ op.matrix)
        mean = expectation(op, rho_photons)
        out.append(expectation(sq, rho_photons) - mean**2)
    return out[0], out[1]


def closed_form_quadrature_variance(
    coeffs: CoefficientSet, branch: InitialState
) -> float | np.ndarray:
    """Per-branch quadrature-variance closed form (equal for X1 and X2)."""
    if branch is InitialState.ENTANGLED_SYMMETRIC:
        return 0.25 + 0.5 * coeffs.abs_a2
    return (
        (7 / 8) * coeffs.abs_a2
        + 0.25 * (2 * np.real(coeffs.ac) + coeffs.abs_d2)
        + 0.5 * coeffs.abs_b2
    )
