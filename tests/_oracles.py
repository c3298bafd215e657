"""Test-only oracles: brute-force or explicit-formula forms of quantities the
package computes by other routes."""

from __future__ import annotations

import fractions
import math

import numpy as np

from squeezetransfer import csvtext
from squeezetransfer.dynamics import InitialState, ManifoldState
from squeezetransfer.hamiltonian import ManifoldBlock
from squeezetransfer.hilbert import CompositeSpace, DensityMatrix, Kind
from squeezetransfer.operators import SpinTriple
from squeezetransfer.witness import (
    MEAN_SPIN_FLOOR,
    _mean_and_covariance,
    _transverse_basis,
    spin_moments,
)


def transverse_variance(rho: DensityMatrix, spin: SpinTriple, angle: float) -> float:
    """Variance of n(angle) . J for n in the plane orthogonal to <J>.

    Brute-force probe for kitagawa_ueda_xi.
    """
    mean, cov = spin_moments(rho, spin)
    norm = np.linalg.norm(mean)
    if not norm > MEAN_SPIN_FLOOR:
        raise ValueError("mean spin direction undefined")
    n = _transverse_basis(mean / norm) @ np.array([math.cos(angle), math.sin(angle)])
    return float(n @ cov @ n)


def manifold_spin_moments(
    amplitudes: np.ndarray, matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Spin moments of the pure states with the given (4, ...) manifold
    amplitudes a, as <O> = a^dag (Phi^dag O Phi) a: the flattened outer
    products a a^dag, one per state, in one product with the (16, 9)
    moment_matrix.  The reference for density_spin_moments on a a^dag stacks."""
    a = np.asarray(amplitudes, dtype=complex)
    outer = (a[:, None] * a.conj()[None, :]).reshape((16,) + a.shape[1:])
    return _mean_and_covariance(np.moveaxis(outer, 0, -1) @ matrix)


def brute_force_reduced_state(vec: np.ndarray, space: CompositeSpace, kind: Kind) -> np.ndarray:
    """Reduced density matrix of a pure state on the factors of `kind`, by an
    explicit sum over every pair of basis states that agree on the traced
    factors: rho[i, j] = sum psi(i, e) conj(psi(j, e))."""
    keep = space.factor_indices(kind)
    sub = space.subspace(keep)
    rho = np.zeros((sub.total_dim, sub.total_dim), dtype=complex)
    labels = space.basis_labels
    for row, a in enumerate(labels):
        for col, b in enumerate(labels):
            if all(a[f] == b[f] for f in range(len(a)) if f not in keep):
                i = sub.basis_index([a[f] for f in keep])
                j = sub.basis_index([b[f] for f in keep])
                rho[i, j] += vec[row] * np.conj(vec[col])
    return rho


def embed(state: ManifoldState, block: ManifoldBlock) -> np.ndarray:
    """Manifold amplitudes as a full-space vector."""
    return block.basis @ state.amplitudes


def sector_constants(evecs: np.ndarray, weight: float) -> tuple[float, float]:
    """(A_i, alpha_i) for one parity sector from its leading eigenvector.

    Defined by the expansion of weight * phi_photonic over the eigenvectors:
    A_i = weight * c^2 and alpha_i = s / c where (c, s) is the eigenvector of
    the larger eigenvalue.  Requires c != 0 (true whenever lam > 0).
    """
    c, s = evecs[0, 0], evecs[1, 0]
    if not abs(c) >= 1e-12:
        raise ValueError("leading eigenvector has no photonic component; "
                         "sector constants are undefined")
    return float(weight * c * c), float(s / c)


def coefficient_formulas(
    block: ManifoldBlock, branch: InitialState, t: float
) -> dict[str, float | complex]:
    """The moduli abs_x2 = |X|^2 and all six cross terms xy = X conj(Y) of the
    amplitudes, keyed by name, from explicit algebraic formulas in the sector
    constants (independent of the spectral propagation path).

    The last exponent of the BC* cross term must be omega_4 - omega_2; the
    superficially symmetric alternative omega_4 - omega_3 breaks
    normalization and fails to match the amplitude product B conj(C).
    """
    w1, w2, w3, w4 = block.omegas
    d12 = w1 - w2
    d34 = w3 - w4
    weight = 1.0 if branch is InitialState.ENTANGLED_SYMMETRIC else 1 / np.sqrt(2)
    a1, alpha1 = sector_constants(block.vecs_sym, weight)

    abs_a2 = a1**2 * (1 + 2 * alpha1**2 * np.cos(d12 * t) + alpha1**4)
    ab = alpha1 * a1**2 * (
        1 - alpha1**2 + alpha1**2 * np.exp(1j * d12 * t) - np.exp(-1j * d12 * t)
    )
    abs_b2 = 2 * alpha1**2 * a1**2 * (1 - np.cos(d12 * t))

    if branch is InitialState.ENTANGLED_SYMMETRIC:
        return {
            "abs_a2": float(abs_a2),
            "abs_b2": float(abs_b2),
            "abs_c2": 0.0,
            "abs_d2": 0.0,
            "ab": complex(ab),
            "ac": 0j,
            "ad": 0j,
            "bc": 0j,
            "bd": 0j,
            "cd": 0j,
        }

    a3, alpha3 = sector_constants(block.vecs_anti, weight)
    e = np.exp
    abs_c2 = a3**2 * (1 + 2 * alpha3**2 * np.cos(d34 * t) + alpha3**4)
    abs_d2 = 2 * alpha3**2 * a3**2 * (1 - np.cos(d34 * t))
    ac = a1 * a3 * (
        e(1j * (w3 - w1) * t)
        + alpha3**2 * e(1j * (w4 - w1) * t)
        + alpha1**2 * e(1j * (w3 - w2) * t)
        + alpha1**2 * alpha3**2 * e(1j * (w4 - w2) * t)
    )
    ad = alpha3 * a1 * a3 * (
        e(1j * (w3 - w1) * t)
        - e(1j * (w4 - w1) * t)
        + alpha1**2 * (e(1j * (w3 - w2) * t) - e(1j * (w4 - w2) * t))
    )
    bc = alpha1 * a1 * a3 * (
        e(1j * (w3 - w1) * t)
        - e(1j * (w3 - w2) * t)
        + alpha3**2 * (e(1j * (w4 - w1) * t) - e(1j * (w4 - w2) * t))
    )
    bd = alpha1 * alpha3 * a1 * a3 * (
        e(1j * (w3 - w1) * t)
        + e(1j * (w4 - w2) * t)
        - e(1j * (w4 - w1) * t)
        - e(1j * (w3 - w2) * t)
    )
    cd = alpha3 * a3**2 * (
        1 - e(1j * (w4 - w3) * t) + alpha3**2 * (e(1j * (w3 - w4) * t) - 1)
    )
    return {
        "abs_a2": float(abs_a2),
        "abs_b2": float(abs_b2),
        "abs_c2": float(abs_c2),
        "abs_d2": float(abs_d2),
        "ab": complex(ab),
        "ac": complex(ac),
        "ad": complex(ad),
        "bc": complex(bc),
        "bd": complex(bd),
        "cd": complex(cd),
    }


def layout(kind: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (X mask, Y mask, constants) rows of one csvtext kind, slot by slot."""
    width, digit = csvtext.WIDTH, csvtext._DIGIT
    x, y = np.zeros(width, np.uint8), np.zeros(width, np.uint8)
    const = np.zeros(width, np.uint8)

    def put(slot: int, text: bytes) -> None:
        const[slot:slot + len(text)] = np.frombuffer(text, np.uint8)

    special = {csvtext._ZERO: b"0", csvtext._INF: b"inf", csvtext._NAN: b"nan"}
    if kind in special:
        put(digit, special[kind])
        return x, y, const
    if kind < csvtext._FIXED_KINDS:
        e, sig = divmod(kind, 17)
        e, sig = e - 4, sig + 1
        if e < 0:
            put(digit - 5, b"0." + b"0" * (-e - 1))
            x[digit:digit + sig] = 0xFF
            return x, y, const
        point = e + 1  # digits before the point; trailing zeros before it stay
    else:
        sig, rest = divmod(kind - csvtext._FIXED_KINDS, 4)
        sig += 1
        point = 1
        put(25, b"e-" if rest & 2 else b"e+")
        x[csvtext._EXP_DIGITS + (0 if rest & 1 else 1):] = 0xFF
    x[digit:digit + point] = 0xFF
    if sig > point:
        put(digit + point, b".")
        y[digit + point + 1:digit + sig + 1] = 0xFF
    return x, y, const


def kind_of(e: int, sig: int) -> int:
    """The csvtext kind of a value with decimal exponent e and sig significant
    digits, as '%.17g' chooses its notation."""
    if -4 <= e < 17:
        return (e + 4) * 17 + sig - 1
    return csvtext._FIXED_KINDS + 4 * (sig - 1) + 2 * (e < 0) + (abs(e) >= 100)


def power_of_ten(e: int) -> tuple[float, float]:
    """hi + lo == 10**(16 - e) to within 2**-106 relative, from exact integers."""
    p = 16 - e
    if p >= 0:
        hi = float(10**p)
        return hi, float(10**p - int(hi))
    hi = 1 / 10**-p
    num, den = hi.as_integer_ratio()
    return hi, float(fractions.Fraction(1, 10**-p) - fractions.Fraction(num, den))


def reference_tables() -> dict[str, np.ndarray]:
    """Every csvtext table, built one kind, one number and one exponent at a
    time: the key layouts, the digit words, the trailing-zero counts, the
    kind of each (exponent, digits) and the powers of ten with hi's Veltkamp
    halves."""
    x, y, const = (np.array(rows) for rows in zip(*map(layout, range(csvtext._KINDS))))
    numbers = ["%04d" % i for i in range(10000)]
    exponents = range(csvtext._E_MIN, csvtext._E_MAX + 1)
    powers = np.array([power_of_ten(e) for e in exponents]).T
    split = float(2**27 + 1)
    high = [split * h - (split * h - h) for h in powers[0]]
    return {
        "words": np.frombuffer("".join(numbers).encode("ascii"), np.uint32),
        "zeros": np.array([4] + [len(s) - len(s.rstrip("0")) for s in numbers[1:]]),
        "kinds": np.array([kind_of(e, sig) for e in range(csvtext._E_MIN, csvtext._E_MAX + 2)
                           for sig in range(1, 18)]),
        "x_mask": x,
        "y_mask": y,
        "const": const,
        "powers": np.array([*powers, high, powers[0] - high]),
    }
