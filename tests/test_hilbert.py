import numpy as np
import pytest

from squeezetransfer.hilbert import (
    CompositeSpace,
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    NumericalConsistencyError,
    Operator,
    atom,
    embed,
    expectation,
    photon_mode,
    standard_space,
)
from squeezetransfer.operators import collective_atomic_spin, photonic_pseudospin

SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)  # basis order (g, e)


def test_atom_dimension_is_fixed():
    with pytest.raises(ValueError):
        from squeezetransfer.hilbert import SubsystemSpec, Kind

        SubsystemSpec(Kind.ATOM, 3)


def test_photon_mode_needs_two_photons():
    with pytest.raises(ValueError):
        photon_mode(1)


def test_basis_enumeration_row_major(space):
    labels = space.basis_labels
    assert len(labels) == space.total_dim == 36
    assert labels[0] == ("g", 0, "g", 0)
    assert labels[1] == ("g", 0, "g", 1)
    assert labels[-1] == ("e", 2, "e", 2)
    # every combination exactly once
    assert len(set(labels)) == 36


def test_embed_identity():
    sp = CompositeSpace((atom(), atom()))
    assert np.array_equal(embed(sp, [None, None]), np.eye(4))


def test_embed_sigma_z_first_factor():
    sp = CompositeSpace((atom(), atom()))
    gg, ge = sp.basis_vector(("g", "g")), sp.basis_vector(("g", "e"))
    eg = sp.basis_vector(("e", "g"))
    sz1 = embed(sp, [SIGMA_Z, None])
    assert np.allclose(sz1 @ gg, -gg)
    assert np.allclose(sz1 @ ge, -ge)
    assert np.allclose(sz1 @ eg, eg)


def test_collective_sx_action():
    # S_x |g,g> = (|e,g> + |g,e>)/2, expanded by hand from the Pauli matrices
    sp = CompositeSpace((atom(), atom()))
    spin = collective_atomic_spin(sp)
    gg = sp.basis_vector(("g", "g"))
    expected = 0.5 * (sp.basis_vector(("e", "g")) + sp.basis_vector(("g", "e")))
    assert np.allclose(spin.x.matrix @ gg, expected, atol=1e-15)


def _kron_chain(space, factor_ops):
    full = np.array([[1.0 + 0j]])
    for op, factor in zip(factor_ops, space.factors):
        local = np.eye(factor.dimension, dtype=complex) if op is None else op
        full = np.kron(full, local)
    return full


def _random_local(rng, d, hermitian):
    """A random complex matrix with some entries signed zeros in either part."""
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if hermitian:
        m = (m + m.conj().T) / 2
    zeros = np.zeros_like(m)
    zeros.real, zeros.imag = np.copysign(0.0, m.real), np.copysign(0.0, m.imag)
    return np.where(rng.random((d, d)) < 0.3, zeros, m)


@pytest.mark.parametrize("n_max", [2, 3])
def test_embed_matches_kron_chain_bit_for_bit(n_max, rng):
    space = standard_space(n_max)
    for trial in range(40):
        ops = [
            None if rng.random() < 0.5
            else _random_local(rng, f.dimension, hermitian=trial % 2 == 0)
            for f in space.factors
        ]
        got = embed(space, ops)
        assert got.shape == (space.total_dim, space.total_dim)
        assert got.tobytes() == _kron_chain(space, ops).tobytes()


def test_embed_of_a_stack_is_the_stack_of_products(rng):
    space = standard_space()
    stack = np.stack([_random_local(rng, 3, hermitian=False) for _ in range(4)])
    atom_op = _random_local(rng, 2, hermitian=False)
    got = embed(space, [None, stack, atom_op, None])
    assert got.shape == (4, 36, 36)
    for k, local in enumerate(stack):
        assert got[k].tobytes() == _kron_chain(space, [None, local, atom_op, None]).tobytes()


def test_embed_dimension_mismatch_names_factor():
    sp = CompositeSpace((atom(), photon_mode(2)))
    with pytest.raises(DimensionMismatchError, match="factor 1"):
        embed(sp, [None, np.eye(2)])
    with pytest.raises(DimensionMismatchError, match="factor 0"):
        embed(sp, [np.stack([np.eye(3)] * 2), None])


@pytest.mark.parametrize("n_ops", [0, 1, 3])
def test_embed_wrong_arity(n_ops):
    sp = CompositeSpace((atom(), atom()))
    with pytest.raises(DimensionMismatchError, match=f"{n_ops} factor operators"):
        embed(sp, [None] * n_ops)


def test_hermitian_operator_rejects_non_hermitian():
    sp = CompositeSpace((atom(), atom()))
    with pytest.raises(NumericalConsistencyError):
        HermitianOperator(sp, np.triu(np.ones((4, 4))))


def test_expectation_identity(space, rng):
    v = rng.normal(size=36) + 1j * rng.normal(size=36)
    v /= np.linalg.norm(v)
    rho = DensityMatrix.from_state_vector(space, v)
    ident = Operator(space, embed(space, [None] * 4))
    assert expectation(ident, rho) == pytest.approx(1.0, abs=1e-12)


def test_expectation_sz_both_ground(atom_space, atom_spin):
    rho = DensityMatrix.from_state_vector(atom_space, atom_space.basis_vector(("g", "g")))
    assert expectation(atom_spin.z, rho) == pytest.approx(-1.0, abs=1e-14)


def test_expectation_lz_two_zero(photon_space, photon_spin):
    rho = DensityMatrix.from_state_vector(photon_space, photon_space.basis_vector((2, 0)))
    assert expectation(photon_spin.z, rho) == pytest.approx(1.0, abs=1e-14)


def test_expectation_linearity(atom_space, rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    rho = DensityMatrix.from_state_vector(atom_space, v)
    m1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h1 = HermitianOperator(atom_space, (m1 + m1.conj().T) / 2)
    h2 = HermitianOperator(atom_space, (m2 + m2.conj().T) / 2)
    alpha, beta = 1.7, -0.3
    combo = HermitianOperator(atom_space, alpha * h1.matrix + beta * h2.matrix)
    lhs = expectation(combo, rho)
    rhs = alpha * expectation(h1, rho) + beta * expectation(h2, rho)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_expectation_flags_imaginary_residue(atom_space):
    rho = DensityMatrix.from_state_vector(atom_space, atom_space.basis_vector(("g", "e")))
    skew = np.zeros((4, 4), dtype=complex)
    skew[1, 1] = 1j
    with pytest.raises(NumericalConsistencyError):
        expectation(Operator(atom_space, skew), rho)


def test_density_matrix_rejects_bad_trace(atom_space):
    with pytest.raises(NumericalConsistencyError):
        DensityMatrix(atom_space, np.eye(4))


def test_density_matrix_rejects_negative_eigenvalue(atom_space):
    mat = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(NumericalConsistencyError):
        DensityMatrix(atom_space, mat)


def test_checks_fail_closed_on_nan(atom_space):
    mat = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    mat[3, 3] = np.nan
    with pytest.raises(NumericalConsistencyError):
        HermitianOperator(atom_space, mat)
    with pytest.raises(NumericalConsistencyError):
        DensityMatrix(atom_space, mat)
    rho = DensityMatrix(atom_space, np.diag([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(NumericalConsistencyError):
        expectation(Operator(atom_space, mat * 1j), rho)


def test_density_matrix_stack_checks_every_matrix(atom_space, atom_spin):
    good = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(NumericalConsistencyError):
        DensityMatrix(atom_space, np.stack([good, good, bad]))
    other = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
    stack = DensityMatrix(atom_space, np.stack([good, other]))
    values = expectation(atom_spin.z, stack)
    assert values.shape == (2,)
    assert values[0] == expectation(atom_spin.z, DensityMatrix(atom_space, good))
    assert values[1] == expectation(atom_spin.z, DensityMatrix(atom_space, other))
