import numpy as np
import pytest

from squeezetransfer.hilbert import (
    CompositeSpace,
    DensityMatrix,
    atom,
    expectation,
    photon_mode,
    standard_space,
)
from squeezetransfer.operators import (
    collective_atomic_spin,
    commutator,
    ladder,
    photonic_pseudospin,
    quadratures,
    total_photon_projector,
    transition_matrices,
)


def two_mode_space(n_max):
    return CompositeSpace((photon_mode(n_max), photon_mode(n_max)))


class TestLadder:
    def test_annihilates_vacuum(self, photon_space):
        a, _ = ladder(photon_space, 0)
        v0 = photon_space.basis_vector((0, 0))
        assert np.allclose(a.matrix @ v0, 0)

    def test_two_photon_lowering(self, photon_space):
        a, _ = ladder(photon_space, 0)
        v2 = photon_space.basis_vector((2, 0))
        v0 = photon_space.basis_vector((0, 0))
        assert np.allclose(a.matrix @ a.matrix @ v2, np.sqrt(2) * v0)

    def test_number_operator(self, photon_space):
        a, ad = ladder(photon_space, 0)
        rho = DensityMatrix.from_state_vector(photon_space, photon_space.basis_vector((2, 1)))
        from squeezetransfer.hilbert import Operator

        n = Operator(photon_space, ad.matrix @ a.matrix)
        assert expectation(n, rho) == pytest.approx(2.0, abs=1e-14)

    def test_rejects_atom_factor(self, space):
        with pytest.raises(ValueError):
            ladder(space, 0)


class TestTransitionMatrices:
    def test_projector_on_ground(self, space):
        (see,) = transition_matrices(space, 1, [("e", "e")])
        v = space.basis_vector(("g", 0, "g", 0))
        assert np.allclose(see @ v, 0)

    def test_raising(self, space):
        (seg,) = transition_matrices(space, 1, [("g", "e")])  # |e><g|
        v = space.basis_vector(("g", 0, "g", 0))
        assert np.allclose(seg @ v, space.basis_vector(("e", 0, "g", 0)))

    def test_population_difference(self, space):
        see, sgg = transition_matrices(space, 2, [("e", "e"), ("g", "g")])
        rho = DensityMatrix.from_state_vector(space, space.basis_vector(("g", 0, "e", 0)))
        from squeezetransfer.hilbert import HermitianOperator

        diff = HermitianOperator(space, see - sgg)
        assert expectation(diff, rho) == pytest.approx(1.0, abs=1e-14)

    def test_stack_is_each_transition_in_order(self, space):
        pairs = [("e", "e"), ("g", "g"), ("g", "e"), ("e", "g")]
        stack = transition_matrices(space, 2, pairs)
        assert stack.shape == (4, 36, 36)
        for (from_level, to_level), m in zip(pairs, stack):
            for label in space.basis_labels:
                out = m @ space.basis_vector(label)
                if label[2] != from_level:
                    assert not out.any()
                else:
                    moved = (label[0], label[1], to_level, label[3])
                    assert np.array_equal(out, space.basis_vector(moved))

    @pytest.mark.parametrize(
        "cavity,pairs", [(1, [("g", "f")]), (2, [("e", "g"), ("x", "e")]), (3, [("g", "e")])]
    )
    def test_rejects_bad_level_or_cavity(self, space, cavity, pairs):
        with pytest.raises(ValueError):
            transition_matrices(space, cavity, pairs)


    def test_rejects_a_cavity_without_an_atom(self):
        one_atom = CompositeSpace((atom(), photon_mode(2)))
        with pytest.raises(ValueError, match="space has 1 atom factors, cavity 2 requested"):
            transition_matrices(one_atom, 2, [("g", "e")])


class TestCollectiveSpin:
    def test_sz_ground_ground(self, atom_space, atom_spin):
        rho = DensityMatrix.from_state_vector(atom_space, atom_space.basis_vector(("g", "g")))
        assert expectation(atom_spin.z, rho) == pytest.approx(-1.0, abs=1e-14)

    def test_sz_mixed_excitation(self, atom_space, atom_spin):
        rho = DensityMatrix.from_state_vector(atom_space, atom_space.basis_vector(("e", "g")))
        assert expectation(atom_spin.z, rho) == pytest.approx(0.0, abs=1e-14)

    def test_triplet_total_spin(self, atom_space, atom_spin):
        v = (
            atom_space.basis_vector(("e", "g")) + atom_space.basis_vector(("g", "e"))
        ) / np.sqrt(2)
        rho = DensityMatrix.from_state_vector(atom_space, v)
        from squeezetransfer.hilbert import HermitianOperator

        total = sum(s.matrix @ s.matrix for s in atom_spin.components)
        s2 = HermitianOperator(atom_space, total)
        assert expectation(s2, rho) == pytest.approx(2.0, abs=1e-12)

    def test_su2_algebra_exact(self, atom_spin):
        x, y, z = (s.matrix for s in atom_spin.components)
        assert np.max(np.abs(commutator(atom_spin.x, atom_spin.y) - 1j * z)) < 1e-12
        assert np.max(np.abs(commutator(atom_spin.y, atom_spin.z) - 1j * x)) < 1e-12
        assert np.max(np.abs(commutator(atom_spin.z, atom_spin.x) - 1j * y)) < 1e-12

    def test_requires_two_atoms(self, photon_space):
        with pytest.raises(ValueError):
            collective_atomic_spin(photon_space)


class TestPseudoSpin:
    def test_lz_two_zero(self, photon_space, photon_spin):
        rho = DensityMatrix.from_state_vector(photon_space, photon_space.basis_vector((2, 0)))
        assert expectation(photon_spin.z, rho) == pytest.approx(1.0, abs=1e-14)

    def test_lz_symmetric_superposition(self, photon_space, photon_spin):
        v = (
            photon_space.basis_vector((2, 0)) + photon_space.basis_vector((0, 2))
        ) / np.sqrt(2)
        rho = DensityMatrix.from_state_vector(photon_space, v)
        assert expectation(photon_spin.z, rho) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n_max", [2, 4])
    def test_su2_algebra_below_cutoff(self, n_max):
        sp = two_mode_space(n_max)
        spin = photonic_pseudospin(sp)
        proj = total_photon_projector(sp, n_max - 1)
        x, y, z = (s.matrix for s in spin.components)
        assert np.max(np.abs((commutator(spin.x, spin.y) - 1j * z) @ proj)) < 1e-12
        assert np.max(np.abs((commutator(spin.y, spin.z) - 1j * x) @ proj)) < 1e-12
        assert np.max(np.abs((commutator(spin.z, spin.x) - 1j * y) @ proj)) < 1e-12

    @pytest.mark.parametrize("n_max", [2, 3, 4])
    def test_two_axis_twisting_identity(self, n_max):
        # a1^dag^2 a2^2 + h.c. equals 2(L_x^2 - L_y^2) away from the cutoff
        sp = two_mode_space(n_max)
        spin = photonic_pseudospin(sp)
        a1, a1d = (op.matrix for op in ladder(sp, 0))
        a2, a2d = (op.matrix for op in ladder(sp, 1))
        hop = a1d @ a1d @ a2 @ a2 + a2d @ a2d @ a1 @ a1
        twist = 2 * (spin.x.matrix @ spin.x.matrix - spin.y.matrix @ spin.y.matrix)
        proj = total_photon_projector(sp, n_max - 2)
        assert np.max(np.abs((hop - twist) @ proj)) < 1e-12


    def test_requires_two_modes(self):
        with pytest.raises(ValueError,
                           match="space must contain exactly two photon modes, found 1"):
            photonic_pseudospin(CompositeSpace((atom(), photon_mode(2))))


class TestQuadratures:
    def test_vacuum_noise(self, photon_space):
        pair = quadratures(photon_space, 0)
        rho = DensityMatrix.from_state_vector(photon_space, photon_space.basis_vector((0, 0)))
        from squeezetransfer.witness import quadrature_variances

        v1, v2 = quadrature_variances(rho, pair)
        assert v1 == pytest.approx(0.25, abs=1e-14)
        assert v2 == pytest.approx(0.25, abs=1e-14)
        assert expectation(pair.x1, rho) == pytest.approx(0.0, abs=1e-14)

    def test_two_photon_fock_variance(self):
        # (2n+1)/4 needs headroom above n = 2, hence the padded cutoff
        sp = two_mode_space(3)
        pair = quadratures(sp, 0)
        rho = DensityMatrix.from_state_vector(sp, sp.basis_vector((2, 0)))
        from squeezetransfer.witness import quadrature_variances

        v1, _ = quadrature_variances(rho, pair)
        assert v1 == pytest.approx(1.25, abs=1e-12)

    def test_commutation(self):
        sp = two_mode_space(4)
        pair = quadratures(sp, 0)
        proj = total_photon_projector(sp, 3)
        comm = commutator(pair.x1, pair.x2)
        ident = np.eye(sp.total_dim)
        assert np.max(np.abs((comm - 0.5j * ident) @ proj)) < 1e-12

    def test_rejects_atom_factor(self, space):
        with pytest.raises(ValueError):
            quadratures(space, 2)
