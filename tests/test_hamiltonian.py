import numpy as np
import pytest

from squeezetransfer.hamiltonian import (
    ManifoldBlock,
    ModelInconsistencyError,
    ModelParams,
    build_hamiltonian,
    extract_manifold_block,
    manifold_basis,
    manifold_blocks,
    model_operators,
)
from squeezetransfer.hilbert import (
    CompositeSpace,
    HermitianOperator,
    atom,
    photon_mode,
    standard_space,
)


def eig2(a, b, c):
    """Independent closed form for the eigenvalues of [[a, b], [b, c]]."""
    mean = (a + c) / 2
    rad = np.sqrt(((a - c) / 2) ** 2 + b**2)
    return mean + rad, mean - rad


class TestModelParams:
    def test_defaults(self):
        p = ModelParams()
        assert p.lam == 1.0
        assert p.zeta == 0.0

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ValueError):
            ModelParams(lam=0.0)

    def test_rejects_negative_zeta(self):
        with pytest.raises(ValueError):
            ModelParams(zeta=-0.1)

    def test_from_mapping_lambda_alias(self):
        p = ModelParams.from_mapping({"lambda": 2.0, "zeta": 0.3})
        assert p.lam == 2.0
        assert p.zeta == 0.3

    def test_from_mapping_rejects_duplicate_lam(self):
        with pytest.raises(ValueError):
            ModelParams.from_mapping({"lambda": 2.0, "lam": 2.0})

    def test_from_mapping_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            ModelParams.from_mapping({"kappa": 1.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["omega", "mu", "eta", "lam", "zeta", "e_g", "e_e"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            ModelParams(**{name: value})


class TestBuildHamiltonian:
    def test_hermitian(self, default_hamiltonian):
        m = default_hamiltonian.matrix
        assert np.max(np.abs(m - m.conj().T)) < 1e-14

    def test_two_photon_hopping_element(self, space, default_params):
        # a1^dag^2 a2^2 |g,2;g,0> = 2 |g,0;g,2>, so the element is 2 zeta
        h = build_hamiltonian(default_params, space).matrix
        i = space.basis_index(("g", 0, "g", 2))
        j = space.basis_index(("g", 2, "g", 0))
        assert h[i, j] == pytest.approx(2 * default_params.zeta, abs=1e-14)

    def test_two_photon_atom_element(self, space, default_params):
        # lam sigma_eg a^2 |g,2;g,0> = sqrt(2) lam |e,0;g,0>
        h = build_hamiltonian(default_params, space).matrix
        i = space.basis_index(("e", 0, "g", 0))
        j = space.basis_index(("g", 2, "g", 0))
        assert h[i, j] == pytest.approx(np.sqrt(2) * default_params.lam, abs=1e-14)

    def test_diagonal_energies(self, space):
        # each atom carries the detuning mu - eta on |e>; H has no scalar term
        p = ModelParams(mu=0.7, eta=0.2, zeta=0.5, e_g=0.3, e_e=-0.1)
        h = build_hamiltonian(p, space).matrix
        i = space.basis_index(("e", 0, "e", 0))
        assert h[i, i] == pytest.approx(2 * (p.mu - p.eta), abs=1e-14)
        j = space.basis_index(("g", 0, "g", 0))
        assert h[j, j] == 0

    def test_linearity_in_zeta(self, space):
        h0 = build_hamiltonian(ModelParams(zeta=0.0), space).matrix
        h1 = build_hamiltonian(ModelParams(zeta=1.0), space).matrix
        h_half = build_hamiltonian(ModelParams(zeta=0.5), space).matrix
        assert np.allclose(h_half, 0.5 * (h0 + h1), atol=1e-14)

    @pytest.mark.parametrize("zeta", [0.0, 0.01, 0.5, 1.37, 2.0])
    def test_local_plus_hopping_is_exact(self, space, zeta):
        # The sweep builds H(zeta) as H(0) + zeta * Hop; that must be the same
        # float arithmetic as a direct build, not merely close to it.
        params = ModelParams(mu=0.13, eta=-0.07, e_g=0.3, e_e=-0.1)
        h_local, hop = (op.matrix for op in model_operators(params, space))
        direct = build_hamiltonian(ModelParams(**{**vars(params), "zeta": zeta}), space).matrix
        assert np.array_equal(h_local + zeta * hop, direct)

    def test_swap_symmetry(self, space, default_hamiltonian):
        # exchanging the two cavities is a symmetry of the model
        d = space.total_dim
        perm = np.zeros((d, d))
        for idx, (l1, n1, l2, n2) in enumerate(space.basis_labels):
            perm[space.basis_index((l2, n2, l1, n1)), idx] = 1.0
        h = default_hamiltonian.matrix
        assert np.max(np.abs(perm @ h - h @ perm)) < 1e-13

    def test_rejects_non_canonical_space(self, default_params):
        sp = CompositeSpace((atom(), atom(), photon_mode(2), photon_mode(2)))
        with pytest.raises(ValueError):
            build_hamiltonian(default_params, sp)

    def test_hopping_larger_cutoff(self):
        sp = CompositeSpace((atom(), photon_mode(4), atom(), photon_mode(4)))
        hop = model_operators(ModelParams(), sp)[1].matrix
        i = sp.basis_index(("g", 1, "g", 3))
        j = sp.basis_index(("g", 3, "g", 1))
        # a1^dag^2 a2^2 |1,3> = sqrt(2*3) * sqrt(3*2) |3,1>
        assert hop[j, i] == pytest.approx(6.0, abs=1e-12)


class TestManifoldBlock:
    def test_basis_orthonormal(self, space):
        phi = manifold_basis(space)
        assert np.allclose(phi.conj().T @ phi, np.eye(4), atol=1e-14)

    def test_block_entries(self, space):
        p = ModelParams(mu=0.3, eta=0.1, zeta=0.5)
        block = extract_manifold_block(build_hamiltonian(p, space))
        assert np.allclose(
            block.h_sym,
            [[2 * p.zeta, np.sqrt(2) * p.lam], [np.sqrt(2) * p.lam, p.mu - p.eta]],
            atol=1e-13,
        )
        assert np.allclose(
            block.h_anti,
            [[-2 * p.zeta, np.sqrt(2) * p.lam], [np.sqrt(2) * p.lam, p.mu - p.eta]],
            atol=1e-13,
        )

    def test_eigenvalues_closed_form(self, default_block, default_params):
        # mu = eta = 0, lam = 1: w = zeta +- sqrt(zeta^2 + 2) (symmetric),
        # -zeta +- sqrt(zeta^2 + 2) (antisymmetric)
        z = default_params.zeta
        rad = np.sqrt(z**2 + 2)
        assert default_block.omegas == pytest.approx([z + rad, z - rad, -z + rad, -z - rad], abs=1e-12)

    def test_eigenvalues_match_generic_2x2_oracle(self, space):
        p = ModelParams(mu=0.4, eta=0.15, zeta=1.2)
        block = extract_manifold_block(build_hamiltonian(p, space))
        w1, w2 = eig2(block.h_sym[0, 0], block.h_sym[0, 1], block.h_sym[1, 1])
        w3, w4 = eig2(block.h_anti[0, 0], block.h_anti[0, 1], block.h_anti[1, 1])
        assert block.omegas == pytest.approx([w1, w2, w3, w4], abs=1e-12)

    def test_eigenvectors_diagonalize(self, default_block):
        for sub, vecs, w in (
            (default_block.h_sym, default_block.vecs_sym, default_block.omegas[:2]),
            (default_block.h_anti, default_block.vecs_anti, default_block.omegas[2:]),
        ):
            assert np.allclose(vecs.T @ sub @ vecs, np.diag(w), atol=1e-12)

    def test_zeta_zero_degeneracy(self, space):
        block = extract_manifold_block(build_hamiltonian(ModelParams(zeta=0.0), space))
        assert block.omegas[0] == pytest.approx(block.omegas[2], abs=1e-13)
        assert block.omegas[1] == pytest.approx(block.omegas[3], abs=1e-13)

    def test_gap_positive(self, default_block):
        assert default_block.delta_12 > 0
        assert default_block.omegas[2] - default_block.omegas[3] > 0

    def test_lam_rescaling(self, space):
        p = ModelParams(lam=2.0, zeta=1.0)  # zeta/lam = 0.5 in units of lam
        block = extract_manifold_block(build_hamiltonian(p, space), lam=p.lam)
        ref = extract_manifold_block(build_hamiltonian(ModelParams(zeta=0.5), space))
        assert np.allclose(block.omegas, ref.omegas, atol=1e-12)

    def test_small_coupling_decoupling(self, space):
        # lam -> 0: the leading symmetric eigenvector approaches the photonic
        # basis state when the hopping dominates
        p = ModelParams(lam=1e-6, zeta=0.5)
        block = extract_manifold_block(build_hamiltonian(p, space), lam=1.0)
        lead = block.vecs_sym[:, 0]
        assert abs(lead[0]) > 1 - 1e-5

    def test_leakage_detection(self, space, default_hamiltonian):
        # adding a term that drives phi3 out of the manifold must be caught
        bad = default_hamiltonian.matrix.copy()
        i = space.basis_index(("e", 1, "g", 0))
        j = space.basis_index(("e", 0, "g", 0))
        bad[i, j] += 0.1
        bad[j, i] += 0.1
        with pytest.raises(ModelInconsistencyError):
            extract_manifold_block(HermitianOperator(space, bad))

    @pytest.mark.parametrize("i,j,phase,message", [
        (0, 2, 1j, "projected block is not real"),
        (0, 1, 1.0, "symmetric and antisymmetric sectors mix by 1.000e-06"),
    ])
    def test_rejects_a_term_inside_the_manifold(self, space, default_hamiltonian, i, j, phase,
                                                message):
        # phase * |phi_i><phi_j| + h.c., small and Hermitian, leaks nothing
        phi = manifold_basis(space)
        term = phase * np.outer(phi[:, i], phi[:, j].conj())
        bad = HermitianOperator(space, default_hamiltonian.matrix + 1e-6 * (term + term.conj().T))
        with pytest.raises(ModelInconsistencyError, match=message):
            extract_manifold_block(bad)

    def test_closed_for_larger_cutoff(self):
        sp = CompositeSpace((atom(), photon_mode(5), atom(), photon_mode(5)))
        block = extract_manifold_block(build_hamiltonian(ModelParams(zeta=0.5), sp))
        ref = extract_manifold_block(build_hamiltonian(ModelParams(zeta=0.5), standard_space()))
        assert np.allclose(block.omegas, ref.omegas, atol=1e-12)


class TestManifoldBlocks:
    PARAMS = ModelParams(mu=0.13, eta=-0.07, lam=1.3, e_g=0.3, e_e=-0.1)

    def test_matches_per_zeta_extraction(self, space):
        # zetas in units of lam, and ModelParams.zeta the absolute hopping
        zetas = np.array([0.0, 0.25, 2.0])
        h0, hop = model_operators(self.PARAMS, space)
        blocks = manifold_blocks(h0, hop, zetas, self.PARAMS.lam)
        assert blocks.omegas.shape == (zetas.size, 4)
        for i, zeta in enumerate(zetas):
            block = blocks[i]
            params = ModelParams(**{**vars(self.PARAMS), "zeta": zeta * self.PARAMS.lam})
            ref = extract_manifold_block(build_hamiltonian(params, space), params.lam)
            for name in ("omegas", "vecs_sym", "vecs_anti", "h_sym", "h_anti"):
                # allclose on the eigenvectors also pins their signs
                assert np.allclose(getattr(block, name), getattr(ref, name), rtol=0, atol=1e-12)
            assert np.array_equal(block.basis, ref.basis)
            for vecs in (block.vecs_sym, block.vecs_anti):
                # sign convention: each eigenvector's largest component is positive
                assert np.all(vecs[np.argmax(np.abs(vecs), axis=0), [0, 1]] > 0)

    def test_hopping_projects_to_photonic_diagonal(self, space):
        blocks = manifold_blocks(*model_operators(ModelParams(), space), [0.0, 1.0])
        assert np.allclose(blocks.h_sym[1] - blocks.h_sym[0], [[2, 0], [0, 0]], atol=1e-14)
        assert np.allclose(blocks.h_anti[1] - blocks.h_anti[0], [[-2, 0], [0, 0]], atol=1e-14)

    @pytest.mark.parametrize("defect,message", [("leakage", "leaks"), ("hermiticity", "Hermiticity")])
    def test_checks_bound_over_largest_zeta(self, space, defect, message):
        # Hop at a hundredth of the model's, with a 5e-13 defect: it passes
        # HermitianOperator's own check and the bound at zeta = 1, where H(0)
        # sets the scale, but at zeta = 20 the defect is more than 1e-12 of
        # H(zeta)'s largest entry.
        bad = model_operators(ModelParams(), space)[1].matrix / 100
        i = space.basis_index(("e", 1, "g", 0))
        if defect == "leakage":
            j = space.basis_index(("e", 0, "g", 0))  # a manifold state
            bad[i, j] += 5e-13
            bad[j, i] += 5e-13
        else:
            j = space.basis_index(("g", 1, "g", 1))  # outside the manifold
            bad[i, j] += 5e-13
        hop = HermitianOperator(space, bad)
        h0 = build_hamiltonian(ModelParams(), space)
        assert manifold_blocks(h0, hop, [0.0, 1.0]).omegas.shape == (2, 4)
        with pytest.raises(ModelInconsistencyError, match=message):
            manifold_blocks(h0, hop, [0.0, 1.0, 20.0])


SCALES = {"default": ModelParams(zeta=0.5), "mu 1e8": ModelParams(mu=1e8, zeta=0.5),
          "lam 1e4": ModelParams(lam=1e4, zeta=0.5e4), "zeta 1e6": ModelParams(zeta=1e6)}


class TestChecksScaleWithH:
    """Each structural check is relative to the size of H: its round-off passes
    at every energy scale, and a defect of 1e-6 of H's size fails at each."""

    @pytest.mark.parametrize("params", SCALES.values(), ids=SCALES)
    def test_round_off_passes(self, space, params):
        h0, hop = model_operators(ModelParams(**{**vars(params), "zeta": 0.0}), space)
        blocks = manifold_blocks(h0, hop, [0.0, params.zeta / params.lam], params.lam)
        block = extract_manifold_block(build_hamiltonian(params, space), params.lam)
        np.testing.assert_allclose(blocks.omegas[1], block.omegas, rtol=0,
                                   atol=1e-12 * np.max(np.abs(block.omegas)))

    @pytest.mark.parametrize("params", SCALES.values(), ids=SCALES)
    @pytest.mark.parametrize("defect,message", [("leak", "leaks out of the four-state manifold"),
                                                ("imaginary", "projected block is not real"),
                                                ("cross", "sectors mix")])
    def test_a_millionth_of_h_fails(self, space, params, defect, message):
        h = build_hamiltonian(params, space).matrix
        phi = manifold_basis(space)
        if defect == "leak":  # phi3 -> |e,1;g,0>, outside the manifold
            term = np.outer(space.basis_vector(("e", 1, "g", 0)), phi[:, 2].conj())
        else:  # i|phi1><phi3| or |phi1><phi2|, inside it
            term = 1j * np.outer(phi[:, 0], phi[:, 2]) if defect == "imaginary" else np.outer(
                phi[:, 0], phi[:, 1])
        bad = HermitianOperator(space, h + 1e-6 * np.max(np.abs(h)) * (term + term.conj().T))
        with pytest.raises(ModelInconsistencyError, match=message):
            extract_manifold_block(bad, params.lam)
        with pytest.raises(ModelInconsistencyError, match=message):
            manifold_blocks(bad, model_operators(params, space)[1], [0.0], params.lam)
