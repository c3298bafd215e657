import numpy as np
import pytest

from squeezetransfer.dynamics import (
    CoefficientSet,
    InitialState,
    ManifoldState,
    SpectralPropagator,
    analytic_rho_atoms,
    analytic_rho_photons,
    coefficients,
    density_matrices,
    evolve_closed_form,
    evolve_closed_form_grid,
    evolve_numeric_oracle,
    initial_amplitudes,
    initial_vector,
    project_amplitudes,
    reduced_states,
)
from squeezetransfer.hamiltonian import (
    ModelParams,
    build_hamiltonian,
    extract_manifold_block,
    manifold_blocks,
    model_operators,
)
from squeezetransfer.hilbert import (
    DimensionMismatchError,
    Kind,
    NumericalConsistencyError,
    standard_space,
)

from _oracles import (
    brute_force_reduced_state,
    coefficient_formulas,
    embed,
    rabi_amplitudes,
    sector_constants,
)

TIMES = [0.0, 0.37, 1.0, 2.9, 7.3, 13.1]
BRANCHES = [InitialState.ENTANGLED_SYMMETRIC, InitialState.SEPARABLE_ONE_CAVITY]


class TestInitialStates:
    def test_entangled_amplitudes(self):
        assert np.allclose(
            initial_amplitudes(InitialState.ENTANGLED_SYMMETRIC), [1, 0, 0, 0]
        )

    def test_separable_amplitudes(self):
        s = 1 / np.sqrt(2)
        assert np.allclose(
            initial_amplitudes(InitialState.SEPARABLE_ONE_CAVITY), [s, s, 0, 0]
        )

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_vector_consistent_with_amplitudes(self, branch, space, default_block):
        v = initial_vector(branch, space)
        assert np.allclose(
            project_amplitudes(v, default_block), initial_amplitudes(branch), atol=1e-14
        )

    def test_manifold_state_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            ManifoldState(np.array([1.0, 1.0, 0.0, 0.0]), 0.0)

    def test_manifold_state_needs_four_amplitudes(self):
        with pytest.raises(ValueError, match=r"need 4 amplitudes, got shape \(3, 2\)"):
            ManifoldState(np.ones((3, 2)) / np.sqrt(3), np.arange(2.0))

    def test_manifold_state_rejects_nan(self):
        with pytest.raises(ValueError):
            ManifoldState(np.array([np.nan, 0.0, 0.0, 0.0]), 0.0)

    def test_manifold_state_row_rejects_one_bad_column(self):
        amps = np.zeros((4, 3), dtype=complex)
        amps[0] = [1.0, 1.0, 1.1]
        with pytest.raises(ValueError):
            ManifoldState(amps, np.arange(3.0))

    def test_manifold_state_shares_a_read_only_view(self):
        amps = np.zeros((4, 3), dtype=complex)
        amps[0] = 1.0
        state = ManifoldState(amps, np.arange(3.0))
        assert np.shares_memory(state.amplitudes, amps)
        assert not state.amplitudes.flags.writeable
        assert amps.flags.writeable


class TestClosedFormEvolution:
    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("t", TIMES)
    def test_norm_conserved(self, branch, t, default_block):
        state = evolve_closed_form(branch, default_block, t)
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", TIMES)
    def test_entangled_branch_stays_symmetric(self, t, default_block):
        state = evolve_closed_form(InitialState.ENTANGLED_SYMMETRIC, default_block, t)
        assert abs(state.amplitudes[1]) == 0.0
        assert abs(state.amplitudes[3]) == 0.0

    def test_grid_matches_pointwise(self, default_block):
        times = np.array(TIMES)
        grid = evolve_closed_form_grid(InitialState.SEPARABLE_ONE_CAVITY, default_block, times)
        for k, t in enumerate(TIMES):
            state = evolve_closed_form(InitialState.SEPARABLE_ONE_CAVITY, default_block, t)
            assert np.allclose(grid[:, k], state.amplitudes, atol=1e-13)

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_grid_into_a_buffer_is_the_returned_grid_bit_for_bit(self, branch, space):
        """out, a strided view of a larger buffer filled with nan, gets the
        bits of the returned grid, the antisymmetric zeros of the entangled
        branch included, and is returned."""
        params = ModelParams(mu=0.13, eta=-0.07, lam=1.3)
        stack = manifold_blocks(*model_operators(params, space), [0.0, 0.4, 2.0], params.lam)
        times = np.linspace(0.0, 20.0, 33)
        grid = evolve_closed_form_grid(branch, stack, times)
        buffer = np.full((4, 2, 3, times.size), np.nan, dtype=complex)
        out = buffer[:, 0]
        assert evolve_closed_form_grid(branch, stack, times, out) is out
        assert out.tobytes() == grid.tobytes()
        assert np.isnan(buffer[:, 1]).all()

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_stack_rows_are_the_single_blocks_bit_for_bit(self, branch, space):
        params = ModelParams(mu=0.13, eta=-0.07, lam=1.3)
        stack = manifold_blocks(*model_operators(params, space), [0.0, 0.4, 2.0], params.lam)
        times = np.linspace(0.0, 20.0, 33)
        grid = evolve_closed_form_grid(branch, stack, times)
        assert grid.shape == (4, 3, times.size)
        for i in range(3):
            row = evolve_closed_form_grid(branch, stack[i], times)
            assert row.shape == (4, times.size)
            assert row.tobytes() == grid[:, i].tobytes()
        # one time on a stack is one state per row, not the first row's
        state = evolve_closed_form(branch, stack, times[5])
        assert state.amplitudes.shape == (4, 3)
        assert np.allclose(state.amplitudes, grid[:, :, 5], rtol=0, atol=1e-15)

    def test_rejects_negative_time(self, default_block):
        with pytest.raises(ValueError):
            evolve_closed_form(InitialState.ENTANGLED_SYMMETRIC, default_block, -0.1)

    def test_rejects_nan_time(self, default_block, default_hamiltonian):
        with pytest.raises(ValueError):
            evolve_closed_form(InitialState.ENTANGLED_SYMMETRIC, default_block, np.nan)
        with pytest.raises(ValueError):
            evolve_numeric_oracle(InitialState.ENTANGLED_SYMMETRIC, default_hamiltonian, np.nan)

    def test_full_revival_of_photonic_amplitude(self, default_block):
        # at one Rabi period the atomic amplitude vanishes identically
        t = 2 * np.pi / default_block.delta_12
        state = evolve_closed_form(InitialState.ENTANGLED_SYMMETRIC, default_block, t)
        assert abs(state.amplitudes[2]) ** 2 < 1e-18
        assert abs(state.amplitudes[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestOracleAgreement:
    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("zeta", [0.0, 0.5, 2.0])
    def test_fidelity_against_full_space_propagation(self, branch, zeta, space):
        h = build_hamiltonian(ModelParams(zeta=zeta), space)
        block = extract_manifold_block(h)
        prop = SpectralPropagator(h)
        psi0 = initial_vector(branch, space)
        for t in TIMES:
            exact = prop.evolve_grid(psi0, [t])[:, 0]
            closed = embed(evolve_closed_form(branch, block, t), block)
            fid = abs(np.vdot(exact, closed)) ** 2
            assert fid == pytest.approx(1.0, abs=1e-10)

    def test_oracle_unitary(self, default_hamiltonian, space):
        psi = evolve_numeric_oracle(
            InitialState.SEPARABLE_ONE_CAVITY, default_hamiltonian, 5.0
        )
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_propagator_grid_matches_single(self, default_hamiltonian, space):
        prop = SpectralPropagator(default_hamiltonian)
        psi0 = initial_vector(InitialState.ENTANGLED_SYMMETRIC, space)
        times = np.array([0.4, 1.7])
        grid = prop.evolve_grid(psi0, times)
        for k, t in enumerate(times):
            assert np.allclose(grid[:, k], prop.evolve_grid(psi0, [t])[:, 0], atol=1e-13)

    def test_oracle_stays_in_manifold(self, default_hamiltonian, default_block, space):
        psi = evolve_numeric_oracle(
            InitialState.SEPARABLE_ONE_CAVITY, default_hamiltonian, 3.3
        )
        amps = project_amplitudes(psi, default_block)
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_both_routes_solve_the_rabi_problem_at_zeta_0(self, branch, space):
        """At zeta = 0 each cavity is the two-level problem |g,2> <-> |e,0>
        with coupling sqrt(2) lam and detuning mu - eta, a solution that
        shares no code with the model: atom 1 is excited with probability
        (8 / W^2) sin^2(W t / 2), W = sqrt(((mu - eta) / lam)^2 + 8), t in
        units of 1/lam, on the separable branch and half that on the
        entangled one; on 20 seeded draws of the parameters.  At any zeta the
        parity blocks are two such problems (_oracles.rabi_amplitudes): on
        those 20 draws and 20 more with zeta in [0, 2], both routes' phase-free
        quantities |A|^2..|D|^2, ac and bd are theirs."""
        rng = np.random.default_rng(10)
        times = np.linspace(0.0, 20.0, 41)
        psi0 = initial_vector(branch, space)
        for draw in range(40):
            mu, eta, e_g, e_e = rng.uniform(-1.0, 1.0, 4)
            lam = rng.uniform(0.5, 2.0)
            zeta = 0.0 if draw < 20 else rng.uniform(0.0, 2.0)
            params = ModelParams(mu=mu, eta=eta, lam=lam, zeta=zeta, e_g=e_g, e_e=e_e)
            h = build_hamiltonian(params, space)
            block = extract_manifold_block(h, lam)
            routes = {
                "closed form": block.basis @ evolve_closed_form_grid(branch, block, times),
                "oracle": SpectralPropagator(h, lam).evolve_grid(psi0, times),
            }
            w = np.sqrt(((mu - eta) / lam) ** 2 + 8)
            want = 8 / w**2 * np.sin(w * times / 2) ** 2
            if branch is InitialState.ENTANGLED_SYMMETRIC:
                want /= 2
            exact = coefficients(ManifoldState(
                rabi_amplitudes(branch, mu, eta, lam, zeta, times), times))
            for route, vecs in routes.items():
                if zeta == 0:
                    got = reduced_states(vecs, space)["atoms"][:, 2, 2]  # |e g><e g|
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=route)
                got = coefficients(ManifoldState(project_amplitudes(vecs, block), times))
                for name in ("abs_a2", "abs_b2", "abs_c2", "abs_d2", "ac", "bd"):
                    np.testing.assert_allclose(getattr(got, name), getattr(exact, name), rtol=0,
                                               atol=1e-12, err_msg=f"{route}: {name}")


class TestCoefficients:
    def test_sum_to_one_enforced(self):
        with pytest.raises(ValueError):
            CoefficientSet(0.5, 0.1, 0.1, 0.1, 0j, 0j)

    @pytest.mark.parametrize("field", ["ac", "bd"])
    def test_cauchy_schwarz_enforced(self, field):
        # |ac|^2 <= |A|^2 |C|^2 and |bd|^2 <= |B|^2 |D|^2, with |C|^2 = |D|^2 = 0
        cross = {"ac": 0j, "bd": 0j, field: 0.9 + 0j}
        with pytest.raises(ValueError, match=f"cross term {field} violates Cauchy-Schwarz"):
            CoefficientSet(0.5, 0.5, 0.0, 0.0, **cross)
        CoefficientSet(0.5, 0.5, 0.0, 0.0, 0j, 0j)

    @pytest.mark.parametrize("field", ["ac", "bd"])
    def test_nan_rejected(self, field):
        cross = {"ac": 0j, "bd": 0j, field: complex(np.nan)}
        with pytest.raises(ValueError):
            CoefficientSet(1.0, 0.0, 0.0, 0.0, **cross)

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_row_matches_single_states(self, branch, default_block):
        times = np.array(TIMES)
        amps = evolve_closed_form_grid(branch, default_block, times)
        row = coefficients(ManifoldState(amps, times))
        rho_a, rho_p = analytic_rho_atoms(row), analytic_rho_photons(row)
        assert rho_a.shape == (len(TIMES), 4, 4)
        assert rho_p.shape == (len(TIMES), 9, 9)
        for k, t in enumerate(TIMES):
            single = coefficients(ManifoldState(amps[:, k], t))
            for field in ("abs_a2", "abs_b2", "abs_c2", "abs_d2", "ac", "bd"):
                assert getattr(row, field)[k] == pytest.approx(
                    getattr(single, field), abs=1e-15
                ), field
            assert np.allclose(rho_a[k], analytic_rho_atoms(single), atol=1e-15)
            assert np.allclose(rho_p[k], analytic_rho_photons(single), atol=1e-15)

    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("t", TIMES)
    def test_explicit_formulas_match_spectral(self, branch, t, default_block):
        state = evolve_closed_form(branch, default_block, t)
        a, c, b, d = state.amplitudes  # (phi1, phi2, phi3, phi4) -> (A, C, B, D)
        amp = {"a": a, "b": b, "c": c, "d": d}
        explicit = coefficient_formulas(default_block, branch, t)
        assert len(explicit) == 10
        for name, value in explicit.items():
            if name.startswith("abs_"):
                want = abs(amp[name[4]]) ** 2
            else:
                want = amp[name[0]] * np.conj(amp[name[1]])
            assert value == pytest.approx(want, abs=1e-10), name
        spectral = coefficients(state)
        for field in ("abs_a2", "abs_b2", "abs_c2", "abs_d2", "ac", "bd"):
            assert getattr(spectral, field) == pytest.approx(explicit[field], abs=1e-10), field

    def test_sector_normalization_identity(self, default_block):
        # A1 (1 + alpha1^2) equals the initial photonic weight of the sector
        a1, alpha1 = sector_constants(default_block.vecs_sym, 1.0)
        assert a1 * (1 + alpha1**2) == pytest.approx(1.0, abs=1e-12)
        a1s, alpha1s = sector_constants(default_block.vecs_sym, 1 / np.sqrt(2))
        assert a1s * (1 + alpha1s**2) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_alpha_from_eigenvalue(self, space):
        # alpha = (omega - 2 eta - 2 zeta)/(sqrt(2) lam) for the symmetric
        # sector; at zeta = 1/4 this is the simple form (sqrt(2)/2)(omega - 1/2)
        block = extract_manifold_block(build_hamiltonian(ModelParams(zeta=0.25), space))
        _, alpha1 = sector_constants(block.vecs_sym, 1.0)
        w1 = block.omegas[0]
        assert alpha1 == pytest.approx((w1 - 0.5) / np.sqrt(2), abs=1e-12)
        assert alpha1 == pytest.approx((np.sqrt(2) / 2) * (w1 - 0.5), abs=1e-12)


class TestReducedDensityMatrices:
    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("t", [0.0, 1.3, 4.7])
    def test_analytic_matches_partial_trace(self, branch, t, default_hamiltonian, space):
        psi = evolve_numeric_oracle(branch, default_hamiltonian, t)
        _, rho_atoms, rho_photons = density_matrices(psi, space)
        block = extract_manifold_block(default_hamiltonian)
        coeffs = coefficients(evolve_closed_form(branch, block, t))
        assert np.allclose(rho_atoms.matrix, analytic_rho_atoms(coeffs), atol=1e-10)
        assert np.allclose(
            rho_photons.matrix, analytic_rho_photons(coeffs), atol=1e-10
        )

    @pytest.mark.parametrize("n_max", [2, 3])
    def test_gram_matches_brute_force_partial_trace(self, n_max, rng):
        space = standard_space(n_max)
        states = rng.normal(size=(space.total_dim, 3)) + 1j * rng.normal(size=(space.total_dim, 3))
        states /= np.linalg.norm(states, axis=0)
        stacks = reduced_states(states, space)
        d = (n_max + 1) ** 2
        assert stacks["atoms"].shape == (3, 4, 4) and stacks["photons"].shape == (3, d, d)
        for k in range(3):
            single = reduced_states(states[:, k], space)
            for side, kind in (("atoms", Kind.ATOM), ("photons", Kind.PHOTON_MODE)):
                expected = brute_force_reduced_state(states[:, k], space, kind)
                assert np.allclose(single[side], expected, rtol=0, atol=1e-15)
                assert np.allclose(stacks[side][k], expected, rtol=0, atol=1e-15)
                assert np.trace(single[side]) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n_max", [2, 3])
    def test_product_state_reduces_to_its_factors(self, n_max, rng):
        space = standard_space(n_max)
        d = n_max + 1
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        a, p = a / np.linalg.norm(a), p / np.linalg.norm(p)
        # psi[a1, m1, a2, m2] = a[a1, a2] p[m1, m2] in the (atom, mode, atom, mode) order
        psi = np.einsum("ik,jl->ijkl", a.reshape(2, 2), p.reshape(d, d)).ravel()
        rho = reduced_states(psi, space)
        assert np.allclose(rho["atoms"], np.outer(a, a.conj()), rtol=0, atol=1e-15)
        assert np.allclose(rho["photons"], np.outer(p, p.conj()), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_gram_matches_analytic_over_a_row(
        self, branch, default_hamiltonian, default_block, space
    ):
        times = np.linspace(0.0, 20.0, 41)
        prop = SpectralPropagator(default_hamiltonian)
        psi = prop.evolve_grid(initial_vector(branch, space), times)
        coeffs = coefficients(ManifoldState(project_amplitudes(psi, default_block), times))
        rho = reduced_states(psi, space)
        assert np.max(np.abs(rho["atoms"] - analytic_rho_atoms(coeffs))) < 1e-13
        assert np.max(np.abs(rho["photons"] - analytic_rho_photons(coeffs))) < 1e-13

    def test_entangled_branch_atoms_pure_at_t0(self, space):
        # the photons carry the superposition, the atoms stay in |g,g>
        rho = reduced_states(initial_vector(InitialState.ENTANGLED_SYMMETRIC, space), space)
        gg = np.zeros((4, 4))
        gg[0, 0] = 1.0
        assert np.allclose(rho["atoms"], gg, rtol=0, atol=1e-15)
        assert np.trace(rho["photons"] @ rho["photons"]).real == pytest.approx(1.0, abs=1e-15)

    def test_reduction_fails_closed(self, space):
        psi = initial_vector(InitialState.SEPARABLE_ONE_CAVITY, space)
        with pytest.raises(NumericalConsistencyError, match="trace"):
            reduced_states(1.001 * psi, space)
        with pytest.raises(NumericalConsistencyError):
            reduced_states(np.full(space.total_dim, np.nan), space)
        for bad in (psi[:-1], np.stack([psi, psi], axis=-1)[..., None]):
            with pytest.raises(DimensionMismatchError):
                reduced_states(bad, space)

    def test_atoms_trace_one(self, default_block):
        coeffs = coefficients(
            evolve_closed_form(InitialState.SEPARABLE_ONE_CAVITY, default_block, 2.2)
        )
        assert np.trace(analytic_rho_atoms(coeffs)).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(analytic_rho_photons(coeffs)).real == pytest.approx(1.0, abs=1e-12)

    def test_entangled_t0_reductions(self, default_block):
        coeffs = coefficients(
            evolve_closed_form(InitialState.ENTANGLED_SYMMETRIC, default_block, 0.0)
        )
        atoms = analytic_rho_atoms(coeffs)
        assert atoms[0, 0] == pytest.approx(1.0, abs=1e-12)  # both atoms in |g>
        photons = analytic_rho_photons(coeffs)
        d = 3
        assert photons[2 * d, 2 * d] == pytest.approx(0.5, abs=1e-12)
        assert photons[2, 2] == pytest.approx(0.5, abs=1e-12)
        assert photons[2 * d, 2] == pytest.approx(0.5, abs=1e-12)  # coherent superposition
