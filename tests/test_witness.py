import math

import numpy as np
import pytest
from scipy.linalg import expm

from squeezetransfer.dynamics import (
    InitialState,
    ManifoldState,
    analytic_rho_atoms,
    analytic_rho_photons,
    coefficients,
    density_matrices,
    evolve_closed_form,
    evolve_closed_form_grid,
    evolve_numeric_oracle,
)
from squeezetransfer.hamiltonian import (
    ModelParams,
    build_hamiltonian,
    extract_manifold_block,
    manifold_basis,
)
from squeezetransfer.hilbert import (
    HERMITICITY_TOL,
    IMAG_TOL,
    CompositeSpace,
    DensityMatrix,
    DimensionMismatchError,
    NumericalConsistencyError,
    Operator,
    atom,
    expectation,
)
from squeezetransfer.operators import (
    SpinTriple,
    collective_atomic_spin,
    photonic_pseudospin,
    quadratures,
)
from squeezetransfer.witness import (
    DENOMINATOR_FLOOR,
    MEAN_SPIN_FLOOR,
    BranchMismatchError,
    _smallest_eigenvalue_2x2,
    _transverse_basis,
    branch_witnesses,
    closed_form_quadrature_variance,
    kitagawa_ueda_xi,
    kitagawa_ueda_xi_of,
    density_spin_moments,
    moment_matrix,
    moment_operators,
    ossi,
    ossi_of,
    quadrature_variances,
    sorensen_xi_e2,
    sorensen_xi_e2_of,
    spin_moments,
)

from squeezetransfer.sweep import GridSpec, Method, SweepConfig, run_sweep

from _oracles import manifold_spin_moments, transverse_variance
from conftest import random_separable_two_qubit

# The slack below which a state counts as violating an inequality.
VIOLATION_TOL = 1e-10


def css_state(atom_space):
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    return DensityMatrix.from_state_vector(atom_space, np.kron(plus, plus))


def singlet_state(atom_space):
    # build the density matrix directly so its entries are exact halves
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = rho[2, 1] = -0.5
    return DensityMatrix(atom_space, rho)


def oat_state(atom_space, atom_spin, mu):
    """One-axis-twisted coherent state, a standard squeezed reference."""
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    psi0 = np.kron(plus, plus)
    sz = atom_spin.z.matrix
    return DensityMatrix.from_state_vector(atom_space, expm(-1j * mu * (sz @ sz)) @ psi0)


def random_mixed_stack(space, rng, shape):
    """Full-rank random states of the given stack shape on `space`."""
    d = space.total_dim
    g = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
    rho = g @ g.conj().swapaxes(-1, -2)
    return DensityMatrix(space, rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None])


def moments_by_expectation(rho, spin):
    """Mean and covariance from one expectation value per operator."""
    comps = spin.components
    mean = np.stack([expectation(s, rho) for s in comps], axis=-1)
    cov = np.zeros(mean.shape + (3,))
    for i in range(3):
        for j in range(3):
            sym = (comps[i].matrix @ comps[j].matrix + comps[j].matrix @ comps[i].matrix) / 2
            cov[..., i, j] = expectation(Operator(rho.space, sym), rho) - mean[..., i] * mean[..., j]
    return mean, cov


def branch_state(default_block, branch, t):
    coeffs = coefficients(evolve_closed_form(branch, default_block, t))
    return coeffs


class TestSpinMoments:
    def test_css_mean_along_x(self, atom_space, atom_spin):
        mean, cov = spin_moments(css_state(atom_space), atom_spin)
        assert mean == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert cov[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert cov[2, 2] == pytest.approx(0.5, abs=1e-12)
        assert cov[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_singlet_zero_mean(self, atom_space, atom_spin):
        mean, cov = spin_moments(singlet_state(atom_space), atom_spin)
        assert np.max(np.abs(mean)) < 1e-12
        assert np.allclose(np.diag(cov), 0.0, atol=1e-12)

    @pytest.mark.parametrize("side", ["atoms", "photons"])
    @pytest.mark.parametrize("shape", [(), (7,), (2, 3)])
    def test_one_contraction_matches_expectation_sums(
        self, side, shape, atom_space, atom_spin, photon_space, photon_spin, rng
    ):
        space, spin = (atom_space, atom_spin) if side == "atoms" else (photon_space, photon_spin)
        rho = random_mixed_stack(space, rng, shape)
        mean, cov = spin_moments(rho, spin)
        ref_mean, ref_cov = moments_by_expectation(rho, spin)
        assert mean.shape == shape + (3,) and cov.shape == shape + (3, 3)
        assert np.max(np.abs(mean - ref_mean)) <= 1e-14
        assert np.max(np.abs(cov - ref_cov)) <= 1e-14
        assert np.array_equal(cov, cov.swapaxes(-1, -2))

    def test_rejects_state_from_other_space(self, photon_space, atom_spin, rng):
        with pytest.raises(DimensionMismatchError):
            spin_moments(random_mixed_stack(photon_space, rng, (2,)), atom_spin)

    def test_rejects_imaginary_residue(self, atom_space, atom_spin):
        # a non-Hermitian "component" gives Tr(O rho) an imaginary part of 10 IMAG_TOL
        skew = Operator(atom_space, 10j * IMAG_TOL * np.eye(4))
        spin = SpinTriple(atom_spin.x, atom_spin.y, skew)
        with pytest.raises(NumericalConsistencyError, match="imaginary residue"):
            spin_moments(css_state(atom_space), spin)

    def test_accepts_residue_below_tolerance(self, atom_space, atom_spin):
        skew = Operator(atom_space, 0.5j * IMAG_TOL * np.eye(4))
        mean, _ = spin_moments(css_state(atom_space), SpinTriple(atom_spin.x, atom_spin.y, skew))
        assert mean[2] == 0.0


def random_amplitudes(rng, n):
    """n random normalized manifold states as (4, n) amplitudes."""
    amps = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    return amps / np.linalg.norm(amps, axis=0)


def manifold_density(amps):
    """The (n, 4, 4) stack of a a^dag for (4, n) amplitudes, as run_sweep builds it."""
    a = amps.T
    return a[:, :, None] * a.conj()[:, None, :]


class TestMomentOperators:
    def test_components_then_symmetrized_products(self, photon_spin):
        comps = [s.matrix for s in photon_spin.components]
        ops = moment_operators(photon_spin)
        assert ops.shape == (9, 9, 9)
        for k in range(3):
            assert np.array_equal(ops[k], comps[k])
        pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        for k, (i, j) in enumerate(pairs, start=3):
            assert np.array_equal(ops[k], (comps[i] @ comps[j] + comps[j] @ comps[i]) / 2)


class TestManifoldMoments:
    """Moments from the 4x4 manifold matrices against the reduced states."""

    @pytest.fixture(scope="class")
    def matrices(self, space):
        phi = manifold_basis(space)
        return {
            "atoms": moment_matrix(moment_operators(collective_atomic_spin(space)), phi),
            "photons": moment_matrix(moment_operators(photonic_pseudospin(space)), phi),
        }

    @pytest.mark.parametrize("side", ["atoms", "photons"])
    @pytest.mark.parametrize("source", ["entangled", "separable", "random"])
    def test_match_reduced_state_moments(
        self, side, source, matrices, default_block, rng,
        atom_space, atom_spin, photon_space, photon_spin,
    ):
        if source == "random":
            amps = random_amplitudes(rng, 200)
        else:
            branch = InitialState(source)
            amps = evolve_closed_form_grid(branch, default_block, np.linspace(0.0, 20.0, 81))
        coeffs = coefficients(ManifoldState(amps, 0.0))
        if side == "atoms":
            rho, spin = DensityMatrix(atom_space, analytic_rho_atoms(coeffs)), atom_spin
        else:
            rho, spin = DensityMatrix(photon_space, analytic_rho_photons(coeffs)), photon_spin
        mean, cov = density_spin_moments(manifold_density(amps), matrices[side])
        ref_mean, ref_cov = spin_moments(rho, spin)
        assert mean.shape == ref_mean.shape and cov.shape == ref_cov.shape
        assert np.max(np.abs(mean - ref_mean)) <= 1e-14
        assert np.max(np.abs(cov - ref_cov)) <= 1e-14

    @pytest.mark.parametrize("side", ["atoms", "photons"])
    def test_contraction_is_the_amplitude_formula_bit_for_bit(self, side, matrices, rng):
        amps = random_amplitudes(rng, 1201)
        got = density_spin_moments(manifold_density(amps), matrices[side])
        want = manifold_spin_moments(amps, matrices[side])
        assert [g.shape for g in got] == [(1201, 3), (1201, 3, 3)]
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_single_state(self, matrices, rng):
        amps = random_amplitudes(rng, 3)
        mean, cov = density_spin_moments(manifold_density(amps)[1], matrices["photons"])
        row_mean, row_cov = density_spin_moments(manifold_density(amps), matrices["photons"])
        assert mean.shape == (3,) and cov.shape == (3, 3)
        assert np.max(np.abs(mean - row_mean[1])) <= 1e-15
        assert np.max(np.abs(cov - row_cov[1])) <= 1e-15

    def test_rejects_non_hermitian_operator(self, space):
        full = collective_atomic_spin(space)
        skew = Operator(space, 10j * IMAG_TOL * np.eye(space.total_dim))
        spin = SpinTriple(full.x, full.y, skew)
        with pytest.raises(NumericalConsistencyError, match="Hermiticity"):
            moment_matrix(moment_operators(spin), manifold_basis(space))

    def test_accepts_deviation_below_tolerance(self, space):
        full = collective_atomic_spin(space)
        skew = Operator(space, 0.4j * HERMITICITY_TOL * np.eye(space.total_dim))
        ops = moment_operators(SpinTriple(full.x, full.y, skew))
        assert moment_matrix(ops, manifold_basis(space)).shape == (16, 9)

    def test_rejects_basis_of_other_space(self, atom_spin, space):
        with pytest.raises(DimensionMismatchError):
            moment_matrix(moment_operators(atom_spin), manifold_basis(space))

    def test_rejects_imaginary_residue(self, matrices):
        # amplitudes that are not a state make a Hermitian form complex
        bad = matrices["atoms"] + 10j * IMAG_TOL
        with pytest.raises(NumericalConsistencyError, match="imaginary residue"):
            density_spin_moments(manifold_density(np.array([[1.0], [0.0], [0.0], [0.0]])), bad)


class TestSmallestEigenvalue2x2:
    def test_matches_eigvalsh(self, rng):
        n = 12_000
        a, b, c = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-3, 2, size=(3, n))
        k = n // 6
        b[:k] = 0.0  # diagonal
        c[k:2 * k] = a[k:2 * k]  # equal diagonal
        b[k:k + k // 2] = 0.0  # degenerate: a multiple of the identity
        a[2 * k:3 * k] = c[2 * k:3 * k] = b[2 * k:3 * k] = 0.0  # all zero
        c[3 * k:4 * k] = -a[3 * k:4 * k]  # traceless
        r, theta = a[4 * k:5 * k], rng.uniform(0, np.pi, k)  # singular: rank one
        a[4 * k:5 * k], b[4 * k:5 * k], c[4 * k:5 * k] = (
            r * np.cos(theta) ** 2, r * np.cos(theta) * np.sin(theta), r * np.sin(theta) ** 2
        )
        blocks = np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)
        ours = _smallest_eigenvalue_2x2(blocks)
        ref = np.linalg.eigvalsh(blocks)[..., 0]
        assert ours.shape == (n,)
        assert np.max(np.abs(ours - ref)) <= 1e-13
        assert np.all(ours[2 * k:3 * k] == 0.0)

    def test_stack_shape(self, rng):
        m = rng.normal(size=(3, 5, 2, 2))
        m = m + m.swapaxes(-1, -2)
        assert _smallest_eigenvalue_2x2(m).shape == (3, 5)


class TestTransverseBasis:
    @pytest.mark.parametrize("shape", [(3,), (1, 3), (500, 3), (4, 5, 3)])
    def test_second_column_is_np_cross_bit_for_bit(self, shape, rng):
        n0 = rng.normal(size=shape)
        n0 /= np.linalg.norm(n0, axis=-1, keepdims=True)
        basis = _transverse_basis(n0)
        assert basis.shape == shape + (2,)
        e1, e2 = basis[..., 0], basis[..., 1]
        assert e2.tobytes() == np.cross(n0, e1).tobytes()


class TestTransverseFrame:
    """xi and xi_e2 share one frame; each keeps its own floor and its bits."""

    @staticmethod
    def reference_xi(mean, cov, n):
        norm = np.linalg.norm(mean, axis=-1)
        defined = norm > MEAN_SPIN_FLOOR
        n0 = mean / np.where(defined, norm, 1.0)[..., None]
        basis = _transverse_basis(n0)
        lam_min = np.maximum(_smallest_eigenvalue_2x2(basis.swapaxes(-1, -2) @ cov @ basis), 0.0)
        return np.where(defined, np.sqrt(lam_min) / math.sqrt(n / 2 / 2), math.nan)

    @staticmethod
    def reference_xi_e2(mean, cov, n):
        m2 = np.sum(mean**2, axis=-1)
        defined = m2 > DENOMINATOR_FLOOR
        m_hat = mean / np.sqrt(np.where(defined, m2, 1.0))[..., None]
        basis = _transverse_basis(m_hat)
        c_perp = basis.swapaxes(-1, -2) @ cov @ basis
        c = np.einsum("...ia,...ij,...j->...a", basis, cov, m_hat)
        c_mm = np.einsum("...i,...ij,...j->...", m_hat, cov, m_hat)
        c_mm = np.where(c_mm > DENOMINATOR_FLOOR, c_mm, math.inf)
        schur = c_perp - c[..., :, None] * c[..., None, :] / c_mm[..., None, None]
        return n * _smallest_eigenvalue_2x2(schur) / np.where(defined, m2, math.nan)

    def test_both_match_their_reference_forms_bit_for_bit(self, rng):
        # mean lengths from 1e-10 to 1 straddle |<J>| = MEAN_SPIN_FLOOR and
        # |<J>|^2 = DENOMINATOR_FLOOR, and six lengths sit at or beside them
        n = 20000
        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
        length = 10.0 ** rng.uniform(-10.0, 0.0, n)
        length[:6] = [0.0, MEAN_SPIN_FLOOR, np.nextafter(MEAN_SPIN_FLOOR, 1.0),
                      math.sqrt(DENOMINATOR_FLOOR), np.nextafter(1e-6, 1.0), 1.0]
        mean = direction * length[:, None]
        mean[rng.random(n) < 0.05, rng.integers(0, 3)] = 0.0  # a zero component
        a = rng.normal(size=(n, 3, 3))
        cov = a @ a.swapaxes(-1, -2) * 10.0 ** rng.uniform(-14.0, 0.0, (n, 1, 1))
        for of, reference in ((kitagawa_ueda_xi_of, self.reference_xi),
                              (sorensen_xi_e2_of, self.reference_xi_e2)):
            got, want = of(mean, cov, 2), reference(mean, cov, 2)
            assert got.tobytes() == want.tobytes()
            assert 0 < np.isnan(got).sum() < n


class TestMomentForms:
    """Each witness on (mean, cov) is exactly its (rho, spin, n) wrapper."""

    @pytest.mark.parametrize("side", ["atoms", "photons"])
    def test_of_forms_match_wrappers(
        self, side, default_block, atom_space, atom_spin, photon_space, photon_spin
    ):
        times = np.linspace(0.0, 6.0, 13)
        amps = evolve_closed_form_grid(InitialState.SEPARABLE_ONE_CAVITY, default_block, times)
        row = coefficients(ManifoldState(amps, times))
        if side == "atoms":
            rho, spin = DensityMatrix(atom_space, analytic_rho_atoms(row)), atom_spin
        else:
            rho, spin = DensityMatrix(photon_space, analytic_rho_photons(row)), photon_spin
        moments = spin_moments(rho, spin)
        report, ref = ossi_of(*moments, 2), ossi(rho, spin, 2)
        assert np.array_equal(report.slack_a, ref.slack_a)
        assert np.array_equal(report.slack_b, ref.slack_b)
        for ax in ("x", "y", "z"):
            assert np.array_equal(report.slack_c[ax], ref.slack_c[ax])
            assert np.array_equal(report.slack_d[ax], ref.slack_d[ax])
        assert np.array_equal(
            kitagawa_ueda_xi_of(*moments, 2), kitagawa_ueda_xi(rho, spin, 2), equal_nan=True
        )
        assert np.array_equal(
            sorensen_xi_e2_of(*moments, 2), sorensen_xi_e2(rho, spin, 2), equal_nan=True
        )

    def test_of_forms_reject_single_particle(self, atom_space, atom_spin):
        with pytest.raises(ValueError):
            ossi_of(*spin_moments(css_state(atom_space), atom_spin), 1)


class TestOssi:
    def test_separable_states_never_violate(self, atom_space, atom_spin, rng):
        for _ in range(50):
            rho = DensityMatrix(atom_space, random_separable_two_qubit(rng))
            report = ossi(rho, atom_spin, 2)
            assert report.min_slack > -VIOLATION_TOL

    def test_singlet_violates_second_inequality_exactly(self, atom_space, atom_spin):
        report = ossi(singlet_state(atom_space), atom_spin, 2)
        assert report.slack_b == -1.0
        assert report.min_slack < -VIOLATION_TOL

    def test_css_saturates_first_inequality(self, atom_space, atom_spin):
        report = ossi(css_state(atom_space), atom_spin, 2)
        assert report.slack_a == pytest.approx(0.0, abs=1e-12)
        assert report.min_slack >= -VIOLATION_TOL

    def test_rejects_single_particle(self, atom_space, atom_spin):
        rho = css_state(atom_space)
        with pytest.raises(ValueError):
            ossi(rho, atom_spin, 1)

    @pytest.mark.parametrize("t", [0.0, 0.9, 2.4, 5.5])
    def test_entangled_branch_atom_identities(
        self, t, default_block, atom_space, atom_spin
    ):
        # derived from the coefficient structure of the branch state:
        # slack_d (m = x or y) = |A|^2 (1 - |A|^2) and slack_c (m = z) = -|B|^4
        coeffs = branch_state(default_block, InitialState.ENTANGLED_SYMMETRIC, t)
        rho = DensityMatrix(atom_space, analytic_rho_atoms(coeffs))
        report = ossi(rho, atom_spin, 2)
        pred_d = coeffs.abs_a2 * (1 - coeffs.abs_a2)
        assert report.slack_d["x"] == pytest.approx(pred_d, abs=1e-10)
        assert report.slack_d["y"] == pytest.approx(pred_d, abs=1e-10)
        assert report.slack_c["z"] == pytest.approx(-coeffs.abs_b2**2, abs=1e-10)

    @pytest.mark.parametrize("t", [0.0, 0.9, 2.4, 5.5])
    def test_entangled_branch_photon_identities(
        self, t, default_block, photon_space, photon_spin
    ):
        # the photonic pseudo-spin slacks track 2|A|^2 - 1 with opposite signs
        coeffs = branch_state(default_block, InitialState.ENTANGLED_SYMMETRIC, t)
        rho = DensityMatrix(photon_space, analytic_rho_photons(coeffs))
        report = ossi(rho, photon_spin, 2)
        pred = 2 * coeffs.abs_a2 - 1
        assert report.slack_b == pytest.approx(pred, abs=1e-10)
        assert report.slack_c["y"] == pytest.approx(-pred, abs=1e-10)


class TestBranchWitnesses:
    def test_entangled_t0(self, default_block):
        coeffs = branch_state(default_block, InitialState.ENTANGLED_SYMMETRIC, 0.0)
        bw = branch_witnesses(coeffs, InitialState.ENTANGLED_SYMMETRIC)
        assert bw.ineq_a == pytest.approx(-1.0, abs=1e-12)
        assert bw.ineq_p == pytest.approx(1.0, abs=1e-12)

    def test_separable_t0(self, default_block):
        coeffs = branch_state(default_block, InitialState.SEPARABLE_ONE_CAVITY, 0.0)
        bw = branch_witnesses(coeffs, InitialState.SEPARABLE_ONE_CAVITY)
        assert bw.ineq_a == pytest.approx(0.0, abs=1e-12)
        assert bw.ineq_p == pytest.approx(0.0, abs=1e-12)

    def test_branch_mismatch_raises(self, default_block):
        coeffs = branch_state(default_block, InitialState.SEPARABLE_ONE_CAVITY, 1.1)
        with pytest.raises(BranchMismatchError):
            branch_witnesses(coeffs, InitialState.ENTANGLED_SYMMETRIC)

    def test_entangled_atomic_witness_turns_on(self, default_block):
        # once |A|^2 drops below 4/5 the atomic witness turns positive, which
        # the paper reads as squeezing
        coeffs = branch_state(default_block, InitialState.ENTANGLED_SYMMETRIC, 1.0)
        assert coeffs.abs_a2 < 0.8
        bw = branch_witnesses(coeffs, InitialState.ENTANGLED_SYMMETRIC)
        assert bw.ineq_a > 0

    @staticmethod
    def identity_gaps(values, branch):
        """|closed form - the affine function of generic slacks it equals|, for
        ineq_a and ineq_p, from columns named as the sweep names them."""
        if branch is InitialState.ENTANGLED_SYMMETRIC:
            want = {"ineq_a": 5 * values["atoms_slack_c_x"] - 1,
                    "ineq_p": 1 - values["atoms_slack_c_x"]}
        else:
            want = {"ineq_a": 2 * values["atoms_slack_b"] - values["atoms_slack_c_x"],
                    "ineq_p": -values["photons_slack_c_y"]}
        return [np.abs(values[name] - w) for name, w in want.items()]

    @pytest.mark.parametrize("branch", list(InitialState))
    def test_closed_forms_are_affine_in_generic_slacks(self, branch, space, rng):
        """On random states of the branch's manifold (C = D = 0 on the
        entangled branch), from the manifold moments of each side's spin."""
        amps = rng.standard_normal((4, 2000)) + 1j * rng.standard_normal((4, 2000))
        if branch is InitialState.ENTANGLED_SYMMETRIC:
            amps[[1, 3]] = 0  # (phi1, phi2, phi3, phi4) hold (A, C, B, D)
        amps /= np.linalg.norm(amps, axis=0)
        bw = branch_witnesses(coefficients(ManifoldState(amps, np.zeros(2000))), branch)
        values = {"ineq_a": bw.ineq_a, "ineq_p": bw.ineq_p}
        for side, spin in (("atoms", collective_atomic_spin), ("photons", photonic_pseudospin)):
            matrix = moment_matrix(moment_operators(spin(space)), manifold_basis(space))
            rep = ossi_of(*manifold_spin_moments(amps, matrix), 2)
            values[f"{side}_slack_b"] = rep.slack_b
            values.update({f"{side}_slack_c_{ax}": v for ax, v in rep.slack_c.items()})
        for gap in self.identity_gaps(values, branch):
            assert gap.max() < 1e-13

    @pytest.mark.parametrize("branch", list(InitialState))
    @pytest.mark.parametrize("method", [Method.BOTH, Method.NUMERIC_ORACLE])
    def test_closed_forms_are_affine_in_generic_slacks_over_a_sweep(self, branch, method):
        """On a 21x41 grid, from each route: the closed form (the values of a
        --method both run, which also holds the routes within 1e-8) and the
        oracle's own vectors."""
        cfg = SweepConfig(branch=branch, zeta_grid=GridSpec(0.0, 2.0, 21),
                          time_grid=GridSpec(0.0, 20.0, 41),
                          observables=("ineq_a", "ineq_p", "ossi_full"), method=method)
        result = run_sweep(cfg)
        if method is Method.BOTH:
            assert result.values["method_disagreement"].max() <= 1e-8
        for gap in self.identity_gaps(result.values, branch):
            assert gap.max() < 1e-13


class TestXi:
    def test_css_is_unity(self, atom_space, atom_spin):
        assert kitagawa_ueda_xi(css_state(atom_space), atom_spin, 2) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_singlet_is_nan(self, atom_space, atom_spin):
        assert math.isnan(kitagawa_ueda_xi(singlet_state(atom_space), atom_spin, 2))

    @pytest.mark.parametrize("mu", [0.2, 0.4, 0.8])
    def test_oat_matches_brute_force_minimum(self, mu, atom_space, atom_spin):
        rho = oat_state(atom_space, atom_spin, mu)
        xi = kitagawa_ueda_xi(rho, atom_spin, 2)
        angles = np.linspace(0.0, np.pi, 721)
        min_var = min(transverse_variance(rho, atom_spin, a) for a in angles)
        assert xi == pytest.approx(math.sqrt(min_var / 0.5), abs=1e-5)
        assert xi < 1.0

    def test_transverse_variance_rejects_zero_mean(self, atom_space, atom_spin):
        with pytest.raises(ValueError):
            transverse_variance(singlet_state(atom_space), atom_spin, 0.0)


class TestXiE2:
    def test_css_is_unity(self, atom_space, atom_spin):
        assert sorensen_xi_e2(css_state(atom_space), atom_spin, 2) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_singlet_is_nan(self, atom_space, atom_spin):
        assert math.isnan(sorensen_xi_e2(singlet_state(atom_space), atom_spin, 2))

    @pytest.mark.parametrize("mu,expected", [(0.2, 0.834258), (0.4, 0.719726)])
    def test_oat_squeezed_below_unity(self, mu, expected, atom_space, atom_spin):
        rho = oat_state(atom_space, atom_spin, mu)
        val = sorensen_xi_e2(rho, atom_spin, 2)
        assert val < 1.0
        assert val == pytest.approx(expected, abs=1e-4)

    def test_exact_minimum_never_above_direction_search(self, atom_space, atom_spin, rng):
        # brute-force minimum of N Var(J_n) / (|<J>|^2 - <J_n>^2) over a
        # dense grid of directions n; the exact value may only lie below it
        theta, phi = np.meshgrid(
            np.linspace(0.0, np.pi, 181), np.linspace(0.0, 2 * np.pi, 361)
        )
        dirs = np.stack(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
            axis=-1,
        ).reshape(-1, 3)
        for _ in range(20):
            v = rng.normal(size=(4, 2)) @ np.array([1.0, 1j])
            rho = DensityMatrix(
                atom_space, 0.7 * np.outer(v, v.conj()) / np.vdot(v, v).real
                + 0.3 * random_separable_two_qubit(rng)
            )
            mean, cov = spin_moments(rho, atom_spin)
            denom = mean @ mean - (dirs @ mean) ** 2
            keep = denom > 1e-6
            ratios = 2 * np.einsum("ni,ij,nj->n", dirs, cov, dirs)[keep] / denom[keep]
            exact = sorensen_xi_e2(rho, atom_spin, 2)
            assert exact <= ratios.min() + 1e-12
            assert exact == pytest.approx(ratios.min(), rel=1e-3)

    def test_exact_at_t0_on_both_routes(self, space):
        # at t = 0 the atoms are in |gg>: the ratio is 1 in every frame and the
        # covariance along the mean spin vanishes up to round-off
        params = ModelParams(mu=-0.10481414916324346, eta=0.017691690118380732, zeta=0.5)
        branch = InitialState.SEPARABLE_ONE_CAVITY
        h = build_hamiltonian(params, space)
        coeffs = coefficients(evolve_closed_form(branch, extract_manifold_block(h), 0.0))
        atom_space = CompositeSpace((atom(), atom()))
        spin = collective_atomic_spin(atom_space)
        rho_cf = DensityMatrix(atom_space, analytic_rho_atoms(coeffs))
        _, rho_or, _ = density_matrices(evolve_numeric_oracle(branch, h, 0.0), space)
        for rho in (rho_cf, rho_or):
            assert sorensen_xi_e2(rho, spin, 2) == pytest.approx(1.0, abs=1e-10)


class TestStackedStates:
    def test_row_matches_single_states(
        self, default_block, atom_space, photon_space, atom_spin, photon_spin
    ):
        times = np.linspace(0.0, 6.0, 13)
        amps = evolve_closed_form_grid(InitialState.SEPARABLE_ONE_CAVITY, default_block, times)
        row = coefficients(ManifoldState(amps, times))
        stacks = (
            (DensityMatrix(atom_space, analytic_rho_atoms(row)), atom_space, atom_spin),
            (DensityMatrix(photon_space, analytic_rho_photons(row)), photon_space, photon_spin),
        )
        for stack, sp, spin in stacks:
            report = ossi(stack, spin, 2)
            xi = kitagawa_ueda_xi(stack, spin, 2)
            xi_e2 = sorensen_xi_e2(stack, spin, 2)
            for k in range(times.size):
                single = DensityMatrix(sp, stack.matrix[k])
                one = ossi(single, spin, 2)
                assert report.slack_a[k] == pytest.approx(one.slack_a, abs=1e-14)
                assert report.slack_b[k] == pytest.approx(one.slack_b, abs=1e-14)
                for ax in ("x", "y", "z"):
                    assert report.slack_c[ax][k] == pytest.approx(one.slack_c[ax], abs=1e-14)
                    assert report.slack_d[ax][k] == pytest.approx(one.slack_d[ax], abs=1e-14)
                assert report.min_slack[k] == pytest.approx(one.min_slack, abs=1e-14)
                assert xi[k] == pytest.approx(
                    kitagawa_ueda_xi(single, spin, 2), abs=1e-14, nan_ok=True
                )
                assert xi_e2[k] == pytest.approx(
                    sorensen_xi_e2(single, spin, 2), abs=1e-12, nan_ok=True
                )

    def test_nan_where_mean_spin_vanishes(self, atom_space, atom_spin):
        stack = np.stack([css_state(atom_space).matrix, singlet_state(atom_space).matrix])
        rho = DensityMatrix(atom_space, stack)
        xi = kitagawa_ueda_xi(rho, atom_spin, 2)
        xi_e2 = sorensen_xi_e2(rho, atom_spin, 2)
        assert xi[0] == pytest.approx(1.0, abs=1e-10) and math.isnan(xi[1])
        assert xi_e2[0] == pytest.approx(1.0, abs=1e-10) and math.isnan(xi_e2[1])


class TestQuadratures:
    def test_entangled_t0_closed_form(self, default_block):
        coeffs = branch_state(default_block, InitialState.ENTANGLED_SYMMETRIC, 0.0)
        assert closed_form_quadrature_variance(
            coeffs, InitialState.ENTANGLED_SYMMETRIC
        ) == pytest.approx(0.75, abs=1e-12)

    def test_separable_t0_closed_form(self, default_block):
        coeffs = branch_state(default_block, InitialState.SEPARABLE_ONE_CAVITY, 0.0)
        assert closed_form_quadrature_variance(
            coeffs, InitialState.SEPARABLE_ONE_CAVITY
        ) == pytest.approx(0.6875, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.8, 2.1])
    def test_entangled_generic_matches_closed_form(self, t, default_block):
        # generic route needs one extra Fock level of headroom for a^2 terms
        from squeezetransfer.hilbert import CompositeSpace, photon_mode

        sp = CompositeSpace((photon_mode(3), photon_mode(3)))
        pair = quadratures(sp, 0)
        coeffs = branch_state(default_block, InitialState.ENTANGLED_SYMMETRIC, t)
        rho = DensityMatrix(sp, analytic_rho_photons(coeffs, n_max=3))
        v1, v2 = quadrature_variances(rho, pair)
        cf = closed_form_quadrature_variance(coeffs, InitialState.ENTANGLED_SYMMETRIC)
        assert v1 == pytest.approx(cf, abs=1e-10)
        assert v2 == pytest.approx(cf, abs=1e-10)
