"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Criterion 4 compares the per-branch closed-form witnesses against the generic
collective-spin inequality slacks up to a single positive constant per
formula.  The two quantities are genuinely not proportional for this model
(the closed forms mix moments of several inequalities), so the criterion is
implemented faithfully and reports the discrepancy with both values rather
than being weakened to pass.
"""

import hashlib
import time

import numpy as np
import pytest

from squeezetransfer.dynamics import (
    InitialState,
    SpectralPropagator,
    analytic_rho_atoms,
    analytic_rho_photons,
    coefficients,
    evolve_closed_form,
    evolve_closed_form_grid,
    initial_vector,
)
from squeezetransfer.hamiltonian import ModelParams, build_hamiltonian, extract_manifold_block
from squeezetransfer.hilbert import CompositeSpace, DensityMatrix, photon_mode, standard_space
from squeezetransfer.operators import (
    commutator,
    ladder,
    photonic_pseudospin,
    total_photon_projector,
)
from squeezetransfer.sweep import GridSpec, Method, SweepConfig, emit, run_sweep
from squeezetransfer.witness import branch_witnesses, closed_form_quadrature_variance, ossi

from conftest import random_separable_two_qubit

BRANCHES = (InitialState.ENTANGLED_SYMMETRIC, InitialState.SEPARABLE_ONE_CAVITY)
ZETAS = np.linspace(0.0, 2.0, 201)
TIMES = np.linspace(0.0, 20.0, 401)


def _report(num, title, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    line = f"[criterion {num}] {tag}: {title}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    return passed


@pytest.fixture(scope="module")
def grid_audit(space):
    """Shared full-grid dual-path audit used by criteria 3 and 7.

    For every (zeta, t) cell and both branches: fidelity between the
    closed-form and full-space propagated states, norm deviation of both,
    and leakage of the propagated state out of the four-state manifold.
    """
    start = time.perf_counter()
    psi0 = {b: initial_vector(b, space) for b in BRANCHES}
    min_fid = {b: 1.0 for b in BRANCHES}
    max_norm_dev = 0.0
    max_leak = 0.0
    for zeta in ZETAS:
        h = build_hamiltonian(ModelParams(zeta=zeta), space)
        block = extract_manifold_block(h)
        prop = SpectralPropagator(h)
        for branch in BRANCHES:
            full = prop.evolve_grid(psi0[branch], TIMES)
            closed = block.basis @ evolve_closed_form_grid(branch, block, TIMES)
            fid = np.abs(np.sum(full.conj() * closed, axis=0)) ** 2
            min_fid[branch] = min(min_fid[branch], float(fid.min()))
            norms = np.concatenate(
                [np.sum(np.abs(full) ** 2, axis=0), np.sum(np.abs(closed) ** 2, axis=0)]
            )
            max_norm_dev = max(max_norm_dev, float(np.max(np.abs(norms - 1.0))))
            amps = block.basis.conj().T @ full
            leak = 1.0 - np.sum(np.abs(amps) ** 2, axis=0)
            max_leak = max(max_leak, float(np.max(np.abs(leak))))
    elapsed = time.perf_counter() - start
    return {
        "min_fid": min_fid,
        "max_norm_dev": max_norm_dev,
        "max_leak": max_leak,
        "elapsed": elapsed,
    }


def test_criterion_1_two_axis_twisting_identity():
    start = time.perf_counter()
    worst = 0.0
    for n_max in (2, 4, 6):
        sp = CompositeSpace((photon_mode(n_max), photon_mode(n_max)))
        spin = photonic_pseudospin(sp)
        a1, a1d = (op.matrix for op in ladder(sp, 0))
        a2, a2d = (op.matrix for op in ladder(sp, 1))
        hop = a1d @ a1d @ a2 @ a2 + a2d @ a2d @ a1 @ a1
        twist = 2 * (spin.x.matrix @ spin.x.matrix - spin.y.matrix @ spin.y.matrix)
        proj = total_photon_projector(sp, n_max - 2)
        worst = max(worst, float(np.max(np.abs((hop - twist) @ proj))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    assert _report(
        1,
        "two-axis-twisting identity on the non-clipped subspace",
        ok,
        f"max deviation {worst:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_2_reference_values(default_block):
    ent = coefficients(
        evolve_closed_form(InitialState.ENTANGLED_SYMMETRIC, default_block, 0.0)
    )
    sep = coefficients(
        evolve_closed_form(InitialState.SEPARABLE_ONE_CAVITY, default_block, 0.0)
    )
    bw_ent = branch_witnesses(ent, InitialState.ENTANGLED_SYMMETRIC)
    bw_sep = branch_witnesses(sep, InitialState.SEPARABLE_ONE_CAVITY)
    checks = {
        "entangled ineq_a": (bw_ent.ineq_a, -1.0),
        "entangled ineq_p": (bw_ent.ineq_p, 1.0),
        "separable ineq_a": (bw_sep.ineq_a, 0.0),
        "separable ineq_p": (bw_sep.ineq_p, 0.0),
        "entangled var": (
            closed_form_quadrature_variance(ent, InitialState.ENTANGLED_SYMMETRIC),
            0.75,
        ),
        "separable var": (
            closed_form_quadrature_variance(sep, InitialState.SEPARABLE_ONE_CAVITY),
            0.6875,
        ),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    ok = worst < 1e-12
    assert _report(2, "reference witness and variance values at t = 0", ok, f"max deviation {worst:.2e}")


def test_criterion_3_dual_path_dynamics(grid_audit):
    min_fid = min(grid_audit["min_fid"].values())
    elapsed = grid_audit["elapsed"]
    ok = min_fid >= 1.0 - 1e-9 and elapsed < 300.0
    assert _report(
        3,
        "closed form vs numeric oracle over the full 201x401 grid",
        ok,
        f"min fidelity {min_fid:.12f}, runtime {elapsed:.1f}s",
    )


def test_criterion_4_witness_reconciliation(space, atom_space, photon_space, atom_spin, photon_spin):
    # For each closed-form witness, the generic slack divided by the closed
    # form must be a single positive constant over the grid (within 1e-9).
    sub_times = np.linspace(0.0, 20.0, 41)
    failures = []
    spread_worst = 0.0
    for zeta in (0.25, 0.5, 1.0):
        block = extract_manifold_block(build_hamiltonian(ModelParams(zeta=zeta), space))
        for branch in BRANCHES:
            ratios = {"atoms": [], "photons": []}
            samples = {}
            for t in sub_times:
                coeffs = coefficients(evolve_closed_form(branch, block, t))
                bw = branch_witnesses(coeffs, branch)
                rho_a = DensityMatrix(atom_space, analytic_rho_atoms(coeffs))
                rho_p = DensityMatrix(photon_space, analytic_rho_photons(coeffs))
                generic_a = ossi(rho_a, atom_spin, 2).slack_d["y"]
                generic_p = ossi(rho_p, photon_spin, 2).slack_d["y"]
                for side, closed, generic in (
                    ("atoms", bw.ineq_a, generic_a),
                    ("photons", bw.ineq_p, generic_p),
                ):
                    if abs(closed) > 1e-6:
                        ratios[side].append(generic / closed)
                        samples.setdefault(side, (t, closed, generic))
            for side in ("atoms", "photons"):
                vals = np.array(ratios[side])
                if vals.size == 0:
                    continue
                spread = float(vals.max() - vals.min())
                spread_worst = max(spread_worst, spread)
                if spread > 1e-9 or np.any(vals <= 0):
                    t0, closed, generic = samples[side]
                    failures.append(
                        f"zeta={zeta} {branch.value} {side}: ratio spread {spread:.3e}, "
                        f"e.g. t={t0:.2f} closed={closed:.6f} generic={generic:.6f}"
                    )
    ok = not failures
    detail = (
        f"ratio spread <= {spread_worst:.2e}"
        if ok
        else "; ".join(failures[:3]) + f"; {len(failures)} formula/grid combinations fail"
    )
    assert _report(4, "closed-form witnesses vs generic inequality slacks", ok, detail)


def test_criterion_5_periodic_transfer_structure(space):
    def period_profile(zeta):
        block = extract_manifold_block(build_hamiltonian(ModelParams(zeta=zeta), space))
        period = 2 * np.pi / block.delta_12
        ts = np.linspace(0.0, period, 2001)
        amps = evolve_closed_form_grid(InitialState.ENTANGLED_SYMMETRIC, block, ts)
        abs_a2 = np.abs(amps[0]) ** 2
        ineq_a = 4 - 5 * abs_a2
        ineq_p = abs_a2
        return ts, period, ineq_a, ineq_p

    ts, period, ineq_a, ineq_p = period_profile(0.5)
    tol = 1e-10
    starts_off = ineq_a[0] < tol
    turns_on = np.any(ineq_a > tol)
    ends_off = ineq_a[-1] < tol
    t_atom = ts[np.argmax(ineq_a)]
    t_phot = ts[np.argmax(ineq_p)]
    sep = abs(t_atom - t_phot)
    sep = min(sep, period - sep)  # photonic maxima at both period endpoints
    anti_phase = abs(sep - period / 2) < 0.1 * (period / 4)
    max_half = float(ineq_a.max())

    _, _, ineq_a_2, _ = period_profile(2.0)
    hopping_suppressed = float(ineq_a_2.max()) < max_half

    ok = starts_off and turns_on and ends_off and anti_phase and hopping_suppressed
    assert _report(
        5,
        "periodic transfer at zeta=0.5, suppressed at zeta=2",
        ok,
        f"atomic max {max_half:.3f} vs {float(ineq_a_2.max()):.3f}, "
        f"max separation {sep:.3f} vs half period {period / 2:.3f}",
    )


def test_criterion_6_witness_soundness(atom_space, atom_spin, rng):
    worst = np.inf
    for _ in range(200):
        rho = DensityMatrix(atom_space, random_separable_two_qubit(rng))
        worst = min(worst, ossi(rho, atom_spin, 2).min_slack)
    singlet = np.zeros((4, 4), dtype=complex)
    singlet[1, 1] = singlet[2, 2] = 0.5
    singlet[1, 2] = singlet[2, 1] = -0.5
    slack_b = ossi(DensityMatrix(atom_space, singlet), atom_spin, 2).slack_b
    ok = worst > -1e-10 and slack_b == -1.0
    assert _report(
        6,
        "no false positives on 200 separable states; singlet slack exactly -1",
        ok,
        f"worst separable slack {worst:.2e}, singlet slack_b {slack_b}",
    )


def test_criterion_7_algebraic_invariants(grid_audit, atom_spin, photon_space, photon_spin):
    x, y, z = (s.matrix for s in atom_spin.components)
    s_dev = max(
        float(np.max(np.abs(commutator(atom_spin.x, atom_spin.y) - 1j * z))),
        float(np.max(np.abs(commutator(atom_spin.y, atom_spin.z) - 1j * x))),
        float(np.max(np.abs(commutator(atom_spin.z, atom_spin.x) - 1j * y))),
    )
    proj = total_photon_projector(photon_space, 1)
    lx, ly, lz = (s.matrix for s in photon_spin.components)
    l_dev = max(
        float(np.max(np.abs((commutator(photon_spin.x, photon_spin.y) - 1j * lz) @ proj))),
        float(np.max(np.abs((commutator(photon_spin.y, photon_spin.z) - 1j * lx) @ proj))),
        float(np.max(np.abs((commutator(photon_spin.z, photon_spin.x) - 1j * ly) @ proj))),
    )
    ok = (
        s_dev < 1e-12
        and l_dev < 1e-12
        and grid_audit["max_leak"] < 1e-10
        and grid_audit["max_norm_dev"] < 1e-10
    )
    assert _report(
        7,
        "SU(2) algebra, manifold leakage, norm conservation",
        ok,
        f"S dev {s_dev:.2e}, L dev {l_dev:.2e}, "
        f"leakage {grid_audit['max_leak']:.2e}, norm dev {grid_audit['max_norm_dev']:.2e}",
    )


def test_criterion_8_deterministic_output(tmp_path):
    cfg = SweepConfig(
        zeta_grid=GridSpec(0.0, 1.0, 5),
        time_grid=GridSpec(0.0, 5.0, 11),
        method=Method.BOTH,
    )
    digests = []
    for name in ("run1.csv", "run2.csv"):
        path = tmp_path / name
        emit(run_sweep(cfg), cfg.columns, "csv", str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    ok = digests[0] == digests[1]
    assert _report(8, "byte-identical CSV across repeated runs", ok, f"sha256 {digests[0][:12]}")
