import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import squeezetransfer
from squeezetransfer.dynamics import InitialState, coefficients, evolve_closed_form
from squeezetransfer.hamiltonian import ModelParams
from squeezetransfer.hilbert import HermitianOperator, NumericalConsistencyError
from squeezetransfer.sweep import (
    DEFAULT_OBSERVABLES,
    OBSERVABLES,
    GridSpec,
    Method,
    SweepConfig,
    SweepError,
    SweepResult,
    TimeGrid,
    config_from_args,
    emit,
    main,
    run_sweep,
    _build_parser,
    _max_disagreement,
)


def _forbid_checked_and_analytic_states(monkeypatch) -> list:
    """Record every DensityMatrix built, analytic reduced state and generic
    spin_moments call, wherever the sweep would reach them."""
    from squeezetransfer import dynamics, hilbert, witness

    calls = []
    monkeypatch.setattr(hilbert.DensityMatrix, "__init__",
                        lambda self, *args: calls.append("DensityMatrix"))
    for module, name in ((dynamics, "analytic_rho_atoms"), (dynamics, "analytic_rho_photons"),
                         (witness, "spin_moments")):
        monkeypatch.setattr(module, name, lambda *a, _name=name: calls.append(_name))
    return calls


def test_forbidding_helper_records_each_density_matrix(monkeypatch):
    """_forbid_checked_and_analytic_states records one call per DensityMatrix
    built, however it is built, so the tests that expect none cannot pass
    vacuously."""
    from squeezetransfer import hilbert

    calls = _forbid_checked_and_analytic_states(monkeypatch)
    space = hilbert.CompositeSpace((hilbert.atom(),))
    hilbert.DensityMatrix(space, np.eye(2) / 2)
    assert calls == ["DensityMatrix"]
    hilbert.DensityMatrix.from_state_vector(space, np.array([1.0, 0.0]))
    assert calls == ["DensityMatrix"] * 2


def one_row_per_block(monkeypatch, cfg):
    """Set the sweep's block budget to the bytes of one of cfg's zeta rows,
    under the accounting of _block_shape: one row over the whole t axis per
    block."""
    import squeezetransfer.sweep as sweep

    routes = 1 + (cfg.method is Method.BOTH)
    cell = (sweep._AAD_CELL_BYTES if sweep._moment_sides(cfg.observables)
            else routes * sweep._AAD_CELL_BYTES // 4)
    nt = cfg.time_grid.steps
    monkeypatch.setattr(sweep, "_SWEEP_BLOCK_BYTES", nt * cell)
    assert sweep._block_shape(cfg) == (1, [slice(0, nt)])


def small_config(**kwargs):
    defaults = dict(
        zeta_grid=GridSpec(0.0, 1.0, 3),
        time_grid=GridSpec(0.0, 4.0, 5),
    )
    defaults.update(kwargs)
    return SweepConfig(**defaults)


class TestGridSpec:
    def test_values_linspace(self):
        assert np.allclose(GridSpec(0.0, 2.0, 5).values(), [0, 0.5, 1, 1.5, 2])

    def test_single_step(self):
        assert GridSpec(0.7, 0.7, 1).values() == pytest.approx([0.7])

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 3)

    @pytest.mark.parametrize("bounds", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_rejects_non_finite(self, bounds):
        with pytest.raises(ValueError):
            GridSpec(*bounds, 3)

    @pytest.mark.parametrize("start, stop, steps", [(0.0, 2.0, 1), (0.0, 0.0, 3), (1.5, 1.5, 2)])
    def test_rejects_degenerate(self, start, stop, steps):
        # one step would drop stop; several steps over one value repeat it
        with pytest.raises(ValueError, match="--zeta"):
            GridSpec(start, stop, steps)

    @pytest.mark.parametrize("start, stop, steps", [(0.0, 2.0, 1), (0.0, 0.0, 3)])
    def test_time_grid_errors_name_the_time_axis(self, start, stop, steps):
        with pytest.raises(ValueError, match="time step") as info:
            TimeGrid(start, stop, steps)
        assert "--zeta" not in str(info.value)
        assert TimeGrid(0.0, 2.0, 3).values().tolist() == [0.0, 1.0, 2.0]


# The ossi_full columns, written out rather than taken from the sweep's table.
OSSI_COLUMNS = (
    "atoms_slack_a", "atoms_slack_b", "atoms_slack_c_x", "atoms_slack_c_y", "atoms_slack_c_z",
    "atoms_slack_d_x", "atoms_slack_d_y", "atoms_slack_d_z",
    "photons_slack_a", "photons_slack_b", "photons_slack_c_x", "photons_slack_c_y",
    "photons_slack_c_z", "photons_slack_d_x", "photons_slack_d_y", "photons_slack_d_z",
)


class TestSweepConfig:
    def test_columns_expand_ossi(self):
        cfg = small_config(observables=("ineq_a", "ossi_full"))
        assert cfg.columns == ("ineq_a", *OSSI_COLUMNS)

    def test_rejects_unknown_observable(self):
        with pytest.raises(ValueError):
            small_config(observables=("nope",))

    def test_rejects_negative_zeta(self):
        with pytest.raises(ValueError):
            small_config(zeta_grid=GridSpec(-0.5, 1.0, 3))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="time"):
            small_config(time_grid=GridSpec(-5.0, 5.0, 3))

    def test_rejects_params_zeta(self):
        # the sweep sets zeta per row, so a params.zeta would be dropped
        with pytest.raises(ValueError, match="zeta_grid"):
            small_config(params=ModelParams(zeta=1.5))


class TestObservableTable:
    def test_observables_and_help_name_the_table_in_order(self):
        names = ("ineq_a", "ineq_p", "ossi_full", "xi", "xi_e2", "var_x1", "var_x2")
        assert OBSERVABLES == names
        action = next(a for a in _build_parser()._actions if a.dest == "observables")
        assert action.help == "comma-separated subset of " + ",".join(names)

    # The argv of each benchmark workload, less its --steps and --params-file
    # (the header depends on neither), and the default argv.
    @pytest.mark.parametrize("argv, steps, header", [
        pytest.param([], ["2", "3"], "zeta,t,ineq_a,ineq_p,var_x1,var_x2", id="default"),
        pytest.param(
            ["--branch", "entangled", "--zeta-range", "0.0", "2.0", "--time-range", "0.0", "20.0",
             "--observables", "ineq_a,ineq_p,var_x1,var_x2", "--method", "closed_form",
             "--format", "csv"],
            ["2", "3"], "zeta,t,ineq_a,ineq_p,var_x1,var_x2", id="grid_closed_form"),
        pytest.param(
            ["--branch", "separable", "--zeta-range", "0.0", "2.0", "--time-range", "0.0", "20.0",
             "--observables", "ineq_a,ineq_p,ossi_full,xi,var_x1,var_x2", "--method", "both",
             "--format", "csv"],
            ["2", "3"],
            "zeta,t,ineq_a,ineq_p,atoms_slack_a,atoms_slack_b,atoms_slack_c_x,atoms_slack_c_y,"
            "atoms_slack_c_z,atoms_slack_d_x,atoms_slack_d_y,atoms_slack_d_z,photons_slack_a,"
            "photons_slack_b,photons_slack_c_x,photons_slack_c_y,photons_slack_c_z,"
            "photons_slack_d_x,photons_slack_d_y,photons_slack_d_z,xi,var_x1,var_x2,"
            "method_disagreement",
            id="oracle_states"),
        pytest.param(
            ["--branch", "separable", "--zeta", "0.5", "--time-range", "0.0", "20.0",
             "--observables", "xi_e2,xi", "--method", "closed_form", "--format", "json"],
            ["1", "3"], "zeta,t,xi_e2,xi", id="sorensen_slice"),
    ])
    def test_literal_headers(self, argv, steps, header, tmp_path):
        path = tmp_path / "out"
        assert main([*argv, "--steps", *steps, "--output", str(path)]) == 0
        text = path.read_text()
        if "json" in argv:
            assert ",".join(json.loads(text)[0]) == header
        else:
            assert text.splitlines()[0] == header

    @pytest.mark.parametrize("method", [Method.CLOSED_FORM, Method.BOTH])
    def test_shared_functions_run_once_per_block(self, method, monkeypatch):
        """ineq_a and ineq_p share one branch_witnesses call per block, and
        var_x1 and var_x2 one closed_form_quadrature_variance array."""
        import squeezetransfer.sweep as sweep

        calls = []
        for name in ("branch_witnesses", "closed_form_quadrature_variance"):
            monkeypatch.setattr(sweep, name, lambda *a, _name=name, _real=getattr(sweep, name):
                                calls.append(_name) or _real(*a))
        cfg = small_config(method=method, observables=("ineq_a", "var_x1", "ineq_p", "var_x2"))
        one_row_per_block(monkeypatch, cfg)
        blocks = list(sweep.sweep_blocks(cfg))
        assert len(blocks) == cfg.zeta_grid.steps
        assert calls == ["branch_witnesses", "closed_form_quadrature_variance"] * len(blocks)
        for block in blocks:
            assert list(block.values) == list(cfg.columns)
            assert block.values["var_x1"] is block.values["var_x2"]

    def test_a_test_local_observable_flows_through_the_sweep_and_both_writers(
        self, monkeypatch, tmp_path
    ):
        import squeezetransfer.sweep as sweep

        def photon_means(coeffs, moments, branch):
            mean = moments["photons"][0]
            return {"photons_mean_z": mean[..., 2], "photons_mean_x": mean[..., 0]}

        monkeypatch.setitem(sweep._TABLE, "probe",
                            (("photons_mean_x", "photons_mean_z"), ("photons",), photon_means))
        argv = ["--branch", "separable", "--method", "both", "--steps", "3", "5",
                "--observables", "xi,probe"]
        cfg = config_from_args(_build_parser().parse_args(argv))
        assert cfg.columns == ("xi", "photons_mean_x", "photons_mean_z", "method_disagreement")
        assert sweep._moment_sides(("probe",)) == ("photons",)
        result = run_sweep(cfg)
        assert list(result.values) == list(cfg.columns)
        # both photons start in cavity 1: <J_z> = (n_1 - n_2) / 2 = 1
        np.testing.assert_allclose(result.values["photons_mean_z"][:, 0], 1.0, atol=1e-12)
        # both routes read the photons' spin moments, and agree on them
        assert result.values["method_disagreement"].max() < 1e-8
        for fmt in ("csv", "json"):
            path = tmp_path / f"out.{fmt}"
            emit(result, cfg.columns, fmt, str(path))
            assert path.read_bytes() == reference_text(result, cfg.columns, fmt).encode()
            streamed = tmp_path / f"cli.{fmt}"
            assert main([*argv, "--format", fmt, "--output", str(streamed)]) == 0
            assert streamed.read_bytes() == path.read_bytes()

    def test_spin_functions_match_the_generic_witnesses_on_random_states(self):
        """The ossi_full, xi and xi_e2 functions, on the manifold moments of
        random amplitudes (the closed form's contraction of a a^dag), give
        ossi, kitagawa_ueda_xi and sorensen_xi_e2 of the density matrices of
        the same full-space states, NaN in the same cells.  The four basis
        states are among them: phi3 and phi4 leave the atoms no mean spin."""
        import squeezetransfer.sweep as sweep
        from squeezetransfer.dynamics import ManifoldState, density_matrices, reduced_spaces
        from squeezetransfer.hamiltonian import manifold_basis
        from squeezetransfer.hilbert import standard_space
        from squeezetransfer.witness import (
            density_spin_moments, kitagawa_ueda_xi, moment_matrix, moment_operators, ossi,
            sorensen_xi_e2,
        )

        rng = np.random.default_rng(16)
        amps = rng.standard_normal((4, 40)) + 1j * rng.standard_normal((4, 40))
        amps = np.concatenate([np.eye(4), amps / np.linalg.norm(amps, axis=0)], axis=1)
        space = standard_space()
        basis = manifold_basis(space)
        a = amps.T
        aad = a[:, :, None] * a.conj()[:, None, :]
        moments = {s: density_spin_moments(aad, moment_matrix(moment_operators(spin(space)), basis))
                   for s, spin in sweep._SPINS.items()}
        coeffs = coefficients(ManifoldState(amps, np.zeros(amps.shape[1])))
        spins = {s: spin(sub) for (s, spin), sub in zip(sweep._SPINS.items(),
                                                        reduced_spaces(space).values())}
        want = {c: [] for obs in ("ossi_full", "xi", "xi_e2") for c in sweep._TABLE[obs][0]}
        for k in range(amps.shape[1]):
            _, *rhos = density_matrices(basis @ amps[:, k], space)
            rho = dict(zip(sweep._SPINS, rhos))
            slacks = [v for s in sweep._SPINS for v in ossi(rho[s], spins[s], 2).slacks]
            for c, v in zip(OSSI_COLUMNS, slacks):
                want[c].append(v)
            want["xi"].append(kitagawa_ueda_xi(rho["atoms"], spins["atoms"], 2))
            want["xi_e2"].append(sorensen_xi_e2(rho["atoms"], spins["atoms"], 2))
        got = {}
        for obs in ("ossi_full", "xi", "xi_e2"):
            got.update(sweep._TABLE[obs][2](coeffs, moments, InitialState.SEPARABLE_ONE_CAVITY))
        assert list(got) == list(want)
        assert np.isnan(want["xi"]).sum() == 2
        for c, values in want.items():
            np.testing.assert_allclose(got[c], values, rtol=0, atol=1e-12, err_msg=c)


class TestSweepResult:
    @pytest.mark.parametrize(
        "zeta, t, values",
        [
            pytest.param(np.zeros((3, 1)), np.zeros(5), {"a": np.zeros((3, 5))}, id="2d_axis"),
            pytest.param(np.zeros(3), np.float64(0.0), {"a": np.zeros((3, 1))}, id="0d_axis"),
            pytest.param(np.zeros(3), np.zeros(5), {"a": np.zeros((5, 3))},
                         id="transposed_grid"),
            pytest.param(np.zeros(3), np.zeros(5), {"a": np.zeros(15)}, id="flat_column"),
        ],
    )
    def test_rejects_wrong_shape(self, zeta, t, values):
        with pytest.raises(ValueError, match="1-D|shape"):
            SweepResult(zeta, t, values)


class TestRunSweep:
    def test_cell_count_and_order(self):
        result = run_sweep(small_config())
        assert len(result) == 15
        assert result.zeta.tolist() == [0.0, 0.5, 1.0]
        assert result.t.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_grid_layout_matches_one_cell_sweeps(self):
        cfg = small_config(method=Method.BOTH, observables=OBSERVABLES)
        result = run_sweep(cfg)
        np.testing.assert_array_equal(result.zeta, cfg.zeta_grid.values())
        np.testing.assert_array_equal(result.t, cfg.time_grid.values())
        assert list(result.values) == list(cfg.columns)
        for grid in result.values.values():
            assert grid.shape == (3, 5)
        for (i, zeta), (j, t) in itertools.product(enumerate(result.zeta), enumerate(result.t)):
            cell = run_sweep(small_config(
                method=Method.BOTH, observables=OBSERVABLES,
                zeta_grid=GridSpec(zeta, zeta, 1), time_grid=GridSpec(t, t, 1),
            ))
            # the row and the single cell may differ in the last ulp (xi_e2 is
            # about 80 here), so the 1e-14 bound is relative as well as absolute;
            # the last column, method_disagreement, is a difference of such
            # values: its own last ulps are not compared
            for name in cfg.columns[:-1]:
                grid = result.values[name]
                np.testing.assert_allclose(cell.values[name], grid[i:i + 1, j:j + 1],
                                           rtol=1e-14, atol=1e-14, err_msg=name)

    def test_entangled_reference_values_at_t0(self):
        values = run_sweep(
            small_config(
                zeta_grid=GridSpec(0.5, 0.5, 1), time_grid=GridSpec(0.0, 0.0, 1)
            )
        ).values
        assert values["ineq_a"][0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert values["ineq_p"][0, 0] == pytest.approx(1.0, abs=1e-12)
        assert values["var_x1"][0, 0] == pytest.approx(0.75, abs=1e-12)
        assert values["var_x2"][0, 0] == pytest.approx(0.75, abs=1e-12)

    def test_separable_reference_values_at_t0(self):
        values = run_sweep(
            small_config(
                branch=InitialState.SEPARABLE_ONE_CAVITY,
                zeta_grid=GridSpec(0.5, 0.5, 1),
                time_grid=GridSpec(0.0, 0.0, 1),
            )
        ).values
        assert values["ineq_a"][0, 0] == pytest.approx(0.0, abs=1e-12)
        assert values["ineq_p"][0, 0] == pytest.approx(0.0, abs=1e-12)
        assert values["var_x1"][0, 0] == pytest.approx(0.6875, abs=1e-12)

    def test_matches_direct_evaluation(self, default_block):
        result = run_sweep(
            small_config(
                zeta_grid=GridSpec(0.5, 0.5, 1), time_grid=GridSpec(1.3, 1.3, 1)
            )
        )
        coeffs = coefficients(
            evolve_closed_form(InitialState.ENTANGLED_SYMMETRIC, default_block, 1.3)
        )
        assert result.values["ineq_a"][0, 0] == pytest.approx(
            4 - 5 * coeffs.abs_a2, abs=1e-12
        )

    @pytest.mark.parametrize(
        "branch,observables",
        [pytest.param(b, DEFAULT_OBSERVABLES, id=str(b)) for b in InitialState]
        + [
            pytest.param(
                b,
                ("ineq_a", "ineq_p", "ossi_full", "xi", "xi_e2", "var_x1", "var_x2"),
                id=f"{b}-all_observables",
            )
            for b in InitialState
        ],
    )
    def test_methods_agree(self, branch, observables):
        cfg = small_config(branch=branch, method=Method.BOTH, observables=observables)
        worst = run_sweep(cfg).values["method_disagreement"].max()
        assert worst < 1e-8

    @pytest.mark.parametrize("branch", list(InitialState))
    def test_a_common_shift_of_mu_and_eta_changes_no_bit(self, branch):
        # H reads mu - eta alone, so shifts that leave that difference exact in
        # floats leave every output bit as it is
        mu, eta = 0.15625, -0.09375

        def bits(shift):
            cfg = small_config(branch=branch, method=Method.BOTH, observables=OBSERVABLES,
                               params=ModelParams(mu=mu + shift, eta=eta + shift))
            return {name: grid.tobytes() for name, grid in run_sweep(cfg).values.items()}

        zero = bits(0.0)
        for shift in (-0.75, 3.0, 1e4, 2.0**40):
            assert (mu + shift) - (eta + shift) == mu - eta
            assert bits(shift) == zero

    @pytest.mark.parametrize("method", [Method.CLOSED_FORM, Method.NUMERIC_ORACLE])
    def test_zeta_is_in_units_of_lam(self, method):
        # every energy and lam scaled by s is the same model in units of lam,
        # bit for bit at s = 2, whose scaling is exact, and to 1e-12 at s = 1.3;
        # xi_e2 is left out there, as it reaches 1e3 and its round-off exceeds
        # 1e-12.  The zeta axis keeps the values given.
        def sweep(s, observables=OBSERVABLES):
            return run_sweep(small_config(
                branch=InitialState.SEPARABLE_ONE_CAVITY, method=method, observables=observables,
                zeta_grid=GridSpec(0.0, 2.0, 5), time_grid=GridSpec(0.0, 20.0, 41),
                params=ModelParams(mu=0.13 * s, eta=-0.07 * s, lam=s)))

        one, doubled = sweep(1.0), sweep(2.0)
        assert doubled.zeta.tobytes() == one.zeta.tobytes()
        assert {k: v.tobytes() for k, v in doubled.values.items()} == {
            k: v.tobytes() for k, v in one.values.items()}
        wide = tuple(o for o in OBSERVABLES if o != "xi_e2")
        one, scaled = sweep(1.0, wide), sweep(1.3, wide)
        for name, grid in one.values.items():
            np.testing.assert_allclose(scaled.values[name], grid, rtol=0, atol=1e-12, err_msg=name)

    def test_builds_hamiltonian_once(self, monkeypatch):
        import squeezetransfer.sweep as sweep

        calls = []
        real = sweep.model_operators

        def counting(params, space):
            calls.append(params.zeta)
            return real(params, space)

        monkeypatch.setattr(sweep, "model_operators", counting)
        run_sweep(small_config(method=Method.BOTH))
        assert calls == [0.0]

    def test_builds_hopping_once(self, monkeypatch):
        import squeezetransfer.hamiltonian as hamiltonian

        calls = []
        real = hamiltonian.hopping_matrix

        def counting(ladders):
            calls.append(ladders)
            return real(ladders)

        monkeypatch.setattr(hamiltonian, "hopping_matrix", counting)
        run_sweep(small_config(method=Method.BOTH, observables=OBSERVABLES))
        assert len(calls) == 1

    def test_projects_the_model_once(self, monkeypatch):
        import squeezetransfer.hamiltonian as hamiltonian
        import squeezetransfer.sweep as sweep

        extractions, sweeps = [], []
        real_blocks = sweep.manifold_blocks

        def counting_blocks(*args, **kwargs):
            sweeps.append(args)
            return real_blocks(*args, **kwargs)

        monkeypatch.setattr(hamiltonian, "extract_manifold_block",
                            lambda *a, **k: extractions.append(a))
        monkeypatch.setattr(sweep, "manifold_blocks", counting_blocks)
        run_sweep(small_config(method=Method.BOTH))
        assert extractions == []
        assert len(sweeps) == 1

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3])
    @pytest.mark.parametrize(
        "observables,sides",
        [(("xi", "xi_e2"), ["atoms"]), (("ossi_full",), ["atoms", "photons"]),
         (("ossi_full", "xi", "xi_e2"), ["atoms", "photons"]), (("ineq_a", "var_x1"), [])],
    )
    def test_one_state_and_one_moment_pass_per_route_block_and_side(
        self, observables, sides, rows_per_block, monkeypatch
    ):
        import squeezetransfer.sweep as sweep

        calls = []

        def spy(name):
            real = getattr(sweep, name)

            def counting(*args):
                shape = args[0].shape if name in ("moment_matrix", "contraction_matrix",
                                                  "density_spin_moments") else ()
                calls.append((name, *shape))
                return real(*args)

            monkeypatch.setattr(sweep, name, counting)

        for name in ("moment_matrix", "contraction_matrix", "reduced_states",
                     "density_spin_moments", "_row_columns"):
            spy(name)
        forbidden = _forbid_checked_and_analytic_states(monkeypatch)
        cfg = small_config(method=Method.BOTH, observables=observables)
        nt = cfg.time_grid.steps
        # blocks are sized by a a^dag when a side is read, else by both routes' amplitudes
        cell = sweep._AAD_CELL_BYTES if sides else sweep._AAD_CELL_BYTES // 2
        monkeypatch.setattr(sweep, "_SWEEP_BLOCK_BYTES", rows_per_block * nt * cell)
        assert sweep._block_shape(cfg) == (rows_per_block, [slice(0, nt)])
        run_sweep(cfg)
        # Once per sweep: one moment matrix per side for the closed form, and
        # one contraction matrix of the reduced-space spin per side for the
        # oracle.  Per block: one contraction per side of the closed form's
        # (rows, nt, 4, 4) stack a a^dag; per row of it, one Gram reduction of
        # the oracle's vectors when a side is read and one contraction per side
        # of its states; then one witness pass over both routes.
        reduced = {"atoms": (4, 4), "photons": (9, 9)}
        want = [("moment_matrix", 9, 36, 36)] * len(sides)
        want += [("contraction_matrix", 9, *reduced[s]) for s in sides]
        per_row = [("reduced_states",)] * bool(sides)
        per_row += [("density_spin_moments", nt, *reduced[s]) for s in sides]
        n_zeta = cfg.zeta_grid.steps
        for start in range(0, n_zeta, rows_per_block):
            rows = min(rows_per_block, n_zeta - start)
            want += [("density_spin_moments", rows, nt, 4, 4)] * len(sides)
            want += per_row * rows + [("_row_columns",)]
        assert calls == want
        assert forbidden == []

    def test_closed_form_route_builds_no_reduced_state(self, monkeypatch):
        import squeezetransfer.sweep as sweep

        calls = _forbid_checked_and_analytic_states(monkeypatch)
        for name in ("reduced_states", "contraction_matrix"):
            monkeypatch.setattr(sweep, name, lambda *a, _name=name: calls.append(_name))
        real = sweep.density_spin_moments
        shapes = []

        def recording(rho, matrix):
            shapes.append(rho.shape)
            return real(rho, matrix)

        monkeypatch.setattr(sweep, "density_spin_moments", recording)
        for branch in InitialState:
            cfg = small_config(branch=branch, observables=sweep.OBSERVABLES)
            run_sweep(cfg)
        # the small grid is one block: one (rows, nt, 4, 4) stack per side
        nt, rows = cfg.time_grid.steps, cfg.zeta_grid.steps
        assert sweep._block_shape(cfg)[0] >= rows
        assert calls == []
        assert shapes == [(rows, nt, 4, 4)] * (2 * len(InitialState))

    @pytest.mark.parametrize("observables", [OBSERVABLES, DEFAULT_OBSERVABLES])
    @pytest.mark.parametrize("branch", list(InitialState))
    def test_blocks_do_not_change_a_bit(self, branch, observables, monkeypatch):
        """One row per block, blocks of 2 with a partial last block, and the
        whole grid in one block give the same bits in every column, for blocks
        sized by a a^dag and, with no spin moments read, by the amplitudes."""
        import squeezetransfer.sweep as sweep

        cfg = small_config(branch=branch, method=Method.BOTH, observables=observables,
                           params=ModelParams(mu=0.13, eta=-0.07),
                           zeta_grid=GridSpec(0.0, 2.0, 5), time_grid=GridSpec(0.0, 20.0, 31))
        cell = sweep._AAD_CELL_BYTES if "xi" in observables else sweep._AAD_CELL_BYTES // 2
        results = []
        for rows_per_block in (1, 2, 5):
            monkeypatch.setattr(sweep, "_SWEEP_BLOCK_BYTES", rows_per_block * 31 * cell)
            assert sweep._block_shape(cfg) == (rows_per_block, [slice(0, 31)])
            results.append(run_sweep(cfg))
        first = results[0]
        for other in results[1:]:
            assert list(other.values) == list(first.values) == list(cfg.columns)
            for name, grid in first.values.items():
                assert other.values[name].tobytes() == grid.tobytes(), name

    @pytest.mark.parametrize("observables", [OBSERVABLES, DEFAULT_OBSERVABLES])
    @pytest.mark.parametrize("method, cut", [(m, "block") for m in Method] + [
        (m, "oracle") for m in Method if m is not Method.CLOSED_FORM])
    @pytest.mark.parametrize("branch", list(InitialState))
    def test_time_chunks_do_not_change_a_bit(self, branch, method, observables, cut, monkeypatch):
        """Rows too long for a block, cut into time chunks of 2 and 3 times
        (the fewest times a chunk takes), of 8, 8, 8 and 7, and of 16 and 15,
        or whole rows whose oracle runs in time sub-chunks of those sizes,
        give the bits of whole-row blocks in every column and in
        method_disagreement; the oracle diagonalizes each row's H(zeta) once,
        whatever its chunks.  The bits hold because the eigenvectors of both
        routes are real: BLAS rounds a window of a product's columns unlike
        the whole product, which with real eigenvectors changes only the
        sign of exact zeros, so that is asserted too."""
        import squeezetransfer.sweep as sweep

        cfg = small_config(branch=branch, method=method, observables=observables,
                           params=ModelParams(mu=0.13, eta=-0.07),
                           zeta_grid=GridSpec(0.0, 2.0, 3), time_grid=GridSpec(0.0, 20.0, 31))
        routes = 1 + (method is Method.BOTH)
        cell = sweep._AAD_CELL_BYTES
        if "xi" not in observables:
            cell = routes * sweep._AAD_CELL_BYTES // 4
        budget, unit = {"block": ("_SWEEP_BLOCK_BYTES", cell),
                        "oracle": ("_ORACLE_CHUNK_TIMES", 1)}[cut]
        whole = run_sweep(cfg)  # one block, one oracle sub-chunk a row
        rows, chunks = sweep._block_shape(cfg)
        assert rows >= 3 and chunks == [slice(0, 31)]
        assert sweep._ORACLE_CHUNK_TIMES > 31
        diagonalized, evolved = [], []
        oracle = method is not Method.CLOSED_FORM

        class Counting(sweep.SpectralPropagator):
            def __init__(self, h, lam):
                diagonalized.append(h.matrix.copy())
                super().__init__(h, lam)
                assert np.isreal(self._evecs).all()

            def evolve_grid(self, vec, times):
                evolved.append(len(times))
                return super().evolve_grid(vec, times)

        def real_closed_form(branch, blocks, times, out=None):
            assert np.isreal(blocks.vecs_sym).all() and np.isreal(blocks.vecs_anti).all()
            return evolve(branch, blocks, times, out)

        evolve = sweep.evolve_closed_form_grid
        monkeypatch.setattr(sweep, "SpectralPropagator", Counting)
        monkeypatch.setattr(sweep, "evolve_closed_form_grid", real_closed_form)
        for fit, sizes in ((1, [3] + [2] * 14), (8, [8, 8, 8, 7]), (16, [16, 15])):
            monkeypatch.setattr(sweep, budget, fit * unit)
            rows, chunks = sweep._block_shape(cfg)
            if cut == "block":
                assert rows == 1 and [c.stop - c.start for c in chunks] == sizes
                assert [c.start for c in chunks[1:]] == [c.stop for c in chunks[:-1]]
            blocks = list(sweep.sweep_blocks(cfg))
            assert [(b.zeta.size, b.t.size) for b in blocks] == (
                [(1, n) for n in sizes] * 3 if cut == "block" else [(3, 31)])
            diagonalized.clear()
            evolved.clear()
            result = run_sweep(cfg)
            assert len(diagonalized) == 3 * oracle and evolved == sizes * 3 * oracle
            assert list(result.values) == list(whole.values) == list(cfg.columns)
            for name, grid in whole.values.items():
                assert result.values[name].tobytes() == grid.tobytes(), name

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("branch", list(InitialState))
    def test_row_ranges_do_not_change_a_bit(self, branch, method, monkeypatch):
        """The sweep's stream of a contiguous row range (_sweep), in blocks of
        2 rows from its first row, gives those rows of run_sweep bit for bit,
        for ranges that start on or inside a block of the whole grid: the
        invariance that lets the CLI compute its parts apart."""
        import squeezetransfer.sweep as sweep

        cfg = small_config(branch=branch, method=method, observables=OBSERVABLES,
                           params=ModelParams(mu=0.13, eta=-0.07),
                           zeta_grid=GridSpec(0.0, 2.0, 5), time_grid=GridSpec(0.0, 20.0, 31))
        monkeypatch.setattr(sweep, "_SWEEP_BLOCK_BYTES", 2 * 31 * sweep._AAD_CELL_BYTES)
        assert sweep._block_shape(cfg) == (2, [slice(0, 31)])

        whole = run_sweep(cfg).values
        for start, stop in [(0, 5), (1, 5), (1, 4), (2, 5), (3, 4), (4, 5)]:
            blocks = [b.values for b in sweep._sweep(cfg)(slice(start, stop))]
            assert [len(b["ineq_a"]) for b in blocks] == [2] * ((stop - start) // 2) + [1] * (
                (stop - start) % 2)
            for name, want in whole.items():
                got = [b[name] for b in blocks]
                assert np.concatenate(got).tobytes() == want[start:stop].tobytes(), name

    def test_peak_memory_of_an_oracle_states_run(self):
        """run_sweep's traced peak on the benchmark's oracle_states shape: the
        (51, 201) output grids (1.9 MB) plus one block's working arrays.  The
        bound, 3.7 MiB, is the 3.35 MiB measured at the current
        _SWEEP_BLOCK_BYTES and _ORACLE_CHUNK_TIMES plus 0.35 MiB; oracle rows
        not cut into sub-chunks, with their earlier temporaries, peaked at
        3.93 MiB, and twice that block budget at 5.4 MB."""
        import tracemalloc

        cfg = SweepConfig(
            params=ModelParams(mu=0.05, eta=-0.1),
            branch=InitialState.SEPARABLE_ONE_CAVITY,
            zeta_grid=GridSpec(0.0, 2.0, 51),
            time_grid=GridSpec(0.0, 20.0, 201),
            observables=("ineq_a", "ineq_p", "ossi_full", "xi", "var_x1", "var_x2"),
            method=Method.BOTH,
        )
        tracemalloc.start()
        try:
            run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.7 * 2**20

    @pytest.mark.parametrize("branch", list(InitialState))
    def test_closed_form_moments_are_the_amplitude_formula_bit_for_bit(self, branch):
        """Every moment column of the closed route equals, bit for bit, the
        witnesses of a^dag (Phi^dag O Phi) a from the row's amplitudes."""
        from squeezetransfer.dynamics import evolve_closed_form_grid
        from squeezetransfer.hamiltonian import manifold_blocks, model_operators
        from squeezetransfer.hilbert import standard_space
        from squeezetransfer.operators import collective_atomic_spin, photonic_pseudospin
        from squeezetransfer.witness import (
            kitagawa_ueda_xi_of, moment_matrix, moment_operators, ossi_of, sorensen_xi_e2_of,
        )

        from _oracles import manifold_spin_moments

        cfg = small_config(branch=branch, params=ModelParams(mu=0.13, eta=-0.07),
                           zeta_grid=GridSpec(0.0, 2.0, 5), time_grid=GridSpec(0.0, 20.0, 61),
                           observables=("ossi_full", "xi", "xi_e2"))
        result = run_sweep(cfg)
        space = standard_space()
        blocks = manifold_blocks(*model_operators(cfg.params, space), cfg.zeta_grid.values(),
                                 cfg.params.lam)
        spins = {"atoms": collective_atomic_spin(space), "photons": photonic_pseudospin(space)}
        for i in range(cfg.zeta_grid.steps):
            amps = evolve_closed_form_grid(branch, blocks[i], cfg.time_grid.values())
            for side, spin in spins.items():
                matrix = moment_matrix(moment_operators(spin), blocks.basis)
                moments = manifold_spin_moments(amps, matrix)
                rep = ossi_of(*moments, 2)
                want = {"a": rep.slack_a, "b": rep.slack_b,
                        **{f"c_{ax}": v for ax, v in rep.slack_c.items()},
                        **{f"d_{ax}": v for ax, v in rep.slack_d.items()}}
                for name, value in want.items():
                    assert result.values[f"{side}_slack_{name}"][i].tobytes() == value.tobytes()
                if side == "atoms":
                    for col, fn in (("xi", kitagawa_ueda_xi_of), ("xi_e2", sorensen_xi_e2_of)):
                        assert result.values[col][i].tobytes() == fn(*moments, 2).tobytes()

    def test_oracle_fails_closed_on_weight_outside_the_manifold(
        self, tmp_path, capsys, monkeypatch
    ):
        from squeezetransfer import dynamics

        real = dynamics.SpectralPropagator.evolve_grid

        def leaky(self, vec, times):
            # weight that the projection onto the manifold drops, so only the
            # trace of the reduced states can see it
            out = real(self, vec, times)
            out[self.space.basis_index(("e", 1, "g", 0))] += 1e-3
            return out

        monkeypatch.setattr(dynamics.SpectralPropagator, "evolve_grid", leaky)
        with pytest.raises(SweepError, match="row zeta=0.0: reduced state .* trace"):
            run_sweep(small_config(method=Method.NUMERIC_ORACLE, observables=("xi",)))
        out = tmp_path / "x.csv"
        rc = main(["--method", "both", "--observables", "ossi_full", "--steps", "2", "3",
                   "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: row zeta=0.0: reduced state")
        assert not out.exists()

    @pytest.mark.parametrize("row", [0, 1])
    def test_a_failing_oracle_row_reports_the_figures_of_its_block(self, row, monkeypatch):
        """One oracle row of a 3-row block, the first or the second, fails
        on its own in a sub-chunk that is not its worst: the error names that
        row's zeta and the largest deviation over all of the block's times,
        as whole rows do."""
        import squeezetransfer.sweep as sweep
        from squeezetransfer.hamiltonian import model_operators
        from squeezetransfer.hilbert import standard_space

        cfg = small_config(method=Method.NUMERIC_ORACLE, observables=("xi",),
                           time_grid=GridSpec(0.0, 20.0, 41))
        zeta = cfg.zeta_grid.values()[row]
        h0, hop = model_operators(cfg.params, standard_space())
        failing = h0.matrix + zeta * hop.matrix

        class Growing(sweep.SpectralPropagator):
            def __init__(self, h, lam):
                super().__init__(h, lam)
                self.grows = np.array_equal(h.matrix, failing)

            def evolve_grid(self, vec, times):
                # the failing row's norm grows by 2e-10 after t = 5 and by
                # 3.2e-9 after t = 15
                out = super().evolve_grid(vec, times)
                return out * np.sqrt(1 + self.grows * (2e-10 * (times > 5) + 3e-9 * (times > 15)))

        monkeypatch.setattr(sweep, "SpectralPropagator", Growing)
        monkeypatch.setattr(sweep, "_SWEEP_BLOCK_BYTES", 3 * 41 * sweep._AAD_CELL_BYTES)
        monkeypatch.setattr(sweep, "_ORACLE_CHUNK_TIMES", 8)
        assert sweep._block_shape(cfg) == (3, [slice(0, 41)])
        with pytest.raises(SweepError, match=rf"^row zeta={zeta}: reduced state of the atoms: "
                                             r"trace deviates from 1 by 3\.200e-09, "):
            run_sweep(cfg)

    def test_separable_moment_routes_agree(self, tmp_path, capsys):
        cfg = small_config(
            branch=InitialState.SEPARABLE_ONE_CAVITY, method=Method.BOTH,
            observables=("ossi_full", "xi"), time_grid=GridSpec(0.0, 20.0, 41),
        )
        assert run_sweep(cfg).values["method_disagreement"].max() <= 1e-12
        argv = ["--branch", "separable", "--zeta-range", "0", "1", "--time-range", "0", "20",
                "--steps", "3", "41", "--observables", "ossi_full,xi", "--method", "both",
                "--output", str(tmp_path / "out.csv")]
        assert main(argv) == 0
        worst = float(capsys.readouterr().out.split("max method disagreement ")[1].split()[0])
        assert worst <= 1e-12

    def test_subgrid_is_consistent_with_supergrid(self):
        fine = run_sweep(small_config(time_grid=GridSpec(0.0, 4.0, 5)))
        coarse = run_sweep(small_config(time_grid=GridSpec(0.0, 4.0, 3)))
        np.testing.assert_array_equal(coarse.zeta, fine.zeta)
        np.testing.assert_array_equal(coarse.t, fine.t[::2])
        for key, grid in coarse.values.items():
            np.testing.assert_allclose(grid, fine.values[key][:, ::2], rtol=0, atol=1e-14)

    def test_xi_nan_at_t0(self):
        # both atoms in |g>: the mean spin exists, but at later revival-free
        # grid points the xi column must still serialize; check a nan case via
        # the separable branch where the photons dominate
        result = run_sweep(
            small_config(
                observables=("xi",),
                zeta_grid=GridSpec(0.5, 0.5, 1),
                time_grid=GridSpec(0.0, 0.0, 1),
            )
        )
        assert np.isfinite(result.values["xi"][0, 0])


class TestMaxDisagreement:
    def test_one_sided_nan_is_inf(self):
        primary = {"a": np.array([1.0, np.nan, np.nan, 2.0]), "b": np.zeros(4)}
        other = {"a": np.array([1.5, np.nan, 3.0, np.nan]), "b": np.array([0.0, 0.1, 0.0, 0.0])}
        worst = _max_disagreement(primary, other)
        assert worst.tolist() == [0.5, 0.1, math.inf, math.inf]

    def test_agreement_is_zero(self):
        row = {"a": np.array([np.nan, 1.0])}
        assert _max_disagreement(row, row).tolist() == [0.0, 0.0]


def reference_text(result, columns, fmt):
    """The expected file text, one f"{v:.17g}" (or JSON number) per value, one
    line or record per (zeta, t) cell of the axes, zeta-major."""
    names = ("zeta", "t", *columns)
    grids = [result.values[c].tolist() for c in columns]
    cells = [
        (zeta, t, *(g[i][j] for g in grids))
        for (i, zeta), (j, t) in itertools.product(enumerate(result.zeta.tolist()),
                                                   enumerate(result.t.tolist()))
    ]
    if fmt == "csv":
        def ref(v):
            return "nan" if math.isnan(v) else f"{v:.17g}"

        return "\n".join([",".join(names)] + [",".join(map(ref, c)) for c in cells]) + "\n"
    records = [dict(zip(names, (None if math.isnan(v) else v for v in c))) for c in cells]
    return json.dumps(records, indent=2) + "\n"


def sub_block_rows(fmt, names):
    """Cells per writer sub-block of a file with these column names."""
    from squeezetransfer import output

    record = output.WRITERS[fmt](list(names))[2]
    return output._BLOCK_BYTES // len(record)


# The text encoder of each writer.
ENCODERS = {"csv": "g17_text", "json": "json_text"}


class TestEmit:
    def test_csv_layout(self, tmp_path):
        cfg = small_config()
        result = run_sweep(cfg)
        path = tmp_path / "out.csv"
        emit(result, cfg.columns, "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "zeta,t,ineq_a,ineq_p,var_x1,var_x2"
        assert len(lines) == 16
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"

    def test_csv_deterministic_bytes(self, tmp_path):
        cfg = small_config(method=Method.BOTH)
        digests = []
        for name in ("a.csv", "b.csv"):
            result = run_sweep(cfg)
            path = tmp_path / name
            emit(result, cfg.columns, "csv", str(path))
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_nan_serialization(self, tmp_path):
        result = SweepResult(np.zeros(1), np.zeros(1), {"xi": np.array([[np.nan]])})
        csv_path = tmp_path / "out.csv"
        emit(result, ("xi",), "csv", str(csv_path))
        assert csv_path.read_text().splitlines()[1] == "0,0,nan"
        json_path = tmp_path / "out.json"
        emit(result, ("xi",), "json", str(json_path))
        records = json.loads(json_path.read_text())
        assert records[0]["xi"] is None

    def test_json_round_trip(self, tmp_path):
        cfg = small_config()
        result = run_sweep(cfg)
        path = tmp_path / "out.json"
        emit(result, cfg.columns, "json", str(path))
        records = json.loads(path.read_text())
        assert len(records) == len(result)
        assert records[3]["ineq_a"] == result.values["ineq_a"][0, 3]
        assert records[7]["ineq_a"] == result.values["ineq_a"][1, 2]

    def test_rejects_empty(self, tmp_path):
        empty = SweepResult(np.zeros(3), np.empty(0), {"ineq_a": np.empty((3, 0))})
        with pytest.raises(ValueError):
            emit(empty, ("ineq_a",), "csv", str(tmp_path / "x.csv"))

    @pytest.mark.parametrize("columns, missing", [
        (("nope", "xi", "gone"), r"\['nope', 'gone'\]"),
        (("xi", "method_disagreement"), r"\['method_disagreement'\]"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rejects_unknown_columns_before_writing(self, fmt, columns, missing, tmp_path):
        result = SweepResult(np.zeros(1), np.zeros(2), {"xi": np.zeros((1, 2))})
        with pytest.raises(ValueError, match=f"no columns {missing}"):
            emit(result, columns, fmt, str(tmp_path / f"out.{fmt}"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt, path, message", [
        ("csv", "", "empty output path"),
        ("json", "", "empty output path"),
        ("xml", "out", "unknown output format 'xml'"),
    ])
    def test_rejects_bad_arguments_before_taking_a_block(self, fmt, path, message, tmp_path,
                                                         monkeypatch):
        from squeezetransfer.output import emit_blocks

        monkeypatch.chdir(tmp_path)
        result = SweepResult(np.zeros(1), np.zeros(2), {"xi": np.zeros((1, 2))})
        with pytest.raises(ValueError, match=message):
            emit(result, ("xi",), fmt, path)
        taken = []

        def blocks():
            taken.append(result)
            yield result

        with pytest.raises(ValueError, match=message):
            emit_blocks(result.zeta, result.t, blocks(), ("xi",), fmt, path)
        assert taken == []
        assert list(tmp_path.iterdir()) == []

    def test_special_values_match_reference_formatter(self, tmp_path):
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1 / 3, -2.5e-300, 6.02214076e23]
        rng = np.random.default_rng(0)
        shape = (9, 1000)  # more rows than one block of CSV text
        result = SweepResult(
            zeta=np.linspace(0.0, 2.0, 9),
            t=np.linspace(0.0, 20.0, 1000),
            values={
                "a": np.resize(special, shape),
                "b": rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape),
                "method_disagreement": np.resize([0.0, np.nan, 1e-15, 0.5], shape),
            },
        )
        columns = ("a", "b", "method_disagreement")
        for fmt in ("csv", "json"):
            path = tmp_path / f"out.{fmt}"
            emit(result, columns, fmt, str(path))
            assert path.read_bytes() == reference_text(result, columns, fmt).encode("utf-8")

    @pytest.mark.parametrize("sharing", [(True, False), (False, True)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_blocks_that_share_arrays_differently(self, fmt, sharing, tmp_path):
        """Column b is column a's array in one block and an array of its own in
        the other: the bytes are still those of the whole grid."""
        from squeezetransfer import output

        rng = np.random.default_rng(5)
        zeta, t = np.array([0.0, 0.5, 1.0]), np.linspace(0.0, 20.0, 7)
        a, b = rng.standard_normal((3, 7)), rng.standard_normal((3, 7))
        blocks = []
        for rows, shared in zip((slice(0, 1), slice(1, 3)), sharing):
            if shared:
                b[rows] = a[rows]
            grids = {"a": a[rows], "b": b[rows].copy()}
            if shared:
                grids["b"] = grids["a"]
            blocks.append(SweepResult(zeta[rows], t, grids))
        path = tmp_path / f"out.{fmt}"
        output.emit_blocks(zeta, t, blocks, ("a", "b"), fmt, str(path))
        expected = SweepResult(zeta, t, {"a": a, "b": b})
        assert path.read_bytes() == reference_text(expected, ("a", "b"), fmt).encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_axes_only(self, fmt, tmp_path):
        result = SweepResult(np.array([0.0, 0.5]), np.array([0.0, 1.0, 2.0]), {})
        path = tmp_path / f"out.{fmt}"
        emit(result, (), fmt, str(path))
        assert path.read_bytes() == reference_text(result, (), fmt).encode()

    def test_json_matches_json_dumps(self, tmp_path):
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 1 / 3, -2.5e-300, 6.02214076e23,
                   1e16, 123456789.0, 5e-324]
        shared = np.array([special[::-1], special])
        result = SweepResult(
            np.array([-0.0, 1 / 3]), np.array(special),
            {"a": np.array([special, special[::-1]]), "b": shared, "c": shared},
        )
        path = tmp_path / "out.json"
        emit(result, ("a", "b", "c"), "json", str(path))
        assert path.read_bytes() == reference_text(result, ("a", "b", "c"), "json").encode()
        assert '"a": Infinity' in path.read_text() and '"a": -Infinity' in path.read_text()

    def test_json_keys_are_json_dumps_of_the_names(self, tmp_path):
        """Names with %, quotes, backslashes and non-ASCII text are escaped as
        json.dumps escapes them, and take no part in any formatting."""
        from squeezetransfer import output

        columns = ("100%", "%s %d %%", 'say "hi"', "back\\slash\\", "\u03b6\u2082 \U0001d49c", "\t\n")
        rng = np.random.default_rng(9)
        zeta, t = np.array([0.0, 0.5]), np.linspace(0.0, 20.0, 3)
        values = {name: rng.standard_normal((2, 3)) for name in columns}
        path = tmp_path / "out.json"
        output.emit_blocks(zeta, t, [SweepResult(zeta, t, values)], columns, "json", str(path))
        expected = reference_text(SweepResult(zeta, t, values), columns, "json")
        assert path.read_bytes() == expected.encode("ascii")
        assert list(json.loads(path.read_text())[0]) == ["zeta", "t", *columns]

    @staticmethod
    def _count_encodings(monkeypatch, fmt="csv"):
        """Record the array each encoder call of the fmt writer encodes."""
        from squeezetransfer import output

        calls = []
        real = getattr(output, ENCODERS[fmt])

        def counting(values):
            calls.append(np.array(values))
            return real(values)

        monkeypatch.setattr(output, ENCODERS[fmt], counting)
        return calls

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_long_axes_are_encoded_a_window_at_a_time(self, fmt, tmp_path, monkeypatch):
        """No axis longer than a window is encoded at once, and the file holds
        the reference bytes: a zeta axis 3 values longer than a window over 2
        times, and a time axis longer than two windows over 1 row, are each
        encoded about once, a window at a time as the cells reach it; a time
        axis 3 values longer than a window over 3 rows, whose sub-blocks wrap
        from one row to the next, is encoded exactly once, not once per row."""
        from squeezetransfer import output

        calls = self._count_encodings(monkeypatch, fmt)
        window = output._BLOCK_BYTES // 64
        rng = np.random.default_rng(3)
        for n_zeta, n_t in ((window + 3, 2), (1, 2 * window + 5), (3, window + 3)):
            calls.clear()
            zeta, t = np.linspace(0.0, 2.0, n_zeta), np.linspace(100.0, 120.0, n_t)
            result = SweepResult(zeta, t, {"v": rng.standard_normal((n_zeta, n_t))})
            path = tmp_path / f"out.{fmt}"
            emit(result, ("v",), fmt, str(path))
            assert path.read_bytes() == reference_text(result, ("v",), fmt).encode("ascii")
            axis_calls = [c for c in calls if c.ndim == 1]  # values come as (rows, 1)
            assert max(c.size for c in axis_calls) <= window
            t_calls = [c.size for c in axis_calls if c.min() >= 100.0]
            zeta_calls = [c.size for c in axis_calls if c.max() <= 2.0]
            assert len(t_calls) + len(zeta_calls) == len(axis_calls)
            assert n_zeta <= sum(zeta_calls) < n_zeta + window
            if n_zeta == 1:
                assert n_t <= sum(t_calls) < n_t + window
            else:
                assert sum(t_calls) == n_t

    def test_a_larger_writer_budget_writes_the_same_bytes(self, tmp_path, monkeypatch):
        """Sub-blocks of twice the records, over a one-row t axis longer than
        their axis window, give the bytes of the usual budget."""
        from squeezetransfer import output

        argv = ["--zeta", "0.5", "--steps", "1", "5001", "--observables", "xi"]
        for fmt in ("csv", "json"):
            usual, larger = tmp_path / f"usual.{fmt}", tmp_path / f"larger.{fmt}"
            assert main([*argv, "--format", fmt, "--output", str(usual)]) == 0
            with monkeypatch.context() as patch:
                patch.setattr(output, "_BLOCK_BYTES", 1 << 18)
                assert main([*argv, "--format", fmt, "--output", str(larger)]) == 0
            assert larger.read_bytes() == usual.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [1, 7, "block+3"])
    def test_each_column_converted_once_per_block(self, n, fmt, tmp_path, monkeypatch):
        columns = ("v1", "a", "v2", "b")
        block = sub_block_rows(fmt, ("zeta", "t", *columns))
        n = 2 * block + 3 if n == "block+3" else n
        calls = self._count_encodings(monkeypatch, fmt)
        rng = np.random.default_rng(2)
        shared = np.resize([np.nan, -0.0, np.inf, 1 / 3], n) * rng.standard_normal(n)
        values = {"a": rng.standard_normal(n), "v1": shared, "v2": shared, "b": shared.copy()}
        grids = {name: col[None] for name, col in values.items()}
        grids["v2"] = grids["v1"]  # one array under two names; "b" is an equal copy
        result = SweepResult(np.array([0.5]), np.linspace(0.0, 20.0, n), grids)
        path = tmp_path / f"out.{fmt}"
        emit(result, columns, fmt, str(path))
        assert path.read_bytes() == reference_text(result, columns, fmt).encode("utf-8")
        # each axis once, over the axis itself; then per block one (rows, 3)
        # array, every distinct array once, in the order of its first column
        np.testing.assert_array_equal(calls[0], result.zeta)
        np.testing.assert_array_equal(calls[1], result.t)
        blocks = calls[2:]
        assert [c.shape for c in blocks] == [(min(block, n - i), 3) for i in range(0, n, block)]
        encoded = np.concatenate(blocks)
        for k, name in enumerate(("v1", "a", "b")):
            np.testing.assert_array_equal(encoded[:, k], values[name])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_array_of_a_sweep_encoded_once_per_block(self, fmt, tmp_path, monkeypatch):
        calls = self._count_encodings(monkeypatch, fmt)
        cfg = small_config(zeta_grid=GridSpec(0.0, 1.0, 5), time_grid=GridSpec(0.0, 20.0, 401))
        assert cfg.columns == ("ineq_a", "ineq_p", "var_x1", "var_x2")
        result = run_sweep(cfg)
        assert result.values["var_x1"] is result.values["var_x2"]
        path = tmp_path / f"out.{fmt}"
        emit(result, cfg.columns, fmt, str(path))
        assert path.read_bytes() == reference_text(result, cfg.columns, fmt).encode("utf-8")
        n, block = len(result), sub_block_rows(fmt, ("zeta", "t", *cfg.columns))
        assert n > 2 * block and block % 401  # blocks start inside zeta rows
        np.testing.assert_array_equal(calls[0], result.zeta)
        np.testing.assert_array_equal(calls[1], result.t)
        blocks = calls[2:]
        # var_x1 and var_x2 are one array, encoded once
        assert [c.shape for c in blocks] == [(min(block, n - i), 3) for i in range(0, n, block)]
        encoded = np.concatenate(blocks)
        for k, name in enumerate(cfg.columns[:3]):
            np.testing.assert_array_equal(encoded[:, k], result.values[name].ravel())

    @pytest.mark.parametrize("case", ["signed_zero_t", "block_plus_one", "single_cell"])
    def test_axis_text_matches_reference_formatter(self, case, tmp_path):
        from squeezetransfer import output

        rng = np.random.default_rng(1)
        names = ["zeta", "t", "a", "b"]
        if case == "signed_zero_t":
            zeta, t = np.array([-0.0, 0.5]), np.array([0.0, -0.0, 1.0, -0.0])
        elif case == "block_plus_one":
            n = sub_block_rows("csv", names) + 1
            zeta, t = np.array([0.7]), np.linspace(0.0, 20.0, n)
        else:
            zeta, t = np.array([0.3]), np.array([-0.0])
        shape = (zeta.size, t.size)
        values = {"a": rng.standard_normal(shape), "b": np.resize([np.nan, -0.0], shape)}
        result = SweepResult(zeta, t, values)
        path = tmp_path / "out.csv"
        emit(result, ("a", "b"), "csv", str(path))
        expected = reference_text(result, ("a", "b"), "csv").encode("utf-8")
        assert path.read_bytes() == expected
        assert b"".join(output._chunks(zeta, t, [result], names[2:], "csv")) == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [1, "block", "block+1"])
    def test_blocks_match_reference_formatter(self, n, fmt, tmp_path):
        from squeezetransfer import output

        names = ["zeta", "t", "a", "b", "c"]
        block = sub_block_rows(fmt, names)
        # one zeta row; rows filling one block; a block and one cell
        shape = {1: (1, 1), "block": (block, 1), "block+1": (1, block + 1)}[n]
        n = shape[0] * shape[1]
        rng = np.random.default_rng(3)
        shared = np.resize([np.nan, np.inf, -np.inf, -0.0, 1 / 3], shape)
        values = {"a": rng.standard_normal(shape), "b": shared, "c": shared}
        result = SweepResult(np.linspace(0.0, 0.25, shape[0]), np.linspace(0.0, 20.0, shape[1]),
                             values)
        path = tmp_path / f"out.{fmt}"
        emit(result, ("a", "b", "c"), fmt, str(path))
        assert path.read_bytes() == reference_text(result, ("a", "b", "c"), fmt).encode()
        chunks = list(output._chunks(result.zeta, result.t, [result], names[2:], fmt))
        # the head, one chunk per sub-block of records, the tail
        assert len(chunks) == 2 + -(-n // block)
        head_tail = {"csv": (b"zeta,t,a,b,c\n", b""), "json": (b"[\n", b"\n]\n")}
        assert (chunks[0], chunks[-1]) == head_tail[fmt]
        assert b"".join(chunks) == path.read_bytes()

    @pytest.mark.parametrize("failure", ["write", "replace"])
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, failure):
        from squeezetransfer import output

        path = tmp_path / "out.csv"
        path.write_bytes(b"old bytes\n")

        def broken_open(file, *args, **kwargs):
            with open(file, *args, **kwargs) as fh:
                fh.write(b"zeta,t,")
            raise OSError("disk full")

        def broken_replace(src, dst):
            raise OSError("cannot replace")

        if failure == "write":
            monkeypatch.setattr(output, "open", broken_open, raising=False)
        else:
            monkeypatch.setattr(output.os, "replace", broken_replace)
        cfg = small_config()
        with pytest.raises(OSError):
            emit(run_sweep(cfg), cfg.columns, "csv", str(path))
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestCli:
    def test_config_from_args_single_zeta(self):
        args = _build_parser().parse_args(
            ["--zeta", "0.5", "--steps", "1", "3", "--branch", "separable"]
        )
        cfg = config_from_args(args)
        assert cfg.zeta_grid.steps == 1
        assert cfg.zeta_grid.start == 0.5
        assert cfg.branch is InitialState.SEPARABLE_ONE_CAVITY

    def test_main_writes_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(
            [
                "--zeta", "0.5",
                "--time-range", "0", "2",
                "--steps", "1", "5",
                "--output", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6

    def test_main_params_file(self, tmp_path):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"lambda": 2.0, "mu": 0.1}))
        out = tmp_path / "run.csv"
        rc = main(
            [
                "--zeta", "0.2",
                "--steps", "1", "2",
                "--time-range", "0", "1",
                "--params-file", str(pfile),
                "--output", str(out),
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize(
        "observables",
        [["bogus"], [","], [",", "--method", "both"], ["xi,xi"], ["xi,,xi_e2"], ["ineq_a,"]],
    )
    def test_main_reports_bad_observable(self, observables, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["--observables", *observables, "--steps", "2", "3", "--output", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_main_reports_unwritable_output(self, tmp_path, capsys, monkeypatch):
        import squeezetransfer.output as writer
        import squeezetransfer.sweep as sweep

        opened, blocks = [], []

        def spying_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        real_columns = sweep._row_columns

        def counting_columns(*args):
            blocks.append(args)
            return real_columns(*args)

        monkeypatch.setattr(writer, "open", spying_open, raising=False)
        monkeypatch.setattr(sweep, "_row_columns", counting_columns)
        somedir = tmp_path / "somedir"
        somedir.mkdir()
        missing = str(tmp_path / "missing" / "x.csv")
        for output in (missing, str(somedir) + "/", str(somedir)):
            opened.clear()
            rc = main(
                [
                    "--zeta", "0.5",
                    "--steps", "1", "2",
                    "--time-range", "0", "1",
                    "--output", output,
                ]
            )
            assert rc == 1
            err = capsys.readouterr().err
            # the path asked for, not the temporary file written first
            assert err.startswith(f"error: cannot write {output}: ") and ".tmp" not in err
            if output != missing:
                # a directory is refused before any file is opened
                assert err.endswith("it is a directory\n") and opened == []
            assert blocks == []  # and before any block is computed
        assert list(somedir.iterdir()) == []

    SMALL_RUN = ["--zeta", "0.5", "--steps", "1", "2", "--time-range", "0", "1"]

    def test_output_through_symlink_writes_its_target(self, tmp_path, capsys):
        real = tmp_path / "data" / "real.csv"
        real.parent.mkdir()
        real.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        assert main([*self.SMALL_RUN, "--output", str(link)]) == 0
        assert capsys.readouterr().out == f"wrote 2 cells to {link}\n"
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text().startswith("zeta,t,")
        # the temporary file sat beside the target, and is gone
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "link.csv", "real.csv"]

    def test_output_to_fifo_writes_into_it(self, tmp_path):
        import threading

        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, "rb") as fh:  # blocks until the writer opens it
                received.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        assert main([*self.SMALL_RUN, "--output", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received[0].startswith(b"zeta,t,") and received[0].count(b"\n") == 3
        assert fifo.is_fifo() and [p.name for p in tmp_path.iterdir()] == ["pipe"]

    @pytest.mark.parametrize("n_t", [3, 2001])
    @pytest.mark.parametrize("method", ["closed_form", "numeric_oracle", "both"])
    def test_main_reports_overflowing_phases(self, method, n_t, tmp_path, capsys, recwarn):
        """The phases w * t overflow a float at t = 1e308, though every time is
        finite.  The message names the block's time range: a row of 2001
        times is one block, whose oracle runs in sub-chunks, the first ones
        finite."""
        import squeezetransfer.sweep as sweep

        out = tmp_path / "x.csv"
        argv = ["--zeta", "1", "--steps", "1", str(n_t), "--time-range", "0", "1e308",
                "--observables", "ineq_a", "--method", method]
        config = config_from_args(_build_parser().parse_args(argv))
        assert sweep._block_shape(config)[1] == [slice(0, n_t)]
        if n_t > 3:
            assert n_t > 2 * sweep._ORACLE_CHUNK_TIMES
        rc = main([*argv, "--output", str(out)])
        assert rc == 1
        route = "full-space" if method == "numeric_oracle" else "closed form's"
        assert capsys.readouterr().err == (
            f"error: row zeta=1.0: the {route} phases overflow over the time range "
            "0.0..1e+308 (units of 1/lam)\n")
        assert [str(w.message) for w in recwarn] == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid",
        [
            ["--zeta", "nan"],
            ["--zeta-range", "0", "inf"],
            ["--time-range", "-5", "5"],
            ["--zeta", "0.5", "--zeta-range", "0", "1"],
        ],
    )
    def test_main_rejects_bad_grid(self, grid, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main([*grid, "--steps", "2", "3", "--output", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    ZETA_SPAN = ("one step cannot span 0.0..2.0; give more steps, or a single value "
                 "(--zeta VALUE, or equal MIN and MAX)")
    ZETA_REPEAT = ("{} steps over the single value 0.5 repeat it; give 1 step for a single "
                   "value (--zeta VALUE for a single hopping value)")
    TIME_SPAN = ("one time step cannot span 0.0..20.0; give more time steps (NTIME of "
                 "--steps), or a single time (equal MIN and MAX of --time-range)")
    TIME_REPEAT = ("{} time steps over the single time {} repeat it; give 1 time step for a "
                   "single time (NTIME of --steps)")

    @pytest.mark.parametrize(
        "grid, message",
        [
            (["--zeta-range", "0", "2", "--steps", "1", "3"], ZETA_SPAN),  # would drop MAX
            # as --zeta-range 0.5 0.5 would; then with the default NZETA, given
            (["--zeta", "0.5", "--steps", "7", "3"], ZETA_REPEAT.format(7)),
            (["--zeta", "0.5", "--steps", "201", "3"], ZETA_REPEAT.format(201)),
            (["--steps", "5", "1"], TIME_SPAN),  # would drop the default MAX time
            # would repeat every cell
            (["--time-range", "0", "0", "--steps", "2", "3"], TIME_REPEAT.format(3, 0.0)),
            (["--time-range", "3", "3", "--steps", "5", "4"], TIME_REPEAT.format(4, 3.0)),
        ],
    )
    def test_main_rejects_degenerate_grid(self, grid, message, tmp_path, capsys):
        """The error names the degenerate axis, and only that axis's options."""
        out = tmp_path / "x.csv"
        rc = main([*grid, "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("steps, n_t", [([], 401), (["--steps", "1", "3"], 3)])
    def test_main_takes_one_zeta_step_with_zeta(self, steps, n_t, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["--zeta", "0.5", *steps, "--output", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {n_t} cells to {out}\n"
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + n_t and {line.split(",")[0] for line in lines[1:]} == {"0.5"}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_default_output_name_follows_the_format(self, fmt, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--steps", "2", "3", "--format", fmt]) == 0
        assert capsys.readouterr().out == f"wrote 6 cells to sweep.{fmt}\n"
        assert [p.name for p in tmp_path.iterdir()] == [f"sweep.{fmt}"]
        text = (tmp_path / f"sweep.{fmt}").read_text()
        if fmt == "json":
            assert len(json.loads(text)) == 6
        else:
            assert text.startswith("zeta,t,") and len(text.splitlines()) == 7

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_main_rejects_empty_output(self, fmt, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--steps", "2", "3", "--format", fmt, "--output", ""]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error:") and "--output" in err
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def leak_from_h0(monkeypatch):
        """Give every run's H(0) a Hermitian term that takes phi3's |e,0;g,0>
        out of the manifold to |e,1;g,0>, at 1e-6 of H(0)'s largest entry."""
        import squeezetransfer.sweep as sweep

        real = sweep.model_operators

        def leaking(params, space):
            h0, hop = real(params, space)
            h = h0.matrix.copy()
            i, j = space.basis_index(("e", 1, "g", 0)), space.basis_index(("e", 0, "g", 0))
            h[i, j] = h[j, i] = 1e-6 * np.max(np.abs(h))
            return HermitianOperator(space, h), hop

        monkeypatch.setattr(sweep, "model_operators", leaking)

    def test_main_reports_model_error(self, tmp_path, capsys, monkeypatch):
        self.leak_from_h0(monkeypatch)
        out = tmp_path / "x.csv"
        rc = main(["--zeta", "0.5", "--steps", "1", "3", "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "leaks out of the four-state manifold" in err
        assert not out.exists()

    @pytest.mark.parametrize("params", [{}, {"mu": 1e8}, {"lambda": 1e4}])
    def test_main_reports_a_leak_at_every_scale(self, params, tmp_path, capsys, monkeypatch):
        # the leak check is relative to H's size, so a leak that is not
        # round-off fails however large the energies
        self.leak_from_h0(monkeypatch)
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(params))
        rc = main(["--params-file", str(pfile), "--zeta", "0.5", "--steps", "1", "3",
                   "--output", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1
        assert err.startswith("error: Hamiltonian leaks out of the four-state manifold by")

    @staticmethod
    def run_wide_both(branch, params, zeta, tmp_path, capsys):
        """(exit status, stdout, stderr) of a --method both row of 41 times over
        the six observables other than xi_e2, at the given params and zeta."""
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(params))
        rc = main(["--branch", branch, "--method", "both", "--zeta", zeta, "--steps", "1", "41",
                   "--observables", "ineq_a,ineq_p,ossi_full,xi,var_x1,var_x2",
                   "--params-file", str(pfile), "--output", str(tmp_path / "x.csv")])
        return (rc, *capsys.readouterr())

    @pytest.mark.parametrize("branch, params, zeta", [
        *((branch, params, zeta) for branch in ("entangled", "separable")
          for params, zeta in (({"mu": 1e6}, "0.5"), ({"lambda": 1e4}, "0.5"), ({}, "1e4"))),
        ("entangled", {"mu": 1e8}, "0.5"),
        ("entangled", {}, "1e6"),
    ])
    def test_far_detuning_and_strong_hopping_run(self, branch, params, zeta, tmp_path, capsys):
        # the structural checks scale with H, so round-off at these energies
        # passes them, and the two routes agree to DISAGREEMENT_TOL
        rc, out, err = self.run_wide_both(branch, params, zeta, tmp_path, capsys)
        assert rc == 0 and err == ""
        assert float(out.split("max method disagreement ")[1].split()[0]) <= 1e-8

    def test_separable_strong_hopping_fails_on_the_routes_gap(self, tmp_path, capsys):
        # past the leak check, what fails is the closed form's phase error,
        # which grows as eps |omega| t
        rc, _, err = self.run_wide_both("separable", {}, "1e6", tmp_path, capsys)
        assert rc == 1 and err.startswith("error: the dynamics routes disagree by 1.4")
        assert err.endswith("above 1e-08\n") and "leak" not in err

    def test_huge_hopping_is_no_leak(self, tmp_path, capsys):
        # zeta = 1e160 leaves every entry finite, and its round-off is no leak
        rc = main(["--zeta-range", "0", "1e160", "--steps", "3", "3",
                   "--output", str(tmp_path / "x.csv")])
        out, err = capsys.readouterr()
        assert rc == 0 and err == "" and out.startswith("wrote 9 cells")

    @pytest.mark.filterwarnings("error")  # numpy's RuntimeWarnings fail the test
    @pytest.mark.parametrize(
        "params, named",
        [({"mu": 1e308, "eta": -1e308}, "mu=1e+308, eta=-1e+308"),
         ({"lambda": 1e-320}, "lam=1e-320 for zeta up to 0.5")],
    )
    def test_main_reports_overflowing_params(self, params, named, tmp_path, capsys):
        # finite params whose detuning overflows H(0), or its block in units of
        # lam, are named before any row runs
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(params))
        out = tmp_path / "x.csv"
        rc = main(["--params-file", str(pfile), "--zeta", "0.5", "--steps", "1", "3",
                   "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "overflows" in err and named in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # numpy's RuntimeWarnings fail the test
    @pytest.mark.parametrize(
        "params, argv",
        [({"e_g": 1e308, "e_e": 1e308}, ["--zeta", "0.5", "--steps", "1", "3"]),
         ({"e_g": -1.7e308, "e_e": -1.7e308}, ["--zeta", "0.5", "--steps", "1", "3"]),
         ({"e_g": 1e4, "e_e": 1e4}, ["--method", "both", "--steps", "21", "101"]),
         ({"mu": 1e4, "eta": 1e4}, ["--method", "both", "--steps", "21", "101"])],
    )
    def test_offsets_set_only_a_global_phase(self, params, argv, tmp_path, capsys):
        # e_g + e_e and a common part of mu and eta only add a scalar to H, so
        # neither its overflow nor its rounding reaches the output
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(params))
        runs = []
        for name, extra in (("zero.csv", []), ("offset.csv", ["--params-file", str(pfile)])):
            rc = main([*argv, *extra, "--output", str(tmp_path / name)])
            out, err = capsys.readouterr()
            runs.append((rc, out.replace(name, "OUT"), err, (tmp_path / name).read_bytes()))
        assert runs[0][0] == 0 and runs[1] == runs[0]

    def test_main_fails_closed_on_leaky_hopping(self, tmp_path, capsys, monkeypatch):
        import squeezetransfer.hamiltonian as hamiltonian
        from squeezetransfer.hilbert import standard_space

        real = hamiltonian.hopping_matrix
        space = standard_space()

        def leaky_hopping(ladders):
            # zeta * 4e-12 / sqrt(2) of leakage is below 1e-12 of the bound
            # sqrt(2) + 2 zeta on H(zeta)'s largest entry at zeta = 1, not at 20
            bad = real(ladders)
            i = space.basis_index(("e", 1, "g", 0))
            j = space.basis_index(("e", 0, "g", 0))
            bad[i, j] += 4e-12
            bad[j, i] += 4e-12
            return bad

        monkeypatch.setattr(hamiltonian, "hopping_matrix", leaky_hopping)
        assert main(["--zeta", "1", "--steps", "1", "2", "--output", str(tmp_path / "y.csv")]) == 0
        out = tmp_path / "x.csv"
        rc = main(["--zeta-range", "0", "20", "--steps", "3", "2", "--output", str(out)])
        assert rc == 1
        assert "error: Hamiltonian leaks" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows_per_block", [1, 3])
    def test_main_names_failing_row(self, rows_per_block, tmp_path, capsys, monkeypatch):
        # zeta = 0.5 is the second row: of a block of its own, or of one
        # three-row block, which is re-run a row at a time to name it
        import squeezetransfer.sweep as sweep

        # ineq_a reads no spin moments: blocks are sized by one route's amplitudes
        budget = rows_per_block * 2 * sweep._AAD_CELL_BYTES // 4
        monkeypatch.setattr(sweep, "_SWEEP_BLOCK_BYTES", budget)
        made = []
        real_blocks, real_evolve = sweep.manifold_blocks, sweep.evolve_closed_form_grid

        def recording_blocks(*args):
            made[:] = [real_blocks(*args)]
            return made[0]

        def failing_on_second_row(branch, blocks, times, out=None):
            if made[0].omegas[1, 0] in blocks.omegas[:, 0]:
                raise NumericalConsistencyError("injected failure")
            return real_evolve(branch, blocks, times, out)

        monkeypatch.setattr(sweep, "manifold_blocks", recording_blocks)
        monkeypatch.setattr(sweep, "evolve_closed_form_grid", failing_on_second_row)
        out = tmp_path / "x.csv"
        argv = ["--zeta-range", "0", "1", "--steps", "3", "2", "--observables", "ineq_a"]
        assert sweep._block_shape(config_from_args(_build_parser().parse_args(argv))) == (
            rows_per_block, [slice(0, 2)])
        rc = main([*argv, "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: row zeta=0.5: injected failure\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["closed_form", "both"])
    def test_main_names_the_row_of_a_failing_time_chunk(self, method, tmp_path, capsys,
                                                         monkeypatch):
        """The second time chunk of the only row fails: the error names the
        row, and no file is left."""
        import squeezetransfer.sweep as sweep

        monkeypatch.setattr(sweep, "_SWEEP_BLOCK_BYTES", 4 * sweep._AAD_CELL_BYTES)
        real_evolve = sweep.evolve_closed_form_grid

        def failing_after_the_first_chunk(branch, blocks, times, out=None):
            if times[0] > 0:
                raise NumericalConsistencyError("injected failure")
            return real_evolve(branch, blocks, times, out)

        monkeypatch.setattr(sweep, "evolve_closed_form_grid", failing_after_the_first_chunk)
        out = tmp_path / "x.csv"
        argv = ["--zeta", "0.5", "--steps", "1", "8", "--observables", "xi", "--method", method]
        assert sweep._block_shape(config_from_args(_build_parser().parse_args(argv))) == (
            1, [slice(0, 4), slice(4, 8)])
        assert main([*argv, "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: row zeta=0.5: injected failure\n"
        assert not out.exists()

    def test_block_failure_that_no_row_repeats_is_reported(self, monkeypatch):
        import squeezetransfer.sweep as sweep

        real_evolve = sweep.evolve_closed_form_grid

        def failing_on_blocks(branch, blocks, times, out=None):
            if blocks.omegas.shape[0] > 1:
                raise NumericalConsistencyError("injected failure")
            return real_evolve(branch, blocks, times, out)

        monkeypatch.setattr(sweep, "evolve_closed_form_grid", failing_on_blocks)
        with pytest.raises(SweepError, match=r"^rows zeta=0.0..1.0: injected failure$"):
            run_sweep(small_config())

    def test_main_fails_on_route_disagreement(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(
            [
                "--method", "both",
                "--steps", "2", "3",
                "--observables", "xi,xi_e2",
                "--output", str(out),
            ]
        )
        assert rc == 1
        assert len(out.read_text().splitlines()) == 7
        captured = capsys.readouterr()
        assert "at zeta=0, t=10" in captured.out
        assert "error:" in captured.err and "at zeta=0, t=10" in captured.err

    def test_main_names_worst_cell(self, tmp_path, capsys):
        rc = main(
            [
                "--method", "both",
                "--steps", "2", "3",
                "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "max method disagreement" in captured.out and "at zeta=" in captured.out
        assert captured.err == ""

    def test_main_rejects_nan_param(self, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        pfile.write_text('{"mu": NaN}')
        rc = main(["--params-file", str(pfile), "--output", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ['{"mu": null}', "5", '["mu"]', '"mu"', "null", '{"mu": true}', '{"eta": false}',
         '{"mu": "0.1"}', '{"mu": [0.1]}', '{"mu": {"re": 0.1}}', '{"mu": 1e999}',
         '{"mu": ' + "9" * 400 + "}", '{"zeta": null}'],
    )
    def test_main_rejects_non_number_params(self, text, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        pfile.write_text(text)
        out = tmp_path / "x.csv"
        rc = main(["--params-file", str(pfile), "--steps", "2", "3", "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert not out.exists()

    def test_main_rejects_zeta_in_params_file(self, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"zeta": 1.7}))
        rc = main(
            [
                "--params-file", str(pfile),
                "--zeta-range", "0", "1",
                "--steps", "2", "3",
                "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "--zeta" in err

    @pytest.mark.parametrize(
        "text, reason",
        [('{"mu": ', "Expecting value: line 1 column 8 (char 7)"),
         ('{"mu": "0.1"}', "mu must be a number, got '0.1'")],
    )
    def test_main_names_a_bad_params_file(self, text, reason, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        pfile.write_text(text)
        out = tmp_path / "x.csv"
        rc = main(["--params-file", str(pfile), "--steps", "2", "3", "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {pfile}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, reason", [("missing.json", "No such file or directory"),
                                              ("", "Is a directory")])
    def test_main_names_an_unreadable_params_file(self, name, reason, tmp_path, capsys):
        pfile = str(tmp_path / name)
        out = tmp_path / "x.csv"
        rc = main(["--params-file", pfile, "--steps", "2", "3", "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {pfile}: {reason}\n"
        assert not out.exists()


class TestStream:
    """main writes each sweep block as it is computed, through the writer
    that emit hands a whole result to."""

    # The default observables read no spin moments, so their blocks are sized
    # by the amplitudes: at 1001 times, blocks of 4 and 3 rows on one route,
    # of 2, 2, 2 and 1 rows on both.
    ARGS = ["--zeta-range", "0", "1.2", "--steps", "7", "1001"]
    ZETAS = GridSpec(0.0, 1.2, 7).values()

    @staticmethod
    def fail_row(monkeypatch, index, error=NumericalConsistencyError):
        """Make the closed form raise error on any block that holds zeta row
        `index`."""
        import squeezetransfer.sweep as sweep

        made = []
        real_blocks, real_evolve = sweep.manifold_blocks, sweep.evolve_closed_form_grid

        def recording_blocks(*args):
            made[:] = [real_blocks(*args)]
            return made[0]

        def failing(branch, blocks, times, out=None):
            if made[0].omegas[index, 0] in blocks.omegas[:, 0]:
                raise error("injected failure")
            return real_evolve(branch, blocks, times, out)

        monkeypatch.setattr(sweep, "manifold_blocks", recording_blocks)
        monkeypatch.setattr(sweep, "evolve_closed_form_grid", failing)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("method", list(Method))
    def test_cli_writes_the_bytes_of_emit(self, method, fmt, tmp_path, monkeypatch):
        import squeezetransfer.sweep as sweep
        from squeezetransfer import output

        both = method is Method.BOTH
        argv = [*self.ARGS, "--method", method.value, "--format", fmt]
        cfg = config_from_args(_build_parser().parse_args(argv))
        names = ("zeta", "t", *cfg.columns)
        sub = sub_block_rows(fmt, names)
        rows, chunks = sweep._block_shape(cfg)
        # writer sub-blocks start inside zeta rows, and the sweep blocks that
        # the CLI computes end inside writer sub-blocks
        assert chunks == [slice(0, 1001)]
        assert rows == (2 if both else 4) and sub % 1001 and rows * 1001 % sub
        result = run_sweep(cfg)
        encoded = {"emit": [], "cli": []}
        real = getattr(output, ENCODERS[fmt])

        def recording(values):
            encoded[side].append(np.shape(values))
            return real(values)

        monkeypatch.setattr(output, ENCODERS[fmt], recording)
        # one part: a forked part's encodings are not seen here (TestParts
        # holds the bytes of two and three parts to these)
        monkeypatch.setattr(sweep, "_part_count", lambda blocks: 1)
        side = "emit"
        emit(result, cfg.columns, fmt, str(tmp_path / side))
        side = "cli"
        assert main([*argv, "--output", str(tmp_path / side)]) == 0
        assert (tmp_path / "cli").read_bytes() == (tmp_path / "emit").read_bytes()
        # the same text encodings: each axis once, and the value sub-blocks
        # of the whole grid, whatever the sweep blocks
        assert encoded["cli"] == encoded["emit"]
        assert encoded["cli"][:2] == [(7,), (1001,)] and len(encoded["cli"]) > 4
        # var_x1 and var_x2 are one array, encoded once
        assert {shape[1] for shape in encoded["cli"][2:]} == {3 + both}

    def test_failing_row_in_a_later_block_leaves_the_target(self, tmp_path, capsys, monkeypatch):
        from squeezetransfer import output

        opened = []

        def spying_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(output, "open", spying_open, raising=False)
        self.fail_row(monkeypatch, 4)
        out = tmp_path / "out.csv"
        out.write_bytes(b"old bytes\n")
        rc = main([*self.ARGS, "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: row zeta={self.ZETAS[4]}: injected failure\n"
        # the first block went to a temporary file, which is gone
        assert len(opened) == 1 and ".tmp" in opened[0]
        assert out.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_fifo_reader_gets_the_blocks_before_a_failing_one(self, tmp_path, capsys, monkeypatch):
        import threading

        whole = tmp_path / "whole.csv"
        assert main([*self.ARGS, "--output", str(whole)]) == 0
        capsys.readouterr()
        self.fail_row(monkeypatch, 4)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, "rb") as fh:  # blocks until the writer opens it
                received.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        rc = main([*self.ARGS, "--output", str(fifo)])
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert rc == 1
        assert capsys.readouterr().err == f"error: row zeta={self.ZETAS[4]}: injected failure\n"
        # the header and the whole lines of the first block (4 rows), then EOF
        lines = whole.read_bytes().splitlines(keepends=True)
        assert received == [b"".join(lines[: 1 + 4 * 1001])]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pipe_gets_the_bytes_of_a_file(self, fmt, tmp_path, capsys):
        """--output /dev/fd/N, N a pipe's write end, which resolves to no
        path, is written in place; the summary line still goes to stdout."""
        import threading

        argv = [*self.ARGS, "--format", fmt]
        whole = tmp_path / "whole"
        assert main([*argv, "--output", str(whole)]) == 0
        summary = capsys.readouterr().out
        read, write = os.pipe()
        received = []

        def drain():
            with open(read, "rb") as fh:  # to EOF: once the test closes the write end
                received.append(fh.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        try:
            rc = main([*argv, "--output", f"/dev/fd/{write}"])
        finally:
            os.close(write)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert (rc, *capsys.readouterr()) == (
            0, summary.replace(str(whole), f"/dev/fd/{write}"), "")
        assert received == [whole.read_bytes()]
        assert [p.name for p in tmp_path.iterdir()] == ["whole"]

    @pytest.mark.parametrize("mode", ["wb", "ab"])
    def test_redirect_through_dev_stdout_keeps_the_file(self, mode, tmp_path, capsys):
        """--output /dev/stdout under a shell's `> f` (mode wb) or `>> f` (ab)
        is written through the descriptor, not by replacing f: f holds its
        earlier bytes (for >>), the bytes of a file run, then the summary."""
        whole = tmp_path / "whole.csv"
        assert main([*self.ARGS, "--output", str(whole)]) == 0
        capsys.readouterr()
        redirected = tmp_path / "f.csv"
        redirected.write_bytes(b"earlier\n")
        src = Path(squeezetransfer.__file__).resolve().parents[1]
        with open(redirected, mode) as fh:
            proc = subprocess.run(
                [sys.executable, "-m", "squeezetransfer", *self.ARGS, "--output", "/dev/stdout"],
                env={**os.environ, "PYTHONPATH": str(src)}, stdout=fh, stderr=subprocess.PIPE,
                timeout=60,
            )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert redirected.read_bytes() == (b"earlier\n" * (mode == "ab") + whole.read_bytes()
                                           + b"wrote 7007 cells to /dev/stdout\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv", "whole.csv"]

    def test_worst_cell_is_the_grids_first_argmax(self, tmp_path, capsys, monkeypatch):
        """On a real both-route run, then on disagreements tied between the
        second and the third block."""
        import squeezetransfer.sweep as sweep

        def worst_cell(argv):
            assert main([*argv, "--output", str(tmp_path / "x.csv")]) == 0
            line = capsys.readouterr().out
            grid = run_sweep(config_from_args(_build_parser().parse_args(argv)))
            d = grid.values["method_disagreement"]
            i, j = np.unravel_index(np.argmax(d), d.shape)
            cell = f"zeta={grid.zeta[i]:g}, t={grid.t[j]:g}"
            assert line.endswith(f"(max method disagreement {d[i, j]:.3e} at {cell})\n")
            return i, j

        # spin moments: blocks sized by a a^dag, 3 rows at 301 times
        argv = ["--zeta-range", "0", "1.2", "--steps", "7", "301", "--branch", "separable",
                "--observables", "ossi_full,xi", "--method", "both"]
        worst_cell(argv)
        blocks = []

        def tied(first, last):
            grid = np.zeros(np.shape(first["xi"]))
            grid[-1, 5] = 1e-9 if len(blocks) % 3 else 5e-10  # the same in blocks 2 and 3
            blocks.append(grid.shape)
            return grid

        monkeypatch.setattr(sweep, "_max_disagreement", tied)
        # one part: tied counts the blocks of this process only (TestParts
        # ties cells across parts)
        monkeypatch.setattr(sweep, "_part_count", lambda blocks: 1)
        assert worst_cell(argv) == (5, 5)  # the last row of block 2, not the row of block 3
        assert blocks == [(3, 301), (3, 301), (1, 301)] * 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_does_not_grow_with_the_grid(self, fmt, tmp_path):
        """The traced peak of a 401x401 default run is within 0.5 MiB of a
        101x401 one: main holds one block, not the (n_zeta, n_t) grids."""
        import tracemalloc

        out = str(tmp_path / f"x.{fmt}")
        args = ["--format", fmt, "--output", out]
        assert main(["--steps", "2", "3", *args]) == 0  # builds cached tables
        peaks = []
        for n_zeta in (101, 401):
            tracemalloc.start()
            try:
                assert main(["--steps", str(n_zeta), "401", *args]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5 * 2**20


    @pytest.mark.parametrize("method", ["closed_form", "both"])
    def test_peak_memory_does_not_grow_with_the_time_axis(self, method, tmp_path):
        """The traced peak of a 1x16001 run is within 0.5 MiB of a 1x2001 one:
        a row longer than a block is computed in time chunks, and the time
        axis's text is encoded a window of output._BLOCK_BYTES // 64 (2048)
        values at a time.  Holding whole rows and the whole axis's text, it
        grew by 12.6 MiB in the closed form and 83.5 MiB with both routes."""
        import tracemalloc

        args = ["--branch", "separable", "--zeta", "0.5", "--method", method,
                "--observables", "ineq_a,ineq_p,ossi_full,xi,var_x1,var_x2",
                "--output", str(tmp_path / "x.csv")]
        assert main(["--steps", "1", "3", *args]) == 0  # builds cached tables
        peaks = []
        for n_t in (2001, 16001):
            tracemalloc.start()
            try:
                assert main(["--steps", "1", str(n_t), *args]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5 * 2**20

    def test_peak_memory_of_a_long_oracle_row(self, tmp_path):
        """The traced peak of a 1x4001 numeric_oracle row is within 0.5 MiB of
        a 1x501 one: the oracle takes its rows in time sub-chunks.  In whole
        block chunks (1024 times here) it grew by about 5.6 KB a time."""
        import tracemalloc

        args = ["--branch", "separable", "--zeta", "0.5", "--method", "numeric_oracle",
                "--observables", "xi", "--output", str(tmp_path / "x.csv")]
        assert main(["--steps", "1", "3", *args]) == 0  # builds cached tables
        peaks = []
        for n_t in (501, 4001):
            tracemalloc.start()
            try:
                assert main(["--steps", "1", str(n_t), *args]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5 * 2**20


class TestParts:
    """main splits the sweep blocks into one part per CPU, each later part
    computed by a forked child; the file, stdout, stderr and exit status
    are those of one part.  The CPUs are faked, at most 3."""

    ARGS = TestStream.ARGS  # blocks of 4 and 3 rows on one route, 2, 2, 2 and 1 on both
    ZETAS = TestStream.ZETAS

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @staticmethod
    def count_forks(monkeypatch) -> list:
        """The forks of this process (a child appends to its own copy)."""
        forks, real = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
        return forks

    def run(self, argv, capsys):
        rc = main(argv)
        out, err = capsys.readouterr()
        return rc, out, err

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("method", ["closed_form", "both"])
    def test_parts_write_the_bytes_of_one_part(self, method, fmt, cpus, tmp_path, capsys,
                                               monkeypatch):
        import squeezetransfer.sweep as sweep

        argv = [*self.ARGS, "--method", method, "--format", fmt]
        cfg = config_from_args(_build_parser().parse_args(argv))
        self.cpus(monkeypatch, cpus)
        parts = sweep._part_rows(cfg)
        # parts of whole blocks; only 2 blocks on one route
        assert len(parts) == (2 if method == "closed_form" else cpus)
        assert parts[0].start == 0 and parts[-1].stop == 7
        assert all(p.stop - p.start in (2, 3, 4) for p in parts)
        forks = self.count_forks(monkeypatch)
        many = self.run([*argv, "--output", str(tmp_path / "many")], capsys)
        assert len(forks) == len(parts) - 1
        monkeypatch.setattr(sweep, "_part_count", lambda blocks: 1)
        one = self.run([*argv, "--output", str(tmp_path / "one")], capsys)
        assert len(forks) == len(parts) - 1
        assert many == (0, one[1].replace("one", "many"), "")
        assert (tmp_path / "many").read_bytes() == (tmp_path / "one").read_bytes()
        if fmt == "json":
            assert len(json.loads((tmp_path / "many").read_text())) == 7 * 1001

    @pytest.mark.parametrize("method", ["closed_form", "both"])
    def test_failing_row_in_a_child_part(self, method, tmp_path, capsys, monkeypatch):
        import squeezetransfer.sweep as sweep

        TestStream.fail_row(monkeypatch, 4)  # the second part's first row, either way
        argv = [*self.ARGS, "--method", method, "--output", str(tmp_path / "x.csv")]
        self.cpus(monkeypatch, 2)
        many = self.run(argv, capsys)
        monkeypatch.setattr(sweep, "_part_count", lambda blocks: 1)
        one = self.run(argv, capsys)
        assert many == one == (1, "", f"error: row zeta={self.ZETAS[4]}: injected failure\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fifo_gets_the_parts_before_a_failing_block(self, fmt, tmp_path, capsys,
                                                        monkeypatch):
        """Blocks of one row in 2 parts of 3 and 4 rows; row 5 fails, so the
        FIFO gets the first part and the child's first two rows.  The reader
        is a descriptor, not a thread, which would keep the run to one part;
        the file fits in the pipe's buffer."""
        import squeezetransfer.sweep as sweep

        argv = ["--zeta-range", "0", "1.2", "--steps", "7", "11", "--format", fmt]
        one_row_per_block(monkeypatch, config_from_args(_build_parser().parse_args(argv)))
        whole = tmp_path / "whole"
        assert main([*argv, "--output", str(whole)]) == 0
        capsys.readouterr()
        TestStream.fail_row(monkeypatch, 5)
        self.cpus(monkeypatch, 2)
        assert sweep._part_rows(config_from_args(_build_parser().parse_args(argv))) == [
            slice(0, 3), slice(3, 7)]
        forks = self.count_forks(monkeypatch)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            rc = main([*argv, "--output", str(fifo)])
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert rc == 1 and forks == [1]
        assert capsys.readouterr().err == f"error: row zeta={self.ZETAS[5]}: injected failure\n"
        text = whole.read_bytes()
        if fmt == "csv":  # the header and the lines of rows 0 to 4
            assert received == b"".join(text.splitlines(keepends=True)[: 1 + 5 * 11])
        else:  # "[", then the complete records of rows 0 to 4, each with its separator
            records = text.split(b"\n  }")
            assert received == b"\n  }".join(records[: 5 * 11]) + b"\n  }"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe", "whole"]

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_worst_cell_ties_keep_the_first_part(self, cpus, tmp_path, capsys, monkeypatch):
        """Every cell ties: the grid's first cell, in the first part, is the
        worst, not the first cell of a later part."""
        import squeezetransfer.sweep as sweep

        monkeypatch.setattr(sweep, "_max_disagreement",
                            lambda first, last: np.full(np.shape(first["ineq_a"]), 1e-9))
        self.cpus(monkeypatch, cpus)
        forks = self.count_forks(monkeypatch)
        rc, out, err = self.run([*self.ARGS, "--method", "both", "--output",
                                 str(tmp_path / "x.csv")], capsys)
        assert (rc, err, len(forks)) == (0, "", cpus - 1)
        assert out.endswith("(max method disagreement 1.000e-09 at zeta=0, t=0)\n")

    def test_one_part_for_one_block_one_cpu_or_another_thread(self, monkeypatch):
        import threading

        import squeezetransfer.sweep as sweep

        many = config_from_args(_build_parser().parse_args(self.ARGS))
        one_block = config_from_args(_build_parser().parse_args(["--zeta", "0.5"]))
        self.cpus(monkeypatch, 3)
        assert sweep._part_rows(many) == [slice(0, 4), slice(4, 7)]
        assert sweep._part_rows(one_block) == [slice(0, 1)]
        self.cpus(monkeypatch, 1)
        assert sweep._part_rows(many) == [slice(0, 7)]
        self.cpus(monkeypatch, 3)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert sweep._part_count(2) == 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and sweep._part_count(2) == 2

    def test_without_fork_a_run_has_one_part(self, tmp_path, capsys, monkeypatch):
        import squeezetransfer.sweep as sweep

        self.cpus(monkeypatch, 2)
        forks = self.count_forks(monkeypatch)
        parts = self.run([*self.ARGS, "--output", str(tmp_path / "parts")], capsys)
        assert forks == [1]
        monkeypatch.delattr(os, "fork")
        assert sweep._part_count(2) == 1
        children = []
        monkeypatch.setattr(sweep, "_fork", lambda *args: children.append(args))
        whole = self.run([*self.ARGS, "--output", str(tmp_path / "whole")], capsys)
        assert children == []
        assert parts == (0, whole[1].replace("whole", "parts"), "")
        assert (tmp_path / "parts").read_bytes() == (tmp_path / "whole").read_bytes()

    @staticmethod
    def benchmark_workloads(monkeypatch):
        """perfbench/workloads.py, loaded from its file."""
        import importlib.util

        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("name, blocks, parts", [
        ("grid_closed_form", [(10, 401)] * 20 + [(1, 401)], [slice(0, 100), slice(100, 201)]),
        ("oracle_states", [(5, 201)] * 10 + [(1, 201)], [slice(0, 25), slice(25, 51)]),
        ("sorensen_slice", [(1, 601), (1, 600)], [slice(0, 1)]),
    ])
    def test_benchmark_runs_are_blocked_as_pinned(self, name, blocks, parts, tmp_path,
                                                  monkeypatch):
        """The benchmark's argvs, read from its workloads: their blocks, as
        (zeta rows, times), and their parts on 2 CPUs, of whole rows.  A
        change to the block budget fails here before it moves the
        benchmark."""
        import squeezetransfer.sweep as sweep

        workloads = self.benchmark_workloads(monkeypatch)
        workload = workloads.WORKLOADS[name]
        params = tmp_path / "params.json"
        params.write_text(json.dumps(workloads.make_inputs(workload, 1).params))
        cfg = config_from_args(_build_parser().parse_args(
            workload.argv(str(params), str(tmp_path / "out"))))
        got = [(b.zeta.size, b.t.size) for b in sweep.sweep_blocks(cfg)]
        assert got == blocks
        self.cpus(monkeypatch, 2)
        assert sweep._part_rows(cfg) == parts

    def test_benchmark_columns_are_the_sweeps(self, tmp_path, monkeypatch):
        """Each workload's documented columns, after zeta and t, are those of
        the configuration that its argv makes.  Tier-1 does not collect
        perfbench/, so a drift would otherwise surface only as failed
        benchmark runs."""
        params = tmp_path / "params.json"
        params.write_text("{}")
        for workload in self.benchmark_workloads(monkeypatch).WORKLOADS.values():
            cfg = config_from_args(_build_parser().parse_args(
                workload.argv(str(params), str(tmp_path / "out"))))
            assert cfg.columns == workload.columns[2:], workload.name

    @pytest.mark.parametrize("failure", [KeyboardInterrupt, NumericalConsistencyError])
    def test_a_failing_first_part_kills_the_running_child(self, failure, tmp_path, capsys,
                                                          monkeypatch):
        """The child would sleep for a minute; the run ends at once, and the
        autouse fixture finds no child left."""
        import time

        import squeezetransfer.sweep as sweep

        parent = os.getpid()

        def evolve(branch, blocks, times, out=None):
            if os.getpid() != parent:
                time.sleep(60)
            raise failure("injected failure")

        monkeypatch.setattr(sweep, "evolve_closed_form_grid", evolve)
        self.cpus(monkeypatch, 2)
        forks = self.count_forks(monkeypatch)
        start = time.perf_counter()
        argv = [*self.ARGS, "--output", str(tmp_path / "x.csv")]
        if failure is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            rc, out, err = self.run(argv, capsys)
            assert (rc, out, err) == (1, "", "error: row zeta=0.0: injected failure\n")
        assert time.perf_counter() - start < 30 and forks == [1]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("ending, children", [
        ("no part file 1", 1), ("no part file 2", 1), ("fork 1 fails", 1), ("fork 2 fails", 1),
        ("child killed", 2), ("part file full", 2), ("defect in the child", 2)])
    def test_an_unfinished_part_is_written_by_the_run(self, ending, children, tmp_path, capsys,
                                                      monkeypatch):
        """Three parts want two part files and two forks.  A later part that
        no child finished (no part file, no fork, a child killed or failing)
        is written by the run's own process: the run exits 0 with the stdout
        and the bytes of one part, and tempfile's directory holds nothing."""
        import errno
        import io
        import signal
        import tempfile

        import squeezetransfer.sweep as sweep

        tmpdir = tmp_path / "tmpdir"
        tmpdir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
        self.cpus(monkeypatch, 3)
        forks = self.count_forks(monkeypatch)
        calls, parent = [], os.getpid()
        real_file, real_fork = tempfile.TemporaryFile, os.fork
        real_evolve = sweep.evolve_closed_form_grid

        def temporary_file():
            calls.append(1)
            if ending == f"no part file {len(calls)}":
                raise OSError(errno.EROFS, os.strerror(errno.EROFS))
            return real_file()

        def fork():
            calls.append(1)
            if ending == f"fork {len(calls)} fails":
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real_fork()

        class Full(io.BufferedRandom):
            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def evolve(branch, blocks, times, out=None):
            if os.getpid() != parent:
                if ending == "child killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise TypeError("injected defect")
            return real_evolve(branch, blocks, times, out)

        if ending.startswith("no part file"):
            monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        elif ending.startswith("fork"):
            monkeypatch.setattr(os, "fork", fork)
        elif ending == "part file full":
            monkeypatch.setattr(tempfile, "TemporaryFile", lambda: Full(real_file(buffering=0)))
        else:
            monkeypatch.setattr(sweep, "evolve_closed_form_grid", evolve)
        argv = [*self.ARGS, "--method", "both"]
        many = self.run([*argv, "--output", str(tmp_path / "many")], capsys)
        assert len(forks) == children
        monkeypatch.setattr(sweep, "_part_count", lambda blocks: 1)
        one = self.run([*argv, "--output", str(tmp_path / "one")], capsys)
        assert many == (0, one[1].replace("one", "many"), "")
        assert (tmp_path / "many").read_bytes() == (tmp_path / "one").read_bytes()
        assert list(tmpdir.iterdir()) == []

    def test_a_defect_in_a_later_part_is_raised_by_main(self, tmp_path, monkeypatch):
        """A defect in the rows of the second part, in every process: its
        child does not finish, so the run's own process writes that part and
        main raises the defect itself."""
        TestStream.fail_row(monkeypatch, 4, TypeError)  # the second part's first row
        self.cpus(monkeypatch, 2)
        forks = self.count_forks(monkeypatch)
        with pytest.raises(TypeError, match="^injected failure$"):
            main([*self.ARGS, "--output", str(tmp_path / "x.csv")])
        assert forks == [1] and list(tmp_path.iterdir()) == []

    def test_default_grid_into_a_pipe_runs_in_parts(self, tmp_path, capsys, monkeypatch):
        """--output /dev/fd/N onto a pipe that another process reads: the part
        files do not depend on the target, so the default grid runs as two
        parts, and the reader gets the bytes of a file run.  The reader is a
        process, since a thread would keep the run to one part."""
        whole, received = tmp_path / "whole.csv", tmp_path / "received.csv"
        assert main(["--output", str(whole)]) == 0
        capsys.readouterr()
        read, write = os.pipe()
        try:
            reader = subprocess.Popen(
                [sys.executable, "-c", "import shutil, sys\nwith open(sys.argv[1], 'wb') as fh:\n"
                 "    shutil.copyfileobj(sys.stdin.buffer, fh)", str(received)], stdin=read)
        finally:
            os.close(read)
        self.cpus(monkeypatch, 2)
        forks = self.count_forks(monkeypatch)
        try:
            rc = main(["--output", f"/dev/fd/{write}"])
        finally:
            os.close(write)
            assert reader.wait(timeout=60) == 0
        assert (rc, *capsys.readouterr(), forks) == (
            0, f"wrote 80601 cells to /dev/fd/{write}\n", "", [1])
        assert received.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("ending", ["two parts", "a failing row in the child",
                                        "KeyboardInterrupt"])
    def test_part_files_leave_nothing_in_the_temporary_directory(self, ending, tmp_path,
                                                                 capsys, monkeypatch):
        """The part files are made in tempfile's directory, which holds no
        file after the run, however it ends."""
        import tempfile
        import time

        import squeezetransfer.sweep as sweep

        tmpdir = tmp_path / "tmpdir"
        tmpdir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
        made, real = [], tempfile.TemporaryFile

        def temporary_file():
            file = real()
            made.append(os.path.dirname(os.readlink(f"/proc/self/fd/{file.fileno()}")))
            return file

        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        if ending == "a failing row in the child":
            TestStream.fail_row(monkeypatch, 4)
        elif ending == "KeyboardInterrupt":
            parent = os.getpid()

            def evolve(branch, blocks, times, out=None):
                if os.getpid() != parent:
                    time.sleep(60)
                raise KeyboardInterrupt

            monkeypatch.setattr(sweep, "evolve_closed_form_grid", evolve)
        self.cpus(monkeypatch, 2)
        forks = self.count_forks(monkeypatch)
        argv = [*self.ARGS, "--output", str(tmp_path / "x.csv")]
        if ending == "KeyboardInterrupt":
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert self.run(argv, capsys)[0] == (ending != "two parts")
        assert forks == [1] and made == [str(tmpdir.resolve())]
        assert list(tmpdir.iterdir()) == []

    def test_python_w_error_runs_parts_without_a_warning(self, tmp_path):
        """A fresh process, where any warning (one about forking, say) is an
        error, on a grid of two parts where the host has two CPUs."""
        src = Path(squeezetransfer.__file__).resolve().parents[1]
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "squeezetransfer", *self.ARGS,
             "--method", "both", "--output", str(out)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith(f"wrote 7007 cells to {out} (max method disagreement ")
        assert len(out.read_text().splitlines()) == 1 + 7007


def test_import_leaves_scipy_out():
    """Nor does it import fractions/decimal, or dataclasses (whose classes
    generate and compile their methods at import), or call any function that
    builds an operator or the CSV encoder's tables, so no per-run work hides
    in it."""
    src = Path(squeezetransfer.__file__).resolve().parents[1]
    code = """
import json, sys
builders = {"embed", "_tables", "_layouts", "_powers"}
calls = []

def record(frame, event, arg):
    if event == "call" and frame.f_code.co_name in builders:
        calls.append(frame.f_code.co_name)

sys.setprofile(record)
import squeezetransfer.sweep
sys.setprofile(None)
from squeezetransfer import csvtext
print(json.dumps([calls, csvtext._tables.cache_info().currsize,
                  [m for m in ("scipy", "fractions", "decimal", "dataclasses")
                   if m in sys.modules]]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], 0, []]


def test_main_freezes_the_objects_alive_at_the_call(tmp_path):
    """In a fresh process, main() moves the objects alive at the call, the
    imports' and the caller's, out of every generation the collector walks
    (gc.freeze), and still writes its file."""
    src = Path(squeezetransfer.__file__).resolve().parents[1]
    code = """
import gc, json, sys
from squeezetransfer.sweep import main
held = [object()]
tracked = lambda: any(o is held for o in gc.get_objects())
before = tracked(), gc.get_freeze_count()
status = main(["--zeta", "0.5", "--steps", "1", "3", "--output", sys.argv[1]])
print(json.dumps([before, tracked(), gc.get_freeze_count() > before[1], status]))
"""
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(out)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[True, 0], False, True, 0]
    assert len(out.read_text().splitlines()) == 1 + 3


def test_python_m_runs_the_cli():
    src = Path(squeezetransfer.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "squeezetransfer", "--help"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage: squeezetransfer")
