"""Correctness of one CLI output: shape checks plus the seeded oracle spot-check.

The expected value of every output column at each sampled cell is recomputed
through public functions only, on the full-space route that the closed form
does not use: build_hamiltonian -> evolve_numeric_oracle -> density_matrices
-> ossi / kitagawa_ueda_xi / sorensen_xi_e2.  The closed-form columns
(ineq_a, ineq_p, var_x1, var_x2) are evaluated on the coefficients of the
oracle state projected onto the manifold.
"""

from __future__ import annotations

import json
import math

from squeezetransfer.dynamics import (
    InitialState,
    ManifoldState,
    coefficients,
    density_matrices,
    evolve_numeric_oracle,
    project_amplitudes,
)
from squeezetransfer.hamiltonian import ModelParams, build_hamiltonian, extract_manifold_block
from squeezetransfer.hilbert import standard_space
from squeezetransfer.operators import collective_atomic_spin, photonic_pseudospin, quadratures
from squeezetransfer.sweep import DISAGREEMENT_TOL
from squeezetransfer.witness import (
    branch_witnesses,
    closed_form_quadrature_variance,
    kitagawa_ueda_xi,
    ossi,
    quadrature_variances,
    sorensen_xi_e2,
)

from workloads import Inputs, Workload

TOL = DISAGREEMENT_TOL
# Photon cutoff for the generic-variance gauge: X^2 on the n_max=2 space the
# sweep uses is clipped by the Fock cutoff.
GAUGE_N_MAX = 3
_MAX_MESSAGES = 5


def oracle_values(workload: Workload, inputs: Inputs) -> tuple[dict[int, dict[str, float]], float]:
    """Expected columns for each sampled cell, and the largest gap between the
    closed-form and the generic quadrature variance over those cells (a gauge)."""
    branch = InitialState(workload.branch)
    zetas, times = workload.zetas, workload.times
    space = standard_space(2)
    space_gauge = standard_space(GAUGE_N_MAX)
    expected: dict[int, dict[str, float]] = {}
    var_gap = 0.0
    for index in inputs.cells:
        zeta, t = float(zetas[index // times.size]), float(times[index % times.size])
        params = ModelParams(**inputs.params, zeta=zeta)
        h = build_hamiltonian(params, space)
        block = extract_manifold_block(h, params.lam)
        psi = evolve_numeric_oracle(branch, h, t, params.lam)
        _, rho_a, rho_p = density_matrices(psi, space)
        coeffs = coefficients(ManifoldState(project_amplitudes(psi, block), t))
        bw = branch_witnesses(coeffs, branch)
        var_cf = closed_form_quadrature_variance(coeffs, branch)
        atom_spin = collective_atomic_spin(rho_a.space)
        values = {
            "zeta": zeta,
            "t": t,
            "ineq_a": bw.ineq_a,
            "ineq_p": bw.ineq_p,
            "var_x1": var_cf,
            "var_x2": var_cf,
            "xi": kitagawa_ueda_xi(rho_a, atom_spin, 2),
            "xi_e2": sorensen_xi_e2(rho_a, atom_spin, 2),
        }
        for side, rho, spin in (
            ("atoms", rho_a, atom_spin),
            ("photons", rho_p, photonic_pseudospin(rho_p.space)),
        ):
            rep = ossi(rho, spin, 2)
            values[f"{side}_slack_a"] = rep.slack_a
            values[f"{side}_slack_b"] = rep.slack_b
            for ax in ("x", "y", "z"):
                values[f"{side}_slack_c_{ax}"] = rep.slack_c[ax]
                values[f"{side}_slack_d_{ax}"] = rep.slack_d[ax]
        expected[index] = {c: values[c] for c in ("zeta", "t") + workload.value_columns}

        h_gauge = build_hamiltonian(params, space_gauge)
        psi_gauge = evolve_numeric_oracle(branch, h_gauge, t, params.lam)
        _, _, rho_p_gauge = density_matrices(psi_gauge, space_gauge)
        generic = quadrature_variances(rho_p_gauge, quadratures(rho_p_gauge.space, 0))
        var_gap = max(var_gap, *(abs(v - var_cf) for v in generic))
    return expected, var_gap


def _read_table(path: str, output_format: str) -> tuple[tuple[str, ...], list]:
    """Header and rows; row[j] is a float, NaN for 'nan' and JSON null."""
    if output_format == "csv":
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines:
            return (), []
        return tuple(lines[0].split(",")), [_LazyRow(line) for line in lines[1:]]
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    if not records:
        return (), []
    header = tuple(records[0])
    rows = []
    for rec in records:
        if tuple(rec) != header:
            raise ValueError(f"JSON record keys {tuple(rec)} differ from {header}")
        rows.append([math.nan if v is None else float(v) for v in rec.values()])
    return header, rows


class _LazyRow:
    """A CSV line parsed only when one of its values is read."""

    __slots__ = ("line",)

    def __init__(self, line: str):
        self.line = line

    def __getitem__(self, j: int) -> float:
        return float(self.line.split(",")[j])

    def __len__(self) -> int:
        return self.line.count(",") + 1


def _mismatch(got: float, want: float) -> bool:
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) != math.isnan(want)
    return not abs(got - want) <= TOL


def check_output(
    path: str, workload: Workload, expected: dict[int, dict[str, float]]
) -> tuple[list[str], dict[str, float]]:
    """Failures found in one output file, and gauges read from it.

    Gauges: the largest method_disagreement (0 when the column is absent) and
    the number of NaN cells in the xi_e2 column (0 when absent).
    """
    gauges = {"max_method_disagreement": 0.0, "xi_e2_nan_cells": 0}
    try:
        header, rows = _read_table(path, workload.output_format)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], gauges
    failures: list[str] = []
    if header != workload.columns:
        failures.append(f"columns {header} != {workload.columns}")
        return failures, gauges
    if len(rows) != workload.n_cells:
        failures.append(f"{len(rows)} rows, expected {workload.n_cells}")
        return failures, gauges
    if any(len(row) != len(header) for row in rows):
        failures.append("a row has the wrong number of fields")
        return failures, gauges

    for index, want in expected.items():
        row = rows[index]
        for col, value in want.items():
            got = row[header.index(col)]
            if _mismatch(got, value):
                failures.append(f"cell {index} {col}: output {got!r}, oracle {value!r}")
    if "method_disagreement" in header:
        j = header.index("method_disagreement")
        disagreements = [row[j] for row in rows]
        failures.extend(
            f"row {i}: method_disagreement {d!r} > {TOL}"
            for i, d in enumerate(disagreements)
            if not d <= TOL
        )
        gauges["max_method_disagreement"] = max(
            math.inf if math.isnan(d) else d for d in disagreements
        )
    if "xi_e2" in header:
        j = header.index("xi_e2")
        gauges["xi_e2_nan_cells"] = sum(math.isnan(row[j]) for row in rows)
    if len(failures) > _MAX_MESSAGES:
        failures[_MAX_MESSAGES:] = [f"... and {len(failures) - _MAX_MESSAGES} more"]
    return failures, gauges
