"""The benchmark's workloads and the inputs each one draws from its seed.

Every workload is one fixed `squeezetransfer` CLI configuration.  The seed
only chooses the model detunings (written to a params file, so no program
change can special-case the default parameters) and the output cells that
the oracle spot-check recomputes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

# Cells per run that the spot-check recomputes through the full-space route.
SPOT_CELLS = 12
DETUNING_RANGE = (-0.2, 0.2)

# The documented output columns, spelled out rather than imported from the
# sweep, so that the check does not follow a change to the program's own list.
_OSSI_COLUMNS = tuple(
    f"{side}_slack_{name}"
    for side in ("atoms", "photons")
    for name in ("a", "b", "c_x", "c_y", "c_z", "d_x", "d_y", "d_z")
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    branch: str
    zeta: tuple[float, float, int]
    time: tuple[float, float, int]
    observables: tuple[str, ...]
    method: str = "closed_form"
    output_format: str = "csv"

    def argv(self, params_path: str, output_path: str) -> list[str]:
        z0, z1, nz = self.zeta
        t0, t1, nt = self.time
        zeta = ["--zeta", repr(z0)] if nz == 1 else ["--zeta-range", repr(z0), repr(z1)]
        return [
            "--branch", self.branch,
            *zeta,
            "--time-range", repr(t0), repr(t1),
            "--steps", str(nz), str(nt),
            "--observables", ",".join(self.observables),
            "--method", self.method,
            "--format", self.output_format,
            "--params-file", params_path,
            "--output", output_path,
        ]

    @property
    def zetas(self) -> np.ndarray:
        return _grid(*self.zeta)

    @property
    def times(self) -> np.ndarray:
        return _grid(*self.time)

    @property
    def n_cells(self) -> int:
        return self.zeta[2] * self.time[2]

    @property
    def value_columns(self) -> tuple[str, ...]:
        cols: list[str] = []
        for obs in self.observables:
            cols.extend(_OSSI_COLUMNS if obs == "ossi_full" else [obs])
        return tuple(cols)

    @property
    def columns(self) -> tuple[str, ...]:
        """Every column of the output, in order, as the CLI documents it."""
        extra = ("method_disagreement",) if self.method == "both" else ()
        return ("zeta", "t") + self.value_columns + extra


def _grid(start: float, stop: float, steps: int) -> np.ndarray:
    return np.array([start]) if steps == 1 else np.linspace(start, stop, steps)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid_closed_form",
            why="the paper's figure dataset: full 201x401 grid, closed form, CSV; "
            "stresses per-cell coefficients, per-zeta Hamiltonian builds and emit",
            branch="entangled",
            zeta=(0.0, 2.0, 201),
            time=(0.0, 20.0, 401),
            observables=("ineq_a", "ineq_p", "var_x1", "var_x2"),
        ),
        Workload(
            name="oracle_states",
            why="the cross-check run before trusting a dataset: both dynamics "
            "routes and the generic density-matrix witnesses",
            branch="separable",
            zeta=(0.0, 2.0, 51),
            time=(0.0, 20.0, 201),
            observables=("ineq_a", "ineq_p", "ossi_full", "xi", "var_x1", "var_x2"),
            method="both",
        ),
        Workload(
            name="sorensen_slice",
            why="one zeta, so model build is negligible; the Sorensen optimizer "
            "dominates and the JSON emit path runs",
            branch="separable",
            zeta=(0.5, 0.5, 1),
            time=(0.0, 20.0, 1201),
            observables=("xi_e2", "xi"),
            output_format="json",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    params: dict[str, float]
    cells: tuple[int, ...]  # flat zeta-major indices into the output rows


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Same seed, same params file and same spot-check cells."""
    rng = random.Random(seed)
    params = {"mu": rng.uniform(*DETUNING_RANGE), "eta": rng.uniform(*DETUNING_RANGE)}
    cells = tuple(sorted(rng.sample(range(workload.n_cells), SPOT_CELLS)))
    return Inputs(params, cells)
