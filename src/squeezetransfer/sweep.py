"""Grid sweeps over hopping strength and time, with a CSV/JSON-emitting CLI.

Every (zeta, t) cell is a pure function of the configuration.  The model
operators are built once per sweep, H(zeta) = H(0) + zeta * Hop, their
four-state blocks are projected once, and the zeta rows are computed in
blocks of consecutive rows sized by _SWEEP_BLOCK_BYTES, each written in place
into one (n_zeta, n_t) grid per column; a cell's bits do not depend on its
block.  Output is written straight from those grids, so identical
configurations give byte-identical files.
"""

from __future__ import annotations

import argparse
import enum
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .csvtext import WIDTH, g17_text
from .dynamics import (
    CoefficientSet,
    InitialState,
    ManifoldState,
    SpectralPropagator,
    coefficients,
    evolve_closed_form_grid,
    initial_vector,
    project_amplitudes,
    reduced_spaces,
    reduced_states,
)
from .hamiltonian import (
    ModelInconsistencyError,
    ModelParams,
    manifold_blocks,
    model_operators,
)
from .hilbert import HermitianOperator, NumericalConsistencyError, standard_space
from .operators import collective_atomic_spin, photonic_pseudospin
from .witness import (
    branch_witnesses,
    closed_form_quadrature_variance,
    contraction_matrix,
    density_spin_moments,
    kitagawa_ueda_xi_of,
    moment_matrix,
    moment_operators,
    ossi_of,
    sorensen_xi_e2_of,
)

DISAGREEMENT_TOL = 1e-8
# Bytes of the closed form's a a^dag stack, a block's largest array, per block
# of zeta rows: larger blocks pay less numpy call overhead and more peak RSS.
_SWEEP_BLOCK_BYTES = 1 << 18
_AAD_CELL_BYTES = 16 * np.dtype(complex).itemsize  # one cell's 4x4 a a^dag
# The failures of a row's checks, which the sweep reports with the row's zeta.
_ROW_ERRORS = (ValueError, NumericalConsistencyError)
# Bytes of CSV field buffer per block; a block's encoder arrays and text set
# the run's peak RSS, and fewer, larger blocks pay less numpy call overhead.
_CSV_BLOCK_BYTES = 1 << 17
# JSON records per block; the block's text, not the file's, is held at once.
_JSON_BLOCK_RECORDS = 1024

_OSSI_COLUMNS = tuple(
    f"{side}_slack_{name}"
    for side in ("atoms", "photons")
    for name in ("a", "b", "c_x", "c_y", "c_z", "d_x", "d_y", "d_z")
)

OBSERVABLES = ("ineq_a", "ineq_p", "ossi_full", "xi", "xi_e2", "var_x1", "var_x2")
DEFAULT_OBSERVABLES = ("ineq_a", "ineq_p", "var_x1", "var_x2")


class SweepError(RuntimeError):
    """A failed check on a zeta row, annotated with its zeta."""


class Method(enum.Enum):
    CLOSED_FORM = "closed_form"
    NUMERIC_ORACLE = "numeric_oracle"
    BOTH = "both"


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"grid bounds must be finite, got {self.start}, {self.stop}")
        if self.stop < self.start:
            raise ValueError(f"grid stop {self.stop} < start {self.start}")
        if self.steps == 1 and self.start != self.stop:
            raise ValueError(
                f"one step cannot span {self.start}..{self.stop}; give more steps, or a "
                "single value (--zeta VALUE, or equal MIN and MAX)"
            )
        if self.steps > 1 and self.start == self.stop:
            raise ValueError(
                f"{self.steps} steps over the single value {self.start} repeat it; give "
                "1 step for a single value (--zeta VALUE for a single hopping value)"
            )

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class SweepConfig:
    params: ModelParams = field(default_factory=ModelParams)
    branch: InitialState = InitialState.ENTANGLED_SYMMETRIC
    zeta_grid: GridSpec = GridSpec(0.0, 2.0, 201)
    time_grid: GridSpec = GridSpec(0.0, 20.0, 401)
    observables: tuple[str, ...] = DEFAULT_OBSERVABLES
    method: Method = Method.CLOSED_FORM

    def __post_init__(self):
        if self.params.zeta != 0:
            raise ValueError(f"params.zeta must be 0, got {self.params.zeta}; use zeta_grid")
        if self.zeta_grid.start < 0:
            raise ValueError("zeta must be non-negative")
        if self.time_grid.start < 0:
            raise ValueError("time must be non-negative")
        unknown = [o for o in self.observables if o not in OBSERVABLES]
        if unknown:
            raise ValueError(f"unknown observables: {unknown}")
        if not self.observables or len(set(self.observables)) < len(self.observables):
            raise ValueError(f"need distinct observables, got {list(self.observables) or 'none'}")

    @property
    def columns(self) -> tuple[str, ...]:
        expand = {"ossi_full": _OSSI_COLUMNS}
        return tuple(c for obs in self.observables for c in expand.get(obs, (obs,)))


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Axes zeta (n_zeta,) and t (n_t,); per column, a grid whose [i, j] is (zeta[i], t[j])."""

    zeta: np.ndarray
    t: np.ndarray
    values: dict[str, np.ndarray]
    method_disagreement: Optional[np.ndarray] = None

    def __post_init__(self):
        if np.ndim(self.zeta) != 1 or np.ndim(self.t) != 1:
            raise ValueError(f"axes must be 1-D, got {np.shape(self.zeta)}, {np.shape(self.t)}")
        shape = (self.zeta.size, self.t.size)
        for name, grid in dict(self.values, method_disagreement=self.method_disagreement).items():
            if grid is not None and np.shape(grid) != shape:
                raise ValueError(f"{name} has shape {np.shape(grid)}, not the grid's {shape}")

    def __len__(self) -> int:
        return self.zeta.size * self.t.size


def _moment_sides(observables: Sequence[str]) -> tuple[str, ...]:
    """The sides whose spin moments the observables read; xi and xi_e2 read
    only the atoms."""
    obs = set(observables)
    atoms = ("atoms",) if obs & {"ossi_full", "xi", "xi_e2"} else ()
    return atoms + (("photons",) if "ossi_full" in obs else ())


def _row_columns(
    coeffs: CoefficientSet, moments: dict[str, tuple[np.ndarray, np.ndarray]],
    config: SweepConfig,
) -> dict[str, np.ndarray]:
    """Every requested column over a stack of rows (such as both routes' rows
    of a block), from their coefficients and each side's (mean, cov) moments."""
    obs = set(config.observables)
    witnesses = variance = None
    if obs & {"ineq_a", "ineq_p"}:
        witnesses = branch_witnesses(coeffs, config.branch)
    if obs & {"var_x1", "var_x2"}:
        variance = closed_form_quadrature_variance(coeffs, config.branch)
    values: dict[str, np.ndarray] = {}
    for o in config.observables:
        if o in ("ineq_a", "ineq_p"):
            values[o] = getattr(witnesses, o)
        elif o in ("var_x1", "var_x2"):
            values[o] = variance
        elif o == "xi":
            values[o] = kitagawa_ueda_xi_of(*moments["atoms"], 2)
        elif o == "xi_e2":
            values[o] = sorensen_xi_e2_of(*moments["atoms"], 2)
        elif o == "ossi_full":
            for side, (mean, cov) in moments.items():
                rep = ossi_of(mean, cov, 2)
                values[f"{side}_slack_a"] = rep.slack_a
                values[f"{side}_slack_b"] = rep.slack_b
                for ax in ("x", "y", "z"):
                    values[f"{side}_slack_c_{ax}"] = rep.slack_c[ax]
                    values[f"{side}_slack_d_{ax}"] = rep.slack_d[ax]
    return values


def _max_disagreement(
    primary: dict[str, np.ndarray], other: dict[str, np.ndarray]
) -> np.ndarray:
    """Largest |difference| over the columns of each cell.

    NaN on both routes counts as agreement; NaN on one route only is inf.
    """
    worst = np.zeros(np.shape(next(iter(primary.values()))))
    for key, a in primary.items():
        b = other[key]
        diff = np.where(np.isnan(a) == np.isnan(b), np.abs(a - b), np.inf)
        worst = np.fmax(worst, diff)  # fmax skips the NaN of a NaN pair
    return worst


def _block_rows(n_t: int) -> int:
    """Zeta rows per block: as many as fit in _SWEEP_BLOCK_BYTES of a a^dag."""
    return max(1, _SWEEP_BLOCK_BYTES // (n_t * _AAD_CELL_BYTES))


def run_sweep(config: SweepConfig) -> SweepResult:
    """Every grid cell, as one (n_zeta, n_t) array per column, filled in blocks
    of _block_rows consecutive zeta rows.

    Per block, the closed form propagates all rows at once and contracts the
    (rows, nt, 4, 4) stack a a^dag of its amplitudes with (16, 9) moment
    matrices built once per sweep, one density_spin_moments per side.  The
    oracle builds, diagonalizes and propagates each row's H(zeta) on its own,
    and contracts the reduced states of its vectors (reduced_states) with
    contraction matrices of the reduced-space spins, also built once.  Both
    routes fill one buffer per block, so one ManifoldState and one
    _row_columns pass serve both; the oracle's coefficients are its vectors
    projected onto the manifold.  A failing block is re-run row by row, so
    that the error names the failing row's zeta.
    """
    space = standard_space()
    h0, hop = model_operators(config.params, space)
    psi0 = initial_vector(config.branch, space)
    zetas, times = config.zeta_grid.values(), config.time_grid.values()
    sides = _moment_sides(config.observables)
    closed = config.method in (Method.CLOSED_FORM, Method.BOTH)
    oracle = config.method in (Method.NUMERIC_ORACLE, Method.BOTH)
    n_routes = closed + oracle
    blocks = manifold_blocks(h0, hop, zetas, config.params.lam)
    spin_of = {"atoms": collective_atomic_spin, "photons": photonic_pseudospin}
    if closed:
        phi = blocks[0].basis
        matrices = {s: moment_matrix(moment_operators(spin_of[s](space)), phi) for s in sides}
    if oracle:
        spins = {s: spin_of[s](reduced_spaces(space)[s]) for s in sides}
        contractions = {s: contraction_matrix(moment_operators(spin)) for s, spin in spins.items()}

    def block_columns(rows: slice) -> dict[str, np.ndarray]:
        """Every column over the rows, as (n_routes, rows, nt) arrays: the
        closed form first when it runs, then the oracle."""
        shape = (n_routes, rows.stop - rows.start, times.size)
        amps = np.empty((4, *shape), dtype=complex)
        means = {s: np.empty(shape + (3,)) for s in sides}
        covs = {s: np.empty(shape + (3, 3)) for s in sides}
        if closed:
            amps[:, 0] = evolve_closed_form_grid(config.branch, blocks[rows], times)
            a = np.moveaxis(amps[:, 0], 0, -1)
            rho = a[..., :, None] * a.conj()[..., None, :] if sides else None  # a a^dag
            for s, m in matrices.items():
                means[s][0], covs[s][0] = density_spin_moments(rho, m)
        if oracle:
            for i, (zeta, block) in enumerate(zip(zetas[rows], blocks[rows])):
                # model_operators' last step is h += zeta * hop: the same
                # float arithmetic as building H(zeta) directly.
                h = HermitianOperator(space, h0.matrix + zeta * hop.matrix)
                full = SpectralPropagator(h, config.params.lam).evolve_grid(psi0, times)
                amps[:, -1, i] = project_amplitudes(full, block)
                rho = reduced_states(full, space) if sides else {}
                for s, c in contractions.items():
                    means[s][-1, i], covs[s][-1, i] = density_spin_moments(rho[s], c)
        moments = {s: (means[s], covs[s]) for s in sides}
        return _row_columns(coefficients(ManifoldState(amps, times)), moments, config)

    values = {c: np.empty((zetas.size, times.size)) for c in config.columns}
    disagreement = np.empty((zetas.size, times.size)) if n_routes == 2 else None
    step = _block_rows(times.size)
    for start in range(0, zetas.size, step):
        rows = slice(start, min(start + step, zetas.size))
        try:
            columns = block_columns(rows)
        except _ROW_ERRORS as exc:
            raise _row_error(block_columns, zetas, rows, exc) from exc
        for name, grid in values.items():
            grid[rows] = columns[name][0]
        if disagreement is not None:
            disagreement[rows] = _max_disagreement(
                {k: v[0] for k, v in columns.items()}, {k: v[1] for k, v in columns.items()}
            )
    return SweepResult(zetas, times, values, disagreement)


def _row_error(
    block_columns: Callable[[slice], dict], zetas: np.ndarray, rows: slice, exc: Exception
) -> SweepError:
    """The error of the first row of a failed block that fails on its own, with
    its zeta; the rows are re-run one at a time on this error path only."""
    for i in range(rows.start, rows.stop):
        try:
            block_columns(slice(i, i + 1))
        except _ROW_ERRORS as row_exc:
            return SweepError(f"row zeta={zetas[i]}: {row_exc}")
    return SweepError(f"rows zeta={zetas[rows.start]}..{zetas[rows.stop - 1]}: {exc}")


def _csv_block_rows(n_columns: int) -> int:
    """Rows per CSV block: as many as fit in _CSV_BLOCK_BYTES of field buffer."""
    return max(1, _CSV_BLOCK_BYTES // (n_columns * (WIDTH + 1)))


def _cell_blocks(result: SweepResult, grids: list[np.ndarray], rows: int) -> Iterator[tuple]:
    """Zeta-major blocks of `rows` cells: their zeta and t indices and grid values."""
    flat = [np.ravel(g) for g in grids]
    n_cells = len(result)
    for i in range(0, n_cells, rows):
        zi, tj = np.divmod(np.arange(i, min(i + rows, n_cells)), result.t.size)
        values = np.empty((zi.size, len(flat)))
        for k, col in enumerate(flat):
            values[:, k] = col[i : i + rows]
        yield zi, tj, values


def _csv_chunks(names: list[str], result: SweepResult, grids: list[np.ndarray]) -> Iterator[str]:
    """CSV text in blocks of rows, so the whole file is never held at once.

    Each axis is encoded once and its text gathered per block; the value
    columns are encoded once per block.  The fields are laid out in a (rows,
    columns, WIDTH + 1) byte buffer, zero-padded, with the separator in the
    last byte of each field, and the zero bytes dropped.
    """
    yield ",".join(names) + "\n"
    zeta_text, t_text = g17_text(result.zeta), g17_text(result.t)
    for zi, tj, values in _cell_blocks(result, grids, _csv_block_rows(len(names))):
        buf = np.zeros((zi.size, len(names), WIDTH + 1), np.uint8)
        buf[:, 0, :-1] = zeta_text[zi]
        buf[:, 1, :-1] = t_text[tj]
        buf[:, 2:, :-1] = g17_text(values)
        buf[:, :, -1] = ord(",")
        buf[:, -1, -1] = ord("\n")
        buf = buf.ravel()
        yield np.compress(buf != 0, buf).tobytes().decode("ascii")


_JSON_NON_FINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(values: np.ndarray) -> list[str]:
    """Each value as json.dumps writes a float (float.__repr__, with inf as
    Infinity), except that nan becomes null."""
    values = np.asarray(values, dtype=np.float64)
    text = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        text = [_JSON_NON_FINITE.get(s, s) for s in text]
    return text


def _json_chunks(names: list[str], result: SweepResult, grids: list[np.ndarray]) -> Iterator[str]:
    """The bytes of json.dumps(records, indent=2) + "\n", one record per cell
    in zeta-major order, in blocks of _JSON_BLOCK_RECORDS records: each axis
    is converted to text once and gathered per block, each value column is
    converted once per block, and the text fills a fixed record template."""
    keys = (json.dumps(name).replace("%", "%%") for name in names)
    record = "  {\n" + ",\n".join(f"    {key}: %s" for key in keys) + "\n  }"
    zeta_text, t_text = (np.array(_json_text(a), dtype=object) for a in (result.zeta, result.t))
    yield "[\n"
    for k, (zi, tj, values) in enumerate(_cell_blocks(result, grids, _JSON_BLOCK_RECORDS)):
        text = (zeta_text[zi].tolist(), t_text[tj].tolist(), *map(_json_text, values.T))
        yield (",\n" if k else "") + ",\n".join(map(record.__mod__, zip(*text)))
    yield "\n]\n"


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write a sibling temporary file, then move it over `path` (never over a
    directory).  A failure is an OSError that names `path`, not the temporary file."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(tmp):  # only when the write or the replace failed
            os.remove(tmp)


# The output formats: the --format choices, and the writer of each.
_WRITERS = {"csv": _csv_chunks, "json": _json_chunks}


def emit(
    result: SweepResult,
    columns: Sequence[str],
    output_format: str,
    path: str,
    include_disagreement: bool = False,
) -> None:
    """Write the result's columns to disk atomically; byte-stable for identical inputs."""
    if not len(result):
        raise ValueError("no cells to emit")
    names = ["zeta", "t", *columns]
    grids = [result.values[c] for c in columns]
    if include_disagreement:
        if result.method_disagreement is None:
            raise ValueError("the result has no method disagreement to emit")
        names.append("method_disagreement")
        grids.append(result.method_disagreement)
    chunks = _WRITERS.get(output_format)
    if chunks is None:
        raise ValueError(f"unknown output format {output_format!r}")
    _write_atomic(path, chunks(names, result, grids))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezetransfer",
        description=(
            "Sweep witness observables of the two-photon-exchange coupled-cavity "
            "model over a (zeta, t) grid and emit a figure-ready dataset."
        ),
    )
    parser.add_argument(
        "--branch",
        choices=[s.value for s in InitialState],
        default=InitialState.ENTANGLED_SYMMETRIC.value,
        help="initial state: entangled symmetric two-photon state, or all "
        "photons in cavity 1 (default: entangled)",
    )
    parser.add_argument("--zeta", type=float, help="single hopping value (units of lambda)")
    parser.add_argument(
        "--zeta-range", type=float, nargs=2, metavar=("MIN", "MAX"),
        help="hopping range (units of lambda; default: 0 2)",
    )
    parser.add_argument(
        "--time-range", type=float, nargs=2, metavar=("MIN", "MAX"), default=[0.0, 20.0],
        help="time window in units of 1/lambda (default: 0 20)",
    )
    parser.add_argument(
        "--steps", type=int, nargs=2, metavar=("NZETA", "NTIME"), default=[201, 401]
    )
    parser.add_argument(
        "--observables",
        default=",".join(DEFAULT_OBSERVABLES),
        help=f"comma-separated subset of {','.join(OBSERVABLES)}",
    )
    parser.add_argument(
        "--method",
        choices=[m.value for m in Method],
        default="closed_form",
    )
    parser.add_argument("--format", choices=list(_WRITERS), default="csv")
    parser.add_argument("--output", default="sweep.csv")
    parser.add_argument(
        "--params-file",
        help="JSON file with flat keys among: omega, mu, eta, lambda (alias lam), e_g, e_e",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> SweepConfig:
    params = ModelParams()
    if args.params_file:
        with open(args.params_file, "r", encoding="utf-8") as fh:
            mapping = json.load(fh)
        if isinstance(mapping, dict) and "zeta" in mapping:
            raise ValueError(
                "zeta is not a --params-file key; give it with --zeta or --zeta-range"
            )
        params = ModelParams.from_mapping(mapping)
    if args.zeta is None:
        zeta_grid = GridSpec(*(args.zeta_range or (0.0, 2.0)), args.steps[0])
    elif args.zeta_range is None:
        zeta_grid = GridSpec(args.zeta, args.zeta, 1)
    else:
        raise ValueError("give either --zeta or --zeta-range, not both")
    return SweepConfig(
        params=params,
        branch=InitialState(args.branch),
        zeta_grid=zeta_grid,
        time_grid=GridSpec(args.time_range[0], args.time_range[1], args.steps[1]),
        observables=tuple(s.strip() for s in args.observables.split(",")),
        method=Method(args.method),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        result = run_sweep(config)
        emit(result, config.columns, args.format, args.output,
             include_disagreement=config.method is Method.BOTH)
    except (ValueError, SweepError, ModelInconsistencyError, NumericalConsistencyError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = f"wrote {len(result)} cells to {args.output}"
    if config.method is not Method.BOTH:
        print(summary)
        return 0
    disagreement = result.method_disagreement
    i, j = np.unravel_index(np.argmax(disagreement), disagreement.shape)
    worst = disagreement[i, j]
    cell = f"zeta={result.zeta[i]:g}, t={result.t[j]:g}"
    print(f"{summary} (max method disagreement {worst:.3e} at {cell})")
    if not worst <= DISAGREEMENT_TOL:
        print(f"error: the dynamics routes disagree by {worst:.3e} at {cell}, "
              f"above {DISAGREEMENT_TOL:g}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
