"""Grid sweeps over hopping strength and time, with a CSV/JSON-emitting CLI.

Every (zeta, t) cell is a pure function of the configuration, with zeta in
units of lam and t in units of 1/lam.  The model operators are built once
per sweep, H(zeta) = H(0) + zeta * lam * Hop, their four-state blocks are
projected once, and the grid is computed in blocks sized by
_SWEEP_BLOCK_BYTES: consecutive zeta rows over the whole t axis, or, for a
row too long for one block, that row's time chunks; the full-space
oracle takes each of its rows of a block in time sub-chunks of at most
_ORACLE_CHUNK_TIMES times.  A cell's bits depend neither on its block nor
on its sub-chunk, and a failing block is re-run a row at a time so that its
error names a zeta row.  Under Method.BOTH the last column,
method_disagreement, is each cell's largest difference between the two
routes' columns, held like any other.  The CLI writes each block as it is computed, so a run
holds one block, not the grid nor a whole row, and identical configurations
give byte-identical files.

The CLI cuts the blocks' rows into one contiguous part per CPU that the
process may run on (at most one per block of rows).  It builds the model
once, then forks a child for each later part, which writes that part's
records to an unlinked file; it writes the first part itself and appends
the children's bytes in zeta order.  The file, the messages and the exit
status are those of one part: the first failing row in zeta order is the
error, and the worst cell is the grid's first argmax.
"""

from __future__ import annotations

import argparse
import enum
import functools
import json
import math
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterator, Optional, Sequence

import numpy as np

from .dynamics import (
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
from .output import WRITERS, emit_blocks, open_part, read_part, write_part
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
# Bytes of a block's largest array: larger blocks pay less numpy call
# overhead and more peak RSS.
_SWEEP_BLOCK_BYTES = 1 << 18
_AAD_CELL_BYTES = 16 * np.dtype(complex).itemsize  # one cell's 4x4 a a^dag
# Times in a sub-chunk of an oracle row, chosen by timing a 40001-time row:
# sub-chunks of 73 to 220 times ran no slower than whole chunks, within the
# spread of runs, and 293 times raised the peak RSS.  The row's arrays take
# about 4 KB a time at their peak (reduced_states), so about 0.5 MiB here.
_ORACLE_CHUNK_TIMES = 133
# The failures of a row's checks, which the sweep reports with the row's zeta.
_ROW_ERRORS = (ValueError, NumericalConsistencyError)

_SPINS = {"atoms": collective_atomic_spin, "photons": photonic_pseudospin}


def _ossi(c, m, b):  # Toth et al., PRA 79, 042334 (2009)
    return dict(zip(_TABLE["ossi_full"][0], [v for s in _SPINS for v in ossi_of(*m[s], 2).slacks]))


_witnesses = lambda c, m, b: vars(branch_witnesses(c, b))
_variance = lambda c, m, b: dict.fromkeys(
    ("var_x1", "var_x2"), closed_form_quadrature_variance(c, b))
# Each observable's column names in output order, the sides whose spin moments
# it reads, and its function of (coefficients, {side: (mean, cov)}, branch),
# which returns by name its columns and those of the observables sharing it.
_TABLE = {
    "ineq_a": (("ineq_a",), (), _witnesses),
    "ineq_p": (("ineq_p",), (), _witnesses),
    "ossi_full": (tuple(f"{side}_slack_{name}" for side in _SPINS for name in (
        "a", "b", "c_x", "c_y", "c_z", "d_x", "d_y", "d_z")), tuple(_SPINS), _ossi),
    "xi": (("xi",), ("atoms",), lambda c, m, b: {"xi": kitagawa_ueda_xi_of(*m["atoms"], 2)}),
    "xi_e2": (("xi_e2",), ("atoms",),
              lambda c, m, b: {"xi_e2": sorensen_xi_e2_of(*m["atoms"], 2)}),
    "var_x1": (("var_x1",), (), _variance),
    "var_x2": (("var_x2",), (), _variance),
}
OBSERVABLES = tuple(_TABLE)
DEFAULT_OBSERVABLES = ("ineq_a", "ineq_p", "var_x1", "var_x2")


class SweepError(RuntimeError):
    """A failed check on a zeta row, annotated with its zeta."""


# The failures that the CLI reports as one error line and exit status 1.
_CLI_ERRORS = (ValueError, SweepError, ModelInconsistencyError, NumericalConsistencyError, OSError)


class Method(enum.Enum):
    CLOSED_FORM = "closed_form"
    NUMERIC_ORACLE = "numeric_oracle"
    BOTH = "both"


@dataclass(frozen=True)
class GridSpec:
    """`steps` evenly spaced values from start to stop: the zeta axis, whose
    errors name the CLI's options for it; a TimeGrid's name the time axis's."""

    start: float
    stop: float
    steps: int
    # The errors for one step over a span, and for several over one value.
    _DEGENERATE: ClassVar[tuple[str, str]] = (
        "one step cannot span {0.start}..{0.stop}; give more steps, or a single value "
        "(--zeta VALUE, or equal MIN and MAX)",
        "{0.steps} steps over the single value {0.start} repeat it; give 1 step for a "
        "single value (--zeta VALUE for a single hopping value)",
    )

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"grid bounds must be finite, got {self.start}, {self.stop}")
        if self.stop < self.start:
            raise ValueError(f"grid stop {self.stop} < start {self.start}")
        if self.steps == 1 and self.start != self.stop:
            raise ValueError(self._DEGENERATE[0].format(self))
        if self.steps > 1 and self.start == self.stop:
            raise ValueError(self._DEGENERATE[1].format(self))

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


class TimeGrid(GridSpec):
    """The time axis: a GridSpec whose errors name the CLI's time options."""

    _DEGENERATE = (
        "one time step cannot span {0.start}..{0.stop}; give more time steps (NTIME of "
        "--steps), or a single time (equal MIN and MAX of --time-range)",
        "{0.steps} time steps over the single time {0.start} repeat it; give 1 time step "
        "for a single time (NTIME of --steps)",
    )


@dataclass(frozen=True)
class SweepConfig:
    params: ModelParams = field(default_factory=ModelParams)
    branch: InitialState = InitialState.ENTANGLED_SYMMETRIC
    zeta_grid: GridSpec = GridSpec(0.0, 2.0, 201)
    time_grid: GridSpec = TimeGrid(0.0, 20.0, 401)
    observables: tuple[str, ...] = DEFAULT_OBSERVABLES
    method: Method = Method.CLOSED_FORM

    def __post_init__(self):
        if self.params.zeta != 0:
            raise ValueError(f"params.zeta must be 0, got {self.params.zeta}; use zeta_grid")
        if self.zeta_grid.start < 0:
            raise ValueError("zeta must be non-negative")
        if self.time_grid.start < 0:
            raise ValueError("time must be non-negative")
        if unknown := [o for o in self.observables if o not in _TABLE]:
            raise ValueError(f"unknown observables: {unknown}")
        if not self.observables or len(set(self.observables)) < len(self.observables):
            raise ValueError(f"need distinct observables, got {list(self.observables) or 'none'}")

    @property
    def columns(self) -> tuple[str, ...]:
        """The observables' columns, then method_disagreement under Method.BOTH."""
        both = ("method_disagreement",) * (self.method is Method.BOTH)
        return tuple(c for obs in self.observables for c in _TABLE[obs][0]) + both


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Axes zeta (n_zeta,) and t (n_t,); per column, a grid whose [i, j] is (zeta[i], t[j])."""

    zeta: np.ndarray
    t: np.ndarray
    values: dict[str, np.ndarray]

    def __post_init__(self):
        if np.ndim(self.zeta) != 1 or np.ndim(self.t) != 1:
            raise ValueError(f"axes must be 1-D, got {np.shape(self.zeta)}, {np.shape(self.t)}")
        shape = (self.zeta.size, self.t.size)
        for name, grid in self.values.items():
            if np.shape(grid) != shape:
                raise ValueError(f"{name} has shape {np.shape(grid)}, not the grid's {shape}")

    def __len__(self) -> int:
        return self.zeta.size * self.t.size


def _moment_sides(observables: Sequence[str]) -> tuple[str, ...]:
    """The sides whose spin moments the observables read, in _SPINS order."""
    return tuple(s for s in _SPINS if any(s in _TABLE[obs][1] for obs in observables))


def _row_columns(coeffs, moments, config: SweepConfig) -> dict[str, np.ndarray]:
    """The observables' columns over a stack of rows (such as both routes'
    rows of a block), from one call of each _TABLE function they read."""
    values = {}
    for function in dict.fromkeys(_TABLE[obs][2] for obs in config.observables):
        values.update(function(coeffs, moments, config.branch))
    return {c: values[c] for obs in config.observables for c in _TABLE[obs][0]}


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


def _block_shape(config: SweepConfig) -> tuple[int, list[slice]]:
    """A sweep block's zeta rows, and the time chunks of each row.  A cell takes
    a a^dag's bytes if spin moments are read, else every route's 4 amplitudes.
    Rows that fit in _SWEEP_BLOCK_BYTES go as many to a block as fit, over the
    whole t axis; a longer row is a block of its own, cut into the fewest time
    chunks that fit, as even as they can be, the longer ones first.  A chunk
    has at least 2 times: numpy multiplies a one-column matrix through BLAS's
    matrix-vector route, whose sums round differently."""
    routes = 1 + (config.method is Method.BOTH)
    cell = _AAD_CELL_BYTES if _moment_sides(config.observables) else routes * _AAD_CELL_BYTES // 4
    fit, nt = max(1, _SWEEP_BLOCK_BYTES // cell), config.time_grid.steps
    return max(1, fit // nt), _time_chunks(nt, fit)


def _time_chunks(nt: int, fit: int) -> list[slice]:
    """nt times cut into the fewest chunks of at most fit times, as even as
    they can be, the longer ones first, each of at least 2 times (or one
    chunk of nt < 2)."""
    chunks = max(1, min(-(-nt // fit), nt // 2))
    edges = [-(-k * nt // chunks) for k in range(chunks + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def run_sweep(config: SweepConfig) -> SweepResult:
    """Every grid cell, as one (n_zeta, n_t) array per column: the blocks of
    sweep_blocks, each written in place as it is taken; an array named twice
    stays one."""
    zetas, times = config.zeta_grid.values(), config.time_grid.values()
    values = {}
    cell = 0
    for block in sweep_blocks(config):
        i, j = divmod(cell, times.size)  # the blocks come in cell order
        region = slice(i, i + block.zeta.size), slice(j, j + block.t.size)
        cell += len(block)
        made = {}
        for name, grid in block.values.items():
            if name not in values:
                values[name] = made.setdefault(id(grid), np.empty((zetas.size, times.size)))
            values[name][region] = grid
    return SweepResult(zetas, times, values)


def sweep_blocks(config: SweepConfig) -> Iterator[SweepResult]:
    """The sweep as a stream of SweepResults, one per block of _block_shape:
    consecutive zeta rows over the whole t axis, or one time chunk of a row
    too long for a block; in cell order, zeta-major.  A cell's bits do not
    depend on its block.  The model is built by this call (see _sweep), so
    its errors come before any block; each block is computed when it is
    taken, and the stream keeps none."""
    return _sweep(config)(slice(None))


def _sweep(config: SweepConfig) -> Callable[[slice], Iterator[SweepResult]]:
    """Build and check the model and the moment matrices once; return the
    function of a contiguous zeta row range that gives its stream of blocks
    (sweep_blocks), one per block of _block_shape from its first row; a
    cell's bits do not depend on the range.

    Per block, the closed form propagates all rows at once and contracts the
    (rows, times, 4, 4) stack a a^dag of its amplitudes with (16, 9) moment
    matrices built once per sweep, one density_spin_moments per side, and
    lets go of that stack before the oracle runs.  The oracle builds and
    diagonalizes each row's H(zeta) on its own, once for all of the row's
    time chunks, propagates it, and contracts the reduced states of its
    vectors (reduced_states) with contraction matrices of the reduced-space
    spins, also built once.  It takes each row's share of a block in time
    sub-chunks (_time_chunks) of at most _ORACLE_CHUNK_TIMES times, so its
    row arrays stay cache-sized whatever the block.  Both routes fill one
    buffer per block, the closed form in place, so one ManifoldState and one
    _row_columns pass serve both; the oracle's coefficients are its vectors
    projected onto the manifold.  Under Method.BOTH the block's last column
    is method_disagreement, over the closed form's columns and the oracle's.
    A failing block is re-run a row at a time over its times, each oracle
    row in one piece, so that the error names the first row that fails alone,
    with the figures (a time range, a largest deviation) of the block's
    times: a row's largest deviation passes just when each sub-chunk's does.
    """
    space = standard_space()
    h0, hop = model_operators(config.params, space)
    psi0 = initial_vector(config.branch, space)
    zetas, times = config.zeta_grid.values(), config.time_grid.values()
    sides = _moment_sides(config.observables)
    closed = config.method in (Method.CLOSED_FORM, Method.BOTH)
    oracle = config.method in (Method.NUMERIC_ORACLE, Method.BOTH)
    n_routes = closed + oracle
    hoppings = zetas * config.params.lam  # zeta is in units of lam
    blocks = manifold_blocks(h0, hop, hoppings, config.params.lam)
    if closed:
        matrices = {s: moment_matrix(moment_operators(_SPINS[s](space)), blocks.basis)
                    for s in sides}
    if oracle:
        reduced = reduced_spaces(space)
        contractions = {s: contraction_matrix(moment_operators(_SPINS[s](reduced[s])))
                        for s in sides}

    @functools.lru_cache(maxsize=1)  # a row's time chunks come one after another
    def propagator(i: int) -> SpectralPropagator:
        # model_operators' last step is h += zeta * hop: the same float
        # arithmetic as building H(zeta) directly.
        h = HermitianOperator(space, h0.matrix + hoppings[i] * hop.matrix)
        return SpectralPropagator(h, config.params.lam)

    def block_columns(
        rows: slice, t: slice, chunk: int = _ORACLE_CHUNK_TIMES
    ) -> dict[str, np.ndarray]:
        """Every column over the rows and the times t, as (n_routes, rows,
        times) arrays: the closed form first when it runs, then the oracle,
        whose rows run in time sub-chunks of at most chunk times."""
        shape = (n_routes, rows.stop - rows.start, t.stop - t.start)
        amps = np.empty((4, *shape), dtype=complex)
        means = {s: np.empty(shape + (3,)) for s in sides}
        covs = {s: np.empty(shape + (3, 3)) for s in sides}
        if closed:
            evolve_closed_form_grid(config.branch, blocks[rows], times[t], amps[:, 0])
            if sides:
                a = np.moveaxis(amps[:, 0], 0, -1)
                rho = a[..., :, None] * a.conj()[..., None, :]  # a a^dag
                for s, m in matrices.items():
                    means[s][0], covs[s][0] = density_spin_moments(rho, m)
                del rho  # before the oracle's rows
        if oracle:
            for k in range(shape[1]):
                for u in _time_chunks(shape[2], chunk):
                    full = propagator(rows.start + k).evolve_grid(psi0, times[t][u])
                    amps[:, -1, k, u] = project_amplitudes(full, blocks)
                    rho = reduced_states(full, space) if sides else {}
                    del full
                    for s, c in contractions.items():
                        means[s][-1, k, u], covs[s][-1, k, u] = density_spin_moments(rho[s], c)
                    del rho  # before the next sub-chunk's state
        moments = {s: (means[s], covs[s]) for s in sides}
        return _row_columns(coefficients(ManifoldState(amps, times[t])), moments, config)

    def block(rows: slice, t: slice) -> SweepResult:
        try:
            columns = block_columns(rows, t)
        except _ROW_ERRORS as exc:
            for i in range(rows.start, rows.stop):  # the first row that fails alone
                try:
                    block_columns(slice(i, i + 1), t, chunk=t.stop - t.start)
                except _ROW_ERRORS as row_exc:
                    raise SweepError(f"row zeta={zetas[i]}: {row_exc}") from exc
            raise SweepError(
                f"rows zeta={zetas[rows.start]}..{zetas[rows.stop - 1]}: {exc}") from exc
        # the closed form's half first when it runs, the oracle's last
        first, last = ({k: views.setdefault(id(v), v[r]) for k, v in columns.items()}
                       for views, r in (({}, 0), ({}, -1)))
        if n_routes == 2:
            first["method_disagreement"] = _max_disagreement(first, last)
        return SweepResult(zetas[rows], times[t], first)

    step, chunks = _block_shape(config)

    def stream(rows: slice) -> Iterator[SweepResult]:
        start, stop, _ = rows.indices(zetas.size)
        return (block(slice(i, min(i + step, stop)), t)
                for i in range(start, stop, step) for t in chunks)

    return stream


def emit(
    result: SweepResult,
    columns: Sequence[str],
    output_format: str,
    path: str,
) -> None:
    """Write the result's columns to disk atomically, byte-stable for
    identical inputs: output.emit_blocks of the result as its one block."""
    if not len(result):
        raise ValueError("no cells to emit")
    if missing := [c for c in columns if c not in result.values]:
        raise ValueError(f"the result has no columns {missing} to emit")
    emit_blocks(result.zeta, result.t, [result], columns, output_format, path)


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
    parser.add_argument("--steps", type=int, nargs=2, metavar=("NZETA", "NTIME"))
    parser.add_argument(
        "--observables",
        default=",".join(DEFAULT_OBSERVABLES),
        help=f"comma-separated subset of {','.join(_TABLE)}",
    )
    parser.add_argument(
        "--method",
        choices=[m.value for m in Method],
        default="closed_form",
    )
    parser.add_argument("--format", choices=list(WRITERS), default="csv")
    parser.add_argument("--output", help="default: sweep.FORMAT")
    parser.add_argument(
        "--params-file",
        help="JSON file with flat keys among: omega, mu, eta, lambda (alias lam), e_g, e_e, "
        "in one energy unit; omega, e_g and e_e set only a global phase",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> SweepConfig:
    params = ModelParams()
    if args.params_file:
        try:
            with open(args.params_file, "r", encoding="utf-8") as fh:
                mapping = json.load(fh)
            if isinstance(mapping, dict) and "zeta" in mapping:
                raise ValueError(
                    "zeta is not a --params-file key; give it with --zeta or --zeta-range"
                )
            params = ModelParams.from_mapping(mapping)
        except (OSError, ValueError) as exc:  # OSError: a file that cannot be read
            reason = getattr(exc, "strerror", None) or exc
            raise ValueError(f"{args.params_file}: {reason}") from exc
    steps = args.steps or (201 if args.zeta is None else 1, 401)
    if args.zeta is None:
        zeta_grid = GridSpec(*(args.zeta_range or (0.0, 2.0)), steps[0])
    elif args.zeta_range is None:
        zeta_grid = GridSpec(args.zeta, args.zeta, steps[0])
    else:
        raise ValueError("give either --zeta or --zeta-range, not both")
    return SweepConfig(
        params=params,
        branch=InitialState(args.branch),
        zeta_grid=zeta_grid,
        time_grid=TimeGrid(args.time_range[0], args.time_range[1], steps[1]),
        observables=tuple(s.strip() for s in args.observables.split(",")),
        method=Method(args.method),
    )


def _part_count(blocks: int) -> int:
    """The parts of a CLI run of `blocks` blocks of rows (_block_shape's
    rows, whatever its time chunks): one per CPU this process may run on, at
    most one per block of rows.  One part where the process cannot fork
    safely: without os.fork, os.sched_getaffinity or unlinked files
    (os.O_TMPFILE), off the main thread, or with another Python thread
    alive."""
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "O_TMPFILE")):
        return 1
    if threading.current_thread() is not threading.main_thread() or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), blocks)


def _part_rows(config: SweepConfig) -> list[slice]:
    """The zeta rows of each part of a CLI run, in zeta order: _part_count
    contiguous runs of whole blocks of rows, as even as they allow, so a
    row's time chunks stay in one part and a one-row run has one part.  The
    first part has no more blocks of rows than any other, since its process
    also copies the others' bytes."""
    n, step = config.zeta_grid.steps, _block_shape(config)[0]
    blocks = -(-n // step)
    parts = _part_count(blocks)
    edges = [min(n, step * (k * blocks // parts)) for k in range(parts + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _tracked(blocks: Iterator[SweepResult], worst: list) -> Iterator[SweepResult]:
    """The blocks, keeping in worst the largest method disagreement so far
    and its (zeta, t) cell; a tie keeps the earlier cell, as argmax does."""
    for block in blocks:
        grid = block.values["method_disagreement"]
        i, j = np.unravel_index(np.argmax(grid), grid.shape)
        if grid[i, j] > worst[0]:
            worst[:] = grid[i, j], block.zeta[i], block.t[j]
        yield block


@dataclass
class _Child:
    """A forked process writing one part: its pid, 0 once it is reaped, and
    the read end of the pipe it reports through."""

    pid: int
    report: int


def _fork(run: Callable[..., list], *args) -> _Child:
    """Fork a child that runs run(*args) and reports, as JSON through a
    pipe, the worst cell that it returns or the error that ended it.  The
    child prints nothing, and leaves only through os._exit, never into the
    caller."""
    report, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(report)
        os.close(write)
        raise
    if pid == 0:
        try:
            os.close(report)
            try:
                result = {"worst": run(*args)}
            except _CLI_ERRORS as exc:
                result = {"error": str(exc)}
            except Exception as exc:  # a defect, which the parent raises again
                result = {"crash": f"{type(exc).__name__}: {exc}"}
            with open(write, "w", encoding="utf-8") as fh:
                json.dump(result, fh)
        finally:
            os._exit(0)
    os.close(write)
    return _Child(pid, report)


def _joined(children: list[_Child], files: list[int], worsts: list) -> Iterator[bytes]:
    """The children's parts in zeta order, each once its child has exited:
    its bytes, then the error that ended it, if any; each worst cell is
    appended to worsts in that order."""
    for child, fd in zip(children, files):
        with open(child.report, "rb", closefd=False) as fh:
            report = fh.read()  # to end of file: the child has exited
        _, status = os.waitpid(child.pid, 0)
        child.pid = 0
        if not report:
            raise RuntimeError(f"a sweep part's process ended without a report ({status=})")
        report = json.loads(report)
        yield from read_part(fd)
        if "error" in report:
            raise SweepError(report["error"])
        if "crash" in report:
            raise RuntimeError(f"a sweep part failed: {report['crash']}")
        worsts.append(report["worst"])


def _reap(children: list[_Child]) -> None:
    """Kill each child not yet reaped, then reap it; close every pipe."""
    for child in children:
        if child.pid:
            from signal import SIGKILL  # only on a failure: the module is not loaded otherwise

            os.kill(child.pid, SIGKILL)
            os.waitpid(child.pid, 0)
        os.close(child.report)


def _part_files(path: str, count: int) -> list[int]:
    """count part files beside path's target (output.open_part), or none if
    one cannot be made there; the run then has one part."""
    files = []
    try:
        for _ in range(count):
            files.append(open_part(path))
    except OSError:
        for fd in files:
            os.close(fd)
        return []
    return files


def _write(
    config: SweepConfig,
    stream: Callable[[slice], Iterator[SweepResult]],
    output_format: str,
    path: str,
) -> list:
    """Write the sweep of stream (see _sweep) to path in the parts of
    _part_rows; return the worst cell of them all (_tracked), the first in
    zeta order of a tie, or -inf under one route.  Each later part is
    written by a forked child to an unlinked part file and appended, in zeta
    order, after the first, which this process writes: the file, and the
    first failing row in zeta order, are those of one part.  Every child is
    reaped on every path out, killed first if it still runs."""
    zetas, times = config.zeta_grid.values(), config.time_grid.values()
    both = config.method is Method.BOTH
    rows = _part_rows(config)
    files = _part_files(path, len(rows) - 1)
    if not files:
        rows = [slice(0, zetas.size)]

    def blocks(part: slice, worst: list) -> Iterator[SweepResult]:
        return _tracked(stream(part), worst) if both else stream(part)

    def write_child_part(part: slice, fd: int) -> list:
        worst = [-np.inf, 0.0, 0.0]
        write_part(fd, zetas[part], times, blocks(part, worst), config.columns,
                   output_format, path)
        return worst

    children, worsts = [], [[-np.inf, 0.0, 0.0]]
    try:
        for part, fd in zip(rows[1:], files):
            children.append(_fork(write_child_part, part, fd))
        emit_blocks(zetas[rows[0]], times, blocks(rows[0], worsts[0]), config.columns,
                    output_format, path, _joined(children, files, worsts))
    finally:
        _reap(children)
        for fd in files:
            os.close(fd)
    return max(worsts, key=lambda worst: worst[0])  # a tie keeps the earlier part's cell


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.output is None:
        args.output = f"sweep.{args.format}"
    try:
        if not args.output:
            raise ValueError("--output is empty; give a file path")
        config = config_from_args(args)
        # the largest method disagreement, at (zeta, t)
        worst = _write(config, _sweep(config), args.format, args.output)
    except _CLI_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = f"wrote {config.zeta_grid.steps * config.time_grid.steps} cells to {args.output}"
    if config.method is not Method.BOTH:
        print(summary)
        return 0
    disagreement, zeta, t = worst
    cell = f"zeta={zeta:g}, t={t:g}"
    print(f"{summary} (max method disagreement {disagreement:.3e} at {cell})")
    if not disagreement <= DISAGREEMENT_TOL:
        print(f"error: the dynamics routes disagree by {disagreement:.3e} at {cell}, "
              f"above {DISAGREEMENT_TOL:g}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
