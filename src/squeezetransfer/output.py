"""The dataset files: CSV or JSON text of a stream of sweep blocks, written
atomically.

A block is a SweepResult over consecutive zeta rows and the whole t axis;
the blocks of one file come in zeta order and share that t axis.  Each block
is written as it is taken, in sub-blocks of cells, so memory grows neither
with the grid nor with the file, and identical blocks give identical bytes.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .csvtext import WIDTH, g17_text

if TYPE_CHECKING:
    from .sweep import SweepResult

# Bytes of CSV field buffer per sub-block; a sub-block's encoder arrays and
# text set the run's peak RSS, and fewer, larger ones pay less numpy call
# overhead.
_CSV_BLOCK_BYTES = 1 << 17
# JSON records per sub-block; its text, not the file's, is held at once.
_JSON_BLOCK_RECORDS = 1024
# Bytes of cell values gathered from the blocks before any of them is
# written.  Computing a block and writing text each evict the other's cache
# contents, so the writer takes several blocks' cells at a time: alternating
# per block cost about 10% of a default CSV run's time.  The buffer is reused,
# and adds about 0.1-0.2 MB to the peak RSS.
_GATHER_BYTES = 1 << 17


def _csv_block_rows(n_columns: int) -> int:
    """Rows per CSV sub-block: as many as fit in _CSV_BLOCK_BYTES of field buffer."""
    return max(1, _CSV_BLOCK_BYTES // (n_columns * (WIDTH + 1)))


def _cell_blocks(
    blocks: Iterable[SweepResult], n_t: int, names: list[str], rows: int
) -> Iterator[tuple]:
    """Zeta-major sub-blocks of `rows` cells of the stream, the last one
    shorter: their zeta and t indices and values of the columns names[2:].

    The cells are gathered across block boundaries into one buffer of whole
    sub-blocks, about _GATHER_BYTES of values, whose sub-blocks are then
    handed out in turn; so the sub-blocks do not depend on the blocks.  Each
    sub-block's values are a view of that buffer, valid until the next
    sub-block is taken.  If a block fails, the cells of the blocks before it
    come first, then its error.
    """
    n_columns = len(names) - 2
    size = rows * max(1, _GATHER_BYTES // (rows * 8 * max(1, n_columns)))
    values, filled, start = np.empty((size, n_columns)), 0, 0
    error = None
    try:
        for block in blocks:
            grids = dict(block.values, method_disagreement=block.method_disagreement)
            flat = [np.ravel(grids[name]) for name in names[2:]]
            i = 0
            while i < len(block):
                n = min(size - filled, len(block) - i)
                for k, col in enumerate(flat):
                    values[filled : filled + n, k] = col[i : i + n]
                filled, i = filled + n, i + n
                if filled == size:
                    yield from _sub_blocks(values, start, n_t, rows)
                    filled, start = 0, start + size
    except Exception as exc:  # from a block: it is raised once the cells before it are out
        error = exc
    yield from _sub_blocks(values[:filled], start, n_t, rows)
    if error is not None:
        raise error


def _sub_blocks(values: np.ndarray, start: int, n_t: int, rows: int) -> Iterator[tuple]:
    """The sub-blocks of `rows` cells of gathered values whose first cell is
    `start`: their zeta and t indices, and values."""
    for i in range(0, len(values), rows):
        cells = np.arange(start + i, start + min(i + rows, len(values)))
        yield (*np.divmod(cells, n_t), values[i : i + rows])


def _csv_chunks(
    names: list[str], zeta: np.ndarray, t: np.ndarray, blocks: Iterable[SweepResult]
) -> Iterator[str]:
    """CSV text in sub-blocks of rows, so the whole file is never held at once.

    Each axis is encoded once and its text gathered per sub-block; the value
    columns are encoded once per sub-block.  The fields are laid out in a
    (rows, columns, WIDTH + 1) byte buffer, zero-padded, with the separator
    in the last byte of each field, and the zero bytes dropped.
    """
    yield ",".join(names) + "\n"
    zeta_text, t_text = g17_text(zeta), g17_text(t)
    for zi, tj, values in _cell_blocks(blocks, t.size, names, _csv_block_rows(len(names))):
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


def _json_chunks(
    names: list[str], zeta: np.ndarray, t: np.ndarray, blocks: Iterable[SweepResult]
) -> Iterator[str]:
    """The bytes of json.dumps(records, indent=2) + "\n", one record per cell
    in zeta-major order, in sub-blocks of _JSON_BLOCK_RECORDS records: each
    axis is converted to text once and gathered per sub-block, each value
    column is converted once per sub-block, and the text fills a fixed
    record template."""
    keys = (json.dumps(name).replace("%", "%%") for name in names)
    record = "  {\n" + ",\n".join(f"    {key}: %s" for key in keys) + "\n  }"
    zeta_text, t_text = (np.array(_json_text(a), dtype=object) for a in (zeta, t))
    yield "[\n"
    for k, (zi, tj, values) in enumerate(_cell_blocks(blocks, t.size, names, _JSON_BLOCK_RECORDS)):
        text = (zeta_text[zi].tolist(), t_text[tj].tolist(), *map(_json_text, values.T))
        yield (",\n" if k else "") + ",\n".join(map(record.__mod__, zip(*text)))
    yield "\n]\n"


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write `path`'s real target (symlinks resolved, so a link survives)
    through a temporary file beside it that then replaces it, never over a
    directory.  An existing target that is not a regular file, such as a FIFO
    or a device, is written in place: replacing it would delete it.  A
    failure is an OSError that names `path`, not the target or the temporary file."""
    target = os.path.realpath(path)
    if os.path.isdir(target):
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    in_place = os.path.exists(target) and not os.path.isfile(target)
    tmp = target if in_place else f"{target}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        if not in_place:
            os.replace(tmp, target)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if not in_place and os.path.exists(tmp):  # only when the write or the replace failed
            os.remove(tmp)


# The output formats: the --format choices, and the writer of each.
WRITERS = {"csv": _csv_chunks, "json": _json_chunks}


def emit_blocks(
    zeta: np.ndarray,
    t: np.ndarray,
    blocks: Iterable[SweepResult],
    columns: Sequence[str],
    output_format: str,
    path: str,
    include_disagreement: bool = False,
) -> None:
    """Write the columns of a stream of blocks over the axes zeta and t, such
    as sweep.sweep_blocks, to `path` atomically (see _write_atomic), each
    block as it is taken.

    The format is checked, and the target checked and opened, before the
    first block is taken.  An error from a block propagates after the
    temporary file is removed, or, for a target written in place, after the
    complete lines of the blocks before it.
    """
    chunks = WRITERS.get(output_format)
    if chunks is None:
        raise ValueError(f"unknown output format {output_format!r}")
    names = ["zeta", "t", *columns]
    if include_disagreement:
        names.append("method_disagreement")
    _write_atomic(path, chunks(names, zeta, t, blocks))
