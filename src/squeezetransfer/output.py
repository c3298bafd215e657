"""The dataset files: CSV or JSON bytes of a stream of sweep blocks, written
atomically.

A block is a SweepResult over consecutive zeta rows and the whole t axis;
the blocks of one file come in zeta order and share that t axis.  Each block
is written as it is taken, in sub-blocks of cells, so memory grows neither
with the grid nor with the file, and identical blocks give identical bytes.
An array that a block holds under several column names is encoded once per
sub-block, and its text copied into each of those columns.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .csvtext import WIDTH, g17_text, json_text

if TYPE_CHECKING:
    from .sweep import SweepResult

# Bytes of CSV field or JSON record buffer per sub-block; a sub-block's
# encoder arrays and text set the run's peak RSS, and fewer, larger ones pay
# less numpy call overhead.
_BLOCK_BYTES = 1 << 17
# Bytes of cell values gathered from the blocks before any of them is
# written.  Computing a block and writing text each evict the other's cache
# contents, so the writer takes several blocks' cells at a time: alternating
# per block cost about 10% of a default CSV run's time.  The buffer is reused,
# and adds about 0.1-0.2 MB to the peak RSS.
_GATHER_BYTES = 1 << 17


def _block_rows(row_bytes: int) -> int:
    """Rows per sub-block: as many as fit in _BLOCK_BYTES of buffer."""
    return max(1, _BLOCK_BYTES // row_bytes)


def _csv_block_rows(n_columns: int) -> int:
    """Rows per CSV sub-block, of n_columns fields of WIDTH + 1 bytes."""
    return _block_rows(n_columns * (WIDTH + 1))


def _cell_blocks(
    blocks: Iterable[SweepResult], n_t: int, names: list[str], rows: int
) -> Iterator[tuple]:
    """Zeta-major sub-blocks of `rows` cells of the stream, the last one
    shorter: their zeta and t indices, the values of each distinct array of
    the columns names[2:], and for each column the index of its array there.

    A column whose array is another column's, such as one array under two
    names, is gathered once.  The cells are gathered across block boundaries
    into one buffer of whole sub-blocks, about _GATHER_BYTES of values, whose
    sub-blocks are then handed out in turn; so the sub-blocks do not depend on
    the blocks, unless a block shares its arrays among the columns unlike the
    block before it, which ends the sub-block there.  Each sub-block's values
    are a view of that buffer, valid until the next sub-block is taken.  If a
    block fails, the cells of the blocks before it come first, then its error.
    """
    columns, values, filled, start = None, np.empty((0, 0)), 0, 0
    error = None
    try:
        for block in blocks:
            grids = dict(block.values, method_disagreement=block.method_disagreement)
            arrays = {id(grids[name]): grids[name] for name in names[2:]}
            position = {key: k for k, key in enumerate(arrays)}
            index = [position[id(grids[name])] for name in names[2:]]
            if index != columns:
                yield from _sub_blocks(values[:filled], start, n_t, rows, columns)
                filled, start, columns = 0, start + filled, index
                size = rows * max(1, _GATHER_BYTES // (rows * 8 * max(1, len(arrays))))
                values = np.empty((size, len(arrays)))
            flat = [np.ravel(grid) for grid in arrays.values()]
            i = 0
            while i < len(block):
                n = min(len(values) - filled, len(block) - i)
                for k, col in enumerate(flat):
                    values[filled : filled + n, k] = col[i : i + n]
                filled, i = filled + n, i + n
                if filled == len(values):
                    yield from _sub_blocks(values, start, n_t, rows, columns)
                    filled, start = 0, start + filled
    except Exception as exc:  # from a block: it is raised once the cells before it are out
        error = exc
    yield from _sub_blocks(values[:filled], start, n_t, rows, columns)
    if error is not None:
        raise error


def _sub_blocks(
    values: np.ndarray, start: int, n_t: int, rows: int, columns: list[int]
) -> Iterator[tuple]:
    """The sub-blocks of `rows` cells of gathered values whose first cell is
    `start`: their zeta and t indices, values and column indices."""
    for i in range(0, len(values), rows):
        cells = np.arange(start + i, start + min(i + rows, len(values)))
        yield (*np.divmod(cells, n_t), values[i : i + rows], columns)


def _csv_chunks(
    names: list[str], zeta: np.ndarray, t: np.ndarray, blocks: Iterable[SweepResult]
) -> Iterator[bytes]:
    """CSV bytes in sub-blocks of rows, so the whole file is never held at once.

    Each axis is encoded once and its text gathered per sub-block; each
    distinct value array is encoded once per sub-block, and its text copied
    into every column of that array.  The fields are laid out in one reused
    (rows, columns, WIDTH + 1) byte buffer, zero-padded, with the separator
    in the last byte of each field; every byte of a sub-block's rows is
    written, and the zero bytes are dropped in one pass.
    """
    yield (",".join(names) + "\n").encode()
    zeta_text, t_text = g17_text(zeta), g17_text(t)
    rows = _csv_block_rows(len(names))
    fields = np.empty((rows, len(names), WIDTH + 1), np.uint8)
    fields[:, :, -1] = ord(",")
    fields[:, -1, -1] = ord("\n")
    for zi, tj, values, columns in _cell_blocks(blocks, t.size, names, rows):
        buf = fields[:zi.size]
        buf[:, 0, :-1] = zeta_text.take(zi, axis=0)
        buf[:, 1, :-1] = t_text.take(tj, axis=0)
        buf[:, 2:, :-1] = g17_text(values).take(columns, axis=1)
        yield buf.tobytes().translate(None, b"\0")


def _json_record(names: list[str]) -> tuple[np.ndarray, list[int]]:
    """The bytes of one JSON record with WIDTH zero bytes for each value, and
    the offset of each value's slot.  The record starts with its separator
    from the record before it; the keys are json.dumps of the names, which
    is ASCII and holds no zero byte."""
    parts, slots = [b",\n  {\n"], []
    for k, name in enumerate(names):
        parts.append(f"    {json.dumps(name)}: ".encode())
        slots.append(sum(map(len, parts)))
        parts += [bytes(WIDTH), b",\n" if k < len(names) - 1 else b"\n"]
    parts.append(b"  }")
    return np.frombuffer(b"".join(parts), np.uint8), slots


def _json_chunks(
    names: list[str], zeta: np.ndarray, t: np.ndarray, blocks: Iterable[SweepResult]
) -> Iterator[bytes]:
    """The bytes of json.dumps(records, indent=2) + "\n", one record per cell
    in zeta-major order, in sub-blocks of records, so the whole file is never
    held at once.

    As in _csv_chunks, each axis is encoded once and each distinct value
    array once per sub-block.  The records are laid out in one reused
    (records, record bytes) buffer, filled once with the keys, indentation,
    braces and separators; each sub-block writes its values' zero-padded
    text into their slots, and the zero bytes are dropped in one pass.  The
    file's first record has its separator zeroed, so it is dropped too.
    """
    record, slots = _json_record(names)
    zeta_text, t_text = json_text(zeta), json_text(t)
    buffer = np.empty((_block_rows(record.size), record.size), np.uint8)
    buffer[:] = record
    buffer[0, :2] = 0
    yield b"[\n"
    for zi, tj, values, columns in _cell_blocks(blocks, t.size, names, len(buffer)):
        buf = buffer[:zi.size]
        buf[:, slots[0]:slots[0] + WIDTH] = zeta_text.take(zi, axis=0)
        buf[:, slots[1]:slots[1] + WIDTH] = t_text.take(tj, axis=0)
        text = json_text(values)
        for slot, column in zip(slots[2:], columns):
            buf[:, slot:slot + WIDTH] = text[:, column]
        yield buf.tobytes().translate(None, b"\0")
        buffer[0, :2] = record[:2]
    yield b"\n]\n"


def _write_atomic(path: str, chunks: Iterable[bytes]) -> None:
    """Write the bytes of `chunks` to `path`'s real target (symlinks resolved,
    so a link survives) through a temporary file beside it that then replaces
    it, never over a directory.  The file is binary: the chunks are its
    bytes, with no text layer to encode them again.  An existing target that
    is not a regular file, such as a FIFO or a device, is written in place:
    replacing it would delete it.  A failure is an OSError that names `path`,
    not the target or the temporary file."""
    target = os.path.realpath(path)
    if os.path.isdir(target):
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    in_place = os.path.exists(target) and not os.path.isfile(target)
    tmp = target if in_place else f"{target}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
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
