"""The dataset files: CSV or JSON bytes of a stream of sweep blocks, written
atomically.

A block is a SweepResult over consecutive zeta rows and the whole t axis,
or over one row and a run of consecutive times; the blocks of one file come
in cell order, zeta-major, over the file's axes.  A file's columns are zeta,
t and the columns its caller names, each read from the blocks' values.
One generator, records, takes the blocks as they come and writes them in
sub-blocks of cells, and an axis's text is encoded a window at a time, all
sized by one budget, _BLOCK_BYTES; so memory grows neither with the grid
nor with the file, and along the t axis only by that axis's text, 32 bytes
a time, when several rows read it again (see _axis_text).  Identical
blocks give identical bytes.  An array that a block holds under several
column names is encoded once per sub-block, and its text copied into each
of those columns.  Every record carries its leading separator, and the
file drops its first one, so the records of a later part of a file's
blocks are bytes that emit_blocks can append (its `parts`).
"""

from __future__ import annotations

import json
import os
import re
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from .csvtext import WIDTH, g17_text, json_text

if TYPE_CHECKING:
    from .sweep import SweepResult

# Bytes of record buffer per sub-block, which also size the gathered cell
# values and an axis's text window (see records and _axis_text).  A
# sub-block's encoder arrays and text set the run's peak RSS, and fewer,
# larger ones pay less numpy call overhead.
_BLOCK_BYTES = 1 << 17


def _csv(names: list[str]) -> tuple:
    """CSV: a header line of the names, then one line of fields per cell."""
    record = ((bytes(WIDTH) + b",") * len(names))[:-1] + b"\n"
    return (g17_text, (",".join(names) + "\n").encode(), record,
            range(0, len(record), WIDTH + 1), 0, b"")


def _json(names: list[str]) -> tuple:
    """JSON: json.dumps(records, indent=2) + "\n", one record per cell.  A
    record starts with its separator from the record before it, and the
    file drops its first one; the keys are json.dumps of the names, which
    is ASCII and holds no zero byte."""
    parts, slots = [b",\n  {\n"], []
    for k, name in enumerate(names):
        parts.append(f"    {json.dumps(name)}: ".encode())
        slots.append(sum(map(len, parts)))
        parts += [bytes(WIDTH), b",\n" if k < len(names) - 1 else b"\n"]
    parts.append(b"  }")
    return json_text, b"[\n", b"".join(parts), slots, 2, b"\n]\n"


# The output formats: the --format choices, and the function of the column
# names that gives each format's text encoder, head, record bytes with WIDTH
# zero bytes for each value, the offsets of those slots, the count of leading
# bytes that the file drops from its first record, and tail.
WRITERS = {"csv": _csv, "json": _json}


def _axis_text(
    encode: Callable, axis: np.ndarray, reread: bool
) -> Callable[[np.ndarray], np.ndarray]:
    """The function of indices that gives the text of those values of the
    axis, encoded a window of _BLOCK_BYTES // 64 values at a time, which is
    longer than any sub-block, of at most _BLOCK_BYTES // 66 records (zeta
    and t alone).  An axis that the cells read once, in ascending order
    (zeta, or the t axis of one row), is encoded a window at a time as they
    reach it, from the first index that the window lacks, so that no run
    holds a long axis's text.  An axis that they read again (reread: the t axis of
    several rows) is held whole, 32 bytes a value, since encoding it again
    for each row would cost as much as one more column."""
    size = _BLOCK_BYTES // 64
    if reread:
        text = np.empty((axis.size, WIDTH), np.uint8)
        for i in range(0, axis.size, size):
            text[i:i + size] = encode(axis[i:i + size])
        return lambda index: text.take(index, axis=0)
    window = [0, encode(axis[:size])]  # its first index and its text

    def text_of(index: np.ndarray) -> np.ndarray:
        first, last = index[0], index[-1]  # ascending
        if not window[0] <= first <= last < window[0] + len(window[1]):
            window[:] = first, encode(axis[first:first + size])
        return window[1].take(index - window[0], axis=0)

    return text_of


def records(
    zeta: np.ndarray,
    t: np.ndarray,
    blocks: Iterable[SweepResult],
    columns: Sequence[str],
    output_format: str,
) -> Iterator[bytes]:
    """The records of the columns of the blocks over the axes zeta and t in
    the format output_format, as emit_blocks writes them, each with its
    separator, one chunk per zeta-major sub-block of cells, so the whole file
    is never held at once.  If a block fails, the records of the blocks
    before it come first, then its error.

    The cells are gathered across block boundaries into one buffer of whole
    sub-blocks, about _BLOCK_BYTES of values, with one column for each
    distinct array of the columns (one array under two names is gathered
    once).  Computing a block and writing text each evict the other's cache
    contents, so the buffer is written out only when it is full, at the
    end, or at a block that shares its arrays among the columns unlike the
    block before it; alternating per block cost about 10% of a default CSV
    run's time.  Each sub-block's values are encoded at once, and
    each array's text copied into the slot of every column of that array;
    each axis is encoded a window at a time (see _axis_text).  The records
    are laid out in one reused (records, record bytes) buffer, filled once
    with the record's constant bytes; every slot of a sub-block's records is
    written, and the zero bytes are dropped in one pass.
    """
    encode, _, record, slots, *_ = WRITERS[output_format](["zeta", "t", *columns])
    record = np.frombuffer(record, np.uint8)
    buffer = np.empty((max(1, _BLOCK_BYTES // record.size), record.size), np.uint8)
    buffer[:] = record
    rows = len(buffer)
    zeta_text = _axis_text(encode, zeta, reread=False)
    t_text = _axis_text(encode, t, reread=zeta.size > 1)
    blocks, block, i, error = iter(blocks), None, 0, None  # the block taken, its next cell
    index, gathered = None, None  # the array of each column in the block, and in values
    values, filled, start = np.empty((0, 0)), 0, 0  # the gathered cells, their count, the first's
    while True:
        if block is None or i == len(block):
            try:
                block, i = next(blocks, None), 0
            except Exception as exc:  # from a block: raised once the records before it are out
                block, error = None, exc
            if block is not None:
                grids = block.values
                arrays = {id(grids[name]): grids[name] for name in columns}
                position = {key: k for k, key in enumerate(arrays)}
                index = [position[id(grids[name])] for name in columns]
                flat = [np.ravel(grid) for grid in arrays.values()]
        if block is not None and index == gathered and filled < len(values):
            n = min(len(values) - filled, len(block) - i)
            for k, col in enumerate(flat):
                values[filled:filled + n, k] = col[i:i + n]
            filled, i = filled + n, i + n
            continue
        for j in range(0, filled, rows):
            zi, tj = np.divmod(np.arange(start + j, start + min(j + rows, filled)), t.size)
            buf = buffer[:zi.size]
            text = encode(values[j:j + zi.size])
            fields = [zeta_text(zi), t_text(tj), *(text[:, k] for k in gathered)]
            for slot, field in zip(slots, fields):
                buf[:, slot:slot + WIDTH] = field
            del text, fields, field  # freed before the next encode, which sets the peak RSS
            yield buf.tobytes().translate(None, b"\0")
        if block is None:
            break
        start, filled = start + filled, 0
        if index != gathered:
            gathered = index
            size = rows * max(1, _BLOCK_BYTES // (rows * 8 * max(1, len(flat))))
            values = np.empty((size, len(flat)))
    if error is not None:
        raise error


def _chunks(
    zeta: np.ndarray, t: np.ndarray, blocks: Iterable[SweepResult], columns: Sequence[str],
    output_format: str, parts: Iterable[bytes] = (),
) -> Iterator[bytes]:
    """The bytes of the file: its head, the records (see records), less the
    first one's leading separator, the bytes of the later parts, and its
    tail."""
    _, head, *_, skip, tail = WRITERS[output_format](["zeta", "t", *columns])
    body = records(zeta, t, blocks, columns, output_format)
    yield head
    yield next(body, b"")[skip:]
    yield from body
    yield from parts
    yield tail


def _descriptor(path: str) -> int | None:
    """The open descriptor that path names (/dev/stdout, /dev/stderr,
    /dev/fd/N or /proc/self/fd/N), or None."""
    path = {"/dev/stdout": "/dev/fd/1", "/dev/stderr": "/dev/fd/2"}.get(path, path)
    named = re.fullmatch(r"/(?:dev|proc/self)/fd/([0-9]+)", path)
    return int(named[1]) if named else None


def _write_atomic(path: str, chunks: Iterable[bytes]) -> None:
    """Write the bytes of `chunks` to `path`'s real target (symlinks resolved,
    so a link survives) through a temporary file beside it that then replaces
    it, never over a directory.  The file is binary: the chunks are its
    bytes, with no text layer to encode them again.  A target named through
    an open descriptor (_descriptor) is written through that descriptor, at
    its offset and in its mode: replacing the file it resolves to would leave
    the descriptor, such as a shell's `> f` or `>> f`, on the old file.  Any
    other existing target that is not a regular file, such as a FIFO or a
    device, is written in place, through `path`: replacing it would delete
    it.  A failure is an OSError that names `path`, not the target or the
    temporary file."""
    target, fd = os.path.realpath(path), _descriptor(path)
    if os.path.isdir(target):
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    in_place = fd is not None or os.path.exists(path) and not os.path.isfile(path)
    tmp = path if in_place else f"{target}.tmp{os.getpid()}"
    try:
        with open(tmp if fd is None else fd, "wb", closefd=fd is None) as fh:
            fh.writelines(chunks)
        if not in_place:
            os.replace(tmp, target)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if not in_place and os.path.exists(tmp):  # only when the write or the replace failed
            os.remove(tmp)


def emit_blocks(
    zeta: np.ndarray,
    t: np.ndarray,
    blocks: Iterable[SweepResult],
    columns: Sequence[str],
    output_format: str,
    path: str,
    parts: Iterable[bytes] = (),
) -> None:
    """Write the columns of a stream of blocks over the axes zeta and t, such
    as sweep.sweep_blocks, to `path` atomically (see _write_atomic), each
    block as it is taken; then `parts`, the bytes of the records of the
    file's later parts (see records), before the file's tail.

    The format is checked, and the target checked and opened, before the
    first block is taken.  An error from a block or a part propagates after
    the temporary file is removed, or, for a target written in place, after
    the complete lines of the blocks and parts before it.
    """
    if output_format not in WRITERS:
        raise ValueError(f"unknown output format {output_format!r}")
    if not path:
        raise ValueError("empty output path ''")
    _write_atomic(path, _chunks(zeta, t, blocks, columns, output_format, parts))

