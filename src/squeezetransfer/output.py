"""The dataset files: CSV or JSON bytes of a stream of sweep blocks, written
atomically.

A block is a SweepResult over consecutive zeta rows and the whole t axis,
or over one row and a run of consecutive times; the blocks of one file come
in cell order, zeta-major, over the file's axes.  A file's columns are zeta,
t and the columns its caller names, each read from the blocks' values.
Each block is written as it is taken, in sub-blocks of cells, and an axis's
text is encoded a window at a time, so memory grows neither with the grid
nor with the file, and along the t axis only by that axis's text, 32 bytes
a time, when several rows read it again (see _axis_text).  Identical
blocks give identical bytes.  An array that a block holds under several
column names is encoded once per sub-block, and its text copied into each
of those columns.

A file can also be written in parts: the records of each later part of its
blocks go to an unlinked part file (open_part, write_part), whose bytes the
file's writer appends after the first part's records, in zeta order
(emit_blocks' `parts`).  A part holds records only, no head or tail, and
under JSON its first record keeps its separator.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from .csvtext import WIDTH, g17_text, json_text

if TYPE_CHECKING:
    from .sweep import SweepResult

# Bytes of record buffer per sub-block; a sub-block's encoder arrays and text
# set the run's peak RSS, and fewer, larger ones pay less numpy call overhead.
_BLOCK_BYTES = 1 << 17
# Bytes of cell values gathered from the blocks before any of them is
# written.  Computing a block and writing text each evict the other's cache
# contents, so the writer takes several blocks' cells at a time: alternating
# per block cost about 10% of a default CSV run's time.  The buffer is reused,
# and adds about 0.1-0.2 MB to the peak RSS.
_GATHER_BYTES = 1 << 17
# Values of an axis encoded at once: the encoder's temporaries of a window
# take about 0.6 MB, where a 16001-value axis encoded at once took 4.3 MiB.
# A sub-block, of at most _BLOCK_BYTES // 66 = 1985 records (zeta and t
# alone), spans fewer values of an axis than a window.
_AXIS_WINDOW = 1 << 11


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
            grids = block.values
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


def _csv(names: list[str]) -> tuple:
    """CSV: a header line of the names, then one line of fields per cell."""
    record = ((bytes(WIDTH) + b",") * len(names))[:-1] + b"\n"
    return (g17_text, (",".join(names) + "\n").encode(), record,
            range(0, len(record), WIDTH + 1), 0, b"")


def _json(names: list[str]) -> tuple:
    """JSON: json.dumps(records, indent=2) + "\n", one record per cell.  A
    record starts with its separator from the record before it, which the
    file's first record drops; the keys are json.dumps of the names, which
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
# bytes that the first record drops, and tail.
WRITERS = {"csv": _csv, "json": _json}


def _axis_text(
    encode: Callable, axis: np.ndarray, reread: bool
) -> Callable[[np.ndarray], np.ndarray]:
    """The function of indices that gives the text of those values of the
    axis, encoded _AXIS_WINDOW values at a time.  An axis that the cells
    read once, in ascending order (zeta, or the t axis of one row), is
    encoded a window at a time as they reach it, from the first index that
    the window lacks, so that no run holds a long axis's text.  An axis
    that they read again (reread: the t axis of several rows) is held whole,
    32 bytes a value, since encoding it again for each row would cost as
    much as one more column."""
    if reread:
        text = np.empty((axis.size, WIDTH), np.uint8)
        for i in range(0, axis.size, _AXIS_WINDOW):
            text[i:i + _AXIS_WINDOW] = encode(axis[i:i + _AXIS_WINDOW])
        return lambda index: text.take(index, axis=0)
    window = [0, encode(axis[:_AXIS_WINDOW])]  # its first index and its text

    def text_of(index: np.ndarray) -> np.ndarray:
        first, last = index[0], index[-1]  # ascending
        if not window[0] <= first <= last < window[0] + len(window[1]):
            window[:] = first, encode(axis[first:first + _AXIS_WINDOW])
        return window[1].take(index - window[0], axis=0)

    return text_of


def _records(
    fmt: str, names: list[str], zeta: np.ndarray, t: np.ndarray,
    blocks: Iterable[SweepResult], first: bool = True,
) -> Iterator[bytes]:
    """The records of the blocks in format fmt, one chunk per sub-block, so
    the whole file is never held at once.  The file's first record (first)
    drops its leading separator; the first record of a later part keeps it.

    Each axis is encoded a window at a time (see _axis_text) and its text
    gathered per sub-block; each distinct value array is encoded once per sub-block, and its text copied
    into the slot of every column of that array.  The records are laid out in
    one reused (records, record bytes) buffer, filled once with the record's
    constant bytes; every slot of a sub-block's records is written, and the
    zero bytes are dropped in one pass.
    """
    encode, _, record, slots, skip, _ = WRITERS[fmt](names)
    skip = skip if first else 0
    record = np.frombuffer(record, np.uint8)
    buffer = np.empty((max(1, _BLOCK_BYTES // record.size), record.size), np.uint8)
    buffer[:] = record
    buffer[0, :skip] = 0
    zeta_text = _axis_text(encode, zeta, reread=False)
    t_text = _axis_text(encode, t, reread=zeta.size > 1)
    for zi, tj, values, columns in _cell_blocks(blocks, t.size, names, len(buffer)):
        buf = buffer[:zi.size]
        text = encode(values)
        fields = [zeta_text(zi), t_text(tj), *(text[:, k] for k in columns)]
        for slot, field in zip(slots, fields):
            buf[:, slot:slot + WIDTH] = field
        del text, fields, field  # freed before the next encode, which sets the peak RSS
        yield buf.tobytes().translate(None, b"\0")
        buffer[0, :skip] = record[:skip]


def _chunks(
    fmt: str, names: list[str], zeta: np.ndarray, t: np.ndarray,
    blocks: Iterable[SweepResult], parts: Iterable[bytes] = (),
) -> Iterator[bytes]:
    """The bytes of the file in format fmt: its head, the records of the
    blocks, the bytes of the later parts, and its tail."""
    _, head, *_, tail = WRITERS[fmt](names)
    yield head
    yield from _records(fmt, names, zeta, t, blocks)
    yield from parts
    yield tail


def _target(path: str) -> str:
    """path's real target, symlinks resolved; an IsADirectoryError that
    names path if that is a directory."""
    target = os.path.realpath(path)
    if os.path.isdir(target):
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    return target


def _write_atomic(path: str, chunks: Iterable[bytes]) -> None:
    """Write the bytes of `chunks` to `path`'s real target (symlinks resolved,
    so a link survives) through a temporary file beside it that then replaces
    it, never over a directory.  The file is binary: the chunks are its
    bytes, with no text layer to encode them again.  An existing target that
    is not a regular file, such as a FIFO or a device, is written in place:
    replacing it would delete it.  A failure is an OSError that names `path`,
    not the target or the temporary file."""
    target = _target(path)
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
    file's later parts (see write_part), before the file's tail.

    The format is checked, and the target checked and opened, before the
    first block is taken.  An error from a block or a part propagates after
    the temporary file is removed, or, for a target written in place, after
    the complete lines of the blocks and parts before it.
    """
    if output_format not in WRITERS:
        raise ValueError(f"unknown output format {output_format!r}")
    if not path:
        raise ValueError("empty output path ''")
    names = ["zeta", "t", *columns]
    _write_atomic(path, _chunks(output_format, names, zeta, t, blocks, parts))


def open_part(path: str) -> int:
    """A new unlinked file, open for reading and writing, in the directory of
    `path`'s real target: it has no name, so it goes with its last
    descriptor, whatever ends the process.  An OSError where the file system
    cannot make one."""
    return os.open(os.path.dirname(_target(path)), os.O_TMPFILE | os.O_RDWR, 0o600)


def write_part(
    fd: int,
    zeta: np.ndarray,
    t: np.ndarray,
    blocks: Iterable[SweepResult],
    columns: Sequence[str],
    output_format: str,
    path: str,
) -> None:
    """Write to the part file fd the records of a stream of blocks that is a
    later part of `path`'s file, as emit_blocks would write them there.  An
    error from a block propagates after the complete lines of the blocks
    before it; a failed write is an OSError that names `path`."""
    names = ["zeta", "t", *columns]
    try:
        with open(fd, "wb", closefd=False) as fh:
            fh.writelines(_records(output_format, names, zeta, t, blocks, first=False))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


def read_part(fd: int) -> Iterator[bytes]:
    """The bytes of the part file fd, from its start, in pieces of
    _BLOCK_BYTES, so copying a part does not raise the peak RSS."""
    os.lseek(fd, 0, os.SEEK_SET)
    while piece := os.read(fd, _BLOCK_BYTES):
        yield piece
