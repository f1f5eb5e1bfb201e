"""CSV tables written and read at C speed.

A table is one header row and one row per index of its columns, with
``,`` between cells and ``\\n`` after each row.  Floats are written with
17 significant digits (``%.17g``), so a written file reloads to
bit-identical values and reruns can be compared byte for byte; integers
are written with ``%d`` and any other value with ``str``.

``write_table`` streams the table in fixed ``CHUNK_ROWS``-row chunks
(16384 rows), each rendered by one ``%`` of a repeated row format, so
its memory beyond the columns is a few chunks' Python cells and text
whatever the row count; the file does not depend on the chunk size.
Inside ``with processes(n):`` it renders the chunks in up to n forked
processes (never more than there are chunks or usable CPUs): the
workers read the columns they inherit through fork and send back each
chunk's text, and the parent writes the texts in chunk order, so the
file is byte-identical for every process count.

``read_columns`` takes the header with the ``csv`` module (quoted names
work) and parses the named columns with ``numpy.loadtxt``, one
line-aligned block of about ``READ_BLOCK_BYTES`` (1 MiB) at a time.
The parent first reads the blocks once to count their lines, which
bounds their rows, and lays out one float64 buffer of shape
``(len(names), lines)``; each block's rows go straight to its own
slice, and every returned column is a contiguous row of that buffer,
not a copy.  Inside ``with processes(n):`` the blocks are split into
byte ranges of at least ``READ_RANGE_BYTES`` (4 MiB) and parsed in up
to n forked processes (never more than there are ranges or usable
CPUs); the buffer is then an anonymous shared mapping the workers
write in place, so only block row counts come back.  Blank lines leave
a block short of its line count; the parent closes such gaps in
order.  Data holding a ``"`` is parsed as one block in one process,
since a quoted cell may hold a newline.  Values and errors do not
depend on the process count: an error names the file and counts rows
from the first data row, as one ``loadtxt`` over the whole file would.

``multiprocessing``, ``concurrent.futures`` and ``mmap`` are imported
only when a pool is started.  Forking copies only the calling thread,
and the package starts no thread of its own, so the CLI never forks
with another thread running.
"""
from __future__ import annotations

import collections
import contextlib
import contextvars
import csv
import functools
import io
import os
import re
import warnings

import numpy as np

from .errors import InvalidDataError, InvalidParameterError

FLOAT_FMT = "%.17g"
CHUNK_ROWS = 16384
READ_BLOCK_BYTES = 1 << 20
READ_RANGE_BYTES = 4 << 20


def _cell_format(column: np.ndarray) -> str:
    # bool stays with %s: str(True) is "True", "%d" % True is "1"
    if np.issubdtype(column.dtype, np.floating):
        return FLOAT_FMT
    if np.issubdtype(column.dtype, np.integer):
        return "%d"
    return "%s"


# how many processes write_table and read_columns may use; see processes
_PROCESSES = contextvars.ContextVar("processes", default=1)
# what a pool worker inherited through fork: (row format, columns) in a
# render worker, (path, usecols, buffer) in a parse worker
_inherited = None


@contextlib.contextmanager
def processes(n: int):
    """Let ``write_table`` render and ``read_columns`` parse in up to
    ``n`` forked processes inside the block; files and values are the
    same for every ``n``.

    The workers are forked from the calling thread, so call it while no
    other thread of the process is running.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParameterError(f"processes must be a positive integer, got {n!r}")
    token = _PROCESSES.set(int(n))
    try:
        yield
    finally:
        _PROCESSES.reset(token)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _render(row: str, cols: list[np.ndarray], start: int, stop: int) -> str:
    width = len(cols)
    cells = [None] * ((stop - start) * width)
    for k, c in enumerate(cols):
        cells[k::width] = c[start:stop].tolist()
    return row * (stop - start) % tuple(cells)


def _inherit(*state) -> None:
    global _inherited
    _inherited = state


def _render_inherited(start: int, stop: int) -> str:
    return _render(*_inherited, start, stop)


def _fork_pool(processes: int, *state):
    """Executor of ``processes`` forked workers that hold ``state``.

    With fork the initializer's arguments reach the workers in the
    copied memory, not through a pipe; only task arguments and results do.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(processes, multiprocessing.get_context("fork"),
                               initializer=_inherit, initargs=state)


def _pooled_texts(pool, starts, stops, ahead: int):
    """Chunk texts in order from ``pool``, with at most ``ahead`` chunks
    submitted and not yet taken, so a slow disk cannot pile up text."""
    futures = collections.deque()
    for start, stop in zip(starts, stops):
        futures.append(pool.submit(_render_inherited, start, stop))
        if len(futures) > ahead:
            yield futures.popleft().result()
    while futures:
        yield futures.popleft().result()


def write_table(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write named columns as a CSV table (17 significant digits).

    A file that cannot be written raises InvalidParameterError, before
    any render process starts.
    """
    if len(header) != len(columns):
        raise InvalidDataError("header and column count differ")
    cols = [np.asarray(c) for c in columns]
    n = cols[0].shape[0] if cols else 0
    for c in cols:
        if c.shape != (n,):
            raise InvalidDataError("all columns must share one length")
    row = ",".join(_cell_format(c) for c in cols) + "\n"
    starts = range(0, n, CHUNK_ROWS)
    stops = [min(start + CHUNK_ROWS, n) for start in starts]
    workers = min(_PROCESSES.get(), len(stops), _usable_cpus())
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            pool = None
            if workers > 1 and hasattr(os, "fork"):
                fh.flush()      # else the forked workers copy its buffer
                pool = _fork_pool(workers, row, cols)
            try:
                if pool is None:
                    texts = map(functools.partial(_render, row, cols), starts, stops)
                else:
                    texts = _pooled_texts(pool, starts, stops, 2 * workers)
                # holds one chunk's text at a time, where a for loop would
                # keep the last one alive while the next is rendered
                fh.writelines(texts)
            finally:
                if pool is not None:
                    pool.shutdown(cancel_futures=True)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc}") from exc


def _data_start(fh) -> tuple[list[str], int]:
    """The header cells and the byte offset of the first data line.

    The header is read as text with universal newlines, like the data,
    and csv pulls exactly the lines of its first record; undecoded
    newlines make the text re-encode to the bytes it came from.
    """
    text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
    consumed = []

    def lines():
        for line in text:
            consumed.append(line)
            yield line
    try:
        return next(csv.reader(lines()), []), len("".join(consumed).encode())
    finally:
        text.detach()


def _line_count(block: bytes) -> int:
    """Lines of ``block`` (ends at ``\\n``, ``\\r\\n`` or ``\\r``, the last
    one perhaps unterminated): a bound on the rows ``loadtxt`` finds."""
    # numpy counts a byte about five times faster than bytes.count
    lines = (np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n"))
             + (not block.endswith((b"\n", b"\r"))))
    if b"\r" in block:
        lines += block.count(b"\r") - block.count(b"\r\n")
    return lines


def _blocks(fh, start: int) -> tuple[list[tuple[int, int, int]], int]:
    """Blocks (start, stop, row0) of the data from byte ``start`` to the
    end, cut after a ``\\n`` every ``READ_BLOCK_BYTES`` or so, and their
    line count; row0 counts the lines of the blocks before.  The data is
    one block when it holds a ``"``."""
    fh.seek(start)
    blocks = []
    lines = 0
    quoted = False
    while block := fh.read(READ_BLOCK_BYTES):
        if not block.endswith(b"\n"):
            block += fh.readline()
        quoted = quoted or b'"' in block
        blocks.append((start, start + len(block), lines))
        start += len(block)
        lines += _line_count(block)
    if quoted:
        blocks = [(blocks[0][0], start, 0)]
    return blocks, lines


def _parse_blocks(path, usecols: list[int], buf: np.ndarray,
                  blocks: list[tuple[int, int, int]]) -> tuple[list[int], str | None]:
    """Parse each (start, stop, row0) block of the file into
    ``buf[:, row0:]``; returns the blocks' row counts up to the first
    block that fails, and that block's error or None.

    The error counts rows from the block's first data row, and bytes
    from the start of the file.
    """
    counts = []
    with open(path, "rb") as fh, warnings.catch_warnings():
        # a block of blank lines, or a header-only file, holds no rows
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        for start, stop, row0 in blocks:
            fh.seek(start)
            try:
                text = fh.read(stop - start).decode("utf-8")
                data = np.loadtxt(io.StringIO(text, newline=""), delimiter=",",
                                  usecols=usecols, ndmin=2, comments=None,
                                  quotechar='"')
            except UnicodeDecodeError as exc:
                return counts, f"byte {start + exc.start} is not UTF-8 text: {exc.reason}"
            except ValueError as exc:
                return counts, str(exc)
            buf[:, row0:row0 + len(data)] = data.T
            counts.append(len(data))
    return counts, None


def _parse_inherited(blocks) -> tuple[list[int], str | None]:
    return _parse_blocks(*_inherited, blocks)


def _shift_rows(message: str, rows: int) -> str:
    """``message`` with loadtxt's "at row N" counted ``rows`` rows later."""
    return re.sub(r"\bat row (\d+)", lambda m: f"at row {int(m.group(1)) + rows}",
                  message)


def read_columns(path, names: list[str]) -> dict[str, np.ndarray]:
    """Read the named float columns from a CSV file with a header row.

    Missing columns, short rows and non-numeric cells raise
    InvalidDataError; extra columns are ignored so record files with
    channel labels still load.  A header-only file gives empty arrays.
    Inside ``with processes(n):`` a file of several ``READ_RANGE_BYTES``
    is parsed in up to n forked processes, with the same result.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InvalidDataError(f"cannot read samples from {path}: {exc}") from exc
    with fh:
        # ValueError covers header bytes that are not UTF-8
        try:
            header, start = _data_start(fh)
        except (ValueError, csv.Error) as exc:
            raise InvalidDataError(f"{path}: {exc}") from None
        # of two columns with one name, the last is read
        index = {name: i for i, name in enumerate(header)}
        missing = [name for name in names if name not in index]
        if missing:
            raise InvalidDataError(f"{path}: missing required column(s) {', '.join(missing)}")
        usecols = [index[n] for n in names]
        plan, lines = _blocks(fh, start)
        size = fh.tell() - start
    workers = min(_PROCESSES.get(), _usable_cpus(), len(plan),
                  max(size // READ_RANGE_BYTES, 1))
    shape = (len(names), lines)
    # with no names the buffer is empty, and mmap maps no 0 bytes
    if workers > 1 and names and hasattr(os, "fork"):
        import mmap
        # MAP_SHARED: what the workers write is the parent's too
        buf = np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1]),
                            np.float64).reshape(shape)
        pool = _fork_pool(workers, path, usecols, buf)
        try:
            # one range of whole blocks per worker
            futures = [pool.submit(_parse_inherited,
                                   plan[i * len(plan) // workers:
                                        (i + 1) * len(plan) // workers])
                       for i in range(workers)]
            results = [future.result() for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        buf = np.empty(shape)
        results = [_parse_blocks(path, usecols, buf, plan)]
    counts = []
    for part, error in results:
        counts += part
        if error is not None:
            raise InvalidDataError(f"{path}: {_shift_rows(error, sum(counts))}")
    rows = 0
    for (_, _, row0), n in zip(plan, counts):
        if row0 != rows:    # blank lines above
            buf[:, rows:rows + n] = buf[:, row0:row0 + n]
        rows += n
    return {name: buf[i, :rows] for i, name in enumerate(names)}
