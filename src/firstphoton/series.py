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
Inside ``with render_processes(n):`` it renders the chunks in up to n
forked processes (never more than there are chunks or usable CPUs):
the workers read the columns they inherit through fork and send back
each chunk's text, and the parent writes the texts in chunk order, so
the file is byte-identical for every process count.  ``multiprocessing``
and ``concurrent.futures`` are imported only when a pool is started.
Forking copies only the calling thread, and the package starts no
thread of its own, so the CLI never forks with another thread running.

``read_columns`` takes the header with the ``csv`` module (quoted names
work) and parses the named columns with ``numpy.loadtxt``.
"""
from __future__ import annotations

import collections
import contextlib
import contextvars
import csv
import functools
import os
import warnings

import numpy as np

from .errors import InvalidDataError, InvalidParameterError

FLOAT_FMT = "%.17g"
CHUNK_ROWS = 16384


def _cell_format(column: np.ndarray) -> str:
    # bool stays with %s: str(True) is "True", "%d" % True is "1"
    if np.issubdtype(column.dtype, np.floating):
        return FLOAT_FMT
    if np.issubdtype(column.dtype, np.integer):
        return "%d"
    return "%s"


# how many processes write_table may render in; see render_processes
_PROCESSES = contextvars.ContextVar("render_processes", default=1)
# (row format, columns) in a render worker, inherited through fork
_inherited = None


@contextlib.contextmanager
def render_processes(n: int):
    """Let ``write_table`` render in up to ``n`` forked processes inside
    the block; the file is the same for every ``n``.

    The workers are forked from the calling thread, so call it while no
    other thread of the process is running.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParameterError(f"render processes must be a positive integer, got {n!r}")
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


def _inherit(row: str, cols: list[np.ndarray]) -> None:
    global _inherited
    _inherited = (row, cols)


def _render_inherited(start: int, stop: int) -> str:
    return _render(*_inherited, start, stop)


def _fork_pool(processes: int, row: str, cols: list[np.ndarray]):
    """Executor of ``processes`` forked workers that hold (row, cols).

    With fork the initializer's arguments reach the workers in the
    copied memory, not through a pipe; only chunk bounds and texts do.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(processes, multiprocessing.get_context("fork"),
                               initializer=_inherit, initargs=(row, cols))


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
    processes = min(_PROCESSES.get(), len(stops), _usable_cpus())
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            pool = None
            if processes > 1 and hasattr(os, "fork"):
                fh.flush()      # else the forked workers copy its buffer
                pool = _fork_pool(processes, row, cols)
            try:
                if pool is None:
                    texts = map(functools.partial(_render, row, cols), starts, stops)
                else:
                    texts = _pooled_texts(pool, starts, stops, 2 * processes)
                # holds one chunk's text at a time, where a for loop would
                # keep the last one alive while the next is rendered
                fh.writelines(texts)
            finally:
                if pool is not None:
                    pool.shutdown(cancel_futures=True)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc}") from exc


def read_columns(path, names: list[str]) -> dict[str, np.ndarray]:
    """Read the named float columns from a CSV file with a header row.

    Missing columns, short rows and non-numeric cells raise
    InvalidDataError; extra columns are ignored so record files with
    channel labels still load.  A header-only file gives empty arrays.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InvalidDataError(f"cannot read samples from {path}: {exc}") from exc
    with fh:
        # ValueError covers bytes that are not UTF-8 as well as bad cells
        try:
            # of two columns with one name, the last is read
            index = {name: i for i, name in enumerate(next(csv.reader(fh), []))}
            missing = [name for name in names if name not in index]
            if missing:
                raise InvalidDataError(
                    f"{path}: missing required column(s) {', '.join(missing)}"
                )
            with warnings.catch_warnings():
                # a header-only file is an empty table, not a problem
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                data = np.loadtxt(fh, delimiter=",", usecols=[index[n] for n in names],
                                  ndmin=2, comments=None, quotechar='"')
        except (ValueError, csv.Error) as exc:
            raise InvalidDataError(f"{path}: {exc}") from None
    return {name: np.ascontiguousarray(data[:, i]) for i, name in enumerate(names)}
