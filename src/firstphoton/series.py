"""CSV tables written and read at C speed.

A table is one header row and one row per index of its columns, with
``,`` between cells and ``\\n`` after each row.  Floats are written with
17 significant digits (``%.17g``), so a written file reloads to
bit-identical values and reruns can be compared byte for byte; integers
are written with ``%d`` and any other value with ``str``.

``write_table`` streams the table in fixed ``CHUNK_ROWS``-row chunks,
each rendered by one ``%`` of a repeated row format, so its memory
beyond the columns is one chunk's text whatever the row count.
``read_columns`` takes the header with the ``csv`` module (quoted names
work) and parses the named columns with ``numpy.loadtxt``.
"""
from __future__ import annotations

import csv
import warnings

import numpy as np

from .errors import InvalidDataError, InvalidParameterError

FLOAT_FMT = "%.17g"
CHUNK_ROWS = 65536


def _cell_format(column: np.ndarray) -> str:
    # bool stays with %s: str(True) is "True", "%d" % True is "1"
    if np.issubdtype(column.dtype, np.floating):
        return FLOAT_FMT
    if np.issubdtype(column.dtype, np.integer):
        return "%d"
    return "%s"


def write_table(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write named columns as a CSV table (17 significant digits).

    A file that cannot be written raises InvalidParameterError.
    """
    if len(header) != len(columns):
        raise InvalidDataError("header and column count differ")
    cols = [np.asarray(c) for c in columns]
    n = cols[0].shape[0] if cols else 0
    for c in cols:
        if c.shape != (n,):
            raise InvalidDataError("all columns must share one length")
    row = ",".join(_cell_format(c) for c in cols) + "\n"
    width = len(cols)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, n, CHUNK_ROWS):
                stop = min(start + CHUNK_ROWS, n)
                cells = [None] * ((stop - start) * width)
                for k, c in enumerate(cols):
                    cells[k::width] = c[start:stop].tolist()
                fh.write(row * (stop - start) % tuple(cells))
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
