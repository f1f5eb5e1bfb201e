"""CSV tables written and read at C speed.

A table is one header row and one row per index of its columns, with
``,`` between cells and ``\\n`` after each row, in UTF-8.  Its cells are
numbers and ASCII labels.  Floats are written as ``%.17g`` writes them,
17 significant digits, so a written file reloads to bit-identical
values and reruns can be compared byte for byte; integers are written
as ``%d``, and a str or bytes column as its ASCII labels.

``write_table`` streams the table in fixed ``CHUNK_ROWS``-row chunks
(16384 rows).  numpy renders a chunk as one uint8 matrix with a row per
byte slot of a table row and a column per table row, 0 meaning "no
byte"; the chunk's text is the matrix transposed, with the 0 bytes
deleted.  A float |x| = m * 2**q has the 17 digits
round-half-even(m * 5**s * 2**(q + s)) with s = 16 - k for its decimal
exponent k.  The product is formed exactly from 32-bit limbs for s in
[0, 27], where 5**s < 2**64: decimal exponents -11 to 16, so |x| from
1e-11 to below 1e17.  The cells it does not cover (0, nan, inf and
the other exponents) are formatted one by one with ``%.17g``.  An
integer is the digits of its uint64 magnitude after a sign slot, and a
label column's matrix is a view of its bytes.  A column of any other
dtype (bool, object, ...), a label that is not ASCII or holds a NUL
(which would read as padding), and a header name with a surrogate code
point (which has no UTF-8) raise InvalidDataError before
``write_table`` opens the file.  Memory beyond the columns is a few
chunks' matrices and text whatever the row count, and the file does not
depend on the chunk size.

Both directions map their tasks in order, in this process or in this
process and forked children: with w workers, task i runs in worker
i % w, worker 0 being the caller, and each child inherits the table or
the buffer through fork and pickles its results down a pipe.  Fork
copies only the calling thread, so no child is forked while another
thread runs.  Files, values and errors are the same for every process
count.  ``write_table`` maps its chunks in at most n processes inside
``with processes(n):`` (one outside it) and writes the texts in chunk
order.

``read_columns`` takes the header with the ``csv`` module (quoted names
work) and parses the named columns with ``numpy.loadtxt``, one
line-aligned block of about ``READ_BLOCK_BYTES`` (512 KiB) at a time.
The parent first reads the blocks once to count their lines, which
bounds their rows, and lays out the table in an anonymous shared
mapping: ``lines`` rows with one float64 field per name.  Each block's
rows go straight to its own rows of the table, and the table comes back
cut to the rows parsed, not copied.  The blocks are mapped in ranges of
whole blocks of at least ``READ_RANGE_BYTES`` (4 MiB), so a file of two
such ranges or more is parsed in several processes, and the workers
write the table in place: only block row counts come back.  Blank lines
leave a block short of its line count; the parent closes such gaps in
order by moving whole rows.  Data holding a ``"`` is parsed as one
block, since a quoted cell may hold a newline.  An error names the
file, and the file's line of a bad row (the header is line 1, and blank
lines count), which the failing block alone gives; a byte that is not
UTF-8 is named by its offset in the file.

``mmap`` and ``signal`` are imported only when they are used, off the
import path, and the map needs no process pool module.
"""
from __future__ import annotations

import contextlib
import contextvars
import csv
import io
import os
import pickle
import re
import threading
import warnings

import numpy as np

from .errors import InvalidDataError, InvalidParameterError

CHUNK_ROWS = 16384
# a block's parse temporaries, about five times its size, may stay on
# glibc's heap after the parse; 1 MiB blocks kept up to 9 MB at 2**19 records
READ_BLOCK_BYTES = 1 << 19
READ_RANGE_BYTES = 4 << 20

# decimal exponents whose 17 digits the float kernel forms exactly:
# s = 16 - k must keep 5**s below 2**64
_LOW_EXPONENT, _HIGH_EXPONENT = -11, 16
_POW5 = np.array([5 ** s for s in range(16 - _LOW_EXPONENT + 1)], dtype=np.uint64)
# 0 and then 10**j, the least magnitude whose jth digit shows
_POW10 = np.array([0] + [10 ** j for j in range(1, 20)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_U32, _U1 = np.uint64(32), np.uint64(1)
# the float cell's slots: sign, "0." and up to three zeros before the
# digits of a fixed form below 1, 17 digits with a point slot after each
# of the first 16, and the exponent "e-XX"; _FLOAT_BYTES is the byte of
# each slot, 1 where the slot holds a digit
_SIGN, _LEAD, _ZEROS, _DIGITS, _EXP = 0, 1, 3, 6, 39
_FLOAT_BYTES = np.frombuffer(b"-0.000" + b"\1." * 16 + b"\1e-\1\1", np.uint8)[:, None]
_DIGIT_INDEX = np.arange(17, dtype=np.int8)[:, None]
_DIGIT_RANK = np.arange(1, 18, dtype=np.int8)[:, None]
_ZERO = np.uint8(ord("0"))


# how many processes write_table may use; see processes
_PROCESSES = contextvars.ContextVar("processes", default=1)


@contextlib.contextmanager
def processes(n: int):
    """Let ``write_table`` render in up to ``n`` processes inside the
    block, this one and ``n - 1`` forked children (never more than its
    chunks or the usable CPUs); the file is the same for every ``n``.
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


def _scaled(m: np.ndarray, q: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(m * 2**q * 10**(16 - k)) and whether rounding it half to
    even goes up, for uint64 m < 2**53 and k in the covered range.

    m * 5**s is formed exactly as hi * 2**64 + lo from 32-bit limbs,
    then shifted right by -(q + s) with one bit kept below the point
    (the round bit) and the bits below it or-ed into a sticky flag.
    """
    s = 16 - k
    p = _POW5[s]
    m0, m1 = m & _LOW32, m >> _U32
    p0, p1 = p & _LOW32, p >> _U32
    ll, lh, hl = m0 * p0, m0 * p1, m1 * p0
    mid = (ll >> _U32) + (lh & _LOW32) + (hl & _LOW32)
    lo = (ll & _LOW32) | (mid << _U32)
    hi = m1 * p1 + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)
    shift = -(q + s) - 1
    # shift lies in [-6, 62] for the cells _decimal covers, at its first
    # k and the corrected one; a shift left is exact.  Other cells' results
    # are dropped (numpy shifts by 64 bits or more to 0)
    low = np.maximum(shift, 0).astype(np.uint64)
    t = (lo >> low) | ((hi << (np.uint64(63) - low)) << _U1)
    sticky = (lo & ((_U1 << low) - _U1)) != 0
    left = np.flatnonzero(shift < 0)
    t[left] = lo[left] << (-shift[left]).astype(np.uint64)
    floor = t >> _U1
    return floor, (t & _U1).astype(bool) & (sticky | (floor & _U1).astype(bool))


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits D (an integer in [1e16, 1e17)) and the
    decimal exponent k of |x|, rounded half to even as ``%.17g`` rounds,
    and where they are valid: finite non-zero x with k in
    [_LOW_EXPONENT, _HIGH_EXPONENT].

    k is first taken from log10, which can miss by one next to a power
    of ten; the unrounded product tells, and those cells are formed
    again.  D rounding up to 1e17 moves k up by one.
    """
    bits = x.view(np.uint64)
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    q = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64) - 1075
    size = np.abs(x)
    # NaN compares False, and no log10 sees 0 or inf; subnormals fall outside
    covered = (size >= 10.0 ** _LOW_EXPONENT) & (size < 10.0 ** (_HIGH_EXPONENT + 1))
    k = np.floor(np.log10(np.where(covered, size, 1.0))).astype(np.int64)
    np.clip(k, _LOW_EXPONENT, _HIGH_EXPONENT, out=k)
    digits, up = _scaled(m, q, k)
    below = digits < np.uint64(10 ** 16)
    above = digits >= np.uint64(10 ** 17)
    redo = np.flatnonzero(covered & (below | above))
    if redo.size:
        k[redo] += above[redo].astype(np.int64) - below[redo]
        inside = (k[redo] >= _LOW_EXPONENT) & (k[redo] <= _HIGH_EXPONENT)
        covered[redo[~inside]] = False
        redo = redo[inside]
        digits[redo], up[redo] = _scaled(m[redo], q[redo], k[redo])
    digits += up
    carry = digits == np.uint64(10 ** 17)
    digits[carry] = np.uint64(10 ** 16)
    k += carry
    covered &= k <= _HIGH_EXPONENT
    return digits, k, covered


def _digit_rows(v: np.ndarray, out: np.ndarray) -> None:
    """The last len(out) decimal digits of ``v``, most significant in
    ``out[0]``, as digit values."""
    for row in out[::-1]:
        quotient = v // v.dtype.type(10)
        np.subtract(v, quotient * v.dtype.type(10), out=row, casting="unsafe")
        v = quotient


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``%.17g`` of each float as a (slots, rows) uint8 matrix, 0 where
    a slot holds no byte."""
    x = np.ascontiguousarray(x, np.float64)
    digits, k, covered = _decimal(x)
    text = np.empty((17, x.size), np.uint8)
    upper = digits // np.uint64(10 ** 9)
    _digit_rows(upper.astype(np.uint32), text[:8])
    _digit_rows((digits - upper * np.uint64(10 ** 9)).astype(np.uint32), text[8:])
    # significant digits once trailing zeros are stripped
    shown = (_DIGIT_RANK * (text != 0)).max(axis=0)
    k = k.astype(np.int8)       # small types keep the (slots, rows) steps short
    fixed = k >= -4
    below_one = fixed & (k < 0)
    point = np.where(fixed, k, np.int8(0))
    # the slots other than digits hold 1 where their byte is written
    out = np.zeros((len(_FLOAT_BYTES), x.size), np.uint8)
    out[_SIGN] = np.signbit(x)
    if below_one.any():
        out[_LEAD] = out[_LEAD + 1] = below_one
        out[_ZEROS:_DIGITS] = _DIGIT_INDEX[:3] < np.where(below_one, -k - 1, np.int8(0))
    text += _ZERO
    # a fixed form keeps its integer digits, zeros too
    text *= _DIGIT_INDEX < np.maximum(shown, np.where(fixed, k + 1, np.int8(0)))
    out[_DIGITS:_EXP:2] = text
    out[_DIGITS + 1:_EXP:2] = _DIGIT_INDEX[:16] == np.where(shown > point + 1, point, np.int8(-1))
    exponent = np.flatnonzero(~fixed)
    if exponent.size:
        out[_EXP:_EXP + 2, exponent] = 1
        out[_EXP + 2, exponent] = -k[exponent] // 10 + ord("0")
        out[_EXP + 3, exponent] = -k[exponent] % 10 + ord("0")
    out *= _FLOAT_BYTES
    rest = np.flatnonzero(~covered)
    if rest.size:
        # 0, nan, inf and exponents outside the kernel's range
        cells = np.array([b"%.17g" % v for v in x[rest].tolist()])
        out[:, rest] = 0
        out[:cells.itemsize, rest] = cells.view(np.uint8).reshape(rest.size, -1).T
    return out


def _int_cells(v: np.ndarray) -> np.ndarray:
    """``%d`` of each integer: a sign slot and the digits of its uint64
    magnitude, leading zeros left out."""
    magnitude = v.astype(np.uint64)
    negative = v < 0
    if negative.any():
        # two's complement, so -2**63 has its magnitude 2**63
        magnitude = np.where(negative, ~magnitude + _U1, magnitude)
    width = len(str(int(magnitude.max())))
    if width < 10:
        magnitude = magnitude.astype(np.uint32)
    out = np.empty((1 + width, v.size), np.uint8)
    out[0] = negative * ord("-")
    text = out[1:]
    _digit_rows(magnitude, text)
    text += _ZERO
    # the digit of 10**j shows when the magnitude reaches it; the units always
    text *= magnitude >= _POW10[width - 1::-1, None].astype(magnitude.dtype)
    return out


def _cells(column: np.ndarray) -> np.ndarray:
    """The column's cells as a (slots, rows) uint8 matrix."""
    if column.dtype.kind == "f":
        return _float_cells(column)
    if column.dtype.kind in "iu":
        return _int_cells(column)
    return column.view(np.uint8).reshape(column.size, column.itemsize).T


def _render(cols: list[np.ndarray], start: int, stop: int) -> bytes:
    """Rows start to stop of the table as CSV bytes."""
    parts = []
    for column in cols:
        parts += [_cells(column[start:stop]), np.full((1, stop - start), ord(","), np.uint8)]
    parts[-1][:] = ord("\n")
    # each step drops the one before, so a chunk holds two at a time
    matrix = np.concatenate(parts)
    del parts
    # slots no cell of the chunk uses cost the transpose for nothing
    matrix = matrix[matrix.any(axis=1)]
    text = matrix.T.tobytes()
    del matrix
    return text.translate(None, b"\0")


def _serve(fn, state: tuple, tasks: list[tuple], read, write: int) -> None:
    """A forked child's whole life: close ``read``, its pipe's other end,
    pickle ``(True, fn(*state, *task))`` for each task down the pipe's
    ``write`` end, or ``(False, exception)`` for the first task that
    raises, and exit without unwinding into the caller's frames."""
    status = 1
    try:
        read.close()
        with open(write, "wb") as pipe:
            for task in tasks:
                try:
                    result = True, fn(*state, *task)
                except Exception as exc:
                    pickle.dump((False, exc), pipe)
                    break
                pickle.dump(result, pipe)
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


def _receive(children: dict, worker: int):
    """The next result of ``worker``, or what it raised; a worker that
    ends without sending one is reaped and named in a RuntimeError."""
    pid, pipe = children[worker]
    try:
        ok, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        import signal
        del children[worker]
        os.kill(pid, signal.SIGKILL)
        pipe.close()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        how = (f"was killed by {signal.Signals(-code).name}" if code < 0
               else f"exited with status {code}")
        raise RuntimeError(f"worker {worker} {how} before sending its result") from None
    if not ok:
        raise value
    return value


def _ordered_map(fn, state: tuple, tasks: list[tuple], cap: int | None = None):
    """``fn(*state, *task)`` for each task, yielded in task order.

    With w = min(len(tasks), usable CPUs, cap) of 2 or more and no other
    thread running (fork copies only the calling thread), w - 1 forked
    children inherit ``state`` and task i runs in worker i % w, worker 0
    being this process; otherwise every call runs here.  A child pickles
    each result, or the exception it raised, down its own pipe, and
    blocks while the pipe is full, so about one result per child waits
    to be taken.  When the generator ends, is closed or raises, every
    child is killed and reaped.
    """
    workers = min(len(tasks), _usable_cpus(), cap or len(tasks))
    if workers < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        for task in tasks:
            yield fn(*state, *task)
        return
    import signal
    children = {}       # worker -> (pid, the read end of its pipe)
    try:
        for worker in range(1, workers):
            read, write = os.pipe()
            pipe = open(read, "rb")
            try:
                pid = os.fork()
            except BaseException:
                # fork fails, or its warning raised as an error after the
                # child started: the child then ends on a broken pipe
                os.close(write)
                pipe.close()
                raise
            if pid == 0:
                _serve(fn, state, tasks[worker::workers], pipe, write)
            os.close(write)
            children[worker] = pid, pipe
        for i, task in enumerate(tasks):
            yield fn(*state, *task) if i % workers == 0 else _receive(children, i % workers)
    finally:
        for pid, pipe in children.values():
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def _label_column(name: str, column: np.ndarray) -> np.ndarray:
    """A str or bytes column as contiguous ASCII bytes; InvalidDataError
    for any other dtype, a non-ASCII label or a NUL inside a label."""
    if column.dtype.kind not in "US":
        raise InvalidDataError(f"column {name!r} holds {column.dtype}, not numbers or labels")
    try:
        column = np.ascontiguousarray(column.astype("S", copy=False))
    except UnicodeEncodeError:      # str to bytes refuses non-ASCII
        column = None
    if column is None or column.view(np.uint8).max(initial=0) >= 0x80:
        raise InvalidDataError(f"label column {name!r} is not ASCII text")
    # an array keeps no trailing NUL, so a NUL is a 0 before a used byte
    cells = column.view(np.uint8).reshape(column.size, column.itemsize)
    for start in range(0, column.size, CHUNK_ROWS):
        used = cells[start:start + CHUNK_ROWS] != 0
        if (used[:, 1:] > used[:, :-1]).any():
            raise InvalidDataError(f"label column {name!r} holds a NUL character")
    return column


def write_table(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write named columns as a UTF-8 CSV table (17 significant digits).

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
    cols = [c if c.dtype.kind in "fiu" else _label_column(name, c)
            for name, c in zip(header, cols)]
    try:
        head = (",".join(header) + "\n").encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidDataError(f"header {header!r} is not UTF-8 text: {exc.reason}") from None
    chunks = [(start, min(start + CHUNK_ROWS, n)) for start in range(0, n, CHUNK_ROWS)]
    # glibc serves a block above its mmap threshold (128 KiB at first)
    # with fresh pages, and freeing such a block raises the threshold to
    # its size and the heap's trim threshold to twice that (mallopt(3),
    # M_MMAP_THRESHOLD).  A chunk holds at most its cell matrix and the
    # text transposed from it at once, so one dropped block of both
    # sizes lets every chunk reuse heap pages where a fresh process
    # would fault in new ones for each chunk.  A row's slots: a float's,
    # an integer's sign and 20 digits, a label's bytes, and a separator each
    slots = [len(_FLOAT_BYTES) if c.dtype.kind == "f" else 21 if c.dtype.kind in "iu"
             else c.itemsize for c in cols]
    np.empty(2 * min(n, CHUNK_ROWS) * (sum(slots) + len(cols)), np.uint8)
    try:
        with open(path, "wb") as fh:
            fh.write(head)
            fh.flush()      # else forked render children copy its buffer
            # holds one chunk's text at a time, where a for loop would
            # keep the last one alive while the next is rendered
            fh.writelines(_ordered_map(_render, (cols,), chunks, _PROCESSES.get()))
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc}") from exc


def _data_start(fh) -> tuple[list[str], int, int]:
    """The header cells, the byte offset of the first data line and the
    number of lines the header takes.

    The header is read as text with universal newlines, like the data,
    and csv pulls exactly the lines of its first record; undecoded
    newlines make the text re-encode to the bytes it came from.  csv
    does not see a leading byte-order mark (a spreadsheet's "CSV UTF-8"
    export writes one), but the offset counts its 3 bytes.
    """
    text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
    consumed = []

    def lines():
        for line in text:
            consumed.append(line)
            yield line.removeprefix("\ufeff") if len(consumed) == 1 else line
    try:
        header = next(csv.reader(lines()), [])
        return header, len("".join(consumed).encode()), len(consumed)
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


def _loadtxt(raw: bytes, usecols: list[int]) -> np.ndarray:
    """The ``usecols`` of the CSV lines in ``raw`` as a 2-d float array.

    loadtxt takes the lines of a bytes buffer, which ends them at ``\\n``
    only, and decodes each line by itself, so no copy of the text is made;
    ``\\r\\n`` and a lone ``\\r`` become ``\\n`` first, which keeps every line.
    """
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return np.loadtxt(io.BytesIO(raw), delimiter=",", usecols=usecols, ndmin=2,
                      comments=None, quotechar='"', encoding="utf-8")


def _name_line(message: str, raw: bytes, usecols: list[int], line0: int) -> str:
    """``message``, from parsing ``raw`` whose first line is line
    ``line0`` of the file, with loadtxt's "at row N" made the file line
    that fails when parsed alone.

    loadtxt counts only the rows it keeps, from 0 for a bad cell and
    from 1 for a short row, so the line is at least the (N - 1)th.  A
    row that fails only with the lines around it (a quoted cell holding
    a newline) keeps loadtxt's words.
    """
    row = re.search(r"\bat row (\d+)", message)
    if row is None:
        return message
    # bytes end lines at \n, \r\n and \r, as _line_count counts them
    lines = raw.splitlines(keepends=True)
    for i in range(max(int(row.group(1)) - 1, 0), len(lines)):
        try:
            _loadtxt(lines[i], usecols)
        except ValueError:
            return f"{message[:row.start()]}at line {line0 + i}{message[row.end():]}"
    return message


def _parse_blocks(path, usecols: list[int], buf: np.ndarray, line0: int,
                  blocks: list[tuple[int, int, int]]) -> tuple[list[int], str | None]:
    """Parse each (start, stop, row0) block of the file into the float
    matrix ``buf[row0:]``; returns the blocks' row counts up to the first
    block that fails, and that block's error or None.

    The first data line is line ``line0`` of the file.  The error names
    the file's line of a bad row, counted from 1 at the header, or the
    offset in the file of a byte that is not UTF-8, whichever comes first.
    """
    counts = []
    with open(path, "rb") as fh, warnings.catch_warnings():
        # a block of blank lines, or a header-only file, holds no rows
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        for start, stop, row0 in blocks:
            fh.seek(start)
            raw = fh.read(stop - start)
            try:
                data = _loadtxt(raw, usecols)
            except UnicodeDecodeError:
                # loadtxt decodes line by line and stops at the first line
                # that fails, which holds the block's first byte not UTF-8
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    return counts, f"byte {start + exc.start} is not UTF-8 text: {exc.reason}"
                raise
            except ValueError as exc:
                return counts, _name_line(str(exc), raw, usecols, line0 + row0)
            buf[row0:row0 + len(data)] = data
            counts.append(len(data))
    return counts, None


def read_columns(path, names: list[str]) -> np.ndarray:
    """Read the named columns of a CSV file with a header row as a
    table: a structured array of one float64 field per name (once each).

    Missing columns, short rows and non-numeric cells raise
    InvalidDataError; extra columns are ignored so record files with
    channel labels still load.  A header-only file gives no rows.
    A file of several ``READ_RANGE_BYTES`` is parsed in up to one
    process per usable CPU, this one and forked children, or in this
    process alone while another thread runs, with the same result.
    """
    names = list(dict.fromkeys(names))
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InvalidDataError(f"cannot read samples from {path}: {exc}") from exc
    with fh:
        # ValueError covers header bytes that are not UTF-8
        try:
            header, start, header_lines = _data_start(fh)
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
    import mmap
    # MAP_SHARED: what forked children write to the table's float matrix
    # is the parent's too; mmap maps no 0 bytes, so an empty table gets
    # one.  A dtype dict keeps an empty name, which a field list calls f0
    memory = mmap.mmap(-1, max(8 * len(names) * lines, 1))
    table = np.ndarray(lines, {"names": names, "formats": ["f8"] * len(names)}, memory)
    buf = np.ndarray((lines, len(names)), buffer=memory)
    parts = min(len(plan), max(size // READ_RANGE_BYTES, 1))
    ranges = [(plan[i * len(plan) // parts:(i + 1) * len(plan) // parts],)
              for i in range(parts)]
    results = _ordered_map(_parse_blocks, (path, usecols, buf, header_lines + 1), ranges)
    counts = []
    for part, error in results:
        counts += part
        if error is not None:
            results.close()     # kills the children still parsing
            raise InvalidDataError(f"{path}: {error}")
    rows = 0
    for (_, _, row0), n in zip(plan, counts):
        if row0 != rows:    # blank lines above
            buf[rows:rows + n] = buf[row0:row0 + n]
        rows += n
    return table[:rows]
