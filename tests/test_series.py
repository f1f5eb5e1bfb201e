import hashlib
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import firstphoton
from firstphoton import series
from firstphoton.cli import main
from firstphoton.errors import InvalidDataError, InvalidParameterError
from firstphoton.series import read_columns, write_table


def reference_cell(v) -> str:
    """%.17g for a float, %d for an integer, a label as its characters."""
    if isinstance(v, np.floating):
        return "%.17g" % float(v)
    return v.decode() if isinstance(v, bytes) else str(v)


def reference_table(header, columns) -> str:
    """The table as one string per cell."""
    cols = [np.asarray(c) for c in columns]
    lines = [",".join(header)]
    for i in range(cols[0].shape[0] if cols else 0):
        lines.append(",".join(reference_cell(c[i]) for c in cols))
    return "\n".join(lines) + "\n"


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def same_bits(a, b) -> bool:
    """Equal bit for bit, except that any NaN matches any NaN: text keeps
    no NaN payload."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def write_csv(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e308, -1e308,
           1.7976931348623157e308, np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0]


class TestReader:
    def test_header_only_gives_empty_arrays_without_warning(self, tmp_path):
        for text in ("a,b\n", "a,b"):
            path = write_csv(tmp_path, text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cols = read_columns(path, ["a", "b"])
            assert cols.shape == (0,) and cols.dtype == [("a", "f8"), ("b", "f8")]

    def test_quoted_header_name(self, tmp_path):
        path = write_csv(tmp_path, '"a","b c"\n1,2\n3,4\n')
        cols = read_columns(path, ["b c", "a"])
        assert cols["a"].tolist() == [1.0, 3.0]
        assert cols["b c"].tolist() == [2.0, 4.0]

    def test_crlf_and_spaces_around_cells(self, tmp_path):
        path = write_csv(tmp_path, "a,b\r\n 1 , 2 \r\n3,\t4\r\n")
        cols = read_columns(path, ["a", "b"])
        assert cols["a"].tolist() == [1.0, 3.0]
        assert cols["b"].tolist() == [2.0, 4.0]

    def test_extra_cells_and_columns_ignored(self, tmp_path):
        path = write_csv(tmp_path, "a,label,b\n1,A,2,extra\n3,B,4\n")
        cols = read_columns(path, ["b"])
        assert cols.dtype.names == ("b",)
        assert cols["b"].tolist() == [2.0, 4.0]

    def test_nan_and_inf_pass_through(self, tmp_path):
        path = write_csv(tmp_path, "a\nnan\ninf\n-inf\n1e308\n")
        a = read_columns(path, ["a"])["a"]
        assert np.isnan(a[0])
        assert a[1:].tolist() == [np.inf, -np.inf, 1e308]

    def test_columns_are_contiguous_float_arrays(self, tmp_path):
        # the columns are float64 fields of one contiguous table, not copies
        path = write_csv(tmp_path, "a,b\n1,2\n3,4\n")
        table = read_columns(path, ["a", "b"])
        assert table.flags.c_contiguous and table.dtype == [("a", "f8"), ("b", "f8")]
        assert all(np.shares_memory(table[name], table) for name in table.dtype.names)
        # a one-column read, as fit's, is a contiguous float array
        a = read_columns(path, ["a"])["a"]
        assert a.dtype == np.float64 and a.flags.c_contiguous

    def test_repeated_name_reads_one_column(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3,4\n")
        cols = read_columns(path, ["b", "a", "b"])
        assert cols.dtype.names == ("b", "a")
        assert cols["b"].tolist() == [2.0, 4.0] and cols["a"].tolist() == [1.0, 3.0]

    def test_empty_header_name_is_a_column(self, tmp_path):
        path = write_csv(tmp_path, "a,,b\n1,2,3\n")
        cols = read_columns(path, ["", "b"])
        assert cols.dtype.names == ("", "b")
        assert cols[""].tolist() == [2.0] and cols["b"].tolist() == [3.0]

    @pytest.mark.parametrize("text", [
        "a,b\n1,2\n3\n",          # short row
        "a,b\n1,\n",              # empty cell
        "a,b\n1,x\n",             # non-numeric cell
        "a,b\n#1,2\n",            # no comment syntax
    ], ids=["short-row", "empty-cell", "non-numeric", "hash"])
    def test_bad_rows_are_data_errors_naming_the_file(self, tmp_path, text):
        path = write_csv(tmp_path, text, name="bad_rows.csv")
        with pytest.raises(InvalidDataError, match="bad_rows.csv"):
            read_columns(path, ["a", "b"])

    @pytest.mark.parametrize("raw", [b"\xff,t\n1,2\n", b"a,b\n1,2\n\xff,1\n",
                                     b"a" * 200_000 + b"\n1\n"],
                             ids=["not-utf8-header", "not-utf8-row", "huge-header"])
    def test_unparseable_bytes_are_data_errors(self, tmp_path, raw):
        path = tmp_path / "binary.csv"
        path.write_bytes(raw)
        with pytest.raises(InvalidDataError, match="binary.csv"):
            read_columns(path, ["a"])

    @pytest.mark.parametrize("text, where", [
        ("a,b\n1,2\n3,4\n5,x\n", "at line 4, column 2"),
        ("a,b\n1,2\n3,4\n5\n", "at line 4 with 1 columns"),
        ("a,b\n\n1,2\n\n\r\n3,x\n", "at line 6, column 2"),
        ("a,b\r\n\r\n1,2\r\n\r\n3\r\n", "at line 5 with 1 columns"),
        ("a,b\r\r1,2\r\r3,x\r", "at line 5, column 2"),
        ('a,b\n"1",2\n\n"3",x\n', "at line 4, column 2"),
        ('"a\n",b\n1,x\n', "at line 3, column 2"),     # the header takes two lines
    ], ids=["bad-cell", "short-row", "blank-lines", "crlf", "lone-cr", "quoted",
            "two-line-header"])
    def test_bad_row_names_its_line(self, tmp_path, text, where):
        path = write_csv(tmp_path, text)
        with pytest.raises(InvalidDataError, match=where):
            read_columns(path, [text[:text.index(",")].strip('"'), "b"])

    @pytest.mark.parametrize("raw, where", [
        (b"a,b\n" + b"1,2\n" * 3000 + b"3,x\n5,\xff\n", "at line 3002, column 2"),
        (b"a,b\n" + b"1,2\n" * 3000 + b"3,\xff\n5,x\n", "byte 12006 is not UTF-8 text"),
        (b"a,b\n3,x\n5,\xff\n", "at line 2, column 2"),
        (b"a,\xffb\n1,2\n", "byte 2 is not UTF-8 text"),
        (b"\xef\xbb\xbfa,\xffb\n1,2\n", "byte 5 is not UTF-8 text"),
    ], ids=["long-bad-cell", "long-bad-byte", "short-bad-cell", "header-byte",
            "header-byte-after-bom"])
    @pytest.mark.parametrize("block", [1 << 20, 1], ids=["one-block", "line-blocks"])
    def test_first_failing_line_names_the_error(self, tmp_path, monkeypatch, block, raw,
                                                where):
        # a bad cell and a byte that is not UTF-8, either first, in one
        # block or in a block each: the earlier line is the one named,
        # whether the file is longer than the header reader decodes ahead
        # (3000 good rows) or not; a bad byte in the header is named as
        # one in the data is
        monkeypatch.setattr(series, "READ_BLOCK_BYTES", block)
        path = tmp_path / "mixed.csv"
        path.write_bytes(raw)
        with pytest.raises(InvalidDataError, match=where):
            read_columns(path, ["a", "b"])

    @pytest.mark.parametrize("block", [1 << 20, 8], ids=["one-block", "line-blocks"])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, monkeypatch,
                                                       block):
        # a spreadsheet's "CSV UTF-8" export starts with one; the data
        # blocks start after its 3 bytes, and the header is still line 1
        monkeypatch.setattr(series, "READ_BLOCK_BYTES", block)
        path = tmp_path / "bom.csv"
        for head in (b"t_first,b", b'"t_first",b'):
            path.write_bytes(b"\xef\xbb\xbf" + head + b"\n1,2\n3,4\n")
            cols = read_columns(path, ["t_first", "b"])
            assert cols["t_first"].tolist() == [1.0, 3.0]
            assert cols["b"].tolist() == [2.0, 4.0]
        path.write_bytes(b"\xef\xbb\xbft_first,b\n1,2\n3,x\n")
        with pytest.raises(InvalidDataError, match="bom.csv.*at line 3, column 2"):
            read_columns(path, ["t_first", "b"])

    def test_missing_column_is_data_error(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n", name="cols.csv")
        with pytest.raises(InvalidDataError, match="cols.csv.*missing.*c"):
            read_columns(path, ["a", "c"])

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(InvalidDataError, match="nope.csv"):
            read_columns(tmp_path / "nope.csv", ["a"])


class TestReaderPool:
    """read_columns on small blocks with 1, 2 and 3 usable CPUs, so that
    forked children parse beside this process whenever there are two
    blocks, against one block parsed in this process."""

    @pytest.fixture
    def pools(self, monkeypatch, forks, context):
        """The children forked to parse, in order."""
        monkeypatch.setattr(series, "_usable_cpus", lambda: context)
        return forks

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("block", [1, 30])
    @pytest.mark.parametrize("context", [1, 2, 3])
    def test_same_bits(self, tmp_path, monkeypatch, pools, no_child_left, context, block,
                       newline):
        # blank lines lead, follow every third row, pile up in the middle
        # and trail, so some fall on block edges; the last line has no
        # newline.  Block 1 makes each line a block of its own.
        monkeypatch.setattr(series, "READ_BLOCK_BYTES", block)
        x = np.array(SPECIAL * 3)
        y = -x[::-1]
        lines = ["x,y", ""]
        for i, (a, b) in enumerate(zip(x, y)):
            lines.append(f"{a:.17g},{b:.17g}")
            lines += [""] * (i % 3 == 0) + [""] * 3 * (i == len(x) // 2)
        path = write_csv(tmp_path, newline.join(lines + ["", "", "9,9"]))
        cols = read_columns(path, ["y", "x"])
        assert no_child_left()
        # blocks end at a \n, so lone \r endings make one block, parsed here
        assert len(pools) == (0 if newline == "\r" else context - 1)
        assert same_bits(cols["x"], np.append(x, 9.0))
        assert same_bits(cols["y"], np.append(y, 9.0))
        assert cols.dtype == [("y", "f8"), ("x", "f8")] and cols.flags.c_contiguous

    @pytest.mark.parametrize("bad, where", [
        (b"1,x", "at line 2288, column 2"),     # header, 2000 rows, 286 blank lines
        (b"1", "at line 2288 with 1 columns"),
        (b"1,\xff", None),
    ], ids=["bad-cell", "short-row", "not-utf8"])
    @pytest.mark.parametrize("context", [1, 2, 3])
    def test_error_in_last_range(self, tmp_path, monkeypatch, pools, no_child_left, context,
                                 bad, where):
        # 2000 good rows with a blank line after every seventh, so blank
        # lines fall on block edges, then the bad row and two more
        rows = [b"%d,%d.5" % (i, i) + b"\n" * (1 + (i % 7 == 0)) for i in range(2000)]
        raw = b"a,b\n" + b"".join(rows) + bad + b"\n7,7\n8,8\n"
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        with pytest.raises(InvalidDataError) as whole:
            read_columns(path, ["a", "b"])      # one block, no child
        monkeypatch.setattr(series, "READ_BLOCK_BYTES", 64)
        with pytest.raises(InvalidDataError) as blocked:
            read_columns(path, ["a", "b"])
        assert no_child_left()
        assert len(pools) == context - 1
        message = str(blocked.value)
        assert message == str(whole.value) and "bad.csv" in message
        assert (where or "byte %d is not UTF-8" % raw.index(b"\xff")) in message

    @pytest.mark.parametrize("context", [2])
    def test_three_default_blocks_fork_one_child(self, tmp_path, monkeypatch, pools,
                                                 no_child_left, context):
        # about 1.1 MB is three blocks of the default size, so on two CPUs
        # each read forks one child, and reads as one CPU does.  The bad
        # file fails in the second block, the child's, and in the third
        x = np.arange(32000) / 7.0
        rows = ["%.17g,%.17g\n" % (v, -v) for v in x]
        good = write_csv(tmp_path, "".join(["x,y\n", *rows]), "good.csv")
        bad = write_csv(tmp_path, "".join(["x,y\n", *rows[:16000], "1,x\n", *rows[16000:],
                                           "2,x\n"]))
        assert 2 * series.READ_BLOCK_BYTES < good.stat().st_size < 3 * series.READ_BLOCK_BYTES
        results = {}
        for cpus in (2, 1):
            monkeypatch.setattr(series, "_usable_cpus", lambda: cpus)
            with pytest.raises(InvalidDataError) as error:
                read_columns(bad, ["x", "y"])
            results[cpus] = read_columns(good, ["x", "y"]), str(error.value)
            assert len(pools) == 2 and no_child_left()
        (forked, forked_error), (alone, alone_error) = results[2], results[1]
        assert same_bits(forked["x"], x) and same_bits(forked["y"], -x)
        assert same_bits(alone["x"], x) and same_bits(alone["y"], -x)
        assert forked_error == alone_error and "at line 16002, column 2" in forked_error

    @pytest.mark.parametrize("context", [2])
    def test_no_pool_while_another_thread_runs(self, tmp_path, monkeypatch, pools, context):
        monkeypatch.setattr(series, "READ_BLOCK_BYTES", 64)
        x = np.arange(500) / 7.0
        path = write_csv(tmp_path, "x\n" + "".join("%.17g\n" % v for v in x))
        alone = read_columns(path, ["x"])["x"]
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            beside = read_columns(path, ["x"])["x"]
        finally:
            stop.set()
            thread.join()
        assert len(pools) == 1
        assert same_bits(alone, x) and same_bits(beside, x)

    @pytest.mark.parametrize("context", [2, 3])
    def test_closed_map_leaves_no_worker(self, pools, no_child_left, context):
        # closed after one task of each worker, the children still running
        results = series._ordered_map(divmod, (100,), [(d,) for d in range(1, 40)])
        assert [next(results) for _ in range(context)] == [divmod(100, d)
                                                           for d in range(1, context + 1)]
        results.close()
        assert len(pools) == context - 1
        assert no_child_left()


def exit_3():
    os._exit(3)


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def child_fate(parent: int, target: int, fate, i: int) -> int:
    """Task ``i`` of a map: ``fate()`` when it is task ``target`` and runs
    in a forked child of ``parent``, else ``i``."""
    if i == target and os.getpid() != parent:
        fate()
    return i


class TestForkedMap:
    """_ordered_map with 2 and 3 usable CPUs, where task i runs in worker
    i % w: a worker that dies or fails ends the map within the call, and
    no child outlives it (an early close is TestReaderPool's)."""

    @pytest.fixture
    def cpus(self, request, monkeypatch, no_child_left):
        monkeypatch.setattr(series, "_usable_cpus", lambda: request.param)
        # a map that hangs fails here instead of holding the suite
        signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the map hung"))
        signal.alarm(60)
        yield request.param
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        assert no_child_left()

    @pytest.mark.parametrize("cpus", [2, 3], indirect=True)
    @pytest.mark.parametrize("fate, how", [(exit_3, "exited with status 3"),
                                           (kill_self, "was killed by SIGKILL")],
                             ids=["exit", "sigkill"])
    def test_dead_child_ends_the_map(self, cpus, fate, how):
        # the last child dies in its first task
        tasks = [(i,) for i in range(4 * cpus)]
        results = series._ordered_map(child_fate, (os.getpid(), cpus - 1, fate), tasks)
        assert [next(results) for _ in range(cpus - 1)] == list(range(cpus - 1))
        with pytest.raises(RuntimeError, match=f"^worker {cpus - 1} {how} "):
            next(results)

    @pytest.mark.parametrize("cpus", [2, 3], indirect=True)
    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "child"])
    def test_task_error_reaches_the_caller(self, cpus, failing):
        # task 0 runs in this process and task 1 in the first child; the
        # error is the one a map in this process raises, in task order
        tasks = [(d,) for d in [7, 5, 3, 9, 4, 6]]
        tasks[failing] = (0,)
        with pytest.raises(ZeroDivisionError) as serial:
            [divmod(100, *task) for task in tasks]
        results = series._ordered_map(divmod, (100,), tasks)
        assert [next(results) for _ in range(failing)] == [divmod(100, 7)] * failing
        with pytest.raises(ZeroDivisionError) as forked:
            next(results)
        assert str(forked.value) == str(serial.value)


class TestWriter:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.lists(st.tuples(
            st.integers(-2**53, 2**53),
            st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from(SPECIAL),
            st.text(alphabet="ABxyz_", max_size=4),
            st.floats(width=32, allow_nan=False)), max_size=12),
        chunk=st.integers(1, 5),
    )
    def test_matches_reference_renderer(self, tmp_path, rows, chunk):
        header = ["i", "x", "label", "y", "code"]
        labels = np.array([r[2] for r in rows], dtype=str)
        columns = [np.array([r[0] for r in rows], dtype=np.int64),
                   np.array([r[1] for r in rows], dtype=np.float64),
                   labels,
                   np.array([r[3] for r in rows], dtype=np.float32),
                   labels.astype("S")]
        path = tmp_path / "t.csv"
        # a small chunk makes a few rows span several chunks
        with mock.patch.object(series, "CHUNK_ROWS", chunk):
            write_table(path, header, columns)
        assert path.read_bytes() == reference_table(header, columns).encode()
        back = read_columns(path, ["i", "x", "y"])
        assert same_bits(back["x"], columns[1])
        assert same_bits(back["y"], columns[3].astype(np.float64))

    def test_several_full_chunks(self, tmp_path):
        n = 2 * series.CHUNK_ROWS + 7
        rng = np.random.default_rng(5)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        x[:len(SPECIAL)] = SPECIAL
        columns = [np.arange(n), x, np.where(x > 0, b"A", b"B"), np.arange(n) % 2,
                   np.where(np.arange(n) % 3 == 0, "A", "Bc")]
        header = ["i", "x", "c", "odd", "label"]
        path = tmp_path / "big.csv"
        write_table(path, header, columns)
        assert path.read_bytes() == reference_table(header, columns).encode()
        back = read_columns(path, ["i", "x"])
        assert same_bits(back["x"], x)
        assert back["i"].tolist() == list(range(n))

    def test_zero_rows_and_plain_lists(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b"], [np.array([]), np.array([], dtype=int)])
        assert path.read_bytes() == b"a,b\n"
        for labels in (np.array([], dtype=str), np.array([], dtype="S3")):
            write_table(path, ["c"], [labels])
            assert path.read_bytes() == b"c\n"
        write_table(path, ["n", "f"], [[100, 1000], [0.5, 0.25]])
        assert path.read_bytes() == b"n,f\n100,0.5\n1000,0.25\n"

    def test_malformed_columns_are_data_errors(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(InvalidDataError):
            write_table(path, ["a", "b"], [np.zeros(2)])
        with pytest.raises(InvalidDataError):
            write_table(path, ["a", "b"], [np.zeros(2), np.zeros(3)])

    def test_utf8_round_trip(self, tmp_path):
        # a header name may be any UTF-8 text; cells are numbers and ASCII labels
        header = ["t_\u00e9", "label"]
        columns = [np.array([0.5, 1.25, 2.0]), np.array(["a", "b", "tau2"])]
        path = tmp_path / "t.csv"
        write_table(path, header, columns)
        assert path.read_bytes() == reference_table(header, columns).encode("utf-8")
        assert read_columns(path, ["t_\u00e9"])["t_\u00e9"].tolist() == [0.5, 1.25, 2.0]

    @pytest.mark.parametrize("column", [np.array([True, False]),
                                        np.array([0.5, "a"], dtype=object),
                                        np.array([1 + 2j, 3j])],
                             ids=["bool", "object", "complex"])
    def test_cells_other_than_numbers_and_labels_are_data_errors(self, tmp_path, column):
        path = tmp_path / "t.csv"
        with pytest.raises(InvalidDataError, match="'label'.*not numbers or labels"):
            write_table(path, ["x", "label"], [np.zeros(2), column])
        assert not path.exists()

    @pytest.mark.parametrize("column", [np.array(["a", "\u00e5"]), np.array(["a", "x\ud800"]),
                                        np.array([b"a", b"\xff"])],
                             ids=["str", "surrogate", "bytes"])
    def test_label_not_ascii_is_data_error(self, tmp_path, column):
        path = tmp_path / "t.csv"
        with pytest.raises(InvalidDataError, match="'label'.*not ASCII"):
            write_table(path, ["x", "label"], [np.zeros(2), column])
        assert not path.exists()

    @pytest.mark.parametrize("column", [np.array(["a", "b\0c"]), np.array(["a", "\0b"]),
                                        np.array([b"a", b"b\0c"]),
                                        np.array([b"A,B", b"C"]), np.array(['"A"', "B"]),
                                        np.array([b"A", b"C\nD"]), np.array(["A", "B\r"])],
                             ids=["inside", "leading", "bytes",
                                  "comma", "quote", "lf", "cr"])
    def test_nul_in_text_is_data_error(self, tmp_path, column):
        # a label "C\nD" would read back as two rows, "A,B" as two cells
        path = tmp_path / "t.csv"
        with pytest.raises(InvalidDataError, match="'label'.*NUL"):
            write_table(path, ["x", "label"], [np.zeros(2), column])
        assert not path.exists()

    @pytest.mark.parametrize("name, header, reason", [
        ("a\ud800", ["x", "a\ud800"], "UTF-8"),
        ("a,b", ["a,b", "c"], "comma"),
        ('a"', ['a"', "c"], "quote"),
        ("a\rb", ["a\rb", "c"], "line break"),
        ("c\n", ["a", "c\n"], "line break"),
    ], ids=["header", "header-comma", "header-quote", "header-cr", "header-lf"])
    def test_surrogate_is_data_error(self, tmp_path, name, header, reason):
        # a lone surrogate has no UTF-8 bytes; a header of ["a,b", "c"]
        # would read back as three names over rows of two cells
        path = tmp_path / "t.csv"
        with pytest.raises(InvalidDataError, match=re.escape(repr(name)) + ".*" + reason):
            write_table(path, header, [np.zeros(2), np.array(["a", "b"])])
        assert not path.exists()

    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_render_processes_match_reference(self, tmp_path, monkeypatch, no_child_left,
                                              processes):
        # 7-row chunks: 8 and 22 rows give two and four chunks, so forked
        # children render beside this process whenever the machine has two CPUs
        monkeypatch.setattr(series, "CHUNK_ROWS", 7)
        values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e308, -1.5] * 3)
        header = ["i", "x", "y", "odd", "c"]
        path = tmp_path / "t.csv"
        for n in (0, 1, 6, 7, 8, 22):
            x = values[:n]
            columns = [np.arange(n, dtype=np.int64) - 3, x, -x[::-1],
                       np.arange(n) % 2, np.where(np.arange(n) % 3 == 0, b"A", b"Bc")[::-1]]
            with series.processes(processes):
                write_table(path, header, columns)
            assert path.read_bytes() == reference_table(header, columns).encode(), n
            assert no_child_left()

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2"])
    def test_render_processes_must_be_positive_integer(self, bad):
        with pytest.raises(InvalidParameterError):
            with series.processes(bad):
                pass

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_records_bytes_pinned(self, tmp_path, capsys, workers):
        # the three-column file is the per-cell writer's five-column file
        # (a6e15de6...) with its pair_id and channel_second cut out
        out = tmp_path / "records.csv"
        assert main(["simulate", "--kind", "entangled", "--n-pairs", "70001",
                     "--seed", "7", "--tau", "0.02", "--workers", workers,
                     "--out", str(out)]) == 0
        assert sha(out) == ("b99c83c4da1a9d824ec1f3dd9316db8712d0e9088d1d881d"
                            "b58f744dbd72bd93")
        assert sha(tmp_path / "records.csv.summary.json") == (
            "6a82a922d830ebb9d26122300aa0c75754bd2c87befb9fba5892c4a7f1d68a03")


def rendered(column) -> list[str]:
    """Each cell of one column as the chunk renderer writes it."""
    column = np.asarray(column)
    return series._render([column], 0, column.size).decode().splitlines()


class TestRenderKernel:
    """The byte-matrix renderer against one %-format per cell."""

    @staticmethod
    def check_floats(x):
        x = np.asarray(x)
        assert rendered(x) == ["%.17g" % v for v in x.tolist()]

    @staticmethod
    def random_bit_patterns():
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**64, 60_000, dtype=np.uint64, endpoint=False)
        # and as many again with exponents in and around the kernel's range
        near = rng.integers(1023 - 45, 1023 + 62, bits.size).astype(np.uint64)
        bits2 = (bits & np.uint64(0x800FFFFFFFFFFFFF)) | (near << np.uint64(52))
        return np.concatenate([bits, bits2]).view(np.float64)

    @staticmethod
    def ties():
        # m * 2**-e with m * 5**e of 18 digits ends in a 5 just past the
        # 17th digit: an exact tie, rounded to an even last digit
        return np.array([m * 2.0 ** -e for e in range(20, 26) for m in range(1, 4096, 2)
                         if 10**17 <= m * 5**e < 10**18])

    @staticmethod
    def few_bit_mantissas():
        # across the range, ties or not
        rng = np.random.default_rng(13)
        return rng.integers(1, 256, 20_000) * 2.0 ** rng.integers(-70, 70, 20_000)

    @staticmethod
    def neighbours_of_powers_of_ten():
        x = []
        for k in range(-12, 19):
            below = above = 10.0 ** k
            x.append(below)
            for _ in range(8):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
                x += [below, above]
        return np.array(x)

    def test_random_bit_patterns(self):
        self.check_floats(self.random_bit_patterns())

    def test_exponentials_at_record_rates(self):
        rng = np.random.default_rng(12)
        for rate in (1.0, 1.5, 2.5):
            t = rng.exponential(1.0 / rate, 20_000)
            self.check_floats(np.concatenate([t, t + rng.exponential(1.0, t.size)]))

    def test_ties_round_half_to_even(self):
        x = self.ties()
        # the kernel covers the ties from 1e-4 up; %.17g writes the rest
        kernel = x >= 1e-4
        assert kernel.sum() > 1000 and series._decimal(x[kernel])[2].all()
        self.check_floats(x)
        self.check_floats(-x)
        self.check_floats(self.few_bit_mantissas())

    def test_neighbours_of_powers_of_ten(self):
        x = self.neighbours_of_powers_of_ten()
        self.check_floats(x)
        self.check_floats(-x)

    def test_bounds_of_decimal_exponents(self):
        # each is the least double at or above its power of ten, which
        # makes the kernel's exponent exact
        for j, bound in enumerate(series._BOUNDS.tolist(), series._LOW_EXPONENT):
            assert Fraction(np.nextafter(bound, 0.0)) < Fraction(10) ** j <= Fraction(bound), j

    @staticmethod
    def low_edge():
        # 1e-4, below which %.17g writes an exponent and the kernel
        # leaves the cell to it
        edge = float("1e-4")
        return np.concatenate([
            [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0), 9.999999999999999e-5, 1e-5],
            np.logspace(-7, -3, 20_001),
            # a kinetics table's tail
            np.exp(-2.5 * np.linspace(3.0, 6.0, 30_001))])

    def test_low_edge_of_the_kernel(self):
        x = self.low_edge()
        self.check_floats(x)
        self.check_floats(-x)

    def test_kernel_covers_the_fixed_notation_only(self):
        x = np.concatenate([self.low_edge(), self.neighbours_of_powers_of_ten(),
                            self.random_bit_patterns(), SPECIAL])
        x = np.concatenate([x, -x])
        covered = series._decimal(x)[2]
        size = np.abs(x)
        assert np.array_equal(covered, (size >= 1e-4) & (size < 1e17))
        assert not any("e" in cell for cell in np.array(rendered(x))[covered])

    def test_bytes_do_not_depend_on_simd_dispatch(self):
        # np.log10, which gives the first guess of the decimal exponent,
        # differs with numpy's SIMD dispatch; the bytes must not.  numpy
        # refuses to import when a disabled name is not in its list
        from numpy._core._multiarray_umath import __cpu_dispatch__
        if not __cpu_dispatch__:
            pytest.skip("numpy dispatches to no optional CPU features")
        x = np.concatenate([self.random_bit_patterns(), self.ties(),
                            self.neighbours_of_powers_of_ten()])
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from numpy._core._multiarray_umath import __cpu_features__, __cpu_dispatch__
            from firstphoton import series
            assert not any(__cpu_features__[name] for name in __cpu_dispatch__)
            x = np.frombuffer(sys.stdin.buffer.read(), np.float64)
            sys.stdout.buffer.write(series._render([x], 0, x.size))
            """)
        src = os.path.dirname(os.path.dirname(firstphoton.__file__))
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], input=x.tobytes(),
                              capture_output=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == series._render([x], 0, x.size)

    def test_cells_outside_the_kernel(self):
        self.check_floats(SPECIAL + [1e-6, 1e-11, 9.999999999999999e-12, 1e17, 9.999999999999999e16,
                                     -5e-324, 2.2250738585072014e-308, 123456789012345678.0])
        self.check_floats(np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.1, 1e-7, 3.4e38,
                                    1e-45, 16777217.0], np.float32))

    def test_integer_extremes(self):
        # an integer is written as the double it equals, %d's bytes up to 2**53
        for column in (np.array([-2**53, 2**53, 2**53 - 1, -1, 0, 1, -10**15, 10**15,
                                 10**15 - 1, 123456789012345], np.int64),
                       np.array([2**53, 0, 9, 10, 2**32], np.uint64),
                       np.array([-128, 127, 0, -5], np.int8)):
            assert rendered(column) == ["%d" % v for v in column.tolist()]

    @pytest.mark.parametrize("column", [np.array([0, 2**53 + 1], np.int64),
                                        np.array([-2**53 - 1, 5], np.int64),
                                        np.array([-2**63], np.int64),
                                        np.array([2**64 - 1], np.uint64)],
                             ids=["2**53+1", "-2**53-1", "-2**63", "2**64-1"])
    def test_integers_beyond_two_to_the_53_are_refused(self, tmp_path, column):
        # no double holds them exactly, so no file is made
        path = tmp_path / "t.csv"
        with pytest.raises(InvalidDataError, match="2\\*\\*53"):
            write_table(path, ["i"], [column])
        assert not path.exists()


def test_cli_import_leaves_scipy_out(tmp_path):
    # numpy is the only runtime dependency: importing every module,
    # solving the compatibility relations, evaluating both window laws
    # and running every subcommand load no scipy, and no multiprocessing
    # or concurrent.futures either: rendering with two workers over three
    # chunks and parsing a file of several read blocks fork plain children
    code = textwrap.dedent("""
        import importlib, os, pkgutil, sys
        import firstphoton
        from firstphoton import analytic as an, series
        from firstphoton.cli import main
        for module in pkgutil.iter_modules(firstphoton.__path__):
            importlib.import_module("firstphoton." + module.name)
        rates = an.RatePair(1.0, 1.5)
        an.solve_compatibility(rates)
        for mode in an.WINDOW_MODES:
            window = an.WindowConfig(tau=0.1, mode=mode)
            for variant in an.WINDOW_VARIANTS:
                an.product_first_cdf([0.0, 0.5, 3.0], rates, window, variant)
            an.product_first_pdf([0.0, 0.5, 3.0], rates, window)
        os.chdir(sys.argv[1])
        for argv in (["analytic", "--window-variant", "exact", "--out", "a.csv"],
                     ["simulate", "--kind", "product", "--n-pairs", "2000",
                      "--tau", "0.1", "--out", "r.csv"],
                     ["fit", "--samples", "r.csv", "--tau", "0.1"],
                     ["fit", "--samples", "r.csv", "--postselect", "--tau", "0.1"],
                     ["discriminate", "--samples", "r.csv", "--tau", "0.1"],
                     ["discriminate", "--samples", "r.csv", "--postselect",
                      "--tau", "0.1"],
                     ["kinetics", "--t-end", "0.5", "--out", "k.csv"],
                     ["wavefunction", "--check", "n0f-antisymmetric", "--n", "32"]):
            assert main(argv) == 0, argv
        # 40000 records: 3 render chunks and 4 read blocks
        for argv in (["simulate", "--kind", "product", "--n-pairs", "40000",
                      "--tau", "0.1", "--workers", "2", "--out", "r2.csv"],
                     ["fit", "--samples", "r2.csv", "--tau", "0.1"],
                     ["discriminate", "--samples", "r2.csv", "--postselect",
                      "--tau", "0.1"]):
            assert main(argv) == 0, argv
        loaded = sorted(m for m in sys.modules
                        if m.split(".")[0] in ("scipy", "multiprocessing", "concurrent"))
        sys.exit("loaded " + ", ".join(loaded) if loaded else None)
        """)
    src = os.path.dirname(os.path.dirname(firstphoton.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
