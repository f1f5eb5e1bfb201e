import hashlib
import multiprocessing
import os
import subprocess
import sys
import textwrap
import warnings
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


def reference_table(header, columns) -> str:
    """The table as one string per cell: %.17g for floats, str otherwise."""
    cols = [np.asarray(c) for c in columns]
    lines = [",".join(header)]
    for i in range(cols[0].shape[0] if cols else 0):
        lines.append(",".join(
            "%.17g" % float(c[i]) if np.issubdtype(c.dtype, np.floating) else str(c[i])
            for c in cols))
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
            assert set(cols) == {"a", "b"}
            for col in cols.values():
                assert col.shape == (0,) and col.dtype == np.float64

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
        assert list(cols) == ["b"]
        assert cols["b"].tolist() == [2.0, 4.0]

    def test_nan_and_inf_pass_through(self, tmp_path):
        path = write_csv(tmp_path, "a\nnan\ninf\n-inf\n1e308\n")
        a = read_columns(path, ["a"])["a"]
        assert np.isnan(a[0])
        assert a[1:].tolist() == [np.inf, -np.inf, 1e308]

    def test_columns_are_contiguous_float_arrays(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3,4\n")
        for col in read_columns(path, ["a", "b"]).values():
            assert col.dtype == np.float64 and col.flags.c_contiguous

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

    def test_missing_column_is_data_error(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n", name="cols.csv")
        with pytest.raises(InvalidDataError, match="cols.csv.*missing.*c"):
            read_columns(path, ["a", "c"])

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(InvalidDataError, match="nope.csv"):
            read_columns(tmp_path / "nope.csv", ["a"])


class TestWriter:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.lists(st.tuples(
            st.integers(-2**63, 2**63 - 1),
            st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from(SPECIAL),
            st.text(alphabet="ABxyz_", max_size=4),
            st.floats(width=32, allow_nan=False)), max_size=12),
        chunk=st.integers(1, 5),
    )
    def test_matches_reference_renderer(self, tmp_path, rows, chunk):
        header = ["i", "x", "label", "y"]
        columns = [np.array([r[0] for r in rows], dtype=np.int64),
                   np.array([r[1] for r in rows], dtype=np.float64),
                   np.array([r[2] for r in rows], dtype=str),
                   np.array([r[3] for r in rows], dtype=np.float32)]
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
        columns = [np.arange(n), x, np.where(x > 0, "A", "B"), np.arange(n) % 2 == 0]
        header = ["i", "x", "c", "even"]
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
        write_table(path, ["n", "f"], [[100, 1000], [0.5, 0.25]])
        assert path.read_bytes() == b"n,f\n100,0.5\n1000,0.25\n"

    def test_malformed_columns_are_data_errors(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(InvalidDataError):
            write_table(path, ["a", "b"], [np.zeros(2)])
        with pytest.raises(InvalidDataError):
            write_table(path, ["a", "b"], [np.zeros(2), np.zeros(3)])

    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_render_processes_match_reference(self, tmp_path, monkeypatch, processes):
        # 7-row chunks: 8 and 22 rows give two and four chunks, so a pool
        # renders them whenever the machine has two CPUs
        monkeypatch.setattr(series, "CHUNK_ROWS", 7)
        values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e308, -1.5] * 3)
        header = ["i", "x", "y", "even", "c"]
        path = tmp_path / "t.csv"
        for n in (0, 1, 6, 7, 8, 22):
            x = values[:n]
            columns = [np.arange(n, dtype=np.int64) - 3, x, -x[::-1],
                       np.arange(n) % 2 == 0, np.where(np.arange(n) % 3 == 0, "A", "Bc")]
            with series.render_processes(processes):
                write_table(path, header, columns)
            assert path.read_bytes() == reference_table(header, columns).encode(), n
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2"])
    def test_render_processes_must_be_positive_integer(self, bad):
        with pytest.raises(InvalidParameterError):
            with series.render_processes(bad):
                pass

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_records_bytes_pinned(self, tmp_path, capsys, workers):
        # digests of the per-cell writer these files were first made with
        out = tmp_path / "records.csv"
        assert main(["simulate", "--kind", "entangled", "--n-pairs", "70001",
                     "--seed", "7", "--tau", "0.02", "--workers", workers,
                     "--out", str(out)]) == 0
        assert sha(out) == ("a6e15de6dc9d852476c8a5b68cef4f435ad173660330959e"
                            "8be76ec30bb8af09")
        assert sha(tmp_path / "records.csv.summary.json") == (
            "6a82a922d830ebb9d26122300aa0c75754bd2c87befb9fba5892c4a7f1d68a03")


def test_cli_import_leaves_scipy_out(tmp_path):
    # numpy is the only runtime dependency: importing every module,
    # solving the compatibility relations, evaluating both window laws
    # and running every subcommand load no scipy; with one worker they
    # load no multiprocessing or concurrent.futures either, whose import
    # the render pool defers
    code = textwrap.dedent("""
        import importlib, os, pkgutil, sys
        import firstphoton
        from firstphoton import analytic as an
        from firstphoton.cli import main
        for module in pkgutil.iter_modules(firstphoton.__path__):
            importlib.import_module("firstphoton." + module.name)
        rates = an.RatePair(1.0, 1.5)
        an.solve_compatibility(rates)
        for mode in an.WINDOW_MODES:
            window = an.WindowConfig(tau=0.1, mode=mode)
            for variant in an.WINDOW_VARIANTS:
                an.product_first_cdf([0.0, 0.5, 3.0], rates, window, variant)
                an.product_first_pdf([0.0, 0.5, 3.0], rates, window, variant)
        os.chdir(sys.argv[1])
        for argv in (["analytic", "--window-variant", "exact", "--out", "a.csv"],
                     ["simulate", "--kind", "product", "--n-pairs", "2000",
                      "--tau", "0.1", "--out", "r.csv"],
                     ["fit", "--samples", "r.csv", "--postselect", "--tau", "0.1"],
                     ["discriminate", "--samples", "r.csv", "--tau", "0.1"],
                     ["kinetics", "--t-end", "0.5", "--out", "k.csv"],
                     ["wavefunction", "--check", "n0f-antisymmetric", "--n", "32"]):
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
