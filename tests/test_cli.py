import compileall
import hashlib
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import firstphoton
from firstphoton import analytic, errors, montecarlo, series
from firstphoton.cli import WAVEFUNCTION_CHECKS, build_parser, load_config, main
from firstphoton.series import read_columns


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestAnalytic:
    def test_writes_expected_table(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(["analytic", "--t-max", "4", "--n-points", "101",
                     "--out", str(out)])
        assert code == 0
        cols = read_columns(out, ["t", "nf_entangled", "nf_product", "n_a", "n_b"])
        assert cols["t"].shape == (101,)
        for name in ("nf_entangled", "nf_product", "n_a", "n_b"):
            assert cols[name][0] == 0.0
            assert np.all(np.diff(cols[name]) >= -1e-12)
        # entangled pairs always lead the post-selected product pairs
        assert np.all(cols["nf_entangled"] >= cols["nf_product"] - 1e-12)
        assert (tmp_path / "curves.csv.manifest.json").exists()

    def test_long_horizon_saturates(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["analytic", "--t-max", "8", "--out", str(out)]) == 0
        cols = read_columns(out, ["nf_entangled", "nf_product", "n_a", "n_b"])
        for name in cols.dtype.names:
            assert cols[name][-1] == pytest.approx(1.0, abs=1e-3), name

    def test_wide_window_is_parameter_error(self, tmp_path, capsys):
        code = main(["analytic", "--tau", "1.7", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "gamma_a + gamma_b" in err or "too wide" in err

    def test_exact_variant(self, tmp_path):
        columns = {}
        for mode in ("grid-bin", "pairwise"):
            out = tmp_path / f"{mode}.csv"
            assert main(["analytic", "--window-variant", "exact", "--tau", "0.5",
                         "--mode", mode, "--out", str(out)]) == 0
            columns[mode] = read_columns(out, ["nf_entangled", "nf_product"])
            assert np.all(np.diff(columns[mode]["nf_product"]) >= -1e-12)
        # --mode selects the exact law and leaves the other columns alone
        grid, pair = columns["grid-bin"], columns["pairwise"]
        assert np.array_equal(grid["nf_entangled"], pair["nf_entangled"])
        assert float(np.max(np.abs(grid["nf_product"] - pair["nf_product"]))) > 1e-3

    @pytest.mark.parametrize("mode", ["grid-bin", "pairwise"])
    def test_exact_law_beyond_taylor_bound(self, tmp_path, mode):
        # tau * gamma_a * gamma_b = 3 > gamma_a + gamma_b: no alpha exists,
        # but the exact law needs none
        out = tmp_path / "curves.csv"
        assert main(["analytic", "--window-variant", "exact", "--tau", "2",
                     "--mode", mode, "--t-max", "30", "--out", str(out)]) == 0
        nf = read_columns(out, ["nf_product"])["nf_product"]
        assert np.all((nf >= 0.0) & (nf <= 1.0))
        assert np.all(np.diff(nf) >= 0.0)
        assert nf[0] == 0.0 and nf[-1] == pytest.approx(1.0, abs=1e-12)

    def test_taylor_law_beyond_its_bound_is_parameter_error(self, tmp_path, capsys):
        assert main(["analytic", "--window-variant", "taylor", "--tau", "2",
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: window too wide") and len(err.splitlines()) == 1

    def test_taylor_law_falling_from_zero_is_parameter_error(self, tmp_path, capsys):
        # alpha exists (tau g_a g_b = 1.8 < 2.5), but 2 tau g_a g_b = 3.6 > 2.5
        # makes the curve's slope at t = 0 negative: it fell to -0.247
        assert main(["analytic", "--tau", "1.2", "--n-points", "401",
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: window too wide") and len(err.splitlines()) == 1

    def test_taylor_law_at_its_bound_is_a_cdf(self, tmp_path):
        # the default tau = 5/6 gives 2 tau g_a g_b = g_a + g_b exactly
        out = tmp_path / "x.csv"
        assert main(["analytic", "--n-points", "401", "--out", str(out)]) == 0
        nf = read_columns(out, ["nf_product"])["nf_product"]
        assert nf[0] == 0.0 and np.all(np.diff(nf) >= 0.0)

    @pytest.mark.parametrize("mode", ["grid-bin", "pairwise"])
    def test_exact_law_lost_to_rounding_is_parameter_error(self, tmp_path, capsys, mode):
        # tau = 40 keeps a fraction of the pairs that rounds to 0, where
        # the exact law would be NaN
        assert main(["analytic", "--window-variant", "exact", "--tau", "40",
                     "--mode", mode, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "keeps a fraction" in err
        assert len(err.splitlines()) == 1

    def test_oversized_grid_is_parameter_error(self, tmp_path, capsys):
        # petabytes, beyond physical memory: refused before anything is
        # allocated; 2**62 and 10**19 points also pass the largest array
        # numpy can address, where numpy raises ValueError
        for n_points in (10**15, 2**62, 10**19):
            assert main(["analytic", "--n-points", str(n_points),
                         "--out", str(tmp_path / "x.csv")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "--n-points" in err
            assert len(err.splitlines()) == 1


    def test_allocation_failure_is_parameter_error(self, tmp_path):
        # 1.6 GB of grid under a 1 GiB address-space limit: numpy raises
        # MemoryError, which main reports in one line
        code = ("import resource, sys; from firstphoton.cli import main; "
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "sys.exit(main(['analytic', '--n-points', '200000000', "
                "'--out', 'unwritten.csv']))")
        src = os.path.dirname(os.path.dirname(firstphoton.__file__))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path):
        out = tmp_path / "records.csv"
        argv = ["simulate", "--kind", "product", "--n-pairs", "20000",
                "--seed", "7", "--tau", "0.1", "--out", str(out)]
        assert main(argv) == 0
        first = sha(out)
        summary = json.loads((tmp_path / "records.csv.summary.json").read_text())
        assert summary["kept"] + summary["discarded"] == 20000
        predicted = summary["predicted_coincidence_rate"]
        sigma = math.sqrt(predicted * (1 - predicted) / 20000)
        assert abs(summary["empirical_coincidence_rate"] - predicted) < 5 * sigma
        assert main(argv) == 0
        assert sha(out) == first

    def test_worker_count_invariant(self, tmp_path, no_child_left):
        # two full chunks and a short one, so two and three workers
        # really split both the sampling and the rendering
        common = ["simulate", "--n-pairs", str(2 * series.CHUNK_ROWS + 17),
                  "--seed", "3"]
        digests = set()
        for workers in ("1", "2", "3"):
            out = tmp_path / f"w{workers}.csv"
            assert main(common + ["--workers", workers, "--out", str(out)]) == 0
            assert no_child_left()
            digests.add(sha(out))
        assert len(digests) == 1

    def test_render_processes_capped_by_chunks_and_cpus(self, tmp_path, monkeypatch, forks):
        # three chunks on eight usable CPUs: the caller and two children
        monkeypatch.setattr(series, "_usable_cpus", lambda: 8)
        common = ["simulate", "--n-pairs", str(3 * series.CHUNK_ROWS), "--seed", "5"]
        base, capped = tmp_path / "w1.csv", tmp_path / "wmany.csv"
        assert main(common + ["--workers", "1", "--out", str(base)]) == 0
        assert forks == []
        assert main(common + ["--workers", "100000", "--out", str(capped)]) == 0
        assert len(forks) == 2
        assert sha(capped) == sha(base)

    def test_unwritable_out_starts_no_pool(self, tmp_path, capsys, forks):
        out = tmp_path / "missing" / "r.csv"
        assert main(["simulate", "--n-pairs", str(2 * series.CHUNK_ROWS + 1),
                     "--workers", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert forks == []

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_are_parameter_errors(self, tmp_path, capsys, workers):
        assert main(["simulate", "--n-pairs", "100", "--workers", workers,
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("mode, digest", [
        ("grid-bin", "8984e25d13afde4e996627fa2946b7ef9a7a40b8555d5da7b98ebbfba8dc07e9"),
        ("pairwise", "5d1a4174a23dcb5333ce09faa4ec6e5c066c912dbd82280dd82b440eb3a93137"),
    ])
    def test_summary_bytes_pinned(self, tmp_path, mode, digest):
        # digests of summaries made when the counts came from postselect's
        # copy of the kept records
        out = tmp_path / "records.csv"
        assert main(["simulate", "--kind", "product", "--n-pairs", "20000",
                     "--seed", "19", "--tau", "0.3", "--mode", mode,
                     "--out", str(out)]) == 0
        assert sha(tmp_path / "records.csv.summary.json") == digest

    def test_bad_parameters(self, tmp_path, capsys):
        assert main(["simulate", "--n-pairs", "-2",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["simulate", "--gamma-a", "-1.0",
                     "--out", str(tmp_path / "x.csv")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("rates", [
        ["--gamma-a", "1e308", "--gamma-b", "1e308"],   # gamma_a + gamma_b is inf
        ["--gamma-a", "1e-320"],                        # 1 / gamma_a is inf
        ["--gamma-b", "1e-320"],
    ], ids=["sum", "tiny-a", "tiny-b"])
    def test_overflowing_rates_are_parameter_errors(self, tmp_path, capsys, rates):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--n-pairs", "100", *rates, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_oversized_run_is_parameter_error(self, tmp_path, capsys):
        # 17.8 PiB of records, beyond physical memory: refused before
        # anything is allocated; 10**19 pairs also pass the largest array
        # numpy can address
        for n_pairs in (10**15, 10**19):
            assert main(["simulate", "--n-pairs", str(n_pairs),
                         "--out", str(tmp_path / "x.csv")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "--n-pairs" in err
            assert len(err.splitlines()) == 1

    def test_manifest_replays_byte_identically(self, tmp_path):
        out = tmp_path / "records.csv"
        assert main(["simulate", "--n-pairs", "5000", "--seed", "41",
                     "--out", str(out)]) == 0
        first = sha(out)
        manifest = json.loads((tmp_path / "records.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert main(manifest["argv"]) == 0
        assert sha(out) == first


class TestFit:
    def test_frozen_sample(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("t_first\n1.0\n1.0\n1.0\n")
        code, payload = run_json(capsys, ["fit", "--samples", str(samples)])
        assert code == 0
        assert payload["rate_estimate"] == 1.0
        assert payload["n_samples"] == 3

    def test_fit_result_file_and_manifest(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("t_first\n0.5\n")
        out = tmp_path / "fit.json"
        code, payload = run_json(capsys, ["fit", "--samples", str(samples),
                                          "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text()) == payload
        assert (tmp_path / "fit.json.manifest.json").exists()

    def test_recovers_rate_from_simulation(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        assert main(["simulate", "--n-pairs", "50000", "--seed", "11",
                     "--out", str(records)]) == 0
        capsys.readouterr()
        code, payload = run_json(capsys, ["fit", "--samples", str(records)])
        assert code == 0
        assert abs(payload["rate_estimate"] - 2.5) < 4.0 * payload["std_error"]

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["fit", "--samples", str(tmp_path / "nope.csv")]) == 3
        capsys.readouterr()

    def test_headers_only_is_data_error(self, tmp_path, capsys):
        samples = tmp_path / "empty.csv"
        samples.write_text("t_first\n")
        assert main(["fit", "--samples", str(samples)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["fit"], ["fit", "--postselect"],
                                         ["discriminate", "--postselect"]])
    def test_bad_cell_in_last_range_is_data_error(self, tmp_path, capsys, monkeypatch,
                                                  no_child_left, command):
        # 4 KiB blocks: the 2000-row file is parsed in two processes on two CPUs
        monkeypatch.setattr(series, "READ_BLOCK_BYTES", 4096)
        samples = tmp_path / "r.csv"
        assert main(["simulate", "--kind", "product", "--n-pairs", "2000",
                     "--tau", "0.02", "--out", str(samples)]) == 0
        lines = samples.read_bytes().splitlines(keepends=True)
        lines[-3] = b"x" + lines[-3]      # t_first on line 1999
        samples.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert main(command + ["--tau", "0.02", "--samples", str(samples)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "r.csv" in err and "at line 1999," in err
        assert no_child_left()

    @pytest.mark.parametrize("flags", [
        ["--gamma-a", "nan", "--gamma-b", "-5", "--tau", "inf"],
        ["--gamma-a", "0"],
        ["--gamma-b", "1e-320"],
        ["--tau", "-1"],
        ["--postselect", "--tau", "nan"],
    ], ids=["three", "gamma-a", "gamma-b", "tau", "postselect-tau"])
    def test_invalid_rate_or_window_flag_is_parameter_error(self, tmp_path, capsys, flags):
        # fit reads no rate, but it takes the rate flags and records them
        samples = tmp_path / "r.csv"
        samples.write_text("t_first,t_second\n0.5,1\n")
        out = tmp_path / "fit.json"
        assert main(["fit", "--samples", str(samples), *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:")
        assert list(tmp_path.iterdir()) == [samples]

    def test_nonpositive_sample_is_data_error(self, tmp_path, capsys):
        samples = tmp_path / "bad.csv"
        samples.write_text("t_first\n0.0\n")
        assert main(["fit", "--samples", str(samples)]) == 3
        assert capsys.readouterr().err == (
            f"error: {samples}: samples must be strictly positive waiting times\n")

    def test_subnormal_mean_is_data_error(self, tmp_path, capsys):
        # 1 / 5e-324 is inf, which JSON cannot hold
        samples = tmp_path / "tiny.csv"
        samples.write_text("t_first\n5e-324\n")
        assert main(["fit", "--samples", str(samples)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {samples}: ") and "overflows" in captured.err


class TestSamplesFromSpreadsheets:
    @pytest.mark.parametrize("command", [["fit"], ["fit", "--postselect"],
                                         ["discriminate", "--postselect"]])
    def test_byte_order_mark_is_read(self, tmp_path, capsys, command):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(b"t_first,t_second\n0.25,1.5\n0.5,2.5\n0.75,3.5\n")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert run_json(capsys, command + ["--samples", str(marked)]) == run_json(
            capsys, command + ["--samples", str(plain)])

    @pytest.mark.parametrize("command", [["fit"], ["discriminate", "--postselect"]])
    def test_requested_column_named_twice_is_data_error(self, tmp_path, capsys, command):
        # keeping either cell of a repeated name would be a silent guess
        samples = tmp_path / "twice.csv"
        samples.write_bytes(b"t_first,t_second,t_first\n0.25,1.5,0.5\n")
        assert main([*command, "--samples", str(samples)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {samples}: ")
        assert "t_first more than once" in captured.err

    def test_unrequested_column_named_twice_loads(self, tmp_path, capsys):
        samples = tmp_path / "extra.csv"
        samples.write_bytes(b"t_first,x,x\n0.5,1,2\n1.5,3,4\n")
        code, payload = run_json(capsys, ["fit", "--samples", str(samples)])
        assert code == 0 and payload["rate_estimate"] == 1.0


class TestPostselectionKeepsNone:
    @pytest.mark.parametrize("command", ["fit", "discriminate"])
    @pytest.mark.parametrize("rows, tau", [
        (b"0,0\n", None),                    # both photons in one bin
        (b"1e300,1e300\n", None),            # at the default tau = 5/6
        (b"0.1,0.2\n0.3,0.35\n", "0.5"),
    ], ids=["zero", "huge", "two-pairs"])
    def test_names_the_file_and_the_window(self, tmp_path, capsys, command, rows, tau):
        samples = tmp_path / "close.csv"
        samples.write_bytes(b"t_first,t_second\n" + rows)
        argv = [command, "--postselect", "--samples", str(samples)]
        assert main(argv + (["--tau", tau] if tau else [])) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        pairs = rows.count(b"\n")
        assert (f"close.csv: post-selection (grid-bin, tau = {tau or '0.833333'}) "
                f"kept none of its {pairs} pairs") in err

    @pytest.mark.parametrize("command", ["fit", "discriminate"])
    def test_header_only_still_has_no_samples(self, tmp_path, capsys, command):
        samples = tmp_path / "empty.csv"
        samples.write_bytes(b"t_first,t_second\n")
        assert main([command, "--postselect", "--samples", str(samples)]) == 3
        assert "no samples provided" in capsys.readouterr().err


class TestDiscriminate:
    def test_entangled_records_prefer_entangled(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        assert main(["simulate", "--kind", "entangled", "--n-pairs", "20000",
                     "--seed", "13", "--tau", "0.02", "--out", str(records)]) == 0
        capsys.readouterr()
        code, payload = run_json(capsys, [
            "discriminate", "--samples", str(records), "--tau", "0.02"])
        assert code == 0
        assert payload["preferred"] == "entangled"
        assert payload["log_likelihood_ratio"] > 0.0

    def test_postselected_product_records_prefer_product(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        assert main(["simulate", "--kind", "product", "--n-pairs", "20000",
                     "--seed", "14", "--tau", "0.02", "--out", str(records)]) == 0
        capsys.readouterr()
        code, payload = run_json(capsys, [
            "discriminate", "--samples", str(records), "--tau", "0.02",
            "--postselect"])
        assert code == 0
        assert payload["preferred"] == "product"
        assert payload["log_likelihood_ratio"] < 0.0

    def test_wide_window_prefers_the_generator(self, tmp_path, capsys):
        # tau = 5/3 is the taylor law's bound at rates (1, 1.5); the exact
        # law that discriminate scores holds there and beyond
        for mode, (kind, seed, processing) in itertools.product(
                ("grid-bin", "pairwise"),
                (("entangled", 21, []), ("product", 22, ["--postselect"]))):
            window = ["--tau", repr(5.0 / 3.0), "--mode", mode]
            records = tmp_path / f"{kind}.csv"
            assert main(["simulate", "--kind", kind, "--n-pairs", "10000",
                         "--seed", str(seed), *window, "--out", str(records)]) == 0
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, payload = run_json(capsys, ["discriminate", "--samples", str(records),
                                                  *window, *processing])
            assert code == 0
            assert payload["preferred"] == kind, (mode, kind)

    @pytest.mark.parametrize("mode, digests", [
        ("grid-bin", {
            ("fit",): "1e5e6ee1af3cdae82d1f602b151facc9854b61704e8c5e9cb674e43ec50bc5c3",
            ("fit", "--postselect"):
                "f929f4bcf94901a5fe5544346a7b8dfaa26ae1e1b57772bb2b26b1c89416e28e",
            ("discriminate",):
                "5995db31882ccbaea546b9ccacacd9ac6300199c3bead540412783d2945ad83d",
            ("discriminate", "--postselect"):
                "94e5634066afeb69f334fb7ac253c8b85b61a574f851acb28d09f7feeb53c89f",
        }),
        ("pairwise", {
            ("fit",): "1e5e6ee1af3cdae82d1f602b151facc9854b61704e8c5e9cb674e43ec50bc5c3",
            ("fit", "--postselect"):
                "81b5b1f8a77ae6f42a2959b281e2599d7ed9f238a19e420e4f9aa2b47acee74d",
            ("discriminate",):
                "fd394771d3cb081dd97d8e3028ddd31e3475493d058550331c032da6ed88fd91",
            ("discriminate", "--postselect"):
                "f6711a279f2d746e9a9c13ef84262fce9a5f147bc073758cbdd820c14b71d5a5",
        }),
    ])
    def test_reader_json_bytes_pinned(self, tmp_path, capsys, mode, digests):
        # digests of the printed reports made when a reload built
        # 20-byte records with an empty channel label
        records = tmp_path / "records.csv"
        window = ["--tau", "0.3", "--mode", mode]
        assert main(["simulate", "--kind", "product", "--n-pairs", "20000",
                     "--seed", "19", *window, "--out", str(records)]) == 0
        capsys.readouterr()
        printed = {}
        for argv in digests:
            assert main([*argv[:1], "--samples", str(records), *window, *argv[1:]]) == 0
            printed[argv] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert printed == digests

    @pytest.mark.parametrize("argv", [["fit"], ["fit", "--postselect"], ["discriminate"],
                                      ["discriminate", "--postselect"]])
    def test_five_column_records_read_the_same(self, tmp_path, capsys, argv):
        # records files once also held pair_id, the row index, and
        # channel_second, the other letter; readers select their columns
        # by name, so such a file prints what the three-column file does
        records = montecarlo.simulate(montecarlo.SimConfig(
            n_pairs=20000, rates=analytic.RatePair(1.0, 1.5), kind="product",
            window=analytic.WindowConfig(tau=0.3, mode="grid-bin"), seed=19))
        a, b = np.array([b"A", b"B"])
        first_is_a = records["first_is_a"]
        three, five = tmp_path / "three.csv", tmp_path / "five.csv"
        montecarlo.write_records_csv(three, records)
        series.write_table(five, ["pair_id", "t_first", "channel_first", "t_second",
                                  "channel_second"],
                           [np.arange(len(records), dtype=np.float64), records["t_first"],
                            np.where(first_is_a, a, b), records["t_second"],
                            np.where(first_is_a, b, a)])
        printed = []
        for path in (three, five):
            assert main([*argv[:1], "--samples", str(path), "--tau", "0.3",
                         *argv[1:]]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_underflowing_density_is_model_inapplicable(self, tmp_path, capsys):
        # exp(-1000) and exp(-1500) underflow, so the product density is 0
        samples = tmp_path / "samples.csv"
        samples.write_text("t_first\n0.5\n1000\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["discriminate", "--samples", str(samples)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {samples}: ") and "t=1000 " in err
        assert len(err.splitlines()) == 1


class TestKinetics:
    def test_final_row_matches_closed_forms(self, tmp_path):
        out = tmp_path / "kin.csv"
        assert main(["kinetics", "--step", "0.002", "--t-end", "4",
                     "--out", str(out)]) == 0
        cols = read_columns(out, ["t", "n_e", "n_a", "cap_n_a", "cap_n_f"])
        t = cols["t"][-1]
        assert t == pytest.approx(4.0, abs=1e-12)
        assert cols["n_e"][-1] == pytest.approx(math.exp(-2.5 * 4.0), abs=1e-9)
        assert cols["cap_n_a"][-1] == pytest.approx(1.0 - math.exp(-4.0), abs=1e-9)
        assert cols["cap_n_f"][-1] == pytest.approx(1.0 - math.exp(-10.0), abs=1e-9)

    def test_rate_scale_bends_channel_counts(self, tmp_path):
        out = tmp_path / "kin.csv"
        assert main(["kinetics", "--step", "0.002", "--t-end", "4",
                     "--rate-scale", "1.1", "--out", str(out)]) == 0
        cols = read_columns(out, ["t", "cap_n_a"])
        single = 1.0 - np.exp(-1.0 * cols["t"])
        assert float(np.max(np.abs(cols["cap_n_a"] - single))) > 1e-3

    def test_bad_step_is_parameter_error(self, tmp_path, capsys):
        assert main(["kinetics", "--step", "-0.1",
                     "--out", str(tmp_path / "kin.csv")]) == 2
        capsys.readouterr()

    def test_blowup_is_parameter_error(self, tmp_path, capsys):
        # RK4 is unstable at this step: the state overflows to inf and nan
        assert main(["kinetics", "--step", "50", "--t-end", "5000",
                     "--out", str(tmp_path / "kin.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "step" in err
        assert len(err.splitlines()) == 1

    def test_blowup_stops_within_a_block(self, tmp_path, capsys):
        # the increment overflows at once; checking only after the last
        # of the 400000 steps took over a second
        start = time.perf_counter()
        assert main(["kinetics", "--gamma-a", "1e308", "--step", "1e-5", "--t-end", "4",
                     "--out", str(tmp_path / "kin.csv")]) == 2
        assert time.perf_counter() - start < 0.25
        err = capsys.readouterr().err
        assert err.startswith("error:") and "t=1e-05 " in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("n_0", ["0", "-1", "nan", "inf"])
    def test_bad_n_0_is_parameter_error(self, tmp_path, capsys, n_0):
        out = tmp_path / "kin.csv"
        assert main(["kinetics", "--n-0", n_0, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_0" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_oversized_trajectory_is_parameter_error(self, tmp_path, capsys):
        # petabytes, beyond physical memory: refused before anything is
        # allocated; 1e300 and 1e308 steps also pass the largest array
        # numpy can address
        for plan in (["--step", "1e-15"], ["--t-end", "1e300", "--step", "1"],
                     ["--step", "1e-308", "--t-end", "1"]):
            assert main(["kinetics", *plan, "--out", str(tmp_path / "kin.csv")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "--step" in err
            assert len(err.splitlines()) == 1


class TestTimeOverflow:
    """Rates or grid-bin windows so small that photon times, or their bin
    indices t / tau, leave the float range; rates, horizons or steps so
    large that an exponent rate * t or a step count t_end / step does."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--kind", "product", "--n-pairs", "1000", "--tau", "1e-320"],
        ["simulate", "--kind", "product", "--n-pairs", "1000", "--tau", "1e-308"],
        ["simulate", "--gamma-a", "2e-308", "--n-pairs", "100"],
        ["analytic", "--window-variant", "exact", "--tau", "1e-320"],
        ["discriminate", "--postselect", "--tau", "1e-320"],
        ["analytic", "--t-max", "inf"],
        ["analytic", "--t-max", "1e308", "--n-points", "3", "--window-variant", "exact",
         "--mode", "pairwise"],
        ["analytic", "--gamma-b", "1e308"],
        ["analytic", "--gamma-b", "1e308", "--window-variant", "exact"],
        ["discriminate", "--postselect", "--gamma-b", "1e308"],
        ["kinetics", "--step", "1e-320"],
        ["kinetics", "--step", "1e-308"],
        ["kinetics", "--t-end", "1e308"],
    ], ids=["simulate-tau-1e-320", "simulate-tau-1e-308", "simulate-gamma-2e-308",
            "analytic-exact", "discriminate-postselect", "analytic-t-max-inf",
            "analytic-t-max-1e308", "analytic-gamma-1e308", "analytic-exact-gamma-1e308",
            "discriminate-postselect-gamma-1e308", "kinetics-step-1e-320",
            "kinetics-step-1e-308", "kinetics-t-end-1e308"])
    def test_is_parameter_error(self, tmp_path, capsys, argv):
        if argv[0] == "discriminate":
            records = tmp_path / "records.csv"
            assert main(["simulate", "--kind", "product", "--n-pairs", "1000",
                         "--out", str(records)]) == 0
            argv = [*argv, "--samples", str(records)]
        out = tmp_path / "out"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fit"],
        ["fit", "--postselect"],
        ["discriminate"],
        ["discriminate", "--postselect"],
        ["discriminate", "--mode", "pairwise"],
        ["discriminate", "--postselect", "--mode", "pairwise"],
    ], ids=["fit", "fit-postselect", "discriminate", "discriminate-postselect",
            "discriminate-pairwise", "discriminate-postselect-pairwise"])
    def test_in_the_samples_is_data_error(self, tmp_path, capsys, argv):
        # the flags hold at the latest time a simulated record can reach;
        # only the file's times of 1e308 overflow a bin index t / tau, the
        # sum of the t_first column or, in the one pair pairwise keeps, an
        # exponent rate * t
        samples = tmp_path / "far.csv"
        samples.write_bytes(b"t_first,t_second\n1e308,1e308\n0.5,1e308\n1e308,1e308\n")
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*argv, "--tau", "0.02", "--samples", str(samples),
                         "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "far.csv: " in err and "overflows" in err
        assert not out.exists()

    def test_pairwise_window_keeps_every_pair(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--kind", "product", "--n-pairs", "1000",
                         "--mode", "pairwise", "--tau", "1e-320", "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "records.csv.summary.json").read_text())
        assert summary["kept"] == 1000


# Every numeric flag of every subcommand, set to each of these values on
# top of small base sizes.  An int flag parses only "0", "-1", 2**64 + 5
# and 2**128, past 64 bits and past a Philox key; argparse rejects the
# rest with exit 2.
PROBE_VALUES = ["0", "-0.0", "-1", "1e-320", "1e-308", "1e308", "inf", "nan",
                "18446744073709551621", "340282366920938463463374607431768211456"]
WINDOW_FLAGS = ["--gamma-a", "--gamma-b", "--tau"]
ANALYTIC_FLAGS = [*WINDOW_FLAGS, "--t-max", "--n-points"]
PROBED = [
    (["analytic", "--n-points", "5"], ANALYTIC_FLAGS),
    (["analytic", "--n-points", "5", "--window-variant", "exact"], ANALYTIC_FLAGS),
    (["simulate", "--n-pairs", "200"], [*WINDOW_FLAGS, "--seed", "--n-pairs", "--workers"]),
    (["fit"], WINDOW_FLAGS),
    (["fit", "--postselect"], WINDOW_FLAGS),
    (["discriminate"], WINDOW_FLAGS),
    (["discriminate", "--postselect"], WINDOW_FLAGS),
    (["kinetics", "--t-end", "1"],
     ["--gamma-a", "--gamma-b", "--step", "--t-end", "--n-0", "--rate-scale"]),
    *[(["wavefunction", "--check", check, "--n", "32"], ["--n", "--x-max", "--t"])
      for check in WAVEFUNCTION_CHECKS],
]
PROBE_CASES = [(base, flag, value) for base, flags in PROBED
               for flag in flags for value in PROBE_VALUES]


# String flags, each given these values on top of every probed base that
# takes it: a choice an empty and an unknown value, a path each of
# PATH_PROBES (see TestExitCodeContract.path)
PATH_PROBES = ["directory", "missing-directory", "empty", "long-name", "not-utf8"]
STRING_PROBES = {**{flag: ["", "unknown"]
                    for flag in ("--mode", "--kind", "--window-variant", "--check")},
                 **{flag: PATH_PROBES for flag in ("--samples", "--out", "--config")}}
OPTIONS = {name: p._option_string_actions for name, p in build_parser().command_parsers.items()}
STRING_CASES = [(base, flag, value) for base, _ in PROBED
                for flag, values in STRING_PROBES.items() if flag in OPTIONS[base[0]]
                for value in values]


# Sample files whose contents a reader must refuse or read, each run by
# every reader subcommand in both window modes.
SAMPLE_FILES = {
    "empty": b"",
    "bom-only": b"\xef\xbb\xbf",
    "header-only": b"t_first,t_second\n",
    "one-row": b"t_first,t_second\n0.5,1\n",
    "nan": b"t_first,t_second\nnan,1\n0.5,nan\n",
    "inf": b"t_first,t_second\ninf,inf\n",
    "1e308": b"t_first,t_second\n1e308,1e308\n0.5,1e308\n",
    "sum-overflow": b"t_first,t_second\n1e308,1e308\n1e308,1e308\n",
    "subnormal": b"t_first,t_second\n5e-324,1e-320\n",
    "negative": b"t_first,t_second\n-0.5,1\n",
    "out-of-order": b"t_first,t_second\n2,1\n",
    "open-quote": b't_first,t_second\n"0.5,1\n',
    "quoted-newline": b't_first,t_second\n"0.5\n",1\n',
    "cr-only": b"t_first,t_second\r0.5,1\r0.25,2\r",
    "nul": b"t_first,t_second\n0.5,\x001\n",
    "not-utf8": b"t_first,t_second\n0.5,\xff\n",
    "surrogate": b"t_first,t_second\n0.5,\xed\xa0\x80\n",
    "blank-lines": b"t_first,t_second\n\n0.5,1\n\n",
    "whitespace-lines": b"t_first,t_second\n   \n0.5,1\n\t\n",
    "short-row": b"t_first,t_second\n0.5\n",
    "tab": b"t_first\tt_second\n0.5\t1\n",
    "semicolon": b"t_first;t_second\n0.5;1\n",
    "duplicate-column": b"t_first,t_first\n1,2\n",
}
READERS = [[command, *switch, "--mode", mode]
           for command in ("fit", "discriminate") for switch in ([], ["--postselect"])
           for mode in analytic.WINDOW_MODES]
SAMPLE_CASES = [(name, reader) for name in SAMPLE_FILES for reader in READERS]

# --config files, each read by every probed subcommand
CONFIG_FILES = {
    "nul": b"gamma_a = \x001\n",
    "not-utf8": b"gamma_a = \xff\n",
    "no-equals": b"gamma_a 1\n",
    "empty-key": b" = 1\n",
    "mismatched-quotes": b"gamma_a = \"1.5'\n",
    "help": b"help = true\n",
    "version": b"version = true\n",
    "subcommand": b"subcommand = fit\n",
    "handler": b"handler = fit\n",
    "100kB-value": b"gamma_a = " + b"1" * 100_000 + b"\n",
    "cr-only": b"gamma_a = 2\rgamma_b = 3\r",
}
CONFIG_CASES = [(name, base) for name in CONFIG_FILES for base, _ in PROBED]


@pytest.fixture(scope="module")
def probe_records(tmp_path_factory):
    records = tmp_path_factory.mktemp("probe") / "records.csv"
    assert main(["simulate", "--kind", "product", "--n-pairs", "200",
                 "--out", str(records)]) == 0
    return records


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestExitCodeContract:
    """Every input ends with exit 0, 2, 3 or 4 and at most one error
    line, never an exception or a warning, and a report that exits 0
    prints JSON (no NaN or Infinity)."""

    @staticmethod
    def check(capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 2, 3, 4)
        out, err = capsys.readouterr()
        assert sum("error:" in line for line in err.splitlines()) <= 1, err
        if code == 0 and argv[0] in ("fit", "discriminate", "wavefunction"):
            json.loads(out, parse_constant=reject_constant)

    @staticmethod
    def complete(base, tmp_path, samples):
        """``base`` with the flags its subcommand requires."""
        if base[0] in ("fit", "discriminate"):
            return [*base, "--samples", str(samples)]
        if base[0] != "wavefunction":
            return [*base, "--out", str(tmp_path / "out")]
        return base

    @pytest.mark.parametrize("base, flag, value", PROBE_CASES,
                             ids=[" ".join([*base, flag, value]) for base, flag, value
                                  in PROBE_CASES])
    def test_numeric_flag(self, tmp_path, capsys, probe_records, base, flag, value):
        self.check(capsys, [*self.complete(base, tmp_path, probe_records), f"{flag}={value}"])

    @staticmethod
    def path(name, tmp_path, records) -> str:
        """The path a PATH_PROBES name stands for; the non-UTF-8 name (a
        surrogate escape of byte 0xff) is a copy of the records."""
        if name == "not-utf8":
            path = tmp_path / os.fsdecode(b"records-\xff.csv")
            shutil.copy(records, path)
            return str(path)
        return {"directory": str(tmp_path),
                "missing-directory": str(tmp_path / "missing" / "f.csv"),
                "empty": "",
                "long-name": str(tmp_path / ("n" * 300))}[name]

    @pytest.mark.parametrize("base, flag, value", STRING_CASES,
                             ids=[" ".join([*base, flag, repr(value)]) for base, flag, value
                                  in STRING_CASES])
    def test_string_flag(self, tmp_path, capsys, probe_records, base, flag, value):
        if flag in ("--samples", "--out", "--config"):
            value = self.path(value, tmp_path, probe_records)
        self.check(capsys, [*self.complete(base, tmp_path, probe_records), f"{flag}={value}"])

    @pytest.mark.parametrize("name, reader", SAMPLE_CASES,
                             ids=[f"{name} {' '.join(reader)}" for name, reader in SAMPLE_CASES])
    def test_sample_file_contents(self, tmp_path, capsys, name, reader):
        samples = tmp_path / "samples.csv"
        samples.write_bytes(SAMPLE_FILES[name])
        self.check(capsys, [*reader, "--tau", "0.02", "--samples", str(samples)])

    @pytest.mark.parametrize("name, base", CONFIG_CASES,
                             ids=[f"{name} {' '.join(base)}" for name, base in CONFIG_CASES])
    def test_config_file_contents(self, tmp_path, capsys, probe_records, name, base):
        config = tmp_path / "defaults.conf"
        config.write_bytes(CONFIG_FILES[name])
        self.check(capsys, [*self.complete(base, tmp_path, probe_records),
                            "--config", str(config)])

    def test_usage_error_prints_a_surrogate_on_a_strict_stream(self, monkeypatch):
        # argparse's own error line names the typed argument, here one
        # that is not UTF-8, as main's error line names a path
        stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(["fit", "--samples", "x.csv", "--bogus\udcff"]) == 2
        stderr.seek(0)
        assert "--bogus\\udcff" in stderr.read()

    def test_each_error_class_has_the_exit_code_of_its_base(self):
        codes = {errors.FirstPhotonError: 1, errors.InvalidParameterError: 2,
                 errors.InvalidDataError: 3, errors.ModelInapplicableError: 4}
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.FirstPhotonError)]
        assert len(classes) > len(codes)
        for cls in classes:
            base = next(b for b in cls.__mro__ if b in codes)
            assert cls.exit_code == codes[base], cls


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """A copy of the package with its bytecode, which every
    peak_rss_bytes child imports: a child that compiles the package
    peaks higher than one that loads it, which moved the records
    baseline by 2-5 bytes a pair with and without the source tree's
    __pycache__."""
    root = tmp_path_factory.mktemp("src")
    shutil.copytree(os.path.dirname(firstphoton.__file__), root / "firstphoton",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert compileall.compile_dir(root, quiet=1)
    return root


class TestWavefunction:
    def test_antisymmetric_coefficient_check(self, capsys):
        code, payload = run_json(capsys, ["wavefunction", "--check",
                                          "n0f-antisymmetric", "--n", "64"])
        assert code == 0
        assert payload["passed"] is True
        assert payload["metrics"]["n0f"] == pytest.approx(0.5, abs=1e-10)
        assert payload["metrics"]["n0f_product"] == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-10)

    def test_preservation_check(self, capsys):
        code, payload = run_json(capsys, ["wavefunction", "--check",
                                          "antisymmetry-preservation", "--n", "64"])
        assert code == 0
        assert payload["passed"] is True
        assert payload["metrics"]["antisymmetric_defect"] < 1e-10

    def test_symmetric_input_reports_failure(self, capsys):
        code, payload = run_json(capsys, ["wavefunction", "--check",
                                          "n0f-symmetric-input", "--n", "64"])
        assert code == 0
        assert payload["passed"] is False
        assert "symmetric" in payload["error"]

    def test_symmetric_input_tolerance_is_not_negative(self, capsys):
        # at n = 256 the overlap of f(x)f(y) sums to 1 + 2**-52, so
        # 2 - 2 <Psi|S Psi> rounds below 0; the report clamps it at 0
        code, payload = run_json(capsys, ["wavefunction", "--check",
                                          "n0f-symmetric-input", "--n", "256"])
        assert code == 0 and payload["passed"] is False
        tolerance = re.search(r"within (\S+);", payload["error"]).group(1)
        assert float(tolerance) >= 0.0, payload["error"]

    @pytest.mark.parametrize("check", WAVEFUNCTION_CHECKS)
    @pytest.mark.parametrize("t", ["nan", "inf", "-inf", "1e309"])
    def test_time_not_finite_is_parameter_error(self, tmp_path, capsys, check, t):
        # every report echoes --t, and JSON has no NaN or Infinity
        out = tmp_path / "report.json"
        assert main(["wavefunction", "--check", check, "--n", "32", f"--t={t}",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: --t must be finite, got ")
        assert not out.exists()

    def test_report_file_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, payload = run_json(capsys, ["wavefunction", "--check",
                                          "n0f-antisymmetric", "--n", "64",
                                          "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text()) == payload
        assert (tmp_path / "report.json.manifest.json").exists()

    @pytest.mark.parametrize("check", ["antisymmetry-preservation",
                                       "n0f-antisymmetric", "n0f-symmetric-input"])
    def test_oversized_grid_is_parameter_error(self, check, capsys):
        # 16 * 10**16 bytes per array, beyond physical memory: refused
        # before anything is allocated; 4e9 points per axis also pass the
        # largest array numpy can address
        for n in (10**8, 4 * 10**9):
            assert main(["wavefunction", "--check", check, "--n", str(n)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "--n" in err
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("check", ["antisymmetry-preservation",
                                       "n0f-antisymmetric", "n0f-symmetric-input"])
    def test_unresolved_modes_are_parameter_error(self, check, capsys):
        # a spacing of 78 leaves the width-1 oscillator modes with no
        # sample above underflow, so they have no norm
        assert main(["wavefunction", "--check", check, "--x-max", "10000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "spacing" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("x_max", ["1e200", "1e308"])
    def test_box_beyond_float_range_is_parameter_error(self, x_max, capsys):
        # 1e200 squares to inf in the modes, 1e308 gives a box of width
        # inf; neither may print a RuntimeWarning (the suite makes one an
        # error) before the one error line
        assert main(["wavefunction", "--check", "n0f-antisymmetric",
                     "--x-max", x_max]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("check", ["antisymmetry-preservation",
                                       "n0f-antisymmetric", "n0f-symmetric-input"])
    def test_size_check_counts_the_arrays_a_check_holds(self, check, capsys, monkeypatch):
        # every check holds one array: with physical memory of 1.5 arrays
        # at n = 64 it runs, and with 0.5 arrays it is refused before it
        # allocates
        sysconf = os.sysconf
        page = 4096
        array_pages = 16 * 64 * 64 // page
        for pages, code in ((3 * array_pages // 2, 0), (array_pages // 2, 2)):
            monkeypatch.setattr(os, "sysconf", lambda name: {
                "SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": page}.get(name) or sysconf(name))
            assert main(["wavefunction", "--check", check, "--n", "64"]) == code
            out, err = capsys.readouterr()
            if code == 0:
                assert json.loads(out)["check"] == check and err == ""
            else:
                assert err.startswith("error:") and "--n 64" in err
                assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("check", ["antisymmetry-preservation",
                                       "n0f-antisymmetric", "n0f-symmetric-input"])
    def test_preservation_memory_is_bounded(self, check, compiled):
        # arrays of 16 n^2 bytes above the import baseline at the check's
        # peak.  Every check holds one array (1.04-1.14 measured), which
        # the preservation check projects and propagates in place and an
        # n0f check sums over in tile pairs; an n0f check read 2.04-2.06
        # when its exchange overlap filled a scratch array.  The bound
        # leaves room for allocator slack and fails a check that holds one
        # more array.
        n = 1024
        baseline = peak_rss_bytes("import firstphoton.cli", compiled)
        peak = peak_rss_bytes(
            "import sys; from firstphoton.cli import main; sys.exit(main(["
            f"'wavefunction', '--check', '{check}', '--n', '{n}']))", compiled)
        assert peak - baseline <= 1.5 * 16 * n * n


class TestRecordPipelineMemory:
    # at its peak simulate holds the 17-byte records with the 1-byte
    # channel_first label column that write_table renders, 17 + 1 = 18
    # bytes a pair, and discriminate --postselect holds the 16-byte
    # reloaded records with their mask and their kept copy from
    # postselect, about 33; each step adds a few chunks of temporaries,
    # allocator slack and the modules it imports past the baseline
    # (39.3-39.7 and 36.2-36.9 measured on 2**19 pairs, on one CPU and
    # on two; simulate 45.3-45.8 with a 4-byte pair_id and a second
    # letter column, 52.1-52.5 with 4-byte channel letters, discriminate
    # 48.5-50.6 when a record took 20 bytes).  Each bound fails a step
    # that keeps a full-length temporary or a module it need not: the
    # pair_id and second letter columns (45.3, simulate), 4-byte channel
    # letters or 65536-row render chunks (85, simulate), a process pool's
    # multiprocessing and concurrent.futures, about 2 MB (44.7-44.9,
    # discriminate on two CPUs), keep_mask's floor(t / tau) arrays (53),
    # the records held past postselect (54) or the density and its log
    # over all samples (116).
    N_PAIRS = 1 << 19
    BYTES_PER_PAIR = {"simulate": 43, "discriminate": 43}

    def test_growth_per_pair_is_bounded(self, tmp_path, compiled):
        records = tmp_path / "records.csv"
        baseline = peak_rss_bytes("import firstphoton.cli", compiled)
        peaks = {
            "simulate": peak_rss_bytes(
                "import sys; from firstphoton.cli import main; sys.exit(main(["
                "'simulate', '--kind', 'product', '--tau', '0.02', "
                f"'--n-pairs', '{self.N_PAIRS}', '--workers', '1', '--seed', '7', "
                f"'--out', r'{records}']))", compiled),
            "discriminate": peak_rss_bytes(
                "import sys; from firstphoton.cli import main; sys.exit(main(["
                "'discriminate', '--tau', '0.02', '--postselect', "
                f"'--samples', r'{records}']))", compiled),
        }
        growth = {step: (peak - baseline) / self.N_PAIRS for step, peak in peaks.items()}
        assert all(growth[step] <= bound for step, bound in self.BYTES_PER_PAIR.items()), growth


# printed by the child as it exits: VmHWM, the high-water mark of its own
# address space.  The parent's ru_maxrss of the child will not do, because
# Linux carries the spawning process's peak across fork and exec, so it
# never reads below the peak of the test runner.  Without procfs (macOS)
# the child's ru_maxrss, in bytes there, is its own.
REPORT_PEAK = """
import atexit, resource
def _report_peak():
    try:
        with open("/proc/self/status") as fh:
            peak = 1024 * next(int(line.split()[1]) for line in fh
                               if line.startswith("VmHWM:"))
    except OSError:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"\\n{peak}", flush=True)
atexit.register(_report_peak)
"""


def peak_rss_bytes(code: str, src, timeout: float = 60.0) -> int:
    """Peak resident set size of a child Python running ``code`` with
    the package from the directory ``src``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", REPORT_PEAK + code], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


class TestConfigFile:
    def test_config_sets_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau = 0.25\ngamma-a = 2.0\nmode = pairwise\n")
        out = tmp_path / "records.csv"
        assert main(["simulate", "--config", str(cfg), "--gamma-a", "3.0",
                     "--n-pairs", "1000", "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "records.csv.summary.json").read_text())
        assert summary["tau"] == 0.25
        assert summary["mode"] == "pairwise"
        assert summary["gamma_a"] == 3.0

    def test_unknown_key_is_parameter_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma-c = 2.0\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2
        capsys.readouterr()

    def test_missing_config_is_parameter_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "x.csv")]) == 2
        capsys.readouterr()

    def test_undecodable_config_is_parameter_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"step = 0.01\n\xff\n")
        assert main(["kinetics", "--config", str(cfg),
                     "--out", str(tmp_path / "k.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.cfg" in err
        assert len(err.splitlines()) == 1

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path, capsys):
        # a Windows editor's "UTF-8 with BOM" starts the file with one
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfn_points = 7\n")
        out = tmp_path / "curves.csv"
        assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_columns(out, ["t"]).shape == (7,)
        cfg.write_bytes(b"\xef\xbb\xbfn_points = 7\n\xff\n")
        assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 2
        assert "bom.cfg" in capsys.readouterr().err

    def test_utf8_comment_read_in_the_c_locale(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("# \u00e9tape\nn_points = 7\n".encode())
        code = ("import sys; from firstphoton.cli import main; "
                f"sys.exit(main(['analytic', '--config', {str(cfg)!r}, '--out', 'c.csv']))")
        src = os.path.dirname(os.path.dirname(firstphoton.__file__))
        env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0"}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert read_columns(tmp_path / "c.csv", ["t"]).shape == (7,)

    @pytest.mark.parametrize("switch, n_samples", [("false", 2), ("true", 4)])
    def test_switch_values(self, tmp_path, capsys, switch, n_samples):
        samples = tmp_path / "records.csv"
        samples.write_text("t_first,t_second\n0.1,0.9\n0.2,1.5\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"postselect = {switch}\ntau = 0.25\n")
        out = tmp_path / "fit.json"
        code, payload = run_json(capsys, ["fit", "--config", str(cfg),
                                          "--samples", str(samples), "--out", str(out)])
        assert code == 0
        assert payload["n_samples"] == n_samples
        manifest = json.loads((tmp_path / "fit.json.manifest.json").read_text())
        assert manifest["parameters"]["postselect"] is (switch == "true")

    @pytest.mark.parametrize("command, line", [
        ("simulate", "gamma_a = [1, 2]"),
        ("kinetics", "step = [1]"),
        ("simulate", "mode = bogus"),
        ("simulate", "n-pairs = 1.5"),
        ("fit", "postselect = maybe"),
    ])
    def test_bad_values_are_parameter_errors(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        samples = tmp_path / "samples.csv"
        samples.write_text("t_first\n0.5\n")
        flags = {"fit": ["--samples", str(samples)]}.get(
            command, ["--out", str(tmp_path / "x.csv")])
        assert main([command, "--config", str(cfg), *flags]) == 2
        capsys.readouterr()

    def test_required_flags_from_file(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("t_first\n0.5\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"check = 'n0f-antisymmetric'\nn = 64\n"
                       f"samples = {samples}\nout = \"{tmp_path / 'curves.csv'}\"\n")
        code, payload = run_json(capsys, ["wavefunction", "--config", str(cfg)])
        assert code == 0 and payload["passed"] is True
        code, payload = run_json(capsys, ["fit", "--config", str(cfg)])
        assert code == 0 and payload["n_samples"] == 1
        assert main(["analytic", "--config", str(cfg)]) == 0
        assert (tmp_path / "curves.csv").exists()

    @pytest.mark.parametrize("line, name", [('out = "{}/run#1.csv"', "run#1.csv"),
                                            ("out = '{}/a#b.csv'  # note", "a#b.csv")],
                             ids=["double", "single-then-comment"])
    def test_quoted_value_keeps_its_hash(self, tmp_path, capsys, line, name):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line.format(tmp_path) + "\nn_pairs = 10  # c\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [name, f"{name}.summary.json", f"{name}.manifest.json", "run.cfg"])
        assert read_columns(tmp_path / name, ["t_first"]).shape == (10,)

    @pytest.mark.parametrize("line", ['out = "a.csv" b', "out = 'a.csv''b'",
                                      'gamma_a = "1.5"1'])
    def test_text_after_the_closing_quote_is_parameter_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n_pairs = 10\n{line}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:2: ") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == [cfg]

    def test_value_with_no_closing_quote_reads_as_it_stands(self, tmp_path, capsys):
        # the mismatched-quotes probe: '"1.5'' is no number
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma_a = \"1.5'\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "'\"1.5\\''" in capsys.readouterr().err
        assert load_config(cfg) == [("--gamma-a", "\"1.5'")]
        cfg.write_text("out = \"a#b\n")
        assert load_config(cfg) == [("--out", '"a')]

    def test_one_file_serves_every_subcommand(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_pairs = 10\nseed = 3\nstep = 0.01\nt-end = 1\n"
                       "gamma_a = 2.0\n")
        argv = ["fit", "--config", str(cfg), "--samples", str(records),
                "--out", str(tmp_path / "fit.json")]
        assert main(["simulate", "--config", str(cfg), "--out", str(records)]) == 0
        assert main(argv) == 0
        assert main(["kinetics", "--config", str(cfg),
                     "--out", str(tmp_path / "kin.csv")]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "records.csv.summary.json").read_text())
        assert summary["n_pairs"] == 10 and summary["gamma_a"] == 2.0
        manifest = json.loads((tmp_path / "fit.json.manifest.json").read_text())
        assert manifest["argv"] == argv
        assert "n_pairs" not in manifest["parameters"]
        assert "step" not in manifest["parameters"]
        assert manifest["parameters"]["gamma_a"] == 2.0
        kin = read_columns(tmp_path / "kin.csv", ["t"])
        assert kin["t"].shape == (101,)


class TestTableRender:
    """analytic and kinetics tables of three chunks render in the caller
    and forked children, one per usable CPU up to the chunk count."""

    TABLES = [
        ["analytic", "--window-variant", "exact", "--n-points", str(3 * series.CHUNK_ROWS)],
        ["kinetics", "--step", "1e-4", "--t-end", "4"],     # 40001 rows
    ]

    @pytest.mark.parametrize("argv", TABLES, ids=lambda argv: argv[0])
    def test_bytes_do_not_depend_on_process_count(self, tmp_path, monkeypatch, forks,
                                                  no_child_left, argv):
        base, forked = tmp_path / "one.csv", tmp_path / "many.csv"
        monkeypatch.setattr(series, "_usable_cpus", lambda: 1)
        assert main(argv + ["--out", str(base)]) == 0
        assert forks == []
        monkeypatch.setattr(series, "_usable_cpus", lambda: 8)
        assert main(argv + ["--out", str(forked)]) == 0
        assert len(forks) == 2 and no_child_left()
        assert sha(forked) == sha(base)

    @pytest.mark.parametrize("argv", TABLES, ids=lambda argv: argv[0])
    def test_every_cell_is_the_17g_of_its_double(self, tmp_path, argv):
        # no hash is pinned: kinetics runs through BLAS and analytic through
        # numpy's SIMD exp, whose last bits may differ across machines
        out = tmp_path / "t.csv"
        assert main(argv + ["--out", str(out)]) == 0
        header, *rows = out.read_bytes().splitlines()
        cells = [cell for row in rows for cell in row.split(b",")]
        assert len(cells) == len(rows) * len(header.split(b","))
        # the cells below 1e-4, which %.17g writes with an exponent, are there too
        assert any(b"e-" in cell for cell in cells)
        assert [cell for cell in cells if b"%.17g" % float(cell) != cell] == []

    @pytest.mark.parametrize("argv", TABLES, ids=lambda argv: argv[0])
    def test_unwritable_out_starts_no_pool(self, tmp_path, monkeypatch, capsys, forks,
                                           argv):
        monkeypatch.setattr(series, "_usable_cpus", lambda: 8)
        out = tmp_path / "missing" / "t.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert forks == []


class TestOutputErrors:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--n-pairs", "10"],
        ["analytic", "--n-points", "5"],
        ["kinetics", "--t-end", "0.01"],
    ], ids=lambda argv: argv[0])
    def test_out_in_missing_directory_is_parameter_error(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing" in err
        assert "Traceback" not in err

    def test_fit_out_in_missing_directory_is_parameter_error(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("t_first\n0.5\n")
        out = tmp_path / "missing" / "fit.json"
        assert main(["fit", "--samples", str(samples), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["fit", "--samples"], ["discriminate", "--samples"],
        ["wavefunction", "--check", "n0f-antisymmetric", "--n", "64"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_json_out_prints_nothing(self, tmp_path, capsys, argv):
        samples = tmp_path / "samples.csv"
        samples.write_text("t_first,t_second\n0.5,0.9\n0.25,2\n")
        if argv[-1] == "--samples":
            argv = argv + [str(samples)]
        out = tmp_path / "missing" / "out.json"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot write" in captured.err

    @pytest.mark.parametrize("blocked", ["out.csv.summary.json",
                                         "out.csv.manifest.json"])
    def test_unwritable_summary_or_manifest_is_parameter_error(
            self, tmp_path, capsys, blocked):
        (tmp_path / blocked).mkdir()
        out = tmp_path / "out.csv"
        assert main(["simulate", "--n-pairs", "10", "--out", str(out)]) == 2
        assert blocked in capsys.readouterr().err


class TestParser:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "firstphoton" in capsys.readouterr().out
