import functools
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest

import firstphoton
from firstphoton import series
from firstphoton.cli import main
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
        for name, col in cols.items():
            assert col[-1] == pytest.approx(1.0, abs=1e-3), name

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
        # petabytes: the allocation fails before any memory is touched
        assert main(["analytic", "--n-points", str(10**15),
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--n-points" in err
        assert len(err.splitlines()) == 1


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

    def test_worker_count_invariant(self, tmp_path):
        # two full chunks and a short one, so two and three workers
        # really split both the sampling and the rendering
        common = ["simulate", "--n-pairs", str(2 * series.CHUNK_ROWS + 17),
                  "--seed", "3"]
        digests = set()
        for workers in ("1", "2", "3"):
            out = tmp_path / f"w{workers}.csv"
            assert main(common + ["--workers", workers, "--out", str(out)]) == 0
            assert multiprocessing.active_children() == []
            digests.add(sha(out))
        assert len(digests) == 1

    def test_render_processes_capped_by_chunks_and_cpus(self, tmp_path, monkeypatch):
        asked = []

        class InProcess:
            """Stands in for the fork pool: records its size, renders here."""

            def __init__(self, processes, row, cols):
                asked.append(processes)
                self.render = functools.partial(series._render, row, cols)

            def submit(self, fn, start, stop):
                future = Future()
                future.set_result(self.render(start, stop))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(series, "_fork_pool", InProcess)
        common = ["simulate", "--n-pairs", str(3 * series.CHUNK_ROWS), "--seed", "5"]
        base, capped = tmp_path / "w1.csv", tmp_path / "wmany.csv"
        assert main(common + ["--workers", "1", "--out", str(base)]) == 0
        assert asked == []
        assert main(common + ["--workers", "100000", "--out", str(capped)]) == 0
        expected = min(3, series._usable_cpus())
        assert asked == ([expected] if expected > 1 else [])
        assert sha(capped) == sha(base)

    def test_unwritable_out_starts_no_pool(self, tmp_path, capsys, monkeypatch):
        started = []
        monkeypatch.setattr(series, "_fork_pool", lambda *args: started.append(args))
        out = tmp_path / "missing" / "r.csv"
        assert main(["simulate", "--n-pairs", str(2 * series.CHUNK_ROWS + 1),
                     "--workers", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert started == []

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
        # 17.8 PiB of records, beyond the address space: the allocation
        # fails before any memory is touched
        assert main(["simulate", "--n-pairs", str(10**15),
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

    def test_nonpositive_sample_is_data_error(self, tmp_path, capsys):
        samples = tmp_path / "bad.csv"
        samples.write_text("t_first\n0.0\n")
        assert main(["fit", "--samples", str(samples)]) == 3
        capsys.readouterr()


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

    def test_wide_window_is_parameter_error(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("t_first\n0.5\n")
        assert main(["discriminate", "--samples", str(samples),
                     "--tau", "1.7"]) == 2
        capsys.readouterr()


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

    def test_oversized_trajectory_is_parameter_error(self, tmp_path, capsys):
        # petabytes: the allocation fails before any memory is touched
        assert main(["kinetics", "--step", "1e-15",
                     "--out", str(tmp_path / "kin.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--step" in err
        assert len(err.splitlines()) == 1


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
        # 16 * 10**16 bytes per array, beyond the address space: the
        # allocation fails before any memory is touched
        assert main(["wavefunction", "--check", check, "--n", str(10**8)]) == 2
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
    def test_preservation_memory_is_bounded(self, check):
        # each check holds two n x n arrays at its peak: input and output
        # of a stage, or an amplitude and its swap scratch (2.0-2.1 arrays
        # measured); the bound leaves room for allocator slack and fails
        # a check that holds a third
        n = 1024
        baseline = peak_rss_bytes("import firstphoton.cli")
        peak = peak_rss_bytes(
            "import sys; from firstphoton.cli import main; sys.exit(main(["
            f"'wavefunction', '--check', '{check}', '--n', '{n}']))")
        assert peak - baseline <= 2.6 * 16 * n * n


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


def peak_rss_bytes(code: str, timeout: float = 60.0) -> int:
    """Peak resident set size of a child Python running ``code``."""
    src = os.path.dirname(os.path.dirname(firstphoton.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
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
