"""Smoke runs of the scripts in scripts/ at tiny sizes."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from firstphoton.series import read_columns

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_decay_curves(tmp_path, capsys):
    script = load_script("run_decay_curves")
    prefix = tmp_path / "decay"
    assert script.main(["--n-pairs", "2000", "--n-points", "21", "--tau", "0.1",
                        "--prefix", str(prefix)]) == 0
    assert "entangled combined rate" in capsys.readouterr().out
    curves = read_columns(f"{prefix}_analytic.csv", ["t", "nf_entangled", "nf_product"])
    assert curves["t"].shape == (21,)
    empirical = read_columns(f"{prefix}_empirical.csv",
                             ["t", "ecdf_entangled", "ecdf_product_kept"])
    for name in ("ecdf_entangled", "ecdf_product_kept"):
        values = empirical[name]
        assert values[0] == 0.0 and np.all(np.diff(values) >= 0.0) and values[-1] <= 1.0
    # 2000 pairs put the ECDFs within a few 1/sqrt(N) of their laws
    for ecdf, law in (("ecdf_entangled", "nf_entangled"),
                      ("ecdf_product_kept", "nf_product")):
        gap = np.abs(empirical[ecdf] - curves[law])
        assert float(gap.max()) < 0.06, ecdf


def test_discrimination_power(tmp_path, capsys):
    script = load_script("discrimination_power")
    out = tmp_path / "power.csv"
    assert script.main(["--sizes", "100", "1000", "--trials", "4", "--tau", "0.5",
                        "--out", str(out)]) == 0
    capsys.readouterr()
    table = read_columns(out, ["n_pairs", "fraction_correct", "mean_abs_log_ratio"])
    assert table["n_pairs"].tolist() == [100.0, 1000.0]
    assert np.all((table["fraction_correct"] >= 0.0) & (table["fraction_correct"] <= 1.0))
    assert table["fraction_correct"][-1] == pytest.approx(1.0)
    assert np.all(table["mean_abs_log_ratio"] > 0.0)



@pytest.mark.parametrize("argv, code, message", [
    (["--n-pairs", "10", "--seed", "-1"], 2, "seed must be an integer"),
    (["--n-pairs", "0"], 2, "n_pairs must be a positive integer"),
    (["--t-max", "-1"], 2, "t_max must be positive"),
    (["--n-points", "1"], 2, "n_points must be an integer of at least 2"),
    (["--tau", "0"], 2, "tau must be a positive"),
    # the one product pair of seed 1 falls in the window, so its ECDF has no sample
    (["--n-pairs", "1", "--tau", "5", "--seed", "0"], 3, "zero samples"),
    # beyond physical memory and numpy's largest array: refused before
    # anything is allocated, where numpy would raise ValueError
    (["--n-pairs", "10000000000000000000"], 2, "n_pairs = 10000000000000000000"),
    (["--n-points", "10000000000000000000"], 2, "n_points = 10000000000000000000"),
], ids=["seed-negative", "no-pairs", "t-max-negative", "one-point", "no-window",
        "none-kept", "oversized-run", "oversized-grid"])
def test_run_decay_curves_bad_input_writes_nothing(tmp_path, capsys, argv, code, message):
    script = load_script("run_decay_curves")
    assert script.main(["--n-pairs", "50", *argv, "--prefix", str(tmp_path / "decay")]) == code
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, code, message", [
    (["--sizes", "0"], 2, "n_pairs must be a positive integer"),
    (["--tau", "0"], 2, "tau must be a positive"),
    (["--trials", "0"], 2, "--trials must be at least 1"),
    (["--trials", "-1"], 2, "--trials must be at least 1"),
    # every trial is checked before the first runs, so a bad seed of
    # the second size stops the script before it prints a row
    (["--sizes", "100", "10", "--seed", "-10050"], 2, "seed must be an integer"),
    # the one product pair of the second trial falls in the window
    (["--sizes", "1", "--trials", "2", "--tau", "5"], 3, "no samples"),
    (["--sizes", "10000000000000000000"], 2, "n_pairs = 10000000000000000000"),
    # an oversized second size stops the script before the first size's row
    (["--sizes", "100", "10000000000000000000"], 2, "n_pairs = 10000000000000000000"),
], ids=["no-pairs", "no-window", "no-trials", "negative-trials", "late-negative-seed",
        "none-kept", "oversized-run", "late-oversized-run"])
def test_discrimination_power_bad_input_writes_nothing(tmp_path, capsys, argv, code, message):
    script = load_script("discrimination_power")
    out = tmp_path / "power.csv"
    assert script.main(["--sizes", "100", "--trials", "4", *argv, "--out", str(out)]) == code
    printed, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
    assert printed == "" and list(tmp_path.iterdir()) == []


def out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("name, argv", [
    ("run_decay_curves", ["--n-pairs", "50", "--prefix", "decay"]),
    ("discrimination_power", ["--sizes", "100", "--trials", "4", "--out", "power.csv"]),
])
def test_out_of_memory_is_reported_as_the_cli_does(tmp_path, monkeypatch, capsys, name, argv):
    script = load_script(name)
    monkeypatch.setattr(script.mc, "simulate", out_of_memory)
    monkeypatch.chdir(tmp_path)
    assert script.main(argv) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert list(tmp_path.iterdir()) == []
