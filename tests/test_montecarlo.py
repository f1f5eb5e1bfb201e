import math
import os
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from firstphoton import analytic as an
from firstphoton import cli
from firstphoton import estimation as es
from firstphoton import montecarlo as mc
from firstphoton import series
from firstphoton.analytic import RatePair, WindowConfig
from firstphoton.errors import InvalidDataError, InvalidParameterError
from firstphoton.series import CHUNK_ROWS


def make_records(pairs):
    out = np.zeros(len(pairs), dtype=mc.RECORD_DTYPE)
    for i, (t1, t2) in enumerate(pairs):
        out[i] = (t1, True, t2)
    return out


@pytest.fixture(scope="module")
def entangled_100k():
    config = mc.SimConfig(n_pairs=100_000, rates=RatePair(1.0, 1.5),
                          kind="entangled", window=WindowConfig(tau=5.0 / 6.0),
                          seed=2024)
    return mc.simulate(config)


@pytest.fixture(scope="module")
def product_100k():
    config = mc.SimConfig(n_pairs=100_000, rates=RatePair(1.0, 1.5),
                          kind="product", window=WindowConfig(tau=0.1),
                          seed=2025)
    return mc.simulate(config)


class TestRecordTypes:
    @pytest.mark.parametrize("kw", [
        dict(n_pairs=0), dict(n_pairs=-3), dict(n_pairs=1.5),
        dict(kind="mixed"), dict(seed="abc"),
        # photon times, or their grid-bin indices t / tau, overflow
        dict(rates=RatePair(2e-308, 1.5)), dict(window=WindowConfig(tau=1e-320)),
    ])
    def test_sim_config_validation(self, kw):
        base = dict(n_pairs=10, rates=RatePair(1.0, 1.5), kind="entangled",
                    window=WindowConfig(tau=0.1), seed=0)
        base.update(kw)
        with pytest.raises(InvalidParameterError):
            mc.SimConfig(**base)

    def test_oversized_run_is_refused_when_built(self):
        # the config refuses the records simulate would make of it
        with pytest.raises(InvalidParameterError,
                           match="^n_pairs = 10000000000000000000 asks for an array larger"):
            mc.SimConfig(n_pairs=10 ** 19, rates=RatePair(1.0, 1.5), kind="product",
                         window=WindowConfig(tau=0.1), seed=0)


class TestSamplingStatistics:
    def test_entangled_first_time_mean(self, entangled_100k):
        # waiting time is exponential at rate 2.5: mean 0.4, sd 0.4
        mean = float(entangled_100k["t_first"].mean())
        assert abs(mean - 0.4) < 4.0 * 0.4 / math.sqrt(100_000)

    def test_entangled_channel_split(self, entangled_100k):
        # channel A takes gamma_a / gamma_f = 0.4 of first photons
        frac = float(np.mean(entangled_100k["first_is_a"]))
        assert abs(frac - 0.4) < 4.0 * math.sqrt(0.4 * 0.6 / 100_000)

    def test_product_first_is_minimum_law(self, product_100k):
        # min of two independent exponentials is exponential at the sum rate
        rates = RatePair(1.0, 1.5)
        stat = es.ks_distance(product_100k["t_first"],
                              lambda t: an.first_emission_cdf_entangled(t, rates))
        assert stat < es.ks_critical_value(100_000, significance=0.01)

    def test_product_second_is_maximum_law(self, product_100k):
        stat = es.ks_distance(
            product_100k["t_second"],
            lambda t: (1.0 - np.exp(-1.0 * t)) * (1.0 - np.exp(-1.5 * t)))
        assert stat < es.ks_critical_value(100_000, significance=0.01)

    def test_product_first_channel_split(self, product_100k):
        # P(A first) = gamma_a / (gamma_a + gamma_b) = 0.4
        frac = float(np.mean(product_100k["first_is_a"]))
        assert abs(frac - 0.4) < 4.0 * math.sqrt(0.4 * 0.6 / 100_000)

    def test_records_are_ordered(self, entangled_100k, product_100k):
        for recs in (entangled_100k, product_100k):
            assert np.all(recs["t_first"] >= 0.0)
            assert np.all(recs["t_second"] >= recs["t_first"])
            assert recs.dtype == mc.RECORD_DTYPE

    def test_relabeling_swaps_channels_only(self):
        n = 50_000
        window = WindowConfig(tau=0.1)
        recs = mc.simulate(mc.SimConfig(n_pairs=n, rates=RatePair(1.0, 1.5),
                                        kind="entangled", window=window, seed=5))
        swapped = mc.simulate(mc.SimConfig(n_pairs=n, rates=RatePair(1.5, 1.0),
                                           kind="entangled", window=window, seed=6))
        frac_a = float(np.mean(recs["first_is_a"]))
        frac_b_swapped = float(np.mean(~swapped["first_is_a"]))
        assert abs(frac_a - frac_b_swapped) < 5.0 * math.sqrt(0.25 / n) * math.sqrt(2.0)
        stat = ks_2samp(recs["t_first"], swapped["t_first"]).statistic
        assert stat < 1.95 * math.sqrt(2.0 / n)


LAW_RATES = RatePair(1.0, 1.5)


@pytest.fixture(scope="module")
def both_kinds():
    """200 000 pairs of each kind at the rates of ``LAW_RATES``."""
    kw = dict(n_pairs=200_000, rates=LAW_RATES, window=WindowConfig(tau=0.1))
    return {kind: mc.simulate(mc.SimConfig(kind=kind, seed=seed, **kw))
            for kind, seed in [("entangled", 11), ("product", 12)]}


def delays(records, first_is_a: bool) -> np.ndarray:
    pick = records["first_is_a"] == first_is_a
    return records["t_second"][pick] - records["t_first"][pick]


def exponential_cdf(rate: float):
    return lambda t: -np.expm1(-rate * t)


def kept_photons(mode: str, tau: float):
    """Both photons of the pairs the window keeps, with their exact law."""
    window = WindowConfig(tau=tau, mode=mode)
    return (lambda r: mc.one_photon_window_times(mc.postselect(r, window)[0]),
            lambda t: an.product_first_cdf(t, LAW_RATES, window, "exact"))


# observable of a record array, and the CDF its samples follow for either kind
KIND_LAWS = {
    "t_first": (lambda r: r["t_first"], exponential_cdf(LAW_RATES.gamma_f)),
    # after a channel-A first photon the B atom relaxes at gamma_b, and
    # the other way round
    "delay-after-A": (lambda r: delays(r, True), exponential_cdf(LAW_RATES.gamma_b)),
    "delay-after-B": (lambda r: delays(r, False), exponential_cdf(LAW_RATES.gamma_a)),
    **{f"kept-{mode}-{tau:.3g}": kept_photons(mode, tau)
       for mode in ("grid-bin", "pairwise") for tau in (0.02, 5.0 / 6.0)},
}


class TestEachKindFollowsEachLaw:
    """Every observable follows its law whichever way the pairs were
    prepared: the premise that both kinds share one law."""

    @pytest.mark.parametrize("law", list(KIND_LAWS))
    @pytest.mark.parametrize("kind", mc.PAIR_KINDS)
    def test_ks_distance_below_critical(self, both_kinds, kind, law):
        observable, cdf = KIND_LAWS[law]
        samples = observable(both_kinds[kind])
        stat = es.ks_distance(samples, cdf)
        assert stat < es.ks_critical_value(samples.size, significance=0.01)


class TestPreparationsShareOneLaw:
    """The entangled and the product sampler draw the same joint law of
    (t_first, first_is_a, t_second): the first of two independent
    exponentials comes at the summed rate, in channel A with probability
    gamma_a / gamma_f, and the other atom's wait is memoryless."""

    def test_every_column_and_the_channel_share_agree(self):
        n = 1_000_000
        kw = dict(n_pairs=n, rates=RatePair(1.0, 1.5), window=WindowConfig(tau=5.0 / 6.0))
        entangled = mc.simulate(mc.SimConfig(kind="entangled", seed=11, **kw))
        product = mc.simulate(mc.SimConfig(kind="product", seed=12, **kw))
        for name, column in [("t_first", lambda r: r["t_first"]),
                             ("t_second - t_first", lambda r: r["t_second"] - r["t_first"]),
                             ("t_second", lambda r: r["t_second"])]:
            assert ks_2samp(column(entangled), column(product)).pvalue > 0.01, name
        shares = [float(np.mean(r["first_is_a"])) for r in (entangled, product)]
        assert abs(shares[0] - shares[1]) < 3.0 * math.sqrt(2.0 * 0.4 * 0.6 / n)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["entangled", "product"])
    def test_rows_depend_on_seed_and_index_only(self, kind):
        # a short run is the prefix of a long one: row p reads counter
        # block p whatever the chunk it falls in or the run length
        kw = dict(rates=RatePair(1.0, 1.5), kind=kind, window=WindowConfig(tau=0.1),
                  seed=31)
        short = mc.simulate(mc.SimConfig(n_pairs=CHUNK_ROWS + 1717, **kw))
        long = mc.simulate(mc.SimConfig(n_pairs=2 * CHUNK_ROWS + 5, **kw))
        assert np.array_equal(short, long[:short.size])

    def test_simulate_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"simulate started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        config = mc.SimConfig(n_pairs=2 * CHUNK_ROWS + 5, rates=RatePair(1.0, 1.5),
                              kind="product", window=WindowConfig(tau=0.1), seed=99)
        records = mc.simulate(config, n_workers=8)
        assert records.size == config.n_pairs

    def test_seed_changes_output(self):
        kw = dict(n_pairs=1000, rates=RatePair(1.0, 1.5), kind="entangled",
                  window=WindowConfig(tau=0.1))
        a = mc.simulate(mc.SimConfig(seed=1, **kw))
        b = mc.simulate(mc.SimConfig(seed=2, **kw))
        assert not np.array_equal(a["t_first"], b["t_first"])

    @pytest.mark.parametrize("kind", ["entangled", "product"])
    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, 2 ** 64 + 5, 2 ** 127 + 3],
                             ids=["0", "2**64-1", "2**64+5", "2**127+3"])
    def test_records_are_one_draw_keyed_by_the_seed(self, kind, seed):
        # the chunks read one generator in turn, keyed by the whole seed:
        # the same records as the kernel on one draw of every block
        rates = RatePair(1.0, 1.5)
        n = 2 * CHUNK_ROWS + 5
        records = mc.simulate(mc.SimConfig(n_pairs=n, rates=rates, kind=kind,
                                           window=WindowConfig(tau=0.1), seed=seed))
        words = np.random.Philox(key=seed).random_raw((n, mc.DRAWS_PER_PAIR))
        for name, column in zip(mc.RECORD_DTYPE.names, mc._KERNELS[kind](rates, words)):
            assert np.array_equal(records[name], column), name

    @pytest.mark.parametrize("seed", [-1, 2 ** 128, np.int64(-1)],
                             ids=["-1", "2**128", "int64(-1)"])
    def test_seed_outside_the_key_range_is_parameter_error(self, tmp_path, capsys, seed):
        with pytest.raises(InvalidParameterError,
                           match=r"seed must be an integer in \[0, 2\*\*128\)"):
            mc.SimConfig(n_pairs=10, rates=RatePair(1.0, 1.5), kind="product",
                         window=WindowConfig(tau=0.1), seed=seed)
        out = tmp_path / "records.csv"
        assert cli.main(["simulate", "--n-pairs", "10", "--seed", str(seed),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be")
        assert not out.exists()

    def test_seeds_a_multiple_of_2_to_the_64_apart_differ(self):
        # a seed folded to 64 bits would give both the same stream
        kw = dict(n_pairs=1000, rates=RatePair(1.0, 1.5), kind="product",
                  window=WindowConfig(tau=0.1))
        a = mc.simulate(mc.SimConfig(seed=5, **kw))
        b = mc.simulate(mc.SimConfig(seed=2 ** 64 + 5, **kw))
        assert not np.array_equal(a["t_first"], b["t_first"])


# discrimination trials as scripts/discrimination_power.py and the
# benchmark's power sweep run them: the kinds alternate and the sizes
# cycle up to N = 1e4, where a trial's chunk buffers pass glibc's
# initial mmap threshold.  Prints the minor page faults of 60 trials
# (20 at N = 1e4) after 60 warm-up trials
SWEEP_FAULTS = """
import resource
from firstphoton import analytic, estimation, montecarlo
rates = analytic.RatePair(1.0, 1.5)
window = analytic.WindowConfig(tau=5.0 / 6.0)

def trial(i):
    kind = montecarlo.PAIR_KINDS[i % 2]
    config = montecarlo.SimConfig(n_pairs=(100, 1000, 10_000)[i % 3], rates=rates,
                                  kind=kind, window=window, seed=i)
    records = montecarlo.simulate(config)
    if kind == montecarlo.KIND_PRODUCT:
        kept, _ = montecarlo.postselect(records, window)
        times = montecarlo.one_photon_window_times(kept)
    else:
        times = records["t_first"]
    estimation.discriminate(times, rates, window)

for i in range(60):
    trial(i)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(60, 120):
    trial(i)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestChunkBuffers:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap trim thresholds are glibc's (mallopt(3))")
    def test_trials_reuse_their_heap_pages(self):
        # without the block simulate drops first (series._keep_heap_pages),
        # glibc trims the freed chunk buffers after most large trials and
        # the next one faults them in again: 1100 to 5200 faults over
        # these trials, against a handful
        src = os.path.dirname(os.path.dirname(mc.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", SWEEP_FAULTS], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 200, proc.stdout


class TestPostSelection:
    def test_grid_bin_boundaries(self):
        window = WindowConfig(tau=0.1)
        records = make_records([(0.10, 0.12), (0.05, 0.15), (0.32, 0.38), (0.05, 1.7)])
        kept, summary = mc.postselect(records, window)
        assert summary.kept == 2 and summary.discarded == 2
        assert np.array_equal(kept, records[[1, 3]])
        assert summary.empirical_coincidence_rate == pytest.approx(0.5)

    def test_pairwise_boundary_is_kept(self):
        window = WindowConfig(tau=0.5, mode="pairwise")
        records = make_records([(1.0, 1.5), (1.0, 1.49), (1.0, 2.0)])
        kept, summary = mc.postselect(records, window)
        # separation exactly equal to the window width is resolvable
        assert np.array_equal(kept, records[[0, 2]])
        assert summary.discarded == 1

    def test_summary_counts_are_consistent(self, product_100k):
        kept, summary = mc.postselect(product_100k, WindowConfig(tau=0.1))
        assert summary.kept + summary.discarded == 100_000
        assert summary.kept == kept.shape[0]
        assert summary.empirical_coincidence_rate == pytest.approx(
            summary.discarded / 100_000)

    @pytest.mark.parametrize("mode", ["grid-bin", "pairwise"])
    def test_coincidence_rate_matches_closed_form(self, product_100k, mode):
        window = WindowConfig(tau=0.1, mode=mode)
        _, summary = mc.postselect(product_100k, window)
        predicted = an.coincidence_probability(RatePair(1.0, 1.5), window)
        sigma = math.sqrt(predicted * (1.0 - predicted) / 100_000)
        assert abs(summary.empirical_coincidence_rate - predicted) < 4.0 * sigma

    def test_one_photon_window_times(self):
        records = make_records([(0.1, 0.9), (0.3, 0.4)])
        times = mc.one_photon_window_times(records)
        assert times.shape == (4,)
        assert sorted(times) == [0.1, 0.3, 0.4, 0.9]


class TestEmpiricalCdf:
    def test_hand_sample(self):
        ecdf = mc.empirical_cdf(np.array([1.0, 2.0, 3.0]),
                                np.array([0.5, 1.0, 2.5, 5.0]))
        assert np.allclose(ecdf, [0.0, 1 / 3, 2 / 3, 1.0])

    def test_empty_grid_gives_empty_series(self):
        records = make_records([(0.1, 0.9)])
        assert mc.empirical_cdf(records["t_first"], np.array([])).shape == (0,)

    def test_empty_samples_rejected(self):
        with pytest.raises(InvalidDataError):
            mc.empirical_cdf(np.array([]), np.array([1.0]))

    def test_matches_analytic_cdf(self, entangled_100k):
        rates = RatePair(1.0, 1.5)
        grid = np.linspace(0.0, 4.0, 500)
        ecdf = mc.empirical_cdf(entangled_100k["t_first"], grid)
        sup = float(np.max(np.abs(ecdf - an.first_emission_cdf_entangled(grid, rates))))
        assert sup < 0.008

    @given(st.lists(st.floats(min_value=0.01, max_value=9.0), min_size=1, max_size=40))
    def test_bounds_and_monotonicity(self, values):
        grid = np.linspace(0.0, 10.0, 23)
        ecdf = mc.empirical_cdf(np.array(values), grid)
        assert np.all(ecdf >= 0.0) and np.all(ecdf <= 1.0)
        assert np.all(np.diff(ecdf) >= 0.0)
        assert ecdf[-1] == 1.0


class TestRecordsCsv:
    def test_roundtrip(self, tmp_path, product_100k):
        path = tmp_path / "records.csv"
        subset = product_100k[:500]
        mc.write_records_csv(path, subset)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_first,channel_first,t_second"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[1] for row in rows] == ["A" if a else "B" for a in subset["first_is_a"]]
        loaded = mc.read_records_csv(path)
        # a reload is its two time columns, with no channel made up
        assert loaded.dtype.names == ("t_first", "t_second")
        assert np.array_equal(loaded["t_first"], subset["t_first"])
        assert np.array_equal(loaded["t_second"], subset["t_second"])

    def test_reload_is_the_table_read(self, tmp_path, monkeypatch, product_100k):
        # the records are the table read_columns parsed, not a copy of it
        path = tmp_path / "records.csv"
        mc.write_records_csv(path, product_100k[:500])
        tables = []

        def recording(*args):
            tables.append(series.read_columns(*args))
            return tables[-1]

        monkeypatch.setattr(mc, "read_columns", recording)
        loaded = mc.read_records_csv(path)
        [table] = tables
        assert np.shares_memory(loaded, table) and loaded.nbytes == table.nbytes == 500 * 16

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_first\n0.5\n")
        with pytest.raises(InvalidDataError):
            mc.read_records_csv(path)

    def test_disordered_times_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_first,t_second\n0.5,0.1\n")
        with pytest.raises(InvalidDataError):
            mc.read_records_csv(path)

    @pytest.mark.parametrize("row", ["nan,1.0", "0.5,nan", "0.5,inf", "inf,inf"])
    def test_non_finite_times_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"t_first,t_second\n0.2,0.3\n{row}\n")
        with pytest.raises(InvalidDataError):
            mc.read_records_csv(path)
