import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from firstphoton import analytic as an
from firstphoton import estimation as es
from firstphoton import montecarlo as mc
from firstphoton.analytic import RatePair, WindowConfig
from firstphoton.errors import InvalidDataError, InvalidParameterError


def make_records(pairs):
    out = np.zeros(len(pairs), dtype=mc.RECORD_DTYPE)
    for i, (t1, t2) in enumerate(pairs):
        out[i] = (t1, "A", t2)
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
    ])
    def test_sim_config_validation(self, kw):
        base = dict(n_pairs=10, rates=RatePair(1.0, 1.5), kind="entangled",
                    window=WindowConfig(tau=0.1), seed=0)
        base.update(kw)
        with pytest.raises(InvalidParameterError):
            mc.SimConfig(**base)


class TestSamplingStatistics:
    def test_entangled_first_time_mean(self, entangled_100k):
        # waiting time is exponential at rate 2.5: mean 0.4, sd 0.4
        mean = float(entangled_100k["t_first"].mean())
        assert abs(mean - 0.4) < 4.0 * 0.4 / math.sqrt(100_000)

    def test_entangled_channel_split(self, entangled_100k):
        # channel A takes gamma_a / gamma_f = 0.4 of first photons
        frac = float(np.mean(entangled_100k["channel_first"] == "A"))
        assert abs(frac - 0.4) < 4.0 * math.sqrt(0.4 * 0.6 / 100_000)

    def test_entangled_first_time_distribution(self, entangled_100k):
        rates = RatePair(1.0, 1.5)
        stat = es.ks_distance(entangled_100k["t_first"],
                              lambda t: an.first_emission_cdf_entangled(t, rates))
        assert stat < es.ks_critical_value(100_000, significance=0.01)

    def test_entangled_relax_time_distribution(self, entangled_100k):
        # after a channel-A first photon the B atom relaxes at rate 1.5
        sel = entangled_100k["channel_first"] == "A"
        delays = entangled_100k["t_second"][sel] - entangled_100k["t_first"][sel]
        stat = es.ks_distance(delays, lambda t: -np.expm1(-1.5 * t))
        assert stat < es.ks_critical_value(int(sel.sum()), significance=0.01)

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
        frac = float(np.mean(product_100k["channel_first"] == "A"))
        assert abs(frac - 0.4) < 4.0 * math.sqrt(0.4 * 0.6 / 100_000)

    def test_records_are_ordered(self, entangled_100k, product_100k):
        for recs in (entangled_100k, product_100k):
            assert np.all(recs["t_first"] >= 0.0)
            assert np.all(recs["t_second"] >= recs["t_first"])
            assert np.all(np.isin(recs["channel_first"], ["A", "B"]))

    def test_relabeling_swaps_channels_only(self):
        n = 50_000
        window = WindowConfig(tau=0.1)
        recs = mc.simulate(mc.SimConfig(n_pairs=n, rates=RatePair(1.0, 1.5),
                                        kind="entangled", window=window, seed=5))
        swapped = mc.simulate(mc.SimConfig(n_pairs=n, rates=RatePair(1.5, 1.0),
                                           kind="entangled", window=window, seed=6))
        frac_a = float(np.mean(recs["channel_first"] == "A"))
        frac_b_swapped = float(np.mean(swapped["channel_first"] == "B"))
        assert abs(frac_a - frac_b_swapped) < 5.0 * math.sqrt(0.25 / n) * math.sqrt(2.0)
        stat = ks_2samp(recs["t_first"], swapped["t_first"]).statistic
        assert stat < 1.95 * math.sqrt(2.0 / n)


class TestDeterminism:
    def test_worker_count_does_not_change_output(self):
        config = mc.SimConfig(n_pairs=mc.CHUNK_PAIRS + 1717, rates=RatePair(1.0, 1.5),
                              kind="product", window=WindowConfig(tau=0.1), seed=99)
        base = mc.simulate(config, n_workers=1)
        for workers in (2, 5, 8):
            assert np.array_equal(mc.simulate(config, n_workers=workers), base)

    def test_seed_changes_output(self):
        kw = dict(n_pairs=1000, rates=RatePair(1.0, 1.5), kind="entangled",
                  window=WindowConfig(tau=0.1))
        a = mc.simulate(mc.SimConfig(seed=1, **kw))
        b = mc.simulate(mc.SimConfig(seed=2, **kw))
        assert not np.array_equal(a["t_first"], b["t_first"])

    @pytest.mark.parametrize("kind", ["entangled", "product"])
    @pytest.mark.parametrize("pair_index", [0, 3, 70000])
    def test_scalar_sampler_matches_bulk(self, kind, pair_index):
        config = mc.SimConfig(n_pairs=70_001, rates=RatePair(1.0, 1.5),
                              kind=kind, window=WindowConfig(tau=0.1), seed=31)
        records = mc.simulate(config, n_workers=4)
        rng = mc.pair_generator(31, pair_index)
        sample = (mc.sample_entangled_pair if kind == "entangled"
                  else mc.sample_product_pair)
        record = sample(config.rates, rng)
        row = records[pair_index]
        assert record["t_first"] == row["t_first"]
        assert record["t_second"] == row["t_second"]
        assert record["channel_first"] == row["channel_first"]

    def test_scalar_stream_is_contiguous(self):
        # one Generator can sample consecutive pairs and stay aligned
        # with the bulk path because each pair eats exactly one block
        rates = RatePair(1.0, 1.5)
        config = mc.SimConfig(n_pairs=5, rates=rates, kind="product",
                              window=WindowConfig(tau=0.1), seed=8)
        records = mc.simulate(config)
        rng = mc.pair_generator(8)
        for i in range(5):
            rec = mc.sample_product_pair(rates, rng)
            assert rec["t_first"] == records[i]["t_first"]
            assert rec["t_second"] == records[i]["t_second"]


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
        series = mc.empirical_cdf(np.array([1.0, 2.0, 3.0]),
                                  np.array([0.5, 1.0, 2.5, 5.0]))
        assert np.allclose(series.values, [0.0, 1 / 3, 2 / 3, 1.0])

    def test_empty_grid_gives_empty_series(self):
        records = make_records([(0.1, 0.9)])
        series = mc.empirical_first_cdf(records, np.array([]))
        assert len(series) == 0

    def test_empty_samples_rejected(self):
        with pytest.raises(InvalidDataError):
            mc.empirical_cdf(np.array([]), np.array([1.0]))

    def test_matches_analytic_cdf(self, entangled_100k):
        rates = RatePair(1.0, 1.5)
        grid = np.linspace(0.0, 4.0, 500)
        series = mc.empirical_first_cdf(entangled_100k, grid)
        sup = float(np.max(np.abs(series.values
                                  - an.first_emission_cdf_entangled(grid, rates))))
        assert sup < 0.008

    @given(st.lists(st.floats(min_value=0.01, max_value=9.0), min_size=1, max_size=40))
    def test_bounds_and_monotonicity(self, values):
        grid = np.linspace(0.0, 10.0, 23)
        series = mc.empirical_cdf(np.array(values), grid)
        assert np.all(series.values >= 0.0) and np.all(series.values <= 1.0)
        assert np.all(np.diff(series.values) >= 0.0)
        assert series.values[-1] == 1.0


class TestChannelFractions:
    def test_fractions_sum_to_one(self, entangled_100k):
        fractions = mc.channel_fractions(entangled_100k)
        assert fractions["A"] + fractions["B"] == pytest.approx(1.0)

    def test_empty_records(self):
        fractions = mc.channel_fractions(np.zeros(0, dtype=mc.RECORD_DTYPE))
        assert fractions == {"A": 0.0, "B": 0.0}


class TestRecordsCsv:
    def test_roundtrip(self, tmp_path, product_100k):
        path = tmp_path / "records.csv"
        subset = product_100k[:500]
        mc.write_records_csv(path, subset)
        lines = path.read_text().splitlines()
        assert lines[0] == "pair_id,t_first,channel_first,t_second,channel_second"
        for i in (0, 1, 499):
            pair_id, _, first, _, second = lines[i + 1].split(",")
            assert int(pair_id) == i
            assert first == subset[i]["channel_first"]
            assert {first, second} == {"A", "B"}
        loaded = mc.read_records_csv(path)
        assert np.array_equal(loaded["t_first"], subset["t_first"])
        assert np.array_equal(loaded["t_second"], subset["t_second"])
        # the loaded records carry no channel labels; reporting a split
        # from them would be a silent wrong answer
        with pytest.raises(InvalidDataError):
            mc.channel_fractions(loaded)

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
