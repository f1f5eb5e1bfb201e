import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from firstphoton import analytic as an
from firstphoton import estimation as es
from firstphoton import montecarlo as mc
from firstphoton.analytic import RatePair, WindowConfig
from firstphoton.errors import (InvalidDataError, ModelInapplicableError,
                                WindowTooWideError)

RATES = RatePair(1.0, 1.5)


@pytest.fixture(scope="module")
def entangled_times():
    config = mc.SimConfig(n_pairs=50_000, rates=RATES, kind="entangled",
                          window=WindowConfig(tau=0.02), seed=404)
    return mc.simulate(config)["t_first"]


@pytest.fixture(scope="module")
def product_window_times():
    window = WindowConfig(tau=0.02)
    config = mc.SimConfig(n_pairs=50_000, rates=RATES, kind="product",
                          window=window, seed=405)
    kept, _ = mc.postselect(mc.simulate(config), window)
    return mc.one_photon_window_times(kept)


class TestMleExponential:
    def test_frozen_unit_sample(self):
        result = es.mle_exponential([1.0, 1.0, 1.0])
        assert result.rate_estimate == 1.0
        assert result.std_error == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
        assert result.log_likelihood == pytest.approx(-3.0, rel=1e-15)
        assert result.n_samples == 3

    def test_frozen_single_sample(self):
        result = es.mle_exponential([0.5])
        assert result.rate_estimate == 2.0
        assert result.std_error == 2.0
        assert result.log_likelihood == pytest.approx(math.log(2.0) - 1.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [[], [0.0, 1.0], [-1.0], [float("nan")], [float("inf")]])
    def test_rejects_unusable_samples(self, bad):
        with pytest.raises(InvalidDataError):
            es.mle_exponential(bad)

    @given(times=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=50),
           scale_exp=st.integers(min_value=-6, max_value=6))
    def test_scaling_by_powers_of_two_is_exact(self, times, scale_exp):
        c = 2.0 ** scale_exp
        base = es.mle_exponential(times)
        scaled = es.mle_exponential([c * t for t in times])
        assert scaled.rate_estimate == base.rate_estimate / c

    @given(times=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=50),
           c=st.floats(min_value=0.1, max_value=10.0))
    def test_scaling_in_general(self, times, c):
        base = es.mle_exponential(times)
        scaled = es.mle_exponential([c * t for t in times])
        assert scaled.rate_estimate == pytest.approx(base.rate_estimate / c, rel=1e-12)

    def test_recovers_simulated_rate(self, entangled_times):
        result = es.mle_exponential(entangled_times)
        assert abs(result.rate_estimate - 2.5) < 4.0 * result.std_error
        assert result.std_error == pytest.approx(2.5 / math.sqrt(50_000), rel=0.02)


class TestKsDistance:
    def test_single_sample_at_median(self):
        assert es.ks_distance([math.log(2.0)], lambda t: 1.0 - np.exp(-t)) == pytest.approx(0.5)

    def test_hand_value_against_uniform(self):
        d = es.ks_distance([0.25, 0.75], lambda t: np.asarray(t))
        assert d == pytest.approx(0.25, rel=1e-15)

    def test_bounded(self, entangled_times):
        d = es.ks_distance(entangled_times,
                           lambda t: an.first_emission_cdf_entangled(t, RATES))
        assert 0.0 <= d <= 1.0

    def test_accepts_true_model(self, entangled_times):
        d = es.ks_distance(entangled_times,
                           lambda t: an.first_emission_cdf_entangled(t, RATES))
        assert d < es.ks_critical_value(entangled_times.size, significance=0.01)

    def test_rejects_wrong_model(self, entangled_times):
        model = an.normalization_alpha(RATES, WindowConfig(tau=5.0 / 6.0))
        d = es.ks_distance(entangled_times,
                           lambda t: an.product_first_cdf(t, model))
        assert d > 5.0 * es.ks_critical_value(entangled_times.size, significance=0.01)

    def test_monotone_reparameterization_invariant(self, entangled_times):
        # doubling all times and composing the model with u/2 relabels
        # the axis without touching the order statistics
        base = es.ks_distance(entangled_times,
                              lambda t: an.first_emission_cdf_entangled(t, RATES))
        moved = es.ks_distance(2.0 * entangled_times,
                               lambda u: an.first_emission_cdf_entangled(u / 2.0, RATES))
        assert moved == base

    def test_critical_value_frozen(self):
        # oracle: sqrt(-0.5 * ln(0.005)) = 1.6276236307187293
        assert es.ks_critical_value(1, 0.01) == pytest.approx(1.6276236307187293, rel=1e-14)
        assert es.ks_critical_value(10_000, 0.01) == pytest.approx(
            0.016276236307187292, rel=1e-14)

    def test_critical_value_validation(self):
        with pytest.raises(InvalidDataError):
            es.ks_critical_value(0)
        with pytest.raises(InvalidDataError):
            es.ks_critical_value(10, significance=1.5)


class TestProductLikelihood:
    def test_single_sample_matches_pdf(self):
        model = an.normalization_alpha(RATES, WindowConfig(tau=0.2))
        ll = es.log_likelihood_product([1.3], model)
        assert ll == pytest.approx(math.log(float(an.product_first_pdf(1.3, model))),
                                   rel=1e-14)

    def test_entangled_single_sample(self):
        ll = es.log_likelihood_entangled([0.5, 1.0], RATES)
        assert ll == pytest.approx(2.0 * math.log(2.5) - 2.5 * 1.5, rel=1e-14)

    def test_narrow_window_equal_rates_reduces_to_exponential(self):
        rates = RatePair(2.0, 2.0)
        model = an.normalization_alpha(rates, WindowConfig(tau=1e-9))
        times = np.array([0.1, 0.4, 0.9, 2.2])
        expected = times.size * math.log(2.0) - 2.0 * times.sum()
        assert es.log_likelihood_product(times, model) == pytest.approx(expected, rel=1e-7)

    def test_raises_where_density_is_negative(self):
        # load 0.72: the model normalizes but its density dips below zero
        # near the origin, so the likelihood is undefined there
        model = an.normalization_alpha(RATES, WindowConfig(tau=1.2))
        with pytest.raises(ModelInapplicableError):
            es.log_likelihood_product([1e-3], model)

    def test_own_data_beats_entangled_law(self, product_window_times):
        model = an.normalization_alpha(RATES, WindowConfig(tau=0.02))
        ll_p = es.log_likelihood_product(product_window_times, model)
        ll_e = es.log_likelihood_entangled(product_window_times, RATES)
        assert ll_p > ll_e


class TestDiscriminate:
    def test_prefers_entangled_on_entangled_data(self, entangled_times):
        result = es.discriminate(entangled_times, RATES, WindowConfig(tau=0.02))
        assert result.preferred == "entangled"
        assert result.log_likelihood_ratio > 0.0
        assert result.log_likelihood_ratio == pytest.approx(
            result.ll_entangled - result.ll_product, rel=1e-12)

    def test_prefers_product_on_window_ensemble(self, product_window_times):
        result = es.discriminate(product_window_times, RATES, WindowConfig(tau=0.02))
        assert result.preferred == "product"
        assert result.log_likelihood_ratio < 0.0

    def test_swap_invariance(self, entangled_times):
        window = WindowConfig(tau=0.02)
        a = es.discriminate(entangled_times[:1000], RATES, window)
        b = es.discriminate(entangled_times[:1000],
                            RatePair(RATES.gamma_b, RATES.gamma_a), window)
        assert a.preferred == b.preferred
        assert a.log_likelihood_ratio == pytest.approx(b.log_likelihood_ratio, rel=1e-10)

    def test_empty_samples_rejected(self):
        with pytest.raises(InvalidDataError):
            es.discriminate([], RATES, WindowConfig(tau=0.02))

    def test_wide_window_rejected(self):
        with pytest.raises(WindowTooWideError):
            es.discriminate([0.5], RATES, WindowConfig(tau=5.0 / 3.0))
