import itertools
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from firstphoton import analytic as an
from firstphoton import kinetics, montecarlo, wavefunction
from firstphoton.analytic import (ApproximationBreakdownWarning, RatePair,
                                  WindowConfig)
from firstphoton.errors import InvalidParameterError, WindowTooWideError

rates_st = st.floats(min_value=0.05, max_value=20.0,
                     allow_nan=False, allow_infinity=False)
# log-uniform over [1e-8, 1e8]: rate ratios up to 1e16
wide_rates_st = st.floats(min_value=-8.0, max_value=8.0).map(lambda e: 10.0 ** e)
times_st = st.floats(min_value=0.0, max_value=50.0,
                     allow_nan=False, allow_infinity=False)


class TestRatePair:
    def test_combined_rate(self, rates_ref):
        assert rates_ref.gamma_f == 2.5

    def test_symmetric_under_swap(self, rates_ref):
        assert RatePair(rates_ref.gamma_b, rates_ref.gamma_a).gamma_f == 2.5

    # 1e-320 and 5e-324 are subnormal: their reciprocals overflow
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"),
                                     1e-320, 5e-324])
    def test_rejects_nonpositive_rates(self, bad):
        with pytest.raises(InvalidParameterError):
            RatePair(gamma_a=bad, gamma_b=1.0)
        with pytest.raises(InvalidParameterError):
            RatePair(gamma_a=1.0, gamma_b=bad)

    @pytest.mark.parametrize("gamma_a, gamma_b", [(1e308, 1e308), (1.5e308, 5e307)])
    def test_rejects_rates_whose_sum_overflows(self, gamma_a, gamma_b):
        with pytest.raises(InvalidParameterError):
            RatePair(gamma_a=gamma_a, gamma_b=gamma_b)

    def test_channel_lookup(self, rates_ref):
        assert rates_ref.channel_rate("A") == 1.0
        assert rates_ref.channel_rate("B") == 1.5
        with pytest.raises(InvalidParameterError):
            rates_ref.channel_rate("C")


class TestWindowConfig:
    @pytest.mark.parametrize("bad", [0.0, -0.5, float("nan")])
    def test_rejects_bad_width(self, bad):
        with pytest.raises(InvalidParameterError):
            WindowConfig(tau=bad)

    def test_rejects_unknown_mode(self):
        with pytest.raises(InvalidParameterError):
            WindowConfig(tau=0.1, mode="nearest")


def assert_compatible(g_a, g_b):
    c_a, c_b, g_f = an.solve_compatibility(RatePair(g_a, g_b))
    exact_a, exact_b = Fraction(g_a), Fraction(g_b)
    assert c_a == g_a
    assert c_b == g_b
    assert g_f == float(exact_a + exact_b)
    # reference: the four relations between the time-ordered and the
    # direct per-channel laws, written out independently of the solver
    # and checked exactly over the rationals, g_f being the exact sum
    c_a, c_b, g_f = Fraction(c_a), Fraction(c_b), exact_a + exact_b
    for lhs, rhs in ((c_b, g_f - exact_a),
                     (c_a, g_f - exact_b),
                     (c_a, exact_a * c_b / (g_f - exact_a)),
                     (c_b, exact_b * c_a / (g_f - exact_b))):
        assert lhs == rhs


class TestCompatibility:
    # the last four have a rate ratio of 1e4 or more, where the float
    # residual of g_f - gamma_a cancels
    @pytest.mark.parametrize("g_a,g_b", [(1.0, 1.5), (2.0, 2.0), (1.0, 1e-3), (3.7, 0.2),
                                         (1.0, 1e-5), (20.0, 1e-3), (1e-3, 20.0),
                                         (1.0, 1e-16)])
    def test_recovers_sum_rule(self, g_a, g_b):
        assert_compatible(g_a, g_b)

    @given(g_a=rates_st, g_b=rates_st)
    def test_recovers_sum_rule_drawn(self, g_a, g_b):
        assert_compatible(g_a, g_b)

    @given(g_a=wide_rates_st, g_b=wide_rates_st)
    def test_recovers_sum_rule_wide_ratios(self, g_a, g_b):
        assert_compatible(g_a, g_b)


class TestEntangledLaw:
    # the fraction of pairs still excited is 1 - CDF
    def test_survival_at_zero(self, rates_ref):
        assert 1.0 - an.first_emission_cdf_entangled(0.0, rates_ref) == 1.0

    def test_survival_frozen_value(self, rates_ref):
        # oracle: math.exp(-2.5 * 0.4)
        assert 1.0 - an.first_emission_cdf_entangled(0.4, rates_ref) == pytest.approx(
            0.36787944117144233, rel=1e-15)

    def test_cdf_frozen_value(self, rates_ref):
        # oracle: 1 - math.exp(-2.5 * 0.4)
        assert an.first_emission_cdf_entangled(0.4, rates_ref) == pytest.approx(
            0.6321205588285577, rel=1e-15)

    def test_rejects_negative_time(self, rates_ref):
        with pytest.raises(InvalidParameterError):
            an.first_emission_cdf_entangled(-0.1, rates_ref)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_times_not_finite(self, rates_ref, bad):
        with pytest.raises(InvalidParameterError, match="times must be finite"):
            an.first_emission_cdf_entangled([0.5, bad], rates_ref)

    @given(t=times_st, g_a=rates_st, g_b=rates_st)
    def test_cdf_complements_survival(self, t, g_a, g_b):
        rates = RatePair(g_a, g_b)
        # oracle: the survival fraction exp(-g_f t)
        total = math.exp(-(g_a + g_b) * t) + an.first_emission_cdf_entangled(t, rates)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_single_type_cdf(self):
        # oracle: 1 - math.exp(-1.5 * 1.0)
        assert an.single_type_cdf(1.0, 1.5) == pytest.approx(
            0.7768698398515702, rel=1e-15)
        assert an.single_type_cdf(0.0, 1.5) == 0.0


class TestIntermediatePopulation:
    def test_empty_at_zero(self, rates_ref):
        assert an.intermediate_population(0.0, rates_ref, "A") == 0.0

    def test_frozen_value(self, rates_ref):
        # oracle: exp(-1) - exp(-2.5), the A-atom survivor population
        expected = math.exp(-1.0) - math.exp(-2.5)
        assert expected == pytest.approx(0.28579444254754355, rel=1e-14)
        assert an.intermediate_population(1.0, rates_ref, "A") == pytest.approx(
            expected, rel=1e-13)

    def test_decays_at_late_times(self, rates_ref):
        assert an.intermediate_population(60.0, rates_ref, "A") < 1e-20

    def test_rejects_rates_whose_sum_rounds_to_one_of_them(self):
        # 1e-16 is below half an ulp of 1.0, so gamma_a + gamma_b == 1.0
        # and g_i - g_f vanishes for channel A
        rates = RatePair(1.0, 1e-16)
        with pytest.raises(InvalidParameterError, match=r"\(1\.0, 1e-16\)"):
            an.intermediate_population(1.0, rates, "A")
        with pytest.raises(InvalidParameterError, match=r"\(1\.0, 1e-16\)"):
            an.emission_derivative_ordered(1.0, rates, "A")
        # channel B keeps its value: 1 - exp(-1), the B atoms left once
        # nearly every first photon came from A
        assert an.intermediate_population(1.0, rates, "B") == pytest.approx(
            -math.expm1(-1.0), rel=1e-15)
        assert an.emission_derivative_ordered(1.0, rates, "B") == pytest.approx(
            an.emission_derivative_direct(1.0, 1e-16), rel=1e-15)

    @given(t=times_st, g_a=rates_st, g_b=rates_st)
    def test_stays_in_unit_interval(self, t, g_a, g_b):
        rates = RatePair(g_a, g_b)
        for channel in ("A", "B"):
            value = an.intermediate_population(t, rates, channel)
            assert -1e-12 <= value <= 1.0


class TestOrderedVsDirect:
    def test_frozen_values(self, rates_ref):
        # at t=0 both reduce to the bare channel rate
        assert an.emission_derivative_ordered(0.0, rates_ref, "A") == pytest.approx(1.0, abs=1e-14)
        assert an.emission_derivative_direct(0.0, 1.0) == 1.0
        # oracle: 1.0 * exp(-1.0)
        assert an.emission_derivative_ordered(1.0, rates_ref, "A") == pytest.approx(
            0.36787944117144233, rel=1e-13)

    @given(t=times_st, g_a=rates_st, g_b=rates_st)
    def test_bookkeepings_agree(self, t, g_a, g_b):
        rates = RatePair(g_a, g_b)
        for channel, rate in (("A", g_a), ("B", g_b)):
            ordered = an.emission_derivative_ordered(t, rates, channel)
            direct = an.emission_derivative_direct(t, rate)
            assert ordered == pytest.approx(direct, abs=1e-12 * rate, rel=1e-10)


def second_emission_cdf(t, rates):
    """Fraction of pairs that have emitted both photons: every pair that
    emitted its first, less those still holding one excitation."""
    return (an.first_emission_cdf_entangled(t, rates)
            - an.intermediate_population(t, rates, "A")
            - an.intermediate_population(t, rates, "B"))


class TestSecondEmission:
    def test_boundaries(self, rates_ref):
        assert second_emission_cdf(0.0, rates_ref) == 0.0
        assert second_emission_cdf(80.0, rates_ref) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_value(self, rates_ref):
        # oracle: 1 - exp(-2.5) - (exp(-1) - exp(-2.5)) - (exp(-1.5) - exp(-2.5))
        expected = (1.0 - math.exp(-2.5)
                    - (math.exp(-1.0) - math.exp(-2.5))
                    - (math.exp(-1.5) - math.exp(-2.5)))
        assert expected == pytest.approx(0.4910753973040266, rel=1e-14)
        assert second_emission_cdf(1.0, rates_ref) == pytest.approx(expected, rel=1e-12)

    def test_quadrature_oracle(self, rates_ref):
        # oracle: density of the later photon, first photon at s through
        # either channel followed by relaxation of the other atom; the
        # inner integral over s folds to
        #   g_a e^{-g_a t} + g_b e^{-g_b t} - g_f e^{-g_f t}
        def second_pdf(t):
            g_a, g_b = 1.0, 1.5
            g_f = g_a + g_b
            return (g_a * math.exp(-g_a * t) + g_b * math.exp(-g_b * t)
                    - g_f * math.exp(-g_f * t))

        value, _ = quad(second_pdf, 0.0, 1.0)
        assert second_emission_cdf(1.0, rates_ref) == pytest.approx(value, rel=1e-9)

    @given(t=times_st, g_a=rates_st, g_b=rates_st)
    def test_lags_first_emission(self, t, g_a, g_b):
        rates = RatePair(g_a, g_b)
        assert (second_emission_cdf(t, rates)
                <= an.first_emission_cdf_entangled(t, rates) + 1e-12)


class TestWindowProbabilities:
    def test_taylor_frozen(self):
        # oracle: 0.1 * 1.0 * exp(0)
        assert an.window_prob_taylor(0.0, 0.1, 1.0) == pytest.approx(0.1, rel=1e-15)
        with pytest.raises(InvalidParameterError):
            an.window_prob_taylor(1.0, 0.0, 1.0)

    def test_taylor_breakdown_warning(self):
        with pytest.warns(ApproximationBreakdownWarning):
            value = an.window_prob_taylor(0.0, 5.0 / 6.0, 1.5)
        assert value == pytest.approx(1.25, rel=1e-15)


class TestProductWindowLaw:
    def test_one_emission_frozen(self):
        rates = RatePair(1.0, 1.0)
        window = WindowConfig(tau=0.1)
        # oracle: p = 0.1*exp(-1); 2p - 2p^2
        p = 0.1 * math.exp(-1.0)
        expected = 2.0 * p - 2.0 * p * p
        assert expected == pytest.approx(0.07086918256955621, rel=1e-14)
        assert an.product_one_emission_unnormalized(1.0, rates, window) == pytest.approx(
            expected, rel=1e-13)

    def test_one_emission_vanishes_at_origin_when_alpha_is_one(self, rates_ref, window_ref):
        # tau=5/6 at rates (1, 1.5): p_a + p_b = 2 p_a p_b exactly at t=0,
        # where tau * gamma_b > 1 takes the narrow-window p_b past 1
        with pytest.warns(ApproximationBreakdownWarning):
            value = an.product_one_emission_unnormalized(0.0, rates_ref, window_ref)
        assert abs(value) < 1e-15

    def test_unknown_variant_is_parameter_error(self, rates_ref):
        with pytest.raises(InvalidParameterError, match="variant must be one of.*'simpson'"):
            an.product_first_cdf([0.0, 0.5], rates_ref, WindowConfig(tau=0.1), "simpson")

    def test_alpha_unity_at_reference_point(self, rates_ref, window_ref):
        assert an.normalization_alpha(rates_ref, window_ref) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_approaches_half_for_narrow_window(self, rates_ref):
        alpha = an.normalization_alpha(rates_ref, WindowConfig(tau=1e-12))
        assert alpha == pytest.approx(0.5, abs=1e-12)

    def test_window_bound_enforced(self, rates_ref):
        with pytest.raises(WindowTooWideError):
            an.normalization_alpha(rates_ref, WindowConfig(tau=5.0 / 3.0))
        # just inside the bound still works
        an.normalization_alpha(rates_ref, WindowConfig(tau=5.0 / 3.0 - 1e-9))

    def test_unnormalized_curve_integrates_to_inverse_alpha(self, rates_ref, window_ref):
        alpha = an.normalization_alpha(rates_ref, window_ref)
        # the integrand runs through t near 0, where p_b passes 1
        with pytest.warns(ApproximationBreakdownWarning):
            value, err = quad(
                lambda t: an.product_one_emission_unnormalized(t, rates_ref, window_ref)
                / window_ref.tau, 0.0, 60.0)
        assert value == pytest.approx(1.0 / alpha, rel=1e-6)

    def test_pdf_normalized(self, rates_ref):
        # at the reference window and beyond the taylor bound tau = 5/3
        for tau, mode in itertools.product((5.0 / 6.0, 2.0), an.WINDOW_MODES):
            window = WindowConfig(tau=tau, mode=mode)
            value, _ = quad(lambda t: float(an.product_first_pdf(t, rates_ref, window)),
                            0.0, 60.0, points=tau * np.arange(1, 60.0 / tau), limit=400)
            assert value == pytest.approx(1.0, rel=1e-6), (tau, mode)

    def test_exact_variant_pdf_normalized(self, rates_ref):
        for mode in an.WINDOW_MODES:
            window = WindowConfig(tau=0.5, mode=mode)
            # the grid-bin density jumps at every bin edge, the pairwise one at tau
            value, _ = quad(lambda t: float(an.product_first_pdf(t, rates_ref, window)),
                            0.0, 60.0, points=0.5 * np.arange(1, 120), limit=400)
            assert value == pytest.approx(1.0, rel=1e-6), mode

    @pytest.mark.parametrize("mode", an.WINDOW_MODES)
    def test_exact_cdf_frozen_value(self, rates_ref, mode):
        # oracle: at t = tau the kept photons seen so far are those in
        # [0, tau) whose partner lands at or after tau (grid-bin) or at
        # least tau later (pairwise); normalized by the kept photon count
        tau = 0.5
        window = WindowConfig(tau=tau, mode=mode)
        q_a, q_b = 1.0 - math.exp(-1.0 * tau), 1.0 - math.exp(-1.5 * tau)
        kept = 2.0 * (1.0 - an.coincidence_probability(rates_ref, window))
        if mode == "grid-bin":
            expected = (q_a * (1.0 - q_b) + q_b * (1.0 - q_a)) / kept
        else:
            # photon x at s < tau, partner beyond s + tau
            expected = (1.0 / 2.5 * (1.0 * math.exp(-1.5 * tau) + 1.5 * math.exp(-1.0 * tau))
                        * (1.0 - math.exp(-2.5 * tau))) / kept
        assert an.product_first_cdf(tau, rates_ref, window, "exact") == pytest.approx(
            expected, rel=1e-13)

    def test_cdf_frozen_value(self, rates_ref, window_ref):
        # oracle: (1-e^-1) + (1-e^-1.5) - 2*(5/6)*1.5/2.5*(1-e^-2.5), alpha=1
        expected = ((1.0 - math.exp(-1.0)) + (1.0 - math.exp(-1.5))
                    - 2.0 * (5.0 / 6.0) * 1.5 / 2.5 * (1.0 - math.exp(-2.5)))
        assert expected == pytest.approx(0.49107539730402666, rel=1e-14)
        assert an.product_first_cdf(1.0, rates_ref, window_ref) == pytest.approx(
            expected, rel=1e-12)

    def test_cdf_boundaries(self, rates_ref):
        for mode in an.WINDOW_MODES:
            window = WindowConfig(tau=5.0 / 6.0, mode=mode)
            for variant in ("taylor", "exact"):
                assert an.product_first_cdf(0.0, rates_ref, window, variant) == pytest.approx(
                    0.0, abs=1e-12)
                assert an.product_first_cdf(100.0, rates_ref, window, variant) == pytest.approx(
                    1.0, abs=1e-6)
            assert an.product_first_cdf(0.0, rates_ref, window, "exact") >= 0.0
            assert an.product_first_cdf(60.0, rates_ref, window, "exact") == pytest.approx(
                1.0, abs=1e-15)

    def test_cdf_matches_quadrature_of_pdf(self, rates_ref):
        tau = 0.3
        window = WindowConfig(tau=tau)
        # taylor: the normalized one-photon window curve, criterion 5's form
        alpha = an.normalization_alpha(rates_ref, window)
        expected, _ = quad(lambda t: alpha * float(
            an.product_one_emission_unnormalized(t, rates_ref, window)) / tau,
            0.0, 1.7, limit=200)
        assert an.product_first_cdf(1.7, rates_ref, window) == pytest.approx(expected, rel=1e-10)
        # exact: t just below, at and just above tau and the bin edges
        # 3 tau and 7 tau, where the density jumps
        for mode in an.WINDOW_MODES:
            window = WindowConfig(tau=tau, mode=mode)
            for t in (0.3 - 1e-9, 0.3, 0.3 + 1e-9, 0.9 - 1e-9, 0.9, 0.9 + 1e-9,
                      1.7, 2.1 - 1e-9, 2.1, 2.1 + 1e-9):
                edges = [e for e in tau * np.arange(1, 8) if e < t]
                expected, _ = quad(lambda s: float(an.product_first_pdf(s, rates_ref, window)),
                                   0.0, t, points=edges or None, limit=200,
                                   epsabs=1e-14, epsrel=1e-12)
                assert an.product_first_cdf(t, rates_ref, window, "exact") == pytest.approx(
                    expected, rel=1e-10, abs=1e-14), (mode, t)

    def test_narrow_window_reduces_to_rate_mixture(self, rates_ref):
        t = np.linspace(0.0, 6.0, 50)
        mixture = 0.5 * (1.0 * np.exp(-1.0 * t) + 1.5 * np.exp(-1.5 * t))
        for mode in an.WINDOW_MODES:
            window = WindowConfig(tau=1e-10, mode=mode)
            assert np.allclose(an.product_first_pdf(t, rates_ref, window), mixture, rtol=1e-8)

    @given(g_a=rates_st, g_b=rates_st,
           tau=st.floats(min_value=1e-6, max_value=0.5),
           mode=st.sampled_from(an.WINDOW_MODES),
           t=times_st)
    def test_pdf_nonnegative_in_narrow_regime(self, g_a, g_b, tau, mode, t):
        # where 2 tau g_a g_b > g_a + g_b the taylor density went negative
        # near t = 0; the exact one is a density for every window
        rates = RatePair(g_a, g_b)
        assert an.product_first_pdf(t, rates, WindowConfig(tau=tau, mode=mode)) >= 0.0

    @given(g_a=rates_st, g_b=rates_st, t=times_st)
    def test_swap_invariance(self, g_a, g_b, t):
        tau = min(0.2, 0.5 * (g_a + g_b) / (g_a * g_b))
        window = WindowConfig(tau=tau)
        rates, swapped = RatePair(g_a, g_b), RatePair(g_b, g_a)
        assert an.normalization_alpha(rates, window) == pytest.approx(
            an.normalization_alpha(swapped, window), rel=1e-14)
        assert an.product_first_pdf(t, rates, window) == pytest.approx(
            an.product_first_pdf(t, swapped, window), rel=1e-12, abs=1e-13 * (g_a + g_b))

    @given(t1=times_st, t2=times_st)
    def test_cdf_monotone(self, t1, t2):
        rates, window = RatePair(1.0, 1.5), WindowConfig(tau=5.0 / 6.0)
        lo, hi = min(t1, t2), max(t1, t2)
        assert (an.product_first_cdf(lo, rates, window)
                <= an.product_first_cdf(hi, rates, window) + 1e-12)

    @given(g_a=rates_st, g_b=rates_st, tau=st.floats(min_value=1e-6, max_value=5.0),
           mode=st.sampled_from(an.WINDOW_MODES),
           t=st.lists(times_st, min_size=1, max_size=20))
    def test_exact_cdf_is_a_distribution(self, g_a, g_b, tau, mode, t):
        rates = RatePair(g_a, g_b)
        tau = min(tau, 0.99 * rates.gamma_f / (g_a * g_b))
        window = WindowConfig(tau=tau, mode=mode)
        t = np.sort(np.concatenate([[0.0, tau], t]))
        cdf = an.product_first_cdf(t, rates, window, "exact")
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.all(an.product_first_pdf(t, rates, window) >= 0.0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mode", an.WINDOW_MODES)
    def test_exact_cdf_never_steps_back(self, mode, seed):
        # the 4 ulp on either side of the first five multiples of tau, where
        # the bin index changes, at 500 random (rates, tau) per seed: before
        # the running maximum, rounding stepped the CDF back at 685 of the
        # 2000 grid-bin points and 229 of the pairwise ones, by up to 3.8e-13
        rng = np.random.default_rng(seed)
        for _ in range(500):
            g_a, g_b = np.exp(rng.uniform(-2.0, 2.0, 2))
            window = WindowConfig(tau=math.exp(rng.uniform(-3.0, 1.0)), mode=mode)
            below = above = window.tau * np.arange(1.0, 6.0)
            t = [below]
            for _ in range(4):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
                t += [below, above]
            cdf = an.product_first_cdf(np.sort(np.concatenate(t)), RatePair(g_a, g_b),
                                       window, "exact")
            assert np.all(np.diff(cdf) >= 0.0), (g_a, g_b, window)

    @given(g_a=rates_st, g_b=rates_st, factor=st.floats(min_value=1.01, max_value=4.0),
           mode=st.sampled_from(an.WINDOW_MODES),
           t=st.lists(times_st, min_size=1, max_size=20))
    def test_exact_law_beyond_taylor_bound(self, g_a, g_b, factor, mode, t):
        # just past the bound tau g_a g_b = g_a + g_b, where alpha ceases
        # to exist, to four times it: the exact law needs no alpha
        rates = RatePair(g_a, g_b)
        window = WindowConfig(tau=factor * rates.gamma_f / (g_a * g_b), mode=mode)
        with pytest.raises(WindowTooWideError):
            an.product_first_cdf(1.0, rates, window)
        t = np.sort(np.concatenate([[0.0, window.tau], t]))
        cdf = an.product_first_cdf(t, rates, window, "exact")
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.all(an.product_first_pdf(t, rates, window) >= 0.0)

    @pytest.mark.parametrize("mode", an.WINDOW_MODES)
    def test_exact_law_lost_to_rounding_is_rejected(self, rates_ref, mode):
        # tau = 40 keeps 4e-18 (grid-bin) or 3e-18 (pairwise) of the pairs,
        # a fraction that rounds to 0, where both laws would be NaN
        window = WindowConfig(tau=40.0, mode=mode)
        with pytest.raises(InvalidParameterError, match="keeps a fraction"):
            an.product_first_cdf(1.0, rates_ref, window, "exact")
        with pytest.raises(InvalidParameterError, match="keeps a fraction"):
            an.product_first_pdf(1.0, rates_ref, window)


class TestCoincidenceProbability:
    def test_grid_bin_frozen(self, rates_ref):
        # oracle below: direct bin-by-bin summation
        assert an.coincidence_probability(rates_ref, WindowConfig(tau=0.1)) == pytest.approx(
            0.05992511544318186, rel=1e-13)
        assert an.coincidence_probability(rates_ref, WindowConfig(tau=0.02)) == pytest.approx(
            0.01199940003699767, rel=1e-13)

    def test_grid_bin_series_oracle(self, rates_ref):
        tau = 0.35
        k = np.arange(0, 4000)
        per_bin = ((np.exp(-1.0 * k * tau) - np.exp(-1.0 * (k + 1) * tau))
                   * (np.exp(-1.5 * k * tau) - np.exp(-1.5 * (k + 1) * tau)))
        assert an.coincidence_probability(rates_ref, WindowConfig(tau=tau)) == pytest.approx(
            float(per_bin.sum()), rel=1e-12)

    def test_pairwise_quadrature_oracle(self, rates_ref):
        tau = 0.3
        value, _ = dblquad(
            lambda t_b, t_a: (1.0 * math.exp(-1.0 * t_a)) * (1.5 * math.exp(-1.5 * t_b)),
            0.0, 40.0,
            lambda t_a: max(0.0, t_a - tau), lambda t_a: t_a + tau)
        got = an.coincidence_probability(rates_ref, WindowConfig(tau=tau, mode="pairwise"))
        assert got == pytest.approx(value, rel=1e-8)

    @given(g_a=rates_st, g_b=rates_st,
           tau=st.floats(min_value=1e-4, max_value=5.0))
    def test_is_a_probability(self, g_a, g_b, tau):
        rates = RatePair(g_a, g_b)
        for mode in ("grid-bin", "pairwise"):
            p = an.coincidence_probability(rates, WindowConfig(tau=tau, mode=mode))
            assert 0.0 <= p <= 1.0

    def test_narrow_window_limits(self, rates_ref):
        # grid-bin tends to tau g_a g_b / g_f, pairwise to twice that
        tau = 1e-6
        lead = tau * 1.0 * 1.5 / 2.5
        grid = an.coincidence_probability(rates_ref, WindowConfig(tau=tau))
        pair = an.coincidence_probability(rates_ref, WindowConfig(tau=tau, mode="pairwise"))
        assert grid == pytest.approx(lead, rel=1e-4)
        assert pair == pytest.approx(2.0 * lead, rel=1e-4)


class TestCurveTable:
    def test_columns_are_the_laws(self, rates_ref):
        window = WindowConfig(tau=0.5, mode="pairwise")
        table = an.curve_table(rates_ref, window, 4.0, 9, an.VARIANT_EXACT)
        assert tuple(table) == an.CURVE_COLUMNS
        t = table["t"]
        assert np.array_equal(t, np.linspace(0.0, 4.0, 9))
        assert np.array_equal(table["nf_entangled"], an.first_emission_cdf_entangled(t, rates_ref))
        assert np.array_equal(table["nf_product"],
                              an.product_first_cdf(t, rates_ref, window, an.VARIANT_EXACT))
        assert np.array_equal(table["n_a"], an.single_type_cdf(t, 1.0))
        assert np.array_equal(table["n_b"], an.single_type_cdf(t, 1.5))

    @pytest.mark.parametrize("t_max, n_points, message", [
        (4.0, 1, "n_points must be an integer of at least 2"),
        (4.0, 2.5, "n_points must be an integer of at least 2"),
        (0.0, 5, "t_max must be positive and finite"),
        (math.inf, 5, "t_max must be positive and finite"),
        (math.nan, 5, "t_max must be positive and finite"),
        # beyond physical memory and numpy's largest array
        (4.0, 10**19, "n_points = 10000000000000000000 asks for an array larger"),
    ])
    def test_bad_grid_is_parameter_error(self, rates_ref, window_ref, t_max, n_points,
                                         message):
        with pytest.raises(InvalidParameterError, match=message):
            an.curve_table(rates_ref, window_ref, t_max, n_points, an.VARIANT_TAYLOR)


PHYSICAL = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
MIB = 1 << 20


@pytest.fixture
def cgroup(tmp_path, monkeypatch):
    """The cgroup v2 and v1 memory limit files, pointed at tmp_path and
    read afresh."""
    files = tmp_path / "memory.max", tmp_path / "memory.limit_in_bytes"
    monkeypatch.setattr(an, "_CGROUP_MEMORY_FILES", tuple(map(str, files)))
    an._cgroup_memory_limit.cache_clear()
    yield files
    an._cgroup_memory_limit.cache_clear()


class TestArraySize:
    @pytest.mark.parametrize("version", ["v2", "v1"])
    def test_cgroup_limit_bounds(self, cgroup, version):
        cgroup[version == "v1"].write_text(f"{MIB}\n")
        an._require_array_size("n = 1", MIB // 8, 8)
        with pytest.raises(InvalidParameterError,
                           match="n = 2 asks for an array larger than the 0.000977 GiB "
                                 "the cgroup memory limit allows"):
            an._require_array_size("n = 2", MIB // 8 + 1, 8)

    # v2's unlimited "max", no file, or v1's unlimited value, which is
    # above physical memory
    @pytest.mark.parametrize("v2, v1", [("max\n", None), (None, None),
                                        (None, "9223372036854771712\n")],
                             ids=["v2-max", "no-file", "v1-unlimited"])
    def test_no_cgroup_limit_leaves_physical_memory(self, cgroup, v2, v1):
        for path, text in zip(cgroup, (v2, v1)):
            if text is not None:
                path.write_text(text)
        an._require_array_size("n = 1", PHYSICAL, 1)
        with pytest.raises(InvalidParameterError, match="GiB of physical memory"):
            an._require_array_size("n = 2", PHYSICAL + 1, 1)

    def test_cgroup_limit_is_read_once(self, cgroup):
        cgroup[0].write_text(f"{MIB}\n")
        for _ in range(2):
            with pytest.raises(InvalidParameterError, match="cgroup memory limit"):
                an._require_array_size("n = 2", MIB + 1, 1)
            cgroup[0].unlink(missing_ok=True)

    @pytest.mark.parametrize("make, name", [
        (lambda rates, window: montecarlo.simulate(montecarlo.SimConfig(
            n_pairs=1 << 16, rates=rates, kind=montecarlo.KIND_PRODUCT, window=window,
            seed=0)), "n_pairs = 65536"),
        (lambda rates, window: kinetics.integrate(
            kinetics.initial_state(), rates, kinetics.IntegratorConfig(step=1e-4, t_end=4.0)),
         "t_end / step = 4.0 / 0.0001"),
        (lambda rates, window: wavefunction.Grid1D(x_min=-12.0, x_max=12.0, n=256),
         "n = 256"),
        (lambda rates, window: an.curve_table(rates, window, 4.0, 1 << 15, an.VARIANT_EXACT),
         "n_points = 32768"),
    ], ids=["records", "trajectory", "amplitude", "curve-table"])
    def test_each_layer_checks_its_array(self, cgroup, rates_ref, window_ref, make, name):
        # each array is about 1 MiB: refused under a half-MiB limit
        cgroup[0].write_text(f"{MIB // 2}\n")
        with pytest.raises(InvalidParameterError,
                           match=f"^{name} asks for an array larger than .* cgroup"):
            make(rates_ref, window_ref)
