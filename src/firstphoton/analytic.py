"""Closed-form kinetics of first-photon emission from two-atom pairs.

Two atoms with single-atom emission rates gamma_a and gamma_b are
prepared either entangled or in the product of two excited states.  An
entangled pair has both atoms excited and exchange-symmetrized,
(|a, b> + |b, a>) / sqrt(2).  Its first photon comes at the combined
rate, so that waiting time is exponential with

    gamma_f = gamma_a + gamma_b,

and the atom left excited then emits its photon at its own rate.

Requiring that the time-ordered description (first emission at gamma_f,
then relaxation of the remaining atom at its own rate) reproduces the
direct per-channel laws fixes the channel rates uniquely;
``solve_compatibility`` derives that identification by elimination and
checks it against all four relations rather than assuming it.

Product pairs emit two photons.  Detection hardware that cannot resolve
two photons inside a coincidence window of width tau post-selects the
pairs whose photons it can separate (``grid-bin``: different bins of a
fixed grid of width tau; ``pairwise``: at least tau apart) and sees each
kept pair as two one-photon windows.

The narrow-window (``taylor``) law takes tau * g * exp(-g * t) as the
probability that one atom's photon lands in the window centred at t,
and p_a + p_b - 2 p_a p_b as the probability of seeing exactly one of
the two photons there.  Normalizing that curve over all windows gives
the post-selected first-photon law with

    1 / alpha = 2 - 2 * tau * gamma_a * gamma_b / (gamma_a + gamma_b),

which exists only while tau * gamma_a * gamma_b < gamma_a + gamma_b.
The curve's slope at t = 0 is alpha (gamma_a + gamma_b - 2 tau gamma_a
gamma_b), so it is a CDF only while 2 tau gamma_a gamma_b <= gamma_a +
gamma_b, and ``product_first_cdf`` rejects wider windows.  Only this
law needs alpha; it is a CDF only.

The ``exact`` law is the law of the pooled photons that post-selection
keeps, for the window's mode.  With f_x the density of photon x and
P_x(t) the probability that photon x shares the window of a photon at
t (grid-bin: the bin floor(t / tau); pairwise: within tau of t), its
density, the one ``product_first_pdf`` returns, is

    [f_a (1 - P_b) + f_b (1 - P_a)] / (2 * (1 - c)),

where c = ``coincidence_probability`` is the discarded fraction of
pairs.  Its CDF is a finite sum of exponentials in either mode.  It
needs no alpha, so it holds beyond the taylor bound; it is evaluated
while post-selection keeps at least MIN_KEPT_FRACTION of the pairs.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, WindowTooWideError

KIND_ENTANGLED = "entangled"
KIND_PRODUCT = "product"
PAIR_KINDS = (KIND_ENTANGLED, KIND_PRODUCT)

CHANNEL_A = "A"
CHANNEL_B = "B"
CHANNELS = (CHANNEL_A, CHANNEL_B)

MODE_GRID_BIN = "grid-bin"
MODE_PAIRWISE = "pairwise"
WINDOW_MODES = (MODE_GRID_BIN, MODE_PAIRWISE)

# smallest kept fraction of pairs at which the exact law is evaluated
MIN_KEPT_FRACTION = 1e-8

VARIANT_TAYLOR = "taylor"
VARIANT_EXACT = "exact"
WINDOW_VARIANTS = (VARIANT_TAYLOR, VARIANT_EXACT)


class ApproximationBreakdownWarning(UserWarning):
    """A narrow-window probability left [0, 1]; the linearized window
    law is not trustworthy at these parameters."""


def _require_positive_rate(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise InvalidParameterError(f"{name} must be a positive finite rate, got {value!r}")
    if not np.isfinite(1.0 / value):
        raise InvalidParameterError(f"{name} = {value!r} is too small: its reciprocal overflows")
    return value


def _check_times(t, rate: float, tau: float = 0.0) -> np.ndarray:
    """t as a float array; InvalidParameterError unless the times are
    finite and non-negative and the largest exponent rate * (t + tau)
    that a law forms at them stays in the float range."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise InvalidParameterError("times must be finite")
    if np.any(t < 0.0):
        raise InvalidParameterError("times must be non-negative")
    _require_exponent(rate, float(t.max(initial=0.0)) + tau)
    return t


@dataclass(frozen=True)
class RatePair:
    """Single-atom emission rates of the two channels (inverse time)."""

    gamma_a: float
    gamma_b: float

    def __post_init__(self):
        object.__setattr__(self, "gamma_a", _require_positive_rate("gamma_a", self.gamma_a))
        object.__setattr__(self, "gamma_b", _require_positive_rate("gamma_b", self.gamma_b))
        if not np.isfinite(self.gamma_a + self.gamma_b):
            raise InvalidParameterError(
                f"gamma_a + gamma_b overflows: {self.gamma_a!r} + {self.gamma_b!r}")

    @property
    def gamma_f(self) -> float:
        """Combined rate of the pair's first emission."""
        return self.gamma_a + self.gamma_b

    def channel_rate(self, channel: str) -> float:
        if channel == CHANNEL_A:
            return self.gamma_a
        if channel == CHANNEL_B:
            return self.gamma_b
        raise InvalidParameterError(f"channel must be one of {CHANNELS}, got {channel!r}")


@dataclass(frozen=True)
class WindowConfig:
    """Coincidence-window width and the post-selection rule applied to it.

    ``grid-bin`` discards a pair when both photon times fall into the
    same bin of a fixed grid of width tau; ``pairwise`` discards when
    the two times differ by less than tau.
    """

    tau: float
    mode: str = MODE_GRID_BIN

    def __post_init__(self):
        tau = float(self.tau)
        if not np.isfinite(tau) or tau <= 0.0:
            raise InvalidParameterError(f"tau must be a positive finite width, got {tau!r}")
        object.__setattr__(self, "tau", tau)
        if self.mode not in WINDOW_MODES:
            raise InvalidParameterError(f"mode must be one of {WINDOW_MODES}, got {self.mode!r}")


def solve_compatibility(rates: RatePair) -> tuple[float, float, float]:
    """Solve for the channel rates and combined first-emission rate.

    Unknowns (c_a, c_b, g_f) satisfy the four consistency relations
    obtained by matching the time-ordered emission bookkeeping against
    the direct per-channel laws:

        (1) c_b = g_f - gamma_a      (3) c_a = gamma_a * c_b / (g_f - gamma_a)
        (2) c_a = g_f - gamma_b      (4) c_b = gamma_b * c_a / (g_f - gamma_b)

    (1) into (3) gives c_a = gamma_a, (2) into (4) gives c_b = gamma_b,
    and then (1) gives g_f = gamma_a + gamma_b.  The solution is checked
    against all four relations, so the identification is verified, not
    assumed: RuntimeError if a residual exceeds 1e-12 * (gamma_a + gamma_b).
    Returns (channel_a_rate, channel_b_rate, combined_rate).
    """
    big_a, big_b = rates.gamma_a, rates.gamma_b
    c_a, c_b = big_a, big_b  # (3) with (1): gamma_a c_b / c_b; (4) with (2)
    g_f = big_a + c_b        # (1)
    residual = max(abs(c_b - (g_f - big_a)),
                   abs(c_a - (g_f - big_b)),
                   abs(c_a - big_a * c_b / (g_f - big_a)),
                   abs(c_b - big_b * c_a / (g_f - big_b)))
    if not residual <= 1e-12 * (big_a + big_b):
        raise RuntimeError(
            f"compatibility relations fail for rates {rates}: residual={residual:.3e}")
    return c_a, c_b, g_f


def first_emission_cdf_entangled(t, rates: RatePair):
    """Cumulative first-photon fraction for entangled pairs: one atom's law at gamma_f."""
    return single_type_cdf(t, rates.gamma_f)


def single_type_cdf(t, gamma_i: float):
    """Cumulative emission fraction of an isolated atom with rate gamma_i."""
    gamma_i = _require_positive_rate("gamma_i", gamma_i)
    t = _check_times(t, gamma_i)
    return -np.expm1(-gamma_i * t)


def intermediate_population(t, rates: RatePair, channel: str):
    """Fraction of pairs that emitted first in the *other* channel and
    whose remaining atom (the named channel) has not yet relaxed.

    n_i(t) = c_j / (g_i - g_f) * (exp(-g_f t) - exp(-g_i t)) with the
    compatible channel rates; the denominator never vanishes because
    g_f = g_i + g_j > g_i for positive rates.
    """
    t = _check_times(t, rates.gamma_f)
    g_i = rates.channel_rate(channel)
    c_j = rates.gamma_b if channel == CHANNEL_A else rates.gamma_a
    g_f = rates.gamma_f
    return c_j / (g_i - g_f) * (np.exp(-g_f * t) - np.exp(-g_i * t))


def emission_derivative_ordered(t, rates: RatePair, channel: str):
    """dN_i/dt from the time-ordered bookkeeping.

    First emissions feed the channel at c_i * exp(-g_f t); pairs parked
    in the intermediate one-excited state drain into it at g_i * n_i.
    """
    t = _check_times(t, rates.gamma_f)
    g_i = rates.channel_rate(channel)
    c_i = g_i
    g_f = rates.gamma_f
    return c_i * np.exp(-g_f * t) + g_i * intermediate_population(t, rates, channel)


def emission_derivative_direct(t, gamma_i: float):
    """dN_i/dt if the channel simply decayed at its single-atom rate."""
    gamma_i = _require_positive_rate("gamma_i", gamma_i)
    t = _check_times(t, gamma_i)
    return gamma_i * np.exp(-gamma_i * t)


def window_prob_taylor(t, tau: float, gamma_i: float):
    """Narrow-window probability tau * g * exp(-g t) of catching the
    photon of one atom in the window centred at t.

    Emits ApproximationBreakdownWarning when the linearized value
    exceeds 1, which happens once tau * gamma_i > 1.
    """
    gamma_i = _require_positive_rate("gamma_i", gamma_i)
    tau = WindowConfig(tau=tau).tau
    t = _check_times(t, gamma_i)
    p = tau * gamma_i * np.exp(-gamma_i * t)
    if np.any(p > 1.0):
        warnings.warn(
            f"window probability {float(np.max(p)):.4g} > 1 at tau={tau}, "
            f"gamma={gamma_i}; narrow-window form is breaking down",
            ApproximationBreakdownWarning, stacklevel=2)
    return p


def product_one_emission_unnormalized(t, rates: RatePair, window: WindowConfig):
    """Unnormalized narrow-window probability of exactly one photon in
    the window at t.

    p_a + p_b - 2 p_a p_b: either photon alone minus the double-count
    correction; windows holding both photons are the post-selection
    discards.  Probabilities of the two distinguishable channels add;
    there is no amplitude-level interference between them.
    """
    p_a = window_prob_taylor(t, window.tau, rates.gamma_a)
    p_b = window_prob_taylor(t, window.tau, rates.gamma_b)
    return p_a + p_b - 2.0 * p_a * p_b


def normalization_alpha(rates: RatePair, window: WindowConfig) -> float:
    """Normalization alpha of the ``taylor`` window law.

    1/alpha = 2 - 2 * tau * gamma_a * gamma_b / gamma_f.  Raises
    WindowTooWideError once the window is wide enough that the inverse
    normalization is not positive.
    """
    load = window.tau * rates.gamma_a * rates.gamma_b / rates.gamma_f
    if load >= 1.0:
        raise WindowTooWideError(
            "window too wide: tau * gamma_a * gamma_b must stay below "
            f"gamma_a + gamma_b (tau={window.tau}, rates=({rates.gamma_a}, "
            f"{rates.gamma_b}), ratio={load:.6g})")
    return float(1.0 / (2.0 - 2.0 * load))


def _require_bin_index(latest: float, tau: float) -> None:
    """InvalidParameterError unless times up to ``latest`` have a grid-bin
    index t / tau in the float range."""
    if not math.isfinite(latest / tau):
        raise InvalidParameterError(
            f"the grid-bin window tau={tau!r} is too narrow for times up to "
            f"{latest:.6g}: their bin index t / tau overflows")


def _require_exponent(rate: float, latest: float) -> None:
    """InvalidParameterError unless the exponent rate * t stays in the
    float range for times up to ``latest``, so numpy never overflows
    forming it."""
    if not math.isfinite(rate * latest):
        raise InvalidParameterError(
            f"rate {rate!r} is too large for a time span of {latest:.6g}: "
            "the exponent rate * t overflows")


def _bin_index(t, tau: float):
    """floor(t / tau), the grid bin of each time, once ``_require_bin_index``
    has checked that the largest stays in the float range."""
    _require_bin_index(float(t.max(initial=0.0)), tau)
    return np.floor(t / tau)


def _unshared(t, g: float, window: WindowConfig, bins):
    """1 - P(t): probability that a photon of rate g misses the window
    of a photon at t; ``bins`` is ``_bin_index(t, tau)`` in grid-bin mode."""
    tau = window.tau
    if window.mode == MODE_GRID_BIN:
        return 1.0 + np.expm1(-g * tau) * np.exp(-g * tau * bins)
    return -np.expm1(-g * np.maximum(t - tau, 0.0)) + np.exp(-g * (t + tau))


def _unshared_cumulative(t, g_a: float, g_b: float, window: WindowConfig):
    """H_ab(t): integral over [0, t] of g_a e^{-g_a s} (1 - P_b(s)) ds.

    grid-bin sums the earlier bins as a geometric series; pairwise
    splits at t = tau and keeps every exponent negative.
    """
    tau, g_f = window.tau, g_a + g_b
    if window.mode == MODE_GRID_BIN:
        k_tau = tau * _bin_index(t, tau)
        q_a, q_b, q_f = (-np.expm1(-g * tau) for g in (g_a, g_b, g_f))
        earlier = q_a * -np.expm1(-g_f * k_tau) / q_f
        current = np.exp(-g_f * k_tau) * -np.expm1(-g_a * (t - k_tau))
        return -np.expm1(-g_a * t) - q_b * (earlier + current)
    r_a = g_a / g_f
    u = np.maximum(t - tau, 0.0)
    return (r_a * np.exp(-g_b * tau) * -np.expm1(-g_f * np.minimum(t, tau))
            + np.exp(-g_a * tau) * (-np.expm1(-g_a * u)
                                    - r_a * np.expm1(-2.0 * g_b * tau) * np.expm1(-g_f * u)))


def _kept_fraction(rates: RatePair, window: WindowConfig) -> float:
    """1 - c, the kept fraction of pairs.  The exact law divides sums of
    order one by it, so its rounding error grows like 1e-16 / (1 - c)
    (2e-8 at 2e-9, against 60-digit arithmetic) and is NaN at 0."""
    kept = 1.0 - coincidence_probability(rates, window)
    if not kept >= MIN_KEPT_FRACTION:
        raise InvalidParameterError(
            f"the {window.mode} window of width tau={window.tau} keeps a fraction "
            f"{kept:.3g} of the pairs, below {MIN_KEPT_FRACTION:g}: the exact law "
            "is lost to rounding")
    return kept


def product_first_pdf(t, rates: RatePair, window: WindowConfig):
    """Density of the photons that post-selection keeps, product pairs:
    the ``exact`` law [g_a e^{-g_a t} (1 - P_b(t)) + g_b e^{-g_b t}
    (1 - P_a(t))] / (2 (1 - c)) for ``window.mode`` (module docstring)."""
    t = _check_times(t, rates.gamma_f, window.tau)
    g_a, g_b = rates.gamma_a, rates.gamma_b
    kept = 2.0 * _kept_fraction(rates, window)
    bins = _bin_index(t, window.tau) if window.mode == MODE_GRID_BIN else None
    return (g_a * np.exp(-g_a * t) * _unshared(t, g_b, window, bins)
            + g_b * np.exp(-g_b * t) * _unshared(t, g_a, window, bins)) / kept


def product_first_cdf(t, rates: RatePair, window: WindowConfig,
                      variant: str = VARIANT_TAYLOR):
    """CDF of post-selected single-photon window times, product pairs: the
    taylor law (WindowTooWideError once 2 tau g_a g_b > g_a + g_b, where
    it stops increasing) or the integral of ``product_first_pdf``,
    (H_ab + H_ba) / (2 (1 - c)), clipped to [0, 1] against rounding."""
    t = _check_times(t, rates.gamma_f, window.tau)
    g_a, g_b = rates.gamma_a, rates.gamma_b
    if variant == VARIANT_TAYLOR:
        g_f = rates.gamma_f
        # the slope at t = 0 is alpha (g_f - 2 tau g_a g_b): past this the
        # curve falls below 0, though alpha exists up to twice the tau
        if 2.0 * window.tau * g_a * g_b > g_f:
            raise WindowTooWideError(
                "window too wide for the taylor law: 2 * tau * gamma_a * gamma_b "
                f"must not exceed gamma_a + gamma_b (tau={window.tau}, "
                f"rates=({g_a}, {g_b})); its CDF would decrease from t = 0")
        alpha = normalization_alpha(rates, window)
        return alpha * (-np.expm1(-g_a * t) - np.expm1(-g_b * t)
                        + 2.0 * window.tau * g_a * g_b / g_f * np.expm1(-g_f * t))
    if variant == VARIANT_EXACT:
        kept = 2.0 * _kept_fraction(rates, window)
        cdf = np.clip((_unshared_cumulative(t, g_a, g_b, window)
                       + _unshared_cumulative(t, g_b, g_a, window)) / kept, 0.0, 1.0)
        # rounding can step the sum back by a few ulp between close times
        # (where floor(t / tau) changes, in grid-bin mode): the running
        # maximum in time order keeps the CDF non-decreasing
        flat = cdf.reshape(-1)
        order = np.argsort(t, axis=None, kind="stable")
        flat[order] = np.maximum.accumulate(flat[order])
        return flat.reshape(cdf.shape)[()]
    raise InvalidParameterError(f"variant must be one of {WINDOW_VARIANTS}, got {variant!r}")


def coincidence_probability(rates: RatePair, window: WindowConfig) -> float:
    """Probability that an independent pair is discarded by post-selection.

    grid-bin:  both photons in one bin of a fixed grid of width tau,
               (1-e^{-g_a tau})(1-e^{-g_b tau}) / (1-e^{-(g_a+g_b) tau})
    pairwise:  photon times closer than tau,
               1 - (g_b e^{-g_a tau} + g_a e^{-g_b tau}) / (g_a + g_b)
    """
    g_a, g_b, tau = rates.gamma_a, rates.gamma_b, window.tau
    if window.mode == MODE_GRID_BIN:
        num = np.expm1(-g_a * tau) * np.expm1(-g_b * tau)
        den = -np.expm1(-(g_a + g_b) * tau)
        return float(num / den)
    return float(1.0 - (g_b * np.exp(-g_a * tau) + g_a * np.exp(-g_b * tau)) / (g_a + g_b))
