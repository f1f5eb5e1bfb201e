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
direct per-channel laws fixes the channel rates uniquely: c_a = gamma_a,
c_b = gamma_b and gamma_f = gamma_a + gamma_b.  ``solve_compatibility``
derives that by elimination and states it once for the time-ordered
laws here, the ``kinetics`` rate equations and the entangled sampler.

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

``curve_table`` tabulates the five curves of ``CURVE_COLUMNS`` for the
CLI's ``analytic`` and the decay-curves script.  It and every layer
that allocates an array sized by a parameter first call
``_require_array_size``: ``kinetics.integrate`` for its trajectory, a
``wavefunction.Grid1D`` for its n x n amplitude, and a
``montecarlo.SimConfig``, when it is built, for the records
``montecarlo.simulate`` makes of it.  The check refuses an array
larger than physical memory or the cgroup memory limit (v2
``memory.max``, else v1 ``memory.limit_in_bytes``, read once per
process) with an InvalidParameterError naming the parameter.
"""
from __future__ import annotations

import contextlib
import functools
import math
import os
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

CURVE_COLUMNS = ("t", "nf_entangled", "nf_product", "n_a", "n_b")

# the memory limit of the process's cgroup: v2, then v1
_CGROUP_MEMORY_FILES = ("/sys/fs/cgroup/memory.max",
                        "/sys/fs/cgroup/memory/memory.limit_in_bytes")


class ApproximationBreakdownWarning(UserWarning):
    """A narrow-window probability left [0, 1]; the linearized window
    law is not trustworthy at these parameters."""


def _require_rate(name: str, value: float) -> float:
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
        object.__setattr__(self, "gamma_a", _require_rate("gamma_a", self.gamma_a))
        object.__setattr__(self, "gamma_b", _require_rate("gamma_b", self.gamma_b))
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
    """The channel rates and combined first-emission rate.

    Unknowns (c_a, c_b, g_f) satisfy the four consistency relations
    obtained by matching the time-ordered emission bookkeeping against
    the direct per-channel laws:

        (1) c_b = g_f - gamma_a      (3) c_a = gamma_a * c_b / (g_f - gamma_a)
        (2) c_a = g_f - gamma_b      (4) c_b = gamma_b * c_a / (g_f - gamma_b)

    (1) into (3) gives c_a = gamma_a, (2) into (4) gives c_b = gamma_b,
    and then (1) gives g_f = gamma_a + gamma_b, which satisfies all four
    exactly.  Returns (channel_a_rate, channel_b_rate, combined_rate);
    every law that uses the identification reads it here.
    """
    return rates.gamma_a, rates.gamma_b, rates.gamma_f


def first_emission_cdf_entangled(t, rates: RatePair):
    """Cumulative first-photon fraction for entangled pairs: one atom's law at gamma_f."""
    return single_type_cdf(t, rates.gamma_f)


def single_type_cdf(t, gamma_i: float):
    """Cumulative emission fraction of an isolated atom with rate gamma_i."""
    gamma_i = _require_rate("gamma_i", gamma_i)
    t = _check_times(t, gamma_i)
    return -np.expm1(-gamma_i * t)


def intermediate_population(t, rates: RatePair, channel: str):
    """Fraction of pairs that emitted first in the *other* channel and
    whose remaining atom (the named channel) has not yet relaxed.

    n_i(t) = c_j / (g_i - g_f) * (exp(-g_f t) - exp(-g_i t)) with the
    compatible channel rates of ``solve_compatibility``.  In exact
    arithmetic g_i - g_f = -g_j < 0, but in floats g_f = g_i + g_j
    rounds to g_i once g_j < ulp(g_i) / 2: InvalidParameterError then.
    """
    t = _check_times(t, rates.gamma_f)
    g_i = rates.channel_rate(channel)
    c_a, c_b, g_f = solve_compatibility(rates)
    c_j = c_b if channel == CHANNEL_A else c_a
    if g_i == g_f:
        raise InvalidParameterError(
            f"rates ({rates.gamma_a!r}, {rates.gamma_b!r}) are too far apart: "
            f"gamma_a + gamma_b rounds to the channel {channel} rate {g_i!r}, "
            "so its intermediate population divides by zero")
    return c_j / (g_i - g_f) * (np.exp(-g_f * t) - np.exp(-g_i * t))


def emission_derivative_ordered(t, rates: RatePair, channel: str):
    """dN_i/dt from the time-ordered bookkeeping.

    First emissions feed the channel at c_i * exp(-g_f t), with the
    compatible channel rates of ``solve_compatibility``; pairs parked
    in the intermediate one-excited state drain into it at g_i * n_i.
    """
    t = _check_times(t, rates.gamma_f)
    g_i = rates.channel_rate(channel)
    c_a, c_b, g_f = solve_compatibility(rates)
    c_i = c_a if channel == CHANNEL_A else c_b
    return c_i * np.exp(-g_f * t) + g_i * intermediate_population(t, rates, channel)


def emission_derivative_direct(t, gamma_i: float):
    """dN_i/dt if the channel simply decayed at its single-atom rate."""
    gamma_i = _require_rate("gamma_i", gamma_i)
    t = _check_times(t, gamma_i)
    return gamma_i * np.exp(-gamma_i * t)


def window_prob_taylor(t, tau: float, gamma_i: float):
    """Narrow-window probability tau * g * exp(-g t) of catching the
    photon of one atom in the window centred at t.

    Emits ApproximationBreakdownWarning when the linearized value
    exceeds 1, which happens once tau * gamma_i > 1.
    """
    gamma_i = _require_rate("gamma_i", gamma_i)
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


@functools.cache
def _cgroup_memory_limit() -> float:
    """Bytes of the first cgroup memory limit file that can be read, read
    once per process; inf where it says ``max`` or none can be read."""
    for path in _CGROUP_MEMORY_FILES:
        with contextlib.suppress(OSError), open(path) as fh:
            text = fh.read().strip()
            return int(text) if text.isdecimal() else math.inf
    return math.inf


def _require_array_size(name: str, n_items: int, itemsize: int) -> None:
    """InvalidParameterError naming ``name``, before anything is allocated,
    when n_items items of ``itemsize`` bytes exceed physical memory or the
    cgroup's memory limit; past numpy's largest array numpy would raise a
    bare ValueError."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    bound = min(physical, _cgroup_memory_limit())
    if int(n_items) * int(itemsize) > bound:
        where = "of physical memory" if bound == physical else "the cgroup memory limit allows"
        raise InvalidParameterError(
            f"{name} asks for an array larger than the {bound / 2**30:.3g} GiB {where}")


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


def curve_table(rates: RatePair, window: WindowConfig, t_max: float, n_points: int,
                variant: str) -> dict[str, np.ndarray]:
    """The closed-form curves on n_points times from 0 to t_max, by
    ``CURVE_COLUMNS`` name: the entangled first-photon CDF, the product
    window law's ``variant``, and each atom's own CDF."""
    if not isinstance(n_points, (int, np.integer)) or n_points < 2:
        raise InvalidParameterError(f"n_points must be an integer of at least 2, got {n_points!r}")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise InvalidParameterError(f"t_max must be positive and finite, got {t_max!r}")
    _require_array_size(f"n_points = {n_points}", n_points, 8 * len(CURVE_COLUMNS))
    t = np.linspace(0.0, t_max, n_points)
    return dict(zip(CURVE_COLUMNS, (
        t, first_emission_cdf_entangled(t, rates), product_first_cdf(t, rates, window, variant),
        single_type_cdf(t, rates.gamma_a), single_type_cdf(t, rates.gamma_b))))
