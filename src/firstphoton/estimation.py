"""Inference on first-photon time samples.

Exponential maximum likelihood, Kolmogorov-Smirnov distances against an
arbitrary model CDF, and likelihood-based discrimination between the
entangled law (single exponential at the combined rate) and the
post-selected product law.  The product side scores the ``exact``
density of the kept photons for the window's mode
(``analytic.product_first_pdf``), which holds for any window that
keeps pairs; the narrow-window ``taylor`` law is never scored.  The
discrimination uses known parameters on both sides; nothing is fitted
before comparing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .analytic import RatePair, WindowConfig
from .errors import InvalidDataError, ModelInapplicableError
from .series import CHUNK_ROWS


@dataclass(frozen=True)
class FitResult:
    rate_estimate: float
    std_error: float
    log_likelihood: float
    n_samples: int


@dataclass(frozen=True)
class ModelComparison:
    ll_entangled: float
    ll_product: float
    log_likelihood_ratio: float
    preferred: str


def _clean_times(times, *, require_positive: bool = True) -> np.ndarray:
    t = np.asarray(times, dtype=float).ravel()
    if t.size == 0:
        raise InvalidDataError("no samples provided")
    if not np.all(np.isfinite(t)):
        raise InvalidDataError("samples must be finite")
    if require_positive and np.any(t <= 0.0):
        raise InvalidDataError("samples must be strictly positive waiting times")
    return t


def _time_sum(t: np.ndarray) -> float:
    """The sum of the times; InvalidDataError where it leaves the float range."""
    with np.errstate(over="ignore"):
        total = float(np.sum(t))
    if not math.isfinite(total):
        raise InvalidDataError("the sum of the samples overflows the float range")
    return total


def mle_exponential(times) -> FitResult:
    """Exponential maximum likelihood: rate = 1 / mean.

    The asymptotic standard error is rate / sqrt(n) and the attained
    log-likelihood reduces to n * (log(rate) - 1).  A rate that leaves
    the float range (a mean of subnormal times) is an InvalidDataError.
    """
    t = _clean_times(times)
    n = t.size
    total = _time_sum(t)
    rate = 1.0 / (total / n)
    if not math.isfinite(rate):
        raise InvalidDataError(f"the rate 1 / mean overflows at a mean of {total / n:.6g}")
    log_likelihood = n * math.log(rate) - rate * total
    return FitResult(rate_estimate=rate,
                     std_error=rate / math.sqrt(n),
                     log_likelihood=log_likelihood,
                     n_samples=int(n))


def ks_distance(times, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov statistic against a model CDF.

    ``cdf`` must be a vectorized callable mapping times to [0, 1].
    """
    t = np.sort(_clean_times(times, require_positive=False))
    f = np.asarray(cdf(t), dtype=float)
    if f.shape != t.shape:
        raise InvalidDataError("model cdf must return one value per sample")
    n = t.size
    steps = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(steps - f, f - (steps - 1.0 / n))))


def ks_critical_value(n_samples: int, significance: float = 0.01) -> float:
    """Asymptotic two-sided KS acceptance threshold at the given level."""
    if n_samples < 1:
        raise InvalidDataError("need at least one sample")
    if not 0.0 < significance < 1.0:
        raise InvalidDataError(f"significance must lie in (0, 1), got {significance!r}")
    return math.sqrt(-0.5 * math.log(significance / 2.0)) / math.sqrt(n_samples)


def log_likelihood_entangled(times, rates: RatePair) -> float:
    """Log-likelihood of the single-exponential first-photon law."""
    return _ll_entangled(_clean_times(times, require_positive=False), rates)


def _ll_entangled(t: np.ndarray, rates: RatePair) -> float:
    g_f = rates.gamma_f
    total = _time_sum(t)
    analytic._require_exponent(g_f, total)
    return float(t.size * math.log(g_f) - g_f * total)


def log_likelihood_product(times, rates: RatePair, window: WindowConfig) -> float:
    """Log-likelihood under the exact law of the kept photons of product
    pairs, ``analytic.product_first_pdf``.

    Raises ModelInapplicableError, naming the first such sample, where
    the density underflows to 0, as it does once g * t passes about 745
    for both rates.

    The density is evaluated ``series.CHUNK_ROWS`` samples at a time, the
    chunk that sampling and post-selection use, into one buffer of logs,
    which is summed once, so the result has the bits of
    ``np.sum(np.log(pdf))`` over all samples at once.
    """
    return _ll_product(_clean_times(times, require_positive=False), rates, window)


def _ll_product(t: np.ndarray, rates: RatePair, window: WindowConfig) -> float:
    logs = np.empty_like(t)
    for start in range(0, t.size, CHUNK_ROWS):
        block = t[start:start + CHUNK_ROWS]
        pdf = analytic.product_first_pdf(block, rates, window)
        k = int(np.argmin(pdf))
        if not pdf[k] > 0.0:
            raise ModelInapplicableError(
                f"window density underflows to 0 at t={block[k]:.6g} for tau="
                f"{window.tau}, rates=({rates.gamma_a}, "
                f"{rates.gamma_b}); likelihood undefined")
        np.log(pdf, out=logs[start:start + CHUNK_ROWS])
    return float(np.sum(logs))


def discriminate(times, rates: RatePair, window: WindowConfig) -> ModelComparison:
    """Decide which known-parameter emission law explains the samples.

    Positive log_likelihood_ratio means the entangled single-exponential
    law wins; ties go to the entangled law.
    """
    # the cores take the times checked once here
    t = _clean_times(times)
    ll_e = _ll_entangled(t, rates)
    ll_p = _ll_product(t, rates, window)
    ratio = ll_e - ll_p
    preferred = analytic.KIND_ENTANGLED if ratio >= 0.0 else analytic.KIND_PRODUCT
    return ModelComparison(ll_entangled=ll_e, ll_product=ll_p,
                           log_likelihood_ratio=float(ratio), preferred=preferred)
