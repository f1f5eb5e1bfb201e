"""Monte Carlo sampling of two-photon emission times with post-selection.

Sampling is counter-based: every pair owns one 256-bit Philox counter
block (four 64-bit words), addressed by its pair index.  Uniform draws
come from the top 53 bits of each word, shifted into the open interval
(0, 1) so that log() never sees zero:

    u = ((word >> 11) + 0.5) * 2**-53

Work is split into chunks of a fixed size laid out on the pair-index
grid, and chunk results are concatenated in index order, so the output
is byte-identical for any worker count.  The scalar samplers draw one
counter block from a Generator and run it through the same kernel and
record fill as a bulk chunk, so sampling pair p with a Generator
advanced to block p reproduces row p of a bulk run.

A record stores t_first, channel_first and t_second.  The CSV written
by ``write_records_csv`` adds pair_id (the row index) and
channel_second (the other channel), which follow from those.

Post-selection emulates coincidence hardware: ``grid-bin`` discards a
pair when both photons fall into the same bin of a fixed grid of width
tau, ``pairwise`` discards when the two arrival times are closer than
tau.  Kept pairs contribute both of their photons to the post-selected
single-photon time ensemble (each lands in its own window and is a
legitimate lone detection there).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import (CHANNEL_A, CHANNEL_B, MODE_GRID_BIN, RatePair,
                       WindowConfig)
from .errors import InvalidDataError, InvalidParameterError
from .series import BinnedSeries, read_columns, write_table

KIND_ENTANGLED = "entangled"
KIND_PRODUCT = "product"
PAIR_KINDS = (KIND_ENTANGLED, KIND_PRODUCT)

DRAWS_PER_PAIR = 4          # one Philox counter block per pair
CHUNK_PAIRS = 1 << 16       # fixed so results do not depend on worker count

RECORD_DTYPE = np.dtype([
    ("t_first", np.float64),
    ("channel_first", "U1"),
    ("t_second", np.float64),
])

RECORD_COLUMNS = ["pair_id", "t_first", "channel_first", "t_second", "channel_second"]


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one simulation run."""

    n_pairs: int
    rates: RatePair
    kind: str
    window: WindowConfig
    seed: int

    def __post_init__(self):
        if not isinstance(self.n_pairs, (int, np.integer)) or self.n_pairs < 1:
            raise InvalidParameterError(f"n_pairs must be a positive integer, got {self.n_pairs!r}")
        if self.kind not in PAIR_KINDS:
            raise InvalidParameterError(f"kind must be one of {PAIR_KINDS}, got {self.kind!r}")
        if not isinstance(self.seed, (int, np.integer)):
            raise InvalidParameterError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class PostSelectionSummary:
    kept: int
    discarded: int
    empirical_coincidence_rate: float


def _open_uniforms(words: np.ndarray) -> np.ndarray:
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _philox(seed: int, pair_index: int) -> np.random.Philox:
    bitgen = np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    if pair_index:
        bitgen.advance(pair_index)     # one advance unit == one 4-word block
    return bitgen


def _block_words(seed: int, start_pair: int, count: int) -> np.ndarray:
    return _philox(seed, start_pair).random_raw((count, DRAWS_PER_PAIR))


def pair_generator(seed: int, pair_index: int = 0) -> np.random.Generator:
    """Generator positioned on the counter block of the given pair."""
    return np.random.Generator(_philox(seed, pair_index))


def _entangled_times(rates: RatePair, u: np.ndarray):
    g_f = rates.gamma_f
    t_first = -np.log(u[:, 0]) / g_f
    first_is_a = u[:, 1] < rates.gamma_a / g_f
    rate_left = np.where(first_is_a, rates.gamma_b, rates.gamma_a)
    t_second = t_first - np.log(u[:, 2]) / rate_left
    return t_first, first_is_a, t_second


def _product_times(rates: RatePair, u: np.ndarray):
    t_a = -np.log(u[:, 0]) / rates.gamma_a
    t_b = -np.log(u[:, 1]) / rates.gamma_b
    first_is_a = t_a <= t_b
    t_first = np.where(first_is_a, t_a, t_b)
    t_second = np.where(first_is_a, t_b, t_a)
    return t_first, first_is_a, t_second


_KERNELS = {KIND_ENTANGLED: _entangled_times, KIND_PRODUCT: _product_times}


def _records(kind: str, rates: RatePair, words: np.ndarray) -> np.ndarray:
    """Records of the pairs that own the given (n, 4) counter blocks."""
    t_first, first_is_a, t_second = _KERNELS[kind](rates, _open_uniforms(words))
    out = np.empty(t_first.shape[0], dtype=RECORD_DTYPE)
    out["t_first"] = t_first
    out["channel_first"] = np.where(first_is_a, CHANNEL_A, CHANNEL_B)
    out["t_second"] = t_second
    return out


def simulate(config: SimConfig, n_workers: int = 1) -> np.ndarray:
    """Sample every pair's two photons; returns a structured array.

    The result depends only on (n_pairs, rates, kind, seed): the chunk
    grid is fixed, so any n_workers >= 1 yields identical bytes.
    """
    if not isinstance(n_workers, (int, np.integer)) or n_workers < 1:
        raise InvalidParameterError(f"n_workers must be a positive integer, got {n_workers!r}")

    def run_chunk(start: int) -> np.ndarray:
        count = min(CHUNK_PAIRS, config.n_pairs - start)
        return _records(config.kind, config.rates,
                        _block_words(config.seed, start, count))

    starts = range(0, config.n_pairs, CHUNK_PAIRS)
    if n_workers == 1:
        chunks = [run_chunk(s) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=int(n_workers)) as pool:
            chunks = list(pool.map(run_chunk, starts))
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def sample_entangled_pair(rates: RatePair, rng: np.random.Generator) -> np.void:
    """One entangled pair as a record row: exponential first photon at the
    combined rate, channel chosen with probability gamma_i / gamma_f,
    then the leftover atom relaxes at its own rate."""
    return _records(KIND_ENTANGLED, rates,
                    rng.bit_generator.random_raw((1, DRAWS_PER_PAIR)))[0]


def sample_product_pair(rates: RatePair, rng: np.random.Generator) -> np.void:
    """One product-state pair as a record row: the atoms emit
    independently and the two times are sorted into (t_first, t_second)."""
    return _records(KIND_PRODUCT, rates,
                    rng.bit_generator.random_raw((1, DRAWS_PER_PAIR)))[0]


def postselect(records: np.ndarray, window: WindowConfig):
    """Drop pairs whose photons the window hardware cannot separate.

    Returns (kept_records, PostSelectionSummary).  Boundary convention
    of ``grid-bin`` follows from the bin index floor(t / tau): a photon
    exactly on a bin edge belongs to the later bin.  ``pairwise`` keeps
    a pair when t_second - t_first >= tau.
    """
    t_first = np.asarray(records["t_first"], dtype=float)
    t_second = np.asarray(records["t_second"], dtype=float)
    if window.mode == MODE_GRID_BIN:
        keep = np.floor(t_first / window.tau) != np.floor(t_second / window.tau)
    else:
        keep = (t_second - t_first) >= window.tau
    kept = records[keep]
    n = int(records.shape[0])
    discarded = n - int(kept.shape[0])
    rate = discarded / n if n else 0.0
    return kept, PostSelectionSummary(kept=int(kept.shape[0]),
                                      discarded=discarded,
                                      empirical_coincidence_rate=float(rate))


def one_photon_window_times(records: np.ndarray) -> np.ndarray:
    """Single-photon detection times contributed by the given pairs.

    Each pair that survives post-selection is seen by the hardware as
    two isolated one-photon windows, so both arrival times enter the
    post-selected time ensemble.
    """
    return np.concatenate([np.asarray(records["t_first"], dtype=float),
                           np.asarray(records["t_second"], dtype=float)])


def empirical_cdf(times: np.ndarray, grid: np.ndarray) -> BinnedSeries:
    """Fraction of samples at or below each grid point."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise InvalidDataError("cannot build an empirical CDF from zero samples")
    grid = np.asarray(grid, dtype=float)
    ranks = np.searchsorted(np.sort(times), grid, side="right")
    return BinnedSeries(times=grid, values=ranks / times.size, label="ecdf")


def empirical_first_cdf(records: np.ndarray, grid: np.ndarray) -> BinnedSeries:
    """Empirical CDF of the first-photon times t_first."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        return BinnedSeries(times=grid, values=np.empty(0), label="ecdf")
    return empirical_cdf(np.asarray(records["t_first"], dtype=float), grid)


def channel_fractions(records: np.ndarray) -> dict[str, float]:
    """Fraction of first photons observed in each channel; labels other
    than A and B, as in ``read_records_csv`` output, raise InvalidDataError."""
    n = int(records.shape[0])
    if n == 0:
        return {CHANNEL_A: 0.0, CHANNEL_B: 0.0}
    first = records["channel_first"]
    is_a = first == CHANNEL_A
    if not np.all(is_a | (first == CHANNEL_B)):
        raise InvalidDataError("channel_first holds labels other than A and B")
    frac_a = float(np.mean(is_a))
    return {CHANNEL_A: frac_a, CHANNEL_B: 1.0 - frac_a}


def write_records_csv(path, records: np.ndarray) -> None:
    """Write records as CSV with the columns of ``RECORD_COLUMNS``.

    pair_id is the row index and channel_second the channel that the
    first photon did not use.
    """
    first = records["channel_first"]
    write_table(path, RECORD_COLUMNS, [
        np.arange(records.shape[0], dtype=np.int64),
        records["t_first"],
        first,
        records["t_second"],
        np.where(first == CHANNEL_A, CHANNEL_B, CHANNEL_A),
    ])


def read_records_csv(path) -> np.ndarray:
    """Load t_first and t_second of a records file; channel_first is left
    empty, so the result serves time statistics but not channel_fractions."""
    cols = read_columns(path, ["t_first", "t_second"])
    out = np.zeros(cols["t_first"].size, dtype=RECORD_DTYPE)
    out["t_first"] = cols["t_first"]
    out["t_second"] = cols["t_second"]
    if np.any(out["t_first"] < 0.0) or np.any(out["t_second"] < out["t_first"]):
        raise InvalidDataError(f"{path}: records must satisfy 0 <= t_first <= t_second")
    return out
