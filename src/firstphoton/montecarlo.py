"""Monte Carlo sampling of two-photon emission times with post-selection.

Sampling is counter-based: every pair owns one 256-bit Philox counter
block (four 64-bit words), addressed by its pair index.  A kernel turns
the words it reads (entangled three, product two) into uniform draws
from their top 53 bits, shifted into the open interval (0, 1) so that
log() never sees zero:

    u = ((word >> 11) + 0.5) * 2**-53

Work is split into chunks of a fixed size laid out on the pair-index
grid, and each chunk fills its own slice of one preallocated record
array in turn, in the calling thread.  Row p reads counter block p
whatever chunk it falls in, so a shorter run is a prefix of a longer one.

A record stores t_first, channel_first and t_second.  The CSV written
by ``write_records_csv`` adds pair_id (the row index) and
channel_second (the other channel), which follow from those.
``write_records_csv`` renders the text in up to n_workers forked
processes; the count changes no byte.  The module starts no thread,
so those forks never copy a thread in flight.

Post-selection emulates coincidence hardware: ``grid-bin`` discards a
pair when both photons fall into the same bin of a fixed grid of width
tau, ``pairwise`` discards when the two arrival times are closer than
tau.  ``keep_mask`` marks the pairs kept, ``postselect`` copies them
out and ``PostSelectionSummary.of_mask`` counts them without a copy.
Kept pairs contribute both of their photons to the post-selected
single-photon time ensemble (each lands in its own window and is a
legitimate lone detection there).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import (CHANNEL_A, CHANNEL_B, MODE_GRID_BIN, RatePair,
                       WindowConfig)
from .errors import InvalidDataError, InvalidParameterError
from .series import read_columns, render_processes, write_table

KIND_ENTANGLED = "entangled"
KIND_PRODUCT = "product"
PAIR_KINDS = (KIND_ENTANGLED, KIND_PRODUCT)

DRAWS_PER_PAIR = 4          # one Philox counter block per pair
CHUNK_PAIRS = 1 << 16       # pairs sampled per chunk

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

    @classmethod
    def of_mask(cls, keep: np.ndarray) -> "PostSelectionSummary":
        """Counts of a ``keep_mask``: one entry per sampled pair."""
        n = int(keep.size)
        kept = int(np.count_nonzero(keep))
        return cls(kept=kept, discarded=n - kept,
                   empirical_coincidence_rate=float((n - kept) / n if n else 0.0))


def _open_uniforms(words: np.ndarray) -> np.ndarray:
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _block_words(seed: int, start_pair: int, count: int) -> np.ndarray:
    """The counter blocks of pairs start_pair .. start_pair + count - 1."""
    bitgen = np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    if start_pair:
        bitgen.advance(start_pair)     # one advance unit == one 4-word block
    return bitgen.random_raw((count, DRAWS_PER_PAIR))


def _entangled_times(rates: RatePair, words: np.ndarray):
    g_f = rates.gamma_f
    t_first = -np.log(_open_uniforms(words[:, 0])) / g_f
    first_is_a = _open_uniforms(words[:, 1]) < rates.gamma_a / g_f
    rate_left = np.where(first_is_a, rates.gamma_b, rates.gamma_a)
    t_second = t_first - np.log(_open_uniforms(words[:, 2])) / rate_left
    return t_first, first_is_a, t_second


def _product_times(rates: RatePair, words: np.ndarray):
    t_a = -np.log(_open_uniforms(words[:, 0])) / rates.gamma_a
    t_b = -np.log(_open_uniforms(words[:, 1])) / rates.gamma_b
    first_is_a = t_a <= t_b
    t_first = np.where(first_is_a, t_a, t_b)
    t_second = np.where(first_is_a, t_b, t_a)
    return t_first, first_is_a, t_second


_KERNELS = {KIND_ENTANGLED: _entangled_times, KIND_PRODUCT: _product_times}


def _records(kind: str, rates: RatePair, words: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` with the records of the pairs that own the given
    (n, 4) counter blocks."""
    t_first, first_is_a, t_second = _KERNELS[kind](rates, words)
    out["t_first"] = t_first
    out["channel_first"] = np.where(first_is_a, CHANNEL_A, CHANNEL_B)
    out["t_second"] = t_second


def simulate(config: SimConfig, n_workers: int = 1) -> np.ndarray:
    """Sample every pair's two photons; returns a structured array.

    The result depends only on (n_pairs, rates, kind, seed).  Sampling
    runs chunk by chunk in the calling thread whatever n_workers is; the
    parameter is only validated, and goes once the benchmark's counters
    stop reading it (ROADMAP item 2).
    """
    if not isinstance(n_workers, (int, np.integer)) or n_workers < 1:
        raise InvalidParameterError(f"n_workers must be a positive integer, got {n_workers!r}")
    records = np.empty(config.n_pairs, dtype=RECORD_DTYPE)
    for start in range(0, config.n_pairs, CHUNK_PAIRS):
        stop = min(start + CHUNK_PAIRS, config.n_pairs)
        _records(config.kind, config.rates,
                 _block_words(config.seed, start, stop - start), records[start:stop])
    return records


def keep_mask(records: np.ndarray, window: WindowConfig) -> np.ndarray:
    """True for each pair whose photons the window hardware can separate.

    Boundary convention of ``grid-bin`` follows from the bin index
    floor(t / tau): a photon exactly on a bin edge belongs to the later
    bin.  ``pairwise`` keeps a pair when t_second - t_first >= tau.
    """
    t_first = np.asarray(records["t_first"], dtype=float)
    t_second = np.asarray(records["t_second"], dtype=float)
    if window.mode == MODE_GRID_BIN:
        return np.floor(t_first / window.tau) != np.floor(t_second / window.tau)
    return (t_second - t_first) >= window.tau


def postselect(records: np.ndarray, window: WindowConfig):
    """Drop pairs whose photons the window hardware cannot separate
    (``keep_mask``); returns (kept_records, PostSelectionSummary)."""
    keep = keep_mask(records, window)
    return records[keep], PostSelectionSummary.of_mask(keep)


def one_photon_window_times(records: np.ndarray) -> np.ndarray:
    """Single-photon detection times contributed by the given pairs.

    Each pair that survives post-selection is seen by the hardware as
    two isolated one-photon windows, so both arrival times enter the
    post-selected time ensemble.
    """
    return np.concatenate([np.asarray(records["t_first"], dtype=float),
                           np.asarray(records["t_second"], dtype=float)])


def empirical_cdf(times: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Fraction of samples at or below each grid point."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise InvalidDataError("cannot build an empirical CDF from zero samples")
    grid = np.asarray(grid, dtype=float)
    return np.searchsorted(np.sort(times), grid, side="right") / times.size


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


def write_records_csv(path, records: np.ndarray, n_workers: int = 1) -> None:
    """Write records as CSV with the columns of ``RECORD_COLUMNS``.

    pair_id is the row index and channel_second the channel that the
    first photon did not use.  The text is rendered in up to
    ``n_workers`` forked processes (see ``series.render_processes``);
    the file is the same for any count.
    """
    first = records["channel_first"]
    with render_processes(n_workers):
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
