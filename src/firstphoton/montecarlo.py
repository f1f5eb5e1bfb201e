"""Monte Carlo sampling of two-photon emission times with post-selection.

Sampling is counter-based: every pair owns one 256-bit Philox counter
block (four 64-bit words), addressed by its pair index.  A kernel turns
the words it reads (entangled three, product two) into uniform draws
from their top 53 bits, shifted into the open interval (0, 1) so that
log() never sees zero:

    u = ((word >> 11) + 0.5) * 2**-53

Work is split into ``series.CHUNK_ROWS``-pair chunks, which fill their
slices of one preallocated record array in turn, in the calling thread.
Row p reads counter block p whatever chunk it falls in, so a shorter
run is a prefix of a longer one.

A record stores t_first, first_is_a (the kernel's bool, one byte) and
t_second: 17 bytes.  ``write_records_csv`` is the one place that spells
the channels: its CSV has pair_id (the row index), t_first,
channel_first, t_second and channel_second, the letters following from
first_is_a as 1-byte ``S1`` labels.  It renders the text in up to
n_workers forked processes; the count changes no byte.
``read_records_csv`` gives back the table ``series.read_columns``
parses of the two time columns only, float64 fields t_first and
t_second, which is all that post-selection and the one-photon window
times read.

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

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (CHANNEL_A, CHANNEL_B, MODE_GRID_BIN, RatePair,
                       WindowConfig, _require_bin_index)
from .errors import InvalidDataError, InvalidParameterError
from .series import CHUNK_ROWS, processes, read_columns, write_table

KIND_ENTANGLED = "entangled"
KIND_PRODUCT = "product"
PAIR_KINDS = (KIND_ENTANGLED, KIND_PRODUCT)

DRAWS_PER_PAIR = 4          # one Philox counter block per pair
# -log of the smallest open uniform: the longest unit-rate wait drawn
_LONGEST_WAIT = -math.log(0.5 * 2.0 ** -53)

RECORD_DTYPE = np.dtype([
    ("t_first", np.float64),
    ("first_is_a", np.bool_),
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
        # the latest photon time either kernel can draw: the longest wait
        # at gamma_f, then the longest at the slower rate
        g_a, g_b = self.rates.gamma_a, self.rates.gamma_b
        latest = _LONGEST_WAIT / self.rates.gamma_f + _LONGEST_WAIT / min(g_a, g_b)
        if not math.isfinite(latest):
            raise InvalidParameterError(
                f"rates ({g_a!r}, {g_b!r}) are too small: their photon times "
                "overflow the float range")
        if self.window.mode == MODE_GRID_BIN:
            _require_bin_index(latest, self.window.tau)


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
    out["first_is_a"] = first_is_a
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
    for start in range(0, config.n_pairs, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, config.n_pairs)
        _records(config.kind, config.rates,
                 _block_words(config.seed, start, stop - start), records[start:stop])
    return records


def keep_mask(records: np.ndarray, window: WindowConfig) -> np.ndarray:
    """True for each pair whose photons the window hardware can separate.

    Boundary convention of ``grid-bin`` follows from the bin index
    floor(t / tau): a photon exactly on a bin edge belongs to the later
    bin.  ``pairwise`` keeps a pair when t_second - t_first >= tau.
    The mask is formed CHUNK_ROWS pairs at a time, so the temporaries
    stay one render chunk long.
    """
    t_first = np.asarray(records["t_first"], dtype=float)
    t_second = np.asarray(records["t_second"], dtype=float)
    tau = window.tau
    grid_bin = window.mode == MODE_GRID_BIN
    if grid_bin:
        # records hold t_first <= t_second, so the latest t_second decides
        _require_bin_index(float(t_second.max(initial=0.0)), tau)
    keep = np.empty(t_first.shape, dtype=bool)
    for start in range(0, keep.size, CHUNK_ROWS):
        first = t_first[start:start + CHUNK_ROWS]
        second = t_second[start:start + CHUNK_ROWS]
        out = keep[start:start + CHUNK_ROWS]
        if grid_bin:
            np.not_equal(np.floor(first / tau), np.floor(second / tau), out=out)
        else:
            np.greater_equal(second - first, tau, out=out)
    return keep


def postselect(records: np.ndarray, window: WindowConfig):
    """Drop pairs whose photons the window hardware cannot separate
    (``keep_mask``); returns (kept_records, PostSelectionSummary)."""
    keep = keep_mask(records, window)
    # a mask over the raw record bytes takes a third of the time of one
    # over the fields, and unlike np.compress builds no index array
    raw = records.view(np.dtype((np.void, records.dtype.itemsize)))
    return raw[keep].view(records.dtype), PostSelectionSummary.of_mask(keep)


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


def write_records_csv(path, records: np.ndarray, n_workers: int = 1) -> None:
    """Write records as CSV with the columns of ``RECORD_COLUMNS``.

    pair_id is the row index, channel_first the letter of first_is_a and
    channel_second the other letter.  The text is rendered in up to
    ``n_workers`` processes, this one and forked children (see
    ``series.processes``); the file is the same for any count.
    """
    n = records.shape[0]
    first_is_a = records["first_is_a"]
    a, b = np.array([CHANNEL_A, CHANNEL_B], dtype="S1")
    with processes(n_workers):
        write_table(path, RECORD_COLUMNS, [
            np.arange(n, dtype=np.min_scalar_type(n)),
            records["t_first"],
            np.where(first_is_a, a, b),
            records["t_second"],
            np.where(first_is_a, b, a),
        ])


def read_records_csv(path) -> np.ndarray:
    """Load a records file as the ``read_columns`` table of its two time
    columns, t_first and t_second; the channel columns are not read."""
    records = read_columns(path, ["t_first", "t_second"])
    t_first, t_second = records["t_first"], records["t_second"]
    # every comparison is False at NaN
    if not np.all((t_first >= 0.0) & (t_second >= t_first) & (t_second < np.inf)):
        raise InvalidDataError(
            f"{path}: records must satisfy 0 <= t_first <= t_second < inf")
    return records
