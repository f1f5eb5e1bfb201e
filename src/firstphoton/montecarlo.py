"""Monte Carlo sampling of two-photon emission times with post-selection.

Sampling is counter-based: one Philox generator per run, keyed by the
seed, an integer in [0, 2**128), gives every pair one 256-bit counter
block (four 64-bit words), addressed by its pair index.  A kernel turns
the words it reads (entangled three, product two) into uniform draws
from their top 53 bits, shifted into the open interval (0, 1) so that
log() never sees zero:

    u = ((word >> 11) + 0.5) * 2**-53

Work is split into ``series.CHUNK_ROWS``-pair chunks, which draw their
blocks from the one generator in turn and fill their slices of one
preallocated record array, in the calling thread.  Row p reads counter
block p whatever chunk it falls in, so a shorter run is a prefix of a
longer one.  Before the first chunk, ``simulate`` drops one untouched
block of two chunks' words (``series._keep_heap_pages``), so glibc
keeps the chunk buffers' heap pages mapped from one chunk, and one
call, to the next, where it would trim them and fault them in again.

A record stores t_first, first_is_a (the kernel's bool, one byte) and
t_second: 17 bytes.  ``write_records_csv`` is the one place that spells
the channel: its CSV has t_first, channel_first (the letter of
first_is_a, a 1-byte ``S1`` label) and t_second, what was sampled and
nothing derived from it.  It renders the text in up to n_workers
processes; the count changes no byte.  ``read_records_csv`` gives back
the table ``series.read_columns`` parses of the two time columns only,
float64 fields t_first and t_second, which is all that post-selection
and the one-photon window times read.  It selects them by name, so a
file with more columns (the earlier pair_id and channel_second) loads
the same.

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

from .analytic import (CHANNEL_A, CHANNEL_B, KIND_ENTANGLED, KIND_PRODUCT,
                       MODE_GRID_BIN, PAIR_KINDS, RatePair, WindowConfig,
                       _require_array_size, _require_bin_index, solve_compatibility)
from .errors import InvalidDataError, InvalidParameterError
from .series import (CHUNK_ROWS, _keep_heap_pages, processes, read_columns,
                     write_table)

DRAWS_PER_PAIR = 4          # one Philox counter block per pair
# -log of the smallest open uniform: the longest unit-rate wait drawn
_LONGEST_WAIT = -math.log(0.5 * 2.0 ** -53)

RECORD_DTYPE = np.dtype([
    ("t_first", np.float64),
    ("first_is_a", np.bool_),
    ("t_second", np.float64),
])

RECORD_COLUMNS = ["t_first", "channel_first", "t_second"]


def latest_time(rates: RatePair, window: WindowConfig) -> float:
    """The latest photon time either kernel can draw: the longest wait at
    gamma_f, then the longest at the slower rate.  InvalidParameterError
    when it, or in grid-bin mode its bin index t / tau, leaves the float range."""
    g_a, g_b = rates.gamma_a, rates.gamma_b
    latest = _LONGEST_WAIT / rates.gamma_f + _LONGEST_WAIT / min(g_a, g_b)
    if not math.isfinite(latest):
        raise InvalidParameterError(
            f"rates ({g_a!r}, {g_b!r}) are too small: their photon times "
            "overflow the float range")
    if window.mode == MODE_GRID_BIN:
        _require_bin_index(latest, window.tau)
    return latest


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one simulation run.

    Building one checks every field, and last refuses a run whose
    records ``simulate`` could not hold in memory
    (``analytic._require_array_size``), so a caller that builds its
    configs first refuses an oversized run before any runs.
    """

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
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= int(self.seed) < 2 ** 128:
            raise InvalidParameterError(
                f"seed must be an integer in [0, 2**128), got {self.seed!r}")
        latest_time(self.rates, self.window)
        _require_array_size(f"n_pairs = {self.n_pairs}", self.n_pairs, RECORD_DTYPE.itemsize)


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


def _entangled_times(rates: RatePair, words: np.ndarray):
    # first photon at g_f, in channel A with probability c_a / g_f
    c_a, _, g_f = solve_compatibility(rates)
    t_first = -np.log(_open_uniforms(words[:, 0])) / g_f
    first_is_a = _open_uniforms(words[:, 1]) < c_a / g_f
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


def simulate(config: SimConfig, n_workers: int = 1) -> np.ndarray:
    """Sample every pair's two photons; returns a structured array.

    The result depends only on (n_pairs, rates, kind, seed).  Chunk by
    chunk, sampling draws the next blocks of one Philox generator keyed
    by the seed, in the calling thread whatever n_workers is; the
    parameter is only validated, and goes once the benchmark's counters
    stop reading it (ROADMAP item 2).  A config whose records would not
    fit in memory was refused when it was built (``SimConfig``).
    """
    if not isinstance(n_workers, (int, np.integer)) or n_workers < 1:
        raise InvalidParameterError(f"n_workers must be a positive integer, got {n_workers!r}")
    # a chunk's words are its largest buffer
    _keep_heap_pages(2 * min(config.n_pairs, CHUNK_ROWS) * DRAWS_PER_PAIR * 8)
    records = np.empty(config.n_pairs, dtype=RECORD_DTYPE)
    kernel = _KERNELS[config.kind]
    # one counter step is one pair's block, so chunk after chunk pair p reads block p
    bitgen = np.random.Philox(key=int(config.seed))
    for start in range(0, config.n_pairs, CHUNK_ROWS):
        out = records[start:start + CHUNK_ROWS]
        times = kernel(config.rates, bitgen.random_raw((len(out), DRAWS_PER_PAIR)))
        for name, column in zip(RECORD_DTYPE.names, times):
            out[name] = column
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

    channel_first is the letter of first_is_a.  The text is rendered in
    up to ``n_workers`` processes, this one and forked children (see
    ``series.processes``); the file is the same for any count.
    """
    a, b = np.array([CHANNEL_A, CHANNEL_B], dtype="S1")
    channel_first = np.where(records["first_is_a"], a, b)
    with processes(n_workers):
        write_table(path, RECORD_COLUMNS,
                    [records["t_first"], channel_first, records["t_second"]])


def read_records_csv(path) -> np.ndarray:
    """Load a records file as the ``read_columns`` table of its two time
    columns, t_first and t_second; the channel is not read."""
    records = read_columns(path, ["t_first", "t_second"])
    t_first, t_second = records["t_first"], records["t_second"]
    # every comparison is False at NaN
    if not np.all((t_first >= 0.0) & (t_second >= t_first) & (t_second < np.inf)):
        raise InvalidDataError(
            f"{path}: records must satisfy 0 <= t_first <= t_second < inf")
    return records
