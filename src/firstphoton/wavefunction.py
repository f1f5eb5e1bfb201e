"""Exchange symmetry of two-particle amplitudes on a 1-d grid.

An amplitude Psi(x, y) is stored as a complex matrix values[i, j] =
Psi(x_i, x_j) on a uniform grid.  Exchanging the particles transposes
the matrix.  Projecting out the exchange-odd part of a product state

    Psi_F = N * (Psi(x, y) - Psi(y, x)),
    N     = 1 / sqrt(2 - 2 Re <Psi(x, y) | Psi(y, x)>)

gives the normalized fermionic state; the projection is degenerate when
the amplitude is exchange symmetric, because then the odd part vanishes
and no normalization exists.  For orthogonal single-particle factors
N = 1/sqrt(2); for an already antisymmetric input N = 1/2 and the
projection returns the input unchanged.  The distance of an amplitude
from the antisymmetric class is its antisymmetry defect, the norm of
the exchange-even part (Psi(x, y) + Psi(y, x)) / 2.

Free propagation (hbar = m = 1) is spectral: multiply the 2-d Fourier
transform by exp(-i (k_x^2 + k_y^2) t / 2).  That phase factors as
p(k_x) p(k_y) with p(k) = exp(-i k^2 t / 2), so it is applied as two
broadcast multiplies by one n-vector, and the four 1-d transforms run
in place in the output array.  This is exactly unitary on the grid and
commutes with the exchange map, so symmetry class and norm are
conserved to rounding error.  The transform is periodic, so any
amplitude whose support reaches the grid boundary is rejected rather
than silently wrapped around.

Inner products use trapezoid quadrature (interior weight 1, edges 1/2),
which is spectrally accurate for amplitudes that decay inside the box;
norms are real weighted sums of squares.

Memory.  An amplitude on n points per axis is an n x n complex array of
16 n^2 bytes.  The exchange map Psi(x, y) -> Psi(y, x) is applied in
one blocking, the tile pairs of ``_tiles``: a block and its mirror block,
at most TILE x TILE each, so transposed reads stay in cache.  The
exchange overlap, the odd-part projection and the antisymmetry defect
all sum or write over those pairs.  Beside its input, ``antisymmetrize``
and ``free_propagate`` hold their output, and ``swap_overlap``,
``antisymmetry_defect`` and ``quadrature_norm`` nothing; every other
temporary is a tile pair's block or a slice of a few rows, of at most
SLICE_BYTES as float64 (twice that as complex) and at most a sixteenth
of the array.  Handed an _OwnedAmplitude, ``antisymmetrize`` and
``free_propagate`` write their result over its array instead, so each of
the CLI's checks holds one n x n array from start to end.

Bands.  Most n x n passes are split into one band per usable CPU, with
no flag: the calling thread works the first band and a helper thread
each of the others, all joined before the function returns, and an
error in a helper is raised in the caller.  numpy's FFT and ufunc
loops release the interpreter lock, so the bands run at once.  Row bands
take the axis-1 transforms, the edge check's peak and the norm's row
sums; bands of TILE-column strips take the axis-0 transforms.  The two
phase multiplies ride with the inverse axis-1 transform, a few rows at a
time while they are in cache.  Every element and every row sum is
formed by the same operations as in one band, and partial results are
combined in one fixed order, so each result has the same bits for any
band count.  The tile pairs run in the calling thread: each makes a few
small numpy calls that hold the interpreter lock, so bands of them would
run no faster than one.  ``from_factors`` is one np.outer, as fast as
two bands.  Band bodies call only private functions.  On a 2-CPU Xeon
(numpy 2.4.6) the CLI's ``antisymmetry-preservation`` check at n = 2048
takes about 0.18 s in-process on two bands and 0.28 s on one.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import series
from .analytic import _require_exponent
from .errors import (DegenerateSymmetryError, GridTooSmallError,
                     InvalidDataError, InvalidParameterError)

EPS_DEGENERATE = 1e-8        # minimum odd-part squared norm (times 2)
BOUNDARY_LEAK_RATIO = 1e-10  # max |edge| / max |amplitude| tolerated
MIN_GRID_POINTS = 16
TILE = 64                    # largest tile edge and strip width: 64 KB of complex
SLICE_BYTES = 256 << 10      # largest float64 temporary a band body makes


@dataclass(frozen=True)
class Grid1D:
    """Uniform spatial grid on [x_min, x_max] with n points."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < MIN_GRID_POINTS:
            raise InvalidParameterError(
                f"n must be an integer >= {MIN_GRID_POINTS}, got {self.n!r}")
        # in Python floats, where a width beyond the float range is inf, not a warning
        width = float(self.x_max) - float(self.x_min)
        if not (math.isfinite(width) and width / (self.n - 1) > 0.0):
            raise InvalidParameterError(
                f"need x_min < x_max with a finite width and spacing, got "
                f"({self.x_min!r}, {self.x_max!r}) of width {width!r}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)

    def quadrature_weights(self) -> np.ndarray:
        w = np.ones(self.n)
        w[0] = w[-1] = 0.5
        return w * self.spacing


@dataclass(frozen=True)
class TwoParticleAmplitude:
    """Complex amplitude sampled on grid x grid; treat values as read-only."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n, self.grid.n):
            raise InvalidDataError(
                f"values must have shape {(self.grid.n, self.grid.n)}, got {v.shape}")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_factors(cls, grid: Grid1D, mode_x: np.ndarray,
                     mode_y: np.ndarray) -> "TwoParticleAmplitude":
        """Product state Psi(x, y) = f(x) g(y)."""
        f = np.asarray(mode_x, dtype=complex)
        g = np.asarray(mode_y, dtype=complex)
        if f.shape != (grid.n,) or g.shape != (grid.n,):
            raise InvalidDataError("factors must be 1-d arrays on the grid")
        return cls(grid=grid, values=np.outer(f, g))


class _OwnedAmplitude(TwoParticleAmplitude):
    """An amplitude whose array nothing else reads: antisymmetrize and
    free_propagate overwrite it and return an amplitude of the same kind
    over it, so a chain of them holds one n x n array.  The amplitude
    passed in is spent."""


def _bands(count: int) -> list[tuple[int, int]]:
    """range(count) cut into one contiguous band per usable CPU, at most
    one band per item."""
    k = max(1, min(series._usable_cpus(), count))
    return [(i * count // k, (i + 1) * count // k) for i in range(k)]


def _in_bands(body, count: int, *args) -> list:
    """[body(start, stop, *args) for each band (start, stop) of range(count)].

    The calling thread runs the first band and a helper thread each of
    the others.  All are joined before this returns; then the error of
    the first band that failed is raised here.
    """
    bands = _bands(count)
    results = [None] * len(bands)
    errors = [None] * len(bands)

    def run(i):
        try:
            results[i] = body(*bands[i], *args)
        except BaseException as exc:    # raised in the caller below
            errors[i] = exc

    helpers = []
    try:
        for i in range(1, len(bands)):
            helper = threading.Thread(target=run, args=(i,))
            helper.start()
            helpers.append(helper)
        run(0)
    finally:
        for helper in helpers:
            helper.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _slice_rows(n: int) -> int:
    """Rows of n points in a slice of a band, for the edge check's
    magnitudes and the inverse row transform: a float64 temporary of the
    slice fits in SLICE_BYTES, and is at most a sixteenth of the rows so
    that on a small grid the temporaries stay a small share of the array."""
    return max(1, min(SLICE_BYTES // (8 * n), n // 16))


def _tiles(n: int) -> list[tuple[slice, slice]]:
    """(rows, cols) slices of the tile pairs of an n x n array: each block
    (rows, cols) on or above the diagonal, which stands for its mirror
    (cols, rows) too.

    The exchange map sends block (rows, cols) to block (cols, rows),
    transposed; a block that fits in cache transposes without the
    strided misses of a whole-array transpose.  The edge is TILE on large
    grids and an eighth of the grid on small ones, so that a pair's
    temporaries stay a small share of the array.
    """
    edge = min(TILE, n // 8)
    edges = [slice(a, a + edge) for a in range(0, n, edge)]
    return [(rows, cols) for i, rows in enumerate(edges) for cols in edges[i:]]


def _row_sums(a: np.ndarray, b: np.ndarray, w_cols: np.ndarray) -> np.ndarray:
    """sum_j w_cols[j] Re(a[i, j] conj(b[i, j])) for each row i, in real
    arithmetic."""
    return (np.einsum("ij,ij,j->i", a.real, b.real, w_cols)
            + np.einsum("ij,ij,j->i", a.imag, b.imag, w_cols))


def _row_sums_band(start: int, stop: int, values: np.ndarray, w: np.ndarray,
                   out: np.ndarray) -> None:
    block = values[start:stop]
    out[start:stop] = _row_sums(block, block, w)


def quadrature_norm(psi: TwoParticleAmplitude) -> float:
    w = psi.grid.quadrature_weights()
    rows = np.empty(psi.grid.n)
    _in_bands(_row_sums_band, psi.grid.n, psi.values, w, rows)
    return float(np.sqrt(float(w @ rows)))


def _exchange_sum(psi: TwoParticleAmplitude, row_sums) -> float:
    """sum_i w_i row_sums(block, mirror, w_cols)_i over the tile pairs, for
    each pair's block of Psi(x, y) and the same block of Psi(y, x).  Both
    sums taken here have the same terms on a block and on its mirror, so
    a pair off the diagonal counts twice."""
    v, w = psi.values, psi.grid.quadrature_weights()
    total = 0.0
    for rows, cols in _tiles(psi.grid.n):
        mirrored = 1.0 if rows == cols else 2.0
        total += mirrored * float(
            w[rows] @ row_sums(v[rows, cols], v[cols, rows].T, w[cols]))
    return total


def swap_overlap(psi: TwoParticleAmplitude) -> float:
    """Exchange overlap <Psi(x, y) | Psi(y, x)> of a normalized state,
    sum w_i w_j (Re Psi_ij Re Psi_ji + Im Psi_ij Im Psi_ji).  It is real:
    the (j, i) term of the complex sum is the conjugate of the (i, j) term."""
    return _exchange_sum(psi, _row_sums)


def antisymmetrization_coefficient(psi: TwoParticleAmplitude) -> float:
    """Normalization N = 1/sqrt(2 - 2 Re <Psi|S Psi>) of the odd part.

    Raises InvalidDataError unless every amplitude is finite, and
    DegenerateSymmetryError when the exchange-odd component is too small
    to normalize (input exchange symmetric to tolerance).
    """
    with np.errstate(invalid="ignore", over="ignore"):  # refused below
        overlap = swap_overlap(psi)
    if not math.isfinite(overlap):
        raise InvalidDataError(f"exchange overlap is {overlap!r}; "
                               "every amplitude must be finite")
    denom = 2.0 - 2.0 * overlap
    if denom < EPS_DEGENERATE:
        raise DegenerateSymmetryError(
            f"amplitude is exchange symmetric to within {max(denom, 0.0):.3e}; the "
            "antisymmetric projection has no normalizable component")
    return float(1.0 / np.sqrt(denom))


def _odd_part(v: np.ndarray, out: np.ndarray, coeff: float) -> None:
    """coeff * (v - v.T) into out, which may be v itself.

    Both blocks of a tile pair are read into their difference before
    either is written, and no other pair reads them, so the projection
    runs in place.  The mirror block is the difference times -coeff,
    transposed: a - b = -(b - a) and -coeff * x = -(coeff * x) exactly.
    """
    for rows, cols in _tiles(v.shape[0]):
        odd = v[rows, cols] - v[cols, rows].T
        np.multiply(odd, coeff, out=out[rows, cols])
        if rows != cols:
            np.multiply(odd.T, -coeff, out=out[cols, rows])


def _output(psi: TwoParticleAmplitude) -> np.ndarray:
    """The array a kernel writes its result to: the input's own array when
    the input is an _OwnedAmplitude, else a new one."""
    if isinstance(psi, _OwnedAmplitude):
        return psi.values
    return np.empty(psi.values.shape, dtype=complex)


def antisymmetrize(psi: TwoParticleAmplitude) -> TwoParticleAmplitude:
    """Normalized exchange-odd projection N * (Psi(x,y) - Psi(y,x))."""
    coeff = antisymmetrization_coefficient(psi)
    out = _output(psi)
    _odd_part(psi.values, out, coeff)
    return replace(psi, values=out)


def antisymmetry_defect(psi: TwoParticleAmplitude) -> float:
    """Quadrature norm of the exchange-even part (Psi(x,y) + Psi(y,x)) / 2;
    zero iff the amplitude is antisymmetric."""
    def even(block, mirror, w_cols):
        twice = block + mirror
        return _row_sums(twice, twice, w_cols)
    # the part is half the root of this sum; halving is exact
    return 0.5 * float(np.sqrt(_exchange_sum(psi, even)))


def _peak_band(start: int, stop: int, values: np.ndarray) -> np.floating:
    """Largest magnitude on rows start to stop, a slice at a time so no
    magnitude table of the band is built; np.max, unlike max(), keeps a NaN."""
    step = _slice_rows(values.shape[1])
    return np.max([np.max(np.abs(values[a:min(a + step, stop)]))
                   for a in range(start, stop, step)])


def _forward_row_band(start: int, stop: int, source: np.ndarray,
                      out: np.ndarray) -> None:
    np.fft.fft(source[start:stop], axis=1, out=out[start:stop])


def _strip_band(start: int, stop: int, transform, out: np.ndarray) -> None:
    """``transform`` along axis 0 of TILE-column strips start to stop, in place."""
    for s in range(start, stop):
        strip = out[:, s * TILE:(s + 1) * TILE]
        transform(strip, axis=0, out=strip)


def _inverse_row_band(start: int, stop: int, out: np.ndarray,
                      phase: np.ndarray) -> None:
    """Rows start to stop times the phase of their row, then of their
    column, and inverse-transformed along axis 1, in place, a few rows at
    a time so each slice stays in cache."""
    step = _slice_rows(out.shape[0])
    for a in range(start, stop, step):
        rows = slice(a, min(a + step, stop))
        block = out[rows]
        block *= phase[rows, None]
        block *= phase
        np.fft.ifft(block, axis=1, out=block)


def _check_boundary(values: np.ndarray, stage: str) -> None:
    peak = float(np.max(_in_bands(_peak_band, values.shape[0], values)))
    if not math.isfinite(peak):
        raise InvalidDataError(f"amplitude magnitude peaks at {peak!r} ({stage}); "
                               "every amplitude must be finite")
    edge = max(float(np.max(np.abs(values[0, :]))),
               float(np.max(np.abs(values[-1, :]))),
               float(np.max(np.abs(values[:, 0]))),
               float(np.max(np.abs(values[:, -1]))))
    if edge > BOUNDARY_LEAK_RATIO * peak:
        raise GridTooSmallError(
            f"amplitude magnitude at the grid edge is {edge / peak:.3e} of the "
            f"peak ({stage}); enlarge the box to keep the spectral propagator "
            "from wrapping around")


def free_propagate(psi: TwoParticleAmplitude, t: float) -> TwoParticleAmplitude:
    """Evolve freely for time t (hbar = m = 1) with the spectral kernel;
    InvalidParameterError unless t and the phase t k^2 / 2 of the fastest
    mode are finite, and InvalidDataError unless every amplitude is."""
    if not math.isfinite(t):
        raise InvalidParameterError(f"propagation time t must be finite, got {t!r}")
    k = psi.grid.wavenumbers
    k_max = float(np.max(np.abs(k)))
    _require_exponent(0.5 * k_max * k_max, t)
    _check_boundary(psi.values, "input")
    phase = np.exp(-0.5j * t * k ** 2)
    # 1-d transforms into the output, which may be the input's own array,
    # one axis at a time (numpy.fft takes out= from numpy 2.0): a 1-d
    # transform may alias its rows or strip, but np.fft.ifft2 with out=
    # aliasing its input gives wrong values (numpy 2.4.6)
    n = psi.grid.n
    strips = -(-n // TILE)
    out = _output(psi)
    _in_bands(_forward_row_band, n, psi.values, out)
    _in_bands(_strip_band, strips, np.fft.fft, out)
    _in_bands(_inverse_row_band, n, out, phase)
    _in_bands(_strip_band, strips, np.fft.ifft, out)
    _check_boundary(out, f"after t={t:g}")
    return replace(psi, values=out)


def oscillator_mode(grid: Grid1D, k: int) -> np.ndarray:
    """Grid-normalized harmonic-oscillator mode, ground (k=0) or first
    excited (k=1); the pair is orthogonal by parity."""
    if k not in (0, 1):
        raise InvalidParameterError(f"only modes k=0 and k=1 are provided, got {k!r}")
    x = grid.points
    with np.errstate(over="ignore"):  # a square beyond the float range: exp(-inf) = 0
        gauss = np.exp(-0.5 * x ** 2)
    mode = (gauss if k == 0 else x * gauss).astype(complex)
    return mode / _mode_norm(grid, mode)


def _mode_norm(grid: Grid1D, mode: np.ndarray) -> float:
    w = grid.quadrature_weights()
    norm = float(np.sqrt(np.sum(w * np.abs(mode) ** 2).real))
    if not (np.isfinite(norm) and norm > 0.0):
        raise InvalidParameterError(
            f"mode has norm {norm!r} on a grid of spacing {grid.spacing:.6g}; "
            "refine the grid (more points or a smaller box) to resolve it")
    return norm
