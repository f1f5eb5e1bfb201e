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
projection returns the input unchanged.

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
TILE x TILE blocks, so transposed reads stay in cache.  Beside its
input, ``swap_overlap`` holds one scratch array, ``antisymmetrize`` one
(the scratch becomes its output), ``symmetry_defects`` and
``quadrature_norm`` none, and ``free_propagate`` its output; its edge
check takes the peak magnitude one TILE-row strip at a time.  The CLI's
``antisymmetry-preservation`` check therefore peaks at about two n x n
arrays, during propagation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSymmetryError, GridTooSmallError,
                     InvalidDataError, InvalidParameterError)

EPS_DEGENERATE = 1e-8        # minimum odd-part squared norm (times 2)
BOUNDARY_LEAK_RATIO = 1e-10  # max |edge| / max |amplitude| tolerated
MIN_GRID_POINTS = 16
TILE = 64                    # block edge of the exchange map: 64 KB of complex


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


def _tiles(n: int) -> list[tuple[slice, slice]]:
    """(rows, cols) slices covering an n x n array in TILE x TILE blocks.

    The exchange map sends block (rows, cols) to block (cols, rows),
    transposed; a block that fits in cache transposes without the
    strided misses of a whole-array transpose.
    """
    edges = [slice(a, a + TILE) for a in range(0, n, TILE)]
    return [(rows, cols) for rows in edges for cols in edges]


def _weighted_square_sum(values: np.ndarray, w_rows: np.ndarray,
                         w_cols: np.ndarray) -> float:
    """sum_ij w_rows[i] w_cols[j] |values[i, j]|^2 in real arithmetic."""
    re, im = values.real, values.imag
    return float(w_rows @ (np.einsum("ij,ij,j->i", re, re, w_cols)
                           + np.einsum("ij,ij,j->i", im, im, w_cols)))


def quadrature_norm(psi: TwoParticleAmplitude) -> float:
    w = psi.grid.quadrature_weights()
    return float(np.sqrt(_weighted_square_sum(psi.values, w, w)))


def _swap_overlap_and_scratch(psi: TwoParticleAmplitude) -> tuple[complex, np.ndarray]:
    """<Psi(x, y) | Psi(y, x)> and the new array conj(Psi(y, x)) it is read from.

    The overlap sum w_i w_j conj(Psi_ij) Psi_ji is taken as the conjugate
    of sum w_i w_j Psi_ij conj(Psi_ji): the same products and sums, so the
    same bits, without a conjugated copy of the input.  The
    blocked fill takes half the time of np.conjugate(v.T, out=scratch)
    at n = 2048 (46 vs 94 ms, 2-CPU Xeon, numpy 2.4.6).
    """
    v = psi.values
    w = psi.grid.quadrature_weights()
    scratch = np.empty(v.shape, dtype=complex)
    for rows, cols in _tiles(psi.grid.n):
        np.conjugate(v[cols, rows].T, out=scratch[rows, cols])
    return complex(np.einsum("i,j,ij,ij->", w, w, v, scratch)).conjugate(), scratch


def swap_overlap(psi: TwoParticleAmplitude) -> complex:
    """Exchange overlap <Psi(x, y) | Psi(y, x)> of a normalized state."""
    return _swap_overlap_and_scratch(psi)[0]


def _odd_part_normalization(overlap: complex) -> float:
    denom = 2.0 - 2.0 * overlap.real
    if denom < EPS_DEGENERATE:
        raise DegenerateSymmetryError(
            f"amplitude is exchange symmetric to within {denom:.3e}; the "
            "antisymmetric projection has no normalizable component")
    return float(1.0 / np.sqrt(denom))


def antisymmetrization_coefficient(psi: TwoParticleAmplitude) -> float:
    """Normalization N = 1/sqrt(2 - 2 Re <Psi|S Psi>) of the odd part.

    Raises DegenerateSymmetryError when the exchange-odd component is
    too small to normalize (input exchange symmetric to tolerance).
    """
    return _odd_part_normalization(swap_overlap(psi))


def antisymmetrize(psi: TwoParticleAmplitude) -> TwoParticleAmplitude:
    """Normalized exchange-odd projection N * (Psi(x,y) - Psi(y,x))."""
    overlap, out = _swap_overlap_and_scratch(psi)
    coeff = _odd_part_normalization(overlap)
    np.conjugate(out, out=out)  # now Psi(y, x)
    np.subtract(psi.values, out, out=out)
    out *= coeff
    return TwoParticleAmplitude(grid=psi.grid, values=out)


@dataclass(frozen=True)
class SymmetryDefects:
    """Quadrature distances to the two exchange-symmetry subspaces."""

    symmetric: float
    antisymmetric: float


def symmetry_defects(psi: TwoParticleAmplitude) -> SymmetryDefects:
    """Distance of the amplitude to each symmetry class.

    ``symmetric`` is the norm of the exchange-odd part (zero iff the
    state is symmetric); ``antisymmetric`` is the norm of the even part.
    """
    v = psi.values
    w = psi.grid.quadrature_weights()
    odd = even = 0.0
    for rows, cols in _tiles(psi.grid.n):
        if rows.start > cols.start:
            continue  # the terms of block (rows, cols) are those of (cols, rows)
        mirrored = 1.0 if rows == cols else 2.0
        here, transposed = v[rows, cols], v[cols, rows].T
        odd += mirrored * _weighted_square_sum(here - transposed, w[rows], w[cols])
        even += mirrored * _weighted_square_sum(here + transposed, w[rows], w[cols])
    # the parts are half these differences and sums; halving is exact
    return SymmetryDefects(symmetric=0.5 * float(np.sqrt(odd)),
                           antisymmetric=0.5 * float(np.sqrt(even)))


def _check_boundary(values: np.ndarray, stage: str) -> None:
    # the peak of TILE-row strips, so no n x n magnitude table is built;
    # np.max, unlike max(), keeps a NaN
    peak = float(np.max([np.max(np.abs(values[a:a + TILE]))
                         for a in range(0, values.shape[0], TILE)]))
    if peak == 0.0:
        return
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
    """Evolve freely for time t (hbar = m = 1) with the spectral kernel."""
    if not np.isfinite(t):
        raise InvalidParameterError(f"propagation time must be finite, got {t!r}")
    _check_boundary(psi.values, "input")
    k = psi.grid.wavenumbers
    phase = np.exp(-0.5j * t * k ** 2)
    # 1-d transforms in place, one axis at a time (numpy.fft takes out=
    # from numpy 2.0): np.fft.ifft2 with out= aliasing its input gives
    # wrong values (numpy 2.4.6)
    out = np.fft.fft(psi.values, axis=1)
    np.fft.fft(out, axis=0, out=out)
    out *= phase[:, None]
    out *= phase
    np.fft.ifft(out, axis=1, out=out)
    np.fft.ifft(out, axis=0, out=out)
    _check_boundary(out, f"after t={t:g}")
    return TwoParticleAmplitude(grid=psi.grid, values=out)


def gaussian_mode(grid: Grid1D, center: float = 0.0, width: float = 1.0,
                  momentum: float = 0.0) -> np.ndarray:
    """Grid-normalized Gaussian single-particle mode."""
    if not np.isfinite(width) or width <= 0.0:
        raise InvalidParameterError(f"width must be positive, got {width!r}")
    x = grid.points
    with np.errstate(over="ignore"):  # a square beyond the float range: exp(-inf) = 0
        mode = np.exp(-((x - center) ** 2) / (2.0 * width ** 2)
                      + 1j * momentum * x).astype(complex)
    return mode / _mode_norm(grid, mode)


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
