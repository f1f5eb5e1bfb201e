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
transform by exp(-i (k_x^2 + k_y^2) t / 2).  This is exactly unitary on
the grid and commutes with the exchange map, so symmetry class and norm
are conserved to rounding error.  The transform is periodic, so any
amplitude whose support reaches the grid boundary is rejected rather
than silently wrapped around.

Inner products use trapezoid quadrature (interior weight 1, edges 1/2),
which is spectrally accurate for amplitudes that decay inside the box.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSymmetryError, GridTooSmallError,
                     InvalidDataError, InvalidParameterError)

EPS_DEGENERATE = 1e-8        # minimum odd-part squared norm (times 2)
BOUNDARY_LEAK_RATIO = 1e-10  # max |edge| / max |amplitude| tolerated
MIN_GRID_POINTS = 16


@dataclass(frozen=True)
class Grid1D:
    """Uniform spatial grid on [x_min, x_max] with n points."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)
                and self.x_max > self.x_min):
            raise InvalidParameterError(
                f"need finite x_min < x_max, got ({self.x_min!r}, {self.x_max!r})")
        if not isinstance(self.n, (int, np.integer)) or self.n < MIN_GRID_POINTS:
            raise InvalidParameterError(
                f"n must be an integer >= {MIN_GRID_POINTS}, got {self.n!r}")

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


def inner(psi: TwoParticleAmplitude, phi: TwoParticleAmplitude) -> complex:
    """Trapezoid-quadrature inner product <psi | phi>."""
    if psi.grid != phi.grid:
        raise InvalidParameterError("amplitudes live on different grids")
    w = psi.grid.quadrature_weights()
    return complex(np.einsum("i,j,ij,ij->", w, w, np.conj(psi.values), phi.values))


def quadrature_norm(psi: TwoParticleAmplitude) -> float:
    return float(np.sqrt(inner(psi, psi).real))


def exchanged(psi: TwoParticleAmplitude) -> TwoParticleAmplitude:
    """The particle-exchanged amplitude Psi(y, x)."""
    return TwoParticleAmplitude(grid=psi.grid, values=psi.values.T.copy())


def swap_overlap(psi: TwoParticleAmplitude) -> complex:
    """Exchange overlap <Psi(x, y) | Psi(y, x)> of a normalized state."""
    return inner(psi, exchanged(psi))


def antisymmetrization_coefficient(psi: TwoParticleAmplitude) -> float:
    """Normalization N = 1/sqrt(2 - 2 Re <Psi|S Psi>) of the odd part.

    Raises DegenerateSymmetryError when the exchange-odd component is
    too small to normalize (input exchange symmetric to tolerance).
    """
    denom = 2.0 - 2.0 * swap_overlap(psi).real
    if denom < EPS_DEGENERATE:
        raise DegenerateSymmetryError(
            f"amplitude is exchange symmetric to within {denom:.3e}; the "
            "antisymmetric projection has no normalizable component")
    return float(1.0 / np.sqrt(denom))


def antisymmetrize(psi: TwoParticleAmplitude) -> TwoParticleAmplitude:
    """Normalized exchange-odd projection N * (Psi(x,y) - Psi(y,x))."""
    coeff = antisymmetrization_coefficient(psi)
    return TwoParticleAmplitude(grid=psi.grid,
                                values=coeff * (psi.values - psi.values.T))


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
    odd = TwoParticleAmplitude(psi.grid, 0.5 * (psi.values - psi.values.T))
    even = TwoParticleAmplitude(psi.grid, 0.5 * (psi.values + psi.values.T))
    return SymmetryDefects(symmetric=quadrature_norm(odd),
                           antisymmetric=quadrature_norm(even))


def _check_boundary(values: np.ndarray, stage: str) -> None:
    peak = float(np.max(np.abs(values)))
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
    phase = np.exp(-0.5j * t * (k[:, None] ** 2 + k[None, :] ** 2))
    out = np.fft.ifft2(np.fft.fft2(psi.values) * phase)
    _check_boundary(out, f"after t={t:g}")
    return TwoParticleAmplitude(grid=psi.grid, values=out)


def gaussian_mode(grid: Grid1D, center: float = 0.0, width: float = 1.0,
                  momentum: float = 0.0) -> np.ndarray:
    """Grid-normalized Gaussian single-particle mode."""
    if not np.isfinite(width) or width <= 0.0:
        raise InvalidParameterError(f"width must be positive, got {width!r}")
    x = grid.points
    mode = np.exp(-((x - center) ** 2) / (2.0 * width ** 2)
                  + 1j * momentum * x).astype(complex)
    return mode / _mode_norm(grid, mode)


def oscillator_mode(grid: Grid1D, k: int) -> np.ndarray:
    """Grid-normalized harmonic-oscillator mode, ground (k=0) or first
    excited (k=1); the pair is orthogonal by parity."""
    x = grid.points
    if k == 0:
        mode = np.exp(-0.5 * x ** 2).astype(complex)
    elif k == 1:
        mode = (x * np.exp(-0.5 * x ** 2)).astype(complex)
    else:
        raise InvalidParameterError(f"only modes k=0 and k=1 are provided, got {k!r}")
    return mode / _mode_norm(grid, mode)


def _mode_norm(grid: Grid1D, mode: np.ndarray) -> float:
    w = grid.quadrature_weights()
    return float(np.sqrt(np.sum(w * np.abs(mode) ** 2).real))


def save_amplitude(psi: TwoParticleAmplitude, path) -> None:
    """Write the amplitude as CSV with a JSON grid header line."""
    n = psi.grid.n
    ij = np.indices((n, n)).reshape(2, -1)
    data = np.column_stack([ij[0], ij[1],
                            psi.values.real.ravel(), psi.values.imag.ravel()])
    meta = json.dumps({"x_min": psi.grid.x_min, "x_max": psi.grid.x_max, "n": n})
    np.savetxt(path, data, fmt=["%d", "%d", "%.17g", "%.17g"],
               delimiter=",", header=meta + "\nx_index,y_index,re,im")


def load_amplitude(path) -> TwoParticleAmplitude:
    try:
        with open(path) as fh:
            first = fh.readline()
    except OSError as exc:
        raise InvalidDataError(f"cannot read amplitude from {path}: {exc}") from exc
    if not first.startswith("# "):
        raise InvalidDataError(f"{path}: missing grid metadata header")
    try:
        meta = json.loads(first[2:])
        grid = Grid1D(x_min=float(meta["x_min"]), x_max=float(meta["x_max"]),
                      n=int(meta["n"]))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidDataError(f"{path}: bad grid metadata: {exc}") from exc
    data = np.loadtxt(path, delimiter=",", comments="#")
    if data.shape != (grid.n * grid.n, 4):
        raise InvalidDataError(f"{path}: expected {grid.n * grid.n} rows of 4 columns")
    idx = (data[:, 0].astype(int), data[:, 1].astype(int))
    values = np.zeros((grid.n, grid.n), dtype=complex)
    values[idx] = data[:, 2] + 1j * data[:, 3]
    return TwoParticleAmplitude(grid=grid, values=values)
