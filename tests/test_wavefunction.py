import math
import threading
import tracemalloc

import numpy as np
import pytest

from firstphoton import series
from firstphoton import wavefunction as wf
from firstphoton.cli import main
from firstphoton.errors import (DegenerateSymmetryError, GridTooSmallError,
                                InvalidDataError, InvalidParameterError)


@pytest.fixture(scope="module")
def grid():
    return wf.Grid1D(x_min=-12.0, x_max=12.0, n=128)


@pytest.fixture(scope="module")
def slater(grid):
    product = wf.TwoParticleAmplitude.from_factors(
        grid, wf.oscillator_mode(grid, 0), wf.oscillator_mode(grid, 1))
    return wf.antisymmetrize(product)


def gaussian_mode(grid, center=0.0, width=1.0, momentum=0.0):
    """Grid-normalized Gaussian single-particle mode."""
    x = grid.points
    mode = np.exp(-((x - center) ** 2) / (2.0 * width ** 2) + 1j * momentum * x)
    return mode / math.sqrt(float(np.sum(grid.quadrature_weights() * np.abs(mode) ** 2)))


class TestGrid:
    def test_geometry(self, grid):
        assert grid.spacing == pytest.approx(24.0 / 127.0, rel=1e-15)
        assert grid.points.shape == (128,)
        assert grid.points[0] == -12.0 and grid.points[-1] == 12.0

    @pytest.mark.parametrize("kw", [
        dict(x_min=1.0, x_max=-1.0, n=64),
        dict(x_min=0.0, x_max=0.0, n=64),
        dict(x_min=-1.0, x_max=1.0, n=8),
        dict(x_min=float("nan"), x_max=1.0, n=64),
    ])
    def test_rejects_bad_grids(self, kw):
        with pytest.raises(InvalidParameterError):
            wf.Grid1D(**kw)

    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(InvalidDataError):
            wf.TwoParticleAmplitude(grid=grid, values=np.zeros((3, 3), dtype=complex))

    @pytest.mark.parametrize("factors", [(127, 128), (128, 129), (128, (128, 1))],
                             ids=["short-x", "long-y", "column-y"])
    def test_factors_off_the_grid_rejected(self, grid, factors):
        f, g = (np.ones(shape) for shape in factors)
        with pytest.raises(InvalidDataError, match="factors must be 1-d arrays on the grid"):
            wf.TwoParticleAmplitude.from_factors(grid, f, g)

    def test_rejects_width_beyond_float_range(self):
        # -1e308..1e308 is a box of width inf, which linspace cannot fill
        with pytest.raises(InvalidParameterError, match="of width inf"):
            wf.Grid1D(x_min=-1e308, x_max=1e308, n=64)

    def test_quadrature_integrates_gaussian(self, grid):
        # trapezoid weights reproduce a Gaussian integral to spectral accuracy
        x = grid.points
        value = float(np.sum(grid.quadrature_weights() * np.exp(-x ** 2)))
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-12)


class TestModes:
    def test_orthonormal(self, grid):
        w = grid.quadrature_weights()
        mode0 = wf.oscillator_mode(grid, 0)
        mode1 = wf.oscillator_mode(grid, 1)
        assert float(np.sum(w * np.abs(mode0) ** 2)) == pytest.approx(1.0, abs=1e-12)
        assert float(np.sum(w * np.abs(mode1) ** 2)) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.sum(w * np.conj(mode0) * mode1)) < 1e-12

    def test_gaussian_mode_normalized(self, grid):
        mode = gaussian_mode(grid, center=1.0, width=0.7, momentum=2.0)
        w = grid.quadrature_weights()
        assert float(np.sum(w * np.abs(mode) ** 2)) == pytest.approx(1.0, abs=1e-12)

    def test_only_two_oscillator_modes(self, grid):
        with pytest.raises(InvalidParameterError):
            wf.oscillator_mode(grid, 2)

    def test_unresolved_mode_rejected(self):
        # every grid point lies at least 100 widths from the centre, so
        # every sample underflows to 0 and the mode has no norm to divide by
        grid = wf.Grid1D(x_min=100.0, x_max=200.0, n=16)
        with pytest.raises(InvalidParameterError, match="spacing"):
            wf.oscillator_mode(grid, 0)

    @pytest.mark.parametrize("make", [lambda g: wf.oscillator_mode(g, 0),
                                      lambda g: wf.oscillator_mode(g, 1)],
                             ids=["oscillator-0", "oscillator-1"])
    def test_overflowing_square_underflows_quietly(self, make):
        # x^2 overflows to inf at |x| ~ 1e200; exp(-inf) is the 0 the
        # Gaussian underflows to anyway, so no RuntimeWarning is raised
        # (the suite turns one into an error) before the norm check
        grid = wf.Grid1D(x_min=-1e200, x_max=1e200, n=64)
        with pytest.raises(InvalidParameterError, match="spacing"):
            make(grid)


class TestSwapOverlap:
    def test_product_of_identical_modes(self, grid):
        mode0 = wf.oscillator_mode(grid, 0)
        sym = wf.TwoParticleAmplitude.from_factors(grid, mode0, mode0)
        assert wf.swap_overlap(sym).real == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_product(self, grid):
        product = wf.TwoParticleAmplitude.from_factors(
            grid, wf.oscillator_mode(grid, 0), wf.oscillator_mode(grid, 1))
        assert abs(wf.swap_overlap(product)) < 1e-12

    def test_antisymmetric_state(self, slater):
        assert wf.swap_overlap(slater).real == pytest.approx(-1.0, abs=1e-12)


class TestAntisymmetrize:
    def test_coefficient_for_orthogonal_modes(self, grid):
        product = wf.TwoParticleAmplitude.from_factors(
            grid, wf.oscillator_mode(grid, 0), wf.oscillator_mode(grid, 1))
        assert wf.antisymmetrization_coefficient(product) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-12)

    def test_coefficient_for_antisymmetric_input(self, slater):
        assert wf.antisymmetrization_coefficient(slater) == pytest.approx(0.5, abs=1e-12)

    def test_coefficient_for_overlapping_gaussians(self, grid):
        # oracle: for a product f(x) g(y) of real modes the exchange
        # overlap is <f|g>^2, so N = 1/sqrt(2 - 2 r^2) with r from 1-d
        # quadrature
        f = gaussian_mode(grid, center=-0.5)
        g = gaussian_mode(grid, center=+0.5)
        r = float(np.sum(grid.quadrature_weights() * np.conj(f) * g).real)
        assert r == pytest.approx(math.exp(-0.25), rel=1e-10)
        product = wf.TwoParticleAmplitude.from_factors(grid, f, g)
        assert wf.antisymmetrization_coefficient(product) == pytest.approx(
            1.0 / math.sqrt(2.0 - 2.0 * r * r), rel=1e-12)

    def test_output_is_normalized_and_odd(self, grid):
        product = wf.TwoParticleAmplitude.from_factors(
            grid, gaussian_mode(grid, center=-0.5), gaussian_mode(grid, 0.5))
        result = wf.antisymmetrize(product)
        assert wf.quadrature_norm(result) == pytest.approx(1.0, abs=1e-12)
        assert wf.swap_overlap(result).real == pytest.approx(-1.0, abs=1e-12)

    def test_idempotent(self, slater):
        again = wf.antisymmetrize(slater)
        assert np.allclose(again.values, slater.values, atol=1e-12)

    def test_matches_explicit_slater_form(self, grid):
        mode0 = wf.oscillator_mode(grid, 0)
        mode1 = wf.oscillator_mode(grid, 1)
        product = wf.TwoParticleAmplitude.from_factors(grid, mode0, mode1)
        explicit = (np.outer(mode0, mode1) - np.outer(mode1, mode0)) / math.sqrt(2.0)
        assert np.allclose(wf.antisymmetrize(product).values, explicit, atol=1e-12)

    def test_symmetric_input_is_degenerate(self, grid):
        mode0 = wf.oscillator_mode(grid, 0)
        sym = wf.TwoParticleAmplitude.from_factors(grid, mode0, mode0)
        with pytest.raises(DegenerateSymmetryError):
            wf.antisymmetrize(sym)

    @pytest.mark.parametrize("cell", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("kind", [wf.TwoParticleAmplitude, wf._OwnedAmplitude],
                             ids=["plain", "owned"])
    @pytest.mark.parametrize("kernel", [wf.antisymmetrization_coefficient,
                                        wf.antisymmetrize])
    def test_amplitude_not_finite_is_data_error(self, kernel, kind, cell):
        # a NaN gives a NaN coefficient, which the degenerate check lets
        # through, and an inf an invalid-value RuntimeWarning (an error
        # in the suite); neither may reach the projection, so an owned
        # array is left unwritten
        grid = wf.Grid1D(x_min=-12.0, x_max=12.0, n=64)
        values = np.outer(wf.oscillator_mode(grid, 0), wf.oscillator_mode(grid, 1))
        values[32, 9] = cell
        psi = kind(grid=grid, values=values)
        before = values.tobytes()
        with pytest.raises(InvalidDataError, match="every amplitude must be finite"):
            kernel(psi)
        assert psi.values.tobytes() == before

    def test_nearly_symmetric_input_is_degenerate(self, grid):
        mode0 = wf.oscillator_mode(grid, 0)
        mode1 = wf.oscillator_mode(grid, 1)
        almost = mode0 + 1e-9 * mode1
        state = wf.TwoParticleAmplitude.from_factors(grid, almost, mode0)
        with pytest.raises(DegenerateSymmetryError):
            wf.antisymmetrize(state)


class TestSymmetryDefects:
    def test_antisymmetric_state(self, slater):
        assert wf.antisymmetry_defect(slater) < 1e-13

    def test_symmetric_state(self, grid):
        mode0 = wf.oscillator_mode(grid, 0)
        sym = wf.TwoParticleAmplitude.from_factors(grid, mode0, mode0)
        assert wf.antisymmetry_defect(sym) == pytest.approx(1.0, abs=1e-12)

    def test_pythagorean_split(self, grid):
        # the odd part (Psi - S Psi) / 2 of a unit-norm state has norm
        # 1 / (2 N), N the antisymmetrization coefficient, so the blocked
        # even-part sum and the exchange overlap must add up to the norm
        state = wf.TwoParticleAmplitude.from_factors(
            grid, gaussian_mode(grid, center=-1.0, momentum=1.0),
            gaussian_mode(grid, center=0.5, width=0.8))
        even = wf.antisymmetry_defect(state)
        odd = 0.5 / wf.antisymmetrization_coefficient(state)
        assert even > 0.1 and odd > 0.1
        norm_sq = wf.quadrature_norm(state) ** 2
        assert even ** 2 + odd ** 2 == pytest.approx(norm_sq, rel=1e-12)


class TestFreePropagation:
    def test_zero_time_is_identity(self, slater):
        evolved = wf.free_propagate(slater, 0.0)
        assert np.allclose(evolved.values, slater.values, atol=1e-13)

    def test_norm_preserved(self, slater):
        evolved = wf.free_propagate(slater, 1.0)
        assert wf.quadrature_norm(evolved) == pytest.approx(1.0, abs=1e-12)

    def test_antisymmetry_preserved(self, slater):
        evolved = wf.free_propagate(slater, 1.0)
        assert wf.antisymmetry_defect(evolved) < 1e-12

    def test_symmetry_preserved(self, grid):
        mode0 = wf.oscillator_mode(grid, 0)
        sym = wf.TwoParticleAmplitude.from_factors(grid, mode0, mode0)
        evolved = wf.free_propagate(sym, 0.7)
        odd, _ = reference_defects(evolved.values, grid.quadrature_weights())
        assert odd < 1e-12

    def test_reversible(self, slater):
        back = wf.free_propagate(wf.free_propagate(slater, 0.8), -0.8)
        assert np.allclose(back.values, slater.values, atol=1e-11)

    def test_commutes_with_exchange(self, grid):
        state = wf.TwoParticleAmplitude.from_factors(
            grid, gaussian_mode(grid, center=-1.0, momentum=0.5),
            gaussian_mode(grid, center=1.0, width=0.9))
        a = exchanged(wf.free_propagate(state, 0.6))
        b = wf.free_propagate(exchanged(state), 0.6)
        assert np.allclose(a.values, b.values, atol=1e-12)

    def test_gaussian_spread_law(self):
        # oracle: a width-sigma Gaussian mode spreads so that the marginal
        # density keeps variance (sigma^2 + t^2 / sigma^2) / 2
        grid = wf.Grid1D(x_min=-16.0, x_max=16.0, n=256)
        sigma, t = 0.8, 1.0
        mode = gaussian_mode(grid, width=sigma)
        state = wf.TwoParticleAmplitude.from_factors(grid, mode, mode)
        evolved = wf.free_propagate(state, t)
        w = grid.quadrature_weights()
        marginal = np.sum(w[None, :] * np.abs(evolved.values) ** 2, axis=1)
        marginal /= np.sum(w * marginal)
        variance = float(np.sum(w * grid.points ** 2 * marginal))
        assert variance == pytest.approx((sigma ** 2 + t ** 2 / sigma ** 2) / 2.0,
                                         rel=1e-8)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_time_not_finite_is_parameter_error(self, slater, t):
        with pytest.raises(InvalidParameterError, match="time t must be finite"):
            wf.free_propagate(slater, t)

    def test_support_at_edge_rejected(self, grid):
        mode_far = gaussian_mode(grid, center=8.0)
        state = wf.TwoParticleAmplitude.from_factors(grid, mode_far, mode_far)
        with pytest.raises(GridTooSmallError):
            wf.free_propagate(state, 0.5)

    @pytest.mark.parametrize("cell", [np.nan, np.inf, complex(0.0, -np.inf)],
                             ids=["nan", "inf", "imaginary-inf"])
    def test_amplitude_not_finite_is_data_error(self, cell):
        # a NaN peak would pass the edge check and spread to every cell
        grid = wf.Grid1D(x_min=-12.0, x_max=12.0, n=32)
        values = wf.antisymmetrize(wf.TwoParticleAmplitude.from_factors(
            grid, wf.oscillator_mode(grid, 0), wf.oscillator_mode(grid, 1))).values.copy()
        values[16, 9] = cell
        with pytest.raises(InvalidDataError, match=r"\(input\)"):
            wf.free_propagate(wf.TwoParticleAmplitude(grid=grid, values=values), 0.5)

    def test_allocates_little_beyond_its_output(self):
        # the edge checks take the peak one strip at a time; a whole-array
        # magnitude table would add half an n x n array
        grid = wf.Grid1D(x_min=-12.0, x_max=12.0, n=512)
        state = wf.TwoParticleAmplitude.from_factors(
            grid, wf.oscillator_mode(grid, 0), wf.oscillator_mode(grid, 1))
        tracemalloc.start()
        try:
            evolved = wf.free_propagate(state, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        array = 16 * grid.n ** 2
        assert evolved.values.nbytes == array
        assert (peak - array) / array <= 0.25


def exchanged(psi):
    """The particle-exchanged amplitude Psi(y, x)."""
    return wf.TwoParticleAmplitude(grid=psi.grid, values=psi.values.T.copy())


# The formulas the kernels had before they were rewritten for speed and
# memory, kept as references.  On unit-normalised amplitudes the rewritten
# kernels differ from them by float64 rounding only (a few ulp through
# the transforms and sums), so the bound is fixed at 1e-13.
REFERENCE_ATOL = 1e-13


def reference_inner(a, b, w):
    return complex(np.einsum("i,j,ij,ij->", w, w, np.conj(a), b))


def reference_norm(values, w):
    return math.sqrt(reference_inner(values, values, w).real)


def reference_propagate(values, k, t):
    phase = np.exp(-0.5j * t * (k[:, None] ** 2 + k[None, :] ** 2))
    return np.fft.ifft2(np.fft.fft2(values) * phase)


def reference_antisymmetrize(values, w):
    coeff = 1.0 / math.sqrt(2.0 - 2.0 * reference_inner(values, values.T.copy(), w).real)
    return coeff * (values - values.T)


def reference_defects(values, w):
    return (reference_norm(0.5 * (values - values.T), w),
            reference_norm(0.5 * (values + values.T), w))


@pytest.fixture(scope="module", params=[128, 97])
def skewed(request):
    """Complex, exchange-asymmetric, unit-normalised amplitude of rank two.

    n = 97 leaves ragged blocks at the edge of the exchange tiling and
    is prime, which sends the FFT down its Bluestein path.
    """
    grid = wf.Grid1D(x_min=-12.0, x_max=12.0, n=request.param)
    values = (np.outer(gaussian_mode(grid, center=-1.0, width=0.9, momentum=1.5),
                       gaussian_mode(grid, center=0.7, width=1.1, momentum=-0.8))
              + 0.5 * np.outer(gaussian_mode(grid, center=0.3, width=0.8, momentum=1.2),
                               gaussian_mode(grid, center=-1.4, width=1.3)))
    values /= reference_norm(values, grid.quadrature_weights())
    return wf.TwoParticleAmplitude(grid=grid, values=values)


class TestKernelReferences:
    def test_free_propagate(self, skewed):
        for t in (0.0, 0.3, -0.5):
            got = wf.free_propagate(skewed, t).values
            want = reference_propagate(skewed.values, skewed.grid.wavenumbers, t)
            assert np.max(np.abs(got - want)) <= REFERENCE_ATOL

    def test_antisymmetrize(self, skewed):
        w = skewed.grid.quadrature_weights()
        got = wf.antisymmetrize(skewed).values
        assert np.max(np.abs(got - reference_antisymmetrize(skewed.values, w))) <= (
            REFERENCE_ATOL)

    def test_symmetry_defects(self, skewed):
        odd, even = reference_defects(skewed.values, skewed.grid.quadrature_weights())
        assert min(odd, even) > 0.1
        assert wf.antisymmetry_defect(skewed) == pytest.approx(
            even, rel=0, abs=REFERENCE_ATOL)

    def test_quadrature_norm(self, skewed):
        assert wf.quadrature_norm(skewed) == pytest.approx(
            reference_norm(skewed.values, skewed.grid.quadrature_weights()),
            rel=0, abs=REFERENCE_ATOL)

    def test_swap_overlap(self, skewed):
        # the n0f-symmetric-input report prints this value, a real number
        w = skewed.grid.quadrature_weights()
        mode0 = wf.oscillator_mode(skewed.grid, 0)
        sym = wf.TwoParticleAmplitude.from_factors(skewed.grid, mode0, mode0)
        for psi in (skewed, sym):
            got = wf.swap_overlap(psi)
            assert type(got) is float
            assert got == pytest.approx(
                reference_inner(psi.values, psi.values.T.copy(), w).real,
                rel=0, abs=REFERENCE_ATOL)

    def test_from_factors(self, skewed):
        f = gaussian_mode(skewed.grid, center=-1.0, momentum=1.5)
        g = gaussian_mode(skewed.grid, center=0.7, width=1.1)
        got = wf.TwoParticleAmplitude.from_factors(skewed.grid, f, g).values
        assert got.tobytes() == (f[:, None] * g).tobytes()

    @pytest.mark.parametrize("kernel", [
        lambda psi: wf.free_propagate(psi, 0.7),
        wf.antisymmetrize,
        wf.antisymmetry_defect,
        wf.swap_overlap,
    ], ids=["free_propagate", "antisymmetrize", "antisymmetry_defect", "swap_overlap"])
    def test_input_left_unchanged(self, skewed, kernel):
        before = skewed.values.tobytes()
        kernel(skewed)
        assert skewed.values.tobytes() == before


def owned_pipeline(psi, t):
    """antisymmetrize, then free_propagate for time t, in one array that
    the pipeline owns, a copy of psi's; the result and that array."""
    owned = wf._OwnedAmplitude(grid=psi.grid, values=psi.values.copy())
    return wf.free_propagate(wf.antisymmetrize(owned), t), owned.values


class TestOwnedArray:
    """The CLI's preservation check: an _OwnedAmplitude is projected and
    propagated in place, by the same bodies as the public kernels."""

    def test_matches_the_public_kernels(self, skewed):
        for t in (0.0, 0.3, -0.5):
            got, owned = owned_pipeline(skewed, t)
            assert got.values is owned and isinstance(got, wf._OwnedAmplitude)
            want = wf.free_propagate(wf.antisymmetrize(skewed), t).values
            assert np.max(np.abs(got.values - want)) <= REFERENCE_ATOL

    def test_same_bits_for_any_cpu_count(self, skewed, monkeypatch):
        threads = threading.active_count()
        results = set()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(series, "_usable_cpus", lambda: cpus)
            results.add(owned_pipeline(skewed, 0.7)[0].values.tobytes())
            assert threading.active_count() == threads
        assert len(results) == 1

    def test_allocates_little_beyond_the_array_it_owns(self, skewed):
        # the projection reads each tile pair into one tile-sized
        # block, and the transforms run in place; the first call of a grid
        # size fills numpy's FFT plan cache, which later calls reuse
        owned_pipeline(skewed, 0.7)
        owned = wf._OwnedAmplitude(grid=skewed.grid, values=skewed.values.copy())
        tracemalloc.start()
        try:
            wf.free_propagate(wf.antisymmetrize(owned), 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / owned.values.nbytes <= 0.25


# the kernels that split their n x n passes into bands, as functions of
# an amplitude and two factors, each giving an array or a number
BANDED = {
    "free_propagate": lambda psi, f, g: wf.free_propagate(psi, 0.7).values,
    "quadrature_norm": lambda psi, f, g: wf.quadrature_norm(psi),
}


# the kernels that run in the calling thread: their tile pairs make
# several small numpy calls each, which hold the interpreter lock, and
# one np.outer was as fast as two bands
UNBANDED = {
    "swap_overlap": lambda psi, f, g: wf.swap_overlap(psi),
    "antisymmetrize": lambda psi, f, g: wf.antisymmetrize(psi).values,
    "antisymmetry_defect": lambda psi, f, g: wf.antisymmetry_defect(psi),
    "from_factors": lambda psi, f, g: wf.TwoParticleAmplitude.from_factors(
        psi.grid, f, g).values,
}


def counting_starts(monkeypatch) -> list:
    """The threads started from now on, as a list that can be cleared."""
    starts = []
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


class TestBands:
    """The kernels with 1, 2 and 3 usable CPUs: at n = 97 and 128 the
    bands are ragged, and at 97 the transforms are of prime length."""

    @pytest.mark.parametrize("kernel", BANDED.values(), ids=BANDED)
    def test_same_bits_for_any_band_count(self, skewed, monkeypatch, kernel):
        f = gaussian_mode(skewed.grid, center=-1.0, momentum=1.5)
        g = gaussian_mode(skewed.grid, center=0.7, width=1.1)
        inputs = (skewed.values, f, g)
        before = [a.tobytes() for a in inputs]
        threads = threading.active_count()
        starts = counting_starts(monkeypatch)
        results = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(series, "_usable_cpus", lambda: cpus)
            del starts[:]
            results[cpus] = np.asarray(kernel(skewed, f, g)).tobytes()
            assert [a.tobytes() for a in inputs] == before
            assert threading.active_count() == threads
            assert (len(starts) > 0) == (cpus > 1)
        assert results[2] == results[1] and results[3] == results[1]

    @pytest.mark.parametrize("kernel", UNBANDED.values(), ids=UNBANDED)
    def test_runs_in_the_calling_thread(self, skewed, monkeypatch, kernel):
        f = gaussian_mode(skewed.grid, center=-1.0, momentum=1.5)
        g = gaussian_mode(skewed.grid, center=0.7, width=1.1)
        inputs = (skewed.values, f, g)
        before = [a.tobytes() for a in inputs]
        starts = counting_starts(monkeypatch)
        results = set()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(series, "_usable_cpus", lambda: cpus)
            results.add(np.asarray(kernel(skewed, f, g)).tobytes())
            assert [a.tobytes() for a in inputs] == before
        assert starts == [] and len(results) == 1

    def test_bands_cover_the_range_in_order(self, monkeypatch):
        monkeypatch.setattr(series, "_usable_cpus", lambda: 3)
        assert wf._bands(97) == [(0, 32), (32, 64), (64, 97)]
        assert wf._bands(2) == [(0, 1), (1, 2)]
        monkeypatch.setattr(series, "_usable_cpus", lambda: 1)
        assert wf._bands(97) == [(0, 97)]

    def test_helper_error_reaches_the_caller(self, skewed, monkeypatch):
        monkeypatch.setattr(series, "_usable_cpus", lambda: 3)
        row_sums = wf._row_sums_band

        def failing(start, stop, *args):
            if start > 0:
                raise ZeroDivisionError(f"band at row {start}")
            row_sums(start, stop, *args)

        monkeypatch.setattr(wf, "_row_sums_band", failing)
        threads = threading.active_count()
        # the second band is the first that fails
        with pytest.raises(ZeroDivisionError, match=f"band at row {skewed.grid.n // 3}$"):
            wf.quadrature_norm(skewed)
        assert threading.active_count() == threads

    def test_reader_pool_starts_after_a_run(self, tmp_path, monkeypatch, capsys, forks):
        # _ordered_map forks only while one thread runs, so every helper
        # must be gone when the command returns
        monkeypatch.setattr(series, "_usable_cpus", lambda: 2)
        assert main(["wavefunction", "--check", "antisymmetry-preservation",
                     "--n", "64"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(series, "READ_BLOCK_BYTES", 64)
        x = np.arange(500) / 7.0
        path = tmp_path / "x.csv"
        path.write_text("x\n" + "".join("%.17g\n" % v for v in x))
        assert series.read_columns(path, ["x"])["x"].tobytes() == x.tobytes()
        assert len(forks) == 1


class TestQuadratureConvergence:
    def test_coefficient_converges_under_refinement(self):
        # displaced-Gaussian product on a fixed box; the grid-refinement
        # differences must collapse toward the continuum value
        exact = 1.0 / math.sqrt(2.0 - 2.0 * math.exp(-0.5))
        values = []
        for n in (16, 32, 64):
            grid = wf.Grid1D(x_min=-7.0, x_max=7.0, n=n)
            product = wf.TwoParticleAmplitude.from_factors(
                grid, gaussian_mode(grid, center=-0.5),
                gaussian_mode(grid, center=0.5))
            values.append(wf.antisymmetrization_coefficient(product))
        step1 = abs(values[1] - values[0])
        step2 = abs(values[2] - values[1])
        assert step2 < 0.25 * step1
        assert values[2] == pytest.approx(exact, rel=1e-7)
