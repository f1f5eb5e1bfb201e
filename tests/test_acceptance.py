"""Acceptance gate: one test per release criterion.

Each test prints and logs a single '[criterion N] name: PASS/FAIL'
line (see the terminal section emitted after the run, or use -s).
Criteria with a runtime budget fail when the budget is exceeded.
"""
import hashlib
import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from firstphoton import analytic as an
from firstphoton import estimation as es
from firstphoton import kinetics as kn
from firstphoton import montecarlo as mc
from firstphoton import wavefunction as wf
from firstphoton.cli import main as cli_main
from firstphoton.errors import DegenerateSymmetryError, WindowTooWideError
from firstphoton.series import read_columns

RATES = an.RatePair(1.0, 1.5)
WINDOW_REF = an.WindowConfig(tau=5.0 / 6.0)

ENTANGLED_SEED = 1234
PRODUCT_SEED = 4321
MILLION = 1_000_000


def _finish(log, num, name, failures, elapsed=None, budget=None):
    if budget is not None and elapsed is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded {budget:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    line = f"[criterion {num}] {name}: {status}{timing}"
    if failures:
        line += " :: " + "; ".join(failures)
    print(line)
    log.append(line)
    assert not failures, line


def test_criterion_1_compatibility(acceptance_log):
    start = time.perf_counter()
    failures = []

    solved = an.solve_compatibility(RATES)
    for got, want, label in zip(solved, (1.0, 1.5, 2.5),
                                ("channel_a", "channel_b", "combined")):
        if abs(got - want) > 1e-10:
            failures.append(f"{label} rate {got!r} not within 1e-10 of {want}")

    t = np.linspace(0.0, 4.0, 1000)
    for channel, rate in (("A", 1.0), ("B", 1.5)):
        gap = np.max(np.abs(an.emission_derivative_ordered(t, RATES, channel)
                            - an.emission_derivative_direct(t, rate)))
        if gap > 1e-12:
            failures.append(f"channel {channel} bookkeeping gap {gap:.3e} > 1e-12")

    _finish(acceptance_log, 1, "compatibility identification", failures,
            time.perf_counter() - start, budget=1.0)


def test_criterion_2_kinetics_integration(acceptance_log):
    start = time.perf_counter()
    failures = []

    config = kn.IntegratorConfig(step=1e-3, t_end=4.0)
    traj = kn.integrate(kn.initial_state(1.0), RATES, config)
    t = config.step * np.arange(len(traj))
    closed = {
        "n_e": np.exp(-2.5 * t),
        "n_a": np.exp(-1.0 * t) - np.exp(-2.5 * t),
        "n_b": np.exp(-1.5 * t) - np.exp(-2.5 * t),
        "cap_n_a": 1.0 - np.exp(-1.0 * t),
        "cap_n_b": 1.0 - np.exp(-1.5 * t),
        "cap_n_f": 1.0 - np.exp(-2.5 * t),
    }
    for field, expect in closed.items():
        got = traj[:, kn.STATE_FIELDS.index(field)]
        gap = float(np.max(np.abs(got - expect)))
        if gap > 1e-9:
            failures.append(f"{field} deviates from closed form by {gap:.3e}")

    excitation, first = kn.conservation_defects(traj, 1.0)
    broken = (np.abs(excitation) > 1e-9) | (np.abs(first) > 1e-9)
    if broken.any():
        failures.append(f"conservation broken at t={t[np.argmax(broken)]:.3f}")

    errors = []
    for h in (4e-3, 2e-3, 1e-3):
        cfg = kn.IntegratorConfig(step=h, t_end=4.0)
        run = kn.integrate(kn.initial_state(1.0), RATES, cfg)
        tt = h * np.arange(len(run))
        n_e = run[:, 0]
        errors.append(float(np.max(np.abs(n_e - np.exp(-2.5 * tt)))))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    for order in orders:
        if abs(order - 4.0) > 0.3:
            failures.append(f"convergence order {order:.3f} outside 4.0 +- 0.3")

    _finish(acceptance_log, 2, "rate equations vs closed forms", failures,
            time.perf_counter() - start, budget=5.0)


def test_criterion_3_entangled_exponential_law(acceptance_log):
    start = time.perf_counter()
    failures = []

    config = mc.SimConfig(n_pairs=MILLION, rates=RATES, kind="entangled",
                          window=an.WindowConfig(tau=0.02), seed=ENTANGLED_SEED)
    records = mc.simulate(config, n_workers=4)

    fit = es.mle_exponential(records["t_first"])
    if not 2.4925 <= fit.rate_estimate <= 2.5075:
        failures.append(f"combined-rate MLE {fit.rate_estimate:.5f} outside [2.4925, 2.5075]")

    frac = float(np.mean(records["first_is_a"]))
    limit = 3.0 * math.sqrt(0.24) / 1e3
    if abs(frac - 0.4) > limit:
        failures.append(f"channel-A fraction {frac:.5f} beyond 0.4 +- {limit:.5f}")

    ks = es.ks_distance(records["t_first"],
                        lambda t: an.first_emission_cdf_entangled(t, RATES))
    if ks >= 1.63e-3:
        failures.append(f"KS distance {ks:.5f} not below 1.63e-3")

    _finish(acceptance_log, 3, "entangled exponential law", failures,
            time.perf_counter() - start, budget=30.0)


def test_criterion_4_product_postselected_law(acceptance_log):
    start = time.perf_counter()
    failures = []

    # the records do not depend on the window; post-selection applies it
    config = mc.SimConfig(n_pairs=MILLION, rates=RATES, kind="product",
                          window=an.WindowConfig(tau=0.02), seed=PRODUCT_SEED)
    records = mc.simulate(config, n_workers=4)
    for mode in an.WINDOW_MODES:
        for tau in (0.02, 0.1, 0.3):
            window = an.WindowConfig(tau=tau, mode=mode)
            label = f"{mode} tau={tau}"
            kept, summary = mc.postselect(records, window)

            # kept pairs are seen as two isolated one-photon windows each;
            # their pooled detection times follow the exact window law
            times = mc.one_photon_window_times(kept)
            ks = es.ks_distance(times, lambda t: an.product_first_cdf(t, RATES, window, "exact"))
            critical = es.ks_critical_value(times.size, 0.01)
            if ks > critical:
                failures.append(f"{label}: KS distance {ks:.5f} > {critical:.5f}")

            predicted = an.coincidence_probability(RATES, window)
            sigma = math.sqrt(predicted * (1.0 - predicted) / MILLION)
            dev = abs(summary.empirical_coincidence_rate - predicted)
            if dev > 3.0 * sigma:
                failures.append(
                    f"{label}: coincidence rate off by {dev / sigma:.2f} sigma (> 3)")

    _finish(acceptance_log, 4, "product post-selected law", failures,
            time.perf_counter() - start, budget=30.0)


def test_criterion_5_normalization(acceptance_log):
    start = time.perf_counter()
    failures = []

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", an.ApproximationBreakdownWarning)
        value, _ = quad(
            lambda t: an.product_one_emission_unnormalized(t, RATES, WINDOW_REF)
            / WINDOW_REF.tau, 0.0, 60.0)
    if abs(value - 1.0) > 1e-6:
        failures.append(f"window-curve quadrature {value!r} not 1 within 1e-6")

    alpha = an.normalization_alpha(RATES, WINDOW_REF)
    if abs(alpha - 1.0) > 1e-12:
        failures.append(f"alpha {alpha!r} not 1 within 1e-12")

    try:
        an.normalization_alpha(RATES, an.WindowConfig(tau=5.0 / 3.0))
    except WindowTooWideError:
        pass
    else:
        failures.append("tau=5/3 did not trigger the validity-bound error")

    _finish(acceptance_log, 5, "window-law normalization", failures,
            time.perf_counter() - start)


def test_criterion_6_reference_curve_ordering(acceptance_log, tmp_path):
    start = time.perf_counter()
    failures = []

    out = tmp_path / "curves.csv"
    code = cli_main(["analytic", "--gamma-a", "1.0", "--gamma-b", "1.5",
                     "--tau", f"{5.0 / 6.0!r}", "--t-max", "4.0",
                     "--n-points", "1000", "--out", str(out)])
    if code != 0:
        failures.append(f"curve tabulation exited {code}")
    else:
        cols = read_columns(out, ["t", "nf_entangled", "nf_product", "n_a", "n_b"])
        slack = 1e-12
        if not np.all(cols["nf_entangled"] >= cols["nf_product"] - slack):
            failures.append("entangled curve dips below the product curve")
        if not np.all(cols["nf_entangled"] >= cols["n_b"] - slack):
            failures.append("entangled curve is not the fastest riser")
        if not np.all(cols["n_b"] >= cols["n_a"] - slack):
            failures.append("single-atom curves out of order")
        if not np.all(cols["n_a"] >= cols["nf_product"] - slack):
            failures.append("product curve rises above the single-atom envelope")
        mid = len(cols["t"]) // 2
        if not (cols["nf_entangled"][mid] > cols["n_b"][mid]
                > cols["n_a"][mid] > cols["nf_product"][mid]):
            failures.append("ordering is not strict at interior times")

    _finish(acceptance_log, 6, "reference-point curve ordering", failures,
            time.perf_counter() - start)


def test_criterion_7_discrimination_power(acceptance_log):
    start = time.perf_counter()
    failures = []

    n_trials = 100
    correct = 0
    for trial in range(n_trials):
        entangled = trial % 2 == 0
        kind = "entangled" if entangled else "product"
        config = mc.SimConfig(n_pairs=10_000, rates=RATES, kind=kind,
                              window=WINDOW_REF, seed=10_000 + trial)
        records = mc.simulate(config)
        if entangled:
            times = records["t_first"]
        else:
            kept, _ = mc.postselect(records, WINDOW_REF)
            times = mc.one_photon_window_times(kept)
        result = es.discriminate(times, RATES, WINDOW_REF)
        correct += result.preferred == kind
        # the classifier's ratio is of the per-model laws the library offers
        scores = (es.log_likelihood_entangled(times, RATES),
                  es.log_likelihood_product(times, RATES, WINDOW_REF))
        if (result.ll_entangled, result.ll_product) != scores:
            failures.append(f"trial {trial}: discriminate scored {result.ll_entangled!r}, "
                            f"{result.ll_product!r}, not the per-model {scores}")

    if correct < 99:
        failures.append(f"only {correct}/100 trials identified the generator")

    _finish(acceptance_log, 7, f"discrimination power ({correct}/100)", failures,
            time.perf_counter() - start, budget=60.0)


def test_criterion_8_exchange_symmetry(acceptance_log):
    start = time.perf_counter()
    failures = []

    grid = wf.Grid1D(x_min=-12.0, x_max=12.0, n=256)
    product = wf.TwoParticleAmplitude.from_factors(
        grid, wf.oscillator_mode(grid, 0), wf.oscillator_mode(grid, 1))
    fermionic = wf.antisymmetrize(product)

    coeff = wf.antisymmetrization_coefficient(fermionic)
    if abs(coeff - 0.5) > 1e-10:
        failures.append(f"normalization coefficient {coeff!r} not 0.5 within 1e-10")

    evolved = wf.free_propagate(fermionic, 1.0)
    defect = wf.antisymmetry_defect(evolved)
    norm = wf.quadrature_norm(evolved)
    if defect / norm > 1e-10:
        failures.append(f"antisymmetry defect {defect:.3e} above 1e-10 relative")
    if abs(norm - 1.0) > 1e-12:
        failures.append(f"norm drifted by {abs(norm - 1.0):.3e} (> 1e-12)")

    symmetric = wf.TwoParticleAmplitude.from_factors(
        grid, wf.oscillator_mode(grid, 0), wf.oscillator_mode(grid, 0))
    try:
        wf.antisymmetrize(symmetric)
    except DegenerateSymmetryError:
        pass
    else:
        failures.append("symmetric input did not raise the degenerate error")

    _finish(acceptance_log, 8, "exchange-symmetry suite", failures,
            time.perf_counter() - start, budget=10.0)


def test_criterion_9_worker_determinism(acceptance_log, tmp_path):
    start = time.perf_counter()
    failures = []

    digests = {}
    for workers in (1, 2, 8):
        out = tmp_path / f"records_w{workers}.csv"
        code = cli_main(["simulate", "--kind", "entangled",
                         "--gamma-a", "1.0", "--gamma-b", "1.5",
                         "--n-pairs", str(MILLION), "--seed", str(ENTANGLED_SEED),
                         "--workers", str(workers), "--out", str(out)])
        if code != 0:
            failures.append(f"simulate with {workers} workers exited {code}")
            continue
        digests[workers] = hashlib.sha256(out.read_bytes()).hexdigest()

    if len(set(digests.values())) > 1:
        failures.append(f"record CSVs differ across worker counts: {digests}")

    _finish(acceptance_log, 9, "worker-count determinism", failures,
            time.perf_counter() - start)
