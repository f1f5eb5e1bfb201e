#!/usr/bin/env python3
"""Estimate discrimination power as a function of sample size.

For each N in the sweep, runs seeded trials that alternate between
the two preparations, entangled first (so an even --trials splits them
evenly), classifies each sample with the likelihood-ratio test, and
reports the fraction identified correctly. Writes one CSV row per N so
the power curve can be plotted directly. Bad input exits as the CLI
does, 2, 3 or 4 with one error line, and writes nothing; so does
running out of memory, with 2.
"""
import argparse
import sys
import time

import numpy as np

from firstphoton import analytic as an
from firstphoton import estimation as es
from firstphoton import montecarlo as mc
from firstphoton.cli import run_entry_point
from firstphoton.errors import InvalidParameterError
from firstphoton.series import write_table


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--gamma-a", type=float, default=1.0)
    p.add_argument("--gamma-b", type=float, default=1.5)
    p.add_argument("--tau", type=float, default=5.0 / 6.0)
    p.add_argument("--sizes", type=int, nargs="+",
                   default=[100, 300, 1000, 3000, 10000])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="discrimination_power.csv")
    return p.parse_args(argv)


def run_trial(config):
    records = mc.simulate(config)
    if config.kind == mc.KIND_ENTANGLED:
        times = records["t_first"]
    else:
        # the detector cannot label a kept photon first or second, so the
        # product-side sample pools both window times of surviving pairs
        kept, _ = mc.postselect(records, config.window)
        times = mc.one_photon_window_times(kept)
    return es.discriminate(times, config.rates, config.window)


def run(args):
    if args.trials < 1:
        raise InvalidParameterError(f"--trials must be at least 1, got {args.trials}")
    rates = an.RatePair(args.gamma_a, args.gamma_b)
    window = an.WindowConfig(tau=args.tau)

    def config(n_pairs, trial):
        kind = mc.KIND_ENTANGLED if trial % 2 == 0 else mc.KIND_PRODUCT
        return mc.SimConfig(n_pairs=n_pairs, rates=rates, kind=kind, window=window,
                            seed=args.seed + 1000 * n_pairs + trial)

    # a size's seeds run from its first trial's to its last's, so building
    # those two configs checks every trial, its record size included,
    # before the first one runs
    for n_pairs in args.sizes:
        for trial in (0, args.trials - 1):
            config(n_pairs, trial)

    sizes, power, mean_ratio = [], [], []
    for n_pairs in args.sizes:
        t0 = time.perf_counter()
        correct = 0
        ratios = []
        for trial in range(args.trials):
            trial_config = config(n_pairs, trial)
            result = run_trial(trial_config)
            correct += result.preferred == trial_config.kind
            ratios.append(abs(result.log_likelihood_ratio))
        sizes.append(float(n_pairs))
        power.append(correct / args.trials)
        mean_ratio.append(float(np.mean(ratios)))
        print(f"N={n_pairs:>7d}  correct {correct:>3d}/{args.trials}"
              f"  mean |log LR| {mean_ratio[-1]:9.2f}"
              f"  [{time.perf_counter() - t0:.1f}s]")

    write_table(args.out, ["n_pairs", "fraction_correct", "mean_abs_log_ratio"],
                [np.array(sizes), np.array(power), np.array(mean_ratio)])
    print(f"wrote {args.out}")
    return 0


def main(argv=None):
    # as the CLI: one error line and its exit code, and no file
    return run_entry_point(run, parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
