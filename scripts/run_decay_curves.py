#!/usr/bin/env python3
"""Tabulate first-emission curves and overlay Monte Carlo estimates.

Writes <prefix>_analytic.csv with the closed-form curves and
<prefix>_empirical.csv with seeded ECDFs for both preparations, then
prints the fitted combined rate for the entangled sample. Feed the
CSVs to any plotting tool; columns are documented in the README. Bad
input exits as the CLI does, 2, 3 or 4 with one error line, and
writes neither file; so does running out of memory, with 2.
"""
import argparse
import sys

from firstphoton import analytic as an
from firstphoton import estimation as es
from firstphoton import montecarlo as mc
from firstphoton.cli import run_entry_point
from firstphoton.series import write_table


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--gamma-a", type=float, default=1.0)
    p.add_argument("--gamma-b", type=float, default=1.5)
    p.add_argument("--tau", type=float, default=5.0 / 6.0)
    p.add_argument("--t-max", type=float, default=4.0)
    p.add_argument("--n-points", type=int, default=401)
    p.add_argument("--n-pairs", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prefix", default="decay_curves")
    return p.parse_args(argv)


def run(args):
    rates = an.RatePair(args.gamma_a, args.gamma_b)
    window = an.WindowConfig(tau=args.tau)
    ent_config = mc.SimConfig(n_pairs=args.n_pairs, rates=rates, kind=mc.KIND_ENTANGLED,
                              window=window, seed=args.seed)
    prod_config = mc.SimConfig(n_pairs=args.n_pairs, rates=rates, kind=mc.KIND_PRODUCT,
                               window=window, seed=args.seed + 1)

    # every column is computed before either file is written
    analytic = an.curve_table(rates, window, args.t_max, args.n_points, an.VARIANT_EXACT)
    t = analytic["t"]
    ent = mc.simulate(ent_config)
    kept, summary = mc.postselect(mc.simulate(prod_config), window)
    empirical = [t,
                 mc.empirical_cdf(ent["t_first"], t),
                 mc.empirical_cdf(mc.one_photon_window_times(kept), t)]
    fit = es.mle_exponential(ent["t_first"])

    write_table(f"{args.prefix}_analytic.csv", list(analytic), list(analytic.values()))
    write_table(f"{args.prefix}_empirical.csv",
                ["t", "ecdf_entangled", "ecdf_product_kept"], empirical)
    print(f"entangled combined rate: {fit.rate_estimate:.6f} "
          f"+- {fit.std_error:.6f} (expected {rates.gamma_f})")
    print(f"product pairs kept after post-selection: {summary.kept}"
          f" / {args.n_pairs}"
          f" (coincidence rate {summary.empirical_coincidence_rate:.6f},"
          f" predicted {an.coincidence_probability(rates, window):.6f})")
    return 0


def main(argv=None):
    # as the CLI: one error line and its exit code, and no file
    return run_entry_point(run, parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
