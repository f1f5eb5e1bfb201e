#!/usr/bin/env python3
"""Tabulate first-emission curves and overlay Monte Carlo estimates.

Writes <prefix>_analytic.csv with the closed-form curves and
<prefix>_empirical.csv with seeded ECDFs for both preparations, then
prints the fitted combined rate for the entangled sample. Feed the
CSVs to any plotting tool; columns are documented in the README. Bad
input exits as the CLI does, 2, 3 or 4 with one error line, and
writes neither file.
"""
import argparse
import sys

import numpy as np

from firstphoton import analytic as an
from firstphoton import estimation as es
from firstphoton import montecarlo as mc
from firstphoton.errors import FirstPhotonError, InvalidParameterError
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
    if args.n_points < 2:
        raise InvalidParameterError(f"--n-points must be at least 2, got {args.n_points}")
    if not (np.isfinite(args.t_max) and args.t_max > 0.0):
        raise InvalidParameterError(f"--t-max must be positive and finite, got {args.t_max!r}")
    ent_config = mc.SimConfig(n_pairs=args.n_pairs, rates=rates, kind=mc.KIND_ENTANGLED,
                              window=window, seed=args.seed)
    prod_config = mc.SimConfig(n_pairs=args.n_pairs, rates=rates, kind=mc.KIND_PRODUCT,
                               window=window, seed=args.seed + 1)

    # every column is computed before either file is written
    t = np.linspace(0.0, args.t_max, args.n_points)
    analytic = [t,
                an.first_emission_cdf_entangled(t, rates),
                an.product_first_cdf(t, rates, window, an.VARIANT_EXACT),
                an.single_type_cdf(t, rates.gamma_a),
                an.single_type_cdf(t, rates.gamma_b)]
    ent = mc.simulate(ent_config)
    kept, summary = mc.postselect(mc.simulate(prod_config), window)
    empirical = [t,
                 mc.empirical_cdf(ent["t_first"], t),
                 mc.empirical_cdf(mc.one_photon_window_times(kept), t)]
    fit = es.mle_exponential(ent["t_first"])

    write_table(f"{args.prefix}_analytic.csv",
                ["t", "nf_entangled", "nf_product", "n_a", "n_b"], analytic)
    write_table(f"{args.prefix}_empirical.csv",
                ["t", "ecdf_entangled", "ecdf_product_kept"], empirical)
    print(f"entangled combined rate: {fit.rate_estimate:.6f} "
          f"+- {fit.std_error:.6f} (expected {rates.gamma_f})")
    print(f"product pairs kept after post-selection: {summary.kept}"
          f" / {args.n_pairs}"
          f" (coincidence rate {summary.empirical_coincidence_rate:.6f},"
          f" predicted {an.coincidence_probability(rates, window):.6f})")


def main(argv=None):
    args = parse_args(argv)
    # as the CLI: one error line and its exit code, and no file
    try:
        run(args)
    except FirstPhotonError as exc:
        print("error:", exc, file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
