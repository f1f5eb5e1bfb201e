"""Command line front end.

Subcommands
    analytic      tabulate the closed-form emission curves as CSV
    simulate      sample pair emissions, write records CSV + summary JSON
    fit           exponential MLE on a sample file, JSON result
    discriminate  entangled-vs-product likelihood comparison, JSON result
    kinetics      fixed-step integration of the rate equations, CSV
    wavefunction  exchange-symmetry checks on a two-particle amplitude

Every file-writing invocation also writes ``<out>.manifest.json``
recording the exact argv, parameters, and outputs; re-running the
stored argv reproduces every output byte for byte.

Exit codes: 0 success, else the error's ``exit_code`` (``errors``):
2 invalid parameters or out of memory, 3 invalid data, 4 model inapplicable.

A ``--config`` file supplies defaults as ``key = value`` lines (long
flag names, ``-`` or ``_`` spelling).  Its lines become flag tokens
placed before the typed ones, so argparse checks them like typed flags
and explicit flags win over the file.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, analytic, estimation, kinetics, montecarlo, wavefunction
from .analytic import RatePair, WindowConfig
from .errors import FirstPhotonError, InvalidDataError, InvalidParameterError
from .series import read_columns, write_table

WAVEFUNCTION_CHECKS = ("antisymmetry-preservation", "n0f-antisymmetric",
                       "n0f-symmetric-input")


def _printable(text: str) -> str:
    """``text`` with the surrogate escapes of bytes that are not UTF-8
    (in a path or argument) as ``\\udcXX``, which any stream prints."""
    return text.encode("utf-8", "backslashreplace").decode()


class _Parser(argparse.ArgumentParser):
    """Usage errors printed as ``main`` prints its own, in subparsers too."""

    def error(self, message):
        super().error(_printable(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="firstphoton",
        description="Kinetics of first-photon emission from two-atom pairs")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="command")

    def common(p, *, window=True, seed=False):
        p.add_argument("--config", metavar="FILE",
                       help="read key = value defaults from FILE")
        p.add_argument("--gamma-a", type=float, default=1.0,
                       help="channel-A emission rate (default 1.0)")
        p.add_argument("--gamma-b", type=float, default=1.5,
                       help="channel-B emission rate (default 1.5)")
        if window:
            p.add_argument("--tau", type=float, default=5.0 / 6.0,
                           help="coincidence window width (default 5/6)")
            p.add_argument("--mode", choices=analytic.WINDOW_MODES,
                           default=analytic.MODE_GRID_BIN,
                           help="post-selection rule (default grid-bin)")
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="key of the one Philox generator the run draws from, "
                                "an integer in [0, 2**128) (default 0)")
            p.add_argument("--n-pairs", type=int, default=100000,
                           help="number of pairs to sample (default 100000)")

    p = sub.add_parser("analytic", help="tabulate closed-form emission curves")
    common(p)
    p.add_argument("--window-variant", choices=analytic.WINDOW_VARIANTS,
                   default=analytic.VARIANT_TAYLOR,
                   help="window law used for the product curve")
    p.add_argument("--t-max", type=float, default=4.0)
    p.add_argument("--n-points", type=int, default=201)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=cmd_analytic)

    p = sub.add_parser("simulate", help="Monte Carlo emission records")
    common(p, seed=True)
    p.add_argument("--kind", choices=montecarlo.PAIR_KINDS,
                   default=montecarlo.KIND_ENTANGLED,
                   help="initial pair state (default entangled)")
    p.add_argument("--workers", type=int, default=1,
                   help="processes that render the CSV, this one included and "
                        "the others forked (at most one per usable CPU); output "
                        "is identical for any count")
    p.add_argument("--out", required=True, help="records CSV path")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("fit", help="exponential MLE on first-photon times")
    common(p)
    p.add_argument("--samples", required=True, metavar="CSV",
                   help="file with a t_first column (t_second too if --postselect)")
    p.add_argument("--postselect", action="store_true",
                   help="apply window post-selection before fitting")
    p.add_argument("--out", help="write the JSON result here as well")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("discriminate",
                       help="entangled vs product likelihood comparison")
    common(p)
    p.add_argument("--samples", required=True, metavar="CSV")
    p.add_argument("--postselect", action="store_true",
                   help="post-select records and use the one-photon "
                        "window-time ensemble instead of raw t_first")
    p.add_argument("--out", help="write the JSON result here as well")
    p.set_defaults(handler=cmd_discriminate)

    p = sub.add_parser("kinetics", help="integrate the rate equations")
    common(p, window=False)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--t-end", type=float, default=4.0)
    p.add_argument("--n-0", type=float, default=1.0, dest="n_0")
    p.add_argument("--rate-scale", type=float, default=1.0,
                   help="scale factor on all first-emission rates")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=cmd_kinetics)

    p = sub.add_parser("wavefunction", help="exchange-symmetry checks")
    p.add_argument("--config", metavar="FILE")
    p.add_argument("--check", choices=WAVEFUNCTION_CHECKS, required=True)
    p.add_argument("--n", type=int, default=256, help="grid points per axis")
    p.add_argument("--x-max", type=float, default=12.0,
                   help="half width of the box (default 12)")
    p.add_argument("--t", type=float, default=1.0,
                   help="free-propagation time (default 1.0)")
    p.add_argument("--out", help="write the JSON report here as well")
    p.set_defaults(handler=cmd_wavefunction)

    parser.command_parsers = dict(sub.choices)
    return parser


def load_config(path) -> list[tuple[str, str]]:
    """Parse ``key = value`` lines into (flag, value) pairs.

    The file is UTF-8, perhaps behind a byte-order mark; '#' starts a
    comment, a key is a long flag name in ``-`` or ``_`` spelling, and a
    value that opens a quote runs to its match, '#' and all, which only a
    comment may follow; the quotes are stripped.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read config file {path}: {exc}") from exc
    pairs = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        # the first '=' comes before any '#'; a quoted value may hold one
        key, _, value = (part.strip() for part in raw.partition("="))
        end = value.find(value[0], 1) if value[:1] in ("'", '"') else -1
        if end > 0 and value[end + 1:].lstrip()[:1] not in ("", "#"):
            raise InvalidParameterError(
                f"{path}:{lineno}: only a comment may follow a quoted value, got {value!r}")
        value = value[1:end] if end > 0 else value.split("#", 1)[0].rstrip()
        pairs.append(("--" + key.replace("_", "-"), value))
    return pairs


def _require_array_size(flag: str, n_items: int, itemsize: int) -> None:
    """InvalidParameterError naming ``flag``, before anything is allocated,
    when an array of n_items items of ``itemsize`` bytes exceeds physical
    memory; past numpy's largest array numpy would raise a bare ValueError."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if n_items * itemsize > physical:
        raise InvalidParameterError(
            f"{flag} asks for an array larger than the {physical / 2**30:.3g} GiB "
            "of physical memory")


def _write_json(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON; a file that cannot be written
    is an invalid ``--out``."""
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc}") from exc


def _write_manifest(args, argv, outputs: list[str]) -> None:
    parameters = {key: value for key, value in vars(args).items()
                  if key not in ("handler", "config")}
    _write_json(f"{outputs[0]}.manifest.json",
                {"subcommand": args.subcommand,
                 "argv": argv,
                 "parameters": parameters,
                 "outputs": [str(p) for p in outputs],
                 "version": __version__})


def cmd_analytic(args) -> tuple[None, list[str]]:
    rates = RatePair(args.gamma_a, args.gamma_b)
    window = WindowConfig(args.tau, args.mode)
    if args.n_points < 2:
        raise InvalidParameterError("need at least 2 grid points")
    if not (np.isfinite(args.t_max) and args.t_max > 0.0):
        raise InvalidParameterError(f"t-max must be positive and finite, got {args.t_max!r}")
    _require_array_size(f"--n-points {args.n_points}", args.n_points, 8)
    t = np.linspace(0.0, args.t_max, args.n_points)
    columns = [
        t,
        analytic.first_emission_cdf_entangled(t, rates),
        analytic.product_first_cdf(t, rates, window, variant=args.window_variant),
        analytic.single_type_cdf(t, rates.gamma_a),
        analytic.single_type_cdf(t, rates.gamma_b),
    ]
    write_table(args.out, ["t", "nf_entangled", "nf_product", "n_a", "n_b"], columns)
    return None, [args.out]


def cmd_simulate(args) -> tuple[None, list[str]]:
    rates = RatePair(args.gamma_a, args.gamma_b)
    window = WindowConfig(args.tau, args.mode)
    config = montecarlo.SimConfig(n_pairs=args.n_pairs, rates=rates,
                                  kind=args.kind, window=window, seed=args.seed)
    _require_array_size(f"--n-pairs {args.n_pairs}", args.n_pairs,
                        montecarlo.RECORD_DTYPE.itemsize)
    records = montecarlo.simulate(config, n_workers=args.workers)
    montecarlo.write_records_csv(args.out, records, n_workers=args.workers)

    summary = montecarlo.PostSelectionSummary.of_mask(
        montecarlo.keep_mask(records, window))
    first_a = float(np.mean(records["first_is_a"]))
    payload = {
        "kind": args.kind,
        "n_pairs": int(args.n_pairs),
        "seed": int(args.seed),
        "gamma_a": rates.gamma_a,
        "gamma_b": rates.gamma_b,
        "tau": window.tau,
        "mode": window.mode,
        "kept": summary.kept,
        "discarded": summary.discarded,
        "empirical_coincidence_rate": summary.empirical_coincidence_rate,
        "predicted_coincidence_rate": (
            analytic.coincidence_probability(rates, window)
            if args.kind == montecarlo.KIND_PRODUCT else None),
        "channel_fraction_first_a": first_a,
        "channel_fraction_first_b": 1.0 - first_a,
    }
    summary_path = f"{args.out}.summary.json"
    _write_json(summary_path, payload)
    return None, [args.out, summary_path]


@contextlib.contextmanager
def _naming(path):
    """A FirstPhotonError of the block raised with ``path: `` before its
    message, a parameter error as the data's (see _score_samples)."""
    try:
        yield
    except FirstPhotonError as exc:
        cls = InvalidDataError if isinstance(exc, InvalidParameterError) else type(exc)
        raise cls(f"{path}: {exc}") from None


def _load_times(args, window: WindowConfig) -> np.ndarray:
    if not args.postselect:
        return read_columns(args.samples, ["t_first"])["t_first"]
    records = montecarlo.read_records_csv(args.samples)
    with _naming(args.samples):
        kept, summary = montecarlo.postselect(records, window)
    del records     # before the times are allocated
    if summary.kept == 0 and summary.discarded > 0:
        raise InvalidDataError(
            f"{args.samples}: post-selection ({window.mode}, tau = {window.tau:g}) "
            f"kept none of its {summary.discarded} pairs")
    return montecarlo.one_photon_window_times(kept)


def _score_samples(args, score) -> dict:
    """``score(times, rates, window)`` of the ``--samples`` times, as a dict.

    The flags are checked first at the latest time a simulated record can
    hold under them, with the checks the times meet later (the bin index,
    and for ``discriminate`` the product law): a failure there is the
    flags' (exit 2), and one only at the samples' times is theirs (exit 3).
    Every error names the file.
    """
    rates, window = RatePair(args.gamma_a, args.gamma_b), WindowConfig(args.tau, args.mode)
    latest = montecarlo.latest_time(rates, window)
    if args.subcommand == "discriminate":
        analytic.product_first_pdf(latest, rates, window)
    times = _load_times(args, window)
    with _naming(args.samples):
        return asdict(score(times, rates, window))


def cmd_fit(args) -> tuple[dict, list[str]]:
    return _score_samples(args, lambda times, *_: estimation.mle_exponential(times)), []


def cmd_discriminate(args) -> tuple[dict, list[str]]:
    return _score_samples(args, estimation.discriminate), []


def cmd_kinetics(args) -> tuple[None, list[str]]:
    rates = RatePair(args.gamma_a, args.gamma_b)
    config = kinetics.IntegratorConfig(step=args.step, t_end=args.t_end)
    _require_array_size(f"--t-end / --step = {args.t_end!r} / {args.step!r}",
                        (config.n_steps + 1) * len(kinetics.STATE_FIELDS), 8)
    traj = kinetics.integrate(kinetics.initial_state(args.n_0), rates, config,
                              first_emission_scale=args.rate_scale)
    write_table(args.out, ["t", *kinetics.STATE_FIELDS],
                [args.step * np.arange(len(traj)), *traj.T])
    return None, [args.out]


def cmd_wavefunction(args) -> tuple[dict, list[str]]:
    # every report echoes --t, and JSON has no NaN or Infinity
    if not np.isfinite(args.t):
        raise InvalidParameterError(f"--t must be finite, got {args.t!r}")
    grid = wavefunction.Grid1D(x_min=-args.x_max, x_max=args.x_max, n=args.n)
    report = {"check": args.check, "n": int(args.n), "x_max": float(args.x_max),
              "t": float(args.t), "passed": False, "error": None, "metrics": {}}
    # every check holds one n x n complex array
    _require_array_size(f"--n {args.n}", grid.n ** 2, 16)
    mode0 = wavefunction.oscillator_mode(grid, 0)
    mode1 = wavefunction.oscillator_mode(grid, 1)

    if args.check == "n0f-symmetric-input":
        sym = wavefunction.TwoParticleAmplitude.from_factors(grid, mode0, mode0)
        try:
            wavefunction.antisymmetrize(sym)
            report["error"] = ("antisymmetrization of an exchange-symmetric "
                               "state unexpectedly succeeded")
            return report, []
        except wavefunction.DegenerateSymmetryError as exc:
            report["error"] = str(exc)
        report["metrics"]["swap_overlap_real"] = wavefunction.swap_overlap(sym)
        return report, []

    product = wavefunction._OwnedAmplitude.from_factors(grid, mode0, mode1)
    if args.check == "n0f-antisymmetric":
        report["metrics"]["n0f_product"] = (
            wavefunction.antisymmetrization_coefficient(product))
    fermionic = wavefunction.antisymmetrize(product)

    if args.check == "n0f-antisymmetric":
        coeff = wavefunction.antisymmetrization_coefficient(fermionic)
        report["metrics"]["n0f"] = coeff
        report["passed"] = abs(coeff - 0.5) < 1e-10
        return report, []

    # antisymmetry preservation under free propagation
    evolved = wavefunction.free_propagate(fermionic, args.t)
    defect = wavefunction.antisymmetry_defect(evolved)
    norm = wavefunction.quadrature_norm(evolved)
    report["metrics"]["antisymmetric_defect"] = defect
    report["metrics"]["norm_drift"] = abs(norm - 1.0)
    report["passed"] = defect < 1e-10 and abs(norm - 1.0) < 1e-12
    return report, []


def _with_config(parser, argv: list[str]) -> list[str]:
    """argv with the ``--config`` file's lines as flags right after the
    subcommand, so that argparse checks them and typed flags win.

    ``true`` / ``false`` set or omit a switch.  A key that only other
    subcommands take is skipped, so one file can serve them all; a key
    that no subcommand takes is an error.
    """
    mini = _Parser(add_help=False)
    mini.add_argument("--config", default=None)
    path = mini.parse_known_args(argv)[0].config
    at = next((i for i, a in enumerate(argv) if not a.startswith("-")), None)
    if not path or at is None or argv[at] not in parser.command_parsers:
        return argv
    options = {name: {flag: action
                      for flag, action in p._option_string_actions.items()
                      if action.dest not in ("help", "config")}
               for name, p in parser.command_parsers.items()}
    tokens = []
    for flag, value in load_config(path):
        action = options[argv[at]].get(flag)
        if action is None:
            if any(flag in other for other in options.values()):
                continue
            raise InvalidParameterError(f"{path}: unknown config key {flag[2:]!r}")
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("true", "false"):
            tokens += [flag] if value.lower() == "true" else []
        else:
            raise InvalidParameterError(
                f"{path}: {flag[2:]} takes true or false, got {value!r}")
    return argv[:at + 1] + tokens + argv[at + 1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(_with_config(parser, argv))
        except SystemExit as exc:
            return int(exc.code or 0)
        # a table command has written its files; a run that cannot write prints nothing
        payload, outputs = args.handler(args)
        if payload is not None and args.out:
            _write_json(args.out, payload)
            outputs.append(args.out)
        if outputs:
            _write_manifest(args, argv, outputs)
        if payload is not None:
            print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    except FirstPhotonError as exc:
        print("error:", _printable(str(exc)), file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        # sizes below physical memory that the process may not allocate
        print("error: out of memory", file=sys.stderr)
        return InvalidParameterError.exit_code


if __name__ == "__main__":
    sys.exit(main())
