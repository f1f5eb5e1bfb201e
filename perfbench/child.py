#!/usr/bin/env python3
"""Processes that run.py starts, one at a time.

    child.py cli SPANS ARG...
        run ``firstphoton ARG...`` with every layer call traced; the spans
        go to SPANS when the command ends
    child.py sweep OUT --inputs JSON --seed N (--seconds S | --cycles K)
                   [--probe] [--spans SPANS]
        closed loop of discrimination trials, one at a time, the traffic of
        scripts/discrimination_power.py; the result goes to OUT as JSON
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
import traceback

import spans
import speed

PROBE_EVERY_CYCLES = 2


def traced_cli(spans_path: str, argv: list[str]) -> int:
    tracer = spans.Tracer()
    tracer.request = argv[0] if argv else None
    with tracer.span("import"):
        from firstphoton import cli
    spans.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


def _trial(montecarlo, estimation, config) -> str:
    records = montecarlo.simulate(config)
    if config.kind == montecarlo.KIND_ENTANGLED:
        times = records["t_first"]
    else:
        # the detector cannot tell a kept photon first from second, so the
        # product sample pools both window times of the surviving pairs
        kept, _ = montecarlo.postselect(records, config.window)
        times = montecarlo.one_photon_window_times(kept)
    return estimation.discriminate(times, config.rates, config.window).preferred


def sweep(inputs: dict, seed: int, seconds: float | None, cycles: int | None,
          tracer: spans.Tracer | None, probe: bool) -> dict:
    """Trial i has kind KINDS[i % 2], size SIZES[i % 3] and its own seed;
    a cycle is the lcm of the two periods, so every cycle does the same work.
    With ``probe``, time a speed unit between cycles, outside the timings;
    the unit disturbs the caches, so the cycle after it runs a little slower."""
    from firstphoton import analytic, estimation, montecarlo
    if tracer is not None:
        spans.install(tracer)
    rates = analytic.RatePair(*inputs["gamma"])
    window = analytic.WindowConfig(tau=inputs["tau"], mode=inputs["mode"])
    kinds, sizes = montecarlo.PAIR_KINDS, inputs["sizes"]
    period = math.lcm(len(kinds), len(sizes))

    latencies, cycle_walls, units = [], [], []
    trials_by_size = {str(n): 0 for n in sizes}
    wrong_by_size = dict(trials_by_size)
    errors = trial = 0
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for _ in range(period):
            config = montecarlo.SimConfig(
                n_pairs=sizes[trial % len(sizes)], rates=rates,
                kind=kinds[trial % len(kinds)], window=window,
                seed=((seed << 32) + trial) % (1 << 63))
            if tracer is not None:
                tracer.request = trial
            t0 = time.perf_counter()
            try:
                verdict = _trial(montecarlo, estimation, config)
            except Exception:
                traceback.print_exc()
                errors += 1
            else:
                wrong_by_size[str(config.n_pairs)] += verdict != config.kind
            trials_by_size[str(config.n_pairs)] += 1
            latencies.append(time.perf_counter() - t0)
            trial += 1
        cycle_walls.append(time.perf_counter() - cycle_start)
        if probe and len(cycle_walls) % PROBE_EVERY_CYCLES == 0:
            units.append(speed.unit_s())
        if cycles is not None and len(cycle_walls) >= cycles:
            break
        if cycles is None and time.perf_counter() - start >= seconds:
            break
    loop_s = sum(cycle_walls)
    centiles = statistics.quantiles(latencies, n=100)
    return {"trials": trial, "trials_by_size": trials_by_size,
            "wrong_by_size": wrong_by_size, "errors": errors,
            "cycles": len(cycle_walls), "loop_s": loop_s,
            "cycle_s": statistics.median(cycle_walls),
            "trial_p50_ms": statistics.median(latencies) * 1e3,
            "trial_p99_ms": centiles[98] * 1e3, "unit_s": units or [speed.unit_s()]}


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"] and len(argv) >= 2:
        return traced_cli(argv[1], argv[2:])
    parser = argparse.ArgumentParser(prog="child.py sweep")
    parser.add_argument("mode", choices=["sweep"])
    parser.add_argument("out")
    parser.add_argument("--inputs", required=True, type=json.loads)
    parser.add_argument("--seed", required=True, type=int)
    bound = parser.add_mutually_exclusive_group(required=True)
    bound.add_argument("--seconds", type=float)
    bound.add_argument("--cycles", type=int)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    tracer = spans.Tracer() if args.spans else None
    result = sweep(args.inputs, args.seed, args.seconds, args.cycles, tracer, args.probe)
    if tracer is not None:
        tracer.dump(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
