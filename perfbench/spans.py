"""Spans around calls into firstphoton's modules, and the per-layer
figures derived from them.

A layer is one module of the package.  ``install`` replaces every public
function of every layer by a wrapper that records a span: name, parent
span, request id, start and end on the monotonic clock, and the
process's peak RSS at both ends.  The wrapper replaces the name in each
layer's namespace that binds it, so ``cli.write_table`` (bound by
``from .series import write_table``) is traced as ``series.write_table``
and each layer's self time excludes the layers it calls.

Spans are kept in memory and written out when the process ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import os
import resource
import threading
import time

PACKAGE = "firstphoton"
LAYERS = ("cli", "series", "montecarlo", "estimation", "analytic", "kinetics",
          "wavefunction")
IMPORT_ROOTS = ("numpy", "scipy", PACKAGE)

# called once per CSV cell inside series.render_table: a span there would
# cost more than the work it times
UNWRAPPED = frozenset({"series.format_float"})

NAME, PARENT, REQUEST, START, END, RSS0, RSS1, COUNTS = range(8)

WRITE_ENTRIES = ("series.write_table", "series.render_table")
READ_ENTRIES = ("series.read_columns",)
# complex128 array passes in one free_propagate: fft2 and ifft2 read and
# write once each, the phase multiply reads two and writes one, the phase
# table is written once and the two edge checks read input and output
PROPAGATE_PASSES = 10


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _rows(columns) -> int:
    return len(columns[0]) if len(columns) else 0


# work counts taken at the layer boundary, from a call's arguments and result
COUNTERS = {
    "series.write_table": lambda out, path, header, columns: {
        "rows": _rows(columns), "bytes": _file_size(path)},
    "series.render_table": lambda out, header, columns: {
        "rows": _rows(columns), "bytes": len(out)},
    "series.read_columns": lambda out, path, names: {
        "rows": len(out[names[0]]) if names else 0, "bytes": _file_size(path)},
    "montecarlo.simulate": lambda out, config, n_workers=1: {
        "pairs": int(config.n_pairs), "workers": int(n_workers)},
    "montecarlo.postselect": lambda out, records, window: {
        "sampled": len(records), "kept": len(out[0])},
    "estimation.discriminate": lambda out, times, *args: {"samples": len(times)},
    "estimation.mle_exponential": lambda out, times: {"samples": len(times)},
    "kinetics.integrate": lambda out, initial, rates, config, *args, **kwargs: {
        "steps": int(config.n_steps)},
    "wavefunction.free_propagate": lambda out, psi, t: {"n": int(psi.grid.n)},
}


class Tracer:
    """Collects spans from the calling thread's stack of open calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        record = [name, stack[-1] if stack else -1, self.request,
                  time.perf_counter_ns(), 0, _maxrss_kb(), 0, None]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter_ns()
        record[RSS1] = _maxrss_kb()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(record)
            if counter is not None:
                record[COUNTS] = counter(out, *args, **kwargs)
            return out
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Route every public layer function through ``tracer``."""
    modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
    homes = {module.__name__: layer for layer, module in zip(LAYERS, modules)}
    wrappers = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = homes.get(obj.__module__)
            if layer is None or f"{layer}.{obj.__name__}" in UNWRAPPED:
                continue
            if obj not in wrappers:
                wrappers[obj] = tracer.wrap(f"{layer}.{obj.__name__}", obj)
            setattr(module, attr, wrappers[obj])


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Additive per-layer sums for the spans of one process.

    A span's self time is its duration minus its children's; the
    children of one span come off one call stack, so they never overlap.
    A span's entry is the outermost span of the same layer in the
    unbroken chain above it: the call into the layer it serves.
    """
    self_ns = [s[END] - s[START] for s in spans]
    entry = []
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent >= 0:
            self_ns[parent] -= s[END] - s[START]
        same = parent >= 0 and _layer(spans[parent][NAME]) == _layer(s[NAME])
        entry.append(entry[parent] if same else i)

    totals: dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    for i, s in enumerate(spans):
        name, layer, head = s[NAME], _layer(s[NAME]), spans[entry[i]][NAME]
        seconds = self_ns[i] * 1e-9
        add(f"{layer}.self_s", seconds)
        add(f"entry:{head}.s", seconds)
        if s[PARENT] < 0:
            add("covered_s", (s[END] - s[START]) * 1e-9)
        if entry[i] != i:
            continue
        add(f"{layer}.calls", 1)
        add(f"entry:{name}.calls", 1)
        add(f"entry:{name}.rss_growth_mb", (s[RSS1] - s[RSS0]) / 1024.0)
        for key, value in (s[COUNTS] or {}).items():
            add(f"entry:{name}.{key}", value)
        if name == "montecarlo.simulate" and s[COUNTS]:
            side = "w1" if s[COUNTS]["workers"] == 1 else "wn"
            add(f"simulate_{side}_s", (s[END] - s[START]) * 1e-9)
            add(f"simulate_{side}_pairs", s[COUNTS]["pairs"])
    return totals


def merge(into: dict[str, float], totals: dict[str, float]) -> None:
    for key, value in totals.items():
        into[key] = into.get(key, 0.0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from merged ``layer_totals``; a layer the run
    never called reads 0."""
    def g(key):
        return t.get(key, 0.0)

    def over(names, field):
        return sum(g(f"entry:{name}.{field}") for name in names)

    sim_s = g("entry:montecarlo.simulate.s")
    kin_s = g("entry:kinetics.integrate.s")
    propagate_s = g("entry:wavefunction.free_propagate.s")
    n = g("entry:wavefunction.free_propagate.n")
    calls = g("entry:wavefunction.free_propagate.calls")
    # every traced run uses one grid size, so n / calls is that size
    side = _ratio(n, calls)
    points = calls * side * side
    flops = 2 * calls * 5 * side * side * math.log2(side * side) if side else 0.0
    return {
        "cli.self_s": g("cli.self_s"),
        "series.write_s": over(WRITE_ENTRIES, "s"),
        "series.write_rows": over(WRITE_ENTRIES, "rows"),
        "series.write_bytes": over(WRITE_ENTRIES, "bytes"),
        "series.write_rss_growth_mb": over(WRITE_ENTRIES, "rss_growth_mb"),
        "series.read_s": over(READ_ENTRIES, "s"),
        "series.read_rows": over(READ_ENTRIES, "rows"),
        "series.read_bytes": over(READ_ENTRIES, "bytes"),
        "montecarlo.simulate_s": sim_s,
        "montecarlo.pairs": g("entry:montecarlo.simulate.pairs"),
        "montecarlo.pairs_per_s": _ratio(g("entry:montecarlo.simulate.pairs"), sim_s),
        "montecarlo.simulate_rss_growth_mb": g("entry:montecarlo.simulate.rss_growth_mb"),
        "montecarlo.parallel_speedup": _ratio(
            _ratio(g("simulate_w1_s"), g("simulate_w1_pairs")),
            _ratio(g("simulate_wn_s"), g("simulate_wn_pairs"))),
        "montecarlo.postselect_s": g("entry:montecarlo.postselect.s"),
        "montecarlo.keep_ratio": _ratio(g("entry:montecarlo.postselect.kept"),
                                        g("entry:montecarlo.postselect.sampled")),
        "montecarlo.read_records_self_s": g("entry:montecarlo.read_records_csv.s"),
        "estimation.discriminate_s": g("entry:estimation.discriminate.s"),
        "estimation.mle_s": g("entry:estimation.mle_exponential.s"),
        "estimation.samples": over(("estimation.discriminate",
                                    "estimation.mle_exponential"), "samples"),
        "analytic.self_s": g("analytic.self_s"),
        "analytic.calls": g("analytic.calls"),
        "kinetics.integrate_s": kin_s,
        "kinetics.steps": g("entry:kinetics.integrate.steps"),
        "kinetics.steps_per_s": _ratio(g("entry:kinetics.integrate.steps"), kin_s),
        "wavefunction.propagate_s": propagate_s,
        "wavefunction.other_s": g("wavefunction.self_s") - propagate_s,
        "wavefunction.grid_points": points,
        "wavefunction.fft_flops_computed": flops,
        "wavefunction.bytes_moved_computed": PROPAGATE_PASSES * 16 * points,
        "wavefunction.rss_growth_mb": sum(
            v for k, v in t.items()
            if k.startswith("entry:wavefunction.") and k.endswith(".rss_growth_mb")),
    }


def import_times_ms(stderr: str) -> dict[str, float]:
    """Per-package import time from ``python -X importtime`` output.

    Each module's self time goes to the nearest enclosing import (itself
    included) whose top-level package is numpy, scipy or firstphoton, so
    the three figures add up without double counting.
    """
    pending: list[tuple[int, str, int, list]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        cells = line.split("|")
        self_us = int(cells[0].rsplit(":", 1)[1])
        field = cells[2]
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        children = []
        while pending and pending[-1][0] == depth + 1:
            children.append(pending.pop())
        pending.append((depth, field.strip(), self_us, children))

    out = {root: 0.0 for root in IMPORT_ROOTS}

    def walk(node, owner):
        _, name, self_us, children = node
        root = name.split(".", 1)[0]
        owner = root if root in out else owner
        if owner is not None:
            out[owner] += self_us / 1000.0
        for child in children:
            walk(child, owner)

    for node in pending:
        walk(node, None)
    return {f"import.{root}_ms": ms for root, ms in out.items()}
