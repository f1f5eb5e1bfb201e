#!/usr/bin/env python3
"""Benchmark of the firstphoton package.

    python3 perfbench/run.py --workload {bulk-csv,power-sweep,solvers,all} \\
        --seed N --seconds S --trace {0,1} [--smoke]

It measures the package under ``src/`` beside this directory and writes
only under ``.perfbench/`` there.  Every CLI step runs as its own
subprocess, one at a time, and the power sweep runs in one child
process, so each process's peak RSS comes from ``os.wait4``.

``--trace 0`` runs passes over the workload's operations until S seconds
have gone and prints the end-to-end metrics.  ``--trace 1`` runs the same
work untraced and traced, alternating, writes the spans to
``.perfbench/spans-<workload>.json`` and prints the per-layer metrics.
Every output is checked; a non-zero exit or a failed check fails that
operation.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import select
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

GAMMA = [1.0, 1.5]
INPUTS = {
    # the README pipeline at 1M pairs: almost all of it is CSV text, written
    # and read back by series, so I/O and parallel formatting show here only
    "bulk-csv": {"kind": "product", "gamma": GAMMA, "tau": 0.02,
                 "mode": "grid-bin", "n_pairs": 1_000_000},
    # many small in-process trials: per-call cost in montecarlo, analytic and
    # estimation, with no file I/O, so an I/O change must read no change here
    "power-sweep": {"gamma": GAMMA, "tau": 5.0 / 6.0, "mode": "grid-bin",
                    "sizes": [100, 1000, 10000]},
    # the layers the other two never touch: exact-window quadrature, RK4
    # kinetics and 2-D FFT propagation
    "solvers": {"gamma": GAMMA, "tau": 5.0 / 6.0, "mode": "grid-bin",
                "t_max": 4.0, "n_points": 100_001, "step": 1e-4, "t_end": 4.0,
                "n": 2048},
}
# --smoke: the same steps at sizes small enough for a self-test
SMOKE = {"bulk-csv": {"n_pairs": 20_000}, "power-sweep": {},
         "solvers": {"n_points": 1001, "step": 1e-3, "n": 256}}
SETUP_MODULES = {"bulk-csv": "firstphoton.cli", "solvers": "firstphoton.cli",
                 "power-sweep": "firstphoton.analytic, firstphoton.estimation, "
                                "firstphoton.montecarlo"}
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
STEP_TIMEOUT_S = 150.0
PROBE_EVERY_S = 0.03
TRACE_SWEEP_ROUNDS = 6
# Error rate of a correct likelihood-ratio test per power-sweep sample size;
# at the other sizes every verdict must be right.  At N = 100 one trial in
# about 300 000 was wrong (seed 21, trial 8823: 46 kept product pairs favour
# the entangled law by 7.4; none in 50 000 each at seeds 31-36); the rate is
# the 95% upper bound of that count, rounded up.  A run fails when it sees
# more wrong verdicts than a correct test gives with probability WRONG_TAIL.
ERROR_RATE = {100: 2e-5}
WRONG_TAIL = 1e-6

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# gated by BENCHMARK.json; every workload reports each of them
END_TO_END = tuple(m["name"] for m in SPEC["end_to_end"])
# the reported figures that BENCHMARK.json does not list
STEP_UNITS = {"simulate_s": "s", "simulate_par_s": "s", "fit_s": "s",
              "discriminate_s": "s", "pairs_per_s": "1/s", "trials_per_s": "1/s",
              "trial_p50_ms": "ms", "trial_p99_ms": "ms", "analytic_s": "s",
              "kinetics_s": "s", "wavefunction_s": "s", "fail_ratio": "ratio"}
UNITS = {**{m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]},
         **STEP_UNITS}
PER_LAYER = ("import.numpy_ms", "import.scipy_ms", "import.firstphoton_ms",
             *spans.layer_metrics({}), "trace.overhead_s", "trace.coverage")

# Which reported end-to-end metric each layer metric should move, per
# workload; every reported metric also moves that workload's pass_s.
IMPORT = ("import.numpy_ms", "import.scipy_ms", "import.firstphoton_ms")
WRITE = ("series.write_s", "series.write_rows", "series.write_bytes",
         "series.write_rss_growth_mb")
READ = ("series.read_s", "series.read_rows", "series.read_bytes")
SIMULATE = ("montecarlo.simulate_s", "montecarlo.pairs", "montecarlo.pairs_per_s",
            "montecarlo.simulate_rss_growth_mb")
POSTSELECT = ("montecarlo.postselect_s", "montecarlo.keep_ratio")
ESTIMATION = ("estimation.discriminate_s", "estimation.mle_s", "estimation.samples")
ANALYTIC = ("analytic.self_s", "analytic.calls")
BULK_STEPS = ("simulate_s", "simulate_par_s", "fit_s", "discriminate_s")
SOLVER_STEPS = ("analytic_s", "kinetics_s", "wavefunction_s")
EXPECTED = {
    "bulk-csv": [
        (IMPORT, ("setup_s", *BULK_STEPS)),
        (("cli.self_s",), BULK_STEPS),
        (WRITE, ("simulate_s", "simulate_par_s", "pairs_per_s", "peak_rss_mb")),
        (READ, ("fit_s", "discriminate_s")),
        (SIMULATE, ("simulate_s",)),  # sampling is at most 5% of it
        (("montecarlo.parallel_speedup",), ("simulate_par_s",)),
        (POSTSELECT + ("montecarlo.read_records_self_s",), ("discriminate_s",)),
        (ESTIMATION, ("discriminate_s", "fit_s")),
    ],
    "power-sweep": [
        (IMPORT, ("setup_s",)),
        (SIMULATE, ("trials_per_s", "trial_p50_ms")),
        (POSTSELECT, ("trial_p50_ms", "trial_p99_ms")),
        (ESTIMATION, ("trial_p50_ms",)),
        (ANALYTIC, ("trial_p50_ms",)),
    ],
    "solvers": [
        (IMPORT, ("setup_s", *SOLVER_STEPS)),
        (("cli.self_s",), SOLVER_STEPS),
        (WRITE, ("kinetics_s", "analytic_s")),
        (ANALYTIC, ("analytic_s",)),
        (("kinetics.integrate_s", "kinetics.steps", "kinetics.steps_per_s"),
         ("kinetics_s",)),
        (("wavefunction.propagate_s", "wavefunction.other_s",
          "wavefunction.grid_points", "wavefunction.fft_flops_computed",
          "wavefunction.bytes_moved_computed", "wavefunction.rss_growth_mb"),
         ("wavefunction_s", "peak_rss_mb")),
    ],
}

CLI_MAIN = "import sys; from firstphoton.cli import main; sys.exit(main())"


def allowed_wrong(size: int, trials: int) -> int:
    """Most wrong verdicts in ``trials`` trials of ``size`` pairs that a
    correct test exceeds with probability at most WRONG_TAIL: the upper
    tail of Poisson(ERROR_RATE * trials)."""
    mean = ERROR_RATE.get(size, 0.0) * trials
    k = 0
    term = cdf = math.exp(-mean)
    while 1.0 - cdf > WRONG_TAIL:
        k += 1
        term *= mean / k
        cdf += term
    return k


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), **versions}


@dataclass
class Proc:
    """A finished child: exit code, running wall time (pauses taken out),
    its own peak RSS, its output, and the speed units timed in its pauses."""

    code: int
    wall_s: float
    rss_mb: float
    out: str
    err: str
    units: list[float]

    @property
    def scaled_s(self) -> float:
        return speed.scaled(self.wall_s, self.units)


def _last_cpu(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def _wait(proc: subprocess.Popen, units: list[float] | None):
    """Reap ``proc``, the leader of its own process group; returns
    (status, rusage, seconds paused).

    With ``units``, pause the whole group every PROBE_EVERY_S and time one
    speed unit on the CPU the leader ran on last, so the unit sees the same
    machine and no process of the step runs beside it or unmeasured.
    Whatever the leader leaves running in its group is killed.
    """
    deadline = time.monotonic() + STEP_TIMEOUT_S
    cpus = os.sched_getaffinity(0)
    paused = 0.0
    pidfd = os.pidfd_open(proc.pid)
    try:
        while True:
            left = max(deadline - time.monotonic(), 0.0)
            timeout = left if units is None else min(PROBE_EVERY_S, left)
            if select.select([pidfd], [], [], timeout)[0]:
                break
            if time.monotonic() >= deadline:
                _signal_group(proc.pid, signal.SIGKILL)
                continue
            os.killpg(proc.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                _signal_group(proc.pid, signal.SIGKILL)
                return status, usage, paused
            start = time.perf_counter()
            try:
                os.sched_setaffinity(0, {_last_cpu(proc.pid)})
                units.append(speed.unit_s())
            finally:
                os.sched_setaffinity(0, cpus)
                paused += time.perf_counter() - start
                os.killpg(proc.pid, signal.SIGCONT)
        # the leader has exited but is not reaped, so its pid names no other group
        _signal_group(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        return status, usage, paused
    finally:
        os.close(pidfd)


class Run:
    """One benchmark invocation on one workload: counts and temporary files."""

    def __init__(self, workload: str, seed: int, seconds: float, smoke: bool,
                 tmp: Path):
        self.workload, self.seed, self.seconds, self.tmp = workload, seed, seconds, tmp
        self.inputs = {**INPUTS[workload], **(SMOKE[workload] if smoke else {})}
        self.setup_repeats = 1 if smoke else SETUP_REPEATS
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.attempted = self.failed = 0
        # in a traced run each CLI step runs plain, then traced
        self.tracing = False
        self.plain_s = self.traced_s = 0.0
        self.peak_rss_mb = 0.0
        self.processes = 0
        self.totals: dict[str, float] = {}
        self.traced: list[dict] = []
        self._count = 0

    def temp_path(self, suffix: str) -> Path:
        self._count += 1
        return self.tmp / f"{self._count}{suffix}"

    def process(self, argv: list[str], probe: bool = False) -> Proc:
        """Run one child to completion, alone."""
        out_path, err_path = self.temp_path(".out"), self.temp_path(".err")
        units: list[float] | None = [] if probe else None
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, start_new_session=True,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                status, usage, paused = _wait(proc, units)
            except BaseException:
                _signal_group(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            wall = time.perf_counter() - start - paused
        proc.returncode = os.waitstatus_to_exitcode(status)
        if probe and not units:
            units.append(speed.unit_s())
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    out_path.read_text(), err_path.read_text(), units or [])

    def note_rss(self, proc: Proc) -> None:
        """Count a workload process towards peak_rss_mb."""
        self.processes += 1
        self.peak_rss_mb = max(self.peak_rss_mb, proc.rss_mb)

    def operation(self, what: str, proc: Proc, problems: list[str] = ()) -> None:
        self.attempted += 1
        if proc.code != 0:
            problems = [f"exit code {proc.code}: {proc.err.strip()[-2000:]}"]
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def checked(self, name: str, proc: Proc, check) -> Proc:
        """Count a finished CLI step as one operation and check its output."""
        self.note_rss(proc)
        self.operation(name, proc, check(proc) if proc.code == 0 else [])
        return proc

    def step(self, name: str, argv: list[str], check) -> Proc:
        """One CLI subprocess, checked and speed-probed.  In a traced run
        the step runs plain and then traced, back to back, so that drift of
        the machine falls on both alike; neither is probed."""
        plain = self.checked(name, self.process([sys.executable, "-c", CLI_MAIN, *argv],
                                                probe=not self.tracing), check)
        if not self.tracing:
            return plain
        spans_path = self.temp_path(".spans.json")
        proc = self.checked(name, self.process(
            [sys.executable, str(HERE / "child.py"), "cli", str(spans_path), *argv]), check)
        self.record_spans(name, proc.wall_s, spans_path)
        self.plain_s += plain.wall_s
        self.traced_s += proc.wall_s
        return proc

    def record_spans(self, name: str, wall_s: float, path: Path) -> None:
        try:
            with open(path) as fh:
                recorded = json.load(fh)
        except (OSError, ValueError):
            recorded = []
        spans.merge(self.totals, spans.layer_totals(recorded))
        self.traced.append({"step": name, "wall_s": wall_s, "spans": recorded})

    def setup(self) -> list[Proc]:
        """Fresh-interpreter imports of the workload's modules."""
        procs = []
        for _ in range(self.setup_repeats):
            proc = self.process([sys.executable, "-c",
                                 f"import {SETUP_MODULES[self.workload]}"], probe=True)
            self.operation("setup import", proc)
            procs.append(proc)
        return procs

    def import_ms(self) -> dict[str, float]:
        samples = []
        for _ in range(IMPORTTIME_REPEATS):
            proc = self.process([sys.executable, "-X", "importtime", "-c",
                                 f"import {SETUP_MODULES[self.workload]}"])
            self.operation("import-time breakdown", proc)
            samples.append(spans.import_times_ms(proc.err))
        return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# ---- output checks: each returns a list of problems ----------------------

def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _analytic():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from firstphoton import analytic
    return analytic


def check_records(path: Path, inputs: dict) -> list[str]:
    problems = []
    n = inputs["n_pairs"]
    rows = _count_lines(path) - 1
    if rows != n:
        problems.append(f"{path.name} has {rows} rows, expected {n}")
    with open(f"{path}.summary.json") as fh:
        summary = json.load(fh)
    analytic = _analytic()
    p = analytic.coincidence_probability(
        analytic.RatePair(*inputs["gamma"]),
        analytic.WindowConfig(tau=inputs["tau"], mode=inputs["mode"]))
    sigma = math.sqrt(p * (1.0 - p) / n)
    rate = summary["empirical_coincidence_rate"]
    if abs(rate - p) > 5.0 * sigma:
        problems.append(f"coincidence rate {rate} is more than 5 sigma "
                        f"({sigma:.3g}) from {p}")
    return problems


def check_fit(proc: Proc, inputs: dict) -> list[str]:
    fit = json.loads(proc.out)
    expected = sum(inputs["gamma"])
    if abs(fit["rate_estimate"] - expected) > 5.0 * fit["std_error"]:
        return [f"fitted rate {fit['rate_estimate']} is more than 5 standard "
                f"errors ({fit['std_error']:.3g}) from {expected}"]
    return []


def check_preferred(proc: Proc, kind: str) -> list[str]:
    preferred = json.loads(proc.out)["preferred"]
    return [] if preferred == kind else [f"discriminate prefers {preferred}, not {kind}"]


def check_curves(path: Path, n_points: int) -> list[str]:
    import numpy as np
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (n_points, 5):
        return [f"{path.name} has shape {table.shape}, expected ({n_points}, 5)"]
    cdfs = table[:, 1:]
    problems = []
    if np.any(np.diff(cdfs, axis=0) < 0.0):
        problems.append("a CDF column decreases")
    if np.any(cdfs < 0.0) or np.any(cdfs > 1.0):
        problems.append("a CDF column leaves [0, 1]")
    return problems


def check_kinetics(path: Path, inputs: dict) -> list[str]:
    with open(path) as fh:
        last = fh.readlines()[-1]
    t, n_e, n_a, n_b, cap_a, cap_b, cap_f = (float(v) for v in last.split(","))
    g_a, g_b = inputs["gamma"]
    problems = []
    if abs(t - inputs["t_end"]) > 1e-9:
        problems.append(f"last row is at t={t}, not {inputs['t_end']}")
    excitation = 2.0 * n_e + n_a + n_b + cap_a + cap_b - 2.0
    first = cap_f + n_e - 1.0
    if max(abs(excitation), abs(first)) > 1e-12:
        problems.append(f"conservation defects {excitation:.3g}, {first:.3g}")
    # fourth-order steps of h <= 1e-3 leave errors far below 1e-10
    for label, got, rate in (("N_a", cap_a, g_a), ("N_b", cap_b, g_b)):
        want = -math.expm1(-rate * t)
        if abs(got - want) > 1e-10:
            problems.append(f"{label}(t_end) = {got}, single-atom law gives {want}")
    return problems


def check_passed(proc: Proc) -> list[str]:
    report = json.loads(proc.out)
    return [] if report["passed"] is True else [f"wavefunction check failed: {report}"]


# ---- workloads ------------------------------------------------------------

def _window_flags(inputs: dict) -> list[str]:
    return ["--gamma-a", repr(inputs["gamma"][0]), "--gamma-b", repr(inputs["gamma"][1]),
            "--tau", repr(inputs["tau"]), "--mode", inputs["mode"]]


def bulk_pass(run: Run) -> dict[str, Proc]:
    inputs = run.inputs
    flags = _window_flags(inputs)
    files = {w: run.tmp / f"records_w{w}.csv" for w in (1, 2)}
    steps = {}
    for workers, metric in ((1, "simulate_s"), (2, "simulate_par_s")):
        path = files[workers]

        def check(proc, path=path, workers=workers):
            problems = check_records(path, inputs)
            if workers != 1 and _sha256(path) != _sha256(files[1]):
                problems.append(f"{path.name} differs from {files[1].name}")
            return problems
        steps[metric] = run.step(metric, [
            "simulate", "--kind", inputs["kind"], "--n-pairs", str(inputs["n_pairs"]),
            "--seed", str(run.seed), "--workers", str(workers), "--out", str(path),
            *flags], check)
    steps["fit_s"] = run.step("fit_s", ["fit", "--samples", str(files[1]), *flags],
                              lambda p: check_fit(p, inputs))
    steps["discriminate_s"] = run.step(
        "discriminate_s", ["discriminate", "--samples", str(files[1]), "--postselect",
                           *flags], lambda p: check_preferred(p, inputs["kind"]))
    return steps


def solvers_pass(run: Run) -> dict[str, Proc]:
    inputs = run.inputs
    curves, populations = run.tmp / "curves.csv", run.tmp / "populations.csv"
    rates = ["--gamma-a", repr(inputs["gamma"][0]), "--gamma-b", repr(inputs["gamma"][1])]
    return {
        "analytic_s": run.step("analytic_s", [
            "analytic", "--window-variant", "exact", "--t-max", repr(inputs["t_max"]),
            "--n-points", str(inputs["n_points"]), "--out", str(curves),
            *_window_flags(inputs)],
            lambda p: check_curves(curves, inputs["n_points"])),
        "kinetics_s": run.step("kinetics_s", [
            "kinetics", "--step", repr(inputs["step"]), "--t-end", repr(inputs["t_end"]),
            "--out", str(populations), *rates],
            lambda p: check_kinetics(populations, inputs)),
        "wavefunction_s": run.step("wavefunction_s", [
            "wavefunction", "--check", "antisymmetry-preservation",
            "--n", str(inputs["n"])], check_passed),
    }


PASSES = {"bulk-csv": bulk_pass, "solvers": solvers_pass}


def sweep(run: Run, bound: list[str], spans_path: Path | None = None) -> dict | None:
    """The power-sweep child; None when it did not finish."""
    out = run.temp_path(".sweep.json")
    cmd = [sys.executable, str(HERE / "child.py"), "sweep", str(out),
           "--inputs", json.dumps(run.inputs), "--seed", str(run.seed), *bound]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    proc = run.process(cmd)
    run.note_rss(proc)
    if proc.code != 0:
        run.operation("power sweep", proc)
        return None
    with open(out) as fh:
        result = json.load(fh)
    run.attempted += result["trials"]
    failed = result["errors"]
    for size, trials in result["trials_by_size"].items():
        wrong = result["wrong_by_size"][size]
        if wrong > allowed_wrong(int(size), trials):
            failed += wrong
    run.failed += failed
    print(f"verdicts wrong {json.dumps(result['wrong_by_size'])} of "
          f"{json.dumps(result['trials_by_size'])} trials, {result['errors']} errors")
    if failed:
        print(f"FAILED {failed} power-sweep trials", file=sys.stderr)
        sys.stderr.write(proc.err)
    if spans_path is not None:
        run.record_spans("power-sweep", result["loop_s"], spans_path)
    return result


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def measure(run: Run) -> tuple[dict[str, float], dict[str, tuple[float, float, int]]]:
    """Gated end-to-end metrics, and every reported metric as (value at
    nominal speed, raw value, sample count)."""
    setup = run.setup()
    report = {"setup_s": (_median(p.scaled_s for p in setup),
                          _median(p.wall_s for p in setup), len(setup))}
    if run.workload == "power-sweep":
        result = sweep(run, ["--seconds", repr(run.seconds), "--probe"]) or {}
        n, cycles = result.get("trials", 0), result.get("cycles", 0)
        factor = speed.scaled(1.0, result["unit_s"]) if result else math.nan
        rate = n / result["loop_s"] if result else math.nan
        report["trials_per_s"] = (rate / factor, rate, n)
        for name in ("trial_p50_ms", "trial_p99_ms", "cycle_s"):
            value = result.get(name, math.nan)
            report[name] = (value * factor, value, n if name != "cycle_s" else cycles)
        report["pass_s"] = report.pop("cycle_s")
    else:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < run.seconds:
            passes.append(PASSES[run.workload](run))
        for name in passes[0]:
            report[name] = (_median(p[name].scaled_s for p in passes),
                            _median(p[name].wall_s for p in passes), len(passes))
        if run.workload == "bulk-csv":
            busy = [sum(report[m][i] for m in ("simulate_s", "fit_s", "discriminate_s"))
                    for i in (0, 1)]
            n = run.inputs["n_pairs"]
            report["pairs_per_s"] = (n / busy[0], n / busy[1], len(passes))
        report["pass_s"] = (
            _median(sum(p.scaled_s for p in steps.values()) for steps in passes),
            _median(sum(p.wall_s for p in steps.values()) for steps in passes),
            len(passes))
    report["peak_rss_mb"] = (run.peak_rss_mb, run.peak_rss_mb, run.processes)
    ratio = run.failed / max(run.attempted, 1)
    report["fail_ratio"] = (ratio, ratio, run.attempted)
    return {name: report[name][0] for name in END_TO_END}, report


def measure_traced(run: Run) -> dict[str, float]:
    """The same work untraced and traced, alternating, without the speed
    probe: each CLI step of one pass, or for power-sweep
    TRACE_SWEEP_ROUNDS rounds of trials.  Returns the per-layer metrics."""
    imports = run.import_ms()
    run.tracing = True
    if run.workload == "power-sweep":
        for _ in range(TRACE_SWEEP_ROUNDS):
            plain = sweep(run, ["--seconds",
                                repr(run.seconds / 2.0 / TRACE_SWEEP_ROUNDS)])
            cycles = plain["cycles"] if plain else 1
            traced = sweep(run, ["--cycles", str(cycles)], run.temp_path(".spans.json"))
            run.plain_s += plain["loop_s"] if plain else math.nan
            run.traced_s += traced["loop_s"] if traced else math.nan
    else:
        PASSES[run.workload](run)
    metrics = {**imports, **spans.layer_metrics(run.totals),
               "trace.overhead_s": run.traced_s - run.plain_s,
               "trace.coverage": run.totals.get("covered_s", 0.0) / run.traced_s}
    with open(WORK / f"spans-{run.workload}.json", "w") as fh:
        json.dump({"workload": run.workload, "seed": run.seed, "inputs": run.inputs,
                   "expected": EXPECTED[run.workload], "processes": run.traced},
                  fh, separators=(",", ":"))
    return metrics


def run_workload(workload: str, args) -> dict:
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        run = Run(workload, args.seed, args.seconds, args.smoke, tmp)
        print(f"workload {workload} seed={args.seed} trace={args.trace} "
              f"inputs={json.dumps(run.inputs)}")
        if args.trace:
            metrics = measure_traced(run)
            for layer_metrics, moves in EXPECTED[workload]:
                print(f"expect {' '.join(layer_metrics)} -> {' '.join(moves)}")
            for name in PER_LAYER:
                print(f"layer {name} {metrics[name]:.6g} {UNITS[name]}")
        else:
            metrics, report = measure(run)
            for name, (value, raw, count) in report.items():
                print(f"metric {name} {value:.6g} {UNITS[name]} "
                      f"(raw {raw:.6g}, n={count})")
            # the gated figures before scaling to nominal speed
            print(f"raw {json.dumps({name: report[name][1] for name in END_TO_END})}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="firstphoton benchmark")
    parser.add_argument("--workload", required=True, choices=[*INPUTS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own self-test")
    args = parser.parse_args(argv)
    if not (SRC / "firstphoton" / "__init__.py").is_file():
        print(f"error: no firstphoton package under {SRC}", file=sys.stderr)
        return 2
    print(f"machine {json.dumps(machine())}")
    for workload in (INPUTS if args.workload == "all" else [args.workload]):
        result = run_workload(workload, args)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
