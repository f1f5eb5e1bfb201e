"""Self-test of the speed probe that scales CLI step times.

    python3 -m pytest perfbench -q

The probe pauses a step's process group and times a unit of work in the
pause; the step's time leaves the pauses out and is scaled by the unit.
"""
import statistics
import sys
import time

import run
import speed

# A child that starts a busy grandchild in its own process group and waits
# for it.  The grandchild writes its pid, burns CPU_S of CPU time, then
# writes the CPU time it used.
CPU_S = 0.6
GRANDCHILD = f"""
import sys, time
with open(sys.argv[1], "w") as fh:
    fh.write(str(__import__("os").getpid()))
while time.process_time() < {CPU_S}:
    pass
with open(sys.argv[1] + ".cpu", "w") as fh:
    fh.write(repr(time.process_time()))
"""
PARENT = """
import subprocess, sys
subprocess.run([sys.executable, "-c", sys.argv[1], sys.argv[2]], check=True)
"""

# Fixed work in the manner of the package: CSV text of a large array and
# numpy over it, ROUNDS times.
STUB = """
import sys
import numpy as np
x = np.random.default_rng(0).random(100_000)
for _ in range(int(sys.argv[1])):
    text = ",".join(["%.17g" % v for v in x.tolist()])
    np.sort(x * 1.5)
"""


def _state(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return "exited"


def test_probe_pauses_the_whole_process_group(tmp_path, monkeypatch):
    pid_file = tmp_path / "grandchild.pid"
    states = []

    def unit_s():
        # a long pause, so work done in it would be missed by wall_s
        end = time.perf_counter() + 0.02
        while time.perf_counter() < end:
            pass
        # a running grandchild must be stopped by now; a SIGSTOP lands when
        # the process next gets a CPU, so allow a few milliseconds more
        done = pid_file.with_name(pid_file.name + ".cpu")
        if pid_file.exists() and pid_file.read_text() and not done.exists():
            pid = int(pid_file.read_text())
            deadline = time.perf_counter() + 0.005
            state = _state(pid)
            while state != "T" and time.perf_counter() < deadline:
                state = _state(pid)
            states.append(state)
        return speed.NOMINAL_UNIT_S

    monkeypatch.setattr(run.speed, "unit_s", unit_s)
    bench = run.Run("solvers", 1, 1.0, True, tmp_path)
    proc = bench.process([sys.executable, "-c", PARENT, GRANDCHILD, str(pid_file)],
                         probe=True)
    assert proc.code == 0, proc.err
    assert len(states) > 5 and set(states) == {"T"}, states
    # every CPU second of the grandchild lies in the step's unpaused time
    assert proc.wall_s >= float((tmp_path / "grandchild.pid.cpu").read_text())


def test_scaling_keeps_an_injected_slowdown(tmp_path):
    """A step given half as much work again reads about that much slower
    after scaling: the probe must not absorb the change."""
    base, extra = 8, 0.5
    bench = run.Run("solvers", 1, 1.0, True, tmp_path)
    ratios = []
    for _ in range(5):
        plain, slowed = (bench.process([sys.executable, "-c", STUB, str(rounds)],
                                       probe=True)
                         for rounds in (base, round(base * (1 + extra))))
        assert plain.code == 0 and slowed.code == 0
        ratios.append((slowed.scaled_s, plain.scaled_s, slowed.wall_s, plain.wall_s))
    scaled = statistics.median(s / p for s, p, _, _ in ratios)
    # start-up is not slowed, so the step grows somewhat less than ``extra``;
    # a probe that absorbed the change would read near 1
    assert 1 + extra * 0.4 < scaled < 1 + extra * 1.6, ratios
