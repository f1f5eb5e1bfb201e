import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from firstphoton.analytic import RatePair, WindowConfig

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# one status line per acceptance criterion, echoed after the test
# summary so the verdicts stay visible even with output capture on
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log() -> list:
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rates_ref() -> RatePair:
    """Reference parameter point used throughout: rates 1.0 and 1.5."""
    return RatePair(gamma_a=1.0, gamma_b=1.5)


@pytest.fixture
def window_ref() -> WindowConfig:
    """Window width 5/6 makes the normalization constant exactly 1."""
    return WindowConfig(tau=5.0 / 6.0)


@pytest.fixture
def tgrid() -> np.ndarray:
    return np.linspace(0.0, 4.0, 401)


@pytest.fixture
def forks(monkeypatch) -> list:
    """The pid of every child that os.fork starts during the test, in order."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


@pytest.fixture
def no_child_left():
    """A check that this process has no child, running or unreaped;
    multiprocessing.active_children sees only its own processes."""
    def check() -> bool:
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        return False
    return check
