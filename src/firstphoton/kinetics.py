"""Rate-equation kinetics of an ensemble of excited two-atom pairs.

State variables (absolute counts out of n_0 pairs):

    n_e      pairs still holding their excitation (no photon yet)
    n_a      pairs whose remaining excited atom emits in channel A
    n_b      likewise for channel B
    cap_n_a  photons emitted so far in channel A
    cap_n_b  photons emitted so far in channel B
    cap_n_f  first photons emitted so far (any channel)

The coupled linear system

    dn_e/dt = -g_f n_e
    dn_i/dt = c_j n_e - g_i n_i
    dN_i/dt = c_i n_e + g_i n_i
    dN_f/dt = g_f n_e

is integrated with a fixed-step classical Runge-Kutta scheme.  The
system is linear, dy/dt = A y, so one RK4 step of size h is exactly

    y <- y + D y,    D = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24,

and D is built once per run.  ``IntegratorConfig`` holds the step plan
alone: n_0 enters only through ``initial_state``, and since the system
is linear every count scales with it.  With the compatible channel
rates (c_i equal to the single-atom rate g_i and g_f = g_a + g_b) the
per-channel counts reproduce the isolated-atom law
N_i(t) = n_0 (1 - exp(-g_i t)) exactly.

``first_emission_scale`` multiplies every first-emission rate (c_a, c_b
and hence g_f) by a common factor while leaving the relaxation of the
intermediate states untouched.  The two conservation identities

    2 n_e + n_a + n_b + cap_n_a + cap_n_b = 2 n_0
    cap_n_f + n_e = n_0

hold for any scale, but the per-channel counts deviate from the
single-atom law unless the scale is 1: the combined first-emission rate
is not adjustable independently of the channel rates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import RatePair
from .errors import IntegrationBlowupError, InvalidParameterError

STATE_FIELDS = ("n_e", "n_a", "n_b", "cap_n_a", "cap_n_b", "cap_n_f")
# steps between finiteness checks: a blow-up stops the run within this
# many steps, and a check per step would cost about as much as the step
CHECK_STEPS = 1024


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration plan; t_end is rounded to whole steps."""

    step: float
    t_end: float

    def __post_init__(self):
        if not np.isfinite(self.step) or self.step <= 0.0:
            raise InvalidParameterError(f"step must be positive and finite, got {self.step!r}")
        if not np.isfinite(self.t_end) or self.t_end <= 0.0:
            raise InvalidParameterError(f"t_end must be positive and finite, got {self.t_end!r}")
        if not np.isfinite(float(self.t_end) / float(self.step)):
            raise InvalidParameterError(
                f"t_end / step = {self.t_end!r} / {self.step!r} overflows: "
                "the step count must be finite")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.step)))


def initial_state(n_0: float = 1.0) -> np.ndarray:
    """All n_0 pairs excited, nothing emitted; fields in ``STATE_FIELDS`` order."""
    if not np.isfinite(n_0) or n_0 <= 0.0:
        raise InvalidParameterError(f"n_0 must be positive and finite, got {n_0!r}")
    return np.array([n_0, 0.0, 0.0, 0.0, 0.0, 0.0], dtype=float)


def _rate_matrix(rates: RatePair, scale: float) -> np.ndarray:
    if not np.isfinite(scale) or scale <= 0.0:
        raise InvalidParameterError(
            f"first_emission_scale must be positive and finite, got {scale!r}")
    g_a, g_b = rates.gamma_a, rates.gamma_b
    c_a, c_b = scale * g_a, scale * g_b
    g_f = c_a + c_b
    return np.array([
        [-g_f, 0.0, 0.0, 0.0, 0.0, 0.0],
        [c_b, -g_a, 0.0, 0.0, 0.0, 0.0],
        [c_a, 0.0, -g_b, 0.0, 0.0, 0.0],
        [c_a, g_a, 0.0, 0.0, 0.0, 0.0],
        [c_b, 0.0, g_b, 0.0, 0.0, 0.0],
        [g_f, 0.0, 0.0, 0.0, 0.0, 0.0],
    ])


def integrate(initial: np.ndarray, rates: RatePair, config: IntegratorConfig,
              first_emission_scale: float = 1.0) -> np.ndarray:
    """Integrate with classical fourth-order Runge-Kutta at fixed step.

    Returns an (n_steps + 1, 6) array in ``STATE_FIELDS`` order whose
    row k is the state at t = k * step, row 0 being ``initial``.  Raises
    IntegrationBlowupError, at most ``CHECK_STEPS`` steps after some
    component stops being finite, naming the first such t (the scheme is
    conditionally stable, so absurd steps diverge).
    """
    eye = np.eye(len(STATE_FIELDS))
    # stepping the increment keeps the conservation identities at
    # rounding level; multiplying by (I + D) lets them drift.  Overflow,
    # in D itself or in the steps, is caught by the finiteness check
    # below, not warned about: a non-finite D makes row 1 non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        ha = config.step * _rate_matrix(rates, first_emission_scale)
        d = ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)
        traj = np.empty((config.n_steps + 1, len(STATE_FIELDS)))
        traj[0] = initial
        # a non-finite component stays so (inf + x is inf or nan), so
        # the last row of each block tells whether the block blew up
        for start in range(0, config.n_steps, CHECK_STEPS):
            stop = min(start + CHECK_STEPS, config.n_steps)
            for k in range(start, stop):
                traj[k + 1] = traj[k] + d @ traj[k]
            if not np.isfinite(traj[stop]).all():
                k = start + int(np.argmin(np.isfinite(traj[start:stop + 1]).all(axis=1)))
                raise IntegrationBlowupError(
                    f"state became non-finite at t={k * config.step:.6g} "
                    f"(step={config.step}); reduce the step size")
    return traj


def conservation_defects(y: np.ndarray, n_0: float):
    """Residuals of the two exact conservation identities, for one state
    vector or for every row of a trajectory."""
    n_e, n_a, n_b, cap_n_a, cap_n_b, cap_n_f = np.asarray(y, dtype=float).T
    excitation = 2.0 * n_e + n_a + n_b + cap_n_a + cap_n_b - 2.0 * n_0
    first = cap_n_f + n_e - n_0
    return excitation, first
