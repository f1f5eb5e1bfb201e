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

and D is built once per run.  The system being linear, j steps from y
give exactly y + Delta_j y with Delta_j = (I + D)^j - I.  ``integrate``
builds the table Delta_1 ... Delta_B once per run, B = min(CHECK_STEPS,
n_steps), in increment form:

    Delta_1 = D,    Delta_{j+1} = Delta_j + D (I + Delta_j).

Each block of B rows then comes from the block's first row y_s in one
(6B x 6) matrix product, row s + j being y_s + Delta_j y_s, and the
block's last row starts the next block.  The conservation identities
are left vectors w with w A = 0, so w D = 0 and every increment adds
nothing to w Delta_j but rounding: the defect of each row is that of
y_s plus rounding of the size of the small increments.  Forming the
powers (I + D)^j instead would round entries near 1 at every product
and let the identities drift.  ``IntegratorConfig`` holds the step plan
alone: n_0 enters only through ``initial_state``, and since the system
is linear every count scales with it.  The first-emission rates c_a
and c_b are the compatible channel rates of
``analytic.solve_compatibility`` (each equal to the single-atom rate
g_i), and g_f = c_a + c_b.  With them the per-channel counts
reproduce the isolated-atom law N_i(t) = n_0 (1 - exp(-g_i t)) exactly.

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

from .analytic import RatePair, _require_array_size, solve_compatibility
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
    c_a, c_b, _ = solve_compatibility(rates)
    c_a, c_b = scale * c_a, scale * c_b
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
    row k is the state at t = k * step, row 0 being ``initial``, which
    must hold six finite numbers.  A trajectory larger than memory is
    refused before it is allocated.  Raises IntegrationBlowupError, at
    most ``CHECK_STEPS`` steps after some component stops being finite,
    naming the first such t (the scheme is conditionally stable, so
    absurd steps diverge).
    """
    y_0 = np.asarray(initial, dtype=float)
    if y_0.shape != (len(STATE_FIELDS),) or not np.isfinite(y_0).all():
        raise InvalidParameterError(
            f"initial state must be {len(STATE_FIELDS)} finite numbers, got {initial!r}")
    eye = np.eye(len(STATE_FIELDS))
    n_steps = config.n_steps
    _require_array_size(f"t_end / step = {config.t_end!r} / {config.step!r}",
                        (n_steps + 1) * len(STATE_FIELDS), 8)
    block = min(CHECK_STEPS, n_steps)
    # Overflow, in D, in the table or in the steps, is caught by the
    # finiteness check below, not warned about: a non-finite entry of
    # delta[j] makes the row it fills non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        ha = config.step * _rate_matrix(rates, first_emission_scale)
        d = ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)
        delta = np.empty((block, len(STATE_FIELDS), len(STATE_FIELDS)))
        delta[0] = d
        for j in range(1, block):
            delta[j] = delta[j - 1] + d @ (eye + delta[j - 1])
        traj = np.empty((n_steps + 1, len(STATE_FIELDS)))
        traj[0] = y_0
        for start in range(0, n_steps, block):
            stop = min(start + block, n_steps)
            y_s = traj[start]
            rows = traj[start + 1:stop + 1]
            # one flat (6m x 6) product: a stacked (m, 6, 6) @ (6,) one
            # takes several times as long
            rows[...] = y_s + (delta[:stop - start].reshape(-1, len(STATE_FIELDS))
                               @ y_s).reshape(rows.shape)
            bad = ~np.isfinite(rows).all(axis=1)
            if bad.any():
                k = start + 1 + int(np.argmax(bad))
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
