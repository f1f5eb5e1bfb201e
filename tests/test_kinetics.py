import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from firstphoton import analytic as an
from firstphoton import kinetics as kn
from firstphoton.analytic import RatePair
from firstphoton.errors import IntegrationBlowupError, InvalidParameterError

pop_st = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def one_step(state, rates, step=0.1, first_emission_scale=1.0):
    """The state after one RK4 step of ``integrate`` from ``state``."""
    config = kn.IntegratorConfig(step=step, t_end=step)
    return kn.integrate(np.asarray(state, dtype=float), rates, config,
                        first_emission_scale=first_emission_scale)[1]


def per_step(rates, config, first_emission_scale=1.0):
    """Reference trajectory from all pairs excited: the RK4 matrix of the
    module docstring's system, applied one step at a time."""
    g_a, g_b = rates.gamma_a, rates.gamma_b
    c_a, c_b = first_emission_scale * g_a, first_emission_scale * g_b
    g_f = c_a + c_b
    ha = config.step * np.array([
        [-g_f, 0, 0, 0, 0, 0],
        [c_b, -g_a, 0, 0, 0, 0],
        [c_a, 0, -g_b, 0, 0, 0],
        [c_a, g_a, 0, 0, 0, 0],
        [c_b, 0, g_b, 0, 0, 0],
        [g_f, 0, 0, 0, 0, 0],
    ], dtype=float)
    d = ha + ha @ ha / 2 + ha @ ha @ ha / 6 + ha @ ha @ ha @ ha / 24
    y = kn.initial_state(1.0)
    traj = [y]
    for _ in range(config.n_steps):
        y = y + d @ y
        traj.append(y)
    return np.array(traj)


def blowup_message(rates, config, first_emission_scale=1.0) -> str:
    with pytest.raises(IntegrationBlowupError) as info:
        kn.integrate(kn.initial_state(1.0), rates, config, first_emission_scale)
    return str(info.value)


def taylor4(x):
    """exp(-x) to fourth order: what one RK4 step makes of exp(-g h)."""
    return 1.0 - x + x ** 2 / 2.0 - x ** 3 / 6.0 + x ** 4 / 24.0


class TestDerivative:
    def test_initial_state_frozen(self, rates_ref):
        # oracle: the step is a polynomial in h A, so it takes each
        # closed-form term exp(-g t) of the all-excited solution to
        # taylor4(g h); a wrong rate in the first-emission column of A
        # moves the result at order h
        h = 0.1
        y = one_step(kn.initial_state(1.0), rates_ref, step=h)
        p_a, p_b, p_f = taylor4(1.0 * h), taylor4(1.5 * h), taylor4(2.5 * h)
        expected = (p_f, p_a - p_f, p_b - p_f, 1.0 - p_a, 1.0 - p_b, 1.0 - p_f)
        assert tuple(y) == pytest.approx(expected, rel=0, abs=1e-15)

    def test_zero_state(self, rates_ref):
        assert tuple(one_step(np.zeros(6), rates_ref)) == (0.0,) * 6

    @given(n_e=pop_st, n_a=pop_st, n_b=pop_st)
    def test_conservation_identities_hold_pointwise(self, n_e, n_a, n_b):
        rates = RatePair(1.0, 1.5)
        state = np.array([n_e, n_a, n_b, 0.1, 0.2, 0.3])
        before = kn.conservation_defects(state, 1.0)
        after = kn.conservation_defects(one_step(state, rates), 1.0)
        assert after[0] - before[0] == pytest.approx(0.0, abs=1e-12)
        assert after[1] - before[1] == pytest.approx(0.0, abs=1e-12)

    @given(n_e=pop_st, n_a=pop_st, n_b=pop_st,
           scale=st.floats(min_value=0.1, max_value=5.0))
    def test_conservation_survives_rate_scaling(self, n_e, n_a, n_b, scale):
        # the first-emission rates can be scaled jointly without breaking
        # either identity; the combined rate is not an independent dial
        rates = RatePair(1.0, 1.5)
        state = np.array([n_e, n_a, n_b, 0.0, 0.0, 0.0])
        before = kn.conservation_defects(state, 1.0)
        after = kn.conservation_defects(
            one_step(state, rates, first_emission_scale=scale), 1.0)
        assert after[0] - before[0] == pytest.approx(0.0, abs=1e-12)
        assert after[1] - before[1] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_scale(self, rates_ref):
        with pytest.raises(InvalidParameterError):
            one_step(kn.initial_state(), rates_ref, first_emission_scale=0.0)


class TestIntegratorConfig:
    @pytest.mark.parametrize("kw", [
        dict(step=0.0, t_end=1.0),
        dict(step=-0.1, t_end=1.0),
        dict(step=0.1, t_end=0.0),
    ])
    def test_rejects_bad_config(self, kw):
        with pytest.raises(InvalidParameterError):
            kn.IntegratorConfig(**kw)

    def test_step_count(self):
        assert kn.IntegratorConfig(step=2e-3, t_end=4.0).n_steps == 2000


class TestInitialState:
    @pytest.mark.parametrize("n_0", [0.0, -2.0, math.nan, math.inf])
    def test_rejects_bad_n_0(self, n_0):
        with pytest.raises(InvalidParameterError, match="n_0"):
            kn.initial_state(n_0)


class TestIntegrate:
    def test_matches_closed_forms(self, rates_ref):
        config = kn.IntegratorConfig(step=2e-3, t_end=4.0)
        traj = kn.integrate(kn.initial_state(1.0), rates_ref, config)
        assert traj.shape == (config.n_steps + 1, 6)
        t = config.step * np.arange(len(traj))
        worst = 0.0
        for field, closed in [
            ("n_e", np.exp(-2.5 * t)),
            ("n_a", np.exp(-1.0 * t) - np.exp(-2.5 * t)),
            ("n_b", np.exp(-1.5 * t) - np.exp(-2.5 * t)),
            ("cap_n_a", 1.0 - np.exp(-1.0 * t)),
            ("cap_n_b", 1.0 - np.exp(-1.5 * t)),
            ("cap_n_f", 1.0 - np.exp(-2.5 * t)),
        ]:
            got = traj[:, kn.STATE_FIELDS.index(field)]
            worst = max(worst, float(np.max(np.abs(got - closed))))
        assert worst < 1e-9

    def test_conservation_along_trajectory(self, rates_ref):
        config = kn.IntegratorConfig(step=4e-3, t_end=4.0)
        traj = kn.integrate(kn.initial_state(3.0), rates_ref, config)
        for row in traj[:: 100]:
            excitation, first = kn.conservation_defects(row, 3.0)
            assert abs(excitation) < 1e-9 * 3.0
            assert abs(first) < 1e-9 * 3.0

    def test_fourth_order_convergence(self, rates_ref):
        errors = []
        steps = [4e-3, 2e-3, 1e-3]
        for h in steps:
            config = kn.IntegratorConfig(step=h, t_end=4.0)
            traj = kn.integrate(kn.initial_state(1.0), rates_ref, config)
            t = h * np.arange(len(traj))
            n_e = traj[:, 0]
            errors.append(float(np.max(np.abs(n_e - np.exp(-2.5 * t)))))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(orders - 4.0) < 0.3)

    def test_scaled_rates_break_single_atom_law(self, rates_ref):
        # a 10 percent bump of the first-emission rates leaves both
        # conservation identities intact but visibly bends cap_n_a away
        # from the isolated-atom curve
        config = kn.IntegratorConfig(step=2e-3, t_end=4.0)
        traj = kn.integrate(kn.initial_state(1.0), rates_ref, config,
                            first_emission_scale=1.1)
        t = config.step * np.arange(len(traj))
        cap_n_a = traj[:, kn.STATE_FIELDS.index("cap_n_a")]
        deviation = float(np.max(np.abs(cap_n_a - (1.0 - np.exp(-1.0 * t)))))
        assert deviation > 1e-3
        excitation, first = kn.conservation_defects(traj[:: 200], 1.0)
        assert np.all(np.abs(excitation) < 1e-9)
        assert np.all(np.abs(first) < 1e-9)

    def test_absurd_step_blows_up(self, rates_ref):
        config = kn.IntegratorConfig(step=50.0, t_end=5000.0)
        with pytest.raises(IntegrationBlowupError):
            kn.integrate(kn.initial_state(1.0), rates_ref, config)

    def test_blowup_in_a_later_block_names_its_first_step(self, rates_ref, monkeypatch):
        # at this step RK4 grows slowly: the state overflows at step 5280,
        # inside the sixth block of CHECK_STEPS
        config = kn.IntegratorConfig(step=1.15, t_end=1.15 * 8000)
        messages = []
        for check_steps in (1, 7, kn.CHECK_STEPS, config.n_steps):   # down to one step a block
            monkeypatch.setattr(kn, "CHECK_STEPS", check_steps)
            messages.append(blowup_message(rates_ref, config))
        assert len(set(messages)) == 1
        assert "t=6072 " in messages[0]

    @pytest.mark.parametrize("rates, step, scale, t", [
        (RatePair(1.0, 1.5), 2.0, 1.0, "544"),
        (RatePair(0.3, 7.0), 1.2, 2.5, "94.8"),
        (RatePair(1.0, 1.5), 50.0, 2.5, "1800"),
    ])
    def test_blowup_names_its_first_step(self, rates, step, scale, t):
        config = kn.IntegratorConfig(step=step, t_end=step * 20000)
        assert f"t={t} " in blowup_message(rates, config, scale)

    @pytest.mark.parametrize("scale", [1.0, 1.1])
    def test_matches_per_step_oracle(self, rates_ref, scale):
        config = kn.IntegratorConfig(step=1e-4, t_end=4.0)
        traj = kn.integrate(kn.initial_state(1.0), rates_ref, config, scale)
        assert config.n_steps == 40000
        assert np.max(np.abs(traj - per_step(rates_ref, config, scale))) < 1e-13

    def test_same_trajectory_for_any_block_length(self, rates_ref, monkeypatch):
        config = kn.IntegratorConfig(step=1e-3, t_end=4.0)
        trajectories = []
        for check_steps in (1, 7, 1024, config.n_steps):
            monkeypatch.setattr(kn, "CHECK_STEPS", check_steps)
            trajectories.append(kn.integrate(kn.initial_state(1.0), rates_ref, config))
        for traj in trajectories[1:]:
            assert np.max(np.abs(traj - trajectories[0])) < 1e-13

    def test_conservation_at_rounding_level(self, rates_ref):
        config = kn.IntegratorConfig(step=1e-4, t_end=4.0)
        traj = kn.integrate(kn.initial_state(1.0), rates_ref, config)
        excitation, first = kn.conservation_defects(traj, 1.0)
        assert np.max(np.abs(excitation)) < 1e-13
        assert np.max(np.abs(first)) < 1e-13

    @pytest.mark.parametrize("initial", [
        [math.nan, 0, 0, 0, 0, 0],
        [1, 0, 0, math.inf, 0, 0],
        [1, 0, 0, 0, 0],
        np.zeros((2, 6)),
    ], ids=["nan", "inf", "five-components", "two-states"])
    def test_rejects_bad_initial(self, rates_ref, initial):
        config = kn.IntegratorConfig(step=1e-3, t_end=1.0)
        with pytest.raises(InvalidParameterError, match="initial state"):
            kn.integrate(np.asarray(initial, dtype=float), rates_ref, config)

    def test_n0_scales_linearly(self, rates_ref):
        config = kn.IntegratorConfig(step=1e-2, t_end=1.0)
        last_7 = kn.integrate(kn.initial_state(7.0), rates_ref, config)[-1]
        last_1 = kn.integrate(kn.initial_state(1.0),
                              rates_ref,
                              kn.IntegratorConfig(step=1e-2, t_end=1.0))[-1]
        assert last_7[0] == pytest.approx(7.0 * last_1[0], rel=1e-12)
        assert last_7[5] == pytest.approx(7.0 * last_1[5], rel=1e-12)

    def test_channel_counts_match_analytic_module(self, rates_ref):
        config = kn.IntegratorConfig(step=1e-3, t_end=1.0)
        n_e, n_a, n_b, cap_n_a, cap_n_b, cap_n_f = kn.integrate(
            kn.initial_state(1.0), rates_ref, config)[-1]
        assert n_a == pytest.approx(
            an.intermediate_population(1.0, rates_ref, "A"), abs=1e-10)
        assert cap_n_a == pytest.approx(an.single_type_cdf(1.0, 1.0), abs=1e-10)
        assert cap_n_f == pytest.approx(
            an.first_emission_cdf_entangled(1.0, rates_ref), abs=1e-10)
        # oracle: a pair has emitted both photons once it has emitted its
        # first and no longer holds an excitation in channel A or B
        second = cap_n_a + cap_n_b - cap_n_f
        assert second == pytest.approx(
            an.first_emission_cdf_entangled(1.0, rates_ref)
            - an.intermediate_population(1.0, rates_ref, "A")
            - an.intermediate_population(1.0, rates_ref, "B"), abs=1e-10)
