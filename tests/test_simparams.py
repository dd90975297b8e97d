import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowforge.config import resolve_config
from flowforge.errors import GeometryError
from flowforge.sampling import GeneratorState, freeze_dimension, next_point
from flowforge.simparams import (mach_check, nu_from_tau, omega_from_tau,
                                 reynolds, sample_flags,
                                 sample_inlet_velocity, sample_sim_params,
                                 sim_draw_width, target_reynolds, tau_from_nu)


def make_state(dim=13, seed=0, mode="sobol"):
    state = GeneratorState(mode=mode, seed=seed)
    freeze_dimension(state, dim)
    return state


def default_policy():
    return resolve_config().sim_param_policy


class TestViscosityAlgebra:
    def test_tau_half_is_error(self):
        with pytest.raises(GeometryError, match="non-positive viscosity"):
            nu_from_tau(0.5)

    def test_tau_two(self):
        assert nu_from_tau(2.0) == pytest.approx(0.5)
        assert omega_from_tau(2.0) == pytest.approx(0.5)

    @given(st.floats(0.5 + 1e-9, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, tau):
        assert tau_from_nu(nu_from_tau(tau)) == pytest.approx(tau, abs=1e-12)

    def test_example_nu_sixth(self):
        # nu0 = 1/6 corresponds to tau = 1.0
        assert tau_from_nu(1.0 / 6.0) == pytest.approx(1.0)
        assert reynolds(0.04186, 512.0, 1.0 / 6.0) == pytest.approx(
            0.04186 * 512.0 * 6.0)


class TestTargetReynolds:
    def test_worked_example(self):
        nu0, tau, capped = target_reynolds(1000.0, 0.05, 512.0)
        assert nu0 == pytest.approx(0.0256)
        assert tau == pytest.approx(0.5768)
        assert not capped

    @given(st.floats(100.0, 15000.0), st.floats(0.001488, 0.1488))
    @settings(max_examples=100, deadline=None)
    def test_achieved_re_exact(self, re_target, u):
        nu0, tau, _ = target_reynolds(re_target, u, 512.0)
        achieved = reynolds(u, 512.0, nu0)
        assert achieved == pytest.approx(re_target, rel=1e-12)

    def test_tau_cap_flagged_not_fatal(self):
        # tiny Re with large U pushes tau far above the stability cap
        nu0, tau, capped = target_reynolds(10.0, 0.1, 512.0, tau_cap=1.99)
        assert tau > 1.99 and capped


class TestMachCheck:
    def test_small_velocity_passes(self):
        ma, ok_inlet, ok_global = mach_check([0.05, 0.0, 0.0])
        assert ma == pytest.approx(0.05 * math.sqrt(3))
        assert ok_inlet and ok_global

    def test_policy_max_fails_both_gates(self):
        ma, ok_inlet, ok_global = mach_check([0.1488, 0.0, 0.0])
        assert ma == pytest.approx(0.2577, abs=1e-4)
        assert not ok_inlet and not ok_global

    def test_zero(self):
        ma, ok_inlet, ok_global = mach_check([0.0, 0.0, 0.0])
        assert ma == 0.0 and ok_inlet and ok_global


class TestInletDraw:
    def test_axis_aligned_scaling(self):
        direction = np.array([1.0, 0.0, 0.0])
        assert np.allclose(direction * 0.05, [0.05, 0.0, 0.0])
        # a real draw keeps |u| equal to the sampled magnitude after rounding
        policy = default_policy()
        state = make_state(seed=2)
        draw = sample_inlet_velocity(policy, state)
        assert draw.velocity[0] >= policy["min_x_component_after_scaling"]
        assert np.linalg.norm(draw.velocity) == pytest.approx(
            draw.magnitude, abs=1e-5)

    def test_low_x_direction_rejected_advances_index(self):
        policy = dict(default_policy())
        policy["min_x_component_generator"] = 0.99  # reject almost everything
        state = make_state(seed=1)
        before = state.index
        try:
            draw = sample_inlet_velocity(policy, state)
            consumed = state.index - before
            assert consumed >= 2 * 1 and draw.attempts > 1
        except GeometryError:
            assert state.index - before >= 2 * policy["rejection_budget"] - 1

    def test_post_scale_threshold_rejects(self):
        policy = dict(default_policy())
        # force tiny magnitudes so x after scaling can drop below threshold
        policy["magnitude_min"] = 0.0011
        policy["magnitude_max"] = 0.0012
        policy["min_x_component_generator"] = 0.10
        state = make_state(seed=3, mode="uniform")
        draw = sample_inlet_velocity(policy, state)
        assert draw.velocity[0] >= policy["min_x_component_after_scaling"]

    def test_budget_exhaustion_is_error(self):
        policy = dict(default_policy())
        policy["min_x_component_generator"] = 1.1  # impossible
        policy["rejection_budget"] = 50
        state = make_state(seed=4)
        with pytest.raises(GeometryError, match="budget"):
            sample_inlet_velocity(policy, state)


class TestFlags:
    def test_x_never_periodic(self):
        policy = default_policy()
        state = make_state(seed=5, mode="uniform")
        for _ in range(50):
            flags, _ = sample_flags(policy, state)
            assert flags[0] is False

    def test_refinement_threshold(self):
        policy = dict(default_policy())
        width = sim_draw_width(policy)
        # u = 0.19 vs p = 0.20 -> flag 1 ; u = 0.21 -> flag 0
        assert (0.19 < policy["refinement_probability"]) is True
        assert (0.21 < policy["refinement_probability"]) is False

    def test_refinement_rate_binomial(self):
        policy = default_policy()
        state = make_state(seed=6, mode="uniform")
        n = 10_000
        hits = sum(sample_flags(policy, state)[1] for _ in range(n))
        p = policy["refinement_probability"]
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(hits - n * p) < 3 * sigma


class TestSampleSimParams:
    def test_full_draw_consistent(self):
        cfg = resolve_config()
        state = make_state(dim=13, seed=7)
        params = sample_sim_params(cfg.data, state)
        assert params.tau > 0.5
        assert params.omega == pytest.approx(1.0 / params.tau, rel=1e-12)
        lo, hi = cfg.sim_param_policy["re_band"]
        assert lo <= params.re <= hi
        achieved = reynolds(params.vector_magnitude, 512.0, params.nu0)
        assert achieved == pytest.approx(params.re, rel=1e-12)

    def test_emitted_params_revalidate(self):
        cfg = resolve_config()
        state = make_state(dim=13, seed=8, mode="uniform")
        for _ in range(25):
            params = sample_sim_params(cfg.data, state)
            params.validate(cfg.sim_param_policy)  # raises on violation

    def test_direction_rejection_preserves_ordering(self):
        cfg = resolve_config()
        a = make_state(dim=13, seed=9)
        sample_sim_params(cfg.data, a)
        ordinal = a.index
        probe_a = next_point(a)
        # a twin advanced to the same ordinal sees the same point: the
        # rejection loop shifts ordinals but never permutes the sequence
        b = make_state(dim=13, seed=9)
        b.index = ordinal
        probe_b = next_point(b)
        np.testing.assert_array_equal(probe_a, probe_b)
