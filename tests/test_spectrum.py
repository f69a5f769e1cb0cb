"""Occupancy chains, cooperative sensing fusion, and guarded access."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtokit.harness.oracles import fuse_beliefs_batch
from femtokit.netmodel import make_rng
from femtokit.spectrum import (
    AccessPolicy,
    PrimaryChannel,
    SensorProfile,
    access_probability,
    decide_access,
    fuse_beliefs,
    sense,
    step_primary,
)


class TestPrimaryChannel:
    def test_stationary_prior_from_transition_rates(self):
        assert PrimaryChannel(0.4, 0.3).busy_prior == pytest.approx(4.0 / 7.0, abs=1e-15)

    def test_prior_override_and_validation(self):
        assert PrimaryChannel(0.4, 0.3, busy_prior=0.9).busy_prior == 0.9
        with pytest.raises(ValueError):
            PrimaryChannel(1.4, 0.3)
        with pytest.raises(ValueError):
            PrimaryChannel(0.4, 0.3, busy_prior=1.5)
        with pytest.raises(ValueError):
            PrimaryChannel(0.4, 0.3, state=2)

    def test_long_run_busy_fraction_is_stationary(self):
        rng = make_rng(5, 70)
        ch = PrimaryChannel(0.4, 0.3)
        ch.reset_stationary(rng)
        n = 20000
        busy = sum(step_primary(ch, rng) for _ in range(n))
        sigma = math.sqrt((4 / 7) * (3 / 7) / n)
        assert abs(busy / n - 4 / 7) < 5 * sigma

    def test_frozen_chain_stays_put(self):
        rng = make_rng(6, 71)
        ch = PrimaryChannel(0.0, 0.0, busy_prior=0.0, state=1)
        assert all(step_primary(ch, rng) == 1 for _ in range(10))


class TestSensing:
    def test_report_error_rates(self):
        rng = make_rng(7, 72)
        profile = SensorProfile(0.3, 0.2)
        n = 20000
        false_alarms = sum(sense(0, profile, rng) for _ in range(n)) / n
        misses = sum(1 - sense(1, profile, rng) for _ in range(n)) / n
        assert false_alarms == pytest.approx(0.3, abs=0.02)
        assert misses == pytest.approx(0.2, abs=0.02)

    def test_profile_requires_informative_sensors(self):
        with pytest.raises(ValueError):
            SensorProfile(0.5, 0.1)
        with pytest.raises(ValueError):
            SensorProfile(0.1, -0.01)
        with pytest.raises(ValueError):
            sense(2, SensorProfile(0.1, 0.1), make_rng(0))


class TestFusion:
    def test_even_prior_idle_report_hand_value(self):
        got = fuse_beliefs(0.5, [0], [SensorProfile(0.3, 0.3)])
        assert got == pytest.approx(0.7, abs=1e-12)

    def test_sequential_equals_batch_on_every_sequence(self):
        profiles = [
            SensorProfile(0.3, 0.3),
            SensorProfile(0.1, 0.2),
            SensorProfile(0.05, 0.4),
            SensorProfile(0.25, 0.05),
        ]
        for obs in itertools.product((0, 1), repeat=len(profiles)):
            seq = fuse_beliefs(4 / 7, obs, profiles)
            batch = fuse_beliefs_batch(4 / 7, obs, profiles)
            assert abs(seq - batch) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.floats(min_value=0.01, max_value=0.49),
                st.floats(min_value=0.01, max_value=0.49),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_report_order_never_matters(self, prior, reports):
        obs = [r[0] for r in reports]
        profiles = [SensorProfile(r[1], r[2]) for r in reports]
        forward = fuse_beliefs(prior, obs, profiles)
        backward = fuse_beliefs(prior, obs[::-1], profiles[::-1])
        assert forward == pytest.approx(backward, abs=1e-12)

    def test_certain_busy_report_pins_posterior(self):
        # a zero-false-alarm sensor reporting busy leaves no idle probability
        got = fuse_beliefs(0.5, [1, 0], [SensorProfile(0.0, 0.1), SensorProfile(0.3, 0.3)])
        assert got == 0.0

    def test_certainly_busy_prior_dominates(self):
        assert fuse_beliefs(1.0, [0], [SensorProfile(0.3, 0.3)]) == 0.0

    def test_impossible_evidence_rejected_on_both_routes(self):
        with pytest.raises(ValueError):
            fuse_beliefs_batch(1.0, [0], [SensorProfile(0.3, 0.0)])
        with pytest.raises(ValueError):
            fuse_beliefs(1.0, [0], [SensorProfile(0.3, 0.0)])
        with pytest.raises(ValueError):
            fuse_beliefs(0.5, [0, 1], [SensorProfile(0.0, 0.0), SensorProfile(0.0, 0.0)])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fuse_beliefs(0.5, [], [])
        with pytest.raises(ValueError):
            fuse_beliefs(0.5, [0, 1], [SensorProfile(0.3, 0.3)])
        with pytest.raises(ValueError):
            fuse_beliefs(0.5, [2], [SensorProfile(0.3, 0.3)])
        with pytest.raises(ValueError):
            fuse_beliefs(1.2, [0], [SensorProfile(0.3, 0.3)])


class TestAccess:
    def test_budget_spread_over_busy_probability(self):
        assert access_probability(0.7, 0.2) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_certainly_idle_channel_always_granted(self):
        assert access_probability(1.0, 0.2) == 1.0

    def test_zero_budget_blocks_everything(self):
        assert access_probability(0.4, 0.0) == 0.0

    def test_probability_caps_at_one(self):
        assert access_probability(0.95, 0.2) == 1.0

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_expected_collision_never_exceeds_budget(self, p_idle, gamma):
        assert access_probability(p_idle, gamma) * (1.0 - p_idle) <= gamma + 1e-12

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AccessPolicy(-0.1)
        assert AccessPolicy(0.2).access_probability(0.7) == pytest.approx(2.0 / 3.0)

    def test_decision_accounts_expected_idle_channels(self):
        rng = make_rng(8, 73)
        policy = AccessPolicy(1.0)
        decision = decide_access([0.25, 0.5], policy, rng)
        assert decision.available == (0, 1)
        assert decision.expected_available == pytest.approx(0.75)
        assert decision.p_access == pytest.approx([1.0, 1.0])

    def test_decision_reproducible_for_a_seeded_stream(self):
        a = decide_access([0.6, 0.2, 0.9], AccessPolicy(0.2), make_rng(9, 74))
        b = decide_access([0.6, 0.2, 0.9], AccessPolicy(0.2), make_rng(9, 74))
        assert a.available == b.available

    def test_empirical_collision_rate_stays_below_budget(self):
        gamma, n_slots = 0.2, 20000
        rng = make_rng(10, 75)
        ch = PrimaryChannel(0.4, 0.3)
        ch.reset_stationary(rng)
        profile = SensorProfile(0.3, 0.3)
        policy = AccessPolicy(gamma)
        collisions = 0
        for _ in range(n_slots):
            state = step_primary(ch, rng)
            obs = [sense(state, profile, rng) for _ in range(2)]
            p_idle = fuse_beliefs(ch.busy_prior, obs, [profile, profile])
            decision = decide_access([p_idle], policy, rng)
            if decision.available and state == 1:
                collisions += 1
        bound = gamma + 3 * math.sqrt(gamma * (1 - gamma) / n_slots)
        assert collisions / n_slots <= bound
