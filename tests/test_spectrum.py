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

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rates=st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), min_size=2, max_size=8),
        slots=st.integers(0, 12),
    )
    def test_stacked_steps_are_rounds_of_single_steps(self, seed, rates, slots):
        pairs = list(zip(rates[::2], rates[1::2]))
        stacked = [PrimaryChannel(p01, p10, state=m % 2) for m, (p01, p10) in enumerate(pairs)]
        single = [PrimaryChannel(p01, p10, state=m % 2) for m, (p01, p10) in enumerate(pairs)]
        rng_a, rng_b = make_rng(seed, 1), make_rng(seed, 1)
        got = step_primary(stacked, rng_a, slots=slots)
        want = [[step_primary(ch, rng_b) for ch in single] for _ in range(slots)]
        assert got.shape == (slots, len(pairs))
        assert got.tolist() == want
        assert [ch.state for ch in stacked] == [ch.state for ch in single]
        assert rng_a.random() == rng_b.random()


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

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        states=st.lists(
            st.lists(st.integers(0, 1), min_size=3, max_size=3), min_size=1, max_size=6
        ),
        errors=st.tuples(st.sampled_from([0.0, 0.1, 0.49]), st.sampled_from([0.0, 0.2, 0.45])),
    )
    def test_an_array_of_states_draws_as_single_reports_in_c_order(self, seed, states, errors):
        profile = SensorProfile(*errors)
        grid = np.array(states)
        rng_a, rng_b = make_rng(seed, 2), make_rng(seed, 2)
        got = sense(grid, profile, rng_a)
        want = [[sense(int(s), profile, rng_b) for s in row] for row in grid]
        assert got.shape == grid.shape
        assert got.tolist() == want
        assert rng_a.random() == rng_b.random()

    def test_an_array_with_a_bad_state_is_rejected_before_drawing(self):
        rng = make_rng(0, 3)
        with pytest.raises(ValueError, match="true_state"):
            sense(np.array([[0, 1], [2, 0]]), SensorProfile(0.1, 0.1), rng)
        assert rng.random() == make_rng(0, 3).random()


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


# (prior, report lists, profile per position): fusion inputs with every
# corner the stream runner can reach, padded to one length per draw
PRIORS = st.sampled_from([0.0, 0.25, 4 / 7, 0.9, 1.0])
PROFILES = st.tuples(st.sampled_from([0.0, 0.05, 0.3]), st.sampled_from([0.0, 0.2, 0.45]))


def padded(report_lists):
    """(reports, valid) arrays for report lists, padded to the longest."""
    width = max(map(len, report_lists))
    reports = np.zeros((len(report_lists), width), dtype=int)
    valid = np.zeros((len(report_lists), width), dtype=bool)
    for r, obs in enumerate(report_lists):
        reports[r, : len(obs)] = obs
        valid[r, : len(obs)] = True
    return reports, valid


class TestArrayFusion:
    @settings(max_examples=200, deadline=None)
    @given(
        priors=st.lists(PRIORS, min_size=1, max_size=6),
        lists=st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=4), min_size=6, max_size=6),
        errors=st.lists(PROFILES, min_size=4, max_size=4),
    )
    def test_each_row_is_the_list_route_bit_for_bit(self, priors, lists, errors):
        profiles = [SensorProfile(*e) for e in errors]
        lists = lists[: len(priors)]
        reports, valid = padded(lists)
        # padding holds 1s, which the update must skip
        reports[~valid] = 1
        want = []
        for prior, obs in zip(priors, lists):
            try:
                want.append(fuse_beliefs(prior, obs, profiles[: len(obs)]).hex())
            except ValueError as exc:
                want.append(str(exc))
        width = reports.shape[1]
        if any(not w.startswith("0x") for w in want):
            with pytest.raises(ValueError, match="impossible"):
                fuse_beliefs(np.array(priors), reports, profiles[:width], valid=valid)
            return
        got = fuse_beliefs(np.array(priors), reports, profiles[:width], valid=valid)
        assert got.shape == (len(priors),)
        assert [p.hex() for p in got.tolist()] == want

    def test_leading_axes_and_a_broadcast_prior(self):
        profile = SensorProfile(0.3, 0.3)
        reports = np.array([[[0, 1], [1, 1]], [[0, 0], [1, 0]], [[1, 0], [0, 1]]])
        got = fuse_beliefs(np.array([0.2, 0.7]), reports, [profile, profile])
        assert got.shape == (3, 2)
        for s in range(3):
            for m, prior in enumerate((0.2, 0.7)):
                want = fuse_beliefs(prior, reports[s, m].tolist(), [profile, profile])
                assert got[s, m].hex() == want.hex()

    def test_array_input_validation(self):
        profile = SensorProfile(0.3, 0.3)
        reports = np.array([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="at least one observation"):
            fuse_beliefs(0.5, reports, [profile] * 2, valid=np.array([[True, True], [False, True]]))
        with pytest.raises(ValueError, match="at least one observation"):
            fuse_beliefs(0.5, np.zeros((2, 0), dtype=int), [], valid=np.zeros((2, 0), dtype=bool))
        with pytest.raises(ValueError, match="valid must mark"):
            fuse_beliefs(0.5, reports, [profile] * 2, valid=np.ones(2, dtype=bool))
        with pytest.raises(ValueError, match="one sensor profile"):
            fuse_beliefs(0.5, reports, [profile])
        with pytest.raises(ValueError, match="0/1 reports"):
            fuse_beliefs(0.5, np.array([[0, 2], [1, 0]]), [profile] * 2)
        with pytest.raises(ValueError, match="busy_prior"):
            fuse_beliefs(np.array([0.5, math.nan]), reports, [profile] * 2)
        # a bad value in a padded position is not a report
        got = fuse_beliefs(
            0.5, np.array([[0, 7]]), [profile] * 2, valid=np.array([[True, False]])
        )
        assert got[0] == fuse_beliefs(0.5, [0], [profile])


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
        p_idle = [0.25, 0.5]
        decision = decide_access(p_idle, policy, rng)
        assert decision.available == (0, 1)
        # callers sum the cleared posteriors themselves
        assert sum(p_idle[m] for m in decision.available) == pytest.approx(0.75)
        assert decision.p_access == pytest.approx([1.0, 1.0])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_an_array_gets_each_scalar_probability(self, p_idle, gamma):
        def by_floats(p):
            return 1.0 if p == 1.0 else min(gamma / (1.0 - p), 1.0)

        got = access_probability(np.array(p_idle, dtype=float), gamma)
        assert [p.hex() for p in got.tolist()] == [by_floats(p).hex() for p in p_idle]
        for p in p_idle:
            for scalar in (p, np.array(p)):
                one = access_probability(scalar, gamma)
                assert type(one) is float and one.hex() == by_floats(p).hex()

    def test_an_array_is_checked_as_each_scalar(self):
        with pytest.raises(ValueError, match="p_idle"):
            access_probability(np.array([0.5, math.nan]), 0.2)
        with pytest.raises(ValueError, match="p_idle"):
            access_probability(np.array([0.5, 1.5]), 0.2)
        with pytest.raises(ValueError, match="gamma"):
            access_probability(np.array([0.5]), 1.2)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        slots=st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
            min_size=1,
            max_size=6,
        ),
    )
    def test_consecutive_slots_offered_at_once_decide_as_slot_by_slot(self, seed, slots):
        policy = AccessPolicy(0.3)
        flat = decide_access(np.array(slots).ravel(), policy, make_rng(seed, 4))
        rng = make_rng(seed, 4)
        available, p_access = [], []
        for t, p_idle in enumerate(slots):
            one = decide_access(p_idle, policy, rng)
            available += [3 * t + m for m in one.available]
            p_access += one.p_access.tolist()
        assert flat.available == tuple(available)
        assert flat.p_access.tolist() == p_access

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
