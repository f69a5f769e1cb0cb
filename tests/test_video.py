"""Affine rate-quality model, slot losses, and windowed quality tracking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtokit.video import (
    LossModel,
    StreamState,
    loss_probability,
    success_probability,
    update_psnr,
)


class TestRateQuality:
    def test_validation(self):
        # base-layer quality alpha and the per-share quality rates of W = alpha + beta*R
        with pytest.raises(ValueError):
            StreamState(np.zeros(2), np.ones(2), np.ones(2), np.full(2, np.inf))
        with pytest.raises(ValueError):
            StreamState(np.full(2, 30.0), np.array([1.0, -1e-6]), np.ones(2), np.full(2, np.inf))
        with pytest.raises(ValueError):
            StreamState(np.full(2, 30.0), np.ones(2), np.array([-1e-6, 1.0]), np.full(2, np.inf))


class TestLossModel:
    def test_exponential_outage_hand_value(self):
        model = LossModel(decode_threshold=1.0, mean_sinr=2.0)
        assert loss_probability(model) == pytest.approx(1.0 - math.exp(-0.5), rel=1e-12)

    def test_loss_and_success_are_complements(self):
        model = LossModel(1.5, 3.0)
        assert loss_probability(model) + success_probability(model) == pytest.approx(1.0)

    def test_zero_threshold_never_loses(self):
        assert loss_probability(LossModel(0.0, 1.0)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LossModel(-1.0, 1.0)
        with pytest.raises(ValueError):
            LossModel(1.0, 0.0)
        with pytest.raises(ValueError):
            LossModel(1.0, math.nan)

    @given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.01, max_value=100.0))
    def test_loss_is_a_probability(self, threshold, mu):
        p = loss_probability(LossModel(threshold, mu))
        assert 0.0 <= p <= 1.0


def fresh_state(cap=np.inf):
    return StreamState(
        alpha=np.array([30.0, 32.0]),
        rate_mbs=np.array([2.0, 1.0]),
        rate_fbs=np.array([0.5, 0.25]),
        psnr_cap=np.full(2, cap),
    )


class TestStreamState:
    def test_quality_starts_at_base_layer(self):
        st_ = fresh_state()
        assert st_.psnr.tolist() == [30.0, 32.0]

    def test_window_reset_restores_base_layer(self):
        st_ = fresh_state()
        st_.psnr += 3.0
        st_.reset_window()
        assert st_.psnr.tolist() == [30.0, 32.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StreamState(np.ones(2), np.ones(3), np.ones(2), np.ones(2))

    def test_macro_branch_delivery(self):
        st_ = fresh_state()
        got = update_psnr(
            st_,
            connect_mbs=[True, True],
            rho_mbs=[0.5, 0.0],
            rho_fbs=[0.0, 0.0],
            xi_mbs=[1.0, 1.0],
            xi_fbs=[1.0, 1.0],
            g_user=[1.0, 1.0],
        )
        # user 0 gains 1.0*0.5*2.0; user 1 held no share
        assert got.tolist() == pytest.approx([31.0, 32.0])

    def test_femto_branch_scales_by_expected_channels(self):
        st_ = fresh_state()
        got = update_psnr(st_, [False, False], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [2.0, 4.0])
        assert got.tolist() == pytest.approx([31.0, 33.0])

    def test_lost_slot_delivers_nothing(self):
        st_ = fresh_state()
        got = update_psnr(st_, [True, False], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0])
        assert got.tolist() == pytest.approx([30.0, 32.0])

    def test_cap_binds(self):
        st_ = fresh_state(cap=30.5)
        got = update_psnr(st_, [True, True], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
        assert got[0] == pytest.approx(30.5)

    def test_share_out_of_range_rejected(self):
        st_ = fresh_state()
        with pytest.raises(ValueError):
            update_psnr(st_, [True, True], [1.5, 0.0], [0.0, 0.0], [1, 1], [1, 1], [1, 1])
        with pytest.raises(ValueError):
            update_psnr(st_, [True, True], [0.0, 0.0], [-0.5, 0.0], [1, 1], [1, 1], [1, 1])

    @pytest.mark.parametrize("share", ["rho_mbs", "rho_fbs"])
    def test_nan_share_rejected(self, share):
        st_ = fresh_state()
        shares = {"rho_mbs": [0.0, 0.0], "rho_fbs": [0.0, 0.0]}
        shares[share] = [math.nan, 0.0]
        with pytest.raises(ValueError, match=share):
            update_psnr(st_, [True, False], xi_mbs=[1, 1], xi_fbs=[1, 1], g_user=[1, 1], **shares)
        assert st_.psnr.tolist() == [30.0, 32.0]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_window_quality_telescopes_to_delivered_sum(self, seed):
        rng = np.random.default_rng(seed)
        T = 8
        st_ = fresh_state(cap=float(rng.uniform(31.0, 60.0)))
        gains = np.zeros(2)
        for _ in range(T):
            connect = rng.random(2) < 0.5
            rho0 = rng.uniform(0, 1, 2)
            rhof = rng.uniform(0, 1, 2)
            xi0 = (rng.random(2) < 0.8).astype(float)
            xif = (rng.random(2) < 0.8).astype(float)
            g = rng.uniform(0, 3, 2)
            update_psnr(st_, connect, rho0, rhof, xi0, xif, g)
            gains += np.where(connect, xi0 * rho0 * st_.rate_mbs, xif * rhof * g * st_.rate_fbs)
        expected = np.minimum(st_.alpha + gains, st_.psnr_cap)
        assert np.max(np.abs(st_.psnr - expected)) < 1e-9


def slot_stacks(draw, n_slots, n_users):
    """(connect, rho_mbs, rho_fbs, xi_mbs, xi_fbs, g_user) stacks with one
    row per slot, shares in [0, 1] with exact 0s and 1s among them."""
    def rows(values):
        row = st.lists(values, min_size=n_users, max_size=n_users)
        stack = draw(st.lists(row, min_size=n_slots, max_size=n_slots))
        return np.array(stack, dtype=float).reshape(n_slots, n_users)

    share = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    coin = st.sampled_from([0.0, 1.0])
    return (
        rows(st.booleans()).astype(bool),
        rows(share),
        rows(share),
        rows(coin),
        rows(coin),
        rows(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 6.0)),
    )


class TestStackedSlots:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n_slots=st.integers(0, 12),
        n_users=st.integers(1, 5),
        capped=st.booleans(),
    )
    def test_a_stack_is_the_slot_recursion_bit_for_bit(self, data, n_slots, n_users, capped):
        def per_user(values, n=n_users):
            return np.array(data.draw(st.lists(values, min_size=n, max_size=n)))

        alpha = per_user(st.floats(20.0, 40.0))
        rates = per_user(st.floats(0.0, 3.0), 2 * n_users)
        cap = alpha + data.draw(st.floats(0.0, 8.0)) if capped else np.full(n_users, np.inf)
        stack = slot_stacks(data.draw, n_slots, n_users)
        stacked = StreamState(alpha, rates[:n_users], rates[n_users:], cap)
        single = StreamState(alpha, rates[:n_users], rates[n_users:], cap)
        got = update_psnr(stacked, *stack)
        for row in zip(*stack):
            update_psnr(single, *row)
        assert got is stacked.psnr
        assert got.tobytes() == single.psnr.tobytes()

    def test_shares_just_below_zero_take_the_rows_in_turn(self):
        # a gain of -1e-7 after the cap binds takes the user off the cap
        stack = (
            np.array([[True], [True]]),
            np.array([[1.0], [-1e-7]]),
            np.zeros((2, 1)),
            np.ones((2, 1)),
            np.ones((2, 1)),
            np.ones((2, 1)),
        )
        stacked = StreamState(np.array([30.0]), np.array([2.0]), np.array([1.0]), np.array([31.0]))
        single = StreamState(np.array([30.0]), np.array([2.0]), np.array([1.0]), np.array([31.0]))
        update_psnr(stacked, *stack)
        for row in zip(*stack):
            update_psnr(single, *row)
        assert stacked.psnr.tobytes() == single.psnr.tobytes()
        assert stacked.psnr[0] < 31.0

    @pytest.mark.parametrize("share", ["rho_mbs", "rho_fbs"])
    @pytest.mark.parametrize("bad", [math.nan, 1.5, -0.5])
    def test_a_bad_share_in_any_row_is_rejected(self, share, bad):
        st_ = fresh_state()
        shares = {"rho_mbs": np.zeros((3, 2)), "rho_fbs": np.zeros((3, 2))}
        shares[share][2, 1] = bad
        with pytest.raises(ValueError, match=share):
            update_psnr(
                st_,
                np.zeros((3, 2), dtype=bool),
                xi_mbs=np.ones((3, 2)),
                xi_fbs=np.ones((3, 2)),
                g_user=np.ones((3, 2)),
                **shares,
            )
        assert st_.psnr.tolist() == [30.0, 32.0]
