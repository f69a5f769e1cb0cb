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
