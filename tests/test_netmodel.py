"""Units, seeded random streams, and fading draws."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from femtokit.netmodel import (
    FadingSpec,
    footprint_volume,
    make_rng,
    sample_gains,
    watts_to_dbm,
)


class TestUnits:
    def test_one_milliwatt_is_zero_dbm(self):
        assert watts_to_dbm(1e-3) == pytest.approx(0.0, abs=1e-12)

    def test_one_watt_is_thirty_dbm(self):
        assert watts_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)
        with pytest.raises(ValueError):
            watts_to_dbm(-1.0)

    @given(st.floats(min_value=-80.0, max_value=80.0))
    def test_round_trip(self, dbm):
        assert watts_to_dbm(1e-3 * 10.0 ** (dbm / 10.0)) == pytest.approx(dbm, abs=1e-9)

    @given(st.floats(min_value=1e-12, max_value=1e6), st.integers(min_value=1, max_value=1000))
    def test_power_ratio_is_decibel_difference(self, watts, ratio):
        diff = watts_to_dbm(watts * ratio) - watts_to_dbm(watts)
        assert diff == pytest.approx(10.0 * math.log10(ratio), abs=1e-9)


class TestRngStreams:
    def test_same_path_reproduces(self):
        a = make_rng(7, 1, 3).random(5)
        b = make_rng(7, 1, 3).random(5)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = make_rng(7, 1).random(5)
        b = make_rng(7, 2).random(5)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            make_rng(-1)


class TestFading:
    def test_deterministic_in_seed_and_slot(self):
        spec = FadingSpec(mean=1.0, seed=3)
        a = sample_gains(spec, 2, 4, slot_index=5)
        b = sample_gains(spec, 2, 4, slot_index=5)
        c = sample_gains(spec, 2, 4, slot_index=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (2, 4)
        assert np.all(a > 0)

    def test_mean_matrix_broadcasts_per_station(self):
        means = np.array([[1.0], [3.0]])
        draws = sample_gains(FadingSpec(mean=means, seed=11), 2, 40000, slot_index=0)
        assert draws[0].mean() == pytest.approx(1.0, rel=0.05)
        assert draws[1].mean() == pytest.approx(3.0, rel=0.05)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FadingSpec(mean=0.0, seed=1)
        spec = FadingSpec(mean=np.ones((3, 2)), seed=1)
        with pytest.raises(ValueError):
            sample_gains(spec, 2, 2, slot_index=0)
        with pytest.raises(ValueError):
            sample_gains(FadingSpec(mean=1.0, seed=1), 2, 2, slot_index=-1)


class TestFootprint:
    def test_disc_volume_hand_value(self):
        # pi * 1^2 * 10 + pi * 2^2 * 100
        got = footprint_volume([1.0, 2.0], [10.0, 100.0])
        assert got == pytest.approx(math.pi * 410.0, rel=1e-12)

    def test_scales_with_square_of_power_radius(self):
        base = footprint_volume([2.0], [5.0])
        assert footprint_volume([4.0], [5.0]) == pytest.approx(4 * base)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            footprint_volume([1.0, 2.0], [10.0])
