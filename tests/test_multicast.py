"""Layered multicast power: recursion, closed forms, solvers, and bounds."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtokit.harness import oracles
from femtokit.harness.oracles import enumerate_multicast, folded_total, random_multicast
from femtokit.multicast import (
    _assignment_totals,
    LevelAssignment,
    LevelDemand,
    bounds,
    brute_force_multicast,
    f_step,
    heuristic_assign,
    snr_threshold,
    snr_thresholds,
    solve_case1,
    solve_case2,
    solve_case3,
    total_power,
    verify_feasible,
)
from femtokit.netmodel import make_rng


class TestThresholds:
    def test_rate_twice_bandwidth_needs_snr_three(self):
        assert snr_threshold(2e6, 1e6) == pytest.approx(3.0, abs=1e-12)

    def test_rate_equal_bandwidth_needs_snr_one(self):
        assert snr_threshold(2e6, 2e6) == pytest.approx(1.0, abs=1e-12)

    def test_zero_rate_is_free(self):
        assert snr_threshold(0.0, 1e6) == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            snr_threshold(-1.0, 1e6)
        with pytest.raises(ValueError):
            snr_threshold(1e6, 0.0)

    def test_vector_form_matches_scalar(self):
        got = snr_thresholds(2e6, [1e6, 2e6])
        assert got == pytest.approx([3.0, 1.0])


class TestDemandAndAssignment:
    def test_layer_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LevelDemand(num_levels=2, user_level=(3,), coverage=(0,))

    def test_options_include_macro_and_covering_femto(self):
        demand = LevelDemand(num_levels=2, user_level=(1, 2), coverage=(0, 2))
        assert demand.options(0) == (0,)
        assert demand.options(1) == (0, 2)

    def test_serving_outside_coverage_rejected(self):
        demand = LevelDemand(num_levels=1, user_level=(1,), coverage=(0,))
        with pytest.raises(ValueError):
            LevelAssignment(demand=demand, serving=(1,))

    def test_exponents_count_lower_nonempty_layers(self):
        demand = LevelDemand(num_levels=3, user_level=(1, 3), coverage=(0, 0))
        assignment = LevelAssignment(demand=demand, serving=(0, 0))
        c = assignment.exponents(1)
        # layer 2 is empty, so layer 3 has grown past only one layer
        assert c.tolist() == [[0, 1, 1]]


class TestPowerRecursion:
    def test_single_layer_step(self):
        assert f_step(0.0, (0,), [1.0], 3.0, 1.0) == pytest.approx(3.0)

    def test_step_on_residual_grows_by_one_plus_gamma(self):
        # noise*gamma*worst + (1+gamma)*q = 3 + 4*3
        assert f_step(3.0, (0,), [1.0], 3.0, 1.0) == pytest.approx(15.0)

    def test_empty_layer_passes_through(self):
        assert f_step(7.0, (), [1.0], 3.0, 1.0) == 7.0

    def test_two_layer_hand_total(self):
        demand = LevelDemand(num_levels=2, user_level=(1, 2), coverage=(0, 0))
        assignment = LevelAssignment(demand=demand, serving=(0, 0))
        alloc = total_power(assignment, np.ones((1, 2)), [3.0], noise=1.0)
        assert alloc.total == pytest.approx(15.0, abs=1e-12)
        assert alloc.per_level[0].tolist() == pytest.approx([12.0, 3.0])
        report = verify_feasible(alloc, assignment, np.ones((1, 2)), [3.0])
        assert report.feasible
        # every post-cancellation SNR sits exactly on the threshold
        assert np.max(np.abs(report.snr_slack)) < 1e-12

    def test_unit_threshold_two_layers_total_three(self):
        demand = LevelDemand(num_levels=2, user_level=(1, 2), coverage=(0, 0))
        _, alloc = solve_case1(demand, np.ones((1, 2)), [1.0], noise=1.0)
        assert alloc.total == pytest.approx(3.0, abs=1e-12)

    def test_scaled_down_powers_fail_feasibility(self):
        demand = LevelDemand(num_levels=2, user_level=(1, 2), coverage=(0, 0))
        assignment = LevelAssignment(demand=demand, serving=(0, 0))
        alloc = total_power(assignment, np.ones((1, 2)), [3.0], noise=1.0)
        shrunk = type(alloc)(
            cumulative=alloc.cumulative * 0.9,
            per_level=alloc.per_level * 0.9,
            total=alloc.total * 0.9,
            noise=alloc.noise,
        )
        report = verify_feasible(shrunk, assignment, np.ones((1, 2)), [3.0])
        assert not report.feasible

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_recursion_matches_folded_closed_form(self, seed):
        rng = make_rng(seed, 90)
        n_users = int(rng.integers(1, 6))
        n_fbs = int(rng.integers(0, 3))
        levels = int(rng.integers(1, 5))
        demand, gains, thresholds = random_multicast(rng, n_users, n_fbs, levels)
        serving = tuple(
            int(demand.options(k)[rng.integers(0, len(demand.options(k)))])
            for k in range(n_users)
        )
        assignment = LevelAssignment(demand=demand, serving=serving)
        alloc = total_power(assignment, gains, thresholds, noise=1.0)
        folded = folded_total(assignment, gains, thresholds, noise=1.0)
        assert folded == pytest.approx(alloc.total, rel=1e-12, abs=1e-12)
        assert verify_feasible(alloc, assignment, gains, thresholds).feasible


class TestSingleStationSolver:
    def test_matches_recursion_on_random_demands(self):
        rng = make_rng(0, 91)
        for _ in range(50):
            n_users = int(rng.integers(1, 7))
            levels = int(rng.integers(1, 5))
            demand, gains, thresholds = random_multicast(rng, n_users, 0, levels)
            assignment, alloc = solve_case1(demand, gains, thresholds, noise=1.0)
            assert assignment.serving == (0,) * n_users
            folded = folded_total(assignment, gains, thresholds, noise=1.0)
            assert alloc.total == pytest.approx(folded, rel=1e-12)
            assert verify_feasible(alloc, assignment, gains, thresholds).feasible


class TestTwoStationSolver:
    def test_prefers_cheaper_station_per_layer(self):
        demand = LevelDemand(num_levels=2, user_level=(1, 2), coverage=(1, 1))
        gains = np.array([[1.0, 1.0], [4.0, 4.0]])
        assignment, alloc = solve_case2(demand, gains, [1.0, 1.0], noise=1.0)
        assert assignment.serving == (1, 1)
        assert alloc.total == pytest.approx(0.75, abs=1e-12)

    def test_marginal_cost_tie_prefers_macro(self):
        demand = LevelDemand(num_levels=1, user_level=(1,), coverage=(1,))
        gains = np.ones((2, 1))
        assignment, alloc = solve_case2(demand, gains, [1.0, 1.0], noise=1.0)
        assert assignment.serving == (0,)

    def test_exponents_grow_only_on_layers_a_station_serves(self):
        # layer 1: macro 1 vs femto 1/1.6 -> femto, femto exponent 1;
        # layer 2: macro 1 vs femto 2/1.6 -> macro, macro exponent 1;
        # layer 3: macro 2 vs femto 2/1.6 -> femto. Total 1/1.6 + 1 + 2/1.6
        demand = LevelDemand(num_levels=3, user_level=(1, 2, 3), coverage=(1, 1, 1))
        gains = np.array([[1.0, 1.0, 1.0], [1.6, 1.6, 1.6]])
        assignment, alloc = solve_case2(demand, gains, [1.0, 1.0], noise=1.0)
        assert assignment.serving == (1, 0, 1)
        assert alloc.total == pytest.approx(2.875, abs=1e-12)
        _, best = brute_force_multicast(demand, gains, [1.0, 1.0], noise=1.0)
        assert best.total == pytest.approx(2.875, abs=1e-12)

    def test_requires_full_overlap(self):
        demand = LevelDemand(num_levels=1, user_level=(1,), coverage=(0,))
        with pytest.raises(ValueError):
            solve_case2(demand, np.ones((2, 1)), [1.0, 1.0], noise=1.0)

    def test_feasible_and_at_least_exhaustive_optimum(self):
        rng = make_rng(1, 92)
        for _ in range(40):
            n_users = int(rng.integers(1, 7))
            levels = int(rng.integers(1, 5))
            demand, gains, thresholds = random_multicast(rng, n_users, 1, levels, full_overlap=True)
            assignment, alloc = solve_case2(demand, gains, thresholds, noise=1.0)
            assert verify_feasible(alloc, assignment, gains, thresholds).feasible
            _, best = brute_force_multicast(demand, gains, thresholds, noise=1.0)
            assert alloc.total >= best.total - 1e-9 * max(1.0, best.total)


class TestManyStationSolver:
    def test_feasible_and_at_least_exhaustive_optimum(self):
        rng = make_rng(2, 93)
        for _ in range(40):
            n_users = int(rng.integers(1, 7))
            n_fbs = int(rng.integers(1, 4))
            levels = int(rng.integers(1, 5))
            demand, gains, thresholds = random_multicast(rng, n_users, n_fbs, levels)
            assignment, alloc = solve_case3(demand, gains, thresholds, noise=1.0)
            assert verify_feasible(alloc, assignment, gains, thresholds).feasible
            _, best = brute_force_multicast(demand, gains, thresholds, noise=1.0)
            assert alloc.total >= best.total - 1e-9 * max(1.0, best.total)

    def test_reduces_to_macro_when_femtos_cover_nobody(self):
        demand = LevelDemand(num_levels=2, user_level=(1, 2), coverage=(0, 0))
        gains = np.ones((3, 2))
        assignment, alloc = solve_case3(demand, gains, [1.0, 1.0, 1.0], noise=1.0)
        assert assignment.serving == (0, 0)
        assert alloc.total == pytest.approx(3.0, abs=1e-12)


class TestHeuristicAndBounds:
    def test_strongest_gain_wins_ties_to_macro(self):
        demand = LevelDemand(num_levels=1, user_level=(1, 1), coverage=(1, 1))
        gains = np.array([[2.0, 1.0], [1.0, 1.0]])
        assignment = heuristic_assign(demand, gains)
        assert assignment.serving == (0, 0)
        gains[1, 1] = 5.0
        assert heuristic_assign(demand, gains).serving == (0, 1)

    def test_sandwich_brackets_exhaustive_optimum(self):
        rng = make_rng(3, 94)
        for _ in range(60):
            n_users = int(rng.integers(1, 7))
            n_fbs = int(rng.integers(0, 3))
            levels = int(rng.integers(1, 5))
            demand, gains, thresholds = random_multicast(rng, n_users, n_fbs, levels)
            _, best = brute_force_multicast(demand, gains, thresholds, noise=1.0)
            b = bounds(demand, gains, thresholds, noise=1.0)
            slack = 1e-9 * max(1.0, best.total)
            assert b.lower_loose <= b.lower_tight + slack
            assert b.lower_tight <= best.total + slack
            assert best.total <= b.upper_tight + slack
            assert b.upper_tight <= b.upper_loose + slack


class TestExhaustiveGuard:
    def test_refuses_oversized_instances(self):
        demand = LevelDemand(num_levels=1, user_level=(1,) * 13, coverage=(0,) * 13)
        with pytest.raises(ValueError):
            brute_force_multicast(demand, np.ones((1, 13)), [1.0], noise=1.0)


class TestInputChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0, 1e-320])
    def test_rejects_gains_that_are_not_positive_and_finite(self, bad):
        # a NaN gain used to lose every comparison, so the search returned
        # 2e-13 W; 1e-320 is positive but its 1/H overflows to inf
        demand = LevelDemand(num_levels=1, user_level=(1, 1), coverage=(1, 1))
        gains = np.ones((2, 2))
        gains[1, 0] = bad
        assignment = LevelAssignment(demand=demand, serving=(1, 1))
        for route in (
            lambda: brute_force_multicast(demand, gains, [1.0, 0.0], 1e-13),
            lambda: total_power(assignment, gains, [1.0, 0.0], 1e-13),
            lambda: solve_case3(demand, gains, [1.0, 0.0], 1e-13),
            lambda: bounds(demand, gains, [1.0, 0.0], 1e-13),
        ):
            with pytest.raises(ValueError, match="channel gains"):
                route()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_thresholds(self, bad):
        demand = LevelDemand(num_levels=1, user_level=(1, 1), coverage=(1, 1))
        with pytest.raises(ValueError, match="SNR thresholds must be finite"):
            brute_force_multicast(demand, np.ones((2, 2)), [1.0, bad], 1e-13)
        with pytest.raises(ValueError, match="SNR thresholds must be finite"):
            total_power(LevelAssignment(demand, (0, 1)), np.ones((2, 2)), [bad, 1.0], 1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_noise(self, bad):
        demand = LevelDemand(num_levels=1, user_level=(1, 1), coverage=(1, 1))
        with pytest.raises(ValueError, match="noise power must be finite"):
            brute_force_multicast(demand, np.ones((2, 2)), [1.0, 1.0], bad)
        with pytest.raises(ValueError, match="noise power must be finite"):
            total_power(LevelAssignment(demand, (0, 1)), np.ones((2, 2)), [1.0, 1.0], bad)


@st.composite
def exhaustive_instances(draw):
    """Instances with exact ties (copied gain columns), empty layers, zero
    thresholds, macro-only users, up to 12 users and up to 9 stations, so
    that a station sum can cross numpy's 8-entry pairwise block."""
    n_users = draw(st.integers(1, 12))
    n_stations = draw(st.one_of(st.integers(1, 9), st.integers(8, 9)))
    levels = draw(st.integers(1, 4))
    per_user = {"min_size": n_users, "max_size": n_users}
    user_level = draw(st.lists(st.integers(1, levels), **per_user))
    coverage = draw(st.lists(st.integers(0, n_stations - 1), **per_user))
    per_station = {"min_size": n_stations, "max_size": n_stations}
    gains = np.array(draw(st.lists(st.lists(st.floats(1e-3, 1e3), **per_user), **per_station)))
    # copy a user's gains from the user before it (user 0's from the last)
    for k in draw(st.lists(st.integers(0, n_users - 1), max_size=3)):
        gains[:, k] = gains[:, k - 1]
    thresholds = np.array([
        0.0 if draw(st.integers(0, 3)) == 3 else draw(st.floats(0.2, 4.0))
        for _ in range(n_stations)
    ])
    noise = draw(st.sampled_from([1.0, 1e-13]))
    demand = LevelDemand(levels, tuple(user_level), tuple(coverage))
    return demand, gains, thresholds, noise


class TestStackedExhaustive:
    @settings(max_examples=40, deadline=None)
    @given(exhaustive_instances())
    def test_every_total_is_total_powers_and_the_winner_is_the_loops(self, instance):
        demand, gains, thresholds, noise = instance
        serving, totals = _assignment_totals(demand, gains, thresholds, noise)
        options = [demand.options(k) for k in range(demand.num_users)]
        assert [tuple(row) for row in serving.tolist()] == list(itertools.product(*options))
        looped = np.array([
            total_power(LevelAssignment(demand, tuple(row)), gains, thresholds, noise).total
            for row in serving.tolist()
        ])
        assert (totals.view(np.int64) == looped.view(np.int64)).all()

        assignment, alloc = brute_force_multicast(demand, gains, thresholds, noise)
        want_assignment, want = enumerate_multicast(demand, gains, thresholds, noise)
        assert assignment.serving == want_assignment.serving
        assert alloc.total.hex() == want.total.hex()

    def test_loop_route_catches_a_last_minimum_tie_break(self, monkeypatch):
        # both stations cost the same, so all-macro ties with all-femto
        demand = LevelDemand(num_levels=1, user_level=(1, 1), coverage=(1, 1))
        gains = np.array([[1.0, 1.0], [1.0, 1.0]])

        def last_minimum(demand, gains, thresholds, noise):
            serving, totals = _assignment_totals(demand, gains, np.asarray(thresholds), noise)
            pick = len(totals) - 1 - int(np.argmin(totals[::-1]))
            assignment = LevelAssignment(demand, tuple(int(m) for m in serving[pick]))
            return assignment, total_power(assignment, gains, thresholds, noise)

        assert brute_force_multicast(demand, gains, [1.0, 1.0], 1.0)[0].serving == (0, 0)
        assert last_minimum(demand, gains, [1.0, 1.0], 1.0)[0].serving == (1, 1)
        monkeypatch.setattr(oracles, "brute_force_multicast", last_minimum)
        check = oracles.check_exhaustive_stack_vs_loop
        ok, detail = oracles.run_check(check, make_rng(2024, 3), 100)
        assert not ok
        assert detail.startswith("stacked search chose ")
