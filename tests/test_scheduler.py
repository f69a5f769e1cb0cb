"""Slot scheduling: price iteration, heuristics, and channel allocation."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtokit import scheduler
from femtokit.netmodel import make_rng
from femtokit.scheduler import (
    AllocationValue,
    ChannelAllocation,
    GreedyStep,
    GreedyTrace,
    InterferenceGraph,
    SlotProblem,
    greedy_alloc,
    heuristic_diversity,
    heuristic_equal,
    init_prices,
    optbound_upper,
    solve_noninterfering,
)
from femtokit.harness.oracles import (
    BATTERY,
    brute_force_alloc,
    diminishing_gains_margin,
    exact_allocation_solver,
    exact_schedule,
    random_slot_problem,
    run_check,
    support_margin,
    waterfill_pool,
)


def one_user_problem(w=1.0, pbar0=1.0, pbarf=1.0, rate0=2.0, ratef=1.0, gi=1.0):
    return SlotProblem(
        w_minus=[w],
        pbar_mbs=[pbar0],
        pbar_fbs=[pbarf],
        rate_mbs=[rate0],
        rate_fbs=[ratef],
        assoc=[1],
        n_fbs=1,
        fbs_gi=[gi],
    )


def random_problem(rng, n_users=None, n_fbs=1):
    if n_users is None:
        n_users = int(rng.integers(1, 4))
    assoc = 1 + rng.integers(0, n_fbs, n_users)
    return SlotProblem(
        w_minus=rng.uniform(25.0, 45.0, n_users),
        pbar_mbs=rng.uniform(0.3, 1.0, n_users),
        pbar_fbs=rng.uniform(0.3, 1.0, n_users),
        rate_mbs=rng.uniform(30.0, 120.0, n_users),
        rate_fbs=rng.uniform(30.0, 120.0, n_users),
        assoc=assoc,
        n_fbs=n_fbs,
        fbs_gi=rng.uniform(0.5, 3.0, n_fbs),
    )


class TestProblemValidation:
    def test_well_formed_problem_accepted(self):
        assert one_user_problem().num_users == 1

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            one_user_problem(w=0.0)
        with pytest.raises(ValueError):
            one_user_problem(pbar0=1.5)
        with pytest.raises(ValueError):
            one_user_problem(rate0=-1.0)
        with pytest.raises(ValueError):
            one_user_problem(gi=-0.5)
        with pytest.raises(ValueError):
            SlotProblem([1.0], [1.0], [1.0], [1.0], [1.0], [2], 1, [1.0])
        with pytest.raises(ValueError):
            SlotProblem([1.0], [1.0, 1.0], [1.0], [1.0], [1.0], [1], 1, [1.0])

    @pytest.mark.parametrize(
        "field", ["w_minus", "pbar_mbs", "pbar_fbs", "rate_mbs", "rate_fbs", "fbs_gi"]
    )
    def test_nan_rejected(self, field):
        fields = dataclasses.asdict(one_user_problem())
        fields[field] = [math.nan]
        with pytest.raises(ValueError):
            SlotProblem(**fields)

    @pytest.mark.parametrize("field", ["w_minus", "rate_mbs", "rate_fbs", "fbs_gi"])
    def test_infinity_rejected(self, field):
        # with w_minus = [inf, 35] a solve once returned objective inf
        fields = dataclasses.asdict(one_user_problem())
        fields[field] = [math.inf]
        with pytest.raises(ValueError, match="finite"):
            SlotProblem(**fields)

    @pytest.mark.parametrize(
        "w_minus, fbs_gi",
        [
            ([], [1.0, 2.0]),
            ([30.0], [1.0, 2.0]),
            ([30.0, 0.0, 31.0], [1.0, 2.0]),
            ([30.0, math.nan, 31.0], [1.0, 2.0]),
            ([30.0, math.inf, 31.0], [1.0, 2.0]),
            ([30.0, 32.0, 31.0], [1.0]),
            ([30.0, 32.0, 31.0], [1.0, -2.0]),
            ([30.0, 32.0, 31.0], [math.nan, 2.0]),
            ([30.0, 32.0, 31.0], [1.0, math.inf]),
            ([-1.0, 32.0, 31.0], [1.0, math.inf]),
            ([-1.0, 32.0, 31.0], [1.0, 2.0, 3.0]),
        ],
    )
    def test_a_slot_of_a_template_fails_as_a_replaced_problem(self, w_minus, fbs_gi):
        # for_slot checks only the current quality and the channel vector,
        # with the messages a fully checked problem gives, first fault first
        template = random_problem(make_rng(42, 99), n_users=3, n_fbs=2)
        with pytest.raises(ValueError) as want:
            dataclasses.replace(template, w_minus=w_minus, fbs_gi=fbs_gi)
        with pytest.raises(ValueError) as got:
            template.for_slot(w_minus, fbs_gi)
        assert str(got.value) == str(want.value)

    def test_a_slot_of_a_template_is_the_replaced_problem(self):
        template = random_problem(make_rng(42, 99), n_users=3, n_fbs=2)
        slot = template.for_slot([30.0, 32.0, 31.0], [1.0, 2.0])
        want = dataclasses.replace(template, w_minus=[30.0, 32.0, 31.0], fbs_gi=[1.0, 2.0])
        for field in dataclasses.fields(SlotProblem):
            got, ref = getattr(slot, field.name), getattr(want, field.name)
            assert np.asarray(got).dtype == np.asarray(ref).dtype
            assert np.array_equal(got, ref)
        assert template.w_minus.tolist() != [30.0, 32.0, 31.0]


def responder(prob, g_user):
    """The reference best response of prob's users for a stack of rows of
    per-user channel counts."""
    return scheduler._Responder(prob, g_user)


def best_response(prob, prices):
    """Branch and shares of every user from the vector best response."""
    g_user = prob.fbs_gi[prob.assoc - 1][None, :]
    connect, rho0, rhof, _ = responder(prob, g_user)(np.array([prices], dtype=float))
    return connect[0], rho0[0], rhof[0]


def solve_rows(prob, gis, **opts):
    """One solve_noninterfering of prob's slot per channel row of gis."""
    return [solve_noninterfering(prob.for_slot(prob.w_minus, gi), **opts) for gi in gis]


def slot_baseline(heuristic, prob):
    """A baseline's schedule of prob's own slot, as a stack of one."""
    return heuristic(prob, prob.w_minus[None, :], prob.fbs_gi[None, :])


class TestBestResponse:
    def test_interior_share(self):
        prob = one_user_problem(w=1.0, rate0=2.0, pbarf=0.0)
        connect, rho0, rhof = best_response(prob, [0.8, 1.0])
        assert connect[0]
        # stationary point 1/0.8 - 1/2
        assert rho0[0] == pytest.approx(0.75, abs=1e-12)
        assert rhof[0] == 0.0

    def test_share_capped_at_whole_slot(self):
        prob = one_user_problem(w=1.0, rate0=2.0, pbarf=0.0)
        _, rho0, _ = best_response(prob, [0.4, 1.0])
        assert rho0[0] == 1.0

    def test_free_transmitter_gets_everything(self):
        prob = one_user_problem(pbarf=0.0)
        _, rho0, _ = best_response(prob, [0.0, 1.0])
        assert rho0[0] == 1.0

    def test_zero_rate_takes_no_time(self):
        prob = one_user_problem(rate0=0.0, ratef=0.0)
        connect, rho0, rhof = best_response(prob, [0.5, 0.5])
        assert rho0[0] == 0.0 and rhof[0] == 0.0

    def test_identical_branches_tie_to_macro(self):
        prob = one_user_problem(rate0=2.0, ratef=2.0, gi=1.0)
        connect, rho0, rhof = best_response(prob, [0.7, 0.7])
        assert connect[0] and rhof[0] == 0.0


class TestDualUpdate:
    """The projected gradient step [prices - step*(1 - load)]^+, seen as
    the prices after one iterate from prices_init."""

    @staticmethod
    def one_step(prob, prices):
        sol = solve_noninterfering(prob, prices_init=prices, step=0.01, phi=0.0, max_iters=1)
        return sol.prices

    def test_projected_gradient_step(self):
        # the user takes 1/0.8 - 1/2 = 0.75 of the macro slot and no femto time
        prob = one_user_problem(w=1.0, rate0=2.0, pbarf=0.0)
        got = self.one_step(prob, [0.8, 1.0])
        assert got == pytest.approx([0.8 - 0.01 * 0.25, 1.0 - 0.01], abs=1e-15)

    def test_prices_never_negative(self):
        # nobody wants femto time, so its price would step below zero
        prob = one_user_problem(w=1.0, rate0=2.0, pbarf=0.0)
        assert self.one_step(prob, [0.001, 0.001]).tolist() == [0.001, 0.0]

    def test_overloaded_pool_raises_price(self):
        # both users take the whole macro slot at a low price: load 2
        prob = SlotProblem(
            w_minus=[1.0, 1.0],
            pbar_mbs=[1.0, 1.0],
            pbar_fbs=[0.0, 0.0],
            rate_mbs=[2.0, 2.0],
            rate_fbs=[1.0, 1.0],
            assoc=[1, 1],
            n_fbs=1,
            fbs_gi=[1.0],
        )
        assert self.one_step(prob, [0.1, 1.0])[0] == pytest.approx(0.11, abs=1e-15)

    def test_step_must_be_positive(self, monkeypatch):
        # the step is checked before any iterate runs
        monkeypatch.setattr(scheduler, "_iterate", None)
        for step in (0.0, -0.01):
            with pytest.raises(ValueError, match="step"):
                solve_noninterfering(one_user_problem(), step=step, phi=1e-6, max_iters=10_000)


class TestObjectiveValue:
    def test_log_quality_hand_value(self):
        prob = SlotProblem(
            w_minus=[1.0, 1.0],
            pbar_mbs=[1.0, 1.0],
            pbar_fbs=[1.0, 1.0],
            rate_mbs=[math.e - 1.0, 1.0],
            rate_fbs=[1.0, math.e ** 2 - 1.0],
            assoc=[1, 1],
            n_fbs=1,
            fbs_gi=[1.0],
        )
        got = scheduler._objective(
            prob, np.ones(2), np.array([True, False]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
        )
        assert got == pytest.approx(3.0, rel=1e-12)

    def test_nonpositive_log_argument_rejected(self):
        prob = one_user_problem(w=1.0, rate0=2.0)
        with pytest.raises(ValueError):
            scheduler._objective(prob, np.ones(1), np.array([True]), np.array([-1.0]), np.zeros(1))
        with pytest.raises(ValueError):
            scheduler._objective(
                prob, np.ones(1), np.array([True]), np.array([math.nan]), np.zeros(1)
            )


class TestPriceIteration:
    def test_single_user_takes_the_better_branch(self):
        prob = one_user_problem(w=30.0, pbar0=0.9, pbarf=0.8, rate0=60.0, ratef=40.0)
        sol = solve_noninterfering(prob, step=0.01, phi=1e-12, max_iters=10_000)
        assert sol.connect_mbs.tolist() == [True]
        assert sol.rho_mbs == pytest.approx([1.0], abs=1e-9)
        assert sol.objective == pytest.approx(0.9 * math.log(90.0), rel=1e-9)
        assert sol.converged

    def test_losing_branch_share_is_exactly_zero(self):
        rng = make_rng(20, 80)
        for _ in range(10):
            sol = solve_noninterfering(random_problem(rng), step=0.01, phi=1e-12, max_iters=10_000)
            off = ~sol.connect_mbs
            assert np.all(sol.rho_mbs[off] == 0.0)
            assert np.all(sol.rho_fbs[sol.connect_mbs] == 0.0)

    def test_loads_feasible(self):
        rng = make_rng(21, 81)
        for _ in range(10):
            prob = random_problem(rng, n_fbs=2)
            sol = solve_noninterfering(prob, step=0.01, phi=1e-12, max_iters=10_000)
            assert sol.rho_mbs.sum() <= 1.0 + 1e-9
            for i in (1, 2):
                pool = prob.assoc == i
                assert sol.rho_fbs[pool].sum() <= 1.0 + 1e-9

    def test_matches_enumeration_on_supported_instances(self):
        rng = make_rng(22, 82)
        checked = 0
        while checked < 12:
            prob = random_problem(rng)
            if support_margin(prob) < 0.01:
                continue
            sol = solve_noninterfering(prob, step=0.01, phi=1e-12, max_iters=10_000)
            _, _, _, best, _ = exact_schedule(prob)
            assert sol.objective == pytest.approx(best, rel=1e-6)
            assert sol.duality_gap <= 1e-3
            checked += 1

    @pytest.mark.xfail(
        strict=True,
        reason="primal recovery refills only the branch patterns the iteration visits, "
        "and identical users take the same branch at any prices",
    )
    @pytest.mark.parametrize("start", ["ones", "demand"])
    def test_a_symmetric_kink_slot_reaches_the_optimum(self, start):
        # two identical users: the optimum puts one on each station, which
        # no price vector supports, and the solve keeps both on the femto
        # (5.6103 against the enumeration's 5.9879)
        prob = SlotProblem(
            w_minus=[30.0, 30.0],
            pbar_mbs=[0.6, 0.6],
            pbar_fbs=[0.7, 0.7],
            rate_mbs=[100.0, 100.0],
            rate_fbs=[50.0, 50.0],
            assoc=[1, 1],
            n_fbs=1,
            fbs_gi=[1.0],
        )
        prices = np.ones(prob.n_fbs + 1) if start == "ones" else init_prices(prob)
        sol = solve_noninterfering(prob, prices_init=prices, step=0.01, phi=1e-6, max_iters=2000)
        assert sol.objective == pytest.approx(exact_schedule(prob)[3], rel=1e-9)

    def test_never_below_the_baselines(self):
        rng = make_rng(23, 83)
        for _ in range(30):
            prob = random_problem(rng, n_users=int(rng.integers(1, 6)), n_fbs=2)
            sol = solve_noninterfering(prob, step=0.01, phi=1e-6, max_iters=10_000)
            floor = max(
                slot_baseline(heuristic_equal, prob).objective[0],
                slot_baseline(heuristic_diversity, prob).objective[0],
            )
            assert sol.objective >= floor - 1e-9

    def test_tiny_iteration_budget_still_feasible_and_competitive(self):
        rng = make_rng(24, 84)
        prob = random_problem(rng, n_users=3)
        sol = solve_noninterfering(prob, step=0.01, phi=1e-6, max_iters=2)
        assert sol.iterations <= 2
        assert sol.rho_mbs.sum() <= 1.0 + 1e-9
        floor = max(
            slot_baseline(heuristic_equal, prob).objective[0],
            slot_baseline(heuristic_diversity, prob).objective[0],
        )
        assert sol.objective >= floor - 1e-9

    def test_warm_start_from_supporting_prices_converges_immediately(self):
        rng = make_rng(25, 85)
        prob = random_problem(rng)
        first = solve_noninterfering(prob, step=0.01, phi=1e-12, max_iters=10_000)
        again = solve_noninterfering(
            prob, prices_init=first.prices, step=0.01, phi=1e-12, max_iters=10_000
        )
        assert again.iterations <= first.iterations

    def test_trace_records_every_iteration(self):
        prob = one_user_problem(w=30.0, pbar0=0.9, pbarf=0.8, rate0=60.0, ratef=40.0)
        sol = solve_noninterfering(prob, step=0.01, phi=1e-12, max_iters=10_000, record_trace=True)
        assert sol.trace is not None and len(sol.trace) == sol.iterations
        it, prices, obj = sol.trace[-1]
        assert it == sol.iterations and np.isfinite(obj)

    def test_option_validation(self):
        prob = one_user_problem()
        valid = dict(step=0.01, phi=1e-6, max_iters=10_000)
        bad = (
            dict(phi=-1.0),
            dict(max_iters=0),
            dict(step=0.0),
            dict(step=-0.01),
            dict(step=math.nan),
            dict(step=math.inf),
            dict(phi=math.nan),
        )
        for opts in bad:
            with pytest.raises(ValueError):
                solve_noninterfering(prob, **{**valid, **opts})
        for prices_init in ([1.0, -1.0], [1.0, math.inf], [math.nan, 1.0]):
            with pytest.raises(ValueError, match="prices_init"):
                solve_noninterfering(prob, prices_init=prices_init, **valid)
        # the iteration settings have their one default in StreamConfig
        with pytest.raises(TypeError):
            solve_noninterfering(prob)

    def test_cold_start_prices_sit_on_the_demand_scale(self):
        prob = one_user_problem(w=3.0, pbar0=0.5, pbarf=0.25, rate0=1.0, ratef=2.0, gi=1.0)
        prices = init_prices(prob)
        assert prices[0] == pytest.approx(0.5 * 1.0 / 4.0)
        assert prices[1] == pytest.approx(0.25 * 2.0 / 5.0)

    def test_a_solve_without_prices_starts_cold(self):
        prob = random_problem(make_rng(25, 85), n_users=4, n_fbs=2)
        for max_iters in (1, 50):
            opts = dict(step=0.01, phi=1e-6, max_iters=max_iters)
            given = solve_noninterfering(prob, prices_init=init_prices(prob), **opts)
            assert_same_solution(solve_noninterfering(prob, **opts), given)


@st.composite
def pools(draw, sizes=st.integers(1, 8)):
    """One transmitter's pool of 1 to 8 users (or as many as sizes draws),
    some with zero rate or zero weight. Offsets w/rate stay below 100, which
    keeps the rounding of the shares' sum below 1e-12."""
    k = draw(sizes)

    def per_user(values):
        return np.array(draw(st.lists(values, min_size=k, max_size=k)))

    return (
        per_user(st.just(0.0) | st.floats(0.01, 1.0)),
        per_user(st.floats(1.0, 45.0)),
        per_user(st.just(0.0) | st.floats(0.5, 120.0)),
    )


@st.composite
def pool_stacks(draw):
    """Pools of a few sizes, several of each, on both sides of 8 members,
    from which numpy's own sum of a row would run pairwise and round
    differently from the member-order sum."""
    sizes = draw(st.lists(st.sampled_from([1, 2, 3, 7, 8, 9, 12]), min_size=1, max_size=3))
    return [
        draw(pools(sizes=st.integers(k, k)))
        for k in sizes
        for _ in range(draw(st.integers(1, 4)))
    ]


def running_sum(values):
    """The sum of values left to right in member order, the order in which
    the scheduler sums every load: an explicit loop, since the builtin sum
    of floats is compensated from Python 3.12 on."""
    total = 0.0
    for x in np.asarray(values, dtype=float).tolist():
        total += x
    return total


def lone_bisection(pbar, w, rate, total=running_sum, steps=None):
    """Reference for the pool waterfill: one pool, scalar prices, and the
    renormalisation of shares that overfill the slot, each sum taken by
    total, over steps bisection steps (the scheduler's count by default)."""
    shares = np.zeros_like(w)
    pos = rate > 0
    if not np.any(pos):
        return shares
    pb, wa, ra = pbar[pos], w[pos], rate[pos]
    offset = wa / ra
    hi = float(np.max(pb * ra / wa)) * 2.0 + 1.0
    lo = 0.0
    for _ in range(scheduler._POOL_BISECTIONS if steps is None else steps):
        mid = 0.5 * (lo + hi)
        if total(np.minimum(np.maximum(pb / mid - offset, 0.0), 1.0)) >= 1.0:
            lo = mid
        else:
            hi = mid
    filled = np.minimum(np.maximum(pb / hi - offset, 0.0), 1.0)
    load = total(filled)
    shares[pos] = filled / load if load > 1.0 else filled
    return shares


def pool_shares(*pools):
    """The fast path's shares of each (pbar, w, rate) pool of arrays, which
    it takes as lists of Python floats."""
    return [np.array(scheduler._pool_shares(*(part.tolist() for part in pool))) for pool in pools]


class TestWaterfillPool:
    @settings(max_examples=300, deadline=None)
    @given(pool=pools())
    def test_closed_form_clears_the_slot_at_the_fast_path_optimum(self, pool):
        pbar, w, rate = pool
        shares, value, mu = waterfill_pool(pbar, w, rate)
        assert np.all(shares >= 0.0)
        if not np.any((rate > 0) & (pbar > 0)):
            assert np.all(shares == 0.0) and mu == 0.0
            return
        assert shares.sum() == pytest.approx(1.0, abs=1e-12)
        marginal = pbar * rate / (w + shares * rate)
        busy = shares > 0
        assert marginal[busy] == pytest.approx(np.full(busy.sum(), mu), rel=1e-12)
        assert np.all(marginal[~busy] <= mu * (1 + 1e-12))
        # the fast path's independent bisection reaches the same optimum
        [fast] = pool_shares(pool)
        assert value == pytest.approx(float(np.sum(pbar * np.log(w + fast * rate))), abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(stack=pool_stacks())
    def test_each_pool_of_a_mixed_stack_matches_its_lone_bisection(self, stack):
        for (pbar, w, rate), got in zip(stack, pool_shares(*stack)):
            assert bits(got) == bits(lone_bisection(pbar, w, rate))
            # the shares stay below the slot in member order, so the
            # reference's renormalisation never fires
            assert not np.any(rate > 0) or running_sum(got[rate > 0]) < 1.0

    @pytest.mark.parametrize("seed", [2, 27])
    def test_a_large_pool_sums_its_shares_in_member_order(self, seed):
        # pools of 10 and 8 members, every share interior, whose filling
        # threshold numpy's pairwise sum of the shares would move by one
        # float, so that a bisection summing with numpy gives other shares
        rng = make_rng(60, seed)
        n = int(rng.integers(8, 13))
        pool = rng.uniform(0.3, 1.0, n), rng.uniform(25.0, 45.0, n), rng.uniform(30.0, 120.0, n)
        [got] = pool_shares(pool)
        assert bits(got) == bits(lone_bisection(*pool))
        assert bits(got) != bits(lone_bisection(*pool, total=np.sum))

    @settings(max_examples=100, deadline=None)
    @given(stack=pool_stacks(), scale=st.sampled_from([1e-300, 1e-30, 1e30, 1e300]))
    def test_pools_far_from_the_workload_scale_match_the_lone_bisection(self, stack, scale):
        # each pool's bracket starts at its own top price, so rates far
        # above or below any workload's are bisected the same way
        stack = [(pbar, w, rate * scale) for pbar, w, rate in stack]
        for (pbar, w, rate), got in zip(stack, pool_shares(*stack)):
            assert bits(got) == bits(lone_bisection(pbar, w, rate))

    def test_the_price_is_bisected_exactly_sixty_times(self):
        # a price near 1e-3 against a bracket that starts near 1 has not
        # narrowed to one float by step 62, so each step count gives other
        # shares
        pool = np.array([0.02, 0.03]), np.array([40.0, 45.0]), np.array([1.0, 2.0])
        [got] = pool_shares(pool)
        assert scheduler._POOL_BISECTIONS == 60
        assert bits(got) == bits(lone_bisection(*pool))
        for steps in (59, 61):
            assert bits(got) != bits(lone_bisection(*pool, steps=steps))

    @pytest.mark.xfail(
        strict=True,
        reason="60 halvings of a bracket that starts at 2*max(pbar*rate/w) + 1 resolve "
        "the price only to about bracket/2^60, and the clearing price is at most sum(pbar)",
    )
    def test_a_pool_far_above_its_clearing_price_reaches_the_closed_form(self):
        # the bracket starts near 2e17 and ends about 0.17 wide, against a
        # clearing price near 1.5: the first share reads 0.6405, not 2/3
        pbar, w, rate = [1.0, 0.5], [1.0, 1.0], [1e17, 1e17]
        got = scheduler._pool_shares(pbar, w, rate)
        assert got == pytest.approx(waterfill_pool(pbar, w, rate)[0].tolist(), rel=1e-9)

    def test_a_member_whose_offset_overflows_takes_no_time(self):
        pbar, w, rate = np.array([0.9, 0.8]), np.array([30.0, 35.0]), np.array([5e-324, 60.0])
        with warnings.catch_warnings():
            # Python floats overflow w/rate to inf without a warning
            warnings.simplefilter("error", RuntimeWarning)
            [got] = pool_shares((pbar, w, rate))
        with np.errstate(over="ignore"):
            want = lone_bisection(pbar, w, rate)
        assert bits(got) == bits(want) and got[0] == 0.0

    def test_the_closed_form_leaves_out_a_member_whose_offset_overflows(self):
        # w/rate overflows on the subnormal rate; the closed form takes the
        # member as unpaid, and so does the plain enumeration that uses it,
        # without a RuntimeWarning (which pyproject.toml makes an error)
        shares, value, mu = waterfill_pool([0.9, 0.8], [30.0, 35.0], [5e-324, 50.0])
        assert shares.tolist() == [0.0, 1.0] and mu == pytest.approx(0.8 / 1.7, rel=1e-15)
        assert value == pytest.approx(0.9 * math.log(30.0) + 0.8 * math.log(85.0), rel=1e-15)
        prob = SlotProblem(
            w_minus=[30.0, 35.0],
            pbar_mbs=[0.9, 0.8],
            pbar_fbs=[0.5, 0.6],
            rate_mbs=[5e-324, 50.0],
            rate_fbs=[40.0, 5e-324],
            assoc=[1, 1],
            n_fbs=1,
            fbs_gi=[1.0],
        )
        # both on the macro, user 0 unpaid there, beats user 0 on its femto
        # (0.5*log(70)) and user 1 unpaid on its femto (0.6*log(35))
        connect, rho_mbs, rho_fbs, objective, _ = exact_schedule(prob)
        assert connect.tolist() == [True, True]
        assert rho_mbs.tolist() == [0.0, 1.0] and rho_fbs.tolist() == [0.0, 0.0]
        assert objective == pytest.approx(value, rel=1e-15)

    def test_all_inactive_pool_takes_no_time_at_price_zero(self):
        shares, value, mu = waterfill_pool([0.0, 0.7, 0.0], [30.0, 35.0, 40.0], [50.0, 0.0, 0.0])
        assert shares.tolist() == [0.0, 0.0, 0.0] and mu == 0.0
        assert value == pytest.approx(0.7 * math.log(35.0), rel=1e-15)


def assert_same_solution(a, b):
    """Bit-for-bit equality of two schedule solutions."""
    assert a.objective == b.objective
    assert a.dual_value == b.dual_value
    assert a.duality_gap == b.duality_gap
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert np.array_equal(a.prices, b.prices)
    assert np.array_equal(a.connect_mbs, b.connect_mbs)
    assert np.array_equal(a.rho_mbs, b.rho_mbs)
    assert np.array_equal(a.rho_fbs, b.rho_fbs)
    assert (a.trace is None) == (b.trace is None)
    if a.trace is not None:
        assert len(a.trace) == len(b.trace)
        for (ia, pa, oa), (ib, pb, ob) in zip(a.trace, b.trace):
            assert ia == ib and oa == ob and np.array_equal(pa, pb)


@st.composite
def slot_problems(draw, min_users=1, max_users=9, max_fbs=3):
    n_fbs = draw(st.integers(1, max_fbs))
    k = draw(st.integers(min_users, max_users))

    def per_user(values):
        return draw(st.lists(values, min_size=k, max_size=k))

    rates = st.just(0.0) | st.floats(1e-3, 120.0)
    return SlotProblem(
        w_minus=per_user(st.floats(25.0, 45.0)),
        pbar_mbs=per_user(st.floats(0.3, 1.0)),
        pbar_fbs=per_user(st.floats(0.3, 1.0)),
        rate_mbs=per_user(rates),
        rate_fbs=per_user(rates),
        assoc=draw(st.lists(st.integers(1, n_fbs), min_size=k, max_size=k)),
        n_fbs=n_fbs,
        fbs_gi=np.zeros(n_fbs),
    )


@st.composite
def channel_stacks(draw, n_fbs):
    """Rows of per-femto channel counts with a zero row and a duplicate."""
    row = st.lists(
        st.sampled_from([0.0, 0.3, 0.7, 1.0, 1.6, 2.4]) | st.floats(0.01, 3.0),
        min_size=n_fbs,
        max_size=n_fbs,
    )
    rows = draw(st.lists(row, min_size=1, max_size=6))
    return rows + [[0.0] * n_fbs, rows[0]]


# a slot of two identical users on one femto whose optimum puts one user on
# each station, which no price vector supports (5.9879; the runner's slot
# solve reaches 5.6103)
KINK_SLOT = SlotProblem(
    w_minus=[30.0, 30.0],
    pbar_mbs=[0.6, 0.6],
    pbar_fbs=[0.7, 0.7],
    rate_mbs=[100.0, 100.0],
    rate_fbs=[50.0, 50.0],
    assoc=[1, 1],
    n_fbs=1,
    fbs_gi=[0.0],
)


class TestBatchedPriceIteration:
    """One slot under several channel rows: one price iteration per row,
    and AllocationValue's enumerated row values."""

    def test_rows_stop_at_their_own_iteration(self):
        prob = random_problem(make_rng(40, 95), n_users=6, n_fbs=2)
        gis = [[0.0, 0.0], [0.5, 1.0], [0.5, 1.0], [2.5, 0.2], [1.0, 0.0], [3.0, 3.0]]
        solved = solve_rows(prob, gis, step=0.01, phi=1e-6, max_iters=150)
        iterations = [sol.iterations for sol in solved]
        # some rows converge, at different iterations, and some hit the cap
        assert len(set(iterations)) >= 3
        assert any(sol.converged for sol in solved)
        assert any(not sol.converged and sol.iterations == 150 for sol in solved)
        assert_same_solution(solved[1], solved[2])

    def test_an_untraced_solve_builds_one_responder(self, monkeypatch):
        built = []

        class CountingResponder(scheduler._Responder):
            def __init__(self, problem, g_user):
                built.append(len(g_user))
                super().__init__(problem, g_user)

        monkeypatch.setattr(scheduler, "_Responder", CountingResponder)
        prob = random_problem(make_rng(40, 95), n_users=6, n_fbs=2)
        gis = [[0.0, 0.0], [0.5, 1.0], [2.5, 0.2], [3.0, 3.0]]
        solved = solve_rows(prob, gis, step=0.01, phi=1e-6, max_iters=150)
        # the rows stop at different iterations, each solve iterating its
        # one row on the lanes of its own responder
        assert len({sol.iterations for sol in solved}) > 1
        assert built == [1] * len(gis)

    def test_an_untraced_solve_makes_no_reference_call(self, monkeypatch):
        # the first branches come from one evaluation at the start prices,
        # and every later branch and Lagrangian value from the row's block
        # evaluations; __call__ is the reference that the tests and a
        # traced solve's repaired iterates run
        calls = []
        reference = scheduler._Responder.__call__

        def counting_call(respond, prices):
            calls.append(len(prices))
            return reference(respond, prices)

        monkeypatch.setattr(scheduler._Responder, "__call__", counting_call)
        prob = random_problem(make_rng(40, 95), n_users=6, n_fbs=2)
        gis = [[0.0, 0.0], [0.5, 1.0], [2.5, 0.2], [3.0, 3.0]]
        solve_rows(prob, gis, step=0.01, phi=1e-6, max_iters=150)
        assert calls == []
        # AllocationValue values its rows' patterns in closed form alone
        value = AllocationValue(prob)
        value.improvements(gis)
        assert calls == []
        solve_noninterfering(prob, step=0.01, phi=1e-6, max_iters=150, record_trace=True)
        assert calls

    @pytest.mark.parametrize("calls", ["one call", "two calls", "reverse order"])
    def test_allocation_values_do_not_depend_on_the_call(self, calls):
        # a row's value is the same bit for bit whatever rows share its call
        # and in whatever order they come: here against one AllocationValue
        # per row, and each is the slot optimum
        prob = random_problem(make_rng(40, 96), n_users=7, n_fbs=3)
        gis = [[0.5, 1.0, 0.0], [0.5, 2.0, 0.0], [1.5, 1.0, 0.7], [0.0, 1.0, 2.4], [2.5, 0.2, 1.0]]
        value = AllocationValue(prob)
        stacks = {
            "one call": [gis],
            "two calls": [gis[:2], gis[2:]],
            "reverse order": [gis[::-1]],
        }[calls]
        for stack in stacks:
            value.improvements(stack)
        for gi in gis:
            alone = AllocationValue(prob)
            assert bits(value.baseline) == bits(alone.baseline)
            got = value.improvement(gi)
            assert bits(got) == bits(alone.improvement(gi))
            exact = exact_schedule(prob, np.array(gi))[3]
            assert got + value.baseline == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_allocation_values_are_a_refilled_best_pattern(self, data):
        # each value is, to 1e-12, the objective of the best of all 2^K
        # branch patterns refilled by the bisection, and the plain
        # enumeration's optimum. The slots' rates reach down to 1e-3, so
        # pools often leave a member unserved
        prob = data.draw(slot_problems(max_users=7))
        gis = data.draw(channel_stacks(prob.n_fbs))
        value = AllocationValue(prob)
        got = value.improvements(gis)
        for gi, improvement in zip(gis, got):
            best = float(refilled_patterns(prob, gi).max())
            assert improvement + value.baseline == pytest.approx(best, rel=1e-12)
            exact = exact_schedule(prob, np.array(gi))[3]
            assert best == pytest.approx(exact, rel=1e-12)

    def test_the_battery_catches_a_pool_that_serves_every_member(self, monkeypatch):
        # a _femto_table whose served test always passes pays every lane,
        # so unserved members count with negative shares; the battery's
        # allocation-value draws reach that boundary
        def always_served(steps, g):
            table = []
            for base, paid in steps:
                if g > 0.0 and paid:
                    _, _, p, o, a = paid[-1]
                    base += a + p * math.log((g + o) / p)
                table.append(base)
            return table

        monkeypatch.setattr(scheduler, "_femto_table", always_served)
        _, check, path, count = next(c for c in BATTERY if c[0] == "allocation-value-vs-exact")
        ok, detail = run_check(check, make_rng(2024, path), count)
        assert not ok and detail.startswith("allocation value ")

    def test_allocation_values_take_no_refill(self, monkeypatch):
        # a row's value is its best pattern's closed-form value: no pool is
        # bisected and no schedule scored, yet the values are the plain
        # enumeration's optimum
        def refuse(*args, **kwargs):
            raise AssertionError("AllocationValue refilled a pattern")

        monkeypatch.setattr(scheduler, "_pool_shares", refuse)
        monkeypatch.setattr(scheduler, "_objective", refuse)
        prob = random_problem(make_rng(40, 96), n_users=7, n_fbs=3)
        gis = [[0.0, 0.0, 0.0], [0.5, 1.0, 0.0], [1.5, 1.0, 0.7], [0.0, 1.0, 2.4]]
        value = AllocationValue(prob)
        for gi, improvement in zip(gis, value.improvements(gis)):
            exact = exact_schedule(prob, np.array(gi))[3]
            assert improvement + value.baseline == pytest.approx(exact, rel=1e-12)

    def test_greedy_values_reach_the_optimum_on_a_symmetric_kink_slot(self):
        # the slot that the runner's slot solve misses (the strict xfail
        # test_a_symmetric_kink_slot_reaches_the_optimum): greedy's
        # candidate value is the slot optimum that its 1/(1 + d_max)
        # guarantee assumes
        value = AllocationValue(KINK_SLOT)
        [got] = value.improvements([[1.0]])
        want = exact_schedule(KINK_SLOT, [1.0])[3]
        assert got + value.baseline == pytest.approx(want, rel=1e-12)

    def test_allocation_values_check_their_inputs(self):
        prob = random_problem(make_rng(42, 98), n_users=2, n_fbs=1)
        value = AllocationValue(prob)
        for row, message in (
            ([math.inf], "expected channel counts must be nonnegative and finite"),
            ([math.nan], "expected channel counts must be nonnegative and finite"),
            ([-1.0], "expected channel counts must be nonnegative and finite"),
            ([1.0, 1.0], "gis must hold one channel vector per femto station in each row"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                value.improvements([row])
        # every row enumerates 2^K patterns, so problems above the limit
        # are refused, with a custom solver too
        limit = scheduler.ENUMERATION_MAX_USERS
        at_limit = random_problem(make_rng(42, 99), n_users=limit)
        assert math.isfinite(AllocationValue(at_limit).baseline)
        big = random_problem(make_rng(42, 99), n_users=limit + 1)
        for solver in (None, exact_allocation_solver):
            message = f"{limit + 1} users exceeds the limit of {limit}"
            with pytest.raises(ValueError, match=message):
                AllocationValue(big, solver=solver)

    def test_slots_share_no_table(self):
        # two slots whose problems differ only in the current quality have
        # the same users and links but not the same pool values, so each
        # values its rows from its own femto tables: a slot's values are
        # the same bits whether or not another slot was valued before it
        prob = random_problem(make_rng(40, 95), n_users=6, n_fbs=2)
        other = dataclasses.replace(prob, w_minus=prob.w_minus + 3.0)
        gis = [[0.5, 1.0], [0.5, 2.0], [1.5, 1.0]]
        alone = AllocationValue(other).improvements(gis)
        first = AllocationValue(prob)
        second = AllocationValue(other)
        got = second.improvements(gis)
        assert [bits(v) for v in got] == [bits(v) for v in alone]
        assert all(bits(a) != bits(b) for a, b in zip(first.improvements(gis), got))
        for problem, value in ((prob, first), (other, second)):
            for gi, improvement in zip(gis, value.improvements(gis)):
                exact = exact_schedule(problem, np.array(gi))[3]
                assert improvement + value.baseline == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_users=st.integers(1, 9),
        n_fbs=st.integers(1, 3),
        max_iters=st.integers(1, 400),
    )
    def test_tracing_leaves_the_schedule_as_it_is(self, seed, n_users, n_fbs, max_iters):
        # the runner traces only the first seed of a list, so a seed's rows
        # would otherwise depend on its place in the list
        prob = random_slot_problem(make_rng(seed), n_users, n_fbs)
        traced = solve_noninterfering(
            prob, step=0.01, phi=1e-6, max_iters=max_iters, record_trace=True
        )
        untraced = solve_noninterfering(prob, step=0.01, phi=1e-6, max_iters=max_iters)
        assert len(traced.trace) == traced.iterations
        assert_same_solution(dataclasses.replace(traced, trace=None), untraced)

    def test_rejects_malformed_inputs(self):
        prob = random_problem(make_rng(42, 97), n_fbs=2)
        for prices in ([1.0, -1.0, 1.0], [1.0, 1.0], [1.0, math.nan, 1.0], [1.0, math.inf, 1.0]):
            with pytest.raises(ValueError, match="prices_init must be a nonnegative finite price"):
                solve_noninterfering(
                    prob, prices_init=prices, step=0.01, phi=1e-6, max_iters=10_000
                )
        # a channel vector fails as the problem is built, before any solve
        lone = random_problem(make_rng(42, 98), n_users=2, n_fbs=1)
        for row in ([math.nan], [-1.0], [math.inf]):
            with pytest.raises(ValueError, match="expected channel counts must be nonnegative"):
                solve_noninterfering(
                    lone.for_slot(lone.w_minus, row), step=0.01, phi=1e-6, max_iters=10_000
                )


class TestEnumerationCorners:
    """AllocationValue's closed-form pattern values on lanes that
    waterfilling never pays equal the plain enumeration's optimum, with no
    RuntimeWarning (pyproject.toml makes one an error)."""

    GIS = [[0.0, 0.0], [1.2, 0.0], [0.0, 2.0], [0.7, 1.6], [3.0, 0.4]]

    @pytest.mark.parametrize(
        "changes",
        [
            {"pbar_mbs": 0.0},
            {"pbar_fbs": 0.0},
            {"pbar_mbs": 0.0, "pbar_fbs": 0.0},
            {"rate_mbs": 0.0},
            {"rate_fbs": 0.0},
            {"rate_mbs": 0.0, "rate_fbs": 0.0},
            {"rate_mbs": 5e-324},
            {"rate_fbs": 5e-324},
            {"rate_mbs": 5e-324, "rate_fbs": 5e-324},
            # pbar*rate/w underflows to 0 while w/rate stays finite
            {"pbar_mbs": 5e-324, "rate_mbs": 1e-3},
            {"pbar_fbs": 5e-324, "rate_fbs": 1e-3},
        ],
        ids=lambda changes: "-".join(f"{field}={entry!r}" for field, entry in changes.items()),
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unpaid_lanes_match_the_plain_enumeration(self, changes, seed):
        # users 1 and 3 take the changed entries; the rows hold zero
        # channel counts on either femto and on both
        fields = dataclasses.asdict(random_slot_problem(make_rng(61, seed), 5, 2))
        for field, entry in changes.items():
            fields[field][[1, 3]] = entry
        prob = SlotProblem(**fields)
        value = AllocationValue(prob)
        for gi, improvement in zip(self.GIS, value.improvements(self.GIS)):
            exact = exact_schedule(prob, np.array(gi))[3]
            assert value.baseline + improvement == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_a_femto_without_users_and_a_lone_user(self):
        prob = SlotProblem(
            w_minus=[30.0],
            pbar_mbs=[0.6],
            pbar_fbs=[0.9],
            rate_mbs=[40.0],
            rate_fbs=[5e-324],
            assoc=[2],
            n_fbs=3,
            fbs_gi=[0.0, 0.0, 0.0],
        )
        value = AllocationValue(prob)
        for gi in ([0.0, 0.0, 0.0], [1.0, 2.0, 0.5], [0.0, 1e-300, 0.0]):
            exact = exact_schedule(prob, np.array(gi))[3]
            assert value.baseline + value.improvement(gi) == pytest.approx(exact, rel=1e-12)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def refilled_patterns(prob, gi):
    """The objective of every branch pattern in itertools.product order
    under the channel vector gi, each refilled by _refill_patterns."""
    patterns = np.array(list(itertools.product((False, True), repeat=prob.num_users)))
    g_user = np.broadcast_to(np.asarray(gi, dtype=float)[prob.assoc - 1], patterns.shape)
    rho_mbs, rho_fbs = scheduler._refill_patterns(prob, g_user, patterns)
    return scheduler._objective(prob, g_user, patterns, rho_mbs, rho_fbs)


def plain_price_iteration(prob, gi, start, step, phi, max_iters):
    """Reference for one row: the price iteration run alone, every iterate.

    Returns, for each iteration cap m in 1..max_iters, the (prices,
    iterations, converged, dual_value) that a solve capped at m reports,
    and the (iterate, period) at which the prices first repeat an earlier
    iterate bit for bit, or None.
    """
    g_user = np.asarray(gi, dtype=float)[prob.assoc - 1][None, :]
    respond = responder(prob, g_user)

    def lagrangian(prices):
        _, rho0, rhof, values = respond(prices)
        return respond.load(rho0, rhof), values.sum(axis=1)[0] + prices.sum(axis=1)[0]

    prices = np.array(start, dtype=float)[None, :]
    load, here = lagrangian(prices)
    low = math.inf
    seen, first_repeat = {prices.tobytes(): 1}, None
    per_cap = []
    for it in range(1, max_iters + 1):
        low = min(low, here)
        # the projected gradient step
        new_prices = np.maximum(prices - step * (1.0 - load), 0.0)
        moved = ((new_prices - prices) ** 2).sum(axis=1)[0]
        prices = new_prices
        load, here = lagrangian(prices)
        result = (prices[0], it, bool(moved <= phi), min(low, here))
        if moved <= phi:
            per_cap += [result] * (max_iters + 1 - it)
            break
        per_cap.append(result)
        key = prices.tobytes()
        if first_repeat is None and key in seen:
            first_repeat = (it + 1, it + 1 - seen[key])
        seen.setdefault(key, it + 1)
    return per_cap, first_repeat


def assert_matches_plain(solved, plain, cap):
    for sol, (per_cap, _) in zip(solved, plain):
        prices, iterations, converged, dual = per_cap[cap - 1]
        assert bits(sol.prices) == bits(prices)
        assert sol.iterations == iterations
        assert sol.converged == converged
        assert bits(sol.dual_value) == bits(dual)


def phase_caps(first_repeat, horizon):
    """Caps over two full periods from the first repeat, and over two more
    from twice its iterate plus a period on."""
    first, period = first_repeat
    late = 2 * first + period
    caps = set(range(first, first + 2 * period + 1)) | set(range(late, late + 2 * period + 1))
    return {cap for cap in caps if cap <= horizon}


@st.composite
def kink_problems(draw):
    """fig10-like slots: a few users with equal quality rates on one or two
    femtos, where the price iteration often falls into an exact cycle, and
    sometimes on 7 to 9 femtos with as many users or more, where the
    squared price movement and the dual's sums over transmitters and users
    have 8 or more terms, which numpy sums pairwise in both routes."""
    n_fbs = draw(st.integers(1, 2) | st.integers(7, 9))
    # about one user per femto when there are many, so that most
    # transmitters keep a price
    k = draw(st.integers(1, 5) if n_fbs < 7 else st.integers(n_fbs, n_fbs + 3))

    def per_user(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k))

    return SlotProblem(
        w_minus=per_user(30.0, 42.0),
        pbar_mbs=per_user(0.55, 0.65),
        pbar_fbs=per_user(0.7, 0.85),
        rate_mbs=np.full(k, 5.0),
        rate_fbs=np.full(k, 5.0),
        assoc=draw(st.lists(st.integers(1, n_fbs), min_size=k, max_size=k)),
        n_fbs=n_fbs,
        fbs_gi=np.zeros(n_fbs),
    )


# a fig10 slot at eta 0.7 (3 users, one femto); the macro price rests at 0
FIG10_SLOT = SlotProblem(
    w_minus=[33.470803760008714, 36.37955214748384, 38.23435897261816],
    pbar_mbs=[0.6065306597126334] * 3,
    pbar_fbs=[0.7165313105737893, 0.7788007830714049, 0.8187307530779818],
    rate_mbs=[5.0] * 3,
    rate_fbs=[5.0] * 3,
    assoc=[1, 1, 1],
    n_fbs=1,
    fbs_gi=[0.3103448275862069],
)
FIG10_START = [0.0, 0.05916348741607141]

# a slot on two femtos whose first branch switch moves only femto 1's users
TWO_FEMTO_SWITCHING_SLOT = SlotProblem(
    w_minus=[41.1, 41.2, 35.3, 30.7],
    pbar_mbs=[0.52, 0.62, 0.62, 0.51],
    pbar_fbs=[0.52, 0.95, 0.79, 0.61],
    rate_mbs=[70.0, 108.0, 103.0, 99.0],
    rate_fbs=[71.0, 79.0, 94.0, 45.0],
    assoc=[1, 1, 2, 2],
    n_fbs=2,
    fbs_gi=[1.9, 1.2],
)

# a slot whose users switch branches often once the femto price settles
SWITCHING_SLOT = SlotProblem(
    w_minus=[25.6, 27.5, 44.3],
    pbar_mbs=[0.76, 0.6, 0.67],
    pbar_fbs=[0.91, 0.54, 0.71],
    rate_mbs=[92.0, 62.0, 77.0],
    rate_fbs=[99.0, 112.0, 44.0],
    assoc=[1, 1, 1],
    n_fbs=1,
    fbs_gi=[2.8],
)


class TestCycleExit:
    """Rows whose prices repeat stop early; every output stays that of the
    plain iteration run to the cap."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_row_matches_the_plain_iteration(self, data):
        prob = data.draw(kink_problems())
        # fig10's expected channel counts stay below about 1.5
        gis = [[0.5 * g for g in row] for row in data.draw(channel_stacks(prob.n_fbs))]
        step = data.draw(st.sampled_from([0.01, 0.02, 0.05]))
        phi = data.draw(st.sampled_from([0.0, 1e-6]))
        warm = data.draw(st.sampled_from(["ones", "demand", "drawn"]))
        if warm == "ones":
            start = np.ones(prob.n_fbs + 1)
        elif warm == "demand":
            start = init_prices(dataclasses.replace(prob, fbs_gi=gis[0]))
        else:
            n = prob.n_fbs + 1
            start = data.draw(st.lists(st.floats(0.0, 0.2), min_size=n, max_size=n))
        horizon = 120
        plain = [plain_price_iteration(prob, gi, start, step, phi, horizon) for gi in gis]
        caps = {horizon} | set(data.draw(st.lists(st.integers(1, horizon), max_size=3)))
        for _, first_repeat in plain:
            if first_repeat is not None:
                caps |= phase_caps(first_repeat, horizon)
        for cap in sorted(caps):
            solved = solve_rows(prob, gis, prices_init=start, step=step, phi=phi, max_iters=cap)
            assert_matches_plain(solved, plain, cap)

    def test_fig10_slot_stack_mixes_all_three_row_kinds(self):
        # channel counts whose rows converge, cycle from iterate 5 with
        # period 3, never repeat, and converge
        gis = [[0.0], [0.3103448275862069], [0.7], [1.2]]
        opts = dict(step=0.01, phi=1e-6)
        horizon = 2000
        plain = [
            plain_price_iteration(FIG10_SLOT, gi, FIG10_START, max_iters=horizon, **opts)
            for gi in gis
        ]
        assert [first_repeat for _, first_repeat in plain] == [None, (5, 3), None, None]
        assert [per_cap[-1][2] for per_cap, _ in plain] == [True, False, False, True]
        for cap in sorted(phase_caps((5, 3), horizon) | {1, 4, 100, horizon - 1, horizon}):
            solved = solve_rows(FIG10_SLOT, gis, prices_init=FIG10_START, max_iters=cap, **opts)
            assert_matches_plain(solved, plain, cap)

    def test_trace_keeps_every_iterate_of_a_cycling_row(self):
        max_iters = 200
        sol = solve_noninterfering(
            FIG10_SLOT, prices_init=FIG10_START, step=0.01, phi=1e-6, max_iters=max_iters,
            record_trace=True,
        )
        assert not sol.converged and sol.iterations == max_iters
        assert [it for it, _, _ in sol.trace] == list(range(1, max_iters + 1))
        # iterate 5 repeats iterate 2, and so on with period 3
        prices = [p for _, p, _ in sol.trace]
        assert all(bits(prices[i]) == bits(prices[i + 3]) for i in range(1, max_iters - 3))
        assert bits(prices[0]) != bits(prices[3])
        untraced = solve_noninterfering(
            FIG10_SLOT, prices_init=FIG10_START, step=0.01, phi=1e-6, max_iters=max_iters
        )
        assert bits(untraced.prices) == bits(sol.prices)
        assert bits(untraced.dual_value) == bits(sol.dual_value)
        assert untraced.objective == sol.objective

    def test_the_stop_rule_bounds_the_evaluated_iterates(self, monkeypatch):
        # each row block is one _lane_values call on its prices and those
        # after it; the solve's first call evaluates the start prices alone
        blocks = []
        lane_values = scheduler._lane_values

        def counting(pbar, w, rate, offset, unpaid, price):
            if price.ndim == 2:
                blocks.append(len(price) - 1)
            return lane_values(pbar, w, rate, offset, unpaid, price)

        monkeypatch.setattr(scheduler, "_lane_values", counting)
        max_iters, opts = 2000, dict(step=0.01, phi=1e-6)

        def solve(gi):
            per_cap, first_repeat = plain_price_iteration(
                FIG10_SLOT, [gi], FIG10_START, max_iters=max_iters, **opts
            )
            blocks.clear()
            [sol] = solve_rows(
                FIG10_SLOT, [[gi]], prices_init=FIG10_START, max_iters=max_iters, **opts
            )
            assert_matches_plain([sol], [(per_cap, first_repeat)], max_iters)
            return first_repeat

        # cycles from iterate 5 with period 3: the iterates before the
        # cycle, one period and at most one block more
        first, period = solve(0.3103448275862069)
        assert (first, period) == (5, 3)
        assert sum(blocks) <= first + period + scheduler._FIRST_BLOCK
        # never repeats, so it runs to the cap in doubling blocks
        assert solve(0.7) is None
        assert sum(blocks) == max_iters
        assert len(blocks) <= math.ceil(math.log2(max_iters / scheduler._FIRST_BLOCK + 1))


# prices at and around the edges of the best response: zero (either sign),
# the smallest subnormal, which saturates pbar/price to +inf, and ordinary
prices_at_the_edges = st.sampled_from([0.0, -0.0, 5e-324, 1e-300]) | st.floats(0.0, 2.0)


@st.composite
def recurrence_stacks(draw):
    """A slot problem of 1 to 16 users, often 8 or more, where numpy's sum
    of the Lagrangian values over the users switches from a running sum to
    pairwise sums in both routes, on 1 to 3 femtos or sometimes 7 to 9, so
    that the dual's price sum and the squared movement over the
    transmitters run pairwise too; the loads stay running sums in user
    order. Some users have zero or subnormal rates or zero weights. A stack
    of channel rows, some zero, and a price row per channel row."""
    n_fbs = draw(st.integers(1, 3) | st.integers(7, 9))
    k = draw(st.integers(1, 7) | st.integers(8, 16))

    def per_user(values):
        return draw(st.lists(values, min_size=k, max_size=k))

    prob = SlotProblem(
        w_minus=per_user(st.floats(1.0, 45.0)),
        pbar_mbs=per_user(st.just(0.0) | st.floats(0.3, 1.0)),
        pbar_fbs=per_user(st.just(0.0) | st.floats(0.3, 1.0)),
        rate_mbs=per_user(st.sampled_from([0.0, 5e-324]) | st.floats(1e-3, 120.0)),
        rate_fbs=per_user(st.sampled_from([0.0, 5e-324]) | st.floats(1e-3, 120.0)),
        assoc=per_user(st.integers(1, n_fbs)),
        n_fbs=n_fbs,
        fbs_gi=np.zeros(n_fbs),
    )
    gis = np.array(draw(channel_stacks(n_fbs)))
    edge_row = st.lists(prices_at_the_edges, min_size=n_fbs + 1, max_size=n_fbs + 1)
    scale_row = st.lists(st.floats(0.8, 2.0), min_size=n_fbs + 1, max_size=n_fbs + 1)

    def price_row(gi):
        if draw(st.booleans()):
            return draw(edge_row)
        # around the demand thresholds many shares are interior, so the
        # order in which a transmitter's load is summed shows in its bits
        return init_prices(dataclasses.replace(prob, fbs_gi=gi)) * draw(scale_row)

    prices = np.array([price_row(gi) for gi in gis])
    return prob, gis, prices


def reference_step(respond, prices, step):
    """The reference route of one iterate: __call__, load, then the
    projected gradient step. Returns branches, next prices, squared
    movement and the Lagrangian value per row."""
    connect, rho0, rhof, values = respond(prices)
    new_prices = np.maximum(prices - step * (1.0 - respond.load(rho0, rhof)), 0.0)
    moved = ((new_prices - prices) ** 2).sum(axis=1)
    return connect, new_prices, moved, values.sum(axis=1) + prices.sum(axis=1)


def recurrence_iterate(prob, gi, prices, step, phi):
    """One iterate of the price iteration from the price row prices under
    the channel vector gi: the next prices, whether the squared price
    movement dropped to phi, and the lowest dual value folded, the
    Lagrangian value at prices."""
    respond = responder(prob, np.asarray(gi, dtype=float)[prob.assoc - 1][None, :])
    _, converged, last, dual, _, _, _ = scheduler._iterate(respond, prices, step, phi, 1, False)
    return last, converged, dual


class TestRecurrence:
    """An iterate of the price iteration's station orbits is the reference
    route's bit for bit, and so are whole solves, also where branches
    switch."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_recurrence_iterates_match_the_reference_route(self, data):
        prob, gis, prices = data.draw(recurrence_stacks())
        step = data.draw(st.sampled_from([0.005, 0.01, 0.05, 0.5]))
        g_user = np.take(gis, prob.assoc - 1, axis=1)
        respond = responder(prob, g_user)
        for _ in range(data.draw(st.integers(1, 12))):
            _, new_prices, moved, lagrangian = reference_step(respond, prices, step)
            for r in range(len(gis)):
                got, _, dual = recurrence_iterate(prob, gis[r], prices[r], step, -1.0)
                assert bits(got) == bits(new_prices[r])
                assert bits(dual) == bits(lagrangian[r])
                # the squared movement, seen through the convergence test
                # at exactly that value and at the float below it
                at, below = float(moved[r]), float(np.nextafter(moved[r], -math.inf))
                assert recurrence_iterate(prob, gis[r], prices[r], step, at)[1]
                assert not recurrence_iterate(prob, gis[r], prices[r], step, below)[1]
            prices = new_prices

    def test_a_crowded_stack_iterates_as_the_reference(self):
        # 12 users with interior shares: the solves build 8 macro orbits
        # of 3 or more members, and in 167 of their 690 loads at a positive
        # price numpy's pairwise sum over the users would round differently
        # from the running sum in user order, so the macro load is pinned
        # to the reference route's order
        prob = random_problem(make_rng(44, 99), n_users=12, n_fbs=2)
        gis = [[0.5, 1.0], [1.5, 0.7], [3.0, 0.0], [2.0, 2.4]]
        start = init_prices(prob)
        plain = [plain_price_iteration(prob, gi, start, 0.01, 1e-9, 300) for gi in gis]
        for cap in (1, 37, 300):
            solved = solve_rows(prob, gis, prices_init=start, step=0.01, phi=1e-9, max_iters=cap)
            assert_matches_plain(solved, plain, cap)

    @pytest.mark.parametrize("seed, lowest", [(24, 130), (10, 166)])
    def test_the_dual_sums_its_prices_as_numpy_does(self, seed, lowest):
        # slots on 9 femtos, found by a seeded search, whose lowest dual
        # value comes from prices that numpy's pairwise sum over the 10
        # transmitters rounds differently from a running sum: at an
        # iterate's input prices (seed 24, the 131st of 131 iterates) and at
        # the last prices (seed 10, after the 166th and last)
        prob = random_problem(make_rng(48, seed), n_users=11, n_fbs=9)
        start, horizon = np.ones(10), 200
        per_cap, _ = plain_price_iteration(prob, prob.fbs_gi, start, 0.01, 1e-6, horizon)
        dual = per_cap[-1][3]
        assert next(m for m, (*_, low) in enumerate(per_cap, 1) if low == dual) == lowest
        prices = per_cap[lowest - 1][0]
        running = 0.0
        for price in prices.tolist():
            running += price
        assert running != np.add.reduce(prices)
        sol = solve_noninterfering(prob, prices_init=start, step=0.01, phi=1e-6, max_iters=horizon)
        assert bits(sol.dual_value) == bits(dual)

    def test_rows_whose_branches_switch_restart_from_the_switch(self, monkeypatch):
        # the restarts of each row, in solve order; the rows are solved
        # one after another, and a row's first _follow starts it
        restarts = []
        follow = scheduler._follow

        def counting_follow(respond, paid, connect, held, prices, t):
            if held is None:
                restarts.append(0)
            else:
                restarts[-1] += 1
            return follow(respond, paid, connect, held, prices, t)

        monkeypatch.setattr(scheduler, "_follow", counting_follow)
        # the first and last rows' users switch branches from iterates 55
        # and 46 on, more and more often; the middle row switches once, at
        # iterate 66, and converges there
        gis = [[2.8], [4.0], [0.0]]
        start, horizon = np.ones(2), 150
        plain = [
            plain_price_iteration(SWITCHING_SLOT, gi, start, 0.01, 1e-6, horizon) for gi in gis
        ]
        for cap in range(1, horizon + 1):
            solved = solve_rows(
                SWITCHING_SLOT, gis, prices_init=start, step=0.01, phi=1e-6, max_iters=cap
            )
            assert_matches_plain(solved, plain, cap)
        per_row = [sum(restarts[r :: len(gis)]) for r in range(len(gis))]
        assert sum(per_row) > horizon and all(per_row)
        traced = solve_noninterfering(
            SWITCHING_SLOT,
            prices_init=start,
            step=0.01,
            phi=1e-6,
            max_iters=horizon,
            record_trace=True,
        )
        prices, iterations, _, dual = plain[0][0][-1]
        assert [it for it, _, _ in traced.trace] == list(range(1, iterations + 1))
        assert bits(traced.prices) == bits(prices) and bits(traced.dual_value) == bits(dual)

    def test_a_restart_restores_the_state_of_its_iterate(self, monkeypatch):
        # a row that switches goes on from its switching iterate's prices,
        # each transmitter whose paid members stay on its own orbit. From
        # iterate 51 on femto 1's users switch branches while femto 2's
        # stay, and later femto 2's switch as well
        kept, started = [], []
        follow = scheduler._follow

        def recording_follow(respond, paid, connect, held, prices, t):
            pairs = follow(respond, paid, connect, held, prices, t)
            if held is not None:
                same = [a[0] is b[0] for a, b in zip(held, pairs)]
                kept.append(any(same))
                started.append(not all(same))
            return pairs

        monkeypatch.setattr(scheduler, "_follow", recording_follow)
        gis = [[1.9, 1.2], [1.9, 1.4], [0.0, 1.2]]
        start, horizon = np.ones(3), 150
        plain = [
            plain_price_iteration(TWO_FEMTO_SWITCHING_SLOT, gi, start, 0.01, 1e-6, horizon)
            for gi in gis
        ]
        for cap in range(1, horizon + 1):
            solved = solve_rows(
                TWO_FEMTO_SWITCHING_SLOT,
                gis,
                prices_init=start,
                step=0.01,
                phi=1e-6,
                max_iters=cap,
            )
            assert_matches_plain(solved, plain, cap)
        assert any(kept) and all(started)

    def test_log_rounds_alike_at_any_position(self):
        # the iteration evaluates each block of a row in one array of any
        # length, and a cycling row takes its last prices' values from
        # whichever block holds them, where a per-iterate evaluation would
        # see them elsewhere; a numpy whose log depends on the position
        # fails here rather than moving bytes
        rng = make_rng(47, 11)
        x = np.exp(rng.uniform(-700.0, 700.0, 200_000)) * rng.uniform(0.0, 1.0, 200_000)
        whole = np.log(x)
        chunks = [np.log(x[i : i + 3]) for i in range(0, len(x), 3)]
        assert bits(whole) == bits(np.concatenate(chunks))
        assert bits(whole) == bits([np.log(v) for v in x])


def lone_heuristics(prob, gi):
    """Reference for the stacked baselines: per-pool loops over one channel
    vector. Returns (connect, rho_mbs, rho_fbs) for the equal split, then
    for the best link."""
    connect = (prob.pbar_mbs >= prob.pbar_fbs) | (gi[prob.assoc - 1] == 0)
    pools = [connect] + [(~connect) & (prob.assoc == i) for i in range(1, prob.n_fbs + 1)]
    equal, best = np.zeros((2, prob.num_users)), np.zeros((2, prob.num_users))
    for station, pool in enumerate(pools):
        if np.any(pool):
            side = int(station > 0)
            equal[side][pool] = 1.0 / int(pool.sum())
            link = prob.pbar_fbs if side else prob.pbar_mbs
            best[side][int(np.argmax(np.where(pool, link, -1.0)))] = 1.0
    return (connect, *equal), (connect, *best)


class TestHeuristics:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_stacked_rows_match_lone_heuristics(self, data):
        prob = data.draw(slot_problems())
        gis = np.array(data.draw(channel_stacks(prob.n_fbs)))
        # C order, as the solver builds it, so row sums run along the users
        g_user = np.take(gis, prob.assoc - 1, axis=1)
        stacks = [
            (scheduler._equal_split(prob, g_user), heuristic_equal),
            (scheduler._best_link(prob, g_user), heuristic_diversity),
        ]
        for k, (stack, lone) in enumerate(stacks):
            objectives = scheduler._objective(prob, g_user, *stack)
            for r, gi in enumerate(gis):
                sol = slot_baseline(lone, dataclasses.replace(prob, fbs_gi=gi))
                reference = lone_heuristics(prob, gi)[k]
                got = (sol.connect_mbs[0], sol.rho_mbs[0], sol.rho_fbs[0])
                for row, one, ref in zip(stack, got, reference):
                    assert bits(row[r]) == bits(one) == bits(ref)
                assert bits(objectives[r]) == bits(sol.objective[0])
                assert sol.objective[0] == scheduler._objective(
                    prob, gi[prob.assoc - 1], *reference
                )

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_users=st.integers(1, 9),
        n_fbs=st.integers(2, 4),
        data=st.data(),
    )
    def test_schedules_do_not_depend_on_current_quality(self, seed, n_users, n_fbs, data):
        # the stream runner schedules each baseline once per slot, on the
        # proposed scheduler's quality, and delivers that schedule to the
        # baseline's own quality state
        rng = np.random.default_rng(seed)
        prob = random_slot_problem(rng, n_users, n_fbs)
        idle = data.draw(st.lists(st.booleans(), min_size=n_fbs, max_size=n_fbs))
        prob = dataclasses.replace(prob, fbs_gi=np.where(idle, 0.0, prob.fbs_gi))
        other = dataclasses.replace(prob, w_minus=rng.uniform(1.0, 60.0, n_users))
        for heuristic in (heuristic_equal, heuristic_diversity):
            a, b = slot_baseline(heuristic, prob), slot_baseline(heuristic, other)
            for part in ("connect_mbs", "rho_mbs", "rho_fbs"):
                assert getattr(a, part).tobytes() == getattr(b, part).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_slot_stack_is_each_slot_scheduled_alone(self, data):
        # the stream runner schedules each baseline once over all slots, and
        # scores row t at the quality the proposed scheduler solved slot t at
        prob = data.draw(slot_problems())
        gis = np.array(data.draw(channel_stacks(prob.n_fbs)))
        quality = st.lists(st.floats(1.0, 60.0), min_size=prob.num_users, max_size=prob.num_users)
        w_minus = np.array(data.draw(st.lists(quality, min_size=len(gis), max_size=len(gis))))
        for heuristic in (heuristic_equal, heuristic_diversity):
            stack = heuristic(prob, w_minus, gis)
            assert stack.objective.shape == (len(gis),)
            for r in range(len(gis)):
                lone = slot_baseline(heuristic, prob.for_slot(w_minus[r], gis[r]))
                for part in ("connect_mbs", "rho_mbs", "rho_fbs"):
                    assert bits(getattr(stack, part)[r]) == bits(getattr(lone, part)[0])
                assert bits(stack.objective[r]) == bits(lone.objective[0])

    @pytest.mark.parametrize(
        "w_minus, gis, message",
        [
            ([[30.0, 31.0]], None, "one channel vector per femto"),
            (None, [[1.0]], "one quality per user"),
            ([[30.0, 31.0]], [[1.0, 2.0]], "one channel vector per femto"),
            ([[30.0, 31.0]], [1.0], "one channel vector per femto"),
            ([[30.0, 31.0]], [[1.0], [2.0]], "one quality per user"),
            ([30.0, 31.0], [[1.0]], "one quality per user"),
            ([[30.0, math.nan]], [[1.0]], "current quality"),
            ([[30.0, 0.0]], [[1.0]], "current quality"),
            ([[30.0, math.inf]], [[1.0]], "current quality"),
            ([[30.0, 31.0]], [[-1.0]], "expected channel counts"),
            ([[30.0, 31.0]], [[math.nan]], "expected channel counts"),
            ([[30.0, 31.0]], [[math.inf]], "expected channel counts"),
        ],
    )
    def test_slot_stacks_are_checked_as_slot_problems(self, w_minus, gis, message):
        prob = SlotProblem(
            w_minus=[30.0, 30.0],
            pbar_mbs=[0.9, 0.2],
            pbar_fbs=[0.5, 0.9],
            rate_mbs=[60.0, 60.0],
            rate_fbs=[40.0, 40.0],
            assoc=[1, 1],
            n_fbs=1,
            fbs_gi=[1.0],
        )
        for heuristic in (heuristic_equal, heuristic_diversity):
            with pytest.raises(ValueError, match=message):
                heuristic(prob, w_minus, gis)

    def test_equal_split_within_each_pool(self):
        prob = SlotProblem(
            w_minus=[30.0, 30.0, 30.0],
            pbar_mbs=[0.9, 0.9, 0.2],
            pbar_fbs=[0.5, 0.5, 0.9],
            rate_mbs=[60.0, 60.0, 60.0],
            rate_fbs=[40.0, 40.0, 40.0],
            assoc=[1, 1, 1],
            n_fbs=1,
            fbs_gi=[1.0],
        )
        sol = slot_baseline(heuristic_equal, prob)
        assert sol.connect_mbs.tolist() == [[True, True, False]]
        assert sol.rho_mbs[0].tolist() == pytest.approx([0.5, 0.5, 0.0])
        assert sol.rho_fbs[0].tolist() == pytest.approx([0.0, 0.0, 1.0])

    def test_diversity_gives_whole_slot_to_best_link(self):
        prob = SlotProblem(
            w_minus=[30.0, 30.0, 30.0],
            pbar_mbs=[0.9, 0.8, 0.2],
            pbar_fbs=[0.5, 0.5, 0.9],
            rate_mbs=[60.0, 60.0, 60.0],
            rate_fbs=[40.0, 40.0, 40.0],
            assoc=[1, 1, 1],
            n_fbs=1,
            fbs_gi=[1.0],
        )
        sol = slot_baseline(heuristic_diversity, prob)
        assert sol.rho_mbs[0].tolist() == pytest.approx([1.0, 0.0, 0.0])
        assert sol.rho_fbs[0].tolist() == pytest.approx([0.0, 0.0, 1.0])

    def test_channelless_femto_pushes_users_to_macro(self):
        prob = SlotProblem(
            w_minus=[30.0],
            pbar_mbs=[0.1],
            pbar_fbs=[0.9],
            rate_mbs=[60.0],
            rate_fbs=[40.0],
            assoc=[1],
            n_fbs=1,
            fbs_gi=[0.0],
        )
        for heuristic in (heuristic_equal, heuristic_diversity):
            assert slot_baseline(heuristic, prob).connect_mbs.tolist() == [[True]]


class TestInterferenceGraph:
    def test_neighbors_and_degrees(self):
        graph = InterferenceGraph(3, ((1, 2), (2, 3)))
        assert graph.neighbors(2) == frozenset({1, 3})
        assert graph.degree(1) == 1
        assert graph.d_max == 2
        assert graph.neighbors(1) == frozenset({2})
        assert 1 not in graph.neighbors(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            InterferenceGraph(2, ((1, 3),))
        with pytest.raises(ValueError):
            InterferenceGraph(2, ((2, 2),))

    def test_edgeless_graph(self):
        graph = InterferenceGraph(2, ())
        assert graph.d_max == 0
        assert graph.neighbors(1) == frozenset()


class TestChannelAllocation:
    def test_expected_channels_per_femto(self):
        alloc = ChannelAllocation(
            channels=(0, 1), p_idle=np.array([0.5, 0.25]), assigned=np.array([[1, 1], [0, 1]])
        )
        assert alloc.gi() == pytest.approx([0.75, 0.25])

    def test_conflicting_grant_rejected(self):
        graph = InterferenceGraph(2, ((1, 2),))
        alloc = ChannelAllocation(
            channels=(0,), p_idle=np.array([0.5]), assigned=np.array([[1], [1]])
        )
        with pytest.raises(ValueError):
            alloc.validate(graph)


def one_solve_per_candidate_greedy(problem, channels, p_idle, graph, value):
    """Reference greedy rule: every candidate scored by its own
    improvement call, in (femto, channel position) order."""
    p_idle = np.asarray(p_idle, dtype=float)
    n = problem.n_fbs
    assigned = np.zeros((n, len(channels)), dtype=int)
    candidates = {(i, m) for i in range(1, n + 1) for m in range(len(channels))}
    steps = []
    current = 0.0
    while candidates:
        best_pair, best_value = None, -math.inf
        for i, m in sorted(candidates):
            trial = assigned.copy()
            trial[i - 1, m] = 1
            v = value.improvement(trial @ p_idle)
            if v > best_value:
                best_pair, best_value = (i, m), v
        i, m = best_pair
        steps.append(GreedyStep(i, channels[m], best_value - current, graph.degree(i)))
        assigned[i - 1, m] = 1
        current = best_value
        candidates.discard((i, m))
        for nbr in graph.neighbors(i):
            candidates.discard((nbr, m))
    return assigned, GreedyTrace(steps=steps, value=current, baseline=value.baseline)


class TestGreedyAllocation:
    def make_problem(self, rng, n_fbs, n_users):
        return random_problem(rng, n_users=n_users, n_fbs=n_fbs)

    def test_trace_value_telescopes(self):
        rng = make_rng(26, 87)
        prob = self.make_problem(rng, 2, 3)
        graph = InterferenceGraph(2, ((1, 2),))
        value = AllocationValue(prob, solver=exact_allocation_solver)
        _, trace = greedy_alloc(prob, (0, 1), [0.7, 0.4], graph, value=value)
        assert trace.value == pytest.approx(sum(s.delta for s in trace.steps), abs=1e-12)

    def test_no_interference_means_no_loss(self):
        rng = make_rng(27, 88)
        for _ in range(5):
            prob = self.make_problem(rng, 2, 3)
            graph = InterferenceGraph(2, ())
            value = AllocationValue(prob, solver=exact_allocation_solver)
            galloc, trace = greedy_alloc(prob, (0, 1), [0.7, 0.4], graph, value=value)
            _, best = brute_force_alloc(prob, (0, 1), [0.7, 0.4], graph, value=value)
            assert trace.value == pytest.approx(best, rel=1e-9, abs=1e-9)
            # every grant is handed out when nothing conflicts
            assert galloc.assigned.sum() == 4

    def test_bounded_loss_under_interference(self):
        rng = make_rng(28, 89)
        for _ in range(5):
            prob = self.make_problem(rng, 3, 3)
            graph = InterferenceGraph(3, ((1, 2), (2, 3)))
            value = AllocationValue(prob, solver=exact_allocation_solver)
            galloc, trace = greedy_alloc(prob, (0, 1), [0.7, 0.4], graph, value=value)
            galloc.validate(graph)
            _, best = brute_force_alloc(prob, (0, 1), [0.7, 0.4], graph, value=value)
            assert trace.value >= best / (1 + graph.d_max) - 1e-9
            assert best <= optbound_upper(trace) + 1e-9

    def test_memoization_avoids_repeat_solves(self):
        rng = make_rng(29, 90)
        prob = self.make_problem(rng, 1, 2)
        calls = []

        def counting_solver(problem, gi):
            calls.append(tuple(gi))
            return exact_allocation_solver(problem, gi)

        value = AllocationValue(prob, solver=counting_solver)
        value.improvement([0.5])
        value.improvement([0.5])
        value.improvement([0.0])
        assert len(calls) == 2  # baseline + the single fresh point
        assert value.improvement([0.0]) == 0.0

    def test_custom_solver_runs_once_per_distinct_vector(self):
        rng = make_rng(34, 98)
        prob = self.make_problem(rng, 2, 3)
        calls = []

        def counting_solver(problem, gi):
            calls.append(tuple(gi))
            return exact_allocation_solver(problem, gi)

        value = AllocationValue(prob, solver=counting_solver)
        got = value.improvements([[0.5, 0.0], [0.2, 0.7], [0.5, 0.0], [0.0, 0.0]])
        assert calls == [(0.0, 0.0), (0.5, 0.0), (0.2, 0.7)]
        assert got[0] == got[2] == value.improvement([0.5, 0.0])
        assert got[3] == 0.0
        assert len(calls) == 3

        calls.clear()
        graph = InterferenceGraph(2, ((1, 2),))
        greedy_alloc(prob, (0, 1, 2), [0.7, 0.4, 0.9], graph, value=value)
        assert len(calls) == len(set(calls))
        assert not {(0.0, 0.0), (0.5, 0.0), (0.2, 0.7)} & set(calls)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_batched_greedy_matches_one_solve_per_candidate(self, data):
        prob = data.draw(slot_problems(min_users=2, max_users=6))
        n_ch = data.draw(st.integers(1, 4))
        p_idle = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n_ch, max_size=n_ch))
        pairs = [(i, j) for i in range(1, prob.n_fbs + 1) for j in range(i + 1, prob.n_fbs + 1)]
        edges = tuple(e for e in pairs if data.draw(st.booleans()))
        graph = InterferenceGraph(prob.n_fbs, edges)
        channels = tuple(range(10, 10 + n_ch))
        alloc, trace = greedy_alloc(prob, channels, p_idle, graph, value=AllocationValue(prob))
        assigned, expected = one_solve_per_candidate_greedy(
            prob, channels, p_idle, graph, AllocationValue(prob)
        )
        assert trace == expected
        assert np.array_equal(alloc.assigned, assigned)

    @pytest.mark.parametrize(
        "lift, femto", [(False, 1), (True, 2)], ids=["equal bits", "one ulp apart"]
    )
    def test_ties_break_by_the_bits_of_the_values(self, lift, femto):
        # every candidate's value is the sum of its channel counts, so the
        # two femtos tie; equal bits break to the lowest (femto, channel
        # position), and lifting femto 2's values by one ulp, as rounding
        # may, hands it every grant
        def solver(problem, gi):
            total = float(gi[0] + gi[1])
            return float(np.nextafter(total, math.inf)) if lift and gi[1] > gi[0] else total

        prob = self.make_problem(make_rng(35, 99), 2, 3)
        graph = InterferenceGraph(2, ((1, 2),))
        value = AllocationValue(prob, solver=solver)
        alloc, trace = greedy_alloc(prob, (10, 11), [0.5, 0.5], graph, value=value)
        assert [(s.fbs, s.channel) for s in trace.steps] == [(femto, 10), (femto, 11)]
        assert alloc.assigned.tolist() == [[femto == 1] * 2, [femto == 2] * 2]

    def test_exhaustive_search_refuses_oversized_grids(self):
        rng = make_rng(30, 91)
        prob = self.make_problem(rng, 4, 2)
        graph = InterferenceGraph(4, ())
        value = AllocationValue(prob, solver=exact_allocation_solver)
        with pytest.raises(ValueError, match="16 pairs exceeds the limit of 12"):
            brute_force_alloc(prob, (0, 1, 2, 3), [0.5] * 4, graph, value=value)

    def test_channel_posterior_shape_checked(self):
        rng = make_rng(31, 92)
        prob = self.make_problem(rng, 2, 2)
        graph = InterferenceGraph(2, ())
        value = AllocationValue(prob, solver=exact_allocation_solver)
        with pytest.raises(ValueError, match="one idle posterior per cleared channel"):
            greedy_alloc(prob, (0, 1), [0.5], graph, value=value)


class TestDiminishingGainsMargin:
    def test_single_pool_without_branch_switches_is_certified(self):
        # macro rates of zero pin every user to the femto pool, whose
        # waterfilled value is concave in the expected channel count
        prob = SlotProblem(
            w_minus=[30.0, 35.0],
            pbar_mbs=[0.6, 0.7],
            pbar_fbs=[0.8, 0.5],
            rate_mbs=[0.0, 0.0],
            rate_fbs=[40.0, 80.0],
            assoc=[1, 1],
            n_fbs=1,
            fbs_gi=[0.0],
        )
        graph = InterferenceGraph(1, ())
        margin = diminishing_gains_margin(prob, (0, 1), [0.7, 0.4], graph)
        assert math.isfinite(margin)
        assert margin >= -1e-9

    def test_pool_switch_produces_increasing_returns(self):
        # one channel leaves the second user on the shared macro pool
        # (no gain); two channels flip it onto its own femto, so the pair
        # is worth more than its parts: the margin is exactly the jump
        # log(11) + log(4) - 2*log(6) taken with a negative sign
        prob = SlotProblem(
            w_minus=[1.0, 1.0],
            pbar_mbs=[1.0, 1.0],
            pbar_fbs=[1.0, 1.0],
            rate_mbs=[10.0, 10.0],
            rate_fbs=[0.0, 3.0],
            assoc=[1, 1],
            n_fbs=1,
            fbs_gi=[0.0],
        )
        graph = InterferenceGraph(1, ())
        margin = diminishing_gains_margin(prob, (0, 1), [0.5, 0.5], graph)
        assert margin == pytest.approx(-math.log(11.0 / 9.0), abs=1e-6)

    def test_lattice_without_grant_pairs_is_unconstrained(self):
        rng = make_rng(32, 93)
        prob = random_problem(rng, n_users=2, n_fbs=1)
        graph = InterferenceGraph(1, ())
        assert diminishing_gains_margin(prob, (0,), [0.5], graph) == math.inf

    def test_oversized_lattice_refused(self):
        rng = make_rng(33, 94)
        prob = random_problem(rng, n_users=2, n_fbs=3)
        graph = InterferenceGraph(3, ())
        with pytest.raises(ValueError):
            diminishing_gains_margin(prob, range(5), [0.5] * 5, graph)
