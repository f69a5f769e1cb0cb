"""Slot scheduling: price iteration, heuristics, and channel allocation."""

import dataclasses
import math

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
    dual_update,
    greedy_alloc,
    heuristic_diversity,
    heuristic_equal,
    init_prices,
    optbound_upper,
    solve_noninterfering,
    solve_noninterfering_batch,
)
from femtokit.harness.oracles import (
    brute_force_alloc,
    diminishing_gains_margin,
    exact_allocation_solver,
    exact_schedule,
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


def best_response(prob, prices):
    """Branch and shares of every user from the vector best response."""
    g_user = prob.fbs_gi[prob.assoc - 1][None, :]
    connect, rho0, rhof, _ = scheduler._Responder(prob, g_user)(np.array([prices], dtype=float))
    return connect[0], rho0[0], rhof[0]


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
    def test_projected_gradient_step(self):
        got = dual_update([0.6], [0.5], 0.01)
        assert got == pytest.approx([0.595], abs=1e-15)

    def test_prices_never_negative(self):
        assert dual_update([0.001], [0.0], 0.01).tolist() == [0.0]

    def test_overloaded_pool_raises_price(self):
        assert dual_update([0.5], [1.8], 0.01)[0] > 0.5

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            dual_update([0.5], [1.0], 0.0)


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


class TestPriceIteration:
    def test_single_user_takes_the_better_branch(self):
        prob = one_user_problem(w=30.0, pbar0=0.9, pbarf=0.8, rate0=60.0, ratef=40.0)
        sol = solve_noninterfering(prob, phi=1e-12)
        assert sol.connect_mbs.tolist() == [True]
        assert sol.rho_mbs == pytest.approx([1.0], abs=1e-9)
        assert sol.objective == pytest.approx(0.9 * math.log(90.0), rel=1e-9)
        assert sol.converged

    def test_losing_branch_share_is_exactly_zero(self):
        rng = make_rng(20, 80)
        for _ in range(10):
            sol = solve_noninterfering(random_problem(rng), phi=1e-12)
            off = ~sol.connect_mbs
            assert np.all(sol.rho_mbs[off] == 0.0)
            assert np.all(sol.rho_fbs[sol.connect_mbs] == 0.0)

    def test_loads_feasible(self):
        rng = make_rng(21, 81)
        for _ in range(10):
            prob = random_problem(rng, n_fbs=2)
            sol = solve_noninterfering(prob, phi=1e-12)
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
            sol = solve_noninterfering(prob, phi=1e-12)
            _, _, _, best, _ = exact_schedule(prob)
            assert sol.objective == pytest.approx(best, rel=1e-6)
            assert sol.duality_gap <= 1e-3
            checked += 1

    def test_never_below_the_baselines(self):
        rng = make_rng(23, 83)
        for _ in range(30):
            prob = random_problem(rng, n_users=int(rng.integers(1, 6)), n_fbs=2)
            sol = solve_noninterfering(prob)
            floor = max(heuristic_equal(prob).objective, heuristic_diversity(prob).objective)
            assert sol.objective >= floor - 1e-9

    def test_tiny_iteration_budget_still_feasible_and_competitive(self):
        rng = make_rng(24, 84)
        prob = random_problem(rng, n_users=3)
        sol = solve_noninterfering(prob, max_iters=2)
        assert sol.iterations <= 2
        assert sol.rho_mbs.sum() <= 1.0 + 1e-9
        floor = max(heuristic_equal(prob).objective, heuristic_diversity(prob).objective)
        assert sol.objective >= floor - 1e-9

    def test_warm_start_from_supporting_prices_converges_immediately(self):
        rng = make_rng(25, 85)
        prob = random_problem(rng)
        first = solve_noninterfering(prob, phi=1e-12)
        again = solve_noninterfering(prob, prices_init=first.prices, phi=1e-12)
        assert again.iterations <= first.iterations

    def test_trace_records_every_iteration(self):
        prob = one_user_problem(w=30.0, pbar0=0.9, pbarf=0.8, rate0=60.0, ratef=40.0)
        sol = solve_noninterfering(prob, phi=1e-12, record_trace=True)
        assert sol.trace is not None and len(sol.trace) == sol.iterations
        it, prices, obj = sol.trace[-1]
        assert it == sol.iterations and np.isfinite(obj)

    def test_option_validation(self):
        prob = one_user_problem()
        with pytest.raises(ValueError):
            solve_noninterfering(prob, phi=-1.0)
        with pytest.raises(ValueError):
            solve_noninterfering(prob, max_iters=0)
        with pytest.raises(ValueError):
            solve_noninterfering_batch(prob, [1.0])

    def test_cold_start_prices_sit_on_the_demand_scale(self):
        prob = one_user_problem(w=3.0, pbar0=0.5, pbarf=0.25, rate0=1.0, ratef=2.0, gi=1.0)
        prices = init_prices(prob)
        assert prices[0] == pytest.approx(0.5 * 1.0 / 4.0)
        assert prices[1] == pytest.approx(0.25 * 2.0 / 5.0)


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
    """Pools of a few sizes, several of each, around numpy's switch to
    pairwise sums at 8 entries."""
    sizes = draw(st.lists(st.sampled_from([1, 2, 3, 7, 8, 9, 12]), min_size=1, max_size=3))
    return [
        draw(pools(sizes=st.integers(k, k)))
        for k in sizes
        for _ in range(draw(st.integers(1, 4)))
    ]


def lone_bisection(pbar, w, rate):
    """Reference for the stacked bisection: one pool, scalar prices, and the
    renormalisation of shares that overfill the slot."""
    shares = np.zeros_like(w)
    pos = rate > 0
    if not np.any(pos):
        return shares
    pb, wa, ra = pbar[pos], w[pos], rate[pos]
    offset = wa / ra
    hi = float(np.max(pb * ra / wa)) * 2.0 + 1.0
    lo = 0.0
    for _ in range(scheduler._POOL_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if np.minimum(np.maximum(pb / mid - offset, 0.0), 1.0).sum() >= 1.0:
            lo = mid
        else:
            hi = mid
    filled = np.minimum(np.maximum(pb / hi - offset, 0.0), 1.0)
    total = filled.sum()
    shares[pos] = filled / total if total > 1.0 else filled
    return shares


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
        [fast] = scheduler._pool_shares([(pbar, w, rate)])
        assert value == pytest.approx(float(np.sum(pbar * np.log(w + fast * rate))), abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(stack=pool_stacks())
    def test_each_pool_of_a_mixed_stack_matches_its_lone_bisection(self, stack):
        shares = scheduler._pool_shares(stack)
        assert len(shares) == len(stack)
        for (pbar, w, rate), got in zip(stack, shares):
            assert bits(got) == bits(scheduler._pool_shares([(pbar, w, rate)])[0])
            assert bits(got) == bits(lone_bisection(pbar, w, rate))
            # the shares stay below the slot, so the reference's
            # renormalisation never fires
            assert not np.any(rate > 0) or got[rate > 0].sum() < 1.0

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


class TestBatchedPriceIteration:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_each_row_matches_its_lone_solve(self, data):
        prob = data.draw(slot_problems())
        gis = data.draw(channel_stacks(prob.n_fbs))
        opts = dict(
            step=data.draw(st.sampled_from([0.005, 0.01, 0.05])),
            phi=data.draw(st.sampled_from([0.0, 1e-10, 1e-6])),
            max_iters=data.draw(st.integers(1, 150)),
            record_trace=data.draw(st.booleans()),
        )
        if data.draw(st.booleans()):
            opts["prices_init"] = init_prices(prob, gi=gis[0])
        batch = solve_noninterfering_batch(prob, gis, **opts)
        assert len(batch) == len(gis)
        for gi, got in zip(gis, batch):
            assert_same_solution(got, solve_noninterfering(prob, gi=gi, **opts))

    def test_rows_stop_at_their_own_iteration(self):
        prob = random_problem(make_rng(40, 95), n_users=6, n_fbs=2)
        gis = [[0.0, 0.0], [0.5, 1.0], [0.5, 1.0], [2.5, 0.2], [1.0, 0.0], [3.0, 3.0]]
        opts = dict(step=0.01, phi=1e-6, max_iters=150)
        batch = solve_noninterfering_batch(prob, gis, **opts)
        iterations = [sol.iterations for sol in batch]
        # some rows converge, at different iterations, and some hit the cap
        assert len(set(iterations)) >= 3
        assert any(sol.converged for sol in batch)
        assert any(not sol.converged and sol.iterations == 150 for sol in batch)
        for gi, got in zip(gis, batch):
            assert_same_solution(got, solve_noninterfering(prob, gi=gi, **opts))

    def test_shared_pools_are_bisected_once(self, monkeypatch):
        prob = random_problem(make_rng(40, 95), n_users=6, n_fbs=2)
        gis = [[0.5, 1.0], [0.5, 1.0], [0.5, 2.0], [1.5, 1.0], [0.0, 1.0]]
        bisected, refilled = [], []
        bisect, refill = scheduler._bisect_pools, scheduler._refill_patterns

        def counting_bisect(pbar, w, rate):
            bisected.append(len(pbar))
            return bisect(pbar, w, rate)

        def recording_refill(problem, g_user, patterns):
            refilled.append((g_user, patterns))
            return refill(problem, g_user, patterns)

        monkeypatch.setattr(scheduler, "_bisect_pools", counting_bisect)
        monkeypatch.setattr(scheduler, "_refill_patterns", recording_refill)
        solve_noninterfering_batch(prob, gis, max_iters=150)
        [(g_user, patterns)] = refilled
        keys, uses = set(), 0
        for g, pattern in zip(g_user, patterns):
            station = np.where(pattern, 0, prob.assoc)
            rates = np.where(pattern, prob.rate_mbs, prob.rate_fbs * g)
            for s in range(prob.n_fbs + 1):
                members = station == s
                # an empty pool, or one without a positive rate, is not bisected
                if np.any(rates[members] > 0):
                    uses += 1
                    keys.add((s, members.tobytes(), rates[members].tobytes()))
        assert sum(bisected) == len(keys) < uses

    def test_rejects_malformed_stacks(self):
        prob = random_problem(make_rng(42, 97), n_fbs=2)
        with pytest.raises(ValueError):
            solve_noninterfering_batch(prob, [[1.0, 1.0, 1.0]])
        with pytest.raises(ValueError):
            solve_noninterfering_batch(prob, [[1.0, 1.0]], prices_init=[1.0, -1.0, 1.0])


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def plain_price_iteration(prob, gi, start, step, phi, max_iters):
    """Reference for one row: the price iteration run alone, every iterate.

    Returns, for each iteration cap m in 1..max_iters, the (prices,
    iterations, converged, dual_value) that a solve capped at m reports,
    and the (iterate, period) at which the prices first repeat an earlier
    iterate bit for bit, or None.
    """
    g_user = np.asarray(gi, dtype=float)[prob.assoc - 1][None, :]
    respond = scheduler._Responder(prob, g_user)

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
        new_prices = dual_update(prices, load, step)
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


def assert_matches_plain(batch, plain, cap):
    for sol, (per_cap, _) in zip(batch, plain):
        prices, iterations, converged, dual = per_cap[cap - 1]
        assert bits(sol.prices) == bits(prices)
        assert sol.iterations == iterations
        assert sol.converged == converged
        assert bits(sol.dual_value) == bits(dual)


def phase_caps(first_repeat, horizon):
    """Caps over two full periods from the first repeat, and over two more
    from where a power-of-two snapshot has surely caught the cycle."""
    first, period = first_repeat
    late = 2 * first + period
    caps = set(range(first, first + 2 * period + 1)) | set(range(late, late + 2 * period + 1))
    return {cap for cap in caps if cap <= horizon}


@st.composite
def kink_problems(draw):
    """fig10-like slots: a few users with equal quality rates on one or two
    femtos, where the price iteration often falls into an exact cycle."""
    n_fbs = draw(st.integers(1, 2))
    k = draw(st.integers(1, 5))

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


class TestCycleExit:
    """Rows whose prices repeat stop early; every output stays that of the
    plain iteration run to the cap."""

    @settings(max_examples=25, deadline=None)
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
            start = init_prices(prob, gi=gis[0])
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
            batch = solve_noninterfering_batch(
                prob, gis, prices_init=start, step=step, phi=phi, max_iters=cap
            )
            assert_matches_plain(batch, plain, cap)

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
            batch = solve_noninterfering_batch(
                FIG10_SLOT, gis, prices_init=FIG10_START, max_iters=cap, **opts
            )
            assert_matches_plain(batch, plain, cap)

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
                sol = lone(dataclasses.replace(prob, fbs_gi=gi))
                reference = lone_heuristics(prob, gi)[k]
                got = (sol.connect_mbs, sol.rho_mbs, sol.rho_fbs)
                for row, one, ref in zip(stack, got, reference):
                    assert bits(row[r]) == bits(one) == bits(ref)
                assert bits(objectives[r]) == bits(sol.objective)
                assert sol.objective == scheduler._objective(prob, gi[prob.assoc - 1], *reference)

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
        sol = heuristic_equal(prob)
        assert sol.connect_mbs.tolist() == [True, True, False]
        assert sol.rho_mbs.tolist() == pytest.approx([0.5, 0.5, 0.0])
        assert sol.rho_fbs.tolist() == pytest.approx([0.0, 0.0, 1.0])

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
        sol = heuristic_diversity(prob)
        assert sol.rho_mbs.tolist() == pytest.approx([1.0, 0.0, 0.0])
        assert sol.rho_fbs.tolist() == pytest.approx([0.0, 0.0, 1.0])

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
        for sol in (heuristic_equal(prob), heuristic_diversity(prob)):
            assert sol.connect_mbs.tolist() == [True]


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
        key = tuple(assigned @ p_idle)
        best_pair, best_value = None, -math.inf
        for i, m in sorted(candidates):
            trial = assigned.copy()
            trial[i - 1, m] = 1
            v = value.improvement(trial @ p_idle, warm_key=key)
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

        def counting_solver(problem, gi, prices_init):
            calls.append(tuple(gi))
            return exact_allocation_solver(problem, gi, prices_init)

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

        def counting_solver(problem, gi, prices_init):
            calls.append(tuple(gi))
            return exact_allocation_solver(problem, gi, prices_init)

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
        opts = dict(step=0.01, phi=1e-8, max_iters=data.draw(st.integers(1, 120)))
        channels = tuple(range(10, 10 + n_ch))
        alloc, trace = greedy_alloc(
            prob, channels, p_idle, graph, value=AllocationValue(prob, **opts)
        )
        assigned, expected = one_solve_per_candidate_greedy(
            prob, channels, p_idle, graph, AllocationValue(prob, **opts)
        )
        assert trace == expected
        assert np.array_equal(alloc.assigned, assigned)

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
