"""Slot scheduling: price iteration, heuristics, and channel allocation."""

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
    brute_force_alloc,
    dual_update,
    greedy_alloc,
    heuristic_diversity,
    heuristic_equal,
    init_prices,
    objective_value,
    optbound_upper,
    solve_noninterfering,
    solve_noninterfering_batch,
)
from femtokit.harness.oracles import (
    diminishing_gains_margin,
    exact_allocation_solver,
    exact_schedule,
    support_margin,
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
        got = objective_value(prob, [True, False], [1.0, 0.0], [0.0, 1.0])
        assert got == pytest.approx(3.0, rel=1e-12)

    def test_nonpositive_log_argument_rejected(self):
        prob = one_user_problem(w=1.0, rate0=2.0)
        with pytest.raises(ValueError):
            objective_value(prob, [True], [-1.0], [0.0])


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
            _, _, _, best = exact_schedule(prob)
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

    def test_pattern_cap_overflow_per_row(self, monkeypatch):
        # near-tied branches make the iteration wander over many branch
        # patterns; the cap is lowered so every row overflows it
        rng = make_rng(41, 96)
        k = 9
        prob = SlotProblem(
            w_minus=30.0 * (1 + 1e-3 * rng.normal(size=k)),
            pbar_mbs=0.8 * (1 + 1e-3 * rng.normal(size=k)),
            pbar_fbs=np.full(k, 0.8),
            rate_mbs=60.0 * (1 + 1e-3 * rng.normal(size=k)),
            rate_fbs=np.full(k, 60.0),
            assoc=1 + np.arange(k) % 3,
            n_fbs=3,
            fbs_gi=np.ones(3),
        )
        cap = 3
        monkeypatch.setattr(scheduler, "_PATTERN_CAP", cap)
        gis = [[1.0, 1.0, 1.0], [1.0, 1.0, 1.02], [0.98, 1.0, 1.0]]
        opts = dict(step=0.01, phi=0.0, max_iters=200)
        for gi in gis:
            g_user = np.asarray(gi)[prob.assoc - 1][None, :]
            respond = scheduler._Responder(prob, g_user)
            prices, patterns = np.ones((1, 4)), set()
            for _ in range(opts["max_iters"]):
                connect, rho0, rhof, _ = respond(prices)
                patterns.add(connect.tobytes())
                prices = dual_update(prices, respond.load(rho0, rhof), opts["step"])
            assert len(patterns) > cap
        batch = solve_noninterfering_batch(prob, gis, **opts)
        for gi, got in zip(gis, batch):
            assert_same_solution(got, solve_noninterfering(prob, gi=gi, **opts))

    def test_rejects_malformed_stacks(self):
        prob = random_problem(make_rng(42, 97), n_fbs=2)
        with pytest.raises(ValueError):
            solve_noninterfering_batch(prob, [[1.0, 1.0, 1.0]])
        with pytest.raises(ValueError):
            solve_noninterfering_batch(prob, [[1.0, 1.0]], prices_init=[1.0, -1.0, 1.0])


class TestHeuristics:
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
        assert graph.are_adjacent(1, 2) and graph.are_adjacent(2, 1)
        assert not graph.are_adjacent(1, 3)

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
        with pytest.raises(ValueError):
            brute_force_alloc(prob, (0, 1, 2, 3), [0.5] * 4, graph, max_pairs=12)

    def test_channel_posterior_shape_checked(self):
        rng = make_rng(31, 92)
        prob = self.make_problem(rng, 2, 2)
        graph = InterferenceGraph(2, ())
        with pytest.raises(ValueError):
            greedy_alloc(prob, (0, 1), [0.5], graph)


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
