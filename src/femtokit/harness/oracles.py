"""Independent reference solvers, the random instances they are checked
on, and the cross-check battery that `oracle-check` and the acceptance
suite both run."""

import copy
import dataclasses
import itertools
import math
import os
import traceback

import numpy as np

from ..multicast import (
    LevelAssignment,
    LevelDemand,
    bounds,
    brute_force_multicast,
    heuristic_assign,
    solve_case1,
    solve_case2,
    solve_case3,
    total_power,
    verify_feasible,
)
from ..netmodel import make_rng
from ..scheduler import (
    AllocationValue,
    ChannelAllocation,
    InterferenceGraph,
    SlotProblem,
    greedy_alloc,
    optbound_upper,
    solve_noninterfering,
)
from ..spectrum import (
    AccessPolicy,
    PrimaryChannel,
    SensorProfile,
    decide_access,
    fuse_beliefs,
    sense,
    step_primary,
)
from ..video import StreamState, update_psnr

# exact_schedule enumerates 2^K branch patterns
_EXACT_MAX_USERS = 12
# the grant lattice of diminishing_gains_margin and brute_force_alloc has 2^pairs sets
_MAX_GRANT_PAIRS = 12


def waterfill_pool(pbar, w, rate):
    """Exact max of sum pbar*log(w + rho*rate) s.t. sum rho <= 1, rho >= 0.

    Closed-form waterfilling (Boyd & Vandenberghe, Convex Optimization,
    5.5.3). With off = w/rate, user j takes rho_j = [pbar_j/mu - off_j]^+
    at the shared price mu. Sorted by pbar*rate/w, largest first, the first
    n users clear the slot at mu_n = sum pbar / (1 + sum off), and n is the
    last user still above that price. Users with zero rate or zero weight
    take no time, and so do users whose off overflows or whose
    pbar*rate/w underflows to 0: their share is 0 at any price. Returns
    (shares, value, mu); mu is 0 when no user is active.
    """
    pbar = np.asarray(pbar, dtype=float)
    w = np.asarray(w, dtype=float)
    rate = np.asarray(rate, dtype=float)
    shares = np.zeros_like(w)
    mu = 0.0
    (active,) = np.nonzero((rate > 0) & (pbar > 0))
    with np.errstate(over="ignore"):
        off = w[active] / rate[active]
    ratio = pbar[active] * rate[active] / w[active]
    keep = (off < np.inf) & (ratio > 0)
    active, off, ratio = active[keep], off[keep], ratio[keep]
    if len(active):
        order = np.argsort(-ratio, kind="stable")
        users, off = active[order], off[order]
        pb = pbar[users]
        mus = np.cumsum(pb) / (1.0 + np.cumsum(off))
        n = int(np.flatnonzero(pb > mus * off)[-1]) + 1
        mu = float(mus[n - 1])
        shares[users[:n]] = pb[:n] / mu - off[:n]
    value = float(np.sum(pbar * np.log(w + shares * rate)))
    return shares, value, mu


def exact_schedule(problem: SlotProblem, gi=None):
    """Globally optimal slot schedule by enumerating branch choices.

    For each of the 2^K macro/femto splits, the remaining problem separates
    into independent per-transmitter waterfilling pools, macro first.
    Refused above _EXACT_MAX_USERS users. Returns (connect_mbs, rho_mbs,
    rho_fbs, objective, prices), prices[t] being transmitter t's pool price.
    """
    K = problem.num_users
    if K > _EXACT_MAX_USERS:
        raise ValueError(
            f"exact schedule refused: {K} users exceeds the limit of {_EXACT_MAX_USERS}"
        )
    gi = problem.fbs_gi if gi is None else np.asarray(gi, dtype=float)
    rate_f = problem.rate_fbs * gi[problem.assoc - 1]

    best = None
    for bits in itertools.product((False, True), repeat=K):
        connect = np.array(bits)
        rho0 = np.zeros(K)
        rhof = np.zeros(K)
        prices = np.zeros(problem.n_fbs + 1)
        value = 0.0
        pools = [(connect, problem.pbar_mbs, problem.rate_mbs, rho0)]
        for i in range(1, problem.n_fbs + 1):
            pools.append(((~connect) & (problem.assoc == i), problem.pbar_fbs, rate_f, rhof))
        for t, (pool, pbar, rate, shares) in enumerate(pools):
            if np.any(pool):
                shares[pool], v, prices[t] = waterfill_pool(
                    pbar[pool], problem.w_minus[pool], rate[pool]
                )
                value += v
        if best is None or value > best[3]:
            best = (connect, rho0, rhof, value, prices)
    return best


def exact_allocation_solver(problem: SlotProblem, gi):
    """Adapter making exact_schedule usable as an AllocationValue solver."""
    return exact_schedule(problem, gi=gi)[3]


def _branch_value(pbar, w, rate, price):
    """Best Lagrangian value of one branch: max of pbar*log(w + rho*rate)
    - price*rho over rho in [0, 1]."""
    if rate <= 0:
        return pbar * math.log(w)
    if price <= 0:
        rho = 1.0
    else:
        rho = min(max(pbar / price - w / rate, 0.0), 1.0)
    return pbar * math.log(w + rho * rate) - price * rho


def support_margin(problem: SlotProblem, gi=None):
    """Strong-duality certificate for the enumeration optimum.

    At the optimal pools' prices (the waterfilling level of a busy pool,
    zero for an idle one), returns the smallest amount by which any user
    prefers its assigned branch over defecting. A positive margin certifies
    a zero duality gap and a price vector the gradient iteration can settle
    on; a margin <= 0 marks a kink instance whose optimum no price
    supports, where a constant-step iteration can only oscillate.
    """
    gi = problem.fbs_gi if gi is None else np.asarray(gi, dtype=float)
    rate_f = problem.rate_fbs * gi[problem.assoc - 1]
    connect, _, _, _, prices = exact_schedule(problem, gi=gi)

    margin = math.inf
    for j in range(problem.num_users):
        i = int(problem.assoc[j])
        w = float(problem.w_minus[j])
        v_mbs = _branch_value(float(problem.pbar_mbs[j]), w, float(problem.rate_mbs[j]), prices[0])
        v_fbs = _branch_value(float(problem.pbar_fbs[j]), w, float(rate_f[j]), prices[i])
        gap = v_mbs - v_fbs if connect[j] else v_fbs - v_mbs
        margin = min(margin, gap)
    return float(margin)


def _grant_sets(n_fbs: int, n_channels: int, graph: InterferenceGraph) -> list:
    """Every conflict-free set of (femto, channel) grants, as (mask, assigned).

    Bit p of mask grants pair p of the femto-major pair list, so assigned,
    the (n_fbs, n_channels) 0/1 grant matrix, is the mask's bits reshaped.
    A set is conflict-free when no graph edge shares a channel. Refused
    above _MAX_GRANT_PAIRS pairs.
    """
    n_pairs = n_fbs * n_channels
    if n_pairs > _MAX_GRANT_PAIRS:
        raise ValueError(
            f"grant lattice refused: {n_pairs} pairs exceeds the limit of {_MAX_GRANT_PAIRS}"
        )
    masks = np.arange(2**n_pairs)
    grants = (masks[:, None] >> np.arange(n_pairs) & 1).reshape(len(masks), n_fbs, n_channels)
    free = np.ones(len(masks), dtype=bool)
    for i, j in graph.edges:
        free &= ~np.any(grants[:, i - 1] & grants[:, j - 1], axis=1)
    return [(int(mask), assigned) for mask, assigned in zip(masks[free], grants[free])]


def diminishing_gains_margin(problem, channels, p_idle, graph, value=None):
    """Smallest second difference of the allocation value over the feasible
    grant lattice.

    Enumerates every conflict-free set of (femto, channel) grants and, for
    each feasible set F and grants x, y in F, evaluates
    Q(F-x) + Q(F-y) - Q(F-x-y) - Q(F). A nonnegative margin certifies that
    marginal gains shrink as the allocation grows and that increments are
    subadditive, the regime in which the greedy allocation's 1/(1 + d_max)
    factor and the additive upper bound hold. A negative margin marks an
    instance where an extra channel flips a user onto a different
    transmitter pool, producing increasing returns that void both bounds.
    """
    p_idle = np.asarray(p_idle, dtype=float)
    n = problem.n_fbs
    grant_sets = _grant_sets(n, len(channels), graph)
    if value is None:
        value = AllocationValue(problem, solver=exact_allocation_solver)

    q = {mask: value.improvement(assigned @ p_idle) for mask, assigned in grant_sets}
    margin = math.inf
    for mask, q_full in q.items():
        bits = [p for p in range(mask.bit_length()) if mask >> p & 1]
        for px, py in itertools.combinations(bits, 2):
            keep_y = mask & ~(1 << px)
            keep_x = mask & ~(1 << py)
            neither = keep_x & ~(1 << px)
            margin = min(margin, q[keep_x] + q[keep_y] - q[neither] - q_full)
    return float(margin)


def brute_force_alloc(
    problem: SlotProblem, channels, p_idle, graph: InterferenceGraph, value: AllocationValue
):
    """Exact best allocation by enumerating every conflict-free grant set.

    Refused above _MAX_GRANT_PAIRS (femto, channel) pairs. Returns the best
    allocation and its improvement value; ties keep the first set in mask
    order.
    """
    p_idle = np.asarray(p_idle, dtype=float)
    channels = tuple(channels)
    best = None
    for _, assigned in _grant_sets(problem.n_fbs, len(channels), graph):
        v = value.improvement(assigned @ p_idle)
        if best is None or v > best[0]:
            best = (v, assigned)
    alloc = ChannelAllocation(channels=channels, p_idle=p_idle, assigned=best[1])
    alloc.validate(graph)
    return alloc, best[0]


def folded_total(
    assignment: LevelAssignment, gains: np.ndarray, thresholds, noise: float
) -> float:
    """Total power via the folded closed form, independent of the backward
    recursion: the sum over stations m and their nonempty layers l of
    noise * Gamma_m * (1+Gamma_m)^{c_l^m} * max_k 1/H_m^k."""
    gains = np.asarray(gains, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    c = assignment.exponents(gains.shape[0])
    worst = {}
    for k, (l, m) in enumerate(zip(assignment.demand.user_level, assignment.serving)):
        worst[m, l] = max(worst.get((m, l), 0.0), 1.0 / gains[m, k])
    total = 0.0
    for (m, l), inv_gain in worst.items():
        total += noise * thresholds[m] * (1.0 + thresholds[m]) ** c[m, l - 1] * inv_gain
    return total


def enumerate_multicast(demand: LevelDemand, gains: np.ndarray, thresholds, noise: float):
    """Exact multicast optimum by the plain loop: total_power of every
    per-user connection choice in itertools.product order, keeping the
    first strict minimum. The reference for brute_force_multicast's
    stacked search; it makes 2^K recursions, so callers keep K small."""
    best = None
    options = [demand.options(k) for k in range(demand.num_users)]
    for serving in itertools.product(*options):
        assignment = LevelAssignment(demand=demand, serving=serving)
        allocation = total_power(assignment, gains, thresholds, noise)
        if best is None or allocation.total < best[1].total:
            best = (assignment, allocation)
    return best


def fuse_beliefs_batch(busy_prior: float, observations, profiles) -> float:
    """Posterior idle probability from the joint likelihood in one shot."""
    observations = list(observations)
    profiles = list(profiles)
    if not observations:
        raise ValueError("at least one observation is required")
    if len(observations) != len(profiles):
        raise ValueError("need one sensor profile per observation")
    if not 0.0 <= busy_prior <= 1.0:
        raise ValueError(f"busy_prior must be a probability, got {busy_prior}")

    like_idle = 1.0 - busy_prior
    like_busy = busy_prior
    for theta, prof in zip(observations, profiles):
        if theta == 1:
            like_idle *= prof.false_alarm
            like_busy *= 1.0 - prof.miss
        else:
            like_idle *= 1.0 - prof.false_alarm
            like_busy *= prof.miss
    denom = like_idle + like_busy
    if denom == 0.0:
        raise ValueError("observations are impossible under the given prior and profiles")
    return like_idle / denom


def channel_draws_by_slot(
    channels, profile, policy, num_users, num_slots, rng_primary, rng_sense, rng_access
) -> list:
    """The slot-by-slot reference for runners.channel_draws: each slot
    steps every chain, takes each channel's reports one at a time (its
    sensing users in user order, then the femto), fuses them and draws the
    slot's access coins. Returns per slot (occupancy list, report list per
    channel, posterior array, AccessDecision)."""
    M = len(channels)
    slots = []
    for t in range(num_slots):
        busy = [step_primary(ch, rng_primary) for ch in channels]
        reports, p_idle = [], np.empty(M)
        for m, (ch, state) in enumerate(zip(channels, busy)):
            obs = [sense(state, profile, rng_sense) for j in range(num_users) if (j + t) % M == m]
            obs.append(sense(state, profile, rng_sense))
            reports.append(obs)
            p_idle[m] = fuse_beliefs(ch.busy_prior, obs, [profile] * len(obs))
        slots.append((busy, reports, p_idle, decide_access(p_idle, policy, rng_access)))
    return slots


def window_psnr_by_bits(alpha, beta, window_bits, max_rate_bps, window_slots: int):
    """Window-end quality from total delivered bits: alpha + beta*min(R, cap)
    with R = bits/(T*slot). Independent route for the telescoped updates."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    rate = np.asarray(window_bits, dtype=float) / float(window_slots)
    if max_rate_bps is not None:
        rate = np.minimum(rate, np.asarray(max_rate_bps, dtype=float))
    return alpha + beta * rate


def markov_busy_fraction(p01: float, p10: float) -> float:
    """Stationary busy probability of the two-state occupancy chain."""
    denom = p01 + p10
    if denom == 0:
        raise ValueError("absorbing chain has no unique stationary law")
    return p01 / denom


def random_multicast(rng, n_users, n_fbs, levels, full_overlap=False):
    """Random demand, gains and SNR thresholds for one multicast instance.

    Each user wants a uniform layer and is covered by the macro plus a
    uniform choice among no femto and the n_fbs femtos (femto 1 for every
    user with full_overlap). Gains are unit exponential plus 1e-3,
    thresholds uniform in [0.2, 4].
    """
    user_level = tuple(int(v) for v in 1 + rng.integers(0, levels, n_users))
    if n_fbs == 0:
        coverage = (0,) * n_users
    elif full_overlap:
        coverage = (1,) * n_users
    else:
        coverage = tuple(int(v) for v in rng.integers(0, n_fbs + 1, n_users))
    demand = LevelDemand(num_levels=levels, user_level=user_level, coverage=coverage)
    gains = rng.exponential(1.0, (n_fbs + 1, n_users)) + 1e-3
    thresholds = rng.uniform(0.2, 4.0, n_fbs + 1)
    return demand, gains, thresholds


def random_slot_problem(rng, n_users, n_fbs=1):
    """Well-conditioned slot: rates comparable to the current quality keep
    the binding prices large enough for the constant-step iteration."""
    return SlotProblem(
        w_minus=rng.uniform(25.0, 45.0, n_users),
        pbar_mbs=rng.uniform(0.3, 1.0, n_users),
        pbar_fbs=rng.uniform(0.3, 1.0, n_users),
        rate_mbs=rng.uniform(30.0, 120.0, n_users),
        rate_fbs=rng.uniform(30.0, 120.0, n_users),
        assoc=1 + rng.integers(0, n_fbs, n_users),
        n_fbs=n_fbs,
        fbs_gi=rng.uniform(0.5, 3.0, n_fbs),
    )


# Cross-checks between independent implementations. Each check_*(rng,
# count) runs `count` random instances drawn from rng and returns its detail
# line, or raises AssertionError on the first disagreement.


def check_recursion_vs_folded(rng, count):
    """The backward power recursion equals the folded closed-form sum."""
    worst = 0.0
    for _ in range(count):
        demand, gains, thresholds = random_multicast(
            rng, int(rng.integers(1, 7)), int(rng.integers(0, 3)), int(rng.integers(1, 5))
        )
        assignment = heuristic_assign(demand, gains)
        a = total_power(assignment, gains, thresholds, 1.0)
        f = folded_total(assignment, gains, thresholds, 1.0)
        rel = abs(a.total - f) / max(a.total, 1e-300)
        worst = max(worst, rel)
        if not rel <= 1e-9:
            raise AssertionError(f"recursion {a.total} vs folded {f} (rel {rel})")
    return f"{count} instances, worst relative difference {worst:.3g}"


def check_single_station_closed_form(rng, count):
    """The one-station solver's backward recursion and the folded closed
    form give the same totals; the two-layer worst-unit-gain case costs 15
    with every post-cancellation SNR exactly at threshold 3."""
    worst = 0.0
    for _ in range(count):
        n_users, levels = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        demand, gains, thresholds = random_multicast(rng, n_users, 0, levels)
        assignment, alloc = solve_case1(demand, gains, thresholds, noise=1.0)
        recursed = alloc.total
        folded = folded_total(assignment, gains, thresholds, noise=1.0)
        worst = max(worst, abs(folded - recursed) / max(1.0, abs(recursed)))
        if not worst <= 1e-9:
            raise AssertionError(f"recursion {recursed} vs folded closed form {folded}")

    demand = LevelDemand(2, (1, 2), (0, 0))
    assignment, alloc = solve_case1(demand, np.ones((1, 2)), [3.0], noise=1.0)
    report = verify_feasible(alloc, assignment, np.ones((1, 2)), [3.0])
    slack = float(np.max(np.abs(report.snr_slack)))
    if not abs(alloc.total - 15.0) <= 1e-9:
        raise AssertionError(f"hand case total {alloc.total}, expected 15")
    if not slack <= 1e-9:
        raise AssertionError(f"hand case SNR off threshold by {slack}")
    return (
        f"{count} instances, worst relative spread {worst:.2e} (tol 1e-9); "
        f"hand case total {alloc.total:.12g}, max SNR slack {slack:.2e}"
    )


def check_solvers_and_bounds(rng, count):
    """The closed-form bounds bracket the exhaustive optimum in order, and
    every whole-layer solver that applies is feasible and never below it."""
    gaps = []
    for _ in range(count):
        n_users, n_fbs, levels = (
            int(rng.integers(1, 9)), int(rng.integers(0, 3)), int(rng.integers(1, 5))
        )
        # full overlap exercises the two-station solver
        demand, gains, thresholds = random_multicast(
            rng, n_users, n_fbs, levels, full_overlap=n_fbs == 1
        )
        _, best = enumerate_multicast(demand, gains, thresholds, noise=1.0)
        b = bounds(demand, gains, thresholds, noise=1.0)
        if not b.lower_loose <= b.lower_tight * (1 + 1e-12):
            raise AssertionError("loose lower above tight lower")
        if not b.lower_tight <= best.total * (1 + 1e-9):
            raise AssertionError(f"lower bound {b.lower_tight} above optimum {best.total}")
        if not best.total <= b.upper_tight * (1 + 1e-9):
            raise AssertionError(f"optimum {best.total} above tight upper bound {b.upper_tight}")
        if not b.upper_tight <= b.upper_loose * (1 + 1e-12):
            raise AssertionError("tight upper above loose upper")

        if n_fbs == 0:
            solvers = (solve_case1,)
        elif n_fbs == 1:
            solvers = (solve_case2, solve_case3)
        else:
            solvers = (solve_case3,)
        for solve in solvers:
            assignment, alloc = solve(demand, gains, thresholds, noise=1.0)
            if not verify_feasible(alloc, assignment, gains, thresholds).feasible:
                raise AssertionError("solver allocation violates an SNR constraint")
            if not alloc.total >= best.total * (1 - 1e-9):
                raise AssertionError("solver beat the exhaustive optimum")
            gaps.append(alloc.total / best.total - 1.0)
    return f"{count} instances, mean optimality gap {np.mean(gaps):.2%}, max {np.max(gaps):.2%}"


def check_exhaustive_stack_vs_loop(rng, count):
    """The stacked exhaustive search returns the plain loop's assignment and
    a bit-identical total. Every other draw appends a copy of user 0, so
    an optimum that serves the two from different stations is exactly tied
    with its swap, and the first-minimum rule decides between them."""
    for i in range(count):
        n_users, n_fbs, levels = (
            int(rng.integers(1, 11)), int(rng.integers(0, 4)), int(rng.integers(1, 5))
        )
        demand, gains, thresholds = random_multicast(rng, n_users, n_fbs, levels)
        if i % 2:
            demand = LevelDemand(
                levels,
                demand.user_level + demand.user_level[:1],
                demand.coverage + demand.coverage[:1],
            )
            gains = np.column_stack([gains, gains[:, 0]])
        got_assignment, got = brute_force_multicast(demand, gains, thresholds, noise=1.0)
        want_assignment, want = enumerate_multicast(demand, gains, thresholds, noise=1.0)
        if got_assignment.serving != want_assignment.serving:
            raise AssertionError(
                f"stacked search chose {got_assignment.serving}, loop {want_assignment.serving}"
            )
        if got.total.hex() != want.total.hex():
            raise AssertionError(f"stacked total {got.total!r} vs loop {want.total!r}")
    return f"{count} draws, half with a duplicated user; assignments and totals identical"


def check_fusion_routes(rng, count):
    """Sequential odds fusion equals the batch posterior on every six-report
    sequence and on count random report sets, and one idle report at an
    even prior lands on 0.7 exactly. With count 0, rng is never drawn."""
    cases = [
        (0.4 / (0.4 + 0.3), obs, [SensorProfile(0.3, 0.3)] * 6)
        for obs in itertools.product((0, 1), repeat=6)
    ]
    for _ in range(count):
        n = int(rng.integers(1, 7))
        prior = float(rng.uniform(0.01, 0.99))
        profiles = [
            SensorProfile(float(rng.uniform(0.01, 0.49)), float(rng.uniform(0.01, 0.49)))
            for _ in range(n)
        ]
        cases.append((prior, [int(v) for v in rng.integers(0, 2, n)], profiles))
    worst = 0.0
    for prior, obs, profiles in cases:
        seq = fuse_beliefs(prior, obs, profiles)
        batch = fuse_beliefs_batch(prior, obs, profiles)
        worst = max(worst, abs(seq - batch))
        if not abs(seq - batch) <= 1e-12:
            raise AssertionError(f"sequential {seq} vs batch {batch}")
    hand = fuse_beliefs(0.5, [0], [SensorProfile(0.3, 0.3)])
    if not abs(hand - 0.7) <= 1e-12:
        raise AssertionError(f"single idle report posterior {hand}, expected 0.7")
    return (
        f"{len(cases)} sequences, worst |sequential - batch| {worst:.2e} (tol 1e-12); "
        f"single idle report posterior {hand:.12g}"
    )


def check_markov_fraction(rng, count):
    """A simulated occupancy chain is busy for its stationary fraction."""
    p01, p10 = 0.4, 0.3
    ch = PrimaryChannel(p01, p10)
    ch.reset_stationary(rng)
    busy = 0
    for _ in range(count):
        busy += step_primary(ch, rng)
    frac = busy / count
    expect = markov_busy_fraction(p01, p10)
    if not abs(frac - expect) <= 0.005:
        raise AssertionError(f"simulated busy fraction {frac} vs stationary {expect}")
    return f"empirical {frac:.4f} vs stationary {expect:.4f} over {count} slots"


def check_dual_vs_exact(rng, count):
    """The price iteration matches the enumerated optimum of a slot."""
    worst = 0.0
    for _ in range(count):
        problem = random_slot_problem(rng, int(rng.integers(1, 7)), int(rng.integers(1, 3)))
        sol = solve_noninterfering(problem, step=0.005, phi=1e-14, max_iters=20_000)
        _, _, _, best, _ = exact_schedule(problem)
        rel = abs(sol.objective - best) / max(abs(best), 1e-12)
        worst = max(worst, rel)
        if not rel <= 1e-4:
            raise AssertionError(f"dual {sol.objective} vs exact {best} (rel {rel})")
    return f"{count} instances, worst relative objective error {worst:.3g}"


def check_greedy_vs_exhaustive(rng, count):
    """Greedy channel allocation keeps its 1/(1 + d_max) guarantee and the
    additive upper bound against the exhaustive allocation."""
    worst_ratio = math.inf
    skipped = 0
    for _ in range(count):
        n_fbs = int(rng.integers(2, 4))
        n_ch = int(rng.integers(1, 3))
        problem = random_slot_problem(rng, int(rng.integers(2, 6)), n_fbs)
        all_edges = [(i, j) for i in range(1, n_fbs + 1) for j in range(i + 1, n_fbs + 1)]
        take = rng.random(len(all_edges)) < 0.5
        graph = InterferenceGraph(n_fbs, tuple(e for e, t in zip(all_edges, take) if t))
        p_idle = rng.uniform(0.2, 1.0, n_ch)
        value = AllocationValue(problem)
        # the factor and upper bound only hold while marginal gains shrink;
        # draws where an extra channel flips a user across pools are skipped
        if diminishing_gains_margin(problem, tuple(range(n_ch)), p_idle, graph, value) < -1e-6:
            skipped += 1
            continue
        _, trace = greedy_alloc(problem, tuple(range(n_ch)), p_idle, graph, value=value)
        _, opt = brute_force_alloc(problem, tuple(range(n_ch)), p_idle, graph, value=value)
        tol = 1e-6 * max(1.0, abs(opt))
        bound = opt / (1.0 + graph.d_max)
        if not trace.value >= bound - tol:
            raise AssertionError(f"greedy {trace.value} below guarantee {bound}")
        if not opt <= optbound_upper(trace) + tol:
            raise AssertionError(f"optimum {opt} above greedy upper bound {optbound_upper(trace)}")
        if opt > 0:
            worst_ratio = min(worst_ratio, trace.value / opt)
    return (
        f"{count} draws ({skipped} outside the diminishing-gains regime), "
        f"worst greedy/optimal ratio {worst_ratio:.3f}"
    )


def check_allocation_value_vs_exact(rng, count):
    """AllocationValue's slot optimum under each channel vector, its
    baseline plus its improvement, equals the plain enumeration's
    (exact_schedule) on random slots of 1 to 8 users and 1 to 3 femtos,
    six channel vectors each, with some channel counts zero. Unlike
    random_slot_problem's, the slots' rates reach down to 1e-3, about one
    in ten exactly 0, so pools often leave a member unserved."""
    worst = 0.0
    rows = 0
    for _ in range(count):
        n_fbs = int(rng.integers(1, 4))
        n_users = int(rng.integers(1, 9))
        rates = rng.uniform(1e-3, 120.0, (2, n_users)) * (rng.random((2, n_users)) >= 0.1)
        problem = dataclasses.replace(
            random_slot_problem(rng, n_users, n_fbs), rate_mbs=rates[0], rate_fbs=rates[1]
        )
        gis = rng.uniform(0.0, 3.0, (6, n_fbs)) * (rng.random((6, n_fbs)) < 0.7)
        value = AllocationValue(problem)
        for gi, improvement in zip(gis, value.improvements(gis)):
            got = value.baseline + improvement
            want = exact_schedule(problem, gi)[3]
            rel = abs(got - want) / max(abs(want), 1.0)
            worst = max(worst, rel)
            rows += 1
            if not rel <= 1e-12:
                raise AssertionError(f"allocation value {got!r} vs exact {want!r} (rel {rel:.3g})")
    return (
        f"{count} draws, {rows} channel vectors, "
        f"worst relative difference {worst:.3g} (tol 1e-12)"
    )


def _channel_case(rng, case):
    """Random chains, sensor, policy and sizes for one channel-draw
    instance. case (0..5) forces one corner: a prior of 0 (p01 = 0), a
    prior of 1 (p10 = 0), a sensor without false alarms (an infinite
    likelihood ratio), the same with priors of 0 that the chains leave (a
    busy report is then impossible), one channel, or more users than
    channels."""
    n_channels = 1 if case == 4 else int(rng.integers(1, 6))
    n_users = int(rng.integers(n_channels + 1, 10)) if case == 5 else int(rng.integers(1, 10))
    p01 = 0.0 if case == 0 else float(rng.uniform(0.05, 0.95))
    p10 = 0.0 if case == 1 else float(rng.uniform(0.05, 0.95))
    false_alarm = 0.0 if case in (2, 3) else float(rng.uniform(0.0, 0.49))
    profile = SensorProfile(false_alarm, float(rng.uniform(0.0, 0.49)))
    prior = 0.0 if case == 3 else None
    chains = [PrimaryChannel(p01, p10, busy_prior=prior) for _ in range(n_channels)]
    for ch in chains:
        ch.reset_stationary(rng)
    return chains, profile, AccessPolicy(float(rng.uniform(0.0, 1.0))), n_users


def check_channel_draws_vs_slot_loop(rng, count):
    """The instance-wide channel draws of the stream runner equal the
    slot-by-slot loop bit for bit: occupancy, reports, posteriors (.hex()),
    access masks and expected counts (.hex()). Where a report is
    impossible under its prior, both routes raise ValueError."""
    # runners imports this module, so it is imported here, when the check runs
    from .runners import channel_draws

    raised = pinned = 0
    for i in range(count):
        case = i % 6
        chains, profile, policy, n_users = _channel_case(rng, case)
        n_slots = int(rng.integers(1, 13))
        seed = int(rng.integers(2**32))
        outcomes = []
        for route in (channel_draws, channel_draws_by_slot):
            copies = [copy.copy(ch) for ch in chains]
            rngs = [make_rng(seed, purpose) for purpose in (1, 2, 3)]
            try:
                outcomes.append(route(copies, profile, policy, n_users, n_slots, *rngs))
            except ValueError as exc:
                outcomes.append(str(exc))
        got, want = outcomes
        if isinstance(got, str) or isinstance(want, str):
            if got != want:
                raise AssertionError(f"draw {i}: instance route {got!r} vs slot loop {want!r}")
            raised += 1
            continue
        for t, (busy, reports, p_idle, decision) in enumerate(want):
            cleared = np.zeros(len(chains), dtype=bool)
            cleared[list(decision.available)] = True
            # the slot's expected count: its cleared posteriors summed left
            # to right in channel order
            expected = 0.0
            for m in decision.available:
                expected += float(p_idle[m])
            pairs = (
                ("occupancy", got.busy[t].tolist(), busy),
                ("reports", [r[v].tolist() for r, v in zip(got.reports[t], got.valid[t])], reports),
                ("posteriors", [p.hex() for p in got.p_idle[t].tolist()],
                 [p.hex() for p in p_idle.tolist()]),
                ("access mask", got.cleared[t].tolist(), cleared.tolist()),
                ("expected count", float(got.expected[t]).hex(), expected.hex()),
            )
            for name, a, b in pairs:
                if a != b:
                    raise AssertionError(f"draw {i} slot {t}: {name} {a} vs slot loop {b}")
        if case == 2:
            pinned += int(np.sum(got.p_idle == 0.0))
    if not (raised and pinned):
        raise AssertionError(
            f"the draws missed a corner: {raised} impossible reports, "
            f"{pinned} posteriors pinned by an infinite likelihood ratio"
        )
    return (
        f"{count} draws; {raised} raised ValueError alike on both routes, and "
        f"{pinned} posteriors were pinned at 0 by a sensor without false alarms; "
        f"every field identical"
    )


def check_psnr_telescoping(rng, count):
    """Per-slot quality updates telescope to the window's delivered bits."""
    T = 10
    for trial in range(count):
        K = int(rng.integers(1, 5))
        alpha = rng.uniform(25.0, 35.0, K)
        beta = rng.uniform(1e-5, 1e-4, K)
        b0, b1 = 8e5, 3e5
        cap_rate = rng.uniform(2e5, 6e5, K) if trial % 2 else None
        cap = alpha + beta * cap_rate if cap_rate is not None else np.full(K, np.inf)
        state = StreamState(alpha, beta * b0 / T, beta * b1 / T, cap)
        bits = np.zeros(K)
        for _t in range(T):
            connect = rng.random(K) < 0.5
            rho0 = rng.uniform(0, 1, K)
            rhof = rng.uniform(0, 1, K)
            xi = (rng.random(K) < 0.8).astype(float)
            g = rng.uniform(0, 3, K)
            update_psnr(state, connect, rho0, rhof, xi, xi, g)
            bits += np.where(connect, xi * rho0 * b0, xi * rhof * g * b1)
        expect = window_psnr_by_bits(alpha, beta, bits, cap_rate, T)
        err = np.abs(state.psnr - expect).max()
        if not err <= 1e-9:
            raise AssertionError(f"telescoped {state.psnr} vs bit accounting {expect}")
    return f"{count} windows matched to 1e-9"


def run_check(check, rng, count):
    """(ok, detail) of one check; a check that crashes fails with the
    exception named instead of escaping."""
    try:
        return True, check(rng, count)
    except AssertionError as exc:
        return False, str(exc)
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        return False, f"raised {type(exc).__name__}: {exc} (at {where})"


# the battery: (name, check, rng path, count) per check, each on its own
# fixed random stream
BATTERY = (
    ("multicast-recursion-vs-folded", check_recursion_vs_folded, 0, 300),
    ("multicast-closed-form-single-station", check_single_station_closed_form, 1, 300),
    ("multicast-solvers-and-bounds-vs-exhaustive", check_solvers_and_bounds, 2, 120),
    ("multicast-exhaustive-stack-vs-loop", check_exhaustive_stack_vs_loop, 3, 100),
    ("fusion-sequential-vs-batch", check_fusion_routes, 4, 500),
    ("markov-stationary-fraction", check_markov_fraction, 5, 200_000),
    ("schedule-dual-vs-exact", check_dual_vs_exact, 6, 30),
    ("greedy-allocation-vs-exhaustive", check_greedy_vs_exhaustive, 7, 12),
    ("allocation-value-vs-exact", check_allocation_value_vs_exact, 10, 30),
    ("psnr-telescoping-vs-bit-accounting", check_psnr_telescoping, 8, 20),
    ("channel-draws-instance-vs-slot-loop", check_channel_draws_vs_slot_loop, 9, 300),
)


def oracle_check() -> list:
    """Every check of BATTERY, as (name, ok, detail) triples; all-ok means
    the fast paths agree with their reference counterparts."""
    return [(name, *run_check(check, make_rng(2024, path), count))
            for name, check, path, count in BATTERY]
