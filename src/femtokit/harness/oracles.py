"""Independent reference solvers used to cross-check the fast algorithms."""

import itertools
import math

import numpy as np

from ..scheduler import SlotProblem


def waterfill_pool(pbar, w, rate, iters: int = 200):
    """Exact max of sum pbar*log(w + rho*rate) s.t. sum rho <= 1, rho >= 0.

    Solved by bisection on the shared price mu: rho_j(mu) =
    [pbar_j/mu - w_j/rate_j]^+ is decreasing in mu, so the budget-binding
    price is unique. Users with zero rate or zero weight take no time.
    Returns (shares, value).
    """
    pbar = np.asarray(pbar, dtype=float)
    w = np.asarray(w, dtype=float)
    rate = np.asarray(rate, dtype=float)
    shares = np.zeros_like(w)
    active = (rate > 0) & (pbar > 0)
    if not np.any(active):
        return shares, float(np.sum(pbar * np.log(w)))

    pb, wa, ra = pbar[active], w[active], rate[active]

    def rho_of(mu):
        return np.maximum(pb / mu - wa / ra, 0.0)

    hi = float(pb.sum()) + 1.0
    lo = hi
    while rho_of(lo).sum() < 1.0:
        lo /= 2.0
        if lo < 1e-300:
            break
    if rho_of(lo).sum() >= 1.0:
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if rho_of(mid).sum() >= 1.0:
                lo = mid
            else:
                hi = mid
        rho = rho_of(0.5 * (lo + hi))
        total = rho.sum()
        if total > 0:
            rho = rho / total
    else:
        # budget never binds: every active user takes its unconstrained share
        rho = rho_of(lo)
    shares[active] = rho
    value = float(np.sum(pbar * np.log(w + shares * rate)))
    return shares, value


def exact_schedule(problem: SlotProblem, gi=None, max_users: int = 12):
    """Globally optimal slot schedule by enumerating branch choices.

    For each of the 2^K macro/femto splits, the remaining problem separates
    into independent per-transmitter waterfilling pools. Refused above
    max_users. Returns (connect_mbs, rho_mbs, rho_fbs, objective).
    """
    K = problem.num_users
    if K > max_users:
        raise ValueError(f"exact schedule refused: {K} users exceeds the limit of {max_users}")
    gi = problem.fbs_gi if gi is None else np.asarray(gi, dtype=float)
    rate_f = problem.rate_fbs * gi[problem.assoc - 1]

    best = None
    for bits in itertools.product((False, True), repeat=K):
        connect = np.array(bits)
        rho0 = np.zeros(K)
        rhof = np.zeros(K)
        value = 0.0
        pool = connect
        if np.any(pool):
            s, v = waterfill_pool(problem.pbar_mbs[pool], problem.w_minus[pool], problem.rate_mbs[pool])
            rho0[pool] = s
            value += v
        for i in range(1, problem.n_fbs + 1):
            pool = (~connect) & (problem.assoc == i)
            if np.any(pool):
                s, v = waterfill_pool(problem.pbar_fbs[pool], problem.w_minus[pool], rate_f[pool])
                rhof[pool] = s
                value += v
        if best is None or value > best[3]:
            best = (connect, rho0, rhof, value)
    return best


def exact_allocation_solver(problem: SlotProblem, gi, prices_init):
    """Adapter making exact_schedule usable as an AllocationValue solver."""
    _, _, _, objective = exact_schedule(problem, gi=gi)
    return objective, None


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

    Reconstructs the per-transmitter prices implied by the optimal pools
    (the waterfilling level of a busy pool, zero for an idle one) and
    returns the smallest amount by which any user prefers its assigned
    branch over defecting at those prices. A positive margin certifies a
    zero duality gap and a price vector the gradient iteration can settle
    on; a margin <= 0 marks a kink instance whose optimum no price
    supports, where a constant-step iteration can only oscillate.
    """
    gi = problem.fbs_gi if gi is None else np.asarray(gi, dtype=float)
    rate_f = problem.rate_fbs * gi[problem.assoc - 1]
    connect, rho0, rhof, _ = exact_schedule(problem, gi=gi)

    prices = np.zeros(problem.n_fbs + 1)
    pools = [(connect, problem.pbar_mbs, problem.rate_mbs, rho0)]
    for i in range(1, problem.n_fbs + 1):
        pools.append(((~connect) & (problem.assoc == i), problem.pbar_fbs, rate_f, rhof))
    for t, (pool, pbar, rate, rho) in enumerate(pools):
        busy = pool & (rho > 0)
        if np.any(busy):
            prices[t] = float(
                np.max(pbar[busy] * rate[busy] / (problem.w_minus[busy] + rho[busy] * rate[busy]))
            )

    margin = math.inf
    for j in range(problem.num_users):
        i = int(problem.assoc[j])
        w = float(problem.w_minus[j])
        v_mbs = _branch_value(float(problem.pbar_mbs[j]), w, float(problem.rate_mbs[j]), prices[0])
        v_fbs = _branch_value(float(problem.pbar_fbs[j]), w, float(rate_f[j]), prices[i])
        gap = v_mbs - v_fbs if connect[j] else v_fbs - v_mbs
        margin = min(margin, gap)
    return float(margin)


def diminishing_gains_margin(problem, channels, p_idle, graph, value=None, max_pairs: int = 12):
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
    from ..scheduler import AllocationValue

    p_idle = np.asarray(p_idle, dtype=float)
    n = problem.n_fbs
    pairs = [(i, m) for i in range(1, n + 1) for m in range(len(channels))]
    if len(pairs) > max_pairs:
        raise ValueError(
            f"lattice check refused: {len(pairs)} pairs exceeds the limit of {max_pairs}"
        )
    if value is None:
        value = AllocationValue(problem, solver=exact_allocation_solver)

    def feasible(mask):
        for m in range(len(channels)):
            members = [i for p, (i, mm) in enumerate(pairs) if mm == m and mask >> p & 1]
            if any(graph.are_adjacent(a, b) for a, b in itertools.combinations(members, 2)):
                return False
        return True

    q = {}
    zero_key = tuple(np.zeros(n))
    for mask in range(2 ** len(pairs)):
        if not feasible(mask):
            continue
        assigned = np.zeros((n, len(channels)))
        for p, (i, m) in enumerate(pairs):
            if mask >> p & 1:
                assigned[i - 1, m] = 1.0
        q[mask] = value.improvement(assigned @ p_idle, warm_key=zero_key)

    margin = math.inf
    for mask, q_full in q.items():
        bits = [p for p in range(len(pairs)) if mask >> p & 1]
        for px, py in itertools.combinations(bits, 2):
            keep_y = mask & ~(1 << px)
            keep_x = mask & ~(1 << py)
            neither = keep_x & ~(1 << px)
            margin = min(margin, q[keep_x] + q[keep_y] - q[neither] - q_full)
    return float(margin)


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

