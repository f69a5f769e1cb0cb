"""Per-slot video scheduling by dual decomposition, plus channel allocation.

Each slot maximizes a sum of expected log-quality terms over per-user time
shares on the macro station's common channel and on each femto station's
pool of licensed channels, subject to unit time budgets per transmitter and
a single-transceiver constraint per user. Relaxing the time budgets with
prices decouples the problem per user, whose best response is closed-form;
prices follow a projected gradient iteration. At the optimum every user's
branch choice is binary, so the relaxation loses nothing.

When femto stations interfere, licensed channels are handed out by a greedy
marginal-value rule on (femto, channel) pairs; the value of an allocation is
the scheduling objective it enables, measured against the no-channel
baseline so the greedy trace telescopes exactly.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class SlotProblem:
    """One slot's scheduling inputs.

    Per user: current quality w_minus, delivery success probabilities to the
    macro (pbar_mbs) and its own femto (pbar_fbs), quality rates per unit
    time share (rate_mbs; rate_fbs additionally scales with the femto's
    expected available channels), and the owning femto assoc in 1..n_fbs.
    fbs_gi holds the expected available channel count per femto.
    """

    w_minus: np.ndarray
    pbar_mbs: np.ndarray
    pbar_fbs: np.ndarray
    rate_mbs: np.ndarray
    rate_fbs: np.ndarray
    assoc: np.ndarray
    n_fbs: int
    fbs_gi: np.ndarray

    def __post_init__(self):
        self.w_minus = np.asarray(self.w_minus, dtype=float)
        self.pbar_mbs = np.asarray(self.pbar_mbs, dtype=float)
        self.pbar_fbs = np.asarray(self.pbar_fbs, dtype=float)
        self.rate_mbs = np.asarray(self.rate_mbs, dtype=float)
        self.rate_fbs = np.asarray(self.rate_fbs, dtype=float)
        self.assoc = np.asarray(self.assoc, dtype=int)
        self.fbs_gi = np.asarray(self.fbs_gi, dtype=float)
        k = self.w_minus.shape[0]
        if k < 1:
            raise ValueError("need at least one user")
        for name in ("pbar_mbs", "pbar_fbs", "rate_mbs", "rate_fbs", "assoc"):
            if getattr(self, name).shape != (k,):
                raise ValueError(f"{name} must have one entry per user")
        if self.n_fbs < 1:
            raise ValueError("need at least one femto station")
        if self.fbs_gi.shape != (self.n_fbs,):
            raise ValueError("fbs_gi must have one entry per femto station")
        if np.any(self.w_minus <= 0):
            raise ValueError("current quality must be positive")
        for name in ("pbar_mbs", "pbar_fbs"):
            p = getattr(self, name)
            if np.any((p < 0) | (p > 1)):
                raise ValueError(f"{name} must be probabilities")
        if np.any(self.rate_mbs < 0) or np.any(self.rate_fbs < 0):
            raise ValueError("rates cannot be negative")
        if np.any((self.assoc < 1) | (self.assoc > self.n_fbs)):
            raise ValueError("assoc entries must be femto ids in 1..n_fbs")
        if np.any(self.fbs_gi < 0):
            raise ValueError("expected channel counts cannot be negative")

    @property
    def num_users(self) -> int:
        return self.w_minus.shape[0]


@dataclass
class ScheduleSolution:
    """Primal schedule plus solver diagnostics.

    connect_mbs is the binary branch choice per user; the losing branch's
    time share is zero. For heuristic schedules the dual fields are NaN.
    """

    connect_mbs: np.ndarray
    rho_mbs: np.ndarray
    rho_fbs: np.ndarray
    objective: float
    dual_value: float
    duality_gap: float
    iterations: int
    converged: bool
    prices: np.ndarray
    trace: "list | None" = None


def dual_update(prices, load, step: float):
    """Projected gradient step on the prices: [lam - step*(1 - load)]^+."""
    if step <= 0:
        raise ValueError("step size must be positive")
    return np.maximum(np.asarray(prices, dtype=float) - step * (1.0 - np.asarray(load, dtype=float)), 0.0)


def _objective(problem: SlotProblem, g_user, connect_mbs, rho_mbs, rho_fbs):
    """Expected log-quality sum along the last (user) axis of stacked schedules."""
    arg = np.where(
        connect_mbs,
        problem.w_minus + rho_mbs * problem.rate_mbs,
        problem.w_minus + rho_fbs * g_user * problem.rate_fbs,
    )
    if np.any(arg <= 0):
        raise ValueError("log argument must stay positive")
    weight = np.where(connect_mbs, problem.pbar_mbs, problem.pbar_fbs)
    return np.sum(weight * np.log(arg), axis=-1)


def objective_value(problem: SlotProblem, connect_mbs, rho_mbs, rho_fbs, gi=None) -> float:
    """Expected log-quality sum of a feasible schedule."""
    gi = problem.fbs_gi if gi is None else np.asarray(gi, dtype=float)
    return float(
        _objective(
            problem,
            gi[problem.assoc - 1],
            np.asarray(connect_mbs, dtype=bool),
            np.asarray(rho_mbs, dtype=float),
            np.asarray(rho_fbs, dtype=float),
        )
    )


class _Responder:
    """Every user's best response to a stack of price rows, for fixed
    per-user expected channel counts g_user with one row per price row.

    Each user weighs its macro branch against its femto branch. A branch's
    share is the argmax of pbar*log(w + rho*rate) - price*rho over rho in
    [0, 1]: the interior stationary point pbar/price - w/rate clipped to the
    box, the whole slot at a zero price, nothing at a zero rate. The
    whole-slot bound stays inside the per-user subproblem: it is a valid
    constraint on its own, it keeps the relaxation tight, and it bounds how
    much the load can jump when a user switches branches. Both branches sit
    side by side on the last axis (macro first), so the price-independent
    terms are computed once per stack.
    """

    def __init__(self, problem: SlotProblem, g_user):
        rows, k = g_user.shape
        n1 = problem.n_fbs + 1
        self.k = k
        self.price_index = np.concatenate([np.zeros(k, dtype=int), problem.assoc])
        self.pbar = np.concatenate([problem.pbar_mbs, problem.pbar_fbs])
        self.w = np.concatenate([problem.w_minus, problem.w_minus])
        self.rate = np.concatenate(
            np.broadcast_arrays(problem.rate_mbs, problem.rate_fbs * g_user), axis=-1
        )
        with np.errstate(divide="ignore", over="ignore"):
            self.offset = self.w / self.rate
        self.paid = self.rate > 0
        # each row's femto loads fill their own n1 bincount slots, row-major
        self.bins = (problem.assoc + n1 * np.arange(rows)[:, None]).ravel()
        self.n_bins = rows * n1

    def __call__(self, prices):
        """Branch, shares with the losing one zeroed, and Lagrangian values,
        each of shape (B, K), for prices of shape (B, n_fbs + 1). Ties go to
        the macro station."""
        # take, unlike [:, index], returns C order: row sums then run along
        # the contiguous user axis with the same rounding as a lone row
        price = prices.take(self.price_index, axis=1)
        priced = price > 0
        interior = np.minimum(
            np.maximum(self.pbar / np.where(priced, price, 1.0) - self.offset, 0.0), 1.0
        )
        rho = np.where(self.paid, np.where(priced, interior, 1.0), 0.0)
        value = self.pbar * np.log(self.w + rho * self.rate) - price * rho
        k = self.k
        connect = value[:, :k] >= value[:, k:]
        return (
            connect,
            np.where(connect, rho[:, :k], 0.0),
            np.where(connect, 0.0, rho[:, k:]),
            np.where(connect, value[:, :k], value[:, k:]),
        )

    def load(self, rho_mbs, rho_fbs):
        """Time load per transmitter, shape (B, n_fbs + 1), of stacked shares."""
        load = np.bincount(self.bins, weights=rho_fbs.ravel(), minlength=self.n_bins)
        load = load.reshape(len(rho_fbs), -1)
        load[:, 0] = rho_mbs.sum(axis=1)
        return load


def _repaired(rho_mbs, rho_fbs, load, assoc, tol: float = 1e-6):
    """Scale any transmitter's shares down when their sum exceeds the slot."""
    scale = np.divide(1.0, load, out=np.ones_like(load), where=load > 1.0 + tol)
    return rho_mbs * scale[:, :1], rho_fbs * np.take(scale, assoc, axis=1)


def _pool_shares(pbar, w, rate, iters: int = 60):
    """Optimal shares for users bound to one transmitter: bisect the pool
    price until the box-clipped stationary shares fill the slot."""
    shares = np.zeros_like(w)
    pos = rate > 0
    if not np.any(pos):
        return shares
    pb, wa, ra = pbar[pos], w[pos], rate[pos]
    offset = wa / ra
    hi = float(np.max(pb * ra / wa)) * 2.0 + 1.0
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        total = np.minimum(np.maximum(pb / mid - offset, 0.0), 1.0).sum()
        if total >= 1.0:
            lo = mid
        else:
            hi = mid
    filled = np.minimum(np.maximum(pb / hi - offset, 0.0), 1.0)
    total = filled.sum()
    if total > 1.0:
        filled = filled / total
    shares[pos] = filled
    return shares


def _refill_pattern(problem: SlotProblem, g_user, connect, memo: dict):
    """Best feasible shares for a fixed branch pattern: waterfill each
    transmitter's pool independently. memo keeps each pool's shares by
    transmitter, members and their rates, so patterns and channel vectors
    that share a pool fill it once."""
    connect = np.asarray(connect, dtype=bool)
    rho0 = np.zeros(problem.num_users)
    rhof = np.zeros(problem.num_users)
    rf = problem.rate_fbs * g_user
    pools = [(0, connect, problem.pbar_mbs, problem.rate_mbs, rho0)]
    for i in range(1, problem.n_fbs + 1):
        pools.append((i, (~connect) & (problem.assoc == i), problem.pbar_fbs, rf, rhof))
    for station, pool, pbar, rate, shares in pools:
        if np.any(pool):
            key = (station, pool.tobytes(), rate[pool].tobytes())
            if key not in memo:
                memo[key] = _pool_shares(pbar[pool], problem.w_minus[pool], rate[pool])
            shares[pool] = memo[key]
    return rho0, rhof


def init_prices(problem: SlotProblem, gi=None) -> np.ndarray:
    """Cold-start prices at each transmitter's demand threshold.

    A pool's clearing price never exceeds its users' largest marginal
    utility at zero share and never falls below the largest at full share;
    starting at the latter puts the iteration on the problem's own price
    scale instead of an arbitrary constant, which matters when quality
    rates are small against current quality.
    """
    gi = problem.fbs_gi if gi is None else np.asarray(gi, dtype=float)
    rf = problem.rate_fbs * gi[problem.assoc - 1]
    prices = np.zeros(problem.n_fbs + 1)
    prices[0] = float(
        np.max(problem.pbar_mbs * problem.rate_mbs / (problem.w_minus + problem.rate_mbs))
    )
    for i in range(1, problem.n_fbs + 1):
        pool = problem.assoc == i
        if np.any(pool):
            prices[i] = float(
                np.max(problem.pbar_fbs[pool] * rf[pool] / (problem.w_minus[pool] + rf[pool]))
            )
    return prices


# distinct branch patterns refilled per solve; iterates after the cap is
# reached are tracked through their feasibility repair instead
_PATTERN_CAP = 128


def _iterate(
    problem: SlotProblem,
    g_user,
    start,
    step: float,
    phi: float,
    max_iters: int,
    keep_iterates: bool,
):
    """Projected gradient price iteration on every row of a stack at once.

    A row leaves the stack once its squared price movement drops to phi.
    Returns per-row iteration counts, converged flags, last prices and
    lowest dual values; per row, its branch patterns mapped to the
    iteration that first met them, in order of appearance; and, with
    keep_iterates, per row its (iteration, prices) at every iterate.
    """
    n_rows = len(g_user)
    iterations = np.full(n_rows, max_iters)
    converged = np.zeros(n_rows, dtype=bool)
    last_prices = np.empty((n_rows, len(start)))
    best_dual = np.empty(n_rows)
    first_seen = [{} for _ in range(n_rows)]
    iterates = [[] for _ in range(n_rows)]
    # the active stack: rows still iterating, their prices and lowest dual
    # values so far, and the branch patterns of their previous iterate
    rows = np.arange(n_rows)
    respond = _Responder(problem, g_user)
    prices = np.tile(start, (n_rows, 1))
    dual = np.full(n_rows, math.inf)
    last, last_code = None, b""
    for it in range(1, max_iters + 1):
        connect, rho0, rhof, values = respond(prices)
        dual = np.minimum(dual, values.sum(axis=1) + prices.sum(axis=1))
        # most iterates repeat the previous patterns; only changes can be new
        code = connect.tobytes()
        if code != last_code:
            if last is None:
                changed = np.ones(len(rows), dtype=bool)
            else:
                changed = np.any(connect != last, axis=1)
            for i in np.flatnonzero(changed):
                first_seen[rows[i]].setdefault(connect[i].tobytes(), it)
        if keep_iterates:
            for i, r in enumerate(rows):
                iterates[r].append((it, prices[i]))
        last, last_code = connect, code
        new_prices = dual_update(prices, respond.load(rho0, rhof), step)
        moved = ((new_prices - prices) ** 2).sum(axis=1)
        prices = new_prices
        done = moved <= phi
        if done.any():
            finished = rows[done]
            converged[finished] = True
            iterations[finished] = it
            last_prices[finished] = prices[done]
            best_dual[finished] = dual[done]
            live = ~done
            rows, prices, dual, last = rows[live], prices[live], dual[live], last[live]
            if not rows.size:
                break
            respond = _Responder(problem, g_user[rows])
            last_code = last.tobytes()
    last_prices[rows] = prices
    best_dual[rows] = dual
    return iterations, converged, last_prices, best_dual, first_seen, iterates


def _best_feasible(problem: SlotProblem, g_user, gi, patterns, iterate_prices, memo: dict):
    """Best feasible schedule known for one channel vector, first wins ties.

    Candidates, in order: the repaired iterates at iterate_prices, each
    branch pattern in patterns refilled exactly, and the two heuristics.
    Returns (objective, connect, rho_mbs, rho_fbs) and the iterates'
    objectives.
    """
    chosen = None
    objs = np.empty(0)
    if len(iterate_prices):
        replay = _Responder(problem, np.broadcast_to(g_user, (len(iterate_prices), len(g_user))))
        connect, rho0, rhof, _ = replay(iterate_prices)
        rho0, rhof = _repaired(rho0, rhof, replay.load(rho0, rhof), problem.assoc)
        objs = _objective(problem, g_user, connect, rho0, rhof)
        k = int(np.argmax(objs))
        chosen = (float(objs[k]), connect[k], rho0[k], rhof[k])
    # primal recovery: the dual iteration fixes each visited branch pattern,
    # and the continuous inner problem for a fixed pattern splits into
    # independent per-transmitter waterfilling problems solved exactly
    for pattern in patterns:
        rho0, rhof = _refill_pattern(problem, g_user, pattern, memo)
        obj = objective_value(problem, pattern, rho0, rhof, gi)
        if chosen is None or obj > chosen[0]:
            chosen = (obj, pattern, rho0, rhof)
    # primal polish: the returned point is the best feasible point known,
    # so a finite stopping tolerance never leaves it below a baseline
    for candidate in (heuristic_equal(problem, gi), heuristic_diversity(problem, gi)):
        if candidate.objective > chosen[0]:
            chosen = (
                candidate.objective,
                candidate.connect_mbs,
                candidate.rho_mbs,
                candidate.rho_fbs,
            )
    return chosen, objs


def solve_noninterfering_batch(
    problem: SlotProblem,
    gis,
    prices_init=None,
    step: float = 0.01,
    phi: float = 1e-6,
    max_iters: int = 10000,
    record_trace: bool = False,
) -> list:
    """Price iteration for one slot under each row of a (B, n_fbs) stack of
    per-femto channel vectors; returns one ScheduleSolution per row.

    Every row starts from prices_init (all ones by default; a warm start
    from an earlier solve goes here) and follows its own projected gradient
    iterates until its squared price movement drops to phi. Row sums run
    along the contiguous user axis, so each row's numbers are exactly those
    of solving it alone. The returned schedule is the best feasible point
    known: each visited branch pattern refilled exactly, the repaired
    iterates beyond the pattern cap (all of them when tracing), and the two
    heuristics. Rows that hit max_iters are flagged converged=False.
    """
    if phi < 0:
        raise ValueError("phi cannot be negative")
    if max_iters < 1:
        raise ValueError("need at least one iteration")
    gis = np.asarray(gis, dtype=float)
    if gis.ndim != 2 or gis.shape[1] != problem.n_fbs:
        raise ValueError("gis must hold one channel vector per femto station in each row")
    start = (
        np.ones(problem.n_fbs + 1)
        if prices_init is None
        else np.array(prices_init, dtype=float)
    )
    if start.shape != (problem.n_fbs + 1,) or np.any(start < 0):
        raise ValueError("prices_init must be a nonnegative price per transmitter")
    g_user = np.take(gis, problem.assoc - 1, axis=1)

    iterations, converged, last_prices, best_dual, first_seen, iterates = _iterate(
        problem, g_user, start, step, phi, max_iters, keep_iterates=record_trace
    )
    connect, _, _, values = _Responder(problem, g_user)(last_prices)
    dual = np.minimum(best_dual, values.sum(axis=1) + last_prices.sum(axis=1))

    memo = {}
    solutions = []
    for r, seen in enumerate(first_seen):
        codes = list(seen)[:_PATTERN_CAP]
        if connect[r].tobytes() not in codes:
            codes.append(connect[r].tobytes())
        patterns = [np.frombuffer(code, dtype=bool) for code in codes]
        tracked = iterates[r]
        if not record_trace and len(seen) >= _PATTERN_CAP:
            # refilling a visited pattern dominates any repaired iterate of
            # it, so iterates only matter past the bookkeeping cap; the row
            # replayed alone repeats its iterates bit for bit
            cap_iter = list(seen.values())[_PATTERN_CAP - 1]
            replay = _iterate(
                problem, g_user[r : r + 1], start, step, phi, max_iters, keep_iterates=True
            )[-1][0]
            tracked = [(i, p) for i, p in replay if i > cap_iter]
        tracked_prices = np.array([p for _, p in tracked]).reshape(-1, len(start))
        chosen, objs = _best_feasible(problem, g_user[r], gis[r], patterns, tracked_prices, memo)
        trace = None
        if record_trace:
            trace = [(i, p.copy(), float(obj)) for (i, p), obj in zip(tracked, objs)]
        d = float(dual[r])
        solutions.append(
            ScheduleSolution(
                connect_mbs=np.array(chosen[1]),
                rho_mbs=np.array(chosen[2]),
                rho_fbs=np.array(chosen[3]),
                objective=chosen[0],
                dual_value=d,
                duality_gap=abs(d - chosen[0]) / max(abs(d), 1e-12),
                iterations=int(iterations[r]),
                converged=bool(converged[r]),
                prices=last_prices[r].copy(),
                trace=trace,
            )
        )
    return solutions


def solve_noninterfering(
    problem: SlotProblem,
    gi=None,
    prices_init=None,
    step: float = 0.01,
    phi: float = 1e-6,
    max_iters: int = 10000,
    record_trace: bool = False,
) -> ScheduleSolution:
    """Price iteration for one slot with a fixed per-femto channel vector
    (problem.fbs_gi by default): the batch of one."""
    gi = problem.fbs_gi if gi is None else np.asarray(gi, dtype=float)
    return solve_noninterfering_batch(
        problem,
        gi[None, :],
        prices_init=prices_init,
        step=step,
        phi=phi,
        max_iters=max_iters,
        record_trace=record_trace,
    )[0]


def _preferred_mbs(problem: SlotProblem, g_user) -> np.ndarray:
    """Per-user transmitter preference by link quality; macro wins ties and
    whenever the femto has no channels to offer."""
    return (problem.pbar_mbs >= problem.pbar_fbs) | (g_user == 0)


def _heuristic_solution(problem, connect, rho0, rhof, gi) -> ScheduleSolution:
    return ScheduleSolution(
        connect_mbs=connect,
        rho_mbs=rho0,
        rho_fbs=rhof,
        objective=objective_value(problem, connect, rho0, rhof, gi),
        dual_value=float("nan"),
        duality_gap=float("nan"),
        iterations=0,
        converged=True,
        prices=None,
    )


def heuristic_equal(problem: SlotProblem, gi=None) -> ScheduleSolution:
    """Baseline: users pick the better link, transmitters split time evenly."""
    gi = problem.fbs_gi if gi is None else np.asarray(gi, dtype=float)
    g_user = gi[problem.assoc - 1]
    connect = _preferred_mbs(problem, g_user)
    rho0 = np.zeros(problem.num_users)
    rhof = np.zeros(problem.num_users)
    n_mbs = int(connect.sum())
    if n_mbs:
        rho0[connect] = 1.0 / n_mbs
    for i in range(1, problem.n_fbs + 1):
        pool = (~connect) & (problem.assoc == i)
        n_i = int(pool.sum())
        if n_i:
            rhof[pool] = 1.0 / n_i
    return _heuristic_solution(problem, connect, rho0, rhof, gi)


def heuristic_diversity(problem: SlotProblem, gi=None) -> ScheduleSolution:
    """Baseline: users pick the better link, each transmitter then gives its
    whole slot to its best-link chooser; everyone else idles."""
    gi = problem.fbs_gi if gi is None else np.asarray(gi, dtype=float)
    g_user = gi[problem.assoc - 1]
    connect = _preferred_mbs(problem, g_user)
    rho0 = np.zeros(problem.num_users)
    rhof = np.zeros(problem.num_users)
    if np.any(connect):
        best = int(np.argmax(np.where(connect, problem.pbar_mbs, -1.0)))
        rho0[best] = 1.0
    for i in range(1, problem.n_fbs + 1):
        pool = (~connect) & (problem.assoc == i)
        if np.any(pool):
            best = int(np.argmax(np.where(pool, problem.pbar_fbs, -1.0)))
            rhof[best] = 1.0
    return _heuristic_solution(problem, connect, rho0, rhof, gi)


@dataclass(frozen=True)
class InterferenceGraph:
    """Which femto stations would collide if they reused a channel."""

    n_fbs: int
    edges: tuple

    def __post_init__(self):
        if self.n_fbs < 1:
            raise ValueError("need at least one femto station")
        seen = set()
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {e} must have two endpoints")
            i, j = e
            if not (1 <= i < j <= self.n_fbs):
                raise ValueError(f"edge ({i}, {j}) must satisfy 1 <= i < j <= {self.n_fbs}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))

    def neighbors(self, fbs: int) -> frozenset:
        out = set()
        for i, j in self.edges:
            if i == fbs:
                out.add(j)
            elif j == fbs:
                out.add(i)
        return frozenset(out)

    def degree(self, fbs: int) -> int:
        return len(self.neighbors(fbs))

    @property
    def d_max(self) -> int:
        return max((self.degree(i) for i in range(1, self.n_fbs + 1)), default=0)

    def are_adjacent(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in {(a, b) for a, b in self.edges}


@dataclass
class ChannelAllocation:
    """0/1 matrix of (femto, cleared channel) grants."""

    channels: tuple
    p_idle: np.ndarray
    assigned: np.ndarray

    def gi(self) -> np.ndarray:
        """Expected available channels per femto under this allocation."""
        return self.assigned @ np.asarray(self.p_idle, dtype=float)

    def validate(self, graph: InterferenceGraph) -> None:
        if self.assigned.shape != (graph.n_fbs, len(self.channels)):
            raise ValueError("allocation matrix has the wrong shape")
        for i, j in graph.edges:
            both = self.assigned[i - 1] + self.assigned[j - 1]
            if np.any(both > 1):
                raise ValueError(f"femtos {i} and {j} share a channel across an edge")


@dataclass(frozen=True)
class GreedyStep:
    fbs: int
    channel: int
    delta: float
    degree: int


@dataclass
class GreedyTrace:
    """Marginal gains of the greedy allocation, in pick order.

    value is the improvement of the final allocation over no channels, and
    equals the sum of the deltas exactly (shared memoized evaluations).
    """

    steps: list
    value: float
    baseline: float


class AllocationValue:
    """Objective improvement enabled by a channel allocation.

    Evaluations run the price iteration at a configurable budget and are
    memoized by the per-femto expected-channel vector; candidate solves warm
    start from the allocation they extend, and a batch of candidates is
    solved as one stack. A custom solver callable
    (problem, gi, prices_init) -> (objective, prices_or_None) replaces the
    price iteration, e.g. with an exact enumeration on tiny instances, and
    is called once per fresh vector.
    """

    def __init__(
        self,
        problem: SlotProblem,
        step: float = 0.01,
        phi: float = 1e-6,
        max_iters: int = 2000,
        solver=None,
    ):
        self.problem = problem
        self.step = step
        self.phi = phi
        self.max_iters = max_iters
        self._solver = solver
        self._cache = {}
        zero = np.zeros(problem.n_fbs)
        [(self.baseline, prices)] = self._solve(zero[None, :], None)
        self._cache[tuple(zero)] = (0.0, prices)

    def _solve(self, gis, prices_init):
        """(objective, prices) for each row of gis."""
        if self._solver is not None:
            return [self._solver(self.problem, gi, prices_init) for gi in gis]
        sols = solve_noninterfering_batch(
            self.problem,
            gis,
            prices_init=prices_init,
            step=self.step,
            phi=self.phi,
            max_iters=self.max_iters,
        )
        return [(sol.objective, sol.prices) for sol in sols]

    def improvements(self, gis, warm_key=None) -> list:
        """Improvement of each expected-channel vector in gis; the vectors
        not yet cached are solved together from the prices cached at
        warm_key."""
        keys = [tuple(float(g) for g in gi) for gi in gis]
        fresh = list(dict.fromkeys(key for key in keys if key not in self._cache))
        if fresh:
            warm = self._cache.get(warm_key) if warm_key is not None else None
            solved = self._solve(np.array(fresh, dtype=float), None if warm is None else warm[1])
            for key, (objective, prices) in zip(fresh, solved):
                self._cache[key] = (objective - self.baseline, prices)
        return [self._cache[key][0] for key in keys]

    def improvement(self, gi, warm_key=None) -> float:
        return self.improvements([gi], warm_key=warm_key)[0]


def greedy_alloc(
    problem: SlotProblem,
    channels,
    p_idle,
    graph: InterferenceGraph,
    value: "AllocationValue | None" = None,
    **solver_opts,
):
    """Hand out (femto, channel) grants by largest marginal objective gain.

    After each pick the chosen pair and its graph neighbors on the same
    channel leave the candidate set, so edges never share a channel. Ties
    break to the lowest (femto, channel position). Returns the allocation
    and the step trace.
    """
    p_idle = np.asarray(p_idle, dtype=float)
    channels = tuple(channels)
    if p_idle.shape != (len(channels),):
        raise ValueError("need one idle posterior per cleared channel")
    if graph.n_fbs != problem.n_fbs:
        raise ValueError("interference graph and problem disagree on femto count")
    if value is None:
        value = AllocationValue(problem, **solver_opts)

    n = problem.n_fbs
    assigned = np.zeros((n, len(channels)), dtype=int)
    candidates = {(i, m) for i in range(1, n + 1) for m in range(len(channels))}
    steps = []
    current_value = 0.0
    current_key = tuple(assigned @ p_idle)
    while candidates:
        pairs = sorted(candidates)
        gis = []
        for i, m in pairs:
            trial = assigned.copy()
            trial[i - 1, m] = 1
            gis.append(trial @ p_idle)
        best_pair = None
        best_value = -math.inf
        for (i, m), v in zip(pairs, value.improvements(gis, warm_key=current_key)):
            if v > best_value:
                best_value = v
                best_pair = (i, m)
        i, m = best_pair
        steps.append(
            GreedyStep(
                fbs=i, channel=channels[m], delta=best_value - current_value, degree=graph.degree(i)
            )
        )
        assigned[i - 1, m] = 1
        current_value = best_value
        current_key = tuple(assigned @ p_idle)
        candidates.discard((i, m))
        for nbr in graph.neighbors(i):
            candidates.discard((nbr, m))

    alloc = ChannelAllocation(channels=channels, p_idle=p_idle, assigned=assigned)
    alloc.validate(graph)
    return alloc, GreedyTrace(steps=steps, value=current_value, baseline=value.baseline)


def brute_force_alloc(
    problem: SlotProblem,
    channels,
    p_idle,
    graph: InterferenceGraph,
    value: "AllocationValue | None" = None,
    max_pairs: int = 12,
    **solver_opts,
):
    """Exact best allocation by enumerating independent sets per channel.

    Refused when n_fbs * len(channels) exceeds max_pairs. Returns the best
    allocation and its improvement value; ties keep the first combination
    in enumeration order.
    """
    p_idle = np.asarray(p_idle, dtype=float)
    channels = tuple(channels)
    n = problem.n_fbs
    if n * len(channels) > max_pairs:
        raise ValueError(
            f"exhaustive allocation refused: {n * len(channels)} pairs exceeds the limit of {max_pairs}"
        )
    if value is None:
        value = AllocationValue(problem, **solver_opts)

    independent = []
    for mask in range(2 ** n):
        members = [i + 1 for i in range(n) if mask >> i & 1]
        if all(not graph.are_adjacent(i, j) for i, j in itertools.combinations(members, 2)):
            independent.append(tuple(members))

    zero_key = tuple(np.zeros(n))
    best = None
    for combo in itertools.product(independent, repeat=len(channels)):
        assigned = np.zeros((n, len(channels)), dtype=int)
        for m, members in enumerate(combo):
            for i in members:
                assigned[i - 1, m] = 1
        v = value.improvement(assigned @ p_idle, warm_key=zero_key)
        if best is None or v > best[0]:
            best = (v, assigned)
    alloc = ChannelAllocation(channels=channels, p_idle=p_idle, assigned=best[1])
    alloc.validate(graph)
    return alloc, best[0]


def optbound_upper(trace: GreedyTrace) -> float:
    """Upper bound on the best allocation's improvement:
    greedy value plus each step's delta counted again per graph neighbor."""
    return trace.value + sum(s.degree * s.delta for s in trace.steps)
