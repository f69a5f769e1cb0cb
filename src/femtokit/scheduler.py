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
the slot optimum it enables, found by enumerating branch patterns with
closed-form pool values, measured against the no-channel baseline so the
greedy trace telescopes exactly.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

# a transmitter's shares are scaled down once their sum passes 1 + _OVERLOAD_TOL
_OVERLOAD_TOL = 1e-6
# bisection steps on a pool's price in _pool_shares
_POOL_BISECTIONS = 60
# iterates a row of the price iteration runs between two checks of its
# branches: a row starts with a block of _FIRST_BLOCK, a row whose branches
# switched starts again from 1, and each block that checks out doubles the
# next. Each check has a fixed numpy cost, and branches rarely switch.
_FIRST_BLOCK = 16
# AllocationValue enumerates all 2^K branch patterns of every row, and
# refuses problems with more users than this
ENUMERATION_MAX_USERS = 12


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
        self._validate(links=True)

    def _validate(self, links: bool):
        """Raise ValueError on a malformed problem; with links False, the
        link constants are taken as checked and only the current quality
        and the channel vector are, in the same order and with the same
        messages."""
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
        # each check passes only on the valid values, and min and max
        # return NaN if any entry is NaN, so NaN fails it
        if not (self.w_minus.min() > 0 and self.w_minus.max() < math.inf):
            raise ValueError("current quality must be positive and finite")
        if links:
            for name in ("pbar_mbs", "pbar_fbs"):
                p = getattr(self, name)
                if not np.all((p >= 0) & (p <= 1)):
                    raise ValueError(f"{name} must be probabilities")
            for name in ("rate_mbs", "rate_fbs"):
                rate = getattr(self, name)
                if not (rate.min() >= 0 and rate.max() < math.inf):
                    raise ValueError("rates must be nonnegative and finite")
            if np.any((self.assoc < 1) | (self.assoc > self.n_fbs)):
                raise ValueError("assoc entries must be femto ids in 1..n_fbs")
        if not (self.fbs_gi.min() >= 0 and self.fbs_gi.max() < math.inf):
            raise ValueError("expected channel counts must be nonnegative and finite")

    def for_slot(self, w_minus, fbs_gi) -> "SlotProblem":
        """This problem's links with another current quality and channel
        vector. Only those two are checked, as dataclasses.replace would
        check them: the links were checked when this problem was built."""
        problem = copy.copy(self)
        problem.w_minus = np.asarray(w_minus, dtype=float)
        problem.fbs_gi = np.asarray(fbs_gi, dtype=float)
        problem._validate(links=False)
        return problem

    @property
    def num_users(self) -> int:
        return self.w_minus.shape[0]


@dataclass
class ScheduleSolution:
    """Primal schedule plus solver diagnostics.

    connect_mbs is the binary branch choice per user; the losing branch's
    time share is zero. For heuristic schedules the dual fields are NaN,
    and a stack of them holds one slot per row of its schedule fields and
    objective.
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


def _objective(problem: SlotProblem, g_user, connect_mbs, rho_mbs, rho_fbs, w_minus=None):
    """Expected log-quality sum along the last (user) axis of stacked
    schedules, at the problem's current quality or at w_minus, which may
    hold one row per schedule."""
    w = problem.w_minus if w_minus is None else w_minus
    arg = np.where(
        connect_mbs,
        w + rho_mbs * problem.rate_mbs,
        w + rho_fbs * g_user * problem.rate_fbs,
    )
    if not np.all(arg > 0):
        raise ValueError("log argument must stay positive")
    weight = np.where(connect_mbs, problem.pbar_mbs, problem.pbar_fbs)
    return np.sum(weight * np.log(arg), axis=-1)


def _lane_values(pbar, w, rate, offset, unpaid, price):
    """Each lane's share and Lagrangian value pbar*log(w + rho*rate) -
    price*rho at its price, elementwise: the interior stationary point
    pbar/price - w/rate clipped to [0, 1], the whole slot at a zero price,
    nothing at a zero rate."""
    priced = price > 0
    # a tiny price saturates pbar/price to +inf, which clips to 1
    with np.errstate(over="ignore"):
        interior = np.minimum(np.maximum(pbar / np.where(priced, price, 1.0) - offset, 0.0), 1.0)
    rho = np.where(unpaid, 0.0, np.where(priced, interior, 1.0))
    return rho, pbar * np.log(w + rho * rate) - price * rho


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

    __call__ and load are the reference route of an iterate, which the
    tests and a traced solve's repaired iterates run. load sums each
    transmitter's shares left to right in user order, as the orbits do.
    The price iteration only takes the lanes of a one-row responder, and
    checks branches and takes Lagrangian values from __call__'s
    elementwise formula (_lane_values), evaluated at the start prices and
    then once per block of its iterates.
    """

    def __init__(self, problem: SlotProblem, g_user):
        k = self.k = problem.num_users
        self.n1 = problem.n_fbs + 1
        self.price_index = np.concatenate([np.zeros(k, dtype=int), problem.assoc])
        self.pbar = np.concatenate([problem.pbar_mbs, problem.pbar_fbs])
        self.w = np.concatenate([problem.w_minus, problem.w_minus])
        # as Python values, for _follow's loop
        self.assoc = problem.assoc.tolist()
        self.rate = np.empty((len(g_user), 2 * k))
        self.rate[:, :k] = problem.rate_mbs
        np.multiply(problem.rate_fbs, g_user, out=self.rate[:, k:])
        self.unpaid = ~(self.rate > 0)
        # every offset is finite, so no lane computes inf - inf: zero-rate
        # lanes get 0 (their share is zeroed after clipping), and where a
        # subnormal rate overflows w/rate the largest float still clips
        # every priced share to 0
        self.offset = np.zeros_like(self.rate)
        with np.errstate(over="ignore"):
            np.divide(self.w, self.rate, out=self.offset, where=~self.unpaid)
        np.minimum(self.offset, np.finfo(float).max, out=self.offset)

    def __call__(self, prices):
        """Branch, shares with the losing one zeroed, and Lagrangian values,
        each of shape (B, K), for prices of shape (B, n_fbs + 1). Ties go to
        the macro station."""
        # take, unlike [:, index], returns C order: row sums then run along
        # the contiguous user axis with the same rounding as a lone row
        price = prices.take(self.price_index, axis=1)
        rho, value = _lane_values(self.pbar, self.w, self.rate, self.offset, self.unpaid, price)
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
        rows = len(rho_fbs)
        # each row's lanes fill their own n1 bincount slots, row-major, and
        # bincount adds its weights in input order: a running sum over each
        # transmitter's users in user order
        bins = (self.price_index + self.n1 * np.arange(rows)[:, None]).ravel()
        rho = np.concatenate([rho_mbs, rho_fbs], axis=1).ravel()
        return np.bincount(bins, weights=rho, minlength=rows * self.n1).reshape(rows, -1)


def _repaired(rho_mbs, rho_fbs, load, assoc):
    """Scale any transmitter's shares down when their sum exceeds the slot."""
    scale = np.divide(1.0, load, out=np.ones_like(load), where=load > 1.0 + _OVERLOAD_TOL)
    return rho_mbs * scale[:, :1], rho_fbs * np.take(scale, assoc, axis=1)


def _pool_shares(pbar, w, rate) -> list:
    """Optimal shares of one pool's members, from lists of Python floats of
    their pbar, w and rate. Members with zero rate get nothing.

    The pool's price is bisected (Boyd & Vandenberghe, Convex Optimization,
    5.5.3) for _POOL_BISECTIONS steps, keeping the half whose box-clipped
    stationary shares clip(pbar/price - w/rate, 0, 1) fill the slot (their
    running sum in member order is at least 1); the shares are those at the
    upper end. A subnormal rate overflows w/rate to inf; every price tried
    is at least 2^-60 and pbar at most 1, so pbar/price - inf is -inf and
    that member's share clips to 0."""
    shares = [0.0] * len(w)
    pos = [i for i, r in enumerate(rate) if r > 0]
    if not pos:
        return shares
    members = [(pbar[i], w[i] / rate[i]) for i in pos]
    lo, hi = 0.0, max([pbar[i] * rate[i] / w[i] for i in pos]) * 2.0 + 1.0
    for _ in range(_POOL_BISECTIONS):
        mid = 0.5 * (lo + hi)
        # an explicit loop: from Python 3.12 on the builtin sum of floats
        # is compensated, so its bits would depend on the Python version
        total = 0.0
        for pb, off in members:
            x = pb / mid - off
            if x > 0.0:
                total += x if x < 1.0 else 1.0
        if total >= 1.0:
            lo = mid
        else:
            hi = mid
    # hi only ever takes prices whose shares sum below 1 (the first hi gives
    # nobody a share), so the shares at hi never overfill the slot
    for i, (pb, off) in zip(pos, members):
        x = pb / hi - off
        shares[i] = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
    return shares


def _refill_patterns(problem: SlotProblem, g_user, patterns):
    """Best feasible shares for each row of a (N, K) stack of branch
    patterns, the pattern in row n under the channel counts in row n of
    g_user: each transmitter's pool is waterfilled on its own
    (_pool_shares). Returns the macro and femto shares."""
    assoc, w = problem.assoc.tolist(), problem.w_minus.tolist()
    pbar_mbs, rate_mbs = problem.pbar_mbs.tolist(), problem.rate_mbs.tolist()
    pbar_fbs, rate_fbs = problem.pbar_fbs.tolist(), (problem.rate_fbs * g_user).tolist()
    rho = []
    for row, rf in zip(patterns.tolist(), rate_fbs):
        members = [[] for _ in range(problem.n_fbs + 1)]
        for j, macro in enumerate(row):
            members[0 if macro else assoc[j]].append(j)
        shares = [0.0] * len(row)
        for s, users in enumerate(members):
            if users:
                pbar, rate = (pbar_fbs, rf) if s else (pbar_mbs, rate_mbs)
                pool = _pool_shares(
                    [pbar[j] for j in users], [w[j] for j in users], [rate[j] for j in users]
                )
                for j, x in zip(users, pool):
                    shares[j] = x
        rho.append(shares)
    rho = np.array(rho)
    return np.where(patterns, rho, 0.0), np.where(patterns, 0.0, rho)


def init_prices(problem: SlotProblem) -> np.ndarray:
    """Cold-start prices at each transmitter's demand threshold.

    A pool's clearing price never exceeds its users' largest marginal
    utility at zero share and never falls below the largest at full share;
    starting at the latter puts the iteration on the problem's own price
    scale instead of an arbitrary constant, which matters when quality
    rates are small against current quality.
    """
    rf = problem.rate_fbs * problem.fbs_gi[problem.assoc - 1]
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


class _Orbit:
    """One transmitter's prices under one branch pattern from one start
    price, advanced in Python floats.

    Under a fixed pattern a transmitter's next price depends on its own
    price alone. Every operation of the step is an IEEE division,
    subtraction, multiplication, comparison or sum, and the load is a
    running sum in user order, as _Responder.load's bincount adds it, so the
    prices are those of the reference route bit for bit. users holds the
    paid members in user order, members their (pbar, offset), and full the
    load at a zero price.

    prices holds the orbit's distinct prices up to its first exact repeat;
    from index cycle on they then repeat with period period.
    """

    __slots__ = ("users", "members", "full", "prices", "seen", "cycle", "period")

    def __init__(self, users, members, start):
        self.users, self.members = users, members
        # at a zero price every paid member takes the whole slot, and a sum
        # of ones is exact in any order
        self.full = float(len(users))
        self.prices = [start]
        # every later price is +0.0 or positive, so a -0.0 start never repeats
        self.seen = {start: 0} if math.copysign(1.0, start) > 0 else {}
        self.cycle = self.period = None

    def window(self, lo: int, hi: int) -> list:
        """The prices at positions lo to hi, both included."""
        prices, cycle = self.prices, self.cycle
        if hi < len(prices):
            return prices[lo : hi + 1]
        # the positions before the cycle, then whole turns of it from lo's
        # place in it
        head, lo = prices[lo:cycle], max(lo, cycle)
        turn = (lo - cycle) % self.period + cycle
        loop = prices[turn:] + prices[cycle:turn]
        return head + (loop * ((hi - lo) // self.period + 1))[: hi + 1 - lo]

    def extend(self, pos: int, step: float):
        """Advance the orbit until position pos has an entry."""
        prices = self.prices
        if self.period is not None or len(prices) > pos:
            return
        members, full = self.members, self.full
        add_price, first = prices.append, self.seen.setdefault
        p = prices[-1]
        for n in range(len(prices), pos + 1):
            # -0.0 is no price either
            if not p > 0.0:
                load = full
            else:
                load = 0.0
                for pb, off in members:
                    x = pb / p - off
                    if x > 0.0:
                        load += x if x < 1.0 else 1.0
            q = p - (1.0 - load) * step
            # np.maximum(q, 0.0) returns its second operand on a tie, so
            # -0.0 becomes 0.0 as well
            if not q > 0.0:
                q = 0.0
            if first(q, n) != n:
                self.cycle = self.seen[q]
                self.period = n - self.cycle
                return
            add_price(q)
            p = q


def _follow(respond: _Responder, paid, connect, held, prices, t) -> list:
    """Per transmitter, the (orbit, base) pair of a row that takes the
    branch pattern connect, a list of bools, from iterate t on, where its
    input prices are prices; iterate i sits at position base + i of the
    orbit. paid holds each of the row's lanes' (pbar, offset), None
    on an unpaid lane. held is the row's pairs under its last pattern, None
    at its start: a transmitter whose paid members stay keeps its pair, and
    the others start new orbits at their prices. A row restarts here after
    a branch switch."""
    k, members = respond.k, [[] for _ in range(respond.n1)]
    for j, macro in enumerate(connect):
        if paid[j if macro else k + j] is not None:
            members[0 if macro else respond.assoc[j]].append(j)
    pairs = []
    for s, users in enumerate(members):
        users = tuple(users)
        if held and held[s][0].users == users:
            pairs.append(held[s])
        else:
            lanes = [paid[(s > 0) * k + j] for j in users]
            pairs.append((_Orbit(users, lanes, prices[s]), -t))
    return pairs


def _iterate(respond: _Responder, start, step, phi, max_iters, keep_iterates):
    """Projected gradient price iteration on the one row of respond's
    lanes, from the start prices start (an array).

    The row stops once its squared price movement drops to phi. Returns
    its iteration count, converged flag, last prices, lowest dual value
    over its iterates and the Lagrangian value at its last prices; the
    branch patterns of its iterates in order of first appearance, then
    that at its last prices (as dict keys); and, with keep_iterates, its
    prices at iterates 1, 2, ... as the rows of one array.

    The row takes its first branches from one evaluation of every lane at
    its start price. Under a fixed branch pattern each transmitter's price
    moves on its own load alone (Low & Lapsley, IEEE/ACM ToN 1999), so the
    row advances as one orbit per transmitter (_Orbit) in Python floats,
    and an orbit ends at its first exact repeat.

    The row runs in blocks of _FIRST_BLOCK iterates, then twice that, and
    so on without a cap. For each block the orbits advance to the prices
    after the block, and one _lane_values call evaluates the block's
    prices and those after its last iterate, an (n + 1, n_fbs + 1) array;
    the branches, Lagrangian values and squared price movements follow in
    numpy, every sum along the contiguous transmitter or user axis. The
    row converges at the first iterate whose movement is at most phi,
    unless its true branches differ from the assumed ones at or before
    that iterate: then it goes back to the first that differs, takes the
    true branches (_follow) and starts again from blocks of 1. The last
    prices' branches and Lagrangian value come from the last block.

    Once all of the row's orbits have repeated, its prices cycle from the
    first iterate where every orbit is in its cycle, with the lcm of their
    periods, so its lowest dual value and branch patterns are final and it
    never converges. Without keep_iterates it stops after one period of
    that cycle and reads its last prices, those after max_iters, at their
    place in the cycle.
    """
    k, price_index = respond.k, respond.price_index
    lanes = (respond.pbar, respond.w, respond.rate[0], respond.offset[0], respond.unpaid[0])
    value = _lane_values(*lanes, start.take(price_index))[1]
    connect = (value[:k] >= value[k:]).tolist()
    step = float(step)
    paid = [
        None if unpaid else (pbar, offset)
        for pbar, offset, unpaid in zip(respond.pbar.tolist(), lanes[3].tolist(), lanes[4].tolist())
    ]
    held = _follow(respond, paid, connect, None, start.tolist(), 1)
    code = bytes(connect)
    seen, trail = {code: None}, []
    # the next iterate, the first under the current pattern, and the blocks
    # evaluated since then: (first iterate, prices, duals, branches)
    t = t0 = 1
    blocks, length, lowest = [], _FIRST_BLOCK, math.inf
    while True:
        end = min(t + length, max_iters + 1)
        for orbit, base in held:
            orbit.extend(base + end, step)
        stop = None
        if not keep_iterates and all(orbit.period for orbit, _ in held):
            # the prices repeat from iterate first with the lcm of the
            # orbits' periods, so one period of iterates shows every state
            # that the rest of the run would visit
            first = max(t0, *(orbit.cycle - base for orbit, base in held))
            period = math.lcm(*(orbit.period for orbit, _ in held))
            stop = first + period - 1
            end = min(stop + 1, max_iters + 1)
        n = end - t
        # the block's prices and those after its last iterate, in C order,
        # so every sum below runs along a contiguous row as a lone row's does
        prices = np.array([orbit.window(base + t, base + end) for orbit, base in held]).T.copy()
        value = _lane_values(*lanes, prices.take(price_index, axis=1))[1]
        macro, femto = value[:, :k], value[:, k:]
        branches = macro >= femto
        dual = np.add.reduce(np.where(branches, macro, femto), axis=1)
        dual += np.add.reduce(prices, axis=1)
        moved = prices[1:] - prices[:-1]
        quiet = np.flatnonzero(np.add.reduce(moved * moved, axis=1) <= phi)
        blocks.append((t, prices, dual, branches))
        # the first iterate whose true branches differ from the assumed ones
        m = n
        codes = branches.tobytes()
        if codes[: n * k] != code * n:
            m = next(i for i in range(n) if codes[i * k : (i + 1) * k] != code)
        converged = len(quiet) > 0 and quiet[0] < m
        if converged:
            # the movement out of that iterate is that of its true branches
            n = int(quiet[0]) + 1
        elif m < n:
            # the iterates before the switch stand; the row goes on from the
            # switching iterate with its true branches, in blocks from 1
            if m:
                lowest = min(lowest, float(dual[:m].min()))
                if keep_iterates:
                    trail.append(prices[:m])
            t += m
            connect = branches[m].tolist()
            code = bytes(connect)
            seen.setdefault(code)
            held = _follow(respond, paid, connect, held, prices[m].tolist(), t)
            t0, blocks, length = t, [], 1
            continue
        lowest = min(lowest, float(dual[:n].min()))
        if keep_iterates:
            trail.append(prices[:n])
        t += n
        length *= 2
        if converged or t > max_iters or t - 1 == stop:
            break
    # the prices after the last iterate; a cycling row that stopped early
    # finds those after max_iters by periodicity among its blocks since t0
    last = t if converged or t > max_iters else first + (max_iters + 1 - first) % period
    a, prices, dual, branches = next(block for block in blocks if block[0] + len(block[1]) > last)
    seen.setdefault(branches[last - a].tobytes())
    return (
        t - 1 if converged else max_iters,
        converged,
        prices[last - a],
        lowest,
        dual[last - a],
        seen,
        np.concatenate(trail) if trail else np.zeros((0, respond.n1)),
    )


def _repaired_iterates(problem: SlotProblem, g_user, iterate_prices):
    """Objectives of the repaired iterates at the rows of iterate_prices,
    under one row of per-user channel counts."""
    replay = _Responder(problem, np.broadcast_to(g_user, (len(iterate_prices), len(g_user))))
    connect, rho0, rhof, _ = replay(iterate_prices)
    rho0, rhof = _repaired(rho0, rhof, replay.load(rho0, rhof), problem.assoc)
    return _objective(problem, g_user, connect, rho0, rhof)


def solve_noninterfering(
    problem: SlotProblem,
    prices_init=None,
    *,
    step: float,
    phi: float,
    max_iters: int,
    record_trace: bool = False,
) -> ScheduleSolution:
    """Price iteration for one slot under its channel vector problem.fbs_gi.

    Starts from prices_init (by default the cold start init_prices(problem);
    a warm start from an earlier solve goes here) and follows the projected
    gradient iterates (_iterate) until the squared price movement drops to
    phi; a solve that hits max_iters is flagged converged=False. step, phi
    and max_iters have no defaults here: StreamConfig holds the only ones.
    The returned schedule is the best feasible point known: every visited
    branch pattern refilled exactly (_refill_patterns, each pool by
    _pool_shares's bisection), and the two heuristics. A traced solve
    records the repaired iterates' objectives in its trace but never picks
    from them, so tracing leaves the schedule, and every later slot, as it
    is.
    """
    # written so that NaN fails each check
    if not 0 < step < math.inf:
        raise ValueError("step size must be positive and finite")
    if not phi >= 0:
        raise ValueError("phi cannot be negative")
    if max_iters < 1:
        raise ValueError("need at least one iteration")
    start = init_prices(problem) if prices_init is None else np.array(prices_init, dtype=float)
    if start.shape != (problem.n_fbs + 1,) or not (start.min() >= 0 and start.max() < math.inf):
        raise ValueError("prices_init must be a nonnegative finite price per transmitter")
    g_user = problem.fbs_gi[None, problem.assoc - 1]
    iterations, converged, prices, lowest, last_dual, seen, iterates = _iterate(
        _Responder(problem, g_user), start, step, phi, max_iters, record_trace
    )
    dual = float(np.minimum(lowest, last_dual))

    # primal recovery: the dual iteration fixes each visited branch pattern,
    # and the continuous inner problem for a fixed pattern splits into
    # independent per-transmitter waterfilling problems solved exactly
    patterns = np.frombuffer(b"".join(seen), dtype=bool).reshape(-1, problem.num_users)
    refill = _refill_patterns(problem, np.broadcast_to(g_user, patterns.shape), patterns)
    # primal polish: the returned point is the best feasible point known,
    # so a finite stopping tolerance never leaves it below a baseline
    stack = [(patterns, *refill), _equal_split(problem, g_user), _best_link(problem, g_user)]
    connect, rho_mbs, rho_fbs = (np.concatenate(part) for part in zip(*stack))
    scores = _objective(problem, g_user, connect, rho_mbs, rho_fbs)
    # argmax keeps the first of equal objectives, in the order refilled
    # patterns, equal split, best link
    best = int(np.argmax(scores))
    objective = float(scores[best])
    trace = None
    if record_trace:
        traced = _repaired_iterates(problem, g_user[0], iterates)
        trace = [(i, p.copy(), float(obj)) for i, (p, obj) in enumerate(zip(iterates, traced), 1)]
    return ScheduleSolution(
        connect_mbs=connect[best].copy(),
        rho_mbs=rho_mbs[best].copy(),
        rho_fbs=rho_fbs[best].copy(),
        objective=objective,
        dual_value=dual,
        duality_gap=abs(dual - objective) / max(abs(dual), 1e-12),
        iterations=int(iterations),
        converged=bool(converged),
        prices=prices.copy(),
        trace=trace,
    )


def _preferred_mbs(problem: SlotProblem, g_user) -> np.ndarray:
    """Per-user transmitter preference by link quality; macro wins ties and
    whenever the femto has no channels to offer."""
    return (problem.pbar_mbs >= problem.pbar_fbs) | (g_user == 0)


def _equal_split(problem: SlotProblem, g_user):
    """heuristic_equal's branches and shares for each row of a (B, K) stack
    of per-user expected channel counts."""
    connect = _preferred_mbs(problem, g_user)
    station = np.where(connect, 0, problem.assoc)
    # each user's share is one over the number of users on its transmitter
    same = station[:, :, None] == station[:, None, :]
    share = 1.0 / same.sum(axis=2)
    return connect, np.where(connect, share, 0.0), np.where(connect, 0.0, share)


def _best_link(problem: SlotProblem, g_user):
    """heuristic_diversity's branches and shares for each row of a (B, K)
    stack of per-user expected channel counts."""
    connect = _preferred_mbs(problem, g_user)
    link = np.where(connect, problem.pbar_mbs, problem.pbar_fbs)
    # (B, n_fbs + 1, K): the users each transmitter serves
    station = np.where(connect, 0, problem.assoc)
    members = station[:, None, :] == np.arange(problem.n_fbs + 1)[:, None]
    rows, busy = np.nonzero(members.any(axis=2))
    # argmax keeps the first of equally good links among a transmitter's users
    best = np.argmax(np.where(members, link[:, None, :], -1.0), axis=2)
    share = np.zeros(g_user.shape)
    share[rows, best[rows, busy]] = 1.0
    return connect, np.where(connect, share, 0.0), np.where(connect, 0.0, share)


def _channel_rows(problem: SlotProblem, gis) -> np.ndarray:
    """gis as a checked (B, n_fbs) float stack of channel vectors."""
    gis = np.asarray(gis, dtype=float)
    if gis.ndim != 2 or gis.shape[1] != problem.n_fbs:
        raise ValueError("gis must hold one channel vector per femto station in each row")
    # min and max return NaN if any entry is NaN, so NaN fails the check
    if len(gis) and not (gis.min() >= 0 and gis.max() < math.inf):
        raise ValueError("expected channel counts must be nonnegative and finite")
    return gis


def _heuristic_stack(problem: SlotProblem, heuristic, w_minus, gis) -> ScheduleSolution:
    """A baseline's schedules of the problem's links under each row of a
    (B, n_fbs) stack of channel vectors, each scored at its row of a (B, K)
    stack of current qualities. Checks both stacks with SlotProblem's
    messages for one row."""
    gis = _channel_rows(problem, gis)
    w_minus = np.asarray(w_minus, dtype=float)
    if w_minus.shape != (len(gis), problem.num_users):
        raise ValueError("w_minus must hold one quality per user in each row of gis")
    if len(gis) and not (w_minus.min() > 0 and w_minus.max() < math.inf):
        raise ValueError("current quality must be positive and finite")
    g_user = np.take(gis, problem.assoc - 1, axis=1)
    connect, rho0, rhof = heuristic(problem, g_user)
    return ScheduleSolution(
        connect_mbs=connect,
        rho_mbs=rho0,
        rho_fbs=rhof,
        objective=_objective(problem, g_user, connect, rho0, rhof, w_minus),
        dual_value=float("nan"),
        duality_gap=float("nan"),
        iterations=0,
        converged=True,
        prices=None,
    )


def heuristic_equal(problem: SlotProblem, w_minus, gis) -> ScheduleSolution:
    """Baseline: users pick the better link, transmitters split time evenly.

    Given stacks w_minus (B, K) and gis (B, n_fbs), row b is the schedule
    of the problem's links under channel vector gis[b], scored at current
    quality w_minus[b], and each schedule field and the objective gain that
    leading row axis.
    """
    return _heuristic_stack(problem, _equal_split, w_minus, gis)


def heuristic_diversity(problem: SlotProblem, w_minus, gis) -> ScheduleSolution:
    """Baseline: users pick the better link, each transmitter then gives its
    whole slot to its best-link chooser; everyone else idles. Stacks
    w_minus and gis work as in heuristic_equal."""
    return _heuristic_stack(problem, _best_link, w_minus, gis)


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


def _subsets(m: int) -> np.ndarray:
    """All 2^m subsets of m members as the columns of an (m, 2^m) bool
    matrix, in itertools.product((False, True), repeat=m) order: member 0
    is the most significant bit of a column's index."""
    return (np.arange(2**m) >> np.arange(m - 1, -1, -1)[:, None] & 1).astype(bool)


def _paid_lanes(pbar, w, rate) -> list:
    """(position, pbar, offset w/rate, pbar*log(ratio)) of each lane that
    waterfilling can pay, from arrays of the lanes' pbar, w and rate, in
    waterfill order: by ratio = pbar*rate/w, largest first, a stable sort.

    A lane is paid when its pbar and rate are positive, its offset does
    not overflow and its ratio does not underflow to 0; any other lane
    takes nothing at every price. Take a pool's members in this order,
    with running sums P of pbar, O of offset and A of pbar*log(ratio).
    With every rate scaled by g > 0, the first n members clear the pool at
    the price mu = g*P_n/(g + O_n) (Boyd & Vandenberghe, Convex
    Optimization, 5.5.3), member n is served while pbar_n*(g + O_n) >
    P_n*offset_n, and a served member ends at w + rho*rate = pbar*rate/mu.
    So with n the last served member the pool's value is the sum of
    pbar*log(w) over all of its members plus A_n + P_n*log((g + O_n)/P_n),
    and that sum alone when nobody is served or g is 0."""
    paid = []
    for j, (pb, wj, r) in enumerate(zip(pbar.tolist(), w.tolist(), rate.tolist())):
        # Python floats overflow and underflow without a warning
        if pb > 0.0 and r > 0.0:
            offset, ratio = wj / r, pb * r / wj
            if offset < math.inf and ratio > 0.0:
                paid.append((-ratio, j, pb, offset, pb * math.log(ratio)))
    paid.sort()
    return [lane[1:] for lane in paid]


def _macro_values(problem: SlotProblem, subsets) -> np.ndarray:
    """The closed-form value (_paid_lanes) of the macro pool of every
    branch pattern at once, the patterns being the columns of subsets
    (_subsets of the users) and each pattern's users on the macro the
    pool's members."""
    value = problem.pbar_mbs * np.log(problem.w_minus) @ subsets
    lanes = _paid_lanes(problem.pbar_mbs, problem.w_minus, problem.rate_mbs)
    if not lanes:
        return value
    index, pb, off, pb_log_ratio = (np.array(x) for x in zip(*lanes))
    member = subsets[index]
    # the running sums P, O and A over each pattern's members, lane by lane
    sums = np.array([pb, off, pb_log_ratio])[:, :, None] * member
    for c in range(1, len(lanes)):
        sums[:, c] += sums[:, c - 1]
    p, o, a = sums
    served = member & (pb[:, None] * (1.0 + o) > p * off[:, None])
    # the last served lane of each pattern, counted from 1 (0: nobody)
    last = (served * np.arange(1, len(lanes) + 1)[:, None]).max(axis=0)
    cols = np.flatnonzero(last)
    last = last[cols] - 1
    p, o, a = p[last, cols], o[last, cols], a[last, cols]
    value[cols] += a + p * np.log((1.0 + o) / p)
    return value


def _femto_steps(problem: SlotProblem, users) -> list:
    """Per subset of a femto's users (the columns of _subsets), the sum of
    pbar*log(w) over its members and its paid members' (pbar, offset, P,
    O, A) in waterfill order (_paid_lanes), as Python floats, at unit
    channel count."""
    pbar, w = problem.pbar_fbs[users], problem.w_minus[users]
    lanes = _paid_lanes(pbar, w, problem.rate_fbs[users])
    pb_log_w = (pbar * np.log(w)).tolist()
    steps = []
    for row in _subsets(len(users)).T.tolist():
        base = 0.0
        for x, inside in zip(pb_log_w, row):
            if inside:
                base += x
        p = o = a = 0.0
        paid = []
        for b, pb, off, pb_log_ratio in lanes:
            if row[b]:
                p, o, a = p + pb, o + off, a + pb_log_ratio
                paid.append((pb, off, p, o, a))
        steps.append((base, paid))
    return steps


def _femto_table(steps, g: float) -> list:
    """The closed-form value (_paid_lanes) of each subset's pool
    (_femto_steps) when the femto has g expected channels, which scales
    every member's rate by g."""
    table = []
    for base, paid in steps:
        last = None
        if g > 0.0:
            for lane in paid:
                pb, off, p, o, _ = lane
                if pb * (g + o) > p * off:
                    last = lane
        if last is not None:
            _, _, p, o, a = last
            base += a + p * math.log((g + o) / p)
        table.append(base)
    return table


class AllocationValue:
    """Objective improvement enabled by a channel allocation.

    Evaluations are memoized by the per-femto expected-channel vector, and
    the fresh vectors of one call are scored together. Each takes the slot
    optimum, which greedy's 1/(1 + d_max) guarantee assumes: for a fixed
    branch pattern the slot splits into per-transmitter pools, each
    waterfilled exactly, so the optimum is the best of all 2^K patterns.
    Each pattern is valued in closed form as the sum of its pools' values
    (_paid_lanes): the macro pool's for every pattern once, in numpy,
    since it does not depend on the channels, and each femto's for every
    subset of its users per channel count, in Python floats (memoized).
    A row's value is its best pattern's. Problems above
    ENUMERATION_MAX_USERS users are refused. A custom solver callable
    (problem, gi) -> objective replaces the enumeration and is called once
    per fresh vector.
    """

    def __init__(self, problem: SlotProblem, solver=None):
        if problem.num_users > ENUMERATION_MAX_USERS:
            raise ValueError(
                f"allocation value refused: {problem.num_users} users exceeds "
                f"the limit of {ENUMERATION_MAX_USERS}"
            )
        self.problem = problem
        self._solver = solver
        subsets = _subsets(problem.num_users)
        self._macro = _macro_values(problem, subsets)
        # per femto: each pattern's subset of its users on the femto, as a
        # column of their _subsets, those subsets' pool steps, and their
        # _femto_table per channel count
        self._femtos = []
        for i in range(1, problem.n_fbs + 1):
            users = np.flatnonzero(problem.assoc == i)
            bits = 1 << np.arange(len(users) - 1, -1, -1)
            index = 2 ** len(users) - 1 - bits @ subsets[users]
            self._femtos.append((index, _femto_steps(problem, users), {}))
        self._cache = {}
        zero = np.zeros(problem.n_fbs)
        [self.baseline] = self._solve(zero[None, :])
        self._cache[tuple(zero)] = 0.0

    def _solve(self, gis) -> list:
        """The slot optimum under each row of gis."""
        problem = self.problem
        if self._solver is not None:
            return [self._solver(problem, gi) for gi in gis]
        gis = _channel_rows(problem, gis)
        value = self._macro
        for (index, steps, tables), counts in zip(self._femtos, gis.T.tolist()):
            rows = []
            for g in counts:
                table = tables.get(g)
                if table is None:
                    table = tables[g] = _femto_table(steps, g)
                rows.append(table)
            value = value + np.array(rows)[:, index]
        return value.max(axis=1).tolist()

    def improvements(self, gis) -> list:
        """Improvement of each expected-channel vector in gis; the vectors
        not yet cached are solved together."""
        keys = [tuple(float(g) for g in gi) for gi in gis]
        fresh = list(dict.fromkeys(key for key in keys if key not in self._cache))
        if fresh:
            for key, objective in zip(fresh, self._solve(np.array(fresh, dtype=float))):
                self._cache[key] = objective - self.baseline
        return [self._cache[key] for key in keys]

    def improvement(self, gi) -> float:
        return self.improvements([gi])[0]


def greedy_alloc(
    problem: SlotProblem,
    channels,
    p_idle,
    graph: InterferenceGraph,
    value: AllocationValue,
):
    """Hand out (femto, channel) grants by largest marginal objective gain,
    as value measures it.

    After each pick the chosen pair and its graph neighbors on the same
    channel leave the candidate set, so edges never share a channel. Values
    equal bit for bit break to the lowest (femto, channel position); two
    candidates that tie only up to rounding, such as grants to femtos with
    identical links, go to whichever value rounds higher. Returns the
    allocation and the step trace.
    """
    p_idle = np.asarray(p_idle, dtype=float)
    channels = tuple(channels)
    if p_idle.shape != (len(channels),):
        raise ValueError("need one idle posterior per cleared channel")
    if graph.n_fbs != problem.n_fbs:
        raise ValueError("interference graph and problem disagree on femto count")

    n = problem.n_fbs
    assigned = np.zeros((n, len(channels)), dtype=int)
    candidates = {(i, m) for i in range(1, n + 1) for m in range(len(channels))}
    steps = []
    current_value = 0.0
    while candidates:
        pairs = sorted(candidates)
        gis = []
        for i, m in pairs:
            trial = assigned.copy()
            trial[i - 1, m] = 1
            gis.append(trial @ p_idle)
        best_pair = None
        best_value = -math.inf
        for (i, m), v in zip(pairs, value.improvements(gis)):
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
        candidates.discard((i, m))
        for nbr in graph.neighbors(i):
            candidates.discard((nbr, m))

    alloc = ChannelAllocation(channels=channels, p_idle=p_idle, assigned=assigned)
    alloc.validate(graph)
    return alloc, GreedyTrace(steps=steps, value=current_value, baseline=value.baseline)


def optbound_upper(trace: GreedyTrace) -> float:
    """Upper bound on the best allocation's improvement:
    greedy value plus each step's delta counted again per graph neighbor."""
    return trace.value + sum(s.degree * s.delta for s in trace.steps)
