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

import math
from dataclasses import dataclass

import numpy as np

# a transmitter's shares are scaled down once their sum passes 1 + _OVERLOAD_TOL
_OVERLOAD_TOL = 1e-6
# bisection steps on a pool's price in _bisect_pools
_POOL_BISECTIONS = 60
# iterates whose Lagrangian values the price iteration keeps before folding
# them into each row's lowest dual value
_UNFOLDED_ITERATES = 64
# 0-d operands, which numpy takes faster than Python floats
_ZERO, _ONE = np.zeros(()), np.ones(())


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

    __call__ and load are the reference route; step fuses them with the
    projected price step for the iteration's inner loop.
    """

    def __init__(self, problem: SlotProblem, g_user):
        rows, k = g_user.shape
        self.k = k
        self.n1 = problem.n_fbs + 1
        self.price_index = np.concatenate([np.zeros(k, dtype=int), problem.assoc])
        self.pbar = np.concatenate([problem.pbar_mbs, problem.pbar_fbs])
        self.w = np.concatenate([problem.w_minus, problem.w_minus])
        self.rate = np.concatenate(
            np.broadcast_arrays(problem.rate_mbs, problem.rate_fbs * g_user), axis=-1
        )
        self.unpaid = ~(self.rate > 0)
        # every offset is finite, so no lane computes inf - inf: zero-rate
        # lanes get 0 (their share is zeroed after clipping), and where a
        # subnormal rate overflows w/rate the largest float still clips
        # every priced share to 0
        self.offset = np.zeros_like(self.rate)
        with np.errstate(over="ignore"):
            np.divide(self.w, self.rate, out=self.offset, where=~self.unpaid)
        np.minimum(self.offset, np.finfo(float).max, out=self.offset)
        self.any_unpaid = bool(self.unpaid.any())
        # each row's femto loads fill their own n1 bincount slots, row-major
        self.bins = (problem.assoc + self.n1 * np.arange(rows)[:, None]).ravel()
        self.unpriced = np.full(self.rate.shape, math.inf)

    def keep(self, live):
        """Drop the rows of the stack where the boolean mask live is false."""
        self.rate, self.offset, self.unpaid = self.rate[live], self.offset[live], self.unpaid[live]
        self.any_unpaid = bool(self.unpaid.any())
        # row r's bins are assoc + n1*r, so the first rows' bins are a stack's
        self.bins = self.bins[: self.rate.shape[0] * self.k]
        self.unpriced = self.unpriced[: self.rate.shape[0]]

    def __call__(self, prices):
        """Branch, shares with the losing one zeroed, and Lagrangian values,
        each of shape (B, K), for prices of shape (B, n_fbs + 1). Ties go to
        the macro station."""
        # take, unlike [:, index], returns C order: row sums then run along
        # the contiguous user axis with the same rounding as a lone row
        price = prices.take(self.price_index, axis=1)
        priced = price > 0
        # a tiny price saturates pbar/price to +inf, which clips to 1
        with np.errstate(over="ignore"):
            interior = np.minimum(
                np.maximum(self.pbar / np.where(priced, price, 1.0) - self.offset, 0.0), 1.0
            )
        rho = np.where(self.unpaid, 0.0, np.where(priced, interior, 1.0))
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
        load = np.bincount(self.bins, weights=rho_fbs.ravel(), minlength=len(rho_fbs) * self.n1)
        load = load.reshape(len(rho_fbs), -1)
        load[:, 0] = rho_mbs.sum(axis=1)
        return load

    def step(self, prices, step):
        """One iterate of the price iteration, fused: __call__, load and the
        projected gradient step [prices - step*(1 - load)]^+ written out as
        the same floating-point operations on the same operands, so every
        output is theirs bit for bit. step is a 0-d array. Returns the
        branches, the next prices, the squared price movement per row, and
        both branches' Lagrangian values side by side, shape (B, 2K); the
        chosen ones are np.where(connect, values[:, :k], values[:, k:]).
        Call it with overflow ignored: a tiny price saturates pbar/price to
        +inf."""
        price = prices.take(self.price_index, axis=1)
        # a zero price keeps the +inf share, which clips to the whole slot
        rho = self.unpriced.copy()
        np.divide(self.pbar, price, out=rho, where=price > _ZERO)
        rho -= self.offset
        np.maximum(rho, _ZERO, out=rho)
        np.minimum(rho, _ONE, out=rho)
        if self.any_unpaid:
            np.copyto(rho, _ZERO, where=self.unpaid)
        value = rho * self.rate
        value += self.w
        np.log(value, out=value)
        value *= self.pbar
        price *= rho
        value -= price
        k = self.k
        connect = value[:, :k] >= value[:, k:]
        rho_fbs = np.where(connect, _ZERO, rho[:, k:])
        load = np.bincount(self.bins, weights=rho_fbs.ravel(), minlength=len(prices) * self.n1)
        load = load.reshape(len(prices), -1)
        # add.reduce is what ndarray.sum runs, without its Python wrapper
        load[:, 0] = np.add.reduce(np.where(connect, rho[:, :k], _ZERO), axis=1)
        np.subtract(_ONE, load, out=load)
        load *= step
        new_prices = np.subtract(prices, load, out=load)
        np.maximum(new_prices, _ZERO, out=new_prices)
        moved = new_prices - prices
        moved *= moved
        return connect, new_prices, np.add.reduce(moved, axis=1), value


def _lowest_dual(iterates):
    """Per row, the lowest Lagrangian value over a list of
    (connect, values, prices) iterates of _Responder.step, all of one
    stack. Row sums run along the contiguous last axis of the stacked
    iterates, so each rounds as it would in its own iterate."""
    rows, k = iterates[0][0].shape
    connect, value, prices = (
        np.concatenate(part).reshape(len(iterates), rows, -1) for part in zip(*iterates)
    )
    chosen = np.where(connect, value[..., :k], value[..., k:])
    dual = np.add.reduce(chosen, axis=2)
    dual += np.add.reduce(prices, axis=2)
    return np.minimum.reduce(dual, axis=0)


def _repaired(rho_mbs, rho_fbs, load, assoc):
    """Scale any transmitter's shares down when their sum exceeds the slot."""
    scale = np.divide(1.0, load, out=np.ones_like(load), where=load > 1.0 + _OVERLOAD_TOL)
    return rho_mbs * scale[:, :1], rho_fbs * np.take(scale, assoc, axis=1)


def _bisect_pools(pbar, w, rate):
    """Optimal shares for a (P, n) stack of pools, each bound to one
    transmitter and every rate positive: bisect each pool's price until its
    box-clipped stationary shares fill the slot. Sums run along the
    contiguous member axis, so each row's shares are bit for bit those of
    its pool alone."""
    offset = w / rate
    hi = np.max(pbar * rate / w, axis=1) * 2.0 + 1.0
    lo = np.zeros(len(hi))
    for _ in range(_POOL_BISECTIONS):
        mid = 0.5 * (lo + hi)
        full = np.minimum(np.maximum(pbar / mid[:, None] - offset, 0.0), 1.0).sum(axis=1) >= 1.0
        lo = np.where(full, mid, lo)
        hi = np.where(full, hi, mid)
    # hi only ever takes prices whose shares sum below 1 (the first hi gives
    # nobody a share), so the shares at hi never overfill the slot
    return np.minimum(np.maximum(pbar / hi[:, None] - offset, 0.0), 1.0)


def _pool_shares(pools) -> list:
    """Optimal shares for each pool in a list of (pbar, w, rate) member
    arrays; members with zero rate get nothing. Pools with the same number
    of positive-rate members are bisected as one stack. They are never
    padded to a common size: numpy sums 8 or more entries pairwise, so an
    inert member would change the rounding of a pool's sums."""
    shares = [np.zeros_like(w) for _, w, _ in pools]
    by_size = {}
    for j, (_, _, rate) in enumerate(pools):
        pos = rate > 0
        if pos.any():
            by_size.setdefault(int(pos.sum()), []).append((j, pos))
    for group in by_size.values():
        pbar, w, rate = (np.array([pools[j][a][pos] for j, pos in group]) for a in range(3))
        for (j, pos), filled in zip(group, _bisect_pools(pbar, w, rate)):
            shares[j][pos] = filled
    return shares


def _refill_patterns(problem: SlotProblem, g_user, patterns):
    """Best feasible shares for each row of a (N, K) stack of branch
    patterns, the pattern in row n under the channel counts in row n of
    g_user: waterfill each transmitter's pool independently. Pools are
    keyed by transmitter, members and their rates, so patterns and channel
    vectors that share a pool fill it once."""
    rf = problem.rate_fbs * g_user
    station = np.where(patterns, 0, problem.assoc)
    index, pools, placed = {}, [], []
    for n, row in enumerate(station):
        for s in range(problem.n_fbs + 1):
            members = row == s
            if not members.any():
                continue
            pbar, rate = (
                (problem.pbar_mbs, problem.rate_mbs) if s == 0 else (problem.pbar_fbs, rf[n])
            )
            key = (s, members.tobytes(), rate[members].tobytes())
            if key not in index:
                index[key] = len(pools)
                pools.append((pbar[members], problem.w_minus[members], rate[members]))
            placed.append((n, s, members, index[key]))
    shares = _pool_shares(pools)
    rho = np.zeros((2,) + patterns.shape)
    for n, s, members, j in placed:
        rho[int(s > 0), n, members] = shares[j]
    return rho[0], rho[1]


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
    lowest dual values; per row, its branch patterns in order of first
    appearance (as dict keys); and, with keep_iterates, per row its
    (iteration, prices) at every iterate.

    A row's prices are its whole state, so once they repeat an earlier
    iterate bit for bit every later iterate repeats with that period: its
    lowest dual value and branch patterns are final and it never converges.
    Without keep_iterates such a row runs on only to the iteration whose
    prices equal those after max_iters, and leaves the stack there. Repeats
    are found Brent-style against a snapshot taken at powers of two.

    Each iterate is one fused _Responder.step. Its Lagrangian values are
    kept and folded into the rows' lowest dual values only when rows leave,
    every _UNFOLDED_ITERATES iterates and at the end.
    """
    n_rows = len(g_user)
    iterations = np.full(n_rows, max_iters)
    converged = np.zeros(n_rows, dtype=bool)
    last_prices = np.empty((n_rows, len(start)))
    best_dual = np.empty(n_rows)
    first_seen = [{} for _ in range(n_rows)]
    iterates = [[] for _ in range(n_rows)]
    # the active stack: rows still iterating, their prices and lowest dual
    # values so far, the branch patterns of their previous iterate, and the
    # iteration at which a cycling row leaves (0 until it repeats)
    rows = np.arange(n_rows)
    respond = _Responder(problem, g_user)
    prices = np.tile(start, (n_rows, 1))
    dual = np.full(n_rows, math.inf)
    # (connect, values, prices) of the iterates not yet folded into dual
    unfolded = []
    last, last_code = None, b""
    due = np.zeros(n_rows, dtype=int)
    next_due = max_iters + 1
    # prices of iterate snap_it, each row compared as raw bytes so -0.0
    # differs from 0.0
    row_bytes = np.dtype((np.void, prices.itemsize * len(start)))
    snapshot, snap_it = prices.view(row_bytes)[:, 0], 1
    step, phi = np.array(step, dtype=float), np.array(phi, dtype=float)
    with np.errstate(over="ignore"):
        for it in range(1, max_iters + 1):
            connect, new_prices, moved, values = respond.step(prices, step)
            unfolded.append((connect, values, prices))
            # most iterates repeat the previous patterns; only changes can be new
            code = connect.tobytes()
            if code != last_code:
                if last is None:
                    changed = np.ones(len(rows), dtype=bool)
                else:
                    changed = np.any(connect != last, axis=1)
                for i in np.flatnonzero(changed):
                    first_seen[rows[i]].setdefault(connect[i].tobytes())
            if keep_iterates:
                for i, r in enumerate(rows):
                    iterates[r].append((it, prices[i]))
            last, last_code = connect, code
            prices = new_prices
            done = moved <= phi
            leave = done
            if not keep_iterates:
                bits = prices.view(row_bytes)[:, 0]
                repeat = bits == snapshot
                if np.count_nonzero(repeat):
                    # iterate it + 1 equals iterate snap_it: leave at the first
                    # iteration whose next prices are those after max_iters
                    period = it + 1 - snap_it
                    leave_at = it + (max_iters - it) % period
                    due[repeat] = leave_at
                    next_due = min(next_due, leave_at)
                if it == next_due:
                    leave = done | (due == it)
                    pending = due[due > it]
                    next_due = pending.min() if pending.size else max_iters + 1
                if not it & (it + 1):
                    snapshot, snap_it = bits, it + 1
            if np.count_nonzero(leave):
                dual = np.minimum(dual, _lowest_dual(unfolded))
                unfolded = []
                finished = rows[done]
                converged[finished] = True
                iterations[finished] = it
                finished = rows[leave]
                last_prices[finished] = prices[leave]
                best_dual[finished] = dual[leave]
                live = ~leave
                rows, prices, dual, last = rows[live], prices[live], dual[live], last[live]
                due, snapshot = due[live], snapshot[live]
                if not rows.size:
                    break
                respond.keep(live)
                last_code = last.tobytes()
            elif len(unfolded) == _UNFOLDED_ITERATES:
                dual = np.minimum(dual, _lowest_dual(unfolded))
                unfolded = []
    if unfolded:
        dual = np.minimum(dual, _lowest_dual(unfolded))
    last_prices[rows] = prices
    best_dual[rows] = dual
    return iterations, converged, last_prices, best_dual, first_seen, iterates


def _repaired_iterates(problem: SlotProblem, g_user, iterate_prices):
    """Branch patterns, repaired shares and objectives of the iterates at
    the rows of iterate_prices, under one row of per-user channel counts."""
    replay = _Responder(problem, np.broadcast_to(g_user, (len(iterate_prices), len(g_user))))
    connect, rho0, rhof, _ = replay(iterate_prices)
    rho0, rhof = _repaired(rho0, rhof, replay.load(rho0, rhof), problem.assoc)
    return connect, rho0, rhof, _objective(problem, g_user, connect, rho0, rhof)


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
    known: every visited branch pattern refilled exactly, the repaired
    iterates when tracing, and the two heuristics. Refilling a pattern
    dominates any repaired iterate of it in exact arithmetic, so untraced
    solves keep no iterates. In floating point it does not always: without
    the traced candidates, fig8's psnr rows move by about 1.4e-7 dB when the
    traced first seed is 19 or 53, which is why a traced solve keeps them.
    Rows that hit max_iters are flagged converged=False.
    """
    if step <= 0:
        raise ValueError("step size must be positive")
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

    # primal recovery: the dual iteration fixes each visited branch pattern,
    # and the continuous inner problem for a fixed pattern splits into
    # independent per-transmitter waterfilling problems solved exactly
    n_rows = len(gis)
    for r, seen in enumerate(first_seen):
        seen.setdefault(connect[r].tobytes())
    counts = [len(seen) for seen in first_seen]
    patterns = np.frombuffer(b"".join(b"".join(seen) for seen in first_seen), dtype=bool)
    patterns = patterns.reshape(-1, problem.num_users)
    owner = np.repeat(np.arange(n_rows), counts)
    # primal polish: the returned point is the best feasible point known,
    # so a finite stopping tolerance never leaves it below a baseline
    stack = [
        (patterns, *_refill_patterns(problem, g_user[owner], patterns)),
        _equal_split(problem, g_user),
        _best_link(problem, g_user),
    ]
    # a stable sort by row puts each row's candidates side by side, in order:
    # refilled patterns, equal split, best link
    owner = np.concatenate([owner, np.arange(n_rows), np.arange(n_rows)])
    order = np.argsort(owner, kind="stable")
    connect_all, rho0_all, rhof_all = (np.concatenate(part)[order] for part in zip(*stack))
    scores = _objective(problem, g_user[owner[order]], connect_all, rho0_all, rhof_all)
    bounds = np.cumsum([0] + [count + 2 for count in counts])

    solutions = []
    for r in range(n_rows):
        mine = slice(bounds[r], bounds[r + 1])
        cand = (connect_all[mine], rho0_all[mine], rhof_all[mine], scores[mine])
        trace = None
        if record_trace:
            tracked_prices = np.array([p for _, p in iterates[r]]).reshape(-1, len(start))
            traced = _repaired_iterates(problem, g_user[r], tracked_prices)
            trace = [(i, p.copy(), float(obj)) for (i, p), obj in zip(iterates[r], traced[3])]
            cand = tuple(np.concatenate(pair) for pair in zip(traced, cand))
        # argmax keeps the first of equal objectives, in the order traced
        # iterates, refilled patterns, equal split, best link
        k = int(np.argmax(cand[3]))
        objective = float(cand[3][k])
        d = float(dual[r])
        solutions.append(
            ScheduleSolution(
                connect_mbs=cand[0][k].copy(),
                rho_mbs=cand[1][k].copy(),
                rho_fbs=cand[2][k].copy(),
                objective=objective,
                dual_value=d,
                duality_gap=abs(d - objective) / max(abs(d), 1e-12),
                iterations=int(iterations[r]),
                converged=bool(converged[r]),
                prices=last_prices[r].copy(),
                trace=trace,
            )
        )
    return solutions


def solve_noninterfering(
    problem: SlotProblem,
    prices_init=None,
    step: float = 0.01,
    phi: float = 1e-6,
    max_iters: int = 10000,
    record_trace: bool = False,
) -> ScheduleSolution:
    """Price iteration for one slot under its channel vector problem.fbs_gi:
    the batch of one."""
    return solve_noninterfering_batch(
        problem,
        problem.fbs_gi[None, :],
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


def _heuristic_solution(problem: SlotProblem, heuristic) -> ScheduleSolution:
    """A baseline's schedule for the problem's channel vector: its batch of one."""
    g_user = problem.fbs_gi[problem.assoc - 1]
    connect, rho0, rhof = (part[0] for part in heuristic(problem, g_user[None, :]))
    return ScheduleSolution(
        connect_mbs=connect,
        rho_mbs=rho0,
        rho_fbs=rhof,
        objective=float(_objective(problem, g_user, connect, rho0, rhof)),
        dual_value=float("nan"),
        duality_gap=float("nan"),
        iterations=0,
        converged=True,
        prices=None,
    )


def heuristic_equal(problem: SlotProblem) -> ScheduleSolution:
    """Baseline: users pick the better link, transmitters split time evenly."""
    return _heuristic_solution(problem, _equal_split)


def heuristic_diversity(problem: SlotProblem) -> ScheduleSolution:
    """Baseline: users pick the better link, each transmitter then gives its
    whole slot to its best-link chooser; everyone else idles."""
    return _heuristic_solution(problem, _best_link)


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
    value: AllocationValue,
):
    """Hand out (femto, channel) grants by largest marginal objective gain,
    as value measures it.

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


def optbound_upper(trace: GreedyTrace) -> float:
    """Upper bound on the best allocation's improvement:
    greedy value plus each step's delta counted again per graph neighbor."""
    return trace.value + sum(s.degree * s.delta for s in trace.steps)
