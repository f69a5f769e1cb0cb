"""Minimum-power layered multicast with superposition coding and SIC.

A macro station (id 0) and up to M femto stations transmit a layered packet
stream. Each user requests exactly one layer per slot and listens to exactly
one station; it decodes and cancels all lower layers first, so the residual
interference seen at layer l is the station's cumulative power above l. For a
station m serving user sets U_1..U_L the minimum cumulative powers obey the
backward recursion

    Q_{L+1} = 0,   Q_l = f(Q_{l+1}, U_l)

with f defined in :func:`f_step`, and fold into the closed form

    Q_1 = N0 * Gamma * sum_l (1 + Gamma)^{c_l} * max_{k in U_l} 1/H_k

where the running exponent c_l counts the nonempty layers below l. The
solvers in this module pick which stations transmit each layer so that the
summed cumulative powers are (near) minimal.
"""

from dataclasses import dataclass

import numpy as np

# verify_feasible tolerates a negative SNR slack this large, relative to max(Gamma, 1)
_SNR_REL_TOL = 1e-9
# brute_force_multicast enumerates up to 2^K assignments
_BRUTE_FORCE_MAX_USERS = 12
# smallest accepted channel gain: the smallest normal float, whose 1/H is finite
_MIN_GAIN = np.finfo(float).tiny


def snr_threshold(target_rate_bps: float, bandwidth_hz: float) -> float:
    """SNR needed to sustain target_rate over bandwidth: 2^(R/B) - 1."""
    if target_rate_bps < 0:
        raise ValueError("target rate must be non-negative")
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return 2.0 ** (target_rate_bps / bandwidth_hz) - 1.0


def snr_thresholds(target_rate_bps: float, bandwidths_hz) -> np.ndarray:
    """Per-station thresholds for a common target rate."""
    return np.array([snr_threshold(target_rate_bps, b) for b in bandwidths_hz])


@dataclass(frozen=True)
class LevelDemand:
    """Per-slot demand: which layer each user requests and who covers them.

    user_level[k] in 1..num_levels is the layer user k requests; coverage[k]
    is the femto station covering user k, with 0 meaning macro-only reach.
    """

    num_levels: int
    user_level: tuple
    coverage: tuple

    def __post_init__(self):
        if self.num_levels < 1:
            raise ValueError("need at least one layer")
        if len(self.user_level) != len(self.coverage):
            raise ValueError("user_level and coverage must have one entry per user")
        if len(self.user_level) == 0:
            raise ValueError("need at least one user")
        bad = [l for l in self.user_level if not 1 <= l <= self.num_levels]
        if bad:
            raise ValueError(f"requested layers out of range: {bad}")
        if any(c < 0 for c in self.coverage):
            raise ValueError("coverage entries must be >= 0")

    @property
    def num_users(self) -> int:
        return len(self.user_level)

    def users_at(self, level: int) -> tuple:
        return tuple(k for k, l in enumerate(self.user_level) if l == level)

    def eligible(self, level: int, station: int) -> tuple:
        """Users of the layer that station could serve (macro serves anyone)."""
        if station == 0:
            return self.users_at(level)
        return tuple(
            k for k, l in enumerate(self.user_level) if l == level and self.coverage[k] == station
        )

    def options(self, user: int) -> tuple:
        """Stations user may listen to: the macro, plus its femto if covered."""
        c = self.coverage[user]
        return (0,) if c == 0 else (0, c)


@dataclass(frozen=True)
class LevelAssignment:
    """Connection decision: serving[k] is the station user k listens to."""

    demand: LevelDemand
    serving: tuple

    def __post_init__(self):
        if len(self.serving) != self.demand.num_users:
            raise ValueError("need one serving station per user")
        for k, m in enumerate(self.serving):
            if m not in self.demand.options(k):
                raise ValueError(f"user {k} cannot listen to station {m}")

    def served_mask(self, n_stations: int) -> np.ndarray:
        """(n_stations, L) booleans: station m transmits layer l."""
        mask = np.zeros((n_stations, self.demand.num_levels), dtype=bool)
        for l, m in zip(self.demand.user_level, self.serving):
            mask[m, l - 1] = True
        return mask

    def exponents(self, n_stations: int) -> np.ndarray:
        """Running exponents c[m, l-1]: nonempty layers of station m below l."""
        mask = self.served_mask(n_stations)
        c = np.zeros_like(mask, dtype=int)
        c[:, 1:] = np.cumsum(mask[:, :-1], axis=1)
        return c


@dataclass(frozen=True)
class PowerAllocation:
    """Cumulative and per-layer powers for every station.

    cumulative[m, i] is the power station m spends on layers i+1..L, so
    column 0 holds the station totals and column L is identically zero.
    """

    cumulative: np.ndarray
    per_level: np.ndarray
    total: float
    noise: float


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    snr_slack: np.ndarray


@dataclass(frozen=True)
class PowerBounds:
    upper_tight: float
    upper_loose: float
    lower_tight: float
    lower_loose: float


def f_step(q_next: float, users, gains_row, gamma: float, noise: float) -> float:
    """One backward step of the cumulative-power recursion for one station.

    With no users at the layer the cumulative power passes through unchanged;
    otherwise the layer must clear SNR gamma at its worst user on top of the
    residual q_next, costing max_k { noise*gamma/H_k + (1+gamma)*q_next }.
    """
    if q_next < 0:
        raise ValueError("cumulative power cannot be negative")
    if gamma < 0:
        raise ValueError("SNR threshold cannot be negative")
    users = tuple(users)
    if not users:
        return q_next
    worst = max(1.0 / gains_row[k] for k in users)
    return noise * gamma * worst + (1.0 + gamma) * q_next


def _level_buckets(assignment: LevelAssignment):
    """users grouped by (station, level), one linear pass."""
    buckets = {}
    for k, (l, m) in enumerate(zip(assignment.demand.user_level, assignment.serving)):
        buckets.setdefault((m, l), []).append(k)
    return buckets


def total_power(
    assignment: LevelAssignment, gains: np.ndarray, thresholds, noise: float
) -> PowerAllocation:
    """Minimum powers for a fixed assignment, by the backward recursion."""
    gains = np.asarray(gains, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    _check_inputs(assignment.demand, gains, thresholds, noise)
    n_stations = gains.shape[0]
    L = assignment.demand.num_levels
    buckets = _level_buckets(assignment)

    q = np.zeros((n_stations, L + 1))
    for m in range(n_stations):
        for l in range(L, 0, -1):
            q[m, l - 1] = f_step(
                q[m, l], buckets.get((m, l), ()), gains[m], thresholds[m], noise
            )
    per_level = q[:, :-1] - q[:, 1:]
    return PowerAllocation(
        cumulative=q, per_level=per_level, total=float(q[:, 0].sum()), noise=noise
    )


def verify_feasible(
    allocation: PowerAllocation,
    assignment: LevelAssignment,
    gains: np.ndarray,
    thresholds,
) -> FeasibilityReport:
    """Check every user's post-cancellation SNR against its station threshold.

    The slack for user k served layer l by station m is
    H*P_l/(noise + H*Q_{l+1}) - Gamma_m; feasible means every slack is above
    -_SNR_REL_TOL (relative to max(Gamma, 1)).
    """
    gains = np.asarray(gains, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    K = assignment.demand.num_users
    slack = np.empty(K)
    feasible = True
    for k in range(K):
        m = assignment.serving[k]
        l = assignment.demand.user_level[k]
        h = gains[m, k]
        p = allocation.per_level[m, l - 1]
        residual = allocation.cumulative[m, l]
        snr = h * p / (allocation.noise + h * residual)
        slack[k] = snr - thresholds[m]
        if slack[k] < -_SNR_REL_TOL * max(1.0, thresholds[m]):
            feasible = False
    return FeasibilityReport(feasible=feasible, snr_slack=slack)


def _geom_sum(gamma: float, n: int) -> float:
    """((1+gamma)^n - 1)/gamma, continued as n at gamma=0."""
    if gamma == 0.0:
        return float(n)
    return ((1.0 + gamma) ** n - 1.0) / gamma


def bounds(
    demand: LevelDemand,
    gains: np.ndarray,
    thresholds,
    noise: float,
    assignment: LevelAssignment = None,
) -> PowerBounds:
    """Closed-form sandwich around the minimum total power.

    Upper bounds price every layer of a feasible assignment (the heuristic
    one when none is given) at the station's overall worst served user with
    fully grown exponents. Lower bounds need no assignment: every layer must
    reach its bottleneck user through some eligible station, and with
    n_stations transmitters at most n_stations layers can be served at each
    exponent value, so the r-th largest per-layer floor pays at least
    (1+Gamma_min)^floor((r-1)/n_stations).
    """
    gains = np.asarray(gains, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    _check_inputs(demand, gains, thresholds, noise)
    if assignment is None:
        assignment = heuristic_assign(demand, gains)
    n_stations = gains.shape[0]
    L = demand.num_levels

    buckets = _level_buckets(assignment)
    gbar = np.zeros(n_stations)
    for (m, _l), users in buckets.items():
        gbar[m] = max(gbar[m], thresholds[m] * max(1.0 / gains[m, k] for k in users))
    upper_tight = noise * sum(gbar[m] * _geom_sum(thresholds[m], L) for m in range(n_stations))
    upper_loose = noise * float(gbar.max()) * n_stations * _geom_sum(float(thresholds.max()), L)

    gamma_min = float(thresholds.min())
    floors = []
    for l in range(1, L + 1):
        users = demand.users_at(l)
        if not users:
            continue
        floors.append(
            max(min(thresholds[m] / gains[m, k] for m in demand.options(k)) for k in users)
        )
    floors.sort(reverse=True)
    growth = [(1.0 + gamma_min) ** (r // n_stations) for r in range(len(floors))]
    lower_tight = noise * sum(f * g for f, g in zip(floors, growth))
    lower_loose = noise * (min(floors) if floors else 0.0) * sum(growth)
    return PowerBounds(
        upper_tight=float(upper_tight),
        upper_loose=float(upper_loose),
        lower_tight=float(lower_tight),
        lower_loose=float(lower_loose),
    )


def heuristic_assign(demand: LevelDemand, gains: np.ndarray) -> LevelAssignment:
    """Baseline: every user listens to its strongest eligible station.

    Ties go to the macro station (lower id), so runs are deterministic.
    """
    gains = np.asarray(gains, dtype=float)
    serving = []
    for k in range(demand.num_users):
        best = 0
        for m in demand.options(k)[1:]:
            if gains[m, k] > gains[best, k]:
                best = m
        serving.append(best)
    return LevelAssignment(demand=demand, serving=tuple(serving))


def solve_case1(demand: LevelDemand, gains: np.ndarray, thresholds, noise: float):
    """All users on the macro station: the backward recursion of the
    all-macro assignment, whose total is the closed form above."""
    assignment = LevelAssignment(demand=demand, serving=(0,) * demand.num_users)
    return assignment, total_power(assignment, gains, thresholds, noise)


def solve_case2(demand: LevelDemand, gains: np.ndarray, thresholds, noise: float):
    """Macro + one femto with full overlap: solve_case3 on two stations.

    With every user covered the macro never keeps a residual, so each layer
    goes whole to the station with the smaller marginal cost
    Gamma_m * (1+Gamma_m)^{c_m} * (worst 1/H_m); ties prefer the macro. The
    rule is greedy, not optimal: on random full-overlap instances it sits
    above the exhaustive optimum about a third of the time, by up to 10x.
    """
    if len(gains) != 2:
        raise ValueError("this solver handles exactly one femto station")
    if any(c != 1 for c in demand.coverage):
        raise ValueError("every user must be covered by the femto station")
    return solve_case3(demand, gains, thresholds, noise)


def solve_case3(demand: LevelDemand, gains: np.ndarray, thresholds, noise: float):
    """Macro + M femtos with partial coverage: greedy per-layer partitions.

    For each layer, femto stations are admitted in ascending order of their
    marginal cost Delta_m = Gamma_m*(1+Gamma_m)^{c_m}*(worst eligible 1/H_m),
    as long as admitting one strictly beats the best split found so far,
    where the macro covers everyone left over. Running exponents advance for
    every station that ends up transmitting the layer. O(M*L) decisions, then
    one backward power pass.
    """
    gains = np.asarray(gains, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    _check_inputs(demand, gains, thresholds, noise)
    n_stations = gains.shape[0]
    femtos = list(range(1, n_stations))

    c = [0] * n_stations
    serving = [None] * demand.num_users
    for l in range(1, demand.num_levels + 1):
        users = demand.users_at(l)
        if not users:
            continue

        def macro_cost(residual_users):
            if not residual_users:
                return 0.0
            worst = max(1.0 / gains[0, k] for k in residual_users)
            return thresholds[0] * (1.0 + thresholds[0]) ** c[0] * worst

        delta = [0.0] * n_stations
        delta[0] = macro_cost(users)
        for m in femtos:
            elig = demand.eligible(l, m)
            if elig:
                worst = max(1.0 / gains[m, k] for k in elig)
                delta[m] = thresholds[m] * (1.0 + thresholds[m]) ** c[m] * worst

        psi = set()
        best = delta[0]
        pending = list(femtos)
        while pending:
            mp = min(pending, key=lambda m: (delta[m], m))
            trial = psi | {mp}
            residual = [k for k in users if demand.coverage[k] not in trial]
            cand = sum(delta[m] for m in trial) + macro_cost(residual)
            if cand < best:
                psi = trial
                best = cand
            pending.remove(mp)

        macro_side = []
        for k in users:
            if demand.coverage[k] in psi:
                serving[k] = demand.coverage[k]
            else:
                serving[k] = 0
                macro_side.append(k)
        if macro_side:
            c[0] += 1
        for m in psi:
            c[m] += 1

    assignment = LevelAssignment(demand=demand, serving=tuple(serving))
    return assignment, total_power(assignment, gains, thresholds, noise)


def brute_force_multicast(demand: LevelDemand, gains: np.ndarray, thresholds, noise: float):
    """Exact optimum by enumerating every per-user connection choice.

    All A <= 2^K assignments are scored at once by _assignment_totals, whose
    totals equal total_power's bit for bit, so instances are refused above
    _BRUTE_FORCE_MAX_USERS users only to bound the (A, K) stack. Ties keep
    the lexicographically first assignment. The winner is re-scored with
    total_power, which gives the returned allocation.
    """
    gains = np.asarray(gains, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    _check_inputs(demand, gains, thresholds, noise)
    K = demand.num_users
    if K > _BRUTE_FORCE_MAX_USERS:
        raise ValueError(
            f"brute force refused: {K} users exceeds the limit of {_BRUTE_FORCE_MAX_USERS}"
        )
    serving, totals = _assignment_totals(demand, gains, thresholds, noise)
    best = tuple(int(m) for m in serving[np.argmin(totals)])
    assignment = LevelAssignment(demand=demand, serving=best)
    return assignment, total_power(assignment, gains, thresholds, noise)


def _assignment_totals(demand: LevelDemand, gains: np.ndarray, thresholds, noise: float):
    """(serving, totals): every assignment as an (A, K) array in
    itertools.product order, and its total power.

    The backward recursion runs for all assignments at once, one station
    and layer at a time, with f_step's own arithmetic: a bucket's worst
    user is its largest 1/H, and an empty bucket passes q_next through.
    Station totals are summed along a contiguous axis, as total_power sums
    its column of them, so each total is total_power's bit for bit.
    """
    grids = np.meshgrid(*(demand.options(k) for k in range(demand.num_users)), indexing="ij")
    serving = np.stack([g.ravel() for g in grids], axis=1)
    station_q = np.zeros((len(serving), gains.shape[0]))
    for m, gamma in enumerate(thresholds):
        q = np.zeros(len(serving))
        for l in range(demand.num_levels, 0, -1):
            users = list(demand.eligible(l, m))
            if users:
                hit = serving[:, users] == m
                worst = np.where(hit, 1.0 / gains[m, users], 0.0).max(axis=1)
                q = np.where(hit.any(axis=1), noise * gamma * worst + (1.0 + gamma) * q, q)
        station_q[:, m] = q
    return serving, station_q.sum(axis=1)


def _check_inputs(demand: LevelDemand, gains: np.ndarray, thresholds, noise: float) -> None:
    if gains.ndim != 2:
        raise ValueError("gains must be a (stations, users) matrix")
    n_stations, n_users = gains.shape
    if n_users != demand.num_users:
        raise ValueError(f"gains give {n_users} users, demand has {demand.num_users}")
    if len(thresholds) != n_stations:
        raise ValueError("need one SNR threshold per station")
    if not np.isfinite(gains).all():
        raise ValueError("channel gains must be finite")
    # a subnormal gain's 1/H overflows, and 0 * inf is a NaN at Gamma = 0
    if gains.min() < _MIN_GAIN:
        raise ValueError("channel gains must be positive normal floats")
    thresholds = np.asarray(thresholds)
    if not np.isfinite(thresholds).all():
        raise ValueError("SNR thresholds must be finite")
    if (thresholds < 0).any():
        raise ValueError("SNR thresholds cannot be negative")
    if not np.isfinite(noise):
        raise ValueError("noise power must be finite")
    if noise <= 0:
        raise ValueError("noise power must be positive")
    if any(c >= n_stations for c in demand.coverage):
        raise ValueError("coverage refers to stations outside the gain matrix")
