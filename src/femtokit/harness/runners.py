"""Monte-Carlo experiment runners producing deterministic result rows."""

from dataclasses import dataclass

import numpy as np

from ..multicast import (
    LevelDemand,
    bounds,
    brute_force_multicast,
    heuristic_assign,
    snr_thresholds,
    solve_case1,
    solve_case2,
    solve_case3,
    total_power,
    verify_feasible,
)
from ..netmodel import FadingSpec, footprint_volume, make_rng, sample_gains, watts_to_dbm
from ..scheduler import (
    ENUMERATION_MAX_USERS,
    AllocationValue,
    InterferenceGraph,
    SlotProblem,
    greedy_alloc,
    heuristic_diversity,
    heuristic_equal,
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
from ..video import LossModel, StreamState, success_probability, update_psnr
from .config import ConfigError, MulticastConfig, StreamConfig, sweep_points
from .csvio import ResultRow, format_sweep
from .oracles import window_psnr_by_bits


class HarnessError(RuntimeError):
    """An internal consistency check failed during a run."""


# rng purposes, so adding draws to one stage never shifts another
_RNG_DEMAND = 0
_RNG_PRIMARY = 1
_RNG_SENSE = 2
_RNG_ACCESS = 3
_RNG_DELIVERY = 4

ALGORITHMS = ("proposed", "equal", "diversity")
# SINR (linear, so 0 dB) that a slot's packet needs to decode
_DECODE_THRESHOLD = 1.0
# multicast instances this small also get exhaustive-search rows
_EXHAUSTIVE_MAX_USERS = 8


def run_multicast(cfg: MulticastConfig, seeds) -> list:
    """Power-minimization experiment: one instance per (sweep value, seed)."""
    rows = []
    for si, (value, point) in enumerate(sweep_points(cfg)):
        sweep = format_sweep(value)
        for seed in seeds:
            rows.extend(_multicast_instance(point, seed, si, sweep))
    return rows


def multicast_instance(cfg: MulticastConfig, seed: int, sweep_index: int = 0):
    """Demand and fading draws for one experiment instance.

    Deterministic in (config, seed, sweep position): the demand stream and
    the fading stream are independent, so changing one scenario knob never
    shifts the draws of another. Returns (demand, gains).
    """
    n_stations = 1 + cfg.num_fbs
    rng = make_rng(seed, _RNG_DEMAND, sweep_index)
    user_level = tuple(int(v) for v in 1 + rng.integers(0, cfg.num_levels, cfg.num_users))
    if cfg.num_fbs == 0:
        coverage = (0,) * cfg.num_users
    else:
        femto = 1 + rng.integers(0, cfg.num_fbs, cfg.num_users)
        macro_only = rng.random(cfg.num_users) < cfg.macro_only_fraction
        coverage = tuple(int(c) for c in np.where(macro_only, 0, femto))
    demand = LevelDemand(num_levels=cfg.num_levels, user_level=user_level, coverage=coverage)

    means = np.full((n_stations, 1), cfg.mbs_gain_mean)
    if cfg.num_fbs:
        means[1:, 0] = cfg.fbs_gain_mean
    gains = sample_gains(
        FadingSpec(mean=means, seed=seed), n_stations, cfg.num_users, slot_index=sweep_index
    )
    return demand, gains


def _multicast_instance(cfg, seed, sweep_index, sweep):
    bandwidths = np.asarray(cfg.bandwidths_hz(), dtype=float)
    thresholds = snr_thresholds(cfg.target_rate_bps, bandwidths)
    demand, gains = multicast_instance(cfg, seed, sweep_index)

    if cfg.num_fbs == 0:
        solve = solve_case1
    elif cfg.num_fbs == 1 and all(c == 1 for c in demand.coverage):
        solve = solve_case2
    else:
        solve = solve_case3
    assignment, allocation = solve(demand, gains, thresholds, cfg.noise_w)
    _assert_feasible("proposed", allocation, assignment, gains, thresholds)

    rows = []

    def emit(algorithm, metric, value):
        rows.append(ResultRow(cfg.name, seed, sweep, algorithm, metric, value))

    def emit_power(algorithm, alloc):
        emit(algorithm, "total_power_w", alloc.total)
        emit(algorithm, "total_power_dbm", watts_to_dbm(alloc.total))
        emit(
            algorithm,
            "footprint_volume",
            footprint_volume(alloc.cumulative[:, 0], bandwidths),
        )

    emit_power("proposed", allocation)

    # without femtos the heuristic is the all-macro assignment, proposed's own
    if cfg.num_fbs > 0:
        h_assignment = heuristic_assign(demand, gains)
        h_allocation = total_power(h_assignment, gains, thresholds, cfg.noise_w)
        _assert_feasible("heuristic", h_allocation, h_assignment, gains, thresholds)
        emit_power("heuristic", h_allocation)

    b = bounds(demand, gains, thresholds, cfg.noise_w, assignment=assignment)
    emit("bounds", "upper_tight_w", b.upper_tight)
    emit("bounds", "upper_loose_w", b.upper_loose)
    emit("bounds", "lower_tight_w", b.lower_tight)
    emit("bounds", "lower_loose_w", b.lower_loose)

    if cfg.num_users <= _EXHAUSTIVE_MAX_USERS:
        x_assignment, x_allocation = brute_force_multicast(demand, gains, thresholds, cfg.noise_w)
        _assert_feasible("exhaustive", x_allocation, x_assignment, gains, thresholds)
        emit("exhaustive", "total_power_w", x_allocation.total)
        emit("exhaustive", "total_power_dbm", watts_to_dbm(x_allocation.total))
    return rows


def _assert_feasible(label, allocation, assignment, gains, thresholds):
    report = verify_feasible(allocation, assignment, gains, thresholds)
    if not report.feasible:
        raise HarnessError(
            f"{label} allocation violates an SNR constraint (worst slack {report.snr_slack.min()})"
        )


def run_streaming(cfg: StreamConfig, seeds) -> list:
    """Video-over-sensed-spectrum experiment.

    Every algorithm sees the same primary activity, sensing reports, access
    draws, channel allocation, and delivery coin flips; only the schedule
    differs. With more than one femto, greedy channel allocation scores
    candidates by enumerating branch patterns, so a config with more than
    ENUMERATION_MAX_USERS users fails before any instance runs.
    """
    if cfg.num_fbs > 1 and cfg.num_users > ENUMERATION_MAX_USERS:
        raise ConfigError(
            f"greedy channel allocation takes at most {ENUMERATION_MAX_USERS} users, "
            f"got {cfg.num_users} with {cfg.num_fbs} femto stations"
        )
    rows = []
    for si, (value, point) in enumerate(sweep_points(cfg)):
        sweep = format_sweep(value)
        for pos, seed in enumerate(seeds):
            emit_trace = cfg.emit_trace and si == 0 and pos == 0
            rows.extend(_stream_instance(point, seed, sweep, emit_trace))
    return rows


def _slot_template(cfg: StreamConfig) -> SlotProblem:
    """The instance's per-user link constants as a slot problem at base-layer
    quality with no femto channels; each slot replaces w_minus and fbs_gi
    (SlotProblem.for_slot, which checks only those two)."""
    beta = np.asarray(cfg.beta_db_per_bps)

    def delivery_probability(mean_sinr):
        return np.array(
            [success_probability(LossModel(_DECODE_THRESHOLD, mu)) for mu in mean_sinr]
        )

    return SlotProblem(
        w_minus=cfg.alpha_db,
        pbar_mbs=delivery_probability(cfg.mean_sinr_mbs),
        pbar_fbs=delivery_probability(cfg.mean_sinr_fbs),
        rate_mbs=beta * cfg.common_bandwidth_bps / cfg.window_slots,
        rate_fbs=beta * cfg.channel_bandwidth_bps / cfg.window_slots,
        assoc=cfg.assoc,
        n_fbs=cfg.num_fbs,
        fbs_gi=np.zeros(cfg.num_fbs),
    )


@dataclass
class _Tally:
    """Per-instance sums behind the proposed scheduler's and the access
    layer's metric rows, and the prices the next slot warm-starts from."""

    collisions: np.ndarray
    expected_available: float = 0.0
    objective: float = 0.0
    iterations: int = 0
    duality_gap: float = 0.0
    converged: int = 0
    upper_bound: float = 0.0
    warm_prices: "np.ndarray | None" = None
    trace: "list | None" = None


def _stream_instance(cfg: StreamConfig, seed, sweep, emit_trace) -> list:
    """One stream instance in three stages. The channel draws (occupancy,
    sensing, fusion, access) and the delivery coins depend on no schedule,
    so they are drawn for all slots at once. The proposed chain runs slot
    by slot, since each slot's solve starts from the quality and prices the
    previous one left. The baselines' schedules depend on no quality, so
    both are scheduled, checked and delivered once over all slots after
    the chain."""
    rng_init = make_rng(seed, _RNG_DEMAND)
    channels = [PrimaryChannel(cfg.p01, cfg.p10) for _ in range(cfg.num_channels)]
    for ch in channels:
        ch.reset_stationary(rng_init)
    draws = channel_draws(
        channels,
        SensorProfile(cfg.false_alarm, cfg.miss),
        AccessPolicy(cfg.gamma),
        cfg.num_users,
        cfg.num_slots,
        make_rng(seed, _RNG_PRIMARY),
        make_rng(seed, _RNG_SENSE),
        make_rng(seed, _RNG_ACCESS),
    )
    tally = _Tally(
        collisions=(draws.cleared & (draws.busy == 1)).sum(axis=0).astype(float),
        # running sum in slot order, as slot-by-slot tallies add
        expected_available=float(np.cumsum(draws.expected)[-1]),
    )

    template = _slot_template(cfg)
    alpha = template.w_minus
    if cfg.max_rate_bps is None:
        cap = np.full(cfg.num_users, np.inf)
    else:
        cap = alpha + np.asarray(cfg.beta_db_per_bps) * np.asarray(cfg.max_rate_bps)
    coins = make_rng(seed, _RNG_DELIVERY).random((cfg.num_slots, cfg.num_users))
    # one coin per user and slot decides, for every algorithm alike, whether
    # its macro and femto transmissions arrive
    xi_mbs = (coins < template.pbar_mbs).astype(float)
    xi_fbs = (coins < template.pbar_fbs).astype(float)

    window_sums = {name: np.zeros(cfg.num_users) for name in ALGORITHMS}
    gis, quality, objectives = _proposed_chain(
        cfg, template, cap, draws, xi_mbs, xi_fbs, tally, window_sums, emit_trace
    )
    schedules = _baselines(template, gis, quality, objectives)
    g_user = np.take(gis, template.assoc - 1, axis=1)
    for name, sched in schedules.items():
        state = StreamState(alpha, template.rate_mbs, template.rate_fbs, cap)
        _deliver_windows(cfg, name, state, sched, xi_mbs, xi_fbs, g_user, window_sums)
    return _stream_rows(cfg, seed, sweep, window_sums, tally)


@dataclass
class ChannelDraws:
    """An instance's channel draws, one row per slot.

    busy: (S, M) true occupancy. reports and valid: (S, M, R) sensing
    reports on each channel, in fusion order (its sensing users in user
    order, then the femto), padded to the longest list; valid marks the
    reports. p_idle: (S, M) fused idle posteriors. cleared: (S, M) access
    mask. expected: (S,) expected available channel count per slot.
    """

    busy: np.ndarray
    reports: np.ndarray
    valid: np.ndarray
    p_idle: np.ndarray
    cleared: np.ndarray
    expected: np.ndarray


def channel_draws(
    channels, profile, policy, num_users, num_slots, rng_primary, rng_sense, rng_access
) -> ChannelDraws:
    """Occupancy, sensing, fusion and access for every slot at once.

    In slot t user j senses channel (j + t) mod M, and the femto senses
    every channel. A slot's sensing draws go channel by channel, each
    channel's users in user order and then the femto, as reports taken
    one at a time would draw them; so do its occupancy and access draws.
    """
    M, K, S = len(channels), num_users, num_slots
    busy = step_primary(channels, rng_primary, slots=S)

    # channel m's first sensing user in slot t is (m - t) mod M, every M-th
    # user after it senses m too, and the femto adds one more report
    first = (np.arange(M)[None, :] - np.arange(S)[:, None]) % M
    n_reports = (K - first + M - 1) // M + 1
    R = int(n_reports.max())
    valid = np.arange(R) < n_reports[..., None]
    # each report's position among its slot's K + M sensing draws
    position = (np.cumsum(n_reports, axis=1) - n_reports)[..., None] + np.arange(R)
    slot, channel, _ = np.nonzero(valid)
    at = position[valid]
    sensed = np.zeros((S, K + M), dtype=int)
    sensed[slot, at] = busy[slot, channel]
    reports = np.zeros((S, M, R), dtype=int)
    reports[valid] = sense(sensed, profile, rng_sense)[slot, at]

    priors = np.array([ch.busy_prior for ch in channels])
    p_idle = fuse_beliefs(priors, reports, [profile] * R, valid=valid)

    decision = decide_access(p_idle.ravel(), policy, rng_access)
    cleared = np.zeros(S * M, dtype=bool)
    cleared[list(decision.available)] = True
    cleared = cleared.reshape(S, M)
    # each slot's sum over its cleared channels, in channel order
    expected = np.cumsum(np.where(cleared, p_idle, 0.0), axis=1)[:, -1]
    return ChannelDraws(busy, reports, valid, p_idle, cleared, expected)


def _proposed_chain(cfg, template, cap, draws, xi_mbs, xi_fbs, tally, window_sums, emit_trace):
    """Allocation, the warm-started slot solve and delivery of the proposed
    scheduler, slot by slot, with its window checks. Returns the channel
    vectors (S, n_fbs), the quality each slot was solved at (S, K) and the
    slot objectives (a list of floats)."""
    graph = InterferenceGraph(cfg.num_fbs, tuple(tuple(e) for e in cfg.edges))
    state = StreamState(template.w_minus, template.rate_mbs, template.rate_fbs, cap)
    bits = np.zeros(cfg.num_users)
    gis = np.empty((cfg.num_slots, cfg.num_fbs))
    quality = np.empty((cfg.num_slots, cfg.num_users))
    objectives = []
    for t in range(cfg.num_slots):
        quality[t] = state.psnr
        gis[t] = gi = _allocate(cfg, template, state.psnr, draws, t, graph, tally)
        sol = _schedule(cfg, template, state.psnr, gi, tally, emit_trace and t == 0)
        objectives.append(sol.objective)
        g_user = gi[template.assoc - 1]
        update_psnr(state, sol.connect_mbs, sol.rho_mbs, sol.rho_fbs, xi_mbs[t], xi_fbs[t], g_user)
        bits += _delivered_bits(cfg, sol, xi_mbs[t], xi_fbs[t], g_user)
        if (t + 1) % cfg.window_slots == 0:
            _close_window(cfg, t, "proposed", state, bits, window_sums)
            bits = np.zeros(cfg.num_users)
    return gis, quality, objectives


def _allocate(cfg, template, psnr, draws, t, graph, tally) -> np.ndarray:
    """Allocation: each femto's expected available channel count in slot t.

    A lone femto takes every cleared channel. Interfering femtos share them
    by greedy marginal value, and the greedy bound on the best allocation's
    objective is tallied.
    """
    if cfg.num_fbs == 1:
        return draws.expected[t : t + 1]
    base = template.for_slot(psnr, template.fbs_gi)
    evaluator = AllocationValue(base)
    avail = np.flatnonzero(draws.cleared[t])
    alloc, gtrace = greedy_alloc(
        base, tuple(avail.tolist()), draws.p_idle[t, avail], graph, value=evaluator
    )
    tally.upper_bound += evaluator.baseline + optbound_upper(gtrace)
    return alloc.gi()


def _schedule(cfg, template, psnr, gi, tally, record_trace):
    """The proposed scheduler's solve of one slot, warm-started from the
    previous slot's prices, with its tallies."""
    prob = template.for_slot(psnr.copy(), gi)
    sol = solve_noninterfering(
        prob,
        prices_init=tally.warm_prices,
        step=cfg.step,
        phi=cfg.phi,
        max_iters=cfg.max_iters,
        record_trace=record_trace,
    )
    tally.warm_prices = sol.prices
    tally.objective += sol.objective
    tally.iterations += sol.iterations
    tally.duality_gap += sol.duality_gap
    tally.converged += sol.converged
    if record_trace:
        tally.trace = sol.trace
    return sol


def _baselines(template, gis, quality, objectives) -> dict:
    """Both baselines' schedules for every slot, by name.

    A baseline's schedule depends on the links, the femto memberships and
    the channel counts, never on the current quality, so each rule runs
    once over the stacked channel vectors. Neither may beat the proposed
    scheduler on its problem: its objective is taken under the quality the
    proposed scheduler solved each slot at, and the first slot where one
    is higher fails the run.
    """
    equal = heuristic_equal(template, quality, gis)
    diversity = heuristic_diversity(template, quality, gis)
    floor = np.array(objectives) + 1e-9
    beaten = (equal.objective > floor) | (diversity.objective > floor)
    if beaten.any():
        t = int(np.argmax(beaten))
        rival = equal if equal.objective[t] > floor[t] else diversity
        raise HarnessError(
            f"slot {t}: schedule objective {objectives[t]!r} "
            f"below feasible point {float(rival.objective[t])!r}"
        )
    return {"equal": equal, "diversity": diversity}


def _delivered_bits(cfg, sol, xi_mbs, xi_fbs, g_user):
    """Bits each user receives in a slot, or in each row of stacked slots."""
    return np.where(
        sol.connect_mbs,
        xi_mbs * sol.rho_mbs * cfg.common_bandwidth_bps,
        xi_fbs * sol.rho_fbs * g_user * cfg.channel_bandwidth_bps,
    )


def _deliver_windows(cfg, name, state, sched, xi_mbs, xi_fbs, g_user, window_sums):
    """Delivery of a stacked schedule (one row per slot): each window's
    slots update quality in one call, the window's bits are their running
    sum in slot order, and each window is closed as the proposed chain
    closes its windows."""
    bits = _delivered_bits(cfg, sched, xi_mbs, xi_fbs, g_user)
    T = cfg.window_slots
    for end in range(T, cfg.num_slots + 1, T):
        rows = slice(end - T, end)
        update_psnr(
            state,
            sched.connect_mbs[rows],
            sched.rho_mbs[rows],
            sched.rho_fbs[rows],
            xi_mbs[rows],
            xi_fbs[rows],
            g_user[rows],
        )
        _close_window(cfg, end - 1, name, state, np.cumsum(bits[rows], axis=0)[-1], window_sums)


def _close_window(cfg, t, name, state, bits, window_sums):
    """Bit ledger: the window quality must equal the one its delivered
    bits imply. Then quality restarts."""
    window_sums[name] += state.psnr
    expected = window_psnr_by_bits(
        cfg.alpha_db, cfg.beta_db_per_bps, bits, cfg.max_rate_bps, cfg.window_slots
    )
    drift = float(np.abs(state.psnr - expected).max())
    # written so that a NaN drift fails
    if not drift <= 1e-9:
        raise HarnessError(f"slot {t}: {name} quality drifted {drift!r} from bit ledger")
    state.reset_window()


def _stream_rows(cfg, seed, sweep, window_sums, tally) -> list:
    rows = []

    def emit(algorithm, metric, value):
        rows.append(ResultRow(cfg.name, seed, sweep, algorithm, metric, value))

    n_slots = cfg.num_slots
    windows = n_slots // cfg.window_slots
    for name in ALGORITHMS:
        mean_by_user = window_sums[name] / windows
        emit(name, "psnr_mean", float(mean_by_user.mean()))
        for j in range(cfg.num_users):
            emit(name, f"psnr_user_{j}", float(mean_by_user[j]))
    emit("proposed", "objective_mean", tally.objective / n_slots)
    emit("proposed", "iterations_mean", tally.iterations / n_slots)
    emit("proposed", "duality_gap_mean", tally.duality_gap / n_slots)
    emit("proposed", "converged_fraction", tally.converged / n_slots)
    if cfg.num_fbs > 1:
        emit("proposed", "objective_upper_bound_mean", tally.upper_bound / n_slots)
    emit("access", "collision_rate_max", float(tally.collisions.max()) / n_slots)
    emit("access", "collision_rate_mean", float(tally.collisions.mean()) / n_slots)
    emit("access", "expected_available_mean", tally.expected_available / n_slots)

    if tally.trace is not None:
        trace_rows = [
            ResultRow(cfg.name, seed, str(it), "proposed", "trace_objective", obj)
            for it, _prices, obj in tally.trace
        ]
        rows = trace_rows + rows
    return rows
