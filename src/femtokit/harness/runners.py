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
    AllocationValue,
    InterferenceGraph,
    SlotProblem,
    greedy_alloc,
    heuristic_diversity,
    heuristic_equal,
    init_prices,
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
from .config import MulticastConfig, StreamConfig, sweep_points
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
# price iterations per candidate solve of greedy channel allocation
_ALLOC_ITERS = 120


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
    differs.
    """
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


def _capped(iters: int, budget: "int | None") -> int:
    return iters if budget is None else min(iters, budget)


def _stream_instance(cfg: StreamConfig, seed, sweep, emit_trace) -> list:
    rng_primary = make_rng(seed, _RNG_PRIMARY)
    rng_sense = make_rng(seed, _RNG_SENSE)
    rng_access = make_rng(seed, _RNG_ACCESS)
    rng_delivery = make_rng(seed, _RNG_DELIVERY)
    channels = [PrimaryChannel(cfg.p01, cfg.p10) for _ in range(cfg.num_channels)]
    rng_init = make_rng(seed, _RNG_DEMAND)
    for ch in channels:
        ch.reset_stationary(rng_init)
    profile = SensorProfile(cfg.false_alarm, cfg.miss)
    policy = AccessPolicy(cfg.gamma)
    graph = InterferenceGraph(cfg.num_fbs, tuple(tuple(e) for e in cfg.edges))

    template = _slot_template(cfg)
    alpha = template.w_minus
    if cfg.max_rate_bps is None:
        cap = np.full(cfg.num_users, np.inf)
    else:
        cap = alpha + np.asarray(cfg.beta_db_per_bps) * np.asarray(cfg.max_rate_bps)
    states = {
        name: StreamState(alpha, template.rate_mbs, template.rate_fbs, cap) for name in ALGORITHMS
    }
    window_sums = {name: np.zeros(cfg.num_users) for name in ALGORITHMS}
    # independent bit ledger per algorithm: quality must always telescope back
    # to alpha + beta * delivered_bits / window
    window_bits = {name: np.zeros(cfg.num_users) for name in ALGORITHMS}
    tally = _Tally(collisions=np.zeros(cfg.num_channels))

    for t in range(cfg.num_slots):
        true_states, p_idle = _sense_and_fuse(cfg, t, channels, profile, rng_primary, rng_sense)
        decision = _access(p_idle, true_states, policy, rng_access, tally)
        gi = _allocate(cfg, template, states["proposed"].psnr, decision, p_idle, graph, tally)
        record_trace = emit_trace and t == 0
        solutions = _schedule(cfg, template, t, states["proposed"].psnr, gi, tally, record_trace)
        _deliver(cfg, template, states, solutions, gi, rng_delivery, window_bits)
        if (t + 1) % cfg.window_slots == 0:
            _close_window(cfg, t, states, window_bits, window_sums)
    return _stream_rows(cfg, seed, sweep, window_sums, tally)


def _sense_and_fuse(cfg, t, channels, profile, rng_primary, rng_sense):
    """Occupancy, sensing and fusion: the channels' true states and idle
    posteriors. In slot t user j senses channel (j + t) mod M, and the femto
    senses every channel."""
    M = len(channels)
    true_states = [step_primary(ch, rng_primary) for ch in channels]
    p_idle = np.empty(M)
    for m, (ch, busy) in enumerate(zip(channels, true_states)):
        obs = [sense(busy, profile, rng_sense) for j in range(cfg.num_users) if (j + t) % M == m]
        obs.append(sense(busy, profile, rng_sense))
        p_idle[m] = fuse_beliefs(ch.busy_prior, obs, [profile] * len(obs))
    return true_states, p_idle


def _access(p_idle, true_states, policy, rng_access, tally):
    """Access: the cleared channels, counting each one a primary occupies."""
    decision = decide_access(p_idle, policy, rng_access)
    for m in decision.available:
        if true_states[m] == 1:
            tally.collisions[m] += 1
    tally.expected_available += decision.expected_available
    return decision


def _allocate(cfg, template, psnr, decision, p_idle, graph, tally) -> np.ndarray:
    """Allocation: each femto's expected available channel count.

    A lone femto takes every cleared channel. Interfering femtos share them
    by greedy marginal value, and the greedy bound on the best allocation's
    objective is tallied.
    """
    if cfg.num_fbs == 1:
        return np.array([decision.expected_available])
    base = template.for_slot(psnr, template.fbs_gi)
    evaluator = AllocationValue(
        base, step=cfg.step, phi=cfg.phi, max_iters=_capped(_ALLOC_ITERS, cfg.budget)
    )
    avail = decision.available
    alloc, gtrace = greedy_alloc(base, avail, p_idle[list(avail)], graph, value=evaluator)
    tally.upper_bound += evaluator.baseline + optbound_upper(gtrace)
    return alloc.gi()


def _schedule(cfg, template, t, psnr, gi, tally, record_trace) -> dict:
    """Schedule: every algorithm's time shares for slot t, by name.

    The proposed scheduler warm-starts from the previous slot's prices, and
    neither baseline may beat it on its problem. A baseline's schedule
    depends on the links, the femto memberships and the channel counts,
    never on the current quality, so the two rival schedules of that check
    are also the equal and diversity algorithms' schedules. Their objective
    is taken under the proposed scheduler's quality, and nothing reads it.
    """
    prob = template.for_slot(psnr.copy(), gi)
    sol = solve_noninterfering(
        prob,
        prices_init=tally.warm_prices if tally.warm_prices is not None else init_prices(prob),
        step=cfg.step,
        phi=cfg.phi,
        max_iters=_capped(cfg.max_iters, cfg.budget),
        record_trace=record_trace,
    )
    tally.warm_prices = sol.prices
    tally.objective += sol.objective
    tally.iterations += sol.iterations
    tally.duality_gap += sol.duality_gap
    tally.converged += sol.converged
    if record_trace:
        tally.trace = sol.trace
    equal, diversity = heuristic_equal(prob), heuristic_diversity(prob)
    for rival in (equal, diversity):
        if rival.objective > sol.objective + 1e-9:
            raise HarnessError(
                f"slot {t}: schedule objective {sol.objective!r} "
                f"below feasible point {rival.objective!r}"
            )
    return {"proposed": sol, "equal": equal, "diversity": diversity}


def _deliver(cfg, template, states, solutions, gi, rng_delivery, window_bits):
    """Delivery: one coin per user decides, for every algorithm alike,
    whether its macro and femto transmissions arrive; quality and the bit
    ledger both advance."""
    draws = rng_delivery.random(cfg.num_users)
    xi_mbs = (draws < template.pbar_mbs).astype(float)
    xi_fbs = (draws < template.pbar_fbs).astype(float)
    g_user = gi[template.assoc - 1]
    for name, sol in solutions.items():
        update_psnr(states[name], sol.connect_mbs, sol.rho_mbs, sol.rho_fbs, xi_mbs, xi_fbs, g_user)
        window_bits[name] += np.where(
            sol.connect_mbs,
            xi_mbs * sol.rho_mbs * cfg.common_bandwidth_bps,
            xi_fbs * sol.rho_fbs * g_user * cfg.channel_bandwidth_bps,
        )


def _close_window(cfg, t, states, window_bits, window_sums):
    """Bit ledger: each algorithm's window quality must equal the one its
    delivered bits imply. Then quality and ledger restart."""
    for name, st in states.items():
        window_sums[name] += st.psnr
        expected = window_psnr_by_bits(
            cfg.alpha_db, cfg.beta_db_per_bps, window_bits[name], cfg.max_rate_bps, cfg.window_slots
        )
        drift = float(np.abs(st.psnr - expected).max())
        # written so that a NaN drift fails
        if not drift <= 1e-9:
            raise HarnessError(f"slot {t}: {name} quality drifted {drift!r} from bit ledger")
        st.reset_window()
        window_bits[name][:] = 0.0


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
