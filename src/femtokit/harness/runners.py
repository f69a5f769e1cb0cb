"""Monte-Carlo experiment runners producing deterministic result rows."""

from dataclasses import dataclass

import numpy as np

from ..multicast import (
    LevelAssignment,
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
from .config import MulticastConfig, StreamConfig
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


def run_multicast(cfg: MulticastConfig, seeds) -> list:
    """Power-minimization experiment: one instance per (sweep value, seed)."""
    rows = []
    sweep_values = cfg.sweep["values"] if cfg.sweep else [None]
    param = cfg.sweep["parameter"] if cfg.sweep else None
    for si, sv in enumerate(sweep_values):
        levels = sv if param == "num_levels" else cfg.num_levels
        bandwidths = np.asarray(
            cfg.bandwidths_hz(sv if param == "mbs_bandwidth_hz" else None), dtype=float
        )
        thresholds = snr_thresholds(cfg.target_rate_bps, bandwidths)
        sweep = format_sweep(sv)
        for seed in seeds:
            rows.extend(
                _multicast_instance(cfg, levels, bandwidths, thresholds, seed, si, sweep)
            )
    return rows


def multicast_instance(cfg: MulticastConfig, levels: int, seed: int, sweep_index: int = 0):
    """Demand and fading draws for one experiment instance.

    Deterministic in (config, seed, sweep position): the demand stream and
    the fading stream are independent, so changing one scenario knob never
    shifts the draws of another. Returns (demand, gains).
    """
    n_stations = 1 + cfg.num_fbs
    rng = make_rng(seed, _RNG_DEMAND, sweep_index)
    user_level = tuple(int(v) for v in 1 + rng.integers(0, levels, cfg.num_users))
    if cfg.coverage == "none":
        coverage = (0,) * cfg.num_users
    elif cfg.coverage == "single":
        coverage = (1,) * cfg.num_users
    else:
        femto = 1 + rng.integers(0, cfg.num_fbs, cfg.num_users)
        macro_only = rng.random(cfg.num_users) < cfg.macro_only_fraction
        coverage = tuple(int(c) for c in np.where(macro_only, 0, femto))
    demand = LevelDemand(num_levels=levels, user_level=user_level, coverage=coverage)

    means = np.full((n_stations, 1), cfg.mbs_gain_mean)
    if cfg.num_fbs:
        means[1:, 0] = cfg.fbs_gain_mean
    gains = sample_gains(
        FadingSpec(mean=means, seed=seed), n_stations, cfg.num_users, slot_index=sweep_index
    )
    return demand, gains


def _multicast_instance(cfg, levels, bandwidths, thresholds, seed, sweep_index, sweep):
    demand, gains = multicast_instance(cfg, levels, seed, sweep_index)
    coverage = demand.coverage

    if cfg.num_fbs == 0:
        allocation = solve_case1(demand, gains, thresholds, cfg.noise_w)
        assignment = LevelAssignment(demand=demand, serving=(0,) * cfg.num_users)
    elif cfg.num_fbs == 1 and all(c == 1 for c in coverage):
        assignment, allocation = solve_case2(demand, gains, thresholds, cfg.noise_w)
    else:
        assignment, allocation = solve_case3(demand, gains, thresholds, cfg.noise_w)
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
            footprint_volume(alloc.cumulative[:, 0], bandwidths, cfg.radius_per_watt),
        )

    emit_power("proposed", allocation)

    if cfg.include_heuristic:
        h_assignment = heuristic_assign(demand, gains)
        h_allocation = total_power(h_assignment, gains, thresholds, cfg.noise_w)
        _assert_feasible("heuristic", h_allocation, h_assignment, gains, thresholds)
        emit_power("heuristic", h_allocation)

    b = bounds(demand, gains, thresholds, cfg.noise_w, assignment=assignment)
    emit("bounds", "upper_tight_w", b.upper_tight)
    emit("bounds", "upper_loose_w", b.upper_loose)
    emit("bounds", "lower_tight_w", b.lower_tight)
    emit("bounds", "lower_loose_w", b.lower_loose)

    if 0 < cfg.num_users <= cfg.oracle_max_users:
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


@dataclass
class _EffectiveStream:
    """Scenario parameters after applying one sweep value."""

    p01: float
    p10: float
    false_alarm: float
    miss: float
    common_bandwidth_bps: float
    num_channels: int
    budget: "int | None"


def _effective_stream(cfg: StreamConfig, param, value, budget_override) -> _EffectiveStream:
    p01, p10 = cfg.p01, cfg.p10
    eta = cfg.eta
    if param == "eta":
        eta = value
    if eta is not None:
        p01 = cfg._p01_from_eta(eta)
    fa, miss = cfg.false_alarm, cfg.miss
    if param == "sensing_error":
        fa, miss = value
    b0 = value if param == "common_bandwidth_bps" else cfg.common_bandwidth_bps
    channels = value if param == "num_channels" else cfg.num_channels
    if param == "budget":
        budget = value
    elif budget_override is not None:
        budget = budget_override
    else:
        budget = cfg.budget
    return _EffectiveStream(
        p01=float(p01),
        p10=float(p10),
        false_alarm=float(fa),
        miss=float(miss),
        common_bandwidth_bps=float(b0),
        num_channels=int(channels),
        budget=budget,
    )


def run_streaming(cfg: StreamConfig, seeds, budget: "int | None" = None) -> list:
    """Video-over-sensed-spectrum experiment.

    Every algorithm sees the same primary activity, sensing reports, access
    draws, channel allocation, and delivery coin flips; only the schedule
    differs. budget caps the price iterations everywhere when given.
    """
    rows = []
    sweep_values = cfg.sweep["values"] if cfg.sweep else [None]
    param = cfg.sweep["parameter"] if cfg.sweep else None
    for si, sv in enumerate(sweep_values):
        eff = _effective_stream(cfg, param, sv, budget)
        sweep = format_sweep(sv)
        for pos, seed in enumerate(seeds):
            emit_trace = cfg.emit_trace and si == 0 and pos == 0
            rows.extend(_stream_instance(cfg, eff, seed, sweep, emit_trace))
    return rows


def _stream_instance(cfg: StreamConfig, eff: _EffectiveStream, seed, sweep, emit_trace) -> list:
    K, M, T = cfg.num_users, eff.num_channels, cfg.window_slots
    rng_primary = make_rng(seed, _RNG_PRIMARY)
    rng_sense = make_rng(seed, _RNG_SENSE)
    rng_access = make_rng(seed, _RNG_ACCESS)
    rng_delivery = make_rng(seed, _RNG_DELIVERY)

    channels = [PrimaryChannel(eff.p01, eff.p10) for _ in range(M)]
    rng_init = make_rng(seed, _RNG_DEMAND)
    for ch in channels:
        ch.reset_stationary(rng_init)
    profile = SensorProfile(eff.false_alarm, eff.miss)
    policy = AccessPolicy(cfg.gamma)
    graph = InterferenceGraph(cfg.num_fbs, tuple(tuple(e) for e in cfg.edges))
    assoc = np.asarray(cfg.assoc, dtype=int)

    alpha = np.asarray(cfg.alpha_db)
    beta = np.asarray(cfg.beta_db_per_bps)
    rate_mbs = beta * eff.common_bandwidth_bps / T
    rate_fbs = beta * cfg.channel_bandwidth_bps / T
    if cfg.max_rate_bps is None:
        cap = np.full(K, np.inf)
    else:
        cap = alpha + beta * np.asarray(cfg.max_rate_bps)
    pbar_mbs = np.array(
        [success_probability(LossModel(cfg.decode_threshold, mu), 0, 0) for mu in cfg.mean_sinr_mbs]
    )
    pbar_fbs = np.array(
        [success_probability(LossModel(cfg.decode_threshold, mu), 0, 0) for mu in cfg.mean_sinr_fbs]
    )

    states = {name: StreamState(alpha, rate_mbs, rate_fbs, cap) for name in cfg.algorithms}
    window_sums = {name: np.zeros(K) for name in cfg.algorithms}
    # independent bit ledger per algorithm: quality must always telescope back
    # to alpha + beta * delivered_bits / window
    window_bits = {name: np.zeros(K) for name in cfg.algorithms}
    windows = 0
    warm_prices = None
    max_iters = cfg.max_iters if eff.budget is None else min(cfg.max_iters, eff.budget)
    alloc_iters = cfg.alloc_iters if eff.budget is None else min(cfg.alloc_iters, eff.budget)

    collisions = np.zeros(M)
    exp_avail_sum = 0.0
    obj_sum = 0.0
    iter_sum = 0
    gap_sum = 0.0
    conv_count = 0
    ub_sum = 0.0
    ub_count = 0
    trace = None

    for t in range(cfg.num_slots):
        if t and t % T == 0:
            for st in states.values():
                st.reset_window()
            for bits in window_bits.values():
                bits[:] = 0.0

        true_states = [step_primary(ch, rng_primary) for ch in channels]

        p_idle = np.empty(M)
        for m in range(M):
            obs = [sense(true_states[m], profile, rng_sense) for j in range(K) if (j + t) % M == m]
            if cfg.fbs_sensing:
                obs.append(sense(true_states[m], profile, rng_sense))
            if obs:
                p_idle[m] = fuse_beliefs(channels[m].busy_prior, obs, [profile] * len(obs))
            else:
                p_idle[m] = 1.0 - channels[m].busy_prior

        decision = decide_access(p_idle, policy, rng_access)
        for m in decision.available:
            if true_states[m] == 1:
                collisions[m] += 1
        exp_avail_sum += decision.expected_available

        if cfg.num_fbs == 1:
            gi = np.array([decision.expected_available])
        else:
            base = SlotProblem(
                w_minus=states["proposed"].psnr,
                pbar_mbs=pbar_mbs,
                pbar_fbs=pbar_fbs,
                rate_mbs=rate_mbs,
                rate_fbs=rate_fbs,
                assoc=assoc,
                n_fbs=cfg.num_fbs,
                fbs_gi=np.zeros(cfg.num_fbs),
            )
            evaluator = AllocationValue(base, step=cfg.step, phi=cfg.phi, max_iters=alloc_iters)
            avail = decision.available
            alloc, gtrace = greedy_alloc(
                base, avail, p_idle[list(avail)], graph, value=evaluator
            )
            alloc.validate(graph)
            gi = alloc.gi()
            ub_sum += evaluator.baseline + optbound_upper(gtrace)
            ub_count += 1

        delivery_draws = rng_delivery.random(K)
        xi_mbs = (delivery_draws < pbar_mbs).astype(float)
        xi_fbs = (delivery_draws < pbar_fbs).astype(float)

        for name in cfg.algorithms:
            st = states[name]
            prob = SlotProblem(
                w_minus=st.psnr.copy(),
                pbar_mbs=pbar_mbs,
                pbar_fbs=pbar_fbs,
                rate_mbs=rate_mbs,
                rate_fbs=rate_fbs,
                assoc=assoc,
                n_fbs=cfg.num_fbs,
                fbs_gi=gi,
            )
            if name == "proposed":
                sol = solve_noninterfering(
                    prob,
                    prices_init=warm_prices if warm_prices is not None else init_prices(prob),
                    step=cfg.step,
                    phi=cfg.phi,
                    max_iters=max_iters,
                    record_trace=emit_trace and t == 0,
                )
                warm_prices = sol.prices
                obj_sum += sol.objective
                iter_sum += sol.iterations
                gap_sum += sol.duality_gap
                conv_count += sol.converged
                if emit_trace and t == 0:
                    trace = sol.trace
                for rival in (heuristic_equal(prob), heuristic_diversity(prob)):
                    if rival.objective > sol.objective + 1e-9:
                        raise HarnessError(
                            f"slot {t}: schedule objective {sol.objective!r} "
                            f"below feasible point {rival.objective!r}"
                        )
            elif name == "equal":
                sol = heuristic_equal(prob)
            else:
                sol = heuristic_diversity(prob)
            update_psnr(st, sol.connect_mbs, sol.rho_mbs, sol.rho_fbs, xi_mbs, xi_fbs, gi[assoc - 1])
            g_user = gi[assoc - 1]
            window_bits[name] += np.where(
                sol.connect_mbs,
                xi_mbs * sol.rho_mbs * eff.common_bandwidth_bps,
                xi_fbs * sol.rho_fbs * g_user * cfg.channel_bandwidth_bps,
            )

        if (t + 1) % T == 0:
            windows += 1
            for name, st in states.items():
                window_sums[name] += st.psnr
                expected = window_psnr_by_bits(
                    alpha, beta, window_bits[name], cfg.max_rate_bps, T
                )
                drift = float(np.abs(st.psnr - expected).max())
                if drift > 1e-9:
                    raise HarnessError(
                        f"slot {t}: {name} quality drifted {drift!r} from bit ledger"
                    )

    rows = []

    def emit(algorithm, metric, value):
        rows.append(ResultRow(cfg.name, seed, sweep, algorithm, metric, value))

    n_slots = cfg.num_slots
    for name in cfg.algorithms:
        mean_by_user = window_sums[name] / windows
        emit(name, "psnr_mean", float(mean_by_user.mean()))
        for j in range(K):
            emit(name, f"psnr_user_{j}", float(mean_by_user[j]))
    emit("proposed", "objective_mean", obj_sum / n_slots)
    emit("proposed", "iterations_mean", iter_sum / n_slots)
    emit("proposed", "duality_gap_mean", gap_sum / n_slots)
    emit("proposed", "converged_fraction", conv_count / n_slots)
    if ub_count:
        emit("proposed", "objective_upper_bound_mean", ub_sum / ub_count)
    emit("access", "collision_rate_max", float(collisions.max()) / n_slots)
    emit("access", "collision_rate_mean", float(collisions.mean()) / n_slots)
    emit("access", "expected_available_mean", exp_avail_sum / n_slots)

    if trace is not None:
        trace_rows = []
        for it, _prices, obj in trace:
            trace_rows.append(ResultRow(cfg.name, seed, str(it), "proposed", "trace_objective", obj))
        rows = trace_rows + rows
    return rows

