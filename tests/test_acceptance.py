"""End-to-end acceptance battery.

Eleven checks, each printing exactly one PASS/FAIL line with its headline
numbers and runtime. Run with `pytest -s tests/test_acceptance.py` to see
the lines as they complete.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from femtokit.harness.cli import main
from femtokit.harness.config import load_config
from femtokit.harness.oracles import (
    brute_force_alloc,
    check_fusion_routes,
    check_single_station_closed_form,
    check_solvers_and_bounds,
    diminishing_gains_margin,
    exact_allocation_solver,
    exact_schedule,
    random_slot_problem,
    run_check,
    support_margin,
)
from femtokit.harness.runners import ALGORITHMS, HarnessError, multicast_instance, run_streaming
from femtokit.multicast import (
    LevelDemand,
    heuristic_assign,
    snr_threshold,
    snr_thresholds,
    solve_case1,
    solve_case2,
    solve_case3,
    total_power,
)
from femtokit.netmodel import make_rng
from femtokit.scheduler import (
    AllocationValue,
    InterferenceGraph,
    greedy_alloc,
    optbound_upper,
    solve_noninterfering,
)
from femtokit.spectrum import (
    AccessPolicy,
    PrimaryChannel,
    SensorProfile,
    decide_access,
    fuse_beliefs,
    sense,
    step_primary,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _report(tag: str, ok: bool, detail: str) -> None:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def _report_check(tag: str, check, rng, count: int, limit=None) -> None:
    """Run one shared oracle check and report it with its time gate."""
    start = time.perf_counter()
    ok, detail = run_check(check, rng, count)
    elapsed = time.perf_counter() - start
    timing = f"{elapsed:.2f}s"
    if limit is not None:
        ok &= elapsed < limit
        timing += f" (limit {limit}s)"
    _report(tag, ok, f"{detail}, {timing}")


def test_bound_sandwich_and_solver_feasibility():
    """Closed-form bounds bracket the exhaustive optimum, and the greedy
    whole-layer solvers are always feasible and never below it."""
    _report_check(
        " 1/11 bound sandwich + solver feasibility",
        check_solvers_and_bounds, make_rng(0, 100), 520, limit=120,
    )


def test_single_station_closed_form_routes_agree():
    """The one-station solver's backward recursion and the folded closed
    form give the same totals; the two-layer worst-unit-gain case costs 15
    with every post-cancellation SNR exactly at threshold 3."""
    _report_check(
        " 2/11 single-station closed form",
        check_single_station_closed_form, make_rng(0, 101), 1000,
    )


def test_power_savings_over_baselines():
    """Splitting the band across a femto overlay and partitioning layers
    greedily both save transmit power over their single-station and
    strongest-link baselines."""
    start = time.perf_counter()
    seeds = range(10)

    cfg2 = load_config(SCENARIOS / "case2_split.json")
    split_thresholds = snr_thresholds(cfg2.target_rate_bps, cfg2.bandwidths_hz())
    whole_band = sum(cfg2.bandwidths_hz())
    whole_gamma = snr_threshold(cfg2.target_rate_bps, whole_band)
    split_savings = []
    for seed in seeds:
        demand, gains = multicast_instance(cfg2, seed)
        overlay = solve_case2(demand, gains, split_thresholds, cfg2.noise_w)[1].total
        macro_demand = LevelDemand(demand.num_levels, demand.user_level, (0,) * demand.num_users)
        single = solve_case1(macro_demand, gains[:1], [whole_gamma], cfg2.noise_w)[1].total
        split_savings.append(10.0 * math.log10(single / overlay))
    split_mean = float(np.mean(split_savings))

    cfg4 = load_config(SCENARIOS / "fig4_levels.json")
    thresholds4 = snr_thresholds(cfg4.target_rate_bps, cfg4.bandwidths_hz())
    sweep_values = cfg4.sweep["values"]
    partition_means = {}
    for levels in (4, 5, 6):
        idx = sweep_values.index(levels)
        savings = []
        for seed in seeds:
            demand, gains = multicast_instance(cfg4.at(levels), seed, sweep_index=idx)
            proposed = solve_case3(demand, gains, thresholds4, cfg4.noise_w)[1].total
            strongest = heuristic_assign(demand, gains)
            baseline = total_power(strongest, gains, thresholds4, cfg4.noise_w).total
            savings.append(10.0 * math.log10(baseline / proposed))
        partition_means[levels] = float(np.mean(savings))

    elapsed = time.perf_counter() - start
    ok = split_mean >= 5.0 and all(v >= 2.0 for v in partition_means.values()) and elapsed < 60.0
    partitions = ", ".join(f"L={k}: {v:.2f} dB" for k, v in partition_means.items())
    _report(
        " 3/11 power savings",
        ok,
        f"band split saves {split_mean:.2f} dB (need >= 5); layer partition saves "
        f"{partitions} (need >= 2 each); 10 seeds, {elapsed:.1f}s (limit 60s)",
    )


def test_fusion_routes_agree_on_all_sequences():
    """Sequential odds fusion equals the batch posterior on every
    six-report sequence, and the single even-prior idle report lands on
    0.7 exactly."""
    _report_check(" 4/11 sensing fusion routes", check_fusion_routes, None, 0, limit=1)


def test_collision_budget_respected():
    """Guarded access keeps each channel's empirical collision rate within
    the tolerance (plus sampling noise) over a long occupancy history."""
    start = time.perf_counter()
    gamma, n_slots, n_channels = 0.2, 100_000, 3
    profile = SensorProfile(0.3, 0.3)
    policy = AccessPolicy(gamma)
    rng = make_rng(0, 105)
    bound = gamma + 3.0 * math.sqrt(gamma * (1.0 - gamma) / n_slots)
    rates = []
    for _ in range(n_channels):
        channel = PrimaryChannel(0.4, 0.3)
        channel.reset_stationary(rng)
        collisions = 0
        for _ in range(n_slots):
            state = step_primary(channel, rng)
            obs = [sense(state, profile, rng) for _ in range(2)]
            p_idle = fuse_beliefs(channel.busy_prior, obs, [profile, profile])
            decision = decide_access([p_idle], policy, rng)
            if decision.available and state == 1:
                collisions += 1
        rates.append(collisions / n_slots)
    elapsed = time.perf_counter() - start
    ok = all(r <= bound for r in rates) and elapsed < 60.0
    _report(
        " 5/11 collision budget",
        ok,
        f"{n_channels} channels x {n_slots} slots, rates "
        f"{', '.join(f'{r:.4f}' for r in rates)} <= {bound:.4f}, "
        f"{elapsed:.1f}s (limit 60s)",
    )


def test_price_iteration_matches_enumeration():
    """On small single-femto slots whose optimum a price vector supports,
    the price iteration converges, closes the duality gap, and matches the
    enumeration oracle; branch choices are always binary."""
    start = time.perf_counter()
    rng = make_rng(0, 106)
    wanted, checked, skipped = 30, 0, 0
    worst_rel, worst_gap, iters = 0.0, 0.0, []
    ok = True
    while checked < wanted:
        prob = random_slot_problem(rng, int(rng.integers(1, 4)))
        if support_margin(prob) < 0.01:
            skipped += 1
            continue
        sol = solve_noninterfering(prob, step=0.01, phi=1e-12, max_iters=10_000)
        _, _, _, best, _ = exact_schedule(prob)
        rel = abs(sol.objective - best) / max(abs(best), 1e-12)
        worst_rel = max(worst_rel, rel)
        worst_gap = max(worst_gap, sol.duality_gap)
        iters.append(sol.iterations)
        ok &= rel <= 1e-4
        ok &= sol.duality_gap <= 1e-3
        ok &= sol.converged and sol.iterations <= 10_000
        off = ~sol.connect_mbs
        ok &= bool(np.all(sol.rho_mbs[off] == 0.0) and np.all(sol.rho_fbs[~off] == 0.0))
        checked += 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _report(
        " 6/11 price iteration vs enumeration",
        ok,
        f"{checked} supported instances ({skipped} kink instances excluded), worst "
        f"relative error {worst_rel:.2e} (tol 1e-4), worst duality gap {worst_gap:.2e} "
        f"(tol 1e-3), iterations mean {np.mean(iters):.0f} max {max(iters)}, "
        f"{elapsed:.1f}s (limit 120s)",
    )


def test_greedy_allocation_guarantee():
    """Greedy channel grants under an interference graph keep at least a
    1/(1 + max degree) share of the exhaustive optimum, match it exactly
    when nothing interferes, and respect the additive upper bound.

    Both bounds assume marginal gains shrink as grants accumulate; an extra
    channel that flips a user from a crowded shared pool onto a dedicated
    transmitter breaks that with increasing returns, so each draw is first
    certified by the lattice second-difference oracle and instances outside
    the diminishing-gains regime are excluded (counted in the report)."""
    start = time.perf_counter()
    rng = make_rng(0, 107)
    violations = 0
    excluded = 0
    ratios = []
    n_instances = 200
    while len(ratios) < n_instances:
        n_fbs = int(rng.integers(1, 4))
        n_channels = int(rng.integers(1, 4))
        prob = random_slot_problem(rng, int(rng.integers(2, 5)), n_fbs=n_fbs)
        pairs = list(itertools.combinations(range(1, n_fbs + 1), 2))
        edges = tuple(e for e in pairs if rng.random() < 0.5)
        graph = InterferenceGraph(n_fbs, edges)
        p_idle = rng.uniform(0.2, 1.0, n_channels)
        value = AllocationValue(prob, solver=exact_allocation_solver)
        if diminishing_gains_margin(prob, range(n_channels), p_idle, graph, value) < -1e-9:
            excluded += 1
            continue
        _, trace = greedy_alloc(prob, range(n_channels), p_idle, graph, value=value)
        _, best = brute_force_alloc(prob, range(n_channels), p_idle, graph, value=value)
        tol = 1e-9 * max(1.0, abs(best))
        if trace.value < best / (1 + graph.d_max) - tol:
            violations += 1
        if graph.d_max == 0 and abs(trace.value - best) > tol:
            violations += 1
        if best > optbound_upper(trace) + tol:
            violations += 1
        ratios.append(trace.value / best if best > 0 else 1.0)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 300.0
    _report(
        " 7/11 greedy allocation guarantee",
        ok,
        f"{n_instances} instances ({excluded} increasing-returns instances excluded), "
        f"0 violations expected, got {violations}; "
        f"mean value ratio {np.mean(ratios):.3f}, min {np.min(ratios):.3f}, "
        f"{elapsed:.1f}s (limit 300s)",
    )


def _seed_means(rows, metric, algorithm="proposed"):
    """Mean metric value per sweep point, averaged across seeds, in sweep order."""
    by_sweep = {}
    order = []
    for r in rows:
        if r.metric == metric and r.algorithm == algorithm:
            if r.sweep not in by_sweep:
                by_sweep[r.sweep] = []
                order.append(r.sweep)
            by_sweep[r.sweep].append(r.value)
    return [float(np.mean(by_sweep[s])) for s in order]


def test_scheduler_dominance_and_quality_trends():
    """The scheduled objective dominates both baselines on every slot of
    every sweep (enforced inside the runner), and mean quality moves the
    right way with channels, occupancy, and common bandwidth."""
    start = time.perf_counter()
    seeds = list(range(10))

    rows9 = run_streaming(load_config(SCENARIOS / "fig9_channels.json"), seeds)
    rows10 = run_streaming(load_config(SCENARIOS / "fig10_utilization.json"), seeds)
    rows12 = run_streaming(load_config(SCENARIOS / "fig12_common_bw.json"), seeds)

    psnr9 = _seed_means(rows9, "psnr_mean")
    psnr10 = _seed_means(rows10, "psnr_mean")
    psnr12 = _seed_means(rows12, "psnr_mean")

    more_channels_help = all(a < b for a, b in zip(psnr9, psnr9[1:]))
    busier_primaries_hurt = all(a > b for a, b in zip(psnr10, psnr10[1:]))
    gains12 = [b - a for a, b in zip(psnr12, psnr12[1:])]
    bandwidth_saturates = all(g > 0 for g in gains12) and gains12[-1] < gains12[0]

    elapsed = time.perf_counter() - start
    ok = more_channels_help and busier_primaries_hurt and bandwidth_saturates
    ok &= elapsed < 600.0
    _report(
        " 8/11 scheduler dominance + trends",
        ok,
        f"baselines never beat the schedule on any of the "
        f"{3 * len(seeds)} runs; mean quality with channels "
        f"{[round(v, 2) for v in psnr9]} rising={more_channels_help}, with occupancy "
        f"{[round(v, 2) for v in psnr10]} falling={busier_primaries_hurt}, with bandwidth "
        f"{[round(v, 2) for v in psnr12]} first gain {gains12[0]:.3f} > last {gains12[-1]:.3f} "
        f"saturating={bandwidth_saturates}; {elapsed:.0f}s (limit 600s)",
    )


def test_quality_telescopes_to_bit_ledger(monkeypatch):
    """Every window's simulated quality equals base + slope * delivered
    bits / window from the independent bit ledger; the in-run check is
    proven live by poisoning the ledger and watching the run fail."""
    start = time.perf_counter()
    cfg = load_config(SCENARIOS / "fig8_convergence.json")

    import femtokit.harness.runners as runners

    real = runners.window_psnr_by_bits
    monkeypatch.setattr(
        runners, "window_psnr_by_bits", lambda *args, **kwargs: real(*args, **kwargs) + 1e-6
    )
    with pytest.raises(HarnessError):
        run_streaming(cfg, [0])
    monkeypatch.setattr(runners, "window_psnr_by_bits", real)

    seeds = [0, 1, 2]
    rows = run_streaming(cfg, seeds)
    windows = cfg.num_slots // cfg.window_slots * len(seeds) * len(ALGORITHMS)
    elapsed = time.perf_counter() - start
    ok = len(rows) > 0 and elapsed < 120.0
    _report(
        " 9/11 quality telescoping",
        ok,
        f"{windows} windows matched the bit ledger within 1e-9 across {len(seeds)} seeds; "
        f"a poisoned ledger is detected; {elapsed:.1f}s",
    )


def test_cli_byte_reproducibility(tmp_path):
    """Repeated CLI runs with the same config and seeds write identical
    bytes, for both experiment kinds and for the aggregate files."""
    start = time.perf_counter()

    def run_twice(config, seeds):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{config.stem}-{tag}.csv"
            agg = tmp_path / f"{config.stem}-{tag}-agg.csv"
            code = main(
                ["run", "--config", str(config), "--seeds", seeds,
                 "--out", str(out), "--aggregate", str(agg)]
            )
            assert code == 0
            outputs.append(out.read_bytes() + b"|" + agg.read_bytes())
        return outputs[0] == outputs[1]

    multicast_same = run_twice(SCENARIOS / "case2_split.json", "0..4")
    stream_same = run_twice(SCENARIOS / "fig12_common_bw.json", "0..1")
    elapsed = time.perf_counter() - start
    ok = multicast_same and stream_same
    _report(
        "10/11 byte reproducibility",
        ok,
        f"multicast identical={multicast_same}, stream sweep identical={stream_same}, "
        f"{elapsed:.1f}s",
    )


def test_scenario_slots_match_enumeration(monkeypatch):
    """Every slot the runner schedules on kink-heavy scenario runs is within
    1e-12 relative of the enumeration optimum, converged or not: exact
    pattern refill recovers the optimum even where the prices oscillate."""
    import femtokit.harness.runners as runners

    start = time.perf_counter()
    real = runners.solve_noninterfering
    runs_slots = []  # per run: (relative gap to the optimum, converged) per slot

    def checked_solve(prob, **kwargs):
        sol = real(prob, **kwargs)
        _, _, _, best, _ = exact_schedule(prob)
        runs_slots[-1].append((abs(best - sol.objective) / abs(best), sol.converged))
        return sol

    monkeypatch.setattr(runners, "solve_noninterfering", checked_solve)
    runs = (
        ("fig10_utilization", 0.7, [0, 1]),
        ("fig13_budget", 1, [0]),
        ("fig9_channels", 12, [0]),
    )
    for scenario, value, seeds in runs:
        runs_slots.append([])
        run_streaming(load_config(SCENARIOS / f"{scenario}.json").at(value), seeds)
    elapsed = time.perf_counter() - start
    worst = max(gap for slots in runs_slots for gap, _ in slots)
    ok = worst <= 1e-12 and elapsed < 120.0
    counts = ", ".join(
        f"{scenario} at {value}: {sum(not c for _, c in slots)} of {len(slots)} not converged"
        for (scenario, value, _), slots in zip(runs, runs_slots)
    )
    _report(
        "11/11 scenario slots vs enumeration",
        ok,
        f"{sum(map(len, runs_slots))} slots ({counts}), worst relative gap to the optimum "
        f"{worst:.1e} (tol 1e-12), {elapsed:.1f}s (limit 120s)",
    )
