"""Config schemas, CSV round trips, seeds, runners, and the CLI."""

import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from femtokit.harness import cli, oracles
from femtokit.harness.cli import main, parse_seeds
from femtokit.harness.config import (
    MULTICAST_SWEEPS,
    STREAM_SWEEPS,
    ConfigError,
    config_from_dict,
    load_config,
)
from femtokit.harness.csvio import (
    ResultRow,
    aggregate,
    format_sweep,
    format_value,
    read_rows,
    rows_to_bytes,
    t_critical,
    write_aggregate,
    write_rows,
)
from femtokit.harness.oracles import markov_busy_fraction
from femtokit.harness.runners import multicast_instance, run_multicast, run_streaming

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MULTICAST_BASE = {
    "name": "unit-multicast",
    "kind": "multicast",
    "num_users": 4,
    "num_levels": 2,
    "target_rate_bps": 2e6,
    "noise_w": 1e-13,
    "mbs_bandwidth_hz": 1e6,
}

STREAM_BASE = {
    "name": "unit-stream",
    "kind": "stream",
    "num_users": 2,
    "num_channels": 2,
    "num_slots": 10,
    "window_slots": 5,
    "p01": 0.4,
    "p10": 0.3,
    "gamma": 0.2,
    "false_alarm": 0.3,
    "miss": 0.3,
    "common_bandwidth_bps": 3e5,
    "channel_bandwidth_bps": 2e5,
    "alpha_db": 30.0,
    "beta_db_per_bps": 5e-5,
    "mean_sinr_mbs": 4.0,
    "mean_sinr_fbs": 3.0,
}

FEMTO_MULTICAST = dict(MULTICAST_BASE, num_fbs=1, fbs_gain_mean=1.0, total_bandwidth_hz=2.5e6)

# per sweep parameter: a base config, one sweep value, and the fields that
# value must set on the sweep point's config
SWEEP_POINTS = {
    "num_channels": (STREAM_BASE, 5, {"num_channels": 5}),
    "eta": (STREAM_BASE, 0.5, {"p01": pytest.approx(0.3)}),  # 0.5 * p10 / (1 - 0.5)
    "sensing_error": (STREAM_BASE, [0.2, 0.48], {"false_alarm": 0.2, "miss": 0.48}),
    "common_bandwidth_bps": (STREAM_BASE, 4e5, {"common_bandwidth_bps": 4e5}),
    "budget": (STREAM_BASE, 7, {"budget": 7}),
    "num_levels": (MULTICAST_BASE, 3, {"num_levels": 3}),
    "mbs_bandwidth_hz": (FEMTO_MULTICAST, 2e6, {"mbs_bandwidth_hz": 2e6}),
}

# per sweep parameter: a base config and one value its sweep must reject
BAD_SWEEP_VALUES = {
    "num_channels": (STREAM_BASE, 0),
    "eta": (STREAM_BASE, 1.0),
    "sensing_error": (STREAM_BASE, [0.6, 0.1]),
    "common_bandwidth_bps": (STREAM_BASE, -3e5),
    "budget": (STREAM_BASE, 0),
    "num_levels": (MULTICAST_BASE, 0),
    "mbs_bandwidth_hz": (FEMTO_MULTICAST, 2.5e6),  # leaves no femto band
}

# every integer setting given 2.5, at the top level or as a sweep value
FLOAT_COUNTS = [
    pytest.param(dict(base, **{name: 2.5}), id=f"{base['kind']}-{name}")
    for base, names in (
        (STREAM_BASE, ("num_users", "num_channels", "num_slots", "window_slots", "num_fbs",
                       "max_iters", "budget")),
        (MULTICAST_BASE, ("num_users", "num_levels", "num_fbs")),
    )
    for name in names
] + [
    pytest.param(dict(base, sweep={"parameter": name, "values": [2, 2.5]}), id=f"{name}-sweep")
    for base, name in ((STREAM_BASE, "num_channels"), (MULTICAST_BASE, "num_levels"))
]

# JSON booleans where a float setting, a per-user entry or a sweep value
# must be a number
BOOLEAN_NUMBERS = [
    pytest.param(dict(MULTICAST_BASE, noise_w=True), id="noise_w"),
    pytest.param(dict(STREAM_BASE, step=False), id="step"),
    pytest.param(dict(FEMTO_MULTICAST, fbs_gain_mean=True), id="fbs_gain_mean"),
    pytest.param(dict(STREAM_BASE, alpha_db=[True, 30.0]), id="alpha_db-entry"),
    pytest.param(dict(STREAM_BASE, mean_sinr_fbs=True), id="mean_sinr_fbs"),
] + [
    pytest.param(dict(base, sweep={"parameter": name, "values": [good, bad]}), id=f"{name}-sweep")
    for base, name, good, bad in (
        (STREAM_BASE, "common_bandwidth_bps", 3e5, True),
        (STREAM_BASE, "eta", 0.5, True),
        (STREAM_BASE, "sensing_error", [0.2, 0.1], [False, 0.1]),
        (FEMTO_MULTICAST, "mbs_bandwidth_hz", 2e6, True),
    )
]

# NaN and Infinity, which Python's json module reads as floats; an infinite
# noise or gain mean used to run to rows of inf
NON_FINITE_NUMBERS = [
    pytest.param(dict(MULTICAST_BASE, noise_w=math.inf), id="noise_w-inf"),
    pytest.param(dict(MULTICAST_BASE, noise_w=math.nan), id="noise_w-nan"),
    pytest.param(dict(MULTICAST_BASE, mbs_gain_mean=math.inf), id="mbs_gain_mean-inf"),
    pytest.param(dict(STREAM_BASE, alpha_db=[math.nan, 30.0]), id="alpha_db-entry"),
    pytest.param(
        dict(FEMTO_MULTICAST, sweep={"parameter": "mbs_bandwidth_hz", "values": [2e6, math.inf]}),
        id="mbs_bandwidth_hz-sweep",
    ),
]


class TestConfigSchema:
    def test_every_shipped_scenario_parses(self):
        paths = sorted(SCENARIOS.glob("*.json"))
        assert len(paths) >= 10
        for path in paths:
            cfg = load_config(path)
            assert cfg.kind in ("multicast", "stream")

    def test_unknown_key_rejected(self):
        data = dict(MULTICAST_BASE, num_lvels=3)
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict(data)

    def test_missing_key_rejected(self):
        data = {k: v for k, v in MULTICAST_BASE.items() if k != "target_rate_bps"}
        with pytest.raises(ConfigError, match="missing required"):
            config_from_dict(data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            config_from_dict(dict(MULTICAST_BASE, kind="simulation"))

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])

    def test_femto_band_needs_exactly_one_spec(self):
        data = dict(MULTICAST_BASE, num_fbs=1, fbs_gain_mean=1.0)
        with pytest.raises(ConfigError):
            config_from_dict(data)
        both = dict(data, fbs_bandwidth_hz=1e6, total_bandwidth_hz=2e6)
        with pytest.raises(ConfigError):
            config_from_dict(both)
        ok = config_from_dict(dict(data, fbs_bandwidth_hz=1e6))
        assert ok.bandwidths_hz() == [1e6, 1e6]

    def test_remaining_band_computed_from_total(self):
        sweep = {"parameter": "mbs_bandwidth_hz", "values": [2e6]}
        cfg = config_from_dict(dict(FEMTO_MULTICAST, sweep=sweep))
        assert cfg.bandwidths_hz() == [1e6, 1.5e6]
        assert cfg.at(2e6).bandwidths_hz() == [2e6, 0.5e6]

    @pytest.mark.parametrize("parameter", STREAM_SWEEPS + MULTICAST_SWEEPS)
    def test_sweep_point_sets_only_its_fields(self, parameter):
        base, value, expected = SWEEP_POINTS[parameter]
        cfg = config_from_dict(dict(base, sweep={"parameter": parameter, "values": [value]}))
        point = cfg.at(value)
        assert type(point) is type(cfg) and point.sweep is None
        assert {name: getattr(point, name) for name in expected} == expected
        untouched = [f.name for f in dataclasses.fields(cfg) if f.name not in expected]
        untouched.remove("sweep")
        assert all(getattr(point, name) == getattr(cfg, name) for name in untouched)

    @pytest.mark.parametrize("parameter", STREAM_SWEEPS + MULTICAST_SWEEPS)
    def test_bad_sweep_value_is_named(self, parameter):
        base, bad = BAD_SWEEP_VALUES[parameter]
        good = SWEEP_POINTS[parameter][1]
        sweep = {"parameter": parameter, "values": [good, bad]}
        with pytest.raises(ConfigError, match=re.escape(f"{parameter} sweep value {bad!r}: ")):
            config_from_dict(dict(base, sweep=sweep))

    @pytest.mark.parametrize(
        "base, key, value",
        [
            (STREAM_BASE, "fbs_sensing", True),
            (STREAM_BASE, "algorithms", ["proposed", "equal", "diversity"]),
            (STREAM_BASE, "decode_threshold", 1.0),
            (STREAM_BASE, "eta", 0.5),
            (MULTICAST_BASE, "radius_per_watt", 1.0),
        ],
    )
    def test_removed_keys_rejected(self, base, key, value):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict(dict(base, **{key: value}))

    def test_sweep_parameter_whitelist(self):
        bad = dict(MULTICAST_BASE, sweep={"parameter": "noise_w", "values": [1.0]})
        with pytest.raises(ConfigError):
            config_from_dict(bad)
        bad = dict(MULTICAST_BASE, sweep={"parameter": "num_levels", "values": []})
        with pytest.raises(ConfigError):
            config_from_dict(bad)

    def test_stream_slots_must_tile_windows(self):
        with pytest.raises(ConfigError):
            config_from_dict(dict(STREAM_BASE, num_slots=11))

    def test_stream_assoc_and_edges_validated(self):
        with pytest.raises(ConfigError):
            config_from_dict(dict(STREAM_BASE, assoc=[1]))
        with pytest.raises(ConfigError):
            config_from_dict(dict(STREAM_BASE, assoc=[1, 2]))
        with pytest.raises(ConfigError):
            config_from_dict(dict(STREAM_BASE, num_fbs=2, assoc=[1, 2], edges=[[2, 1]]))

    def test_per_user_lists_must_match_population(self):
        with pytest.raises(ConfigError):
            config_from_dict(dict(STREAM_BASE, mean_sinr_fbs=[3.0, 3.0, 3.0]))
        cfg = config_from_dict(dict(STREAM_BASE, mean_sinr_fbs=[3.0, 5.0]))
        assert cfg.mean_sinr_fbs == (3.0, 5.0)

    def test_scalars_broadcast_per_user(self):
        cfg = config_from_dict(dict(STREAM_BASE))
        assert cfg.alpha_db == (30.0, 30.0)
        assert cfg.assoc == [1, 1]

    def test_occupancy_override_keeps_probabilities_sane(self):
        sweep = {"parameter": "eta", "values": [0.2, 0.5]}
        cfg = config_from_dict(dict(STREAM_BASE, sweep=sweep))
        assert cfg.at(0.5).p01 == pytest.approx(0.3)
        too_busy = {"parameter": "eta", "values": [0.5, 0.9]}  # 0.9 implies p01 = 2.7
        with pytest.raises(ConfigError, match="eta sweep value 0.9: p01 must be a probability"):
            config_from_dict(dict(STREAM_BASE, sweep=too_busy))

    def test_unreadable_or_invalid_files_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad)


class TestSeedSpecs:
    def test_forms(self):
        assert parse_seeds("4") == [4]
        assert parse_seeds("0..3") == [0, 1, 2, 3]
        assert parse_seeds("1,5,9") == [1, 5, 9]

    def test_bad_specs_rejected(self):
        for spec in ("", "a", "3..1", "1..2..3", "1;2", "-1", "-2..3", "1,-5"):
            with pytest.raises(ConfigError):
                parse_seeds(spec)


class TestCsv:
    ROWS = [
        ResultRow("s", 0, "4", "proposed", "psnr_mean", 1.0 / 3.0),
        ResultRow("s", 1, "4", "proposed", "psnr_mean", 2.0 / 3.0),
        ResultRow("s", 0, "", "access", "collision_rate_max", 0.125),
    ]

    def test_value_rendering(self):
        assert format_value(1.0 / 3.0) == "0.333333333333"
        assert format_value(2e5) == "200000"

    def test_sweep_rendering(self):
        assert format_sweep(None) == ""
        assert format_sweep(16) == "16"
        assert format_sweep(2.5) == "2.5"
        assert format_sweep([0.3, 0.4]) == "0.3/0.4"
        with pytest.raises(TypeError):
            format_sweep(True)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows(path, self.ROWS)
        assert read_rows(path) == [
            ResultRow("s", 0, "4", "proposed", "psnr_mean", float("0.333333333333")),
            ResultRow("s", 1, "4", "proposed", "psnr_mean", float("0.666666666667")),
            ResultRow("s", 0, "", "access", "collision_rate_max", 0.125),
        ]

    def test_exact_bytes_with_lf_endings(self):
        got = rows_to_bytes(self.ROWS[:1])
        assert got == (
            b"scenario,seed,sweep,algorithm,metric,value\n"
            b"s,0,4,proposed,psnr_mean,0.333333333333\n"
        )

    def test_header_enforced_on_read(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_rows(path)

    def test_aggregate_mean_and_interval(self):
        rows = [ResultRow("s", i, "", "a", "m", float(v)) for i, v in enumerate([1, 2, 3, 4, 5])]
        ((scenario, sweep, algorithm, metric, n, mean, ci),) = aggregate(rows)
        assert (scenario, algorithm, metric, n) == ("s", "a", "m", 5)
        assert mean == pytest.approx(3.0)
        assert ci == pytest.approx(2.7764451 * math.sqrt(2.5 / 5.0), rel=1e-7)

    def test_single_sample_has_empty_interval(self):
        rows = [ResultRow("s", 0, "", "a", "m", 7.0)]
        ((*_, n, mean, ci),) = aggregate(rows)
        assert (n, mean, ci) == (1, 7.0, None)
        buf = io.StringIO()
        write_aggregate(buf, rows)
        assert buf.getvalue().splitlines()[1] == "s,,a,m,1,7,"

    def test_groups_keep_first_appearance_order(self):
        rows = [
            ResultRow("s", 0, "", "a", "m2", 1.0),
            ResultRow("s", 0, "", "a", "m1", 1.0),
            ResultRow("s", 1, "", "a", "m2", 2.0),
        ]
        keys = [r[3] for r in aggregate(rows)]
        assert keys == ["m2", "m1"]

    def test_aggregate_csv_header(self):
        buf = io.StringIO()
        write_aggregate(buf, self.ROWS)
        header = buf.getvalue().splitlines()[0]
        assert header == "scenario,sweep,algorithm,metric,n,mean,ci95"

    def test_t_table(self):
        # closed forms at df 1 and 2: tan(0.475 pi) and 0.95 / sqrt(2 * 0.975 * 0.025)
        assert t_critical(1) == pytest.approx(math.tan(0.475 * math.pi), rel=1e-12)
        assert t_critical(2) == pytest.approx(0.95 / math.sqrt(0.04875), rel=1e-12)
        for df, value in ((4, 2.776), (35, 2.030), (50, 2.009), (1000, 1.962)):
            assert t_critical(df) == pytest.approx(value, abs=1e-3)
        with pytest.raises(ValueError):
            t_critical(0)


class TestRunners:
    def test_multicast_rows_are_deterministic(self):
        cfg = load_config(SCENARIOS / "case1_baseline.json")
        a = run_multicast(cfg, [0, 1])
        b = run_multicast(cfg, [0, 1])
        assert a == b

    def test_stream_rows_are_deterministic(self):
        cfg = config_from_dict(dict(STREAM_BASE))
        a = run_streaming(cfg, [0, 1])
        b = run_streaming(cfg, [0, 1])
        assert a == b
        metrics = {r.metric for r in a}
        assert "psnr_mean" in metrics and "collision_rate_max" in metrics

    def test_instance_draws_fixed_by_seed_and_sweep(self):
        cfg = load_config(SCENARIOS / "fig4_levels.json")
        point = cfg.at(4)
        d0, g0 = multicast_instance(point, seed=3, sweep_index=2)
        d1, g1 = multicast_instance(point, seed=3, sweep_index=2)
        d2, g2 = multicast_instance(point, seed=3, sweep_index=3)
        assert d0 == d1 and np.array_equal(g0, g1)
        assert not (d0 == d2 and np.array_equal(g0, g2))
        assert set(d0.user_level) <= set(range(1, 5))

    def test_coverage_follows_femto_count(self):
        # no femto: everyone on the macro; one femto at fraction 0: everyone covered
        for seed in range(5):
            none, _ = multicast_instance(config_from_dict(MULTICAST_BASE), seed)
            assert none.coverage == (0,) * MULTICAST_BASE["num_users"]
            full, _ = multicast_instance(config_from_dict(FEMTO_MULTICAST), seed)
            assert full.coverage == (1,) * FEMTO_MULTICAST["num_users"]

    @pytest.mark.parametrize(
        "scenario, heuristic", [(MULTICAST_BASE, False), (FEMTO_MULTICAST, True)]
    )
    def test_heuristic_rows_iff_femtos(self, scenario, heuristic):
        rows = run_multicast(config_from_dict(scenario), [0, 1])
        assert ("heuristic" in {r.algorithm for r in rows}) is heuristic

    def test_budget_caps_solver_iterations(self):
        cfg = config_from_dict(dict(STREAM_BASE, max_iters=500, budget=1))
        rows = run_streaming(cfg, [0])
        iters = [r for r in rows if r.metric == "iterations_mean"]
        assert all(r.value <= 1.0 for r in iters)

    def test_stationary_fraction_helper(self):
        assert markov_busy_fraction(0.4, 0.3) == pytest.approx(4.0 / 7.0)
        with pytest.raises(ValueError):
            markov_busy_fraction(0.0, 0.0)


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_wrong_kind_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(STREAM_BASE, kind="simulation")))
        code = self.run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path):
        assert self.run_cli("run", "--config", str(tmp_path / "nope.json")) == 2

    def test_sweepless_config_runs_one_point(self, tmp_path):
        cfg = tmp_path / "nosweep.json"
        cfg.write_text(json.dumps(dict(STREAM_BASE, num_slots=5, window_slots=5)))
        out = tmp_path / "rows.csv"
        assert self.run_cli("run", "--config", str(cfg), "--seeds", "0", "--out", str(out)) == 0
        rows = read_rows(out)
        assert rows and {r.sweep for r in rows} == {""}

    def test_sweep_runs_every_point(self, tmp_path):
        sweep = {"parameter": "num_levels", "values": [1, 2, 3]}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(dict(MULTICAST_BASE, sweep=sweep)))
        out = tmp_path / "rows.csv"
        assert self.run_cli("run", "--config", str(cfg), "--seeds", "0,1", "--out", str(out)) == 0
        points = [
            (r.sweep, r.seed)
            for r in read_rows(out)
            if (r.algorithm, r.metric) == ("proposed", "total_power_w")
        ]
        assert points == [(v, s) for v in ("1", "2", "3") for s in (0, 1)]

    @pytest.mark.parametrize("command", ["stream", "multicast", "sweep"])
    def test_only_run_and_oracle_check_remain(self, command, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(STREAM_BASE))
        with pytest.raises(SystemExit) as exc:
            self.run_cli(command, "--config", str(cfg))
        assert exc.value.code == 2

    def exits_two_before_running(self, tmp_path, monkeypatch, scenario, *argv):
        def must_not_run(cfg, seeds):
            raise AssertionError("the runner started")

        monkeypatch.setattr(cli, "run_streaming", must_not_run)
        monkeypatch.setattr(cli, "run_multicast", must_not_run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(scenario))
        return self.run_cli("run", "--config", str(cfg), "--seeds", "0", *argv) == 2

    @pytest.mark.parametrize("scenario", FLOAT_COUNTS)
    def test_float_count_exits_two(self, tmp_path, monkeypatch, capsys, scenario):
        assert self.exits_two_before_running(tmp_path, monkeypatch, scenario)
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", BOOLEAN_NUMBERS)
    def test_boolean_number_exits_two(self, tmp_path, monkeypatch, capsys, scenario):
        assert self.exits_two_before_running(tmp_path, monkeypatch, scenario)
        assert re.search("must be (a number|numbers)", capsys.readouterr().err)

    @pytest.mark.parametrize("scenario", NON_FINITE_NUMBERS)
    def test_non_finite_number_exits_two(self, tmp_path, monkeypatch, capsys, scenario):
        assert self.exits_two_before_running(tmp_path, monkeypatch, scenario)
        assert re.search("must be (a number|numbers)", capsys.readouterr().err)

    @pytest.mark.parametrize(
        "scenario",
        [pytest.param(dict(STREAM_BASE, emit_trace=1), id="emit_trace")],
    )
    def test_non_boolean_flag_exits_two(self, tmp_path, monkeypatch, capsys, scenario):
        assert self.exits_two_before_running(tmp_path, monkeypatch, scenario)
        assert "must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, message",
        [
            pytest.param(dict(FEMTO_MULTICAST, coverage="single"), "unknown config keys",
                         id="coverage"),
            pytest.param(dict(FEMTO_MULTICAST, include_heuristic=True), "unknown config keys",
                         id="include_heuristic"),
            pytest.param(dict(STREAM_BASE, alloc_iters=120), "unknown config keys",
                         id="alloc_iters"),
            pytest.param(dict(MULTICAST_BASE, macro_only_fraction=0.2),
                         "macro_only_fraction needs femto stations", id="macro_only_no_femto"),
        ],
    )
    def test_derived_setting_exits_two(self, tmp_path, monkeypatch, capsys, scenario, message):
        assert self.exits_two_before_running(tmp_path, monkeypatch, scenario)
        assert message in capsys.readouterr().err

    def test_bad_seed_spec_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(STREAM_BASE))
        assert self.run_cli("run", "--config", str(cfg), "--seeds", "9..1") == 2

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(STREAM_BASE))
        assert self.run_cli("run", "--config", str(cfg), "--seeds=-1") == 2
        assert "negative seed" in capsys.readouterr().err

    def test_budget_below_one_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(STREAM_BASE))
        for budget in ("-5", "0"):
            code = self.run_cli("run", "--config", str(cfg), "--seeds", "0", "--budget", budget)
            assert code == 2
            assert "--budget must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, message",
        [
            (dict(STREAM_BASE, sweep={"parameter": "budget", "values": [1, 2]}), "budget sweep"),
            (
                dict(MULTICAST_BASE, sweep={"parameter": "num_levels", "values": [1, 2]}),
                "only to stream scenarios",
            ),
        ],
    )
    def test_budget_flag_conflicts_exit_two_before_running(
        self, tmp_path, monkeypatch, capsys, scenario, message
    ):
        assert self.exits_two_before_running(tmp_path, monkeypatch, scenario, "--budget", "5")
        assert message in capsys.readouterr().err

    def test_oracle_check_prints_one_ok_line_per_check(self, capsys):
        assert self.run_cli("oracle-check") == 0
        lines = capsys.readouterr().out.splitlines()
        n_checks = len(lines) - 1
        assert n_checks >= 8
        assert all(line.startswith("ok   ") for line in lines[:-1])
        assert lines[-1] == f"{n_checks}/{n_checks} checks passed"

    def test_crashing_oracle_check_fails_cleanly(self, monkeypatch, capsys):
        def crash(rng, count):
            raise ValueError("boom")

        monkeypatch.setattr(oracles, "check_dual_vs_exact", crash)
        assert self.run_cli("oracle-check") == 3
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 1
        assert failed[0].startswith("FAIL schedule-dual-vs-exact: raised ValueError: boom (at ")
        assert lines[-1] == f"{len(lines) - 2}/{len(lines) - 1} checks passed"

    def test_oracle_check_fails_under_optimised_python(self):
        # python -O strips assert statements; a fast path that disagrees with
        # its reference must still fail the check
        script = (
            "from femtokit.harness import oracles\n"
            "oracles.fuse_beliefs_batch = lambda prior, obs, profiles: 2.0\n"
            "ok, detail = oracles.run_check(oracles.check_fusion_routes, None, 0)\n"
            "print(__debug__, ok, detail)\n"
        )
        src = str(Path(oracles.__file__).resolve().parents[2])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.startswith("False False sequential ")
        assert out.rstrip().endswith(" vs batch 2.0")

    def test_run_writes_csv_and_aggregate(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(STREAM_BASE))
        out = tmp_path / "rows.csv"
        agg = tmp_path / "agg.csv"
        code = self.run_cli(
            "run", "--config", str(cfg), "--seeds", "0..2",
            "--out", str(out), "--aggregate", str(agg),
        )
        assert code == 0
        rows = read_rows(out)
        seeds = {r.seed for r in rows}
        assert seeds == {0, 1, 2}
        agg_lines = agg.read_text().splitlines()
        assert agg_lines[0] == "scenario,sweep,algorithm,metric,n,mean,ci95"
        assert any(",psnr_mean,3," in line for line in agg_lines[1:])

    def test_stdout_output_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(STREAM_BASE, num_slots=5, window_slots=5)))
        assert self.run_cli("run", "--config", str(cfg), "--seeds", "0") == 0
        out = capsys.readouterr().out
        assert out.startswith("scenario,seed,sweep,algorithm,metric,value\n")
