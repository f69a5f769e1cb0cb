"""Config schemas, CSV round trips, seeds, runners, and the CLI."""

import copy
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from femtokit.harness.cli import main, parse_seeds
from femtokit.harness.config import (
    ConfigError,
    MulticastConfig,
    StreamConfig,
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
        data = dict(MULTICAST_BASE, num_fbs=1, coverage="single", fbs_gain_mean=1.0)
        with pytest.raises(ConfigError):
            config_from_dict(data)
        both = dict(data, fbs_bandwidth_hz=1e6, total_bandwidth_hz=2e6)
        with pytest.raises(ConfigError):
            config_from_dict(both)
        ok = config_from_dict(dict(data, fbs_bandwidth_hz=1e6))
        assert ok.bandwidths_hz() == [1e6, 1e6]

    def test_remaining_band_computed_from_total(self):
        data = dict(
            MULTICAST_BASE, num_fbs=1, coverage="single", fbs_gain_mean=1.0,
            total_bandwidth_hz=2.5e6,
        )
        cfg = config_from_dict(data)
        assert cfg.bandwidths_hz() == [1e6, 1.5e6]
        assert cfg.bandwidths_hz(mbs_bandwidth=2e6) == [2e6, 0.5e6]

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
        cfg = config_from_dict(dict(STREAM_BASE, eta=0.5))
        assert cfg._p01_from_eta(0.5) == pytest.approx(0.3)
        with pytest.raises(ConfigError):
            config_from_dict(dict(STREAM_BASE, eta=0.9))  # implies p01 = 2.7

    def test_algorithms_must_include_proposed(self):
        with pytest.raises(ConfigError):
            config_from_dict(dict(STREAM_BASE, algorithms=["equal"]))
        with pytest.raises(ConfigError):
            config_from_dict(dict(STREAM_BASE, algorithms=["proposed", "best"]))

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
        for spec in ("", "a", "3..1", "1..2..3", "1;2"):
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
        ((*_, n, mean, ci),) = aggregate([ResultRow("s", 0, "", "a", "m", 7.0)])
        assert (n, mean, ci) == (1, 7.0, 0.0)

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
        d0, g0 = multicast_instance(cfg, 4, seed=3, sweep_index=2)
        d1, g1 = multicast_instance(cfg, 4, seed=3, sweep_index=2)
        d2, g2 = multicast_instance(cfg, 4, seed=3, sweep_index=3)
        assert d0 == d1 and np.array_equal(g0, g1)
        assert not (d0 == d2 and np.array_equal(g0, g2))
        assert set(d0.user_level) <= set(range(1, 5))

    def test_budget_caps_solver_iterations(self):
        cfg = config_from_dict(dict(STREAM_BASE, max_iters=500))
        rows = run_streaming(cfg, [0], budget=1)
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
        code = self.run_cli(
            "multicast", "--config", str(SCENARIOS / "fig12_common_bw.json"),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path):
        assert self.run_cli("stream", "--config", str(tmp_path / "nope.json")) == 2

    def test_sweepless_config_rejected_for_sweep_command(self, tmp_path):
        cfg = tmp_path / "nosweep.json"
        cfg.write_text(json.dumps(STREAM_BASE))
        assert self.run_cli("sweep", "--config", str(cfg)) == 2

    def test_bad_seed_spec_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(STREAM_BASE))
        assert self.run_cli("stream", "--config", str(cfg), "--seeds", "9..1") == 2

    def test_run_writes_csv_and_aggregate(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(STREAM_BASE))
        out = tmp_path / "rows.csv"
        agg = tmp_path / "agg.csv"
        code = self.run_cli(
            "stream", "--config", str(cfg), "--seeds", "0..2",
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
        assert self.run_cli("stream", "--config", str(cfg), "--seeds", "0") == 0
        out = capsys.readouterr().out
        assert out.startswith("scenario,seed,sweep,algorithm,metric,value\n")
