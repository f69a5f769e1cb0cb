"""Self-tests of the benchmark's traced run and output checks.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

workloads.import_femtokit()

from femtokit.harness.config import config_from_dict  # noqa: E402


def _instance(scenario, sweep_value, seed, **overrides):
    data = workloads.load_scenario(scenario)
    data.update(overrides, sweep={**data["sweep"], "values": [sweep_value]})
    return workloads.Instance(scenario, str(sweep_value), seed, config_from_dict(data))


# every layer in a few seconds: shortened stream instances with and without
# greedy allocation, and multicast instances with and without exhaustive search
BATCH = [
    _instance("fig9_channels", 12, 0, num_slots=10),
    _instance("fig10_utilization", 0.7, 0, num_slots=20),
    _instance("fig5_bandwidth", 400000.0, 0),
    _instance("fig5_bandwidth", 400000.0, 1),
    _instance("fig4_levels", 3, 0),
]


def _traced_run():
    tracer = spans.Tracer()
    with spans.traced(tracer):
        result = bench.run_batch(BATCH, tracer)
    return spans.layer_metrics(tracer), result


@pytest.fixture(scope="module")
def runs():
    return bench.run_batch(BATCH), _traced_run(), _traced_run()


def test_batch_exercises_every_layer(runs):
    _, (metrics, _), _ = runs
    for layer in spans.LAYERS:
        assert metrics[f"{layer}.self_s"] > 0, layer


def test_traced_runs_repeat_counts_and_hashes_exactly(runs):
    _, (first, r1), (second, r2) = runs
    counts = [name for name in first if not name.endswith("_s")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert r1.digests == r2.digests
    assert r1.batch_digest == r2.batch_digest


def test_tracing_does_not_change_the_output(runs):
    untraced, (_, traced), _ = runs
    assert None not in untraced.digests
    assert traced.digests == untraced.digests
    assert traced.batch_digest == untraced.batch_digest


def test_layer_self_times_add_up_to_traced_run_time(runs):
    _, (metrics, result), _ = runs
    total = sum(value for name, value in metrics.items() if name.endswith(".self_s"))
    assert total <= result.wall_s
    assert total == pytest.approx(result.wall_s, rel=0.02)


def test_wrappers_are_removed_after_the_traced_run():
    def current():
        out = []
        for module, attr, _ in spans.SITES:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part)
            out.append(owner)
        return out

    before = current()
    with spans.traced(spans.Tracer()):
        assert current() != before
    assert current() == before


def test_hash_and_sandwich_misses_count_as_failures(runs):
    untraced, _, _ = runs
    recorded = {"instances": {inst.key: d for inst, d in zip(BATCH, untraced.digests)}}
    assert bench.failed_instances(BATCH, untraced, recorded) == []

    rows = list(untraced.rows)
    rows[2] = [
        dataclasses.replace(r, value=r.value * 1e3)
        if (r.algorithm, r.metric) == ("exhaustive", "total_power_w") else r
        for r in rows[2]
    ]
    digests = list(untraced.digests)
    digests[0] = "0" * 64
    digests[4] = None
    broken = dataclasses.replace(untraced, rows=rows, digests=digests)
    assert bench.failed_instances(BATCH, broken, recorded) == [
        BATCH[0].key, BATCH[2].key, BATCH[4].key
    ]
