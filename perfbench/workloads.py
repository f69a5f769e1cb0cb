"""Benchmark workloads: which scenario instances each workload runs.

An instance is one (scenario, sweep value, seed) call of the harness's
public runner. A workload's batch for benchmark seed n is a fixed instance
list built from pool index n % POOL. The output hashes of every pool batch
are recorded in hashes.json, so every run checks its CSV bytes exactly.

This module imports only the standard library, so the set-up timer can
import it before starting the clock.
"""

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
POOL = 10


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or recorded data)."""


@dataclass(frozen=True)
class Part:
    """Instances from one scenario: each listed sweep value (None: all the
    scenario's values) at `count` consecutive seeds from pool_index * stride."""

    scenario: str
    sweep_values: "tuple | None"
    stride: int
    count: int


# A batch spans consecutive scenario seeds, so its work varies less between
# benchmark seeds than the work of one scenario seed does.
WORKLOADS = {
    # 3 femtos on a path graph: greedy channel allocation runs in every slot
    # and its candidate solves dominate. 12 channels is the cheapest sweep
    # point, so two seeds fit one run.
    "stream-greedy": (Part("fig9_channels", (12,), 1, 2),),
    # one femto, so greedy never runs: few long price iterations, from
    # all-converged (eta 0.2) to the pattern-cap path (eta 0.7). The work of
    # an eta 0.7 instance varies by about 40% between seeds, so six seeds.
    "stream-single": (Part("fig10_utilization", (0.2, 0.7), 1, 6),),
    # thousands of small multicast instances; fig5's 8 users each cost a
    # 256-assignment exhaustive search, fig4's 10 users skip it
    "multicast-mix": (
        Part("fig5_bandwidth", None, 1, 10),
        Part("fig4_levels", None, 5, 50),
    ),
}


@dataclass(frozen=True)
class Instance:
    scenario: str
    sweep: str
    seed: int
    config: object

    @property
    def key(self) -> str:
        return f"{self.scenario}/{self.sweep}/{self.seed}"


def import_femtokit():
    """Import femtokit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "femtokit" / "__init__.py").is_file():
        raise BenchError(f"no femtokit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import femtokit

    if Path(femtokit.__file__).resolve().parent != (src / "femtokit").resolve():
        raise BenchError(f"femtokit was imported from {femtokit.__file__}, not {src}")
    return femtokit


def load_scenario(name: str) -> dict:
    path = SCENARIOS / f"{name}.json"
    if not path.is_file():
        raise BenchError(f"missing scenario {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def part_instances(part: Part, pool_index: int) -> list:
    """One config per sweep value, in the runner's own (sweep, seed) order."""
    from femtokit.harness.config import config_from_dict
    from femtokit.harness.csvio import format_sweep

    data = load_scenario(part.scenario)
    values = part.sweep_values or data["sweep"]["values"]
    first = pool_index * part.stride
    out = []
    for value in values:
        config = config_from_dict({**data, "sweep": {**data["sweep"], "values": [value]}})
        sweep = format_sweep(value)
        out.extend(
            Instance(part.scenario, sweep, seed, config)
            for seed in range(first, first + part.count)
        )
    return out


def build_batch(workload: str, seed: int) -> list:
    pool_index = seed % POOL
    return [inst for part in WORKLOADS[workload] for inst in part_instances(part, pool_index)]


def timed_setup(workload: str, seed: int) -> float:
    """Seconds to import femtokit, load the configs and build the batch."""
    t0 = time.perf_counter()
    import_femtokit()
    build_batch(workload, seed)
    return time.perf_counter() - t0
