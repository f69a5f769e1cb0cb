"""Run a batch of instances through the harness's public runners and check
the outputs: CSV SHA-256 per instance and per batch, and the multicast
bound sandwich on every instance that has exhaustive rows."""

import hashlib
import io
import itertools
import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import POOL, BenchError

HASHES = Path(__file__).resolve().parent / "hashes.json"
SANDWICH_REL_TOL = 1e-9


@dataclass
class BatchResult:
    wall_s: float
    instance_s: list
    rows: list  # per instance: result rows, or None when it raised
    digests: list  # per instance: CSV SHA-256, or None when it raised
    batch_digest: str


def csv_sha256(rows) -> str:
    from femtokit.harness.csvio import write_rows

    buf = io.StringIO()
    write_rows(buf, rows)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def run_config(config, seeds) -> list:
    """The harness's public runner for this kind of scenario."""
    from femtokit.harness import runners
    from femtokit.harness.config import StreamConfig

    if isinstance(config, StreamConfig):
        return runners.run_streaming(config, seeds)
    return runners.run_multicast(config, seeds)


def run_instance(inst) -> list:
    """One runner call for one (sweep value, seed) instance."""
    return run_config(inst.config, [inst.seed])


def run_batch(batch, tracer=None) -> BatchResult:
    """Run every instance once, in order; time it with its CSV hashing."""
    from femtokit.harness import runners
    from femtokit.harness.config import ConfigError

    span = tracer.span if tracer is not None else (lambda name, layer: nullcontext())
    times, all_rows, digests = [], [], []
    t_batch = perf_counter()
    for inst in batch:
        t0 = perf_counter()
        digest = None
        try:
            with span("harness.run", "harness"):
                rows = run_instance(inst)
        except (runners.HarnessError, ConfigError):
            rows = None
        else:
            with span("harness.write_rows", "harness.csv"):
                digest = csv_sha256(rows)
        times.append(perf_counter() - t0)
        all_rows.append(rows)
        digests.append(digest)
    with span("harness.write_rows", "harness.csv"):
        batch_digest = csv_sha256(itertools.chain.from_iterable(r or () for r in all_rows))
    return BatchResult(perf_counter() - t_batch, times, all_rows, digests, batch_digest)


def sandwich_holds(rows) -> bool:
    """lower_tight <= exhaustive <= proposed total power, when exhaustive ran."""
    values = {(r.algorithm, r.metric): r.value for r in rows}
    exhaustive = values.get(("exhaustive", "total_power_w"))
    if exhaustive is None:
        return True
    lower = values[("bounds", "lower_tight_w")]
    proposed = values[("proposed", "total_power_w")]
    slack = 1.0 + SANDWICH_REL_TOL
    return lower <= exhaustive * slack and exhaustive <= proposed * slack


def load_hashes() -> dict:
    if not HASHES.is_file():
        raise BenchError(f"missing recorded hashes {HASHES}")
    return json.loads(HASHES.read_text(encoding="utf-8"))


def failed_instances(batch, result: BatchResult, recorded: dict) -> list:
    """Keys of the instances that raised, changed bytes or broke the sandwich."""
    expected = recorded["instances"]
    return [
        inst.key
        for inst, rows, digest in zip(batch, result.rows, result.digests)
        if digest is None or digest != expected.get(inst.key) or not sandwich_holds(rows)
    ]


def batch_matches(workload: str, seed: int, result: BatchResult, recorded: dict) -> bool:
    return recorded["batches"][workload].get(str(seed % POOL)) == result.batch_digest
