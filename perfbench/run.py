"""femtokit benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload stream-greedy --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --check-scenarios
    python3 perfbench/run.py --record

A workload run prints a metric table, a `record` line describing the
machine, and as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Exit code 2 means the benchmark cannot
run in this directory.
"""

import os

# one BLAS thread, pinned before numpy loads here or in a set-up child
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import bench  # noqa: E402
import spans  # noqa: E402
from workloads import POOL, ROOT, SCENARIOS, WORKLOADS, BenchError, build_batch, import_femtokit  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
CHECK_SEEDS = [0, 1, 2]


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _setup_sample(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, so the import is cold each time."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
        "print(repr(workloads.timed_setup(sys.argv[2], int(sys.argv[3]))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


class CheckedRuns:
    """Runs the batch and checks each output as soon as it ends, keeping only
    the timings, so memory does not grow with the number of repeats."""

    def __init__(self, workload: str, seed: int, batch, recorded: dict):
        self.workload, self.seed, self.batch, self.recorded = workload, seed, batch, recorded
        self.results = []
        self.failed = []
        self.batches_match = True

    def run(self, tracer=None):
        result = bench.run_batch(self.batch, tracer)
        self.failed += bench.failed_instances(self.batch, result, self.recorded)
        self.batches_match &= bench.batch_matches(self.workload, self.seed, result, self.recorded)
        result.rows = None
        self.results.append(result)
        return result


def measure(runs: CheckedRuns, seconds: float) -> dict:
    """Untraced: repeat the batch while another one still fits in `seconds`."""
    setup_s = statistics.median(_setup_sample(runs.workload, runs.seed) for _ in range(SETUP_SAMPLES))
    elapsed = 0.0
    while not runs.results or elapsed + max(r.wall_s for r in runs.results) <= seconds:
        elapsed += runs.run().wall_s
    run_s = statistics.median(r.wall_s for r in runs.results)
    # the slowest sweep point, by its median instance over seeds and repeats:
    # the maximum of single instances swings with whichever seed is heaviest
    by_point = {}
    for inst, times in zip(runs.batch, zip(*(r.instance_s for r in runs.results))):
        by_point.setdefault((inst.scenario, inst.sweep), []).extend(times)
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "instances_per_s": (len(runs.batch) / run_s, "1/s"),
        "instance_max_s": (max(statistics.median(t) for t in by_point.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def measure_traced(runs: CheckedRuns) -> dict:
    """One untraced batch, then the same batch traced, so counts repeat exactly."""
    base = runs.run()
    tracer = spans.Tracer()
    with spans.traced(tracer):
        traced = runs.run(tracer)
    metrics = {name: (value, _unit(name)) for name, value in spans.layer_metrics(tracer).items()}
    metrics["trace.run_s"] = (traced.wall_s, "s")
    metrics["trace_overhead_ratio"] = (traced.wall_s / base.wall_s, "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{runs.workload}-seed{runs.seed}.csv")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    load_start = os.getloadavg()
    batch = build_batch(workload, seed)
    runs = CheckedRuns(workload, seed, batch, bench.load_hashes())
    metrics = measure_traced(runs) if trace else measure(runs, seconds)
    results, failed, batches_match = runs.results, runs.failed, runs.batches_match
    attempted = len(batch) * len(results)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "batches": len(results),
        "instances_per_batch": len(batch),
        "batch_wall_s": [r.wall_s for r in results],
        "failed_instances": failed,
        "batch_hashes_match": batches_match,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_PIN,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }

    print(f"{workload} seed {seed}: {len(results)} batch(es) of {len(batch)} instances")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:<14.6g} {unit}")
    print(f"  {'failed_fraction':<34} {len(failed) / attempted:<14.6g} ratio")
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps({**record, "metrics": metrics}, indent=1) + "\n", encoding="utf-8")
    print("record " + json.dumps(record))
    return {
        "correct": not failed and batches_match,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def scenario_digest(path: Path) -> str:
    """CSV SHA-256 of a whole scenario at CHECK_SEEDS, as the femtokit CLI writes it."""
    from femtokit.harness.config import load_config

    return bench.csv_sha256(bench.run_config(load_config(path), CHECK_SEEDS))


def check_scenarios() -> int:
    recorded = bench.load_hashes()["scenarios"]
    paths = sorted(SCENARIOS.glob("*.json"))
    bad = 0
    for path in paths:
        digest = scenario_digest(path)
        ok = digest == recorded.get(path.stem)
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {path.stem} {digest}", flush=True)
    print(f"{len(paths) - bad}/{len(paths)} scenarios byte-identical at seeds {CHECK_SEEDS}")
    return 1 if bad else 0


def record_hashes() -> None:
    """Rewrite hashes.json from the current program's output."""
    rows_of = {}
    batches = {}
    for workload in WORKLOADS:
        batches[workload] = {}
        for pool_index in range(POOL):
            batch = build_batch(workload, pool_index)
            for inst in batch:
                if inst.key not in rows_of:
                    rows_of[inst.key] = bench.run_instance(inst)
            rows = itertools.chain.from_iterable(rows_of[inst.key] for inst in batch)
            batches[workload][str(pool_index)] = bench.csv_sha256(rows)
        print(f"recorded {workload}", flush=True)
    data = {
        "instances": {key: bench.csv_sha256(rows) for key, rows in rows_of.items()},
        "batches": batches,
        "scenarios": {path.stem: scenario_digest(path) for path in sorted(SCENARIOS.glob("*.json"))},
    }
    bench.HASHES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {bench.HASHES}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check-scenarios", action="store_true",
        help="untimed: every scenario at seeds 0..2 against its recorded CSV hash",
    )
    mode.add_argument("--record", action="store_true", help="rewrite hashes.json")
    args = parser.parse_args(argv)
    if not (args.workload or args.check_scenarios or args.record):
        parser.error("give --workload, --check-scenarios or --record")
    try:
        import_femtokit()
        if args.check_scenarios:
            return check_scenarios()
        if args.record:
            record_hashes()
            return 0
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
