"""Traced run: spans around femtokit's public functions, and the per-layer
metrics computed from them.

Wrappers are installed only inside `traced()` and are put back when it
exits. Each is installed at the name its caller looks up: the runners'
imported names for top-level calls, and the library's own module globals
for the calls the library makes to itself (AllocationValue's candidate
solves, brute_force_multicast's and solve_case2/3's power evaluations).
A span records (site, start, end, parent); a layer's self time is its
spans' time minus the time covered by their child spans.
"""

import csv
import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

RUNNERS = "femtokit.harness.runners"

# (module, attribute, layer). Layer None inherits the caller's layer.
SITES = (
    (RUNNERS, "greedy_alloc", "scheduler.greedy"),
    ("femtokit.scheduler", "AllocationValue.__init__", "scheduler.greedy"),
    ("femtokit.scheduler", "AllocationValue.improvement", "scheduler.greedy"),
    ("femtokit.scheduler", "solve_noninterfering", "scheduler.solve_alloc"),
    (RUNNERS, "solve_noninterfering", "scheduler.solve_slot"),
    (RUNNERS, "heuristic_equal", "scheduler.baselines"),
    (RUNNERS, "heuristic_diversity", "scheduler.baselines"),
    (RUNNERS, "optbound_upper", "scheduler.baselines"),
    (RUNNERS, "solve_case1", "multicast.solve"),
    (RUNNERS, "solve_case2", "multicast.solve"),
    (RUNNERS, "solve_case3", "multicast.solve"),
    (RUNNERS, "heuristic_assign", "multicast.heuristic"),
    (RUNNERS, "total_power", "multicast.heuristic"),
    ("femtokit.multicast", "total_power", None),
    (RUNNERS, "bounds", "multicast.bounds"),
    (RUNNERS, "brute_force_multicast", "multicast.exhaustive"),
    (RUNNERS, "verify_feasible", "multicast.verify"),
    (RUNNERS, "step_primary", "spectrum.sense"),
    (RUNNERS, "sense", "spectrum.sense"),
    (RUNNERS, "fuse_beliefs", "spectrum.fuse"),
    (RUNNERS, "decide_access", "spectrum.access"),
    (RUNNERS, "update_psnr", "video.update"),
    (RUNNERS, "success_probability", "video.update"),
    (RUNNERS, "make_rng", "netmodel"),
    (RUNNERS, "sample_gains", "netmodel"),
    (RUNNERS, "footprint_volume", "netmodel"),
    (RUNNERS, "window_psnr_by_bits", "harness.oracle"),
)

LAYERS = (
    "scheduler.greedy",
    "scheduler.solve_alloc",
    "scheduler.solve_slot",
    "scheduler.baselines",
    "multicast.solve",
    "multicast.heuristic",
    "multicast.bounds",
    "multicast.exhaustive",
    "multicast.verify",
    "spectrum.sense",
    "spectrum.fuse",
    "spectrum.access",
    "video.update",
    "netmodel",
    "harness",
    "harness.oracle",
    "harness.csv",
)

# per-layer metric -> sites whose spans it counts
CALL_COUNTS = {
    "scheduler.greedy.calls": ("runners.greedy_alloc",),
    "scheduler.greedy.candidates": ("scheduler.AllocationValue.improvement",),
    "scheduler.solve_alloc.calls": ("scheduler.solve_noninterfering",),
    "scheduler.solve_slot.calls": ("runners.solve_noninterfering",),
    "multicast.solve.calls": ("runners.solve_case1", "runners.solve_case2", "runners.solve_case3"),
    "multicast.exhaustive.calls": ("runners.brute_force_multicast",),
    "spectrum.sense.calls": ("runners.sense",),
    "spectrum.fuse.calls": ("runners.fuse_beliefs",),
    "spectrum.access.calls": ("runners.decide_access",),
    "video.update.calls": ("runners.update_psnr",),
    "netmodel.calls": ("runners.make_rng", "runners.sample_gains", "runners.footprint_volume"),
}


def _site_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def _count_solve(counts, layer, solution):
    counts[f"{layer}.iters"] += solution.iterations
    counts["scheduler.converged"] += bool(solution.converged)


def _count_access(counts, layer, decision):
    counts["spectrum.access.cleared"] += len(decision.available)
    counts["spectrum.access.offered"] += len(decision.p_access)


OBSERVERS = {
    "scheduler.solve_noninterfering": _count_solve,
    "runners.solve_noninterfering": _count_solve,
    "runners.decide_access": _count_access,
}


class Tracer:
    """Spans kept in memory as flat arrays, plus result-derived counters."""

    def __init__(self):
        self.sites = []  # (name, layer or None)
        self._index = {}
        self.site = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter()

    def _site(self, name: str, layer) -> int:
        if name not in self._index:
            self._index[name] = len(self.sites)
            self.sites.append((name, layer))
        return self._index[name]

    def _begin(self, site: int) -> int:
        i = len(self.start)
        self.site.append(site)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        i = self._begin(self._site(name, layer))
        try:
            yield
        finally:
            self._finish(i)

    def wrap(self, fn, name: str, layer):
        site = self._site(name, layer)
        observe = OBSERVERS.get(name)

        def traced_call(*args, **kwargs):
            i = self._begin(site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(i)
            if observe is not None:
                observe(self.counts, layer, result)
            return result

        return traced_call

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("name", "start", "end", "parent"))
            for s, t0, t1, p in zip(self.site, self.start, self.end, self.parent):
                writer.writerow((self.sites[s][0], repr(t0), repr(t1), p))


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for module, attr, layer in SITES:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, tracer.wrap(original, _site_name(module, attr), layer))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Exact counts and per-layer self times from the recorded spans."""
    site = np.frombuffer(tracer.site, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = np.frombuffer(tracer.end, dtype=float) - np.frombuffer(tracer.start, dtype=float)
    n = len(site)
    nested = parent >= 0
    children = np.bincount(parent[nested], minlength=n)
    self_s = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)

    # parents precede their children, so one forward pass resolves inherited layers
    layer_of_site = [LAYERS.index(layer) if layer else -1 for _, layer in tracer.sites]
    layer = np.empty(n, dtype=np.int64)
    for i, (s, p) in enumerate(zip(site.tolist(), parent.tolist())):
        own = layer_of_site[s]
        layer[i] = own if own >= 0 else layer[p]
    per_layer = np.bincount(layer, weights=self_s, minlength=len(LAYERS))

    def spans_of(*names):
        ids = [tracer._index[nm] for nm in names if nm in tracer._index]
        return np.isin(site, ids)

    counts = tracer.counts
    metrics = {f"{name}.self_s": float(per_layer[k]) for k, name in enumerate(LAYERS)}
    for metric, names in CALL_COUNTS.items():
        metrics[metric] = int(spans_of(*names).sum())

    improvements = spans_of("scheduler.AllocationValue.improvement")
    metrics["scheduler.alloc_cache.hit_ratio"] = _ratio(
        int((improvements & (children == 0)).sum()), int(improvements.sum())
    )
    exhaustive = spans_of("runners.brute_force_multicast")
    in_exhaustive = nested & exhaustive[np.maximum(parent, 0)]
    metrics["multicast.exhaustive.evals"] = int(
        (spans_of("multicast.total_power") & in_exhaustive).sum()
    )
    metrics["scheduler.solve_alloc.iters"] = counts["scheduler.solve_alloc.iters"]
    metrics["scheduler.solve_slot.iters"] = counts["scheduler.solve_slot.iters"]
    metrics["scheduler.converged_ratio"] = _ratio(
        counts["scheduler.converged"],
        metrics["scheduler.solve_alloc.calls"] + metrics["scheduler.solve_slot.calls"],
    )
    metrics["spectrum.access.cleared_ratio"] = _ratio(
        counts["spectrum.access.cleared"], counts["spectrum.access.offered"]
    )
    return metrics
