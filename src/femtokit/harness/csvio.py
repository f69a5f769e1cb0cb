"""Deterministic CSV results: one metric value per row, plus aggregation.

Floats are rendered with %.12g so identical runs produce identical bytes.
"""

import csv
import functools
import io
import math
from dataclasses import dataclass

COLUMNS = ("scenario", "seed", "sweep", "algorithm", "metric", "value")
AGG_COLUMNS = ("scenario", "sweep", "algorithm", "metric", "n", "mean", "ci95")

def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta function,
    evaluated by the modified Lentz method; converges fast for
    x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _beta_regularized(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


@functools.lru_cache(maxsize=256)
def t_critical(df: int) -> float:
    """95% two-sided Student-t critical value: the t with P(|T| > t) = 0.05.

    Bisects the two-sided tail I_{df/(df+t^2)}(df/2, 1/2), which falls
    monotonically in t, to double precision.
    """
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")

    def tail(t):
        return _beta_regularized(df / 2.0, 0.5, df / (df + t * t))

    lo, hi = 0.0, 2.0
    while tail(hi) > 0.05:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if tail(mid) > 0.05:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ResultRow:
    scenario: str
    seed: int
    sweep: str
    algorithm: str
    metric: str
    value: float


def format_value(value: float) -> str:
    return "%.12g" % float(value)


def format_sweep(value) -> str:
    """Sweep coordinate as a stable string; '' when the run has no sweep."""
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return "/".join(format_sweep(v) for v in value)
    if isinstance(value, bool):
        raise TypeError("sweep values cannot be booleans")
    if isinstance(value, int):
        return str(value)
    return "%g" % float(value)


def write_rows(target, rows) -> None:
    """Write result rows as UTF-8 CSV with LF line endings."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            write_rows(fh, rows)
        return
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(COLUMNS)
    for r in rows:
        writer.writerow((r.scenario, r.seed, r.sweep, r.algorithm, r.metric, format_value(r.value)))


def rows_to_bytes(rows) -> bytes:
    buf = io.StringIO()
    write_rows(buf, rows)
    return buf.getvalue().encode("utf-8")


def read_rows(path) -> list:
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != COLUMNS:
            raise ValueError(f"unexpected header {header}")
        for rec in reader:
            scenario, seed, sweep, algorithm, metric, value = rec
            out.append(ResultRow(scenario, int(seed), sweep, algorithm, metric, float(value)))
    return out


def aggregate(rows) -> list:
    """Mean and 95% t-interval half-width per (scenario, sweep, algorithm,
    metric) across seeds, in first-appearance order. One seed gives no
    interval: its half-width is None."""
    groups = {}
    order = []
    for r in rows:
        key = (r.scenario, r.sweep, r.algorithm, r.metric)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(r.value)
    out = []
    for key in order:
        values = groups[key]
        n = len(values)
        mean = sum(values) / n
        if n == 1:
            ci = None
        else:
            var = sum((v - mean) ** 2 for v in values) / (n - 1)
            ci = t_critical(n - 1) * math.sqrt(var / n)
        out.append(key + (n, mean, ci))
    return out


def write_aggregate(target, rows) -> None:
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            write_aggregate(fh, rows)
        return
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(AGG_COLUMNS)
    for scenario, sweep, algorithm, metric, n, mean, ci in aggregate(rows):
        ci95 = "" if ci is None else format_value(ci)
        writer.writerow((scenario, sweep, algorithm, metric, n, format_value(mean), ci95))
