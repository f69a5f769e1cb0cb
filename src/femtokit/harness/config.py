"""Scenario configuration: strict JSON schemas for the two experiment kinds.

Unknown keys are rejected so typos never silently fall back to defaults.
"""

import dataclasses
import json
import math
from dataclasses import dataclass


class ConfigError(Exception):
    """Raised for malformed or inconsistent scenario configuration."""


MULTICAST_SWEEPS = ("num_levels", "mbs_bandwidth_hz")
STREAM_SWEEPS = ("num_channels", "eta", "sensing_error", "common_bandwidth_bps", "max_iters")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """JSON numbers only: Python counts booleans as ints and reads NaN and
    Infinity as floats, JSON has neither."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _require_scalars(cfg) -> None:
    """Every float setting holds a number, the optional ones may be None,
    and every bool setting holds a JSON boolean."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.type is float or (f.type == "float | None" and value is not None):
            _require(_is_number(value), f"{f.name} must be a number")
        elif f.type is bool:
            _require(isinstance(value, bool), f"{f.name} must be true or false")


def _require_count(cfg, name: str, minimum: int) -> None:
    value = getattr(cfg, name)
    _require(_is_int(value) and value >= minimum, f"{name} must be an integer >= {minimum}")


def _check_sweep(cfg, allowed) -> None:
    """Structural checks, then each value is checked by building its point."""
    sweep = cfg.sweep
    if sweep is None:
        return
    _require(isinstance(sweep, dict), "sweep must be an object")
    extra = sorted(set(sweep) - {"parameter", "values"})
    _require(not extra, f"unknown sweep keys: {extra}")
    _require("parameter" in sweep and "values" in sweep, "sweep needs 'parameter' and 'values'")
    _require(
        sweep["parameter"] in allowed,
        f"sweep parameter {sweep['parameter']!r} not in {sorted(allowed)}",
    )
    values = sweep["values"]
    _require(isinstance(values, list) and len(values) > 0, "sweep values must be a non-empty list")
    for value in values:
        try:
            cfg.at(value)
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"{sweep['parameter']} sweep value {value!r}: {exc}") from None


@dataclass
class MulticastConfig:
    """One layered-multicast power experiment.

    Without femtos every user is macro-only. With them each user draws a
    femto and is macro-only with probability macro_only_fraction.
    """

    name: str
    kind: str
    num_users: int
    num_levels: int
    target_rate_bps: float
    noise_w: float
    mbs_bandwidth_hz: float
    num_fbs: int = 0
    fbs_bandwidth_hz: "float | None" = None
    total_bandwidth_hz: "float | None" = None
    mbs_gain_mean: float = 1.0
    fbs_gain_mean: "float | None" = None
    macro_only_fraction: float = 0.0
    sweep: "dict | None" = None

    def __post_init__(self):
        _require(self.kind == "multicast", f"expected kind 'multicast', got {self.kind!r}")
        _require(bool(self.name), "name must be non-empty")
        _require_scalars(self)
        _require_count(self, "num_users", 1)
        _require_count(self, "num_levels", 1)
        _require_count(self, "num_fbs", 0)
        _require(self.target_rate_bps > 0, "target_rate_bps must be positive")
        _require(self.noise_w > 0, "noise_w must be positive")
        _require(self.mbs_bandwidth_hz > 0, "mbs_bandwidth_hz must be positive")
        _require(self.mbs_gain_mean > 0, "mbs_gain_mean must be positive")
        _require(0.0 <= self.macro_only_fraction < 1.0, "macro_only_fraction must be in [0, 1)")
        _require(self.num_fbs > 0 or self.macro_only_fraction == 0.0,
                 "macro_only_fraction needs femto stations: without them every user is macro-only")
        if self.num_fbs > 0:
            _require(self.fbs_gain_mean is not None and self.fbs_gain_mean > 0,
                     "femto scenarios need a positive fbs_gain_mean")
            _require(
                (self.fbs_bandwidth_hz is not None) != (self.total_bandwidth_hz is not None),
                "femto scenarios need exactly one of fbs_bandwidth_hz or total_bandwidth_hz",
            )
            if self.fbs_bandwidth_hz is not None:
                _require(self.fbs_bandwidth_hz > 0, "fbs_bandwidth_hz must be positive")
            if self.total_bandwidth_hz is not None:
                _require(self.total_bandwidth_hz > self.mbs_bandwidth_hz,
                         "total_bandwidth_hz must exceed mbs_bandwidth_hz")
        _check_sweep(self, MULTICAST_SWEEPS)

    def at(self, value) -> "MulticastConfig":
        """The plain config of one sweep point: the swept field set to value."""
        return dataclasses.replace(self, **{self.sweep["parameter"]: value}, sweep=None)

    def bandwidths_hz(self):
        """Per-station bandwidth vector."""
        b0 = self.mbs_bandwidth_hz
        if self.num_fbs == 0:
            return [b0]
        bf = (
            self.fbs_bandwidth_hz
            if self.fbs_bandwidth_hz is not None
            else self.total_bandwidth_hz - b0
        )
        return [b0] + [bf] * self.num_fbs


@dataclass
class StreamConfig:
    """One stochastic video-scheduling experiment over sensed spectrum."""

    name: str
    kind: str
    num_users: int
    num_channels: int
    num_slots: int
    window_slots: int
    p01: float
    p10: float
    gamma: float
    false_alarm: float
    miss: float
    common_bandwidth_bps: float
    channel_bandwidth_bps: float
    alpha_db: object
    beta_db_per_bps: object
    mean_sinr_mbs: object
    mean_sinr_fbs: object
    num_fbs: int = 1
    assoc: "list | None" = None
    edges: "list | None" = None
    max_rate_bps: object = None
    step: float = 0.01
    phi: float = 1e-6
    max_iters: int = 2000
    emit_trace: bool = False
    sweep: "dict | None" = None

    def __post_init__(self):
        _require(self.kind == "stream", f"expected kind 'stream', got {self.kind!r}")
        _require(bool(self.name), "name must be non-empty")
        _require_scalars(self)
        for name in ("num_users", "num_channels", "num_slots", "window_slots", "num_fbs",
                     "max_iters"):
            _require_count(self, name, 1)
        _require(self.num_slots % self.window_slots == 0,
                 "num_slots must be a positive multiple of window_slots")
        for nm in ("p01", "p10", "gamma"):
            v = getattr(self, nm)
            _require(0.0 <= v <= 1.0, f"{nm} must be a probability")
        for nm in ("false_alarm", "miss"):
            v = getattr(self, nm)
            _require(0.0 <= v < 0.5, f"{nm} must be in [0, 0.5)")
        _require(self.common_bandwidth_bps > 0, "common_bandwidth_bps must be positive")
        _require(self.channel_bandwidth_bps > 0, "channel_bandwidth_bps must be positive")
        if self.assoc is None:
            self.assoc = [1] * self.num_users
        _require(len(self.assoc) == self.num_users, "assoc needs one femto id per user")
        _require(all(_is_int(a) and 1 <= a <= self.num_fbs for a in self.assoc),
                 "assoc entries must be femto ids in 1..num_fbs")
        if self.edges is None:
            self.edges = []
        for e in self.edges:
            _require(isinstance(e, list) and len(e) == 2, f"edge {e} must be a [i, j] pair")
            i, j = e
            _require(_is_int(i) and _is_int(j) and 1 <= i < j <= self.num_fbs,
                     f"edge {e} must satisfy 1 <= i < j <= num_fbs")
        self.alpha_db = self._per_user("alpha_db", self.alpha_db, positive=True)
        self.beta_db_per_bps = self._per_user("beta_db_per_bps", self.beta_db_per_bps, positive=True)
        if self.max_rate_bps is not None:
            self.max_rate_bps = self._per_user("max_rate_bps", self.max_rate_bps, positive=True)
        self.mean_sinr_mbs = self._per_user("mean_sinr_mbs", self.mean_sinr_mbs, positive=True)
        self.mean_sinr_fbs = self._per_user("mean_sinr_fbs", self.mean_sinr_fbs, positive=True)
        _require(self.step > 0, "step must be positive")
        _require(self.phi >= 0, "phi cannot be negative")
        _check_sweep(self, STREAM_SWEEPS)

    def at(self, value) -> "StreamConfig":
        """The plain config of one sweep point.

        eta sets p01 so that the chain's stationary busy fraction is eta,
        sensing_error sets [false_alarm, miss], and every other parameter
        sets its own field. The point's own checks judge the value.
        """
        param = self.sweep["parameter"]
        if param == "eta":
            _require(_is_number(value), "eta must be a number")
            _require(0.0 < value < 1.0, "eta must be in (0, 1)")
            _require(self.p10 > 0, "an eta sweep needs p10 > 0")
            fields = {"p01": value * self.p10 / (1.0 - value)}
        elif param == "sensing_error":
            _require(isinstance(value, list) and len(value) == 2,
                     "sensing_error values must be [false_alarm, miss] pairs")
            fields = dict(zip(("false_alarm", "miss"), value))
        else:
            fields = {param: value}
        return dataclasses.replace(self, **fields, sweep=None)

    def _per_user(self, name, value, positive: bool):
        if _is_number(value):
            values = (float(value),) * self.num_users
        elif isinstance(value, (list, tuple)):
            _require(len(value) == self.num_users, f"{name} list needs one entry per user")
            _require(all(_is_number(v) for v in value), f"{name} entries must be numbers")
            values = tuple(float(v) for v in value)
        else:
            raise ConfigError(f"{name} must be a number or a per-user list")
        if positive:
            _require(all(v > 0 for v in values), f"{name} entries must be positive")
        return values


def sweep_points(cfg) -> list:
    """(value, config at that value) per sweep point; (None, cfg) without a sweep."""
    if cfg.sweep is None:
        return [(None, cfg)]
    return [(value, cfg.at(value)) for value in cfg.sweep["values"]]


_KINDS = {"multicast": MulticastConfig, "stream": StreamConfig}


def config_from_dict(data: dict):
    """Build a config from a parsed JSON object, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    kind = data.get("kind")
    if kind not in _KINDS:
        raise ConfigError(f"kind must be one of {sorted(_KINDS)}, got {kind!r}")
    cls = _KINDS[kind]
    known = {f.name for f in dataclasses.fields(cls)}
    extra = sorted(set(data) - known)
    if extra:
        raise ConfigError(f"unknown config keys: {extra}")
    missing = sorted(
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.name not in data
    )
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path):
    """Load and validate a scenario config from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
