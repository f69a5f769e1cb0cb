"""Shared network primitives: block-fading gains and unit helpers.

Channel gains are redrawn independently every slot (block fading). Sampling is
a pure function of (seed, slot_index), so sweep points and Monte-Carlo seeds
can be evaluated in any order, or in parallel, without changing the draws.
"""

import math
from dataclasses import dataclass

import numpy as np


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a (seed, *path) coordinate, e.g. (seed, slot)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def watts_to_dbm(power_w: float) -> float:
    """Convert a positive power in watts to dBm."""
    if power_w <= 0:
        raise ValueError(f"power must be positive to express in dBm, got {power_w}")
    return 10.0 * math.log10(power_w / 1e-3)


@dataclass(frozen=True)
class FadingSpec:
    """Exponential block-fading description.

    mean is a scalar or an (n_stations, n_users) array of per-link mean gains,
    encoding distance/path loss directly. seed keys the whole experiment.
    """

    mean: object
    seed: int

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if np.any(np.asarray(self.mean, dtype=float) <= 0):
            raise ValueError("mean gains must be positive")


def sample_gains(spec: FadingSpec, n_stations: int, n_users: int, slot_index: int) -> np.ndarray:
    """Draw the (n_stations, n_users) gain matrix for one slot.

    Deterministic in (spec.seed, slot_index); consecutive slots use
    independent streams.
    """
    if slot_index < 0:
        raise ValueError("slot_index must be non-negative")
    mean = np.broadcast_to(np.asarray(spec.mean, dtype=float), (n_stations, n_users))
    rng = make_rng(spec.seed, slot_index)
    return rng.exponential(mean)


def footprint_volume(per_station_power_w, bandwidths_hz) -> float:
    """Spectral footprint: sum over stations of pi * radius^2 * bandwidth.

    The interference radius is modeled as the transmit power itself (one
    unit of radius per watt).
    """
    power = np.asarray(per_station_power_w, dtype=float)
    bw = np.asarray(bandwidths_hz, dtype=float)
    if power.shape != bw.shape:
        raise ValueError("need one bandwidth per station")
    return float(np.sum(math.pi * power ** 2 * bw))
