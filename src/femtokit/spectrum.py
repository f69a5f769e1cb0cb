"""Licensed-channel occupancy, cooperative sensing, and guarded access.

Each licensed channel is a two-state Markov chain (0 = idle, 1 = busy). Noisy
busy/idle reports from independent sensors are fused into a posterior idle
probability by sequential odds updates, and access is granted with probability
min(gamma / P(busy), 1) so the per-slot collision probability with the primary
network stays below the tolerance gamma.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class PrimaryChannel:
    """Two-state occupancy chain: p01 = P(idle->busy), p10 = P(busy->idle).

    busy_prior is the belief prior used by the fusion stage; it defaults to
    the stationary busy probability p01/(p01+p10) but may be overridden.
    state evolves only through :func:`step_primary`.
    """

    p01: float
    p10: float
    busy_prior: "float | None" = None
    state: int = 0

    def __post_init__(self):
        for name, p in (("p01", self.p01), ("p10", self.p10)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.busy_prior is None:
            denom = self.p01 + self.p10
            self.busy_prior = self.p01 / denom if denom > 0 else 0.0
        if not 0.0 <= self.busy_prior <= 1.0:
            raise ValueError(f"busy_prior must be a probability, got {self.busy_prior}")
        if self.state not in (0, 1):
            raise ValueError("state must be 0 (idle) or 1 (busy)")

    def reset_stationary(self, rng: np.random.Generator) -> int:
        self.state = 1 if rng.random() < self.busy_prior else 0
        return self.state


def step_primary(channel: PrimaryChannel, rng: np.random.Generator) -> int:
    """Advance the occupancy chain one slot and return the new state."""
    u = rng.random()
    if channel.state == 0:
        channel.state = 1 if u < channel.p01 else 0
    else:
        channel.state = 0 if u < channel.p10 else 1
    return channel.state


@dataclass(frozen=True)
class SensorProfile:
    """false_alarm = P(report busy | idle), miss = P(report idle | busy).

    Both must sit in [0, 0.5) so a report carries information.
    """

    false_alarm: float
    miss: float

    def __post_init__(self):
        for name, p in (("false_alarm", self.false_alarm), ("miss", self.miss)):
            if not 0.0 <= p < 0.5:
                raise ValueError(f"{name} must be in [0, 0.5), got {p}")


def sense(true_state: int, profile: SensorProfile, rng: np.random.Generator) -> int:
    """One noisy busy(1)/idle(0) report of the given true state."""
    if true_state not in (0, 1):
        raise ValueError("true_state must be 0 or 1")
    u = rng.random()
    if true_state == 0:
        return 1 if u < profile.false_alarm else 0
    return 0 if u < profile.miss else 1


def _busy_likelihood_ratio(theta: int, profile: SensorProfile) -> float:
    """P(report | busy) / P(report | idle)."""
    if theta == 1:
        return (1.0 - profile.miss) / profile.false_alarm if profile.false_alarm > 0 else float("inf")
    return profile.miss / (1.0 - profile.false_alarm)


def fuse_beliefs(busy_prior: float, observations, profiles) -> float:
    """Posterior idle probability by sequential odds updates.

    Starting from the prior, each report multiplies the busy odds by its
    likelihood ratio. Equals the batch Bayes posterior for independent
    sensors regardless of report order.
    """
    observations = list(observations)
    profiles = list(profiles)
    if not observations:
        raise ValueError("at least one observation is required")
    if len(observations) != len(profiles):
        raise ValueError("need one sensor profile per observation")
    if not 0.0 <= busy_prior <= 1.0:
        raise ValueError(f"busy_prior must be a probability, got {busy_prior}")
    if any(th not in (0, 1) for th in observations):
        raise ValueError("observations must be 0/1 reports")

    inf = float("inf")
    p_idle = None
    for theta, prof in zip(observations, profiles):
        lr = _busy_likelihood_ratio(theta, prof)
        if p_idle is None:
            odds = inf if busy_prior == 1.0 else busy_prior / (1.0 - busy_prior)
        elif p_idle == 0.0:
            odds = inf
        else:
            odds = 1.0 / p_idle - 1.0
        if (odds == 0.0 and lr == inf) or (odds == inf and lr == 0.0):
            raise ValueError("observations are impossible under the given prior and profiles")
        busy_odds = odds * lr
        p_idle = 0.0 if busy_odds == inf else 1.0 / (1.0 + busy_odds)
    return p_idle


def access_probability(p_idle: float, gamma: float) -> float:
    """min(gamma / P(busy), 1): the largest access rate keeping expected
    collisions per slot at or below gamma."""
    if not 0.0 <= p_idle <= 1.0:
        raise ValueError(f"p_idle must be a probability, got {p_idle}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be a probability, got {gamma}")
    if p_idle == 1.0:
        return 1.0
    return min(gamma / (1.0 - p_idle), 1.0)


@dataclass(frozen=True)
class AccessPolicy:
    """Collision-tolerance policy; gamma is the per-channel collision budget."""

    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be a probability, got {self.gamma}")

    def access_probability(self, p_idle: float) -> float:
        return access_probability(p_idle, self.gamma)


@dataclass(frozen=True)
class AccessDecision:
    """Channels cleared for secondary use this slot.

    expected_available is the sum of idle posteriors over the cleared
    channels: the expected number of genuinely idle channels in the set.
    """

    available: tuple
    expected_available: float
    p_access: np.ndarray


def decide_access(p_idle, policy: AccessPolicy, rng: np.random.Generator) -> AccessDecision:
    """Draw the per-channel access coins and collect the cleared set."""
    p_idle = np.asarray(p_idle, dtype=float)
    p_access = np.array([policy.access_probability(p) for p in p_idle])
    draws = rng.random(p_idle.shape[0])
    available = tuple(int(m) for m in np.nonzero(draws < p_access)[0])
    expected = float(sum(p_idle[m] for m in available))
    return AccessDecision(available=available, expected_available=expected, p_access=p_access)
