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


def _advance(channel: PrimaryChannel, u: float) -> int:
    if channel.state == 0:
        channel.state = 1 if u < channel.p01 else 0
    else:
        channel.state = 0 if u < channel.p10 else 1
    return channel.state


def step_primary(channel, rng: np.random.Generator, slots: "int | None" = None):
    """Advance the occupancy chain one slot and return the new state.

    With `slots`, `channel` is a sequence of chains, each advanced that
    many slots, and the (slots, len(channel)) states are returned. The
    draws are taken slot by slot, in chain order within a slot, as that
    many rounds of single steps over the chains would take them.
    """
    if slots is None:
        return _advance(channel, rng.random())
    channels = list(channel)
    draws = rng.random((slots, len(channels))).tolist()
    states = [[_advance(ch, u) for ch, u in zip(channels, row)] for row in draws]
    return np.array(states, dtype=int).reshape(slots, len(channels))


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


def sense(true_state, profile: SensorProfile, rng: np.random.Generator):
    """One noisy busy(1)/idle(0) report of the given true state.

    An array of true states gets one report each, as an int array of its
    shape, drawn in C order as one report per state in that order would be.
    """
    if isinstance(true_state, np.ndarray):
        if not np.all((true_state == 0) | (true_state == 1)):
            raise ValueError("true_state must be 0 or 1")
        u = rng.random(true_state.shape)
        return np.where(true_state == 0, u < profile.false_alarm, ~(u < profile.miss)).astype(int)
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


def fuse_beliefs(busy_prior, observations, profiles, valid=None):
    """Posterior idle probability by sequential odds updates.

    Starting from the prior, each report multiplies the busy odds by its
    likelihood ratio. Equals the batch Bayes posterior for independent
    sensors regardless of report order.

    observations may also be an array whose last axis holds each channel's
    reports in order, with profiles[i] the sensor of position i and
    busy_prior broadcast over the leading axes; the posteriors come back in
    an array of that leading shape. valid, a boolean array of the
    observations' shape, marks the positions that hold a report; the others
    are padding, which the updates skip. Position 0 must hold a report
    everywhere. Each array update takes the IEEE steps a list of reports
    takes in Python floats, so a posterior does not depend on the batch it
    is in.
    """
    if valid is not None or (isinstance(observations, np.ndarray) and observations.ndim > 1):
        return _fuse_array(busy_prior, np.asarray(observations), list(profiles), valid)
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


def _fuse_array(busy_prior, obs, profiles, valid):
    """fuse_beliefs on an array of report lists, one update per position."""
    if obs.ndim == 0 or obs.shape[-1] == 0:
        raise ValueError("at least one observation is required")
    if obs.shape[-1] != len(profiles):
        raise ValueError("need one sensor profile per observation")
    valid = np.ones(obs.shape, dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
    if valid.shape != obs.shape:
        raise ValueError("valid must mark each observation")
    if not np.all(valid[..., 0]):
        raise ValueError("at least one observation is required")
    prior = np.asarray(busy_prior, dtype=float)
    # passes only on probabilities, so NaN fails it
    if not np.all((prior >= 0.0) & (prior <= 1.0)):
        raise ValueError(f"busy_prior must be a probability, got {busy_prior}")
    if not np.all((obs == 0) | (obs == 1) | ~valid):
        raise ValueError("observations must be 0/1 reports")

    inf = float("inf")
    ratios = np.where(
        obs == 1,
        [_busy_likelihood_ratio(1, prof) for prof in profiles],
        [_busy_likelihood_ratio(0, prof) for prof in profiles],
    )
    p_idle = None
    # the masked branches divide by zero or multiply 0 by inf; np.where
    # discards those values
    with np.errstate(divide="ignore", invalid="ignore"):
        for lr, here in zip(np.moveaxis(ratios, -1, 0), np.moveaxis(valid, -1, 0)):
            if p_idle is None:
                odds = np.where(prior == 1.0, inf, prior / (1.0 - prior))
            else:
                odds = np.where(p_idle == 0.0, inf, 1.0 / p_idle - 1.0)
            impossible = ((odds == 0.0) & (lr == inf)) | ((odds == inf) & (lr == 0.0))
            if np.any(impossible & here):
                raise ValueError("observations are impossible under the given prior and profiles")
            busy_odds = odds * lr
            fused = np.where(busy_odds == inf, 0.0, 1.0 / (1.0 + busy_odds))
            p_idle = fused if p_idle is None else np.where(here, fused, p_idle)
    return p_idle


def access_probability(p_idle, gamma: float):
    """min(gamma / P(busy), 1): the largest access rate keeping expected
    collisions per slot at or below gamma. An array of idle probabilities
    gets an array of access probabilities; a scalar gets a float."""
    p = np.asarray(p_idle, dtype=float)
    # min and max return NaN if any entry is NaN, so NaN fails the check
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValueError(f"p_idle must be a probability, got {p_idle}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be a probability, got {gamma}")
    certain = p == 1.0
    q = np.where(certain, 1.0, np.minimum(gamma / np.where(certain, 1.0, 1.0 - p), 1.0))
    return float(q) if q.ndim == 0 else q


@dataclass(frozen=True)
class AccessPolicy:
    """Collision-tolerance policy; gamma is the per-channel collision budget."""

    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be a probability, got {self.gamma}")

    def access_probability(self, p_idle):
        return access_probability(p_idle, self.gamma)


@dataclass(frozen=True)
class AccessDecision:
    """Channels cleared for secondary use, and each offered channel's
    access probability."""

    available: tuple
    p_access: np.ndarray


def decide_access(p_idle, policy: AccessPolicy, rng: np.random.Generator) -> AccessDecision:
    """Draw the per-channel access coins and collect the cleared set.

    p_idle lists the channels offered, one coin each in order: one slot's
    channels, or several slots' channels one slot after another, which
    draws the coins those slots' decisions would draw in turn.
    """
    p_idle = np.asarray(p_idle, dtype=float)
    p_access = policy.access_probability(p_idle)
    draws = rng.random(p_idle.shape[0])
    available = tuple(np.flatnonzero(draws < p_access).tolist())
    return AccessDecision(available=available, p_access=p_access)
