"""Scalable-video quality model and per-link loss probabilities.

Quality of a medium-grain-scalable encoding is affine in delivered rate,
W(R) = alpha + beta*R, so per-slot deliveries add onto the base-layer quality
over a group-of-pictures window and reset at window boundaries. Slot losses
are Bernoulli per link with probability P(SINR < decode threshold) under an
exponential SINR law.
"""

import math
from dataclasses import dataclass

import numpy as np

# update_psnr accepts time shares in [-_SHARE_TOL, 1 + _SHARE_TOL]
_SHARE_TOL = 1e-6


@dataclass(frozen=True)
class LossModel:
    """Bernoulli slot-loss probabilities from an exponential SINR law.

    A packet is lost when the instantaneous SINR falls below
    decode_threshold; with the link's mean SINR mu that happens with
    probability 1 - exp(-threshold/mu).
    """

    decode_threshold: float
    mean_sinr: float

    def __post_init__(self):
        if self.decode_threshold < 0:
            raise ValueError("decode threshold cannot be negative")
        if not self.mean_sinr > 0:
            raise ValueError("mean SINR must be positive")


def loss_probability(model: LossModel) -> float:
    """P(loss) on the model's link."""
    return -math.expm1(-model.decode_threshold / model.mean_sinr)


def success_probability(model: LossModel) -> float:
    return 1.0 - loss_probability(model)


@dataclass
class StreamState:
    """Per-user quality trajectory across one group-of-pictures window.

    rate_mbs[j] and rate_fbs[j] are the quality increments per unit time
    share and (for the femto side) per expected available channel:
    beta_j * B / T for the respective link bandwidths. psnr_cap entries may
    be +inf for uncapped sequences.
    """

    alpha: np.ndarray
    rate_mbs: np.ndarray
    rate_fbs: np.ndarray
    psnr_cap: np.ndarray
    psnr: np.ndarray = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.rate_mbs = np.asarray(self.rate_mbs, dtype=float)
        self.rate_fbs = np.asarray(self.rate_fbs, dtype=float)
        self.psnr_cap = np.asarray(self.psnr_cap, dtype=float)
        shapes = {a.shape for a in (self.alpha, self.rate_mbs, self.rate_fbs, self.psnr_cap)}
        if len(shapes) != 1:
            raise ValueError("per-user arrays must share one shape")
        if np.any(self.alpha <= 0):
            raise ValueError("base-layer PSNR must be positive")
        if np.any(self.rate_mbs < 0) or np.any(self.rate_fbs < 0):
            raise ValueError("rate constants cannot be negative")
        if self.psnr is None:
            self.psnr = self.alpha.copy()

    def reset_window(self) -> None:
        """New group of pictures: quality restarts from the base layer."""
        self.psnr = self.alpha.copy()


def update_psnr(
    state: StreamState,
    connect_mbs: np.ndarray,
    rho_mbs: np.ndarray,
    rho_fbs: np.ndarray,
    xi_mbs: np.ndarray,
    xi_fbs: np.ndarray,
    g_user: np.ndarray,
) -> np.ndarray:
    """Apply one slot's deliveries: W += xi*rho*rate on the connected side.

    connect_mbs selects the macro branch per user (single transceiver);
    g_user scales the femto rate by the expected available channels of the
    user's femto. Raises if any time-share input leaves [0, 1 + _SHARE_TOL].

    Inputs with one row per slot apply those slots in order, after every
    row's shares are checked.
    """
    connect_mbs = np.asarray(connect_mbs, dtype=bool)
    rho_mbs = np.asarray(rho_mbs, dtype=float)
    rho_fbs = np.asarray(rho_fbs, dtype=float)
    for name, rho in (("rho_mbs", rho_mbs), ("rho_fbs", rho_fbs)):
        # passes only on shares in range, so NaN fails it
        if not np.all((rho >= -_SHARE_TOL) & (rho <= 1.0 + _SHARE_TOL)):
            raise ValueError(f"{name} must be a time share in [0, 1]")
    gain = np.where(
        connect_mbs,
        np.asarray(xi_mbs, dtype=float) * rho_mbs * state.rate_mbs,
        np.asarray(xi_fbs, dtype=float) * rho_fbs * np.asarray(g_user, dtype=float) * state.rate_fbs,
    )
    for row in gain.reshape(-1, gain.shape[-1]):
        state.psnr = np.minimum(state.psnr + row, state.psnr_cap)
    return state.psnr
