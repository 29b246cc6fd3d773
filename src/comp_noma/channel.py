"""Per-link statistics under imperfect CSI and deterministic fading draws.

The estimated channel on each link is CN(0, d^-v - sigma_eps), so its power
gain is exponential with mean sigma_hat = d^-v - sigma_eps. Estimation-error
draws are never sampled: the rate equations consume only the error variances,
which enter the SINR denominators as deterministic rho * sigma_eps terms.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import kernels
from .geometry import FAR_USERS, N_BS, N_USERS, NEAR_USERS, NetworkLayout, \
    distance_matrix, user_index


class InfeasibleCsiError(ValueError):
    """Raised when d^-v <= sigma_eps, i.e. the estimated variance is not positive."""


@dataclass(frozen=True)
class LinkStatistics:
    """Estimated-channel and error variances for all 18 links, (3, 6) arrays."""

    sigma_hat: np.ndarray
    sigma_eps: np.ndarray
    pathloss_exponent: float

    def sigma_hat_for(self, bs_index, user) -> float:
        return float(self.sigma_hat[bs_index - 1, user_index(user)])

    def sigma_eps_for(self, bs_index, user) -> float:
        return float(self.sigma_eps[bs_index - 1, user_index(user)])


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of all estimated channel power gains |h_hat|^2, (3, 6)."""

    gain: np.ndarray

    def gain_for(self, bs_index, user) -> float:
        return float(self.gain[bs_index - 1, user_index(user)])


def derive_link_statistics(layout: NetworkLayout, pathloss_exponent=4.0,
                           sigma_eps_default=0.001,
                           overrides=None) -> LinkStatistics:
    """Compute sigma_hat = d^-v - sigma_eps for every link of the layout.

    overrides maps (bs_index, user) to a per-link error variance; every other
    link uses sigma_eps_default.
    """
    v = float(pathloss_exponent)
    if not v > 0:
        raise ValueError(f"path-loss exponent must be positive, got {v}")
    if sigma_eps_default < 0:
        raise ValueError(f"sigma_eps must be nonnegative, got {sigma_eps_default}")
    eps = np.full((N_BS, N_USERS), float(sigma_eps_default))
    if overrides:
        for (bs_index, user), value in overrides.items():
            if value < 0:
                raise ValueError(
                    f"sigma_eps override for (BS{bs_index}, UE{user}) is negative")
            eps[bs_index - 1, user_index(user)] = float(value)

    d = distance_matrix(layout)
    sigma_hat = d ** (-v) - eps
    if np.any(sigma_hat <= 0):
        labels = NEAR_USERS + FAR_USERS
        i, u = np.argwhere(sigma_hat <= 0)[0]
        raise InfeasibleCsiError(
            f"link (BS{i + 1}, UE{labels[u]}): d^-v = {d[i, u] ** (-v):.6g} "
            f"does not exceed sigma_eps = {eps[i, u]:.6g}")
    return LinkStatistics(sigma_hat, eps, v)


def check_seed(seed: int) -> None:
    """Reject seeds the 64-bit counter stream would otherwise wrap or round."""
    if not isinstance(seed, Integral) or not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def sample_realization(stats: LinkStatistics, trial_index: int,
                       seed: int) -> ChannelRealization:
    """Draw all 18 gains for one trial; a pure function of (seed, trial, link)."""
    check_seed(seed)
    if trial_index < 0:
        raise ValueError(f"trial index must be nonnegative, got {trial_index}")
    gains = kernels.sample_gains(seed, trial_index, 1, stats.sigma_hat)
    return ChannelRealization(gains[0])
