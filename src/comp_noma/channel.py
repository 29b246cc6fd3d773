"""Per-link statistics under imperfect CSI and deterministic fading draws.

The estimated channel on each link is CN(0, d^-v - sigma_eps), so its power
gain is exponential with mean sigma_hat = d^-v - sigma_eps. Estimation-error
draws are never sampled: the rate equations consume only the error variances,
which enter the SINR denominators as deterministic rho * sigma_eps terms.
"""

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import kernels
from .geometry import N_BS, N_USERS, USERS, NetworkLayout, distance_matrix, \
    user_index


class InfeasibleCsiError(ValueError):
    """Raised when sigma_hat = d^-v - sigma_eps is not a positive finite variance."""


@dataclass(frozen=True)
class LinkStatistics:
    """Estimated-channel and error variances for all 18 links, (3, 6) arrays;
    eps_sums is each user's sigma_eps summed over the BSs, read-only (6,)."""

    sigma_hat: np.ndarray
    sigma_eps: np.ndarray
    eps_sums: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eps_sums = np.sum(self.sigma_eps, axis=0)
        eps_sums.flags.writeable = False
        object.__setattr__(self, "eps_sums", eps_sums)

    def sigma_hat_for(self, bs_index, user) -> float:
        return float(self.sigma_hat[bs_index - 1, user_index(user)])

    def sigma_eps_for(self, bs_index, user) -> float:
        return float(self.sigma_eps[bs_index - 1, user_index(user)])


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of all estimated channel power gains |h_hat|^2, (3, 6)."""

    gain: np.ndarray


def derive_link_statistics(layout: NetworkLayout, pathloss_exponent=4.0,
                           sigma_eps_default=0.001,
                           overrides=None) -> LinkStatistics:
    """Compute sigma_hat = d^-v - sigma_eps for every link of the layout.

    overrides maps (bs_index, user) to a per-link error variance; every other
    link uses sigma_eps_default.
    """
    v = float(pathloss_exponent)
    if not 0 < v < np.inf:
        raise ValueError(f"path-loss exponent must be positive and finite, got {v}")
    if not 0 <= sigma_eps_default < np.inf:
        raise ValueError(
            f"sigma_eps must be nonnegative and finite, got {sigma_eps_default}")
    eps = np.full((N_BS, N_USERS), float(sigma_eps_default))
    if overrides:
        for (bs_index, user), value in overrides.items():
            if not 0 <= value < np.inf:
                raise ValueError(f"sigma_eps override for (BS{bs_index}, UE"
                                 f"{user}) must be nonnegative and finite")
            eps[bs_index - 1, user_index(user)] = float(value)

    d = distance_matrix(layout)
    # an infinite mean power (d too short for float64) is rejected by link
    with np.errstate(over="ignore", divide="ignore"):
        power = d ** (-v)
    sigma_hat = power - eps
    infeasible = np.argwhere(~((sigma_hat > 0) & (sigma_hat < np.inf)))
    if len(infeasible):
        i, u = infeasible[0]
        raise InfeasibleCsiError(
            f"link (BS{i + 1}, UE{USERS[u]}): d^-v = "
            f"{power[i, u]:.6g} and sigma_eps = {eps[i, u]:.6g} leave no "
            f"positive finite sigma_hat")
    return LinkStatistics(sigma_hat, eps)


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
    draws = kernels.sample_gains(seed, trial_index, 1)
    return ChannelRealization(kernels.link_gains(draws[0], stats.sigma_hat))
