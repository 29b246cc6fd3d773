"""Per-link statistics under imperfect CSI.

The estimated channel on each link is CN(0, d^-v - sigma_eps), so its power
gain is exponential with mean sigma_hat = d^-v - sigma_eps. Estimation-error
draws are never sampled: the rate equations consume only the error variances,
which enter the SINR denominators as deterministic rho * sigma_eps terms.
"""

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .geometry import N_BS, N_USERS, USERS, NetworkLayout, distance_matrix, \
    user_index


class InfeasibleCsiError(ValueError):
    """Raised when sigma_hat = d^-v - sigma_eps is not a positive finite variance."""


@dataclass(frozen=True)
class LinkStatistics:
    """Estimated-channel and error variances for all 18 links, (3, 6) arrays;
    eps_sums is each user's sigma_eps summed over the BSs, read-only (6,).
    A link's mean power d^-v reads as sigma_hat + sigma_eps."""

    sigma_hat: np.ndarray
    sigma_eps: np.ndarray
    eps_sums: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hat, eps = self.sigma_hat, self.sigma_eps
        for name, values in (("sigma_hat", hat), ("sigma_eps", eps)):
            if np.shape(values) != (N_BS, N_USERS):
                raise ValueError(f"{name} must have shape ({N_BS}, {N_USERS}), "
                                 f"got {np.shape(values)}")
        # min and max carry a NaN, so each pair of comparisons passes only
        # when every link does; the search for the link runs on failure
        if not (0 <= eps.min() and eps.max() < np.inf):
            i, u = np.argwhere(~((eps >= 0) & (eps < np.inf)))[0]
            raise ValueError(f"link (BS{i + 1}, UE{USERS[u]}): sigma_eps = "
                             f"{eps[i, u]:.6g} must be nonnegative and finite")
        if not (0 < hat.min() and hat.max() < np.inf):
            i, u = np.argwhere(~((hat > 0) & (hat < np.inf)))[0]
            raise InfeasibleCsiError(
                f"link (BS{i + 1}, UE{USERS[u]}): d^-v = "
                f"{hat[i, u] + eps[i, u]:.6g} and sigma_eps = {eps[i, u]:.6g} "
                f"leave no positive finite sigma_hat")
        eps_sums = eps.sum(axis=0)
        eps_sums.flags.writeable = False
        object.__setattr__(self, "eps_sums", eps_sums)


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
            if bs_index not in range(1, N_BS + 1):
                raise ValueError(f"sigma_eps override for (BS{bs_index}, UE"
                                 f"{user}): BS index must be 1, 2 or 3")
            if not 0 <= value < np.inf:
                raise ValueError(f"sigma_eps override for (BS{bs_index}, UE"
                                 f"{user}) must be nonnegative and finite")
            eps[bs_index - 1, user_index(user)] = float(value)

    d = distance_matrix(layout)
    # LinkStatistics rejects an infinite mean power (d too short for
    # float64), naming the link
    with np.errstate(over="ignore", divide="ignore"):
        power = d ** (-v)
    return LinkStatistics(power - eps, eps)


def check_seed(seed: int) -> None:
    """Reject seeds the 64-bit counter stream would otherwise wrap or round."""
    if not isinstance(seed, Integral) or not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")

