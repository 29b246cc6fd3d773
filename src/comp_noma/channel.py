"""Per-link statistics under imperfect CSI.

The estimated channel on each link is CN(0, d^-v - sigma_eps), so its power
gain is exponential with mean sigma_hat = d^-v - sigma_eps. Estimation-error
draws are never sampled: the rate equations consume only the error variances,
which enter the SINR denominators as deterministic rho * sigma_eps terms.
"""

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .geometry import (N_BS, N_USERS, USERS, _as_float, _is_real,
                       distance_matrix)


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
        # A NaN or an infinity makes a list's sum NaN or infinite, and
        # without them its min is exact: each first test passes only when
        # every link does. The search for the link decides the rest, which
        # includes finite values whose sum overflows.
        values = eps.ravel().tolist()
        if not (sum(values) < math.inf and min(values) >= 0.0):
            bad = np.argwhere(~((eps >= 0) & (eps < np.inf)))
            if len(bad):
                i, u = bad[0]
                raise ValueError(f"link (BS{i + 1}, UE{USERS[u]}): sigma_eps = "
                                 f"{eps[i, u]:.6g} must be nonnegative and finite")
        values = hat.ravel().tolist()
        if not (sum(values) < math.inf and min(values) > 0.0):
            bad = np.argwhere(~((hat > 0) & (hat < np.inf)))
            if len(bad):
                i, u = bad[0]
                raise InfeasibleCsiError(
                    f"link (BS{i + 1}, UE{USERS[u]}): d^-v = "
                    f"{hat[i, u] + eps[i, u]:.6g} and sigma_eps = {eps[i, u]:.6g} "
                    f"leave no positive finite sigma_hat")
        # each user's sum over the BSs, added in BS order
        eps_sums = eps[0] + eps[1]
        eps_sums += eps[2]
        eps_sums.flags.writeable = False
        object.__setattr__(self, "eps_sums", eps_sums)


def _is_integer(value) -> bool:
    """A Python or numpy integer that is not a bool."""
    return type(value) is int or (isinstance(value, Integral)
                                  and not isinstance(value, bool))


def derive_link_statistics(positions: np.ndarray, pathloss_exponent=4.0,
                           sigma_eps=0.001) -> LinkStatistics:
    """Compute sigma_hat = d^-v - sigma_eps for every link to the (6, 2) user
    positions that build_layout returns, with one error variance sigma_eps
    on every link; per-link variances are built as a LinkStatistics.
    """
    if not _is_real(pathloss_exponent):
        raise ValueError(f"pathloss_exponent must be a real number, "
                         f"got {pathloss_exponent!r}")
    v = _as_float(pathloss_exponent)
    if not 0 < v < np.inf:
        raise ValueError(f"path-loss exponent must be positive and finite, got {v}")
    if not (_is_real(sigma_eps) and 0 <= _as_float(sigma_eps) < np.inf):
        raise ValueError(f"sigma_eps must be a real number in [0, inf) "
                         f"(per-link values go through LinkStatistics), "
                         f"got {sigma_eps!r}")
    # what np.full does, without its conversions
    eps = np.empty((N_BS, N_USERS))
    eps.fill(float(sigma_eps))

    d = distance_matrix(positions)
    # LinkStatistics rejects an infinite mean power (d too short for
    # float64), naming the link
    with np.errstate(over="ignore", divide="ignore"):
        power = d ** (-v)
    power -= eps
    return LinkStatistics(power, eps)


def check_count(name: str, count: int) -> None:
    """Reject a trial or worker count that is not a positive integer."""
    if not _is_integer(count) or count < 1:
        raise ValueError(f"{name} must be a positive integer, got {count!r}")


def check_seed(seed: int) -> None:
    """Reject seeds the 64-bit counter stream would otherwise wrap or round."""
    if not _is_integer(seed) or not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")

