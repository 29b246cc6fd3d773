"""Instantaneous per-user rates for the four transmission schemes.

Every SINR is evaluated once, in kernels.scheme_rates. JT-CoMP VP-NOMA follows
the printed SINR expressions: each near user keeps the whole band with SIC
residual rho*upsilon, each far user gets one third of the band with all three
base stations combining non-coherently. The OMA, NOMA and plain VP-NOMA
baselines reuse the same power and bandwidth budgets so the scheme comparison
is fair.
"""

import enum
import math
from dataclasses import dataclass

from . import kernels
from .channel import ChannelRealization, LinkStatistics
from .geometry import FAR_USERS, NEAR_USERS, USERS


class SchemeId(enum.Enum):
    OMA = "oma"
    NOMA = "noma"
    VPNOMA = "vpnoma"
    COMP_VPNOMA = "comp-vpnoma"

    @property
    def token(self) -> str:
        return self.value

    @classmethod
    def from_token(cls, token: str) -> "SchemeId":
        for scheme in cls:
            if scheme.value == token.strip().lower():
                return scheme
        raise ValueError(f"unknown scheme {token!r}; expected one of "
                         f"{', '.join(s.value for s in cls)}")

    @property
    def code(self) -> int:
        return _SCHEME_CODES[self]


_SCHEME_CODES = {
    SchemeId.OMA: kernels.OMA_CODE,
    SchemeId.NOMA: kernels.NOMA_CODE,
    SchemeId.VPNOMA: kernels.VPNOMA_CODE,
    SchemeId.COMP_VPNOMA: kernels.COMP_VPNOMA_CODE,
}


@dataclass(frozen=True)
class SystemParams:
    """Scalar knobs of the transmission protocol.

    alpha is the near-user power fraction; the far-user fraction is always
    beta = (1 - alpha)/3, which keeps beta > alpha for alpha < 1/4 and the
    total power normalized to 1. rho is the transmit SNR in linear units.
    """

    alpha: float = 0.1
    rho: float = 10.0
    upsilon: float = 0.01
    band_fractions: tuple = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.25:
            raise ValueError(f"alpha must lie in (0, 0.25), got {self.alpha}")
        if not 0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not 0 <= self.upsilon < math.inf:
            raise ValueError(
                f"upsilon must be nonnegative and finite, got {self.upsilon}")
        fractions = tuple(float(b) for b in self.band_fractions)
        if len(fractions) != 3 or not all(0 < b < math.inf for b in fractions):
            raise ValueError(f"band_fractions must be three positive finite "
                             f"reals, got {self.band_fractions}")
        if abs(sum(fractions) - 1.0) > 1e-12:
            raise ValueError(f"band_fractions must sum to 1, got {sum(fractions)}")
        object.__setattr__(self, "band_fractions", fractions)

    @property
    def beta(self) -> float:
        return (1.0 - self.alpha) / 3.0


@dataclass(frozen=True)
class RateBreakdown:
    """Instantaneous rates of one realization, bits/s/Hz (bandwidth-normalized)."""

    per_user: dict
    per_subband_sum: tuple
    total: float


def total_instantaneous(realization: ChannelRealization, stats: LinkStatistics,
                        params: SystemParams, scheme: SchemeId) -> RateBreakdown:
    """Per-user and total rates of one realization under the given scheme."""
    rates = kernels.scheme_rates(
        realization.gain[None, :, :], scheme.code, params.alpha, params.beta,
        params.rho, params.upsilon, params.band_fractions, stats.eps_sums,
        kernels.GIVEN_GAINS)[0]
    per_user = {label: float(rates[i]) for i, label in enumerate(USERS)}
    total = float(rates.sum())

    if scheme in (SchemeId.COMP_VPNOMA, SchemeId.VPNOMA):
        # Near users hold the whole band at one SINR, far user m sub-band m.
        band = params.band_fractions
        near_per_band = float(rates[:3].sum()) / (band[0] + band[1] + band[2])
        per_subband = tuple(band[m] * near_per_band + float(rates[3 + m])
                            for m in range(3))
    else:
        # Full-band schemes have no sub-band split; report per-cell pair sums.
        per_subband = tuple(
            per_user[NEAR_USERS[c]] + per_user[FAR_USERS[c]] for c in range(3))
    return RateBreakdown(per_user, per_subband, total)
