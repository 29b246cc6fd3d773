"""The four transmission schemes and their protocol parameters.

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
from .geometry import _as_float, _is_real


class SchemeId(enum.Enum):
    """A transmission scheme: its CSV token (the value) and the code that
    selects its rates in kernels.scheme_rates."""

    OMA = ("oma", kernels.OMA_CODE)
    NOMA = ("noma", kernels.NOMA_CODE)
    VPNOMA = ("vpnoma", kernels.VPNOMA_CODE)
    COMP_VPNOMA = ("comp-vpnoma", kernels.COMP_VPNOMA_CODE)

    def __new__(cls, token, code):
        scheme = object.__new__(cls)
        scheme._value_ = token
        scheme.code = code
        return scheme

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


@dataclass(frozen=True)
class SystemParams:
    """Scalar knobs of the transmission protocol.

    alpha is the near-user power fraction; the far-user fraction is always
    beta = (1 - alpha)/3, which keeps beta > alpha for alpha < 1/4 and the
    total power normalized to 1. rho is the transmit SNR in linear units.
    The band split is each scheme's own, not a knob.
    """

    alpha: float = 0.1
    rho: float = 10.0
    upsilon: float = 0.01

    def __post_init__(self):
        for name in ("alpha", "rho", "upsilon"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            # a Python float, so that beta and the rates are never computed
            # in a narrower numpy type
            object.__setattr__(self, name, _as_float(value))
        if not 0.0 < self.alpha < 0.25:
            raise ValueError(f"alpha must lie in (0, 0.25), got {self.alpha}")
        if not 0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not 0 <= self.upsilon < math.inf:
            raise ValueError(
                f"upsilon must be nonnegative and finite, got {self.upsilon}")

    @property
    def beta(self) -> float:
        return (1.0 - self.alpha) / 3.0

