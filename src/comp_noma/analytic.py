"""Closed-form ergodic capacities for JT-CoMP VP-NOMA.

Every per-user ergodic rate is a difference of two terms of the form
E[log2(X + shift)] with X a sum of independent exponentials (distinct rates).
That expectation reduces to a weighted sum of ln(shift) + exp(z)E1(z) values,
which this module evaluates without ever forming exp(z) on its own: the
continued fraction computes the scaled product exp(z)E1(z) directly, so large
arguments neither overflow nor cancel. Closed forms exist only for the CoMP
scheme; baselines are Monte-Carlo only.
"""

import math
from functools import lru_cache

import numpy as np

from .channel import LinkStatistics
from .geometry import _all_real, _is_real
from .schemes import SystemParams

_LN2 = math.log(2.0)
_EULER_GAMMA = 0.5772156649015328606
# the share of the band each of the three sub-bands carries
_THIRD = 1.0 / 3.0

# Rates no further apart than _DEGENERACY_GAP (relative) are spread
# symmetrically within their cluster with step _CLUSTER_SPREAD. The test is
# inclusive, so a tie is clustered even where the gap underflows to 0.
# Centering the spread cancels the first-order bias, and the step keeps the
# partial-fraction weights small enough that the identity retains ~8 digits
# in the fully degenerate case.
_DEGENERACY_GAP = 1e-7
_CLUSTER_SPREAD = 1e-4


class DegenerateRatesError(ValueError):
    """Raised when rates still coincide exactly after perturbation."""


# The series' term orders and the continued fraction's partial numerators
# -i^2, as floats, so that neither loop converts an index per term.
_SERIES_ORDERS = tuple(float(n) for n in range(1, 60))
_CF_NUMERATORS = tuple(-float(i) * float(i) for i in range(1, 300))


def _ei_series(x: float) -> float:
    # Ei(x) = gamma + ln|x| + sum x^n/(n n!), converges fast for |x| <= 1
    acc = _EULER_GAMMA + math.log(-x)
    term = 1.0
    for n in _SERIES_ORDERS:
        term *= x / n
        delta = term / n
        acc += delta
        # For x in [-1, 0) every partial sum after the first term is at most
        # gamma - 3/4, so acc is never near zero here and needs no floor. As
        # acc < 0, bound is -1e-17 * |acc|: the test is |delta| < 1e-17 * |acc|.
        bound = 1e-17 * acc
        if bound < delta < -bound:
            break
    return acc


def _e1_scaled_cf(z: float, tolerance: float = 1e-16) -> float:
    # exp(z)*E1(z) via the Lentz continued fraction, reliable for z >= 1
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    low = -tolerance
    for a in _CF_NUMERATORS:
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if low < delta - 1.0 < tolerance:
            return h
    # Above about 1e14, delta can settle at 1 - 2**-53, which the exact test
    # never accepts; the second pass stops where it first settles
    if tolerance < 2.0 ** -52:
        return _e1_scaled_cf(z, 2.0 ** -52)
    raise ArithmeticError(f"continued fraction failed to converge at z={z}")


def exp_integral_ei(x: float) -> float:
    """Exponential integral Ei(x) on the negative axis, |error| <= 1e-12."""
    if not _is_real(x):
        raise ValueError(f"x must be a real number, got {x!r}")
    x = float(x)
    if not x < 0:
        raise ValueError(f"Ei is only evaluated for x < 0, got {x}")
    if x >= -1.0:
        return _ei_series(x)
    scale = math.exp(x)
    # below about -745, exp(x) underflows to 0 and Ei(x) to -0.0 whatever
    # the continued fraction gives, which at -inf never converges
    if scale == 0.0:
        return -0.0
    return -scale * _e1_scaled_cf(-x)


def _e1_scaled(z: float) -> float:
    """exp(z)*E1(z) for z > 0, equal to -exp(z)*Ei(-z); never overflows."""
    if z <= 1.0:
        return -math.exp(z) * _ei_series(-z)
    return _e1_scaled_cf(z)


def _ensure_distinct(rates: list) -> list:
    ranked = sorted(rates)
    low = ranked[0]
    for high in ranked[1:]:
        if high - low <= _DEGENERACY_GAP * high:
            break
        low = high
    else:
        return rates
    n = len(ranked)
    order = sorted(range(n), key=rates.__getitem__)
    adjusted = list(rates)
    start = 0
    while start < n:
        end = start
        while end + 1 < n and \
                ranked[end + 1] - ranked[end] <= _DEGENERACY_GAP * ranked[end + 1]:
            end += 1
        size = end - start + 1
        # a lone rate gets factor 1.0, which leaves it as it is
        for member in range(size):
            factor = 1.0 + _CLUSTER_SPREAD * (member - (size - 1) / 2.0)
            adjusted[order[start + member]] = ranked[start + member] * factor
        start = end + 1
    if len(set(adjusted)) != n:
        raise DegenerateRatesError(
            f"rates remain exactly duplicated after perturbation: {adjusted}")
    return adjusted


def _log2_mean(rates: list, shift: float, e1: dict) -> float:
    # e1 maps each argument z to exp(z)E1(z) for the caller's lifetime, so
    # the rates several users share are evaluated once.
    rates = _ensure_distinct(rates)
    ln_shift = math.log(shift)
    acc = 0.0
    for k_i in rates:
        # the rates are distinct now, so k_h != k_i picks every other rate
        weight = 1.0
        for k_h in rates:
            if k_h != k_i:
                weight *= k_h / (k_h - k_i)
        z = shift * k_i
        scaled = e1.get(z)
        if scaled is None:
            scaled = e1[z] = _e1_scaled(z)
        acc += (ln_shift + scaled) * weight
    return acc / _LN2


def hypoexp_log2_mean(rates, shift: float) -> float:
    """E[log2(X + shift)] for X a sum of independent exponentials.

    rates are the exponential rates (reciprocal means); shift must be finite
    and >= 1.
    Nearly-equal rates are separated by a deterministic, centered relative
    spread before the distinct-rate identity is applied.
    """
    if not _all_real(rates):
        raise ValueError(f"rates must be real numbers, got {rates!r}")
    if not _is_real(shift):
        raise ValueError(f"shift must be a real number, got {shift!r}")
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    if rates.ndim != 1 or len(rates) == 0:
        raise ValueError("rates must be a non-empty 1-d sequence")
    if np.any(rates <= 0) or not np.all(np.isfinite(rates)):
        raise ValueError(f"rates must be positive finite reals, got {rates.tolist()}")
    shift = float(shift)
    if not 1.0 <= shift < math.inf:
        raise ValueError(f"shift must be finite and >= 1, got {shift}")
    return _log2_mean(rates.tolist(), shift, {})


def _near_values(sigma: list, eps: list, params: SystemParams) -> list:
    # rates of the three near users over the whole band
    rho = params.rho
    residual = rho * params.upsilon
    scale = params.alpha * rho
    e1 = {}
    values = []
    for j in range(3):
        shift = rho * eps[j] + residual + 1.0
        k = _ensure_distinct([1.0 / (scale * s) for s in sigma[j]])
        values.append(_log2_mean(k, shift, e1)
                      - _log2_mean(k[:j] + k[j + 1:], shift, e1))
    return values


def _far_value(sigma: tuple, eps: float, alpha: float, beta: float,
               rho: float, e1: dict) -> float:
    # rate of a far user over the whole band, before its third of it
    shift = rho * eps + 1.0
    signal = (alpha + beta) * rho
    interference = alpha * rho
    signal_rates = _ensure_distinct([1.0 / (signal * s) for s in sigma])
    interference_rates = _ensure_distinct([1.0 / (interference * s) for s in sigma])
    return _log2_mean(signal_rates, shift, e1) \
        - _log2_mean(interference_rates, shift, e1)


# The far users' three rates read nothing but these arguments, which a sweep
# over the near users' radius keeps fixed.
@lru_cache(maxsize=1)
def _far_values(sigma: tuple, eps: tuple, alpha: float, beta: float,
                rho: float) -> tuple:
    e1 = {}
    return tuple(_far_value(s, e, alpha, beta, rho, e1)
                 for s, e in zip(sigma, eps))


def _user_rates(stats: LinkStatistics, params: SystemParams) -> tuple:
    """The near users' rates (1, 2, 3) and the far users' (A, B, C) over the
    whole band, before a far user's third of it; the far ones from the memo."""
    # per-user sigma_hat columns, as tuples, and sigma_eps sums, as Python
    # floats
    sigma = list(zip(*stats.sigma_hat.tolist()))
    eps = stats.eps_sums.tolist()
    return _near_values(sigma, eps, params), _far_values(
        tuple(sigma[3:]), tuple(eps[3:]), params.alpha, params.beta,
        params.rho)


def total_esc_closed(stats: LinkStatistics, params: SystemParams) -> float:
    """Exact ergodic sum capacity of JT-CoMP VP-NOMA over all six users.

    Adds twelve terms, sub-band by sub-band: the three near users' and then
    that sub-band's far user's, each max(rate * (1/3), 0.0), a third of
    the user's whole-band rate. Each near user's rate and each
    exp(z)E1(z) argument is evaluated once per call, and the far users'
    rates once while their inputs stay the same.
    """
    near, far = _user_rates(stats, params)
    # each term is max(term, 0.0), which keeps a NaN or -0.0 term as it is
    total = 0.0
    for far_value in far:
        for value in near:
            term = _THIRD * value
            total += 0.0 if term < 0.0 else term
        term = _THIRD * far_value
        total += 0.0 if term < 0.0 else term
    return total
