"""Independent numerical oracles used by the test suite.

The closed-form implementation is cross-checked against adaptive quadrature
of the defining expectation integral (scipy) and against high-precision
special-function evaluation (mpmath); neither path touches the package's own
exponential-integral code. The vectorized kernels are cross-checked against
per-trial Python loops over the same counter stream and SINR formulas.
"""

import math

import mpmath
import numpy as np
from scipy import integrate

from comp_noma import kernels
from comp_noma.kernels import (COMP_VPNOMA_CODE, N_BS, N_LINKS, N_USERS,
                               NOMA_CODE, VPNOMA_CODE)

_LN2 = math.log(2.0)


def ei_reference(x: float) -> float:
    """Ei(x) evaluated by mpmath at 30 significant digits."""
    with mpmath.workdps(30):
        return float(mpmath.ei(x))


def hypoexp_log2_mean_quad(rates, shift: float) -> float:
    """E[log2(X + shift)] by adaptive quadrature of the defining integral.

    X is a sum of independent exponentials with the given distinct rates; its
    density is the standard partial-fraction mixture. Each mixture term is
    integrated on the substituted axis t = rate * x so every component is
    O(1)-scaled for quadpack.
    """
    rates = np.asarray(rates, dtype=float)
    total = 0.0
    for i, k_i in enumerate(rates):
        weight = 1.0
        for h, k_h in enumerate(rates):
            if h != i:
                weight *= k_h / (k_h - k_i)

        def integrand(t, k=k_i):
            return math.log(t / k + shift) / _LN2 * math.exp(-t)

        value, _ = integrate.quad(integrand, 0.0, np.inf,
                                  epsabs=1e-13, epsrel=1e-11, limit=300)
        total += weight * value
    return total


def erlang2_log2_mean_quad(rate: float, shift: float) -> float:
    """E[log2(X + shift)] for X ~ Erlang(2, rate), the equal-rate limit."""
    def integrand(t):
        return math.log(t / rate + shift) / _LN2 * t * math.exp(-t)

    value, _ = integrate.quad(integrand, 0.0, np.inf,
                              epsabs=1e-13, epsrel=1e-11, limit=300)
    return value


def separated_rates(rng, count: int, low=1e-3, high=1e3, min_gap=0.02):
    """Log-uniform rates with pairwise relative separation >= min_gap."""
    while True:
        rates = np.exp(rng.uniform(np.log(low), np.log(high), size=count))
        ok = all(abs(a - b) >= min_gap * max(a, b)
                 for i, a in enumerate(rates) for b in rates[i + 1:])
        if ok:
            return rates


# SplitMix64: output i = finalize(seed + (i+1)*GOLDEN), with uint64 wrap.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)
_TO_UNIT = 2.0 ** -53


def kernel_gains(seed, start_trial, n, sigma_hat):
    """Gains (n, 3, 6) as the estimator forms them: kernel draws × (−σ̂)."""
    return kernels.link_gains(kernels.sample_gains(seed, start_trial, n),
                              sigma_hat)


def gains_reference(seed, start_trial, n, sigma_hat):
    """Gains (n, 3, 6) drawn one trial and one link at a time."""
    seed = np.uint64(seed)
    out = np.empty((n, N_BS, N_USERS))
    with np.errstate(over="ignore"):
        for t in range(n):
            base = np.uint64(start_trial + t) * np.uint64(N_LINKS)
            for i in range(N_BS):
                for u in range(N_USERS):
                    c = base + np.uint64(i * N_USERS + u)
                    z = seed + (c + _ONE) * _GOLDEN
                    z = (z ^ (z >> np.uint64(30))) * _MIX_A
                    z = (z ^ (z >> np.uint64(27))) * _MIX_B
                    z = z ^ (z >> np.uint64(31))
                    unit = (np.float64(z >> np.uint64(11)) + 0.5) * _TO_UNIT
                    out[t, i, u] = -np.log(unit) * sigma_hat[i, u]
    return out


def rates_reference(gains, scheme_code, alpha, beta, rho, upsilon, band,
                    eps_sums):
    """Per-user rates (n, 6) evaluated one trial and one user at a time."""
    n = gains.shape[0]
    out = np.empty((n, N_USERS))
    arho = alpha * rho
    brho = beta * rho
    band_sum = band[0] + band[1] + band[2]
    residual = rho * upsilon
    for t in range(n):
        for j in range(N_BS):
            serving = gains[t, j, j]
            cross = 0.0
            for i in range(N_BS):
                if i != j:
                    cross += gains[t, i, j]
            noise = rho * eps_sums[j]
            if scheme_code in (COMP_VPNOMA_CODE, VPNOMA_CODE):
                sinr = arho * serving / (arho * cross + noise + residual + 1.0)
                out[t, j] = band_sum * np.log2(1.0 + sinr)
            elif scheme_code == NOMA_CODE:
                sinr = arho * serving / (rho * cross + noise + residual + 1.0)
                out[t, j] = np.log2(1.0 + sinr)
            else:
                sinr = rho * serving / (rho * cross + noise + 1.0)
                out[t, j] = 0.5 * np.log2(1.0 + sinr)
        for k in range(N_BS):
            u = N_BS + k
            serving = gains[t, k, u]
            total = 0.0
            for i in range(N_BS):
                total += gains[t, i, u]
            noise = rho * eps_sums[u]
            if scheme_code == COMP_VPNOMA_CODE:
                sinr = brho * total / (arho * total + noise + 1.0)
                out[t, u] = band[k] * np.log2(1.0 + sinr)
            elif scheme_code == VPNOMA_CODE:
                den = arho * total + brho * (total - serving) + noise + 1.0
                out[t, u] = band[k] * np.log2(1.0 + brho * serving / den)
            elif scheme_code == NOMA_CODE:
                den = arho * serving + rho * (total - serving) + noise + 1.0
                out[t, u] = np.log2(1.0 + (1.0 - alpha) * rho * serving / den)
            else:
                den = rho * (total - serving) + noise + 1.0
                out[t, u] = 0.5 * np.log2(1.0 + rho * serving / den)
    return out
