"""Independent numerical oracles used by the test suite.

The closed-form implementation is cross-checked against adaptive quadrature
of the defining expectation integral (scipy) and against high-precision
special-function evaluation (mpmath); neither path touches the package's own
exponential-integral code. The vectorized kernels are cross-checked against
per-trial Python loops over the same counter stream and SINR formulas.
The one-trial helpers give the tests a per-realization view of the kernels.
link_statistics gives them link statistics with a per-link sigma_eps, which
derive_link_statistics, taking one sigma_eps, does not build.
The per-user closed-form terms come from the package's one closed form, split
into the terms that total_esc_closed adds.
The plain layout, distance and exp(z)E1(z) helpers keep the arithmetic those
paths first had, which the package must match bit for bit.
The config helpers state the per-point sweep rules directly, one point at a
time, and find where parse_config's acceptance ends.
The pin helper checks a SHA-256 pin and, when it fails, says how far the
values moved from a sample recorded with the pin.
"""

import base64
import hashlib
import json
import math
from pathlib import Path

import mpmath
import numpy as np
from scipy import integrate

from comp_noma import (FAR_USERS, NEAR_USERS, USERS, ConfigError,
                       InfeasibleCsiError, LinkStatistics, SchemeId, analytic,
                       build_layout, derive_link_statistics, distance_matrix,
                       kernels, parse_config)
from comp_noma.kernels import (COMP_VPNOMA_CODE, N_BS, N_LINKS, N_USERS,
                               NOMA_CODE, VPNOMA_CODE)

_LN2 = math.log(2.0)


def ei_reference(x: float) -> float:
    """Ei(x) evaluated by mpmath at 30 significant digits."""
    with mpmath.workdps(30):
        return float(mpmath.ei(x))


def e1_scaled_reference(z: float) -> float:
    """exp(z)E1(z) evaluated by mpmath at 30 significant digits."""
    with mpmath.workdps(30):
        return float(mpmath.exp(z) * mpmath.e1(z))


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


def closed_form_terms(stats, params):
    """Each user's closed-form terms, formed as total_esc_closed forms them:
    max(rate * (1/3), 0.0) on each of a near user's three sub-bands and on
    a far user's one, each sub-band a third of the band. Keys are the user
    ids "1".."3", "A".."C"; a user's ergodic rate is the sum of its terms."""
    near, far = analytic._user_rates(stats, params)
    third = 1.0 / 3.0
    terms = {user: (max(third * rate, 0.0),) * 3
             for user, rate in zip(NEAR_USERS, near)}
    terms.update((user, (max(third * rate, 0.0),))
                 for user, rate in zip(FAR_USERS, far))
    return terms


def separated_rates(rng, count: int, low=1e-3, high=1e3, min_gap=0.02):
    """Log-uniform rates with pairwise relative separation >= min_gap."""
    while True:
        rates = np.exp(rng.uniform(np.log(low), np.log(high), size=count))
        ok = all(abs(a - b) >= min_gap * max(a, b)
                 for i, a in enumerate(rates) for b in rates[i + 1:])
        if ok:
            return rates


# The arithmetic the package first used for the layout and exp(z)E1(z):
# fresh sites and rays for every layout, np.linalg.norm over stacked
# positions, and loops that convert each index and test through abs().
# The package must reproduce every bit of it.
_EULER_GAMMA = 0.5772156649015328606


def layout_plain(near_radii, far_radii):
    """(base stations, near users, far users) positions, each (3, 2), in a
    cell of radius 1."""
    side = np.sqrt(3.0)
    bs = np.array([
        [0.0, 0.0],
        [side, 0.0],
        [side / 2.0, 1.5],
    ])
    centroid = bs.mean(axis=0)
    rays = centroid - bs
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    near = bs + np.asarray([float(r) for r in near_radii])[:, None] * rays
    far = bs + np.asarray([float(r) for r in far_radii])[:, None] * rays
    return bs, near, far


def distance_plain(bs, near, far):
    """The (3, 6) link distances, rows = BS, columns = users 1..3, A..C."""
    positions = np.vstack([near, far])
    diff = bs[:, None, :] - positions[None, :, :]
    return np.linalg.norm(diff, axis=2)


def _ei_series_plain(x):
    acc = _EULER_GAMMA + math.log(-x)
    term = 1.0
    for n in range(1, 60):
        term *= x / n
        delta = term / n
        acc += delta
        if abs(delta) < 1e-17 * abs(acc):
            break
    return acc


def _e1_scaled_cf_plain(z, tolerance=1e-16):
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 300):
        a = -float(i) * float(i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < tolerance:
            return h
    if tolerance < 2.0 ** -52:
        return _e1_scaled_cf_plain(z, 2.0 ** -52)
    raise ArithmeticError(f"continued fraction failed to converge at z={z}")


def e1_scaled_plain(z: float) -> float:
    """exp(z)E1(z) for z > 0: the power series up to 1, the Lentz continued
    fraction above."""
    if z <= 1.0:
        return -math.exp(z) * _ei_series_plain(-z)
    return _e1_scaled_cf_plain(z)


# SplitMix64: output i = finalize(seed + (i+1)*GOLDEN), with uint64 wrap.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)
_TO_UNIT = 2.0 ** -53


def kernel_gains(seed, start_trial, n, sigma_hat):
    """Gains (n, 3, 6) as the estimator forms them: kernel draws × (−σ̂).

    A gain is −log(u)·σ̂, and log(u)·(−σ̂) is the same IEEE product, since
    negation is exact.
    """
    return np.multiply(kernels.sample_gains(seed, start_trial, n),
                       np.negative(sigma_hat))


def user_index(user) -> int:
    """Map a user id (1..3, 'A'..'C', or their string forms) to 0..5."""
    if isinstance(user, (int, np.integer)):
        if 1 <= user <= 3:
            return int(user) - 1
        raise ValueError(f"unknown user id {user!r}")
    label = str(user).upper()
    if label in USERS:
        return USERS.index(label)
    raise ValueError(f"unknown user id {user!r}")


def link(bs_index, user):
    """Index of link (BS bs_index, user) into a (3, 6) per-link array."""
    return bs_index - 1, user_index(user)


def link_statistics(positions, pathloss_exponent, sigma_eps):
    """LinkStatistics of the (6, 2) user positions with a (3, 6) per-link
    sigma_eps, rows = BS, columns = users 1..3, A..C: sigma_hat = d^-v -
    sigma_eps by the operations derive_link_statistics applies to one
    sigma_eps, on a float64 copy of the caller's values."""
    eps = np.array(sigma_eps, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore"):
        power = distance_matrix(positions) ** (-float(pathloss_exponent))
    power -= eps
    return LinkStatistics(power, eps)


def per_link(value, links):
    """A (3, 6) per-link array of value, except at the links that links maps
    from (bs_index, user) to their own value."""
    array = np.full((N_BS, N_USERS), float(value))
    for key, link_value in links.items():
        array[link(*key)] = link_value
    return array


def gain_rates(gain, stats, params, scheme):
    """Per-user rates (6,) of one (3, 6) gain matrix, from the estimator's
    rate kernel; stats supplies only the per-link sigma_eps.

    The kernel forms each gain as draw × (−σ̂). With draws −gain and σ̂ = 1
    that product is the gain itself, since negation and ×1.0 are exact.
    """
    unit = LinkStatistics(np.ones((N_BS, N_USERS)), stats.sigma_eps)
    return kernels.scheme_rates(-np.asarray(gain, dtype=float)[None],
                                scheme.code, params, unit)[0]


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


def rates_reference(gains, scheme_code, params, stats):
    """Per-user rates (n, 6) evaluated one trial and one user at a time;
    stats supplies only the per-user sigma_eps sums. OMA gives each user
    half the band, VP-NOMA and CoMP each far user a third, and every other
    user has the whole band."""
    alpha, rho, upsilon = params.alpha, params.rho, params.upsilon
    beta, eps_sums = params.beta, stats.eps_sums
    n = gains.shape[0]
    out = np.empty((n, N_USERS))
    arho = alpha * rho
    brho = beta * rho
    third = 1.0 / 3.0
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
                out[t, j] = np.log2(1.0 + sinr)
            elif scheme_code == NOMA_CODE:
                sinr = arho * serving / (rho * cross + noise + residual + 1.0)
                out[t, j] = np.log2(1.0 + sinr)
            else:
                sinr = rho * serving / (rho * cross + noise + 1.0)
                out[t, j] = 0.5 * np.log2(1.0 + sinr)
        for k in range(N_BS):
            u = N_BS + k
            serving = gains[t, k, u]
            total = cross = 0.0
            for i in range(N_BS):
                total += gains[t, i, u]
                if i != k:
                    cross += gains[t, i, u]
            noise = rho * eps_sums[u]
            if scheme_code == COMP_VPNOMA_CODE:
                sinr = brho * total / (arho * total + noise + 1.0)
                out[t, u] = third * np.log2(1.0 + sinr)
            elif scheme_code == VPNOMA_CODE:
                den = arho * total + brho * cross + noise + 1.0
                out[t, u] = third * np.log2(1.0 + brho * serving / den)
            elif scheme_code == NOMA_CODE:
                den = arho * serving + rho * cross + noise + 1.0
                out[t, u] = np.log2(1.0 + (1.0 - alpha) * rho * serving / den)
            else:
                den = rho * cross + noise + 1.0
                out[t, u] = 0.5 * np.log2(1.0 + rho * serving / den)
    return out


def sweep_point_passes(alpha, rho_db, near_radius, far_radius,
                       pathloss_exponent, upsilon, sigma_eps, schemes, **_):
    """The config rules for one sweep point: alpha in (0, 0.25), 0 < near <
    far, and finite float64 for the SNR, for the SNR times 3 · 38 · d^-v of
    the near users, and for that plus the SNR times upsilon; the SNR must
    not underflow to 0. With comp-vpnoma, twice every closed-form argument
    z = shift / (alpha · SNR · sigma_hat), over every link of every user,
    must be finite, where a near user's shift is SNR · (its sigma_eps sum +
    upsilon) + 1 and a far user's SNR · its sigma_eps sum + 1; a point whose
    link statistics are infeasible passes this rule."""
    if not (0.0 < alpha < 0.25 and 0.0 < near_radius < far_radius):
        return False
    try:
        rho = 10.0 ** (rho_db / 10.0)
        gains = rho * 3 * 38 * near_radius ** -pathloss_exponent
    except OverflowError:
        return False
    if not (rho > 0.0 and math.isfinite(gains)
            and math.isfinite(gains + rho * upsilon)):
        return False
    if SchemeId.COMP_VPNOMA not in schemes:
        return True
    try:
        stats = derive_link_statistics(
            build_layout((near_radius,) * 3, (far_radius,) * 3),
            pathloss_exponent, sigma_eps)
    except InfeasibleCsiError:
        return True
    for user in range(N_USERS):
        eps = float(stats.eps_sums[user])
        shift = rho * eps + rho * upsilon + 1.0 if user < N_BS \
            else rho * eps + 1.0
        for sigma_hat in stats.sigma_hat[:, user].tolist():
            product = alpha * rho * sigma_hat
            if product == 0.0 or not math.isfinite(
                    2.0 * (shift * (1.0 / product))):
                return False
    return True


def largest_accepted(template: str, lo: float, hi: float) -> float:
    """The largest value parse_config accepts in template ("{!r}" marks the
    value), by bisection of [lo, hi]; lo must pass and hi must fail."""
    while (mid := (lo + hi) / 2) not in (lo, hi):
        try:
            parse_config(template.format(mid))
            lo = mid
        except ConfigError:
            hi = mid
    assert hi == math.nextafter(lo, math.inf)
    return lo


# For each SHA-256 pin, keyed by its digest: 64 of the pinned values (the
# first, the last and 62 at even strides, or all of them if fewer) as
# base64 of their little-endian float64 bytes. A failing pin compares the
# values it got with these, and its message carries the sample of the values
# it got, to be pasted here beside the new digest when a pin is renewed.
PIN_SAMPLES = Path(__file__).with_name("pin_samples.json")


def _sample_positions(size):
    """Where a pin of size values is sampled."""
    return np.unique(np.linspace(0, size - 1, min(size, 64)).round()
                     ).astype(np.intp)


def _ulps(a, b):
    """Distance in ulps between two float64 values; 0.0 and -0.0 are 0
    apart."""
    ordered = [bits if bits >= 0 else -2**63 - bits
               for bits in np.array([a, b]).view(np.int64).tolist()]
    return abs(ordered[0] - ordered[1])


def pin_sample(values):
    """The base64 sample PIN_SAMPLES keeps of a pin's values."""
    flat = np.ravel(values)
    return base64.b64encode(flat[_sample_positions(flat.size)]
                            .astype("<f8").tobytes()).decode()


def pin_report(values, digest):
    """How values differ, at a pin's sampled positions, from the sample
    recorded with digest."""
    samples = json.loads(PIN_SAMPLES.read_text())
    if digest not in samples:
        return "no sample is recorded for this pin"
    pinned = np.frombuffer(base64.b64decode(samples[digest]), "<f8")
    flat = np.ravel(values)
    positions = _sample_positions(flat.size)
    if positions.size != pinned.size:
        return (f"{flat.size} values, where the sample of {pinned.size} was "
                "taken from another count")
    got = flat[positions]
    changed = got.view(np.int64) != pinned.view(np.int64)
    if not changed.any():
        return f"none of the {pinned.size} sampled values changed"
    ulps = max(map(_ulps, got[changed].tolist(), pinned[changed].tolist()))
    return (f"{changed.sum()} of the {pinned.size} sampled values changed, "
            f"the largest by {ulps} ulps")


def assert_pinned(values, digest, where=""):
    """Assert that values are float64 and that the SHA-256 of their bytes
    in C order is digest; the failure message says how the values moved
    (pin_report) and gives the sample of the values got (pin_sample)."""
    values = np.ascontiguousarray(values)
    assert values.dtype == np.float64, values.dtype
    got = hashlib.sha256(values.tobytes()).hexdigest()
    if got != digest:
        report = (f"SHA-256 {got}, pinned {digest}: "
                  f"{pin_report(values, digest)}; sample of the values got: "
                  f"{pin_sample(values)}")
        raise AssertionError(f"{where}: {report}" if where else report)
