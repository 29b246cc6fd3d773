"""Hot numeric kernels: counter-based fading draws and batched scheme rates.

Everything the Monte-Carlo estimator does per trial lives here, in two
interchangeable backends: numba @njit loops (default whenever numba imports)
and vectorized numpy. Set COMP_NOMA_NUMBA=0 to force the numpy path; both
backends consume the same counter stream, so a draw depends only on
(seed, trial, link) and never on call order, chunking, or thread count.
"""

import os

import numpy as np

N_BS = 3
N_USERS = 6
N_LINKS = N_BS * N_USERS

# Fixed chunk size: chunk boundaries (and therefore partial sums) must not
# depend on the worker count.
CHUNK_TRIALS = 8192

OMA_CODE = 0
NOMA_CODE = 1
VPNOMA_CODE = 2
COMP_VPNOMA_CODE = 3

# SplitMix64: output i = finalize(seed + (i+1)*GOLDEN), a counter-based
# generator with 64-bit state (passes BigCrush).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)
_SEED_MASK = 0xFFFFFFFFFFFFFFFF
_TO_UNIT = 2.0 ** -53
_LINKS_GOLDEN = np.uint64((N_LINKS * 0x9E3779B97F4A7C15) & _SEED_MASK)


def _gains_impl(seed, start_trial, n, sigma_hat):
    out = np.empty((n, N_BS, N_USERS))
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


def _rates_impl(gains, scheme_code, alpha, beta, rho, upsilon, band, eps_sums):
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
            if scheme_code == COMP_VPNOMA_CODE or scheme_code == VPNOMA_CODE:
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


# Draws per block of the draw kernel: two links of a full chunk. Its two
# uint64 scratch buffers (128 KB each) stay in the core's cache through the
# passes of the SplitMix64 finalizer; of 1, 2, 3, 6 and 18 links per block,
# two ran fastest.
_DRAW_BLOCK = 2 * CHUNK_TRIALS


def gains_chunk_numpy(seed, start_trial, n, sigma_hat):
    """Estimated channel power gains for trials [start_trial, start_trial+n).

    The (n, 3, 6) result is a view of link-major memory: each link's gains
    over the chunk are contiguous, which is the layout rates_chunk_numpy
    reads. Values do not depend on the layout.
    """
    # Counter of (trial t, link l) is t*N_LINKS + l; the SplitMix64 input
    # seed + (counter+1)*GOLDEN splits, mod 2**64, into a per-trial and a
    # per-link term.
    trial_term = np.arange(start_trial, start_trial + n, dtype=np.uint64)
    trial_term *= _LINKS_GOLDEN
    link_term = np.arange(1, N_LINKS + 1, dtype=np.uint64) * _GOLDEN
    link_term += np.uint64(seed & _SEED_MASK)
    # -log(u) * s == log(u) * -s exactly: IEEE negation is exact.
    neg_sigma = -np.asarray(sigma_hat, dtype=np.float64).reshape(N_LINKS, 1)

    out = np.empty((N_LINKS, n))
    rows = max(1, _DRAW_BLOCK // max(n, 1))
    z = np.empty((min(rows, N_LINKS), n), dtype=np.uint64)
    shifted = np.empty_like(z)
    for lo in range(0, N_LINKS, rows):
        hi = min(lo + rows, N_LINKS)
        zb, sb, gb = z[:hi - lo], shifted[:hi - lo], out[lo:hi]
        np.add(link_term[lo:hi, None], trial_term, out=zb)
        np.right_shift(zb, np.uint64(30), out=sb)
        zb ^= sb
        zb *= _MIX_A
        np.right_shift(zb, np.uint64(27), out=sb)
        zb ^= sb
        zb *= _MIX_B
        np.right_shift(zb, np.uint64(31), out=sb)
        zb ^= sb
        zb >>= np.uint64(11)
        # The top 53 bits fit int64, whose conversion to float64 is exact
        # and faster than uint64's.
        np.copyto(gb, zb.view(np.int64), casting="unsafe")
        gb += 0.5
        gb *= _TO_UNIT
        np.log(gb, out=gb)
        gb *= neg_sigma[lo:hi]
    return out.reshape(N_BS, N_USERS, n).transpose(2, 0, 1)


def _log2_ratio(out, den, scale):
    """out <- scale * log2(1 + out/den), in place; out holds the numerator."""
    out /= den
    out += 1.0
    np.log2(out, out=out)
    if scale is not None:
        out *= scale


def rates_chunk_numpy(gains, scheme_code, alpha, beta, rho, upsilon, band, eps_sums):
    """Per-user bandwidth-normalized rates (n, 6) for one scheme.

    The result is a view of user-major memory: each user's rates over the
    chunk are contiguous. Each SINR is evaluated in the left-to-right order
    of its formula, so every rate is reproducible to the last bit.
    """
    if scheme_code not in (OMA_CODE, NOMA_CODE, VPNOMA_CODE, COMP_VPNOMA_CODE):
        raise ValueError(f"unknown scheme code {scheme_code!r}")
    n = gains.shape[0]
    # Row i*N_USERS + u is link (BS i, user u); copied only when the gains
    # are not link-major already.
    g = np.ascontiguousarray(np.transpose(gains, (1, 2, 0))).reshape(N_LINKS, n)
    near_serving = g[0::N_USERS + 1]        # links (j, j)
    far_serving = g[N_BS::N_USERS + 1]      # links (k, 3 + k)
    cross = g[0:N_BS] + g[N_USERS:N_USERS + N_BS]
    cross += g[2 * N_USERS:2 * N_USERS + N_BS]
    cross -= near_serving
    total = g[N_BS:N_USERS] + g[N_USERS + N_BS:2 * N_USERS]
    total += g[2 * N_USERS + N_BS:]
    arho = alpha * rho
    brho = beta * rho
    band = np.asarray(band)

    out = np.empty((N_USERS, n))
    near, far = out[:N_BS], out[N_BS:]
    if scheme_code == OMA_CODE:
        near_signal, near_cross, near_scale = rho, rho, 0.5
    elif scheme_code == NOMA_CODE:
        near_signal, near_cross, near_scale = arho, rho, None
    else:
        near_signal, near_cross = arho, arho
        near_scale = band[0] + band[1] + band[2]
    np.multiply(near_serving, near_signal, out=near)
    cross *= near_cross
    cross += (rho * eps_sums[:N_BS])[:, None]
    if scheme_code != OMA_CODE:
        cross += rho * upsilon
    cross += 1.0
    _log2_ratio(near, cross, near_scale)

    if scheme_code == COMP_VPNOMA_CODE:
        np.multiply(total, brho, out=far)
        den = total
        den *= arho
        far_scale = band[:, None]
    elif scheme_code == VPNOMA_CODE:
        interference = total - far_serving
        interference *= brho
        den = total
        den *= arho
        den += interference
        np.multiply(far_serving, brho, out=far)
        far_scale = band[:, None]
    elif scheme_code == NOMA_CODE:
        interference = total - far_serving
        interference *= rho
        den = far_serving * arho
        den += interference
        np.multiply(far_serving, (1.0 - alpha) * rho, out=far)
        far_scale = None
    else:
        den = total - far_serving
        den *= rho
        np.multiply(far_serving, rho, out=far)
        far_scale = 0.5
    den += (rho * eps_sums[N_BS:])[:, None]
    den += 1.0
    _log2_ratio(far, den, far_scale)
    return out.T


try:
    from numba import njit

    _HAVE_NUMBA = True
    _gains_numba = njit(cache=True, nogil=True)(_gains_impl)
    _rates_numba = njit(cache=True, nogil=True)(_rates_impl)
except ImportError:  # numba is an optional extra: pip install .[numba]
    _HAVE_NUMBA = False
    _gains_numba = None
    _rates_numba = None


def gains_chunk_numba(seed, start_trial, n, sigma_hat):
    return _gains_numba(np.uint64(seed & _SEED_MASK), start_trial, n,
                        np.ascontiguousarray(sigma_hat, dtype=np.float64))


def rates_chunk_numba(gains, scheme_code, alpha, beta, rho, upsilon, band, eps_sums):
    return _rates_numba(np.ascontiguousarray(gains), scheme_code,
                        float(alpha), float(beta), float(rho), float(upsilon),
                        np.ascontiguousarray(band, dtype=np.float64),
                        np.ascontiguousarray(eps_sums, dtype=np.float64))


def _env_enabled() -> bool:
    return os.environ.get("COMP_NOMA_NUMBA", "1").strip().lower() not in (
        "0", "false", "no", "off")


_BACKEND = "numba" if (_HAVE_NUMBA and _env_enabled()) else "numpy"


def active_backend() -> str:
    return _BACKEND


def set_backend(name: str) -> None:
    """Switch between the 'numba' and 'numpy' kernel paths at runtime."""
    global _BACKEND
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not _HAVE_NUMBA:
        raise ValueError("numba backend requested but numba is not installed")
    _BACKEND = name


def sample_gains(seed, start_trial, n, sigma_hat):
    if _BACKEND == "numba":
        return gains_chunk_numba(seed, start_trial, n, sigma_hat)
    return gains_chunk_numpy(seed, start_trial, n, sigma_hat)


def scheme_rates(gains, scheme_code, alpha, beta, rho, upsilon, band, eps_sums):
    if _BACKEND == "numba":
        return rates_chunk_numba(gains, scheme_code, alpha, beta, rho, upsilon,
                                 band, eps_sums)
    return rates_chunk_numpy(gains, scheme_code, alpha, beta, rho, upsilon,
                             band, eps_sums)
