"""Hot numeric kernels: counter-based fading draws and batched scheme rates.

Everything the Monte-Carlo estimator does per trial lives here, as one
vectorized numpy path. Draws come from a counter-based stream, so a draw
depends only on (seed, trial, link) and never on call order, chunking, or
thread count.
"""

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
_TO_UNIT = 2.0 ** -53
_LINKS_GOLDEN = np.uint64(N_LINKS * 0x9E3779B97F4A7C15 % 2**64)


# Links per block of the draw kernel; N_LINKS is a multiple of it. Every
# numpy call releases and retakes the GIL, so with two worker threads a
# chunk costs per call as well as per draw, and six-link blocks run the
# SplitMix64 finalizer in three passes per chunk. A fixed link count, not a
# fixed number of draws, keeps the uint64 scratch block of a 2,000-trial
# chunk at 96 KB, below glibc's 128 KiB mmap threshold.
_DRAW_LINKS = 6


def sample_gains(seed, start_trial, n, sigma_hat):
    """Estimated channel power gains for trials [start_trial, start_trial+n).

    The (n, 3, 6) result is a view of link-major memory: each link's gains
    over the chunk are contiguous, which is the layout scheme_rates
    reads. Values do not depend on the layout.
    """
    # Counter of (trial t, link l) is t*N_LINKS + l; the SplitMix64 input
    # seed + (counter+1)*GOLDEN splits, mod 2**64, into a per-trial and a
    # per-link term.
    trial_term = np.arange(start_trial, start_trial + n, dtype=np.uint64)
    trial_term *= _LINKS_GOLDEN
    link_term = np.arange(1, N_LINKS + 1, dtype=np.uint64) * _GOLDEN
    link_term += np.uint64(seed)
    # -log(u) * s == log(u) * -s exactly: IEEE negation is exact.
    neg_sigma = -np.asarray(sigma_hat, dtype=np.float64).reshape(N_LINKS, 1)

    # The scratch block is allocated before the output: in the other order,
    # some processes running 2,000-trial sweeps had glibc return and
    # re-fault about 85 heap pages per estimate.
    zb = np.empty((_DRAW_LINKS, n), dtype=np.uint64)
    out = np.empty((N_LINKS, n))
    for lo in range(0, N_LINKS, _DRAW_LINKS):
        hi = lo + _DRAW_LINKS
        gb = out[lo:hi]
        # The block's gains are written last, so their memory holds the
        # finalizer's shifted copies until then.
        sb = gb.view(np.uint64)
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


def scheme_rates(gains, scheme_code, alpha, beta, rho, upsilon, band, eps_sums):
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
    arho = alpha * rho
    brho = beta * rho
    band = np.asarray(band)

    # One SINR denominator per user, built in place so that the whole chunk
    # takes one pass of each step: row u starts as user u's gain summed over
    # the three BSs; near rows then drop their serving link (the cross
    # interference) and far rows keep the total.
    out = np.empty((N_USERS, n))
    near, far = out[:N_BS], out[N_BS:]
    den = g[:N_USERS] + g[N_USERS:2 * N_USERS]
    den += g[2 * N_USERS:]
    den[:N_BS] -= near_serving
    near_den, far_den = den[:N_BS], den[N_BS:]
    if scheme_code == OMA_CODE:
        np.multiply(near_serving, rho, out=near)
        np.multiply(far_serving, rho, out=far)
        far_den -= far_serving
        den *= rho
        scale = (0.5,) * N_USERS
    elif scheme_code == NOMA_CODE:
        np.multiply(near_serving, arho, out=near)
        near_den *= rho
        interference = far_den - far_serving
        interference *= rho
        np.multiply(far_serving, arho, out=far_den)
        far_den += interference
        np.multiply(far_serving, (1.0 - alpha) * rho, out=far)
        scale = (1.0,) * N_USERS
    else:
        np.multiply(near_serving, arho, out=near)
        if scheme_code == COMP_VPNOMA_CODE:
            np.multiply(far_den, brho, out=far)
            den *= arho
        else:
            interference = far_den - far_serving
            interference *= brho
            den *= arho
            far_den += interference
            np.multiply(far_serving, brho, out=far)
        near_scale = band[0] + band[1] + band[2]
        scale = (near_scale,) * N_BS + tuple(band)
    den += (rho * eps_sums)[:, None]
    if scheme_code != OMA_CODE:
        near_den += rho * upsilon
    den += 1.0
    # rate = scale * log2(1 + signal/den) for all six users at once; a scale
    # of 1.0 leaves a rate unchanged to the bit.
    out /= den
    out += 1.0
    np.log2(out, out=out)
    out *= np.array(scale).reshape(N_USERS, 1)
    return out.T


def active_backend() -> str:
    """Name of the numeric path the kernels run on; there is one."""
    return "numpy"
