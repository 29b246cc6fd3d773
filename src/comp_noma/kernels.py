"""Hot numeric kernels: counter-based fading draws and batched scheme rates.

Everything the Monte-Carlo estimator does per trial lives here, as one
vectorized numpy path. Draws come from a counter-based stream, so a draw
depends only on (seed, trial, link) and never on call order, chunking, or
thread count.
"""

from functools import lru_cache

import numpy as np

from .geometry import N_BS, N_USERS

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


def _draws(seed, start_trial, n):
    # Counter of (trial t, link l) is t*N_LINKS + l; the SplitMix64 input
    # seed + (counter+1)*GOLDEN splits, mod 2**64, into a per-trial and a
    # per-link term.
    trial_term = np.arange(start_trial, start_trial + n, dtype=np.uint64)
    trial_term *= _LINKS_GOLDEN
    link_term = np.arange(1, N_LINKS + 1, dtype=np.uint64) * _GOLDEN
    link_term += np.uint64(seed)

    # The scratch block is allocated before the output: in the other order,
    # some processes running 2,000-trial sweeps had glibc return and
    # re-fault about 85 heap pages per estimate.
    zb = np.empty((_DRAW_LINKS, n), dtype=np.uint64)
    out = np.empty((N_LINKS, n))
    for lo in range(0, N_LINKS, _DRAW_LINKS):
        hi = lo + _DRAW_LINKS
        db = out[lo:hi]
        # The block's draws are written last, so their memory holds the
        # finalizer's shifted copies until then.
        sb = db.view(np.uint64)
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
        np.copyto(db, zb.view(np.int64), casting="unsafe")
        db += 0.5
        db *= _TO_UNIT
        np.log(db, out=db)
    out.flags.writeable = False
    return out.reshape(N_BS, N_USERS, n).transpose(2, 0, 1)


# The last block shorter than CHUNK_TRIALS: an estimate's tail chunk, which
# the estimates of a sweep at one seed and trial count share, and all of a
# one-chunk estimate. Full chunks are not kept: no two calls in a row share
# one, and keeping a 1.2 MB block alive made glibc trim and re-fault the heap
# on every chunk of the default sweep. The draws are read-only, so any thread
# may share them.
_short_draws = lru_cache(maxsize=1)(_draws)


def sample_gains(seed, start_trial, n):
    """Read-only log(u) draws (n, 3, 6) for trials [start_trial, start_trial+n).

    A draw depends only on (seed, trial, link) and is negative; link_gains
    turns it into a gain. The result is a view of link-major memory: each
    link's draws over the chunk are contiguous, which is the layout
    scheme_rates reads. Values do not depend on the layout. A repeated call
    for a block shorter than CHUNK_TRIALS may return the same array.
    """
    if n < CHUNK_TRIALS:
        return _short_draws(seed, start_trial, n)
    return _draws(seed, start_trial, n)


def link_gains(draws, sigma_hat, out=None):
    """Channel power gains draw × (−σ̂); the arguments broadcast.

    A gain is −log(u)·σ̂, and log(u)·(−σ̂) is the same IEEE product, since
    negation is exact.
    """
    return np.multiply(draws, np.negative(sigma_hat), out=out)


def scheme_rates(draws, scheme_code, alpha, beta, rho, upsilon, band,
                 eps_sums, sigma_hat):
    """Per-user bandwidth-normalized rates (n, 6) for one scheme.

    draws are sample_gains draws and sigma_hat the (3, 6) per-link means;
    each gain is formed here while the SINR denominators are built. The
    result is a view of user-major memory: each user's rates over the chunk
    are contiguous. Each SINR is evaluated in the left-to-right order of its
    formula, so every rate is reproducible to the last bit.
    """
    if scheme_code not in (OMA_CODE, NOMA_CODE, VPNOMA_CODE, COMP_VPNOMA_CODE):
        raise ValueError(f"unknown scheme code {scheme_code!r}")
    n = draws.shape[0]
    args = (draws, scheme_code, alpha, beta, rho, upsilon, band, eps_sums,
            sigma_hat)
    # A full chunk keeps the caller's buffer: setting and restoring it makes
    # a full-chunk call about 20 us (2-3%) slower on a 2-vCPU Xeon guest,
    # and the default SNR sweep about 2% slower end to end.
    if n >= CHUNK_TRIALS:
        return _scheme_rates(*args)
    # numpy's iterator copies a broadcast row shorter than its ufunc buffer
    # into that buffer: a (6, 1) column times a 2,000-trial row costs about
    # three times as much as with a buffer no longer than the row. The
    # setting is per thread and context; elementwise results do not depend
    # on it, and there are no reductions here.
    caller = np.setbufsize(max(16, n - n % 16))
    try:
        return _scheme_rates(*args)
    finally:
        np.setbufsize(caller)


def _scheme_rates(draws, scheme_code, alpha, beta, rho, upsilon, band, eps_sums,
                  sigma_hat):
    n = draws.shape[0]
    # Row i*N_USERS + u is link (BS i, user u); copied only when the draws
    # are not link-major already.
    d = np.ascontiguousarray(np.transpose(draws, (1, 2, 0))).reshape(N_LINKS, n)
    sigma = np.asarray(sigma_hat, dtype=np.float64).reshape(N_LINKS, 1)
    near_links = slice(0, None, N_USERS + 1)     # links (j, j)
    far_links = slice(N_BS, None, N_USERS + 1)   # links (k, 3 + k)
    arho = alpha * rho
    brho = beta * rho

    # One SINR denominator per user, built in place so that the whole chunk
    # takes one pass of each step: row u starts as user u's gain summed over
    # the three BSs; near rows then drop their serving link (the cross
    # interference) and far rows keep the total. Until the signals are
    # formed, out holds one BS's six gains at a time, then the six serving
    # gains.
    out = np.empty((N_USERS, n))
    near, far = out[:N_BS], out[N_BS:]
    den = link_gains(d[:N_USERS], sigma[:N_USERS])
    for lo in (N_USERS, 2 * N_USERS):
        link_gains(d[lo:lo + N_USERS], sigma[lo:lo + N_USERS], out=out)
        den += out
    link_gains(d[near_links], sigma[near_links], out=near)
    link_gains(d[far_links], sigma[far_links], out=far)
    den[:N_BS] -= near
    near_den, far_den = den[:N_BS], den[N_BS:]
    if scheme_code == OMA_CODE:
        far_den -= far
        den *= rho
        out *= rho
        scale = (0.5,) * N_USERS
    elif scheme_code == NOMA_CODE:
        near *= arho
        near_den *= rho
        interference = far_den - far
        interference *= rho
        np.multiply(far, arho, out=far_den)
        far_den += interference
        far *= (1.0 - alpha) * rho
        scale = (1.0,) * N_USERS
    else:
        near *= arho
        if scheme_code == COMP_VPNOMA_CODE:
            np.multiply(far_den, brho, out=far)
            den *= arho
        else:
            interference = far_den - far
            interference *= brho
            den *= arho
            far_den += interference
            far *= brho
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
