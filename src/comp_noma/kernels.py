"""Hot numeric kernels: counter-based fading draws and batched scheme rates.

Everything the Monte-Carlo estimator does per trial lives here, as
vectorized numpy, except two compiled stages in _kernels.c: the draw
kernel's uniforms and the rate kernel's 1 + SINR. Each has a numpy stage
of the same signature; the rate kernel's, _numpy_sinr, is the C function
comp_noma_sinr statement for statement. The same library holds a third
stage, the closed form's user rates, whose twin is
analytic._python_user_rates. Where the library builds and gives its twins'
bits on small inputs, all three C stages run; the numpy stages and the
Python statements run everywhere else, to the same bits. Draws come from a
counter-based stream, so a draw depends only on (seed, trial, link) and
never on call order, chunking, thread count or the stage that ran.
"""

import ctypes
import os
import shutil
import tempfile
import zlib
from types import SimpleNamespace

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

# Links per block of the numpy uniform stage; N_LINKS is a multiple of it.
# Every numpy call releases and retakes the GIL, so with two worker threads
# a chunk costs per call as well as per draw, and six-link blocks run the
# SplitMix64 finalizer in three passes per chunk. A fixed link count, not a
# fixed number of draws, keeps the uint64 scratch block of a 2,000-trial
# chunk at 96 KB, below glibc's 128 KiB mmap threshold.
_DRAW_LINKS = 6

# The kernels' chunk-length buffers start on a 64-byte boundary, one cache
# line and one AVX-512 vector. Left where the heap placed them, at offsets
# 16 and 48 a full-chunk call of the draw kernel ran about 12% and one of
# the CoMP rate kernel about 5% slower than at offsets 0 and 32.
_ALIGN = 64


def _aligned_empty(rows, n, dtype=np.float64):
    """An uninitialized C-ordered (rows, n) array of an 8-byte dtype whose
    data start on an _ALIGN-byte boundary: a slice of a block 64 bytes longer."""
    raw = np.empty(rows * n + _ALIGN // 8, dtype)
    # the address of raw's first byte, read in a third of the time that
    # raw.__array_interface__ takes
    start = -ctypes.addressof(ctypes.c_char.from_buffer(raw)) % _ALIGN // 8
    return raw[start:start + rows * n].reshape(rows, n)


def _numpy_uniforms(seed, start_trial, n):
    """The uniforms u = ((z >> 11) + 0.5) * 2**-53 of trials [start_trial,
    start_trial + n), as a fresh aligned link-major (18, n) block; z is the
    SplitMix64 output for counter trial*N_LINKS + link. The reference for
    the C stage, and the stage that runs where that cannot be built."""
    # The SplitMix64 input seed + (counter+1)*GOLDEN splits, mod 2**64, into
    # a per-trial and a per-link term.
    trial_term = np.arange(start_trial, start_trial + n, dtype=np.uint64)
    trial_term *= _LINKS_GOLDEN
    link_term = np.arange(1, N_LINKS + 1, dtype=np.uint64) * _GOLDEN
    link_term += np.uint64(seed)

    # The scratch block is allocated before the output: in the other order,
    # some processes running 2,000-trial sweeps had glibc return and
    # re-fault about 85 heap pages per estimate.
    zb = _aligned_empty(_DRAW_LINKS, n, np.uint64)
    out = _aligned_empty(N_LINKS, n)
    for lo in range(0, N_LINKS, _DRAW_LINKS):
        hi = lo + _DRAW_LINKS
        db = out[lo:hi]
        # The block's uniforms are written last, so their memory holds the
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
    return out


def _draws(seed, start_trial, n):
    out = _uniforms(seed, start_trial, n)
    np.log(out, out=out)
    out.flags.writeable = False
    return out.reshape(N_BS, N_USERS, n).transpose(2, 0, 1)


# The last block drawn of each size class, keyed by n < CHUNK_TRIALS, as
# ((seed, start_trial, n), draws), each entry replaced whole so that a
# thread reads a key and its draws together; the draws are read-only, so
# any thread may share them. A miss drops its class's entry before
# drawing, so the held block is freed before the next is allocated: a
# variant that kept full blocks alive while it drew new ones made glibc
# trim and re-fault the heap on every chunk.
_held = {}


def sample_gains(seed, start_trial, n):
    """Read-only log(u) draws (n, 3, 6) for trials [start_trial, start_trial+n).

    A draw depends only on (seed, trial, link) and is negative; scheme_rates
    turns it into the gain draw × (−σ̂). The result is a view of link-major
    memory: each link's draws over the chunk are contiguous, which is the
    layout scheme_rates reads. Values do not depend on the layout. A
    repeated call for the last block shorter than CHUNK_TRIALS, or for the
    last full block, may return the same array.
    """
    key = seed, start_trial, n
    short = n < CHUNK_TRIALS
    held = _held.get(short)
    if held is None or held[0] != key:
        del held    # with the pop, frees the held block before the draw
        _held.pop(short, None)
        held = _held[short] = key, _draws(seed, start_trial, n)
    return held[1]


def chunk_order(seed, trials):
    """An estimate's chunk indices in run order: its full chunks from the
    end whose block sample_gains holds, if it holds one, then its tail
    shorter than CHUNK_TRIALS, so that on one thread the estimate's last
    full chunk is where the next one of a sweep at this seed and trial
    count starts."""
    n_full, tail = divmod(int(trials), CHUNK_TRIALS)
    # no block with a negative start is ever held
    last_full = seed, (n_full - 1) * CHUNK_TRIALS, CHUNK_TRIALS
    step = -1 if _held.get(False, (None,))[0] == last_full else 1
    return list(range(n_full))[::step] + ([n_full] if tail else [])


def scheme_rates(draws, scheme_code, params, stats):
    """Per-user bandwidth-normalized rates (n, 6) for one scheme.

    draws are sample_gains draws, params a schemes.SystemParams and stats a
    channel.LinkStatistics, whose (3, 6) per-link means sigma_hat turn each
    draw into a gain inside the SINR statements. The result is a
    view of user-major memory: each user's rates over the chunk are
    contiguous. Each SINR is evaluated in the left-to-right order of its
    formula, so every rate is reproducible to the last bit: in one C pass
    where the compiled stages run, in numpy passes where they do not.
    """
    if scheme_code not in (OMA_CODE, NOMA_CODE, VPNOMA_CODE, COMP_VPNOMA_CODE):
        raise ValueError(f"unknown scheme code {scheme_code!r}")
    arrays, scalars = _sinr_inputs(draws, params, stats)
    out = _aligned_empty(N_USERS, draws.shape[0])
    _sinr(out, *arrays, scheme_code, *scalars)
    # rate = share of the band * log2(1 + SINR): OMA gives each user half
    # the band, VP-NOMA and CoMP each far user a third, and every other
    # user has the whole band
    np.log2(out, out=out)
    if scheme_code == OMA_CODE:
        out *= 0.5
    elif scheme_code != NOMA_CODE:
        out[N_BS:] *= 1.0 / 3.0
    return out.T


def _sinr_inputs(draws, params, stats):
    """The arguments of _sinr but out and code: the arrays (d, w, eps) and
    the scalars (ρ, αρ, βρ, (1 − α)ρ, ρυ). d holds the draws as
    link-major float64 (18, n), row i*N_USERS + u for link (BS i, user u),
    copied only when the draws are not that already; w is −σ̂ per link, so
    that a gain draw × w is the same IEEE product as −log(u)·σ̂, negation
    being exact; eps is ρ·Σσ_ε per user."""
    alpha, rho = params.alpha, params.rho
    d = np.ascontiguousarray(np.transpose(draws, (1, 2, 0)),
                             dtype=np.float64).reshape(N_LINKS, -1)
    w = -np.asarray(stats.sigma_hat, np.float64).reshape(N_LINKS)
    eps = np.asarray(rho * stats.eps_sums, np.float64).reshape(N_USERS)
    return (d, w, eps), (rho, alpha * rho, params.beta * rho,
                         (1.0 - alpha) * rho, rho * params.upsilon)


def _numpy_sinr(out, d, w, eps, code, rho, arho, brho, far_rho, ups_rho):
    """comp_noma_sinr of _kernels.c in numpy, statement for statement: 1 +
    S/D of each user into its row of out. The reference for the C stage,
    and the stage that runs where that cannot be built."""
    for u in range(N_USERS):
        c = u % N_BS
        s = c * N_USERS + u
        i1 = (1 if c == 0 else 0) * N_USERS + u
        i2 = (1 if c == 2 else 2) * N_USERS + u
        e = eps[u]
        g, i = d[s] * w[s], d[i1] * w[i1] + d[i2] * w[i2]
        if code == OMA_CODE:
            sinr = g * rho / ((i * rho + e) + 1.0)
        elif u < N_BS:
            m = rho if code == NOMA_CODE else arho
            sinr = g * arho / (((i * m + e) + ups_rho) + 1.0)
        elif code == NOMA_CODE:
            sinr = g * far_rho / (((i * rho + arho * g) + e) + 1.0)
        elif code == VPNOMA_CODE:
            sinr = g * brho / (((i * brho + (i + g) * arho) + e) + 1.0)
        else:
            total = i + g
            sinr = total * brho / ((total * arho + e) + 1.0)
        np.add(sinr, 1.0, out=out[u])
        # freed before the next user's: a call's peak is 12 rows of n, not 14
        del g, i, sinr


# The compiled stages, _kernels.c, are built once per source and command
# into the package's own __pycache__, never a shared temporary directory,
# and named by a CRC-32 of both, so an edit to either builds a new library.
# No -march, since a cached library may be loaded on another CPU: where the
# C file builds target clones, the loader picks the widest one the CPU
# runs. No -ffast-math, and -ffp-contract=off keeps every IEEE operation as
# written, so every clone gives the same bits.
_SOURCE = os.path.join(os.path.dirname(__file__), "_kernels.c")
_CACHE_DIR = os.path.join(os.path.dirname(__file__), "__pycache__")
_BUILD = ("cc", "-O3", "-fPIC", "-shared", "-ffp-contract=off")
# A small block whose trial counters wrap mod 2**64, with a tail of odd
# length, and uneven link statistics and parameters for its rates; one
# namespace stands in for both the SystemParams and the LinkStatistics.
_SELF_CHECK = (2**64 - 1, 2**64 // N_LINKS - 3, 37)
_CHECK_POINT = SimpleNamespace(
    alpha=0.07, beta=(1.0 - 0.07) / 3.0, rho=77.0, upsilon=0.03,
    sigma_hat=np.linspace(0.05, 3.0, N_LINKS).reshape(N_BS, N_USERS),
    eps_sums=np.linspace(1e-3, 6e-3, N_USERS))
# The closed form's rate stage at a second point, _CHECK_POINT at -200 dB:
# its exp(z)E1(z) arguments reach 1e20, where the continued fraction takes
# its second pass; and at a third, whose links to each user are equal, so
# that every user's rates are spread.
_CHECK_RATES_POINTS = (
    _CHECK_POINT, SimpleNamespace(**dict(vars(_CHECK_POINT), rho=1e-20)),
    SimpleNamespace(**dict(vars(_CHECK_POINT), sigma_hat=np.repeat(
        _CHECK_POINT.sigma_hat[:1], N_BS, axis=0))))


def _uncompiled_rates(sigma_hat, eps_sums, alpha, beta, rho, upsilon):
    """The closed-form rate stage where the C stages do not run: no rates,
    so that analytic._user_rates runs its Python statements."""
    return None


_NUMPY_STAGES = _numpy_uniforms, _numpy_sinr, _uncompiled_rates, None
# comp_noma_isa's levels by the names of their clones' targets
_ISA_NAMES = {4: "x86-64-v4", 3: "x86-64-v3", 0: "default"}


def _library_path():
    with open(_SOURCE, "rb") as f:
        tag = zlib.crc32(" ".join(_BUILD).encode(), zlib.crc32(f.read()))
    return os.path.join(_CACHE_DIR, f"_kernels-{tag:08x}.so")


def _load_stages():
    """(uniforms, sinr, rates, isa), the stages that _draws, scheme_rates
    and analytic._user_rates run and the target of the C stages' clone that
    runs: the C stages when the library builds, loads and gives its twins'
    bits, else the numpy stages, _uncompiled_rates and None, as on a host
    with no compiler or a read-only package directory. A cached library
    that fails to load or to pass that check is removed and built once
    more; a new build that fails the check leaves a .failed file of the
    library's name, so that later imports with the same source and command
    build nothing."""
    library = _library_path()
    failed = library[:-len(".so")] + ".failed"
    if os.path.exists(library):
        stages = _checked_stages(library)
        if stages is not None:
            return stages
        try:
            os.remove(library)
        except OSError:
            pass
    if os.path.exists(failed) or shutil.which(_BUILD[0]) is None:
        return _NUMPY_STAGES
    # only on a miss with a compiler: no other import loads the subprocess
    # module
    import subprocess
    tmp = None
    try:
        os.makedirs(_CACHE_DIR, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix="_kernels-",
                                    dir=_CACHE_DIR)
        os.close(fd)
        subprocess.run([*_BUILD, "-o", tmp, _SOURCE], check=True,
                       capture_output=True, timeout=120)
        # loaded under its temporary name: the dynamic loader would hand
        # back a library it has already loaded from the final path
        stages = _checked_stages(tmp)
        if stages is None:
            open(failed, "wb").close()
            return _NUMPY_STAGES
        # mkstemp's 0600 would leave the library unreadable to other users
        os.chmod(tmp, 0o755)
        # another process may build the same library at once; each moves a
        # whole file into place
        os.replace(tmp, library)
    except (OSError, subprocess.SubprocessError):
        return _NUMPY_STAGES
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.remove(tmp)
    # Every other library and .failed file goes, but not a build in
    # progress, a .tmp file. Another process may remove the same file
    # first, and one that cannot be removed stays beside the new library.
    for name in os.listdir(_CACHE_DIR):
        stale = os.path.join(_CACHE_DIR, name)
        if name.endswith((".so", ".failed")) and stale != library:
            try:
                os.remove(stale)
            except OSError:
                pass
    return stages


def _checked_stages(path):
    """The library's (uniforms, sinr, rates, isa) when it loads and each
    stage gives its twin's bytes: uniforms and sinr their numpy stages' on
    _SELF_CHECK, sinr for every scheme code, and rates
    analytic._python_user_rates' at _CHECK_RATES_POINTS; None otherwise."""
    try:
        library = ctypes.CDLL(path)
        fill, sinr = library.comp_noma_uniforms, library.comp_noma_sinr
        rates, isa = library.comp_noma_user_rates, library.comp_noma_isa
    except (OSError, AttributeError):
        return None
    isa.argtypes = ()
    isa.restype = ctypes.c_int
    fill.argtypes = (ctypes.c_void_p, ctypes.c_uint64, ctypes.c_uint64,
                     ctypes.c_size_t)
    fill.restype = None
    sinr.argtypes = ((ctypes.c_void_p,) * 4 + (ctypes.c_int,)
                     + (ctypes.c_double,) * 5 + (ctypes.c_size_t,))
    sinr.restype = None
    links, users = ctypes.c_double * N_LINKS, ctypes.c_double * N_USERS
    rates.argtypes = (users, links, users) + (ctypes.c_double,) * 4
    rates.restype = ctypes.c_int

    # ctypes releases the GIL for each call
    def c_uniforms(seed, start_trial, n):
        out = _aligned_empty(N_LINKS, n)
        fill(out.ctypes.data, seed, start_trial, n)
        return out

    def c_sinr(out, d, w, eps, *code_scalars):
        sinr(out.ctypes.data, d.ctypes.data, w.ctypes.data, eps.ctypes.data,
             *code_scalars, out.shape[1])

    def c_rates(sigma_hat, eps_sums, alpha, beta, rho, upsilon):
        """The six rates as a list, or None where the C stage defers to
        the Python statements. The arrays are copied: a ctypes copy of
        144 bytes costs less than reading a numpy array's address."""
        out = users()
        if rates(out, links.from_buffer_copy(
                     np.ascontiguousarray(sigma_hat, np.float64)),
                 users.from_buffer_copy(
                     np.ascontiguousarray(eps_sums, np.float64)),
                 alpha, beta, rho, upsilon):
            return None
        return out[:]

    # compared as bytes: np.array_equal would page in code that nothing
    # else runs, about 0.3 MB of resident memory
    block = c_uniforms(*_SELF_CHECK)
    if block.tobytes() != _numpy_uniforms(*_SELF_CHECK).tobytes():
        return None
    np.log(block, out=block)
    draws = block.reshape(N_BS, N_USERS, -1).transpose(2, 0, 1)
    arrays, scalars = _sinr_inputs(draws, _CHECK_POINT, _CHECK_POINT)
    for code in (OMA_CODE, NOMA_CODE, VPNOMA_CODE, COMP_VPNOMA_CODE):
        c = _aligned_empty(N_USERS, _SELF_CHECK[2])
        reference = _aligned_empty(N_USERS, _SELF_CHECK[2])
        c_sinr(c, *arrays, code, *scalars)
        _numpy_sinr(reference, *arrays, code, *scalars)
        if c.tobytes() != reference.tobytes():
            return None
    # analytic is imported by now at least as far as its Python statements
    from .analytic import _python_user_rates
    for point in _CHECK_RATES_POINTS:
        inputs = (point.sigma_hat, point.eps_sums, point.alpha, point.beta,
                  point.rho, point.upsilon)
        c = c_rates(*inputs)
        if c is None or np.array(c).tobytes() \
                != np.array(_python_user_rates(*inputs)).tobytes():
            return None
    return c_uniforms, c_sinr, c_rates, _ISA_NAMES[isa()]


_uniforms, _sinr, _rates, _isa = _load_stages()


def active_backend() -> str:
    """Which stages run: "numpy+c" when the draw kernel's uniforms, the
    rate kernel's 1 + SINR and the closed form's user rates all come from
    the C stages, "numpy" otherwise."""
    compiled = (_uniforms is not _numpy_uniforms and _sinr is not _numpy_sinr
                and _rates is not _uncompiled_rates)
    return "numpy+c" if compiled else "numpy"


def compiled_isa() -> str | None:
    """The target of the C stages' clone that runs: "x86-64-v4",
    "x86-64-v3" or "default" (also a library built without clones), or None
    when the numpy stages run."""
    return _isa
