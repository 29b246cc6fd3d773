import hashlib
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from comp_noma import SystemParams, build_layout, derive_link_statistics
from comp_noma import kernels
from oracles import kernel_gains, per_link


def test_chunked_and_whole_stream_agree():
    sigma = np.linspace(0.2, 2.0, 18).reshape(3, 6)
    whole = kernel_gains(5, 0, 3 * kernels.CHUNK_TRIALS, sigma)
    pieces = [kernel_gains(5, i * kernels.CHUNK_TRIALS, kernels.CHUNK_TRIALS,
                           sigma)
              for i in range(3)]
    assert np.array_equal(whole, np.concatenate(pieces))


def test_draws_are_read_only():
    for n in (1, 2000, kernels.CHUNK_TRIALS, kernels.CHUNK_TRIALS + 1):
        draws = kernels.sample_gains(9, 0, n)
        with pytest.raises(ValueError, match="read-only"):
            draws[0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            draws *= 2.0


def test_only_a_short_block_is_kept_and_full_chunks_never_displace_it():
    kernels._short_draws.cache_clear()
    chunk = kernels.CHUNK_TRIALS
    tail = kernels.sample_gains(3, 2 * chunk, 2000)
    assert kernels.sample_gains(3, 2 * chunk, 2000) is tail
    for start, n in ((0, chunk), (chunk, chunk), (0, 3 * chunk)):
        full = kernels.sample_gains(3, start, n)
        assert kernels.sample_gains(3, start, n) is not full
        assert kernels.sample_gains(3, 2 * chunk, 2000) is tail
    for key in ((4, 2 * chunk, 2000), (3, 2 * chunk + 1, 2000),
                (3, 2 * chunk, 1999)):
        other = kernels.sample_gains(*key)
        assert other is not tail
        assert kernels.sample_gains(*key) is other
    again = kernels.sample_gains(3, 2 * chunk, 2000)
    assert again is not tail
    assert np.array_equal(again, tail)
    # twelve short calls reached the memo, none of the six full chunks
    assert kernels._short_draws.cache_info()[:2] == (7, 5)


def test_unit_interval_draws_are_strictly_inside():
    sigma = np.ones((3, 6))
    gains = kernel_gains(123, 0, 50_000, sigma)
    assert np.all(gains > 0.0)
    assert np.all(np.isfinite(gains))


# SHA-256 of the C-order bytes of kernel outputs, recorded from the kernels
# before their fused in-place rewrite. A drawn gain or a rate that moves by
# one ulp changes its digest.
GAINS_DIGESTS = {
    (1, 0, 8192):
        "51e9e3050f10ce5a87fe9e3c050516ce123223c378122dbca18c940a6576e4a1",
    (2**64 - 1, 12345, 1000):
        "7fc53430e2c99d2fbe4239bce3144e3ef54189c90a6cce0385f80792d791b9af",
    (505, 57344, 8192):
        "b32f7a6ebb8116d5a218304872a0d10ddd01cac44e2ba99ad74f806d7a4a2ee5",
}
RATE_RHOS = (1.0, 100.0, 1e4)
RATES_DIGESTS = {  # (layout, scheme code) -> one digest per RATE_RHOS
    ("default", 0): (
        "d7897048e017e296ef82595246c1469be82aab060ca822fdfd8faa4e96ec088e",
        "e1128bd9ddf4f118cc7f3533265c07c3536b2a47cedd0b9f14a34e31138e362e",
        "df262d53523eaf958a9596a005978527cef52a5a8d9feb44c972614bdba1dcff",
    ),
    ("default", 1): (
        "cdef0cb0932e0bfecc8ebf0e64ea5b83f889f80029efc3b9b71d2271d458846e",
        "e28639662e7b571305daca829d10b3ee944af46abeccab48ad8b30c965a4ef09",
        "294d8764660c27b764cac7abe037988fc7df2d7092deb79eea0e9159ce7e4b32",
    ),
    ("default", 2): (
        "e78da8684de3cfc9647bde96c7b39a8a920f244fdd2ac018c035a95719080260",
        "0a5e364e641c069767ae320f405f340aa9420f55dce25efa38e2c48e69ba2da4",
        "af405d7ddd9dfa52fb27c0f75ed5f7c9f564416a28b52b171a2f2aa88d7279cb",
    ),
    ("default", 3): (
        "7c787253cf297bbdb3cc1bc05524e7fa108b75501532ebe9a208f5d59faa4e82",
        "6c6cf4af9d583e8d3396375a9c9267e7abb36d3392fc49764f49cb3fe315d6ad",
        "de89031f260cbf4094d7436ea66b595f8933d79f06dbf6af548c20592070c082",
    ),
    ("uneven", 0): (
        "55d14d36dad4c0a89a60181ad1e92fe38d96245d6518913815025b0704d9853a",
        "b96a111d56436a838bcf32ed8f3824499ff2f8c3586fc8c54cbb284ba35aab27",
        "52cb15e8931ddf5b1f93cb635327ef075f191b6a30232688a419ca5f1fa05b2b",
    ),
    ("uneven", 1): (
        "ff6e9858ae633d71956a6986b1090d114f1f073c18b7bbcd81bc36b9a55f13d1",
        "aa970b6b161b20d97d1860df82173985c86b76e851673fefda9e16f5db38f0da",
        "c1d2af06ab420349a10828970eefe193b33d282479f66c7e18d0274bbd4aeddf",
    ),
    ("uneven", 2): (
        "97bd6cd1094e7a0b84ae5b4dfdacfe68de19faaa84f98b49bbad4cc446fa6f08",
        "23ff879fdf76da335ef192d8c61a75fe2abe41c508409c1fe4c80dc8e5639425",
        "e8772e161f98fb5fa6fd03e5bb29d5973c1eaf3f4fb7269a9dac6dd7e42ad777",
    ),
    ("uneven", 3): (
        "259fcbaedaf4f1f7e3b13980ad94e50bb09704272eff0ec79ed7e8b6ddcb50ac",
        "36c4326bbe4bc51071ad9ca3239e0ba09153b1a1939d24da4d31cb0150deec7f",
        "a8164aeae9a7899ee60b2777c996b29880fdc40a44d58f117ba3dc944622f49f",
    ),
}


def _digest(array):
    assert array.dtype == np.float64
    return hashlib.sha256(array.tobytes(order="C")).hexdigest()


def _rate_case(name):
    """(stats, params, gains seed) of a digest case's layout."""
    if name == "default":
        stats = derive_link_statistics(
            build_layout((0.5,) * 3, (0.95,) * 3), 4.0, 0.001)
        return stats, SystemParams(alpha=0.1, upsilon=0.01), 1
    stats = derive_link_statistics(
        build_layout((0.3, 0.5, 0.7), (0.8, 0.95, 0.9)), 3.5,
        per_link(0.001, {(1, "A"): 0.004, (3, "2"): 0.0}))
    params = SystemParams(alpha=0.07, upsilon=0.03,
                          band_fractions=(0.2, 0.3, 0.5))
    return stats, params, 2


@pytest.mark.parametrize("seed, start, n", sorted(GAINS_DIGESTS))
def test_gains_are_bit_exact(default_stats, seed, start, n):
    gains = kernel_gains(seed, start, n, default_stats.sigma_hat)
    assert gains.shape == (n, kernels.N_BS, kernels.N_USERS)
    assert _digest(gains) == GAINS_DIGESTS[(seed, start, n)]


@pytest.mark.parametrize("name, code", sorted(RATES_DIGESTS))
def test_rates_are_bit_exact_in_any_gains_layout(name, code):
    stats, params, seed = _rate_case(name)
    draws = kernels.sample_gains(seed, 0, kernels.CHUNK_TRIALS)
    band = params.band_fractions
    eps_sums = stats.eps_sums
    for rho, expected in zip(RATE_RHOS, RATES_DIGESTS[(name, code)]):
        for layout in (draws, np.ascontiguousarray(draws)):
            rates = kernels.scheme_rates(layout, code, params.alpha,
                                         params.beta, rho, params.upsilon,
                                         band, eps_sums, stats.sigma_hat)
            assert rates.shape == (kernels.CHUNK_TRIALS, kernels.N_USERS)
            assert _digest(rates) == expected, (name, code, rho)


# SHA-256 of the "uneven" case's rates at the three RATE_RHOS, one digest per
# scheme code, for calls shorter than a chunk; recorded from the kernel
# before it bounded numpy's ufunc buffer on such calls.
SHORT_RATES_DIGESTS = {
    1: (
        "c5d0f21d2e8ce2a1c7f612b280891129239314e9e6c5c194a31b27021efe952a",
        "cbb932651a8fb7a8221c35ec0ede6b661bd2edd75f8172df1b8b9a3097d32cf2",
        "786e834a0887e2dfcbdf68f123581a82d5bfbcf051258a057a69a8d997e91387",
        "90031aa4b4d72a755214bbd2c5d3b3ab795819395bbe57978bc48bbb4d32f12a",
    ),
    576: (
        "04fea8ac7d1cb13d43d0c04e71c78fad3775d3dd3a7129390d433477d79daf78",
        "6d89cec8692a5c140ed24eccc29784f60d79f9f98328d10f89c7fd2b7aa0eddd",
        "94c18813e822f8da4ca9ed92b7dd1956a34f8d786a708c61649cdd9dccb927f2",
        "1488ff69cf9e1aa172663a800a2d3b241654f2da8f6af35d6840ccf6fb1c88dc",
    ),
    1696: (
        "a8333f3fc9777fc74168693e4f696ee1577691433ef077c68b1e6d8365eedcb7",
        "47f8b8bdfb69eb7a2fc5451a50fc142e6c732181ef08f6c4f571d1b323f8dc24",
        "445c6086a23f317f5ceabf0befc5bacb444e5ac3b8ca0b1df2d6ce3f819019cd",
        "741de0b9344342362479068a085b305a86b890b587500a6e6db8b79143436cec",
    ),
    2000: (
        "fc5d589cd0a0a50d9eb9a4073a35e64b9898cae7fd4f944511b16459daea8e22",
        "5ae5e99a52fb25470c2b0c3303572e97203eccb3133adcc488d81768cba25b16",
        "01344d406f0d6587f14e2c0bd88acf84fbb2b47f80541092f8cbf568c6cb4e31",
        "03aeba3efc2d1d0637038929e2482f5c3678bcee5836768f86fa8e8e3c5254cf",
    ),
}


@pytest.mark.parametrize("n", sorted(SHORT_RATES_DIGESTS))
def test_short_chunk_rates_are_bit_exact(n):
    stats, params, seed = _rate_case("uneven")
    draws = kernels.sample_gains(seed, 0, n)
    band = params.band_fractions
    eps_sums = stats.eps_sums
    for code, expected in enumerate(SHORT_RATES_DIGESTS[n]):
        digest = hashlib.sha256()
        for rho in RATE_RHOS:
            rates = kernels.scheme_rates(draws, code, params.alpha,
                                         params.beta, rho, params.upsilon,
                                         band, eps_sums, stats.sigma_hat)
            digest.update(rates.tobytes(order="C"))
        assert digest.hexdigest() == expected, (n, code)


def test_rate_kernel_restores_the_callers_buffer_size():
    stats, params, seed = _rate_case("uneven")
    band = params.band_fractions
    eps_sums = stats.eps_sums

    def call(n, sigma_hat=stats.sigma_hat):
        return kernels.scheme_rates(
            kernels.sample_gains(seed, 0, n), kernels.COMP_VPNOMA_CODE,
            params.alpha, params.beta, params.rho, params.upsilon, band,
            eps_sums, sigma_hat)

    def sizes_after_calls(n, bufsize):
        # (size after a call, size after a call that raises) under bufsize
        with np.errstate():
            np.setbufsize(bufsize)
            call(n)
            after_call = np.getbufsize()
            with pytest.raises(ValueError):
                call(n, sigma_hat=np.ones(5))
            return after_call, np.getbufsize()

    default = np.getbufsize()
    for n in (1, 2000, kernels.CHUNK_TRIALS):
        for bufsize in (default, 4096, 16):
            assert sizes_after_calls(n, bufsize) == (bufsize, bufsize), n
    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(sizes_after_calls, 2000, 4096).result() \
            == (4096, 4096)
        assert pool.submit(lambda: (call(2000), np.getbufsize())).result()[1] \
            == default
    assert np.getbufsize() == default


@pytest.mark.parametrize("n", [576, 1696, 2000, 8192])
def test_kernel_outputs_start_on_64_byte_boundaries(n):
    """Draws and rates start on a cache line, wherever the heap stands."""
    stats, params, seed = _rate_case("uneven")
    held = []
    for pad in (1, 2, 3, 5, 8):
        # move the heap between calls by a few 16-byte steps
        held.append(np.empty(pad * 2))
        kernels._short_draws.cache_clear()
        draws = kernels.sample_gains(seed, pad * n, n)
        assert draws.__array_interface__["data"][0] % 64 == 0
        for code in (kernels.OMA_CODE, kernels.COMP_VPNOMA_CODE):
            rates = kernels.scheme_rates(
                draws, code, params.alpha, params.beta, params.rho,
                params.upsilon, params.band_fractions, stats.eps_sums,
                stats.sigma_hat)
            assert rates.__array_interface__["data"][0] % 64 == 0


def _traced_peak(call):
    """(result, peak bytes traced while call() ran); numpy reports its buffers."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [576, 1696, 2000, 8192])
def test_kernels_allocate_one_block_of_scratch(n):
    """Peak memory of one kernel call, in float64 rows of n trials.

    Allowed: the call's output; one six-link scratch (for the draw kernel its
    uint64 block, for the rate kernel the six SINR denominators); one 3-row
    temporary; the buffers numpy's iterator may take for a broadcast (6, 1)
    column, at most two of min(bufsize, 6n) elements; 4 KiB of small
    objects. A temporary that spans all 18 links of the chunk breaks it. A
    repeated draw of a block shorter than a chunk allocates under 4 KiB, and
    a rate-kernel call that short takes no iterator buffers at all.
    """
    kernels._short_draws.cache_clear()
    stats, params, seed = _rate_case("uneven")
    band = params.band_fractions
    eps_sums = stats.eps_sums
    row = 8 * n
    slack = 2 * min(np.getbufsize(), 6 * n) * 8 + 4096

    draws, peak = _traced_peak(lambda: kernels.sample_gains(seed, 7 * n, n))
    assert peak < (kernels.N_LINKS + 6 + 3) * row + slack, peak / row
    if n < kernels.CHUNK_TRIALS:
        again, peak = _traced_peak(
            lambda: kernels.sample_gains(seed, 7 * n, n))
        assert again is draws
        assert peak < 4096, peak
    rate_slack = 4096 if n < kernels.CHUNK_TRIALS else slack
    for code in (kernels.OMA_CODE, kernels.NOMA_CODE, kernels.VPNOMA_CODE,
                 kernels.COMP_VPNOMA_CODE):
        _, peak = _traced_peak(lambda: kernels.scheme_rates(
            draws, code, params.alpha, params.beta, params.rho,
            params.upsilon, band, eps_sums, stats.sigma_hat))
        assert peak < (kernels.N_USERS + 6 + 3) * row + rate_slack, \
            (code, peak / row)
