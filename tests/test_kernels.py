import hashlib
import tracemalloc

import numpy as np
import pytest

from comp_noma import SystemParams, build_layout, derive_link_statistics
from comp_noma import kernels


def test_chunked_and_whole_stream_agree():
    sigma = np.linspace(0.2, 2.0, 18).reshape(3, 6)
    whole = kernels.sample_gains(5, 0, 3 * kernels.CHUNK_TRIALS, sigma)
    pieces = [kernels.sample_gains(5, i * kernels.CHUNK_TRIALS,
                                   kernels.CHUNK_TRIALS, sigma)
              for i in range(3)]
    assert np.array_equal(whole, np.concatenate(pieces))


def test_unit_interval_draws_are_strictly_inside():
    sigma = np.ones((3, 6))
    gains = kernels.sample_gains(123, 0, 50_000, sigma)
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
            build_layout(1.0, (0.5,) * 3, (0.95,) * 3), 4.0, 0.001)
        return stats, SystemParams(alpha=0.1, upsilon=0.01), 1
    stats = derive_link_statistics(
        build_layout(1.0, (0.3, 0.5, 0.7), (0.8, 0.95, 0.9)), 3.5, 0.001,
        overrides={(1, "A"): 0.004, (3, "2"): 0.0})
    params = SystemParams(alpha=0.07, upsilon=0.03,
                          band_fractions=(0.2, 0.3, 0.5))
    return stats, params, 2


@pytest.mark.parametrize("seed, start, n", sorted(GAINS_DIGESTS))
def test_gains_are_bit_exact(default_stats, seed, start, n):
    gains = kernels.sample_gains(seed, start, n, default_stats.sigma_hat)
    assert gains.shape == (n, kernels.N_BS, kernels.N_USERS)
    assert _digest(gains) == GAINS_DIGESTS[(seed, start, n)]


@pytest.mark.parametrize("name, code", sorted(RATES_DIGESTS))
def test_rates_are_bit_exact_in_any_gains_layout(name, code):
    stats, params, seed = _rate_case(name)
    gains = kernels.sample_gains(seed, 0, kernels.CHUNK_TRIALS,
                                 stats.sigma_hat)
    band = np.asarray(params.band_fractions)
    eps_sums = stats.sigma_eps.sum(axis=0)
    for rho, expected in zip(RATE_RHOS, RATES_DIGESTS[(name, code)]):
        for layout in (gains, np.ascontiguousarray(gains)):
            rates = kernels.scheme_rates(layout, code, params.alpha,
                                         params.beta, rho, params.upsilon,
                                         band, eps_sums)
            assert rates.shape == (kernels.CHUNK_TRIALS, kernels.N_USERS)
            assert _digest(rates) == expected, (name, code, rho)


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
    objects. A temporary that spans all 18 links of the chunk breaks it.
    """
    stats, params, seed = _rate_case("uneven")
    band = np.asarray(params.band_fractions)
    eps_sums = stats.sigma_eps.sum(axis=0)
    row = 8 * n
    slack = 2 * min(np.getbufsize(), 6 * n) * 8 + 4096

    gains, peak = _traced_peak(
        lambda: kernels.sample_gains(seed, 7 * n, n, stats.sigma_hat))
    assert peak < (kernels.N_LINKS + 6 + 3) * row + slack, peak / row
    for code in (kernels.OMA_CODE, kernels.NOMA_CODE, kernels.VPNOMA_CODE,
                 kernels.COMP_VPNOMA_CODE):
        _, peak = _traced_peak(lambda: kernels.scheme_rates(
            gains, code, params.alpha, params.beta, params.rho,
            params.upsilon, band, eps_sums))
        assert peak < (kernels.N_USERS + 6 + 3) * row + slack, (code, peak / row)
