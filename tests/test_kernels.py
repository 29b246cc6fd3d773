import ctypes
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from comp_noma import (LinkStatistics, SchemeId, SystemParams, build_layout,
                       db_to_linear, derive_link_statistics, estimate_esc)
from comp_noma import kernels
from oracles import (PIN_SAMPLES, assert_pinned, kernel_gains,
                     link_statistics, per_link, pin_sample, rates_reference)


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


def _held_draws(seed, start, n):
    """The draws sample_gains holds for this block, or None."""
    held = kernels._held.get(n < kernels.CHUNK_TRIALS)
    if held is not None and held[0] == (seed, start, n):
        return held[1]
    return None


def _far_rates():
    """The far rates the held short block keeps, by scheme code."""
    return kernels._held[True][2]


def test_the_last_full_block_is_kept_and_never_displaces_the_short_one(
        drawn):
    chunk = kernels.CHUNK_TRIALS
    tail = kernels.sample_gains(3, 2 * chunk, 2000)
    assert kernels.sample_gains(3, 2 * chunk, 2000) is tail
    first = kernels.sample_gains(3, 0, chunk)
    assert kernels.sample_gains(3, 0, chunk) is first
    assert _held_draws(3, 0, chunk) is first
    assert _held_draws(3, 2 * chunk, 2000) is tail
    # any other full block is drawn afresh, and is then the one kept
    full_keys = ((3, chunk, chunk), (4, 0, chunk), (3, 1, chunk),
                 (3, 0, chunk + 1), (3, 0, 3 * chunk))
    for key in full_keys:
        other = kernels.sample_gains(*key)
        assert _held_draws(3, 0, chunk) is None
        assert kernels.sample_gains(*key) is other
        assert kernels.sample_gains(3, 2 * chunk, 2000) is tail
    redrawn = kernels.sample_gains(3, 0, chunk)
    assert redrawn is not first
    assert np.array_equal(redrawn, first)
    short_keys = ((4, 2 * chunk, 2000), (3, 2 * chunk + 1, 2000),
                  (3, 2 * chunk, 1999))
    for key in short_keys:
        other = kernels.sample_gains(*key)
        assert other is not tail
        assert _held_draws(3, 2 * chunk, 2000) is None
        assert kernels.sample_gains(*key) is other
        assert kernels.sample_gains(3, 0, chunk) is redrawn
    again = kernels.sample_gains(3, 2 * chunk, 2000)
    assert again is not tail
    assert np.array_equal(again, tail)
    # of 30 calls, only the misses drew: 5 short blocks and 7 full ones
    assert drawn == [(3, 2 * chunk, 2000), (3, 0, chunk), *full_keys,
                     (3, 0, chunk), *short_keys, (3, 2 * chunk, 2000)]


def test_unit_interval_draws_are_strictly_inside():
    sigma = np.ones((3, 6))
    gains = kernel_gains(123, 0, 50_000, sigma)
    assert np.all(gains > 0.0)
    assert np.all(np.isfinite(gains))


# SHA-256 of the C-order bytes of kernel outputs. The gains were recorded
# from the kernels before their fused in-place rewrite; the rates again when
# the rate kernel began to form interference as the sum of the non-serving
# gains, and the "uneven" VP-NOMA and CoMP rates when the band split stopped
# being an input. A drawn gain or a rate that moves by one ulp changes its
# digest.
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
        "f2695dd842942068bf8532ea31749e16c39bdf072c4b2b7f14722f07a499148c",
        "f3fdfdcf238187eebb8d605b3d801961c7f08d90a037385b50c4377a671f0ce3",
        "9cf51a382d8a108c6e8636991abd5ca1e33c5493967af9bc547e84997a54858f",
    ),
    ("default", 1): (
        "202cd1de31e5889cb83fe9ae052bc1f0203b902103f0dd26cf91c3d58017250f",
        "68943b5881eb98e8664cc9db1b77f6755d25b44ccfdec79f0d59f06683d83bc8",
        "2481b65dd6632ebc8177931deee3478b6949d2eabd9cf2654a125509f65d21a3",
    ),
    ("default", 2): (
        "710690de09559f3998999af68e8cfa0c8e33353d213311213a40dc4d25149bf9",
        "621bd88c9f90c232cc9d5b26a5314ba5e2269d150f05ca4fc4f78fbca9c442fa",
        "32d5c33fdb25da74356319236c4f6616082ce4073d59c907b4c9b074d4c12cfe",
    ),
    ("default", 3): (
        "8b187b9913f4e4a767ec47828d0bfdc3eb94a8010936d05ce391100edb676df5",
        "e3e56fd490416e3392e1259bea33b718c9cbaabcf774199b8a32c1e2d9463936",
        "3854de0c99ecbea8258b4ad3d1bdd2dc2acfe5ab57c8c08c94e5f5d2c780979b",
    ),
    ("uneven", 0): (
        "90d0dac37d86690081f038fddbaa2a1a7d775c5bcde9cb2918c93f03209ca0db",
        "a170ff697d6a4bb1159f4df8adb9b51631e7adba5e00c00c1c4c2af745e7db7e",
        "538137a7febfd734494c0ed402bd26fda615c71631adf0dc94f08e5355e3eb08",
    ),
    ("uneven", 1): (
        "f96c054fe115564791a4b33569bca7761826c32a025f9a80c597838c9f67f17c",
        "5c66b52b16f49449d8afffb9505f0af77cce0279c89d0314fc823f0ceff4e5ff",
        "201c6c8662e04d3ecc0c4c377c96460b3a1fdc1dae8bda2749531187e0e61e22",
    ),
    ("uneven", 2): (
        "4086ec3cf8a2e434d564a9df3906d4f93cb6bb47b54ed3d2c549b61e9fd834d1",
        "823a7f4af254f5ee4db49e0a7c692251494ae28f5124db9156c4de819910f0bb",
        "32f635f7056f05a321702774b1db139bd55213173c89ecf98ea953d1124b412f",
    ),
    ("uneven", 3): (
        "bc540211058b60c3d4bce42eaa4e498e4e19ef5560e3ed6420531f6b13cb4e05",
        "28d4e26511cea28d544b7c86362c2508873eb39219ea12b5e993d9b710406de2",
        "9d89af66e246f0339966f7781b0a89b5837a1a5829975d17f746b093b253ea9a",
    ),
}


def _uneven_stats(near=(0.3, 0.5, 0.7), far=(0.8, 0.95, 0.9), links=()):
    """The "uneven" case's link statistics, with the given radii and with
    the σ_ε of the (BS, user) links in links changed to 0.002."""
    eps = {(1, "A"): 0.004, (3, "2"): 0.0}
    eps.update(dict.fromkeys(links, 0.002))
    return link_statistics(build_layout(near, far), 3.5, per_link(0.001, eps))


def _rate_case(name):
    """(stats, params, gains seed) of a digest case's layout."""
    if name == "default":
        stats = derive_link_statistics(
            build_layout((0.5,) * 3, (0.95,) * 3), 4.0, 0.001)
        return stats, SystemParams(alpha=0.1, upsilon=0.01), 1
    return _uneven_stats(), SystemParams(alpha=0.07, upsilon=0.03), 2


@pytest.mark.parametrize("seed, start, n", sorted(GAINS_DIGESTS))
def test_gains_are_bit_exact(default_stats, seed, start, n):
    gains = kernel_gains(seed, start, n, default_stats.sigma_hat)
    assert gains.shape == (n, kernels.N_BS, kernels.N_USERS)
    assert_pinned(gains, GAINS_DIGESTS[(seed, start, n)])


@pytest.mark.parametrize("name, code", sorted(RATES_DIGESTS))
def test_rates_are_bit_exact_in_any_gains_layout(name, code):
    stats, params, seed = _rate_case(name)
    draws = kernels.sample_gains(seed, 0, kernels.CHUNK_TRIALS)
    for rho, expected in zip(RATE_RHOS, RATES_DIGESTS[(name, code)]):
        at_rho = dataclasses.replace(params, rho=rho)
        for layout in (draws, np.ascontiguousarray(draws)):
            rates = kernels.scheme_rates(layout, code, at_rho, stats)
            assert rates.shape == (kernels.CHUNK_TRIALS, kernels.N_USERS)
            assert_pinned(rates, expected, (name, code, rho))


# SHA-256 of the "uneven" case's rates at the three RATE_RHOS, one digest per
# scheme code, for calls shorter than a chunk; first recorded from the kernel
# before it bounded numpy's ufunc buffer on such calls, again when it began
# to form interference as the sum of the non-serving gains, and the VP-NOMA
# and CoMP ones when the band split stopped being an input.
SHORT_RATES_DIGESTS = {
    1: (
        "086fd948d3fed9ec58a19691597435b1cacc471cc92efb8dba318daec6148345",
        "6c9bca0042c8993931e3a2e987fed39309e96dfac217f0ae02ebe2d51f2efce1",
        "b37d7466dd6d14377f3a5c4dac6d03b21526b00ad0f450ef5a458b54edef3f02",
        "0b19009eda3609c33a6b37557ffa281c1b11b7456a5395491bfece1900320b7c",
    ),
    576: (
        "ade1678b582495033f84ee171bd3cf04dc4540ac1bb47718691ea201c84d4c89",
        "d849c219fe2db4096d8ab73d06025e609189eeafb79057f28e1eba34384c51f3",
        "fe8111d26a240a2d04962f881f2eba34f78f4726ac3119bc480efa3557d34cdf",
        "351d1713ea78e968f3442fa4f43793f69055108ebd96a0f007b40bb5f7575d3c",
    ),
    1696: (
        "01e93df04634125074797f71b539c4b1368158205c194262d7e78bf6cb4925a2",
        "b62ed0410103b2cb7e66be68c795321d947d741dd38455129397bca62792f9fa",
        "21b996ebac53f1f040e8d78b96cc303ed7dc31a6c8350f986141503700d16acf",
        "0db9a4f3101c63d84bf2b70e2a0fcea00b3a77af474a2e53caec9faa40cdfcbd",
    ),
    2000: (
        "0e8923e29786ed0d8b4e97fd610c76db55bae6c41401540eb5423f90f0fe2127",
        "596ad3f9ad79ea83e9cb31604f8d64117346827080ed5efce19eb76bcf4966ab",
        "d9c16e1ecc7489da0a8efb54a59cdb7b6b4ea3171be47e4ac9e14386d31a30c1",
        "21bb293361a63fff3e76431290fba56d09e12f5884da49d6a73d3a7bc3a648c6",
    ),
}


@pytest.mark.parametrize("n", sorted(SHORT_RATES_DIGESTS))
def test_short_chunk_rates_are_bit_exact(n):
    stats, params, seed = _rate_case("uneven")
    draws = kernels.sample_gains(seed, 0, n)
    for code, expected in enumerate(SHORT_RATES_DIGESTS[n]):
        rates = [kernels.scheme_rates(
            draws, code, dataclasses.replace(params, rho=rho), stats)
            for rho in RATE_RHOS]
        assert_pinned(np.concatenate(rates), expected, (n, code))


def test_a_failing_pin_reports_its_change_and_its_sample(default_stats):
    """A pin that fails says how many of its sampled values moved and by
    how many ulps, and gives the sample to keep with a renewed digest.
    Every sample kept belongs to a digest that a test pins."""
    key = sorted(GAINS_DIGESTS)[0]
    gains = kernel_gains(*key, default_stats.sigma_hat)
    gains.flat[0] = np.nextafter(gains.flat[0], np.inf)
    with pytest.raises(AssertionError) as failure:
        assert_pinned(gains, GAINS_DIGESTS[key])
    assert "1 of the 64 sampled values changed, the largest by 1 ulps" \
        in str(failure.value)
    assert str(failure.value).endswith(f": {pin_sample(gains)}")
    pins = "".join(Path(__file__).with_name(name).read_text()
                   for name in ("test_kernels.py", "test_analytic.py"))
    assert [digest for digest in json.loads(PIN_SAMPLES.read_text())
            if digest not in pins] == []


@pytest.mark.parametrize("n", [576, 1696, 2000, 8192])
def test_kernel_outputs_start_on_64_byte_boundaries(n):
    """Draws and rates start on a cache line, wherever the heap stands."""
    stats, params, seed = _rate_case("uneven")
    held = []
    for pad in (1, 2, 3, 5, 8):
        # move the heap between calls by a few 16-byte steps
        held.append(np.empty(pad * 2))
        draws = kernels.sample_gains(seed, pad * n, n)
        assert draws.__array_interface__["data"][0] % 64 == 0
        for code in (kernels.OMA_CODE, kernels.COMP_VPNOMA_CODE):
            rates = kernels.scheme_rates(draws, code, params, stats)
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


def _draw_bound(n):
    """Bytes a draw of n trials may allocate, as in the docstring below."""
    return ((kernels.N_LINKS + 6 + 3) * 8 * n
            + 2 * min(np.getbufsize(), 6 * n) * 8 + 4096)


_block = st.tuples(st.integers(0, 1),
                   st.sampled_from([0, 576, kernels.CHUNK_TRIALS]),
                   st.sampled_from([1, 576, 2000, kernels.CHUNK_TRIALS - 1,
                                    kernels.CHUNK_TRIALS]))


# without the explain phase, whose line tracer allocates inside the traced
# calls
@settings(derandomize=True, deadline=None, database=None, max_examples=60,
          phases=(Phase.generate, Phase.shrink))
@given(requests=st.lists(_block, min_size=1, max_size=8))
def test_held_blocks_equal_fresh_draws_and_a_miss_frees_its_class(requests):
    """Across both size classes, every block sample_gains returns equals a
    fresh draw, and a repeat of the last block of its class is that block.
    A miss drops its class's held block before it draws, so the peak rises
    by at most one fresh draw less the block it frees."""
    kernels._held.clear()
    tracemalloc.start()
    try:
        for seed, start, n in requests:
            hit = _held_draws(seed, start, n)
            held = kernels._held.get(n < kernels.CHUNK_TRIALS)
            freed = 0 if hit is not None or held is None \
                else 8 * kernels.N_LINKS * held[0][2]
            del held
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            draws = kernels.sample_gains(seed, start, n)
            rise = tracemalloc.get_traced_memory()[1] - base
            if hit is not None:
                assert draws is hit
                assert rise < 4096, rise
            else:
                assert rise <= max(_draw_bound(n) - freed, 4096), \
                    (n, freed, rise)
            assert _held_draws(seed, start, n) is draws
            assert np.array_equal(draws, kernels._draws(seed, start, n))
            del draws, hit
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [576, 1696, 2000, 8192])
def test_kernels_allocate_one_block_of_scratch(monkeypatch, n):
    """Peak memory of one kernel call, in float64 rows of n trials.

    Allowed: the call's output; 4 KiB of small objects; for a rate-kernel
    call that misses the far rows of the held short block, the three far
    rows it then keeps. The numpy draw stage may also take its six-link
    uint64 scratch block, one 3-row temporary, and the buffers numpy's
    iterator may take for a broadcast (6, 1) column, at most two of
    min(bufsize, 6n) elements; a temporary that spans all 18 links of the
    chunk breaks it. The numpy rate stage makes no broadcast and may take
    six rows of one user's temporaries beside its (6, n) output, the
    compiled rate stage that output alone, and a repeated draw of the
    block the draw kernel holds under 4 KiB.
    """
    stats, params, seed = _rate_case("uneven")
    row = 8 * n
    small = 4096

    draws, peak = _traced_peak(lambda: kernels.sample_gains(seed, 7 * n, n))
    assert peak < _draw_bound(n), peak / row
    again, peak = _traced_peak(lambda: kernels.sample_gains(seed, 7 * n, n))
    assert again is draws
    assert peak < small, peak
    kept = 3 * row if n < kernels.CHUNK_TRIALS else 0
    for stage in {kernels._sinr, kernels._numpy_sinr}:
        monkeypatch.setattr(kernels, "_sinr", stage)
        scratch = 6 * row if stage is kernels._numpy_sinr else 0
        for code in (kernels.OMA_CODE, kernels.NOMA_CODE, kernels.VPNOMA_CODE,
                     kernels.COMP_VPNOMA_CODE):
            if kept:
                _far_rates().clear()
            # a miss of the held far rows keeps them, and a repeat hits
            for extra in (kept, 0):
                _, peak = _traced_peak(lambda: kernels.scheme_rates(
                    draws, code, params, stats))
                assert peak < kernels.N_USERS * row + extra + scratch + small, \
                    (stage.__name__, code, extra, peak / row)


_radius = st.floats(1e-5, 1.0)


# a generated layout, σ_ε per link, path-loss exponent, point and block seed
_generated = dict(near=st.tuples(_radius, _radius, _radius),
                  far=st.tuples(_radius, _radius, _radius),
                  sigma_eps=st.lists(st.floats(0.0, 0.01), min_size=18,
                                     max_size=18),
                  exponent=st.floats(2.0, 6.0),
                  alpha=st.floats(1e-3, 0.249),
                  rho_db=st.floats(-10.0, 40.0),
                  upsilon=st.floats(0.0, 0.1),
                  seed=st.integers(0, 2**64 - 1))


def _generated_point(near, far, sigma_eps, exponent, alpha, rho_db, upsilon):
    """(stats, params) of a generated layout and point."""
    # every link's mean power d^-v is at least 3^-3 > 0.01, the largest σ_ε
    stats = link_statistics(build_layout(near, far), exponent,
                            np.reshape(sigma_eps, (3, 6)))
    params = SystemParams(alpha=alpha, rho=db_to_linear(rho_db),
                          upsilon=upsilon)
    return stats, params


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(**_generated)
def test_rates_match_the_printed_formulas_on_generated_inputs(seed, **point):
    """Every scheme's rates equal rates_reference per draw, down to users a
    hundred thousandth of the cell radius from their base station, where a
    serving gain dwarfs the interference by many orders of magnitude."""
    stats, params = _generated_point(**point)
    n = 64
    draws = kernels.sample_gains(seed, 0, n)
    gains = kernel_gains(seed, 0, n, stats.sigma_hat)
    for code in range(4):
        np.testing.assert_allclose(
            kernels.scheme_rates(draws, code, params, stats),
            rates_reference(gains, code, params, stats), rtol=5e-13, atol=0.0,
            err_msg=f"scheme code {code}")


def _rates_bits(draws, code, params, stats):
    """The bytes of a rate-kernel call on the held short block and of the
    same call made with its far rates empty; they are left as the first
    call left them."""
    rates = kernels.scheme_rates(draws, code, params, stats).tobytes()
    far = _far_rates()
    memo = dict(far)
    far.clear()
    fresh = kernels.scheme_rates(draws, code, params, stats).tobytes()
    far.clear()
    far.update(memo)
    return rates, fresh


_eps9 = st.lists(st.floats(0.0, 0.01), min_size=9, max_size=9)
# what the far users' rates read, and what only the near users' read
_far_inputs = st.tuples(st.tuples(_radius, _radius, _radius), _eps9,
                        st.floats(2.0, 6.0), st.floats(1e-3, 0.249),
                        st.floats(-10.0, 40.0))
_near_inputs = st.tuples(st.tuples(_radius, _radius, _radius), _eps9,
                         st.floats(0.0, 0.1))
# which far inputs a step keeps: all of them, all but one, or any subset
_keeps = st.one_of(
    st.just((True,) * 5),
    st.sampled_from([tuple(j != i for j in range(5)) for i in range(5)]),
    st.tuples(*[st.booleans()] * 5))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(seed=st.integers(0, 2**64 - 1),
       n=st.sampled_from([1, 576, 1696, 2000, kernels.CHUNK_TRIALS - 1]),
       first=_far_inputs,
       steps=st.lists(st.tuples(_keeps, _near_inputs, _far_inputs),
                      min_size=1, max_size=6))
def test_held_far_rates_give_the_rates_of_an_empty_memo(seed, n, first,
                                                        steps):
    """Over a sequence of steps on the held short block, each keeping the
    far users' inputs or changing some of them and calling every scheme,
    each result is bit-identical to the same call made with the far-rate
    memo empty, and a step that keeps every far input takes the held far
    rows."""
    kernels._held.clear()
    draws = kernels.sample_gains(seed, 0, n)
    far = first
    for step, (keeps, (near, near_eps, upsilon), changed) in enumerate(steps):
        far = tuple(old if keep else new
                    for old, keep, new in zip(far, keeps, changed))
        radii, far_eps, exponent, alpha, rho_db = far
        eps = np.hstack([np.reshape(near_eps, (3, 3)),
                         np.reshape(far_eps, (3, 3))])
        stats = link_statistics(build_layout(near, radii), exponent, eps)
        params = SystemParams(alpha=alpha, rho=db_to_linear(rho_db),
                              upsilon=upsilon)
        for code in range(4):
            held = _far_rates().get(code)
            rates, fresh = _rates_bits(draws, code, params, stats)
            assert rates == fresh, (code, keeps)
            if step and all(keeps):
                assert _far_rates()[code] is held


def _variant(name, code):
    """(block seed, scheme code, stats, params) of a call that changes one
    input of the "uneven" case's call of scheme code on block seed 2."""
    stats, params, seed = _rate_case("uneven")
    change = dataclasses.replace
    if name == "near radius":
        stats = _uneven_stats(near=(0.3, 0.55, 0.7))
    elif name == "near-link sigma_eps":
        stats = _uneven_stats(links=[(2, "1")])
    elif name == "upsilon":
        params = change(params, upsilon=0.05)
    elif name == "far radius":
        stats = _uneven_stats(far=(0.8, 0.96, 0.9))
    elif name == "far-link sigma_eps":
        stats = _uneven_stats(links=[(2, "B")])
    elif name == "far-link sigma_eps, sigma_hat kept":
        # only the far user's σ_ε sum moves
        eps = stats.sigma_eps.copy()
        eps[1, 4] = 0.002
        stats = LinkStatistics(stats.sigma_hat, eps)
    elif name == "alpha":
        params = change(params, alpha=0.08)
    elif name == "rho":
        params = change(params, rho=11.0)
    elif name == "scheme":
        code = (code + 1) % 4
    else:
        assert name == "block"
        seed += 1
    return seed, code, stats, params


_FAR_KEY_CASES = {  # the input a second call changes -> whether it hits
    "near radius": True, "near-link sigma_eps": True, "upsilon": True,
    "far radius": False, "far-link sigma_eps": False,
    "far-link sigma_eps, sigma_hat kept": False, "alpha": False,
    "rho": False, "scheme": False, "block": False,
}


@pytest.mark.parametrize("code", range(4))
@pytest.mark.parametrize("name", list(_FAR_KEY_CASES))
def test_a_change_to_a_far_input_misses_the_held_far_rates(
        far_lookups, name, code):
    """After a call of the "uneven" case on the held short block, a second
    call that changes one input takes the held far rows exactly when the
    far users' rates do not read that input, and gives the rates of an
    empty memo either way."""
    stats, params, seed = _rate_case("uneven")
    kernels.scheme_rates(kernels.sample_gains(seed, 0, 576), code, params,
                         stats)
    seed, code, stats, params = _variant(name, code)
    rates, fresh = _rates_bits(kernels.sample_gains(seed, 0, 576), code,
                               params, stats)
    # the third lookup is the empty memo's
    assert far_lookups == [False, _FAR_KEY_CASES[name], False]
    assert rates == fresh


def test_held_far_rates_are_three_rows_that_hold_no_draws(far_lookups):
    """The held short block keeps, per scheme, the far users' three rows of
    its last call in memory of their own, read-only, under a key that holds
    no array; full chunks and arrays other than the held short block never
    consult them, and the next short block drawn frees them."""
    stats, params, seed = _rate_case("uneven")
    draws = kernels.sample_gains(seed, 0, 2000)
    for code in range(4):
        rates = kernels.scheme_rates(draws, code, params, stats)
        key, rows = _far_rates()[code]
        assert not any(isinstance(field, np.ndarray) for field in key)
        assert rows.base is None and not rows.flags.writeable
        assert np.array_equal(rows, rates.T[kernels.N_BS:])
    held = dict(_far_rates())
    kernels.scheme_rates(np.ascontiguousarray(draws), 3, params, stats)
    kernels.scheme_rates(kernels.sample_gains(seed, 0, kernels.CHUNK_TRIALS),
                         3, params, stats)
    assert far_lookups == [False] * 4
    assert _far_rates() == held
    assert all(_far_rates()[code] is held[code] for code in range(4))
    freed = [weakref.ref(rows) for _, rows in held.values()]
    del held, rows, rates, draws
    kernels.sample_gains(seed + 1, 0, 2000)
    assert _far_rates() == {}
    assert [ref() for ref in freed] == [None] * 4


def test_threads_that_share_the_far_rate_memo_get_the_rates_of_an_empty_memo():
    """Four threads call every scheme on the held short block at three
    inputs, one a far input, with a 1 µs switch interval; each result
    equals the same call made with the block's far rates empty."""
    stats, params, seed = _rate_case("uneven")
    draws = kernels.sample_gains(seed, 0, 576)
    cases = [(code, case_params) for code in range(4)
             for case_params in (params, dataclasses.replace(params, rho=11.0),
                                 dataclasses.replace(params, upsilon=0.05))]
    expected = []
    for code, case_params in cases:
        _far_rates().clear()
        expected.append(kernels.scheme_rates(draws, code, case_params,
                                             stats).tobytes())
    _far_rates().clear()

    def call(code, case_params):
        return kernels.scheme_rates(draws, code, case_params, stats).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(call, *case) for _ in range(20)
                       for case in cases]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == expected * 20


# With a compiler on the path the C stage must build, load and pass its
# self-check; without one the numpy stage is the only path.
_needs_c_stage = pytest.mark.skipif(shutil.which("cc") is None,
                                    reason="no C compiler on this host")
# trials whose counter trial * 18 wraps mod 2**64 start at _WRAP
_WRAP = 2**64 // kernels.N_LINKS + 1


# uniform blocks of either stage: seeds, starts whose trial counters wrap,
# and lengths with and without a tail
_blocks = dict(
    seed=st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
    start=st.sampled_from([0, _WRAP - 1, _WRAP])
    | st.integers(0, 2**40).map(lambda k: k * kernels.CHUNK_TRIALS)
    | st.integers(_WRAP - kernels.CHUNK_TRIALS, 2**64 - 2**14),
    n=st.sampled_from([1, 576, 1696, 2000, 8191, 8192]))
_rate_lengths = st.sampled_from([1, 37, 576, 2000, kernels.CHUNK_TRIALS])


@_needs_c_stage
@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(**_blocks)
def test_c_uniforms_are_the_numpy_stages_bit_for_bit(seed, start, n):
    assert kernels.active_backend() == "numpy+c"
    c = kernels._uniforms(seed, start, n)
    reference = kernels._numpy_uniforms(seed, start, n)
    assert c.shape == reference.shape == (kernels.N_LINKS, n)
    assert c.ctypes.data % 64 == 0
    assert np.array_equal(c.view(np.uint64), reference.view(np.uint64))


@_needs_c_stage
@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(n=_rate_lengths, **_generated)
def test_the_compiled_sinr_pass_gives_the_numpy_kernels_bytes(n, seed,
                                                              **point):
    """On generated layouts and points, the compiled rate stage gives the
    bytes of _numpy_sinr for every scheme, for all six users and for the
    three near users that a call beside held far rows forms."""
    assert kernels.active_backend() == "numpy+c"
    _assert_numpy_sinr_bytes(kernels._sinr, n, seed, point)


def _assert_numpy_sinr_bytes(sinr, n, seed, point):
    """sinr gives _numpy_sinr's bytes on n trials of a generated point, for
    every scheme, for six users and for three."""
    stats, params = _generated_point(**point)
    draws = kernels._draws(seed, 0, n)
    arrays, scalars = kernels._sinr_inputs(draws, params, stats)
    for code in range(4):
        for users in (kernels.N_USERS, kernels.N_BS):
            c = np.empty((kernels.N_USERS, n))
            reference = np.empty((kernels.N_USERS, n))
            sinr(c, *arrays, code, users, *scalars)
            kernels._numpy_sinr(reference, *arrays, code, users, *scalars)
            assert c[:users].tobytes() == reference[:users].tobytes(), \
                (code, users)


def _cc_macros():
    """{name: value} of the macros that cc predefines for C; empty without
    cc."""
    if shutil.which("cc") is None:
        return {}
    result = subprocess.run(["cc", "-dM", "-E", "-x", "c", os.devnull],
                            capture_output=True, text=True, timeout=60)
    return dict(line.split(" ", 2)[1:] for line in result.stdout.splitlines()
                if line.startswith("#define ") and line.count(" ") >= 2)


_CC = _cc_macros()
# _kernels.c's guard for its target clones
_cc_builds_clones = pytest.mark.skipif(
    "__x86_64__" not in _CC or "__clang__" in _CC
    or int(_CC.get("__GNUC__", 0)) < 12 or platform.libc_ver()[0] != "glibc",
    reason="cc builds no target clones here: not GCC 12+ on x86-64 glibc")
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:    # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
# numpy's names for the features that x86-64-v3 and v4 add, and those that
# each level needs
_V3 = ("AVX", "AVX2", "BMI", "BMI2", "F16C", "FMA3", "LZCNT", "MOVBE")
_V4 = ("AVX512F", "AVX512CD", "AVX512BW", "AVX512DQ", "AVX512VL")
_LEVELS = {"x86-64": (), "x86-64-v3": _V3, "x86-64-v4": _V3 + _V4}


def _cpu_runs(level):
    return all(__cpu_features__.get(name) for name in _LEVELS[level])


@_cc_builds_clones
@pytest.mark.skipif(not _cpu_runs("x86-64-v4"), reason="no AVX-512 here")
def test_the_loader_runs_the_x86_64_v4_clones_on_an_avx512_cpu():
    """A build that silently drops the clones would run the default ones."""
    assert kernels.active_backend() == "numpy+c"
    assert kernels.compiled_isa() == "x86-64-v4"


@pytest.fixture(scope="module")
def one_target_stages(tmp_path_factory):
    """{level: (uniforms, sinr)} of libraries built from _kernels.c with
    the clones compiled out, for each x86-64 level that this CPU runs, each
    after it gave the numpy stages' bytes on _SELF_CHECK (_checked_stages)."""
    build = tmp_path_factory.mktemp("levels")
    stages = {}
    for level in filter(_cpu_runs, _LEVELS):
        library = build / f"{level}.so"
        subprocess.run([*kernels._BUILD, "-DCOMP_NOMA_NO_CLONES",
                        f"-march={level}", "-o", str(library),
                        kernels._SOURCE], check=True, capture_output=True,
                       timeout=120)
        checked = kernels._checked_stages(str(library))
        assert checked is not None, level
        # the clones are compiled out, so no clone runs
        assert checked[2] == "default", level
        stages[level] = checked[:2]
    return stages


@_cc_builds_clones
@pytest.mark.parametrize("level", _LEVELS)
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(block=st.fixed_dictionaries(_blocks), n=_rate_lengths, **_generated)
def test_every_clone_level_gives_the_numpy_stages_bytes(
        one_target_stages, level, block, n, seed, **point):
    """The load-time check runs only the clone that the loader picks, so
    each level is built alone and run where this CPU can: its uniforms on
    the blocks of test_c_uniforms_are_the_numpy_stages_bit_for_bit, and its
    1 + SINR on the points of
    test_the_compiled_sinr_pass_gives_the_numpy_kernels_bytes, for every
    scheme with six and with three users."""
    if level not in one_target_stages:
        pytest.skip(f"this CPU does not run {level}")
    uniforms, sinr = one_target_stages[level]
    seed_start_n = block["seed"], block["start"], block["n"]
    assert uniforms(*seed_start_n).tobytes() \
        == kernels._numpy_uniforms(*seed_start_n).tobytes()
    _assert_numpy_sinr_bytes(sinr, n, seed, point)


def _fail_to_load(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise OSError("cannot load")
    monkeypatch.setattr(ctypes, "CDLL", refuse)


def _fail_to_build(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise subprocess.CalledProcessError(1, args[0])
    monkeypatch.setattr(subprocess, "run", refuse)


def _fail_to_write(monkeypatch, tmp_path):
    # a cache directory that cannot be made, as in a read-only package
    (tmp_path / "file").write_bytes(b"")
    monkeypatch.setattr(kernels, "_CACHE_DIR", str(tmp_path / "file" / "c"))


def _with_wrong(**functions):
    """A stand-in for ctypes.CDLL that loads the library and swaps in the
    given functions for its own."""
    load = ctypes.CDLL

    def loaded(path):
        library = load(path)
        return SimpleNamespace(**{
            name: functions.get(name, getattr(library, name))
            for name in ("comp_noma_uniforms", "comp_noma_sinr",
                         "comp_noma_isa")})
    return loaded


def _fail_the_self_check(monkeypatch, tmp_path):
    def zeros(address, seed, start, n):
        ctypes.memset(address, 0, 8 * kernels.N_LINKS * n)
    monkeypatch.setattr(ctypes, "CDLL", _with_wrong(comp_noma_uniforms=zeros))


def _fail_the_sinr_check(monkeypatch, tmp_path):
    def constant(out, d, w, eps, code, users, *scalars_and_n):
        # every 1 + SINR about 4.8e-4: a wrong value whose log2 is finite
        ctypes.memset(out, 0x3F, 8 * users * scalars_and_n[-1])
    monkeypatch.setattr(ctypes, "CDLL", _with_wrong(comp_noma_sinr=constant))


@pytest.mark.parametrize("failure", [_fail_to_load, _fail_to_build,
                                     _fail_to_write, _fail_the_self_check,
                                     _fail_the_sinr_check],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_a_c_stage_that_fails_leaves_the_numpy_stage_and_the_same_estimates(
        monkeypatch, tmp_path, default_stats, params_20db, failure):
    trials = 2 * kernels.CHUNK_TRIALS + 576
    expected = [estimate_esc(default_stats, params_20db, scheme, trials,
                             seed=11, workers=2) for scheme in SchemeId]
    with monkeypatch.context() as patched:
        # built, if at all, beside this test's files, not the package's
        patched.setattr(kernels, "_CACHE_DIR", str(tmp_path))
        failure(patched, tmp_path)
        stages = kernels._load_stages()
    assert stages == kernels._NUMPY_STAGES
    assert list(tmp_path.glob("*.tmp")) == []
    monkeypatch.setattr(kernels, "_uniforms", stages[0])
    monkeypatch.setattr(kernels, "_sinr", stages[1])
    assert kernels.active_backend() == "numpy"
    kernels._held.clear()
    for scheme, before in zip(SchemeId, expected):
        after = estimate_esc(default_stats, params_20db, scheme, trials,
                             seed=11, workers=2)
        for field in dataclasses.fields(before):
            assert getattr(after, field.name) == getattr(before, field.name), \
                (scheme, field.name)


@_needs_c_stage
def test_a_cache_miss_builds_one_library_under_its_own_name(monkeypatch,
                                                            tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    # libraries of another source, command or file name, and another build
    # in progress
    stale = {"_kernels-00000000.so", "_uniforms-00000000.so",
             "_kernels-00000000.failed"}
    for name in stale:
        (cache / name).write_bytes(b"stale")
    (cache / "_kernels-building.tmp").write_bytes(b"")
    monkeypatch.setattr(kernels, "_CACHE_DIR", str(cache))
    stages = kernels._load_stages()
    assert stages[0] is not kernels._numpy_uniforms
    assert stages[1] is not kernels._numpy_sinr
    # built under a temporary name and moved into place whole; the stale
    # libraries and failure marks are gone and the other build's file is
    # left alone
    names = {path.name for path in cache.iterdir()}
    assert "_kernels-building.tmp" in names, names
    built = sorted(names - {"_kernels-building.tmp"})
    assert built == [Path(kernels._library_path()).name], built
    assert built[0].startswith("_kernels-") and built[0].endswith(".so")
    assert not stale & names
    # a hit loads that library and compiles nothing
    monkeypatch.setattr(subprocess, "run", None)
    assert kernels._load_stages()[0] is not kernels._numpy_uniforms


@_needs_c_stage
def test_a_build_that_fails_its_check_is_not_tried_again(monkeypatch,
                                                         tmp_path):
    """A new library that fails its check leaves a mark of its name, so a
    later import with the same source and command compiles nothing."""
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setattr(kernels, "_CACHE_DIR", str(cache))
    _fail_the_self_check(monkeypatch, tmp_path)
    assert kernels._load_stages() == kernels._NUMPY_STAGES
    library = Path(kernels._library_path())
    assert [path.name for path in cache.iterdir()] \
        == [library.stem + ".failed"]
    monkeypatch.setattr(subprocess, "run", None)
    assert kernels._load_stages() == kernels._NUMPY_STAGES


# a library that loads but whose uniforms are all zero, so it fails its check
_WRONG_LIBRARY = """
#include <stdint.h>
#include <string.h>
void comp_noma_uniforms(double *out, uint64_t seed, uint64_t start, size_t n)
{ memset(out, 0, 8 * 18 * n); }
void comp_noma_sinr(void) {}
int comp_noma_isa(void) { return 0; }
"""


@_needs_c_stage
@pytest.mark.parametrize("planted", ["garbage", "a library that fails"])
def test_a_bad_cached_library_is_built_again(monkeypatch, tmp_path, planted):
    """A cached library that fails to load or to pass its check is removed
    and built once more, and then the C stages run."""
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setattr(kernels, "_CACHE_DIR", str(cache))
    library = Path(kernels._library_path())
    if planted == "garbage":
        library.write_bytes(b"not a shared library")
    else:
        source = tmp_path / "wrong.c"
        source.write_text(_WRONG_LIBRARY)
        subprocess.run([*kernels._BUILD, "-o", str(library), str(source)],
                       check=True, capture_output=True, timeout=120)
    planted_bytes = library.read_bytes()
    stages = kernels._load_stages()
    monkeypatch.setattr(kernels, "_uniforms", stages[0])
    monkeypatch.setattr(kernels, "_sinr", stages[1])
    assert kernels.active_backend() == "numpy+c"
    assert [path.name for path in cache.iterdir()] == [library.name]
    assert library.read_bytes() != planted_bytes
    # the rebuilt file passes its check; loaded under another name, since
    # this process has loaded the planted library from the cached one
    copy = tmp_path / "rebuilt.so"
    shutil.copy(library, copy)
    assert kernels._checked_stages(str(copy)) is not None


def _fresh_import(src, **env):
    """(backend, modules) that a fresh process importing comp_noma from src,
    with env over this one's environment, prints: active_backend() and
    which of the compiler and hashing modules it loaded."""
    probe = ("import sys, comp_noma\n"
             "from comp_noma import kernels\n"
             "print(kernels.active_backend())\n"
             "print(sorted({'subprocess', 'hashlib', 'sysconfig'}"
             " & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(src), **env}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120,
                            check=True)
    return tuple(result.stdout.splitlines())


def test_a_warm_import_loads_no_compiler_or_hashing_module():
    src = Path(kernels.__file__).resolve().parents[1]
    assert _fresh_import(src) == (kernels.active_backend(), "[]")


def test_an_import_with_no_compiler_runs_numpy_and_loads_no_subprocess(
        tmp_path):
    """With no cached library and no cc on PATH, which holds only a python3
    link, an import runs the numpy stages without starting a build."""
    package = Path(kernels.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "src" / package.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "python3").symlink_to(sys.executable)
    assert _fresh_import(tmp_path / "src", PATH=str(bin_dir)) \
        == ("numpy", "[]")
