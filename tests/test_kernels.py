import ctypes
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from comp_noma import (LinkStatistics, SchemeId, SystemParams, build_layout,
                       db_to_linear, derive_link_statistics, estimate_esc)
from comp_noma import analytic, kernels
from oracles import (PIN_SAMPLES, assert_pinned, kernel_gains,
                     link_statistics, per_link, pin_sample, rates_reference)
from test_analytic import CLOSED_FORM_INPUTS


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

    Allowed: the call's output and 4 KiB of small objects. The numpy draw
    stage may also take its six-link uint64 scratch block, one 3-row
    temporary, and the buffers numpy's iterator may take for a broadcast
    (6, 1) column, at most two of min(bufsize, 6n) elements; a temporary
    that spans all 18 links of the chunk breaks it. The numpy rate stage
    makes no broadcast and may take six rows of one user's temporaries
    beside its (6, n) output, the compiled rate stage that output alone,
    and a repeated draw of the block the draw kernel holds under 4 KiB.
    """
    stats, params, seed = _rate_case("uneven")
    row = 8 * n
    small = 4096

    draws, peak = _traced_peak(lambda: kernels.sample_gains(seed, 7 * n, n))
    assert peak < _draw_bound(n), peak / row
    again, peak = _traced_peak(lambda: kernels.sample_gains(seed, 7 * n, n))
    assert again is draws
    assert peak < small, peak
    for stage in {kernels._sinr, kernels._numpy_sinr}:
        monkeypatch.setattr(kernels, "_sinr", stage)
        scratch = 6 * row if stage is kernels._numpy_sinr else 0
        for code in (kernels.OMA_CODE, kernels.NOMA_CODE, kernels.VPNOMA_CODE,
                     kernels.COMP_VPNOMA_CODE):
            _, peak = _traced_peak(lambda: kernels.scheme_rates(
                draws, code, params, stats))
            assert peak < kernels.N_USERS * row + scratch + small, \
                (stage.__name__, code, peak / row)


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
    serving gain dwarfs the interference by many orders of magnitude. CoMP
    forms its near users' rates as VP-NOMA does, to the byte."""
    stats, params = _generated_point(**point)
    n = 64
    draws = kernels.sample_gains(seed, 0, n)
    gains = kernel_gains(seed, 0, n, stats.sigma_hat)
    rates = [kernels.scheme_rates(draws, code, params, stats)
             for code in range(4)]
    for code in range(4):
        np.testing.assert_allclose(
            rates[code], rates_reference(gains, code, params, stats),
            rtol=5e-13, atol=0.0, err_msg=f"scheme code {code}")
    near = slice(0, kernels.N_BS)
    assert rates[kernels.COMP_VPNOMA_CODE].T[near].tobytes() \
        == rates[kernels.VPNOMA_CODE].T[near].tobytes()


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


# the input a second call changes -> the scheme codes whose far users'
# SINRs read it. A far user's SINR reads its own three links, its σ_ε sum
# and ρ, and α (β follows from it) unless the scheme is OMA, code 0; never
# υ or a near user.
_VARIANTS = {
    "near radius": (), "near-link sigma_eps": (), "upsilon": (),
    "far radius": range(4), "far-link sigma_eps": range(4),
    "far-link sigma_eps, sigma_hat kept": range(4), "alpha": range(1, 4),
    "rho": range(4), "scheme": range(4), "block": range(4),
}


@pytest.mark.parametrize("code", range(4))
@pytest.mark.parametrize("name", list(_VARIANTS))
def test_a_change_to_a_far_input_misses_the_held_far_rates(name, code):
    """After a call of the "uneven" case, a second call that changes one
    input gives the far users' rate rows of the first, to the byte, exactly
    when the scheme's far users' SINRs do not read that input."""
    stats, params, seed = _rate_case("uneven")
    first = kernels.scheme_rates(kernels.sample_gains(seed, 0, 576), code,
                                 params, stats)
    seed, changed_code, stats, params = _variant(name, code)
    second = kernels.scheme_rates(kernels.sample_gains(seed, 0, 576),
                                  changed_code, params, stats)
    far = slice(kernels.N_BS, kernels.N_USERS)
    assert (first.T[far].tobytes() == second.T[far].tobytes()) \
        == (code not in _VARIANTS[name])


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
    bytes of _numpy_sinr for every scheme."""
    assert kernels.active_backend() == "numpy+c"
    _assert_numpy_sinr_bytes(kernels._sinr, n, seed, point)


def _assert_numpy_sinr_bytes(sinr, n, seed, point):
    """sinr gives _numpy_sinr's bytes on n trials of a generated point, for
    every scheme."""
    stats, params = _generated_point(**point)
    draws = kernels._draws(seed, 0, n)
    arrays, scalars = kernels._sinr_inputs(draws, params, stats)
    for code in range(4):
        c = np.empty((kernels.N_USERS, n))
        reference = np.empty((kernels.N_USERS, n))
        sinr(c, *arrays, code, *scalars)
        kernels._numpy_sinr(reference, *arrays, code, *scalars)
        assert c.tobytes() == reference.tobytes(), code


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


def _assert_python_rates_bytes(rates, stats, params):
    """The closed-form rate stage rates gives the bytes of the Python
    statements at one point, or defers where they raise."""
    inputs = (stats.sigma_hat, stats.eps_sums, params.alpha, params.beta,
              params.rho, params.upsilon)
    try:
        reference = analytic._python_user_rates(*inputs)
    except (ArithmeticError, ValueError):
        assert rates(*inputs) is None
        return
    c = rates(*inputs)
    assert c is not None
    assert np.array(c).tobytes() == np.array(reference).tobytes()


@pytest.fixture(scope="module")
def one_target_stages(tmp_path_factory):
    """{level: (uniforms, sinr, rates)} of libraries built from _kernels.c
    with the clones compiled out, for each x86-64 level that this CPU runs,
    each after it gave its twins' bytes on _SELF_CHECK and
    _CHECK_RATES_POINTS (_checked_stages), and its rates the Python
    statements' on all 303 CLOSED_FORM_INPUTS: the radius, SNR and alpha
    grids, random layouts and the rates the spread moves twice."""
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
        assert checked[3] == "default", level
        for group, inputs in CLOSED_FORM_INPUTS.items():
            for stats, params in inputs:
                _assert_python_rates_bytes(checked[2], stats, params)
        stages[level] = checked[:3]
    return stages


@_cc_builds_clones
@pytest.mark.parametrize("level", _LEVELS)
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(block=st.fixed_dictionaries(_blocks), n=_rate_lengths, **_generated)
def test_every_clone_level_gives_the_numpy_stages_bytes(
        one_target_stages, level, block, n, seed, **point):
    """The load-time check runs only the clone that the loader picks, so
    each level is built alone and run where this CPU can: its uniforms on
    the blocks of test_c_uniforms_are_the_numpy_stages_bit_for_bit, its
    1 + SINR on the points of
    test_the_compiled_sinr_pass_gives_the_numpy_kernels_bytes, for every
    scheme, and its closed-form rates on the same points, with per-cell
    radii (one_target_stages has compared them on CLOSED_FORM_INPUTS)."""
    if level not in one_target_stages:
        pytest.skip(f"this CPU does not run {level}")
    uniforms, sinr, rates = one_target_stages[level]
    seed_start_n = block["seed"], block["start"], block["n"]
    assert uniforms(*seed_start_n).tobytes() \
        == kernels._numpy_uniforms(*seed_start_n).tobytes()
    _assert_numpy_sinr_bytes(sinr, n, seed, point)
    _assert_python_rates_bytes(rates, *_generated_point(**point))


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
                         "comp_noma_user_rates", "comp_noma_isa")})
    return loaded


def _fail_the_self_check(monkeypatch, tmp_path):
    def zeros(address, seed, start, n):
        ctypes.memset(address, 0, 8 * kernels.N_LINKS * n)
    monkeypatch.setattr(ctypes, "CDLL", _with_wrong(comp_noma_uniforms=zeros))


def _fail_the_sinr_check(monkeypatch, tmp_path):
    def constant(out, d, w, eps, code, *scalars_and_n):
        # every 1 + SINR about 4.8e-4: a wrong value whose log2 is finite
        ctypes.memset(out, 0x3F, 8 * kernels.N_USERS * scalars_and_n[-1])
    monkeypatch.setattr(ctypes, "CDLL", _with_wrong(comp_noma_sinr=constant))


def _fail_the_rates_check(monkeypatch, tmp_path):
    def zeros(out, *inputs):
        # out is a fresh ctypes array, so every rate reads 0, and no rate
        # of the Python statements at _CHECK_RATES_POINTS is 0
        return 0
    monkeypatch.setattr(ctypes, "CDLL", _with_wrong(comp_noma_user_rates=zeros))


@pytest.mark.parametrize("failure", [_fail_to_load, _fail_to_build,
                                     _fail_to_write, _fail_the_self_check,
                                     _fail_the_sinr_check,
                                     _fail_the_rates_check],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_a_c_stage_that_fails_leaves_the_numpy_stage_and_the_same_estimates(
        monkeypatch, tmp_path, default_stats, params_20db, failure):
    """Whichever stage fails, every stage falls back, and the estimates,
    the CoMP closed form (analytic_total) among them, keep their bits."""
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
    monkeypatch.setattr(kernels, "_rates", stages[2])
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
    assert stages[2] is not kernels._uncompiled_rates
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
int comp_noma_user_rates(void) { return 1; }
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
    monkeypatch.setattr(kernels, "_rates", stages[2])
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
