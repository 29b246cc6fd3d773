import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comp_noma import (SchemeId, SystemParams, build_layout, db_to_linear,
                       derive_link_statistics, estimate_esc, total_esc_closed)
from comp_noma import kernels
from comp_noma.geometry import USERS
from oracles import gain_rates, kernel_gains


def test_single_trial_equals_instantaneous_rate(default_stats, params_20db):
    for scheme in SchemeId:
        estimate = estimate_esc(default_stats, params_20db,
                                scheme, trials=1, seed=17)
        gain = kernel_gains(17, 0, 1, default_stats.sigma_hat)[0]
        rates = gain_rates(gain, default_stats, params_20db, scheme)
        assert estimate.mean_total == rates.sum()
        assert estimate.ci95_halfwidth == 0.0


def test_zero_trials_rejected(default_stats, params_20db):
    with pytest.raises(ValueError, match="trials"):
        estimate_esc(default_stats, params_20db,
                     SchemeId.OMA, trials=0, seed=1)


def test_worker_count_does_not_change_results(default_stats, params_20db):
    serial = estimate_esc(default_stats, params_20db,
                          SchemeId.COMP_VPNOMA, trials=50_000, seed=3,
                          workers=1)
    threaded = estimate_esc(default_stats, params_20db,
                            SchemeId.COMP_VPNOMA, trials=50_000, seed=3,
                            workers=8)
    assert abs(threaded.mean_total - serial.mean_total) \
        <= 1e-9 * serial.mean_total
    for user in USERS:
        assert abs(threaded.per_user_mean[user] - serial.per_user_mean[user]) \
            <= 1e-9 * max(serial.per_user_mean[user], 1e-30)
    assert threaded.ci95_halfwidth == pytest.approx(serial.ci95_halfwidth,
                                                    rel=1e-9)


def radius_sweep_stats(radii=(0.3, 0.5, 0.7)):
    """Link statistics of a near-radius sweep: sigma_hat differs per point."""
    return [derive_link_statistics(build_layout((r,) * 3, (0.95,) * 3),
                                   4.0, 0.001) for r in radii]


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.token)
def test_two_workers_reproduce_one_exactly(default_stats, params_20db,
                                           scheme, drawn):
    """Kernels allocate their buffers per call, so threads share none.

    The sweep's estimates all end in the same tail chunk; with two workers
    one thread draws it first and the later estimates read it back.
    """
    trials = 4 * kernels.CHUNK_TRIALS + 123   # five chunks, the last partial
    sweep = radius_sweep_stats()
    serial = estimate_esc(default_stats, params_20db, scheme,
                          trials=trials, seed=6, workers=1)
    serial_sweep = [estimate_esc(stats, params_20db, scheme, trials=trials,
                                 seed=6, workers=1) for stats in sweep]
    kernels._held.clear()
    drawn.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = estimate_esc(default_stats, params_20db,
                                scheme, trials=trials, seed=6, workers=2)
        threaded_sweep = [estimate_esc(stats, params_20db, scheme,
                                       trials=trials, seed=6, workers=2)
                          for stats in sweep]
    finally:
        sys.setswitchinterval(interval)
    assert threaded.mean_total == serial.mean_total
    assert threaded.ci95_halfwidth == serial.ci95_halfwidth
    assert threaded.per_user_mean == serial.per_user_mean
    assert threaded_sweep == serial_sweep
    # one estimate drew the tail, the three others read it back
    tail = (6, 4 * kernels.CHUNK_TRIALS, 123)
    assert [block for block in drawn if block[2] < kernels.CHUNK_TRIALS] \
        == [tail]
    key, held, _ = kernels._held[True]
    assert key == tail and kernels.sample_gains(*tail) is held
    assert drawn.count(tail) == 1


@pytest.mark.parametrize("trials", [
    2000, kernels.CHUNK_TRIALS + 2000, 3 * kernels.CHUNK_TRIALS + 2000,
    3 * kernels.CHUNK_TRIALS])
def test_estimates_do_not_depend_on_the_tail_memo(params_20db, trials):
    """Each estimate equals itself with no draw block held, warm from its
    own blocks, and warm from a sweep neighbour's blocks drawn for another
    sigma_hat. A cold estimate runs its chunks forward, and a warm one
    backward when the one before it ended on its last full chunk. With two
    or more full chunks the warm run alternates the order, and each point
    sits at an even and at an odd place in it, so it runs in both orders."""
    sweep = radius_sweep_stats()
    for scheme in SchemeId:
        cold = []
        for stats in sweep:
            kernels._held.clear()
            cold.append(estimate_esc(stats, params_20db, scheme,
                                     trials=trials, seed=8))
        warm = [estimate_esc(stats, params_20db, scheme, trials=trials,
                             seed=8) for stats in sweep + sweep[::-1]]
        assert warm == cold + cold[::-1]


_CHUNK = kernels.CHUNK_TRIALS
# An estimate's stats and params (index 0), and three other points for the
# calls made before it: a near radius moved, which keeps the far users'
# inputs, then ρ moved, then a far radius moved.
_POINTS = [
    (derive_link_statistics(build_layout((near,) * 3, (far,) * 3), 4.0,
                            0.001),
     SystemParams(alpha=0.1, rho=db_to_linear(rho_db), upsilon=0.01))
    for near, far, rho_db in ((0.5, 0.95, 20.0), (0.3, 0.95, 20.0),
                              (0.5, 0.95, 10.0), (0.5, 0.8, 20.0))]


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(trials=st.sampled_from([1, 576, 2000, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                               3 * _CHUNK, 2 * _CHUNK + 576]),
       seed=st.integers(0, 2**64 - 2),
       scheme=st.sampled_from(list(SchemeId)),
       workers=st.integers(1, 3),
       calls=st.lists(st.tuples(
           st.sampled_from(["own", "next seed", "other size"]),
           st.integers(0, 3), st.sampled_from([1, 576, 2000, _CHUNK]),
           st.integers(1, len(_POINTS) - 1), st.booleans()),
           min_size=1, max_size=6))
def test_estimates_depend_on_neither_the_held_blocks_nor_the_workers(
        trials, seed, scheme, workers, calls):
    """After draw and rate-kernel calls on the estimate's own chunks, on
    them at the next seed and on blocks of other sizes at its chunk starts,
    at points that keep or change the far users' inputs and with its own
    or another scheme, which leave the draw kernel holding any blocks and
    far rates, an estimate at any worker count equals, field for field, a
    one-worker estimate made with nothing held."""
    stats, params = _POINTS[0]
    n_chunks = -(-trials // _CHUNK)
    kernels._held.clear()
    for kind, index, size, point, other_scheme in calls:
        start = index % n_chunks * _CHUNK
        n = size if kind == "other size" else min(_CHUNK, trials - start)
        draws = kernels.sample_gains(seed + (kind == "next seed"), start, n)
        point_stats, point_params = _POINTS[point]
        kernels.scheme_rates(draws, (scheme.code + other_scheme) % 4,
                             point_params, point_stats)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        estimate = estimate_esc(stats, params, scheme, trials, seed, workers)
    finally:
        sys.setswitchinterval(interval)
    kernels._held.clear()
    assert estimate == estimate_esc(stats, params, scheme, trials, seed)


class _CountingThread(threading.Thread):
    """Stands in for threading.Thread: counts the helpers an estimate starts."""

    started = 0

    def start(self):
        type(self).started += 1
        super().start()


def _recording_gains(monkeypatch, on_call=None):
    """Patch kernels.sample_gains to log (thread id, chunk start) per call,
    calling on_call(start) first; returns the log."""
    calls = []
    sample_gains = kernels.sample_gains

    def recording(seed, start, count):
        calls.append((threading.get_ident(), start))
        if on_call is not None:
            on_call(start)
        return sample_gains(seed, start, count)

    monkeypatch.setattr(kernels, "sample_gains", recording)
    return calls


def test_computing_threads_are_clamped_to_chunk_count(monkeypatch,
                                                      default_stats,
                                                      params_20db):
    """workers counts the calling thread, and no more threads compute than
    there are chunks."""
    monkeypatch.setattr(threading, "Thread", _CountingThread)
    calls = _recording_gains(monkeypatch)
    three_chunks = 2 * kernels.CHUNK_TRIALS + 1
    for trials, workers, helpers in ((2 * kernels.CHUNK_TRIALS, 2, 1),
                                     (three_chunks, 1, 0),
                                     (three_chunks, 2, 1),
                                     (three_chunks, 3, 2),
                                     (three_chunks, 10 ** 9, 2),
                                     (kernels.CHUNK_TRIALS, 10 ** 9, 0)):
        monkeypatch.setattr(_CountingThread, "started", 0)
        calls.clear()
        estimate_esc(default_stats, params_20db, SchemeId.OMA, trials=trials,
                     seed=1, workers=workers)
        assert _CountingThread.started == helpers
        assert len({thread for thread, _ in calls}) <= helpers + 1
    # the one-chunk estimate ran on the calling thread
    assert calls == [(threading.get_ident(), 0)]


@pytest.mark.parametrize("workers", [2, 3])
def test_every_chunk_is_drawn_exactly_once(monkeypatch, default_stats,
                                           params_20db, workers):
    calls = _recording_gains(monkeypatch)
    trials = 11 * kernels.CHUNK_TRIALS + 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        estimate_esc(default_stats, params_20db, SchemeId.NOMA,
                     trials=trials, seed=4, workers=workers)
    finally:
        sys.setswitchinterval(interval)
    starts = sorted(start for _, start in calls)
    assert starts == list(range(0, trials, kernels.CHUNK_TRIALS))


@pytest.mark.parametrize("workers", [1])
def test_a_held_up_thread_makes_no_block_drawn_twice(monkeypatch,
                                                     default_stats,
                                                     params_20db, drawn,
                                                     workers):
    """Each estimate of a sweep after the first starts on the full block
    the one before it ended on, even when a call for the held full block
    sleeps before it is answered. At two or more workers another thread may
    draw a full block during that sleep, which displaces the held one, so
    only one worker pins the count."""
    sample_gains = kernels.sample_gains

    def slow_hit(seed, start, n):
        if kernels._held.get(False, (None,))[0] == (seed, start, n):
            time.sleep(0.005)
        return sample_gains(seed, start, n)

    monkeypatch.setattr(kernels, "sample_gains", slow_hit)
    for _ in range(3):
        estimate_esc(default_stats, params_20db, SchemeId.OMA,
                     trials=5 * kernels.CHUNK_TRIALS + 100, seed=5,
                     workers=workers)
    # five full blocks, then four for each estimate after the first
    assert sum(n == kernels.CHUNK_TRIALS for _, _, n in drawn) == 13


def test_a_failing_chunk_stops_the_serial_loop(monkeypatch, default_stats,
                                               params_20db):
    def fail_at_second_chunk(start):
        if start == kernels.CHUNK_TRIALS:
            raise RuntimeError("chunk failed")

    calls = _recording_gains(monkeypatch, fail_at_second_chunk)
    with pytest.raises(RuntimeError, match="chunk failed"):
        estimate_esc(default_stats, params_20db, SchemeId.OMA,
                     trials=4 * kernels.CHUNK_TRIALS, seed=1, workers=1)
    assert [start for _, start in calls] == [0, kernels.CHUNK_TRIALS]


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_a_chunk_error_propagates_after_every_helper_ends(
        monkeypatch, default_stats, params_20db, failing):
    """Both threads take a chunk from the shared iterator before either
    goes on; then the chosen thread's chunk fails. When the helper's fails,
    the caller finishes its chunk only after the helper has ended, so it
    takes no further one."""
    caller = threading.get_ident()
    before = set(threading.enumerate())
    both_started = threading.Barrier(2, timeout=30)
    first_call = set()

    def fail_on_one_thread(start):
        thread = threading.get_ident()
        if thread in first_call:
            return
        first_call.add(thread)
        both_started.wait()
        if (thread == caller) == (failing == "caller"):
            raise RuntimeError(f"{failing} chunk at {start} failed")
        if failing == "helper":
            for helper in set(threading.enumerate()) - before:
                helper.join(timeout=30)

    calls = _recording_gains(monkeypatch, fail_on_one_thread)
    with pytest.raises(RuntimeError, match=f"{failing} chunk at"):
        estimate_esc(default_stats, params_20db, SchemeId.OMA,
                     trials=8 * kernels.CHUNK_TRIALS, seed=1, workers=2)
    assert set(threading.enumerate()) == before
    if failing == "helper":
        assert len(calls) == 2


def test_nonpositive_workers_rejected(default_stats, params_20db):
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            estimate_esc(default_stats, params_20db,
                         SchemeId.OMA, trials=10, seed=1, workers=workers)


@pytest.mark.parametrize("name, value", [
    ("trials", 2.7), ("trials", "100"), ("trials", 100.0), ("trials", True),
    ("workers", 2.5), ("workers", "2"), ("workers", 2.0), ("workers", True),
])
def test_counts_that_are_not_integers_rejected(default_stats, params_20db,
                                               name, value):
    # 2.5 workers on three chunks would reach range() and raise TypeError;
    # 2.7 trials would run 2 and "100" would run 100
    counts = {"trials": 3 * kernels.CHUNK_TRIALS, "workers": 1, name: value}
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be a positive integer, got {value!r}")):
        estimate_esc(default_stats, params_20db, SchemeId.OMA, seed=1,
                     **counts)


def test_a_scheme_that_is_not_a_scheme_id_is_rejected_by_name(default_stats,
                                                             params_20db):
    with pytest.raises(TypeError, match="scheme must be a SchemeId, got 'oma'"):
        estimate_esc(default_stats, params_20db, "oma", trials=10, seed=1)


def test_numpy_integer_counts_are_accepted(default_stats, params_20db):
    plain = estimate_esc(default_stats, params_20db, SchemeId.OMA,
                         trials=100, seed=1, workers=2)
    numpy_counts = estimate_esc(default_stats, params_20db, SchemeId.OMA,
                                trials=np.int64(100), seed=1,
                                workers=np.int64(2))
    assert numpy_counts.mean_total == plain.mean_total


def test_seed_must_be_a_64_bit_integer(default_stats, params_20db):
    for seed in (-1, 2**64, 1.5):
        with pytest.raises(ValueError, match="seed"):
            estimate_esc(default_stats, params_20db,
                         SchemeId.OMA, trials=10, seed=seed)
    top = estimate_esc(default_stats, params_20db,
                       SchemeId.OMA, trials=10, seed=2**64 - 1)
    assert top.seed == 2**64 - 1


def test_mean_total_equals_per_user_sum(default_stats, params_20db):
    estimate = estimate_esc(default_stats, params_20db,
                            SchemeId.NOMA, trials=30_000, seed=5)
    assert estimate.mean_total == pytest.approx(
        sum(estimate.per_user_mean.values()), abs=1e-9)


def test_ci_halfwidth_shrinks_with_quartered_rate(default_stats, params_20db):
    small = estimate_esc(default_stats, params_20db,
                         SchemeId.COMP_VPNOMA, trials=25_000, seed=9)
    large = estimate_esc(default_stats, params_20db,
                         SchemeId.COMP_VPNOMA, trials=100_000, seed=9)
    assert large.ci95_halfwidth == pytest.approx(small.ci95_halfwidth / 2.0,
                                                 rel=0.2)


def test_analytic_total_present_only_for_comp(default_stats, params_20db):
    estimates = [estimate_esc(default_stats, params_20db, scheme,
                              trials=2_000, seed=21) for scheme in SchemeId]
    assert [e.scheme for e in estimates] == list(SchemeId)
    assert all(e.seed == 21 and e.trials == 2_000 for e in estimates)
    for estimate in estimates:
        if estimate.scheme is SchemeId.COMP_VPNOMA:
            assert estimate.analytic_total == pytest.approx(
                total_esc_closed(default_stats, params_20db), rel=1e-14)
        else:
            assert estimate.analytic_total is None


def test_comp_is_best_scheme_with_common_draws(default_stats, params_20db):
    estimates = [estimate_esc(default_stats, params_20db, scheme,
                              trials=20_000, seed=13) for scheme in SchemeId]
    by_scheme = {e.scheme: e for e in estimates}
    comp = by_scheme[SchemeId.COMP_VPNOMA]
    for scheme in (SchemeId.OMA, SchemeId.NOMA, SchemeId.VPNOMA):
        assert comp.mean_total > by_scheme[scheme].mean_total


def test_comp_far_users_dominate_vpnoma_in_the_mean(default_stats,
                                                    params_20db):
    estimates = [estimate_esc(default_stats, params_20db, scheme,
                              trials=20_000, seed=13) for scheme in SchemeId]
    by_scheme = {e.scheme: e for e in estimates}
    for user in "ABC":
        assert by_scheme[SchemeId.COMP_VPNOMA].per_user_mean[user] \
            >= by_scheme[SchemeId.VPNOMA].per_user_mean[user]


def test_estimate_converges_to_closed_form(default_stats, params_10db):
    # the decreasing-distance ladder holds for typical draw streams; the
    # fixed seed pins one such stream
    distances = []
    for trials in (10_000, 100_000, 1_000_000):
        estimate = estimate_esc(default_stats, params_10db,
                                SchemeId.COMP_VPNOMA, trials=trials, seed=29)
        distances.append(abs(estimate.mean_total - estimate.analytic_total))
        assert abs(estimate.mean_total - estimate.analytic_total) \
            <= 3.0 * estimate.ci95_halfwidth
    assert distances[0] > distances[1] > distances[2]
    assert distances[-1] < 0.01 * estimate.analytic_total


def test_estimates_increase_with_snr_for_every_scheme(default_stats):
    means = {scheme: [] for scheme in SchemeId}
    for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0):
        params = SystemParams(alpha=0.1, rho=db_to_linear(snr_db),
                              upsilon=0.01)
        for scheme in SchemeId:
            estimate = estimate_esc(default_stats, params, scheme,
                                    trials=10_000, seed=41)
            means[estimate.scheme].append(estimate.mean_total)
    for scheme, sequence in means.items():
        assert all(a < b for a, b in zip(sequence, sequence[1:])), scheme


def test_ci_covers_analytic_value_for_most_seeds(default_stats, params_10db):
    analytic = total_esc_closed(default_stats, params_10db)
    hits = 0
    for seed in range(30):
        estimate = estimate_esc(default_stats, params_10db,
                                SchemeId.COMP_VPNOMA, trials=5_000, seed=seed)
        if abs(estimate.mean_total - analytic) <= estimate.ci95_halfwidth:
            hits += 1
    assert hits >= 24


# float.hex of (mean_total, ci95_halfwidth, per_user_mean in USERS order) for
# seed 29 on the default geometry at 20 dB. 576 and 8192 + 1696 end in the
# partial last chunks of a 10^6-trial and a 10^5-trial estimate; 2000 is one
# point of the near-radius benchmark sweep. Re-recorded when the rate kernel
# began to form interference as the sum of the non-serving gains.
ESTIMATE_HEX = {
    (1, "oma"): (
        "0x1.3d002c47a5a17p+3", "0x0.0p+0",
        "0x1.32ba4d3af1f23p+1", "0x1.7ef128941f908p+1", "0x1.0f371acd88447p+2",
        "0x1.d54df7fc05fb2p-3", "0x1.a064db8c102dbp-5", "0x1.092c683d9aae8p-11",
    ),
    (1, "noma"): (
        "0x1.452ac044d609fp+3", "0x0.0p+0",
        "0x1.d26c496d6db66p+0", "0x1.67e656efffc3ep+1", "0x1.41f19109481e7p+2",
        "0x1.9f124517c54d0p-2", "0x1.7568bf971f94dp-4", "0x1.dd4ba5fa593b2p-11",
    ),
    (1, "vpnoma"): (
        "0x1.f6993930e767dp+3", "0x0.0p+0",
        "0x1.de8eb4434eb47p+1", "0x1.4cc537544ee66p+2", "0x1.a888cc8bdc573p+2",
        "0x1.bfc5b6d297990p-4", "0x1.99f0b1b9c69dep-6", "0x1.0334be04badf3p-12",
    ),
    (1, "comp-vpnoma"): (
        "0x1.17eff30e47ec9p+4", "0x0.0p+0",
        "0x1.de8eb4434eb47p+1", "0x1.4cc537544ee66p+2", "0x1.a888cc8bdc573p+2",
        "0x1.50a875a1747b4p-1", "0x1.4d7cb4b9f89c2p-1", "0x1.3b2e475efbbccp-1",
    ),
    (576, "oma"): (
        "0x1.f345cee2d5a0bp+2", "0x1.2aa7b56653d4ep-3",
        "0x1.1f6f9c8de3227p+1", "0x1.10c51966a22d9p+1", "0x1.0fe54f14ed8acp+1",
        "0x1.caa588d150499p-2", "0x1.b9b8b9eba3d9cp-2", "0x1.af2e8324cf127p-2",
    ),
    (576, "noma"): (
        "0x1.d640047b9c2e4p+2", "0x1.8f964988883cap-3",
        "0x1.d6e3fc57e3d5bp+0", "0x1.ae7994c181329p+0", "0x1.ae396def72d39p+0",
        "0x1.7a4c5d996e270p-1", "0x1.6c2dd83885295p-1", "0x1.6457eff93e6a7p-1",
    ),
    (576, "vpnoma"): (
        "0x1.7ce3d3e9b2b20p+3", "0x1.d3fc125707136p-3",
        "0x1.f76ab77e036abp+1", "0x1.db90265f416e2p+1", "0x1.dbd30ee212ae2p+1",
        "0x1.79a1ce3cae56cp-3", "0x1.6cb691f241e19p-3", "0x1.65bdce4843d7cp-3",
    ),
    (576, "comp-vpnoma"): (
        "0x1.a99d04287c77cp+3", "0x1.d155114c2529ep-3",
        "0x1.f76ab77e036abp+1", "0x1.db90265f416e2p+1", "0x1.dbd30ee212ae2p+1",
        "0x1.49ee083837456p-1", "0x1.4a44da121f967p-1", "0x1.4a65ad4012856p-1",
    ),
    (2000, "oma"): (
        "0x1.f4cf53ab762a9p+2", "0x1.389b0c3449713p-4",
        "0x1.155f5ad85fe5dp+1", "0x1.197998f034b81p+1", "0x1.1396d6603e205p+1",
        "0x1.c29ba4959a74bp-2", "0x1.ba08f64c83305p-2", "0x1.bcd24e8eaf12bp-2",
    ),
    (2000, "noma"): (
        "0x1.da04cc59a2839p+2", "0x1.a297992bca730p-4",
        "0x1.c0c82741a0fd3p+0", "0x1.c80797de5e4f1p+0", "0x1.b79ee526b4031p+0",
        "0x1.739b7cdba90b4p-1", "0x1.6d277ac57411fp-1", "0x1.6e86229e90608p-1",
    ),
    (2000, "vpnoma"): (
        "0x1.7e58cc4bcefe7p+3", "0x1.ef8d32a03cc57p-4",
        "0x1.e5053680f4cc9p+1", "0x1.ec64a86ae3ba6p+1", "0x1.e2f705a9eecf9p+1",
        "0x1.73202f50dc180p-3", "0x1.6e0e3d461d543p-3", "0x1.6ef65d0050cc3p-3",
    ),
    (2000, "comp-vpnoma"): (
        "0x1.aafeebe9a9918p+3", "0x1.ecb3b489a2d56p-4",
        "0x1.e5053680f4cc9p+1", "0x1.ec64a86ae3ba6p+1", "0x1.e2f705a9eecf9p+1",
        "0x1.49df3e03c901bp-1", "0x1.4a4e3f6c41aa1p-1", "0x1.4a3daed371121p-1",
    ),
    (9888, "oma"): (
        "0x1.f3d0e993c1895p+2", "0x1.154921a54fcbap-5",
        "0x1.1560fc045ce23p+1", "0x1.168a9a6174d9ep+1", "0x1.158fd2bf8a3e1p+1",
        "0x1.bce718310552fp-2", "0x1.b8f6fc8d006d7p-2", "0x1.bb553b5333046p-2",
    ),
    (9888, "noma"): (
        "0x1.d827251bf4318p+2", "0x1.731b190471ba0p-5",
        "0x1.be6f5781e1a4ep+0", "0x1.c0211af6f9da8p+0", "0x1.bd8a165f06aedp+0",
        "0x1.6ed54dceb6ab0p-1", "0x1.6c63ba8314563p-1", "0x1.6dcb0ede122e6p-1",
    ),
    (9888, "vpnoma"): (
        "0x1.7e2685b34742dp+3", "0x1.ba082e9b88951p-5",
        "0x1.e58aa230e9fb7p+1", "0x1.e7f04c836d2dcp+1", "0x1.e671da47a88ebp+1",
        "0x1.6f26708140c1fp-3", "0x1.6d45aff3ebd16p-3", "0x1.6e68bc9ca8a41p-3",
    ),
    (9888, "comp-vpnoma"): (
        "0x1.aae27a4e732bap+3", "0x1.b81304feaddc0p-5",
        "0x1.e58aa230e9fb7p+1", "0x1.e7f04c836d2dcp+1", "0x1.e671da47a88ebp+1",
        "0x1.4a3c23127e910p-1", "0x1.4a133197b3ce5p-1", "0x1.4a252c4d017acp-1",
    ),
    (100000, "oma"): (
        "0x1.f3c04c0d616a8p+2", "0x1.600920a3446e8p-7",
        "0x1.15427b6713f0ep+1", "0x1.15be121b0c47fp+1", "0x1.15933b3d936e4p+1",
        "0x1.bd22b6041aef1p-2", "0x1.bcfc0c1aa3545p-2", "0x1.bd47b8b9bb2c5p-2",
    ),
    (100000, "noma"): (
        "0x1.d8ee0a9fd5556p+2", "0x1.d6ee7ffc1aa54p-7",
        "0x1.be62989a58ac3p+0", "0x1.bf650ce1c12b0p+0", "0x1.beedf632d37d1p+0",
        "0x1.6f456e660c95cp-1", "0x1.6f5e4769d60c1p-1", "0x1.6f6167d0ed609p-1",
    ),
    (100000, "vpnoma"): (
        "0x1.7daba03b47d5ep+3", "0x1.19b3ce996dd60p-6",
        "0x1.e55a85cf47fd5p+1", "0x1.e63ee3ed91b5ap+1", "0x1.e61801f7410b4p+1",
        "0x1.6fd80a0c25dc6p-3", "0x1.7000ac85534d0p-3", "0x1.6ff89cfed06cfp-3",
    ),
    (100000, "comp-vpnoma"): (
        "0x1.aa5371bd82ed8p+3", "0x1.18b279063a858p-6",
        "0x1.e55a85cf47fd5p+1", "0x1.e63ee3ed91b5ap+1", "0x1.e61801f7410b4p+1",
        "0x1.4a2b6e10a0c15p-1", "0x1.4a1b8029c9b97p-1", "0x1.4a2a7ecd5963ep-1",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("trials, token", sorted(ESTIMATE_HEX))
def test_estimates_are_bit_exact(default_stats, params_20db, trials, token,
                                 workers):
    estimate = estimate_esc(default_stats, params_20db,
                            SchemeId.from_token(token), trials=trials,
                            seed=29, workers=workers)
    got = (estimate.mean_total.hex(), estimate.ci95_halfwidth.hex()) + tuple(
        estimate.per_user_mean[user].hex() for user in USERS)
    assert got == ESTIMATE_HEX[(trials, token)]
