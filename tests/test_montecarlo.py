import sys

import pytest

from comp_noma import (SchemeId, SystemParams, build_layout, db_to_linear,
                       derive_link_statistics, estimate_esc, total_esc_closed)
from comp_noma import kernels, montecarlo
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
    return [derive_link_statistics(build_layout(1.0, (r,) * 3, (0.95,) * 3),
                                   4.0, 0.001) for r in radii]


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.token)
def test_two_workers_reproduce_one_exactly(default_stats, params_20db,
                                           scheme):
    """Kernels allocate their buffers per call, so threads share none.

    The sweep's estimates all end in the same tail chunk; with two workers a
    pool thread draws it first and the later estimates read it back.
    """
    trials = 4 * kernels.CHUNK_TRIALS + 123   # five chunks, the last partial
    sweep = radius_sweep_stats()
    kernels._short_draws.cache_clear()
    serial = estimate_esc(default_stats, params_20db, scheme,
                          trials=trials, seed=6, workers=1)
    serial_sweep = [estimate_esc(stats, params_20db, scheme, trials=trials,
                                 seed=6, workers=1) for stats in sweep]
    kernels._short_draws.cache_clear()
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
    # every chunk ran on a pool thread: one drew the tail, three read it back
    info = kernels._short_draws.cache_info()
    assert (info.hits, info.misses) == (3, 1)
    kernels.sample_gains(6, 4 * kernels.CHUNK_TRIALS, 123)
    assert kernels._short_draws.cache_info().hits == 4


@pytest.mark.parametrize("trials", [2000, kernels.CHUNK_TRIALS + 2000])
def test_estimates_do_not_depend_on_the_tail_memo(params_20db, trials):
    """Each estimate equals itself with the memo cold, warm from its own
    tail, and warm from a sweep neighbour's tail drawn for another sigma_hat."""
    sweep = radius_sweep_stats()
    for scheme in SchemeId:
        cold = []
        for stats in sweep:
            kernels._short_draws.cache_clear()
            cold.append(estimate_esc(stats, params_20db, scheme,
                                     trials=trials, seed=8))
        warm = [estimate_esc(stats, params_20db, scheme, trials=trials,
                             seed=8) for stats in sweep + sweep[::-1]]
        assert warm == cold + cold[::-1]


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records its size, starts no thread."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


def test_pool_size_is_clamped_to_chunk_count(monkeypatch, default_stats,
                                             params_20db):
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    trials = 2 * kernels.CHUNK_TRIALS + 1
    for workers in (2, 3, 10 ** 9):
        estimate_esc(default_stats, params_20db,
                     SchemeId.OMA, trials=trials, seed=1, workers=workers)
    estimate_esc(default_stats, params_20db, SchemeId.OMA,
                 trials=kernels.CHUNK_TRIALS, seed=1, workers=10 ** 9)
    assert _RecordingPool.sizes == [2, 3, 3]


def test_nonpositive_workers_rejected(default_stats, params_20db):
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            estimate_esc(default_stats, params_20db,
                         SchemeId.OMA, trials=10, seed=1, workers=workers)


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
# point of the near-radius benchmark sweep.
ESTIMATE_HEX = {
    (1, "oma"): (
        "0x1.3d002c47a5a14p+3", "0x0.0p+0",
        "0x1.32ba4d3af1f1fp+1", "0x1.7ef128941f90ep+1", "0x1.0f371acd88440p+2",
        "0x1.d54df7fc05faep-3", "0x1.a064db8c102dbp-5", "0x1.092c683d9aae8p-11",
    ),
    (1, "noma"): (
        "0x1.452ac044d6099p+3", "0x0.0p+0",
        "0x1.d26c496d6db5ap+0", "0x1.67e656efffc47p+1", "0x1.41f19109481dbp+2",
        "0x1.9f124517c54d0p-2", "0x1.7568bf971f94dp-4", "0x1.dd4ba5fa593b2p-11",
    ),
    (1, "vpnoma"): (
        "0x1.f6993930e767dp+3", "0x0.0p+0",
        "0x1.de8eb4434eb44p+1", "0x1.4cc537544ee69p+2", "0x1.a888cc8bdc56fp+2",
        "0x1.bfc5b6d297990p-4", "0x1.99f0b1b9c69dep-6", "0x1.0334be04badf3p-12",
    ),
    (1, "comp-vpnoma"): (
        "0x1.17eff30e47ec9p+4", "0x0.0p+0",
        "0x1.de8eb4434eb44p+1", "0x1.4cc537544ee69p+2", "0x1.a888cc8bdc56fp+2",
        "0x1.50a875a1747b4p-1", "0x1.4d7cb4b9f89c2p-1", "0x1.3b2e475efbbccp-1",
    ),
    (576, "oma"): (
        "0x1.f345cee2d5a0bp+2", "0x1.2aa7b56653d4ep-3",
        "0x1.1f6f9c8de3226p+1", "0x1.10c51966a22d9p+1", "0x1.0fe54f14ed8acp+1",
        "0x1.caa588d150499p-2", "0x1.b9b8b9eba3d9cp-2", "0x1.af2e8324cf128p-2",
    ),
    (576, "noma"): (
        "0x1.d640047b9c2e5p+2", "0x1.8f964988883c3p-3",
        "0x1.d6e3fc57e3d59p+0", "0x1.ae7994c18132bp+0", "0x1.ae396def72d39p+0",
        "0x1.7a4c5d996e270p-1", "0x1.6c2dd83885295p-1", "0x1.6457eff93e6a7p-1",
    ),
    (576, "vpnoma"): (
        "0x1.7ce3d3e9b2b20p+3", "0x1.d3fc125707136p-3",
        "0x1.f76ab77e036abp+1", "0x1.db90265f416e2p+1", "0x1.dbd30ee212ae2p+1",
        "0x1.79a1ce3cae56cp-3", "0x1.6cb691f241e18p-3", "0x1.65bdce4843d7cp-3",
    ),
    (576, "comp-vpnoma"): (
        "0x1.a99d04287c77cp+3", "0x1.d155114c2529ep-3",
        "0x1.f76ab77e036abp+1", "0x1.db90265f416e2p+1", "0x1.dbd30ee212ae2p+1",
        "0x1.49ee083837456p-1", "0x1.4a44da121f967p-1", "0x1.4a65ad4012856p-1",
    ),
    (2000, "oma"): (
        "0x1.f4cf53ab762a9p+2", "0x1.389b0c3449713p-4",
        "0x1.155f5ad85fe5cp+1", "0x1.197998f034b80p+1", "0x1.1396d6603e206p+1",
        "0x1.c29ba4959a74cp-2", "0x1.ba08f64c83304p-2", "0x1.bcd24e8eaf12bp-2",
    ),
    (2000, "noma"): (
        "0x1.da04cc59a2838p+2", "0x1.a297992bca736p-4",
        "0x1.c0c82741a0fd3p+0", "0x1.c80797de5e4f0p+0", "0x1.b79ee526b4032p+0",
        "0x1.739b7cdba90b4p-1", "0x1.6d277ac57411fp-1", "0x1.6e86229e90608p-1",
    ),
    (2000, "vpnoma"): (
        "0x1.7e58cc4bcefe7p+3", "0x1.ef8d32a03cc57p-4",
        "0x1.e5053680f4cc9p+1", "0x1.ec64a86ae3ba6p+1", "0x1.e2f705a9eecf9p+1",
        "0x1.73202f50dc180p-3", "0x1.6e0e3d461d543p-3", "0x1.6ef65d0050cc3p-3",
    ),
    (2000, "comp-vpnoma"): (
        "0x1.aafeebe9a9919p+3", "0x1.ecb3b489a2d24p-4",
        "0x1.e5053680f4cc9p+1", "0x1.ec64a86ae3ba6p+1", "0x1.e2f705a9eecf9p+1",
        "0x1.49df3e03c901bp-1", "0x1.4a4e3f6c41aa1p-1", "0x1.4a3daed371121p-1",
    ),
    (9888, "oma"): (
        "0x1.f3d0e993c1895p+2", "0x1.154921a54fcbap-5",
        "0x1.1560fc045ce22p+1", "0x1.168a9a6174d9ep+1", "0x1.158fd2bf8a3e1p+1",
        "0x1.bce718310552ep-2", "0x1.b8f6fc8d006d7p-2", "0x1.bb553b5333047p-2",
    ),
    (9888, "noma"): (
        "0x1.d827251bf4318p+2", "0x1.731b190471ba0p-5",
        "0x1.be6f5781e1a4ep+0", "0x1.c0211af6f9da8p+0", "0x1.bd8a165f06aefp+0",
        "0x1.6ed54dceb6ab0p-1", "0x1.6c63ba8314563p-1", "0x1.6dcb0ede122e6p-1",
    ),
    (9888, "vpnoma"): (
        "0x1.7e2685b34742ep+3", "0x1.ba082e9b88939p-5",
        "0x1.e58aa230e9fb7p+1", "0x1.e7f04c836d2dcp+1", "0x1.e671da47a88ebp+1",
        "0x1.6f26708140c1fp-3", "0x1.6d45aff3ebd16p-3", "0x1.6e68bc9ca8a41p-3",
    ),
    (9888, "comp-vpnoma"): (
        "0x1.aae27a4e732bap+3", "0x1.b81304feaddc0p-5",
        "0x1.e58aa230e9fb7p+1", "0x1.e7f04c836d2dcp+1", "0x1.e671da47a88ebp+1",
        "0x1.4a3c23127e910p-1", "0x1.4a133197b3ce5p-1", "0x1.4a252c4d017acp-1",
    ),
    (100000, "oma"): (
        "0x1.f3c04c0d616a9p+2", "0x1.600920a3446c2p-7",
        "0x1.15427b6713f0ep+1", "0x1.15be121b0c47fp+1", "0x1.15933b3d936e4p+1",
        "0x1.bd22b6041aeeep-2", "0x1.bcfc0c1aa3543p-2", "0x1.bd47b8b9bb2c5p-2",
    ),
    (100000, "noma"): (
        "0x1.d8ee0a9fd5556p+2", "0x1.d6ee7ffc1aa54p-7",
        "0x1.be62989a58ac3p+0", "0x1.bf650ce1c12b0p+0", "0x1.beedf632d37d1p+0",
        "0x1.6f456e660c95cp-1", "0x1.6f5e4769d60c1p-1", "0x1.6f6167d0ed609p-1",
    ),
    (100000, "vpnoma"): (
        "0x1.7daba03b47d5ep+3", "0x1.19b3ce996dd60p-6",
        "0x1.e55a85cf47fd5p+1", "0x1.e63ee3ed91b5ap+1", "0x1.e61801f7410b4p+1",
        "0x1.6fd80a0c25dc6p-3", "0x1.7000ac85534cfp-3", "0x1.6ff89cfed06cfp-3",
    ),
    (100000, "comp-vpnoma"): (
        "0x1.aa5371bd82ed8p+3", "0x1.18b279063a858p-6",
        "0x1.e55a85cf47fd5p+1", "0x1.e63ee3ed91b5ap+1", "0x1.e61801f7410b4p+1",
        "0x1.4a2b6e10a0c16p-1", "0x1.4a1b8029c9b97p-1", "0x1.4a2a7ecd5963ep-1",
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
