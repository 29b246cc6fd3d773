import sys

import pytest

from comp_noma import (SchemeId, SystemParams, compare_schemes, db_to_linear,
                       estimate_esc, sample_realization, total_esc_closed,
                       total_instantaneous)
from comp_noma import kernels, montecarlo
from comp_noma.geometry import USERS


def test_single_trial_equals_instantaneous_rate(default_stats, params_20db):
    for scheme in SchemeId:
        estimate = estimate_esc(default_stats, params_20db,
                                scheme, trials=1, seed=17)
        breakdown = total_instantaneous(sample_realization(default_stats, 0, 17),
                                        default_stats, params_20db, scheme)
        assert estimate.mean_total == breakdown.total
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


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.token)
def test_two_workers_reproduce_one_exactly(default_stats, params_20db, scheme):
    """Kernels allocate their buffers per call, so threads share none."""
    trials = 4 * kernels.CHUNK_TRIALS + 123   # five chunks, the last partial
    serial = estimate_esc(default_stats, params_20db, scheme,
                          trials=trials, seed=6, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = estimate_esc(default_stats, params_20db,
                                scheme, trials=trials, seed=6, workers=2)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.mean_total == serial.mean_total
    assert threaded.ci95_halfwidth == serial.ci95_halfwidth
    assert threaded.per_user_mean == serial.per_user_mean


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
    estimates = compare_schemes(default_stats, params_20db,
                                trials=2_000, seed=21)
    assert [e.scheme for e in estimates] == list(SchemeId)
    assert all(e.seed == 21 and e.trials == 2_000 for e in estimates)
    for estimate in estimates:
        if estimate.scheme is SchemeId.COMP_VPNOMA:
            assert estimate.analytic_total == pytest.approx(
                total_esc_closed(default_stats, params_20db), rel=1e-14)
        else:
            assert estimate.analytic_total is None


def test_comp_is_best_scheme_with_common_draws(default_stats, params_20db):
    estimates = compare_schemes(default_stats, params_20db,
                                trials=20_000, seed=13)
    by_scheme = {e.scheme: e for e in estimates}
    comp = by_scheme[SchemeId.COMP_VPNOMA]
    for scheme in (SchemeId.OMA, SchemeId.NOMA, SchemeId.VPNOMA):
        assert comp.mean_total > by_scheme[scheme].mean_total


def test_comp_far_users_dominate_vpnoma_in_the_mean(default_stats,
                                                    params_20db):
    estimates = compare_schemes(default_stats, params_20db,
                                trials=20_000, seed=13)
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
        for estimate in compare_schemes(default_stats, params,
                                        trials=10_000, seed=41):
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
