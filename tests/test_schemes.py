import dataclasses

import numpy as np
import pytest

from comp_noma import (LinkStatistics, SchemeId, SystemParams, build_layout,
                       estimate_esc)
from comp_noma import kernels
from oracles import (gain_rates, gains_reference, kernel_gains,
                     link_statistics, per_link, rates_reference)

FAR_COMP_EXAMPLE = 0.56681323938036405  # (1/3) * log2(1 + 9/4)


def stats_with(eps=0.0):
    return LinkStatistics(np.ones((3, 6)), np.full((3, 6), float(eps)))


def random_gain(rng, scale=1.0):
    return rng.exponential(scale, size=(3, 6))


def comp_rates(gain, stats, params):
    return gain_rates(gain, stats, params, SchemeId.COMP_VPNOMA)


def reference_rates(gain, stats, params, scheme):
    """Per-user rates of one gain matrix from the per-trial oracle."""
    return rates_reference(np.asarray(gain)[None], scheme.code, params,
                           stats)[0]


class TestSystemParams:
    def test_beta_is_derived_exactly(self):
        p = SystemParams(alpha=0.1)
        assert p.beta == (1.0 - 0.1) / 3.0
        assert p.beta > p.alpha
        assert p.alpha + 3.0 * p.beta == pytest.approx(1.0, abs=1e-15)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            SystemParams(alpha=0.25)
        with pytest.raises(ValueError, match="alpha"):
            SystemParams(alpha=0.3)
        with pytest.raises(ValueError, match="alpha"):
            SystemParams(alpha=0.0)

    def test_band_fractions_validated(self):
        # the band split is each scheme's own: no value is taken
        for fractions in ((1.0 / 3.0,) * 3, (0.5, 0.25, 0.25), None):
            with pytest.raises(TypeError, match="band_fractions"):
                SystemParams(band_fractions=fractions)

    def test_other_knobs_validated(self):
        with pytest.raises(ValueError, match="rho"):
            SystemParams(rho=0.0)
        with pytest.raises(ValueError, match="upsilon"):
            SystemParams(upsilon=-0.01)

    def test_non_finite_knobs_rejected_by_name(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="rho"):
                SystemParams(rho=bad)
            with pytest.raises(ValueError, match="upsilon"):
                SystemParams(upsilon=bad)
        with pytest.raises(ValueError, match="alpha"):
            SystemParams(alpha=float("nan"))

    @pytest.mark.parametrize("bad", [True, False, np.True_, "10", "0.1",
                                     None, 1 + 0j])
    def test_knobs_of_other_types_are_rejected_by_name(self, bad):
        for name in ("alpha", "rho", "upsilon"):
            with pytest.raises(ValueError,
                               match=f"{name} must be a real number"):
                SystemParams(**{name: bad})

    def test_python_and_numpy_reals_are_accepted(self):
        plain = SystemParams(alpha=0.1, rho=10.0, upsilon=0.0)
        numpy_reals = SystemParams(alpha=np.float64(0.1), rho=np.int64(10),
                                   upsilon=0)
        assert numpy_reals == plain
        for value in (numpy_reals.alpha, numpy_reals.rho, numpy_reals.upsilon):
            assert type(value) is float

    def test_numpy_float32_knobs_keep_float64_arithmetic(self):
        p = SystemParams(alpha=np.float32(0.1))
        assert p.alpha == float(np.float32(0.1))
        assert p.beta == (1.0 - float(np.float32(0.1))) / 3.0
        assert type(p.beta) is float

    def test_an_integer_snr_too_large_for_float_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            SystemParams(rho=10 ** 400)

    def test_scheme_tokens_round_trip(self):
        for scheme in SchemeId:
            assert SchemeId.from_token(scheme.token) is scheme
        with pytest.raises(ValueError, match="unknown scheme"):
            SchemeId.from_token("tdma")


class TestNearRate:
    def test_hand_worked_single_gain(self):
        # alpha=0.1, rho=10, only the serving gain nonzero -> 1 bit over the
        # full band
        p = SystemParams(alpha=0.1, rho=10.0, upsilon=0.0)
        gain = np.zeros((3, 6))
        gain[0, 0] = 1.0
        rates = comp_rates(gain, stats_with(0.0), p)
        assert rates[0] == pytest.approx(1.0, rel=1e-14)

    def test_vanishing_power_gives_vanishing_rate(self):
        p = SystemParams(alpha=1e-300, rho=10.0, upsilon=0.0)
        gain = np.ones((3, 6))
        rate = comp_rates(gain, stats_with(0.0), p)[0]
        assert rate == pytest.approx(0.0, abs=1e-250)

    def test_rate_decreases_monotonically_to_zero_with_rho(self, rng):
        gain = random_gain(rng)
        rates = [comp_rates(gain, stats_with(0.001),
                            SystemParams(alpha=0.1, rho=rho))[1]
                 for rho in (10.0, 1.0, 0.1, 0.01, 0.001)]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 1e-3


class TestFarRate:
    def test_hand_worked_symmetric_gains(self):
        # alpha=0.1 -> beta=0.3, rho=10, all three gains 1 -> (1/3) log2(1+9/4)
        p = SystemParams(alpha=0.1, rho=10.0, upsilon=0.0)
        gain = np.zeros((3, 6))
        gain[:, 3] = 1.0
        rate = comp_rates(gain, stats_with(0.0), p)[3]
        assert rate == pytest.approx(FAR_COMP_EXAMPLE, rel=1e-12)

    def test_vanishing_far_power_via_direct_formula(self):
        # beta = 0 is unreachable through SystemParams; evaluate the SINR
        # expression directly to pin the zero-numerator limit.
        combined, rho, alpha = 3.0, 10.0, 0.1
        sinr = 0.0 * rho * combined / (alpha * rho * combined + 1.0)
        assert (1.0 / 3.0) * np.log2(1.0 + sinr) == 0.0

    def test_monotone_in_common_gain_level(self):
        p = SystemParams(alpha=0.1, rho=10.0)
        rates = []
        for level in (0.5, 1.0, 2.0, 4.0):
            gain = np.zeros((3, 6))
            gain[:, 4] = level
            rates.append(comp_rates(gain, stats_with(0.001), p)[4])
        assert all(a < b for a, b in zip(rates, rates[1:]))


class TestTotalInstantaneous:
    """Rates of one gain matrix; columns are users 1, 2, 3, A, B, C."""

    def test_symmetric_realization_gives_symmetric_rates(self, default_stats):
        gain = np.zeros((3, 6))
        gain[:, :3] = np.where(np.eye(3, dtype=bool), 4.0, 0.25)
        gain[:, 3:] = np.where(np.eye(3, dtype=bool), 1.5, 0.75)
        p = SystemParams(alpha=0.1, rho=100.0, upsilon=0.01)
        stats = stats_with(0.001)
        for scheme in SchemeId:
            rates = gain_rates(gain, stats, p, scheme)
            near, far = rates[:3], rates[3:]
            assert near[0] == pytest.approx(near[1], rel=1e-12)
            assert near[0] == pytest.approx(near[2], rel=1e-12)
            assert far[0] == pytest.approx(far[1], rel=1e-12)
            assert far[0] == pytest.approx(far[2], rel=1e-12)

    def test_total_is_sum_of_per_user(self, default_stats, params_20db):
        for scheme in SchemeId:
            for seed in range(20):
                estimate = estimate_esc(default_stats, params_20db, scheme,
                                        trials=1, seed=seed)
                per_user = estimate.per_user_mean
                assert estimate.mean_total == pytest.approx(
                    sum(per_user.values()), rel=1e-12)
                assert all(v >= 0.0 for v in per_user.values())

    def test_comp_far_rate_dominates_vpnoma_per_realization(
            self, rng, default_stats, params_20db):
        for _ in range(1000):
            gain = random_gain(rng)
            comp = gain_rates(gain, default_stats, params_20db,
                              SchemeId.COMP_VPNOMA)
            vp = gain_rates(gain, default_stats, params_20db, SchemeId.VPNOMA)
            assert np.all(comp[3:] >= vp[3:])

    def test_comp_equals_vpnoma_when_off_serving_gains_vanish(self):
        gain = np.zeros((3, 6))
        np.fill_diagonal(gain[:, :3], 2.0)
        np.fill_diagonal(gain[:, 3:], 1.0)
        p = SystemParams(alpha=0.1, rho=10.0, upsilon=0.0)
        stats = stats_with(0.0)
        comp = gain_rates(gain, stats, p, SchemeId.COMP_VPNOMA)
        vp = gain_rates(gain, stats, p, SchemeId.VPNOMA)
        for u in range(3, 6):
            assert comp[u] == pytest.approx(vp[u], rel=1e-12)

    def test_every_rate_nondecreasing_in_rho(self, rng, default_stats):
        for _ in range(1000):
            gain = random_gain(rng)
            rho = float(rng.uniform(0.1, 1000.0))
            for scheme in SchemeId:
                low = gain_rates(gain, default_stats,
                                 SystemParams(alpha=0.1, rho=rho), scheme)
                high = gain_rates(gain, default_stats,
                                  SystemParams(alpha=0.1, rho=2 * rho), scheme)
                assert np.all(high >= low - 1e-15)

    def test_cell_relabeling_permutes_rates(self, rng, default_stats,
                                            params_20db):
        perm = np.array([2, 0, 1])  # cell 1->3, 2->1, 3->2
        gain = rng.exponential(1.0, size=(3, 6))
        permuted = np.empty_like(gain)
        for i in range(3):
            for u in range(3):
                permuted[perm[i], perm[u]] = gain[i, u]
                permuted[perm[i], 3 + perm[u]] = gain[i, 3 + u]
        eps = rng.uniform(0.0005, 0.002, size=(3, 6))
        eps_permuted = np.empty_like(eps)
        for i in range(3):
            for u in range(3):
                eps_permuted[perm[i], perm[u]] = eps[i, u]
                eps_permuted[perm[i], 3 + perm[u]] = eps[i, 3 + u]
        stats = LinkStatistics(np.ones((3, 6)), eps)
        stats_permuted = LinkStatistics(np.ones((3, 6)), eps_permuted)
        for scheme in SchemeId:
            base = gain_rates(gain, stats, params_20db, scheme)
            moved = gain_rates(permuted, stats_permuted, params_20db, scheme)
            for u in range(3):
                assert moved[perm[u]] == pytest.approx(base[u], rel=1e-12)
                assert moved[3 + perm[u]] == pytest.approx(base[3 + u],
                                                           rel=1e-12)
            assert moved.sum() == pytest.approx(base.sum(), rel=1e-12)

    def test_perfect_csi_and_sic_never_hurt_near_users(self, rng):
        p_impaired = SystemParams(alpha=0.1, rho=100.0, upsilon=0.05)
        p_clean = SystemParams(alpha=0.1, rho=100.0, upsilon=0.0)
        for _ in range(50):
            gain = random_gain(rng)
            dirty = comp_rates(gain, stats_with(0.01), p_impaired)
            clean = comp_rates(gain, stats_with(0.0), p_clean)
            assert np.all(clean[:3] >= dirty[:3])

    def test_per_user_matches_rate_operations(self, rng, default_stats,
                                              params_20db):
        gain = random_gain(rng)
        rates = comp_rates(gain, default_stats, params_20db)
        expected = reference_rates(gain, default_stats, params_20db,
                                   SchemeId.COMP_VPNOMA)
        assert rates[0] == pytest.approx(expected[0], rel=1e-12)
        assert rates[3] == pytest.approx(expected[3], rel=1e-12)


class TestKernelOracles:
    @pytest.mark.parametrize("seed, start, n",
                             [(123, 40, 300), (2**64 - 1, 12345, 200),
                              (0, 0, 100)])
    def test_gains_match_reference(self, default_stats, seed, start, n):
        gains = kernel_gains(seed, start, n, default_stats.sigma_hat)
        expected = gains_reference(seed, start, n, default_stats.sigma_hat)
        assert np.array_equal(gains, expected)

    @pytest.mark.parametrize("code", range(4))
    def test_rates_match_reference_on_all_schemes(self, code):
        stats = link_statistics(
            build_layout((0.3, 0.5, 0.7), (0.8, 0.95, 0.9)), 3.5,
            per_link(0.001, {(1, "A"): 0.004, (3, "2"): 0.0}))
        params = SystemParams(alpha=0.07, upsilon=0.03)
        draws = kernels.sample_gains(77, 0, 300)
        gains = kernel_gains(77, 0, 300, stats.sigma_hat)
        for rho in (1.0, 100.0, 1e4):
            args = (code, dataclasses.replace(params, rho=rho), stats)
            np.testing.assert_allclose(kernels.scheme_rates(draws, *args),
                                       rates_reference(gains, *args),
                                       rtol=5e-13, atol=0.0)
