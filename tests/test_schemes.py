import numpy as np
import pytest

from comp_noma import (ChannelRealization, LinkStatistics, SchemeId,
                       SystemParams, build_layout, derive_link_statistics,
                       total_instantaneous)
from comp_noma import kernels
from comp_noma.geometry import USERS
from oracles import gains_reference, kernel_gains, rates_reference

FAR_COMP_EXAMPLE = 0.56681323938036405  # (1/3) * log2(1 + 9/4)


def realization(gain):
    return ChannelRealization(np.asarray(gain, dtype=float))


def stats_with(eps=0.0):
    return LinkStatistics(np.ones((3, 6)), np.full((3, 6), float(eps)))


def random_realization(rng, scale=1.0):
    return ChannelRealization(rng.exponential(scale, size=(3, 6)))


def comp_rates(real, stats, params):
    return total_instantaneous(real, stats, params,
                               SchemeId.COMP_VPNOMA).per_user


def reference_rates(real, stats, params, scheme):
    """Per-user rates of one realization from the per-trial oracle."""
    return rates_reference(real.gain[None], scheme.code, params.alpha,
                           params.beta, params.rho, params.upsilon,
                           params.band_fractions,
                           stats.eps_sums)[0]


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
        with pytest.raises(ValueError, match="band_fractions"):
            SystemParams(band_fractions=(0.5, 0.5, 0.1))
        with pytest.raises(ValueError, match="band_fractions"):
            SystemParams(band_fractions=(0.5, 0.5, 0.0))
        SystemParams(band_fractions=(0.5, 0.25, 0.25))

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
            with pytest.raises(ValueError, match="band_fractions"):
                SystemParams(band_fractions=(bad, 0.5, 0.5))
        with pytest.raises(ValueError, match="alpha"):
            SystemParams(alpha=float("nan"))

    def test_scheme_tokens_round_trip(self):
        for scheme in SchemeId:
            assert SchemeId.from_token(scheme.token) is scheme
        with pytest.raises(ValueError, match="unknown scheme"):
            SchemeId.from_token("tdma")


class TestNearRate:
    def test_hand_worked_single_gain(self):
        # alpha=0.1, rho=10, only the serving gain nonzero -> (1/3) log2(2)
        # on each sub-band, 1 bit over the full band
        p = SystemParams(alpha=0.1, rho=10.0, upsilon=0.0)
        gain = np.zeros((3, 6))
        gain[0, 0] = 1.0
        breakdown = total_instantaneous(realization(gain), stats_with(0.0), p,
                                        SchemeId.COMP_VPNOMA)
        assert breakdown.per_user["1"] == pytest.approx(1.0, rel=1e-14)
        for subband_sum in breakdown.per_subband_sum:
            assert subband_sum == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_vanishing_power_gives_vanishing_rate(self):
        p = SystemParams(alpha=1e-300, rho=10.0, upsilon=0.0)
        gain = np.ones((3, 6))
        rate = comp_rates(realization(gain), stats_with(0.0), p)["1"]
        assert rate == pytest.approx(0.0, abs=1e-250)

    def test_rate_decreases_monotonically_to_zero_with_rho(self, rng):
        real = random_realization(rng)
        rates = [comp_rates(real, stats_with(0.001),
                            SystemParams(alpha=0.1, rho=rho))["2"]
                 for rho in (10.0, 1.0, 0.1, 0.01, 0.001)]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 1e-3


class TestFarRate:
    def test_hand_worked_symmetric_gains(self):
        # alpha=0.1 -> beta=0.3, rho=10, all three gains 1 -> (1/3) log2(1+9/4)
        p = SystemParams(alpha=0.1, rho=10.0, upsilon=0.0)
        gain = np.zeros((3, 6))
        gain[:, 3] = 1.0
        rate = comp_rates(realization(gain), stats_with(0.0), p)["A"]
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
            rates.append(comp_rates(realization(gain), stats_with(0.001), p)["B"])
        assert all(a < b for a, b in zip(rates, rates[1:]))


class TestTotalInstantaneous:
    def test_symmetric_realization_gives_symmetric_rates(self, default_stats):
        gain = np.zeros((3, 6))
        gain[:, :3] = np.where(np.eye(3, dtype=bool), 4.0, 0.25)
        gain[:, 3:] = np.where(np.eye(3, dtype=bool), 1.5, 0.75)
        p = SystemParams(alpha=0.1, rho=100.0, upsilon=0.01)
        stats = stats_with(0.001)
        for scheme in SchemeId:
            breakdown = total_instantaneous(realization(gain), stats, p, scheme)
            near = [breakdown.per_user[u] for u in "123"]
            far = [breakdown.per_user[u] for u in "ABC"]
            assert near[0] == pytest.approx(near[1], rel=1e-12)
            assert near[0] == pytest.approx(near[2], rel=1e-12)
            assert far[0] == pytest.approx(far[1], rel=1e-12)
            assert far[0] == pytest.approx(far[2], rel=1e-12)

    def test_total_is_sum_of_per_user(self, rng, default_stats, params_20db):
        for scheme in SchemeId:
            for _ in range(20):
                real = random_realization(rng)
                breakdown = total_instantaneous(real, default_stats,
                                                params_20db, scheme)
                assert breakdown.total == pytest.approx(
                    sum(breakdown.per_user.values()), rel=1e-12)
                assert breakdown.total == pytest.approx(
                    sum(breakdown.per_subband_sum), rel=1e-12)
                assert all(v >= 0.0 for v in breakdown.per_user.values())

    def test_comp_far_rate_dominates_vpnoma_per_realization(
            self, rng, default_stats, params_20db):
        for _ in range(1000):
            real = random_realization(rng)
            comp = total_instantaneous(real, default_stats, params_20db,
                                       SchemeId.COMP_VPNOMA)
            vp = total_instantaneous(real, default_stats, params_20db,
                                     SchemeId.VPNOMA)
            for user in "ABC":
                assert comp.per_user[user] >= vp.per_user[user]

    def test_comp_equals_vpnoma_when_off_serving_gains_vanish(self):
        gain = np.zeros((3, 6))
        np.fill_diagonal(gain[:, :3], 2.0)
        np.fill_diagonal(gain[:, 3:], 1.0)
        p = SystemParams(alpha=0.1, rho=10.0, upsilon=0.0)
        stats = stats_with(0.0)
        comp = total_instantaneous(realization(gain), stats, p,
                                   SchemeId.COMP_VPNOMA)
        vp = total_instantaneous(realization(gain), stats, p, SchemeId.VPNOMA)
        for user in "ABC":
            assert comp.per_user[user] == pytest.approx(vp.per_user[user],
                                                        rel=1e-12)

    def test_every_rate_nondecreasing_in_rho(self, rng, default_stats):
        for _ in range(1000):
            real = random_realization(rng)
            rho = float(rng.uniform(0.1, 1000.0))
            for scheme in SchemeId:
                low = total_instantaneous(real, default_stats,
                                          SystemParams(alpha=0.1, rho=rho),
                                          scheme)
                high = total_instantaneous(real, default_stats,
                                           SystemParams(alpha=0.1, rho=2 * rho),
                                           scheme)
                for user in USERS:
                    assert high.per_user[user] >= low.per_user[user] - 1e-15

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
            base = total_instantaneous(realization(gain), stats, params_20db,
                                       scheme)
            moved = total_instantaneous(realization(permuted), stats_permuted,
                                        params_20db, scheme)
            for u in range(3):
                assert moved.per_user[str(perm[u] + 1)] == pytest.approx(
                    base.per_user[str(u + 1)], rel=1e-12)
                assert moved.per_user["ABC"[perm[u]]] == pytest.approx(
                    base.per_user["ABC"[u]], rel=1e-12)
            assert moved.total == pytest.approx(base.total, rel=1e-12)

    def test_perfect_csi_and_sic_never_hurt_near_users(self, rng):
        p_impaired = SystemParams(alpha=0.1, rho=100.0, upsilon=0.05)
        p_clean = SystemParams(alpha=0.1, rho=100.0, upsilon=0.0)
        for _ in range(50):
            real = random_realization(rng)
            dirty = total_instantaneous(real, stats_with(0.01), p_impaired,
                                        SchemeId.COMP_VPNOMA)
            clean = total_instantaneous(real, stats_with(0.0), p_clean,
                                        SchemeId.COMP_VPNOMA)
            for user in "123":
                assert clean.per_user[user] >= dirty.per_user[user]

    def test_per_user_matches_rate_operations(self, rng, default_stats,
                                              params_20db):
        real = random_realization(rng)
        breakdown = total_instantaneous(real, default_stats, params_20db,
                                        SchemeId.COMP_VPNOMA)
        expected = reference_rates(real, default_stats, params_20db,
                                   SchemeId.COMP_VPNOMA)
        assert breakdown.per_user["1"] == pytest.approx(expected[0], rel=1e-12)
        assert breakdown.per_user["A"] == pytest.approx(expected[3], rel=1e-12)

    @pytest.mark.parametrize("scheme", [SchemeId.COMP_VPNOMA, SchemeId.VPNOMA],
                             ids=lambda s: s.token)
    def test_per_subband_sum_matches_reference(self, rng, default_stats,
                                               scheme):
        band = (0.5, 0.3, 0.2)
        p = SystemParams(alpha=0.1, rho=100.0, upsilon=0.01,
                         band_fractions=band)
        for _ in range(20):
            real = random_realization(rng)
            breakdown = total_instantaneous(real, default_stats, p, scheme)
            expected = reference_rates(real, default_stats, p, scheme)
            for m in range(3):
                near = sum(expected[j] / sum(band) * band[m] for j in range(3))
                assert breakdown.per_subband_sum[m] == pytest.approx(
                    near + expected[3 + m], rel=1e-12)

    def test_uneven_band_fractions_respected(self, rng, default_stats):
        p = SystemParams(alpha=0.1, rho=100.0, upsilon=0.01,
                         band_fractions=(0.5, 0.3, 0.2))
        real = random_realization(rng)
        breakdown = total_instantaneous(real, default_stats, p,
                                        SchemeId.COMP_VPNOMA)
        rate_a = reference_rates(real, default_stats, p,
                                 SchemeId.COMP_VPNOMA)[3]
        assert breakdown.per_user["A"] == pytest.approx(rate_a, rel=1e-12)
        assert breakdown.total == pytest.approx(
            sum(breakdown.per_user.values()), rel=1e-12)
        # symmetric gains: far users share one SINR, rates scale with the band
        gain = np.ones((3, 6))
        symmetric = realization(gain)
        rates = comp_rates(symmetric, default_stats, p)
        rate_a, rate_b, rate_c = rates["A"], rates["B"], rates["C"]
        assert rate_a / 0.5 == pytest.approx(rate_b / 0.3, rel=1e-12)
        assert rate_a / 0.5 == pytest.approx(rate_c / 0.2, rel=1e-12)


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
        stats = derive_link_statistics(
            build_layout(1.0, (0.3, 0.5, 0.7), (0.8, 0.95, 0.9)), 3.5, 0.001,
            overrides={(1, "A"): 0.004, (3, "2"): 0.0})
        params = SystemParams(alpha=0.07, upsilon=0.03,
                              band_fractions=(0.2, 0.3, 0.5))
        draws = kernels.sample_gains(77, 0, 300)
        gains = kernel_gains(77, 0, 300, stats.sigma_hat)
        band = params.band_fractions
        eps_sums = stats.eps_sums
        for rho in (1.0, 100.0, 1e4):
            args = (code, params.alpha, params.beta, rho, params.upsilon,
                    band, eps_sums)
            np.testing.assert_allclose(kernels.scheme_rates(draws, *args,
                                                            stats.sigma_hat),
                                       rates_reference(gains, *args),
                                       rtol=5e-13, atol=0.0)
