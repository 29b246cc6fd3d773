import dataclasses
import math

import numpy as np
import pytest
from scipy import special

from comp_noma import (DegenerateRatesError, LinkStatistics, SchemeId,
                       SystemParams, build_layout, derive_link_statistics,
                       USERS, estimate_esc, exp_integral_ei,
                       hypoexp_log2_mean, total_esc_closed)
from comp_noma import analytic, kernels
from oracles import (assert_pinned, closed_form_terms, e1_scaled_plain,
                     e1_scaled_reference, erlang2_log2_mean_quad,
                     hypoexp_log2_mean_quad, link_statistics, per_link,
                     separated_rates)

# frozen from a 30-digit mpmath evaluation
EI_MINUS_1 = -0.21938393439552027
EI_MINUS_10 = -4.1569689296853243e-06
EI_MINUS_HALF = -0.55977359477616081
EI_MINUS_100 = -3.6835977616820322e-46
# frozen quadrature values of E[log2(X + a)]
HYPOEXP_1_1 = 0.86034738227088595        # single rate 1, shift 1
HYPOEXP_13_2 = 1.6771420614251477        # rates (1, 3), shift 2
HYPOEXP_527_15 = 1.9049618168493345      # rates (0.5, 2, 7), shift 1.5


class TestExponentialIntegral:
    def test_frozen_reference_values(self):
        assert exp_integral_ei(-1.0) == pytest.approx(EI_MINUS_1, abs=1e-15)
        assert exp_integral_ei(-10.0) == pytest.approx(EI_MINUS_10, abs=1e-18)
        assert exp_integral_ei(-0.5) == pytest.approx(EI_MINUS_HALF, abs=1e-15)
        assert exp_integral_ei(-100.0) == pytest.approx(EI_MINUS_100,
                                                        rel=1e-12)

    def test_rejects_nonnegative_arguments(self):
        for x in (0.0, 1e-9, 1.0, 10.0):
            with pytest.raises(ValueError, match="x < 0"):
                exp_integral_ei(x)

    def test_underflow_to_zero_skips_the_continued_fraction(self,
                                                             monkeypatch):
        def unreachable(z, tolerance=0.0):
            raise AssertionError(f"continued fraction entered at z={z}")

        want = -math.exp(-800.0) * analytic._e1_scaled_cf(800.0)
        monkeypatch.setattr(analytic, "_e1_scaled_cf", unreachable)
        for x in (-800.0, -1e300, -math.inf):
            value = exp_integral_ei(x)
            assert value == want == 0.0 and math.copysign(1.0, value) == -1.0

    def test_strictly_negative_and_decreasing_toward_zero(self):
        grid = -np.logspace(np.log10(1e-6), np.log10(500.0), 200)
        values = np.array([exp_integral_ei(x) for x in grid])
        assert np.all(values < 0.0)
        # grid runs from -1e-6 down to -500; Ei must rise toward 0- with |x|
        assert np.all(np.diff(values) > 0.0)

    def test_asymptotic_leading_term_at_700(self):
        # -x e^x Ei(-x) -> 1; evaluate in logs to avoid forming e^700
        value = exp_integral_ei(-700.0)
        log_product = math.log(-value) + math.log(700.0) + 700.0
        assert math.exp(log_product) == pytest.approx(1.0, abs=2e-3)

    def test_series_and_continued_fraction_meet_at_the_seam(self):
        for x in (-0.999999, -1.0, -1.000001):
            assert exp_integral_ei(x) == pytest.approx(EI_MINUS_1, rel=1e-5)
        left = exp_integral_ei(-1.0 + 1e-12)
        right = exp_integral_ei(-1.0 - 1e-12)
        assert left == pytest.approx(right, rel=1e-11)

    def test_scaled_e1_converges_on_huge_arguments(self, rng):
        # Above about 1e14 the continued fraction's ratio can settle one ulp
        # below 1.0; 2.9e20 is an argument of a -200 dB closed form.
        zs = [2.899161530808779e20, *10.0 ** rng.uniform(14, 300, 300)]
        for z in zs:
            assert analytic._e1_scaled(z) == pytest.approx(
                e1_scaled_reference(z), rel=1e-15), z


class TestHypoexpLogMean:
    def test_frozen_quadrature_values(self):
        assert hypoexp_log2_mean([1.0], 1.0) == pytest.approx(HYPOEXP_1_1,
                                                              rel=1e-12)
        assert hypoexp_log2_mean([1.0, 3.0], 2.0) == pytest.approx(
            HYPOEXP_13_2, rel=1e-12)
        assert hypoexp_log2_mean([0.5, 2.0, 7.0], 1.5) == pytest.approx(
            HYPOEXP_527_15, rel=1e-12)

    def test_single_rate_matches_textbook_form(self, rng):
        # E[log2(Z + a)] = (ln a + e^{ak} E1(ak)) / ln 2 for Z ~ Exp(k)
        for _ in range(50):
            k = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            a = float(rng.uniform(1.0, 100.0))
            if a * k > 600.0:
                continue
            expected = (math.log(a)
                        + math.exp(a * k) * special.exp1(a * k)) / math.log(2)
            assert hypoexp_log2_mean([k], a) == pytest.approx(expected,
                                                              rel=1e-10)

    def test_point_mass_limit(self):
        assert hypoexp_log2_mean([1e6], 2.0) == pytest.approx(1.0, abs=1e-5)

    def test_agrees_with_adaptive_quadrature(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 4))
            rates = separated_rates(rng, n)
            shift = float(np.exp(rng.uniform(0.0, np.log(1e4))))
            expected = hypoexp_log2_mean_quad(rates, shift)
            assert hypoexp_log2_mean(rates, shift) == pytest.approx(
                expected, rel=1e-6)

    def test_value_between_shift_floor_and_jensen_ceiling(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 4))
            rates = separated_rates(rng, n)
            shift = float(rng.uniform(1.0, 1e4))
            value = hypoexp_log2_mean(rates, shift)
            assert value >= math.log2(shift)
            assert value <= math.log2(shift + np.sum(1.0 / rates)) + 1e-12

    def test_equal_rates_match_erlang_quadrature(self):
        value = hypoexp_log2_mean([2.0, 2.0], 1.5)
        expected = erlang2_log2_mean_quad(2.0, 1.5)
        assert value == pytest.approx(expected, rel=1e-6)

    def test_exact_duplicates_after_perturbation_raise(self):
        # the third rate lands exactly where the cluster spread puts the
        # second one
        with pytest.raises(DegenerateRatesError):
            hypoexp_log2_mean([2.0, 2.0, 2.0 * (1.0 + 5e-5)], 1.0)

    def test_subnormal_ties_are_clustered(self):
        # 1e-7 times a rate of 1e-320 underflows to 0; a tie there is still
        # a tie, which the spread cannot separate, not two distinct rates
        with pytest.raises(DegenerateRatesError):
            hypoexp_log2_mean([1e-320, 1e-320], 1.0)
        # X ~ Erlang(2, k) with k -> 0: E[log2 X] = log2(1/k) + (1 - gamma)/ln 2
        expected = -math.log2(1e-316) + (1.0 - np.euler_gamma) / math.log(2.0)
        assert hypoexp_log2_mean([1e-316, 1e-316], 1.0) == pytest.approx(
            expected, rel=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="positive"):
            hypoexp_log2_mean([1.0, -2.0], 1.5)
        with pytest.raises(ValueError, match="positive"):
            hypoexp_log2_mean([0.0], 1.5)
        for shift in (0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="shift"):
                hypoexp_log2_mean([1.0], shift)
        with pytest.raises(ValueError, match="non-empty"):
            hypoexp_log2_mean([], 1.5)


@pytest.mark.parametrize("call, name", [
    (lambda: hypoexp_log2_mean("12", 1.0), "rates"),
    (lambda: hypoexp_log2_mean([True, 2.0], 1.0), "rates"),
    (lambda: hypoexp_log2_mean(np.array([1.0, 2.0]) > 0, 1.0), "rates"),
    (lambda: hypoexp_log2_mean([1.0, None], 1.0), "rates"),
    (lambda: hypoexp_log2_mean([1.0, 2.0], "2"), "shift"),
    (lambda: hypoexp_log2_mean([1.0, 2.0], True), "shift"),
    (lambda: exp_integral_ei("-2"), "x"),
    (lambda: exp_integral_ei(False), "x"),
], ids=["rates-string", "rates-bool-in-list", "rates-bool-array",
        "rates-none", "shift-string", "shift-bool", "x-string", "x-bool"])
def test_strings_and_bools_are_rejected_by_name(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be (a )?real"):
        call()


def test_python_ints_and_numpy_reals_are_accepted():
    value = hypoexp_log2_mean([1.0, 3.0], 2.0)
    for rates, shift in (([1, 3], 2), ([np.float32(1.0), np.int64(3)],
                                       np.float64(2.0)),
                         (np.array([1, 3]), 2.0), ((1.0, 3.0), np.int32(2))):
        assert hypoexp_log2_mean(rates, shift) == value
    assert hypoexp_log2_mean(2, 1) == hypoexp_log2_mean([2.0], 1.0)
    assert exp_integral_ei(-2) == exp_integral_ei(np.float32(-2.0)) \
        == exp_integral_ei(-2.0)


def per_user_standard_errors(stats, params, scheme, trials, seed):
    draws = kernels.sample_gains(seed, 0, trials)
    rates = kernels.scheme_rates(draws, scheme.code, params, stats)
    return rates.std(axis=0, ddof=1)


class TestClosedFormsAgainstMonteCarlo:
    def test_near_and_far_match_simulation_within_3_se(
            self, default_stats, params_10db):
        trials = 1_000_000
        estimate = estimate_esc(default_stats, params_10db,
                                SchemeId.COMP_VPNOMA, trials, seed=31)
        se = per_user_standard_errors(default_stats, params_10db,
                                      SchemeId.COMP_VPNOMA, 100_000,
                                      seed=32) / math.sqrt(trials)
        terms = closed_form_terms(default_stats, params_10db)
        for u, user in enumerate(USERS):
            closed = sum(terms[user])
            assert abs(estimate.per_user_mean[user] - closed) <= 3.0 * se[u], \
                user

    def test_degenerate_far_links_still_match_simulation(self, params_10db):
        # far users at the centroid: all nine far-link variances coincide
        layout = build_layout((0.5,) * 3, (1.0,) * 3)
        stats = derive_link_statistics(layout, 4.0, 0.001)
        trials = 200_000
        estimate = estimate_esc(stats, params_10db,
                                SchemeId.COMP_VPNOMA, trials, seed=77)
        se = per_user_standard_errors(stats, params_10db,
                                      SchemeId.COMP_VPNOMA, 50_000,
                                      seed=78) / math.sqrt(trials)
        far_closed, = closed_form_terms(stats, params_10db)["B"]
        assert abs(estimate.per_user_mean["B"] - far_closed) <= 4.0 * se[4]

    def test_near_users_at_their_base_stations_match_simulation(
            self, params_20db):
        # At near radius 1e-4 each near user's serving gain exceeds its
        # interference by about 1e16, where interference formed as the
        # total less the serving gain was lost entirely.
        stats = derive_link_statistics(
            build_layout((1e-4,) * 3, (0.95,) * 3), 4.0, 0.001)
        estimate = estimate_esc(stats, params_20db, SchemeId.COMP_VPNOMA,
                                100_000, seed=1)
        z = ((estimate.mean_total - estimate.analytic_total)
             / (estimate.ci95_halfwidth / 1.96))
        assert abs(z) <= 4.0, z


class TestClosedFormStructure:
    def test_vanishing_serving_variance_gives_vanishing_rate(self, params_20db):
        sigma_hat = np.ones((3, 6))
        sigma_hat[1, 1] = 1e-12
        stats = LinkStatistics(sigma_hat, np.zeros((3, 6)))
        assert closed_form_terms(stats, params_20db)["2"][0] < 1e-9

    def test_vanishing_alpha_gives_vanishing_near_rate(self, default_stats):
        params = SystemParams(alpha=1e-12, rho=100.0, upsilon=0.01)
        assert closed_form_terms(default_stats, params)["1"][0] < 1e-6

    def test_far_rate_shrinks_as_beta_approaches_alpha(self, default_stats):
        mid, = closed_form_terms(default_stats,
                                 SystemParams(alpha=0.1, rho=100.0))["A"]
        edge, = closed_form_terms(default_stats,
                                  SystemParams(alpha=0.2499, rho=100.0))["A"]
        assert 0.0 < edge < mid

    def test_monotone_in_serving_link_variance(self, params_20db):
        values = []
        for serving in (0.5, 1.0, 2.0, 4.0):
            sigma_hat = np.full((3, 6), 0.3)
            sigma_hat[0, 0] = serving
            stats = LinkStatistics(sigma_hat, np.full((3, 6), 0.001))
            values.append(closed_form_terms(stats, params_20db)["1"][0])
        assert all(a < b for a, b in zip(values, values[1:]))
        values = []
        for serving in (0.5, 1.0, 2.0, 4.0):
            sigma_hat = np.full((3, 6), 0.3)
            sigma_hat[0, 3] = serving
            stats = LinkStatistics(sigma_hat, np.full((3, 6), 0.001))
            values.append(closed_form_terms(stats, params_20db)["A"][0])
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_total_is_sum_of_twelve_terms(self, default_stats, params_20db):
        terms = closed_form_terms(default_stats, params_20db)
        parts = []
        for m, far_user in enumerate("ABC"):
            parts += [terms[cell][m] for cell in "123"]
            parts += terms[far_user]
        # the same twelve terms added in the same order
        assert total_esc_closed(default_stats, params_20db) == sum(parts)
        assert len(parts) == 12 and all(p >= 0.0 for p in parts)

    def test_total_nondecreasing_in_rho(self, default_stats):
        totals = [total_esc_closed(default_stats, SystemParams(alpha=0.1, rho=rho))
                  for rho in (1.0, 10.0, 100.0)]
        assert totals[0] < totals[1] < totals[2]

    def test_cell_symmetry(self, default_stats, params_20db):
        terms = closed_form_terms(default_stats, params_20db)
        near = [terms[j][0] for j in "123"]
        far = [terms[k][0] for k in "ABC"]
        assert near[0] == pytest.approx(near[1], rel=1e-9)
        assert near[0] == pytest.approx(near[2], rel=1e-9)
        assert far[0] == pytest.approx(far[1], rel=1e-9)
        assert far[0] == pytest.approx(far[2], rel=1e-9)

    def test_total_invariant_under_cell_relabeling(self, rng, params_20db):
        perm = [2, 0, 1]
        sigma_hat = rng.uniform(0.2, 4.0, size=(3, 6))
        sigma_eps = rng.uniform(0.0005, 0.002, size=(3, 6))
        permuted_hat = np.empty_like(sigma_hat)
        permuted_eps = np.empty_like(sigma_eps)
        for i in range(3):
            for u in range(3):
                permuted_hat[perm[i], perm[u]] = sigma_hat[i, u]
                permuted_hat[perm[i], 3 + perm[u]] = sigma_hat[i, 3 + u]
                permuted_eps[perm[i], perm[u]] = sigma_eps[i, u]
                permuted_eps[perm[i], 3 + perm[u]] = sigma_eps[i, 3 + u]
        base = total_esc_closed(LinkStatistics(sigma_hat, sigma_eps),
                                params_20db)
        moved = total_esc_closed(LinkStatistics(permuted_hat, permuted_eps),
                                 params_20db)
        assert moved == pytest.approx(base, rel=1e-12)


def closed_form_inputs():
    """(stats, params) inputs by group: the three sweep grids, random
    layouts with uneven per-link error variances, and rates that sit within
    1e-4 of each other so that the spread fires in the near and far
    functions and again inside the log-mean."""
    def stats_at(near=(0.5,) * 3, far=(0.95,) * 3):
        return derive_link_statistics(build_layout(near, far), 4.0, 0.001)

    def params_at(alpha=0.1, rho_db=20.0, upsilon=0.01):
        return SystemParams(alpha=float(alpha), rho=10.0 ** (rho_db / 10.0),
                            upsilon=upsilon)

    default = stats_at()
    groups = {
        "radius": [(stats_at(near=(r,) * 3), params_at())
                   for r in np.linspace(0.1, 0.9, 200)],
        "rho": [(default, params_at(rho_db=x)) for x in np.linspace(0, 40, 41)],
        "alpha": [(default, params_at(alpha=a))
                  for a in np.linspace(0.05, 0.24, 20)],
    }
    rng = np.random.default_rng(5150)
    layouts = []
    for _ in range(40):
        # three links' variances are drawn before the layout and the
        # variance of every other link
        links = {(int(rng.integers(1, 4)), user): float(rng.uniform(0.0, 0.01))
                 for user in rng.choice(list("123ABC"), size=3, replace=False)}
        layout = build_layout(tuple(rng.uniform(0.1, 0.9, 3)),
                              tuple(rng.uniform(0.6, 1.0, 3)))
        stats = link_statistics(layout, 4.0,
                                per_link(rng.uniform(1e-4, 3e-3), links))
        params = params_at(rng.uniform(0.02, 0.24), rng.uniform(0.0, 40.0),
                           rng.uniform(0.0, 0.05))
        # a draw that no input reads: the digests below were recorded with
        # it in the stream, which the next input and "coincident" draw from
        rng.dirichlet((2.0, 2.0, 2.0))
        layouts.append((stats, params))
    groups["random"] = layouts
    # Each link column holds two equal variances and a third just past where
    # the spread moves one of them. In the first input the moved rate then
    # sits within the spread's gap of the third, for near and far users; in
    # the second the near user's serving link is the odd one, so its rates
    # are spread differently with and without that link.
    gap = 1.0 + 5e-5 + 1e-9
    coincident = np.array([[0.5, 0.5, 0.5 / gap] * 2, [0.5, 0.5 / gap, 0.5] * 2,
                           [0.5 / gap, 0.5, 0.5] * 2])
    serving_apart = np.empty((3, 6))
    for j, s in enumerate((0.5, 0.7, 0.9)):
        serving_apart[:, j] = s
        serving_apart[j, j] = s / gap
    serving_apart[:, 3:] = rng.uniform(0.1, 1.0, (3, 3))
    groups["coincident"] = [
        (LinkStatistics(sigma_hat, np.full((3, 6), 0.001)), params_at())
        for sigma_hat in (coincident, serving_apart)]
    return groups


def closed_form_values(stats, params):
    terms = closed_form_terms(stats, params)
    values = [total_esc_closed(stats, params)]
    values += [term for cell in "123" for term in terms[cell]]
    values += [term for far in "ABC" for term in terms[far]]
    return values


CLOSED_FORM_INPUTS = closed_form_inputs()
CLOSED_FORM_DIGESTS = {
    "radius": "aef90951090635bb21c2c874829984f117902eb0b652dbc68a0fc794792ecee3",
    "rho": "c8017aff32f7fd3ca6e9defa79e5ceb8d28f5728a070641e387c9439395449aa",
    "alpha": "13a336232987e162e0f81339ca0e11c45d1917362e6d0b8a3577c5b494a615d8",
    "random": "e575a91355ba46e06ca1add4eb26f5c312edba221fdbbdfca0ae9035cafad717",
    "coincident": "fe3e49248f48afba80228ab77063b620c5b263a2918c23b3b3029c730c733021",
}


@pytest.mark.parametrize("group", list(CLOSED_FORM_INPUTS))
def test_closed_form_is_bit_exact(group):
    # SHA-256 of the float64 bytes of total_esc_closed, the nine near terms
    # (cell-major) and the three far terms per input; frozen from the
    # implementation that evaluated every user and sub-band separately, so
    # any change to the arithmetic or its order shows here ("random" again
    # when its inputs lost their uneven band splits).
    values = [closed_form_values(stats, params)
              for stats, params in CLOSED_FORM_INPUTS[group]]
    assert_pinned(values, CLOSED_FORM_DIGESTS[group], group)


def test_e1_scaled_matches_the_plain_loops_bitwise():
    rng = np.random.default_rng(17)
    # log-uniform over [1e-6, 1e300], and (1, 2], where the continued
    # fraction runs longest
    z = np.concatenate([
        np.exp(rng.uniform(math.log(1e-6), math.log(1e300), 10_000)),
        2.0 - rng.random(2_000), [1e-6, 1.0, 2.0, 1e14, 1e300]]).tolist()
    got = np.array([analytic._e1_scaled(v) for v in z])
    want = np.array([e1_scaled_plain(v) for v in z])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("group", list(CLOSED_FORM_INPUTS))
def test_the_python_statements_give_the_pinned_closed_form(monkeypatch,
                                                          group):
    """The Python statements, which run where the compiled rate stage does
    not, give the digests of test_closed_form_is_bit_exact."""
    monkeypatch.setattr(kernels, "_rates", kernels._uncompiled_rates)
    values = [closed_form_values(stats, params)
              for stats, params in CLOSED_FORM_INPUTS[group]]
    assert_pinned(values, CLOSED_FORM_DIGESTS[group], group)


def _rejected_inputs(name):
    """(stats, params) on which the Python statements raise: every rate
    1/inf = 0, which the spread cannot separate; a product alpha rho
    sigma_hat that underflows to 0; and exp(z)E1(z) arguments z = inf, at
    which the continued fraction never converges."""
    if name == "DegenerateRatesError":
        sigma_hat, sigma_eps, rho = np.full((3, 6), 1e308), 0.0, 100.0
    elif name == "ZeroDivisionError":
        sigma_hat, sigma_eps, rho = np.full((3, 6), 5e-324), 0.0, 1.0
    else:
        sigma_hat, sigma_eps, rho = np.full((3, 6), 1e-309), 1.0, 1e10
    return (LinkStatistics(sigma_hat, np.full((3, 6), sigma_eps)),
            SystemParams(alpha=0.1, rho=rho, upsilon=0.01))


@pytest.mark.parametrize("name", ["DegenerateRatesError", "ZeroDivisionError",
                                  "ArithmeticError"])
def test_the_compiled_stage_defers_what_python_rejects(name):
    """Where a Python statement raises, the compiled stage returns no rates,
    and total_esc_closed raises what the Python statements raise."""
    stats, params = _rejected_inputs(name)
    inputs = (stats.sigma_hat, stats.eps_sums, params.alpha, params.beta,
              params.rho, params.upsilon)
    with pytest.raises(Exception) as python:
        analytic._python_user_rates(*inputs)
    assert type(python.value).__name__ == name
    assert kernels._rates(*inputs) is None
    with pytest.raises(type(python.value)) as total:
        total_esc_closed(stats, params)
    assert str(total.value) == str(python.value)


def test_total_evaluates_each_e1_argument_once(monkeypatch, default_stats,
                                               params_20db):
    # 27 = three rates per near user plus three signal and three interference
    # rates per far user, since a near user's rates without its serving link
    # are a subset of its own. When the spread inside the log-mean moves
    # them differently, a near user has up to 3 + 2 arguments: 33 in all.
    # Counted on the Python statements, which the compiled stage follows.
    arguments = []
    e1_scaled = analytic._e1_scaled

    def counted(z):
        arguments.append(z)
        return e1_scaled(z)

    monkeypatch.setattr(kernels, "_rates", kernels._uncompiled_rates)
    monkeypatch.setattr(analytic, "_e1_scaled", counted)
    total_esc_closed(default_stats, params_20db)
    assert len(arguments) == len(set(arguments)) == 13
    for group, inputs in CLOSED_FORM_INPUTS.items():
        for stats, params in inputs:
            arguments.clear()
            total_esc_closed(stats, params)
            bound = 33 if group == "coincident" else 27
            assert len(arguments) == len(set(arguments)) <= bound, group
