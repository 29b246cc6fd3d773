"""End-to-end acceptance checks for the capacity simulator.

Every criterion prints one PASS/FAIL line; the lines are also echoed in the
terminal summary so they survive pytest's output capture. All tolerances are
fixed here. Criterion 5 checks the power-allocation trend the SINR model
implies: near-user capacity rises and far-user capacity falls with every step
of the near-user power share alpha, and the total at alpha = 0.24 beats the
total at 0.05. Total ESC itself is not monotone in alpha; under the default
geometry at 20 dB it peaks near alpha = 0.15 (see the criterion's docstring).
"""

import numpy as np

from comp_noma import (FAR_USERS, NEAR_USERS, SchemeId, SystemParams,
                       build_layout, db_to_linear, derive_link_statistics,
                       estimate_esc, exp_integral_ei,
                       hypoexp_log2_mean, parse_config, run_sweep,
                       total_esc_closed, write_results)
from comp_noma import kernels
from oracles import ei_reference, hypoexp_log2_mean_quad, separated_rates

DEFAULT_NEAR = 0.5
DEFAULT_FAR = 0.95


def default_setup(near=DEFAULT_NEAR):
    layout = build_layout((near,) * 3, (DEFAULT_FAR,) * 3)
    return derive_link_statistics(layout, 4.0, 0.001)


def params_at(snr_db, alpha=0.1):
    return SystemParams(alpha=alpha, rho=db_to_linear(snr_db), upsilon=0.01)


# one line per criterion, echoed by the conftest terminal-summary hook
RESULT_LINES = []


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number} ({name}): {status}{' - ' if detail else ''}{detail}"
    print(line)
    RESULT_LINES.append(line)
    return ok


def test_criterion_1_closed_form_matches_simulation():
    """Closed-form ESC within 1% of the 10^6-trial estimate at five SNRs."""
    stats = default_setup()
    worst = 0.0
    for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0):
        estimate = estimate_esc(stats, params_at(snr_db),
                                SchemeId.COMP_VPNOMA, trials=1_000_000, seed=101)
        rel = abs(estimate.mean_total - estimate.analytic_total) \
            / estimate.analytic_total
        worst = max(worst, rel)
    ok = worst < 0.01
    assert report(1, "closed form vs Monte Carlo", ok,
                  f"worst relative gap {worst:.2e}")


def test_criterion_2_comp_scheme_wins_with_margin():
    """JT-CoMP VP-NOMA beats every baseline by more than 3x the CI width."""
    stats = default_setup()
    ok = True
    detail = []
    for snr_db in (10.0, 20.0, 30.0):
        estimates = [estimate_esc(stats, params_at(snr_db), scheme,
                                  trials=100_000, seed=202)
                     for scheme in SchemeId]
        by_scheme = {e.scheme: e for e in estimates}
        comp = by_scheme[SchemeId.COMP_VPNOMA]
        margins = []
        for other in (SchemeId.VPNOMA, SchemeId.NOMA, SchemeId.OMA):
            margin = comp.mean_total - by_scheme[other].mean_total
            gate = 3.0 * max(comp.ci95_halfwidth,
                             by_scheme[other].ci95_halfwidth)
            ok &= margin > gate
            margins.append(margin)
        detail.append(f"{snr_db:.0f}dB min margin {min(margins):.3f}")
    assert report(2, "scheme ordering", ok, "; ".join(detail))


def test_criterion_3_comp_never_loses_per_realization():
    """On 10^4 draws every far user's CoMP rate >= its non-CoMP rate."""
    stats = default_setup()
    params = params_at(20.0)
    draws = kernels.sample_gains(303, 0, 10_000)
    comp = kernels.scheme_rates(draws, SchemeId.COMP_VPNOMA.code, params,
                                stats)[:, 3:]
    vp = kernels.scheme_rates(draws, SchemeId.VPNOMA.code, params,
                              stats)[:, 3:]
    violations = int(np.sum(comp < vp))
    ok = violations == 0
    assert report(3, "per-realization CoMP dominance", ok,
                  f"{violations} violations in 30000 far-user rates")


def test_criterion_4_capacity_drops_as_near_users_approach_edge():
    """ESC at near radius 0.1R exceeds 0.9R by more than 3x the CI width."""
    params = params_at(20.0)
    estimates = {}
    for radius in (0.1, 0.9):
        stats = default_setup(near=radius)
        estimates[radius] = estimate_esc(stats, params,
                                         SchemeId.COMP_VPNOMA,
                                         trials=100_000, seed=404)
    margin = estimates[0.1].mean_total - estimates[0.9].mean_total
    gate = 3.0 * max(estimates[0.1].ci95_halfwidth,
                     estimates[0.9].ci95_halfwidth)
    ok = margin > gate
    assert report(4, "near-user position trend", ok,
                  f"margin {margin:.2f} vs gate {gate:.3f}")


def test_criterion_5_capacity_nondecreasing_in_near_power_share():
    """Across alpha in {0.05, 0.10, 0.15, 0.20, 0.24} at 20 dB, the summed
    near-user ESC rises strictly, the summed far-user ESC falls strictly, and
    ESC(0.24) exceeds ESC(0.05) by more than 3x the CI width.

    Total ESC is not nondecreasing in alpha under this model. The near-user
    SINR alpha*rho*g / (alpha*rho*cross + rho*sum(eps) + rho*upsilon + 1)
    tends to g/cross as rho grows, independent of alpha, while the CoMP
    far-user SINR tends to beta/alpha = (1 - alpha)/(3*alpha), which falls as
    alpha grows. So at high SNR the far users' loss outweighs the near users'
    gain. The closed form at 20 dB peaks at alpha = 0.15: 13.0496, 13.3108,
    13.3304, 13.3002, 13.2670; it rises across the grid up to 15 dB and falls
    across it at 30 and 40 dB. The Monte Carlo totals agree with it within
    their ci95 and are kept in the report line.

    Per draw, each near-user rate rises and each far-user rate falls with
    alpha, so under common random numbers the two step-wise trends are exact
    at any seed; they fail if the kernels swap the two power shares.
    """
    stats = default_setup()
    estimates = [estimate_esc(stats, params_at(20.0, alpha=alpha),
                              SchemeId.COMP_VPNOMA, trials=100_000, seed=505)
                 for alpha in (0.05, 0.10, 0.15, 0.20, 0.24)]
    near = [sum(e.per_user_mean[u] for u in NEAR_USERS) for e in estimates]
    far = [sum(e.per_user_mean[u] for u in FAR_USERS) for e in estimates]
    ok_near = all(a < b for a, b in zip(near, near[1:]))
    ok_far = all(a > b for a, b in zip(far, far[1:]))
    margin = estimates[-1].mean_total - estimates[0].mean_total
    gate = 3.0 * max(e.ci95_halfwidth for e in estimates)
    ok_ends = margin > gate
    assert report(5, "power-allocation trend", ok_near and ok_far and ok_ends,
                  f"near rising: {ok_near}, far falling: {ok_far}, "
                  f"endpoint margin {margin:.3f} vs gate {gate:.3f}; ESC(alpha): "
                  + ", ".join(f"{e.mean_total:.4f}" for e in estimates))


def test_criterion_6_special_function_accuracy():
    """Ei within 1e-12 absolute of a 30-digit oracle on 10^3 points, and the
    hypoexponential log-expectation within 1e-6 relative of quadrature on
    10^3 randomized instances."""
    grid = -np.logspace(np.log10(1e-6), np.log10(700.0), 1000)
    worst_ei = max(abs(exp_integral_ei(x) - ei_reference(x)) for x in grid)
    ok_ei = worst_ei <= 1e-12

    rng = np.random.default_rng(606)
    worst_rel = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        rates = separated_rates(rng, n)
        shift = float(np.exp(rng.uniform(0.0, np.log(1e4))))
        expected = hypoexp_log2_mean_quad(rates, shift)
        value = hypoexp_log2_mean(rates, shift)
        worst_rel = max(worst_rel, abs(value - expected) / abs(expected))
    ok_hypo = worst_rel < 1e-6
    assert report(6, "special-function accuracy", ok_ei and ok_hypo,
                  f"Ei worst abs {worst_ei:.2e}, hypoexp worst rel {worst_rel:.2e}")


def test_criterion_7_end_to_end_determinism(tmp_path):
    """Identical config twice -> byte-identical CSV; 8 workers == serial."""
    text = "trials=20000\nschemes=comp-vpnoma,noma\nseed=7\n"
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    write_results(run_sweep(parse_config(text)), first)
    write_results(run_sweep(parse_config(text)), second)
    ok_bytes = first.read_bytes() == second.read_bytes()

    stats = default_setup()
    serial = estimate_esc(stats, params_at(10.0),
                          SchemeId.COMP_VPNOMA, trials=100_000, seed=707,
                          workers=1)
    threaded = estimate_esc(stats, params_at(10.0),
                            SchemeId.COMP_VPNOMA, trials=100_000, seed=707,
                            workers=8)
    gap = abs(serial.mean_total - threaded.mean_total) / serial.mean_total
    ok_workers = gap <= 1e-9 and all(
        abs(serial.per_user_mean[u] - threaded.per_user_mean[u])
        <= 1e-9 * max(serial.per_user_mean[u], 1e-30)
        for u in serial.per_user_mean)
    assert report(7, "determinism", ok_bytes and ok_workers,
                  f"csv identical: {ok_bytes}, worker gap {gap:.1e}")


def test_criterion_8_confidence_intervals_are_calibrated():
    """The closed form lies inside mean +- ci95 for >= 90 of 100 seeds."""
    stats = default_setup()
    params = params_at(10.0)
    analytic = total_esc_closed(stats, params)
    hits = 0
    for seed in range(100):
        estimate = estimate_esc(stats, params, SchemeId.COMP_VPNOMA,
                                trials=10_000, seed=seed)
        if abs(estimate.mean_total - analytic) <= estimate.ci95_halfwidth:
            hits += 1
    ok = hits >= 90
    assert report(8, "confidence-interval calibration", ok, f"{hits}/100 hits")
