import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from comp_noma import (ConfigError, InfeasibleCsiError, SchemeId, SweepConfig,
                       SweepKind, SystemParams, build_layout, db_to_linear,
                       derive_link_statistics, emit_plot, parse_config,
                       read_results, run_sweep, write_results)
from comp_noma import analytic, harness, kernels
from comp_noma.montecarlo import estimate_esc
from oracles import largest_accepted, sweep_point_passes


class TestParseConfig:
    def test_empty_document_yields_documented_defaults(self):
        cfg = parse_config("")
        assert cfg.sweep_kind is SweepKind.RHO_DB
        assert (cfg.from_value, cfg.to_value, cfg.steps) == (0.0, 40.0, 9)
        assert cfg.alpha == 0.1
        assert cfg.near_radius == 0.5
        assert cfg.far_radius == 0.95
        assert cfg.pathloss_exponent == 4.0
        assert cfg.sigma_eps == 0.001
        assert cfg.upsilon == 0.01
        assert cfg.trials == 100_000
        assert cfg.schemes == tuple(SchemeId)
        assert list(cfg.sweep_values()) == [0, 5, 10, 15, 20, 25, 30, 35, 40]

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\nalpha=0.2  # trailing\n\n")
        assert cfg.alpha == 0.2

    def test_alpha_out_of_range_is_config_error(self):
        with pytest.raises(ConfigError, match=r"line 1: key 'alpha'"):
            parse_config("alpha=0.3")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'alfa'"):
            parse_config("alpha=0.1\nalfa=0.2")

    def test_unparsable_value_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 1: key 'trials'"):
            parse_config("trials=many")
        with pytest.raises(ConfigError, match=r"line 3: key 'sigma_eps'"):
            parse_config("alpha=0.1\n# pad\nsigma_eps=tiny")

    def test_duplicated_key_names_key_and_both_lines(self):
        with pytest.raises(ConfigError,
                           match=r"line 3: key 'trials' already set on line 1"):
            parse_config("trials=10\nalpha=0.1\ntrials=20")

    def test_seed_must_lie_in_64_bit_range(self):
        assert parse_config("seed=0").seed == 0
        assert parse_config(f"seed={2**64 - 1}").seed == 2**64 - 1
        for seed in (-1, 2**64, 2**64 + 1):
            with pytest.raises(ConfigError, match=r"line 2: key 'seed'"):
                parse_config(f"alpha=0.1\nseed={seed}")
            with pytest.raises(ConfigError, match=r"command line: key 'seed'"):
                parse_config("", {"seed": str(seed)})

    def test_sweep_kind_sets_range_defaults(self):
        cfg = parse_config("sweep=alpha")
        assert cfg.sweep_kind is SweepKind.ALPHA
        assert (cfg.from_value, cfg.to_value) == (0.05, 0.24)
        cfg = parse_config("sweep=near-radius\nfrom=0.2\nto=0.8\nsteps=4")
        assert cfg.sweep_kind is SweepKind.NEAR_RADIUS
        assert (cfg.from_value, cfg.to_value, cfg.steps) == (0.2, 0.8, 4)

    def test_swept_alpha_must_stay_below_quarter(self):
        with pytest.raises(ConfigError, match="0.25"):
            parse_config("sweep=alpha\nfrom=0.05\nto=0.3")

    def test_reversed_range_rejected(self):
        with pytest.raises(ConfigError, match="from < to"):
            parse_config("from=30\nto=10")

    def test_near_users_must_sit_inside_the_far_radius(self):
        with pytest.raises(ConfigError, match=r"line 1: key 'near_radius'"):
            parse_config("near_radius=0.97")
        with pytest.raises(ConfigError, match=r"line 2: key 'near_radius'"):
            parse_config("far_radius=0.6\nnear_radius=0.6")
        with pytest.raises(ConfigError, match=r"command line: key 'to'"):
            parse_config("sweep=near-radius", {"to": "0.99"})
        # a near-radius sweep replaces near_radius, so only its range counts
        cfg = parse_config("sweep=near-radius\nnear_radius=0.97\nto=0.9")
        assert cfg.to_value == 0.9

    def test_snr_must_stay_finite_in_linear_units(self):
        # finite as a linear SNR, but not once it scales the gains
        with pytest.raises(ConfigError, match=r"line 2: key 'rho_db'"):
            parse_config("sweep=alpha\nrho_db=3082")
        with pytest.raises(ConfigError, match=r"line 2: key 'rho_db'"):
            parse_config("sweep=alpha\nrho_db=3083")
        with pytest.raises(ConfigError, match=r"command line: key 'to'"):
            parse_config("", {"to": "4000"})
        with pytest.raises(ConfigError, match=r"line 2: key 'to'"):
            parse_config("from=3083\nto=4000")
        # a rho sweep replaces rho_db, so only its range counts
        assert parse_config("rho_db=4000").rho_db == 4000.0

    def test_snr_that_underflows_to_zero_names_its_key(self):
        with pytest.raises(ConfigError, match=r"line 2: key 'rho_db'.*underflow"):
            parse_config("sweep=alpha\nrho_db=-3237")
        with pytest.raises(ConfigError, match=r"command line: key 'from'"):
            parse_config("", {"from": "-5000"})
        # the Monte Carlo schemes run down to the underflow; the closed form
        # overflows before it
        assert parse_config("sweep=alpha\nrho_db=-3236\nschemes=oma").rho_db \
            == -3236.0
        with pytest.raises(ConfigError,
                           match=r"line 2: key 'rho_db'.*closed form"):
            parse_config("sweep=alpha\nrho_db=-3236")

    def test_upsilon_that_overflows_with_the_snr_names_its_key(self):
        # the default sweep's largest SNR is 40 dB
        with pytest.raises(ConfigError, match=r"line 1: key 'upsilon'"):
            parse_config("upsilon=1e306")
        with pytest.raises(ConfigError, match=r"line 3: key 'upsilon'"):
            parse_config("sweep=alpha\nrho_db=20\nupsilon=1e307")
        assert parse_config("upsilon=1e304").upsilon == 1e304

    def test_swept_value_that_breaks_a_rule_names_its_end(self):
        with pytest.raises(ConfigError, match=r"line 2: key 'from'"):
            parse_config("sweep=alpha\nfrom=-0.1\nto=0.2")
        with pytest.raises(ConfigError, match=r"line 2: key 'from'"):
            parse_config("sweep=near-radius\nfrom=1e-90")
        # the to end is checked first
        with pytest.raises(ConfigError, match=r"line 3: key 'to'"):
            parse_config("sweep=alpha\nfrom=-0.1\nto=0.3")

    def test_schemes_parsed_and_deduplicated(self):
        cfg = parse_config("schemes=comp-vpnoma,oma,comp-vpnoma")
        assert cfg.schemes == (SchemeId.OMA, SchemeId.COMP_VPNOMA)
        with pytest.raises(ConfigError, match="unknown scheme"):
            parse_config("schemes=comp")

    def test_beta_follows_from_alpha(self):
        cfg = parse_config("alpha=0.1")
        from comp_noma import SystemParams
        assert SystemParams(alpha=cfg.alpha).beta == pytest.approx(0.3)

    def test_overrides_take_precedence(self):
        cfg = parse_config("alpha=0.1\ntrials=5000", {"alpha": "0.2"})
        assert cfg.alpha == 0.2
        assert cfg.trials == 5000
        with pytest.raises(ConfigError, match="command line"):
            parse_config("", {"alpha": "0.9"})


@pytest.mark.parametrize("key", harness.CONFIG_KEYS)
def test_every_unparsable_value_names_its_key(key):
    with pytest.raises(ConfigError, match=rf"^line 2: key '{key}': "):
        parse_config(f"# pad\n{key}=bogus")
    with pytest.raises(ConfigError, match=rf"^command line: key '{key}': "):
        parse_config("", {key: "bogus"})


@pytest.mark.parametrize("kind, fixed", [(SweepKind.ALPHA, "alpha=0.3"),
                                         (SweepKind.NEAR_RADIUS,
                                          "near_radius=1.5")],
                         ids=["alpha", "near-radius"])
def test_the_fixed_value_of_a_swept_key_is_not_read(kind, fixed):
    document = (f"sweep={kind.value}\ntrials=300\nsteps=2\n"
                f"schemes=comp-vpnoma,oma\n")
    cfg = parse_config(document + fixed)
    assert (cfg.from_value, cfg.to_value) == kind.default_range
    # the sweep runs as it does without the fixed value
    assert run_sweep(cfg) == run_sweep(parse_config(document))
    # without the sweep, the same value breaks its rule
    with pytest.raises(ConfigError, match=rf"^line 2: key '{kind.field}'"):
        parse_config(f"trials=300\n{fixed}")
    with pytest.raises(ConfigError, match=rf"^line 3: key '{kind.field}'"):
        parse_config(f"trials=300\nsweep=rho\n{fixed}")


# One sweep end, drawn on both sides of the rules' bounds on the default
# geometry: the SNR's underflow near -3236 dB, the closed form's overflow
# near -3065 dB and the SINR-term overflow near 3050 dB; radii about 0,
# about far_radius, and about 9e-77, where d^-v overflows at 20 dB; alpha
# about 0 and 0.25.
END_SAMPLERS = {
    SweepKind.RHO_DB: lambda rng: rng.choice([-3236.07, -3064.66, 3049.94])
    + rng.normal(0.0, 1.0),
    SweepKind.NEAR_RADIUS: lambda rng: 10.0 ** rng.uniform(-78, -75)
    if rng.random() < 0.3 else rng.choice([0.0, 0.95]) + rng.normal(0.0, 0.02),
    SweepKind.ALPHA: lambda rng: rng.choice([0.0, 0.25]) + rng.normal(0.0, 0.02),
}


@pytest.mark.parametrize("kind", list(SweepKind))
def test_sweep_accepted_exactly_when_every_point_passes(kind):
    rng = np.random.default_rng(list(SweepKind).index(kind))
    outcomes = {"accepted": 0, "from": 0, "rejected": 0}
    for _ in range(300):
        lo, hi = sorted(float(END_SAMPLERS[kind](rng)) for _ in range(2))
        if lo == hi:
            continue
        steps = int(rng.integers(2, 12))
        # upsilon meets its bound, about 1.8e3, where the SNR reaches 3050 dB;
        # half the SNR sweeps leave out comp-vpnoma, whose closed-form bound
        # would hide the SNR's underflow
        upsilon = float(10.0 ** rng.uniform(-3, 6)) \
            if kind is SweepKind.RHO_DB else 0.01
        schemes = (SchemeId.OMA,) if kind is SweepKind.RHO_DB \
            and rng.random() < 0.5 else tuple(SchemeId)
        cfg = SweepConfig(sweep_kind=kind, from_value=lo, to_value=hi,
                          steps=steps, upsilon=upsilon, schemes=schemes)

        def passes(value):
            return sweep_point_passes(**{**vars(cfg), kind.field: value})

        document = (f"sweep={kind.value}\nfrom={lo!r}\nto={hi!r}\n"
                    f"steps={steps}\nupsilon={upsilon!r}\nschemes="
                    f"{','.join(scheme.token for scheme in schemes)}\n")
        try:
            assert parse_config(document) == cfg
            outcome = "accepted"
        except ConfigError as exc:
            message = str(exc)
            outcome = "rejected"
        assert (outcome == "accepted") == all(
            passes(float(value)) for value in cfg.sweep_values()), document
        if outcome == "rejected" and passes(hi) and not passes(lo):
            assert message.startswith("line 2: key 'from'"), (document, message)
            outcome = "from"
        outcomes[outcome] += 1
    # the ends fall on both sides of the bounds
    assert min(outcomes.values()) >= 20, outcomes


def small_config(**extra):
    keys = {"trials": 400, "steps": 3, "schemes": "comp-vpnoma,vpnoma", **extra}
    return parse_config("".join(f"{k}={v}\n" for k, v in keys.items()))


class TestRunSweep:
    def test_rows_ordered_by_value_then_scheme(self):
        rows = run_sweep(small_config())
        assert len(rows) == 6
        values = [row.sweep_value for row in rows]
        assert values == sorted(values)
        assert [r.scheme for r in rows[:2]] == [SchemeId.VPNOMA,
                                                SchemeId.COMP_VPNOMA]
        assert all(row.trials == 400 and row.seed == 1 for row in rows)

    def test_analytic_only_for_comp(self):
        rows = run_sweep(small_config())
        for row in rows:
            if row.scheme is SchemeId.COMP_VPNOMA:
                assert row.esc_analytic is not None and row.esc_analytic > 0
            else:
                assert row.esc_analytic is None

    def test_rho_sweep_is_increasing_for_comp(self):
        rows = [r for r in run_sweep(small_config(trials=4000))
                if r.scheme is SchemeId.COMP_VPNOMA]
        means = [r.esc_mc for r in rows]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_near_radius_sweep_degrades_with_distance(self):
        cfg = small_config(sweep="near-radius", trials=4000, rho_db=20,
                          schemes="comp-vpnoma")
        rows = run_sweep(cfg)
        assert rows[0].sweep_value == pytest.approx(0.1)
        assert rows[-1].sweep_value == pytest.approx(0.9)
        assert rows[0].esc_mc > rows[-1].esc_mc

    def test_alpha_sweep_endpoints_increase(self):
        cfg = small_config(sweep="alpha", trials=4000, rho_db=20,
                          schemes="comp-vpnoma")
        rows = run_sweep(cfg)
        assert rows[-1].esc_mc > rows[0].esc_mc

    def test_memo_hit_shares_match_the_readme(self):
        """Draw and far-term memo hits over two sweeps, each started cold."""
        memos = (kernels._short_draws, analytic._far_values)

        def hits(config):
            cfg = parse_config(config)
            for memo in memos:
                memo.cache_clear()
            run_sweep(cfg)
            return [memo.cache_info()[:2] for memo in memos]

        # 200 one-chunk CoMP estimates: only the near users move
        assert hits("sweep=near-radius\nsteps=200\ntrials=2000\n"
                    "schemes=comp-vpnoma") == [(199, 1), (199, 1)]
        # the default SNR sweep's 36 estimates, each a full chunk and the
        # default tail of 1,696 trials; rho moves at every point
        trials = kernels.CHUNK_TRIALS + 100_000 % kernels.CHUNK_TRIALS
        assert hits(f"trials={trials}") == [(35, 1), (0, 9)]

    @pytest.mark.parametrize("kind", list(SweepKind))
    def test_swept_values_reach_the_estimator_as_python_floats(
            self, monkeypatch, kind):
        seen = []
        build_layout = harness.build_layout

        def recording_layout(near, far):
            seen.append(near[0])
            return build_layout(near, far)

        def recording_estimate(stats, params, *rest):
            seen.extend((params.alpha, params.rho))
            return estimate_esc(stats, params, *rest)

        monkeypatch.setattr(harness, "build_layout", recording_layout)
        monkeypatch.setattr(harness, "estimate_esc", recording_estimate)
        rows = run_sweep(small_config(sweep=kind.value, trials=10))
        assert seen and all(type(value) is float for value in seen)
        assert all(type(row.sweep_value) is float for row in rows)

    @staticmethod
    def assert_finite_without_warnings(config):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = run_sweep(parse_config(config))
        assert len(rows) == 2 * len(SchemeId)
        for row in rows:
            assert math.isfinite(row.esc_mc) and math.isfinite(row.esc_ci95)
        assert all(math.isfinite(row.esc_analytic) for row in rows
                   if row.scheme is SchemeId.COMP_VPNOMA)

    def test_largest_accepted_snr_gives_finite_estimates(self):
        # the default geometry accepts 20 dB and rejects 3083 dB
        lo = largest_accepted("sweep=alpha\nrho_db={!r}", 20.0, 3083.0)
        assert 3049.9 < lo < 3050.0
        self.assert_finite_without_warnings(
            f"sweep=alpha\nsteps=2\ntrials=100\nrho_db={lo!r}")

    def test_largest_accepted_upsilon_gives_finite_estimates(self):
        # rho * upsilon at 40 dB must stay a finite float64
        lo = largest_accepted("sweep=alpha\nrho_db=40\nupsilon={!r}",
                              0.01, 1e308)
        assert 1.79e304 < lo < 1.8e304
        self.assert_finite_without_warnings(
            f"sweep=alpha\nsteps=2\ntrials=100\nrho_db=40\nupsilon={lo!r}")

    def test_tiny_snr_gives_a_finite_closed_form(self):
        # the closed form's exp(z)E1(z) arguments reach about 2.9e20 here
        rows = run_sweep(parse_config("sweep=alpha\nrho_db=-200\nsteps=2\n"
                                      "trials=100\nschemes=comp-vpnoma"))
        assert all(math.isfinite(row.esc_analytic) for row in rows)

    @pytest.mark.parametrize("trials", [2000, kernels.CHUNK_TRIALS + 1],
                             ids=["one-chunk", "two-chunk"])
    @pytest.mark.parametrize("kind", list(SweepKind))
    def test_a_sweep_adds_nothing_to_its_points(self, kind, trials):
        # every row equals the estimate made from the public constructors
        # for its point alone
        cfg = parse_config(f"sweep={kind.value}\nsteps=2\ntrials={trials}\n")
        rows = iter(run_sweep(cfg))
        for value in cfg.sweep_values().tolist():
            point = dataclasses.replace(cfg, **{kind.field: value})
            layout = build_layout((point.near_radius,) * 3,
                                  (point.far_radius,) * 3)
            stats = derive_link_statistics(layout, point.pathloss_exponent,
                                           point.sigma_eps)
            params = SystemParams(alpha=point.alpha,
                                  rho=db_to_linear(point.rho_db),
                                  upsilon=point.upsilon)
            for scheme in cfg.schemes:
                row = next(rows)
                alone = estimate_esc(stats, params, scheme, trials, cfg.seed)
                assert (row.sweep_value, row.scheme) == (value, scheme)
                assert row.esc_mc == alone.mean_total
                assert row.esc_ci95 == alone.ci95_halfwidth
                assert row.esc_analytic == alone.analytic_total
        assert next(rows, None) is None

    def test_infeasible_csi_reports_sweep_value(self):
        cfg = parse_config("trials=100\nsteps=3\nsweep=near-radius\n"
                           "sigma_eps=0.2\nschemes=oma\n")
        with pytest.raises(InfeasibleCsiError, match="sweep value"):
            run_sweep(cfg)


class TestOutputs:
    def test_csv_byte_determinism(self, tmp_path):
        rows = run_sweep(small_config())
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_results(rows, first)
        write_results(run_sweep(small_config()), second)
        assert first.read_bytes() == second.read_bytes()
        text = first.read_text()
        assert text.startswith(
            "sweep_kind,sweep_value,scheme,esc_mc,esc_ci95,esc_analytic,"
            "trials,seed\n")
        assert "\r" not in text

    def test_empty_rows_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results([], path)
        assert path.read_text() == ("sweep_kind,sweep_value,scheme,esc_mc,"
                                    "esc_ci95,esc_analytic,trials,seed\n")

    def test_rows_round_trip_through_csv(self, tmp_path):
        rows = run_sweep(small_config())
        path = tmp_path / "round.csv"
        write_results(rows, path)
        recovered = read_results(path)
        assert len(recovered) == len(rows)
        for before, after in zip(rows, recovered):
            assert after.sweep_kind is before.sweep_kind
            assert after.scheme is before.scheme
            assert after.sweep_value == pytest.approx(before.sweep_value,
                                                      rel=1e-11)
            assert after.esc_mc == pytest.approx(before.esc_mc, rel=1e-11)
            assert after.esc_ci95 == pytest.approx(before.esc_ci95, rel=1e-11)
            if before.esc_analytic is None:
                assert after.esc_analytic is None
            else:
                assert after.esc_analytic == pytest.approx(
                    before.esc_analytic, rel=1e-11)
            assert after.trials == before.trials
            assert after.seed == before.seed

    @pytest.mark.parametrize("row, error", [
        ("rho,20,oma,1,0.1,,100", "not enough values to unpack"),
        ("rho,20,oma,1,0.1,,100,7,9", "too many values to unpack"),
        ("rho,20,oma,x,0.1,,100,7", "could not convert string to float: 'x'"),
        ("rho,20,oma,1,0.1,,1e2,7", "invalid literal for int"),
        ("rho,20,cdma,1,0.1,,100,7", "unknown scheme 'cdma'"),
        ("snr,20,oma,1,0.1,,100,7", "unknown sweep kind 'snr'"),
    ])
    def test_a_bad_row_is_named_by_file_and_line(self, tmp_path, row, error):
        path = tmp_path / "bad.csv"
        good = "rho,10,oma,1,0.1,,100,7"
        path.write_text(f"{harness.CSV_HEADER}\n{good}\n{row}\n{good}\n")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(f'{path}, line 3: {error}')}"):
            read_results(path)

    def test_plot_contains_one_series_per_scheme(self, tmp_path):
        cfg = parse_config("trials=200\nsteps=3\n")  # all four schemes
        rows = run_sweep(cfg)
        path = tmp_path / "plot.svg"
        emit_plot(rows, path)
        text = path.read_text()
        assert text.count("<polyline") == 4
        assert text.startswith("<svg")
        assert "ESC (bits/s/Hz)" in text

    def test_plot_is_deterministic(self, tmp_path):
        rows = run_sweep(small_config())
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot(rows, a)
        emit_plot(rows, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_reports_context(self, tmp_path):
        rows = run_sweep(small_config())
        with pytest.raises(OSError, match="cannot write results"):
            write_results(rows, tmp_path / "missing_dir" / "out.csv")
