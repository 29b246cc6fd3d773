import comp_noma


def test_every_exported_name_resolves():
    for name in comp_noma.__all__:
        assert hasattr(comp_noma, name), name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from comp_noma import *", namespace)
    assert set(comp_noma.__all__) <= set(namespace)


def test_public_surface_is_exactly_these_names():
    # one way into the library: a name removed from it stays removed
    assert set(comp_noma.__all__) == {
        "ConfigError", "DegenerateRatesError", "EscEstimate", "FAR_USERS",
        "InfeasibleCsiError", "LinkStatistics", "NEAR_USERS", "ResultRow",
        "SchemeId", "SweepConfig", "SweepKind", "SystemParams", "USERS",
        "build_layout", "db_to_linear", "derive_link_statistics",
        "distance_matrix", "emit_plot", "estimate_esc", "exp_integral_ei",
        "hypoexp_log2_mean", "parse_config", "read_results", "run_sweep",
        "total_esc_closed", "write_results",
    }
    assert len(comp_noma.__all__) == 26
