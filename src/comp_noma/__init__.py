"""Downlink multi-cell NOMA ergodic sum capacity simulator.

Monte-Carlo and closed-form ESC for JT-CoMP VP-NOMA in a three-cell network,
plus OMA, NOMA and plain VP-NOMA baselines under imperfect CSI and SIC.
"""

from .analytic import (DegenerateRatesError, exp_integral_ei, far_esc_closed,
                       hypoexp_log2_mean, near_esc_closed, total_esc_closed)
from .channel import (ChannelRealization, InfeasibleCsiError, LinkStatistics,
                      derive_link_statistics, sample_realization)
from .geometry import (FAR_USERS, NEAR_USERS, USERS, NetworkLayout,
                       build_layout, distance_matrix, link_distance)
from .harness import (ConfigError, ResultRow, SweepConfig, SweepKind,
                      db_to_linear, emit_plot, parse_config, read_results,
                      run_sweep, write_results)
from .montecarlo import EscEstimate, compare_schemes, estimate_esc
from .schemes import (RateBreakdown, SchemeId, SystemParams, far_rate_comp,
                      near_rate_subband, total_instantaneous)

__all__ = [
    "ChannelRealization", "ConfigError", "DegenerateRatesError", "EscEstimate",
    "FAR_USERS", "InfeasibleCsiError", "LinkStatistics", "NEAR_USERS",
    "NetworkLayout", "RateBreakdown", "ResultRow", "SchemeId", "SweepConfig",
    "SweepKind", "SystemParams", "USERS", "build_layout",
    "compare_schemes", "db_to_linear", "derive_link_statistics",
    "distance_matrix", "emit_plot", "estimate_esc", "exp_integral_ei",
    "far_esc_closed", "far_rate_comp", "hypoexp_log2_mean", "link_distance",
    "near_esc_closed", "near_rate_subband", "parse_config", "read_results",
    "run_sweep", "sample_realization", "total_esc_closed",
    "total_instantaneous", "write_results",
]
