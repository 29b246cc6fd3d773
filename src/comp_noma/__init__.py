"""Downlink multi-cell NOMA ergodic sum capacity simulator.

Monte-Carlo and closed-form ESC for JT-CoMP VP-NOMA in a three-cell network,
plus OMA, NOMA and plain VP-NOMA baselines under imperfect CSI and SIC.
"""

from .analytic import (DegenerateRatesError, exp_integral_ei,
                       hypoexp_log2_mean, total_esc_closed)
from .channel import InfeasibleCsiError, LinkStatistics, derive_link_statistics
from .geometry import (FAR_USERS, NEAR_USERS, USERS, build_layout,
                       distance_matrix)
from .harness import (ConfigError, ResultRow, SweepConfig, SweepKind,
                      db_to_linear, emit_plot, parse_config, read_results,
                      run_sweep, write_results)
from .montecarlo import EscEstimate, estimate_esc
from .schemes import SchemeId, SystemParams

__all__ = [
    "ConfigError", "DegenerateRatesError", "EscEstimate", "FAR_USERS",
    "InfeasibleCsiError", "LinkStatistics", "NEAR_USERS", "ResultRow",
    "SchemeId", "SweepConfig", "SweepKind", "SystemParams", "USERS",
    "build_layout", "db_to_linear", "derive_link_statistics",
    "distance_matrix", "emit_plot", "estimate_esc", "exp_integral_ei",
    "hypoexp_log2_mean", "parse_config", "read_results", "run_sweep",
    "total_esc_closed", "write_results",
]
