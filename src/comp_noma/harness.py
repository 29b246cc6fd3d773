"""Experiment driver: config parsing, parameter sweeps, CSV and SVG output.

Sweeps reproduce the three experiments: ESC versus transmit SNR, versus the
near users' distance from their base stations (far users fixed), and versus
the near-user power fraction. Configuration is flat key=value text; every
output is byte-deterministic for identical inputs.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import channel, geometry
from .channel import InfeasibleCsiError, check_seed, derive_link_statistics
from .geometry import build_layout
from .montecarlo import estimate_esc
from .schemes import SchemeId, SystemParams


class ConfigError(ValueError):
    """Configuration document problem; message names the key and line."""


class SweepKind(enum.Enum):
    """A swept knob: its CSV token (the value), the SweepConfig field each
    point replaces, its range when a config omits from/to, its axis label."""

    RHO_DB = ("rho", "rho_db", (0.0, 40.0), "transmit SNR (dB)")
    NEAR_RADIUS = ("near-radius", "near_radius", (0.1, 0.9), "near-user radius (R)")
    ALPHA = ("alpha", "alpha", (0.05, 0.24), "near-user power fraction")

    def __new__(cls, token, field, default_range, label):
        kind = object.__new__(cls)
        kind._value_ = token
        kind.field, kind.default_range, kind.label = field, default_range, label
        return kind

    @classmethod
    def from_token(cls, token: str) -> "SweepKind":
        for kind in cls:
            if kind.value == token.strip().lower():
                return kind
        raise ValueError(f"unknown sweep kind {token!r}; expected one of "
                         f"{', '.join(k.value for k in cls)}")


CONFIG_KEYS = ("alpha", "rho_db", "upsilon", "sigma_eps", "pathloss_exponent",
               "near_radius", "far_radius", "trials", "seed", "sweep", "from",
               "to", "steps", "schemes")


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: the swept knob, its range, and every fixed parameter."""

    sweep_kind: SweepKind = SweepKind.RHO_DB
    from_value: float = SweepKind.RHO_DB.default_range[0]
    to_value: float = SweepKind.RHO_DB.default_range[1]
    steps: int = 9
    alpha: float = 0.1
    rho_db: float = 20.0
    upsilon: float = 0.01
    sigma_eps: float = 0.001
    pathloss_exponent: float = 4.0
    near_radius: float = 0.5
    far_radius: float = 0.95
    schemes: tuple = tuple(SchemeId)
    trials: int = 100_000
    seed: int = 1

    def sweep_values(self) -> np.ndarray:
        return np.linspace(self.from_value, self.to_value, self.steps)


@dataclass(frozen=True)
class ResultRow:
    sweep_kind: SweepKind
    sweep_value: float
    scheme: SchemeId
    esc_mc: float
    esc_ci95: float
    esc_analytic: float | None
    trials: int
    seed: int


def _parse_float(raw, key, where):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: key '{key}': cannot parse {raw!r} as a number")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: key '{key}': value must be finite")
    return value


def _parse_int(raw, key, where):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: key '{key}': cannot parse {raw!r} as an integer")


def _raw_pairs(text: str) -> dict:
    """key -> (value, source location) from a key=value document."""
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in pairs:
            raise ConfigError(f"line {lineno}: key '{key}' already set on "
                              f"{pairs[key][1]}")
        pairs[key] = (value.strip(), f"line {lineno}")
    return pairs


def _config_from_raw(raw: dict) -> SweepConfig:
    fields = {}
    if "sweep" in raw:
        value, where = raw["sweep"]
        try:
            kind = SweepKind.from_token(value)
        except ValueError as exc:
            raise ConfigError(f"{where}: key 'sweep': {exc}")
        fields["sweep_kind"] = kind
        fields["from_value"], fields["to_value"] = kind.default_range
    if "schemes" in raw:
        value, where = raw["schemes"]
        try:
            schemes = tuple(SchemeId.from_token(t) for t in value.split(","))
        except ValueError as exc:
            raise ConfigError(f"{where}: key 'schemes': {exc}")
        order = list(SchemeId)
        fields["schemes"] = tuple(sorted(set(schemes), key=order.index))

    # the other keys are numbers; each sets the field of its name, except
    # from and to, which set the range's ends
    for key in CONFIG_KEYS:
        if key in raw and key not in ("sweep", "schemes"):
            value, where = raw[key]
            parse = _parse_int if key in ("trials", "seed", "steps") else _parse_float
            attr = {"from": "from_value", "to": "to_value"}.get(key, key)
            fields[attr] = parse(value, key, where)

    cfg = SweepConfig(**fields)
    _validate(cfg, raw)
    return cfg


def _validate(cfg: SweepConfig, raw: dict) -> None:
    def fail(key, message):
        where = raw[key][1] if key in raw else "default"
        raise ConfigError(f"{where}: key '{key}': {message}")

    if not 0.0 < cfg.alpha < 0.25:
        fail("alpha", f"must lie in (0, 0.25), got {cfg.alpha}")
    if cfg.upsilon < 0:
        fail("upsilon", f"must be nonnegative, got {cfg.upsilon}")
    if cfg.sigma_eps < 0:
        fail("sigma_eps", f"must be nonnegative, got {cfg.sigma_eps}")
    if cfg.pathloss_exponent <= 0:
        fail("pathloss_exponent", f"must be positive, got {cfg.pathloss_exponent}")
    for key, value in (("near_radius", cfg.near_radius),
                       ("far_radius", cfg.far_radius)):
        if not 0.0 < value <= 1.0:
            fail(key, f"must lie in (0, 1], got {value}")
    if cfg.trials < 1:
        fail("trials", f"must be >= 1, got {cfg.trials}")
    try:
        check_seed(cfg.seed)
    except ValueError as exc:
        fail("seed", str(exc))
    if cfg.steps < 2:
        fail("steps", f"must be >= 2, got {cfg.steps}")
    if not cfg.from_value < cfg.to_value:
        fail("from", f"sweep range must satisfy from < to, got "
                     f"[{cfg.from_value}, {cfg.to_value}]")
    if not cfg.schemes:
        fail("schemes", "at least one scheme is required")
    # Every point rule asks a swept value to lie in an interval or is
    # monotone in it, so a sweep whose two ends pass passes at every point.
    # A rule whose keys hold the swept field names the end that breaks it.
    swept = cfg.sweep_kind.field
    for end, value in (("to", cfg.to_value), ("from", cfg.from_value)):
        error = _point_error({**vars(cfg), swept: value})
        if error is not None:
            keys, message = error
            fail(end if swept in keys else keys[0], message)


def _point_error(p: dict):
    """(keys, message) for the first rule that sweep point p (each SweepConfig
    field's value) breaks, or None; keys[0] is named unless a sweep moves one."""
    alpha, rho_db = p["alpha"], p["rho_db"]
    near, far = p["near_radius"], p["far_radius"]
    if not 0.0 < alpha < 0.25:
        return ("alpha",), f"must lie in (0, 0.25), got {alpha}"
    if not 0.0 < near < far:
        return ("near_radius",), f"must lie in (0, far_radius = {far}), got {near}"
    # a draw's -log(u) is at most -ln 2^-54 < 38, so rho * 3 * 38 * d^-v at
    # the nearest user bounds the gain terms of any SINR
    try:
        rho = db_to_linear(rho_db)
        bound = rho * 3 * 38 * near ** -p["pathloss_exponent"]
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        return ("rho_db", "near_radius"), (f"{rho_db} dB overflows float64 in the "
                                           f"SINR terms of a user at radius {near}")
    if rho == 0.0:
        return ("rho_db",), f"{rho_db} dB underflows float64 to a linear SNR of 0"
    # the near users' SINR denominators add rho * upsilon to those terms
    if not math.isfinite(bound + rho * p["upsilon"]):
        return ("upsilon",), (f"{p['upsilon']} overflows float64 in the SINR "
                              f"terms at {rho_db} dB")
    if SchemeId.COMP_VPNOMA in p["schemes"]:
        return _closed_form_error(p, rho)


def _closed_form_error(p: dict, rho: float):
    """(keys, message) when the closed form's rates 1/(alpha rho sigma_hat)
    or its exp(z)E1(z) arguments z = shift * rate overflow at sweep point p.

    Each user's largest rate is on its weakest link; a far user's signal
    rates, 1/((alpha + beta) rho sigma_hat), are smaller. Twice each z must
    be finite, which leaves room for the closed form's spread of nearly
    equal rates (at most 0.02%). z falls as rho, alpha or the near radius
    grows, so a sweep whose two ends pass passes at every point.
    """
    # The ends' positions and statistics are built through their modules, so
    # that the names run_sweep calls stay one call per sweep point.
    try:
        stats = channel.derive_link_statistics(
            geometry.build_layout((p["near_radius"],) * 3,
                                  (p["far_radius"],) * 3),
            p["pathloss_exponent"], p["sigma_eps"])
    except InfeasibleCsiError:
        return None  # run_sweep reports the link, naming the sweep value
    scale = p["alpha"] * rho
    residual = rho * p["upsilon"]
    for user, (column, eps) in enumerate(zip(stats.sigma_hat.T.tolist(),
                                             stats.eps_sums.tolist())):
        product = scale * min(column)
        rate = 1.0 / product if product > 0.0 else math.inf
        # the shift of a near user (users 0-2) carries the SIC residual
        if not math.isfinite(2.0 * ((rho * eps + 1.0) * rate)):
            return ("rho_db",), (
                f"{p['rho_db']} dB overflows float64 in the closed form's "
                f"rates and exp(z)E1(z) arguments")
        if user < 3 and not math.isfinite(
                2.0 * ((rho * eps + residual + 1.0) * rate)):
            return ("upsilon",), (
                f"{p['upsilon']} overflows float64 in the closed form's "
                f"exp(z)E1(z) arguments at {p['rho_db']} dB")
    return None


def parse_config(text: str, flags: dict | None = None) -> SweepConfig:
    """Parse a key=value document ('#' comments) into a validated SweepConfig.

    flags maps config keys to raw string values from the command line, which
    take precedence over the document.
    """
    raw = _raw_pairs(text)
    for key, value in (flags or {}).items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"command line: unknown key '{key}'")
        raw[key] = (str(value), "command line")
    return _config_from_raw(raw)


def run_sweep(cfg: SweepConfig, workers: int = 1) -> list:
    """Estimate every requested scheme at every sweep point.

    The near-radius sweep moves all three near users together along their
    rays; far users stay fixed. Rows come out ordered by (sweep_value, scheme).
    """
    rows = []
    swept = cfg.sweep_kind.field
    far_radii = (cfg.far_radius,) * 3
    params_key = params = None
    # Python floats, so that SystemParams and the closed form's scalar loops
    # see the same types on every sweep kind
    for value in cfg.sweep_values().tolist():
        point = {**vars(cfg), swept: value}
        positions = build_layout((point["near_radius"],) * 3, far_radii)
        try:
            stats = derive_link_statistics(positions, cfg.pathloss_exponent,
                                           cfg.sigma_eps)
        except InfeasibleCsiError as exc:
            raise InfeasibleCsiError(
                f"sweep value {value:.6g}: {exc}") from exc
        # built again only where alpha or the SNR moves: once on a
        # near-radius sweep
        if (point["alpha"], point["rho_db"]) != params_key:
            params_key = point["alpha"], point["rho_db"]
            params = SystemParams(alpha=point["alpha"],
                                  rho=db_to_linear(point["rho_db"]),
                                  upsilon=cfg.upsilon)
        for scheme in cfg.schemes:
            estimate = estimate_esc(stats, params, scheme, cfg.trials,
                                    cfg.seed, workers)
            rows.append(ResultRow(
                sweep_kind=cfg.sweep_kind,
                sweep_value=value,
                scheme=scheme,
                esc_mc=estimate.mean_total,
                esc_ci95=estimate.ci95_halfwidth,
                esc_analytic=estimate.analytic_total,
                trials=cfg.trials,
                seed=cfg.seed,
            ))
    return rows


CSV_HEADER = "sweep_kind,sweep_value,scheme,esc_mc,esc_ci95,esc_analytic,trials,seed"


def _fmt(value: float) -> str:
    return format(value, ".12g")


def write_results(rows, path) -> None:
    """Write rows as UTF-8 CSV with LF endings and 12-significant-digit reals."""
    lines = [CSV_HEADER]
    for row in rows:
        analytic = "" if row.esc_analytic is None else _fmt(row.esc_analytic)
        lines.append(",".join([
            row.sweep_kind.value,
            _fmt(row.sweep_value),
            row.scheme.token,
            _fmt(row.esc_mc),
            _fmt(row.esc_ci95),
            analytic,
            str(row.trials),
            str(row.seed),
        ]))
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def read_results(path) -> list:
    """Parse a CSV produced by write_results back into ResultRow values; a
    malformed row raises ValueError naming the file and its 1-based line."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} does not carry the expected results header")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            kind, value, scheme, mc, ci95, analytic, trials, seed = \
                line.split(",")
            rows.append(ResultRow(
                sweep_kind=SweepKind.from_token(kind),
                sweep_value=float(value),
                scheme=SchemeId.from_token(scheme),
                esc_mc=float(mc),
                esc_ci95=float(ci95),
                esc_analytic=None if analytic == "" else float(analytic),
                trials=int(trials),
                seed=int(seed),
            ))
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from exc
    return rows


_SERIES_COLORS = {
    SchemeId.OMA: "#888888",
    SchemeId.NOMA: "#d62728",
    SchemeId.VPNOMA: "#1f77b4",
    SchemeId.COMP_VPNOMA: "#2ca02c",
}


def _ticks(lo: float, hi: float, count: int = 5):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def emit_plot(rows, path) -> None:
    """Write a self-contained SVG line chart, one series per scheme."""
    width, height = 640.0, 440.0
    left, right, top, bottom = 72.0, 176.0, 24.0, 56.0

    series = {}
    for row in rows:
        series.setdefault(row.scheme, []).append((row.sweep_value, row.esc_mc))
    ordered = [s for s in SchemeId if s in series]

    xs = [row.sweep_value for row in rows]
    ys = [row.esc_mc for row in rows]
    x_lo, x_hi = (min(xs), max(xs)) if rows else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if rows else (0.0, 1.0)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def py(y):
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{left:.2f}" y1="{height - bottom:.2f}" '
        f'x2="{width - right:.2f}" y2="{height - bottom:.2f}" stroke="black"/>',
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" '
        f'y2="{height - bottom:.2f}" stroke="black"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{height - bottom:.2f}" '
                     f'x2="{x:.2f}" y2="{height - bottom + 5:.2f}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{height - bottom + 18:.2f}" '
                     f'font-size="11" text-anchor="middle">{tick:.4g}</text>')
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(f'<line x1="{left - 5:.2f}" y1="{y:.2f}" x2="{left:.2f}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{tick:.4g}</text>')
    x_label = rows[0].sweep_kind.label if rows else "sweep value"
    parts.append(f'<text x="{(left + width - right) / 2:.2f}" '
                 f'y="{height - 14:.2f}" font-size="13" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="18" y="{(top + height - bottom) / 2:.2f}" '
                 f'font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 18 {(top + height - bottom) / 2:.2f})">'
                 f'ESC (bits/s/Hz)</text>')

    for scheme in ordered:
        points = sorted(series[scheme])
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)
        parts.append(f'<polyline fill="none" stroke="{_SERIES_COLORS[scheme]}" '
                     f'stroke-width="1.8" points="{coords}"/>')
    legend_x = width - right + 12.0
    for index, scheme in enumerate(ordered):
        y = top + 14.0 + 20.0 * index
        parts.append(f'<line x1="{legend_x:.2f}" y1="{y:.2f}" '
                     f'x2="{legend_x + 22:.2f}" y2="{y:.2f}" '
                     f'stroke="{_SERIES_COLORS[scheme]}" stroke-width="1.8"/>')
        parts.append(f'<text x="{legend_x + 28:.2f}" y="{y + 4:.2f}" '
                     f'font-size="12">{scheme.token}</text>')
    parts.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write plot to {path}: {exc}") from exc
