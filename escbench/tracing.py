"""Spans recorded from outside the program, and the per-layer metrics.

The tracer replaces the names through which the simulator's modules call
each other with wrappers that record a span per call. Nothing in the
program changes: the wrapped names are module attributes, and `patched`
puts the originals back when the run ends.
"""

import contextlib
import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("geometry", "channel", "kernels", "montecarlo", "analytic",
          "harness", "cli")

# (module, attribute as the caller looks it up, span name). The span name is
# "<layer>.<function>", where the layer is the module that does the work.
TRACED_NAMES = (
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run_sweep", "harness.run_sweep"),
    ("cli", "write_results", "harness.write_results"),
    ("cli", "emit_plot", "harness.emit_plot"),
    ("harness", "build_layout", "geometry.build_layout"),
    ("harness", "derive_link_statistics", "channel.derive_link_statistics"),
    ("harness", "estimate_esc", "montecarlo.estimate_esc"),
    ("montecarlo", "total_esc_closed", "analytic.total_esc_closed"),
    ("kernels", "sample_gains", "kernels.sample_gains"),
    ("kernels", "scheme_rates", "kernels.scheme_rates"),
)

SPAN_FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "thread",
               "run_id", "attrs")


@contextlib.contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples, restoring the originals on exit."""
    saved = [(module, attr, getattr(module, attr))
             for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _attrs(name, args):
    if name == "kernels.sample_gains":
        seed, start, n = args[0], args[1], args[2]
        return {"draw": [int(seed), int(start), int(n)], "n": int(n)}
    if name == "kernels.scheme_rates":
        return {"n": int(args[0].shape[0]), "scheme": int(args[1])}
    return None


class Tracer:
    """Keeps every span in memory; spans are written out after the run."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._owner_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's outermost span belongs to the span its
            # starting thread is blocked in: the estimate that made the pool.
            parent_stack = stack or self._owner_stack
            parent = parent_stack[-1] if parent_stack else 0
            with self._lock:
                span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = [span_id, parent, name, start, end,
                        threading.get_ident(), self.run_id, _attrs(name, args)]
                with self._lock:
                    self.spans.append(span)
        return traced

    def replacements(self, modules):
        return [(modules[mod], attr, self.wrap(getattr(modules[mod], attr), name))
                for mod, attr, name in TRACED_NAMES]


def _covered_ns(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times_ns(spans):
    """span id -> its duration minus what its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[3], span[4]))
    return {span[0]: span[4] - span[3]
            - _covered_ns(children[span[0]], span[3], span[4])
            for span in spans}


def summarize(spans, wall_s, workers, csv_bytes, scheme_tokens):
    """Per-layer metrics of one traced execution."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def busy_s(name):
        return sum(s[4] - s[3] for s in by_name[name]) / 1e9

    def calls(name):
        return len(by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    self_ns = self_times_ns(spans)
    layer_self = dict.fromkeys(LAYERS, 0)
    for span in spans:
        layer_self[span[2].split(".", 1)[0]] += self_ns[span[0]]

    draws = by_name["kernels.sample_gains"]
    rates = by_name["kernels.scheme_rates"]
    kernel_busy = busy_s("kernels.sample_gains") + busy_s("kernels.scheme_rates")
    estimate_wall = busy_s("montecarlo.estimate_esc")
    metrics = {
        "kernels.sample_gains.calls": calls("kernels.sample_gains"),
        "kernels.draw_reuse": ratio(len({tuple(s[7]["draw"]) for s in draws}),
                                    len(draws)),
        "kernels.sample_gains.ns_per_trial": ratio(
            busy_s("kernels.sample_gains") * 1e9, sum(s[7]["n"] for s in draws)),
        "kernels.scheme_rates.calls": calls("kernels.scheme_rates"),
        "kernels.scheme_rates.ns_per_trial": ratio(
            busy_s("kernels.scheme_rates") * 1e9, sum(s[7]["n"] for s in rates)),
        "kernels.busy_s": kernel_busy,
        "kernels.share": ratio(kernel_busy, wall_s),
        "montecarlo.estimate_esc.calls": calls("montecarlo.estimate_esc"),
        "montecarlo.parallel_eff": ratio(kernel_busy, workers * estimate_wall),
        "analytic.total_esc_closed.calls": calls("analytic.total_esc_closed"),
        "analytic.total_esc_closed.ms_per_call": ratio(
            busy_s("analytic.total_esc_closed") * 1e3,
            calls("analytic.total_esc_closed")),
        "analytic.total_esc_closed.busy_s": busy_s("analytic.total_esc_closed"),
        "channel.derive_link_statistics.calls":
            calls("channel.derive_link_statistics"),
        "channel.derive_link_statistics.us_per_call": ratio(
            busy_s("channel.derive_link_statistics") * 1e6,
            calls("channel.derive_link_statistics")),
        "geometry.build_layout.calls": calls("geometry.build_layout"),
        "harness.run_sweep.self_s":
            sum(self_ns[s[0]] for s in by_name["harness.run_sweep"]) / 1e9,
        "harness.write_results.ms": busy_s("harness.write_results") * 1e3,
        "harness.emit_plot.ms": busy_s("harness.emit_plot") * 1e3,
        "harness.csv_bytes": csv_bytes,
        "cli.parse_config.ms": busy_s("cli.parse_config") * 1e3,
    }
    for code, token in scheme_tokens.items():
        own = [s for s in rates if s[7]["scheme"] == code]
        if own:
            metrics[f"kernels.scheme_rates.ns_per_trial.{token}"] = (
                sum(s[4] - s[3] for s in own) / sum(s[7]["n"] for s in own))
    for layer, ns in layer_self.items():
        metrics[f"{layer}.self_s"] = ns / 1e9
    return metrics
