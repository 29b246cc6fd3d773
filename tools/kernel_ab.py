"""Compare one callable of two revisions, interleaved in one process.

    python tools/kernel_ab.py A B [--json]

Each revision's src/ is unpacked with `git archive` into its own
temporary directory and its package imported under its own name (ab_a,
ab_b), so each side builds, checks and loads its own _kernels.c into its
own __pycache__. A round times the callable REPEAT times on side A, B, B, A
(ABBA) and reads B's time over A's; the verdict is the median of ROUNDS
rounds' ratios with a 95% percentile-bootstrap interval (seeded with
SEED). Times are the thread's
CPU time (time.thread_time_ns), so that time this process spends
descheduled on a shared host is not counted.

An A/A round runs first: revision A unpacked twice under two names and
compared the same way. Its interval must contain 1; where it does not,
the host is too noisy for a verdict, no A/B round runs and the exit status
is 1. pytest does not collect this file: it lies outside tests/.

The callable, built from each side's own public API, is total_esc_closed:
one warm call per point of the 200-point near-radius grid of the
radius_fine workload (near radius 0.1 to 0.9, every other key at its
default), in sweep order.
"""

import argparse
import importlib.util
import io
import json
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 40
REPEAT = 5    # runs of the callable per timing
SEED = 1      # of the bootstrap resampling


def unpack(rev, into):
    """Extract revision rev's src/ into the directory into."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def import_as(name, package_dir):
    """Import the package in package_dir under the top-level name name; its
    relative imports resolve inside it."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py",
        submodule_search_locations=[str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def radius_grid_closed_form(pkg):
    """A callable that evaluates pkg.total_esc_closed once per point of the
    radius_fine grid, and the number of calls it makes."""
    cfg = pkg.parse_config("sweep=near-radius\nfrom=0.1\nto=0.9\nsteps=200\n")
    params = pkg.SystemParams(alpha=cfg.alpha, rho=pkg.db_to_linear(cfg.rho_db),
                              upsilon=cfg.upsilon)
    points = [pkg.derive_link_statistics(
        pkg.build_layout((radius,) * 3, (cfg.far_radius,) * 3),
        cfg.pathloss_exponent, cfg.sigma_eps)
        for radius in cfg.sweep_values().tolist()]
    total = pkg.total_esc_closed

    def run():
        for stats in points:
            total(stats, params)
    return run, len(points)


def timed(run):
    start = time.thread_time_ns()
    for _ in range(REPEAT):
        run()
    return time.thread_time_ns() - start


def compare(a, b, rng):
    """{median ratio B/A, its 95% bootstrap interval, each side's median and
    quartiles in microseconds per call} over ROUNDS ABBA rounds."""
    (run_a, calls), (run_b, _) = a, b
    for _ in range(3):    # warm both sides' caches and lazy set-up
        timed(run_a)
        timed(run_b)
    ratios, times_a, times_b = [], [], []
    for _ in range(ROUNDS):
        a1 = timed(run_a)
        b1 = timed(run_b)
        b2 = timed(run_b)
        a2 = timed(run_a)
        ratios.append((b1 + b2) / (a1 + a2))
        times_a += [a1, a2]
        times_b += [b1, b2]
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(2000))
    per_call = 1e-3 / (REPEAT * calls)

    def spread(times):
        q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
        return [round(q * per_call, 3) for q in (q1, q2, q3)]

    return {"ratio": round(statistics.median(ratios), 4),
            "interval": [round(medians[50], 4), round(medians[1949], 4)],
            "us_per_call_quartiles": {"a": spread(times_a),
                                      "b": spread(times_b)}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="the base revision")
    parser.add_argument("b", help="the revision compared with it")
    parser.add_argument("--json", action="store_true",
                        help="end with the results as one JSON line")
    args = parser.parse_args(argv)
    rng = random.Random(SEED)
    result = {"call": "total_esc_closed", "a": args.a, "b": args.b,
              "rounds": ROUNDS, "repeat": REPEAT}
    with tempfile.TemporaryDirectory(prefix="kernel-ab-") as scratch:
        sides = {}
        for name, rev in (("ab_a", args.a), ("ab_aa", args.a),
                          ("ab_b", args.b)):
            unpack(rev, Path(scratch, name))
            pkg = import_as(name, Path(scratch, name, "src", "comp_noma"))
            sides[name] = radius_grid_closed_form(pkg)
            result.setdefault("backend", {})[name] = \
                pkg.kernels.active_backend()
        for label, first, second in (("a/a", "ab_a", "ab_aa"),
                                     ("a/b", "ab_a", "ab_b")):
            verdict = compare(sides[first], sides[second], rng)
            result[label] = verdict
            low, high = verdict["interval"]
            print(f"{label}: total_esc_closed B/A {verdict['ratio']:.4f} "
                  f"[{low:.4f}, {high:.4f}], us per call (quartiles) "
                  f"A {verdict['us_per_call_quartiles']['a']} "
                  f"B {verdict['us_per_call_quartiles']['b']}", flush=True)
            if label == "a/a" and not low <= 1.0 <= high:
                print("the A/A interval excludes 1: no A/B verdict")
                result["a/b"] = None
                break
    if args.json:
        print(json.dumps(result))
    return 0 if result["a/b"] is not None else 1


if __name__ == "__main__":
    sys.exit(main())
