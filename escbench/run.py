#!/usr/bin/env python3
"""ESC benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 escbench/run.py --workload rho_sweep [--seed 1] [--seconds 10]
                            [--trace 0|1]

Run from the root of a checkout. The load is a closed loop with one client:
executions run one at a time, each in a fresh process (escbench/child.py),
so that import cost and peak memory are real, until --seconds have passed.
Every execution's CSV is checked against the committed reference rows.

--trace 0 reports the end-to-end metrics, medians over the executions; the
times among them are CPU times of the execution's process scaled by the
host's speed, which a calibration measures in every execution, and the
unscaled and wall-clock figures are printed beside them. --trace 1 alternates
untraced and traced executions: the per-layer metrics are medians over the
traced ones, and trace.overhead_frac compares the two kinds' scaled CPU
times. Metric names and units come from BENCHMARK.json. A summary goes to
standard output, ending with one JSON line; the full record and the spans go
to escbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import spec
from tracing import LAYERS, SPAN_FIELDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# No execution starts after this many seconds, and none runs past the
# deadline, so that a run ends well within three minutes.
START_LIMIT_S = 150.0
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    # The kernels are elementwise numpy. One BLAS thread keeps every
    # execution within the worker threads its workload asks for.
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def execute(name, seed, traced, run_id, timeout):
    """One child process; its record, with its wall-clock and CPU times added."""
    if name in spec.WORKLOADS:
        child.prepare(name, seed, OUT, run_id)
    cmd = [sys.executable, str(HERE / "child.py"), name, str(seed), str(OUT),
           "1" if traced else "0", str(run_id)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}: {proc.stderr.strip()[-800:]}"}
    record = json.loads(lines[-1])
    if record.get("first") is not None:
        record["setup_wall_s"] = record["setup_end"] - spawned
        record["wall_s"] = record["end"] - record["first"]
        record["cpu_s"] = record["end_cpu"] - record["first_cpu"]
    record["duration_s"] = time.monotonic() - spawned
    return record


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def spread(values):
    return (f"median of {len(values)}, min {min(values):.6g}, "
            f"max {max(values):.6g}")


# The times of BENCHMARK.json are CPU times scaled to a host on which the
# calibration (child.calibrate) takes this long: each execution's CPU time x
# this / the CPU time of that execution's own calibration, timed just before
# and just after its measured part. On a shared host, the speed at which the
# machine runs code changes by up to a third from one second to the next.
CALIBRATION_NOMINAL_S = 0.3

# Figures printed and kept in the result file but not metrics of
# BENCHMARK.json: CPU times as measured, the calibration's, and wall-clock
# times, which also carry the time the host's other guests hold the
# machine's CPUs and change by up to 2x between runs.
EXTRA_UNITS = {"setup_cpu_s": "s", "cpu_s": "s", "trials_per_cpu_s": "1/s",
               "calibration_cpu_s": "s", "setup_wall_s": "s", "wall_s": "s",
               "trials_per_s": "1/s"}


def scale(record):
    """The factor that takes an execution's CPU times to the nominal host."""
    return CALIBRATION_NOMINAL_S / record["calibration_cpu_s"]


def end_to_end(plain):
    factors = [scale(r) for r in plain]
    return {
        "setup_s": [r["setup_end_cpu"] * k for r, k in zip(plain, factors)],
        "adj_cpu_s": [r["cpu_s"] * k for r, k in zip(plain, factors)],
        "adj_trials_per_cpu_s": [r["trials"] / (r["estimate_cpu_s"] * k)
                                 for r, k in zip(plain, factors)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "setup_cpu_s": [r["setup_end_cpu"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "trials_per_cpu_s": [r["trials"] / r["estimate_cpu_s"] for r in plain],
        "calibration_cpu_s": [r["calibration_cpu_s"] for r in plain],
        "setup_wall_s": [r["setup_wall_s"] for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
        "trials_per_s": [r["trials"] / r["estimate_s"] for r in plain],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "comp_noma" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}; run from the "
              f"root of a comp-noma checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    workload = spec.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    started = time.monotonic()
    warmup = execute("warmup", 0, False, 0, DEADLINE_S)
    if "error" in warmup:
        print(f"error: the simulator does not import: {warmup['error']}",
              file=sys.stderr)
        return 1
    runs = []
    measuring = time.monotonic()
    while True:
        now = time.monotonic()
        kinds = {traced for traced, _ in runs}
        complete = False in kinds and (True in kinds or not args.trace)
        # Stop at the execution boundary nearest to --seconds.
        typical = statistics.median(r.get("duration_s", 0.0) for _, r in runs) \
            if runs else 0.0
        if (complete and now - measuring + typical / 2 >= args.seconds) \
                or now - started >= START_LIMIT_S:
            break
        traced = bool(args.trace) and len(runs) % 2 == 1
        record = execute(args.workload, args.seed, traced, len(runs),
                         started + DEADLINE_S - now)
        runs.append((traced, record))
        if "error" in record:
            print(f"execution {len(runs) - 1} failed: {record['error']}",
                  file=sys.stderr)

    attempted = sum(r.get("attempted", workload.estimates) for _, r in runs)
    failed = sum(r.get("failed", workload.estimates) for _, r in runs)
    plain = [r for traced, r in runs if not traced and "wall_s" in r]
    traced_runs = [r for traced, r in runs if traced and "layers" in r]
    if not plain or (args.trace and not traced_runs):
        print("error: no execution completed, nothing to report", file=sys.stderr)
        return 1

    samples = end_to_end(plain)
    if args.trace:
        samples = {key: [r["layers"][key] for r in traced_runs]
                   for key in traced_runs[0]["layers"]}
        samples["trace.overhead_frac"] = [
            statistics.median(r["cpu_s"] * scale(r) for r in traced_runs)
            / statistics.median(r["cpu_s"] * scale(r) for r in plain) - 1.0]
    # A median of equal values is that value; counts then stay integers.
    values = {key: v[0] if len(set(v)) == 1 else statistics.median(v)
              for key, v in samples.items()}
    units = {**EXTRA_UNITS, **{m["name"]: m["unit"] for m in
                              declared["end_to_end"] + declared["per_layer"]}}

    def unit_of(key):  # per-scheme figures share their parent metric's unit
        return units.get(key, units.get(key.rsplit(".", 1)[0], ""))

    first = plain[0]
    env = {**first["env"], "nproc": os.cpu_count(), "cpu": cpu_model(),
           "git_commit": git_commit(), "src_sha256": source_digest(),
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced_runs)} traced executions, closed loop, one client")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()
                                      if k not in ("workload", "seed")))
    for key in sorted(samples, key=lambda k: (k not in units, k)):
        unit = unit_of(key)
        note = f"   ({spread(samples[key])})" if len(samples[key]) > 1 else ""
        if key in workload.counts:
            note = f"   (seed commit: {workload.counts[key]})"
        print(f"  {key:48s} {values[key]:>14.6g} {unit}{note}")
    print(f"  {'failed_frac':48s} {failed / attempted:>14.6g}   "
          f"({failed} of {attempted} estimates)")
    problems = dict.fromkeys(p for _, r in runs for p in r.get("problems", []))
    for problem in list(problems)[:10]:
        print(f"  check: {problem}")
    print(f"  csv_sha256 {first['csv_sha256']} "
          f"(matches reference: {first['csv_matches_reference']}, "
          f"esc_mc and esc_ci95 checked against the reference of "
          f"{first['reference']})")
    if args.trace:
        layers = {layer: values[f"{layer}.self_s"] for layer in LAYERS}
        print("  self time by layer: " + ", ".join(
            f"{layer} {s:.4g} s" for layer, s in
            sorted(layers.items(), key=lambda item: -item[1])))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"env": env, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": unit_of(k)} for k in values},
              "samples": samples,
              "executions": [{k: v for k, v in r.items() if k != "spans"}
                             for _, r in runs]}
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1),
                                             encoding="utf-8")
    if args.trace:
        spans = [span for r in traced_runs for span in r["spans"]]
        (OUT / f"spans-{stem}.json").write_text(
            json.dumps({"fields": SPAN_FIELDS, "spans": spans}), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
