"""One measured execution of a workload, in a process of its own.

    python3 escbench/child.py WORKLOAD SEED OUT_DIR TRACE RUN_ID

Runs the workload once against the simulator in `src/`, checks the CSV it
wrote against the committed reference, and prints one JSON record as the
last line of standard output. WORKLOAD `warmup` only imports the simulator,
which compiles its bytecode before any execution is timed.
"""

import dataclasses
import os
import sys
import time
from pathlib import Path

import spec

# Everything that runs before the first estimator call counts as set-up, so
# the modules this file needs beyond those above, which the simulator
# imports anyway, are imported only once the timed part is over.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"

# Correctness gate. The CSV carries 12 significant digits, far inside these.
RTOL_ESC = 1e-9
RTOL_CI95 = 1e-6
Z_MAX = 4.0
# For seeds outside the reference table, each row's esc_mc is compared with
# the mean and spread of the table's seeds, and its esc_ci95 with their
# median. Over the table itself, leaving each seed out in turn, the largest
# |z| is 3.2 and the largest relative esc_ci95 deviation 0.054.
Z_MAX_SEEDS = 5.0
RTOL_CI95_SEEDS = 0.15

# The calibration is a fixed computation of the kinds the simulator does:
# elementwise numpy on arrays of one chunk's size, and scalar float math in
# plain Python, about half and half. Every untraced execution times it just
# before and just after its measured part; its CPU time says how fast the
# host runs code at that time. Its arrays have one chunk's 8192 elements, so
# that it adds well under 1 MB to the process's peak memory.
CALIBRATION_ROUNDS = 2000
CALIBRATION_SIZE = 8192
CALIBRATION_TERMS = 400


def import_simulator():
    """Import comp_noma from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import comp_noma
    if not Path(comp_noma.__file__).resolve().is_relative_to(src):
        raise ImportError(f"comp_noma was imported from {comp_noma.__file__}, "
                          f"not from {src}")
    return comp_noma


class Recorder:
    """Times the estimator calls; the only wrapper an untraced run adds.

    Each call is timed twice: by the wall clock and by the CPU time of the
    whole process, which counts every thread and leaves out the time the
    host gives the machine's CPUs to others. With `calibrated`, the
    calibration runs once between set-up and the first call, outside both.
    """

    def __init__(self, calibrated=False):
        self.calibrated = calibrated
        self.setup_end = self.setup_end_cpu = None
        self.calibration_before_cpu_s = None
        self.first = None
        self.first_cpu = None
        self.busy_s = 0.0
        self.busy_cpu_s = 0.0
        self.trials = 0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            if self.setup_end is None:
                self.setup_end = time.monotonic()
                self.setup_end_cpu = time.process_time()
                if self.calibrated:
                    self.calibration_before_cpu_s = calibrate()
            start, start_cpu = time.monotonic(), time.process_time()
            if self.first is None:
                self.first, self.first_cpu = start, start_cpu
            estimate = fn(*args, **kwargs)
            self.busy_s += time.monotonic() - start
            self.busy_cpu_s += time.process_time() - start_cpu
            self.trials += estimate.trials
            return estimate
        return timed


def calibrate():
    """CPU seconds the calibration takes in this process."""
    import math

    import numpy as np
    start = time.process_time()
    counters = np.arange(CALIBRATION_SIZE, dtype=np.uint64)
    for round_ in range(CALIBRATION_ROUNDS):
        z = (counters + np.uint64(round_ + 1)) * np.uint64(0x9E3779B97F4A7C15)
        z ^= z >> np.uint64(31)
        unit = ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        np.log2(1.0 - np.log(unit)).sum()
        term = 1.0
        for k in range(1, CALIBRATION_TERMS):
            term = term * 0.999 + math.exp(-k / CALIBRATION_TERMS) / k
    return time.process_time() - start


def _single_point(cli, cfg_path, csv_path, svg_path, workers):
    try:
        cfg = cli.parse_config(cfg_path.read_text(encoding="utf-8"))
        cfg = dataclasses.replace(cfg, from_value=cfg.rho_db,
                                  to_value=cfg.rho_db, steps=1)
        rows = cli.run_sweep(cfg, workers=workers)
        cli.write_results(rows, csv_path)
        cli.emit_plot(rows, svg_path)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def output_paths(name, seed, out_dir, run_id=0):
    """The config an execution reads and the CSV and SVG it writes."""
    stem = Path(out_dir) / f"{name}-seed{seed}-run{run_id}"
    return tuple(stem.with_suffix(ext) for ext in (".cfg", ".csv", ".svg"))


def prepare(name, seed, out_dir, run_id=0):
    """Write an execution's config and remove the outputs of an earlier one.

    run.py does this before it starts the execution's process, so that set-up
    time is the simulator's.
    """
    cfg_path, *outputs = output_paths(name, seed, out_dir, run_id)
    cfg_path.write_text(spec.config_text(spec.WORKLOADS[name], seed),
                        encoding="utf-8")
    for stale in outputs:
        stale.unlink(missing_ok=True)


def run_once(name, seed, out_dir, traced=False, run_id=0, calibrated=False):
    """Run a prepared workload once; returns its timings and the CSV it wrote.

    Wall times are time.monotonic() readings, so that the parent process can
    measure set-up from the moment it started this process; CPU times are
    time.process_time() readings, which count from the start of the process.
    With `calibrated`, the record also has the calibration's CPU time: the
    mean of one run just before the first estimator call and one just after
    the last output, or only the latter when `traced`, since spans would
    cover the former.
    """
    workload = spec.WORKLOADS[name]
    cfg_path, csv_path, svg_path = output_paths(name, seed, out_dir, run_id)
    workers = min(workload.workers, os.cpu_count() or 1)

    comp_noma = import_simulator()
    from comp_noma import cli, harness, kernels, montecarlo
    from tracing import Tracer, patched, summarize

    modules = {"cli": cli, "harness": harness, "kernels": kernels,
               "montecarlo": montecarlo}
    recorder = Recorder(calibrated and not traced)
    tracer = Tracer(run_id) if traced else None
    replacements = (tracer.replacements(modules) if traced
                    else [(harness, "estimate_esc", harness.estimate_esc)])
    replacements = [(module, attr, recorder.wrap(value)
                     if (module, attr) == (harness, "estimate_esc") else value)
                    for module, attr, value in replacements]
    main = tracer.wrap(cli.main, "cli.main") if traced else cli.main
    with patched(replacements):
        if workload.via_cli:
            status = main(["--config", str(cfg_path), "--out", str(csv_path),
                           "--plot", str(svg_path), "--workers", str(workers)])
        else:
            status = _single_point(cli, cfg_path, csv_path, svg_path, workers)
    end, end_cpu = time.monotonic(), time.process_time()
    calibration_after_cpu_s = calibrate() if calibrated else None
    import platform
    import resource
    import statistics
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {
        "status": status, "setup_end": recorder.setup_end,
        "setup_end_cpu": recorder.setup_end_cpu,
        "first": recorder.first, "end": end,
        "first_cpu": recorder.first_cpu, "end_cpu": end_cpu,
        "estimate_s": recorder.busy_s, "estimate_cpu_s": recorder.busy_cpu_s,
        "trials": recorder.trials,
        "peak_rss_mb": rss_kb / 1024.0, "workers": workers,
        "csv": str(csv_path),
        "env": {"python": platform.python_version(),
                "numpy": sys.modules["numpy"].__version__,
                "backend": kernels.active_backend(),
                "comp_noma": comp_noma.__file__},
    }
    if calibrated and recorder.first is not None:
        record["calibration_cpu_s"] = statistics.mean(
            t for t in (recorder.calibration_before_cpu_s,
                        calibration_after_cpu_s) if t is not None)
    if traced and recorder.first is not None:
        csv_bytes = csv_path.stat().st_size if csv_path.exists() else 0
        schemes = {s.code: s.token for s in comp_noma.SchemeId}
        record["layers"] = summarize(tracer.spans, end - recorder.first,
                                     workers, csv_bytes, schemes)
        record["spans"] = tracer.spans
    return record


def load_reference(name):
    import gzip
    import json
    with gzip.open(REFERENCE_DIR / f"{name}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _close(value, reference, rtol):
    return abs(value - reference) <= rtol * abs(reference)


def _row_problem(line, expected, sim_seed, compare, index):
    kind, value, scheme, trials, analytic = expected
    fields = line.split(",")
    if len(fields) != 8:
        return "malformed line"
    if (fields[0], fields[2], int(fields[6]), int(fields[7])) != \
            (kind, scheme, trials, sim_seed):
        return "sweep kind, scheme, trials or seed differ from the reference"
    if not _close(float(fields[1]), value, RTOL_ESC):
        return f"sweep value {fields[1]} differs from {value!r}"
    mc, ci95 = float(fields[3]), float(fields[4])
    if (fields[5] == "") != (analytic is None):
        return "esc_analytic present where the reference has none, or missing"
    if analytic is not None:
        closed = float(fields[5])
        if not _close(closed, analytic, RTOL_ESC):
            return f"esc_analytic {closed!r} differs from {analytic!r}"
        if not ci95 > 0:
            return f"esc_ci95 {ci95!r} is not positive"
        z = abs(mc - closed) / (ci95 / 1.96)
        if not z <= Z_MAX:
            return f"|z| = {z:.2f} between Monte Carlo and closed form"
    return compare(index, mc, ci95)


def same_seed(seed_ref):
    """Compares a row's esc_mc and esc_ci95 with those of its own seed."""
    def compare(index, mc, ci95):
        if not _close(mc, seed_ref["esc_mc"][index], RTOL_ESC):
            return f"esc_mc {mc!r} differs from {seed_ref['esc_mc'][index]!r}"
        if not _close(ci95, seed_ref["esc_ci95"][index], RTOL_CI95):
            return (f"esc_ci95 {ci95!r} differs from "
                    f"{seed_ref['esc_ci95'][index]!r}")
        return None
    return compare


def across_seeds(seed_refs):
    """Compares a row's esc_mc and esc_ci95 with the reference seeds' spread."""
    import math
    import statistics
    scale = math.sqrt(1 + 1 / len(seed_refs))
    rows = [(statistics.mean(mc), statistics.stdev(mc) * scale,
             statistics.median(ci95)) for mc, ci95 in
            zip(zip(*(ref["esc_mc"] for ref in seed_refs)),
                zip(*(ref["esc_ci95"] for ref in seed_refs)))]

    def compare(index, mc, ci95):
        mean, sd, ci95_median = rows[index]
        z = abs(mc - mean) / sd
        if not z <= Z_MAX_SEEDS:
            return (f"esc_mc {mc!r} is {z:.2f} standard deviations from the "
                    f"reference seeds' mean {mean!r}")
        if not _close(ci95, ci95_median, RTOL_CI95_SEEDS):
            return (f"esc_ci95 {ci95!r} is far from the reference seeds' "
                    f"median {ci95_median!r}")
        return None
    return compare


def check(name, seed, csv_path):
    """Compare the CSV a run wrote with the reference rows of its workload.

    Every row is checked against the seed-independent reference (sweep
    values, closed form) and the Monte-Carlo/closed-form |z|. Its esc_mc and
    esc_ci95 are checked against its own seed's values when the reference
    table has that seed, and against the spread over the table's seeds when
    it does not.
    """
    import hashlib
    reference = load_reference(name)
    sim_seed = seed % spec.SEED_MODULUS
    seed_ref = reference["seeds"].get(str(sim_seed))
    compare = (same_seed(seed_ref) if seed_ref is not None
               else across_seeds(list(reference["seeds"].values())))
    try:
        data = Path(csv_path).read_bytes()
    except OSError:
        data = b""
    lines = data.decode("utf-8", errors="replace").splitlines()
    expected_rows = reference["rows"]
    problems = []
    if not lines or lines[0] != reference["header"]:
        problems.append("CSV missing or its header differs from the reference")
        failed = len(expected_rows)
    elif len(lines) - 1 != len(expected_rows):
        problems.append(f"CSV has {len(lines) - 1} rows, the reference "
                        f"{len(expected_rows)}")
        failed = len(expected_rows)
    else:
        for index, (line, expected) in enumerate(zip(lines[1:], expected_rows)):
            try:
                problem = _row_problem(line, expected, sim_seed, compare, index)
            except ValueError as exc:
                problem = f"unparsable field: {exc}"
            if problem:
                problems.append(f"row {index + 1}: {problem}")
        failed = len(problems)
    sha = hashlib.sha256(data).hexdigest()
    return {"attempted": len(expected_rows), "failed": failed,
            "problems": problems[:5],
            "reference": "own seed" if seed_ref is not None else "all seeds",
            "csv_sha256": sha,
            "csv_matches_reference":
                None if seed_ref is None else sha == seed_ref["csv_sha256"]}


def _checked(record, name, seed):
    record.update(check(name, seed, record["csv"]))
    if record["status"] != 0:
        record["failed"] = record["attempted"]
    return record


def execute(name, seed, out_dir, traced=False, run_id=0):
    """Prepare, run and check one execution in this process."""
    prepare(name, seed, out_dir, run_id)
    return _checked(run_once(name, seed, out_dir, traced, run_id), name, seed)


def main(argv):
    name, seed, out_dir, traced, run_id = argv
    if name == "warmup":
        import_simulator()
        record = {"warmup": True}
    else:  # run.py has prepared the execution
        record = _checked(run_once(name, int(seed), out_dir, traced == "1",
                                   int(run_id), calibrated=True),
                          name, int(seed))
    import json
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
