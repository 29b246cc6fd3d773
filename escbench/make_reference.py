"""Record the reference rows the correctness gate compares against.

    python3 escbench/make_reference.py

Runs each workload in this process for seeds 0..SEEDS-1 and writes
reference/<workload>.json.gz: the CSV header, the seed-independent part of
every row (sweep kind and value, scheme, trials, closed form) and, per
seed, esc_mc, esc_ci95 and the CSV's SHA-256. Run it only on a commit whose
numbers are trusted; the committed files come from the seed commit.
"""

import gzip
import hashlib
import json
from pathlib import Path

import spec
from child import HERE, REFERENCE_DIR, Z_MAX, prepare, run_once

SEEDS = 64


def reference_for(name, out_dir):
    header, rows, per_seed, worst_z = None, None, {}, 0.0
    for seed in range(SEEDS):
        prepare(name, seed, out_dir)
        record = run_once(name, seed, out_dir)
        if record["status"] != 0:
            raise SystemExit(f"{name} seed {seed}: the run failed")
        data = Path(record["csv"]).read_bytes()
        lines = data.decode("utf-8").splitlines()
        fields = [line.split(",") for line in lines[1:]]
        seed_rows = [[f[0], float(f[1]), f[2], int(f[6]),
                      float(f[5]) if f[5] else None] for f in fields]
        if rows is None:
            header, rows = lines[0], seed_rows
        elif (lines[0], seed_rows) != (header, rows):
            raise SystemExit(f"{name} seed {seed}: seed-independent fields changed")
        per_seed[str(seed)] = {"esc_mc": [float(f[3]) for f in fields],
                               "esc_ci95": [float(f[4]) for f in fields],
                               "csv_sha256": hashlib.sha256(data).hexdigest()}
        for f in fields:
            if f[5]:
                worst_z = max(worst_z, abs(float(f[3]) - float(f[5]))
                              / (float(f[4]) / 1.96))
    print(f"{name}: {SEEDS} seeds, {len(rows)} rows, largest |z| {worst_z:.2f}"
          f" (gate {Z_MAX})")
    return {"workload": name, "header": header, "rows": rows, "seeds": per_seed}


def main():
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in spec.WORKLOADS:
        reference = reference_for(name, out_dir)
        text = json.dumps(reference, sort_keys=True, separators=(",", ":"))
        (REFERENCE_DIR / f"{name}.json.gz").write_bytes(
            gzip.compress(text.encode("utf-8"), mtime=0))


if __name__ == "__main__":
    main()
