"""Merge the result files of benchmark runs into baseline/<workload>.json.

    python3 escbench/baseline.py

Reads every out/result-<workload>-seed<n>-trace<t>.json that run.py wrote
and records, for each metric, the value of every run with their median and
quartiles, next to the environment the runs shared. A later change compares
its own runs, made with the same command, against this file.
"""

import json
import statistics

import spec
from run import HERE, OUT


def summarize(values):
    summary = {"median": statistics.median(values), "runs": values}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / summary["median"])
    return summary


def merge(name):
    results = sorted((json.loads(path.read_text(encoding="utf-8")) for path in
                      OUT.glob(f"result-{name}-seed*-trace*.json")),
                     key=lambda r: (r["env"]["trace"], r["env"]["seed"]))
    if not results:
        raise SystemExit(f"no results for {name} in {OUT}")
    record = {"workload": name,
              "env": {k: v for k, v in results[0]["env"].items()
                      if k not in ("seed", "trace", "comp_noma")},
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results)}
    for trace, level in ((0, "end_to_end"), (1, "per_layer")):
        runs = [r for r in results if r["env"]["trace"] == trace]
        record[f"{level}_seeds"] = [r["env"]["seed"] for r in runs]
        record[level] = {
            metric: {"unit": runs[0]["metrics"][metric]["unit"],
                     **summarize([r["metrics"][metric]["value"] for r in runs])}
            for metric in (runs[0]["metrics"] if runs else {})}
    return record


def main():
    (HERE / "baseline").mkdir(exist_ok=True)
    for name in spec.WORKLOADS:
        (HERE / "baseline" / f"{name}.json").write_text(
            json.dumps(merge(name), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
