"""Tests of the ESC benchmark itself; they are not part of the simulator's suite.

    python3 -m pytest escbench
"""

import json
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import child
import spec
from tracing import Tracer, self_times_ns

HERE = Path(__file__).resolve().parent


def test_clean_run_passes_the_gate(tmp_path):
    record = child.execute("comp_1e6", 1, tmp_path)
    assert (record["attempted"], record["failed"]) == (1, 0)
    assert record["reference"] == "own seed"
    assert record["csv_matches_reference"] is True


def test_wrong_closed_form_fails_the_gate(tmp_path, monkeypatch):
    child.import_simulator()
    from comp_noma import montecarlo
    closed_form = montecarlo.total_esc_closed
    monkeypatch.setattr(montecarlo, "total_esc_closed",
                        lambda stats, params: 1.01 * closed_form(stats, params))
    record = child.execute("comp_1e6", 1, tmp_path)
    assert record["failed"] / record["attempted"] > 0
    assert "esc_analytic" in record["problems"][0]


def test_seed_without_reference_is_still_checked(tmp_path):
    record = child.execute("comp_1e6", 10 ** 6, tmp_path)
    assert record["reference"] == "all seeds"
    assert record["failed"] == 0


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_rows_of_other_seeds_fail_far_from_the_reference_seeds(name):
    seed_refs = list(child.load_reference(name)["seeds"].values())
    compare = child.across_seeds(seed_refs)
    for index in range(spec.WORKLOADS[name].estimates):
        mc = [ref["esc_mc"][index] for ref in seed_refs]
        ci95 = [ref["esc_ci95"][index] for ref in seed_refs]
        mean, sd = sum(mc) / len(mc), statistics.stdev(mc)
        median = statistics.median(ci95)
        assert compare(index, mean, median) is None
        assert "esc_mc" in compare(index, mean + 6 * sd, median)
        assert "esc_ci95" in compare(index, mean, 1.2 * median)


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_traced_run_reproduces_the_call_counts(tmp_path, name):
    child.import_simulator()
    from comp_noma import harness, kernels, montecarlo
    originals = (harness.estimate_esc, kernels.sample_gains)
    record = child.execute(name, 1, tmp_path, traced=True)
    assert record["failed"] == 0
    for metric, count in spec.WORKLOADS[name].counts.items():
        assert record["layers"][metric] == count, metric
    assert (harness.estimate_esc, kernels.sample_gains) == originals
    assert montecarlo.estimate_esc is harness.estimate_esc


def test_workload_sizes_match_the_references():
    for name, workload in spec.WORKLOADS.items():
        assert len(child.load_reference(name)["rows"]) == workload.estimates


def test_self_time_subtracts_the_union_of_children():
    spans = [[1, 0, "montecarlo.estimate_esc", 0, 100, 1, 0, None],
             [2, 1, "kernels.sample_gains", 10, 30, 2, 0, None],
             [3, 1, "kernels.sample_gains", 20, 50, 3, 0, None],
             [4, 1, "analytic.total_esc_closed", 90, 120, 1, 0, None]]
    assert self_times_ns(spans) == {1: 50, 2: 20, 3: 30, 4: 30}


def test_tracer_keeps_every_span_under_thread_contention():
    tracer = Tracer(run_id=7)
    traced = tracer.wrap(lambda: None, "kernels.scheme_rates.stub")
    outer = tracer.wrap(lambda threads: [t.join(timeout=30) for t in threads],
                        "montecarlo.estimate_esc")
    threads = [threading.Thread(target=lambda: [traced() for _ in range(2000)])
               for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        outer(threads)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(tracer.spans) == 4 * 2000 + 1
    assert len({span[0] for span in tracer.spans}) == len(tracer.spans)


def _checkout(tmp_path, with_simulator):
    """BENCHMARK.json and escbench/ in tmp_path, and src/ if asked for."""
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "escbench", ignore=ignore)
    if with_simulator:
        shutil.copytree(HERE.parent / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


def _run(cwd):
    return subprocess.run(
        [sys.executable, "escbench/run.py", "--workload", "comp_1e6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_run_refuses_a_directory_without_the_simulator(tmp_path):
    proc = _run(_checkout(tmp_path, with_simulator=False))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_reports_every_end_to_end_metric(tmp_path):
    proc = _run(_checkout(tmp_path, with_simulator=True))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert [*result["metrics"]] == [m["name"] for m in declared["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
