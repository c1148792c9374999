"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
GOLDEN = os.path.join(ROOT, "tests", "golden")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_query_mix_is_deterministic_per_seed():
    pool = workloads.query_pool()
    argvs = lambda seed: [r["argv"] for r in workloads.query_mix(pool, seed)]
    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)
    kinds = [r["kind"] for r in workloads.query_mix(pool, 7)]
    assert {k: kinds.count(k) for k in set(kinds)} == workloads.QUERY_MIX


def test_query_pool_binds_only_the_triples_parameters():
    from supertriples.catalog import get_catalog
    cat = get_catalog()
    for req in workloads.query_pool()["invariants"]:
        argv = req["argv"]
        triple = argv[argv.index("--triple") + 1]
        bound = {argv[i + 1].split("=")[0]
                 for i, a in enumerate(argv) if a == "--bind"}
        assert bound == set(cat.triples[triple].ctx.params), argv


def test_self_time_from_span_tree():
    spans_ = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
        ["b", 5.5, 6.0, 3],  # recursion: counted once in total time
    ]
    times = spans.layer_times(spans_)
    assert times["root"] == (1, 5.0, 10.0)
    assert times["a"] == (1, 2.0, 3.0)
    assert times["leaf"] == (1, 1.0, 1.0)
    assert times["b"] == (2, 1.5 + 0.5, 2.0)


def test_self_time_counts_overlapping_children_once():
    spans_ = [["p", 0.0, 10.0, -1], ["c", 1.0, 5.0, 0], ["c", 3.0, 6.0, 0],
              ["c", 9.0, 12.0, 0]]
    # children cover [1, 6] and [9, 10] of the parent
    assert spans.layer_times(spans_)["p"][1] == pytest.approx(4.0)


def test_metric_names_are_well_formed_and_match_the_declaration():
    declared = _benchmark_json()
    per_layer = [m["name"] for m in declared["per_layer"]]
    end_to_end = [m["name"] for m in declared["end_to_end"]]
    for name in per_layer + end_to_end:
        assert NAME.fullmatch(name), name
    assert per_layer == spans.layer_metric_names()
    ops = [workloads.Op("noop", "noop", lambda: None)]
    metrics, _ = run.end_to_end(ops, 0.0, run.Failures())
    assert list(metrics) == end_to_end
    tracer = spans.Tracer()
    layer = spans.layer_metrics(tracer, {c: 0 for c in spans.COUNTED}, 1.0, 1.0)
    assert list(layer) == per_layer


def test_corrupted_golden_line_trips_the_reproduce_gate(tmp_path):
    assert workloads.report_op("table2", GOLDEN).run() is None
    shutil.copytree(GOLDEN, tmp_path / "golden")
    path = tmp_path / "golden" / "report_table2.txt"
    lines = path.read_text().split("\n")
    lines[2] = lines[2].replace("pass", "fail", 1)
    path.write_text("\n".join(lines))
    error = workloads.report_op("table2", str(tmp_path / "golden")).run()
    assert error is not None and "line 3" in error


def test_traced_counts_repeat_across_passes():
    workloads.warm_up()
    ops = workloads.queries_ops(3, ROOT)[:60]
    runs = []
    for _ in range(2):
        failures = run.Failures()
        with spans.Tracer() as tracer:
            run.run_pass(ops, failures, repeat=False)
        with spans.Counting() as counting:
            run.run_pass(ops, failures, repeat=False)
        assert not failures.messages
        calls = {name: row[0] for name, row in spans.layer_times(tracer.spans).items()}
        runs.append((calls, dict(tracer.counters), counting.counts()))
    assert runs[0] == runs[1]
    assert runs[0][0].get("iso.search_iso", 0) == 0


def test_search_candidates_at_default_budget():
    """thm3 leaves 17 pairs to search_iso, each exhausting budget 1500."""
    workloads.warm_up()
    with spans.Tracer() as tracer:
        assert workloads.report_op("thm3", GOLDEN).run() is None
    assert tracer.counters["iso.search_iso.candidates"] == 17 * 1500 == 25500
    assert spans.layer_times(tracer.spans)["iso.search_iso"][0] == 17


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "queries",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
