"""Tests of the benchmark itself: seeded inputs, metric names against
BENCHMARK.json, span attribution, and a tiny smoke run of every
workload. Run with ``python3 -m pytest perfbench -q`` from the
repository root."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, ROOT)

from perfbench import inputs, layers, run, tracing  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("workload", ["crawl", "learn", "corpus_ops"])
def test_same_seed_same_inputs_and_seeds_differ(workload, tmp_path):
    a = inputs.input_digest(str(tmp_path / "a"), workload, 3, tiny=True)
    b = inputs.input_digest(str(tmp_path / "b"), workload, 3, tiny=True)
    c = inputs.input_digest(str(tmp_path / "a"), workload, 4, tiny=True)
    assert a == b
    assert a != c


def test_corpus_ops_seed_only_permutes_rows(tmp_path):
    import pyarrow.parquet as pq

    d1 = inputs.core_tables(str(tmp_path), 1, tiny=True)
    d2 = inputs.core_tables(str(tmp_path), 2, tiny=True)
    for name in ("lineitem", "events", "documents"):
        t1 = pq.read_table(os.path.join(d1, f"{name}.parquet"))
        t2 = pq.read_table(os.path.join(d2, f"{name}.parquet"))
        assert t1 != t2
        assert sorted(map(str, t1.to_pylist())) == sorted(map(str, t2.to_pylist()))


def test_metric_names_match_benchmark_json():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.PER_LAYER
    setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in bench["end_to_end"])


def test_tail_needs_ten_samples_above():
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100.0)
    value, pct = run.tail([float(i) for i in range(1, 31)])
    assert value == 20.0  # ten samples (21..30) above it
    assert pct == pytest.approx(100 * 20 / 30)


def test_end_to_end_scales_each_sample_by_its_own_probes():
    its = [
        run.Iteration(work=2, latencies=[1.0, 3.0], scales=[0.5, 2.0], output=None),
        run.Iteration(work=2, latencies=[2.0, 2.0], scales=[1.0, 1.0], output=None),
    ]
    m = run.end_to_end(its, setups=[4.0, 6.0, 8.0], peak_rss_mb=1.0)
    assert m["latency_p50_s"] == pytest.approx(2.0)  # of 0.5, 6, 2, 2
    assert m["throughput_per_s"] == pytest.approx((2 / 6.5 + 2 / 4.0) / 2)
    assert m["setup_s"] == pytest.approx(6.0 * 1.0)  # median set-up x median scale
    raw = run.end_to_end(its, setups=[4.0, 6.0, 8.0], peak_rss_mb=1.0, scaled=False)
    assert raw["latency_p50_s"] == pytest.approx(2.0)
    assert raw["throughput_per_s"] == pytest.approx((2 / 4.0 + 2 / 4.0) / 2)


def test_attribution_sums_to_window_and_crosses_processes():
    spans = [
        # main process (pid 1): a round phase waiting on a worker
        ("frontier.fetch_extract", 0.0, 10.0, "1:1", None, 1, "it0/round:2"),
        # worker (pid 2): stage call with a parse inside
        ("stages.fetch_extract", 2.0, 8.0, "2:1", None, 2, None),
        ("htmlcore.parse", 3.0, 5.0, "2:2", "2:1", 2, None),
        # actor (pid 3), called while the stage waits
        ("frontier.shard_submit", 6.0, 7.0, "3:1", None, 3, None),
    ]
    self_time, uncovered, inclusive = tracing.attribute(spans, -1.0, 12.0)
    assert uncovered == pytest.approx(3.0)
    assert self_time["htmlcore"] == pytest.approx(2.0)
    assert self_time["stages"] == pytest.approx(3.0)
    assert self_time["frontier"] == pytest.approx(4.0 + 1.0)
    assert sum(self_time.values()) + uncovered == pytest.approx(13.0)
    assert inclusive["stages.fetch_extract"] == pytest.approx(6.0)


def test_worker_spans_take_the_trace_id_of_the_main_round():
    spans = [
        ("frontier.admit", 0.0, 1.0, "1:1", None, 1, "it0/round:0"),
        ("frontier.shard_flush", 0.5, 0.9, "3:1", None, 3, None),
        ("frontier.fetch_extract", 1.0, 5.0, "1:2", None, 1, "it0/round:0"),
        ("frontier.admit", 6.0, 7.0, "1:3", None, 1, "it0/round:1"),
        ("htmlcore.parse", 6.5, 6.6, "2:1", None, 2, None),
        ("learn.matches", 6.7, 6.8, "1:4", "1:3", 1, "it0/round:1"),
    ]
    ids = [s[6] for s in tracing.assign_trace_ids(spans, main_pid=1)]
    assert ids == ["it0/round:0"] * 3 + ["it0/round:1"] * 3


def test_tracer_scopes_ids_and_children_inherit():
    tracer = tracing.Tracer()
    tracer.enabled, tracer.scope = True, "it4"
    with tracer.span("learn.request", trace_id="request:2"):
        with tracer.span("learn.train"):
            pass
    spans, _ = tracer.drain()
    assert [s[6] for s in spans] == ["it4/request:2", "it4/request:2"]


def _run(workload: str, trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    bench = _benchmark_json()
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_crawl_self_times_sum_to_wall():
    result = _run("crawl", 1)
    assert result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {name for name, _ in layers.PER_LAYER}
    parts = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + m["trace.uncovered_s"]
    assert parts == pytest.approx(m["trace.wall_s"], rel=1e-9)
    for layer in ("frontier", "sources", "stages", "htmlcore", "scrape"):
        assert m[f"{layer}.self_s"] > 0, layer
    assert m["frontier.urls_admitted"] > 0 and m["state.seen_count"] > 0
