#!/usr/bin/env python3
"""mlscraper_ray benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 10 --trace 0

Run from the repository root. Workloads: ``crawl``, ``learn``,
``corpus_ops`` (see perfbench/README.md for why each exists, and why
``extract`` was dropped). ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload untraced and then traced, and prints
the per-layer metrics. End-to-end timings are in reference seconds
(see ``md5_probe_s`` and ``ray_probe_s``). The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable
summary and the host stamp go to stderr, and full detail to
``.pbs/results/``. All scratch data lives under ``.pbs/`` in the
repository root.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCRATCH = os.path.join(ROOT, ".pbs")

WORKLOADS = ("learn", "crawl", "corpus_ops")

# What the two host-speed probes read on a quiet stretch of the
# reference host. Each latency sample is scaled by the reference reading
# over the reading of probes taken beside it, so end-to-end timings are
# in reference seconds: the time on a host where the probes read these.
REFERENCE_MD5_S = 0.010
REFERENCE_RAY_S = 0.100
RAY_PROBES_PER_SIDE = 5
RAY_PROBE_BLOCK_ROUNDS = 20000

# Seconds one iteration takes on the reference host (1 cpu). A run
# performs round(seconds / nominal) whole iterations, so the work in a
# run is fixed by --seconds, not by how fast this particular run went.
NOMINAL_ITERATION_S = {"crawl": 10.0, "learn": 1.4, "corpus_ops": 10.0}

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


def nproc() -> int:
    """The cpu count the ``nproc`` command reports: the affinity set,
    capped by OMP_NUM_THREADS when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def md5_probe_s(rounds: int = 20000) -> float:
    """Fixed CPU work in this thread: chained md5 rounds. It probes the
    host speed beside the learner's requests, which run in this thread."""
    import hashlib

    t0 = time.perf_counter()
    h = b"x"
    for _ in range(rounds):
        h = hashlib.md5(h).digest()
    return time.perf_counter() - t0


def host_probe_ms() -> float:
    """The md5 probe at 200k rounds, to stamp the host speed."""
    return md5_probe_s(200000) * 1000


def _md5_batch(batch):
    md5_probe_s(RAY_PROBE_BLOCK_ROUNDS)
    return batch


def ray_probe_s() -> float:
    """A fixed Ray Data job that runs no engine code: ``range`` in four
    blocks, a ``map_batches`` that does fixed md5 work per block in the
    worker, ``to_pandas``. About half its time is that CPU work and half
    is moving blocks and tasks between the driver, raylet and worker,
    roughly the mix of the Ray workloads. On a busy host the second half
    slows far more than CPU work does: with five busy processes on the
    four vCPUs, a null job slowed about 13x, the in-thread md5 probe
    1.1x, and a core-set pass 12x."""
    import ray.data

    t0 = time.perf_counter()
    ray.data.range(2000, override_num_blocks=4).map_batches(_md5_batch).to_pandas()
    return time.perf_counter() - t0


def ray_scale(probes: list) -> float:
    """Reference seconds per measured second from Ray probe jobs."""
    return REFERENCE_RAY_S / statistics.median(probes)


def tail(values: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least
    ten samples above it; the maximum (percentile 100) when that
    percentile would fall below the median (fewer than 22 samples)."""
    s = sorted(values)
    k = len(s) - 11
    if k < len(s) // 2:
        return s[-1], 100.0
    return s[k], 100.0 * (k + 1) / len(s)


class RssSampler(threading.Thread):
    """Peak summed RSS of this process and all its descendants (the
    Ray GCS, raylet and worker processes), read from /proc."""

    def __init__(self, interval: float = 0.25):
        super().__init__(daemon=True)
        self.interval = interval
        self.peak_bytes = 0
        self._stop_event = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _sample(self) -> int:
        children: dict[int, list[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(entry))
        total, todo = 0, [os.getpid()]
        while todo:
            pid = todo.pop()
            todo.extend(children.get(pid, ()))
            try:
                with open(f"/proc/{pid}/statm") as f:
                    total += int(f.read().split()[1]) * self._page
            except (OSError, IndexError, ValueError):
                pass
        return total

    def run(self):
        while not self._stop_event.is_set():
            self.peak_bytes = max(self.peak_bytes, self._sample())
            self._stop_event.wait(self.interval)

    def stop(self) -> float:
        self._stop_event.set()
        self.join(timeout=10)
        return self.peak_bytes / 1e6


# -- Ray session ----------------------------------------------------------

def _ray_temp_dir() -> str:
    """Ray session files go under the scratch root unless the path is
    too long for Ray's AF_UNIX sockets (107 bytes, of which the session
    and socket names take 62); then under the system temp dir."""
    path = os.path.join(SCRATCH, "ray")
    if len(path) + 62 > 107:
        path = os.path.join(tempfile.gettempdir(), f"perfbench-ray-{os.getuid()}")
        print(f"perfbench: checkout path too long for Ray sockets, using {path}", file=sys.stderr)
    os.makedirs(path, exist_ok=True)
    return path


def ray_start(trace_dir: str | None = None) -> None:
    import ray
    import ray.data

    from perfbench.tracing import TRACE_DIR_ENV

    # raylet and workers inherit this process's environment at init
    if trace_dir:
        os.environ[TRACE_DIR_ENV] = trace_dir
    else:
        os.environ.pop(TRACE_DIR_ENV, None)
    ray.init(
        address="local",
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024 * 1024,
        _temp_dir=_ray_temp_dir(),
    )
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def ray_stop() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()


# -- workloads ------------------------------------------------------------

@dataclasses.dataclass
class Iteration:
    """One timed unit of closed-loop work and what its checks need.
    ``latencies`` are measured seconds; ``scales`` holds, per latency,
    the reference seconds per measured second from the probes taken
    beside it (1.0 when the run does not probe)."""

    work: int
    latencies: list
    scales: list
    output: object

    @property
    def elapsed(self) -> float:
        return sum(self.latencies)

    @property
    def ref_latencies(self) -> list:
        return [x * s for x, s in zip(self.latencies, self.scales)]


class CrawlWorkload:
    """The full BSP crawl, ``RayCrawler(corpus, out, cfg).run()``; one
    iteration and one latency sample is one whole crawl. Round latencies
    are per-layer metrics: their median moves by up to 2x between runs
    on a busy host, because the small, barrier-bound rounds slow far more
    than the md5 probe does. The Ray probe job runs five times before and
    five times after the crawl."""

    uses_ray = True
    setup_repeats = 3
    unit = "admitted URLs fetched and extracted per s of crawl wall time"
    latency_unit = "one whole crawl"

    def __init__(self, seed: int, tiny: bool):
        self.seed, self.tiny = seed, tiny
        self.n = 0
        self.probing = True

    def prepare(self) -> None:
        from perfbench import inputs

        self.corpus_dir, self.spec = inputs.corpus(SCRATCH, self.seed, self.tiny)
        self.reference = inputs.crawl_reference(SCRATCH, self.corpus_dir, self.spec)
        self.golden = inputs.golden(self.corpus_dir)

    def setup(self) -> None:
        import pyarrow.parquet as pq
        import ray.data

        from mlscraper_ray.pipelines.crawl_pipeline import learn_plan
        from mlscraper_ray.stages.crawl_stages import fetch_parse_extract_task
        from perfbench import inputs

        # every set-up pays the plan compile: drop learn_plan's cache
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(self.corpus_dir, "_PLAN.json"))
        self.plan = learn_plan(self.corpus_dir, self.spec)
        self.cfg = inputs.crawl_config(self.spec, self.plan)
        seeds = pq.read_table(os.path.join(self.corpus_dir, "seeds.parquet"))
        ray.data.from_arrow(seeds).map_batches(
            fetch_parse_extract_task,
            fn_kwargs={
                "corpus_dir": self.corpus_dir, "n_buckets": self.cfg.n_buckets,
                "plan": self.plan, "round_k": 0,
            },
            batch_format="pyarrow",
        ).materialize()

    def iteration(self) -> Iteration:
        from mlscraper_ray.frontier.crawler import RayCrawler

        self.n += 1
        out_dir = os.path.join(SCRATCH, "run", f"crawl-s{self.seed}-{self.n}")
        shutil.rmtree(out_dir, ignore_errors=True)
        probes = [ray_probe_s() for _ in range(RAY_PROBES_PER_SIDE)] if self.probing else []
        t0 = time.monotonic()
        stats = RayCrawler(self.corpus_dir, out_dir, self.cfg).run()
        t1 = time.monotonic()
        if self.probing:
            probes += [ray_probe_s() for _ in range(RAY_PROBES_PER_SIDE)]
        work = sum(r["admitted"] for r in stats["rounds"])
        scale = ray_scale(probes) if probes else 1.0
        return Iteration(work, [t1 - t0], [scale], (out_dir, stats))

    def check(self, it: Iteration) -> tuple[int, int]:
        import glob

        import pyarrow as pa
        import pyarrow.parquet as pq

        from mlscraper_ray.sources.corpusgen import expected_plan

        out_dir, stats = it.output
        files = sorted(glob.glob(os.path.join(out_dir, "rounds", "round=*", "results", "*.parquet")))
        res = pa.concat_tables(
            [pq.read_table(f, columns=["round", "depth", "host", "url", "value_json", "fetch_ok"]) for f in files]
        ).to_pylist()
        fetched = [r for r in res if r["fetch_ok"]]
        order = sorted([r["round"], r["depth"], r["host"], r["url"]] for r in fetched)
        ref = self.reference
        keys = ("admitted", "enqueued", "dropped_seen", "dropped_robots", "dropped_depth")
        checks = [
            self.plan == expected_plan(),
            order == ref["fetches"],
            stats["seen"] == ref["seen"],
            all(stats["counters"].get(k, 0) == ref["counters"].get(k, 0) for k in keys),
        ]
        checks += [r["value_json"] == self.golden.get(r["url"]) for r in fetched]
        return len(checks), checks.count(False)

    def layer_counts(self, it: Iteration) -> dict:
        """Frontier and state counters of one crawl, from its stats and
        checkpoint manifests."""
        import glob

        out_dir, stats = it.output
        c = stats["counters"]
        ckpt_bytes = sum(
            os.path.getsize(f) for f in glob.glob(os.path.join(out_dir, "checkpoint", "*", "*"))
        )
        skews, prev = [], None
        for k in range(len(stats["rounds"])):
            with open(os.path.join(out_dir, "checkpoint", f"round={k}", "MANIFEST.json")) as f:
                admitted = [s.get("admitted", 0) for s in json.load(f)["shard_counters"]]
            delta = admitted if prev is None else [a - b for a, b in zip(admitted, prev)]
            prev = admitted
            mean = sum(delta) / len(delta)
            if mean > 0:
                skews.append(max(delta) / mean)
        # the crawler's own phase timings cover admit start to manifest commit
        rounds = [r["sec_admit"] + r["sec_fetch_extract"] + r["sec_checkpoint"] for r in stats["rounds"]]
        return {
            "frontier.round_p50_s": statistics.median(rounds),
            "frontier.round_tail_s": tail(rounds)[0],
            "frontier.checkpoint_mb": ckpt_bytes / 1e6,
            "frontier.rounds": len(stats["rounds"]),
            "frontier.urls_submitted": c.get("submitted", 0),
            "frontier.urls_admitted": c.get("admitted", 0),
            "frontier.dropped_seen": c.get("dropped_seen", 0),
            "frontier.dropped_robots": c.get("dropped_robots", 0),
            "frontier.dropped_depth": c.get("dropped_depth", 0),
            "frontier.salted_rows": c.get("salted_rows", 0),
            "frontier.shard_skew": sum(skews) / len(skews) if skews else 0.0,
            "state.seen_count": stats["seen"],
        }

    def discard(self, it: Iteration) -> None:
        shutil.rmtree(it.output[0], ignore_errors=True)


class LearnWorkload:
    """Back-to-back ``train_scraper(TrainingSet, complexity=2)`` requests
    in the benchmark process, no Ray. A request parses its training pages and
    trains; one iteration is one cycle over the request shapes."""

    uses_ray = False
    setup_repeats = 9  # one set-up is a single small training call
    unit = "training requests per s"
    latency_unit = "one training request (parse + train)"

    def __init__(self, seed: int, tiny: bool):
        self.seed, self.tiny = seed, tiny
        self.probing = True

    def prepare(self) -> None:
        from mlscraper_ray.sources.corpusgen import CorpusSpec, page_entries, render_page
        from perfbench import inputs

        self.requests = inputs.learn_requests(self.seed, self.tiny)
        spec = CorpusSpec(seed=0, entries_per_page=20, filler_words=200)
        self.warmup = [(render_page(spec, h, 1)[0], page_entries(spec, h, 1)) for h in (0, 1)]

    @staticmethod
    def _train(pages: list) -> dict:
        from mlscraper_ray.htmlcore import dom
        from mlscraper_ray.learn import training
        from mlscraper_ray.learn.samples import Sample, TrainingSet

        ts = TrainingSet()
        for html, value in pages:
            ts.add_sample(Sample(dom.parse_html(html), value))
        return training.train_scraper(ts, complexity=2).to_plan()

    def setup(self) -> None:
        self._train(self.warmup)

    def iteration(self) -> Iteration:
        from perfbench.tracing import TRACER

        latencies, scales, plans = [], [], []
        before = md5_probe_s() if self.probing else None
        for req in self.requests:
            t0 = time.monotonic()
            with TRACER.span("learn.request", trace_id=f"request:{len(plans)}"):
                plans.append(self._train(req["pages"]))
            latencies.append(time.monotonic() - t0)
            # the md5 probes just before and just after the request
            if self.probing:
                after = md5_probe_s()
                scales.append(2 * REFERENCE_MD5_S / (before + after))
                before = after
            else:
                scales.append(1.0)
        return Iteration(len(latencies), latencies, scales, plans)

    def check(self, it: Iteration) -> tuple[int, int]:
        from mlscraper_ray.htmlcore.dom import parse_html
        from mlscraper_ray.scrape.model import scraper_from_plan
        from mlscraper_ray.sources.corpusgen import expected_plan

        checks = []
        for req, plan in zip(self.requests, it.output):
            html, entries = req["unseen"]
            checks.append(plan == expected_plan())
            checks.append(scraper_from_plan(plan).get(parse_html(html)) == entries)
        return len(checks), checks.count(False)


def _import_operators(df):
    """Worker warm-up: import every registry operator module in the
    worker, as the operators' first calls would."""
    import __ray_entry__

    __ray_entry__.queries()
    return df


class CorpusOpsWorkload:
    """One pass over the fixed core set of registry operators on the
    seed-permuted tables; one iteration and one latency sample is one
    pass. Per-operator times are per-layer metrics: the nine operators
    differ up to 20x in cost, so the median call switches between
    operators from run to run."""

    uses_ray = True
    setup_repeats = 3
    unit = "core-set operator calls per s"
    latency_unit = "one pass over the core set"

    def __init__(self, seed: int, tiny: bool):
        self.seed, self.tiny = seed, tiny
        self.n = 0
        self.probing = True

    def prepare(self) -> None:
        from perfbench import inputs

        self.tables_dir = inputs.core_tables(SCRATCH, self.seed, self.tiny)
        self.oracle = self._oracle_hashes()

    def _oracle_hashes(self) -> dict:
        """DuckDB oracle hash per op on the same permuted tables
        (untimed, cached beside the tables)."""
        path = os.path.join(self.tables_dir, "_oracle.json")
        if os.path.exists(path):
            with open(path) as f:
                return json.load(f)
        import duckdb

        import __ray_entry__
        from perfbench.inputs import CORE_OPS
        from tests.oracle_compare import value_hash

        sql = __ray_entry__.oracle_sql()
        con = duckdb.connect()
        for f in sorted(os.listdir(self.tables_dir)):
            if f.endswith(".parquet"):
                path_f = os.path.join(self.tables_dir, f)
                con.execute(f"CREATE VIEW {f[:-8]} AS SELECT * FROM '{path_f}'")
        hashes = {}
        for op in CORE_OPS:
            df = con.execute(sql["doc_tfidf_top_terms" if op == "tfidf_to_parquet" else op]).fetchdf()
            hashes[op] = [sorted(df.columns), value_hash(df)]
        con.close()
        with open(path + ".tmp", "w") as f:
            json.dump(hashes, f)
        os.replace(path + ".tmp", path)
        return hashes

    def setup(self) -> None:
        import ray.data

        import __ray_entry__

        self.queries = __ray_entry__.queries()
        ray.data.read_parquet(os.path.join(self.tables_dir, "lineitem.parquet")).map_batches(
            _import_operators, batch_format="pandas"
        ).materialize()

    def _pass(self, tables_dir: str, tag: str) -> tuple[dict, float, list]:
        """Run the core set once, with a Ray probe job before each
        operator and after the last; returns each operator's result,
        the summed operator time and the probes."""
        import ray.data

        from mlscraper_ray.functions.keywords import tfidf_to_parquet
        from perfbench.inputs import CORE_OPS
        from perfbench.tracing import TRACER

        results, elapsed, probes = {}, 0.0, []
        for op in CORE_OPS:
            if self.probing:
                probes.append(ray_probe_s())
            t0 = time.monotonic()
            with TRACER.span(f"functions.{op}", trace_id=f"op:{op}"):
                if op == "tfidf_to_parquet":
                    out = os.path.join(SCRATCH, "run", f"tfidf-s{self.seed}-{tag}")
                    shutil.rmtree(out, ignore_errors=True)
                    tfidf_to_parquet(tables_dir, out)
                else:
                    out = self.queries[op](tables_dir)
                    if isinstance(out, ray.data.Dataset):
                        out = out.to_pandas()
            elapsed += time.monotonic() - t0
            results[op] = out
        if self.probing:
            probes.append(ray_probe_s())
        return results, elapsed, probes

    def iteration(self) -> Iteration:
        self.n += 1
        results, elapsed, probes = self._pass(self.tables_dir, str(self.n))
        scale = ray_scale(probes) if probes else 1.0
        return Iteration(len(results), [elapsed], [scale], results)

    def check(self, it: Iteration) -> tuple[int, int]:
        import glob

        import pandas as pd
        import pyarrow.parquet as pq

        from perfbench.inputs import CORE_OPS
        from tests.oracle_compare import to_pandas, value_hash

        failed = 0
        for op in CORE_OPS:
            out = it.output[op]
            if op == "tfidf_to_parquet":
                files = sorted(glob.glob(os.path.join(out, "shard=*", "*.parquet")))
                df = pd.concat([pq.read_table(f).to_pandas() for f in files], ignore_index=True)
            else:
                df = to_pandas(out)
            cols, want = self.oracle[op]
            if sorted(df.columns) != cols or value_hash(df) != want:
                failed += 1
                print(f"perfbench: corpus_ops {op} differs from its DuckDB oracle", file=sys.stderr)
        return len(CORE_OPS), failed

    def discard(self, it: Iteration) -> None:
        shutil.rmtree(it.output["tfidf_to_parquet"], ignore_errors=True)


WORKLOAD_CLASSES = {
    "crawl": CrawlWorkload,
    "learn": LearnWorkload,
    "corpus_ops": CorpusOpsWorkload,
}


# -- measurement ----------------------------------------------------------

def iterations_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ITERATION_S[workload]))


def measure(wl, n: int) -> tuple[list, float, float]:
    """Run n iterations back to back; returns them and the window."""
    from perfbench.tracing import TRACER

    its = []
    t_start = time.monotonic()
    for i in range(n):
        TRACER.scope = f"it{i}"
        its.append(wl.iteration())
    return its, t_start, time.monotonic()


def end_to_end(its: list, setups: list, peak_rss_mb: float, scaled: bool = True) -> dict:
    """The end-to-end metrics, in reference seconds when ``scaled``.
    Set-ups take no probes of their own: their median is scaled by the
    median scale of the run's samples."""
    lat = [x for it in its for x in (it.ref_latencies if scaled else it.latencies)]
    tail_value, _ = tail(lat)
    setup_scale = statistics.median(s for it in its for s in it.scales) if scaled else 1.0
    return {
        "setup_s": statistics.median(setups) * setup_scale,
        "throughput_per_s": statistics.median(
            it.work / sum(it.ref_latencies if scaled else it.latencies) for it in its
        ),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb,
    }


def run_untraced(name: str, wl, seconds: float) -> tuple[dict, list, dict]:
    """``wl.setup_repeats`` set-ups, each in a fresh Ray session for the
    Ray workloads; then the timed iterations in the last session."""
    setups = []
    for i in range(wl.setup_repeats):
        if i and wl.uses_ray:
            ray_stop()
        t0 = time.monotonic()
        if wl.uses_ray:
            ray_start()
        wl.setup()
        setups.append(time.monotonic() - t0)
    its, _, _ = measure(wl, iterations_for(name, seconds))
    return {"setups": setups}, its, {}


def run_traced(name: str, wl, seconds: float) -> tuple[dict, list, dict]:
    """Untraced half, then the same number of traced iterations in a
    fresh Ray session whose workers record spans."""
    from perfbench import layers, tracing

    n = iterations_for(name, seconds / 2)
    wl.probing = False  # probe jobs would add untraced time to the window
    if wl.uses_ray:
        ray_start()
    wl.setup()
    untraced, _, _ = measure(wl, n)
    trace_dir = os.path.join(SCRATCH, "trace", f"{name}-s{wl.seed}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    if wl.uses_ray:
        ray_stop()
        ray_start(trace_dir)
    tracing.install_main()
    wl.setup()
    tracing.TRACER.enabled = True
    try:
        traced, t_start, t_end = measure(wl, n)
    finally:
        tracing.TRACER.enabled = False
    if wl.uses_ray:
        ray_stop()  # every worker has flushed: spans flush when their root closes
    spans, counts = tracing.collect(trace_dir)
    metrics = layers.per_layer(name, wl, traced, untraced, spans, counts, t_start, t_end)
    with open(os.path.join(trace_dir, "spans.json"), "w") as f:
        json.dump({"window": [t_start, t_end], "spans": spans, "counts": counts}, f)
    return {"untraced_iterations": len(untraced), "trace_dir": trace_dir}, untraced + traced, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)
    # a terminated run still shuts Ray down (the finally blocks below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    sys.path.insert(0, ROOT)
    try:
        import mlscraper_ray  # noqa: F401
        import ray
    except ImportError as exc:
        print(f"perfbench: cannot import the engine from {ROOT}: {exc}", file=sys.stderr)
        return 2
    # Ray workers import the engine and perfbench from the repo root
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    os.environ["MLSCRAPER_RAY_TMP"] = os.path.join(SCRATCH, "engine_tmp")
    os.makedirs(os.path.join(SCRATCH, "results"), exist_ok=True)

    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny, "nproc": nproc(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_version": ray.__version__, "python": sys.version.split()[0],
        "host_probe_ms_before": host_probe_ms(),
    }
    wl = WORKLOAD_CLASSES[args.workload](args.seed, args.tiny)
    wl.prepare()
    sampler = RssSampler()
    sampler.start()
    try:
        if args.trace:
            detail, its, layer_metrics = run_traced(args.workload, wl, args.seconds)
        else:
            detail, its, layer_metrics = run_untraced(args.workload, wl, args.seconds)
    finally:
        if wl.uses_ray:
            ray_stop()
        peak_rss_mb = sampler.stop()
    attempted = failed = 0
    for it in its:
        a, f = wl.check(it)
        attempted, failed = attempted + a, failed + f
        if hasattr(wl, "discard"):
            wl.discard(it)
    stamp["host_probe_ms_after"] = host_probe_ms()

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
    else:
        e2e = end_to_end(its, detail["setups"], peak_rss_mb)
        detail["unscaled"] = end_to_end(its, detail["setups"], peak_rss_mb, scaled=False)
        detail["iterations"] = [
            {"work": it.work, "latencies_s": it.latencies, "scales": it.scales} for it in its
        ]
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    lat = [x for it in its for x in it.latencies]
    _, tail_pct = tail(lat)
    summary = {
        "stamp": stamp,
        "iterations": len(its),
        "latency_samples": len(lat),
        "tail_percentile": tail_pct,
        "failed_frac": failed / attempted if attempted else 1.0,
        "detail": detail,
        "metrics": metrics,
    }
    with open(os.path.join(SCRATCH, "results", f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as f:
        json.dump(summary, f, indent=1)

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} nproc={stamp['nproc']} "
        f"ray={stamp['ray_version']} host_probe_ms={stamp['host_probe_ms_before']:.1f}/"
        f"{stamp['host_probe_ms_after']:.1f}",
        file=sys.stderr,
    )
    if not args.trace:
        scales = [s for it in its for s in it.scales]
        print(
            f"  timings in reference seconds: measured x {min(scales):.3f}..{max(scales):.3f} "
            f"(reference probe / probes beside each sample)",
            file=sys.stderr,
        )
        print(f"  throughput unit: {wl.unit}", file=sys.stderr)
        print(
            f"  latency unit: {wl.latency_unit}; {len(lat)} samples, tail = p{tail_pct:.0f}",
            file=sys.stderr,
        )
    for k, m in metrics.items():
        print(f"  {k:<34} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"  failed_frac {summary['failed_frac']:.6g} ({failed} of {attempted} checks)", file=sys.stderr)
    print(f"  scaling efficiency: omitted (nproc={stamp['nproc']}; needs two parallelism levels)", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
