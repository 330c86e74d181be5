"""Spans for the traced benchmark pass, recorded from the benchmark's
own files by wrapping the engine's functions where they are looked up.

A span is (name, start, end, span id, parent id, pid, trace id); a
count is (name, value, time), so both can be cut to the traced window.
The trace id is shared by all spans of one crawl round, training
request or operator call: ``it<i>/round:<k>``, ``it<i>/request:<j>`` or
``it<i>/op:<name>`` for iteration i of the run. The main process sets
it; a worker or actor span gets it in :func:`collect`, from the main
process's outermost span that most recently started before it (BSP
rounds, requests and operator calls run one at a time). The layer of a
span is the part of its name before the first dot; layers are named
after the engine's modules (``frontier``, ``state``, ``sources``,
``stages``, ``htmlcore``, ``scrape``, ``learn``, ``functions``) plus
``ray_data`` for Ray Data execution that no engine span covers.

Main-process wrappers are installed by :func:`install_main`. Stage
and actor code runs in Ray worker processes, so the main process swaps
the names ``frontier.crawler`` looks the fetch stage and the shard
actor class up by for stand-ins defined here; Ray ships them to the
workers by reference, and their first call in a worker runs
:func:`install_worker`. (Ray's ``worker_process_setup_hook`` would do
the same, but a job-level runtime env doubled actor start time.) A
worker keeps its spans in memory and appends them to
``$PERFBENCH_TRACE_DIR/w-<pid>.jsonl`` whenever its outermost span
closes (actor processes can be killed without notice, so there is no
later point that is sure to run).

All clocks are ``time.monotonic()``, which on Linux is one system-wide
clock, so spans from different processes share a time base.
"""
from __future__ import annotations

import bisect
import functools
import glob
import itertools
import json
import os
import threading
import time

from mlscraper_ray.frontier.shard import FrontierShard

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

LAYERS = (
    "frontier", "state", "sources", "stages", "htmlcore", "scrape", "learn", "functions", "ray_data",
)


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self):
        self.enabled = False
        self.scope = ""  # the run's iteration, prefixed to trace ids
        self.trace_id: str | None = None  # for spans opened with none
        self.spans: list[tuple] = []  # (name, t0, t1, sid, parent, pid, trace id)
        self.counts: list[tuple] = []  # (name, value, t)
        self.flush_path: str | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        self.counts.append((name, value, time.monotonic()))

    def open(self, name: str, trace_id: str | None = None) -> list:
        """Start a span. Its trace id is ``trace_id`` in this iteration's
        scope, else the enclosing span's, else the process default."""
        stack = self._stack()
        sid = f"{os.getpid()}:{next(self._ids)}"
        if trace_id is not None:
            trace_id = f"{self.scope}/{trace_id}"
        elif stack:
            trace_id = stack[-1][4]
        else:
            trace_id = self.trace_id
        frame = [name, sid, stack[-1][1] if stack else None, time.monotonic(), trace_id]
        stack.append(frame)
        return frame

    def close(self, frame: list, then=None) -> None:
        """End the span; ``then()`` records its counts before a
        worker's outermost span flushes."""
        t1 = time.monotonic()
        stack = self._stack()
        stack.pop()
        name, sid, parent, t0, trace_id = frame
        self.spans.append((name, t0, t1, sid, parent, os.getpid(), trace_id))
        if then is not None:
            then()
        if not stack and self.flush_path is not None:
            self.flush()

    def span(self, name: str, trace_id: str | None = None):
        return _SpanContext(self, name, trace_id)

    def innermost(self) -> str | None:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def flush(self) -> None:
        spans, counts = self.drain()
        if spans or counts:
            with open(self.flush_path, "a") as f:
                f.write(json.dumps({"spans": spans, "counts": counts}) + "\n")

    def drain(self) -> tuple[list, list]:
        """Take every span and count recorded so far in this process."""
        with self._lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], []
        return spans, counts


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, trace_id: str | None):
        self.tracer, self.name, self.trace_id, self.frame = tracer, name, trace_id, None

    def __enter__(self):
        if self.tracer.enabled:
            self.frame = self.tracer.open(self.name, self.trace_id)
        return self

    def __exit__(self, *exc):
        if self.frame is not None:
            self.tracer.close(self.frame)
        return False


# One tracer per process: the wrappers and worker stand-ins are plain
# functions that Ray ships by reference, so they can only reach a
# process-global recorder.
TRACER = Tracer()


def wrap(owner, attr: str, name: str, *, after=None, reentrant: bool = True, trace_id=None) -> None:
    """Replace ``owner.attr`` by a wrapper that records span ``name``.
    ``after(result, exc, args)`` updates counters once the call ends;
    ``trace_id(args)`` names the span's trace.
    With ``reentrant=False`` a call made while the innermost open span
    already has this name (recursion) runs unrecorded."""
    fn = getattr(owner, attr)
    if getattr(fn, "__perfbench_wrapped__", False):
        return

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = TRACER
        if not tracer.enabled or (not reentrant and tracer.innermost() == name):
            return fn(*args, **kwargs)
        frame = tracer.open(name, trace_id and trace_id(args))
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(frame, after and (lambda: after(None, exc, args)))
            raise
        tracer.close(frame, after and (lambda: after(out, None, args)))
        return out

    wrapper.__perfbench_wrapped__ = True
    setattr(owner, attr, wrapper)


# -- counters taken at the wrapped boundaries ----------------------------

def _count_lookup(out, exc, args):
    if out is None:
        return
    urls = args[1]
    TRACER.count("sources.lookup_calls")
    TRACER.count("sources.lookup_hits", out.num_rows)
    TRACER.count("sources.lookup_misses", len(set(urls)) - out.num_rows)
    if "html" in out.column_names:
        import pyarrow.compute as pc

        TRACER.count("sources.html_bytes", pc.sum(pc.binary_length(out["html"])).as_py() or 0)


def _count_batch(out, exc, args):
    TRACER.count("stages.batches")
    TRACER.count("stages.rows", args[0].num_rows)


def _count_parse(out, exc, args):
    TRACER.count("htmlcore.pages_parsed")
    TRACER.count("htmlcore.html_bytes_parsed", len(args[0]))


def _count_links(out, exc, args):
    if out is not None:
        TRACER.count("stages.links_emitted", len(out))


def _count_get(out, exc, args):
    from mlscraper_ray.scrape.model import SelectorMissException

    TRACER.count("scrape.pages")
    if isinstance(exc, SelectorMissException):
        TRACER.count("scrape.selector_miss")


def _count_matches(out, exc, args):
    if out is not None:
        TRACER.count("learn.n_matches", len(out))


def _count_combinations(out, exc, args):
    if out is not None:
        TRACER.count("learn.combinations_total", len(out))


def _count_tried(out, exc, args):
    TRACER.count("learn.combinations_tried")


def _wrap_fetch_stage(crawl_stages) -> None:
    """The fetch stage's in-stage link submit ends in ``ray.get(refs)``;
    time that barrier by swapping ``ray.get`` for the duration of the
    stage call on the calling thread only."""
    import ray

    wrap(crawl_stages, "fetch_parse_extract_task", "stages.fetch_extract", after=_count_batch)
    recorded = crawl_stages.fetch_parse_extract_task
    thread = threading.local()
    real_get = ray.get

    @functools.wraps(real_get)
    def timed_get(*args, **kwargs):
        if not getattr(thread, "in_stage", False) or not TRACER.enabled:
            return real_get(*args, **kwargs)
        with TRACER.span("stages.link_submit_wait"):
            return real_get(*args, **kwargs)

    @functools.wraps(recorded)
    def stage(*args, **kwargs):
        thread.in_stage = True
        try:
            return recorded(*args, **kwargs)
        finally:
            thread.in_stage = False

    stage.__perfbench_wrapped__ = True
    ray.get = timed_get
    crawl_stages.fetch_parse_extract_task = stage


def install_worker() -> None:
    """Record stage and actor spans in this worker process when the
    benchmark asked for a trace (runs once per process)."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir or TRACER.enabled:
        return
    from mlscraper_ray.scrape import model
    from mlscraper_ray.sources.corpus import CorpusReader
    from mlscraper_ray.stages import crawl_stages
    from mlscraper_ray.state.bloom import BloomFilter

    _wrap_fetch_stage(crawl_stages)
    wrap(crawl_stages, "parse_html", "htmlcore.parse", after=_count_parse)
    wrap(crawl_stages, "extract_links", "stages.links", after=_count_links)
    wrap(CorpusReader, "lookup", "sources.lookup", after=_count_lookup)
    for cls in (model.ListScraper, model.DictScraper, model.ValueScraper):
        wrap(cls, "get", "scrape.get", after=_count_get, reentrant=False)
    wrap(FrontierShard, "__init__", "frontier.shard_init")
    wrap(FrontierShard, "submit", "frontier.shard_submit")
    wrap(FrontierShard, "admit_parts", "frontier.shard_flush")
    wrap(FrontierShard, "checkpoint_to", "frontier.shard_checkpoint")
    wrap(BloomFilter, "add", "state.bloom_add")
    TRACER.flush_path = os.path.join(trace_dir, f"w-{os.getpid()}.jsonl")
    TRACER.enabled = True


def traced_fetch_parse_extract_task(batch, **kwargs):
    """Worker-side stand-in for the crawl's fetch stage."""
    from mlscraper_ray.stages import crawl_stages

    install_worker()
    return crawl_stages.fetch_parse_extract_task(batch, **kwargs)


class TracedFrontierShard(FrontierShard):
    """Shard actor stand-in that records spans in its actor process."""

    def __init__(self, *args):
        install_worker()
        super().__init__(*args)


def _record_write_stats(out, exc, args):
    ds = args[0]
    write_ds = getattr(ds, "_write_ds", None)
    if exc is None and write_ds is not None:
        record_dataset_stats(write_ds)


def record_dataset_stats(ds) -> None:
    """Fold a finished Dataset's per-operator wall time into the
    ``ray_data.{read,map,write}_s`` counters. A fused operator counts
    where its user code runs: map if it contains a MapBatches, else
    write, else read."""
    summary = ds._get_stats_summary()
    todo = [summary]
    while todo:
        s = todo.pop()
        todo.extend(s.parents)
        for op in s.operators_stats:
            wall = (op.wall_time or {}).get("sum", 0.0)
            name = op.operator_name
            if "MapBatches" in name:
                TRACER.count("ray_data.map_s", wall)
            elif "Write" in name:
                TRACER.count("ray_data.write_s", wall)
            elif "Read" in name or "FromArrow" in name:
                TRACER.count("ray_data.read_s", wall)


def install_main() -> None:
    """Wrap the main-process boundaries: the crawl round phases, the
    crawl's per-round write and the learner's entry points."""
    import ray.data

    from mlscraper_ray.frontier import crawler
    from mlscraper_ray.frontier.crawler import RayCrawler
    from mlscraper_ray.htmlcore import dom
    from mlscraper_ray.learn import samples, training

    crawler.fetch_parse_extract_task = traced_fetch_parse_extract_task
    crawler.FrontierShard = TracedFrontierShard

    # _admit and _submit_dataset do not see the round index: they belong
    # to the round after the last checkpointed one
    next_round = [0]

    def round_arg(i):
        def trace_id(args):
            next_round[0] = args[i]
            return f"round:{args[i]}"

        return trace_id

    def after_checkpoint(out, exc, args):
        next_round[0] = args[1] + 1

    def current_round(args):
        return f"round:{next_round[0]}"

    def new_crawl(args):
        next_round[0] = 0
        return "round:0"

    wrap(RayCrawler, "__init__", "frontier.crawler_init", trace_id=new_crawl)
    wrap(RayCrawler, "_submit_dataset", "frontier.seed_submit", trace_id=current_round)
    wrap(RayCrawler, "_admit", "frontier.admit", trace_id=current_round)
    wrap(RayCrawler, "_fetch_extract", "frontier.fetch_extract", trace_id=round_arg(2))
    wrap(RayCrawler, "_checkpoint", "frontier.checkpoint", trace_id=round_arg(1), after=after_checkpoint)
    wrap(ray.data.Dataset, "write_parquet", "ray_data.write_parquet", after=_record_write_stats)
    wrap(training, "train_scraper", "learn.train")
    wrap(training, "prioritized_combinations", "learn.combinations", after=_count_combinations)
    wrap(
        training, "train_scraper_for_matches", "learn.try_combination",
        after=_count_tried, reentrant=False,
    )
    wrap(training, "generate_unique_selectors_for_nodes", "learn.selectors")
    wrap(samples.Sample, "get_matches", "learn.matches", after=_count_matches, reentrant=False)
    wrap(dom, "parse_html", "htmlcore.parse", after=_count_parse)


def collect(trace_dir: str | None) -> tuple[list, list]:
    """Main-process spans and counts plus everything workers flushed,
    every span with its trace id."""
    spans, counts = TRACER.drain()
    for path in sorted(glob.glob(os.path.join(trace_dir, "w-*.jsonl"))) if trace_dir else []:
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                spans.extend(tuple(s) for s in rec["spans"])
                counts.extend(tuple(c) for c in rec["counts"])
    return assign_trace_ids(spans, os.getpid()), counts


def assign_trace_ids(spans: list, main_pid: int) -> list:
    """Give each span recorded without a trace id (worker and actor
    spans) the id of the main process's outermost span that most
    recently started at or before it."""
    roots = sorted((s[1], s[6]) for s in spans if s[5] == main_pid and s[4] is None and s[6] is not None)
    starts = [t for t, _ in roots]
    out = []
    for s in spans:
        if s[6] is None:
            i = bisect.bisect_right(starts, s[1]) - 1
            s = (*s[:6], roots[i][1] if i >= 0 else None)
        out.append(s)
    return out


def attribute(spans: list, t_start: float, t_end: float) -> tuple[dict, float, dict]:
    """Split the window [t_start, t_end] among layers.

    A span's parent is its in-process caller; a process's outermost
    span is parented to the deepest span of another process that is
    open when it starts (the main-process call or actor call that waits on
    it). Each instant of the window is charged to the layer of the
    deepest open span, split evenly when several are equally deep, or
    to ``uncovered`` when no span is open. So the per-layer self times
    plus ``uncovered`` sum to the window exactly.

    Returns (self seconds by layer, uncovered seconds, inclusive
    seconds by span name)."""
    clipped = []
    for s in spans:
        t0, t1 = max(s[1], t_start), min(s[2], t_end)
        if t1 > t0:
            clipped.append((s[0], t0, t1, *s[3:]))
    inclusive: dict[str, float] = {}
    for s in clipped:
        inclusive[s[0]] = inclusive.get(s[0], 0.0) + (s[2] - s[1])

    events = []
    for i, s in enumerate(clipped):
        events.append((s[1], 1, i))
        events.append((s[2], 0, i))
    events.sort()
    index_of = {s[3]: i for i, s in enumerate(clipped)}
    depth = [0] * len(clipped)
    active: dict[int, int] = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    uncovered = 0.0
    prev = t_start
    for t, kind, i in events:
        if t > prev:
            if active:
                deepest = max(active.values())
                owners = [j for j, d in active.items() if d == deepest]
                share = (t - prev) / len(owners)
                for j in owners:
                    layer = clipped[j][0].split(".", 1)[0]
                    self_time[layer] = self_time.get(layer, 0.0) + share
            else:
                uncovered += t - prev
            prev = t
        if kind == 0:
            active.pop(i, None)
            continue
        parent = index_of.get(clipped[i][4])
        if parent is not None and parent in active:
            depth[i] = depth[parent] + 1
        else:
            pid = clipped[i][5]
            others = [j for j in active if clipped[j][5] != pid]
            depth[i] = max((depth[j] for j in others), default=-1) + 1
        active[i] = depth[i]
    uncovered += max(0.0, t_end - prev)
    return self_time, uncovered, inclusive
