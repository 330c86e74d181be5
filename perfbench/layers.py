"""Per-layer metrics of a traced run.

Every metric is per traced iteration (one crawl, one learn cycle, one
core-set pass) unless it is a ratio. Time metrics
named after a span (``frontier.admit_s``, ``htmlcore.parse_s``...) are
inclusive span time; ``<layer>.self_s`` is the layer's share of the
traced window from :func:`perfbench.tracing.attribute`, so the nine
``self_s`` values plus ``trace.uncovered_s`` sum to ``trace.wall_s``.
A layer the workload does not exercise reports 0.
"""
from __future__ import annotations

from perfbench.inputs import CORE_OPS
from perfbench.tracing import LAYERS, attribute

# (name, unit); BENCHMARK.json's per_layer list mirrors this
PER_LAYER = [
    ("frontier.actor_start_s", "s"),
    ("frontier.seed_submit_s", "s"),
    ("frontier.admit_s", "s"),
    ("frontier.checkpoint_s", "s"),
    ("frontier.checkpoint_mb", "MB"),
    ("frontier.round_overhead_s", "s"),
    ("frontier.round_p50_s", "s"),
    ("frontier.round_tail_s", "s"),
    ("frontier.rounds", "count"),
    ("frontier.urls_submitted", "count"),
    ("frontier.urls_admitted", "count"),
    ("frontier.dropped_seen", "count"),
    ("frontier.dropped_robots", "count"),
    ("frontier.dropped_depth", "count"),
    ("frontier.admit_yield", "ratio"),
    ("frontier.shard_skew", "ratio"),
    ("frontier.salted_rows", "count"),
    ("frontier.shard_submit_s", "s"),
    ("frontier.shard_flush_s", "s"),
    ("frontier.self_s", "s"),
    ("state.seen_count", "count"),
    ("state.bloom_add_s", "s"),
    ("state.self_s", "s"),
    ("sources.lookup_s", "s"),
    ("sources.lookup_calls", "count"),
    ("sources.lookup_hits", "count"),
    ("sources.lookup_misses", "count"),
    ("sources.html_mb", "MB"),
    ("sources.self_s", "s"),
    ("stages.fetch_extract_s", "s"),
    ("stages.batches", "count"),
    ("stages.rows_per_batch", "count"),
    ("stages.links_s", "s"),
    ("stages.links_emitted", "count"),
    ("stages.link_submit_wait_s", "s"),
    ("stages.self_s", "s"),
    ("htmlcore.parse_s", "s"),
    ("htmlcore.pages_parsed", "count"),
    ("htmlcore.html_mb_parsed", "MB"),
    ("htmlcore.self_s", "s"),
    ("scrape.get_s", "s"),
    ("scrape.pages", "count"),
    ("scrape.selector_miss", "count"),
    ("scrape.self_s", "s"),
    ("learn.parse_s", "s"),
    ("learn.matches_s", "s"),
    ("learn.n_matches", "count"),
    ("learn.combinations_total", "count"),
    ("learn.combinations_tried", "count"),
    ("learn.search_yield", "ratio"),
    ("learn.selector_s", "s"),
    ("learn.train_s", "s"),
    ("learn.self_s", "s"),
    *[(f"functions.{op}_s", "s") for op in CORE_OPS],
    ("functions.self_s", "s"),
    ("ray_data.read_s", "s"),
    ("ray_data.map_s", "s"),
    ("ray_data.write_s", "s"),
    ("ray_data.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
]

# span name -> inclusive-time metric
SPAN_METRICS = {
    "frontier.seed_submit": "frontier.seed_submit_s",
    "frontier.admit": "frontier.admit_s",
    "frontier.checkpoint": "frontier.checkpoint_s",
    "frontier.shard_submit": "frontier.shard_submit_s",
    "frontier.shard_flush": "frontier.shard_flush_s",
    "state.bloom_add": "state.bloom_add_s",
    "sources.lookup": "sources.lookup_s",
    "stages.fetch_extract": "stages.fetch_extract_s",
    "stages.links": "stages.links_s",
    "stages.link_submit_wait": "stages.link_submit_wait_s",
    "htmlcore.parse": "htmlcore.parse_s",
    "scrape.get": "scrape.get_s",
    "learn.matches": "learn.matches_s",
    "learn.selectors": "learn.selector_s",
    "learn.train": "learn.train_s",
    **{f"functions.{op}": f"functions.{op}_s" for op in CORE_OPS},
}

# recorded counter -> (metric, scale)
COUNTER_METRICS = {
    "sources.lookup_calls": ("sources.lookup_calls", 1),
    "sources.lookup_hits": ("sources.lookup_hits", 1),
    "sources.lookup_misses": ("sources.lookup_misses", 1),
    "sources.html_bytes": ("sources.html_mb", 1e-6),
    "stages.batches": ("stages.batches", 1),
    "stages.links_emitted": ("stages.links_emitted", 1),
    "htmlcore.pages_parsed": ("htmlcore.pages_parsed", 1),
    "htmlcore.html_bytes_parsed": ("htmlcore.html_mb_parsed", 1e-6),
    "scrape.pages": ("scrape.pages", 1),
    "scrape.selector_miss": ("scrape.selector_miss", 1),
    "learn.n_matches": ("learn.n_matches", 1),
    "learn.combinations_total": ("learn.combinations_total", 1),
    "learn.combinations_tried": ("learn.combinations_tried", 1),
    "ray_data.read_s": ("ray_data.read_s", 1),
    "ray_data.map_s": ("ray_data.map_s", 1),
    "ray_data.write_s": ("ray_data.write_s", 1),
}


def _crawl_phase_times(spans: list) -> tuple[float, float]:
    """(actor start, round overhead) summed over crawls, from spans
    grouped by trace id.

    Actor start: from ``RayCrawler.__init__`` to the end of the last
    shard constructor in the same iteration. Round overhead: round wall
    (admit start to checkpoint end) minus admit, fetch/extract and
    checkpoint time."""
    def scope(span) -> str:
        return (span[6] or "").split("/", 1)[0]

    actor_start = 0.0
    for init in (s for s in spans if s[0] == "frontier.crawler_init"):
        ends = [s[2] for s in spans if s[0] == "frontier.shard_init" and scope(s) == scope(init)]
        if ends:
            actor_start += max(ends) - init[1]
    rounds: dict[str, list] = {}
    for s in spans:
        if s[0] in ("frontier.admit", "frontier.fetch_extract", "frontier.checkpoint"):
            rounds.setdefault(s[6], []).append(s)
    overhead = 0.0
    for phases in rounds.values():
        if any(s[0] == "frontier.checkpoint" for s in phases):
            wall = max(s[2] for s in phases) - min(s[1] for s in phases)
            overhead += wall - sum(s[2] - s[1] for s in phases)
    return actor_start, overhead


def per_layer(workload, wl, traced, untraced, spans, counts, t_start, t_end) -> dict:
    """{metric: (value, unit)} for every PER_LAYER metric."""
    n = len(traced)
    window = [s for s in spans if s[2] > t_start and s[1] < t_end]
    counters: dict[str, float] = {}
    for name, value, t in counts:
        if t_start <= t <= t_end:
            counters[name] = counters.get(name, 0) + value
    self_time, uncovered, inclusive = attribute(window, t_start, t_end)
    v = {name: 0.0 for name, _ in PER_LAYER}
    for span_name, metric in SPAN_METRICS.items():
        v[metric] = inclusive.get(span_name, 0.0) / n
    for counter, (metric, scale) in COUNTER_METRICS.items():
        v[metric] = counters.get(counter, 0) * scale / n
    for layer in LAYERS:
        v[f"{layer}.self_s"] = self_time.get(layer, 0.0) / n
    if workload == "learn":
        v["learn.parse_s"] = v["htmlcore.parse_s"]
    batches = counters.get("stages.batches", 0)
    v["stages.rows_per_batch"] = counters.get("stages.rows", 0) / batches if batches else 0.0
    tried = counters.get("learn.combinations_tried", 0)
    trained = sum(1 for s in window if s[0] == "learn.train")
    v["learn.search_yield"] = trained / tried if tried else 0.0
    actor_start, round_overhead = _crawl_phase_times(window)
    v["frontier.actor_start_s"] = actor_start / n
    v["frontier.round_overhead_s"] = round_overhead / n
    if hasattr(wl, "layer_counts"):
        per_it = [wl.layer_counts(it) for it in traced]
        for key in per_it[0]:
            v[key] = sum(c[key] for c in per_it) / n
        submitted = v["frontier.urls_submitted"]
        v["frontier.admit_yield"] = v["frontier.urls_admitted"] / submitted if submitted else 0.0
    v["trace.wall_s"] = (t_end - t_start) / n
    v["trace.uncovered_s"] = uncovered / n
    v["trace.spans"] = len(window) / n

    def throughput(its):
        return sum(it.work for it in its) / sum(it.elapsed for it in its)

    v["trace.overhead_frac"] = throughput(untraced) / throughput(traced) - 1
    units = dict(PER_LAYER)
    return {name: (v[name], units[name]) for name in units}
