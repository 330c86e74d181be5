"""Stages for the crawl pipeline.

``FetchParseExtract`` is the hot path (reference extraction semantics
per row in ``__call__``): one ``scrape.scan`` pass per page yields the
plan's value and the page's links; a page outside the scanner's subset
falls back to ``parse_html`` + ``Scraper.get`` + :func:`extract_links`
and is marked ``scan_fallback``. The BSP round loop calls it through
the stateless function :func:`fetch_parse_extract_task`, once per
256-row slice inside each of its plain Ray fetch tasks
(``frontier.crawler._fetch_bundle``); its state — corpus bucket cache,
compiled scraper plan — is built once per Ray worker process and
cached there (``get_fetch_stage``). Batches are Arrow in / Arrow out.

Throughput notes for the 100 TB design point:
- html bytes enter existence only inside this stage (the frontier
  carries slim (url, host, depth) rows) and leave as soon as the stage
  returns (outputs carry extracted values + links, never html);
- per-document parsing is inherently row-wise Python, but everything
  around it is columnar; batch size is tuned for ~1-4 MB of html per
  batch so worker heap stays bounded;
- the admitted frontier arrives as bucket-aligned parts from
  ``FrontierShard.admit_parts`` (each block touches only a slice of
  the corpus bucket files); hosts hot enough to dominate a part are
  SALTED — dealt round-robin across all parts — so one mega-host
  cannot serialize the pool (see frontier/shard.py admit_parts).
"""
from __future__ import annotations

import json
from urllib.parse import urljoin

import pyarrow as pa

from mlscraper_ray.htmlcore.dom import parse_html
from mlscraper_ray.scrape.scan import ScanFallback, compile_scan
from mlscraper_ray.sources.corpus import CorpusReader
from mlscraper_ray.sources.corpusgen import url_host


def extract_links(doc, base_url: str) -> list[str]:
    """Absolutized, deduped (stable order) a[href] targets, fragments
    stripped; non-http(s) schemes dropped.

    Kept as its own loop (not delegated to
    :func:`extract_links_anchors`) because this is the crawl hot path
    and the anchors twin computes ``Node.text`` per link; the two
    loops' url semantics are pinned byte-equal by
    tests/test_pagerank.py — change them TOGETHER. The fetch stage's
    scan (``scrape.scan``) collects the same links in its own pass,
    pinned equal by tests/test_scan.py."""
    seen = set()
    out = []
    for a in doc.select("a"):
        href = a.attrs.get("href")
        if not href or not isinstance(href, str):
            continue
        absu = urljoin(base_url, href.split("#", 1)[0])
        if not absu.startswith(("http://", "https://")):
            continue
        if absu not in seen:
            seen.add(absu)
            out.append(absu)
    return out


def extract_links_anchors(doc, base_url: str) -> list[tuple[str, str]]:
    """(url, anchor_text) twin of :func:`extract_links` — SAME
    absolutize/scheme/dedup semantics (first occurrence wins, so the
    anchor is the first link's text), pinned equal by a test. Feeds
    the link_stats anchor aggregation (functions/pagerank.py)."""
    seen = set()
    out = []
    for a in doc.select("a"):
        href = a.attrs.get("href")
        if not href or not isinstance(href, str):
            continue
        absu = urljoin(base_url, href.split("#", 1)[0])
        if not absu.startswith(("http://", "https://")):
            continue
        if absu not in seen:
            seen.add(absu)
            out.append((absu, a.text))
    return out


class FetchParseExtract:
    """url rows -> fetched + parsed + extracted rows.

    Output schema: url, host, depth, warc_ts, value_json, links
    (list<string>), html_bytes, fetch_ok, scan_fallback.
    URLs absent from the corpus are emitted with fetch_ok=false and
    empty payload (counted, never silently dropped); scan_fallback is
    true for a fetched page that took the tree path, null when nothing
    was fetched.
    """

    def __init__(self, corpus_dir: str, n_buckets: int, plan: dict):
        self.reader = CorpusReader(corpus_dir, n_buckets)
        self.scan = compile_scan(plan)

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        depths = batch["depth"].to_pylist()
        depth_by_url = dict(zip(urls, depths))
        fetched = self.reader.lookup(urls)
        found = dict(
            zip(
                fetched["url"].to_pylist(),
                zip(fetched["warc_ts"].to_pylist(), fetched["html"].to_pylist()),
            )
        )
        out = {
            "url": [], "host": [], "depth": [], "warc_ts": [],
            "value_json": [], "links": [], "html_bytes": [], "fetch_ok": [],
            "scan_fallback": [],
        }
        for url in urls:
            out["url"].append(url)
            out["host"].append(url_host(url))
            out["depth"].append(depth_by_url[url])
            hit = found.get(url)
            if hit is None:
                out["warc_ts"].append(None)
                out["value_json"].append(None)
                out["links"].append([])
                out["html_bytes"].append(0)
                out["fetch_ok"].append(False)
                out["scan_fallback"].append(None)
                continue
            warc_ts, html = hit
            try:
                value, links = self.scan.run(html, url)
                fallback = False
            except ScanFallback:
                doc = parse_html(html)
                value = self.scan.tree_value(doc)
                links = extract_links(doc, url)
                fallback = True
            out["warc_ts"].append(warc_ts)
            out["value_json"].append(value)
            out["links"].append(links)
            out["html_bytes"].append(len(html))
            out["fetch_ok"].append(True)
            out["scan_fallback"].append(fallback)
        return pa.table(
            {
                "url": pa.array(out["url"], pa.string()),
                "host": pa.array(out["host"], pa.string()),
                "depth": pa.array(out["depth"], pa.int32()),
                "warc_ts": pa.array(out["warc_ts"], pa.timestamp("us")),
                "value_json": pa.array(out["value_json"], pa.string()),
                "links": pa.array(out["links"], pa.list_(pa.string())),
                "html_bytes": pa.array(out["html_bytes"], pa.int64()),
                "fetch_ok": pa.array(out["fetch_ok"], pa.bool_()),
                "scan_fallback": pa.array(out["scan_fallback"], pa.bool_()),
            }
        )


# Worker-process-global stage cache. Ray reuses worker processes across
# tasks, so stateless fetch tasks get warm state (corpus bucket
# cache + compiled plan) without paying actor-pool startup every BSP
# round. Keyed by (corpus_dir, n_buckets, plan-json); bounded.
_STAGE_CACHE: dict = {}


def get_fetch_stage(corpus_dir: str, n_buckets: int, plan: dict) -> FetchParseExtract:
    key = (corpus_dir, n_buckets, json.dumps(plan, sort_keys=True))
    stage = _STAGE_CACHE.get(key)
    if stage is None:
        if len(_STAGE_CACHE) > 4:
            _STAGE_CACHE.clear()
        stage = _STAGE_CACHE[key] = FetchParseExtract(corpus_dir, n_buckets, plan)
    return stage


def submit_to_shards(
    shard_actors: list, n_shards: int, urls: list, depths: list, ts_list: list | None = None
) -> list:
    """Route candidate rows to their owning logical shard
    (``crc32(host) % n_shards``) and send ONE ``submit`` per actor
    hosting any of them (``frontier.shard.group_of``), carrying one
    (urls, depths, warc_ts_us) list per shard. Returns the submit refs."""
    import zlib

    from mlscraper_ray.frontier.shard import group_of

    n_actors = len(shard_actors)
    if ts_list is None:
        ts_list = [0] * len(urls)
    by_actor: dict[int, dict[int, tuple[list, list, list]]] = {}
    for url, depth, ts in zip(urls, depths, ts_list):
        sid = zlib.crc32(url_host(url).encode()) % n_shards
        lists = by_actor.setdefault(group_of(sid, n_actors), {}).setdefault(sid, ([], [], []))
        lists[0].append(url)
        lists[1].append(depth)
        lists[2].append(ts)
    return [shard_actors[a].submit.remote(by_shard) for a, by_shard in by_actor.items()]


def fetch_parse_extract_task(
    batch: pa.Table,
    *,
    corpus_dir: str,
    n_buckets: int,
    plan: dict,
    round_k: int,
    shard_actors: list | None = None,
    n_shards: int = 0,
) -> pa.Table:
    """Stateless flavor of :class:`FetchParseExtract` for the BSP round
    loop's fetch tasks (state cached per worker process); appends the
    round constant so the driver doesn't need an extra stage.

    When ``shard_actors`` is given, discovered links are submitted to
    the actors hosting their owning shards from INSIDE the stage — the
    next round's candidates never round-trip through parquet + a
    second Dataset execution. Safe under task retries: the shard round
    buffer takes a commutative min per url and the seen-set dedups
    across rounds, so double-submission is idempotent."""
    import ray

    out = get_fetch_stage(corpus_dir, n_buckets, plan)(batch)
    if shard_actors is not None:
        import pyarrow.compute as pc

        urls: list = []
        depths: list = []
        ts_list: list = []
        ts_micros = pc.cast(out["warc_ts"], pa.int64()).to_pylist()  # tz-free epoch us
        for depth, ts_val, links in zip(
            out["depth"].to_pylist(), ts_micros, out["links"].to_pylist()
        ):
            # links inherit the discovering page's capture time — the
            # warc_ts component of the frontier priority key
            ts_us = ts_val if ts_val is not None else 0
            urls.extend(links)
            depths.extend([depth + 1] * len(links))
            ts_list.extend([ts_us] * len(links))
        # barrier: stage completion implies links submitted
        ray.get(submit_to_shards(shard_actors, n_shards, urls, depths, ts_list))
    return out.append_column("round", pa.array([round_k] * out.num_rows, pa.int32()))


def make_submit_fn(shard_actors: list, n_shards: int):
    """Returns a map_batches fn that routes candidate (url, depth) rows
    to the actors hosting their owning shards and emits per-batch
    counters.

    The actor round-trip is awaited inside the task (the submit stage's
    output is only counters, so there is nothing downstream to
    pipeline); candidates for different actors fan out in parallel.
    """
    import ray

    def submit_batch(batch: pa.Table) -> pa.Table:
        refs = submit_to_shards(
            shard_actors, n_shards, batch["url"].to_pylist(), batch["depth"].to_pylist()
        )
        total = {"submitted": 0}
        for res in ray.get(refs):
            for k, v in res.items():
                total[k] = total.get(k, 0) + v
        return pa.table({k: pa.array([v], pa.int64()) for k, v in total.items()})

    return submit_batch
