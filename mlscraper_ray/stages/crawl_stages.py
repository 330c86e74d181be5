"""Stages for the crawl pipeline.

``FetchParseExtract`` is the hot path (reference extraction semantics
per row in ``__call__``): one ``scrape.scan`` pass per page yields the
plan's value and the page's links; a page outside the scanner's subset
falls back to ``parse_html`` + ``Scraper.get`` + :func:`extract_links`
and is marked ``scan_fallback``; the scan has refused its tag grammar
already, so this module's ``parse_html`` is the ``html.parser`` build.
The BSP round loop calls it through the stateless function
:func:`fetch_parse_extract_task`, once per plain Ray fetch task
(``frontier.crawler._fetch_bundle``); its state
— corpus bucket cache, compiled scraper plan — is built once per Ray
worker process and cached there (``get_fetch_stage``). Batches are
Arrow in / Arrow out.

Throughput notes for the 100 TB design point:
- html bytes enter existence only inside this stage (the frontier
  carries slim (url, host, depth) rows) and leave as soon as the stage
  returns (outputs carry extracted values + links, never html);
- per-document parsing is inherently row-wise Python, but everything
  around it is columnar; batch size is tuned for ~1-4 MB of html per
  batch so worker heap stays bounded;
- a round's admitted rows arrive cut into equal ranges of 256 to 511
  rows (``frontier.crawler._cut``), so a hot host's rows spread over
  consecutive fetch tasks instead of serializing one.
"""
from __future__ import annotations

import json
from urllib.parse import urljoin

import pyarrow as pa

# the scan has refused the page's tag grammar: straight to html.parser
from mlscraper_ray.htmlcore.dom import parse_with_html_parser as parse_html
from mlscraper_ray.scrape.scan import ScanFallback, compile_scan
from mlscraper_ray.sources.corpus import CorpusReader
from mlscraper_ray.sources.corpusgen import url_host


def _links(doc, base_url: str):
    """The page's ``(url, a element)`` link pairs: a[href] targets
    absolutized against ``base_url``, fragments stripped, non-http(s)
    schemes dropped, deduped in stable order (first occurrence wins)."""
    seen = set()
    for a in doc.select("a"):
        href = a.attrs.get("href")
        if not href or not isinstance(href, str):
            continue
        absu = urljoin(base_url, href.split("#", 1)[0])
        if absu.startswith(("http://", "https://")) and absu not in seen:
            seen.add(absu)
            yield absu, a


def extract_links(doc, base_url: str) -> list[str]:
    """The page's link urls (:func:`_links`); it never computes
    ``Node.text``. The fetch stage's scan (``scrape.scan``) collects
    the same links in its own pass, pinned equal by tests/test_scan.py."""
    return [url for url, _ in _links(doc, base_url)]


def extract_links_anchors(doc, base_url: str) -> list[tuple[str, str]]:
    """(url, anchor_text) of each link of :func:`extract_links` (the
    anchor is the first link's text). Feeds the link_stats anchor
    aggregation (functions/pagerank.py)."""
    return [(url, a.text) for url, a in _links(doc, base_url)]


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


def fetch_parse_extract_task(
    batch: pa.Table, *, corpus_dir: str, n_buckets: int, plan: dict, round_k: int
) -> pa.Table:
    """Stateless flavor of :class:`FetchParseExtract` for the BSP round
    loop's fetch tasks (state cached per worker process); appends the
    round constant so the driver doesn't need an extra stage. It has no
    side effect: the fetch task routes the discovered links to their
    shards from the returned ``links`` column."""
    out = get_fetch_stage(corpus_dir, n_buckets, plan)(batch)
    return out.append_column("round", pa.array([round_k] * out.num_rows, pa.int32()))
