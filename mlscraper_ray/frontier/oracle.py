"""Single-process oracle crawler.

Independently-written reference implementation of the crawl semantics
(the reference library has none — mlscraper never fetches): plain
dicts + heaps + an EXACT seen set, same policy parameters
(tokens_per_round, max_depth, robots, (depth, warc_ts, url) priority, BSP
rounds). The distributed crawler must reproduce its fetched-URL order
and seen-set exactly; any bloom false positive in the distributed run
would surface here as a diff (at test scale, FPR 1e-9 makes that
practically impossible — by design). Pages are parsed by
``html.parser`` (``parse_with_html_parser``), never through the tag
grammar the engine's scan and ``parse_html`` share.
"""
from __future__ import annotations

import heapq
import json
from collections import Counter

import pyarrow.parquet as pq

from mlscraper_ray.frontier.config import CrawlConfig
from mlscraper_ray.frontier.robots import RobotsRules
from mlscraper_ray.scrape.model import SelectorMissException, scraper_from_plan
from mlscraper_ray.sources.corpus import CorpusReader
from mlscraper_ray.sources.corpusgen import url_host
from mlscraper_ray.htmlcore.dom import parse_with_html_parser
from mlscraper_ray.stages.crawl_stages import extract_links
from mlscraper_ray.frontier.shard import url_path


def oracle_crawl(corpus_dir: str, config: CrawlConfig, seeds_path: str | None = None):
    """Returns (ordered_fetches, seen_set, extracted, counters) where
    ordered_fetches is a list of (round, depth, host, url) in the
    canonical (round, depth, host, url) sort order."""
    reader = CorpusReader(corpus_dir, config.n_buckets)
    scraper = scraper_from_plan(config.plan) if config.plan else None

    seeds_table = pq.read_table(
        seeds_path or f"{corpus_dir}/seeds.parquet", columns=["url", "depth"]
    )
    candidates = [
        (u, d, 0)
        for u, d in zip(seeds_table["url"].to_pylist(), seeds_table["depth"].to_pylist())
    ]

    seen: set[str] = set()
    heaps: dict[str, list] = {}
    robots: dict[str, RobotsRules] = {}
    counters: Counter = Counter()
    fetches: list[tuple] = []
    extracted: dict[str, str | None] = {}

    def robots_for(host: str) -> RobotsRules:
        if host not in robots:
            body = reader.get_text(f"http://{host}/robots.txt")
            robots[host] = RobotsRules.parse(body) if body else RobotsRules.ALLOW_ALL
        return robots[host]

    # recrawl/TTL: (admit_round, [urls]) ring mirroring FrontierShard
    expiry_ring: list[tuple[int, list[str]]] = []

    for round_k in range(config.max_rounds):
        # evict urls admitted >= recrawl_after_rounds rounds ago BEFORE
        # the submit flush (mirrors FrontierShard._evict_expired)
        if config.recrawl_after_rounds > 0:
            while expiry_ring and round_k - expiry_ring[0][0] >= config.recrawl_after_rounds:
                _, old_urls = expiry_ring.pop(0)
                for url in old_urls:
                    if url in seen:
                        seen.discard(url)
                        counters["recrawl_evicted"] += 1
        # intra-round dedup: min (depth, warc_ts) per url (mirrors the
        # shards' round-buffer tuple-min resolution)
        best: dict[str, tuple] = {}
        for url, depth, ts in candidates:
            key = (depth, ts)
            if url not in best or key < best[url]:
                best[url] = key
        # submit
        for url in sorted(best):
            depth, ts = best[url]
            if depth > config.max_depth:
                counters["dropped_depth"] += 1
                continue
            if url in seen:
                counters["dropped_seen"] += 1
                continue
            seen.add(url)
            host = url_host(url)
            if not robots_for(host).allowed(url_path(url)):
                counters["dropped_robots"] += 1
                continue
            heapq.heappush(heaps.setdefault(host, []), (depth, ts, url))
            counters["enqueued"] += 1
        candidates = []

        # admit (politeness)
        admitted = []
        for host in sorted(heaps):
            heap = heaps[host]
            for _ in range(min(config.budget_for(host), len(heap))):
                depth, _ts, url = heapq.heappop(heap)
                admitted.append((url, host, depth))
            if not heap:
                del heaps[host]
        if not admitted:
            break
        counters["admitted"] += len(admitted)
        if config.recrawl_after_rounds > 0:
            expiry_ring.append((round_k, [u for u, _, _ in admitted]))

        # fetch + parse + extract + discover
        for url, host, depth in admitted:
            rows = reader.lookup([url], columns=("url", "warc_ts", "html"))
            if rows.num_rows == 0:
                counters["fetch_miss"] += 1
                continue
            fetches.append((round_k, depth, host, url))
            page_ts = rows["warc_ts"][0].cast("int64").as_py()
            doc = parse_with_html_parser(rows["html"][0].as_py())
            if scraper is not None:
                try:
                    extracted[url] = json.dumps(scraper.get(doc), sort_keys=True)
                except SelectorMissException:
                    extracted[url] = None
            for link in extract_links(doc, url):
                candidates.append((link, depth + 1, page_ts if page_ts is not None else 0))

    fetches.sort()
    return fetches, seen, extracted, dict(counters)
