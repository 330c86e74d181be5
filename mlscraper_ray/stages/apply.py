"""ApplyScraper: the canonical extraction slice.

``read_parquet(pages) -> map_batches(ApplyScraper(plan)) ->
write_parquet/out`` — embarrassingly parallel, the unit the bench
scales. One actor pool; the plan is compiled once per actor; html
enters and leaves within the stage (output carries url + value only).

Reference semantics: ``Scraper.get`` tree walk
(/root/reference/mlscraper/scrapers.py:11-53); a selector miss yields
a null value_json (the reference raises — at corpus scale we record
instead of abort, the per-row contract is otherwise identical and the
golden tests pin it).

Each page is evaluated by one ``scrape.scan`` pass; a page outside the
scanner's subset takes the tree (``parse_with_html_parser`` +
``Scraper.get``), built by ``html.parser`` since the scan has refused
its tag grammar already.
"""
from __future__ import annotations

import json

import pyarrow as pa

from mlscraper_ray.htmlcore.dom import parse_with_html_parser
from mlscraper_ray.scrape.scan import ScanFallback, compile_scan


# Worker-process-global cache for the stateless-task flavor. Tradeoff,
# measured at sf0.1/32cpus: an actor pool pays ~3-4s startup+ramp per
# execution (fine for one long job, wasteful for repeated short ones);
# stateless tasks reuse Ray's persistent worker processes, so the
# compiled plan is cached after the first batch each worker sees.
_APPLY_CACHE: dict = {}


def apply_scraper_task(batch: pa.Table, *, plan_json: str) -> pa.Table:
    stage = _APPLY_CACHE.get(plan_json)
    if stage is None:
        if len(_APPLY_CACHE) > 4:
            _APPLY_CACHE.clear()
        stage = _APPLY_CACHE[plan_json] = ApplyScraper(json.loads(plan_json))
    return stage(batch)


class ApplyScraper:
    def __init__(self, plan: dict, html_col: str = "html", url_col: str = "url"):
        self.scan = compile_scan(plan)
        self.html_col = html_col
        self.url_col = url_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch[self.url_col].to_pylist()
        values = []
        for html in batch[self.html_col].to_pylist():
            try:
                value, _ = self.scan.run(html)
            except ScanFallback:
                value = self.scan.tree_value(parse_with_html_parser(html))
            values.append(value)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "value_json": pa.array(values, pa.string()),
            }
        )
