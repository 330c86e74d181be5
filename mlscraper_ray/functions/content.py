"""Main-content extraction — the boilerplate-removal step of a
webtext pipeline (cf. trafilatura / jusText / Common Crawl WET
generation): pick the page's highest-text-density top-level block and
keep its text, dropping navigation chrome, link lists and headers.

Density here is exact integer arithmetic: block score =
``text_chars / (1 + n_descendant_elements)``, compared by
cross-multiplication (``a_chars * (1 + b_desc) > b_chars *
(1 + a_desc)``) so no float ever enters the choice; ties keep the
EARLIEST block in document order. The operator reports the chosen
block's position, tag, first class, text length and text sha256 — the
hash pins the extracted text byte-for-byte without shipping it to the
driver.

The truth oracle (pipelines/truth_oracles.main_content_truth_sql)
recomputes every block's text and descendant-element count from the
corpus GENERATOR's page template (sources/corpusgen.render_page
structure + its deterministic RNG draws) — synthesis-time knowledge,
fully independent of this module's DOM parse — so the oracle
value-pins the parser's text semantics and the density choice at
once.
"""
from __future__ import annotations

import pyarrow as pa
import ray.data

from mlscraper_ray.functions.sinks import all_shards_done, crc32_shard, write_resumable
from mlscraper_ray.functions.tables import finish


def pick_densest_block(blocks: list[tuple[str, str, int, int]]) -> int:
    """Index of the densest (tag, first_class, text_chars, n_desc)
    block by exact cross-multiplied comparison; ties keep the
    earliest. Shared by the operator and the truth builder so the
    choice rule has ONE definition."""
    best = 0
    for i in range(1, len(blocks)):
        _, _, tc_i, nd_i = blocks[i]
        _, _, tc_b, nd_b = blocks[best]
        if tc_i * (1 + nd_b) > tc_b * (1 + nd_i):
            best = i
    return best


def page_blocks(doc) -> tuple[list[tuple[str, str, int, int]], list[str]] | None:
    """(blocks, texts) of a parsed page's top-level body children —
    blocks are (tag, first_class, text_chars, n_descendant_elements)
    summaries aligned with their text strings; None when the page has
    no body or no element children. The single block-enumeration
    shared by :func:`main_content_ds` and the WET composite."""
    from mlscraper_ray.htmlcore.dom import Element

    body = doc.select("body", limit=1)
    if not body:
        return None
    elems = [c for c in body[0].children if isinstance(c, Element)]
    if not elems:
        return None
    blocks, texts = [], []
    for b in elems:
        txt = b.text
        texts.append(txt)
        n_desc = sum(1 for _ in b.iter_elements())
        blocks.append((b.tag, b.classes[0] if b.classes else "", len(txt), n_desc))
    return blocks, texts


def main_content_ds(sf_dir: str) -> ray.data.Dataset:
    """Streaming core: the densest-block summary per page, served as a
    pruned column selection from the SHARED per-page facet table
    (functions/facets.py — one cached parse serves every page-level
    query). Pages with no body element children carry has_blocks=False
    sentinels in the facet table and are filtered here, matching the
    old parse-path's skip rule. Still a pure per-record map + pruned
    parquet read — no shuffle."""
    from mlscraper_ray.functions.facets import page_facets_ds

    facets = page_facets_ds(
        sf_dir,
        columns=[
            "url",
            "has_blocks",
            "block_index",
            "block_tag",
            "block_class",
            "text_chars",
            "text_sha256",
        ],
    )

    def keep(t: pa.Table) -> pa.Table:
        t = t.filter(t["has_blocks"])
        return t.drop_columns(["has_blocks"])

    return facets.map_batches(keep, batch_format="pyarrow")


def extract_main_content(sf_dir: str) -> pa.Table:
    """Driver-table wrapper sorted by url; :func:`main_content_ds` is
    the streaming core."""
    return finish(main_content_ds(sf_dir).to_pandas(), "url")


def page_profile_ds(sf_dir: str) -> ray.data.Dataset:
    """FUSED page-feature row per page — densest-block summary,
    main-text token count + language vote, distinct out-link count —
    served as a pruned column selection from the SHARED per-page facet
    table (functions/facets.py; the fused single-parse pass now lives
    THERE and is cached for every page-level query, not just this
    one). The truth oracle
    (pipelines/truth_oracles.page_profile_truth_sql) replays every
    facet from the generator template + link records."""
    from mlscraper_ray.functions.facets import page_facets_ds

    facets = page_facets_ds(
        sf_dir,
        columns=[
            "url",
            "has_blocks",
            "block_index",
            "text_chars",
            "text_sha256",
            "n_tokens",
            "lang",
            "n_links",
        ],
    )

    def keep(t: pa.Table) -> pa.Table:
        t = t.filter(t["has_blocks"])
        return t.drop_columns(["has_blocks"])

    return facets.map_batches(keep, batch_format="pyarrow")


def page_profile(sf_dir: str) -> pa.Table:
    """Driver-table wrapper sorted by url; :func:`page_profile_ds` is
    the streaming core."""
    return finish(page_profile_ds(sf_dir).to_pandas(), "url")


def page_profile_to_parquet(sf_dir: str, out_dir: str, n_shards: int = 16) -> dict:
    """Production sink twin of :func:`page_profile`, RESUMABLE
    (functions/sinks.py): shards partition on crc32(url), so output is
    stable under any worker count."""
    if all_shards_done(out_dir, n_shards):  # a cold facet cache parses eagerly
        return {"written": 0, "skipped": n_shards}
    return write_resumable(page_profile_ds(sf_dir), crc32_shard("url", n_shards), out_dir, n_shards)
