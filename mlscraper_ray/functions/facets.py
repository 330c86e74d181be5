"""ONE parse, many facets: the shared per-page facet table behind
every page-level registry query, the link graph included.

``page_template_clusters``, ``extract_main_content``, ``page_profile``
and ``wet_curate`` each need facts that come from parsing a page's
html — the DOM-structure fingerprint, the densest top-level block's
summary + text digests, the main-text token count and language vote,
and the out-link count — and the link graph
(functions/pagerank.py ``corpus_link_graph``) needs each page's links
and their anchor texts. Before this module each of them re-read and
re-parsed the whole corpus independently, so a registry pass paid
several identical parse sweeps (template clustering alone was 5.8 s
at sf0.1). Now the parse runs ONCE into a slim per-page facet table,
committed as parquet under the corpus scratch dir (marker-last,
keyed by a source digest), and every consumer is a column-pruned
streaming map over it. It is the only tree parse of the corpus in
``functions/``.

Scale shape: the build is one per-record map over the corpus (html
never leaves the stage; an output row holds the page's facts and its
link and anchor lists), the cache is partitioned parquet readable
with column pruning, and consumers stay exactly as streaming as
before — they just skip the parse. Each query's value pin (the generator-truth constant-table
oracles) is unchanged and now exercises this shared path.
"""
from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import ray.data

from mlscraper_ray.functions.sinks import prune_stale

# facet schema — block facts use sentinel values (index -1, empty
# strings, zero counts) when the page has no body element children,
# mirroring the consumers' "skip this page" rule without nullables;
# ``links``/``anchors`` are extract_links_anchors' pairs, in order
FACET_COLUMNS = (
    "url",
    "tpl_hash",
    "has_blocks",
    "block_index",
    "block_tag",
    "block_class",
    "text_chars",
    "text_md5",
    "text_sha256",
    "n_tokens",
    "lang",
    "n_links",
    "links",
    "anchors",
)


def _facet_cache_dir(corpus_dir: str) -> str:
    """Cache key digests the corpus SPEC plus every source module a
    facet's value depends on (parser, link extraction, block rule,
    structure tokens, lang vote, this builder) — a regenerated corpus
    or any producer change invalidates the cache."""
    from mlscraper_ray.functions import content as content_mod
    from mlscraper_ray.functions import templates as templates_mod
    from mlscraper_ray.functions import textstats as textstats_mod
    from mlscraper_ray.htmlcore import dom as dom_mod
    from mlscraper_ray.stages import crawl_stages as stages_mod

    h = hashlib.md5()
    spec_path = os.path.join(corpus_dir, "_SPEC.json")
    if os.path.exists(spec_path):
        with open(spec_path, "rb") as f:
            h.update(f.read())
    for mod in (dom_mod, stages_mod, content_mod, templates_mod, textstats_mod):
        with open(mod.__file__, "rb") as f:
            h.update(f.read())
    with open(os.path.abspath(__file__), "rb") as f:
        h.update(f.read())
    return os.path.join(corpus_dir, f"_pagefacets_{h.hexdigest()[:10]}")


def _build_facets(corpus_dir: str) -> ray.data.Dataset:
    """The single fused parse pass: every facet for every non-robots
    corpus page in one per-record map, no shuffle."""
    from mlscraper_ray.functions.content import page_blocks, pick_densest_block
    from mlscraper_ray.functions.templates import (
        structure_fingerprint_tokens,
        structure_tokens,
    )
    from mlscraper_ray.functions.textstats import lang_vote
    from mlscraper_ray.htmlcore.dom import parse_html
    from mlscraper_ray.stages.crawl_stages import extract_links_anchors

    pages = ray.data.read_parquet(
        os.path.join(corpus_dir, "pages"), columns=["url", "html"]
    )

    def facet_batch(t: pa.Table) -> pa.Table:
        rows = {c: [] for c in FACET_COLUMNS}
        for url, html in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            if url.endswith("/robots.txt"):
                continue
            doc = parse_html(html if isinstance(html, bytes) else html.encode())
            rows["url"].append(url)
            rows["tpl_hash"].append(
                structure_fingerprint_tokens(structure_tokens(doc))
            )
            pairs = extract_links_anchors(doc, url)
            rows["links"].append([link for link, _ in pairs])
            rows["anchors"].append([anchor for _, anchor in pairs])
            rows["n_links"].append(len(pairs))
            got = page_blocks(doc)
            if got is None:
                rows["has_blocks"].append(False)
                rows["block_index"].append(-1)
                rows["block_tag"].append("")
                rows["block_class"].append("")
                rows["text_chars"].append(0)
                rows["text_md5"].append("")
                rows["text_sha256"].append("")
                rows["n_tokens"].append(0)
                rows["lang"].append("")
                continue
            blocks, texts = got
            k = pick_densest_block(blocks)
            text = texts[k]
            lang, _score = lang_vote(text)
            rows["has_blocks"].append(True)
            rows["block_index"].append(k)
            rows["block_tag"].append(blocks[k][0])
            rows["block_class"].append(blocks[k][1])
            rows["text_chars"].append(blocks[k][2])
            rows["text_md5"].append(hashlib.md5(text.encode()).hexdigest())
            rows["text_sha256"].append(hashlib.sha256(text.encode()).hexdigest())
            rows["n_tokens"].append(len(text.split()))
            rows["lang"].append(lang)
        return pa.table(
            {
                "url": pa.array(rows["url"], pa.string()),
                "tpl_hash": pa.array(rows["tpl_hash"], pa.string()),
                "has_blocks": pa.array(rows["has_blocks"], pa.bool_()),
                "block_index": pa.array(rows["block_index"], pa.int64()),
                "block_tag": pa.array(rows["block_tag"], pa.string()),
                "block_class": pa.array(rows["block_class"], pa.string()),
                "text_chars": pa.array(rows["text_chars"], pa.int64()),
                "text_md5": pa.array(rows["text_md5"], pa.string()),
                "text_sha256": pa.array(rows["text_sha256"], pa.string()),
                "n_tokens": pa.array(rows["n_tokens"], pa.int64()),
                "lang": pa.array(rows["lang"], pa.string()),
                "n_links": pa.array(rows["n_links"], pa.int64()),
                "links": pa.array(rows["links"], pa.list_(pa.string())),
                "anchors": pa.array(rows["anchors"], pa.list_(pa.string())),
            }
        )

    return pages.map_batches(facet_batch, batch_format="pyarrow")


def _pin_fsspec_http_stub() -> None:
    """Make Ray Data's per-call ``fsspec.implementations.http`` probe
    deterministic under CONCURRENT Dataset executions. Absent aiohttp
    that module can never import; Python retries the failing import on
    every path resolution, and with several threads resolving at once
    the failure races and can surface as a bare ImportError where
    Ray's guard catches only ModuleNotFoundError. Caching a minimal
    stub once removes the repeated import entirely; local-filesystem
    paths never reach the stubbed class."""
    import sys
    import types

    try:
        import fsspec.implementations.http  # noqa: F401
    except Exception:
        mod = types.ModuleType("fsspec.implementations.http")
        mod.HTTPFileSystem = type("HTTPFileSystem", (), {})
        sys.modules["fsspec.implementations.http"] = mod


def page_facets_ds(
    sf_dir: str, use_cache: bool = True, columns: list[str] | None = None
) -> ray.data.Dataset:
    """The per-page facet Dataset for this corpus tier. Cached build:
    first caller pays the parse once (tmp dir + rename + marker LAST,
    the repo's sink protocol) and deletes the trees of older digests;
    everyone after — in this process or a later registry query —
    reads the committed parquet with ``columns`` pruning.
    ``use_cache=False`` runs the fused parse fresh (the equality tests
    compare the two paths)."""
    from mlscraper_ray.pipelines.crawl_pipeline import corpus_for_sf, sf_of_dir

    corpus_dir, _spec = corpus_for_sf(sf_of_dir(sf_dir))
    if not use_cache:
        ds = _build_facets(corpus_dir)
        return ds.select_columns(columns) if columns else ds

    cache = _facet_cache_dir(corpus_dir)
    dest = os.path.join(cache, "facets")
    marker = os.path.join(cache, "_SUCCESS_facets")
    if not os.path.exists(marker):
        import shutil

        _pin_fsspec_http_stub()
        os.makedirs(cache, exist_ok=True)
        tmp = dest + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        _build_facets(corpus_dir).write_parquet(tmp)
        if not os.listdir(tmp):  # empty corpus: nothing cacheable
            shutil.rmtree(tmp, ignore_errors=True)
            return _build_facets(corpus_dir)
        try:
            os.replace(tmp, dest)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)  # concurrent winner
        with open(marker, "w") as f:
            f.write("")
        prune_stale(cache)
    return ray.data.read_parquet(dest, columns=list(columns) if columns else None)
