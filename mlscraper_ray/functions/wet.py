"""Crawl-corpus -> WET -> curated-manifest composite: the full
Common-Crawl-style path from raw pages to a deduplicated training
text inventory, in one streaming pipeline.

Per page (robots.txt rows skipped): extract the MAIN-CONTENT text
(densest top-level block, functions/content.py's shared rule), tag it
with the shared stopword language vote (functions/textstats.lang_vote
— informational on this corpus: the synthetic filler vocabulary
carries no stopwords, so every page votes 'und'; a real corpus would
gate on it), gate on a minimum whitespace token count, then
exact-dedup survivors on md5(text) keeping the lexicographically
smallest url as canonical. The kept-page manifest reports (url, lang,
n_tokens, n_dups, text_sha256) — the sha256 byte-pins the extracted
text without ever shipping it to the driver.

Scale shape: extraction + gating is ONE per-record map (html never
leaves it); only slim rows (md5 hash, url, token count, sha) cross
the single dedup shuffle (the coarse-bucket aggregate). The truth
oracle (pipelines/truth_oracles.wet_curate_truth_sql) replays the
whole composite single-process over the GENERATOR's page template —
block texts and element counts are synthesis-time facts, so the
oracle pins parsing, extraction, gating and dedup end to end.
"""
from __future__ import annotations

import pyarrow as pa
import ray.data

from mlscraper_ray.functions.bucketed import bucketed_aggregate
from mlscraper_ray.functions.sinks import all_shards_done, crc32_shard, write_resumable
from mlscraper_ray.functions.tables import finish


def wet_rows_ds(sf_dir: str, min_tokens: int = 20) -> ray.data.Dataset:
    """Slim survivor rows (h, url, n_tokens, sha) — extraction and
    lang tagging come precomputed from the SHARED per-page facet table
    (functions/facets.py; one cached parse serves every page-level
    query); the token-count gate stays HERE because ``min_tokens`` is
    a per-call parameter, not a facet."""
    import pyarrow.compute as pc

    from mlscraper_ray.functions.facets import page_facets_ds

    facets = page_facets_ds(
        sf_dir,
        columns=["has_blocks", "text_md5", "url", "lang", "n_tokens", "text_sha256"],
    )

    def gate(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(t["has_blocks"], pc.greater_equal(t["n_tokens"], min_tokens))
        )
        return pa.table(
            {
                "h": t["text_md5"],
                "url": t["url"],
                "lang": t["lang"],
                "n_tokens": t["n_tokens"],
                "text_sha256": t["text_sha256"],
            }
        )

    return facets.map_batches(gate, batch_format="pyarrow")


def wet_curate_ds(sf_dir: str, min_tokens: int = 20) -> ray.data.Dataset:
    """Streaming core: survivor rows dedup by content hash in the
    coarse-bucket aggregate (canonical = min url; identical text ->
    identical n_tokens/sha, so min folds are exact)."""
    return bucketed_aggregate(
        wet_rows_ds(sf_dir, min_tokens),
        ["h"],
        {
            "url": ("url", "min"),
            "lang": ("lang", "min"),
            "n_tokens": ("n_tokens", "min"),
            "text_sha256": ("text_sha256", "min"),
            "n_dups": ("h", "count"),
        },
    )


def wet_curate(sf_dir: str, min_tokens: int = 20) -> pa.Table:
    """Driver-table wrapper: (url, lang, n_tokens, n_dups,
    text_sha256) of the kept canonical pages sorted by url."""
    out = wet_curate_ds(sf_dir, min_tokens).to_pandas()
    cols = ["url", "lang", "n_tokens", "n_dups", "text_sha256"]
    if len(out) == 0:
        return pa.table(
            {
                "url": pa.array([], pa.string()),
                "lang": pa.array([], pa.string()),
                "n_tokens": pa.array([], pa.int64()),
                "n_dups": pa.array([], pa.int64()),
                "text_sha256": pa.array([], pa.string()),
            }
        )
    out = out.astype({"n_tokens": "int64", "n_dups": "int64"})
    return finish(out, "url", columns=cols)


def wet_curate_to_parquet(
    sf_dir: str,
    out_dir: str,
    n_shards: int = 16,
    min_tokens: int = 20,
) -> dict:
    """Production sink twin of :func:`wet_curate`, RESUMABLE
    (functions/sinks.py): the kept-page manifest is sharded by
    crc32(content hash), so every dedup group sits in one shard.
    Returns {"written": n, "skipped": n}."""
    if all_shards_done(out_dir, n_shards):  # a cold facet cache parses eagerly
        return {"written": 0, "skipped": n_shards}
    return write_resumable(
        wet_curate_ds(sf_dir, min_tokens), crc32_shard("h", n_shards), out_dir, n_shards
    )
