"""Training-batch PACKING and per-source vocabulary statistics.

:func:`pack_sequences` assigns every document its exact global token
offset in a deterministic corpus order and derives the fixed-length
training-sequence span it lands in — the operator that turns a curated
corpus into ``seq_len``-token training rows. The corpus order is
md5(doc_id) rank (seedless, rerun/cluster-stable — the same order the
quota sampler uses, textstats.source_token_quota), so the output is
worker-count-invariant and reproduced bit-for-bit by a SQL window
cumsum (PACK_SEQUENCES_SQL).

Computed as a DISTRIBUTED PREFIX SUM — no engine-wide sort/window:
1. slim pass ships only (doc_id, n_tokens, rk, rb) where rb is a
   RANGE bucket of rk's first two bytes (bucket order == rank order);
   text never leaves the task. The bucket count ADAPTS to the corpus
   (~200k rows per range bucket, clamped to [64, 2048] Ray-visible
   groups — the measured sweet spot for groupby/map_groups on this
   engine);
2. per-bucket token sums via the coarse-bucket aggregate; the driver
   prefix runs over that O(n_buckets) table (bounded by the clamp);
3. every bucket gets its base offset broadcast; ONE groupby co-locates
   each bucket and a vectorized cumsum inside it yields every doc's
   exact begin offset — per-group work is numpy over ~rows/n_buckets
   rows.

:func:`source_top_terms` is the classic per-source vocabulary summary
(top-k terms by frequency): (source, term) rows (pandas explode) into
a bucketed count aggregate, which combines each block before its
shuffle, per-block partial top-k, then a final tiny per-source
merge — the full (source, term) count table never lands anywhere
whole.
"""
from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa
import ray
import ray.data

from mlscraper_ray.functions.bucketed import bucketed_aggregate
from mlscraper_ray.functions.sinks import all_shards_done, crc32_shard, write_resumable
from mlscraper_ray.functions.tables import finish, read_table


def _rank_key(doc_id) -> str:
    return hashlib.md5(str(doc_id).encode()).hexdigest()


def _rank_bucket(rk: str, n_rank_buckets: int) -> int:
    # RANGE partition on rk's first two bytes: rb order == rk order,
    # so per-bucket prefixes compose globally
    return int(rk[:4], 16) * n_rank_buckets // 65536


def _add_rank(batch: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"].astype("int64"),
            "n_tokens": batch["n_tokens"].astype("int64"),
            "rk": [_rank_key(d) for d in batch["doc_id"]],
        }
    )


def _add_rb_fn(n_rank_buckets: int):
    def add_rb(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["rb"] = pd.Series(
            [_rank_bucket(h, n_rank_buckets) for h in batch["rk"]],
            index=batch.index,
            dtype="int32",
        )
        return batch

    return add_rb


def _pack_bucket_fn(base_ref, seq_len: int):
    def pack_bucket(g: pd.DataFrame) -> pd.DataFrame:
        start = ray.get(base_ref)[int(g["rb"].iloc[0])]
        g = g.sort_values(["rk", "doc_id"])
        cum = start + g["n_tokens"].cumsum()
        begin = cum - g["n_tokens"]
        out = pd.DataFrame(
            {
                "doc_id": g["doc_id"],
                "n_tokens": g["n_tokens"],
                "begin_off": begin.astype("int64"),
                "seq_begin": (begin // seq_len).astype("int64"),
                "seq_end": ((cum - 1) // seq_len).astype("int64"),
            }
        )
        return out[g["n_tokens"] > 0]

    return pack_bucket


def _rank_and_base(rows: ray.data.Dataset, n_rank_buckets: int | None):
    """Shared prefix-sum head: rank every (doc_id, n_tokens) row,
    bucket by rank range, and compute each bucket's base offset on the
    driver (a table bounded by the adaptive clamp). Returns the
    materialized bucketed rows, the base-offset broadcast ref, and the
    bucket count."""
    ranked = rows.map_batches(_add_rank, batch_format="pandas").materialize()
    if n_rank_buckets is None:
        # clamp keeps the Ray-visible group count in the measured
        # groupby sweet spot while per-group cumsum work stays
        # ~rows/n_buckets (vectorized)
        n_rank_buckets = min(2048, max(64, -(-ranked.count() // 200_000)))
    bucketed = ranked.map_batches(_add_rb_fn(n_rank_buckets), batch_format="pandas").materialize()

    sums = bucketed_aggregate(bucketed, ["rb"], {"tok_sum": ("n_tokens", "sum")}).to_pandas()
    base: dict[int, int] = {}
    start = 0
    for _, r in sums.sort_values("rb").iterrows():
        base[int(r["rb"])] = start
        start += int(r["tok_sum"])
    return bucketed, ray.put(base), n_rank_buckets


def pack_token_rows(
    rows: ray.data.Dataset, seq_len: int = 512, n_rank_buckets: int | None = None
) -> ray.data.Dataset:
    """Core packing operator over any (doc_id, n_tokens) Dataset —
    :func:`pack_sequences` feeds it the raw corpus,
    :func:`corpus_to_training` the curated survivors."""
    bucketed, base_ref, _ = _rank_and_base(rows, n_rank_buckets)
    return bucketed.groupby("rb").map_groups(
        _pack_bucket_fn(base_ref, seq_len), batch_format="pandas"
    )


def _doc_token_rows(sf_dir: str) -> ray.data.Dataset:
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def slim(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "n_tokens": batch["text"].str.split().str.len().astype("int64"),
            }
        )

    return docs.map_batches(slim, batch_format="pandas")


_PACK_COLS = ("doc_id", "n_tokens", "begin_off", "seq_begin", "seq_end")


def _pack_table(out: pd.DataFrame) -> pa.Table:
    return finish(
        out,
        "doc_id",
        columns=list(_PACK_COLS),
        empty=pa.schema({c: pa.int64() for c in _PACK_COLS}),
    )


def pack_sequences(sf_dir: str, seq_len: int = 512, n_rank_buckets: int | None = None) -> pa.Table:
    """Per-doc packing assignment: (doc_id, n_tokens, begin_off,
    seq_begin, seq_end) where begin_off is the doc's global token
    offset in md5(doc_id) rank order and seq_begin/seq_end are the
    first/last ``seq_len``-token training sequences it overlaps.
    Zero-token docs consume no space and are excluded (they have no
    sequence span)."""
    return _pack_table(
        pack_token_rows(_doc_token_rows(sf_dir), seq_len, n_rank_buckets).to_pandas()
    )


def pack_sequences_sql(seq_len: int = 512) -> str:
    return f"""
WITH toks AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN 0
                ELSE length(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens,
           md5(CAST(doc_id AS VARCHAR)) AS rk
    FROM documents
),
c AS (
    SELECT doc_id, n_tokens,
           SUM(n_tokens) OVER (ORDER BY rk, doc_id ROWS UNBOUNDED PRECEDING) AS cum
    FROM toks
)
SELECT doc_id,
       CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(cum - n_tokens AS BIGINT) AS begin_off,
       CAST((cum - n_tokens) // {seq_len} AS BIGINT) AS seq_begin,
       CAST((cum - 1) // {seq_len} AS BIGINT) AS seq_end
FROM c WHERE n_tokens > 0
ORDER BY doc_id
"""


PACK_SEQUENCES_SQL = pack_sequences_sql()


def corpus_to_training(
    sf_dir: str,
    seq_len: int = 512,
    min_quality_x10: int = 500,
    sample_pct: int = 50,
    n_rank_buckets: int | None = None,
) -> pa.Table:
    """FLAGSHIP COMPOSITE: curation -> training rows. The curate
    pipeline's slim survivor Dataset (lang filter -> quality gate ->
    exact dedup -> deterministic sample, curate.curate_survivors_ds)
    streams STRAIGHT into the packing prefix sum — no driver
    round-trip, no re-read; survivor n_tokens computed once in the
    curation pass is the packing input. Offsets are exact over the
    SURVIVING corpus (they tile [0, total_kept_tokens))."""
    from mlscraper_ray.functions.curate import curate_survivors_ds

    rows = curate_survivors_ds(sf_dir, min_quality_x10, sample_pct)
    return _pack_table(pack_token_rows(rows, seq_len, n_rank_buckets).to_pandas())


def corpus_to_training_sql(
    seq_len: int = 512, min_quality_x10: int = 500, sample_pct: int = 50
) -> str:
    from mlscraper_ray.functions.curate import curate_corpus_sql

    return f"""
WITH survivors AS (
    SELECT doc_id, n_tokens FROM ({curate_corpus_sql(min_quality_x10, sample_pct)})
),
c AS (
    SELECT doc_id, n_tokens,
           SUM(n_tokens) OVER (ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
                               ROWS UNBOUNDED PRECEDING) AS cum
    FROM survivors
)
SELECT doc_id,
       CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(cum - n_tokens AS BIGINT) AS begin_off,
       CAST((cum - n_tokens) // {seq_len} AS BIGINT) AS seq_begin,
       CAST((cum - 1) // {seq_len} AS BIGINT) AS seq_end
FROM c WHERE n_tokens > 0
ORDER BY doc_id
"""


def pack_sequences_to_parquet(
    sf_dir: str,
    out_dir: str,
    seq_len: int = 512,
    n_shards: int = 16,
    n_rank_buckets: int | None = None,
) -> dict:
    """Production sink twin of :func:`pack_sequences`, RESUMABLE
    (functions/sinks.py): every rank bucket is packed once and shard s
    holds the rank buckets with rb % n_shards == s (base offsets are
    data-derived, hence identical on resume), so the shard union ==
    the contract table."""
    if all_shards_done(out_dir, n_shards):  # the prefix-sum head runs eagerly
        return {"written": 0, "skipped": n_shards}
    bucketed, base_ref, nb = _rank_and_base(_doc_token_rows(sf_dir), n_rank_buckets)
    packed = bucketed.groupby("rb").map_groups(
        _pack_bucket_fn(base_ref, seq_len), batch_format="pandas"
    )

    def shard_of(t: pa.Table) -> list[int]:
        return [_rank_bucket(_rank_key(d), nb) % n_shards for d in t["doc_id"].to_pylist()]

    return write_resumable(packed, shard_of, out_dir, n_shards)


def source_top_terms(sf_dir: str, k: int = 10) -> pa.Table:
    """Top-``k`` terms per source by global count (ties broken by term
    text ascending) with a dense 1-based rank — the vocabulary /
    contamination-screen summary run per mixture component."""
    docs = read_table(sf_dir, "documents", ["source", "text"])

    def words(batch: pd.DataFrame) -> pd.DataFrame:
        ex = pd.DataFrame(
            {"source": batch["source"], "word": batch["text"].str.split()}
        ).explode("word")
        return ex[ex["word"].notna()]

    counts = bucketed_aggregate(
        docs.map_batches(words, batch_format="pandas"),
        ["source", "word"],
        {"cnt": ("word", "count")},
    )

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        # per-block candidate cut: global counts are final after the
        # bucketed aggregate, so a block's top-k per source is a safe
        # superset contribution to the global top-k
        return (
            df.sort_values(["source", "cnt", "word"], ascending=[True, False, True])
            .groupby("source", sort=False)
            .head(k)
        )

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cnt", "word"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = pd.Series(range(1, len(g) + 1), dtype="int64")
        return g[["source", "word", "cnt", "rank"]]

    return finish(
        counts.map_batches(partial_topk, batch_format="pandas")
        .groupby("source").map_groups(final_topk, batch_format="pandas").to_pandas(),
        ["source", "rank"],
        dtypes={"cnt": "int64"},
    )


def source_top_terms_sql(k: int = 10) -> str:
    return f"""
WITH words AS (
    SELECT source, unnest(regexp_split_to_array(trim(text), '\\s+')) AS word
    FROM documents WHERE trim(text) <> ''
),
counts AS (SELECT source, word, COUNT(*) AS cnt FROM words GROUP BY source, word),
ranked AS (
    SELECT source, word, cnt,
           row_number() OVER (PARTITION BY source ORDER BY cnt DESC, word) AS rank
    FROM counts
)
SELECT source, word, CAST(cnt AS BIGINT) AS cnt, CAST(rank AS BIGINT) AS rank
FROM ranked WHERE rank <= {k}
ORDER BY source, rank
"""


SOURCE_TOP_TERMS_SQL = source_top_terms_sql()


CHUNK_WINDOW = 128
CHUNK_STRIDE = 96


def doc_chunk_windows_ds(
    sf_dir: str, window: int = CHUNK_WINDOW, stride: int = CHUNK_STRIDE
) -> ray.data.Dataset:
    """Overlapping token-window chunking — the retrieval/long-doc
    sibling of :func:`pack_sequences`: each document splits into
    windows of ``window`` whitespace tokens starting every ``stride``
    tokens (the last window is short). Emits (doc_id, chunk_id,
    start_tok, n_toks, chunk_md5) per window, value-pinned down to the
    md5 of each chunk's joined token text; empty docs carry no rows
    (matching the SQL words CTE). Pure streaming map — chunk counts
    and hashes are per-doc local, no shuffle anywhere."""

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def chunk(batch: pd.DataFrame) -> pd.DataFrame:
        ids, cids, starts, ntoks, hashes = [], [], [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            toks = (text or "").split()
            n = len(toks)
            if n == 0:
                continue
            cid = 0
            for s in range(0, n, stride):
                k = min(window, n - s)
                ids.append(doc_id)
                cids.append(cid)
                starts.append(s)
                ntoks.append(k)
                hashes.append(
                    hashlib.md5(" ".join(toks[s : s + k]).encode()).hexdigest()
                )
                cid += 1
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "chunk_id": pd.Series(cids, dtype="int64"),
                "start_tok": pd.Series(starts, dtype="int64"),
                "n_toks": pd.Series(ntoks, dtype="int64"),
                "chunk_md5": pd.Series(hashes, dtype=str),
            }
        )

    return ds.map_batches(chunk, batch_format="pandas")


def doc_chunk_windows(
    sf_dir: str, window: int = CHUNK_WINDOW, stride: int = CHUNK_STRIDE
) -> pa.Table:
    """Driver-table wrapper of :func:`doc_chunk_windows_ds`, ordered
    by (doc_id, chunk_id)."""
    return finish(
        doc_chunk_windows_ds(sf_dir, window=window, stride=stride).to_pandas(),
        ["doc_id", "chunk_id"],
    )


def chunks_to_parquet(
    sf_dir: str,
    out_dir: str,
    n_shards: int = 16,
    window: int = CHUNK_WINDOW,
    stride: int = CHUNK_STRIDE,
) -> dict:
    """Production sink twin of :func:`doc_chunk_windows`, RESUMABLE
    (functions/sinks.py): sharded by crc32(doc_id), so a doc's chunks
    share a shard and downstream per-doc reads stay single-shard.
    Shard union == the oracle-checked contract table (tested)."""
    return write_resumable(
        doc_chunk_windows_ds(sf_dir, window=window, stride=stride),
        crc32_shard("doc_id", n_shards),
        out_dir,
        n_shards,
    )


def doc_chunk_windows_sql(
    window: int = CHUNK_WINDOW, stride: int = CHUNK_STRIDE
) -> str:
    return rf"""
WITH t AS (
    SELECT doc_id, string_split_regex(trim(text), '\s+') AS tk
    FROM documents WHERE trim(text) <> ''
),
c AS (
    SELECT doc_id, tk, unnest(generate_series(0, len(tk) - 1, {stride})) AS s
    FROM t
)
SELECT doc_id,
       ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY s) - 1 AS chunk_id,
       s AS start_tok,
       least({window}, len(tk) - s) AS n_toks,
       md5(array_to_string(tk[s + 1:s + least({window}, len(tk) - s)], ' '))
           AS chunk_md5
FROM c
ORDER BY doc_id, chunk_id
"""


DOC_CHUNK_WINDOWS_SQL = doc_chunk_windows_sql()
