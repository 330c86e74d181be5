"""Keyword top-k search over the document corpus: BM25 ranking with
INTEGER fixed-point arithmetic — the lexical counterpart of the
`ann_*` embedding searches (public method: Robertson & Zaragoza 2009,
"The Probabilistic Relevance Framework: BM25 and Beyond").

All scoring terms are integers with explicit floor division, so the
whole ranking — corpus statistics, idf, tf saturation, final order —
is reproduced bit-for-bit by a DuckDB oracle (the repo-wide idiom;
float log-idf would not hash-match across engines):

- ``idf_m(t)   = (N * 1000) // df(t)``                (fixed-point 1/df)
- ``norm_m(d)  = 250 + (750 * len_d * N) // L``       (1000*(1-b+b*len/avg), b=0.75)
- ``sat_m(t,d) = (tf * 2_200_000_000) // (tf * 1_000_000 + 1200 * norm_m)``
  (1000 * tf*(k1+1)/(tf + k1*norm), k1=1.2 — the BM25 tf saturation)
- ``score_m(d) = sum_t (idf_m * sat_m) // 1000``

Plan shape (100 TB-ready): ONE tokenize pass emits a slim per-doc row
(doc_id, n_tokens, tf per query term — the term list is a tiny
constant); corpus stats (N, L, df) fold from per-batch integer
partials; scoring + per-batch partial top-k runs over the slim
materialized dataset, so the driver only ever sees k rows per block.
No shuffle anywhere — the only all-to-all a search needs is none.
"""
from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from mlscraper_ray.functions.bucketed import co_partition
from mlscraper_ray.functions.sinks import (
    all_shards_done,
    crc32_shard,
    prune_stale,
    shard_files,
    write_resumable,
)
from mlscraper_ray.functions.tables import finish, read_table

# present in every sf tier of the synthetic corpus vocabulary
DEFAULT_TERMS = ("scan", "column", "window", "sort")


# token = maximal run of non-whitespace where whitespace is RE2's \s
# class [\t\n\f\r ] EXACTLY — pandas .str.split() would split on
# unicode whitespace (and python \s adds \v), silently diverging from
# the DuckDB mirror on e.g. a NBSP (the same re/RE2 parity discipline
# as the PII patterns)
_WORD_RE = r"[^\t\n\f\r ]+"


def _tf_fn(terms: tuple[str, ...]):
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(_WORD_RE)
        out = {
            "doc_id": batch["doc_id"].astype("int64"),
            "n_tokens": toks.str.len().astype("int64"),
        }
        for i, t in enumerate(terms):
            # list.count is a C-level scan per document, not a token loop
            out[f"tf_{i}"] = toks.map(lambda ws, t=t: ws.count(t)).astype("int64")
        return pd.DataFrame(out)

    return fn


def bm25_topk(
    sf_dir: str, terms: tuple[str, ...] = DEFAULT_TERMS, k: int = 10
) -> pa.Table:
    """Top-k documents for a keyword query under integer BM25.

    Returns (doc_id, score_m, n_tokens) ordered by (score_m DESC,
    doc_id) — zero-score documents rank too, exactly like the SQL
    ``ORDER BY ... LIMIT k`` they are checked against."""
    m = len(terms)
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    slim = ds.map_batches(_tf_fn(terms), batch_format="pandas").materialize()

    def stats_partial(batch: pd.DataFrame) -> pd.DataFrame:
        row = {
            "n_docs": [np.int64(len(batch))],
            "total_tokens": [np.int64(batch["n_tokens"].sum())],
        }
        for i in range(m):
            row[f"df_{i}"] = [np.int64((batch[f"tf_{i}"] > 0).sum())]
        return pd.DataFrame(row)

    stats = slim.map_batches(stats_partial, batch_format="pandas").to_pandas().sum()
    n_docs = int(stats["n_docs"])
    total = max(1, int(stats["total_tokens"]))
    df_t = [int(stats[f"df_{i}"]) for i in range(m)]

    def score_topk(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(dtype=np.int64)
        len_d = batch["n_tokens"].to_numpy(dtype=np.int64)
        if len(len_d):
            # exact pre-multiply bounds (python ints don't wrap): the
            # norm intermediate is 750 * len_d * N, and the saturation
            # numerator is tf * 2.2e9 with tf <= len_d
            mx = int(len_d.max())
            assert 750 * mx * n_docs < 2**63 and mx * 2_200_000_000 < 2**63, (
                "BM25 fixed-point intermediate would overflow int64 "
                "(doc length x corpus size too large for the scale)"
            )
        norm_m = 250 + (750 * len_d * n_docs) // total
        score = np.zeros(len(ids), dtype=np.int64)
        for i in range(m):
            if df_t[i] == 0:
                continue  # term absent from the corpus: contributes 0
            idf_m = (n_docs * 1000) // df_t[i]
            tf = batch[f"tf_{i}"].to_numpy(dtype=np.int64)
            sat_m = (tf * 2_200_000_000) // (tf * 1_000_000 + 1200 * norm_m)
            score += (idf_m * sat_m) // 1000
        # partial top-k: (score DESC, doc_id ASC), np.lexsort not
        # argpartition — boundary ties must match the oracle's ORDER BY
        order = np.lexsort((ids, -score))[:k]
        return pd.DataFrame(
            {
                "doc_id": ids[order],
                "score_m": score[order],
                "n_tokens": len_d[order],
            }
        )

    parts = slim.map_batches(score_topk, batch_format="pandas").to_pandas()
    order = np.lexsort((parts["doc_id"].to_numpy(), -parts["score_m"].to_numpy()))[:k]
    return finish(
        parts.iloc[order], dtypes={"doc_id": "int64", "score_m": "int64", "n_tokens": "int64"}
    )


def bm25_topk_sql(terms: tuple[str, ...] = DEFAULT_TERMS, k: int = 10) -> str:
    """DuckDB oracle mirroring :func:`bm25_topk` term for term (same
    tokenization, same fixed-point formulas, same floor divisions —
    all operands non-negative, so ``//`` truncation == floor)."""
    tf_cols = ",\n           ".join(
        f"len(list_filter(w, x -> x = '{t}')) AS tf_{i}" for i, t in enumerate(terms)
    )
    df_cols = ",\n           ".join(
        f"CAST(SUM(CASE WHEN tf_{i} > 0 THEN 1 ELSE 0 END) AS BIGINT) AS df_{i}"
        for i in range(len(terms))
    )
    term_sum = " + ".join(
        f"(CASE WHEN s.df_{i} = 0 THEN 0 ELSE "
        f"(((s.n_docs * 1000) // s.df_{i}) * "
        f"((tf_{i} * 2200000000) // (tf_{i} * 1000000 + 1200 * norm_m))) // 1000 END)"
        for i in range(len(terms))
    )
    return f"""
WITH tk AS (
    SELECT doc_id,
           list_filter(string_split_regex(lower(text), '[\\t\\n\\f\\r ]+'), x -> x <> '') AS w
    FROM documents
),
tf AS (
    SELECT doc_id, len(w) AS n_tokens,
           {tf_cols}
    FROM tk
),
s AS (
    SELECT COUNT(*) AS n_docs, CAST(GREATEST(1, SUM(n_tokens)) AS BIGINT) AS total_tokens,
           {df_cols}
    FROM tf
),
normed AS (
    SELECT tf.*, s.*,
           250 + (750 * tf.n_tokens * s.n_docs) // s.total_tokens AS norm_m
    FROM tf CROSS JOIN s
)
SELECT doc_id,
       CAST({term_sum.replace('s.', 'normed.')} AS BIGINT) AS score_m,
       n_tokens
FROM normed
ORDER BY score_m DESC, doc_id
LIMIT {k}
"""


# -- persisted inverted index --------------------------------------------


def bm25_index_to_parquet(sf_dir: str, out_dir: str, n_shards: int = 16) -> dict:
    """Build a PERSISTED term-sharded inverted index: postings rows
    (term, doc_id, tf, n_tokens — doc length denormalized onto the
    posting, the classic serving trick) sharded by crc32(term) through
    the resumable sink (functions/sinks.py), each file SORTED by
    (term, doc_id) so a term probe row-group-prunes. Corpus stats land
    in ``_meta.json`` (written last, after every shard committed); the
    one tokenize pass is materialized because the stats fold over it
    before the write."""
    import json

    meta_path = os.path.join(out_dir, "_meta.json")
    if all_shards_done(out_dir, n_shards) and os.path.exists(meta_path):
        return {"written": 0, "skipped": n_shards}

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def postings(batch: pd.DataFrame) -> pd.DataFrame:
        rows_t, rows_d, rows_tf, rows_n = [], [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            toks = re.findall(_WORD_RE, (text or "").lower())
            n = len(toks)
            cnt: dict[str, int] = {}
            for t in toks:
                cnt[t] = cnt.get(t, 0) + 1
            for t, tf in cnt.items():
                rows_t.append(t)
                rows_d.append(doc_id)
                rows_tf.append(tf)
                rows_n.append(n)
        return pd.DataFrame(
            {
                "term": pd.Series(rows_t, dtype=str),
                "doc_id": pd.Series(rows_d, dtype="int64"),
                "tf": pd.Series(rows_tf, dtype="int64"),
                "n_tokens": pd.Series(rows_n, dtype="int64"),
            }
        )

    slim = ds.map_batches(postings, batch_format="pandas").materialize()

    def stats_partial(batch: pd.DataFrame) -> pd.DataFrame:
        docs = batch.drop_duplicates("doc_id")
        return pd.DataFrame(
            {
                "n_docs": pd.Series([len(docs)], dtype="int64"),
                "total_tokens": pd.Series([int(docs["n_tokens"].sum())], dtype="int64"),
            }
        )

    # per-batch doc rows are intact (a doc's postings come from one
    # input row), so distinct-doc stats fold from batch partials; docs
    # with ZERO tokens carry no postings — count them separately so
    # n_docs/total match the full-scan scorer exactly
    st = slim.map_batches(stats_partial, batch_format="pandas").to_pandas().sum()
    # "empty" must mean ZERO TOKENS under the index's own tokenizer
    # (_WORD_RE is the ASCII class; .str.strip() is unicode) — a doc
    # of only \v or NBSP strips to "" yet still emits a posting, which
    # would double-count it in n_docs and skew idf/norm vs bm25_topk
    n_empty = int(
        ds.map_batches(
            lambda b: pd.DataFrame(
                {
                    "e": pd.Series(
                        [int((~b["text"].fillna("").str.contains(_WORD_RE, regex=True)).sum())],
                        dtype="int64",
                    )
                }
            ),
            batch_format="pandas",
        ).sum("e")
        or 0
    )

    res = write_resumable(
        slim.map_batches(_sort_postings, batch_format="pyarrow"),
        crc32_shard("term", n_shards),
        out_dir,
        n_shards,
    )
    with open(meta_path + ".tmp", "w") as f:
        json.dump(
            {
                "n_docs": int(st["n_docs"]) + n_empty,
                "total_tokens": int(st["total_tokens"]),
                "n_shards": n_shards,
            },
            f,
        )
    os.replace(meta_path + ".tmp", meta_path)
    return res


def _sort_postings(t: pa.Table) -> pa.Table:
    """Index files are key-sorted so a term probe row-group-prunes."""
    return t.sort_by([("term", "ascending"), ("doc_id", "ascending")])


def _probed_postings(index_dir: str, n_shards: int, terms, columns: list[str]):
    """Postings of ``terms`` from a persisted index: only the shard
    directories the terms hash to are read, with the term filter
    pushed into the scan. None when those shards hold no rows."""
    import zlib

    import pyarrow.compute as pc

    paths = shard_files(index_dir, sorted({zlib.crc32(t.encode()) % n_shards for t in terms}))
    if not paths:
        return None
    return ray.data.read_parquet(
        paths, columns=columns, filter=pc.field("term").isin(list(set(terms)))
    ).materialize()


def bm25_query_index(
    index_dir: str, terms: tuple[str, ...] = DEFAULT_TERMS, k: int = 10
) -> pa.Table:
    """Serve a keyword query FROM THE PERSISTED INDEX: read only the
    shards the probed terms hash to (<= m of n_shards directories),
    with the term filter pushed into the parquet scan (shards are
    term-sorted, so row groups prune). Scoring is the same integer
    BM25; only documents MATCHING at least one term are ranked (the
    standard serving semantics — the full-scan :func:`bm25_topk` also
    ranks zero-score docs, which an inverted index by design never
    materializes). df comes exact from the probed postings; N and
    total token count from the index metadata."""
    import json

    import numpy as np

    with open(os.path.join(index_dir, "_meta.json")) as f:
        meta = json.load(f)
    n_docs, total = meta["n_docs"], max(1, meta["total_tokens"])
    post = _probed_postings(
        index_dir, meta["n_shards"], terms, ["term", "doc_id", "tf", "n_tokens"]
    )

    if post is None or post.count() == 0:
        # no probed term exists in the corpus: empty-Dataset
        # to_pandas() drops columns (repo-documented hazard), so
        # return a TYPED empty result instead of falling through
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "score_m": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
            }
        )

    # df per probed term: tiny (<= m rows) distributed aggregate
    dfp = (
        post.map_batches(
            lambda b: b.groupby("term", sort=False).size().rename("d").reset_index(),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("term")["d"]
        .sum()
        .to_dict()
    )
    df_map = {t: int(dfp.get(t, 0)) for t in terms}

    def contrib(batch: pd.DataFrame) -> pd.DataFrame:
        len_d = batch["n_tokens"].to_numpy(dtype=np.int64)
        tf = batch["tf"].to_numpy(dtype=np.int64)
        norm_m = 250 + (750 * len_d * n_docs) // total
        idf = np.array([(n_docs * 1000) // df_map[t] for t in batch["term"]], dtype=np.int64)
        sat = (tf * 2_200_000_000) // (tf * 1_000_000 + 1200 * norm_m)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "c": ((idf * sat) // 1000).astype("int64"),
                "n_tokens": batch["n_tokens"].astype("int64"),
            }
        )

    from mlscraper_ray.functions.bucketed import bucketed_aggregate

    scored = bucketed_aggregate(
        post.map_batches(contrib, batch_format="pandas"),
        ["doc_id"],
        {"score_m": ("c", "sum"), "n_tokens": ("n_tokens", "max")},
    )

    def topk_part(df: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((df["doc_id"].to_numpy(), -df["score_m"].to_numpy()))[:k]
        return df.iloc[order]

    parts = scored.map_batches(topk_part, batch_format="pandas").to_pandas()
    order = np.lexsort((parts["doc_id"].to_numpy(), -parts["score_m"].to_numpy()))[:k]
    out = parts.iloc[order].reset_index(drop=True)[["doc_id", "score_m", "n_tokens"]].astype("int64")
    return finish(out)


def _index_cache_dir(sf_dir: str, prefix: str) -> str:
    """Cache key digests THIS module's source (tokenizer, scoring,
    shard layout) plus a fingerprint of the indexed data (documents
    parquet size+mtime) — mirrors facets' ``_facet_cache_dir`` so a
    code or data change can't silently serve a stale index."""
    import hashlib

    h = hashlib.md5()
    with open(os.path.abspath(__file__), "rb") as f:
        h.update(f.read())
    docs_path = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(docs_path)
    h.update(f"{docs_path}:{st.st_size}:{st.st_mtime_ns}".encode())
    sf_tag = os.path.basename(os.path.normpath(sf_dir))
    return os.path.join(
        os.environ.get("MLSCRAPER_RAY_TMP", "/tmp/mlscraper_ray_data"),
        f"{prefix}_{sf_tag}_{h.hexdigest()[:10]}",
    )


def _cached_index(sf_dir: str, prefix: str, build) -> str:
    """The ``prefix`` index of this corpus tier in its digest-keyed
    cache dir (:func:`_index_cache_dir`), built or resumed by the sink
    ``build(sf_dir, index_dir)``; once it is committed, the indexes of
    older digests are deleted."""
    index_dir = _index_cache_dir(sf_dir, prefix)
    build(sf_dir, index_dir)
    prune_stale(index_dir)
    return index_dir


def bm25_indexed_topk(
    sf_dir: str, terms: tuple[str, ...] = DEFAULT_TERMS, k: int = 10
) -> pa.Table:
    """Registry entry: build (or reuse — the sink is resumable and
    cached) the persisted index for this corpus tier, then serve the
    default query from it."""
    index_dir = _cached_index(sf_dir, "bm25_index", bm25_index_to_parquet)
    return bm25_query_index(index_dir, terms, k)


def bm25_indexed_topk_sql(terms: tuple[str, ...] = DEFAULT_TERMS, k: int = 10) -> str:
    """Oracle = the full-scan BM25 SQL restricted to MATCHING docs
    (score > 0 — an inverted index never materializes non-matches)."""
    base = bm25_topk_sql(terms, k)
    return base.replace(
        "FROM normed\nORDER BY",
        "FROM normed\nWHERE "
        + " + ".join(f"tf_{i}" for i in range(len(terms)))
        + " > 0\nORDER BY",
    )

# -- phrase search --------------------------------------------------------

# present as a CONSECUTIVE token pair at every corpus tier (probed:
# 45/44/283 matching docs at sf0.001/0.01/0.1) — single-term hits
# would not exercise the positional semantics at all
DEFAULT_PHRASE = ("part", "filter")


def phrase_topk(
    sf_dir: str, phrase: tuple[str, ...] = DEFAULT_PHRASE, k: int = 10
) -> pa.Table:
    """Exact-phrase top-k: documents where the query tokens occur
    CONSECUTIVELY (the positional-index capability BM25's bag-of-words
    scoring cannot express), ranked by occurrence count.

    Returns (doc_id, n_hits, n_tokens) for matching docs only, ordered
    by (n_hits DESC, doc_id) LIMIT k — an inverted positional index
    never materializes non-matches, so neither does this.

    Plan shape (100 TB-ready): ONE tokenize pass per batch; one
    flatten pass builds the batch token stream, then the
    consecutive-match count is a vectorized numpy shift-compare over
    candidate start offsets (only positions holding the first phrase
    token are ever touched); per-batch partial top-k, driver merges k
    rows per block. No shuffle — same zero-exchange plan as
    :func:`bm25_topk`."""
    assert len(phrase) >= 2, "a phrase is at least two tokens"
    p0 = phrase[0]
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def score_topk(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(_WORD_RE)
        lens = toks.str.len().to_numpy(dtype=np.int64)
        # flatten the batch's tokens once; doc boundaries from lens.
        # A phrase never straddles a boundary: candidate start offsets
        # are masked to positions with len(phrase)-1 successors in the
        # SAME document.
        flat = np.asarray(
            [w for ws in toks for w in ws], dtype=object
        )
        n = len(flat)
        hits = np.zeros(len(batch), dtype=np.int64)
        if n >= len(phrase):
            starts = np.flatnonzero(flat == p0)
            if len(starts):
                ok = starts <= n - len(phrase)
                starts = starts[ok]
                for off, term in enumerate(phrase[1:], start=1):
                    starts = starts[flat[starts + off] == term]
                    if not len(starts):
                        break
                if len(starts):
                    ends = np.cumsum(lens)  # doc i owns [ends[i]-lens[i], ends[i])
                    doc_of = np.searchsorted(ends, starts, side="right")
                    # drop matches whose LAST token spills into the next doc
                    doc_of_last = np.searchsorted(
                        ends, starts + len(phrase) - 1, side="right"
                    )
                    doc_of = doc_of[doc_of == doc_of_last]
                    np.add.at(hits, doc_of, 1)
        ids = batch["doc_id"].to_numpy(dtype=np.int64)
        mask = hits > 0
        ids, hv, lv = ids[mask], hits[mask], lens[mask]
        order = np.lexsort((ids, -hv))[:k]
        return pd.DataFrame(
            {
                "doc_id": ids[order],
                "n_hits": hv[order],
                "n_tokens": lv[order],
            }
        )

    parts = ds.map_batches(score_topk, batch_format="pandas").to_pandas()
    if len(parts) == 0:
        return pa.table(
            {c: pa.array([], pa.int64()) for c in ("doc_id", "n_hits", "n_tokens")}
        )
    order = np.lexsort((parts["doc_id"].to_numpy(), -parts["n_hits"].to_numpy()))[:k]
    return finish(parts.iloc[order], dtypes="int64")


def phrase_topk_sql(phrase: tuple[str, ...] = DEFAULT_PHRASE, k: int = 10) -> str:
    """DuckDB oracle: same tokenization as BM25's, consecutive match
    via 1-based list indexing over candidate start positions."""
    conds = " AND ".join(
        f"w[i + {off}] = '{t}'" for off, t in enumerate(phrase)
    )
    span = len(phrase) - 1
    return f"""
WITH tk AS (
    SELECT doc_id,
           list_filter(string_split_regex(lower(text), '[\\t\\n\\f\\r ]+'), x -> x <> '') AS w
    FROM documents
),
hits AS (
    SELECT doc_id, CAST(len(w) AS BIGINT) AS n_tokens,
           CAST(len(list_filter(generate_series(1, len(w) - {span}), i -> {conds})) AS BIGINT) AS n_hits
    FROM tk
)
SELECT doc_id, n_hits, n_tokens
FROM hits
WHERE n_hits > 0
ORDER BY n_hits DESC, doc_id
LIMIT {k}
"""


# -- persisted POSITIONAL index (phrase serving) --------------------------


def phrase_index_to_parquet(sf_dir: str, out_dir: str, n_shards: int = 16) -> dict:
    """Build a PERSISTED positional inverted index: postings rows
    (term, doc_id, positions list<int64>, n_tokens) sharded by
    crc32(term) through the resumable sink (functions/sinks.py), each
    file sorted by (term, doc_id) so a term probe row-group-prunes.
    The positional payload is what upgrades the bag-of-words index to
    phrase / NEAR queries. ``_meta.json`` (shard count) commits
    last."""
    import json

    meta_path = os.path.join(out_dir, "_meta.json")
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def postings(batch: pd.DataFrame) -> pa.Table:
        rows_t, rows_d, rows_p, rows_n = [], [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            toks = re.findall(_WORD_RE, (text or "").lower())
            n = len(toks)
            pos: dict[str, list[int]] = {}
            for i, t in enumerate(toks):
                pos.setdefault(t, []).append(i)
            for t, ps in pos.items():
                rows_t.append(t)
                rows_d.append(doc_id)
                rows_p.append(ps)
                rows_n.append(n)
        return _sort_postings(
            pa.table(
                {
                    "term": pa.array(rows_t, pa.string()),
                    "doc_id": pa.array(rows_d, pa.int64()),
                    "positions": pa.array(rows_p, pa.list_(pa.int64())),
                    "n_tokens": pa.array(rows_n, pa.int64()),
                }
            )
        )

    res = write_resumable(
        ds.map_batches(postings, batch_format="pandas"),
        crc32_shard("term", n_shards),
        out_dir,
        n_shards,
    )
    if res["written"] or not os.path.exists(meta_path):
        with open(meta_path + ".tmp", "w") as f:
            json.dump({"n_shards": n_shards}, f)
        os.replace(meta_path + ".tmp", meta_path)
    return res


def phrase_query_index(
    index_dir: str, phrase: tuple[str, ...] = DEFAULT_PHRASE, k: int = 10
) -> pa.Table:
    """Serve a phrase query FROM THE PERSISTED POSITIONAL INDEX: read
    only the probed terms' shards (filter pushed into the scan), then
    co-locate each candidate doc's per-term position lists in one
    doc_id co-partition round and count consecutive runs by
    successive position-set intersection — docs missing ANY phrase
    term never join. Equal to the full-scan :func:`phrase_topk`
    (which already emits matches only; tested)."""
    import json

    with open(os.path.join(index_dir, "_meta.json")) as f:
        meta = json.load(f)
    post = _probed_postings(
        index_dir, meta["n_shards"], phrase, ["term", "doc_id", "positions", "n_tokens"]
    )

    empty = pa.table(
        {c: pa.array([], pa.int64()) for c in ("doc_id", "n_hits", "n_tokens")}
    )
    if post is None or post.count() == 0:
        return empty

    terms = list(phrase)

    def count_hits(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for doc_id, rows in g.groupby("doc_id", sort=False):
            by_term = {t: ps for t, ps in zip(rows["term"], rows["positions"])}
            if any(t not in by_term for t in terms):
                continue
            s = set(by_term[terms[0]])
            for j, t in enumerate(terms[1:], start=1):
                nxt = set(by_term[t])
                s = {p for p in s if p + j in nxt}
                if not s:
                    break
            if s:
                out.append((int(doc_id), len(s), int(rows["n_tokens"].iloc[0])))
        df = pd.DataFrame(out, columns=["doc_id", "n_hits", "n_tokens"]).astype("int64")
        order = np.lexsort((df["doc_id"].to_numpy(), -df["n_hits"].to_numpy()))[:k]
        return df.iloc[order]

    parts = (
        co_partition(post, ["doc_id"], count_hits)
        .to_pandas()
    )
    if len(parts) == 0:
        return empty
    order = np.lexsort((parts["doc_id"].to_numpy(), -parts["n_hits"].to_numpy()))[:k]
    return finish(parts.iloc[order], dtypes="int64")


def phrase_indexed_topk(
    sf_dir: str, phrase: tuple[str, ...] = DEFAULT_PHRASE, k: int = 10
) -> pa.Table:
    """Registry entry: build (or reuse — resumable and cached) the
    positional index for this corpus tier, then serve the default
    phrase from it."""
    index_dir = _cached_index(sf_dir, "phrase_index", phrase_index_to_parquet)
    return phrase_query_index(index_dir, phrase, k)


DEFAULT_NEAR = ("scan", "sort")


def _near_doc_stats(pa_pos: np.ndarray, pb_pos: np.ndarray, window: int) -> tuple[int, int]:
    """(n_near, min_dist) for one doc: pairs of positions within
    ``window`` and the global minimum |pa - pb|. Vectorized: one
    searchsorted pair per side."""
    lo = np.searchsorted(pb_pos, pa_pos - window, side="left")
    hi = np.searchsorted(pb_pos, pa_pos + window, side="right")
    n_near = int((hi - lo).sum())
    idx = np.clip(np.searchsorted(pb_pos, pa_pos), 1, len(pb_pos) - 1) if len(pb_pos) > 1 else np.zeros(len(pa_pos), dtype=np.int64)
    cand = np.minimum(
        np.abs(pa_pos - pb_pos[idx - 1] if len(pb_pos) > 1 else pa_pos - pb_pos[0]),
        np.abs(pb_pos[np.minimum(idx, len(pb_pos) - 1)] - pa_pos),
    )
    return n_near, int(cand.min())


def near_topk(
    sf_dir: str,
    terms: tuple[str, str] = DEFAULT_NEAR,
    window: int = 4,
    k: int = 10,
) -> pa.Table:
    """Proximity (NEAR/``window``) search: docs where the two query
    terms co-occur within ``window`` token positions, ranked by the
    number of such co-occurring position pairs — the classic NEAR
    operator the positional payload buys beyond bag-of-words BM25
    and beyond exact-phrase adjacency.

    Returns (doc_id, n_near, min_dist, n_tokens) for docs with at
    least one within-window pair, ORDER BY n_near DESC, doc_id
    LIMIT k. Same zero-shuffle plan as :func:`bm25_topk`: one
    tokenize pass per batch, flat position arrays + per-candidate-doc
    searchsorted windows, per-batch partial top-k, driver merges
    k x n_blocks rows."""
    ta, tb = terms
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def score_topk(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(_WORD_RE)
        lens = toks.str.len().to_numpy(dtype=np.int64)
        flat = np.asarray([w for ws in toks for w in ws], dtype=object)
        ends = np.cumsum(lens)
        fa = np.flatnonzero(flat == ta)
        fb = np.flatnonzero(flat == tb)
        rows = []
        if len(fa) and len(fb):
            da = np.searchsorted(ends, fa, side="right")
            db = np.searchsorted(ends, fb, side="right")
            common = np.intersect1d(np.unique(da), np.unique(db))
            ids = batch["doc_id"].to_numpy(dtype=np.int64)
            for d in common:
                pa_pos = fa[da == d]
                pb_pos = fb[db == d]
                n_near, min_dist = _near_doc_stats(pa_pos, pb_pos, window)
                if n_near > 0:
                    rows.append((int(ids[d]), n_near, min_dist, int(lens[d])))
        df = pd.DataFrame(rows, columns=["doc_id", "n_near", "min_dist", "n_tokens"]).astype("int64")
        order = np.lexsort((df["doc_id"].to_numpy(), -df["n_near"].to_numpy()))[:k]
        return df.iloc[order]

    parts = ds.map_batches(score_topk, batch_format="pandas").to_pandas()
    empty = pa.table(
        {c: pa.array([], pa.int64()) for c in ("doc_id", "n_near", "min_dist", "n_tokens")}
    )
    if len(parts) == 0:
        return empty
    order = np.lexsort((parts["doc_id"].to_numpy(), -parts["n_near"].to_numpy()))[:k]
    return finish(parts.iloc[order], dtypes="int64")


def near_topk_sql(
    terms: tuple[str, str] = DEFAULT_NEAR, window: int = 4, k: int = 10
) -> str:
    ta, tb = terms
    return f"""
WITH tk AS (
    SELECT doc_id,
           list_filter(string_split_regex(lower(text), '[\\t\\n\\f\\r ]+'), x -> x <> '') AS w
    FROM documents
),
pos AS (
    SELECT doc_id, i AS p, w[i] AS term, CAST(len(w) AS BIGINT) AS n_tokens
    FROM tk, UNNEST(generate_series(1, len(w))) AS u(i)
    WHERE w[i] IN ('{ta}', '{tb}')
),
paired AS (
    SELECT a.doc_id,
           CAST(COUNT(*) FILTER (WHERE ABS(a.p - b.p) <= {window}) AS BIGINT) AS n_near,
           CAST(MIN(ABS(a.p - b.p)) AS BIGINT) AS min_dist,
           ANY_VALUE(a.n_tokens) AS n_tokens
    FROM pos a JOIN pos b ON a.doc_id = b.doc_id
    WHERE a.term = '{ta}' AND b.term = '{tb}'
    GROUP BY a.doc_id
)
SELECT doc_id, n_near, min_dist, n_tokens
FROM paired WHERE n_near > 0
ORDER BY n_near DESC, doc_id
LIMIT {k}
"""


def near_indexed_topk(
    sf_dir: str,
    terms: tuple[str, str] = DEFAULT_NEAR,
    window: int = 4,
    k: int = 10,
) -> pa.Table:
    """NEAR query served FROM THE PERSISTED POSITIONAL INDEX (built/
    cached by :func:`phrase_index_to_parquet` — one index serves
    phrase AND proximity): read only the two probed terms' shards
    with the term filter pushed into the scan, co-locate each
    candidate doc's two position lists in one doc_id co-partition
    round, then the same searchsorted window count as the full-scan
    :func:`near_topk` (tested equal)."""
    import json

    index_dir = _cached_index(sf_dir, "phrase_index", phrase_index_to_parquet)
    with open(os.path.join(index_dir, "_meta.json")) as f:
        meta = json.load(f)
    ta, tb = terms
    post = _probed_postings(
        index_dir, meta["n_shards"], terms, ["term", "doc_id", "positions", "n_tokens"]
    )

    empty = pa.table(
        {c: pa.array([], pa.int64()) for c in ("doc_id", "n_near", "min_dist", "n_tokens")}
    )
    if post is None or post.count() == 0:
        return empty

    def count_near(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for doc_id, r in g.groupby("doc_id", sort=False):
            by_term = {t: np.asarray(ps, dtype=np.int64) for t, ps in zip(r["term"], r["positions"])}
            if ta not in by_term or tb not in by_term:
                continue
            n_near, min_dist = _near_doc_stats(by_term[ta], by_term[tb], window)
            if n_near > 0:
                rows.append((int(doc_id), n_near, min_dist, int(r["n_tokens"].iloc[0])))
        df = pd.DataFrame(rows, columns=["doc_id", "n_near", "min_dist", "n_tokens"]).astype("int64")
        order = np.lexsort((df["doc_id"].to_numpy(), -df["n_near"].to_numpy()))[:k]
        return df.iloc[order]

    parts = (
        co_partition(post, ["doc_id"], count_near)
        .to_pandas()
    )
    if len(parts) == 0:
        return empty
    order = np.lexsort((parts["doc_id"].to_numpy(), -parts["n_near"].to_numpy()))[:k]
    return finish(parts.iloc[order], dtypes="int64")


_REGEX_DEFAULT = "(?:join|merge) (?:sort|agg)"


def text_search_regex(sf_dir: str, pattern: str = _REGEX_DEFAULT) -> pa.Table:
    """Distributed grep: per-doc NON-OVERLAPPING match counts for a
    regex, only docs with at least one hit — the raw-pattern escape
    hatch next to the tokenized BM25/phrase/NEAR family (PII sweeps,
    layout-fragment hunts, exact idiom censuses). Python ``re`` and
    DuckDB RE2 agree on non-overlapping left-to-right scan order for
    the supported syntax (keep to RE2-safe constructs: no
    backreferences/lookarounds); the parity is pinned per-pattern by
    the oracle compare.

    Scale shape: ONE streaming map — the pattern compiles once per
    worker process (module-level cache keyed by pattern, the regex
    sibling of the classifier's worker-global hash cache), text never
    leaves the batch, output is hit-docs only."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def count(batch: pa.Table) -> pa.Table:
        import re as _re

        global _REGEX_CACHE
        try:
            cache = _REGEX_CACHE
        except NameError:
            cache = _REGEX_CACHE = {}
        rx = cache.get(pattern)
        if rx is None:
            rx = cache[pattern] = _re.compile(pattern)
        ids, ns = [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            n = len(rx.findall(text))
            if n:
                ids.append(doc_id)
                ns.append(n)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_matches": pa.array(ns, pa.int64()),
            }
        )

    return finish(
        ds.map_batches(count, batch_format="pyarrow").to_pandas(),
        "doc_id",
        empty=pa.schema({"doc_id": pa.int64(), "n_matches": pa.int64()}),
    )


def text_search_regex_sql(pattern: str = _REGEX_DEFAULT) -> str:
    quoted = pattern.replace("'", "''")
    return f"""
SELECT doc_id,
       CAST(length(regexp_extract_all(text, '{quoted}')) AS BIGINT) AS n_matches
FROM documents
WHERE length(regexp_extract_all(text, '{quoted}')) > 0
ORDER BY doc_id
"""


TEXT_SEARCH_REGEX_SQL = text_search_regex_sql()
