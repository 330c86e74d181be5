"""Per-document top-k keyword extraction by integer tf-idf.

The classic corpus-statistics keyword signal for web documents:
``score = tf * idf_m`` with ``idf_m = (N * 1000) // df`` (fixed-point
milli idf, the BM25 idf discipline from functions/search.py), ``tf``
the token-occurrence count inside the doc, ``df`` the number of
distinct docs containing the word and ``N`` the count of non-empty
docs. Integer arithmetic end to end, so the whole operator (including
the per-doc top-k cut with its (-score, term) tie rule) hash-matches
the DOC_TFIDF_TOP_TERMS_SQL oracle.

Distributed plan (the doc_unigram_surprisal shape):
  1. per-batch local (doc, word, tf) partials — exact, since a doc's
     text lives in one row;
  2. df per word + N via the coarse-bucket aggregate (no native
     high-cardinality groupby, see functions/bucketed.py);
  3. join-back chosen by ``broadcast.pull`` on the df table: when it
     is pulled, it becomes a word->df dict broadcast with
     ``ray.put`` — scoring AND the per-doc top-k are then one
     streaming pass (each doc's words are local, zero further
     shuffles); when it is too large to pull, tf rows meet the df
     table through the shared partitioned hash join
     (joins.cogroup_join) and the top-k cut happens in a second
     doc-bucket group round (nothing driver-sized). Paths
     bit-identical (tested).
"""
from __future__ import annotations

import heapq
from collections import Counter

import pandas as pd
import pyarrow as pa
import ray.data

from mlscraper_ray.functions import broadcast
from mlscraper_ray.functions.broadcast import cached_object
from mlscraper_ray.functions.bucketed import bucketed_aggregate, co_partition, coalesce_blocks
from mlscraper_ray.functions.sinks import all_shards_done, crc32_shard, write_resumable
from mlscraper_ray.functions.tables import finish, read_table

_OUT_COLS = ("doc_id", "term", "tf", "score")


def _empty_out() -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "term": pa.array([], pa.string()),
            "tf": pa.array([], pa.int64()),
            "score": pa.array([], pa.int64()),
        }
    )


def _doc_tf(batch: pd.DataFrame) -> pd.DataFrame:
    """Local exact (doc_id, word, tf) rows for a batch of docs."""
    ids, words, tfs = [], [], []
    for doc_id, text in zip(batch["doc_id"], batch["text"]):
        c = Counter(text.split())
        ids.extend([doc_id] * len(c))
        words.extend(c.keys())
        tfs.extend(c.values())
    return pd.DataFrame(
        {
            "doc_id": pd.Series(ids, dtype="int64"),
            "word": pd.Series(words, dtype=str),
            "tf": pd.Series(tfs, dtype="int64"),
        }
    )


def _topk_cut(df: pd.DataFrame, k: int) -> pd.DataFrame:
    """Deterministic per-doc top-k: score desc, term lex asc."""
    df = df.sort_values(
        ["doc_id", "score", "term"], ascending=[True, False, True], kind="mergesort"
    )
    return df.groupby("doc_id", sort=False).head(k)


def tfidf_topk_ds(sf_dir: str, k: int = 5) -> ray.data.Dataset:
    """Dataset form of the per-doc tf-idf top-k (columns
    ``doc_id, term, tf, score``, each doc's k rows) — the streaming
    shape production consumers sink (:func:`tfidf_to_parquet`);
    :func:`doc_tfidf_top_terms` is the sorted driver-table wrapper for
    the compare contract."""
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    tf_rows = docs.map_batches(_doc_tf, batch_format="pandas").materialize()
    # df = per-word count of (doc, word) rows; N = distinct non-empty docs
    df_tbl = bucketed_aggregate(tf_rows, ["word"], {"df": ("word", "count")}).materialize()
    # N = docs with at least one token (one doc per input row, so a
    # per-batch vectorized count folds to the exact distinct count)
    n_docs = int(
        docs.map_batches(
            lambda b: pd.DataFrame(
                {"c": pd.Series([int((b["text"].str.strip() != "").sum())], dtype="int64")}
            ),
            batch_format="pandas",
        ).sum("c")
        or 0
    )

    if pulled := broadcast.pull(df_tbl):
        # one streaming score+topk pass over the docs, zero further
        # shuffle rounds
        (dp,) = pulled
        idf = {w: (n_docs * 1000) // int(d) for w, d in zip(dp["word"], dp["df"])}
        idf_ref = ray.put(idf)

        def score(batch: pd.DataFrame) -> pd.DataFrame:
            table = cached_object(idf_ref)
            ids, terms, tfs, scores = [], [], [], []
            for doc_id, text in zip(batch["doc_id"], batch["text"]):
                c = Counter(text.split())
                if not c:
                    continue
                top = heapq.nsmallest(
                    k,
                    ((-tf * table[w], w, tf) for w, tf in c.items()),
                )
                for neg, w, tf in top:
                    ids.append(doc_id)
                    terms.append(w)
                    tfs.append(tf)
                    scores.append(-neg)
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(ids, dtype="int64"),
                    "term": pd.Series(terms, dtype=str),
                    "tf": pd.Series(tfs, dtype="int64"),
                    "score": pd.Series(scores, dtype="int64"),
                }
            )

        return docs.map_batches(score, batch_format="pandas")

    # scale path: tf rows meet the df table through the shared
    # partitioned hash join (one shuffle, vectorized per-bucket
    # merge — see joins.cogroup_join), then the top-k cut runs
    # co-partitioned on doc_id
    from mlscraper_ray.functions.joins import cogroup_join

    total_rows = tf_rows.count()
    joined = cogroup_join(tf_rows, df_tbl, "word")

    def score_rows(df: pd.DataFrame) -> pd.DataFrame:
        tf = df["tf"].astype("int64")
        idf = (n_docs * 1000) // df["df"].astype("int64")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "term": df["word"].astype(str),
                "tf": tf,
                "score": (tf * idf).astype("int64"),
            }
        )

    scored = joined.map_batches(score_rows, batch_format="pandas")
    return co_partition(
        coalesce_blocks(scored, total_rows), ["doc_id"], lambda g: _topk_cut(g, k)[list(_OUT_COLS)]
    )


def doc_tfidf_top_terms(sf_dir: str, k: int = 5) -> pa.Table:
    out = tfidf_topk_ds(sf_dir, k=k).to_pandas()
    if len(out) == 0:
        return _empty_out()
    out = out.sort_values(
        ["doc_id", "score", "term"],
        ascending=[True, False, True],
        ignore_index=True,
        kind="mergesort",
    )
    return finish(out, columns=list(_OUT_COLS))


def tfidf_to_parquet(
    sf_dir: str,
    out_dir: str,
    n_shards: int = 16,
    k: int = 5,
) -> dict:
    """Production sink twin of :func:`doc_tfidf_top_terms`, RESUMABLE
    (functions/sinks.py), sharded by crc32(doc_id) so a doc's k rows
    share a shard. Shard union == the oracle-checked contract table
    (tested)."""
    if all_shards_done(out_dir, n_shards):  # the idf pass runs eagerly
        return {"written": 0, "skipped": n_shards}
    return write_resumable(
        tfidf_topk_ds(sf_dir, k=k),
        crc32_shard("doc_id", n_shards),
        out_dir,
        n_shards,
    )


def doc_tfidf_top_terms_sql(k: int = 5) -> str:
    return f"""
WITH words AS (
    SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\\s+')) AS word
    FROM documents WHERE trim(text) <> ''
),
tf AS (
    SELECT doc_id, word, CAST(COUNT(*) AS BIGINT) AS tf
    FROM words GROUP BY doc_id, word
),
df AS (SELECT word, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY word),
n AS (SELECT CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n FROM words),
scored AS (
    SELECT t.doc_id, t.word AS term, t.tf,
           t.tf * (((SELECT n FROM n) * 1000) // d.df) AS score
    FROM tf t JOIN df d ON d.word = t.word
)
SELECT doc_id, term, tf, CAST(score AS BIGINT) AS score
FROM scored
QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY score DESC, term) <= {k}
ORDER BY doc_id, score DESC, term
"""


DOC_TFIDF_TOP_TERMS_SQL = doc_tfidf_top_terms_sql()
