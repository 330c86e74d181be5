"""Hashed-linear text quality classifier — the fasttext-shaped
"model scoring" stage of a training-data pipeline, expressed as a Ray
Data actor-pool map.

The model is a deterministic stand-in (this container has no ML
runtimes): a linear scorer over hashed token buckets whose weights
derive from md5 of the bucket index, so the WHOLE inference pass is
integer-exact and reproduced term for term by a DuckDB oracle
(QUALITY_CLASSIFIER_SQL) — the Ray-side plumbing (weights loaded once
per actor in ``__init__``, vectorized batch scoring in ``__call__``,
actor-pool ``map_batches``) is exactly what a real fasttext/regression
quality model needs; swapping in learned weights changes one
constructor.

Scoring, both engines:
  bucket(token) = md5_number_lower(token) % N_BUCKETS
  weight(b)     = md5_number_lower(str(b)) % 2001 - 1000   in [-1000, 1000]
  score(doc)    = sum over token OCCURRENCES of weight(bucket)
  mean_milli    = (1000*score + 1_000_000*n_tokens) // n_tokens - 1_000_000

The mean uses the positive-shift form because DuckDB ``//`` truncates
toward zero while Python floors: score >= -1000*n_tokens makes the
shifted numerator non-negative, where floor == trunc (the repo-wide
integer-division discipline, see similarity._quantize). Token = the
words-CTE whitespace split shared by the surprisal/token-stats family.
"""
from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from mlscraper_ray.functions.tables import finish, md5_number_lower, read_table

N_BUCKETS = 4096

# worker-process-global word -> 64-bit hash cache (corpus words are
# Zipfian; hash each distinct word once per worker, the dedup
# _word_hashes idiom). The cache stores the RAW hash, not the bucket,
# so stages with different n_buckets share it safely.
_HASH_CACHE: dict[str, int] = {}
_HASH_CACHE_MAX = 2_000_000


def _word_bucket(word: str, n_buckets: int) -> int:
    h = _HASH_CACHE.get(word)
    if h is None:
        if len(_HASH_CACHE) >= _HASH_CACHE_MAX:
            _HASH_CACHE.clear()
        h = _HASH_CACHE[word] = md5_number_lower(word)
    return h % n_buckets


def hashed_weights(n_buckets: int = N_BUCKETS) -> np.ndarray:
    """The deterministic weight vector: weight(b) =
    md5_number_lower(str(b)) % 2001 - 1000."""
    return np.array(
        [
            md5_number_lower(str(b)) % 2001
            - 1000
            for b in range(n_buckets)
        ],
        dtype=np.int64,
    )


class QualityClassifierStage:
    """Actor-pool stage: the weight table is materialized ONCE per
    actor here (the model-load slot); ``__call__`` scores each batch
    with one exploded groupby-sum."""

    def __init__(self, n_buckets: int = N_BUCKETS):
        self.n_buckets = n_buckets
        self.weights = hashed_weights(n_buckets)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids, nt, sc = [], [], []
        w, m = self.weights, self.n_buckets
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            words = text.split()
            if not words:
                continue  # match the SQL words CTE: empty docs absent
            ids.append(doc_id)
            nt.append(len(words))
            sc.append(int(w[[_word_bucket(x, m) for x in words]].sum()))
        n = pd.Series(nt, dtype="int64")
        s = pd.Series(sc, dtype="int64")
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_tokens": n,
                "score": s,
                "mean_milli": (1000 * s + 1_000_000 * n) // n - 1_000_000,
                "keep": s >= 0,
            }
        )


def quality_classifier_ds(docs: ray.data.Dataset, concurrency=(1, 8)) -> ray.data.Dataset:
    return docs.map_batches(
        QualityClassifierStage,
        batch_format="pandas",
        batch_size=256,
        concurrency=concurrency,
    )


def quality_classifier(sf_dir: str) -> pa.Table:
    """Driver-table wrapper for the compare contract; production
    consumers use :func:`quality_classifier_ds` and keep streaming."""
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    out = quality_classifier_ds(docs).to_pandas()
    return finish(out, "doc_id")


QUALITY_CLASSIFIER_SQL = f"""
WITH words AS (
    SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\\s+')) AS word
    FROM documents WHERE trim(text) <> ''
),
scored AS (
    SELECT doc_id,
           CAST(md5_number_lower(CAST(md5_number_lower(word) % {N_BUCKETS} AS VARCHAR)) % 2001 AS BIGINT) - 1000 AS w
    FROM words
)
SELECT doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_tokens,
       CAST(SUM(w) AS BIGINT) AS score,
       CAST((1000 * SUM(w) + 1000000 * COUNT(*)) // COUNT(*) - 1000000 AS BIGINT) AS mean_milli,
       CAST(SUM(w) AS BIGINT) >= 0 AS keep
FROM scored GROUP BY doc_id ORDER BY doc_id
"""
