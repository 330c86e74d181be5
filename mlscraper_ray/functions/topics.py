"""Text topic clustering WITHOUT embeddings: hashed bag-of-words
integer features + the repo's integer-exact distributed Lloyd's
k-means — the corpus-organization operator for pipelines that have no
embedding column yet (cluster-then-sample curation, per-topic data
cards, SemDeDup-style bounding for text).

Features: dimension = md5_number_lower(word) % dim (the repo's
DuckDB/Python md5 pairing — ``int.from_bytes(md5(w).digest()[8:],
"little")``), value = the word's count in the doc. Counts are already
integers, so no fixed-point quantization is needed and every
per-iteration reduction is an exact int sum; the whole iterative
algorithm (md5-ordered init, argmin assignment with lowest-cluster
ties, floor-div centroid update, empty clusters keeping their prior
centroid) reuses the ``similarity.py`` k-means discipline and its
shared chained-CTE Lloyd layers, so the oracle re-derives features +
every iteration + the final assignment in one SQL statement.

Scale shape: one feature pass per iteration over the documents
(per-batch hashing + partial (cluster, count, vec_sum) folds — the
``kmeans_int_fit`` plan); nothing corpus-sized ever reaches the
driver (centroids are k x dim ints, broadcast via ``ray.put``).
"""
from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from mlscraper_ray.functions.similarity import (
    _init_cents_sql,
    _int_dist2,
    _int_dist2_sql,
    _lloyd_layer_sql,
    _md5_sample_ids,
)
from mlscraper_ray.functions.tables import finish, read_table

TOPIC_DIM = 32
TOPIC_CLUSTERS = 8
TOPIC_ITERS = 3


def _word_dim(word: str, dim: int) -> int:
    return int.from_bytes(hashlib.md5(word.encode()).digest()[8:], "little") % dim


def _doc_features(texts, dim: int) -> np.ndarray:
    out = np.zeros((len(texts), dim), dtype=np.int64)
    for i, t in enumerate(texts):
        for w in (t or "").split():
            out[i, _word_dim(w, dim)] += 1
    return out


def doc_topic_clusters(
    sf_dir: str,
    n_clusters: int = TOPIC_CLUSTERS,
    n_iters: int = TOPIC_ITERS,
    dim: int = TOPIC_DIM,
) -> pa.Table:
    """(doc_id, cluster, dist2) over hashed bag-of-words features;
    dist2 is the exact integer squared distance to the final centroid.
    Empty docs carry the zero vector and cluster like any other row."""
    init_ids = sorted(_md5_sample_ids(sf_dir, "documents", "doc_id", n_clusters))

    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    dset = pads.dataset(os.path.join(sf_dir, "documents.parquet"))
    t = dset.to_table(columns=["doc_id", "text"], filter=pc.field("doc_id").isin(init_ids))
    by_id = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    centroids = _doc_features([by_id[i] for i in init_ids], dim)

    ds = read_table(sf_dir, "documents", ["doc_id", "text"]).materialize()

    for _ in range(n_iters):
        cents_ref = ray.put(centroids)

        def partial(batch: pa.Table) -> pa.Table:
            cents = ray.get(cents_ref)
            ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
            x = _doc_features(batch["text"].to_pylist(), dim)
            d2 = _int_dist2(x, cents)
            assign = np.argmin(d2, axis=1)
            rows = {"cluster": [], "count": [], "vec_sum": []}
            for c in np.unique(assign):
                members = x[assign == c]
                rows["cluster"].append(int(c))
                rows["count"].append(int(len(members)))
                rows["vec_sum"].append(members.sum(axis=0).tolist())
            return pa.table(
                {
                    "cluster": pa.array(rows["cluster"], pa.int32()),
                    "count": pa.array(rows["count"], pa.int64()),
                    "vec_sum": pa.array(rows["vec_sum"], pa.list_(pa.int64())),
                }
            )

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        new_centroids = centroids.copy()
        for c, sub in parts.groupby("cluster", sort=True):
            total = int(sub["count"].sum())
            if total > 0:
                s = np.sum(
                    np.stack([np.asarray(v, dtype=np.int64) for v in sub["vec_sum"]]),
                    axis=0,
                )
                new_centroids[c] = s // total  # all-positive: floor == trunc
        centroids = new_centroids

    cents_ref = ray.put(centroids)

    def assign_batch(batch: pa.Table) -> pa.Table:
        cents = ray.get(cents_ref)
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        x = _doc_features(batch["text"].to_pylist(), dim)
        d2 = _int_dist2(x, cents)
        assign = np.argmin(d2, axis=1)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "cluster": pa.array(assign.astype(np.int32)),
                "dist2": pa.array(d2[np.arange(len(ids)), assign].astype(np.int64)),
            }
        )

    return finish(
        ds.map_batches(assign_batch, batch_format="pyarrow").to_pandas(),
        "doc_id",
    )


def doc_topic_clusters_sql(
    n_clusters: int = TOPIC_CLUSTERS,
    n_iters: int = TOPIC_ITERS,
    dim: int = TOPIC_DIM,
) -> str:
    header = rf"""WITH words AS MATERIALIZED (
    SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS word
    FROM documents WHERE trim(text) <> ''
),
wd AS MATERIALIZED (
    SELECT doc_id, CAST(md5_number_lower(word) % {dim} AS INTEGER) AS dim,
           COUNT(*) AS cnt
    FROM words GROUP BY doc_id, md5_number_lower(word) % {dim}
),
grid AS (
    SELECT d.doc_id, g.i AS dim
    FROM documents d, generate_series(0, {dim - 1}) g(i)
),
q AS MATERIALIZED (
    SELECT grid.doc_id AS vec_id,
           list(CAST(COALESCE(wd.cnt, 0) AS BIGINT) ORDER BY grid.dim) AS v
    FROM grid LEFT JOIN wd ON wd.doc_id = grid.doc_id AND wd.dim = grid.dim
    GROUP BY grid.doc_id
),
init_ids AS (
    SELECT doc_id AS vec_id FROM (
        SELECT doc_id,
               ROW_NUMBER() OVER (ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rk
        FROM documents
    ) WHERE rk <= {n_clusters}
),
"""
    parts = [header + _init_cents_sql(qname="q")]
    for it in range(n_iters):
        parts.append(_lloyd_layer_sql(it, dim, qname="q"))
    d_final = _int_dist2_sql("q.v", f"c{n_iters}f.v")
    parts.append(
        f"""
SELECT vec_id AS doc_id, c AS cluster, d2 AS dist2 FROM (
    SELECT q.vec_id, c{n_iters}f.c, {d_final} AS d2,
           ROW_NUMBER() OVER (PARTITION BY q.vec_id
                              ORDER BY {d_final}, c{n_iters}f.c) AS rn
    FROM q CROSS JOIN c{n_iters}f
) WHERE rn = 1
ORDER BY doc_id"""
    )
    return "".join(parts)


def corpus_cluster_sample(
    sf_dir: str,
    per_cluster: int = 32,
    n_clusters: int = TOPIC_CLUSTERS,
    n_iters: int = TOPIC_ITERS,
    dim: int = TOPIC_DIM,
) -> pa.Table:
    """Cluster-balanced corpus sampling — the diversity-preserving
    selector topic clusters exist for (cluster-then-sample curation:
    a uniform sample over a skewed corpus oversamples the dominant
    template; quota-per-topic keeps the tail): per topic cluster keep
    the ``per_cluster`` docs with the smallest md5(doc_id) rank
    (seedless, rerun-stable — the repo's sampling convention). Emits
    (doc_id, cluster, keep) for every doc.

    One streaming assignment pass over the trained centroids (the
    ``doc_topic_clusters`` plan) plus a per-cluster rank cut — the
    cut folds as per-batch partial top-``per_cluster`` rows per
    cluster (bounded: k x per_cluster leave each task), so nothing
    corpus-sized reaches the driver; the keep flag broadcasts back as
    a tiny id set."""
    assigned = doc_topic_clusters(
        sf_dir, n_clusters=n_clusters, n_iters=n_iters, dim=dim
    )
    ds = ray.data.from_arrow(assigned)

    def partial_cut(batch: pd.DataFrame) -> pd.DataFrame:
        df = batch.copy()
        df["rk"] = [
            hashlib.md5(str(d).encode()).hexdigest() for d in df["doc_id"]
        ]
        return (
            df.sort_values(["cluster", "rk", "doc_id"])
            .groupby("cluster", sort=False)
            .head(per_cluster)[["doc_id", "cluster", "rk"]]
        )

    cut = (
        ds.map_batches(partial_cut, batch_format="pandas")
        .to_pandas()
        .sort_values(["cluster", "rk", "doc_id"])
        .groupby("cluster", sort=False)
        .head(per_cluster)
    )
    keep_ids = frozenset(cut["doc_id"])
    k_ref = ray.put(keep_ids)

    def flag(batch: pd.DataFrame) -> pd.DataFrame:
        from mlscraper_ray.functions.broadcast import cached_object

        k = cached_object(k_ref)
        out = batch[["doc_id", "cluster"]].copy()
        out["keep"] = [int(d in k) for d in batch["doc_id"]]
        return out

    return finish(
        ds.map_batches(flag, batch_format="pandas").to_pandas(),
        "doc_id",
        dtypes={"doc_id": "int64", "cluster": "int32", "keep": "int64"},
    )


def corpus_cluster_sample_sql(
    per_cluster: int = 32,
    n_clusters: int = TOPIC_CLUSTERS,
    n_iters: int = TOPIC_ITERS,
    dim: int = TOPIC_DIM,
) -> str:
    base = doc_topic_clusters_sql(n_clusters=n_clusters, n_iters=n_iters, dim=dim)
    return f"""WITH assigned AS MATERIALIZED (
{base}
)
SELECT doc_id, cluster,
       CAST(CASE WHEN ROW_NUMBER() OVER (
                PARTITION BY cluster
                ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id)
              <= {per_cluster} THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM assigned
ORDER BY doc_id
"""
