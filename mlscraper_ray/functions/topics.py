"""Text topic clustering WITHOUT embeddings: hashed bag-of-words
integer features + the repo's integer-exact distributed Lloyd's
k-means — the corpus-organization operator for pipelines that have no
embedding column yet (cluster-then-sample curation, per-topic data
cards, SemDeDup-style bounding for text).

Features: dimension = ``tables.md5_number_lower(word) % dim``, value =
the word's count in the doc. Counts are already integers, so no
fixed-point quantization is needed. Training is
``similarity._lloyd_int_fit`` over these features (md5-ordered init,
nearest-centroid assignment with lowest-cluster ties, floor-div
centroid update, empty clusters keeping their prior centroid), and the
final pass is ``similarity._int_assign``; the oracle re-derives the
features and reuses the same chained-CTE Lloyd layers
(``similarity._lloyd_sql``), so it checks every iteration and the
final assignment in one SQL statement.

Scale shape: one feature pass per iteration over the documents
(per-batch hashing + partial (cluster, count, vec_sum) folds);
centroids are k x dim ints, broadcast via ``ray.put``.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from mlscraper_ray.functions.similarity import (
    _init_ids_sql,
    _int_assign,
    _lloyd_int_fit,
    _lloyd_sql,
    _nearest_sql,
    _with,
)
from mlscraper_ray.functions.tables import finish, md5_number_lower

TOPIC_DIM = 32
TOPIC_CLUSTERS = 8
TOPIC_ITERS = 3

_DOCUMENTS = ("documents", "doc_id", ["doc_id", "text"])


def _doc_features(dim: int):
    """``features(batch) -> (doc_id, counts)``: each doc's word counts
    over ``dim`` hashed dimensions."""

    def features(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        x = np.zeros((len(ids), dim), dtype=np.int64)
        for i, t in enumerate(batch["text"].to_pylist()):
            for w in (t or "").split():
                x[i, md5_number_lower(w) % dim] += 1
        return ids, x

    return features


def doc_topic_clusters(
    sf_dir: str,
    n_clusters: int = TOPIC_CLUSTERS,
    n_iters: int = TOPIC_ITERS,
    dim: int = TOPIC_DIM,
) -> pa.Table:
    """(doc_id, cluster, dist2) over hashed bag-of-words features;
    dist2 is the exact integer squared distance to the final centroid.
    Empty docs carry the zero vector and cluster like any other row."""
    features = _doc_features(dim)
    centroids = _lloyd_int_fit(sf_dir, _DOCUMENTS, features, n_clusters, n_iters)
    return _int_assign(sf_dir, _DOCUMENTS, features, centroids, ["cluster"])


def doc_topic_clusters_sql(
    n_clusters: int = TOPIC_CLUSTERS,
    n_iters: int = TOPIC_ITERS,
    dim: int = TOPIC_DIM,
) -> str:
    ctes = [
        r"""words AS MATERIALIZED (
    SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS word
    FROM documents WHERE trim(text) <> ''
)""",
        f"""wd AS MATERIALIZED (
    SELECT doc_id, CAST(md5_number_lower(word) % {dim} AS INTEGER) AS dim,
           COUNT(*) AS cnt
    FROM words GROUP BY doc_id, md5_number_lower(word) % {dim}
)""",
        f"""grid AS (
    SELECT d.doc_id, g.i AS dim
    FROM documents d, generate_series(0, {dim - 1}) g(i)
)""",
        """q AS MATERIALIZED (
    SELECT grid.doc_id AS vec_id,
           list(CAST(COALESCE(wd.cnt, 0) AS BIGINT) ORDER BY grid.dim) AS v
    FROM grid LEFT JOIN wd ON wd.doc_id = grid.doc_id AND wd.dim = grid.dim
    GROUP BY grid.doc_id
)""",
        _init_ids_sql("documents", "doc_id"),
    ]
    ctes += _lloyd_sql("q", n_clusters, n_iters, dim)
    ctes.append(_nearest_sql("asg", "q", f"c{n_iters}f"))
    return _with(ctes, "SELECT vec_id AS doc_id, c AS cluster, d2 AS dist2 FROM asg\nORDER BY doc_id")


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

    The cut runs on the assignment table :func:`doc_topic_clusters`
    already returns: one row per doc, so it needs no further pass."""
    df = doc_topic_clusters(sf_dir, n_clusters=n_clusters, n_iters=n_iters, dim=dim).to_pandas()
    df["rk"] = [hashlib.md5(str(d).encode()).hexdigest() for d in df["doc_id"]]
    kept = df.sort_values(["cluster", "rk", "doc_id"]).groupby("cluster").head(per_cluster).index
    df["keep"] = df.index.isin(kept)
    return finish(
        df,
        "doc_id",
        columns=["doc_id", "cluster", "keep"],
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
