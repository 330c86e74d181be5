"""Connected components over near-duplicate pair graphs, and the
canonical-document manifest built on top.

A pair stage (minhash/simhash/ngram/embedding) emits EDGES; an actual
dedup pass needs CLUSTERS — every doc labeled with its component's
minimum doc_id — and then the keep-list (one canonical doc per
cluster). The reference has no counterpart (mlscraper never dedups;
this is brief-added training-data tooling, like functions/dedup.py).

Algorithm: iterative min-label propagation ("hash-to-min"), the
standard MapReduce connected-components formulation:

- label(node) starts as min(node, min neighbor);
- each round every node offers its label to all neighbors and keeps
  the minimum seen; labels are monotonically non-increasing ints, so
  a global SUM(label) — one cheap distributed aggregate — detects the
  fixpoint exactly (sum unchanged <=> no label changed).
- each round is one bucketed cogroup join (edges x labels, slim int64
  rows) plus one bucketed min-aggregate: two shuffles of
  O(edges + nodes) integers, nothing driver-sized anywhere.

Rounds needed = graph diameter. PARTITIONING / SHAPE ASSUMPTION: the
near-dup graphs this feeds on are unions of small dense cliques and
stars (LSH buckets; the hot-bucket guard in dedup.py emits stars by
construction), so diameter is tiny (<= ~3 observed; star = 2) and the
loop converges in a handful of rounds. A pathological path graph of
length L needs L rounds — ``max_iters`` makes that fail loud rather
than spin. Labels-only state is materialized between rounds (slim
(node, label) int64 rows), mirroring the kmeans iteration pattern in
functions/similarity.py.
"""
from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from mlscraper_ray.functions import broadcast
from mlscraper_ray.functions.broadcast import cached_object

from mlscraper_ray.functions.bucketed import bucketed_aggregate
from mlscraper_ray.functions.dedup import MINHASH_DEDUP_SQL, minhash_verified_pairs
from mlscraper_ray.functions.joins import cogroup_join
from mlscraper_ray.functions.tables import finish, read_table


def connected_components(
    edges: ray.data.Dataset, max_iters: int = 50
) -> ray.data.Dataset:
    """Min-label connected components.

    ``edges``: Dataset with int64 columns ``u``, ``v`` — each
    undirected edge once, self-loops allowed (ignored by min()).
    Returns a Dataset ``(node, label)`` covering every node that
    appears in any edge; ``label`` is the component's minimum node id.
    Output is partitioning-invariant: every reduction is a min over
    int64, associative and commutative.

    Two paths, picked by ``broadcast.pull`` on the edges: edges small
    enough to pull (for near-dup graphs the verified pair set is tiny
    relative to the corpus) run union-find on the driver in
    microseconds instead of paying multi-round shuffle latency; larger
    graphs run the distributed label-propagation loop below. Paths are
    equal by construction (regression-tested).
    """
    edges = edges.materialize()  # sized by the pull, then read by either path
    if pulled := broadcast.pull(edges):
        (pdf,) = pulled
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in zip(pdf["u"].astype("int64"), pdf["v"].astype("int64")):
            ru, rv = find(int(u)), find(int(v))
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
        nodes = sorted(parent)
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "label": pa.array([find(n) for n in nodes], pa.int64()),
                }
            )
        )
    # Ray's sort-based groupby emits ~one reduce partition per INPUT
    # block, so feeding round k's output (plus the propagate union)
    # straight into round k+1 DOUBLES the label block count every
    # round (measured: 1,3,7,15,... blocks; per-round wall time
    # doubles with it). Coalesce labels to a bounded block count after
    # every aggregate — shuffle=False merges blocks locally, no
    # all-to-all — sized at ~1M slim (node,label) rows per block.
    label_blocks = max(4, min(512, (2 * edges.count()) // 1_000_000 + 1))

    def symmetrize(t: pa.Table) -> pa.Table:
        u = pc.cast(t["u"], pa.int64()).combine_chunks().to_numpy(zero_copy_only=False)
        v = pc.cast(t["v"], pa.int64()).combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": pa.array(np.concatenate([u, v]), pa.int64()),
                "nbr": pa.array(np.concatenate([v, u]), pa.int64()),
            }
        )

    # materialized once: re-read every round by the propagate join
    sym = edges.map_batches(symmetrize, batch_format="pyarrow").materialize()

    def seed(t: pa.Table) -> pa.Table:
        node = t["node"].combine_chunks().to_numpy(zero_copy_only=False)
        nbr = t["nbr"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "cand": pa.array(np.minimum(node, nbr), pa.int64()),
            }
        )

    labels = (
        bucketed_aggregate(
            sym.map_batches(seed, batch_format="pyarrow"),
            ["node"],
            {"label": ("cand", "min")},
        )
        .repartition(label_blocks, shuffle=False)
        .materialize()
    )
    prev_sum = labels.sum("label")

    for _ in range(max_iters):
        # pointer jumping: besides the real edges, propagate across
        # (node <-> current label) edges. A label edge contracts the
        # path to the component minimum, so a node at distance d
        # converges in O(log d) rounds instead of d — the diameter
        # assumption above becomes a log. Label edges never leave a
        # component, so the fixpoint (label = component min) is
        # unchanged.
        def label_edges(t: pa.Table) -> pa.Table:
            node = pc.cast(t["node"], pa.int64()).combine_chunks().to_numpy(zero_copy_only=False)
            lbl = pc.cast(t["label"], pa.int64()).combine_chunks().to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "node": pa.array(np.concatenate([node, lbl]), pa.int64()),
                    "nbr": pa.array(np.concatenate([lbl, node]), pa.int64()),
                }
            )

        lbl_edges = labels.map_batches(label_edges, batch_format="pyarrow")
        joined = cogroup_join(sym.union(lbl_edges), labels, "node")
        prop = joined.map_batches(
            lambda t: pa.table(
                {
                    "node": pc.cast(t["nbr"], pa.int64()),
                    "cand": pc.cast(t["label"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        keep = labels.map_batches(
            lambda t: pa.table(
                {
                    "node": pc.cast(t["node"], pa.int64()),
                    "cand": pc.cast(t["label"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        labels = (
            bucketed_aggregate(
                prop.union(keep),
                ["node"],
                {"label": ("cand", "min")},
            )
            .repartition(label_blocks, shuffle=False)
            .materialize()
        )
        new_sum = labels.sum("label")
        if new_sum == prev_sum:
            return labels
        prev_sum = new_sum
    raise RuntimeError(
        f"connected_components did not converge in {max_iters} rounds "
        "(graph diameter exceeds the bound this operator is designed "
        "for — near-dup graphs are cliques/stars; see module docstring)"
    )


def neardup_clusters(sf_dir: str, threshold_pct: int = 70) -> pa.Table:
    """Cluster assignment for every document that has at least one
    verified minhash near-duplicate: ``(doc_id, cluster_id)`` with
    cluster_id = the component's minimum doc_id. Pairs stay a Dataset
    end to end (:func:`minhash_verified_pairs`); only the final
    cluster table (one slim row per CLUSTERED doc, not per doc) is
    pulled for the driver-compare contract."""
    pairs = minhash_verified_pairs(sf_dir, threshold_pct=threshold_pct)

    def as_edges(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": pc.cast(t["doc_a"], pa.int64()),
                "v": pc.cast(t["doc_b"], pa.int64()),
            }
        )

    edges = pairs.map_batches(as_edges, batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
        )
    labels = connected_components(edges)
    out = labels.to_pandas().rename(columns={"node": "doc_id", "label": "cluster_id"})
    return finish(out, "doc_id", dtypes="int64")


def corpus_dedup_canonical(sf_dir: str, threshold_pct: int = 70) -> pa.Table:
    """Near-dup dedup manifest: the doc_ids that SURVIVE keeping one
    canonical doc (the minimum doc_id) per near-duplicate cluster —
    i.e. all docs minus cluster members whose id isn't the cluster
    minimum.

    Anti-join path picked by ``broadcast.pull`` on the loser table:
    losers small enough to pull broadcast once as an is_in filter;
    otherwise a bucketed cogroup left-join marks losers and keeps
    null-marker rows — nothing driver-sized anywhere."""
    pairs = minhash_verified_pairs(sf_dir, threshold_pct=threshold_pct)

    def as_edges(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": pc.cast(t["doc_a"], pa.int64()),
                "v": pc.cast(t["doc_b"], pa.int64()),
            }
        )

    docs = read_table(sf_dir, "documents", ["doc_id"])
    edges = pairs.map_batches(as_edges, batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return finish(docs.to_pandas(), "doc_id")

    labels = connected_components(edges)

    def keep_losers(t: pa.Table) -> pa.Table:
        node = pc.cast(t["node"], pa.int64())
        mask = pc.not_equal(node, pc.cast(t["label"], pa.int64()))
        return pa.table({"loser": pc.filter(node, mask)})

    losers = labels.map_batches(keep_losers, batch_format="pyarrow").materialize()

    if pulled := broadcast.pull(losers):
        loser_ids = pulled[0]["loser"].to_numpy()
        loser_ref = ray.put(pa.array(np.sort(loser_ids), pa.int64()))

        def anti(batch: pa.Table) -> pa.Table:
            ls = cached_object(loser_ref)
            return batch.filter(pc.invert(pc.is_in(batch["doc_id"], value_set=ls)))

        out = docs.map_batches(anti, batch_format="pyarrow").to_pandas()
    else:
        left = docs.map_batches(
            lambda t: pa.table({"key": t["doc_id"], "doc_id": t["doc_id"]}),
            batch_format="pyarrow",
        )
        right = losers.map_batches(
            lambda t: pa.table(
                {"key": t["loser"], "__is_loser": pa.array([1] * t.num_rows, pa.int8())}
            ),
            batch_format="pyarrow",
        )
        joined = cogroup_join(left, right, "key", how="left")

        def keep_anti(df: pd.DataFrame) -> pd.DataFrame:
            keep = df[df["__is_loser"].isna()]
            return pd.DataFrame({"doc_id": keep["doc_id"].astype("int64")})

        out = joined.map_batches(keep_anti, batch_format="pandas").to_pandas()

    return finish(out, "doc_id")


# DuckDB oracles: transitive closure by recursive CTE over the SAME
# exhaustive O(n^2) pair join that oracles minhash_dedup — so the
# cluster check also re-verifies LSH recall end to end. reach(a, b)
# enumerates every ordered reachable pair; the component minimum is
# LEAST(a, MIN(b)).
_CLUSTERS_CTES = f"""
WITH RECURSIVE
pairs AS (SELECT doc_a, doc_b FROM ({MINHASH_DEDUP_SQL.rstrip()}) __mh),
edges AS (
    SELECT doc_a AS u, doc_b AS v FROM pairs
    UNION
    SELECT doc_b, doc_a FROM pairs
),
reach(a, b) AS (
    SELECT u, v FROM edges
    UNION
    SELECT r.a, e.v FROM reach r JOIN edges e ON r.b = e.u
),
clusters AS (
    SELECT a AS doc_id, LEAST(a, MIN(b)) AS cluster_id FROM reach GROUP BY a
)
"""

NEARDUP_CLUSTERS_SQL = (
    _CLUSTERS_CTES + "SELECT doc_id, cluster_id FROM clusters ORDER BY doc_id"
)

CORPUS_DEDUP_CANONICAL_SQL = _CLUSTERS_CTES + """
SELECT d.doc_id
FROM documents d
WHERE NOT EXISTS (
    SELECT 1 FROM clusters c
    WHERE c.doc_id = d.doc_id AND c.cluster_id <> c.doc_id
)
ORDER BY d.doc_id
"""


def winnow_clusters(sf_dir: str, min_shared: int = 3) -> pa.Table:
    """Cluster assignment over the WINNOWING similarity graph — the
    same distributed min-label propagation as :func:`neardup_clusters`
    fed by :func:`winnow_neardup_pairs_ds` (pairs stay a Dataset end
    to end). Returns (doc_id, cluster_id), cluster_id = component
    minimum, one slim row per clustered doc."""
    from mlscraper_ray.functions.dedup import winnow_neardup_pairs_ds

    pairs = winnow_neardup_pairs_ds(sf_dir, min_shared=min_shared)

    def as_edges(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": pc.cast(t["doc_a"], pa.int64()),
                "v": pc.cast(t["doc_b"], pa.int64()),
            }
        )

    edges = pairs.map_batches(as_edges, batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
        )
    labels = connected_components(edges)
    out = labels.to_pandas().rename(columns={"node": "doc_id", "label": "cluster_id"})
    return finish(out, "doc_id", dtypes="int64")


def winnow_clusters_sql(min_shared: int = 3) -> str:
    """Recursive-CTE transitive closure over the winnow pair join —
    the same reach/clusters tail as NEARDUP_CLUSTERS_SQL with the
    MOSS pair source swapped in."""
    from mlscraper_ray.functions.dedup import winnow_neardup_pairs_sql

    return f"""
WITH RECURSIVE
pairs AS (SELECT doc_a, doc_b FROM ({winnow_neardup_pairs_sql(min_shared=min_shared).rstrip()}) __wp),
edges AS (
    SELECT doc_a AS u, doc_b AS v FROM pairs
    UNION
    SELECT doc_b, doc_a FROM pairs
),
reach(a, b) AS (
    SELECT u, v FROM edges
    UNION
    SELECT r.a, e.v FROM reach r JOIN edges e ON r.b = e.u
),
clusters AS (
    SELECT a AS doc_id, LEAST(a, MIN(b)) AS cluster_id FROM reach GROUP BY a
)
SELECT doc_id, cluster_id FROM clusters ORDER BY doc_id
"""


def simhash_clusters(sf_dir: str, max_hamming: int = 3) -> pa.Table:
    """Cluster assignment for every document with at least one
    simhash near-duplicate (Hamming <= ``max_hamming``):
    ``(doc_id, cluster_id)``, cluster_id = the component minimum —
    the simhash-family twin of :func:`neardup_clusters` (minhash) and
    :func:`winnow_clusters` (winnowing), so all three fingerprint
    families expose the same dedup-manifest surface. Pairs come from
    the banded simhash plan (coarse-bucketed, recall-complete by
    pigeonhole); the verified pair set is near-dup-sized, so the
    size-guarded components fold applies unchanged."""
    from mlscraper_ray.functions.dedup import simhash_neardup_pairs

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    pairs = simhash_neardup_pairs(docs, max_hamming=max_hamming)
    if pairs.num_rows == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
        )
    edges = ray.data.from_arrow(
        pa.table(
            {
                "u": pc.cast(pairs["doc_a"], pa.int64()),
                "v": pc.cast(pairs["doc_b"], pa.int64()),
            }
        )
    )
    labels = connected_components(edges)
    out = labels.to_pandas().rename(columns={"node": "doc_id", "label": "cluster_id"})
    return finish(out, "doc_id", dtypes="int64")


def simhash_clusters_sql() -> str:
    from mlscraper_ray.functions.dedup import SIMHASH_PAIRS_SQL

    return f"""
WITH RECURSIVE
pairs AS (SELECT doc_a, doc_b FROM ({SIMHASH_PAIRS_SQL.rstrip()}) __sh),
edges AS (
    SELECT doc_a AS u, doc_b AS v FROM pairs
    UNION
    SELECT doc_b, doc_a FROM pairs
),
reach(a, b) AS (
    SELECT u, v FROM edges
    UNION
    SELECT r.a, e.v FROM reach r JOIN edges e ON r.b = e.u
),
clusters AS (
    SELECT a AS doc_id, LEAST(a, MIN(b)) AS cluster_id FROM reach GROUP BY a
)
SELECT doc_id, cluster_id FROM clusters ORDER BY doc_id
"""
