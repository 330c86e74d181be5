"""Seed-distance BFS over the crawled-corpus link graph.

mlscraper has no counterpart (brief-added web-graph tooling, like
functions/pagerank.py). Distance-from-seeds is the crawl-planning twin
of PageRank: how many link hops separate every page from the seed
manifest — the input a depth-budgeted or freshness-tiered crawl uses
to bound its frontier, and the per-page "discoverability" facet next
to rank mass.

Algorithm: frontier-expansion BFS as iterative Dataset rounds (the
textbook Pregel/MapReduce BFS):

- ``dist`` starts as the seed rows at 0;
- each round joins the CURRENT FRONTIER (nodes first labeled last
  round — not the whole dist table) against the edge list in one
  :func:`~mlscraper_ray.functions.joins.cogroup_join` keyed on src,
  emits (dst, r+1) candidates, and folds them into ``dist`` with one
  coarse-bucket min-aggregate — a node's label only ever comes from
  the first round that reaches it, so the min IS the BFS distance;
- stops when a round labels nothing new (count fixpoint; counts are
  monotone non-decreasing, so the check is exact).

Rounds = eccentricity of the seed set (6-8 on the synthetic corpus;
real web graphs have effective diameter ~6-7, so the round count is a
small constant in practice — ``max_rounds`` fails loud on adversarial
chains rather than spinning). Per round: one shuffle of
O(frontier-adjacent edges) slim string rows + one min-combine, with
the label block count re-bounded every round (the components.py
block-doubling hazard).

Size-guarded driver fast path (the connected-components idiom): an
edge list that ``broadcast.pull`` takes is walked on the driver with a
deque in microseconds instead of paying multi-round shuffle latency;
larger graphs run the distributed loop. Paths are equal by
construction (regression-tested on seeded random digraphs).
"""
from __future__ import annotations

from collections import deque

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from mlscraper_ray.functions import broadcast
from mlscraper_ray.functions.bucketed import bucketed_aggregate, coalesce_blocks
from mlscraper_ray.functions.joins import cogroup_join
from mlscraper_ray.functions.sinks import all_shards_done, crc32_shard, write_resumable
from mlscraper_ray.functions.tables import finish


def bfs_reference(
    seeds: list[str], edges: list[tuple[str, str]]
) -> dict[str, int]:
    """Single-process BFS truth (also the generator-side oracle)."""
    adj: dict[str, list[str]] = {}
    for s, t in edges:
        adj.setdefault(s, []).append(t)
    dist = {s: 0 for s in seeds}
    dq = deque(seeds)
    while dq:
        u = dq.popleft()
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                dq.append(v)
    return dist


def link_distance_ds(
    edges: ray.data.Dataset,
    seeds: list[str],
    max_rounds: int = 64,
) -> ray.data.Dataset:
    """(url, dist) for every node reachable from ``seeds`` over the
    directed ``edges`` Dataset (string columns ``src``, ``dst``).
    Unreachable nodes are absent (a crawler never discovers them).
    Output is partitioning-invariant: the only reduction is a min over
    int64 labels."""
    edges = edges.materialize()  # sized by the pull, then read by every round
    if pulled := broadcast.pull(edges):
        (pdf,) = pulled
        pairs = (
            list(zip(pdf["src"].astype(str), pdf["dst"].astype(str)))
            if len(pdf)
            else []
        )
        dist = bfs_reference(seeds, pairs)
        urls = sorted(dist)
        return ray.data.from_arrow(
            pa.table(
                {
                    "url": pa.array(urls, pa.string()),
                    "dist": pa.array([dist[u] for u in urls], pa.int64()),
                }
            )
        )

    def as_pandas(t: pa.Table) -> pd.DataFrame:
        # uniform pandas blocks: unioning pandas- and arrow-format
        # blocks into one sort crashes Ray's boundary sampler
        return t.to_pandas()

    seed_tbl = pa.table(
        {
            "url": pa.array(seeds, pa.string()),
            "dist": pa.array([0] * len(seeds), pa.int64()),
        }
    )
    dist = ray.data.from_arrow(seed_tbl).map_batches(as_pandas, batch_format="pyarrow")
    frontier = dist
    n_prev = len(seeds)
    label_rows = max(edges.count(), 1)

    for r in range(1, max_rounds + 1):
        cand = cogroup_join(
            frontier.map_batches(
                lambda df: pd.DataFrame({"src": df["url"].astype(str)}),
                batch_format="pandas",
            ),
            edges,
            key="src",
        ).map_batches(
            lambda df, rr=r: pd.DataFrame(
                {"url": df["dst"].astype(str), "dist": np.int64(rr)}
            ),
            batch_format="pandas",
        )
        # bucketed_aggregate already emits pandas blocks (map_groups),
        # matching the union members' format
        dist = bucketed_aggregate(
            coalesce_blocks(dist.union(cand), label_rows),
            ["url"],
            {"dist": ("dist", "min")},
        ).materialize()
        n_now = dist.count()
        if n_now == n_prev:
            return dist
        n_prev = n_now
        frontier = dist.map_batches(
            lambda df, rr=r: df[df["dist"] == rr], batch_format="pandas"
        )
    raise RuntimeError(
        f"BFS did not converge in {max_rounds} rounds — seed eccentricity "
        "exceeds max_rounds (raise it for adversarially deep graphs)"
    )


def link_distance_to_parquet(
    sf_dir: str,
    out_dir: str,
    n_shards: int = 16,
    max_rounds: int = 64,
) -> dict:
    """Production sink twin of :func:`link_distance_from_seeds`,
    RESUMABLE (functions/sinks.py): the (url, dist) manifest is
    sharded by crc32(url). Returns {"written": n, "skipped": n}."""
    import os as _os

    from mlscraper_ray.functions.pagerank import corpus_link_graph
    from mlscraper_ray.pipelines.crawl_pipeline import corpus_for_sf, sf_of_dir

    if all_shards_done(out_dir, n_shards):  # the BFS runs eagerly
        return {"written": 0, "skipped": n_shards}

    corpus_dir, _spec = corpus_for_sf(sf_of_dir(sf_dir))
    seeds = (
        ray.data.read_parquet(
            _os.path.join(corpus_dir, "seeds.parquet"), columns=["url"]
        )
        .to_pandas()["url"]
        .astype(str)
        .tolist()
    )
    _nodes, edges = corpus_link_graph(sf_dir)
    dist = link_distance_ds(edges, seeds, max_rounds=max_rounds)
    return write_resumable(dist, crc32_shard("url", n_shards), out_dir, n_shards)


def link_distance_from_seeds(sf_dir: str, max_rounds: int = 64) -> pa.Table:
    """Registry contract: BFS distance from the corpus's own seed
    manifest (seeds.parquet, the crawl's depth-0 rows) over the cached
    link graph (:func:`~mlscraper_ray.functions.pagerank.corpus_link_graph`
    — shared with the five other graph consumers, so a registry pass
    parses the corpus once). Returns (url, dist) ordered by url."""
    import os

    from mlscraper_ray.functions.pagerank import corpus_link_graph
    from mlscraper_ray.pipelines.crawl_pipeline import corpus_for_sf, sf_of_dir

    corpus_dir, _spec = corpus_for_sf(sf_of_dir(sf_dir))
    seeds = (
        ray.data.read_parquet(os.path.join(corpus_dir, "seeds.parquet"), columns=["url"])
        .to_pandas()["url"]
        .astype(str)
        .tolist()
    )
    _nodes, edges = corpus_link_graph(sf_dir)
    return finish(
        link_distance_ds(edges, seeds, max_rounds=max_rounds).to_pandas(),
        "url",
        columns=["url", "dist"],
        dtypes={"dist": "int64"},
    )
