"""HITS hubs-and-authorities over the crawled-corpus link graph
(public method: Kleinberg 1999, "Authoritative sources in a
hyperlinked environment") — the second classic link-quality signal
next to PageRank, and the one that separates *pages that point well*
(hubs) from *pages worth pointing at* (authorities).

All arithmetic is INTEGER fixed-point like functions/pagerank.py:
scores in units of ``scale=10^5``, every reduction an int sum or max
(associative + commutative), normalization by the exact distributed
MAX with floor division — so the iterative algorithm is
order-independent and bit-reproducible by the single-process
:func:`hits_reference` loop, which also renders the truth oracle from
the corpus generator's own link records (independent of the parse /
link-extraction path).

Per iteration (mutual recursion, max-normalized):

    a_raw(v) = sum(hub(u) for u -> v);   auth(v) = (a_raw(v) * scale) // max(1, max a_raw)
    h_raw(u) = sum(auth(v) for u -> v);  hub(u)  = (h_raw(u) * scale) // max(1, max h_raw)

Distributed plan (the pagerank_ds idiom): the graph is built once by
:func:`~mlscraper_ray.functions.pagerank.corpus_link_graph`; each
half-step is ONE bucket-cogroup (scores meet edges on the propagating
endpoint) + one coarse-bucket sum with zero-seed rows carrying every
node through, blocks coalesced per round (Ray's sort groupby
otherwise doubles block count every feedback round); the
normalization max is the only driver scalar per half-step. Scale
choice bounds the graph: ``max_raw * scale`` must stay under 2^63 —
with scale=10^5 that admits raw sums (≈ in-degree × scale) up to
~9·10^13, i.e. in-degrees to ~9·10^8; the update asserts the exact
pre-multiply bound at runtime so an infeasible pair fails loudly
(same guard discipline as pagerank_ds). A size-guarded driver fast
path (``broadcast.pull``) mirrors pagerank's; both paths are
bit-identical (tested with the pull cap at 0).
"""
from __future__ import annotations

from collections import defaultdict

import pandas as pd
import pyarrow as pa
import ray
import ray.data

from mlscraper_ray.functions import broadcast
from mlscraper_ray.functions.bucketed import bucketed_aggregate, co_partition, coalesce_blocks
from mlscraper_ray.functions.pagerank import corpus_link_graph
from mlscraper_ray.functions.tables import finish

SCALE = 10**5


def hits_reference(
    nodes: list[str],
    edges: list[tuple[str, str]],
    n_iters: int = 4,
    scale: int = SCALE,
) -> dict[str, tuple[int, int]]:
    """Single-process integer loop — the driver fast path AND the
    truth-oracle generator. Returns {node: (hub, auth)}."""
    by_src: dict[str, list[str]] = defaultdict(list)
    by_dst: dict[str, list[str]] = defaultdict(list)
    for s, d in edges:
        by_src[s].append(d)
        by_dst[d].append(s)
    hub = {u: scale for u in nodes}
    auth = {u: 0 for u in nodes}
    for _ in range(n_iters):
        a_raw = {u: sum(hub[s] for s in by_dst[u]) for u in nodes}
        m = max(1, max(a_raw.values(), default=0))
        auth = {u: (a_raw[u] * scale) // m for u in nodes}
        h_raw = {u: sum(auth[d] for d in by_src[u]) for u in nodes}
        m = max(1, max(h_raw.values(), default=0))
        hub = {u: (h_raw[u] * scale) // m for u in nodes}
    return {u: (hub[u], auth[u]) for u in nodes}


def _propagate(
    scores: ray.data.Dataset,
    edges: ray.data.Dataset,
    score_col: str,
    key_col: str,
    emit_col: str,
    n_blocks: int,
) -> ray.data.Dataset:
    """One HITS half-step: raw(x) = sum of ``score_col`` over edge
    rows whose ``key_col`` endpoint carries the score, grouped by the
    ``emit_col`` endpoint. Zero-seed rows keep every node in the
    output. Returns (node, raw)."""

    def contribs(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
        if sides["e"].empty:  # no columns either when no edge exists at all
            return pd.DataFrame({"node": pd.Series(dtype=str), "c": pd.Series(dtype="int64")})
        m = sides["e"].merge(sides["r"], on=key_col, how="left")
        return pd.DataFrame({"node": m[emit_col], "c": m[score_col].fillna(0).astype("int64")})

    seeds = scores.map_batches(
        lambda df: pd.DataFrame(
            {
                "node": df["node"].astype(str),
                "c": pd.Series([0] * len(df), index=df.index, dtype="int64"),
            }
        ),
        batch_format="pandas",
    )
    flow = co_partition(
        {
            "r": scores.map_batches(
                lambda df: df.rename(columns={"node": key_col}), batch_format="pandas"
            ),
            "e": edges.select_columns([key_col, emit_col]),
        },
        [key_col],
        contribs,
    )
    return (
        bucketed_aggregate(flow.union(seeds), ["node"], {"raw": ("c", "sum")})
        .repartition(n_blocks, shuffle=False)
        .materialize()
    )


def hits_ds(
    nodes: ray.data.Dataset,
    edges: ray.data.Dataset,
    n_iters: int = 4,
    scale: int = SCALE,
) -> ray.data.Dataset:
    """Core operator: ``nodes`` has column ``node`` (distinct),
    ``edges`` columns ``src``/``dst`` (existence-filtered, same
    contract as pagerank_ds). Returns (node, hub, auth)."""
    if n_iters < 1:
        raise ValueError("hits_ds needs n_iters >= 1 (auth is undefined before the first half-step)")
    nodes = nodes.materialize()
    edges = edges.materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        return nodes.map_batches(
            lambda t: pa.table(
                {
                    "node": pa.array([], pa.string()),
                    "hub": pa.array([], pa.int64()),
                    "auth": pa.array([], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )

    if pulled := broadcast.pull(nodes, edges):
        # the pull sizes both sides (the pagerank_ds idiom)
        np_, ep = pulled
        node_list = np_["node"].tolist()
        # empty Dataset -> to_pandas drops columns
        edge_list = list(zip(ep["src"], ep["dst"])) if len(ep) else []
        ha = hits_reference(node_list, edge_list, n_iters, scale)
        out = pd.DataFrame(
            {
                "node": node_list,
                "hub": pd.Series([ha[u][0] for u in node_list], dtype="int64"),
                "auth": pd.Series([ha[u][1] for u in node_list], dtype="int64"),
            }
        )
        return ray.data.from_pandas(out)

    n_blocks = max(4, min(512, n_nodes // 1_000_000 + 1))
    max_pre = (2**63 - 1) // scale  # exact pre-multiply bound

    def normalized(raw_ds: ray.data.Dataset, out_col: str) -> ray.data.Dataset:
        m = raw_ds.max("raw") or 0
        assert m <= max_pre, (
            "HITS normalization would overflow int64; lower `scale` "
            "(see the scale-choice note in the hits_ds docstring)"
        )
        norm = max(1, m)

        def div(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "node": df["node"].astype(str),
                    out_col: ((df["raw"].astype("int64") * scale) // norm).astype("int64"),
                }
            )

        return raw_ds.map_batches(div, batch_format="pandas")

    hub = coalesce_blocks(
        nodes.map_batches(
            lambda df: pd.DataFrame(
                {
                    "node": df["node"].astype(str),
                    "hub": pd.Series([scale] * len(df), index=df.index, dtype="int64"),
                }
            ),
            batch_format="pandas",
        ),
        n_nodes,
    ).materialize()
    auth = None
    for _ in range(n_iters):
        # auth step: hub scores ride the SRC endpoint, sum by dst
        a_raw = _propagate(hub, edges, "hub", "src", "dst", n_blocks)
        auth = normalized(a_raw, "auth").materialize()
        # hub step: auth scores ride the DST endpoint, sum by src
        h_raw = _propagate(auth, edges, "auth", "dst", "src", n_blocks)
        hub = normalized(h_raw, "hub").materialize()

    def key_hub(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": df["node"].astype(str),
                "hub": df["hub"].astype("int64"),
                "auth": pd.Series([0] * len(df), index=df.index, dtype="int64"),
            }
        )

    def key_auth(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": df["node"].astype(str),
                "hub": pd.Series([0] * len(df), index=df.index, dtype="int64"),
                "auth": df["auth"].astype("int64"),
            }
        )

    joined = bucketed_aggregate(
        hub.map_batches(key_hub, batch_format="pandas").union(
            auth.map_batches(key_auth, batch_format="pandas")
        ),
        ["node"],
        {"hub": ("hub", "max"), "auth": ("auth", "max")},
    )
    return joined


def link_hits(
    sf_dir: str,
    n_iters: int = 4,
    **kwargs,
) -> pa.Table:
    """Driver-table wrapper (url, hub, auth) sorted by url over the
    crawled-corpus page graph; :func:`hits_ds` is the streaming
    core."""
    nodes, edges = corpus_link_graph(sf_dir)
    out = hits_ds(nodes, edges, n_iters=n_iters, **kwargs).to_pandas()
    return finish(
        out.rename(columns={"node": "url"}),
        "url",
        columns=["url", "hub", "auth"],
        dtypes={"hub": "int64", "auth": "int64"},
    )
