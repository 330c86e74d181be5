"""Link-graph PageRank over the crawled corpus — the classic
crawl-prioritization / document-quality signal a webtext pipeline
computes between crawling and curation (cf. Common Crawl's harmonic
centrality ranks).

All arithmetic is INTEGER fixed-point (rank mass in units of
``scale=10^12``, floor division everywhere), so the iterative
algorithm is order-independent and bit-reproducible by an independent
single-process loop — the same trick as ``embed_kmeans_int``. The
truth oracle (pipelines/truth_oracles.pagerank_truth_sql) renders that
loop's output over the corpus GENERATOR's own link records
(corpusgen.page_links — independent of this module's parse/extract
path), so the oracle value-pins the HTML link extraction too.

Per-iteration update (nodes = corpus page urls, edges = extracted
a[href] targets that exist in the corpus; out-degree counts in-graph
edges only):

    share(u)  = rank(u) // out(u)                 (out > 0)
    dangling  = sum(rank(u) for out(u) == 0) // N
    rank'(v)  = ((100-d)*scale + d*(inflow(v) + dangling)) // 100

Distributed plan (components.py's iterative idiom):
- edges read once from the page-facet table's per-page link lists
  (functions/facets.py, the corpus's one parse), existence-
  filtered against the node set (co-partitioned on url), out-degree
  attached by one more bucket join — all ONE-TIME costs, materialized
  slim (src, dst, out) rows;
- each iteration = one bucket-cogroup (ranks meet edges on src) + one
  coarse-bucket sum (contributions by dst, zero-seed rows carry every
  node and its out-degree through), then the damping map; rank blocks
  are coalesced per round (``repartition(shuffle=False)``) — Ray's
  sort groupby otherwise doubles block count every feedback round
  (measured in components.py);
- the dangling total is the only driver scalar (one aggregate).

Node keys are the url STRINGS end to end — no hash-collision caveat
at 10^10-node scale; the slim iteration rows are (url, int64, int64).
A size-guarded driver fast path (mirrors
components.connected_components) runs the loop in-process on graphs
that ``broadcast.pull`` takes; paths are bit-identical (tested with
the pull cap at 0).
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from mlscraper_ray.functions import broadcast
from mlscraper_ray.functions.broadcast import cached_object
from mlscraper_ray.functions.bucketed import bucketed_aggregate, co_partition, coalesce_blocks
from mlscraper_ray.functions.sinks import all_shards_done, crc32_shard, write_resumable
from mlscraper_ray.functions.tables import finish

SCALE = 10**12


def pagerank_reference(
    nodes: list[str],
    edges: list[tuple[str, str]],
    n_iters: int = 4,
    damping_pct: int = 85,
    scale: int = SCALE,
) -> dict[str, int]:
    """Single-process integer loop — the driver fast path AND the
    truth-oracle generator (fed with corpusgen.page_links there)."""
    n = len(nodes)
    out: dict[str, int] = {u: 0 for u in nodes}
    by_src: dict[str, list[str]] = defaultdict(list)
    for s, d in edges:
        out[s] += 1
        by_src[s].append(d)
    rank = {u: scale for u in nodes}
    keep_pct = 100 - damping_pct
    for _ in range(n_iters):
        inflow = {u: 0 for u in nodes}
        dangling = 0
        for u in nodes:
            if out[u] == 0:
                dangling += rank[u]
                continue
            share = rank[u] // out[u]
            for d in by_src[u]:
                inflow[d] += share
        dshare = dangling // n
        rank = {
            u: (keep_pct * scale + damping_pct * (inflow[u] + dshare)) // 100
            for u in nodes
        }
    return rank


def pagerank_ds(
    nodes: ray.data.Dataset,
    edges: ray.data.Dataset,
    n_iters: int = 4,
    damping_pct: int = 85,
    scale: int = SCALE,
) -> ray.data.Dataset:
    """Core operator: ``nodes`` has column ``node`` (distinct),
    ``edges`` columns ``src``/``dst`` (already existence-filtered —
    an edge endpoint outside ``nodes`` violates the contract: the
    driver path raises KeyError, the distributed path would emit a
    phantom node row; :func:`corpus_link_graph` always satisfies it),
    multiplicity = link multiplicity. Returns (node, rank).

    Scale choice bounds the corpus: the distributed update multiplies
    ``damping_pct * (inflow + dshare)`` in int64, and a single node's
    inflow is bounded by the total rank mass ``n_nodes * scale`` — so
    pick ``scale`` such that worst-case concentration stays under
    2^63. Feasibility is checked EXACTLY at runtime: each update
    asserts the max inflow against the pre-multiply int64 bound, so
    an infeasible (corpus, scale) pair fails loudly before any wrap
    (a post-hoc sign check would miss wraps that land positive)."""
    nodes = nodes.materialize()
    edges = edges.materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        return nodes.map_batches(
            lambda t: pa.table({"node": pa.array([], pa.string()), "rank": pa.array([], pa.int64())}),
            batch_format="pyarrow",
        )

    if pulled := broadcast.pull(nodes, edges):
        # fast path, same idiom as connected_components' union-find
        # shortcut; the pull sizes BOTH sides — a sparse graph can
        # have few edges but a huge node set
        np_, ep = pulled
        node_list = np_["node"].tolist()
        # empty Dataset -> to_pandas drops columns
        edge_list = list(zip(ep["src"], ep["dst"])) if len(ep) else []
        rank = pagerank_reference(node_list, edge_list, n_iters, damping_pct, scale)
        out = pd.DataFrame(
            {"node": node_list, "rank": pd.Series([rank[u] for u in node_list], dtype="int64")}
        )
        return ray.data.from_pandas(out)

    rank_blocks = max(4, min(512, n_nodes // 1_000_000 + 1))
    keep_pct = 100 - damping_pct

    # one-time: out-degree by src, attached to both edges and ranks
    outdeg = bucketed_aggregate(edges, ["src"], {"out": ("src", "count")}).materialize()

    # a bucket without edges may meet a graph without edges, whose edge
    # side then has no columns either
    def attach_out(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
        if sides["e"].empty:
            return pd.DataFrame(
                {
                    "src": pd.Series(dtype=str),
                    "dst": pd.Series(dtype=str),
                    "out": pd.Series(dtype="int64"),
                }
            )
        m = sides["e"].merge(sides["o"], on="src", how="left")
        return m.assign(out=m["out"].fillna(0).astype("int64"))

    edges_out = co_partition(
        {"e": coalesce_blocks(edges.select_columns(["src", "dst"]), edges.count()), "o": outdeg},
        ["src"],
        attach_out,
    ).materialize()

    # ranks: (node, rank, out); nodes absent from outdeg are dangling
    def node_seed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": df["node"].astype(str),
                "o": pd.Series([0] * len(df), index=df.index, dtype="int64"),
            }
        )

    def outdeg_as_node(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df["src"].astype(str), "o": df["out"].astype("int64")})

    ranks = (
        bucketed_aggregate(
            coalesce_blocks(
                nodes.map_batches(node_seed, batch_format="pandas").union(
                    outdeg.map_batches(outdeg_as_node, batch_format="pandas")
                ),
                n_nodes * 2,
            ),
            ["node"],
            {"out": ("o", "max")},
        )
        .map_batches(
            lambda df: df.assign(rank=pd.Series([scale] * len(df), index=df.index, dtype="int64")),
            batch_format="pandas",
        )
        .repartition(rank_blocks, shuffle=False)
        .materialize()
    )

    def dangling_rows(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[df["out"] == 0, ["rank"]]

    def contribs(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
        if sides["e"].empty:
            return pd.DataFrame(
                {"node": pd.Series(dtype=str), "c": pd.Series(dtype="int64"), "o": pd.Series(dtype="int64")}
            )
        m = sides["e"].merge(sides["r"], on="src", how="left")
        share = (m["rank"].fillna(0).astype("int64") // m["out"]).astype("int64")
        return pd.DataFrame({"node": m["dst"], "c": share, "o": pd.Series([0] * len(m), dtype="int64", index=m.index)})

    for _ in range(n_iters):
        dang_ds = ranks.map_batches(dangling_rows, batch_format="pandas")
        dangling = dang_ds.sum("rank") or 0
        dshare = dangling // n_nodes

        seeds = ranks.map_batches(
            lambda df: pd.DataFrame(
                {
                    "node": df["node"].astype(str),
                    "c": pd.Series([0] * len(df), index=df.index, dtype="int64"),
                    "o": df["out"].astype("int64"),
                }
            ),
            batch_format="pandas",
        )
        flow = co_partition(
            {
                "r": ranks.map_batches(
                    lambda df: df[["node", "rank"]].rename(columns={"node": "src"}),
                    batch_format="pandas",
                ),
                "e": edges_out,
            },
            ["src"],
            contribs,
        )
        # exact pre-multiply bound: the update wraps iff
        # damping_pct * (inflow + dshare) exceeds int64 — check the
        # operand BEFORE multiplying (a post-hoc sign check misses
        # even-multiple-of-2^64 wraps, which land positive)
        inflow_cap = ((2**63 - 1) - keep_pct * scale) // damping_pct - dshare

        def damp(df: pd.DataFrame, cap: int = inflow_cap, ds: int = dshare) -> pd.DataFrame:
            inflow = df["inflow"].astype("int64")
            if len(inflow):
                assert int(inflow.max()) <= cap, (
                    "rank update would overflow int64; lower `scale` "
                    "(see the scale-choice note in the pagerank_ds docstring)"
                )
            rank = ((keep_pct * scale + damping_pct * (inflow + ds)) // 100).astype("int64")
            return pd.DataFrame(
                {"node": df["node"].astype(str), "out": df["out"].astype("int64"), "rank": rank}
            )

        ranks = (
            bucketed_aggregate(
                flow.union(seeds), ["node"], {"inflow": ("c", "sum"), "out": ("o", "max")}
            )
            .map_batches(damp, batch_format="pandas")
            .repartition(rank_blocks, shuffle=False)
            .materialize()
        )

    return ranks.map_batches(lambda df: df[["node", "rank"]], batch_format="pandas")


def corpus_link_graph(
    sf_dir: str,
    with_anchors: bool = False,
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """(nodes, edges) of the crawled-corpus page graph — the single
    graph builder behind :func:`page_rank`, :func:`corpus_link_stats`
    and :func:`host_rank`: nodes = page urls (robots.txt rows
    excluded), edges = extracted a[href] targets that exist in the
    corpus, with an ``anchor`` text column when ``with_anchors`` (the
    rank path prunes the anchors column). Both come from the
    page-facet table (functions/facets.py), whose one parse stores
    each page's links and anchors; the raw edges are those lists
    exploded. Existence filter chosen by ``broadcast.pull`` on the
    node list (the decontaminate idiom): pulled urls are ``ray.put``
    broadcast as a set — the filter is then a pure streaming
    map_batches, zero shuffle rounds; when the node list is too large
    to pull the edges meet the node list co-partitioned on dst
    (nothing driver-sized), with the union coalesced first (see
    :func:`~mlscraper_ray.functions.bucketed.coalesce_blocks`)."""
    from mlscraper_ray.functions.facets import page_facets_ds

    facets = page_facets_ds(
        sf_dir, columns=["url", "links", "anchors"] if with_anchors else ["url", "links"]
    )
    nodes = facets.map_batches(
        lambda t: pa.table({"node": t["url"]}), batch_format="pyarrow"
    ).materialize()

    def raw_edges(t: pa.Table) -> pa.Table:
        cols = {
            "src": pc.take(t["url"], pc.list_parent_indices(t["links"])),
            "dst": pc.list_flatten(t["links"]),
        }
        if with_anchors:
            cols["anchor"] = pc.list_flatten(t["anchors"])
        return pa.table(cols)

    raw = facets.map_batches(raw_edges, batch_format="pyarrow")

    if pulled := broadcast.pull(nodes):
        known_ref = ray.put(set(pulled[0]["node"]))

        def filt(t: pa.Table) -> pa.Table:
            known = cached_object(known_ref)
            mask = pa.array([d in known for d in t["dst"].to_pylist()])
            return t.filter(mask)

        return nodes, raw.map_batches(filt, batch_format="pyarrow")

    # scale path: edges meet the node list co-partitioned on dst
    def keep_existing(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
        e = sides["e"]
        if e.empty:  # no columns either when no page links at all
            return e
        return e[e["dst"].isin(set(sides["n"]["dst"]))]

    edges = co_partition(
        {
            "e": coalesce_blocks(raw, nodes.count() * 5),
            "n": nodes.map_batches(
                lambda df: df.rename(columns={"node": "dst"}), batch_format="pandas"
            ),
        },
        ["dst"],
        keep_existing,
    )
    return nodes, edges


def page_rank(
    sf_dir: str,
    n_iters: int = 4,
    damping_pct: int = 85,
    **kwargs,
) -> pa.Table:
    """Driver-table wrapper (url, rank) sorted by url;
    :func:`pagerank_ds` is the streaming core (``kwargs`` go to it)."""
    nodes, edges = corpus_link_graph(sf_dir)
    out = pagerank_ds(nodes, edges, n_iters, damping_pct, **kwargs).to_pandas()
    return finish(
        out.rename(columns={"node": "url"}),
        "url",
        columns=["url", "rank"],
        dtypes={"rank": "int64"},
    )


def corpus_link_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-url link statistics over the crawled-corpus page graph —
    the anchor-text / in-link signal of classic web pipelines: for
    every corpus page url, ``in_links`` (in-corpus pages linking to
    it; each source page counts once, extract_links' first-occurrence
    dedup), ``src_hosts`` (distinct linking hosts), ``out_links``
    (in-corpus out-degree), and ``top_anchor`` (most frequent in-link
    anchor text, ties to the lexicographically smallest; empty-string
    anchors are ignored, "" when no in-links).

    Composes :func:`corpus_link_graph` (with anchors; the broadcast /
    bucketed existence-filter choice lives there) with one streaming
    map to additive in-rows + out-rows and a single stats shuffle in
    url co-partition. Html never leaves the parse stage; anchors
    are the only strings that shuffle."""
    nodes, edges = corpus_link_graph(sf_dir, with_anchors=True)
    flows = edges.map_batches(_in_out_from, batch_format="pandas")
    return _link_stats_aggregate(flows, nodes, nodes.count())


def _in_out_from(e: pd.DataFrame) -> pd.DataFrame:
    """(src, dst, anchor) existence-filtered edges -> additive in-rows
    (keyed by dst) + out-rows (keyed by src) for the stats groupby."""
    from mlscraper_ray.sources.corpusgen import url_host

    inr = pd.DataFrame(
        {
            "url": e["dst"].to_numpy(),
            "host": [url_host(s) for s in e["src"]],
            "anchor": e["anchor"].to_numpy(),
            "inl": 1,
            "outl": 0,
        }
    )
    outr = pd.DataFrame(
        {"url": e["src"].to_numpy(), "host": "", "anchor": "", "inl": 0, "outl": 1}
    )
    return pd.concat([inr, outr], ignore_index=True).astype({"inl": "int64", "outl": "int64"})


def _link_stats_aggregate(
    flows: ray.data.Dataset,
    nodes: ray.data.Dataset,
    n_nodes: int,
) -> ray.data.Dataset:
    """Round 2 of :func:`corpus_link_stats` — the single stats shuffle
    shared by the broadcast and bucketed round-1 paths: in/out rows
    plus zero-seed node rows meet co-partitioned on url; one
    vectorized pandas pass per bucket computes all four stats."""

    def stats(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
        g = sides["f"]
        if g.empty:  # no columns either when no page links at all
            g = pd.DataFrame(
                {"url": [], "host": [], "anchor": [], "inl": [], "outl": []}
            ).astype({"inl": "int64", "outl": "int64"})
        agg = g.groupby("url", sort=False).agg(in_links=("inl", "sum"), out_links=("outl", "sum"))
        # every node gets a row, with zero counts when nothing links it
        agg = agg.reindex(agg.index.union(sides["n"]["url"]), fill_value=0)
        hosts = g[g["host"] != ""].groupby("url")["host"].nunique()
        out = agg.join(hosts.rename("src_hosts")).reset_index()
        out["src_hosts"] = out["src_hosts"].fillna(0).astype("int64")
        an = g[g["anchor"] != ""].groupby(["url", "anchor"]).size().reset_index(name="n")
        if len(an):
            an = an.sort_values(
                ["url", "n", "anchor"], ascending=[True, False, True]
            ).drop_duplicates("url")
            out = out.merge(
                an[["url", "anchor"]].rename(columns={"anchor": "top_anchor"}),
                on="url",
                how="left",
            )
            out["top_anchor"] = out["top_anchor"].fillna("")
        else:
            out["top_anchor"] = ""
        return out.astype({"in_links": "int64", "out_links": "int64"})

    return co_partition(
        {
            "f": coalesce_blocks(flows, n_nodes * 8),
            "n": nodes.map_batches(
                lambda df: df.rename(columns={"node": "url"}), batch_format="pandas"
            ),
        },
        ["url"],
        stats,
    )


def link_stats(sf_dir: str) -> pa.Table:
    """Driver-table wrapper: (url, in_links, src_hosts, out_links,
    top_anchor) sorted by url; :func:`corpus_link_stats` is the
    streaming core."""
    out = corpus_link_stats(sf_dir).to_pandas()
    out = out.sort_values("url", ignore_index=True)
    cols = ["url", "in_links", "src_hosts", "out_links", "top_anchor"]
    return finish(out, columns=cols)


def page_rank_to_parquet(
    sf_dir: str,
    out_dir: str,
    n_shards: int = 16,
    n_iters: int = 4,
    damping_pct: int = 85,
    **kwargs,
) -> dict:
    """Production sink twin of :func:`page_rank` (``kwargs`` go to
    :func:`pagerank_ds` there too), RESUMABLE
    (functions/sinks.py): the (url, rank) manifest is sharded by
    crc32(url). Returns {"written": n, "skipped": n}."""
    if all_shards_done(out_dir, n_shards):  # graph build + iterations run eagerly
        return {"written": 0, "skipped": n_shards}
    nodes, edges = corpus_link_graph(sf_dir)
    ranks = pagerank_ds(nodes, edges, n_iters, damping_pct, **kwargs).map_batches(
        lambda df: df.rename(columns={"node": "url"}), batch_format="pandas"
    )
    return write_resumable(ranks, crc32_shard("url", n_shards), out_dir, n_shards)


def _distinct_host_pairs(edges: ray.data.Dataset) -> ray.data.Dataset:
    """DISTINCT cross-host (sh, dh) directed pairs from a url-level
    edge Dataset through the bucketed aggregate (host-pair
    cardinality ≤ hosts², far below edge count). Shared by the host
    roll-up and the reciprocity metric."""
    from mlscraper_ray.sources.corpusgen import url_host

    def host_pairs(df: pd.DataFrame) -> pd.DataFrame:
        sh = [url_host(s) for s in df["src"]]
        dh = [url_host(d) for d in df["dst"]]
        p = pd.DataFrame({"sh": sh, "dh": dh})
        return p[p["sh"] != p["dh"]]

    return bucketed_aggregate(
        edges.map_batches(host_pairs, batch_format="pandas"),
        ["sh", "dh"],
        {"one": ("sh", "count")},
    )


def _undirected_host_pairs(edges: ray.data.Dataset) -> ray.data.Dataset:
    """DISTINCT unordered cross-host (lo, hi) pairs, lo < hi, of a
    url-level edge Dataset, materialized (every caller reads them more
    than once): :func:`_distinct_host_pairs` folded onto their
    unordered form through one more bucketed aggregate."""

    def unordered(df: pd.DataFrame) -> pd.DataFrame:
        lo = df[["sh", "dh"]].min(axis=1)
        hi = df[["sh", "dh"]].max(axis=1)
        return pd.DataFrame({"lo": lo, "hi": hi})

    pairs = _distinct_host_pairs(edges).materialize()
    return bucketed_aggregate(
        pairs.map_batches(unordered, batch_format="pandas"),
        ["lo", "hi"],
        {"one": ("lo", "count")},
    ).materialize()


def host_reciprocity_ds(edges: ray.data.Dataset, n_hosts_hint: int | None = None) -> ray.data.Dataset:
    """Per-host link reciprocity — the link-farm / mutual-citation
    signal: of the distinct OTHER hosts a host links to, what
    fraction link back. Fold the distinct directed pair table onto
    UNORDERED (lo, hi) keys (one bucketed aggregate summing each
    direction's presence), then emit per-host (out, reciprocal)
    contributions from each unordered row and sum by host — every
    stage is slim host-string rows through the coarse-bucket
    aggregate, nothing driver-sized."""

    def unordered(df: pd.DataFrame) -> pd.DataFrame:
        lo = df[["sh", "dh"]].min(axis=1)
        hi = df[["sh", "dh"]].max(axis=1)
        fwd = (df["sh"] == lo).astype("int64")  # direction lo -> hi
        return pd.DataFrame(
            {"lo": lo, "hi": hi, "fwd": fwd, "rev": (1 - fwd).astype("int64")}
        )

    both = bucketed_aggregate(
        _distinct_host_pairs(edges).map_batches(unordered, batch_format="pandas"),
        ["lo", "hi"],
        {"fwd": ("fwd", "sum"), "rev": ("rev", "sum")},
    )

    def per_host(df: pd.DataFrame) -> pd.DataFrame:
        fwd = df["fwd"].astype("int64").clip(upper=1)
        rev = df["rev"].astype("int64").clip(upper=1)
        recip = (fwd & rev).astype("int64")
        a = pd.DataFrame({"host": df["lo"], "out_hosts": fwd, "recip_hosts": recip})
        b = pd.DataFrame({"host": df["hi"], "out_hosts": rev, "recip_hosts": recip})
        out = pd.concat([a, b], ignore_index=True)
        return out[out["out_hosts"] > 0]

    return bucketed_aggregate(
        both.map_batches(per_host, batch_format="pandas"),
        ["host"],
        {"out_hosts": ("out_hosts", "sum"), "recip_hosts": ("recip_hosts", "sum")},
    )


def host_reciprocity(sf_dir: str) -> pa.Table:
    """Driver-table wrapper: (host, out_hosts, recip_hosts,
    recip_pct) sorted by host, integer percent."""
    _, edges = corpus_link_graph(sf_dir)
    out = host_reciprocity_ds(edges).to_pandas()
    out = out.astype({"out_hosts": "int64", "recip_hosts": "int64"})
    out["recip_pct"] = (100 * out["recip_hosts"]) // out["out_hosts"]
    out = out.sort_values("host", ignore_index=True)
    cols = ["host", "out_hosts", "recip_hosts", "recip_pct"]
    return finish(out, columns=cols)


def host_rank_ds(
    nodes: ray.data.Dataset,
    edges: ray.data.Dataset,
    ranks: ray.data.Dataset,
) -> ray.data.Dataset:
    """Host-level authority roll-up — the domain-reputation signal
    (cf. Common Crawl's host-level rank files): per host,
    ``n_pages`` (corpus pages), ``rank_total`` (integer sum of page
    ranks — exact, ranks are fixed-point ints), ``in_hosts`` /
    ``out_hosts`` (distinct OTHER hosts with at least one edge
    in / out). Everything is slim distributed aggregates: page rows
    fold to per-host partials, cross-host edges dedup to distinct
    (src_host, dst_host) pairs via the coarse-bucket aggregate
    (host-pair cardinality ≤ hosts², far below edge count), then one
    additive union-aggregate by host combines the three facets —
    no driver-side table of hosts anywhere.

    Overflow feasibility is checked up front with the exact bound
    ``n_pages * max_rank < 2^63`` (no host can exceed it): computed
    from two cheap distributed aggregates with Python big-int
    arithmetic, it proves the int64 rank_total sums cannot wrap. If
    the bound cannot be proven, a RuntimeWarning says to lower
    ``scale`` — the post-hoc sign assert alone would miss wraps that
    land positive."""
    import warnings

    from mlscraper_ray.sources.corpusgen import url_host

    ranks = ranks.materialize()
    n_pages_total = ranks.count()
    max_rank = int(ranks.max("rank") or 0)
    if n_pages_total * max_rank >= 2**63:
        warnings.warn(
            "host rank_total may overflow int64 (n_pages * max_rank >= 2^63) — "
            "lower `scale` in the rank computation",
            RuntimeWarning,
            stacklevel=2,
        )

    def rank_part(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "host": [url_host(u) for u in df["node"]],
                "rank_total": df["rank"].astype("int64"),
                "n_pages": pd.Series([1] * len(df), index=df.index, dtype="int64"),
                "in_hosts": pd.Series([0] * len(df), index=df.index, dtype="int64"),
                "out_hosts": pd.Series([0] * len(df), index=df.index, dtype="int64"),
            }
        )

    # materialized: the pair table feeds BOTH degree sides below (an
    # unmaterialized Dataset would re-execute the whole dedup twice)
    pairs = _distinct_host_pairs(edges).materialize()

    def in_side(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "host": df["dh"].astype(str),
                "rank_total": pd.Series([0] * len(df), index=df.index, dtype="int64"),
                "n_pages": pd.Series([0] * len(df), index=df.index, dtype="int64"),
                "in_hosts": pd.Series([1] * len(df), index=df.index, dtype="int64"),
                "out_hosts": pd.Series([0] * len(df), index=df.index, dtype="int64"),
            }
        )

    def out_side(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "host": df["sh"].astype(str),
                "rank_total": pd.Series([0] * len(df), index=df.index, dtype="int64"),
                "n_pages": pd.Series([0] * len(df), index=df.index, dtype="int64"),
                "in_hosts": pd.Series([0] * len(df), index=df.index, dtype="int64"),
                "out_hosts": pd.Series([1] * len(df), index=df.index, dtype="int64"),
            }
        )

    parts = coalesce_blocks(
        ranks.map_batches(rank_part, batch_format="pandas")
        .union(pairs.map_batches(in_side, batch_format="pandas"))
        .union(pairs.map_batches(out_side, batch_format="pandas")),
        nodes.count(),
    )
    return bucketed_aggregate(
        parts,
        ["host"],
        {
            "n_pages": ("n_pages", "sum"),
            "rank_total": ("rank_total", "sum"),
            "in_hosts": ("in_hosts", "sum"),
            "out_hosts": ("out_hosts", "sum"),
        },
    )


def host_rank(
    sf_dir: str,
    n_iters: int = 4,
    damping_pct: int = 85,
    **kwargs,
) -> pa.Table:
    """Driver-table wrapper: (host, n_pages, rank_total, in_hosts,
    out_hosts) sorted by host; :func:`host_rank_ds` is the streaming
    core. Kwargs routing matches :func:`page_rank` (to
    :func:`pagerank_ds`)."""
    nodes, edges = corpus_link_graph(sf_dir)
    edges = edges.materialize()
    ranks = pagerank_ds(nodes, edges, n_iters, damping_pct, **kwargs)
    out = host_rank_ds(nodes, edges, ranks).to_pandas()
    out = out.sort_values("host", ignore_index=True).astype(
        {c: "int64" for c in ("n_pages", "rank_total", "in_hosts", "out_hosts")}
    )
    # backstop only: host_rank_ds proves no-overflow up front (exact
    # n_pages*max_rank bound) — this catches odd-multiple wraps if a
    # caller bypassed it; even-multiple wraps land positive, which is
    # why the up-front bound, not this check, is the real guard
    assert (out["rank_total"] >= 0).all(), "host rank_total overflowed int64; lower `scale`"
    cols = ["host", "n_pages", "rank_total", "in_hosts", "out_hosts"]
    return finish(out, columns=cols)


def host_triangles_ds(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Per-host TRIANGLE counts over the undirected host graph — the
    community-density signal (hosts embedded in mutually-linked
    clusters vs isolated spam hubs). Exact, via the degree-ordered
    edge orientation (each undirected edge points from its
    (degree, name)-smaller endpoint, so every out-neighborhood is
    O(sqrt(m)) and wedge emission never goes quadratic on hot hosts):

    1. distinct unordered cross-host pairs — the shared
       :func:`_distinct_host_pairs` fold (slim, <= hosts^2 rows);
    2. per-host degree = one bucketed endpoint sum;
    3. orient edges by (degree, host); per center, emit its sorted
       out-neighbor PAIRS as wedge rows (the only superlinear step,
       bounded by the orientation);
    4. wedges meet the edge table co-partitioned on (lo, hi) — each
       closed wedge is one triangle, credited to ALL THREE corners;
    5. per-host triangle totals fold in the coarse-bucket aggregate.

    Degrees attach by size-guarded broadcast (one int per host)
    with a cogroup join-back fallback when ``broadcast.pull`` declines
    the degree table.
    Returns per-host rows (host, degree, triangles)."""
    und = _undirected_host_pairs(edges)

    def _endpoints_und(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"host": pd.concat([df["lo"], df["hi"]], ignore_index=True)}
        )

    deg = bucketed_aggregate(
        und.map_batches(_endpoints_und, batch_format="pandas"),
        ["host"],
        {"degree": ("host", "count")},
    ).materialize()
    n_edges_und = und.count()

    if pulled := broadcast.pull(deg):
        (ddf,) = pulled
        deg_ref = ray.put(
            {str(h): int(d) for h, d in zip(ddf["host"], ddf["degree"])}
            if len(ddf)
            else {}
        )

        def orient(df: pd.DataFrame) -> pd.DataFrame:
            dm = cached_object(deg_ref)
            klo = [(dm[h], h) for h in df["lo"]]
            khi = [(dm[h], h) for h in df["hi"]]
            a = [l if kl <= kh else h for l, h, kl, kh in zip(df["lo"], df["hi"], klo, khi)]
            b = [h if kl <= kh else l for l, h, kl, kh in zip(df["lo"], df["hi"], klo, khi)]
            return pd.DataFrame({"a": a, "b": b})

        directed = und.map_batches(orient, batch_format="pandas")
    else:
        from mlscraper_ray.functions.joins import cogroup_join

        lo_deg = cogroup_join(
            und.map_batches(
                lambda df: df.rename(columns={"lo": "host"})[["host", "hi"]],
                batch_format="pandas",
            ),
            deg.map_batches(
                lambda df: df.rename(columns={"degree": "deg_lo"}),
                batch_format="pandas",
            ),
            "host",
        ).map_batches(
            lambda df: df.rename(columns={"host": "lo"}), batch_format="pandas"
        )
        both_deg = cogroup_join(
            lo_deg.map_batches(
                lambda df: df.rename(columns={"hi": "host"}), batch_format="pandas"
            ),
            deg.map_batches(
                lambda df: df.rename(columns={"degree": "deg_hi"}),
                batch_format="pandas",
            ),
            "host",
        )

        def orient_joined(df: pd.DataFrame) -> pd.DataFrame:
            # cogroup null-pad turns ints to float64 — cast back
            dlo = df["deg_lo"].astype("int64")
            dhi = df["deg_hi"].astype("int64")
            lo_first = (dlo < dhi) | ((dlo == dhi) & (df["lo"] <= df["host"]))
            return pd.DataFrame(
                {
                    "a": df["lo"].where(lo_first, df["host"]),
                    "b": df["host"].where(lo_first, df["lo"]),
                }
            )

        directed = both_deg.map_batches(orient_joined, batch_format="pandas")

    def wedges(grp: pd.DataFrame) -> pd.DataFrame:
        rows_lo, rows_hi, rows_c = [], [], []
        for center, d in grp.groupby("a", sort=False):
            nbrs = sorted(d["b"])
            for i in range(len(nbrs)):
                for j in range(i + 1, len(nbrs)):
                    rows_lo.append(nbrs[i])
                    rows_hi.append(nbrs[j])
                    rows_c.append(center)
        return pd.DataFrame(
            {
                "lo": pd.Series(rows_lo, dtype=str),
                "hi": pd.Series(rows_hi, dtype=str),
                "center": pd.Series(rows_c, dtype=str),
            }
        )

    wedge_rows = (
        coalesce_blocks(directed, n_edges_und)
        .groupby("a")
        .map_groups(wedges, batch_format="pandas")
    )

    def close(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
        e, w = sides["e"], sides["w"]
        if w.empty:  # no columns either when the graph holds no wedge
            return pd.DataFrame({"host": pd.Series(dtype=str)})
        exists = set(zip(e["lo"], e["hi"]))
        # numpy mask, NOT a list: an empty list is pandas COLUMN
        # selection and silently drops every column
        mask = np.fromiter(
            (p in exists for p in zip(w["lo"], w["hi"])), dtype=bool, count=len(w)
        )
        closed = w[mask]
        hosts = pd.concat(
            [closed["lo"], closed["hi"], closed["center"]], ignore_index=True
        )
        return pd.DataFrame({"host": hosts.astype(str)})

    tri_rows = co_partition(
        {
            "w": coalesce_blocks(wedge_rows, n_edges_und * 4),
            "e": und.select_columns(["lo", "hi"]),
        },
        ["lo", "hi"],
        close,
    )

    tri = bucketed_aggregate(
        tri_rows, ["host"], {"triangles": ("host", "count")}
    )

    # degree + triangles fold in ONE additive union-aggregate (hosts
    # with zero triangles must still appear)
    tagged = deg.map_batches(
        lambda df: pd.DataFrame(
            {
                "host": df["host"].astype(str),
                "degree": df["degree"].astype("int64"),
                "triangles": pd.Series([0] * len(df), index=df.index, dtype="int64"),
            }
        ),
        batch_format="pandas",
    ).union(
        tri.map_batches(
            lambda df: pd.DataFrame(
                {
                    "host": df["host"].astype(str),
                    "degree": pd.Series([0] * len(df), index=df.index, dtype="int64"),
                    "triangles": df["triangles"].astype("int64"),
                }
            ),
            batch_format="pandas",
        )
    )
    return bucketed_aggregate(
        tagged,
        ["host"],
        {"degree": ("degree", "sum"), "triangles": ("triangles", "sum")},
    )


def host_triangles(sf_dir: str) -> pa.Table:
    """Driver-table wrapper: (host, degree, triangles,
    clustering_milli) sorted by host — clustering_milli =
    (2000 * triangles) // (degree * (degree - 1)), 0 when degree < 2
    (the local clustering coefficient in exact fixed-point)."""
    _, edges = corpus_link_graph(sf_dir)
    out = host_triangles_ds(edges).to_pandas()
    if out.empty:
        return pa.table(
            {
                "host": pa.array([], pa.string()),
                "degree": pa.array([], pa.int64()),
                "triangles": pa.array([], pa.int64()),
                "clustering_milli": pa.array([], pa.int64()),
            }
        )
    out = out.astype({"degree": "int64", "triangles": "int64"})
    d = out["degree"]
    out["clustering_milli"] = 0
    m = d >= 2
    out.loc[m, "clustering_milli"] = (2000 * out.loc[m, "triangles"]) // (
        d[m] * (d[m] - 1)
    )
    return finish(
        out,
        "host",
        columns=["host", "degree", "triangles", "clustering_milli"],
        dtypes={"clustering_milli": "int64"},
    )


def _kcore_peel_local(pairs: list[tuple[str, str]]) -> dict[str, int]:
    """Textbook O(m) min-degree peeling over an undirected edge list:
    returns coreness per host. Driver fast path AND the shared
    definition the distributed loop must agree with (path equality is
    regression-tested on crafted and corpus graphs)."""
    from collections import defaultdict

    adj: dict[str, set] = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    deg = {h: len(n) for h, n in adj.items()}
    core: dict[str, int] = {}
    # bucket queue by current degree; deterministic host-name order
    # inside a bucket (output is order-independent anyway)
    import heapq

    heap = [(d, h) for h, d in deg.items()]
    heapq.heapify(heap)
    k = 0
    while heap:
        d, h = heapq.heappop(heap)
        if h in core:
            continue
        if deg[h] != d:
            continue  # stale entry
        k = max(k, deg[h])
        core[h] = k
        for nb in adj[h]:
            if nb not in core:
                deg[nb] -= 1
                heapq.heappush(heap, (deg[nb], nb))
    return core


def host_kcore_ds(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Per-host CORENESS over the undirected host graph (k-core
    decomposition) — the robustness/community-depth signal crawl
    prioritization uses alongside rank: a host in the k-core survives
    when every host of degree < k is recursively stripped away.

    Path choice by ``broadcast.pull`` on the slim undirected-pair
    table (the graphdist idiom): a pulled table is peeled in O(m)
    driver-side; otherwise the distributed PEELING loop runs stage
    k = 1, 2, ...: each round one bucketed degree count over live
    edges + one broadcast victim filter (hosts with degree < k get
    coreness k-1 and their edges drop). Rounds are bounded by graph
    degeneracy x peel depth — small for host graphs, whose degeneracy grows far
    slower than size; every round ships only slim host-string rows,
    and live edges re-materialize per round with bounded block count
    (the components.py block-doubling hazard).

    Returns per-host rows (host, coreness)."""
    und = _undirected_host_pairs(edges)

    def rows_table(core: dict[str, int]) -> pa.Table:
        hosts = sorted(core)
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "coreness": pa.array([core[h] for h in hosts], pa.int64()),
            }
        )

    if pulled := broadcast.pull(und):
        (pdf,) = pulled
        pair_list = (
            list(zip(pdf["lo"], pdf["hi"])) if len(pdf) else []
        )
        return ray.data.from_arrow(rows_table(_kcore_peel_local(pair_list)))

    # distributed peeling loop
    n_und = und.count()
    live = und.map_batches(
        lambda df: df[["lo", "hi"]], batch_format="pandas"
    ).materialize()
    core: dict[str, int] = {}
    k = 1
    guard = 0
    while live.count() > 0:
        guard += 1
        assert guard < 10_000, "k-core peel did not converge"
        deg = bucketed_aggregate(
            live.map_batches(_endpoints_live, batch_format="pandas"),
            ["host"],
            {"degree": ("host", "count")},
        ).to_pandas()
        victims = set(deg.loc[deg["degree"] < k, "host"]) if len(deg) else set()
        if not victims:
            k += 1
            continue
        for h in victims:
            core[h] = k - 1
        v_ref = ray.put(victims)

        def drop(df: pd.DataFrame) -> pd.DataFrame:
            v = cached_object(v_ref)
            keep = [
                l not in v and h not in v for l, h in zip(df["lo"], df["hi"])
            ]
            import numpy as np

            return df[np.array(keep, dtype=bool)] if len(df) else df

        live = coalesce_blocks(
            live.map_batches(drop, batch_format="pandas"), max(n_und, 1)
        ).materialize()
    return ray.data.from_arrow(rows_table(core))


def _endpoints_live(df: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame(
        {"host": pd.concat([df["lo"], df["hi"]], ignore_index=True)}
    )


def host_kcore(sf_dir: str) -> pa.Table:
    """Driver-table wrapper: (host, coreness) sorted by host. Hosts
    with no cross-host edges are absent (as in the other host ops)."""
    _, edges = corpus_link_graph(sf_dir)
    out = host_kcore_ds(edges).to_pandas()
    return finish(
        out,
        "host",
        columns=["host", "coreness"],
        dtypes={"coreness": "int64"},
        empty=pa.schema({"host": pa.string(), "coreness": pa.int64()}),
    )


def _lpa_local(
    pairs: list[tuple[str, str]], n_rounds: int
) -> dict[str, str]:
    """Reference synchronous label propagation (Raghavan et al. 2007,
    made deterministic): labels start as the host's own name; each
    round every host adopts the most frequent label among its own
    current label plus its neighbors', ties to the lexicographically
    smallest. Self-inclusion damps the classic bipartite two-label
    oscillation; a FIXED round count keeps the output deterministic
    either way. Driver fast path AND the definition the distributed
    loop must agree with (path equality regression-tested)."""
    from collections import Counter, defaultdict

    adj: dict[str, set] = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    label = {h: h for h in adj}
    for _ in range(n_rounds):
        new = {}
        for h, nbrs in adj.items():
            cnt: Counter[str] = Counter()
            cnt[label[h]] += 1
            for nb in nbrs:
                cnt[label[nb]] += 1
            new[h] = min(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        label = new
    return label


def host_communities_ds(
    edges: ray.data.Dataset,
    n_rounds: int = 8,
) -> ray.data.Dataset:
    """Host-graph community detection by synchronous label
    propagation over the undirected distinct cross-host pair graph —
    the mirror/link-farm/topic-cluster grouping signal next to
    coreness and triangles (semantics in :func:`_lpa_local`).

    Path choice by ``broadcast.pull`` on the slim undirected-pair
    table (the kcore idiom): a pulled table is propagated driver-side;
    otherwise each round runs distributed — two ``cogroup_join`` label
    attachments (one per edge direction) emit (host, neighbor_label)
    messages, the self-label rows union in, one coarse-bucket
    (host, label) count aggregate, then a host-bucketed argmax picks
    each host's new label. Every round ships only slim host/label
    string rows; the label table is host-cardinality (not edge- or
    page-cardinality), the same size class the other host roll-ups
    shuffle.

    Returns per-host rows (host, community); community is a host
    name (the propagated label)."""
    from mlscraper_ray.functions.joins import cogroup_join

    und = _undirected_host_pairs(edges)

    def rows_table(label: dict[str, str]) -> pa.Table:
        hosts = sorted(label)
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "community": pa.array([label[h] for h in hosts], pa.string()),
            }
        )

    if pulled := broadcast.pull(und):
        (pdf,) = pulled
        pair_list = list(zip(pdf["lo"], pdf["hi"])) if len(pdf) else []
        return ray.data.from_arrow(rows_table(_lpa_local(pair_list, n_rounds)))

    # distributed synchronous rounds
    n_und = und.count()
    und = und.map_batches(
        lambda df: df[["lo", "hi"]] if "lo" in df.columns else df,
        batch_format="pandas",
    ).materialize()

    def init_labels(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.concat([df["lo"], df["hi"]], ignore_index=True)
        return pd.DataFrame({"host": h, "label": h})

    labels = bucketed_aggregate(
        und.map_batches(init_labels, batch_format="pandas"),
        ["host", "label"],
        {"one": ("host", "count")},
    ).map_batches(
        lambda df: df[["host", "label"]] if "host" in df.columns else df,
        batch_format="pandas",
    ).materialize()

    for _ in range(n_rounds):
        # attach label(lo) -> message to hi, and label(hi) -> message to lo
        left_lo = und.map_batches(
            lambda df: df.rename(columns={"lo": "host", "hi": "other"})
            if "lo" in df.columns else df,
            batch_format="pandas",
        )
        msg_to_hi = cogroup_join(
            left_lo, labels, "host"
        ).map_batches(
            lambda df: pd.DataFrame({"host": df["other"], "label": df["label"]})
            if "other" in df.columns
            else pd.DataFrame(
                {"host": pd.Series(dtype=str), "label": pd.Series(dtype=str)}
            ),
            batch_format="pandas",
        )
        left_hi = und.map_batches(
            lambda df: df.rename(columns={"hi": "host", "lo": "other"})
            if "hi" in df.columns else df,
            batch_format="pandas",
        )
        msg_to_lo = cogroup_join(
            left_hi, labels, "host"
        ).map_batches(
            lambda df: pd.DataFrame({"host": df["other"], "label": df["label"]})
            if "other" in df.columns
            else pd.DataFrame(
                {"host": pd.Series(dtype=str), "label": pd.Series(dtype=str)}
            ),
            batch_format="pandas",
        )
        votes = bucketed_aggregate(
            msg_to_hi.union(msg_to_lo).union(labels),
            ["host", "label"],
            {"cnt": ("host", "count")},
        )

        def pick(g: pd.DataFrame) -> pd.DataFrame:
            best = g.sort_values(
                ["host", "cnt", "label"], ascending=[True, False, True]
            ).drop_duplicates("host")
            return best[["host", "label"]]

        labels = coalesce_blocks(co_partition(votes, ["host"], pick), max(n_und, 1)).materialize()

    def to_out(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"label": "community"})[["host", "community"]]

    return labels.map_batches(to_out, batch_format="pandas")


def host_communities(sf_dir: str, n_rounds: int = 8) -> pa.Table:
    """Driver-table wrapper: (host, community) sorted by host. Hosts
    with no cross-host edges are absent (as in the other host ops)."""
    _, edges = corpus_link_graph(sf_dir)
    out = host_communities_ds(edges, n_rounds=n_rounds).to_pandas()
    return finish(
        out,
        "host",
        columns=["host", "community"],
        empty=pa.schema({"host": pa.string(), "community": pa.string()}),
    )


def host_assortativity_ds(edges: ray.data.Dataset) -> pa.Table:
    """Degree assortativity of the distinct cross-host link graph —
    the hub-wiring signal (Newman 2002): over each distinct directed
    host pair (sh, dh), correlate x = out-degree(sh) with
    y = in-degree(dh) (degrees are DISTINCT-neighbor counts on the
    same pair graph). Positive: hubs cite hubs (walled gardens);
    negative: hubs cite the long tail (directories, link farms).

    One row of exact sufficient statistics plus
    ``assort_milli = (1000 * (n*Sxy - Sx*Sy)) // isqrt((n*Sxx - Sx^2)
    * (n*Syy - Sy^2))`` — integer floor division against the exact
    integer square root, so the score is bit-stable (0 when either
    variance term is 0).

    Distributed shape: degrees are two slim bucketed counts over the
    distinct-pair table; each degree joins back onto the pairs by its
    own key (two cogroup shuffles of (host, deg) int rows); per-batch
    moment partials fold on the driver as arbitrary-precision Python
    ints. Per-batch int64 envelope: rows_per_batch * max_deg^2 must
    stay under 2^63 — holds for distinct-HOST degrees (not raw link
    counts) through ~10^7-host graphs at the default batch size."""
    import math

    import numpy as np

    from mlscraper_ray.functions.joins import cogroup_join

    # materialize once: the pair table feeds THREE consumers (two
    # degree counts + the join left side) and is hosts^2-bounded —
    # without this the edge scan + dedup would re-execute per consumer
    pairs = _distinct_host_pairs(edges).map_batches(
        lambda df: df[["sh", "dh"]], batch_format="pandas"
    ).materialize()

    out_deg = bucketed_aggregate(pairs, ["sh"], {"od": ("dh", "count")}).materialize()
    in_deg = bucketed_aggregate(pairs, ["dh"], {"idg": ("sh", "count")}).materialize()
    # degree tables are HOST-sized (data-card domain, not edge-sized):
    # size-guarded broadcast attach, else cogroup fallback; materialized
    # once, so either path reads the two degree shuffles' output
    if pulled := broadcast.pull(out_deg, in_deg):
        od_df, id_df = pulled
        od_ref = ray.put(dict(zip(od_df["sh"], od_df["od"].astype(int))))
        id_ref = ray.put(dict(zip(id_df["dh"], id_df["idg"].astype(int))))

        def attach_degrees(df: pd.DataFrame) -> pd.DataFrame:
            om, im = cached_object(od_ref), cached_object(id_ref)
            return df.assign(
                od=pd.Series(
                    [om[h] for h in df["sh"]], index=df.index, dtype="int64"
                ),
                idg=pd.Series(
                    [im[h] for h in df["dh"]], index=df.index, dtype="int64"
                ),
            )

        both = pairs.map_batches(attach_degrees, batch_format="pandas")
    else:
        with_out = cogroup_join(pairs, out_deg, "sh")
        both = cogroup_join(with_out, in_deg, "dh")

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        x = df["od"].to_numpy(dtype=np.int64)
        y = df["idg"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "n": [np.int64(len(df))],
                "sx": [x.sum()],
                "sy": [y.sum()],
                "sxx": [(x * x).sum()],
                "syy": [(y * y).sum()],
                "sxy": [(x * y).sum()],
            }
        )

    parts = both.map_batches(moments, batch_format="pandas").to_pandas()
    n, sx, sy = int(parts["n"].sum()), int(parts["sx"].sum()), int(parts["sy"].sum())
    sxx, syy, sxy = (
        int(parts["sxx"].sum()),
        int(parts["syy"].sum()),
        int(parts["sxy"].sum()),
    )
    num = n * sxy - sx * sy
    dxx = n * sxx - sx * sx
    dyy = n * syy - sy * sy
    den = math.isqrt(dxx * dyy)
    milli = (1000 * num) // den if den > 0 else 0
    return pa.table(
        {
            "n_edges": pa.array([n], pa.int64()),
            "sum_x": pa.array([sx], pa.int64()),
            "sum_y": pa.array([sy], pa.int64()),
            "sum_xx": pa.array([sxx], pa.int64()),
            "sum_yy": pa.array([syy], pa.int64()),
            "sum_xy": pa.array([sxy], pa.int64()),
            "assort_milli": pa.array([milli], pa.int64()),
        }
    )


def host_assortativity(sf_dir: str) -> pa.Table:
    """Driver-table wrapper over the cached corpus link graph."""
    _, edges = corpus_link_graph(sf_dir)
    return host_assortativity_ds(edges)
