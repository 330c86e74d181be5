"""Link-graph PageRank (functions/pagerank.py): the distributed
iterative path against the single-process integer reference loop, and
the corpus graph against the generator's own link records."""
from __future__ import annotations

import pandas as pd
import pytest
import ray.data

from mlscraper_ray.functions.pagerank import (
    SCALE,
    corpus_link_graph,
    page_rank,
    pagerank_ds,
    pagerank_reference,
)

SF_DIR = "/root/testdata/sf0.001"


def _graph_ds(nodes, edges):
    n = ray.data.from_pandas(pd.DataFrame({"node": nodes}))
    e = ray.data.from_pandas(
        pd.DataFrame({"src": [s for s, _ in edges], "dst": [d for _, d in edges]})
    )
    return n, e


def _crafted():
    """Hub + chain + dangling sinks + an isolate (out=0 AND in=0)."""
    nodes = [f"n{i}" for i in range(12)]
    edges = []
    for i in range(1, 8):
        edges.append((f"n{i}", "n0"))  # hub in-links
    edges += [("n0", "n1"), ("n1", "n2"), ("n2", "n3")]  # chain
    edges += [("n4", "n9"), ("n5", "n9")]  # n9, n10 dangling sinks
    edges += [("n6", "n10")]
    # n11 isolate; duplicate edge for multiplicity semantics
    edges.append(("n0", "n1"))
    return nodes, edges


class TestPagerankCrafted:
    def test_distributed_matches_reference_loop(self, ray_session, set_buckets, set_pull_cap):
        nodes, edges = _crafted()
        want = pagerank_reference(nodes, edges)
        n, e = _graph_ds(nodes, edges)
        set_buckets(5)
        pulls = set_pull_cap(0)
        out = pagerank_ds(n, e).to_pandas()
        got = dict(zip(out["node"], out["rank"]))
        assert got == want
        assert pulls == ["shuffle"]

    def test_driver_path_identical(self, ray_session, set_pull_cap):
        nodes, edges = _crafted()
        n, e = _graph_ds(nodes, edges)
        fast = pagerank_ds(n, e).to_pandas()
        n2, e2 = _graph_ds(nodes, edges)
        pulls = set_pull_cap(0)
        slow = pagerank_ds(n2, e2).to_pandas()
        f = dict(zip(fast["node"], fast["rank"]))
        s = dict(zip(slow["node"], slow["rank"]))
        assert f == s
        assert pulls == ["shuffle"]

    def test_invariant_to_bucket_count(self, ray_session, set_buckets, set_pull_cap):
        nodes, edges = _crafted()
        ranks = []
        pulls = set_pull_cap(0)
        for nb in (1, 3, 17):
            n, e = _graph_ds(nodes, edges)
            set_buckets(nb)
            out = pagerank_ds(n, e).to_pandas()
            ranks.append(dict(zip(out["node"], out["rank"])))
        assert ranks[0] == ranks[1] == ranks[2]
        assert pulls == ["shuffle"] * 3

    def test_rank_mass_conserved_and_ordered(self):
        nodes, edges = _crafted()
        rank = pagerank_reference(nodes, edges)
        n = len(nodes)
        total = sum(rank.values())
        # floor divisions only LOSE mass; bounded by 1 unit per
        # division per iteration — total stays within a tiny band
        assert n * SCALE * 0.98 <= total <= n * SCALE
        # the hub (7 in-links) outranks the isolate; the isolate gets
        # exactly the no-inflow floor value
        assert rank["n0"] > rank["n11"]
        dshare_free = (15 * SCALE) // 100
        assert rank["n11"] >= dshare_free

    def test_empty_edges_uniform(self, ray_session):
        nodes = ["a", "b", "c"]
        n, e = _graph_ds(nodes, [])
        out = pagerank_ds(n, e).to_pandas()
        # all-dangling graph: every node identical by symmetry
        assert len(set(out["rank"])) == 1
        assert len(out) == 3


class TestPagerankCorpus:
    def test_matches_generator_truth(self, ray_session):
        """End-to-end pin: parse + link extraction + existence filter
        + iteration == the reference loop over corpusgen.page_links
        (truth recorded at synthesis time, independent of the DOM)."""
        from mlscraper_ray.pipelines.crawl_pipeline import corpus_for_sf
        from mlscraper_ray.sources import corpusgen

        _, spec = corpus_for_sf(0.001)
        nodes, urlset = [], set()
        for h in range(spec.n_hosts):
            for i in range(spec.n_pages(h)):
                u = spec.page_url(h, i)
                nodes.append(u)
                urlset.add(u)
        edges = [
            (spec.page_url(h, i), t)
            for h in range(spec.n_hosts)
            for i in range(spec.n_pages(h))
            for t in corpusgen.page_links(spec, h, i)
            if t in urlset
        ]
        want = pagerank_reference(nodes, edges)
        out = page_rank(SF_DIR)
        got = dict(zip(out["url"].to_pylist(), out["rank"].to_pylist()))
        assert got == want

    def test_distributed_corpus_path_matches_driver(self, ray_session, set_pull_cap):
        a = page_rank(SF_DIR)
        pulls = set_pull_cap(0)
        b = page_rank(SF_DIR)
        assert a.equals(b)
        assert pulls[-1] == "shuffle"  # the rank loop


class TestLinkStats:
    def test_anchor_twin_matches_extract_links(self):
        """extract_links_anchors must preserve extract_links' exact
        url semantics (absolutize, scheme filter, first-occurrence
        dedup) — anchors ride along, urls identical."""
        from mlscraper_ray.htmlcore.dom import parse_html
        from mlscraper_ray.stages.crawl_stages import (
            extract_links,
            extract_links_anchors,
        )

        html = (
            b'<html><body>'
            b'<a href="/a#frag">first</a>'
            b'<a href="http://x.com/b">second</a>'
            b'<a href="/a">dup-later</a>'
            b'<a href="urn:u:1">skipme</a>'
            b'<a>nohref</a>'
            b'<a href="ftp://x/z">scheme</a>'
            b'</body></html>'
        )
        doc = parse_html(html)
        base = "http://h.example/p/0"
        urls = extract_links(doc, base)
        pairs = extract_links_anchors(doc, base)
        assert [u for u, _ in pairs] == urls
        got = dict(pairs)
        assert got["http://h.example/a"] == "first"  # first occurrence wins
        assert got["http://x.com/b"] == "second"

    def test_matches_generator_truth(self, ray_session):
        from collections import Counter, defaultdict

        from mlscraper_ray.functions.pagerank import link_stats
        from mlscraper_ray.pipelines.crawl_pipeline import corpus_for_sf
        from mlscraper_ray.sources import corpusgen

        _, spec = corpus_for_sf(0.001)
        urls, urlset = [], set()
        for h in range(spec.n_hosts):
            for i in range(spec.n_pages(h)):
                u = spec.page_url(h, i)
                urls.append(u)
                urlset.add(u)
        inl = defaultdict(int)
        outl = defaultdict(int)
        hosts = defaultdict(set)
        anchors = defaultdict(Counter)
        for h in range(spec.n_hosts):
            for i in range(spec.n_pages(h)):
                src = spec.page_url(h, i)
                for t in corpusgen.page_links(spec, h, i):
                    if t not in urlset:
                        continue
                    outl[src] += 1
                    inl[t] += 1
                    hosts[t].add(corpusgen.url_host(src))
                    anchors[t][t.rsplit("/", 1)[-1]] += 1
        out = link_stats(SF_DIR).to_pandas()
        assert sorted(out["url"]) == sorted(urls)
        for row in out.itertuples(index=False):
            assert row.in_links == inl[row.url], row
            assert row.out_links == outl[row.url], row
            assert row.src_hosts == len(hosts[row.url]), row
            want_top = (
                min(anchors[row.url], key=lambda a: (-anchors[row.url][a], a))
                if anchors[row.url]
                else ""
            )
            assert row.top_anchor == want_top, row

    def test_invariant_to_bucket_count(self, ray_session, set_buckets):
        from mlscraper_ray.functions.pagerank import link_stats

        set_buckets(3)
        a = link_stats(SF_DIR)
        set_buckets(101)
        b = link_stats(SF_DIR)
        assert a.equals(b)

    def test_bucketed_existence_path_matches_broadcast(self, ray_session, set_pull_cap):
        """The existence filter's two paths build the same anchored
        edge set."""

        def anchored_edges() -> pd.DataFrame:
            _, edges = corpus_link_graph(SF_DIR, with_anchors=True)
            return edges.to_pandas().sort_values(["src", "dst", "anchor"], ignore_index=True)

        a = anchored_edges()
        pulls = set_pull_cap(0)
        b = anchored_edges()
        pd.testing.assert_frame_equal(a, b[a.columns.tolist()])
        assert len(a) > 0
        assert pulls == ["shuffle"]


def test_page_rank_bucketed_existence_matches_broadcast(ray_session, set_pull_cap):
    """page_rank over a graph whose existence filter (and rank loop)
    took the shuffle path equals the default run."""
    a = page_rank(SF_DIR)
    pulls = set_pull_cap(0)
    nodes, edges = corpus_link_graph(SF_DIR)
    b = pagerank_ds(nodes, edges).to_pandas()
    assert dict(zip(a["url"].to_pylist(), a["rank"].to_pylist())) == dict(
        zip(b["node"], b["rank"])
    )
    assert pulls == ["shuffle", "shuffle"]  # existence filter, then the rank loop


class TestHostRank:
    def test_conserves_page_level_totals(self, ray_session):
        from mlscraper_ray.functions.pagerank import host_rank

        hr = host_rank(SF_DIR).to_pandas()
        pr = page_rank(SF_DIR).to_pandas()
        assert hr["n_pages"].sum() == len(pr)
        assert hr["rank_total"].sum() == pr["rank"].sum()
        # in/out distinct-host degrees are symmetric in total
        assert hr["in_hosts"].sum() == hr["out_hosts"].sum()
        assert (hr["n_pages"] > 0).all()

    def test_crafted_cross_host_degrees(self, ray_session):
        """3 hosts, a->b twice (distinct pages), b->c, plus an
        intra-host edge that must NOT count toward host degree."""
        from mlscraper_ray.functions.pagerank import host_rank_ds, pagerank_ds

        nodes = [
            "http://a.com/1", "http://a.com/2",
            "http://b.com/1", "http://c.com/1",
        ]
        edges = [
            ("http://a.com/1", "http://b.com/1"),
            ("http://a.com/2", "http://b.com/1"),
            ("http://b.com/1", "http://c.com/1"),
            ("http://a.com/1", "http://a.com/2"),  # intra-host
        ]
        n, e = _graph_ds(nodes, edges)
        ranks = pagerank_ds(n, e)
        out = (
            host_rank_ds(n, e, ranks)
            .to_pandas()
            .sort_values("host", ignore_index=True)
        )
        got = {r.host: r for r in out.itertuples(index=False)}
        assert got["a.com"].n_pages == 2
        assert got["a.com"].out_hosts == 1 and got["a.com"].in_hosts == 0
        assert got["b.com"].in_hosts == 1 and got["b.com"].out_hosts == 1
        assert got["c.com"].in_hosts == 1 and got["c.com"].out_hosts == 0
        from mlscraper_ray.functions.pagerank import pagerank_reference

        want = pagerank_reference(nodes, edges)
        assert got["a.com"].rank_total == want["http://a.com/1"] + want["http://a.com/2"]


@pytest.mark.parametrize("seed", [7, 41])
def test_distributed_matches_reference_on_random_graphs(
    ray_session, set_buckets, set_pull_cap, seed
):
    """Seeded random digraphs (multi-edges, dangling nodes, isolates):
    the distributed path must equal the big-int reference loop node
    for node — also exercises the overflow assert on healthy input."""
    import random

    rng = random.Random(seed)
    n = 40
    nodes = [f"u{i}" for i in range(n)]
    edges = []
    for _ in range(rng.randrange(30, 120)):
        edges.append((rng.choice(nodes), rng.choice(nodes)))
    want = pagerank_reference(nodes, edges)
    nd, ed = _graph_ds(nodes, edges)
    set_buckets(rng.choice([1, 5, 13]))
    pulls = set_pull_cap(0)
    out = pagerank_ds(nd, ed).to_pandas()
    got = dict(zip(out["node"], out["rank"]))
    assert got == want
    assert pulls == ["shuffle"]


class TestGraphEdges:
    def test_graph_equals_independent_parse(self, ray_session):
        """The graph read from the facet table holds the node, edge and
        anchor sets of a parse done here: every non-robots page,
        extract_links_anchors, targets kept when they are pages."""
        import pyarrow.parquet as pq

        from mlscraper_ray.htmlcore.dom import parse_html
        from mlscraper_ray.pipelines.crawl_pipeline import corpus_for_sf, sf_of_dir
        from mlscraper_ray.stages.crawl_stages import extract_links_anchors

        corpus_dir, _ = corpus_for_sf(sf_of_dir(SF_DIR))
        pages = pq.read_table(f"{corpus_dir}/pages", columns=["url", "html"]).to_pandas()
        pages = pages[~pages["url"].str.endswith("/robots.txt")]
        rows = [
            (url, link, anchor)
            for url, html in zip(pages["url"], pages["html"])
            for link, anchor in extract_links_anchors(parse_html(html), url)
        ]
        want = pd.DataFrame(rows, columns=["src", "dst", "anchor"])
        want = want[want["dst"].isin(set(pages["url"]))]

        nodes, edges = corpus_link_graph(SF_DIR, with_anchors=True)
        assert sorted(nodes.to_pandas()["node"]) == sorted(pages["url"])
        got = edges.to_pandas()
        key = ["src", "dst", "anchor"]
        assert sorted(got[key].itertuples(index=False, name=None)) == sorted(
            want[key].itertuples(index=False, name=None)
        )
        assert len(want) > 0


class TestHostReciprocity:
    def test_crafted_asymmetric_graph(self, ray_session):
        """a<->b reciprocal, a->c one-way, c has no outlinks (absent);
        duplicate url-level edges collapse to one host pair; intra-host
        edges ignored. (The synthetic corpus graph is vertex-transitive
        — every host reads the same pct — so this is the per-host
        non-vacuity pin.)"""
        import ray.data

        from mlscraper_ray.functions.pagerank import host_reciprocity_ds

        e = pd.DataFrame(
            {
                "src": [
                    "http://a.x/1", "http://a.x/2",  # a->b twice (dedups)
                    "http://b.x/1",                   # b->a
                    "http://a.x/1",                   # a->c one-way
                    "http://a.x/1",                   # intra-host, ignored
                ],
                "dst": [
                    "http://b.x/1", "http://b.x/2",
                    "http://a.x/9",
                    "http://c.x/1",
                    "http://a.x/2",
                ],
            }
        )
        out = (
            host_reciprocity_ds(ray.data.from_pandas(e))
            .to_pandas()
            .set_index("host")
            .astype("int64")
        )
        assert out.loc["a.x", "out_hosts"] == 2      # b and c
        assert out.loc["a.x", "recip_hosts"] == 1    # only b
        assert out.loc["b.x", "out_hosts"] == 1
        assert out.loc["b.x", "recip_hosts"] == 1
        assert "c.x" not in out.index                # no outlinks


class TestHITS:
    def test_distributed_matches_reference_loop(self, ray_session, set_buckets, set_pull_cap):
        from mlscraper_ray.functions.hits import hits_ds, hits_reference

        nodes, edges = _crafted()
        want = hits_reference(nodes, edges)
        n, e = _graph_ds(nodes, edges)
        set_buckets(5)
        pulls = set_pull_cap(0)
        out = hits_ds(n, e).to_pandas()
        got = {r["node"]: (r["hub"], r["auth"]) for _, r in out.iterrows()}
        assert got == want
        assert pulls == ["shuffle"]

    def test_driver_path_identical(self, ray_session, set_pull_cap):
        from mlscraper_ray.functions.hits import hits_ds

        nodes, edges = _crafted()
        n, e = _graph_ds(nodes, edges)
        fast = hits_ds(n, e).to_pandas().sort_values("node", ignore_index=True)
        n2, e2 = _graph_ds(nodes, edges)
        pulls = set_pull_cap(0)
        slow = (
            hits_ds(n2, e2)
            .to_pandas()
            .sort_values("node", ignore_index=True)
            .astype(fast.dtypes.to_dict())
        )
        pd.testing.assert_frame_equal(fast, slow)
        assert pulls == ["shuffle"]

    def test_hub_authority_semantics(self):
        from mlscraper_ray.functions.hits import SCALE, hits_reference

        # star: c links to a1..a3; a1..a3 link nowhere
        nodes = ["c", "a1", "a2", "a3"]
        edges = [("c", "a1"), ("c", "a2"), ("c", "a3")]
        got = hits_reference(nodes, edges)
        assert got["c"][0] == SCALE and got["c"][1] == 0  # pure hub
        for a in ("a1", "a2", "a3"):
            assert got[a][1] == SCALE and got[a][0] == 0  # pure authorities

    @pytest.mark.parametrize("seed", [3, 29])
    def test_distributed_matches_reference_on_random_graphs(
        self, ray_session, set_buckets, set_pull_cap, seed
    ):
        import random

        from mlscraper_ray.functions.hits import hits_ds, hits_reference

        rng = random.Random(seed)
        nodes = [f"u{i}" for i in range(40)]
        edges = [
            (rng.choice(nodes), rng.choice(nodes))
            for _ in range(rng.randrange(30, 120))
        ]
        want = hits_reference(nodes, edges)
        nd, ed = _graph_ds(nodes, edges)
        set_buckets(rng.choice([1, 5, 13]))
        pulls = set_pull_cap(0)
        out = hits_ds(nd, ed).to_pandas()
        got = {r["node"]: (r["hub"], r["auth"]) for _, r in out.iterrows()}
        assert got == want
        assert pulls == ["shuffle"]

    def test_matches_generator_truth(self, ray_session):
        from oracle_compare import compare

        from mlscraper_ray.functions.hits import link_hits
        from mlscraper_ray.pipelines import truth_oracles

        c = compare(link_hits(SF_DIR), truth_oracles.hits_truth_sql(0.001), SF_DIR)
        assert c["hash_match"], c


class TestMainContent:
    def test_densest_block_rule(self):
        from mlscraper_ray.functions.content import pick_densest_block

        # cross-multiplied exact compare; tie keeps the earliest
        blocks = [("div", "a", 10, 1), ("div", "b", 20, 3), ("p", "c", 5, 0)]
        # densities: 10/2=5, 20/4=5, 5/1=5 -> all tie, first wins
        assert pick_densest_block(blocks) == 0
        blocks[1] = ("div", "b", 21, 3)  # 21/4 > 5
        assert pick_densest_block(blocks) == 1

    def test_extracted_text_hash_matches_dom_text(self, ray_session):
        """The chosen block's sha256 must equal hashing the block's
        DOM text directly (re-derived with an independent pass)."""
        import hashlib

        from mlscraper_ray.functions.content import extract_main_content
        from mlscraper_ray.htmlcore.dom import Element, parse_html
        from mlscraper_ray.pipelines.crawl_pipeline import corpus_for_sf
        from mlscraper_ray.sources.corpusgen import render_page

        out = extract_main_content(SF_DIR).to_pandas().set_index("url")
        _, spec = corpus_for_sf(0.001)
        checked = 0
        for h in range(min(3, spec.n_hosts)):
            for i in range(min(2, spec.n_pages(h))):
                url = spec.page_url(h, i)
                html, _ = render_page(spec, h, i)
                doc = parse_html(html.encode())
                body = doc.select("body", limit=1)[0]
                elems = [c for c in body.children if isinstance(c, Element)]
                row = out.loc[url]
                want = hashlib.sha256(elems[row.block_index].text.encode()).hexdigest()
                assert row.text_sha256 == want
                assert row.text_chars == len(elems[row.block_index].text)
                checked += 1
        assert checked >= 4


class TestWetCurate:
    def test_min_token_gate_and_empty_path(self, ray_session):
        from mlscraper_ray.functions.wet import wet_curate

        full = wet_curate(SF_DIR).to_pandas()
        assert len(full) > 0
        assert (full["n_tokens"] >= 20).all()
        # gate above every page's token count -> typed empty table
        none = wet_curate(SF_DIR, min_tokens=10**6).to_pandas()
        assert len(none) == 0
        assert list(none.columns) == ["url", "lang", "n_tokens", "n_dups", "text_sha256"]

    def test_sha_matches_main_content_extraction(self, ray_session):
        """The composite's kept text is exactly the main-content
        extractor's block text (same shared density rule)."""
        from mlscraper_ray.functions.content import extract_main_content
        from mlscraper_ray.functions.wet import wet_curate

        w = wet_curate(SF_DIR).to_pandas().set_index("url")
        m = extract_main_content(SF_DIR).to_pandas().set_index("url")
        for url, row in w.iterrows():
            assert m.loc[url, "text_sha256"] == row["text_sha256"]

    def test_sink_matches_contract_table_and_resumes(self, ray_session, tmp_path):
        import glob
        import os

        import pyarrow.parquet as pq

        from mlscraper_ray.functions.wet import wet_curate, wet_curate_to_parquet

        out_dir = str(tmp_path / "wet")
        r1 = wet_curate_to_parquet(SF_DIR, out_dir, n_shards=8)
        assert r1 == {"written": 8, "skipped": 0}
        files = sorted(glob.glob(out_dir + "/shard=*/*.parquet"))
        got = (
            pd.concat([pq.read_table(f).to_pandas() for f in files], ignore_index=True)
            .astype({"n_tokens": "int64", "n_dups": "int64"})
            .sort_values("url", ignore_index=True)
        )
        want = wet_curate(SF_DIR).to_pandas()
        cols = ["url", "lang", "n_tokens", "n_dups", "text_sha256"]
        pd.testing.assert_frame_equal(got[cols], want[cols])
        r2 = wet_curate_to_parquet(SF_DIR, out_dir, n_shards=8)
        assert r2 == {"written": 0, "skipped": 8}
        os.remove(os.path.join(out_dir, "shard=0005", "_SUCCESS"))
        r3 = wet_curate_to_parquet(SF_DIR, out_dir, n_shards=8)
        assert r3 == {"written": 1, "skipped": 7}


class TestLinkDistance:
    def test_distributed_equals_reference_on_random_digraphs(self, ray_session, set_pull_cap):
        """Frontier-expansion BFS == single-process reference on
        seeded random digraphs (cycles, unreachable islands, multiple
        seeds), on BOTH the driver fast path and the forced
        distributed loop."""
        import random

        import pyarrow as pa

        from mlscraper_ray.functions.graphdist import bfs_reference, link_distance_ds

        for seed in (1, 7):
            rng = random.Random(seed)
            n = 120
            urls = [f"u{i:03d}" for i in range(n)]
            edges = [
                (urls[rng.randrange(n)], urls[rng.randrange(n)]) for _ in range(420)
            ]
            seeds = [urls[0], urls[50]]
            want = bfs_reference(seeds, edges)
            eds = ray.data.from_arrow(
                pa.table(
                    {
                        "src": pa.array([e[0] for e in edges]),
                        "dst": pa.array([e[1] for e in edges]),
                    }
                )
            )
            for cap, path in ((2**40, "broadcast"), (0, "shuffle")):
                pulls = set_pull_cap(cap)
                got = (
                    link_distance_ds(eds, seeds)
                    .to_pandas()
                    .set_index("url")["dist"]
                    .to_dict()
                )
                assert got == want, (seed, cap)
                assert pulls == [path]
            # unreachable nodes are absent, seeds are 0
            assert all(want[s] == 0 for s in seeds)
            assert len(want) < n  # random digraph leaves islands

    def test_sink_matches_contract_table_and_resumes(self, ray_session, tmp_path):
        import glob
        import os

        import pyarrow.parquet as pq

        from mlscraper_ray.functions.graphdist import (
            link_distance_from_seeds,
            link_distance_to_parquet,
        )

        out_dir = str(tmp_path / "linkdist")
        r1 = link_distance_to_parquet(SF_DIR, out_dir, n_shards=8)
        assert r1 == {"written": 8, "skipped": 0}
        files = sorted(glob.glob(out_dir + "/shard=*/*.parquet"))
        got = (
            pd.concat([pq.read_table(f).to_pandas() for f in files], ignore_index=True)
            .astype({"dist": "int64"})
            .sort_values("url", ignore_index=True)
        )
        want = link_distance_from_seeds(SF_DIR).to_pandas()
        pd.testing.assert_frame_equal(got[["url", "dist"]], want[["url", "dist"]])
        r2 = link_distance_to_parquet(SF_DIR, out_dir, n_shards=8)
        assert r2 == {"written": 0, "skipped": 8}
        os.remove(os.path.join(out_dir, "shard=0003", "_SUCCESS"))
        r3 = link_distance_to_parquet(SF_DIR, out_dir, n_shards=8)
        assert r3 == {"written": 1, "skipped": 7}


class TestHostAssortativity:
    def test_nonregular_graph_hand_pinned(self, ray_session):
        """The synthetic corpus host graph is degree-REGULAR (every
        host links to exactly the same number of others), so its
        variance terms — and the milli score — are structurally 0;
        this crafts a star+chain graph with real degree spread and
        pins the exact moments and the isqrt-floored negative score.
        Hand calc: pairs a->b,a->c,a->d,b->c,c->d; out-degs a3 b1 c1,
        in-degs b1 c2 d2; n=5 sx=11 sy=9 sxx=29 syy=17 sxy=19;
        num=5*19-99=-4, dxx=24, dyy=4, isqrt(96)=9,
        milli=(-4000)//9=-445 (floor, not truncation)."""
        import ray.data

        from mlscraper_ray.functions.pagerank import host_assortativity_ds

        e = pd.DataFrame(
            {
                "src": [
                    "http://a.x/1", "http://a.x/1", "http://a.x/2",
                    "http://b.x/1", "http://c.x/1",
                    "http://a.x/9",  # duplicate host pair a->b: dedups
                ],
                "dst": [
                    "http://b.x/1", "http://c.x/1", "http://d.x/1",
                    "http://c.x/2", "http://d.x/2",
                    "http://b.x/7",
                ],
            }
        )
        out = host_assortativity_ds(ray.data.from_pandas(e)).to_pandas()
        assert out.to_dict("records") == [
            {
                "n_edges": 5, "sum_x": 11, "sum_y": 9, "sum_xx": 29,
                "sum_yy": 17, "sum_xy": 19, "assort_milli": -445,
            }
        ]

    def test_broadcast_and_cogroup_paths_equal(self, ray_session, set_pull_cap):
        """A pull cap of 0 forces the degree attach down the cogroup
        fallback; both paths must produce identical statistics."""
        import ray.data

        from mlscraper_ray.functions.pagerank import host_assortativity_ds

        e = pd.DataFrame(
            {
                "src": ["http://a.x/1", "http://a.x/1", "http://a.x/2",
                        "http://b.x/1", "http://c.x/1"],
                "dst": ["http://b.x/1", "http://c.x/1", "http://d.x/1",
                        "http://c.x/2", "http://d.x/2"],
            }
        )
        fast = host_assortativity_ds(ray.data.from_pandas(e)).to_pandas()
        pulls = set_pull_cap(0)
        slow = host_assortativity_ds(ray.data.from_pandas(e)).to_pandas()
        pd.testing.assert_frame_equal(fast, slow)
        assert pulls == ["shuffle"]
