"""Constant-table DuckDB oracles for the pipelines whose ground truth
is not derivable from the registered testdata views — it lives in the
GENERATOR (corpusgen records every page's expected extraction value
and html bytes at synthesis time) or in the single-process ORACLE
CRAWLER (frontier/oracle.py, the independent reference implementation
of the crawl semantics).

Each builder renders that independent ground truth as a ``VALUES``
constant table, so the driver's DuckDB compare can hash-check the
crawl/extract/WARC pipelines the same way it checks the relational
ones — upgrading them from rows-only to full value pins. Nothing here
touches Ray or the distributed pipelines' code paths: extraction truth
is the generator's ``golden.parquet`` (written from the page TEMPLATE,
not from any DOM/learner output), WARC truth is the generator's page
bytes, and crawl truth is the plain-dict oracle crawler.

``TRUTH`` maps each registry name to its builder ``(sf) -> SQL``.
Three helpers carry what the builders share:

- :func:`_cached` stores the rendered SQL next to the corpus, keyed by
  a digest of the builder's parameters and of the source of every
  module its truth depends on, and deletes the entries of older
  digests when it commits a new one;
- :func:`_generator_graph` is the corpus link graph from the
  generator's own link records (and :func:`_host_pairs` its distinct
  cross-host pairs), independent of the parse under test;
- :func:`_crawl_truth` runs the oracle crawler under one
  ``crawl_pipeline.CRAWL_VARIANTS`` config — the same table the
  distributed crawl queries read, with the tier counts computed here
  by independent paths — and renders its fetch log or counters
  through a row function.
"""
from __future__ import annotations

import hashlib
import json
import os
from collections import Counter, defaultdict
from functools import partial

import pyarrow.parquet as pq

from mlscraper_ray.pipelines import crawl_pipeline as cp
from mlscraper_ray.sources import corpusgen


def _lit(v) -> str:
    if v is None:
        return "NULL"
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    return str(v)


def values_sql(rows: list[tuple], cols: list[str]) -> str:
    """``SELECT * FROM (VALUES ...)`` constant table; column names are
    double-quoted (``round`` etc. collide with function names)."""
    body = ",\n".join("(" + ", ".join(_lit(v) for v in row) + ")" for row in rows)
    names = ", ".join(f'"{c}"' for c in cols)
    return f"SELECT * FROM (VALUES\n{body}\n) AS t({names})"


def _ordered(rows: list[tuple], cols: list[str]) -> str:
    """:func:`values_sql` ordered by its first column."""
    return values_sql(rows, cols) + f' ORDER BY "{cols[0]}"'


def _cached(sf: float, name: str, build, *modules, params: str = "") -> str:
    """``build(corpus_dir, spec)``'s SQL, cached in the corpus dir of
    scale ``sf`` under ``name`` and a digest of ``params`` (every input
    beyond the corpus itself, e.g. the crawl config) and the source of
    ``modules`` (the truth-producing code) — a stale file from an older
    config or code version can never be served, and committing a new
    digest deletes the files of the old ones."""
    from mlscraper_ray.functions.sinks import prune_stale

    corpus_dir, spec = cp.corpus_for_sf(sf)
    h = hashlib.md5(params.encode())
    for mod in modules:
        with open(mod.__file__, "rb") as f:
            h.update(f.read())
    path = os.path.join(corpus_dir, f"_oracle_{name}_{h.hexdigest()[:10]}.sql")
    if os.path.exists(path):
        with open(path) as f:
            return f.read()
    sql = build(corpus_dir, spec)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(sql)
    os.replace(tmp, path)
    prune_stale(path)
    return sql


def _generator_graph(spec) -> tuple[list[str], list[tuple[str, str]]]:
    """(nodes, edges) of the corpus link graph from the GENERATOR's own
    link records (corpusgen.page_links), independent of the pipeline's
    HTML parse and link extraction: every content page url in (host,
    page) order, and every (src, dst) link whose target is a corpus
    page, in page then link order."""
    nodes = [spec.page_url(h, i) for h in range(spec.n_hosts) for i in range(spec.n_pages(h))]
    urlset = set(nodes)
    edges = [
        (spec.page_url(h, i), t)
        for h in range(spec.n_hosts)
        for i in range(spec.n_pages(h))
        for t in corpusgen.page_links(spec, h, i)
        if t in urlset
    ]
    return nodes, edges


def _host_pairs(spec) -> set[tuple[str, str]]:
    """Distinct directed cross-host (src_host, dst_host) pairs over the
    generator graph's edges — the host graph the host operators fold."""
    pairs = {(corpusgen.url_host(s), corpusgen.url_host(d)) for s, d in _generator_graph(spec)[1]}
    return {(a, b) for a, b in pairs if a != b}


def _host_adjacency(spec) -> dict[str, set[str]]:
    """Undirected neighbor sets of the cross-host graph."""
    adj: dict = defaultdict(set)
    for a, b in _host_pairs(spec):
        adj[a].add(b)
        adj[b].add(a)
    return adj


def extract_truth_sql(sf: float) -> str:
    """(url, value_json) for EVERY corpus page, from generator ground
    truth: content pages carry the entry list recorded in
    ``golden.parquet`` at synthesis time; robots.txt bodies contain no
    entry markup, so the learned list scraper's value is ``[]`` — also
    a generator-level fact (the robots template has no elements)."""

    def build(corpus_dir, spec) -> str:
        golden = pq.read_table(os.path.join(corpus_dir, "golden.parquet"))
        rows = list(zip(golden["url"].to_pylist(), golden["expected_json"].to_pylist()))
        rows += [(spec.robots_url(h), "[]") for h in range(spec.n_hosts)]
        return _ordered(sorted(rows), ["url", "value_json"])

    return _cached(sf, "extract", build, corpusgen)


def learn_plan_truth_sql(sf: float = 0.01) -> str:
    """1-row (plan_json) constant table from the GENERATOR's template
    knowledge (:func:`corpusgen.expected_plan` derives the plan the
    reference-semantics learner must produce straight from the
    synthesis-time page structure — it never runs the learner), so
    both ``learn_plan`` and ``learn_plan_parallel`` get a full value
    pin instead of the rows-only check. Scale-independent: every sf
    renders the same template. ``sf`` is accepted for builder-signature
    symmetry only."""
    plan_json = json.dumps(corpusgen.expected_plan(), sort_keys=True)
    return f"SELECT {_lit(plan_json)} AS plan_json"


def warc_truth_sql(sf: float) -> str:
    """(url, html_sha256, html_bytes) for every corpus page, digested
    from the generator's page bytes — any corruption in the WARC
    write/read round-trip flips the hash."""

    def build(corpus_dir, spec) -> str:
        import glob

        rows = []
        for f in sorted(glob.glob(os.path.join(corpus_dir, "pages", "*", "*.parquet"))):
            t = pq.read_table(f, columns=["url", "html"])
            for url, html in zip(t["url"].to_pylist(), t["html"].to_pylist()):
                rows.append((url, hashlib.sha256(html).hexdigest(), len(html)))
        return _ordered(sorted(rows), ["url", "html_sha256", "html_bytes"])

    return _cached(sf, "warc", build, corpusgen)


def _host_page_counts_local(corpus_dir: str) -> dict:
    """Single-process per-host page counts straight off the corpus
    parquet — the INDEPENDENT twin of the pipeline's distributed
    bucketed aggregate (only the tier RULE is shared; the counts reach
    it by disjoint code paths)."""
    import pyarrow.dataset as pads

    c: Counter = Counter()
    for batch in pads.dataset(
        os.path.join(corpus_dir, "pages"), format="parquet"
    ).to_batches(columns=["url"]):
        c.update(corpusgen.url_host(u) for u in batch.column("url").to_pylist())
    return dict(c)


def _reference_host_rank_totals(spec) -> dict[str, int]:
    """Per-host integer rank mass from GENERATOR link records + the
    single-process reference PageRank loop — the independent twin of
    crawl_pipeline.host_rank_totals_distributed (fixed-point integers
    make the two paths bit-equal)."""
    from mlscraper_ray.functions import pagerank as pagerank_mod

    nodes, edges = _generator_graph(spec)
    rank = pagerank_mod.pagerank_reference(nodes, edges, 4, 85)
    totals: dict[str, int] = defaultdict(int)
    for u in nodes:
        totals[corpusgen.url_host(u)] += rank[u]
    return dict(totals)


def _crawl_truth(sf: float, variant: str, name: str, cols: list[str], rows_of) -> str:
    """The single-process oracle crawler run under the ``variant``
    config of ``crawl_pipeline.CRAWL_VARIANTS`` (plan left empty —
    extraction doesn't influence crawl order), rendered as the table
    ``rows_of(fetches, counters)`` ordered by its first column. The
    tier counts come from a local corpus scan (page counts) or the
    generator graph + reference PageRank loop (rank mass), independent
    of the distributed parse/graph/rank path under test."""
    from mlscraper_ray.frontier import oracle as oracle_mod
    from mlscraper_ray.functions import pagerank as pagerank_mod

    corpus_dir, spec = cp.corpus_for_sf(sf)
    tier_counts = {
        "pages": lambda: _host_page_counts_local(corpus_dir),
        "rank": lambda: _reference_host_rank_totals(spec),
    }
    cfg = cp.variant_config(spec, {}, variant, tier_counts)

    def build(corpus_dir, spec) -> str:
        fetches, _, _, counters = oracle_mod.oracle_crawl(corpus_dir, cfg)
        return _ordered(rows_of(fetches, counters), cols)

    return _cached(
        sf, name, build, oracle_mod, cp, corpusgen, pagerank_mod,
        params=json.dumps(cfg.to_dict(), sort_keys=True),
    )


def _order_rows(fetches, counters) -> list[tuple]:
    """(rank, round, depth, host, url): the fetch log in order."""
    return [(rank, rnd, depth, host, url) for rank, (rnd, depth, host, url) in enumerate(fetches)]


def _metrics_rows(fetches, counters) -> list[tuple]:
    """(round, n_fetched, n_hosts, max_depth) per round."""
    per: dict = defaultdict(lambda: {"n": 0, "hosts": set(), "d": 0})
    for rnd, depth, host, _url in fetches:
        p = per[rnd]
        p["n"] += 1
        p["hosts"].add(host)
        p["d"] = max(p["d"], depth)
    return [(rnd, per[rnd]["n"], len(per[rnd]["hosts"]), per[rnd]["d"]) for rnd in sorted(per)]


def _counter_rows(fetches, counters) -> list[tuple]:
    """Final (counter, value) totals — the one-for-one pin of every
    distributed dedup/robots/depth decision."""
    return [(n, int(counters.get(n, 0))) for n in sorted(cp.CRAWL_COUNTER_NAMES)]


def _depth_rows(fetches, counters) -> list[tuple]:
    """(depth, n_urls, n_hosts): the depth census one aggregate above
    the per-round metrics."""
    per: dict = defaultdict(lambda: {"n": 0, "hosts": set()})
    for _rnd, depth, host, _url in fetches:
        per[depth]["n"] += 1
        per[depth]["hosts"].add(host)
    return [(d, per[d]["n"], len(per[d]["hosts"])) for d in sorted(per)]


def _crawl_order_truth(variant: str, name: str):
    return partial(
        _crawl_truth, variant=variant, name=name,
        cols=["rank", "round", "depth", "host", "url"], rows_of=_order_rows,
    )


def robots_stats_truth_sql(sf: float) -> str:
    """(host, n_rules, n_pages, n_blocked) straight from the
    generator's synthesis-time policy: every 5th host disallows
    /private/, every 7th page (i > 0) is private — no robots parsing
    anywhere on this side, so the engine's RobotsRules.parse +
    allowed() semantics are what the hash pins."""
    from mlscraper_ray.frontier import robots as robots_mod

    def build(corpus_dir, spec) -> str:
        rows = []
        for h in range(spec.n_hosts):
            n = spec.n_pages(h)
            private = sum(
                1 for i in range(n) if i % spec.private_every == 0 and i > 0
            )
            dis = spec.host_disallows_private(h)
            rows.append((spec.host(h), 1 if dis else 0, n, private if dis else 0))
        return _ordered(sorted(rows), ["host", "n_rules", "n_pages", "n_blocked"])

    return _cached(sf, "robots_stats", build, corpusgen, robots_mod)


def host_reciprocity_truth_sql(sf: float) -> str:
    """(host, out_hosts, recip_hosts, recip_pct) recomputed from the
    generator's link records: distinct cross-host directed pairs over
    EXISTING-page edges, reciprocity by set lookup — independent of
    the distributed pair-fold path. Hosts with zero distinct
    cross-host out-neighbors are absent (mirroring the engine)."""
    from mlscraper_ray.functions import pagerank as pagerank_mod

    def build(corpus_dir, spec) -> str:
        pair_set = _host_pairs(spec)
        outs: dict = defaultdict(set)
        for sh, dh in pair_set:
            outs[sh].add(dh)
        rows = []
        for host in sorted(outs):
            out_n = len(outs[host])
            recip = sum(1 for dh in outs[host] if (dh, host) in pair_set)
            rows.append((host, out_n, recip, (100 * recip) // out_n))
        return _ordered(rows, ["host", "out_hosts", "recip_hosts", "recip_pct"])

    return _cached(sf, "host_recip", build, corpusgen, pagerank_mod)


def template_truth_sql(sf: float) -> str:
    """(tpl_hash, n_pages, sample_url) template clusters recomputed
    from the generator's synthesis-time structure: each rendered page
    has the FIXED preorder skeleton header/content/entries/links/
    footer parameterized only by its entry and link counts, so the
    expected token sequence (and its md5) derives from
    page_entries/page_links WITHOUT touching the engine's DOM parser —
    the constant table pins preorder traversal + class extraction."""
    from mlscraper_ray.functions import templates as templates_mod

    def build(corpus_dir, spec) -> str:
        clusters: dict = defaultdict(lambda: {"n": 0, "min_url": None})
        for h in range(spec.n_hosts):
            for i in range(spec.n_pages(h)):
                n_e = len(corpusgen.page_entries(spec, h, i))
                n_l = len(corpusgen.page_links(spec, h, i))
                toks = ["html", "head", "title", "body", "div.header", "h1", "div.content"]
                toks += ["div.entry", "span.votes", "div.who", "a", "span.when", "p.body"] * n_e
                toks += ["ul.links"] + ["li", "a"] * n_l
                toks += ["div.footer", "p"]
                tpl = hashlib.md5(" ".join(toks).encode()).hexdigest()
                c = clusters[tpl]
                c["n"] += 1
                url = spec.page_url(h, i)
                if c["min_url"] is None or url < c["min_url"]:
                    c["min_url"] = url
        rows = [
            (tpl, clusters[tpl]["n"], clusters[tpl]["min_url"])
            for tpl in sorted(clusters)
        ]
        return _ordered(rows, ["tpl_hash", "n_pages", "sample_url"])

    return _cached(sf, "templates", build, corpusgen, templates_mod)


def pagerank_truth_sql(sf: float, n_iters: int = 4, damping_pct: int = 85) -> str:
    """(url, rank) from the single-process integer PageRank loop run
    over the corpus GENERATOR's own link records
    (:func:`_generator_graph` — independent of the pipeline's HTML
    parse / link-extraction path), so the oracle value-pins
    extraction, graph assembly and the distributed iteration in one
    table. Integer fixed-point arithmetic (functions/pagerank.py)
    makes the loop's output exact, so the constant table hash-matches
    bit-for-bit."""
    from mlscraper_ray.functions import pagerank as pagerank_mod

    def build(corpus_dir, spec) -> str:
        nodes, edges = _generator_graph(spec)
        rank = pagerank_mod.pagerank_reference(nodes, edges, n_iters, damping_pct)
        return _ordered(sorted((u, rank[u]) for u in nodes), ["url", "rank"])

    return _cached(
        sf, "pagerank", build, corpusgen, pagerank_mod, params=f"{n_iters}:{damping_pct}"
    )


def hits_truth_sql(sf: float, n_iters: int = 4) -> str:
    """(url, hub, auth) from the single-process integer HITS loop run
    over the corpus GENERATOR's own link records
    (:func:`_generator_graph` — independent of the pipeline's HTML
    parse / link-extraction path). Integer fixed-point
    max-normalization makes the loop exact, so the constant table
    hash-matches bit-for-bit."""
    from mlscraper_ray.functions import hits as hits_mod

    def build(corpus_dir, spec) -> str:
        nodes, edges = _generator_graph(spec)
        ha = hits_mod.hits_reference(nodes, edges, n_iters)
        return _ordered(sorted((u, ha[u][0], ha[u][1]) for u in nodes), ["url", "hub", "auth"])

    return _cached(sf, "hits", build, corpusgen, hits_mod, params=f"{n_iters}")


def link_distance_truth_sql(sf: float) -> str:
    """(url, dist) BFS distances from the seed manifest, recomputed by
    the single-process reference walk over the corpus GENERATOR's own
    link records (:func:`_generator_graph` — independent of the
    pipeline's HTML parse / link-extraction path), so the constant
    table pins extraction, graph assembly and the distributed frontier
    iteration in one value check. Seeds mirror corpusgen's
    seeds.parquet rule (first content page of the first n_seeds
    hosts)."""
    from mlscraper_ray.functions import graphdist as graphdist_mod

    def build(corpus_dir, spec) -> str:
        seeds = [spec.page_url(h, 1) for h in range(min(spec.n_seeds, spec.n_hosts))]
        dist = graphdist_mod.bfs_reference(seeds, _generator_graph(spec)[1])
        return _ordered(sorted(dist.items()), ["url", "dist"])

    return _cached(sf, "linkdist", build, corpusgen, graphdist_mod)


def link_stats_truth_sql(sf: float) -> str:
    """(url, in_links, src_hosts, out_links, top_anchor) per corpus
    page, recomputed from the generator graph plus the generator's
    anchor rule (last path segment — render_page writes
    ``<a href=u>{u.rsplit('/',1)[-1]}</a>``), independent of the DOM
    parse / anchor-extraction path under test."""

    def build(corpus_dir, spec) -> str:
        urls, edges = _generator_graph(spec)
        inl: dict[str, int] = defaultdict(int)
        outl: dict[str, int] = defaultdict(int)
        hosts: dict[str, set] = defaultdict(set)
        anchors: dict[str, Counter] = defaultdict(Counter)
        for src, t in edges:
            outl[src] += 1
            inl[t] += 1
            hosts[t].add(corpusgen.url_host(src))
            anchors[t][t.rsplit("/", 1)[-1]] += 1
        rows = []
        for u in sorted(urls):
            top = ""
            if anchors[u]:
                top = min(anchors[u], key=lambda a: (-anchors[u][a], a))
            rows.append((u, inl[u], len(hosts[u]), outl[u], top))
        return _ordered(rows, ["url", "in_links", "src_hosts", "out_links", "top_anchor"])

    return _cached(sf, "linkstats", build, corpusgen)


def host_rank_truth_sql(sf: float, n_iters: int = 4, damping_pct: int = 85) -> str:
    """(host, n_pages, rank_total, in_hosts, out_hosts) recomputed
    from the generator graph + the single-process integer PageRank
    loop — independent of the parse/extract/aggregation path under
    test. rank_total is an exact integer sum of fixed-point page
    ranks; in/out_hosts count distinct OTHER hosts with an in-corpus
    edge."""
    from mlscraper_ray.functions import pagerank as pagerank_mod

    def build(corpus_dir, spec) -> str:
        nodes, edges = _generator_graph(spec)
        rank = pagerank_mod.pagerank_reference(nodes, edges, n_iters, damping_pct)
        n_pages: dict[str, int] = defaultdict(int)
        rank_total: dict[str, int] = defaultdict(int)
        inh: dict[str, set] = defaultdict(set)
        outh: dict[str, set] = defaultdict(set)
        for u in nodes:
            hh = corpusgen.url_host(u)
            n_pages[hh] += 1
            rank_total[hh] += rank[u]
        for sh, dh in _host_pairs(spec):
            inh[dh].add(sh)
            outh[sh].add(dh)
        rows = [
            (hh, n_pages[hh], rank_total[hh], len(inh[hh]), len(outh[hh]))
            for hh in sorted(n_pages)
        ]
        return _ordered(rows, ["host", "n_pages", "rank_total", "in_hosts", "out_hosts"])

    return _cached(
        sf, "hostrank", build, corpusgen, pagerank_mod, params=f"{n_iters}:{damping_pct}"
    )


def _template_page_blocks(spec, h: int, i: int):
    """(blocks, texts) of page (h, i)'s top-level body children
    recomputed from the GENERATOR's template (render_page structure:
    body = [div.header(h1), div.content(6 elements per entry),
    ul.links(2 per link), div.footer(p)]; RNG draw order = filler
    first, then 12 body words per entry) — synthesis-time knowledge,
    independent of the DOM parser. Shared by the main-content and WET
    truth builders."""
    rng = corpusgen._page_rng(spec, h, i)
    entries = corpusgen.page_entries(spec, h, i)
    links = corpusgen.page_links(spec, h, i)
    filler = " ".join(rng.choice(corpusgen._WORDS) for _ in range(spec.filler_words))
    title = f"{spec.host(h)} page {i}"
    content_text = "".join(
        e["votes"]
        + "user"
        + "some time ago"
        + " ".join(rng.choice(corpusgen._WORDS) for _ in range(12))
        for e in entries
    )
    links_text = "".join(u.rsplit("/", 1)[-1] for u in links)
    blocks = [
        ("div", "header", len(title), 1),
        ("div", "content", len(content_text), 6 * len(entries)),
        ("ul", "links", len(links_text), 2 * len(links)),
        ("div", "footer", len(filler), 1),
    ]
    return blocks, [title, content_text, links_text, filler]


def main_content_truth_sql(sf: float) -> str:
    """(url, block_index, block_tag, block_class, text_chars,
    text_sha256) for every corpus content page, recomputed from the
    GENERATOR's page template — the block structure, per-block text
    and descendant-element counts are synthesis-time facts
    (:func:`_template_page_blocks`) — fully independent of the DOM
    parser under test. The density argmax itself is the shared
    functions/content.pick_densest_block rule."""
    from mlscraper_ray.functions import content as content_mod

    def build(corpus_dir, spec) -> str:
        rows = []
        for h in range(spec.n_hosts):
            for i in range(spec.n_pages(h)):
                blocks, texts = _template_page_blocks(spec, h, i)
                k = content_mod.pick_densest_block(blocks)
                rows.append(
                    (
                        spec.page_url(h, i),
                        k,
                        blocks[k][0],
                        blocks[k][1],
                        blocks[k][2],
                        hashlib.sha256(texts[k].encode()).hexdigest(),
                    )
                )
        return _ordered(
            sorted(rows),
            ["url", "block_index", "block_tag", "block_class", "text_chars", "text_sha256"],
        )

    return _cached(sf, "maincontent", build, corpusgen, content_mod)


def page_profile_truth_sql(sf: float) -> str:
    """(url, block_index, text_chars, text_sha256, n_tokens, lang,
    n_links) per content page — the FUSED single-parse profile,
    replayed facet by facet from the generator template (blocks,
    main-text stats) and the generator link records (distinct
    targets), independent of the parse/extract path under test."""
    from mlscraper_ray.functions import content as content_mod
    from mlscraper_ray.functions import textstats as textstats_mod

    def build(corpus_dir, spec) -> str:
        rows = []
        for h in range(spec.n_hosts):
            for i in range(spec.n_pages(h)):
                blocks, texts = _template_page_blocks(spec, h, i)
                k = content_mod.pick_densest_block(blocks)
                text = texts[k]
                lang, _ = textstats_mod.lang_vote(text)
                n_links = len(set(corpusgen.page_links(spec, h, i)))
                rows.append(
                    (
                        spec.page_url(h, i),
                        k,
                        blocks[k][2],
                        hashlib.sha256(text.encode()).hexdigest(),
                        len(text.split()),
                        lang,
                        n_links,
                    )
                )
        return _ordered(
            sorted(rows),
            ["url", "block_index", "text_chars", "text_sha256", "n_tokens", "lang", "n_links"],
        )

    # textstats is digested: the hashed lang column comes from lang_vote
    return _cached(sf, "pageprofile", build, corpusgen, content_mod, textstats_mod)


def wet_curate_truth_sql(sf: float, min_tokens: int = 20) -> str:
    """(url, n_tokens, n_dups, text_sha256) of the WET composite's
    kept canonical pages, replayed single-process over the generator
    template: densest-block text (shared pick_densest_block rule),
    shared lang_vote tag, min-token gate, md5(text) dedup keeping
    the smallest url — pinning the distributed extraction + gating +
    dedup plumbing end to end."""
    from mlscraper_ray.functions import content as content_mod
    from mlscraper_ray.functions import textstats as textstats_mod
    from mlscraper_ray.functions import wet as wet_mod

    def build(corpus_dir, spec) -> str:
        groups: dict[str, list] = {}
        for h in range(spec.n_hosts):
            for i in range(spec.n_pages(h)):
                blocks, texts = _template_page_blocks(spec, h, i)
                text = texts[content_mod.pick_densest_block(blocks)]
                lang, _ = textstats_mod.lang_vote(text)
                n_tokens = len(text.split())
                if n_tokens < min_tokens:
                    continue
                key_h = hashlib.md5(text.encode()).hexdigest()
                groups.setdefault(key_h, []).append(
                    (
                        spec.page_url(h, i),
                        lang,
                        n_tokens,
                        hashlib.sha256(text.encode()).hexdigest(),
                    )
                )
        rows = []
        for members in groups.values():
            url = min(m[0] for m in members)
            lang = min(m[1] for m in members)
            rows.append((url, lang, members[0][2], len(members), members[0][3]))
        return _ordered(sorted(rows), ["url", "lang", "n_tokens", "n_dups", "text_sha256"])

    return _cached(
        sf, "wet", build, corpusgen, content_mod, wet_mod, textstats_mod,
        params=f"{min_tokens}",
    )


def host_triangles_truth_sql(sf: float) -> str:
    """(host, degree, triangles, clustering_milli) recomputed from
    the generator's link records: undirected cross-host edge set over
    EXISTING-page links, per-host triangle count by neighbor-pair set
    lookup, coefficient in exact fixed-point — independent of the
    distributed orientation/wedge path under test."""
    from mlscraper_ray.functions import pagerank as pagerank_mod

    def build(corpus_dir, spec) -> str:
        adj = _host_adjacency(spec)
        rows = []
        for host in sorted(adj):
            nbrs = sorted(adj[host])
            d = len(nbrs)
            t = sum(
                1
                for i in range(d)
                for j in range(i + 1, d)
                if nbrs[j] in adj[nbrs[i]]
            )
            milli = (2000 * t) // (d * (d - 1)) if d >= 2 else 0
            rows.append((host, d, t, milli))
        return _ordered(rows, ["host", "degree", "triangles", "clustering_milli"])

    return _cached(sf, "host_tri", build, corpusgen, pagerank_mod)


def host_kcore_truth_sql(sf: float) -> str:
    """(host, coreness) recomputed from the generator's link records
    with the ITERATIVE threshold peeling (repeatedly delete every
    host of degree < k before raising k) — an independent formulation
    of coreness from the engine's min-degree heap peel, so the two
    agreeing pins the decomposition itself."""
    from mlscraper_ray.functions import pagerank as pagerank_mod

    def build(corpus_dir, spec) -> str:
        live = _host_adjacency(spec)
        core: dict = {}
        k = 1
        while live:
            victims = [h for h, n in live.items() if len(n) < k]
            if not victims:
                k += 1
                continue
            for h in victims:
                core[h] = k - 1
                for nb in live[h]:
                    if nb != h and nb in live:
                        live[nb].discard(h)
                del live[h]
        return _ordered([(h, core[h]) for h in sorted(core)], ["host", "coreness"])

    return _cached(sf, "host_kcore", build, corpusgen, pagerank_mod)


def host_communities_truth_sql(sf: float, n_rounds: int = 8) -> str:
    """(host, community) recomputed from the generator's link records:
    undirected cross-host edge set over EXISTING-page links, then the
    deterministic synchronous label propagation (self-inclusive vote,
    most-frequent label, lexicographic tie-break, fixed rounds) —
    independent of the engine's parse/graph-assembly and of its
    distributed join/argmax plumbing (which is what the pin targets;
    the propagation rule itself is shared by definition)."""
    from mlscraper_ray.functions import pagerank as pagerank_mod

    def build(corpus_dir, spec) -> str:
        adj = _host_adjacency(spec)
        label = {h: h for h in adj}
        for _ in range(n_rounds):
            new = {}
            for h, nbrs in adj.items():
                cnt = Counter()
                cnt[label[h]] += 1
                for nb in nbrs:
                    cnt[label[nb]] += 1
                new[h] = min(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            label = new
        return _ordered([(h, label[h]) for h in sorted(label)], ["host", "community"])

    return _cached(sf, "host_lpa", build, corpusgen, pagerank_mod, params=f"{n_rounds}")


def host_assortativity_truth_sql(sf: float) -> str:
    """Single-row exact assortativity statistics recomputed from the
    generator's link records (distinct cross-host pairs over
    EXISTING-page edges, same universe as host_reciprocity_truth) —
    arbitrary-precision Python integers end to end, so the constant
    table pins both the moment sums and the isqrt-floored milli
    score independently of the distributed join/fold path."""
    import math

    from mlscraper_ray.functions import pagerank as pagerank_mod

    def build(corpus_dir, spec) -> str:
        pair_set = _host_pairs(spec)
        od: dict = defaultdict(int)
        idg: dict = defaultdict(int)
        for sh, dh in pair_set:
            od[sh] += 1
            idg[dh] += 1
        n = len(pair_set)
        sx = sum(od[sh] for sh, _ in pair_set)
        sy = sum(idg[dh] for _, dh in pair_set)
        sxx = sum(od[sh] ** 2 for sh, _ in pair_set)
        syy = sum(idg[dh] ** 2 for _, dh in pair_set)
        sxy = sum(od[sh] * idg[dh] for sh, dh in pair_set)
        num = n * sxy - sx * sy
        den = math.isqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
        milli = (1000 * num) // den if den > 0 else 0
        rows = [(n, sx, sy, sxx, syy, sxy, milli)]
        return values_sql(
            rows,
            ["n_edges", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy", "assort_milli"],
        )

    return _cached(sf, "host_assort", build, corpusgen, pagerank_mod)


# registry name -> truth builder ``(sf) -> SQL``
TRUTH = {
    "extract_all": extract_truth_sql,
    "extract_from_warc": extract_truth_sql,
    "learn_plan": learn_plan_truth_sql,
    "learn_plan_parallel": learn_plan_truth_sql,
    "warc_roundtrip": warc_truth_sql,
    "crawl_order": _crawl_order_truth("plain", "crawl_order"),
    "crawl_order_recrawl": _crawl_order_truth("recrawl", "recrawl_order"),
    "crawl_order_tiered": _crawl_order_truth("tiered", "tiered_order"),
    "crawl_order_ranked": _crawl_order_truth("ranked", "ranked_order"),
    "crawl_order_tiered_recrawl": _crawl_order_truth("tiered_recrawl", "tiered_recrawl_order"),
    "crawl_metrics": partial(
        _crawl_truth, variant="plain", name="crawl_metrics",
        cols=["round", "n_fetched", "n_hosts", "max_depth"], rows_of=_metrics_rows,
    ),
    "crawl_counter_totals": partial(
        _crawl_truth, variant="plain", name="crawl_counters",
        cols=["counter", "value"], rows_of=_counter_rows,
    ),
    "crawl_depth_histogram": partial(
        _crawl_truth, variant="plain", name="crawl_depthhist",
        cols=["depth", "n_urls", "n_hosts"], rows_of=_depth_rows,
    ),
    "robots_stats": robots_stats_truth_sql,
    "page_rank": pagerank_truth_sql,
    "link_hits": hits_truth_sql,
    "link_distance_from_seeds": link_distance_truth_sql,
    "link_stats": link_stats_truth_sql,
    "host_rank": host_rank_truth_sql,
    "host_reciprocity": host_reciprocity_truth_sql,
    "host_triangles": host_triangles_truth_sql,
    "host_kcore": host_kcore_truth_sql,
    "host_communities": host_communities_truth_sql,
    "host_assortativity": host_assortativity_truth_sql,
    "extract_main_content": main_content_truth_sql,
    "page_template_clusters": template_truth_sql,
    "page_profile": page_profile_truth_sql,
    "wet_curate": wet_curate_truth_sql,
}
