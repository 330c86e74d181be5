"""Seeded benchmark inputs and their untimed correctness references.

Everything here is a pure function of (workload, seed, tiny) and is
cached under the scratch root, so a repeated seed reuses its corpus,
tables and oracle references. Nothing in this module is timed.

- ``crawl`` reads a ``corpusgen`` corpus. Its pages are
  page-weight-shaped like the sf0.1 corpus (40 entries, 600 filler
  words), and it uses one host bucket so the bucket exceeds
  ``CorpusReader``'s 4 MB whole-bucket cache: lookups take the
  range-predicate path, as they do at sf0.1.
- ``learn`` gets a fixed cycle of five request shapes (2 to 8 pages at
  two page weights); the seed draws the page contents and the order.
- ``corpus_ops`` gets the sf0.01 testdata tables (copied into
  ``perfbench/data``); the workload seed only permutes row order, so
  block contents change while the row multiset (and every oracle
  result) does not.
"""
from __future__ import annotations

import glob
import hashlib
import json
import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# The sf0.01 testdata tables the core set reads (a copy, so the
# benchmark reads nothing outside its checkout)
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
TABLES = ("customer", "documents", "events", "lineitem", "nation", "orders")

# The corpus_ops core set: registry operators plus the resumable sink
CORE_OPS = (
    "sessionize",
    "session_duration_percentiles",
    "hourly_distinct_users",
    "order_lineitem_revenue",
    "revenue_by_nation",
    "q1_pricing_summary",
    "dedup_exact",
    "doc_tfidf_top_terms",
    "tfidf_to_parquet",
)

# (n_pages, entries_per_page, filler_words) for one learn cycle: light
# and sf0.1-weight pages. Costs at least double from shape to shape, so
# the cost order does not depend on the seed. Five shapes and seven
# cycles put both the median (shape 3) and the tail (ten samples
# above it: shape 4) in the middle of one shape's seven samples, not
# on the edge between two shapes.
LEARN_SHAPES = [(2, 6, 40), (4, 6, 40), (8, 6, 40), (2, 40, 600), (4, 40, 600)]
LEARN_SHAPES_TINY = [(2, 6, 40), (3, 6, 40)]


def crawl_spec(seed: int, tiny: bool = False):
    from mlscraper_ray.sources.corpusgen import CorpusSpec

    if tiny:
        return CorpusSpec(n_hosts=5, pages_per_host=4, skew_factors=(2,), n_seeds=2, seed=seed)
    return CorpusSpec(
        n_hosts=16,
        pages_per_host=40,
        n_buckets=1,
        seed=seed,
        entries_per_page=40,
        filler_words=600,
    )


def corpus(scratch: str, seed: int, tiny: bool = False) -> tuple[str, object]:
    """Generate (or reuse) the seed's page corpus; returns (dir, spec)."""
    from mlscraper_ray.sources.corpusgen import generate_corpus

    spec = crawl_spec(seed, tiny)
    corpus_dir = os.path.join(scratch, "inputs", f"corpus-{'tiny-' if tiny else ''}s{seed}")
    os.makedirs(corpus_dir, exist_ok=True)
    generate_corpus(corpus_dir, spec)
    if not tiny:
        from mlscraper_ray.sources.corpus import CorpusReader

        limit = CorpusReader(corpus_dir, spec.n_buckets).cache_bucket_max_bytes
        small = [
            f for f in glob.glob(os.path.join(corpus_dir, "pages", "*", "*.parquet"))
            if os.path.getsize(f) <= limit
        ]
        if small:
            raise RuntimeError(f"corpus buckets under the lookup cache limit: {small}")
    return corpus_dir, spec


def crawl_config(spec, plan: dict):
    """The production round shape: 128 tokens per host per round."""
    from mlscraper_ray.pipelines.crawl_pipeline import crawl_config_for

    return crawl_config_for(spec, plan, tokens_per_round=128, max_rounds=60)


def golden(corpus_dir: str) -> dict[str, str]:
    t = pq.read_table(os.path.join(corpus_dir, "golden.parquet"))
    return dict(zip(t["url"].to_pylist(), t["expected_json"].to_pylist()))


def crawl_reference(scratch: str, corpus_dir: str, spec) -> dict:
    """``oracle_crawl`` on the corpus under the generator-truth plan.
    Crawl order and counters do not depend on the plan (link discovery
    is plan-free); values are checked against golden.parquet instead.
    Nor do they depend on the seed: ``corpusgen.page_links`` draws no
    random numbers, so the seed changes page contents, never links. The
    reference is therefore cached per corpus shape and crawl config;
    were links ever seed-dependent, the check would fail, not pass."""
    from mlscraper_ray.sources.corpusgen import expected_plan

    cfg = crawl_config(spec, expected_plan())
    shape = {k: v for k, v in spec.__dict__.items() if k != "seed"}
    inputs_json = json.dumps([cfg.to_dict(), shape], sort_keys=True, default=list)
    key = hashlib.sha256(inputs_json.encode()).hexdigest()[:16]
    path = os.path.join(scratch, "inputs", f"crawl-oracle-{key}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    from mlscraper_ray.frontier.oracle import oracle_crawl

    fetches, seen, _, counters = oracle_crawl(corpus_dir, cfg)
    ref = {"fetches": [list(f) for f in fetches], "seen": len(seen), "counters": counters}
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(ref, f)
    os.replace(tmp, path)
    return ref


def learn_requests(seed: int, tiny: bool = False) -> list[dict]:
    """One cycle of training requests. Each request holds the html and
    golden entries of its training pages plus one unseen page."""
    from mlscraper_ray.sources.corpusgen import CorpusSpec, page_entries, render_page

    shapes = list(LEARN_SHAPES_TINY if tiny else LEARN_SHAPES)
    random.Random(f"learn-order:{seed}").shuffle(shapes)
    requests = []
    for r, (n_pages, entries, filler) in enumerate(shapes):
        rng = random.Random(f"learn:{seed}:{r}")
        spec = CorpusSpec(
            n_hosts=12,
            pages_per_host=60,
            seed=rng.randrange(1 << 30),
            entries_per_page=entries,
            filler_words=filler,
        )
        # only pages with the full entry count: training cost grows
        # faster than linearly in entries, so the request's cost then
        # follows its shape, not the draw
        pool = [
            (h, i)
            for h in range(spec.n_hosts)
            for i in range(spec.n_pages(h))
            if len(page_entries(spec, h, i)) == entries
        ]
        picks = rng.sample(pool, n_pages + 1)
        pages = [(render_page(spec, h, i)[0], page_entries(spec, h, i)) for h, i in picks]
        requests.append(
            {"shape": [n_pages, entries, filler], "pages": pages[:-1], "unseen": pages[-1]}
        )
    return requests


def core_tables(scratch: str, seed: int, tiny: bool = False) -> str:
    """Write the seed's row permutation of every core-set table; returns
    the table directory (``<name>.parquet`` files, testdata layout).
    Tiny tables keep the first tenth of each table's rows."""
    out = os.path.join(scratch, "inputs", f"tables-{'tiny-' if tiny else ''}s{seed}")
    marker = os.path.join(out, "_DONE")
    if os.path.exists(marker):
        return out
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng(seed)
    for name in TABLES:
        table = pq.read_table(os.path.join(DATA_DIR, f"{name}.parquet"))
        if tiny and table.num_rows > 100:
            table = table.slice(0, table.num_rows // 10)
        perm = rng.permutation(table.num_rows)
        pq.write_table(table.take(pa.array(perm)), os.path.join(out, f"{name}.parquet"))
    with open(marker, "w") as f:
        f.write("")
    return out


def input_digest(scratch: str, workload: str, seed: int, tiny: bool = False) -> str:
    """sha256 over the bytes the engine receives for (workload, seed)."""
    h = hashlib.sha256()
    if workload == "learn":
        for req in learn_requests(seed, tiny):
            h.update(json.dumps(req, sort_keys=True).encode())
        return h.hexdigest()
    if workload == "corpus_ops":
        root = core_tables(scratch, seed, tiny)
    else:
        root, _ = corpus(scratch, seed, tiny)
    for path in sorted(glob.glob(os.path.join(root, "**", "*.parquet"), recursive=True)):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()
