"""DOM-template clustering over crawled pages.

The scraper-engine counterpart of near-dup text clustering: pages
rendered from the same template share a DOM STRUCTURE even when every
text node differs. Fingerprint = md5 over the preorder (tag[.classes])
token sequence of the page's elements; grouping by fingerprint yields
template clusters — the unit a selector-learning pipeline amortizes
over (learn ONE scraper per cluster, apply to every member; cf. the
reference's one-sample-generalizes contract, mlscraper/__init__.py).

Distributed plan: one per-record parse emitting slim (url, tpl_hash)
rows (html never leaves the stage — the extract_all discipline), then
the coarse-bucket aggregate folds clusters (n_pages + lexmin sample
url). The truth oracle (pipelines/truth_oracles.template_truth_sql)
reconstructs each page's EXPECTED token sequence from the generator's
synthesis-time structure (entry and link counts), never touching this
parser — so the constant table pins the DOM preorder traversal and
class extraction end to end.
"""
from __future__ import annotations

import hashlib

import pyarrow as pa
import ray.data

from mlscraper_ray.functions.bucketed import bucketed_aggregate
from mlscraper_ray.functions.tables import finish


def structure_tokens(doc) -> list[str]:
    """Preorder (tag[.class1.class2]) tokens of a parsed document."""
    out = []
    for el in doc.iter_elements():
        out.append(
            el.tag + "." + ".".join(el.classes) if el.classes else el.tag
        )
    return out


def structure_fingerprint_tokens(tokens: list[str]) -> str:
    return hashlib.md5(" ".join(tokens).encode()).hexdigest()


def page_template_clusters_ds(sf_dir: str) -> ray.data.Dataset:
    """Slim (tpl_hash, url) rows come from the SHARED per-page facet
    table (functions/facets.py — one cached parse serves every
    page-level query) pruned to two columns; the cluster fold is the
    same coarse-bucket aggregate."""
    from mlscraper_ray.functions.facets import page_facets_ds

    slim = page_facets_ds(sf_dir, columns=["tpl_hash", "url"])
    return bucketed_aggregate(
        slim, ["tpl_hash"], {"n_pages": ("url", "count"), "sample_url": ("url", "min")}
    )


def page_template_clusters(sf_dir: str) -> pa.Table:
    out = page_template_clusters_ds(sf_dir).to_pandas()
    return finish(
        out, "tpl_hash", columns=["tpl_hash", "n_pages", "sample_url"], dtypes={"n_pages": "int64"}
    )
