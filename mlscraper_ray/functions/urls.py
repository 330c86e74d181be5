"""URL canonicalization + canonical-URL dedup.

Web crawls see the same page under many spellings — case-variant
hosts, default ports, tracking query params, fragments, trailing
slashes, shuffled query order. ``canonicalize_url`` normalizes one
URL with the real stdlib parser; ``url_canonical_dedup`` is the
corpus-level operator: canonicalize every URL, group by canonical
form, keep one representative per group (the crawl-frontier /
manifest dedup key).

Canonical form (documented contract, each rule unit-tested):
  - scheme and host lowercased;
  - default ports stripped (http:80, https:443);
  - fragment removed;
  - query params with a ``utm_``-prefixed key dropped (tracking);
  - remaining query params sorted by (key, value), duplicates kept;
  - trailing slashes stripped from the path.
Percent-encoding in the PATH is preserved as-is; query pairs go
through a parse_qsl/urlencode round trip, so equivalent query escape
spellings NORMALIZE (e.g. ``%20`` and ``+`` both canonicalize to
``+``) — the right behavior for a dedup key, documented because it
differs from byte-preservation. An authority whose port fails to
parse falls back to the lowercased raw netloc instead of raising
(a malformed frontier URL must not kill the batch).

The testdata tables carry no URL column, so the oracled query
synthesizes a DETERMINISTIC dirty-URL table from ``documents`` (five
spellings per doc covering every rule above — the north-rule "build
over a table of exactly that shape" discipline) and the DuckDB oracle
states each spelling's EXPECTED canonical as a literal expression:
the SQL never reimplements the parser, it asserts what the parser
must produce, so a canonicalization regression flips the hash.
"""
from __future__ import annotations

from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

import pandas as pd
import pyarrow as pa
import ray.data

from mlscraper_ray.functions.bucketed import bucketed_aggregate

_DEFAULT_PORTS = {"http": "80", "https": "443"}


def canonicalize_url(url: str) -> str:
    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    host = parts.hostname.lower() if parts.hostname else ""
    if ":" in host:  # IPv6 literal: urlsplit strips the brackets
        host = f"[{host}]"
    try:
        port = parts.port
    except ValueError:  # malformed port: keep the authority verbatim
        netloc = parts.netloc.lower()
    else:
        netloc = host
        if parts.username is not None:
            cred = parts.username + (f":{parts.password}" if parts.password is not None else "")
            netloc = f"{cred}@{netloc}"
        if port is not None and _DEFAULT_PORTS.get(scheme) != str(port):
            netloc = f"{netloc}:{port}"
    path = parts.path.rstrip("/")
    q = [
        (k, v)
        for k, v in parse_qsl(parts.query, keep_blank_values=True)
        if not k.startswith("utm_")
    ]
    query = urlencode(sorted(q))
    return urlunsplit((scheme, netloc, path, query, ""))


class _VariantStage:
    """Synthesizes the deterministic five-spelling dirty-URL table and
    canonicalizes each spelling with the real parser (one batch map;
    a real deployment replaces this stage with its URL source)."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        urls = []
        for doc_id, source in zip(batch["doc_id"], batch["source"]):
            base = f"https://{source}.example.com/docs/{doc_id}"
            urls.extend(
                [
                    base,
                    f"HTTPS://{source.upper()}.EXAMPLE.COM:443/docs/{doc_id}/",
                    base + "?utm_source=rss&utm_medium=feed#frag",
                    base + "?b=2&a=1",
                    base + "?a=1&b=2",
                ]
            )
        return pd.DataFrame(
            {
                "url": pd.Series(urls, dtype=str),
                "canonical_url": pd.Series(
                    [canonicalize_url(u) for u in urls], dtype=str
                ),
            }
        )


def url_canonical_dedup_ds(docs: ray.data.Dataset) -> ray.data.Dataset:
    exploded = docs.map_batches(_VariantStage, batch_format="pandas", concurrency=(1, 8))
    return bucketed_aggregate(
        exploded,
        ["canonical_url"],
        {"n_dups": ("url", "count"), "kept_url": ("url", "min")},
    )


def url_canonical_dedup(sf_dir: str) -> pa.Table:
    docs = read_table(sf_dir, "documents", ["doc_id", "source"])
    out = url_canonical_dedup_ds(docs).to_pandas()
    return finish(
        out,
        "canonical_url",
        columns=["canonical_url", "n_dups", "kept_url"],
        dtypes={"n_dups": "int64"},
    )


# Expected-value oracle: each synthesized spelling is listed with the
# canonical form the parser MUST produce (host case-fold + default
# port + trailing slash for v1, utm/fragment strip for v2, query sort
# for v3/v4). MIN(url) relies on DuckDB's binary collation matching
# Python's ASCII string ordering.
URL_CANONICAL_DEDUP_SQL = """
WITH v AS (
    SELECT 'https://' || source || '.example.com/docs/' || doc_id AS base,
           upper(source) AS us, doc_id
    FROM documents
),
variants AS (
    SELECT base AS url, base AS canonical FROM v
    UNION ALL
    SELECT 'HTTPS://' || us || '.EXAMPLE.COM:443/docs/' || doc_id || '/', base FROM v
    UNION ALL
    SELECT base || '?utm_source=rss&utm_medium=feed#frag', base FROM v
    UNION ALL
    SELECT base || '?b=2&a=1', base || '?a=1&b=2' FROM v
    UNION ALL
    SELECT base || '?a=1&b=2', base || '?a=1&b=2' FROM v
)
SELECT canonical AS canonical_url,
       CAST(COUNT(*) AS BIGINT) AS n_dups,
       MIN(url) AS kept_url
FROM variants
GROUP BY canonical
ORDER BY canonical
"""


# -- frontier admission filter --------------------------------------------

_BINARY_EXTS = frozenset(
    (".jpg", ".jpeg", ".png", ".gif", ".pdf", ".zip", ".gz", ".mp4", ".mp3",
     ".exe", ".iso", ".tar", ".webp", ".avi", ".mov", ".css", ".js")
)
_BLOCKED_HOST_LABELS = frozenset(("spam", "ads", "tracker"))


def classify_frontier_url(
    url: str, max_path_depth: int = 6, max_query_len: int = 64
) -> tuple[bool, str]:
    """Frontier admission verdict for one candidate URL — the screen a
    crawler applies BEFORE a url ever reaches the seen-set/politeness
    machinery (scheme gate, binary/media extension gate, blocklisted
    host label, path-depth bound, query-length bound). Returns
    (keep, reason), reason 'ok' when kept; the FIRST failing rule in
    the order above names the reason (deterministic, order is part of
    the contract)."""
    parts = urlsplit(url)
    if parts.scheme.lower() not in ("http", "https"):
        return False, "scheme"
    path = parts.path or "/"
    dot = path.rfind(".")
    if dot > path.rfind("/") and path[dot:].lower() in _BINARY_EXTS:
        return False, "extension"
    host = (parts.hostname or "").lower()
    if any(lbl in _BLOCKED_HOST_LABELS for lbl in host.split(".")):
        return False, "host"
    depth = len([s for s in path.split("/") if s])
    if depth > max_path_depth:
        return False, "depth"
    if len(parts.query) > max_query_len:
        return False, "query"
    return True, "ok"


def frontier_url_filter(sf_dir: str) -> pa.Table:
    """Registry entry: synthesize a deterministic six-variant
    candidate-URL table per document (one admissible spelling + one
    per drop rule + one extension spelling that flips keep/drop on
    doc_id % 3), classify every candidate with the REAL
    :func:`classify_frontier_url`, return (url, keep, reason) ordered
    by url. The oracle states each variant's EXPECTED verdict as a
    literal (never reimplementing the classifier), so any rule
    regression — order included — flips the hash.

    Plan shape: one streaming flat-map (synthesize + classify in the
    worker), no shuffle; the driver pull is the compare contract
    only — the production twin is the Dataset before ``to_pandas``."""

    def variants(batch: pd.DataFrame) -> pd.DataFrame:
        rows: list[tuple[str, bool, str]] = []
        for doc_id, source in zip(batch["doc_id"], batch["source"]):
            base = f"https://{source}.example.com"
            ext = (".jpg", ".html", ".pdf")[int(doc_id) % 3]
            cands = (
                f"{base}/docs/{doc_id}",
                f"ftp://{source}.example.com/docs/{doc_id}",
                f"{base}/img/{doc_id}{ext}",
                f"https://{source}.spam.example.com/docs/{doc_id}",
                f"{base}/a/b/c/d/e/f/g/{doc_id}",
                f"{base}/docs/{doc_id}?x=" + "q" * 70,
            )
            for u in cands:
                keep, reason = classify_frontier_url(u)
                rows.append((u, keep, reason))
        return pd.DataFrame(rows, columns=["url", "keep", "reason"]).astype(
            {"url": str, "keep": bool, "reason": str}
        )

    docs = read_table(sf_dir, "documents", ["doc_id", "source"])
    return finish(
        docs.map_batches(variants, batch_format="pandas").to_pandas(),
        "url",
    )


# Expected-verdict oracle: every synthesized candidate appears with
# its REQUIRED (keep, reason) literal.
FRONTIER_URL_FILTER_SQL = """
WITH v AS (
    SELECT 'https://' || source || '.example.com' AS base, doc_id, source,
           CASE doc_id % 3 WHEN 0 THEN '.jpg' WHEN 1 THEN '.html' ELSE '.pdf' END AS ext,
           doc_id % 3 = 1 AS ext_keep
    FROM documents
),
c AS (
    SELECT base || '/docs/' || doc_id AS url, TRUE AS keep, 'ok' AS reason FROM v
    UNION ALL
    SELECT 'ftp://' || (base[9:]) || '/docs/' || doc_id, FALSE, 'scheme' FROM v
    UNION ALL
    SELECT base || '/img/' || doc_id || ext,
           ext_keep, CASE WHEN ext_keep THEN 'ok' ELSE 'extension' END FROM v
    UNION ALL
    SELECT 'https://' || source || '.spam.example.com/docs/' || doc_id,
           FALSE, 'host' FROM v
    UNION ALL
    SELECT base || '/a/b/c/d/e/f/g/' || doc_id, FALSE, 'depth' FROM v
    UNION ALL
    SELECT base || '/docs/' || doc_id || '?x=' || repeat('q', 70), FALSE, 'query' FROM v
)
SELECT url, keep, reason FROM c ORDER BY url
"""


# -- redirect-chain resolution --------------------------------------------


def _redirect_edge(i: int, n: int) -> int | None:
    """Deterministic synthetic redirect map over doc ids: multiples of
    7 are terminal pages; multiples of 5 hop forward ((i+3) mod n —
    creating genuine CYCLES like 10->13->12->11->10); everything else
    redirects one step back. Mixes short chains, convergent trees and
    unresolvable loops — the shapes a real redirect table contains."""
    if i % 7 == 0:
        return None
    if i % 5 == 0:
        return (i + 3) % n
    return i - 1


def url_redirect_resolve(sf_dir: str, max_hops: int = 16) -> pa.Table:
    """Resolve every URL's redirect chain to its terminal target — the
    canonicalization step a crawler runs over its observed
    Location-header table before frontier admission. Functional graph
    (<= 1 outgoing edge per url): chains end at a terminal page,
    converge into trees, or loop; loops (and chains past ``max_hops``)
    are unresolved. Returns (doc_id, final_id, n_hops, resolved)
    ordered by doc_id, with final_id/n_hops = -1 when unresolved.

    Distributed plan: POINTER DOUBLING (the path-halving trick of the
    connected-components family): each round, every unresolved node's
    pointer jumps to its pointer's pointer and the walked-hop count
    accumulates — after round r every chain of length <= 2^r - 1 is
    resolved (done-detection lags the doubling by one round, hence
    rounds = ceil(log2(max_hops)) + 1), independent of corpus size.
    No driver-side walking; each round is ONE :func:`cogroup_join` of
    slim int rows keyed on the current pointer, with the state block
    count re-bounded every round (the connected-components
    block-doubling hazard, see components.py)."""
    import math

    n_docs_ds = read_table(sf_dir, "documents", ["doc_id"])
    n = n_docs_ds.count()

    def init_state(t: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        ids = pc.cast(t["doc_id"], pa.int64()).combine_chunks().to_numpy(
            zero_copy_only=False
        )
        term = ids % 7 == 0
        fwd = (~term) & (ids % 5 == 0)
        # terminal nodes resolve to themselves in 0 hops
        ptr = np.where(term, ids, np.where(fwd, (ids + 3) % n, ids - 1))
        return pa.table(
            {
                "u": pa.array(ids, pa.int64()),
                "ptr": pa.array(ptr.astype("int64"), pa.int64()),
                "hops": pa.array(np.where(term, 0, 1).astype("int64"), pa.int64()),
                "done": pa.array(term),
            }
        )

    state_blocks = max(4, min(64, n // 1_000_000 + 4))
    state = (
        n_docs_ds.map_batches(init_state, batch_format="pyarrow")
        .repartition(state_blocks, shuffle=False)
        .materialize()
    )
    rounds = max(1, math.ceil(math.log2(max_hops))) + 1

    def as_self(t: pa.Table) -> pa.Table:
        # jump key: where my pointer currently points
        return pa.table(
            {"k": t["ptr"], "u": t["u"], "ptr": t["ptr"],
             "hops": t["hops"], "done": t["done"]}
        )

    def as_lookup(t: pa.Table) -> pa.Table:
        return pa.table(
            {"k": t["u"], "t_ptr": t["ptr"],
             "t_hops": t["hops"], "t_done": t["done"]}
        )

    def jump(df: pd.DataFrame) -> pd.DataFrame:
        move = ~df["done"].astype(bool)
        new_ptr = df["ptr"].where(~move, df["t_ptr"]).astype("int64")
        new_hops = df["hops"].where(~move, df["hops"] + df["t_hops"]).astype("int64")
        new_done = (df["done"].astype(bool) | (move & df["t_done"].astype(bool)))
        return pd.DataFrame(
            {"u": df["u"].astype("int64"), "ptr": new_ptr,
             "hops": new_hops, "done": new_done}
        )

    from mlscraper_ray.functions.joins import cogroup_join

    for _ in range(rounds):
        # every pointer targets a valid node id, so inner == left here
        joined = cogroup_join(
            state.map_batches(as_self, batch_format="pyarrow"),
            state.map_batches(as_lookup, batch_format="pyarrow"),
            "k",
        )
        state = (
            joined.map_batches(jump, batch_format="pandas")
            .repartition(state_blocks, shuffle=False)
            .materialize()
        )

    out = state.to_pandas()
    resolved = out["done"].astype(bool) & (out["hops"] <= max_hops)
    out["final_id"] = out["ptr"].where(resolved, -1).astype("int64")
    out["n_hops"] = out["hops"].where(resolved, -1).astype("int64")
    out["resolved"] = resolved.astype(bool)
    return finish(
        out.rename(columns={"u": "doc_id"}),
        "doc_id",
        columns=["doc_id", "final_id", "n_hops", "resolved"],
    )


def url_redirect_resolve_sql(max_hops: int = 16) -> str:
    """Recursive-CTE walk of the same synthetic redirect map, bounded
    by ``max_hops``; unresolved (cyclic) urls never reach a terminal
    row and fall out of the LEFT JOIN as -1."""
    return f"""
WITH RECURSIVE
nn AS (SELECT COUNT(*) AS n FROM documents),
nodes AS (SELECT doc_id AS u FROM documents),
edges AS (
    SELECT u,
           CASE WHEN u % 7 = 0 THEN NULL
                WHEN u % 5 = 0 THEN (u + 3) % (SELECT n FROM nn)
                ELSE u - 1 END AS nxt
    FROM nodes
),
walk(u, cur, hops) AS (
    SELECT u, u, 0 FROM nodes
    UNION ALL
    SELECT w.u, e.nxt, w.hops + 1
    FROM walk w JOIN edges e ON e.u = w.cur
    WHERE e.nxt IS NOT NULL AND w.hops < {max_hops}
),
fin AS (
    SELECT w.u, w.cur, w.hops
    FROM walk w JOIN edges e2 ON e2.u = w.cur
    WHERE e2.nxt IS NULL
)
SELECT n.u AS doc_id,
       CAST(COALESCE(f.cur, -1) AS BIGINT) AS final_id,
       CAST(COALESCE(f.hops, -1) AS BIGINT) AS n_hops,
       f.u IS NOT NULL AS resolved
FROM nodes n LEFT JOIN fin f ON f.u = n.u
ORDER BY doc_id
"""


_TRAP_THRESHOLD = 64

import re as _re
from mlscraper_ray.functions.tables import finish, read_table

_NUM_SEG = _re.compile(r"[0-9]+")
_HEX_SEG = _re.compile(r"[0-9a-f]{8,}")


def _path_pattern(path: str) -> str:
    """URL path template: each segment that is all digits becomes
    ``{n}``, a hex run of 8+ chars becomes ``{h}``, everything else
    stays verbatim. The template is the crawler-trap / sitemap unit:
    calendar pages, session ids and pagination all collapse onto one
    pattern whose distinct-URL count explodes while real content
    patterns stay bounded."""
    out = []
    for seg in path.split("/"):
        if seg and _NUM_SEG.fullmatch(seg):
            out.append("{n}")
        elif seg and _HEX_SEG.fullmatch(seg):
            out.append("{h}")
        else:
            out.append(seg)
    return "/".join(out)


class _PatternVariantStage:
    """Synthesizes the deterministic per-doc URL mix (an id-keyed
    article page, a two-variable pagination page, a hex session page —
    the classic trap shape — and one static page per host) and
    templates each path. A real deployment replaces this stage with
    its frontier / access-log URL source."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        import hashlib

        hosts, urls = [], []
        for doc_id, source in zip(batch["doc_id"], batch["source"]):
            host = f"{source}.example.com"
            sess = hashlib.md5(str(doc_id).encode()).hexdigest()[:16]
            paths = [
                f"/article/{doc_id}",
                f"/article/{doc_id}/comments/page/{doc_id % 7}",
                f"/session/{sess}",
                "/about",
            ]
            for p in paths:
                hosts.append(host)
                urls.append(f"https://{host}{p}")
        pats = [_path_pattern(u.split(".example.com", 1)[1]) for u in urls]
        return pd.DataFrame(
            {
                "host": pd.Series(hosts, dtype=str),
                "url": pd.Series(urls, dtype=str),
                "pattern": pd.Series(pats, dtype=str),
            }
        )


def url_pattern_stats_ds(
    docs: ray.data.Dataset, trap_threshold: int = _TRAP_THRESHOLD
) -> ray.data.Dataset:
    """Per-(host, path-pattern) URL census over the synthesized URL
    table: distinct-URL count, lexicographically first example, and
    the trap flag (distinct count >= ``trap_threshold``) — the
    frontier-admission signal that caps crawler traps (session ids,
    infinite calendars) before they eat a host's fetch budget.

    Two slim shuffles, both over (host, pattern[, url]) string rows:
    one distinct pass, one count aggregate — URL-cardinality work never reaches the driver."""
    exploded = docs.map_batches(
        _PatternVariantStage, batch_format="pandas", concurrency=(1, 8)
    )
    distinct = bucketed_aggregate(exploded, ["host", "pattern", "url"], {"one": ("url", "count")})
    stats = bucketed_aggregate(
        distinct,
        ["host", "pattern"],
        {"n_urls": ("url", "count"), "example_url": ("url", "min")},
    )

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["n_urls"] = df["n_urls"].astype("int64")
        df["trap_suspect"] = (df["n_urls"] >= trap_threshold).astype("int64")
        return df[["host", "pattern", "n_urls", "example_url", "trap_suspect"]]

    return stats.map_batches(flag, batch_format="pandas")


def url_pattern_stats(
    sf_dir: str, trap_threshold: int = _TRAP_THRESHOLD
) -> pa.Table:
    docs = read_table(sf_dir, "documents", ["doc_id", "source"])
    return finish(
        url_pattern_stats_ds(docs, trap_threshold=trap_threshold).to_pandas(),
        ["host", "pattern"],
    )


def url_pattern_stats_sql(trap_threshold: int = _TRAP_THRESHOLD) -> str:
    return f"""
WITH u AS (
    SELECT source || '.example.com' AS host,
           'https://' || source || '.example.com/article/' || doc_id AS url,
           '/article/' || doc_id AS path
    FROM documents
    UNION ALL
    SELECT source || '.example.com',
           'https://' || source || '.example.com/article/' || doc_id
               || '/comments/page/' || (doc_id % 7),
           '/article/' || doc_id || '/comments/page/' || (doc_id % 7)
    FROM documents
    UNION ALL
    SELECT source || '.example.com',
           'https://' || source || '.example.com/session/'
               || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16),
           '/session/' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16)
    FROM documents
    UNION ALL
    SELECT source || '.example.com',
           'https://' || source || '.example.com/about', '/about'
    FROM documents
),
pat AS (
    SELECT host, url,
           array_to_string(list_transform(string_split(path, '/'),
               x -> CASE WHEN x = '' THEN x
                         WHEN regexp_full_match(x, '[0-9]+') THEN '{{n}}'
                         WHEN regexp_full_match(x, '[0-9a-f]{{8,}}') THEN '{{h}}'
                         ELSE x END), '/') AS pattern
    FROM u
)
SELECT host, pattern, COUNT(DISTINCT url) AS n_urls,
       MIN(url) AS example_url,
       CAST(COUNT(DISTINCT url) >= {trap_threshold} AS BIGINT) AS trap_suspect
FROM pat
GROUP BY host, pattern
ORDER BY host, pattern
"""


URL_PATTERN_STATS_SQL = url_pattern_stats_sql()
