"""Corpus-level text SCRUBBING operators — rewrites that remove
duplicated or degenerate spans while keeping every document:

- :func:`dedup_segments`: MassiveText/RefinedWeb-style duplicated-
  segment removal. Documents are chunked into non-overlapping
  ``seg_words``-word segments; any segment whose exact text appears in
  MORE THAN ONE document is removed from ALL documents (boilerplate
  headers/footers, license blocks, navigation chrome). Unlike
  doc-level dedup (functions/dedup.py) this rewrites document BODIES.
- :func:`collapse_repeats`: C4-style consecutive-duplicate-token
  collapse ("batch batch batch" -> "batch"), a pure streaming map.

Plan shape for dedup_segments (100 TB-ready, mirrors
curate.decontaminate_survivors):
1. one slim pass computes per-doc DISTINCT segments and ships only
   (segment string, 1) rows — exact strings, no hash collisions;
2. segment document-frequency = coarse-bucket aggregate
   (functions/bucketed.py); duplicated segments are the df > 1 rows;
3. path choice by ``broadcast.pull`` of the duplicated-segment
   table: pulled -> ``ray.put`` the set once and rewrite
   every doc in one broadcast streaming pass (text never shuffles);
   too large to pull -> bucketed join-back: segments are co-partitioned with the
   dup set, per-bucket ``isin`` flags them, and documents reassemble
   co-partitioned on doc_id (text crosses the wire once per shuffle,
   never driver-sized).

All arithmetic is integer and the segment/token rules are reproduced
term-for-term by DEDUP_SEGMENTS_SQL / COLLAPSE_REPEATS_SQL, so both
operators are DuckDB hash-checked end to end.
"""
from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from mlscraper_ray.functions import broadcast
from mlscraper_ray.functions.broadcast import cached_object

from mlscraper_ray.functions.bucketed import bucketed_aggregate, co_partition
from mlscraper_ray.functions.tables import finish, read_table


def _segments(text: str, seg_words: int) -> list[str]:
    """Non-overlapping ``seg_words``-word chunks (last may be shorter).
    ``str.split()`` == DuckDB ``regexp_split_to_array(trim(text),
    '\\s+')`` on non-blank text; blank text yields no segments."""
    words = text.split()
    return [" ".join(words[i : i + seg_words]) for i in range(0, len(words), seg_words)]


def dedup_segments_ds(
    sf_dir: str,
    seg_words: int = 8,
) -> ray.data.Dataset:
    """Remove every segment that appears in >1 distinct document;
    returns (doc_id, clean_text, n_segs_removed) for EVERY input doc
    as a streaming Dataset. ``n_segs_removed`` counts removed
    occurrences (a segment repeated inside one doc but shared with
    another is removed everywhere and counted each time)."""
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def doc_distinct_segs(batch: pa.Table) -> pa.Table:
        segs: list[str] = []
        for text in batch["text"].to_pylist():
            segs.extend(set(_segments(text, seg_words)))
        return pa.table({"seg": pa.array(segs, pa.string())})

    df_counts = bucketed_aggregate(
        docs.map_batches(doc_distinct_segs, batch_format="pyarrow"),
        ["seg"],
        {"df": ("seg", "count")},
    )
    dup_rows = df_counts.map_batches(
        lambda d: d.loc[d["df"] > 1, ["seg"]], batch_format="pandas"
    ).materialize()

    if pulled := broadcast.pull(dup_rows):
        dup_ref = ray.put(set(pulled[0]["seg"]))

        def rewrite(batch: pa.Table) -> pa.Table:
            dup = cached_object(dup_ref)
            ids, cleans, removed = [], [], []
            for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
                segs = _segments(text, seg_words)
                kept = [s for s in segs if s not in dup]
                ids.append(doc_id)
                cleans.append(" ".join(kept))
                removed.append(len(segs) - len(kept))
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "clean_text": pa.array(cleans, pa.string()),
                    "n_segs_removed": pa.array(removed, pa.int64()),
                }
            )

        return docs.map_batches(rewrite, batch_format="pyarrow")

    # join-back path: nothing driver-sized. Segments (with their doc
    # slot) and the dup set meet co-partitioned on seg; flagged rows
    # then reassemble per doc co-partitioned on doc_id.

    def explode(batch: pa.Table) -> pa.Table:
        ids, idxs, segs = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            doc_segs = _segments(text, seg_words)
            if not doc_segs:
                # carrier row so blank docs still reach the output;
                # "" is never a real segment (segments are non-empty
                # word joins) and is skipped at reassembly (idx -1)
                ids.append(doc_id)
                idxs.append(-1)
                segs.append("")
                continue
            for i, s in enumerate(doc_segs):
                ids.append(doc_id)
                idxs.append(i)
                segs.append(s)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "seg_idx": pa.array(idxs, pa.int64()),
                "seg": pa.array(segs, pa.string()),
            }
        )

    def flag_bucket(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
        t = sides["t"]
        return t.assign(keep=~t["seg"].isin(set(sides["d"]["seg"])))

    flagged = co_partition(
        {"t": docs.map_batches(explode, batch_format="pyarrow"), "d": dup_rows},
        ["seg"],
        flag_bucket,
    )

    def reassemble(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for doc_id, d in g.groupby("doc_id", sort=False):
            d = d.sort_values("seg_idx")
            real = d[d["seg_idx"] >= 0]
            kept = real.loc[real["keep"], "seg"]
            rows.append((int(doc_id), " ".join(kept), int((~real["keep"]).sum())))
        return pd.DataFrame(rows, columns=["doc_id", "clean_text", "n_segs_removed"])

    return co_partition(flagged, ["doc_id"], reassemble)


def _grams_overlapping(words: list[str], g: int) -> list[str]:
    """OVERLAPPING g-word grams at every position (stride 1) — the
    gram resolution of exact duplicated-substring removal. Docs with
    fewer than g words have no grams (nothing can be flagged)."""
    if len(words) < g:
        return []
    return [" ".join(words[i : i + g]) for i in range(len(words) - g + 1)]


def _covered_runs(flags: "np.ndarray", n_tokens: int, g: int, min_run: int):
    """(kept_mask, n_runs_removed, n_tokens_removed) from per-position
    duplicate flags: token t is covered iff any flagged gram position
    in [t-g+1, t] (0-indexed); maximal covered intervals of length >=
    min_run are removed. Shared by both distributed paths so the run
    rule has one definition."""
    cov = np.zeros(n_tokens, dtype=bool)
    for p in np.flatnonzero(flags):
        cov[p : p + g] = True
    keep = np.ones(n_tokens, dtype=bool)
    n_runs = n_removed = 0
    t = 0
    while t < n_tokens:
        if cov[t]:
            j = t
            while j < n_tokens and cov[j]:
                j += 1
            if j - t >= min_run:
                keep[t:j] = False
                n_runs += 1
                n_removed += j - t
            t = j
        else:
            t += 1
    return keep, n_runs, n_removed


def scrub_dup_runs_ds(
    sf_dir: str,
    g: int = 8,
    min_run: int = 16,
) -> ray.data.Dataset:
    """Exact duplicated-SUBSTRING removal at gram resolution (the
    scalable form of Lee et al. 2021's suffix-array dedup): every
    maximal token run covered by cross-document duplicated OVERLAPPING
    ``g``-grams is removed when the run spans >= ``min_run`` tokens.
    Unlike :func:`dedup_segments` (non-overlapping chunks, any dup
    chunk removed) this catches duplicated passages at ARBITRARY
    offsets and only cuts long runs — the quote/license/boilerplate
    passage scrub, not the chunk scrub. Returns one row per doc:
    (doc_id, n_runs_removed, n_tokens_removed, clean_md5) — the md5 of
    the kept-token join byte-pins the rewrite without shipping text.

    Plan: per-doc DISTINCT grams ship as slim rows, df folds in the
    coarse-bucket aggregate, dup set = df > 1 (distinct-doc df, same
    rule as dedup_segments); path by ``broadcast.pull`` of the dup
    set — broadcast set + one streaming rewrite when it is pulled,
    else grams meet the dup set
    co-partitioned on gram and the flagged (doc_id, pos) rows rejoin
    each doc's TEXT co-partitioned on doc_id (text crosses the
    wire once, co-partitioned, never driver-sized)."""
    import hashlib

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def doc_distinct_grams(batch: pa.Table) -> pa.Table:
        grams: list[str] = []
        for text in batch["text"].to_pylist():
            grams.extend(set(_grams_overlapping(text.split(), g)))
        return pa.table({"gram": pa.array(grams, pa.string())})

    df_counts = bucketed_aggregate(
        docs.map_batches(doc_distinct_grams, batch_format="pyarrow"),
        ["gram"],
        {"df": ("gram", "count")},
    )
    dup_rows = df_counts.map_batches(
        lambda d: d.loc[d["df"] > 1, ["gram"]], batch_format="pandas"
    ).materialize()

    def finish_doc(doc_id: int, words: list[str], flags: "np.ndarray"):
        keep, n_runs, n_removed = _covered_runs(flags, len(words), g, min_run)
        clean = " ".join(w for w, k in zip(words, keep) if k)
        return (
            int(doc_id),
            n_runs,
            n_removed,
            hashlib.md5(clean.encode()).hexdigest(),
        )

    out_schema = {
        "doc_id": pa.int64(),
        "n_runs_removed": pa.int64(),
        "n_tokens_removed": pa.int64(),
        "clean_md5": pa.string(),
    }

    def rows_table(rows) -> pa.Table:
        cols = list(zip(*rows)) if rows else [[], [], [], []]
        return pa.table({n: pa.array(c, t) for (n, t), c in zip(out_schema.items(), cols)})

    if pulled := broadcast.pull(dup_rows):
        dup_ref = ray.put(set(pulled[0]["gram"]))

        def rewrite(batch: pa.Table) -> pa.Table:
            dup = cached_object(dup_ref)
            rows = []
            for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
                words = text.split()
                grams = _grams_overlapping(words, g)
                flags = np.fromiter((gr in dup for gr in grams), dtype=bool, count=len(grams))
                rows.append(finish_doc(doc_id, words, flags))
            return rows_table(rows)

        return docs.map_batches(rewrite, batch_format="pyarrow")

    # join-back path: overlapping gram rows (one per position) meet
    # the dup set co-partitioned on gram; flagged positions rejoin the
    # doc text co-partitioned on doc_id

    def explode(batch: pa.Table) -> pa.Table:
        ids, poss, grams = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            for i, gr in enumerate(_grams_overlapping(text.split(), g)):
                ids.append(doc_id)
                poss.append(i)
                grams.append(gr)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "pos": pa.array(poss, pa.int64()),
                "gram": pa.array(grams, pa.string()),
            }
        )

    def flag_bucket(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
        t = sides["t"]
        return t.loc[t["gram"].isin(set(sides["d"]["gram"])), ["doc_id", "pos"]]

    flagged = co_partition(
        {"t": docs.map_batches(explode, batch_format="pyarrow"), "d": dup_rows},
        ["gram"],
        flag_bucket,
    )

    def reassemble(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
        hits = {int(d): p.to_numpy() for d, p in sides["f"].groupby("doc_id", sort=False)["pos"]}
        rows = []
        for doc_id, text in zip(sides["d"]["doc_id"], sides["d"]["text"]):
            words = text.split()
            flags = np.zeros(max(0, len(words) - g + 1), dtype=bool)
            flags[hits.get(int(doc_id), [])] = True
            rows.append(finish_doc(doc_id, words, flags))
        return pd.DataFrame(
            rows, columns=["doc_id", "n_runs_removed", "n_tokens_removed", "clean_md5"]
        )

    return co_partition({"f": flagged, "d": docs}, ["doc_id"], reassemble)


def scrub_dup_runs(sf_dir: str, g: int = 8, min_run: int = 16) -> pa.Table:
    """Driver-table wrapper (sorted by doc_id);
    :func:`scrub_dup_runs_ds` is the streaming form."""
    out = scrub_dup_runs_ds(sf_dir, g=g, min_run=min_run).to_pandas()
    if len(out) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_runs_removed": pa.array([], pa.int64()),
                "n_tokens_removed": pa.array([], pa.int64()),
                "clean_md5": pa.array([], pa.string()),
            }
        )
    out = out.astype(
        {"doc_id": "int64", "n_runs_removed": "int64", "n_tokens_removed": "int64"}
    ).sort_values("doc_id", ignore_index=True)
    return finish(out)


def scrub_dup_runs_sql(g: int = 8, min_run: int = 16) -> str:
    """DuckDB mirror of the whole path: overlapping grams via
    correlated UNNEST positions, distinct-doc df, per-token coverage
    as an EXISTS over the flag window, gaps-and-islands maximal runs,
    length gate, and the kept-token string_agg md5."""
    gm1 = g - 1
    return f"""
WITH words AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                ELSE regexp_split_to_array(trim(text), '\\s+') END AS w
    FROM documents
),
sized AS (SELECT doc_id, w, length(w) AS n FROM words),
grams AS (
    SELECT doc_id, t.i AS pos, array_to_string(w[t.i:t.i + {gm1}], ' ') AS gram
    FROM sized, UNNEST(generate_series(1, n - {gm1})) AS t(i)
    WHERE n >= {g}
),
dup AS (
    SELECT gram FROM (
        SELECT gram, COUNT(DISTINCT doc_id) AS df FROM grams GROUP BY gram
    ) WHERE df > 1
),
flag AS (SELECT doc_id, pos FROM grams WHERE gram IN (SELECT gram FROM dup)),
toks AS (
    SELECT doc_id, t.i AS t, w[t.i] AS word
    FROM sized, UNNEST(generate_series(1, n)) AS t(i)
    WHERE n > 0
),
cov AS (
    SELECT toks.doc_id, toks.t, toks.word,
           EXISTS (
               SELECT 1 FROM flag
               WHERE flag.doc_id = toks.doc_id
                 AND flag.pos BETWEEN greatest(1, toks.t - {gm1}) AND toks.t
           ) AS covered
    FROM toks
),
isl AS (
    SELECT doc_id, t, word, covered,
           t - ROW_NUMBER() OVER (PARTITION BY doc_id, covered ORDER BY t) AS grp
    FROM cov
),
removed AS (
    SELECT doc_id, grp, COUNT(*) AS run_len
    FROM isl WHERE covered GROUP BY doc_id, grp
    HAVING COUNT(*) >= {min_run}
),
rem_tok AS (
    SELECT isl.doc_id, isl.t
    FROM isl JOIN removed ON isl.doc_id = removed.doc_id AND isl.grp = removed.grp
    WHERE isl.covered
),
kept AS (
    SELECT cov.doc_id, string_agg(cov.word, ' ' ORDER BY cov.t) AS clean
    FROM cov LEFT JOIN rem_tok ON cov.doc_id = rem_tok.doc_id AND cov.t = rem_tok.t
    WHERE rem_tok.t IS NULL
    GROUP BY cov.doc_id
),
stats AS (
    SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_runs,
           CAST(SUM(run_len) AS BIGINT) AS n_removed
    FROM removed GROUP BY doc_id
)
SELECT w.doc_id,
       COALESCE(s.n_runs, 0) AS n_runs_removed,
       COALESCE(s.n_removed, 0) AS n_tokens_removed,
       md5(COALESCE(k.clean, '')) AS clean_md5
FROM words w
LEFT JOIN stats s USING (doc_id)
LEFT JOIN kept k USING (doc_id)
ORDER BY w.doc_id
"""


def dedup_segments(sf_dir: str, seg_words: int = 8) -> pa.Table:
    """Driver-table wrapper for the compare contract (sorted by
    doc_id); :func:`dedup_segments_ds` is the streaming form."""
    out = dedup_segments_ds(sf_dir, seg_words).to_pandas()
    return finish(
        out,
        "doc_id",
        columns=["doc_id", "clean_text", "n_segs_removed"],
        dtypes={"doc_id": "int64", "n_segs_removed": "int64"},
    )


def dedup_segments_sql(seg_words: int = 8) -> str:
    return f"""
WITH words AS (
    SELECT doc_id,
           unnest(regexp_split_to_array(trim(text), '\\s+')) AS word,
           generate_subscripts(regexp_split_to_array(trim(text), '\\s+'), 1) AS ord
    FROM documents WHERE trim(text) <> ''
),
segs AS (
    SELECT doc_id, (ord - 1) // {seg_words} AS seg_idx,
           string_agg(word, ' ' ORDER BY ord) AS seg
    FROM words GROUP BY doc_id, (ord - 1) // {seg_words}
),
df AS (SELECT seg, COUNT(DISTINCT doc_id) AS df FROM segs GROUP BY seg),
marked AS (
    SELECT s.doc_id, s.seg_idx, s.seg, (d.df > 1) AS dup
    FROM segs s JOIN df d USING (seg)
),
agg AS (
    SELECT doc_id,
           COALESCE(string_agg(seg, ' ' ORDER BY seg_idx) FILTER (NOT dup), '') AS clean_text,
           COUNT(*) FILTER (dup) AS n_segs_removed
    FROM marked GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(a.clean_text, '') AS clean_text,
       CAST(COALESCE(a.n_segs_removed, 0) AS BIGINT) AS n_segs_removed
FROM documents d LEFT JOIN agg a USING (doc_id)
ORDER BY d.doc_id
"""


DEDUP_SEGMENTS_SQL = dedup_segments_sql()


def collapse_repeats(sf_dir: str) -> pa.Table:
    """Collapse runs of consecutive identical whitespace tokens to a
    single occurrence — the cheap repetition-cleanup pass (C4 uses the
    same idea at line level). Pure streaming map: no shuffle, no
    state; per-doc run detection is one numpy comparison."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        collapsed, removed = [], []
        for text in batch["text"]:
            words = text.split()
            if not words:
                collapsed.append("")
                removed.append(0)
                continue
            arr = np.asarray(words, dtype=object)
            keep = np.concatenate(([True], arr[1:] != arr[:-1]))
            collapsed.append(" ".join(arr[keep]))
            removed.append(int(len(arr) - keep.sum()))
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "text_collapsed": collapsed,
                "n_removed": pd.Series(removed, dtype="int64", index=batch.index),
            }
        )

    out = ds.map_batches(fn, batch_format="pandas").to_pandas()
    return finish(out, "doc_id")


COLLAPSE_REPEATS_SQL = """
WITH words AS (
    SELECT doc_id,
           unnest(regexp_split_to_array(trim(text), '\\s+')) AS word,
           generate_subscripts(regexp_split_to_array(trim(text), '\\s+'), 1) AS ord
    FROM documents WHERE trim(text) <> ''
),
lagd AS (
    SELECT doc_id, word, ord,
           lag(word) OVER (PARTITION BY doc_id ORDER BY ord) AS prev
    FROM words
),
agg AS (
    SELECT doc_id,
           string_agg(word, ' ' ORDER BY ord)
               FILTER (prev IS NULL OR word <> prev) AS text_collapsed,
           COUNT(*) FILTER (word = prev) AS n_removed
    FROM lagd GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(a.text_collapsed, '') AS text_collapsed,
       CAST(COALESCE(a.n_removed, 0) AS BIGINT) AS n_removed
FROM documents d LEFT JOIN agg a USING (doc_id)
ORDER BY d.doc_id
"""


def _boiler_phrase(source: str, g: int) -> str:
    """Deterministic per-source boilerplate phrase — the stand-in for
    the real-world shared chrome (nav bars, cookie banners, footers)
    that the synthetic corpus lacks. Tokens are outside the organic
    vocabulary by construction, so the massage plants exactly one
    cross-document g-gram per source."""
    return " ".join(f"bp{source}w{j}" for j in range(g))


def strip_boilerplate_ds(
    sf_dir: str,
    g: int = 6,
    min_doc_pct: int = 30,
) -> ray.data.Dataset:
    """Per-SOURCE boilerplate removal — the host-frequency rule CCNet
    and trafilatura-style curation applies to web text: any
    OVERLAPPING ``g``-gram that appears in at least ``min_doc_pct`` %
    of a source's documents (distinct-doc frequency, exact integer
    threshold ``cnt * 100 >= pct * n_docs``) is chrome, and every
    token covered by an occurrence of a chrome gram is struck from the
    document. Differs from :func:`scrub_dup_runs` (global df > 1, long
    runs only) in both the grouping (per-source fraction) and the cut
    rule (all covered tokens go — chrome is removed wholesale).

    Input massage (deterministic stand-in, the ``bloom_screen`` /
    ``corpus_snapshot_diff`` convention): docs with even ``doc_id``
    get their source's :func:`_boiler_phrase` appended, simulating the
    shared page chrome a real crawl carries; the detection path under
    test is blind to the plant.

    Returns one row per doc: (doc_id, source, n_before, n_after,
    clean_md5) — md5 of the kept-token join byte-pins the rewrite.

    Plan: slim (source, gram) distinct-doc counts fold in the
    coarse-bucket aggregate; per-source doc totals are a tiny
    broadcast; path by ``broadcast.pull`` of the chrome-gram set —
    broadcast set + one streaming rewrite when it is pulled, else
    gram-position rows meet the
    chrome set co-partitioned on (source, gram) and flagged positions
    rejoin each doc's text co-partitioned on doc_id (text crosses
    the wire once, co-partitioned, never driver-sized)."""
    import hashlib

    docs = read_table(sf_dir, "documents", ["doc_id", "source", "text"])

    def massage(doc_id: int, source: str, text: str) -> str:
        if doc_id % 2 == 0:
            return (text.strip() + " " + _boiler_phrase(source, g)).strip()
        return text

    def doc_distinct_grams(batch: pa.Table) -> pa.Table:
        srcs: list[str] = []
        grams: list[str] = []
        for doc_id, source, text in zip(
            batch["doc_id"].to_pylist(),
            batch["source"].to_pylist(),
            batch["text"].to_pylist(),
        ):
            for gr in set(_grams_overlapping(massage(doc_id, source, text).split(), g)):
                srcs.append(source)
                grams.append(gr)
        return pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "gram": pa.array(grams, pa.string()),
            }
        )

    df_counts = bucketed_aggregate(
        docs.map_batches(doc_distinct_grams, batch_format="pyarrow"),
        ["source", "gram"],
        {"cnt": ("gram", "count")},
    )

    nd = (
        docs.map_batches(
            lambda d: d.groupby("source", sort=False).size().rename("n").reset_index(),
            batch_format="pandas",
        )
        .groupby("source")
        .aggregate(ray.data.aggregate.Sum("n", alias_name="n"))
        .to_pandas()
    )
    n_docs = (
        {str(s): int(n) for s, n in zip(nd["source"], nd["n"])} if len(nd) else {}
    )
    nd_ref = ray.put(n_docs)

    def keep_chrome(t: pa.Table) -> pa.Table:
        # arrow-side filter: empty pandas object batches trip Ray's
        # noisy size estimator (repo-documented hazard)
        ndm = cached_object(nd_ref)
        tot = np.fromiter(
            (ndm[s] for s in t["source"].to_pylist()), dtype=np.int64, count=t.num_rows
        )
        cnt = np.asarray(t["cnt"].to_pylist(), dtype=np.int64)
        return t.select(["source", "gram"]).filter(
            pa.array(cnt * 100 >= min_doc_pct * tot)
        )

    chrome_rows = df_counts.map_batches(keep_chrome, batch_format="pyarrow").materialize()

    out_schema = {
        "doc_id": pa.int64(),
        "source": pa.string(),
        "n_before": pa.int64(),
        "n_after": pa.int64(),
        "clean_md5": pa.string(),
    }

    def finish_doc(doc_id: int, source: str, words: list[str], flags: "np.ndarray"):
        keep, _runs, _rm = _covered_runs(flags, len(words), g, 1)
        clean = " ".join(w for w, k in zip(words, keep) if k)
        return (
            int(doc_id),
            source,
            len(words),
            int(keep.sum()),
            hashlib.md5(clean.encode()).hexdigest(),
        )

    def rows_table(rows) -> pa.Table:
        cols = list(zip(*rows)) if rows else [[] for _ in out_schema]
        return pa.table(
            {n: pa.array(c, t) for (n, t), c in zip(out_schema.items(), cols)}
        )

    if pulled := broadcast.pull(chrome_rows):
        by_src: dict[str, set] = {}
        (cdf,) = pulled
        if len(cdf):
            for s, gr in zip(cdf["source"], cdf["gram"]):
                by_src.setdefault(str(s), set()).add(gr)
        chrome_ref = ray.put(by_src)

        def rewrite(batch: pa.Table) -> pa.Table:
            chrome = cached_object(chrome_ref)
            rows = []
            for doc_id, source, text in zip(
                batch["doc_id"].to_pylist(),
                batch["source"].to_pylist(),
                batch["text"].to_pylist(),
            ):
                words = massage(doc_id, source, text).split()
                cs = chrome.get(source, ())
                grams = _grams_overlapping(words, g)
                flags = np.fromiter(
                    (gr in cs for gr in grams), dtype=bool, count=len(grams)
                )
                rows.append(finish_doc(doc_id, source, words, flags))
            return rows_table(rows)

        return docs.map_batches(rewrite, batch_format="pyarrow")

    # join-back path: (source, gram) position rows meet the chrome set
    # co-partitioned on (source, gram); flagged positions rejoin doc
    # text co-partitioned on doc_id

    def explode(batch: pa.Table) -> pa.Table:
        ids, srcs, poss, grams = [], [], [], []
        for doc_id, source, text in zip(
            batch["doc_id"].to_pylist(),
            batch["source"].to_pylist(),
            batch["text"].to_pylist(),
        ):
            for i, gr in enumerate(
                _grams_overlapping(massage(doc_id, source, text).split(), g)
            ):
                ids.append(doc_id)
                srcs.append(source)
                poss.append(i)
                grams.append(gr)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "source": pa.array(srcs, pa.string()),
                "pos": pa.array(poss, pa.int64()),
                "gram": pa.array(grams, pa.string()),
            }
        )

    def flag_bucket(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
        t, d = sides["t"], sides["d"]
        chrome = set(zip(d["source"], d["gram"]))
        # numpy mask, NOT a list: an empty list is pandas COLUMN
        # selection and silently drops every column
        mask = np.fromiter(
            (sg in chrome for sg in zip(t["source"], t["gram"])),
            dtype=bool,
            count=len(t),
        )
        return t.loc[mask, ["doc_id", "pos"]]

    flagged = co_partition(
        {"t": docs.map_batches(explode, batch_format="pyarrow"), "d": chrome_rows},
        ["source", "gram"],
        flag_bucket,
    )

    def reassemble(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
        hits = {int(d): p.to_numpy() for d, p in sides["f"].groupby("doc_id", sort=False)["pos"]}
        rows = []
        d = sides["d"]
        for doc_id, source, text in zip(d["doc_id"], d["source"], d["text"]):
            words = massage(int(doc_id), source, text).split()
            flags = np.zeros(max(0, len(words) - g + 1), dtype=bool)
            flags[hits.get(int(doc_id), [])] = True
            rows.append(finish_doc(int(doc_id), source, words, flags))
        return pd.DataFrame(rows, columns=["doc_id", "source", "n_before", "n_after", "clean_md5"])

    return co_partition({"f": flagged, "d": docs}, ["doc_id"], reassemble)


def strip_boilerplate(sf_dir: str, g: int = 6, min_doc_pct: int = 30) -> pa.Table:
    out = strip_boilerplate_ds(sf_dir, g=g, min_doc_pct=min_doc_pct).to_pandas()
    return finish(
        out,
        "doc_id",
        columns=["doc_id", "source", "n_before", "n_after", "clean_md5"],
        dtypes={"doc_id": "int64", "n_before": "int64", "n_after": "int64"},
        empty=pa.schema(
            {
                "doc_id": pa.int64(),
                "source": pa.string(),
                "n_before": pa.int64(),
                "n_after": pa.int64(),
                "clean_md5": pa.string(),
            }
        ),
    )


def strip_boilerplate_sql(g: int = 6, min_doc_pct: int = 30) -> str:
    boiler = " || ".join(
        [f"' bp' || source || 'w{j}'" for j in range(g)]
    )
    return f"""
WITH massaged AS (
    SELECT doc_id, source,
           CASE WHEN doc_id % 2 = 0
                THEN trim(trim(text) || {boiler})
                ELSE text END AS t
    FROM documents
),
arr AS (
    SELECT doc_id, source, regexp_split_to_array(trim(t), '\\s+') AS a
    FROM massaged WHERE trim(t) <> ''
),
toks AS (
    SELECT doc_id, source, s.i AS pos, a[s.i] AS tok, len(a) AS n
    FROM arr, UNNEST(generate_series(1, len(a))) AS s(i)
),
grams AS (
    SELECT doc_id, source, s.i AS gpos,
           array_to_string(a[s.i:s.i + {g - 1}], chr(31)) AS gr
    FROM arr, UNNEST(generate_series(1, len(a) - {g - 1})) AS s(i)
),
docgrams AS (SELECT DISTINCT doc_id, source, gr FROM grams),
src_docs AS (SELECT source, COUNT(*) AS nd FROM massaged GROUP BY source),
chrome AS (
    SELECT dg.source, dg.gr
    FROM (SELECT source, gr, COUNT(*) AS c FROM docgrams GROUP BY source, gr) dg
    JOIN src_docs sd USING (source)
    WHERE dg.c * 100 >= {min_doc_pct} * sd.nd
),
cov AS (
    SELECT g2.doc_id, g2.gpos
    FROM grams g2 JOIN chrome ch ON g2.source = ch.source AND g2.gr = ch.gr
),
cut AS (
    SELECT t.doc_id, t.source, t.pos, t.tok, t.n,
           EXISTS (
               SELECT 1 FROM cov c
               WHERE c.doc_id = t.doc_id AND t.pos BETWEEN c.gpos AND c.gpos + {g - 1}
           ) AS removed
    FROM toks t
),
folded AS (
    SELECT doc_id,
           any_value(n) AS n_before,
           COUNT(*) FILTER (WHERE NOT removed) AS n_after,
           md5(COALESCE(string_agg(tok, ' ' ORDER BY pos) FILTER (WHERE NOT removed), ''))
               AS clean_md5
    FROM cut GROUP BY doc_id
)
SELECT m.doc_id, m.source,
       CAST(COALESCE(f.n_before, 0) AS BIGINT) AS n_before,
       CAST(COALESCE(f.n_after, 0) AS BIGINT) AS n_after,
       COALESCE(f.clean_md5, md5('')) AS clean_md5
FROM massaged m LEFT JOIN folded f USING (doc_id)
ORDER BY m.doc_id
"""
