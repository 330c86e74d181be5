"""Text-analysis operators: token counting, quality scoring,
language-ID, document fingerprinting. All vectorized-per-batch over the
documents table; stats are exact integers (or fixed-point ints) so the
SQL-expressible ones hash-compare against DuckDB.
"""
from __future__ import annotations

import os
import re
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from mlscraper_ray.functions import broadcast
from mlscraper_ray.functions.broadcast import cached_object
from mlscraper_ray.functions.bucketed import (
    bucketed_aggregate,
    co_partition,
    coalesce_blocks,
    quantiles_disc,
)
from mlscraper_ray.functions.tables import finish, md5_number_lower, read_table

_WORD_RE = re.compile(r"\S+")

_STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "ein", "nicht", "mit", "auf", "zu"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "pas", "pour", "dans"},
}


def doc_token_stats(sf_dir: str) -> pa.Table:
    """Per-doc exact token/char counts (whitespace tokens)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": batch["text"].str.findall(_WORD_RE).str.len().astype("int64"),
                "n_chars": batch["text"].str.len().astype("int64"),
            }
        )

    return finish(ds.map_batches(fn, batch_format="pandas").to_pandas(), "doc_id")


DOC_TOKEN_STATS_SQL = """
SELECT doc_id,
       CASE WHEN trim(text) = '' THEN 0
            ELSE length(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens,
       length(text) AS n_chars
FROM documents
ORDER BY doc_id
"""


def source_token_totals(sf_dir: str) -> pa.Table:
    """Corpus-level token budget per source: per-doc token counts ->
    one bucketed aggregate. The shape of 'how many training tokens do
    we have'."""
    ds = read_table(sf_dir, "documents", ["source", "text"])

    def n_tokens(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "source": batch["source"],
                "n_tokens": batch["text"].str.findall(_WORD_RE).str.len().astype("int64"),
            }
        )

    agg = bucketed_aggregate(
        ds.map_batches(n_tokens, batch_format="pandas"),
        ["source"],
        {"n_tokens": ("n_tokens", "sum"), "n_docs": ("n_tokens", "count")},
    )
    return finish(agg.to_pandas(), "source", dtypes={"n_tokens": "int64", "n_docs": "int64"})


SOURCE_TOKEN_TOTALS_SQL = """
SELECT source,
       CAST(SUM(CASE WHEN trim(text) = '' THEN 0
                ELSE length(regexp_split_to_array(trim(text), '\\s+')) END) AS BIGINT) AS n_tokens,
       COUNT(*) AS n_docs
FROM documents
GROUP BY source
ORDER BY source
"""


class QualityScorer:
    """Actor-pool stage: heuristic quality features per document.
    All arithmetic is integer floor division (never float round), so
    the output is bit-identical to the SQL oracle on any platform."""

    def __init__(self):
        self.alpha_re = re.compile(r"[^a-zA-Z]+")
        self.ws_re = re.compile(r"\s+")
        self.stop = _STOPWORDS["en"]

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = {
            "doc_id": batch["doc_id"],
            "n_tokens": [],
            "alpha_pct": [],
            "stopword_pct": [],
            "mean_wordlen_x100": [],
            "quality_x10": [],
        }
        for text in batch["text"]:
            tokens = text.split()
            n = len(tokens)
            alpha_chars = len(self.alpha_re.sub("", text))
            nonws_chars = len(self.ws_re.sub("", text))
            alpha_pct = (100 * alpha_chars) // max(1, len(text))
            stop_pct = (100 * sum(1 for t in tokens if t.lower() in self.stop)) // max(1, n)
            mwl = (100 * nonws_chars) // max(1, n)
            # crude composite x10 fixed-point: long enough, alpha-heavy,
            # some stopwords
            quality = min(100, n // 2) * 4 + alpha_pct * 4 + min(stop_pct, 40) * 5
            out["n_tokens"].append(n)
            out["alpha_pct"].append(alpha_pct)
            out["stopword_pct"].append(stop_pct)
            out["mean_wordlen_x100"].append(mwl)
            out["quality_x10"].append(quality)
        return pd.DataFrame(out)


# worker-process-global instances: stateless tasks reuse Ray's warm
# worker processes, skipping actor-pool startup on short jobs
_QUALITY = QualityScorer()


def quality_scores(sf_dir: str) -> pa.Table:
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return finish(
        ds.map_batches(lambda b: _QUALITY(b), batch_format="pandas").to_pandas(),
        "doc_id",
    )


def _sql_stopword_list(lang: str) -> str:
    return "[" + ", ".join(f"'{w}'" for w in sorted(_STOPWORDS[lang])) + "]"


QUALITY_SCORES_SQL = f"""
WITH base AS (
    SELECT doc_id,
           text,
           CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                ELSE string_split_regex(trim(text), '\\s+') END AS tk
    FROM documents
),
feat AS (
    SELECT doc_id,
           len(tk) AS n_tokens,
           (100 * length(regexp_replace(text, '[^a-zA-Z]+', '', 'g')))
               // greatest(1, length(text)) AS alpha_pct,
           (100 * len(list_filter(tk, x -> list_contains({_sql_stopword_list('en')}, lower(x)))))
               // greatest(1, len(tk)) AS stopword_pct,
           (100 * length(regexp_replace(text, '\\s+', '', 'g')))
               // greatest(1, len(tk)) AS mean_wordlen_x100
    FROM base
)
SELECT doc_id, n_tokens, alpha_pct, stopword_pct, mean_wordlen_x100,
       least(100, n_tokens // 2) * 4 + alpha_pct * 4 + least(stopword_pct, 40) * 5
           AS quality_x10
FROM feat
ORDER BY doc_id
"""


def lang_vote(text: str) -> tuple[str, int]:
    """The single definition of the stopword-vote language rule
    (en/de/fr, 'und' fallback, ties in en < de < fr order, floor-milli
    integer score) — shared by :class:`LangIdStage`, the curation
    composites and the WET truth builder so the rule cannot fork."""
    tokens = [t.lower() for t in text.split()[:500]]
    n = max(1, len(tokens))
    best_lang, best = "und", 0
    for lang in ("en", "de", "fr"):
        hits = sum(1 for t in tokens if t in _STOPWORDS[lang])
        if hits > best:
            best, best_lang = hits, lang
    return best_lang, (1000 * best) // n


class LangIdStage:
    """Actor-pool stage: stopword-voting language ID (en/de/fr) with an
    'und' (undetermined) fallback. Deterministic heuristic; ties break
    in en < de < fr vote order and the score is floor-milli (integer
    arithmetic only, so the SQL oracle matches bit-for-bit)."""

    def __init__(self):
        self.stopwords = _STOPWORDS

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        langs, scores = [], []
        for text in batch["text"]:
            lang, score = lang_vote(text)
            langs.append(lang)
            scores.append(score)
        return pd.DataFrame({"doc_id": batch["doc_id"], "lang_pred": langs, "lang_score_milli": scores})


_LANGID = LangIdStage()


def langid(sf_dir: str) -> pa.Table:
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return finish(
        ds.map_batches(lambda b: _LANGID(b), batch_format="pandas").to_pandas(),
        "doc_id",
    )


LANGID_SQL = f"""
WITH toks AS (
    SELECT doc_id,
           list_transform(
               CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                    ELSE string_split_regex(trim(text), '\\s+')[1:500] END,
               x -> lower(x)) AS tk
    FROM documents
),
votes AS (
    SELECT doc_id,
           len(tk) AS n,
           len(list_filter(tk, x -> list_contains({_sql_stopword_list('en')}, x))) AS en_v,
           len(list_filter(tk, x -> list_contains({_sql_stopword_list('de')}, x))) AS de_v,
           len(list_filter(tk, x -> list_contains({_sql_stopword_list('fr')}, x))) AS fr_v
    FROM toks
)
SELECT doc_id,
       CASE WHEN greatest(en_v, de_v, fr_v) = 0 THEN 'und'
            WHEN en_v >= de_v AND en_v >= fr_v THEN 'en'
            WHEN de_v >= fr_v THEN 'de'
            ELSE 'fr' END AS lang_pred,
       (1000 * greatest(en_v, de_v, fr_v)) // greatest(1, n) AS lang_score_milli
FROM votes
ORDER BY doc_id
"""


def fingerprints(sf_dir: str) -> pa.Table:
    """Rolling-polynomial document fingerprints over whitespace tokens
    (content-defined identity that survives whitespace noise). Token
    hash = low 8 md5 bytes little-endian — the same value DuckDB's
    ``md5_number_lower`` yields, so the fold is SQL-reproducible."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    B, M = 1000003, (1 << 61) - 1

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        fps = []
        for text in batch["text"].to_pylist():
            acc = 0
            for token in text.split():
                h = md5_number_lower(token)
                acc = (acc * B + h) % M
            fps.append(acc)
        return pa.table({"doc_id": pa.array(ids, pa.int64()), "fingerprint": pa.array(fps, pa.int64())})

    return finish(ds.map_batches(fn, batch_format="pyarrow").to_pandas(), "doc_id")


FINGERPRINTS_SQL = """
WITH toks AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                ELSE string_split_regex(trim(text), '\\s+') END AS tk
    FROM documents
)
SELECT doc_id,
       CAST(list_reduce(
           list_prepend(CAST(0 AS HUGEINT),
                        list_transform(tk, x -> CAST(md5_number_lower(x) AS HUGEINT))),
           (a, b) -> (a * 1000003 + b) % 2305843009213693951
       ) AS BIGINT) AS fingerprint
FROM toks
ORDER BY doc_id
"""


# BPE-ish tokenization: GPT-2-flavored pattern restricted to constructs
# both Python re and DuckDB RE2 implement with leftmost-first
# alternation (no lookahead, no unicode property classes), so the
# oracle compares exactly.
BPE_PATTERN = r"'(?:[sdmt]|ll|ve|re)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"
_BPE_RE = re.compile(BPE_PATTERN)


def bpe_token_stats(sf_dir: str) -> pa.Table:
    """Per-doc BPE-ish token counts (subword-style regex segmentation,
    the 'how many training tokens' estimator) next to whitespace
    counts."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_bpe_tokens": batch["text"].str.findall(_BPE_RE).str.len().astype("int64"),
                "n_ws_tokens": batch["text"].str.findall(_WORD_RE).str.len().astype("int64"),
            }
        )

    return finish(ds.map_batches(fn, batch_format="pandas").to_pandas(), "doc_id")


BPE_TOKEN_STATS_SQL = f"""
SELECT doc_id,
       len(regexp_extract_all(text, '{BPE_PATTERN.replace("'", "''")}')) AS n_bpe_tokens,
       CASE WHEN trim(text) = '' THEN 0
            ELSE length(regexp_split_to_array(trim(text), '\\s+')) END AS n_ws_tokens
FROM documents
ORDER BY doc_id
"""


def clean_text(sf_dir: str) -> pa.Table:
    """Canonical text cleaning: lowercase + whitespace collapse + trim
    (the first stage of most training-data pipelines). Vectorized
    pandas str ops per batch; output text hash-compares against the
    SQL oracle byte-for-byte."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        cleaned = (
            batch["text"].str.lower().str.replace(r"\s+", " ", regex=True).str.strip()
        )
        return pd.DataFrame(
            {"doc_id": batch["doc_id"], "clean_text": cleaned,
             "n_chars_clean": cleaned.str.len().astype("int64")}
        )

    return finish(ds.map_batches(fn, batch_format="pandas").to_pandas(), "doc_id")


CLEAN_TEXT_SQL = """
SELECT doc_id,
       trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS clean_text,
       length(trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))) AS n_chars_clean
FROM documents
ORDER BY doc_id
"""


def sample_documents(sf_dir: str, pct: int = 10) -> pa.Table:
    """Deterministic hash sampling (seedless, rerun- and
    cluster-stable): keep docs where md5(doc_id) mod 100 < pct. The
    canonical downsampling op — the same rows survive on any worker
    count, unlike random_shuffle-based sampling."""
    ds = read_table(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def keep(batch: pa.Table) -> pa.Table:
        mask = [md5_number_lower(str(d)) % 100 < pct for d in batch["doc_id"].to_pylist()]
        return batch.filter(pa.array(mask, pa.bool_()))

    return finish(ds.map_batches(keep, batch_format="pyarrow").to_pandas(), "doc_id")


SAMPLE_DOCUMENTS_SQL = """
SELECT doc_id, source, n_chars
FROM documents
WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 10
ORDER BY doc_id
"""


def sample_stratified(sf_dir: str, rates: dict[str, int] | None = None, default_rate: int = 20) -> pa.Table:
    """Per-LANGUAGE deterministic rate sampling — the language-mixing
    downsample (keep 50% of English, 20% of everything else by
    default). Same seedless md5(doc_id) predicate as
    :func:`sample_documents` so the kept set is rerun- and
    worker-count-stable; the tiny rate map is broadcast once."""
    if rates is None:
        rates = {"en": 50}
    rates_ref = ray.put(dict(rates))

    ds = read_table(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])

    def keep(batch: pa.Table) -> pa.Table:
        r = ray.get(rates_ref)
        mask = [
            md5_number_lower(str(d)) % 100 < r.get(lang, default_rate)
            for d, lang in zip(batch["doc_id"].to_pylist(), batch["lang"].to_pylist())
        ]
        return batch.filter(pa.array(mask, pa.bool_()))

    return finish(ds.map_batches(keep, batch_format="pyarrow").to_pandas(), "doc_id")


SAMPLE_STRATIFIED_SQL = """
SELECT doc_id, lang, source, n_chars
FROM documents
WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 100
      < CASE WHEN lang = 'en' THEN 50 ELSE 20 END
ORDER BY doc_id
"""


def _isqrt_exact_sql(t: str, a: str) -> str:
    """Exact integer sqrt in SQL: ``a`` = FLOOR(SQRT(double(t))) can
    be off by one near perfect squares (float rounding); subtract 1 if
    it overshoots, then add 1 if the next integer still fits — exact
    for any |error| <= 1, which double sqrt guarantees below 2^53."""
    down = f"({a} - CASE WHEN {a} * {a} > {t} THEN 1 ELSE 0 END)"
    return f"({down} + CASE WHEN ({down} + 1) * ({down} + 1) <= {t} THEN 1 ELSE 0 END)"


def source_temperature_mix(sf_dir: str, target_milli: int = 500) -> pa.Table:
    """Temperature-based source mixing at alpha = 1/2 (the
    rare-source up-weighting of Gopher / LLaMA data recipes: expected
    kept tokens from source s scale as T_s^alpha instead of T_s, so
    small sources punch above their raw token share). Integer-exact
    throughout: per-source weight w_s = isqrt(T_s) (``math.isqrt``,
    mirrored in SQL by a float sqrt plus a +/-1 correction that makes
    it exact), keep rate rate_milli(s) = min(1000, target_milli *
    max_s(w) // max(1, w_s)) — the LARGEST source keeps
    target_milli/1000 of its docs and every smaller source keeps
    proportionally more — and the per-doc keep predicate is the
    repo's seedless md5(doc_id) % 1000 draw (rerun- and
    worker-count-stable).

    Distributed plan: per-source token totals fold from per-batch
    partials (sources are mixture components, bounded — the
    source_token_totals shape); the driver computes the tiny rate
    map and broadcasts it; the keep pass is a pure streaming
    map_batches. Zero data-sized shuffles."""
    import math

    totals = source_token_totals(sf_dir).to_pandas()
    w = {s: max(1, math.isqrt(int(t))) for s, t in zip(totals["source"], totals["n_tokens"])}
    wmax = max(w.values())
    rates = {s: min(1000, target_milli * wmax // ws) for s, ws in w.items()}
    rates_ref = ray.put(rates)

    ds = read_table(sf_dir, "documents", ["doc_id", "source"])

    def keep(batch: pa.Table) -> pa.Table:
        r = ray.get(rates_ref)
        ids = batch["doc_id"].to_pylist()
        srcs = batch["source"].to_pylist()
        mask, rm = [], []
        for d, s in zip(ids, srcs):
            rate = r[s]
            mask.append(md5_number_lower(str(d)) % 1000 < rate)
            rm.append(rate)
        t = batch.append_column("rate_milli", pa.array(rm, pa.int64()))
        return t.filter(pa.array(mask, pa.bool_()))

    return finish(ds.map_batches(keep, batch_format="pyarrow").to_pandas(), "doc_id")


def source_temperature_mix_sql(target_milli: int = 500) -> str:
    isq = _isqrt_exact_sql("t", "a")
    return f"""
WITH tot AS (
    SELECT source,
           CAST(SUM(CASE WHEN trim(text) = '' THEN 0
                    ELSE length(regexp_split_to_array(trim(text), '\\s+')) END) AS BIGINT) AS t
    FROM documents GROUP BY source
),
s0 AS (SELECT source, t, CAST(FLOOR(SQRT(CAST(t AS DOUBLE))) AS BIGINT) AS a FROM tot),
w AS (SELECT source, GREATEST(1, {isq}) AS w FROM s0),
rates AS (
    SELECT source,
           LEAST(1000, {target_milli} * (SELECT MAX(w) FROM w) // w) AS rate_milli
    FROM w
)
SELECT d.doc_id, d.source, r.rate_milli
FROM documents d JOIN rates r USING (source)
WHERE md5_number_lower(CAST(d.doc_id AS VARCHAR)) % 1000 < r.rate_milli
ORDER BY d.doc_id
"""


def source_token_quota(sf_dir: str, budget_tokens: int = 1000, n_rank_buckets: int = 64) -> pa.Table:
    """Per-source TOKEN-BUDGET selection — the data-mixing primitive a
    training run uses ("at most N tokens from each source"): keep each
    source's documents in a deterministic md5(doc_id) rank order while
    the running token total stays <= ``budget_tokens``. Equivalent to
    the SQL window cumsum (SOURCE_TOKEN_QUOTA_SQL) but computed as a
    distributed prefix sum — no engine-wide window/sort anywhere:

    1. slim pass: (source, doc_id, n_tokens, rk=md5(doc_id) hex,
       rb=RANGE bucket of rk's first byte) — text never leaves the
       task;
    2. per-(source, rank-bucket) token sums via the coarse-bucket
       aggregate; that table is O(sources x n_rank_buckets) — sources
       here are MIXTURE COMPONENTS (commoncrawl/books/code/...), a
       bounded count by construction, so the driver pull is bounded.
       (If "source" were per-domain cardinality, hash it into a
       bounded component key first.)
    3. driver prefix over each source's rank buckets classifies every
       bucket: keep whole (start+sum <= budget), drop whole
       (start > budget: every cum in the bucket exceeds), or BOUNDARY
       (at most one per source);
    4. one broadcast filter keeps/drops whole buckets; only boundary
       rows — one rank bucket per source, ~1/n_rank_buckets of that
       source — pay a per-doc sort+cumsum inside map_groups.

    Doc order within the prefix is (rk, doc_id): hex-string md5
    comparison is identical in Python and SQL, so output is
    worker-count-invariant and oracle-exact. Zero-token docs follow
    the same cum <= budget rule (the start==budget edge keeps them;
    tested)."""
    import ray


    ds = read_table(sf_dir, "documents", ["doc_id", "source", "text"])

    def slim(batch: pd.DataFrame) -> pd.DataFrame:
        import hashlib

        rk = [hashlib.md5(str(d).encode()).hexdigest() for d in batch["doc_id"]]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "source": batch["source"].astype(str),
                "n_tokens": batch["text"].str.findall(_WORD_RE).str.len().astype("int64"),
                "rk": rk,
                # RANGE partition on the first byte so rb order == rk order
                "rb": [int(h[:2], 16) * n_rank_buckets // 256 for h in rk],
            }
        )

    rows = ds.map_batches(slim, batch_format="pandas").materialize()

    sums = bucketed_aggregate(
        rows, ["source", "rb"], {"tok_sum": ("n_tokens", "sum")}
    ).to_pandas()  # O(sources x n_rank_buckets) rows — bounded, see docstring

    keep_whole: set[tuple[str, int]] = set()
    boundary: dict[tuple[str, int], int] = {}  # -> start offset
    for source, g in sums.groupby("source", sort=False):
        start = 0
        for _, r in g.sort_values("rb").iterrows():
            rb, tok_sum = int(r["rb"]), int(r["tok_sum"])
            if start + tok_sum <= budget_tokens:
                keep_whole.add((source, rb))
            elif start <= budget_tokens:
                boundary[(source, rb)] = start
            # start > budget_tokens: drop whole bucket
            start += tok_sum

    kw_ref = ray.put(keep_whole)
    bd_ref = ray.put(boundary)

    def keep_filter(df: pd.DataFrame) -> pd.DataFrame:
        kw = ray.get(kw_ref)
        keys = list(zip(df["source"], df["rb"].astype(int)))
        mask = pd.Series([k in kw for k in keys], index=df.index)
        return df[mask][["doc_id", "source", "n_tokens"]]

    def boundary_filter(df: pd.DataFrame) -> pd.DataFrame:
        bd = ray.get(bd_ref)
        keys = list(zip(df["source"], df["rb"].astype(int)))
        mask = pd.Series([k in bd for k in keys], index=df.index)
        return df[mask]

    kept = rows.map_batches(keep_filter, batch_format="pandas")

    def cut_boundary(g: pd.DataFrame) -> pd.DataFrame:
        bd = ray.get(bd_ref)
        start = bd[(g["source"].iloc[0], int(g["rb"].iloc[0]))]
        g = g.sort_values(["rk", "doc_id"])
        cum = start + g["n_tokens"].cumsum()
        return g[cum <= budget_tokens][["doc_id", "source", "n_tokens"]]

    cut = (
        rows.map_batches(boundary_filter, batch_format="pandas")
        .groupby(["source", "rb"])
        .map_groups(cut_boundary, batch_format="pandas")
    )

    out = kept.union(cut).to_pandas()
    return finish(
        out,
        "doc_id",
        dtypes={"doc_id": "int64", "n_tokens": "int64"},
        empty=pa.schema({"doc_id": pa.int64(), "source": pa.string(), "n_tokens": pa.int64()}),
    )


def source_token_quota_sql(budget_tokens: int = 1000) -> str:
    return f"""
WITH toks AS (
    SELECT doc_id, source,
           CASE WHEN trim(text) = '' THEN 0
                ELSE length(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens,
           md5(CAST(doc_id AS VARCHAR)) AS rk
    FROM documents
),
c AS (
    SELECT doc_id, source, n_tokens,
           SUM(n_tokens) OVER (PARTITION BY source ORDER BY rk, doc_id
                               ROWS UNBOUNDED PRECEDING) AS cum
    FROM toks
)
SELECT doc_id, source, CAST(n_tokens AS BIGINT) AS n_tokens
FROM c WHERE cum <= {budget_tokens} ORDER BY doc_id
"""


SOURCE_TOKEN_QUOTA_SQL = source_token_quota_sql()


_HLL_SHIFT = 8  # m = 256 registers; w = h >> 8 has W = 56 bits
_HLL_M = 1 << _HLL_SHIFT
_HLL_ALPHA_X1E6 = 718273  # alpha_256 = 0.7213/(1+1.079/256), fixed-point
_HLL_SCALE = 1 << 62  # 2^-M[j] terms as SCALE >> M[j] (exact integers)


def source_distinct_tokens_hll(sf_dir: str) -> pa.Table:
    """APPROXIMATE distinct-token count per source — a HyperLogLog
    sketch, the mergeable cardinality primitive a 100 TB pipeline uses
    where COUNT(DISTINCT token) would shuffle the whole vocabulary.
    Every step is EXACT INTEGER arithmetic, so unlike a typical HLL
    the whole sketch (registers AND estimate) is reproduced bit-for-
    bit by the SQL oracle:

    - h = lower-64 md5 of the token (matches DuckDB
      ``md5_number_lower``), register j = h % 256, rank
      rho = 57 - bit_length(h >> 8);
    - per-batch partial registers (at most sources x 256 rows leave a
      task, whatever the batch size) max-merge through the
      coarse-bucket aggregate — max is associative/commutative, so
      the sketch is worker-count invariant;
    - the raw-HLL harmonic mean uses fixed-point terms SCALE >> M[j]
      and one integer division per source (driver work over the
      bounded sources x 256 table).

    Output: (source, est_distinct, zero_registers). Standard error of
    raw HLL at m=256 is ~6.5% (accuracy pinned by a 20k-token crafted
    test); zero_registers lets consumers apply small-range correction
    externally."""

    ds = read_table(sf_dir, "documents", ["source", "text"])

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        regs: dict[tuple[str, int], int] = {}
        cache: dict[str, int] = {}
        for src, text in zip(batch["source"].astype(str), batch["text"]):
            for tok in set(_WORD_RE.findall(text)):
                h = cache.get(tok)
                if h is None:
                    h = md5_number_lower(tok)
                    cache[tok] = h
                k = (src, h & (_HLL_M - 1))
                rho = 57 - (h >> _HLL_SHIFT).bit_length()
                if rho > regs.get(k, 0):
                    regs[k] = rho
        items = sorted(regs.items())
        return pd.DataFrame(
            {
                "source": [k[0] for k, _ in items],
                "j": pd.Series([k[1] for k, _ in items], dtype="int64"),
                "rho": pd.Series([v for _, v in items], dtype="int64"),
            }
        )

    merged = bucketed_aggregate(
        ds.map_batches(partials, batch_format="pandas"), ["source", "j"], {"mj": ("rho", "max")}
    ).to_pandas()  # bounded: sources x 256 rows

    out_src, out_est, out_zero = [], [], []
    for source, g in sorted(merged.groupby("source", sort=False), key=lambda kv: kv[0]):
        zero = _HLL_M - len(g)
        z = zero * _HLL_SCALE + sum(_HLL_SCALE >> int(mj) for mj in g["mj"])
        est = _HLL_ALPHA_X1E6 * _HLL_M * _HLL_M * _HLL_SCALE // (1_000_000 * z)
        out_src.append(source)
        out_est.append(est)
        out_zero.append(zero)
    return pa.table(
        {
            "source": pa.array(out_src, pa.string()),
            "est_distinct": pa.array(out_est, pa.int64()),
            "zero_registers": pa.array(out_zero, pa.int64()),
        }
    )


SOURCE_DISTINCT_TOKENS_HLL_SQL = """
WITH words AS (
    SELECT source,
           unnest(list_filter(string_split_regex(text, '\\s+'), x -> x <> '')) AS token
    FROM documents
),
toks AS (SELECT DISTINCT source, token FROM words),
hs AS (SELECT source, md5_number_lower(token) AS h FROM toks),
r AS (
    SELECT source, CAST(h % 256 AS BIGINT) AS j,
           57 - length(ltrim(bin(CAST(h // 256 AS UBIGINT)), '0')) AS rho
    FROM hs
),
regs AS (SELECT source, j, MAX(rho) AS mj FROM r GROUP BY source, j),
z AS (
    SELECT source,
           SUM((CAST(1 AS BIGINT) << 62) >> mj) AS zp,
           COUNT(*) AS nregs
    FROM regs GROUP BY source
)
SELECT source,
       CAST(CAST(718273 AS HUGEINT) * 256 * 256 * (CAST(1 AS HUGEINT) << 62)
            // (1000000 * (CAST(zp AS HUGEINT)
                           + (256 - nregs) * (CAST(1 AS HUGEINT) << 62))) AS BIGINT)
           AS est_distinct,
       CAST(256 - nregs AS BIGINT) AS zero_registers
FROM z
ORDER BY source
"""


def doc_unigram_surprisal(sf_dir: str) -> pa.Table:
    """Per-doc unigram-surprisal LM quality score — the CCNet-style
    'how typical is this text of the corpus' signal, INTEGER-exact so
    it hash-compares against SQL: with corpus unigram counts ``c(w)``
    over ``T`` total whitespace tokens, a token's surprisal is
    ``bit_length(T // c(w)) - 1`` (= floor(log2(T/c)), an integer
    log2), a doc's score the sum over its token OCCURRENCES, plus the
    per-token mean in milli units. Rare-word-heavy (or garbage) docs
    score high, boilerplate scores low. Empty docs carry no tokens and
    are absent (matching the SQL words CTE).

    Distributed plan: see :func:`_unigram_scored_ds` (shared with the
    perplexity-bucket partitioner)."""
    return _fold_surprisal(_unigram_scored_ds(sf_dir))


def _fold_surprisal(scored: "ray.data.Dataset") -> pa.Table:
    out = scored.to_pandas()
    if len(out) == 0:
        return pa.table(
            {
                c: pa.array([], pa.int64())
                for c in ("doc_id", "n_tokens", "surprisal_sum", "mean_milli")
            }
        )
    out = out.astype("int64")
    out["mean_milli"] = (1000 * out["surprisal_sum"]) // out["n_tokens"]
    return finish(out, "doc_id", columns=["doc_id", "n_tokens", "surprisal_sum", "mean_milli"])


# scored-Dataset memo: doc_unigram_surprisal and doc_perplexity_buckets
# both pay the scorer; within one process a registry pass reuses the
# materialized slim result. Keyed by the documents parquet's identity
# (path + size + mtime), so a rewritten file can't serve stale scores,
# and by the pull cap, so a run on one path is never served the other
# path's scores.
_SCORED_CACHE: dict = {}


def _unigram_scored_ds(sf_dir: str) -> "ray.data.Dataset":
    """Scored Dataset (doc_id, n_tokens, surprisal_sum) behind both
    surprisal-family operators (process-memoized, see _SCORED_CACHE).

    Distributed plan: word rows (``_words``) fold through the bucketed
    aggregate into the corpus count table (the source_top_terms
    shape); T is one distributed sum. The join-back is chosen by
    ``broadcast.pull`` on the count table: when it is pulled, it
    becomes a word->surprisal dict broadcast via ``ray.put`` — scoring
    is then a single streaming pass; when it is too large to pull,
    per-doc (word, occ) partials meet the count table co-partitioned on word and doc scores fold
    through the coarse-bucket aggregate (nothing driver-sized). Paths
    bit-identical (tested)."""
    docs_path = os.path.join(sf_dir, "documents.parquet")
    st_ = os.stat(docs_path)
    memo_key = (
        os.path.abspath(docs_path), st_.st_size, st_.st_mtime_ns, broadcast._MAX_PULL_BYTES
    )
    if memo_key in _SCORED_CACHE:
        return _SCORED_CACHE[memo_key]

    def _memo(ds_out: "ray.data.Dataset") -> "ray.data.Dataset":
        out = ds_out.materialize()
        _SCORED_CACHE.clear()  # one corpus at a time: bound the memo
        _SCORED_CACHE[memo_key] = out
        return out

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    counts = bucketed_aggregate(
        docs.map_batches(_words, batch_format="pandas"),
        ["word"],
        {"cnt": ("word", "count")},
    ).materialize()
    total = int(counts.sum("cnt") or 0)

    if total == 0:
        # all-empty corpus: empty Dataset to_pandas() drops columns
        # (repo-documented hazard), so hand back a TYPED empty table
        return _memo(
            ray.data.from_arrow(
                pa.table(
                    {
                        c: pa.array([], pa.int64())
                        for c in ("doc_id", "n_tokens", "surprisal_sum")
                    }
                )
            )
        )

    if pulled := broadcast.pull(counts):
        # one streaming scoring pass, zero further shuffle rounds
        (cp,) = pulled
        table = {
            w: (total // int(c)).bit_length() - 1
            for w, c in zip(cp["word"], cp["cnt"])
        }
        t_ref = ray.put(table)

        def score(batch: pd.DataFrame) -> pd.DataFrame:
            t = cached_object(t_ref)
            ids, nt, ss = [], [], []
            for doc_id, text in zip(batch["doc_id"], batch["text"]):
                words = text.split()
                if not words:
                    continue
                ids.append(doc_id)
                nt.append(len(words))
                ss.append(sum(t[w] for w in words))
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(ids, dtype="int64"),
                    "n_tokens": pd.Series(nt, dtype="int64"),
                    "surprisal_sum": pd.Series(ss, dtype="int64"),
                }
            )

        return _memo(docs.map_batches(score, batch_format="pandas"))

    # scale path: per-doc (word, occ) partials meet the count table
    # co-partitioned on word; doc scores fold through the coarse bucket

    def doc_word_occ(batch: pd.DataFrame) -> pd.DataFrame:
        ex = pd.DataFrame(
            {"doc_id": batch["doc_id"], "word": batch["text"].str.split()}
        ).explode("word")
        ex = ex[ex["word"].notna()]
        g = ex.groupby(["doc_id", "word"], sort=False).size().rename("occ").reset_index()
        return pd.DataFrame(
            {
                "word": g["word"].astype(str),
                "doc_id": g["doc_id"].astype("int64"),
                "occ": g["occ"].astype("int64"),
            }
        )

    def join_score(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
        m = sides["d"].merge(sides["c"], on="word", how="left")
        surp = [(total // int(cc)).bit_length() - 1 for cc in m["cnt"]]
        return pd.DataFrame(
            {
                "doc_id": m["doc_id"],
                "s": (pd.Series(surp, index=m.index, dtype="int64") * m["occ"]).astype("int64"),
                "n": m["occ"],
            }
        )

    flags = co_partition(
        {
            "d": coalesce_blocks(
                docs.map_batches(doc_word_occ, batch_format="pandas"), total // 4 + 1
            ),
            "c": counts,
        },
        ["word"],
        join_score,
    )
    return _memo(
        bucketed_aggregate(
            flags, ["doc_id"], {"surprisal_sum": ("s", "sum"), "n_tokens": ("n", "sum")}
        )
    )


def _words(batch: pd.DataFrame, *keep: str) -> pd.DataFrame:
    """One ``word`` row per whitespace token of ``batch["text"]``, with
    the ``keep`` columns of its document — the shared tokenize step of
    every word-count aggregate (one definition so their unigram
    semantics cannot desynchronize)."""
    ex = pd.DataFrame({"word": batch["text"].str.split(), **{c: batch[c] for c in keep}})
    ex = ex.explode("word")
    return ex[ex["word"].notna()]


def _bigram_rows(texts: pd.Series) -> pd.DataFrame:
    """ONE tokenize pass feeds both count tables: a (w1, w2) row per
    bigram plus a unigram row per token marked w2="" — "" can never be
    a real token (whitespace split yields non-empty strings only), so
    the sentinel is collision-free and one bucketed aggregate serves
    both tables instead of re-reading the corpus."""
    w1s, w2s, uni = [], [], []
    for text in texts:
        words = text.split()
        w1s.extend(words[:-1])
        w2s.extend(words[1:])
        uni.extend(words)
    return pd.DataFrame({"w1": w1s + uni, "w2": w2s + [""] * len(uni)})


DOC_UNIGRAM_SURPRISAL_SQL = """
WITH words AS (
    SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\\s+')) AS word
    FROM documents WHERE trim(text) <> ''
),
counts AS (SELECT word, COUNT(*) AS c FROM words GROUP BY word),
tot AS (SELECT COUNT(*) AS t FROM words),
scored AS (
    SELECT w.doc_id,
           length(ltrim(bin(CAST((SELECT t FROM tot) // c.c AS BIGINT)), '0')) - 1 AS s
    FROM words w JOIN counts c USING (word)
)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
       CAST(SUM(s) AS BIGINT) AS surprisal_sum,
       CAST((1000 * SUM(s)) // COUNT(*) AS BIGINT) AS mean_milli
FROM scored GROUP BY doc_id ORDER BY doc_id
"""


def doc_bigram_surprisal(sf_dir: str) -> pa.Table:
    """Per-doc bigram CONDITIONAL surprisal — the next-word-
    predictability LM proxy one order above
    :func:`doc_unigram_surprisal`, same integer discipline: a bigram
    position's surprisal is ``bit_length(c1(prev) // c2(prev, cur))
    - 1`` (integer floor log2 of the inverse conditional frequency;
    ``c1 >= c2`` always, so scores are >= 0), a doc's score the sum
    over its n-1 bigram positions plus the milli mean. Docs with
    fewer than 2 tokens are absent (matching the SQL pos CTE).

    Distributed plan: unigram and bigram corpus counts fold from one
    tokenize pass (``_bigram_rows``) through one bucketed aggregate; the
    join-back is chosen by one ``broadcast.pull`` of both tables —
    when they are pulled, both broadcast as dicts for a single
    streaming scoring pass; otherwise, per-doc (prev, cur, occ)
    partials meet BOTH count tables co-partitioned on prev (unigram
    keyed by prev and bigram by the pair land in the same bucket, so
    one shuffle round serves both joins) and doc scores fold through
    the coarse-bucket aggregate. Paths bit-identical (tested)."""
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    both = bucketed_aggregate(
        docs.map_batches(lambda b: _bigram_rows(b["text"]), batch_format="pandas"),
        ["w1", "w2"],
        {"cnt": ("w2", "count")},
    ).materialize()
    uni = both.map_batches(
        lambda df: df[df["w2"] == ""][["w1", "cnt"]].rename(columns={"w1": "word"}),
        batch_format="pandas",
    ).materialize()
    bi = both.map_batches(
        lambda df: df[df["w2"] != ""], batch_format="pandas"
    ).materialize()

    def fold(scored: ray.data.Dataset) -> pa.Table:
        out = scored.to_pandas()
        if len(out) == 0:
            return pa.table(
                {
                    c: pa.array([], pa.int64())
                    for c in ("doc_id", "n_bigrams", "surprisal_sum", "mean_milli")
                }
            )
        out = out.astype("int64")
        out = out[out["n_bigrams"] > 0]
        out["mean_milli"] = (1000 * out["surprisal_sum"]) // out["n_bigrams"]
        return finish(out, "doc_id", columns=["doc_id", "n_bigrams", "surprisal_sum", "mean_milli"])

    if pulled := broadcast.pull(uni, bi):
        up, bp = pulled
        c1 = dict(zip(up["word"], up["cnt"].astype(int)))
        c2 = dict(zip(zip(bp["w1"], bp["w2"]), bp["cnt"].astype(int)))
        t_ref = ray.put((c1, c2))

        def score(batch: pd.DataFrame) -> pd.DataFrame:
            u, b = cached_object(t_ref)
            ids, nb, ss = [], [], []
            for doc_id, text in zip(batch["doc_id"], batch["text"]):
                words = text.split()
                if len(words) < 2:
                    continue
                s = 0
                for i in range(len(words) - 1):
                    s += (u[words[i]] // b[(words[i], words[i + 1])]).bit_length() - 1
                ids.append(doc_id)
                nb.append(len(words) - 1)
                ss.append(s)
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(ids, dtype="int64"),
                    "n_bigrams": pd.Series(nb, dtype="int64"),
                    "surprisal_sum": pd.Series(ss, dtype="int64"),
                }
            )

        return fold(docs.map_batches(score, batch_format="pandas"))

    # scale path: one co-partition round on prev serves BOTH joins

    def doc_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        ids, w1s, w2s = [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            words = text.split()
            ids.extend([doc_id] * max(0, len(words) - 1))
            w1s.extend(words[:-1])
            w2s.extend(words[1:])
        p = pd.DataFrame({"doc_id": ids, "w1": w1s, "w2": w2s})
        g = p.groupby(["doc_id", "w1", "w2"], sort=False).size().rename("occ").reset_index()
        return pd.DataFrame(
            {
                "w1": g["w1"].astype(str),
                "w2": g["w2"].astype(str),
                "doc_id": g["doc_id"].astype("int64"),
                "occ": g["occ"].astype("int64"),
            }
        )

    def join_score(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
        if sides["d"].empty:  # no columns either when no doc has two words
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype="int64"),
                    "s": pd.Series(dtype="int64"),
                    "n": pd.Series(dtype="int64"),
                }
            )
        u = sides["u"].rename(columns={"cnt": "c1"})
        b = sides["b"].rename(columns={"cnt": "c2"})
        m = sides["d"].merge(u, on="w1").merge(b, on=["w1", "w2"])
        surp = [(int(a) // int(c)).bit_length() - 1 for a, c in zip(m["c1"], m["c2"])]
        return pd.DataFrame(
            {
                "doc_id": m["doc_id"],
                "s": (pd.Series(surp, index=m.index, dtype="int64") * m["occ"]).astype("int64"),
                "n": m["occ"],
            }
        )

    flags = co_partition(
        {
            "d": coalesce_blocks(
                docs.map_batches(doc_pairs, batch_format="pandas"), (uni.count() + bi.count()) * 2
            ),
            "u": uni.map_batches(
                lambda df: df.rename(columns={"word": "w1"}), batch_format="pandas"
            ),
            "b": bi,
        },
        ["w1"],
        join_score,
    )
    scored = bucketed_aggregate(
        flags, ["doc_id"], {"surprisal_sum": ("s", "sum"), "n_bigrams": ("n", "sum")}
    )
    return fold(scored)


DOC_BIGRAM_SURPRISAL_SQL = """
WITH docs_tk AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS tk
  FROM documents WHERE trim(text) <> ''
),
pos AS (
  SELECT doc_id, tk[i] AS w1, tk[i+1] AS w2
  FROM docs_tk, LATERAL unnest(generate_series(1, len(tk)-1)) AS t(i)
  WHERE len(tk) >= 2
),
uni AS (
  SELECT word, COUNT(*) AS c1
  FROM (SELECT unnest(tk) AS word FROM docs_tk) GROUP BY word
),
bi AS (SELECT w1, w2, COUNT(*) AS c2 FROM pos GROUP BY w1, w2),
scored AS (
  SELECT p.doc_id,
         length(ltrim(bin(CAST(u.c1 // b.c2 AS BIGINT)), '0')) - 1 AS s
  FROM pos p JOIN uni u ON p.w1 = u.word JOIN bi b ON p.w1 = b.w1 AND p.w2 = b.w2
)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_bigrams,
       CAST(SUM(s) AS BIGINT) AS surprisal_sum,
       CAST((1000 * SUM(s)) // COUNT(*) AS BIGINT) AS mean_milli
FROM scored GROUP BY doc_id ORDER BY doc_id
"""


# -- PII detection / redaction ---------------------------------------------

# explicit ASCII classes (no \d / \w): Python `re` treats those as
# unicode while DuckDB's RE2 is ASCII-first — explicit classes make
# the two engines agree by construction. Order matters and is part of
# the contract: emails first (they contain dots+digits), then phones
# (the dotted form would otherwise shadow as an IP prefix), then IPs.
PII_PATTERNS: list[tuple[str, str, str]] = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("phone", r"\b[0-9]{3}[-.][0-9]{3}[-.][0-9]{4}\b", "<PHONE>"),
    ("ip", r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b", "<IP>"),
]


def pii_scrub(sf_dir: str) -> pa.Table:
    """PII detection + redaction over the corpus — the standard
    pre-training scrub (public pipelines: C4, CCNet, Dolma): count
    email / phone / IP matches per document (on the ORIGINAL text,
    each pattern independently) and redact them sequentially with
    typed placeholders. Pure streaming ``map_batches`` — compiled
    patterns, vectorized pandas str kernels, no shuffle; the redacted
    text is returned as its md5 so only slim rows reach the driver
    (the redacted body itself would stream to a parquet sink in
    production, same shape as doc_clean).

    Returns (doc_id, n_email, n_phone, n_ip, redacted_md5)."""
    import hashlib

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"doc_id": batch["doc_id"].astype("int64")}
        red = batch["text"]
        for name, pat, repl in PII_PATTERNS:
            out[f"n_{name}"] = batch["text"].str.count(pat).astype("int64")
            red = red.str.replace(pat, repl, regex=True)
        out["redacted_md5"] = [hashlib.md5(t.encode()).hexdigest() for t in red]
        return pd.DataFrame(out)

    return finish(
        ds.map_batches(fn, batch_format="pandas").to_pandas(),
        "doc_id",
    )


def pii_scrub_sql() -> str:
    """DuckDB mirror of :func:`pii_scrub`: same patterns, same
    sequential replacement order, global flag on every replace."""
    red = "text"
    counts = []
    for name, pat, repl in PII_PATTERNS:
        counts.append(f"len(regexp_extract_all(text, '{pat}')) AS n_{name}")
        red = f"regexp_replace({red}, '{pat}', '{repl}', 'g')"
    counts_sql = ",\n       ".join(counts)
    return f"""
SELECT doc_id,
       {counts_sql},
       md5({red}) AS redacted_md5
FROM documents
ORDER BY doc_id
"""


# -- deterministic train/val/test split assignment --------------------------


def corpus_split(
    sf_dir: str, val_pct: int = 10, test_pct: int = 10
) -> pa.Table:
    """Deterministic TRAIN/VAL/TEST split assignment — the holdout
    bookkeeping every training run needs, cluster- and rerun-stable:
    a doc lands in a split purely by md5(doc_id) mod 100 (the repo's
    seedless sampling idiom), so the same rows form the same splits on
    any worker count, any snapshot, any engine. The summary rolls up
    per (source, split) doc and token counts — the table a data card
    reports.

    Plan shape: the assignment is a pure streaming map; the summary is
    one small groupby (sources x 3 splits) folded from per-batch
    integer partials — nothing driver-sized, no shuffle of doc rows.

    Returns (source, split, n_docs, n_tokens) sorted by (source,
    split)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "source", "text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        r = pd.Series([md5_number_lower(str(d)) % 100 for d in batch["doc_id"]], index=batch.index)
        split = pd.Series("train", index=batch.index)
        split[r < val_pct + test_pct] = "val"
        split[r < test_pct] = "test"
        toks = batch["text"].str.findall(_WORD_RE).str.len().astype("int64")
        g = (
            pd.DataFrame({"source": batch["source"], "split": split, "n_tokens": toks})
            .groupby(["source", "split"], sort=False, as_index=False)
            .agg(n_docs=("n_tokens", "size"), n_tokens=("n_tokens", "sum"))
        )
        g["n_docs"] = g["n_docs"].astype("int64")
        return g

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return finish(
        parts.groupby(["source", "split"], as_index=False)
        .agg(n_docs=("n_docs", "sum"), n_tokens=("n_tokens", "sum")),
        ["source", "split"],
        dtypes={"n_docs": "int64", "n_tokens": "int64"},
    )


def corpus_split_sql(val_pct: int = 10, test_pct: int = 10) -> str:
    return f"""
WITH assigned AS (
    SELECT source,
           CASE
               WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < {test_pct} THEN 'test'
               WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < {val_pct + test_pct} THEN 'val'
               ELSE 'train'
           END AS split,
           CASE WHEN trim(text) = '' THEN 0
                ELSE length(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens
    FROM documents
)
SELECT source, split, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_tokens) AS BIGINT) AS n_tokens
FROM assigned
GROUP BY source, split
ORDER BY source, split
"""


def corpus_split_by_source(
    sf_dir: str, val_pct: int = 10, test_pct: int = 10
) -> pa.Table:
    """LEAKAGE-FREE split assignment: the split is decided by
    md5(source) — the GROUP key — so every document of a source lands
    in the same split. The per-doc split (:func:`corpus_split`) leaks
    near-duplicates across the train/eval boundary whenever a source
    hosts templated or mirrored text (the norm on web corpora); the
    group split is the standard fix (eval contamination can then only
    come from CROSS-source duplication, which the dedup family
    handles). Same plan shape as corpus_split: pure streaming
    assignment, per-batch integer partials, one tiny combine. Returns
    (source, split, n_docs, n_tokens) — one row per source."""
    ds = read_table(sf_dir, "documents", ["source", "text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        r = pd.Series([md5_number_lower(str(s)) % 100 for s in batch["source"]], index=batch.index)
        split = pd.Series("train", index=batch.index)
        split[r < val_pct + test_pct] = "val"
        split[r < test_pct] = "test"
        toks = batch["text"].str.findall(_WORD_RE).str.len().astype("int64")
        g = (
            pd.DataFrame({"source": batch["source"], "split": split, "n_tokens": toks})
            .groupby(["source", "split"], sort=False, as_index=False)
            .agg(n_docs=("n_tokens", "size"), n_tokens=("n_tokens", "sum"))
        )
        g["n_docs"] = g["n_docs"].astype("int64")
        return g

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return finish(
        parts.groupby(["source", "split"], as_index=False)
        .agg(n_docs=("n_docs", "sum"), n_tokens=("n_tokens", "sum")),
        ["source", "split"],
        dtypes={"n_docs": "int64", "n_tokens": "int64"},
    )


def corpus_split_by_source_sql(val_pct: int = 10, test_pct: int = 10) -> str:
    return f"""
WITH assigned AS (
    SELECT source,
           CASE
               WHEN md5_number_lower(source) % 100 < {test_pct} THEN 'test'
               WHEN md5_number_lower(source) % 100 < {val_pct + test_pct} THEN 'val'
               ELSE 'train'
           END AS split,
           CASE WHEN trim(text) = '' THEN 0
                ELSE length(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens
    FROM documents
)
SELECT source, split, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_tokens) AS BIGINT) AS n_tokens
FROM assigned
GROUP BY source, split
ORDER BY source, split
"""


# -- Gopher-style rule verdicts ------------------------------------------

_GOPHER_STOPS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_rules(
    sf_dir: str, min_words: int = 30, max_words: int = 80, min_stops: int = 1
) -> pa.Table:
    """Gopher/MassiveText-style rule VERDICTS per doc (Rae et al.
    2021): the repo's quality_scores gives continuous signals; this is
    the boolean gate a curation pipeline actually filters on. Rules
    kept are the ones NON-VACUOUS on whitespace-token corpora without
    punctuation/lines (the symbol-ratio and bullet/ellipsis-line rules
    of the paper are degenerate here — line-shaped content lives in
    the wet/content operators): word-count band, mean-word-length band
    (3..10 chars, integer cross-multiplied — no float division), and
    >= min_stops distinct classic stopwords (default 1: the synthetic
    vocabulary carries exactly one word from the classic list, and a
    constant-false verdict would be vacuous; the paper's >= 2 is one
    parameter away on natural text). One streaming pass, all
    arithmetic integer, verdicts hash-checked against
    GOPHER_RULES_SQL. Empty docs carry no tokens and are absent
    (matching the SQL words CTE)."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        ids, nw, ch, ns = [], [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            words = text.split()
            if not words:
                continue
            ids.append(doc_id)
            nw.append(len(words))
            ch.append(sum(len(w) for w in words))
            ns.append(len(_GOPHER_STOPS_SET & set(words)))
        n = pd.Series(nw, dtype="int64")
        c = pd.Series(ch, dtype="int64")
        s = pd.Series(ns, dtype="int64")
        r_len = (n >= min_words) & (n <= max_words)
        r_mean = (3 * n <= c) & (c <= 10 * n)
        r_stop = s >= min_stops
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_words": n,
                "mean_milli": (1000 * c) // n,
                "n_stop": s,
                "r_len": r_len,
                "r_mean": r_mean,
                "r_stop": r_stop,
                "keep": r_len & r_mean & r_stop,
            }
        )

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return finish(ds.map_batches(fn, batch_format="pandas").to_pandas(), "doc_id")


_GOPHER_STOPS_SET = set(_GOPHER_STOPS)


def gopher_rules_sql(
    min_words: int = 30, max_words: int = 80, min_stops: int = 1
) -> str:
    stops = ", ".join(f"'{w}'" for w in _GOPHER_STOPS)
    return f"""
WITH words AS (
    SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\\s+')) AS word
    FROM documents WHERE trim(text) <> ''
),
agg AS (
    SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(length(word)) AS BIGINT) AS chars
    FROM words GROUP BY doc_id
),
stops AS (
    SELECT doc_id, CAST(COUNT(DISTINCT word) AS BIGINT) AS ns
    FROM words WHERE word IN ({stops}) GROUP BY doc_id
)
SELECT a.doc_id, n AS n_words,
       (1000 * chars) // n AS mean_milli,
       COALESCE(ns, 0) AS n_stop,
       n BETWEEN {min_words} AND {max_words} AS r_len,
       (3 * n <= chars AND chars <= 10 * n) AS r_mean,
       COALESCE(ns, 0) >= {min_stops} AS r_stop,
       (n BETWEEN {min_words} AND {max_words}
        AND 3 * n <= chars AND chars <= 10 * n
        AND COALESCE(ns, 0) >= {min_stops}) AS keep
FROM agg a LEFT JOIN stops USING (doc_id)
ORDER BY a.doc_id
"""


GOPHER_RULES_SQL = gopher_rules_sql()


# -- count-min sketch ----------------------------------------------------

_CMS_D = 4    # hash rows
_CMS_W = 256  # counters per row


def source_token_cms(sf_dir: str, n_probe: int = 5) -> pa.Table:
    """Per-source token-FREQUENCY sketch — the count-min sketch
    (Cormode & Muthukrishnan 2005), the mergeable point-frequency
    primitive next to the HLL cardinality sketch: counters are
    integer sums, so partial sketches from every batch merge
    associatively and the WHOLE sketch is reproduced bit-for-bit by
    the SQL oracle. hash_j(token) = md5_number_lower(str(j)+':'+token)
    % 256 over 4 rows; estimate = min over rows (always >= truth).

    The sketch path ships at most sources x 4 x 256 counter rows per
    batch regardless of vocabulary size — that bounded shuffle is the
    point at 100 TB. The output probes the sketch at the corpus's
    ``n_probe`` most frequent tokens (exact top-k, ties lex) and
    reports (source, word, est, true_cnt); the exact column exists
    for VERIFICATION and demo — a production consumer keeps only the
    sketch."""

    ds = read_table(sf_dir, "documents", ["source", "text"])

    def sketch_partials(batch: pd.DataFrame) -> pd.DataFrame:
        counters: dict[tuple[str, int, int], int] = {}
        hcache: dict[str, tuple[int, ...]] = {}
        for src, text in zip(batch["source"].astype(str), batch["text"]):
            for tok in text.split():
                cols = hcache.get(tok)
                if cols is None:
                    cols = tuple(md5_number_lower(f"{j}:{tok}") % _CMS_W for j in range(_CMS_D))
                    hcache[tok] = cols
                for j, col in enumerate(cols):
                    k = (src, j, col)
                    counters[k] = counters.get(k, 0) + 1
        items = sorted(counters.items())
        return pd.DataFrame(
            {
                "source": [k[0] for k, _ in items],
                "j": pd.Series([k[1] for k, _ in items], dtype="int64"),
                "col": pd.Series([k[2] for k, _ in items], dtype="int64"),
                "v": pd.Series([v for _, v in items], dtype="int64"),
            }
        )

    sketch = bucketed_aggregate(
        ds.map_batches(sketch_partials, batch_format="pandas"),
        ["source", "j", "col"],
        {"v": ("v", "sum")},
    ).to_pandas()  # bounded: sources x 4 x 256 rows

    # probe set: exact global top-k tokens (partial top-k per block of
    # the word-count table -> tiny driver merge, the source_top_terms
    # shape) + per-(source, probe) exact counts for the truth column
    wc = bucketed_aggregate(
        ds.map_batches(_words, batch_format="pandas"),
        ["word"],
        {"cnt": ("word", "count")},
    )

    def block_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["cnt", "word"], ascending=[False, True]).head(n_probe)

    cand = wc.map_batches(block_topk, batch_format="pandas").to_pandas()
    probe = list(
        cand.sort_values(["cnt", "word"], ascending=[False, True]).head(n_probe)["word"]
    )
    probe_set = set(probe)

    def exact_partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows: dict[tuple[str, str], int] = {}
        for src, text in zip(batch["source"].astype(str), batch["text"]):
            for tok in text.split():
                if tok in probe_set:
                    rows[(src, tok)] = rows.get((src, tok), 0) + 1
        items = sorted(rows.items())
        return pd.DataFrame(
            {
                "source": [k[0] for k, _ in items],
                "word": [k[1] for k, _ in items],
                "true_cnt": pd.Series([v for _, v in items], dtype="int64"),
            }
        )

    exact = bucketed_aggregate(
        ds.map_batches(exact_partial, batch_format="pandas"),
        ["source", "word"],
        {"true_cnt": ("true_cnt", "sum")},
    ).to_pandas()
    exact_map = {(s, w): int(c) for s, w, c in zip(exact["source"], exact["word"], exact["true_cnt"])}

    sk_map = {(s, int(j), int(c)): int(v) for s, j, c, v in zip(sketch["source"], sketch["j"], sketch["col"], sketch["v"])}
    sources = sorted(set(sketch["source"]))
    out_s, out_w, out_e, out_t = [], [], [], []
    for src in sources:
        for w in sorted(probe):
            cols = [md5_number_lower(f"{j}:{w}") % _CMS_W for j in range(_CMS_D)]
            est = min(sk_map.get((src, j, c), 0) for j, c in enumerate(cols))
            out_s.append(src)
            out_w.append(w)
            out_e.append(est)
            out_t.append(exact_map.get((src, w), 0))
    return pa.table(
        {
            "source": pa.array(out_s, pa.string()),
            "word": pa.array(out_w, pa.string()),
            "est": pa.array(out_e, pa.int64()),
            "true_cnt": pa.array(out_t, pa.int64()),
        }
    )


def source_token_cms_sql(n_probe: int = 5) -> str:
    return f"""
WITH words AS (
    SELECT source, unnest(regexp_split_to_array(trim(text), '\\s+')) AS token
    FROM documents WHERE trim(text) <> ''
),
cnt AS (SELECT token, COUNT(*) AS c FROM words GROUP BY token),
probe AS (
    SELECT token FROM cnt
    QUALIFY ROW_NUMBER() OVER (ORDER BY c DESC, token) <= {n_probe}
),
rows_ AS (SELECT UNNEST(generate_series(0, {_CMS_D - 1})) AS j),
sk AS (
    SELECT source, j,
           CAST(md5_number_lower(CAST(j AS VARCHAR) || ':' || token) % {_CMS_W} AS BIGINT) AS col,
           CAST(COUNT(*) AS BIGINT) AS v
    FROM words CROSS JOIN rows_
    GROUP BY 1, 2, 3
),
srcs AS (SELECT DISTINCT source FROM documents WHERE trim(text) <> ''),
grid AS (
    SELECT s.source, p.token AS word, r.j,
           CAST(md5_number_lower(CAST(r.j AS VARCHAR) || ':' || p.token) % {_CMS_W} AS BIGINT) AS col
    FROM srcs s CROSS JOIN probe p CROSS JOIN rows_ r
),
mins AS (
    SELECT grid.source, grid.word,
           CAST(MIN(COALESCE(sk.v, 0)) AS BIGINT) AS est
    FROM grid LEFT JOIN sk
      ON sk.source = grid.source AND sk.j = grid.j AND sk.col = grid.col
    GROUP BY 1, 2
),
ex AS (
    SELECT source, token AS word, CAST(COUNT(*) AS BIGINT) AS true_cnt
    FROM words WHERE token IN (SELECT token FROM probe)
    GROUP BY 1, 2
)
SELECT m.source, m.word, m.est, COALESCE(ex.true_cnt, 0) AS true_cnt
FROM mins m LEFT JOIN ex ON ex.source = m.source AND ex.word = m.word
ORDER BY m.source, m.word
"""


SOURCE_TOKEN_CMS_SQL = source_token_cms_sql()


def source_overlap(sf_dir: str, n: int = 3) -> pa.Table:
    """Pairwise SOURCE-collection similarity: exact Jaccard over each
    source's DISTINCT word ``n``-grams — the corpus-level diagnostic a
    curation pipeline runs before mixing collections (near-identical
    sources mean double-counting; near-zero overlap flags a divergent
    crawl snapshot). Cf. the per-doc join ``dedup.ngram_jaccard_pairs``
    (dedup.py:894); this is the same inverted-index plan lifted from
    ~10^10 doc keys to the handful of source keys.

    Distributed shape (no driver-side pair loop, no high-cardinality
    native groupby — functions/bucketed.py rationale):
      1. ``map_batches``: explode each doc into DISTINCT (gram, source)
         rows; short docs (< n words) contribute their whole text as
         one gram, empty docs nothing (exactly the per-doc explode's
         rule);
      2. ``co_partition`` on gram: distinct (gram, source) within
         the bucket — COMPLETE distinctness, a gram lives in exactly
         one bucket — then per-gram source pairs and per-source
         distinct-gram partial counts, both pre-aggregated;
      3. driver fold over the tiny partial table (≤ S + S²/2 rows per
         bucket): Jaccard as the integer ``(10000*i) // (na+nb-i)``.

    Only pairs with ``inter >= 1`` appear (the oracle's inner join
    drops disjoint pairs too). Output sorted by (src_a, src_b)."""
    docs = read_table(sf_dir, "documents", ["source", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        grams, srcs = [], []
        per_src: dict[str, set] = {}
        for src, text in zip(batch["source"].to_pylist(), batch["text"].to_pylist()):
            words = (text or "").split()
            if len(words) < n:
                gset = {" ".join(words)} if words else set()
            else:
                gset = {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}
            per_src.setdefault(src, set()).update(gset)
        for src, gset in per_src.items():
            grams.extend(gset)
            srcs.extend([src] * len(gset))
        return pa.table({"gram": pa.array(grams, pa.string()), "source": pa.array(srcs, pa.string())})

    def fold_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["gram", "source"])
        ncnt = g.groupby("source", sort=False).size().reset_index(name="cnt")
        ncnt.columns = ["src_a", "cnt"]
        ncnt["src_b"] = ""  # sentinel: per-source distinct-count partial
        p = g.merge(g, on="gram", suffixes=("_a", "_b"))
        p = p[p["source_a"] < p["source_b"]]
        pairs = (
            p.groupby(["source_a", "source_b"], sort=False)
            .size()
            .reset_index(name="cnt")
            .rename(columns={"source_a": "src_a", "source_b": "src_b"})
        )
        return pd.concat([ncnt[["src_a", "src_b", "cnt"]], pairs], ignore_index=True)

    parts = co_partition(
        docs.map_batches(explode, batch_format="pyarrow"), ["gram"], fold_bucket
    ).to_pandas()
    if len(parts) == 0:
        return pa.table(
            {
                "src_a": pa.array([], pa.string()),
                "src_b": pa.array([], pa.string()),
                "n_a": pa.array([], pa.int64()),
                "n_b": pa.array([], pa.int64()),
                "inter": pa.array([], pa.int64()),
                "jaccard_x10k": pa.array([], pa.int64()),
            }
        )
    totals = parts[parts["src_b"] == ""].groupby("src_a")["cnt"].sum()
    inter = (
        parts[parts["src_b"] != ""]
        .groupby(["src_a", "src_b"], sort=True)["cnt"]
        .sum()
        .reset_index(name="inter")
    )
    inter["n_a"] = inter["src_a"].map(totals).astype("int64")
    inter["n_b"] = inter["src_b"].map(totals).astype("int64")
    inter["inter"] = inter["inter"].astype("int64")
    inter["jaccard_x10k"] = (10000 * inter["inter"]) // (
        inter["n_a"] + inter["n_b"] - inter["inter"]
    )
    return finish(
        inter,
        ["src_a", "src_b"],
        columns=["src_a", "src_b", "n_a", "n_b", "inter", "jaccard_x10k"],
    )


def source_overlap_sql(n: int = 3) -> str:
    """Exhaustive mirror of :func:`source_overlap` (same gram rule as
    NGRAM_JACCARD_SQL, keyed by source)."""
    assert n == 3, "SQL mirror is written for the n=3 default"
    return """
WITH words AS (
    SELECT source,
           list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
    FROM documents
),
grams AS (
    SELECT DISTINCT source,
           w[i] || ' ' || w[i + 1] || ' ' || w[i + 2] AS gram
    FROM words, UNNEST(generate_series(1, len(w) - 2)) AS t(i)
    WHERE len(w) >= 3
    UNION
    SELECT DISTINCT source, array_to_string(w, ' ') AS gram
    FROM words WHERE len(w) BETWEEN 1 AND 2
),
cnt AS (SELECT source, COUNT(*) AS nn FROM grams GROUP BY source),
inter AS (
    SELECT a.source AS src_a, b.source AS src_b, CAST(COUNT(*) AS BIGINT) AS inter
    FROM grams a JOIN grams b USING (gram)
    WHERE a.source < b.source
    GROUP BY 1, 2
)
SELECT src_a, src_b,
       CAST(ca.nn AS BIGINT) AS n_a, CAST(cb.nn AS BIGINT) AS n_b, inter,
       (10000 * inter) // (ca.nn + cb.nn - inter) AS jaccard_x10k
FROM inter
JOIN cnt ca ON ca.source = src_a
JOIN cnt cb ON cb.source = src_b
ORDER BY src_a, src_b
"""


def doc_perplexity_buckets(sf_dir: str) -> pa.Table:
    """CCNet-style head/middle/tail corpus partition (Wenzek et al.
    2020): rank every document by its per-token unigram surprisal
    (integer ``mean_milli`` from the shared scorer, doc_id tiebreak)
    and cut the ranking into exact terciles — ``head`` = most fluent
    third, ``tail`` = most atypical. Returns (doc_id, mean_milli,
    bucket) ordered by doc_id.

    Distributed plan (100 TB-ready): the global rank is NEVER computed
    doc-by-doc on the driver. ``mean_milli`` has a bounded value range
    (per-token surprisal < 64 bits -> values in [0, 64000]), so a
    coarse-bucket VALUE histogram (tiny) is pulled instead; cumulative
    counts give every value group's rank interval, which lands
    entirely inside one tercile for all but the <= 2 straddling
    values. Only those boundary tie-groups' doc_ids are pulled and
    ordered (bounded by the tie-group size); classification is then
    one streaming pass over broadcast dicts — the same
    histogram+boundary shape as ``event_value_percentiles`` and
    ``source_token_quota``."""

    def mm(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "mean_milli": (
                    1000 * df["surprisal_sum"].astype("int64")
                )
                // df["n_tokens"].astype("int64"),
            }
        )

    mds = (
        _unigram_scored_ds(sf_dir)
        .map_batches(mm, batch_format="pandas")
        .materialize()
    )

    hist = bucketed_aggregate(mds, ["mean_milli"], {"cnt": ("doc_id", "count")}).to_pandas()
    if len(hist) == 0:
        # empty to_pandas drops columns — check BEFORE touching them
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "mean_milli": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.string()),
            }
        )
    hist = hist.sort_values("mean_milli", ignore_index=True)
    n = int(hist["cnt"].sum())

    def bucket_of(rk: int) -> str:
        # identical to the SQL CASE: 0-indexed rank, exact thirds
        return "head" if 3 * rk < n else ("middle" if 3 * rk < 2 * n else "tail")

    starts = hist["cnt"].cumsum().shift(fill_value=0).astype("int64")
    val2bucket: dict[int, str] = {}
    boundary: list[tuple[int, int]] = []  # (value, first rank)
    for v, s, c in zip(hist["mean_milli"], starts, hist["cnt"]):
        v, s, c = int(v), int(s), int(c)
        if bucket_of(s) == bucket_of(s + c - 1):
            val2bucket[v] = bucket_of(s)
        else:
            boundary.append((v, s))

    boundary_docs: dict[int, str] = {}
    if boundary:
        bvals = {v for v, _ in boundary}
        bdf = mds.map_batches(
            lambda df, bv=bvals: df[df["mean_milli"].isin(bv)],
            batch_format="pandas",
        ).to_pandas()
        for v, s in boundary:
            for j, did in enumerate(sorted(bdf.loc[bdf["mean_milli"] == v, "doc_id"])):
                boundary_docs[int(did)] = bucket_of(s + j)

    v_ref = ray.put(val2bucket)
    b_ref = ray.put(boundary_docs)

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        v = cached_object(v_ref)
        b = cached_object(b_ref)
        out = df.copy()
        out["bucket"] = [
            b.get(int(d)) or v[int(m)]
            for d, m in zip(df["doc_id"], df["mean_milli"])
        ]
        return out

    return finish(
        mds.map_batches(classify, batch_format="pandas").to_pandas(),
        "doc_id",
        columns=["doc_id", "mean_milli", "bucket"],
        dtypes={"doc_id": "int64", "mean_milli": "int64"},
    )


DOC_PERPLEXITY_BUCKETS_SQL = """
WITH words AS (
    SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\\s+')) AS word
    FROM documents WHERE trim(text) <> ''
),
counts AS (SELECT word, COUNT(*) AS c FROM words GROUP BY word),
tot AS (SELECT COUNT(*) AS t FROM words),
scored AS (
    SELECT w.doc_id,
           length(ltrim(bin(CAST((SELECT t FROM tot) // c.c AS BIGINT)), '0')) - 1 AS s
    FROM words w JOIN counts c USING (word)
),
docs AS (SELECT doc_id, (1000 * SUM(s)) // COUNT(*) AS m FROM scored GROUP BY doc_id),
ranked AS (
    SELECT doc_id, m,
           ROW_NUMBER() OVER (ORDER BY m, doc_id) - 1 AS rk,
           COUNT(*) OVER () AS n
    FROM docs
)
SELECT doc_id, CAST(m AS BIGINT) AS mean_milli,
       CASE WHEN 3 * rk < n THEN 'head'
            WHEN 3 * rk < 2 * n THEN 'middle'
            ELSE 'tail' END AS bucket
FROM ranked ORDER BY doc_id
"""


def source_epoch_mix(sf_dir: str, target_tokens: int = 2700, max_epochs: int = 4) -> pa.Table:
    """Epoch-based source repetition (the data-constrained mixing move
    of Muennighoff et al. 2023: repeat under-sized sources up to a few
    epochs instead of exhausting the budget on one pass): a source with
    ``t`` total tokens is repeated ``clamp(target_tokens // t, 1,
    max_epochs)`` times, and every document carries its epoch index.
    Returns (doc_id, source, epoch) ordered by (doc_id, epoch) —
    epoch >= 2 rows are the deterministic repeats a downstream packer
    would interleave.

    Plan shape (100 TB-ready): per-batch token-count partials fold to
    the tiny per-source table (one small groupby); the epoch map is a
    broadcast dict; repetition is one streaming flat-map — a doc is
    duplicated AT THE WORKER, never the driver. No all-to-all."""
    ds = read_table(sf_dir, "documents", ["doc_id", "source", "text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "source": batch["source"],
                "n": batch["text"].str.findall(_WORD_RE).str.len().astype("int64"),
            }
        )
        return out.groupby("source", as_index=False).agg(n=("n", "sum"))

    totals = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("source")
        .sum("n")
        .to_pandas()
    )
    epochs = {
        s: max(1, min(max_epochs, target_tokens // int(t)))
        for s, t in zip(totals["source"], totals["sum(n)"])
        if int(t) > 0
    }
    e_ref = ray.put(epochs)

    def repeat(batch: pd.DataFrame) -> pd.DataFrame:
        em = cached_object(e_ref)
        reps = batch["source"].map(lambda s: em.get(s, 1)).astype("int64")
        idx = batch.index.repeat(reps)
        out = batch.loc[idx, ["doc_id", "source"]].reset_index(drop=True)
        out["epoch"] = [
            k for r in reps for k in range(1, r + 1)
        ]
        out["doc_id"] = out["doc_id"].astype("int64")
        out["epoch"] = pd.Series(out["epoch"], dtype="int64")
        return out

    return finish(
        ds.map_batches(repeat, batch_format="pandas").to_pandas(),
        ["doc_id", "epoch"],
    )


def source_epoch_mix_sql(target_tokens: int = 2700, max_epochs: int = 4) -> str:
    return f"""
WITH tk AS (
    SELECT source,
           CASE WHEN trim(text) = '' THEN 0
                ELSE length(regexp_split_to_array(trim(text), '\\s+')) END AS n
    FROM documents
),
tot AS (SELECT source, CAST(SUM(n) AS BIGINT) AS t FROM tk GROUP BY source),
ep AS (
    SELECT source,
           CASE WHEN t > 0 THEN GREATEST(1, LEAST({max_epochs}, {target_tokens} // t))
                ELSE 1 END AS e
    FROM tot
)
SELECT d.doc_id, d.source, CAST(k AS BIGINT) AS epoch
FROM documents d
JOIN ep USING (source),
     UNNEST(generate_series(1, ep.e)) t(k)
ORDER BY d.doc_id, epoch
"""


def source_datacard(sf_dir: str) -> pa.Table:
    """Per-source corpus data card — the release-documentation table a
    training-data pipeline publishes next to the corpus: document and
    token counts, empty-doc count, max and mean (integer floor) doc
    length per source. One streaming pass of per-batch partials into
    the tiny per-source groupby; extends `source_token_totals` with
    the distribution facts a mixing recipe actually reads."""
    ds = read_table(sf_dir, "documents", ["source", "text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["text"].str.findall(_WORD_RE).str.len().astype("int64")
        df = pd.DataFrame({"source": batch["source"], "n": n})
        g = df.groupby("source", as_index=False).agg(
            n_docs=("n", "size"),
            n_tokens=("n", "sum"),
            n_empty=("n", lambda s: int((s == 0).sum())),
            max_tokens=("n", "max"),
        )
        for c in ("n_docs", "n_tokens", "n_empty", "max_tokens"):
            g[c] = g[c].astype("int64")
        return g

    agg = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("source")
        .aggregate(
            ray.data.aggregate.Sum("n_docs", alias_name="n_docs"),
            ray.data.aggregate.Sum("n_tokens", alias_name="n_tokens"),
            ray.data.aggregate.Sum("n_empty", alias_name="n_empty"),
            ray.data.aggregate.Max("max_tokens", alias_name="max_tokens"),
        )
        .to_pandas()
        .sort_values("source", ignore_index=True)
    )
    for c in ("n_docs", "n_tokens", "n_empty", "max_tokens"):
        agg[c] = agg[c].astype("int64")
    agg["mean_tokens"] = agg["n_tokens"] // agg["n_docs"]
    return finish(
        agg, columns=["source", "n_docs", "n_tokens", "n_empty", "max_tokens", "mean_tokens"]
    )


SOURCE_DATACARD_SQL = """
WITH tk AS (
    SELECT source,
           CASE WHEN trim(text) = '' THEN 0
                ELSE length(regexp_split_to_array(trim(text), '\\s+')) END AS n
    FROM documents
)
SELECT source,
       COUNT(*) AS n_docs,
       CAST(SUM(n) AS BIGINT) AS n_tokens,
       CAST(SUM(CASE WHEN n = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_empty,
       CAST(MAX(n) AS BIGINT) AS max_tokens,
       CAST(SUM(n) // COUNT(*) AS BIGINT) AS mean_tokens
FROM tk
GROUP BY source
ORDER BY source
"""


def doc_length_outliers(sf_dir: str, k: int = 3) -> pa.Table:
    """Per-source robust length-outlier flag — the MAD rule quality
    filters actually use (median +/- k*MAD is outlier-proof where
    mean +/- k*sigma is not): flag every document whose token count
    deviates from its source's median by more than ``k`` times the
    source's median absolute deviation. All-integer and exact — the
    median is defined as the value at 0-indexed rank ``(n-1)//2``
    (low median), MAD as the low median of ``|x - med|``, and the MAD
    floor is 1 so a zero-spread source still has a well-defined gate.

    Distributed plan (100 TB-ready): token counts have a bounded value
    range, so ONE (source, n_tokens) count-histogram shuffle (tiny —
    sources x distinct lengths) is pulled to the driver; both medians
    are read off cumulative counts there (the deviation histogram is
    derived from the same table, no second corpus pass), and the flag
    is a streaming broadcast-dict map. Same histogram+rank shape as
    ``doc_perplexity_buckets`` / ``event_value_percentiles``.

    Returns (doc_id, source, n_tokens, med, mad, is_outlier) ordered
    by doc_id, is_outlier as int64 0/1.
    """

    ds = read_table(sf_dir, "documents", ["doc_id", "source", "text"])

    def tokens(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "source": batch["source"],
                "n_tokens": batch["text"]
                .str.findall(_WORD_RE)
                .str.len()
                .astype("int64"),
            }
        )

    tds = ds.map_batches(tokens, batch_format="pandas").materialize()

    hist = bucketed_aggregate(tds, ["source", "n_tokens"], {"cnt": ("doc_id", "count")}).to_pandas()
    if len(hist) == 0:  # empty to_pandas drops columns — guard first
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "source": pa.array([], pa.string()),
                "n_tokens": pa.array([], pa.int64()),
                "med": pa.array([], pa.int64()),
                "mad": pa.array([], pa.int64()),
                "is_outlier": pa.array([], pa.int64()),
            }
        )

    def low_median(vals: list[tuple[int, int]]) -> int:
        """Value at 0-indexed rank (n-1)//2 of the expanded multiset,
        read off (value, count) pairs sorted by value."""
        n = sum(c for _, c in vals)
        target = (n - 1) // 2
        seen = 0
        for v, c in sorted(vals):
            if seen + c > target:
                return v
            seen += c
        raise AssertionError("rank out of histogram range")

    stats: dict[str, tuple[int, int]] = {}
    for src, grp in hist.groupby("source"):
        vals = list(zip(grp["n_tokens"].astype(int), grp["cnt"].astype(int)))
        med = low_median(vals)
        mad = low_median([(abs(v - med), c) for v, c in vals])
        stats[str(src)] = (med, max(mad, 1))

    s_ref = ray.put(stats)

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        st = cached_object(s_ref)
        med = df["source"].map(lambda s: st[s][0]).astype("int64")
        mad = df["source"].map(lambda s: st[s][1]).astype("int64")
        out = df.copy()
        out["med"] = med
        out["mad"] = mad
        out["is_outlier"] = (
            (df["n_tokens"] - med).abs() > k * mad
        ).astype("int64")
        return out

    return finish(
        tds.map_batches(classify, batch_format="pandas").to_pandas(),
        "doc_id",
        columns=["doc_id", "source", "n_tokens", "med", "mad", "is_outlier"],
    )


def doc_length_outliers_sql(k: int = 3) -> str:
    return f"""
WITH d AS (
    SELECT doc_id, source,
           CASE WHEN trim(text) = '' THEN 0
                ELSE length(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens
    FROM documents
),
r AS (
    SELECT source, n_tokens,
           ROW_NUMBER() OVER (PARTITION BY source ORDER BY n_tokens) - 1 AS rk,
           COUNT(*) OVER (PARTITION BY source) AS n
    FROM d
),
med AS (SELECT source, n_tokens AS med FROM r WHERE rk = (n - 1) // 2),
dev AS (
    SELECT d.source, abs(d.n_tokens - m.med) AS dv
    FROM d JOIN med m USING (source)
),
r2 AS (
    SELECT source, dv,
           ROW_NUMBER() OVER (PARTITION BY source ORDER BY dv) - 1 AS rk,
           COUNT(*) OVER (PARTITION BY source) AS n
    FROM dev
),
mad AS (
    SELECT source, greatest(dv, 1) AS mad FROM r2 WHERE rk = (n - 1) // 2
)
SELECT d.doc_id, d.source, d.n_tokens, m.med, a.mad,
       CAST(CASE WHEN abs(d.n_tokens - m.med) > {k} * a.mad THEN 1 ELSE 0 END AS BIGINT)
           AS is_outlier
FROM d JOIN med m USING (source) JOIN mad a USING (source)
ORDER BY doc_id
"""


def doc_repetition_stats(sf_dir: str) -> pa.Table:
    """Gopher/MassiveText WITHIN-doc repetition signals (Rae et al.
    2021, table A1 — the repetition half of the Gopher gate that
    :func:`gopher_rules` skips as line-degenerate): per document, the
    non-whitespace-character fraction claimed by the single most
    frequent 2/3/4-gram, and the fraction of 5-gram occurrences
    belonging to duplicated 5-grams. Line-based rules stay out (the
    corpus has no newlines); cross-doc coverage spans live in
    ``dedup.doc_dup_span_stats``. All fractions are floor-milli
    integers so the SQL oracle matches bit-for-bit; ties between
    equally frequent grams break lexicographically on the
    space-joined gram (mirroring the oracle's ``ORDER BY cnt DESC,
    gram ASC``). Empty docs carry no tokens and are absent (matching
    the SQL base CTE).

    Scale path: every signal is doc-local, so this is ONE streaming
    map with no shuffle — the 100-TB plan is the same map. The
    per-doc Counter loops are tokenization-inherent string kernels
    (same class as the classifier/dedup shingle stages).
    """
    from collections import Counter

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        cols: dict[str, list] = {
            c: []
            for c in (
                "doc_id",
                "n_tokens",
                "top2_milli",
                "top3_milli",
                "top4_milli",
                "dup5_milli",
            )
        }
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            toks = text.split()
            n = len(toks)
            if n == 0:
                continue
            chars = sum(len(t) for t in toks)
            cols["doc_id"].append(doc_id)
            cols["n_tokens"].append(n)
            for k in (2, 3, 4):
                col = f"top{k}_milli"
                if n < k:
                    cols[col].append(0)
                    continue
                cnt = Counter(
                    " ".join(toks[i : i + k]) for i in range(n - k + 1)
                )
                best_g, best_c = min(
                    cnt.items(), key=lambda gc: (-gc[1], gc[0])
                )
                gchars = len(best_g) - (k - 1)
                cols[col].append((1000 * best_c * gchars) // chars)
            if n < 5:
                cols["dup5_milli"].append(0)
            else:
                c5 = Counter(
                    tuple(toks[i : i + 5]) for i in range(n - 4)
                )
                dup_occ = sum(c for c in c5.values() if c > 1)
                cols["dup5_milli"].append((1000 * dup_occ) // (n - 4))
        return pd.DataFrame(
            {c: pd.Series(v, dtype="int64") for c, v in cols.items()}
        )

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return finish(
        ds.map_batches(fn, batch_format="pandas").to_pandas(),
        "doc_id",
        empty=pa.schema(
            {
                c: pa.int64()
                for c in ("doc_id", "n_tokens", "top2_milli", "top3_milli", "top4_milli", "dup5_milli")
            }
        ),
    )


DOC_REPETITION_STATS_SQL = r"""
WITH d AS (
    SELECT doc_id, string_split_regex(trim(text), '\s+') AS tk,
           length(regexp_replace(trim(text), '\s+', '', 'g')) AS chars
    FROM documents WHERE trim(text) <> ''
),
gk AS (
    SELECT doc_id, k,
           unnest(list_transform(range(1, len(tk) - k + 2),
                                 i -> array_to_string(tk[i:i+k-1], ' '))) AS gram
    FROM d, (SELECT unnest([2, 3, 4, 5]) AS k) ks
    WHERE len(tk) >= k
),
cnt AS (SELECT doc_id, k, gram, COUNT(*) AS c FROM gk GROUP BY doc_id, k, gram),
top AS (
    SELECT doc_id, k, c, length(gram) - (k - 1) AS gchars,
           ROW_NUMBER() OVER (PARTITION BY doc_id, k
                              ORDER BY c DESC, gram ASC) AS rk
    FROM cnt WHERE k <= 4
),
topm AS (
    SELECT t.doc_id, t.k, (1000 * t.c * t.gchars) // d.chars AS milli
    FROM top t JOIN d USING (doc_id) WHERE t.rk = 1
),
dup5 AS (
    SELECT doc_id,
           SUM(CASE WHEN c > 1 THEN c ELSE 0 END) AS dup_occ,
           SUM(c) AS occ5
    FROM cnt WHERE k = 5 GROUP BY doc_id
)
SELECT d.doc_id,
       len(d.tk) AS n_tokens,
       CAST(COALESCE(t2.milli, 0) AS BIGINT) AS top2_milli,
       CAST(COALESCE(t3.milli, 0) AS BIGINT) AS top3_milli,
       CAST(COALESCE(t4.milli, 0) AS BIGINT) AS top4_milli,
       CAST(COALESCE((1000 * d5.dup_occ) // d5.occ5, 0) AS BIGINT) AS dup5_milli
FROM d
LEFT JOIN topm t2 ON t2.doc_id = d.doc_id AND t2.k = 2
LEFT JOIN topm t3 ON t3.doc_id = d.doc_id AND t3.k = 3
LEFT JOIN topm t4 ON t4.doc_id = d.doc_id AND t4.k = 4
LEFT JOIN dup5 d5 ON d5.doc_id = d.doc_id
ORDER BY d.doc_id
"""


def doc_oov_rate(sf_dir: str, vocab_size: int = 256) -> pa.Table:
    """Per-doc out-of-vocabulary rate against the corpus's own top-V
    vocabulary — the tokenizer-coverage signal a training pipeline
    reads before fixing a vocab (docs with high OOV mass are garbage,
    wrong-language, or will shatter into bytes): vocabulary = the
    ``vocab_size`` most frequent whitespace tokens corpus-wide (ties
    break lexicographically), per doc the token count, OOV occurrence
    count and floor-milli OOV fraction. Empty docs carry no tokens
    and are absent (matching the SQL words CTE).

    Distributed plan: word rows (``_words``) fold through the bucketed
    aggregate into the corpus count table (the surprisal shape); each
    count block is cut to its LOCAL top-V by (cnt desc, word asc)
    before the driver merges — after the keyed aggregate every word
    lives in exactly one block, so the
    global top-V is a subset of the union of local top-Vs (bounded:
    V x n_blocks tiny rows). The V-word vocabulary broadcasts via
    ``ray.put`` and scoring is one streaming pass — no further
    shuffle, nothing driver-sided beyond the V-row merge.
    """

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    counts = bucketed_aggregate(
        docs.map_batches(_words, batch_format="pandas"),
        ["word"],
        {"cnt": ("word", "count")},
    )

    def local_topv(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["cnt", "word"], ascending=[False, True]
        ).head(vocab_size)

    merged = (
        counts.map_batches(local_topv, batch_format="pandas").to_pandas()
    )
    if len(merged) == 0:
        return pa.table(
            {
                c: pa.array([], pa.int64())
                for c in ("doc_id", "n_tokens", "n_oov", "oov_milli")
            }
        )
    vocab = frozenset(
        merged.sort_values(["cnt", "word"], ascending=[False, True])
        .head(vocab_size)["word"]
    )
    v_ref = ray.put(vocab)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        v = cached_object(v_ref)
        ids, nt, ov = [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            toks = text.split()
            if not toks:
                continue
            ids.append(doc_id)
            nt.append(len(toks))
            ov.append(sum(1 for t in toks if t not in v))
        n = pd.Series(nt, dtype="int64")
        o = pd.Series(ov, dtype="int64")
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_tokens": n,
                "n_oov": o,
                "oov_milli": (1000 * o) // n,
            }
        )

    return finish(
        docs.map_batches(score, batch_format="pandas").to_pandas(),
        "doc_id",
    )


def doc_oov_rate_sql(vocab_size: int = 256) -> str:
    return rf"""
WITH words AS (
    SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS word
    FROM documents WHERE trim(text) <> ''
),
cnt AS (SELECT word, COUNT(*) AS c FROM words GROUP BY word),
vocab AS (SELECT word FROM cnt ORDER BY c DESC, word LIMIT {vocab_size}),
per AS (
    SELECT doc_id, COUNT(*) AS n,
           SUM(CASE WHEN word IN (SELECT word FROM vocab) THEN 0 ELSE 1 END)
               AS oov
    FROM words GROUP BY doc_id
)
SELECT doc_id, n AS n_tokens, CAST(oov AS BIGINT) AS n_oov,
       CAST((1000 * oov) // n AS BIGINT) AS oov_milli
FROM per ORDER BY doc_id
"""


DOC_OOV_RATE_SQL = doc_oov_rate_sql()


def bigram_dice_top(
    sf_dir: str,
    k: int = 100,
    min_count: int = 3,
) -> pa.Table:
    """Corpus-level collocation mining: the top-``k`` adjacent-token
    bigrams by Dice coefficient — ``dice_milli = (2000 * c_xy) //
    (c_x + c_y)`` with corpus bigram count ``c_xy`` and unigram
    counts ``c_x``/``c_y`` — the multi-word-expression detector a
    tokenizer/vocab pipeline runs before choosing merges (Smadja-style
    collocations; Dice over PMI keeps every count integer with no
    overflow, and ranks identically for fixed c_xy). Bigrams below
    ``min_count`` occurrences are noise-gated. Ordering is total:
    (dice desc, w1 asc, w2 asc), LIMIT k.

    Distributed plan: ONE tokenize pass emits bigram + sentinel
    unigram rows (``_bigram_rows``, shared with
    ``doc_bigram_surprisal``) that fold through the bucketed
    aggregate. When ``broadcast.pull`` takes the unigram table, it
    broadcasts as a dict and scoring + a
    local top-k cut run per count block (the global top-k is a subset
    of the union of local top-ks since each bigram lives in exactly
    one block after the keyed aggregate); otherwise the bigram table
    meets the unigram table in TWO partitioned hash-join rounds (on
    w1, then on w2 — see joins.cogroup_join) before the same local
    cut. Driver work is bounded by k x n_blocks tiny rows either way.
    """

    docs = read_table(sf_dir, "documents", ["text"])

    both = bucketed_aggregate(
        docs.map_batches(lambda b: _bigram_rows(b["text"]), batch_format="pandas"),
        ["w1", "w2"],
        {"cnt": ("w2", "count")},
    ).materialize()
    uni = both.map_batches(
        lambda df: df[df["w2"] == ""][["w1", "cnt"]].rename(
            columns={"w1": "word", "cnt": "c"}
        ),
        batch_format="pandas",
    ).materialize()
    bi = both.map_batches(
        lambda df: df[(df["w2"] != "") & (df["cnt"] >= min_count)],
        batch_format="pandas",
    ).materialize()

    cols = ("w1", "w2", "c_xy", "c_x", "c_y", "dice_milli")

    def empty() -> pa.Table:
        return pa.table(
            {
                c: pa.array([], pa.string() if c in ("w1", "w2") else pa.int64())
                for c in cols
            }
        )

    if bi.count() == 0:
        return empty()

    def cut(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["dice_milli", "w1", "w2"], ascending=[False, True, True]
        ).head(k)

    if pulled := broadcast.pull(uni):
        (up,) = pulled
        table = dict(zip(up["word"], up["c"].astype(int)))
        t_ref = ray.put(table)

        def score(df: pd.DataFrame) -> pd.DataFrame:
            t = cached_object(t_ref)
            cx = df["w1"].map(t).astype("int64")
            cy = df["w2"].map(t).astype("int64")
            out = pd.DataFrame(
                {
                    "w1": df["w1"].astype(str),
                    "w2": df["w2"].astype(str),
                    "c_xy": df["cnt"].astype("int64"),
                    "c_x": cx,
                    "c_y": cy,
                }
            )
            out["dice_milli"] = (2000 * out["c_xy"]) // (cx + cy)
            return cut(out)

        merged = bi.map_batches(score, batch_format="pandas").to_pandas()
    else:
        from mlscraper_ray.functions.joins import cogroup_join

        j1 = cogroup_join(
            bi,
            uni.map_batches(
                lambda d: d.rename(columns={"word": "w1", "c": "c_x"}),
                batch_format="pandas",
            ),
            "w1",
        )
        j2 = cogroup_join(
            j1,
            uni.map_batches(
                lambda d: d.rename(columns={"word": "w2", "c": "c_y"}),
                batch_format="pandas",
            ),
            "w2",
        )

        def score2(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame(
                {
                    "w1": df["w1"].astype(str),
                    "w2": df["w2"].astype(str),
                    "c_xy": df["cnt"].astype("int64"),
                    "c_x": df["c_x"].astype("int64"),
                    "c_y": df["c_y"].astype("int64"),
                }
            )
            out["dice_milli"] = (2000 * out["c_xy"]) // (out["c_x"] + out["c_y"])
            return cut(out)

        merged = j2.map_batches(score2, batch_format="pandas").to_pandas()

    if len(merged) == 0:
        return empty()
    return finish(cut(merged), columns=list(cols))


def bigram_dice_top_sql(k: int = 100, min_count: int = 3) -> str:
    return rf"""
WITH d AS (
    SELECT string_split_regex(trim(text), '\s+') AS tk
    FROM documents WHERE trim(text) <> ''
),
bg AS (
    SELECT unnest(list_transform(range(1, len(tk)),
                                 i -> [tk[i], tk[i+1]])) AS pr
    FROM d WHERE len(tk) >= 2
),
bc AS (
    SELECT pr[1] AS w1, pr[2] AS w2, COUNT(*) AS c_xy
    FROM bg GROUP BY pr[1], pr[2]
    HAVING COUNT(*) >= {min_count}
),
uc AS (
    SELECT word, COUNT(*) AS c
    FROM (SELECT unnest(tk) AS word FROM d) GROUP BY word
)
SELECT bc.w1, bc.w2,
       CAST(bc.c_xy AS BIGINT) AS c_xy,
       CAST(u1.c AS BIGINT) AS c_x,
       CAST(u2.c AS BIGINT) AS c_y,
       CAST((2000 * bc.c_xy) // (u1.c + u2.c) AS BIGINT) AS dice_milli
FROM bc JOIN uc u1 ON u1.word = bc.w1 JOIN uc u2 ON u2.word = bc.w2
ORDER BY dice_milli DESC, bc.w1, bc.w2
LIMIT {k}
"""


BIGRAM_DICE_TOP_SQL = bigram_dice_top_sql()


def source_quality_gate(sf_dir: str, q_pct: int = 25) -> pa.Table:
    """Per-source quality-quantile gate — the FineWeb-style
    calibration step that drops each source's own worst tail instead
    of applying one global threshold (a threshold fair to encyclopedia
    text guts forum text; per-source quantiles self-calibrate): keep
    every doc whose ``quality_x10`` (the :class:`QualityScorer`
    composite) is >= its source's low-``q_pct`` percentile. The
    percentile is exact-integer: the value at 0-indexed rank
    ``(n-1) * q_pct // 100`` of the source's ascending score multiset
    (the ``doc_length_outliers`` low-rank convention).

    Distributed plan (100 TB-ready): quality scores are bounded
    integers, so ONE (source, quality_x10) count-histogram shuffle
    (tiny — sources x distinct scores) is pulled to the driver, the
    cut read off cumulative counts there, and the keep flag is a
    streaming broadcast-dict map — the same histogram+rank shape as
    ``doc_length_outliers`` / ``event_value_percentiles``.

    Returns (doc_id, source, quality_x10, cut, keep) ordered by
    doc_id, keep as int64 0/1.
    """

    ds = read_table(sf_dir, "documents", ["doc_id", "source", "text"])

    def scored(batch: pd.DataFrame) -> pd.DataFrame:
        q = _QUALITY(batch)  # row-aligned with the input batch
        return pd.DataFrame(
            {
                "doc_id": q["doc_id"].astype("int64"),
                "source": batch["source"].astype(str).values,
                "quality_x10": q["quality_x10"].astype("int64"),
            }
        )

    sds = ds.map_batches(scored, batch_format="pandas").materialize()

    hist = bucketed_aggregate(
        sds, ["source", "quality_x10"], {"cnt": ("doc_id", "count")}
    ).to_pandas()
    if len(hist) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "source": pa.array([], pa.string()),
                "quality_x10": pa.array([], pa.int64()),
                "cut": pa.array([], pa.int64()),
                "keep": pa.array([], pa.int64()),
            }
        )

    cuts: dict[str, int] = {}
    for src, grp in hist.groupby("source"):
        vals = sorted(zip(grp["quality_x10"].astype(int), grp["cnt"].astype(int)))
        n = sum(c for _, c in vals)
        target = (n - 1) * q_pct // 100
        seen = 0
        for v, c in vals:
            if seen + c > target:
                cuts[str(src)] = v
                break
            seen += c
    c_ref = ray.put(cuts)

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        ct = cached_object(c_ref)
        out = df.copy()
        out["cut"] = df["source"].map(ct).astype("int64")
        out["keep"] = (df["quality_x10"] >= out["cut"]).astype("int64")
        return out

    return finish(
        sds.map_batches(classify, batch_format="pandas").to_pandas(),
        "doc_id",
        columns=["doc_id", "source", "quality_x10", "cut", "keep"],
    )


def source_quality_gate_sql(q_pct: int = 25) -> str:
    return f"""
WITH base AS (
    SELECT doc_id, source, text,
           CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                ELSE string_split_regex(trim(text), '\\s+') END AS tk
    FROM documents
),
q AS (
    SELECT doc_id, source,
           least(100, len(tk) // 2) * 4
           + ((100 * length(regexp_replace(text, '[^a-zA-Z]+', '', 'g')))
              // greatest(1, length(text))) * 4
           + least((100 * len(list_filter(tk,
                        x -> list_contains({_sql_stopword_list('en')}, lower(x)))))
                   // greatest(1, len(tk)), 40) * 5
               AS quality_x10
    FROM base
),
r AS (
    SELECT source, quality_x10,
           ROW_NUMBER() OVER (PARTITION BY source ORDER BY quality_x10) - 1 AS rk,
           COUNT(*) OVER (PARTITION BY source) AS n
    FROM q
),
cut AS (
    SELECT source, quality_x10 AS cut FROM r WHERE rk = ((n - 1) * {q_pct}) // 100
)
SELECT q.doc_id, q.source, q.quality_x10, c.cut,
       CAST(CASE WHEN q.quality_x10 >= c.cut THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM q JOIN cut c USING (source)
ORDER BY q.doc_id
"""


SOURCE_QUALITY_GATE_SQL = source_quality_gate_sql()


def source_dedup_report(sf_dir: str) -> pa.Table:
    """Per-source exact-duplication census — the data-card row a
    release writes next to the dedup manifest: how many of a source's
    docs are byte-duplicates of an EARLIER doc (corpus-wide md5(text)
    groups, keep-lowest-doc_id convention shared with dedup_exact),
    plus the distinct-text count and the drop fraction in floor-milli.

    One slim (h, doc_id, source) shuffle: md5 rows fold through the
    bucketed aggregate keyed by hash to find each group's keeper, a
    second tiny aggregate rolls up per source — text never leaves the
    tasks.
    """

    ds = read_table(sf_dir, "documents", ["doc_id", "source", "text"])

    def hashed(batch: pd.DataFrame) -> pd.DataFrame:
        import hashlib

        return pd.DataFrame(
            {
                "h": [
                    hashlib.md5((t or "").encode()).hexdigest()
                    for t in batch["text"]
                ],
                "doc_id": batch["doc_id"].astype("int64"),
                "source": batch["source"].astype(str),
            }
        )

    # materialized once: the slim rows feed BOTH the keeper aggregate
    # and the join-back (lazy would re-read + re-hash the text twice)
    slim = ds.map_batches(hashed, batch_format="pandas").materialize()
    keepers = bucketed_aggregate(
        slim, ["h"], {"keep_id": ("doc_id", "min")}
    )

    # join the group keeper back onto the slim rows by hash bucket
    from mlscraper_ray.functions.joins import cogroup_join

    joined = cogroup_join(slim, keepers, "h")

    def flag_dups(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(dup=(df["doc_id"] != df["keep_id"]).astype("int64"))

    out = (
        bucketed_aggregate(
            joined.map_batches(flag_dups, batch_format="pandas"),
            ["source"],
            {"n_docs": ("doc_id", "count"), "n_dup_docs": ("dup", "sum")},
        )
        .to_pandas()
        .sort_values("source", ignore_index=True)
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_dup_docs"] = out["n_dup_docs"].astype("int64")
    out["n_kept"] = out["n_docs"] - out["n_dup_docs"]
    out["dup_milli"] = (1000 * out["n_dup_docs"]) // out["n_docs"]
    return finish(out, columns=["source", "n_docs", "n_kept", "n_dup_docs", "dup_milli"])


SOURCE_DEDUP_REPORT_SQL = """
WITH k AS (
    SELECT md5(text) AS h, MIN(doc_id) AS keep_id
    FROM documents GROUP BY md5(text)
),
d AS (
    SELECT d.source, d.doc_id,
           CASE WHEN d.doc_id != k.keep_id THEN 1 ELSE 0 END AS dup
    FROM documents d JOIN k ON md5(d.text) = k.h
)
SELECT source, COUNT(*) AS n_docs,
       CAST(COUNT(*) - SUM(dup) AS BIGINT) AS n_kept,
       CAST(SUM(dup) AS BIGINT) AS n_dup_docs,
       CAST((1000 * SUM(dup)) // COUNT(*) AS BIGINT) AS dup_milli
FROM d GROUP BY source
ORDER BY source
"""


def doc_sentence_stats(sf_dir: str) -> pa.Table:
    """Per-doc sentence segmentation features (the readability /
    formatting signals next to the token stats): sentences are the
    non-blank runs between ``[.!?]+`` punctuation, per-sentence token
    counts come from whitespace-splitting each run. Emits n_sents,
    the longest sentence's token count and the floor-x100 mean tokens
    per sentence; docs with no sentences (empty/whitespace text)
    carry 0/0/0. Pure streaming map, no shuffle.
    """
    import re as _re2

    sent_re = _re2.compile(r"[.!?]+")

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def stats(batch: pd.DataFrame) -> pd.DataFrame:
        ids, ns, mx, mean = [], [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            sents = [s for s in sent_re.split(text or "") if s.strip()]
            toks = [len(s.split()) for s in sents]
            ids.append(doc_id)
            ns.append(len(toks))
            mx.append(max(toks) if toks else 0)
            mean.append((100 * sum(toks)) // len(toks) if toks else 0)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_sents": pd.Series(ns, dtype="int64"),
                "max_sent_tokens": pd.Series(mx, dtype="int64"),
                "mean_sent_tokens_x100": pd.Series(mean, dtype="int64"),
            }
        )

    return finish(
        ds.map_batches(stats, batch_format="pandas").to_pandas(),
        "doc_id",
    )


DOC_SENTENCE_STATS_SQL = r"""
WITH s AS (
    SELECT doc_id, unnest(regexp_split_to_array(text, '[.!?]+')) AS sent
    FROM documents
),
t AS (
    SELECT doc_id, len(string_split_regex(trim(sent), '\s+')) AS nt
    FROM s WHERE trim(sent) <> ''
),
agg AS (
    SELECT doc_id, COUNT(*) AS n_sents, MAX(nt) AS max_sent_tokens,
           (100 * SUM(nt)) // COUNT(*) AS mean_sent_tokens_x100
    FROM t GROUP BY doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(a.n_sents, 0) AS BIGINT) AS n_sents,
       CAST(COALESCE(a.max_sent_tokens, 0) AS BIGINT) AS max_sent_tokens,
       CAST(COALESCE(a.mean_sent_tokens_x100, 0) AS BIGINT) AS mean_sent_tokens_x100
FROM documents d LEFT JOIN agg a USING (doc_id)
ORDER BY d.doc_id
"""


def doc_ttr(sf_dir: str) -> pa.Table:
    """Per-doc type-token ratio (lexical diversity — low TTR flags
    template/boilerplate text the repetition stats can miss):
    distinct whitespace tokens / tokens, floor-milli. Empty docs
    carry 0/0/0. Pure streaming map."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def stats(batch: pd.DataFrame) -> pd.DataFrame:
        ids, nt, nd = [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            toks = (text or "").split()
            ids.append(doc_id)
            nt.append(len(toks))
            nd.append(len(set(toks)))
        n = pd.Series(nt, dtype="int64")
        d = pd.Series(nd, dtype="int64")
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_tokens": n,
                "n_types": d,
                "ttr_milli": (1000 * d) // n.clip(lower=1),
            }
        )

    return finish(
        ds.map_batches(stats, batch_format="pandas").to_pandas(),
        "doc_id",
    )


DOC_TTR_SQL = r"""
WITH t AS (
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                ELSE string_split_regex(trim(text), '\s+') END AS tk
    FROM documents
)
SELECT doc_id,
       CAST(len(tk) AS BIGINT) AS n_tokens,
       CAST(len(list_distinct(tk)) AS BIGINT) AS n_types,
       CAST((1000 * len(list_distinct(tk))) // greatest(len(tk), 1) AS BIGINT)
           AS ttr_milli
FROM t
ORDER BY doc_id
"""


def source_length_histogram(sf_dir: str) -> pa.Table:
    """Per-source log2-bucketed doc-length histogram — the data-card
    length-distribution table (bucket = bit_length(n_tokens), i.e.
    floor(log2)+1, computed INTEGER-exactly on both sides: Python
    int.bit_length vs SQL length(bin(n)) — no float log2 boundary
    hazard). One tiny (source, bucket) count shuffle."""

    ds = read_table(sf_dir, "documents", ["source", "text"])

    def bucketed_lengths(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "source": batch["source"].astype(str),
                "bucket": pd.Series(
                    [len((t or "").split()).bit_length() for t in batch["text"]], dtype="int64"
                ),
            }
        )

    return finish(
        bucketed_aggregate(
            ds.map_batches(bucketed_lengths, batch_format="pandas"),
            ["source", "bucket"],
            {"n_docs": ("bucket", "count")},
        ).to_pandas(),
        ["source", "bucket"],
        dtypes={"bucket": "int64", "n_docs": "int64"},
    )


SOURCE_LENGTH_HISTOGRAM_SQL = r"""
WITH t AS (
    SELECT source,
           CASE WHEN trim(text) = '' THEN 0
                ELSE len(string_split_regex(trim(text), '\s+')) END AS n
    FROM documents
)
SELECT source,
       CAST(CASE WHEN n = 0 THEN 0 ELSE length(bin(n)) END AS BIGINT) AS bucket,
       COUNT(*) AS n_docs
FROM t
GROUP BY source, CASE WHEN n = 0 THEN 0 ELSE length(bin(n)) END
ORDER BY source, bucket
"""


def source_token_drift(
    sf_dir: str,
    vocab_size: int = 64,
    snapshot_mod: int = 7,
    change_mod: int = 3,
) -> pa.Table:
    """Per-source token-distribution DRIFT between the current corpus
    and the prior crawl snapshot — the recrawl/monitoring signal next
    to the per-doc change labels (``corpus_snapshot_diff``): over the
    source's top-``vocab_size`` current terms, drift_milli is the L1
    distance between the two snapshots' floor-milli term distributions
    (restricted to that vocab). The prior snapshot is the
    deterministic stand-in of the snapshot-diff convention: docs with
    ``doc_id % snapshot_mod == 0`` are absent from it (newly added),
    and docs with ``doc_id % change_mod == 0`` appear there with every
    3rd token (1-based) dropped — a REAL distribution edit, so drift
    is non-vacuous by construction; a real deployment reads the prior
    manifest instead. The mods are coprime with the corpus's
    source = doc_id %% 20 assignment (7 and 3; 4 would empty src0's
    prior entirely).

    Scale shape: ONE tokenize pass emits BOTH sides' local (side,
    source, word) count partials (side is computed per doc from its
    id, html/text never leaves the task); one coarse-bucket aggregate
    folds them; per-block top-V cuts on the current side bound the
    driver merge at V x blocks rows (the ``doc_oov_rate`` subset-union
    argument); one broadcast-vocab filter pass pulls only the
    V x 2 x sources vocab rows for the driver's L1 fold.

    Returns (source, n_vocab, n_cur_tokens, n_prior_tokens,
    drift_milli) where the token totals count vocab terms only."""

    ds = read_table(sf_dir, "documents", ["doc_id", "source", "text"])

    def local_counts(batch: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        c: Counter[tuple[str, str, str]] = Counter()
        for doc_id, source, text in zip(
            batch["doc_id"], batch["source"], batch["text"]
        ):
            toks = (text or "").split()
            src = str(source)
            for t in toks:
                c[("c", src, t)] += 1
            if doc_id % snapshot_mod != 0:  # present in the prior
                ptoks = (
                    [t for i, t in enumerate(toks, 1) if i % 3 != 0]
                    if doc_id % change_mod == 0  # drifted there
                    else toks
                )
                for t in ptoks:
                    c[("p", src, t)] += 1
        keys = list(c.keys())
        return pd.DataFrame(
            {
                "side": [k[0] for k in keys],
                "source": [k[1] for k in keys],
                "word": [k[2] for k in keys],
                "cnt": pd.Series([c[k] for k in keys], dtype="int64"),
            }
        )

    counts = bucketed_aggregate(
        ds.map_batches(local_counts, batch_format="pandas"),
        ["side", "source", "word"],
        {"cnt": ("cnt", "sum")},
    ).materialize()

    def local_topv(df: pd.DataFrame) -> pd.DataFrame:
        cur = df[df["side"] == "c"]
        return (
            cur.sort_values(["source", "cnt", "word"], ascending=[True, False, True])
            .groupby("source", sort=False)
            .head(vocab_size)[["source", "word", "cnt"]]
        )

    merged = counts.map_batches(local_topv, batch_format="pandas").to_pandas()
    if len(merged) == 0:
        return pa.table(
            {
                "source": pa.array([], pa.string()),
                **{
                    c: pa.array([], pa.int64())
                    for c in (
                        "n_vocab",
                        "n_cur_tokens",
                        "n_prior_tokens",
                        "drift_milli",
                    )
                },
            }
        )
    vocab = (
        merged.sort_values(["source", "cnt", "word"], ascending=[True, False, True])
        .groupby("source", sort=False)
        .head(vocab_size)
    )
    vset = frozenset(zip(vocab["source"], vocab["word"]))
    v_ref = ray.put(vset)

    def vocab_rows(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["side", "source", "word", "cnt"]
        from mlscraper_ray.functions.broadcast import cached_object

        v = cached_object(v_ref)
        keep = [
            (s, w) in v for s, w in zip(df["source"], df["word"])
        ]
        return df.loc[keep, cols]

    rows = counts.map_batches(vocab_rows, batch_format="pandas").to_pandas()
    out_rows = []
    for src, grp in rows.groupby("source"):
        piv = grp.pivot_table(
            index="word", columns="side", values="cnt", aggfunc="sum", fill_value=0
        )
        cur = piv["c"].astype(int) if "c" in piv else pd.Series(0, index=piv.index)
        pri = piv["p"].astype(int) if "p" in piv else pd.Series(0, index=piv.index)
        tc, tp = int(cur.sum()), int(pri.sum())
        p = (1000 * cur) // max(tc, 1)
        q = (1000 * pri) // max(tp, 1)
        out_rows.append(
            (str(src), len(piv), tc, tp, int((p - q).abs().sum()))
        )
    out_rows.sort()
    return pa.table(
        {
            "source": pa.array([r[0] for r in out_rows], pa.string()),
            "n_vocab": pa.array([r[1] for r in out_rows], pa.int64()),
            "n_cur_tokens": pa.array([r[2] for r in out_rows], pa.int64()),
            "n_prior_tokens": pa.array([r[3] for r in out_rows], pa.int64()),
            "drift_milli": pa.array([r[4] for r in out_rows], pa.int64()),
        }
    )


def source_token_drift_sql(
    vocab_size: int = 64, snapshot_mod: int = 7, change_mod: int = 3
) -> str:
    return rf"""
WITH cur AS (
    SELECT source, unnest(string_split_regex(trim(text), '\s+')) AS word
    FROM documents WHERE trim(text) <> ''
),
pri AS (
    SELECT source,
           unnest(CASE WHEN doc_id % {change_mod} = 0
                       THEN list_filter(string_split_regex(trim(text), '\s+'),
                                        (x, i) -> i % 3 != 0)
                       ELSE string_split_regex(trim(text), '\s+') END) AS word
    FROM documents WHERE trim(text) <> '' AND doc_id % {snapshot_mod} != 0
),
cc AS (SELECT source, word, COUNT(*) AS cnt FROM cur GROUP BY source, word),
pc AS (SELECT source, word, COUNT(*) AS cnt FROM pri GROUP BY source, word),
vocab AS (
    SELECT source, word, cnt FROM cc
    QUALIFY ROW_NUMBER() OVER (PARTITION BY source ORDER BY cnt DESC, word)
            <= {vocab_size}
),
j AS (
    SELECT v.source, v.word, v.cnt AS c_cnt, COALESCE(pc.cnt, 0) AS p_cnt
    FROM vocab v LEFT JOIN pc ON pc.source = v.source AND pc.word = v.word
),
tot AS (
    SELECT source, SUM(c_cnt) AS tc, SUM(p_cnt) AS tp FROM j GROUP BY source
)
SELECT j.source,
       CAST(COUNT(*) AS BIGINT) AS n_vocab,
       CAST(MAX(t.tc) AS BIGINT) AS n_cur_tokens,
       CAST(MAX(t.tp) AS BIGINT) AS n_prior_tokens,
       CAST(SUM(ABS((1000 * j.c_cnt) // greatest(t.tc, 1)
                  - (1000 * j.p_cnt) // greatest(t.tp, 1))) AS BIGINT)
           AS drift_milli
FROM j JOIN tot t ON t.source = j.source
GROUP BY j.source
ORDER BY j.source
"""


SOURCE_TOKEN_DRIFT_SQL = source_token_drift_sql()


def source_char_class_profile(sf_dir: str) -> pa.Table:
    """Per-source character-class profile — the encoding/format
    fingerprint on the data card (a source whose digit or symbol mass
    jumps between snapshots changed its template or its encoding):
    total chars plus floor-milli fractions of letters, digits,
    whitespace and everything else, computed over the concatenated
    source text. Integer-exact: per-batch class COUNTS fold through
    one tiny (source) aggregate; fractions divide once at the end.
    ASCII classes ([a-zA-Z], [0-9], [\\t\\n\\f\\r ]) so the Python and
    SQL sides count identically with no unicode-category drift."""

    ds = read_table(sf_dir, "documents", ["source", "text"])
    letter_re = re.compile(r"[a-zA-Z]")
    digit_re = re.compile(r"[0-9]")
    space_re = re.compile(r"[\t\n\f\r ]")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows: dict[str, list[int]] = {}
        for source, text in zip(batch["source"], batch["text"]):
            t = text or ""
            r = rows.setdefault(str(source), [0, 0, 0, 0])
            r[0] += len(t)
            r[1] += len(letter_re.findall(t))
            r[2] += len(digit_re.findall(t))
            r[3] += len(space_re.findall(t))
        return pd.DataFrame(
            {
                "source": list(rows),
                "n_chars": pd.Series([r[0] for r in rows.values()], dtype="int64"),
                "n_letters": pd.Series([r[1] for r in rows.values()], dtype="int64"),
                "n_digits": pd.Series([r[2] for r in rows.values()], dtype="int64"),
                "n_spaces": pd.Series([r[3] for r in rows.values()], dtype="int64"),
            }
        )

    out = (
        bucketed_aggregate(
            ds.map_batches(partial, batch_format="pandas"),
            ["source"],
            {
                "n_chars": ("n_chars", "sum"),
                "n_letters": ("n_letters", "sum"),
                "n_digits": ("n_digits", "sum"),
                "n_spaces": ("n_spaces", "sum"),
            },
        )
        .to_pandas()
        .sort_values("source", ignore_index=True)
    )
    for c in ("n_chars", "n_letters", "n_digits", "n_spaces"):
        out[c] = out[c].astype("int64")
    denom = out["n_chars"].clip(lower=1)
    out["letter_milli"] = (1000 * out["n_letters"]) // denom
    out["digit_milli"] = (1000 * out["n_digits"]) // denom
    out["space_milli"] = (1000 * out["n_spaces"]) // denom
    out["other_milli"] = (
        1000
        * (out["n_chars"] - out["n_letters"] - out["n_digits"] - out["n_spaces"])
    ) // denom
    cols = [
        "source",
        "n_chars",
        "letter_milli",
        "digit_milli",
        "space_milli",
        "other_milli",
    ]
    return finish(out, columns=cols)


SOURCE_CHAR_CLASS_SQL = r"""
WITH c AS (
    SELECT source,
           SUM(length(text)) AS n_chars,
           SUM(length(regexp_replace(text, '[^a-zA-Z]+', '', 'g'))) AS n_letters,
           SUM(length(regexp_replace(text, '[^0-9]+', '', 'g'))) AS n_digits,
           SUM(length(regexp_replace(text, '[^\t\n\f\r ]+', '', 'g'))) AS n_spaces
    FROM documents GROUP BY source
)
SELECT source, CAST(n_chars AS BIGINT) AS n_chars,
       CAST((1000 * n_letters) // greatest(n_chars, 1) AS BIGINT) AS letter_milli,
       CAST((1000 * n_digits) // greatest(n_chars, 1) AS BIGINT) AS digit_milli,
       CAST((1000 * n_spaces) // greatest(n_chars, 1) AS BIGINT) AS space_milli,
       CAST((1000 * (n_chars - n_letters - n_digits - n_spaces))
            // greatest(n_chars, 1) AS BIGINT) AS other_milli
FROM c
ORDER BY source
"""


def sample_fixed_k(sf_dir: str, k: int = 100) -> pa.Table:
    """Exact fixed-SIZE uniform sample (k rows, not a rate): the k
    docs with the smallest md5(doc_id) rank — seedless, rerun- and
    worker-count-stable, and a true distributed top-k: every batch
    keeps only its local k smallest (rank, doc_id) rows, so the
    driver folds at most k x n_blocks slim rows no matter the corpus
    size. The companion to :func:`sample_documents` (rate-based) for
    the "give me exactly 10k eval docs" ask; at 100 TB the fold is
    k-bounded while a rate sample's size drifts with the corpus."""
    import hashlib

    ds = read_table(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def block_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["rk"] = [hashlib.md5(str(d).encode()).hexdigest() for d in df["doc_id"]]
        return df.sort_values(["rk", "doc_id"]).head(k)

    parts = ds.map_batches(block_topk, batch_format="pandas").to_pandas()
    out = (
        parts.sort_values(["rk", "doc_id"])
        .head(k)[["doc_id", "source", "n_chars"]]
        .sort_values("doc_id", ignore_index=True)
    )
    return finish(out, dtypes={"doc_id": "int64", "n_chars": "int64"})


def sample_fixed_k_sql(k: int = 100) -> str:
    return f"""
SELECT doc_id, source, n_chars
FROM (SELECT doc_id, source, n_chars
      FROM documents
      ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
      LIMIT {k})
ORDER BY doc_id
"""


def doc_readability(sf_dir: str) -> pa.Table:
    """Per-doc Flesch-reading-ease-style readability in EXACT integer
    fixed point — the classic pretraining quality signal next to the
    Gopher rules: words = ``[A-Za-z]+`` runs, sentences = ``[.!?]+``
    runs (floor 1), syllables approximated as vowel-group runs
    (``[aeiouyAEIOUY]+``, the standard cheap proxy). Score:

        fre_x1000 = 206835 - 1015*floor(W*1000/S)/1000
                           - 84600*floor(Syl*1000/W)/1000

    evaluated with integer floor division at each step so the Ray and
    SQL sides agree bit-for-bit (every numerator is non-negative, so
    ``//`` truncation == floor on both engines). Pure streaming
    map — vectorized pandas ``str.count`` per batch, zero shuffles."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        w = df["text"].str.count(r"[A-Za-z]+").astype("int64")
        s = df["text"].str.count(r"[.!?]+").astype("int64").clip(lower=1)
        syl = df["text"].str.count(r"[aeiouyAEIOUY]+").astype("int64")
        wps = w * 1000 // s
        spw = (syl * 1000 // w.where(w > 0, 1)).where(w > 0, 0)
        fre = 206835 - (1015 * wps) // 1000 - (84600 * spw) // 1000
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_words": w,
                "n_sentences": s,
                "n_syllables": syl,
                "fre_x1000": fre.astype("int64"),
            }
        )

    return finish(ds.map_batches(score, batch_format="pandas").to_pandas(), "doc_id")


DOC_READABILITY_SQL = """
WITH c AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '[A-Za-z]+')) AS BIGINT) AS n_words,
         GREATEST(CAST(len(regexp_extract_all(text, '[.!?]+')) AS BIGINT), 1) AS n_sentences,
         CAST(len(regexp_extract_all(text, '[aeiouyAEIOUY]+')) AS BIGINT) AS n_syllables
  FROM documents
)
SELECT doc_id, n_words, n_sentences, n_syllables,
       206835
       - (1015 * (n_words * 1000 // n_sentences)) // 1000
       - (84600 * (CASE WHEN n_words > 0
                        THEN n_syllables * 1000 // n_words ELSE 0 END)) // 1000
         AS fre_x1000
FROM c
ORDER BY doc_id
"""


def doc_char_entropy(sf_dir: str) -> pa.Table:
    """Per-doc character-distribution entropy in the repo's INTEGER
    floor-log2 discipline — the cheap compression-ratio proxy that
    flags low-entropy spam (repeated chars, padding) and high-entropy
    garbage (binary spills) without running a compressor:

        ent_int = n*floor(log2 n) - sum_c k_c*floor(log2 k_c)

    (k_c = count of codepoint c, n = doc length; the exact-integer
    shape of n*H under floor-log2, 0 for single-char docs).
    ``ent_milli_per_char = ent_int*1000 // n`` normalizes for
    gating. floor(log2 x) is ``bit_length - 1`` / ``bin()`` digits
    on the two sides — no float log2 boundary hazard (the
    surprisal-family idiom). Pure streaming map, zero shuffles;
    per-doc counting is one numpy unique over the utf-32 view."""
    import numpy as np

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def ent(df: pd.DataFrame) -> pd.DataFrame:
        L = lambda x: int(x).bit_length() - 1  # noqa: E731
        ns, es, ms = [], [], []
        for t in df["text"].fillna(""):
            cp = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
            n = len(cp)
            if n == 0:
                ns.append(0); es.append(0); ms.append(0)
                continue
            _, counts = np.unique(cp, return_counts=True)
            s = int(sum(int(k) * L(k) for k in counts))
            e = n * L(n) - s
            ns.append(n); es.append(e); ms.append(e * 1000 // n)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_cp": pd.Series(ns, index=df.index, dtype="int64"),
                "ent_int": pd.Series(es, index=df.index, dtype="int64"),
                "ent_milli_per_char": pd.Series(ms, index=df.index, dtype="int64"),
            }
        )

    return finish(ds.map_batches(ent, batch_format="pandas").to_pandas(), "doc_id")


DOC_CHAR_ENTROPY_SQL = """
WITH ch AS (
    SELECT doc_id, unnest(string_split(text, '')) AS c FROM documents
),
cnt AS (SELECT doc_id, c, COUNT(*) AS k FROM ch GROUP BY doc_id, c),
ent AS (
    SELECT doc_id, CAST(SUM(k) AS BIGINT) AS n_cp,
           CAST(SUM(k * (length(ltrim(bin(CAST(k AS BIGINT)), '0')) - 1)) AS BIGINT) AS s
    FROM cnt GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(e.n_cp, 0) AS n_cp,
       COALESCE(e.n_cp * (length(ltrim(bin(e.n_cp), '0')) - 1) - e.s, 0) AS ent_int,
       COALESCE((e.n_cp * (length(ltrim(bin(e.n_cp), '0')) - 1) - e.s) * 1000 // e.n_cp, 0)
         AS ent_milli_per_char
FROM documents d LEFT JOIN ent e USING (doc_id)
ORDER BY d.doc_id
"""


def sample_weighted_k(sf_dir: str, k: int = 100) -> pa.Table:
    """Deterministic WEIGHTED fixed-size sample: k docs chosen with
    probability increasing in weight (= ``n_chars``, clamped to 1 so
    an empty document weighs as a one-char one), via the integer
    priority ``md5_64(doc_id) // weight`` — heavier docs
    draw proportionally smaller priorities, the k smallest
    (priority, doc_id) win. Seedless and cluster-stable like
    :func:`sample_fixed_k`, same k-bounded distributed top-k fold
    (each batch contributes its local k smallest); the priority uses
    PYTHON ints in the fold because the raw low-64 md5 exceeds
    int64 (the UBIGINT the SQL side compares)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def block_topk(df: pd.DataFrame) -> pd.DataFrame:
        pri = [
            (
                md5_number_lower(str(d)) // max(int(w), 1),
                int(d),
            )
            for d, w in zip(df["doc_id"], df["n_chars"])
        ]
        keep = {d for _, d in sorted(pri)[:k]}
        out = df[df["doc_id"].isin(keep)].copy()
        out["__p"] = [p for p, d in pri if d in keep]
        return out

    parts = ds.map_batches(block_topk, batch_format="pandas").to_pandas()
    order = sorted(zip(parts["__p"], parts["doc_id"]))[:k]
    keep = {d for _, d in order}
    return finish(
        parts[parts["doc_id"].isin(keep)],
        "doc_id",
        columns=["doc_id", "source", "n_chars"],
        dtypes={"doc_id": "int64", "n_chars": "int64"},
    )


def sample_weighted_k_sql(k: int = 100) -> str:
    return f"""
SELECT doc_id, source, n_chars
FROM (SELECT doc_id, source, n_chars
      FROM documents
      ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)) // greatest(n_chars, 1), doc_id
      LIMIT {k})
ORDER BY doc_id
"""


def _pareto_front_2d(df: pd.DataFrame) -> pd.DataFrame:
    """Maximal (n_distinct, n_chars) rows under 2-D dominance:
    a row is dominated iff another is >= on both axes and > on one.
    Duplicate coordinate pairs on the front all survive (neither
    dominates the other — no strict axis). Vectorized sweep: per
    unique x keep the max y (lower y at equal x is dominated), then
    a descending-x pass keeps strictly-increasing y."""
    import numpy as np

    if df.empty:
        return df
    best_y = df.groupby("n_distinct")["n_chars"].transform("max")
    cand = df[df["n_chars"] == best_y]
    pairs = (
        cand[["n_distinct", "n_chars"]]
        .drop_duplicates()
        .sort_values(["n_distinct", "n_chars"], ascending=[False, False])
    )
    keep, run = [], -1
    for a, b in zip(pairs["n_distinct"], pairs["n_chars"]):
        if b > run:
            keep.append((a, b))
            run = b
    kept = set(keep)
    mask = [
        (a, b) in kept for a, b in zip(cand["n_distinct"], cand["n_chars"])
    ]
    return cand[np.asarray(mask)]


def doc_pareto_front(sf_dir: str) -> pa.Table:
    """SKYLINE (Pareto-front) selection: the docs not dominated on
    (distinct-token count, char length) — multi-objective "best"
    picking without collapsing objectives into one score (the
    Börzsönyi et al. 2001 skyline operator, the data-selection shape
    behind "longest AND most lexically diverse" exemplar mining).

    Distribution is the skyline's textbook merge property: the global
    front is the front OF THE UNION OF LOCAL FRONTS, so each batch
    emits only its local front (typically a handful of rows) and the
    driver folds front-sized partials — never the corpus. Dominance
    ties: duplicate coordinate pairs never dominate each other (no
    strict axis), so equal-front docs all survive — pinned by the
    corpus itself (doc 467/474 share a front cell at sf0.001)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def local_front(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.findall(r"[^\t\n\f\r ]+")
        out = pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_distinct": toks.map(lambda ws: len(set(ws))).astype("int64"),
                "n_chars": df["n_chars"].astype("int64"),
            }
        )
        return _pareto_front_2d(out)

    parts = ds.map_batches(local_front, batch_format="pandas").to_pandas()
    out = (
        _pareto_front_2d(parts)
        .sort_values("doc_id", ignore_index=True)
        .astype("int64")
    )
    return finish(out, columns=["doc_id", "n_distinct", "n_chars"])


DOC_PARETO_FRONT_SQL = r"""
WITH m AS (
  SELECT doc_id,
         CAST(len(list_distinct(list_filter(
             string_split_regex(text, '[\t\n\f\r ]+'), x -> x <> ''))) AS BIGINT)
           AS n_distinct,
         CAST(n_chars AS BIGINT) AS n_chars
  FROM documents
)
SELECT doc_id, n_distinct, n_chars FROM m t
WHERE NOT EXISTS (
  SELECT 1 FROM m o
  WHERE o.n_distinct >= t.n_distinct AND o.n_chars >= t.n_chars
    AND (o.n_distinct > t.n_distinct OR o.n_chars > t.n_chars))
ORDER BY doc_id
"""


def source_length_gini(sf_dir: str) -> pa.Table:
    """Per-source doc-length GINI coefficient in exact integer milli
    — the inequality statistic for data cards (a source whose token
    mass concentrates in a few giant docs behaves differently under
    sampling and packing than a uniform one):

        gini_milli = (2*sum(i*x_i) - (n+1)*sum(x)) * 1000
                     // (n * sum(x))          (x sorted asc, i 1-based)

    Exact and tie-order-invariant (equal x values contribute the same
    sum under any permutation of their positions). Sources are the
    shuffle key (bounded cardinality): one groupby(source) and a
    vectorized in-group sort — the numerator is always >= 0, so
    ``//`` truncation == floor on both engines."""
    ds = read_table(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def per_source(g: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        rows = []
        for src, grp in g.groupby("source", sort=False):
            x = grp.sort_values(["n_chars", "doc_id"])["n_chars"].to_numpy(dtype=np.int64)
            n = len(x)
            tot = int(x.sum())
            i = np.arange(1, n + 1, dtype=np.int64)
            num = 2 * int((i * x).sum()) - (n + 1) * tot
            rows.append((str(src), n, num * 1000 // (n * tot) if tot else 0))
        return pd.DataFrame(rows, columns=["source", "n_docs", "gini_milli"]).astype(
            {"n_docs": "int64", "gini_milli": "int64"}
        )

    return finish(
        ds.groupby("source").map_groups(per_source, batch_format="pandas").to_pandas(),
        "source",
    )


SOURCE_LENGTH_GINI_SQL = """
WITH r AS (
  SELECT source, n_chars,
         ROW_NUMBER() OVER (PARTITION BY source ORDER BY n_chars, doc_id) AS i
  FROM documents
)
SELECT source, COUNT(*) AS n_docs,
       CAST((2*SUM(i*n_chars) - (COUNT(*)+1)*SUM(n_chars)) * 1000
            // (COUNT(*) * SUM(n_chars)) AS BIGINT) AS gini_milli
FROM r GROUP BY source
ORDER BY source
"""


def window_cooc_lift(
    sf_dir: str,
    vocab_size: int = 256,
    window: int = 4,
    k: int = 50,
    min_count: int = 3,
) -> pa.Table:
    """Skip-gram collocation mining: top-``k`` unordered in-vocab token
    pairs co-occurring within ``window`` positions, ranked by exact
    integer lift — ``lift_milli = (1000 * c_ab * N_tok^2) // (c_a *
    c_b * N_pairs)`` (PMI's exponential; > 1000 means
    more-than-independent). Window distances are measured on the
    ORIGINAL token sequence, then both endpoints must sit in the
    corpus top-``vocab_size`` vocabulary (count desc, word asc ties);
    equal-word pairs are excluded; pairs below ``min_count`` are
    noise-gated. Complements bigram_dice_top (adjacency) with
    window-4 phrase structure.

    Distributed plan: the oov_rate vocab fold builds the broadcast
    vocabulary (word rows -> bucketed aggregate -> local top-V ->
    V-row driver merge); ONE more tokenize pass emits local
    (w1, w2, cnt) pair partials that fold through the bucketed
    aggregate. The resolved pair table is vocab-bounded (<= V^2/2
    rows, independent of corpus size), so scoring runs driver-side in
    arbitrary-precision Python ints — N_tok^2 * c_ab overflows int64
    at web scale, and the SQL mirror uses HUGEINT for the same
    reason."""

    docs = read_table(sf_dir, "documents", ["text"])
    counts = bucketed_aggregate(
        docs.map_batches(_words, batch_format="pandas"),
        ["word"],
        {"cnt": ("word", "count")},
    )

    def local_topv(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["cnt", "word"], ascending=[False, True]).head(
            vocab_size
        )

    merged = counts.map_batches(local_topv, batch_format="pandas").to_pandas()
    empty = pa.table(
        {
            "w1": pa.array([], pa.string()),
            "w2": pa.array([], pa.string()),
            "pair_count": pa.array([], pa.int64()),
            "lift_milli": pa.array([], pa.int64()),
        }
    )
    if len(merged) == 0:
        return empty
    vdf = merged.sort_values(["cnt", "word"], ascending=[False, True]).head(
        vocab_size
    )
    vocab_counts = {w: int(c) for w, c in zip(vdf["word"], vdf["cnt"])}
    n_tok = sum(vocab_counts.values())
    v_ref = ray.put(frozenset(vocab_counts))

    def pair_partial(batch: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        v = cached_object(v_ref)
        c: Counter = Counter()
        for text in batch["text"]:
            toks = text.split()
            for o in range(1, window + 1):
                for a, b in zip(toks, toks[o:]):
                    if a != b and a in v and b in v:
                        c[(a, b) if a < b else (b, a)] += 1
        if not c:
            return pd.DataFrame(
                {
                    "w1": pd.Series(dtype="object"),
                    "w2": pd.Series(dtype="object"),
                    "cnt": pd.Series(dtype="int64"),
                }
            )
        ks = list(c.keys())
        return pd.DataFrame(
            {
                "w1": [x[0] for x in ks],
                "w2": [x[1] for x in ks],
                "cnt": pd.Series([c[x] for x in ks], dtype="int64"),
            }
        )

    pairs = bucketed_aggregate(
        docs.map_batches(pair_partial, batch_format="pandas"),
        ["w1", "w2"],
        {"pair_count": ("cnt", "sum")},
    ).to_pandas()
    if len(pairs) == 0:
        return empty
    n_pairs = int(pairs["pair_count"].sum())
    pairs = pairs[pairs["pair_count"] >= min_count].copy()
    if len(pairs) == 0:
        return empty
    lift = [
        (1000 * int(cab) * n_tok * n_tok)
        // (vocab_counts[a] * vocab_counts[b] * n_pairs)
        for a, b, cab in zip(pairs["w1"], pairs["w2"], pairs["pair_count"])
    ]
    pairs["lift_milli"] = pd.Series(lift, index=pairs.index, dtype="int64")
    return finish(
        pairs,
        ["lift_milli", "pair_count", "w1", "w2"],
        ascending=[False, False, True, True],
        head=k,
        columns=["w1", "w2", "pair_count", "lift_milli"],
        dtypes={"pair_count": "int64"},
    )


def window_cooc_lift_sql(
    vocab_size: int = 256, window: int = 4, k: int = 50, min_count: int = 3
) -> str:
    return rf"""
WITH toks AS (
    SELECT doc_id, arr[i] AS w, i
    FROM (SELECT doc_id, string_split_regex(trim(text), '\s+') AS arr
          FROM documents WHERE trim(text) <> '') t,
         UNNEST(generate_series(1, len(arr))) AS s(i)
),
cnt AS (SELECT w AS word, COUNT(*) AS c FROM toks GROUP BY w),
vocab AS (SELECT word, c FROM cnt ORDER BY c DESC, word LIMIT {vocab_size}),
ntok AS (SELECT CAST(SUM(c) AS HUGEINT) AS n FROM vocab),
pr AS (
    SELECT LEAST(a.w, b.w) AS w1, GREATEST(a.w, b.w) AS w2
    FROM toks a JOIN toks b
      ON a.doc_id = b.doc_id AND b.i > a.i AND b.i <= a.i + {window}
    WHERE a.w <> b.w
      AND a.w IN (SELECT word FROM vocab)
      AND b.w IN (SELECT word FROM vocab)
),
pc AS (SELECT w1, w2, COUNT(*) AS c_ab FROM pr GROUP BY w1, w2),
np AS (SELECT CAST(SUM(c_ab) AS HUGEINT) AS n FROM pc)
SELECT w1, w2, CAST(c_ab AS BIGINT) AS pair_count,
       CAST((1000 * CAST(c_ab AS HUGEINT) * (SELECT n FROM ntok) * (SELECT n FROM ntok))
            // (CAST(v1.c AS HUGEINT) * v2.c * (SELECT n FROM np)) AS BIGINT)
           AS lift_milli
FROM pc
JOIN vocab v1 ON pc.w1 = v1.word
JOIN vocab v2 ON pc.w2 = v2.word
WHERE c_ab >= {min_count}
ORDER BY lift_milli DESC, pair_count DESC, w1, w2
LIMIT {k}
"""


WINDOW_COOC_LIFT_SQL = window_cooc_lift_sql()


def sample_k_per_source(sf_dir: str, k: int = 20) -> pa.Table:
    """Exact fixed-``k``-PER-SOURCE sample — the balanced eval-set
    builder ("20 docs from every source, no matter how skewed the
    corpus"): within each source, the k docs with the smallest
    md5(doc_id) rank (seedless, rerun- and worker-count-stable; the
    grouped companion to :func:`sample_fixed_k`, complementing the
    rate-based stratified sampler whose per-source size drifts with
    the corpus). Each batch keeps only its local k smallest per
    source, so the driver folds at most k x n_sources x n_blocks slim
    rows — source cardinality is a data-card-sized domain (tens to
    thousands), never doc-sized; for a pathological million-source
    corpus the same per-batch partial feeds groupby(source) instead
    of the driver fold."""
    import hashlib

    ds = read_table(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def block_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["rk"] = [hashlib.md5(str(d).encode()).hexdigest() for d in df["doc_id"]]
        df = df.sort_values(["rk", "doc_id"])
        return df.groupby("source", sort=False).head(k)

    parts = ds.map_batches(block_topk, batch_format="pandas").to_pandas()
    return finish(
        parts.sort_values(["rk", "doc_id"]).groupby("source", sort=False).head(k),
        "doc_id",
        columns=["doc_id", "source", "n_chars"],
        dtypes={"doc_id": "int64", "n_chars": "int64"},
    )


def sample_k_per_source_sql(k: int = 20) -> str:
    return f"""
SELECT doc_id, source, n_chars
FROM (
    SELECT doc_id, source, n_chars,
           ROW_NUMBER() OVER (PARTITION BY source
                              ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
    FROM documents
)
WHERE rn <= {k}
ORDER BY doc_id
"""


SAMPLE_K_PER_SOURCE_SQL = sample_k_per_source_sql()


def source_lang_mix(sf_dir: str) -> pa.Table:
    """Per (source, lang) document counts with integer-milli share of
    the source — the language-mix data-card table read before fixing a
    sampling temperature per source (a 'en' source that is 30% 'zh' is
    mislabeled upstream). One bucketed count aggregate; the resolved
    table is sources x langs (data-card-sized), so shares compute
    driver-side."""

    ds = read_table(sf_dir, "documents", ["source", "lang"])
    counts = bucketed_aggregate(ds, ["source", "lang"], {"n_docs": ("lang", "count")}).to_pandas()
    totals = counts.groupby("source")["n_docs"].transform("sum")
    counts["share_milli"] = (1000 * counts["n_docs"]) // totals
    return finish(
        counts,
        ["source", "lang"],
        columns=["source", "lang", "n_docs", "share_milli"],
        dtypes={"n_docs": "int64", "share_milli": "int64"},
    )


SOURCE_LANG_MIX_SQL = """
SELECT source, lang, COUNT(*) AS n_docs,
       CAST((1000 * COUNT(*)) // SUM(COUNT(*)) OVER (PARTITION BY source)
            AS BIGINT) AS share_milli
FROM documents
GROUP BY source, lang
ORDER BY source, lang
"""


def source_length_percentiles(sf_dir: str) -> pa.Table:
    """EXACT discrete p50/p90/p99 + max of document length (n_chars)
    per source — the length-profile data-card row next to the log2
    histogram and the Gini (percentiles localize WHERE the mass sits;
    the histogram shows shape). The exact count-histogram idiom:
    (source, n_chars) counts from the bucketed aggregate (distinct
    lengths per source are length-domain-bounded, never doc-sized),
    then ``bucketed.quantiles_disc`` reads each source's percentiles
    and max off its histogram."""

    ds = read_table(sf_dir, "documents", ["source", "n_chars"])
    hist = bucketed_aggregate(ds, ["source", "n_chars"], {"n": ("n_chars", "count")})

    def pctl(g: pd.DataFrame) -> pd.DataFrame:
        p50, p90, p99, mx = quantiles_disc(
            g["n_chars"].to_numpy("int64"), g["n"].to_numpy("int64"), (0.50, 0.90, 0.99, 1.0)
        )
        return pd.DataFrame(
            {
                "source": [g["source"].iloc[0]],
                "n_docs": pd.Series([g["n"].sum()], dtype="int64"),
                "p50_chars": pd.Series([p50], dtype="int64"),
                "p90_chars": pd.Series([p90], dtype="int64"),
                "p99_chars": pd.Series([p99], dtype="int64"),
                "max_chars": pd.Series([mx], dtype="int64"),
            }
        )

    return finish(
        hist.groupby("source").map_groups(pctl, batch_format="pandas").to_pandas(),
        "source",
    )


SOURCE_LENGTH_PERCENTILES_SQL = """
SELECT source, COUNT(*) AS n_docs,
       CAST(quantile_disc(n_chars, 0.50) AS BIGINT) AS p50_chars,
       CAST(quantile_disc(n_chars, 0.90) AS BIGINT) AS p90_chars,
       CAST(quantile_disc(n_chars, 0.99) AS BIGINT) AS p99_chars,
       CAST(MAX(n_chars) AS BIGINT) AS max_chars
FROM documents
GROUP BY source
ORDER BY source
"""


def vocab_growth_curve(sf_dir: str, n_bins: int = 10) -> pa.Table:
    """Heaps-law vocabulary growth: how many NEW distinct whitespace
    tokens each doc-id decile of the corpus introduces, with the
    running cumulative vocabulary — the sublinearity check a tokenizer
    budget is planned against (a corpus whose curve stays linear is
    unbounded-vocab garbage; a flattening curve says when vocab
    saturates). A token is credited to the decile of its FIRST
    occurrence (min doc_id).

    Distributed shape: (word, doc_id) rows fold through the bucketed
    MIN aggregate (one shuffle of slim word rows — the surprisal
    tokenize shape); the decile histogram is then a second bucketed
    count over the resolved word table and only
    ``n_bins`` rows reach the driver, where the cumulative sum is a
    10-element scan. The doc-id span comes from one metadata-cheap
    column max."""

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    max_doc = docs.max("doc_id")

    firsts = bucketed_aggregate(
        docs.map_batches(lambda b: _words(b, "doc_id"), batch_format="pandas"),
        ["word"],
        {"first_doc": ("doc_id", "min")},
    )
    hist = (
        bucketed_aggregate(
            firsts.map_batches(
                lambda df: pd.DataFrame(
                    {"bin": (df["first_doc"].astype("int64") * n_bins) // (max_doc + 1)}
                ),
                batch_format="pandas",
            ),
            ["bin"],
            {"new_words": ("bin", "count")},
        )
        .to_pandas()
        .sort_values("bin", ignore_index=True)
    )
    hist["cum_words"] = hist["new_words"].cumsum()
    return finish(hist, dtypes={"bin": "int64", "new_words": "int64", "cum_words": "int64"})


def vocab_growth_curve_sql(n_bins: int = 10) -> str:
    return rf"""
WITH words AS (
    SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS word
    FROM documents WHERE trim(text) <> ''
),
w AS (SELECT word, MIN(doc_id) AS first_doc FROM words GROUP BY word),
m AS (SELECT MAX(doc_id) AS mx FROM documents),
h AS (
    SELECT (first_doc * {n_bins}) // (mx + 1) AS bin, COUNT(*) AS new_words
    FROM w, m GROUP BY 1
)
SELECT bin, new_words,
       CAST(SUM(new_words) OVER (ORDER BY bin) AS BIGINT) AS cum_words
FROM h ORDER BY bin
"""


VOCAB_GROWTH_CURVE_SQL = vocab_growth_curve_sql()


def token_length_histogram(sf_dir: str) -> pa.Table:
    """Corpus-wide token-length distribution — the tokenizer design
    input next to the vocab growth curve (byte-fallback rates and
    max-piece-length choices read straight off this table): for each
    whitespace-token character length, the token-instance count and
    the distinct-token count of that length.

    Distributed shape: one tokenize pass; word rows fold through the
    bucketed word aggregate, then each distinct word's (length, count)
    row folds per length (the length domain is tiny) — exactly one
    shuffle of word rows."""

    docs = read_table(sf_dir, "documents", ["text"])

    counts = bucketed_aggregate(
        docs.map_batches(_words, batch_format="pandas"),
        ["word"],
        {"cnt": ("word", "count")},
    )

    def per_len(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"token_len": df["word"].str.len().astype("int64"), "cnt": df["cnt"].astype("int64")}
        )

    return finish(
        bucketed_aggregate(
            counts.map_batches(per_len, batch_format="pandas"),
            ["token_len"],
            {"n_instances": ("cnt", "sum"), "n_distinct": ("cnt", "count")},
        ).to_pandas(),
        "token_len",
        dtypes={"token_len": "int64", "n_instances": "int64", "n_distinct": "int64"},
    )


TOKEN_LENGTH_HISTOGRAM_SQL = r"""
WITH words AS (
    SELECT unnest(string_split_regex(trim(text), '\s+')) AS word
    FROM documents WHERE trim(text) <> ''
),
cnt AS (SELECT word, COUNT(*) AS c FROM words GROUP BY word)
SELECT CAST(length(word) AS BIGINT) AS token_len,
       CAST(SUM(c) AS BIGINT) AS n_instances,
       COUNT(*) AS n_distinct
FROM cnt
GROUP BY length(word)
ORDER BY token_len
"""


def source_ttr(sf_dir: str) -> pa.Table:
    """Per-SOURCE type-token ratio (milli): distinct whitespace tokens
    over total token instances — the lexical-diversity data-card row
    at collection granularity (a source whose TTR collapses relative
    to peers is templated or machine-generated; the source-level
    companion to the per-doc doc_ttr).

    Distributed shape: one tokenize pass emits slim (source, word)
    rows; a bucketed aggregate resolves distinct (source, word) rows
    with their instance counts, and a second one folds those rows into
    per-source distinct and instance totals — nothing driver-sized
    beyond the source table."""

    docs = read_table(sf_dir, "documents", ["source", "text"])

    sw = bucketed_aggregate(
        docs.map_batches(lambda b: _words(b, "source"), batch_format="pandas"),
        ["source", "word"],
        {"cnt": ("word", "count")},
    )
    out = (
        bucketed_aggregate(
            sw, ["source"], {"n_distinct": ("word", "count"), "n_tokens": ("cnt", "sum")}
        )
        .to_pandas()
        .sort_values("source", ignore_index=True)
        .astype({"n_distinct": "int64", "n_tokens": "int64"})
    )
    out["ttr_milli"] = (1000 * out["n_distinct"]) // out["n_tokens"]
    return finish(out, columns=["source", "n_tokens", "n_distinct", "ttr_milli"])


SOURCE_TTR_SQL = r"""
WITH words AS (
    SELECT source, unnest(string_split_regex(trim(text), '\s+')) AS word
    FROM documents WHERE trim(text) <> ''
)
SELECT source,
       COUNT(*) AS n_tokens,
       CAST(COUNT(DISTINCT word) AS BIGINT) AS n_distinct,
       CAST((1000 * COUNT(DISTINCT word)) // COUNT(*) AS BIGINT) AS ttr_milli
FROM words
GROUP BY source
ORDER BY source
"""
