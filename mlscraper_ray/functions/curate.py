"""End-to-end corpus curation: the composite pipeline a training-data
engineer actually runs — language filter -> quality gate -> exact
dedup -> deterministic downsample — expressed as ONE streaming pass
plus one slim bucketed aggregate.

Plan shape (100 TB-ready):
1. ``map_batches`` computes langid + quality + content hash per batch
   and FILTERS there — rejected rows never leave the task, text never
   crosses a shuffle (only the slim (hash, doc_id, stats) survivors);
2. exact dedup = coarse-bucket aggregate on the content hash, keeping
   the minimum doc_id (see functions/bucketed.py for why native
   high-cardinality groupby is avoided);
3. deterministic md5(doc_id)-mod sampling — worker-count-stable, the
   same rows survive on any cluster.

All arithmetic is integer (floor division), so CURATE_CORPUS_SQL
reproduces the output bit-for-bit.
"""
from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa
import ray
import ray.data

from mlscraper_ray.functions import broadcast
from mlscraper_ray.functions.broadcast import cached_object

from mlscraper_ray.functions.bucketed import bucketed_aggregate, co_partition
from mlscraper_ray.functions.sinks import all_shards_done, crc32_shard, write_resumable
from mlscraper_ray.functions.textstats import _LANGID, _QUALITY, _sql_stopword_list
from mlscraper_ray.functions.tables import finish, md5_number_lower, read_table


def _feat_filter_fn(min_quality_x10: int):
    """Streaming filter kernel: langid + quality + content hash per
    batch, rejected rows never leave the task (text never crosses a
    shuffle — only slim (h, doc_id, stats) rows survive)."""

    def feat_filter(batch: pd.DataFrame) -> pd.DataFrame:
        q = _QUALITY(batch)
        lang = _LANGID(batch)["lang_pred"]
        keep = (lang == "en").to_numpy() & (q["quality_x10"] >= min_quality_x10).to_numpy()
        out = pd.DataFrame(
            {
                "h": [hashlib.md5(t.encode()).hexdigest() for t in batch["text"]],
                "doc_id": q["doc_id"],
                "n_tokens": q["n_tokens"],
                "quality_x10": q["quality_x10"],
            }
        )
        return out[keep]

    return feat_filter


_SURVIVOR_COLS = ("doc_id", "n_tokens", "quality_x10", "n_dups")


def _sample_fn(sample_pct: int):
    """Deterministic md5(doc_id)-mod downsample kernel —
    worker-count-stable, the same rows survive on any cluster. Keeps
    the survivor columns plus any ``__`` routing column."""

    def sample(df: pd.DataFrame) -> pd.DataFrame:
        mask = [md5_number_lower(str(d)) % 100 < sample_pct for d in df["doc_id"]]
        out = df[pd.Series(mask, index=df.index)]
        keep = [*_SURVIVOR_COLS, *(c for c in out.columns if c.startswith("__"))]
        return out[keep].astype(dict.fromkeys(_SURVIVOR_COLS, "int64"))

    return sample


_CURATE_AGGS = {
    "doc_id": ("doc_id", "min"),
    "n_tokens": ("n_tokens", "min"),
    "quality_x10": ("quality_x10", "min"),
    "n_dups": ("doc_id", "count"),
}


def curate_survivors_ds(
    sf_dir: str, min_quality_x10: int = 500, sample_pct: int = 50
) -> ray.data.Dataset:
    """The curation pipeline as a streaming Dataset of slim survivor
    rows (doc_id, n_tokens, quality_x10, n_dups) — the composition
    point for downstream stages (packing.corpus_to_training consumes
    this directly)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    survivors = ds.map_batches(_feat_filter_fn(min_quality_x10), batch_format="pandas")
    deduped = bucketed_aggregate(survivors, ["h"], _CURATE_AGGS)
    return deduped.map_batches(_sample_fn(sample_pct), batch_format="pandas")


def curate_corpus(sf_dir: str, min_quality_x10: int = 500, sample_pct: int = 50) -> pa.Table:
    """Curated-corpus manifest: (doc_id, n_tokens, quality_x10, n_dups)
    for the surviving documents."""
    out = curate_survivors_ds(sf_dir, min_quality_x10, sample_pct).to_pandas()
    return finish(
        out,
        "doc_id",
        empty=pa.schema({c: pa.int64() for c in ("doc_id", "n_tokens", "quality_x10", "n_dups")}),
    )


def curate_corpus_to_parquet(
    sf_dir: str,
    out_dir: str,
    n_shards: int = 16,
    min_quality_x10: int = 500,
    sample_pct: int = 50,
) -> dict:
    """Production sink twin of :func:`curate_corpus`, RESUMABLE
    (functions/sinks.py): the dedup aggregate and the sample run once
    over the corpus and each survivor lands in the crc32 shard of its
    content hash ``h`` (carried as the unwritten ``__h`` routing
    column). Shard union == the oracle-checked contract table
    (tested)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    survivors = ds.map_batches(_feat_filter_fn(min_quality_x10), batch_format="pandas")
    deduped = bucketed_aggregate(survivors, ["h"], {**_CURATE_AGGS, "__h": ("h", "min")})
    return write_resumable(
        deduped.map_batches(_sample_fn(sample_pct), batch_format="pandas"),
        crc32_shard("__h", n_shards),
        out_dir,
        n_shards,
    )


def curate_corpus_sql(min_quality_x10: int = 500, sample_pct: int = 50) -> str:
    return f"""
WITH base AS (
    SELECT doc_id, text,
           CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                ELSE string_split_regex(trim(text), '\\s+') END AS tk
    FROM documents
),
q AS (
    SELECT doc_id, text, len(tk) AS n_tokens,
           (100 * length(regexp_replace(text, '[^a-zA-Z]+', '', 'g')))
               // greatest(1, length(text)) AS alpha_pct,
           (100 * len(list_filter(tk, x -> list_contains({_sql_stopword_list('en')}, lower(x)))))
               // greatest(1, len(tk)) AS stopword_pct,
           list_transform(tk[1:500], x -> lower(x)) AS ltk
    FROM base
),
v AS (
    SELECT doc_id, text, n_tokens,
           least(100, n_tokens // 2) * 4 + alpha_pct * 4 + least(stopword_pct, 40) * 5
               AS quality_x10,
           len(list_filter(ltk, x -> list_contains({_sql_stopword_list('en')}, x))) AS en_v,
           len(list_filter(ltk, x -> list_contains({_sql_stopword_list('de')}, x))) AS de_v,
           len(list_filter(ltk, x -> list_contains({_sql_stopword_list('fr')}, x))) AS fr_v
    FROM q
),
kept AS (
    SELECT * FROM v
    WHERE quality_x10 >= {min_quality_x10}
      AND en_v > 0 AND en_v >= de_v AND en_v >= fr_v
),
dd AS (
    SELECT md5(text) AS h, MIN(doc_id) AS doc_id, MIN(n_tokens) AS n_tokens,
           MIN(quality_x10) AS quality_x10, COUNT(*) AS n_dups
    FROM kept GROUP BY md5(text)
)
SELECT doc_id, n_tokens, quality_x10, n_dups
FROM dd
WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < {sample_pct}
ORDER BY doc_id
"""


# default-parameter constant kept for import compatibility
CURATE_CORPUS_SQL = curate_corpus_sql()


def decontaminate_survivors(
    sf_dir: str,
    holdout_mod: int = 97,
    n: int = 3,
) -> ray.data.Dataset:
    """Benchmark DECONTAMINATION: drop every training document that
    shares ANY word n-gram with the held-out set — the standard
    test-set-leakage guard a training-data pipeline runs before
    tokenization. The held-out set here is the deterministic slice
    ``doc_id % holdout_mod == 0`` (a stand-in for an external
    benchmark table; the operator shape is identical — NOTE that
    unlike a true fixed benchmark this stand-in SCALES with the
    corpus, which is exactly why the path guard below exists).

    Two screening paths, picked by ``broadcast.pull`` on the
    per-batch-distinct held-out gram table:

    - pulled: grams collected once, ``ray.put`` once, every training
      document screened inside ``map_batches`` — one streaming pass,
      no shuffle, text never leaves its task.
    - too large to pull: bucketed EXISTS anti-join on the gram STRING (exact, no
      hash collisions): training docs explode to slim distinct
      (gram, doc_id, n_grams) rows, holdout grams ride the same
      gram-hash buckets, per-bucket membership is one vectorized
      ``isin``, and per-doc contamination flags combine through the
      coarse-bucket aggregate — nothing driver-sized anywhere.

    Returns the surviving (doc_id, n_grams) rows as a streaming
    Dataset; both paths are bit-identical (regression-tested by
    forcing the bucketed path). :func:`decontaminate` is the
    driver-table wrapper, :func:`decontaminate_to_parquet` the
    resumable production sink."""
    from mlscraper_ray.functions.dedup import word_gram_set

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def holdout_grams(batch: pa.Table) -> pa.Table:
        grams: set[str] = set()
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            if doc_id % holdout_mod == 0:
                grams.update(word_gram_set(text, n))
        return pa.table({"gram": pa.array(sorted(grams), pa.string())})

    # materialized once: the path choice and the chosen path both
    # consume it without re-running the gram extraction
    ho_rows = ds.map_batches(holdout_grams, batch_format="pyarrow").materialize()

    if pulled := broadcast.pull(ho_rows):
        ho = set(pulled[0]["gram"])
        ho_ref = ray.put(ho)

        def screen(batch: pa.Table) -> pa.Table:
            probes = cached_object(ho_ref)
            ids, counts = [], []
            for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
                if doc_id % holdout_mod == 0:
                    continue  # held-out docs are not training rows
                gset = word_gram_set(text, n)
                if gset & probes:
                    continue  # contaminated: shares an n-gram with holdout
                ids.append(doc_id)
                counts.append(len(gset))
            return pa.table({"doc_id": pa.array(ids, pa.int64()), "n_grams": pa.array(counts, pa.int64())})

        survivors = ds.map_batches(screen, batch_format="pyarrow")
    else:
        def explode_training(batch: pa.Table) -> pa.Table:
            grams, ids, ngrams = [], [], []
            for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
                if doc_id % holdout_mod == 0:
                    continue
                gset = word_gram_set(text, n)
                if not gset:
                    # gram-less doc: one carrier row so it still reaches
                    # the output ("" is never a holdout gram — grams are
                    # non-empty word joins)
                    gset = {""}
                grams.extend(gset)
                ids.extend([doc_id] * len(gset))
                ngrams.extend([len(gset) if gset != {""} else 0] * len(gset))
            return pa.table(
                {
                    "gram": pa.array(grams, pa.string()),
                    "doc_id": pa.array(ids, pa.int64()),
                    "n_grams": pa.array(ngrams, pa.int64()),
                }
            )

        def flag_bucket(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
            t = sides["t"]
            flag = t["gram"].isin(set(sides["h"]["gram"])).astype("int64")
            return (
                pd.DataFrame({"doc_id": t["doc_id"], "contam": flag, "n_grams": t["n_grams"]})
                .groupby("doc_id", sort=False)
                .agg(contam=("contam", "max"), n_grams=("n_grams", "first"))
                .reset_index()
            )

        flags = co_partition(
            {"t": ds.map_batches(explode_training, batch_format="pyarrow"), "h": ho_rows},
            ["gram"],
            flag_bucket,
        )
        combined = bucketed_aggregate(
            flags, ["doc_id"], {"contam": ("contam", "max"), "n_grams": ("n_grams", "max")}
        )
        survivors = combined.map_batches(
            lambda df: df.loc[df["contam"] == 0, ["doc_id", "n_grams"]].astype("int64"),
            batch_format="pandas",
        )

    return survivors


def decontaminate(
    sf_dir: str,
    holdout_mod: int = 97,
    n: int = 3,
) -> pa.Table:
    """Driver-table wrapper over :func:`decontaminate_survivors` (the
    driver-compare contract wants a sorted Arrow table)."""
    survivors = decontaminate_survivors(sf_dir, holdout_mod=holdout_mod, n=n)
    return finish(
        survivors.to_pandas(),
        "doc_id",
        empty=pa.schema({"doc_id": pa.int64(), "n_grams": pa.int64()}),
    )


def decontaminate_to_parquet(
    sf_dir: str,
    out_dir: str,
    n_shards: int = 16,
    holdout_mod: int = 97,
    n: int = 3,
) -> dict:
    """Production sink twin of :func:`decontaminate`, RESUMABLE
    (functions/sinks.py): the (doc_id, n_grams) survivors sharded by
    crc32(doc_id), so output is stable under any worker count."""
    if all_shards_done(out_dir, n_shards):  # the holdout pass runs eagerly
        return {"written": 0, "skipped": n_shards}
    return write_resumable(
        decontaminate_survivors(sf_dir, holdout_mod=holdout_mod, n=n),
        crc32_shard("doc_id", n_shards),
        out_dir,
        n_shards,
    )


DECONTAMINATE_SQL = """
WITH words AS (
    SELECT doc_id,
           list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
    FROM documents
),
grams AS (
    SELECT DISTINCT doc_id,
           w[i] || ' ' || w[i + 1] || ' ' || w[i + 2] AS gram
    FROM words, UNNEST(generate_series(1, len(w) - 2)) AS t(i)
    WHERE len(w) >= 3
    UNION
    SELECT DISTINCT doc_id, array_to_string(w, ' ') AS gram
    FROM words WHERE len(w) BETWEEN 1 AND 2
),
holdout AS (SELECT DISTINCT gram FROM grams WHERE doc_id % 97 = 0),
contaminated AS (
    SELECT DISTINCT g.doc_id FROM grams g JOIN holdout h USING (gram)
    WHERE g.doc_id % 97 != 0
),
cnt AS (SELECT doc_id, COUNT(*) AS n_grams FROM grams GROUP BY doc_id)
SELECT d.doc_id, COALESCE(c.n_grams, 0) AS n_grams
FROM documents d LEFT JOIN cnt c ON d.doc_id = c.doc_id
WHERE d.doc_id % 97 != 0
  AND d.doc_id NOT IN (SELECT doc_id FROM contaminated)
ORDER BY d.doc_id
"""


def _dsir_feats(text: str, cache: dict, n_buckets: int):
    """Hashed unigram+bigram feature ids of one doc (one id per
    OCCURRENCE). Bucket = md5_number_lower(gram) % n_buckets — the
    same lower-64 md5 integer DuckDB exposes, so the SQL oracle
    recomputes identical buckets (the HLL op's trick,
    textstats.py:663)."""
    words = (text or "").split()
    grams = words + [f"{a} {b}" for a, b in zip(words, words[1:])]
    out = []
    for g in grams:
        f = cache.get(g)
        if f is None:
            f = md5_number_lower(g) % n_buckets
            cache[g] = f
        out.append(f)
    return out


def dsir_select(
    sf_dir: str,
    target_source: str = "src0",
    top_denom: int = 10,
    n_buckets: int = 256,
) -> pa.Table:
    """Data Selection via Importance Resampling (DSIR, Xie et al.
    2023): score every document by how much more likely its hashed
    n-gram features are under a TARGET distribution (here: the
    ``target_source`` collection) than under the raw corpus, then keep
    the top 1/``top_denom`` of the corpus by that weight — the
    standard recipe for skewing a web-scale crawl toward a
    high-quality domain.

    Integer-exact formulation (so the whole pipeline SQL-oracles):
    per feature bucket f, lambda(f) = surp_raw(f) - surp_target(f)
    with surp(T, c) = bit_length(T // (c+1)) - 1 (the repo's floor
    log2 with add-one smoothing); per doc, weight = sum of lambda over
    the doc's feature OCCURRENCES. Docs with no tokens have no
    features and never enter the ranking (both sides).

    Distributed shape:
    1. one counting pass: per-batch ``np.bincount`` partials over the
       ``n_buckets`` feature space (raw + target), merged by the
       coarse-bucket aggregate — only 256-row partials ever move;
    2. lambda (256 ints) computed driver-side, broadcast once;
    3. one scoring pass emitting slim (doc_id, weight) rows;
    4. distributed sort by (weight DESC, doc_id) + limit — at 10^10
       docs the top-N boundary would come from a weight histogram
       (weights are small bounded ints — the event_value_percentiles
       idiom) instead of a full sort; at corpus scales the sort of
       two-int rows is the simpler exact path."""
    import numpy as np

    docs = read_table(sf_dir, "documents", ["doc_id", "source", "text"])
    n_docs = docs.count()  # parquet metadata
    n_keep = n_docs // top_denom
    if n_keep == 0:
        # empty-Dataset to_pandas() drops columns (repo-known hazard)
        return pa.table({"doc_id": pa.array([], pa.int64()), "weight": pa.array([], pa.int64())})

    def count_partials(batch: pd.DataFrame) -> pd.DataFrame:
        cache: dict = {}
        cr = np.zeros(n_buckets, dtype=np.int64)
        ct = np.zeros(n_buckets, dtype=np.int64)
        for src, text in zip(batch["source"], batch["text"]):
            f = _dsir_feats(text, cache, n_buckets)
            if not f:
                continue
            c = np.bincount(f, minlength=n_buckets)
            cr += c
            if src == target_source:
                ct += c
        return pd.DataFrame(
            {"f": np.arange(n_buckets, dtype=np.int64), "cr": cr, "ct": ct}
        )

    counts = (
        bucketed_aggregate(
            docs.map_batches(count_partials, batch_format="pandas"),
            ["f"],
            {"cr": ("cr", "sum"), "ct": ("ct", "sum")},
        )
        .to_pandas()  # bounded: n_buckets rows
        .set_index("f")
        .reindex(range(n_buckets), fill_value=0)
    )
    t_raw = int(counts["cr"].sum())
    t_tgt = int(counts["ct"].sum())

    def surp(T: int, c: "pd.Series") -> "pd.Series":
        return (T // (c + 1)).apply(lambda x: int(x).bit_length() - 1)

    lam = (surp(t_raw, counts["cr"]) - surp(t_tgt, counts["ct"])).to_numpy(dtype=np.int64)
    lam_ref = ray.put(lam)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        lv = ray.get(lam_ref)
        cache: dict = {}
        ids, ws = [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            f = _dsir_feats(text, cache, n_buckets)
            if not f:
                continue
            ids.append(doc_id)
            ws.append(int(lv[f].sum()))
        return pd.DataFrame(
            {"doc_id": pd.Series(ids, dtype="int64"), "weight": pd.Series(ws, dtype="int64")}
        )

    from mlscraper_ray.functions.bucketed import coalesce_blocks

    scored = coalesce_blocks(docs.map_batches(score, batch_format="pandas"), n_docs)
    top = (
        scored.sort(["weight", "doc_id"], descending=[True, False])
        .limit(n_keep)
        .to_pandas()
    )
    return finish(top, columns=["doc_id", "weight"])


def dsir_select_sql(
    target_source: str = "src0", top_denom: int = 10, n_buckets: int = 256
) -> str:
    """Exhaustive SQL mirror of :func:`dsir_select`: same md5 feature
    buckets, same integer floor-log2 lambda, same top-1/denom cut."""
    blen = "length(ltrim(bin(CAST({x} AS BIGINT)), '0')) - 1"
    s_raw = blen.format(x="(SELECT tr FROM tot) // (COALESCE(cr.c, 0) + 1)")
    s_tgt = blen.format(x="(SELECT tt FROM tot) // (COALESCE(ct.c, 0) + 1)")
    return f"""
WITH words AS (
    SELECT doc_id, source,
           list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
    FROM documents
),
feats AS (
    SELECT doc_id, source,
           CAST(md5_number_lower(w[CAST(i AS INTEGER)]) % {n_buckets} AS BIGINT) AS f
    FROM words, UNNEST(generate_series(1, len(w))) AS t(i)
    UNION ALL
    SELECT doc_id, source,
           CAST(md5_number_lower(w[CAST(i AS INTEGER)] || ' ' || w[CAST(i AS INTEGER) + 1]) % {n_buckets} AS BIGINT) AS f
    FROM words, UNNEST(generate_series(1, len(w) - 1)) AS t(i)
    WHERE len(w) >= 2
),
cnt_r AS (SELECT f, COUNT(*) AS c FROM feats GROUP BY f),
cnt_t AS (SELECT f, COUNT(*) AS c FROM feats WHERE source = '{target_source}' GROUP BY f),
tot AS (
    SELECT (SELECT COUNT(*) FROM feats) AS tr,
           (SELECT COUNT(*) FROM feats WHERE source = '{target_source}') AS tt
),
lam AS (
    SELECT g.f, ({s_raw}) - ({s_tgt}) AS l
    FROM range({n_buckets}) g(f)
    LEFT JOIN cnt_r cr ON cr.f = g.f
    LEFT JOIN cnt_t ct ON ct.f = g.f
)
SELECT fe.doc_id, CAST(SUM(lam.l) AS BIGINT) AS weight
FROM feats fe JOIN lam ON lam.f = fe.f
GROUP BY fe.doc_id
QUALIFY ROW_NUMBER() OVER (ORDER BY weight DESC, fe.doc_id)
        <= (SELECT COUNT(*) FROM documents) // {top_denom}
ORDER BY weight DESC, doc_id
"""
