"""Deduplication operators over document tables.

All are shaped for 100 TB: per-batch vectorized signature computation
(``map_batches``), signature-keyed shuffles on SLIM rows (doc_id +
signature, never full text), and pair verification that rejoins text
only for the (tiny) candidate set.

- exact: content-hash groupby (hash column, not text, crosses the wire)
- MinHash + LSH: shingle -> k minhashes -> b bands -> band-bucket
  groupby -> candidate pairs -> exact-Jaccard verify
- SimHash: 64-bit simhash; near-dups via 4x16-bit band buckets
  (Hamming <= 3 guarantee by pigeonhole over candidate checks)
- n-gram Jaccard: EXACT similarity join via an inverted gram index
  (any pair with jaccard > 0 shares a gram, so gram-groupby candidate
  generation is complete); intersections are summed with a
  groupby-count, never by materializing gram sets on the driver
"""
from __future__ import annotations

import hashlib
import os
import struct
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from mlscraper_ray.functions import broadcast
from mlscraper_ray.functions.broadcast import cached_object

from mlscraper_ray.functions.bucketed import bucketed_aggregate, co_partition
from mlscraper_ray.functions.sinks import crc32_shard, shard_files, write_resumable
from mlscraper_ray.functions.tables import finish, md5_number_lower, read_table

# -- exact dedup ---------------------------------------------------------


def exact_dedup_ds(sf_dir: str) -> ray.data.Dataset:
    """Streaming core of :func:`exact_dedup`: (h, doc_id, n_dups) per
    distinct md5(text), through the coarse-bucket aggregate (the
    distinct-hash cardinality scales with the corpus, see
    functions/bucketed.py)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def add_hash(batch: pa.Table) -> pa.Table:
        hashes = [hashlib.md5(t.encode()).hexdigest() for t in batch["text"].to_pylist()]
        return pa.table({"h": pa.array(hashes, pa.string()), "doc_id": batch["doc_id"]})

    return bucketed_aggregate(
        ds.map_batches(add_hash, batch_format="pyarrow"),
        ["h"],
        {"doc_id": ("doc_id", "min"), "n_dups": ("doc_id", "count")},
    )


def exact_dedup(sf_dir: str) -> pa.Table:
    """Exact duplicate groups by md5(text): one row per distinct text
    with the surviving (minimum) doc_id and the duplicate count."""
    return finish(exact_dedup_ds(sf_dir).to_pandas(), "h", dtypes={"n_dups": "int64"})


EXACT_DEDUP_SQL = """
SELECT md5(text) AS h, MIN(doc_id) AS doc_id, COUNT(*) AS n_dups
FROM documents
GROUP BY md5(text)
ORDER BY h
"""


def exact_dedup_to_parquet(sf_dir: str, out_dir: str, n_shards: int = 16) -> dict:
    """Production sink twin of :func:`exact_dedup`, RESUMABLE
    (functions/sinks.py): the manifest is sharded by crc32(h), so
    every dedup group sits in one shard. A failed or killed run
    re-invoked with the same ``out_dir`` rewrites only unfinished
    shards. Returns {"written": n, "skipped": n}."""
    return write_resumable(exact_dedup_ds(sf_dir), crc32_shard("h", n_shards), out_dir, n_shards)


# -- minhash + LSH -------------------------------------------------------

_MERSENNE = (1 << 61) - 1


def _perm_params(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


def word_shingles(text: str, n: int = 3) -> set[int]:
    words = text.split()
    if len(words) < n:
        return {zlib.crc32(" ".join(words).encode())} if words else set()
    return {zlib.crc32(" ".join(words[i : i + n]).encode()) for i in range(len(words) - n + 1)}


def word_gram_set(text: str, n: int = 3) -> set[str]:
    """Distinct word n-grams as STRINGS (no hash collisions) — the
    exact-verify counterpart of :func:`word_shingles`, term-for-term
    reproducible in SQL (see MINHASH_DEDUP_SQL)."""
    words = text.split()
    if not words:
        return set()
    if len(words) < n:
        return {" ".join(words)}
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


def minhash_signature(shingles: set[int], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if not shingles:
        return np.full(len(a), np.iinfo(np.uint64).max, dtype=np.uint64)
    vals = np.fromiter(shingles, dtype=np.uint64, count=len(shingles))
    # (a * x + b) mod p, vectorized over (perm, shingle)
    prods = (a[:, None] * vals[None, :] + b[:, None]) % _MERSENNE
    return prods.min(axis=1)


class MinHashStage:
    """Actor-pool stage: doc -> (band, bucket, doc_id) rows. Candidate
    pairs share a full (band, bucket), so the pair shuffle is
    ``co_partition`` on those two keys (functions/bucketed.py): each
    shuffle bucket holds O(corpus * bands / buckets) slim rows, never
    the whole corpus's rows for one band."""

    def __init__(
        self,
        num_perm: int = 128,
        bands: int = 32,
        shingle_n: int = 3,
        seed: int = 42,
    ):
        self.a, self.b = _perm_params(num_perm, seed)
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.shingle_n = shingle_n

    def __call__(self, batch: pa.Table) -> pa.Table:
        band_ids, buckets, doc_ids = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            sig = minhash_signature(word_shingles(text, self.shingle_n), self.a, self.b)
            for band in range(self.bands):
                chunk = sig[band * self.rows_per_band : (band + 1) * self.rows_per_band]
                digest = hashlib.blake2b(chunk.tobytes(), digest_size=8).digest()
                band_ids.append(band)
                buckets.append(struct.unpack("<q", digest)[0])
                doc_ids.append(doc_id)
        return pa.table(
            {
                "band": pa.array(band_ids, pa.int32()),
                "bucket": pa.array(buckets, pa.int64()),
                "doc_id": pa.array(doc_ids, pa.int64()),
            }
        )


# Packed pair key: doc_a * 2^31 + doc_b in ONE int64, so pair dedup
# is a scalar coarse-bucket aggregate. ASSUMES 0 <= doc_id < 2^31 —
# the pack helpers ASSERT it per batch (cheap vectorized max/min), so
# a 64-bit doc id fails LOUD instead of silently corrupting pair keys.
# Widen the shift before feeding larger ids. Shared by the minhash,
# simhash and ngram pair pipelines.
_PAIR_BASE = 1 << 31


def _check_pair_ids(lo, hi) -> None:
    if lo is not None and (lo < 0 or hi >= _PAIR_BASE):
        raise ValueError(
            f"doc_id out of packable range [0, 2^31): min={lo}, max={hi}; "
            "widen _PAIR_BASE (functions/dedup.py) for 64-bit doc ids"
        )


def _pack_pairs_pd(doc_a: pd.Series, doc_b: pd.Series) -> pd.Series:
    a = doc_a.astype("int64")
    b = doc_b.astype("int64")
    if len(a):
        _check_pair_ids(min(a.min(), b.min()), max(a.max(), b.max()))
    return a * _PAIR_BASE + b


def _pack_pairs_arrow(doc_a, doc_b):
    mm_a = pc.min_max(doc_a)
    mm_b = pc.min_max(doc_b)
    if mm_a["min"].is_valid:
        _check_pair_ids(
            min(mm_a["min"].as_py(), mm_b["min"].as_py()),
            max(mm_a["max"].as_py(), mm_b["max"].as_py()),
        )
    return pc.add(pc.multiply(doc_a, pa.scalar(_PAIR_BASE, pa.int64())), doc_b)


def _unpack_pairs_arrow(keys) -> tuple:
    return (
        pc.cast(pc.divide(keys, pa.scalar(_PAIR_BASE, pa.int64())), pa.int64()),
        pc.cast(pc.bit_wise_and(keys, pa.scalar(_PAIR_BASE - 1, pa.int64())), pa.int64()),
    )


# worker-process-global stage cache: stateless tasks skip actor-pool
# startup on short jobs while still amortizing the permutation setup
_MINHASH_CACHE: dict = {}


def minhash_stage_task(batch: pa.Table, *, num_perm: int, bands: int, shingle_n: int, seed: int) -> pa.Table:
    key = (num_perm, bands, shingle_n, seed)
    stage = _MINHASH_CACHE.get(key)
    if stage is None:
        if len(_MINHASH_CACHE) > 4:
            _MINHASH_CACHE.clear()
        stage = _MINHASH_CACHE[key] = MinHashStage(num_perm, bands, shingle_n, seed)
    return stage(batch)


def _emit_pairs_by_key(
    g: pd.DataFrame, key: str | list[str], max_group_docs: int | None = None
) -> pd.DataFrame:
    """Pairs of doc_ids sharing ``key`` (one column or a composite),
    vectorized pre-filter: only keys held by >1 distinct doc reach the
    (tiny) Python pair loop.

    ``max_group_docs`` is the hot-bucket guard: a degenerate key held
    by more than this many docs (e.g. thousands of empty or identical
    documents sharing one signature) would emit O(d^2) pairs; instead
    its docs are collapsed to GROUP-REPRESENTATIVE pairs (min doc_id
    vs each other doc — linear, connectivity-preserving for dedup);
    None keeps exact pairs."""
    keys = [key] if isinstance(key, str) else list(key)
    d = g.drop_duplicates(keys + ["doc_id"])
    d = d[d.groupby(keys, sort=False)["doc_id"].transform("size") > 1]
    out_a, out_b = [], []
    for _, sub in d.groupby(keys, sort=False):
        ids = sorted(sub["doc_id"].tolist())
        if max_group_docs is not None and len(ids) > max_group_docs:
            rep = ids[0]
            out_a.extend([rep] * (len(ids) - 1))
            out_b.extend(ids[1:])
            continue
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                out_a.append(ids[i])
                out_b.append(ids[j])
    return pd.DataFrame({"doc_a": out_a, "doc_b": out_b})


def minhash_candidate_pairs(
    ds_docs: ray.data.Dataset,
    num_perm=128,
    bands=32,
    shingle_n=3,
    seed=42,
    max_bucket_docs: int = 1024,
) -> ray.data.Dataset:
    """Deduplicated LSH candidate pairs as a DATASET — nothing
    pair-sized ever lands on the driver.

    Two shuffle rounds of SLIM rows, both with bounded Ray-visible
    group cardinality (never a whole-corpus group):

    1. (band, bucket, doc_id) rows from :class:`MinHashStage`,
       co-partitioned on (band, bucket); per-(band, bucket) pair
       emission runs vectorized in pandas inside each shuffle bucket,
       with the ``max_bucket_docs`` degenerate-bucket guard
       (see :func:`_emit_pairs_by_key`).
    2. cross-band duplicate pairs removed DISTRIBUTED: the pair packed
       into one int64 key (doc_ids < 2^31), deduped with the
       coarse-bucket aggregate idiom — the same pattern as
       :func:`ngram_jaccard_pairs`, never a driver
       ``drop_duplicates``."""
    sigs = ds_docs.map_batches(
        minhash_stage_task,
        fn_kwargs={"num_perm": num_perm, "bands": bands, "shingle_n": shingle_n, "seed": seed},
        batch_format="pyarrow",
    )

    def emit(g: pd.DataFrame) -> pd.DataFrame:
        p = _emit_pairs_by_key(g, ["band", "bucket"], max_group_docs=max_bucket_docs)
        p["pair_key"] = _pack_pairs_pd(p["doc_a"], p["doc_b"])
        return p[["pair_key"]]

    pair_keys = co_partition(sigs, ["band", "bucket"], emit)
    deduped = bucketed_aggregate(pair_keys, ["pair_key"], {"n_bands": ("pair_key", "count")})

    def unpack(batch: pa.Table) -> pa.Table:
        doc_a, doc_b = _unpack_pairs_arrow(batch["pair_key"])
        return pa.table({"doc_a": doc_a, "doc_b": doc_b})

    return deduped.map_batches(unpack, batch_format="pyarrow")


def _jaccard_pct_rows(pairs: list[tuple[int, int]], texts: dict[int, str], threshold_pct: int) -> pa.Table:
    """Exact integer Jaccard percent over string-gram sets; floor
    division keeps the Ray and SQL sides bit-identical."""
    out_a, out_b, out_j = [], [], []
    gram_cache: dict[int, set[str]] = {}
    for a_id, b_id in pairs:
        sa = gram_cache.get(a_id)
        if sa is None:
            sa = gram_cache[a_id] = word_gram_set(texts[a_id])
        sb = gram_cache.get(b_id)
        if sb is None:
            sb = gram_cache[b_id] = word_gram_set(texts[b_id])
        inter = len(sa & sb)
        union = len(sa) + len(sb) - inter
        jp = (100 * inter) // union if union else 0
        if jp >= threshold_pct:
            out_a.append(a_id)
            out_b.append(b_id)
            out_j.append(jp)
    return pa.table(
        {
            "doc_a": pa.array(out_a, pa.int64()),
            "doc_b": pa.array(out_b, pa.int64()),
            "jaccard_pct": pa.array(out_j, pa.int64()),
        }
    )


_EMPTY_PAIRS = pa.table(
    {
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64()),
        "jaccard_pct": pa.array([], pa.int64()),
    }
)


def minhash_verified_pairs(
    sf_dir: str,
    threshold_pct: int = 70,
    max_bucket_docs: int | None = 1024,
) -> ray.data.Dataset:
    """Near-duplicate pairs on documents as a streaming Dataset
    (schema ``doc_a, doc_b, jaccard_pct`` int64): MinHash-LSH
    candidates, then exact word-3-gram Jaccard verification.
    :func:`minhash_dedup` is the driver-table wrapper; downstream
    operators (connected components, canonical-doc selection in
    ``functions/components.py``) consume this Dataset form so pair
    rows never have to fit on the driver.

    EXACTNESS CAVEAT: ``max_bucket_docs`` (the degenerate-bucket
    guard, see :func:`_emit_pairs_by_key`) collapses any (band,
    bucket) held by more docs than the cap to linear representative
    pairs — on a corpus with >cap IDENTICAL documents the output is
    the connectivity-preserving star, not the quadratic clique the
    exhaustive oracle emits. Pass ``max_bucket_docs=None`` to keep
    the oracle equality unconditionally (and accept O(d^2) emission
    on such corpora); the default leaves every normal corpus exact.

    Verification uses string-gram sets (no hash collisions) and integer
    floor percent, so the output equals the exhaustive similarity join
    (MINHASH_DEDUP_SQL) whenever LSH recall is total — which the 32x4
    banding makes overwhelmingly likely even at the 0.7 threshold
    boundary (miss prob (1-j^4)^32: ~1.5e-4 at j=0.70, ~5e-8 at j=0.8,
    ~1e-14 at j=0.9; the corpus's true pairs all sit at >=0.80),
    verified against DuckDB at sf0.001/0.01/0.1.

    Two verify paths, picked by two ``broadcast.pull`` calls (the
    candidate table is a Dataset throughout — nothing corpus-scaled
    touches the driver):
    - the candidate pairs pull, and then the candidates' texts,
      filtered AT THE READ (is_in predicate, only candidate rows leave
      storage), pull too: the texts broadcast once via ``ray.put``;
      pair loop in map_batches.
    - either is too large to pull: bucketed cogroup joins attach
      text_a/text_b to the pair rows — no driver-sized structure
      anywhere.
    """
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    # slim (doc_a, doc_b) rows; materialized once so the path choice
    # and the verify pass don't re-run the LSH
    candidates = minhash_candidate_pairs(docs, max_bucket_docs=max_bucket_docs).materialize()
    return _verify_candidate_pairs(sf_dir, docs, candidates, threshold_pct)


def _verify_candidate_pairs(
    sf_dir: str,
    docs: ray.data.Dataset,
    candidates: ray.data.Dataset,
    threshold_pct: int,
) -> ray.data.Dataset:
    """Exact word-3-gram Jaccard verification of a candidate (doc_a,
    doc_b) Dataset — the size-guarded verify stage shared by
    :func:`minhash_verified_pairs` and the incremental cross-snapshot
    variant. See minhash_verified_pairs' docstring for the two paths."""
    from mlscraper_ray.functions.joins import cogroup_join

    if candidates.count() == 0:
        return ray.data.from_arrow(_EMPTY_PAIRS)

    # the candidates' texts are a pull of their own: they can outweigh
    # the pair rows many times over
    pulled_texts = None
    if pulled := broadcast.pull(candidates):
        cand_pdf = pulled[0]
        cand_ids = sorted(set(cand_pdf["doc_a"]) | set(cand_pdf["doc_b"]))
        cand_arr = pa.array(cand_ids, pa.int64())

        def keep_candidates(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch["doc_id"], value_set=cand_arr))

        pulled_texts = broadcast.pull(
            read_table(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(keep_candidates, batch_format="pyarrow")
            .materialize()
        )

    if pulled_texts:
        (texts_tbl,) = pulled_texts
        texts_ref = ray.put(dict(zip(texts_tbl["doc_id"], texts_tbl["text"])))

        def verify(batch: pa.Table) -> pa.Table:
            texts = cached_object(texts_ref)
            return _jaccard_pct_rows(
                list(zip(batch["doc_a"].to_pylist(), batch["doc_b"].to_pylist())), texts, threshold_pct
            )

        verified = candidates.map_batches(verify, batch_format="pyarrow")
    else:
        # bucketed fallback: two cogroup joins rejoin text to the pair
        # rows; text crosses the shuffle only for candidate docs
        cand_ds = candidates

        def a_as_key(batch: pa.Table) -> pa.Table:
            return pa.table({"doc_id": batch["doc_a"], "doc_b": batch["doc_b"]})

        texts_a = docs.map_batches(
            lambda t: pa.table({"doc_id": t["doc_id"], "text_a": t["text"]}), batch_format="pyarrow"
        )
        j1 = cogroup_join(
            cand_ds.map_batches(a_as_key, batch_format="pyarrow"),
            texts_a,
            "doc_id",
        )

        def b_as_key(batch: pa.Table) -> pa.Table:
            # doc_b came through the first join's null-padded union as
            # float64; cast back so the second join's key hash + merge
            # see int64 on both sides
            return pa.table(
                {
                    "doc_a": pc.cast(batch["doc_id"], pa.int64()),
                    "doc_id": pc.cast(batch["doc_b"], pa.int64()),
                    "text_a": batch["text_a"],
                }
            )

        texts_b = docs.map_batches(
            lambda t: pa.table({"doc_id": t["doc_id"], "text_b": t["text"]}), batch_format="pyarrow"
        )
        j2 = cogroup_join(
            j1.map_batches(b_as_key, batch_format="pyarrow"),
            texts_b,
            "doc_id",
        )

        def verify_joined(batch: pa.Table) -> pa.Table:
            out_a, out_b, out_j = [], [], []
            for a_id, b_id, ta, tb in zip(
                pc.cast(batch["doc_a"], pa.int64()).to_pylist(),
                pc.cast(batch["doc_id"], pa.int64()).to_pylist(),
                batch["text_a"].to_pylist(),
                batch["text_b"].to_pylist(),
            ):
                sa, sb = word_gram_set(ta), word_gram_set(tb)
                inter = len(sa & sb)
                union = len(sa) + len(sb) - inter
                jp = (100 * inter) // union if union else 0
                if jp >= threshold_pct:
                    out_a.append(a_id)
                    out_b.append(b_id)
                    out_j.append(jp)
            return pa.table(
                {
                    "doc_a": pa.array(out_a, pa.int64()),
                    "doc_b": pa.array(out_b, pa.int64()),
                    "jaccard_pct": pa.array(out_j, pa.int64()),
                }
            )

        verified = j2.map_batches(verify_joined, batch_format="pyarrow")

    return verified


def minhash_dedup(
    sf_dir: str,
    threshold_pct: int = 70,
    max_bucket_docs: int | None = 1024,
) -> pa.Table:
    """Driver-table wrapper over :func:`minhash_verified_pairs` (the
    driver-compare contract wants a sorted Arrow table; production
    consumers use the Dataset form)."""
    verified = minhash_verified_pairs(
        sf_dir,
        threshold_pct=threshold_pct,
        max_bucket_docs=max_bucket_docs,
    )
    out = verified.to_pandas()
    if len(out) == 0:
        return _EMPTY_PAIRS
    return finish(out, ["doc_a", "doc_b"])


def incremental_minhash_dedup(
    sf_dir: str,
    snapshot_mod: int = 2,
    threshold_pct: int = 70,
    max_bucket_docs: int | None = 1024,
) -> pa.Table:
    """Cross-SNAPSHOT incremental NEAR-dup screen — the recurring-crawl
    companion of :func:`incremental_dedup` (exact) at minhash
    resolution: a NEW-snapshot doc is flagged when it near-duplicates
    (word-3-gram Jaccard >= threshold) ANY prior-snapshot doc; output
    is each flagged new doc's best prior match (max jaccard, ties to
    the lowest prior id) as (doc_id, prior_id, jaccard_pct) sorted by
    doc_id. Prior snapshot = the deterministic ``doc_id % snapshot_mod
    == 0`` slice (same stand-in convention as incremental_dedup; a
    real deployment reads the prior crawl's persisted band buckets).

    The genuinely INCREMENTAL saving: candidate emission inside each
    (band, bucket) is CROSS-SIDE ONLY — prior x new, never
    prior x prior or new x new — so the work already paid when the
    prior snapshot was deduped is never redone (p*q pairs per bucket,
    not C(p+q, 2)). Degenerate buckets collapse to new x {min prior}
    (each new doc keeps a prior witness; identical-doc floods stay
    linear — same caveat discipline as ``max_bucket_docs`` on the
    plain pipeline). Verification reuses the size-guarded
    :func:`_verify_candidate_pairs` stage; the best-match reduce packs
    (jaccard, prior_id) into one int64 so it's a scalar coarse-bucket
    max — no driver-side pair table anywhere."""
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    sigs = docs.map_batches(
        minhash_stage_task,
        fn_kwargs={"num_perm": 128, "bands": 32, "shingle_n": 3, "seed": 42},
        batch_format="pyarrow",
    )

    def emit_cross(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["band", "bucket", "doc_id"])
        out_new, out_prior = [], []
        for _, sub in d.groupby(["band", "bucket"], sort=False):
            ids = sub["doc_id"].tolist()
            prior = sorted(i for i in ids if i % snapshot_mod == 0)
            new = sorted(i for i in ids if i % snapshot_mod != 0)
            if not prior or not new:
                continue
            if max_bucket_docs is not None and len(prior) * len(new) > max_bucket_docs:
                out_new.extend(new)
                out_prior.extend([prior[0]] * len(new))
                continue
            for n_id in new:
                for p_id in prior:
                    out_new.append(n_id)
                    out_prior.append(p_id)
        p = pd.DataFrame({"doc_a": out_new, "doc_b": out_prior})
        p["pair_key"] = _pack_pairs_pd(p["doc_a"], p["doc_b"])
        return p[["pair_key"]]

    pair_keys = co_partition(sigs, ["band", "bucket"], emit_cross)
    deduped = bucketed_aggregate(pair_keys, ["pair_key"], {"n_bands": ("pair_key", "count")})

    def unpack(batch: pa.Table) -> pa.Table:
        doc_a, doc_b = _unpack_pairs_arrow(batch["pair_key"])
        return pa.table({"doc_a": doc_a, "doc_b": doc_b})

    candidates = deduped.map_batches(unpack, batch_format="pyarrow").materialize()
    verified = _verify_candidate_pairs(sf_dir, docs, candidates, threshold_pct)

    # best prior match per new doc: pack (jaccard, inverted prior id)
    # into one int64 so the reduce is a scalar coarse-bucket MAX
    def pack_best(batch: pa.Table) -> pa.Table:
        jp = batch["jaccard_pct"].to_numpy(zero_copy_only=False).astype(np.int64)
        pb = batch["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        best = jp * np.int64(_PAIR_BASE) + (np.int64(_PAIR_BASE - 1) - pb)
        return pa.table(
            {
                "doc_id": batch["doc_a"],
                "best_key": pa.array(best),
            }
        )

    best = bucketed_aggregate(
        verified.map_batches(pack_best, batch_format="pyarrow"),
        ["doc_id"],
        {"best_key": ("best_key", "max")},
    )

    def unpack_best(df: pd.DataFrame) -> pd.DataFrame:
        k = df["best_key"].astype("int64")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "prior_id": (_PAIR_BASE - 1 - (k % _PAIR_BASE)).astype("int64"),
                "jaccard_pct": (k // _PAIR_BASE).astype("int64"),
            }
        )

    out = best.map_batches(unpack_best, batch_format="pandas").to_pandas()
    return finish(
        out,
        "doc_id",
        empty=pa.schema({"doc_id": pa.int64(), "prior_id": pa.int64(), "jaccard_pct": pa.int64()}),
    )


def incremental_minhash_dedup_sql(snapshot_mod: int = 2, threshold_pct: int = 70) -> str:
    """Exhaustive cross-snapshot oracle: every (new, prior) pair's
    exact word-3-gram Jaccard (the MINHASH_DEDUP_SQL gram model),
    threshold, then best prior match per new doc via ROW_NUMBER over
    (jaccard DESC, prior_id) — verifying the cross-side LSH recall
    AND the packed best-match reduce end to end."""
    return f"""
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
cnt AS (SELECT doc_id, COUNT(*) AS n FROM grams GROUP BY doc_id),
inter AS (
    SELECT a.doc_id AS new_id, b.doc_id AS prior_id, COUNT(*) AS i
    FROM grams a JOIN grams b USING (gram)
    WHERE a.doc_id % {snapshot_mod} != 0 AND b.doc_id % {snapshot_mod} = 0
    GROUP BY 1, 2
),
scored AS (
    SELECT new_id, prior_id,
           (100 * i) // (ca.n + cb.n - i) AS jaccard_pct
    FROM inter
    JOIN cnt ca ON ca.doc_id = new_id
    JOIN cnt cb ON cb.doc_id = prior_id
    WHERE (100 * i) // (ca.n + cb.n - i) >= {threshold_pct}
)
SELECT new_id AS doc_id, prior_id, jaccard_pct FROM (
    SELECT new_id, prior_id, jaccard_pct,
           ROW_NUMBER() OVER (PARTITION BY new_id
                              ORDER BY jaccard_pct DESC, prior_id) AS rn
    FROM scored
) WHERE rn = 1
ORDER BY doc_id
"""


# Exhaustive similarity-join oracle for the MinHash-LSH pipeline: any
# pair at floor(100*J) >= 70 must surface as an LSH candidate (32
# bands x 4 rows: miss probability (1-J^4)^32, negligible at the
# verified thresholds) and then pass the exact string-gram verify, so
# the banded pipeline's output must equal this O(n^2) join — checking
# the recall guarantee itself, like SIMHASH_PAIRS_SQL.
MINHASH_DEDUP_SQL = """
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
cnt AS (SELECT doc_id, COUNT(*) AS n FROM grams GROUP BY doc_id),
inter AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
    FROM grams a JOIN grams b USING (gram)
    WHERE a.doc_id < b.doc_id
    GROUP BY 1, 2
)
SELECT doc_a, doc_b,
       (100 * i) // (ca.n + cb.n - i) AS jaccard_pct
FROM inter
JOIN cnt ca ON ca.doc_id = doc_a
JOIN cnt cb ON cb.doc_id = doc_b
WHERE (100 * i) // (ca.n + cb.n - i) >= 70
ORDER BY doc_a, doc_b
"""


# -- n-gram Jaccard (exact similarity join) ------------------------------


def _ngram_pair_counts(
    docs: ray.data.Dataset,
    n: int,
    df_cap: int | None,
    min_grams: int | None = None,
) -> ray.data.Dataset:
    """Shared inverted-index plan of the exact n-gram similarity joins
    (Jaccard and containment): Dataset of per-pair rows ``(doc_a,
    doc_b, inter, na, nb)`` with ``doc_a < doc_b``, ``inter`` =
    |A ∩ B| over DISTINCT word n-grams, ``na``/``nb`` the docs' own
    distinct-gram counts.

    Distributed plan (no driver-side pair loop):
      1. map_batches: explode each doc to DISTINCT (gram, doc_id) rows;
      2. co_partition on gram: per-gram candidate pairs emitted
         vectorized inside each bucket — complete, since any gram
         overlap implies a shared gram — pre-counted per bucket with
         the pair packed into one int64 key;
      3. co_partition on pair_key: sum |A ∩ B| per pair (see
         functions/bucketed.py for why native high-cardinality
         aggregates are avoided).

    |A| (a doc's distinct-gram count) is known LOCALLY at explode time
    — it's len(gram_set) of that one doc — so it rides along on every
    (gram, doc_id) row and no count join (and no driver-side count
    dict) exists anywhere in the plan.

    ``df_cap`` drops grams whose document frequency exceeds the cap
    (stopword-gram pruning) — the standard 100TB-scale guard against
    quadratic pair blowup in hot groups; None keeps the join exact and
    oracle-matching. ``min_grams`` drops docs whose distinct-gram
    count is below the floor AT EXPLODE TIME (they contribute no rows,
    so no pairs — equivalent to the oracle's post-hoc n >= min filter
    but cheaper).
    """

    def explode(batch: pa.Table) -> pa.Table:
        grams, ids, ngrams = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            words = text.split()
            if len(words) < n:
                gset = {" ".join(words)} if words else set()
            else:
                gset = {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}
            if min_grams is not None and len(gset) < min_grams:
                continue
            grams.extend(gset)
            ids.extend([doc_id] * len(gset))
            ngrams.extend([len(gset)] * len(gset))
        return pa.table(
            {
                "gram": pa.array(grams, pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
                # the doc's own distinct-gram count, known locally here
                "n_grams": pa.array(ngrams, pa.int64()),
            }
        )

    exploded = docs.map_batches(explode, batch_format="pyarrow")

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if df_cap is not None:
            freq = g.groupby("gram", sort=False)["doc_id"].transform("nunique")
            g = g[freq <= df_cap]
        p = _emit_pairs_by_key(g, "gram")
        # pre-aggregate within the bucket and pack the pair into ONE
        # int64 key. A raw groupby(["doc_a","doc_b"]) here is
        # pathological in Ray Data (sort-based aggregate over ~10^6
        # distinct 2-col groups); co-partitioning on the packed key
        # keeps the shuffle key tiny and the combine vectorized.
        key = _pack_pairs_pd(p["doc_a"], p["doc_b"])
        part = key.value_counts().rename_axis("pair_key").reset_index(name="inter")
        nmap = dict(zip(g["doc_id"], g["n_grams"]))  # per-bucket, worker-local
        part["na"] = (part["pair_key"] // _PAIR_BASE).map(nmap).astype("int64")
        part["nb"] = (part["pair_key"] % _PAIR_BASE).map(nmap).astype("int64")
        return part

    def combine_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("pair_key", sort=False).agg(
            inter=("inter", "sum"), na=("na", "first"), nb=("nb", "first")
        ).reset_index()
        s["doc_a"] = (s["pair_key"] // _PAIR_BASE).astype("int64")
        s["doc_b"] = (s["pair_key"] % _PAIR_BASE).astype("int64")
        return s[["doc_a", "doc_b", "inter", "na", "nb"]]

    counted = co_partition(exploded, ["gram"], pairs_in_bucket)
    return co_partition(counted, ["pair_key"], combine_bucket)


def ngram_jaccard_pairs(sf_dir: str, n: int = 3, threshold_pct: int = 70, df_cap: int | None = None) -> pa.Table:
    """Exact word-n-gram Jaccard similarity join over documents — the
    shared :func:`_ngram_pair_counts` plan plus a STREAMING threshold
    filter (integer-exact floor(100*i/(na+nb-i)) >= threshold_pct, so
    the Ray and SQL sides stay bit-identical; sub-threshold pairs die
    in the filter stage, never reaching the driver)."""
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    pairs = _ngram_pair_counts(docs, n, df_cap)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        union = df["na"] + df["nb"] - df["inter"]
        df = df.assign(jaccard_pct=((100 * df["inter"]) // union).astype("int64"))
        df = df[df["jaccard_pct"] >= threshold_pct]
        return df[["doc_a", "doc_b", "jaccard_pct"]]

    out = pairs.map_batches(score, batch_format="pandas").to_pandas()
    if len(out) == 0:
        return _EMPTY_PAIRS
    return finish(out, ["doc_a", "doc_b"])


_EMPTY_CONTAIN = pa.table(
    {
        "doc_id": pa.array([], pa.int64()),
        "other_id": pa.array([], pa.int64()),
        "containment_pct": pa.array([], pa.int64()),
    }
)


def ngram_containment_pairs(
    sf_dir: str,
    n: int = 3,
    threshold_pct: int = 80,
    min_grams: int = 5,
    df_cap: int | None = None,
) -> pa.Table:
    """ASYMMETRIC n-gram containment join: directed pairs ``(doc_id,
    other_id)`` where floor(100 * |A ∩ B| / |A|) >= threshold_pct —
    i.e. at least that fraction of doc A's distinct grams also appear
    in doc B. Catches subset/quote-inclusion duplicates that Jaccard
    misses (a short doc fully quoted inside a long one has tiny
    Jaccard but 100% containment) — the standard second screen next to
    near-dup in web-corpus curation.

    Same shared :func:`_ngram_pair_counts` plan as Jaccard (each
    unordered pair is counted once, then BOTH directions are scored
    from the one (inter, na, nb) row in a streaming filter stage).
    ``min_grams`` floors the doc's distinct-gram count — sub-floor
    docs are dropped at explode time, since near-empty docs are
    trivially "contained" everywhere.
    """
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    pairs = _ngram_pair_counts(docs, n, df_cap, min_grams=min_grams)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        fwd = pd.DataFrame(
            {
                "doc_id": df["doc_a"],
                "other_id": df["doc_b"],
                "containment_pct": (100 * df["inter"]) // df["na"],
            }
        )
        rev = pd.DataFrame(
            {
                "doc_id": df["doc_b"],
                "other_id": df["doc_a"],
                "containment_pct": (100 * df["inter"]) // df["nb"],
            }
        )
        out = pd.concat([fwd, rev], ignore_index=True)
        return out[out["containment_pct"] >= threshold_pct].astype("int64")

    out = pairs.map_batches(score, batch_format="pandas").to_pandas()
    if len(out) == 0:
        return _EMPTY_CONTAIN
    return finish(out, ["doc_id", "other_id"])


NGRAM_JACCARD_SQL = """
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
cnt AS (SELECT doc_id, COUNT(*) AS n FROM grams GROUP BY doc_id),
inter AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
    FROM grams a JOIN grams b USING (gram)
    WHERE a.doc_id < b.doc_id
    GROUP BY 1, 2
)
SELECT doc_a, doc_b,
       (100 * i) // (ca.n + cb.n - i) AS jaccard_pct
FROM inter
JOIN cnt ca ON ca.doc_id = doc_a
JOIN cnt cb ON cb.doc_id = doc_b
WHERE (100 * i) // (ca.n + cb.n - i) >= 70
ORDER BY doc_a, doc_b
"""


# Exhaustive directed-containment oracle: same words/grams/cnt/inter
# CTEs as NGRAM_JACCARD_SQL, but each unordered pair scores BOTH
# directions (i // na and i // nb) and the min_grams=5 floor is the
# post-hoc n >= 5 filter (equivalent to the engine's explode-time drop
# — floored docs can't form pairs either way).
NGRAM_CONTAINMENT_SQL = """
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
cnt AS (SELECT doc_id, COUNT(*) AS n FROM grams GROUP BY doc_id),
inter AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
    FROM grams a JOIN grams b USING (gram)
    WHERE a.doc_id < b.doc_id
    GROUP BY 1, 2
),
paired AS (
    SELECT doc_a, doc_b, i, ca.n AS na, cb.n AS nb
    FROM inter
    JOIN cnt ca ON ca.doc_id = doc_a
    JOIN cnt cb ON cb.doc_id = doc_b
    WHERE ca.n >= 5 AND cb.n >= 5
),
directed AS (
    SELECT doc_a AS doc_id, doc_b AS other_id, (100 * i) // na AS containment_pct
    FROM paired
    UNION ALL
    SELECT doc_b, doc_a, (100 * i) // nb FROM paired
)
SELECT doc_id, other_id, containment_pct
FROM directed
WHERE containment_pct >= 80
ORDER BY doc_id, other_id
"""


# -- simhash -------------------------------------------------------------


_SIMHASH_J = np.arange(64, dtype=np.uint64)

# worker-process-global distinct-word hash cache: corpus words are
# Zipfian, so each worker md5-hashes a given word ONCE ever instead of
# once per (doc, word) — the hottest pure-Python loop in the dedup
# family before this change (measured 7.7x on sf0.01 docs together
# with the vectorized bit-matrix accumulation, BASELINE.md r4)
_WORD_HASH_CACHE: dict[str, int] = {}
_WORD_HASH_CACHE_MAX = 2_000_000  # ~tens of MB; reset beyond


def _word_hashes(words: list[str]) -> np.ndarray:
    cache = _WORD_HASH_CACHE
    out = np.empty(len(words), dtype=np.uint64)
    for i, w in enumerate(words):
        h = cache.get(w)
        if h is None:
            if len(cache) >= _WORD_HASH_CACHE_MAX:
                cache.clear()
            h = cache[w] = md5_number_lower(w)
        out[i] = h
    return out


def simhash64_batch(texts: list[str]) -> list[int]:
    """Batched :func:`simhash64`: per-doc accumulation is one
    vectorized (words x 64) bit matrix sum; each +1/-1 vote equals
    2*bit - 1, so acc = 2*colsum - n_words — term-identical to the
    per-word loop the SQL oracle mirrors."""
    out = []
    for text in texts:
        words = list(set(text.split()))
        if not words:
            out.append(0)
            continue
        hs = _word_hashes(words)
        bits = ((hs[:, None] >> _SIMHASH_J) & np.uint64(1)).astype(np.int64)
        acc = 2 * bits.sum(axis=0) - len(words)
        out.append(int(((acc > 0).astype(np.uint64) << _SIMHASH_J).sum()))
    return out


def simhash64(text: str) -> int:
    """64-bit simhash over the distinct-word set. Word hash = low 8
    md5 bytes little-endian (== DuckDB md5_number_lower) and output
    bit j is sign(acc_j) of input bit j — a bit-order-clean definition
    that a SQL oracle reproduces term for term."""
    return simhash64_batch([text])[0]


def simhash_table(sf_dir: str) -> pa.Table:
    """doc_id -> 64-bit simhash (as signed int64) + 4x16-bit band keys
    for near-dup bucketing."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        sh = simhash64_batch(batch["text"].to_pylist())
        signed = [s - (1 << 64) if s >= (1 << 63) else s for s in sh]
        return pa.table({"doc_id": pa.array(ids, pa.int64()), "simhash": pa.array(signed, pa.int64())})

    return finish(ds.map_batches(fn, batch_format="pyarrow").to_pandas(), "doc_id")


def simhash_neardup_pairs(ds_docs: ray.data.Dataset, max_hamming: int = 3) -> pa.Table:
    """Near-dup pairs by simhash banding: 4 bands of 16 bits; any pair
    within Hamming distance 3 shares at least one exact band
    (pigeonhole). Rows are co-partitioned on the full (band, key), so
    a shuffle bucket holds O(corpus * 4 / buckets) rows and the
    Hamming verify runs per exact band key inside it."""

    def sig(batch: pa.Table) -> pa.Table:
        bands, keys, ids, hashes = [], [], [], []
        sims = simhash64_batch(batch["text"].to_pylist())
        for doc_id, s in zip(batch["doc_id"].to_pylist(), sims):
            for band in range(4):
                bands.append(band)
                keys.append((s >> (band * 16)) & 0xFFFF)
                ids.append(doc_id)
                hashes.append(s - (1 << 64) if s >= (1 << 63) else s)
        return pa.table(
            {
                "band": pa.array(bands, pa.int32()),
                "key": pa.array(keys, pa.int32()),
                "doc_id": pa.array(ids, pa.int64()),
                "simhash": pa.array(hashes, pa.int64()),
            }
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        # one shuffle bucket; per-(band, key) work vectorized in pandas
        # (only keys shared by >1 doc reach the pair loop)
        d = g.drop_duplicates(["band", "key", "doc_id"])
        d = d[d.groupby(["band", "key"], sort=False)["doc_id"].transform("size") > 1]
        out_a, out_b, out_d = [], [], []
        for _, sub in d.groupby(["band", "key"], sort=False):
            sub = sub.sort_values("doc_id")
            ids = sub["doc_id"].tolist()
            hs = [h & ((1 << 64) - 1) for h in sub["simhash"].tolist()]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    dist = bin(hs[i] ^ hs[j]).count("1")
                    if dist <= max_hamming:
                        out_a.append(ids[i])
                        out_b.append(ids[j])
                        out_d.append(dist)
        return pd.DataFrame({"doc_a": out_a, "doc_b": out_b, "hamming": out_d})

    def pack(batch: pa.Table) -> pa.Table:
        key = _pack_pairs_arrow(batch["doc_a"], batch["doc_b"])
        return pa.table({"pair_key": key, "hamming": pc.cast(batch["hamming"], pa.int64())})

    # cross-band duplicate pairs removed DISTRIBUTED (packed int64 pair
    # key through the coarse-bucket aggregate — the minhash pattern),
    # never a driver drop_duplicates; hamming is identical across a
    # pair's bands, so min() just picks the value
    banded = co_partition(ds_docs.map_batches(sig, batch_format="pyarrow"), ["band", "key"], pairs)
    deduped = bucketed_aggregate(
        banded.map_batches(pack, batch_format="pyarrow"),
        ["pair_key"],
        {"hamming": ("hamming", "min")},
    )

    def unpack(batch: pa.Table) -> pa.Table:
        doc_a, doc_b = _unpack_pairs_arrow(batch["pair_key"])
        return pa.table(
            {"doc_a": doc_a, "doc_b": doc_b, "hamming": pc.cast(batch["hamming"], pa.int64())}
        )

    res = deduped.map_batches(unpack, batch_format="pyarrow").to_pandas()
    return finish(
        res,
        ["doc_a", "doc_b"],
        empty=pa.schema({"doc_a": pa.int64(), "doc_b": pa.int64(), "hamming": pa.int64()}),
    )


# Shared signature CTE: reproduces simhash64 term for term in DuckDB
# (word hash = md5_number_lower, bit j = sign of the +/-1 vote sum).
_SIMHASH_SIG_CTE = """
WITH words AS (
    SELECT doc_id,
           unnest(list_distinct(list_filter(string_split_regex(text, '\\s+'), x -> x <> ''))) AS w
    FROM documents
),
bits AS (
    SELECT doc_id, j,
           SUM(CASE WHEN (md5_number_lower(w) >> j) & 1 = 1 THEN 1 ELSE -1 END) AS acc
    FROM words, UNNEST(generate_series(0, 63)) AS s(j)
    GROUP BY doc_id, j
),
sig0 AS (
    SELECT doc_id,
           SUM(CASE WHEN acc > 0 THEN CAST(1 AS HUGEINT) << j ELSE CAST(0 AS HUGEINT) END) AS u
    FROM bits GROUP BY doc_id
),
sig AS (
    SELECT d.doc_id,
           CAST(CASE WHEN COALESCE(s.u, 0) >= CAST('9223372036854775808' AS HUGEINT)
                THEN COALESCE(s.u, 0) - CAST('18446744073709551616' AS HUGEINT)
                ELSE COALESCE(s.u, 0) END AS BIGINT) AS s
    FROM documents d LEFT JOIN sig0 s ON d.doc_id = s.doc_id
)
"""

# Brute-force O(n^2) oracle for the banded simhash pipeline: the bands
# guarantee (pigeonhole over 4x16 bits) that EVERY pair within Hamming
# distance 3 shares an exact band, so the LSH output must equal the
# exhaustive join — this checks the recall guarantee itself, not just
# the arithmetic.
SIMHASH_PAIRS_SQL = _SIMHASH_SIG_CTE + """
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, bit_count(xor(a.s, b.s)) AS hamming
FROM sig a JOIN sig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.s, b.s)) <= 3
ORDER BY doc_a, doc_b
"""

# Per-document fingerprint table oracle for :func:`simhash_table`.
SIMHASH_TABLE_SQL = _SIMHASH_SIG_CTE + """
SELECT doc_id, s AS simhash FROM sig ORDER BY doc_id
"""


def doc_dup_span_stats(sf_dir: str, n: int = 3) -> pa.Table:
    """Duplicated-span statistics per document — the C4/RefinedWeb-
    style quality signal 'what fraction of this doc's spans appear
    elsewhere in the corpus': for each doc, the count of its DISTINCT
    word n-grams whose document frequency exceeds 1, plus the
    integer-floor duplicated percentage.

    Distributed plan (two shuffles of slim rows, no pair emission):
      1. map_batches: explode each doc to DISTINCT (gram, doc_id)
         rows (the ngram_jaccard explode shape);
      2. co_partition on gram: per-gram document frequency
         is the group-local row count (grams are distinct per doc), so
         each row's dup flag is one vectorized transform — no df
         table, no join;
      3. coarse-bucket aggregate by doc_id sums flags and counts
         grams.

    Docs with no grams (empty text) have no rows on either side, so
    they are absent from the output — matching the SQL oracle.
    Integer-only arithmetic; bit-identical to DOC_DUP_SPAN_STATS_SQL.
    """
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        grams, ids = [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            gset = word_gram_set(text, n)
            grams.extend(gset)
            ids.extend([doc_id] * len(gset))
        return pa.table({"gram": pa.array(grams, pa.string()), "doc_id": pa.array(ids, pa.int64())})

    def flag_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df_counts = g.groupby("gram", sort=False)["gram"].transform("size")
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].astype("int64"),
                "dup": (df_counts > 1).astype("int64"),
            }
        )

    flags = co_partition(docs.map_batches(explode, batch_format="pyarrow"), ["gram"], flag_bucket)
    stats = bucketed_aggregate(
        flags, ["doc_id"], {"n_dup_grams": ("dup", "sum"), "n_grams": ("dup", "count")}
    )

    out = stats.to_pandas()
    if len(out) == 0:
        return pa.table(
            {
                c: pa.array([], pa.int64())
                for c in ("doc_id", "n_grams", "n_dup_grams", "dup_pct")
            }
        )
    out = out.astype("int64")
    out["dup_pct"] = (100 * out["n_dup_grams"]) // out["n_grams"]
    return finish(out, "doc_id", columns=["doc_id", "n_grams", "n_dup_grams", "dup_pct"])


DOC_DUP_SPAN_STATS_SQL = """
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
df AS (SELECT gram, COUNT(*) AS c FROM grams GROUP BY gram),
per AS (
    SELECT g.doc_id, CASE WHEN d.c > 1 THEN 1 ELSE 0 END AS dup
    FROM grams g JOIN df d USING (gram)
)
SELECT doc_id,
       COUNT(*) AS n_grams,
       CAST(SUM(dup) AS BIGINT) AS n_dup_grams,
       (100 * CAST(SUM(dup) AS BIGINT)) // COUNT(*) AS dup_pct
FROM per
GROUP BY doc_id
ORDER BY doc_id
"""


# -- cross-snapshot incremental dedup --------------------------------------


_PRIOR_SENTINEL = 1 << 62  # rides the min() so prior rows never win it


def incremental_dedup(sf_dir: str, snapshot_mod: int = 2) -> pa.Table:
    """Cross-SNAPSHOT incremental exact dedup — the recurring-crawl
    shape: a new snapshot is deduplicated against everything already
    kept from prior snapshots (cf. Common Crawl's per-crawl URL/content
    dedup against earlier crawls). The prior snapshot here is the
    deterministic slice ``doc_id % snapshot_mod == 0`` (a stand-in for
    a real earlier-crawl manifest; the operator shape is identical).

    A NEW document survives iff its content hash appears in NO prior
    document and it has the minimum doc_id among new documents sharing
    that hash. Returns (doc_id, h, n_new) sorted by doc_id, where
    ``n_new`` counts the new-snapshot copies of that text.

    Scale shape: ONE streaming pass emits slim (h, id-or-sentinel,
    flags) rows — prior rows carry a doc_id sentinel above any real id
    so a single coarse-bucket aggregate computes, per hash, the prior
    presence flag AND the min new id AND the new-copy count; the
    contaminated-or-duplicate filter is then a pure map. No broadcast,
    no driver structure, exactly one shuffle of slim rows."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def slim(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        hashes = [hashlib.md5(t.encode()).hexdigest() for t in batch["text"].to_pylist()]
        is_prior = [1 if d % snapshot_mod == 0 else 0 for d in ids]
        return pa.table(
            {
                "h": pa.array(hashes, pa.string()),
                "min_id": pa.array(
                    [_PRIOR_SENTINEL if p else d for d, p in zip(ids, is_prior)], pa.int64()
                ),
                "is_prior": pa.array(is_prior, pa.int64()),
                "is_new": pa.array([1 - p for p in is_prior], pa.int64()),
            }
        )

    agg = bucketed_aggregate(
        ds.map_batches(slim, batch_format="pyarrow"),
        ["h"],
        {
            "prior": ("is_prior", "max"),
            "doc_id": ("min_id", "min"),
            "n_new": ("is_new", "sum"),
        },
    )
    def keep_clean(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[
            (df["prior"] == 0) & (df["n_new"] > 0), ["doc_id", "h", "n_new"]
        ].astype({"doc_id": "int64", "n_new": "int64"})

    return finish(
        agg.map_batches(keep_clean, batch_format="pandas").to_pandas(),
        "doc_id",
        empty=pa.schema({"doc_id": pa.int64(), "h": pa.string(), "n_new": pa.int64()}),
    )


def incremental_dedup_sql(snapshot_mod: int = 2) -> str:
    return f"""
WITH hashed AS (
    SELECT doc_id, md5(text) AS h, doc_id % {snapshot_mod} = 0 AS is_prior
    FROM documents
),
new_groups AS (
    SELECT h, MIN(doc_id) AS doc_id, COUNT(*) AS n_new
    FROM hashed WHERE NOT is_prior GROUP BY h
)
SELECT n.doc_id, n.h, n.n_new
FROM new_groups n
WHERE n.h NOT IN (SELECT h FROM hashed WHERE is_prior)
ORDER BY n.doc_id
"""


# -- bloom content-seen screen --------------------------------------------


def corpus_snapshot_diff(
    sf_dir: str,
    snapshot_mod: int = 4,
    ghost_mod: int = 8,
    change_mod: int = 5,
) -> pa.Table:
    """Snapshot CHANGE DETECTION — the recrawl-scheduler's input: diff
    the current corpus against the prior crawl snapshot by content
    hash and label every doc_id ``added`` / ``removed`` / ``changed``
    / ``unchanged``. (Change-rate per host is what drives freshness
    tiers; this is the per-doc table that rate rolls up from.)

    The prior snapshot is a deterministic stand-in (the
    ``incremental_dedup`` convention — a real deployment reads the
    prior crawl's persisted manifest): it holds every current doc with
    ``doc_id % snapshot_mod != 0`` (so the ``== 0`` rows are newly
    ADDED), plus retired ghost ids ``max_id+1+doc_id`` for
    ``doc_id % ghost_mod == 0`` (REMOVED since), and its text carries
    a ``~v2`` suffix when ``doc_id % change_mod == 0`` (CHANGED
    since — a byte-suffix edit, no unicode-reversal semantics to
    disagree on).

    Scale shape: ONE streaming pass emits both sides as slim
    (doc_id, hc, hp) rows with -1 sentinels on the absent side; one
    coarse-bucket max-aggregate folds the two sides per doc_id; the
    status label is then a pure vectorized map. No broadcast, no
    driver structure, exactly one shuffle of slim int rows. Returns
    (doc_id, status) over the union of both id spaces, sorted."""

    mask = (1 << 62) - 1  # fit the unsigned md5 word into int64
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    base = int(ds.max("doc_id")) + 1

    def sides(batch: pa.Table) -> pd.DataFrame:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        texts = batch["text"].to_pylist()
        h = np.array([md5_number_lower(t) & mask for t in texts], dtype=np.int64)
        hv2 = np.array([md5_number_lower(t + "~v2") & mask for t in texts], dtype=np.int64)
        cur = pd.DataFrame({"doc_id": ids, "hc": h, "hp": np.int64(-1)})
        in_prior = ids % snapshot_mod != 0
        prior = pd.DataFrame(
            {
                "doc_id": ids[in_prior],
                "hc": np.int64(-1),
                "hp": np.where(
                    ids[in_prior] % change_mod == 0, hv2[in_prior], h[in_prior]
                ),
            }
        )
        ghost_sel = ids % ghost_mod == 0
        ghosts = pd.DataFrame(
            {
                "doc_id": base + ids[ghost_sel],
                "hc": np.int64(-1),
                "hp": h[ghost_sel],
            }
        )
        return pd.concat([cur, prior, ghosts], ignore_index=True)

    folded = bucketed_aggregate(
        ds.map_batches(sides, batch_format="pyarrow"),
        ["doc_id"],
        {"hc": ("hc", "max"), "hp": ("hp", "max")},
    )

    def label(df: pd.DataFrame) -> pd.DataFrame:
        status = np.where(
            df["hp"] < 0,
            "added",
            np.where(
                df["hc"] < 0,
                "removed",
                np.where(df["hc"] == df["hp"], "unchanged", "changed"),
            ),
        )
        return pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"), "status": status}
        )

    out = (
        folded.map_batches(label, batch_format="pandas")
        .to_pandas()
    )
    return finish(
        out,
        "doc_id",
        columns=["doc_id", "status"],
        empty=pa.schema({"doc_id": pa.int64(), "status": pa.string()}),
    )


def corpus_snapshot_diff_sql(
    snapshot_mod: int = 4, ghost_mod: int = 8, change_mod: int = 5
) -> str:
    mask = (1 << 62) - 1
    return f"""
WITH cur AS (
  SELECT doc_id,
         CAST(md5_number_lower(text) & {mask} AS BIGINT) AS hc
  FROM documents
),
prior AS (
  SELECT doc_id,
         CAST(md5_number_lower(
             CASE WHEN doc_id % {change_mod} = 0 THEN text || '~v2' ELSE text END
         ) & {mask} AS BIGINT) AS hp
  FROM documents WHERE doc_id % {snapshot_mod} <> 0
  UNION ALL
  SELECT (SELECT MAX(doc_id) + 1 FROM documents) + doc_id,
         CAST(md5_number_lower(text) & {mask} AS BIGINT)
  FROM documents WHERE doc_id % {ghost_mod} = 0
)
SELECT COALESCE(c.doc_id, p.doc_id) AS doc_id,
       CASE WHEN p.doc_id IS NULL THEN 'added'
            WHEN c.doc_id IS NULL THEN 'removed'
            WHEN c.hc = p.hp THEN 'unchanged'
            ELSE 'changed' END AS status
FROM cur c FULL OUTER JOIN prior p ON c.doc_id = p.doc_id
ORDER BY doc_id
"""


def _bloom_positions_py(text: str, k: int, m_bits: int) -> list[int]:
    """Double-hashed probe positions from the two md5 halves —
    int.from_bytes parity with DuckDB's md5_number_lower/upper is
    pinned by the oracle itself."""
    import hashlib

    d = hashlib.md5(text.encode()).digest()
    h1 = int.from_bytes(d[8:16], "little")
    h2 = int.from_bytes(d[:8], "little")
    return [(h1 + i * h2) % m_bits for i in range(k)]


def bloom_screen(
    sf_dir: str, k: int = 4, m_bits: int = 1024
) -> pa.Table:
    """Bloom-filter content-seen screen, the URL-seen-set primitive as
    a QUERYABLE operator with a full SQL mirror: build a bloom over
    the even-doc_id half of the corpus ("snapshot A"), then probe
    EVERY document — even docs are guaranteed true positives, odd docs
    hit only through bloom false positives, so both the set-bit path
    and the FP semantics are value-pinned. Returns (doc_id, hit)
    ordered by doc_id.

    ``m_bits`` is deliberately UNDERSIZED (1024 bits for ~250 keys ->
    ~15% FPR) so false positives actually occur at test scale; the
    production seen-set geometry (43.1 bits/key, k=30, 1e-9 FPR) is
    the frontier's ``state/bloom.py`` and is pinned separately by
    tests/test_state.py::test_bloom_design_point. The frontier filter
    hashes with blake2b (not SQL-reproducible); this operator uses
    md5 double hashing so DuckDB rebuilds the IDENTICAL bit set.

    Plan shape (100 TB-ready): A-side probe positions flat-map out as
    slim int rows and fold through the coarse-bucket DISTINCT — the
    driver pull is bounded by ``m_bits`` (a constant), never by corpus
    size; the probe pass is one streaming map over a broadcast
    frozenset. One tiny shuffle, no all-to-all of document data."""
    from mlscraper_ray.functions.broadcast import cached_object

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def a_positions(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch[batch["doc_id"] % 2 == 0]
        pos: list[int] = []
        for t in a["text"]:
            pos.extend(_bloom_positions_py(t, k, m_bits))
        return pd.DataFrame({"p": pd.Series(sorted(set(pos)), dtype="int64")})

    bits = bucketed_aggregate(
        docs.map_batches(a_positions, batch_format="pandas"),
        ["p"],
        {"cnt": ("p", "count")},
    ).to_pandas()
    bit_set = frozenset(int(p) for p in bits["p"]) if len(bits) else frozenset()
    b_ref = ray.put(bit_set)

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        s = cached_object(b_ref)
        hit = [
            all(p in s for p in _bloom_positions_py(t, k, m_bits))
            for t in batch["text"]
        ]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "hit": pd.Series(hit, dtype="bool"),
            }
        )

    return finish(
        docs.map_batches(probe, batch_format="pandas").to_pandas(),
        "doc_id",
    )


def bloom_screen_sql(k: int = 4, m_bits: int = 1024) -> str:
    """DuckDB mirror: rebuild the same distinct-position set from the
    md5 halves (HUGEINT math — UBIGINT h1 + i*h2 would overflow), then
    a per-doc bool_and over the k probes."""
    return f"""
WITH pos AS (
    SELECT DISTINCT
           (CAST(md5_number_lower(text) AS HUGEINT)
            + i * CAST(md5_number_upper(text) AS HUGEINT)) % {m_bits} AS p
    FROM documents, UNNEST(generate_series(0, {k - 1})) t(i)
    WHERE doc_id % 2 = 0
),
probes AS (
    SELECT doc_id,
           (CAST(md5_number_lower(text) AS HUGEINT)
            + i * CAST(md5_number_upper(text) AS HUGEINT)) % {m_bits} AS p
    FROM documents, UNNEST(generate_series(0, {k - 1})) t(i)
)
SELECT pr.doc_id, bool_and(pos.p IS NOT NULL) AS hit
FROM probes pr LEFT JOIN pos ON pr.p = pos.p
GROUP BY pr.doc_id
ORDER BY pr.doc_id
"""


def query_similar_docs(
    sf_dir: str, query_doc_id: int = 0, n: int = 3, k: int = 20
) -> pa.Table:
    """Query-by-document similarity search: rank the corpus against
    ONE query document by exact distinct-word-n-gram Jaccard (the
    dedup-by-example / provenance-lookup mode of the pairwise
    `dedup_ngram_jaccard` screen). Returns up to ``k`` rows of
    (doc_id, jaccard_pct, n_inter) for docs sharing at least one gram,
    ordered by (jaccard_pct DESC, doc_id), the query excluded.

    Plan shape: the query's gram set is ONE bounded broadcast
    (``ray.put``); every batch computes intersections locally and
    emits a partial top-k — zero shuffle, the inverted-index pair
    explosion of the all-pairs screen never happens because one side
    is fixed."""
    import pyarrow.dataset as pads
    import pyarrow.compute as pc_

    dset = pads.dataset(os.path.join(sf_dir, "documents.parquet"))
    qt = dset.to_table(columns=["text"], filter=pc_.field("doc_id") == query_doc_id)
    if qt.num_rows == 0:
        # unknown query id: the SQL oracle yields zero rows here too
        return pa.table(
            {c: pa.array([], pa.int64()) for c in ("doc_id", "jaccard_pct", "n_inter")}
        )
    qgrams = word_gram_set(qt["text"][0].as_py(), n)
    q_ref = ray.put(qgrams)

    def per_batch(batch: pd.DataFrame) -> pd.DataFrame:
        from mlscraper_ray.functions.broadcast import cached_object

        qg = cached_object(q_ref)
        rows = []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            if int(doc_id) == query_doc_id:
                continue
            g = word_gram_set(text, n)
            inter = len(qg & g)
            if inter:
                union = len(qg) + len(g) - inter
                rows.append((int(doc_id), (100 * inter) // union, inter))
        df = pd.DataFrame(rows, columns=["doc_id", "jaccard_pct", "n_inter"]).astype(
            "int64"
        )
        return df.sort_values(
            ["jaccard_pct", "doc_id"], ascending=[False, True], ignore_index=True
        ).head(k)

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    parts = docs.map_batches(per_batch, batch_format="pandas").to_pandas()
    return finish(
        parts,
        ["jaccard_pct", "doc_id"],
        ascending=[False, True],
        head=k,
        dtypes="int64",
        empty=pa.schema({c: pa.int64() for c in ("doc_id", "jaccard_pct", "n_inter")}),
    )


def query_similar_docs_sql(query_doc_id: int = 0, k: int = 20) -> str:
    """Same gram CTE as NGRAM_JACCARD_SQL, one side pinned to the
    query document."""
    return f"""
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
cnt AS (SELECT doc_id, COUNT(*) AS n FROM grams GROUP BY doc_id),
inter AS (
    SELECT b.doc_id, COUNT(*) AS i
    FROM grams a JOIN grams b USING (gram)
    WHERE a.doc_id = {query_doc_id} AND b.doc_id != {query_doc_id}
    GROUP BY b.doc_id
)
SELECT inter.doc_id,
       CAST((100 * i) // (cq.n + cb.n - i) AS BIGINT) AS jaccard_pct,
       CAST(i AS BIGINT) AS n_inter
FROM inter
JOIN cnt cq ON cq.doc_id = {query_doc_id}
JOIN cnt cb ON cb.doc_id = inter.doc_id
ORDER BY jaccard_pct DESC, inter.doc_id
LIMIT {k}
"""


def lsh_index_to_parquet(
    sf_dir: str,
    out_dir: str,
    n_shards: int = 16,
    num_perm: int = 128,
    bands: int = 32,
    shingle_n: int = 3,
    seed: int = 42,
) -> dict:
    """Build a PERSISTED MinHash-LSH bucket index: postings rows
    (band, bucket, doc_id) sharded by crc32(band:bucket) through the
    resumable sink (functions/sinks.py), each file SORTED by (band,
    bucket, doc_id) so a bucket probe row-group-prunes. LSH params
    land in ``_meta.json`` (written after the shards) so a query with
    mismatched params fails loud instead of probing garbage
    buckets."""
    import json

    meta_path = os.path.join(out_dir, "_meta.json")
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    postings = ds.map_batches(
        minhash_stage_task,
        fn_kwargs={
            "num_perm": num_perm,
            "bands": bands,
            "shingle_n": shingle_n,
            "seed": seed,
        },
        batch_format="pyarrow",
    ).map_batches(
        lambda t: t.select(["band", "bucket", "doc_id"]).sort_by(
            [("band", "ascending"), ("bucket", "ascending"), ("doc_id", "ascending")]
        ),
        batch_format="pyarrow",
    )

    def shard_of(t: pa.Table) -> list[int]:
        return [
            zlib.crc32(f"{b}:{v}".encode()) % n_shards
            for b, v in zip(t["band"].to_pylist(), t["bucket"].to_pylist())
        ]

    res = write_resumable(postings, shard_of, out_dir, n_shards)
    if res["written"] or not os.path.exists(meta_path):
        with open(meta_path, "w") as fh:
            json.dump(
                {
                    "num_perm": num_perm,
                    "bands": bands,
                    "shingle_n": shingle_n,
                    "seed": seed,
                    "n_shards": n_shards,
                },
                fh,
            )
    return res


def query_similar_indexed(
    sf_dir: str,
    query_doc_id: int = 8,
    threshold_pct: int = 80,
    n: int = 3,
    k: int = 20,
) -> pa.Table:
    """Near-dup SERVING from the PERSISTED LSH index — the
    constant-work sibling of :func:`query_similar_docs` (which scans
    every document against the query): probe the query's ``bands``
    (band, bucket) keys, read ONLY the probed index shards with a
    pushed-down bucket filter, then exact-verify the candidate set by
    string-gram Jaccard and keep matches ``>= threshold_pct``.

    Contract: equals the exhaustive SQL ranking RESTRICTED to
    ``jaccard_pct >= threshold_pct`` — the same recall guarantee the
    dedup_minhash oracle proves on this corpus (at 80 with 128/32
    bands, candidate-miss probability ~5e-8 per pair; the exhaustive
    join IS the oracle, so a recall miss fails the compare loud).
    Returns (doc_id, jaccard_pct, n_inter) ordered by
    (jaccard_pct DESC, doc_id). The index is built once per corpus
    tier (cached, resumable, keyed by data + module digest)."""
    import zlib

    import pyarrow.compute as pc_
    import pyarrow.dataset as pads

    from mlscraper_ray.functions.broadcast import cached_object
    from mlscraper_ray.functions.search import _cached_index

    index_dir = _cached_index(sf_dir, "lsh_index", lsh_index_to_parquet)
    import json

    with open(os.path.join(index_dir, "_meta.json")) as fh:
        meta = json.load(fh)

    empty = pa.table(
        {c: pa.array([], pa.int64()) for c in ("doc_id", "jaccard_pct", "n_inter")}
    )
    dset = pads.dataset(os.path.join(sf_dir, "documents.parquet"))
    qt = dset.to_table(columns=["text"], filter=pc_.field("doc_id") == query_doc_id)
    if qt.num_rows == 0:
        return empty
    qtext = qt["text"][0].as_py()

    # the query's band keys, from the SAME stage the index was built with
    sig_t = minhash_stage_task(
        pa.table(
            {"doc_id": pa.array([query_doc_id], pa.int64()), "text": pa.array([qtext])}
        ),
        num_perm=meta["num_perm"],
        bands=meta["bands"],
        shingle_n=meta["shingle_n"],
        seed=meta["seed"],
    )
    keys = list(zip(sig_t["band"].to_pylist(), sig_t["bucket"].to_pylist()))
    probe_shards = sorted(
        {zlib.crc32(f"{b}:{v}".encode()) % meta["n_shards"] for b, v in keys}
    )
    flt = None
    for b, v in keys:
        term = (pc_.field("band") == b) & (pc_.field("bucket") == v)
        flt = term if flt is None else (flt | term)
    cands: set[int] = set()
    files = shard_files(index_dir, probe_shards)
    if files:
        post = pads.dataset(files, format="parquet").to_table(columns=["doc_id"], filter=flt)
        cands.update(post["doc_id"].to_pylist())
    cands.discard(query_doc_id)
    if not cands:
        return empty

    # exact verify: candidate texts only (pushed-down id filter),
    # string-gram Jaccard against the broadcast query gram set
    qg_ref = ray.put(word_gram_set(qtext, n))
    cand_arr = pa.array(sorted(cands), pa.int64())
    docs = read_table(
        sf_dir, "documents", ["doc_id", "text"], filter=pc_.field("doc_id").isin(cand_arr)
    )

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        qg = cached_object(qg_ref)
        rows = []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            g = word_gram_set(text, n)
            inter = len(qg & g)
            if not inter:
                continue
            pct = (100 * inter) // (len(qg) + len(g) - inter)
            if pct >= threshold_pct:
                rows.append((int(doc_id), pct, inter))
        return pd.DataFrame(rows, columns=["doc_id", "jaccard_pct", "n_inter"]).astype(
            "int64"
        )

    parts = docs.map_batches(verify, batch_format="pandas").to_pandas()
    if len(parts) == 0:
        return empty
    return finish(parts, ["jaccard_pct", "doc_id"], ascending=[False, True], head=k, dtypes="int64")


def query_similar_indexed_sql(
    query_doc_id: int = 8, threshold_pct: int = 80, k: int = 20
) -> str:
    """The exhaustive query-by-document join restricted to the
    serving threshold — shared shape with query_similar_docs_sql; the
    restriction is what the LSH probe's recall guarantee covers."""
    return f"""
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
cnt AS (SELECT doc_id, COUNT(*) AS n FROM grams GROUP BY doc_id),
inter AS (
    SELECT b.doc_id, COUNT(*) AS i
    FROM grams a JOIN grams b USING (gram)
    WHERE a.doc_id = {query_doc_id} AND b.doc_id != {query_doc_id}
    GROUP BY b.doc_id
),
scored AS (
    SELECT inter.doc_id,
           CAST((100 * i) // (cq.n + cb.n - i) AS BIGINT) AS jaccard_pct,
           CAST(i AS BIGINT) AS n_inter
    FROM inter
    JOIN cnt cq ON cq.doc_id = {query_doc_id}
    JOIN cnt cb ON cb.doc_id = inter.doc_id
)
SELECT doc_id, jaccard_pct, n_inter
FROM scored
WHERE jaccard_pct >= {threshold_pct}
ORDER BY jaccard_pct DESC, doc_id
LIMIT {k}
"""


def _winnow_selected_fps(text: str, k: int, w: int, mod: int) -> "np.ndarray":
    """Gram-hash + ALL-TIED-MINIMA winnow selection shared by the
    per-doc fingerprint table and the similarity join (both are pinned
    by the same SQL sel CTE — one definition so they cannot
    desynchronize). Returns the selected positions' hash values in
    (h, sel): the full gram-hash array and the selected positions —
    both consumers derive their views from this one pair."""
    from numpy.lib.stride_tricks import sliding_window_view

    words = text.split()
    if not words:
        return np.empty(0, dtype=np.int64)
    if len(words) < k:
        grams = [" ".join(words)]
    else:
        grams = [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]
    h = np.fromiter(
        (md5_number_lower(g) % mod for g in grams),
        dtype=np.int64,
        count=len(grams),
    )
    if len(h) <= w:
        sel = np.flatnonzero(h == h.min())
    else:
        sw = sliding_window_view(h, w)          # (n-w+1, w)
        wmin = sw.min(axis=1)
        s_idx, off = np.nonzero(sw == wmin[:, None])
        sel = np.unique(s_idx + off)
    return h, sel


def winnow_fingerprints_ds(
    sf_dir: str, k: int = 3, w: int = 4, mod: int = 1_000_003
) -> "ray.data.Dataset":
    """Winnowing fingerprints (Schleimer et al., SIGMOD 2003 — the
    MOSS selection rule): hash every word k-gram, slide a w-gram
    window, and select each window's minimal hash — guaranteeing any
    shared run of >= w+k-1 tokens between two documents shares a
    fingerprint, at ~2/(w+1) the density of the full gram set. This
    engine uses the ALL-TIED-MINIMA variant (every position achieving
    a window's min is selected — deterministic without the paper's
    rightmost-tie state machine) and reduces hashes mod a prime so the
    per-doc fingerprint SUM stays int64-exact in SQL.

    Returns (doc_id, n_grams, n_selected, n_distinct_fp, fp_sum)
    ordered by doc_id: counts pin the selection set, ``fp_sum`` (sum
    of the selected positions' hash values) pins the VALUES without
    shipping per-position rows to the driver. Docs with no tokens are
    absent (no grams — matching the SQL). Plan shape: one streaming
    pass, per-doc numpy sliding-window mins, zero shuffle."""
    def per_batch(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            h, sel = _winnow_selected_fps(text, k, w, mod)
            n = len(h)
            if n == 0:
                continue
            fps = h[sel]
            rows.append(
                (
                    int(doc_id),
                    n,
                    len(sel),
                    len(np.unique(fps)),
                    int(fps.sum()),
                )
            )
        return pd.DataFrame(
            rows,
            columns=["doc_id", "n_grams", "n_selected", "n_distinct_fp", "fp_sum"],
        ).astype("int64")

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(per_batch, batch_format="pandas")


def doc_winnow_fingerprints_sql(k: int = 3, w: int = 4, mod: int = 1_000_003) -> str:
    """DuckDB mirror: positioned grams, per-window MINs, a range join
    marking every position that achieves some containing window's min."""
    return f"""
WITH words AS (
    SELECT doc_id,
           list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS ws
    FROM documents
),
grams AS (
    SELECT doc_id, i,
           CAST(md5_number_lower(ws[i] || ' ' || ws[i + 1] || ' ' || ws[i + 2]) % {mod} AS BIGINT) AS h
    FROM words, UNNEST(generate_series(1, len(ws) - {k - 1})) t(i)
    WHERE len(ws) >= {k}
    UNION ALL
    SELECT doc_id, 1 AS i,
           CAST(md5_number_lower(array_to_string(ws, ' ')) % {mod} AS BIGINT) AS h
    FROM words WHERE len(ws) BETWEEN 1 AND {k - 1}
),
n AS (SELECT doc_id, COUNT(*) AS ng FROM grams GROUP BY doc_id),
winidx AS (
    SELECT n.doc_id, s.s
    FROM n, UNNEST(generate_series(1, GREATEST(1, n.ng - {w - 1}))) s(s)
),
wins AS (
    SELECT wi.doc_id, wi.s, MIN(g.h) AS wmin
    FROM winidx wi JOIN grams g
      ON g.doc_id = wi.doc_id AND g.i BETWEEN wi.s AND wi.s + {w - 1}
    GROUP BY wi.doc_id, wi.s
),
sel AS (
    SELECT DISTINCT g.doc_id, g.i, g.h
    FROM grams g JOIN wins wn
      ON wn.doc_id = g.doc_id
     AND g.i BETWEEN wn.s AND wn.s + {w - 1}
     AND g.h = wn.wmin
)
SELECT n.doc_id,
       CAST(n.ng AS BIGINT) AS n_grams,
       CAST(COUNT(*) AS BIGINT) AS n_selected,
       CAST(COUNT(DISTINCT s.h) AS BIGINT) AS n_distinct_fp,
       CAST(SUM(s.h) AS BIGINT) AS fp_sum
FROM sel s JOIN n ON n.doc_id = s.doc_id
GROUP BY n.doc_id, n.ng
ORDER BY n.doc_id
"""


def doc_winnow_fingerprints(
    sf_dir: str, k: int = 3, w: int = 4, mod: int = 1_000_003
) -> pa.Table:
    """Registry entry: the contract table over
    :func:`winnow_fingerprints_ds`, ordered by doc_id."""
    out = winnow_fingerprints_ds(sf_dir, k=k, w=w, mod=mod).to_pandas()
    return finish(
        out,
        "doc_id",
        dtypes="int64",
        empty=pa.schema(
            {c: pa.int64() for c in ("doc_id", "n_grams", "n_selected", "n_distinct_fp", "fp_sum")}
        ),
    )


def winnow_to_parquet(sf_dir: str, out_dir: str, n_shards: int = 16, **kwargs) -> dict:
    """Production sink twin of :func:`doc_winnow_fingerprints`,
    RESUMABLE (functions/sinks.py), sharded by crc32(doc_id). Shard
    union == the oracle-checked contract table (tested)."""
    return write_resumable(
        winnow_fingerprints_ds(sf_dir, **kwargs),
        crc32_shard("doc_id", n_shards),
        out_dir,
        n_shards,
    )


def winnow_neardup_pairs_ds(
    sf_dir: str,
    k: int = 3,
    w: int = 4,
    mod: int = 1_000_003,
    min_shared: int = 3,
    df_cap: int | None = None,
) -> "ray.data.Dataset":
    """Near-dup candidate pairs by SHARED WINNOWING FINGERPRINTS — the
    MOSS similarity join: doc pairs sharing >= ``min_shared`` selected
    fingerprints (any shared run >= w+k-1 tokens guarantees >= 1, so
    the threshold tunes run mass, not recall of long overlaps).
    Dataset of (doc_a, doc_b, shared) rows with doc_a < doc_b (order
    unspecified — the table wrapper sorts).

    Distributed plan: the inverted-index pair plan of the n-gram
    joins, with the selected-fp table (~2/(w+1) the gram mass — the
    winnowing saving carries straight into the join): distinct
    (fp, doc_id) rows co-partition on fp; per-fp pairs emit vectorized
    inside buckets with packed int64 keys; shared counts fold through
    the coarse-bucket aggregate. ``df_cap`` drops fps held by more
    docs than the cap (the boilerplate guard at 100 TB); None keeps
    the join exact and oracle-matching."""

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        ids, fps = [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            h, sel = _winnow_selected_fps(text, k, w, mod)
            if len(h) == 0:
                continue
            vals = np.unique(h[sel])
            ids.extend([int(doc_id)] * len(vals))
            fps.extend(int(v) for v in vals)
        return pd.DataFrame(
            {
                "fp": pd.Series(fps, dtype="int64"),
                "doc_id": pd.Series(ids, dtype="int64"),
            }
        )

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    exploded = docs.map_batches(explode, batch_format="pandas")

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if df_cap is not None:
            freq = g.groupby("fp", sort=False)["doc_id"].transform("nunique")
            g = g[freq <= df_cap]
        p = _emit_pairs_by_key(g, "fp")
        key = _pack_pairs_pd(p["doc_a"], p["doc_b"])
        return key.value_counts().rename_axis("pair_key").reset_index(name="shared")

    counted = bucketed_aggregate(
        co_partition(exploded, ["fp"], pairs_in_bucket),
        ["pair_key"],
        {"shared": ("shared", "sum")},
    )

    def unpack(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["shared"] >= min_shared]
        return pd.DataFrame(
            {
                "doc_a": (df["pair_key"] // _PAIR_BASE).astype("int64"),
                "doc_b": (df["pair_key"] % _PAIR_BASE).astype("int64"),
                "shared": df["shared"].astype("int64"),
            }
        )

    return counted.map_batches(unpack, batch_format="pandas")


def winnow_neardup_pairs_sql(
    k: int = 3, w: int = 4, mod: int = 1_000_003, min_shared: int = 3
) -> str:
    """The winnow-fingerprint sel CTE self-joined on fp value."""
    base = doc_winnow_fingerprints_sql(k=k, w=w, mod=mod)
    head = base[: base.rindex("SELECT n.doc_id")].rstrip()
    assert head.endswith(")")
    return (
        head
        + f""",
pairs AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(DISTINCT a.h) AS shared
    FROM sel a JOIN sel b ON a.h = b.h AND a.doc_id < b.doc_id
    GROUP BY 1, 2
)
SELECT doc_a, doc_b, CAST(shared AS BIGINT) AS shared
FROM pairs WHERE shared >= {min_shared}
ORDER BY doc_a, doc_b
"""
    )


def winnow_neardup_pairs(
    sf_dir: str,
    k: int = 3,
    w: int = 4,
    mod: int = 1_000_003,
    min_shared: int = 3,
    df_cap: int | None = None,
) -> pa.Table:
    """Registry entry: the contract table over
    :func:`winnow_neardup_pairs_ds`, ordered by (doc_a, doc_b)."""
    out = winnow_neardup_pairs_ds(
        sf_dir, k=k, w=w, mod=mod, min_shared=min_shared, df_cap=df_cap
    ).to_pandas()
    return finish(
        out,
        ["doc_a", "doc_b"],
        dtypes="int64",
        empty=pa.schema({c: pa.int64() for c in ("doc_a", "doc_b", "shared")}),
    )


def source_neardup_report(
    sf_dir: str,
    threshold_pct: int = 70,
    max_bucket_docs: int | None = 1024,
) -> pa.Table:
    """Per-source NEAR-dup census — the data-card row next to the
    exact-dup report: how many of a source's docs participate in at
    least one verified cross-corpus near-dup pair (the
    :func:`minhash_verified_pairs` output), plus the floor-milli
    fraction. The oracle recomputes the pair set with the exhaustive
    exact-Jaccard join, so this census inherits the recall pin.

    Scale shape: the pair Dataset reduces to slim distinct doc_id
    rows; one cogroup join attaches each doc's source; two tiny
    aggregates roll up per source."""
    from mlscraper_ray.functions.joins import cogroup_join

    pairs = minhash_verified_pairs(
        sf_dir,
        threshold_pct=threshold_pct,
        max_bucket_docs=max_bucket_docs,
    )

    def endpoints(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": pd.concat([df["doc_a"], df["doc_b"]], ignore_index=True).astype("int64")}
        )

    involved = bucketed_aggregate(
        pairs.map_batches(endpoints, batch_format="pandas"),
        ["doc_id"],
        {"one": ("doc_id", "count")},
    ).map_batches(
        lambda df: df[["doc_id"]].assign(nd=1)
        if "doc_id" in df.columns
        else pd.DataFrame(
            {"doc_id": pd.Series(dtype="int64"), "nd": pd.Series(dtype="int64")}
        ),
        batch_format="pandas",
    )

    docs = read_table(sf_dir, "documents", ["doc_id", "source"])
    joined = cogroup_join(docs, involved, "doc_id", how="left")
    # docs without a pair hold a null nd, which the sum skips
    out = (
        bucketed_aggregate(
            joined, ["source"], {"n_docs": ("doc_id", "count"), "n_neardup_docs": ("nd", "sum")}
        )
        .to_pandas()
        .sort_values("source", ignore_index=True)
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_neardup_docs"] = out["n_neardup_docs"].astype("int64")
    out["neardup_milli"] = (1000 * out["n_neardup_docs"]) // out["n_docs"].clip(lower=1)
    return finish(out, columns=["source", "n_docs", "n_neardup_docs", "neardup_milli"])


def source_neardup_report_sql(threshold_pct: int = 70) -> str:
    return f"""
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
cnt AS (SELECT doc_id, COUNT(*) AS n FROM grams GROUP BY doc_id),
inter AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
    FROM grams a JOIN grams b USING (gram)
    WHERE a.doc_id < b.doc_id
    GROUP BY 1, 2
),
prs AS (
    SELECT doc_a, doc_b FROM inter
    JOIN cnt ca ON ca.doc_id = doc_a
    JOIN cnt cb ON cb.doc_id = doc_b
    WHERE (100 * i) // (ca.n + cb.n - i) >= {threshold_pct}
),
inv AS (
    SELECT DISTINCT doc_id FROM (
        SELECT doc_a AS doc_id FROM prs UNION ALL SELECT doc_b FROM prs
    )
)
SELECT d.source, COUNT(*) AS n_docs,
       CAST(SUM(CASE WHEN inv.doc_id IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
           AS n_neardup_docs,
       CAST((1000 * SUM(CASE WHEN inv.doc_id IS NOT NULL THEN 1 ELSE 0 END))
            // greatest(COUNT(*), 1) AS BIGINT) AS neardup_milli
FROM documents d LEFT JOIN inv ON inv.doc_id = d.doc_id
GROUP BY d.source
ORDER BY d.source
"""


def source_pair_matrix(
    sf_dir: str,
    threshold_pct: int = 70,
    max_bucket_docs: int | None = 1024,
) -> pa.Table:
    """Cross-source near-duplication MATRIX — who copies from whom:
    verified minhash pairs roll up by the unordered (source, source)
    pair (diagonal = within-source duplication). The data-provenance
    view next to :func:`source_neardup_report`'s per-source census;
    inherits the exhaustive-join recall pin through the same pair set.

    Scale shape: the pair Dataset is near-dup-sized; each endpoint
    attaches its source through a cogroup join against the slim
    (doc_id, source) projection (two one-key shuffles — doc->source
    is corpus-sized, never broadcast), then the matrix folds in a
    bucketed aggregate bounded by sources^2."""
    from mlscraper_ray.functions.joins import cogroup_join

    pairs = minhash_verified_pairs(
        sf_dir,
        threshold_pct=threshold_pct,
        max_bucket_docs=max_bucket_docs,
    ).materialize()
    docs = read_table(sf_dir, "documents", ["doc_id", "source"])

    if pulled := broadcast.pull(pairs):
        # size-guarded fast path (the usual case — the verified pair
        # set is near-dup-sized BY DEFINITION): broadcast the involved
        # id set, filter the doc scan down to involved rows, and roll
        # the matrix from the tiny (doc_id -> source) map — one
        # filtered pass instead of two corpus cogroup joins (16.2s ->
        # ~3s at sf0.1). Path-equal to the cogroup fallback (tested).
        (pdf,) = pulled
        involved_ids = set(int(x) for x in pdf["doc_a"]) | set(int(x) for x in pdf["doc_b"])
        ids_ref = ray.put(involved_ids)

        def keep_involved(df: pd.DataFrame) -> pd.DataFrame:
            ids = cached_object(ids_ref)
            m = df["doc_id"].map(lambda d: int(d) in ids)
            return df.loc[m, ["doc_id", "source"]]

        src_map_df = docs.map_batches(keep_involved, batch_format="pandas").to_pandas()
        smap = {int(d): str(s) for d, s in zip(src_map_df["doc_id"], src_map_df["source"])}
        a = pdf["doc_a"].map(lambda d: smap[int(d)])
        b = pdf["doc_b"].map(lambda d: smap[int(d)])
        out = pd.DataFrame(
            {"source_lo": np.minimum(a, b), "source_hi": np.maximum(a, b)}
        )
        return finish(
            out.groupby(["source_lo", "source_hi"], as_index=False)
            .size()
            .rename(columns={"size": "n_pairs"}),
            ["source_lo", "source_hi"],
            dtypes={"n_pairs": "int64"},
        )

    def a_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": df["doc_a"].astype("int64"), "doc_b": df["doc_b"].astype("int64")}
        )

    j1 = cogroup_join(pairs.map_batches(a_rows, batch_format="pandas"), docs, "doc_id")

    def b_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": df["doc_b"].astype("int64"), "source_a": df["source"].astype(str)}
        )

    j2 = cogroup_join(j1.map_batches(b_rows, batch_format="pandas"), docs, "doc_id")

    def matrix_rows(df: pd.DataFrame) -> pd.DataFrame:
        df = df.dropna(subset=["source_a", "source"])
        a = df["source_a"].astype(str)
        b = df["source"].astype(str)
        return pd.DataFrame({"source_lo": np.minimum(a, b), "source_hi": np.maximum(a, b)})

    return finish(
        bucketed_aggregate(
            j2.map_batches(matrix_rows, batch_format="pandas"),
            ["source_lo", "source_hi"],
            {"n_pairs": ("source_lo", "count")},
        ).to_pandas(),
        ["source_lo", "source_hi"],
        dtypes={"n_pairs": "int64"},
    )


def source_pair_matrix_sql(threshold_pct: int = 70) -> str:
    return f"""
WITH prs AS (SELECT doc_a, doc_b FROM ({MINHASH_DEDUP_SQL.rstrip()}) __mh)
SELECT LEAST(da.source, db.source) AS source_lo,
       GREATEST(da.source, db.source) AS source_hi,
       COUNT(*) AS n_pairs
FROM prs
JOIN documents da ON da.doc_id = prs.doc_a
JOIN documents db ON db.doc_id = prs.doc_b
GROUP BY 1, 2
ORDER BY source_lo, source_hi
"""


def doc_gram_novelty(sf_dir: str, n: int = 3) -> pa.Table:
    """Per-doc n-gram NOVELTY against everything with a SMALLER
    doc_id — "what does this doc contribute that the corpus didn't
    already have" under snapshot/crawl ordering (the attribution twin
    of :func:`doc_dup_span_stats`, which asks the orderless
    duplicated-fraction question). A gram is credited ONCE, to its
    minimum doc_id.

    Same two-slim-shuffle plan as dup-span: explode DISTINCT
    (gram, doc_id) rows co-partitioned on gram (per-doc totals emitted
    locally at explode time — the explode sees the whole doc);
    per-bucket the min-doc fold credits each gram and
    pre-aggregates per winner; a final coarse-bucket aggregate sums
    credits and joins them back to the totals on one key. No pair
    emission anywhere."""

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        grams, ids = [], []
        tot_ids, tot_ns = [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            gset = word_gram_set(text, n)
            grams.extend(gset)
            ids.extend([doc_id] * len(gset))
            if gset:  # a blank doc has no grams, so no totals row (as in SQL)
                tot_ids.append(doc_id)
                tot_ns.append(len(gset))
        # totals ride as gram='' rows (never a real gram)
        grams.extend([""] * len(tot_ids))
        ids.extend(tot_ids)
        return pa.table(
            {
                "gram": pa.array(grams, pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
                "n_val": pa.array(
                    [1] * (len(ids) - len(tot_ns)) + tot_ns, pa.int64()
                ),
            }
        )

    exploded = docs.map_batches(explode, batch_format="pyarrow")

    def credit_bucket(g: pd.DataFrame) -> pd.DataFrame:
        is_tot = g["gram"] == ""
        t = g[is_tot].groupby("doc_id", as_index=False)["n_val"].sum()
        c = g[~is_tot].groupby("gram", sort=False)["doc_id"].min().value_counts()
        return pd.concat(
            [
                pd.DataFrame(
                    {"doc_id": t["doc_id"].astype("int64"), "kind": "tot", "cnt": t["n_val"].astype("int64")}
                ),
                pd.DataFrame(
                    {"doc_id": c.index.astype("int64"), "kind": "nov", "cnt": c.to_numpy().astype("int64")}
                ),
            ],
            ignore_index=True,
        )

    folded = (
        bucketed_aggregate(
            co_partition(exploded, ["gram"], credit_bucket),
            ["doc_id", "kind"],
            {"cnt": ("cnt", "sum")},
        )
        .to_pandas()
    )
    tot = folded[folded["kind"] == "tot"].set_index("doc_id")["cnt"]
    nov = folded[folded["kind"] == "nov"].set_index("doc_id")["cnt"]
    out = pd.DataFrame(
        {
            "doc_id": tot.index.astype("int64"),
            "n_grams": tot.to_numpy().astype("int64"),
        }
    )
    out["n_novel"] = out["doc_id"].map(nov).fillna(0).astype("int64")
    out["novelty_milli"] = (1000 * out["n_novel"]) // out["n_grams"].clip(lower=1)
    return finish(out, "doc_id")


DOC_GRAM_NOVELTY_SQL = """
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
firsts AS (SELECT gram, MIN(doc_id) AS doc_id FROM grams GROUP BY gram),
tot AS (SELECT doc_id, COUNT(*) AS n_grams FROM grams GROUP BY doc_id),
nov AS (SELECT doc_id, COUNT(*) AS n_novel FROM firsts GROUP BY doc_id)
SELECT t.doc_id, t.n_grams,
       CAST(COALESCE(n.n_novel, 0) AS BIGINT) AS n_novel,
       (1000 * CAST(COALESCE(n.n_novel, 0) AS BIGINT)) // GREATEST(t.n_grams, 1)
         AS novelty_milli
FROM tot t LEFT JOIN nov n USING (doc_id)
ORDER BY t.doc_id
"""


def simhash_pair_histogram(sf_dir: str) -> pa.Table:
    """Hamming-distance histogram over all CONSECUTIVE-ID document
    pairs (2k, 2k+1) — the simhash-space calibration table read before
    choosing a near-dup ``max_hamming`` cut (the fingerprint-family
    mirror of embed_pair_histogram: ids carry no semantics, so
    consecutive pairing is an unbiased corpus-wide sample at half the
    corpus cardinality).

    Scale shape: each doc collapses to ONE slim (pair, side, simhash)
    int64 row at the map (the text never leaves the batch), pairs meet
    co-partitioned on the pair id, per-bucket popcount is a vectorized
    byte-LUT fold, and only the <=65-row histogram leaves."""

    lut = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)

    def to_sides(batch: pa.Table) -> pd.DataFrame:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        sims = simhash64_batch(batch["text"].to_pylist())
        signed = np.array(
            [s - (1 << 64) if s >= (1 << 63) else s for s in sims], dtype=np.int64
        )
        return pd.DataFrame({"pair": ids // 2, "side": ids % 2, "simhash": signed})

    def hamming_bucket(g: pd.DataFrame) -> pd.DataFrame:
        w = g.pivot_table(index="pair", columns="side", values="simhash", aggfunc="first")
        if 0 not in w.columns or 1 not in w.columns:
            return pd.DataFrame(
                {"hamming": pd.Series(dtype="int64"), "n_pairs": pd.Series(dtype="int64")}
            )
        w = w.dropna(subset=[0, 1])  # odd corpus tail: unpaired last id
        x = (
            w[0].to_numpy().astype(np.int64).view(np.uint64)
            ^ w[1].to_numpy().astype(np.int64).view(np.uint64)
        )
        ham = lut[x.view(np.uint8).reshape(-1, 8)].sum(axis=1)
        vc = pd.Series(ham).value_counts()
        return pd.DataFrame(
            {
                "hamming": vc.index.astype("int64"),
                "n_pairs": vc.to_numpy().astype("int64"),
            }
        )

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return finish(
        bucketed_aggregate(
            co_partition(
                ds.map_batches(to_sides, batch_format="pyarrow"), ["pair"], hamming_bucket
            ),
            ["hamming"],
            {"n_pairs": ("n_pairs", "sum")},
        ).to_pandas(),
        "hamming",
        dtypes={"hamming": "int64", "n_pairs": "int64"},
    )


SIMHASH_PAIR_HISTOGRAM_SQL = _SIMHASH_SIG_CTE + """
SELECT bit_count(xor(a.s, b.s)) AS hamming, COUNT(*) AS n_pairs
FROM sig a
JOIN sig b ON (a.doc_id // 2) = (b.doc_id // 2)
          AND a.doc_id % 2 = 0 AND b.doc_id % 2 = 1
GROUP BY 1
ORDER BY 1
"""


def dedup_prefix_groups(sf_dir: str, prefix_len: int = 64) -> pa.Table:
    """Shared-prefix duplicate census: groups of documents whose first
    ``prefix_len`` characters are byte-identical — the
    truncation-artifact / boilerplate-header detector (a crawler that
    clips pages mid-stream, or a template that prepends the same
    banner, shows up here long before full-text dedup finds anything).
    One row per group with more than one member: md5 of the prefix,
    member count, smallest doc_id (the canonical keep).

    Scale shape: each doc collapses to ONE slim (prefix_md5, doc_id)
    row at the map (the text never leaves the batch, the prefix never
    ships raw), folded through the bucketed aggregate; only >1 groups
    leave."""

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def prefixes(batch: pa.Table) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "pmd5": [
                    hashlib.md5(t[:prefix_len].encode()).hexdigest()
                    for t in batch["text"].to_pylist()
                ],
                "doc_id": batch["doc_id"].to_pylist(),
            }
        )

    return finish(
        bucketed_aggregate(
            ds.map_batches(prefixes, batch_format="pyarrow"),
            ["pmd5"],
            {"n_docs": ("doc_id", "count"), "min_doc_id": ("doc_id", "min")},
        )
        .map_batches(lambda df: df[df["n_docs"] > 1], batch_format="pandas")
        .to_pandas(),
        "pmd5",
        columns=["pmd5", "n_docs", "min_doc_id"],
        dtypes={"n_docs": "int64", "min_doc_id": "int64"},
        empty=pa.schema({"pmd5": pa.string(), "n_docs": pa.int64(), "min_doc_id": pa.int64()}),
    )


def dedup_prefix_groups_sql(prefix_len: int = 64) -> str:
    return f"""
SELECT md5(substr(text, 1, {prefix_len})) AS pmd5,
       COUNT(*) AS n_docs,
       CAST(MIN(doc_id) AS BIGINT) AS min_doc_id
FROM documents
GROUP BY md5(substr(text, 1, {prefix_len}))
HAVING COUNT(*) > 1
ORDER BY pmd5
"""


DEDUP_PREFIX_GROUPS_SQL = dedup_prefix_groups_sql()
