"""Key co-partitioning: the one place a shuffle bucket is computed.

:func:`co_partition` is the engine's only hash shuffle. It tags every
row with a private bucket column, ``hash(keys) mod n``; runs
ONE Ray ``groupby`` over that column (a tiny key domain, so the sort
shuffle is cheap and every group gets substantial work); and calls
``fn`` once per bucket on a pandas frame of the input columns. Every
row with a given key value lands in the same bucket, so ``fn`` does
the real per-key work (merge, windowing, aggregation) vectorized in
pandas. Same all-to-all data movement as a native groupby, without
Ray's per-distinct-group overhead: a 1.3M-row / 1M-group native
``groupby(...).aggregate(...)`` (Ray 2.49, sort-based) did not finish
in 5 minutes on 32 cpus (measured in this repo); through this pattern
it takes ~2s. :func:`bucketed_aggregate` and ``joins.cogroup_join``
are thin wrappers over it.

Combiner: :func:`bucketed_aggregate` pre-aggregates every block by its
keys before the shuffle (sum/min/max, row counts for 'count'), so the
shuffle carries at most one row per key per block and callers feed it
plain rows; each bucket merges the partials, a 'count' as the sum of
the partial counts.

Bucket count: ``8 x cluster CPUs`` (:func:`_n_buckets`), the same
CPU source ``frontier.crawler.RayCrawler`` sizes its actors from. At
corpus scale a shuffle's cost is per bucket, not per row, so the count
belongs to the cluster, not to the query; no caller can set it, and no
output depends on it (every key value lands in one bucket at any
count). There is no row term: a cheap row count exists only for a
pure read, not after the maps and unions that feed most shuffles.

Bucket rule: the bucket is a function of the key VALUES only. Numeric
keys (any int or float width, nullable or not) are hashed as float64
(``pd.util.hash_pandas_object``, deterministic and
process-independent), so 5 lands in the same bucket whether its
column is int32 or int64 and whether or not its block holds a null
(Ray turns a null-holding int column into float64 when it converts
an Arrow block to pandas). Nulls hash as NaN: one bucket, one group,
as in SQL ``GROUP BY``. Integers above 2**53 may share a float; that
only puts distinct keys in one bucket, never one key in two.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

_BUCKET = "__co_bucket"
_BUCKETS_PER_CPU = 8


def _n_buckets() -> int:
    """The shuffle width of every :func:`co_partition` call."""
    return _BUCKETS_PER_CPU * max(1, int(ray.cluster_resources().get("CPU", 1)))


def _bucket_ids(frame: pd.DataFrame, keys: list[str], n_buckets: int) -> np.ndarray:
    """Per-row bucket of ``keys`` under the module's bucket rule."""
    cols = {
        k: frame[k].astype("float64") if pd.api.types.is_numeric_dtype(frame[k]) else frame[k]
        for k in keys
    }
    hashes = pd.util.hash_pandas_object(pd.DataFrame(cols), index=False).to_numpy()
    return (hashes % n_buckets).astype(np.int32)


def co_partition(
    ds: ray.data.Dataset | list[ray.data.Dataset],
    keys: list[str],
    fn: Callable[[pd.DataFrame], pd.DataFrame],
) -> ray.data.Dataset:
    """Hash-partition ``ds`` on ``keys`` into :func:`_n_buckets` buckets
    and return the union of ``fn(bucket)`` over all buckets. ``fn`` sees a
    pandas frame holding every row of its bucket with ``ds``'s columns
    (rows of one key value are never split across calls).

    ``ds`` may be a list of Datasets with the same columns and block
    format (the sides of a join; Ray's sort shuffle asserts a single
    block type): each is tagged before the union. The tagging map
    fuses into each input's last map; after a union it would be a
    stage of its own."""
    n_buckets = _n_buckets()

    def tag(block: pa.Table | pd.DataFrame) -> pa.Table | pd.DataFrame:
        # blocks keep their format (empty ones may carry no columns)
        if isinstance(block, pa.Table):
            ids = _bucket_ids(block.select(keys).to_pandas(), keys, n_buckets) if block.num_rows else []
            # blocks of one shuffle may differ only in their pandas
            # metadata; Ray would warn when it unifies their schemas
            block = block.replace_schema_metadata(None)
            return block.append_column(_BUCKET, pa.array(ids, pa.int32()))
        ids = _bucket_ids(block, keys, n_buckets) if len(block) else np.zeros(0, np.int32)
        return block.assign(**{_BUCKET: ids})

    def run(g: pd.DataFrame):
        if _BUCKET in g.columns:
            del g[_BUCKET]
        return fn(g)

    tagged = [d.map_batches(tag, batch_format=None) for d in (ds if isinstance(ds, list) else [ds])]
    unioned = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return unioned.groupby(_BUCKET).map_groups(run, batch_format="pandas")


def bucketed_aggregate(
    ds: ray.data.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
) -> ray.data.Dataset:
    """Group ``ds`` by ``keys`` computing ``aggs`` (out_col -> (in_col,
    op), op in {sum, min, max, count}); 'count' counts rows. Returns a
    Dataset with columns keys + aggs; null keys form one group.

    Callers feed plain rows: every block is combined before the
    shuffle (grouped by ``keys`` with sum/min/max, and row counts for
    'count'), so the shuffle carries one row per key per block; each
    bucket then merges the partials (sum/min/max, a 'count' as the sum
    of its partial counts)."""
    combine = {
        out: pd.NamedAgg(column=col, aggfunc=("size" if op == "count" else op))
        for out, (col, op) in aggs.items()
    }
    merge = {
        out: pd.NamedAgg(column=out, aggfunc=("sum" if op == "count" else op))
        for out, (_, op) in aggs.items()
    }

    def partials(block: pd.DataFrame) -> pd.DataFrame:
        # a block with no columns passes through, as in co_partition's tag
        if not len(block.columns):
            return block
        return block.groupby(keys, sort=False, dropna=False).agg(**combine).reset_index()

    # the combine is the map that turns blocks into pandas before the
    # shuffle: one conversion per block instead of one per bucket
    return co_partition(
        ds.map_batches(partials, batch_format="pandas"),
        keys,
        lambda g: g.groupby(keys, sort=False, dropna=False).agg(**merge).reset_index(),
    )


def coalesce_blocks(ds: ray.data.Dataset, approx_rows: int) -> ray.data.Dataset:
    """Bound block count before feeding a sort/groupby round. Ray's
    sort shuffle pays per-INPUT-BLOCK plan/sample overhead, so a wide
    union of hundreds of tiny blocks costs far more in fixed overhead
    than in data movement — measured 31.8s for a 416-tiny-block
    existence-filter sort at sf0.1, ~1s after coalescing (see
    functions/pagerank.py). ``repartition(shuffle=False)`` is a local
    block merge (no all-to-all); target ~200k rows per block."""
    nb = max(8, min(256, approx_rows // 200_000 + 8))
    return ds.repartition(nb, shuffle=False)
