"""Key co-partitioning: the one place a shuffle bucket is computed.

:func:`co_partition` is the engine's only hash shuffle. It tags every
row with a private bucket column, ``hash(keys) mod n``; runs
ONE Ray sort over that column (a tiny key domain, so the sort
shuffle is cheap and every group gets substantial work); and calls
``fn`` once per bucket. Every row with a given key value lands in the
same bucket, so ``fn`` does the real per-key work (merge, windowing,
aggregation) vectorized in pandas. Same all-to-all data movement as a
native groupby, without Ray's per-distinct-group overhead: a 1.3M-row
/ 1M-group native ``groupby(...).aggregate(...)`` (Ray 2.49,
sort-based) did not finish in 5 minutes on 32 cpus (measured in this
repo); through this pattern it takes ~2s. :func:`bucketed_aggregate`
and ``joins.cogroup_join`` are thin wrappers over it.

Two forms, one shuffle. ``co_partition(ds, keys, fn)`` hands ``fn``
one pandas frame per bucket in ``ds``'s block format. A join names its
sides, ``co_partition({"e": edges, "o": outdeg}, keys, fn)``, and
``fn`` gets one frame per side with that side's own columns and
dtypes. The side tag, the union and the per-bucket split live here:
each side's block travels as one row per bucket holding that bucket's
rows as an Arrow IPC stream, so the sides share one schema, the union
needs no padding, and an int64 column stays exact int64.

Combiner: :func:`bucketed_aggregate` pre-aggregates every block by its
keys before the shuffle (sum/min/max, row counts for 'count'), so the
shuffle carries at most one row per key per block and callers feed it
plain rows; each bucket merges the partials, a 'count' as the sum of
the partial counts.

Bucket count: ``8 x cluster CPUs`` (:func:`_n_buckets`), the same
CPU source ``frontier.crawler.RayCrawler`` sizes its shard groups from. At
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
_SIDE = "__co_side"
_ROWS = "__co_rows"
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
    ds: ray.data.Dataset | dict[str, ray.data.Dataset],
    keys: list[str],
    fn: Callable[..., pd.DataFrame],
) -> ray.data.Dataset:
    """Hash-partition ``ds`` on ``keys`` into :func:`_n_buckets` buckets
    and return the union of ``fn``'s frames over all buckets (rows of
    one key value are never split across calls).

    A Dataset: ``fn(frame)`` sees every row of its bucket with ``ds``'s
    columns, as a pandas frame of ``ds``'s own block format.

    A dict of named Datasets (the sides of a join, each holding the
    ``keys`` columns): ``fn(sides)`` gets a dict with one pandas frame
    per name, holding that side's rows of the bucket, only its columns,
    with its own dtypes (an int64 column stays exact int64 unless that
    side holds a null in it). A side with no rows in the bucket gets an
    empty frame with its columns and dtypes. A side with no rows at all
    has no columns to give (Ray runs no map on an empty block), so its
    frames are empty and have no columns.

    ``fn`` is never called on a bucket without rows: not on an empty
    frame, not on a frame without columns, and in the named form not
    with every side empty. An input without rows yields no rows."""
    n_buckets = _n_buckets()
    if isinstance(ds, dict):
        return _co_partition_sides(ds, keys, fn, n_buckets)

    def tag(block: pa.Table | pd.DataFrame) -> pa.Table | pd.DataFrame:
        # blocks keep their format
        if isinstance(block, pa.Table):
            ids = _bucket_ids(block.select(keys).to_pandas(), keys, n_buckets)
            # blocks of one shuffle may differ only in their pandas
            # metadata; Ray would warn when it unifies their schemas
            block = block.replace_schema_metadata(None)
            return block.append_column(_BUCKET, pa.array(ids, pa.int32()))
        return block.assign(**{_BUCKET: _bucket_ids(block, keys, n_buckets)})

    def run(g: pd.DataFrame):
        del g[_BUCKET]
        return fn(g)

    tagged = ds.map_batches(tag, batch_format=None)
    return tagged.groupby(_BUCKET).map_groups(run, batch_format="pandas")


def _co_partition_sides(
    sides: dict[str, ray.data.Dataset],
    keys: list[str],
    fn: Callable[[dict[str, pd.DataFrame]], pd.DataFrame],
    n_buckets: int,
) -> ray.data.Dataset:
    """The named form of :func:`co_partition`.

    Each side's map packs every block into one row per bucket: the side
    tag, the bucket and the bucket's rows as an Arrow IPC stream, which
    carries the side's schema even when it holds no rows. All sides
    then share one three-column schema, so the union needs no padding,
    and no dtype depends on the block type Ray's sort merges in (it
    takes the most common one, and a pandas merge turns an int64 column
    with nulls into float64). Every block writes every bucket, so every
    reduce task holds each side's schema, and a side without rows in a
    bucket still reaches ``fn`` typed."""
    names = list(sides)

    def tagger(i: int):
        def tag(t: pa.Table) -> pa.Table:
            ids = _bucket_ids(t.select(keys).to_pandas(), keys, n_buckets)
            order = np.argsort(ids, kind="stable")
            bounds = np.searchsorted(ids[order], np.arange(n_buckets + 1))
            t = t.replace_schema_metadata(None).take(order)
            return pa.table(
                {
                    _SIDE: np.full(n_buckets, i, np.int8),
                    _BUCKET: np.arange(n_buckets, dtype=np.int32),
                    _ROWS: pa.array(
                        [_ipc(t.slice(lo, hi - lo)) for lo, hi in zip(bounds[:-1], bounds[1:])],
                        pa.large_binary(),
                    ),
                }
            )

        return tag

    def run(block: pa.Table):
        # a reduce block holds whole buckets, sorted by bucket
        bucket = block[_BUCKET].to_numpy()
        side = block[_SIDE].to_numpy()
        rows = block[_ROWS]
        starts = np.flatnonzero(np.diff(bucket, prepend=-1))
        for lo, hi in zip(starts, [*starts[1:], len(bucket)]):
            parts = {
                name: [
                    pa.ipc.open_stream(rows[j].as_buffer()).read_all()
                    for j in range(lo, hi)
                    if side[j] == i
                ]
                for i, name in enumerate(names)
            }
            frames = {
                name: pa.concat_tables(p, promote_options="permissive").to_pandas()
                if p
                else pd.DataFrame()
                for name, p in parts.items()
            }
            if any(len(f) for f in frames.values()):
                yield fn(frames)

    tagged = [
        sides[name].map_batches(tagger(i), batch_format="pyarrow") for i, name in enumerate(names)
    ]
    unioned = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return unioned.sort(_BUCKET).map_batches(run, batch_size=None, batch_format="pyarrow")


def _ipc(t: pa.Table) -> bytes:
    """``t`` as one Arrow IPC stream (schema included)."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as writer:
        writer.write_table(t)
    return sink.getvalue().to_pybytes()


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
        return block.groupby(keys, sort=False, dropna=False).agg(**combine).reset_index()

    # the combine is the map that turns blocks into pandas before the
    # shuffle: one conversion per block instead of one per bucket
    return co_partition(
        ds.map_batches(partials, batch_format="pandas"),
        keys,
        lambda g: g.groupby(keys, sort=False, dropna=False).agg(**merge).reset_index(),
    )


def quantiles_disc(values, counts, qs) -> list:
    """DuckDB's ``quantile_disc(x, q)`` for each q in ``qs``, over the
    multiset where ``values[i]`` occurs ``counts[i]`` times (a count
    histogram, any order, every count positive). The element at
    ``ceil(q*n)-1`` of the sorted multiset is the first value whose
    cumulative count reaches ``ceil(q*n)`` (at least 1), so q=1 gives
    the max. An empty histogram gives ``None`` for each q, as the SQL
    gives NULL over no rows."""
    values, counts = np.asarray(values), np.asarray(counts)
    if not len(values):
        return [None] * len(qs)
    order = np.argsort(values, kind="stable")
    vals, cum = values[order], np.cumsum(counts[order])
    return [vals[np.searchsorted(cum, max(1, int(np.ceil(q * cum[-1]))))].item() for q in qs]


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
