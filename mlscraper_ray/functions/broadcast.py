"""The broadcast side of a join: which inputs are pulled to the driver,
and the worker-process cache of what is then broadcast.

:func:`pull` is the engine's one broadcast-or-shuffle rule. Every
operator that can either pull a small side to the driver (and
``ray.put`` it, or finish on the driver) or send it through the
``bucketed.co_partition`` fallback asks :func:`pull` with the Datasets
it would pull. A shuffle pays a fixed cost per partition that a small
side should not pay, so the cut-over is a property of the data's
size, not a per-query setting: the inputs are pulled when their
combined in-memory size is at most :data:`_MAX_PULL_BYTES`, and
otherwise the caller shuffles.

``ray.get()`` of a non-zero-copy object (a Python set / dict of
strings) DESERIALIZES it on every call, so a per-batch
``ray.get(ref)`` inside ``map_batches`` pays the full unpickle per
task invocation — for a 2M-entry broadcast set that is ~100 MB of
set rebuild per batch, easily dominating the batch's real
work. (numpy arrays come back zero-copy from the object store and
don't need this — the similarity/centroid broadcasts are fine as-is.)

``cached_object`` memoizes the deserialized value per worker process,
keyed by the object-ref hex — the ``_STAGE_CACHE`` idiom the crawl
stages already use for corpus readers and compiled plans. The cache
is capped with least-recently-used eviction so a long session touching
many broadcasts cannot accumulate every one of them in worker heap.
"""
from __future__ import annotations

from collections import OrderedDict

import pandas as pd
import ray
import ray.data

# Bounds what one pull puts in driver and object-store memory. Bytes,
# not rows: the pulled rows range from narrow dimension keys to whole
# document texts. 256 MiB leaves room for a few pulls and their
# ``ray.put`` copies at once; the sf0.1 ``documents`` table is 1.6 MB.
_MAX_PULL_BYTES = 256 * 1024 * 1024

_CACHE: OrderedDict[str, object] = OrderedDict()
_CACHE_MAX = 4


def cached_object(ref):
    """Deserialized value of ``ref``, memoized per worker process."""
    key = ref.hex()
    if key in _CACHE:
        _CACHE.move_to_end(key)
        return _CACHE[key]
    obj = ray.get(ref)
    _CACHE[key] = obj
    while len(_CACHE) > _CACHE_MAX:
        _CACHE.popitem(last=False)
    return obj


def _pulled_bytes(ds: ray.data.Dataset) -> int:
    """In-memory size of ``ds`` from metadata (0 for an empty input).
    ``Dataset.size_bytes()`` would run a lazy plan to size it."""
    meta = ds._logical_plan.dag.infer_metadata()
    if meta.size_bytes is None:
        raise ValueError(
            "broadcast.pull sizes its inputs from metadata: pass a materialized "
            "Dataset or a plain read, not a lazy plan that sizing would run"
        )
    return 0 if meta.num_rows == 0 else meta.size_bytes


def pull(*datasets: ray.data.Dataset) -> list[pd.DataFrame] | None:
    """The inputs as pandas frames when their combined size is at most
    :data:`_MAX_PULL_BYTES`, else ``None`` (the caller shuffles)."""
    if sum(_pulled_bytes(ds) for ds in datasets) > _MAX_PULL_BYTES:
        return None
    return [ds.to_pandas() for ds in datasets]
