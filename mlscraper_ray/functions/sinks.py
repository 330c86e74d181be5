"""The resumable partitioned parquet sink every ``*_to_parquet`` twin
writes through.

Output is partitioned into ``shard=NNNN/`` directories, each committed
by a ``_SUCCESS`` marker written after its parquet (marker-last). A
run makes ONE pass over its lazy Dataset:

1. shards that already carry a marker are finished and skipped; every
   other shard directory is wiped (partial output of a crashed run);
2. the pass tags each row with its zero-padded shard from the sink's
   row-to-shard rule, drops rows of finished shards and writes the
   rest with Ray's hive-partitioned parquet write (``shard`` becomes
   the directory, it is not stored in the files). A column named
   ``__*`` is a routing key the rule may read; it is not written
   either;
3. each pending shard directory is created (the partitioned write
   makes none for a shard without rows) and its marker written last.

A run killed anywhere before step 3 completes leaves the unwritten
shards unmarked, so the next run with the same ``out_dir`` rewrites
exactly those — a failed 100 TB job resumes at shard granularity
instead of restarting, and output is never one giant file. The
row-to-shard rule must not change between runs: a shard committed by
one run is never rewritten by the next.

The digest-keyed caches (the page-facet table, the search indexes, the
truth-oracle SQL) call :func:`prune_stale` once they commit an entry,
so an entry left behind by an older digest is deleted, not kept.
"""
from __future__ import annotations

import contextlib
import os
import re
import shutil
import zlib
from collections.abc import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

ShardRule = Callable[[pa.Table], Sequence[int]]


def _shard_dir(out_dir: str, s: int) -> str:
    return os.path.join(out_dir, f"shard={s:04d}")


def _marker(out_dir: str, s: int) -> str:
    return os.path.join(_shard_dir(out_dir, s), "_SUCCESS")


def all_shards_done(out_dir: str, n_shards: int) -> bool:
    """True when every shard's ``_SUCCESS`` marker exists — for sinks
    that do eager work before the write (a fully finished resume must
    cost nothing)."""
    return all(os.path.exists(_marker(out_dir, s)) for s in range(n_shards))


def crc32_shard(col: str, n_shards: int) -> ShardRule:
    """Shard rule of the sinks keyed on one column:
    ``crc32(str(key)) % n_shards`` — stable across processes, worker
    counts and library versions, and equal rows of ``col`` always
    share a shard."""

    def shard_of(t: pa.Table) -> list[int]:
        return [zlib.crc32(str(v).encode()) % n_shards for v in t[col].to_pylist()]

    return shard_of


def write_resumable(
    ds: ray.data.Dataset, shard_of: ShardRule, out_dir: str, n_shards: int
) -> dict:
    """Write ``ds`` into ``out_dir/shard=NNNN/`` by the per-row shard
    ids ``shard_of(batch)`` returns, skipping finished shards (see the
    module docstring). ``ds`` is executed only when a shard is
    pending. Returns ``{"written": n, "skipped": n}``."""
    pending = [s for s in range(n_shards) if not os.path.exists(_marker(out_dir, s))]
    if pending:
        for s in pending:
            shutil.rmtree(_shard_dir(out_dir, s), ignore_errors=True)
        wanted = np.zeros(n_shards, dtype=bool)
        wanted[pending] = True

        def tag(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t
            shards = np.asarray(shard_of(t), dtype=np.int64)
            keep = wanted[shards]
            names = pc.utf8_lpad(pa.array(shards[keep]).cast(pa.string()), 4, "0")
            t = t.filter(keep)
            routing = [c for c in t.column_names if c.startswith("__")]
            return t.drop_columns(routing).append_column("shard", names)

        ds.map_batches(tag, batch_format="pyarrow").write_parquet(
            out_dir, partition_cols=["shard"], row_group_size=4096
        )
        for s in pending:
            os.makedirs(_shard_dir(out_dir, s), exist_ok=True)
            with open(_marker(out_dir, s), "w") as f:
                f.write("")
    return {"written": len(pending), "skipped": n_shards - len(pending)}


def shard_files(out_dir: str, shard_ids: Sequence[int]) -> list[str]:
    """The parquet files of the given shards, in shard then name order
    (a shard without rows has none) — for readers that probe only the
    shards their keys hash to."""
    out = []
    for s in shard_ids:
        d = _shard_dir(out_dir, s)
        out += sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))
    return out


def prune_stale(path: str) -> None:
    """Delete the siblings of the just-committed cache entry ``path``,
    a file or tree named ``<prefix><10-hex digest><suffix>``: every
    entry with the same prefix and suffix and another digest of
    exactly that length (so ``_oracle_tiered_order_<d>.sql`` never
    matches ``_oracle_tiered_recrawl_order_<d>.sql``)."""
    parent, name = os.path.split(path)
    m = re.fullmatch(r"(.*)[0-9a-f]{10}(\.\w+)?", name)
    if m is None:
        raise ValueError(f"no 10-hex digest ends {name!r}")
    stale = re.compile(re.escape(m.group(1)) + r"[0-9a-f]{10}" + re.escape(m.group(2) or ""))
    for other in os.listdir(parent):
        if other != name and stale.fullmatch(other):
            victim = os.path.join(parent, other)
            if os.path.isdir(victim):
                shutil.rmtree(victim, ignore_errors=True)
            else:
                with contextlib.suppress(FileNotFoundError):  # a concurrent pruner
                    os.remove(victim)
