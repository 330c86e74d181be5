"""Distributed BSP crawl driver: rounds of
submit -> admit -> fetch/parse/extract -> link discovery -> checkpoint.

Structure per round k:

0. **shard groups**: the ``n_shards`` logical frontier shards
   (host -> shard is ``crc32(host) % n_shards``) are dealt round-robin
   to ``min(n_shards, cluster CPUs)`` groups. No process keeps a
   shard: each phase below is one plain Ray task per group, a pure
   function of the group's state bytes and candidate tables
   (``shard.load_group``). Every shard keeps its own state, so the
   crawl does not depend on the grouping, and a retried task returns
   or writes identical bytes.
1. **submit**: seeds (round 0 only) are read by one plain Ray task
   (``_seed_candidates``: the seeds file's min depth per url, through
   ``shard.route``), not a Ray Data job; round 0's admit submits
   them. Rounds >= 1 have no submit pass: the previous round's fetch
   tasks returned the links per group, and its checkpoint submitted
   them.
   Either way the shard round buffer resolves the global min depth
   per url (min is commutative, so this replaces a per-round
   all-to-all ``groupby(url).min(depth)`` with shard-local state;
   seen-set dedup + robots gating happen at the admit flush).
2. **admit**: one task per group (``shard.admit_group``) returns each
   member's politeness-admitted rows whole, one table per shard, then
   their row counts and the members' new state bytes. The tables stay
   in the object store: the driver sees only their refs and row
   counts, and no Dataset is built.
3. **fetch+parse+extract**: the driver lays the round's N admitted
   rows end to end in shard-id order and cuts them into
   ``k = max(1, N // _BATCH_ROWS)`` contiguous ranges (:func:`_cut`),
   so every range holds ``_BATCH_ROWS`` to ``2 * _BATCH_ROWS - 1``
   rows, or the whole round when it is smaller. Each range is one Ray
   task (:func:`_fetch_bundle`), handed the tables it overlaps and one
   ``(start, stop)`` slice per table; it runs
   ``fetch_parse_extract_task`` once over the range, writes
   ``out/rounds/round=K/results/part-{i:05d}.parquet`` and returns the
   discovered links per group. A round costs a few ms of task
   submission instead of a Ray Data job launch. html bytes live only
   inside this stage. The equal cut is the skew handling: per-host
   skew is bounded by the politeness budget on the owner shard, and a
   hot host's or hot shard's rows fall into consecutive ranges of
   equal size rather than into one task. The results files depend
   only on the admitted rows, not on the shard grouping or on task
   scheduling.
4. **checkpoint**: one task per group (``shard.checkpoint_group``)
   submits the round's links and snapshots every member (bloom +
   heaps + robots + counters) to
   ``out/checkpoint/round=K/shard-i.bin``; the driver writes
   ``MANIFEST.json`` last — the atomic commit point. Round K+1
   starts from those files.

Resume: :func:`RayCrawler.resume` loads the latest complete manifest
and starts round K+1 from its shard files — producing byte-identical
output to an uninterrupted run, under any grouping of shards
(tested).

Determinism: crawl order is a pure function of (corpus, seeds,
config). Ordering comes from data keys — (depth, warc_ts, url) heaps, per-host
token quotas, BSP barriers — never from task arrival order, so Ray's
scheduling nondeterminism cannot leak into results. The canonical
order is materialized by :func:`crawl_order` as
sort by (round, depth, host, url).
"""
from __future__ import annotations

import bisect
import glob
import json
import os
import re
import time

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from mlscraper_ray.frontier.config import CrawlConfig
from mlscraper_ray.frontier.shard import (
    FrontierShard, admit_group, checkpoint_group, group_members, group_of, group_stats, route,
)
from mlscraper_ray.functions.tables import finish
from mlscraper_ray.stages.crawl_stages import fetch_parse_extract_task

# the least rows per fetch task: a round is cut into tasks of
# _BATCH_ROWS to 2 * _BATCH_ROWS - 1 rows (one task when it is smaller)
_BATCH_ROWS = 256


def _batch_min_depth(batch: pa.Table, n_shards: int) -> pa.Table:
    """Candidate pre-dedup (min depth per url), routed to the shards
    (``shard.route``; seeds have warc_ts 0). The GLOBAL min-per-url is
    resolved inside the owning shard's round buffer — min is
    commutative, so no shuffle is needed; this pass just shrinks the
    submitted volume."""
    grouped = batch.group_by("url").aggregate([("depth", "min")])
    # select by NAME: aggregate output column order differed across
    # pyarrow versions (keys-first vs aggregates-first)
    urls, depths = grouped["url"].combine_chunks(), grouped["depth_min"].combine_chunks()
    return route(urls, depths, pa.repeat(pa.scalar(0, pa.int64()), len(urls)), n_shards)


def _cut(rows: list[int]) -> list[list[tuple[int, int, int]]]:
    """Cut the ``N = sum(rows)`` rows of tables laid end to end, in
    order, into ``k = max(1, N // _BATCH_ROWS)`` contiguous ranges at
    ``i * N // k``: every range holds ``_BATCH_ROWS`` to
    ``2 * _BATCH_ROWS - 1`` rows, or all N when ``N < _BATCH_ROWS``.
    Returns each range as its ``(table, start, stop)`` slices of the
    non-empty tables it overlaps."""
    n = sum(rows)
    k = max(1, n // _BATCH_ROWS)
    bounds = [i * n // k for i in range(k + 1)]
    ranges: list[list] = [[] for _ in range(k)]
    off = 0
    for t, r in enumerate(rows):
        if r:
            for i in range(bisect.bisect_right(bounds, off) - 1, bisect.bisect_left(bounds, off + r)):
                ranges[i].append((t, max(bounds[i], off) - off, min(bounds[i + 1], off + r) - off))
        off += r
    return ranges


def _round_dir(out_dir: str, k: int) -> str:
    return os.path.join(out_dir, "rounds", f"round={k}")


def _ckpt_dir(out_dir: str, k: int) -> str:
    return os.path.join(out_dir, "checkpoint", f"round={k}")


class RayCrawler:
    def __init__(self, corpus_dir: str, out_dir: str, config: CrawlConfig):
        self.corpus_dir = corpus_dir
        self.out_dir = out_dir
        self.cfg = config
        cpus = int(ray.cluster_resources().get("CPU", 4))
        # each phase runs one task per group, at most one group per
        # CPU: more tasks buy no parallelism
        self.members = group_members(config.n_shards, max(1, min(config.n_shards, cpus)))
        # each group's state for its next phase (see shard.load_group):
        # None on a fresh crawl, the latest checkpoint dir, or the ref
        # to its members' state bytes after an admit
        self._state: list = [None] * len(self.members)
        # each group's candidate tables (shard.route), submitted by its
        # next phase
        self._pending: list[list] = [[] for _ in self.members]

    def _group_args(self, g: int) -> tuple:
        # FrontierShard is looked up here at call time, so the benchmark's
        # tracer can swap in its instrumented subclass
        return FrontierShard, self.members[g], self.cfg.to_dict(), self.corpus_dir, self._state[g]

    # -- round primitives ----------------------------------------------
    def _submit_dataset(self, candidates: list[ray.ObjectRef]) -> None:
        """Hand every group the candidate (``shard.route``) table refs,
        once they are computed; its next phase submits its own members'
        rows."""
        ray.wait(candidates, num_returns=len(candidates))
        for pending in self._pending:
            pending.extend(candidates)

    def _admit(self) -> list[tuple[ray.ObjectRef, int]]:
        """Each shard's admitted rows, as (table ref, row count) in
        shard-id order, so the fetch stage's cut does not depend on the
        grouping."""
        calls = [
            _admit_task.options(num_returns=len(ids) + 2).remote(*self._group_args(g), *self._pending[g])
            for g, ids in enumerate(self.members)
        ]
        self._state = [out[-1] for out in calls]
        self._pending = [[] for _ in self.members]
        by_shard: dict[int, tuple] = {}
        for ids, out, rows in zip(self.members, calls, ray.get([out[-2] for out in calls])):
            by_shard.update(zip(ids, zip(out[:-2], rows)))
        return [by_shard[sid] for sid in sorted(by_shard)]

    def _fetch_extract(self, admitted: list[tuple[ray.ObjectRef, int]], k: int) -> str:
        results_dir = os.path.join(_round_dir(self.out_dir, k), "results")
        os.makedirs(results_dir, exist_ok=True)
        kwargs = {
            "corpus_dir": self.corpus_dir,
            "n_buckets": self.cfg.n_buckets,
            "plan": self.cfg.plan,
            "round_k": k,
        }
        n_groups = len(self.members)
        # one task per range of the round's equal cut (_cut), handed the
        # admitted tables it overlaps and its slice of each; the fetch
        # function is looked up here at call time, so the benchmark's
        # tracer can swap in its instrumented stand-in
        refs = [ref for ref, _ in admitted]
        calls = [
            _fetch_bundle.options(num_returns=1 + n_groups).remote(
                fetch_parse_extract_task,
                os.path.join(results_dir, f"part-{i:05d}.parquet"),
                kwargs,
                self.cfg.n_shards,
                n_groups,
                [(start, stop) for _, start, stop in slices],
                *(refs[t] for t, _, _ in slices),
            )
            for i, slices in enumerate(_cut([rows for _, rows in admitted]))
        ]
        ray.get([out[0] for out in calls])
        # round k+1's candidates stay in the object store, one table
        # per (task, group), until the groups' checkpoint tasks
        for g, pending in enumerate(self._pending):
            pending.extend(out[1 + g] for out in calls)
        return results_dir

    def _round_pages(self, k: int) -> dict:
        """Round k's fetch-stage counters, read back from its results:
        fetched pages that fell back from the scan to the tree path,
        and the html fetched, in MB."""
        import pyarrow.compute as pc

        n_fallback = n_bytes = 0
        for path in glob.glob(os.path.join(_round_dir(self.out_dir, k), "results", "*.parquet")):
            t = pq.read_table(path, columns=["scan_fallback", "html_bytes"])
            n_fallback += pc.sum(t["scan_fallback"]).as_py() or 0
            n_bytes += pc.sum(t["html_bytes"]).as_py() or 0
        return {"pages_fallback": n_fallback, "html_mb": round(n_bytes / 1e6, 3)}

    def _round_lineage(self, k: int) -> dict:
        """Per-partition lineage for round k: every results file with
        its row count and content hash, so a resume (or an auditor) can
        check exactly which partitions are complete and unchanged."""
        import hashlib

        files = []
        for path in sorted(
            glob.glob(os.path.join(_round_dir(self.out_dir, k), "results", "*.parquet"))
        ):
            h = hashlib.sha256()
            with open(path, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
            files.append(
                {
                    "file": os.path.basename(path),
                    "bytes": os.path.getsize(path),
                    "rows": pq.read_metadata(path).num_rows,
                    "sha256": h.hexdigest(),
                }
            )
        return {"results_files": files, "n_rows": sum(f["rows"] for f in files)}

    def _checkpoint(self, k: int, round_stats: dict) -> None:
        ckpt = _ckpt_dir(self.out_dir, k)
        os.makedirs(ckpt, exist_ok=True)
        by_shard: dict[int, dict] = {}
        for part in ray.get([
            _checkpoint_task.remote(*self._group_args(g), ckpt, *self._pending[g])
            for g in range(len(self.members))
        ]):
            by_shard.update(part)
        self._state = [ckpt] * len(self.members)
        self._pending = [[] for _ in self.members]
        counters = [by_shard[i] for i in range(self.cfg.n_shards)]
        manifest = {
            "round": k,
            "config": self.cfg.to_dict(),
            "round_stats": round_stats,
            "shard_counters": counters,
            "n_shards": self.cfg.n_shards,
            "lineage": self._round_lineage(k),
        }
        tmp = os.path.join(ckpt, "MANIFEST.json.tmp")
        with open(tmp, "w") as f:
            json.dump(manifest, f, sort_keys=True)
        os.replace(tmp, os.path.join(ckpt, "MANIFEST.json"))
        self._prune_checkpoints()

    def _prune_checkpoints(self) -> None:
        """Retention policy (config.keep_checkpoints): after a commit,
        drop all but the newest K COMPLETE checkpoints. Pruning only
        ever runs AFTER the new manifest is in place, so a crash
        mid-prune still leaves a complete latest checkpoint to resume
        from; manifest-less (crashed) round dirs are left for resume's
        partial-output cleanup."""
        keep = self.cfg.keep_checkpoints
        if keep <= 0:
            return
        import shutil

        complete = sorted(
            int(os.path.basename(os.path.dirname(m)).split("=")[1])
            for m in glob.glob(
                os.path.join(self.out_dir, "checkpoint", "round=*", "MANIFEST.json")
            )
        )
        for old in complete[:-keep]:
            shutil.rmtree(_ckpt_dir(self.out_dir, old), ignore_errors=True)

    # -- main loop ------------------------------------------------------
    def run(self, seeds_path: str | None = None, start_round: int = 0) -> dict:
        os.makedirs(self.out_dir, exist_ok=True)
        # sec_seed_submit is the seed read-and-route task (round 0's
        # admit submits the seeds); it stays 0 when a resumed run skips
        # round 0
        stats: dict = {"rounds": [], "shard_groups": len(self.members), "sec_seed_submit": 0.0}
        for k in range(start_round, self.cfg.max_rounds):
            if k == 0:
                t0 = time.monotonic()
                # seeds are the only candidates that enter through a
                # dedicated submit pass; rounds >= 1 get their candidates
                # from the previous round's fetch tasks, submitted at its
                # checkpoint (round buffers are part of the checkpoint,
                # so resume needs no re-read either)
                seeds = _seed_candidates.remote(
                    seeds_path or os.path.join(self.corpus_dir, "seeds.parquet"), self.cfg.n_shards
                )
                self._submit_dataset([seeds])
                stats["sec_seed_submit"] = round(time.monotonic() - t0, 3)
            t0 = time.monotonic()
            admitted = self._admit()
            t_admit = time.monotonic() - t0
            n_admitted = sum(rows for _, rows in admitted)
            if n_admitted == 0:
                break
            t0 = time.monotonic()
            self._fetch_extract(admitted, k)
            t_fetch = time.monotonic() - t0
            t0 = time.monotonic()
            round_stats = {
                "round": k,
                "admitted": n_admitted,
                "sec_admit": round(t_admit, 3),
                "sec_fetch_extract": round(t_fetch, 3),
                **self._round_pages(k),
            }
            stats["rounds"].append(round_stats)
            self._checkpoint(k, round_stats)
            round_stats["sec_checkpoint"] = round(time.monotonic() - t0, 3)
        by_shard: dict[int, tuple[int, dict]] = {}
        for part in ray.get([
            _stats_task.remote(*self._group_args(g)) for g in range(len(self.members))
        ]):
            by_shard.update(part)
        stats["seen"] = sum(seen for seen, _ in by_shard.values())
        stats["counters"] = {}
        for i in range(self.cfg.n_shards):
            for key, value in by_shard[i][1].items():
                stats["counters"][key] = stats["counters"].get(key, 0) + value
        with open(os.path.join(self.out_dir, "metrics.json"), "w") as f:
            json.dump(stats, f, sort_keys=True)
        return stats

    # -- resume ---------------------------------------------------------
    @classmethod
    def latest_complete_round(cls, out_dir: str) -> int | None:
        rounds = []
        for path in glob.glob(os.path.join(out_dir, "checkpoint", "round=*", "MANIFEST.json")):
            m = re.search(r"round=(\d+)", path)
            if m:
                rounds.append(int(m.group(1)))
        return max(rounds) if rounds else None

    @classmethod
    def resume(cls, corpus_dir: str, out_dir: str) -> "tuple[RayCrawler, int]":
        k = cls.latest_complete_round(out_dir)
        assert k is not None, "no complete checkpoint to resume from"
        ckpt = _ckpt_dir(out_dir, k)
        with open(os.path.join(ckpt, "MANIFEST.json")) as f:
            manifest = json.load(f)
        crawler = cls(corpus_dir, out_dir, CrawlConfig.from_dict(manifest["config"]))
        crawler._state = [ckpt] * len(crawler.members)
        # discard any partial output after the checkpointed round
        for rd in glob.glob(os.path.join(out_dir, "rounds", "round=*")):
            m = re.search(r"round=(\d+)", rd)
            if m and int(m.group(1)) > k:
                import shutil

                shutil.rmtree(rd)
        return crawler, k + 1


@ray.remote
def _seed_candidates(path: str, n_shards: int) -> pa.Table:
    """The seeds file's candidates, routed (:func:`_batch_min_depth`)."""
    return _batch_min_depth(pq.read_table(path, columns=["url", "depth"]), n_shards)


_admit_task = ray.remote(admit_group)
_checkpoint_task = ray.remote(checkpoint_group)
_stats_task = ray.remote(group_stats)


@ray.remote
def _fetch_bundle(fetch_fn, path: str, kwargs: dict, n_shards: int, n_groups: int,
                  slices: list[tuple[int, int]], *parts: pa.Table) -> tuple:
    """One fetch task: run ``fetch_fn`` once over the ``(start, stop)``
    slices of the parts, laid end to end, and write the results to
    ``path`` through a tmp file, so a rerun task rewrites identical
    bytes. Returns the row count, then one :func:`shard.route` table
    of the discovered links per shard group: each link at the
    discovering page's depth + 1 and capture time (the warc_ts
    component of the frontier priority key)."""
    import pyarrow.compute as pc

    out = fetch_fn(
        pa.concat_tables([p.slice(start, stop - start) for p, (start, stop) in zip(parts, slices)]),
        **kwargs,
    )
    tmp = path + ".tmp"
    pq.write_table(out, tmp)
    os.replace(tmp, path)
    page = pc.list_parent_indices(out["links"])
    links = route(
        pc.list_flatten(out["links"]).combine_chunks(),
        pc.add(out["depth"].take(page), 1).combine_chunks(),
        pc.cast(out["warc_ts"], pa.int64()).fill_null(0).take(page).combine_chunks(),
        n_shards,
    )
    group = group_of(links["shard"].to_numpy(), n_groups)
    return out.num_rows, *(links.filter(pa.array(group == g)) for g in range(n_groups))


# crawl order columns: the results' sort key, then the global rank
_ORDER_SCHEMA = pa.schema(
    [("round", pa.int32()), ("depth", pa.int32()), ("host", pa.string()),
     ("url", pa.string()), ("rank", pa.int64())]
)


@ray.remote
def _rank_block(block: pa.Table, offset: int) -> pa.Table:
    import numpy as np

    return block.append_column(
        "rank", pa.array(np.arange(offset, offset + block.num_rows), pa.int64())
    )


def crawl_order_dataset(out_dir: str) -> ray.data.Dataset:
    """The canonical deterministic crawl order as a DISTRIBUTED
    Dataset: fetched urls sorted by (round, depth, host, url) with a
    global rank column.

    Scale path (nothing row-sized touches the driver):
    1. ``read_parquet`` over the per-round results (column-pruned);
    2. per-batch ``fetch_ok`` filter;
    3. Ray Data distributed sort on the total key — url is unique, so
       block boundaries are value-deterministic;
    4. rank = exclusive prefix sum of per-block row counts (driver
       reads only O(n_blocks) METADATA via ``iter_internal_ref_bundles``,
       never block contents) + a per-block arange added by remote tasks.
    """
    results = sorted(glob.glob(os.path.join(out_dir, "rounds", "round=*", "results", "*.parquet")))
    if not results:  # a crawl that admitted nothing wrote no results
        return ray.data.from_arrow(_ORDER_SCHEMA.empty_table())
    ds = ray.data.read_parquet(results, columns=["round", "depth", "host", "url", "fetch_ok"])

    def keep_fetched(batch: pa.Table) -> pa.Table:
        return batch.filter(batch["fetch_ok"]).drop_columns(["fetch_ok"])

    sorted_ds = ds.map_batches(keep_fetched, batch_format="pyarrow").sort(
        ["round", "depth", "host", "url"]
    )
    block_refs, counts = [], []
    for bundle in sorted_ds.iter_internal_ref_bundles():
        for block_ref, block_md in zip(bundle.block_refs, bundle.metadata):
            block_refs.append(block_ref)
            counts.append(block_md.num_rows)
    offset = 0
    ranked_refs = []
    for block_ref, n in zip(block_refs, counts):
        ranked_refs.append(_rank_block.remote(block_ref, offset))
        offset += n
    return ray.data.from_arrow_refs(ranked_refs)


def crawl_order(out_dir: str) -> pa.Table:
    """Driver-contract convenience: the distributed crawl order pulled
    into one Arrow table (test-scale result; at the 10^10-url design
    point consume :func:`crawl_order_dataset` with ``write_parquet``)."""
    return finish(crawl_order_dataset(out_dir).to_pandas(), empty=_ORDER_SCHEMA)
