"""Frontier shard: the stateful heart of the crawl scheduler.

One shard owns every host with ``crc32(host) % n_shards == shard_id``
and holds, per the north-star design:

- the URL-seen set: a deterministic :class:`BloomFilter` (cuckoo
  variant available for delete-capable policies),
- per-host politeness state: a token-bucket refilled each BSP round
  (``tokens_per_round``), plus a robots.txt rules cache loaded from
  the corpus, one lookup per admit flush for the new hosts,
- a per-host heap-based priority queue keyed ``(depth, warc_ts, url)``
  (the north-star key: host budget enforced structurally by the
  per-host token pop, then depth — BFS-flavored politeness — then the
  discovering page's capture time, then url as the deterministic
  total-order tiebreaker). The key is intrinsic to the row, never
  arrival-order, so parallel submission cannot change the crawl order.

A shard admits its rows whole (:meth:`FrontierShard.admit`): politeness
lives here, on the owner shard, while how a round's admitted rows are
split into fetch tasks is the crawler's equal cut (``crawler._cut``).

The class is deliberately plain Python, and no process keeps a shard
between BSP phases: the distributed crawler runs each phase of a group
of shards as one plain Ray task (:func:`admit_group`,
:func:`checkpoint_group`) that restores the members from their state
bytes, submits the phase's candidates, and returns or writes the new
bytes. All state round-trips through ``state_bytes``/``restore`` — the
per-round checkpoint unit, one ``shard-{i}.bin`` per logical shard,
which is also where the next round starts from.

The reference has no counterpart to any of this (mlscraper never
fetches or schedules; the only fetch in its repo is ``requests.get``
in ``examples/quotes_to_scrape.py:16``) — semantics here are defined
by this engine and pinned by the single-process oracle crawler.
"""
from __future__ import annotations

import heapq
import os
import pickle
from collections import Counter

import pyarrow as pa

from mlscraper_ray.frontier.config import CrawlConfig
from mlscraper_ray.frontier.robots import RobotsRules
from mlscraper_ray.sources.corpus import CorpusReader
from mlscraper_ray.sources.corpusgen import url_host
from mlscraper_ray.state.bloom import BloomFilter
from mlscraper_ray.state.cuckoo import CuckooFilter


def url_path(url: str) -> str:
    parts = url.split("/", 3)
    return "/" + (parts[3] if len(parts) > 3 else "")


class FrontierShard:
    def __init__(self, shard_id: int, config: dict | CrawlConfig, corpus_dir: str):
        cfg = config if isinstance(config, CrawlConfig) else CrawlConfig.from_dict(config)
        self.shard_id = shard_id
        self.cfg = cfg
        # crawl-once -> bloom; recrawl/TTL -> delete-capable cuckoo
        # (north_star: "cuckoo fallback for deletes")
        if cfg.recrawl_after_rounds > 0:
            self.seen: BloomFilter | CuckooFilter = CuckooFilter(cfg.bloom_capacity)
        else:
            self.seen = BloomFilter(cfg.bloom_capacity, cfg.bloom_fpr)
        # TTL eviction ring: (admit_round, [urls admitted that round])
        self.expiry_ring: list[tuple[int, list[str]]] = []
        self.round_counter = 0
        self.round_buffer: dict[str, int] = {}
        self.heaps: dict[str, list] = {}
        self.robots: dict[str, RobotsRules] = {}
        self.reader = CorpusReader(corpus_dir, cfg.n_buckets)
        self.counters: Counter = Counter()

    # -- submission (candidate URLs -> round buffer) --------------------
    def submit(self, urls: list[str], depths: list[int], ts_list: list[int] | None = None) -> dict:
        """Buffer candidates at their MINIMUM (depth, warc_ts_us) for
        this round — warc_ts is the discovering page's capture time
        (seeds use 0), the north-star's priority component. Tuple-min
        is commutative, so concurrent duplicate submissions resolve
        identically regardless of task arrival order — this replaces a
        per-round driver-side ``groupby(url).min(...)`` all-to-all
        shuffle with shard-local state (every url routes to exactly one
        shard)."""
        if ts_list is None:
            ts_list = [0] * len(urls)
        buf = self.round_buffer
        for url, depth, ts in zip(urls, depths, ts_list):
            prev = buf.get(url)
            key = (depth, ts)
            if prev is None or key < prev:
                buf[url] = key
        self.counters["submitted"] += len(urls)
        return {"submitted": len(urls)}

    def _seen_add(self, url: str) -> bool:
        """True if url was NOT seen and is now marked seen."""
        if isinstance(self.seen, BloomFilter):
            return self.seen.add(url)
        if url in self.seen:
            return False
        self.seen.add(url)
        return True

    def _evict_expired(self) -> None:
        """Recrawl/TTL: delete urls admitted >= recrawl_after_rounds
        rounds ago from the (cuckoo) seen set, making them
        re-crawlable on rediscovery. No-op in crawl-once mode."""
        ttl = self.cfg.recrawl_after_rounds
        if ttl <= 0:
            return
        while self.expiry_ring and self.round_counter - self.expiry_ring[0][0] >= ttl:
            _, urls = self.expiry_ring.pop(0)
            for url in urls:
                if self.seen.delete(url):
                    self.counters["recrawl_evicted"] += 1

    def _flush_round(self) -> None:
        """Dedup + robots-gate + enqueue the buffered round candidates,
        in sorted url order (determinism; mirrors the oracle). The
        depth and seen checks run first, so that the robots bodies of
        all surviving hosts without rules are read in one lookup."""
        # per url in sorted order: the counter it drops under, or its
        # (depth, ts, url, host) when it passed the depth and seen
        # checks. Drops are counted in url order with the rest: the
        # counters' key order is part of the checkpoint bytes.
        outcomes: list = []
        new_hosts: dict[str, None] = {}
        for url in sorted(self.round_buffer):
            depth, ts = self.round_buffer[url]
            if depth > self.cfg.max_depth:
                outcomes.append("dropped_depth")
            elif not self._seen_add(url):
                outcomes.append("dropped_seen")
            else:
                host = url_host(url)
                if host not in self.robots:
                    new_hosts[host] = None
                outcomes.append((depth, ts, url, host))
        if new_hosts:
            # rules are cached in first-survivor order, which the
            # checkpoint bytes keep
            found = self.reader.lookup(
                [f"http://{h}/robots.txt" for h in new_hosts], columns=("url", "text")
            )
            bodies = dict(zip(found["url"].to_pylist(), found["text"].to_pylist()))
            for host in new_hosts:
                body = bodies.get(f"http://{host}/robots.txt")
                self.robots[host] = RobotsRules.parse(body) if body else RobotsRules.ALLOW_ALL
        c = Counter()
        for out in outcomes:
            if type(out) is str:
                c[out] += 1
                continue
            depth, ts, url, host = out
            if not self.robots[host].allowed(url_path(url)):
                c["dropped_robots"] += 1
                continue
            # the north-star priority key: host budget is enforced
            # structurally by admit's per-host token pop; within a host
            # the heap orders (depth, warc_ts, url) — url as the final
            # deterministic tiebreaker
            heapq.heappush(self.heaps.setdefault(host, []), (depth, ts, url))
            c["enqueued"] += 1
        self.round_buffer = {}
        self.counters.update(c)

    # -- admission (politeness gate) ------------------------------------
    def admit(self) -> pa.Table:
        """Flush the round buffer, then pop up to the host's TIER
        BUDGET (``cfg.budget_for(host)``; uniform ``tokens_per_round``
        when no tiers are configured) URLs per host, in (depth,
        warc_ts, url) order; hosts processed in sorted order so the
        emitted table is deterministic."""
        self._evict_expired()
        self._flush_round()
        urls, hosts, depths = [], [], []
        for host in sorted(self.heaps):
            heap = self.heaps[host]
            for _ in range(min(self.cfg.budget_for(host), len(heap))):
                depth, _ts, url = heapq.heappop(heap)
                urls.append(url)
                hosts.append(host)
                depths.append(depth)
            if not heap:
                del self.heaps[host]
        self.counters["admitted"] += len(urls)
        if self.cfg.recrawl_after_rounds > 0 and urls:
            self.expiry_ring.append((self.round_counter, list(urls)))
        self.round_counter += 1
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "host": pa.array(hosts, pa.string()),
                "depth": pa.array(depths, pa.int32()),
            }
        )

    def admit_parts(self) -> pa.Table:
        # kept by name: perfbench/tracing.py:275 wraps it as frontier.shard_flush
        return self.admit()

    def pending(self) -> int:
        return sum(len(h) for h in self.heaps.values())

    def get_counters(self) -> dict:
        return dict(self.counters)

    def seen_count(self) -> int:
        if isinstance(self.seen, BloomFilter):
            return self.seen.n_added
        return self.seen.n_items  # currently tracked (post-eviction)

    # -- checkpoint/restore ---------------------------------------------
    def state_bytes(self) -> bytes:
        is_bloom = isinstance(self.seen, BloomFilter)
        return pickle.dumps(
            {
                "shard_id": self.shard_id,
                "seen_kind": "bloom" if is_bloom else "cuckoo",
                "seen": self.seen.to_bytes(),
                "expiry_ring": self.expiry_ring,
                "round_counter": self.round_counter,
                # sorted: the buffer's insertion order is submit arrival
                # order, which must not leak into the checkpoint bytes
                "round_buffer": dict(sorted(self.round_buffer.items())),
                "heaps": self.heaps,
                "robots": {h: r.disallow_prefixes for h, r in self.robots.items()},
                "counters": dict(self.counters),
            }
        )

    def restore(self, data: bytes) -> None:
        state = pickle.loads(data)
        assert state["shard_id"] == self.shard_id, "shard id mismatch on restore"
        # legacy (pre-recrawl) checkpoints stored the filter under "bloom"
        seen_bytes = state.get("seen", state.get("bloom"))
        seen_kind = state.get("seen_kind", "bloom")
        if seen_kind == "bloom" and self.cfg.recrawl_after_rounds > 0:
            # a bloom filter cannot delete(): silently loading it into a
            # recrawl-enabled shard would crash at the first TTL
            # eviction, ``recrawl_after_rounds`` rounds later
            raise ValueError(
                "checkpoint has a delete-incapable 'bloom' seen set but "
                "config enables recrawl_after_rounds="
                f"{self.cfg.recrawl_after_rounds}; resume with the "
                "original crawl-once config or restart the crawl"
            )
        if seen_kind == "bloom":
            self.seen = BloomFilter.from_bytes(seen_bytes)
        else:
            self.seen = CuckooFilter.from_bytes(seen_bytes)
        self.expiry_ring = [tuple(e) for e in state.get("expiry_ring", [])]
        self.round_counter = state.get("round_counter", 0)
        self.round_buffer = state.get("round_buffer", {})
        self.heaps = state["heaps"]
        self.robots = {h: RobotsRules(p) for h, p in state["robots"].items()}
        self.counters = Counter(state["counters"])

    def checkpoint_to(self, path: str) -> int:
        data = self.state_bytes()
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
        return len(data)

    def restore_from(self, path: str) -> None:
        with open(path, "rb") as f:
            self.restore(f.read())


def group_of(shard_id: int, n_groups: int) -> int:
    """The group of a logical shard, whose phases run as one task:
    shards are dealt round-robin."""
    return shard_id % n_groups


def group_members(n_shards: int, n_groups: int) -> list[list[int]]:
    """The shard ids of each group, ascending."""
    return [[i for i in range(n_shards) if group_of(i, n_groups) == g] for g in range(n_groups)]


def route(urls: pa.Array, depths: pa.Array, warc_ts: pa.Array, n_shards: int) -> pa.Table:
    """Candidate rows with their owning logical shard,
    ``crc32(host) % n_shards``: the table a group step submits."""
    import zlib

    shard = [zlib.crc32(url_host(u).encode()) % n_shards for u in urls.to_pylist()]
    return pa.table({
        "shard": pa.array(shard, pa.int32()),
        "url": urls,
        "depth": depths.cast(pa.int32()),
        "warc_ts": warc_ts.cast(pa.int64()),
    })


def load_group(shard_cls: type, ids: list[int], config: dict, corpus_dir: str,
               state: str | list[bytes] | None, candidates=()) -> dict:
    """The group's shards by id, in ``ids`` order, restored from
    ``state`` with ``candidates`` (:func:`route` tables) submitted.
    ``state`` is None on a fresh crawl, a checkpoint directory holding
    ``shard-{i}.bin`` per member, or the members' state bytes in
    ``ids`` order. A shard is submitted to only when it has rows (a
    ``submitted: 0`` counter would change its checkpoint bytes); an
    empty table (Ray Data may emit one without columns) is skipped."""
    import pyarrow.compute as pc

    shards = {i: shard_cls(i, config, corpus_dir) for i in ids}
    if isinstance(state, str):
        for sid, shard in shards.items():
            shard.restore_from(os.path.join(state, f"shard-{sid}.bin"))
    elif state is not None:
        for shard, data in zip(shards.values(), state):
            shard.restore(data)
    candidates = [t for t in candidates if t.num_rows]
    if candidates:
        table = pa.concat_tables(candidates)
        for sid, shard in shards.items():
            rows = table.filter(pc.equal(table["shard"], sid))
            if rows.num_rows:
                shard.submit(*(rows[c].to_pylist() for c in ("url", "depth", "warc_ts")))
    return shards


def admit_group(shard_cls: type, ids: list[int], config: dict, corpus_dir: str, state,
                *candidates: pa.Table) -> tuple:
    """One round's admit for a group of logical shards, a pure function
    of its inputs (:func:`load_group`): every member's admitted rows
    in ``ids`` order, one table per member, then the list of their row
    counts, then the members' new state bytes (call it with
    ``num_returns = len(ids) + 2``)."""
    shards = load_group(shard_cls, ids, config, corpus_dir, state, candidates)
    out = [shard.admit_parts() for shard in shards.values()]
    return (*out, [t.num_rows for t in out], [s.state_bytes() for s in shards.values()])


def checkpoint_group(shard_cls: type, ids: list[int], config: dict, corpus_dir: str, state,
                     ckpt_dir: str, *candidates: pa.Table) -> dict[int, dict]:
    """Submit the round's discovered links to the group restored from
    ``state`` and write ``shard-{i}.bin`` per member under
    ``ckpt_dir`` (through a tmp file: a rerun writes identical bytes);
    the next round starts from those files. Returns counters by shard id."""
    shards = load_group(shard_cls, ids, config, corpus_dir, state, candidates)
    for sid, shard in shards.items():
        shard.checkpoint_to(os.path.join(ckpt_dir, f"shard-{sid}.bin"))
    return {sid: shard.get_counters() for sid, shard in shards.items()}


def group_stats(shard_cls: type, ids: list[int], config: dict, corpus_dir: str,
                state) -> dict[int, tuple[int, dict]]:
    """(seen count, counters) by shard id of the group restored from ``state``."""
    shards = load_group(shard_cls, ids, config, corpus_dir, state)
    return {sid: (s.seen_count(), s.get_counters()) for sid, s in shards.items()}
