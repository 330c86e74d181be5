"""Crawl configuration — everything that must be identical between the
distributed crawler, the single-process oracle, and a resumed run.

The config is part of the checkpoint manifest; resume refuses a
mismatched config (determinism depends on it: shard count fixes the
bloom-shard layout, tokens_per_round fixes admission).

Scale guidance (the 10^10-URL design point, tested at ~10^4):
- ``n_shards``: the number P of logical frontier shards (partitions);
  P should be ~2-4x total cluster cores. Host -> shard is
  ``crc32(host) % P``, so P must stay constant across resume (it is in
  the manifest). The crawler deals the P shards to
  ``min(P, cluster CPUs)`` groups, each run as one plain Ray task per
  BSP phase; that grouping is not part of the config and may differ
  between a run and its resume.
- ``bloom_capacity``: sized per shard; 10^10/P keys at the configured
  FPR. At P=1024, fpr=1e-9: ~52 GB/shard of bits — budget accordingly
  (or raise fpr / use the cuckoo variant with eviction).
- ``tokens_per_round``: per-host politeness budget per BSP round
  (token-bucket refill). Bounds per-round skew: no host can produce
  more than this many fetches per round regardless of frontier skew.
  How a round is split into fetch tasks is not configured: the crawler
  cuts the admitted rows into equal ranges (``crawler._cut``), so a hot
  host spreads over consecutive tasks.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class CrawlConfig:
    n_shards: int = 8
    n_buckets: int = 16  # corpus host-hash buckets (must match corpus)
    tokens_per_round: int = 4
    max_depth: int = 10
    max_rounds: int = 64
    bloom_capacity: int = 1 << 17  # per shard; test-scale default
    bloom_fpr: float = 1e-9
    # recrawl/TTL policy: 0 = crawl-once (bloom seen set). N > 0 =
    # delete-capable cuckoo seen set; a url fetched in round k is
    # EVICTED at round k+N and becomes re-crawlable when its links are
    # rediscovered. The per-round eviction schedule is the round's own
    # admitted-url list (at the 10^10 design point that list is the
    # round's results parquet, streamed back at eviction time).
    recrawl_after_rounds: int = 0
    # checkpoint retention: 0 = keep every round's checkpoint (resume
    # from ANY round — the test/debug contract). K > 0 prunes to the
    # newest K COMPLETE checkpoints after each commit — the production
    # setting: a full shard snapshot at the 10^10 design point is
    # ~53 MB x P shards per round (bloom bits dominate), so unbounded
    # retention is a storage leak; resume only ever needs the latest
    # complete manifest.
    keep_checkpoints: int = 0
    plan: dict = field(default_factory=dict)  # learned scraper plan (JSON)
    # TIERED CRAWL: per-host fetch budget by host tier (the north-star
    # "host-budget" leg of the priority key). ``tier_budgets[t]`` is
    # the per-round token budget of a tier-``t`` host; hosts absent
    # from ``host_tiers`` fall to ``default_tier``. Empty
    # ``tier_budgets`` = uniform ``tokens_per_round`` (the crawl-once
    # contract, unchanged). The tier map is policy metadata (domain
    # reputation / authority ranking); it rides in the checkpoint
    # manifest like everything determinism depends on. At the 10^10
    # design point keep it to the ranked head+tail of hosts (the
    # default tier covers the torso), not all hosts.
    host_tiers: dict = field(default_factory=dict)  # host -> tier index
    tier_budgets: list = field(default_factory=list)  # tokens per tier
    default_tier: int = 1

    def budget_for(self, host: str) -> int:
        if not self.tier_budgets:
            return self.tokens_per_round
        t = self.host_tiers.get(host, self.default_tier)
        return self.tier_budgets[min(max(t, 0), len(self.tier_budgets) - 1)]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CrawlConfig":
        return cls(**d)
