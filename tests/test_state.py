"""Unit tests: bloom/cuckoo filters, robots, frontier shard policy."""
import pyarrow as pa
import pytest

from mlscraper_ray.frontier.config import CrawlConfig
from mlscraper_ray.frontier.robots import RobotsRules
from mlscraper_ray.state.bloom import BloomFilter
from mlscraper_ray.state.cuckoo import CuckooFilter


class TestBloom:
    def test_add_contains(self):
        bf = BloomFilter(10000, 1e-6)
        urls = [f"http://h{i}.example/p/{i}" for i in range(1000)]
        for u in urls:
            assert bf.add(u) is True
        for u in urls:
            assert u in bf
            assert bf.add(u) is False
        assert bf.n_added == 1000

    def test_no_false_positives_at_scale(self):
        bf = BloomFilter(100000, 1e-9)
        for i in range(10000):
            bf.add(f"in-{i}")
        fps = sum(1 for i in range(10000) if f"out-{i}" in bf)
        assert fps == 0

    def test_serialization_roundtrip(self):
        bf = BloomFilter(1000, 1e-6)
        for i in range(500):
            bf.add(f"u{i}")
        bf2 = BloomFilter.from_bytes(bf.to_bytes())
        assert bf2.n_added == bf.n_added
        assert all(f"u{i}" in bf2 for i in range(500))
        assert "u9999" not in bf2

    def test_deterministic_across_instances(self):
        a, b = BloomFilter(1000, 1e-6), BloomFilter(1000, 1e-6)
        for i in range(200):
            a.add(f"x{i}")
            b.add(f"x{i}")
        assert a.to_bytes() == b.to_bytes()

    def test_bloom_design_point(self):
        """Pin the north-star seen-set budget MATH (it was previously
        asserted only in prose): the per-shard filter at the 10^10-URL
        design point (P=1024 shards, fpr=1e-9) must cost ~43.1
        bits/key with k=30 probes and ~53 MB of bits per shard — i.e.
        ~54 GB fleet-wide, heap-resident at any sane P. Then measure
        the filter AT CAPACITY on a scaled keyset with the identical
        bits/key + k geometry (parameters depend only on the
        capacity:fpr ratio, so the scaled filter is the same design):
        fill fraction must sit at the optimal-k ~50% and a disjoint
        probe set must show zero false positives (expected count at
        1e-9 over 2e5 probes is ~2e-4)."""
        import math

        import numpy as np

        P = 1024
        shard = BloomFilter(capacity=10**10 // P, fpr=1e-9)
        bits_per_key = shard.m_bits / (10**10 // P)
        assert 42.9 < bits_per_key < 43.4, bits_per_key
        assert shard.k == 30, shard.k
        shard_mb = shard.m_bits / 8 / 2**20
        assert 50 < shard_mb < 56, shard_mb  # ~53 MB/shard
        fleet_gb = shard_mb * P / 1024
        assert 50 < fleet_gb < 56, fleet_gb  # ~54 GB fleet-wide
        # serialized checkpoint size == header + exact bit array
        small = BloomFilter(capacity=1000, fpr=1e-9)
        assert len(small.to_bytes()) == 24 + small.m_bits // 8

        # measured behavior at capacity, same geometry (43.1 b/key, k=30)
        cap = 100_000
        bf = BloomFilter(capacity=cap, fpr=1e-9)
        assert bf.k == shard.k
        assert abs(bf.m_bits / cap - bits_per_key) < 0.1
        for i in range(cap):
            bf.add(f"http://design.example/p/{i}")
        fill = sum(int(w).bit_count() for w in bf.bits) / bf.m_bits
        expect_fill = 1 - math.exp(-bf.k * cap / bf.m_bits)  # ~0.5
        assert abs(fill - expect_fill) < 0.01, (fill, expect_fill)
        fps = sum(1 for i in range(200_000) if f"http://other.example/q/{i}" in bf)
        assert fps == 0, fps


class TestCuckoo:
    def test_add_contains_delete(self):
        cf = CuckooFilter(10000)
        for i in range(5000):
            cf.add(f"url-{i}")
        assert all(f"url-{i}" in cf for i in range(5000))
        assert cf.delete("url-42")
        assert "url-42" not in cf
        assert not cf.delete("url-42")

    def test_serialization_roundtrip(self):
        cf = CuckooFilter(1000)
        for i in range(400):
            cf.add(f"u{i}")
        cf2 = CuckooFilter.from_bytes(cf.to_bytes())
        assert all(f"u{i}" in cf2 for i in range(400))


class TestRobots:
    def test_disallow_prefix(self):
        r = RobotsRules.parse("User-agent: *\nDisallow: /private/\n")
        assert not r.allowed("/private/3")
        assert r.allowed("/p/3")

    def test_empty_disallow_allows_all(self):
        r = RobotsRules.parse("User-agent: *\nDisallow:\n")
        assert r.allowed("/private/3")

    def test_other_agent_group_ignored(self):
        r = RobotsRules.parse("User-agent: GoogleBot\nDisallow: /x/\nUser-agent: *\nDisallow: /y/\n")
        assert r.allowed("/x/1")
        assert not r.allowed("/y/1")


class TestFrontierShard:
    @pytest.fixture()
    def shard(self, tmp_path):
        from mlscraper_ray.frontier.shard import FrontierShard
        from mlscraper_ray.sources.corpusgen import CorpusSpec, generate_corpus

        spec = CorpusSpec(n_hosts=2, pages_per_host=3, skew_factors=())
        generate_corpus(str(tmp_path / "corpus"), spec)
        cfg = CrawlConfig(n_shards=1, tokens_per_round=2)
        return FrontierShard(0, cfg, str(tmp_path / "corpus"))

    def test_politeness_caps_per_host(self, shard):
        urls = [f"http://h0000.example/p/{i}" for i in range(3)] + [
            "http://h0001.example/p/0"
        ]
        shard.submit(urls, [1, 0, 2, 0])
        t = shard.admit()
        # 2 tokens for h0000 (lowest (depth,url) first), 1 for h0001
        assert t.num_rows == 3
        rows = list(zip(t["host"].to_pylist(), t["url"].to_pylist(), t["depth"].to_pylist()))
        assert rows[0] == ("h0000.example", "http://h0000.example/p/1", 0)
        assert rows[1] == ("h0000.example", "http://h0000.example/p/0", 1)
        assert rows[2] == ("h0001.example", "http://h0001.example/p/0", 0)
        # deferred url comes out next round
        t2 = shard.admit()
        assert t2["url"].to_pylist() == ["http://h0000.example/p/2"]

    def test_dedup_and_depth_gate(self, shard):
        # duplicates collapse in the round buffer; re-submission across
        # rounds is caught by the seen-set at flush time
        res = shard.submit(["http://h0000.example/p/0"] * 2, [0, 0])
        assert res["submitted"] == 2
        assert shard.admit().num_rows == 1
        assert shard.counters["enqueued"] == 1
        shard.submit(["http://h0000.example/p/0"], [0])
        assert shard.admit().num_rows == 0
        assert shard.counters["dropped_seen"] == 1
        shard.submit(["http://h0000.example/p/99"], [99])
        shard.admit()
        assert shard.counters["dropped_depth"] == 1

    def test_warc_ts_orders_within_depth(self, shard):
        # same host, same depth: the earlier-captured parent's link is
        # admitted first ((depth, warc_ts, url) heap key); and a later
        # duplicate submission with a smaller ts wins the buffer min
        shard.submit(["http://h0000.example/p/9"], [1], [5_000_000])
        shard.submit(["http://h0000.example/p/1"], [1], [9_000_000])
        shard.submit(["http://h0000.example/p/1"], [1], [2_000_000])  # min ts wins
        t = shard.admit()
        assert t["url"].to_pylist()[:2] == [
            "http://h0000.example/p/1",  # ts 2s beats ts 5s despite larger url
            "http://h0000.example/p/9",
        ]

    def test_min_depth_wins_in_round_buffer(self, shard):
        # same url submitted at depths 5 then 2 in one round: admitted
        # at depth 2 regardless of submission order
        shard.submit(["http://h0000.example/p/0"], [5])
        shard.submit(["http://h0000.example/p/0"], [2])
        t = shard.admit()
        assert t["depth"].to_pylist() == [2]

    def test_robots_gate(self, shard):
        # h0000 (h%5==0) disallows /private/
        shard.submit(["http://h0000.example/private/7"], [1])
        assert shard.admit().num_rows == 0
        assert shard.counters["dropped_robots"] == 1

    def test_checkpoint_restore(self, shard, tmp_path):
        from mlscraper_ray.frontier.shard import FrontierShard

        shard.submit([f"http://h0000.example/p/{i}" for i in range(3)], [0, 1, 2])
        shard.admit()
        path = str(tmp_path / "shard.bin")
        shard.checkpoint_to(path)
        clone = FrontierShard(0, shard.cfg, str(tmp_path / "corpus"))
        clone.restore_from(path)
        assert clone.pending() == shard.pending()
        assert clone.admit().to_pylist() == shard.admit().to_pylist()
        assert clone.seen.to_bytes() == shard.seen.to_bytes()

    def test_restore_rejects_bloom_checkpoint_into_recrawl_config(self, shard, tmp_path):
        """A delete-incapable bloom seen set silently loaded into a
        recrawl-enabled shard would crash at the first TTL eviction,
        ttl rounds later — restore must refuse upfront."""
        import pytest

        from mlscraper_ray.frontier.config import CrawlConfig
        from mlscraper_ray.frontier.shard import FrontierShard

        shard.submit(["http://h0000.example/p/1"], [0])
        shard.admit()
        path = str(tmp_path / "shard.bin")
        shard.checkpoint_to(path)  # crawl-once config -> bloom kind
        recrawl_cfg = CrawlConfig(**{**shard.cfg.to_dict(), "recrawl_after_rounds": 3})
        clone = FrontierShard(0, recrawl_cfg, str(tmp_path / "corpus"))
        with pytest.raises(ValueError, match="delete-incapable"):
            clone.restore_from(path)

    def test_salting_reachable_under_shipped_config(self, tmp_path):
        """The salting floor is clamped below the per-host token cap:
        a host that saturates tokens_per_round and exceeds its fair
        part share is dealt round-robin even with the DEFAULT
        salt_min_rows (which exceeds the cap and previously made
        salting unreachable in every shipped config)."""
        from mlscraper_ray.frontier.config import CrawlConfig
        from mlscraper_ray.frontier.shard import FrontierShard

        cfg = CrawlConfig(n_shards=1, tokens_per_round=8, max_depth=9)
        assert cfg.salt_min_rows > cfg.tokens_per_round  # the old dead zone
        shard = FrontierShard(0, cfg, str(tmp_path))
        hot = [f"http://mega.example/p{i}" for i in range(8)]
        cold = [f"http://h{i:04d}.example/p0" for i in range(1, 9)]
        shard.submit(hot + cold, [1] * len(hot + cold))
        parts = shard.admit_parts(8)
        mega_rows = [
            p.filter(pa.compute.equal(p["host"], "mega.example")).num_rows for p in parts
        ]
        assert max(mega_rows) == 1  # dealt 1 per part, not 8 in one
        assert shard.get_counters()["salted_rows"] == 8


class TestFrontierShardGroup:
    """The group actor only forwards by shard id: hosting shards
    {0..3} in one group must behave exactly like four standalone
    shards given the same calls."""

    def test_group_matches_standalone_shards(self, tmp_path):
        import zlib

        from mlscraper_ray.frontier.shard import FrontierShard, FrontierShardGroup, group_members
        from mlscraper_ray.sources.corpusgen import CorpusSpec, generate_corpus, url_host

        corpus = str(tmp_path / "corpus")
        generate_corpus(corpus, CorpusSpec(n_hosts=6, pages_per_host=3, skew_factors=()))
        cfg = CrawlConfig(n_shards=4, tokens_per_round=2, max_depth=3)
        group = FrontierShardGroup([0, 1, 2, 3], cfg.to_dict(), corpus, FrontierShard)
        alone = [FrontierShard(i, cfg, corpus) for i in range(4)]

        def by_shard(urls, depth):
            out: dict = {}
            for i, u in enumerate(urls):
                lists = out.setdefault(zlib.crc32(url_host(u).encode()) % 4, ([], [], []))
                lists[0].append(u)
                lists[1].append(depth + i % 3)
                lists[2].append(1000 * i)
            return out

        waves = [
            [f"http://h{h:04d}.example/p/{i}" for h in range(6) for i in range(3)],
            [f"http://h{h:04d}.example/private/{i}" for h in range(6) for i in range(2)]
            + [f"http://h{h:04d}.example/p/{i}" for h in range(6) for i in range(5)],
        ]
        for urls in waves:
            calls = by_shard(urls, 1)
            assert group.submit(calls) == {"submitted": len(urls)}
            for sid, (us, ds, ts) in calls.items():
                alone[sid].submit(us, ds, ts)
            for n_parts in (1, 3):
                got = group.admit_parts(n_parts)
                assert len(got) == 4 * n_parts + 1
                want = []
                for shard in alone:
                    parts = shard.admit_parts(n_parts)
                    want.extend([parts] if n_parts == 1 else parts)
                assert [t.to_pydict() for t in got[:-1]] == [t.to_pydict() for t in want]
                assert got[-1] == [t.num_rows for t in want]
        for sid, shard in group.shards.items():
            assert shard.state_bytes() == alone[sid].state_bytes()
        stats = group.final_stats()
        assert stats == {i: (s.seen_count(), s.get_counters()) for i, s in enumerate(alone)}
        assert sum(seen for seen, _ in stats.values()) > 0

        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        counters = group.checkpoint_to(str(ckpt))
        assert counters == {i: s.get_counters() for i, s in enumerate(alone)}
        for i, s in enumerate(alone):
            assert (ckpt / f"shard-{i}.bin").read_bytes() == s.state_bytes()
        # restore into a different grouping of the same logical shards
        for ids in group_members(4, 2):
            regroup = FrontierShardGroup(ids, cfg.to_dict(), corpus, FrontierShard)
            regroup.restore_from(str(ckpt))
            for sid in ids:
                assert regroup.shards[sid].state_bytes() == alone[sid].state_bytes()

    def test_group_members_deal_round_robin(self):
        from mlscraper_ray.frontier.shard import group_members

        assert group_members(4, 1) == [[0, 1, 2, 3]]
        assert group_members(4, 2) == [[0, 2], [1, 3]]
        assert group_members(8, 3) == [[0, 3, 6], [1, 4, 7], [2, 5]]
        assert group_members(4, 4) == [[0], [1], [2], [3]]


class TestRetryIdempotence:
    """fetch_parse_extract_task claims double link-submission is safe
    under Ray task retries (crawl_stages.py docstring): the round
    buffer takes a commutative min and the seen set dedups."""

    def test_duplicate_submit_is_idempotent(self, tmp_path):
        from mlscraper_ray.frontier.config import CrawlConfig
        from mlscraper_ray.frontier.shard import FrontierShard

        cfg = CrawlConfig(n_shards=1, tokens_per_round=10)
        a = FrontierShard(0, cfg, str(tmp_path))
        b = FrontierShard(0, cfg, str(tmp_path))
        urls = [f"http://h.example/p{i}" for i in range(6)]
        depths = [2, 1, 3, 1, 2, 1]
        ts = [5, 9, 1, 7, 3, 2]
        a.submit(urls, depths, ts)
        # b sees the same rows TWICE, in a different order (retry)
        rev = list(reversed(list(zip(urls, depths, ts))))
        b.submit([u for u, _, _ in rev], [d for _, d, _ in rev], [t for _, _, t in rev])
        b.submit(urls, depths, ts)
        ta, tb = a.admit(), b.admit()
        assert ta.to_pydict() == tb.to_pydict()

    def test_retry_after_admit_is_dropped_by_seen_set(self, tmp_path):
        from mlscraper_ray.frontier.config import CrawlConfig
        from mlscraper_ray.frontier.shard import FrontierShard

        cfg = CrawlConfig(n_shards=1, tokens_per_round=10)
        s = FrontierShard(0, cfg, str(tmp_path))
        s.submit(["http://h.example/p"], [1], [4])
        assert s.admit().num_rows == 1
        # a late retry re-submits the fetched url -> seen-set drop
        s.submit(["http://h.example/p"], [1], [4])
        assert s.admit().num_rows == 0
        assert s.get_counters()["dropped_seen"] == 1


class TestFilterProperties:
    """Hypothesis invariants for the seen-set filters."""

    def test_bloom_never_false_negative(self):
        import hypothesis.strategies as st
        from hypothesis import given, settings

        @settings(max_examples=30, deadline=None)
        @given(st.lists(st.text(min_size=1, max_size=30), max_size=60, unique=True))
        def prop(items):
            bf = BloomFilter(10_000, 1e-6)
            for it in items:
                bf.add(it)
            assert all(it in bf for it in items)

        prop()

    def test_cuckoo_add_delete_roundtrip(self):
        import hypothesis.strategies as st
        from hypothesis import given, settings

        from mlscraper_ray.state.cuckoo import CuckooFilter

        @settings(max_examples=30, deadline=None)
        @given(
            st.lists(st.text(min_size=1, max_size=30), min_size=1, max_size=60, unique=True),
            st.data(),
        )
        def prop(items, data):
            cf = CuckooFilter(1024)
            for it in items:
                assert cf.add(it)
            assert all(it in cf for it in items)  # no false negatives
            victims = data.draw(st.lists(st.sampled_from(items), max_size=10, unique=True))
            for v in victims:
                assert cf.delete(v)
            # deleted items may still false-positive via OTHER items'
            # fingerprints, but count bookkeeping must be exact
            assert cf.n_items == len(items) - len(victims)
            survivors = [it for it in items if it not in victims]
            assert all(it in cf for it in survivors)

        prop()


class TestRobotsGroups:
    def test_star_alone(self):
        r = RobotsRules.parse("User-agent: *\nDisallow: /private/")
        assert not r.allowed("/private/x") and r.allowed("/public")

    def test_consecutive_ua_lines_form_one_group(self):
        # de-facto standard: the group is {foo, *}; its rules apply to *
        r = RobotsRules.parse("User-agent: foo\nUser-agent: *\nDisallow: /a/")
        assert not r.allowed("/a/x")
        r2 = RobotsRules.parse("User-agent: *\nUser-agent: foo\nDisallow: /a/")
        assert not r2.allowed("/a/x")

    def test_rules_end_group(self):
        # the second group is foo-only; its rules must NOT bind *
        r = RobotsRules.parse(
            "User-agent: *\nDisallow: /a/\n"
            "User-agent: foo\nDisallow: /b/"
        )
        assert not r.allowed("/a/x")
        assert r.allowed("/b/x")

    def test_empty_disallow_and_comments(self):
        r = RobotsRules.parse(
            "# header comment\nUser-agent: *\nDisallow:   # allow all\n"
        )
        assert r.allowed("/anything")
