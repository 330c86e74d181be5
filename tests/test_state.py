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

    def test_bits_equal_the_numpy_scalar_formula(self):
        """``add`` and membership equal the earlier numpy-scalar word
        updates, kept here, on every call and in the bytes: a filter
        filled past its capacity, so false positives and repeats occur."""
        import random

        import numpy as np

        def reference_add(bf, item):
            new = False
            for pos in bf._positions(item):
                word, bit = pos >> 6, np.uint64(1 << (pos & 63))
                if not (bf.bits[word] & bit):
                    new = True
                    bf.bits[word] |= bit
            if new:
                bf.n_added += 1
            return new

        def reference_contains(bf, item):
            return all(bf.bits[p >> 6] & np.uint64(1 << (p & 63)) for p in bf._positions(item))

        rng = random.Random(5)
        urls = [f"http://h{rng.randrange(40)}.example/p/{rng.randrange(4000)}" for _ in range(5000)]
        got, want = BloomFilter(1500, 1e-3), BloomFilter(1500, 1e-3)
        results = [(got.add(u), reference_add(want, u)) for u in urls]
        assert all(a == b for a, b in results)
        assert {b for _, b in results} == {True, False}
        assert got.n_added < len(set(urls))  # some new urls were false positives
        assert got.to_bytes() == want.to_bytes()
        probes = urls[:500] + [f"http://other.example/{i}" for i in range(2000)]
        assert [u in got for u in probes] == [reference_contains(want, u) for u in probes]

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


class TestGroupStep:
    """A group step (``shard.admit_group`` / ``checkpoint_group``) is a
    pure function of its inputs: hosting shards {0..3} in 1, 2 or 4
    groups must behave exactly like four standalone shards given the
    same rows, and a rerun on the same inputs (a retried task) must
    give identical bytes."""

    # (admit candidates, checkpoint candidates); shard 3 (host h0003)
    # gets no row before round 0's checkpoint
    ROUNDS = (
        ([f"http://h{h:04d}.example/p/{i}" for h in range(3) for i in range(3)],
         [f"http://h{h:04d}.example/private/{i}" for h in range(6) for i in range(2)]
         + [f"http://h{h:04d}.example/p/{i}" for h in range(6) for i in range(5)]),
        ([], [f"http://h{h:04d}.example/p/{i}" for h in range(3) for i in range(6)]),
        ([], []),
    )

    @staticmethod
    def _rows(urls):
        return urls, [1 + i % 3 for i in range(len(urls))], [1000 * i for i in range(len(urls))]

    def _standalone(self, cfg, corpus):
        """Per round: each shard's admitted rows, then its counters and
        state bytes after the checkpoint's submit; then (seen, counters)."""
        import zlib

        from mlscraper_ray.frontier.shard import FrontierShard
        from mlscraper_ray.sources.corpusgen import url_host

        alone = [FrontierShard(i, cfg, corpus) for i in range(4)]

        def submit(urls):
            by_shard: dict = {}
            for row in zip(*self._rows(urls)):
                lists = by_shard.setdefault(zlib.crc32(url_host(row[0]).encode()) % 4, ([], [], []))
                for lst, v in zip(lists, row):
                    lst.append(v)
            for sid, lists in by_shard.items():
                alone[sid].submit(*lists)

        rounds = []
        for admit_urls, ckpt_urls in self.ROUNDS:
            submit(admit_urls)
            admitted = [shard.admit() for shard in alone]
            submit(ckpt_urls)
            rounds.append((admitted, [s.get_counters() for s in alone], [s.state_bytes() for s in alone]))
        return rounds, [(s.seen_count(), s.get_counters()) for s in alone]

    def _grouped(self, cfg, corpus, n_groups, out_dir):
        """The same rounds through the group steps, every step run twice."""
        from mlscraper_ray.frontier.shard import (
            FrontierShard, admit_group, checkpoint_group, group_members, group_stats, route,
        )

        def table(urls):
            urls, depths, ts = self._rows(urls)
            return route(pa.array(urls, pa.string()), pa.array(depths), pa.array(ts), 4)

        members = group_members(4, n_groups)
        state: list = [None] * n_groups
        rounds = []
        for k, (admit_urls, ckpt_urls) in enumerate(self.ROUNDS):
            args = [(FrontierShard, ids, cfg.to_dict(), corpus, state[g]) for g, ids in enumerate(members)]
            # every group gets every row: a step keeps its members' own
            outs = [admit_group(*a, table(admit_urls)) for a in args]
            for a, out in zip(args, outs):
                again = admit_group(*a, table(admit_urls))
                assert [t.to_pydict() for t in again[:-2]] == [t.to_pydict() for t in out[:-2]]
                assert again[-2:] == out[-2:]
            admitted: dict = {}
            for ids, out in zip(members, outs):
                # one table per member, then row counts and state bytes
                assert len(out) == len(ids) + 2
                assert out[-2] == [t.num_rows for t in out[:-2]]
                admitted.update(zip(ids, out[:-2]))
            ckpt = out_dir / f"round={k}"
            ckpt.mkdir()
            counters: dict = {}
            for (cls, ids, c, d, _), out in zip(args, outs):
                counters.update(checkpoint_group(cls, ids, c, d, out[-1], str(ckpt), table(ckpt_urls)))
            files = {p.name: p.read_bytes() for p in ckpt.iterdir()}
            for (cls, ids, c, d, _), out in zip(args, outs):
                assert checkpoint_group(cls, ids, c, d, out[-1], str(ckpt), table(ckpt_urls)) == {
                    sid: counters[sid] for sid in ids
                }
            assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == files
            state = [str(ckpt)] * n_groups
            rounds.append((
                [admitted[i] for i in range(4)],
                [counters[i] for i in range(4)],
                [files[f"shard-{i}.bin"] for i in range(4)],
            ))
        stats: dict = {}
        for g, ids in enumerate(members):
            stats.update(group_stats(FrontierShard, ids, cfg.to_dict(), corpus, state[g]))
        return rounds, [stats[i] for i in range(4)]

    def test_groups_match_standalone_shards(self, tmp_path):
        from mlscraper_ray.sources.corpusgen import CorpusSpec, generate_corpus

        corpus = str(tmp_path / "corpus")
        generate_corpus(corpus, CorpusSpec(n_hosts=6, pages_per_host=3, skew_factors=()))
        cfg = CrawlConfig(n_shards=4, tokens_per_round=2, max_depth=3)
        want_rounds, want_stats = self._standalone(cfg, corpus)
        assert sum(seen for seen, _ in want_stats) > 0
        for n_groups in (1, 2, 4):
            out_dir = tmp_path / f"groups{n_groups}"
            out_dir.mkdir()
            rounds, stats = self._grouped(cfg, corpus, n_groups, out_dir)
            for (admitted, counters, states), (w_admitted, w_counters, w_states) in zip(rounds, want_rounds):
                assert [t.to_pydict() for t in admitted] == [t.to_pydict() for t in w_admitted]
                assert counters == w_counters
                assert states == w_states
            assert stats == want_stats

    def test_group_members_deal_round_robin(self):
        from mlscraper_ray.frontier.shard import group_members

        assert group_members(4, 1) == [[0, 1, 2, 3]]
        assert group_members(4, 2) == [[0, 2], [1, 3]]
        assert group_members(8, 3) == [[0, 3, 6], [1, 4, 7], [2, 5]]
        assert group_members(4, 4) == [[0], [1], [2], [3]]


class TestRetryIdempotence:
    """A retried crawl task reruns on the same inputs and gives the same
    bytes: fetch tasks submit nothing, they write their results file
    and return the discovered links per shard group (the group steps'
    reruns are in TestGroupStep), and a group step may get its
    candidate tables in any order, duplicates included."""

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
        # b sees the same rows TWICE, in a different order
        rev = list(reversed(list(zip(urls, depths, ts))))
        b.submit([u for u, _, _ in rev], [d for _, d, _ in rev], [t for _, _, t in rev])
        b.submit(urls, depths, ts)
        ta, tb = a.admit(), b.admit()
        assert ta.to_pydict() == tb.to_pydict()

    def test_fetch_bundle_rerun_is_identical(self, tmp_path):
        import zlib

        import pyarrow.parquet as pq

        from mlscraper_ray.frontier.crawler import _fetch_bundle
        from mlscraper_ray.sources.corpusgen import CorpusSpec, expected_plan, generate_corpus, url_host
        from mlscraper_ray.stages.crawl_stages import fetch_parse_extract_task

        corpus = str(tmp_path / "corpus")
        spec = CorpusSpec(n_hosts=6, pages_per_host=4, skew_factors=())
        generate_corpus(corpus, spec)
        urls = sorted(pq.read_table(f"{corpus}/pages", columns=["url"])["url"].to_pylist())[:20]
        urls.append("http://absent.example/p")  # not in the corpus: no links
        rows = pa.table({
            "url": urls,
            "host": [url_host(u) for u in urls],
            "depth": pa.array([i % 3 for i in range(len(urls))], pa.int32()),
        })
        kwargs = {"corpus_dir": corpus, "n_buckets": spec.n_buckets, "plan": expected_plan(), "round_k": 2}
        runs = []
        for name in ("a", "b"):
            path = str(tmp_path / f"{name}.parquet")
            # both parts are cut mid-table: the task takes rows 0..8 of
            # the first and rows 2..13 of the second, every row once
            out = _fetch_bundle._function(
                fetch_parse_extract_task, path, kwargs, 4, 3, [(0, 9), (2, 14)],
                rows.slice(0, 12), rows.slice(7),
            )
            runs.append((open(path, "rb").read(), out[0], [t.to_pydict() for t in out[1:]]))
        assert runs[0] == runs[1]
        _, n_rows, by_group = runs[0]
        assert n_rows == len(urls)
        results = pq.read_table(str(tmp_path / "a.parquet"))
        assert results["url"].to_pylist() == urls
        want = sorted(
            (link, depth + 1, ts)
            for depth, ts, links in zip(
                results["depth"].to_pylist(),
                results["warc_ts"].cast(pa.int64()).to_pylist(),
                results["links"].to_pylist(),
            )
            for link in links
        )
        got = []
        for g, table in enumerate(by_group):
            for sid, url, depth, ts in zip(*table.values()):
                assert sid == zlib.crc32(url_host(url).encode()) % 4 and sid % 3 == g
                got.append((url, depth, ts))
        assert got and sorted(got) == want


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
