"""Crawl engine integration tests: distributed-vs-oracle equality,
checkpoint/resume equivalence, golden extraction.

These use a small corpus so the full BSP loop runs in seconds.
"""
import contextlib
import glob
import json
import shutil
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mlscraper_ray.frontier.config import CrawlConfig
from mlscraper_ray.frontier.oracle import oracle_crawl
from mlscraper_ray.sources.corpusgen import CorpusSpec, generate_corpus


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus"))
    spec = CorpusSpec(n_hosts=5, pages_per_host=4, skew_factors=(2,), n_seeds=2)
    generate_corpus(d, spec)
    return d, spec


@pytest.fixture(scope="module")
def learned_plan(small_corpus):
    d, spec = small_corpus
    from mlscraper_ray.htmlcore.dom import parse_html
    from mlscraper_ray.learn.samples import Sample, TrainingSet
    from mlscraper_ray.learn.training import train_scraper
    from mlscraper_ray.sources.corpus import CorpusReader

    reader = CorpusReader(d, spec.n_buckets)
    ts = TrainingSet()
    for s in json.load(open(f"{d}/samples.json")):
        html = reader.lookup([s["url"]])["html"][0].as_py()
        ts.add_sample(Sample(parse_html(html), s["value"]))
    return train_scraper(ts, complexity=2).to_plan()


def _config(plan):
    return CrawlConfig(
        n_shards=4, tokens_per_round=2, max_rounds=12, max_depth=6, plan=plan
    )


def _results_table(out_dir, columns):
    files = sorted(glob.glob(f"{out_dir}/rounds/round=*/results/*.parquet"))
    return pa.concat_tables([pq.read_table(f, columns=columns) for f in files])


@pytest.fixture(scope="module")
def crawl_run(ray_session, small_corpus, learned_plan, tmp_path_factory):
    from mlscraper_ray.frontier.crawler import RayCrawler

    d, spec = small_corpus
    out = str(tmp_path_factory.mktemp("crawl"))
    cfg = _config(learned_plan)
    stats = RayCrawler(d, out, cfg).run()
    return d, out, cfg, stats


class TestCrawlVsOracle:
    def test_order_and_seen_match(self, crawl_run):
        from mlscraper_ray.frontier.crawler import crawl_order

        corpus, out, cfg, stats = crawl_run
        order = crawl_order(out)
        fetches, seen, _, _ = oracle_crawl(corpus, cfg)
        ray_order = list(
            zip(
                order["round"].to_pylist(),
                order["depth"].to_pylist(),
                order["host"].to_pylist(),
                order["url"].to_pylist(),
            )
        )
        assert ray_order == fetches
        assert stats["seen"] == len(seen)

    def test_extraction_matches_oracle_and_golden(self, crawl_run):
        corpus, out, cfg, _ = crawl_run
        _, _, extracted, _ = oracle_crawl(corpus, cfg)
        res = _results_table(out, ["url", "value_json", "fetch_ok"])
        ray_extracted = dict(
            zip(res["url"].to_pylist(), res["value_json"].to_pylist())
        )
        for url, expected in extracted.items():
            assert ray_extracted.get(url) == expected
        golden = dict(
            zip(
                *[
                    pq.read_table(f"{corpus}/golden.parquet")[c].to_pylist()
                    for c in ("url", "expected_json")
                ]
            )
        )
        checked = 0
        for url, value in extracted.items():
            if url in golden:
                checked += 1
                assert value == golden[url], url
        assert checked > 0

    def test_round_stats_report_fallback_pages_and_html(self, crawl_run):
        """metrics.json and every manifest carry each round's scan
        fallbacks and fetched html; every corpus page is in the scan's
        subset."""
        corpus, out, cfg, stats = crawl_run
        res = _results_table(out, ["round", "html_bytes", "scan_fallback", "fetch_ok"]).to_pylist()
        with open(f"{out}/metrics.json") as f:
            assert json.load(f)["rounds"] == stats["rounds"]
        for r in stats["rounds"]:
            rows = [x for x in res if x["round"] == r["round"]]
            assert r["html_mb"] == round(sum(x["html_bytes"] for x in rows) / 1e6, 3)
            assert r["pages_fallback"] == sum(bool(x["scan_fallback"]) for x in rows) == 0
            assert all((x["scan_fallback"] is None) == (not x["fetch_ok"]) for x in rows)
            with open(f"{out}/checkpoint/round={r['round']}/MANIFEST.json") as f:
                manifest = json.load(f)["round_stats"]
            assert {k: manifest[k] for k in ("pages_fallback", "html_mb")} == {
                k: r[k] for k in ("pages_fallback", "html_mb")
            }
        assert sum(r["html_mb"] for r in stats["rounds"]) > 0

    def test_politeness_budget_respected(self, crawl_run):
        corpus, out, cfg, _ = crawl_run
        res = _results_table(out, ["round", "host", "url"])
        counts = {}
        for r, h in zip(res["round"].to_pylist(), res["host"].to_pylist()):
            counts[(r, h)] = counts.get((r, h), 0) + 1
        assert counts
        assert max(counts.values()) <= cfg.tokens_per_round

    def test_robots_respected(self, crawl_run):
        corpus, out, _, _ = crawl_run
        res = _results_table(out, ["url"])
        # h0000 disallows /private/ in the synthetic corpus
        for url in res["url"].to_pylist():
            assert not url.startswith("http://h0000.example/private/")

    def test_empty_seeds_give_empty_typed_order(self, crawl_run, tmp_path_factory):
        """A crawl from an empty seeds file fetches nothing and writes
        no results files; its crawl order is the oracle's empty fetch
        list, typed like any other crawl order."""
        from mlscraper_ray.frontier.crawler import RayCrawler, crawl_order

        corpus, out, cfg, _ = crawl_run
        d = tmp_path_factory.mktemp("empty_seeds")
        seeds = str(d / "seeds.parquet")
        pq.write_table(
            pa.table({"url": pa.array([], pa.string()), "depth": pa.array([], pa.int32())}), seeds
        )
        empty_out = str(d / "crawl")
        RayCrawler(corpus, empty_out, cfg).run(seeds)
        assert not glob.glob(f"{empty_out}/rounds/round=*/results/*.parquet")
        fetches, _, _, _ = oracle_crawl(corpus, cfg, seeds)
        order = crawl_order(empty_out)
        assert order.num_rows == len(fetches) == 0
        full = crawl_order(out)
        assert full.num_rows > 0
        assert order.schema.names == full.schema.names
        assert order.schema.types == full.schema.types


class TestResume:
    def test_resume_produces_identical_output(
        self, ray_session, small_corpus, learned_plan, tmp_path_factory
    ):
        from mlscraper_ray.frontier.crawler import RayCrawler, crawl_order

        corpus, spec = small_corpus
        cfg = _config(learned_plan)
        full_out = str(tmp_path_factory.mktemp("full"))
        RayCrawler(corpus, full_out, cfg).run()
        full_order = crawl_order(full_out).to_pylist()

        # interrupted run: replay an uninterrupted prefix, then truncate
        # everything after round 1's checkpoint and resume
        part_out = str(tmp_path_factory.mktemp("part"))
        shutil.copytree(full_out, part_out, dirs_exist_ok=True)
        for rd in glob.glob(f"{part_out}/rounds/round=*"):
            k = int(rd.rsplit("=", 1)[1])
            if k > 1:
                shutil.rmtree(rd)
        for cd in glob.glob(f"{part_out}/checkpoint/round=*"):
            k = int(cd.rsplit("=", 1)[1])
            if k > 1:
                shutil.rmtree(cd)

        crawler, next_round = RayCrawler.resume(corpus, part_out)
        assert next_round == 2
        crawler.run(start_round=next_round)
        assert crawl_order(part_out).to_pylist() == full_order

    def test_keep_checkpoints_prunes_and_resumes(
        self, ray_session, small_corpus, learned_plan, tmp_path_factory
    ):
        """Production retention (keep_checkpoints=2): only the newest
        two COMPLETE checkpoints survive, the crawl order is unchanged
        vs keep-all, and a resume from the latest retained checkpoint
        still reproduces the full run's tail."""
        import dataclasses

        from mlscraper_ray.frontier.crawler import RayCrawler, crawl_order

        corpus, spec = small_corpus
        cfg_all = _config(learned_plan)
        all_out = str(tmp_path_factory.mktemp("keep_all"))
        RayCrawler(corpus, all_out, cfg_all).run()
        want = crawl_order(all_out).to_pylist()
        n_rounds = len(glob.glob(f"{all_out}/checkpoint/round=*"))
        assert n_rounds > 2  # retention must actually have pruned

        cfg = dataclasses.replace(cfg_all, keep_checkpoints=2)
        out = str(tmp_path_factory.mktemp("keep_two"))
        RayCrawler(corpus, out, cfg).run()
        kept = sorted(glob.glob(f"{out}/checkpoint/round=*"))
        assert len(kept) == 2
        assert crawl_order(out).to_pylist() == want

        # resume: kill the NEWEST retained checkpoint + its results
        # (simulating a crash mid-round); resume must pick the older
        # retained one and reproduce the full run's tail exactly
        rounds_kept = sorted(int(d.rsplit("=", 1)[1]) for d in kept)
        prev, last = rounds_kept
        shutil.rmtree(f"{out}/checkpoint/round={last}")
        for rd in glob.glob(f"{out}/rounds/round=*"):
            if int(rd.rsplit("=", 1)[1]) > prev:
                shutil.rmtree(rd)
        crawler, next_round = RayCrawler.resume(corpus, out)
        assert next_round == prev + 1
        crawler.run(start_round=next_round)
        assert crawl_order(out).to_pylist() == want


def test_manifest_records_per_partition_lineage(crawl_run):
    """Every checkpoint manifest lists each results file with rows +
    sha256, and the hashes match the files on disk (resume/audit can
    verify partition completeness without re-reading data)."""
    import glob
    import hashlib
    import json
    import os

    _, out_dir, _, _ = crawl_run
    manifests = sorted(glob.glob(os.path.join(out_dir, "checkpoint", "round=*", "MANIFEST.json")))
    assert manifests
    checked = 0
    for mpath in manifests:
        with open(mpath) as f:
            m = json.load(f)
        k = m["round"]
        for entry in m["lineage"]["results_files"]:
            path = os.path.join(out_dir, "rounds", f"round={k}", "results", entry["file"])
            with open(path, "rb") as f:
                assert hashlib.sha256(f.read()).hexdigest() == entry["sha256"]
            checked += 1
    assert checked > 0


def _shard_files(out_dir):
    """Every checkpoint shard file's bytes, keyed by its path under out_dir."""
    paths = sorted(glob.glob(f"{out_dir}/checkpoint/round=*/shard-*.bin"))
    return {p[len(out_dir):]: open(p, "rb").read() for p in paths}


def _lineages(out_dir):
    """Each checkpointed round's manifest lineage, keyed by round."""
    out = {}
    for path in glob.glob(f"{out_dir}/checkpoint/round=*/MANIFEST.json"):
        with open(path) as f:
            m = json.load(f)
        out[m["round"]] = m["lineage"]
    return out


def _assert_cut_files(lineage):
    """A round's results files are named by range of the cut and each
    holds 256-511 rows, or one file holds a round of under 256 rows."""
    files = lineage["results_files"]
    assert [f["file"] for f in files] == [f"part-{i:05d}.parquet" for i in range(len(files))]
    if lineage["n_rows"] < 256:
        assert len(files) == 1
    else:
        assert all(256 <= f["rows"] <= 511 for f in files)


@contextlib.contextmanager
def _as_cluster(cpus):
    """Make RayCrawler see a cluster of ``cpus`` CPUs while it sizes its
    shard groups (use around construction and resume only: Ray Data
    reads the same call)."""
    from mlscraper_ray.frontier import crawler

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crawler.ray, "cluster_resources", lambda: {"CPU": float(cpus)})
        yield


@pytest.fixture(scope="module")
def grouped_runs(ray_session, small_corpus, learned_plan, tmp_path_factory):
    """The crawl_run config with its 4 logical shards in 1 group (as
    on a 1-CPU cluster) and in 2 groups of 2 shards each."""
    from mlscraper_ray.frontier.crawler import RayCrawler

    corpus, _ = small_corpus
    runs = {}
    for cpus in (1, 2):
        out = str(tmp_path_factory.mktemp(f"grouped{cpus}"))
        with _as_cluster(cpus):
            crawler = RayCrawler(corpus, out, _config(learned_plan))
        runs[cpus] = (out, crawler.members, crawler.run())
    return runs


class TestShardGrouping:
    def test_members_dealt_round_robin(self, grouped_runs, crawl_run):
        assert grouped_runs[1][1] == [[0, 1, 2, 3]]
        assert grouped_runs[2][1] == [[0, 2], [1, 3]]
        with open(f"{crawl_run[1]}/metrics.json") as f:
            unpatched = json.load(f)
        assert unpatched["shard_groups"] == 4  # ray_session has 4 CPUs
        for cpus, (out, members, stats) in grouped_runs.items():
            with open(f"{out}/metrics.json") as f:
                metrics = json.load(f)
            assert metrics["shard_groups"] == stats["shard_groups"] == cpus
            assert metrics["sec_seed_submit"] > 0
            assert set(unpatched) == set(metrics)

    def test_order_seen_counters_match_ungrouped_and_oracle(self, grouped_runs, crawl_run):
        from mlscraper_ray.frontier.crawler import crawl_order

        corpus, out, cfg, stats = crawl_run
        fetches, seen, _, counters = oracle_crawl(corpus, cfg)
        want = crawl_order(out).to_pylist()
        for g_out, _, g_stats in grouped_runs.values():
            got = crawl_order(g_out)
            assert got.to_pylist() == want
            assert list(zip(*[got[c].to_pylist() for c in ("round", "depth", "host", "url")])) == fetches
            assert g_stats["seen"] == stats["seen"] == len(seen)
            assert g_stats["counters"] == stats["counters"]
            for key in ("admitted", "enqueued", "dropped_seen", "dropped_robots", "dropped_depth"):
                assert g_stats["counters"].get(key, 0) == counters.get(key, 0), key

    def test_checkpoint_shard_files_byte_identical(self, grouped_runs, crawl_run):
        want = _shard_files(crawl_run[1])
        assert len(want) > 4 and all(k.endswith(".bin") for k in want)
        for g_out, _, _ in grouped_runs.values():
            assert _shard_files(g_out) == want

    def test_results_files_identical_and_bundled(self, grouped_runs, crawl_run):
        """Results files are named by range of the round's cut, not by
        task or shard, so each round's manifest lineage (file names,
        rows, sha256) is the same under every grouping."""
        want = _lineages(crawl_run[1])
        assert want and all(lin["results_files"] for lin in want.values())
        for g_out, _, _ in grouped_runs.values():
            assert _lineages(g_out) == want
        for lin in want.values():
            _assert_cut_files(lin)

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 511, 512, 5000])
    def test_cut_covers_every_row_once_in_equal_ranges(self, n):
        """The round's rows, laid end to end in shard order, are cut
        into contiguous ranges of 256-511 rows (one range under 256),
        each a list of (table, start, stop) slices of non-empty tables."""
        from mlscraper_ray.frontier.crawler import _cut

        layouts = [
            [n],  # one shard holds every row
            [0, n, 0],  # zero-row shards around it
            [n // 3, 0, n - n // 3 - n // 7, 0, n // 7],
        ]
        for rows in layouts:
            ranges = _cut(rows)
            if n < 256:
                assert len(ranges) == 1
            sizes = [sum(stop - start for _, start, stop in r) for r in ranges]
            assert sum(sizes) == n
            assert n < 256 or all(256 <= size <= 511 for size in sizes)
            covered = [
                (t, i) for r in ranges for t, start, stop in r for i in range(start, stop)
            ]
            assert covered == [(t, i) for t, r in enumerate(rows) for i in range(r)]
            assert all(start < stop for r in ranges for _, start, stop in r)

    def test_resume_under_another_grouping(self, grouped_runs, crawl_run, small_corpus, tmp_path):
        """A checkpoint written by 1 group resumes under 2 groups (and
        one written by 2 groups under 4) to the same crawl order."""
        from mlscraper_ray.frontier.crawler import RayCrawler, crawl_order

        corpus, _ = small_corpus
        want = crawl_order(crawl_run[1]).to_pylist()
        for written_by, resume_on in ((1, 2), (2, 4)):
            out = str(tmp_path / f"from{written_by}")
            shutil.copytree(grouped_runs[written_by][0], out)
            for d in glob.glob(f"{out}/rounds/round=*") + glob.glob(f"{out}/checkpoint/round=*"):
                if int(d.rsplit("=", 1)[1]) > 1:
                    shutil.rmtree(d)
            with _as_cluster(resume_on):
                crawler, next_round = RayCrawler.resume(corpus, out)
            assert next_round == 2
            assert len(crawler.members) == resume_on
            crawler.run(start_round=next_round)
            assert crawl_order(out).to_pylist() == want


class TestHotHost:
    def test_mega_host_crawl_matches_oracle(
        self, ray_session, tmp_path_factory
    ):
        """End-to-end pathological corpus (one host with 64x everyone
        else's pages): a round of over 512 rows, most of them the mega
        host's, is cut into several equal results files, and the crawl
        still reproduces the single-process oracle's order, seen set,
        and counters."""
        from mlscraper_ray.frontier.crawler import RayCrawler, crawl_order

        d = str(tmp_path_factory.mktemp("megacorpus"))
        spec = CorpusSpec(
            n_hosts=4, pages_per_host=30, skew_factors=(64,), n_seeds=3
        )
        generate_corpus(d, spec)
        cfg = CrawlConfig(n_shards=2, tokens_per_round=1024, max_rounds=16, max_depth=12)
        out = str(tmp_path_factory.mktemp("megaout"))
        stats = RayCrawler(d, out, cfg).run()
        order = crawl_order(out)
        fetches, seen, _, counters = oracle_crawl(d, cfg)
        ray_order = list(
            zip(
                order["round"].to_pylist(),
                order["depth"].to_pylist(),
                order["host"].to_pylist(),
                order["url"].to_pylist(),
            )
        )
        assert ray_order == fetches
        assert stats["seen"] == len(seen)
        for key in ("admitted", "enqueued", "dropped_seen", "dropped_robots", "dropped_depth"):
            assert stats["counters"].get(key, 0) == counters.get(key, 0), key
        lineages = _lineages(out)
        for lin in lineages.values():
            _assert_cut_files(lin)
        res = _results_table(out, ["round", "host"])
        mega_rows = Counter(
            k for k, h in zip(res["round"].to_pylist(), res["host"].to_pylist()) if h == spec.host(0)
        )
        skewed = [
            k for k, lin in lineages.items() if lin["n_rows"] >= 512 and mega_rows[k] * 2 > lin["n_rows"]
        ]
        assert skewed  # the corpus does produce a big, mega-host round
        assert all(len(lineages[k]["results_files"]) >= 2 for k in skewed)


class TestTieredCrawl:
    def test_budget_for_rule(self):
        from mlscraper_ray.frontier.config import CrawlConfig

        cfg = CrawlConfig(tokens_per_round=8)
        assert cfg.budget_for("any.host") == 8  # no tiers -> uniform
        cfg.host_tiers = {"big.host": 0, "tiny.host": 2}
        cfg.tier_budgets = [16, 8, 1]
        assert cfg.budget_for("big.host") == 16
        assert cfg.budget_for("torso.host") == 8  # default_tier = 1
        assert cfg.budget_for("tiny.host") == 1
        # out-of-range tiers clamp instead of crashing
        cfg.host_tiers["weird.host"] = 9
        assert cfg.budget_for("weird.host") == 1
        # json checkpoint round trip keeps the tier policy
        import json

        back = CrawlConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back.host_tiers == cfg.host_tiers
        assert back.tier_budgets == cfg.tier_budgets

    def test_tiered_resume_identical(
        self, ray_session, small_corpus, learned_plan, tmp_path_factory
    ):
        """The tier policy rides the checkpoint manifest: a run
        truncated after round 1 and resumed must reproduce the full
        tiered crawl byte for byte."""
        from mlscraper_ray.frontier.config import CrawlConfig
        from mlscraper_ray.frontier.crawler import RayCrawler, crawl_order
        from mlscraper_ray.pipelines.crawl_pipeline import tiers_from_counts
        from mlscraper_ray.pipelines.truth_oracles import _host_page_counts_local

        corpus, spec = small_corpus
        cfg = CrawlConfig(
            n_shards=4,
            n_buckets=spec.n_buckets,
            tokens_per_round=2,
            max_rounds=20,
            max_depth=24,
            plan=learned_plan,
            host_tiers=tiers_from_counts(_host_page_counts_local(corpus)),
            tier_budgets=[4, 2, 1],
        )
        full_out = str(tmp_path_factory.mktemp("tier_full"))
        RayCrawler(corpus, full_out, cfg).run()
        full_order = crawl_order(full_out).to_pylist()

        part_out = str(tmp_path_factory.mktemp("tier_part"))
        shutil.copytree(full_out, part_out, dirs_exist_ok=True)
        for rd in glob.glob(f"{part_out}/rounds/round=*") + glob.glob(
            f"{part_out}/checkpoint/round=*"
        ):
            if int(rd.rsplit("=", 1)[1]) > 1:
                shutil.rmtree(rd)

        crawler, next_round = RayCrawler.resume(corpus, part_out)
        assert next_round == 2
        assert crawler.cfg.host_tiers == cfg.host_tiers  # policy restored
        assert crawler.cfg.tier_budgets == cfg.tier_budgets
        crawler.run(start_round=next_round)
        assert crawl_order(part_out).to_pylist() == full_order

    def test_tiered_crawl_matches_oracle_and_budgets(
        self, ray_session, small_corpus, learned_plan, tmp_path_factory
    ):
        """Distributed tiered crawl == single-process oracle under the
        same tier config, and per-(round, host) fetch counts respect
        each host's TIER budget (not the uniform token cap)."""
        from mlscraper_ray.frontier.config import CrawlConfig
        from mlscraper_ray.frontier.crawler import RayCrawler, crawl_order
        from mlscraper_ray.frontier.oracle import oracle_crawl
        from mlscraper_ray.pipelines.crawl_pipeline import tiers_from_counts
        from mlscraper_ray.pipelines.truth_oracles import _host_page_counts_local

        corpus, spec = small_corpus
        counts = _host_page_counts_local(corpus)
        cfg = CrawlConfig(
            n_shards=4,
            n_buckets=spec.n_buckets,
            tokens_per_round=2,
            max_rounds=20,
            max_depth=24,
            plan=learned_plan,
            host_tiers=tiers_from_counts(counts),
            tier_budgets=[4, 2, 1],
        )
        out = str(tmp_path_factory.mktemp("tiered_out"))
        RayCrawler(corpus, out, cfg).run()
        got = crawl_order(out).to_pandas()

        fetches, _, _, _ = oracle_crawl(corpus, cfg)
        want = [(r, d, h, u) for (r, d, h, u) in fetches]
        assert list(zip(got["round"], got["depth"], got["host"], got["url"])) == want

        per = got.groupby(["round", "host"]).size()
        for (_, host), n in per.items():
            assert n <= cfg.budget_for(host), (host, n)
        # non-vacuous: some host actually used a budget above the
        # uniform tokens_per_round, and some tail host was clamped to 1
        assert (got.groupby(["round", "host"]).size() > cfg.tokens_per_round).any()
        assert any(cfg.budget_for(h) == 1 for h in got["host"].unique())

    def test_rank_driven_tiers_differ_from_count_tiers(self, ray_session):
        """The rank-driven tier map must actually CHANGE the crawl:
        among the equal-page-count torso hosts the count proxy ties
        (tier by host name) while PageRank mass does not — so the two
        tier maps, and the resulting orders, differ (both separately
        oracle-pinned)."""
        from test_functions import SF_DIR

        from mlscraper_ray.pipelines.crawl_pipeline import crawl_order_query

        ranked = crawl_order_query(SF_DIR, variant="ranked").to_pandas()
        tiered = crawl_order_query(SF_DIR, variant="tiered").to_pandas()
        assert not ranked.equals(tiered)
        assert len(ranked) > 0 and len(tiered) > 0


class TestRecrawlTTL:
    """The delete-capable (cuckoo) seen-set path: urls expire after
    recrawl_after_rounds rounds and are re-fetched on rediscovery."""

    def test_shard_evicts_and_readmits(self, small_corpus):
        from mlscraper_ray.frontier.shard import FrontierShard
        from mlscraper_ray.state.cuckoo import CuckooFilter

        corpus, _ = small_corpus
        cfg = CrawlConfig(n_shards=1, tokens_per_round=4, recrawl_after_rounds=2)
        shard = FrontierShard(0, cfg, corpus)
        assert isinstance(shard.seen, CuckooFilter)
        url = "http://ttl.example/page"

        shard.submit([url], [1])
        assert shard.admit()["url"].to_pylist() == [url]  # round 0: fetched
        shard.submit([url], [1])
        assert shard.admit()["url"].to_pylist() == []  # round 1: still seen
        assert shard.get_counters()["dropped_seen"] == 1
        shard.submit([url], [1])
        # round 2: round-0 admission expired (ttl=2) -> re-admitted
        assert shard.admit()["url"].to_pylist() == [url]
        assert shard.get_counters()["recrawl_evicted"] == 1
        assert shard.get_counters()["admitted"] == 2

    def test_recrawl_crawl_matches_oracle(self, ray_session, small_corpus, tmp_path_factory):
        from mlscraper_ray.frontier.crawler import RayCrawler, crawl_order

        corpus, _ = small_corpus
        cfg = CrawlConfig(
            n_shards=4, tokens_per_round=2, max_rounds=10, max_depth=6,
            recrawl_after_rounds=3,
        )
        out = str(tmp_path_factory.mktemp("recrawl"))
        stats = RayCrawler(corpus, out, cfg).run()
        order = crawl_order(out)
        fetches, seen, _, counters = oracle_crawl(corpus, cfg)
        ray_order = list(
            zip(
                order["round"].to_pylist(),
                order["depth"].to_pylist(),
                order["host"].to_pylist(),
                order["url"].to_pylist(),
            )
        )
        assert ray_order == fetches
        assert stats["seen"] == len(seen)
        assert stats["counters"]["recrawl_evicted"] == counters["recrawl_evicted"] > 0
        # some url really was fetched more than once
        from collections import Counter as C

        url_counts = C(u for _, _, _, u in fetches)
        assert max(url_counts.values()) > 1

    def test_recrawl_resume_identical(self, ray_session, small_corpus, tmp_path_factory):
        """Checkpoint carries the cuckoo filter + expiry ring: a resumed
        recrawl run reproduces the uninterrupted one byte-for-byte."""
        from mlscraper_ray.frontier.crawler import RayCrawler, crawl_order

        corpus, _ = small_corpus
        cfg = CrawlConfig(
            n_shards=4, tokens_per_round=2, max_rounds=8, max_depth=6,
            recrawl_after_rounds=3,
        )
        full_out = str(tmp_path_factory.mktemp("rc_full"))
        RayCrawler(corpus, full_out, cfg).run()
        full_order = crawl_order(full_out).to_pylist()

        part_out = str(tmp_path_factory.mktemp("rc_part"))
        shutil.copytree(full_out, part_out, dirs_exist_ok=True)
        for pat in ("rounds/round=*", "checkpoint/round=*"):
            for rd in glob.glob(f"{part_out}/{pat}"):
                if int(rd.rsplit("=", 1)[1]) > 3:
                    shutil.rmtree(rd)
        crawler, next_round = RayCrawler.resume(corpus, part_out)
        assert next_round == 4
        crawler.run(start_round=next_round)
        assert crawl_order(part_out).to_pylist() == full_order


def test_recrawl_query_matches_oracle(ray_session):
    """The driver-visible crawl_order_recrawl query reproduces the
    single-process oracle under the same recrawl config."""
    from test_functions import SF_DIR

    from mlscraper_ray.pipelines.crawl_pipeline import (
        corpus_for_sf,
        crawl_config_for,
        crawl_order_query,
        learn_plan,
    )

    order = crawl_order_query(SF_DIR, variant="recrawl")
    corpus_dir, spec = corpus_for_sf(0.001)
    cfg = crawl_config_for(spec, learn_plan(corpus_dir, spec), tokens_per_round=8, max_rounds=10)
    cfg.recrawl_after_rounds = 3
    fetches, _, _, _ = oracle_crawl(corpus_dir, cfg)
    ray_order = list(
        zip(
            order["round"].to_pylist(),
            order["depth"].to_pylist(),
            order["host"].to_pylist(),
            order["url"].to_pylist(),
        )
    )
    assert ray_order == fetches


def test_crawl_order_dataset_write_parquet_roundtrip(crawl_run, tmp_path):
    """The scale-path consumer: crawl_order_dataset -> write_parquet
    reproduces the driver-contract table exactly (rank assignment is
    value-deterministic, not block-layout-dependent)."""
    from mlscraper_ray.frontier.crawler import crawl_order, crawl_order_dataset

    _, out_dir, _, _ = crawl_run
    dest = str(tmp_path / "order_parquet")
    crawl_order_dataset(out_dir).write_parquet(dest)
    back = (
        pq.read_table(dest)
        .to_pandas()
        .sort_values("rank", ignore_index=True)
    )
    direct = crawl_order(out_dir).to_pandas()
    assert back[direct.columns.tolist()].equals(direct)


def test_extract_all_dataset_twin_matches_contract_table(ray_session, tmp_path):
    """Production-path twin: the resumable partitioned sink
    round-trips to exactly the driver-contract extract_all table, and
    a re-run skips every committed bucket (resume contract)."""
    import os

    from mlscraper_ray.pipelines.crawl_pipeline import (
        extract_all_query,
        extract_all_to_parquet,
    )

    sf_dir = "/root/testdata/sf0.001"
    dest = str(tmp_path / "extracted")
    first = extract_all_to_parquet(sf_dir, dest)
    assert first["written"] > 1 and first["skipped"] == 0
    back = (
        pq.read_table(dest, columns=["url", "value_json"])
        .to_pandas()
        .sort_values("url", ignore_index=True)
    )
    direct = extract_all_query(sf_dir).to_pandas()
    assert back[direct.columns.tolist()].equals(direct)
    # resume: everything committed -> all skipped, nothing rewritten
    again = extract_all_to_parquet(sf_dir, dest)
    assert again == {"written": 0, "skipped": first["written"]}
    # a bucket whose marker is missing (crashed mid-write) is redone
    victim = sorted(p for p in os.listdir(dest))[0]
    os.remove(os.path.join(dest, victim, "_SUCCESS"))
    third = extract_all_to_parquet(sf_dir, dest)
    assert third == {"written": 1, "skipped": first["written"] - 1}


def test_plain_crawl_reused_after_other_config_run(ray_session, tmp_path, monkeypatch):
    """Crawl directories are keyed by config: a 128-token crawl (the
    bench's shape) no longer overwrites the plain crawl, so the
    metrics queries reuse it instead of crawling again."""
    from mlscraper_ray.frontier.crawler import RayCrawler
    from mlscraper_ray.pipelines import crawl_pipeline as cp

    sf_dir = str(tmp_path / "sf0.001")  # only the scale in the name is read
    plain, _, _ = cp.run_crawl(sf_dir)
    other, _, _ = cp.run_crawl(sf_dir, tokens_per_round=128, max_rounds=60)
    runs = []
    real_run = RayCrawler.run

    def counting_run(self, *args, **kwargs):
        runs.append(1)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(RayCrawler, "run", counting_run)
    assert cp._plain_crawl_artifacts(sf_dir) == plain != other
    assert runs == []


def test_back_to_back_crawls_share_no_worker_state(
    ray_session, small_corpus, learned_plan, tmp_path_factory
):
    """Shards live in no process of their own, and fetch and group
    tasks reuse the same pooled workers, whose per-process caches
    (``crawl_stages._STAGE_CACHE``) outlive a crawl. Two crawls with
    different configs back to back in one Ray session, with a resume
    of the first in between, must each equal the oracle: order, seen
    and counters."""
    from mlscraper_ray.frontier.crawler import RayCrawler, crawl_order
    from mlscraper_ray.pipelines.crawl_pipeline import tiers_from_counts
    from mlscraper_ray.pipelines.truth_oracles import _host_page_counts_local

    corpus, spec = small_corpus
    bloom = _config(learned_plan)
    cuckoo = CrawlConfig(
        n_shards=4, n_buckets=spec.n_buckets, tokens_per_round=2, max_rounds=10, max_depth=6,
        plan=learned_plan, recrawl_after_rounds=3,
        host_tiers=tiers_from_counts(_host_page_counts_local(corpus)), tier_budgets=[3, 2, 1],
    )

    def check(out, cfg, stats):
        fetches, seen, _, counters = oracle_crawl(corpus, cfg)
        order = crawl_order(out)
        assert list(zip(*[order[c].to_pylist() for c in ("round", "depth", "host", "url")])) == fetches
        assert stats["seen"] == len(seen)
        for key in set(counters) | {"admitted", "enqueued", "dropped_seen"}:
            if key != "fetch_miss":
                assert stats["counters"].get(key, 0) == counters.get(key, 0), key

    first = str(tmp_path_factory.mktemp("first"))
    check(first, bloom, RayCrawler(corpus, first, bloom).run())
    resumed = str(tmp_path_factory.mktemp("resumed"))
    shutil.copytree(first, resumed, dirs_exist_ok=True)
    for d in glob.glob(f"{resumed}/rounds/round=*") + glob.glob(f"{resumed}/checkpoint/round=*"):
        if int(d.rsplit("=", 1)[1]) > 1:
            shutil.rmtree(d)
    crawler, next_round = RayCrawler.resume(corpus, resumed)
    assert next_round == 2
    check(resumed, bloom, crawler.run(start_round=next_round))
    second = str(tmp_path_factory.mktemp("second"))
    stats = RayCrawler(corpus, second, cuckoo).run()
    check(second, cuckoo, stats)
    assert stats["counters"]["recrawl_evicted"] > 0
