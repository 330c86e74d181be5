"""Crafted-input tests for the round-4 scrub/packing operators:
duplicated-segment removal (both paths), consecutive-repeat collapse,
sequence packing (prefix-sum contiguity), and per-source top terms.
The sf0.001 DuckDB oracle matches live in test_functions.py."""
import os
import sys

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(__file__))
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_DIR = "/root/testdata/sf0.001"


def _write_docs(tmp_path, texts, langs=None, sources=None):
    n = len(texts)
    t = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs or ["en"] * n, pa.string()),
            "source": pa.array(sources or ["s0"] * n, pa.string()),
            "n_chars": pa.array([len(s) for s in texts], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    return str(tmp_path)


class TestScrubDupRuns:
    def test_arbitrary_offset_passage_removed_short_shared_kept(
        self, ray_session, tmp_path
    ):
        """The case dedup_segments MISSES by construction: a 20-token
        passage embedded at DIFFERENT offsets in two docs (so the
        non-overlapping 8-word chunking never aligns) must be removed
        from both; a shared run shorter than min_run must be kept."""
        import hashlib

        from mlscraper_ray.functions.scrub import scrub_dup_runs

        passage = " ".join(f"p{i}" for i in range(20))
        short = " ".join(f"s{i}" for i in range(10))  # >= g, < min_run
        texts = [
            "lead " + passage + " tail0 tail1",           # offset 1
            "a b c " + passage,                            # offset 3
            "x0 " + short + " y0 y1 y2",                  # short shared run
            short,                                         # ditto, other doc
            "unique only words in this one document here", # untouched
            "",                                            # blank survives
        ]
        out = scrub_dup_runs(
            _write_docs(tmp_path, texts), g=8, min_run=16
        ).to_pandas().set_index("doc_id")

        def md5(s):
            return hashlib.md5(s.encode()).hexdigest()

        assert out.loc[0, "n_runs_removed"] == 1
        assert out.loc[0, "n_tokens_removed"] == 20
        assert out.loc[0, "clean_md5"] == md5("lead tail0 tail1")
        assert out.loc[1, "n_runs_removed"] == 1
        assert out.loc[1, "n_tokens_removed"] == 20
        assert out.loc[1, "clean_md5"] == md5("a b c")
        # the 10-token shared run is covered but under min_run: kept
        assert out.loc[2, "n_runs_removed"] == 0
        assert out.loc[2, "clean_md5"] == md5(texts[2])
        assert out.loc[3, "n_runs_removed"] == 0
        assert out.loc[4, "n_runs_removed"] == 0
        assert out.loc[5, "clean_md5"] == md5("")

    def test_bucketed_path_matches_broadcast(self, ray_session, tmp_path, set_pull_cap):
        """A pull cap of 0 forces the join-back path; output must be
        bit-identical to the broadcast screen (the oracle-checked
        default)."""
        from mlscraper_ray.functions.scrub import scrub_dup_runs

        a = scrub_dup_runs(SF_DIR).to_pandas()
        pulls = set_pull_cap(0)
        b = scrub_dup_runs(SF_DIR).to_pandas()
        pd.testing.assert_frame_equal(a, b)
        assert pulls == ["shuffle"]
        assert len(a) > 0
        # non-vacuous on the shipped corpus: exact-dup docs share all
        # grams, so whole docs get scrubbed somewhere
        assert (a["n_runs_removed"] > 0).any()


class TestDedupSegments:
    def test_edge_docs_and_cross_doc_removal(self, ray_session, tmp_path):
        from mlscraper_ray.functions.scrub import dedup_segments

        shared = " ".join(f"w{i}" for i in range(8))  # one full segment
        texts = [
            "",  # blank doc survives with empty clean_text
            "   ",  # whitespace-only ditto
            "solo",  # short unique doc: single sub-8-word segment, kept
            shared + " tail words here",  # shares seg with doc 4
            shared,  # exactly one shared segment -> fully scrubbed
            ("dup " * 16).strip(),  # 2 IDENTICAL segments but only in THIS doc (df=1): kept
        ]
        out = dedup_segments(_write_docs(tmp_path, texts), seg_words=8).to_pandas()
        out = out.set_index("doc_id")
        assert out.loc[0, "clean_text"] == "" and out.loc[0, "n_segs_removed"] == 0
        assert out.loc[1, "clean_text"] == "" and out.loc[1, "n_segs_removed"] == 0
        assert out.loc[2, "clean_text"] == "solo"
        assert out.loc[3, "clean_text"] == "tail words here"
        assert out.loc[3, "n_segs_removed"] == 1
        assert out.loc[4, "clean_text"] == "" and out.loc[4, "n_segs_removed"] == 1
        # within-doc repetition alone is NOT cross-doc duplication
        assert out.loc[5, "clean_text"] == ("dup " * 16).strip()
        assert out.loc[5, "n_segs_removed"] == 0

    def test_within_doc_repeat_shared_removes_all_occurrences(self, ray_session, tmp_path):
        from mlscraper_ray.functions.scrub import dedup_segments

        seg = " ".join(f"x{i}" for i in range(8))
        texts = [seg + " " + seg, seg]  # doc0 holds it twice, doc1 once
        out = (
            dedup_segments(_write_docs(tmp_path, texts), seg_words=8)
            .to_pandas()
            .set_index("doc_id")
        )
        assert out.loc[0, "n_segs_removed"] == 2  # occurrences, not distinct
        assert out.loc[1, "n_segs_removed"] == 1
        assert (out["clean_text"] == "").all()

    def test_joinback_path_matches_broadcast_and_oracle(self, ray_session, set_pull_cap):
        from oracle_compare import compare, to_pandas, value_hash

        from mlscraper_ray.functions.scrub import DEDUP_SEGMENTS_SQL, dedup_segments

        broadcast = dedup_segments(SF_DIR)
        pulls = set_pull_cap(0)
        joinback = dedup_segments(SF_DIR)
        assert value_hash(to_pandas(broadcast)) == value_hash(to_pandas(joinback))
        assert pulls == ["shuffle"]
        c = compare(joinback, DEDUP_SEGMENTS_SQL, SF_DIR)
        assert c["hash_match"], c

    def test_joinback_blank_docs_survive(self, ray_session, tmp_path, set_pull_cap):
        from mlscraper_ray.functions.scrub import dedup_segments

        seg = " ".join(f"y{i}" for i in range(8))
        pulls = set_pull_cap(0)
        out = (
            dedup_segments(_write_docs(tmp_path, ["", seg, seg]))
            .to_pandas()
            .set_index("doc_id")
        )
        assert pulls == ["shuffle"]
        assert len(out) == 3
        assert out.loc[0, "clean_text"] == "" and out.loc[0, "n_segs_removed"] == 0


class TestCollapseRepeats:
    def test_runs_collapse(self, ray_session, tmp_path):
        from mlscraper_ray.functions.scrub import collapse_repeats

        out = (
            collapse_repeats(
                _write_docs(tmp_path, ["a a a b a", "", "x", "z z"])
            )
            .to_pandas()
            .set_index("doc_id")
        )
        assert out.loc[0, "text_collapsed"] == "a b a"
        assert out.loc[0, "n_removed"] == 2
        assert out.loc[1, "text_collapsed"] == "" and out.loc[1, "n_removed"] == 0
        assert out.loc[2, "text_collapsed"] == "x"
        assert out.loc[3, "text_collapsed"] == "z" and out.loc[3, "n_removed"] == 1


class TestPackSequences:
    def test_offsets_are_contiguous_and_cover_total(self, ray_session):
        from mlscraper_ray.functions.packing import pack_sequences

        out = pack_sequences(SF_DIR, seq_len=512).to_pandas()
        by_off = out.sort_values("begin_off")
        # exact prefix-sum contract: offsets tile [0, total) with no
        # gaps or overlaps in rank order
        expect = by_off["n_tokens"].cumsum() - by_off["n_tokens"]
        assert (by_off["begin_off"].values == expect.values).all()
        assert (out["seq_begin"] == out["begin_off"] // 512).all()
        assert (
            out["seq_end"] == (out["begin_off"] + out["n_tokens"] - 1) // 512
        ).all()

    def test_bucket_count_invariance(self, ray_session):
        from oracle_compare import to_pandas, value_hash

        from mlscraper_ray.functions.packing import pack_sequences

        a = pack_sequences(SF_DIR, n_rank_buckets=1)
        b = pack_sequences(SF_DIR, n_rank_buckets=97)
        assert value_hash(to_pandas(a)) == value_hash(to_pandas(b))

    def test_zero_token_docs_excluded(self, ray_session, tmp_path):
        from mlscraper_ray.functions.packing import pack_sequences

        out = pack_sequences(
            _write_docs(tmp_path, ["", "one two three", "  ", "four"]), seq_len=2
        ).to_pandas()
        assert set(out["doc_id"]) == {1, 3}
        assert out["n_tokens"].sum() == 4


class TestCorpusToTraining:
    def test_composite_packs_exactly_the_curate_survivors(self, ray_session):
        from oracle_compare import to_pandas

        from mlscraper_ray.functions.curate import curate_corpus
        from mlscraper_ray.functions.packing import corpus_to_training

        packed = to_pandas(corpus_to_training(SF_DIR))
        manifest = to_pandas(curate_corpus(SF_DIR))
        kept = manifest[manifest["n_tokens"] > 0]
        assert set(packed["doc_id"]) == set(kept["doc_id"])
        # offsets tile [0, total_kept_tokens) over the survivors
        by_off = packed.sort_values("begin_off")
        expect = by_off["n_tokens"].cumsum() - by_off["n_tokens"]
        assert (by_off["begin_off"].values == expect.values).all()
        assert by_off["begin_off"].iloc[0] == 0


class TestSourceTopTerms:
    def test_counts_and_tiebreaks(self, ray_session, tmp_path):
        from mlscraper_ray.functions.packing import source_top_terms

        sf = _write_docs(
            tmp_path,
            ["b a a", "c b", "z z q"],
            sources=["sA", "sA", "sB"],
        )
        out = source_top_terms(sf, k=2).to_pandas()
        sa = out[out["source"] == "sA"].set_index("rank")
        assert sa.loc[1, "word"] == "a" and sa.loc[1, "cnt"] == 2
        assert sa.loc[2, "word"] == "b" and sa.loc[2, "cnt"] == 2  # tie -> lex
        sb = out[out["source"] == "sB"].set_index("rank")
        assert sb.loc[1, "word"] == "z" and sb.loc[2, "word"] == "q"

    def test_k_parameter_roundtrips_sql(self, ray_session):
        from oracle_compare import compare

        from mlscraper_ray.functions.packing import source_top_terms, source_top_terms_sql

        c = compare(
            source_top_terms(SF_DIR, k=3), source_top_terms_sql(k=3), SF_DIR
        )
        assert c["hash_match"], c
