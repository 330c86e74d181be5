"""Operator correctness: SQL-checked queries vs DuckDB (the driver's
gate, replicated locally at sf0.001) + crafted-input tests for the
near-dup operators the synthetic testdata can't pin down."""
import os
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(__file__))
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from mlscraper_ray.pipelines.truth_oracles import TRUTH  # noqa: E402  (imports no ray)

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def entry_mod(ray_session):
    import __ray_entry__ as E

    return E


def _oracle_names():
    # static copy so pytest can parametrize without importing ray early
    return [
        "q1_pricing_summary",
        "revenue_by_nation",
        "events_by_type",
        "top_users_by_value",
        "event_value_percentiles",
        "order_lineitem_revenue",
        "part_brand_revenue",
        "supplier_nation_summary",
        "q6_discount_revenue",
        "q3_shipping_priority",
        "orders_with_returns",
        "q5_local_supplier_volume",
        "q18_large_orders",
        "q10_returned_revenue",
        "part_supplier_diversity",
        "top_customers_by_nation",
        "customer_rfm_segments",
        "orders_repeat_rate",
        "lineitem_discount_bands",
        "orders_monthly_revenue",
        "revenue_rollup",
        "corpus_validate",
        "customers_without_orders",
        "events_asof_join",
        "events_range_join",
        "dedup_exact",
        "dedup_incremental",
        "dedup_bloom_screen",
        "dedup_query_similar",
        "doc_winnow_fingerprints",
        "dedup_winnow_pairs",
        "dedup_winnow_clusters",
        "dedup_minhash_incremental",
        "dedup_ngram_jaccard",
        "dedup_containment",
        "doc_dup_span_stats",
        "dedup_simhash_pairs",
        "dedup_simhash_clusters",
        "source_pair_matrix",
        "doc_gram_novelty",
        "simhash_pair_histogram",
        "dedup_prefix_groups",
        "doc_simhash",
        "dedup_segments",
        "doc_scrub_dup_runs",
        "doc_collapse_repeats",
        "doc_sample_stratified",
        "doc_sample_fixed_k",
        "doc_sample_k_per_source",
        "doc_sample_weighted_k",
        "events_attribution",
        "hourly_distinct_users",
        "events_type_lift",
        "events_user_value_rank",
        "events_signup_to_purchase",
        "events_interarrival",
        "events_dau_wau",
        "events_peak_concurrency",
        "events_heavy_hitters",
        "session_duration_percentiles",
        "events_burst_users",
        "user_activity_histogram",
        "events_value_topk_share",
        "source_length_gini",
        "source_lang_mix",
        "source_length_percentiles",
        "vocab_growth_curve",
        "token_length_histogram",
        "source_ttr",
        "embed_knn_graph",
        "ann_cosine_filtered_topk",
        "embed_outliers",
        "text_search_near",
        "text_search_regex",
        "text_search_near_indexed",
        "embed_mutual_knn_clusters",
        "embed_top_component",
        "embed_dim_stats",
        "embed_norm_histogram",
        "doc_readability",
        "doc_char_entropy",
        "doc_pareto_front",
        "pack_sequences",
        "doc_chunk_windows",
        "url_pattern_stats",
        "source_top_terms",
        "corpus_to_training",
        "doc_unigram_surprisal",
        "doc_bigram_surprisal",
        "doc_perplexity_buckets",
        "doc_token_stats",
        "doc_sentence_stats",
        "doc_ttr",
        "source_length_histogram",
        "source_token_drift",
        "source_char_classes",
        "source_dedup_report",
        "source_neardup_report",
        "doc_bpe_token_stats",
        "tokenizer_bpe_train",
        "tokenizer_bpe_vocab",
        "doc_bpe_encode",
        "doc_tfidf_top_terms",
        "source_token_totals",
        "source_datacard",
        "source_temperature_mix",
        "source_epoch_mix",
        "source_token_quota",
        "source_distinct_hll",
        "source_token_cms",
        "source_overlap",
        "corpus_dsir_select",
        "doc_quality",
        "doc_quality_classifier",
        "doc_gopher_rules",
        "doc_repetition_stats",
        "doc_oov_rate",
        "bigram_dice_top",
        "window_cooc_lift",
        "doc_length_outliers",
        "doc_strip_boilerplate",
        "source_quality_gate",
        "events_session_paths",
        "doc_langid",
        "doc_clean",
        "doc_pii_scrub",
        "doc_sample_10pct",
        "corpus_split",
        "corpus_split_by_source",
        "corpus_snapshot_diff",
        "dedup_query_similar_indexed",
        "doc_fingerprints",
        "corpus_curate",
        "corpus_decontaminate",
        "url_canonical_dedup",
        "frontier_url_filter",
        "dedup_minhash",
        "neardup_clusters",
        "corpus_dedup_canonical",
        "text_search_bm25",
        "text_search_bm25_indexed",
        "text_search_phrase",
        "text_search_phrase_indexed",
        "ann_cosine_topk",
        "ann_cosine_range",
        "ann_cosine_multi_topk",
        "embed_label_centroids",
        "doc_topic_clusters",
        "corpus_cluster_sample",
        "embed_knn_label_eval",
        "embed_pair_histogram",
        "ann_ivf_topk",
        "ann_ivf_trained_topk",
        "ann_ivf_pq_topk",
        "ann_ivf_pq_residual_topk",
        "ann_lsh_topk",
        "embed_kmeans_int",
        "embed_semdedup",
        "embed_pq_codes",
        "embed_random_projection",
        "embed_neardup_pairs",
        "sessionize",
        "events_decayed_value",
        "events_funnel",
        "events_retention",
        "event_value_quantile_sketch",
        "hourly_event_counts",
        "events_hour_of_day",
        "event_value_histogram",
        "events_rate_anomaly",
        "events_session_type_pairs",
        "events_props_stats",
        "events_markov_transitions",
        "events_user_lifetime",
        "sliding_window_counts",
        "top_event_per_user",
    ]


@pytest.mark.parametrize("name", _oracle_names())
def test_query_matches_duckdb_oracle(entry_mod, name):
    from oracle_compare import compare

    sql = entry_mod.oracle_sql()[name]
    result = entry_mod.queries()[name](SF_DIR)
    c = compare(result, sql, SF_DIR)
    assert c["hash_match"], c


@pytest.mark.parametrize("name", sorted(TRUTH))
def test_truth_oracle_matches_at_test_scale(entry_mod, name):
    """The driver-contract constant-table oracles are built for
    sf0.01; this pins the same builders against the pipelines at the
    local test scale (generator/oracle-crawler truth, sf-agnostic)."""
    from oracle_compare import compare

    result = entry_mod.queries()[name](SF_DIR)
    c = compare(result, TRUTH[name](0.001), SF_DIR)
    assert c["hash_match"], c


class TestNearDupCrafted:
    @pytest.fixture(scope="class")
    def docs_dir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("docs")
        base = "the quick brown fox jumps over the lazy dog again and again today"
        texts = [
            base,                                   # 0
            base,                                   # 1: exact dup of 0
            base.replace("lazy", "sleepy"),         # 2: near dup of 0
            "completely different content about ray data pipelines and arrow",  # 3
            "another unrelated document mentioning parquet blocks and shuffles",  # 4
        ]
        t = pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(texts)),
                "source": pa.array(["t"] * len(texts)),
                "n_chars": pa.array([len(x) for x in texts], pa.int64()),
            }
        )
        pq.write_table(t, str(d / "documents.parquet"))
        return str(d)

    def test_exact_dedup_groups_identical_texts(self, ray_session, docs_dir):
        from mlscraper_ray.functions.dedup import exact_dedup

        out = exact_dedup(docs_dir).to_pandas()
        assert len(out) == 4  # 5 docs, one exact-dup pair
        dup_row = out[out["n_dups"] == 2]
        assert len(dup_row) == 1
        assert dup_row["doc_id"].iloc[0] == 0  # min doc_id survives

    def test_minhash_finds_exact_and_near_dups(self, ray_session, docs_dir):
        from mlscraper_ray.functions.dedup import minhash_dedup

        pairs = minhash_dedup(docs_dir, threshold_pct=50).to_pandas()
        got = set(zip(pairs["doc_a"], pairs["doc_b"]))
        assert (0, 1) in got  # exact dup
        assert (0, 2) in got and (1, 2) in got  # near dup
        assert not any(3 in p or 4 in p for p in got)

    def test_simhash_pairs(self, ray_session, docs_dir):
        import ray.data

        from mlscraper_ray.functions.dedup import simhash_neardup_pairs

        docs = ray.data.read_parquet(os.path.join(docs_dir, "documents.parquet"))
        pairs = simhash_neardup_pairs(docs, max_hamming=3).to_pandas()
        got = set(zip(pairs["doc_a"], pairs["doc_b"]))
        assert (0, 1) in got  # identical -> hamming 0
        zero = pairs[(pairs["doc_a"] == 0) & (pairs["doc_b"] == 1)]
        assert zero["hamming"].iloc[0] == 0

    def test_jaccard_values_are_exact(self, ray_session, docs_dir):
        from mlscraper_ray.functions.dedup import minhash_dedup, word_gram_set

        pairs = minhash_dedup(docs_dir, threshold_pct=50).to_pandas()
        base = "the quick brown fox jumps over the lazy dog again and again today"
        near = base.replace("lazy", "sleepy")
        sa, sb = word_gram_set(base), word_gram_set(near)
        expected = (100 * len(sa & sb)) // len(sa | sb)
        row = pairs[(pairs["doc_a"] == 0) & (pairs["doc_b"] == 2)]
        assert row["jaccard_pct"].iloc[0] == expected

    def test_minhash_bucketed_verify_path_matches_broadcast(
        self, ray_session, docs_dir, set_pull_cap
    ):
        from mlscraper_ray.functions.dedup import minhash_dedup

        broadcast = minhash_dedup(docs_dir, threshold_pct=50).to_pandas()
        pulls = set_pull_cap(0)
        bucketed = minhash_dedup(docs_dir, threshold_pct=50).to_pandas()
        assert broadcast.equals(bucketed)
        assert pulls == ["shuffle"]

    def test_emit_pairs_hot_bucket_guard(self):
        """A degenerate bucket (thousands of docs with one signature)
        collapses to linear representative pairs; normal buckets stay
        exact."""
        from mlscraper_ray.functions.dedup import _emit_pairs_by_key

        hot = pd.DataFrame({"bucket": [7] * 3000, "doc_id": range(3000)})
        out = _emit_pairs_by_key(hot, "bucket", max_group_docs=1024)
        assert len(out) == 2999  # rep (0) x each other doc, not ~4.5M
        assert (out["doc_a"] == 0).all()
        small = pd.DataFrame({"bucket": [1] * 5, "doc_id": range(5)})
        exact = _emit_pairs_by_key(small, "bucket", max_group_docs=1024)
        assert len(exact) == 10  # 5 choose 2, untouched

    def test_bm25_index_agrees_with_full_scan_and_resumes(self, ray_session, tmp_path):
        """The persisted-index query must equal the full-scan ranking
        restricted to matching docs (an index never materializes
        non-matches), and a rebuilt-over index skips all shards."""
        from mlscraper_ray.functions.search import (
            bm25_index_to_parquet,
            bm25_query_index,
            bm25_topk,
        )

        index_dir = str(tmp_path / "bm25_index")
        r1 = bm25_index_to_parquet(SF_DIR, index_dir, n_shards=8)
        assert r1 == {"written": 8, "skipped": 0}
        got = bm25_query_index(index_dir).to_pandas()

        full = bm25_topk(SF_DIR, k=10).to_pandas()
        want = full[full["score_m"] > 0].reset_index(drop=True)
        pd.testing.assert_frame_equal(got.head(len(want)), want)

        r2 = bm25_index_to_parquet(SF_DIR, index_dir, n_shards=8)
        assert r2 == {"written": 0, "skipped": 8}

        # probing only absent terms must return a TYPED empty result,
        # not crash on empty-Dataset to_pandas() column loss
        none = bm25_query_index(index_dir, terms=("zzzz_not_a_word",)).to_pandas()
        assert len(none) == 0
        assert sorted(none.columns) == ["doc_id", "n_tokens", "score_m"]

    def test_cms_overcounts_but_never_undercounts(self, ray_session, tmp_path):
        """A 3000-word vocabulary over 4x256 counters forces
        collisions: estimates must stay >= truth everywhere and
        actually exceed it somewhere (the testdata corpus is too small
        to collide, so this is the sketch-property pin)."""
        from mlscraper_ray.functions.textstats import source_token_cms

        words = " ".join(f"w{i:04d}" for i in range(3000))
        t = pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array([words, "hot " * 50], pa.string()),
                "source": pa.array(["s0", "s0"], pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = source_token_cms(str(tmp_path)).to_pandas()
        assert (out["est"] >= out["true_cnt"]).all()
        hot = out[out["word"] == "hot"]
        assert len(hot) == 1 and int(hot["true_cnt"].iloc[0]) == 50
        # collisions must inflate at least one probe estimate
        assert (out["est"] > out["true_cnt"]).any()

    def test_structure_fingerprint_semantics(self):
        """Same structure + different text -> same fingerprint;
        class or nesting change -> different fingerprint."""
        from mlscraper_ray.functions.templates import (
            structure_fingerprint_tokens,
            structure_tokens,
        )
        from mlscraper_ray.htmlcore.dom import parse_html

        def fp(html):
            return structure_fingerprint_tokens(structure_tokens(parse_html(html)))

        a = fp('<html><body><div class="x"><p>hello</p></div></body></html>')
        b = fp('<html><body><div class="x"><p>совсем other words</p></div></body></html>')
        c = fp('<html><body><div class="y"><p>hello</p></div></body></html>')
        d = fp('<html><body><div class="x"><p>hello</p><p>x</p></div></body></html>')
        assert a == b           # text-invariant
        assert a != c           # class-sensitive
        assert a != d           # structure-sensitive

    def test_pq_fused_fit_equals_separate_fits(self, ray_session):
        """One-pass-per-iteration multi-subspace training must equal m
        independent one-subspace fits over each 16-dim slice, bit for
        bit."""
        import numpy as np

        from mlscraper_ray.functions.similarity import (
            _EMBEDDINGS,
            _lloyd_int_fit,
            _quantized,
            pq_fit,
        )

        def sliced(s):
            def features(batch):
                ids, x = _quantized(batch)
                return ids, x[:, s * 16 : (s + 1) * 16]

            return features

        fused = pq_fit(SF_DIR, m=4, n_clusters=8, n_iters=2)
        sep = np.concatenate([_lloyd_int_fit(SF_DIR, _EMBEDDINGS, sliced(s), 8, 2) for s in range(4)])
        assert fused.shape == (4, 8, 16)
        assert np.array_equal(fused, sep)

    def test_pq_codes_quantize_nonvacuously(self, ray_session):
        """PQ output actually spreads vectors across codebook entries
        in every subspace (a degenerate all-one-code table would still
        hash-match a broken-in-the-same-way oracle) and reconstruction
        error is positive for at least most vectors."""
        from mlscraper_ray.functions.similarity import embed_pq_codes

        out = embed_pq_codes(SF_DIR).to_pandas()
        assert len(out) == 500
        for s in range(4):
            assert out[f"c{s}"].nunique() > 1, s
        assert (out["dist2"] > 0).mean() > 0.9
        assert (out["dist2"] >= 0).all()

    def test_canonicalize_url_properties(self):
        """Property sweep over generated URLs: canonicalization is
        IDEMPOTENT, and insensitive to scheme/host case, fragments,
        utm params, query order and trailing slashes."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from mlscraper_ray.functions.urls import canonicalize_url as c

        label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=6)
        qpair = st.tuples(label, label)

        @settings(max_examples=150, deadline=None)
        @given(
            host=st.lists(label, min_size=1, max_size=3).map(".".join),
            path=st.lists(label, min_size=0, max_size=3).map(lambda ps: "/" + "/".join(ps) if ps else ""),
            q=st.lists(qpair, min_size=0, max_size=4),
            scheme=st.sampled_from(["http", "https"]),
            trail=st.booleans(),
            frag=st.booleans(),
        )
        def check(host, path, q, scheme, trail, frag):
            qs = "&".join(f"{k}={v}" for k, v in q)
            base = f"{scheme}://{host}{path}"
            url = base + ("/" if trail else "") + (f"?{qs}" if qs else "") + ("#frag" if frag else "")
            canon = c(url)
            assert c(canon) == canon  # idempotent
            # case-folded spelling canonicalizes identically
            assert c(url.replace(f"{scheme}://{host}", f"{scheme.upper()}://{host.upper()}", 1)) == canon
            # utm noise and query order are invisible
            noisy = base + (f"?utm_x=1&{qs}" if qs else "?utm_x=1")
            plain = base + (f"?{qs}" if qs else "")
            assert c(noisy) == c(plain)
            import random

            shuffled = list(q)
            random.Random(0).shuffle(shuffled)
            qs2 = "&".join(f"{k}={v}" for k, v in shuffled)
            assert c(base + (f"?{qs2}" if qs2 else "")) == c(plain)

        check()

    def test_canonicalize_url_rules(self):
        """One assertion per documented canonicalization rule."""
        from mlscraper_ray.functions.urls import canonicalize_url as c

        assert c("HTTPS://Example.COM/a") == "https://example.com/a"
        assert c("https://example.com:443/a") == "https://example.com/a"
        assert c("http://example.com:80/a") == "http://example.com/a"
        assert c("http://example.com:8080/a") == "http://example.com:8080/a"
        assert c("https://example.com/a#frag") == "https://example.com/a"
        assert c("https://example.com/a?utm_source=x&q=1") == "https://example.com/a?q=1"
        assert c("https://example.com/a?b=2&a=1") == "https://example.com/a?a=1&b=2"
        assert c("https://example.com/a/") == "https://example.com/a"
        assert c("https://example.com/") == "https://example.com"
        # duplicate non-utm keys survive, sorted by (key, value)
        assert c("https://example.com/a?x=2&x=1") == "https://example.com/a?x=1&x=2"
        # blank values survive (keep_blank_values)
        assert c("https://example.com/a?flag=&z=1") == "https://example.com/a?flag=&z=1"
        # userinfo and non-default port preserved
        assert c("https://u:p@Example.com:444/a") == "https://u:p@example.com:444/a"
        # idempotent on already-canonical forms
        for u in ["https://example.com/a?a=1&b=2", "http://h.io/x"]:
            assert c(c(u)) == c(u)
        # IPv6 literals keep their brackets (and the default port rule)
        assert c("https://[::1]:8080/a") == "https://[::1]:8080/a"
        assert c("https://[2001:DB8::1]:443/a") == "https://[2001:db8::1]/a"
        # malformed port: lowercased raw authority, never an exception
        assert c("http://Host:abc/x") == "http://host:abc/x"
        # query escapes NORMALIZE through the parse/encode round trip
        assert c("https://example.com/a?q=hello%20world") == "https://example.com/a?q=hello+world"

    def test_quality_classifier_custom_bucket_count(self, ray_session):
        """n_buckets != the module default must hash into the sized
        weight table (regression: buckets were computed mod the
        constant, crashing for smaller tables)."""
        from mlscraper_ray.functions.classifier import QualityClassifierStage

        stage = QualityClassifierStage(n_buckets=64)
        out = stage(
            pd.DataFrame({"doc_id": [1], "text": ["many different words here now"]})
        )
        assert len(out) == 1 and int(out["n_tokens"].iloc[0]) == 5

    def test_pq_rejects_indivisible_subspaces(self):
        from mlscraper_ray.functions.similarity import embed_pq_codes_sql

        with pytest.raises(ValueError, match="not divisible"):
            embed_pq_codes_sql(m=3, dim=64)

    def test_tfidf_paths_bit_identical(self, ray_session, set_pull_cap):
        """A pull cap of 0 forces the bucketed join-back + doc-group
        top-k cut; it must equal the broadcast path bit for bit."""
        from mlscraper_ray.functions.keywords import doc_tfidf_top_terms

        a = doc_tfidf_top_terms(SF_DIR).to_pandas()
        pulls = set_pull_cap(0)
        b = doc_tfidf_top_terms(SF_DIR).to_pandas()
        pd.testing.assert_frame_equal(a, b)
        assert len(a) > 0
        assert pulls == ["shuffle"]

    def test_quality_classifier_sign_discipline(self, ray_session):
        """The classifier's mean uses the positive-shift division form
        (DuckDB // truncates, Python floors). Pin that the testdata
        actually exercises NEGATIVE scores (else the parity check is
        vacuous) and that mean_milli equals the shifted formula."""
        from mlscraper_ray.functions.classifier import quality_classifier

        out = quality_classifier(SF_DIR).to_pandas()
        assert (out["score"] < 0).any() and (out["score"] > 0).any()
        expect = (1000 * out["score"] + 1_000_000 * out["n_tokens"]) // out[
            "n_tokens"
        ] - 1_000_000
        assert (out["mean_milli"] == expect).all()
        assert (out["keep"] == (out["score"] >= 0)).all()

    def test_containment_catches_quote_inclusion(self, ray_session, tmp_path):
        """A short doc quoted verbatim inside a long one: containment
        fires 100% in the short->long direction only, while Jaccard at
        its default threshold misses the pair entirely."""
        from mlscraper_ray.functions.dedup import (
            ngram_containment_pairs,
            ngram_jaccard_pairs,
        )

        short = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
        longdoc = (
            "intro words about something else entirely now quoting "
            + short
            + " and then a very long tail of additional unrelated filler"
            " content that keeps going with many more distinct words"
            " padding the gram set far beyond the quoted span size"
        )
        other = "totally disjoint text speaking of arrow blocks and ray actors in production"
        t = pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array([short, longdoc, other], pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))

        cont = ngram_containment_pairs(str(tmp_path)).to_pandas()
        got = {(r.doc_id, r.other_id): r.containment_pct for r in cont.itertuples()}
        assert got.get((0, 1)) == 100  # short fully inside long
        assert (1, 0) not in got       # reverse direction below threshold
        assert all(k[0] != 2 and k[1] != 2 for k in got)

        jac = ngram_jaccard_pairs(str(tmp_path)).to_pandas()
        assert len(jac) == 0  # Jaccard-blind duplicate class

    def test_containment_min_grams_floor_drops_tiny_docs(self, ray_session, tmp_path):
        from mlscraper_ray.functions.dedup import ngram_containment_pairs

        # doc 0 has 3 words -> 1 distinct gram, under the floor of 5;
        # without the floor it would be 100%-contained in doc 1
        t = pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(
                    [
                        "tiny little doc",
                        "tiny little doc plus many extra words forming a longer body here",
                    ],
                    pa.string(),
                ),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = ngram_containment_pairs(str(tmp_path)).to_pandas()
        assert len(out) == 0

    def test_minhash_identical_docs_collapse_linear(self, ray_session, tmp_path):
        """All-identical corpus: every doc shares every band bucket —
        the guard keeps candidate emission linear (rep pairs), and
        connectivity to the representative survives."""
        import ray.data

        from mlscraper_ray.functions.dedup import minhash_candidate_pairs

        n = 200
        t = pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(["same words repeated for every document here"] * n),
            }
        )
        pairs = minhash_candidate_pairs(
            ray.data.from_arrow(t), max_bucket_docs=50
        ).to_pandas()
        got = set(zip(pairs["doc_a"], pairs["doc_b"]))
        assert got == {(0, j) for j in range(1, n)}  # linear, rep-anchored

    def test_minhash_candidates_invariant_to_group_count(self, ray_session, docs_dir, set_buckets):
        """The shuffle bucket only co-locates work; exactness is keyed
        on the full (band, bucket) inside each shuffle bucket, so
        results must be identical at any bucket count."""
        import ray.data

        from mlscraper_ray.functions.dedup import minhash_candidate_pairs

        docs = ray.data.read_parquet(os.path.join(docs_dir, "documents.parquet"))
        set_buckets(256)
        base = minhash_candidate_pairs(docs).to_pandas().sort_values(
            ["doc_a", "doc_b"], ignore_index=True
        )
        for ng in (1, 64, 4096):
            set_buckets(ng)
            other = minhash_candidate_pairs(docs).to_pandas().sort_values(
                ["doc_a", "doc_b"], ignore_index=True
            )
            assert other.equals(base), ng

    def test_minhash_composite_grouping_bounds_group_size(self):
        """co_partition's bucket of the (band, bucket) keys keeps
        per-bucket rows at O(corpus * bands / n_buckets) on a diverse
        corpus — the 100-TB guarantee the band-only grouping lacked
        (one group per band = whole-corpus groups)."""
        from mlscraper_ray.functions.bucketed import _bucket_ids
        from mlscraper_ray.functions.dedup import MinHashStage

        n = 512
        t = pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array([f"unique document {i} with words {i * 7} {i * 13}" for i in range(n)]),
            }
        )
        sigs = MinHashStage()(t).to_pandas()  # 32 bands
        sigs["b"] = _bucket_ids(sigs, ["band", "bucket"], 2048)
        max_group = sigs.groupby("b").size().max()
        # 16384 rows over 2048 buckets: ~8 expected at uniform spread
        assert max_group <= 64
        # the bucket is a pure function of (band, bucket): completeness
        assert (sigs.groupby(["band", "bucket"])["b"].nunique() == 1).all()


class TestSimilarityCrafted:
    def test_cosine_topk_matches_bruteforce(self, ray_session):
        from mlscraper_ray.functions.similarity import cosine_topk

        out = cosine_topk(SF_DIR, query_vec_id=0, k=10).to_pandas()
        t = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"))
        ids = np.array(t["vec_id"].to_pylist())
        mat = np.array([np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()])
        q = mat[ids.tolist().index(0)]
        scores = (mat @ q) / (np.linalg.norm(mat, axis=1) * np.linalg.norm(q))
        df = pd.DataFrame({"vec_id": ids, "s": np.round(scores * 10000).astype(np.int64)})
        df = df[df["vec_id"] != 0].sort_values(["s", "vec_id"], ascending=[False, True]).head(10)
        assert out["vec_id"].tolist() == df["vec_id"].tolist()
        assert out["score_x10k"].tolist() == df["s"].tolist()

    def test_knn_graph_bucket_count_invariant_and_symmetric_top1(self, ray_session):
        from mlscraper_ray.functions.similarity import embed_knn_graph

        a = embed_knn_graph(SF_DIR, k=3, n_buckets=2).to_pandas()
        b = embed_knn_graph(SF_DIR, k=3, n_buckets=5).to_pandas()
        # blocked product is exact: bucket count must not change output
        pd.testing.assert_frame_equal(a, b)
        # non-vacuity: every vector gets exactly k neighbors, none itself
        assert (a.groupby("src").size() == 3).all()
        assert (a["src"] != a["dst"]).all()
        # per-src rows are the src's global top-k: spot-check src 0
        # against the brute-force slice computed the same fixed-point way
        t = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"))
        ids = np.array(t["vec_id"].to_pylist())
        mat = np.array([np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()])
        unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        q = unit[ids.tolist().index(0)]
        s = np.floor(unit @ q * 10000 + 0.5).astype(np.int64)
        df = pd.DataFrame({"dst": ids, "s": s})
        df = df[df["dst"] != 0].sort_values(["s", "dst"], ascending=[False, True]).head(3)
        got = a[a["src"] == 0]
        assert got["dst"].tolist() == df["dst"].tolist()
        assert got["score_x10k"].tolist() == df["s"].tolist()

    def test_ivf_recall_against_bruteforce(self, ray_session):
        from mlscraper_ray.functions.similarity import cosine_topk, ivf_topk

        exact = set(cosine_topk(SF_DIR, 0, 10).to_pandas()["vec_id"])
        approx = set(ivf_topk(SF_DIR, 0, 10, n_clusters=8, n_probe=4).to_pandas()["vec_id"])
        # IVF with half the clusters probed should keep decent recall
        assert len(exact & approx) >= 5


class TestLshTopkCrafted:
    def test_planted_neardup_is_top1(self, ray_session, tmp_path):
        """The actual LSH use case: a near-identical vector hams to
        ~0 from the query in every table, so it must always be
        candidate AND rank first (the shipped embeddings are
        near-random, so driver-scale results only pin the
        bucket-math/oracle equality, not retrieval)."""
        from mlscraper_ray.functions.similarity import lsh_topk

        rng = np.random.RandomState(11)
        base = rng.standard_normal((40, 16)).astype(np.float32)
        vecs = list(base)
        vecs.append(base[0] + rng.standard_normal(16).astype(np.float32) * 0.01)
        t = pa.table(
            {
                "vec_id": pa.array(range(41), pa.int64()),
                "embedding": pa.array([list(map(float, v)) for v in vecs], pa.list_(pa.float32())),
                "label": pa.array([0] * 41, pa.int32()),
            }
        )
        pq.write_table(t, str(tmp_path / "embeddings.parquet"))
        out = lsh_topk(str(tmp_path), query_vec_id=0, k=5).to_pandas()
        assert out["vec_id"].iloc[0] == 40
        assert out["score_x10k"].iloc[0] >= 9900

    def test_crafted_matches_sql_oracle(self, ray_session, tmp_path):
        """Oracle equality on a corpus with REAL near neighbors (the
        generic sf0.001 check covers the near-random shipped table)."""
        import duckdb

        from mlscraper_ray.functions.similarity import lsh_topk, lsh_topk_sql

        rng = np.random.RandomState(12)
        base = rng.standard_normal((60, 16)).astype(np.float32)
        vecs = list(base)
        for j in range(4):
            vecs.append(base[j] + rng.standard_normal(16).astype(np.float32) * 0.02)
        t = pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "embedding": pa.array([list(map(float, v)) for v in vecs], pa.list_(pa.float32())),
                "label": pa.array([0] * len(vecs), pa.int32()),
            }
        )
        pq.write_table(t, str(tmp_path / "embeddings.parquet"))
        out = lsh_topk(str(tmp_path), query_vec_id=0, k=8).to_pandas()
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW embeddings AS SELECT * FROM '{tmp_path}/embeddings.parquet'"
        )
        oracle = con.execute(lsh_topk_sql(query_vec_id=0, k=8, dim=16)).fetchdf()
        assert len(out) > 0
        pd.testing.assert_frame_equal(
            out.reset_index(drop=True), oracle.astype(out.dtypes.to_dict()).reset_index(drop=True)
        )


class TestSampleWeightedKCrafted:
    def test_zero_length_documents_weigh_one(self, ray_session, tmp_path):
        """A document with ``n_chars = 0`` is sampled with weight 1 on
        both sides instead of dividing by zero."""
        import hashlib

        import duckdb
        from oracle_compare import value_hash

        from mlscraper_ray.functions.textstats import sample_weighted_k, sample_weighted_k_sql

        n_chars = [0, 5, 0, 120, 1, 0, 40, 7]
        t = pa.table(
            {
                "doc_id": pa.array(range(len(n_chars)), pa.int64()),
                "source": pa.array(["s"] * len(n_chars)),
                "n_chars": pa.array(n_chars, pa.int64()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = sample_weighted_k(str(tmp_path), k=6).to_pandas()

        def pri(d: int) -> int:
            low64 = int.from_bytes(hashlib.md5(str(d).encode()).digest()[8:], "little")
            return low64 // max(n_chars[d], 1)

        assert out["doc_id"].tolist() == sorted(sorted(range(len(n_chars)), key=lambda d: (pri(d), d))[:6])
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'")
        assert value_hash(out) == value_hash(con.execute(sample_weighted_k_sql(k=6)).fetchdf())


class TestEventsUserLifetimeCrafted:
    def test_span_hours_on_sub_second_spans_across_hour_marks(self, ray_session, tmp_path):
        """span_hours floors the exact span on both sides. Counting
        second-boundary crossings instead would give 1 h for a 3599.2 s
        span that straddles an hour mark."""
        import datetime as dt

        import duckdb
        from oracle_compare import value_hash

        from mlscraper_ray.functions.streams import (
            EVENTS_USER_LIFETIME_SQL,
            events_user_lifetime_stats,
        )

        t0 = dt.datetime(2024, 3, 1)
        us = dt.timedelta(microseconds=1)
        rows = [  # (user_id, ts)
            (1, t0 + 900_000 * us), (1, t0 + dt.timedelta(hours=1) + 100_000 * us),  # 3599.2 s
            (2, t0 + dt.timedelta(seconds=3599.5)), (2, t0 + dt.timedelta(hours=2)),  # 3600.5 s
            (3, t0 + us), (3, t0 + dt.timedelta(hours=2)),  # 7199.999999 s
            (4, t0 + dt.timedelta(hours=5, seconds=0.25)),  # one event
        ]
        t = pa.table(
            {
                "event_id": pa.array(range(len(rows)), pa.int64()),
                "ts": pa.array([ts for _, ts in rows], pa.timestamp("us")),
                "user_id": pa.array([u for u, _ in rows], pa.int64()),
                "event_type": pa.array(["view"] * len(rows)),
                "value": pa.array([0.5] * len(rows), pa.float64()),
                "props": pa.array(["{}"] * len(rows)),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = events_user_lifetime_stats(str(tmp_path)).to_pandas()
        assert dict(zip(out["user_id"], out["span_hours"])) == {1: 0, 2: 1, 3: 1, 4: 0}
        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS SELECT * FROM '{tmp_path}/events.parquet'")
        oracle = con.execute(EVENTS_USER_LIFETIME_SQL).fetchdf()
        assert value_hash(out) == value_hash(oracle)


class TestEventsPropsStatsCrafted:
    def test_negative_zero_and_missing_k_match_sql(self, ray_session, tmp_path):
        """Every integer k is a value, negative ones too; only events
        without one count as missing (SQL's NULL). Two k above 2**53
        that one float cannot tell apart stay two distinct values."""
        import datetime as dt

        import duckdb
        from oracle_compare import value_hash

        from mlscraper_ray.functions.streams import EVENTS_PROPS_STATS_SQL, events_props_stats

        big = 2**60
        rows = [  # (event_type, props)
            ("neg", '{"k": -3}'), ("neg", '{"k": -3}'), ("neg", '{"k": -7}'), ("neg", "{}"),
            ("zero", '{"k": 0}'), ("zero", '{"j": 1}'), ("zero", None),
            ("mixed", '{"k": -1}'), ("mixed", '{"k": 0}'), ("mixed", '{"k": 5}'), ("mixed", '{"k": 5}'),
            ("none", "{}"), ("none", '{"j": -1}'),
            ("big", f'{{"k": {big}}}'), ("big", f'{{"k": {big + 1}}}'),
        ]
        t = pa.table(
            {
                "event_id": pa.array(range(len(rows)), pa.int64()),
                "ts": pa.array([dt.datetime(2024, 1, 1)] * len(rows), pa.timestamp("us")),
                "user_id": pa.array([1] * len(rows), pa.int64()),
                "event_type": pa.array([e for e, _ in rows]),
                "value": pa.array([0.5] * len(rows), pa.float64()),
                "props": pa.array([p for _, p in rows], pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = events_props_stats(str(tmp_path)).to_pandas()
        by_type = {r["event_type"]: r for r in out.to_dict("records")}
        assert (by_type["neg"]["n_events"], by_type["neg"]["n_missing"]) == (3, 1)
        assert (by_type["neg"]["min_k"], by_type["neg"]["sum_k"], by_type["neg"]["n_distinct_k"]) == (-7, -13, 2)
        assert (by_type["zero"]["n_events"], by_type["zero"]["n_missing"]) == (1, 2)
        assert by_type["none"]["n_events"] == 0 and by_type["none"]["n_missing"] == 2
        assert by_type["big"]["n_distinct_k"] == 2 and by_type["big"]["sum_k"] == 2 * big + 1
        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS SELECT * FROM '{tmp_path}/events.parquet'")
        oracle = con.execute(EVENTS_PROPS_STATS_SQL).fetchdf()
        assert value_hash(out) == value_hash(oracle)


    def test_only_bigint_range_json_integers_are_k(self, ray_session, tmp_path):
        """A float, a string, an exponent, a boolean or an integer past
        BIGINT is not a k on either side: each counts as missing."""
        import datetime as dt

        import duckdb
        from oracle_compare import value_hash

        from mlscraper_ray.functions.streams import EVENTS_PROPS_STATS_SQL, events_props_stats

        props = [
            '{"k": 1.5}', '{"k": "3"}', '{"k": 1e2}', '{"k": true}', '{"k": -2}',
            f'{{"k": {2**64 - 1}}}', '{"j": 4}', '{"k": 7}',
        ]
        t = pa.table(
            {
                "event_id": pa.array(range(len(props)), pa.int64()),
                "ts": pa.array([dt.datetime(2024, 1, 1)] * len(props), pa.timestamp("us")),
                "user_id": pa.array([1] * len(props), pa.int64()),
                "event_type": pa.array(["t"] * len(props)),
                "value": pa.array([0.5] * len(props), pa.float64()),
                "props": pa.array(props, pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = events_props_stats(str(tmp_path)).to_pandas()
        assert out.to_dict("records") == [
            {"event_type": "t", "n_events": 2, "n_missing": 6, "sum_k": 5, "min_k": -2, "max_k": 7, "n_distinct_k": 2}
        ]
        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS SELECT * FROM '{tmp_path}/events.parquet'")
        oracle = con.execute(EVENTS_PROPS_STATS_SQL).fetchdf()
        assert value_hash(out) == value_hash(oracle)


class TestEventsUserValueRankCrafted:
    def test_negative_totals_rank_below_positive_ones(self, ray_session, tmp_path):
        """Value bands are signed: a lifetime total of -5.0 ranks below
        +0.1 (an unsigned bit-length band put -5000 above +100)."""
        import datetime as dt

        import duckdb
        from oracle_compare import value_hash

        from mlscraper_ray.functions.streams import (
            EVENTS_USER_VALUE_RANK_SQL,
            events_user_value_rank,
        )

        values = {1: [-5.0], 2: [0.1], 3: [-0.3, 0.2], 4: [2.5, 1.0], 5: [0.0], 6: [-5.0], 7: [-1.0, -0.001]}
        rows = [(u, v) for u, vs in values.items() for v in vs]
        t = pa.table(
            {
                "event_id": pa.array(range(len(rows)), pa.int64()),
                "ts": pa.array([dt.datetime(2024, 3, 1)] * len(rows), pa.timestamp("us")),
                "user_id": pa.array([u for u, _ in rows], pa.int64()),
                "event_type": pa.array(["purchase"] * len(rows)),
                "value": pa.array([v for _, v in rows], pa.float64()),
                "props": pa.array(["{}"] * len(rows)),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = events_user_value_rank(str(tmp_path)).to_pandas()
        assert dict(zip(out["user_id"], out["rnk"])) == {1: 1, 6: 1, 7: 3, 3: 4, 5: 5, 2: 6, 4: 7}
        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS SELECT * FROM '{tmp_path}/events.parquet'")
        assert value_hash(out) == value_hash(con.execute(EVENTS_USER_VALUE_RANK_SQL).fetchdf())


class TestDocGramNoveltyCrafted:
    def test_blank_documents_have_no_row(self, ray_session, tmp_path):
        """Empty and whitespace-only documents hold no grams, so they
        get no (n_grams = 0) row — the SQL oracle drops them too."""
        import duckdb
        from oracle_compare import value_hash

        from mlscraper_ray.functions.dedup import DOC_GRAM_NOVELTY_SQL, doc_gram_novelty

        texts = ["a b c d", "", "   ", "a b c e", "\t\n", "solo", "x y"]
        t = pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "source": pa.array(["s"] * len(texts)),
                "text": pa.array(texts),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = doc_gram_novelty(str(tmp_path)).to_pandas()
        assert out["doc_id"].tolist() == [0, 3, 5, 6]
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'")
        assert value_hash(out) == value_hash(con.execute(DOC_GRAM_NOVELTY_SQL).fetchdf())


class TestEmbeddingNearDupCrafted:
    def test_planted_neardups_found(self, ray_session, tmp_path):
        from mlscraper_ray.functions.similarity import embedding_neardup_pairs

        rng = np.random.RandomState(3)
        base = rng.standard_normal((20, 16)).astype(np.float32)
        vecs = list(base)
        vecs.append(base[0] + rng.standard_normal(16).astype(np.float32) * 0.01)  # near 0
        vecs.append(base[5])  # exact dup of 5
        t = pa.table(
            {
                "vec_id": pa.array(range(22), pa.int64()),
                "embedding": pa.array([list(map(float, v)) for v in vecs], pa.list_(pa.float32())),
                "label": pa.array([0] * 22, pa.int32()),
            }
        )
        pq.write_table(t, str(tmp_path / "embeddings.parquet"))
        out = embedding_neardup_pairs(str(tmp_path), threshold=0.92).to_pandas()
        got = set(zip(out["vec_a"], out["vec_b"]))
        assert (0, 20) in got and (5, 21) in got

    def test_planted_neardups_match_exhaustive_sql(self, ray_session, tmp_path):
        """Non-vacuous oracle check: on a corpus that HAS over-threshold
        pairs, the LSH pipeline equals the exhaustive O(n^2) DuckDB
        cosine join (the driver-side oracle is vacuous on the shipped
        embeddings table, whose max pairwise cosine is ~0.51)."""
        import duckdb

        from mlscraper_ray.functions.similarity import (
            embedding_neardup_pairs,
            embedding_neardup_sql,
        )

        rng = np.random.RandomState(11)
        base = rng.standard_normal((40, 16)).astype(np.float32)
        vecs = list(base)
        for i in range(6):  # plant near-identical copies of vectors 0..5
            vecs.append(base[i] + rng.standard_normal(16).astype(np.float32) * 0.005)
        t = pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "embedding": pa.array([list(map(float, v)) for v in vecs], pa.list_(pa.float32())),
            }
        )
        pq.write_table(t, str(tmp_path / "embeddings.parquet"))
        out = embedding_neardup_pairs(str(tmp_path), threshold=0.92).to_pandas()
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW embeddings AS SELECT * FROM '{tmp_path}/embeddings.parquet'"
        )
        oracle = con.execute(embedding_neardup_sql(0.92)).fetchdf()
        assert len(oracle) >= 6  # the planted pairs are really over threshold
        assert out["vec_a"].tolist() == oracle["vec_a"].tolist()
        assert out["vec_b"].tolist() == oracle["vec_b"].tolist()
        assert out["score_x10k"].tolist() == oracle["score_x10k"].tolist()


class TestKMeans:
    def test_deterministic_and_covering(self, ray_session):
        from mlscraper_ray.functions.similarity import embedding_kmeans

        a = embedding_kmeans(SF_DIR, n_clusters=8, n_iters=3).to_pandas()
        b = embedding_kmeans(SF_DIR, n_clusters=8, n_iters=3).to_pandas()
        assert a.equals(b)  # seeded init + ordered partial folds
        assert set(a["cluster"]) == set(range(8))
        assert (a["dist_x10k"] >= 0).all()

    def test_iterations_tighten_clusters(self, ray_session):
        from mlscraper_ray.functions.similarity import embedding_kmeans

        one = embedding_kmeans(SF_DIR, n_clusters=8, n_iters=1).to_pandas()
        five = embedding_kmeans(SF_DIR, n_clusters=8, n_iters=5).to_pandas()
        assert five["dist_x10k"].mean() <= one["dist_x10k"].mean()


class TestAntiJoinPaths:
    def test_bucketed_anti_matches_broadcast_and_oracle(self, ray_session, set_pull_cap):
        """Forcing the bucketed cogroup anti path must reproduce the
        broadcast path and the DuckDB oracle exactly."""
        import sys

        import duckdb

        from mlscraper_ray.functions.joins import (
            CUSTOMERS_WITHOUT_ORDERS_SQL,
            customers_without_orders,
        )

        sf = "/root/testdata/sf0.001"
        broadcast = customers_without_orders(sf).to_pandas()
        pulls = set_pull_cap(0)
        bucketed = customers_without_orders(sf).to_pandas()
        assert broadcast.equals(bucketed)
        assert pulls == ["shuffle"]
        con = duckdb.connect()
        for t in ("customer", "orders"):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
        oracle = con.execute(CUSTOMERS_WITHOUT_ORDERS_SQL).fetchdf()
        assert len(bucketed) == len(oracle)
        if len(oracle):
            assert bucketed["c_custkey"].tolist() == oracle["c_custkey"].tolist()

    def test_bucketed_anti_nonempty_crafted(self, ray_session, tmp_path, set_pull_cap):
        """Non-vacuous check (the shipped tables have no order-less
        customers): crafted data where 40 of 100 customers lack orders."""
        from mlscraper_ray.functions.joins import customers_without_orders

        cust = pa.table(
            {
                "c_custkey": pa.array(range(100), pa.int64()),
                "c_name": pa.array([f"Customer#{i:09d}" for i in range(100)]),
                "c_nationkey": pa.array([i % 25 for i in range(100)], pa.int32()),
            }
        )
        orders = pa.table(
            {
                "o_custkey": pa.array(
                    [i for i in range(100) if i % 5 < 3 for _ in range(2)], pa.int64()
                )
            }
        )
        pq.write_table(cust, str(tmp_path / "customer.parquet"))
        pq.write_table(orders, str(tmp_path / "orders.parquet"))
        expected = sorted(i for i in range(100) if i % 5 >= 3)
        broadcast = customers_without_orders(str(tmp_path)).to_pandas()
        pulls = set_pull_cap(0)
        bucketed = customers_without_orders(str(tmp_path)).to_pandas()
        assert broadcast["c_custkey"].tolist() == expected
        assert broadcast.equals(bucketed)
        assert pulls == ["shuffle"]


def test_ngram_df_cap_prunes_hot_grams(ray_session, tmp_path):
    """The hot-gram guard: grams shared by more than df_cap docs are
    dropped from candidate generation, so pairs whose ONLY overlap is
    a stopword-gram vanish while high-overlap pairs survive."""
    from mlscraper_ray.functions.dedup import ngram_jaccard_pairs

    hot = "the common boilerplate header"  # 4 words -> shared 3-grams
    texts = [
        f"{hot} alpha beta gamma delta",      # 0
        f"{hot} alpha beta gamma delta",      # 1: exact dup of 0
        f"{hot} epsilon zeta eta theta",      # 2: overlaps 0/1 only via hot grams
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(3), pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * 3),
            "source": pa.array(["t"] * 3),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    uncapped = ngram_jaccard_pairs(str(tmp_path), threshold_pct=10).to_pandas()
    got = set(zip(uncapped["doc_a"], uncapped["doc_b"]))
    assert (0, 1) in got and (0, 2) in got  # hot grams connect 0-2
    # cap at df 2: the hot grams (df=3) are pruned; 0-1 still share
    # their unique tail grams, 0-2 share nothing else
    capped = ngram_jaccard_pairs(str(tmp_path), threshold_pct=10, df_cap=2).to_pandas()
    got_capped = set(zip(capped["doc_a"], capped["doc_b"]))
    assert (0, 1) in got_capped
    assert (0, 2) not in got_capped


def test_curate_nondefault_params_match_sql(ray_session):
    """The curation pipeline and its SQL builder stay in lockstep for
    non-default thresholds too."""
    from oracle_compare import compare

    from mlscraper_ray.functions.curate import curate_corpus, curate_corpus_sql

    d = "/root/testdata/sf0.001"
    c = compare(curate_corpus(d, 540, 80), curate_corpus_sql(540, 80), d)
    assert c["hash_match"] and c["rows_ray"] > 0, c
    # threshold above the corpus maximum: both sides exactly empty
    c0 = compare(curate_corpus(d, 600, 30), curate_corpus_sql(600, 30), d)
    assert c0["hash_match"] and c0["rows_ray"] == 0, c0


class TestAsofJoinCrafted:
    def test_tie_and_unmatched_semantics(self, ray_session, tmp_path):
        """Timestamp tie -> max click event_id wins (the documented
        engine-independent rule); purchases before any click drop."""
        import pandas as pd

        from mlscraper_ray.functions.joins import asof_join_events

        ts = pd.to_datetime(
            ["2024-01-01 00:00:00", "2024-01-01 00:00:10", "2024-01-01 00:00:10",
             "2024-01-01 00:00:10", "2024-01-01 00:00:05", "2024-01-01 00:00:01"]
        ).as_unit("us")
        t = pa.table(
            {
                "event_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
                "ts": pa.array(ts),
                "user_id": pa.array([7, 7, 7, 7, 9, 9], pa.int64()),
                # user 7: click @:00, clicks 1 and 2 TIED at :10,
                # purchase 3 also at :10 (exact match allowed);
                # user 9: click @:01 precedes purchase @:05
                "event_type": pa.array(
                    ["click", "click", "click", "purchase", "purchase", "click"]
                ),
                "value": pa.array([0.0] * 6),
                "props": pa.array(["{}"] * 6),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = asof_join_events(str(tmp_path)).to_pandas()
        rows = {r.purchase_id: (r.click_id, r.gap_us) for r in out.itertuples()}
        assert rows[3] == (2, 0)  # tie at :10 -> max event_id 2, exact match
        assert rows[4] == (5, 4_000_000)  # user 9: click 4s earlier
        assert set(rows) == {3, 4}

    def test_range_join_inclusive_boundaries_and_replication(self, ray_session, tmp_path):
        """Clicks exactly AT the ±window boundary are included (SQL
        BETWEEN semantics), and an error whose window spans a bucket
        edge still finds clicks in BOTH buckets exactly once."""
        import pandas as pd

        from mlscraper_ray.functions.joins import range_join_events

        base = pd.Timestamp("2024-01-01 01:00:00")
        rows = [
            # error 0 one second before an hour-bucket edge: its ±300s
            # window spans two buckets
            (0, base - pd.Timedelta(seconds=1), "error"),
            (1, base - pd.Timedelta(seconds=301), "click"),  # gap exactly 300s: IN
            (2, base + pd.Timedelta(seconds=299), "click"),  # gap exactly 300s: IN
            (3, base - pd.Timedelta(seconds=302), "click"),  # gap 301s: OUT
            (4, base + pd.Timedelta(seconds=300), "click"),  # gap 301s: OUT
        ]
        ts = pd.to_datetime([r[1] for r in rows]).as_unit("us")
        t = pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array(ts),
                "user_id": pa.array([1] * len(rows), pa.int64()),
                "event_type": pa.array([r[2] for r in rows]),
                "value": pa.array([0.0] * len(rows)),
                "props": pa.array(["{}"] * len(rows)),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = range_join_events(str(tmp_path)).to_pandas()
        assert len(out) == 1
        r = out.iloc[0]
        assert r["error_id"] == 0
        assert r["n_near_clicks"] == 2  # the two boundary-inclusive clicks
        assert r["min_abs_gap_us"] == 300_000_000

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_asof_and_range_join_match_bruteforce(self, ray_session, tmp_path_factory, seed):
        """Randomized corpora vs in-test O(n^2) reference
        implementations — pins both temporal joins beyond the fixed
        testdata (ties, sparse users, empty windows)."""
        import pandas as pd

        from mlscraper_ray.functions.joins import asof_join_events, range_join_events

        rng = np.random.RandomState(seed)
        n = 300
        base_us = 1_700_000_000_000_000
        # coarse timestamps force plenty of exact ties
        ts_us = base_us + rng.randint(0, 2_000, size=n) * 1_000_000
        users = rng.randint(0, 6, size=n)
        types = rng.choice(["purchase", "click", "error", "view"], size=n)
        d = str(tmp_path_factory.mktemp(f"bf{seed}"))
        t = pa.table(
            {
                "event_id": pa.array(range(n), pa.int64()),
                "ts": pa.array(ts_us, pa.int64()).cast(pa.timestamp("us")),
                "user_id": pa.array(users, pa.int64()),
                "event_type": pa.array(types),
                "value": pa.array([0.0] * n),
                "props": pa.array(["{}"] * n),
            }
        )
        pq.write_table(t, os.path.join(d, "events.parquet"))

        # brute-force as-of: latest click at/before each purchase per
        # user; ts ties -> max click event_id
        expected_asof = {}
        for i in range(n):
            if types[i] != "purchase":
                continue
            best = None
            for j in range(n):
                if types[j] == "click" and users[j] == users[i] and ts_us[j] <= ts_us[i]:
                    if best is None or (ts_us[j], j) > (ts_us[best], best):
                        best = j
            if best is not None:
                expected_asof[i] = (best, int(ts_us[i] - ts_us[best]))
        out = asof_join_events(d).to_pandas()
        got = {r.purchase_id: (r.click_id, r.gap_us) for r in out.itertuples()}
        assert got == expected_asof

        # brute-force range: clicks within ±300s of each error, any user
        expected_range = {}
        for i in range(n):
            if types[i] != "error":
                continue
            gaps = [abs(int(ts_us[j]) - int(ts_us[i])) for j in range(n)
                    if types[j] == "click" and abs(int(ts_us[j]) - int(ts_us[i])) <= 300_000_000]
            if gaps:
                expected_range[i] = (len(gaps), min(gaps))
        out = range_join_events(d).to_pandas()
        got = {r.error_id: (r.n_near_clicks, r.min_abs_gap_us) for r in out.itertuples()}
        assert got == expected_range

    def test_range_join_window_spanning_three_buckets(self, ray_session, tmp_path):
        """A window wider than half a bucket straddles two bucket
        edges: the match in the MIDDLE (home) bucket must be found —
        replicating only the window-start/end buckets would skip it."""
        import pandas as pd

        from mlscraper_ray.functions.joins import range_join_events

        epoch = pd.Timestamp("1970-01-01")
        rows = [
            (0, epoch + pd.Timedelta(seconds=5400), "error"),   # home bucket 1
            (1, epoch + pd.Timedelta(seconds=5401), "click"),   # bucket 1 (middle)
            (2, epoch + pd.Timedelta(seconds=2000), "click"),   # bucket 0, gap 3400s -> out
        ]
        ts = pd.to_datetime([r[1] for r in rows]).as_unit("us")
        t = pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array(ts),
                "user_id": pa.array([1] * len(rows), pa.int64()),
                "event_type": pa.array([r[2] for r in rows]),
                "value": pa.array([0.0] * len(rows)),
                "props": pa.array(["{}"] * len(rows)),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        # window 3000s of a 3600s bucket: error 0's window spans
        # buckets 0, 1 and 2
        out = range_join_events(str(tmp_path), window_us=3_000_000_000).to_pandas()
        assert len(out) == 1
        assert out.iloc[0]["error_id"] == 0
        assert out.iloc[0]["n_near_clicks"] == 1
        assert out.iloc[0]["min_abs_gap_us"] == 1_000_000


class TestJoinScaleGuards:
    """Round-4 scale guards: salted skew handling, negative-key
    bucketing, packed-pair-id preconditions."""

    def test_pack_pairs_rejects_out_of_range_ids(self):
        """doc_id >= 2^31 (or negative) must raise LOUDLY instead of
        silently corrupting the packed int64 pair key."""
        from mlscraper_ray.functions.dedup import (
            _pack_pairs_pd,
            _pack_pairs_arrow,
            _PAIR_BASE,
        )

        ok = _pack_pairs_pd(pd.Series([1, 2]), pd.Series([3, _PAIR_BASE - 1]))
        assert ok.tolist() == [1 * _PAIR_BASE + 3, 2 * _PAIR_BASE + _PAIR_BASE - 1]
        with pytest.raises(ValueError, match="out of packable range"):
            _pack_pairs_pd(pd.Series([1]), pd.Series([_PAIR_BASE]))
        with pytest.raises(ValueError, match="out of packable range"):
            _pack_pairs_pd(pd.Series([-1]), pd.Series([2]))
        with pytest.raises(ValueError, match="out of packable range"):
            _pack_pairs_arrow(
                pa.array([1, _PAIR_BASE + 5], pa.int64()), pa.array([2, 3], pa.int64())
            )
        got = _pack_pairs_arrow(pa.array([4], pa.int64()), pa.array([5], pa.int64()))
        assert got.to_pylist() == [4 * _PAIR_BASE + 5]

    def test_temporal_joins_negative_ts_and_user_id(self, ray_session, tmp_path):
        """Pre-epoch timestamps (negative int64 us) and negative user
        ids: floor-mod/floor-div bucketing keeps both temporal joins
        correct as general-purpose primitives (Arrow integer division
        truncates toward zero and would misbucket these)."""
        from mlscraper_ray.functions.joins import asof_join_events, range_join_events

        rng = np.random.RandomState(5)
        n = 240
        # seconds straddling the epoch: ts_us in ±2000s
        ts_us = rng.randint(-2_000, 2_000, size=n) * 1_000_000
        users = rng.randint(-3, 3, size=n)
        types = rng.choice(["purchase", "click", "error", "view"], size=n)
        t = pa.table(
            {
                "event_id": pa.array(range(n), pa.int64()),
                "ts": pa.array(ts_us, pa.int64()).cast(pa.timestamp("us")),
                "user_id": pa.array(users, pa.int64()),
                "event_type": pa.array(types),
                "value": pa.array([0.0] * n),
                "props": pa.array(["{}"] * n),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))

        expected_asof = {}
        for i in range(n):
            if types[i] != "purchase":
                continue
            best = None
            for j in range(n):
                if types[j] == "click" and users[j] == users[i] and ts_us[j] <= ts_us[i]:
                    if best is None or (ts_us[j], j) > (ts_us[best], best):
                        best = j
            if best is not None:
                expected_asof[i] = (best, int(ts_us[i] - ts_us[best]))
        out = asof_join_events(str(tmp_path)).to_pandas()
        got = {r.purchase_id: (r.click_id, r.gap_us) for r in out.itertuples()}
        assert got == expected_asof

        expected_range = {}
        for i in range(n):
            if types[i] != "error":
                continue
            gaps = [
                abs(int(ts_us[j]) - int(ts_us[i]))
                for j in range(n)
                if types[j] == "click" and abs(int(ts_us[j]) - int(ts_us[i])) <= 300_000_000
            ]
            if gaps:
                expected_range[i] = (len(gaps), min(gaps))
        out = range_join_events(str(tmp_path)).to_pandas()
        got = {r.error_id: (r.n_near_clicks, r.min_abs_gap_us) for r in out.itertuples()}
        assert got == expected_range

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_salted_cogroup_join_equals_plain(self, ray_session, how):
        """Skewed corpus (one key = 50% of left rows): the salted path
        must produce exactly the plain cogroup join's rows."""
        import ray.data

        from mlscraper_ray.functions.joins import cogroup_join

        rng = np.random.RandomState(11)
        n = 4_000
        hot = 7
        keys = np.where(rng.rand(n) < 0.5, hot, rng.randint(100, 160, size=n)).astype(np.int64)
        left = pa.table(
            {"k": pa.array(keys), "lval": pa.array(np.arange(n, dtype=np.int64))}
        )
        # right: most keys present (some missing, so how='left' differs
        # from inner), hot key has ONE row — the realistic dim side
        rkeys = np.array([hot] + list(range(100, 150)), dtype=np.int64)
        right = pa.table(
            {"k": pa.array(rkeys), "rval": pa.array(rkeys * 10)}
        )

        def run(**kw):
            out = cogroup_join(
                ray.data.from_arrow(left), ray.data.from_arrow(right), "k", how=how, **kw
            ).to_pandas()
            return (
                out.astype({"k": "int64", "lval": "int64"})
                .sort_values(["k", "lval"], ignore_index=True)
                .fillna(-1)
            )

        plain = run()
        salted = run(salt_hot_keys=True, hot_key_threshold=200, n_salt=4)
        pd.testing.assert_frame_equal(plain, salted)
        assert (plain["k"] == hot).sum() > n // 3  # the skew is real

    def test_salted_bucket_spread(self):
        """Result equality can't see parallelism: under the
        co_partition bucket rule the salted join's non-hot (salt 0)
        rows still reach every bucket, and one hot key's replicas fan
        out over most of them (a uniform hash expects 14.3 distinct
        buckets of 64 for 16 salts)."""
        from mlscraper_ray.functions.bucketed import _bucket_ids

        n_buckets, n_salt = 64, 16
        keys = np.arange(10_000, dtype=np.int64)
        cold = pd.DataFrame({"k": keys, "__salt": np.zeros_like(keys)})
        assert len(np.unique(_bucket_ids(cold, ["k", "__salt"], n_buckets))) == n_buckets
        hot = pd.DataFrame(
            {"k": np.full(n_salt, 7, dtype=np.int64), "__salt": np.arange(n_salt, dtype=np.int64)}
        )
        assert len(np.unique(_bucket_ids(hot, ["k", "__salt"], n_buckets))) >= 12


class TestCoPartition:
    def test_buckets_are_dtype_stable_and_nulls_group(self, ray_session):
        """One key value, one group: key 5 in an int64 block that holds
        a null (pandas sees it as float64) and in an int32 block lands
        in one bucket, and the null keys form one group — DuckDB's
        GROUP BY answer."""
        import duckdb
        import ray.data

        from mlscraper_ray.functions.bucketed import bucketed_aggregate

        b1 = pa.table({"k": pa.array([5, None], pa.int64()), "v": pa.array([1, 10], pa.int64())})
        b2 = pa.table({"k": pa.array([5, 7], pa.int32()), "v": pa.array([100, 1000], pa.int64())})
        out = bucketed_aggregate(ray.data.from_arrow([b1, b2]), ["k"], {"s": ("v", "sum")})
        con = duckdb.connect()
        con.register("t", pa.concat_tables([b1, b2.cast(b1.schema)]))
        oracle = con.execute("SELECT k, SUM(v) AS s FROM t GROUP BY k").fetchdf()

        def rows(df: pd.DataFrame) -> list:  # null key -> -1 (keys are >= 0)
            return sorted((-1 if pd.isna(k) else int(k), int(s)) for k, s in zip(df["k"], df["s"]))

        assert rows(out.to_pandas()) == rows(oracle) == [(-1, 10), (5, 101), (7, 1000)]

    def test_per_key_fn_invariant_to_bucket_count(self, ray_session, set_buckets):
        """A per-key fn sees every row of its key in one call, so the
        result does not depend on the bucket count and equals a plain
        pandas groupby — also on a skewed input where one user_id holds
        half the rows (one bucket then carries at least half the
        data)."""
        import ray.data

        from mlscraper_ray.functions.bucketed import co_partition

        ds = ray.data.read_parquet(
            os.path.join(SF_DIR, "events.parquet"), columns=["user_id", "ts", "value"]
        )
        events = ds.to_pandas()
        hot = events.assign(user_id=events["user_id"].max() + 1)
        skewed = pd.concat([events, hot], ignore_index=True)
        assert (skewed["user_id"] == hot["user_id"].iloc[0]).sum() * 2 == len(skewed)

        def per_user(g: pd.DataFrame) -> pd.DataFrame:
            return g.groupby("user_id", as_index=False).agg(
                n=("ts", "size"), first=("ts", "min"), vmax=("value", "max")
            )

        for frame, data in ((events, ds), (skewed, ray.data.from_pandas(skewed))):
            want = per_user(frame).sort_values("user_id", ignore_index=True)
            assert want["user_id"].is_unique and len(want) > 1
            for n in (1, 7, 64):
                set_buckets(n)
                got = co_partition(data, ["user_id"], per_user).to_pandas()
                pd.testing.assert_frame_equal(got.sort_values("user_id", ignore_index=True), want)

    @pytest.mark.parametrize("op", ["sum", "min", "max", "count"])
    def test_combiner_matches_pandas_groupby(self, ray_session, monkeypatch, op):
        """``bucketed_aggregate`` combines each block before its shuffle:
        whatever the block split (1, 3 or 17 blocks, with null keys, key
        5 in an int64-with-null and an int32 block, an empty block, and
        key 1 holding half the rows), every op equals a plain pandas
        groupby, and the shuffle input never repeats a key in a block."""
        import ray
        import ray.data
        from ray.data.block import BlockAccessor

        from mlscraper_ray.functions import bucketed

        keys = [1] * 120 + [None, 5, 9, None, 5, 7] * 20
        rows = pd.DataFrame({"k": keys, "v": [(i * 37) % 101 - 50 for i in range(len(keys))]})
        want = (
            rows.groupby("k", dropna=False)["v"]
            .agg("size" if op == "count" else op)
            .reset_index(name="out")
        )

        def normalized(df: pd.DataFrame) -> list:  # null key -> -1 (keys are >= 0)
            pairs = zip(df["k"], df["out"])
            return sorted((-1 if pd.isna(k) else int(k), int(v)) for k, v in pairs)

        def blocks(n: int) -> list[pa.Table]:
            if n == 1:
                return [pa.table({"k": pa.array(rows["k"], pa.int64()), "v": rows["v"]})]
            # every other key-5/7 row in an int32 block, an empty block,
            # the rest (nulls and the other 5s) in n - 2 int64 blocks
            small = rows[rows["k"].isin([5, 7])].iloc[::2]
            rest = rows.drop(small.index)
            parts = [rest.iloc[i :: n - 2] for i in range(n - 2)]
            assert parts[0]["k"].isna().any() and (parts[0]["k"] == 5).any()
            typed = [pa.table({"k": pa.array(p["k"], pa.int64()), "v": p["v"]}) for p in parts]
            int32 = pa.table({"k": pa.array(small["k"], pa.int32()), "v": small["v"]})
            return [typed[0], typed[0].slice(0, 0), int32, *typed[1:]]

        real = bucketed.co_partition

        def checked(ds, keys, fn):
            ds = ds.materialize()
            for bundle in ds.iter_internal_ref_bundles():
                for ref in bundle.block_refs:
                    block = BlockAccessor.for_block(ray.get(ref)).to_pandas()
                    assert not block.duplicated(keys).any(), "a key repeats within a block"
            return real(ds, keys, fn)

        monkeypatch.setattr(bucketed, "co_partition", checked)
        for n in (1, 3, 17):
            ds = ray.data.from_arrow(blocks(n))
            got = bucketed.bucketed_aggregate(ds, ["k"], {"out": ("v", op)}).to_pandas()
            assert normalized(got) == normalized(want), n

    def test_bucket_count_rule_from_cluster_cpus(self, monkeypatch):
        """Every shuffle takes 8 buckets per cluster CPU: 1 CPU -> 8,
        32 CPUs -> 256, at or above the old per-site counts of 241, 64
        and 256 on the 32-CPU host the past records come from."""
        from mlscraper_ray.functions import bucketed

        for cpus, want in ((1, 8), (32, 256)):
            monkeypatch.setattr(bucketed.ray, "cluster_resources", lambda: {"CPU": float(cpus)})
            assert bucketed._n_buckets() == want

    def test_fn_only_sees_buckets_with_rows(self, ray_session, set_buckets):
        """``fn`` is never called on a bucket without rows: 3 rows over
        8 buckets, an input without rows, and the two as named sides
        never reach an ``fn`` that refuses an empty or column-less
        frame, and an input without rows yields no rows."""
        import ray.data

        from mlscraper_ray.functions.bucketed import co_partition

        set_buckets(8)
        rows = ray.data.from_arrow(pa.table({"k": pa.array([1, 2, 3], pa.int64())}))
        empty = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())}))

        def whole(g: pd.DataFrame) -> pd.DataFrame:
            assert len(g) and "k" in g.columns
            return g

        def named(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
            # a side without any row has no columns to give
            assert sides["e"].empty and sides["e"].columns.empty
            return whole(sides["r"])

        assert sorted(co_partition(rows, ["k"], whole).to_pandas()["k"]) == [1, 2, 3]
        assert sorted(co_partition({"r": rows, "e": empty}, ["k"], named).to_pandas()["k"]) == [1, 2, 3]
        assert len(co_partition(empty, ["k"], whole).to_pandas()) == 0
        assert len(co_partition({"r": empty, "e": empty}, ["k"], named).to_pandas()) == 0

    def test_named_sides_keep_their_dtypes(self, ray_session, set_buckets):
        """Each side reaches ``fn`` with its own columns and dtypes: A's
        int64 values above 2**53 stay exact (a float64 would merge
        2**53 and 2**53 + 1), and in buckets without a row of B, B is
        an empty frame with B's columns and dtypes."""
        import ray.data

        from mlscraper_ray.functions.bucketed import co_partition

        set_buckets(8)
        big = [2**53 + i for i in range(40)]
        a = pa.table({"k": pa.array(range(40), pa.int64()), "x": pa.array(big, pa.int64())})
        b = pa.table({"k": pa.array([3], pa.int64()), "y": ["p"], "n": pa.array([7], pa.int32())})
        b_dtypes = {"k": np.dtype("int64"), "y": np.dtype(object), "n": np.dtype("int32")}

        def fn(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
            assert sides["a"]["x"].dtype == np.int64
            assert sides["b"].dtypes.to_dict() == b_dtypes
            return pd.DataFrame({"x": sides["a"]["x"], "nb": len(sides["b"])})

        sides = {"a": ray.data.from_arrow([a.slice(0, 20), a.slice(20)]), "b": ray.data.from_arrow(b)}
        out = co_partition(sides, ["k"], fn).to_pandas()
        assert sorted(out["x"].tolist()) == big
        assert (out["nb"] == 0).any() and (out["nb"] == 1).any()

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_join_with_a_side_without_rows(self, ray_session, how):
        """A join side whose map leaves no row has no columns in any
        bucket: an inner join yields no rows, a left join every left
        row (without the right side's columns, which no row carried)."""
        import ray.data

        from mlscraper_ray.functions.joins import cogroup_join

        left = ray.data.from_arrow(pa.table({"k": pa.array(range(10), pa.int64()), "v": list("abcdefghij")}))
        right = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()), "w": [1.5, 2.5]}))
        none = right.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
        out = cogroup_join(left, none, "k", how=how).to_pandas()
        assert sorted(out.get("k", [])) == ([] if how == "inner" else list(range(10)))


class TestIncrementalMinhash:
    def test_cross_snapshot_best_match_and_within_new_ignored(
        self, ray_session, tmp_path
    ):
        """Planted cross-snapshot near-dups: a new doc sharing most
        grams with two prior docs must flag with the BEST one (max
        jaccard, tie lowest prior id); near-dups entirely WITHIN the
        new snapshot must not flag (the incremental contract — they'll
        be caught when their snapshot becomes the prior)."""
        import pyarrow.parquet as pq_mod

        from mlscraper_ray.functions.dedup import incremental_minhash_dedup

        base = " ".join(f"tok{i}" for i in range(30))
        near = base.replace("tok7", "CHANGED")  # high-but-<100 jaccard
        uniq1 = " ".join(f"aa{i}" for i in range(25))
        uniq2 = " ".join(f"bb{i}" for i in range(25))
        texts = {
            0: near,    # prior: near-dup of doc 1
            1: base,    # new: flags; best prior = 2 (exact copy, j=100)
            2: base,    # prior: exact copy of doc 1
            3: uniq1,   # new: clean vs priors
            4: uniq2,   # prior: unique
            5: uniq1,   # new: dups doc 3 (NEW) only -> must NOT flag
        }
        t = pa.table(
            {
                "doc_id": pa.array(sorted(texts), pa.int64()),
                "text": pa.array([texts[i] for i in sorted(texts)], pa.string()),
            }
        )
        pq_mod.write_table(t, str(tmp_path / "documents.parquet"))
        out = incremental_minhash_dedup(str(tmp_path)).to_pandas().set_index("doc_id")
        assert list(out.index) == [1]
        assert out.loc[1, "prior_id"] == 2
        assert out.loc[1, "jaccard_pct"] == 100

    def test_bucketed_verify_path_matches_broadcast(self, ray_session, set_pull_cap):
        """A pull cap of 0 forces the cogroup-join verify path of
        the shared _verify_candidate_pairs stage; output must equal
        the broadcast path (the oracle-checked default)."""
        from mlscraper_ray.functions.dedup import incremental_minhash_dedup

        a = incremental_minhash_dedup(SF_DIR).to_pandas()
        pulls = set_pull_cap(0)
        b = incremental_minhash_dedup(SF_DIR).to_pandas()
        pd.testing.assert_frame_equal(a, b)
        assert pulls == ["shuffle"]
        assert len(a) > 0  # the shipped corpus has cross-snapshot dups


class TestRegistryWindow:
    def test_priority_ops_inside_driver_window(self, entry_mod):
        """The driver's correctness check compares only the FIRST 50
        keys of queries(); the operators that have never received a
        driver-side row (plus the round-5 additions) must stay inside
        that window — an accidental reorder would silently drop them
        from external verification again."""
        first50 = list(entry_mod.queries())[:50]
        must_be_inside = {
            "embed_semdedup", "embed_pq_codes", "extract_main_content",
            "page_template_clusters", "page_profile", "wet_curate",
            "page_rank", "link_hits", "link_stats", "host_rank",
            "host_reciprocity", "host_triangles", "host_kcore",
            "url_canonical_dedup",
            "crawl_order_tiered", "crawl_order_tiered_recrawl",
            "crawl_order_ranked",
            "crawl_metrics", "robots_stats", "crawl_counter_totals",
            "ann_ivf_pq_topk", "ann_ivf_pq_residual_topk", "ann_lsh_topk",
            "source_overlap", "corpus_dsir_select",
            "learn_plan", "learn_plan_parallel",
            "source_temperature_mix", "doc_scrub_dup_runs",
            "dedup_minhash_incremental", "text_search_phrase",
            "doc_perplexity_buckets", "embed_random_projection",
            "source_epoch_mix", "dedup_bloom_screen",
            "frontier_url_filter", "events_decayed_value",
            "ann_cosine_range", "dedup_query_similar",
            "doc_winnow_fingerprints", "text_search_phrase_indexed",
            "dedup_winnow_pairs", "source_datacard",
            "dedup_winnow_clusters", "url_redirect_resolve",
            "events_funnel", "events_retention",
            "event_value_quantile_sketch", "corpus_snapshot_diff",
            "dedup_query_similar_indexed",
            # displaced by host_triangles/host_kcore (judgment call:
            # the newest graph ops need the external rows most):
            # corpus_split_by_source (variant of long-green
            # corpus_split), link_distance_from_seeds (generator-truth
            # pinned in-repo at both scales)
        }
        missing = must_be_inside - set(first50)
        assert not missing, missing


class TestPageFacets:
    def test_cached_equals_fresh(self, ray_session):
        """The committed facet parquet must serve exactly what the
        fused parse pass computes; each page's link and anchor lists
        are one pair list, so their lengths are ``n_links``."""
        from mlscraper_ray.functions.facets import page_facets_ds

        fresh = (
            page_facets_ds(SF_DIR, use_cache=False)
            .to_pandas()
            .sort_values("url", ignore_index=True)
        )
        cached = (
            page_facets_ds(SF_DIR)
            .to_pandas()
            .sort_values("url", ignore_index=True)[fresh.columns]
        )
        pd.testing.assert_frame_equal(fresh, cached)
        assert len(fresh) > 0
        for row in cached.itertuples(index=False):
            assert row.n_links == len(row.links) == len(row.anchors), row.url
        assert cached["n_links"].sum() > 0


def test_cache_commits_prune_stale_digests(ray_session, tmp_path, monkeypatch):
    """Each digest-keyed cache (truth SQL, facet table, search index)
    built twice under two digests leaves one entry: committing the new
    one deletes the old. An entry whose name only starts with the same
    prefix (``_oracle_probe_recrawl_<digest>``) is not a sibling."""
    from mlscraper_ray.functions import facets, search
    from mlscraper_ray.pipelines import crawl_pipeline, truth_oracles

    def left(prefix: str) -> list[str]:
        return sorted(f for f in os.listdir(tmp_path) if f.startswith(prefix))

    # truth SQL: the digest covers ``params``
    (tmp_path / "_oracle_probe_recrawl_0123456789.sql").write_text("other")
    with monkeypatch.context() as m:
        m.setattr(crawl_pipeline, "corpus_for_sf", lambda sf: (str(tmp_path), None))
        for params in ("a", "b"):
            truth_oracles._cached(0.001, "probe", lambda d, s, p=params: p, params=params)
    kept = [f for f in left("_oracle_probe_") if "recrawl" not in f]
    assert len(kept) == 1 and (tmp_path / kept[0]).read_text() == "b"
    assert "_oracle_probe_recrawl_0123456789.sql" in left("_oracle_probe_")

    digests = iter(["aaaaaaaaaa", "bbbbbbbbbb"])
    monkeypatch.setattr(
        facets, "_facet_cache_dir", lambda corpus_dir: str(tmp_path / f"_pagefacets_{next(digests)}")
    )
    for _ in range(2):
        assert facets.page_facets_ds(SF_DIR, columns=["url"]).count() > 0
    assert left("_pagefacets_") == ["_pagefacets_bbbbbbbbbb"]

    digests = iter(["cccccccccc", "dddddddddd"])
    monkeypatch.setattr(
        search, "_index_cache_dir", lambda sf_dir, prefix: str(tmp_path / f"{prefix}_sf0.001_{next(digests)}")
    )
    for _ in range(2):
        search._cached_index(SF_DIR, "bm25_index", lambda sf_dir, index_dir: os.makedirs(index_dir))
    assert left("bm25_index_") == ["bm25_index_sf0.001_dddddddddd"]


class TestDsirSelect:
    def test_target_source_enriched(self, ray_session):
        """The point of DSIR: the selected decile must over-represent
        the target collection. At sf0.001 src0 is 5% of the corpus;
        anything >= 3 of 50 selected is > 1.2x enrichment (observed:
        ~5x at both test scales)."""
        import duckdb

        from mlscraper_ray.functions.curate import dsir_select

        sel = dsir_select(SF_DIR).to_pandas()
        con = duckdb.connect()
        docs = con.execute(
            f"SELECT doc_id, source FROM '{SF_DIR}/documents.parquet'"
        ).fetchdf()
        merged = sel.merge(docs, on="doc_id")
        n_target = int((merged["source"] == "src0").sum())
        share = len(docs[docs["source"] == "src0"]) / len(docs)
        assert len(sel) == len(docs) // 10
        assert n_target / len(sel) > 2 * share, (n_target, len(sel), share)

    def test_weights_cover_negative_range(self, ray_session):
        """Weights must exercise both signs (a constant-sign weight
        column would mean the lambda subtraction is vacuous):
        top_denom=1 ranks the WHOLE corpus, which at sf0.001 spans
        -18..+26 with ~180 negative docs."""
        from mlscraper_ray.functions.curate import dsir_select

        sel = dsir_select(SF_DIR, top_denom=1).to_pandas()
        assert (sel["weight"] > 0).any()
        assert (sel["weight"] < 0).any()


class TestDecontaminateGuard:
    def test_bucketed_path_matches_broadcast(self, ray_session, set_pull_cap):
        """A pull cap of 0 forces the bucketed EXISTS anti-join path;
        survivors must be bit-identical to the broadcast screen (the
        oracle-checked default)."""
        from mlscraper_ray.functions.curate import decontaminate

        a = decontaminate(SF_DIR).to_pandas()
        pulls = set_pull_cap(0)
        b = decontaminate(SF_DIR).to_pandas()
        pd.testing.assert_frame_equal(a, b)
        assert pulls == ["shuffle"]
        assert len(a) > 0


class TestEmbeddingNeardupGuard:
    def test_hot_bucket_star_collapse(self, ray_session, tmp_path):
        """All-identical embeddings (the realistic worst case): one LSH
        bucket holds the whole corpus. Over-cap buckets must emit the
        linear star (n-1 pairs), not the O(n^2) clique; with the guard
        off the clique is exact."""
        from mlscraper_ray.functions.similarity import embedding_neardup_pairs

        n = 300
        vec = list(np.arange(1, 9, dtype=np.float64))
        t = pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array([vec] * n, pa.list_(pa.float32())),
            }
        )
        pq.write_table(t, str(tmp_path / "embeddings.parquet"))
        out = embedding_neardup_pairs(str(tmp_path), max_bucket_docs=64).to_pandas()
        assert len(out) == n - 1  # star, not the (n choose 2) clique
        assert (out["vec_a"] == 0).all()
        assert sorted(out["vec_b"]) == list(range(1, n))
        assert (out["score_x10k"] == 10000).all()
        out2 = embedding_neardup_pairs(str(tmp_path), max_bucket_docs=None).to_pandas()
        assert len(out2) == n * (n - 1) // 2


class TestPIIScrub:
    def test_planted_pii_counts_and_redaction(self, ray_session, tmp_path):
        """Non-vacuous pin (the synthetic corpus contains no PII): the
        counts, placeholder substitution, ordering contract (emails
        before phones before IPs) and the DuckDB mirror must all agree
        on planted samples."""
        import duckdb

        from mlscraper_ray.functions.textstats import pii_scrub, pii_scrub_sql

        texts = [
            "contact bob.smith+spam@example.co.uk or call 555-123-4567 now",
            "server at 10.0.255.7 and backup at 192.168.1.1",
            "dotted phone 555.123.4567 must be a phone, not an IP",
            "no pii here at all",
            "two mails a@b.io c@d.org one ip 8.8.8.8",
        ]
        t = pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = pii_scrub(str(tmp_path)).to_pandas()
        assert out["n_email"].tolist() == [1, 0, 0, 0, 2]
        assert out["n_phone"].tolist() == [1, 0, 1, 0, 0]
        assert out["n_ip"].tolist() == [0, 2, 0, 0, 1]
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'")
        ora = con.execute(pii_scrub_sql()).fetchdf()
        for c in ("n_email", "n_phone", "n_ip", "redacted_md5"):
            assert out[c].tolist() == ora[c].tolist(), c
        # the redaction really substitutes: doc 0's md5 equals the
        # hand-redacted text's
        import hashlib

        want = hashlib.md5(
            b"contact <EMAIL> or call <PHONE> now"
        ).hexdigest()
        assert out.loc[0, "redacted_md5"] == want


class TestIncrementalDedup:
    def test_planted_cross_snapshot_semantics(self, ray_session, tmp_path):
        """Non-vacuous semantics pin (the shipped documents table has
        no exact text dups, so the SQL oracle is vacuous there): a new
        doc sharing text with a PRIOR doc is dropped entirely; new
        dups keep the minimum new doc_id with the right count; prior
        texts never appear in the output."""
        from mlscraper_ray.functions.dedup import incremental_dedup

        # snapshot_mod=2: even doc_ids are the prior snapshot
        texts = {
            0: "prior text alpha",     # prior
            2: "prior text beta",      # prior
            1: "prior text alpha",     # new, contaminated by 0 -> dropped
            3: "fresh text one",       # new, unique -> kept
            5: "fresh text two",       # new, dup head -> kept (min id)
            7: "fresh text two",       # new, dup of 5 -> folded into 5
            9: "fresh text two",       # new, dup of 5 -> folded into 5
        }
        t = pa.table(
            {
                "doc_id": pa.array(sorted(texts), pa.int64()),
                "text": pa.array([texts[k] for k in sorted(texts)], pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = incremental_dedup(str(tmp_path)).to_pandas()
        assert out["doc_id"].tolist() == [3, 5]
        assert out.loc[out["doc_id"] == 5, "n_new"].iloc[0] == 3
        assert out.loc[out["doc_id"] == 3, "n_new"].iloc[0] == 1


class TestSourcePairMatrix:
    def test_broadcast_and_cogroup_paths_equal(self, ray_session, set_pull_cap):
        from mlscraper_ray.functions.dedup import source_pair_matrix

        fast = source_pair_matrix(SF_DIR).to_pandas()
        pulls = set_pull_cap(0)
        slow = source_pair_matrix(SF_DIR).to_pandas()
        pd.testing.assert_frame_equal(fast, slow)
        assert pulls == ["shuffle", "shuffle"]  # verify stage, then the matrix
        # non-vacuity: the synthetic corpus has cross-source near-dups
        assert (fast["source_lo"] != fast["source_hi"]).any()


class TestCorpusValidate:
    def test_detects_crafted_violations(self, ray_session, tmp_path):
        """Every constraint check fires on a corpus with injected
        defects (the clean-testdata registry row is all-zeros, so
        detection must be pinned here)."""
        import pyarrow.parquet as _pq

        from mlscraper_ray.functions.validate import corpus_validate

        d = str(tmp_path / "bad_sf")
        os.makedirs(d)
        _pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([1, 1, 2, 3], pa.int64()),      # dup id
                    "text": pa.array(["abc", "abc", "  ", "xy"]),       # blank text
                    "n_chars": pa.array([3, 3, 2, 99], pa.int64()),     # wrong len
                    "lang": pa.array(["en"] * 4),
                    "source": pa.array(["s"] * 4),
                }
            ),
            os.path.join(d, "documents.parquet"),
        )
        _pq.write_table(
            pa.table(
                {
                    "event_id": pa.array([1, 2], pa.int64()),
                    "ts": pa.array([pd.Timestamp("2026-01-01")] * 2),
                    "user_id": pa.array([1, 2], pa.int64()),
                    "event_type": pa.array(["view", "view"]),
                    "value": pa.array([-1.0, 2.0]),                     # negative
                    "props": pa.array(['{"k": 1}', "{not json"]),       # bad json
                }
            ),
            os.path.join(d, "events.parquet"),
        )
        _pq.write_table(
            pa.table({"c_custkey": pa.array([10], pa.int64()),
                      "c_name": pa.array(["c"]),
                      "c_nationkey": pa.array([0], pa.int32()),
                      "c_acctbal": pa.array([0.0]),
                      "c_mktsegment": pa.array(["BUILDING"])}),
            os.path.join(d, "customer.parquet"),
        )
        _pq.write_table(
            pa.table(
                {
                    "o_orderkey": pa.array([100, 101], pa.int64()),
                    "o_custkey": pa.array([10, 99], pa.int64()),        # orphan cust
                    "o_orderdate": pa.array([pd.Timestamp("2026-01-01")] * 2),
                    "o_totalprice": pa.array([1.0, 2.0]),
                    "o_orderstatus": pa.array(["O", "O"]),
                    "o_orderpriority": pa.array(["1-URGENT"] * 2),
                }
            ),
            os.path.join(d, "orders.parquet"),
        )
        _pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([100, 777, 777], pa.int64()),  # 2 orphan rows
                    "l_extendedprice": pa.array([1.0, 1.0, 1.0]),
                    "l_discount": pa.array([0.0, 0.0, 0.0]),
                }
            ),
            os.path.join(d, "lineitem.parquet"),
        )
        _pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array([0, 1], pa.int64()),
                    "embedding": pa.array([[0.0] * 64, [0.0] * 3],
                                          pa.list_(pa.float32())),       # wrong dim
                    "label": pa.array([0, 0], pa.int32()),
                }
            ),
            os.path.join(d, "embeddings.parquet"),
        )

        rep = corpus_validate(d).to_pandas().set_index(["table_name", "check_name"])
        v = rep["n_violations"]
        assert v[("documents", "doc_id_unique")] == 1
        assert v[("documents", "n_chars_matches_text")] == 1
        assert v[("documents", "text_not_empty")] == 1
        assert v[("events", "value_non_negative")] == 1
        assert v[("events", "props_valid_json")] == 1
        assert v[("orders", "custkey_in_customer")] == 1
        assert v[("lineitem", "orderkey_in_orders")] == 2
        assert v[("embeddings", "dim_is_64")] == 1
        assert (rep["n_checked"] > 0).all()


class TestNearDocStats:
    def test_matches_bruteforce_on_random_position_sets(self):
        """Property: the searchsorted window count and nearest-gap
        minimum equal the O(n*m) brute force on arbitrary sorted
        position arrays (the kernel both text_search_near paths
        share)."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from mlscraper_ray.functions.search import _near_doc_stats

        pos = st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True)

        @settings(max_examples=200, deadline=None)
        @given(pos, pos, st.integers(1, 8))
        def check(a, b, w):
            pa_pos = np.array(sorted(a), dtype=np.int64)
            pb_pos = np.array(sorted(b), dtype=np.int64)
            n_near, min_dist = _near_doc_stats(pa_pos, pb_pos, w)
            diffs = np.abs(pa_pos[:, None] - pb_pos[None, :])
            assert n_near == int((diffs <= w).sum())
            assert min_dist == int(diffs.min())

        check()


class TestBM25Search:
    def test_ranking_semantics_on_crafted_corpus(self, ray_session, tmp_path):
        """Rank order must follow BM25 intuition: matching a RARE term
        beats matching a common one; higher tf beats lower tf; length
        normalization penalizes padded docs; non-matching docs score 0
        but still fill the top-k like the SQL LIMIT does."""
        from mlscraper_ray.functions.search import bm25_topk

        texts = [
            "rare common filler filler",              # 0: rare + common
            "common filler filler filler",            # 1: common only
            "rare rare common filler",                # 2: rare twice
            "rare " + "pad " * 60,                    # 3: rare, long doc
            "nothing here at all",                    # 4: no match
        ]
        t = pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = bm25_topk(str(tmp_path), terms=("rare", "common"), k=5).to_pandas()
        ranked = out["doc_id"].tolist()
        score = dict(zip(out["doc_id"], out["score_m"]))
        assert ranked[0] == 2          # tf=2 on the rarer term wins
        assert score[0] > score[1]     # rare+common > common-only
        assert score[0] > score[3]     # same terms, shorter doc wins
        assert score[4] == 0 and ranked[-1] == 4

    def test_topk_stable_under_block_structure(self, ray_session, tmp_path):
        """Partial top-k + driver merge must equal the global order no
        matter how rows split into blocks: many tiny blocks vs one."""
        import ray.data

        from mlscraper_ray.functions.search import bm25_topk

        rng = np.random.RandomState(5)
        words = ["alpha", "beta", "gamma", "delta", "pad"]
        texts = [
            " ".join(rng.choice(words, size=rng.randint(3, 30)))
            for _ in range(200)
        ]
        t = pa.table(
            {
                "doc_id": pa.array(range(200), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        d1 = tmp_path / "one"
        d1.mkdir()
        pq.write_table(t, str(d1 / "documents.parquet"))
        d2 = tmp_path / "many"
        (d2 / "documents.parquet").mkdir(parents=True)  # dir-of-files read
        for i in range(8):  # 8 separate files -> many blocks
            pq.write_table(
                t.slice(i * 25, 25), str(d2 / "documents.parquet" / f"part_{i}.parquet")
            )
        a = bm25_topk(str(d1), terms=("alpha", "gamma")).to_pandas()
        b = bm25_topk(str(d2), terms=("alpha", "gamma")).to_pandas()
        pd.testing.assert_frame_equal(a, b)


class TestPhraseSearch:
    def test_consecutive_semantics_on_crafted_corpus(self, ray_session, tmp_path):
        """Positional contract: only CONSECUTIVE occurrences count
        (reversed order / interleaved words don't), overlapping hits
        all count, case-folds, and a 3-token phrase needs all three
        in a row."""
        from mlscraper_ray.functions.search import phrase_topk

        texts = [
            "part filter part filter done",   # 0: two hits
            "filter part nothing",            # 1: reversed -> no hit
            "part x filter",                  # 2: interleaved -> no hit
            "PART Filter",                    # 3: case-folded hit
            "part",                           # 4: shorter than phrase
            "",                               # 5: empty
        ]
        t = pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = phrase_topk(str(tmp_path), phrase=("part", "filter"), k=10).to_pandas()
        got = dict(zip(out["doc_id"], out["n_hits"]))
        assert got == {0: 2, 3: 1}
        assert out["doc_id"].tolist() == [0, 3]  # hits DESC, doc_id ASC

        tri = phrase_topk(
            str(tmp_path), phrase=("part", "filter", "part"), k=10
        ).to_pandas()
        assert dict(zip(tri["doc_id"], tri["n_hits"])) == {0: 1}

    def test_indexed_serving_equals_full_scan_and_resumes(self, ray_session, tmp_path):
        """The positional index must serve the exact full-scan phrase
        ranking (incl. a 3-token phrase and a phrase with a missing
        term), and a rebuild into the same dir skips every shard."""
        from mlscraper_ray.functions.search import (
            phrase_index_to_parquet,
            phrase_query_index,
            phrase_topk,
        )

        rng = np.random.RandomState(11)
        words = ["part", "filter", "scan", "merge", "pad"]
        texts = [
            " ".join(rng.choice(words, size=rng.randint(3, 25)))
            for _ in range(120)
        ]
        t = pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        idx = str(tmp_path / "pidx")
        r1 = phrase_index_to_parquet(str(tmp_path), idx, n_shards=4)
        assert r1["written"] == 4
        for phrase in (("part", "filter"), ("part", "filter", "scan")):
            a = phrase_topk(str(tmp_path), phrase=phrase, k=10).to_pandas()
            b = phrase_query_index(idx, phrase=phrase, k=10).to_pandas()
            pd.testing.assert_frame_equal(a, b)
        miss = phrase_query_index(idx, phrase=("part", "nosuchword"), k=10)
        assert miss.num_rows == 0
        assert miss.column_names == ["doc_id", "n_hits", "n_tokens"]
        r2 = phrase_index_to_parquet(str(tmp_path), idx, n_shards=4)
        assert r2 == {"written": 0, "skipped": 4}

    def test_no_cross_document_matches(self, ray_session, tmp_path):
        """A phrase ending one doc and starting the next must NOT
        match — the flattened-batch scan masks doc boundaries."""
        from mlscraper_ray.functions.search import phrase_topk

        t = pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(["ends with part", "filter starts"], pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = phrase_topk(str(tmp_path), phrase=("part", "filter"), k=10)
        assert out.num_rows == 0
        assert out.column_names == ["doc_id", "n_hits", "n_tokens"]


class TestWinnowing:
    def test_pair_join_finds_planted_shared_passage(self, ray_session, tmp_path):
        """Two docs sharing a >= w+k-1 token passage must pair (the
        winnowing guarantee carried into the join); unrelated docs
        must not reach min_shared."""
        from mlscraper_ray.functions.dedup import winnow_neardup_pairs

        run = " ".join(f"tok{i}" for i in range(12))  # 12 shared tokens
        texts = [
            run + " left tail words here",
            "right head words here " + run,
            "completely different content with other words entirely now",
        ]
        t = pa.table(
            {
                "doc_id": pa.array(range(3), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = winnow_neardup_pairs(str(tmp_path), min_shared=2).to_pandas()
        assert [(a, b) for a, b in zip(out["doc_a"], out["doc_b"])] == [(0, 1)]
        assert int(out["shared"].iloc[0]) >= 2

    def test_shared_run_guarantee(self, ray_session, tmp_path):
        """Winnowing's contract: two docs sharing a token run of
        length >= w+k-1 (= 6 at k=3, w=4) MUST share at least one
        selected fingerprint, wherever the run sits in either doc."""
        import hashlib

        from mlscraper_ray.functions.dedup import doc_winnow_fingerprints

        run = "alpha beta gamma delta epsilon zeta"  # 6 tokens
        texts = [
            run + " one two three four five six seven eight",
            "nine ten eleven twelve " + run + " thirteen fourteen",
            "totally unrelated words with no shared content here",
        ]
        t = pa.table(
            {
                "doc_id": pa.array(range(3), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = doc_winnow_fingerprints(str(tmp_path)).to_pandas()
        assert len(out) == 3 and (out["n_selected"] > 0).all()

        # recompute each doc's selected fingerprint SET independently
        # (brute force) and check the guarantee + the returned sums
        def fps(text, k=3, w=4, mod=1_000_003):
            ws = text.split()
            grams = [" ".join(ws[i : i + k]) for i in range(len(ws) - k + 1)]
            h = [
                int.from_bytes(hashlib.md5(g.encode()).digest()[8:16], "little") % mod
                for g in grams
            ]
            sel = set()
            for s in range(max(1, len(h) - w + 1)):
                win = h[s : s + w]
                m = min(win)
                sel.update(s + j for j, v in enumerate(win) if v == m)
            return {i: h[i] for i in sel}

        f0, f1, f2 = (fps(tx) for tx in texts)
        assert set(f0.values()) & set(f1.values())        # the guarantee
        assert not (set(f0.values()) & set(f2.values()))
        got = out.set_index("doc_id")
        for d, f in enumerate((f0, f1, f2)):
            assert got.loc[d, "n_selected"] == len(f)
            assert got.loc[d, "fp_sum"] == sum(f.values())


class TestCosineRange:
    def test_threshold_membership_on_planted_vectors(self, ray_session, tmp_path):
        from mlscraper_ray.functions.similarity import cosine_range

        dim = 8
        q = [1.0] + [0.0] * (dim - 1)
        same = list(q)
        diag = [1.0, 1.0] + [0.0] * (dim - 2)      # cos = 0.7071
        orth = [0.0, 1.0] + [0.0] * (dim - 2)      # cos = 0
        t = pa.table(
            {
                "vec_id": pa.array([0, 1, 2, 3], pa.int64()),
                "embedding": pa.array([q, same, diag, orth], pa.list_(pa.float32())),
            }
        )
        pq.write_table(t, str(tmp_path / "embeddings.parquet"))
        out = cosine_range(str(tmp_path), query_vec_id=0, threshold_x10k=5000).to_pandas()
        assert out["vec_id"].tolist() == [1, 2]  # query excluded, orth below
        assert out["score_x10k"].tolist() == [10000, 7071]
        # no vector clears the bar -> typed empty (review-fix regression)
        none = cosine_range(str(tmp_path), query_vec_id=0, threshold_x10k=10001)
        assert none.num_rows == 0
        assert none.column_names == ["vec_id", "score_x10k"]


class TestQuerySimilarDocs:
    def test_jaccard_ranking_on_planted_docs(self, ray_session, tmp_path):
        from mlscraper_ray.functions.dedup import query_similar_docs

        texts = [
            "a b c d e",       # 0: query (grams: abc bcd cde)
            "a b c d e",       # 1: identical -> 100
            "a b c x y",       # 2: shares abc only -> 100*1//5 = 20
            "p q r s t",       # 3: disjoint -> absent
        ]
        t = pa.table(
            {
                "doc_id": pa.array(range(4), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = query_similar_docs(str(tmp_path), query_doc_id=0).to_pandas()
        assert out["doc_id"].tolist() == [1, 2]
        assert out["jaccard_pct"].tolist() == [100, 20]
        assert out["n_inter"].tolist() == [3, 1]
        # unknown query id -> typed empty, like the SQL (review-fix)
        miss = query_similar_docs(str(tmp_path), query_doc_id=999)
        assert miss.num_rows == 0
        assert miss.column_names == ["doc_id", "jaccard_pct", "n_inter"]


class TestDecayedValue:
    def test_halving_per_halflife(self, ray_session, tmp_path):
        """An event exactly k half-lives old contributes
        value_milli >> k — pinned on a crafted 3-event log."""
        from mlscraper_ray.functions.streams import events_decayed_value

        base = pd.Timestamp("2024-01-10 00:00:00")
        t = pa.table(
            {
                "user_id": pa.array([1, 1, 2], pa.int64()),
                "ts": pa.array(
                    [base, base - pd.Timedelta(hours=72), base - pd.Timedelta(hours=145)],
                    pa.timestamp("us"),
                ),
                "value": pa.array([8.0, 8.0, 8.0], pa.float64()),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = events_decayed_value(str(tmp_path), halflife_hours=72).to_pandas()
        got = dict(zip(out["user_id"], out["decayed_milli"]))
        # user 1: 8000 (age 0) + 4000 (exactly 1 half-life); user 2:
        # age 145h = 2 full half-lives -> 2000
        assert got == {1: 12000, 2: 2000}


class TestEventsFunnel:
    def test_ordering_and_window_semantics(self, ray_session, tmp_path):
        """A step-2 event BEFORE the user's first step-1, or outside
        the window after it, must not convert; conversion anchors on
        the FIRST qualifying event of the previous stage."""
        from mlscraper_ray.functions.streams import events_funnel

        base = pd.Timestamp("2024-01-10 00:00:00")
        h = pd.Timedelta(hours=1)
        rows = [
            # user 1: view -> click(+1h) -> purchase(+2h): full convert
            (1, base, "view"), (1, base + h, "click"), (1, base + 2 * h, "purchase"),
            # user 2: click BEFORE any view -> step 2 not reached
            (2, base - h, "click"), (2, base, "view"),
            # user 3: click outside the 72h window -> not reached
            (3, base, "view"), (3, base + pd.Timedelta(hours=73), "click"),
            # user 4: two clicks; purchase qualifies only against the
            # SECOND click's window but funnel anchors on the FIRST
            (4, base, "view"), (4, base + h, "click"),
            (4, base + pd.Timedelta(hours=80), "click"),
            (4, base + pd.Timedelta(hours=100), "purchase"),
            # user 5: purchase first, never views -> contributes nothing
            (5, base, "purchase"),
        ]
        t = pa.table(
            {
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
                "event_type": pa.array([r[2] for r in rows], pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = events_funnel(str(tmp_path)).to_pandas()
        assert out["step"].tolist() == [1, 2, 3]
        assert out["event_type"].tolist() == ["view", "click", "purchase"]
        # views: users 1,2,3,4; clicks in-window after first view: 1,2? no
        # (2's click precedes its view), 4 (first click at +1h); 3 out of
        # window -> step2 = {1, 4}; purchases within 72h of the FIRST
        # qualifying click: user 1 yes, user 4's purchase is 99h after its
        # anchored click -> step3 = {1}
        assert out["n_users"].tolist() == [4, 2, 1]


class TestEventsRetention:
    def test_triangle_counts(self, ray_session, tmp_path):
        from mlscraper_ray.functions.streams import events_retention

        d = lambda s: pd.Timestamp(s)
        rows = [
            # cohort day 0: users 1,2 — user 1 returns day 1 and 3
            (1, d("2024-01-01 08:00")), (1, d("2024-01-02 09:00")),
            (1, d("2024-01-04 07:00")), (1, d("2024-01-04 23:00")),
            (2, d("2024-01-01 10:00")),
            # cohort day 1: user 3, returns day 2
            (3, d("2024-01-02 01:00")), (3, d("2024-01-03 01:00")),
        ]
        t = pa.table(
            {
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = events_retention(str(tmp_path)).to_pandas()
        day0 = int(pd.Timestamp("2024-01-01").value // (86_400 * 10**9))
        got = {
            (r.cohort_day - day0, r.day_offset): r.n_users
            for r in out.itertuples()
        }
        # duplicate same-day activity (user 1 on day 3) counts once
        assert got == {(0, 0): 2, (0, 1): 1, (0, 3): 1, (1, 0): 1, (1, 1): 1}


class TestQuantileSketch:
    def test_sample_estimate_tracks_exact(self, ray_session, tmp_path):
        """The KMV bottom-k sample is a uniform sample, so its
        discrete quantiles must land near the exact ones — pinned on
        a 20k-row uniform value column (deterministic md5 ranks, so
        the assertion is stable)."""
        from mlscraper_ray.functions.aggregates import event_value_quantile_sketch

        n = 20_000
        t = pa.table(
            {
                "event_id": pa.array(range(n), pa.int64()),
                "event_type": pa.array(["t"] * n, pa.string()),
                # uniform 0..999.999 (value_milli = event_id * 50 % 10**6)
                "value": pa.array([(i * 50 % 10**6) / 1000.0 for i in range(n)], pa.float64()),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = event_value_quantile_sketch(str(tmp_path), k=256).to_pandas()
        assert out["n_events"].tolist() == [n]
        assert out["n_sample"].tolist() == [256]
        for col, q in (("p50_milli", 0.50), ("p90_milli", 0.90), ("p99_milli", 0.99)):
            exact = q * 10**6
            assert abs(int(out[col].iloc[0]) - exact) < 0.08 * 10**6, (col, int(out[col].iloc[0]))


class TestFrontierUrlFilter:
    def test_rule_semantics_and_order(self):
        """Each gate fires on its own; when several apply, the FIRST
        rule in the documented order names the reason."""
        from mlscraper_ray.functions.urls import classify_frontier_url as c

        assert c("https://a.example.com/docs/1") == (True, "ok")
        assert c("ftp://a.example.com/x") == (False, "scheme")
        assert c("https://a.example.com/pic.JPG") == (False, "extension")
        assert c("https://ads.example.com/page") == (False, "host")
        assert c("https://a.example.com/a/b/c/d/e/f/g") == (False, "depth")
        assert c("https://a.example.com/p?x=" + "q" * 65) == (False, "query")
        # scheme beats extension beats host: composite offender
        assert c("ftp://ads.example.com/pic.jpg") == (False, "scheme")
        assert c("https://ads.example.com/pic.jpg") == (False, "extension")
        # dots in DIRECTORY names are not extensions
        assert c("https://a.example.com/v1.2/page") == (True, "ok")
        # host label match is exact, not substring
        assert c("https://adserver.example.com/page") == (True, "ok")


class TestBloomScreen:
    def test_true_positives_and_fp_rate_shape(self, ray_session, tmp_path):
        """A duplicate of an A-side text planted in B must hit; a
        well-sized filter (large m_bits) must produce ZERO false
        positives on distinct texts."""
        from mlscraper_ray.functions.dedup import bloom_screen

        texts = [f"unique text number {i} with words" for i in range(20)]
        texts[1] = texts[0]  # doc 1 (odd, B side) duplicates doc 0 (A side)
        t = pa.table(
            {
                "doc_id": pa.array(range(20), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = bloom_screen(str(tmp_path), m_bits=1 << 20).to_pandas()
        got = dict(zip(out["doc_id"], out["hit"]))
        assert all(got[i] for i in range(0, 20, 2))  # A side: always seen
        assert got[1]                                # planted duplicate
        assert not any(got[i] for i in range(3, 20, 2))  # no FPs at 2^20 bits


class TestSourceEpochMix:
    def test_clamp_semantics(self, ray_session, tmp_path):
        """Tiny sources clamp to max_epochs, oversized ones to 1, and
        a zero-token source still yields exactly one epoch."""
        from mlscraper_ray.functions.textstats import source_epoch_mix

        t = pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                "source": pa.array(["tiny", "big", "big", "empty"], pa.string()),
                "text": pa.array(
                    ["two words", "w " * 200, "w " * 200, ""], pa.string()
                ),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = source_epoch_mix(
            str(tmp_path), target_tokens=100, max_epochs=4
        ).to_pandas()
        by_doc = out.groupby("doc_id")["epoch"].max().to_dict()
        # tiny: 100 // 2 = 50 -> clamped to 4; big: 100 // 400 = 0 -> 1
        assert by_doc == {0: 4, 1: 1, 2: 1, 3: 1}
        assert out.loc[out["doc_id"] == 0, "epoch"].tolist() == [1, 2, 3, 4]


class TestRandomProjection:
    def test_one_hot_vectors_read_out_sign_columns(self, ray_session, tmp_path):
        """A one-hot embedding at dim i must project to exactly
        10000 * sign(j, i) in every output component — pins the
        quantization scale, the md5 sign derivation and the matmul."""
        from mlscraper_ray.functions.similarity import (
            _rp_signs,
            embed_random_projection,
        )

        dim = 64
        vecs = []
        for i in (0, 17, 63):
            v = [0.0] * dim
            v[i] = 1.0
            vecs.append(v)
        t = pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float32())),
            }
        )
        pq.write_table(t, str(tmp_path / "embeddings.parquet"))
        out = embed_random_projection(str(tmp_path)).to_pandas()
        S = _rp_signs(8, dim)
        for row, i in zip(out.itertuples(index=False), (0, 17, 63)):
            for j in range(8):
                assert getattr(row, f"p{j}") == 10000 * S[j, i]


class TestPerplexityBuckets:
    def test_boundary_tie_group_split_by_doc_id(self, ray_session, tmp_path):
        """One mean_milli value group straddling BOTH tercile cutoffs
        must split by doc_id rank — the histogram fast path alone
        cannot decide these rows, so this pins the boundary pull."""
        from mlscraper_ray.functions.textstats import doc_perplexity_buckets

        # 6 identical docs -> one value group covering all ranks 0..5;
        # cutoffs at rank 2 and 4 land inside it
        t = pa.table(
            {
                "doc_id": pa.array(range(6), pa.int64()),
                "text": pa.array(["alpha beta gamma"] * 6, pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = doc_perplexity_buckets(str(tmp_path)).to_pandas()
        assert out["bucket"].tolist() == [
            "head", "head", "middle", "middle", "tail", "tail"
        ]
        assert out["mean_milli"].nunique() == 1

    def test_empty_corpus_typed_schema(self, ray_session, tmp_path):
        from mlscraper_ray.functions.textstats import doc_perplexity_buckets

        t = pa.table(
            {
                "doc_id": pa.array([0], pa.int64()),
                "text": pa.array([""], pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = doc_perplexity_buckets(str(tmp_path))
        assert out.num_rows == 0
        assert out.column_names == ["doc_id", "mean_milli", "bucket"]


class TestSemDeDup:
    @staticmethod
    def _write_vecs(tmp_path, vecs):
        t = pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs], pa.list_(pa.float32())
                ),
            }
        )
        pq.write_table(t, str(tmp_path / "embeddings.parquet"))

    def test_planted_semantic_dups_found(self, ray_session, tmp_path):
        """Exact and near copies must be flagged with dup_of = the
        original (identical vectors always share a cluster — the
        integer argmin assignment is a pure function of the vector)."""
        from mlscraper_ray.functions.similarity import embed_semdedup

        rng = np.random.RandomState(7)
        base = rng.standard_normal((30, 16)).astype(np.float32)
        vecs = list(base)
        vecs.append(base[0])  # 30: exact dup of 0
        vecs.append(base[5] + rng.standard_normal(16).astype(np.float32) * 0.005)  # 31
        self._write_vecs(tmp_path, vecs)
        out = embed_semdedup(
            str(tmp_path), threshold=0.92, n_clusters=4, n_iters=2
        ).to_pandas().set_index("vec_id")
        assert out.loc[30, "is_dup"] == 1 and out.loc[30, "dup_of"] == 0
        assert out.loc[31, "is_dup"] == 1 and out.loc[31, "dup_of"] == 5
        assert out.loc[0, "is_dup"] == 0 and out.loc[0, "dup_of"] == -1

    def test_matches_end_to_end_sql_on_planted(self, ray_session, tmp_path):
        """Non-vacuous oracle check on a corpus that HAS semantic dups:
        the full train->assign->within-cluster-shadow pipeline equals
        the chained-CTE DuckDB replay."""
        import duckdb

        from mlscraper_ray.functions.similarity import embed_semdedup, embed_semdedup_sql

        rng = np.random.RandomState(13)
        base = rng.standard_normal((40, 16)).astype(np.float32)
        vecs = list(base)
        for i in range(5):
            vecs.append(base[i] + rng.standard_normal(16).astype(np.float32) * 0.01)
        self._write_vecs(tmp_path, vecs)
        out = embed_semdedup(
            str(tmp_path), threshold=0.9, n_clusters=4, n_iters=2
        ).to_pandas()
        con = duckdb.connect()
        con.execute(f"CREATE VIEW embeddings AS SELECT * FROM '{tmp_path}/embeddings.parquet'")
        oracle = con.execute(embed_semdedup_sql(0.9, 4, 2, dim=16)).fetchdf()
        assert int(oracle["is_dup"].sum()) >= 5  # planted dups really flagged
        for col in ("vec_id", "cluster", "is_dup", "dup_of"):
            assert out[col].tolist() == oracle[col].tolist(), col

    def test_hot_cluster_anchor_guard(self, ray_session, tmp_path):
        """All-identical embeddings: one cluster holds the corpus. The
        anchor-prefix guard keeps compute linear and — because the
        lowest id is always an anchor — still yields the exact result
        here; guard and exact paths must agree."""
        from mlscraper_ray.functions.similarity import embed_semdedup

        n = 200
        vec = list(np.arange(1, 17, dtype=np.float64))
        self._write_vecs(tmp_path, [vec] * n)
        guarded = embed_semdedup(
            str(tmp_path), threshold=0.92, n_clusters=2, n_iters=1, max_cluster_docs=16
        ).to_pandas()
        exact = embed_semdedup(
            str(tmp_path), threshold=0.92, n_clusters=2, n_iters=1, max_cluster_docs=None
        ).to_pandas()
        pd.testing.assert_frame_equal(guarded, exact)
        assert (guarded.loc[guarded["vec_id"] > 0, "dup_of"] == 0).all()
        assert guarded.loc[guarded["vec_id"] == 0, "is_dup"].iloc[0] == 0
        # multi-chunk column tiling must be invisible in the result
        chunked = embed_semdedup(
            str(tmp_path), threshold=0.92, n_clusters=2, n_iters=1,
            max_cluster_docs=16, _chunk_cols=7,
        ).to_pandas()
        pd.testing.assert_frame_equal(chunked, guarded)


def _curate_hash_key(df: pd.DataFrame) -> list[str]:
    """The curate sink routes each survivor by md5(text) of its doc,
    which is not a stored column; recompute it from the corpus."""
    import hashlib

    docs = pq.read_table(os.path.join(SF_DIR, "documents.parquet")).to_pandas()
    text = dict(zip(docs["doc_id"], docs["text"]))
    return [hashlib.md5(text[d].encode()).hexdigest() for d in df["doc_id"]]


# (sink module, sink, contract table, kwargs of both, n_shards, crc32
# shard key: a stored column, a function of the shard's rows, or None
# for a sink not keyed by crc32)
_SINK_CASES = {
    "exact_dedup": ("dedup", "exact_dedup_to_parquet", "exact_dedup", {}, 8, "h"),
    "curate_corpus": ("curate", "curate_corpus_to_parquet", "curate_corpus", {}, 8, _curate_hash_key),
    "tfidf": ("keywords", "tfidf_to_parquet", "doc_tfidf_top_terms", {}, 8, "doc_id"),
    "knn_graph": ("similarity", "knn_graph_to_parquet", "embed_knn_graph", {"k": 3}, 8, "src"),
    "decontaminate": ("curate", "decontaminate_to_parquet", "decontaminate", {}, 8, "doc_id"),
    "chunks": ("packing", "chunks_to_parquet", "doc_chunk_windows", {}, 8, "doc_id"),
    "winnow": ("dedup", "winnow_to_parquet", "doc_winnow_fingerprints", {}, 4, "doc_id"),
    "page_rank": ("pagerank", "page_rank_to_parquet", "page_rank", {}, 8, "url"),
    "page_profile": ("content", "page_profile_to_parquet", "page_profile", {}, 8, "url"),
    "pack_sequences": ("packing", "pack_sequences_to_parquet", "pack_sequences", {}, 4, None),
}


class TestSinkContract:
    """Every resumable ``*_to_parquet`` twin keeps the sink contract of
    functions/sinks.py: the shard union is the oracle-checked contract
    table, a re-run skips every finished shard without touching its
    files, an unmarked shard is wiped (stray files included) and
    rewritten alone, and every row sits in the shard its rule names."""

    @staticmethod
    def _union(out_dir: str, want: pd.DataFrame) -> pd.DataFrame:
        import glob

        files = glob.glob(os.path.join(out_dir, "shard=*", "*.parquet"))
        got = pd.concat([pq.read_table(f).to_pandas() for f in files], ignore_index=True)
        cols = list(want.columns)
        got = got[cols].astype(want.dtypes.to_dict())
        return got.sort_values(cols, ignore_index=True, kind="mergesort")

    @pytest.mark.parametrize("case", list(_SINK_CASES))
    def test_union_resume_and_placement(self, ray_session, tmp_path, case):
        import glob
        import importlib
        import shutil
        import zlib

        mod_name, sink_name, table_name, kwargs, n, key = _SINK_CASES[case]
        mod = importlib.import_module(f"mlscraper_ray.functions.{mod_name}")
        sink, table = getattr(mod, sink_name), getattr(mod, table_name)
        want = table(SF_DIR, **kwargs).to_pandas()
        want = want.sort_values(list(want.columns), ignore_index=True, kind="mergesort")
        out_dir = str(tmp_path / case)

        assert sink(SF_DIR, out_dir, n_shards=n, **kwargs) == {"written": n, "skipped": 0}
        pd.testing.assert_frame_equal(self._union(out_dir, want), want)

        # full resume: no shard rewritten, files untouched
        files = sorted(glob.glob(os.path.join(out_dir, "shard=*", "*.parquet")))
        mtimes = {f: os.path.getmtime(f) for f in files}
        assert sink(SF_DIR, out_dir, n_shards=n, **kwargs) == {"written": 0, "skipped": n}
        assert {f: os.path.getmtime(f) for f in files} == mtimes

        # partial resume: the unmarked shard is wiped — a stray copy of
        # real rows left there by a crashed run must not survive — and
        # rewritten alone
        shard = os.path.join(out_dir, "shard=0003")
        os.remove(os.path.join(shard, "_SUCCESS"))
        shutil.copy(files[0], os.path.join(shard, "stray.parquet"))
        assert sink(SF_DIR, out_dir, n_shards=n, **kwargs) == {"written": 1, "skipped": n - 1}
        assert not os.path.exists(os.path.join(shard, "stray.parquet"))
        pd.testing.assert_frame_equal(self._union(out_dir, want), want)

        if key is None:
            return
        for s in range(n):
            for f in glob.glob(os.path.join(out_dir, f"shard={s:04d}", "*.parquet")):
                rows = pq.read_table(f).to_pandas()
                keys = key(rows) if callable(key) else rows[key]
                assert all(zlib.crc32(str(v).encode()) % n == s for v in keys), (case, f)


class TestConnectedComponents:
    """Unit pins for the min-label propagation operator
    (functions/components.py) against an in-test union-find."""

    @staticmethod
    def _uf_labels(edges):
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
        return {n: find(n) for n in parent}

    @staticmethod
    def _run_cc(edges, **kw):
        import ray.data

        from mlscraper_ray.functions.components import connected_components

        ds = ray.data.from_arrow(
            pa.table(
                {
                    "u": pa.array([e[0] for e in edges], pa.int64()),
                    "v": pa.array([e[1] for e in edges], pa.int64()),
                }
            )
        )
        out = connected_components(ds, **kw).to_pandas()
        return dict(zip(out["node"].astype(int), out["label"].astype(int)))

    def test_cliques_stars_and_isolates_both_paths(self, ray_session, set_pull_cap):
        edges = [
            (1, 2), (2, 3), (1, 3),          # clique
            (10, 11), (10, 12), (10, 13),    # star
            (20, 20),                        # self-loop singleton
            (30, 31),
        ]
        want = self._uf_labels(edges)
        assert self._run_cc(edges) == want  # driver union-find fast path
        pulls = set_pull_cap(0)
        assert self._run_cc(edges) == want  # distributed
        assert pulls == ["shuffle"]

    def test_path_graph_needs_iterations(self, ray_session, set_pull_cap):
        # a path 100..91 has diameter 9: exercises the multi-round
        # distributed loop (seed alone would only see direct neighbors)
        edges = [(i, i + 1) for i in range(91, 101)]
        pulls = set_pull_cap(0)
        got = self._run_cc(edges)
        assert pulls == ["shuffle"]
        assert got == self._uf_labels(edges)
        assert set(got.values()) == {91}

    def test_random_graph_matches_union_find(self, ray_session, set_pull_cap):
        rng = np.random.RandomState(7)
        edges = [tuple(sorted(rng.randint(0, 400, 2))) for _ in range(300)]
        pulls = set_pull_cap(0)
        assert self._run_cc(edges) == self._uf_labels(edges)
        assert pulls == ["shuffle"]

    def test_max_iters_raises_loud(self, ray_session, set_pull_cap):
        edges = [(i, i + 1) for i in range(0, 30)]
        set_pull_cap(0)
        with pytest.raises(RuntimeError, match="did not converge"):
            self._run_cc(edges, max_iters=2)

    def test_canonical_bucketed_anti_matches_broadcast(self, ray_session, set_pull_cap):
        from mlscraper_ray.functions.components import corpus_dedup_canonical

        a = corpus_dedup_canonical(SF_DIR).to_pandas()
        pulls = set_pull_cap(0)
        b = corpus_dedup_canonical(SF_DIR).to_pandas()
        pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
        # verify stage, components, then the loser anti-join
        assert pulls == ["shuffle"] * 3
        assert len(a) > 0


class TestSourceTokenQuota:
    """Distributed prefix-sum quota sampler vs an in-test pandas
    window cumsum, including the zero-token / exact-budget edges the
    bucket classification has to get right."""

    @staticmethod
    def _brute(pdf, budget):
        import hashlib

        df = pdf.copy()
        df["n_tokens"] = df["text"].str.findall(r"\S+").str.len().astype("int64")
        df["rk"] = [hashlib.md5(str(d).encode()).hexdigest() for d in df["doc_id"]]
        df = df.sort_values(["source", "rk", "doc_id"])
        df["cum"] = df.groupby("source")["n_tokens"].cumsum()
        keep = df[df["cum"] <= budget]
        return (
            keep[["doc_id", "source", "n_tokens"]]
            .sort_values("doc_id", ignore_index=True)
            .astype({"doc_id": "int64", "n_tokens": "int64"})
        )

    @staticmethod
    def _write_docs(tmp_path, rows):
        d = tmp_path / "quota_docs"
        d.mkdir(exist_ok=True)
        t = pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "source": pa.array([r[1] for r in rows], pa.string()),
                "text": pa.array([r[2] for r in rows], pa.string()),
            }
        )
        pq.write_table(t, str(d / "documents.parquet"))
        return str(d)

    def test_random_corpus_matches_brute_force(self, ray_session, tmp_path):
        from mlscraper_ray.functions.textstats import source_token_quota

        rng = np.random.RandomState(11)
        rows = []
        for i in range(300):
            src = f"s{rng.randint(0, 5)}"
            nw = int(rng.randint(0, 30))
            rows.append((i, src, " ".join(f"w{rng.randint(0, 9)}" for _ in range(nw))))
        sf = self._write_docs(tmp_path, rows)
        for budget in (0, 1, 37, 200, 10_000_000):
            got = source_token_quota(sf, budget_tokens=budget).to_pandas()
            want = self._brute(pd.DataFrame(rows, columns=["doc_id", "source", "text"]), budget)
            pd.testing.assert_frame_equal(got, want), budget

    def test_zero_token_docs_at_exact_budget(self, ray_session, tmp_path):
        from mlscraper_ray.functions.textstats import source_token_quota

        # one source: several docs including empty ones; pick the
        # budget equal to the cumulative total at a mid doc so the
        # boundary falls exactly on it (zero-token docs right after
        # must stay kept: cum == budget)
        rows = [(i, "s", "a b c" if i % 2 == 0 else "") for i in range(20)]
        pdf = pd.DataFrame(rows, columns=["doc_id", "source", "text"])
        sf = self._write_docs(tmp_path, rows)
        for budget in (0, 3, 6, 9):
            got = source_token_quota(sf, budget_tokens=budget).to_pandas()
            want = self._brute(pdf, budget)
            pd.testing.assert_frame_equal(got, want), budget

    def test_rank_bucket_count_invariance(self, ray_session, tmp_path):
        from mlscraper_ray.functions.textstats import source_token_quota

        rng = np.random.RandomState(3)
        rows = [
            (i, f"s{i % 3}", " ".join("w" for _ in range(int(rng.randint(1, 20)))))
            for i in range(150)
        ]
        sf = self._write_docs(tmp_path, rows)
        a = source_token_quota(sf, budget_tokens=120, n_rank_buckets=4).to_pandas()
        b = source_token_quota(sf, budget_tokens=120, n_rank_buckets=64).to_pandas()
        pd.testing.assert_frame_equal(a, b)


class TestSourceDistinctHll:
    def test_sketch_accuracy_on_large_vocab(self, ray_session, tmp_path):
        """The SQL oracle pins the sketch bit-for-bit; this pins that
        the sketch is a GOOD sketch: raw HLL at m=256 has ~6.5%
        standard error, so a 20k-token vocabulary must estimate within
        20%, and a small source must not leak tokens into it."""
        from mlscraper_ray.functions.textstats import source_distinct_tokens_hll

        rng = np.random.RandomState(5)
        rows = []
        big = [f"tok{i}" for i in range(20_000)]
        for d in range(200):
            toks = rng.choice(big, size=150, replace=False)
            rows.append((d, "big", " ".join(toks)))
        small = [f"s{i}" for i in range(300)]
        for d in range(200, 260):
            toks = rng.choice(small, size=20, replace=False)
            rows.append((d, "small", " ".join(toks)))
        d = tmp_path / "hll_docs"
        d.mkdir()
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                    "source": pa.array([r[1] for r in rows], pa.string()),
                    "text": pa.array([r[2] for r in rows], pa.string()),
                }
            ),
            str(d / "documents.parquet"),
        )
        out = source_distinct_tokens_hll(str(d)).to_pandas().set_index("source")
        true_big = len({t for r in rows if r[1] == "big" for t in r[2].split()})
        true_small = len({t for r in rows if r[1] == "small" for t in r[2].split()})
        est_big = out.loc["big", "est_distinct"]
        assert abs(est_big - true_big) / true_big < 0.20, (est_big, true_big)
        # small source is in raw-HLL's biased low range; just require
        # the sketch kept the two sources separate (no cross-talk)
        assert out.loc["small", "zero_registers"] > out.loc["big", "zero_registers"]
        assert out.loc["small", "est_distinct"] < est_big / 10, (out.loc["small", "est_distinct"], true_small)


class TestDocDupSpanStats:
    def test_planted_dups_and_unique(self, ray_session, tmp_path):
        from mlscraper_ray.functions.dedup import doc_dup_span_stats

        texts = [
            "alpha beta gamma delta epsilon zeta",   # 0: dup of 1
            "alpha beta gamma delta epsilon zeta",   # 1
            "one two three four five six seven",     # 2: unique
            "alpha beta gamma nine ten eleven",      # 3: shares 1 gram with 0/1
            "",                                      # 4: empty -> absent
            "hi",                                    # 5: short-doc fallback gram
        ]
        d = tmp_path / "spans"
        d.mkdir()
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            ),
            str(d / "documents.parquet"),
        )
        out = doc_dup_span_stats(str(d)).to_pandas().set_index("doc_id")
        assert 4 not in out.index  # empty doc has no grams
        assert out.loc[0, "dup_pct"] == 100 and out.loc[1, "dup_pct"] == 100
        assert out.loc[2, "dup_pct"] == 0
        assert out.loc[3, "n_dup_grams"] == 1  # only 'alpha beta gamma'
        assert out.loc[5, "n_grams"] == 1 and out.loc[5, "dup_pct"] == 0


class TestUnigramSurprisal:
    def test_bucketed_join_back_matches_broadcast(self, ray_session, set_pull_cap):
        from mlscraper_ray.functions.textstats import doc_unigram_surprisal

        a = doc_unigram_surprisal(SF_DIR)
        pulls = set_pull_cap(0)
        b = doc_unigram_surprisal(SF_DIR)
        assert a.equals(b)
        # the scored-Dataset memo is keyed by the cap: a shuffle run
        # never reuses the broadcast run's scores
        assert pulls == ["shuffle"]

    def test_crafted_integer_log2(self, ray_session, tmp_path):
        """8 'the' + 1 'zyzzyva' over T=9 tokens: surprisal(the) =
        bit_length(9//8)-1 = 0, surprisal(zyzzyva) = bit_length(9)-1
        = 3; doc scores follow exactly."""
        import os

        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq

        from mlscraper_ray.functions.textstats import doc_unigram_surprisal

        d = tmp_path / "sf"
        os.makedirs(d, exist_ok=True)
        docs = pd.DataFrame(
            {
                "doc_id": [1, 2, 3],
                "text": ["the the the the", "the the the the zyzzyva", ""],
                "source": ["a", "a", "a"],
            }
        )
        pq.write_table(pa.Table.from_pandas(docs, preserve_index=False), str(d / "documents.parquet"))
        out = doc_unigram_surprisal(str(d)).to_pandas().set_index("doc_id")
        assert list(out.index) == [1, 2]  # empty doc absent
        assert out.loc[1, "surprisal_sum"] == 0 and out.loc[1, "n_tokens"] == 4
        assert out.loc[2, "surprisal_sum"] == 3 and out.loc[2, "n_tokens"] == 5
        assert out.loc[2, "mean_milli"] == 3000 // 5


def test_broadcast_cached_object(ray_session):
    """cached_object returns the ray.get value, serves repeats from
    the worker-global cache, and evicts FIFO past the cap."""
    import ray as _ray

    from mlscraper_ray.functions import broadcast as B

    B._CACHE.clear()
    refs = [_ray.put({"k": i}) for i in range(B._CACHE_MAX + 2)]
    first = B.cached_object(refs[0])
    assert first == {"k": 0}
    assert B.cached_object(refs[0]) is first  # cache hit: same object (LRU-refreshed)
    for r in refs[1:]:
        B.cached_object(r)
    assert len(B._CACHE) == B._CACHE_MAX  # LRU-capped
    assert refs[0].hex() not in B._CACHE  # oldest evicted
    assert B.cached_object(refs[-1]) == {"k": len(refs) - 1}


def test_bigram_paths_and_crafted(ray_session, tmp_path, set_pull_cap):
    """bigram twin: c1('b')=5, pairs (a,b)=2 (b,a)=1 (b,c)=1
    (b,b)=2 over the crafted corpus -> doc1 sum 0+0+2+2=4,
    doc4 (b b b) sum 1+1=2; 1-token and empty docs absent."""
    import os

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mlscraper_ray.functions.textstats import doc_bigram_surprisal

    d = tmp_path / "sfb"
    os.makedirs(d, exist_ok=True)
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": ["a b a b c", "a", "", "b b b"],
            "source": ["x"] * 4,
        }
    )
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False), str(d / "documents.parquet"))
    out = doc_bigram_surprisal(str(d)).to_pandas().set_index("doc_id")
    assert list(out.index) == [1, 4]
    assert out.loc[1, "surprisal_sum"] == 4 and out.loc[1, "n_bigrams"] == 4
    assert out.loc[4, "surprisal_sum"] == 2 and out.loc[4, "n_bigrams"] == 2
    a = doc_bigram_surprisal(str(d))
    pulls = set_pull_cap(0)
    b = doc_bigram_surprisal(str(d))
    assert a.equals(b)
    assert pulls == ["shuffle"]


def test_coalesce_blocks_bounds_block_count(ray_session):
    import pandas as pd
    import ray.data

    from mlscraper_ray.functions.bucketed import coalesce_blocks

    parts = [ray.data.from_pandas(pd.DataFrame({"x": [i]})) for i in range(40)]
    ds = parts[0]
    for p in parts[1:]:
        ds = ds.union(p)
    out = coalesce_blocks(ds, approx_rows=40).materialize()
    assert out.num_blocks() <= 8
    assert sorted(out.to_pandas()["x"]) == list(range(40))


class TestSearchKernelProperties:
    """Hypothesis properties for the session's positional/winnowing
    kernels — random small corpora vs independent brute-force
    recomputes (the shift-compare and window-min numpy paths have
    boundary structure golden cases alone can miss)."""

    @staticmethod
    def _brute_phrase_hits(tokens, phrase):
        L = len(phrase)
        return sum(
            1
            for i in range(len(tokens) - L + 1)
            if tuple(tokens[i : i + L]) == tuple(phrase)
        )

    def test_phrase_counts_match_bruteforce(self, ray_session, tmp_path_factory):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from mlscraper_ray.functions.search import phrase_topk

        words = ["a", "b", "c"]
        case = st.lists(
            st.lists(st.sampled_from(words), min_size=0, max_size=12),
            min_size=1,
            max_size=8,
        )

        @settings(max_examples=15, deadline=None)
        @given(docs=case, phrase_len=st.integers(2, 3))
        def check(docs, phrase_len):
            phrase = tuple(words[:phrase_len])
            tmp = tmp_path_factory.mktemp("phr")
            t = pa.table(
                {
                    "doc_id": pa.array(range(len(docs)), pa.int64()),
                    "text": pa.array([" ".join(d) for d in docs], pa.string()),
                }
            )
            pq.write_table(t, str(tmp / "documents.parquet"))
            out = phrase_topk(str(tmp), phrase=phrase, k=100).to_pandas()
            got = dict(zip(out["doc_id"], out["n_hits"]))
            want = {
                i: self._brute_phrase_hits(d, phrase)
                for i, d in enumerate(docs)
                if self._brute_phrase_hits(d, phrase) > 0
            }
            assert got == want

        check()

    def test_winnow_guarantee_on_random_docs(self):
        """Pure-kernel property (no Ray): any two docs sharing a run
        of >= w+k-1 tokens share a selected fingerprint."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from mlscraper_ray.functions.dedup import _winnow_selected_fps

        vocab = [f"w{i}" for i in range(30)]
        tok = st.lists(st.sampled_from(vocab), min_size=0, max_size=10)

        @settings(max_examples=25, deadline=None)
        @given(pre_a=tok, post_a=tok, pre_b=tok, post_b=tok,
               run=st.lists(st.sampled_from(vocab), min_size=6, max_size=9))
        def check(pre_a, post_a, pre_b, post_b, run):
            a = " ".join(pre_a + run + post_a)
            b = " ".join(pre_b + run + post_b)
            ha, sa = _winnow_selected_fps(a, 3, 4, 1_000_003)
            hb, sb = _winnow_selected_fps(b, 3, 4, 1_000_003)
            assert set(ha[sa]) & set(hb[sb])

        check()


class TestRedirectResolve:
    """Pointer-doubling redirect resolution vs a single-process walk
    of the same synthetic Location map (chains, convergent trees and
    genuine cycles all occur for n >= 14)."""

    @staticmethod
    def _walk(i, n, max_hops):
        from mlscraper_ray.functions.urls import _redirect_edge

        cur, hops = i, 0
        while hops <= max_hops:
            nxt = _redirect_edge(cur, n)
            if nxt is None:
                return cur, hops, True
            cur, hops = nxt, hops + 1
        return -1, -1, False

    def _check(self, tmp_path, n, max_hops):
        from mlscraper_ray.functions.urls import url_redirect_resolve

        t = pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(["x"] * n, pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = url_redirect_resolve(str(tmp_path), max_hops=max_hops).to_pandas()
        want = pd.DataFrame(
            [
                (i, *self._walk(i, n, max_hops))
                for i in range(n)
            ],
            columns=["doc_id", "final_id", "n_hops", "resolved"],
        )
        want[["doc_id", "final_id", "n_hops"]] = want[
            ["doc_id", "final_id", "n_hops"]
        ].astype("int64")
        pd.testing.assert_frame_equal(out, want)
        return out

    def test_matches_reference_walk(self, ray_session, tmp_path):
        out = self._check(tmp_path, n=30, max_hops=16)
        # non-vacuous: the map contains both shapes
        assert out["resolved"].any() and (~out["resolved"]).any()
        # cycle 10 -> 13 -> 12 -> 11 -> 10 stays unresolved
        assert not out.set_index("doc_id").loc[10, "resolved"]
        # terminal pages resolve to themselves in 0 hops
        term = out.set_index("doc_id").loc[7]
        assert term["final_id"] == 7 and term["n_hops"] == 0

    def test_max_hops_bound(self, ray_session, tmp_path):
        # with max_hops=1 only terminals and 1-hop chains resolve;
        # the reference walk enforces the same cut, so equality IS
        # the bound test
        out = self._check(tmp_path, n=30, max_hops=1)
        assert (out.loc[out["resolved"], "n_hops"] <= 1).all()
        assert (~out["resolved"]).any()


class TestSnapshotDiff:
    def test_status_labels_on_crafted_corpus(self, ray_session, tmp_path):
        """Pin each label class on a table small enough to hand-walk:
        ids 0..9, snapshot_mod=4 (ids 0,4,8 added), ghost_mod=8
        (ghosts base+0, base+8 removed), change_mod=5 (prior text of
        ids 5 differs; id 0 is %5 too but isn't in the prior)."""
        import pyarrow.parquet as pq

        from mlscraper_ray.functions.dedup import corpus_snapshot_diff

        t = pa.table(
            {
                "doc_id": pa.array(range(10), pa.int64()),
                "text": pa.array([f"doc text {i}" for i in range(10)], pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = corpus_snapshot_diff(str(tmp_path)).to_pandas()
        got = dict(zip(out["doc_id"], out["status"]))
        assert got == {
            0: "added", 4: "added", 8: "added",
            5: "changed",
            1: "unchanged", 2: "unchanged", 3: "unchanged",
            6: "unchanged", 7: "unchanged", 9: "unchanged",
            10: "removed", 18: "removed",
        }


class TestQuerySimilarIndexed:
    def test_unknown_query_and_index_resume(self, ray_session, tmp_path):
        """Missing query id -> typed empty (the to_pandas column-drop
        hazard); the index build is resumable marker-last and a rebuilt
        shard serves identical results."""
        import os

        from mlscraper_ray.functions.dedup import (
            lsh_index_to_parquet,
            query_similar_indexed,
        )

        miss = query_similar_indexed(SF_DIR, query_doc_id=10**9)
        assert miss.num_rows == 0
        assert miss.column_names == ["doc_id", "jaccard_pct", "n_inter"]

        out_dir = str(tmp_path / "lsh")
        r1 = lsh_index_to_parquet(SF_DIR, out_dir, n_shards=8)
        assert r1 == {"written": 8, "skipped": 0}
        r2 = lsh_index_to_parquet(SF_DIR, out_dir, n_shards=8)
        assert r2 == {"written": 0, "skipped": 8}
        os.remove(os.path.join(out_dir, "shard=0002", "_SUCCESS"))
        r3 = lsh_index_to_parquet(SF_DIR, out_dir, n_shards=8)
        assert r3 == {"written": 1, "skipped": 7}

    def test_matches_full_scan_at_threshold(self, ray_session):
        """The indexed serving path equals the full-scan
        query-by-document ranking restricted to the threshold — the
        recall contract, checked against the scan twin directly."""
        from mlscraper_ray.functions.dedup import (
            query_similar_docs,
            query_similar_indexed,
        )

        idx = query_similar_indexed(SF_DIR, query_doc_id=8).to_pandas()
        scan = query_similar_docs(SF_DIR, query_doc_id=8, k=500).to_pandas()
        scan = scan[scan["jaccard_pct"] >= 80].reset_index(drop=True)
        pd.testing.assert_frame_equal(idx, scan.head(20))
        assert len(idx) > 0  # doc 8 has planted near-dups


class TestLengthOutliers:
    def _write(self, tmp_path, rows):
        t = pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "source": pa.array([r[1] for r in rows], pa.string()),
                "text": pa.array([r[2] for r in rows], pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))

    def test_mad_rule_flags_only_the_planted_outlier(self, ray_session, tmp_path):
        from mlscraper_ray.functions.textstats import doc_length_outliers

        # source a: lengths 9,10,10,11,12 and one planted 60-token doc
        rows = [
            (0, "a", " ".join(["w"] * 9)),
            (1, "a", " ".join(["w"] * 10)),
            (2, "a", " ".join(["w"] * 10)),
            (3, "a", " ".join(["w"] * 11)),
            (4, "a", " ".join(["w"] * 12)),
            (5, "a", " ".join(["w"] * 60)),
        ]
        self._write(tmp_path, rows)
        out = doc_length_outliers(str(tmp_path)).to_pandas()
        # low median of (9,10,10,11,12,60) = value at rank 2 = 10;
        # deviations (1,0,0,1,2,50) -> low median at rank 2 = 1
        assert out["med"].tolist() == [10] * 6
        assert out["mad"].tolist() == [1] * 6
        assert out["is_outlier"].tolist() == [0, 0, 0, 0, 0, 1]

    def test_sources_gate_independently_and_mad_floor(self, ray_session, tmp_path):
        from mlscraper_ray.functions.textstats import doc_length_outliers

        # source z has zero spread -> MAD floors at 1; its 5-token doc
        # deviates by 2 > 3*0 but NOT > 3*1 under the floor... 2 <= 3
        # so not flagged; the 20-token doc is. Source a unaffected.
        rows = [
            (0, "a", " ".join(["w"] * 10)),
            (1, "a", " ".join(["w"] * 10)),
            (2, "z", " ".join(["w"] * 3)),
            (3, "z", " ".join(["w"] * 3)),
            (4, "z", " ".join(["w"] * 3)),
            (5, "z", " ".join(["w"] * 5)),
            (6, "z", " ".join(["w"] * 20)),
        ]
        self._write(tmp_path, rows)
        out = doc_length_outliers(str(tmp_path)).to_pandas()
        z = out[out["source"] == "z"].sort_values("doc_id")
        assert z["med"].tolist() == [3] * 5
        assert z["mad"].tolist() == [1] * 5  # floored from 0
        assert z["is_outlier"].tolist() == [0, 0, 0, 0, 1]
        assert out[out["source"] == "a"]["is_outlier"].tolist() == [0, 0]

    def test_empty_corpus_typed_schema(self, ray_session, tmp_path):
        from mlscraper_ray.functions.textstats import doc_length_outliers

        self._write(tmp_path, [])
        out = doc_length_outliers(str(tmp_path))
        assert out.num_rows == 0
        assert out.column_names == [
            "doc_id", "source", "n_tokens", "med", "mad", "is_outlier"
        ]


class TestStripBoilerplate:
    def _write(self, tmp_path, rows):
        t = pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "source": pa.array([r[1] for r in rows], pa.string()),
                "text": pa.array([r[2] for r in rows], pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))

    def test_planted_chrome_stripped_from_even_docs_only(self, ray_session, tmp_path):
        from mlscraper_ray.functions.scrub import strip_boilerplate

        # 4 docs, one source: even ids get the planted phrase appended
        # by the massage; organic text is unique per doc so the ONLY
        # chrome gram is the plant (2/4 docs = 50% >= 30%)
        rows = [(i, "a", f"organic u{i} v{i} w{i} x{i} y{i} z{i} q{i}") for i in range(4)]
        self._write(tmp_path, rows)
        out = strip_boilerplate(tmp_path.as_posix()).to_pandas()
        assert (out.loc[out.doc_id % 2 == 0, "n_before"]
                - out.loc[out.doc_id % 2 == 0, "n_after"]).tolist() == [6, 6]
        assert (out.loc[out.doc_id % 2 == 1, "n_before"]
                == out.loc[out.doc_id % 2 == 1, "n_after"]).all()

    def test_organic_repeated_gram_is_chrome_and_coverage_merges(self, ray_session, tmp_path):
        from mlscraper_ray.functions.scrub import strip_boilerplate
        import hashlib

        # three of four odd docs share the same 7-token run -> its two
        # overlapping 6-grams pass the threshold (75%) while every
        # singleton gram stays under it (25% < 30%); coverage must
        # merge to strike exactly those 7 tokens once
        chrome = "c1 c2 c3 c4 c5 c6 c7"
        rows = [
            (1, "a", f"u1 {chrome} tail1"),
            (3, "a", f"u3 {chrome} tail3"),
            (5, "a", f"u5 {chrome} tail5"),
            (7, "a", "o1 o2 o3 o4 o5 o6 o7 o8"),
        ]
        self._write(tmp_path, rows)
        out = strip_boilerplate(tmp_path.as_posix()).to_pandas().set_index("doc_id")
        assert out.loc[1, "n_before"] == 9 and out.loc[1, "n_after"] == 2
        assert out.loc[1, "clean_md5"] == hashlib.md5(b"u1 tail1").hexdigest()

    def test_sources_threshold_independently(self, ray_session, tmp_path):
        from mlscraper_ray.functions.scrub import strip_boilerplate

        # the same repeated gram sits in 4/4 docs of source a (chrome)
        # but only 1/5 docs of source b (20% — not chrome there);
        # singleton grams stay under threshold on both sides
        chrome = "k1 k2 k3 k4 k5 k6"
        rows = [(i, "a", f"a{i} {chrome}") for i in (1, 3, 15, 17)] + [
            (5, "b", f"b5 {chrome}")
        ] + [
            (i, "b", f"b{i} d{i} e{i} f{i} g{i} h{i} j{i}") for i in (7, 9, 11, 13)
        ]
        self._write(tmp_path, rows)
        out = strip_boilerplate(tmp_path.as_posix()).to_pandas().set_index("doc_id")
        assert out.loc[1, "n_after"] == 1 and out.loc[3, "n_after"] == 1
        assert out.loc[5, "n_after"] == out.loc[5, "n_before"]

    def test_join_back_path_equals_broadcast(self, ray_session, set_pull_cap):
        from mlscraper_ray.functions.scrub import strip_boilerplate

        a = strip_boilerplate(SF_DIR).to_pandas()
        pulls = set_pull_cap(0)
        b = strip_boilerplate(SF_DIR).to_pandas()
        assert a.equals(b)
        assert pulls == ["shuffle"]


class TestHostTriangles:
    def _edges(self, pairs):
        import ray.data

        return ray.data.from_items(
            [
                {"src": f"http://{a}/p", "dst": f"http://{b}/q"}
                for a, b in pairs
            ]
        )

    def test_crafted_triangle_with_pendant(self, ray_session):
        from mlscraper_ray.functions.pagerank import host_triangles_ds

        # a-b-c is a triangle; d hangs off a. Duplicate/reverse edges
        # must fold into the undirected pair set first.
        edges = self._edges(
            [("a", "b"), ("b", "a"), ("b", "c"), ("c", "a"), ("a", "d"), ("a", "b")]
        )
        out = (
            host_triangles_ds(edges)
            .to_pandas()
            .sort_values("host", ignore_index=True)
        )
        assert out["host"].tolist() == ["a", "b", "c", "d"]
        assert out["degree"].tolist() == [3, 2, 2, 1]
        assert out["triangles"].tolist() == [1, 1, 1, 0]

    def test_clustering_coefficient_fixed_point(self, ray_session):
        from mlscraper_ray.functions.pagerank import host_triangles_ds
        import pandas as pd

        edges = self._edges([("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")])
        out = host_triangles_ds(edges).to_pandas().set_index("host")
        d = out["degree"]
        milli = {
            h: (2000 * int(out.loc[h, "triangles"])) // (int(d[h]) * (int(d[h]) - 1))
            if d[h] >= 2
            else 0
            for h in out.index
        }
        assert milli == {"a": 333, "b": 1000, "c": 1000, "d": 0}

    def test_join_back_path_equals_broadcast_and_nonvacuous(self, ray_session, set_pull_cap):
        from mlscraper_ray.functions.pagerank import host_triangles

        a = host_triangles(SF_DIR).to_pandas()
        pulls = set_pull_cap(0)
        b = host_triangles(SF_DIR).to_pandas()
        assert a.equals(b)
        assert pulls[-1] == "shuffle"  # the degree attach
        assert (a["triangles"] > 0).any()  # the corpus graph has triangles


class TestSessionPaths:
    def test_crafted_sessions_ties_and_depth(self, ray_session, tmp_path):
        from mlscraper_ray.functions.streams import session_paths

        # user 1: one session of 4 events (path cut at depth 3, with a
        # same-timestamp tie broken by event_id), then a 40-min gap
        # opens a second session of 1 event. user 2: one 2-event session.
        base = pd.Timestamp("2026-01-01 10:00:00")
        rows = [
            (10, base, 1, "a"),
            (11, base, 1, "b"),            # same ts as event 10 -> id order
            (12, base + pd.Timedelta(minutes=5), 1, "c"),
            (13, base + pd.Timedelta(minutes=6), 1, "d"),  # beyond depth
            (14, base + pd.Timedelta(minutes=50), 1, "e"),  # new session
            (20, base, 2, "b"),
            (21, base + pd.Timedelta(minutes=1), 2, "a"),
        ]
        t = pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
                "user_id": pa.array([r[2] for r in rows], pa.int64()),
                "event_type": pa.array([r[3] for r in rows], pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = session_paths(tmp_path.as_posix()).to_pandas()
        got = dict(zip(out["path"], out["n_sessions"]))
        assert got == {"a>b>c": 1, "e": 1, "b>a": 1}


SESSION_OPERATORS = [
    "sessionize",
    "events_session_paths",
    "events_session_type_pairs",
    "events_markov_transitions",
    "events_type_lift",
    "events_peak_concurrency",
    "session_duration_percentiles",
]


def _gap_edge_events() -> pa.Table:
    """Events at the edges of the 30-minute session gap: user 1's
    second event is exactly 30 min after its first (same session), its
    third 30 min + 1 us after that (new session); user 2 holds
    equal-ts ties whose event_ids run against their file order and a
    repeated ts with the same type; user 3 has one event; user 4 has a
    session that spans an hour mark and overlaps user 1's."""
    t0 = pd.Timestamp("2026-01-01 09:00:00")
    m, us = pd.Timedelta(minutes=1), pd.Timedelta(microseconds=1)
    rows = [
        (10, t0, 1, "view"),
        (11, t0 + 30 * m, 1, "click"),
        (12, t0 + 60 * m + us, 1, "purchase"),
        (13, t0 + 61 * m, 1, "view"),
        (27, t0 + 5 * m, 2, "view"),
        (23, t0 + 5 * m, 2, "click"),
        (25, t0 + 5 * m, 2, "purchase"),
        (26, t0 + 7 * m, 2, "click"),
        (21, t0 + 7 * m, 2, "click"),
        (28, t0 + 90 * m, 2, "view"),
        (30, t0 + 20 * m, 3, "signup"),
        (40, t0 + 50 * m, 4, "view"),
        (41, t0 + 75 * m, 4, "signup"),
        (42, t0 + 100 * m + 500 * us, 4, "view"),
    ]
    return pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "event_type": pa.array([r[3] for r in rows], pa.string()),
        }
    )


@pytest.mark.parametrize("events", ["gap_edges", "empty"])
@pytest.mark.parametrize("name", SESSION_OPERATORS)
def test_session_operators_match_sql_at_the_gap_edges(entry_mod, tmp_path, name, events):
    """Each session operator equals its SQL on the gap-edge events and
    on an events table without rows (typed empty tables; one row of
    zero and nulls for the two single-row summaries)."""
    from oracle_compare import compare

    for f in os.listdir(SF_DIR):
        if f != "events.parquet":
            os.symlink(os.path.join(SF_DIR, f), tmp_path / f)
    t = _gap_edge_events()
    pq.write_table(t if events == "gap_edges" else t.slice(0, 0), tmp_path / "events.parquet")
    result = entry_mod.queries()[name](str(tmp_path))
    c = compare(result, entry_mod.oracle_sql()[name], str(tmp_path))
    assert c["hash_match"], c



INT_KMEANS_ENTRIES = [
    "embed_kmeans_int",
    "ann_ivf_trained_topk",
    "embed_semdedup",
    "embed_pq_codes",
    "ann_ivf_pq_topk",
    "ann_ivf_pq_residual_topk",
    "doc_topic_clusters",
    "corpus_cluster_sample",
]


@pytest.mark.parametrize("rows", [0, 3])
@pytest.mark.parametrize("name", INT_KMEANS_ENTRIES)
def test_int_kmeans_entries_match_sql_on_tiny_tables(entry_mod, tmp_path, name, rows):
    """Each integer k-means entry equals its SQL when the embeddings
    and documents tables hold no row (typed empty tables) and when they
    hold 3 rows, fewer than the 8 clusters asked for."""
    from oracle_compare import compare

    tiny = ("embeddings.parquet", "documents.parquet")
    for f in os.listdir(SF_DIR):
        if f not in tiny:
            os.symlink(os.path.join(SF_DIR, f), tmp_path / f)
    for f in tiny:
        pq.write_table(pq.read_table(os.path.join(SF_DIR, f)).slice(0, rows), tmp_path / f)
    result = entry_mod.queries()[name](str(tmp_path))
    c = compare(result, entry_mod.oracle_sql()[name], str(tmp_path))
    assert c["hash_match"], c


@pytest.mark.parametrize("name", ["ivf_pq_topk", "ivf_pq_residual_topk"])
def test_ivf_pq_codebooks_and_coarse_cells_count_apart(ray_session, name):
    """The PQ codebooks start from the ``n_pq`` md5-first vectors and
    the coarse quantizer from the ``n_coarse`` ones, on both sides,
    when the two counts differ."""
    from oracle_compare import compare

    from mlscraper_ray.functions import similarity

    fn, sql = getattr(similarity, name), getattr(similarity, f"{name}_sql")
    c = compare(fn(SF_DIR, n_coarse=6, n_pq=4), sql(n_coarse=6, n_pq=4), SF_DIR)
    assert c["hash_match"], c


@pytest.mark.parametrize("name", ["ivf_trained_topk", "ivf_pq_topk", "ivf_pq_residual_topk"])
def test_ivf_entries_match_sql_on_a_missing_query(ray_session, name):
    """A query id with no vector probes no cell: a typed empty table,
    as the SQL's empty ``qsel``."""
    from oracle_compare import compare

    from mlscraper_ray.functions import similarity

    fn, sql = getattr(similarity, name), getattr(similarity, f"{name}_sql")
    result = fn(SF_DIR, query_vec_id=10**9)
    assert result.num_rows == 0 and result.schema.names
    c = compare(result, sql(query_vec_id=10**9), SF_DIR)
    assert c["hash_match"], c

TYPE_OPERATORS = {
    "events_session_paths": "session_paths",
    "events_session_type_pairs": "session_type_pairs",
    "events_markov_transitions": "events_markov_transitions",
    "events_type_lift": "events_type_lift",
}


def _typed_events(tmp_path, types: list) -> str:
    """An sf dir whose ``events`` are four events of the given types
    (two sessions of user 1, one of user 2) beside the other sf0.001
    tables."""
    for f in os.listdir(SF_DIR):
        if f != "events.parquet":
            os.symlink(os.path.join(SF_DIR, f), tmp_path / f)
    t0, m = pd.Timestamp("2026-01-01 09:00:00"), pd.Timedelta(minutes=1)
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3, 4], pa.int64()),
                "ts": pa.array([t0, t0 + m, t0 + 2 * m, t0], pa.timestamp("us")),
                "user_id": pa.array([1, 1, 1, 2], pa.int64()),
                "event_type": pa.array(types, pa.string()),
            }
        ),
        tmp_path / "events.parquet",
    )
    return str(tmp_path)


@pytest.mark.parametrize("name", TYPE_OPERATORS)
def test_type_operators_match_sql_on_an_empty_type(entry_mod, tmp_path, name):
    """``""`` is an event type like any other: it is no marker of the
    session total or the per-type counts."""
    from oracle_compare import compare

    sf = _typed_events(tmp_path, ["view", "", "click", ""])
    result = entry_mod.queries()[name](sf)
    assert result.num_rows > 0
    c = compare(result, entry_mod.oracle_sql()[name], sf)
    assert c["hash_match"], c


@pytest.mark.parametrize("name", TYPE_OPERATORS)
def test_type_operators_name_a_null_type(entry_mod, tmp_path, name):
    """A null event type fails the operator with an error that names it
    and the non-null invariant."""
    sf = _typed_events(tmp_path, ["view", None, "click", "view"])
    with pytest.raises(Exception, match=rf"{TYPE_OPERATORS[name]}: events.event_type holds a null"):
        entry_mod.queries()[name](sf)


class TestHostKcore:
    def _edges(self, pairs):
        import ray.data

        return ray.data.from_items(
            [{"src": f"http://{a}/p", "dst": f"http://{b}/q"} for a, b in pairs]
        )

    def test_clique_with_tail(self, ray_session):
        from mlscraper_ray.functions.pagerank import host_kcore_ds

        # K4 clique (coreness 3) with a 2-hop tail (coreness 1)
        clique = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
        tail = [("d", "e"), ("e", "f")]
        out = host_kcore_ds(self._edges(clique + tail)).to_pandas().set_index("host")
        assert out["coreness"].to_dict() == {
            "a": 3, "b": 3, "c": 3, "d": 3, "e": 1, "f": 1
        }

    def test_distributed_peel_equals_driver_peel(self, ray_session, set_pull_cap):
        from mlscraper_ray.functions.pagerank import host_kcore_ds

        clique = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
        tail = [("d", "e"), ("e", "f"), ("f", "g"), ("g", "e")]
        fast = host_kcore_ds(self._edges(clique + tail)).to_pandas()
        pulls = set_pull_cap(0)
        slow = host_kcore_ds(self._edges(clique + tail)).to_pandas()
        assert pulls == ["shuffle"]
        assert fast.sort_values("host", ignore_index=True).equals(
            slow.sort_values("host", ignore_index=True)
        )


class TestRepetitionStats:
    def test_planted_repetition_values(self, ray_session, tmp_path):
        """Hand-computed Gopher repetition signals: a phrase-looped
        doc pins top2 at the full char mass, an all-distinct doc pins
        the count-1 lex tiebreak, a period-5 loop pins dup5 = 1000,
        and an empty doc is absent."""
        from mlscraper_ray.functions.textstats import doc_repetition_stats

        t = pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        "a b a b a b",        # top 2-gram "a b" x3 of 6 chars
                        "x y z w v",           # all count-1: lex-min gram "w v"
                        "p q r s t " * 3,      # period-5: every 5-gram duplicated
                        "",                     # no tokens -> absent
                    ],
                    pa.string(),
                ),
                "source": pa.array(["s"] * 4, pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = (
            doc_repetition_stats(str(tmp_path)).to_pandas().set_index("doc_id")
        )
        assert list(out.index) == [0, 1, 2]
        # doc 0: chars=6, "a b" count 3, gchars 2 -> 1000*3*2//6 = 1000
        assert out.loc[0, "top2_milli"] == 1000
        # doc 1: 4 count-1 grams, lex-min "w v": 1000*1*2//5 = 400
        assert out.loc[1, "top2_milli"] == 400
        assert out.loc[1, "dup5_milli"] == 0
        # doc 2: 11 5-gram occurrences, all from duplicated grams
        assert out.loc[2, "dup5_milli"] == 1000
        # n < k zero-fill: doc 1 has n=5 >= 4, doc 0 n=6; craft check
        # via doc 1's top4: all count-1, lex-min "w v x y"? grams are
        # consecutive — just assert the column exists and is bounded
        assert 0 <= out.loc[1, "top4_milli"] <= 1000


class TestOovRate:
    def test_planted_vocab_boundary_tie(self, ray_session, tmp_path):
        """V=2 vocabulary over counts a:3, b:2, c:2 — the boundary tie
        between b and c breaks lexicographically (b in, c out), so
        'a b c' carries exactly one OOV token."""
        from mlscraper_ray.functions.textstats import doc_oov_rate

        t = pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(["a a a b", "b c c", "a b c"], pa.string()),
                "source": pa.array(["s"] * 3, pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = doc_oov_rate(str(tmp_path), vocab_size=2).to_pandas().set_index("doc_id")
        assert out.loc[0, "n_oov"] == 0
        assert out.loc[1, "n_oov"] == 2          # c c
        assert out.loc[2, "n_oov"] == 1          # c
        assert out.loc[2, "oov_milli"] == 333    # (1000*1)//3


class TestBigramDice:
    def test_planted_collocation(self, ray_session, tmp_path, set_pull_cap):
        """'new york' in every doc is a perfect collocation (dice =
        1000); singleton bigrams fall to the min_count gate; the two
        join paths (broadcast vs partitioned hash join) agree."""
        from mlscraper_ray.functions.textstats import bigram_dice_top

        t = pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(
                    ["new york a", "new york b", "new york c"], pa.string()
                ),
                "source": pa.array(["s"] * 3, pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        out = bigram_dice_top(str(tmp_path), min_count=3).to_pandas()
        assert len(out) == 1
        row = out.iloc[0]
        assert (row["w1"], row["w2"]) == ("new", "york")
        assert row["c_xy"] == 3 and row["c_x"] == 3 and row["c_y"] == 3
        assert row["dice_milli"] == 1000
        pulls = set_pull_cap(0)
        b = bigram_dice_top(str(tmp_path), min_count=3).to_pandas()
        pd.testing.assert_frame_equal(out, b)
        assert pulls == ["shuffle"]


class TestHostCommunities:
    def _edges(self, pairs):
        import ray.data

        return ray.data.from_items(
            [{"src": f"http://{a}/p", "dst": f"http://{b}/q"} for a, b in pairs]
        )

    def test_two_cliques_with_bridge(self, ray_session):
        from mlscraper_ray.functions.pagerank import host_communities_ds

        # two triangles joined by one bridge edge: LPA should settle
        # each triangle on its own min-name label
        left = [("a", "b"), ("a", "c"), ("b", "c")]
        right = [("x", "y"), ("x", "z"), ("y", "z")]
        bridge = [("c", "x")]
        out = (
            host_communities_ds(self._edges(left + right + bridge))
            .to_pandas()
            .set_index("host")["community"]
            .to_dict()
        )
        assert out["a"] == out["b"] == out["c"]
        assert out["x"] == out["y"] == out["z"]

    def test_distributed_rounds_equal_driver_rounds(self, ray_session, set_pull_cap):
        from mlscraper_ray.functions.pagerank import host_communities_ds

        left = [("a", "b"), ("a", "c"), ("b", "c")]
        right = [("x", "y"), ("x", "z"), ("y", "z")]
        bridge = [("c", "x"), ("d", "a"), ("d", "b")]
        fast = host_communities_ds(self._edges(left + right + bridge)).to_pandas()
        pulls = set_pull_cap(0)
        slow = host_communities_ds(self._edges(left + right + bridge)).to_pandas()
        assert pulls == ["shuffle"]
        assert fast.sort_values("host", ignore_index=True).equals(
            slow.sort_values("host", ignore_index=True)
        )


class TestRateAnomaly:
    def test_planted_spike_and_dense_gap(self, ray_session, tmp_path):
        from mlscraper_ray.functions.streams import events_rate_anomaly

        base = pd.Timestamp("2026-01-01 00:00:00")
        rows = []
        eid = 0
        # type "a": 3 quiet hours (2 events each), an EMPTY hour 3,
        # then a 12-event burst in hour 4 -> spike (full lookback,
        # >= min_count, 2*12 >= 3*max(2,2,0))
        for h in (0, 1, 2):
            for _ in range(2):
                rows.append((eid, base + pd.Timedelta(hours=h), 1, "a")); eid += 1
        for _ in range(12):
            rows.append((eid, base + pd.Timedelta(hours=4), 1, "a")); eid += 1
        # type "b": steady 12/hour -> never a spike (12*2 < 12*3)
        for h in range(5):
            for _ in range(12):
                rows.append((eid, base + pd.Timedelta(hours=h), 2, "b")); eid += 1
        t = pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
                "user_id": pa.array([r[2] for r in rows], pa.int64()),
                "event_type": pa.array([r[3] for r in rows], pa.string()),
                "value": pa.array([1.0] * len(rows), pa.float64()),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = events_rate_anomaly(tmp_path.as_posix()).to_pandas()
        a = out[out["event_type"] == "a"].reset_index(drop=True)
        # dense series includes the EMPTY hour 3
        assert list(a["n_events"]) == [2, 2, 2, 0, 12]
        assert list(a["is_spike"]) == [0, 0, 0, 0, 1]
        assert a.loc[4, "prev_max3"] == 2
        b = out[out["event_type"] == "b"]
        assert b["is_spike"].sum() == 0


class TestBpeProperty:
    """Property: the pure Python merge loop (spaced-string replace)
    and the chained-CTE SQL trainer agree on ARBITRARY word
    histograms — including overlap-heavy words ('aaaa'), tie counts
    and single-char words. Runs without Ray (the loop is factored
    out of the distributed histogram pass)."""

    @staticmethod
    def _sql_merges(hist, n_merges):
        import duckdb

        from mlscraper_ray.functions.tokenizer import _merge_ctes, tokenizer_bpe_train_sql

        con = duckdb.connect()
        rows = []
        for w, c in hist:
            rows.extend([w] * c)
        con.execute("CREATE TABLE documents (doc_id BIGINT, text VARCHAR)")
        if rows:
            con.executemany(
                "INSERT INTO documents VALUES (?, ?)",
                [(i, w) for i, w in enumerate(rows)],
            )
        sql = tokenizer_bpe_train_sql(n_merges=n_merges, top_v=10_000)
        return [tuple(r) for r in con.execute(sql).fetchall()]

    def test_random_histograms_match_sql(self):
        import random

        from mlscraper_ray.functions.tokenizer import merges_from_histogram

        rng = random.Random(20260818)
        alphabet = "ab c"  # tiny alphabet -> maximal tie/overlap stress
        for trial in range(12):
            n_words = rng.randint(1, 8)
            hist = {}
            for _ in range(n_words):
                w = "".join(
                    rng.choice("abc") for _ in range(rng.randint(1, 6))
                )
                hist[w] = hist.get(w, 0) + rng.randint(1, 5)
            hist = sorted(hist.items())
            n_merges = rng.randint(1, 4)
            py = [
                (i, l, r, c)
                for i, (l, r, c) in enumerate(
                    merges_from_histogram(hist, n_merges)
                )
            ]
            sql = self._sql_merges(hist, n_merges)
            assert py == sql, (trial, hist, n_merges, py, sql)


class TestEventsDauWau:
    def test_window_dedup_and_day_domain(self, ray_session, tmp_path):
        """A user active twice inside one trailing window counts ONCE
        in that window's WAU; gap days emit no row (observed-day
        domain); an isolated late day sees none of the early users."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        from mlscraper_ray.functions.streams import events_dau_wau

        base = pd.Timestamp("2024-03-01 12:00:00")
        d = pd.Timedelta(days=1)
        rows = [
            (1, base),          # user 1 active day 0
            (1, base + 3 * d),  # ... and day 3 (same trailing window as day 0)
            (2, base),          # user 2 active day 0 only
            (3, base + 10 * d), # user 3 isolated on day 10
        ]
        t = pa.table(
            {
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = events_dau_wau(str(tmp_path)).to_pandas()
        day0 = pd.Timestamp("2024-03-01")
        assert out["day"].tolist() == [day0, day0 + 3 * d, day0 + 10 * d]
        assert out["dau"].tolist() == [2, 1, 1]
        # day 3's window covers day 0: users {1, 2}; user 1 active on
        # BOTH covered days still counts once
        assert out["wau"].tolist() == [2, 2, 1]


class TestEventsPeakConcurrency:
    def test_same_microsecond_start_end_cancellation(self, ray_session, tmp_path):
        """A session END (-1 at end+1us) landing on the SAME microsecond
        as another session's START must still count both sessions: the
        deltas cancel in the sweep but n_sessions rides separately."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        from mlscraper_ray.functions.streams import events_peak_concurrency

        t0 = pd.Timestamp("2024-05-01 09:00:00")
        t1 = t0 + pd.Timedelta(minutes=5)
        rows = [
            (1, t0),
            (1, t1),  # user 1 session [t0, t1] -> -1 at t1+1us
            (2, t1 + pd.Timedelta(microseconds=1)),  # +1 exactly there
        ]
        t = pa.table(
            {
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = events_peak_concurrency(str(tmp_path)).to_pandas()
        assert out["n_sessions"].tolist() == [2]
        assert out["peak"].tolist() == [1]
        assert out["peak_ts"].tolist() == [t0]

    def test_overlap_peak_and_first_instant(self, ray_session, tmp_path):
        """Three users overlap 2-deep twice; peak_ts is the FIRST."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        from mlscraper_ray.functions.streams import events_peak_concurrency

        t0 = pd.Timestamp("2024-05-01 09:00:00")
        m = pd.Timedelta(minutes=1)
        rows = [
            (1, t0), (1, t0 + 10 * m),          # session A [0, 10]
            (2, t0 + 5 * m), (2, t0 + 12 * m),  # B [5, 12] overlaps A
            (3, t0 + 11 * m), (3, t0 + 20 * m), # C [11, 20] overlaps B
        ]
        t = pa.table(
            {
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = events_peak_concurrency(str(tmp_path)).to_pandas()
        assert out["n_sessions"].tolist() == [3]
        assert out["peak"].tolist() == [2]
        assert out["peak_ts"].tolist() == [t0 + 5 * m]


class TestEventsHeavyHitters:
    def test_local_threshold_superset_prunes_exactly(self, ray_session, tmp_path):
        """A user concentrated in one batch but below the GLOBAL bar
        must be pruned by the exact pass; a user spread thinly across
        batches but above the bar must be found (the pigeonhole
        guarantee). k=4 over 16 events: bar is cnt*4 > 16 -> cnt >= 5."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        from mlscraper_ray.functions.streams import events_heavy_hitters

        # user 7: 6 events (hitter); user 8: 4 events (below bar even
        # though locally dense); users 100..105: singletons
        users = [7] * 6 + [8] * 4 + list(range(100, 106))
        t = pa.table({"user_id": pa.array(users, pa.int64())})
        pq.write_table(t, str(tmp_path / "events.parquet"))
        out = events_heavy_hitters(str(tmp_path), k=4).to_pandas()
        assert out.to_dict("records") == [{"user_id": 7, "n_events": 6}]


class TestJoinGuardPathEquality:
    """The size-guarded broadcast fast paths of the Q5/Q10/Q18 joins
    must be bit-identical to their cogroup fallbacks (a pull cap of 0
    forces every guarded side down the shuffle path)."""

    def test_q5_paths_equal(self, ray_session, set_pull_cap):
        from mlscraper_ray.functions.joins import q5_local_supplier_volume

        sf = "/root/testdata/sf0.001"
        fast = q5_local_supplier_volume(sf).to_pandas()
        pulls = set_pull_cap(0)
        slow = q5_local_supplier_volume(sf).to_pandas()
        pd.testing.assert_frame_equal(fast, slow)
        assert pulls == ["shuffle", "shuffle"]  # customer, then supplier

    def test_q10_paths_equal(self, ray_session, set_pull_cap):
        from mlscraper_ray.functions.joins import q10_returned_revenue

        sf = "/root/testdata/sf0.001"
        fast = q10_returned_revenue(sf).to_pandas()
        pulls = set_pull_cap(0)
        slow = q10_returned_revenue(sf).to_pandas()
        pd.testing.assert_frame_equal(fast, slow)
        assert pulls == ["shuffle"]

    def test_q18_paths_equal(self, ray_session, set_pull_cap):
        from mlscraper_ray.functions.joins import q18_large_orders

        sf = "/root/testdata/sf0.001"
        fast = q18_large_orders(sf).to_pandas()
        pulls = set_pull_cap(0)
        slow = q18_large_orders(sf).to_pandas()
        pd.testing.assert_frame_equal(fast, slow)
        assert pulls == ["shuffle"]
