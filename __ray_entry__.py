"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; no
``ray.init``/``ray.shutdown`` here or in the library code these call.

``queries()`` covers SURVEY.md §2 (the reference's learn/apply surface
re-expressed Ray-Data-first + the crawl engine the north_rule adds)
plus the large-scale training-data operators (dedup, similarity
search, text analysis, stream windows).
``oracle_sql()`` provides DuckDB equivalents for every
SQL-expressible query — including the LSH dedup pipelines and IVF ANN
(exhaustive-join oracles that verify recall itself), the
integer-quantized iterative k-means and the k-means-trained IVF
search (chained-CTE oracles), and the crawl/extract/WARC pipelines
(constant-table oracles rendered from INDEPENDENT ground truth: the
corpus generator's synthesis-time records and the single-process
oracle crawler — see pipelines/truth_oracles.py; built for the
driver's fixed sf=0.01 compare scale). The learn_plan(/parallel)
queries are value-pinned by the generator-truth expected plan
(corpusgen.expected_plan derives it from the synthesis-time template,
never from the learner). Only float k-means remains rows-only by
nature (float folds aren't bit-stable cross-engine) — pinned by
pytest golden literals instead.
"""
from __future__ import annotations

from collections.abc import Callable
from functools import partial
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: synthetic-corpus
    crawl (frontier -> politeness -> fetch -> learned-scraper extract)
    returning the deterministic crawl-order table."""
    from mlscraper_ray.pipelines.crawl_pipeline import crawl_order_query

    return crawl_order_query("/root/testdata/sf0.001").to_pandas()


def queries() -> dict[str, Callable[[str], Any]]:
    from mlscraper_ray.functions import (
        aggregates,
        classifier,
        components,
        content,
        curate,
        dedup,
        graphdist,
        hits,
        joins,
        keywords,
        packing,
        pagerank,
        scrub,
        search,
        similarity,
        streams,
        templates,
        textstats,
        tokenizer,
        topics,
        urls,
        validate,
        wet,
    )
    from mlscraper_ray.pipelines import crawl_pipeline

    # each crawl variant (crawl_pipeline.CRAWL_VARIANTS) is one entry
    crawl_order = crawl_pipeline.crawl_order_query
    # ORDER MATTERS: the driver's correctness check compares the FIRST
    # 50 keys only. Tier 1 = operators that have never received a
    # driver-side CORRECTNESS row (r4 verdict task #1); tier 2 = new
    # round-5 queries; tier 3 = last driver-checked in r3; tier 4 =
    # fills the window with the heavy-composite r4-green entries; the
    # long-green relational/text block sits past the window (still
    # pinned by in-repo sf0.001+sf0.01 rehearsal + pytest).
    return {
        # ---- tier 1: never driver-checked (17) -------------------
        # SemDeDup (Abbas et al. 2023): k-means clusters bound the
        # quadratic, cosine compare within clusters, keep lowest id
        "embed_semdedup": similarity.embed_semdedup,
        # product quantization: per-subspace integer codebooks, m
        # codes + exact reconstruction error per vector — the
        # compressed-ANN storage path, training + encoding SQL-oracled
        "embed_pq_codes": similarity.embed_pq_codes,
        # main-content extraction (densest-block boilerplate removal;
        # generator-TEMPLATE truth pins parser text + density choice)
        "extract_main_content": content.extract_main_content,
        # DOM-template clustering: preorder structure fingerprint per
        # page, one cluster per template (the learn-one-scraper-per-
        # cluster amortization unit)
        "page_template_clusters": templates.page_template_clusters,
        # FUSED single-parse page profile: main-content facts + token/
        # lang stats + distinct link count in one per-record map
        "page_profile": content.page_profile,
        # crawl -> WET -> curated manifest composite (extraction +
        # lang tag + token gate fused in one map; one dedup shuffle
        # of slim rows; template-truth oracle replays it end to end)
        "wet_curate": wet.wet_curate,
        # link-graph PageRank over the crawled corpus (integer
        # fixed-point iterations; generator-truth constant-table
        # oracle value-pins extraction + graph assembly + iteration)
        "page_rank": pagerank.page_rank,
        # HITS hubs/authorities: integer fixed-point max-normalized
        # mutual recursion over the same link graph
        "link_hits": hits.link_hits,
        # per-url in-link / anchor-text aggregation (same graph, two
        # bucket-shuffle rounds of slim rows; generator-truth oracle)
        "link_stats": pagerank.link_stats,
        # host-level authority roll-up (domain-reputation signal:
        # page counts, integer rank mass, distinct in/out host degree)
        "host_rank": pagerank.host_rank,
        # link reciprocity per host (mutual-citation / link-farm
        # signal over the distinct cross-host pair table)
        "host_reciprocity": pagerank.host_reciprocity,
        # per-host triangle count + clustering coefficient (degree-
        # ordered wedge orientation, generator-truth oracle)
        "host_triangles": pagerank.host_triangles,
        # per-host k-core coreness (distributed peeling loop)
        "host_kcore": pagerank.host_kcore,
        # URL canonicalization + canonical-form dedup (real stdlib
        # parser; deterministic dirty-URL synthesis, expected-value
        # oracle per spelling)
        "url_canonical_dedup": urls.url_canonical_dedup,
        # tier-budgeted crawl: per-host fetch budgets by authority
        # tier (the north-star host-budget priority leg)
        "crawl_order_tiered": partial(crawl_order, variant="tiered"),
        # tiers composed with the recrawl/TTL policy (freshness crawl)
        "crawl_order_tiered_recrawl": partial(crawl_order, variant="tiered_recrawl"),
        # lineage/metrics leg: per-round metrics off the crawl's own
        # output partitions + final shard-counter totals from the
        # checkpoint manifest, both pinned by the oracle crawler
        "crawl_metrics": crawl_pipeline.crawl_metrics_query,
        # per-host robots report (real parser applied to every page
        # path, pinned against the generator's synthesis-time policy)
        "robots_stats": crawl_pipeline.robots_stats_query,
        "crawl_counter_totals": crawl_pipeline.crawl_counter_totals_query,
        # ---- tier 2: new in round 5 ------------------------------
        # IVFADC (Jegou et al. 2011): kmeans-int coarse probe + PQ
        # asymmetric integer distance rank + exact re-rank of top
        # candidates — the composed compressed-ANN serving path
        "ann_ivf_pq_topk": similarity.ivf_pq_topk,
        # learned-plan queries: generator-truth constant-table oracle
        # (corpusgen renders the expected plan at synthesis time)
        "learn_plan": crawl_pipeline.learn_plan_query,
        "learn_plan_parallel": crawl_pipeline.learn_plan_parallel_query,
        # temperature-based source mixing (alpha = 1/2): integer-exact
        # isqrt weights, seedless md5 keep — rare-source up-weighting
        "source_temperature_mix": textstats.source_temperature_mix,
        # true IVFADC: PQ over coarse-cell RESIDUALS, one ADC lookup
        # table per probed cell, exact re-rank
        "ann_ivf_pq_residual_topk": similarity.ivf_pq_residual_topk,
        # exact duplicated-substring removal at gram resolution (Lee
        # et al. 2021 shape): long cross-doc token runs cut from all
        # docs, arbitrary offsets (the passage scrub next to segments)
        "doc_scrub_dup_runs": scrub.scrub_dup_runs,
        # cross-snapshot NEAR-dup screen: cross-side-only LSH candidate
        # emission (prior x prior work never redone), best prior match
        # per new doc via a packed scalar max
        "dedup_minhash_incremental": dedup.incremental_minhash_dedup,
        # RANK-driven tiered crawl: host tiers from the link graph's
        # own integer PageRank mass (the full prioritization loop);
        # oracle recomputes the tier map by an independent path
        "crawl_order_ranked": partial(crawl_order, variant="ranked"),
        # multiprobe hyperplane LSH (Lv et al. 2007): Hamming-radius
        # bucket match over integer-exact signatures, exact cosine on
        # the ~10% candidate set — the LSH-bucketed ANN scale path
        "ann_lsh_topk": similarity.lsh_topk,
        # pairwise source-collection distinct-3-gram Jaccard (the
        # pre-mixing double-count diagnostic; per-doc join lifted to
        # source keys)
        "source_overlap": textstats.source_overlap,
        # DSIR importance resampling (Xie et al. 2023): hashed-n-gram
        # importance weights vs a target collection, top-decile keep —
        # integer floor-log2 weights so the whole chain SQL-oracles
        "corpus_dsir_select": curate.dsir_select,
        # positional phrase search: consecutive-token match count per
        # doc (the capability bag-of-words BM25 can't express), same
        # zero-shuffle partial-top-k plan
        "text_search_phrase": search.phrase_topk,
        # CCNet-style head/middle/tail corpus terciles by per-token
        # surprisal rank — value-histogram rank, only boundary
        # tie-groups ever pulled
        "doc_perplexity_buckets": textstats.doc_perplexity_buckets,
        # Johnson-Lindenstrauss signed random projection: md5-derived
        # ±1 matrix, exact integer dot products, one streaming matmul
        # pass — the dimensionality-reduction stage before clustering
        "embed_random_projection": similarity.embed_random_projection,
        # data-constrained epoch mixing: under-sized sources repeat up
        # to max_epochs times, each doc carrying its epoch index —
        # broadcast epoch map + streaming worker-side flat repeat
        "source_epoch_mix": textstats.source_epoch_mix,
        # bloom content-seen screen with a FULL SQL mirror (md5 double
        # hashing; deliberately undersized so false positives are
        # value-pinned too) — the queryable twin of the frontier's
        # seen-set primitive
        "dedup_bloom_screen": dedup.bloom_screen,
        # frontier admission screen: scheme / binary-extension /
        # blocked-host / depth / query gates, expected-verdict oracle
        # per synthesized candidate
        "frontier_url_filter": urls.frontier_url_filter,
        # recency-decayed per-user engagement (recrawl freshness
        # signal): integer right-shift half-life decay, associative
        # partials, one coarse-bucket aggregate
        "events_decayed_value": streams.events_decayed_value,
        # radius (threshold) similarity search: broadcast query, one
        # matmul + predicate per batch, match-bounded output
        "ann_cosine_range": similarity.cosine_range,
        # query-by-document exact Jaccard ranking: one bounded gram-set
        # broadcast, local intersections, partial top-k — the pair
        # explosion of the all-pairs screen never happens
        "dedup_query_similar": dedup.query_similar_docs,
        # winnowing fingerprint selection (Schleimer et al. 2003):
        # sliding-window minimal k-gram hashes, ~2/(w+1) density with
        # a shared-run guarantee — counts + value sums SQL-pinned
        "doc_winnow_fingerprints": dedup.doc_winnow_fingerprints,
        # phrase serving from the PERSISTED positional index (probed
        # term shards only, per-doc position-set intersection) — the
        # positional sibling of text_search_bm25_indexed
        "text_search_phrase_indexed": search.phrase_indexed_topk,
        # MOSS similarity join: pairs sharing >= t winnowing
        # fingerprints (the inverted-index pair plan over the ~2/(w+1)
        # selected-fp mass instead of the full gram set)
        "dedup_winnow_pairs": dedup.winnow_neardup_pairs,
        # per-source data card: doc/token/empty counts + max/mean doc
        # length — the release-documentation table next to the corpus
        "source_datacard": textstats.source_datacard,
        # connected components over the winnow similarity graph (the
        # MOSS pair join feeding the shared min-label propagation)
        "dedup_winnow_clusters": components.winnow_clusters,
        # redirect-chain resolution by distributed POINTER DOUBLING:
        # chains/trees resolve in log rounds, loops stay unresolved —
        # the crawl-side Location canonicalization step
        "url_redirect_resolve": urls.url_redirect_resolve,
        # ordered funnel conversion (first-touch anchoring, per-stage
        # window): the whole per-user timestamp chain runs inside one
        # user-bucket shuffle; only per-bucket step counts leave
        "events_funnel": streams.events_funnel,
        # cohort retention triangle: first-day and distinct active
        # days computed in the SAME user bucket (no cohort join-back)
        "events_retention": streams.events_retention,
        # KMV bottom-k quantile sketch: mergeable deterministic sample
        # (k smallest md5 ranks), bounded at k rows/type regardless of
        # value cardinality — the sketch sibling of the exact histogram
        "event_value_quantile_sketch": aggregates.event_value_quantile_sketch,
        # near-dup SERVING from the persisted LSH bucket index:
        # probe the query's band keys, read only those shards, exact
        # gram-verify — the constant-work twin of dedup_query_similar
        "dedup_query_similar_indexed": dedup.query_similar_indexed,
        # snapshot change detection: current-vs-prior content-hash
        # diff labeling added/removed/changed/unchanged per doc (the
        # recrawl scheduler's per-doc input), one slim-row shuffle
        "corpus_snapshot_diff": dedup.corpus_snapshot_diff,
        # leakage-free split: assignment hashes the SOURCE (group)
        # key so near-dups inside a source never straddle train/eval
        "corpus_split_by_source": textstats.corpus_split_by_source,
        # seed-distance BFS over the shared link graph (frontier
        # expansion as iterative Dataset rounds; generator-truth
        # constant table pins parse + graph + iteration)
        "link_distance_from_seeds": graphdist.link_distance_from_seeds,
        # host-graph community detection by deterministic synchronous
        # label propagation (self-inclusive vote, min-label ties,
        # fixed rounds; generator-truth constant-table oracle) — just
        # past the driver window, pinned by the in-repo rehearsal
        "host_communities": pagerank.host_communities,
        # degree assortativity: exact moment fold over the pair graph
        "host_assortativity": pagerank.host_assortativity,
        # ---- tier 3: last driver-checked in r3 -------------------
        "crawl_order": crawl_order,
        "crawl_order_recrawl": partial(crawl_order, variant="recrawl"),
        # depth census over the crawl output (frontier-shape signal;
        # past the driver window, pinned by the in-repo truth oracle)
        "crawl_depth_histogram": crawl_pipeline.crawl_depth_histogram_query,
        "extract_all": crawl_pipeline.extract_all_query,
        "extract_from_warc": crawl_pipeline.extract_from_warc_query,
        "warc_roundtrip": _warc_roundtrip,
        # stream-shaped
        "sessionize": streams.sessionize,
        # last-touch attribution (user-bucketed carry-forward window)
        "events_attribution": streams.events_attribution,
        # exact windowed distinct (two-level slim-triple fold)
        "hourly_distinct_users": streams.hourly_distinct_users,
        # session-level association lift (pairs + singles + total in
        # one user-bucket pass)
        "events_type_lift": streams.events_type_lift,
        # exact global rank via log2 value bands (no global sort)
        "events_user_value_rank": streams.events_user_value_rank,
        # activation latency base table (first signup -> first purchase)
        "events_signup_to_purchase": streams.events_signup_to_purchase,
        # per-user burstiness signature (integer us gap stats)
        "events_interarrival": streams.events_interarrival,
        # DAU/WAU rolling distinct actives (w-fold cover explode, no per-user loop)
        "events_dau_wau": streams.events_dau_wau,
        # peak concurrent sessions: +1/-1 sweep, hour-partial prefix fold
        "events_peak_concurrency": streams.events_peak_concurrency,
        # exact phi-heavy hitters: local-threshold superset + verify
        "events_heavy_hitters": streams.events_heavy_hitters,
        # engagement depth: exact seconds-histogram session percentiles
        "session_duration_percentiles": streams.session_duration_percentiles,
        # bot screen: users bursting >= 2 events in one calendar minute
        "events_burst_users": streams.events_burst_users,
        # engagement Zipf check: log2-band user activity histogram
        "user_activity_histogram": streams.user_activity_histogram,
        # whale dependence: exact top-k user share of total value
        "events_value_topk_share": streams.events_value_topk_share,
        # top-of-session event-type path mining (funnel design input)
        "events_session_paths": streams.session_paths,
        "hourly_event_counts": streams.hourly_event_counts,
        # diurnal hour-of-day load profile (folds across days)
        "events_hour_of_day": streams.events_hour_of_day_profile,
        # per-type log2 value histogram (distribution data card)
        "event_value_histogram": streams.event_value_histogram,
        # per-type hourly rate-spike detection over the dense hour
        # series (integer 1.5x-recent-peak rule, full-lookback gate)
        "events_rate_anomaly": streams.events_rate_anomaly,
        # distinct co-occurring event-type pairs per session
        "events_session_type_pairs": streams.session_type_pairs,
        # JSON-props payload aggregation (semi-structured extraction)
        "events_props_stats": streams.events_props_stats,
        # first-order in-session type transition matrix
        "events_markov_transitions": streams.events_markov_transitions,
        # per-user lifetime roll-up (cohort/LTV base table)
        "events_user_lifetime": streams.events_user_lifetime_stats,
        "sliding_window_counts": streams.sliding_window_counts,
        "top_event_per_user": streams.top_event_per_user,
        "embed_neardup_pairs": similarity.embedding_neardup_pairs,
        "embed_kmeans": similarity.embedding_kmeans,
        # integer-quantized Lloyd's: every reduction is an int sum, so
        # the whole ITERATIVE algorithm is SQL-oracled (chained CTEs)
        "embed_kmeans_int": similarity.embedding_kmeans_int,
        # composed scale path: k-means-TRAINED IVF, the whole
        # train-then-search pipeline integer-exact and SQL-oracled
        "ann_ivf_trained_topk": similarity.ivf_trained_topk,
        # ---- tier 4: r4-green heavy composites (fill to 50) ------
        "dedup_minhash": dedup.minhash_dedup,
        # connected components over the verified pair graph (iterative
        # min-label propagation) and the canonical-doc keep manifest
        "neardup_clusters": components.neardup_clusters,
        "corpus_dedup_canonical": components.corpus_dedup_canonical,
        # asymmetric containment screen: directed subset/quote pairs
        # that Jaccard misses (same shared inverted-index pair plan)
        "dedup_containment": dedup.ngram_containment_pairs,
        # corpus-level body REWRITES: cross-doc duplicated-segment
        # removal (MassiveText-style boilerplate scrub; count-guarded
        # broadcast vs bucketed join-back)
        "dedup_segments": scrub.dedup_segments,
        # flagship composite: curation survivors stream straight into
        # the packing prefix sum (no driver round-trip between stages)
        "corpus_to_training": packing.corpus_to_training,
        # composite curation pipeline: lang filter -> quality gate ->
        # exact dedup -> deterministic sample, one streaming pass
        "corpus_curate": curate.curate_corpus,
        # benchmark decontamination: broadcast held-out gram set, one
        # streaming screen pass, no shuffle
        "corpus_decontaminate": curate.decontaminate,
        # ---- past the 50-entry window: long-green block ----------
        # serving path: persisted term-sharded inverted index (build
        # resumable + cached), query reads ONLY the probed shards
        "text_search_bm25_indexed": search.bm25_indexed_topk,
        # training-sequence packing: exact global token offsets via a
        # distributed prefix sum in md5(doc_id) rank order
        "pack_sequences": packing.pack_sequences,
        # overlapping token-window chunking (the retrieval/long-doc
        # sibling of packing; per-chunk md5 value pins the content)
        "doc_chunk_windows": packing.doc_chunk_windows,
        # per-(host, path-template) URL census with the crawler-trap
        # flag (digit/hex segments collapse to {n}/{h}; distinct-URL
        # explosion per pattern = trap)
        "url_pattern_stats": urls.url_pattern_stats,
        # per-source token-budget selection (distributed prefix sum:
        # rank-bucket partials + driver prefix over the tiny
        # sources x buckets table + boundary-bucket scan)
        "source_token_quota": textstats.source_token_quota,
        "q1_pricing_summary": aggregates.q1_lineitem,
        # custom temporal operator (no Ray Data primitive): as-of
        # attribution join (user-hash co-partitioned)
        "events_asof_join": joins.asof_join_events,
        "revenue_by_nation": aggregates.revenue_by_nation,
        "events_by_type": aggregates.events_by_type,
        "top_users_by_value": aggregates.top_users_by_value,
        "event_value_percentiles": aggregates.event_value_percentiles,
        "order_lineitem_revenue": joins.order_lineitem_revenue,
        # part-catalog revenue roll-up (closes part-table coverage)
        "part_brand_revenue": joins.part_brand_revenue,
        # supplier roll-up with region/nation names (closes supplier)
        "supplier_nation_summary": joins.supplier_nation_summary,
        # pure predicate-pushdown scan: zero-shuffle filtered revenue
        "q6_discount_revenue": aggregates.q6_discount_revenue,
        # segment semi-join + fact-fact cogroup + blockwise top-k
        "q3_shipping_priority": joins.q3_shipping_priority,
        # EXISTS semi-join via bucketed-distinct key set (never broadcast)
        "orders_with_returns": joins.orders_with_returns_by_priority,
        # three-cogroup local-supplier volume (customer nation == supplier nation)
        "q5_local_supplier_volume": joins.q5_local_supplier_volume,
        # groupby-HAVING semi-join, fact-sized qualifier set, blockwise top-k
        "q18_large_orders": joins.q18_large_orders,
        # returned-item reporting: two fact-fact cogroups + top-k fold
        "q10_returned_revenue": joins.q10_returned_revenue,
        # supply-concentration: distinct suppliers/parts per brand-type
        "part_supplier_diversity": joins.part_supplier_diversity,
        # grouped top-k leaderboard (per-nation partial top-k merge)
        "top_customers_by_nation": joins.top_customers_by_nation,
        # RFM segment matrix (per-customer fold -> fixed-band roll-up)
        "customer_rfm_segments": aggregates.customer_rfm_segments,
        # retention headline: repeat-purchase rate per segment
        "orders_repeat_rate": aggregates.orders_repeat_rate,
        # pricing scan: discount-band volume/revenue, zero shuffle
        "lineitem_discount_bands": aggregates.lineitem_discount_bands,
        # monthly revenue series + MoM delta (calendar-bounded fold)
        "orders_monthly_revenue": aggregates.orders_monthly_revenue,
        # ROLLUP hierarchy subtotals (zero extra distributed passes)
        "revenue_rollup": aggregates.revenue_rollup,
        # Deequ-style constraint report (uniqueness, invariants,
        # referential integrity; counters only, never rows)
        "corpus_validate": validate.corpus_validate,
        "customers_without_orders": joins.customers_without_orders,
        # interval range join (time-bucket partitioning + boundary
        # replication)
        "events_range_join": joins.range_join_events,
        # dedup (all SQL-checked; minhash/simhash oracles are
        # exhaustive O(n^2) joins that verify LSH recall itself)
        "dedup_exact": dedup.exact_dedup,
        # recurring-crawl shape: new snapshot deduped against the
        # prior manifest, one shuffle of slim hash rows, no broadcast
        "dedup_incremental": dedup.incremental_dedup,
        "dedup_simhash_pairs": lambda sf: _simhash_pairs(sf),
        "doc_simhash": dedup.simhash_table,
        # simhash components: the third fingerprint family's clusters
        "dedup_simhash_clusters": components.simhash_clusters,
        # who-copies-whom: near-dup pairs rolled to the source matrix
        "source_pair_matrix": dedup.source_pair_matrix,
        # contribution novelty: each gram credited to its min doc
        "doc_gram_novelty": dedup.doc_gram_novelty,
        # simhash hamming calibration over consecutive-id pairs
        "simhash_pair_histogram": dedup.simhash_pair_histogram,
        # truncation-artifact census: byte-identical 64-char prefixes
        "dedup_prefix_groups": dedup.dedup_prefix_groups,
        "dedup_ngram_jaccard": dedup.ngram_jaccard_pairs,
        # per-doc duplicated-span fraction (C4-style quality signal)
        "doc_dup_span_stats": dedup.doc_dup_span_stats,
        # consecutive-repeat collapse (pure streaming map)
        "doc_collapse_repeats": scrub.collapse_repeats,
        "doc_fingerprints": textstats.fingerprints,
        # text analysis
        "doc_token_stats": textstats.doc_token_stats,
        # per-doc sentence segmentation features (readability signals)
        "doc_sentence_stats": textstats.doc_sentence_stats,
        # per-doc type-token ratio (lexical diversity gate)
        "doc_ttr": textstats.doc_ttr,
        # per-source log2 length histogram (data-card distribution)
        "source_length_histogram": textstats.source_length_histogram,
        # per-source token-distribution drift vs the prior snapshot
        # (L1 over the top-V vocab, floor-milli; recrawl monitoring)
        "source_token_drift": textstats.source_token_drift,
        # per-source char-class fingerprint (encoding/format drift)
        "source_char_classes": textstats.source_char_class_profile,
        # per-source exact-dup census (data-card dedup row)
        "source_dedup_report": textstats.source_dedup_report,
        # per-source NEAR-dup census (verified minhash pairs rolled up)
        "source_neardup_report": dedup.source_neardup_report,
        # unigram-surprisal LM quality proxy (integer log2 via
        # bit_length -> hash-exact vs SQL; count-guarded join-back)
        "doc_unigram_surprisal": textstats.doc_unigram_surprisal,
        # bigram conditional surprisal (next-word predictability, one
        # LM order up; same integer-log2 discipline + path choice)
        "doc_bigram_surprisal": textstats.doc_bigram_surprisal,
        "doc_bpe_token_stats": textstats.bpe_token_stats,
        # TRAINED BPE: merge table learned from the corpus's top-V
        # word histogram (Sennrich et al. 2016; chained-CTE oracle
        # value-pins every merge step), then per-doc encoding with
        # the learned merges (shared spaced-string replace semantics)
        "tokenizer_bpe_train": tokenizer.tokenizer_bpe_train,
        "tokenizer_bpe_vocab": tokenizer.tokenizer_bpe_vocab,
        "doc_bpe_encode": tokenizer.doc_bpe_encode,
        # per-doc top-k keywords by integer tf-idf (count-guarded
        # broadcast df table vs bucketed join-back + doc-group cut)
        "doc_tfidf_top_terms": keywords.doc_tfidf_top_terms,
        "source_token_totals": textstats.source_token_totals,
        # integer-exact HyperLogLog sketch (registers AND estimate
        # reproduced bit-for-bit by the SQL oracle)
        "source_distinct_hll": textstats.source_distinct_tokens_hll,
        # count-min frequency sketch (the HLL's point-frequency
        # sibling; integer counters, sketch + probe estimates
        # bit-identical to SQL)
        "source_token_cms": textstats.source_token_cms,
        "doc_quality": textstats.quality_scores,
        # model-inference stage shape: hashed-linear quality scorer,
        # weights built once per actor, integer-exact vs SQL
        "doc_quality_classifier": classifier.quality_classifier,
        # Gopher-style boolean rule verdicts (the filter gate next to
        # the continuous quality signals)
        "doc_gopher_rules": textstats.gopher_rules,
        # Gopher's WITHIN-doc repetition half: top-2/3/4-gram char
        # fraction + duplicated-5-gram occurrence fraction, one
        # shuffle-free streaming map
        "doc_repetition_stats": textstats.doc_repetition_stats,
        # tokenizer-coverage signal: OOV rate vs the corpus's own
        # top-V vocabulary (per-block top-V cut -> tiny driver merge
        # -> broadcast set -> one streaming pass)
        "doc_oov_rate": textstats.doc_oov_rate,
        # collocation mining: top-k adjacent bigrams by integer Dice
        # (one tokenize pass, sentinel-fused uni+bi counts, local
        # top-k cuts; vocab-guarded broadcast vs 2-round hash join)
        "bigram_dice_top": textstats.bigram_dice_top,
        # window-4 skip-gram collocations by exact integer lift
        "window_cooc_lift": textstats.window_cooc_lift,
        "doc_langid": textstats.langid,
        "doc_clean": textstats.clean_text,
        # PII scrub: count + redact emails/phones/IPs, pure streaming
        "doc_pii_scrub": textstats.pii_scrub,
        "doc_sample_10pct": textstats.sample_documents,
        # exact fixed-SIZE sample: k-smallest md5 rank, k-bounded fold
        "doc_sample_fixed_k": textstats.sample_fixed_k,
        # balanced eval set: exact k smallest md5 ranks PER source
        "doc_sample_k_per_source": textstats.sample_k_per_source,
        # weighted fixed-size sample (integer md5 // weight priority)
        "doc_sample_weighted_k": textstats.sample_weighted_k,
        # integer Flesch-style readability (words/sentences/vowel runs)
        "doc_readability": textstats.doc_readability,
        # floor-log2 char entropy (compression-ratio proxy gate)
        "doc_char_entropy": textstats.doc_char_entropy,
        # skyline operator: local fronts merge losslessly
        "doc_pareto_front": textstats.doc_pareto_front,
        # per-source length inequality (integer Gini, data-card row)
        "source_length_gini": textstats.source_length_gini,
        # language-mix data card: per (source, lang) counts + milli share
        "source_lang_mix": textstats.source_lang_mix,
        # length-profile data card: exact per-source char percentiles
        "source_length_percentiles": textstats.source_length_percentiles,
        # Heaps-law vocab growth: new distinct tokens per doc-id decile
        "vocab_growth_curve": textstats.vocab_growth_curve,
        # tokenizer design input: instances + distinct words per length
        "token_length_histogram": textstats.token_length_histogram,
        # collection-level lexical diversity (templated-source screen)
        "source_ttr": textstats.source_ttr,
        # per-source robust MAD length-outlier gate (histogram+rank)
        "doc_length_outliers": textstats.doc_length_outliers,
        # per-source quality-QUANTILE keep (FineWeb-style
        # self-calibrating bottom-tail drop; same histogram+rank plan)
        "source_quality_gate": textstats.source_quality_gate,
        # per-source chrome-gram boilerplate strip (CCNet host rule)
        "doc_strip_boilerplate": scrub.strip_boilerplate,
        # deterministic train/val/test split bookkeeping (data card)
        "corpus_split": textstats.corpus_split,
        # per-language rate mixing (50% en / 20% rest, seedless)
        "doc_sample_stratified": textstats.sample_stratified,
        # per-source top-k vocabulary (partial counts -> bucketed sum
        # -> per-block top-k cut -> tiny per-source merge)
        "source_top_terms": packing.source_top_terms,
        # lexical top-k search: integer fixed-point BM25, one
        # tokenize pass + per-batch partial top-k, no shuffle
        "text_search_bm25": search.bm25_topk,
        # NEAR/4 proximity over the same positional payload
        "text_search_near": search.near_topk,
        # distributed grep: per-doc non-overlapping regex counts
        "text_search_regex": search.text_search_regex,
        "text_search_near_indexed": search.near_indexed_topk,
        "ann_cosine_topk": similarity.cosine_topk,
        # filtered ANN: metadata predicate pushed into the scan
        "ann_cosine_filtered_topk": similarity.cosine_filtered_topk,
        # batched serving shape: one broadcast query MATRIX, one
        # matmul per batch for all queries
        "ann_cosine_multi_topk": similarity.cosine_multi_topk,
        # per-label integer embedding centroids (class signatures)
        "embed_label_centroids": similarity.embed_label_centroids,
        # farthest-from-centroid tail: the mislabeled-vector screen
        "embed_outliers": similarity.embed_outliers,
        # embedding-free topic clustering: hashed bag-of-words integer
        # features + the integer-exact iterative k-means (full
        # chained-CTE oracle re-derives features AND every iteration)
        "doc_topic_clusters": topics.doc_topic_clusters,
        # cluster-balanced quota sampling over the trained topics
        "corpus_cluster_sample": topics.corpus_cluster_sample,
        # sampled k-NN label-consistency eval (embedding quality gate)
        "embed_knn_label_eval": similarity.embed_knn_label_eval,
        # cosine decile histogram over consecutive-id pairs (the
        # near-dup threshold calibration table)
        "embed_pair_histogram": similarity.embed_pair_distance_histogram,
        "ann_ivf_topk": similarity.ivf_topk,
        # exact kNN GRAPH over all vectors (bucket-pair blocked matmul)
        "embed_knn_graph": similarity.embed_knn_graph,
        # mutual-kNN edges -> connected components (hub-safe clusters)
        "embed_mutual_knn_clusters": similarity.embed_mutual_knn_clusters,
        # dominant spectral axis: integer power iteration, 8 passes
        "embed_top_component": similarity.embed_top_component,
        # dead-dimension screen: exact per-dim moments and spread
        "embed_dim_stats": similarity.embed_dim_stats,
        # whole-vector norm health bands (mixed-version detector)
        "embed_norm_histogram": similarity.embed_norm_histogram,
    }


def _warc_roundtrip(sf_dir: str):
    """Pages -> sharded .warc.gz -> Dataset; returns per-url html
    sha256 + byte count, so the round-trip is CONTENT-pinned (any
    corruption flips the hash) without shipping html to the driver."""
    import os
    import tempfile

    import pyarrow as pa

    from mlscraper_ray.functions.tables import finish
    from mlscraper_ray.pipelines.crawl_pipeline import corpus_for_sf, sf_of_dir
    from mlscraper_ray.sources.warc import read_warc, write_warc_from_pages

    corpus_dir, _ = corpus_for_sf(sf_of_dir(sf_dir))
    with tempfile.TemporaryDirectory(prefix="warc_rt_") as warc_dir:
        write_warc_from_pages(os.path.join(corpus_dir, "pages"), warc_dir)

        def digests(batch: pa.Table) -> pa.Table:
            import hashlib

            import pyarrow.compute as pc

            hashes = [
                hashlib.sha256(h).hexdigest() for h in batch["html"].to_pylist()
            ]
            return pa.table(
                {
                    "url": batch["url"],
                    "html_sha256": pa.array(hashes, pa.string()),
                    "html_bytes": pc.binary_length(batch["html"]),
                }
            )

        out = read_warc(warc_dir).map_batches(digests, batch_format="pyarrow").to_pandas()
    return finish(out, "url")


def _simhash_pairs(sf_dir: str):
    from mlscraper_ray.functions.dedup import simhash_neardup_pairs
    from mlscraper_ray.functions.tables import read_table

    return simhash_neardup_pairs(read_table(sf_dir, "documents", ["doc_id", "text"]))


def oracle_sql() -> dict[str, str]:
    from mlscraper_ray.functions import (
        aggregates,
        classifier,
        components,
        curate,
        dedup,
        joins,
        keywords,
        packing,
        scrub,
        search,
        similarity,
        streams,
        textstats,
        tokenizer,
        topics,
        urls,
        validate,
    )

    return {
        "q1_pricing_summary": aggregates.Q1_SQL,
        "revenue_by_nation": aggregates.REVENUE_BY_NATION_SQL,
        "events_by_type": aggregates.EVENTS_BY_TYPE_SQL,
        "top_users_by_value": aggregates.TOP_USERS_BY_VALUE_SQL,
        "event_value_percentiles": aggregates.EVENT_VALUE_PERCENTILES_SQL,
        "order_lineitem_revenue": joins.ORDER_LINEITEM_REVENUE_SQL,
        "part_brand_revenue": joins.PART_BRAND_REVENUE_SQL,
        "supplier_nation_summary": joins.SUPPLIER_NATION_SUMMARY_SQL,
        "q6_discount_revenue": aggregates.Q6_DISCOUNT_REVENUE_SQL,
        "q3_shipping_priority": joins.q3_shipping_priority_sql(),
        "orders_with_returns": joins.ORDERS_WITH_RETURNS_SQL,
        "q5_local_supplier_volume": joins.q5_local_supplier_volume_sql(),
        "q18_large_orders": joins.q18_large_orders_sql(),
        "q10_returned_revenue": joins.q10_returned_revenue_sql(),
        "part_supplier_diversity": joins.PART_SUPPLIER_DIVERSITY_SQL,
        "top_customers_by_nation": joins.top_customers_by_nation_sql(),
        "customer_rfm_segments": aggregates.CUSTOMER_RFM_SEGMENTS_SQL,
        "orders_repeat_rate": aggregates.ORDERS_REPEAT_RATE_SQL,
        "lineitem_discount_bands": aggregates.LINEITEM_DISCOUNT_BANDS_SQL,
        "orders_monthly_revenue": aggregates.ORDERS_MONTHLY_REVENUE_SQL,
        "revenue_rollup": aggregates.REVENUE_ROLLUP_SQL,
        "corpus_validate": validate.CORPUS_VALIDATE_SQL,
        "customers_without_orders": joins.CUSTOMERS_WITHOUT_ORDERS_SQL,
        "events_asof_join": joins.ASOF_JOIN_EVENTS_SQL,
        "events_range_join": joins.RANGE_JOIN_EVENTS_SQL,
        "dedup_exact": dedup.EXACT_DEDUP_SQL,
        "dedup_incremental": dedup.incremental_dedup_sql(),
        "dedup_bloom_screen": dedup.bloom_screen_sql(),
        "dedup_minhash_incremental": dedup.incremental_minhash_dedup_sql(),
        "dedup_ngram_jaccard": dedup.NGRAM_JACCARD_SQL,
        "dedup_containment": dedup.NGRAM_CONTAINMENT_SQL,
        "doc_dup_span_stats": dedup.DOC_DUP_SPAN_STATS_SQL,
        "dedup_segments": scrub.DEDUP_SEGMENTS_SQL,
        "doc_scrub_dup_runs": scrub.scrub_dup_runs_sql(),
        "doc_collapse_repeats": scrub.COLLAPSE_REPEATS_SQL,
        "doc_sample_stratified": textstats.SAMPLE_STRATIFIED_SQL,
        "doc_length_outliers": textstats.doc_length_outliers_sql(),
        "source_quality_gate": textstats.SOURCE_QUALITY_GATE_SQL,
        "doc_strip_boilerplate": scrub.strip_boilerplate_sql(),
        "pack_sequences": packing.PACK_SEQUENCES_SQL,
        "doc_chunk_windows": packing.DOC_CHUNK_WINDOWS_SQL,
        "url_pattern_stats": urls.URL_PATTERN_STATS_SQL,
        "source_top_terms": packing.SOURCE_TOP_TERMS_SQL,
        "corpus_to_training": packing.corpus_to_training_sql(),
        "dedup_simhash_pairs": dedup.SIMHASH_PAIRS_SQL,
        "doc_simhash": dedup.SIMHASH_TABLE_SQL,
        "dedup_simhash_clusters": components.simhash_clusters_sql(),
        "source_pair_matrix": dedup.source_pair_matrix_sql(),
        "doc_gram_novelty": dedup.DOC_GRAM_NOVELTY_SQL,
        "simhash_pair_histogram": dedup.SIMHASH_PAIR_HISTOGRAM_SQL,
        "dedup_prefix_groups": dedup.DEDUP_PREFIX_GROUPS_SQL,
        # exhaustive similarity joins verify the LSH pipelines' recall
        # guarantees themselves (see MINHASH_DEDUP_SQL docs)
        "dedup_minhash": dedup.MINHASH_DEDUP_SQL,
        # recursive-CTE transitive closure over the same exhaustive
        # pair join — re-verifies LSH recall plus the component labels
        "neardup_clusters": components.NEARDUP_CLUSTERS_SQL,
        "corpus_dedup_canonical": components.CORPUS_DEDUP_CANONICAL_SQL,
        "embed_neardup_pairs": similarity.embedding_neardup_sql(),
        "ann_ivf_topk": similarity.ivf_topk_sql(),
        "embed_knn_graph": similarity.embed_knn_graph_sql(),
        "embed_mutual_knn_clusters": similarity.embed_mutual_knn_clusters_sql(),
        "embed_top_component": similarity.EMBED_TOP_COMPONENT_SQL,
        "embed_dim_stats": similarity.EMBED_DIM_STATS_SQL,
        "embed_norm_histogram": similarity.EMBED_NORM_HISTOGRAM_SQL,
        "ann_ivf_trained_topk": similarity.ivf_trained_topk_sql(),
        "ann_ivf_pq_topk": similarity.ivf_pq_topk_sql(),
        "ann_ivf_pq_residual_topk": similarity.ivf_pq_residual_topk_sql(),
        "ann_lsh_topk": similarity.lsh_topk_sql(),
        "source_overlap": textstats.source_overlap_sql(),
        "corpus_dsir_select": curate.dsir_select_sql(),
        "doc_token_stats": textstats.DOC_TOKEN_STATS_SQL,
        "doc_sentence_stats": textstats.DOC_SENTENCE_STATS_SQL,
        "doc_ttr": textstats.DOC_TTR_SQL,
        "source_length_histogram": textstats.SOURCE_LENGTH_HISTOGRAM_SQL,
        "source_token_drift": textstats.SOURCE_TOKEN_DRIFT_SQL,
        "source_char_classes": textstats.SOURCE_CHAR_CLASS_SQL,
        "source_dedup_report": textstats.SOURCE_DEDUP_REPORT_SQL,
        "source_neardup_report": dedup.source_neardup_report_sql(),
        "doc_unigram_surprisal": textstats.DOC_UNIGRAM_SURPRISAL_SQL,
        "doc_perplexity_buckets": textstats.DOC_PERPLEXITY_BUCKETS_SQL,
        "doc_bigram_surprisal": textstats.DOC_BIGRAM_SURPRISAL_SQL,
        "doc_bpe_token_stats": textstats.BPE_TOKEN_STATS_SQL,
        "tokenizer_bpe_train": tokenizer.tokenizer_bpe_train_sql(),
        "tokenizer_bpe_vocab": tokenizer.tokenizer_bpe_vocab_sql(),
        "doc_bpe_encode": tokenizer.doc_bpe_encode_sql(),
        "doc_tfidf_top_terms": keywords.DOC_TFIDF_TOP_TERMS_SQL,
        "source_token_totals": textstats.SOURCE_TOKEN_TOTALS_SQL,
        "source_datacard": textstats.SOURCE_DATACARD_SQL,
        "source_temperature_mix": textstats.source_temperature_mix_sql(),
        "source_epoch_mix": textstats.source_epoch_mix_sql(),
        "source_token_quota": textstats.SOURCE_TOKEN_QUOTA_SQL,
        "source_distinct_hll": textstats.SOURCE_DISTINCT_TOKENS_HLL_SQL,
        "source_token_cms": textstats.SOURCE_TOKEN_CMS_SQL,
        "doc_quality": textstats.QUALITY_SCORES_SQL,
        "doc_quality_classifier": classifier.QUALITY_CLASSIFIER_SQL,
        "doc_gopher_rules": textstats.GOPHER_RULES_SQL,
        "doc_repetition_stats": textstats.DOC_REPETITION_STATS_SQL,
        "doc_oov_rate": textstats.DOC_OOV_RATE_SQL,
        "bigram_dice_top": textstats.BIGRAM_DICE_TOP_SQL,
        "window_cooc_lift": textstats.WINDOW_COOC_LIFT_SQL,
        "doc_langid": textstats.LANGID_SQL,
        "doc_clean": textstats.CLEAN_TEXT_SQL,
        "doc_pii_scrub": textstats.pii_scrub_sql(),
        "doc_sample_10pct": textstats.SAMPLE_DOCUMENTS_SQL,
        "doc_sample_fixed_k": textstats.sample_fixed_k_sql(),
        "doc_sample_k_per_source": textstats.SAMPLE_K_PER_SOURCE_SQL,
        "doc_sample_weighted_k": textstats.sample_weighted_k_sql(),
        "doc_readability": textstats.DOC_READABILITY_SQL,
        "doc_char_entropy": textstats.DOC_CHAR_ENTROPY_SQL,
        "doc_pareto_front": textstats.DOC_PARETO_FRONT_SQL,
        "source_length_gini": textstats.SOURCE_LENGTH_GINI_SQL,
        "source_lang_mix": textstats.SOURCE_LANG_MIX_SQL,
        "source_length_percentiles": textstats.SOURCE_LENGTH_PERCENTILES_SQL,
        "vocab_growth_curve": textstats.VOCAB_GROWTH_CURVE_SQL,
        "token_length_histogram": textstats.TOKEN_LENGTH_HISTOGRAM_SQL,
        "source_ttr": textstats.SOURCE_TTR_SQL,
        "corpus_split": textstats.corpus_split_sql(),
        "doc_fingerprints": textstats.FINGERPRINTS_SQL,
        "corpus_curate": curate.CURATE_CORPUS_SQL,
        "corpus_decontaminate": curate.DECONTAMINATE_SQL,
        "text_search_bm25": search.bm25_topk_sql(),
        "text_search_bm25_indexed": search.bm25_indexed_topk_sql(),
        "text_search_phrase": search.phrase_topk_sql(),
        # the full-scan phrase oracle already emits matches only, so
        # the indexed serving path shares it verbatim
        "text_search_phrase_indexed": search.phrase_topk_sql(),
        "text_search_near": search.near_topk_sql(),
        "text_search_regex": search.TEXT_SEARCH_REGEX_SQL,
        "text_search_near_indexed": search.near_topk_sql(),
        "url_canonical_dedup": urls.URL_CANONICAL_DEDUP_SQL,
        "frontier_url_filter": urls.FRONTIER_URL_FILTER_SQL,
        "url_redirect_resolve": urls.url_redirect_resolve_sql(),
        "ann_cosine_topk": similarity.cosine_topk_sql(),
        "ann_cosine_filtered_topk": similarity.cosine_filtered_topk_sql(),
        "ann_cosine_range": similarity.cosine_range_sql(),
        "dedup_query_similar": dedup.query_similar_docs_sql(),
        "doc_winnow_fingerprints": dedup.doc_winnow_fingerprints_sql(),
        "dedup_winnow_pairs": dedup.winnow_neardup_pairs_sql(),
        "dedup_winnow_clusters": components.winnow_clusters_sql(),
        "ann_cosine_multi_topk": similarity.cosine_multi_topk_sql(),
        "embed_label_centroids": similarity.embed_label_centroids_sql(),
        "embed_outliers": similarity.embed_outliers_sql(),
        "doc_topic_clusters": topics.doc_topic_clusters_sql(),
        "corpus_cluster_sample": topics.corpus_cluster_sample_sql(),
        "embed_knn_label_eval": similarity.embed_knn_label_eval_sql(),
        "embed_pair_histogram": similarity.embed_pair_distance_histogram_sql(),
        "embed_kmeans_int": similarity.embed_kmeans_int_sql(),
        "embed_semdedup": similarity.embed_semdedup_sql(),
        "embed_pq_codes": similarity.embed_pq_codes_sql(),
        "embed_random_projection": similarity.embed_random_projection_sql(),
        "sessionize": streams.sessionize_sql(),
        "events_attribution": streams.EVENTS_ATTRIBUTION_SQL,
        "hourly_distinct_users": streams.HOURLY_DISTINCT_USERS_SQL,
        "events_type_lift": streams.events_type_lift_sql(),
        "events_user_value_rank": streams.EVENTS_USER_VALUE_RANK_SQL,
        "events_signup_to_purchase": streams.EVENTS_SIGNUP_TO_PURCHASE_SQL,
        "events_interarrival": streams.EVENTS_INTERARRIVAL_SQL,
        "events_dau_wau": streams.EVENTS_DAU_WAU_SQL,
        "events_peak_concurrency": streams.EVENTS_PEAK_CONCURRENCY_SQL,
        "events_heavy_hitters": streams.EVENTS_HEAVY_HITTERS_SQL,
        "session_duration_percentiles": streams.SESSION_DURATION_PERCENTILES_SQL,
        "events_burst_users": streams.EVENTS_BURST_USERS_SQL,
        "user_activity_histogram": streams.USER_ACTIVITY_HISTOGRAM_SQL,
        "events_value_topk_share": streams.EVENTS_VALUE_TOPK_SHARE_SQL,
        "events_session_paths": streams.session_paths_sql(),
        "events_decayed_value": streams.events_decayed_value_sql(),
        "events_funnel": streams.events_funnel_sql(),
        "events_retention": streams.EVENTS_RETENTION_SQL,
        "corpus_split_by_source": textstats.corpus_split_by_source_sql(),
        "corpus_snapshot_diff": dedup.corpus_snapshot_diff_sql(),
        "dedup_query_similar_indexed": dedup.query_similar_indexed_sql(),
        "event_value_quantile_sketch": aggregates.event_value_quantile_sketch_sql(),
        "hourly_event_counts": streams.HOURLY_EVENT_COUNTS_SQL,
        "events_hour_of_day": streams.EVENTS_HOUR_OF_DAY_SQL,
        "event_value_histogram": streams.EVENT_VALUE_HISTOGRAM_SQL,
        "events_rate_anomaly": streams.EVENTS_RATE_ANOMALY_SQL,
        "events_session_type_pairs": streams.SESSION_TYPE_PAIRS_SQL,
        "events_props_stats": streams.EVENTS_PROPS_STATS_SQL,
        "events_markov_transitions": streams.EVENTS_MARKOV_TRANSITIONS_SQL,
        "events_user_lifetime": streams.EVENTS_USER_LIFETIME_SQL,
        "sliding_window_counts": streams.sliding_window_counts_sql(),
        "top_event_per_user": streams.TOP_EVENT_PER_USER_SQL,
        # constant-table oracles from INDEPENDENT ground truth (the
        # corpus generator's synthesis-time records and the
        # single-process oracle crawler), built for the driver's fixed
        # sf=0.01 compare scale — upgrading the crawl/extract/WARC
        # pipelines from rows-only to full value pins
        **_truth_oracle_entries(),
    }


def _truth_oracle_entries() -> dict[str, str]:
    """Built per-entry with failure isolation: if a builder cannot run
    (e.g. unwritable corpus scratch dir), that pipeline degrades to
    the rows-only check instead of taking every oracle down with it."""
    from mlscraper_ray.pipelines.truth_oracles import TRUTH

    out: dict[str, str] = {}
    for name, build in TRUTH.items():
        try:
            out[name] = build(0.01)
        except Exception as exc:  # degrade LOUDLY, not silently
            import warnings

            warnings.warn(
                f"truth-oracle builder for {name!r} failed ({exc!r}); "
                "this pipeline degrades to the rows-only check",
                RuntimeWarning,
                stacklevel=2,
            )
    return out
