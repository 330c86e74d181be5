"""Benchmark of the mlscraper_ray engine: seeded inputs, three
closed-loop workloads (crawl, learn, corpus_ops), end-to-end metrics
and a traced per-layer run. See perfbench/README.md."""
