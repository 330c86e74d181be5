"""Deequ-style data-quality validation over the corpus tables.

One operator, many CONSTRAINT CHECKS, each a slim distributed
aggregate; the report is a fixed small table (one row per check) so
a 100 TB validation run ships counters, never rows:

- uniqueness (documents.doc_id): bucketed per-key counts, violations
  = rows minus distinct keys;
- column invariants (n_chars == len(text), non-empty text, value
  range, JSON parsability, embedding dim): single streaming passes
  emitting per-batch violation counters;
- referential integrity: orders.o_custkey -> customer (dimension
  side broadcasts, ROW-level violation count in one pass);
  lineitem.l_orderkey -> orders (both fact-sized: per-key lineitem
  counts cogroup-join the distinct order keys — the row-level orphan
  count rides on slim key rows, one shuffle).

The clean synthetic corpus validates to zero violations (the
registry/oracle row); detection is pinned by a crafted corrupted
corpus in tests (every check fires there).
"""
from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from mlscraper_ray.functions.tables import finish, read_table


def corpus_validate(sf_dir: str) -> pa.Table:
    from mlscraper_ray.functions.bucketed import bucketed_aggregate
    from mlscraper_ray.functions.joins import cogroup_join

    checks: list[tuple[str, str, int, int]] = []

    # -- documents: uniqueness + column invariants (one pass each kind)
    n_docs = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    docs = read_table(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    key_counts = bucketed_aggregate(docs, ["doc_id"], {"n": ("doc_id", "count")})
    distinct_parts = key_counts.map_batches(
        lambda df: pd.DataFrame({"d": [np.int64(len(df))]}), batch_format="pandas"
    ).to_pandas()
    n_distinct = int(distinct_parts["d"].sum())
    checks.append(("documents", "doc_id_unique", n_docs, n_docs - n_distinct))

    def doc_viol(df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"]
        bad_len = (text.isna() | (text.str.len() != df["n_chars"])).sum()
        empty = (text.isna() | (text.str.strip() == "")).sum()
        return pd.DataFrame({"bad_len": [int(bad_len)], "empty": [int(empty)]})

    dv = docs.map_batches(doc_viol, batch_format="pandas").to_pandas()
    checks.append(("documents", "n_chars_matches_text", n_docs, int(dv["bad_len"].sum())))
    checks.append(("documents", "text_not_empty", n_docs, int(dv["empty"].sum())))

    # -- events: range + JSON parsability
    n_events = pq.read_metadata(os.path.join(sf_dir, "events.parquet")).num_rows
    events = read_table(sf_dir, "events", ["value", "props"])

    def ev_viol(df: pd.DataFrame) -> pd.DataFrame:
        bad_val = int((df["value"].isna() | (df["value"] < 0)).sum())
        bad_json = 0
        for p in df["props"]:
            try:
                json.loads(p)
            except (TypeError, ValueError):
                bad_json += 1
        return pd.DataFrame({"bad_val": [bad_val], "bad_json": [bad_json]})

    ev = events.map_batches(ev_viol, batch_format="pandas").to_pandas()
    checks.append(("events", "value_non_negative", n_events, int(ev["bad_val"].sum())))
    checks.append(("events", "props_valid_json", n_events, int(ev["bad_json"].sum())))

    # -- referential: orders.o_custkey -> customer (dimension broadcast)
    n_orders = pq.read_metadata(os.path.join(sf_dir, "orders.parquet")).num_rows
    cust = pd.read_parquet(os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"])
    ck_ref = ray.put(set(int(k) for k in cust["c_custkey"]))

    def orphan_orders(df: pd.DataFrame) -> pd.DataFrame:
        from mlscraper_ray.functions.broadcast import cached_object

        ks = cached_object(ck_ref)
        bad = int((~df["o_custkey"].isin(ks)).sum())
        return pd.DataFrame({"bad": [bad]})

    oo = (
        read_table(sf_dir, "orders", ["o_custkey"])
        .map_batches(orphan_orders, batch_format="pandas")
        .to_pandas()
    )
    checks.append(("orders", "custkey_in_customer", n_orders, int(oo["bad"].sum())))

    # -- referential: lineitem.l_orderkey -> orders (fact-fact, slim keys)
    n_li = pq.read_metadata(os.path.join(sf_dir, "lineitem.parquet")).num_rows
    li_counts = bucketed_aggregate(
        read_table(sf_dir, "lineitem", ["l_orderkey"]).map_batches(
            lambda df: pd.DataFrame({"o_orderkey": df["l_orderkey"].astype("int64")}),
            batch_format="pandas",
        ),
        ["o_orderkey"],
        {"n_li": ("o_orderkey", "count")},
    )
    ok_keys = read_table(sf_dir, "orders", ["o_orderkey"]).map_batches(
        lambda df: pd.DataFrame(
            {"o_orderkey": df["o_orderkey"].astype("int64"), "present": np.int64(1)}
        ),
        batch_format="pandas",
    )
    joined = cogroup_join(li_counts, ok_keys, "o_orderkey", how="left")

    def orphan_li(df: pd.DataFrame) -> pd.DataFrame:
        miss = df["present"].isna() if "present" in df.columns else pd.Series(True, index=df.index)
        return pd.DataFrame({"bad": [int(df.loc[miss, "n_li"].sum())]})

    ol = joined.map_batches(orphan_li, batch_format="pandas").to_pandas()
    checks.append(("lineitem", "orderkey_in_orders", n_li, int(ol["bad"].sum())))

    # -- embeddings: fixed dimensionality
    n_emb = pq.read_metadata(os.path.join(sf_dir, "embeddings.parquet")).num_rows
    emb = read_table(sf_dir, "embeddings", ["embedding"])

    def bad_dim(t: pa.Table) -> pd.DataFrame:
        lens = np.array([len(e) for e in t["embedding"].to_pylist()])
        return pd.DataFrame({"bad": [int((lens != 64).sum())]})

    bd = emb.map_batches(bad_dim, batch_format="pyarrow").to_pandas()
    checks.append(("embeddings", "dim_is_64", n_emb, int(bd["bad"].sum())))

    out = pd.DataFrame(
        sorted(checks), columns=["table_name", "check_name", "n_checked", "n_violations"]
    )
    return finish(out, dtypes={"n_checked": "int64", "n_violations": "int64"})


CORPUS_VALIDATE_SQL = """
WITH rows_ AS (
  SELECT 'documents' AS table_name, 'doc_id_unique' AS check_name,
         COUNT(*) AS n_checked,
         COUNT(*) - COUNT(DISTINCT doc_id) AS n_violations
  FROM documents
  UNION ALL
  SELECT 'documents', 'n_chars_matches_text', COUNT(*),
         COUNT(*) FILTER (WHERE text IS NULL OR length(text) <> n_chars)
  FROM documents
  UNION ALL
  SELECT 'documents', 'text_not_empty', COUNT(*),
         COUNT(*) FILTER (WHERE text IS NULL OR trim(text) = '')
  FROM documents
  UNION ALL
  SELECT 'events', 'value_non_negative', COUNT(*),
         COUNT(*) FILTER (WHERE value IS NULL OR value < 0)
  FROM events
  UNION ALL
  SELECT 'events', 'props_valid_json', COUNT(*),
         COUNT(*) FILTER (WHERE NOT json_valid(props))
  FROM events
  UNION ALL
  SELECT 'orders', 'custkey_in_customer', COUNT(*),
         COUNT(*) FILTER (WHERE NOT EXISTS
             (SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey))
  FROM orders o
  UNION ALL
  SELECT 'lineitem', 'orderkey_in_orders', COUNT(*),
         COUNT(*) FILTER (WHERE NOT EXISTS
             (SELECT 1 FROM orders o WHERE o.o_orderkey = l.l_orderkey))
  FROM lineitem l
  UNION ALL
  SELECT 'embeddings', 'dim_is_64', COUNT(*),
         COUNT(*) FILTER (WHERE len(embedding) <> 64)
  FROM embeddings
)
SELECT * FROM rows_ ORDER BY table_name, check_name
"""
