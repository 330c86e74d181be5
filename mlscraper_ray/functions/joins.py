"""Join strategies.

Two shapes, matching the scale playbook:

- :func:`broadcast_join_map` — small side broadcast once via
  ``ray.put``, looked up inside ``map_batches`` (no shuffle). Used by
  aggregates.revenue_by_nation.
- :func:`cogroup_join` — both sides large: ``bucketed.co_partition``
  takes the two sides by name, one shuffle on ``key`` (plus the salt
  column when salting), and each bucket is one pandas ``merge``. No
  driver materialization.
  Skew: pass ``salt_hot_keys=True`` — hot keys are detected by a slim
  pre-aggregate, hot left rows get salts 0..``n_salt``-1 and hot right
  rows are replicated once per salt (inner/left joins). Every other
  row has salt 0. The salt is part of the partition key, so a hot
  key's replicas hash to up to ``n_salt`` different buckets while
  cold rows spread exactly as their key does.
"""
from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from mlscraper_ray.functions import broadcast
from mlscraper_ray.functions.broadcast import cached_object
from mlscraper_ray.functions.bucketed import bucketed_aggregate, co_partition
from mlscraper_ray.functions.tables import finish, read_table


def broadcast_join_map(ds: ray.data.Dataset, key: str, mapping_ref, out_col: str):
    """Adds ``out_col`` by looking ``key`` up in a broadcast dict."""

    def add(batch: pa.Table) -> pa.Table:
        mapping = ray.get(mapping_ref)
        vals = [mapping.get(k) for k in batch[key].to_pylist()]
        return batch.append_column(out_col, pa.array(vals))

    return ds.map_batches(add, batch_format="pyarrow")


def cogroup_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str,
    how: str = "inner",
    salt_hot_keys: bool = False,
    hot_key_threshold: int = 100_000,
    n_salt: int = 16,
) -> ray.data.Dataset:
    """Partitioned hash join of two Datasets on ``key`` (non-key column
    sets must be disjoint): ``co_partition({"l": left, "r": right})``
    hands each bucket both sides with their own columns and dtypes,
    and the bucket is one pandas merge. One shuffle; per-bucket work
    is one vectorized merge (never one Python call per key, which
    melts at 10^5+ keys). No side's plan runs twice: the columns come
    with the rows.

    The sides' integer columns come back as pandas nullable ``Int64``
    in every bucket (a left join's missing right values are nulls, not
    floats; a cast only in the buckets that hold a null would give one
    column different dtypes in different blocks).

    ``salt_hot_keys=True`` handles key skew INSIDE the operator
    (inner/left only — replicating the right side breaks right/outer
    semantics): a slim partial-count pre-pass over the left side's key
    column finds keys holding more than ``hot_key_threshold`` rows
    (the hot set collected to the driver is tiny BY DEFINITION:
    at most total_rows / threshold keys); hot LEFT rows are salted
    round-robin across ``n_salt`` sub-partitions and hot RIGHT rows
    replicated once per salt, so a key holding half the corpus spreads
    over ``n_salt`` buckets instead of melting one group. The merge
    key becomes (key, salt); every left row still meets every matching
    right row exactly once, so output is identical to the unsalted
    path (regression-tested with a 50%-hot-key corpus). Note the
    pre-pass re-executes the left pipeline once — materialize ``left``
    first if it is expensive to recompute."""
    keys = [key]
    if salt_hot_keys:
        assert how in ("inner", "left"), "salting replicates the right side: inner/left joins only"

        def kcount(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            g = batch.group_by(key).aggregate([(key, "count")])
            return pa.table({key: g[key], "cnt": pc.cast(g[f"{key}_count"], pa.int64())})

        counts = left.select_columns([key]).map_batches(kcount, batch_format="pyarrow")
        hot_pdf = (
            bucketed_aggregate(counts, [key], {"cnt": ("cnt", "sum")})
            # filter BEFORE the driver pull: only over-threshold keys
            # (a bounded set) ever leave the cluster
            .map_batches(lambda df: df[df["cnt"] > hot_key_threshold], batch_format="pandas")
            .to_pandas()
        )
        hot_keys = sorted(hot_pdf[key].tolist()) if len(hot_pdf) else []
        hot_ref = ray.put(hot_keys)

        def salt(side: str):
            def fn(batch: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                n = batch.num_rows
                hot = ray.get(hot_ref)
                if hot:
                    mask = pc.is_in(
                        batch[key], value_set=pa.array(hot, batch.column(key).type)
                    ).to_numpy(zero_copy_only=False)
                else:
                    mask = np.zeros(n, dtype=bool)
                if side == "l":
                    salts = np.where(mask, np.arange(n, dtype=np.int64) % n_salt, 0)
                    return batch.append_column("__salt", pa.array(salts, pa.int64()))
                reps = [batch.append_column("__salt", pa.array(np.zeros(n, dtype=np.int64)))]
                if mask.any():
                    # hot right rows exist once per salt (salt 0 is reps[0])
                    hot_rows = batch.filter(pa.array(mask))
                    reps += [
                        hot_rows.append_column(
                            "__salt", pa.array(np.full(hot_rows.num_rows, s, dtype=np.int64))
                        )
                        for s in range(1, n_salt)
                    ]
                return pa.concat_tables(reps)

            return fn

        left = left.map_batches(salt("l"), batch_format="pyarrow")
        right = right.map_batches(salt("r"), batch_format="pyarrow")
        keys = [key, "__salt"]

    def join_bucket(sides: dict[str, pd.DataFrame]) -> pd.DataFrame:
        lg, rg = sides["l"], sides["r"]
        # a side without any row has no columns: it joins as its keys
        lg = lg if len(lg.columns) else rg[keys].iloc[:0]
        rg = rg if len(rg.columns) else lg[keys].iloc[:0]
        overlap = set(lg.columns) & set(rg.columns) - set(keys)
        assert not overlap, f"non-key column overlap: {overlap}"
        int_cols = {
            c for f in (lg, rg) for c, t in f.dtypes.items() if pd.api.types.is_integer_dtype(t)
        }
        out = lg.merge(rg, on=keys, how=how)
        cols = [key, *(c for c in out.columns if c not in keys)]
        return pd.DataFrame({c: out[c].astype("Int64") if c in int_cols else out[c] for c in cols})

    return co_partition({"l": left, "r": right}, keys, join_bucket)


def order_lineitem_revenue(sf_dir: str) -> pa.Table:
    """Large-large join demo: lineitem x orders on orderkey ->
    extended-price revenue (cents) per order priority."""
    import pyarrow.compute as pc

    lineitem = read_table(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"]).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t["l_orderkey"],
                "price_cents": pc.cast(pc.round(pc.multiply(t["l_extendedprice"], pa.scalar(100.0))), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = cogroup_join(lineitem, orders, "o_orderkey")

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("o_orderpriority").aggregate(
            [("price_cents", "sum"), ("o_orderkey", "count")]
        )
        # select by NAME: aggregate column order differed across pyarrow
        # versions (keys-first vs aggregates-first)
        return pa.table(
            {
                "o_orderpriority": g["o_orderpriority"],
                "revenue_cents": g["price_cents_sum"],
                "n_lineitems": g["o_orderkey_count"],
            }
        )

    return finish(
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .sum(["revenue_cents", "n_lineitems"])
        .to_pandas()
        .rename(columns={"sum(revenue_cents)": "revenue_cents", "sum(n_lineitems)": "n_lineitems"}),
        "o_orderpriority",
    )


ORDER_LINEITEM_REVENUE_SQL = """
SELECT o_orderpriority,
       CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS revenue_cents,
       COUNT(*) AS n_lineitems
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def customers_without_orders(sf_dir: str) -> pa.Table:
    """ANTI-join: customers with no orders.

    Two paths, picked by ``broadcast.pull`` on the per-batch distinct
    o_custkey table:
    - pulled: keys collected once, broadcast via ray.put, vectorized
      is_in filter per batch — no shuffle;
    - too large to pull: bucketed cogroup anti — customers left-join
      a marker column on hashed key buckets, keep null-marker rows.
      One shuffle, nothing driver-sized anywhere.
    """
    import pyarrow.compute as pc

    customers = read_table(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    order_keys = read_table(sf_dir, "orders", ["o_custkey"]).map_batches(
        lambda t: pa.table({"o_custkey": pc.unique(t["o_custkey"])}),
        batch_format="pyarrow",
    ).materialize()
    if pulled := broadcast.pull(order_keys):
        custkeys = pulled[0]["o_custkey"].unique()
        keys_ref = ray.put(pa.array(sorted(custkeys), pa.int64()))

        def anti(batch: pa.Table) -> pa.Table:
            keys = ray.get(keys_ref)
            mask = pc.invert(pc.is_in(batch["c_custkey"], value_set=keys))
            return batch.filter(mask)

        out = customers.map_batches(anti, batch_format="pyarrow").to_pandas()
    else:
        left = customers.map_batches(
            lambda t: pa.table(
                {
                    "key": t["c_custkey"],
                    "c_custkey": t["c_custkey"],
                    "c_name": t["c_name"],
                    "c_nationkey": t["c_nationkey"],
                }
            ),
            batch_format="pyarrow",
        )
        right = order_keys.map_batches(
            lambda t: pa.table(
                {
                    "key": t["o_custkey"],
                    "__has_order": pa.array([1] * t.num_rows, pa.int8()),
                }
            ),
            batch_format="pyarrow",
        )
        joined = cogroup_join(left, right, "key", how="left")

        def keep_anti(df: pd.DataFrame) -> pd.DataFrame:
            keep = df[df["__has_order"].isna()]
            return pd.DataFrame(
                {
                    "c_custkey": keep["c_custkey"].astype("int64"),
                    "c_name": keep["c_name"].astype(str),
                    "c_nationkey": keep["c_nationkey"].astype("int32"),
                }
            )

        out = joined.map_batches(keep_anti, batch_format="pandas").to_pandas()
    return finish(
        out,
        "c_custkey",
        empty=pa.schema(
            {"c_custkey": pa.int64(), "c_name": pa.string(), "c_nationkey": pa.int32()}
        ),
    )


CUSTOMERS_WITHOUT_ORDERS_SQL = """
SELECT c_custkey, c_name, c_nationkey
FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)
ORDER BY c_custkey
"""


def asof_join_events(
    sf_dir: str,
    left_type: str = "purchase",
    right_type: str = "click",
) -> pa.Table:
    """Distributed AS-OF (temporal) join: each ``left_type`` event is
    matched to the LATEST ``right_type`` event of the same user at or
    before its timestamp (classic click->purchase attribution) —
    the custom temporal operator Ray Data has no primitive for.

    Partitioning assumption (documented per the custom-operator
    contract): both sides are co-partitioned by ``user_id`` hash
    bucket — an as-of match never crosses users, so bucket-local joins
    are complete. One shuffle of slim (event_id, user_id, ts) rows;
    within each bucket the join is ONE vectorized
    ``pandas.merge_asof`` keyed by user. Determinism on timestamp
    ties: the right side is first deduped to one row per (user, ts)
    keeping the max event_id, so Ray and SQL agree regardless of each
    engine's internal tie order. Unmatched left events are dropped
    (inner as-of).

    Timestamps are cast to int64 MICROSECONDS at the Arrow layer
    (explicit unit — the pandas datetime64 conversion unit depends on
    the pyarrow/Ray pin).
    """
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    type_set = pa.array([left_type, right_type])

    def slim(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_in(batch["event_type"], value_set=type_set))
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                # explicit int64 us — all downstream arithmetic on ints
                "ts_us": pc.cast(t["ts"], pa.int64()),
                "event_type": t["event_type"],
            }
        )

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["event_type"] == left_type][["event_id", "user_id", "ts_us"]]
        right = g[g["event_type"] == right_type][["event_id", "user_id", "ts_us"]]
        if left.empty or right.empty:
            return pd.DataFrame(
                {"purchase_id": pd.Series(dtype="int64"), "user_id": pd.Series(dtype="int64"),
                 "click_id": pd.Series(dtype="int64"), "gap_us": pd.Series(dtype="int64")}
            )
        right = (
            right.sort_values(["user_id", "ts_us", "event_id"])
            .drop_duplicates(["user_id", "ts_us"], keep="last")
            .rename(columns={"event_id": "click_id", "ts_us": "c_ts"})
            .sort_values("c_ts", kind="mergesort")
        )
        left = left.sort_values("ts_us", kind="mergesort")
        m = pd.merge_asof(
            left, right, left_on="ts_us", right_on="c_ts", by="user_id", direction="backward"
        ).dropna(subset=["click_id"])
        return pd.DataFrame(
            {
                "purchase_id": m["event_id"].astype("int64"),
                "user_id": m["user_id"].astype("int64"),
                "click_id": m["click_id"].astype("int64"),
                "gap_us": m["ts_us"].astype("int64") - m["c_ts"].astype("int64"),
            }
        )

    return finish(
        co_partition(ds.map_batches(slim, batch_format="pyarrow"), ["user_id"], join_bucket)
        .to_pandas(),
        "purchase_id",
    )


def range_join_events(
    sf_dir: str,
    left_type: str = "error",
    right_type: str = "click",
    window_us: int = 300_000_000,
    bucket_us: int = 3_600_000_000,
) -> pa.Table:
    """Distributed RANGE (interval) join: for each ``left_type`` event,
    the count and closest-gap of ``right_type`` events within
    ±``window_us`` — across ALL users (global temporal correlation),
    so user-hash co-partitioning can't help. The second custom
    temporal operator Ray Data has no primitive for.

    Partitioning assumption (documented): time is split into
    ``bucket_us`` buckets; each RIGHT event lives in exactly its own
    bucket (so per-bucket counts are disjoint and sum cleanly), while
    each LEFT event is REPLICATED into every bucket its ±window
    overlaps — for window <= bucket width that span is at most 3
    consecutive buckets (window-start, home, window-end; the
    in-bucket dedup collapses coincident copies) — the standard
    interval-join bucketing + boundary-replication pattern. In-bucket
    matching is vectorized numpy searchsorted (count = window bound
    difference; closest gap = predecessor/successor probe, O(1) per
    left row); per-left partials then combine with the coarse-bucket
    aggregate (sum counts, min gap). Only matched left events are
    returned (inner semantics — no nullable columns to hash)."""
    import pyarrow.compute as pc

    assert window_us <= bucket_us, "window span must fit 3 consecutive buckets"
    ds = read_table(sf_dir, "events", ["event_id", "ts", "event_type"])

    def assign(batch: pa.Table) -> pa.Table:
        # int64 us + numpy FLOOR division: Arrow integer divide
        # truncates toward zero, which misbuckets negative (pre-epoch)
        # timestamps — floor keeps the bucket identity ts ∈
        # [tb*bucket_us, (tb+1)*bucket_us) for all ts
        us = pc.cast(batch["ts"], pa.int64())
        eid = batch["event_id"]
        etype = batch["event_type"]
        left_mask = pc.equal(etype, left_type)
        right_mask = pc.equal(etype, right_type)
        parts = []
        rt_us = us.filter(right_mask).to_numpy(zero_copy_only=False)
        rt_eid = eid.filter(right_mask)
        parts.append(
            pa.table(
                {
                    "tb": pa.array(np.floor_divide(rt_us, bucket_us)),
                    "event_id": rt_eid,
                    "ts_us": pa.array(rt_us),
                    "side": pa.array(["r"] * len(rt_eid), pa.string()),
                }
            )
        )
        lt_us = us.filter(left_mask).to_numpy(zero_copy_only=False)
        lt_eid = eid.filter(left_mask)
        lo_b = np.floor_divide(lt_us - window_us, bucket_us)
        home_b = np.floor_divide(lt_us, bucket_us)
        hi_b = np.floor_divide(lt_us + window_us, bucket_us)
        # replicate into EVERY bucket of the span: for window <= bucket
        # the span is {lo, home, hi} (home is the middle bucket when the
        # window straddles two edges — lo/hi alone would skip it)
        for b in (lo_b, home_b, hi_b):
            parts.append(
                pa.table(
                    {
                        "tb": pa.array(b),
                        "event_id": lt_eid,
                        "ts_us": pa.array(lt_us),
                        "side": pa.array(["l"] * len(lt_eid), pa.string()),
                    }
                )
            )
        t = pa.concat_tables(parts)
        return t

    def match_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # a left row may appear twice in this bucket (lo_b == hi_b):
        # dedup so it's matched once per bucket
        left = g[g["side"] == "l"].drop_duplicates("event_id")
        right = g[g["side"] == "r"]
        if left.empty or right.empty:
            return pd.DataFrame(
                {"error_id": pd.Series(dtype="int64"), "n": pd.Series(dtype="int64"),
                 "gap": pd.Series(dtype="int64")}
            )
        c = np.sort(right["ts_us"].to_numpy(dtype="int64"))
        ts = left["ts_us"].to_numpy(dtype="int64")
        lo = np.searchsorted(c, ts - window_us, side="left")
        hi = np.searchsorted(c, ts + window_us, side="right")
        n = hi - lo
        j = np.searchsorted(c, ts)
        big = np.int64(1 << 62)
        pred = np.where(j > lo, np.abs(ts - c.take(np.clip(j - 1, 0, len(c) - 1))), big)
        succ = np.where(j < hi, np.abs(c.take(np.clip(j, 0, len(c) - 1)) - ts), big)
        gap = np.minimum(pred, succ)
        keep = n > 0
        return pd.DataFrame(
            {
                "error_id": left["event_id"].to_numpy(dtype="int64")[keep],
                "n": n[keep],
                "gap": gap[keep],
            }
        )


    partials = (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("tb")
        .map_groups(match_bucket, batch_format="pandas")
    )
    out = bucketed_aggregate(
        partials, ["error_id"], {"n_near_clicks": ("n", "sum"), "min_abs_gap_us": ("gap", "min")}
    ).to_pandas()
    return finish(
        out,
        "error_id",
        columns=["error_id", "n_near_clicks", "min_abs_gap_us"],
        dtypes={"n_near_clicks": "int64", "min_abs_gap_us": "int64"},
        empty=pa.schema(
            {"error_id": pa.int64(), "n_near_clicks": pa.int64(), "min_abs_gap_us": pa.int64()}
        ),
    )


RANGE_JOIN_EVENTS_SQL = """
SELECT a.event_id AS error_id,
       COUNT(*) AS n_near_clicks,
       MIN(ABS(epoch_us(a.ts) - epoch_us(b.ts))) AS min_abs_gap_us
FROM events a JOIN events b
  ON b.ts BETWEEN a.ts - INTERVAL 300 SECOND AND a.ts + INTERVAL 300 SECOND
WHERE a.event_type = 'error' AND b.event_type = 'click'
GROUP BY a.event_id
ORDER BY error_id
"""


# DuckDB's native ASOF JOIN is the oracle; the right side gets the
# same (user, ts) max-event_id dedup so timestamp-tie behavior is
# engine-independent.
ASOF_JOIN_EVENTS_SQL = """
WITH p AS (
    SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase'
),
c0 AS (
    SELECT event_id, user_id, ts FROM events WHERE event_type = 'click'
),
c AS (
    SELECT event_id, user_id, ts FROM (
        SELECT event_id, user_id, ts,
               ROW_NUMBER() OVER (PARTITION BY user_id, ts ORDER BY event_id DESC) AS rn
        FROM c0
    ) WHERE rn = 1
)
SELECT p.event_id AS purchase_id, p.user_id, c.event_id AS click_id,
       epoch_us(p.ts) - epoch_us(c.ts) AS gap_us
FROM p ASOF JOIN c ON p.user_id = c.user_id AND p.ts >= c.ts
ORDER BY purchase_id
"""


def part_brand_revenue(sf_dir: str) -> pa.Table:
    """Per-(brand, type) part revenue — the catalog roll-up that
    closes the part-table coverage (no operator touched it): lineitem
    joins part on partkey, discounted revenue computed in the
    integer-cents chain ``cents(extendedprice) * (100 -
    pct(discount)) // 100`` per line (each float quantized ONCE, then
    pure int math — the repo's cross-engine-exact money discipline).

    The part side is a dimension table (catalog-sized, not
    fact-sized): when ``broadcast.pull`` takes it, its partkey ->
    (brand, type) map broadcasts via ray.put and the join is one
    streaming pass over lineitem; otherwise the cogroup join takes
    over (same output, tested-equal path choice as everywhere else)."""

    parts = read_table(sf_dir, "part", ["p_partkey", "p_brand", "p_type"])
    li = read_table(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def rev_rows(df: pd.DataFrame) -> pd.DataFrame:
        cents = (df["l_extendedprice"] * 100).round().astype("int64")
        dpct = (df["l_discount"] * 100).round().astype("int64")
        return pd.DataFrame(
            {
                "l_partkey": df["l_partkey"].astype("int64"),
                "rev_cents": (cents * (100 - dpct)) // 100,
            }
        )

    rev = li.map_batches(rev_rows, batch_format="pandas")

    if pulled := broadcast.pull(parts):
        (pdf,) = pulled
        pmap = {
            int(k): (b, t)
            for k, b, t in zip(pdf["p_partkey"], pdf["p_brand"], pdf["p_type"])
        }
        m_ref = ray.put(pmap)

        def attach(df: pd.DataFrame) -> pd.DataFrame:
            m = cached_object(m_ref)
            bt = [m[int(k)] for k in df["l_partkey"]]
            return pd.DataFrame(
                {
                    "p_brand": [x[0] for x in bt],
                    "p_type": [x[1] for x in bt],
                    "rev_cents": df["rev_cents"],
                }
            )

        attached = rev.map_batches(attach, batch_format="pandas")
    else:
        attached = cogroup_join(
            rev.map_batches(
                lambda df: df.rename(columns={"l_partkey": "p_partkey"}),
                batch_format="pandas",
            ),
            parts,
            "p_partkey",
        )

    return finish(
        bucketed_aggregate(
            attached,
            ["p_brand", "p_type"],
            {"revenue_cents": ("rev_cents", "sum"), "n_lineitems": ("rev_cents", "count")},
        ).to_pandas(),
        ["p_brand", "p_type"],
        dtypes={"revenue_cents": "int64", "n_lineitems": "int64"},
    )


PART_BRAND_REVENUE_SQL = """
SELECT p_brand, p_type,
       CAST(SUM((CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) // 100)
            AS BIGINT) AS revenue_cents,
       COUNT(*) AS n_lineitems
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY p_brand, p_type
ORDER BY p_brand, p_type
"""


def supplier_nation_summary(sf_dir: str) -> pa.Table:
    """Per-(region, nation) supplier roll-up — closes the
    supplier-table coverage: supplier counts, account-balance cents
    total, and each nation's top-balance supplier name (ties to the
    lexicographically smallest name). nation and region are tiny
    dimensions: both broadcast; one streaming pass + one tiny
    aggregate."""

    nat = pd.read_parquet(os.path.join(sf_dir, "nation.parquet"))
    reg = pd.read_parquet(os.path.join(sf_dir, "region.parquet"))
    nmap = {
        int(k): (str(n), int(r))
        for k, n, r in zip(nat["n_nationkey"], nat["n_name"], nat["n_regionkey"])
    }
    rmap = {int(k): str(n) for k, n in zip(reg["r_regionkey"], reg["r_name"])}
    m_ref = ray.put((nmap, rmap))

    sup = read_table(sf_dir, "supplier", ["s_suppkey", "s_name", "s_nationkey", "s_acctbal"])

    def named(df: pd.DataFrame) -> pd.DataFrame:
        nm, rm = cached_object(m_ref)
        nn = [nm[int(k)] for k in df["s_nationkey"]]
        return pd.DataFrame(
            {
                "r_name": [rm[x[1]] for x in nn],
                "n_name": [x[0] for x in nn],
                "s_name": df["s_name"].astype(str),
                "bal_cents": (df["s_acctbal"] * 100).round().astype("int64"),
            }
        )

    def winners(df: pd.DataFrame) -> pd.DataFrame:
        # the (bal desc, name asc) first supplier of each nation
        return (
            df.sort_values(["bal_cents", "s_name"], ascending=[False, True])
            .groupby(["r_name", "n_name"], sort=False)
            .head(1)
        )

    rows = sup.map_batches(named, batch_format="pandas")
    parts_ds = bucketed_aggregate(
        rows,
        ["r_name", "n_name"],
        {
            "n_suppliers": ("s_name", "count"),
            "sum_bal_cents": ("bal_cents", "sum"),
            "top_bal_cents": ("bal_cents", "max"),
        },
    ).to_pandas()
    # winner names: a second slim pass keeps only per-batch winners,
    # final pick on the tiny (region, nation) table
    top = winners(rows.map_batches(winners, batch_format="pandas").to_pandas())
    top = top[["r_name", "n_name", "s_name"]].rename(columns={"s_name": "top_supplier"})
    out = parts_ds.merge(top, on=["r_name", "n_name"]).sort_values(
        ["r_name", "n_name"], ignore_index=True
    )
    for c in ("n_suppliers", "sum_bal_cents", "top_bal_cents"):
        out[c] = out[c].astype("int64")
    cols = ["r_name", "n_name", "n_suppliers", "sum_bal_cents", "top_bal_cents", "top_supplier"]
    return finish(out, columns=cols)


SUPPLIER_NATION_SUMMARY_SQL = """
WITH s AS (
    SELECT r_name, n_name, s_name,
           CAST(ROUND(s_acctbal * 100) AS BIGINT) AS bal_cents
    FROM supplier
    JOIN nation ON s_nationkey = n_nationkey
    JOIN region ON n_regionkey = r_regionkey
)
SELECT r_name, n_name,
       COUNT(*) AS n_suppliers,
       CAST(SUM(bal_cents) AS BIGINT) AS sum_bal_cents,
       CAST(MAX(bal_cents) AS BIGINT) AS top_bal_cents,
       MIN(s_name) FILTER (WHERE bal_cents = (
           SELECT MAX(s2.bal_cents) FROM s s2
           WHERE s2.r_name = s.r_name AND s2.n_name = s.n_name))
           AS top_supplier
FROM s
GROUP BY r_name, n_name
ORDER BY r_name, n_name
"""


def q3_shipping_priority(
    sf_dir: str, segment: str = "BUILDING", cutoff: str = "1998-01-01", k: int = 10
) -> pa.Table:
    """TPC-H-Q3-flavored shipping-priority report: revenue of
    not-yet-shipped lineitems (l_shipdate > cutoff) for orders placed
    before the cutoff by customers in one market segment; top-``k``
    orders by revenue.

    Distributed shape: the segment's custkey set is a slim one-column
    pre-pass broadcast via ``ray.put`` (semi-join, no shuffle — the
    set is segment-sized, ~1/5 of customers; at a scale where even
    that breaks the broadcast budget the cogroup path below takes
    over unchanged); the orders x lineitem side is the real fact-fact
    cogroup join (one shuffle on orderkey). The final top-k never
    materializes the aggregate: each output block keeps its local
    (revenue desc, date, key) top-k and the driver folds ~k x
    n_blocks rows. Money is the integer-cents chain throughout."""

    cut = pd.Timestamp(cutoff)

    cust = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    keys = set()
    for b in cust.map_batches(
        lambda df: pd.DataFrame(
            {"c_custkey": df.loc[df["c_mktsegment"] == segment, "c_custkey"].astype("int64")}
        ),
        batch_format="pandas",
    ).iter_batches(batch_format="pandas"):
        keys.update(int(x) for x in b["c_custkey"])
    keys_ref = ray.put(keys)

    orders = read_table(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]
    )

    def keep_orders(df: pd.DataFrame) -> pd.DataFrame:
        ks = cached_object(keys_ref)
        m = (df["o_orderdate"] < cut) & df["o_custkey"].isin(ks)
        out = df.loc[m, ["o_orderkey", "o_orderdate", "o_orderpriority"]].copy()
        out["o_orderkey"] = out["o_orderkey"].astype("int64")
        return out

    o_kept = orders.map_batches(keep_orders, batch_format="pandas")

    li = read_table(
        sf_dir, "lineitem", ["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"]
    )

    def li_rev(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] > cut]
        cents = (df["l_extendedprice"] * 100).round().astype("int64")
        dpct = (df["l_discount"] * 100).round().astype("int64")
        return pd.DataFrame(
            {
                "o_orderkey": df["l_orderkey"].astype("int64"),
                "rev_cents": (cents * (100 - dpct)) // 100,
            }
        )

    rev = li.map_batches(li_rev, batch_format="pandas")
    joined = cogroup_join(rev, o_kept, "o_orderkey")

    agg = bucketed_aggregate(
        joined,
        ["o_orderkey", "o_orderdate", "o_orderpriority"],
        {"revenue_cents": ("rev_cents", "sum")},
    )

    def block_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["revenue_cents", "o_orderdate", "o_orderkey"],
            ascending=[False, True, True],
        ).head(k)

    parts = agg.map_batches(block_topk, batch_format="pandas").to_pandas()
    return finish(
        parts,
        ["revenue_cents", "o_orderdate", "o_orderkey"],
        ascending=[False, True, True],
        head=k,
        columns=["o_orderkey", "o_orderdate", "o_orderpriority", "revenue_cents"],
        dtypes={"revenue_cents": "int64"},
    )


def q3_shipping_priority_sql(
    segment: str = "BUILDING", cutoff: str = "1998-01-01", k: int = 10
) -> str:
    return f"""
SELECT o_orderkey, o_orderdate, o_orderpriority,
       CAST(SUM((CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) // 100)
            AS BIGINT) AS revenue_cents
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = '{segment}'
  AND o_orderdate < TIMESTAMP '{cutoff}'
  AND l_shipdate  > TIMESTAMP '{cutoff}'
GROUP BY o_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue_cents DESC, o_orderdate, o_orderkey
LIMIT {k}
"""


def q5_local_supplier_volume(
    sf_dir: str,
    region: str = "ASIA",
    date_from: str = "1996-01-01",
    date_to: str = "1997-01-01",
) -> pa.Table:
    """TPC-H-Q5-flavored local-supplier volume: revenue per nation from
    lineitems where the CUSTOMER's nation equals the SUPPLIER's nation,
    restricted to one region and a one-year order window.

    Distributed shape — the lineitem x orders fact-fact cogroup is the
    one unavoidable shuffle; the two dimension sides are SIZE-GUARDED
    by ``broadcast.pull`` (paths tested equal):

    1. customer (region-filtered custkey -> nation map) broadcasts via
       ``ray.put`` when pulled and attaches to the date-filtered orders
       in-map (no shuffle); otherwise the same slim sides cogroup on
       custkey.
    2. lineitem (slim rev rows) JOIN step-1 on orderkey — both sides
       scale with the corpus, always a cogroup; output pre-sums per
       (suppkey, c_nat) inside each bucket so step 3 ships partials.
    3. supplier (region-filtered suppkey -> nation map, ~lineitem/600
       in TPC-H proportions) broadcast-attaches under the same rule,
       else cogroups; the local predicate c_nat == s_nat filters in
       the merge output and a 25-group fold finishes on nation name.
    """
    lo, hi = pd.Timestamp(date_from), pd.Timestamp(date_to)

    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    reg = pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pandas()
    keys = reg.loc[reg["r_name"] == region, "r_regionkey"]
    nat = nat[nat["n_regionkey"].isin(set(keys))]
    region_nations = set(int(k) for k in nat["n_nationkey"])
    name_by_key = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        lambda df: df.loc[
            (df["o_orderdate"] >= lo) & (df["o_orderdate"] < hi),
            ["o_orderkey", "o_custkey"],
        ].rename(columns={"o_custkey": "custkey"}),
        batch_format="pandas",
    )
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda df: df.loc[
            df["c_nationkey"].isin(region_nations), ["c_custkey", "c_nationkey"]
        ]
        .rename(columns={"c_custkey": "custkey", "c_nationkey": "c_nat"})
        .astype({"custkey": "int64", "c_nat": "int64"}),
        batch_format="pandas",
    ).materialize()
    if pulled := broadcast.pull(cust):
        (cdf,) = pulled
        c_ref = ray.put(dict(zip(cdf["custkey"].astype(int), cdf["c_nat"].astype(int))))

        def attach_cnat(df: pd.DataFrame) -> pd.DataFrame:
            cm = cached_object(c_ref)
            nats = df["custkey"].map(lambda k: cm.get(int(k)))
            out = df.assign(c_nat=nats).dropna(subset=["c_nat"])
            return pd.DataFrame(
                {
                    "orderkey": out["o_orderkey"].astype("int64"),
                    "c_nat": out["c_nat"].astype("int64"),
                }
            )

        o_c = orders.map_batches(attach_cnat, batch_format="pandas")
    else:
        o_c = cogroup_join(orders, cust, "custkey").map_batches(
            lambda df: df[["o_orderkey", "c_nat"]].rename(
                columns={"o_orderkey": "orderkey"}
            ),
            batch_format="pandas",
        )

    def li_slim(df: pd.DataFrame) -> pd.DataFrame:
        cents = (df["l_extendedprice"] * 100).round().astype("int64")
        dpct = (df["l_discount"] * 100).round().astype("int64")
        return pd.DataFrame(
            {
                "orderkey": df["l_orderkey"].astype("int64"),
                "suppkey": df["l_suppkey"].astype("int64"),
                "rev_cents": (cents * (100 - dpct)) // 100,
            }
        )

    li = read_table(
        sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(li_slim, batch_format="pandas")
    l_oc = cogroup_join(li, o_c, "orderkey").map_batches(
        lambda df: df.groupby(["suppkey", "c_nat"], sort=False)
        .agg(rev_cents=("rev_cents", "sum"), n_lineitems=("rev_cents", "size"))
        .reset_index(),
        batch_format="pandas",
    )

    supp = read_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
        lambda df: df.loc[
            df["s_nationkey"].isin(region_nations), ["s_suppkey", "s_nationkey"]
        ]
        .rename(columns={"s_suppkey": "suppkey", "s_nationkey": "s_nat"})
        .astype({"suppkey": "int64", "s_nat": "int64"}),
        batch_format="pandas",
    ).materialize()
    if pulled := broadcast.pull(supp):
        (sdf,) = pulled
        s_ref = ray.put(dict(zip(sdf["suppkey"].astype(int), sdf["s_nat"].astype(int))))

        def attach_snat(df: pd.DataFrame) -> pd.DataFrame:
            sm = cached_object(s_ref)
            nats = df["suppkey"].map(lambda k: sm.get(int(k)))
            return df.assign(s_nat=nats).dropna(subset=["s_nat"]).astype({"s_nat": "int64"})

        joined = l_oc.map_batches(attach_snat, batch_format="pandas")
    else:
        joined = cogroup_join(l_oc, supp, "suppkey")

    out = bucketed_aggregate(
        joined.map_batches(lambda df: df[df["c_nat"] == df["s_nat"]], batch_format="pandas"),
        ["s_nat"],
        {"revenue_cents": ("rev_cents", "sum"), "n_lineitems": ("n_lineitems", "sum")},
    ).to_pandas()
    out["n_name"] = out["s_nat"].map(name_by_key)
    return finish(
        out,
        ["revenue_cents", "n_name"],
        ascending=[False, True],
        columns=["n_name", "revenue_cents", "n_lineitems"],
        dtypes={"revenue_cents": "int64", "n_lineitems": "int64"},
    )


def q5_local_supplier_volume_sql(
    region: str = "ASIA",
    date_from: str = "1996-01-01",
    date_to: str = "1997-01-01",
) -> str:
    return f"""
SELECT n_name,
       CAST(SUM((CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) // 100)
            AS BIGINT) AS revenue_cents,
       COUNT(*) AS n_lineitems
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey
JOIN nation   ON s_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
WHERE r_name = '{region}'
  AND o_orderdate >= TIMESTAMP '{date_from}'
  AND o_orderdate <  TIMESTAMP '{date_to}'
GROUP BY n_name
ORDER BY revenue_cents DESC, n_name
"""


def q18_large_orders(
    sf_dir: str, min_qty: int = 200, k: int = 50
) -> pa.Table:
    """TPC-H-Q18-flavored large-volume customers: orders whose total
    lineitem quantity exceeds ``min_qty``, joined back to the order and
    its customer; top-``k`` by quantity.

    Distributed shape: the HAVING side is a bucketed per-orderkey
    quantity fold (one shuffle of slim (orderkey, qty) rows — the
    groupby-HAVING semi-join pattern where the qualifying key set is
    fact-sized and can never broadcast); qualifying keys then cogroup
    with orders on orderkey (one more slim shuffle); the customer name
    lookup is SIZE-GUARDED — broadcast attach when ``broadcast.pull``
    takes it, cogroup otherwise (paths tested equal).
    The final top-k folds blockwise local heads — the aggregate is
    never materialized whole. Quantities ride as exact int64 units."""

    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        lambda df: df.rename(columns={"l_orderkey": "o_orderkey"}), batch_format="pandas"
    )
    big = bucketed_aggregate(
        li, ["o_orderkey"], {"total_qty": ("l_quantity", "sum")}
    ).map_batches(
        lambda df: df.loc[df["total_qty"] > min_qty].assign(
            o_orderkey=lambda d: d["o_orderkey"].astype("int64"),
            total_qty=lambda d: d["total_qty"].round().astype("int64"),
        ),
        batch_format="pandas",
    )

    orders = read_table(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    ).map_batches(
        lambda df: pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].astype("int64"),
                "c_custkey": df["o_custkey"].astype("int64"),
                "o_orderdate": df["o_orderdate"],
                "price_cents": (df["o_totalprice"] * 100).round().astype("int64"),
            }
        ),
        batch_format="pandas",
    )
    bo = cogroup_join(big, orders, "o_orderkey")

    cust_read = read_table(sf_dir, "customer", ["c_custkey", "c_name"])
    if pulled := broadcast.pull(cust_read):
        (cdf,) = pulled
        c_ref = ray.put(dict(zip(cdf["c_custkey"].astype(int), cdf["c_name"])))

        def attach_name(df: pd.DataFrame) -> pd.DataFrame:
            cm = cached_object(c_ref)
            return df.assign(c_name=df["c_custkey"].map(lambda x: cm[int(x)]))

        joined = bo.map_batches(attach_name, batch_format="pandas")
    else:
        cust = cust_read.map_batches(
            lambda df: df.astype({"c_custkey": "int64"}), batch_format="pandas"
        )
        joined = cogroup_join(bo, cust, "c_custkey")

    order_cols = ["total_qty", "price_cents", "o_orderkey"]
    asc = [False, False, True]
    cols = ["c_name", "c_custkey", "o_orderkey", "o_orderdate", "price_cents", "total_qty"]

    def block_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(order_cols, ascending=asc).head(k)[cols]

    return finish(
        joined.map_batches(block_topk, batch_format="pandas").to_pandas(),
        order_cols,
        ascending=asc,
        head=k,
    )


def q18_large_orders_sql(min_qty: int = 200, k: int = 50) -> str:
    return f"""
SELECT c_name, c_custkey, o_orderkey, o_orderdate,
       CAST(ROUND(o_totalprice * 100) AS BIGINT) AS price_cents,
       CAST(ROUND(SUM(l_quantity)) AS BIGINT) AS total_qty
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON o_orderkey = l_orderkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
HAVING SUM(l_quantity) > {min_qty}
ORDER BY total_qty DESC, price_cents DESC, o_orderkey
LIMIT {k}
"""


def orders_with_returns_by_priority(sf_dir: str) -> pa.Table:
    """Semi-join exemplar (TPC-H-Q4 shape): count orders per
    o_orderpriority having AT LEAST ONE returned lineitem
    (l_returnflag = 'R').

    The EXISTS side never ships full lineitem rows: a slim one-column
    pass emits each returned orderkey once per batch, a bucketed
    distinct collapses them (one shuffle of slim keys), and the
    orders side cogroup-joins against that distinct key set (second
    shuffle) — the fact-fact semi-join pattern that works when the
    matching-key set is itself fact-sized and can never broadcast.
    Priority counts then fold partial-first into a 5-row table."""

    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])

    def returned_keys(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"o_orderkey": df.loc[df["l_returnflag"] == "R", "l_orderkey"].astype("int64")}
        )

    distinct = bucketed_aggregate(
        li.map_batches(returned_keys, batch_format="pandas"),
        ["o_orderkey"],
        {"n": ("o_orderkey", "count")},
    ).map_batches(lambda df: df[["o_orderkey"]], batch_format="pandas")

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = cogroup_join(orders, distinct, "o_orderkey")
    return finish(
        bucketed_aggregate(joined, ["o_orderpriority"], {"n_orders": ("o_orderkey", "count")})
        .to_pandas(),
        "o_orderpriority",
        dtypes={"n_orders": "int64"},
    )


ORDERS_WITH_RETURNS_SQL = """
SELECT o_orderpriority, COUNT(*) AS n_orders
FROM orders
WHERE EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def top_customers_by_nation(sf_dir: str, k: int = 3) -> pa.Table:
    """Grouped top-k: each nation's ``k`` highest-revenue customers
    (revenue = order total cents; ties by custkey asc) — the
    per-partition leaderboard shape (top-k per group, k > 1) that
    composes the per-customer fold, a customer->nation cogroup join,
    and blockwise partial top-k merged per nation.

    No stage holds more than (nations x k) rows after its local
    top-k; the customer fold and the join both move slim one-row-per-
    customer partials."""

    nat = pd.read_parquet(os.path.join(sf_dir, "nation.parquet"))
    nmap = {int(x): str(n) for x, n in zip(nat["n_nationkey"], nat["n_name"])}
    m_ref = ray.put(nmap)

    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def cents(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_custkey": df["o_custkey"].astype("int64"),
                "revenue_cents": (df["o_totalprice"] * 100).round().astype("int64"),
            }
        )

    totals = bucketed_aggregate(
        orders.map_batches(cents, batch_format="pandas"),
        ["c_custkey"],
        {"revenue_cents": ("revenue_cents", "sum")},
    )

    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = cogroup_join(totals, cust, "c_custkey")

    def block_topk(df: pd.DataFrame) -> pd.DataFrame:
        nm = cached_object(m_ref)
        df = df.dropna(subset=["revenue_cents", "c_nationkey"]).copy()
        df["n_name"] = df["c_nationkey"].map(lambda x: nm[int(x)])
        out = (
            df.sort_values(["n_name", "revenue_cents", "c_custkey"], ascending=[True, False, True])
            .groupby("n_name", sort=False)
            .head(k)
        )
        return out[["n_name", "c_custkey", "revenue_cents"]].astype(
            {"c_custkey": "int64", "revenue_cents": "int64"}
        )

    parts = joined.map_batches(block_topk, batch_format="pandas").to_pandas()
    out = (
        parts.sort_values(["n_name", "revenue_cents", "c_custkey"], ascending=[True, False, True])
        .groupby("n_name", sort=False)
        .head(k)
        .reset_index(drop=True)
    )
    return finish(out)


def top_customers_by_nation_sql(k: int = 3) -> str:
    return f"""
WITH t AS (
  SELECT o_custkey AS c_custkey,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS revenue_cents
  FROM orders GROUP BY o_custkey
)
SELECT n_name, c_custkey, revenue_cents
FROM t JOIN customer USING (c_custkey)
       JOIN nation ON c_nationkey = n_nationkey
QUALIFY ROW_NUMBER() OVER (PARTITION BY n_name
                           ORDER BY revenue_cents DESC, c_custkey) <= {k}
ORDER BY n_name, revenue_cents DESC, c_custkey
"""


def q10_returned_revenue(
    sf_dir: str,
    date_from: str = "1996-01-01",
    date_to: str = "1996-07-01",
    k: int = 20,
) -> pa.Table:
    """TPC-H-Q10-flavored returned-item reporting: per customer, the
    revenue lost to RETURNED lineitems (l_returnflag = 'R') on orders
    placed in the window; top-``k`` customers with their nation.

    Distributed shape: returned lineitems pre-sum per orderkey inside
    each batch (slim rev partials), cogroup with date-filtered orders
    on orderkey (fact-fact, one shuffle), then one bucketed aggregate
    per custkey; the
    customer (name, nation) lookup is SIZE-GUARDED — broadcast attach
    when ``broadcast.pull`` takes it, cogroup otherwise (paths tested
    equal); only the 25-row nation map is unconditionally driver-side.
    Top-k folds blockwise local heads, integer cents."""

    lo, hi = pd.Timestamp(date_from), pd.Timestamp(date_to)

    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    name_by_key = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))

    def li_returned(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_returnflag"] == "R"]
        cents = (df["l_extendedprice"] * 100).round().astype("int64")
        dpct = (df["l_discount"] * 100).round().astype("int64")
        part = pd.DataFrame(
            {
                "o_orderkey": df["l_orderkey"].astype("int64"),
                "lost_cents": (cents * (100 - dpct)) // 100,
            }
        )
        return (
            part.groupby("o_orderkey", sort=False)
            .agg(lost_cents=("lost_cents", "sum"))
            .reset_index()
        )

    li = read_table(
        sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"]
    ).map_batches(li_returned, batch_format="pandas")

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        lambda df: df.loc[
            (df["o_orderdate"] >= lo) & (df["o_orderdate"] < hi),
            ["o_orderkey", "o_custkey"],
        ].astype({"o_orderkey": "int64", "o_custkey": "int64"}),
        batch_format="pandas",
    )
    per_cust = cogroup_join(li, orders, "o_orderkey").map_batches(
        lambda df: df.rename(columns={"o_custkey": "c_custkey"}), batch_format="pandas"
    )
    agg = bucketed_aggregate(
        per_cust, ["c_custkey"], {"lost_cents": ("lost_cents", "sum")}
    )

    cust_read = read_table(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    if pulled := broadcast.pull(cust_read):
        (cdf,) = pulled
        c_ref = ray.put(
            {
                int(k_): (n_, int(nk))
                for k_, n_, nk in zip(
                    cdf["c_custkey"], cdf["c_name"], cdf["c_nationkey"]
                )
            }
        )

        def attach_cust(df: pd.DataFrame) -> pd.DataFrame:
            cm = cached_object(c_ref)
            looked = [cm[int(x)] for x in df["c_custkey"]]
            return df.assign(
                c_name=[x[0] for x in looked],
                c_nationkey=pd.Series(
                    [x[1] for x in looked], index=df.index, dtype="int64"
                ),
            )

        joined = agg.map_batches(attach_cust, batch_format="pandas")
    else:
        cust = cust_read.map_batches(
            lambda df: df.astype({"c_custkey": "int64", "c_nationkey": "int64"}),
            batch_format="pandas",
        )
        joined = cogroup_join(agg, cust, "c_custkey")

    order_cols = ["lost_cents", "c_custkey"]
    asc = [False, True]

    def block_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(order_cols, ascending=asc).head(k)

    out = (
        joined.map_batches(block_topk, batch_format="pandas")
        .to_pandas()
        .sort_values(order_cols, ascending=asc, ignore_index=True)
        .head(k)
    )
    out["n_name"] = out["c_nationkey"].map(name_by_key)
    return finish(
        out,
        columns=["c_custkey", "c_name", "n_name", "lost_cents"],
        dtypes={"lost_cents": "int64"},
    )


def q10_returned_revenue_sql(
    date_from: str = "1996-01-01", date_to: str = "1996-07-01", k: int = 20
) -> str:
    return f"""
SELECT c_custkey, c_name, n_name,
       CAST(SUM((CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) // 100)
            AS BIGINT) AS lost_cents
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN nation   ON c_nationkey = n_nationkey
WHERE l_returnflag = 'R'
  AND o_orderdate >= TIMESTAMP '{date_from}'
  AND o_orderdate <  TIMESTAMP '{date_to}'
GROUP BY c_custkey, c_name, n_name
ORDER BY lost_cents DESC, c_custkey
LIMIT {k}
"""


def part_supplier_diversity(sf_dir: str) -> pa.Table:
    """TPC-H-Q16-flavored supplier diversity: per (p_brand, p_type),
    how many DISTINCT suppliers have shipped such a part and how many
    DISTINCT parts of it circulate — the supply-concentration report
    (a brand/type served by one supplier is a single point of
    failure).

    Distributed shape: lineitem collapses to distinct
    (partkey, suppkey) pairs through the bucketed aggregate (slim int
    pairs — the pair domain is catalog-sized, far below lineitem);
    part dims attach via the
    size-guarded broadcast (part is ~lineitem/30; when
    ``broadcast.pull`` declines it the same slim sides cogroup on
    partkey). Each DISTINCT count is two chained bucketed aggregates:
    a distinct over (brand, type, suppkey) or (brand, type, partkey),
    whose catalog-sized rows are then counted per (brand, type); the
    two counts merge on the brand x type driver table (hundreds of
    rows)."""
    li = read_table(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    pairs = bucketed_aggregate(li, ["l_partkey", "l_suppkey"], {"n": ("l_suppkey", "count")})

    parts_read = read_table(sf_dir, "part", ["p_partkey", "p_brand", "p_type"])
    if pulled := broadcast.pull(parts_read):
        (pdf,) = pulled
        p_ref = ray.put(
            {
                int(k): (b, t)
                for k, b, t in zip(pdf["p_partkey"], pdf["p_brand"], pdf["p_type"])
            }
        )

        def attach(df: pd.DataFrame) -> pd.DataFrame:
            pm = cached_object(p_ref)
            bt = [pm[int(k)] for k in df["l_partkey"]]
            return pd.DataFrame(
                {
                    "p_brand": [x[0] for x in bt],
                    "p_type": [x[1] for x in bt],
                    "l_partkey": df["l_partkey"].astype("int64"),
                    "l_suppkey": df["l_suppkey"].astype("int64"),
                }
            )

        tagged = pairs.map_batches(attach, batch_format="pandas")
    else:
        parts_ds = parts_read.map_batches(
            lambda df: df.rename(columns={"p_partkey": "l_partkey"}).astype(
                {"l_partkey": "int64"}
            ),
            batch_format="pandas",
        )
        tagged = cogroup_join(
            pairs.map_batches(
                lambda df: df[["l_partkey", "l_suppkey"]], batch_format="pandas"
            ),
            parts_ds,
            "l_partkey",
        )
    # materialize once: the tagged pair table feeds BOTH distinct
    # counts — without this the lineitem distinct-pair fold re-executes
    # per consumer. Catalog-pair-bounded (partsupp domain), never
    # lineitem-sized.
    tagged = tagged.materialize()

    def count_distinct(ds, key_col, out_col):
        d = bucketed_aggregate(ds, ["p_brand", "p_type", key_col], {"n": (key_col, "count")})
        counts = bucketed_aggregate(d, ["p_brand", "p_type"], {out_col: (key_col, "count")})
        return counts.to_pandas()

    supp = count_distinct(tagged, "l_suppkey", "n_suppliers")
    prt = count_distinct(tagged, "l_partkey", "n_parts")
    return finish(
        supp.merge(prt, on=["p_brand", "p_type"]),
        ["n_suppliers", "p_brand", "p_type"],
        ascending=[False, True, True],
        columns=["p_brand", "p_type", "n_suppliers", "n_parts"],
        dtypes={"n_suppliers": "int64", "n_parts": "int64"},
    )


PART_SUPPLIER_DIVERSITY_SQL = """
SELECT p_brand, p_type,
       CAST(COUNT(DISTINCT l_suppkey) AS BIGINT) AS n_suppliers,
       CAST(COUNT(DISTINCT l_partkey) AS BIGINT) AS n_parts
FROM lineitem
JOIN part ON l_partkey = p_partkey
GROUP BY p_brand, p_type
ORDER BY n_suppliers DESC, p_brand, p_type
"""
