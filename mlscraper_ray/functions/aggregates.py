"""Relational aggregates over the testdata tables — the engine's
general groupby/join surface, written scale-first:

- **partial aggregation**: every groupby here pre-aggregates inside
  ``map_batches`` (one row per key per batch) before the shuffle, so
  the all-to-all exchange moves partials, not rows;
- **broadcast only true dimensions**: fixed-size tables (nation, 25
  rows) are read once, ``ray.put`` once, looked up per batch; sides
  that scale with the corpus (customer) go through the bucketed
  cogroup join instead — never a driver read;
- **exact-integer arithmetic**: money/values are aggregated as
  cents/milli BIGINTs (the corpus is cent-exact), so results
  hash-compare exactly against the DuckDB oracle regardless of float
  summation order.
"""
from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from mlscraper_ray.functions.tables import finish, md5_number_lower, read_table


def _cents(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    # pc.round is half-to-even while DuckDB ROUND is half-away-from-zero;
    # they differ only when x*100 lands EXACTLY on .5 as a double, which
    # cent-exact inputs cannot produce (x.xx5 is not cent-exact) — both
    # engines round the same double product, so the rule never fires on a
    # boundary. similarity._quantize, whose inputs are arbitrary floats,
    # uses the explicit floor(x*S + 0.5) rule instead.
    return pc.cast(pc.round(pc.multiply(col, pa.scalar(100.0))), pa.int64())


def q1_lineitem(sf_dir: str) -> pa.Table:
    """TPC-H-Q1-flavored pricing summary: per (returnflag, linestatus)
    over lineitems shipped before 1996-09-01. Partial-agg + tiny final
    groupby; output is exact-integer."""
    ds = read_table(
        sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_shipdate"]
    )
    cutoff = pa.scalar(np.datetime64("1996-09-01", "us"))

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less(batch["l_shipdate"], cutoff))
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty": pc.cast(batch["l_quantity"], pa.int64()),
                "base_cents": _cents(batch["l_extendedprice"]),
            }
        )
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("base_cents", "sum"), ("qty", "count")]
        )
        # select by NAME (not positional rename): aggregate column order
        # differed across pyarrow versions (keys-first vs aggregates-first)
        return pa.table(
            {
                "l_returnflag": g["l_returnflag"],
                "l_linestatus": g["l_linestatus"],
                "sum_qty": g["qty_sum"],
                "sum_base_cents": g["base_cents_sum"],
                "count_order": g["qty_count"],
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = (
        partials.groupby(["l_returnflag", "l_linestatus"])
        .sum(["sum_qty", "sum_base_cents", "count_order"])
        .to_pandas()
    )
    return finish(
        out.rename(
            columns={
                "sum(sum_qty)": "sum_qty",
                "sum(sum_base_cents)": "sum_base_cents",
                "sum(count_order)": "count_order",
            }
        ),
        ["l_returnflag", "l_linestatus"],
    )


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_base_cents,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate < TIMESTAMP '1996-09-01'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def revenue_by_nation(sf_dir: str) -> pa.Table:
    """Order revenue per customer nation.

    Customer scales with the corpus, so orders<->customer is a bucketed
    COGROUP join (one shuffle of slim partial rows), never a driver
    read: orders are partial-summed per custkey inside each batch
    first, joined to (custkey, nationkey) in hashed buckets, partial-
    summed again per nationkey per bucket, and only the 25-row nation
    name map is broadcast."""
    from mlscraper_ray.functions.joins import cogroup_join

    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"])
    nation_by_key = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()))

    def order_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"custkey": batch["o_custkey"], "revenue_cents": _cents(batch["o_totalprice"])})
        g = t.group_by("custkey").aggregate([("revenue_cents", "sum"), ("custkey", "count")])
        return pa.table(
            {"custkey": g["custkey"], "revenue_cents": g["revenue_cents_sum"], "n_orders": g["custkey_count"]}
        )

    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        order_partial, batch_format="pyarrow"
    )
    customer = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda t: pa.table({"custkey": t["c_custkey"], "nationkey": t["c_nationkey"]}),
        batch_format="pyarrow",
    )
    joined = cogroup_join(orders, customer, "custkey")

    def nation_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("nationkey").aggregate([("revenue_cents", "sum"), ("n_orders", "sum")])
        return pa.table(
            {
                "nationkey": pc.cast(g["nationkey"], pa.int64()),
                "revenue_cents": pc.cast(g["revenue_cents_sum"], pa.int64()),
                "n_orders": pc.cast(g["n_orders_sum"], pa.int64()),
            }
        )

    out = (
        joined.map_batches(nation_partial, batch_format="pyarrow")
        .groupby("nationkey")
        .sum(["revenue_cents", "n_orders"])
        .to_pandas()
        .rename(columns={"sum(revenue_cents)": "revenue_cents", "sum(n_orders)": "n_orders"})
    )
    out["n_name"] = out["nationkey"].map(nation_by_key)
    return finish(out, "n_name", columns=["n_name", "revenue_cents", "n_orders"])


REVENUE_BY_NATION_SQL = """
SELECT n_name,
       CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS revenue_cents,
       COUNT(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
ORDER BY n_name
"""


def events_by_type(sf_dir: str) -> pa.Table:
    """Per-event-type counts + milli-exact value sums + first/last ts."""
    ds = read_table(sf_dir, "events", ["event_type", "value", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "value_milli": pc.cast(pc.round(pc.multiply(batch["value"], pa.scalar(1000.0))), pa.int64()),
                "ts": batch["ts"],
            }
        )
        g = t.group_by("event_type").aggregate(
            [("value_milli", "sum"), ("ts", "min"), ("ts", "max"), ("event_type", "count")]
        )
        return pa.table(
            {
                "event_type": g["event_type"],
                "sum_value_milli": g["value_milli_sum"],
                "first_ts": g["ts_min"],
                "last_ts": g["ts_max"],
                "n_events": g["event_type_count"],
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = (
        partials.groupby("event_type")
        .aggregate(
            ray.data.aggregate.Sum("sum_value_milli", alias_name="sum_value_milli"),
            ray.data.aggregate.Min("first_ts", alias_name="first_ts"),
            ray.data.aggregate.Max("last_ts", alias_name="last_ts"),
            ray.data.aggregate.Sum("n_events", alias_name="n_events"),
        )
        .to_pandas()
    )
    return finish(out, "event_type")


EVENTS_BY_TYPE_SQL = """
SELECT event_type,
       CAST(SUM(CAST(ROUND(value*1000) AS BIGINT)) AS BIGINT) AS sum_value_milli,
       MIN(ts) AS first_ts,
       MAX(ts) AS last_ts,
       COUNT(*) AS n_events
FROM events
GROUP BY event_type
ORDER BY event_type
"""


def top_users_by_value(sf_dir: str, k: int = 25) -> pa.Table:
    """Sort/top-k over a wide groupby: per-user event value totals,
    top k by (total desc, user_id asc). A bucketed aggregate per user
    (user cardinality scales with the data), then ``Dataset.sort`` on
    the aggregated keyspace and a driver-side limit — the sort ranks
    one slim row per user, never raw events."""
    from mlscraper_ray.functions.bucketed import bucketed_aggregate

    ds = read_table(sf_dir, "events", ["user_id", "value"])

    def milli(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "value_milli": pc.cast(
                    pc.round(pc.multiply(batch["value"], pa.scalar(1000.0))), pa.int64()
                ),
            }
        )

    agg = (
        bucketed_aggregate(
            ds.map_batches(milli, batch_format="pyarrow"),
            ["user_id"],
            {"total_value_milli": ("value_milli", "sum"), "n_events": ("value_milli", "count")},
        )
        .sort([("total_value_milli"), ("user_id")], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    return finish(
        agg,
        columns=["user_id", "total_value_milli", "n_events"],
        dtypes={"total_value_milli": "int64", "n_events": "int64"},
    )


TOP_USERS_BY_VALUE_SQL = """
SELECT user_id,
       CAST(SUM(CAST(ROUND(value*1000) AS BIGINT)) AS BIGINT) AS total_value_milli,
       COUNT(*) AS n_events
FROM events
GROUP BY user_id
ORDER BY total_value_milli DESC, user_id
LIMIT 25
"""


def event_value_percentiles(sf_dir: str) -> pa.Table:
    """EXACT discrete percentiles (p50/p90/p99) of event value per
    event_type, computed distributed — no group ever holds one event
    per row.

    Values are milli-ints, so the quantile reduces to a COUNT
    HISTOGRAM: (event_type, value_milli) counts from the bucketed
    aggregate (distinct-value cardinality scales with the data), then
    per-type quantile selection from CUMULATIVE counts over the (small)
    histogram rows with DuckDB's quantile_disc index rule
    (``bucketed.quantiles_disc``), so the oracle matches exactly.
    Exactness survives scale: the final per-type group holds one row
    per DISTINCT value, not per event."""
    import pandas as pd

    from mlscraper_ray.functions.bucketed import bucketed_aggregate, quantiles_disc

    ds = read_table(sf_dir, "events", ["event_type", "value"])

    def milli(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "value_milli": pc.cast(
                    pc.round(pc.multiply(batch["value"], pa.scalar(1000.0))), pa.int64()
                ),
            }
        )

    hist = bucketed_aggregate(
        ds.map_batches(milli, batch_format="pyarrow"),
        ["event_type", "value_milli"],
        {"n": ("value_milli", "count")},
    )

    def pctl_from_hist(g: pd.DataFrame) -> pd.DataFrame:
        p50, p90, p99 = quantiles_disc(
            g["value_milli"].to_numpy("int64"), g["n"].to_numpy("int64"), (0.50, 0.90, 0.99)
        )
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "p50_milli": [p50],
                "p90_milli": [p90],
                "p99_milli": [p99],
                "n_events": [int(g["n"].sum())],
            }
        )

    return finish(
        hist.groupby("event_type").map_groups(pctl_from_hist, batch_format="pandas").to_pandas(),
        "event_type",
    )


def event_value_quantile_sketch(sf_dir: str, k: int = 256) -> pa.Table:
    """Bounded-memory quantile SKETCH per event_type: a KMV bottom-k
    sample (the k smallest md5(event_id) hashes per type — a uniform
    deterministic sample, mergeable by construction: min-k of a union
    is the min-k of the partial min-k's) with discrete quantiles read
    off the sorted sample. The sketch sibling of
    :func:`event_value_percentiles` — the exact histogram's state
    grows with distinct-VALUE cardinality, this stays at k rows per
    type no matter what the value column looks like (the trade is
    sampling error, pinned by test against the exact answer).

    Per-batch partials emit at most k sample rows + 1 count row per
    (batch, type); the final per-type combine re-takes the bottom-k
    of the partials. Deterministic in the DATA only (seedless md5
    rank, the repo's sampling idiom), so the DuckDB mirror reproduces
    the sample — and therefore the estimates — bit-for-bit."""
    import pandas as pd

    ds = read_table(sf_dir, "events", ["event_id", "event_type", "value"])

    def md5_low(ids: np.ndarray) -> np.ndarray:
        return np.array([md5_number_lower(str(i)) for i in ids], dtype=np.uint64)

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pandas(),
                "event_id": batch["event_id"].to_pandas().astype("int64"),
                "vm": pc.cast(
                    pc.round(pc.multiply(batch["value"], pa.scalar(1000.0))), pa.int64()
                ).to_pandas(),
            }
        )
        df["h"] = md5_low(df["event_id"].to_numpy())
        samp = (
            df.sort_values(["h", "event_id"])
            .groupby("event_type", as_index=False, sort=False)
            .head(k)
        )
        samp = samp.assign(kind=np.int8(0), n=np.int64(0))
        cnt = df.groupby("event_type", as_index=False).size()
        cnt = pd.DataFrame(
            {
                "event_type": cnt["event_type"],
                "event_id": np.int64(0),
                "vm": np.int64(0),
                "h": np.uint64(0),
                "kind": np.int8(1),
                "n": cnt["size"].astype("int64"),
            }
        )
        cols = ["event_type", "event_id", "vm", "h", "kind", "n"]
        return pd.concat([samp[cols], cnt[cols]], ignore_index=True)

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        n_events = int(g.loc[g["kind"] == 1, "n"].sum())
        s = g[g["kind"] == 0].sort_values(["h", "event_id"]).head(k)
        vs = np.sort(s["vm"].to_numpy(dtype="int64"))
        m = len(vs)
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "n_events": np.int64(n_events),
                "n_sample": np.int64(m),
                "p50_milli": np.int64(vs[(m - 1) * 50 // 100]),
                "p90_milli": np.int64(vs[(m - 1) * 90 // 100]),
                "p99_milli": np.int64(vs[(m - 1) * 99 // 100]),
            }
        )

    return finish(
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type").map_groups(finalize, batch_format="pandas").to_pandas(),
        "event_type",
    )


def event_value_quantile_sketch_sql(k: int = 256) -> str:
    return f"""
WITH e AS (
  SELECT event_type, event_id,
         md5_number_lower(CAST(event_id AS VARCHAR)) AS h,
         CAST(ROUND(value*1000) AS BIGINT) AS vm
  FROM events
),
cnt AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events FROM e GROUP BY event_type
),
samp AS (
  SELECT event_type, vm
  FROM e
  QUALIFY ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY h, event_id) <= {k}
),
ranked AS (
  SELECT event_type, vm,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY vm) AS rv,
         COUNT(*) OVER (PARTITION BY event_type) AS m
  FROM samp
)
SELECT c.event_type, c.n_events,
       CAST(ANY_VALUE(m) AS BIGINT) AS n_sample,
       CAST(MAX(CASE WHEN rv = (m-1)*50//100 + 1 THEN vm END) AS BIGINT) AS p50_milli,
       CAST(MAX(CASE WHEN rv = (m-1)*90//100 + 1 THEN vm END) AS BIGINT) AS p90_milli,
       CAST(MAX(CASE WHEN rv = (m-1)*99//100 + 1 THEN vm END) AS BIGINT) AS p99_milli
FROM ranked JOIN cnt c USING (event_type)
GROUP BY c.event_type, c.n_events
ORDER BY c.event_type
"""


EVENT_VALUE_PERCENTILES_SQL = """
SELECT event_type,
       quantile_disc(CAST(ROUND(value*1000) AS BIGINT), 0.50) AS p50_milli,
       quantile_disc(CAST(ROUND(value*1000) AS BIGINT), 0.90) AS p90_milli,
       quantile_disc(CAST(ROUND(value*1000) AS BIGINT), 0.99) AS p99_milli,
       COUNT(*) AS n_events
FROM events
GROUP BY event_type
ORDER BY event_type
"""


def q6_discount_revenue(sf_dir: str) -> pa.Table:
    """TPC-H-Q6-flavored forecast-revenue-change scan: lineitems
    shipped in 1996 with discount in the 5-7% band and quantity
    under 24; revenue delta = sum(extendedprice * discount).

    The cheapest possible distributed shape: column-pruned scan (3
    value columns + shipdate), per-batch vectorized filter, one-row
    integer partial per batch, one tiny driver fold — zero shuffles.
    Money follows the repo's cent-exact discipline: each float is
    quantized ONCE (extendedprice to cents, discount to integer
    percent), then the per-line product ``cents * dpct // 100`` is
    pure int64, so the sum hash-matches DuckDB regardless of
    summation order.  At 100 TB this is the canonical
    "predicate-pushdown + partial aggregate" probe: bytes leaving
    storage are 4 columns, bytes leaving each task are 16."""
    ds = read_table(
        sf_dir, "lineitem", ["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"]
    )
    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"))

    def partial(batch: pa.Table) -> pa.Table:
        dpct = _cents(batch["l_discount"])  # discount as integer percent
        mask = pc.and_(
            pc.and_(
                pc.and_(
                    pc.greater_equal(batch["l_shipdate"], lo),
                    pc.less(batch["l_shipdate"], hi),
                ),
                pc.and_(pc.greater_equal(dpct, pa.scalar(5)), pc.less_equal(dpct, pa.scalar(7))),
            ),
            pc.less(batch["l_quantity"], pa.scalar(24.0)),
        )
        kept = batch.filter(mask)
        kd = _cents(kept["l_discount"])
        rev = pc.divide(pc.multiply(_cents(kept["l_extendedprice"]), kd), pa.scalar(100))
        return pa.table(
            {
                "revenue_cents": pa.array([pc.sum(rev).as_py() or 0], pa.int64()),
                "n_lines": pa.array([kept.num_rows], pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = pa.table(
        {
            "revenue_cents": pa.array([int(parts["revenue_cents"].sum())], pa.int64()),
            "n_lines": pa.array([int(parts["n_lines"].sum())], pa.int64()),
        }
    )
    return out


Q6_DISCOUNT_REVENUE_SQL = """
SELECT CAST(SUM((CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                 * CAST(ROUND(l_discount * 100) AS BIGINT)) // 100) AS BIGINT)
         AS revenue_cents,
       COUNT(*) AS n_lines
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate <  TIMESTAMP '1997-01-01'
  AND CAST(ROUND(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
  AND l_quantity < 24
"""


def customer_rfm_segments(sf_dir: str) -> pa.Table:
    """RFM-style customer segmentation over orders: per customer the
    recency (year of last order), frequency (order count) and
    monetary total fold FIRST in the custkey-bucketed aggregate, then
    each customer row maps into a fixed (recency-year, frequency-band)
    segment and a second TINY aggregate emits the
    segment matrix (years x 4 bands rows). Fixed band edges — not
    data-dependent quantiles — keep the segmentation stable across
    snapshots (and SQL-mirrorable without ntile drift)."""
    from mlscraper_ray.functions.bucketed import bucketed_aggregate

    ds = read_table(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])

    def cents(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_custkey": df["o_custkey"].astype("int64"),
                "last_ts": df["o_orderdate"],
                "cents": (df["o_totalprice"] * 100).round().astype("int64"),
            }
        )

    per_cust = bucketed_aggregate(
        ds.map_batches(cents, batch_format="pandas"),
        ["o_custkey"],
        {"last_ts": ("last_ts", "max"), "n_orders": ("cents", "count"), "cents": ("cents", "sum")},
    )

    def to_segment(df: pd.DataFrame) -> pd.DataFrame:
        yr = pd.to_datetime(df["last_ts"]).dt.year.astype("int64")
        n = df["n_orders"].astype("int64")
        band = np.select([n >= 10, n >= 5, n >= 2], ["10+", "5-9", "2-4"], default="1")
        return pd.DataFrame(
            {"recency_year": yr, "freq_band": band, "cents": df["cents"].astype("int64")}
        )

    return finish(
        bucketed_aggregate(
            per_cust.map_batches(to_segment, batch_format="pandas"),
            ["recency_year", "freq_band"],
            {"n_customers": ("cents", "count"), "monetary_cents": ("cents", "sum")},
        ).to_pandas(),
        ["recency_year", "freq_band"],
        dtypes={"recency_year": "int64", "n_customers": "int64", "monetary_cents": "int64"},
    )


CUSTOMER_RFM_SEGMENTS_SQL = """
WITH per_cust AS (
    SELECT o_custkey,
           YEAR(MAX(o_orderdate)) AS recency_year,
           COUNT(*) AS n,
           CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents
    FROM orders GROUP BY o_custkey
)
SELECT CAST(recency_year AS BIGINT) AS recency_year,
       CASE WHEN n >= 10 THEN '10+' WHEN n >= 5 THEN '5-9'
            WHEN n >= 2 THEN '2-4' ELSE '1' END AS freq_band,
       COUNT(*) AS n_customers,
       CAST(SUM(cents) AS BIGINT) AS monetary_cents
FROM per_cust
GROUP BY recency_year, freq_band
ORDER BY recency_year, freq_band
"""


def orders_monthly_revenue(sf_dir: str) -> pa.Table:
    """Monthly order-revenue time series with month-over-month delta:
    the reporting primitive over the order stream. Distribution
    shape: one tiny bucketed aggregate over (year, month) integer
    rows (months are calendar-bounded, the table is
    dozens of rows at any corpus size) — the LAG fills in driver
    memory on the already-tiny series, exactly like the SQL mirror's
    window."""
    from mlscraper_ray.functions.bucketed import bucketed_aggregate

    ds = read_table(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def monthly(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.to_datetime(df["o_orderdate"])
        return pd.DataFrame(
            {
                "year": d.dt.year.astype("int64"),
                "month": d.dt.month.astype("int64"),
                "revenue_cents": (df["o_totalprice"] * 100).round().astype("int64"),
            }
        )

    series = (
        bucketed_aggregate(
            ds.map_batches(monthly, batch_format="pandas"),
            ["year", "month"],
            {"revenue_cents": ("revenue_cents", "sum"), "n_orders": ("revenue_cents", "count")},
        )
        .to_pandas()
        .sort_values(["year", "month"], ignore_index=True)
    )
    prev = series["revenue_cents"].shift()
    series["delta_cents"] = (
        (series["revenue_cents"] - prev).fillna(0).astype("int64")
    )
    return finish(
        series,
        columns=["year", "month", "n_orders", "revenue_cents", "delta_cents"],
        dtypes={"year": "int64", "month": "int64", "revenue_cents": "int64", "n_orders": "int64"},
    )


ORDERS_MONTHLY_REVENUE_SQL = """
WITH m AS (
  SELECT YEAR(o_orderdate) AS year, MONTH(o_orderdate) AS month,
         COUNT(*) AS n_orders,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS revenue_cents
  FROM orders GROUP BY 1, 2
)
SELECT CAST(year AS BIGINT) AS year, CAST(month AS BIGINT) AS month,
       n_orders, revenue_cents,
       CAST(COALESCE(revenue_cents - LAG(revenue_cents)
                     OVER (ORDER BY year, month), 0) AS BIGINT) AS delta_cents
FROM m
ORDER BY year, month
"""


def revenue_rollup(sf_dir: str) -> pa.Table:
    """OLAP ROLLUP over the region -> nation hierarchy: order revenue
    at nation grain PLUS region subtotals and the grand total in one
    table ('ALL' marks the rolled level — the GROUP BY ROLLUP shape).

    The distributed work is exactly the nation-grain aggregate (the
    :func:`revenue_by_nation` plan: per-custkey totals, one cogroup
    shuffle, 25-row broadcast dimension maps); the subtotal tiers
    derive from that hierarchy-bounded table in driver arithmetic —
    at ANY corpus size the rollup adds zero distributed passes, which
    is the point of rolling up along a dimension hierarchy."""
    from mlscraper_ray.functions.bucketed import bucketed_aggregate
    from mlscraper_ray.functions.joins import cogroup_join

    nat = pd.read_parquet(os.path.join(sf_dir, "nation.parquet"))
    reg = pd.read_parquet(os.path.join(sf_dir, "region.parquet"))
    rmap = {int(k): str(n) for k, n in zip(reg["r_regionkey"], reg["r_name"])}
    nmap = {
        int(k): (str(n), rmap[int(rk)])
        for k, n, rk in zip(nat["n_nationkey"], nat["n_name"], nat["n_regionkey"])
    }
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
        {"revenue_cents": ("revenue_cents", "sum"), "n_orders": ("revenue_cents", "count")},
    )
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = cogroup_join(totals, cust, "c_custkey")

    def to_nation(df: pd.DataFrame) -> pd.DataFrame:
        from mlscraper_ray.functions.broadcast import cached_object

        nm = cached_object(m_ref)
        df = df.dropna(subset=["revenue_cents", "c_nationkey"]).copy()
        nr = [nm[int(x)] for x in df["c_nationkey"]]
        df["nation"] = [x[0] for x in nr]
        df["region"] = [x[1] for x in nr]
        return df

    base = (
        bucketed_aggregate(
            joined.map_batches(to_nation, batch_format="pandas"),
            ["region", "nation"],
            {"n_orders": ("n_orders", "sum"), "revenue_cents": ("revenue_cents", "sum")},
        )
        .to_pandas()
        .astype({"n_orders": "int64", "revenue_cents": "int64"})
    )
    region_rows = (
        base.groupby("region", as_index=False)[["n_orders", "revenue_cents"]]
        .sum()
        .assign(nation="ALL")
    )
    total_row = pd.DataFrame(
        {
            "region": ["ALL"],
            "nation": ["ALL"],
            "n_orders": [base["n_orders"].sum()],
            "revenue_cents": [base["revenue_cents"].sum()],
        }
    )
    return finish(
        pd.concat([base, region_rows, total_row], ignore_index=True),
        ["region", "nation"],
        columns=["region", "nation", "n_orders", "revenue_cents"],
        dtypes={"n_orders": "int64", "revenue_cents": "int64"},
    )


REVENUE_ROLLUP_SQL = """
SELECT COALESCE(r_name, 'ALL') AS region, COALESCE(n_name, 'ALL') AS nation,
       COUNT(*) AS n_orders,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
         AS revenue_cents
FROM orders JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
GROUP BY ROLLUP (r_name, n_name)
ORDER BY region, nation
"""


def orders_repeat_rate(sf_dir: str) -> pa.Table:
    """Repeat-purchase rate per market segment: of each segment's
    customers WITH at least one order, how many ordered more than
    once (integer-milli rate) — the retention headline every commerce
    data card opens with.

    Distributed shape: per-custkey order counts fold through the
    coarse-bucket aggregate (slim int pairs); the segment lookup is
    SIZE-GUARDED — customer broadcast-attaches when ``broadcast.pull``
    takes it, else cogroups on custkey; segment roll-up is a 5-row
    fold."""
    from mlscraper_ray.functions import broadcast
    from mlscraper_ray.functions.broadcast import cached_object
    from mlscraper_ray.functions.bucketed import bucketed_aggregate
    from mlscraper_ray.functions.joins import cogroup_join

    orders = read_table(sf_dir, "orders", ["o_custkey"]).map_batches(
        lambda df: pd.DataFrame({"c_custkey": df["o_custkey"].astype("int64")}),
        batch_format="pandas",
    )
    per_cust = bucketed_aggregate(orders, ["c_custkey"], {"n_orders": ("c_custkey", "count")})

    cust_read = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    if pulled := broadcast.pull(cust_read):
        (cdf,) = pulled
        c_ref = ray.put(dict(zip(cdf["c_custkey"].astype(int), cdf["c_mktsegment"])))

        def attach(df: pd.DataFrame) -> pd.DataFrame:
            cm = cached_object(c_ref)
            return df.assign(
                c_mktsegment=df["c_custkey"].map(lambda k: cm[int(k)])
            )

        tagged = per_cust.map_batches(attach, batch_format="pandas")
    else:
        cust = cust_read.map_batches(
            lambda df: df.astype({"c_custkey": "int64"}), batch_format="pandas"
        )
        tagged = cogroup_join(per_cust, cust, "c_custkey")

    parts = tagged.map_batches(
        lambda df: df.assign(rep=(df["n_orders"] > 1).astype("int64")), batch_format="pandas"
    )
    out = (
        bucketed_aggregate(
            parts, ["c_mktsegment"], {"n_customers": ("rep", "count"), "n_repeat": ("rep", "sum")},
        )
        .to_pandas()
        .sort_values("c_mktsegment", ignore_index=True)
        .astype({"n_customers": "int64", "n_repeat": "int64"})
    )
    out["repeat_milli"] = (1000 * out["n_repeat"]) // out["n_customers"]
    return finish(out, columns=["c_mktsegment", "n_customers", "n_repeat", "repeat_milli"])


ORDERS_REPEAT_RATE_SQL = """
WITH per_cust AS (
    SELECT o_custkey AS c_custkey, COUNT(*) AS n_orders
    FROM orders GROUP BY o_custkey
)
SELECT c_mktsegment,
       COUNT(*) AS n_customers,
       CAST(SUM(CASE WHEN n_orders > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_repeat,
       CAST((1000 * SUM(CASE WHEN n_orders > 1 THEN 1 ELSE 0 END)) // COUNT(*)
            AS BIGINT) AS repeat_milli
FROM per_cust JOIN customer USING (c_custkey)
GROUP BY c_mktsegment
ORDER BY c_mktsegment
"""


def lineitem_discount_bands(sf_dir: str) -> pa.Table:
    """Discount-elasticity base table: per integer discount percent
    (0..10), lineitem count, total quantity and discounted revenue —
    the pricing-analysis scan (does volume rise where discounts
    deepen?). One bucketed aggregate over an 11-key domain (each block
    combines to at most 11 rows before the shuffle); money rides the
    integer-cents chain."""
    from mlscraper_ray.functions.bucketed import bucketed_aggregate

    ds = read_table(sf_dir, "lineitem", ["l_discount", "l_quantity", "l_extendedprice"])

    def discounted(df: pd.DataFrame) -> pd.DataFrame:
        dpct = (df["l_discount"] * 100).round().astype("int64")
        cents = (df["l_extendedprice"] * 100).round().astype("int64")
        return pd.DataFrame(
            {
                "discount_pct": dpct,
                "qty": df["l_quantity"].round().astype("int64"),
                "rev_cents": (cents * (100 - dpct)) // 100,
            }
        )

    return finish(
        bucketed_aggregate(
            ds.map_batches(discounted, batch_format="pandas"),
            ["discount_pct"],
            {
                "n_lineitems": ("qty", "count"),
                "total_qty": ("qty", "sum"),
                "revenue_cents": ("rev_cents", "sum"),
            },
        ).to_pandas(),
        "discount_pct",
        dtypes="int64",
    )


LINEITEM_DISCOUNT_BANDS_SQL = """
SELECT CAST(ROUND(l_discount * 100) AS BIGINT) AS discount_pct,
       COUNT(*) AS n_lineitems,
       CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS total_qty,
       CAST(SUM((CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) // 100)
            AS BIGINT) AS revenue_cents
FROM lineitem
GROUP BY 1
ORDER BY discount_pct
"""
