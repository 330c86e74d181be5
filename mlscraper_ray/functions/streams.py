"""Stream-shaped operators over the events table.

Ray Data has no event-time windows; the engine's contract (documented
per the guide) is: events are an ordered, key-partitioned log —
the log is co-partitioned on its key (``bucketed.co_partition``,
usually on ``user_id``) and windows are computed per bucket over the
ts-sorted rows of each key. All outputs are exact-integer so they
hash-compare against DuckDB window-function oracles.

Sessions have one rule, :func:`_sessions`: a session starts at a
user's first event or after a gap of more than ``gap_minutes``. Every
session operator is a function over its ``__sid`` column.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from mlscraper_ray.functions.bucketed import bucketed_aggregate, co_partition, quantiles_disc
from mlscraper_ray.functions.tables import finish, read_table


def _sessions(sf_dir: str, columns: list[str], gap_minutes: int, fn) -> ray.data.Dataset:
    """``fn`` over every user bucket of the ``events`` columns
    ``columns``, each bucket sorted by (user_id, ts, event_id if read)
    and given a bucket-wide session id ``__sid``: a session starts at a
    user's first event or where the gap from the previous event exceeds
    ``gap_minutes``. Tied timestamps share a session, so ``event_id``
    only orders the rows inside one."""
    gap = pd.Timedelta(minutes=gap_minutes)
    order = [c for c in ("user_id", "ts", "event_id") if c in columns]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order)
        prev = g.groupby("user_id")["ts"].shift()
        g["__sid"] = (prev.isna() | (g["ts"] - prev > gap)).cumsum()
        return fn(g)

    return co_partition(read_table(sf_dir, "events", columns), ["user_id"], per_bucket)


def sessionize(sf_dir: str, gap_minutes: int = 30) -> pa.Table:
    """Sessions and events per user under the :func:`_sessions` rule;
    a user's session ids are consecutive in its bucket."""

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("user_id")["__sid"].agg(["first", "last", "size"])
        return pd.DataFrame(
            {
                "user_id": s.index,
                "n_sessions": (s["last"] - s["first"] + 1).to_numpy("int64"),
                "n_events": s["size"].to_numpy("int64"),
            }
        )

    return finish(
        _sessions(sf_dir, ["user_id", "ts"], gap_minutes, per_user).to_pandas(),
        "user_id",
        columns=["user_id", "n_sessions", "n_events"],
        empty=pa.schema({"user_id": pa.int64(), "n_sessions": pa.int64(), "n_events": pa.int64()}),
    )


def sessionize_sql(gap_minutes: int = 30) -> str:
    return f"""
WITH flagged AS (
  SELECT user_id, ts,
         CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL {gap_minutes} MINUTE
              OR LAG(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM events
)
SELECT user_id, CAST(SUM(new_session) AS BIGINT) AS n_sessions, COUNT(*) AS n_events
FROM flagged GROUP BY user_id ORDER BY user_id
"""


def hourly_event_counts(sf_dir: str) -> pa.Table:
    """Tumbling 1-hour windows per event_type: count + milli-exact
    value sum. Window key computed per batch (vectorized floor), then
    one bucketed aggregate (window count scales with the covered time
    range)."""
    ds = read_table(sf_dir, "events", ["event_type", "ts", "value"])

    def windowed(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "window_start": pc.floor_temporal(batch["ts"], unit="hour"),
                "value_milli": pc.cast(pc.round(pc.multiply(batch["value"], pa.scalar(1000.0))), pa.int64()),
            }
        )

    return finish(
        bucketed_aggregate(
            ds.map_batches(windowed, batch_format="pyarrow"),
            ["event_type", "window_start"],
            {"sum_value_milli": ("value_milli", "sum"), "n_events": ("value_milli", "count")},
        ).to_pandas(),
        ["event_type", "window_start"],
        dtypes={"sum_value_milli": "int64", "n_events": "int64"},
    )


HOURLY_EVENT_COUNTS_SQL = """
SELECT event_type,
       date_trunc('hour', ts) AS window_start,
       CAST(SUM(CAST(ROUND(value*1000) AS BIGINT)) AS BIGINT) AS sum_value_milli,
       COUNT(*) AS n_events
FROM events
GROUP BY event_type, date_trunc('hour', ts)
ORDER BY event_type, window_start
"""


def top_event_per_user(sf_dir: str) -> pa.Table:
    """Each user's highest-value event (value desc, event_id asc
    tiebreak): co-partitioned on user_id, top-1 per user."""
    ds = read_table(sf_dir, "events", ["user_id", "event_id", "value"])

    def top1_per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["value", "event_id"], ascending=[False, True])
        g = g.groupby("user_id", as_index=False).head(1)
        return pd.DataFrame(
            {
                "user_id": g["user_id"].astype("int64"),
                "event_id": g["event_id"].astype("int64"),
                "value_milli": (g["value"] * 1000).round().astype("int64"),
            }
        )

    return finish(
        co_partition(ds, ["user_id"], top1_per_bucket).to_pandas(),
        "user_id",
    )


TOP_EVENT_PER_USER_SQL = """
SELECT user_id, event_id, CAST(ROUND(value*1000) AS BIGINT) AS value_milli
FROM (
  SELECT user_id, event_id, value,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY value DESC, event_id ASC) AS rn
  FROM events
)
WHERE rn = 1
ORDER BY user_id
"""


def sliding_window_counts(sf_dir: str, window_hours: int = 24, slide_hours: int = 6) -> pa.Table:
    """Sliding event-time windows per event_type (window_hours wide,
    sliding every slide_hours): each event belongs to
    window_hours/slide_hours windows. The explode happens per batch
    (numpy) and feeds the bucketed aggregate, which combines each
    block first — the shuffle carries one row per (type, window) per
    block, never per event. Window keys are
    epoch seconds (integer) so the DuckDB oracle compares bit-exact."""
    assert window_hours % slide_hours == 0
    k_windows = window_hours // slide_hours
    slide_s = slide_hours * 3600
    ds = read_table(sf_dir, "events", ["event_type", "ts", "value"])

    def exploded(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        slot = (df["ts"].astype("int64") // 1_000_000) // slide_s
        vm = (df["value"] * 1000).round().astype("int64")
        frames = []
        for k in range(k_windows):
            frames.append(
                pd.DataFrame(
                    {
                        "event_type": df["event_type"],
                        "window_start_epoch": (slot - k) * slide_s,
                        "vm": vm,
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    return finish(
        bucketed_aggregate(
            ds.map_batches(exploded, batch_format="pyarrow"),
            ["event_type", "window_start_epoch"],
            {"sum_value_milli": ("vm", "sum"), "n_events": ("vm", "count")},
        ).to_pandas(),
        ["event_type", "window_start_epoch"],
        dtypes={"sum_value_milli": "int64", "n_events": "int64"},
    )


def sliding_window_counts_sql(window_hours: int = 24, slide_hours: int = 6) -> str:
    k = window_hours // slide_hours
    s = slide_hours * 3600
    return f"""
WITH ev AS (
    SELECT event_type,
           CAST(epoch(ts) AS BIGINT) // {s} AS slot,
           CAST(ROUND(value * 1000) AS BIGINT) AS vm
    FROM events
),
exploded AS (
    SELECT event_type, (slot - t.k) * {s} AS window_start_epoch, vm
    FROM ev, UNNEST(generate_series(0, {k - 1})) AS t(k)
)
SELECT event_type, window_start_epoch,
       CAST(SUM(vm) AS BIGINT) AS sum_value_milli,
       COUNT(*) AS n_events
FROM exploded
GROUP BY event_type, window_start_epoch
ORDER BY event_type, window_start_epoch
"""


def events_decayed_value(
    sf_dir: str, halflife_hours: int = 72
) -> pa.Table:
    """Per-user recency-decayed engagement score — the freshness
    signal a recrawl scheduler feeds on (recent activity counts full,
    older activity halves every ``halflife_hours``). Integer-exact:
    each event contributes ``value_milli >> age_halflives`` (right
    shift = floor halving, associative across any batch structure),
    ``age_halflives = (ts_max - ts) // halflife`` in microseconds
    against the distributed global max timestamp. Returns (user_id,
    decayed_milli, n_events) ordered by user_id.

    Plan shape: one distributed max, one streaming pass emitting each
    event's contribution, one bucketed aggregate over the user keys.
    Nothing driver-sized."""
    hl_us = halflife_hours * 3_600 * 1_000_000
    ds = read_table(sf_dir, "events", ["user_id", "ts", "value"])
    mx = ds.max("ts")
    ts_max_us = pd.Timestamp(mx).value // 1_000

    def decayed(batch: pa.Table) -> pd.DataFrame:
        ts_us = batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
        vm = (
            pc.cast(pc.round(pc.multiply(batch["value"], pa.scalar(1000.0))), pa.int64())
            .to_numpy()
        )
        sh = (ts_max_us - ts_us) // hl_us
        contrib = np.where(sh >= 63, 0, vm >> np.minimum(sh, 62))
        return pd.DataFrame({"user_id": batch["user_id"].to_numpy(), "c": contrib.astype("int64")})

    return finish(
        bucketed_aggregate(
            ds.map_batches(decayed, batch_format="pyarrow"),
            ["user_id"],
            {"decayed_milli": ("c", "sum"), "n_events": ("c", "count")},
        ).to_pandas(),
        "user_id",
        dtypes="int64",
    )


def events_funnel(
    sf_dir: str,
    steps: tuple[str, ...] = ("view", "click", "purchase"),
    window_hours: int = 72,
) -> pa.Table:
    """Ordered funnel conversion: users whose first ``steps[0]`` is
    followed by a ``steps[1]`` within ``window_hours``, then a
    ``steps[2]`` within ``window_hours`` of that, etc. (each stage
    anchors on the EARLIEST qualifying event — the standard
    first-touch funnel). Returns one row per step: (step, event_type,
    n_users), n_users monotonically non-increasing.

    Plan shape: filter to the step types at the read, one shuffle
    keyed on user_id (co_partition), then the whole per-user
    timestamp chain is vectorized pandas merges inside each bucket;
    each bucket emits 3 partial-count rows, so the driver combine is
    O(buckets * steps) — nothing per-user ever leaves the cluster."""
    ds = read_table(sf_dir, "events", ["user_id", "ts", "event_type"])
    win = pd.Timedelta(hours=window_hours)
    step_set = list(steps)

    def step_events(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch["event_type"], value_set=pa.array(step_set)))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        prev: pd.Series | None = None
        for idx, step in enumerate(step_set):
            ev = g[g["event_type"] == step]
            if idx == 0:
                cur = ev.groupby("user_id", as_index=False)["ts"].min()
            else:
                # merge on COLUMNS only: an empty merge keeps the right
                # side's index NAME, which then collides with the
                # user_id column at groupby time (pandas ambiguity)
                m = ev.merge(prev.rename(columns={"ts": "t_prev"}), on="user_id")
                m = m[(m["ts"] >= m["t_prev"]) & (m["ts"] <= m["t_prev"] + win)]
                cur = m.groupby("user_id", as_index=False)["ts"].min()
            rows.append((idx + 1, step, len(cur)))
            prev = cur
        return pd.DataFrame(rows, columns=["step", "event_type", "n_users"])

    partials = (
        co_partition(
            ds.map_batches(step_events, batch_format="pyarrow"), ["user_id"], per_bucket
        ).to_pandas()
    )
    # every step row exists even on an empty/step-free corpus (the SQL
    # mirror's COUNT(*) CTEs emit 0-count rows unconditionally)
    base = pd.DataFrame(
        {"step": range(1, len(step_set) + 1), "event_type": step_set, "n_users": 0}
    )
    if len(partials):
        summed = partials.groupby(["step", "event_type"], as_index=False)["n_users"].sum()
        base = (
            pd.concat([base, summed], ignore_index=True)
            .groupby(["step", "event_type"], as_index=False)["n_users"]
            .sum()
        )
    return finish(
        base,
        "step",
        columns=["step", "event_type", "n_users"],
        dtypes={"step": "int64", "n_users": "int64"},
    )


def events_funnel_sql(
    steps: tuple[str, ...] = ("view", "click", "purchase"), window_hours: int = 72
) -> str:
    ctes = [
        f"t1 AS (SELECT user_id, MIN(ts) AS ts1 FROM events "
        f"WHERE event_type = '{steps[0]}' GROUP BY user_id)"
    ]
    for i in range(1, len(steps)):
        ctes.append(
            f"t{i + 1} AS (SELECT e.user_id, MIN(e.ts) AS ts{i + 1} "
            f"FROM events e JOIN t{i} USING (user_id) "
            f"WHERE e.event_type = '{steps[i]}' AND e.ts >= t{i}.ts{i} "
            f"AND e.ts <= t{i}.ts{i} + INTERVAL {window_hours} HOUR "
            f"GROUP BY e.user_id)"
        )
    selects = [
        f"SELECT {i + 1} AS step, '{s}' AS event_type, "
        f"CAST(COUNT(*) AS BIGINT) AS n_users FROM t{i + 1}"
        for i, s in enumerate(steps)
    ]
    return "WITH " + ",\n".join(ctes) + "\n" + "\nUNION ALL ".join(selects) + "\nORDER BY step"


def events_retention(sf_dir: str) -> pa.Table:
    """Cohort retention: users grouped by first-activity day (epoch
    days, integer), counted once per (cohort, day-offset) they were
    active on. The classic triangle retention table.

    Plan shape: one shuffle keyed on user_id; first-day AND distinct
    active days are both computed inside the same bucket group (no
    second shuffle to join the cohort back), partials are per-bucket
    (cohort_day, day_offset) counts — distinct users never collide
    across buckets because the bucket key IS the user — then one
    coarse-bucket sum over the tiny cohort x offset key space."""
    ds = read_table(sf_dir, "events", ["user_id", "ts"])
    us_per_day = 86_400_000_000

    def add_day(batch: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()), us_per_day)
        return pa.table({"user_id": batch["user_id"], "day": day})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d0 = g.groupby("user_id")["day"].min().rename("d0")
        act = g.drop_duplicates(["user_id", "day"]).merge(
            d0, left_on="user_id", right_index=True
        )
        out = (
            act.assign(day_offset=act["day"] - act["d0"])
            .groupby(["d0", "day_offset"], as_index=False)
            .size()
        )
        return pd.DataFrame(
            {
                "cohort_day": out["d0"].astype("int64"),
                "day_offset": out["day_offset"].astype("int64"),
                "n_users": out["size"].astype("int64"),
            }
        )

    partials = co_partition(
        ds.map_batches(add_day, batch_format="pyarrow"), ["user_id"], per_bucket
    )
    return finish(
        bucketed_aggregate(
            partials, ["cohort_day", "day_offset"], {"n_users": ("n_users", "sum")}
        ).to_pandas(),
        ["cohort_day", "day_offset"],
        dtypes="int64",
    )


EVENTS_RETENTION_SQL = """
WITH e AS (
    SELECT user_id, epoch_us(ts) // 86400000000 AS day FROM events
),
f AS (SELECT user_id, MIN(day) AS d0 FROM e GROUP BY user_id),
act AS (
    SELECT DISTINCT e.user_id, f.d0, e.day - f.d0 AS day_offset
    FROM e JOIN f USING (user_id)
)
SELECT d0 AS cohort_day, day_offset, CAST(COUNT(*) AS BIGINT) AS n_users
FROM act GROUP BY d0, day_offset ORDER BY cohort_day, day_offset
"""


def events_decayed_value_sql(halflife_hours: int = 72) -> str:
    hl_us = halflife_hours * 3_600 * 1_000_000
    return f"""
WITH e AS (
    SELECT user_id,
           CAST(ROUND(value * 1000) AS BIGINT) AS vm,
           (epoch_us((SELECT MAX(ts) FROM events)) - epoch_us(ts)) // {hl_us} AS sh
    FROM events
)
SELECT user_id,
       CAST(SUM(CASE WHEN sh >= 63 THEN 0 ELSE vm >> sh END) AS BIGINT) AS decayed_milli,
       COUNT(*) AS n_events
FROM e GROUP BY user_id ORDER BY user_id
"""


def session_paths(sf_dir: str, gap_minutes: int = 30, depth: int = 3) -> pa.Table:
    """Top-of-session event-type SEQUENCES — the entry-path mining
    behind funnel design: sessions under the :func:`_sessions` rule,
    in (ts, event_id) order for deterministic same-timestamp ties;
    each session's first ``depth`` event types form a '>'-joined path,
    counted per path. The path space is bounded by
    |event_types|^depth, so the result is a small table regardless of
    corpus size. Returns (path, n_sessions) ordered by path.

    Distributed plan: user-hash buckets (one shuffle), local path
    counts inside each bucket group, then the tiny coarse-bucket
    path-count sum."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        head = g[g.groupby("__sid").cumcount() < depth]
        counts = head.groupby("__sid")["event_type"].agg(">".join).value_counts()
        return pd.DataFrame({"path": counts.index.astype(str), "n": counts.to_numpy("int64")})

    local = _typed_sessions(
        "session_paths", sf_dir, ["user_id", "ts", "event_id", "event_type"], gap_minutes, per_bucket
    )
    out = bucketed_aggregate(local, ["path"], {"n_sessions": ("n", "sum")}).to_pandas()
    return finish(
        out,
        "path",
        columns=["path", "n_sessions"],
        dtypes={"n_sessions": "int64"},
        empty=pa.schema({"path": pa.string(), "n_sessions": pa.int64()}),
    )


def session_paths_sql(gap_minutes: int = 30, depth: int = 3) -> str:
    return f"""
WITH ordered AS (
  SELECT user_id, ts, event_id, event_type,
         CASE WHEN LAG(ts) OVER w IS NULL
                OR ts - LAG(ts) OVER w > INTERVAL {gap_minutes} MINUTE
              THEN 1 ELSE 0 END AS ns
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
sess AS (
  SELECT user_id, ts, event_id, event_type,
         SUM(ns) OVER (PARTITION BY user_id ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING) AS sid
  FROM ordered
),
ranked AS (
  SELECT user_id, sid, event_type, ts, event_id,
         ROW_NUMBER() OVER (PARTITION BY user_id, sid ORDER BY ts, event_id) AS rk
  FROM sess
),
paths AS (
  SELECT user_id, sid, string_agg(event_type, '>' ORDER BY rk) AS path
  FROM ranked WHERE rk <= {depth} GROUP BY user_id, sid
)
SELECT path, COUNT(*) AS n_sessions FROM paths GROUP BY path ORDER BY path
"""


SPIKE_MIN_COUNT = 10


def events_rate_anomaly(sf_dir: str, min_count: int = SPIKE_MIN_COUNT) -> pa.Table:
    """Per-type hourly rate-spike detection over the DENSE hour
    series — the stream-monitoring operator next to the windowed
    counts: every hour from each type's first to its last (missing
    hours count 0), ``prev_max3`` = the max count over the up-to-3
    preceding hours, and ``is_spike`` = 1 when the hour has a full
    3-hour lookback, at least ``min_count`` events, and
    ``2 * count >= 3 * prev_max3`` (count >= 1.5x the recent peak —
    integer-exact, no float rate math).

    One (event_type, hour) count shuffle (the hourly-counts plan);
    densification + the rolling max run inside one type-bucketed
    group (series length = covered hours, bounded by time range, not
    event count)."""
    ds = read_table(sf_dir, "events", ["event_type", "ts"])

    def hourly(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"event_type": batch["event_type"], "h": pc.floor_temporal(batch["ts"], unit="hour")}
        )

    counts = bucketed_aggregate(
        ds.map_batches(hourly, batch_format="pyarrow"),
        ["event_type", "h"],
        {"cnt": ("h", "count")},
    )

    def detect(g: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for etype, grp in g.groupby("event_type", sort=False):
            ser = (
                grp.set_index("h")["cnt"]
                .reindex(
                    pd.date_range(grp["h"].min(), grp["h"].max(), freq="h"),
                    fill_value=0,
                )
                .astype("int64")
            )
            pm = (
                ser.shift(1)
                .rolling(3, min_periods=1)
                .max()
                .fillna(0)
                .astype("int64")
            )
            full = pd.Series(range(len(ser)), index=ser.index) >= 3
            spike = (
                full & (ser >= min_count) & (2 * ser >= 3 * pm)
            ).astype("int64")
            frames.append(
                pd.DataFrame(
                    {
                        "event_type": etype,
                        "window_start": ser.index,
                        "n_events": ser.values,
                        "prev_max3": pm.values,
                        "is_spike": spike.values,
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    return finish(
        co_partition(counts, ["event_type"], detect).to_pandas(),
        ["event_type", "window_start"],
        dtypes={"window_start": "datetime64[us]"},
    )


def events_rate_anomaly_sql(min_count: int = SPIKE_MIN_COUNT) -> str:
    return f"""
WITH c AS (
    SELECT event_type, date_trunc('hour', ts) AS h, COUNT(*) AS cnt
    FROM events GROUP BY event_type, date_trunc('hour', ts)
),
rng AS (SELECT event_type, MIN(h) AS h0, MAX(h) AS h1 FROM c GROUP BY event_type),
dense AS (
    SELECT event_type, unnest(generate_series(h0, h1, INTERVAL 1 HOUR)) AS h
    FROM rng
),
d AS (
    SELECT dense.event_type, dense.h, COALESCE(c.cnt, 0) AS n_events
    FROM dense LEFT JOIN c ON c.event_type = dense.event_type AND c.h = dense.h
),
w AS (
    SELECT event_type, h, n_events,
           MAX(n_events) OVER (PARTITION BY event_type ORDER BY h
               ROWS BETWEEN 3 PRECEDING AND 1 PRECEDING) AS pm,
           ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY h) AS rn
    FROM d
)
SELECT event_type, h AS window_start,
       CAST(n_events AS BIGINT) AS n_events,
       CAST(COALESCE(pm, 0) AS BIGINT) AS prev_max3,
       CAST(CASE WHEN rn > 3 AND n_events >= {min_count}
                  AND 2 * n_events >= 3 * COALESCE(pm, 0)
             THEN 1 ELSE 0 END AS BIGINT) AS is_spike
FROM w
ORDER BY event_type, window_start
"""


EVENTS_RATE_ANOMALY_SQL = events_rate_anomaly_sql()


def _typed_sessions(op: str, sf_dir: str, columns: list[str], gap_minutes: int, fn) -> ray.data.Dataset:
    """:func:`_sessions` for the operators over ``event_type``, which
    assume every event has one: a null type fails the bucket with an
    error that names the operator ``op``, not a ``TypeError`` from
    sorting or joining types."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if g["event_type"].isna().any():
            raise ValueError(
                f"{op}: events.event_type holds a null; the session type"
                " operators need a non-null event_type on every event"
            )
        return fn(g)

    return _sessions(sf_dir, columns, gap_minutes, per_bucket)


def _session_type_counts(op: str, sf_dir: str, gap_minutes: int) -> pd.DataFrame:
    """Session counts by the event types a session holds, under the
    :func:`_sessions` rule: one (n_types, t1, t2, n) row per kind,
    ``(0, "", "", sessions)``, ``(1, type, "", sessions holding it)``
    and ``(2, a, b, sessions holding both)`` for a < b; ``n_types``
    tells the kinds apart, so any string, ``""`` too, is a type. Each
    session counts its DISTINCT types once, whatever their order, so
    ties need no id tie-break. The rows are bounded by the type-pair
    cardinality; each user bucket emits its partial counts and the
    driver folds them."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cnt: Counter[tuple[int, str, str]] = Counter()
        for _, types in g.groupby("__sid", sort=False)["event_type"]:
            st = sorted(set(types))
            cnt[(0, "", "")] += 1
            cnt.update((1, t, "") for t in st)
            cnt.update((2, a, b) for a, b in combinations(st, 2))
        return pd.DataFrame([(*k, n) for k, n in cnt.items()], columns=["n_types", "t1", "t2", "n"])

    parts = _typed_sessions(op, sf_dir, ["user_id", "ts", "event_type"], gap_minutes, per_bucket)
    # no events: no bucket, so a frame without columns
    parts = parts.to_pandas().reindex(columns=["n_types", "t1", "t2", "n"])
    return parts.groupby(["n_types", "t1", "t2"], as_index=False)["n"].sum().astype({"n": "int64"})


def session_type_pairs(sf_dir: str, gap_minutes: int = 30) -> pa.Table:
    """Co-occurring event-type pairs per session — the association
    signal next to the path mining: each session contributes its
    DISTINCT unordered type pairs once (:func:`_session_type_counts`),
    and the output counts sessions per pair. Output is bounded by the
    type-pair cardinality, never by event count."""
    counts = _session_type_counts("session_type_pairs", sf_dir, gap_minutes)
    return finish(
        counts[counts["n_types"] == 2].rename(columns={"n": "n_sessions"}),
        ["t1", "t2"],
        columns=["t1", "t2", "n_sessions"],
        empty=pa.schema({"t1": pa.string(), "t2": pa.string(), "n_sessions": pa.int64()}),
    )


def session_type_pairs_sql(gap_minutes: int = 30) -> str:
    return f"""
WITH flagged AS (
    SELECT user_id, ts, event_type,
           CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)
                     > INTERVAL {gap_minutes} MINUTE
                OR LAG(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                THEN 1 ELSE 0 END AS ns
    FROM events
),
s AS (
    SELECT user_id, event_type,
           SUM(ns) OVER (PARTITION BY user_id ORDER BY ts
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS sid
    FROM flagged
),
p AS (SELECT DISTINCT user_id, sid, event_type FROM s),
pr AS (
    SELECT a.event_type AS t1, b.event_type AS t2
    FROM p a JOIN p b
      ON a.user_id = b.user_id AND a.sid = b.sid
     AND a.event_type < b.event_type
)
SELECT t1, t2, COUNT(*) AS n_sessions
FROM pr GROUP BY t1, t2
ORDER BY t1, t2
"""


SESSION_TYPE_PAIRS_SQL = session_type_pairs_sql()


def events_props_stats(sf_dir: str) -> pa.Table:
    """Semi-structured payload aggregation — the JSON-props capability
    every event pipeline needs (the ``props`` column is a JSON object;
    real logs carry nested payloads): parse ``$.k`` per event and roll
    up per event_type the count, sum/min/max and the EXACT distinct-k
    count. Parsing happens inside the batch map (the string-kernel hot
    path, like tokenization); distinct-k folds as (type, k) counts in
    a bucketed aggregate — bounded by the value domain, not the event
    count — then a tiny per-type aggregate. Events with no parseable
    ``k`` count into n_missing and are excluded from the numeric
    rolls; as in ``EVENTS_PROPS_STATS_SQL``, only a JSON integer in
    BIGINT range is a ``k`` (not ``1.5``, ``"3"``, ``1e2``, ``true`` or
    2**63)."""
    import json

    ds = read_table(sf_dir, "events", ["event_type", "props"])

    def parsed_k(batch: pd.DataFrame) -> pd.DataFrame:
        ks, has_k = [], []
        for props in batch["props"]:
            k = None
            try:
                v = json.loads(props or "")
                # bool is an int subclass: type(), not isinstance()
                if isinstance(v, dict) and type(v.get("k")) is int and -(2**63) <= v["k"] < 2**63:
                    k = v["k"]
            except (ValueError, TypeError):
                pass
            has_k.append(k is not None)
            ks.append(0 if k is None else k)
        # missing k is SQL's NULL: its own key column, so every int
        # (negative ones too) is a value. Not a null k: Ray hands a
        # null-holding int column to pandas as float64, which would
        # merge distinct k above 2**53.
        return pd.DataFrame(
            {
                "event_type": batch["event_type"].astype(str),
                "has_k": pd.Series(has_k, dtype="bool"),
                "k": pd.Series(ks, dtype="int64"),
            }
        )

    # (type, k) counts: k's domain bounds this table, not event count
    agg = bucketed_aggregate(
        ds.map_batches(parsed_k, batch_format="pandas"), ["event_type", "has_k", "k"], {"n": ("k", "count")}
    ).to_pandas()
    out_rows = []
    for et, grp in agg.groupby("event_type"):
        ks = grp[grp["has_k"]]
        n_missing = int(grp.loc[~grp["has_k"], "n"].sum())
        n = int(ks["n"].sum())
        if n:
            out_rows.append(
                (
                    str(et),
                    n,
                    n_missing,
                    int((ks["k"] * ks["n"]).sum()),
                    int(ks["k"].min()),
                    int(ks["k"].max()),
                    int(len(ks)),
                )
            )
        else:
            out_rows.append((str(et), 0, n_missing, 0, 0, 0, 0))
    out_rows.sort()
    cols = ["n_events", "n_missing", "sum_k", "min_k", "max_k", "n_distinct_k"]
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in out_rows], pa.string()),
            **{
                c: pa.array([r[i + 1] for r in out_rows], pa.int64())
                for i, c in enumerate(cols)
            },
        }
    )


# DuckDB types a non-negative JSON integer UBIGINT and a negative one
# BIGINT; TRY_CAST drops a UBIGINT above the BIGINT range
EVENTS_PROPS_STATS_SQL = """
WITH p AS (
    SELECT event_type,
           CASE WHEN json_type(props, '$.k') IN ('BIGINT', 'UBIGINT')
                THEN TRY_CAST(json_extract(props, '$.k') AS BIGINT) END AS k
    FROM events
)
SELECT event_type,
       CAST(COUNT(k) AS BIGINT) AS n_events,
       CAST(COUNT(*) - COUNT(k) AS BIGINT) AS n_missing,
       CAST(COALESCE(SUM(k), 0) AS BIGINT) AS sum_k,
       CAST(COALESCE(MIN(k), 0) AS BIGINT) AS min_k,
       CAST(COALESCE(MAX(k), 0) AS BIGINT) AS max_k,
       CAST(COUNT(DISTINCT k) AS BIGINT) AS n_distinct_k
FROM p
GROUP BY event_type
ORDER BY event_type
"""


def events_markov_transitions(sf_dir: str, gap_minutes: int = 30) -> pa.Table:
    """First-order event-type transition counts WITHIN sessions — the
    full Markov matrix next to the top-path mining: consecutive event
    pairs in (ts, event_id) order (the session_paths tie-break),
    sessions split by the standard gap rule. Output is bounded by the
    type-pair cardinality.

    One user-bucket shuffle (:func:`_sessions`) pairs each event with
    the next one of its session and counts the pairs; a tiny
    coarse-bucket aggregate folds the partials."""

    def transitions(g: pd.DataFrame) -> pd.DataFrame:
        nxt = g.groupby("__sid", sort=False)["event_type"].shift(-1)
        pairs = pd.DataFrame({"t_from": g["event_type"], "t_to": nxt}).dropna()
        return pairs.groupby(["t_from", "t_to"], as_index=False, sort=False).size()

    return finish(
        bucketed_aggregate(
            _typed_sessions(
                "events_markov_transitions",
                sf_dir,
                ["user_id", "ts", "event_id", "event_type"],
                gap_minutes,
                transitions,
            ),
            ["t_from", "t_to"],
            {"n_transitions": ("size", "sum")},
        ).to_pandas(),
        ["t_from", "t_to"],
        dtypes={"n_transitions": "int64"},
        empty=pa.schema({"t_from": pa.string(), "t_to": pa.string(), "n_transitions": pa.int64()}),
    )


def events_markov_transitions_sql(gap_minutes: int = 30) -> str:
    return f"""
WITH flagged AS (
    SELECT user_id, ts, event_id, event_type,
           CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                     > INTERVAL {gap_minutes} MINUTE
                OR LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) IS NULL
                THEN 1 ELSE 0 END AS ns
    FROM events
),
s AS (
    SELECT user_id, ts, event_id, event_type,
           SUM(ns) OVER (PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS sid
    FROM flagged
),
tr AS (
    SELECT event_type AS t_from,
           LEAD(event_type) OVER (PARTITION BY user_id, sid
                                  ORDER BY ts, event_id) AS t_to
    FROM s
)
SELECT t_from, t_to, COUNT(*) AS n_transitions
FROM tr WHERE t_to IS NOT NULL
GROUP BY t_from, t_to
ORDER BY t_from, t_to
"""


EVENTS_MARKOV_TRANSITIONS_SQL = events_markov_transitions_sql()


def events_user_lifetime_stats(sf_dir: str) -> pa.Table:
    """Per-user lifetime roll-up — the cohort/LTV base table: first
    and last event time, span in hours (floor), distinct active days,
    event count and milli-exact value total. Two chained bucketed
    aggregates: per (user, day), then per user over those distinct
    (user, day) rows, whose count is the active days."""
    ds = read_table(sf_dir, "events", ["user_id", "ts", "value"])

    def daily(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "user_id": batch["user_id"].to_pandas(),
                "ts": batch["ts"].to_pandas(),
                # pc.round like hourly_event_counts — the established
                # value-milli pairing with the SQL ROUND
                "value_milli": pc.cast(
                    pc.round(pc.multiply(batch["value"], pa.scalar(1000.0))),
                    pa.int64(),
                ).to_pandas(),
            }
        )
        df["day"] = df["ts"].dt.floor("D")
        return df

    per_day = bucketed_aggregate(
        ds.map_batches(daily, batch_format="pyarrow"),
        ["user_id", "day"],
        {
            "first_ts": ("ts", "min"),
            "last_ts": ("ts", "max"),
            "n_events": ("ts", "count"),
            "sum_value_milli": ("value_milli", "sum"),
        },
    )
    out = (
        bucketed_aggregate(
            per_day,
            ["user_id"],
            {
                "first_ts": ("first_ts", "min"),
                "last_ts": ("last_ts", "max"),
                "n_active_days": ("day", "count"),
                "n_events": ("n_events", "sum"),
                "sum_value_milli": ("sum_value_milli", "sum"),
            },
        )
        .to_pandas()
        .sort_values("user_id", ignore_index=True)
    )
    # whole microseconds // 1h, exactly as EVENTS_USER_LIFETIME_SQL:
    # flooring date_diff('second') there would count second-boundary
    # crossings, not the span (3599.2 s across an hour mark -> 1 h)
    span_us = (out["last_ts"] - out["first_ts"]).astype("timedelta64[us]").astype("int64")
    out["span_hours"] = (span_us // 3_600_000_000).astype("int64")
    for c in ("n_active_days", "n_events", "sum_value_milli"):
        out[c] = out[c].astype("int64")
    out["first_ts"] = out["first_ts"].astype("datetime64[us]")
    out["last_ts"] = out["last_ts"].astype("datetime64[us]")
    cols = [
        "user_id",
        "first_ts",
        "last_ts",
        "span_hours",
        "n_active_days",
        "n_events",
        "sum_value_milli",
    ]
    return finish(out, columns=cols)


EVENTS_USER_LIFETIME_SQL = """
SELECT user_id,
       MIN(ts) AS first_ts,
       MAX(ts) AS last_ts,
       CAST(date_diff('microsecond', MIN(ts), MAX(ts)) // 3600000000 AS BIGINT)
           AS span_hours,
       CAST(COUNT(DISTINCT date_trunc('day', ts)) AS BIGINT) AS n_active_days,
       COUNT(*) AS n_events,
       CAST(SUM(CAST(ROUND(value * 1000) AS BIGINT)) AS BIGINT) AS sum_value_milli
FROM events
GROUP BY user_id
ORDER BY user_id
"""


def events_hour_of_day_profile(sf_dir: str) -> pa.Table:
    """Diurnal seasonality profile: per (event_type, hour-of-day 0-23)
    the event count and milli-exact value sum — the load-shape table
    capacity planning and anomaly baselines read (distinct from the
    hourly timeline: this folds ACROSS days). One bucketed aggregate
    over a 24 x types output."""
    ds = read_table(sf_dir, "events", ["event_type", "ts", "value"])

    def hourly(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "hour_of_day": pc.cast(pc.hour(batch["ts"]), pa.int64()),
                "value_milli": pc.cast(
                    pc.round(pc.multiply(batch["value"], pa.scalar(1000.0))), pa.int64()
                ),
            }
        )

    return finish(
        bucketed_aggregate(
            ds.map_batches(hourly, batch_format="pyarrow"),
            ["event_type", "hour_of_day"],
            {"sum_value_milli": ("value_milli", "sum"), "n_events": ("value_milli", "count")},
        ).to_pandas(),
        ["event_type", "hour_of_day"],
        dtypes={"hour_of_day": "int64", "sum_value_milli": "int64", "n_events": "int64"},
    )


EVENTS_HOUR_OF_DAY_SQL = """
SELECT event_type,
       CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hour_of_day,
       CAST(SUM(CAST(ROUND(value * 1000) AS BIGINT)) AS BIGINT) AS sum_value_milli,
       COUNT(*) AS n_events
FROM events
GROUP BY event_type, EXTRACT(hour FROM ts)
ORDER BY event_type, hour_of_day
"""


def event_value_histogram(sf_dir: str) -> pa.Table:
    """Per-type log2-bucketed VALUE histogram (bucket =
    bit_length(value_milli), 0 for non-positive) — the distribution
    table next to the exact percentiles, integer-exact on both sides
    (int.bit_length vs length(bin(n)); no float log2 boundary
    hazard). One tiny (type, bucket) count shuffle."""
    ds = read_table(sf_dir, "events", ["event_type", "value"])

    def bucketed_values(batch: pd.DataFrame) -> pd.DataFrame:
        vm = (
            pc.cast(
                pc.round(pc.multiply(pa.Array.from_pandas(batch["value"]), pa.scalar(1000.0))),
                pa.int64(),
            )
            .to_pandas()
            .astype("int64")
        )
        return pd.DataFrame(
            {
                "event_type": batch["event_type"].astype(str),
                "bucket": np.array([int(v).bit_length() if v > 0 else 0 for v in vm], "int64"),
            }
        )

    return finish(
        bucketed_aggregate(
            ds.map_batches(bucketed_values, batch_format="pandas"),
            ["event_type", "bucket"],
            {"n_events": ("bucket", "count")},
        ).to_pandas(),
        ["event_type", "bucket"],
        dtypes={"bucket": "int64", "n_events": "int64"},
    )


EVENT_VALUE_HISTOGRAM_SQL = """
WITH v AS (
    SELECT event_type, CAST(ROUND(value * 1000) AS BIGINT) AS vm FROM events
)
SELECT event_type,
       CAST(CASE WHEN vm <= 0 THEN 0 ELSE length(bin(vm)) END AS BIGINT) AS bucket,
       COUNT(*) AS n_events
FROM v
GROUP BY event_type, CASE WHEN vm <= 0 THEN 0 ELSE length(bin(vm)) END
ORDER BY event_type, bucket
"""


def events_attribution(sf_dir: str) -> pa.Table:
    """Last-touch attribution: each ``purchase`` event is attributed
    to the most recent PRIOR event of any other type by the same
    user (the marketing-attribution primitive). Partitioned by
    user-hash bucket (one shuffle); inside a bucket the whole
    computation is two vectorized passes over the (user, ts,
    event_id)-sorted frame — mask non-purchase rows' own ids, ffill
    within user, read the carried value on purchase rows (purchase
    rows never carry a value, so the carry is strictly-prior by
    construction, matching the oracle's ``ROWS ... 1 PRECEDING``
    IGNORE NULLS window). Purchases with no prior touch drop out.
    Gap is exact integer microseconds."""
    ds = read_table(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        non = g["event_type"] != "purchase"
        g["__src_id"] = g["event_id"].where(non)
        g["__src_ts"] = g["ts"].where(non)
        g["__src_type"] = g["event_type"].where(non)
        carried = g.groupby("user_id")[["__src_id", "__src_ts", "__src_type"]].ffill()
        p = g.loc[(~non) & carried["__src_id"].notna()]
        c = carried.loc[p.index]
        # pin the unit before viewing as int64 (parquet ts is us; an
        # ns-viewed frame would be 1000x off)
        gap = (
            p["ts"].astype("datetime64[us]").astype("int64")
            - c["__src_ts"].astype("datetime64[us]").astype("int64")
        )
        return pd.DataFrame(
            {
                "event_id": p["event_id"].astype("int64"),
                "user_id": p["user_id"].astype("int64"),
                "src_event_id": c["__src_id"].astype("int64"),
                "src_event_type": c["__src_type"].astype(str),
                "gap_us": gap.astype("int64"),
            }
        )

    return finish(
        co_partition(ds, ["user_id"], per_bucket).to_pandas(),
        "event_id",
    )


EVENTS_ATTRIBUTION_SQL = """
WITH e AS (
  SELECT event_id, user_id, event_type, ts,
         LAST_VALUE(CASE WHEN event_type <> 'purchase'
                         THEN struct_pack(ts := ts, event_id := event_id,
                                          et := event_type) END IGNORE NULLS)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prior
  FROM events
)
SELECT event_id, user_id,
       prior.event_id AS src_event_id,
       prior.et AS src_event_type,
       date_diff('microsecond', prior.ts, ts) AS gap_us
FROM e
WHERE event_type = 'purchase' AND prior IS NOT NULL
ORDER BY event_id
"""


def hourly_distinct_users(sf_dir: str) -> pa.Table:
    """EXACT distinct users per tumbling 1-hour window per event_type
    (the DAU/HAU primitive, exact flavor — :func:`source_distinct_hll`
    is the sketch flavor). Two chained bucketed aggregates so nothing
    holds a user set in memory: the first collapses events to distinct
    (type, window, user) rows, the second counts those rows per
    (type, window). Both shuffles move at most one row per
    (type, window, user) triple per block."""
    ds = read_table(sf_dir, "events", ["event_type", "ts", "user_id"])

    def windowed(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "window_start": pc.floor_temporal(batch["ts"], unit="hour"),
                "user_id": pc.cast(batch["user_id"], pa.int64()),
            }
        )

    triples = bucketed_aggregate(
        ds.map_batches(windowed, batch_format="pyarrow"),
        ["event_type", "window_start", "user_id"],
        {"n_events": ("user_id", "count")},
    )
    return finish(
        bucketed_aggregate(
            triples,
            ["event_type", "window_start"],
            {"n_users": ("user_id", "count"), "n_events": ("n_events", "sum")},
        ).to_pandas(),
        ["event_type", "window_start"],
        dtypes={"n_users": "int64", "n_events": "int64"},
    )


HOURLY_DISTINCT_USERS_SQL = """
SELECT event_type, time_bucket(INTERVAL 1 HOUR, ts) AS window_start,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users,
       COUNT(*) AS n_events
FROM events
GROUP BY event_type, window_start
ORDER BY event_type, window_start
"""


def events_type_lift(sf_dir: str, gap_minutes: int = 30) -> pa.Table:
    """Association LIFT between event types at session granularity:
    lift(a,b) = P(a,b) / (P(a)P(b)) over sessions, in exact integer
    milli (``n_ab * n_sessions * 1000 // (n_a * n_b)``) — the
    normalization that separates 'co-occurs because both are common'
    from real association, computed on top of the
    :func:`session_type_pairs` counts (same gap-split CTE on the SQL
    side, so the two stay consistent).

    The pair counts, per-type session counts and the session total all
    come from :func:`_session_type_counts`; the driver folds rows
    bounded by the TYPE cardinality, not events."""
    counts = _session_type_counts("events_type_lift", sf_dir, gap_minutes)
    n_sessions = int(counts.loc[counts["n_types"] == 0, "n"].sum())
    one = counts[counts["n_types"] == 1]
    n_of = dict(zip(one["t1"], one["n"].tolist()))
    pairs = counts[counts["n_types"] == 2].rename(columns={"t1": "type_a", "t2": "type_b", "n": "n_ab"})
    pairs["lift_milli"] = [
        n * n_sessions * 1000 // (n_of[a] * n_of[b])
        for a, b, n in zip(pairs["type_a"], pairs["type_b"], pairs["n_ab"].tolist())
    ]
    return finish(
        pairs,
        ["type_a", "type_b"],
        columns=["type_a", "type_b", "n_ab", "lift_milli"],
        dtypes={"lift_milli": "int64"},
        empty=pa.schema(
            {"type_a": pa.string(), "type_b": pa.string(), "n_ab": pa.int64(), "lift_milli": pa.int64()}
        ),
    )


def events_type_lift_sql(gap_minutes: int = 30) -> str:
    return f"""
WITH flagged AS (
    SELECT user_id, ts, event_type,
           CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)
                     > INTERVAL {gap_minutes} MINUTE
                OR LAG(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                THEN 1 ELSE 0 END AS ns
    FROM events
),
s AS (
    SELECT user_id, event_type,
           SUM(ns) OVER (PARTITION BY user_id ORDER BY ts
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS sid
    FROM flagged
),
p AS (SELECT DISTINCT user_id, sid, event_type FROM s),
n_s AS (SELECT COUNT(DISTINCT (user_id, sid)) AS n FROM p),
singles AS (SELECT event_type, COUNT(*) AS n_t FROM p GROUP BY event_type),
pairs AS (
    SELECT a.event_type AS type_a, b.event_type AS type_b, COUNT(*) AS n_ab
    FROM p a JOIN p b
      ON a.user_id = b.user_id AND a.sid = b.sid
     AND a.event_type < b.event_type
    GROUP BY 1, 2
)
SELECT type_a, type_b, CAST(n_ab AS BIGINT) AS n_ab,
       CAST(n_ab * (SELECT n FROM n_s) * 1000 // (sa.n_t * sb.n_t) AS BIGINT)
         AS lift_milli
FROM pairs JOIN singles sa ON sa.event_type = type_a
           JOIN singles sb ON sb.event_type = type_b
ORDER BY type_a, type_b
"""


def _signed_log2_band(t: int) -> int:
    """Band id monotone in ``t``: ``bit_length`` for t >= 0, its
    negation for t < 0 (an unsigned band would rank -5000 above +100)."""
    return t.bit_length() if t >= 0 else -(-t).bit_length()


def events_user_value_rank(sf_dir: str) -> pa.Table:
    """EXACT global rank of every user by lifetime event value (the
    whale-detection table) — a distributed rank WITHOUT a global
    sort: per-user totals fold in one user-bucket shuffle; each total
    lands in its signed floor-log2 value band (bands partition the
    value axis and are monotone in the total, so cross-band order is
    total order); the per-band user
    counts make a tiny driver prefix table; and within a band the
    local strictly-smaller count is one searchsorted over the band's
    sorted totals. rank = band prefix + local count + 1 — the SQL
    mirror's ``RANK() OVER (ORDER BY total)`` (ties share a rank),
    paid with one slim shuffle plus band-local sorts instead of an
    all-to-all global sort."""
    ds = read_table(sf_dir, "events", ["user_id", "value"])

    def milli(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "total_milli": (df["value"] * 1000).round().astype("int64"),
            }
        )

    totals = bucketed_aggregate(
        ds.map_batches(milli, batch_format="pandas"),
        ["user_id"],
        {"total_milli": ("total_milli", "sum"), "n_events": ("total_milli", "count")},
    ).map_batches(
        lambda df: df.assign(band=[_signed_log2_band(int(t)) for t in df["total_milli"]]),
        batch_format="pandas",
    ).materialize()

    band_counts = (
        totals.map_batches(
            lambda df: df.groupby("band", as_index=False).size().rename(columns={"size": "n"}),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("band", as_index=False)["n"].sum()
        .sort_values("band")
    )

    prefix = {}
    acc = 0
    for band, n in zip(band_counts["band"], band_counts["n"]):
        prefix[int(band)] = acc
        acc += int(n)
    n_users = acc
    p_ref = ray.put((prefix, n_users))

    def rank_band(g: pd.DataFrame) -> pd.DataFrame:
        from mlscraper_ray.functions.broadcast import cached_object

        pfx, n = cached_object(p_ref)
        vals = np.sort(g["total_milli"].to_numpy(np.int64))
        base = pfx[int(g["band"].iloc[0])]
        local = np.searchsorted(vals, g["total_milli"].to_numpy(np.int64), side="left")
        rnk = base + local + 1
        return pd.DataFrame(
            {
                "user_id": g["user_id"].astype("int64"),
                "total_milli": g["total_milli"].astype("int64"),
                "n_events": g["n_events"].astype("int64"),
                "rnk": rnk.astype("int64"),
                "pct_milli": ((rnk - 1) * 1000 // n).astype("int64"),
            }
        )

    return finish(
        totals.groupby("band").map_groups(rank_band, batch_format="pandas").to_pandas(),
        "user_id",
        columns=["user_id", "total_milli", "n_events", "rnk", "pct_milli"],
    )


EVENTS_USER_VALUE_RANK_SQL = """
WITH t AS (
  SELECT user_id,
         CAST(SUM(CAST(ROUND(value * 1000) AS BIGINT)) AS BIGINT) AS total_milli,
         COUNT(*) AS n_events
  FROM events GROUP BY user_id
)
SELECT user_id, total_milli, n_events,
       RANK() OVER (ORDER BY total_milli) AS rnk,
       (RANK() OVER (ORDER BY total_milli) - 1) * 1000 // (SELECT COUNT(*) FROM t)
         AS pct_milli
FROM t
ORDER BY user_id
"""


def events_signup_to_purchase(sf_dir: str) -> pa.Table:
    """Activation latency: for every user, the gap from their FIRST
    signup to their first purchase AT OR AFTER it — the
    conversion-time base table (activation funnels, cohort latency
    curves). One user-bucket shuffle; inside a bucket both "first"s
    are vectorized groupby mins over the needed event slices; exact
    integer microseconds (unit pinned to us before the int64 view).
    Users who never signed up, or never purchased after signing up,
    drop out — matching the oracle's inner join."""
    ds = read_table(sf_dir, "events", ["user_id", "ts", "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "user_id": pd.Series(dtype="int64"),
                "signup_ts": pd.Series(dtype="datetime64[us]"),
                "purchase_ts": pd.Series(dtype="datetime64[us]"),
                "gap_us": pd.Series(dtype="int64"),
            }
        )
        s = (
            g[g["event_type"] == "signup"]
            .groupby("user_id", as_index=False)["ts"].min()
            .rename(columns={"ts": "signup_ts"})
        )
        if s.empty:
            return empty
        p = g[g["event_type"] == "purchase"].merge(s, on="user_id")
        p = p[p["ts"] >= p["signup_ts"]]
        if p.empty:
            return empty
        first = p.groupby(["user_id", "signup_ts"], as_index=False)["ts"].min().rename(
            columns={"ts": "purchase_ts"}
        )
        gap = (
            first["purchase_ts"].astype("datetime64[us]").astype("int64")
            - first["signup_ts"].astype("datetime64[us]").astype("int64")
        )
        return pd.DataFrame(
            {
                "user_id": first["user_id"].astype("int64"),
                "signup_ts": first["signup_ts"].astype("datetime64[us]"),
                "purchase_ts": first["purchase_ts"].astype("datetime64[us]"),
                "gap_us": gap.astype("int64"),
            }
        )

    return finish(
        co_partition(ds, ["user_id"], per_bucket).to_pandas(),
        "user_id",
    )


EVENTS_SIGNUP_TO_PURCHASE_SQL = """
WITH s AS (
  SELECT user_id, MIN(ts) AS signup_ts
  FROM events WHERE event_type = 'signup' GROUP BY user_id
),
p AS (
  SELECT s.user_id, s.signup_ts, MIN(e.ts) AS purchase_ts
  FROM s JOIN events e
    ON e.user_id = s.user_id AND e.event_type = 'purchase'
   AND e.ts >= s.signup_ts
  GROUP BY s.user_id, s.signup_ts
)
SELECT user_id, signup_ts, purchase_ts,
       date_diff('microsecond', signup_ts, purchase_ts) AS gap_us
FROM p
ORDER BY user_id
"""


def events_interarrival(sf_dir: str) -> pa.Table:
    """Per-user inter-event arrival statistics (gap count, floor-mean
    and max gap in exact integer microseconds) — the burstiness
    signature behind bot filtering and session-gap calibration. One
    user-bucket shuffle; gaps are a vectorized per-user shift-diff
    over the (ts, event_id)-sorted frame. Single-event users drop out
    (no gaps), matching the oracle's HAVING."""
    ds = read_table(sf_dir, "events", ["user_id", "ts", "event_id"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "user_id": pd.Series(dtype="int64"),
                "n_gaps": pd.Series(dtype="int64"),
                "mean_gap_us": pd.Series(dtype="int64"),
                "max_gap_us": pd.Series(dtype="int64"),
            }
        )
        g = g.sort_values(["user_id", "ts", "event_id"])
        t = g["ts"].astype("datetime64[us]").astype("int64")
        prev = t.groupby(g["user_id"]).shift()
        gap = (t - prev).dropna().astype("int64")
        users = g.loc[gap.index, "user_id"]
        agg = pd.DataFrame({"user_id": users, "gap": gap}).groupby(
            "user_id", as_index=False
        ).agg(n_gaps=("gap", "size"), sum_gap=("gap", "sum"), max_gap_us=("gap", "max"))
        if agg.empty:
            return empty
        agg["mean_gap_us"] = agg["sum_gap"] // agg["n_gaps"]
        return agg[["user_id", "n_gaps", "mean_gap_us", "max_gap_us"]].astype("int64")

    return finish(
        co_partition(ds, ["user_id"], per_bucket).to_pandas(),
        "user_id",
    )


EVENTS_INTERARRIVAL_SQL = """
WITH g AS (
  SELECT user_id,
         date_diff('microsecond',
                   LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id),
                   ts) AS gap
  FROM events
)
SELECT user_id, COUNT(gap) AS n_gaps,
       CAST(SUM(gap) // COUNT(gap) AS BIGINT) AS mean_gap_us,
       CAST(MAX(gap) AS BIGINT) AS max_gap_us
FROM g WHERE gap IS NOT NULL
GROUP BY user_id
HAVING COUNT(gap) > 0
ORDER BY user_id
"""


def events_dau_wau(sf_dir: str, window_days: int = 7) -> pa.Table:
    """Daily / rolling-``window_days`` active users (DAU / WAU): for
    each OBSERVED active day D, the count of distinct users active on
    D and the count of distinct users active anywhere in
    [D-(w-1), D]. Gap days with zero activity do not emit a row (and
    the domain never extends past the last observed day) — the day
    domain is exactly ``SELECT DISTINCT day FROM events``.

    Distributed shape — never a per-user Python loop and never a
    COUNT(DISTINCT) over raw events: one slim bucketed distinct
    collapses events to (user, day) pairs; DAU is a per-day count of
    those pairs; WAU replicates each pair ``w`` times (day+0..w-1 —
    the days whose trailing window contains it), re-distincts the
    (user, covered_day) pairs so multi-active users count once per
    window, and counts per covered day. All shuffles ship 2-column
    integer rows; the final per-day tables are calendar-sized (one
    row per day, ~37k rows per century) and merge on the driver."""
    ds = read_table(sf_dir, "events", ["user_id", "ts"])


    def days(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": pc.cast(batch["user_id"], pa.int64()),
                "day": pc.floor_temporal(batch["ts"], unit="day"),
            }
        )

    pairs = bucketed_aggregate(
        ds.map_batches(days, batch_format="pyarrow"), ["user_id", "day"], {"n": ("day", "count")}
    )

    dau = bucketed_aggregate(pairs, ["day"], {"dau": ("user_id", "count")}).to_pandas()

    def cover(df: pd.DataFrame) -> pd.DataFrame:
        reps = pd.DataFrame(
            {
                "user_id": np.repeat(df["user_id"].to_numpy(), window_days),
                "cday": np.repeat(df["day"].to_numpy(), window_days)
                + np.tile(
                    pd.to_timedelta(np.arange(window_days), unit="D"), len(df)
                ),
            }
        )
        return reps

    covered = bucketed_aggregate(
        pairs.map_batches(cover, batch_format="pandas"),
        ["user_id", "cday"],
        {"n": ("cday", "count")},
    )
    wau = (
        bucketed_aggregate(covered, ["cday"], {"wau": ("user_id", "count")})
        .to_pandas()
        .rename(columns={"cday": "day"})
    )

    return finish(
        dau.merge(wau, on="day", how="left"),
        "day",
        columns=["day", "dau", "wau"],
        dtypes={"dau": "int64", "wau": "int64"},
    )


EVENTS_DAU_WAU_SQL = """
WITH pairs AS (
    SELECT DISTINCT user_id, date_trunc('day', ts) AS d FROM events
),
days AS (SELECT DISTINCT d AS day FROM pairs)
SELECT day,
       COUNT(DISTINCT CASE WHEN p.d = day THEN p.user_id END) AS dau,
       COUNT(DISTINCT p.user_id) AS wau
FROM days
JOIN pairs p ON p.d <= day AND p.d > day - INTERVAL 7 DAY
GROUP BY day
ORDER BY day
"""


def events_peak_concurrency(sf_dir: str, gap_minutes: int = 30) -> pa.Table:
    """Peak concurrent sessions (capacity-planning sweep): sessions
    under the :func:`_sessions` rule, each the inclusive interval
    [first_ts, last_ts], and find the maximum number of simultaneously
    open sessions plus the earliest instant it is reached. One row:
    (n_sessions, peak, peak_ts).

    Distributed shape — the classic +1/-1 boundary sweep without a
    global sort: sessions build inside user-hash buckets (one
    shuffle); boundary deltas (+1 at start, -1 at end+1us so
    inclusive ends never undercount their own instant) collapse per
    distinct timestamp through the coarse-bucket
    aggregate (second shuffle); then each HOUR of the timeline
    prefix-sums locally inside its group and ships only (hour,
    local_max, first_max_ts, total) — the driver folds the
    calendar-sized hour partials in time order, offsetting each
    hour's local max by the running total of all prior hours. Exact:
    a whole-hour offset shifts every in-hour prefix uniformly, so
    the global peak is max(offset + local_max) and its first instant
    is the earliest qualifying hour's recorded first-max ts. No events
    give (0, null, null), as the SQL does."""

    def boundaries(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("__sid")["ts"].agg(["min", "max"])
        # starts rides as its own column: a start and an end sharing a
        # microsecond cancel in d but must still count one session
        return pd.DataFrame(
            {
                "ts": pd.concat(
                    [s["min"], s["max"] + pd.Timedelta(microseconds=1)],
                    ignore_index=True,
                ),
                "d": np.concatenate(
                    [np.ones(len(s), dtype=np.int64), -np.ones(len(s), dtype=np.int64)]
                ),
                "starts": np.concatenate(
                    [np.ones(len(s), dtype=np.int64), np.zeros(len(s), dtype=np.int64)]
                ),
            }
        )

    deltas = bucketed_aggregate(
        _sessions(sf_dir, ["user_id", "ts"], gap_minutes, boundaries),
        ["ts"],
        {"d": ("d", "sum"), "starts": ("starts", "sum")},
    )

    def hour_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["hour"] = df["ts"].dt.floor("h")
        return df

    def per_hour(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("ts")
        run = g["d"].cumsum()
        mx = int(run.max())
        first_ts = g.loc[run.eq(mx).idxmax(), "ts"]
        return pd.DataFrame(
            {
                "hour": [g["hour"].iloc[0]],
                "local_max": pd.Series([mx], dtype="int64"),
                "first_ts": [first_ts],
                "total": pd.Series([int(g["d"].sum())], dtype="int64"),
                "n_starts": pd.Series([int(g["starts"].sum())], dtype="int64"),
            }
        )

    hours = (
        deltas.map_batches(hour_partial, batch_format="pandas")
        .groupby("hour")
        .map_groups(per_hour, batch_format="pandas")
        .to_pandas()
        # no events: no hours, and a frame without columns
        .reindex(columns=["hour", "local_max", "first_ts", "total", "n_starts"])
        .sort_values("hour", ignore_index=True)
    )
    n_sessions = int(hours["n_starts"].sum())
    offset, peak, peak_ts = 0, None, None
    for _, row in hours.iterrows():
        cand = offset + int(row["local_max"])
        if peak is None or cand > peak:
            peak, peak_ts = cand, row["first_ts"]
        offset += int(row["total"])
    return pa.table(
        {
            "n_sessions": pa.array([n_sessions], pa.int64()),
            "peak": pa.array([peak], pa.int64()),
            "peak_ts": pa.array([peak_ts], pa.timestamp("us")),
        }
    )


def events_peak_concurrency_sql(gap_minutes: int = 30) -> str:
    return f"""
WITH flagged AS (
  SELECT user_id, ts,
         CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL {gap_minutes} MINUTE
              OR LAG(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM events
),
sess AS (
  SELECT user_id, session_id, MIN(ts) AS s, MAX(ts) AS e
  FROM (SELECT user_id, ts,
               SUM(new_session) OVER (PARTITION BY user_id ORDER BY ts) AS session_id
        FROM flagged)
  GROUP BY user_id, session_id
),
b AS (SELECT s AS ts, 1 AS d FROM sess
      UNION ALL SELECT e + INTERVAL 1 MICROSECOND AS ts, -1 AS d FROM sess),
agg AS (SELECT ts, CAST(SUM(d) AS BIGINT) AS d FROM b GROUP BY ts),
run AS (SELECT ts, SUM(d) OVER (ORDER BY ts) AS c FROM agg)
SELECT (SELECT COUNT(*) FROM sess) AS n_sessions,
       CAST((SELECT MAX(c) FROM run) AS BIGINT) AS peak,
       (SELECT MIN(ts) FROM run WHERE c = (SELECT MAX(c) FROM run)) AS peak_ts
"""


EVENTS_PEAK_CONCURRENCY_SQL = events_peak_concurrency_sql()


def events_heavy_hitters(sf_dir: str, k: int = 200) -> pa.Table:
    """EXACT phi-heavy hitters over users — every user_id holding
    strictly more than N/``k`` of the N events, with its exact count
    (the power-user / abuse-detection query where an approximate
    sketch alone can't be trusted).

    Two passes, no full groupby of the user domain:

    1. candidate generation by LOCAL threshold — each batch emits only
       users with ``cnt_batch * k > n_batch``. Pigeonhole guarantees a
       superset: a user above N/k globally must be above n_b/k in at
       least one batch (if cnt_b <= n_b/k everywhere, the sum is
       <= N/k). At most k survivors per batch, so the driver-collected
       candidate set is O(k x n_blocks) — independent of the user
       cardinality, which never ships anywhere.
    2. exact verification — candidates broadcast via ``ray.put``; one
       filtered streaming count per candidate through the coarse-bucket
       aggregate; keep ``cnt * k > N`` (integer compare, no division,
       mirroring the SQL HAVING).

    Output is worker/batch-boundary invariant: batching only widens
    the candidate superset, and the exact filter prunes it back."""
    from mlscraper_ray.functions.broadcast import cached_object

    ds = read_table(sf_dir, "events", ["user_id"])
    n_total = ds.count()  # parquet metadata, no scan

    def local_candidates(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["user_id"].value_counts()
        keep = vc[vc * k > len(df)]
        return pd.DataFrame({"user_id": keep.index.astype("int64")})

    cand: set = set()
    for b in ds.map_batches(local_candidates, batch_format="pandas").iter_batches(
        batch_format="pandas"
    ):
        cand.update(int(u) for u in b["user_id"])
    if not cand:
        return pa.table(
            {"user_id": pa.array([], pa.int64()), "n_events": pa.array([], pa.int64())}
        )
    c_ref = ray.put(frozenset(cand))

    def candidates(df: pd.DataFrame) -> pd.DataFrame:
        cs = cached_object(c_ref)
        return df[df["user_id"].map(lambda u: int(u) in cs)]

    counts = bucketed_aggregate(
        ds.map_batches(candidates, batch_format="pandas"),
        ["user_id"],
        {"n_events": ("user_id", "count")},
    ).to_pandas()
    return finish(
        counts[counts["n_events"] * k > n_total],
        ["n_events", "user_id"],
        ascending=[False, True],
        dtypes={"user_id": "int64", "n_events": "int64"},
    )


def events_heavy_hitters_sql(k: int = 200) -> str:
    return f"""
SELECT user_id, COUNT(*) AS n_events
FROM events
GROUP BY user_id
HAVING COUNT(*) * {k} > (SELECT COUNT(*) FROM events)
ORDER BY n_events DESC, user_id
"""


EVENTS_HEAVY_HITTERS_SQL = events_heavy_hitters_sql()


def session_duration_percentiles(sf_dir: str, gap_minutes: int = 30) -> pa.Table:
    """EXACT discrete percentiles (p50/p90/p99) and max of session
    duration in whole SECONDS — the engagement-depth data-card row.
    Durations quantize to seconds (floor of the microsecond gap) so
    the value domain is session-length-bounded (thousands of distinct
    values) instead of microsecond-unique: the exact count-histogram
    idiom (event_value_percentiles) then applies unchanged at any
    corpus size.

    Distributed shape: sessions build inside user-hash buckets
    (:func:`_sessions`, one shuffle); each bucket emits (dur_sec, n)
    partial counts; the coarse-bucket aggregate folds the histogram;
    ``bucketed.quantiles_disc`` reads the percentiles and the max off
    it. No events give (0, null, null, null, null), as the SQL does."""

    def durations(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("__sid")["ts"].agg(["min", "max"])
        vc = (s["max"] - s["min"]).dt.total_seconds().astype("int64").value_counts()
        return pd.DataFrame({"dur_sec": vc.index.astype("int64"), "n": vc.to_numpy("int64")})

    hist = bucketed_aggregate(
        _sessions(sf_dir, ["user_id", "ts"], gap_minutes, durations),
        ["dur_sec"],
        {"n": ("n", "sum")},
    ).to_pandas()
    # no events: no bucket, so a frame without columns
    hist = hist.reindex(columns=["dur_sec", "n"])
    p50, p90, p99, mx = quantiles_disc(hist["dur_sec"], hist["n"], (0.50, 0.90, 0.99, 1.0))
    return pa.table(
        {
            "n_sessions": pa.array([int(hist["n"].sum())], pa.int64()),
            "p50_sec": pa.array([p50], pa.int64()),
            "p90_sec": pa.array([p90], pa.int64()),
            "p99_sec": pa.array([p99], pa.int64()),
            "max_sec": pa.array([mx], pa.int64()),
        }
    )


def session_duration_percentiles_sql(gap_minutes: int = 30) -> str:
    return f"""
WITH flagged AS (
  SELECT user_id, ts,
         CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL {gap_minutes} MINUTE
              OR LAG(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM events
),
sess AS (
  SELECT user_id, session_id, MIN(ts) AS s, MAX(ts) AS e
  FROM (SELECT user_id, ts,
               SUM(new_session) OVER (PARTITION BY user_id ORDER BY ts) AS session_id
        FROM flagged)
  GROUP BY user_id, session_id
),
d AS (SELECT (epoch_us(e) - epoch_us(s)) // 1000000 AS dur_sec FROM sess)
SELECT COUNT(*) AS n_sessions,
       CAST(quantile_disc(dur_sec, 0.50) AS BIGINT) AS p50_sec,
       CAST(quantile_disc(dur_sec, 0.90) AS BIGINT) AS p90_sec,
       CAST(quantile_disc(dur_sec, 0.99) AS BIGINT) AS p99_sec,
       CAST(MAX(dur_sec) AS BIGINT) AS max_sec
FROM d
"""


SESSION_DURATION_PERCENTILES_SQL = session_duration_percentiles_sql()


def events_burst_users(sf_dir: str, min_burst: int = 2) -> pa.Table:
    """Rate-anomaly users: every user with at least ``min_burst``
    events inside a single calendar MINUTE, with their maximum
    per-minute burst and the earliest minute it occurs — the
    bot/replay screen over the raw event log (the windowed sibling of
    events_heavy_hitters' whole-corpus share test).

    Distributed shape: one streaming pass emits (user, minute) rows;
    the bucketed aggregate resolves exact per-(user, minute) counts;
    per-user max/argmin-minute folds through a second slim bucketed
    pass. Output is anomaly-sized, never user-domain-sized."""
    ds = read_table(sf_dir, "events", ["user_id", "ts"])

    def minutes(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": pc.cast(batch["user_id"], pa.int64()),
                "minute": pc.floor_temporal(batch["ts"], unit="minute"),
            }
        )

    per_min = bucketed_aggregate(
        ds.map_batches(minutes, batch_format="pyarrow"),
        ["user_id", "minute"],
        {"n": ("minute", "count")},
    ).map_batches(
        lambda df: df[df["n"] >= min_burst], batch_format="pandas"
    )

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "n", "minute"], ascending=[True, False, True])
        top = g.groupby("user_id", sort=False).head(1)
        return pd.DataFrame(
            {
                "user_id": top["user_id"].astype("int64"),
                "max_burst": top["n"].astype("int64"),
                "first_burst_minute": top["minute"],
            }
        )

    return finish(
        co_partition(per_min, ["user_id"], per_user).to_pandas(),
        "user_id",
        empty=pa.schema(
            {
                "user_id": pa.int64(),
                "max_burst": pa.int64(),
                "first_burst_minute": pa.timestamp("us"),
            }
        ),
    )


def events_burst_users_sql(min_burst: int = 2) -> str:
    return f"""
WITH pm AS (
    SELECT user_id, date_trunc('minute', ts) AS minute, COUNT(*) AS n
    FROM events GROUP BY user_id, date_trunc('minute', ts)
),
hits AS (SELECT * FROM pm WHERE n >= {min_burst})
SELECT user_id,
       CAST(MAX(n) AS BIGINT) AS max_burst,
       MIN(minute) FILTER (WHERE n = (
           SELECT MAX(h2.n) FROM hits h2 WHERE h2.user_id = hits.user_id))
           AS first_burst_minute
FROM hits
GROUP BY user_id
ORDER BY user_id
"""


EVENTS_BURST_USERS_SQL = events_burst_users_sql()


def user_activity_histogram(sf_dir: str) -> pa.Table:
    """Zipf check over user engagement: per-user event counts fold
    into floor-log2 bands (band = bit_length(count), so band 1 holds
    single-event users, band 7 holds 64-127, ...) with the user and
    event mass per band — the activity-concentration data card (a
    heavy head here says the corpus is a few power users' behavior,
    not a population's).

    Distributed shape: per-user counts via one slim bucketed aggregate;
    band assignment is a vectorized bit-length over those per-user
    rows; the band histogram (< 64 rows) is a second tiny aggregate."""
    ds = read_table(sf_dir, "events", ["user_id"])
    per_user = bucketed_aggregate(ds, ["user_id"], {"n": ("user_id", "count")})

    def to_band(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(dtype=np.int64)
        band = np.frexp(n.astype(np.float64))[1]  # bit_length for n >= 1
        return pd.DataFrame({"band": band.astype(np.int64), "n": n})

    return finish(
        bucketed_aggregate(
            per_user.map_batches(to_band, batch_format="pandas"),
            ["band"],
            {"n_users": ("n", "count"), "n_events": ("n", "sum")},
        ).to_pandas(),
        "band",
        dtypes={"band": "int64", "n_users": "int64", "n_events": "int64"},
    )


USER_ACTIVITY_HISTOGRAM_SQL = """
WITH per_user AS (SELECT user_id, COUNT(*) AS n FROM events GROUP BY user_id)
SELECT length(ltrim(bin(CAST(n AS BIGINT)), '0')) AS band,
       COUNT(*) AS n_users,
       CAST(SUM(n) AS BIGINT) AS n_events
FROM per_user
GROUP BY 1
ORDER BY band
"""


def events_value_topk_share(sf_dir: str, k: int = 100) -> pa.Table:
    """Value-concentration headline: what integer-milli share of all
    event value the top-``k`` users hold — the whale-dependence row on
    the revenue data card. One row: (k_users, topk_value_milli,
    total_value_milli, share_milli).

    Distributed shape: per-user milli sums fold through the
    bucketed aggregate (slim int pairs); every output block then
    keeps only its LOCAL k largest (value, user) rows, so the driver
    folds k x n_blocks rows — k-bounded no matter the user domain —
    while the grand total rides the same partials. No global sort, no
    user-domain materialization."""
    ds = read_table(sf_dir, "events", ["user_id", "value"])
    def milli(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "v": (df["value"] * 1000).round().astype("int64"),
            }
        )

    per_user = bucketed_aggregate(
        ds.map_batches(milli, batch_format="pandas"), ["user_id"], {"v": ("v", "sum")}
    )

    def block_head(df: pd.DataFrame) -> pd.DataFrame:
        top = df.sort_values(["v", "user_id"], ascending=[False, True]).head(k)
        top = top.assign(kind="top")
        tot = pd.DataFrame(
            {"user_id": [np.int64(-1)], "v": [df["v"].sum()], "kind": ["sum"]}
        )
        return pd.concat([top, tot], ignore_index=True)

    parts = per_user.map_batches(block_head, batch_format="pandas").to_pandas()
    total = int(parts.loc[parts["kind"] == "sum", "v"].sum())
    top = (
        parts[parts["kind"] == "top"]
        .sort_values(["v", "user_id"], ascending=[False, True])
        .head(k)
    )

    topv = int(top["v"].sum())
    return pa.table(
        {
            "k_users": pa.array([len(top)], pa.int64()),
            "topk_value_milli": pa.array([topv], pa.int64()),
            "total_value_milli": pa.array([total], pa.int64()),
            "share_milli": pa.array(
                [(1000 * topv) // total if total else 0], pa.int64()
            ),
        }
    )


def events_value_topk_share_sql(k: int = 100) -> str:
    return f"""
WITH per_user AS (
    SELECT user_id, CAST(SUM(CAST(ROUND(value * 1000) AS BIGINT)) AS BIGINT) AS v
    FROM events GROUP BY user_id
),
top AS (SELECT v FROM per_user ORDER BY v DESC, user_id LIMIT {k}),
t AS (SELECT CAST(SUM(v) AS BIGINT) AS total FROM per_user)
SELECT (SELECT COUNT(*) FROM top) AS k_users,
       CAST((SELECT SUM(v) FROM top) AS BIGINT) AS topk_value_milli,
       (SELECT total FROM t) AS total_value_milli,
       CAST((1000 * (SELECT SUM(v) FROM top)) // (SELECT total FROM t)
            AS BIGINT) AS share_milli
"""


EVENTS_VALUE_TOPK_SHARE_SQL = events_value_topk_share_sql()
