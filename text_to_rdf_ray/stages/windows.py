"""Event-time windowed aggregation operators (SURVEY.md §2.9: the Ray
Data expression of streaming windows over a bounded event table).

- ``tumbling_agg``: fixed-width event-time windows as
  groupby(key, window_id) with a per-batch pyarrow combiner in front of
  the exchange (partials move, not rows).
- ``sessionize``: per-key session windows split on inactivity gaps —
  one output row PER SESSION (key, session_id, n_events, start/end ts).
  Executed as ONE key-hash exchange into ``num_partitions`` partitions
  with a single vectorized pandas pass per partition (groupby.diff /
  cumsum / agg — C kernels across ALL keys in the partition), NOT
  ``groupby(key).map_groups``: Ray 2.49 makes one Python call per key
  there (measured 153s vs <2s at 48k keys — NOTES_r3.md), which at
  millions of users is the stage ceiling.  Partitioning assumption: one
  PARTITION's events fit in a worker (~|events|/num_partitions — raise
  ``num_partitions`` with data size); a single hot key still needs a
  time-bucketed pre-split.
- ``session_summary``: per-key rollup of ``sessionize`` output
  (n_sessions, max_session_events) — the shape of the driver's
  ``events_sessions`` query.
- ``rolling_agg``: per-key row-based rolling mean + inter-event gap
  (the SQL ``ROWS BETWEEN n-1 PRECEDING`` window shape), same
  exchange shape and partitioning assumption as ``sessionize``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd


def _part_of(s: pd.Series, num_partitions: int) -> np.ndarray:
    """int32 hash-partition ids for a key series (splitmix64 for integer
    keys, vectorized FNV for everything else)."""
    if pd.api.types.is_integer_dtype(s):
        from .analytics import splitmix64

        return (splitmix64(s.to_numpy().astype(np.int64))
                % np.uint64(num_partitions)).astype(np.int32)
    from ..kernels.minhash import _hash_shingles

    return (_hash_shingles(s.astype(str).tolist())
            % np.uint64(num_partitions)).astype(np.int32)


def _with_part(frame: pd.DataFrame, key_col: str,
               num_partitions: int) -> pd.DataFrame:
    """Tag a batch with its exchange partition id — the ONE shared
    add-part step for every windows operator.  Raises on a pre-existing
    ``_part`` column instead of silently clobbering it (exchange.py's
    reserved-name convention; review r5)."""
    if "_part" in frame.columns:
        raise ValueError(
            "column name '_part' is reserved by the windows exchange — "
            "rename it")
    return frame.assign(_part=_part_of(frame[key_col], num_partitions))


def _key_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run_starts, run_lengths) of a key-sorted array — the per-key
    offsets the position-loop recurrences index with (touching only
    keys still alive at each step keeps total work Σ len_k instead of
    the O(rows x max_len) full-array rescan per step; review r5)."""
    if len(keys) == 0:
        return (np.array([], np.int64), np.array([], np.int64))
    change = np.concatenate([[True], keys[1:] != keys[:-1]])
    starts = np.flatnonzero(change).astype(np.int64)
    lens = np.diff(np.append(starts, len(keys))).astype(np.int64)
    return starts, lens


def tumbling_agg(
    ds: rd.Dataset,
    *,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    width_us: int = 3_600_000_000,
) -> rd.Dataset:
    """(key, window_id, n, sum_value) per fixed event-time window.

    window_id = epoch_us(ts) // width_us.  The per-batch pyarrow combiner
    shrinks the exchange to one partial row per (key, window) per batch.
    """
    from .exchange import exchange_agg

    def partial(batch: pa.Table) -> pa.Table:
        # normalize the timestamp unit (parquet gives us, from_items gives s)
        ts_us = batch.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
        wins = ts_us.to_numpy(zero_copy_only=False) // width_us
        t = pa.table(
            {
                key_col: batch.column(key_col),
                "window_id": pa.array(wins, pa.int64()),
                value_col: batch.column(value_col),
            }
        )
        return t.group_by([key_col, "window_id"]).aggregate(
            [(value_col, "count"), (value_col, "sum")]
        )

    # final reduce via hash exchange + arrow group_by: Ray's Aggregate
    # reduces one Python call per (key, window) group — fine at a few
    # hundred groups, the measured per-key pathology at #keys x #windows
    return exchange_agg(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        [key_col, "window_id"],
        [(f"{value_col}_count", "sum", "n"),
         (f"{value_col}_sum", "sum", "sum_value")],
    )


def hopping_agg(
    ds: rd.Dataset,
    *,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    width_us: int = 3_600_000_000,
    hop_us: int = 900_000_000,
) -> rd.Dataset:
    """Hopping (sliding) event-time windows: width ``width_us``, advancing
    by ``hop_us`` — each event lands in exactly ``width_us // hop_us``
    overlapping windows, identified by their start ``window_start`` (epoch
    us).  Emits (key, window_start, n, sum_value).

    Same shape as ``tumbling_agg``: the replication happens INSIDE the
    per-batch combiner (np.repeat/np.tile, vectorized), which then
    pre-aggregates, so the exchange still moves one partial row per
    (key, window) per batch — never ``fan x n_rows`` raw rows.
    """
    import numpy as np

    from .exchange import exchange_agg

    if width_us % hop_us:
        raise ValueError("width_us must be a multiple of hop_us")
    fan = width_us // hop_us

    def partial(batch: pa.Table) -> pa.Table:
        ts_us = batch.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
        base = ts_us.to_numpy(zero_copy_only=False) // hop_us
        # windows containing ts: starts (base - i) * hop for i in 0..fan-1
        starts = (np.repeat(base, fan) - np.tile(np.arange(fan), len(base))) * hop_us
        take_idx = pa.array(np.repeat(np.arange(len(base)), fan),
                            pa.int64())
        keys = batch.column(key_col).take(take_idx)
        vals = batch.column(value_col).take(take_idx)
        t = pa.table({key_col: keys,
                      "window_start": pa.array(starts, pa.int64()),
                      value_col: vals})
        return t.group_by([key_col, "window_start"]).aggregate(
            [(value_col, "count"), (value_col, "sum")])

    return exchange_agg(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        [key_col, "window_start"],
        [(f"{value_col}_count", "sum", "n"),
         (f"{value_col}_sum", "sum", "sum_value")],
    )


def sessionize(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    order_col: str = "event_id",
    gap: pd.Timedelta = pd.Timedelta(minutes=30),
    num_partitions: int = 64,
) -> rd.Dataset:
    """One row per session: (key, session_id, n_events, start_ts, end_ts).

    Sessions split where the gap between consecutive events (ordered by
    ``(ts, order_col)`` for determinism under ties) exceeds ``gap``;
    session_id numbers sessions 1..n per key in time order.
    """

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return _with_part(batch, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pass over ALL keys in the partition: groupby.diff
        # restarts the gap at each key boundary, groupby.cumsum numbers
        # sessions per key (the first row of every key breaks -> 1-based)
        g = (g.drop(columns=["_part"])
             .sort_values([key_col, ts_col, order_col]))
        gaps = g.groupby(key_col, sort=False)[ts_col].diff()
        brk = gaps.isna() | (gaps > gap)
        sid = brk.groupby(g[key_col], sort=False).cumsum()
        out = (g.assign(_sid=sid)
               .groupby([key_col, "_sid"], sort=False)
               .agg(n_events=(order_col, "size"),
                    start_ts=(ts_col, "min"),
                    end_ts=(ts_col, "max"))
               .reset_index()
               .rename(columns={"_sid": "session_id"}))
        out["session_id"] = out["session_id"].astype("int64")
        return out[[key_col, "session_id", "n_events", "start_ts", "end_ts"]]

    return (ds.map_batches(add_part, batch_format="pandas", batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def session_summary(sessions: rd.Dataset, key_col: str = "user_id") -> rd.Dataset:
    """Per-key rollup of ``sessionize`` output:
    (key, n_sessions, max_session_events).  Hash-exchange arrow reduce —
    one group per USER, so Ray's per-key-Python Aggregate is the
    measured pathology at millions of users."""
    from .exchange import exchange_agg

    return exchange_agg(
        sessions, key_col,
        [("n_events", "count", "n_sessions"),
         ("n_events", "max", "max_session_events")],
    )


def rolling_agg(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    order_col: str = "event_id",
    value_col: str = "value",
    window_rows: int = 3,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Per-key row-based rolling window (the SQL ``ROWS BETWEEN n-1
    PRECEDING AND CURRENT ROW`` shape): for each event, the mean of the
    last ``window_rows`` values (fewer at the head) and the microseconds
    since the key's previous event (-1 for the key's first event), ordered
    by ``(ts, order_col)``.

    Emits (key, order_col, rolling_avg, gap_us).  Same exchange shape and
    partitioning assumption as ``sessionize`` (one PARTITION per worker,
    vectorized across all keys in it).
    """

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return _with_part(batch, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop(columns=["_part"])
             .sort_values([key_col, ts_col, order_col]))
        # unit-safe epoch µs: parquet may load as datetime64[ns] or [us]
        ts_us = pd.Series(
            g[ts_col].values.astype("datetime64[us]").astype("int64"),
            index=g.index)
        grp = g.groupby(key_col, sort=False)
        roll = (grp[value_col]
                .rolling(window_rows, min_periods=1).mean()
                .reset_index(level=0, drop=True))
        gap = ts_us.groupby(g[key_col], sort=False).diff()
        return pd.DataFrame({
            key_col: g[key_col],
            order_col: g[order_col],
            "rolling_avg": roll,
            "gap_us": gap.fillna(-1).astype("int64"),
        })

    return (ds.map_batches(add_part, batch_format="pandas", batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def funnel(
    ds: rd.Dataset,
    *,
    steps: list[str] | tuple[str, ...],
    key_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Ordered-funnel conversion counts: ``(step, step_name, n_users)``
    — how many keys performed step 1, then step 2 STRICTLY after their
    earliest qualifying step 1, and so on (the product-analytics funnel;
    unbounded window, earliest-qualifying-event semantics).

    Same exchange shape as ``sessionize``: ONE key-hash exchange, then a
    single vectorized pandas pass per partition — per step, a C-kernel
    ``groupby(key).min`` frontier + merge against the previous frontier
    (len(steps) passes over the partition, zero per-key Python).  Every
    non-empty partition emits all len(steps) partial rows; a final
    ``exchange_agg`` sums them (len(steps) rows total).
    """
    from .exchange import exchange_agg

    steps = list(steps)
    if not steps:
        raise ValueError("funnel: steps must be non-empty")

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        keep = batch[type_col].isin(steps)  # shrink the exchange to
        batch = batch[keep]                  # funnel-relevant events only
        return _with_part(batch, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_part"])
        cur = (g[g[type_col] == steps[0]]
               .groupby(key_col, sort=False)[ts_col].min())
        counts = [len(cur)]
        for s in steps[1:]:
            ev = g[g[type_col] == s]
            m = ev.merge(cur.rename("_prev"), left_on=key_col,
                         right_index=True)
            m = m[m[ts_col] > m["_prev"]]
            cur = m.groupby(key_col, sort=False)[ts_col].min()
            counts.append(len(cur))
        return pd.DataFrame({
            "step": pd.Series(range(1, len(steps) + 1), dtype="int64"),
            "step_name": steps,
            "n_users": pd.Series(counts, dtype="int64"),
        })

    partials = (ds.map_batches(add_part, batch_format="pandas",
                               batch_size=65536)
                .groupby("_part").map_groups(per_part, batch_format="pandas"))
    return exchange_agg(partials, ["step", "step_name"],
                        [("n_users", "sum", "n_users")],
                        num_partitions=min(num_partitions, 8))


def retention(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    max_offset: int = 30,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Cohort retention: ``(cohort_day, day_offset, n_users)`` — users
    whose FIRST activity fell on ``cohort_day`` (epoch days) and who were
    active again ``day_offset`` days later (0 <= offset <= max_offset).

    Shape: per-batch (key, day) dedup combiner, then ONE key-hash
    exchange — because all of a user's rows land in one partition, the
    per-partition pass computes distinct activity, the per-user min-day
    cohort (groupby.transform, C kernel), and the offsets in one
    vectorized sweep (no separate cohort exchange, no join); a final
    combiner-fronted (cohort, offset) count exchange finishes.  Two
    exchanges total, no per-key Python, nothing on the driver.
    """
    from .exchange import exchange_agg

    us_per_day = 86_400_000_000

    def day_rows(batch: pd.DataFrame) -> pd.DataFrame:
        day = (batch[ts_col].to_numpy().astype("datetime64[us]")
               .astype(np.int64) // us_per_day)
        out = pd.DataFrame({key_col: batch[key_col], "day": day})
        out = out.drop_duplicates()  # per-batch combiner
        return _with_part(out, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_part"]).drop_duplicates()
        coh = g.groupby(key_col, sort=False)["day"].transform("min")
        off = g["day"].to_numpy() - coh.to_numpy()
        keep = off <= max_offset
        return pd.DataFrame({
            "cohort_day": pd.Series(coh.to_numpy()[keep], dtype="int64"),
            "day_offset": pd.Series(off[keep], dtype="int64"),
        })

    fused = (ds.map_batches(day_rows, batch_format="pandas",
                            batch_size=65536)
             .groupby("_part").map_groups(per_part, batch_format="pandas"))
    return exchange_agg(
        fused, ["cohort_day", "day_offset"],
        [("cohort_day", "count", "n_users")],
        num_partitions=min(num_partitions, 16))


def lag_delta(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    order_col: str = "event_id",
    value_col: str = "value",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Per-key LAG difference (the SQL ``value - LAG(value) OVER
    (PARTITION BY key ORDER BY ts, order_col)`` window shape): for each
    event, the change in ``value`` since the key's previous event.
    Emits (key, order_col, value, delta, has_prev) — ``delta`` is 0.0 and
    ``has_prev`` false on each key's first event (a NULL-free encoding
    that keeps the Arrow schema fixed and the hash compare stable).

    Same exchange shape and partitioning assumption as ``sessionize``:
    ONE key-hash exchange, then a single vectorized pandas pass per
    partition (groupby.diff is a C kernel across ALL keys in the
    partition — never one Python call per key).  The subtraction order
    matches the SQL replay exactly, so deltas are IEEE-bit-identical.
    """

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return _with_part(batch, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop(columns=["_part"])
             .sort_values([key_col, ts_col, order_col]))
        d = g.groupby(key_col, sort=False)[value_col].diff()
        return pd.DataFrame({
            key_col: g[key_col],
            order_col: g[order_col],
            value_col: g[value_col],
            "delta": d.fillna(0.0),
            "has_prev": d.notna(),
        })

    return (ds.map_batches(add_part, batch_format="pandas", batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def watermark_filter(
    ds: rd.Dataset,
    *,
    ts_col: str,
    arrival_col: str,
    lateness_us: int,
    out_col: str = "is_late",
) -> rd.Dataset:
    """Streaming late-event classification: replay the stream in
    ``arrival_col`` order and flag every event whose ``ts_col`` lags the
    high-watermark (max event time seen over STRICTLY EARLIER arrivals)
    by more than ``lateness_us`` — exactly the event-time/arrival-time
    watermark rule a streaming window applies before closing a pane.
    The first arrival is never late.  Output adds ``out_col`` (int64
    0/1) and passes everything else through; callers drop or
    dead-letter the flagged rows.

    Built on ``analytics.prefix_max`` (range sort + O(blocks) driver
    partials + streaming combine — no hash exchange), so it holds the
    whole corpus's arrival order without any single worker seeing more
    than its blocks.
    """
    from .analytics import prefix_max

    def to_us(batch: pa.Table) -> pa.Table:
        ts = batch.column(ts_col)
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.timestamp("us")).cast(pa.int64())
        return batch.append_column("_ts_us", ts.cast(pa.float64()))

    with_hw = prefix_max(
        ds.map_batches(to_us, batch_format="pyarrow"),
        order_col=arrival_col, value_col="_ts_us", out_col="_hw")

    def classify(batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n == 0:
            return (batch.drop_columns(["_ts_us", "_hw"])
                    .append_column(out_col, pa.array([], pa.int64())))
        ts = batch.column("_ts_us").to_numpy(zero_copy_only=False)
        hw = batch.column("_hw").to_numpy(zero_copy_only=False)
        late = (~np.isnan(hw)) & (ts < hw - float(lateness_us))
        return (batch.drop_columns(["_ts_us", "_hw"])
                .append_column(out_col,
                               pa.array(late.astype(np.int64), pa.int64())))

    return with_hw.map_batches(classify, batch_format="pyarrow",
                               batch_size=None)


def resample_fill(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    width_us: int = 3_600_000_000,
    num_partitions: int = 64,
    fill: str = "zero",
) -> rd.Dataset:
    """Per-key fixed-width resample with zero-filled gaps: one row per
    key per window between that key's first and last event —
    ``(key, window_id, n, sum_value)`` with ``n=0, sum_value=0.0`` for
    empty windows (the time-series densification in front of lag/trend
    features).  ``fill="locf"`` instead carries the last PRESENT
    window's ``sum_value`` forward across the gap (last observation
    carried forward — the sensor/price densification rule); ``n`` stays
    0 on filled rows either way, so observed and imputed rows remain
    distinguishable.  A key's span starts at its first present window,
    so LOCF never sees a leading gap.  ``fill="linear"`` interpolates
    gap windows between their present anchors
    (pv + (nv - pv) * (w - pw) / (nw - pw)); a trailing gap (no next
    anchor) carries the last value like LOCF.

    Shape: per-batch pyarrow combiner (one partial row per (key,
    window) per batch) -> ONE key-hash exchange so a key's windows
    co-locate -> per-partition vectorized fill (np.repeat/arange over
    the per-key spans, grouped ffill/bfill C paths — no Python loop
    over keys or windows).  Output volume is Σ per-key spans; a key's
    span is bounded by total_time_range / width, so the per-partition
    working set is O(keys_in_partition x max_span) — raise
    ``num_partitions`` (or narrow the window) when spans are long.
    """
    if fill not in ("zero", "locf", "linear"):
        raise ValueError(f"unsupported fill mode {fill!r}")
    locf = fill == "locf"  # the inner fn below shadows the name `fill`
    linear = fill == "linear"

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts_us = batch.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
        wins = ts_us.to_numpy(zero_copy_only=False) // width_us
        t = pa.table({key_col: batch.column(key_col),
                      "window_id": pa.array(wins, pa.int64()),
                      value_col: batch.column(value_col)})
        g = (t.group_by([key_col, "window_id"])
             .aggregate([(value_col, "sum"), (value_col, "count")])
             .to_pandas())
        return _with_part(g, key_col, num_partitions)

    sum_c, cnt_c = f"{value_col}_sum", f"{value_col}_count"

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_part"])
        agg = (g.groupby([key_col, "window_id"], sort=False, as_index=False)
               .agg(sum_value=(sum_c, "sum"), n=(cnt_c, "sum")))
        spans = agg.groupby(key_col, sort=False)["window_id"].agg(
            ["min", "max"])
        lens = (spans["max"] - spans["min"] + 1).to_numpy(np.int64)
        keys_rep = np.repeat(spans.index.to_numpy(), lens)
        offs = np.concatenate([[0], np.cumsum(lens)[:-1]])
        idx = np.arange(lens.sum(), dtype=np.int64) - np.repeat(offs, lens)
        wids = np.repeat(spans["min"].to_numpy(np.int64), lens) + idx
        full = pd.DataFrame({key_col: keys_rep, "window_id": wids})
        out = full.merge(agg, on=[key_col, "window_id"], how="left")
        out["n"] = out["n"].fillna(0).astype("int64")
        if locf:
            # rows are (key, window)-ordered by construction of the span
            # fill; groupby.ffill is the vectorized C path (never a
            # Python call per key)
            out["sum_value"] = (out.groupby(key_col, sort=False)
                                ["sum_value"].ffill())
        elif linear:
            v = out["sum_value"]
            present = out["n"] > 0
            wid_p = out["window_id"].where(present)
            pw = wid_p.groupby(out[key_col], sort=False).ffill()
            nw = wid_p.groupby(out[key_col], sort=False).bfill()
            pv = v.groupby(out[key_col], sort=False).ffill()
            nv = v.groupby(out[key_col], sort=False).bfill()
            frac = (out["window_id"] - pw) / (nw - pw)
            interp = pv + (nv - pv) * frac
            out["sum_value"] = np.where(
                present, v, np.where(nw.isna(), pv, interp))
        else:
            out["sum_value"] = out["sum_value"].fillna(0.0)
        return out[[key_col, "window_id", "n", "sum_value"]]

    return (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536)
            .groupby("_part").map_groups(fill, batch_format="pandas"))


def transition_matrix(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    state_col: str = "event_type",
    tiebreak_col: str = "event_id",
    num_partitions: int = 64,
) -> rd.Dataset:
    """First-order Markov transition counts + probabilities over per-key
    event sequences: ``(state_from, state_to, n, prob)`` where prob is
    row-normalized per state_from — the clickstream/session model
    behind next-event prediction features.

    ONE key-hash exchange (a key's events co-locate), per-partition
    vectorized sort + groupby.shift to form consecutive pairs, pandas
    crosstab-style counts per partition, then an exchange_agg over the
    (from, to) pairs — shuffle volume after the first exchange is at
    most |states|² rows per partition.  Row normalization happens on
    the driver over the bounded |states|² result.  Ordering ties break
    on ``tiebreak_col`` so the pair sequence is deterministic.
    """
    from .exchange import exchange_agg

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return _with_part(batch, key_col, num_partitions)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tiebreak_col],
                          kind="mergesort")
        prev = g.groupby(key_col, sort=False)[state_col].shift(1)
        m = prev.notna()
        out = (pd.DataFrame({"state_from": prev[m],
                             "state_to": g.loc[m, state_col]})
               .groupby(["state_from", "state_to"], as_index=False)
               .size().rename(columns={"size": "n"}))
        out["n"] = out["n"].astype("int64")
        return out

    counted = exchange_agg(
        ds.map_batches(add_part, batch_format="pandas", batch_size=65536)
        .groupby("_part").map_groups(pairs, batch_format="pandas"),
        ["state_from", "state_to"], [("n", "sum", "n")])
    tot = counted.to_pandas()
    tot["n"] = tot["n"].astype("int64")
    tot["prob"] = tot["n"] / tot.groupby("state_from")["n"].transform("sum")
    return rd.from_pandas(
        tot.sort_values(["state_from", "state_to"]).reset_index(drop=True))


def ewma(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    tiebreak_col: str = "event_id",
    alpha: float = 0.3,
    out_col: str = "ewma",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Per-key exponential moving average in event order:
    ``y_1 = x_1, y_t = α·x_t + (1-α)·y_{t-1}`` — the streaming-feature
    smoother.

    BIT-EXACT by construction: the recurrence is evaluated step-by-step
    with exactly one rounded multiply-each + add per element (never a
    rearranged power series, never pandas' ewm weight accumulator), and
    ``1-α`` is computed once the same way an engine evaluates the
    literal expression — so a recursive-SQL replay reproduces every
    float bit.  Vectorized across keys: after ONE key-hash exchange,
    each partition sorts once and then loops over sequence POSITIONS
    (bounded by the longest key's event count), each step one numpy
    fused pass over every key alive at that position — never a Python
    call per key.
    """

    a = np.float64(alpha)
    one_minus = np.float64(1.0) - a

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return _with_part(batch, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop(columns=["_part"])
             .sort_values([key_col, ts_col, tiebreak_col],
                          kind="mergesort").reset_index(drop=True))
        x = g[value_col].to_numpy(np.float64)
        y = x.copy()                      # position 0: y = x
        starts, lens = _key_runs(g[key_col].to_numpy())
        max_pos = int(lens.max()) - 1 if len(lens) else 0
        for t in range(1, max_pos + 1):
            cur = starts[lens > t] + t
            # rows are (key, pos)-sorted, so the predecessor of a
            # position-t row is physically the previous row
            y[cur] = a * x[cur] + one_minus * y[cur - 1]
        g[out_col] = y
        return g

    return (ds.map_batches(add_part, batch_format="pandas",
                           batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def double_smooth(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    tiebreak_col: str = "event_id",
    alpha: float = 0.5,
    beta: float = 0.3,
    level_col: str = "level",
    trend_col: str = "trend",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Per-key Holt double exponential smoothing (level + linear trend)
    in event order — the trend-aware cousin of :func:`ewma`:

        l_1 = x_1,  b_1 = 0
        l_t = α·x_t + (1-α)·(l_{t-1} + b_{t-1})
        b_t = β·(l_t - l_{t-1}) + (1-β)·b_{t-1}

    BIT-EXACT by the same construction as ``ewma``: each step is the
    literal recurrence expression evaluated once per element (one fused
    numpy pass across every key alive at that sequence position), so a
    recursive-SQL replay stepping rn→rn+1 with the identical float
    expression reproduces every bit.  ONE key-hash exchange; the
    per-partition loop is over sequence POSITIONS, never keys.
    """
    a = np.float64(alpha)
    one_minus_a = np.float64(1.0) - a
    bt = np.float64(beta)
    one_minus_b = np.float64(1.0) - bt

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return _with_part(batch, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop(columns=["_part"])
             .sort_values([key_col, ts_col, tiebreak_col],
                          kind="mergesort").reset_index(drop=True))
        x = g[value_col].to_numpy(np.float64)
        lvl = x.copy()                    # position 0: l = x, b = 0
        trd = np.zeros(len(g), np.float64)
        starts, lens = _key_runs(g[key_col].to_numpy())
        max_pos = int(lens.max()) - 1 if len(lens) else 0
        for t in range(1, max_pos + 1):
            cur = starts[lens > t] + t
            prev = cur - 1                # (key, pos)-sorted adjacency
            l_new = a * x[cur] + one_minus_a * (lvl[prev] + trd[prev])
            trd[cur] = bt * (l_new - lvl[prev]) + one_minus_b * trd[prev]
            lvl[cur] = l_new
        g[level_col] = lvl
        g[trend_col] = trd
        return g

    return (ds.map_batches(add_part, batch_format="pandas",
                           batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def burst_detect(
    ds: rd.Dataset,
    *,
    key_col: str = "event_type",
    ts_col: str = "ts",
    width_us: int = 3_600_000_000,
    baseline: int = 6,
    z_threshold: float = 2.0,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Windowed burst detection: tumbling event counts per key, each
    window z-scored against the trailing ``baseline`` PRESENT windows
    (row-based, mirroring SQL ``ROWS BETWEEN b PRECEDING AND 1
    PRECEDING``) — the trending-topic / anomaly-spike primitive.

    Emits (key, window_id, n, base_mean, base_var, z, burst) for every
    window with a FULL baseline behind it (a key's first ``baseline``
    windows are warm-up and dropped — total functions only, no NULL
    stats to round-trip through engines).  base stats use the
    population form mean = Σx/b, var = Σx²/b − mean² over exact integer
    rolling sums, so the SQL replay is bit-equal (ints are exact; the
    float ops appear in the same order).  A flat baseline (var = 0)
    yields z = 0 and burst = false by convention — flag totality beats
    an undefined z.

    Shape: per-batch pyarrow count combiner (one partial per (key,
    window) per batch) -> ONE key-hash exchange -> per-partition
    vectorized pass: rolling sums via a global cumsum + position mask
    (rows are (key, window)-sorted, so a row's trailing b same-key rows
    are physically the previous b rows — no Python loop over keys).
    """
    b_win = int(baseline)

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts_us = batch.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
        wins = ts_us.to_numpy(zero_copy_only=False) // width_us
        t = pa.table({key_col: batch.column(key_col),
                      "window_id": pa.array(wins, pa.int64())})
        g = (t.group_by([key_col, "window_id"])
             .aggregate([([], "count_all")]).to_pandas()
             .rename(columns={"count_all": "n"}))
        return _with_part(g, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_part"])
        g = (g.groupby([key_col, "window_id"], sort=False, as_index=False)
             ["n"].sum())
        g = (g.sort_values([key_col, "window_id"], kind="mergesort")
             .reset_index(drop=True))
        pos = g.groupby(key_col, sort=False).cumcount().to_numpy()
        n = g["n"].to_numpy(np.int64)
        csz1 = np.concatenate(([0], np.cumsum(n)))
        csz2 = np.concatenate(([0], np.cumsum(n * n)))
        i = np.arange(len(g))
        ok = pos >= b_win
        s1 = csz1[i] - csz1[np.maximum(i - b_win, 0)]
        s2 = csz2[i] - csz2[np.maximum(i - b_win, 0)]
        mean = s1 / float(b_win)
        var = s2 / float(b_win) - mean * mean
        safe = var > 0.0
        z = np.where(safe, (n - mean) / np.sqrt(np.where(safe, var, 1.0)),
                     0.0)
        out = pd.DataFrame({
            key_col: g[key_col],
            "window_id": g["window_id"].astype("int64"),
            "n": n,
            "base_mean": mean,
            "base_var": var,
            "z": z,
            "burst": safe & (z > z_threshold),
        })
        return out[ok].reset_index(drop=True)

    return (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def interval_coverage(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    dur_us: int = 1_800_000_000,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Per-key union-of-intervals coverage: each event opens the interval
    ``[ts, ts + dur_us)``; overlapping/touching intervals merge into
    islands.  Emits one row per key: (key, n_islands, covered_us).

    Executed as ONE key-hash exchange + a single vectorized pass per
    partition (groupby.cummax finds the running island end across ALL
    keys at once).  Island membership is order-independent under ts ties
    (equal starts always land in the same island), so the result is
    deterministic without a tiebreak column.  Partitioning assumption:
    one partition's events fit in a worker (raise ``num_partitions``
    with data size).
    """
    dur = np.int64(dur_us)

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return _with_part(batch, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop(columns=["_part"])
             .sort_values([key_col, ts_col], kind="mergesort")
             .reset_index(drop=True))
        s = g[ts_col].values.astype("datetime64[us]").astype("int64")
        e = s + dur
        grp_key = g[key_col]
        cummax_end = pd.Series(e).groupby(grp_key, sort=False).cummax()
        prev_max = cummax_end.groupby(grp_key, sort=False).shift()
        brk = prev_max.isna() | (pd.Series(s) > prev_max)
        island = brk.groupby(grp_key, sort=False).cumsum()
        per_isl = (pd.DataFrame({key_col: grp_key, "_isl": island,
                                 "_s": s, "_e": e})
                   .groupby([key_col, "_isl"], sort=False)
                   .agg(st=("_s", "min"), en=("_e", "max")))
        cov = per_isl["en"] - per_isl["st"]
        out = (cov.groupby(level=0, sort=False)
               .agg(["size", "sum"])
               .rename(columns={"size": "n_islands", "sum": "covered_us"})
               .reset_index())
        out["n_islands"] = out["n_islands"].astype("int64")
        out["covered_us"] = out["covered_us"].astype("int64")
        return out

    return (ds.map_batches(add_part, batch_format="pandas",
                           batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def debounce(
    ds: rd.Dataset,
    *,
    key_cols: list[str] | None = None,
    ts_col: str = "ts",
    order_col: str = "event_id",
    gap_us: int = 300_000_000,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Burst-start filter: keep only rows whose gap since the PREVIOUS
    event of the same key tuple (ordered by ``(ts, order_col)``) exceeds
    ``gap_us`` — i.e. the first event of every chained burst, the
    streaming 'debounce' / alert-storm-suppression shape.

    Emits the kept rows' (key_cols..., order_col, ts_col).  Same
    exchange + single-vectorized-pass-per-partition shape as
    ``sessionize`` (hash on the FIRST key column; groupby.diff across
    all key tuples at once).
    """
    keys = list(key_cols or ["user_id", "event_type"])

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return _with_part(batch, keys[0], num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop(columns=["_part"])
             .sort_values(keys + [ts_col, order_col], kind="mergesort")
             .reset_index(drop=True))
        ts_us = pd.Series(
            g[ts_col].values.astype("datetime64[us]").astype("int64"))
        gaps = ts_us.groupby([g[k] for k in keys], sort=False).diff()
        keep = gaps.isna() | (gaps > gap_us)
        return g.loc[keep.to_numpy(), keys + [order_col, ts_col]]

    return (ds.map_batches(add_part, batch_format="pandas",
                           batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def scd2_history(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    order_col: str = "event_id",
    attr_col: str = "event_type",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Slowly-changing-dimension (type 2) history build: per key, ordered
    by ``(ts, order_col)``, compress consecutive runs of equal
    ``attr_col`` into validity ranges.  Emits
    (key, attr, valid_from_us, valid_to_us) with valid_to_us = the next
    change's timestamp, or -1 for the currently-open row.

    One key-hash exchange; change detection is a vectorized shift-compare
    across ALL keys in the partition.  Run compression is
    order-DEPENDENT under (ts) ties, hence the explicit ``order_col``
    tiebreak mirrored in the SQL oracle.
    """

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return _with_part(batch, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop(columns=["_part"])
             .sort_values([key_col, ts_col, order_col], kind="mergesort")
             .reset_index(drop=True))
        ts_us = pd.Series(
            g[ts_col].values.astype("datetime64[us]").astype("int64"))
        key = g[key_col]
        first = ~key.eq(key.shift())
        changed = first | ~g[attr_col].eq(g[attr_col].shift())
        ch = pd.DataFrame({key_col: key[changed],
                           attr_col: g.loc[changed.to_numpy(), attr_col],
                           "valid_from_us": ts_us[changed]})
        nxt = ch.groupby(key_col, sort=False)["valid_from_us"].shift(-1)
        ch["valid_to_us"] = nxt.fillna(-1).astype("int64")
        return ch.reset_index(drop=True)

    return (ds.map_batches(add_part, batch_format="pandas",
                           batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def grouped_path(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    order_col: str = "event_id",
    val_col: str = "event_type",
    max_n: int = 20,
    sep: str = ">",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Ordered grouped string concatenation: per key, the ``sep``-joined
    sequence of the first ``max_n`` values ordered by
    ``(ts, order_col)`` — the 'user journey path' shape.  Emits
    (key, path, n).

    Fully vectorized per partition: pandas sort + cumcount cap, then
    pyarrow hash-aggregate ``list`` (single-threaded scan order is the
    sorted order) + ``binary_join`` — no Python call per key, output
    volume bounded by max_n × keys.
    """
    import pyarrow.compute as pc

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return _with_part(batch, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop(columns=["_part"])
             .sort_values([key_col, ts_col, order_col], kind="mergesort")
             .reset_index(drop=True))
        pos = g.groupby(key_col, sort=False).cumcount()
        g = g.loc[(pos < max_n).to_numpy(), [key_col, val_col]]
        t = pa.Table.from_pandas(g, preserve_index=False)
        agg = t.group_by(key_col, use_threads=False).aggregate(
            [(val_col, "list"), (val_col, "count")])
        path = pc.binary_join(
            agg.column(f"{val_col}_list").combine_chunks(), sep)
        return pa.table({key_col: agg.column(key_col),
                         "path": path,
                         "n": agg.column(f"{val_col}_count").cast(
                             pa.int64())}).to_pandas()

    return (ds.map_batches(add_part, batch_format="pandas",
                           batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def decayed_sum(
    ds: rd.Dataset,
    *,
    key_col: str,
    ts_col: str,
    value_col: str,
    as_of_us: int,
    half_life_s: float = 86400.0,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Exponentially time-decayed aggregate per key AS OF a fixed
    instant — the feature-store recency feature:
    ``Σ value·exp(−((as_of − ts)/1e6)/half_life_s)`` (natural-log decay;
    multiply ``half_life_s`` by 1/ln2 for true half-life semantics).
    Unlike :func:`ewma` (an order-dependent per-event recurrence) this
    is an order-FREE weighted sum, so it folds through the standard
    combiner → key-hash exchange → reduce with no sort anywhere.

    Output: (key_col, decayed_sum).  One pass, one exchange of
    per-batch per-key partials.
    """
    from .exchange import exchange_agg

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(ts_col)
        if pa.types.is_timestamp(col.type):
            # normalize to MICROSECONDS (parquet gives us, pandas frames
            # give ns — a raw int64 cast of ns made age_s 1000x off and
            # exp() under/overflowed; review r5)
            col = col.cast(pa.timestamp("us"))
        ts = col.cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        v = batch.column(value_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        age_s = (np.float64(as_of_us) - ts.astype(np.float64)) / 1e6
        w = v * np.exp(-(age_s / np.float64(half_life_s)))
        return pa.table({
            key_col: batch.column(key_col).cast(pa.int64()),
            "_w": pa.array(w, pa.float64())})

    return exchange_agg(
        ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=65536),
        key_col, [("_w", "sum", "decayed_sum")],
        num_partitions=num_partitions)


def time_weighted_avg(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    val_col: str = "value",
    order_col: str = "event_id",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Per-key TIME-weighted average — the feature-store aggregate for
    irregularly-sampled signals (a price held for an hour must weigh 60×
    one held for a minute; the plain mean is wrong the moment sampling
    is uneven):

        twa(key) = Σ value_i · (t_{i+1} − t_i) / Σ (t_{i+1} − t_i)

    over consecutive events ordered by ``(ts, order_col)``; the last
    event of a key opens no span.  Output: ``(key, n_spans, twa)``;
    keys with no positive-duration span are dropped (their weighted sum
    is 0/0).  ``twa`` is a float sum ratio — callers round (sum order
    is partition-dependent).

    Scale shape: the sessionize pattern — ONE hash exchange on the key,
    then per partition a single vectorized pandas pass (sort +
    ``groupby.shift`` across ALL keys in the partition; no per-key
    Python).  A key's events must fit in one partition — the same
    assumption sessionize documents.
    """

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return _with_part(batch, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop(columns=["_part"])
             .sort_values([key_col, ts_col, order_col], kind="mergesort"))
        t = np.asarray(g[ts_col]).astype("datetime64[us]").astype(np.int64)
        g = g.assign(_t=t)
        nxt = g.groupby(key_col, sort=False)["_t"].shift(-1)
        dur = (nxt - g["_t"]).to_numpy(np.float64)  # NaN on last-of-key
        w = g[val_col].to_numpy(np.float64) * dur
        agg = (pd.DataFrame({key_col: g[key_col].to_numpy(np.int64),
                             "_w": w, "_d": dur,
                             "_n": (~np.isnan(dur)).astype(np.int64)})
               .groupby(key_col, sort=False)
               .agg(sw=("_w", "sum"), sd=("_d", "sum"),
                    n_spans=("_n", "sum"))
               .reset_index())
        agg = agg[agg["sd"] > 0]
        return pd.DataFrame({
            key_col: agg[key_col].astype("int64"),
            "n_spans": agg["n_spans"].astype("int64"),
            "twa": agg["sw"] / agg["sd"],
        })

    return (ds.map_batches(add_part, batch_format="pandas",
                           batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def survival_table(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    censor_horizon_us: int = 7 * 86_400_000_000,
    day_us: int = 86_400_000_000,
    num_partitions: int = 64,
) -> pd.DataFrame:
    """Kaplan–Meier life table for churn/retention analysis: per
    observed-lifetime day ``(day, at_risk, deaths, censored, factor)``
    with ``factor = 1 − deaths/at_risk``; the survival curve is the
    running product of factors.  A key whose LAST event falls within
    ``censor_horizon_us`` of the corpus max timestamp is right-CENSORED
    (still alive at the observation edge — counting it as a death is
    the classic retention-analysis bias); everyone else "dies" at their
    last event.

    All sufficient statistics are integers, so the result is exact on
    any engine/partitioning; only ``factor`` is float (one per-row
    expression).

    Scale shape: per-key (first, last) via one combiner-backed
    ``exchange_agg`` min/max; corpus max folds from per-batch partials
    (O(batches) driver rows); per-day death/censor counts through one
    more exchange.  The life table itself is inherently bounded by the
    observation window in DAYS (a 10-year corpus is ~3,650 rows), so
    the at-risk reverse cumsum is driver math on the bounded result —
    the same driver-tail contract as the RBO/MMR readouts.
    """
    from .exchange import exchange_agg

    spans = exchange_agg(
        ds.map_batches(
            lambda t: pa.table({
                key_col: t.column(key_col).cast(pa.int64()),
                "_t": t.column(ts_col).cast(pa.timestamp("us"))
                       .cast(pa.int64())}),
            batch_format="pyarrow"),
        key_col, [("_t", "min", "t0"), ("_t", "max", "t1")],
        num_partitions=num_partitions).materialize()
    # corpus max: O(batches) partial rows -> driver max
    _mf = spans.map_batches(
        lambda t: pa.table({"m": pa.array(
            [pc.max(t.column("t1")).as_py()], pa.int64())}),
        batch_format="pyarrow").to_pandas()
    # empty input: map_batches skips empty blocks, so the frame may be
    # column-less (Ray 2.49) — treat as NaN
    _m = _mf["m"].max() if "m" in _mf.columns and len(_mf) else float("nan")
    if pd.isna(_m):
        # empty input: empty life table, not int(NaN) (review r5;
        # seasonal_decompose's convention)
        return pd.DataFrame({
            "day": pd.Series(dtype="int64"),
            "at_risk": pd.Series(dtype="int64"),
            "deaths": pd.Series(dtype="int64"),
            "censored": pd.Series(dtype="int64"),
            "factor": pd.Series(dtype="float64")})
    tmax = int(_m)

    def per_key(t: pa.Table) -> pa.Table:
        t0 = t.column("t0").to_numpy(zero_copy_only=False)
        t1 = t.column("t1").to_numpy(zero_copy_only=False)
        day = (t1 - t0) // day_us
        cens = ((tmax - t1) < censor_horizon_us).astype(np.int64)
        return pa.table({
            "day": pa.array(day, pa.int64()),
            "deaths": pa.array(1 - cens, pa.int64()),
            "censored": pa.array(cens, pa.int64()),
        })

    per_day = exchange_agg(
        spans.map_batches(per_key, batch_format="pyarrow"),
        "day", [("deaths", "sum", "deaths"),
                ("censored", "sum", "censored")],
        num_partitions=num_partitions).to_pandas()
    per_day = per_day.sort_values("day").reset_index(drop=True)
    leaving = (per_day["deaths"] + per_day["censored"]).to_numpy(np.int64)
    total = int(leaving.sum())
    at_risk = total - np.concatenate([[0], np.cumsum(leaving)[:-1]])
    deaths = per_day["deaths"].to_numpy(np.int64)
    factor = 1.0 - deaths * 1.0 / at_risk
    return pd.DataFrame({
        "day": per_day["day"].astype("int64"),
        "at_risk": pd.Series(at_risk, dtype="int64"),
        "deaths": per_day["deaths"].astype("int64"),
        "censored": per_day["censored"].astype("int64"),
        "factor": factor,
    })


def pattern_adjacent(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    order_col: str = "event_id",
    type_col: str = "event_type",
    first: str = "view",
    second: str = "purchase",
    max_gap_us: int = 3_600_000_000,
    num_partitions: int = 64,
) -> rd.Dataset:
    """CEP-style adjacency pattern (the MATCH_RECOGNIZE / FlinkCEP
    ``A NEXT B`` primitive): per key, emit every event of type
    ``first`` IMMEDIATELY followed — next event in (ts, order) order,
    nothing in between — by an event of type ``second`` within
    ``max_gap_us``.  Contrast ``funnel``, which allows arbitrary events
    between steps; strict contiguity is what funnel can't express.

    Output: (key, first_id, second_id, gap_us).

    Scale shape: the sessionize pattern — one key-hash exchange, one
    vectorized per-partition pass (sort + groupby.shift(-1) across all
    keys; no per-key Python).
    """

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return _with_part(batch, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop(columns=["_part"])
             .sort_values([key_col, ts_col, order_col], kind="mergesort"))
        t = np.asarray(g[ts_col]).astype("datetime64[us]").astype(np.int64)
        g = g.assign(_t=t)
        grp = g.groupby(key_col, sort=False)
        nid = grp[order_col].shift(-1)
        ntype = grp[type_col].shift(-1)
        nt = grp["_t"].shift(-1)
        gap = nt - g["_t"]
        hit = ((g[type_col] == first) & (ntype == second)
               & (gap <= max_gap_us))
        out = g[hit]
        return pd.DataFrame({
            key_col: out[key_col].astype("int64"),
            "first_id": out[order_col].astype("int64"),
            "second_id": nid[hit].astype("int64"),
            "gap_us": gap[hit].astype("int64"),
        })

    return (ds.map_batches(add_part, batch_format="pandas",
                           batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def rate_limit(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    tiebreak_col: str = "event_id",
    width_us: int = 3_600_000_000,
    max_per_window: int = 5,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Streaming throttle: keep only the FIRST ``max_per_window`` events
    per (key, tumbling window) in (ts, tiebreak) order — the
    rate-limiting / sampling-per-user rule in front of an expensive
    downstream stage (dedup of abusive clients, per-user inference
    caps).

    ONE key-hash exchange; per partition a single vectorized pass:
    sort by (key, ts, tiebreak), derive the window id, and keep rows
    whose ``groupby(key, window).cumcount()`` (pandas' C path) is below
    the cap.  Deterministic under ts ties via the tiebreak column.
    Emits all original columns plus ``window_id``.
    """
    cap = int(max_per_window)

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return _with_part(batch, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop(columns=["_part"])
             .sort_values([key_col, ts_col, tiebreak_col],
                          kind="mergesort").reset_index(drop=True))
        wins = (g[ts_col].values.astype("datetime64[us]").astype(np.int64)
                // width_us)
        g["window_id"] = wins
        rank = g.groupby([key_col, "window_id"], sort=False).cumcount()
        return g[rank.to_numpy() < cap].reset_index(drop=True)

    return (ds.map_batches(add_part, batch_format="pandas",
                           batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def autocorr(
    ds: rd.Dataset,
    *,
    key_col: str = "event_type",
    ts_col: str = "ts",
    width_us: int = 3_600_000_000,
    lags: tuple[int, ...] = (1, 2, 3),
    num_partitions: int = 32,
) -> rd.Dataset:
    """Per-key autocorrelation of the hourly count series at the given
    row-based lags (present windows only, the :func:`burst_detect`
    convention): for the mean-centered series d,

        acf_k = Σ_t d_t · d_{t-k}  /  Σ_t d_t²

    — the seasonality/self-similarity readout feeding lag-feature
    selection.  Emits (key, lag, n_windows, acf).

    Shape: per-batch pyarrow count combiner -> ONE key-hash exchange ->
    per-partition vectorized pass (per-key mean via groupby.transform,
    lag products via the (key, window)-sorted position mask — a row's
    lag-k neighbor is physically k rows back iff its within-key
    position is >= k; never a Python loop over keys).  Partitioning
    assumption: one key's present windows fit in its partition
    (time-bounded — windows per key <= total range / width).
    """
    lag_list = sorted(set(int(x) for x in lags))
    if not lag_list or lag_list[0] < 1:
        raise ValueError("lags must be >= 1")

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts_us = batch.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
        wins = ts_us.to_numpy(zero_copy_only=False) // width_us
        t = pa.table({key_col: batch.column(key_col),
                      "window_id": pa.array(wins, pa.int64())})
        g = (t.group_by([key_col, "window_id"])
             .aggregate([([], "count_all")]).to_pandas()
             .rename(columns={"count_all": "n"}))
        return _with_part(g, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_part"])
        g = (g.groupby([key_col, "window_id"], sort=False, as_index=False)
             ["n"].sum())
        g = (g.sort_values([key_col, "window_id"], kind="mergesort")
             .reset_index(drop=True))
        pos = g.groupby(key_col, sort=False).cumcount().to_numpy()
        x = g["n"].to_numpy(np.float64)
        mean = (g.groupby(key_col, sort=False)["n"]
                .transform("mean").to_numpy(np.float64))
        d = x - mean
        keys = g[key_col]
        den = pd.Series(d * d).groupby(keys.values, sort=False).sum()
        nwin = keys.value_counts(sort=False).reindex(den.index)
        denv = den.to_numpy(np.float64)
        out = []
        for k in lag_list:               # bounded lag list, not keys
            prod = np.zeros(len(g), np.float64)
            ok = pos >= k
            idx = np.arange(len(g))
            prod[ok] = d[ok] * d[idx[ok] - k]
            num = (pd.Series(prod).groupby(keys.values, sort=False)
                   .sum().reindex(den.index).to_numpy(np.float64))
            out.append(pd.DataFrame({
                key_col: den.index,
                "lag": np.full(len(den), k, np.int64),
                "n_windows": nwin.to_numpy(np.int64),
                "acf": np.where(denv > 0.0, num / np.where(
                    denv > 0.0, denv, 1.0), 0.0)}))
        return pd.concat(out, ignore_index=True)

    return (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def cusum_detect(
    ds: rd.Dataset,
    *,
    key_col: str = "event_type",
    ts_col: str = "ts",
    width_us: int = 3_600_000_000,
    kappa: float = 0.5,
    h: float = 4.0,
    num_partitions: int = 32,
) -> rd.Dataset:
    """One-sided positive CUSUM changepoint scores (Page 1954) over each
    key's hourly count series — the drift detector that catches slow
    level shifts :func:`burst_detect`'s windowed z-score misses:

        ref = per-key mean count (float-exact: integer sums)
        s_t = max(0, s_{t-1} + ((x_t - ref) - kappa)),  s_0 = 0
        alarm iff s_t > h

    BIT-EXACT by the :func:`ewma` construction: the recurrence is the
    literal expression evaluated once per element, so a recursive-SQL
    replay stepping rn→rn+1 reproduces every float bit.  Shape:
    per-batch pyarrow count combiner -> ONE key-hash exchange -> a
    per-partition loop over sequence POSITIONS (one fused numpy pass
    across every key alive at that position), never a Python call per
    key.  Emits (key, window_id, n, s, alarm) over present windows.
    """
    kap = np.float64(kappa)
    thresh = np.float64(h)

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts_us = batch.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
        wins = ts_us.to_numpy(zero_copy_only=False) // width_us
        t = pa.table({key_col: batch.column(key_col),
                      "window_id": pa.array(wins, pa.int64())})
        g = (t.group_by([key_col, "window_id"])
             .aggregate([([], "count_all")]).to_pandas()
             .rename(columns={"count_all": "n"}))
        return _with_part(g, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_part"])
        g = (g.groupby([key_col, "window_id"], sort=False, as_index=False)
             ["n"].sum())
        g = (g.sort_values([key_col, "window_id"], kind="mergesort")
             .reset_index(drop=True))
        x = g["n"].to_numpy(np.float64)
        ref = (g.groupby(key_col, sort=False)["n"]
               .transform("mean").to_numpy(np.float64))
        z = (x - ref) - kap
        s = np.maximum(0.0, z)            # position 0: s = max(0, z)
        starts, lens = _key_runs(g[key_col].to_numpy())
        max_pos = int(lens.max()) - 1 if len(lens) else 0
        for t in range(1, max_pos + 1):
            cur = starts[lens > t] + t
            s[cur] = np.maximum(0.0, s[cur - 1] + z[cur])
        g["n"] = g["n"].astype("int64")
        g["s"] = s
        g["alarm"] = s > thresh
        return g

    return (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def ohlc_bars(
    ds: rd.Dataset,
    *,
    key_col: str = "event_type",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    width_us: int = 3_600_000_000,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Per-(key, tumbling window) OHLC bars — open / high / low /
    close / count — the metrics-rollup candle every monitoring and
    market pipeline materializes.  open/close are the values at the
    (ts, id)-min/max rows; ``id_col`` breaks exact-timestamp ties
    deterministically.

    Shape: per-batch combiner collapses each (key, window) to ONE
    candidate row (batch-local OHLC plus its endpoint orderings), so
    exchange volume is batches x live windows, not raw rows; ONE
    key-hash exchange; per-partition vectorized reduce re-applies the
    same argmin/argmax via two sorts + groupby first (C paths).
    """
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # canonicalize to MICROseconds: pandas batches may arrive ns-
        # resolution (rd.from_pandas) or us (parquet reads)
        ts_us = pd.Series(
            b[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64),
            index=b.index)
        g = pd.DataFrame({
            key_col: b[key_col],
            "window_id": ts_us // width_us,
            "_ts": ts_us,
            "_id": b[id_col].astype("int64"),
            "_v": b[value_col].astype("float64")})
        g = g.sort_values([key_col, "window_id", "_ts", "_id"],
                          kind="mergesort")
        gb = g.groupby([key_col, "window_id"], sort=False)
        first = gb.head(1).rename(columns={
            "_ts": "o_ts", "_id": "o_id", "_v": "open"})
        last = (gb.tail(1).rename(columns={
            "_ts": "c_ts", "_id": "c_id", "_v": "close"})
            .set_index([key_col, "window_id"]))
        agg = gb["_v"].agg(high="max", low="min", n="size")
        out = first.set_index([key_col, "window_id"]).join(
            [last, agg]).reset_index()
        out["n"] = out["n"].astype("int64")
        return _with_part(out, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_part"])
        keys = [key_col, "window_id"]
        go = (g.sort_values([*keys, "o_ts", "o_id"], kind="mergesort")
              .groupby(keys, sort=False).head(1)
              .set_index(keys)[["open"]])
        gc = (g.sort_values([*keys, "c_ts", "c_id"], kind="mergesort")
              .groupby(keys, sort=False).tail(1)
              .set_index(keys)[["close"]])
        agg = g.groupby(keys, sort=False).agg(
            high=("high", "max"), low=("low", "min"), n=("n", "sum"))
        out = go.join([gc, agg]).reset_index()
        out["n"] = out["n"].astype("int64")
        return out[[key_col, "window_id", "open", "high", "low",
                    "close", "n"]]

    return (ds.map_batches(partial, batch_format="pandas",
                           batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def rolling_median(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    order_col: str = "event_id",
    value_col: str = "value",
    window_rows: int = 5,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Per-key ROWS-window rolling MEDIAN (``quantile_cont(0.5) OVER
    ROWS BETWEEN n-1 PRECEDING AND CURRENT ROW``) — the robust smoother
    that ignores the spikes a rolling mean chases (the despike filter
    for sensor/metric streams; pairs with :func:`robust_zscore`'s
    global form).  Fewer rows at the head of each key, ordered by
    ``(ts, order_col)``.

    Same exchange shape as :func:`rolling_agg`: ONE key-hash exchange,
    then one pandas ``groupby.rolling.median`` per partition — a C path
    vectorized across every key in the partition, never a Python call
    per key.  Emits (key, order_col, value, rolling_med).
    """
    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return _with_part(batch, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop(columns=["_part"])
             .sort_values([key_col, ts_col, order_col]))
        med = (g.groupby(key_col, sort=False)[value_col]
               .rolling(window_rows, min_periods=1).median()
               .reset_index(level=0, drop=True))
        return pd.DataFrame({
            key_col: g[key_col],
            order_col: g[order_col].astype("int64"),
            value_col: g[value_col].astype("float64"),
            "rolling_med": med.astype("float64")})

    return (ds.map_batches(add_part, batch_format="pandas",
                           batch_size=65536)
            .groupby("_part").map_groups(per_part, batch_format="pandas"))


def seasonal_decompose(
    ds: rd.Dataset,
    *,
    ts_col: str = "ts",
    period: int = 24,
    width_us: int = 3_600_000_000,
    max_points: int = 2_000_000,
    num_partitions: int = 16,
) -> pd.DataFrame:
    """Classical additive seasonal decomposition of the per-window
    event-count series: count -> centered 2xP moving-average trend ->
    per-phase seasonal index -> remainder.

    The corpus-proportional work is ONE distributed count aggregation
    (per-batch pyarrow combiner -> hash exchange, the tumbling_agg
    shape); the resulting series is TIME-bounded, not data-bounded
    (2M hourly points = 228 years), so the decomposition itself is
    bounded driver math behind ``max_points`` — the bounded-small-side
    pattern.  Missing windows inside [min, max] are filled with count
    0 (the decomposition needs a dense series).

    trend[t] = (0.5*x[t-P/2] + Σ x[t-P/2+1 .. t+P/2-1] + 0.5*x[t+P/2])
    / P (the standard 2xP centered MA; ``period`` must be even),
    rounded 6dp; seasonal[phase] = round(mean of detrended at that
    phase, 6); remainder = round(detrended - seasonal, 6).  Rows
    without a full MA window (the first/last P/2) are dropped.
    Returns (window_id, cnt, trend, seasonal, remainder).
    """
    from .exchange import exchange_agg

    if period % 2:
        raise ValueError("seasonal_decompose: period must be even "
                         "(2xP centered moving average)")

    def partial(batch: pa.Table) -> pa.Table:
        ts_us = (batch.column(ts_col).cast(pa.timestamp("us"))
                 .cast(pa.int64()))
        wins = ts_us.to_numpy(zero_copy_only=False) // width_us
        t = pa.table({"window_id": pa.array(wins, pa.int64()),
                      "one": pa.array(np.ones(len(wins), np.int64))})
        return t.group_by(["window_id"]).aggregate([("one", "sum")])

    hc = exchange_agg(
        ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=65536),
        "window_id", [("one_sum", "sum", "cnt")],
        num_partitions=num_partitions).to_pandas()
    if not len(hc):
        return pd.DataFrame(columns=["window_id", "cnt", "trend",
                                     "seasonal", "remainder"])
    lo, hi = int(hc["window_id"].min()), int(hc["window_id"].max())
    if hi - lo + 1 > max_points:
        raise ValueError(
            f"seasonal_decompose: series spans {hi - lo + 1} windows > "
            f"max_points={max_points}; decompose per shard or widen "
            f"width_us")
    dense = np.zeros(hi - lo + 1, np.float64)
    dense[hc["window_id"].to_numpy(np.int64) - lo] = (
        hc["cnt"].to_numpy(np.float64))
    n = len(dense)
    half = period // 2
    if n < period + 1:
        return pd.DataFrame(columns=["window_id", "cnt", "trend",
                                     "seasonal", "remainder"])
    csum = np.concatenate([[0.0], np.cumsum(dense)])
    # inner sum x[t-half+1 .. t+half-1] plus half-weighted endpoints
    t_idx = np.arange(half, n - half)
    inner = csum[t_idx + half] - csum[t_idx - half + 1]
    trend = np.round(
        (0.5 * dense[t_idx - half] + inner + 0.5 * dense[t_idx + half])
        / period, 6)
    detr = dense[t_idx] - trend
    phase = (t_idx + lo) % period
    s_sum = np.zeros(period, np.float64)
    s_cnt = np.zeros(period, np.int64)
    np.add.at(s_sum, phase, detr)
    np.add.at(s_cnt, phase, 1)
    seasonal_idx = np.round(s_sum / np.maximum(s_cnt, 1), 6)
    seasonal = seasonal_idx[phase]
    return pd.DataFrame({
        "window_id": (t_idx + lo).astype(np.int64),
        "cnt": dense[t_idx].astype(np.int64),
        "trend": trend,
        "seasonal": seasonal,
        "remainder": np.round(detr - seasonal, 6)})


def markov_stationary(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    state_col: str = "event_type",
    tiebreak_col: str = "event_id",
    iterations: int = 20,
    max_states: int = 10_000,
    num_partitions: int = 64,
) -> pd.DataFrame:
    """Stationary distribution of the first-order event Markov chain:
    power iteration pi_{k+1} = pi_k P over the row-stochastic matrix
    built from :func:`transition_matrix` counts — "where do user
    journeys spend their time" as one number per state.

    The corpus-proportional work is the transition-count pass (one
    key exchange); the chain itself is STATE-bounded (|states|² <=
    ``max_states``², guarded), so the iteration is driver math.  The
    engine-exactness contract of pca_power_scores: P entries are the
    exact expression n / row_total and every iterate is re-quantized
    to 9dp, so an unrolled SQL replay lands on the identical vector
    (the result is the ITERATE, deterministically).  pi0 = uniform.

    SUB-STOCHASTIC variant, by contract: a state with no outgoing
    transitions (a terminal event type — the last event of every user
    journey has no successor) gets an all-zero row, so probability
    mass reaching it EVAPORATES each iteration and the returned
    vector need not sum to 1.  The iterate is therefore the
    occupancy measure of trajectories still alive after k steps (the
    "killed chain" reading), NOT a renormalized stationary
    distribution — deliberately, because per-iteration L1
    renormalization would make the 9dp-quantized engine/SQL parity
    depend on cross-engine float summation order.  Callers wanting a
    distribution can normalize the returned vector.  Returns
    (state, pi).
    """
    tm = transition_matrix(ds, key_col=key_col, ts_col=ts_col,
                           state_col=state_col,
                           tiebreak_col=tiebreak_col,
                           num_partitions=num_partitions).to_pandas()
    states = sorted(set(tm["state_from"]) | set(tm["state_to"]))
    if len(states) > max_states:
        raise ValueError(
            f"markov_stationary: {len(states)} states exceeds "
            f"max_states={max_states}; the chain no longer fits the "
            f"driver tier")
    idx = {s: i for i, s in enumerate(states)}
    S = len(states)
    if S == 0:
        return pd.DataFrame(columns=["state", "pi"])
    P = np.zeros((S, S))
    fi = tm["state_from"].map(idx).to_numpy(np.int64)
    ti = tm["state_to"].map(idx).to_numpy(np.int64)
    n = tm["n"].to_numpy(np.float64)
    row_tot = np.zeros(S)
    np.add.at(row_tot, fi, n)
    P[fi, ti] = n / row_tot[fi]
    pi = np.full(S, round(1.0 / S, 9))
    for _ in range(iterations):
        pi = np.round(pi @ P, 9)
    return pd.DataFrame({"state": states, "pi": pi})


def cohort_ltv(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    value_col: str = "value",
    revenue_type: str = "purchase",
    day_us: int = 86_400_000_000,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Cohort lifetime-value curves — the revenue companion to
    :func:`retention`: users cohorted by FIRST-event day, revenue
    events bucketed by day-age, cumulative revenue per cohort divided
    by cohort size.

    Fully distributed until the final curve: per-user first day via
    one combiner exchange (the per-user table is never collected),
    cohort attached to revenue events via exchange_join on the key,
    then one (cohort_day, age) exchange_agg — the driver sees only
    the TIME-bounded (cohorts x ages) grid plus cohort sizes.
    Returns (cohort_day, age, revenue, cum_revenue, cohort_users,
    ltv) with floats rounded 6dp; ltv = round(cum_rev / users, 6).
    """
    from .exchange import exchange_agg, exchange_join

    def days(t: pa.Table) -> pa.Table:
        ts_us = (t.column(ts_col).cast(pa.timestamp("us"))
                 .cast(pa.int64()))
        d = ts_us.to_numpy(zero_copy_only=False) // day_us
        return pa.table({
            key_col: t.column(key_col).cast(pa.int64()),
            "day": pa.array(d, pa.int64()),
            type_col: t.column(type_col),
            value_col: t.column(value_col).cast(pa.float64())})

    dd = ds.map_batches(days, batch_format="pyarrow").materialize()
    cohort = exchange_agg(dd.map_batches(
        lambda t: t.select([key_col, "day"]), batch_format="pyarrow"),
        key_col, [("day", "min", "cohort_day")],
        num_partitions=num_partitions).materialize()
    sizes = exchange_agg(cohort.map_batches(
        lambda t: pa.table({
            "cohort_day": t.column("cohort_day"),
            "one": pa.array(np.ones(t.num_rows, np.int64))}),
        batch_format="pyarrow"),
        "cohort_day", [("one", "sum", "cohort_users")],
        num_partitions=8).to_pandas()
    rev = dd.map_batches(
        lambda t: t.filter(pc.equal(t.column(type_col), revenue_type))
                   .select([key_col, "day", value_col]),
        batch_format="pyarrow")
    joined = exchange_join(
        rev, cohort, on=key_col, num_partitions=num_partitions,
        left_schema=pa.schema([(key_col, pa.int64()),
                               ("day", pa.int64()),
                               (value_col, pa.float64())]),
        right_schema=pa.schema([(key_col, pa.int64()),
                                ("cohort_day", pa.int64())]))
    grid = exchange_agg(joined.map_batches(
        lambda t: pa.table({
            "cohort_day": t.column("cohort_day"),
            "age": pa.array(
                t.column("day").to_numpy(zero_copy_only=False)
                - t.column("cohort_day")
                .to_numpy(zero_copy_only=False), pa.int64()),
            "revenue": t.column(value_col)}),
        batch_format="pyarrow"),
        ["cohort_day", "age"], [("revenue", "sum", "revenue")],
        num_partitions=8).to_pandas()  # TIME-bounded: cohorts x ages
    grid = grid.sort_values(["cohort_day", "age"]).reset_index(drop=True)
    grid["cum_revenue"] = (grid.groupby("cohort_day", sort=False)
                           ["revenue"].cumsum())
    out = grid.merge(sizes, on="cohort_day", how="left")
    out["ltv"] = np.round(
        out["cum_revenue"].to_numpy()
        / out["cohort_users"].to_numpy(np.float64), 6)
    out["revenue"] = np.round(out["revenue"].to_numpy(), 6)
    out["cum_revenue"] = np.round(out["cum_revenue"].to_numpy(), 6)
    for c in ("cohort_day", "age", "cohort_users"):
        out[c] = out[c].astype("int64")
    return out[["cohort_day", "age", "revenue", "cum_revenue",
                "cohort_users", "ltv"]]


def fsm_conformance(
    ds: rd.Dataset,
    allowed: list[tuple[str, str]],
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    state_col: str = "event_type",
    tiebreak_col: str = "event_id",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Process-mining conformance checking: score every key's event
    sequence against an allowed-transition whitelist (the
    Celonis-style "does reality follow the process model" audit).
    Emits per key: (key, n_steps, n_violations, conformance) with
    conformance = round(1 - violations/steps, 6) (1.0 for
    single-event keys — zero steps violate nothing).

    Same one-exchange shape as transition_matrix: a key's events
    co-locate, consecutive pairs form via vectorized groupby.shift,
    membership against the broadcast whitelist is one pandas isin
    over (from, to) tuples, and per-key counts aggregate in
    the same partition (key-local — no second exchange).  The model
    is caller-supplied and bounded by |states|² by nature.
    """
    allowed_set = {(a, b) for a, b in allowed}

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return _with_part(batch, key_col, num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tiebreak_col],
                          kind="mergesort")
        prev = g.groupby(key_col, sort=False)[state_col].shift(1)
        m = prev.notna()
        # factorize + packed int codes, not per-row Python tuples (the
        # only O(n)-Python loop the file had; review r5) — factorizing
        # states + whitelist TOGETHER gives shared codes, and the
        # int64 pack `from * n + to` is immune to the fixed-width
        # unicode truncation that ruled out string packing
        all_states = pd.concat([
            g[state_col].astype("object"),
            pd.Series([s for p_ in allowed_set for s in p_],
                      dtype="object")])
        codes, _uniq = pd.factorize(all_states, sort=False)
        # +1: factorize codes a null state -1, which would pack as
        # prev*n - 1 == (prev-1)*n + (n-1), a real pair; shifted, null is
        # code 0 and every pair packs uniquely
        codes = codes + 1
        n_codes = np.int64(len(_uniq) + 1)
        st_codes = codes[:len(g)]
        wl = codes[len(g):].reshape(-1, 2) if len(allowed_set) else \
            np.zeros((0, 2), np.int64)
        code_s = pd.Series(st_codes, index=g.index)
        prev_c = code_s.groupby(g[key_col], sort=False).shift(1)
        packed = (prev_c[m].to_numpy(np.float64).astype(np.int64)
                  * n_codes + code_s[m].to_numpy(np.int64))
        wl_packed = wl[:, 0].astype(np.int64) * n_codes \
            + wl[:, 1].astype(np.int64)
        viol = pd.Series(~np.isin(packed, wl_packed),
                         index=prev[m].index)
        steps = pd.DataFrame({key_col: g.loc[m, key_col],
                              "viol": viol.astype(np.int64)})
        per_key = (steps.groupby(key_col, as_index=False)
                   .agg(n_steps=("viol", "size"),
                        n_violations=("viol", "sum")))
        singles = (g.groupby(key_col, as_index=False).size()
                   .rename(columns={"size": "_n"}))
        out = singles[[key_col]].merge(per_key, on=key_col, how="left")
        out["n_steps"] = out["n_steps"].fillna(0).astype("int64")
        out["n_violations"] = (out["n_violations"].fillna(0)
                               .astype("int64"))
        out["conformance"] = np.round(np.where(
            out["n_steps"] > 0,
            1.0 - out["n_violations"] / np.maximum(out["n_steps"], 1),
            1.0), 6)
        return out

    return (ds.map_batches(add_part, batch_format="pandas",
                           batch_size=65536)
            .groupby("_part").map_groups(per_part,
                                         batch_format="pandas"))


def dau_wau(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    window_days: int = 7,
    day_us: int = 86_400_000_000,
    num_partitions: int = 32,
) -> rd.Dataset:
    """DAU / WAU / stickiness per day — the growth-analytics staple.

    Exact trailing-window distinct WITHOUT a windowed distinct
    aggregate: each distinct (day, user) pair REPLICATES to the
    ``window_days`` trailing days it supports (a user active on day d
    counts toward WAU(d..d+w-1)), then one distinct + count exchange
    per day.  Replication factor is the window length — constant,
    shuffle volume w x distinct pairs; no per-day set union ever
    materializes.  Days with WAU support but no activity (DAU 0)
    inside the observed range are kept.  Returns (day, dau, wau,
    stickiness = round(dau / wau, 6)).
    """
    from .exchange import exchange_agg
    from ..stages.analytics import distinct_rows

    def pairs(t: pa.Table) -> pa.Table:
        ts_us = (t.column(ts_col).cast(pa.timestamp("us"))
                 .cast(pa.int64()))
        day = ts_us.to_numpy(zero_copy_only=False) // day_us
        return pa.table({
            "day": pa.array(day, pa.int64()),
            "u": t.column(key_col).cast(pa.int64())})

    du = distinct_rows(ds.map_batches(pairs, batch_format="pyarrow"),
                       cols=["day", "u"]).materialize()
    lohi = du.map_batches(
        lambda b: pd.DataFrame({"lo": [b["day"].min()],
                                "hi": [b["day"].max()]}),
        batch_format="pandas").to_pandas()
    if lohi.empty or "lo" not in lohi.columns \
            or pd.isna(lohi["lo"].min()):
        # empty input: empty activity table, not int(NaN) (review r5)
        return rd.from_arrow(pa.table({
            "day": pa.array([], pa.int64()),
            "dau": pa.array([], pa.int64()),
            "wau": pa.array([], pa.int64()),
            "stickiness": pa.array([], pa.float64())}))
    lo, hi = int(lohi["lo"].min()), int(lohi["hi"].max())
    dau = exchange_agg(
        du.map_batches(
            lambda b: pd.DataFrame({
                "day": b["day"].astype("int64"),
                "one": np.ones(len(b), np.int64)}),
            batch_format="pandas"),
        "day", [("one", "sum", "dau")],
        num_partitions=num_partitions)

    def replicate(b: pd.DataFrame) -> pd.DataFrame:
        d = b["day"].to_numpy(np.int64)
        u = b["u"].to_numpy(np.int64)
        dd = (np.repeat(d, window_days)
              + np.tile(np.arange(window_days, dtype=np.int64),
                        len(d)))
        return pd.DataFrame({
            "day": dd, "u": np.repeat(u, window_days)})

    wau_pairs = distinct_rows(
        du.map_batches(replicate, batch_format="pandas"),
        cols=["day", "u"])
    wau = exchange_agg(
        wau_pairs.map_batches(
            lambda b: pd.DataFrame({
                "day": b["day"].astype("int64"),
                "one": np.ones(len(b), np.int64)}),
            batch_format="pandas"),
        "day", [("one", "sum", "wau")],
        num_partitions=num_partitions)
    from ..stages.exchange import exchange_join

    j = exchange_join(
        wau.map_batches(
            lambda b: pa.table({
                "day": pa.array(b["day"].to_numpy(np.int64)),
                "wau": pa.array(b["wau"].to_numpy(np.int64))}),
            batch_format="pandas"),
        dau.map_batches(
            lambda b: pa.table({
                "day": pa.array(b["day"].to_numpy(np.int64)),
                "dau": pa.array(b["dau"].to_numpy(np.int64))}),
            batch_format="pandas"),
        on="day", how="left_outer", num_partitions=num_partitions,
        left_schema=pa.schema([("day", pa.int64()),
                               ("wau", pa.int64())]),
        right_schema=pa.schema([("day", pa.int64()),
                                ("dau", pa.int64())]))

    def finish(t: pa.Table, lo=lo, hi=hi) -> pa.Table:
        day = t.column("day").to_numpy(zero_copy_only=False)
        keep = (day >= lo) & (day <= hi)
        f = t.filter(pa.array(keep))
        dau_v = np.nan_to_num(
            f.column("dau").to_numpy(zero_copy_only=False)
            .astype(np.float64)).astype(np.int64)
        wau_v = f.column("wau").to_numpy(zero_copy_only=False)
        return pa.table({
            "day": f.column("day"),
            "dau": pa.array(dau_v, pa.int64()),
            "wau": pa.array(wau_v, pa.int64()),
            "stickiness": pa.array(np.round(dau_v / wau_v, 6),
                                   pa.float64())})

    return j.map_batches(finish, batch_format="pyarrow")
