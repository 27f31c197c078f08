"""Grouped analytics operators: per-group top-k and EXACT distributed
quantiles — both expressed as combiner-before-exchange Ray Data patterns
(no full-data sort, no per-group materialization of raw rows).

- ``topk_per_group``: per-batch partial top-k per key (the only rows
  that can survive globally), then a per-key final top-k — the grouped
  generalization of the global ``topk_orders`` combiner in
  ``__ray_entry__.py``.
- ``group_quantiles_exact``: exact ``quantile_cont``-style interpolated
  quantiles per group WITHOUT sorting the data: (A) per-group
  count/min/max, (B) per-group fixed-width histogram to locate the bins
  holding the needed order statistics, (C) exact value-counts of only
  those bins (narrow by construction: 1/n_bins of the range — and
  heavy-tie bins have few DISTINCT values by definition, so the
  value-counts stay small either way).  Every pass is a vectorized
  map_batches combiner followed by one groupby aggregate; only
  |groups|- and |bins|-sized state ever reaches the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from .exchange import keyed_apply, pandas_block


def topk_per_group(
    ds: rd.Dataset,
    *,
    key_col: str,
    sort_col: str,
    tiebreak_col: str,
    k: int,
    descending: bool = True,
) -> rd.Dataset:
    """Top-``k`` rows per key by ``(sort_col, tiebreak_col)``; ties break
    ascending on ``tiebreak_col`` for determinism.  Emits the input
    columns plus ``rank`` (1-based within the key).

    A batch-local top-k per key runs before the exchange, so at most
    ``k x distinct_keys_in_batch`` rows shuffle — not the full table; the
    exchange itself is one key-hash ``keyed_apply`` whose reduce handles
    EVERY key in the partition with one vectorized sort + groupby.head
    (groupby(key).map_groups makes one Python call per key — 5,000 doc
    groups cost seconds; 64 partition groups cost milliseconds).
    """
    asc = [not descending, True]
    by = [sort_col, tiebreak_col]

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return (batch.sort_values(by, ascending=asc)
                .groupby(key_col, sort=False).head(k))

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + by, ascending=[True] + asc)
        out = g.groupby(key_col, sort=False).head(k).copy()
        out["rank"] = out.groupby(key_col, sort=False).cumcount() + 1
        return out

    return keyed_apply(
        ds.map_batches(local_topk, batch_format="pandas", batch_size=65536),
        key_col, final_topk)


def group_quantiles_exact(
    ds: rd.Dataset,
    *,
    key_col: str,
    value_col: str,
    qs: list[float],
    n_bins: int = 2048,
    max_collect: int = 5_000_000,
    max_groups: int | None = None,
) -> pd.DataFrame:
    """Exact linear-interpolated quantiles (numpy 'linear' == SQL
    ``quantile_cont``) of ``value_col`` per ``key_col`` group.

    Three distributed passes (see module docstring); raises if pass C's
    exact value-counts exceed ``max_collect`` distinct (group, value)
    pairs — the documented escape hatch is more ``n_bins``.  Returns a
    driver DataFrame with one row per group: (key, q_<q>..., n).

    ``max_groups``: when set, the per-group stats table is counted
    BEFORE it is collected (materialize -> metadata count) and the
    call raises past the budget — the guard must fire before the
    driver holds the table, not after.
    """
    stats_ds = _pass_stats(ds, key_col, value_col)
    if max_groups is not None:
        stats_ds = stats_ds.materialize()
        n_groups = stats_ds.count()
        if n_groups > max_groups:
            raise ValueError(
                f"group_quantiles_exact: {n_groups} groups exceeds "
                f"max_groups={max_groups}")
    stats = stats_ds.to_pandas()
    if stats.empty:
        return pd.DataFrame(columns=[key_col, "n", *[f"q_{q}" for q in qs]])

    # all-null groups (n=0 after pyarrow's null-skipping count) have no
    # quantiles and no histogram rows — drop them here rather than
    # KeyError in the finalize (review r5)
    stats = stats[stats["n"] > 0]
    if stats.empty:
        return pd.DataFrame(columns=[key_col, "n", *[f"q_{q}" for q in qs]])

    # per-group histogram geometry + needed order-statistic ranks
    # (itertuples, not iterrows — the O(groups) driver fold convention)
    geo: dict = {}
    for row in stats.itertuples(index=False):
        key = getattr(row, key_col) if key_col.isidentifier() else row[0]
        n = int(row.n)
        ranks = sorted({int(np.floor((n - 1) * q)) for q in qs}
                       | {int(np.ceil((n - 1) * q)) for q in qs})
        geo[key] = {"n": n, "lo": float(row.vmin), "hi": float(row.vmax),
                    "ranks": ranks}

    hist = _pass_hist(ds, key_col, value_col, geo, n_bins).to_pandas()

    # locate, per group, the bins containing each needed rank
    targets: dict = {}
    below: dict = {}
    for key, g in hist.groupby(key_col, sort=False):
        g = g.sort_values("bin")
        cum = g["cnt"].cumsum().to_numpy()
        bins = g["bin"].to_numpy()
        want = set()
        for r in geo[key]["ranks"]:
            i = int(np.searchsorted(cum, r + 1, side="left"))
            b = int(bins[i])
            want.add(b)
            below[(key, b)] = int(cum[i - 1]) if i > 0 else 0
        targets[key] = want

    vc = _pass_value_counts(ds, key_col, value_col, geo, targets, n_bins,
                            max_collect).to_pandas()

    out_rows = []
    # pre-group ONCE — a per-group boolean scan of the whole collected
    # frame is O(groups x rows) on the driver (review r5)
    vc_by_key = {k: g for k, g in vc.groupby(key_col, sort=False)}
    _empty_vc = vc.iloc[0:0]
    for key, info in geo.items():
        n = info["n"]
        g = vc_by_key.get(key, _empty_vc).sort_values("value")
        vals = g["value"].to_numpy()
        cnts = g["cnt"].to_numpy().astype(np.int64)
        # global rank of the first copy of each collected distinct value
        first_rank = {}
        for b in sorted(targets[key]):
            sel = g["bin"].to_numpy() == b
            vb, cb = vals[sel], cnts[sel]
            start = below[(key, b)]
            offs = np.concatenate(([0], np.cumsum(cb[:-1])))
            for v, o, c in zip(vb, offs, cb):
                first_rank[float(v)] = (start + int(o), int(c))

        def order_stat(r: int) -> float:
            for v, (s, c) in first_rank.items():
                if s <= r < s + c:
                    return v
            raise AssertionError(f"rank {r} not covered for group {key!r}")

        row = {key_col: key, "n": n}
        for q in qs:
            h = (n - 1) * q
            k0, k1 = int(np.floor(h)), int(np.ceil(h))
            v0 = order_stat(k0)
            v1 = v0 if k1 == k0 else order_stat(k1)
            row[f"q_{q}"] = v0 + (h - k0) * (v1 - v0)
        out_rows.append(row)
    return pd.DataFrame(out_rows).sort_values(key_col).reset_index(drop=True)


def _pass_stats(ds: rd.Dataset, key_col: str, value_col: str) -> rd.Dataset:
    # exchange_agg: quantile group keys are usually low-cardinality, but
    # the operator is generic — a high-cardinality key under Ray's
    # Aggregate would pay one Python call per key
    from .exchange import exchange_agg

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({key_col: batch.column(key_col),
                      value_col: batch.column(value_col)})
        g = t.group_by(key_col).aggregate(
            [(value_col, "count"), (value_col, "min"), (value_col, "max")])
        return pa.table({
            key_col: g.column(key_col),
            "n": g.column(f"{value_col}_count").cast(pa.int64()),
            "vmin": g.column(f"{value_col}_min"),
            "vmax": g.column(f"{value_col}_max"),
        })

    return exchange_agg(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        key_col,
        [("n", "sum", "n"), ("vmin", "min", "vmin"), ("vmax", "max", "vmax")],
        combine=False,
    )


def _bin_of(vals: np.ndarray, lo: float, hi: float, n_bins: int) -> np.ndarray:
    """Shared pass-B/pass-C bin assignment (must be bit-identical)."""
    if hi <= lo:
        return np.zeros(len(vals), np.int64)
    b = np.floor((vals - lo) / (hi - lo) * n_bins).astype(np.int64)
    return np.clip(b, 0, n_bins - 1)


def _pass_hist(ds: rd.Dataset, key_col: str, value_col: str,
               geo: dict, n_bins: int) -> rd.Dataset:
    ref = ray.put(geo)
    cache: dict = {}

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = cache.get("g")
        if g is None:
            g = cache["g"] = ray.get(ref)
        # pass A's pyarrow count/min/max skip nulls; keep B consistent —
        # a NaN run through floor->astype(int64) is undefined and would
        # inject phantom counts into bin 0.
        batch = batch[~pd.isna(batch[value_col])]
        vals = batch[value_col].to_numpy()
        bins = np.zeros(len(batch), np.int64)
        for key, grp in batch.groupby(key_col, sort=False).indices.items():
            info = g[key]
            bins[grp] = _bin_of(vals[grp], info["lo"], info["hi"], n_bins)
        out = pd.DataFrame({key_col: batch[key_col], "bin": bins})
        return out.groupby([key_col, "bin"], sort=False).size().reset_index(name="cnt")

    from .exchange import exchange_agg

    return exchange_agg(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        [key_col, "bin"], [("cnt", "sum", "cnt")])


def _pass_value_counts(ds: rd.Dataset, key_col: str, value_col: str,
                       geo: dict, targets: dict, n_bins: int,
                       max_collect: int) -> rd.Dataset:
    ref = ray.put((geo, targets))
    cache: dict = {}

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        got = cache.get("g")
        if got is None:
            got = cache["g"] = ray.get(ref)
        g, tg = got
        batch = batch[~pd.isna(batch[value_col])]  # match pass A/B null policy
        vals = batch[value_col].to_numpy()
        keep = np.zeros(len(batch), bool)
        bins = np.zeros(len(batch), np.int64)
        for key, grp in batch.groupby(key_col, sort=False).indices.items():
            info = g[key]
            b = _bin_of(vals[grp], info["lo"], info["hi"], n_bins)
            bins[grp] = b
            keep[grp] = np.isin(b, list(tg[key]))
        out = pd.DataFrame({key_col: batch[key_col][keep],
                            "bin": bins[keep], "value": vals[keep]})
        return (out.groupby([key_col, "bin", "value"], sort=False)
                .size().reset_index(name="cnt"))

    from .exchange import exchange_agg

    res = exchange_agg(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        [key_col, "bin", "value"], [("cnt", "sum", "cnt")],
    ).materialize()
    if res.count() > max_collect:
        raise ValueError(
            f"quantile pass C exceeds max_collect={max_collect} distinct "
            "(group, value) pairs; raise n_bins to narrow the target bins")
    return res


def distinct_rows(
    ds: rd.Dataset,
    *,
    cols: list[str],
    num_partitions: int = 64,
) -> rd.Dataset:
    """DISTINCT over ``cols``: ``exchange_agg(ds, cols)``, which keeps
    only the key columns too.  The package calls ``exchange_agg``
    directly; this name stays for ``perfbench/stages.py``, which imports
    it."""
    from .exchange import exchange_agg

    return exchange_agg(ds, cols, num_partitions=num_partitions)


def set_op_rows(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    cols: list[str],
    op: str,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Distributed EXCEPT / INTERSECT (DISTINCT semantics) over ``cols``
    — the shuffle form of the set ops, for right sides too large to
    broadcast through ``joins.py::semi_join_filter``.

    Per-block drop_duplicates combiner on BOTH sides, run in the tasks
    that split their blocks (shuffle volume is per-block-distinct, not
    raw rows), each side tagged, ONE key-hash
    ``keyed_apply`` over ``cols``, then a vectorized per-partition
    pandas merge-indicator reduce — identical rows land in the same
    partition, so membership is decided locally.
    ``op``: ``"except"`` (left distinct rows absent from right) or
    ``"intersect"`` (present in both).
    """
    if op not in ("except", "intersect"):
        raise ValueError(f"set_op_rows: op must be except|intersect, got {op!r}")

    def combine(side: int):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            return batch[cols].drop_duplicates().assign(_side=np.int8(side))
        return fn

    def reduce_part(g: pd.DataFrame) -> pd.DataFrame:
        la = g[g["_side"] == 0][cols].drop_duplicates()
        rb = g[g["_side"] == 1][cols].drop_duplicates()
        m = la.merge(rb, on=cols, how="left", indicator=True)
        keep = "left_only" if op == "except" else "both"
        return m[m["_merge"] == keep][cols]

    return keyed_apply([(left, pandas_block(combine(0))),
                        (right, pandas_block(combine(1)))],
                       cols, reduce_part, num_partitions=num_partitions)


def splitmix64(ids: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (Steele et al.; public domain
    constants).  A full-avalanche mixer — the Knuth multiplicative hash
    alone leaves the low bits structured and biases the HLL rank statistic
    ~50% high on arithmetic-progression ids (measured).  Exactly
    SQL-replayable: xor/shift on UBIGINT + mod-2^64 multiplies split into
    32-bit halves (a 64x64 product overflows DuckDB's signed HUGEINT)."""
    x = ids.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def hll_registers(ids: np.ndarray, p: int = 12) -> np.ndarray:
    """HyperLogLog register array (2^p uint8) for a batch of int64 ids.

    Deterministic and exactly SQL-replayable: h = splitmix64(id),
    bucket = top p bits, rank = leading zeros of the low (64-p) bits + 1.
    The floor(log2) is extracted with np.frexp (exact for values < 2^53),
    never floating log2 (whose last-ulp rounding differs across libms).
    That exactness requires the low-bit field to fit in a float64
    mantissa: 64 - p <= 53, i.e. p >= 11 — below that the uint->float
    conversion can round UP across a power of two and overstate the
    rank, so we refuse rather than silently break the SQL replay.
    """
    if 64 - p > 53:
        raise ValueError(
            f"hll_registers requires p >= 11 (got p={p}): the {64 - p}-bit "
            "low field exceeds float64's 53-bit mantissa, making the frexp "
            "rank extraction inexact")
    m = 1 << p
    low_bits = 64 - p
    h = splitmix64(ids)
    bucket = (h >> np.uint64(low_bits)).astype(np.int64)
    v = (h & np.uint64((1 << low_bits) - 1)).astype(np.float64)
    _, e = np.frexp(v)
    fl = e - 1  # floor(log2 v) for v > 0, exact
    rank = np.where(v == 0, low_bits + 1, low_bits - fl).astype(np.uint8)
    reg = np.zeros(m, dtype=np.uint8)
    np.maximum.at(reg, bucket, rank)
    return reg


def _round6(x: np.ndarray) -> np.ndarray:
    """Half-away-from-zero 6dp rounding — THE cross-engine quantization
    every SQL replay mirrors; one shared definition so no copy can
    drift (review r5)."""
    return np.sign(x) * np.floor(np.abs(x) * 1e6 + 0.5) / 1e6


def hll_estimate(reg: np.ndarray) -> float:
    """Flajolet et al. 2007 estimator with the small-range linear-counting
    correction (the large-range correction is unnecessary at 64-bit
    hashes)."""
    m = len(reg)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    e = alpha * m * m / np.sum(np.power(2.0, -reg.astype(np.float64)))
    zeros = int(np.sum(reg == 0))
    if e <= 2.5 * m and zeros > 0:
        e = m * np.log(m / zeros)
    return float(e)


def approx_distinct(ds: rd.Dataset, *, col: str, p: int = 12) -> float:
    """Approximate COUNT(DISTINCT col) via a mergeable HyperLogLog sketch:
    each batch reduces to a 2^p-byte register array (map_batches partial),
    partials stream to the driver as one tiny row per batch, and the merge
    is an elementwise max — the canonical sketch shape: a 100 TB column
    reduces to 4 KB per batch with no shuffle at all.  Standard error
    ~1.04/sqrt(2^p) (~1.6% at p=12)."""
    return hll_estimate(_hll_fold(ds, col, p))


def windowed_approx_distinct(
    ds: rd.Dataset,
    *,
    ts_col: str = "ts",
    id_col: str = "user_id",
    width_us: int = 3_600_000_000,
    p: int = 12,
    num_partitions: int = 32,
) -> rd.Dataset:
    """(window_id, hll_estimate): approximate COUNT(DISTINCT id) per
    tumbling event-time window — the mergeable-sketch form of streaming
    distinct-per-window.  Each (window, bucket) cell carries ONE uint8
    max-rank through the exchange, so per-window shuffle state is
    <= 2^p rows no matter how many ids the window saw (an exact distinct
    would shuffle every id).

    Same hash/rank/estimator as ``hll_registers``/``hll_estimate``
    (splitmix64, exact frexp rank, Flajolet alpha + linear-counting
    correction), so the DuckDB replay is the grouped form of the
    single-sketch oracle.  Two ``exchange_agg`` rounds: (window, bucket)
    -> max rank, then window -> (n_nonzero, sum 2^-rank); the estimate
    is a final vectorized map.
    """
    if 64 - p > 53:
        raise ValueError(
            f"windowed_approx_distinct requires p >= 11 (got p={p}); see "
            "hll_registers")
    from .exchange import exchange_agg

    m = 1 << p
    low = 64 - p

    def partial(batch: pa.Table) -> pa.Table:
        ts_us = batch.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
        wins = ts_us.to_numpy(zero_copy_only=False) // width_us
        ids = (batch.column(id_col).to_numpy(zero_copy_only=False)
               .astype(np.int64))
        h = splitmix64(ids)
        bucket = (h >> np.uint64(low)).astype(np.int64)
        v = (h & np.uint64((1 << low) - 1)).astype(np.float64)
        _, e = np.frexp(v)
        rank = np.where(v == 0, low + 1, low - (e - 1)).astype(np.int64)
        g = (pd.DataFrame({"window_id": wins, "bucket": bucket, "r": rank})
             .groupby(["window_id", "bucket"], sort=False)["r"].max()
             .reset_index())
        return pa.table({
            "window_id": pa.array(g["window_id"].to_numpy(), pa.int64()),
            "bucket": pa.array(g["bucket"].to_numpy(), pa.int64()),
            "r": pa.array(g["r"].to_numpy(), pa.int64()),
        })

    regs = exchange_agg(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["window_id", "bucket"], [("r", "max", "r")],
        num_partitions=num_partitions)

    def inv(batch: pa.Table) -> pa.Table:
        r = batch.column("r").to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "window_id": batch.column("window_id"),
            "inv": pa.array(np.power(2.0, -r), pa.float64()),
            "one": pa.array(np.ones(len(r), np.int64), pa.int64()),
        })

    stats = exchange_agg(
        regs.map_batches(inv, batch_format="pyarrow"),
        "window_id", [("inv", "sum", "s_nz"), ("one", "sum", "n_nz")],
        num_partitions=num_partitions)
    alpha = 0.7213 / (1.0 + 1.079 / m)

    def final(batch: pa.Table) -> pa.Table:
        s_nz = batch.column("s_nz").to_numpy(zero_copy_only=False)
        n_nz = batch.column("n_nz").to_numpy(zero_copy_only=False)
        zeros = m - n_nz
        s = s_nz + zeros.astype(np.float64)  # each zero register adds 2^0
        e = alpha * m * m / s
        zl = np.where(zeros > 0, zeros, 1).astype(np.float64)
        lin = m * np.log(m / zl)
        est = np.where((e <= 2.5 * m) & (zeros > 0), lin, e)
        return pa.table({
            "window_id": batch.column("window_id"),
            "hll_estimate": pa.array(est, pa.float64()),
        })

    return stats.map_batches(final, batch_format="pyarrow")


def grouping_sets_agg(
    ds: rd.Dataset,
    *,
    sets: list[tuple[str, ...]],
    value_col: str,
    all_label: str = "(all)",
    num_partitions: int = 32,
) -> rd.Dataset:
    """GROUP BY GROUPING SETS (the rollup/cube family) in one pass:
    emits, for every grouping set, one row per group with (gid = the
    set's index, every key column as a string — ``all_label`` where the
    set omits it — n, sum_value).

    One combiner pass computes every set's partials per batch (the fan is
    |sets|, applied to already-aggregated rows, not raw rows), and a
    single key-hash ``keyed_apply`` reduces all sets together — not |sets|
    separate groupby jobs over the input.  Key columns are emitted as
    strings so the (gid, keys) tuple is one homogeneous exchange key.
    """
    key_cols = sorted({c for s in sets for c in s})

    def combine(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for gid, s in enumerate(sets):
            cols = list(s)
            if cols:
                g = batch.groupby(cols, as_index=False, dropna=False).agg(
                    n=(value_col, "size"), sum_value=(value_col, "sum"))
            else:
                g = pd.DataFrame({"n": [len(batch)],
                                  "sum_value": [batch[value_col].sum()]})
            for c in key_cols:
                g[c] = g[c].astype(str) if c in cols else all_label
            g["gid"] = np.int64(gid)
            frames.append(g[["gid", *key_cols, "n", "sum_value"]])
        return pd.concat(frames, ignore_index=True)

    def reduce_part(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["gid", *key_cols], as_index=False)
               .agg(n=("n", "sum"), sum_value=("sum_value", "sum")))
        out["n"] = out["n"].astype("int64")
        return out

    return keyed_apply(
        ds.map_batches(combine, batch_format="pandas", batch_size=65536),
        ["gid", *key_cols], reduce_part, num_partitions=num_partitions)


def group_corr(
    ds: rd.Dataset,
    *,
    key_col: str,
    x_col: str,
    y_col: str,
    num_partitions: int = 16,
) -> rd.Dataset:
    """Per-key Pearson correlation from decomposable sufficient
    statistics: each batch emits one (key, n, sx, sy, sxx, syy, sxy)
    partial row per key (pandas groupby C kernels), one hash exchange
    sums them, and r = (n*sxy - sx*sy) / sqrt((n*sxx - sx^2) *
    (n*syy - sy^2)) is computed vectorized per key — the textbook
    one-pass parallel corr, shuffle volume = keys-per-batch partials.
    Keys with n < 2 or zero variance in either column are dropped
    (their r is undefined).  Output: (key, n:int64, corr:float64
    rounded to 6 dp, matching DuckDB round())."""
    from .exchange import exchange_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch[x_col].astype("float64")
        y = batch[y_col].astype("float64")
        d = pd.DataFrame({key_col: batch[key_col], "x": x, "y": y,
                          "xx": x * x, "yy": y * y, "xy": x * y})
        g = d.groupby(key_col, sort=False).agg(
            n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
            sxx=("xx", "sum"), syy=("yy", "sum"), sxy=("xy", "sum"))
        return g.reset_index()

    red = exchange_agg(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        key_col,
        [("n", "sum", "n"), ("sx", "sum", "sx"), ("sy", "sum", "sy"),
         ("sxx", "sum", "sxx"), ("syy", "sum", "syy"),
         ("sxy", "sum", "sxy")],
        num_partitions=num_partitions, combine=False)

    def finish(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t.column("sx").to_numpy(zero_copy_only=False)
        sy = t.column("sy").to_numpy(zero_copy_only=False)
        sxx = t.column("sxx").to_numpy(zero_copy_only=False)
        syy = t.column("syy").to_numpy(zero_copy_only=False)
        sxy = t.column("sxy").to_numpy(zero_copy_only=False)
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        keep = (n >= 2) & (vx > 0) & (vy > 0)
        r = (n[keep] * sxy[keep] - sx[keep] * sy[keep]) / np.sqrt(
            vx[keep] * vy[keep])
        r = _round6(r)
        return pa.table({
            key_col: t.column(key_col).filter(pa.array(keep)),
            "n": pa.array(n[keep].astype(np.int64), pa.int64()),
            "corr": pa.array(r, pa.float64()),
        })

    return red.map_batches(finish, batch_format="pyarrow")


def group_ols(
    ds: rd.Dataset,
    *,
    key_col: str,
    x_col: str,
    y_col: str,
    num_partitions: int = 16,
) -> rd.Dataset:
    """Per-key simple linear regression (y = slope*x + intercept) from
    the same decomposable sufficient statistics as ``group_corr``:
    per-batch (key, n, sx, sy, sxx, sxy) partials via pandas C kernels,
    ONE hash exchange sums them, and
    slope = (n*sxy - sx*sy) / (n*sxx - sx^2),
    intercept = (sy - slope*sx) / n
    finish vectorized per key — the textbook one-pass parallel OLS;
    shuffle volume = keys-per-batch partials, never raw rows.  Keys with
    n < 2 or zero x-variance are dropped (their slope is undefined).
    Output: (key, n:int64, slope, intercept — both rounded to 6 dp,
    matching DuckDB round())."""
    from .exchange import exchange_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch[x_col].astype("float64")
        y = batch[y_col].astype("float64")
        d = pd.DataFrame({key_col: batch[key_col], "x": x, "y": y,
                          "xx": x * x, "xy": x * y})
        g = d.groupby(key_col, sort=False).agg(
            n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
            sxx=("xx", "sum"), sxy=("xy", "sum"))
        return g.reset_index()

    red = exchange_agg(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        key_col,
        [("n", "sum", "n"), ("sx", "sum", "sx"), ("sy", "sum", "sy"),
         ("sxx", "sum", "sxx"), ("sxy", "sum", "sxy")],
        num_partitions=num_partitions, combine=False)

    def finish(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t.column("sx").to_numpy(zero_copy_only=False)
        sy = t.column("sy").to_numpy(zero_copy_only=False)
        sxx = t.column("sxx").to_numpy(zero_copy_only=False)
        sxy = t.column("sxy").to_numpy(zero_copy_only=False)
        vx = n * sxx - sx * sx
        keep = (n >= 2) & (vx > 0)
        slope = (n[keep] * sxy[keep] - sx[keep] * sy[keep]) / vx[keep]
        intercept = (sy[keep] - slope * sx[keep]) / n[keep]

        def r6(a: np.ndarray) -> np.ndarray:
            return _round6(a)

        return pa.table({
            key_col: t.column(key_col).filter(pa.array(keep)),
            "n": pa.array(n[keep].astype(np.int64), pa.int64()),
            "slope": pa.array(r6(slope), pa.float64()),
            "intercept": pa.array(r6(intercept), pa.float64()),
        })

    return red.map_batches(finish, batch_format="pyarrow")


def winsorized_mean(
    ds: rd.Dataset,
    *,
    key_col: str,
    value_col: str,
    q_lo: float = 0.05,
    q_hi: float = 0.95,
    num_partitions: int = 16,
) -> rd.Dataset:
    """Per-key winsorized mean: values clipped to the exact
    [q_lo, q_hi] linear-interpolated group quantiles, then averaged —
    the robust-statistics filter step (outlier-insensitive per-domain
    means for quality dashboards / reward normalization).

    Composition: ``group_quantiles_exact`` (three histogram-locate
    passes, no global sort) supplies the per-group bounds — a
    driver-side table of one row per group, broadcast in the clip
    closure — then ONE streaming pass emits per-batch (key, n, s)
    partials reduced by a single hash exchange.  Output:
    ``(key, n:int64, w_mean:float64 rounded to 6 dp)``.
    """
    from .exchange import exchange_agg

    qdf = group_quantiles_exact(ds, key_col=key_col, value_col=value_col,
                                qs=[q_lo, q_hi])
    if qdf.empty:
        return rd.from_arrow(pa.table({
            key_col: pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
            "w_mean": pa.array([], pa.float64())}))
    lo_map = dict(zip(qdf[key_col], qdf[f"q_{q_lo}"]))
    hi_map = dict(zip(qdf[key_col], qdf[f"q_{q_hi}"]))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        lo = batch[key_col].map(lo_map).to_numpy(dtype=np.float64)
        hi = batch[key_col].map(hi_map).to_numpy(dtype=np.float64)
        raw = batch[value_col].to_numpy(dtype=np.float64)
        # nulls are excluded (the quantile bounds were computed over
        # non-null values only — clip(NaN) would poison the whole
        # group's mean and over-count n; review r5)
        ok = ~np.isnan(raw)
        v = np.clip(raw[ok], lo[ok], hi[ok])
        g = (pd.DataFrame({key_col: batch[key_col].to_numpy()[ok], "v": v})
             .groupby(key_col, sort=False)["v"].agg(["size", "sum"])
             .reset_index())
        return g.rename(columns={"size": "n", "sum": "s"})

    red = exchange_agg(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        key_col, [("n", "sum", "n"), ("s", "sum", "s")],
        num_partitions=num_partitions, combine=False)

    def finish(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False)
        s = t.column("s").to_numpy(zero_copy_only=False)
        m = s / n
        m = _round6(m)
        return pa.table({key_col: t.column(key_col),
                         "n": pa.array(n.astype(np.int64), pa.int64()),
                         "w_mean": pa.array(m, pa.float64())})

    return red.map_batches(finish, batch_format="pyarrow")


def quantile_bucket(
    ds: rd.Dataset,
    *,
    key_col: str,
    value_col: str,
    n_buckets: int = 4,
    out_col: str = "bucket",
    max_groups: int = 2_000_000,
) -> rd.Dataset:
    """Per-group quantile-bucket assignment (curriculum / quality tiers):
    each row gets bucket 1..n_buckets where bucket i covers values in
    (q_{(i-1)/n}, q_{i/n}] of ITS group — the deterministic alternative
    to SQL ``ntile``, whose equal-size tie-breaking is order-dependent.

    ``group_quantiles_exact`` supplies the n_buckets-1 interior bounds
    (driver table, one row per group, broadcast in the map closure);
    assignment is then a single streaming vectorized pass — no shuffle
    of the data itself.  Boundary determinism: an interpolated bound
    lies strictly between two adjacent order statistics, so no data
    value can sit within one ulp of it; a bound that IS a data value is
    bit-exact in any quantile_cont implementation (lerp with frac=0 or
    equal endpoints), so ``v > bound`` replays identically in SQL.

    Raises above ``max_groups`` groups (the broadcast bound matrix is
    O(groups * n_buckets) float64); past that attach the bounds with an
    ``exchange_join`` on the key instead of a driver broadcast.
    """
    if n_buckets < 2:
        raise ValueError("n_buckets must be >= 2")
    qs = [i / n_buckets for i in range(1, n_buckets)]
    try:
        qdf = group_quantiles_exact(ds, key_col=key_col,
                                    value_col=value_col, qs=qs,
                                    max_groups=max_groups)
    except ValueError as e:
        if "max_groups" in str(e):
            raise ValueError(
                f"quantile_bucket: {e}; attach bounds via exchange_join "
                "at that cardinality instead of a driver broadcast") \
                from None
        raise
    key_ix = {k: i for i, k in enumerate(qdf[key_col])}
    bmat = (qdf[[f"q_{q}" for q in qs]].to_numpy(np.float64)
            if len(qdf) else np.zeros((0, len(qs))))

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return batch.assign(**{out_col: pd.Series(dtype="int64")})
        ix = batch[key_col].map(key_ix).to_numpy(dtype=np.int64)
        v = batch[value_col].to_numpy(dtype=np.float64)
        b = 1 + (v[:, None] > bmat[ix]).sum(axis=1)
        return batch.assign(**{out_col: b.astype(np.int64)})

    return ds.map_batches(assign, batch_format="pandas", batch_size=65536)


def group_zscore(
    ds: rd.Dataset,
    *,
    key_col: str,
    value_col: str,
    out_col: str = "z",
    max_groups: int = 2_000_000,
    num_partitions: int = 16,
) -> rd.Dataset:
    """Per-group z-score standardization (population std): the reward /
    quality normalization step.  One partial-sums pass (per-batch
    (key, n, s, ss) rows) reduced by a hash exchange gives the per-group
    mean/std — a |groups|-sized driver table broadcast into a second
    streaming pass that appends ``out_col`` rounded to 6 dp.  Groups
    with zero variance get z = 0.0 (documented; SQL replays via
    coalesce).  No shuffle of the data rows themselves.

    Raises above ``max_groups`` distinct keys (the broadcast table is
    O(groups); 2M key->(mean,std) entries ~ 50 MB).  Past that the
    broadcast-stats shape is wrong: attach the per-group stats with an
    ``exchange_join`` on the key instead (one extra exchange of the
    O(groups) table, zero driver memory).
    """
    import ray

    from .exchange import exchange_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[value_col].to_numpy(dtype=np.float64)
        g = (pd.DataFrame({key_col: batch[key_col], "v": v, "vv": v * v})
             .groupby(key_col, sort=False)
             .agg(n=("v", "size"), s=("v", "sum"), ss=("vv", "sum"))
             .reset_index())
        return g

    red_ds = exchange_agg(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        key_col, [("n", "sum", "n"), ("s", "sum", "s"), ("ss", "sum", "ss")],
        num_partitions=num_partitions, combine=False).materialize()
    # guard BEFORE the driver collect (metadata count on the
    # materialized O(groups) table, which lives in the object store)
    if red_ds.count() > max_groups:
        raise ValueError(
            f"group_zscore: {red_ds.count()} groups exceeds "
            f"max_groups={max_groups}; attach stats via exchange_join "
            "at that cardinality instead of a driver broadcast")
    red = red_ds.to_pandas()

    # round the per-group constants to 6 dp BEFORE applying: the engines'
    # sums differ in the last ulp (summation order), but the rounded
    # constants agree, making every per-row z bit-identical to the SQL
    # replay computed from the same rounded mean/std.  Vectorized over
    # the O(groups) table (no iterrows); the two key->constant dicts are
    # built ONCE here and broadcast via ray.put (read once per worker,
    # never rebuilt per batch).
    n = red["n"].to_numpy(np.float64)
    s = red["s"].to_numpy(np.float64)
    ss = red["ss"].to_numpy(np.float64)
    mean = s / n
    var = np.maximum(ss / n - mean * mean, 0.0)

    def _r6(x: np.ndarray) -> np.ndarray:
        return _round6(x)

    mean_map = dict(zip(red[key_col], _r6(mean)))
    std_map = dict(zip(red[key_col], _r6(np.sqrt(var))))
    ref = ray.put((mean_map, std_map))
    cache: dict = {}

    def apply_z(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return batch.assign(**{out_col: pd.Series(dtype="float64")})
        st = cache.get("s")
        if st is None:
            st = cache["s"] = ray.get(ref)
        mean = batch[key_col].map(st[0]).to_numpy(dtype=np.float64)
        std = batch[key_col].map(st[1]).to_numpy(dtype=np.float64)
        v = batch[value_col].to_numpy(dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(std > 0, (v - mean) / std, 0.0)
        z = _round6(z)
        return batch.assign(**{out_col: z})

    return ds.map_batches(apply_z, batch_format="pandas", batch_size=65536)


def group_mode(
    ds: rd.Dataset,
    *,
    key_col: str,
    value_col: str,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Per-key modal value (e.g. dominant language per source domain):
    (key, value) counts via ``exchange_agg`` (per-batch combiner, one
    hash exchange), then top-1 per key by (count desc, value asc) via
    ``topk_per_group``'s partition-vectorized reduce.  Output:
    ``(key, value, n:int64)`` — fully integer/string-deterministic, so
    the SQL replay is exact.
    """
    from .exchange import exchange_agg

    def ones(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_one", pa.array(np.ones(len(batch), dtype=np.int64)))

    counts = exchange_agg(
        ds.select_columns([key_col, value_col])
          .map_batches(ones, batch_format="pyarrow"),
        [key_col, value_col], [("_one", "sum", "n")],
        num_partitions=num_partitions)
    top = topk_per_group(counts, key_col=key_col, sort_col="n",
                         tiebreak_col=value_col, k=1)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({key_col: t.column(key_col),
                         value_col: t.column(value_col),
                         "n": t.column("n").cast(pa.int64())})

    return top.map_batches(finish, batch_format="pyarrow")


def pivot_agg(
    ds: rd.Dataset,
    *,
    index_col: str,
    pivot_col: str,
    value_col: str,
    agg: str = "sum",
    max_pivot_values: int = 256,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Wide aggregation (pivot): one output row per ``index_col`` value,
    one column per distinct ``pivot_col`` value holding ``agg`` of
    ``value_col`` (``sum`` or ``count``; absent combinations -> 0).

    Scale shape: the pivot-value set is discovered with a per-batch
    distinct combiner + bare-distinct ``exchange_agg`` and collected
    once — RAISES above ``max_pivot_values`` because each value becomes
    a physical column (wide schemas, not data volume, are the limit;
    unpivoted long-form `exchange_agg` is the tool past that).  The
    data pass is a per-batch pandas ``pivot_table`` partial (one row
    per (batch, index) — never raw rows) into ONE index-keyed
    ``exchange_agg`` sum over the fixed wide schema; counts ride the
    same path as sums of ones.
    """
    from .exchange import exchange_agg

    if agg not in ("sum", "count"):
        raise ValueError(f"pivot_agg: unsupported agg={agg!r}")

    def distinct_piv(batch: pa.Table) -> pa.Table:
        vals = sorted(set(batch.column(pivot_col).to_pylist()))
        return pa.table({pivot_col: pa.array(vals, pa.string())})

    piv = exchange_agg(
        ds.map_batches(distinct_piv, batch_format="pyarrow"),
        pivot_col, [], num_partitions=min(num_partitions, 16)).to_pandas()
    pvals = sorted(str(v) for v in piv[pivot_col])
    if len(pvals) > max_pivot_values:
        raise ValueError(
            f"pivot_agg: {len(pvals)} distinct pivot values exceeds "
            f"max_pivot_values={max_pivot_values}; keep long form at "
            "that width")
    cols = [f"{pivot_col}_{v}" for v in pvals]

    def widen(batch: pd.DataFrame) -> pd.DataFrame:
        vals = (batch[value_col] if agg == "sum"
                else pd.Series(np.ones(len(batch)), index=batch.index))
        wide = pd.pivot_table(
            batch.assign(_v=vals, **{pivot_col: batch[pivot_col].astype(str)}),
            index=index_col, columns=pivot_col,
            values="_v", aggfunc="sum", fill_value=0.0)
        wide = wide.reindex(columns=pvals, fill_value=0.0)
        wide.columns = cols
        return wide.reset_index()

    return exchange_agg(
        ds.map_batches(widen, batch_format="pandas"),
        index_col, [(c, "sum", c) for c in cols],
        num_partitions=num_partitions)


def percentile_rank(
    ds: rd.Dataset,
    *,
    value_col: str,
    out_col: str = "pct_rank",
    max_distinct: int = 2_000_000,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Global percentile rank (SQL ``percent_rank() OVER (ORDER BY
    value)``: ``(min_rank - 1) / (n - 1)``, ties share the min rank) as
    an added column.

    Scale shape: ONE value-keyed ``exchange_agg`` count builds the
    value-frequency table (per-batch combiner first, so at most one row
    per distinct value per batch moves); the sorted (value, cumulative
    count-before) arrays are collected ONCE — bounded by the distinct
    VALUE count, not the row count — broadcast via ``ray.put``, and
    every batch resolves its ranks with one vectorized
    ``np.searchsorted``.  Raises above ``max_distinct`` distinct values
    (2M float64+int64 pairs ~ 32 MB broadcast); past that the
    histogram-locate machinery of ``group_quantiles_exact`` is the
    tool, not a bigger broadcast.  Nulls/NaNs in ``value_col`` raise
    (same contract as ``group_quantiles_exact``).
    """
    import ray

    from .exchange import exchange_agg

    def val_counts(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        if np.isnan(v).any():
            raise ValueError(f"percentile_rank: NaN in {value_col}")
        uv, cnt = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(uv, pa.float64()),
                         "c": pa.array(cnt, pa.int64())})

    vc = exchange_agg(
        ds.map_batches(val_counts, batch_format="pyarrow"),
        "v", [("c", "sum", "c")],
        num_partitions=num_partitions).to_pandas()
    if len(vc) > max_distinct:
        raise ValueError(
            f"percentile_rank: {len(vc)} distinct values exceeds "
            f"max_distinct={max_distinct}; use a histogram/sketch "
            "method at that cardinality")
    vc = vc.sort_values("v")
    vals = vc["v"].to_numpy()
    counts = vc["c"].to_numpy()
    before = np.concatenate([[0], np.cumsum(counts)[:-1]])
    n = int(counts.sum())
    ref = ray.put((vals, before, n))
    cache: dict = {}

    def rank(batch: pa.Table) -> pa.Table:
        st = cache.get("r")
        if st is None:
            st = cache["r"] = ray.get(ref)
        va, bf, total = st
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        idx = np.searchsorted(va, v)
        pct = (bf[idx] / (total - 1)) if total > 1 else np.zeros(len(v))
        return batch.append_column(out_col, pa.array(pct, pa.float64()))

    return ds.map_batches(rank, batch_format="pyarrow")


def range_sort(
    ds: rd.Dataset,
    *,
    key_col: str,
    tiebreak_col: str,
    pos_col: str = "global_pos",
    num_partitions: int = 64,
    sample_per_batch: int = 64,
) -> rd.Dataset:
    """Distributed total sort with exact global positions: sample-based
    range partitioning (the TeraSort shape) on the raw-task exchange
    (``bsp.sort_blocks``), NOT Ray's built-in sort.

    1. **Sample** — each input block contributes ``sample_per_batch``
       evenly spaced (key, tiebreak) rows of its locally sorted rows;
       the cut rows are the sample quantiles.  Any cuts give a CORRECT
       order (ranges are disjoint and ordered); sampling only controls
       balance.
    2. **Range exchange** — each row's range id, computed against the
       cut rows in the task that splits its block, is its partition:
       range i's keys sort strictly below range i+1's.  At most
       ``num_partitions`` ranges, sized to the input.
    3. **Per-range sort** — one vectorized Arrow sort on (key,
       tiebreak) per range.
    4. **Offsets** — range i's offset is the row count of the ranges
       before it (the exchange's block row counts);
       ``pos_col = offset + local arange`` makes positions globally
       exact: ORDER BY (key, tiebreak) == ORDER BY pos_col.

    ``tiebreak_col`` must be unique for a deterministic total order
    (same contract as SQL ``row_number`` replay).
    """
    from .bsp import scan_blocks, sort_blocks

    srt = sort_blocks(ds, [key_col, tiebreak_col], max_parts=num_partitions,
                      sample_per_block=sample_per_batch)

    def assign(off: int, t: pa.Table) -> pa.Table:
        return t.append_column(pos_col, pa.array(
            off + np.arange(t.num_rows, dtype=np.int64)))

    return scan_blocks(srt, assign, srt.row_offsets()).dataset()


def table_diff(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    key_col: str,
    compare_cols: list[str],
    key_type: pa.DataType | None = None,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Snapshot diff between two versions of a keyed table: one row per
    key with ``status`` in {added, removed, changed, unchanged}
    (``added``/``removed`` relative to ``right`` being the NEW version).

    Scale shape: each side is reduced to ``(key, fingerprint)`` rows —
    the payload never shuffles — where the fingerprint is a vectorized
    64-bit FNV over the ``compare_cols`` string forms
    (``kernels/minhash._hash_shingles``; a fingerprint collision would
    misreport ``changed`` as ``unchanged`` at ~2^-64 per pair, the
    standard content-hash trade, stated here rather than hidden); then
    ONE ``exchange_join`` full outer on the key classifies every key.
    ``key_col`` must be unique per side (version tables), same contract
    as ``upsert_merge``'s output.  ``key_type`` is the Arrow type of the
    key (default int64) — passed through to the join's static schemas so
    the fused plan needs no schema probe.
    """
    from ..kernels.minhash import _hash_shingles
    from .exchange import exchange_join

    def fp(out_col: str):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            s = batch[compare_cols[0]].astype(str)
            for c in compare_cols[1:]:
                s = s.str.cat(batch[c].astype(str), sep="\x1f")
            h = _hash_shingles(s.tolist()).astype(np.int64)
            return pd.DataFrame({key_col: batch[key_col],
                                 out_col: h})
        return f

    lf = left.map_batches(fp("_lh"), batch_format="pandas")
    rf = right.map_batches(fp("_rh"), batch_format="pandas")
    key_t = key_type if key_type is not None else pa.int64()
    joined = exchange_join(
        lf, rf, on=key_col, how="full_outer",
        num_partitions=num_partitions,
        left_schema=pa.schema([(key_col, key_t), ("_lh", pa.int64())]),
        right_schema=pa.schema([(key_col, key_t), ("_rh", pa.int64())]))

    def classify(batch: pd.DataFrame) -> pd.DataFrame:
        lh, rh = batch["_lh"], batch["_rh"]
        status = np.where(
            lh.isna(), "added",
            np.where(rh.isna(), "removed",
                     np.where(lh.eq(rh), "unchanged", "changed")))
        return pd.DataFrame({key_col: batch[key_col],
                             "status": status})

    return joined.map_batches(classify, batch_format="pandas")


def key_skew_stats(
    ds: rd.Dataset,
    *,
    key_col: str,
    top_n: int = 20,
    num_partitions: int = 64,
) -> pd.DataFrame:
    """Key-distribution diagnostics for shuffle planning (the measurement
    behind "salt hot keys"): the global top-``top_n`` heaviest keys with
    counts, share of total rows, plus corpus totals (rows, distinct
    keys) on every row.

    Scale shape: per-batch ``np.unique`` count partials -> ONE key-hash
    ``exchange_agg`` sum; totals come from per-partition (rows, keys)
    partials — a ``num_partitions``-row aggregate — and the heavy keys
    from the constant-key ``topk_per_group`` funnel, so the driver
    collects ``top_n + num_partitions`` rows regardless of key
    cardinality.  Returns a driver DataFrame (bounded by construction).
    """
    from .exchange import exchange_agg

    def partials(batch: pa.Table) -> pa.Table:
        k, c = np.unique(
            batch.column(key_col).to_numpy(zero_copy_only=False),
            return_counts=True)
        return pa.table({"k": pa.array(k),
                         "cnt": pa.array(c, pa.int64())})

    counts = exchange_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        "k", [("cnt", "sum", "cnt")], num_partitions=num_partitions)

    def totals_part(batch: pa.Table) -> pa.Table:
        c = batch.column("cnt").to_numpy(zero_copy_only=False)
        return pa.table({"rows": pa.array([int(c.sum())], pa.int64()),
                         "keys": pa.array([len(c)], pa.int64())})

    tot = counts.map_batches(totals_part, batch_format="pyarrow",
                             batch_size=None).to_pandas()
    n_rows, n_keys = int(tot["rows"].sum()), int(tot["keys"].sum())

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_all", pa.array(np.zeros(len(batch), np.int32), pa.int32()))

    top = topk_per_group(counts.map_batches(tag, batch_format="pyarrow"),
                         key_col="_all", sort_col="cnt", tiebreak_col="k",
                         k=top_n, descending=True).to_pandas()
    top = top.rename(columns={"k": key_col}).drop(columns=["_all"])
    top["share"] = np.round(top["cnt"] / max(n_rows, 1), 9)
    top["n_rows"] = np.int64(n_rows)
    top["n_keys"] = np.int64(n_keys)
    return (top[[key_col, "cnt", "rank", "share", "n_rows", "n_keys"]]
            .sort_values("rank").reset_index(drop=True))


def group_mad(
    ds: rd.Dataset,
    *,
    key_col: str,
    value_col: str,
    z: float = 3.0,
    num_partitions: int = 64,
) -> pd.DataFrame:
    """Robust per-group dispersion stats: median, MAD (median absolute
    deviation), and the count of robust outliers
    (``|x - median| > z * 1.4826 * MAD`` — the normal-consistent MAD
    z-score).  Returns a driver DataFrame, one row per group (groups
    are bounded, same contract as ``group_quantiles_exact``).

    Three distributed passes, all existing machinery: (1) exact group
    medians via ``group_quantiles_exact`` (histogram-locate, no sort);
    (2) the same pass over ``|x - median|`` with the medians broadcast
    via ``ray.put``; (3) outlier counts as a per-batch combiner into one
    key-hash ``exchange_agg``.  The raw data never leaves its blocks.
    """
    from .exchange import exchange_agg

    med = group_quantiles_exact(ds, key_col=key_col, value_col=value_col,
                                qs=[0.5])
    med_map = dict(zip(med[key_col], med["q_0.5"]))
    mref = ray.put(med_map)
    cache: dict = {}

    def absdev(batch: pa.Table) -> pa.Table:
        m = cache.get("m")
        if m is None:
            m = cache["m"] = ray.get(mref)
        keys = batch.column(key_col).to_pylist()
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        meds = np.array([m[k] for k in keys], np.float64)
        return pa.table({key_col: batch.column(key_col),
                         value_col: pa.array(np.abs(v - meds),
                                             pa.float64())})

    dev = ds.map_batches(absdev, batch_format="pyarrow")
    mad = group_quantiles_exact(dev, key_col=key_col, value_col=value_col,
                                qs=[0.5])
    mad_map = dict(zip(mad[key_col], mad["q_0.5"]))
    tref = ray.put({k: (med_map[k], z * 1.4826 * mad_map[k])
                    for k in mad_map})

    def out_partial(batch: pa.Table) -> pa.Table:
        t = cache.get("t")
        if t is None:
            t = cache["t"] = ray.get(tref)
        keys = batch.column(key_col).to_pylist()
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        med_a = np.array([t[k][0] for k in keys], np.float64)
        thr_a = np.array([t[k][1] for k in keys], np.float64)
        flag = (np.abs(v - med_a) > thr_a).astype(np.int64)
        uk, inv = np.unique(np.asarray(keys, dtype=object),
                            return_inverse=True)
        cnt = np.bincount(inv, weights=flag).astype(np.int64)
        return pa.table({key_col: pa.array(list(uk)),
                         "n_outliers": pa.array(cnt, pa.int64())})

    outl = exchange_agg(
        ds.map_batches(out_partial, batch_format="pyarrow"),
        key_col, [("n_outliers", "sum", "n_outliers")],
        num_partitions=min(num_partitions, 16)).to_pandas()
    res = (med.rename(columns={"q_0.5": "median"})
           .merge(mad.rename(columns={"q_0.5": "mad"})[[key_col, "mad"]],
                  on=key_col)
           .merge(outl, on=key_col, how="left"))
    res["n_outliers"] = res["n_outliers"].fillna(0).astype(np.int64)
    return (res[[key_col, "n", "median", "mad", "n_outliers"]]
            .sort_values(key_col).reset_index(drop=True))


def grouped_prefix_sum(
    ds: rd.Dataset,
    *,
    key_col: str,
    order_col: str,
    value_col: str,
    out_col: str = "before",
) -> rd.Dataset:
    """Per-key running total (segmented scan): for every row,

        out_col = SUM(value) OVER (PARTITION BY key ORDER BY order
                                   ROWS UNBOUNDED PRECEDING AND 1 PRECEDING)

    i.e. the EXCLUSIVE prefix sum of ``value_col`` among rows of the
    same key with smaller ``order_col``.  All input columns pass
    through.  Precondition: ``order_col`` is unique within each key
    (ties make any engine's window order — including SQL's — arbitrary).

    Scale shape (the ``pack_sequences`` prefix generalized to per-key
    segments): ONE range sort on (key, order) (``bsp.sort_blocks``,
    cut on both columns), then (1) a stats pass gives each sorted block
    its first and last key and the value sum of its last key's run
    (interior keys never span a block boundary, so they need no
    cross-block state); (2) the driver walks those B rows in block
    order, carrying the one spanning key's running total forward;
    (3) each block adds its offset to its first key's local exclusive
    cumsum.  A hot key spanning many ranges costs O(its block count)
    driver ROWS — it is never required to fit in one worker (unlike
    the hash-partition + groupby.transform shape used by
    ``sessionize``).
    """
    from .bsp import block_values, scan_blocks, sort_blocks

    srt = sort_blocks(ds, [key_col, order_col])

    def stats(t: pa.Table):
        if not t.num_rows:
            return None
        k = t.column(key_col)
        kl = k[t.num_rows - 1].as_py()
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.float64)
        karr = np.asarray(k.to_pylist(), dtype=object)
        return k[0].as_py(), kl, float(v[karr == kl].sum())

    offsets = []
    running_key, running_sum = None, 0.0
    for st in block_values(srt, stats):
        if st is None:
            offsets.append(0.0)
            continue
        first, last, sum_last = st
        off = running_sum if first == running_key else 0.0
        offsets.append(off)
        base = off if last == first else 0.0
        running_key, running_sum = last, base + sum_last

    def assign(block_off: float, t: pa.Table) -> pa.Table:
        k = pd.Series(t.column(key_col).to_pylist())
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.float64)
        excl = (pd.Series(v).groupby(k, sort=False).cumsum() - v).to_numpy()
        if len(k):
            excl[(k == k.iloc[0]).to_numpy()] += block_off
        return t.append_column(out_col, pa.array(excl, pa.float64()))

    return scan_blocks(srt, assign, offsets).dataset()


def profile_table(
    ds: rd.Dataset,
    *,
    columns: list[str],
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Distributed column profiler (one output row per column): row/null
    counts, numeric min/max/sum, lexicographic min/max for strings, and
    EXACT distinct counts — the Spark ``describe`` / Deequ-profile
    analogue a 100-TB ingest runs before trusting a new table.

    Two scale-free passes: (a) a stats pass emitting ONE partial row per
    (column, batch) — shuffle volume is n_cols × n_batches regardless of
    row count — reduced by ``exchange_agg``; (b) a distinct pass shipping
    only per-batch-DISTINCT ``(column, value)`` pairs through a distinct
    ``exchange_agg`` + a count reduce.  Swap (b) for ``approx_distinct``
    (mergeable HLL) when exact cardinalities aren't required at 10^12
    rows.  Returns a driver DataFrame — the result is inherently n_cols
    rows.  Numeric aggregates are float64; sums of int columns are exact
    below 2^53.
    """
    from .exchange import exchange_agg

    cols = list(columns)

    def partials(batch: pd.DataFrame) -> pa.Table:
        names, n_rows, n_nulls = [], [], []
        min_num, max_num, sum_num, min_str, max_str = [], [], [], [], []
        for c in cols:
            s = batch[c]
            nonnull = s.dropna()
            names.append(c)
            n_rows.append(len(s))
            n_nulls.append(int(len(s) - len(nonnull)))
            if pd.api.types.is_numeric_dtype(s):
                has = len(nonnull) > 0
                min_num.append(float(nonnull.min()) if has else None)
                max_num.append(float(nonnull.max()) if has else None)
                sum_num.append(float(nonnull.sum()) if has else None)
                min_str.append(None)
                max_str.append(None)
            else:
                st = nonnull.astype(str)
                has = len(st) > 0
                min_num.append(None)
                max_num.append(None)
                sum_num.append(None)
                min_str.append(st.min() if has else None)
                max_str.append(st.max() if has else None)
        return pa.table({
            "column": pa.array(names, pa.string()),
            "n_rows": pa.array(n_rows, pa.int64()),
            "n_nulls": pa.array(n_nulls, pa.int64()),
            "min_num": pa.array(min_num, pa.float64()),
            "max_num": pa.array(max_num, pa.float64()),
            "sum_num": pa.array(sum_num, pa.float64()),
            "min_str": pa.array(min_str, pa.string()),
            "max_str": pa.array(max_str, pa.string()),
        })

    stats = exchange_agg(
        ds.map_batches(partials, batch_format="pandas", batch_size=65536),
        "column",
        [("n_rows", "sum"), ("n_nulls", "sum"),
         ("min_num", "min"), ("max_num", "max"), ("sum_num", "sum"),
         ("min_str", "min"), ("max_str", "max")],
        num_partitions=min(num_partitions, max(1, len(cols))),
        combine=False,  # partials are already one row per (column, batch)
    ).to_pandas()

    def dvals(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in cols:
            u = batch[c].dropna().unique()
            frames.append(pd.DataFrame({
                "column": c, "value": pd.Series(u).astype(str)}))
        out = pd.concat(frames, ignore_index=True)
        return out.astype({"column": str, "value": str})

    dist = exchange_agg(
        exchange_agg(
            ds.map_batches(dvals, batch_format="pandas", batch_size=65536),
            ["column", "value"], num_partitions=num_partitions),
        "column", [("value", "count", "n_distinct")],
        num_partitions=min(num_partitions, max(1, len(cols))),
    ).to_pandas()

    out = stats.merge(dist, on="column", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype("int64")
    out["n_rows"] = out["n_rows"].astype("int64")
    out["n_nulls"] = out["n_nulls"].astype("int64")
    order = ["column", "n_rows", "n_nulls", "n_distinct",
             "min_num", "max_num", "sum_num", "min_str", "max_str"]
    return out[order].sort_values("column").reset_index(drop=True)


def group_collect(
    ds: rd.Dataset,
    *,
    key_col: str | list[str],
    value_col: str,
    distinct: bool = True,
    sep: str = ",",
    num_partitions: int = 64,
    max_values_per_key: int = 100_000,
) -> rd.Dataset:
    """Distributed ``array_agg`` / collect_list: per key, the values
    joined by ``sep`` in ascending NATIVE order of ``value_col`` (so the
    output is deterministic and SQL-replayable via
    ``string_agg(... ORDER BY value)``), plus ``n_values``.

    Shape: per-batch ``(key, value)`` distinct combiner (when
    ``distinct``, shuffle volume is per-batch-distinct), ONE hash
    exchange on the key, then a per-partition vectorized sort +
    grouped join — one pandas call per PARTITION, not per key.  A key's
    values must fit in one partition (the inverted_index partitioning
    assumption); keys exceeding ``max_values_per_key`` raise rather than
    silently emit a memory-bomb row (same posting-list guard class as
    ``inverted_index``'s chunking — use that op for unbounded lists).
    """
    keys = [key_col] if isinstance(key_col, str) else list(key_col)

    def combine(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[keys + [value_col]]
        return batch.drop_duplicates() if distinct else batch

    def reduce_part(g: pd.DataFrame) -> pd.DataFrame:
        if distinct:
            g = g.drop_duplicates()
        sizes = g.groupby(keys, sort=False)[value_col].size()
        if int(sizes.max()) > max_values_per_key:
            hot = sizes.idxmax()
            raise ValueError(
                f"group_collect: key {hot!r} has {int(sizes.max())} values "
                f"(> max_values_per_key={max_values_per_key}); use "
                "inverted_index-style chunked rows for unbounded lists")
        g = g.sort_values(keys + [value_col], kind="mergesort")
        out = (g.assign(_v=g[value_col].astype(str))
               .groupby(keys, sort=False)
               .agg(n_values=(value_col, "size"), values=("_v", sep.join)))
        return out.reset_index()

    return keyed_apply(
        ds.map_batches(combine, batch_format="pandas", batch_size=65536),
        keys, reduce_part, num_partitions=num_partitions)


def prefix_max(
    ds: rd.Dataset,
    *,
    order_col: str,
    value_col: str,
    out_col: str = "running_max",
) -> rd.Dataset:
    """Global EXCLUSIVE running maximum in ``order_col`` order:

        out_col = MAX(value) OVER (ORDER BY order
                                   ROWS UNBOUNDED PRECEDING AND 1 PRECEDING)

    (null for the globally first row).  The streaming high-watermark
    primitive — ``windows.watermark_filter`` builds late-event handling
    on it.  Precondition: ``order_col`` unique (it is the arrival
    sequence).

    Scale shape (the ``grouped_prefix_sum`` scan without the segment
    bookkeeping): ONE range sort on ``order_col`` (``bsp.sort_blocks``),
    a stats pass giving each sorted block its max — B driver values —
    an exclusive prefix-max walk over them in block order, then each
    block combines its offset with the block-local exclusive
    ``np.maximum.accumulate``.  No hash exchange.
    """
    from .bsp import block_values, scan_blocks, sort_blocks

    srt = sort_blocks(ds, order_col)

    def block_max(t: pa.Table) -> float:
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        return float(v.astype(np.float64).max()) if len(v) else -np.inf

    offsets, running = [], -np.inf
    for m in block_values(srt, block_max):
        offsets.append(running)
        running = max(running, m)

    def assign(block_off: float, t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.float64)
        # exclusive local running max: shift the inclusive accumulate
        local = np.full(len(v), -np.inf)
        local[1:] = np.maximum.accumulate(v)[:-1]
        out = np.maximum(local, block_off)
        # -inf can only survive at the globally first row (every later
        # row has at least one finite predecessor); emit it as null
        if not len(out) or np.isfinite(out[0]):
            return t.append_column(out_col, pa.array(out, pa.float64()))
        return t.append_column(out_col, pa.array(
            np.where(np.isfinite(out), out, np.nan), pa.float64(),
            from_pandas=True))

    return scan_blocks(srt, assign, offsets).dataset()


def explode_list(
    ds: rd.Dataset,
    *,
    list_col: str,
    out_col: str = "value",
    pos_col: str = "pos",
    keep_cols: list[str] | None = None,
) -> rd.Dataset:
    """UNNEST a list column into one row per element with its 0-based
    position — the relational explode/posexplode primitive.  Pure
    ``map_batches`` over Arrow (no shuffle): the flat child array comes
    out of ``ListArray.flatten()`` without copying element storage, the
    kept columns replicate via vectorized ``take`` on repeat indices,
    and positions come from one arange-minus-offsets subtraction.
    Output volume is Σ list lengths — size batches accordingly for
    long lists (e.g. embeddings: batch_size ≈ target_rows / dim).
    Handles list / large_list / fixed_size_list; null list slots are
    rejected loudly (a null slot's offset span is unspecified, so a
    silent flatten would misalign positions)."""
    def fn(batch: pa.Table) -> pa.Table:
        col = batch.column(list_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if col.null_count:
            raise ValueError(
                f"explode_list: column {list_col!r} has {col.null_count} "
                "null list slots; drop or fill them upstream")
        if pa.types.is_fixed_size_list(col.type):
            width = col.type.list_size
            col = pa.ListArray.from_arrays(
                pa.array(np.arange(len(col) + 1, dtype=np.int64) * width,
                         pa.int32()),
                col.flatten())
        offsets = col.offsets.to_numpy(zero_copy_only=False)
        offsets = offsets - offsets[0]  # sliced arrays carry a base offset
        lengths = np.diff(offsets)
        flat = col.flatten()
        idx = np.repeat(np.arange(len(batch)), lengths)
        pos = (np.arange(len(flat), dtype=np.int64)
               - np.repeat(offsets[:-1], lengths))
        cols = {}
        for c in (keep_cols
                  if keep_cols is not None
                  else [n for n in batch.column_names if n != list_col]):
            cols[c] = batch.column(c).take(pa.array(idx, pa.int64()))
        cols[pos_col] = pa.array(pos, pa.int64())
        cols[out_col] = flat
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=8192)


def dq_check(
    ds: rd.Dataset,
    rules: list[tuple],
    *,
    num_partitions: int = 32,
    max_fk_keys: int = 5_000_000,
) -> rd.Dataset:
    """Data-quality rule evaluation over a fact table — the lakehouse
    CI gate (dbt-style tests) run as ONE streaming pass plus one tiny
    exchange.

    ``rules`` entries (name first, then kind + params):
      ``(name, "not_null", col)``            — violation: col IS NULL
      ``(name, "range", col, lo, hi)``       — violation: non-null and
                                               outside [lo, hi]
      ``(name, "unique", col)``              — violations = non-null
                                               rows minus distinct
                                               non-null values
      ``(name, "fk", col, dim_ds, dim_col)`` — violation: non-null col
                                               absent from the dimension
                                               key set

    Shape: every per-row rule folds into ONE map_batches pass emitting
    a partial-count row per (batch, rule) — O(batches x rules) rows
    through a single exchange_agg, never the fact rows.  ``fk``
    dimension keys are collected via a per-batch-distinct combiner and
    broadcast once with ``ray.put`` (bounded by ``max_fk_keys`` — the
    semi_join_filter bytes math); each batch probes with vectorized
    ``np.isin``.  ``unique`` runs a distinct-count exchange per such
    rule (combiner-backed; shuffle volume = per-batch distinct keys).
    Output: one row per rule — ``(rule, n_checked, n_violations)``.
    """
    import ray

    from .exchange import exchange_agg

    per_row: list[tuple] = []      # (name, kind, col, extra)
    uniques: list[tuple[str, str]] = []
    fk_refs: dict[str, object] = {}
    for r in rules:
        name, kind = r[0], r[1]
        if kind == "not_null":
            per_row.append((name, kind, r[2], None))
        elif kind == "range":
            per_row.append((name, kind, r[2], (float(r[3]), float(r[4]))))
        elif kind == "unique":
            uniques.append((name, r[2]))
        elif kind == "fk":
            col, dim_ds, dim_col = r[2], r[3], r[4]

            def dk(batch: pa.Table, c=dim_col) -> pa.Table:
                arr = np.unique(
                    batch.column(c).to_numpy(zero_copy_only=False))
                return pa.table({"k": pa.array(arr)})

            keys = np.unique(
                dim_ds.map_batches(dk, batch_format="pyarrow")
                .to_pandas()["k"].to_numpy())
            if len(keys) > max_fk_keys:
                raise ValueError(
                    f"dq_check: fk rule {name!r} has {len(keys)} dimension "
                    f"keys > max_fk_keys={max_fk_keys}; use a shuffle "
                    f"anti-join instead of a broadcast")
            fk_refs[name] = ray.put(keys)
            per_row.append((name, kind, col, None))
        else:
            raise ValueError(f"dq_check: unknown rule kind {kind!r}")

    cache: dict = {}

    def partials(batch: pa.Table) -> pd.DataFrame:
        names, checked, viol = [], [], []
        n = len(batch)
        for name, kind, col, extra in per_row:
            c = batch.column(col)
            nulls = c.null_count
            if kind == "not_null":
                v = nulls
            elif kind == "range":
                lo, hi = extra
                vals = c.to_numpy(zero_copy_only=False)
                with np.errstate(invalid="ignore"):
                    bad = (vals < lo) | (vals > hi)
                v = int(np.count_nonzero(bad & ~pd.isna(vals)))
            else:  # fk
                ks = cache.get(name)
                if ks is None:
                    ks = cache[name] = ray.get(fk_refs[name])
                vals = c.drop_null().to_numpy(zero_copy_only=False)
                v = int(np.count_nonzero(
                    np.isin(vals, ks, invert=True)))
            names.append(name)
            checked.append(n)
            viol.append(v)
        return pd.DataFrame({"rule": names,
                             "n_checked": np.array(checked, dtype=np.int64),
                             "n_violations": np.array(viol, dtype=np.int64)})

    rows: list[pd.DataFrame] = []
    if per_row:
        summed = exchange_agg(
            ds.map_batches(partials, batch_format="pyarrow"),
            "rule", [("n_checked", "sum"), ("n_violations", "sum")],
            num_partitions=num_partitions).to_pandas()
        rows.append(summed)
    for name, col in uniques:
        def nn(batch: pa.Table, c=col) -> pa.Table:
            col_arr = batch.column(c).drop_null()
            return pa.table({c: col_arr})

        nonnull = ds.map_batches(nn, batch_format="pyarrow")
        n_nonnull = nonnull.count()
        n_distinct = exchange_agg(nonnull, [col],
                                  num_partitions=num_partitions).count()
        rows.append(pd.DataFrame({
            "rule": [name],
            "n_checked": np.array([n_nonnull], dtype=np.int64),
            "n_violations": np.array([n_nonnull - n_distinct],
                                     dtype=np.int64)}))
    out = pd.concat(rows, ignore_index=True).sort_values("rule")
    return rd.from_pandas(out.reset_index(drop=True))


def corr_matrix(
    ds: rd.Dataset,
    cols: list[str],
    *,
    num_partitions: int = 1,
) -> rd.Dataset:
    """Pairwise Pearson correlation matrix over numeric columns in ONE
    streaming pass: each batch emits a single partial row (n, Σx per
    column, Σxy per pair — complete-case: rows with any null among
    ``cols`` are dropped first), all partials fold through one
    single-key exchange_agg, and the O(|cols|²) final algebra runs on
    the driver.  Output: ``(col_a, col_b, n, corr)`` for a < b.

    Shuffle volume is one row of 1 + |cols| + |cols|(|cols|+1)/2
    doubles per batch — independent of row count.  Numerical note: the
    moment formula n·Σxy − Σx·Σy cancels catastrophically when a
    column's mean dwarfs its spread (mean²/var digits are lost) —
    pre-center such columns by a fixed constant (shift-invariant) as
    the caller; the SQL oracle replays the same formula over the same
    raw moments.
    """
    from .exchange import exchange_agg

    pairs = [(i, j) for i in range(len(cols)) for j in range(i, len(cols))]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[cols].dropna()
        row: dict = {"_k": 0, "n": np.float64(len(sub))}
        vals = [sub[c].to_numpy(np.float64) for c in cols]
        for i, c in enumerate(cols):
            row[f"s_{i}"] = vals[i].sum()
        for i, j in pairs:
            row[f"p_{i}_{j}"] = (vals[i] * vals[j]).sum()
        return pd.DataFrame([row])

    aggs = ([("n", "sum", "n")]
            + [(f"s_{i}", "sum", f"s_{i}") for i in range(len(cols))]
            + [(f"p_{i}_{j}", "sum", f"p_{i}_{j}") for i, j in pairs])
    tot = exchange_agg(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        "_k", aggs, num_partitions=num_partitions).to_pandas().iloc[0]

    n = tot["n"]
    out_rows = []
    for i, j in pairs:
        if i == j:
            continue
        num = n * tot[f"p_{i}_{j}"] - tot[f"s_{i}"] * tot[f"s_{j}"]
        va = n * tot[f"p_{i}_{i}"] - tot[f"s_{i}"] ** 2
        vb = n * tot[f"p_{j}_{j}"] - tot[f"s_{j}"] ** 2
        c = num / np.sqrt(va * vb) if va > 0 and vb > 0 else np.nan
        out_rows.append({"col_a": cols[i], "col_b": cols[j],
                         "n": np.int64(n), "corr": c})
    return rd.from_pandas(pd.DataFrame(out_rows))


def khop_reach(
    edges: rd.Dataset,
    seeds: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    k: int = 3,
    num_partitions: int = 32,
    driver_max_edges: int = 2_000_000,
) -> rd.Dataset:
    """BFS reachability with levels: every node within ``k`` directed
    hops of the seed set, labelled with its FIRST-reach level
    (``level`` 0 = seed).  The iterative frontier pattern: per level,
    frontier ⋈ edges (one exchange_join), distinct, minus the visited
    set (``set_op_rows`` EXCEPT — a shuffle, never a broadcast, so hub
    frontiers scale), visited grows by union.  Frontier and visited are
    the only iterated state, materialized per level like
    :func:`~.graph.pagerank`'s ranks; the edge table is materialized
    once and never reshuffled between levels (each level's join
    re-exchanges only the frontier side).  Early-exits when a level
    adds nothing.

    Driver tier (same crossover as graph.multi_source_bfs / scc /
    betweenness_from_seeds): below ``driver_max_edges`` distinct edges
    the k executor rounds of fixed plan-spinup cost dwarf the frontier
    work, so the BFS runs as one numpy searchsorted loop on the
    collected edge table; the distributed tier above the threshold is
    unchanged and parity-tested.
    """
    from .exchange import exchange_agg, exchange_join

    e = exchange_agg(edges, [src_col, dst_col]).materialize()
    es = pa.schema([("node", pa.int64()), ("_nxt", pa.int64())])
    e_keyed = e.map_batches(
        lambda t: pa.table({"node": t.column(src_col).cast(pa.int64()),
                            "_nxt": t.column(dst_col).cast(pa.int64())}),
        batch_format="pyarrow").materialize()

    if e_keyed.count() <= driver_max_edges:
        ed = e_keyed.to_pandas()
        src = ed["node"].to_numpy(np.int64)
        dst = ed["_nxt"].to_numpy(np.int64)
        order = np.argsort(src, kind="mergesort")
        src, dst = src[order], dst[order]
        sd = (seeds.map_batches(
            lambda t: pa.table({"node": t.column("node").cast(pa.int64())}),
            batch_format="pyarrow").to_pandas())
        level = {int(n): 0 for n in sd["node"].unique()}
        frontier = np.asarray(sorted(level), np.int64)
        for lvl in range(1, k + 1):
            lo = np.searchsorted(src, frontier, side="left")
            hi = np.searchsorted(src, frontier, side="right")
            cnt = hi - lo
            if cnt.sum() == 0:
                break
            flat = (np.repeat(lo, cnt)
                    + (np.arange(int(cnt.sum()))
                       - np.repeat(np.cumsum(cnt) - cnt, cnt)))
            nxt = np.unique(dst[flat])
            new = np.asarray([n for n in nxt if n not in level], np.int64)
            if len(new) == 0:
                break
            for n in new:
                level[int(n)] = lvl
            frontier = new
        return rd.from_pandas(pd.DataFrame({
            "node": pd.Series(list(level.keys()), dtype="int64"),
            "level": pd.Series(list(level.values()), dtype="int64")}))

    frontier = exchange_agg(
        seeds.map_batches(
            lambda t: pa.table({"node": t.column("node").cast(pa.int64())}),
            batch_format="pyarrow"),
        ["node"]).materialize()
    fs = pa.schema([("node", pa.int64())])

    def stamp(level: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "node": t.column("node"),
                "level": pa.array(np.full(len(t), level, dtype=np.int64))})
        return fn

    levels = [frontier.map_batches(stamp(0), batch_format="pyarrow")]
    visited = frontier
    for lvl in range(1, k + 1):
        nb = exchange_join(frontier, e_keyed, on="node",
                           num_partitions=num_partitions,
                           left_schema=fs, right_schema=es)
        nb = exchange_agg(
            nb.map_batches(lambda t: pa.table({"node": t.column("_nxt")}),
                           batch_format="pyarrow"),
            ["node"])
        new = set_op_rows(nb, visited, cols=["node"],
                          op="except",
                          num_partitions=num_partitions).materialize()
        if new.count() == 0:
            break
        levels.append(new.map_batches(stamp(lvl), batch_format="pyarrow"))
        visited = exchange_agg([visited, new], ["node"])
        frontier = new
    out = levels[0]
    for p in levels[1:]:
        out = out.union(p)
    return out


def iqr_outliers(
    ds: rd.Dataset,
    *,
    key_col: str,
    value_col: str,
    k: float = 1.5,
    flag_col: str = "is_outlier",
) -> rd.Dataset:
    """Tukey-fence outlier flagging per key: a row is an outlier when
    its value falls outside ``[Q1 - k·IQR, Q3 + k·IQR]`` of its key's
    distribution — the robust anomaly gate in front of feature
    pipelines.

    Per-key Q1/Q3 come from :func:`group_quantiles_exact` (exact
    histogram-located order statistics — three bounded passes, no
    global sort); the resulting per-key fence table is driver-sized
    (O(groups)), broadcast once via ``ray.put``, and the flagging pass
    is a pure vectorized map over the fact rows.  Keys unseen in the
    quantile pass (no non-null values) flag as False.
    """
    import ray

    qdf = group_quantiles_exact(ds, key_col=key_col, value_col=value_col,
                                qs=[0.25, 0.75])
    q1 = qdf["q_0.25"].to_numpy(np.float64)
    q3 = qdf["q_0.75"].to_numpy(np.float64)
    iqr = q3 - q1
    fence = pd.DataFrame({
        key_col: qdf[key_col],
        "_lo": q1 - np.float64(k) * iqr,
        "_hi": q3 + np.float64(k) * iqr})
    ref = ray.put(fence)
    cache: dict = {}

    def flag(batch: pd.DataFrame) -> pd.DataFrame:
        f = cache.get("f")
        if f is None:
            f = cache["f"] = ray.get(ref)
        m = batch.merge(f, on=key_col, how="left")
        vals = m[value_col].to_numpy(np.float64)
        lo = m["_lo"].to_numpy(np.float64)
        hi = m["_hi"].to_numpy(np.float64)
        with np.errstate(invalid="ignore"):
            out = (vals < lo) | (vals > hi)
        out &= ~np.isnan(lo)
        batch = batch.copy()
        batch[flag_col] = out
        return batch

    return ds.map_batches(flag, batch_format="pandas", batch_size=65536)


def table_checksum(
    ds: rd.Dataset,
    *,
    id_col: str,
    mix_col: str,
    num_partitions: int = 1,
) -> rd.Dataset:
    """Order-independent content checksum of a table — the anti-entropy
    primitive for verifying that a 100-TB replica / rewrite / compaction
    preserved every row: per row ``h = splitmix64(splitmix64(id) +
    mix)``, checksum = Σ h (mod 2⁶⁴).  Commutative, so any
    partitioning, ordering or engine reproduces it exactly.

    One streaming pass emits a single partial row per batch: row count
    + the 64-bit sum SPLIT INTO FOUR 16-BIT LANES, so the int64 lane
    sums stay exact to ~2⁴⁷ rows (Arrow's int64 sum must not overflow
    before the driver recombines the lanes with exact Python ints).
    Output: one row ``(n_rows, checksum)`` with the checksum as a
    decimal string (the value does not fit a signed int64).
    """
    from .exchange import exchange_agg

    def partial(batch: pa.Table) -> pd.DataFrame:
        a = batch.column(id_col).to_numpy(
            zero_copy_only=False).astype(np.int64).view(np.uint64)
        b = batch.column(mix_col).to_numpy(
            zero_copy_only=False).astype(np.int64).view(np.uint64)
        h = splitmix64(splitmix64(a) + b)
        row: dict = {"_k": [0],
                     "n_rows": np.array([len(a)], dtype=np.int64)}
        for lane in range(4):
            part = (h >> np.uint64(16 * lane)) & np.uint64(0xFFFF)
            row[f"s_{lane}"] = np.array(
                [int(part.sum(dtype=np.uint64))], dtype=np.int64)
        return pd.DataFrame(row)

    tot = exchange_agg(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        "_k", [("n_rows", "sum", "n_rows")]
        + [(f"s_{i}", "sum", f"s_{i}") for i in range(4)],
        num_partitions=num_partitions).to_pandas().iloc[0]
    checksum = sum(int(tot[f"s_{i}"]) << (16 * i)
                   for i in range(4)) % (1 << 64)
    return rd.from_pandas(pd.DataFrame({
        "n_rows": np.array([tot["n_rows"]], dtype=np.int64),
        "checksum": [str(checksum)]}))


def _hll_fold(ds: rd.Dataset, col: str, p: int) -> np.ndarray:
    """Fold a column into ONE HLL register array: per-batch 2^p-byte
    partials stream to the driver, merge = elementwise max (the
    approx_distinct shape, returning the registers instead of the
    estimate so callers can do sketch algebra)."""

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({"reg": pa.array([hll_registers(ids, p).tobytes()],
                                         pa.binary())})

    merged = np.zeros(1 << p, dtype=np.uint8)
    for row in ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=65536).iter_rows():
        merged = np.maximum(merged,
                            np.frombuffer(row["reg"], dtype=np.uint8))
    return merged


def hll_join_estimate(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    left_col: str,
    right_col: str,
    p: int = 12,
) -> rd.Dataset:
    """Sketch-based join cardinality planning: approximate distinct key
    counts of both sides, of their UNION (register-wise max — the HLL
    merge identity), and of their INTERSECTION by inclusion-exclusion
    (|A∩B| ≈ |A| + |B| - |A∪B|, clipped at 0) — the numbers a planner
    needs to pick broadcast vs shuffle vs skew-salt BEFORE moving a
    single row.  One streaming pass per side, 2^p bytes of state each,
    zero shuffle.  The intersection estimate inherits roughly the union
    sketch's absolute error (~1.04·|A∪B|/√2^p), so it is a planning
    signal, not an exact count.  Output: one row (est_left, est_right,
    est_union, est_intersect).
    """
    ra = _hll_fold(left, left_col, p)
    rb = _hll_fold(right, right_col, p)
    ea = hll_estimate(ra)
    eb = hll_estimate(rb)
    eu = hll_estimate(np.maximum(ra, rb))
    ei = max(0.0, ea + eb - eu)
    return rd.from_pandas(pd.DataFrame({
        "est_left": [ea], "est_right": [eb],
        "est_union": [eu], "est_intersect": [ei]}))


# ---------------------------------------------------------------------------
# Count-min sketch — mergeable frequency registers


def cms_build(
    ds: rd.Dataset,
    *,
    key_col: str,
    depth: int = 4,
    width: int = 1024,
) -> rd.Dataset:
    """Count-min sketch of integer-key frequencies: ``depth`` hash rows x
    ``width`` buckets.  Row i buckets key k at
    ``splitmix64(k*depth + i) % width`` (distinct affine pre-hash inputs
    per row; |k| must fit in 63 - log2(depth) bits).

    Per-batch partials are dense ``np.bincount`` register slices (the
    exchange moves at most depth x width rows PER BATCH regardless of key
    cardinality), merged by one (row, bucket) hash-exchange sum — the
    registers are mergeable across shards/streams by addition, which is
    the point of the sketch at 100 TB.  Emits (row, bucket, cnt), at most
    depth*width rows total.
    """
    from .exchange import exchange_agg

    d_i64 = np.int64(depth)

    def partial(t: pa.Table) -> pa.Table:
        k = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        rows, buckets, cnts = [], [], []
        for i in range(depth):
            h = splitmix64(k * d_i64 + np.int64(i)) % np.uint64(width)
            cnt = np.bincount(h.astype(np.int64), minlength=width)
            nz = np.flatnonzero(cnt)
            rows.append(np.full(len(nz), i, np.int64))
            buckets.append(nz.astype(np.int64))
            cnts.append(cnt[nz].astype(np.int64))
        return pa.table({"row": np.concatenate(rows),
                         "bucket": np.concatenate(buckets),
                         "cnt": np.concatenate(cnts)})

    return exchange_agg(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["row", "bucket"], [("cnt", "sum", "cnt")])


def cms_estimate(
    registers: rd.Dataset,
    probe_keys: np.ndarray,
    *,
    depth: int = 4,
    width: int = 1024,
) -> pd.DataFrame:
    """Point-frequency estimates from ``cms_build`` registers:
    est(k) = min over rows i of register[i, h_i(k)] — an upper bound on
    the true count (collisions only inflate).  The register table is
    bounded at depth*width rows, so the driver collect here is O(sketch),
    never O(data).  Returns (key, est) for each probe key."""
    reg = registers.to_pandas()
    dense = np.zeros((depth, width), np.int64)
    dense[reg["row"].to_numpy(np.int64),
          reg["bucket"].to_numpy(np.int64)] = reg["cnt"].to_numpy(np.int64)
    k = np.asarray(probe_keys, np.int64)
    est = np.full(len(k), np.iinfo(np.int64).max, np.int64)
    for i in range(depth):
        h = (splitmix64(k * np.int64(depth) + np.int64(i))
             % np.uint64(width)).astype(np.int64)
        est = np.minimum(est, dense[i, h])
    return pd.DataFrame({"key": k, "est": est})


# ---------------------------------------------------------------------------
# 2-D skyline (Pareto frontier)


def _sky_kernel(p: pd.DataFrame, x: str, y: str) -> pd.DataFrame:
    """Exact 2-D skyline over (x maximize, y minimize) pair-count rows.
    keep iff (no strictly-greater-x point has y <= ours) AND (y is the
    min within our x group) — one sort + prefix-min, no pairwise loop."""
    if p.empty:
        return p
    p = p.groupby([x, y], sort=True, as_index=False)["n"].sum()
    p = (p.sort_values([x, y], ascending=[False, True], kind="mergesort")
         .reset_index(drop=True))
    grp_min = p.groupby(x, sort=False)[y].transform("min").to_numpy()
    first = (~p[x].duplicated()).to_numpy()
    gm = grp_min[first]
    prev = np.concatenate(([np.inf], np.minimum.accumulate(gm)[:-1]))
    prev_row = prev[np.cumsum(first) - 1]
    yv = p[y].to_numpy()
    return p.loc[(yv < prev_row) & (yv == grp_min)]


def skyline_2d(ds: rd.Dataset, *, x_col: str, y_col: str) -> rd.Dataset:
    """Distributed Pareto frontier: points not dominated by any other
    (dominance = x' >= x AND y' <= y with one strict; x maximized, y
    minimized).  Emits the frontier's unique (x, y) points with
    n = input rows sitting exactly on that point.

    Two-level reduce with the same vectorized kernel: a per-block local
    skyline combiner (the union of local skylines contains the global
    frontier, and any global-frontier row survives its own block's
    pass, so counts are preserved), then one final pass: the single
    reduce task of the raw-task exchange at P=1, with the local skyline
    as its source's block function.  The exchange volume is the local
    frontier sizes — for random-ish data O(log n) per block — never the
    input.
    """
    from .bsp import exchange_blocks
    from .exchange import pandas_block

    def local(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({x_col: df.get(x_col, pd.Series(dtype="f8")),
                                 y_col: df.get(y_col, pd.Series(dtype="i8")),
                                 "n": pd.Series(dtype="int64")})
        p = df.assign(n=np.int64(1))[[x_col, y_col, "n"]]
        return _sky_kernel(p, x_col, y_col)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return _sky_kernel(df, x_col, y_col)

    # at P=1 no row is split, so the partition column is never read
    return exchange_blocks((ds, pandas_block(local)), "_part",
                           pandas_block(final), max_parts=1).dataset()


def welch_ttest(
    ds: rd.Dataset,
    *,
    group_col: str,
    value_col: str,
    group_a,
    group_b,
    num_partitions: int = 1,
) -> pd.DataFrame:
    """Welch's unequal-variance two-sample t-test in ONE streaming pass
    — the A/B-experiment readout: per batch one partial row of
    (n, Σx, Σx²) per arm, folded through a single-key exchange_agg;
    the t statistic and Welch–Satterthwaite df resolve on the driver
    from six numbers.  Sample variance via the moment form
    ``(Σx² − (Σx)²/n) / (n−1)`` — the SQL oracle replays the identical
    expression, so the cancellation caveat of ``corr_matrix`` applies
    (pre-center values with a constant shift if mean²/var is extreme).

    Output: one row (n_a, n_b, mean_a, mean_b, var_a, var_b, t_stat,
    df) — floats are the caller's to round.  Nulls in ``value_col``
    are dropped per arm.
    """
    from .exchange import exchange_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        row: dict = {"_k": 0}
        for tag, gv in (("a", group_a), ("b", group_b)):
            v = batch.loc[batch[group_col] == gv, value_col].dropna() \
                .to_numpy(np.float64)
            row[f"n_{tag}"] = np.float64(len(v))
            row[f"s_{tag}"] = v.sum()
            row[f"q_{tag}"] = (v * v).sum()
        return pd.DataFrame([row])

    aggs = [(f"{m}_{t}", "sum", f"{m}_{t}")
            for t in ("a", "b") for m in ("n", "s", "q")]
    tot = exchange_agg(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        "_k", aggs, num_partitions=num_partitions).to_pandas().iloc[0]

    for t in ("a", "b"):
        if tot[f"n_{t}"] < 2:
            # an absent or single-row arm yields NaN/inf statistics —
            # raise like did_estimate/power_analysis (review r5)
            raise ValueError(
                f"welch_ttest: arm {t!r} has n={int(tot[f'n_{t}'])} < 2 "
                "non-null rows — the variance is undefined")

    out: dict = {}
    se = {}
    for t in ("a", "b"):
        n, s, q = tot[f"n_{t}"], tot[f"s_{t}"], tot[f"q_{t}"]
        mean = s / n
        var = (q - s * s / n) / (n - np.float64(1.0))
        out[f"n_{t}"] = np.int64(n)
        out[f"mean_{t}"] = mean
        out[f"var_{t}"] = var
        se[t] = var / n
    denom = np.sqrt(se["a"] + se["b"])
    out["t_stat"] = (out["mean_a"] - out["mean_b"]) / denom
    out["df"] = ((se["a"] + se["b"]) ** 2
                 / (se["a"] ** 2 / (tot["n_a"] - np.float64(1.0))
                    + se["b"] ** 2 / (tot["n_b"] - np.float64(1.0))))
    return pd.DataFrame([out])


def logreg_train(
    ds: rd.Dataset,
    feature_cols: list[str],
    label_col: str,
    *,
    iterations: int = 3,
    lr: float = 0.5,
    num_partitions: int = 1,
) -> pd.DataFrame:
    """Full-batch gradient-descent logistic regression — the iterative
    distributed-training kernel: per iteration ONE streaming pass emits
    a single partial-gradient row per batch (d+1 doubles), folded by a
    single-key exchange_agg; the O(d) weight update runs on the driver.
    ``w ← w − lr/n · Σ xᵢ(σ(w·xᵢ) − yᵢ)`` with ``w₀ = 0`` and an
    implicit leading intercept feature.

    The per-row logit is evaluated as the explicit elementwise sum
    ``w0·1 + w1·x1 + …`` in float64 (not a BLAS dot) so an unrolled SQL
    oracle reproduces each iteration's float expression shapes; sum
    order across rows is the usual partition-fold caveat, absorbed by
    end rounding.  Returns one row: (w_0 … w_d, n).

    At 100 TB: iteration state is O(d) — only the weight vector moves
    between passes; each pass is embarrassingly parallel and reads the
    feature columns only.
    """
    from .exchange import exchange_agg

    d = len(feature_cols) + 1  # intercept
    w = np.zeros(d, dtype=np.float64)
    lr64 = np.float64(lr)
    n_total = None

    for _ in range(iterations):
        wc = w.copy()

        def partial(batch: pd.DataFrame, wc=wc) -> pd.DataFrame:
            y = batch[label_col].to_numpy(np.float64)
            z = np.full(len(batch), wc[0], np.float64)
            for j, c in enumerate(feature_cols):
                z = z + wc[j + 1] * batch[c].to_numpy(np.float64)
            err = 1.0 / (1.0 + np.exp(-z)) - y
            row = {"_k": 0, "n": np.float64(len(batch)),
                   "g_0": err.sum()}
            for j, c in enumerate(feature_cols):
                row[f"g_{j + 1}"] = (
                    batch[c].to_numpy(np.float64) * err).sum()
            return pd.DataFrame([row])

        aggs = ([("n", "sum", "n")]
                + [(f"g_{j}", "sum", f"g_{j}") for j in range(d)])
        tot = exchange_agg(
            ds.map_batches(partial, batch_format="pandas",
                           batch_size=65536),
            "_k", aggs, num_partitions=num_partitions).to_pandas().iloc[0]
        n_total = np.float64(tot["n"])
        for j in range(d):
            w[j] = w[j] - lr64 * np.float64(tot[f"g_{j}"]) / n_total

    out = {f"w_{j}": w[j] for j in range(d)}
    out["n"] = np.int64(n_total)
    return pd.DataFrame([out])


def melt(
    ds: rd.Dataset,
    *,
    id_cols: list[str],
    value_cols: list[str],
    var_name: str = "variable",
    value_name: str = "value",
) -> rd.Dataset:
    """Unpivot (wide → long), the inverse of the pivot stage: each input
    row emits one row per ``value_cols`` entry.  Pure vectorized map
    (np.repeat on ids × column-stack on values), zero shuffle — at any
    scale this is a width-to-length reshape of each block in place."""
    def fn(t: pa.Table) -> pa.Table:
        n = t.num_rows
        k = len(value_cols)
        cols: dict = {}
        for c in id_cols:
            cols[c] = pa.concat_arrays(
                [t.column(c).combine_chunks()] * k) if k > 1 else \
                t.column(c)
        # tile layout: block of all rows per value column, ids tiled
        var = pa.array(np.repeat(value_cols, n), pa.string())
        vals = pa.concat_arrays(
            [t.column(c).cast(pa.float64()).combine_chunks()
             for c in value_cols])
        cols[var_name] = var
        cols[value_name] = vals
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def minmax_scale(
    ds: rd.Dataset,
    *,
    key_col: str,
    value_col: str,
    out_col: str = "scaled",
    max_groups: int = 2_000_000,
    num_partitions: int = 16,
) -> rd.Dataset:
    """Per-group min-max feature scaling:
    ``(x − min_g) / (max_g − min_g)`` (constant groups scale to 0.0).
    One combiner-backed exchange_agg computes the O(groups) fence table,
    which rides a broadcast into a pure map — the fact stream never
    shuffles (same economics as iqr_outliers).  Raises above
    ``max_groups`` groups; past that attach the fences with an
    ``exchange_join`` on the key instead of a driver broadcast."""
    import ray

    from .exchange import exchange_agg

    fences_ds = exchange_agg(
        ds.select_columns([key_col, value_col]), key_col,
        [(value_col, "min", "_mn"), (value_col, "max", "_mx")],
        num_partitions=num_partitions).materialize()
    if fences_ds.count() > max_groups:
        raise ValueError(
            f"minmax_scale: {fences_ds.count()} groups exceeds "
            f"max_groups={max_groups}; attach fences via exchange_join "
            "at that cardinality instead of a driver broadcast")
    fences = fences_ds.to_pandas()
    mn = dict(zip(fences[key_col], fences["_mn"].astype(np.float64)))
    mx = dict(zip(fences[key_col], fences["_mx"].astype(np.float64)))
    ref = ray.put((mn, mx))
    cache: dict = {}

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        st = cache.get("s")
        if st is None:
            st = cache["s"] = ray.get(ref)
        lo = b[key_col].map(st[0]).to_numpy(np.float64)
        hi = b[key_col].map(st[1]).to_numpy(np.float64)
        v = b[value_col].to_numpy(np.float64)
        rng = hi - lo
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(rng > 0, (v - lo) / rng, 0.0)
        return b.assign(**{out_col: out})

    return ds.map_batches(fn, batch_format="pandas")


def target_encode_loo(
    ds: rd.Dataset,
    *,
    key_col: str,
    target_col: str,
    out_col: str = "te",
    max_groups: int = 2_000_000,
    num_partitions: int = 16,
) -> rd.Dataset:
    """Leave-one-out target encoding — the leakage-safe categorical
    encoder: each row gets ``(Σ_g target − own target) / (n_g − 1)``;
    singleton groups get NaN (no information without leakage).  Same
    broadcast shape as :func:`minmax_scale`: one O(groups) sum/count
    exchange, then a pure map — and the same ``max_groups`` guard
    (exchange_join the stats past it)."""
    import ray

    from .exchange import exchange_agg

    stats_ds = exchange_agg(
        ds.select_columns([key_col, target_col]), key_col,
        [(target_col, "sum", "_s"), (target_col, "count", "_n")],
        num_partitions=num_partitions).materialize()
    if stats_ds.count() > max_groups:
        raise ValueError(
            f"target_encode_loo: {stats_ds.count()} groups exceeds "
            f"max_groups={max_groups}; attach stats via exchange_join "
            "at that cardinality instead of a driver broadcast")
    stats = stats_ds.to_pandas()
    sm = dict(zip(stats[key_col], stats["_s"].astype(np.float64)))
    nm = dict(zip(stats[key_col], stats["_n"].astype(np.float64)))
    ref = ray.put((sm, nm))
    cache: dict = {}

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        st = cache.get("s")
        if st is None:
            st = cache["s"] = ray.get(ref)
        s = b[key_col].map(st[0]).to_numpy(np.float64)
        n = b[key_col].map(st[1]).to_numpy(np.float64)
        v = b[target_col].to_numpy(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(n > 1, (s - v) / (n - 1.0), np.nan)
        return b.assign(**{out_col: out})

    return ds.map_batches(fn, batch_format="pandas")


def merge_agg_states(
    states: list[rd.Dataset],
    keys: list[str] | str,
    aggs: list[tuple[str, str]],
    *,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Incremental view maintenance: merge per-key aggregate STATE
    tables (outputs of ``exchange_agg`` with decomposable fns) from a
    base materialization and one or more delta batches — the nightly
    refresh that never recomputes the base.  ``aggs`` names each state
    column and its ORIGINAL fn; merging maps min→min, max→max,
    sum→sum, count→sum (partial counts add).  Merge volume is
    O(Σ state rows) — independent of the raw row count the states
    summarize, which is the whole point at 100 TB.
    """
    from .exchange import exchange_agg

    fn_map = {"min": "min", "max": "max", "sum": "sum", "count": "sum"}
    merged_aggs = [(c, fn_map[f], c) for c, f in aggs]
    # each state is one source of the exchange
    return exchange_agg(list(states), keys, merged_aggs,
                        num_partitions=num_partitions)


def auc_score(
    ds: rd.Dataset,
    *,
    score_col: str,
    label_col: str,
    max_distinct: int = 2_000_000,
    num_partitions: int = 64,
) -> pd.DataFrame:
    """Distributed ROC AUC without a global sort: the Mann–Whitney U
    identity over the per-score-value (pos, neg) count table,

        2·U = Σ_s [ 2·pos(s)·negBelow(s) + pos(s)·neg(s) ]
        AUC = U / (P·N)

    (the middle term is the standard ½ tie credit) — every statistic is
    an INTEGER until the final division, so the result is exact on any
    engine/partitioning; 2·U stays below 2⁶³ for P·N < 4.6e18.

    Scale shape: ONE score-keyed ``exchange_agg`` (per-batch combiner
    — at most one row per distinct score per batch moves) builds the
    (score, pos, neg) table; the cumulative-below walk happens on that
    table, bounded by DISTINCT SCORES, not rows (``max_distinct`` guard
    raises past ~32 MB; at higher cardinality bucket the scores first —
    AUC over quantized scores is the standard practice).  Returns one
    row (n_pos, n_neg, u2, auc).
    """
    from .exchange import exchange_agg

    def val_counts(batch: pa.Table) -> pa.Table:
        s = batch.column(score_col).to_numpy(zero_copy_only=False)
        y = batch.column(label_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        if np.isnan(s.astype(np.float64)).any():
            raise ValueError(f"auc_score: NaN in {score_col}")
        df = (pd.DataFrame({"s": s, "pos": y, "neg": 1 - y})
              .groupby("s", sort=False).sum().reset_index())
        return pa.table({
            "s": pa.array(df["s"].to_numpy(np.float64), pa.float64()),
            "pos": pa.array(df["pos"].to_numpy(np.int64), pa.int64()),
            "neg": pa.array(df["neg"].to_numpy(np.int64), pa.int64())})

    vc = exchange_agg(
        ds.map_batches(val_counts, batch_format="pyarrow"),
        "s", [("pos", "sum", "pos"), ("neg", "sum", "neg")],
        num_partitions=num_partitions).to_pandas()
    if len(vc) > max_distinct:
        raise ValueError(
            f"auc_score: {len(vc)} distinct scores exceeds "
            f"max_distinct={max_distinct}; bucket scores first")
    vc = vc.sort_values("s").reset_index(drop=True)
    pos = vc["pos"].to_numpy(np.int64)
    neg = vc["neg"].to_numpy(np.int64)
    neg_below = np.concatenate([[0], np.cumsum(neg)[:-1]])
    u2 = int((2 * pos * neg_below + pos * neg).sum())
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    auc = (u2 * 1.0 / (2.0 * (n_pos * n_neg))
           if n_pos and n_neg else 0.0)
    return pd.DataFrame({
        "n_pos": pd.Series([n_pos], dtype="int64"),
        "n_neg": pd.Series([n_neg], dtype="int64"),
        "u2": pd.Series([u2], dtype="int64"),
        "auc": pd.Series([auc], dtype="float64")})


def psi_bins(
    ds: rd.Dataset,
    *,
    value_col: str,
    group_col: str,
    a_value,
    b_value,
    lo: float,
    hi: float,
    bins: int = 10,
    num_partitions: int = 16,
) -> pd.DataFrame:
    """Population-stability-index drift report between two slices of a
    numeric column — the train/serve monitoring staple:

        PSI = Σ_bins (p_i − q_i) · ln(p_i / q_i)

    over ``bins`` equal-width bins of [lo, hi) (values clipped into the
    edge bins), with add-one smoothing p = (n_a+1)/(A+bins) so empty
    bins stay finite and the arithmetic replays exactly in SQL.
    Returns one row per bin: (bin, n_a, n_b, psi_term) — counts are
    INTEGER-exact on any partitioning, psi_term is one per-row float
    expression; PSI = Σ psi_term.

    Scale shape: one streaming pass into per-batch (bin, slice) count
    partials (≤ 2·bins rows per batch) and ONE bin exchange; the
    bins-row result is inherently bounded.  PSI > 0.2 is the usual
    "investigate" threshold.
    """
    from .exchange import exchange_agg

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[value_col].to_numpy(np.float64)
        g = batch[group_col]
        in_a = (g == a_value).to_numpy()
        in_b = (g == b_value).to_numpy()
        keep = in_a | in_b
        if not keep.any():
            return pd.DataFrame({"bin": pd.Series(dtype="int64"),
                                 "n_a": pd.Series(dtype="int64"),
                                 "n_b": pd.Series(dtype="int64")})
        v = v[keep]
        if np.isnan(v).any():
            raise ValueError(f"psi_bins: NaN in {value_col}")
        b = np.floor((v - lo) / (hi - lo) * bins).astype(np.int64)
        b = np.clip(b, 0, bins - 1)
        return (pd.DataFrame({"bin": b,
                              "n_a": in_a[keep].astype(np.int64),
                              "n_b": in_b[keep].astype(np.int64)})
                .groupby("bin", sort=False).sum().reset_index())

    cnt = exchange_agg(
        ds.map_batches(partials, batch_format="pandas",
                       batch_size=65536),
        "bin", [("n_a", "sum", "n_a"), ("n_b", "sum", "n_b")],
        num_partitions=min(num_partitions, bins),
        combine=False).to_pandas()
    full = pd.DataFrame({"bin": np.arange(bins, dtype=np.int64)})
    cnt = (full.merge(cnt, on="bin", how="left").fillna(0))
    na = cnt["n_a"].to_numpy(np.int64)
    nb = cnt["n_b"].to_numpy(np.int64)
    a_tot, b_tot = int(na.sum()), int(nb.sum())
    p = (na + 1.0) / (a_tot + float(bins))
    q = (nb + 1.0) / (b_tot + float(bins))
    term = (p - q) * np.log(p / q)
    return pd.DataFrame({
        "bin": cnt["bin"].astype("int64"),
        "n_a": pd.Series(na, dtype="int64"),
        "n_b": pd.Series(nb, dtype="int64"),
        "psi_term": pd.Series(term, dtype="float64")})


def calibration_bins(
    ds: rd.Dataset,
    *,
    score_col: str,
    label_col: str,
    bins: int = 10,
    num_partitions: int = 16,
) -> pd.DataFrame:
    """Reliability diagram (calibration curve) for a probabilistic
    score in [0, 1]: per equal-width score bin, how often is the label
    actually positive?  The third leg of the on-engine eval family —
    AUC measures discrimination, PSI measures drift, this measures
    calibration (a model can ace both and still say "90%" when it
    means 60%).

    Returns one row per NON-EMPTY bin: (bin, n, n_pos, frac_pos,
    avg_score) — bins with zero scores are omitted (frac_pos/avg_score
    are 0/0 there; reindex against range(bins) for a dense axis —
    unlike psi_bins, where zero-count bins carry distribution mass and
    are emitted).  n/n_pos are INTEGER-exact; avg_score folds a float
    score sum whose partition-order drift callers round away (the
    repo's 6dp convention).

    Scale shape: one streaming pass into ≤ bins count partials per
    batch + one bin exchange; the bins-row result is inherently
    bounded.
    """
    from .exchange import exchange_agg

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[score_col].to_numpy(np.float64)
        if np.isnan(s).any():
            raise ValueError(f"calibration_bins: NaN in {score_col}")
        y = batch[label_col].to_numpy(np.int64)
        b = np.clip(np.floor(s * bins).astype(np.int64), 0, bins - 1)
        return (pd.DataFrame({"bin": b, "n": np.ones(len(b), np.int64),
                              "n_pos": y, "sum_score": s})
                .groupby("bin", sort=False).sum().reset_index())

    cnt = exchange_agg(
        ds.map_batches(partials, batch_format="pandas",
                       batch_size=65536),
        "bin", [("n", "sum", "n"), ("n_pos", "sum", "n_pos"),
                ("sum_score", "sum", "sum_score")],
        num_partitions=min(num_partitions, bins),
        combine=False).to_pandas()
    cnt = cnt.sort_values("bin").reset_index(drop=True)
    n = cnt["n"].to_numpy(np.int64)
    npos = cnt["n_pos"].to_numpy(np.int64)
    ss = cnt["sum_score"].to_numpy(np.float64)
    return pd.DataFrame({
        "bin": cnt["bin"].astype("int64"),
        "n": pd.Series(n, dtype="int64"),
        "n_pos": pd.Series(npos, dtype="int64"),
        "frac_pos": pd.Series(npos * 1.0 / n, dtype="float64"),
        "avg_score": pd.Series(ss / n, dtype="float64")})


def sampled_quantiles(
    ds: rd.Dataset,
    *,
    id_col: str,
    key_col: str,
    value_col: str,
    rate: float = 0.25,
    qs: list[float] = (0.5, 0.95),
    n_bins: int = 2048,
) -> pd.DataFrame:
    """Quantile ESTIMATION via deterministic hash-threshold sampling:
    keep a row iff ``splitmix64(id) < rate·2^64`` (the bottom-rate /
    mix_sources rule — mergeable across shards, stable under reruns and
    corpus growth, no RNG state), then compute EXACT per-group
    quantiles of the sample with :func:`group_quantiles_exact`.

    This is the practical sketch at 10^12 rows: the sample is
    rate-proportional, the estimate error is the classic
    O(1/sqrt(rate·n)) order-statistic bound, and — unlike GK/t-digest,
    whose merge state depends on arrival order — every byte of the
    computation is deterministic, so a SQL replay (same hash chain,
    same quantile_cont) matches bit-for-bit rather than within
    tolerance.  The sample is materialized once (rate·n rows) so the
    three quantile passes scan it, not the corpus.
    """
    if not (0.0 < rate <= 1.0):
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    thr_int = int(rate * float(2**64))
    full = thr_int >= 2**64          # rate 1.0: keep everything
    thr = np.uint64(0) if full else np.uint64(thr_int)

    def keep(t: pa.Table) -> pa.Table:
        if full:
            return t
        ids = t.column(id_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        m = splitmix64(ids.astype(np.int64)) < thr
        return t.filter(pa.array(m))

    sample = ds.map_batches(keep, batch_format="pyarrow").materialize()
    return group_quantiles_exact(sample, key_col=key_col,
                                 value_col=value_col, qs=list(qs),
                                 n_bins=n_bins)


def benford_audit(
    ds: rd.Dataset,
    *,
    key_col: str = "event_type",
    value_col: str = "value",
    num_partitions: int = 16,
) -> rd.Dataset:
    """Benford's-law first-digit audit per key — the classic
    fabricated-data / instrumentation-bug detector for monetary-shaped
    columns.  Values are fixed to integer cents (``floor(value*100)``,
    an IEEE multiply + floor both engines reproduce bit-for-bit; rows
    with cents <= 0 are excluded), the first significant digit is
    extracted by INTEGER repeated division (never float log10, whose
    rounding at powers of ten is engine-dependent), and each
    (key, digit) row carries the observed count, the Benford-expected
    count ``total * log10(1 + 1/d)`` and its chi-square term.

    Shape: per-batch pyarrow combiner on (key, digit) -> ONE key-hash
    exchange -> per-partition vectorized finalize (per-key totals via
    groupby.transform).  Output is O(keys x 9).
    """
    def partial(batch: pa.Table) -> pd.DataFrame:
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0)
        ok = cents > 0
        d = cents[ok].astype(np.int64)
        # first significant digit via integer division — exact
        while True:
            big = d >= 10
            if not big.any():
                break
            d[big] //= 10
        t = pa.table({key_col: batch.column(key_col).take(
                          pa.array(np.flatnonzero(ok), pa.int64())),
                      "digit": pa.array(d, pa.int64())})
        return (t.group_by([key_col, "digit"])
                .aggregate([([], "count_all")]).to_pandas()
                .rename(columns={"count_all": "n"}))

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.groupby([key_col, "digit"], sort=False, as_index=False)
             ["n"].sum())
        total = (g.groupby(key_col, sort=False)["n"]
                 .transform("sum").to_numpy(np.float64))
        dig = g["digit"].to_numpy(np.float64)
        expected = total * np.log10(1.0 + 1.0 / dig)
        obs = g["n"].to_numpy(np.float64)
        chi2 = (obs - expected) * (obs - expected) / expected
        return pd.DataFrame({
            key_col: g[key_col],
            "digit": g["digit"].astype("int64"),
            "n": g["n"].astype("int64"),
            "expected_n": expected,
            "chi2_term": chi2})

    return keyed_apply(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        key_col, per_part, num_partitions=num_partitions)


def kmv_distinct(
    ds: rd.Dataset,
    *,
    key_col: str = "event_type",
    id_col: str = "user_id",
    k: int = 64,
    num_partitions: int = 32,
) -> rd.Dataset:
    """KMV (k-minimum-values) distinct-count sketch per key (Bar-Yossef
    et al. 2002; Beyer et al. 2007): keep the ``k`` smallest DISTINCT
    ``splitmix64(id)`` hashes per key; when >= k survive the estimate is
    ``(k-1) * 2^64 / h_(k)`` (h_(k) = the k-th smallest), else the exact
    surviving count.  The HLL alternative when the consumer needs the
    sample itself (the k minima ARE a uniform distinct-value sample) or
    an estimator that is INTEGER-exact until the single final division —
    the whole replay is bit-for-bit in SQL, unlike any float-register
    sketch.  Mergeable: union = concat + re-take k smallest; state is
    bounded at k hashes per key.

    Shape: per-batch vectorized partial (distinct hashes per key, local
    k-smallest via one lexsort) -> ONE key-hash exchange (volume <=
    batches x keys x k rows regardless of cardinality) -> per-partition
    identical reduce -> O(keys) rows out: (key, n_kept, kth_hash as
    decimal string — uint64 doesn't fit the int64 lane — and estimate).
    """

    def _k_smallest(key: pd.Series, hv: np.ndarray) -> pd.DataFrame:
        df = pd.DataFrame({key_col: key.to_numpy(),
                           "_hv": hv}).drop_duplicates()
        df = df.sort_values([key_col, "_hv"], kind="mergesort")
        rank = df.groupby(key_col, sort=False).cumcount()
        return df[rank < k].reset_index(drop=True)

    def partial(batch: pa.Table) -> pd.DataFrame:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        hv = splitmix64(ids.astype(np.int64))
        return _k_smallest(batch.column(key_col).to_pandas(), hv)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = _k_smallest(g[key_col], g["_hv"].to_numpy())
        agg = (g.groupby(key_col, sort=False)["_hv"]
               .agg(n_kept="size", kth="max").reset_index())
        n_kept = agg["n_kept"].to_numpy(np.int64)
        kth = agg["kth"].to_numpy(np.uint64)
        est = np.where(
            n_kept >= k,
            (k - 1) * 2.0 ** 64 / kth.astype(np.float64),
            n_kept.astype(np.float64))
        return pd.DataFrame({
            key_col: agg[key_col],
            "n_kept": n_kept,
            "kth_hash": [str(int(h)) for h in kth],
            "est_distinct": est})

    return keyed_apply(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        key_col, per_part, num_partitions=num_partitions)


def robust_zscore(
    ds: rd.Dataset,
    *,
    key_col: str = "event_type",
    value_col: str = "value",
    id_col: str = "event_id",
    z_thresh: float = 3.5,
    n_bins: int = 2048,
) -> rd.Dataset:
    """Per-key robust z-scores via median/MAD (Iglewicz & Hoaglin 1993's
    modified z, constant 0.6745) — the outlier detector that survives
    the heavy tails and contamination that wreck mean/sigma z-scores
    (one 10^9 sentinel value shifts a mean z arbitrarily; it moves a
    median not at all).

    Two exact-quantile passes through :func:`group_quantiles_exact`
    (numpy 'linear' == SQL ``quantile_cont``; histogram-locate, no
    global sort): pass 1 the per-key median of ``value_col``; pass 2
    the per-key median of |x - med|.  Both medians are rounded to 6dp
    BEFORE use (half-away, DuckDB's round) so the downstream arithmetic
    is engine-exact even when a last-ulp interpolation difference would
    otherwise cascade.  Medians/MADs are O(keys) driver rows broadcast
    into the final pure map, which emits per-row
    ``rz = 0.6745 * (x - med) / mad`` (0 when MAD = 0) and
    ``outlier = |rz| > z_thresh``.
    """
    def _r6(x: np.ndarray) -> np.ndarray:
        return _round6(x)

    med_df = group_quantiles_exact(ds, key_col=key_col,
                                   value_col=value_col, qs=[0.5],
                                   n_bins=n_bins)
    med = {key: float(_r6(np.asarray([v]))[0])
           for key, v in zip(med_df[key_col], med_df["q_0.5"])}

    def absdev(b: pd.DataFrame) -> pd.DataFrame:
        m = b[key_col].map(med).to_numpy(np.float64)
        return pd.DataFrame({
            key_col: b[key_col],
            "_ad": np.abs(b[value_col].to_numpy(np.float64) - m)})

    mad_df = group_quantiles_exact(
        ds.map_batches(absdev, batch_format="pandas"),
        key_col=key_col, value_col="_ad", qs=[0.5], n_bins=n_bins)
    mad = {key: float(_r6(np.asarray([v]))[0])
           for key, v in zip(mad_df[key_col], mad_df["q_0.5"])}

    def score(b: pd.DataFrame) -> pd.DataFrame:
        x = b[value_col].to_numpy(np.float64)
        m = b[key_col].map(med).to_numpy(np.float64)
        s = b[key_col].map(mad).to_numpy(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            rz = 0.6745 * (x - m) / s
        rz = np.where(s == 0.0, 0.0, rz)
        return pd.DataFrame({
            id_col: b[id_col],
            key_col: b[key_col],
            value_col: x,
            "rz": rz,
            "outlier": np.abs(rz) > z_thresh})

    return ds.map_batches(score, batch_format="pandas",
                          batch_size=65536)


def weighted_quantile(
    ds: rd.Dataset,
    *,
    key_col: str,
    value_col: str,
    weight_col: str,
    qs: tuple[float, ...] = (0.5,),
    num_partitions: int = 32,
) -> rd.Dataset:
    """Weighted type-1 (lower) quantiles per key: q_w = the smallest
    value v whose INCLUSIVE cumulative weight reaches q x total — the
    "median doc length weighted by tokens" shape, where every unit of
    weight (token, byte, dollar) counts equally instead of every row.

    Weights must be non-negative INTEGERS (raises otherwise): integer
    cumulative sums are order-exact, so the boundary pick is engine-
    independent — a float cumsum's accumulation order would make the
    q x total comparison flaky exactly at the quantile row.  Shape:
    per-batch (key, value)-weight combiner -> ONE key exchange ->
    per-partition vectorized walk (sort + groupby cumsum + first-hit
    mask, C paths across every key in the partition).  Output one row
    per (key, q): (key, q, value, cum_weight, total_weight).
    """
    from .exchange import exchange_agg

    for q in qs:
        if not 0.0 < q <= 1.0:
            raise ValueError(f"weighted_quantile: q={q} outside (0, 1]")

    def to_pairs(t: pa.Table) -> pa.Table:
        w = t.column(weight_col)
        if not pa.types.is_integer(w.type):
            raise ValueError(
                f"weighted_quantile: {weight_col!r} must be an integer "
                f"column (got {w.type}) — float weights make the "
                f"cumulative-sum boundary engine-dependent")
        wv = w.to_numpy(zero_copy_only=False).astype(np.int64)
        if (wv < 0).any():
            raise ValueError("weighted_quantile: negative weights")
        return pa.table({key_col: t.column(key_col),
                         value_col: t.column(value_col),
                         "_w": pa.array(wv, pa.int64())})

    wsum = exchange_agg(
        ds.map_batches(to_pairs, batch_format="pyarrow"),
        [key_col, value_col], [("_w", "sum", "_w")],
        num_partitions=num_partitions)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.groupby([key_col, value_col], sort=False, as_index=False)
             ["_w"].sum()
             .sort_values([key_col, value_col], kind="mergesort")
             .reset_index(drop=True))
        gb = g.groupby(key_col, sort=False)
        cum = gb["_w"].cumsum().to_numpy(np.int64)
        tot = gb["_w"].transform("sum").to_numpy(np.int64)
        frames = []
        for q in qs:
            target = np.float64(q) * tot.astype(np.float64)
            hit = cum.astype(np.float64) >= target
            # first hit per key: hits are monotone within a key
            prev = pd.Series(hit).groupby(
                g[key_col], sort=False).shift(1, fill_value=False)
            pick = hit & ~prev.to_numpy(bool)
            sel = g[pick]
            frames.append(pd.DataFrame({
                key_col: sel[key_col],
                "q": np.full(len(sel), q),
                value_col: sel[value_col],
                "cum_weight": cum[pick],
                "total_weight": tot[pick]}))
        return pd.concat(frames, ignore_index=True)

    return keyed_apply(wsum, key_col, per_part,
                       num_partitions=num_partitions)


def f2_moment(
    ds: rd.Dataset,
    *,
    id_col: str,
    k: int = 8,
    num_partitions: int = 8,
) -> pd.DataFrame:
    """AMS second-moment (F2) sketch (Alon, Matias & Szegedy 1996) of a
    key column — F2 = Σ_v count(v)² is exactly the SELF-JOIN SIZE on
    that key, the quantity a join planner needs before moving a row
    (the skew-aware complement to :func:`hll-based<...>` distinct
    estimates: HLL says how many keys, F2 says how heavy their
    collisions are).  ``k`` independent ±1 estimators: sign_r(v) =
    ±1 from bit 0 of splitmix64(v·k + r); s_r = Σ_rows sign_r — a
    per-row sum, so each batch contributes k integers regardless of
    size; estimate = mean_r(s_r²), INTEGER-exact until that one mean.

    Returns a k-row driver DataFrame (r, s, est) plus the combined
    mean — O(k) state end-to-end, one pass, no shuffle of data rows.
    """
    from .exchange import exchange_agg

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        s = np.empty(k, np.int64)
        for r in range(k):
            bits = splitmix64(ids * np.int64(k) + np.int64(r)) & np.uint64(1)
            s[r] = 2 * int(bits.sum()) - len(ids)
        return pa.table({"r": pa.array(np.arange(k, dtype=np.int64)),
                         "s": pa.array(s, pa.int64())})

    out = exchange_agg(
        ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=65536),
        "r", [("s", "sum", "s")],
        num_partitions=num_partitions).to_pandas()
    out = out.sort_values("r").reset_index(drop=True)
    out["est"] = out["s"].astype("int64") ** 2  # integer-exact
    # the combined estimator the docstring defines: mean over the k
    # replicate estimates (constant column — the headline F2 number
    # rides with the per-replicate table; review r5)
    out["est_mean"] = float(out["est"].mean())
    return out


def chi2_independence(
    ds: rd.Dataset,
    *,
    col_a: str,
    col_b: str,
    max_cells: int = 1_000_000,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Pearson chi-square test of independence between two categorical
    columns — the categorical leg of the on-engine A/B family (Welch =
    means, PSI = drift, this = association): contingency counts via one
    combiner-backed exchange, then per-cell expected = row_total x
    col_total / N and the chi2 term, plus (r-1)(c-1) degrees of
    freedom on every row.  All inputs to the float expressions are
    exact integers, so the replay is engine-deterministic.

    Cells are O(|A| x |B|) — guarded by ``max_cells`` (the driver
    finalize is O(cells), the distributed pass never is).
    """
    from .exchange import exchange_agg

    counts = exchange_agg(
        ds.map_batches(
            lambda t: pa.table({
                col_a: t.column(col_a), col_b: t.column(col_b),
                "one": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        [col_a, col_b], [("one", "sum", "n")],
        num_partitions=num_partitions).to_pandas()
    if len(counts) > max_cells:
        raise ValueError(
            f"chi2_independence: {len(counts)} cells exceed max_cells="
            f"{max_cells}")
    counts = counts.sort_values([col_a, col_b],
                                kind="mergesort").reset_index(drop=True)
    ra = counts.groupby(col_a, sort=False)["n"].transform("sum")
    cb = counts.groupby(col_b, sort=False)["n"].transform("sum")
    total = int(counts["n"].sum())
    # NOTE: zero-count cells (a value-pair never observed) contribute
    # their full expected count to the true statistic; this streaming
    # form reports OBSERVED cells (the standard sparse convention) and
    # dof from the marginals, which is what the SQL replay computes too
    exp = (ra.to_numpy(np.float64) * cb.to_numpy(np.float64)
           / np.float64(total))
    obs = counts["n"].to_numpy(np.float64)
    dof = (counts[col_a].nunique() - 1) * (counts[col_b].nunique() - 1)
    return pd.DataFrame({
        col_a: counts[col_a], col_b: counts[col_b],
        "n": counts["n"].astype("int64"),
        "expected_n": exp,
        "chi2_term": (obs - exp) * (obs - exp) / exp,
        "dof": np.int64(dof)})


def best_split_gini(
    ds: rd.Dataset,
    *,
    feature_col: str,
    class_col: str,
    max_values: int = 100_000,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Decision-stump split finder (the CART node primitive, gini
    impurity): for every threshold t over an INTEGER-ordinal feature,
    the weighted gini of the (feature <= t) / (feature > t) children
    and the impurity gain vs the parent — all child statistics derive
    from INTEGER prefix counts (Σ n_k and Σ n_k² per side), so every
    float is one fixed expression over exact integers and the argmax
    is engine-deterministic WITHOUT rounding.

    One (feature, class)-count exchange (combiner-backed, volume
    batches x cells); the threshold walk is a driver numpy pass over
    the O(|feature values| x |classes|) pivot, guarded by
    ``max_values``.  Returns one row per candidate threshold
    (thresholds = distinct feature values except the last):
    (threshold, n_left, n_right, gain, is_best) — is_best ties break
    toward the smaller threshold.
    """
    from .exchange import exchange_agg

    counts = exchange_agg(
        ds.map_batches(
            lambda t: pa.table({
                feature_col: t.column(feature_col).cast(pa.int64()),
                class_col: t.column(class_col),
                "one": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        [feature_col, class_col], [("one", "sum", "n")],
        num_partitions=num_partitions).to_pandas()
    if counts[feature_col].nunique() > max_values:
        raise ValueError("best_split_gini: feature cardinality exceeds "
                         f"max_values={max_values}")
    pivot = (counts.pivot_table(index=feature_col, columns=class_col,
                                values="n", aggfunc="sum", fill_value=0)
             .sort_index())
    m = pivot.to_numpy(np.int64)          # values x classes
    vals = pivot.index.to_numpy(np.int64)
    if len(vals) < 2:
        raise ValueError("best_split_gini: need >= 2 feature values")
    cum = np.cumsum(m, axis=0)            # prefix class counts
    tot = cum[-1]                         # per-class totals
    n = int(tot.sum())
    nl = cum.sum(axis=1)[:-1].astype(np.int64)   # left sizes per t
    nr = n - nl
    ssl = (cum[:-1] ** 2).sum(axis=1).astype(np.int64)  # Σ l_k²
    ssr = ((tot[None, :] - cum[:-1]) ** 2).sum(axis=1).astype(np.int64)
    ssp = int((tot ** 2).sum())
    gini_p = 1.0 - ssp / (np.float64(n) * np.float64(n))
    nlf, nrf = nl.astype(np.float64), nr.astype(np.float64)
    gain = (gini_p
            - (nlf / n) * (1.0 - ssl / (nlf * nlf))
            - (nrf / n) * (1.0 - ssr / (nrf * nrf)))
    best = int(np.argmax(gain))           # first max -> smaller value
    return pd.DataFrame({
        "threshold": vals[:-1],
        "n_left": nl, "n_right": nr,
        "gain": gain,
        "is_best": np.arange(len(gain)) == best})


def auc_by_group(
    ds: rd.Dataset,
    *,
    group_col: str,
    score_col: str,
    label_col: str,
    max_distinct: int = 2_000_000,
    num_partitions: int = 64,
) -> pd.DataFrame:
    """Per-slice ROC AUC — :func:`auc_score`'s Mann–Whitney identity
    evaluated independently inside every ``group_col`` slice, the
    sliced-evaluation readout (per-language / per-source / per-cohort
    model quality — a global AUC routinely hides a slice that scores
    at chance).  Identical integer algebra per group: ONE
    (group, score)-keyed combiner exchange, then a vectorized grouped
    cumulative-below walk over the count table (bounded by distinct
    (group, score) pairs, ``max_distinct``-guarded).  Returns one row
    per group: (group, n_pos, n_neg, u2, auc); groups with an empty
    class report auc = 0.0 (the auc_score convention).
    """
    from .exchange import exchange_agg

    def val_counts(batch: pa.Table) -> pa.Table:
        s = batch.column(score_col).to_numpy(zero_copy_only=False)
        y = batch.column(label_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        if np.isnan(s.astype(np.float64)).any():
            raise ValueError(f"auc_by_group: NaN in {score_col}")
        df = (pd.DataFrame({"g": batch.column(group_col).to_pandas(),
                            "s": s, "pos": y, "neg": 1 - y})
              .groupby(["g", "s"], sort=False).sum().reset_index())
        return pa.table({
            "g": pa.array(df["g"]),
            "s": pa.array(df["s"].to_numpy(np.float64), pa.float64()),
            "pos": pa.array(df["pos"].to_numpy(np.int64), pa.int64()),
            "neg": pa.array(df["neg"].to_numpy(np.int64), pa.int64())})

    vc = exchange_agg(
        ds.map_batches(val_counts, batch_format="pyarrow"),
        ["g", "s"], [("pos", "sum", "pos"), ("neg", "sum", "neg")],
        num_partitions=num_partitions).to_pandas()
    if len(vc) > max_distinct:
        raise ValueError(
            f"auc_by_group: {len(vc)} distinct (group, score) pairs "
            f"exceed max_distinct={max_distinct}; bucket scores first")
    vc = vc.sort_values(["g", "s"], kind="mergesort").reset_index(
        drop=True)
    gb = vc.groupby("g", sort=False)
    neg_below = (gb["neg"].cumsum() - vc["neg"]).to_numpy(np.int64)
    pos = vc["pos"].to_numpy(np.int64)
    neg = vc["neg"].to_numpy(np.int64)
    vc["_u2"] = 2 * pos * neg_below + pos * neg
    agg = gb.agg(n_pos=("pos", "sum"), n_neg=("neg", "sum"),
                 u2=("_u2", "sum")).reset_index()
    n_pos = agg["n_pos"].to_numpy(np.int64)
    n_neg = agg["n_neg"].to_numpy(np.int64)
    u2 = agg["u2"].to_numpy(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        auc = u2 * 1.0 / (2.0 * (n_pos * n_neg))
    auc = np.where((n_pos > 0) & (n_neg > 0), auc, 0.0)
    return pd.DataFrame({
        group_col: agg["g"],
        "n_pos": n_pos, "n_neg": n_neg, "u2": u2, "auc": auc})


#: Poisson(1) inverse-CDF thresholds (cumulative e^-1 * sum 1/k!),
#: capped at weight 9 (tail mass ~1e-7); the SQL oracle interpolates
#: repr() of THESE values so both engines compare identical doubles.
POISSON1_CUM: tuple[float, ...] = tuple(
    __import__("math").exp(-1.0)
    * sum(1.0 / __import__("math").factorial(j) for j in range(k + 1))
    for k in range(9)
) + (1.0,)


def poisson_bootstrap(
    ds: rd.Dataset,
    *,
    id_col: str,
    value_col: str,
    replicates: int = 32,
    num_partitions: int = 8,
) -> pd.DataFrame:
    """Streaming Poisson bootstrap of the mean (Chamandy et al. 2012,
    "Estimating uncertainty for massive data streams") — THE
    bootstrap that scales: instead of resampling n rows with
    replacement (needs global ranks + n draws per replicate), every
    row independently gets weight ~ Poisson(1) per replicate, so the
    whole thing is one combiner pass + a ``replicates``-row exchange.

    Determinism: weight = PoissonInvCDF(u) with u =
    splitmix64(id * replicates + b) / 2^64 — replayable anywhere.
    Returns one row per replicate: (replicate, w_sum, wx_sum, mean)
    with w_sum integer-exact, wx_sum/mean rounded 6dp; consumers take
    percentiles of ``mean`` for the CI.
    """
    from .exchange import exchange_agg

    cum = np.asarray(POISSON1_CUM)
    B = int(replicates)

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        x = t.column(value_col).to_numpy(zero_copy_only=False)
        ok = ~np.isnan(x)
        ids, x = ids[ok].astype(np.int64), x[ok].astype(np.float64)
        if not len(ids):
            return pa.table({
                "replicate": pa.array([], pa.int64()),
                "w_sum": pa.array([], pa.int64()),
                "wx_sum": pa.array([], pa.float64())})
        keys = (ids[:, None] * B
                + np.arange(B, dtype=np.int64)[None, :]).ravel()
        u = splitmix64(keys).astype(np.float64) / 2.0 ** 64
        w = np.searchsorted(cum, u, side="right").reshape(-1, B)
        return pa.table({
            "replicate": pa.array(np.arange(B, dtype=np.int64)),
            "w_sum": pa.array(w.sum(axis=0).astype(np.int64)),
            "wx_sum": pa.array((w * x[:, None]).sum(axis=0),
                               pa.float64())})

    agg = exchange_agg(
        ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=65536),
        "replicate",
        [("w_sum", "sum", "w_sum"), ("wx_sum", "sum", "wx_sum")],
        num_partitions=num_partitions).to_pandas()
    agg = agg.sort_values("replicate").reset_index(drop=True)
    agg["mean"] = np.round(
        agg["wx_sum"].to_numpy() / agg["w_sum"].to_numpy(), 6)
    agg["wx_sum"] = np.round(agg["wx_sum"].to_numpy(), 6)
    agg["w_sum"] = agg["w_sum"].astype("int64")
    agg["replicate"] = agg["replicate"].astype("int64")
    return agg[["replicate", "w_sum", "wx_sum", "mean"]]


def assoc_rules(
    ds: rd.Dataset,
    *,
    basket_col: str,
    item_col: str,
    min_pair_count: int = 2,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Pairwise association rules (Apriori truncated at depth 2 — the
    market-basket readout on top of the co-purchase projection): for
    every DIRECTED rule a -> b whose basket co-occurrence count
    reaches ``min_pair_count``, emit support / confidence / lift.

    support = n_ab / N, confidence = n_ab / n_a,
    lift = confidence / (n_b / N) with N = distinct baskets —
    all counts integer-exact, ratios rounded 6dp with a fixed
    expression tree so any engine replays them.

    Shape: distinct (basket, item) -> per-item counts (one
    exchange_agg) -> basket self exchange_join for a<b pair counts
    (fan-out bounded by basket size — the copurchase contract; hub
    baskets need a degree cap upstream) -> both rule directions ->
    two item-keyed exchange_joins attach n_a / n_b -> pure-map
    metrics.  N is the one driver scalar.
    """
    import pyarrow.compute as pc

    from .exchange import exchange_agg, exchange_join

    d = exchange_agg(
        ds.map_batches(
            lambda t: pa.table({
                "basket": t.column(basket_col).cast(pa.int64()),
                "item": t.column(item_col).cast(pa.int64())}),
            batch_format="pyarrow"),
        ["basket", "item"]).materialize()
    n_baskets = exchange_agg(
        d.map_batches(lambda b: b[["basket"]],
                      batch_format="pandas"),
        ["basket"]).count()
    items = exchange_agg(
        d.map_batches(
            lambda t: pa.table({
                "item": t.column("item"),
                "one": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        "item", [("one", "sum", "n_item")],
        num_partitions=num_partitions).materialize()
    ds_arrow = d.map_batches(
        lambda b: pa.table({
            "basket": pa.array(b["basket"].to_numpy(np.int64)),
            "item": pa.array(b["item"].to_numpy(np.int64))}),
        batch_format="pandas")
    bs = pa.schema([("basket", pa.int64()), ("item", pa.int64())])
    pairs = exchange_join(
        ds_arrow,
        ds_arrow.map_batches(
            lambda t: pa.table({"basket": t.column("basket"),
                                "item_b": t.column("item")}),
            batch_format="pyarrow"),
        on="basket", left_schema=bs,
        right_schema=pa.schema([("basket", pa.int64()),
                                ("item_b", pa.int64())]),
        num_partitions=num_partitions)
    counted = exchange_agg(
        pairs.map_batches(
            lambda t: (lambda f: pa.table({
                "a": f.column("item"), "b": f.column("item_b"),
                "one": pa.array(np.ones(f.num_rows, np.int64))}))(
                t.filter(pc.less(t.column("item"),
                                 t.column("item_b")))),
            batch_format="pyarrow"),
        ["a", "b"], [("one", "sum", "n_ab")],
        num_partitions=num_partitions)
    rules = counted.map_batches(
        lambda t: (lambda f: pa.table({
            "antecedent": pa.chunked_array([
                f.column("a").combine_chunks(),
                f.column("b").combine_chunks()]),
            "consequent": pa.chunked_array([
                f.column("b").combine_chunks(),
                f.column("a").combine_chunks()]),
            "n_ab": pa.chunked_array([
                f.column("n_ab").combine_chunks(),
                f.column("n_ab").combine_chunks()])}))(
            t.filter(pc.greater_equal(t.column("n_ab"),
                                      min_pair_count))),
        batch_format="pyarrow")
    j1 = exchange_join(
        rules.map_batches(
            lambda t: pa.table({"item": t.column("antecedent"),
                                "consequent": t.column("consequent"),
                                "n_ab": t.column("n_ab")}),
            batch_format="pyarrow"),
        items.map_batches(
            lambda b: pa.table({
                "item": pa.array(b["item"].to_numpy(np.int64)),
                "n_a": pa.array(b["n_item"].to_numpy(np.int64))}),
            batch_format="pandas"),
        on="item", num_partitions=num_partitions,
        left_schema=pa.schema([("item", pa.int64()),
                               ("consequent", pa.int64()),
                               ("n_ab", pa.int64())]),
        right_schema=pa.schema([("item", pa.int64()),
                                ("n_a", pa.int64())]))
    j2 = exchange_join(
        j1.map_batches(
            lambda t: pa.table({"item": t.column("consequent"),
                                "antecedent": t.column("item"),
                                "n_ab": t.column("n_ab"),
                                "n_a": t.column("n_a")}),
            batch_format="pyarrow"),
        items.map_batches(
            lambda b: pa.table({
                "item": pa.array(b["item"].to_numpy(np.int64)),
                "n_b": pa.array(b["n_item"].to_numpy(np.int64))}),
            batch_format="pandas"),
        on="item", num_partitions=num_partitions,
        left_schema=pa.schema([("item", pa.int64()),
                               ("antecedent", pa.int64()),
                               ("n_ab", pa.int64()),
                               ("n_a", pa.int64())]),
        right_schema=pa.schema([("item", pa.int64()),
                                ("n_b", pa.int64())]))

    def metrics(t: pa.Table) -> pa.Table:
        n_ab = t.column("n_ab").to_numpy(zero_copy_only=False)
        n_a = t.column("n_a").to_numpy(zero_copy_only=False)
        n_b = t.column("n_b").to_numpy(zero_copy_only=False)
        conf = n_ab / n_a
        return pa.table({
            "antecedent": t.column("antecedent"),
            "consequent": t.column("item"),
            "n_ab": t.column("n_ab"),
            "support": pa.array(np.round(n_ab / n_baskets, 6)),
            "confidence": pa.array(np.round(conf, 6)),
            "lift": pa.array(np.round(conf / (n_b / n_baskets), 6))})

    return j2.map_batches(metrics, batch_format="pyarrow")


def did_estimate(
    ds: rd.Dataset,
    *,
    treat_col: str,
    post_col: str,
    value_col: str,
    num_partitions: int = 4,
) -> pd.DataFrame:
    """Difference-in-differences (Card & Krueger 1994 design): the
    causal-impact readout beside welch_ttest/chi2 — effect =
    (treated post - treated pre) - (control post - control pre),
    with a large-sample SE from the four independent cell variances
    (sqrt of Σ s²_g / n_g).

    One combiner exchange carries four (treat, post) cells of
    (n, Σx, Σx²) — integer/float partials, O(1) state per batch;
    the estimate is driver arithmetic over 4 rows.  Cell means/vars
    rounded 6dp BEFORE the differencing (the robust_zscore
    convention) so the estimate replays identically in SQL.
    Returns one row: (mean_t_pre, mean_t_post, mean_c_pre,
    mean_c_post, did, se, t_stat) + the four cell counts.
    """
    from .exchange import exchange_agg

    def partial(t: pa.Table) -> pa.Table:
        x = t.column(value_col).to_numpy(zero_copy_only=False)
        tr = t.column(treat_col).to_numpy(zero_copy_only=False)
        po = t.column(post_col).to_numpy(zero_copy_only=False)
        ok = ~np.isnan(x)
        x, tr, po = x[ok], tr[ok].astype(bool), po[ok].astype(bool)
        cell = tr.astype(np.int64) * 2 + po.astype(np.int64)
        n = np.zeros(4, np.int64)
        sx = np.zeros(4)
        sxx = np.zeros(4)
        np.add.at(n, cell, 1)
        np.add.at(sx, cell, x)
        np.add.at(sxx, cell, x * x)
        return pa.table({
            "cell": pa.array(np.arange(4, dtype=np.int64)),
            "n": pa.array(n), "sx": pa.array(sx),
            "sxx": pa.array(sxx)})

    agg = exchange_agg(
        ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=65536),
        "cell", [("n", "sum", "n"), ("sx", "sum", "sx"),
                 ("sxx", "sum", "sxx")],
        num_partitions=num_partitions).to_pandas()
    agg = agg.set_index("cell")
    stats = {}
    for c in range(4):
        n = int(agg.loc[c, "n"]) if c in agg.index else 0
        if n < 2:
            raise ValueError(f"did_estimate: cell {c} has n={n} < 2")
        sx = float(agg.loc[c, "sx"])
        sxx = float(agg.loc[c, "sxx"])
        mean = round(sx / n, 6)
        var = round((sxx - sx * sx / n) / (n - 1), 6)
        stats[c] = (n, mean, var)
    # cell = treat*2 + post: 0=c_pre 1=c_post 2=t_pre 3=t_post
    did = round((stats[3][1] - stats[2][1])
                - (stats[1][1] - stats[0][1]), 6)
    se = round(float(np.sqrt(sum(
        stats[c][2] / stats[c][0] for c in range(4)))), 6)
    return pd.DataFrame([{
        "n_c_pre": stats[0][0], "n_c_post": stats[1][0],
        "n_t_pre": stats[2][0], "n_t_post": stats[3][0],
        "mean_c_pre": stats[0][1], "mean_c_post": stats[1][1],
        "mean_t_pre": stats[2][1], "mean_t_post": stats[3][1],
        "did": did, "se": se,
        "t_stat": round(did / se, 6) if se > 0 else 0.0}])


def _ntile(order_key: np.ndarray, tiebreak: np.ndarray,
           n_tiles: int) -> np.ndarray:
    """Exact SQL NTILE over (order_key asc, tiebreak asc): first
    ``N % n`` tiles get the extra row — bit-identical to the window
    function, vectorized."""
    n = len(order_key)
    order = np.lexsort((tiebreak, order_key))
    base, rem = divmod(n, n_tiles)
    sizes = np.full(n_tiles, base, np.int64)
    sizes[:rem] += 1
    bounds = np.cumsum(sizes)
    tile_of_pos = np.searchsorted(bounds, np.arange(n), side="right") + 1
    out = np.empty(n, np.int64)
    out[order] = tile_of_pos
    return out


def rfm_segments(
    orders: rd.Dataset,
    *,
    cust_col: str = "o_custkey",
    ts_col: str = "o_orderdate",
    value_col: str = "o_totalprice",
    n_tiles: int = 5,
    max_customers: int = 5_000_000,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """RFM customer segmentation (Hughes 1994): recency / frequency /
    monetary scored into exact NTILE quintiles (ascending, so
    ``n_tiles`` = best on every axis), segment = R*100 + F*10 + M.

    Per-customer aggregates reduce through one combiner exchange;
    scoring is a driver rank pass over the CUSTOMER DIMENSION
    (bounded — guarded by ``max_customers``; at 10^9 customers the
    rank scores become quantile_bucket thresholds instead).  NTILE
    ties break on the customer key, bit-identical to the SQL window.
    Returns (cust, last_day, n_orders, revenue, r_score, f_score,
    m_score, segment).
    """
    from .exchange import exchange_agg

    def partial(t: pa.Table) -> pa.Table:
        day = (t.column(ts_col).cast(pa.timestamp("us"))
               .cast(pa.int64()).to_numpy(zero_copy_only=False)
               // 86_400_000_000)
        return pa.table({
            "cust": t.column(cust_col).cast(pa.int64()),
            "day": pa.array(day, pa.int64()),
            "one": pa.array(np.ones(t.num_rows, np.int64)),
            "val": t.column(value_col).cast(pa.float64())})

    agg = exchange_agg(
        orders.map_batches(partial, batch_format="pyarrow"),
        "cust",
        [("day", "max", "last_day"), ("one", "sum", "n_orders"),
         ("val", "sum", "revenue")],
        num_partitions=num_partitions).to_pandas()
    if len(agg) > max_customers:
        raise ValueError(
            f"rfm_segments: {len(agg)} customers exceeds "
            f"max_customers={max_customers}; use quantile_bucket "
            f"thresholds for the scores at this scale")
    agg = agg.sort_values("cust").reset_index(drop=True)
    cust = agg["cust"].to_numpy(np.int64)
    agg["revenue"] = np.round(agg["revenue"].to_numpy(), 2)
    agg["r_score"] = _ntile(agg["last_day"].to_numpy(np.int64),
                            cust, n_tiles)
    agg["f_score"] = _ntile(agg["n_orders"].to_numpy(np.int64),
                            cust, n_tiles)
    agg["m_score"] = _ntile(agg["revenue"].to_numpy(), cust, n_tiles)
    agg["segment"] = (agg["r_score"] * 100 + agg["f_score"] * 10
                      + agg["m_score"]).astype("int64")
    for c in ("cust", "last_day", "n_orders"):
        agg[c] = agg[c].astype("int64")
    return agg[["cust", "last_day", "n_orders", "revenue", "r_score",
                "f_score", "m_score", "segment"]]


def abc_analysis(
    ds: rd.Dataset,
    *,
    key_col: str,
    value_col: str,
    a_share: float = 0.8,
    b_share: float = 0.95,
    max_keys: int = 10_000_000,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """ABC / Pareto analysis: keys sorted by value descending, class A
    while the cumulative share <= ``a_share``, B while <= ``b_share``,
    else C — the inventory-management 80/15/5 cut.

    One combiner exchange reduces per-key values; the ranked
    cumulative pass runs on the driver over the KEY DIMENSION
    (bounded, guarded).  Per-key values are rounded 2dp BEFORE the
    total/cumsum so shares are engine-exact (sums of 2dp values in
    the same (value desc, key asc) order); cum_share rounds 9dp
    before the class compare.  Returns (key, value, cum_share,
    abc_class).
    """
    from .exchange import exchange_agg

    agg = exchange_agg(
        ds.map_batches(
            lambda t: pa.table({
                "key": t.column(key_col).cast(pa.int64()),
                "val": t.column(value_col).cast(pa.float64())}),
            batch_format="pyarrow"),
        "key", [("val", "sum", "value")],
        num_partitions=num_partitions).to_pandas()
    if len(agg) > max_keys:
        raise ValueError(
            f"abc_analysis: {len(agg)} keys exceeds max_keys="
            f"{max_keys}; range_sort + a distributed prefix sum "
            f"replaces the driver tail at this scale")
    agg["value"] = np.round(agg["value"].to_numpy(), 2)
    agg = (agg.sort_values(["value", "key"], ascending=[False, True])
           .reset_index(drop=True))
    total = float(agg["value"].sum())
    cum = np.round(np.cumsum(agg["value"].to_numpy()) / total, 9)
    cls = np.where(cum <= a_share, "A",
                   np.where(cum <= b_share, "B", "C"))
    agg["cum_share"] = cum
    agg["abc_class"] = cls
    agg["key"] = agg["key"].astype("int64")
    return agg[["key", "value", "cum_share", "abc_class"]]


def group_entropy(
    ds: rd.Dataset,
    *,
    key_col: str,
    cat_col: str,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Shannon entropy of a categorical distribution per key (nats) —
    the behavioral-diversity feature (how varied is a user's event
    mix / a host's content mix).

    Uses the identity H = ln(N) - (Σ n_c ln n_c) / N so ONE
    (key, cat)-count exchange followed by ONE key-keyed exchange_agg
    of (n, n ln n) partials suffices — no per-key probability
    materialization, no second pass.  Category counts are exact;
    entropy rounds 6dp with the identical expression tree in SQL.
    Returns (key, n, n_cats, entropy).
    """
    from .exchange import exchange_agg

    counts = exchange_agg(
        ds.map_batches(
            lambda t: pa.table({
                "k": t.column(key_col).cast(pa.int64()),
                "c": t.column(cat_col).cast(pa.string()),
                "one": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        ["k", "c"], [("one", "sum", "n")],
        num_partitions=num_partitions)

    def partial(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False).astype(
            np.float64)
        return pa.table({
            "k": t.column("k"),
            "n": t.column("n"),
            "nlogn": pa.array(n * np.log(n), pa.float64()),
            "one": pa.array(np.ones(t.num_rows, np.int64))})

    agg = exchange_agg(
        counts.map_batches(partial, batch_format="pyarrow"),
        "k", [("n", "sum", "n"), ("nlogn", "sum", "s"),
              ("one", "sum", "n_cats")],
        num_partitions=num_partitions)

    def finish(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False).astype(
            np.float64)
        s = t.column("s").to_numpy(zero_copy_only=False)
        return pa.table({
            "key": t.column("k"),
            "n": t.column("n"),
            "n_cats": t.column("n_cats"),
            "entropy": pa.array(np.round(np.log(n) - s / n, 6),
                                pa.float64())})

    return agg.map_batches(finish, batch_format="pyarrow")


def gini_coefficient(
    ds: rd.Dataset,
    *,
    key_col: str,
    value_col: str,
    max_keys: int = 10_000_000,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Gini concentration coefficient of per-key value mass — the
    inequality readout beside abc_analysis (how concentrated is
    revenue/traffic over parts/hosts/users).

    G = 2 Σ i·v_i / (n Σ v) - (n + 1) / n over values sorted
    ascending (ties are rank-order invariant: equal values contribute
    the same sum under any permutation, so the key tiebreak is for
    engine determinism only).  Per-key values reduce through one
    combiner exchange and are rounded 2dp; the ranked pass is a
    driver fold over the bounded key dimension (guarded — the
    abc_analysis contract).  Returns one row (n_keys, total, gini
    rounded 9dp).
    """
    from .exchange import exchange_agg

    agg = exchange_agg(
        ds.map_batches(
            lambda t: pa.table({
                "key": t.column(key_col).cast(pa.int64()),
                "val": t.column(value_col).cast(pa.float64())}),
            batch_format="pyarrow"),
        "key", [("val", "sum", "value")],
        num_partitions=num_partitions).to_pandas()
    if len(agg) > max_keys:
        raise ValueError(
            f"gini_coefficient: {len(agg)} keys exceeds max_keys="
            f"{max_keys}; use range_sort + a distributed weighted "
            f"rank sum at this scale")
    v = np.round(agg["value"].to_numpy(), 2)
    order = np.lexsort((agg["key"].to_numpy(np.int64), v))
    v = v[order]
    n = len(v)
    total = float(v.sum())
    ranks = np.arange(1, n + 1, dtype=np.float64)
    gini = round(2.0 * float((ranks * v).sum()) / (n * total)
                 - (n + 1.0) / n, 9)
    return pd.DataFrame([{
        "n_keys": np.int64(n),
        "total": round(total, 2),
        "gini": gini}])


#: two-sided alpha=0.05 / power=0.80 normal quantiles (Abramowitz &
#: Stegun 26.2.23 values, fixed literals shared with the SQL replay)
Z_ALPHA_025 = 1.959963985
Z_BETA_080 = 0.8416212336


def power_analysis(
    ds: rd.Dataset,
    *,
    value_col: str,
    mde_abs: float,
    num_partitions: int = 4,
) -> pd.DataFrame:
    """A/B test sample-size calculation (normal approximation, equal
    arms, two-sided alpha 0.05 / power 0.80): n per arm =
    2 (z_a + z_b)^2 s^2 / delta^2 with s^2 the observed metric
    variance and delta the absolute minimum detectable effect —
    the experiment-planning readout beside welch_ttest/did_estimate.

    One (n, Σx, Σx²) combiner pass; mean/var rounded 6dp, n_per_arm
    = ceil of the closed form.  Returns one row
    (n, mean, var, mde_abs, n_per_arm).
    """
    import math

    from .exchange import exchange_agg

    def partial(t: pa.Table) -> pa.Table:
        x = t.column(value_col).to_numpy(zero_copy_only=False)
        x = x[~np.isnan(x)].astype(np.float64)
        return pa.table({
            "k": pa.array([0], pa.int8()),
            "n": pa.array([len(x)], pa.int64()),
            "sx": pa.array([float(x.sum())], pa.float64()),
            "sxx": pa.array([float((x * x).sum())], pa.float64())})

    a = exchange_agg(
        ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=65536),
        "k", [("n", "sum", "n"), ("sx", "sum", "sx"),
              ("sxx", "sum", "sxx")],
        num_partitions=num_partitions).to_pandas().iloc[0]
    n = int(a["n"])
    if n < 2:
        raise ValueError("power_analysis: need >= 2 rows")
    mean = round(float(a["sx"]) / n, 6)
    var = round((float(a["sxx"]) - float(a["sx"]) ** 2 / n) / (n - 1),
                6)
    z = Z_ALPHA_025 + Z_BETA_080
    n_arm = math.ceil(2.0 * z * z * var / (mde_abs * mde_abs))
    return pd.DataFrame([{
        "n": np.int64(n), "mean": mean, "var": var,
        "mde_abs": float(mde_abs), "n_per_arm": np.int64(n_arm)}])
