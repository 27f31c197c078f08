"""Temporal joins (as-of, range) the reference lacks but a web-scale
event pipeline needs (SURVEY.md §2.5 notes "no range/as-of joins
anywhere" in the reference; the brief names them as first-class custom
operators).

Two execution shapes, mirroring the linker's broadcast/join duality
(stages/kg_stages.py):

- ``asof_join`` / ``range_join_agg``: the general co-partitioned form.
  Both sides are padded to a common Arrow schema, unioned, and moved by
  ONE keyed exchange on the key (``exchange.keyed_exchange``: one
  reduce call per hash PARTITION, not per key — Ray 2.49's
  ``groupby(key).map_groups`` dispatches one Python call per distinct
  key, the 153s-vs-2s pathology documented in NOTES_r3).  Inside each
  partition the merge is ``pd.merge_asof(by=key)``
  — a single Cython pass vectorized across every key in the partition —
  used only to compute MATCH INDICES; payload columns are then gathered
  with Arrow ``take`` so they never round-trip through pandas dtypes.
  Partitioning assumption (same as ``stages/windows.py::sessionize``):
  one partition's rows fit in a worker — raise ``num_partitions`` with
  data size.
- ``asof_join_broadcast``: when the right side is a small dimension
  table, ship it once via ``ray.put`` (per-key presorted arrays) and
  stream the left side through ``map_batches`` — no shuffle at all.

Tie semantics are deterministic: among right rows sharing the maximal
admissible timestamp, the one with the greatest ``tiebreak_col`` wins
(callers replay this in SQL as ``ORDER BY ts DESC, tiebreak DESC ...
rn = 1``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..state import counters
from .exchange import keyed_apply, keyed_exchange, pandas_block

_SIDE = "_side"
_TS64 = "_ts_us"


def _key_scalar(k):
    """Normalize a numpy scalar to its Python value for dict keying; a
    plain Python object (str, int) passes through.  Both the index-build
    and probe sides go through this, so hashing is consistent regardless
    of key dtype (int64, string, …)."""
    return k.item() if isinstance(k, np.generic) else k


def _ts_to_us(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray | pa.Array:
    """Timestamp (any unit) or integer column -> int64 microseconds."""
    if pa.types.is_timestamp(col.type):
        return col.cast(pa.timestamp("us")).cast(pa.int64())
    return col.cast(pa.int64())


def _pad_sides(
    left: rd.Dataset,
    right: rd.Dataset,
    key_col: str,
    left_ts: str,
    right_ts: str,
) -> tuple[list, list[tuple[str, pa.DataType]], list[tuple[str, pa.DataType]]]:
    """The two sides padded to one schema, as the two sources of one
    keyed exchange on ``key_col`` (each side's pad runs in the tasks
    that split its blocks).

    Payload column names must be disjoint between the sides (callers
    project/rename first); the shared key column and one int64 ``_ts_us``
    axis (from each side's own ts column) are the only common fields.
    Returns (sources, left_payload_fields, right_payload_fields).
    """
    from .exchange import as_arrow_schema

    # normalize pandas-block-reported numpy/object dtypes to Arrow types
    # (the cast-to-declared-type below needs real pa.DataType)
    ls, rs = as_arrow_schema(left.schema()), as_arrow_schema(right.schema())
    l_fields = [(n, t) for n, t in zip(ls.names, ls.types) if n not in (key_col, left_ts)]
    r_fields = [(n, t) for n, t in zip(rs.names, rs.types) if n not in (key_col, right_ts)]
    overlap = {n for n, _ in l_fields} & {n for n, _ in r_fields}
    if overlap:
        raise ValueError(f"payload column collision between sides: {sorted(overlap)}")
    reserved = {_TS64, _SIDE} & (set(ls.names) | set(rs.names))
    if reserved:
        raise ValueError(
            f"column names {sorted(reserved)} are reserved by the "
            "temporal-join padding — rename them")
    all_fields = l_fields + r_fields
    key_type = ls.types[ls.names.index(key_col)]

    def pad(ts_name: str, side: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            # cast to the DECLARED types (exchange_join's pad invariant):
            # a large_string block or a narrower int key on one side
            # would otherwise give the two sources different schemas
            cols: dict = {key_col: batch.column(key_col).cast(key_type)}
            cols[_TS64] = _ts_to_us(batch.column(ts_name))
            for name, typ in all_fields:
                # the merges read each side's payload from that side's
                # rows only: the filler is never read
                cols[name] = (batch.column(name).cast(typ)
                              if name in batch.column_names
                              else pa.nulls(n, typ))
            cols[_SIDE] = pa.array(np.full(n, side, np.int8))
            return pa.table(cols)

        return fn

    return ([(left, pad(left_ts, 0)), (right, pad(right_ts, 1))],
            l_fields, r_fields)


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    key_col: str,
    left_ts: str,
    right_ts: str,
    tiebreak_col: str,
    inclusive: bool = True,
    out_left_ts: str | None = None,
    num_partitions: int = 32,
) -> rd.Dataset:
    """For each left row, the single latest right row of the same key with
    ``right_ts <= left_ts`` (``<`` when ``inclusive=False``); unmatched
    left rows are dropped (inner as-of).  Output = key + left payload +
    matched right payload; the left time axis is re-emitted as int64
    microseconds under ``out_left_ts`` (default: ``left_ts``).

    Per partition the match is ONE ``pd.merge_asof(by=key)`` over
    (key, ts, row-position) triples — Cython, vectorized across all keys
    in the partition; payloads are gathered afterwards with Arrow
    ``take`` on the matched positions (typed output, no pandas dtype
    coercion).  Ties on the maximal admissible timestamp resolve to the
    greatest ``tiebreak_col`` (right side pre-sorted by (ts, tiebreak);
    merge_asof takes the LAST positional row among equal timestamps).
    """
    out_ts = out_left_ts or left_ts
    sides, l_fields, r_fields = _pad_sides(left, right, key_col, left_ts,
                                           right_ts)
    l_names = [n for n, _ in l_fields]
    r_names = [n for n, _ in r_fields]

    def merge(g: pa.Table) -> pa.Table:
        mask = pc.equal(g.column(_SIDE), 0)
        L = g.filter(mask)
        R = g.filter(pc.invert(mask))
        empty = {
            key_col: L.column(key_col).slice(0, 0),
            out_ts: pa.array([], pa.int64()),
            **{n: g.column(n).slice(0, 0) for n in l_names + r_names},
        }
        if len(L) == 0 or len(R) == 0:
            return pa.table(empty)
        rdf = pd.DataFrame({
            key_col: R.column(key_col).to_pandas(),
            _TS64: R.column(_TS64).to_numpy(zero_copy_only=False),
            "_tb": R.column(tiebreak_col).to_pandas(),
            "_ri": np.arange(len(R), dtype=np.int64),
        }).sort_values([_TS64, "_tb"], kind="stable").reset_index(drop=True)
        ldf = pd.DataFrame({
            key_col: L.column(key_col).to_pandas(),
            _TS64: L.column(_TS64).to_numpy(zero_copy_only=False),
            "_li": np.arange(len(L), dtype=np.int64),
        }).sort_values(_TS64, kind="stable").reset_index(drop=True)
        m = pd.merge_asof(
            ldf, rdf.drop(columns=["_tb"]), on=_TS64, by=key_col,
            direction="backward", allow_exact_matches=inclusive)
        hit = m["_ri"].notna().to_numpy()
        if not hit.any():
            return pa.table(empty)
        li = pa.array(m["_li"].to_numpy()[hit], pa.int64())
        ri = pa.array(m["_ri"].to_numpy()[hit].astype(np.int64), pa.int64())
        cols = {key_col: L.column(key_col).take(li),
                out_ts: L.column(_TS64).take(li)}
        for n in l_names:
            cols[n] = L.column(n).take(li)
        for n in r_names:
            cols[n] = R.column(n).take(ri)
        return pa.table(cols)

    return keyed_exchange(sides, key_col, merge, num_partitions=num_partitions)


def asof_join_broadcast(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    key_col: str,
    left_ts: str,
    right_ts: str,
    tiebreak_col: str,
    inclusive: bool = True,
    out_left_ts: str | None = None,
    max_right_rows: int = 5_000_000,
) -> rd.Dataset:
    """Shuffle-free as-of join for a SMALL right side: per-key presorted
    time/payload arrays go to the object store once (``ray.put``); every
    left batch resolves its matches locally with ``np.searchsorted``.
    Raises if the right side exceeds ``max_right_rows`` (use
    ``asof_join`` then).  Output schema matches ``asof_join``.
    """
    out_ts = out_left_ts or left_ts
    # materialize the right side as ARROW blocks — right.to_pandas()
    # would already coerce nullable int64 payloads to float64 before
    # the take-based gather can protect them (review r5)
    blocks = ray.get(right.materialize().to_arrow_refs())
    blocks = [b if isinstance(b, pa.Table)
              else pa.Table.from_pandas(b, preserve_index=False)
              for b in blocks]
    rt = pa.concat_tables(blocks).combine_chunks()
    if len(rt) > max_right_rows:
        raise ValueError(
            f"right side has {len(rt)} rows > max_right_rows={max_right_rows}; "
            "use the co-partitioned asof_join")
    r_names = [n for n in rt.column_names if n not in (key_col, right_ts)]
    # sort order computed on (key, ts, tiebreak) only — STABLE, matching
    # asof_join's determinism contract — and the payloads stay an ARROW
    # table gathered by .take(): a pandas round-trip would coerce a
    # nullable int64 payload to float64 and round ids above 2^53
    # (review r5; exchange.merge_part documents the same pitfall)
    key_np = rt.column(key_col).to_numpy(zero_copy_only=False)
    t_np = _ts_to_us(rt.column(right_ts)).to_numpy(zero_copy_only=False)
    order_idx = (pd.DataFrame({
        "_k": key_np, "_t": t_np,
        "_tb": rt.column(tiebreak_col).to_numpy(zero_copy_only=False)})
        .sort_values(["_k", "_t", "_tb"], kind="stable").index
        .to_numpy(np.int64))
    rt_sorted = rt.take(pa.array(order_idx, pa.int64()))
    k_sorted = key_np[order_idx]
    t_sorted = np.ascontiguousarray(t_np[order_idx])
    # per-key slice offsets into the sorted table.  Keys are stored raw
    # (numpy scalar -> .item()) so string / non-numeric key columns work
    # and numeric-strings ('01' vs '1') never collapse — parity with the
    # co-partitioned asof_join, which supports arbitrary key types.
    keys, starts = np.unique(k_sorted, return_index=True)
    bounds = np.append(starts, len(k_sorted))
    index = {_key_scalar(k): (int(bounds[i]), int(bounds[i + 1]))
             for i, k in enumerate(keys)}
    ref = ray.put((index, t_sorted, rt_sorted))
    side = "right" if inclusive else "left"

    def probe(batch: pa.Table) -> pa.Table:
        from .dedup import _worker_obj_cache

        idx_map, rts_all, rt_s = _worker_obj_cache(ref)
        lk = batch.column(key_col).to_numpy(zero_copy_only=False)
        lt = _ts_to_us(batch.column(left_ts)).to_numpy(zero_copy_only=False)
        match = np.full(len(lk), -1, np.int64)
        order = np.argsort(lk, kind="stable")
        sk, sstart = np.unique(lk[order], return_index=True)
        send = np.append(sstart[1:], len(order))
        for j, k in enumerate(sk):
            span = idx_map.get(_key_scalar(k))
            if span is None:
                continue
            lo, hi = span
            rows = order[sstart[j]:send[j]]
            pos = np.searchsorted(rts_all[lo:hi], lt[rows], side=side) - 1
            ok = pos >= 0
            match[rows[ok]] = lo + pos[ok]
        keep = match >= 0
        kept = pa.array(np.flatnonzero(keep), pa.int64())
        L = batch.take(kept)
        cols = {key_col: L.column(key_col),
                out_ts: _ts_to_us(L.column(left_ts))}
        for n in batch.column_names:
            if n not in (key_col, left_ts):
                cols[n] = L.column(n)
        hit = match[keep]
        hit_idx = pa.array(hit, pa.int64())
        for n in r_names:
            col = rt_s.column(n).take(hit_idx)
            cols[n] = (col.combine_chunks()
                       if isinstance(col, pa.ChunkedArray) else col)
        return pa.table(cols)

    return left.map_batches(probe, batch_format="pyarrow")


def range_join_agg(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    key_col: str,
    left_ts: str,
    right_ts: str,
    lower_us: int,
    upper_us: int,
    value_col: str | None = None,
    out_left_ts: str | None = None,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Per left row, aggregate the right rows of the same key whose time
    falls in ``[left_ts + lower_us, left_ts + upper_us)``: emits
    ``n_matched`` (int64) and, when ``value_col`` is given, ``sum_value``
    over the window.  LEFT-join semantics: left rows with no matches get
    n_matched = 0 / sum_value = 0.0.

    Same single hash exchange as ``asof_join``; inside a partition the
    right side gets per-key running (count, sum) columns over the
    ts-sorted frame — pandas ``groupby(...).cumcount()/cumsum()``, both
    Cython kernels vectorized across every key in the partition — and
    each window endpoint resolves with one ``pd.merge_asof(by=key)``:
    with ``F(x)`` = per-key count of rows with ts <= x, the half-open
    window [a, b) over integer-microsecond timestamps is
    ``F(b-1) - F(a-1)`` (the sum is the same difference over the running
    sum).  O((|L|+|R|) log(|L|+|R|)) per partition, no per-key Python
    dispatch, no pairwise expansion (the naive inequality join is
    |L|x|R|).
    """
    out_ts = out_left_ts or left_ts
    sides, l_fields, _ = _pad_sides(left, right, key_col, left_ts, right_ts)
    l_names = [n for n, _ in l_fields]

    def merge(g: pa.Table) -> pa.Table:
        mask = pc.equal(g.column(_SIDE), 0)
        L = g.filter(mask)
        if len(L) == 0:
            return pa.table({
                key_col: g.column(key_col).slice(0, 0),
                out_ts: pa.array([], pa.int64()),
                **{n: g.column(n).slice(0, 0) for n in l_names},
                "n_matched": pa.array([], pa.int64()),
                **({"sum_value": pa.array([], pa.float64())} if value_col else {}),
            })
        R = g.filter(pc.invert(mask))
        lts = L.column(_TS64).to_numpy(zero_copy_only=False)
        n_matched = np.zeros(len(L), np.int64)
        sum_value = np.zeros(len(L), np.float64)
        if len(R):
            rdf = pd.DataFrame({
                key_col: R.column(key_col).to_pandas(),
                _TS64: R.column(_TS64).to_numpy(zero_copy_only=False),
                # null values contribute 0 to the running sum (SQL SUM
                # skips nulls) — leaving NaN in the cumsum would conflate
                # the null row's prefix with "no match" under fillna(0)
                # and silently zero the window sum (review r5).
                # n_matched stays COUNT(*) over the window, by contract.
                **({"_v": np.nan_to_num(
                    R.column(value_col).to_numpy(zero_copy_only=False)
                    .astype(np.float64), nan=0.0)}
                   if value_col else {}),
            }).sort_values(_TS64, kind="stable").reset_index(drop=True)
            grp = rdf.groupby(key_col, sort=False)
            rdf["_cn"] = (grp.cumcount() + 1).astype(np.int64)
            if value_col:
                rdf["_cv"] = grp["_v"].cumsum()
                rdf = rdf.drop(columns=["_v"])
            lkey = L.column(key_col).to_pandas()

            def f_at(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                """Per-key running (count, sum) at time <= x, 0 if none."""
                q = pd.DataFrame({key_col: lkey, _TS64: x,
                                  "_qi": np.arange(len(x), dtype=np.int64)})
                q = q.sort_values(_TS64, kind="stable").reset_index(drop=True)
                m = pd.merge_asof(q, rdf, on=_TS64, by=key_col,
                                  direction="backward",
                                  allow_exact_matches=True)
                qi = m["_qi"].to_numpy()
                cn = np.zeros(len(x), np.int64)
                cn[qi] = m["_cn"].fillna(0).to_numpy().astype(np.int64)
                cv = np.zeros(len(x), np.float64)
                if value_col:
                    cv[qi] = m["_cv"].fillna(0.0).to_numpy()
                return cn, cv

            hi_n, hi_v = f_at(lts + upper_us - 1)
            lo_n, lo_v = f_at(lts + lower_us - 1)
            n_matched = hi_n - lo_n
            sum_value = hi_v - lo_v
        cols = {key_col: L.column(key_col), out_ts: L.column(_TS64)}
        for n in l_names:
            cols[n] = L.column(n)
        cols["n_matched"] = pa.array(n_matched, pa.int64())
        if value_col:
            cols["sum_value"] = pa.array(sum_value, pa.float64())
        return pa.table(cols)

    return keyed_exchange(sides, key_col, merge, num_partitions=num_partitions)


def semi_join_filter(
    ds: rd.Dataset,
    keys: rd.Dataset,
    *,
    key_col: str,
    keys_col: str | None = None,
    anti: bool = False,
    max_keys: int = 5_000_000,
) -> rd.Dataset:
    """Broadcast semi-join (``anti=True`` for anti-join): keep rows of
    ``ds`` whose ``key_col`` is (not) present in the ``keys`` side.

    The scale pattern for "filter a 100 TB fact table by a small key set":
    the distinct key set is collected once (per-batch distinct combiner,
    driver union), broadcast via ``ray.put`` as a SORTED numpy array, and
    each batch filters with a vectorized ``np.isin`` — no shuffle touches
    the big side.  Raises if the key side exceeds ``max_keys`` (at that
    size a shuffle join is the right tool, not a broadcast).

    ``max_keys`` budget: 5M int64 keys ≈ 40 MB resident per worker
    PROCESS (the object-store copy is shared, but ``np.isin``'s sort
    working set is private) plus O(n log k) probe cost per batch.  At
    32 workers that is ~1.3 GB aggregate — acceptable; the old 50M
    default was ~400 MB/worker ≈ 13 GB aggregate, past where a shuffle
    join wins.
    """
    import ray

    kc = keys_col or key_col

    def distinct_keys(batch: pa.Table) -> pa.Table:
        arr = np.unique(batch.column(kc).to_numpy(zero_copy_only=False))
        return pa.table({"k": pa.array(arr)})

    parts = keys.map_batches(distinct_keys, batch_format="pyarrow").to_pandas()
    key_arr = np.unique(parts["k"].to_numpy())
    if len(key_arr) > max_keys:
        raise ValueError(
            f"semi_join_filter: {len(key_arr)} keys exceeds max_keys="
            f"{max_keys}; use a shuffle join for key sets this large")
    ref = ray.put(key_arr)
    cache: dict = {}

    def filt(batch: pa.Table) -> pa.Table:
        ks = cache.get("k")
        if ks is None:
            ks = cache["k"] = ray.get(ref)
        vals = batch.column(key_col).to_numpy(zero_copy_only=False)
        mask = np.isin(vals, ks, invert=anti)
        return batch.filter(pa.array(mask))

    return ds.map_batches(filt, batch_format="pyarrow")


def semi_join_bloom(
    ds: rd.Dataset,
    keys: rd.Dataset,
    *,
    key_col: str,
    keys_col: str | None = None,
    anti: bool = False,
    n_bits: int = 1 << 24,
    n_hashes: int = 2,
    num_partitions: int = 32,
    ds_schema: pa.Schema | None = None,
) -> rd.Dataset:
    """EXACT semi/anti join for key sets past ``semi_join_filter``'s
    broadcast budget: a Bloom filter prunes the big side, then one hash
    exchange verifies the survivors — false positives are removed, so the
    result equals the exact semi/anti join.

    Scale shape: the key side is never collected raw. Each key batch
    sets its n_hashes bit positions locally and emits word-level ORs
    (``(word_idx, bits)`` rows — at most n_bits/64 per batch); one hash
    exchange ORs them into the final bitmap (n_bits/8 bytes, e.g. 2 MB
    at the 2^24 default), which broadcasts via ``ray.put`` regardless of
    key count. The big side streams: definite-miss rows resolve from
    the bitmap alone (kept for anti, dropped for semi); only the
    bloom-maybe rows — true matches + the false-positive fraction
    (~(1 - e^(-kn/m))^k) — enter the verify exchange against the
    distinct key set. With 50M keys the broadcast alternative ships
    400 MB per worker; this ships 2 MB plus a survivors-only shuffle.
    

    ``anti=True`` executes the ``ds`` lineage TWICE (the maybe- and
    miss-side filters are separate consumers) — pass a read-backed or
    materialized ``ds``, the same caveat ``skew_join`` documents.
    """
    from .exchange import (_key_hash, as_arrow_schema, exchange_agg,
                            exchange_join)

    if n_bits & (n_bits - 1):
        raise ValueError("n_bits must be a power of two")
    kc = keys_col or key_col
    n_words = n_bits >> 6
    mask = np.uint64(n_bits - 1)

    def positions(h: np.ndarray) -> np.ndarray:
        """(len(h), n_hashes) bit positions via double hashing."""
        from .analytics import splitmix64

        h2 = splitmix64(h.view(np.int64)) | np.uint64(1)
        out = np.empty((len(h), n_hashes), np.uint64)
        for i in range(n_hashes):
            out[:, i] = (h + np.uint64(i) * h2) & mask
        return out

    def key_words(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # reduceat(empty, [0]) raises IndexError (review r5)
            return pa.table({"word": pa.array([], pa.int64()),
                             "bits": pa.array([], pa.int64())})
        h = _key_hash(pa.table({key_col: batch.column(kc)}), [key_col])
        pos = positions(h).ravel()
        words = (pos >> np.uint64(6)).astype(np.int64)
        bits = (np.uint64(1) << (pos & np.uint64(63)))
        order = np.argsort(words, kind="stable")
        words, bits = words[order], bits[order]
        first = np.concatenate(([True], words[1:] != words[:-1]))
        starts = np.flatnonzero(first)
        ored = np.bitwise_or.reduceat(bits, starts)
        return pa.table({
            "word": pa.array(words[starts], pa.int64()),
            "bits": pa.array(ored.view(np.int64), pa.int64()),
        })

    def or_part(g: pa.Table) -> pa.Table:
        w = g.column("word").to_numpy(zero_copy_only=False)
        b = g.column("bits").to_numpy(zero_copy_only=False).view(np.uint64)
        order = np.argsort(w, kind="stable")
        w, b = w[order], b[order]
        first = np.concatenate(([True], w[1:] != w[:-1]))
        starts = np.flatnonzero(first)
        return pa.table({
            "word": pa.array(w[starts], pa.int64()),
            "bits": pa.array(np.bitwise_or.reduceat(b, starts).view(np.int64),
                             pa.int64()),
        })

    words_df = keyed_exchange(
        keys.map_batches(key_words, batch_format="pyarrow"), "word",
        or_part, num_partitions=num_partitions).to_pandas()
    bitmap = np.zeros(n_words, np.uint64)
    if len(words_df):
        bitmap[words_df["word"].to_numpy()] = \
            words_df["bits"].to_numpy().view(np.uint64)
    bloom_ref = ray.put(bitmap)
    cache: dict = {}

    def bloom_mask(batch: pa.Table) -> np.ndarray:
        bm = cache.get("b")
        if bm is None:
            bm = cache["b"] = ray.get(bloom_ref)
        h = _key_hash(pa.table({key_col: batch.column(key_col)}), [key_col])
        pos = positions(h)
        maybe = np.ones(len(h), bool)
        for i in range(n_hashes):
            p = pos[:, i]
            maybe &= (bm[(p >> np.uint64(6)).astype(np.int64)]
                      & (np.uint64(1) << (p & np.uint64(63)))) != 0
        return maybe

    def keep_maybe(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(bloom_mask(batch)))

    def keep_miss(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(~bloom_mask(batch)))

    schema = as_arrow_schema(
        ds_schema if ds_schema is not None else ds.schema())
    maybe_ds = ds.map_batches(keep_maybe, batch_format="pyarrow")

    # exact verify: distinct keys (renamed to key_col) + a marker column,
    # one exchange join over the bloom survivors only
    def as_marker(batch: pa.Table) -> pa.Table:
        return pa.table({key_col: batch.column(kc),
                         "_hit": pa.array(np.ones(len(batch), np.int8))})

    marked = exchange_agg(
        keys.map_batches(as_marker, batch_format="pyarrow"),
        key_col, [("_hit", "max", "_hit")], num_partitions=num_partitions)
    pa_schema = schema
    key_type = schema.field(key_col).type
    marker_schema = pa.schema([(key_col, key_type), ("_hit", pa.int8())])
    joined = exchange_join(maybe_ds, marked, on=key_col,
                           how="inner" if not anti else "left_outer",
                           num_partitions=num_partitions,
                           left_schema=schema, right_schema=marker_schema)

    def project(batch: pa.Table) -> pa.Table:
        if anti:
            batch = batch.filter(pc.is_null(batch.column("_hit")))
        return pa.table([batch.column(f.name).cast(f.type)
                         for f in pa_schema], schema=pa_schema)

    verified = joined.map_batches(project, batch_format="pyarrow")
    if not anti:
        return verified
    return ds.map_batches(keep_miss, batch_format="pyarrow").union(verified)


def broadcast_join(
    ds: rd.Dataset,
    small,
    *,
    on: str | list[str],
    how: str = "inner",
    max_rows: int = 2_000_000,
) -> rd.Dataset:
    """Generic map-side (broadcast) hash join: join a large Dataset to a
    SMALL side with no shuffle touching the big side.

    The small side (Dataset or DataFrame) is materialized once on the
    driver, broadcast via ``ray.put`` (one shared object-store copy per
    node) and merged into every batch with one vectorized
    ``pandas.merge``.  This is the scale pattern for dimension-table
    enrichment (the 100 TB fact scan keeps streaming; only the
    dimension is resident) — the shuffle alternative
    (``exchange.exchange_join``) is the tool when BOTH sides are large.

    ``how`` is ``inner`` or ``left``.  Duplicate keys on the small side
    replicate rows (standard join semantics).  Raises if the small side
    exceeds ``max_rows`` (2M rows of a few int64/string cols ~ 100-300
    MB resident per worker process after pandas-ification — past that a
    shuffle join wins; same budget reasoning as ``semi_join_filter``).

    Ray 2.49 gotcha, documented for callers: on ``how="left"``,
    unmatched int64 payload columns become float64 + NaN (pandas merge
    semantics).  Cast or fill on the result if downstream needs ints.
    """
    import ray

    if how not in ("inner", "left"):
        raise ValueError(f"broadcast_join: unsupported how={how!r}")
    sm = small.to_pandas() if isinstance(small, rd.Dataset) else small.copy()
    if len(sm) > max_rows:
        raise ValueError(
            f"broadcast_join: small side has {len(sm)} rows > max_rows="
            f"{max_rows}; use exchange_join for sides this large")
    ref = ray.put(sm)

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        from .dedup import _worker_obj_cache

        return batch.merge(_worker_obj_cache(ref), on=on, how=how)

    return ds.map_batches(merge, batch_format="pandas")


def upsert_merge(
    base: rd.Dataset,
    updates: rd.Dataset,
    *,
    key_col: str,
    order_col: str,
    tiebreak_col: str,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Latest-wins keyed merge (the lakehouse MERGE/upsert compaction
    step): union ``base`` and ``updates`` (same schema) and keep, per
    ``key_col``, the single row with the greatest ``(order_col,
    update-wins, tiebreak_col)`` — an update beats a base row at equal
    ``order_col``, and ``tiebreak_col`` (desc) breaks exact ties
    deterministically.

    Scale shape: a block-local winner-per-key combiner runs in the tasks
    that split each source block (at most one row per key per block
    moves; the two inputs are the exchange's two sources), then ONE
    key-hash ``keyed_apply`` whose reduce handles every key in the partition
    with one vectorized sort + ``groupby.head(1)`` — the
    ``topk_per_group`` pattern, never one Python call per key.
    """
    by = [order_col, "_src", tiebreak_col]
    asc = [False, False, False]

    def local_win(src: int):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch.assign(_src=np.full(len(batch), src, np.int8))
            return _local_win(batch, key_col, by, asc, "upsert_merge")
        return pandas_block(fn)

    def final_win(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + by, ascending=[True] + asc)
        return (g.groupby(key_col, sort=False).head(1)
                .drop(columns=["_src"]))

    return keyed_apply([(base, local_win(0)), (updates, local_win(1))],
                       key_col, final_win, num_partitions=num_partitions)


def _local_win(batch: pd.DataFrame, key_col: str, by: list[str],
               asc: list[bool], op: str) -> pd.DataFrame:
    """The block-local winner per key (the combiner in front of
    ``upsert_merge``'s and ``cdc_apply``'s exchange)."""
    if batch[key_col].isna().any():
        # pandas groupby drops NaN keys — in a MERGE that is silent
        # data loss, so refuse loudly (review r5)
        raise ValueError(
            f"{op}: null values in key column {key_col!r} — "
            "filter or fill them first")
    return (batch.sort_values(by, ascending=asc)
            .groupby(key_col, sort=False).head(1))


def skew_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    on: str,
    how: str = "inner",
    heavy_threshold: int = 1_000_000,
    replicate: int = 8,
    num_partitions: int = 32,
    max_heavy_keys: int = 100_000,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> rd.Dataset:
    """Skew-resilient equi-join: salted replication for hot keys.

    A plain hash exchange sends ALL rows of a key to one partition — a
    single viral key (the web-crawl reality: one domain with 10^8 pages)
    becomes one straggler worker holding the whole hot key.  This
    operator runs the standard salted-join remedy end to end:

    1. a COUNT pass over ``left`` pruned to the key column finds keys
       with >= ``heavy_threshold`` rows (per-batch Arrow ``group_by``
       combiner -> one hash exchange on the key via ``exchange_agg``;
       the driver collects ONLY keys above the threshold, which is
       bounded by total_rows / heavy_threshold and additionally guarded
       by ``max_heavy_keys``);
    2. the tiny heavy-key set is broadcast once (``ray.put`` + per-worker
       cache);
    3. ``left`` heavy rows get a cycling salt in [0, replicate) — the
       hot key now spreads over ``replicate`` partitions — light rows
       salt 0;
    4. ``right`` heavy rows are REPLICATED once per salt (light rows
       pass through with salt 0), so every left salt still finds its
       match;
    5. one ordinary ``exchange_join`` on ``(key, salt)``; the salt is
       dropped from the output.

    Exactly the same result set as ``exchange_join(on=key)`` for
    ``inner`` and ``left_outer`` (each left row carries exactly one
    salt, so no duplicate matches; parity-tested).  The count pass is a
    SECOND execution of the left lineage — pass a read-backed or
    materialized ``left``, not an expensive lazy chain.  Partitioning
    assumption: ``right`` is dimension-shaped on the heavy keys —
    replication multiplies right heavy rows by ``replicate``, so a key
    heavy on BOTH sides needs a different plan (pre-aggregate one side).
    Counters: ``skewjoin_heavy_keys`` / ``skewjoin_replicated_rows``
    (no silent behavior — an un-skewed input increments nothing).
    """
    from .analytics import splitmix64
    from .exchange import as_arrow_schema, exchange_agg, exchange_join

    if how not in ("inner", "left_outer"):
        raise ValueError(f"skew_join: unsupported how={how!r}")
    if replicate < 2:
        raise ValueError("skew_join: replicate must be >= 2")
    ls = as_arrow_schema(left_schema if left_schema is not None
                         else left.schema())
    rs = as_arrow_schema(right_schema if right_schema is not None
                         else right.schema())

    counts = exchange_agg(
        left.select_columns([on]), on, [(on, "count", "_n")],
        num_partitions=num_partitions)

    def heavy_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(
            t.column("_n"), pa.scalar(heavy_threshold, pa.int64())))

    heavy_tbl = (counts.map_batches(heavy_only, batch_format="pyarrow")
                 .to_pandas())
    if len(heavy_tbl) > max_heavy_keys:
        raise ValueError(
            f"skew_join: {len(heavy_tbl)} keys exceed heavy_threshold="
            f"{heavy_threshold} (> max_heavy_keys={max_heavy_keys}); "
            "raise heavy_threshold — broadcasting this many keys costs "
            "more than the skew")
    counters.incr({"skewjoin_heavy_keys": len(heavy_tbl)})
    if heavy_tbl.empty:
        return exchange_join(left, right, on=on, how=how,
                             num_partitions=num_partitions,
                             left_schema=ls, right_schema=rs)

    key_type = ls.field(on).type
    is_int_key = pa.types.is_integer(key_type)
    if is_int_key:
        heavy_vals = np.sort(heavy_tbl[on].to_numpy().astype(np.int64))
    else:
        heavy_vals = pd.Index(heavy_tbl[on].astype(str))
    h_ref = ray.put(heavy_vals)
    cache: dict = {}

    def _heavy_mask(col: pa.ChunkedArray) -> np.ndarray:
        hv = cache.get("h")
        if hv is None:
            hv = cache["h"] = ray.get(h_ref)
        if is_int_key:
            v = col.to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.searchsorted(hv, v)
            pos[pos >= len(hv)] = 0
            return hv[pos] == v
        return pd.Index(pd.array(col.to_pylist(), dtype=str)).isin(hv)

    def salt_left(t: pa.Table) -> pa.Table:
        mask = _heavy_mask(t.column(on))
        salt = np.zeros(len(t), np.int32)
        if mask.any():
            # any spread works for correctness; splitmix64 of the row's
            # position within the batch avoids co-salting runs of equal
            # keys while staying deterministic per batch content
            idx = np.flatnonzero(mask)
            salt[idx] = (splitmix64(idx.astype(np.int64))
                         % np.uint64(replicate)).astype(np.int32)
        return t.append_column("_salt", pa.array(salt, pa.int32()))

    def salt_right(t: pa.Table) -> pa.Table:
        mask = _heavy_mask(t.column(on))
        n = len(t)
        salt = np.zeros(n, np.int32)
        if not mask.any():
            return t.append_column("_salt", pa.array(salt, pa.int32()))
        hot = np.flatnonzero(mask)
        take = np.concatenate([np.arange(n, dtype=np.int64)]
                              + [hot.astype(np.int64)] * (replicate - 1))
        salts = np.concatenate(
            [salt] + [np.full(len(hot), s, np.int32)
                      for s in range(1, replicate)])
        counters.incr({"skewjoin_replicated_rows":
                       int(len(hot) * (replicate - 1))})
        out = t.take(pa.array(take, pa.int64()))
        return out.append_column("_salt", pa.array(salts, pa.int32()))

    ls2 = ls.append(pa.field("_salt", pa.int32()))
    rs2 = rs.append(pa.field("_salt", pa.int32()))
    # the salting runs in the exchange's split tasks, which return
    # salt_right's counts with their output
    joined = exchange_join(
        (left, salt_left), (right, salt_right),
        on=[on, "_salt"], how=how, num_partitions=num_partitions,
        left_schema=ls2, right_schema=rs2)

    def drop_salt(t: pa.Table) -> pa.Table:
        return t.drop_columns(["_salt"])

    return joined.map_batches(drop_salt, batch_format="pyarrow")


def cdc_apply(
    base: rd.Dataset,
    changes: rd.Dataset,
    *,
    key_col: str,
    order_col: str,
    tiebreak_col: str,
    op_col: str = "op",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Apply a CDC changelog (upsert + DELETE tombstones) to a snapshot —
    the table-maintenance MERGE a streaming ingest compacts with.

    ``changes`` carries ``op_col`` ∈ {'U', 'D'} (upsert / delete); base
    rows are implicit upserts.  Per key, the winner is the row with the
    greatest ``(order_col, change-beats-base, tiebreak_col)`` — exactly
    ``upsert_merge``'s ordering — and a winning tombstone REMOVES the key
    from the output.  Losing tombstones (a later upsert re-created the
    key) are invisible.  Same scale shape as upsert_merge: block-local
    winner combiner, ONE key-hash exchange, vectorized per-partition
    reduce; tombstones travel as ordinary rows.
    """
    by = [order_col, "_src", tiebreak_col]
    asc = [False, False, False]

    def win_base(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(_src=np.full(len(batch), 0, np.int8),
                             _del=np.zeros(len(batch), np.int8))
        return _local_win(batch, key_col, by, asc, "cdc_apply")

    def win_chg(batch: pd.DataFrame) -> pd.DataFrame:
        dele = (batch[op_col].astype(str) == "D").to_numpy()
        batch = (batch.drop(columns=[op_col])
                 .assign(_src=np.full(len(batch), 1, np.int8),
                         _del=dele.astype(np.int8)))
        return _local_win(batch, key_col, by, asc, "cdc_apply")

    def final_win(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + by, ascending=[True] + asc)
        w = g.groupby(key_col, sort=False).head(1)
        return w[w["_del"] == 0].drop(columns=["_src", "_del"])

    return keyed_apply([(base, pandas_block(win_base)),
                        (changes, pandas_block(win_chg))],
                       key_col, final_win, num_partitions=num_partitions)


def interval_self_join(
    ds: rd.Dataset,
    *,
    key_col: str,
    ts_col: str,
    id_col: str,
    window_us: int,
    num_partitions: int = 64,
    max_pairs_per_row: int = 100_000,
) -> rd.Dataset:
    """Stream-stream self join within a time bound: all ordered pairs of
    rows sharing ``key_col`` with ``0 <= ts_b - ts_a <= window_us``,
    each unordered pair emitted once as (earlier, later) — exact-tie
    pairs ordered by ``id_col``, so ``id_a < id_b`` whenever
    ``dt_us = 0``.  The windowed-join primitive of stream processors
    (Flink interval join), expressed batch-side.

    Shape: ONE hash exchange on the key, then per partition a
    vectorized sort + two searchsorted sweeps give each row its
    matching index span; pairs materialize via repeat/take — O(output)
    work, no per-key Python.  Output volume is rows × (peers within the
    window); ``max_pairs_per_row`` raises on pathological hot spans
    rather than silently OOMing (the no-silent-caps rule; salt the key
    or shrink the window when it fires).  A key's rows must fit in one
    partition (the sessionize partitioning assumption).
    """
    def reduce_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values([key_col, ts_col, id_col], kind="mergesort")
             .reset_index(drop=True))
        ts = g[ts_col]
        if pd.api.types.is_datetime64_any_dtype(ts):
            # normalize to MICROSECONDS regardless of the stored unit —
            # datetime64[ns] cast straight to int64 yields nanoseconds,
            # making window_us 1000x too small and dt_us a lie
            # (review r5; _ts_to_us is the arrow-side twin)
            tsu = (ts.to_numpy().astype("datetime64[us]")
                   .astype(np.int64))
        else:
            tsu = ts.to_numpy(dtype=np.int64)
        ids = g[id_col].to_numpy(dtype=np.int64)
        # segment loop (numpy work per key; the driver-visible structure
        # stays ONE task per partition — a dict-iteration per key costs
        # ~µs, vs the ms-scale Ray map_groups task the repo routes
        # around); pair indices accumulate as arrays, ONE frame per
        # partition
        reps: list[np.ndarray] = []
        takes: list[np.ndarray] = []
        for _, idx in g.groupby(key_col, sort=False).indices.items():
            t = tsu[idx]
            # for row i: peers j AFTER i in (ts, id) order with
            # t[j] <= t[i] + window
            hi = np.searchsorted(t, t + window_us, side="right")
            lo = np.arange(len(t)) + 1
            n_pairs = np.maximum(hi - lo, 0)
            mx = int(n_pairs.max()) if len(t) else 0
            if mx > max_pairs_per_row:
                raise ValueError(
                    f"interval_self_join: a row matches {mx} peers "
                    f"(> max_pairs_per_row={max_pairs_per_row}); "
                    "shrink window_us or salt the key")
            if mx == 0:
                continue
            rep = np.repeat(np.arange(len(t)), n_pairs)
            # concatenated ranges lo[i]..hi[i]
            take = (np.arange(len(rep))
                    - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
                    + np.repeat(lo, n_pairs))
            reps.append(idx[rep])
            takes.append(idx[take])
        if not reps:
            return pd.DataFrame({
                key_col: pd.Series([], dtype=g[key_col].dtype),
                "id_a": pd.Series([], dtype="int64"),
                "id_b": pd.Series([], dtype="int64"),
                "dt_us": pd.Series([], dtype="int64")})
        ra = np.concatenate(reps)
        ta = np.concatenate(takes)
        return pd.DataFrame({
            key_col: g[key_col].to_numpy()[ra],
            "id_a": ids[ra],
            "id_b": ids[ta],
            "dt_us": tsu[ta] - tsu[ra],
        })

    return keyed_apply(ds, key_col, reduce_part,
                       num_partitions=num_partitions)


def planned_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    on: str,
    how: str = "inner",
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
    broadcast_limit: float = 500_000,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Cost-based join: consult the zero-shuffle HLL sketches
    (analytics.py::hll_join_estimate) and pick the physical plan —
    ``broadcast_join`` when the RIGHT side's estimated distinct-key
    count is under ``broadcast_limit`` (dimension-table shape: the big
    side streams, nothing shuffles), else the two-sided
    ``exchange_join``.  The result is plan-invisible (same rows either
    way); the decision is observable via the
    ``plannedjoin_broadcast`` / ``plannedjoin_shuffle`` counters and
    costs two 4 KB sketch passes before any row moves — the planner
    input a 100 TB join cannot afford to guess.

    Restriction: single join key, ``inner``/``left`` only (the
    broadcast path's contract).
    """
    from .analytics import hll_join_estimate
    from .exchange import exchange_join

    est = hll_join_estimate(left, right, left_col=on,
                            right_col=on).to_pandas().iloc[0]
    if est["est_right"] <= broadcast_limit:
        # broadcast_join guards on total ROWS while the estimate is
        # DISTINCT KEYS — a low-cardinality/high-row right side (100+
        # rows per key) must fall back to the shuffle plan, not crash
        # on the broadcast row budget (review r5)
        try:
            plan = broadcast_join(left, right, on=on, how=how)
            counters.incr({"plannedjoin_broadcast": 1})
            return plan
        except ValueError:
            counters.incr({"plannedjoin_broadcast_fallback": 1})
    counters.incr({"plannedjoin_shuffle": 1})
    # schema probe: one small batch per side (planning cost only)
    if left_schema is None:
        left_schema = left.take_batch(4, batch_format="pyarrow").schema
    if right_schema is None:
        right_schema = right.take_batch(4, batch_format="pyarrow").schema
    return exchange_join(left, right, on=on,
                         how="left_outer" if how == "left" else how,
                         num_partitions=num_partitions,
                         left_schema=left_schema,
                         right_schema=right_schema)


def point_in_time_join(
    facts: rd.Dataset,
    dim_history: rd.Dataset,
    *,
    key_col: str,
    ts_col: str,
    valid_from_col: str = "valid_from_us",
    valid_to_col: str = "valid_to_us",
    open_sentinel: int = -1,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Feature-store point-in-time join (the Feast/Tecton
    "as-of-correct enrichment"): attach to each fact row the
    dimension VERSION valid at its timestamp — greatest
    ``valid_from <= ts`` per key, kept only while not expired
    (``ts < valid_to`` or ``valid_to == open_sentinel`` for the
    currently-open version).  Guards against feature leakage: a
    version that starts after the fact can never match.

    Composition: one :func:`asof_join` (key-hash exchange + one
    ``pd.merge_asof(by=key)`` per partition) + a vectorized validity
    filter — facts whose matched version expired before ``ts`` (a
    history GAP) are dropped like asof's unmatched rows (inner
    semantics).  Pairs with windows.scd2_history, whose
    ``(key, attr, valid_from_us, valid_to_us)`` output is this
    operator's dimension-side contract.
    """
    # tiebreak on valid_to (any right payload works: versions of one
    # key have distinct valid_from, so ties cannot occur; asof_join
    # excludes its right_ts column from the payload, so it cannot
    # double as the tiebreak)
    j = asof_join(facts, dim_history, key_col=key_col,
                  left_ts=ts_col, right_ts=valid_from_col,
                  tiebreak_col=valid_to_col, inclusive=True,
                  num_partitions=num_partitions)

    def keep(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col)
        vt = t.column(valid_to_col)
        m = pc.or_(pc.equal(vt, open_sentinel),
                   pc.greater(vt.cast(pa.int64()), ts.cast(pa.int64())))
        return t.filter(m)

    return j.map_batches(keep, batch_format="pyarrow")
