"""Lakehouse table layout: clustered (range-partitioned) Parquet writes
with a zone-map manifest, and manifest-pruned reads.

Data skipping is the difference between "scan 100 TB" and "scan the three
files whose [min,max] overlaps the predicate".  ``clustered_write`` range-
partitions a Dataset on a key (sample-based cutpoints, the range_sort
machinery), writes ONE Parquet file per range, and records a manifest of
per-file zone maps ``(file, rows, min_key, max_key)``.  ``pruned_read``
consults only the manifest to decide which files to open — the counter
pair ``prunedscan_files_total`` / ``prunedscan_files_read`` makes the
skipping observable (no-silent-caps rule) — then applies the exact
predicate to the surviving rows.

Scale notes: the manifest is O(files) rows (bounded driver state — the
same tier rule as the other bounded collects here); the write is one hash-
free range exchange (cutpoints affect file balance, never correctness);
re-clustering by the dominant filter key is how a 100-TB table makes every
downstream range query read ~1/files of the data.  Companion to
``analytics.range_sort`` (exact total order) and the upsert/table_diff
table ops in stages/joins.py / analytics.py.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..state import counters
from .bsp import Blocks, map_blocks, range_exchange
from .exchange import pandas_block

MANIFEST = "manifest.parquet"


def _bloom_nbits(n_rows: int, bits_per_key: int) -> int:
    """Bloom size in bits, rounded up to a multiple of 64 (uint64 words)."""
    return max(64, ((n_rows * bits_per_key + 63) // 64) * 64)


def _bloom_hashes(vals) -> tuple[np.ndarray, np.ndarray]:
    """Two independent 64-bit hash streams for double hashing (Kirsch &
    Mitzenmacher: k probes from h1 + i·h2).  Int columns hash via
    splitmix64; everything else via the string FNV already used for
    exchange partitioning."""
    from ..kernels.minhash import _hash_shingles
    from .analytics import splitmix64

    s = pd.Series(vals)
    if pd.api.types.is_integer_dtype(s):
        x = s.to_numpy(dtype=np.int64).astype(np.uint64)
    else:
        x = _hash_shingles(s.astype(str).tolist()).astype(np.uint64)
    h1 = splitmix64(x)
    h2 = splitmix64(x ^ np.uint64(0xA5A5A5A5A5A5A5A5)) | np.uint64(1)
    return h1, h2


def _per_block(ds: rd.Dataset, fn) -> pd.DataFrame:
    """The pandas ``fn`` of each non-empty block of the materialized
    ``ds``, one raw task per block (``bsp.map_blocks``: no Ray Data
    execution), concatenated; an empty DataFrame when there is none.
    One call per block, as a ``map_batches`` without ``batch_size``
    makes, so per-block samples keep their size."""
    frames = [t.to_pandas()
              for t in ray.get(map_blocks(ds, pandas_block(fn)).refs)]
    return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()


def _write_ranges(ds, assign, write_file, manifest_row, num_files: int,
                  path: str, input_cols) -> pd.DataFrame:
    """One file per non-empty range: ``assign`` (pandas) tags each row
    with its range id ``_file`` in the task that splits its block, one
    fixed-P ``bsp.range_exchange`` puts range i in partition i, and the
    pandas ``write_file`` writes each non-empty range's file and returns
    its manifest row, ``manifest_row(file name, rows)``.  The manifest
    (sorted by file name) is persisted and returned.  With no rows it is
    ``manifest_row`` of a group with no rows (of the ``input_cols`` it
    reads) cut to none, so it has the columns and dtypes of every other
    manifest."""
    def reduce(t: pa.Table) -> pa.Table:
        return pandas_block(write_file)(t) if t.num_rows else pa.table({})

    out = range_exchange((ds, pandas_block(assign)), "_file", reduce,
                         num_files)
    frames = [t.to_pandas() for t in ray.get(out.refs) if t.num_rows]
    if frames:
        manifest = pd.concat(frames, ignore_index=True)
    else:
        manifest = manifest_row("", pd.DataFrame(
            {c: pd.Series([], dtype="float64") for c in input_cols})).iloc[:0]
    manifest = manifest.sort_values("file").reset_index(drop=True)
    manifest.to_parquet(os.path.join(path, MANIFEST), index=False)
    return manifest


def clustered_write(
    ds: rd.Dataset,
    path: str,
    *,
    key_col: str,
    num_files: int = 16,
    sample_per_block: int = 256,
    bloom_col: str | None = None,
    bloom_bits_per_key: int = 16,
    bloom_k: int = 6,
) -> pd.DataFrame:
    """Range-partition ``ds`` on ``key_col`` into ``num_files`` Parquet
    files under ``path`` and write a zone-map manifest.

    Cutpoints come from a per-block sample (balance only — a bad sample
    skews file sizes, never results).  Each non-empty range is written
    by its own reduce task (``bsp.range_exchange`` on the range id
    ``_file``, one vectorized writer call per file).  Returns the
    manifest (``num_files`` rows — inherently driver-sized); also
    persisted as ``path/manifest.parquet``.

    ``bloom_col``: additionally store a per-file Bloom filter over that
    column (``bloom_bits_per_key`` bits/key, ``bloom_k`` probes ⇒ fp rate
    ≈ 0.6% at 16/6) so ``point_lookup`` on a NON-clustered column can
    skip files too — the zone map prunes range scans on the cluster key,
    the Bloom prunes point lookups on anything else.
    """
    os.makedirs(path, exist_ok=True)
    # one execution of a lazy input serves the sample and the exchange
    ds = ds.materialize()

    def sample(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch[key_col]
        if len(k) > sample_per_block:
            idx = np.linspace(0, len(k) - 1, sample_per_block).astype(int)
            k = k.iloc[idx]
        return pd.DataFrame({key_col: k})

    samp = _per_block(ds, sample)
    if samp.empty:
        cuts = np.array([], dtype=np.float64)
    else:
        qs = np.linspace(0, 1, num_files + 1)[1:-1]
        cuts = np.quantile(samp[key_col].to_numpy(dtype=np.float64), qs)

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch[key_col].to_numpy(dtype=np.float64)
        fid = np.searchsorted(cuts, k, side="right").astype(np.int32)
        return batch.assign(_file=fid)

    def write_file(g: pd.DataFrame) -> pd.DataFrame:
        fid = int(g["_file"].iloc[0])
        g = g.drop(columns=["_file"]).sort_values(key_col,
                                                  kind="mergesort")
        fname = f"part_{fid:05d}.parquet"
        pq.write_table(pa.Table.from_pandas(g, preserve_index=False),
                       os.path.join(path, fname))
        return manifest_row(fname, g)

    def manifest_row(fname: str, g: pd.DataFrame) -> pd.DataFrame:
        row = {
            "file": [fname],
            "rows": pd.Series([len(g)], dtype="int64"),
            "min_key": [float(g[key_col].min())],
            "max_key": [float(g[key_col].max())],
        }
        if bloom_col is not None:
            nbits = _bloom_nbits(len(g), bloom_bits_per_key)
            bits = np.zeros(nbits // 64, dtype=np.uint64)
            h1, h2 = _bloom_hashes(g[bloom_col])
            for i in range(bloom_k):
                pos = (h1 + np.uint64(i) * h2) % np.uint64(nbits)
                np.bitwise_or.at(bits, (pos >> np.uint64(6)).astype(np.int64),
                                 np.uint64(1) << (pos & np.uint64(63)))
            row["bloom"] = [bits.tobytes()]
            row["bloom_nbits"] = pd.Series([nbits], dtype="int64")
            row["bloom_k"] = pd.Series([bloom_k], dtype="int64")
        return pd.DataFrame(row)

    return _write_ranges(ds, assign, write_file, manifest_row, num_files,
                         path, [key_col] + ([bloom_col] if bloom_col else []))


def pruned_read(
    path: str,
    *,
    key_col: str,
    lo: float,
    hi: float,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Read only the files whose zone map overlaps ``[lo, hi]``, then
    apply the exact range predicate to the surviving rows.  Emits
    ``prunedscan_files_total`` / ``prunedscan_files_read`` counters so
    the skipping is observable and testable."""
    manifest = pd.read_parquet(os.path.join(path, MANIFEST))
    if manifest.empty:
        raise ValueError(f"pruned_read: empty manifest at {path}")
    keep = manifest[(manifest["max_key"] >= lo)
                    & (manifest["min_key"] <= hi)
                    & (manifest["rows"] > 0)]
    counters.incr({"prunedscan_files_total": len(manifest),
                   "prunedscan_files_read": len(keep)})
    if keep.empty:
        # typed empty: a no-overlap predicate still yields a real Dataset
        schema = pq.read_schema(
            os.path.join(path, manifest["file"].iloc[0]))
        if columns:
            schema = pa.schema([schema.field(c) for c in columns])
        return rd.from_arrow(schema.empty_table())
    files = [os.path.join(path, f) for f in keep["file"]]
    ds = rd.read_parquet(files, columns=columns)

    def exact(batch: pa.Table) -> pa.Table:
        k = batch.column(key_col).to_numpy(zero_copy_only=False)
        mask = (k >= lo) & (k <= hi)
        return batch.filter(pa.array(mask))

    return ds.map_batches(exact, batch_format="pyarrow")


def point_lookup(
    path: str,
    *,
    col: str,
    values: list,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Point lookup through the per-file Bloom filters: open only the
    files whose Bloom possibly contains ANY of ``values`` (for a value
    present in exactly one file, that's ~1 + (files-1)·fp_rate opens),
    then apply the exact ``isin`` filter.  Requires the table to have
    been written with ``clustered_write(..., bloom_col=col)``.  Emits
    ``bloomscan_files_total`` / ``bloomscan_files_read`` counters."""
    manifest = pd.read_parquet(os.path.join(path, MANIFEST))
    if manifest.empty:
        raise ValueError(f"point_lookup: empty manifest at {path}")
    if "bloom" not in manifest.columns:
        raise ValueError(
            f"point_lookup: no Bloom filters in manifest at {path}; "
            "write with clustered_write(..., bloom_col=...)")
    h1, h2 = _bloom_hashes(pd.Series(values))

    def may_contain(row) -> bool:
        bits = np.frombuffer(row["bloom"], dtype=np.uint64)
        # every value's k probes as one (values, k) uint64 array: array
        # arithmetic wraps mod 2^64 silently, as the writer's does
        i = np.arange(int(row["bloom_k"]), dtype=np.uint64)
        pos = (h1[:, None] + i * h2[:, None]) % np.uint64(row["bloom_nbits"])
        hit = (bits[(pos >> np.uint64(6)).astype(np.int64)]
               >> (pos & np.uint64(63))) & np.uint64(1)
        return bool(hit.all(axis=1).any())

    keep = manifest[[may_contain(r) for _, r in manifest.iterrows()]]
    counters.incr({"bloomscan_files_total": len(manifest),
                   "bloomscan_files_read": len(keep)})
    if keep.empty:
        schema = pq.read_schema(
            os.path.join(path, manifest["file"].iloc[0]))
        if columns:
            schema = pa.schema([schema.field(c) for c in columns])
        return rd.from_arrow(schema.empty_table())
    files = [os.path.join(path, f) for f in keep["file"]]
    ds = rd.read_parquet(files, columns=columns)
    vset = set(values)

    def exact(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch[col].isin(vset)]

    return ds.map_batches(exact, batch_format="pandas")


def clustered_join(
    path_a: str,
    path_b: str,
    *,
    key_col_a: str,
    key_col_b: str | None = None,
    columns_a: list[str] | None = None,
    columns_b: list[str] | None = None,
) -> rd.Dataset:
    """Shuffle-FREE inner equi-join of two tables both written by
    ``clustered_write`` on the join key: the zone maps already
    co-partition the data, so the join plan is "for each A file, merge
    the B files whose [min,max] overlaps" — one task per A file, zero
    exchange.  This is the payoff of picking ONE partitioning key and
    reusing it across stages: at 100 TB the same join as exchange_join
    moves nothing but the narrow B overlaps each task reads.

    ``clustered_write``'s ranges are disjoint by value (searchsorted
    cutpoints), so every B row can match at most one A file — no
    duplicate outputs.  Emits ``clusteredjoin_tasks`` /
    ``clusteredjoin_b_reads`` counters (B files read, summed over
    tasks; ≈ files_b when distributions align, ≫ when the two tables
    were clustered with very different cutpoints — re-cluster one side
    if the counter says so).
    """
    key_col_b = key_col_b or key_col_a
    ma = pd.read_parquet(os.path.join(path_a, MANIFEST))
    mb = pd.read_parquet(os.path.join(path_b, MANIFEST))
    if ma.empty or mb.empty:
        raise ValueError("clustered_join: empty manifest")
    plan = []
    b_reads = 0
    for _, ra in ma.iterrows():
        hits = mb[(mb["max_key"] >= ra["min_key"])
                  & (mb["min_key"] <= ra["max_key"]) & (mb["rows"] > 0)]
        if ra["rows"] > 0 and len(hits):
            plan.append({"a_file": ra["file"],
                         "b_files": ",".join(hits["file"])})
            b_reads += len(hits)
    counters.incr({"clusteredjoin_tasks": len(plan),
                   "clusteredjoin_b_reads": b_reads})
    if not plan:
        sa = pq.read_schema(os.path.join(path_a, ma["file"].iloc[0]))
        sb = pq.read_schema(os.path.join(path_b, mb["file"].iloc[0]))
        cols_a = columns_a or sa.names
        cols_b = columns_b or [c for c in sb.names if c != key_col_b]
        fields = ([sa.field(c) for c in cols_a]
                  + [sb.field(c) for c in cols_b if c in sb.names])
        return rd.from_arrow(pa.schema(fields).empty_table())

    def join_task(batch: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, row in batch.iterrows():  # one row per block (the plan)
            a = pd.read_parquet(os.path.join(path_a, row["a_file"]),
                                columns=columns_a)
            bs = [pd.read_parquet(os.path.join(path_b, f),
                                  columns=columns_b)
                  for f in row["b_files"].split(",")]
            b = pd.concat(bs, ignore_index=True)
            outs.append(a.merge(
                b, left_on=key_col_a, right_on=key_col_b, how="inner"))
        return pd.concat(outs, ignore_index=True)

    # one block, so one task, per plan row
    plan_ds = rd.from_pandas([pd.DataFrame([row]) for row in plan])
    return plan_ds.map_batches(join_task, batch_format="pandas",
                               batch_size=None)


def _spread_bits16(x: np.ndarray) -> np.ndarray:
    """Spread each of the low 16 bits of ``x`` to even positions (the
    classic morton-code bit dilation, vectorized)."""
    x = x.astype(np.uint64) & np.uint64(0xFFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def zorder_write(
    ds: rd.Dataset,
    path: str,
    *,
    cols: list[str],
    num_files: int = 16,
    sample_per_block: int = 256,
) -> pd.DataFrame:
    """Z-order (Morton) clustering on TWO numeric columns — the
    Delta/Iceberg OPTIMIZE ZORDER feature: rows near each other in
    EITHER dimension land in the same files, so zone-map pruning works
    for predicates on either column (1-D ``clustered_write`` only
    prunes its own key).

    Pass 1 computes exact global min/max per column (one tiny partial
    row per batch, driver fold); each value then quantizes to 16 bits
    over its [min, max] span and the two dilated bit patterns
    interleave into a 32-bit z-key.  Files are range partitions of the
    z-key (sampled cutpoints — balance only, never results); the
    manifest records per-file min/max of BOTH original columns.
    Returns + persists the manifest (O(files) rows).
    """
    if len(cols) != 2:
        raise ValueError("zorder_write: exactly two cols supported")
    os.makedirs(path, exist_ok=True)
    ca, cb = cols
    # one execution of a lazy input serves the min/max pass, the sample
    # and the exchange
    ds = ds.materialize()

    def mm(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            f"lo_{c}": [float(np.nanmin(batch[c].to_numpy(np.float64)))]
            for c in cols} | {
            f"hi_{c}": [float(np.nanmax(batch[c].to_numpy(np.float64)))]
            for c in cols})

    parts = _per_block(ds, mm)
    span = ({c: (float(parts[f"lo_{c}"].min()), float(parts[f"hi_{c}"].max()))
             for c in cols} if len(parts) else {c: (0.0, 0.0) for c in cols})

    def quant(v: np.ndarray, c: str) -> np.ndarray:
        lo, hi = span[c]
        scale = (hi - lo) or 1.0
        q = np.clip((v - lo) / scale, 0.0, 1.0) * 65535.0
        return q.astype(np.uint64)

    def zkey(batch: pd.DataFrame) -> np.ndarray:
        a = quant(batch[ca].to_numpy(np.float64), ca)
        b = quant(batch[cb].to_numpy(np.float64), cb)
        return (_spread_bits16(a)
                | (_spread_bits16(b) << np.uint64(1))).astype(np.int64)

    def sample(batch: pd.DataFrame) -> pd.DataFrame:
        z = zkey(batch)
        if len(z) > sample_per_block:
            idx = np.linspace(0, len(z) - 1, sample_per_block).astype(int)
            z = z[idx]
        return pd.DataFrame({"z": z})

    samp = _per_block(ds, sample)
    qs = np.linspace(0, 1, num_files + 1)[1:-1]
    cuts = (np.quantile(samp["z"].to_numpy(np.float64), qs)
            if len(samp) else np.array([], dtype=np.float64))

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        z = zkey(batch)
        fid = np.searchsorted(cuts, z.astype(np.float64),
                              side="right").astype(np.int32)
        return batch.assign(_file=fid, _z=z)

    def write_file(g: pd.DataFrame) -> pd.DataFrame:
        fid = int(g["_file"].iloc[0])
        g = g.sort_values("_z", kind="mergesort").drop(
            columns=["_file", "_z"])
        fname = f"zpart_{fid:05d}.parquet"
        pq.write_table(pa.Table.from_pandas(g, preserve_index=False),
                       os.path.join(path, fname))
        return manifest_row(fname, g)

    def manifest_row(fname: str, g: pd.DataFrame) -> pd.DataFrame:
        row = {"file": [fname],
               "rows": pd.Series([len(g)], dtype="int64")}
        for c in cols:
            row[f"min_{c}"] = [float(g[c].min())]
            row[f"max_{c}"] = [float(g[c].max())]
        return pd.DataFrame(row)

    return _write_ranges(ds, assign, write_file, manifest_row, num_files,
                         path, cols)


def zorder_read(
    path: str,
    *,
    preds: dict,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Zone-map-pruned read over a :func:`zorder_write` table:
    ``preds`` maps column -> (lo, hi); only files whose per-column
    ranges overlap EVERY predicate are opened, then the exact residual
    filter applies.  Counters: ``zscan_files_total`` /
    ``zscan_files_read``."""
    manifest = pd.read_parquet(os.path.join(path, MANIFEST))
    keep = manifest[manifest["rows"] > 0]
    for c, (lo, hi) in preds.items():
        keep = keep[(keep[f"max_{c}"] >= lo) & (keep[f"min_{c}"] <= hi)]
    counters.incr({"zscan_files_total": len(manifest),
                   "zscan_files_read": len(keep)})
    if keep.empty:
        schema = pq.read_schema(
            os.path.join(path, manifest["file"].iloc[0]))
        if columns:
            schema = pa.schema([schema.field(c) for c in columns])
        return rd.from_arrow(schema.empty_table())
    ds = rd.read_parquet([os.path.join(path, f) for f in keep["file"]],
                         columns=columns)

    def exact(batch: pa.Table) -> pa.Table:
        mask = None
        for c, (lo, hi) in preds.items():
            k = batch.column(c).to_numpy(zero_copy_only=False)
            m = (k >= lo) & (k <= hi)
            mask = m if mask is None else (mask & m)
        return batch.filter(pa.array(mask)) if mask is not None else batch

    return ds.map_batches(exact, batch_format="pyarrow")


def compact_files(
    path: str,
    *,
    key_col: str,
    target_rows: int = 500_000,
    bloom_col: str | None = None,
) -> pd.DataFrame:
    """Small-file compaction over a :func:`clustered_write` table — the
    other half of OPTIMIZE: greedily merge ADJACENT key ranges (manifest
    order, so the clustering and zone-map monotonicity survive) until
    each output file holds ~``target_rows``, rewrite each group in ONE
    distributed task, atomically swap the manifest, delete the inputs.

    Driver state is the O(files) manifest only; every group's read +
    concat + write happens inside its own task (``from_items`` over the
    group list → ``map_batches``), so compaction parallelism = output
    file count.  Bloom columns are rebuilt per merged file when present.
    Emits ``compact_files_in`` / ``compact_files_out`` counters.
    """
    manifest = pd.read_parquet(os.path.join(path, MANIFEST))
    manifest = manifest.sort_values("min_key").reset_index(drop=True)
    has_bloom = "bloom" in manifest.columns
    if has_bloom and bloom_col is None:
        raise ValueError(
            "compact_files: the table carries per-file Bloom filters — "
            "pass bloom_col so they are rebuilt (refusing to silently "
            "drop point-lookup pruning)")

    groups: list[list[int]] = []
    cur: list[int] = []
    rows = 0
    for i, r in manifest.iterrows():
        cur.append(int(i))
        rows += int(r["rows"])
        if rows >= target_rows:
            groups.append(cur)
            cur, rows = [], 0
    if cur:
        groups.append(cur)

    items = [{"gid": gi, "files": [manifest["file"].iloc[j] for j in g]}
             for gi, g in enumerate(groups)]

    def merge_group(batch: pd.DataFrame) -> pd.DataFrame:
        out_rows = []
        for _, it in batch.iterrows():
            tables = [pq.read_table(os.path.join(path, f))
                      for f in it["files"]]
            t = pa.concat_tables(tables)
            g = t.to_pandas().sort_values(key_col, kind="mergesort")
            fname = f"compact_{int(it['gid']):05d}.parquet"
            pq.write_table(pa.Table.from_pandas(g, preserve_index=False),
                           os.path.join(path, fname))
            row = {"file": fname, "rows": len(g),
                   "min_key": float(g[key_col].min()),
                   "max_key": float(g[key_col].max())}
            if has_bloom:
                keys = np.unique(g[bloom_col].to_numpy())
                nbits = _bloom_nbits(len(keys), 16)
                h1, h2 = _bloom_hashes(keys)
                bits = np.zeros(nbits, dtype=bool)
                for k in range(6):
                    bits[(h1 + np.uint64(k) * h2)
                         % np.uint64(nbits)] = True
                row["bloom"] = np.packbits(bits).tobytes()
            out_rows.append(row)
        return pd.DataFrame(out_rows)

    new_manifest = (rd.from_items(items)
                    .map_batches(merge_group, batch_format="pandas",
                                 batch_size=1)
                    .to_pandas().sort_values("file")
                    .reset_index(drop=True))
    new_manifest["rows"] = new_manifest["rows"].astype("int64")
    tmp = os.path.join(path, MANIFEST + ".tmp")
    new_manifest.to_parquet(tmp, index=False)
    os.replace(tmp, os.path.join(path, MANIFEST))
    for f in manifest["file"]:
        try:
            os.remove(os.path.join(path, f))
        except FileNotFoundError:
            pass
    counters.incr({"compact_files_in": len(manifest),
                   "compact_files_out": len(new_manifest)})
    return new_manifest


def read_evolved(
    paths: list[str],
    *,
    target_schema: pa.Schema | None = None,
) -> rd.Dataset:
    """Schema-evolution read: union parquet file sets whose schemas
    DIVERGED over time (columns added/dropped between writer versions) —
    the nightly-crawl reality a fixed-schema ``read_parquet`` rejects.
    Missing columns materialize as typed nulls; extra columns not in the
    target are dropped; column ORDER is normalized.  ``target_schema``
    defaults to the union of all file schemas (first-seen type wins; a
    same-name column with a CONFLICTING type raises loudly rather than
    silently casting).

    Scale shape: schema discovery reads ONLY parquet footers (O(files)
    metadata, no data I/O); the pad/project is a zero-copy per-batch
    Arrow op, and each path set stays an independent streaming read —
    no materialization, no shuffle.
    """
    import pyarrow.parquet as pq

    if target_schema is None:
        fields: dict[str, pa.DataType] = {}
        for p in paths:
            sch = pq.read_schema(p) if p.endswith(".parquet") else None
            if sch is None:
                import glob as _g
                files = sorted(_g.glob(os.path.join(p, "*.parquet")))
                if not files:
                    raise ValueError(f"read_evolved: no parquet under {p}")
                sch = pq.read_schema(files[0])
            for f in sch:
                prev = fields.get(f.name)
                if prev is not None and prev != f.type:
                    raise ValueError(
                        f"read_evolved: column {f.name!r} has conflicting "
                        f"types {prev} vs {f.type} — resolve explicitly")
                fields.setdefault(f.name, f.type)
        target_schema = pa.schema(sorted(fields.items()))

    def conform(t: pa.Table) -> pa.Table:
        cols = []
        for f in target_schema:
            if f.name in t.column_names:
                cols.append(t.column(f.name).cast(f.type))
            else:
                cols.append(pa.nulls(t.num_rows, f.type))
        return pa.table(dict(zip(target_schema.names, cols)))

    parts = [rd.read_parquet(p).map_batches(conform,
                                            batch_format="pyarrow")
             for p in paths]
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def metadata_agg(
    path: str,
    *,
    key_col: str,
    lo: float,
    hi: float,
) -> pd.DataFrame:
    """Metadata-only range COUNT: answer
    ``count(*) WHERE lo <= key <= hi`` touching as little data as the
    manifest allows — the query-planner trick every table format
    (Iceberg/Delta) pulls for ``SELECT count(*)``.

    Files whose zone map lies FULLY inside the range contribute their
    manifest ``rows`` without being opened; files that merely overlap
    the range boundary are scanned (key column only) and filtered
    exactly; disjoint files are skipped.  At 10^12 rows a time-range
    count touches only the two boundary files.

    Emits ``metaagg_files_total`` / ``metaagg_files_counted`` (metadata
    only) / ``metaagg_files_scanned`` counters.  Returns one row
    ``(n_rows,)``.
    """
    manifest = pd.read_parquet(os.path.join(path, MANIFEST))
    if manifest.empty:
        raise ValueError(f"metadata_agg: empty manifest at {path}")
    nonempty = manifest[manifest["rows"] > 0]
    overlap = nonempty[(nonempty["max_key"] >= lo)
                       & (nonempty["min_key"] <= hi)]
    covered = overlap[(overlap["min_key"] >= lo)
                      & (overlap["max_key"] <= hi)]
    boundary = overlap[~overlap["file"].isin(covered["file"])]
    counters.incr({"metaagg_files_total": len(manifest),
                   "metaagg_files_counted": len(covered),
                   "metaagg_files_scanned": len(boundary)})
    total = int(covered["rows"].sum())
    if not boundary.empty:
        files = [os.path.join(path, f) for f in boundary["file"]]
        ds = rd.read_parquet(files, columns=[key_col])

        def exact(batch: pa.Table) -> pa.Table:
            k = batch.column(key_col).to_numpy(zero_copy_only=False)
            mask = (k >= lo) & (k <= hi)
            return batch.filter(pa.array(mask))

        total += ds.map_batches(exact, batch_format="pyarrow").count()
    return pd.DataFrame({"n_rows": pd.Series([total], dtype="int64")})


def _log_versions(path: str) -> list[int]:
    import glob as _glob

    return sorted(int(os.path.basename(p)[len("manifest_v"):-len(".parquet")])
                  for p in _glob.glob(os.path.join(path,
                                                   "manifest_v*.parquet")))


def commit_version(
    ds: rd.Dataset,
    path: str,
    *,
    mode: str = "append",
) -> int:
    """Iceberg-lite versioned commit: data files are IMMUTABLE; each
    commit writes ``manifest_v{N}.parquet`` naming the version's live
    file set — ``append`` = previous live set ∪ new files,
    ``overwrite`` = new files only.  Old manifests (and their files)
    are never touched, so :func:`read_version` time-travels to any
    prior version — the audit/reproducibility contract every table
    format (Iceberg/Delta) provides and a 100 TB training corpus
    needs (\"which snapshot trained run 47?\").

    The commit itself is a distributed ``write_parquet`` into a
    version-scoped directory; only the O(files) manifest is driver
    work.  Returns the new version number.
    """
    if mode not in ("append", "overwrite"):
        raise ValueError(f"unsupported mode {mode!r}")
    os.makedirs(path, exist_ok=True)
    versions = _log_versions(path)
    new_v = (versions[-1] + 1) if versions else 1
    data_dir = os.path.join(path, f"commit_{new_v:05d}")
    ds.write_parquet(data_dir)
    import glob as _glob

    new_files = sorted(
        os.path.relpath(p, path)
        for p in _glob.glob(os.path.join(data_dir, "*.parquet")))
    if mode == "append" and versions:
        prev = pd.read_parquet(os.path.join(
            path, f"manifest_v{versions[-1]:05d}.parquet"))
        files = prev["file"].tolist() + new_files
    else:
        files = new_files
    tmp = os.path.join(path, f".manifest_v{new_v:05d}.tmp")
    pd.DataFrame({"file": files}).to_parquet(tmp, index=False)
    os.replace(tmp, os.path.join(path,
                                 f"manifest_v{new_v:05d}.parquet"))
    return new_v


def read_version(path: str, version: int) -> rd.Dataset:
    """Time-travel read: the exact file set manifest_v{version} named,
    regardless of any later append/overwrite commits."""
    mf = os.path.join(path, f"manifest_v{version:05d}.parquet")
    if not os.path.exists(mf):
        raise ValueError(f"read_version: no version {version} at {path}"
                         f" (have {_log_versions(path)})")
    files = pd.read_parquet(mf)["file"].tolist()
    return rd.read_parquet([os.path.join(path, f) for f in files])


def positional_delete(
    path: str,
    key_col: str,
    delete_keys,
    *,
    max_keys: int = 5_000_000,
) -> dict:
    """Delta-3 / Iceberg-v2-style DELETE as per-file deletion vectors:
    data files stay IMMUTABLE; for every parquet file under ``path``
    whose rows match the (bounded, broadcast) key set, write
    ``_deletes/<file>.dv.parquet`` holding the deleted ROW POSITIONS.
    A 10⁹-row delete touches no data bytes — only O(deleted) position
    rows — and the table stays readable at full scan speed through
    :func:`read_with_deletes`.

    One Ray task per data file (the file list is the only driver
    state); each task reads ONLY ``key_col``, computes positions via a
    vectorized ``np.isin`` against the ``ray.put`` key set, and writes
    its vector.  Files with no hits write nothing.  Returns
    {files_total, files_with_deletes, rows_deleted} (also emitted as
    ``dv_*`` counters).
    """
    import glob as _glob

    import ray

    keys = np.asarray(sorted(set(delete_keys)))
    if len(keys) > max_keys:
        raise ValueError(
            f"positional_delete: {len(keys)} keys exceeds max_keys="
            f"{max_keys} (~{len(keys) * 8 // 2**20} MB broadcast) — "
            f"use an anti-join rewrite instead")
    files = sorted(_glob.glob(os.path.join(path, "*.parquet")))
    dv_dir = os.path.join(path, "_deletes")
    os.makedirs(dv_dir, exist_ok=True)
    kref = ray.put(keys)

    def one_file(b: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(kref)
        out = []
        for f in b["file"]:
            col = pq.read_table(f, columns=[key_col]).column(key_col)
            vals = col.to_numpy(zero_copy_only=False)
            pos = np.nonzero(np.isin(vals, ks))[0].astype(np.int64)
            if len(pos):
                dv = os.path.join(
                    dv_dir, os.path.basename(f) + ".dv.parquet")
                pq.write_table(
                    pa.table({"pos": pa.array(pos, pa.int64())}), dv)
            out.append({"file": os.path.basename(f),
                        "n_deleted": int(len(pos))})
        return pd.DataFrame(out)

    stats = (rd.from_items([{"file": f} for f in files])
             .map_batches(one_file, batch_format="pandas", batch_size=1)
             .to_pandas())
    res = {"files_total": len(files),
           "files_with_deletes": int((stats["n_deleted"] > 0).sum()),
           "rows_deleted": int(stats["n_deleted"].sum())}
    counters.incr({"dv_files_total": res["files_total"],
                   "dv_files_with_deletes": res["files_with_deletes"],
                   "dv_rows_deleted": res["rows_deleted"]})
    return res


def read_with_deletes(
    path: str,
    *,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Scan a table masking out any :func:`positional_delete` vectors —
    one raw task per data file (``bsp.map_blocks``) reads the file
    (column-pruned) plus its (tiny) position vector and drops those rows
    with a boolean mask; files without a vector pass through.  Emits
    ``dvscan_files`` / ``dvscan_rows_masked`` counters.
    """
    import glob as _glob

    files = sorted(_glob.glob(os.path.join(path, "*.parquet")))
    dv_dir = os.path.join(path, "_deletes")
    counters.incr({"dvscan_files": len(files)})

    def one_file(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        masked = 0
        for f in b["file"]:
            t = pq.read_table(f, columns=columns)
            dv = os.path.join(dv_dir,
                              os.path.basename(f) + ".dv.parquet")
            if os.path.exists(dv):
                pos = pq.read_table(dv).column("pos").to_numpy(
                    zero_copy_only=False)
                keep = np.ones(t.num_rows, bool)
                keep[pos] = False
                masked += len(pos)
                t = t.filter(pa.array(keep))
            frames.append(t.to_pandas())
        if masked:
            counters.incr({"dvscan_rows_masked": masked})
        return pd.concat(frames, ignore_index=True)

    return map_blocks(Blocks.put([pa.table({"file": [f]}) for f in files]),
                      pandas_block(one_file)).dataset()


def vacuum_table(
    path: str,
    *,
    keep_last: int = 1,
) -> dict:
    """VACUUM for :func:`commit_version` tables: drop every manifest
    older than the newest ``keep_last`` versions and physically delete
    data files no kept manifest references — the storage-reclaim half
    of the Iceberg/Delta lifecycle (commit / time-travel / compact /
    delete-vectors / vacuum).  Without it a 100 TB table's overwrite
    churn retains every byte ever written.

    Driver work is O(files) NAMES only (manifest set-difference); no
    data bytes move.  Kept versions remain byte-identical readable via
    :func:`read_version`.  Returns {versions_kept, manifests_removed,
    files_removed} (also emitted as ``vacuum_*`` counters).
    """
    import glob as _glob

    if keep_last < 1:
        raise ValueError("vacuum_table: keep_last must be >= 1")
    versions = _log_versions(path)
    if not versions:
        raise ValueError(f"vacuum_table: no versions at {path}")
    kept, dropped = versions[-keep_last:], versions[:-keep_last]
    live: set[str] = set()
    for v in kept:
        live.update(pd.read_parquet(os.path.join(
            path, f"manifest_v{v:05d}.parquet"))["file"].tolist())
    n_removed = 0
    for f in _glob.glob(os.path.join(path, "commit_*", "*.parquet")):
        if os.path.relpath(f, path) not in live:
            os.remove(f)
            n_removed += 1
    for v in dropped:
        os.remove(os.path.join(path, f"manifest_v{v:05d}.parquet"))
    res = {"versions_kept": len(kept),
           "manifests_removed": len(dropped),
           "files_removed": n_removed}
    counters.incr({"vacuum_manifests_removed": res["manifests_removed"],
                   "vacuum_files_removed": res["files_removed"]})
    return res


def version_diff(
    path: str,
    v_old: int,
    v_new: int,
    *,
    cols: list[str],
    num_partitions: int = 32,
) -> "rd.Dataset":
    """Snapshot diff between two committed versions of a
    :func:`commit_version` table — the change-data-feed / audit readout
    ("what did last night's overwrite actually change?") that Delta's
    CDF and Iceberg's changelog scans provide.  SET semantics over
    ``cols``: rows of ``v_new`` absent from ``v_old`` are tagged
    ``'added'``, rows of ``v_old`` absent from ``v_new`` ``'removed'``;
    unchanged rows never appear.

    Both directions run through ``analytics.set_op_rows`` (per-batch
    distinct combiner -> one row-hash exchange -> per-partition merge
    indicator), so the diff streams at shuffle cost proportional to the
    DISTINCT rows of the two versions — no driver collect, no pairwise
    compare; manifests alone decide which files are even read.
    """
    from .analytics import set_op_rows

    old = read_version(path, v_old).select_columns(cols)
    new = read_version(path, v_new).select_columns(cols)

    def tag(label: str):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            b["change"] = label
            return b
        return fn

    added = set_op_rows(new, old, cols=cols, op="except",
                        num_partitions=num_partitions)
    removed = set_op_rows(old, new, cols=cols, op="except",
                          num_partitions=num_partitions)
    return (added.map_batches(tag("added"), batch_format="pandas")
            .union(removed.map_batches(tag("removed"),
                                       batch_format="pandas")))
