"""Hash-exchange equi-join, grouped aggregation and per-key pandas
passes as raw Ray tasks.

Ray 2.49's native operators carry large fixed costs at the sizes the KG
operators run many of: ``Dataset.join`` (JoinOperator) spins up a
hash-shuffle aggregator ACTOR POOL per plan (~1.5-1.9s per join-bearing
executor run at 16 CPUs, even for kilobyte inputs), and a grouped
``map_groups`` is a sort-based all-to-all (sample, sort-map,
sort-reduce) whose intermediate object count grows with the square of
its input block count.

``exchange_join``, ``exchange_agg`` and ``keyed_exchange`` instead tag
every row with a 63-bit hash of its key (the join pads both sides to
one Arrow schema; the aggregation optionally combines each block
first) and run ONE :func:`~.bsp.exchange_blocks`.  The padding, tagging
or combining is a block function of the exchange's source (a join has
two sources): it runs inside the raw task that splits each source
block by ``hash % P`` (at P=1, in the one reduce task), so it costs no
Ray Data execution of its own.  A caller's projection in front of an
exchange can ride along the same way: every helper takes a
``(Dataset, block_fn)`` pair where it takes a Dataset, and the pair's
function runs first in the same task.  Every helper also takes a LIST
of such sources where it takes one (a join, per side): their rows meet
in the one exchange as a ``union`` would, with no union execution.
Each source is materialized on its own (none, when it already is), the
partition count P is sized to the source blocks (one partition per
``DataContext.target_min_block_size``, at most ``num_partitions``), and
one task per partition runs the vectorized reduce.  Which helper
serves which reduce:

- ``exchange_join``: an equi-join (``pandas.merge`` over key columns
  and row positions, payloads gathered in Arrow);
- ``exchange_agg``: a decomposable min/max/sum/count or a DISTINCT
  (Arrow ``group_by``, with a per-block combiner);
- ``keyed_exchange``: any other per-key pass written over Arrow
  tables (as-of and range joins, Bloom-word ORs, wedge checks);
- ``keyed_apply``: the same written over pandas DataFrames (windows,
  dedup and curation marks, KNN top-k, merges and audits).

Every hash-keyed exchange in the package goes through one of these.
The range-keyed ones run on the same exchange at a fixed P, with the
range id as the int partition column: ``bsp.sort_blocks`` (the sorts
and prefix scans) and ``bsp.range_exchange`` (the range-cut file
writes), so no Ray ``Dataset.sort`` or ``map_groups`` is left.  That
is B split tasks and B*P objects for B source blocks (a two-level tree
past ``bsp.TREE_COMBINE_THRESHOLD``), and at P=1 just one reduce
task.
Measured on a 1-CPU host (BASELINE.md, "Exchange substrate"): one
``link_entities_join`` over materialized triples runs nine exchanges
and starts no Ray Data execution; with padding and projections run as
Ray Data maps in front of each exchange it started 23.

Partitioning assumption: one partition's rows fit in a worker; above
the cap partitions grow with the data, so raise ``num_partitions`` with
data size.  Each call is EAGER: it materializes its input and returns a
materialized dataset of TYPED Arrow blocks (empty partitions and empty
inputs included; left-outer payload misses are Arrow nulls, not pandas
NaN), so a result feeds further exchanges without a schema probe or
another materialization.  ``keyed_exchange`` cannot type a partition it
never calls ``reduce`` on, so it drops empty partitions instead.

An operator that chains exchanges calls ``join_blocks`` / ``agg_blocks``
(or ``bsp.exchange_blocks``): they return the reduce tasks' block refs
with each block's Ray metadata (``bsp.Blocks``), the next step's
source; a public operator wraps its output once (:func:`dataset_api`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..kernels.minhash import _hash_shingles

_SIDE = "_xj_side"
_PART = "_xj_part"
#: keyed_exchange's tag column (the name the hand-written exchanges it
#: replaced used, so their reserved-name error stays the same)
_KEYED_PART = "_part"


#: hash assigned to a NULL key element (any type) — a fixed arbitrary
#: odd constant so null keys co-partition deterministically
_NULL_KEY_HASH = np.uint64(0x9E3779B97F4A7C15)


#: version of ``_key_hash``'s output.  State persisted in its partition
#: layout (BSP checkpoints) records it and refuses to resume on a
#: mismatch.  2 = full-length string FNV (1 hashed the first 40 bytes).
_KEY_HASH_VERSION = 2


def _int_view(col) -> np.ndarray:
    """int64 values of an integer, temporal or bool column (nulls as 0).
    Temporal units are normalized first — timestamps and times to
    microseconds, dates to days — so equal instants typed at different
    units (pandas ns, parquet us) share a partition."""
    import pyarrow.compute as pc

    t = col.type
    if pa.types.is_timestamp(t):
        col = pc.cast(col, pa.timestamp("us", t.tz), safe=False)
    elif pa.types.is_date(t):
        col = pc.cast(col, pa.date32(), safe=False)
    elif pa.types.is_time(t):
        col = pc.cast(col, pa.time64("us"), safe=False)
    elif pa.types.is_duration(t):
        col = pc.cast(col, pa.duration("us"), safe=False)
    if pa.types.is_boolean(col.type):
        col = pc.cast(col, pa.int8())
    elif not pa.types.is_integer(col.type):  # the same-width int view
        col = pc.cast(col, pa.int32() if col.type.bit_width == 32
                      else pa.int64())
    if col.null_count:
        col = pc.fill_null(col, 0)
    return col.to_numpy(zero_copy_only=False).astype(np.int64)


def _key_hash(tbl: pa.Table, on: list[str]) -> np.ndarray:
    """Vectorized uint64 hash of the key tuple, columns combined with a
    rotate-xor: splitmix64 over the int64 view of integer, temporal and
    bool columns (:func:`_int_view`) and over the IEEE bits of floats.
    One branch covers string and binary keys (dictionary-encoded ones
    are decoded first): the placement FNV of
    :func:`~..kernels.minhash._hash_shingles` over each value's full
    bytes, read from the Arrow buffers, so IRIs sharing a long
    namespace prefix still spread and a string hashes as its utf-8
    bytes.  NULL key elements, masked from the validity bitmap, hash to
    a fixed constant on every type path — an int64 column with nulls
    must NOT round-trip through numpy float64 (ids above 2^53 would
    round, making a key's partition depend on which batch it shares
    with a null)."""
    import pyarrow.compute as pc

    from .analytics import splitmix64

    acc = np.zeros(len(tbl), np.uint64)
    for c in on:
        col = tbl.column(c)
        if pa.types.is_dictionary(col.type):
            col = pc.cast(col, col.type.value_type)
        typ = col.type
        if (pa.types.is_integer(typ) or pa.types.is_temporal(typ)
                or pa.types.is_boolean(typ)):
            h = splitmix64(_int_view(col))
        elif pa.types.is_floating(typ):
            # hash the IEEE bit pattern (equal float64 keys — including
            # +0.0 after the canonicalization below — share a partition)
            filled = pc.fill_null(col, 0.0) if col.null_count else col
            v = filled.to_numpy(zero_copy_only=False).astype(np.float64)
            v = v + 0.0  # -0.0 -> +0.0 so it groups with +0.0
            h = splitmix64(v.view(np.int64))
        else:
            h = _hash_shingles(col)
        if col.null_count:
            mask = pc.is_null(col).to_numpy(zero_copy_only=False)
            h = np.where(mask, _NULL_KEY_HASH, h)
        acc = ((acc << np.uint64(13)) | (acc >> np.uint64(51))) ^ h
    return acc


def _hash_col(tbl: pa.Table, on: list[str]) -> pa.Array:
    """The exchange partition column: the key hash as a non-negative
    int64, so the partition count can be chosen after tagging."""
    return pa.array((_key_hash(tbl, on) >> np.uint64(1)).astype(np.int64))


def as_arrow_schema(schema) -> pa.Schema:
    """Ray ``Dataset.schema()`` -> ``pa.Schema``.  A pandas-block-backed
    dataset (``from_pandas``) reports numpy dtypes / Python ``object``
    for strings instead of Arrow types; normalize so schema-driven
    operators (``exchange_join``, ``semi_join_bloom``) accept either."""
    fields = []
    for n, t in zip(schema.names, schema.types):
        if isinstance(t, pa.DataType):
            fields.append((n, t))
        elif t is object or t is str:
            fields.append((n, pa.string()))
        else:
            fields.append((n, pa.from_numpy_dtype(np.dtype(t))))
    return pa.schema(fields)


def join_out_schema(
    left_schema: pa.Schema,
    right_schema: pa.Schema,
    on: tuple[str, ...] | list[str] | str,
) -> pa.Schema:
    """The output schema ``exchange_join`` produces for these inputs —
    pass it back as a ``*_schema`` argument when chaining joins so the
    planner never runs a schema-probe execution on the lazy lineage."""
    on = [on] if isinstance(on, str) else list(on)
    keys = [(k, left_schema.types[left_schema.names.index(k)]) for k in on]
    pay = ([(n, t) for n, t in zip(left_schema.names, left_schema.types)
            if n not in on]
           + [(n, t) for n, t in zip(right_schema.names, right_schema.types)
              if n not in on])
    return pa.schema(keys + pay)


def _sources(src) -> list[tuple[object, object]]:
    """An exchange input as a list of ``(source, block_fn)`` pairs.  A
    source is a Dataset or a :class:`~.bsp.Blocks` (no block function),
    or a ``(source, block_fn)`` pair whose Arrow function maps each
    block before the exchange's own prologue runs on it, in the same
    split task (a projection costs no Ray Data execution); a list of
    these is the union of their rows, each materialized on its own."""
    srcs = src if isinstance(src, list) else [src]
    return [s if isinstance(s, tuple) else (s, None) for s in srcs]


def _then(fn, g):
    """``g`` after the source's block function ``fn`` (if any)."""
    return g if fn is None else (lambda t: g(fn(t)))


def dataset_api(op):
    """The public form of an operator that returns :class:`~.bsp.Blocks`:
    its output wrapped in a Dataset once, at the return (a Dataset
    output as it is).  ``op`` stays reachable as ``.blocks``, for callers
    that hand its blocks to the next raw-task step."""
    import functools

    @functools.wraps(op)
    def public(*args, **kwargs):
        out = op(*args, **kwargs)
        return out if isinstance(out, rd.Dataset) else out.dataset()

    public.blocks = op
    return public


@dataset_api
def exchange_agg(
    ds: rd.Dataset,
    keys: tuple[str, ...] | list[str] | str,
    aggs: list[tuple[str, str] | tuple[str, str, str]] = (),
    *,
    num_partitions: int = 32,
    combine: bool = True,
) -> rd.Dataset:
    """Grouped aggregation as hash exchange + vectorized Arrow reduce.

    Ray 2.49's ``Dataset.groupby(keys).aggregate(...)`` / ``.count()``
    reduces ONE PYTHON CALL PER KEY (measured here: 5.0s vs 0.85s for
    this helper on a 360k-row / 120k-key min — and 153s vs <2s on a
    48k-key two-string-column distinct, NOTES_r3).  This helper runs the
    same logical aggregation as: optional per-block Arrow ``group_by``
    combiner -> ONE :func:`~.bsp.exchange_blocks` on the key hash ->
    per-partition Arrow ``group_by`` (C++ hash aggregation, vectorized
    across every key in the partition).  ``num_partitions`` caps the
    sized partition count.

    ``aggs``: ``(col, fn)`` or ``(col, fn, out_name)`` with fn in
    ``min | max | sum | count`` (count re-aggregates as sum of partial
    counts).  Empty ``aggs`` = DISTINCT over the key columns.  Output
    columns: keys + out names.  ``combine=True`` (all supported fns are
    decomposable) shrinks each source block to its distinct keys in the
    task that splits it, so shuffle volume is per-block-distinct, not
    raw rows.  ``ds`` may be a ``(Dataset, block_fn)`` pair or a list
    of sources (module docstring).
    """
    from .bsp import exchange_blocks

    keys = [keys] if isinstance(keys, str) else list(keys)
    norm: list[tuple[str, str, str]] = []
    seen_out: set[str] = set(keys)
    for a in aggs:
        col, fn = a[0], a[1]
        out = a[2] if len(a) > 2 else col
        if fn not in ("min", "max", "sum", "count"):
            raise ValueError(f"unsupported agg fn {fn!r}")
        if out in seen_out:
            # two aggs defaulting to the same out name would silently
            # keep only the last one in the reduce's dict-build
            raise ValueError(
                f"duplicate output column {out!r} — give each agg an "
                "explicit out name")
        if out == _PART:
            raise ValueError(
                f"output name {_PART!r} is reserved by the exchange")
        seen_out.add(out)
        norm.append((col, fn, out))
    if _PART in keys:
        raise ValueError(f"key name {_PART!r} is reserved by the exchange")

    def _agg(t: pa.Table, specs: list[tuple[str, str, str]]) -> pa.Table:
        g = t.group_by(keys).aggregate([(c, fn) for c, fn, _ in specs])
        cols = {k: g.column(k) for k in keys}
        for c, fn, out in specs:
            cols[out] = g.column(f"{c}_{fn}")
        return pa.table(cols) if cols else g

    # after the combiner, partial columns carry the OUT name and partial
    # counts re-aggregate as sums; without it the reduce applies the
    # original fn to the (renamed) raw column
    reduce_specs = [
        (out, ("sum" if fn == "count" else fn) if combine else fn, out)
        for _, fn, out in norm]

    def part_of(t: pa.Table) -> pa.Table:
        return t.append_column(_PART, _hash_col(t, keys))

    def combine_batch(t: pa.Table) -> pa.Table:
        return part_of(_agg(t, norm))

    def tag_batch(t: pa.Table) -> pa.Table:
        cols = {k: t.column(k) for k in keys}
        for c, fn, out in norm:
            cols[out] = t.column(c)
        return part_of(pa.table(cols))

    def reduce_part(t: pa.Table) -> pa.Table:
        t = t.drop_columns([_PART])
        if not reduce_specs:
            return t.group_by(keys).aggregate([])
        return _agg(t, reduce_specs)

    first = combine_batch if combine else tag_batch
    return exchange_blocks([(src, _then(fn, first))
                            for src, fn in _sources(ds)],
                           _PART, reduce_part, max_parts=num_partitions)


#: :func:`exchange_agg` with its output as :class:`~.bsp.Blocks`
agg_blocks = exchange_agg.blocks


def keyed_exchange(
    ds: rd.Dataset,
    keys: tuple[str, ...] | list[str] | str,
    reduce,
    *,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Run the Arrow ``reduce`` on each hash partition of ``keys``: every
    row of a key reaches the same call, together with the other keys of
    its partition, so one vectorized pass serves them all.

    Rows are tagged with the key hash (``_part``, the column
    :func:`_hash_col` computes) in the tasks that split the source
    blocks and moved by ONE :func:`~.bsp.exchange_blocks`, with
    ``num_partitions`` the cap on the sized partition count; ``ds`` may
    be a ``(Dataset, block_fn)`` pair or a list of sources (module
    docstring).  ``reduce`` takes the partition's rows as an Arrow table
    without the tag and returns an Arrow table.  It is never called on
    an empty partition: a partition with no rows adds no output block,
    and an empty input gives a dataset with no blocks.  Zero-row
    outputs are dropped too,
    except that when no call returns a row the first typed one is kept,
    so the empty result still has the reduce's schema.  The output is
    materialized.  An input column named ``_part`` raises.
    """
    from .bsp import exchange_blocks

    keys = [keys] if isinstance(keys, str) else list(keys)

    def tag(t: pa.Table) -> pa.Table:
        # the schema derivation runs this on the driver first, so a
        # reserved name raises there as a plain ValueError
        if _KEYED_PART in t.column_names:
            raise ValueError(
                f"column name {_KEYED_PART!r} is reserved by the keyed "
                "exchange — rename it")
        return t.append_column(_KEYED_PART, _hash_col(t, keys))

    def reduce_part(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table({})
        return reduce(t.drop_columns([_KEYED_PART]))

    out = exchange_blocks([(src, _then(fn, tag)) for src, fn in _sources(ds)],
                          _KEYED_PART, reduce_part, max_parts=num_partitions)
    metas = out.metas()
    live = [i for i, m in enumerate(metas) if m.num_rows]
    if not live:
        live = [i for i, m in enumerate(metas) if len(m.schema)][:1]
    return out.subset(live).dataset()


def keyed_apply(
    ds: rd.Dataset,
    keys: tuple[str, ...] | list[str] | str,
    per_part,
    *,
    num_partitions: int = 64,
) -> rd.Dataset:
    """:func:`keyed_exchange` with a pandas ``per_part``: it takes the
    partition's rows as a DataFrame and returns a DataFrame, converted
    to Arrow."""

    return keyed_exchange(ds, keys, pandas_block(per_part),
                          num_partitions=num_partitions)


def pandas_block(fn):
    """The pandas ``fn`` (DataFrame -> DataFrame) as an Arrow table
    function: a source's block function or a keyed reduce.  An object
    column with no value comes back null-typed; the exchange keeps the
    type of the blocks that have values (:func:`~.bsp._as_table`)."""

    def block_fn(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(fn(t.to_pandas()), preserve_index=False)

    return block_fn


@dataset_api
def exchange_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    on: tuple[str, ...] | list[str] | str,
    how: str = "inner",
    num_partitions: int = 32,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Equi-join ``left`` with ``right`` on the shared key column(s).

    ``how``: "inner", "left_outer" or "full_outer".  Payload column
    names must be disjoint between the sides (same contract as the
    native join call sites here); key columns must exist on both sides
    with identical names.  Output columns: keys + left payload + right
    payload, typed per the input schemas (right payload nullable under
    left_outer; both payloads nullable under full_outer, where key
    columns are coalesced from whichever side matched).  Row order is
    not defined (hash-partitioned), matching Dataset.join.

    A side is a Dataset or a ``(Dataset, block_fn)`` pair: the pair's
    Arrow function maps each block of the side (a projection or rename)
    in the task that pads and splits it.  A side may also be a list of
    these, the union of their rows.  Each source is materialized on its
    own, with no Ray Data execution when it already is; the padding
    runs in the split tasks.  ``left_schema``/``right_schema`` are the
    sides' schemas after their block functions: pass them explicitly
    when a side is a lazy lineage — otherwise ``.schema()`` runs a
    schema-probe execution of it.  The output (see the module
    docstring) is materialized and typed per ``join_out_schema``, even
    when empty; ``num_partitions`` caps the exchange's sized partition
    count.  ``columns`` (None: all) keeps only those output columns, in
    that order, chosen in the join's reduce tasks.

    Semantics deviation from Dataset.join / SQL, by contract: NULL
    join keys MATCH each other (they co-partition via a fixed hash and
    pandas-merge treats them as equal) — callers with nullable keys
    that need SQL null semantics must filter nulls first.  No oracled
    path here carries null keys.
    """
    from .bsp import exchange_blocks

    if how not in ("inner", "left_outer", "full_outer"):
        raise ValueError(f"unsupported how={how!r}")
    on = [on] if isinstance(on, str) else list(on)
    left, ls = _join_side(left, left_schema)
    right, rs = _join_side(right, right_schema)

    def _family(t: pa.DataType) -> str:
        if pa.types.is_integer(t):
            return "int"
        if pa.types.is_floating(t):
            return "float"
        return "other"

    key_types = {}
    for k in on:
        if k not in ls.names or k not in rs.names:
            raise ValueError(f"join key {k!r} missing from one side")
        lt = ls.types[ls.names.index(k)]
        rt = rs.types[rs.names.index(k)]
        if _family(lt) != _family(rt):
            # int vs float keys hash on DIFFERENT code paths (value vs
            # IEEE bits) — equal-valued keys would never co-partition,
            # silently returning an empty/partial join; refuse loudly
            raise ValueError(
                f"join key {k!r} type family mismatch: {lt} vs {rt} — "
                "cast both sides to one family first")
        key_types[k] = lt
    out_schema = join_out_schema(ls, rs, on)
    if columns is not None:
        out_schema = pa.schema([out_schema.field(c) for c in columns])
    l_fields = [(n, t) for n, t in zip(ls.names, ls.types) if n not in on]
    r_fields = [(n, t) for n, t in zip(rs.names, rs.types) if n not in on]
    overlap = {n for n, _ in l_fields} & {n for n, _ in r_fields}
    if overlap:
        raise ValueError(f"payload column collision: {sorted(overlap)}")
    reserved = {_SIDE, _PART} & (set(ls.names) | set(rs.names))
    if reserved:
        raise ValueError(
            f"column names {sorted(reserved)} are reserved by "
            "exchange_join's internal padding — rename them")
    all_fields = l_fields + r_fields
    l_names = [n for n, _ in l_fields]
    r_names = [n for n, _ in r_fields]

    def pad(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            # cast to the declared types so .take() outputs match the
            # output schema exactly (e.g. a large_string block)
            cols: dict = {k: batch.column(k).cast(key_types[k]) for k in on}
            for name, typ in all_fields:
                if name in batch.column_names:
                    cols[name] = batch.column(name).cast(typ)
                else:
                    # merge_part gathers each side's payload from that
                    # side's rows only: the filler is never read
                    cols[name] = pa.nulls(n, typ)
            cols[_SIDE] = pa.array(np.full(n, side, np.int8))
            cols[_PART] = _hash_col(batch, on)
            return pa.table(cols)

        return fn

    def merge_part(g: pa.Table) -> pa.Table:
        # pandas only sees the KEY columns plus row positions — payloads
        # never round-trip through pandas, so a null-padded int64 payload
        # can't be coerced to float64 (which silently corrupts 63-bit
        # ids); matched rows are then .take()n from the Arrow sides.
        side = g.column(_SIDE)
        import pyarrow.compute as pc

        lmask = pc.equal(side, 0)
        L = g.filter(lmask)
        R = g.filter(pc.invert(lmask))
        def key_series(col):
            # a NULLABLE int64 key would round-trip to float64 and
            # round ids above 2^53 (the exact corruption the payload
            # .take() path avoids) — object-dtype ints preserve all 64
            # bits; the null-free fast path stays zero-copy int64
            if (pa.types.is_integer(col.type) and col.null_count):
                return col.to_pandas(integer_object_nulls=True)
            return col.to_pandas()

        ldf = pd.DataFrame({k: key_series(L.column(k)) for k in on})
        ldf["_li"] = np.arange(len(L), dtype=np.int64)
        rdf = pd.DataFrame({k: key_series(R.column(k)) for k in on})
        rdf["_ri"] = np.arange(len(R), dtype=np.int64)
        m = ldf.merge(rdf, on=on,
                      how={"inner": "inner", "left_outer": "left",
                           "full_outer": "outer"}[how])
        # under an outer merge an unmatched index is NaN; a NULL
        # take-index yields a null output element — exactly the
        # outer-join semantics
        li = pa.Array.from_pandas(m["_li"], type=pa.int64())
        ri = pa.Array.from_pandas(m["_ri"], type=pa.int64())
        cols: dict = {}
        for k in on:
            if how == "full_outer":
                # right-only rows have a null left index: take the key
                # from whichever side actually matched
                cols[k] = pc.coalesce(L.column(k).combine_chunks().take(li),
                                      R.column(k).combine_chunks().take(ri))
            else:
                cols[k] = L.column(k).take(li)
        for n_ in l_names:
            cols[n_] = L.column(n_).take(li)
        for n_ in r_names:
            cols[n_] = R.column(n_).take(ri)
        return pa.table([cols[f.name] for f in out_schema],
                        schema=out_schema)

    # the two sides are the exchange's two sources, each padded in the
    # tasks that split its blocks.  Each side is materialized on its own:
    # Ray executing both lineages as one union (an all-to-all op in one
    # of them) deadlocks on a one-CPU cluster
    padded = pa.schema(
        [(k, key_types[k]) for k in on] + all_fields
        + [(_SIDE, pa.int8()), (_PART, pa.int64())])
    return exchange_blocks(
        [(src, _then(fn, pad(0))) for src, fn in left]
        + [(src, _then(fn, pad(1))) for src, fn in right],
        _PART, merge_part, padded, max_parts=num_partitions)


#: :func:`exchange_join` with its output as :class:`~.bsp.Blocks`
join_blocks = exchange_join.blocks


def _join_side(side, declared: pa.Schema | None):
    """An ``exchange_join`` side as ``(sources, schema)``: the side is
    an exchange input (:func:`_sources`), and its schema is ``declared``
    or, when that is None, its first source's (through the block
    function: applied to its empty table)."""
    srcs = _sources(side)
    if declared is None:
        src, fn = srcs[0]
        declared = as_arrow_schema(src.schema())
        if fn is not None:
            declared = fn(declared.empty_table()).schema
    return srcs, as_arrow_schema(declared)
