"""Stationary-partition BSP engine for iterative graph algorithms.

This is the one distributed engine behind PageRank, connected
components, label propagation and HITS.  A Dataset-exchange formulation
would re-shuffle the FULL edge table through every iteration's join and
pay one executor-plan spin-up per iteration (~1.5-2s fixed at bench
scale); at 100 TB that is 10x the necessary shuffle volume for a
10-iteration run.

This module pins the edge set ONCE: a single raw-task exchange splits
the (factor-attached) edges into ``num_parts`` hash partitions kept as
object-store refs, then every iteration runs as plain Ray tasks over
those stationary partitions — only the small per-node state (ranks /
labels, O(nodes) rows) moves between iterations.  This is where the
repo drops below the Dataset API: Ray Data cannot express "keep this
partitioning resident across N dependent executions" (each Dataset
execution re-plans its exchanges), which is exactly the BSP contract
iterative graph algorithms need.  The same split/route/reduce tasks
also serve one-shot exchanges sized to their input: ``hash_exchange``
(under ``exchange_join`` / ``exchange_agg`` / ``keyed_apply``) and
``two_phase_reduce`` (the salted dedup and LSH pair exchanges).

Partitioning assumptions / scale shape:
- edges are hash-partitioned on src; per-node state on the same hash,
  so the edge-state join inside a task is complete without probing
  other partitions.
- each phase creates ``num_parts ** 2`` small objects (per-task
  ``num_returns=num_parts`` splits) at num_parts <= ``
  TREE_COMBINE_THRESHOLD`` (512).  Beyond that the phase exchange
  switches automatically to a TWO-LEVEL tree combine: map tasks split
  into G = ceil(P / ceil(sqrt(P))) destination GROUPS (num_returns=G),
  one regroup task per group concatenates its P slices — in source-
  partition order, so every downstream reduction sees the exact same
  row order as the flat exchange and stays bit-identical — and
  re-splits into the group's member partitions.  Objects per phase:
  P*G + P = O(P^1.5) instead of P^2 (P=4096: ~266k vs 16.8M).
  ``tree_combine=True/False`` on each algorithm forces the mode for
  parity tests.
- partition refs live in the object store and spill like any block;
  nothing materializes on the driver except O(num_parts) scalars per
  round (convergence sums).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from .exchange import _KEY_HASH_VERSION, _key_hash


#: above this partition count a phase exchange switches from the flat
#: P x P split to the two-level tree combine (see module docstring)
TREE_COMBINE_THRESHOLD = 512


def _fan_plan(num_parts: int,
              tree_combine: bool | None = None) -> tuple[int, int] | None:
    """(group_size, n_groups) for the tree combine, or None for the flat
    exchange.  ``tree_combine`` forces the mode; None = auto by
    ``TREE_COMBINE_THRESHOLD``."""
    import math

    if tree_combine is False or num_parts <= 1:
        return None
    if tree_combine is None and num_parts <= TREE_COMBINE_THRESHOLD:
        return None
    gsz = math.ceil(math.sqrt(num_parts))
    n_groups = math.ceil(num_parts / gsz)
    if n_groups <= 1:
        # P=2 forced: one group == a pointless full concat, and fan==1
        # would break the bare-ref num_returns contract — stay flat
        return None
    return gsz, n_groups


def _empty_like(schema: pa.Schema) -> pa.Table:
    return schema.empty_table()


def _rets(out: tuple, num_parts: int):
    """num_returns=1 does not unpack a returned tuple: hand back the bare
    element when there is only one partition."""
    return out[0] if num_parts == 1 else out


def _split(tbl: pa.Table, key_cols: list[str], num_parts: int,
           group_size: int | None = None) -> tuple:
    """Hash split into num_parts partitions — or, with ``group_size``,
    into ceil(num_parts/group_size) GROUP buckets where group j owns
    partitions [j*group_size, (j+1)*group_size) (the tree-combine map
    side; the per-partition hash is identical, only the bucketing
    coarsens, so regroup + member filter reproduces the flat split
    exactly)."""
    h = (_key_hash(tbl, key_cols) % np.uint64(num_parts)).astype(np.int64)
    if group_size is None:
        return tuple(tbl.filter(pa.array(h == p))
                     for p in range(num_parts))
    b = h // group_size
    fan = -(-num_parts // group_size)
    return tuple(tbl.filter(pa.array(b == j)) for j in range(fan))


@ray.remote
def _regroup_task(j: int, gsz: int, num_parts: int, key_cols: list[str],
                  schema: pa.Schema, *slices: pa.Table):
    """Tree-combine middle level: concatenate group j's slices from every
    source partition (IN SOURCE ORDER — downstream reductions then see
    the same row order as the flat exchange, keeping float sums
    bit-identical) and split into the group's member partitions."""
    members = list(range(j * gsz, min((j + 1) * gsz, num_parts)))
    live = [t for t in slices if t is not None and t.num_rows]
    if not live:
        out = tuple(_empty_like(schema) for _ in members)
    else:
        cat = pa.concat_tables(live).combine_chunks()
        h = (_key_hash(cat, key_cols)
             % np.uint64(num_parts)).astype(np.int64)
        out = tuple(cat.filter(pa.array(h == q)) for q in members)
    return out[0] if len(members) == 1 else out


def _route(task_refs: list, num_parts: int,
           plan: tuple[int, int] | None, submit_regroup) -> list[list]:
    """Shared tree/flat routing for one phase's fanned map outputs.

    ``task_refs``: one entry per source — a tuple of refs of length fan
    (P flat / G tree), or the bare ref when fan == 1.
    ``submit_regroup(j, n_members, slices)``: submits the middle-level
    regroup task for group j (hash- or mod-split law — the ONLY thing
    that differs between the two exchange flavors).  Returns
    ``dest[q]`` = list of partial refs for partition q (one per source
    in flat mode, exactly 1 in tree mode)."""
    P = num_parts
    if plan is None:
        refs = [[r] for r in task_refs] if P == 1 else task_refs
        return [[refs[p][q] for p in range(len(refs))] for q in range(P)]
    gsz, n_groups = plan
    mids: list[list] = []
    for j in range(n_groups):
        n_members = min((j + 1) * gsz, P) - j * gsz
        m = submit_regroup(
            j, n_members,
            [task_refs[p][j] for p in range(len(task_refs))])
        mids.append([m] if n_members == 1 else list(m))
    return [[mids[q // gsz][q % gsz]] for q in range(P)]


def _phase_exchange(task_refs: list, num_parts: int,
                    plan: tuple[int, int] | None,
                    key_cols: list[str], schema: pa.Schema) -> list[list]:
    """:func:`_route` with the hash-split regroup (BSP phase law)."""
    gsz = plan[0] if plan else None
    return _route(
        task_refs, num_parts, plan,
        lambda j, n, slices: _regroup_task.options(num_returns=n).remote(
            j, gsz, num_parts, key_cols, schema, *slices))


@ray.remote
def _split_task(tbl: pa.Table, key_cols: list[str], num_parts: int,
                schema: pa.Schema, gsz: int | None = None):
    # map_groups lineages can emit empty zero-COLUMN blocks (Ray 2.49
    # artifact); replace them with typed empties so downstream phases
    # always see the declared schema
    fan = num_parts if gsz is None else -(-num_parts // gsz)
    if tbl.num_rows == 0 or any(c not in tbl.column_names for c in key_cols):
        out = tuple(_empty_like(schema) for _ in range(fan))
    else:
        out = _split(tbl.select(schema.names), key_cols, num_parts, gsz)
    # num_returns=1 does NOT unpack a returned tuple — the single object
    # must be the bare table
    return out[0] if fan == 1 else out


@ray.remote
def _concat_task(schema: pa.Schema, *tbls: pa.Table) -> pa.Table:
    live = [t for t in tbls if t is not None and t.num_rows]
    if not live:
        return _empty_like(schema)
    return pa.concat_tables(live).combine_chunks()


def dataset_to_part_refs(
    ds: rd.Dataset, key_cols: list[str] | str, num_parts: int,
    schema: pa.Schema, tree_combine: bool | None = None,
) -> list[ray.ObjectRef]:
    """One raw-task hash exchange: Dataset blocks -> ``num_parts``
    object-store refs of Arrow tables partitioned on ``key_cols``.

    The input dataset is materialized (its blocks become the map side);
    the returned refs are the stationary partitions every subsequent
    BSP phase reads in place.  Past ``TREE_COMBINE_THRESHOLD``
    partitions this initial exchange trees too (B*sqrt(P) + P objects
    instead of B*P — with B ~ input-size/block-size, the B*P term is
    the larger blowup at real scale).
    """
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    blocks = ds.materialize().to_arrow_refs()
    if not blocks:
        empty = ray.put(_empty_like(schema))
        return [empty for _ in range(num_parts)]
    plan = _fan_plan(num_parts, tree_combine)
    fan = num_parts if plan is None else plan[1]
    gsz = None if plan is None else plan[0]
    splits = [
        _split_task.options(num_returns=fan).remote(
            b, key_cols, num_parts, schema, gsz)
        for b in blocks
    ]
    dest = _phase_exchange(splits, num_parts, plan, key_cols, schema)
    return [
        _concat_task.remote(schema, *dest[p])
        for p in range(num_parts)
    ]


def _as_table(tbl, schema: pa.Schema | None) -> pa.Table:
    """One exchange input block as an Arrow table: pandas blocks (from
    ``from_pandas`` or a pandas ``map_batches``) convert, and with a
    declared ``schema`` a block typed otherwise is cast to it — except
    where the declared type is Arrow ``null``.  Ray declares a dataset's
    schema from one block, so a column that is all-null there (pandas
    ``None``) would fail the cast of every block holding values; such a
    column keeps each block's own type, and :func:`_concat` promotes."""
    if isinstance(tbl, pd.DataFrame):
        tbl = pa.Table.from_pandas(tbl, preserve_index=False)
    if schema is not None and tbl.schema != schema:
        tbl = tbl.select(schema.names)
        tbl = tbl.cast(pa.schema(
            [tbl.schema.field(f.name) if pa.types.is_null(f.type) else f
             for f in schema], metadata=schema.metadata))
    return tbl


def _concat(tbls: tuple, schema: pa.Schema | None) -> pa.Table:
    """One partition's slices as one table, a column null-typed in some
    slices taking the type of the others; the empty ``schema`` table
    when no slice has rows (``schema`` None: the first slice)."""
    live = [_as_table(t, schema) for t in tbls if len(t)]
    if live:
        return pa.concat_tables(live, promote_options="permissive")
    return schema.empty_table() if schema is not None else tbls[0]


@ray.remote
def _split_col_task(tbl: pa.Table, col: str, num_parts: int,
                    gsz: int | None = None,
                    schema: pa.Schema | None = None):
    """Split a block by an existing int partition column — into
    partitions (``v % P``), or into tree-combine groups
    (``(v % P) // gsz``) when ``gsz`` is given."""
    tbl = _as_table(tbl, schema)
    v = tbl.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
    if gsz is None:
        return tuple(tbl.filter(pa.array(v % num_parts == p))
                     for p in range(num_parts))
    b = (v % num_parts) // gsz
    fan = -(-num_parts // gsz)
    return tuple(tbl.filter(pa.array(b == j)) for j in range(fan))


@ray.remote
def _mod_regroup_task(j: int, gsz: int, num_parts: int, col: str,
                      *slices: pa.Table):
    """Tree-combine middle level for MOD-partitioned columns (the
    two_phase_reduce split law): concat group j's slices in source
    order, re-split into member partitions by ``v % P``."""
    members = list(range(j * gsz, min((j + 1) * gsz, num_parts)))
    live = [t for t in slices if t is not None and t.num_rows]
    if not live:
        out = tuple(slices[0].slice(0, 0) for _ in members)
    else:
        cat = pa.concat_tables(live).combine_chunks()
        v = cat.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
        out = tuple(cat.filter(pa.array(v % num_parts == q))
                    for q in members)
    return out[0] if len(members) == 1 else out


def _mod_exchange(task_refs: list, num_parts: int,
                  plan: tuple[int, int] | None, col: str) -> list[list]:
    """:func:`_route` with the mod-split regroup (two_phase_reduce law)."""
    gsz = plan[0] if plan else None
    return _route(
        task_refs, num_parts, plan,
        lambda j, n, slices: _mod_regroup_task.options(
            num_returns=n).remote(j, gsz, num_parts, col, *slices))


@ray.remote
def _reduce_split_task(reduce_fn, col: str, num_parts: int,
                       gsz: int | None, *tbls: pa.Table):
    """Concat one partition's slices, reduce, and re-split the result by
    the NEXT phase's partition column — the middle stage of a two-phase
    exchange fused into one task (``gsz``: split into tree-combine
    groups instead of partitions)."""
    red = reduce_fn(_concat(tbls, None))
    if num_parts == 1:
        return red
    v = red.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
    if gsz is None:
        return tuple(red.filter(pa.array(v % num_parts == q))
                     for q in range(num_parts))
    b = (v % num_parts) // gsz
    fan = -(-num_parts // gsz)
    return tuple(red.filter(pa.array(b == j)) for j in range(fan))


@ray.remote
def _reduce_task(reduce_fn, schema: pa.Schema | None,
                 *tbls: pa.Table) -> pa.Table:
    return reduce_fn(_concat(tbls, schema))


def sized_parts(input_bytes: int, cap: int, part_bytes: int) -> int:
    """Partition count for ``input_bytes`` of exchange input: one
    partition per ``part_bytes`` (rounded up), clamped to ``[1, cap]``."""
    return max(1, min(cap, -(-input_bytes // part_bytes)))


def _partition(
    ds: rd.Dataset,
    part_col: str,
    *,
    num_parts: int | None,
    max_parts: int,
    tree_combine: bool | None = None,
    schema: pa.Schema | None = None,
) -> tuple[int, tuple[int, int] | None, list[list]]:
    """The shared first exchange phase: materialize ``ds``, size P, and
    split its non-empty blocks by ``part_col % P``.

    Returns ``(P, plan, dest)`` with ``dest[q]`` the refs of partition
    q's slices.  P is ``num_parts`` when given, else one partition per
    ``DataContext.target_min_block_size`` of input within
    ``[1, max_parts]`` (:func:`sized_parts`).  Zero-row blocks (Ray can
    emit them schema-less) are dropped; at P=1 the blocks go to the one
    reduce task unsplit."""
    blocks, input_bytes = [], 0
    for bundle in ds.materialize().iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows == 0:
                continue
            blocks.append(ref)
            if input_bytes is not None and meta.size_bytes is not None:
                input_bytes += meta.size_bytes
            else:
                input_bytes = None  # block sizes not recorded
    if not blocks:
        return 1, None, [[]]
    P = num_parts
    if P is None:
        P = max_parts if input_bytes is None else sized_parts(
            input_bytes, max_parts,
            rd.DataContext.get_current().target_min_block_size)
    plan = _fan_plan(P, tree_combine)
    if P == 1:
        return P, plan, [blocks]
    fan = P if plan is None else plan[1]
    gsz = None if plan is None else plan[0]
    splits = [_split_col_task.options(num_returns=fan).remote(
                  b, part_col, P, gsz, schema)
              for b in blocks]
    return P, plan, _mod_exchange(splits, P, plan, part_col)


def hash_exchange(
    ds: rd.Dataset,
    part_col: str,
    reduce_fn,
    schema: pa.Schema,
    *,
    max_parts: int,
) -> rd.Dataset:
    """One hash exchange + a vectorized per-partition reduce as RAW Ray
    tasks — the exchange under ``exchange_join``, ``exchange_agg``,
    ``keyed_apply`` and the linker's distinct and top-1 steps.

    ``ds`` rows carry ``part_col``, a non-negative int64 hash of the
    key; rows land in partition ``part_col % P``, so every key's rows
    meet in one partition at every P.  ``schema`` is ``ds``'s declared
    schema: blocks are normalized to it, and a partition with no rows
    reduces the empty ``schema`` table, so every output block (and the
    output of an empty input) is typed.  ``reduce_fn`` maps one
    partition's Arrow table to an Arrow table.

    Cost: B split tasks with P returns each plus P reduce tasks for B
    input blocks (no split tasks at P=1), with P sized as in
    :func:`two_phase_reduce` and ``max_parts`` as the cap.  Past
    ``TREE_COMBINE_THRESHOLD`` partitions the split trees.  The output
    is materialized.
    """
    P, _, dest = _partition(ds, part_col, num_parts=None,
                            max_parts=max_parts, schema=schema)
    return rd.from_arrow_refs(
        [_reduce_task.remote(reduce_fn, schema, *dest[q]) for q in range(P)])


def two_phase_reduce(
    ds: rd.Dataset,
    p1_col: str,
    p2_col: str,
    reduce1,
    reduce2,
    *,
    num_parts: int | None = None,
    max_parts: int = 32,
    tree_combine: bool | None = None,
) -> rd.Dataset:
    """Two chained hash exchanges + vectorized reduces as RAW Ray tasks.

    The input's materialized blocks are split by the precomputed
    ``p1_col`` (the :func:`hash_exchange` first phase), each partition
    reduced and re-split by ``p2_col`` inside ONE task, and the
    second-phase partitions reduced to the output refs — no executor
    barriers between phases.  ``reduce1`` must emit ``p2_col``;
    ``reduce2`` receives the concatenated second-phase partition.

    Scale shape: each phase costs ~B*P + P^2 objects and 2P + B tasks
    for B input blocks, so P is sized to the materialized input rather
    than fixed: one partition per ``DataContext.target_min_block_size``
    (1 MiB) of input, at least 1 and at most ``max_parts``
    (:func:`sized_parts`).  Below the cap a partition holds about 1 MiB;
    above it partitions grow with the data and one must still fit in a
    worker.  An explicit ``num_parts`` bypasses the sizing (parity
    tests, callers that need a fixed partitioning).  Both phases split
    on key-determined columns (``v % P``), so reduces that are complete
    per key give the same rows at every P, only in another order.  Past
    ``TREE_COMBINE_THRESHOLD`` partitions both exchanges switch to the
    two-level tree combine (mod-split variant of the BSP phase tree —
    (B+P)*sqrt(P) objects instead of B*P + P^2); source-order concat
    keeps the reduces bit-identical, and ``tree_combine`` forces the
    mode for parity tests.
    """
    P, plan, dest1 = _partition(ds, p1_col, num_parts=num_parts,
                                max_parts=max_parts,
                                tree_combine=tree_combine)
    if not dest1[0]:
        raise ValueError("two_phase_reduce: empty input dataset")
    fan = P if plan is None else plan[1]
    gsz = None if plan is None else plan[0]
    mid = [
        _reduce_split_task.options(num_returns=fan).remote(
            reduce1, p2_col, P, gsz, *dest1[p])
        for p in range(P)
    ]
    dest2 = _mod_exchange(mid, P, plan, p2_col)
    out = [
        _reduce_task.remote(reduce2, None, *dest2[q])
        for q in range(P)
    ]
    return rd.from_arrow_refs(out)


# ------------------------------------------------- checkpoint helpers

#: on-disk checkpoint layout version (``_ckpt_meta``)
_CKPT_FORMAT = 1


def _ckpt_meta(num_parts: int) -> dict:
    """What a checkpoint must match to be resumed: its layout, the key
    hash that placed each state row in its partition, and the
    partition count."""
    return {"format": _CKPT_FORMAT, "hash_version": _KEY_HASH_VERSION,
            "num_parts": num_parts}


@ray.remote
def _ckpt_write_task(tbl: pa.Table, d: str, p: int) -> int:
    import pyarrow.parquet as pq

    pq.write_table(tbl, os.path.join(d, f"part_{p:05d}.parquet"))
    return tbl.num_rows


def _ckpt_complete_iters(checkpoint_dir: str | None) -> list[int]:
    """Iterations with a complete (``_DONE``-marked) checkpoint."""
    if not checkpoint_dir or not os.path.isdir(checkpoint_dir):
        return []
    out = []
    for name in os.listdir(checkpoint_dir):
        if name.startswith("iter_") and os.path.exists(
                os.path.join(checkpoint_dir, name, "_DONE")):
            out.append(int(name[len("iter_"):]))
    return sorted(out)


def _ckpt_write(parts: list, checkpoint_dir: str, t: int,
                num_parts: int) -> None:
    """Persist one iteration's state partitions as Parquet, a
    ``_META.json`` stamp (``_ckpt_meta``) and an atomically-renamed
    ``_DONE`` marker (the resume contract: a dir without the marker is
    an aborted write and is ignored)."""
    d = os.path.join(checkpoint_dir, f"iter_{t}")
    os.makedirs(d, exist_ok=True)
    ray.get([_ckpt_write_task.remote(parts[p], d, p)
             for p in range(num_parts)])
    with open(os.path.join(d, "_META.json"), "w") as fh:
        json.dump(_ckpt_meta(num_parts), fh)
    marker = os.path.join(d, "_DONE")
    tmp = marker + ".tmp"
    open(tmp, "w").close()
    os.replace(tmp, marker)


@ray.remote
def _ckpt_load_task(d: str, p: int) -> pa.Table:
    import pyarrow.parquet as pq

    return pq.read_table(os.path.join(d, f"part_{p:05d}.parquet"))


def _ckpt_load(checkpoint_dir: str, t: int, num_parts: int) -> list:
    """Restore one iteration's partitions as refs — loaded by remote
    tasks (parallel, never materialized on the driver; at real scale
    the state is O(nodes) x num_parts and the driver only holds refs).

    Raises if the checkpoint's partition count differs from
    ``num_parts``, or if its ``_META.json`` is missing or differs from
    this run's ``_ckpt_meta``: state partitions are hash-co-partitioned
    with the edge partitions, so resuming at a different P or under a
    different key hash would silently break every co-partitioned
    join."""
    d = os.path.join(checkpoint_dir, f"iter_{t}")
    n_files = len([f for f in os.listdir(d)
                   if f.startswith("part_") and f.endswith(".parquet")])
    if n_files != num_parts:
        raise ValueError(
            f"checkpoint {d} has {n_files} partitions but the run uses "
            f"num_parts={num_parts}; resume with the original partition "
            "count (state is hash-co-partitioned with the edges)")
    want = _ckpt_meta(num_parts)
    try:
        with open(os.path.join(d, "_META.json")) as fh:
            meta = json.load(fh)
    except (OSError, ValueError):
        meta = None
    if meta != want:
        raise ValueError(
            f"checkpoint {d} meta {meta} does not match this run's "
            f"{want}; it was written by another checkpoint format or key "
            "hash — delete it and rerun from iteration 0")
    return [_ckpt_load_task.remote(d, p) for p in range(num_parts)]


# ---------------------------------------------------------------- PageRank


@ray.remote
def _pr_contrib(epart: pa.Table, rankpart: pa.Table, num_parts: int,
                gsz: int | None = None):
    """Join stationary edges (node, dst, factor) with this partition's
    ranks (node, rank) — co-partitioned on hash(node), so the join is
    complete locally — then emit per-dst partial contribution sums,
    split by hash(dst) for the reduce side (``gsz``: tree-combine
    group size -> split into groups instead of partitions)."""
    fan = num_parts if gsz is None else -(-num_parts // gsz)
    if epart.num_rows == 0 or rankpart.num_rows == 0:
        empty = pa.schema([("dst", pa.string()), ("contrib", pa.float64())])
        return _rets(tuple(_empty_like(empty) for _ in range(fan)), fan)
    e = pd.DataFrame({
        "node": epart.column("node").to_pandas(),
        "dst": epart.column("dst").to_pandas(),
        "factor": epart.column("factor").to_numpy(zero_copy_only=False),
    })
    r = pd.DataFrame({
        "node": rankpart.column("node").to_pandas(),
        "rank": rankpart.column("rank").to_numpy(zero_copy_only=False),
    })
    m = e.merge(r, on="node", how="inner")
    contrib = (m["factor"].to_numpy() * m["rank"].to_numpy())
    t = pa.table({
        "dst": pa.array(m["dst"].to_numpy(), pa.string()),
        "contrib": pa.array(contrib, pa.float64()),
    })
    g = t.group_by("dst").aggregate([("contrib", "sum")])
    g = pa.table({"dst": g.column("dst"), "contrib": g.column("contrib_sum")})
    return _rets(_split(g, ["dst"], num_parts, gsz), fan)


@ray.remote
def _pr_reduce(nodepart: pa.Table, base: float, damping: float,
               *partials: pa.Table) -> pa.Table:
    """Sum the incoming partial contributions for this partition's nodes
    and apply the damping update; nodes with no in-edges get ``base``."""
    live = [t for t in partials if t.num_rows]
    nodes = nodepart.column("node").to_pandas()
    if live:
        cat = pa.concat_tables(live)
        g = cat.group_by("dst").aggregate([("contrib", "sum")])
        s = pd.Series(
            g.column("contrib_sum").to_numpy(zero_copy_only=False),
            index=g.column("dst").to_pandas(),
        )
        total = s.reindex(nodes).fillna(0.0).to_numpy()
    else:
        total = np.zeros(len(nodes))
    return pa.table({
        "node": nodepart.column("node"),
        "rank": pa.array(base + damping * total, pa.float64()),
    })


def pagerank_bsp(
    efact: rd.Dataset,
    nodes: rd.Dataset,
    n_nodes: int,
    *,
    iterations: int,
    damping: float,
    num_parts: int = 32,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
    tree_combine: bool | None = None,
) -> rd.Dataset:
    """BSP power iteration.  ``efact``: (node=src, dst, factor=1/outdeg)
    rows; ``nodes``: distinct (node) rows; both may be lazy.  Returns a
    (node, rank) Dataset assembled from the final partition refs.

    ``checkpoint_dir`` + ``checkpoint_every=k``: every k iterations the
    rank partitions persist as Parquet under
    ``checkpoint_dir/iter_{t}/part_{p}.parquet`` with an atomically-
    renamed ``_DONE`` marker; a rerun of the SAME job (same graph,
    same num_parts) resumes from the newest complete checkpoint and
    replays only the remaining iterations — the per-partition-lineage
    resume contract extended to iterative state (a 100-iteration run
    over 10^12 edges must not restart at iteration 0 after a
    preemption).  The checkpoint write is one task per partition; the
    iteration state is O(nodes), so checkpoints are cheap relative to
    a single contribution phase.
    """
    _S_E = pa.schema([("node", pa.string()), ("dst", pa.string()),
                      ("factor", pa.float64())])
    _S_N = pa.schema([("node", pa.string())])
    eparts = dataset_to_part_refs(efact, "node", num_parts, _S_E,
                                  tree_combine)
    node_parts = dataset_to_part_refs(nodes, "node", num_parts, _S_N,
                                      tree_combine)

    init = 1.0 / n_nodes
    base = (1.0 - damping) / n_nodes

    @ray.remote
    def _init_ranks(npart: pa.Table) -> pa.Table:
        return pa.table({
            "node": npart.column("node"),
            "rank": pa.array(np.full(npart.num_rows, init), pa.float64()),
        })

    start_iter = 0
    rank_parts = None
    done = _ckpt_complete_iters(checkpoint_dir)
    usable = [t for t in done if t <= iterations]
    if usable:
        start_iter = usable[-1]
        rank_parts = _ckpt_load(checkpoint_dir, start_iter, num_parts)
    if rank_parts is None:
        rank_parts = [_init_ranks.remote(np_) for np_ in node_parts]

    plan = _fan_plan(num_parts, tree_combine)
    fan = num_parts if plan is None else plan[1]
    gsz = None if plan is None else plan[0]
    _S_C = pa.schema([("dst", pa.string()), ("contrib", pa.float64())])
    for it in range(start_iter, iterations):
        contribs = [
            _pr_contrib.options(num_returns=fan).remote(
                eparts[p], rank_parts[p], num_parts, gsz)
            for p in range(num_parts)
        ]
        dest = _phase_exchange(contribs, num_parts, plan, ["dst"], _S_C)
        rank_parts = [
            _pr_reduce.remote(node_parts[q], base, damping, *dest[q])
            for q in range(num_parts)
        ]
        t = it + 1
        if (checkpoint_dir and checkpoint_every
                and t % checkpoint_every == 0 and t < iterations
                and t not in done):
            _ckpt_write(rank_parts, checkpoint_dir, t, num_parts)
    return rd.from_arrow_refs(rank_parts)


# ------------------------------------------------- Connected components


@ray.remote
def _cc_prop(epart: pa.Table, lblpart: pa.Table, num_parts: int,
             gsz: int | None = None):
    """Neighbor propagation: for stationary und-edges (src, dst) and this
    partition's labels (name_id, component) — co-partitioned on
    hash(src) — emit per-dst min(component) messages, split by
    hash(dst)."""
    fan = num_parts if gsz is None else -(-num_parts // gsz)
    empty = pa.schema([("name_id", pa.int64()), ("component", pa.int64())])
    if epart.num_rows == 0 or lblpart.num_rows == 0:
        return _rets(tuple(_empty_like(empty) for _ in range(fan)), fan)
    e = pd.DataFrame({
        "src": epart.column("src").to_numpy(zero_copy_only=False),
        "dst": epart.column("dst").to_numpy(zero_copy_only=False),
    })
    l_ = pd.DataFrame({
        "src": lblpart.column("name_id").to_numpy(zero_copy_only=False),
        "component": lblpart.column("component").to_numpy(zero_copy_only=False),
    })
    m = e.merge(l_, on="src", how="inner")
    g = (m.groupby("dst", sort=False)["component"].min().reset_index())
    t = pa.table({
        "name_id": pa.array(g["dst"].to_numpy(), pa.int64()),
        "component": pa.array(g["component"].to_numpy(), pa.int64()),
    })
    return _rets(_split(t, ["name_id"], num_parts, gsz), fan)


@ray.remote
def _cc_jump_req(lblpart: pa.Table, num_parts: int,
                 gsz: int | None = None):
    """Pointer-jump request: route (x, c) to the partition owning label
    value c, so the owner can answer with component(c)."""
    fan = num_parts if gsz is None else -(-num_parts // gsz)
    empty = pa.schema([("name_id", pa.int64()), ("c", pa.int64())])
    if lblpart.num_rows == 0:
        return _rets(tuple(_empty_like(empty) for _ in range(fan)), fan)
    t = pa.table({
        "name_id": lblpart.column("name_id"),
        "c": lblpart.column("component"),
    })
    return _rets(_split(t, ["c"], num_parts, gsz), fan)


@ray.remote
def _cc_jump_serve(lblpart: pa.Table, num_parts: int,
                   gsz: int | None, *reqs: pa.Table):
    """Answer pointer-jump requests: (x, c) + local (c -> c') ->
    (x, c'), split by hash(x) for the reduce."""
    fan = num_parts if gsz is None else -(-num_parts // gsz)
    empty = pa.schema([("name_id", pa.int64()), ("component", pa.int64())])
    live = [t for t in reqs if t.num_rows]
    if not live or lblpart.num_rows == 0:
        return _rets(tuple(_empty_like(empty) for _ in range(fan)), fan)
    req = pa.concat_tables(live)
    r = pd.DataFrame({
        "name_id": req.column("name_id").to_numpy(zero_copy_only=False),
        "c": req.column("c").to_numpy(zero_copy_only=False),
    })
    l_ = pd.DataFrame({
        "c": lblpart.column("name_id").to_numpy(zero_copy_only=False),
        "component": lblpart.column("component").to_numpy(zero_copy_only=False),
    })
    m = r.merge(l_, on="c", how="inner")
    t = pa.table({
        "name_id": pa.array(m["name_id"].to_numpy(), pa.int64()),
        "component": pa.array(m["component"].to_numpy(), pa.int64()),
    })
    return _rets(_split(t, ["name_id"], num_parts, gsz), fan)


@ray.remote(num_returns=2)
def _cc_reduce(lblpart: pa.Table, *msgs: pa.Table):
    """New label = min(own component, neighbor mins, pointer-jump
    answers).  Returns (new label partition, decimal label sum) — the
    sums feed the driver's exact convergence test (python ints,
    overflow-free)."""
    parts = [pa.table({"name_id": lblpart.column("name_id"),
                       "component": lblpart.column("component")})]
    parts += [t for t in msgs if t.num_rows]
    cat = pa.concat_tables(parts)
    df = pd.DataFrame({
        "name_id": cat.column("name_id").to_numpy(zero_copy_only=False),
        "component": cat.column("component").to_numpy(zero_copy_only=False),
    })
    g = df.groupby("name_id", sort=False)["component"].min().reset_index()
    out = pa.table({
        "name_id": pa.array(g["name_id"].to_numpy(), pa.int64()),
        "component": pa.array(g["component"].to_numpy(), pa.int64()),
    })
    ssum = str(int(sum(int(x) for x in g["component"].to_numpy())))
    return out, ssum


def connected_components_bsp(
    und: rd.Dataset,
    *,
    num_parts: int = 16,
    max_rounds: int = 64,
    tree_combine: bool | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
) -> tuple[rd.Dataset, int]:
    """BSP min-label propagation + pointer jumping.  ``und`` must be the
    SYMMETRIC (both directions present) edge set with int64 src/dst.
    Returns (labels Dataset (name_id, component), rounds used).

    Per round: one propagation phase over stationary edge partitions,
    one pointer-jump request/serve exchange over the label partitions
    (O(nodes) rows), one reduce — labels only ever decrease, so a
    stable global label sum is the exact fixed-point test.

    ``checkpoint_dir`` + ``checkpoint_every``: same per-partition
    Parquet + ``_DONE`` resume contract as :func:`pagerank_bsp`; a
    rerun restores the newest complete label checkpoint and replays
    only the remaining rounds.  The convergence state needs no side
    file — ``prev_sum`` after round t IS the label sum of the
    checkpointed labels, so it is recomputed from the restored
    partitions and the resumed run is bit-equal to an uninterrupted
    one (including the returned total round count)."""
    _S_E = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
    eparts = dataset_to_part_refs(und, "src", num_parts, _S_E,
                                  tree_combine)

    @ray.remote
    def _init_labels(ep: pa.Table) -> pa.Table:
        # every node appears as src in the symmetric edge set
        ids = np.unique(ep.column("src").to_numpy(zero_copy_only=False))
        return pa.table({
            "name_id": pa.array(ids, pa.int64()),
            "component": pa.array(ids, pa.int64()),
        })

    start_round = 0
    prev_sum = None
    lbl_parts = None
    done = _ckpt_complete_iters(checkpoint_dir)
    usable = [t for t in done if t <= max_rounds]
    if usable:
        start_round = usable[-1]
        lbl_parts = _ckpt_load(checkpoint_dir, start_round, num_parts)

        @ray.remote
        def _lbl_sum(tbl: pa.Table) -> str:
            return str(int(sum(
                int(x) for x in tbl.column("component").to_numpy(
                    zero_copy_only=False))))

        prev_sum = sum(int(s) for s in ray.get(
            [_lbl_sum.remote(lp) for lp in lbl_parts]))
    if lbl_parts is None:
        # only submit the O(nodes) init tasks when NOT resuming —
        # pagerank_bsp's "if rank_parts is None" pattern
        lbl_parts = [_init_labels.remote(ep) for ep in eparts]

    plan = _fan_plan(num_parts, tree_combine)
    fan = num_parts if plan is None else plan[1]
    gsz = None if plan is None else plan[0]
    _S_MSG = pa.schema([("name_id", pa.int64()), ("component", pa.int64())])
    _S_REQ = pa.schema([("name_id", pa.int64()), ("c", pa.int64())])

    rounds = start_round
    for _ in range(start_round, max_rounds):
        rounds += 1
        props = _phase_exchange([
            _cc_prop.options(num_returns=fan).remote(
                eparts[p], lbl_parts[p], num_parts, gsz)
            for p in range(num_parts)
        ], num_parts, plan, ["name_id"], _S_MSG)
        reqs = _phase_exchange([
            _cc_jump_req.options(num_returns=fan).remote(
                lbl_parts[p], num_parts, gsz)
            for p in range(num_parts)
        ], num_parts, plan, ["c"], _S_REQ)
        serves = _phase_exchange([
            _cc_jump_serve.options(num_returns=fan).remote(
                lbl_parts[r], num_parts, gsz, *reqs[r])
            for r in range(num_parts)
        ], num_parts, plan, ["name_id"], _S_MSG)
        new_parts, sums = [], []
        for q in range(num_parts):
            lp, s = _cc_reduce.remote(
                lbl_parts[q], *props[q], *serves[q])
            new_parts.append(lp)
            sums.append(s)
        lbl_parts = new_parts
        cur = sum(int(s) for s in ray.get(sums))
        if prev_sum is not None and cur == prev_sum:
            break
        prev_sum = cur
        if (checkpoint_dir and checkpoint_every
                and rounds % checkpoint_every == 0
                and rounds not in done):
            _ckpt_write(lbl_parts, checkpoint_dir, rounds, num_parts)
    else:
        raise RuntimeError(
            f"connected_components_bsp did not converge within {max_rounds} "
            "rounds; raise max_rounds")
    return rd.from_arrow_refs(lbl_parts), rounds


# ------------------------------------------------- Label propagation


@ray.remote
def _lpa_vote(epart: pa.Table, lblpart: pa.Table, num_parts: int,
              gsz: int | None = None):
    """Stationary und-edges (node, nbr) partitioned on hash(nbr) join
    this partition's labels (node, lbl) — co-partitioned, so lbl(nbr)
    resolves locally — and emit per-(voter, lbl) partial vote counts,
    split by hash(voter) for the reduce side."""
    fan = num_parts if gsz is None else -(-num_parts // gsz)
    empty = pa.schema([("node", pa.int64()), ("lbl", pa.int64()),
                       ("c", pa.int64())])
    if epart.num_rows == 0 or lblpart.num_rows == 0:
        return _rets(tuple(_empty_like(empty) for _ in range(fan)), fan)
    e = pd.DataFrame({
        "voter": epart.column("node").to_numpy(zero_copy_only=False),
        "node": epart.column("nbr").to_numpy(zero_copy_only=False),
    })
    lab = pd.DataFrame({
        "node": lblpart.column("node").to_numpy(zero_copy_only=False),
        "lbl": lblpart.column("lbl").to_numpy(zero_copy_only=False),
    })
    m = e.merge(lab, on="node", how="inner")
    g = (m.groupby(["voter", "lbl"], sort=False)
         .size().rename("c").reset_index())
    t = pa.table({
        "node": pa.array(g["voter"].to_numpy(np.int64), pa.int64()),
        "lbl": pa.array(g["lbl"].to_numpy(np.int64), pa.int64()),
        "c": pa.array(g["c"].to_numpy(np.int64), pa.int64()),
    })
    return _rets(_split(t, ["node"], num_parts, gsz), fan)


@ray.remote
def _lpa_winner(*partials: pa.Table) -> pa.Table:
    """Sum partial votes per (node, lbl) and pick each node's winner:
    highest count, ties to the smaller label — one vectorized
    sort + drop_duplicates over every node in the partition."""
    live = [t for t in partials if t.num_rows]
    if not live:
        return _empty_like(pa.schema([("node", pa.int64()),
                                      ("lbl", pa.int64())]))
    cat = pa.concat_tables(live)
    g = cat.group_by(["node", "lbl"]).aggregate([("c", "sum")])
    df = pd.DataFrame({
        "node": g.column("node").to_numpy(zero_copy_only=False),
        "lbl": g.column("lbl").to_numpy(zero_copy_only=False),
        "c": g.column("c_sum").to_numpy(zero_copy_only=False),
    })
    df = (df.sort_values(["node", "c", "lbl"],
                         ascending=[True, False, True],
                         kind="mergesort")
          .drop_duplicates("node"))
    return pa.table({
        "node": pa.array(df["node"].to_numpy(np.int64), pa.int64()),
        "lbl": pa.array(df["lbl"].to_numpy(np.int64), pa.int64()),
    })


def label_propagation_bsp(
    und: rd.Dataset,
    *,
    iterations: int,
    num_parts: int = 32,
    tree_combine: bool | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
) -> rd.Dataset:
    """BSP synchronous label propagation.  ``und``: (node, nbr) rows,
    BOTH orientations already present.  Edges exchange ONCE into
    stationary hash(nbr) partitions; per round only the O(nodes) label
    table moves (vote partials pre-counted inside each task).  Labels
    start as node ids, majority vote, ties to the smaller label, all
    nodes update synchronously.
    Every und node appears as a voter (both orientations present), so
    the winner table covers every node each round.  ``checkpoint_dir``
    + ``checkpoint_every``: pagerank_bsp's per-partition Parquet +
    ``_DONE`` resume contract over the (node, lbl) state."""
    _S_E = pa.schema([("node", pa.int64()), ("nbr", pa.int64())])
    eparts = dataset_to_part_refs(und, "nbr", num_parts, _S_E,
                                  tree_combine)

    @ray.remote
    def _init_labels(ep: pa.Table) -> pa.Table:
        # labels live on hash(node); seed from the nbr endpoints this
        # partition owns (nbr is the partition key => lbl rows for node
        # X land exactly where votes for X's neighbors probe)
        ids = np.unique(ep.column("nbr").to_numpy(zero_copy_only=False))
        return pa.table({"node": pa.array(ids, pa.int64()),
                         "lbl": pa.array(ids, pa.int64())})

    start_iter = 0
    lbl_parts = None
    done = _ckpt_complete_iters(checkpoint_dir)
    usable = [t for t in done if t <= iterations]
    if usable:
        start_iter = usable[-1]
        lbl_parts = _ckpt_load(checkpoint_dir, start_iter, num_parts)
    if lbl_parts is None:
        lbl_parts = [_init_labels.remote(ep) for ep in eparts]
    plan = _fan_plan(num_parts, tree_combine)
    fan = num_parts if plan is None else plan[1]
    gsz = None if plan is None else plan[0]
    _S_V = pa.schema([("node", pa.int64()), ("lbl", pa.int64()),
                      ("c", pa.int64())])
    for it in range(start_iter, iterations):
        votes = _phase_exchange([
            _lpa_vote.options(num_returns=fan).remote(
                eparts[p], lbl_parts[p], num_parts, gsz)
            for p in range(num_parts)
        ], num_parts, plan, ["node"], _S_V)
        lbl_parts = [
            _lpa_winner.remote(*votes[q]) for q in range(num_parts)
        ]
        t = it + 1
        if (checkpoint_dir and checkpoint_every
                and t % checkpoint_every == 0 and t < iterations
                and t not in done):
            _ckpt_write(lbl_parts, checkpoint_dir, t, num_parts)
    return rd.from_arrow_refs(lbl_parts)


# ------------------------------------------------- HITS


@ray.remote
def _hits_push(epart: pa.Table, scorepart: pa.Table, num_parts: int,
               gsz: int | None = None):
    """Stationary directed edges (node, _o) partitioned on hash(node)
    join this partition's scores (node, s) locally; emit per-_o partial
    sums split by hash(_o)."""
    fan = num_parts if gsz is None else -(-num_parts // gsz)
    empty = pa.schema([("node", pa.int64()), ("s", pa.float64())])
    if epart.num_rows == 0 or scorepart.num_rows == 0:
        return _rets(tuple(_empty_like(empty) for _ in range(fan)), fan)
    e = pd.DataFrame({
        "node": epart.column("node").to_numpy(zero_copy_only=False),
        "_o": epart.column("_o").to_numpy(zero_copy_only=False),
    })
    sc = pd.DataFrame({
        "node": scorepart.column("node").to_numpy(zero_copy_only=False),
        "s": scorepart.column("s").to_numpy(zero_copy_only=False),
    })
    m = e.merge(sc, on="node", how="inner")
    g = m.groupby("_o", sort=False)["s"].sum().reset_index()
    t = pa.table({
        "node": pa.array(g["_o"].to_numpy(np.int64), pa.int64()),
        "s": pa.array(g["s"].to_numpy(np.float64), pa.float64()),
    })
    return _rets(_split(t, ["node"], num_parts, gsz), fan)


@ray.remote
def _hits_reduce(*partials: pa.Table) -> pa.Table:
    live = [t for t in partials if t.num_rows]
    if not live:
        return _empty_like(pa.schema([("node", pa.int64()),
                                      ("s", pa.float64())]))
    cat = pa.concat_tables(live)
    g = cat.group_by("node").aggregate([("s", "sum")])
    return pa.table({"node": g.column("node"),
                     "s": g.column("s_sum")})


@ray.remote
def _part_sum(tbl: pa.Table) -> float:
    if tbl.num_rows == 0:
        return 0.0
    return float(np.sum(tbl.column("s").to_numpy(zero_copy_only=False)))


@ray.remote
def _scale_scores(tbl: pa.Table, tot: float) -> pa.Table:
    # DIVIDE by the total (not multiply by its inverse) — the same
    # float expression shape the SQL oracle uses
    return pa.table({
        "node": tbl.column("node"),
        "s": pa.array(tbl.column("s").to_numpy(zero_copy_only=False)
                      / np.float64(tot), pa.float64()),
    })


def hits_bsp(
    eo: rd.Dataset,
    ei: rd.Dataset,
    *,
    iterations: int,
    num_parts: int = 16,
    tree_combine: bool | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
) -> tuple[rd.Dataset, rd.Dataset]:
    """BSP HITS.  ``eo``: (node=src, _o=dst) rows; ``ei``: the reverse.
    Both orientations exchange ONCE into stationary hash(node)
    partitions; per half-step only the O(nodes) score table moves, and
    the L1 normalizer is O(num_parts) driver scalars.  Returns the
    final (hub, auth) Datasets (node, s).  ``checkpoint_dir`` +
    ``checkpoint_every``: pagerank_bsp's resume contract over the HUB
    state (auth is recomputed by the next half-step, so hub after a
    full iteration is the complete iteration state)."""
    _S_E = pa.schema([("node", pa.int64()), ("_o", pa.int64())])
    eparts_o = dataset_to_part_refs(eo, "node", num_parts, _S_E,
                                    tree_combine)
    eparts_i = dataset_to_part_refs(ei, "node", num_parts, _S_E,
                                    tree_combine)

    @ray.remote
    def _init_hub(ep: pa.Table) -> pa.Table:
        ids = np.unique(ep.column("node").to_numpy(zero_copy_only=False))
        return pa.table({"node": pa.array(ids, pa.int64()),
                         "s": pa.array(np.ones(len(ids), np.float64))})


    plan = _fan_plan(num_parts, tree_combine)
    fan = num_parts if plan is None else plan[1]
    gsz = None if plan is None else plan[0]
    _S_S = pa.schema([("node", pa.int64()), ("s", pa.float64())])

    def half_step(eparts, scores):
        pushed = _phase_exchange([
            _hits_push.options(num_returns=fan).remote(
                eparts[p], scores[p], num_parts, gsz)
            for p in range(num_parts)
        ], num_parts, plan, ["node"], _S_S)
        red = [
            _hits_reduce.remote(*pushed[q])
            for q in range(num_parts)
        ]
        tot = float(sum(ray.get([_part_sum.remote(r) for r in red])))
        if tot == 0.0:
            tot = 1.0
        return [_scale_scores.remote(r, tot) for r in red]

    start_iter = 0
    hub = None
    done = _ckpt_complete_iters(checkpoint_dir)
    usable = [t for t in done if t < iterations]
    if usable:
        start_iter = usable[-1]
        hub = _ckpt_load(checkpoint_dir, start_iter, num_parts)
    if hub is None:
        hub = [_init_hub.remote(ep) for ep in eparts_o]

    auth = None
    for it in range(start_iter, iterations):
        auth = half_step(eparts_o, hub)   # auth lives on hash(dst)
        hub = half_step(eparts_i, auth)   # hub lives on hash(src)
        t = it + 1
        if (checkpoint_dir and checkpoint_every
                and t % checkpoint_every == 0 and t < iterations
                and t not in done):
            _ckpt_write(hub, checkpoint_dir, t, num_parts)
    return rd.from_arrow_refs(hub), rd.from_arrow_refs(auth)
