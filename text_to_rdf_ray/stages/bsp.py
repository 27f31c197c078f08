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
also serve one-shot exchanges: ``exchange_blocks``, sized to its input
(under ``exchange_join`` / ``exchange_agg`` / ``keyed_exchange``, the
triple dedup and the LSH pair exchange), and the range exchange at a
fixed P: ``range_exchange`` and ``sort_blocks`` (the sorts, prefix
scans and range-cut writes), whose output block i is range i.  An
operator that needs two exchanges chains them: the first one's
:class:`Blocks` are the second one's source.

Every exchange has one split law (:func:`_part_ids`): a row goes to
partition ``col % P`` of an int partition column, or ``_key_hash(keys)
% P`` of its key columns.  One splitter (:func:`_split`) runs it in the
map tasks, one regroup task in the tree combine, and one route
(:func:`_route`) wires the two.

In-task mode.  Every raw task of an exchange, a per-block map, a
per-block value pass or a sink is submitted through one helper
(:func:`_submit`) and every block or metadata ref fetched through one
(:func:`fetch`).  :func:`run_in_task` runs a whole chain of such steps
(a partition's post-extraction tail) as ONE raw task: its input blocks
are top-level task arguments, so Ray resolves them before the task
starts, and inside it (:func:`in_task`) the two helpers run each task
body on the in-memory tables and return its values.  Such a task
submits no task and waits on no object, so it needs no second worker
process.  The steps size their exchanges as they would on the driver,
from the same block metadata, so they choose the same P and give the
same rows in the same order; their counts nest into the tail task's
(:func:`~..state.counters.counted`).  Why: on a 4-vCPU host at one Ray
CPU, 55 dependent one-task hops over 2,000-row tables, each followed by
a metadata fetch, took ~210 ms (~3.8 ms a hop); the same 55 reduces
inline took under 1 ms.

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
  Parity tests force the tree by lowering ``TREE_COMBINE_THRESHOLD``.
- partition refs live in the object store and spill like any block;
  nothing materializes on the driver except O(num_parts) scalars per
  round (convergence sums).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from ..state import counters
from .exchange import (_KEY_HASH_VERSION, _key_hash, _sources, _then,
                       as_arrow_schema)


#: above this partition count an exchange switches from the flat P x P
#: split to the two-level tree combine (see module docstring)
TREE_COMBINE_THRESHOLD = 512

#: whether this process runs raw-task steps inline (:func:`in_task`).
#: Process-wide, like ``counters._task``: the steps read it wherever they
#: submit or fetch, with no mode passed through every operator, and a
#: Ray worker runs one task at a time; the driver does not set it
_in_task = False


@contextlib.contextmanager
def in_task():
    """Run the steps called inside in this process: :func:`_submit` runs
    a task's body and returns its values, :func:`fetch` returns values
    as they are.  A tail task (:func:`run_in_task`) runs its steps so."""
    global _in_task
    outer, _in_task = _in_task, True
    try:
        yield
    finally:
        _in_task = outer


def _submit(task, *args, num_returns: int | None = None):
    """The one submission point of the raw-task steps: ``task`` (a
    ``ray.remote`` function) on ``args``, its return refs; in task mode
    its body run here on ``args`` (tables, not refs), its return
    values."""
    if _in_task:
        return task._function(*args)
    if num_returns is not None:
        task = task.options(num_returns=num_returns)
    return task.remote(*args)


def fetch(refs: list) -> list:
    """The one fetch point of the raw-task steps: the values of block
    or metadata ``refs`` (``ray.get``); in task mode they are values
    already."""
    return list(refs) if _in_task else ray.get(list(refs))


def _register(counts) -> None:
    """Register the counts ref of a submitted task
    (:func:`~..state.counters.add_task`).  In task mode the body ran
    under the tail task's ``counted``, which holds its counts already."""
    if not _in_task:
        counters.add_task(counts)


def _fan_plan(num_parts: int) -> tuple[int, int] | None:
    """(group_size, n_groups) for the tree combine past
    ``TREE_COMBINE_THRESHOLD`` partitions, else None (flat exchange)."""
    import math

    if num_parts <= max(1, TREE_COMBINE_THRESHOLD):
        return None
    gsz = math.ceil(math.sqrt(num_parts))
    n_groups = math.ceil(num_parts / gsz)
    if n_groups <= 1:
        # P=2: one group == a pointless full concat, and fan==1 would
        # break the bare-ref num_returns contract — stay flat
        return None
    return gsz, n_groups


def _part_ids(tbl: pa.Table, law, num_parts: int) -> np.ndarray:
    """Each row's partition under the split ``law``: an int partition
    column's name (``v % P``) or a list of key columns (their uint64
    :func:`~.exchange._key_hash` ``% P``, taken before the int64 cast so
    a hash at or above 2**63 keeps its residue)."""
    if isinstance(law, str):
        v = tbl.column(law).to_numpy(zero_copy_only=False).astype(np.int64)
        return v % num_parts
    return (_key_hash(tbl, law) % np.uint64(num_parts)).astype(np.int64)


def _split(tbl: pa.Table, law, num_parts: int, gsz: int | None = None):
    """Split ``tbl`` by ``law`` into ``num_parts`` partitions — or, with
    ``gsz``, into ceil(num_parts/gsz) GROUP buckets where group j owns
    partitions [j*gsz, (j+1)*gsz) (the tree-combine map side: the
    partition id is the same, only the bucketing coarsens, so regroup +
    member filter reproduces the flat split exactly).  A tuple of the
    buckets."""
    fan = num_parts if gsz is None else -(-num_parts // gsz)
    if fan == 1:
        return (tbl,)
    ids = _part_ids(tbl, law, num_parts)
    if gsz is not None:
        ids = ids // gsz
    return tuple(tbl.filter(pa.array(ids == j)) for j in range(fan))


@ray.remote
def _map_split_task(fn, law, num_parts: int, gsz: int | None, *args):
    """The map side of every exchange: ``fn(*args)`` (a BSP phase step,
    or a source block's block function and prologue) split by ``law``
    (:func:`_split`), then the counts ``fn`` made
    (:func:`~..state.counters.counted`) as the last return."""
    out, counts = counters.counted(fn, *args)
    return (*_split(out, law, num_parts, gsz), counts)


@ray.remote
def _regroup_task(j: int, gsz: int, num_parts: int, law, *slices: pa.Table):
    """Tree-combine middle level: concatenate group j's slices from every
    map task (IN SOURCE ORDER — downstream reductions then see the same
    row order as the flat exchange, keeping float sums bit-identical)
    and split them into the group's member partitions."""
    members = range(j * gsz, min((j + 1) * gsz, num_parts))
    cat = _concat(slices, None).combine_chunks()
    ids = _part_ids(cat, law, num_parts)
    out = tuple(cat.filter(pa.array(ids == q)) for q in members)
    return out[0] if len(out) == 1 else out


def _route(maps: list, law, num_parts: int) -> list[list]:
    """One exchange: a :func:`_map_split_task` per ``(fn, args)`` of
    ``maps`` splits ``fn(*args)`` by ``law`` into ``num_parts``
    partitions — flat, or past ``TREE_COMBINE_THRESHOLD`` through one
    :func:`_regroup_task` per destination group.  Returns ``dest[q]``,
    the refs of partition q's slices (one per map task in flat mode,
    exactly 1 in tree mode, none when ``maps`` is empty).  Each map
    task's counts are registered (:func:`~..state.counters.add_task`)."""
    P = num_parts
    if not maps:
        return [[] for _ in range(P)]
    plan = _fan_plan(P)
    fan, gsz = (P, None) if plan is None else (plan[1], plan[0])
    refs = []
    for fn, args in maps:
        *parts, counts = _submit(_map_split_task, fn, law, P, gsz, *args,
                                 num_returns=fan + 1)
        _register(counts)
        refs.append(parts)
    if plan is None:
        return [[r[q] for r in refs] for q in range(P)]
    mids: list[list] = []
    for j in range(fan):
        n_members = min((j + 1) * gsz, P) - j * gsz
        m = _submit(_regroup_task, j, gsz, P, law, *[r[j] for r in refs],
                    num_returns=n_members)
        mids.append([m] if n_members == 1 else list(m))
    return [[mids[q // gsz][q % gsz]] for q in range(P)]


def dataset_to_part_refs(
    ds, key_cols: list[str] | str, num_parts: int, schema: pa.Schema,
) -> list[ray.ObjectRef]:
    """The BSP initial exchange: ``ds`` (a Dataset, or sources as
    :func:`exchange_blocks` takes them) as ``num_parts`` object-store refs
    of ``schema`` tables, partitioned on the hash of ``key_cols`` — the
    stationary partitions every later BSP phase reads in place.  An
    empty input gives ``num_parts`` typed empty partitions."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    dest, fns, schema = _partition(_sources(ds), key_cols,
                                   num_parts=num_parts, max_parts=num_parts,
                                   schema=schema)
    return [_reduce(None, schema, fns, *d)[0] for d in dest]


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


def _prep(tbl, fn, schema: pa.Schema | None) -> pa.Table:
    """One source block as its exchange moves it: mapped by the source's
    block function ``fn`` (when it has one) and normalized to ``schema``
    (:func:`_as_table`)."""
    if fn is not None:
        tbl = fn(_as_table(tbl, None))
    return _as_table(tbl, schema)


def _reduce_slices(reduce_fn, schema: pa.Schema | None, fns,
                   *tbls) -> pa.Table:
    """The reduce side of every exchange (and the body of a per-block
    raw task): one partition's slices concatenated (:func:`_concat`)
    and reduced by ``reduce_fn`` (None: kept as they are).  ``fns``
    (P=1: the unsplit source blocks) holds each block's block function,
    still to run."""
    if fns is not None:
        tbls = tuple(_prep(t, f, schema) for t, f in zip(tbls, fns))
    out = _concat(tbls, schema)
    return out if reduce_fn is None else reduce_fn(out)


@ray.remote(num_returns=3)
def _reduce_task(reduce_fn, schema: pa.Schema | None, fns, *tbls: pa.Table):
    """Reduce one partition's slices (:func:`_reduce_slices`).  Returns
    the block, its Ray ``BlockMetadataWithSchema`` and the counts the
    reduce made (:func:`~..state.counters.counted`)."""
    from ray.data.block import BlockExecStats, BlockMetadataWithSchema

    stats = BlockExecStats.builder()
    out, counts = counters.counted(_reduce_slices, reduce_fn, schema, fns,
                                   *tbls)
    return (out, BlockMetadataWithSchema.from_block(out, stats=stats.build()),
            counts)


def _reduce(reduce_fn, schema: pa.Schema | None, fns, *tbls) -> tuple:
    """Submit one :func:`_reduce_task` and register its counts
    (:func:`_register`): the block and meta refs of a :class:`Blocks`
    entry."""
    block, meta, counts = _submit(_reduce_task, reduce_fn, schema, fns, *tbls)
    _register(counts)
    return block, meta


class Blocks:
    """A raw-task step's output as block refs, handed to the next step
    (an exchange, a per-block map, a sink) with no Dataset around it.

    ``refs`` holds one Arrow table ref per block; ``meta_refs`` one Ray
    ``BlockMetadataWithSchema`` ref per block (rows, bytes, schema),
    computed by the task that made the block (:func:`_reduce`), or
    ``metas`` the metadata itself where the driver has it
    (:meth:`put`, :meth:`of_dataset`), so counts and sizes need no task
    and a public operator wraps its output in a Dataset (:meth:`dataset`,
    :func:`~.exchange.dataset_api`) with no metadata task.  In task mode
    (:func:`in_task`) the refs are the tables and metadata themselves."""

    def __init__(self, refs: list, meta_refs: list | None,
                 metas: list | None = None) -> None:
        self.refs = refs
        self._meta_refs = meta_refs
        self._metas = metas

    @classmethod
    def of(cls, pairs: list) -> "Blocks":
        """From :func:`_reduce` pairs ``[(block_ref, meta_ref)]``."""
        return cls([b for b, _ in pairs], [m for _, m in pairs])

    @classmethod
    def put(cls, tables: list) -> "Blocks":
        """Arrow tables made on the driver as blocks: each table put in
        the object store (in task mode: kept), with no task."""
        from ray.data.block import BlockMetadataWithSchema

        metas = [BlockMetadataWithSchema.from_block(t) for t in tables]
        return cls(list(tables) if _in_task else [ray.put(t) for t in tables],
                   None, metas)

    @classmethod
    def of_dataset(cls, ds) -> "Blocks":
        """The non-empty blocks of a Dataset (materialized when lazy,
        :func:`materialized`) with their Ray metadata, each carrying the
        dataset's schema: the blocks an exchange over ``ds`` reads
        (:func:`_source_blocks`), with no task."""
        from ray.data.block import BlockMetadataWithSchema

        ds = materialized(ds)
        schema = ds.schema(fetch_if_missing=False)
        schema = None if schema is None else as_arrow_schema(schema)
        pairs = [(ref, BlockMetadataWithSchema(meta, schema))
                 for bundle in _bundles(ds)
                 for ref, meta in bundle.blocks if meta.num_rows]
        return cls([r for r, _ in pairs], None, [m for _, m in pairs])

    @classmethod
    def chain(cls, *parts: "Blocks") -> "Blocks":
        """The blocks of ``parts``, one after another (a union with no
        execution)."""
        refs = [r for p in parts for r in p.refs]
        if all(p._meta_refs is not None for p in parts):
            return cls(refs, [m for p in parts for m in p._meta_refs])
        return cls(refs, None, [m for p in parts for m in p.metas()])

    def metas(self) -> list:
        """Each block's ``BlockMetadataWithSchema`` (fetched once; waits
        for the blocks' tasks)."""
        if self._metas is None:
            self._metas = fetch(self._meta_refs)
        return self._metas

    def subset(self, indices: list[int]) -> "Blocks":
        """Blocks ``indices`` of these, in that order."""
        def pick(items):
            return None if items is None else [items[i] for i in indices]

        return Blocks(pick(self.refs), pick(self._meta_refs), pick(self._metas))

    def num_rows(self) -> int:
        return sum(m.num_rows for m in self.metas())

    def row_offsets(self) -> np.ndarray:
        """Each block's first row position in block order: the rows of
        the blocks before it (a scan's offsets over sorted blocks)."""
        rows = [m.num_rows for m in self.metas()]
        return np.cumsum([0] + rows[:-1])

    def schema(self) -> pa.Schema | None:
        """The first block's schema (None: no blocks)."""
        metas = self.metas()
        return metas[0].schema if metas else None

    def dataset(self) -> rd.MaterializedDataset:
        """The blocks as a MaterializedDataset from their metadata: a
        ``FromArrow`` plan marked executed, with no executor run and no
        per-block metadata task (as ``rd.from_arrow_refs`` starts)."""
        from ray.data._internal.logical.interfaces import LogicalPlan
        from ray.data._internal.logical.operators.from_operators import (
            FromArrow,
        )
        from ray.data._internal.plan import ExecutionPlan
        from ray.data._internal.stats import DatasetStats
        from ray.data.dataset import MaterializedDataset

        metas = self.metas()
        plan = ExecutionPlan(
            DatasetStats(metadata={"FromArrow": metas}, parent=None),
            rd.DataContext.get_current().copy())
        out = MaterializedDataset(
            plan, LogicalPlan(FromArrow(self.refs, metas), plan._context))
        plan.execute()
        return out


def _bundles(ds: rd.Dataset) -> list | None:
    """The ref bundles of a Dataset whose blocks exist (an executed plan
    or a ``from_*`` source) read from its plan, None for a lazy one: a
    ``materialize()`` would copy it at three driver RPCs."""
    from ray.data._internal.logical.interfaces import SourceOperator

    if ds._plan.has_computed_output():
        return [ds._plan._snapshot_bundle]
    dag = ds._logical_plan.dag
    return dag.output_data() if isinstance(dag, SourceOperator) else None


def materialized(src):
    """``src`` as it is when its blocks exist (:class:`Blocks`, or
    :func:`_bundles`); a lazy Dataset materialized, its one execution."""
    if isinstance(src, Blocks) or _bundles(src) is not None:
        return src
    return src.materialize()


def _source_blocks(src) -> tuple[list[tuple], object]:
    """A source's non-empty blocks as ``(ref, rows, bytes)`` and its
    schema (Ray's, for a Dataset: numpy dtypes for pandas blocks).  A
    lazy Dataset is materialized (:func:`materialized`); zero-row blocks
    (Ray can emit them schema-less) are dropped."""
    if isinstance(src, Blocks):
        return ([(r, m.num_rows, m.size_bytes)
                 for r, m in zip(src.refs, src.metas()) if m.num_rows],
                src.schema())
    src = materialized(src)
    blocks = [(ref, meta.num_rows, meta.size_bytes)
              for bundle in _bundles(src)
              for ref, meta in bundle.blocks if meta.num_rows]
    return blocks, src.schema(fetch_if_missing=False)


def _block_refs(source) -> list:
    """The block refs of ``source``: every block of a :class:`Blocks`
    (the typed empty ones too), or the non-empty blocks of a Dataset
    (:func:`_source_blocks`)."""
    return (source.refs if isinstance(source, Blocks)
            else [ref for ref, _, _ in _source_blocks(source)[0]])


def map_blocks(source, fn) -> Blocks:
    """``fn`` (Arrow table -> Arrow table) over each block of ``source``
    (:func:`_block_refs`), one raw task per block: a per-block step
    after an exchange with no Ray Data execution."""
    return Blocks.of([_reduce(fn, None, None, ref)
                      for ref in _block_refs(source)])


@ray.remote(num_returns=2)
def _value_task(fn, tbl):
    return counters.counted(fn, _as_table(tbl, None))


def block_values(source, fn) -> list:
    """``fn`` (Arrow table -> a small value) of each block of ``source``
    (:func:`_block_refs`), in block order: one raw task per block,
    fetched in one ``ray.get`` (the per-block stats pass of a scan),
    the counts ``fn`` made registered (:func:`_register`)."""
    pairs = [_submit(_value_task, fn, ref) for ref in _block_refs(source)]
    for _, counts in pairs:
        _register(counts)
    return fetch([value for value, _ in pairs])


@ray.remote(num_returns=3)
def _tail_task(fn, metas: list, lengths: list, *tbls):
    """A chain of raw-task steps as one task: ``fn`` over the input
    :class:`Blocks` rebuilt from ``tbls`` (``lengths[i]`` blocks of
    input i, with their driver-side ``metas``), run in task mode
    (:func:`in_task`).  Returns the pair ``fn`` returns and the counts
    its steps made."""
    sources, at = [], 0
    for n in lengths:
        sources.append(Blocks(list(tbls[at:at + n]), None, metas[at:at + n]))
        at += n
    with in_task():
        (a, b), counts = counters.counted(fn, *sources)
    return a, b, counts


def fits_one_task(*sources: Blocks) -> bool:
    """The entry rule of :func:`run_in_task`: ``sources`` together hold
    at most ``DataContext.target_min_block_size`` bytes, the input at
    which an exchange over them sizes to one partition (:func:`_sized`;
    a block whose size is not recorded does not fit)."""
    return _sized([m.size_bytes for b in sources for m in b.metas()], 2) == 1


def run_in_task(fn, *sources: Blocks) -> tuple:
    """``fn(*sources)``, a chain of raw-task steps returning a pair, as
    ONE raw task (:func:`_tail_task`): every block ref of ``sources``
    is a top-level argument, so Ray resolves it before the task starts,
    and the steps inside submit no task and wait on no object.  Returns
    the refs of the pair; the counts are registered, so a retried task's
    replace the first attempt's."""
    metas = [m for b in sources for m in b.metas()]
    first, second, counts = _tail_task.remote(
        fn, metas, [len(src.refs) for src in sources],
        *[r for src in sources for r in src.refs])
    counters.add_task(counts)
    return first, second


def scan_blocks(blocks: Blocks, assign, offsets) -> Blocks:
    """The second pass of a scan over sorted ``blocks``: block i mapped
    by ``assign(offsets[i], block)`` (one raw task per block, as
    :func:`map_blocks`)."""
    return Blocks.of([_reduce(functools.partial(assign, off), None, None, ref)
                      for ref, off in zip(blocks.refs, offsets)])


def sized_parts(input_bytes: int, cap: int, part_bytes: int) -> int:
    """Partition count for ``input_bytes`` of exchange input: one
    partition per ``part_bytes`` (rounded up), clamped to ``[1, cap]``."""
    return max(1, min(cap, -(-input_bytes // part_bytes)))


@ray.remote
def _fn_schema_task(tbl, fn) -> pa.Schema:
    # the split task runs fn on this block again and counts it: the
    # counts made here are dropped
    return counters.dropped(fn, _as_table(tbl, None)).schema


def _fn_schema(src, fn, first: list) -> pa.Schema | None:
    """The schema ``fn`` gives the blocks of a source whose schema is
    ``src`` (None: no blocks): ``fn`` applied, on the driver, to the
    empty table of ``src``, so an error ``fn`` raises on the schema (a
    reserved column name) stays a plain exception.  A pandas block
    schema gives an ``object`` column no Arrow type, so there ``fn``
    types the first block (``first``, one ref) in a task."""
    from .exchange import as_arrow_schema

    if src is None:
        return None
    out = fn(as_arrow_schema(src).empty_table()).schema
    if not first or all(t is not object for t in src.types):
        return out
    return fetch([_submit(_fn_schema_task, first[0], fn)])[0]


def _walk_sources(sources) -> tuple[list, list, list]:
    """The blocks of ``sources`` (``(source, block_fn)`` pairs): every
    non-empty block as ``(ref, block_fn)`` in source order, each
    source's ``(schema, block_fn, first block refs)``, and the blocks'
    byte sizes (None: not recorded), for :func:`_sized`."""
    blocks, heads, sizes = [], [], []
    for src, fn in sources:
        src_blocks, src_schema = _source_blocks(src)
        blocks += [(ref, fn) for ref, _, _ in src_blocks]
        sizes += [size for _, _, size in src_blocks]
        heads.append((src_schema, fn, [b[0] for b in src_blocks[:1]]))
    return blocks, heads, sizes


def _sized(sizes: list, max_parts: int) -> int:
    """P for blocks of byte ``sizes``: one partition per
    ``DataContext.target_min_block_size`` within ``[1, max_parts]``
    (:func:`sized_parts`; ``max_parts`` when a size is not recorded)."""
    return max_parts if None in sizes else sized_parts(
        sum(sizes), max_parts,
        rd.DataContext.get_current().target_min_block_size)


def _partition(
    sources: list[tuple[object, object]],
    law,
    *,
    num_parts: int | None,
    max_parts: int,
    schema: pa.Schema | None = None,
) -> tuple[list[list], list | None, pa.Schema | None]:
    """The shared first exchange phase over ``sources``, each a
    ``(source, block_fn)`` pair whose source is a Dataset or the
    :class:`Blocks` of an earlier exchange: size P, and split every
    non-empty block by ``law`` (:func:`_part_ids`: an int partition
    column, or a list of key columns to hash).

    A ``block_fn`` (None: none) maps one source block, as an Arrow
    table, to the rows the exchange moves, a ``law`` column included:
    the prologue (join padding, key tagging, a combiner) runs in the
    split task, not in a Ray Data map in front of the exchange.  Each
    Dataset source is materialized on its own, never as one union: one
    execution over two lineages, a read-backed one and one holding an
    all-to-all op, hangs a one-CPU cluster.  An already materialized
    source, or a ``Blocks`` one, costs no executor run and no
    ``materialize()`` (:func:`_bundles`).  Zero-row blocks
    (Ray can emit them schema-less) are dropped.

    ``schema`` declares the moved rows; when None, it is derived from
    the first source with a block function (:func:`_fn_schema`).  P is
    ``num_parts`` when given, else sized to the source blocks
    (:func:`_sized`).

    Returns ``(dest, fns, schema)`` with ``dest[q]`` the refs of
    partition q's slices (P lists; all empty when no source has a
    row).  At P=1 the source blocks go to the one reduce task unsplit,
    with their block functions in ``fns`` (None when no source has
    one)."""
    blocks, heads, sizes = _walk_sources(sources)
    for src_schema, fn, first in heads:
        if schema is None and fn is not None:
            schema = _fn_schema(src_schema, fn, first)
    P = _sized(sizes, max_parts) if num_parts is None else num_parts
    if P == 1:
        fns = [fn for _, fn in blocks]
        return ([[b for b, _ in blocks]],
                fns if any(f is not None for f in fns) else None, schema)
    maps = [(functools.partial(_prep, fn=fn, schema=schema), (b,))
            for b, fn in blocks]
    return _route(maps, law, P), None, schema


def exchange_blocks(
    sources,
    part_col: str,
    reduce_fn,
    schema: pa.Schema | None = None,
    *,
    max_parts: int,
) -> Blocks:
    """One hash exchange + a vectorized per-partition reduce as RAW Ray
    tasks, its output as :class:`Blocks` — the exchange under
    ``exchange_join``, ``exchange_agg`` and ``keyed_exchange``.  An
    operator chaining exchanges hands these blocks to the next one; a
    public operator wraps its last output in a Dataset, once
    (:func:`~.exchange.dataset_api`).

    ``sources`` is a Dataset, a :class:`Blocks`, a ``(source,
    block_fn)`` pair, or a list of these whose rows meet in one exchange
    (the two sides of a join, the inputs of a union); each ``block_fn``
    runs in the task that splits its source's blocks (see
    :func:`_partition`).  Moved rows carry ``part_col``, a non-negative
    int64 hash of the key; they land in partition ``part_col % P``, so
    every key's rows meet in one partition at every P.  ``schema``
    declares the moved rows (None: derived from the block function):
    blocks are normalized to it, and a partition with no rows reduces
    the empty ``schema`` table, so every output block (and the output
    of an empty input) is typed; with no rows and no schema the output
    has no blocks.  ``reduce_fn`` maps one partition's Arrow table to an
    Arrow table.

    Cost: one executor run per Dataset source not yet materialized, then
    B split tasks with P returns each plus P reduce tasks for B source
    blocks (no split tasks at P=1, where ``part_col`` is never read):
    ~B*P + P objects.  So P is sized to the source blocks rather than
    fixed: one partition per ``DataContext.target_min_block_size``
    (1 MiB) of input, at least 1 and at most ``max_parts``
    (:func:`sized_parts`).  Below the cap a partition holds about 1 MiB;
    above it partitions grow with the data and one must still fit in a
    worker.  The split is key-determined (``v % P``), so a reduce that
    is complete per key gives the same rows at every P, only in another
    order.  Past ``TREE_COMBINE_THRESHOLD`` partitions the split trees
    (B*sqrt(P) + P objects instead of B*P); source-order concat keeps
    the reduce bit-identical.
    """
    return _exchange(sources, part_col, reduce_fn, schema, None, max_parts)


def _exchange(sources, law, reduce_fn, schema, num_parts, max_parts) -> Blocks:
    dest, fns, schema = _partition(_sources(sources), law,
                                   num_parts=num_parts, max_parts=max_parts,
                                   schema=schema)
    if schema is None and not dest[0]:
        return Blocks([], [])
    return Blocks.of([_reduce(reduce_fn, schema, fns, *d) for d in dest])


def range_exchange(sources, range_col: str, reduce_fn,
                   num_ranges: int) -> Blocks:
    """:func:`exchange_blocks` at the fixed P ``num_ranges``: the moved
    rows carry their range id in the int column ``range_col``, in
    ``[0, num_ranges)``, so the ``v % P`` law puts range i in partition
    i, and block i of the output is ``reduce_fn`` of range i (a typed
    empty table for a range with no rows).  A reduce that needs its
    range id reads it from ``range_col``."""
    return _exchange(sources, range_col, reduce_fn, None, num_ranges,
                     num_ranges)


#: the range id column :func:`sort_blocks` tags its rows with
_RANGE = "_range"


def _ascending(keys: list[str]) -> list[tuple[str, str]]:
    return [(k, "ascending") for k in keys]


@ray.remote(num_returns=2)
def _sample_task(tbl, fn, keys: list[str], n: int) -> tuple[pa.Table, int]:
    """Up to ``n`` evenly spaced rows of one source block's sorted keys,
    and the bytes of the rows its block function gives (the counts it
    makes are dropped: the split task runs it again and counts them)."""
    t = counters.dropped(_prep, tbl, fn, None)
    k = t.select(keys).sort_by(_ascending(keys))
    if k.num_rows > n:
        k = k.take(np.linspace(0, k.num_rows - 1, n).astype(np.int64))
    return k, t.nbytes


def _range_ids(tbl: pa.Table, keys: list[str], cuts: pa.Table) -> np.ndarray:
    """Each row's range: how many ``cuts`` rows sort at or before its key
    tuple, in the order ``Table.sort_by`` uses.  One stable
    ``sort_indices`` over the cut rows followed by the block's key rows:
    a row equal to a cut row sorts after it, and a cumulative count of
    the cut rows read at each block row is its range id.  One integer
    key with no nulls gives the same ids by ``np.searchsorted``, about
    5x faster than the block sort (the hashed shuffle, ids, orders)."""
    import pyarrow.compute as pc

    k = tbl.select(keys)
    cuts = cuts.cast(k.schema)
    if (len(keys) == 1 and pa.types.is_integer(k.schema.types[0])
            and not k.column(0).null_count and not cuts.column(0).null_count):
        return np.searchsorted(cuts.column(0).to_numpy(),
                               k.column(0).to_numpy(),
                               side="right").astype(np.int64)
    both = pa.concat_tables([cuts, k])
    order = pc.sort_indices(both, sort_keys=_ascending(keys)).to_numpy()
    is_cut = order < cuts.num_rows
    ids = np.empty(tbl.num_rows, np.int64)
    ids[order[~is_cut] - cuts.num_rows] = np.cumsum(is_cut)[~is_cut]
    return ids


def sort_blocks(sources, keys: list[str] | str, reduce_fn=None, *,
                max_parts: int = 64, sample_per_block: int = 64) -> Blocks:
    """``sources`` (as :func:`exchange_blocks` takes them) sorted ascending
    on ``keys``, as :class:`Blocks` in range order: block i is range i,
    sorted by ``Table.sort_by``, and every key tuple in it sorts before
    every key tuple of block i+1.  A scan reads block i's offset from
    the blocks before it (:meth:`Blocks.row_offsets`, or
    :func:`block_values`).

    One :func:`range_exchange`: each source block's block function, in
    its split task, tags every row with its range id (:func:`_range_ids`)
    and the reduce sorts its range, then runs ``reduce_fn`` (None: none)
    on it.  The P ranges are sized like the hash exchanges (one per
    ``DataContext.target_min_block_size`` of input, ``max_parts`` the
    cap): on the source blocks, then, above one range, again on the
    rows the block functions give (a projection can shrink them).
    Above one range, P-1 cut rows are taken at the quantiles of a
    sample over ALL the sort keys, up to ``sample_per_block`` sorted rows
    of each source block (one raw task per block, which also returns
    the mapped bytes), so a hot first key with many distinct later keys
    still spreads over ranges.  A block function runs twice, in the
    sample task and in the split task.  The sample sets only the
    balance: any cut rows give the same sorted rows.  Rows with equal
    key tuples fall in one range; ties keep source-block order (the sort
    is stable).  Nulls sort last.  A lazy Dataset source is materialized
    once, for the sample and the exchange; a ``_range`` input column
    raises."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    srcs = [(materialized(s), fn) for s, fn in _sources(sources)]
    blocks, _, sizes = _walk_sources(srcs)
    P = _sized(sizes, max_parts)
    cuts = None
    if P > 1:  # sized again on the rows the block functions give
        samples, mapped = zip(*(
            _submit(_sample_task, ref, fn, keys, sample_per_block)
            for ref, fn in blocks))
        P = _sized(fetch(mapped), P)
    if P > 1:
        samp = pa.concat_tables(fetch(samples),
                                promote_options="permissive")
        samp = samp.sort_by(_ascending(keys))
        cuts = samp.take(np.linspace(0, samp.num_rows - 1, P + 1)[1:-1]
                         .astype(np.int64))

    def tag(t: pa.Table) -> pa.Table:
        if _RANGE in t.column_names:
            raise ValueError(f"column name {_RANGE!r} is reserved by the "
                             "range exchange — rename it")
        ids = (np.zeros(t.num_rows, np.int64) if cuts is None
               else _range_ids(t, keys, cuts))
        return t.append_column(_RANGE, pa.array(ids, pa.int64()))

    def sort(t: pa.Table) -> pa.Table:
        t = t.drop_columns([_RANGE]).sort_by(_ascending(keys))
        return t if reduce_fn is None else reduce_fn(t)

    return range_exchange([(s, _then(fn, tag)) for s, fn in srcs], _RANGE,
                          sort, P)


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


def _pr_contrib(epart: pa.Table, rankpart: pa.Table) -> pa.Table:
    """Join stationary edges (node, dst, factor) with this partition's
    ranks (node, rank) — co-partitioned on hash(node), so the join is
    complete locally — then emit per-dst partial contribution sums,
    routed on hash(dst) to the reduce side."""
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
    return pa.table({"dst": g.column("dst"),
                     "contrib": g.column("contrib_sum")})


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
) -> rd.Dataset:
    """BSP power iteration.  ``efact``: (node=src, dst, factor=1/outdeg)
    rows; ``nodes``: distinct (node) rows; each a Dataset (lazy or not)
    or sources as :func:`exchange_blocks` takes them.  Returns a
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
    eparts = dataset_to_part_refs(efact, "node", num_parts, _S_E)
    node_parts = dataset_to_part_refs(nodes, "node", num_parts, _S_N)

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

    for it in range(start_iter, iterations):
        dest = _route([(_pr_contrib, (eparts[p], rank_parts[p]))
                       for p in range(num_parts)], ["dst"], num_parts)
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


def _cc_prop(epart: pa.Table, lblpart: pa.Table) -> pa.Table:
    """Neighbor propagation: for stationary und-edges (src, dst) and this
    partition's labels (name_id, component) — co-partitioned on
    hash(src) — emit per-dst min(component) messages, routed on
    hash(dst)."""
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
    return pa.table({
        "name_id": pa.array(g["dst"].to_numpy(), pa.int64()),
        "component": pa.array(g["component"].to_numpy(), pa.int64()),
    })


def _cc_jump_req(lblpart: pa.Table) -> pa.Table:
    """Pointer-jump request: route (x, c) to the partition owning label
    value c, so the owner can answer with component(c)."""
    return pa.table({
        "name_id": lblpart.column("name_id"),
        "c": lblpart.column("component"),
    })


def _cc_jump_serve(lblpart: pa.Table, *reqs: pa.Table) -> pa.Table:
    """Answer pointer-jump requests: (x, c) + local (c -> c') ->
    (x, c'), routed on hash(x) to the reduce."""
    req = pa.concat_tables(reqs)
    r = pd.DataFrame({
        "name_id": req.column("name_id").to_numpy(zero_copy_only=False),
        "c": req.column("c").to_numpy(zero_copy_only=False),
    })
    l_ = pd.DataFrame({
        "c": lblpart.column("name_id").to_numpy(zero_copy_only=False),
        "component": lblpart.column("component").to_numpy(zero_copy_only=False),
    })
    m = r.merge(l_, on="c", how="inner")
    return pa.table({
        "name_id": pa.array(m["name_id"].to_numpy(), pa.int64()),
        "component": pa.array(m["component"].to_numpy(), pa.int64()),
    })


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
    und,
    *,
    num_parts: int = 16,
    max_rounds: int = 64,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
) -> tuple[rd.Dataset, int]:
    """BSP min-label propagation + pointer jumping.  ``und`` must be the
    SYMMETRIC (both directions present) edge set with int64 src/dst, a
    Dataset or sources as :func:`exchange_blocks` takes them (each
    orientation a source: their union, with no union execution).
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
    eparts = dataset_to_part_refs(und, "src", num_parts, _S_E)

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

    rounds = start_round
    for _ in range(start_round, max_rounds):
        rounds += 1
        props = _route([(_cc_prop, (eparts[p], lbl_parts[p]))
                        for p in range(num_parts)], ["name_id"], num_parts)
        reqs = _route([(_cc_jump_req, (lbl_parts[p],))
                       for p in range(num_parts)], ["c"], num_parts)
        serves = _route([(_cc_jump_serve, (lbl_parts[r], *reqs[r]))
                         for r in range(num_parts)], ["name_id"], num_parts)
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


def _lpa_vote(epart: pa.Table, lblpart: pa.Table) -> pa.Table:
    """Stationary und-edges (node, nbr) partitioned on hash(nbr) join
    this partition's labels (node, lbl) — co-partitioned, so lbl(nbr)
    resolves locally — and emit per-(voter, lbl) partial vote counts,
    routed on hash(voter) to the reduce side."""
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
    return pa.table({
        "node": pa.array(g["voter"].to_numpy(np.int64), pa.int64()),
        "lbl": pa.array(g["lbl"].to_numpy(np.int64), pa.int64()),
        "c": pa.array(g["c"].to_numpy(np.int64), pa.int64()),
    })


@ray.remote
def _lpa_winner(*partials: pa.Table) -> pa.Table:
    """Sum partial votes per (node, lbl) and pick each node's winner:
    highest count, ties to the smaller label — one vectorized
    sort + drop_duplicates over every node in the partition."""
    live = [t for t in partials if t.num_rows]
    if not live:
        return pa.schema([("node", pa.int64()),
                          ("lbl", pa.int64())]).empty_table()
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
    eparts = dataset_to_part_refs(und, "nbr", num_parts, _S_E)

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
    for it in range(start_iter, iterations):
        votes = _route([(_lpa_vote, (eparts[p], lbl_parts[p]))
                        for p in range(num_parts)], ["node"], num_parts)
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


def _hits_push(epart: pa.Table, scorepart: pa.Table) -> pa.Table:
    """Stationary directed edges (node, _o) partitioned on hash(node)
    join this partition's scores (node, s) locally; emit per-_o partial
    sums routed on hash(_o)."""
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
    return pa.table({
        "node": pa.array(g["_o"].to_numpy(np.int64), pa.int64()),
        "s": pa.array(g["s"].to_numpy(np.float64), pa.float64()),
    })


@ray.remote
def _hits_reduce(*partials: pa.Table) -> pa.Table:
    live = [t for t in partials if t.num_rows]
    if not live:
        return pa.schema([("node", pa.int64()),
                          ("s", pa.float64())]).empty_table()
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
    eparts_o = dataset_to_part_refs(eo, "node", num_parts, _S_E)
    eparts_i = dataset_to_part_refs(ei, "node", num_parts, _S_E)

    @ray.remote
    def _init_hub(ep: pa.Table) -> pa.Table:
        ids = np.unique(ep.column("node").to_numpy(zero_copy_only=False))
        return pa.table({"node": pa.array(ids, pa.int64()),
                         "s": pa.array(np.ones(len(ids), np.float64))})

    def half_step(eparts, scores):
        pushed = _route([(_hits_push, (eparts[p], scores[p]))
                         for p in range(num_parts)], ["node"], num_parts)
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
