"""KG-construction pipeline assembly (Ray Data Dataset graph).

End-to-end flow (north star):
  read_parquet(pages shards, columns pruned at the read)
  -> strip_html (map_batches, drops binary column)
  -> filter_lang (vectorized arrow predicate)
  -> extract_triples (per-document kernel: chunking/coref/patterns/KB)
  -> link (``link_mode``: "task", the default — a map task with the KB
     index cached per worker, KB broadcast via ray.put; "join" —
     shuffle-join linking, ``link_entities_join``, nothing broadcast)
  -> canonicalize (MinHash-LSH blocking + union-find shuffles)
  -> validate (vectorized confidence)
  -> global (subj,pred,obj) dedup (one hash exchange; the canonical
     rewrite and validation run in its split tasks, or at one partition
     in its reduce task)
  -> partitioned Parquet + N-Triples files, one raw sink task per block,
     per-partition manifests.

After the extraction chain's one materialization, the steps run in raw
Ray tasks (``stages/bsp.py``) that hand their block refs (``bsp.Blocks``)
to each other, with no Ray Data execution and no Dataset between them.
These steps are the tail (:func:`_tail_steps`); ``build_triples.blocks``
returns them not yet run (:class:`_Tail`), and its consumer runs them
with its own last step, ``run_partitioned``'s sink included.  When the
tail's inputs (the extraction blocks and, in join mode, the KB's label
and band blocks) hold at most ``DataContext.target_min_block_size``
bytes, the whole tail runs as ONE raw task (``bsp.run_in_task``);
larger inputs run it step by step from the driver.  Either way every
exchange chooses the same partition count, so the rows are the same.
``run_partitioned`` processes the input in partition groups of whole
files, dealt round-robin (file ``i`` of the sorted list to group
``i % partitions``), two groups in flight at once
(``PARTITIONS_IN_FLIGHT``), so partitions commit in no fixed order.
Each partition's output and manifest commit atomically, so a failed run
resumes by skipping complete partitions whose manifest lists their
current files (state/manifest.py).
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..kernels.minhash import _hash_shingles
from ..state import counters
from ..stages.bsp import (Blocks, _as_table, _concat, _source_blocks,
                          _submit, block_values, fetch, fits_one_task,
                          map_blocks, run_in_task)
from ..stages.canonicalize import canonical_rewrite, canonicalize_surfaces, dedup_triples
from ..stages.exchange import _KEY_HASH_VERSION, _then, dataset_api
from ..stages.kg_stages import (
    KBLabelTable,
    extract_triples,
    make_lang_filter,
    strip_html,
    validate_triples,
)

PAGE_COLUMNS = ["url", "warc_ts", "html", "lang"]
#: changed surfaces above which ``build_triples`` rewrites by a hash join
CANONICAL_MAP_JOIN_THRESHOLD = 1_000_000


def read_pages(path: str, *, use_gold_text: bool = False,
               lang: str | None = None) -> rd.Dataset:
    """Read pages shards with column pruning at the read (only the columns
    the pipeline touches leave storage).  Passing ``lang`` additionally
    pushes the language predicate into the scan (pyarrow row-group
    filtering) so filtered rows never leave storage."""
    cols = ["url", "warc_ts", "text", "lang"] if use_gold_text else PAGE_COLUMNS
    kwargs = {}
    if lang is not None:
        kwargs["filter"] = pc.field("lang") == lang
    return rd.read_parquet(path, columns=cols, **kwargs)


@dataset_api
def build_triples(
    pages: rd.Dataset,
    *,
    kb_records=None,
    lang: str | None = "en",
    link: bool = True,
    canonicalize: bool = True,
    validate: bool = True,
    drop_invalid: bool = False,
    dedup: bool = True,
    from_html: bool = True,
    link_mode: str = "task",  # "task" (small KB) | "join" (KB too big to broadcast)
    link_fuzzy_threshold: float = 0.8,
    link_confidence_threshold: float = 0.5,
    extract_batch_size: int = 256,
    extract_kwargs: dict | None = None,
    canonicalize_local_threshold: int = 100_000,
    canonicalize_tau: float | None = None,
) -> rd.Dataset:
    """Assemble the pipeline from pages to canonical triples (without
    dedup a lazy Dataset when nothing before materialized them).
    ``link_mode`` other than ``"task"`` or ``"join"`` raises.  In task
    mode ``kb_records`` may be the ``ray.put`` ref of the records, so
    several calls share one KB index per worker."""
    if link_mode not in ("task", "join"):
        raise ValueError(f"link_mode {link_mode!r}: use 'task' (KB "
                         "broadcast) or 'join' (shuffle-join linking)")
    ds = pages
    # filter on the cheap lang column BEFORE parsing html: filtered pages
    # never pay the strip cost (and with read_pages(lang=...) pushdown they
    # never leave storage at all)
    if lang:
        ds = ds.map_batches(make_lang_filter(lang), batch_format="pyarrow")
    if from_html:
        ds = ds.map_batches(strip_html, batch_format="pyarrow", batch_size=512)
    if extract_kwargs:
        ds = ds.map_batches(
            lambda t, kw=dict(extract_kwargs): extract_triples(t, extract_kwargs=kw),
            batch_format="pyarrow", batch_size=extract_batch_size,
        )
    else:
        ds = ds.map_batches(
            extract_triples, batch_format="pyarrow", batch_size=extract_batch_size
        )
    join = link and kb_records is not None and link_mode == "join"
    if link and kb_records is not None and not join:
        # task mode (default for small KBs): per-worker cached index,
        # keeps the fused map chain at full task parallelism
        from ..stages.kg_stages import make_link_task

        kb_ref = (kb_records if isinstance(kb_records, ray.ObjectRef)
                  else ray.put(kb_records))
        ds = ds.map_batches(
            make_link_task(kb_ref, fuzzy_threshold=link_fuzzy_threshold,
                           confidence_threshold=link_confidence_threshold),
            batch_format="pyarrow", batch_size=2048,
        )
    rules = None
    if validate:
        # capture registered custom rules at graph-construction time (the
        # driver-side registry is not visible inside worker processes)
        from ..functions.registry import get_rules

        rules = tuple(get_rules())
        # reject document-shaped rules LOUDLY at graph build: the
        # relational validator only sees {@type, name, pred_key, obj},
        # so a rule requiring e.g. 'birthDate' would silently fail
        # every matching triple instead of checking anything
        from ..stages.kg_stages import RELATIONAL_RULE_KEYS

        for rule in rules:
            unknown = [p for p in rule.required_properties
                       if p not in RELATIONAL_RULE_KEYS]
            if unknown:
                raise ValueError(
                    f"validation rule {rule.name!r} requires properties "
                    f"{unknown} that the relational pipeline row view "
                    f"does not carry ({sorted(RELATIONAL_RULE_KEYS)}); "
                    "document-shaped rules apply via "
                    "functions.registry.apply_custom_rules / "
                    "kernels.validation.validate_document"
                )
    if not (join or canonicalize or dedup):
        # nothing needs the rows materialized: the row steps stay lazy
        fn = _row_steps(rules, drop_invalid)
        return ds if fn is None else ds.map_batches(fn, batch_format="pyarrow")
    kb = None
    if join:
        # shuffle-join linking: nothing replicated per worker — the
        # at-scale mode for KBs too large to broadcast
        kb = (kb_records if isinstance(kb_records, KBLabelTable)
              else KBLabelTable(kb_records))
    return _Tail(Blocks.of_dataset(ds), kb, functools.partial(
        _tail_steps, join=join, fuzzy_threshold=link_fuzzy_threshold,
        confidence_threshold=link_confidence_threshold,
        canonicalize=canonicalize,
        canonicalize_local_threshold=canonicalize_local_threshold,
        canonicalize_tau=canonicalize_tau, rules=rules,
        drop_invalid=drop_invalid, dedup=dedup))


def _row_steps(rules: tuple | None, drop_invalid: bool):
    """Validation (``rules`` None: none) and the invalid-row filter as one
    Arrow block function (None: no step)."""
    fns = []
    if rules is not None:
        fns.append(functools.partial(validate_triples, rules=rules)
                   if rules else validate_triples)
        if drop_invalid:
            # KG_VALIDATION_DROP_INVALID: emit only valid triples
            fns.append(lambda t: t.filter(pc.equal(t.column("valid"), True)))
    return functools.reduce(_then, fns, None)


def _tail_steps(ds: Blocks, kb, *, join: bool, fuzzy_threshold: float,
                confidence_threshold: float, canonicalize: bool,
                canonicalize_local_threshold: int,
                canonicalize_tau: float | None, rules: tuple | None,
                drop_invalid: bool, dedup: bool) -> Blocks:
    """``build_triples``' steps after the extraction chain over its
    materialized blocks ``ds``: join linking over the label table ``kb``,
    canonicalization, validation and dedup, each a raw-task step
    (``stages/bsp.py``).  Run from the driver, or in one tail task
    (:class:`_Tail`)."""
    if join:
        from ..stages.kg_stages import link_entities_join

        ds = link_entities_join.blocks(
            ds, kb, fuzzy_threshold=fuzzy_threshold,
            confidence_threshold=confidence_threshold)
    # the row steps as Arrow block functions: with dedup they run in the
    # tasks of its exchange, in front of its combiner
    fns = []
    if canonicalize:
        from ..stages.canonicalize import DEFAULT_TAU, canonicalize_local

        # per-block distinct surfaces (combiner), NO exchange yet: the
        # row count is an UPPER bound on the distinct count, so the
        # local tier can collect these rows directly (bounded by the
        # threshold) and finish the distinct in one set() — skipping the
        # hash-exchange a global distinct would cost; above the
        # threshold the distinct is a hash exchange
        comb = map_blocks(ds, _surface_rows)
        tau = DEFAULT_TAU if canonicalize_tau is None else canonicalize_tau
        if comb.num_rows() <= canonicalize_local_threshold:
            # small distinct-surface set: identical LSH+union-find
            # semantics computed in this process (broadcast-small-side
            # path)
            surfaces = sorted({v for t in fetch(comb.refs)
                               for v in t.column("surface").to_pylist()})
            mapping = canonicalize_local(surfaces, tau=tau)
            if mapping:
                fns.append(canonical_rewrite(mapping))
        else:
            from ..stages.canonicalize import apply_canonical_join
            from ..stages.exchange import agg_blocks

            cmap = canonicalize_surfaces.blocks(agg_blocks(comb, ["surface"]),
                                                tau=tau)
            changed = map_blocks(cmap, lambda t: t.filter(
                pc.invert(pc.equal(t.column("surface"), t.column("canonical")))))
            n_changed = changed.num_rows()
            if n_changed > CANONICAL_MAP_JOIN_THRESHOLD:
                # mapping too large to broadcast: hash-partitioned join
                # rewrite (same output contract as the broadcast map)
                ds = apply_canonical_join.blocks(ds, changed)
            elif n_changed:
                # only actually-merged surfaces come back
                mapping = {s: c for t in fetch(changed.refs)
                           for s, c in zip(t.column("surface").to_pylist(),
                                           t.column("canonical").to_pylist())}
                fns.append(canonical_rewrite(mapping))
    fn = functools.reduce(_then, fns + [_row_steps(rules, drop_invalid)], None)
    if dedup:
        return dedup_triples.blocks((ds, fn))
    return ds if fn is None else map_blocks(ds, fn)


class _Tail:
    """What ``build_triples.blocks`` returns when steps follow the
    extraction chain: its materialized blocks ``triples`` (non-empty,
    ``Blocks.of_dataset``), the label table ``kb`` (None: no join
    linking) and the steps (:func:`_tail_steps`), not run yet.  The
    consumer runs them: :meth:`blocks` (the public ``build_triples``'
    Dataset), or :func:`_write_partition_files`, which runs the
    partition's sink with them.

    When the inputs (the extraction blocks and, with join linking, the
    KB's label and band blocks) hold at most
    ``DataContext.target_min_block_size`` bytes, the size at which every
    exchange over them alone gets one partition
    (``bsp.fits_one_task``), the steps and the sink run as ONE raw task
    (``bsp.run_in_task``): a warm partition then costs one task instead
    of ~30 dependent ones, each with its submission, metadata fetch and
    scheduling hop.  Larger inputs run step by step from the driver,
    where the exchanges spread over the cluster.  Either way the steps
    choose the same partition counts and give the same rows."""

    def __init__(self, triples: Blocks, kb, steps) -> None:
        self.triples = triples
        self.kb = kb
        self.steps = steps

    def _sources(self) -> list[Blocks]:
        if self.kb is None:
            return [self.triples]
        labels = self.kb.labels()
        if not isinstance(labels, Blocks):  # a Dataset KB's label table
            labels = Blocks.of_dataset(labels)
        return [self.triples, labels, self.kb.bands()]

    def _in_one_task(self, finish):
        """The refs of ``finish(output blocks)``, a pair, computed by one
        tail task when the inputs fit it; None when they do not."""
        srcs = self._sources()
        if not fits_one_task(*srcs):
            return None
        return run_in_task(functools.partial(_tail_in_task, self.steps, finish),
                           *srcs)

    def blocks(self) -> Blocks:
        """The output blocks: one block from a tail task, the steps'
        blocks from the driver."""
        refs = self._in_one_task(_one_block)
        if refs is None:
            return self.steps(self.triples, self.kb)
        block, meta = refs
        meta = ray.get(meta)
        return Blocks([], []) if meta is None else Blocks([block], None, [meta])

    def dataset(self) -> rd.MaterializedDataset:
        return self.blocks().dataset()

    def write(self, write_fn):
        """``write_fn(output blocks)`` (a sink), in the tail task with
        the steps when the inputs fit it."""
        refs = self._in_one_task(functools.partial(_with_none, write_fn))
        if refs is None:
            return write_fn(self.steps(self.triples, self.kb))
        return ray.get(refs[0])


def _tail_in_task(steps, finish, triples: Blocks, labels: Blocks | None = None,
                  bands: Blocks | None = None):
    """A tail task's body: the steps over its input blocks, then
    ``finish``."""
    kb = None if labels is None else KBLabelTable.of_blocks(labels, bands)
    return finish(steps(triples, kb))


def _one_block(out: Blocks) -> tuple:
    """A tail task's output blocks as one block and its metadata
    (``(None, None)``: no blocks)."""
    from ray.data.block import BlockMetadataWithSchema

    tables = fetch(out.refs)
    if not tables:
        return None, None
    t = _concat(tables, None)
    return t, BlockMetadataWithSchema.from_block(t)


def _with_none(fn, out) -> tuple:
    return fn(out), None


def _block_counts(batch: pa.Table) -> list[dict]:
    """One block's (method, rows, valid, linked) counts, one dict per
    method (rows of a null method are not counted)."""
    n = batch.num_rows
    if not n:  # an empty block may have no columns
        return []
    t = pa.table({
        "method": batch.column("method"),
        "valid": (batch.column("valid").cast(pa.int64())
                  if "valid" in batch.column_names
                  else pa.array(np.ones(n, np.int64))),
        "linked": (pc.is_valid(batch.column("subj_uri")).cast(pa.int64())
                   if "subj_uri" in batch.column_names
                   else pa.array(np.zeros(n, np.int64))),
    })
    g = t.group_by("method").aggregate(
        [("method", "count"), ("valid", "sum"), ("linked", "sum")])
    return [r for r in g.to_pylist() if r["method"] is not None]


def _sum_counts(parts) -> dict:
    """The driver sum of the blocks' :func:`_block_counts`: triples by
    extraction method, valid and linked counts."""
    sums: dict = {}
    for part in parts:
        for r in part:
            acc = sums.setdefault(r["method"], [0, 0, 0])
            acc[0] += r["method_count"]
            # a sum over nulls only is null
            acc[1] += r["valid_sum"] or 0
            acc[2] += r["linked_sum"] or 0
    if not sums:
        return {}
    out = {f"triples_method_{m}": sums[m][0] for m in sorted(sums)}
    out["triples_valid"] = sum(v[1] for v in sums.values())
    out["triples_linked"] = sum(v[2] for v in sums.values())
    return out


def _triple_counters(triples: rd.Dataset) -> dict:
    """Per-partition metric counters (recorded in the partition manifest
    for the run report — the 'per-partition lineage + metrics'
    requirement): one task per block of the triples counts its block
    (:func:`_block_counts`, the partition sink's kernel); the driver
    sums."""
    return _sum_counts(block_values(triples, _block_counts))


def _surface_rows(batch: pa.Table) -> pa.Table:
    subj = batch.column("subj").to_pylist()
    objs = batch.column("obj").to_pylist()
    obj_types = batch.column("obj_type").to_pylist()
    names = set(subj) | {o for o, t in zip(objs, obj_types) if t}
    return pa.table({"surface": pa.array(sorted(names), pa.string())})


#: partition groups ``run_partitioned`` has in flight at once.  While a
#: partition's driver builds its extraction plan and waits on its
#: execution and its tail task, that partition leaves workers idle; a
#: second partition in flight runs its tasks in those gaps.  On a 4-vCPU
#: host, warm passes over perfbench's seed-3 partitioned_at_scale pages
#: dealt into four partitions took 1.32 / 1.20 / 1.12 s with 1 / 2 / 3
#: in flight at one Ray CPU and 1.48 / 0.81 / 0.85 s at four (median of
#: five; over perfbench's two partitions, 1 / 2 in flight: 0.96 / 0.90 s
#: at one Ray CPU, 1.01 / 0.60 s at four).  A third partition in flight
#: gains 7% at one Ray CPU and loses 5% at four.  Each partition in
#: flight holds its extraction blocks in the object store until its
#: tail task has written them.
PARTITIONS_IN_FLIGHT = 2


def run_partitioned(
    pages_path: str,
    out_dir: str,
    *,
    partitions: int = 4,
    kb_records=None,
    resume: bool = True,
    subject_buckets: int = 0,
    ntriples: bool = False,
    sort_output: bool = False,
    **build_kwargs,
) -> dict:
    """Partitioned, resumable run: the sorted input files are dealt
    round-robin into partition groups (file ``i`` to group
    ``i % partitions``); each group runs the full pipeline and commits
    atomically with a manifest (``state.manifest.write_partition``).

    Up to ``PARTITIONS_IN_FLIGHT`` groups are in flight at once, so
    partitions may commit in any order.  Each group is built, written
    (raw sink tasks, :func:`_write_partition_files`) and committed on a
    driver thread of its own: the extraction chain's one Ray Data
    execution, then the tail and the sink, as one raw task when the
    partition is small (:class:`_Tail`).  The calling thread reads the resume
    state, builds every group's read, so every Ray Data path resolution
    runs on it, and shares the KB between the groups (one ``ray.put`` in
    task mode, one ``KBLabelTable`` with ``link_mode="join"``).  With
    ``resume`` a partition is skipped when its manifest is complete and
    lists its current group's files and ``subject_buckets`` layout; a
    complete manifest over other files or another layout raises
    (``manifest.resumable``).  The first partition that fails stops the
    ones not yet started, waits for the running ones and re-raises; no
    partition thread outlives the call, and a failed partition leaves no
    committed or tmp directory.  Returns the aggregated run report."""
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    from ..state import manifest as mf

    files = sorted(
        os.path.join(pages_path, f)
        for f in os.listdir(pages_path)
        if f.endswith(".parquet")
    )
    if not files:
        raise FileNotFoundError(f"no parquet files under {pages_path}")
    groups: list[list[str]] = [[] for _ in range(partitions)]
    for i, f in enumerate(files):
        groups[i % partitions].append(f)

    report = {"partitions": partitions, "skipped": 0, "ran": 0}
    todo = []
    for part, group in enumerate(groups):
        if not group:
            continue
        if resume and mf.resumable(out_dir, part, group,
                                   _layout(subject_buckets)):
            report["skipped"] += 1
            continue
        todo.append((part, group, rd.read_parquet(group, columns=PAGE_COLUMNS)))
    if todo and kb_records is not None:
        if build_kwargs.get("link_mode") == "join":
            kb_records = KBLabelTable(kb_records)
            kb_records.labels()
            kb_records.bands()
        else:
            # one ref for every partition: a worker keeps one KB index
            # per ref (make_link_task)
            kb_records = ray.put(kb_records)

    def run(part: int, group: list[str], pages: rd.Dataset) -> None:
        docs_in = pages.count()
        # the dedup output's blocks go to the sink as they are
        triples = build_triples.blocks(pages, kb_records=kb_records,
                                       **build_kwargs)
        mf.write_partition(
            out_dir, part,
            lambda tmp_dir: _write_partition_files(
                triples, tmp_dir, sort_output=sort_output,
                subject_buckets=subject_buckets, ntriples=ntriples),
            input_fragments=group, counters={"docs_in": docs_in})

    pool = ThreadPoolExecutor(max_workers=PARTITIONS_IN_FLIGHT,
                              thread_name_prefix="kg-partition")
    try:
        futs = [pool.submit(run, *job) for job in todo]
        wait(futs, return_when=FIRST_EXCEPTION)
    finally:
        # after a failure (or an interrupt of the caller) no partition
        # starts; the running ones finish
        pool.shutdown(wait=True, cancel_futures=True)
    for fut in futs:
        if not fut.cancelled():
            fut.result()  # the first failure, in partition order
    report["ran"] = len(todo)
    report["counters"] = mf.aggregate_counters(out_dir)
    return report


def _layout(subject_buckets: int) -> dict:
    """The stamp of a partition's file layout, kept in its manifest: the
    subject bucket count and the version of the string hash that places
    a subject in its bucket (``exchange._KEY_HASH_VERSION``)."""
    return {"subject_buckets": subject_buckets,
            "hash_version": _KEY_HASH_VERSION}


def _bucket_ids(subj, subject_buckets: int) -> np.ndarray:
    """Each subject's ``subj_bucket``: ``fnv(subj) % subject_buckets``,
    the placement FNV the dedup salt uses (SURVEY.md §7.2 item 7);
    ``subj`` is an Arrow string column or a list."""
    return (_hash_shingles(subj) % np.uint64(subject_buckets)
            ).astype(np.int32)


@ray.remote
def _sink_task(tbl, block: int, parquet_dir: str | None, subject_buckets: int,
               nt_dir: str | None) -> tuple[int, list[dict]]:
    """Block ``block`` of a triples output as files: with ``parquet_dir``,
    ``part-<block>-<hash>.parquet`` there or, with ``subject_buckets``,
    under each ``subj_bucket=K/`` present (no bucket column, as a hive
    writer drops it); with ``nt_dir``, its N-Triples lines as
    ``part-<block>-<hash>.nt`` (a CSV writer would add a header and
    re-quote lines holding ``"``).  A file is named from the block and a
    hash of its bytes and written to a tmp name, then renamed: a retry
    rewrites the same files, and two blocks of equal rows keep a file
    each.  Returns the rows and, with Parquet, :func:`_block_counts`."""
    import hashlib

    import pyarrow.parquet as pq

    from ..kernels.jsonld import render_ntriples

    tbl = _as_table(tbl, None)

    def put(out_dir: str, ext: str, body: bytes) -> None:
        tag = hashlib.blake2b(body, digest_size=10).hexdigest()
        path = os.path.join(out_dir, f"part-{block:05d}-{tag}.{ext}")
        os.makedirs(out_dir, exist_ok=True)
        with open(f"{path}.tmp-{os.getpid()}", "wb") as fh:
            fh.write(body)
        os.replace(fh.name, path)

    def parquet(out_dir: str, t: pa.Table) -> None:
        buf = pa.BufferOutputStream()
        pq.write_table(t, buf)
        put(out_dir, "parquet", buf.getvalue().to_pybytes())

    if parquet_dir is not None and subject_buckets:
        ids = _bucket_ids(tbl.column("subj"), subject_buckets)
        for k in np.unique(ids):
            parquet(os.path.join(parquet_dir, f"subj_bucket={k}"),
                    tbl.filter(pa.array(ids == k)))
    elif parquet_dir is not None:
        parquet(parquet_dir, tbl)
    if nt_dir is not None:
        cols = [tbl.column(c).to_pylist()
                for c in ("subj", "pred", "obj", "obj_type")]
        put(nt_dir, "nt", "".join(render_ntriples(s, p, o, bool(t)) + "\n"
                                  for s, p, o, t in zip(*cols)).encode("utf-8"))
    return tbl.num_rows, _block_counts(tbl) if parquet_dir is not None else []


def _sink(triples, parquet_dir: str | None, subject_buckets: int,
          nt_dir: str | None) -> tuple[int, dict]:
    """:func:`_sink_task` over each non-empty block of ``triples`` (a
    Dataset or ``bsp.Blocks``), block ``i`` as files ``part-<i>-…``: no
    Ray Data execution for materialized triples, and an output dir is
    made even when no block has rows.  Returns the rows written and the
    summed counts; raises when the files hold other than the blocks'
    rows."""
    for d in (parquet_dir, nt_dir):
        if d is not None:
            os.makedirs(d, exist_ok=True)
    blocks, _ = _source_blocks(triples)
    done = fetch([
        _submit(_sink_task, ref, i, parquet_dir, subject_buckets, nt_dir)
        for i, (ref, _rows, _bytes) in enumerate(blocks)])
    rows, want = sum(n for n, _ in done), sum(n for _, n, _ in blocks)
    if rows != want:
        raise RuntimeError(f"the sink wrote {rows} of {want} triples")
    return rows, _sum_counts(c for _, c in done)


def _write_partition_files(triples, tmp_dir: str, *, sort_output: bool,
                           subject_buckets: int, ntriples: bool) -> dict:
    """One partition's data files, written into its tmp dir by one raw
    task per block (:func:`_sink`) of ``triples`` (a Dataset,
    ``bsp.Blocks`` or ``build_triples.blocks``' pending steps, which
    then run with the sink, in one tail task when they fit it,
    :meth:`_Tail.write`); N-Triples under ``ntriples/``.  Returns the
    manifest's rows, counters and layout stamp (:func:`_layout`)."""
    write = functools.partial(_write_files, tmp_dir=tmp_dir,
                              sort_output=sort_output,
                              subject_buckets=subject_buckets,
                              ntriples=ntriples)
    return triples.write(write) if isinstance(triples, _Tail) else write(triples)


def _write_files(triples, *, tmp_dir: str, sort_output: bool,
                 subject_buckets: int, ntriples: bool) -> dict:
    """:func:`_write_partition_files` over the triples' blocks."""
    if sort_output:
        # deterministic file ordering (SURVEY §2.6: the only global
        # ordering the engine needs): one file per sorted range, in name
        # order; partition outputs are small post-dedup, so the sort is
        # partition-local and cheap
        from ..stages.bsp import sort_blocks

        triples = sort_blocks(triples, ["subj", "pred", "obj"])
    rows, counts = _sink(triples, tmp_dir, subject_buckets,
                         os.path.join(tmp_dir, "ntriples") if ntriples else None)
    return {"rows": rows, "counters": {"triples_out": rows, **counts},
            **_layout(subject_buckets)}


def write_ntriples(triples: rd.Dataset, out_dir: str) -> None:
    """Render canonical triples as N-Triples text shards
    ``part-<block>-<content hash>.nt``, one raw task per block
    (:func:`_sink_task`)."""
    _sink(triples, None, 0, out_dir)


def compact_partitions(out_dir: str, final_dir: str) -> dict:
    """Cross-partition compaction: the per-partition outputs dedup only
    within their partition (input is file-partitioned, so the same fact can
    surface in several partitions); this final job runs the global
    (subj, pred, obj) exchange over all completed partitions and writes the
    canonical graph table.  At 100 TB this is the cheap step: it reads
    triples (tiny vs pages) and shuffles once."""
    from ..state import manifest as mf

    parts = mf.completed_partitions(out_dir)
    if not parts:
        raise FileNotFoundError(f"no completed partitions under {out_dir}")
    files = []
    for part in parts:
        pdir = mf.partition_dir(out_dir, part)
        for root, _dirs, names in os.walk(pdir):
            files.extend(
                os.path.join(root, n) for n in names if n.endswith(".parquet")
            )
    triples = rd.read_parquet(files)
    rows_in = triples.count()
    if "subj_bucket" in (triples.schema().names or []):
        triples = triples.drop_columns(["subj_bucket"])
    rows_out, _ = _sink(dedup_triples(triples), final_dir, 0, None)
    return {"partitions": len(parts), "rows_in": rows_in, "rows_out": rows_out}


def subject_lookup(
    out_dir: str,
    subject: str,
    *,
    subject_buckets: int,
) -> rd.Dataset:
    """Partition-pruned KG point lookup: all triples of one subject from
    a ``run_partitioned(subject_buckets=B)`` graph WITHOUT scanning the
    graph — the "get me entity X" product query.

    The writer co-located each subject under ``subj_bucket=hash(subj)%B``
    hive directories; the reader recomputes the SAME vectorized-FNV
    bucket (:func:`_bucket_ids`) and opens ONLY that bucket's files
    across all pipeline partitions (1/B of the graph), then applies the
    exact subject filter.  A completed partition whose manifest stamp
    (:func:`_layout`) records another ``subject_buckets`` or hash version
    raises ``ValueError`` naming the field.  Emits ``sublookup_files_total`` / ``sublookup_files_read``
    counters so the pruning is observable (the lakehouse
    ``point_lookup`` discipline: never a silent full scan).
    """
    import glob as _glob

    from ..state import manifest as mf

    for part in mf.completed_partitions(out_dir):
        mf.check_stamp(out_dir, part, _layout(subject_buckets))
    b = int(_bucket_ids([subject], subject_buckets)[0])
    all_files = _glob.glob(
        os.path.join(out_dir, "**", "subj_bucket=*", "*.parquet"),
        recursive=True)
    want = f"subj_bucket={b}"
    hit_files = [f for f in all_files
                 if os.path.basename(os.path.dirname(f)) == want]
    counters.incr({"sublookup_files_total": len(all_files),
                   "sublookup_files_read": len(hit_files)})
    if not hit_files:
        raise FileNotFoundError(
            f"subject_lookup: no subj_bucket={b} files under {out_dir} — "
            f"was the graph written with subject_buckets={subject_buckets}?")
    ds = rd.read_parquet(hit_files)
    return ds.map_batches(
        lambda t: t.filter(pc.equal(t.column("subj"), subject)),
        batch_format="pyarrow")
