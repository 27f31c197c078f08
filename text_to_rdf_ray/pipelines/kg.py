"""KG-construction pipeline assembly (Ray Data Dataset graph).

End-to-end flow (north star):
  read_parquet(pages shards, columns pruned at the read)
  -> strip_html (map_batches, drops binary column)
  -> filter_lang (vectorized arrow predicate)
  -> extract_triples (per-document kernel: chunking/coref/patterns/KB)
  -> LinkEntities (actor pool; KB broadcast via ray.put)
  -> canonicalize (MinHash-LSH blocking + union-find shuffles)
  -> validate (vectorized confidence)
  -> global (subj,pred,obj) dedup (salted two-phase shuffle)
  -> partitioned Parquet + N-Triples sinks, per-partition manifests.

``run_partitioned`` processes the input in named partition groups (file
granularity) with atomic per-partition outputs + manifests so a failed run
resumes by skipping complete partitions (state/manifest.py).
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray
import ray.data as rd

from ..stages.canonicalize import apply_canonical_map, canonicalize_surfaces, dedup_triples
from ..stages.kg_stages import (
    LinkEntities,
    extract_triples,
    make_lang_filter,
    strip_html,
    validate_triples,
)

PAGE_COLUMNS = ["url", "warc_ts", "html", "lang"]


def read_pages(path: str, *, use_gold_text: bool = False,
               lang: str | None = None) -> rd.Dataset:
    """Read pages shards with column pruning at the read (only the columns
    the pipeline touches leave storage).  Passing ``lang`` additionally
    pushes the language predicate into the scan (pyarrow row-group
    filtering) so filtered rows never leave storage."""
    import pyarrow.compute as pc

    cols = ["url", "warc_ts", "text", "lang"] if use_gold_text else PAGE_COLUMNS
    kwargs = {}
    if lang is not None:
        kwargs["filter"] = pc.field("lang") == lang
    return rd.read_parquet(path, columns=cols, **kwargs)


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
    link_mode: str = "task",  # "task" (small KB) | "actor" (heavy KB/model) | "join" (KB too big to broadcast)
    link_concurrency=(2, 8),
    link_fuzzy_threshold: float = 0.8,
    link_confidence_threshold: float = 0.5,
    extract_batch_size: int = 256,
    extract_kwargs: dict | None = None,
    canonicalize_local_threshold: int = 100_000,
    canonicalize_tau: float | None = None,
    canonical_map_join_threshold: int = 1_000_000,
) -> rd.Dataset:
    """Assemble the lazy Dataset pipeline from pages to canonical triples."""
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
    if link and kb_records is not None:
        if link_mode == "join":
            # shuffle-join linking: nothing replicated per worker — the
            # at-scale mode for KBs too large to broadcast
            from ..stages.kg_stages import link_entities_join

            ds = link_entities_join(
                ds, kb_records,
                fuzzy_threshold=link_fuzzy_threshold,
                confidence_threshold=link_confidence_threshold,
            )
        elif link_mode == "actor":
            kb_ref = ray.put(kb_records)
            ds = ds.map_batches(
                LinkEntities,
                batch_format="pyarrow",
                batch_size=4096,
                concurrency=link_concurrency,
                fn_constructor_kwargs={
                    "kb_ref": kb_ref,
                    "fuzzy_threshold": link_fuzzy_threshold,
                    "confidence_threshold": link_confidence_threshold,
                },
            )
        else:
            # task mode (default for small KBs): per-worker cached index,
            # keeps the fused map chain at full task parallelism
            from ..stages.kg_stages import make_link_task

            kb_ref = ray.put(kb_records)
            ds = ds.map_batches(
                make_link_task(kb_ref, fuzzy_threshold=link_fuzzy_threshold,
                               confidence_threshold=link_confidence_threshold),
                batch_format="pyarrow", batch_size=2048,
            )
    if canonicalize:
        import pyarrow.compute as pc

        from ..stages.canonicalize import canonicalize_local

        ds = ds.materialize()
        # per-batch distinct surfaces (combiner), NO exchange yet: the
        # materialized row count is an UPPER bound on the distinct count,
        # so the driver tier can collect these rows directly (bounded by
        # the threshold) and finish the distinct in one set() — skipping
        # the hash-exchange a global distinct would cost.  Only when the
        # upper bound exceeds the threshold does the distributed
        # distinct (hash exchange; Ray's groupby().count() reduces per
        # key in Python — 153s vs <2s at 48k keys) run.
        comb = ds.map_batches(
            _surface_rows, batch_format="pyarrow").materialize()
        from ..stages.canonicalize import DEFAULT_TAU

        tau = DEFAULT_TAU if canonicalize_tau is None else canonicalize_tau
        if comb.count() <= canonicalize_local_threshold:
            # small distinct-surface set: identical LSH+union-find
            # semantics computed driver-side (broadcast-small-side path)
            surfaces = sorted({r["surface"] for r in comb.take_all()})
            mapping = canonicalize_local(surfaces, tau=tau)
            if mapping:
                ds = apply_canonical_map(ds, mapping)
        else:
            from ..stages.exchange import exchange_agg

            surfaces_ds = exchange_agg(comb, ["surface"]).materialize()
            from ..stages.canonicalize import apply_canonical_join

            cmap = canonicalize_surfaces(surfaces_ds, tau=tau)
            changed = cmap.map_batches(
                lambda t: t.filter(
                    pc.invert(pc.equal(t.column("surface"), t.column("canonical")))
                ),
                batch_format="pyarrow",
            ).materialize()
            n_changed = changed.count()
            if n_changed > canonical_map_join_threshold:
                # mapping too large to broadcast: hash-partitioned join
                # rewrite (same output contract as the broadcast map)
                ds = apply_canonical_join(ds, changed)
            elif n_changed:
                # only actually-merged surfaces come back to the driver
                mapping = {r["surface"]: r["canonical"] for r in changed.take_all()}
                ds = apply_canonical_map(ds, mapping)
    if validate:
        # capture registered custom rules at graph-construction time (the
        # driver-side registry is not visible inside worker processes)
        from ..functions.registry import get_rules

        rules = tuple(get_rules())
        if rules:
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
            ds = ds.map_batches(
                lambda t, r=rules: validate_triples(t, rules=r),
                batch_format="pyarrow",
            )
        else:
            ds = ds.map_batches(validate_triples, batch_format="pyarrow")
        if drop_invalid:
            # KG_VALIDATION_DROP_INVALID: emit only valid triples
            import pyarrow.compute as _pc

            ds = ds.map_batches(
                lambda t: t.filter(_pc.equal(t.column("valid"), True)),
                batch_format="pyarrow",
            )
    if dedup:
        ds = dedup_triples(ds)
    return ds


def _triple_counters(triples: rd.Dataset) -> dict:
    """Per-partition metric counters: triples by extraction method, valid
    and linked counts (recorded in the partition manifest for the run
    report — the 'per-partition lineage + metrics' requirement)."""

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        method = batch.column("method")
        t = pa.table(
            {
                "method": method,
                "valid": batch.column("valid").cast(pa.int64())
                if "valid" in batch.column_names
                else pa.array([1] * len(batch), pa.int64()),
                "linked": pc.cast(
                    pc.is_valid(batch.column("subj_uri")), pa.int64()
                )
                if "subj_uri" in batch.column_names
                else pa.array([0] * len(batch), pa.int64()),
            }
        )
        return t.group_by("method").aggregate(
            [("valid", "sum"), ("linked", "sum"), ("method", "count")]
        )

    df = triples.map_batches(partial, batch_format="pyarrow").to_pandas()
    if df.empty:
        return {}
    agg = df.groupby("method").sum()
    out: dict = {}
    for method, row in agg.iterrows():
        out[f"triples_method_{method}"] = int(row["method_count"])
    out["triples_valid"] = int(agg["valid_sum"].sum())
    out["triples_linked"] = int(agg["linked_sum"].sum())
    return out


def _surface_rows(batch: pa.Table) -> pa.Table:
    subj = batch.column("subj").to_pylist()
    objs = batch.column("obj").to_pylist()
    obj_types = batch.column("obj_type").to_pylist()
    names = set(subj) | {o for o, t in zip(objs, obj_types) if t}
    return pa.table({"surface": pa.array(sorted(names), pa.string())})


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
    """Partitioned, resumable run: input files are hashed into partition
    groups; each group runs the full pipeline and commits atomically with a
    manifest.  Returns the aggregated run report."""
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
    for part, group in enumerate(groups):
        if not group:
            continue
        if resume and mf.is_complete(out_dir, part):
            report["skipped"] += 1
            continue
        pages = rd.read_parquet(group, columns=PAGE_COLUMNS)
        docs_in = pages.count()
        triples = build_triples(pages, kb_records=kb_records, **build_kwargs)
        triples = triples.materialize()
        n_triples = triples.count()
        counters = {"docs_in": docs_in, "triples_out": n_triples}
        counters.update(_triple_counters(triples))

        def write_fn(tmp_dir, triples=triples):
            if sort_output:
                # deterministic file ordering (SURVEY §2.6: the only global
                # ordering the engine needs); partition outputs are small
                # post-dedup, so the sort is partition-local and cheap
                triples = triples.sort(["subj", "pred", "obj"])
            if subject_buckets:
                # co-locate triples of one subject for downstream graph
                # consumers (hash(subj) % B layout, SURVEY.md §7.2 item 7);
                # vectorized FNV — the same kernel the dedup salt uses
                import numpy as _np

                from ..kernels.minhash import _hash_shingles

                def add_bucket(batch: pa.Table) -> pa.Table:
                    h = _hash_shingles(batch.column("subj").to_pylist())
                    buckets = (h % _np.uint64(subject_buckets)).astype(_np.int32)
                    return batch.append_column(
                        "subj_bucket", pa.array(buckets, pa.int32())
                    )

                triples.map_batches(add_bucket, batch_format="pyarrow").write_parquet(
                    tmp_dir, partition_cols=["subj_bucket"]
                )
            else:
                triples.write_parquet(tmp_dir)
            if ntriples:
                # .nt shards commit atomically with the partition (inside
                # the tmp dir the manifest renames on completion)
                write_ntriples(triples, os.path.join(tmp_dir, "ntriples"))
            return {"rows": n_triples}

        mf.write_partition(
            out_dir,
            part,
            write_fn,
            input_fragments=group,
            counters=counters,
        )
        report["ran"] += 1
    report["counters"] = mf.aggregate_counters(out_dir)
    return report


class _NTriplesDatasink(rd.Datasink):
    """Datasink writing raw ``part-<task>-<hash>.nt`` text shards.

    A CSV sink would add a header row and re-quote lines containing ``"``
    — not valid N-Triples — so each write task renders and writes its
    blocks directly.  Shard names combine the Ray task index with a
    content hash and the file commits tmp-then-rename: a task RETRY
    reproduces the same (task_idx, content) name atomically, while two
    DISTINCT tasks that happen to render byte-identical bodies (possible
    with dedup disabled: duplicate triples tile into identical blocks)
    get distinct files instead of silently overwriting each other."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir

    def get_name(self) -> str:
        return "NTriples"

    def on_write_start(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)

    def write(self, blocks, ctx) -> int:
        import hashlib

        from ray.data.block import BlockAccessor

        from ..kernels.jsonld import render_ntriples

        written = 0
        for seq, block in enumerate(blocks):
            batch = BlockAccessor.for_block(block).to_arrow()
            if batch.num_rows == 0:
                # an empty block may carry no schema at all (no columns)
                continue
            lines = [
                render_ntriples(s, p, o, bool(t))
                for s, p, o, t in zip(
                    batch.column("subj").to_pylist(),
                    batch.column("pred").to_pylist(),
                    batch.column("obj").to_pylist(),
                    batch.column("obj_type").to_pylist(),
                )
            ]
            body = "\n".join(lines) + "\n"
            tag = hashlib.blake2b(body.encode("utf-8"), digest_size=10).hexdigest()
            path = os.path.join(
                self.out_dir, f"part-{ctx.task_idx:05d}-{seq:03d}-{tag}.nt"
            )
            tmp = path + f".tmp-{ctx.task_idx}"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(body)
            os.replace(tmp, path)
            written += len(lines)
        return written


def write_ntriples(triples: rd.Dataset, out_dir: str) -> None:
    """Render canonical triples as N-Triples text shards (see
    ``_NTriplesDatasink`` for the naming/idempotency contract)."""
    triples.write_datasink(_NTriplesDatasink(out_dir))


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
    deduped = dedup_triples(triples).materialize()
    rows_out = deduped.count()
    os.makedirs(final_dir, exist_ok=True)
    deduped.write_parquet(final_dir)
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
    bucket and opens ONLY that bucket's files across all pipeline
    partitions (1/B of the graph), then applies the exact subject
    filter.  Emits ``sublookup_files_total`` / ``sublookup_files_read``
    counters so the pruning is observable (the lakehouse
    ``point_lookup`` discipline: never a silent full scan).
    """
    import glob as _glob

    import numpy as _np

    import pyarrow.compute as _pc

    from ..kernels.minhash import _hash_shingles
    from ..state import counters as _counters

    b = int(_hash_shingles([subject])[0] % _np.uint64(subject_buckets))
    all_files = _glob.glob(
        os.path.join(out_dir, "**", "subj_bucket=*", "*.parquet"),
        recursive=True)
    want = f"subj_bucket={b}"
    hit_files = [f for f in all_files
                 if os.path.basename(os.path.dirname(f)) == want]
    _counters.incr({"sublookup_files_total": len(all_files),
                    "sublookup_files_read": len(hit_files)})
    if not hit_files:
        raise FileNotFoundError(
            f"subject_lookup: no subj_bucket={b} files under {out_dir} — "
            f"was the graph written with subject_buckets={subject_buckets}?")
    ds = rd.read_parquet(hit_files)
    return ds.map_batches(
        lambda t: t.filter(_pc.equal(t.column("subj"), subject)),
        batch_format="pyarrow")
