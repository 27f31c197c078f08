"""The pipeline run stage by stage for the traced run.

``traced_build`` executes the stage sequence ``pipelines.kg.build_triples``
assembles (task-mode or shuffle-join linking, local or distributed
canonicalization), materializing after each stage so that every stage gets
its own span; ``traced_partitioned`` does the same per partition group of
``run_partitioned`` and adds its write stage.  The output must hash equal to
the untraced run's: a divergence from ``build_triples`` shows as a failed
check.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from text_to_rdf_ray.functions.registry import get_rules
from text_to_rdf_ray.pipelines import kg
from text_to_rdf_ray.stages.analytics import distinct_rows
from text_to_rdf_ray.stages.canonicalize import (
    DEFAULT_TAU,
    _solid,
    apply_canonical_join,
    apply_canonical_map,
    canonicalize_local,
    canonicalize_surfaces,
    dedup_triples,
)
from text_to_rdf_ray.stages.kg_stages import (
    extract_triples,
    link_entities_join,
    make_lang_filter,
    make_link_task,
    strip_html,
    validate_triples,
)
from text_to_rdf_ray.state import manifest as mf

from .tracing import Tracer

#: build_triples' defaults for the settings the workloads vary
LOCAL_CANON_THRESHOLD = 100_000
CANONICAL_MAP_JOIN_THRESHOLD = 1_000_000


def fetch(ds: rd.Dataset) -> pa.Table:
    """All rows of a materialized Dataset as one Arrow table."""
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables) if tables else pa.table({})


def _canonicalize(ds: rd.Dataset, threshold: int) -> tuple[rd.Dataset, int, int]:
    """build_triples' canonicalize step; returns the rewritten triples, the
    distinct surfaces and the surfaces merged into another."""
    comb = ds.map_batches(kg._surface_rows, batch_format="pyarrow").materialize()
    if comb.count() <= threshold:
        surfaces = sorted({r["surface"] for r in comb.take_all()})
        mapping = canonicalize_local(surfaces, tau=DEFAULT_TAU)
        if mapping:
            ds = apply_canonical_map(ds, mapping)
        return ds.materialize(), len(surfaces), len(mapping)
    surfaces_ds = distinct_rows(comb, cols=["surface"]).materialize()
    cmap = canonicalize_surfaces(surfaces_ds, tau=DEFAULT_TAU)
    changed = _solid(cmap.map_batches(
        lambda t: t.filter(pc.invert(pc.equal(t.column("surface"), t.column("canonical")))),
        batch_format="pyarrow"))
    n_changed = changed.count()
    if n_changed > CANONICAL_MAP_JOIN_THRESHOLD:
        ds = apply_canonical_join(ds, changed)
    elif n_changed:
        ds = apply_canonical_map(ds, {r["surface"]: r["canonical"] for r in changed.take_all()})
    return ds.materialize(), surfaces_ds.count(), n_changed


def traced_build(tracer: Tracer, make_pages, kb_records, *, link_mode: str = "task",
                 canonicalize_local_threshold: int = LOCAL_CANON_THRESHOLD
                 ) -> tuple[rd.Dataset, dict]:
    """build_triples(make_pages(), kb_records=kb_records, link_mode=...,
    canonicalize_local_threshold=...) one stage at a time; returns the
    output and the per-stage counts."""
    if get_rules():
        raise RuntimeError("custom validation rules are registered; the traced "
                           "sequence replicates the rule-free pipeline only")
    counts: dict = {}
    with tracer.span("read") as a:
        ds = make_pages().materialize()
        a["rows"] = counts["read.rows"] = ds.count()
    with tracer.span("stage.lang_strip") as a:
        ds = (ds.map_batches(make_lang_filter("en"), batch_format="pyarrow")
              .map_batches(strip_html, batch_format="pyarrow", batch_size=512)
              .materialize())
        a["rows_out"] = counts["stage.lang_strip.rows_out"] = ds.count()
    with tracer.span("stage.extract") as a:
        ds = ds.map_batches(extract_triples, batch_format="pyarrow",
                            batch_size=256).materialize()
        a["triples_out"] = counts["stage.extract.triples_out"] = ds.count()
    with tracer.span("stage.link"):
        if link_mode == "join":
            ds = link_entities_join(ds, kb_records).materialize()
        elif link_mode == "task":
            ds = ds.map_batches(make_link_task(ray.put(kb_records)), batch_format="pyarrow",
                                batch_size=2048).materialize()
        else:
            raise ValueError(f"link_mode {link_mode!r} is not replicated")
    with tracer.span("stage.canon") as a:
        ds, a["surfaces"], a["merged"] = _canonicalize(ds, canonicalize_local_threshold)
        counts["stage.canon.surfaces"], counts["stage.canon.merged"] = a["surfaces"], a["merged"]
    with tracer.span("stage.validate"):
        ds = ds.map_batches(validate_triples, batch_format="pyarrow").materialize()
    with tracer.span("stage.dedup") as a:
        a["rows_in"] = counts["stage.dedup.rows_in"] = ds.count()
        ds = dedup_triples(ds).materialize()
        a["rows_out"] = counts["stage.dedup.rows_out"] = ds.count()
    return ds, counts


def traced_partitioned(tracer: Tracer, files: list[str], out_dir: str, kb_records, *,
                       partitions: int, subject_buckets: int, **build_kw) -> dict:
    """run_partitioned(files' dir, out_dir, partitions=..., ntriples=True,
    subject_buckets=..., resume=False, **build_kw) one stage at a time;
    returns the per-stage counts summed over the partitions."""
    from text_to_rdf_ray.kernels.minhash import _hash_shingles

    import numpy as np

    groups = [files[g::partitions] for g in range(partitions)]
    counts: dict = {}
    for part, group in enumerate(groups):
        with tracer.span("partition", part=part):
            triples, c = traced_build(
                tracer, lambda group=group: rd.read_parquet(group, columns=kg.PAGE_COLUMNS),
                kb_records, **build_kw)
            for k, v in c.items():
                counts[k] = counts.get(k, 0) + v
            with tracer.span("stage.write"):
                n_triples = triples.count()
                counters = {"docs_in": c["read.rows"], "triples_out": n_triples}
                counters.update(kg._triple_counters(triples))

                def add_bucket(batch: pa.Table) -> pa.Table:
                    h = _hash_shingles(batch.column("subj").to_pylist())
                    buckets = (h % np.uint64(subject_buckets)).astype(np.int32)
                    return batch.append_column("subj_bucket", pa.array(buckets, pa.int32()))

                def write_fn(tmp_dir: str) -> dict:
                    triples.map_batches(add_bucket, batch_format="pyarrow").write_parquet(
                        tmp_dir, partition_cols=["subj_bucket"])
                    kg.write_ntriples(triples, os.path.join(tmp_dir, "ntriples"))
                    return {"rows": n_triples}

                mf.write_partition(out_dir, part, write_fn, input_fragments=group,
                                   counters=counters)
    return counts
