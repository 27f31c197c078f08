"""Ray Data stages of the KG-construction pipeline.

Stage functions are Arrow-in/Arrow-out ``map_batches`` bodies; the
task-mode linker builds its KB index once per worker process.  All stages are pure
w.r.t. row content (deterministic under task retry, SURVEY.md §4.2).

Pipeline shape (pipelines/kg.py):
  read_parquet(pages, columns pruned)
  -> strip_html (drops the wide ``html`` column immediately)
  -> filter_lang
  -> extract_triples (per-document kernel; doc = row, chunk loop inside)
  -> link (task mode: ``make_link_task``; join mode:
     ``link_entities_join``)
  -> canonicalize (stages/canonicalize.py, shuffles)
  -> validate
  -> global dedup (stages/canonicalize.py, shuffles)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..kernels.extractor import extract_document
from ..kernels.minhash import id63
from ..kernels.text import extract_text
from ..kernels.validation import DATE_PREDICATES
from ..state import counters
from .bsp import Blocks, block_values, exchange_blocks, map_blocks, materialized
from .exchange import (_hash_col, agg_blocks, dataset_api, join_blocks,
                       join_out_schema)

#: the relational row view custom ValidationRules are evaluated against in
#: ``validate_triples`` — a rule requiring any other property (e.g. a real
#: per-document entity property like 'birthDate') would silently fail
#: every matching triple, so the pipeline REJECTS such rules at build time
RELATIONAL_RULE_KEYS = frozenset({"@type", "name", "pred_key", "obj"})

TRIPLE_FIELDS = [
    ("url", pa.string()),
    ("subj", pa.string()),
    ("subj_slug", pa.string()),
    ("subj_lower", pa.string()),
    ("pred", pa.string()),
    ("pred_key", pa.string()),
    ("obj", pa.string()),
    ("subj_type", pa.string()),
    ("obj_type", pa.string()),
    ("nested_in", pa.string()),
    ("chunk_id", pa.int32()),
    ("span_start", pa.int64()),
    ("span_end", pa.int64()),
    ("confidence", pa.float64()),
    ("method", pa.string()),
]


def strip_html(batch: pa.Table) -> pa.Table:
    """html -> text; drops the wide binary column so downstream blocks are
    text-only (SURVEY.md §4.2 'very wide rows')."""
    html_col = batch.column("html")
    texts = [extract_text(h.as_py()) if h.is_valid else "" for h in html_col]
    batch = batch.drop_columns(["html"])
    if "text" in batch.column_names:
        batch = batch.drop_columns(["text"])
    return batch.append_column("text", pa.array(texts, pa.large_string()))


def make_lang_filter(lang: str = "en"):
    def filter_lang(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("lang"), lang))

    return filter_lang


def extract_triples(batch: pa.Table, extract_kwargs: dict | None = None) -> pa.Table:
    """Per-document extraction: one input page row -> N triple rows.

    The Python loop is over *documents* (each iteration runs the full
    chunk/coref/pattern kernel on one doc) — the vectorization unit is the
    document, mirroring the reference's doc-at-a-time semantics
    (/root/reference/src/extractor.rs:570-698) with provenance columns.
    ``extract_kwargs`` forwards runtime config (coref strategy, chunk
    sizing) to ``extract_document``."""
    import sys

    kw = extract_kwargs or {}
    urls = batch.column("url").to_pylist()
    texts = batch.column("text").to_pylist()
    cols: dict[str, list] = {name: [] for name, _ in TRIPLE_FIELDS}
    for url, text in zip(urls, texts):
        if not text:
            continue
        try:
            ex = extract_document(text, **kw)
        except Exception as exc:  # lossy fault-tolerance (extractor.rs:689-692):
            # a pathological document is logged and skipped, the batch
            # (and pipeline) continues — mirrors the reference's
            # chunk-failure behavior; Ray task retry would re-raise
            # deterministically, so skipping is the only useful policy
            print(f"extract_triples: skipping {url}: {exc!r}", file=sys.stderr)
            continue
        for t in ex.triples:
            cols["url"].append(url)
            cols["subj"].append(t.subj)
            cols["subj_slug"].append(t.subj_slug)
            cols["subj_lower"].append(t.subj_lower)
            cols["pred"].append(t.pred)
            cols["pred_key"].append(t.pred_key)
            cols["obj"].append(t.obj)
            cols["subj_type"].append(t.subj_type)
            cols["obj_type"].append(t.obj_type)
            cols["nested_in"].append(t.nested_in)
            cols["chunk_id"].append(t.chunk_id)
            cols["span_start"].append(t.span_start)
            cols["span_end"].append(t.span_end)
            cols["confidence"].append(t.confidence)
            cols["method"].append(t.method)
    return pa.table({name: pa.array(cols[name], typ) for name, typ in TRIPLE_FIELDS})


def _link_batch(index, cache, batch: pa.Table) -> pa.Table:
    """Shared per-batch linking body (used by actor and task modes).
    ``cache`` is a TTLCache (1h expiry + bounded size — the reference's
    Spotlight-lookup cache shape, PHASE3_COMPLETION_REPORT.md:223-229)."""

    def lookup(name: str):
        hit = cache.get(name)
        if hit is None:
            linked = index.link(name)
            hit = (linked.uri, linked.confidence) if linked else (None, 0.0)
            cache[name] = hit
        return hit

    subj_uri, subj_conf, obj_uri, obj_conf = [], [], [], []
    subjs = batch.column("subj").to_pylist()
    objs = batch.column("obj").to_pylist()
    obj_types = batch.column("obj_type").to_pylist()
    for s, o, ot in zip(subjs, objs, obj_types):
        uri, conf = lookup(s)
        subj_uri.append(uri)
        subj_conf.append(conf)
        if ot:  # entity object
            uri, conf = lookup(o)
            obj_uri.append(uri)
            obj_conf.append(conf)
        else:
            obj_uri.append(None)
            obj_conf.append(0.0)
    return (
        batch.append_column("subj_uri", pa.array(subj_uri, pa.string()))
        .append_column("subj_link_conf", pa.array(subj_conf, pa.float64()))
        .append_column("obj_uri", pa.array(obj_uri, pa.string()))
        .append_column("obj_link_conf", pa.array(obj_conf, pa.float64()))
    )


#: per-worker-process KB index for task-mode linking: at most one
#: ``key -> (KBIndex, TTLCache)`` entry, replaced when the key changes
#: (every ``build_triples`` call broadcasts its KB under a new ref)
_KB_INDEX_CACHE: dict[str, tuple] = {}


def make_link_task(kb_ref, fuzzy_threshold=0.8, confidence_threshold=0.5):
    """Task-mode linker: stateless map_batches function whose KB index is
    built lazily ONCE PER WORKER PROCESS (module-level cache keyed by the
    broadcast ref).  Keeps the map chain fully task-parallel — no actor
    pool to cap fused-stage parallelism — at the cost of one index replica
    per worker; right when the KB is small relative to worker heap."""
    base = kb_ref.hex() if hasattr(kb_ref, "hex") else str(kb_ref)
    key = f"{base}:{fuzzy_threshold}:{confidence_threshold}"

    def link_batch(batch: pa.Table) -> pa.Table:
        import ray

        from ..kernels.linker import KBIndex
        # through the worker's imported module: a global named here
        # directly would be pickled with this closure, one copy per task
        from . import kg_stages

        entry = kg_stages._KB_INDEX_CACHE.get(key)
        if entry is None:
            from ..functions.ttl_cache import TTLCache

            index = KBIndex(ray.get(kb_ref), fuzzy_threshold=fuzzy_threshold,
                            confidence_threshold=confidence_threshold)
            entry = (index, TTLCache())
            kg_stages._KB_INDEX_CACHE.clear()
            kg_stages._KB_INDEX_CACHE[key] = entry
        index, cache = entry
        return _link_batch(index, cache, batch)

    return link_batch


#: the join-mode KB label table: one row per KB label and alias
_S_LABELS = pa.schema([("kb_uri", pa.string()), ("kb_label", pa.string()),
                       ("kb_low", pa.string()), ("lid", pa.int64())])

#: rows per block of a list KB's label table: the label MinHash (one task
#: per block, :meth:`KBLabelTable.bands`) spreads over tasks
KB_LABEL_BLOCK_ROWS = 2048


def _label_rows(records) -> pa.Table:
    """The label table rows of KB ``records`` (dicts with ``uri``,
    ``label`` and optional ``aliases``), in record order, each label
    before its aliases.  ``lid`` hashes ``low + "\\x00" + uri``."""
    uris, labels, lows, lids = [], [], [], []
    for row in records:
        for lab in [row["label"], *(row.get("aliases") or ())]:
            low = lab.lower()
            uris.append(row["uri"])
            labels.append(lab)
            lows.append(low)
            lids.append(id63(f"{low}\x00{row['uri']}"))
    return pa.table([pa.array(uris, pa.string()), pa.array(labels, pa.string()),
                     pa.array(lows, pa.string()), pa.array(lids, pa.int64())],
                    schema=_S_LABELS)


def _band_rows(text_col: str, id_col: str):
    """The block function exploding lowercased strings to (band_id,
    band_hash, id) rows — the ONLY columns the fuzzy blocking exchange
    moves (payload-free, the dedup.py band-exchange pattern).  ``id`` is
    the block's ``id_col``."""

    def explode(batch: pa.Table) -> pa.Table:
        from ..kernels.minhash import (band_keys_batch, char_shingles,
                                       minhash_signatures)

        lows = batch.column(text_col).to_pylist()
        # 21 bands x 3 rows: >=99.8% band recall at shingle-Jaccard
        # 0.64 (a one-char edit on a short name) while filtering
        # syllable-sharing non-matches ~4x harder than 2-row bands
        sigs = minhash_signatures([char_shingles(low) for low in lows],
                                  num_perm=63)
        keys = band_keys_batch(sigs, 21)  # (n, 21) int64, one numpy pass
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        n, nb = keys.shape
        return pa.table({
            "band_id": pa.array(np.tile(np.arange(nb, dtype=np.int32), n),
                                pa.int32()),
            "band_hash": pa.array(keys.ravel(), pa.int64()),
            id_col: pa.array(np.repeat(ids.astype(np.int64), nb), pa.int64()),
        })

    return explode


class KBLabelTable:
    """The join-mode linker's KB label table ``(kb_uri, kb_label, kb_low,
    lid)`` and its band rows, each built on first use and kept, so one
    table serves every :func:`link_entities_join` call it is passed to
    (``run_partitioned`` builds it once for all its partitions).

    A list KB is already in driver memory: it is labelled on the driver
    and put in the object store as :class:`~.bsp.Blocks` of
    ``KB_LABEL_BLOCK_ROWS`` rows (one block per 2,048 label rows, at
    least one), with no task and no Dataset.  A Dataset KB is labelled
    by one ``map_batches`` over it, materialized."""

    def __init__(self, kb_records) -> None:
        self.kb_records = kb_records
        self._labels = None
        self._bands = None

    @classmethod
    def of_blocks(cls, labels, bands) -> "KBLabelTable":
        """A table whose label and band rows are built already: the
        :class:`~.bsp.Blocks` ``labels`` and ``bands`` (a tail task's
        inputs)."""
        kb = cls(None)
        kb._labels, kb._bands = labels, bands
        return kb

    def labels(self):
        if self._labels is None:
            import ray.data as rd

            kb = self.kb_records
            if isinstance(kb, rd.Dataset):
                self._labels = kb.map_batches(
                    lambda t: _label_rows(t.to_pylist()),
                    batch_format="pyarrow", batch_size=2048).materialize()
            else:
                t = _label_rows(kb)
                n = KB_LABEL_BLOCK_ROWS
                self._labels = Blocks.put(
                    [t.slice(i, n) for i in range(0, len(t), n)] or [t])
        return self._labels

    def bands(self):
        """The ``(band_id, band_hash, lid)`` rows of every label, one raw
        task per label block (``bsp.Blocks``)."""
        if self._bands is None:
            self._bands = map_blocks(self.labels(), _band_rows("kb_low", "lid"))
        return self._bands


@dataset_api
def link_entities_join(
    triples,
    kb_records,
    *,
    fuzzy_threshold: float = 0.8,
    confidence_threshold: float = 0.5,
    num_partitions: int = 16,
):
    """Shuffle-join linking — the at-scale form of J1/J2 for KBs too large
    to broadcast (``make_link_task`` replicates the index per
    worker; this path replicates NOTHING):

      distinct surfaces (hash exchange — small vs triples)
        exact:  hash join on lowercased label              [conf 0.95]
        fuzzy:  surfaces without an exact hit, candidates generated by
                MinHash band blocking (SURVEY.md J2): surfaces and KB
                labels explode to payload-free (band_id, band_hash, id64)
                rows; a hash join on the band key yields candidate
                (surface, label) pairs — sub-linear in |KB| per surface,
                unlike first-character blocks (~30 buckets, each ~|KB|/30).
                Candidates are then filtered by the in-memory index's
                EXACT blocking predicate (same first char + length window)
                and Jaro-Winkler scored, kept >= fuzzy_threshold.
        top-1 per surface by (conf desc, uri asc)          [KBIndex.link]
      surface->uri map hash-joined back onto subj and entity-obj columns.

    ``kb_records`` is a list of KB records, a Dataset of them, or a
    :class:`KBLabelTable` built from either (its label table and label
    band rows are then built once for every call it is passed to).

    Every exchange step (the distinct, the joins, the candidate-pair
    dedup and the top-1) is a raw-task hash exchange sized to its
    input, with ``num_partitions`` as the cap.  The work between them
    (surface rows, filters, band explode, Jaro-Winkler scoring, the
    top-1 combiner, renames) runs as block functions in the split tasks
    of the exchange it feeds, and each exchange hands its block refs to
    the next (``bsp.Blocks``): no Dataset is built between them.  Over
    materialized triples and a list KB the link starts no Ray Data
    execution (a Dataset KB costs one, its label table; lazy triples
    one, their materialization).  The output is the last join's blocks
    with the link columns finalized, one raw task per block.

    Output columns and values equal the broadcast paths exactly on every
    pair the band blocking surfaces (parity-tested).  Recall note: a
    JW-similar pair whose character-shingle Jaccard is very low can be
    missed by the bands (21 bands x 3 rows: >=99.8% at Jaccard 0.64, the
    one-char-edit regime; real surface variants share most shingles);
    the broadcast modes remain the exhaustive-within-block reference.
    """
    from ..kernels.linker import EXACT_CONFIDENCE, jaro_winkler_batch

    kb = (kb_records if isinstance(kb_records, KBLabelTable)
          else KBLabelTable(kb_records))
    labels = kb.labels()

    # static schemas for every exchange below: a join side that is a
    # lazy map would otherwise cost a schema-probe execution
    _S_SURF = pa.schema([("surface", pa.string()), ("low", pa.string()),
                         ("sid", pa.int64())])
    _S_EXACT_PROJ = pa.schema([("low", pa.string()), ("kb_uri", pa.string())])
    _S_BAND_S = pa.schema([("band_id", pa.int32()), ("band_hash", pa.int64()),
                           ("sid", pa.int64())])
    _S_BAND_L = pa.schema([("band_id", pa.int32()), ("band_hash", pa.int64()),
                           ("lid", pa.int64())])
    _S_CAND = pa.schema([("sid", pa.int64()), ("lid", pa.int64())])
    _LINK_SCHEMA = pa.schema([("surface", pa.string()), ("uri", pa.string()),
                              ("conf", pa.float64())])
    _S_TOP1 = _LINK_SCHEMA.append(pa.field("_part", pa.int64()))

    def surface_rows(batch: pa.Table) -> pa.Table:
        subs = batch.column("subj").to_pylist()
        objs = batch.column("obj").to_pylist()
        ots = batch.column("obj_type").to_pylist()
        names = {s for s in subs if s}
        names |= {o for o, ot in zip(objs, ots) if ot and o}
        names = sorted(names)
        lows = [n.lower() for n in names]
        sids = [id63(low) for low in lows]
        return pa.table(
            {
                "surface": pa.array(names, pa.string()),
                "low": pa.array(lows, pa.string()),
                # sid keys the LOWERCASED form (same as the band row key):
                # case-variant surfaces share a sid and re-attach together;
                # equal surfaces share a sid, so it is also the partition
                # key of the distinct exchange below
                "sid": pa.array(sids, pa.int64()),
            }
        )

    def distinct_surfaces(t: pa.Table) -> pa.Table:
        g = t.group_by(["surface", "low", "sid"]).aggregate([])
        return g.select(_S_SURF.names)

    # distinct surfaces via hash exchange on sid + a per-PARTITION
    # vectorized group_by — NOT a per-surface Ray groupby (one Python
    # call per distinct surface: the measured Ray-2.49 per-key pathology,
    # 153s vs <2s at 48k keys — NOTES_r3.md)
    triples_mat = materialized(triples)
    surfaces = exchange_blocks([(triples_mat, surface_rows)], "sid",
                               distinct_surfaces, _S_SURF,
                               max_parts=num_partitions)

    # ONE left_outer exchange splits the surfaces: matched rows ARE the
    # exact links (one per matching label), unmatched rows ARE the fuzzy
    # side.  The projections, filters and combiners from here on are
    # block functions of the exchange each one feeds (its split tasks)
    matched = join_blocks(
        surfaces,
        (labels, lambda t: pa.table({"low": t.column("kb_low"),
                                     "kb_uri": t.column("kb_uri")})),
        on="low", how="left_outer", num_partitions=num_partitions,
        left_schema=_S_SURF, right_schema=_S_EXACT_PROJ,
    )

    def exact(t: pa.Table) -> pa.Table:
        f = t.filter(pc.is_valid(t.column("kb_uri")))
        return pa.table({
            "surface": f.column("surface"), "uri": f.column("kb_uri"),
            "conf": pa.array([EXACT_CONFIDENCE] * len(f), pa.float64())})

    # a surface with ANY match contributes no unmatched row, so the null
    # filter is exactly the anti-join (one row per unmatched surface —
    # surfaces are distinct)
    def no_exact(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_null(t.column("kb_uri"))).select(_S_SURF.names)

    def fuzzy_score(batch: pa.Table) -> pa.Table:
        surfs = batch.column("surface").to_pylist()
        lows = batch.column("low").to_pylist()
        labs = batch.column("kb_label").to_pylist()
        uris = batch.column("kb_uri").to_pylist()
        lab_lows = [lab.lower() for lab in labs]
        # KBIndex.candidates blocking parity (linker.py), vectorized:
        # same first char (by_first bucket membership) + length window;
        # the substring escape hatch is interpreted ONLY on the (rare)
        # pairs that fail the window — not per candidate
        n = len(lows)
        l_low = np.fromiter((len(x) for x in lows), np.int64, n)
        l_lab = np.fromiter((len(x) for x in lab_lows), np.int64, n)
        first_ok = np.fromiter(
            (a[:1] == b[:1] for a, b in zip(lab_lows, lows)), bool, n)
        win_bad = np.abs(l_lab - l_low) > np.maximum(
            3, (0.6 * l_low).astype(np.int64))
        keep = first_ok.copy()
        for i in np.flatnonzero(first_ok & win_bad):
            if lows[i] not in lab_lows[i]:
                keep[i] = False
        idx = np.flatnonzero(keep)
        sims = jaro_winkler_batch([lab_lows[i] for i in idx],
                                  [lows[i] for i in idx])
        good = idx[sims >= fuzzy_threshold]
        good_sims = sims[sims >= fuzzy_threshold]
        return pa.table(
            {"surface": pa.array([surfs[i] for i in good], pa.string()),
             "uri": pa.array([uris[i] for i in good], pa.string()),
             "conf": pa.array(good_sims, pa.float64())}
        )

    def top1_vec(g: pd.DataFrame) -> pd.DataFrame:
        # deterministic top-1 per surface (conf desc, uri asc), vectorized
        # across ALL surfaces in the frame: after the sort the first row of
        # each surface IS its max-conf / smallest-uri candidate (alias
        # duplicates of one uri can never occupy the first slot ahead of
        # it) — KBIndex.link parity without one Python call per surface
        g = g[g["conf"] >= confidence_threshold]
        if not len(g):
            return g[["surface", "uri", "conf"]]
        g = g.sort_values(["surface", "conf", "uri"],
                          ascending=[True, False, True])
        return g.drop_duplicates("surface", keep="first")[
            ["surface", "uri", "conf"]]

    def top1_combine(t: pa.Table) -> pa.Table:
        # block-local top-1 is a safe combiner: the global top-1 under the
        # (conf desc, uri asc) total order is the max of block maxima
        b = pa.Table.from_pandas(top1_vec(t.to_pandas()),
                                 schema=_LINK_SCHEMA, preserve_index=False)
        return b.append_column("_part", _hash_col(b, ["surface"]))

    top1_sources = [(matched, lambda t: top1_combine(exact(t)))]
    # any surface without an exact match: one null-count task per block
    if any(block_values(matched, lambda t: t.column("kb_uri").null_count)):
        # sid rides on the surface rows and lid on the label table, so
        # the band join moves only ids; strings re-attach via exchange
        # joins on the tiny candidate set.  The label band rows are the
        # table's own (built once per table)
        surf_bands = _band_rows("low", "sid")

        # global (sid, lid) pair dedup: a combiner-backed distinct
        # exchange — NEVER a per-pair map_groups (hundreds of thousands
        # of one-row python groups)
        cand_ids = agg_blocks(
            join_blocks(
                (matched, lambda t: surf_bands(no_exact(t))),
                kb.bands(), on=("band_id", "band_hash"),
                num_partitions=num_partitions,
                left_schema=_S_BAND_S, right_schema=_S_BAND_L,
            ),
            ["sid", "lid"], num_partitions=num_partitions,
        )
        with_surface = join_blocks(
            cand_ids, (matched, no_exact), on="sid",
            num_partitions=num_partitions,
            left_schema=_S_CAND, right_schema=_S_SURF,
        )
        fuzzy = join_blocks(
            with_surface, labels, on="lid",
            num_partitions=num_partitions,
            left_schema=join_out_schema(_S_CAND, _S_SURF, "sid"),
            right_schema=_S_LABELS,
        )
        # observable blocking volume: JW runs on exactly this many
        # band-blocked candidates (vs |no_exact| x |KB|/~30 under
        # first-char blocking), counted on the driver
        counters.incr({"linkjoin_fuzzy_candidates": fuzzy.num_rows()})
        top1_sources.append((fuzzy, lambda t: top1_combine(fuzzy_score(t))))

    def top1_part(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(
            top1_vec(t.drop_columns(["_part"]).to_pandas()),
            schema=_LINK_SCHEMA, preserve_index=False)

    links = exchange_blocks(top1_sources, "_part", top1_part, _S_TOP1,
                            max_parts=num_partitions)

    def rename_links(key: str, ucol: str, ccol: str):
        # the links as one link-attach join's right side
        return (links, lambda t: pa.table(
            {key: t.column("surface"), ucol: t.column("uri"),
             ccol: t.column("conf")}))

    # static schemas for both link-attach joins: no probe executions
    ts = triples_mat.schema()
    _S_TRIPLES = pa.schema(list(zip(ts.names, ts.types)))
    _S_LINK_SUBJ = pa.schema([("subj", pa.string()),
                              ("subj_uri", pa.string()),
                              ("subj_link_conf", pa.float64())])
    _S_LINK_OBJ = pa.schema([("obj", pa.string()),
                             ("obj_uri_j", pa.string()),
                             ("obj_link_conf_j", pa.float64())])
    out = join_blocks(
        join_blocks(
            triples_mat,
            rename_links("subj", "subj_uri", "subj_link_conf"),
            on="subj", how="left_outer", num_partitions=num_partitions,
            left_schema=_S_TRIPLES, right_schema=_S_LINK_SUBJ,
        ),
        rename_links("obj", "obj_uri_j", "obj_link_conf_j"),
        on="obj", how="left_outer", num_partitions=num_partitions,
        left_schema=join_out_schema(_S_TRIPLES, _S_LINK_SUBJ, "subj"),
        right_schema=_S_LINK_OBJ,
    )

    def finalize(batch: pa.Table) -> pa.Table:
        n = len(batch)
        is_ent = pc.invert(pc.equal(batch.column("obj_type"), ""))
        obj_uri = pc.if_else(is_ent, batch.column("obj_uri_j"),
                             pa.array([None] * n, pa.string()))
        obj_conf = pc.if_else(
            pc.and_(is_ent, pc.is_valid(batch.column("obj_link_conf_j"))),
            batch.column("obj_link_conf_j"), pa.scalar(0.0),
        )
        subj_conf = pc.fill_null(batch.column("subj_link_conf"), 0.0)
        cols = {
            name: batch.column(name)
            for name in batch.column_names
            if name not in ("obj_uri_j", "obj_link_conf_j", "subj_link_conf")
        }
        cols["subj_link_conf"] = subj_conf
        cols["obj_uri"] = obj_uri
        cols["obj_link_conf"] = obj_conf
        order = [f[0] for f in TRIPLE_FIELDS] + [
            "subj_uri", "subj_link_conf", "obj_uri", "obj_link_conf"
        ]
        return pa.table({name: cols[name] for name in order})

    return map_blocks(out, finalize)


def validate_triples(batch: pa.Table, rules=()) -> pa.Table:
    """Vectorized relational validation (validation.rs:120-160 + 183-298):

    - Person/Organization/Place/Event require ``name``: in the relational
      model the subject surface IS the node's name, so an empty subj (or an
      empty entity-typed obj) of a name-required type is an Error, -0.2;
    - -0.05 malformed date literal on date predicates (Warning);
    - -0.1 malformed URI-shaped literal object (Warning);
    - confidence clamped to [0,1];
    - valid = NO Error-severity violation AND confidence >= 0.7
      (validation.rs:296-298 semantics — an Error invalidates regardless
      of the clamped score).

    ``rules``: registered ``functions.registry.ValidationRule`` objects
    (add_rule), captured at pipeline build time and shipped to workers;
    each is evaluated per matching row on the relational row view
    ``{"@type": subj_type, "name": subj, "pred_key": ..., "obj": ...}``.
    """
    from ..kernels.validation import _NAME_REQUIRED_TYPES

    n = len(batch)
    conf = np.ones(n)
    subj = batch.column("subj")
    subj_type = batch.column("subj_type")
    obj = batch.column("obj")
    obj_type = batch.column("obj_type")
    pred_key = batch.column("pred_key")

    req = pa.array(sorted(_NAME_REQUIRED_TYPES), pa.string())

    def b(arr) -> np.ndarray:
        return arr.to_numpy(zero_copy_only=False).astype(bool)

    subj_missing = b(pc.and_(pc.equal(subj, ""), pc.is_in(subj_type, value_set=req)))
    obj_missing = b(
        pc.and_(pc.is_in(obj_type, value_set=req), pc.equal(obj, ""))
    )
    conf -= 0.2 * subj_missing
    conf -= 0.2 * obj_missing
    error_hit = subj_missing | obj_missing

    is_literal = b(pc.equal(obj_type, ""))
    date_pred = b(pc.is_in(pred_key, value_set=pa.array(sorted(DATE_PREDICATES))))
    ln = pc.utf8_length(obj).to_numpy(zero_copy_only=False)
    c4 = pc.utf8_slice_codeunits(obj, 4, 5).to_numpy(zero_copy_only=False)
    c7 = pc.utf8_slice_codeunits(obj, 7, 8).to_numpy(zero_copy_only=False)
    date_ok = (ln == 10) & (c4 == "-") & (c7 == "-")
    bad_date = is_literal & date_pred & ~date_ok
    conf -= 0.05 * bad_date

    starts_http = b(pc.starts_with(obj, "http"))
    has_scheme = b(pc.match_substring(obj, "://"))
    bad_uri = is_literal & starts_http & ~has_scheme & ~bad_date
    conf -= 0.1 * bad_uri

    if rules:
        subj_l = subj.to_pylist()
        st_l = subj_type.to_pylist()
        pk_l = pred_key.to_pylist()
        obj_l = obj.to_pylist()
        for i in range(n):
            row = {"@type": st_l[i], "name": subj_l[i], "pred_key": pk_l[i],
                   "obj": obj_l[i]}
            for rule in rules:
                if rule.entity_type is not None and rule.entity_type != st_l[i]:
                    continue
                failed = any(not row.get(p) for p in rule.required_properties)
                if rule.check_fn is not None and not rule.check_fn(row):
                    failed = True
                if failed:
                    conf[i] += rule.confidence_impact
                    if rule.severity == "Error":
                        error_hit[i] = True

    conf = np.clip(conf, 0.0, 1.0)
    batch = batch.drop_columns(["confidence"])
    batch = batch.append_column("confidence", pa.array(conf, pa.float64()))
    return batch.append_column(
        "valid", pa.array((conf >= 0.7) & ~error_hit, pa.bool_())
    )
