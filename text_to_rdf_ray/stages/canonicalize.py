"""Entity canonicalization: MinHash-LSH blocking + union-find as shuffles.

North-star core (BASELINE.json): cross-document surface-form
canonicalization at 10^12-doc scale —

  distinct surfaces
  -> char-shingle MinHash signatures, exploded to (shard, band_id,
     band_hash, name_id, sketch) rows in the tasks that split the
     surface blocks — no surface strings enter the exchange
  -> exchange on shard: per-bucket candidate pairs        [shuffle 1]
  -> distinct over the pairs (one pair, several bands)    [shuffle 2]
     surfaces for the (tiny) candidate set are re-read in a verify
     stage and checked by exact shingle Jaccard >= tau
     (buckets larger than ``max_bucket`` are skipped — the skew guard for
      head surface forms; exact duplicates inside a skipped bucket are
      still unified because identical norms share ALL bands and one
      unskewed band key, and identical strings canonicalize identically)
  -> iterative min-label propagation over the edge set     [shuffles 3..k]
     (connected components as BSP rounds over edges pinned once in
      stationary partitions, with early convergence detection; only
      nodes that appear in edges join the iteration — singletons
      shortcut to themselves)
  -> canonical name per component = lexicographically smallest surface
  -> surface -> canonical map joined back onto the triples.

Label propagation runs on the stationary-partition BSP engine
(stages/bsp.py), or as an in-process union-find for small edge sets; every
other shuffle is a raw-task hash exchange (``exchange_join`` /
``exchange_agg``, the candidate pairs' ``exchange_blocks`` and
``agg_blocks``, and ``dedup_triples``' one ``exchange_blocks``).
Candidate-pair generation shuffles only (shard, band, hash, name_id,
sketch) rows — never surfaces, never documents.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..kernels.minhash import (band_keys_batch, char_shingles, id63, jaccard,
                               minhash_signatures)
from ..state import counters
from .bsp import (Blocks, _as_table, _source_blocks, exchange_blocks, map_blocks,
                  materialized)
from .exchange import (_hash_col, _sources, _then, agg_blocks, dataset_api, join_blocks,
                       join_out_schema)

DEFAULT_NUM_PERM = 64
DEFAULT_BANDS = 16
DEFAULT_TAU = 0.72
DEFAULT_MAX_BUCKET = 64


def _norm(surface: str) -> str:
    return " ".join(surface.lower().replace(".", "").split())


def _surface_prepare(surface: str):
    norm = _norm(surface)
    return norm, char_shingles(norm)


def _surface_verify_fn(tau: float):
    def verify(f1, f2):
        n1, s1 = f1
        n2, s2 = f2
        return 1.0 if (n1 == n2 or jaccard(s1, s2) >= tau) else None

    return verify


def _solid(ds: rd.Dataset, n: int = 8) -> rd.Dataset:
    """``ds.materialize()`` (``n`` is ignored).  The package no longer
    calls it: an exchange drops zero-row blocks itself.  It stays only
    because ``perfbench/stages.py`` imports it, and goes with the next
    benchmark change (as ``analytics.distinct_rows`` does)."""
    return ds.materialize()


DRIVER_UNION_FIND_THRESHOLD = 200_000


def _local_union_find(edges) -> pa.Table:
    """Driver-side path-compressed union-find over ``(src, dst)`` pairs:
    ``(name_id, component)`` of every node by id; deterministic (min root)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    nodes = set()
    for src, dst in edges:
        a, b = find(src), find(dst)
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            parent[hi] = lo
        nodes.update((src, dst))
    nodes = sorted(nodes)
    return pa.table({"name_id": pa.array(nodes, pa.int64()),
                     "component": pa.array([find(n) for n in nodes],
                                           pa.int64())})


@dataset_api
def connected_components(
    edges: rd.Dataset,
    max_rounds: int = 64,
    driver_threshold: int = DRIVER_UNION_FIND_THRESHOLD,
) -> rd.Dataset:
    """Min-label propagation + pointer jumping over undirected edges ->
    (name_id, component).

    The symmetric edge set is pinned ONCE as stationary hash partitions
    (stages/bsp.py::connected_components_bsp); each round moves only
    the O(nodes) label table and combines TWO shrink moves before one
    per-partition min:

    - neighbor propagation: component(x) <= min over neighbors'
      components (edges joined with the co-partitioned labels) — the
      classic min-label step, O(diameter) rounds alone;
    - pointer jump: component(x) <= component(component(x)) (a
      request/serve exchange keyed on the label value) — the path-
      halving move of pointer-doubling / Hash-to-Min (Rastogi et al.
      2013), which cuts the round count to O(log diameter): a
      10^9-edge graph with a 1000-hop chain converges in ~10 rounds
      instead of ~1000.

    Labels only decrease, so a stable global label sum IS convergence
    (the stop test).  The observed round count is exported via the
    ``cc_rounds`` operator counter.  If ``max_rounds`` is hit while
    labels are still changing the function RAISES rather than silently
    returning split clusters.

    Candidate-pair sets from LSH blocking are a vanishing fraction of the
    corpus, so when the edge set is provably small (< driver_threshold,
    checked by count) a driver-side path-compressed union-find replaces the
    iterative shuffles — identical output, none of the per-round barrier
    cost.  The distributed path remains for larger graphs (and is what the
    skew/scale design assumes).  In a tail task (``bsp.in_task``) the
    union-find runs in the task at every size: the BSP rounds would
    submit tasks from it (``cc_rounds`` is then not counted).
    """
    from . import bsp

    # one materialization: counted, then read by both orientations
    edges = materialized(edges)
    blocks, _ = _source_blocks(edges)
    n_edges = sum(rows for _, rows, _ in blocks)
    if not n_edges or n_edges < driver_threshold or bsp._in_task:
        tbls = [_as_table(t, None) for t in bsp.fetch([b[0] for b in blocks])]
        return Blocks.put([_local_union_find(
            (s, d) for t in tbls for s, d in zip(t.column("src").to_pylist(),
                                                 t.column("dst").to_pylist()))])

    from .bsp import connected_components_bsp

    # both orientations as two sources of the BSP edge exchange (swap via
    # explicit arrow rebuild: a rename_columns swap-dict collides)
    labels, rounds = connected_components_bsp(
        [(edges, lambda t: t.select(["src", "dst"])),
         (edges, lambda t: pa.table({"src": t.column("dst"),
                                     "dst": t.column("src")}))],
        num_parts=16, max_rounds=max_rounds)
    counters.incr({"cc_rounds": rounds})
    return labels


def canonicalize_local(surface_list: list[str], *, num_perm: int = DEFAULT_NUM_PERM,
                       bands: int = DEFAULT_BANDS, tau: float = DEFAULT_TAU,
                       max_bucket: int = DEFAULT_MAX_BUCKET) -> dict[str, str]:
    """Driver-local canonicalization of a SMALL distinct-surface list.

    Same LSH blocking + union-find semantics as ``canonicalize_surfaces``
    (identical bands/thresholds; the distributed path ADDITIONALLY
    prunes candidates whose b-bit sketch agreement falls below tau-0.2
    — a wide-margin estimate whose false-prune rate is vanishingly
    small but not zero, so pairs within one ulp of the threshold are
    not bit-contracted to agree across the paths; same-norm pairs are
    exact on BOTH paths via the dedicated pass); used by the pipeline
    when the distinct-surface set fits comfortably on the driver — the
    broadcast-small-side analogue of the distributed path.  Returns only
    the surfaces whose canonical differs.  The components are
    :func:`_local_union_find`'s over surface indices in sorted order: a
    component's root, its minimum index, is its minimum surface.
    """
    from collections import defaultdict

    norms = {sfc: _norm(sfc) for sfc in surface_list}
    buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
    ordered = sorted(surface_list)
    shingles = [char_shingles(norms[sfc]) for sfc in ordered]
    keys = band_keys_batch(minhash_signatures(shingles, num_perm=num_perm),
                           bands)
    for idx, row in enumerate(keys.tolist()):
        for bi, bh in enumerate(row):
            buckets[(bi, bh)].append(idx)

    def edges():
        # EXACT same-norm unification first, independent of bucket caps:
        # a head entity with >max_bucket identical-norm spellings
        # saturates every band bucket (identical signatures), so the LSH
        # pass below would skip all of them — the documented
        # still-unified guarantee needs this dedicated O(n) pass (review r5)
        by_norm: dict[str, int] = {}
        for idx in range(len(ordered)):
            first = by_norm.setdefault(norms[ordered[idx]], idx)
            if first != idx:
                yield first, idx
        for members in buckets.values():
            members = sorted(set(members))
            if len(members) < 2 or len(members) > max_bucket:
                continue
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    a, b = members[i], members[j]
                    if (norms[ordered[a]] == norms[ordered[b]]
                            or jaccard(shingles[a], shingles[b]) >= tau):
                        yield a, b

    labels = _local_union_find(edges())
    return {ordered[i]: ordered[c]
            for i, c in zip(labels.column("name_id").to_pylist(),
                            labels.column("component").to_pylist())
            if ordered[c] != ordered[i]}


@dataset_api
def canonicalize_surfaces(
    surfaces: rd.Dataset,
    *,
    num_perm: int = DEFAULT_NUM_PERM,
    bands: int = DEFAULT_BANDS,
    tau: float = DEFAULT_TAU,
    max_bucket: int = DEFAULT_MAX_BUCKET,
    cc_driver_threshold: int = DRIVER_UNION_FIND_THRESHOLD,
) -> rd.Dataset:
    """(surface) -> (surface, canonical) mapping dataset.

    ``surfaces`` (a Dataset or :class:`~.bsp.Blocks`) must have a
    ``surface`` string column (distinct values).
    """
    def assign_ids(t: pa.Table) -> pa.Table:
        return pa.table({
            "surface": t.column("surface"),
            "name_id": pa.array(
                [id63(s) for s in t.column("surface").to_pylist()],
                pa.int64()),
        })

    # every exchange below hands its block refs to the next (bsp.Blocks)
    ids = map_blocks(surfaces, assign_ids)

    # 63-bit id collision guard: a digest collision would silently merge
    # two unrelated surfaces into one component corpus-wide (birthday
    # bound ~5% at 1e9 distinct surfaces), so the distinct-id count is
    # checked against the distinct-surface contract before clustering
    n_surfaces = ids.num_rows()
    n_ids = agg_blocks(ids, "name_id", [], num_partitions=16).num_rows()
    if n_ids != n_surfaces:
        raise RuntimeError(
            f"canonicalize_surfaces: {n_surfaces - n_ids} 63-bit name_id "
            "collisions detected — raise the digest size (two unrelated "
            "surfaces would silently share a canonical form)")

    # payload-free LSH pair generation (stages/dedup.py machinery): the band
    # exchange carries only (shard, band, hash, name_id, sketch); surfaces are
    # re-read for the (tiny) candidate set in the verify stage
    from .dedup import _minhash_bands_feat_batch, _pairs_from_buckets

    pairs = _pairs_from_buckets.blocks(
        ids,
        None,
        _surface_verify_fn(tau),
        "name_id",
        "surface",
        max_bucket=max_bucket,
        prepare_fn=_surface_prepare,
        # generous margin: surfaces are short (small shingle sets -> noisier
        # estimates) and baseline name-name similarity is low, so a loose
        # prune still kills shared-shingle bucket blowups without recall risk
        prune_est=max(0.0, tau - 0.2),
        # batch-vectorized signatures: per-surface outer-product dispatch
        # dominates on short payloads
        bands_feat_batch_fn=_minhash_bands_feat_batch(
            lambda s: char_shingles(_norm(s)), num_perm, bands
        ),
        # head-surface skew guard stays; dropped volume visible via
        # canon_skipped_* counters.  Exact-duplicate recall does NOT
        # depend on it: the same-norm edge pass below unifies identical
        # norms directly (identical signatures saturate EVERY band
        # bucket, so a >max_bucket group would otherwise never pair —
        # review r5)
        counter_prefix="canon",
    )

    # exact same-norm edges: min name_id per norm (one combiner-backed
    # exchange over short strings), members joined back, edge to the
    # group min for every non-min member — O(n), no quadratic explode,
    # immune to bucket caps.  The norm column is computed in each
    # exchange's split tasks (a block function), not in a Ray Data map
    nm = (ids, lambda t: pa.table({
        "norm": pa.array([_norm(s) for s in t.column("surface").to_pylist()],
                         pa.string()),
        "name_id": t.column("name_id")}))
    nmin = agg_blocks(nm, "norm", [("name_id", "min", "root")],
                      num_partitions=16)
    nsch = pa.schema([("norm", pa.string()), ("name_id", pa.int64())])
    njoin = join_blocks(
        nm, nmin, on="norm", num_partitions=16,
        left_schema=nsch,
        right_schema=pa.schema([("norm", pa.string()),
                                ("root", pa.int64())]))
    norm_edges = map_blocks(njoin, lambda t: (lambda f: pa.table(
        {"src": f.column("name_id"), "dst": f.column("root")}))(
            t.filter(pc.invert(pc.equal(t.column("name_id"),
                                        t.column("root"))))))

    # both edge sets as the blocks of one source: no union execution
    pair_edges = map_blocks(pairs, lambda t: pa.table(
        {"src": t.column("id_a"), "dst": t.column("id_b")}))
    edges = Blocks.chain(pair_edges, norm_edges)

    if edges.num_rows() == 0:
        return map_blocks(ids, lambda t: pa.table(
            {"surface": t.column("surface"),
             "canonical": t.column("surface")}))

    # the labels table (driver-tier Blocks, or the BSP's labels) is a
    # join side without further barriers
    comp = connected_components.blocks(edges,
                                       driver_threshold=cc_driver_threshold)

    _S_IDS = pa.schema([("surface", pa.string()), ("name_id", pa.int64())])
    _S_COMP = pa.schema([("name_id", pa.int64()), ("component", pa.int64())])
    _S_WC = pa.schema([("surface", pa.string()), ("component", pa.int64())])
    _S_CANON = pa.schema([("component", pa.int64()),
                          ("canonical", pa.string())])
    # attach component to every (name_id, surface); nodes without edges
    # keep themselves (coalesce with own id).  The join runs once; the
    # coalesce is a block function of the two exchanges it feeds (the
    # per-component canonical-pick reduce and the final application
    # join).  All three tail steps run as exchange joins / arrow-reduce
    # aggs (plain tasks, vectorized across keys) — the native
    # JoinOperator + Aggregate tail measured 3.5 + 3.4 + 2.2s at 120k
    # surfaces; this shape runs it in ~1.5s total.
    with_comp = (
        join_blocks(ids, comp, on="name_id", how="left_outer",
                    num_partitions=16, left_schema=_S_IDS,
                    right_schema=_S_COMP),
        lambda t: pa.table({
            "surface": t.column("surface"),
            "component": pc.coalesce(t.column("component"),
                                     t.column("name_id"))}))
    canon = agg_blocks(
        with_comp, "component", [("surface", "min", "canonical")],
        num_partitions=16)
    return join_blocks(
        with_comp, canon, on="component", num_partitions=16,
        left_schema=_S_WC, right_schema=_S_CANON,
        columns=["surface", "canonical"])


def apply_canonical_map(triples: rd.Dataset, mapping: dict[str, str]) -> rd.Dataset:
    """Rewrite subj/obj through a broadcast canonical map (ray.put'd dict).

    At bench scale the mapping is small (distinct surfaces << triples) so a
    broadcast lookup beats a shuffle join.  ``build_triples`` switches to
    :func:`apply_canonical_join` (same output contract) when more than
    ``pipelines.kg.CANONICAL_MAP_JOIN_THRESHOLD`` surfaces change.
    """
    return triples.map_batches(canonical_rewrite(mapping),
                               batch_format="pyarrow")


def canonical_rewrite(mapping: dict[str, str]):
    """:func:`apply_canonical_map`'s rewrite as an Arrow block function
    (``ray.put`` of ``mapping`` once), for a raw task or a map."""
    import ray

    map_ref = ray.put(mapping)

    def rewrite(batch: pa.Table) -> pa.Table:
        # task mode via the per-worker object cache (a closure dict is
        # re-pickled EMPTY for every task — dedup._WORKER_OBJ_CACHE's
        # documented measurement; a class here would become an actor
        # pool and cap the parallelism of every fused stage)
        from .dedup import _worker_obj_cache

        m = _worker_obj_cache(map_ref)
        subj = [m.get(s, s) for s in batch.column("subj").to_pylist()]
        objs = batch.column("obj").to_pylist()
        obj_types = batch.column("obj_type").to_pylist()
        obj = [m.get(o, o) if ot else o for o, ot in zip(objs, obj_types)]
        cols = {name: batch.column(name) for name in batch.column_names}
        cols["subj"] = pa.array(subj, pa.string())
        cols["obj"] = pa.array(obj, pa.string())
        slug, lower = _subject_norm_columns(subj)
        cols["subj_slug"] = slug
        cols["subj_lower"] = lower
        return pa.table(cols)

    return rewrite


def _subject_norm_columns(subj: list) -> tuple[pa.Array, pa.Array]:
    """(subj_slug, subj_lower) columns computed per DISTINCT subject —
    subjects repeat heavily across a document's triples, so the slug
    kernels run once per distinct value, not once per row."""
    from ..kernels.normalize import normalize_docred_subject, normalize_entity_name

    cache: dict[str, tuple[str, str]] = {}
    slugs, lowers = [], []
    for s in subj:
        v = cache.get(s)
        if v is None:
            v = cache[s] = (normalize_entity_name(s), normalize_docred_subject(s))
        slugs.append(v[0])
        lowers.append(v[1])
    return pa.array(slugs, pa.string()), pa.array(lowers, pa.string())


@dataset_api
def apply_canonical_join(
    triples: rd.Dataset, cmap: rd.Dataset, num_partitions: int = 16
) -> rd.Dataset:
    """Rewrite subj/obj through a (surface, canonical) mapping DATASET via
    hash-partitioned left joins — the at-scale form of
    ``apply_canonical_map`` (same output contract) for mappings too large
    to broadcast.  ``cmap`` (a Dataset or the :class:`~.bsp.Blocks` of
    an exchange) needs only the CHANGED surfaces (surface != canonical);
    unmatched rows keep their surface.

    Both joins run as chained raw-task exchange joins (no JoinOperator
    actor pools) with schemas passed through, and the final column
    surgery runs one raw task per joined block: no Ray Data execution
    over materialized triples."""
    def rename(key: str, ccol: str) -> tuple[tuple, pa.Schema]:
        # a block function of the join side: no Ray Data map in front
        side = (cmap, lambda t, key=key, ccol=ccol: pa.table(
            {key: t.column("surface").cast(pa.string()),
             ccol: t.column("canonical").cast(pa.string())}))
        return side, pa.schema([(key, pa.string()), (ccol, pa.string())])

    t_schema = triples.schema()
    ts = pa.schema(list(zip(t_schema.names, t_schema.types)))
    subj_side, subj_schema = rename("subj", "subj_canon")
    obj_side, obj_schema = rename("obj", "obj_canon")
    j1 = join_blocks(
        triples, subj_side, on="subj", how="left_outer",
        num_partitions=num_partitions,
        left_schema=ts, right_schema=subj_schema,
    )
    joined = join_blocks(
        j1, obj_side, on="obj", how="left_outer",
        num_partitions=num_partitions,
        left_schema=join_out_schema(ts, subj_schema, "subj"),
        right_schema=obj_schema,
    )

    def rewrite(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        subj = pc.fill_null(batch.column("subj_canon"), batch.column("subj"))
        is_ent = pc.invert(pc.equal(batch.column("obj_type"), ""))
        obj = pc.if_else(
            pc.and_(is_ent, pc.is_valid(batch.column("obj_canon"))),
            batch.column("obj_canon"), batch.column("obj"),
        )
        cols = {
            name: batch.column(name)
            for name in batch.column_names
            if name not in ("subj_canon", "obj_canon")
        }
        cols["subj"] = subj
        cols["obj"] = obj
        slug, lower = _subject_norm_columns(subj.to_pylist())
        cols["subj_slug"] = slug
        cols["subj_lower"] = lower
        return pa.table(cols)

    return map_blocks(joined, rewrite)


_PACK_SEP = "\x1f"


#: dedup_triples exchange fan-out cap: the sized partition count's
#: upper bound
_DEDUP_MAX_PARTS = 32

#: the rows dedup_triples' exchange moves: the key, the packed
#: provenance and the key hash (``exchange._hash_col``) as the
#: partition column
_DEDUP_PACKED_SCHEMA = pa.schema([
    ("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string()),
    ("prov", pa.string()), ("_part", pa.int64())])


_SPO = ["subj", "pred", "obj"]


def _min_prov(t: pa.Table) -> pa.Table:
    """The min packed provenance of each (subj, pred, obj) of ``t``."""
    g = t.group_by(_SPO).aggregate([("prov", "min")])
    return pa.table({"subj": g.column("subj"), "pred": g.column("pred"),
                     "obj": g.column("obj"), "prov": g.column("prov_min")})


@dataset_api
def dedup_triples(triples) -> rd.Dataset:
    """Global exact (subj, pred, obj) dedup — the final canonical shuffle
    (HashSet semantics of integration_tests.rs:70, A3 in SURVEY.md).

    ``triples`` is a Dataset, or a ``(source, block_fn)`` pair as the
    exchanges take it: the block function maps each block of the
    materialized source (a Dataset or :class:`~.bsp.Blocks`) to the
    triples, in the task that splits it.

    One :func:`~.bsp.exchange_blocks`, fully vectorized (pyarrow
    kernels, no per-row Python — this is the one stage every triple of
    a 100-TB run passes through):
    1. per-block combiner (``pack``, in the task that splits the source
       block, after its block function): pack all provenance columns
       into ONE lexicographically-sortable string (url first, then
       zero-padded chunk/span) with ``pc.binary_join_element_wise``;
       collapse within-block duplicates with an arrow
       ``group_by(...).min``, and tag each row with the key hash
       (``exchange._hash_col``, the law ``exchange_agg`` uses).  After
       it a key reaches the reduce as at most one row per source block,
       so a globally-hot key costs its partition at most B rows for B
       source blocks.
    2. the reduce: the same min per (subj, pred, obj) over the
       partition.  Grouping on the REAL key columns (not a 64-bit
       digest) makes a key collision impossible at any scale.  Min of
       the packed string selects a CONSISTENT representative row
       (deterministic first-by-(url, chunk, span)); Min is associative
       and commutative, so the result is the same at every partition
       count, and the exchange sizes its partition count to the source
       blocks (at most ``_DEDUP_MAX_PARTS``).
    3. unpack provenance back into columns (vectorized split_pattern +
       list_element + casts), in the same reduce task; the output is
       materialized.  An empty input gives one typed empty block.
    """

    def pack(batch: pa.Table) -> pa.Table:
        n = len(batch)
        names = set(batch.column_names)

        def s(arr) -> pa.ChunkedArray:
            return pc.cast(arr, pa.string())

        def col(name, default, typ=pa.string()):
            if name not in names:
                return pa.array([default] * n, typ)
            # a null element would null the row's ENTIRE packed prov via
            # binary_join_element_wise — a null element gets the absent
            # column's default (the unpack default)
            arr = batch.column(name)
            if typ == pa.string() or pa.types.is_null(arr.type):
                arr = pc.cast(arr, typ)
            return pc.fill_null(arr, pa.scalar(default).cast(arr.type))

        def pad(arr, width):
            return pc.utf8_lpad(s(arr), width=width, padding="0")

        prov = pc.binary_join_element_wise(
            col("url", ""),
            pad(col("chunk_id", 0, pa.int32()), 8),
            pad(col("span_start", 0, pa.int64()), 10),
            pad(col("span_end", 0, pa.int64()), 10),
            col("method", ""),
            col("nested_in", ""),
            col("subj_type", ""),
            col("obj_type", ""),
            col("subj_uri", ""),
            s(col("subj_link_conf", 0.0, pa.float64())),
            col("obj_uri", ""),
            s(col("obj_link_conf", 0.0, pa.float64())),
            s(col("confidence", 0.0, pa.float64())),
            pc.if_else(col("valid", True, pa.bool_()), pa.scalar("1"), pa.scalar("0")),
            col("subj_slug", ""),
            col("subj_lower", ""),
            col("pred_key", ""),
            _PACK_SEP,
        )
        # within-block combiner: keep min prov per (subj, pred, obj)
        g = _min_prov(pa.table({"subj": batch.column("subj"),
                                "pred": batch.column("pred"),
                                "obj": batch.column("obj"),
                                "prov": prov}))
        return g.append_column("_part", _hash_col(g, _SPO))

    def unpack(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch.column("prov"), pattern=_PACK_SEP)

        def f(i):
            return pc.list_element(parts, i)

        def fint(i, typ):
            return pc.cast(f(i), typ)

        def ffloat(i):
            return pc.cast(f(i), pa.float64())

        def fnullable(i):
            v = f(i)
            return pc.if_else(pc.equal(v, ""), pa.scalar(None, pa.string()), v)

        return pa.table(
            {
                "url": f(0),
                "subj": batch.column("subj"),
                "subj_slug": f(14),
                "subj_lower": f(15),
                "pred": batch.column("pred"),
                "pred_key": f(16),
                "obj": batch.column("obj"),
                "subj_type": f(6),
                "obj_type": f(7),
                "nested_in": f(5),
                "chunk_id": fint(1, pa.int32()),
                "span_start": fint(2, pa.int64()),
                "span_end": fint(3, pa.int64()),
                "method": f(4),
                "subj_uri": fnullable(8),
                "subj_link_conf": ffloat(9),
                "obj_uri": fnullable(10),
                "obj_link_conf": ffloat(11),
                "confidence": ffloat(12),
                "valid": pc.equal(f(13), "1"),
            }
        )

    def reduce(t: pa.Table) -> pa.Table:
        return unpack(_min_prov(t))

    # the arrow group_by reduces every key of a partition in one
    # vectorized call: Ray's built-in Aggregate reduces per key in Python
    # and is ~50x slower here
    return exchange_blocks([(src, _then(fn, pack))
                            for src, fn in _sources(triples)],
                           "_part", reduce, _DEDUP_PACKED_SCHEMA,
                           max_parts=_DEDUP_MAX_PARTS)
