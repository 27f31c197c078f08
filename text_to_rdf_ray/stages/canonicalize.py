"""Entity canonicalization: MinHash-LSH blocking + union-find as shuffles.

North-star core (BASELINE.json): cross-document surface-form
canonicalization at 10^12-doc scale —

  distinct surfaces
  -> map_batches: char-shingle MinHash signatures, explode to
     (shard, band_id, band_hash, name_id) rows — no surface
     strings enter the exchange                            [no shuffle]
  -> groupby(band_key): per-bucket candidate pairs; surfaces for the
     (tiny) candidate set are re-read in a verify stage and checked by
     exact shingle Jaccard >= tau                           [shuffle 1]
     (buckets larger than ``max_bucket`` are skipped — the skew guard for
      head surface forms; exact duplicates inside a skipped bucket are
      still unified because identical norms share ALL bands and one
      unskewed band key, and identical strings canonicalize identically)
  -> iterative min-label propagation over the edge set     [shuffles 2..k]
     (connected components as BSP rounds over edges pinned once in
      stationary partitions, with early convergence detection; only
      nodes that appear in edges join the iteration — singletons
      shortcut to themselves)
  -> canonical name per component = lexicographically smallest surface
  -> surface -> canonical map joined back onto the triples.

Label propagation runs on the stationary-partition BSP engine
(stages/bsp.py), or as an in-process union-find for small edge sets; every
other shuffle is a raw-task hash exchange (``exchange_join`` /
``exchange_agg`` / ``two_phase_reduce``).  Candidate-pair generation
shuffles only (shard, band, hash, name_id) rows — never surfaces,
never documents.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..kernels.minhash import band_keys, char_shingles, jaccard, minhash_signature
from .bsp import (Blocks, _as_table, _source_blocks, map_blocks, materialized,
                  two_phase_reduce)
from .exchange import _sources, _then, agg_blocks, dataset_api, join_blocks, join_out_schema

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
    skew/scale design assumes).
    """
    import ray

    # one materialization: counted, then read by both orientations
    edges = materialized(edges)
    blocks, _ = _source_blocks(edges)
    n_edges = sum(rows for _, rows, _ in blocks)
    if not n_edges or n_edges < driver_threshold:
        tbls = [_as_table(t, None) for t in ray.get([b[0] for b in blocks])]
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
    try:
        from ..state.counters import incr

        incr({"cc_rounds": rounds})
    except Exception:
        pass
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
    the surfaces whose canonical differs.
    """
    from collections import defaultdict

    norms = {sfc: _norm(sfc) for sfc in surface_list}
    buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
    ordered = sorted(surface_list)
    for idx, sfc in enumerate(ordered):
        sig = minhash_signature(char_shingles(norms[sfc]), num_perm=num_perm)
        for bi, bh in enumerate(band_keys(sig, bands)):
            buckets[(bi, bh)].append(idx)
    parent = list(range(len(ordered)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo

    shingle_cache: dict[int, set] = {}

    def sh(i):
        if i not in shingle_cache:
            shingle_cache[i] = char_shingles(norms[ordered[i]])
        return shingle_cache[i]

    # EXACT same-norm unification first, independent of bucket caps: a
    # head entity with >max_bucket identical-norm spellings saturates
    # every band bucket (identical signatures), so the LSH loop below
    # would skip all of them — the documented still-unified guarantee
    # needs this dedicated O(n) pass (review r5)
    by_norm: dict[str, int] = {}
    for idx in range(len(ordered)):
        nrm = norms[ordered[idx]]
        first = by_norm.setdefault(nrm, idx)
        if first != idx:
            union(first, idx)

    for members in buckets.values():
        members = sorted(set(members))
        if len(members) < 2 or len(members) > max_bucket:
            continue
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                if norms[ordered[a]] == norms[ordered[b]] or jaccard(sh(a), sh(b)) >= tau:
                    union(a, b)
    comp_min: dict[int, str] = {}
    for i in range(len(ordered)):
        r = find(i)
        cur = comp_min.get(r)
        if cur is None or ordered[i] < cur:
            comp_min[r] = ordered[i]
    return {
        ordered[i]: comp_min[find(i)]
        for i in range(len(ordered))
        if comp_min[find(i)] != ordered[i]
    }


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
        from hashlib import blake2b

        return pa.table({
            "surface": t.column("surface"),
            "name_id": pa.array(
                [int.from_bytes(
                    blake2b(s.encode("utf-8"), digest_size=8).digest(),
                    "little") >> 1
                 for s in t.column("surface").to_pylist()],
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
    # exchange carries only (shard, band, hash, name_id); surfaces are
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
    ``canonical_map_join_threshold`` surfaces change.
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


#: dedup_triples output schema (unpack's column layout) — used for the
#: typed empty-input result
_DEDUP_OUT_SCHEMA = pa.schema([
    ("url", pa.string()), ("subj", pa.string()),
    ("subj_slug", pa.string()), ("subj_lower", pa.string()),
    ("pred", pa.string()), ("pred_key", pa.string()),
    ("obj", pa.string()), ("subj_type", pa.string()),
    ("obj_type", pa.string()), ("nested_in", pa.string()),
    ("chunk_id", pa.int32()), ("span_start", pa.int64()),
    ("span_end", pa.int64()), ("method", pa.string()),
    ("subj_uri", pa.string()), ("subj_link_conf", pa.float64()),
    ("obj_uri", pa.string()), ("obj_link_conf", pa.float64()),
    ("confidence", pa.float64()), ("valid", pa.bool_()),
])


#: dedup_triples exchange fan-out cap — also the modulus of the packed
#: ``p1``/``p2`` partition columns, which the exchange re-splits ``% P``
#: for its sized P <= this cap
_DEDUP_MAX_PARTS = 32


@dataset_api
def dedup_triples(triples, salt: int = 16) -> rd.Dataset:
    """Global exact (subj, pred, obj) dedup — the final canonical shuffle
    (HashSet semantics of integration_tests.rs:70, A3 in SURVEY.md).

    ``triples`` is a Dataset, or a ``(source, block_fn)`` pair as the
    exchanges take it: the block function maps each block of the
    materialized source (a Dataset or :class:`~.bsp.Blocks`) to the
    triples, in the task that packs it.

    Two-phase and fully vectorized (pyarrow kernels, no per-row Python —
    this is the one stage every triple of a 100-TB run passes through):
    1. per-block combiner (``pack``, one raw task per input block, with
       no Ray Data execution): pack all provenance columns into
       ONE lexicographically-sortable string (url first, then zero-padded
       chunk/span) with ``pc.binary_join_element_wise``; collapse
       within-batch duplicates with an arrow ``group_by(...).min``.  This
       absorbs head-entity skew before the exchange.  Each row gets two
       partition columns: ``p1`` from (spo hash, salt) with salt =
       fnv(url) % S, so a globally-hot key spreads over S reducers, and
       ``p2`` from the spo hash alone.
    2. :func:`~.bsp.two_phase_reduce` as raw Ray tasks: split by ``p1``,
       salted partial min per (subj, pred, obj, salt), re-split by ``p2``,
       unsalted final min per (subj, pred, obj) over <= salt rows per key.
       Grouping on the REAL key columns (not a 64-bit digest) makes a key
       collision impossible at any scale.  Min of the packed string
       selects a CONSISTENT representative row (deterministic
       first-by-(url, chunk, span)); Min is associative and commutative,
       so the result is exactly the single-phase result for every
       partition count, and the exchange sizes its partition count to
       the packed input (at most ``_DEDUP_MAX_PARTS``).
    3. unpack provenance back into columns (vectorized split_pattern +
       list_element + casts), in the phase-2 reduce tasks; the output
       is materialized.
    """
    import pyarrow.compute as pc

    from ..kernels.minhash import _hash_shingles

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
        # salt = fnv(url) % S: a globally-hot (s,p,o) spreads over S
        # reducers in phase 1 (SURVEY.md §4.2 skew handling); the salt only
        # exists in the partial-agg phase and is dropped by phase 2
        salts = (_hash_shingles(col("url", "").to_pylist())
                 % np.uint64(salt)).astype(np.int32)
        tbl = pa.table(
            {
                "subj": batch.column("subj"),
                "pred": batch.column("pred"),
                "obj": batch.column("obj"),
                "salt": pa.array(salts, pa.int32()),
                "prov": prov,
            }
        )
        # within-batch combiner: keep min prov per (spo, salt)
        g = tbl.group_by(["subj", "pred", "obj", "salt"]).aggregate([("prov", "min")])
        # partition keys: p1 spreads a hot spo over `salt` reducers (phase 1),
        # p2 co-locates all of a spo's <= salt survivors (phase 2)
        spo = pc.binary_join_element_wise(
            g.column("subj"), g.column("pred"), g.column("obj"), "\x00"
        )
        spo_h = _hash_shingles(spo.to_pylist())
        salt_np = g.column("salt").to_numpy(zero_copy_only=False).astype(np.uint64)
        p1 = ((spo_h * np.uint64(0x9E3779B97F4A7C15)) ^ salt_np) \
            % np.uint64(_DEDUP_MAX_PARTS)
        p2 = spo_h % np.uint64(_DEDUP_MAX_PARTS)
        return pa.table(
            {
                "subj": g.column("subj"),
                "pred": g.column("pred"),
                "obj": g.column("obj"),
                "salt": g.column("salt"),
                "prov": g.column("prov_min"),
                "p1": pa.array(p1.astype(np.int32), pa.int32()),
                "p2": pa.array(p2.astype(np.int32), pa.int32()),
            }
        )

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

    # phase 1: salted partial aggregation (hot keys spread over `salt`
    # reducers); phase 2: unsalted final merge over <= salt rows per key.
    # Each reduce is a VECTORIZED arrow group_by over one whole partition —
    # Ray's built-in Aggregate reduces per key in Python and is ~50x
    # slower here.
    def reduce1(g: pa.Table) -> pa.Table:
        r = g.group_by(["subj", "pred", "obj", "salt"]).aggregate(
            [("prov", "min"), ("p2", "min")]
        )
        return pa.table(
            {
                "subj": r.column("subj"),
                "pred": r.column("pred"),
                "obj": r.column("obj"),
                "prov": r.column("prov_min"),
                "p2": r.column("p2_min"),
            }
        )

    def reduce2(g: pa.Table) -> pa.Table:
        r = g.group_by(["subj", "pred", "obj"]).aggregate([("prov", "min")])
        return unpack(pa.table(
            {
                "subj": r.column("subj"),
                "pred": r.column("pred"),
                "obj": r.column("obj"),
                "prov": r.column("prov_min"),
            }
        ))

    # raw-task two-phase exchange (stages/bsp.py) sized to the packed
    # blocks — this tail is on the headline path
    [(src, fn)] = _sources(triples)
    packed = map_blocks(src, _then(fn, pack))
    if packed.num_rows() == 0:
        # zero-block/zero-row input: one typed empty block (review r5)
        return Blocks.put([_DEDUP_OUT_SCHEMA.empty_table()])
    # the unpack runs in the second phase's reduce tasks: the output is
    # materialized, with no Ray Data map after the exchange
    return two_phase_reduce.blocks(packed, "p1", "p2", reduce1, reduce2,
                                   max_parts=_DEDUP_MAX_PARTS)
