"""Graph operators over edge-table Datasets: PageRank power iteration.

An iterative-join workload the KG engine needs once triples form a graph
(entity importance ranking over the extracted entity graph, or
supplier/customer influence over relational edges).

``pagerank`` is Ray-Data-first: the static 1/outdeg factor attaches to
every edge in one hash join, then the factor-attached edges are pinned
ONCE as stationary hash partitions (stages/bsp.py::pagerank_bsp) and
each power-iteration step moves only the O(nodes) rank table — per-
partition contribution sums, one exchange by destination, one damping
update per partition — so a 100 TB edge table shuffles once, not once
per step, and never materializes on one node.  Zero-in-degree nodes get
the base rank from their partition's node list (no outer join needed).
Below ``DRIVER_PAGERANK_THRESHOLD`` edges a driver numpy tier runs the
same iteration.

Semantics (simplified dangling-mass variant, exactly replayable in SQL):

    PR_0(v)   = 1 / N
    PR_t+1(v) = (1 - d) / N + d * sum_{u -> v} PR_t(u) / outdeg(u)

Dangling nodes' mass is dropped (ranks sum to < 1) — the common
SQL-replayable simplification; the fixed iteration count keeps the
computation deterministic for the DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..state import counters
from .bsp import Blocks, map_blocks


def _project(ds: rd.Dataset, mapping: list[tuple[str, str]]) -> rd.Dataset:
    """Column projection/rename via arrow rebuild (rename_columns interacts
    badly with the 2.49 join planner on some plans)."""
    return ds.map_batches(_projection(mapping), batch_format="pyarrow")


def _projection(mapping: list[tuple[str, str]]):
    """The Arrow block function of :func:`_project` (as an exchange
    source's block function it costs no Ray Data execution)."""
    return (lambda t, m=tuple(mapping):
            pa.table({new: t.column(old) for old, new in m}))


#: below this many edges the graph fits comfortably on the driver and the
#: numpy power iteration beats the per-iteration exchange barriers (same
#: tiering as canonicalize's DRIVER_UNION_FIND_THRESHOLD)
DRIVER_PAGERANK_THRESHOLD = 200_000


def _empty_ranks() -> rd.Dataset:
    return rd.from_arrow(pa.table({"node": pa.array([], pa.string()),
                                   "rank": pa.array([], pa.float64())}))


def _pagerank_driver(edges_df, iterations: int, damping: float) -> rd.Dataset:
    """Driver-side numpy power iteration (same semantics as the
    distributed path; used below DRIVER_PAGERANK_THRESHOLD edges)."""
    if len(edges_df) == 0:
        return _empty_ranks()
    src = edges_df["src"].to_numpy()
    dst = edges_df["dst"].to_numpy()
    nodes = np.unique(np.concatenate([src, dst]))
    idx = {n: i for i, n in enumerate(nodes)}
    si = np.fromiter((idx[s] for s in src), dtype=np.int64, count=len(src))
    di = np.fromiter((idx[d] for d in dst), dtype=np.int64, count=len(dst))
    n = len(nodes)
    outdeg = np.zeros(n, dtype=np.float64)
    np.add.at(outdeg, si, 1.0)
    r = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(iterations):
        contrib = r[si] / outdeg[si]
        s = np.zeros(n, dtype=np.float64)
        np.add.at(s, di, contrib)
        r = base + damping * s
    return rd.from_arrow(pa.table({
        "node": pa.array(nodes.tolist(), pa.string()),
        "rank": pa.array(r, pa.float64()),
    }))


def pagerank(
    edges: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    iterations: int = 5,
    damping: float = 0.85,
    num_partitions: int = 32,
    driver_threshold: int = DRIVER_PAGERANK_THRESHOLD,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
) -> rd.Dataset:
    """PageRank over an edge Dataset (one row per directed edge; parallel
    edges each contribute).  Node columns are strings.  Returns
    (node: string, rank: float64) — every node present.

    Tiered like canonicalize's connected components: below
    ``driver_threshold`` edges the graph collects to the driver and runs a
    numpy power iteration (per-iteration exchange barriers dominate at toy
    scale); above it, the distributed path runs.  Pass
    ``driver_threshold=0`` to force the distributed path (tests/bench).

    The distributed path is stages/bsp.py::pagerank_bsp (see the module
    docstring), which also owns ``checkpoint_dir`` / ``checkpoint_every``.
    """
    # one materialization of the projected edges — three consumers below
    # (node distinct, outdeg, factor attach) would each re-run a lazy
    # input lineage otherwise
    edges = _project(edges, [(src_col, "src"), (dst_col, "dst")]).materialize()
    src_col, dst_col = "src", "dst"
    if driver_threshold > 0 and edges.count() <= driver_threshold:
        return _pagerank_driver(edges.to_pandas(), iterations, damping)
    from .exchange import exchange_agg

    nodes = exchange_agg([(edges, _projection([(src_col, "node")])),
                          (edges, _projection([(dst_col, "node")]))], ["node"])
    n = nodes.count()
    if n == 0:
        return _empty_ranks()

    # static per-edge factor: 1 / outdeg(src), attached once.  Arrow-
    # reduce count — Ray's groupby().count() reduces per key in Python
    from .exchange import exchange_agg, exchange_join

    outdeg = (
        exchange_agg(
            (edges, _projection([(src_col, "node")])),
            "node", [("node", "count", "cnt")],
            num_partitions=num_partitions),
        lambda t: pa.table({
            "node": t.column("node"),
            "outdeg": t.column("cnt").cast(pa.float64()),
        }),
    )

    _S_EDGE = pa.schema([("node", pa.string()), ("dst", pa.string())])
    _S_OUTDEG = pa.schema([("node", pa.string()), ("outdeg", pa.float64())])

    e = exchange_join(
        (edges, _projection([(src_col, "node"), (dst_col, "dst")])),
        outdeg,
        on="node", num_partitions=num_partitions,
        left_schema=_S_EDGE, right_schema=_S_OUTDEG)

    def edge_factor(batch: pa.Table) -> pa.Table:
        od = batch.column("outdeg").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": batch.column("node"),
            "dst": batch.column("dst"),
            "factor": pa.array(1.0 / od, pa.float64()),
        })

    from .bsp import pagerank_bsp

    return pagerank_bsp((e, edge_factor), nodes, n, iterations=iterations,
                        damping=damping, num_parts=num_partitions,
                        checkpoint_dir=checkpoint_dir,
                        checkpoint_every=checkpoint_every)


def _pairs_within_groups(a: np.ndarray, b: np.ndarray,
                         max_chunk_pairs: int = 8_000_000):
    """Yield (first_idx, sec_idx) index arrays enumerating all ordered
    pairs (i < j) WITHIN runs of equal ``a`` (``a`` must be sorted; ``b``
    ascending within each run) — fully vectorized (repeat/cumsum integer
    arithmetic, no per-group Python), chunked so no more than
    ``max_chunk_pairs`` pairs are materialized at once."""
    n = len(a)
    if n == 0:
        return
    change = np.flatnonzero(a[1:] != a[:-1]) + 1
    ends = np.concatenate([change, [n]])
    starts = np.concatenate([[0], change])
    sizes = ends - starts
    end_of_row = np.repeat(ends, sizes)
    pos = np.arange(n, dtype=np.int64)
    reps = end_of_row - pos - 1  # pairs led by each row
    csum = np.concatenate([[0], np.cumsum(reps)])
    total = int(csum[-1])
    lo = 0
    while lo < total:
        hi = min(lo + max_chunk_pairs, total)
        r0 = int(np.searchsorted(csum, lo, side="right") - 1)
        r1 = int(np.searchsorted(csum, hi, side="left"))
        rows = np.arange(r0, r1, dtype=np.int64)
        rreps = reps[rows]
        first = np.repeat(rows, rreps)
        block_start = np.repeat(csum[rows], rreps)
        offset = np.arange(csum[r0], csum[r1], dtype=np.int64) - block_start
        sec = first + 1 + offset
        # trim to the [lo, hi) slice (chunk boundaries fall mid-row)
        sl = slice(int(lo - csum[r0]), int(hi - csum[r0]))
        yield first[sl], sec[sl]
        lo = hi


#: above this many distinct edges the closing-edge set is too large to
#: broadcast (sorted packed-key int64 array: 5M edges = 40 MB per worker
#: process) and the shuffle tier takes over
TRIANGLE_BROADCAST_THRESHOLD = 5_000_000


def triangle_count(
    edges: rd.Dataset,
    *,
    pre_canonical: bool = False,
    src: str = "src",
    dst: str = "dst",
    num_partitions: int = 64,
    broadcast_threshold: int = TRIANGLE_BROADCAST_THRESHOLD,
) -> rd.Dataset:
    """Exact per-node triangle counts over an undirected edge table.

    Input: any edge-instance Dataset with integer endpoint columns
    ``src``/``dst`` (direction and duplicates ignored; self-loops
    dropped).  Output: ``(node:int64, n_tri:int64)`` — one row per node
    that participates in >= 1 triangle; total triangles = sum(n_tri)/3.

    Algorithm: degree orientation (Suri & Vassilvitskii, "Counting
    Triangles and the Curse of the Last Reducer", WWW'11) — each edge is
    oriented from its lower (degree, node) endpoint, so out-adjacencies
    are O(sqrt(m)) and wedge volume is sum_a d_out(a)^2, skew-proof.

    Two tiers (same pattern as pagerank's driver tier / the broadcast
    semi-join):

    - **broadcast closing set** (<= ``broadcast_threshold`` distinct
      edges): the deduped edge list is collected once (bounded: 16
      bytes/edge), degrees + orientation ranks computed in numpy, and
      the oriented edge set broadcast via ``ray.put`` as ONE sorted
      packed-key array (rank_a * n_nodes + rank_b — ranks are dense, so
      the pack is exact for any int64 node ids).  Wedge generation runs
      distributed: one hash exchange on the wedge source, per-partition
      vectorized pair enumeration (``_pairs_within_groups``) checked
      against the broadcast keys with searchsorted.  No wedge ever
      crosses the network.
    - **shuffle tier** (above threshold): degrees attached by two hash
      joins, wedges by a self-``exchange_join`` on the source, closed by
      one more hash join — every step a plain-task exchange, wedge
      volume candidate-proportional.
    """
    from .exchange import exchange_agg

    def canon(t: pa.Table) -> pa.Table:
        a = t.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        keep = u != v
        return pa.table({"u": pa.array(u[keep], pa.int64()),
                         "v": pa.array(v[keep], pa.int64())})

    if pre_canonical:
        # caller guarantees distinct canonical (u, v) rows (u < v) —
        # skip the re-canon + distinct exchange (clustering_coeff's
        # shared edge table; review r5)
        e = edges
    else:
        e = exchange_agg(
            edges.map_batches(canon, batch_format="pyarrow"),
            ["u", "v"], num_partitions=num_partitions)
    n_edges = e.count()

    if n_edges <= broadcast_threshold:
        return _triangle_broadcast(e, n_edges,
                                   num_partitions=num_partitions)
    return _triangle_shuffle(e, num_partitions=num_partitions)


def _triangle_broadcast(e: rd.Dataset, n_edges: int, *,
                        num_partitions: int) -> rd.Dataset:
    import ray

    from ..stages.dedup import _worker_obj_cache
    from .exchange import exchange_agg, keyed_exchange

    if n_edges == 0:
        return rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                       "n_tri": pa.array([], pa.int64())}))
    df = e.to_pandas()
    u = df["u"].to_numpy()
    v = df["v"].to_numpy()
    nodes, counts = np.unique(np.concatenate([u, v]), return_counts=True)
    n_nodes = len(nodes)
    # orientation rank = position in the (degree, node) lexicographic
    # order; dense ranks make rank_a * n_nodes + rank_b an exact pack
    order = np.lexsort((nodes, counts))
    rank = np.empty(n_nodes, np.int64)
    rank[order] = np.arange(n_nodes, dtype=np.int64)
    ru = rank[np.searchsorted(nodes, u)]
    rv = rank[np.searchsorted(nodes, v)]
    ra = np.minimum(ru, rv)
    rb = np.maximum(ru, rv)
    keys = np.sort(ra * n_nodes + rb)
    ref = ray.put((keys, nodes[order]))  # nodes indexed by rank

    tbl = pa.table({
        "ra": pa.array(ra, pa.int64()), "rb": pa.array(rb, pa.int64()),
    })
    step = -(-n_edges // max(num_partitions // 4, 1))
    oriented = rd.from_arrow([tbl.slice(i, step)
                              for i in range(0, n_edges, step)])

    def wedges_check(g: pa.Table, ref=ref, n_nodes=n_nodes) -> pa.Table:
        keys, node_by_rank = _worker_obj_cache(ref)
        a = g.column("ra").to_numpy(zero_copy_only=False)
        b = g.column("rb").to_numpy(zero_copy_only=False)
        o = np.lexsort((b, a))
        a, b = a[o], b[o]
        out = []
        for first, sec in _pairs_within_groups(a, b):
            wk = b[first] * n_nodes + b[sec]
            pos = np.searchsorted(keys, wk)
            hit = (pos < len(keys)) & (keys[np.minimum(pos, len(keys) - 1)]
                                       == wk)
            if hit.any():
                out.append(np.concatenate([a[first][hit], b[first][hit],
                                           b[sec][hit]]))
        ranks = (np.concatenate(out) if out
                 else np.array([], np.int64))
        return pa.table({"node": pa.array(node_by_rank[ranks], pa.int64())})

    wedged = keyed_exchange(oriented, "ra", wedges_check,
                            num_partitions=num_partitions)
    return exchange_agg(wedged, "node", [("node", "count", "n_tri")],
                        num_partitions=min(num_partitions, 16))


def _triangle_shuffle(e: rd.Dataset, *, num_partitions: int) -> rd.Dataset:
    from .exchange import exchange_agg, exchange_join

    def endpoints(t: pa.Table) -> pa.Table:
        node = pa.concat_arrays([t.column("u").combine_chunks(),
                                 t.column("v").combine_chunks()])
        return pa.table({"node": node})

    deg = exchange_agg(
        (e, endpoints),
        "node", [("node", "count", "deg")], num_partitions=num_partitions)

    _S_E = pa.schema([("u", pa.int64()), ("v", pa.int64())])
    _S_DU = pa.schema([("u", pa.int64()), ("du", pa.int64())])
    _S_DV = pa.schema([("v", pa.int64()), ("dv", pa.int64())])
    du = (deg, _projection([("node", "u"), ("deg", "du")]))
    dv = (deg, _projection([("node", "v"), ("deg", "dv")]))
    ed = exchange_join(
        exchange_join(e, du, on="u", num_partitions=num_partitions,
                      left_schema=_S_E, right_schema=_S_DU),
        dv, on="v", num_partitions=num_partitions,
        left_schema=pa.schema([("u", pa.int64()), ("v", pa.int64()),
                               ("du", pa.int64())]),
        right_schema=_S_DV)

    def orient(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        duv = t.column("du").to_numpy(zero_copy_only=False)
        dvv = t.column("dv").to_numpy(zero_copy_only=False)
        lu = (duv < dvv) | ((duv == dvv) & (u < v))
        return pa.table({
            "a": pa.array(np.where(lu, u, v), pa.int64()),
            "b": pa.array(np.where(lu, v, u), pa.int64()),
            "db": pa.array(np.where(lu, dvv, duv), pa.int64()),
        })

    # read by both wedge-join sides and the closing join: mapped once
    o = map_blocks(ed, orient)
    _S_O = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                      ("db", pa.int64())])
    o2 = (o, _projection([("a", "a"), ("b", "c"), ("db", "dc")]))
    _S_O2 = pa.schema([("a", pa.int64()), ("c", pa.int64()),
                       ("dc", pa.int64())])

    def wedge_filter(t: pa.Table) -> pa.Table:
        b = t.column("b").to_numpy(zero_copy_only=False)
        c = t.column("c").to_numpy(zero_copy_only=False)
        db = t.column("db").to_numpy(zero_copy_only=False)
        dc = t.column("dc").to_numpy(zero_copy_only=False)
        keep = (db < dc) | ((db == dc) & (b < c))
        f = t.filter(pa.array(keep))
        # wedge (b, c) witnessed by a: closing edge, if present, is
        # oriented b -> c (same (degree, node) order as the orientation)
        return pa.table({"b": f.column("b"), "c": f.column("c"),
                         "wit": f.column("a")})

    wedges = (
        exchange_join(o, o2, on="a", num_partitions=num_partitions,
                      left_schema=_S_O, right_schema=_S_O2),
        wedge_filter)

    closing = (o, _projection([("a", "b"), ("b", "c")]))
    tri = exchange_join(
        wedges, closing, on=["b", "c"], num_partitions=num_partitions,
        left_schema=pa.schema([("b", pa.int64()), ("c", pa.int64()),
                               ("wit", pa.int64())]),
        right_schema=pa.schema([("b", pa.int64()), ("c", pa.int64())]))

    def tri_nodes(t: pa.Table) -> pa.Table:
        node = pa.concat_arrays([t.column("b").combine_chunks(),
                                 t.column("c").combine_chunks(),
                                 t.column("wit").combine_chunks()])
        return pa.table({"node": node})

    return exchange_agg(
        (tri, tri_nodes),
        "node", [("node", "count", "n_tri")], num_partitions=num_partitions)


def negative_samples(
    triples: rd.Dataset,
    *,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
    k: int = 2,
    max_entities: int = 5_000_000,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Uniform negative sampling for KG-embedding training (TransE-style
    corrupted triples, Bordes et al. 2013): per positive triple, ``k``
    rows with the object replaced by ``entities[splitmix64(h + j) % n]``
    where ``h`` is the triple's content hash and ``entities`` is the
    SORTED distinct object vocabulary — fully deterministic, so two runs
    (or a run and its SQL replay) draw identical negatives.

    Scale shape: the vocabulary is a bounded driver collect
    (``max_entities`` guard — KG entity counts are ~10^8 max, far below
    row counts) broadcast once via ``ray.put`` and read per worker from
    the object-store cache; the corruption itself is a pure
    ``map_batches`` (no shuffle, output = k × input rows streamed).
    Accidental draws of the true object are NOT filtered (standard
    uniform sampling; callers wanting filtered negatives re-draw on
    collision with j offsets beyond k).  Output adds ``neg_j`` (0..k-1)
    and ``obj_neg``.
    """
    import ray

    from .analytics import splitmix64
    from .exchange import exchange_agg
    from ..kernels.minhash import _hash_shingles

    ents_df = exchange_agg(
        _project(triples, [(obj_col, "entity")]),
        ["entity"], num_partitions=num_partitions).to_pandas()
    if len(ents_df) > max_entities:
        raise ValueError(
            f"negative_samples: {len(ents_df)} entities exceeds "
            f"max_entities={max_entities}; shard the vocabulary")
    ents = np.sort(ents_df["entity"].astype(str).to_numpy())
    n = len(ents)
    if n == 0:
        raise ValueError("negative_samples: empty entity vocabulary")
    ents_ref = ray.put(ents)
    cache: dict = {}

    def corrupt(batch: pd.DataFrame) -> pd.DataFrame:
        ev = cache.get("e")
        if ev is None:
            ev = cache["e"] = ray.get(ents_ref)
        key = (batch[subj_col].astype(str) + "\x1f"
               + batch[pred_col].astype(str) + "\x1f"
               + batch[obj_col].astype(str))
        h = _hash_shingles(key.tolist()).astype(np.uint64)
        reps = batch.loc[batch.index.repeat(k)].reset_index(drop=True)
        j = np.tile(np.arange(k, dtype=np.uint64), len(batch))
        idx = (splitmix64(np.repeat(h, k) + j) % np.uint64(n)).astype(
            np.int64)
        return reps.assign(neg_j=j.astype(np.int64), obj_neg=ev[idx])

    return triples.map_batches(corrupt, batch_format="pandas",
                               batch_size=65536)


def kcore(
    edges: rd.Dataset,
    *,
    k: int,
    src_col: str = "src",
    dst_col: str = "dst",
    max_driver_edges: int = 200_000,
    num_partitions: int = 32,
    max_rounds: int = 200,
) -> rd.Dataset:
    """k-core of an undirected graph: the maximal subgraph where every
    node has degree ≥ k, via iterative peeling (remove all nodes with
    degree < k; repeat until stable).  Deterministic — the k-core is
    unique, so peel order never matters.  Output: ``(node, deg)`` with
    the degree INSIDE the core.

    Tiers (the pagerank/CC pattern): ≤ ``max_driver_edges`` distinct
    edges peel in one numpy loop on the driver (a 10^5-edge analytics
    graph does not deserve a barrier per round); above it, each round is
    one degree ``exchange_agg`` + one semi-join ``exchange_join`` pair
    filtering surviving endpoints — O(peel-depth) rounds, every step
    vectorized.  Emits a ``kcore_rounds`` counter.  Extra rounds after
    convergence are no-ops (peeling is monotone), which is what makes
    the unrolled-SQL oracle sound.
    """
    from .exchange import exchange_agg, exchange_join

    # undirect + distinct once: every algorithm step assumes (a,b) and
    # (b,a) both present exactly once
    def undirect(t: pa.Table) -> pa.Table:
        a = t.column(src_col).to_numpy(zero_copy_only=False)
        b = t.column(dst_col).to_numpy(zero_copy_only=False)
        return pa.table({
            "a": pa.array(np.concatenate([a, b]), pa.int64()),
            "b": pa.array(np.concatenate([b, a]), pa.int64()),
        })

    e = exchange_agg(edges.map_batches(undirect, batch_format="pyarrow"),
                     ["a", "b"],
                     num_partitions=num_partitions).materialize()
    n_edges = e.count()

    if n_edges <= max_driver_edges:
        df = e.to_pandas()
        a = df["a"].to_numpy(dtype=np.int64)
        b = df["b"].to_numpy(dtype=np.int64)
        rounds = 0
        while True:
            rounds += 1
            nodes, deg = np.unique(a, return_counts=True)
            bad_nodes = nodes[deg < k]
            if len(bad_nodes) == 0 or rounds > max_rounds:
                break
            keep = ~(np.isin(a, bad_nodes) | np.isin(b, bad_nodes))
            a, b = a[keep], b[keep]
        counters.incr({"kcore_rounds": rounds})
        nodes, deg = np.unique(a, return_counts=True)
        out = pd.DataFrame({"node": nodes.astype(np.int64),
                            "deg": deg.astype(np.int64)})
        return rd.from_pandas(out) if len(out) else rd.from_pandas(
            pd.DataFrame({"node": pd.Series(dtype="int64"),
                          "deg": pd.Series(dtype="int64")}))

    es = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        deg = exchange_agg(e, "a", [("b", "count", "deg")],
                           num_partitions=num_partitions).materialize()
        # bounded: only nodes BELOW k move to the driver per round, and
        # the peel removes them immediately (never grows round over round)
        bad_df = deg.map_batches(
            lambda t: t.filter(pc.less(t.column("deg"),
                                       pa.scalar(k, pa.int64()))),
            batch_format="pyarrow").to_pandas()
        if bad_df.empty:
            break
        keep = deg.map_batches(
            lambda t: pa.table({"a": t.filter(
                pc.greater_equal(t.column("deg"),
                                 pa.scalar(k, pa.int64()))).column("a")}),
            batch_format="pyarrow")
        ks = pa.schema([("a", pa.int64())])
        # semi-join both endpoints against the surviving node set
        e = exchange_join(e, keep, on="a", left_schema=es,
                          right_schema=ks,
                          num_partitions=num_partitions)
        e = exchange_join(
            e.map_batches(lambda t: pa.table({"a": t.column("b"),
                                              "b": t.column("a")}),
                          batch_format="pyarrow"),
            keep, on="a", left_schema=es, right_schema=ks,
            num_partitions=num_partitions)
        e = e.map_batches(lambda t: pa.table({"a": t.column("b"),
                                              "b": t.column("a")}),
                          batch_format="pyarrow").materialize()
    counters.incr({"kcore_rounds": rounds})
    return exchange_agg(e, "a", [("b", "count", "deg")],
                        num_partitions=num_partitions).map_batches(
        lambda t: pa.table({"node": t.column("a"),
                            "deg": t.column("deg")}),
        batch_format="pyarrow")


def random_walks(
    edges: rd.Dataset,
    starts: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    walk_len: int = 4,
    seed: int = 42,
    num_partitions: int = 32,
    max_broadcast_frontier: int = 1_000_000,
) -> rd.Dataset:
    """Deterministic DeepWalk-style random walks over an int64 edge list.

    One walk per row of ``starts`` (column ``node``); output rows
    ``(start, step, node)`` with step 0 = the start node itself.  The
    "random" neighbor choice is a pure function of position — neighbor
    index = ``splitmix64(node * 1000003 + step * 7919 + seed) % degree``
    over the (src, dst)-sorted adjacency — so walks are reproducible
    across runs, partitionings and engines (the DuckDB oracle replays
    the same choice with row_number over the same ordering).

    Adjacency = distinct edges -> ONE hash exchange -> vectorized
    per-partition sort/cumcount giving (node, dst, pos, deg),
    materialized once.  Then two tiers for the ``walk_len`` rounds:

    - **Broadcast tier** (frontier rows <= ``max_broadcast_frontier``,
      the normal case — walks never branch, so the frontier only
      shrinks): per step, the distinct frontier NODES are ``ray.put``
      and each adjacency block resolves its choices with a vectorized
      ``np.isin`` + pick==pos filter; the bounded (node -> next) map
      collects to the driver for one pandas merge.  The adjacency is
      scanned, NEVER re-exchanged — re-shuffling the stationary 10⁹-row
      side per step is exactly the pathology the BSP engine exists for.
      Driver state is O(frontier), bounded by the threshold (~16 MB/M
      rows) plus the O(starts × walk_len) walk output.
    - **Exchange tier** (huge frontiers): per-step
      exchange_join frontier⋈adjacency + Arrow pick filter — both
      sides shuffle, fully distributed, same results (parity-tested).

    Walks truncate early at sink nodes (no out-edges): the inner
    join/merge drops them, matching the oracle's recursive semantics.
    """
    from .analytics import splitmix64
    from .exchange import exchange_agg, exchange_join, keyed_apply

    d = exchange_agg(edges, [src_col, dst_col])

    def adj_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([src_col, dst_col], kind="mergesort")
        pos = g.groupby(src_col, sort=False).cumcount()
        deg = g.groupby(src_col, sort=False)[dst_col].transform("size")
        return pd.DataFrame({
            "node": g[src_col].astype("int64"),
            "nbr": g[dst_col].astype("int64"),
            "pos": pos.astype("int64"),
            "deg": deg.astype("int64")})

    adjacency = keyed_apply(d, src_col, adj_part,
                            num_partitions=num_partitions)
    adj_schema = pa.schema([("node", pa.int64()), ("nbr", pa.int64()),
                            ("pos", pa.int64()), ("deg", pa.int64())])

    def init(b: pd.DataFrame) -> pd.DataFrame:
        n = b["node"].astype("int64")
        return pd.DataFrame({"start": n, "node": n})

    frontier = starts.map_batches(init, batch_format="pandas").materialize()
    f_schema = pa.schema([("start", pa.int64()), ("node", pa.int64())])

    out_parts: list[rd.Dataset] = []

    def stamp(step: int):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"start": b["start"].astype("int64"),
                                 "step": np.int64(step),
                                 "node": b["node"].astype("int64")})
        return fn

    out_parts.append(frontier.map_batches(stamp(0), batch_format="pandas"))

    n_frontier = frontier.count()
    if n_frontier <= max_broadcast_frontier:
        f_df = frontier.to_pandas()
        for step in range(walk_len):
            if f_df.empty:
                break
            nodes = np.unique(f_df["node"].to_numpy(np.int64))
            ref = ray.put(nodes)
            cache: dict = {}

            def resolve(t: pa.Table, step=step, ref=ref,
                        cache=cache) -> pd.DataFrame:
                ns = cache.get("n")
                if ns is None:
                    ns = cache["n"] = ray.get(ref)
                node = np.asarray(t.column("node"), dtype=np.int64)
                m = np.isin(node, ns)
                node = node[m]
                z = (node.view(np.uint64) * np.uint64(1000003)
                     + np.uint64(step * 7919 + seed))
                pick = splitmix64(z) % np.asarray(
                    t.column("deg"), dtype=np.int64)[m].view(np.uint64)
                keep = (pick.view(np.int64)
                        == np.asarray(t.column("pos"),
                                      dtype=np.int64)[m])
                return pd.DataFrame({
                    "node": node[keep],
                    "_next": np.asarray(t.column("nbr"),
                                        dtype=np.int64)[m][keep]})

            # bounded collect: exactly one chosen edge per frontier node
            nxt = adjacency.map_batches(
                resolve, batch_format="pyarrow").to_pandas()
            if "node" not in nxt.columns:  # all-empty blocks lose schema
                nxt = pd.DataFrame({"node": pd.Series(dtype="int64"),
                                    "_next": pd.Series(dtype="int64")})
            f_df = (f_df.merge(nxt, on="node", how="inner")
                    [["start", "_next"]]
                    .rename(columns={"_next": "node"}))
            out_parts.append(rd.from_pandas(
                pd.DataFrame({"start": f_df["start"].astype("int64"),
                              "step": np.int64(step + 1),
                              "node": f_df["node"].astype("int64")})))
        walks = out_parts[0]
        for p in out_parts[1:]:
            walks = walks.union(p)
        return walks

    for step in range(walk_len):
        joined = exchange_join(frontier, adjacency, on="node",
                               num_partitions=num_partitions,
                               left_schema=f_schema,
                               right_schema=adj_schema)

        def choose(t: pa.Table, step=step) -> pa.Table:
            node = np.asarray(t.column("node"), dtype=np.int64)
            z = (node.view(np.uint64) * np.uint64(1000003)
                 + np.uint64(step * 7919 + seed))
            pick = splitmix64(z) % np.asarray(t.column("deg"),
                                              dtype=np.int64).view(np.uint64)
            keep = pick.view(np.int64) == np.asarray(t.column("pos"),
                                                     dtype=np.int64)
            f = t.filter(pa.array(keep))
            return pa.table({"start": f.column("start"),
                             "node": f.column("nbr")})

        frontier = joined.map_batches(
            choose, batch_format="pyarrow").materialize()
        out_parts.append(frontier.map_batches(stamp(step + 1),
                                              batch_format="pandas"))

    walks = out_parts[0]
    for p in out_parts[1:]:
        walks = walks.union(p)
    return walks


def personalized_pagerank(
    edges: rd.Dataset,
    seeds: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    iterations: int = 3,
    damping: float = 0.85,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Personalized PageRank: random walk with restart to the SEED set
    — the KG entity-relatedness / recommendation kernel.  rank₀ =
    uniform over seeds; per iteration
    ``r'(v) = seed(v)·((1-d) + d·dangling) + d·Σ_{u→v} r(u)/outdeg(u)``
    (dangling mass redirects to the seeds, so Σr stays 1 exactly like
    the teleport semantics).

    Sparse by construction: the rank table only ever holds nodes with
    nonzero mass — at 10⁹ nodes a 100-seed PPR iterates a table of
    thousands, never the node universe.  Per iteration: one
    exchange_join rank⋈(outdeg-attached edges), one exchange_agg
    contribution sum, one full_outer exchange_join against the seed
    table, and a bounded driver scalar for the dangling mass; the edge
    table (with outdegrees) is materialized ONCE and re-exchanged only
    on the rank side.  Output: ``(node, rank)`` for nonzero-mass nodes.
    """
    from .exchange import exchange_agg, exchange_join

    d = np.float64(damping)
    one_minus = np.float64(1.0) - d

    e = exchange_agg(edges, [src_col, dst_col])
    e = e.map_batches(
        lambda t: pa.table({"node": t.column(src_col).cast(pa.int64()),
                            "_dst": t.column(dst_col).cast(pa.int64())}),
        batch_format="pyarrow")
    es = pa.schema([("node", pa.int64()), ("_dst", pa.int64())])
    outdeg = exchange_agg(e, "node", [("_dst", "count", "outdeg")],
                          num_partitions=num_partitions)
    od_schema = pa.schema([("node", pa.int64()), ("outdeg", pa.int64())])
    eo = exchange_join(e, outdeg, on="node",
                       num_partitions=num_partitions,
                       left_schema=es, right_schema=od_schema
                       ).materialize()
    eo_schema = pa.schema([("node", pa.int64()), ("_dst", pa.int64()),
                           ("outdeg", pa.int64())])

    seed_df = exchange_agg(
        seeds.map_batches(
            lambda t: pa.table({"node": t.column("node").cast(pa.int64())}),
            batch_format="pyarrow"),
        ["node"]).to_pandas()
    if seed_df.empty:
        return rd.from_pandas(pd.DataFrame(
            {"node": pd.Series(dtype="int64"),
             "rank": pd.Series(dtype="float64")}))
    s_mass = np.float64(1.0) / np.float64(len(seed_df))
    seed_tbl = rd.from_pandas(pd.DataFrame({
        "node": seed_df["node"].astype("int64"),
        "_sm": np.full(len(seed_df), s_mass)})).materialize()
    sm_schema = pa.schema([("node", pa.int64()), ("_sm", pa.float64())])

    rank = rd.from_pandas(pd.DataFrame({
        "node": seed_df["node"].astype("int64"),
        "rank": np.full(len(seed_df), s_mass)})).materialize()
    r_schema = pa.schema([("node", pa.int64()), ("rank", pa.float64())])

    for _ in range(iterations):
        # ONE left_outer join serves both purposes: matched rows carry
        # contributions, null-_dst rows are exactly the dangling mass
        # (a rank node with no out-edges matches nothing in eo)
        joined = exchange_join(rank, eo, on="node", how="left_outer",
                               num_partitions=num_partitions,
                               left_schema=r_schema,
                               right_schema=eo_schema).materialize()

        def contrib(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pac

            # arrow filter, not a pandas round-trip: a null _dst in the
            # batch would coerce the whole int64 column to float64 and
            # round hash-derived ids above 2^53 (review r5)
            f = t.filter(pac.is_valid(t.column("_dst")))
            r = f.column("rank").to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            deg = f.column("outdeg").to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            dst = f.column("_dst").cast(pa.int64())
            return pa.table({
                "node": dst.combine_chunks()
                if isinstance(dst, pa.ChunkedArray) else dst,
                "_c": pa.array(d * r / deg, pa.float64())})

        csum = exchange_agg(
            joined.map_batches(contrib, batch_format="pyarrow"),
            "node", [("_c", "sum", "_c")],
            num_partitions=num_partitions)

        dang_rows = joined.map_batches(
            lambda t: pa.table({"_d": pa.array([float(
                t.to_pandas().loc[lambda df: df["_dst"].isna(), "rank"]
                .sum())], pa.float64())}),
            batch_format="pyarrow").to_pandas()
        dang = np.float64(dang_rows["_d"].sum()) if len(dang_rows) else \
            np.float64(0.0)

        merged = exchange_join(seed_tbl, csum, on="node",
                               how="full_outer",
                               num_partitions=num_partitions,
                               left_schema=sm_schema,
                               right_schema=pa.schema(
                                   [("node", pa.int64()),
                                    ("_c", pa.float64())]))

        def combine(t: pa.Table) -> pd.DataFrame:
            df = t.to_pandas()
            sm = df["_sm"].fillna(0.0).to_numpy(np.float64)
            c = df["_c"].fillna(0.0).to_numpy(np.float64)
            r = sm * (one_minus + d * dang) + c
            return pd.DataFrame({"node": df["node"].astype("int64"),
                                 "rank": r})

        rank = merged.map_batches(
            combine, batch_format="pyarrow").materialize()

    return rank


def clustering_coeff(
    edges: rd.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Local clustering coefficient inputs per node over the deduped
    undirected graph: (node, deg, n_tri).  The coefficient itself —
    2*n_tri / (deg*(deg-1)) — is left to the caller so the exact-integer
    outputs stay engine-independent; nodes with deg < 2 have n_tri = 0.

    One canonical dedup exchange, materialized ONCE and fed to both the
    degree reduce (flat endpoints -> exchange_agg count) and
    ``triangle_count`` (degree-oriented wedge counting) — the edge table
    never recomputes or re-shuffles between the two consumers.  Final
    attach is a single left-outer ``exchange_join`` (triangle rows are a
    subset of degree rows by construction).
    """
    from .exchange import exchange_agg, exchange_join

    def canon(t: pa.Table) -> pa.Table:
        a = t.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        keep = u != v
        return pa.table({"u": pa.array(u[keep], pa.int64()),
                         "v": pa.array(v[keep], pa.int64())})

    e = exchange_agg(
        edges.map_batches(canon, batch_format="pyarrow"),
        ["u", "v"], num_partitions=num_partitions)

    def endpoints(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(np.concatenate([u, v]), pa.int64()),
                         "one": pa.array(np.ones(len(t) * 2, np.int64))})

    deg = exchange_agg(
        e.map_batches(endpoints, batch_format="pyarrow"),
        "node", [("one", "sum", "deg")],
        num_partitions=min(num_partitions, 16))
    tri = triangle_count(e, pre_canonical=True, src="u", dst="v",
                         num_partitions=num_partitions)
    joined = exchange_join(
        deg, tri, on="node", how="left_outer",
        left_schema=pa.schema([("node", pa.int64()), ("deg", pa.int64())]),
        right_schema=pa.schema([("node", pa.int64()),
                                ("n_tri", pa.int64())]))

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tri_f = pc.coalesce(t.column("n_tri"),
                            pa.scalar(0, pa.int64()))
        return pa.table({"node": t.column("node"),
                         "deg": t.column("deg"),
                         "n_tri": tri_f})

    return joined.map_batches(finish, batch_format="pyarrow")


def sssp(
    edges: rd.Dataset,
    source: int,
    *,
    src: str = "src",
    dst: str = "dst",
    w: str = "w",
    max_iters: int = 8,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Single-source shortest paths over non-negative INTEGER edge
    weights — frontier-limited distributed Bellman-Ford.

    Per round: relax only from the FRONTIER (nodes improved last round)
    via one ``exchange_join`` frontier⋈edges, min-reduce the candidate
    distances, then one left-outer join against the running distance
    table keeps strict improvements (they become the next frontier) and
    min-merges the rest.  Work per round is O(frontier out-degree), not
    O(E); state moving each round is the O(nodes) distance table, pinned
    as a materialized few-block Dataset (the iterative-algorithm rule:
    never re-execute a lineage per round).  Terminates when the frontier
    empties or after ``max_iters`` rounds (with non-negative weights,
    converged rounds are no-ops, so a bounded-unroll SQL replay is
    exact once both sides have converged).

    Emits (node, dist) for every reached node.  Integer weights keep the
    relaxation exact and engine-independent.
    """
    from .exchange import exchange_agg, exchange_join

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t.column(src).cast(pa.int64()),
            "dst": t.column(dst).cast(pa.int64()),
            "w": t.column(w).cast(pa.int64())})

    # joined every round: materialized once
    e = edges.map_batches(prep, batch_format="pyarrow").materialize()
    e_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64()),
                          ("w", pa.int64())])
    d_schema = pa.schema([("node", pa.int64()), ("dist", pa.int64())])

    dist = rd.from_arrow(pa.table({
        "node": pa.array([source], pa.int64()),
        "dist": pa.array([0], pa.int64())})).materialize()
    frontier = dist

    for _ in range(max_iters):
        if frontier.count() == 0:
            break
        # candidates: frontier ⋈ edges on src -> (dst, dist + w)
        fe = exchange_join(
            (frontier, _projection([("node", "src"), ("dist", "fdist")])),
            e, on="src",
            left_schema=pa.schema([("src", pa.int64()),
                                   ("fdist", pa.int64())]),
            right_schema=e_schema,
            num_partitions=num_partitions)

        def cand(t: pa.Table) -> pa.Table:
            d = (t.column("fdist").to_numpy(zero_copy_only=False)
                 + t.column("w").to_numpy(zero_copy_only=False))
            return pa.table({"node": t.column("dst"),
                             "dist": pa.array(d, pa.int64())})

        cmin = exchange_agg((fe, cand),
                            "node", [("dist", "min", "dist")],
                            num_partitions=num_partitions)
        # strict improvements vs the running table
        probe = exchange_join(
            (cmin, _projection([("node", "node"), ("dist", "cdist")])),
            dist, on="node", how="left_outer",
            left_schema=pa.schema([("node", pa.int64()),
                                   ("cdist", pa.int64())]),
            right_schema=d_schema,
            num_partitions=num_partitions)

        def improved(t: pa.Table) -> pa.Table:
            c = t.column("cdist").to_numpy(zero_copy_only=False)
            isnull = t.column("dist").is_null().to_numpy(
                zero_copy_only=False)
            old = np.where(
                isnull, np.iinfo(np.int64).max,
                t.column("dist").fill_null(0).to_numpy(
                    zero_copy_only=False))
            keep = c < old
            return pa.table({"node": t.column("node").filter(pa.array(keep)),
                             "dist": pa.array(c[keep], pa.int64())})

        frontier = probe.map_batches(
            improved, batch_format="pyarrow").materialize()
        if frontier.count() == 0:
            break
        # min-merge: dist ∪ frontier -> per-node min
        dist = exchange_agg(
            [dist, frontier], "node", [("dist", "min", "dist")],
            num_partitions=min(num_partitions, 16))

    return dist


def hits(
    edges: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    iterations: int = 3,
    num_partitions: int = 32,
) -> rd.Dataset:
    """HITS hubs & authorities (Kleinberg 1999) over a directed graph,
    L1-normalized per half-step (sum-to-1 instead of the classical L2 —
    same fixed-point direction, division-only arithmetic so the DuckDB
    oracle replays it with the identical float expression shapes).

    ``auth(v) = Σ_{u→v} hub(u)`` then ``auth /= Σauth``;
    ``hub(u) = Σ_{u→v} auth(v)`` then ``hub /= Σhub``.  hub₀ = 1.0 on
    every distinct source node.  Output: ``(node, hub, auth)`` full
    outer over the two score tables, absent side = 0.0.

    Both orientations exchange ONCE into stationary hash partitions
    (stages/bsp.py::hits_bsp — the pagerank/CC/LPA pattern); per
    half-step only O(nodes) score rows move and the L1 normalizer is
    O(num_parts) driver scalars.
    """
    if iterations < 1:
        raise ValueError("hits: iterations must be >= 1 (the auth pass "
                         "defines the output)")
    from .exchange import exchange_agg
    from .bsp import hits_bsp

    e = exchange_agg(edges, [src_col, dst_col])
    eo = e.map_batches(
        lambda t: pa.table({"node": t.column(src_col).cast(pa.int64()),
                            "_o": t.column(dst_col).cast(pa.int64())}),
        batch_format="pyarrow").materialize()
    ei = eo.map_batches(
        lambda t: pa.table({"node": t.column("_o"),
                            "_o": t.column("node")}),
        batch_format="pyarrow").materialize()
    hub_ds, auth_ds = hits_bsp(eo, ei, iterations=iterations,
                               num_parts=min(num_partitions, 16))
    return _hits_merge(hub_ds, auth_ds, num_partitions)


def _hits_merge(hub: rd.Dataset, auth: rd.Dataset,
                num_partitions: int) -> rd.Dataset:
    """Full outer merge of the (node, s) hub/auth score tables into
    (node, hub, auth); absent side = 0.0."""
    from .exchange import exchange_join

    merged = exchange_join(
        hub.map_batches(lambda t: pa.table(
            {"node": t.column("node"), "hub": t.column("s")}),
            batch_format="pyarrow"),
        auth.map_batches(lambda t: pa.table(
            {"node": t.column("node"), "auth": t.column("s")}),
            batch_format="pyarrow"),
        on="node", how="full_outer", num_partitions=num_partitions,
        left_schema=pa.schema([("node", pa.int64()),
                               ("hub", pa.float64())]),
        right_schema=pa.schema([("node", pa.int64()),
                                ("auth", pa.float64())]))

    def finish(t: pa.Table) -> pa.Table:
        h = np.nan_to_num(t.column("hub").to_numpy(
            zero_copy_only=False).astype(np.float64), nan=0.0)
        a = np.nan_to_num(t.column("auth").to_numpy(
            zero_copy_only=False).astype(np.float64), nan=0.0)
        return pa.table({"node": t.column("node").cast(pa.int64()),
                         "hub": pa.array(h, pa.float64()),
                         "auth": pa.array(a, pa.float64())})

    return merged.map_batches(finish, batch_format="pyarrow")


def label_propagation(
    edges: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    iterations: int = 3,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Synchronous label propagation (Raghavan 2007, deterministic
    variant): community detection by iterated majority vote — each node
    adopts the most frequent label among its NEIGHBORS, ties to the
    smaller label, all nodes updating simultaneously.  Labels start as
    node ids.  Sync + min-tie makes every round a pure function of the
    previous labeling, so an unrolled SQL oracle replays it exactly
    (async variants are order-dependent and unreplayable).

    Output after ``iterations`` rounds: ``(node, lbl)``.

    The undirected edge set exchanges ONCE into stationary hash(nbr)
    partitions (stages/bsp.py::label_propagation_bsp — the pagerank/CC
    pattern); per round only O(nodes) label rows move, vote counts
    pre-reduced inside each task.
    """
    from .exchange import exchange_agg
    from .bsp import label_propagation_bsp

    e = exchange_agg(edges, [src_col, dst_col])
    und = e.map_batches(
        lambda t: pa.table({
            "node": pa.concat_arrays([
                t.column(src_col).cast(pa.int64()).combine_chunks(),
                t.column(dst_col).cast(pa.int64()).combine_chunks()]),
            "nbr": pa.concat_arrays([
                t.column(dst_col).cast(pa.int64()).combine_chunks(),
                t.column(src_col).cast(pa.int64()).combine_chunks()])}),
        batch_format="pyarrow")
    und = exchange_agg(und, ["node", "nbr"]).materialize()
    return label_propagation_bsp(und, iterations=iterations,
                                 num_parts=min(num_partitions, 16))


def _tarjan_scc(src: np.ndarray, dst: np.ndarray) -> dict:
    """Iterative Tarjan over an edge list: node -> min-member SCC label.
    Nodes are those appearing in edges."""
    from collections import defaultdict

    adj = defaultdict(list)
    nodes = set()
    for u, v in zip(src.tolist(), dst.tolist()):
        adj[u].append(v)
        nodes.add(u)
        nodes.add(v)
    index: dict = {}
    low: dict = {}
    onstk: set = set()
    stk: list = []
    comp: dict = {}
    c = 0
    for s in nodes:
        if s in index:
            continue
        index[s] = low[s] = c
        c += 1
        stk.append(s)
        onstk.add(s)
        frames = [(s, iter(adj[s]))]
        while frames:
            v, it = frames[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = c
                    c += 1
                    stk.append(w)
                    onstk.add(w)
                    frames.append((w, iter(adj[w])))
                    advanced = True
                    break
                elif w in onstk:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if advanced:
                continue
            frames.pop()
            if frames:
                p = frames[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
            if low[v] == index[v]:
                members = []
                while True:
                    w = stk.pop()
                    onstk.discard(w)
                    members.append(w)
                    if w == v:
                        break
                m = min(members)
                for w in members:
                    comp[w] = m
    return comp


def scc(
    edges: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    engine: str = "auto",
    driver_threshold: int = 1_000_000,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Strongly connected components of a DIRECTED graph; output
    ``(node, comp)`` with comp = the min member id (canonical).  Nodes
    are those appearing in edges (the CC convention here).

    Tiers (the pagerank/kcore pattern): ``driver`` — iterative Tarjan
    on collected edges, exact and LINEAR, below ``driver_threshold``
    edges (1M default — higher than pagerank's 200k because Tarjan is
    one pass with no iteration state to re-ship; ~150 MB transient
    adjacency at the limit.  The distributed tier's per-round exchange
    fan is worth paying only well beyond driver memory: measured 350s
    vs ~5s at 210k edges); ``distributed`` — the FW-BW coloring algorithm (Orzan 2004 /
    Fleischer et al.): per outer round (1) forward MAX-label fixpoint
    over active edges (``color(v)`` converges to the max node that
    reaches v — each inner round is one exchange_join + exchange_agg +
    changed-count scalar), (2) roots are nodes with ``color == self``;
    each root's SCC = backward reach from the root RESTRICTED to its
    color class (sound AND complete: any v→…→root path stays inside
    the class — a larger-colored node on it would recolor v), run as a
    frontier BFS with EXCEPT-visited exchanges; (3) peel and repeat.
    O(log) expected outer rounds on random graphs; the forward fixpoint
    is O(longest path) inner rounds on adversarial id orderings — the
    documented naive-propagation caveat (driver tier covers small
    pathological graphs; ``scc_outer_rounds``/``scc_fwd_rounds``
    counters surface behavior).
    """
    from .analytics import set_op_rows
    from .exchange import exchange_agg, exchange_join

    e = exchange_agg(
        edges.map_batches(
            lambda t: pa.table({
                "src": t.column(src_col).cast(pa.int64()),
                "dst": t.column(dst_col).cast(pa.int64())}),
            batch_format="pyarrow"),
        ["src", "dst"]).materialize()
    n_edges = e.count()

    if engine == "driver" or (engine == "auto"
                              and n_edges <= driver_threshold):
        df = e.to_pandas()
        comp = _tarjan_scc(df["src"].to_numpy(np.int64),
                           df["dst"].to_numpy(np.int64))
        out = pd.DataFrame(sorted(comp.items()),
                           columns=["node", "comp"])
        return rd.from_pandas(out.astype("int64"))

    ns = pa.schema([("node", pa.int64())])
    nodes = exchange_agg(
        e.map_batches(
            lambda t: pa.table({"node": pa.concat_arrays([
                t.column("src").combine_chunks(),
                t.column("dst").combine_chunks()])}),
            batch_format="pyarrow"),
        ["node"]).materialize()

    active = nodes
    assigned: list = []  # (node set, its (node, comp) projection)
    outer = 0
    while True:
        n_active = active.count()
        if n_active == 0:
            break
        outer += 1
        if outer > 10_000:
            raise RuntimeError("scc: outer rounds exceeded 10000")

        # ---- trim loop: any active node missing an incoming OR
        # outgoing ACTIVE edge is a singleton SCC (the standard FW-BW
        # bulk peel — on sparse random graphs this removes most nodes
        # per pass and collapses the outer-round count); iterate until
        # stable since each peel exposes the next layer of chains
        def _active_edges(act):
            a1 = exchange_join(
                e.map_batches(lambda t: pa.table(
                    {"node": t.column("src"), "_d": t.column("dst")}),
                    batch_format="pyarrow"),
                act, on="node", num_partitions=num_partitions,
                left_schema=pa.schema([("node", pa.int64()),
                                       ("_d", pa.int64())]),
                right_schema=ns)
            return exchange_join(
                a1.map_batches(lambda t: pa.table(
                    {"node": t.column("_d"), "_s": t.column("node")}),
                    batch_format="pyarrow"),
                act, on="node", num_partitions=num_partitions,
                left_schema=pa.schema([("node", pa.int64()),
                                       ("_s", pa.int64())]),
                right_schema=ns).map_batches(
                lambda t: pa.table({"src": t.column("_s"),
                                    "dst": t.column("node")}),
                batch_format="pyarrow").materialize()

        ae = _active_edges(active)
        while True:
            counters.incr({"scc_trim_rounds": 1})
            both = exchange_agg(ae.map_batches(
                lambda t: pa.table({"node": t.column("src")}),
                batch_format="pyarrow"), ["node"])
            both = set_op_rows(both, exchange_agg(ae.map_batches(
                lambda t: pa.table({"node": t.column("dst")}),
                batch_format="pyarrow"), ["node"]),
                cols=["node"], op="intersect",
                num_partitions=num_partitions).map_batches(
                lambda t: pa.table({"node": t.column("node").cast(
                    pa.int64())}), batch_format="pyarrow").materialize()
            trimmed = set_op_rows(active, both, cols=["node"],
                                  op="except",
                                  num_partitions=num_partitions
                                  ).map_batches(
                lambda t: pa.table({"node": t.column("node").cast(
                    pa.int64())}), batch_format="pyarrow").materialize()
            if trimmed.count() == 0:
                break
            assigned.append((trimmed, _projection([("node", "node"),
                                                   ("node", "comp")])))
            active = both
            if active.count() == 0:
                break
            ae = _active_edges(active)
        if active.count() == 0:
            break

        colors = active.map_batches(
            lambda t: pa.table({"node": t.column("node"),
                                "col": t.column("node")}),
            batch_format="pyarrow").materialize()
        c_schema = pa.schema([("node", pa.int64()),
                              ("col", pa.int64())])

        # ---- forward MAX-label fixpoint
        while True:
            counters.incr({"scc_fwd_rounds": 1})
            push = exchange_join(
                colors, ae.map_batches(
                    lambda t: pa.table({"node": t.column("src"),
                                        "_d": t.column("dst")}),
                    batch_format="pyarrow"),
                on="node", num_partitions=num_partitions,
                left_schema=c_schema,
                right_schema=pa.schema([("node", pa.int64()),
                                        ("_d", pa.int64())]))
            pushed = exchange_agg(
                push.map_batches(
                    lambda t: pa.table({"node": t.column("_d"),
                                        "pcol": t.column("col")}),
                    batch_format="pyarrow"),
                "node", [("pcol", "max", "pcol")],
                num_partitions=num_partitions)
            merged = exchange_join(
                colors, pushed, on="node", how="left_outer",
                num_partitions=num_partitions,
                left_schema=c_schema,
                right_schema=pa.schema([("node", pa.int64()),
                                        ("pcol", pa.int64())]))

            def upd(t: pa.Table) -> pa.Table:
                import pyarrow.compute as pac

                old = t.column("col").to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                # fill the unmatched-row null in ARROW int64 — a float64
                # round-trip would round hash-derived ids above 2^53
                # (review r5; exchange.merge_part documents the pitfall)
                pcv = pac.fill_null(t.column("pcol"),
                                    pa.scalar(np.iinfo(np.int64).min,
                                              pa.int64())) \
                    .to_numpy(zero_copy_only=False).astype(np.int64)
                new = np.maximum(old, pcv)
                return pa.table({
                    "node": t.column("node"),
                    "col": pa.array(new, pa.int64()),
                    "_chg": pa.array((new != old).astype(np.int64),
                                     pa.int64())})

            nc = merged.map_batches(upd,
                                    batch_format="pyarrow").materialize()
            changed = int(sum(
                r["c"] for r in nc.map_batches(
                    lambda t: pa.table({"c": pa.array([int(
                        t.column("_chg").to_numpy(
                            zero_copy_only=False).sum())])}),
                    batch_format="pyarrow").take_all()))
            colors = nc.drop_columns(["_chg"]).materialize()
            if changed == 0:
                break

        # ---- backward reach from roots within their color class
        roots = colors.map_batches(
            lambda t: t.filter(pa.compute.equal(t.column("col"),
                                                t.column("node"))),
            batch_format="pyarrow").materialize()
        visited = roots
        frontier = roots
        rae = ae.map_batches(
            lambda t: pa.table({"node": t.column("dst"),
                                "_s": t.column("src")}),
            batch_format="pyarrow").materialize()
        while frontier.count() > 0:
            cand = exchange_join(
                frontier, rae, on="node",
                num_partitions=num_partitions,
                left_schema=c_schema,
                right_schema=pa.schema([("node", pa.int64()),
                                        ("_s", pa.int64())]))
            cand2 = exchange_join(
                cand.map_batches(
                    lambda t: pa.table({"node": t.column("_s"),
                                        "rcol": t.column("col")}),
                    batch_format="pyarrow"),
                colors, on="node", num_partitions=num_partitions,
                left_schema=pa.schema([("node", pa.int64()),
                                       ("rcol", pa.int64())]),
                right_schema=c_schema).map_batches(
                lambda t: t.filter(pa.compute.equal(
                    t.column("rcol"), t.column("col"))).select(
                    ["node", "col"]),
                batch_format="pyarrow")
            cand2 = exchange_agg(cand2, ["node", "col"])
            new = set_op_rows(cand2, visited, cols=["node", "col"],
                              op="except",
                              num_partitions=num_partitions
                              ).map_batches(
                lambda t: pa.table({"node": t.column("node").cast(
                    pa.int64()), "col": t.column("col").cast(
                    pa.int64())}),
                batch_format="pyarrow").materialize()
            if new.count() == 0:
                break
            visited = exchange_agg([visited, new],
                                   ["node", "col"]).map_batches(
                lambda t: pa.table({"node": t.column("node").cast(
                    pa.int64()), "col": t.column("col").cast(
                    pa.int64())}),
                batch_format="pyarrow").materialize()
            frontier = new

        assigned.append((visited, _projection([("node", "node"),
                                               ("col", "comp")])))
        active = set_op_rows(
            active, visited.select_columns(["node"]), cols=["node"],
            op="except", num_partitions=num_partitions).map_batches(
            lambda t: pa.table({"node": t.column("node").cast(
                pa.int64())}),
            batch_format="pyarrow").materialize()

    counters.incr({"scc_outer_rounds": outer})
    # every trim and peel round's (materialized) node set is one source
    # of the two exchanges below, labelled comp in their split tasks; a
    # round can assign nothing, and none assigned means an empty graph:
    # typed empty result
    out = [(v, fn) for v, fn in assigned if v.count() > 0]
    if not out:
        return rd.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "comp": pa.array([], pa.int64())}))
    # canonicalize comp labels to the min member
    mins = exchange_agg(out, "comp", [("node", "min", "mn")],
                        num_partitions=num_partitions)
    final = exchange_join(
        out, mins, on="comp", num_partitions=num_partitions,
        left_schema=pa.schema([("node", pa.int64()),
                               ("comp", pa.int64())]),
        right_schema=pa.schema([("comp", pa.int64()),
                                ("mn", pa.int64())]))
    return final.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "comp": t.column("mn")}),
        batch_format="pyarrow")


def _cap_hub_degrees(degz: rd.Dataset, deg_col: str, cap: int,
                     counter_prefix: str) -> Blocks:
    """Drop hub rows with ``deg_col > cap`` from a per-z degree table,
    incrementing ``{prefix}_capped_z`` (hub count) and
    ``{prefix}_capped_wedges`` (deg*(deg-1)/2 wedge mass avoided) — the
    repo's no-silent-caps convention (see stages/dedup.py max_bucket).
    One raw task per block (``bsp.map_blocks``), its counts returned
    with the block."""
    capv = pa.scalar(int(cap), pa.int64())

    def flt(t: pa.Table) -> pa.Table:
        over = pc.greater(t.column(deg_col), capv)
        n_over = pc.sum(over.cast(pa.int64())).as_py() or 0
        if n_over:
            d = t.filter(over).column(deg_col).to_numpy(
                zero_copy_only=False).astype(np.int64)
            counters.incr({f"{counter_prefix}_capped_z": int(n_over),
                           f"{counter_prefix}_capped_wedges":
                               int((d * (d - 1) // 2).sum())})
        return t.filter(pc.invert(over))

    return map_blocks(degz, flt)


def common_neighbors(
    edges: rd.Dataset,
    *,
    a_col: str = "src",
    z_col: str = "dst",
    min_common: int = 2,
    max_wedge_degree: int | None = 10_000,
    num_partitions: int = 32,
    out_a: str = "a",
    out_b: str = "b",
    out_count: str = "common",
) -> rd.Dataset:
    """Common-neighbor pair counts over a bipartite edge table ``(a, z)``:
    pairs ``(a, b)``, ``a < b``, sharing >= ``min_common`` distinct z's.
    The projection step of co-occurrence similarity / co-purchase graphs.

    Scale shape: distinct edges -> per-z degree -> hub cap (drop z's with
    deg > ``max_wedge_degree`` BEFORE the wedge explode; counted as
    ``commonnb_capped_z`` / ``commonnb_capped_wedges``, same convention as
    ``link_prediction``) -> semi-join edges to surviving z's -> self
    ``exchange_join`` on z -> ``a < b`` filter -> per-pair
    ``exchange_agg`` count -> threshold.  O(sum deg(z)^2) bounded by
    cap^2 per z.  SQL oracles replay the cap with
    ``HAVING count(*) <= cap`` on the z-degree CTE.
    """
    from .exchange import exchange_agg, exchange_join

    e = exchange_agg(
        _project(edges, [(a_col, "a"), (z_col, "z")]),
        ["a", "z"]).materialize()
    es = pa.schema([("z", pa.int64()), ("a", pa.int64())])
    if max_wedge_degree is not None:
        degz = _cap_hub_degrees(
            exchange_agg(e, "z", [("a", "count", "degz")],
                         num_partitions=num_partitions),
            "degz", int(max_wedge_degree), "commonnb")
        # semi-join: keep only edges whose z survived the cap (the degz
        # payload rides along and is dropped in the projection below)
        e = exchange_join(
            e, degz, on="z", num_partitions=num_partitions,
            left_schema=es,
            right_schema=pa.schema([("z", pa.int64()),
                                    ("degz", pa.int64())]))
    pairs = exchange_join(
        _project(e, [("z", "z"), ("a", "a")]),
        _project(e, [("z", "z"), ("a", "b")]),
        on="z", num_partitions=num_partitions,
        left_schema=pa.schema([("z", pa.int64()), ("a", pa.int64())]),
        right_schema=pa.schema([("z", pa.int64()), ("b", pa.int64())]))

    def lt(t: pa.Table) -> pa.Table:
        f = t.filter(pc.less(t.column("a"), t.column("b")))
        return pa.table({out_a: f.column("a"), out_b: f.column("b")})

    cnt = exchange_agg(pairs.map_batches(lt, batch_format="pyarrow"),
                       [out_a, out_b], [(out_b, "count", out_count)],
                       num_partitions=num_partitions)
    mc = pa.scalar(int(min_common), pa.int64())
    return cnt.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column(out_count), mc)),
        batch_format="pyarrow")


def link_prediction(
    edges: rd.Dataset,
    *,
    a_col: str = "src",
    z_col: str = "dst",
    min_common: int = 2,
    max_wedge_degree: int | None = 10_000,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Common-neighbor link-prediction scores (Adamic–Adar and
    resource-allocation indices, Liben-Nowell & Kleinberg 2003) for
    candidate node pairs ``(a, b)`` that share >= ``min_common``
    neighbors ``z`` in the bipartite-style edge table ``(a, z)``:

        AA(a,b) = sum_z 1/ln(deg(z)),   RA(a,b) = sum_z 1/deg(z)

    where ``deg(z)`` counts DISTINCT a-side nodes adjacent to ``z`` (so
    any z contributing to a pair has deg >= 2 and ln(deg) > 0).

    Scale shape: distinct-edge pass (``exchange_agg`` distinct) ->
    per-z degree (``exchange_agg`` count) -> hub cap (below) -> one
    ``exchange_join`` attaching deg(z) to edges -> self ``exchange_join``
    on z exploding wedges (the documented O(sum deg(z)^2) cost) ->
    per-pair ``exchange_agg`` sums.  Per-row float terms 1/ln(deg) and
    1/deg are computed vectorized inside the map; only the pair sums are
    float — callers round before comparing across engines (sum order is
    partition-dependent).

    ``max_wedge_degree`` (default 10,000) drops hub z's whose degree
    exceeds the cap BEFORE the wedge explode — one celebrity node with
    deg 10^6 would otherwise materialize ~5*10^11 wedge rows.  Dropped
    hubs are COUNTED, never silent: ``linkpred_capped_z`` (hubs) and
    ``linkpred_capped_wedges`` (deg*(deg-1)/2 wedge mass they would have
    produced).  A capped hub contributes 1/ln(deg)->0 per wedge anyway,
    so AA/RA scores degrade gracefully; pass ``None`` for exact-recall.
    Callers with an SQL oracle replay the cap as
    ``WHERE degz <= max_wedge_degree`` in the wedge CTE.
    """
    from .exchange import exchange_agg, exchange_join, join_out_schema

    e = exchange_agg(
        _project(edges, [(a_col, "a"), (z_col, "z")]),
        ["a", "z"]).materialize()
    es = pa.schema([("a", pa.int64()), ("z", pa.int64())])
    degz = exchange_agg(e, "z", [("a", "count", "degz")],
                        num_partitions=num_partitions)
    if max_wedge_degree is not None:
        degz = _cap_hub_degrees(degz, "degz", int(max_wedge_degree),
                                "linkpred")
    ds_deg = pa.schema([("z", pa.int64()), ("degz", pa.int64())])
    ew = exchange_join(e, degz, on="z", num_partitions=num_partitions,
                       left_schema=es, right_schema=ds_deg)
    ew_schema = join_out_schema(es, ds_deg, "z")
    # wedge explode: pairs (a, b) sharing z, carrying deg(z) once per z
    right = _project(ew, [("z", "z"), ("a", "b")])
    rs = pa.schema([("z", pa.int64()), ("b", pa.int64())])
    wedges = exchange_join(ew, right, on="z",
                           num_partitions=num_partitions,
                           left_schema=ew_schema, right_schema=rs)

    def score_terms(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        keep = a < b
        a, b = a[keep], b[keep]
        d = t.column("degz").to_numpy(zero_copy_only=False)[keep]
        d = d.astype(np.float64)
        return pa.table({
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
            "aa": pa.array(1.0 / np.log(d), pa.float64()),
            "ra": pa.array(1.0 / d, pa.float64()),
            "c": pa.array(np.ones(len(a), np.int64)),
        })

    sums = exchange_agg(
        wedges.map_batches(score_terms, batch_format="pyarrow"),
        ["a", "b"],
        [("aa", "sum", "aa"), ("ra", "sum", "ra"), ("c", "sum", "common")],
        num_partitions=num_partitions)
    mc = pa.scalar(int(min_common), pa.int64())
    return sums.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("common"), mc)),
        batch_format="pyarrow")


def modularity(
    edges: rd.Dataset,
    labels: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    node_col: str = "node",
    lbl_col: str = "lbl",
    num_partitions: int = 32,
    broadcast_threshold: int = 2_000_000,
) -> rd.Dataset:
    """Newman modularity of a community assignment, reported as one row
    per community with INTEGER sufficient statistics (exact on any
    engine/partitioning) plus the per-community float term:

        (lbl, n_nodes, intra_edges, deg_sum, q_term)
        q_term = intra_edges/m - (deg_sum/(2m))^2,   Q = sum_c q_term

    over the undirected distinct edge set (self-loops dropped, each
    edge counted once with endpoints normalized lo < hi); ``m`` is the
    total undirected edge count and ``deg_sum`` counts both endpoints.

    Scale shape, two tiers on the LABEL-TABLE size (labels are O(nodes),
    the small side of the computation — edges never leave the cluster in
    either tier):

    * ``count(labels) <= broadcast_threshold`` (default 2M ≈ 32 MB of
      int64 pairs): the label table is collected once, sorted, and
      ``ray.put`` as two numpy arrays; ONE map pass over the distinct
      edge set looks both endpoint labels up via ``searchsorted`` and
      emits per-batch (lbl, intra, deg_sum) partials, unioned with the
      driver-computed per-community node counts, through ONE
      ``exchange_agg``.  Two exchanges total (the edge distinct + the
      final agg) instead of five.
    * above the threshold: edge normalize + distinct (one exchange),
      two chained ``exchange_join``s attaching both endpoint labels
      (static schemas — one fused plan), per-community count exchanges,
      and a final left_outer join of intra counts onto degree sums
      (communities with no internal edge get intra 0).

    Both tiers agree exactly whenever every labeled node appears in the
    edge set (always true for labels produced by LPA/CC over the same
    edges — engine-parity tested): an edge with an unlabeled endpoint
    still counts toward ``m`` and toward the labeled endpoint's degree,
    and is intra only when both labels exist and match.  The one
    divergence outside that contract: the broadcast tier counts
    isolated labeled nodes into ``n_nodes`` (they have deg 0 and
    contribute 0 to Q) while the exchange tier omits them — the
    broadcast tier reads community sizes off the already-collected
    label table instead of paying a third exchange.  ``m`` is the only
    driver scalar.
    """
    from .exchange import exchange_agg, exchange_join

    def norm(t: pa.Table) -> pa.Table:
        s = t.column(src_col).cast(pa.int64())
        d = t.column(dst_col).cast(pa.int64())
        lo = pc.min_element_wise(s, d)
        hi = pc.max_element_wise(s, d)
        keep = pc.not_equal(lo, hi)
        return pa.table({"lo": lo.filter(keep), "hi": hi.filter(keep)})

    e0 = exchange_agg(edges.map_batches(norm, batch_format="pyarrow"),
                      ["lo", "hi"]).materialize()
    m = e0.count()
    if m == 0:
        return rd.from_arrow(pa.table({
            "lbl": pa.array([], pa.int64()),
            "n_nodes": pa.array([], pa.int64()),
            "intra_edges": pa.array([], pa.int64()),
            "deg_sum": pa.array([], pa.int64()),
            "q_term": pa.array([], pa.float64())}))

    lab = _project(labels, [(node_col, "node"), (lbl_col, "lbl")])

    if labels.count() <= broadcast_threshold:
        lab_df = lab.to_pandas()
        nodes_sorted = np.sort(lab_df["node"].to_numpy(np.int64))
        order = np.argsort(lab_df["node"].to_numpy(np.int64), kind="stable")
        lbls_sorted = lab_df["lbl"].to_numpy(np.int64)[order]
        ref = ray.put((nodes_sorted, lbls_sorted))

        def _lookup(keys: np.ndarray, nodes: np.ndarray,
                    lbls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            idx = np.searchsorted(nodes, keys)
            idx_c = np.minimum(idx, len(nodes) - 1)
            ok = nodes[idx_c] == keys
            return lbls[idx_c], ok

        def edge_partials(t: pa.Table) -> pa.Table:
            nodes, lbls = ray.get(ref)
            lo = t.column("lo").to_numpy(zero_copy_only=False)
            hi = t.column("hi").to_numpy(zero_copy_only=False)
            ll, ok_l = _lookup(lo, nodes, lbls)
            lh, ok_h = _lookup(hi, nodes, lbls)
            # degree: every labeled endpoint contributes 1 to its community
            deg_lbls = np.concatenate([ll[ok_l], lh[ok_h]])
            u_deg, c_deg = np.unique(deg_lbls, return_counts=True)
            # intra: both endpoints labeled AND labels equal
            both = ok_l & ok_h & (ll == lh)
            u_in, c_in = np.unique(ll[both], return_counts=True)
            in_map = np.zeros(len(u_deg), np.int64)
            pos = np.searchsorted(u_deg, u_in)
            in_map[pos] = c_in  # every intra lbl also has degree rows
            return pa.table({
                "lbl": pa.array(u_deg, pa.int64()),
                "intra_edges": pa.array(in_map, pa.int64()),
                "deg_sum": pa.array(c_deg, pa.int64()),
                "n_nodes": pa.array(np.zeros(len(u_deg), np.int64)),
            })

        u_nodes, c_nodes = np.unique(lbls_sorted, return_counts=True)
        node_rows = rd.from_arrow(pa.table({
            "lbl": pa.array(u_nodes, pa.int64()),
            "intra_edges": pa.array(np.zeros(len(u_nodes), np.int64)),
            "deg_sum": pa.array(np.zeros(len(u_nodes), np.int64)),
            "n_nodes": pa.array(c_nodes, pa.int64()),
        }))
        folded = exchange_agg(
            [(e0, edge_partials), node_rows],
            "lbl",
            [("intra_edges", "sum", "intra_edges"),
             ("deg_sum", "sum", "deg_sum"),
             ("n_nodes", "sum", "n_nodes")],
            num_partitions=num_partitions)

        def bc_finalize(t: pa.Table, m_total: int = m) -> pa.Table:
            intra_v = t.column("intra_edges").to_numpy(zero_copy_only=False)
            degs = t.column("deg_sum").to_numpy(zero_copy_only=False)
            mm = float(m_total)
            q = intra_v / mm - (degs / (2.0 * mm)) ** 2
            return pa.table({
                "lbl": t.column("lbl"),
                "n_nodes": t.column("n_nodes"),
                "intra_edges": t.column("intra_edges"),
                "deg_sum": t.column("deg_sum"),
                "q_term": pa.array(q, pa.float64())})

        return folded.map_batches(bc_finalize, batch_format="pyarrow")

    l_schema = pa.schema([("node", pa.int64()), ("lbl", pa.int64())])
    e_schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64())])

    # attach both endpoint labels via two chained joins
    j1 = exchange_join(
        _project(e0, [("lo", "node"), ("hi", "hi")]),
        lab, on="node", num_partitions=num_partitions,
        left_schema=pa.schema([("node", pa.int64()), ("hi", pa.int64())]),
        right_schema=l_schema)
    j2 = exchange_join(
        _project(j1, [("hi", "node"), ("lbl", "lbl_a")]),
        lab, on="node", num_partitions=num_partitions,
        left_schema=pa.schema([("node", pa.int64()),
                               ("lbl_a", pa.int64())]),
        right_schema=l_schema)

    def intra_rows(t: pa.Table) -> pa.Table:
        keep = pc.equal(t.column("lbl_a"), t.column("lbl"))
        f = t.filter(keep)
        return pa.table({"lbl": f.column("lbl"),
                         "one": pa.array(np.ones(f.num_rows, np.int64))})

    intra = exchange_agg(
        j2.map_batches(intra_rows, batch_format="pyarrow"),
        "lbl", [("one", "sum", "intra_edges")],
        num_partitions=num_partitions)

    # degree per node (both endpoints), then per community
    und = e0.map_batches(
        lambda t: pa.table({"node": pa.concat_arrays([
            t.column("lo").combine_chunks(),
            t.column("hi").combine_chunks()])}),
        batch_format="pyarrow")
    deg = exchange_agg(
        und.map_batches(
            lambda t: t.append_column(
                "one", pa.array(np.ones(t.num_rows, np.int64))),
            batch_format="pyarrow"),
        "node", [("one", "sum", "deg")], num_partitions=num_partitions)
    degl = exchange_join(
        deg, lab, on="node", num_partitions=num_partitions,
        left_schema=pa.schema([("node", pa.int64()), ("deg", pa.int64())]),
        right_schema=l_schema)
    stats = exchange_agg(
        degl.map_batches(
            lambda t: pa.table({"lbl": t.column("lbl"),
                                "deg": t.column("deg"),
                                "one": pa.array(np.ones(t.num_rows,
                                                        np.int64))}),
            batch_format="pyarrow"),
        "lbl", [("deg", "sum", "deg_sum"), ("one", "sum", "n_nodes")],
        num_partitions=num_partitions)

    joined = exchange_join(
        stats, intra, on="lbl", how="left_outer",
        num_partitions=num_partitions,
        left_schema=pa.schema([("lbl", pa.int64()),
                               ("deg_sum", pa.int64()),
                               ("n_nodes", pa.int64())]),
        right_schema=pa.schema([("lbl", pa.int64()),
                                ("intra_edges", pa.int64())]))

    def finalize(t: pa.Table, m_total: int = m) -> pa.Table:
        intra_v = t.column("intra_edges").fill_null(0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        degs = t.column("deg_sum").to_numpy(zero_copy_only=False)
        mm = float(m_total)
        q = intra_v / mm - (degs / (2.0 * mm)) ** 2
        return pa.table({
            "lbl": t.column("lbl"),
            "n_nodes": t.column("n_nodes"),
            "intra_edges": pa.array(intra_v, pa.int64()),
            "deg_sum": t.column("deg_sum"),
            "q_term": pa.array(q, pa.float64())})

    return joined.map_batches(finalize, batch_format="pyarrow")


def bfs_prepare_edges(
    edges: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
) -> rd.Dataset:
    """Distinct (node, _nxt) int64 edge table, materialized — the
    shared preparation for :func:`multi_source_bfs` sweeps (one
    distinct exchange reused across sweeps over the same graph)."""
    from .exchange import exchange_agg

    return exchange_agg(
        edges.map_batches(
            lambda t: pa.table({
                "node": t.column(src_col).cast(pa.int64()),
                "_nxt": t.column(dst_col).cast(pa.int64())}),
            batch_format="pyarrow"),
        ["node", "_nxt"]).materialize()


def multi_source_bfs(
    edges: rd.Dataset,
    seeds: list[int],
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    k: int = 3,
    num_partitions: int = 32,
    driver_max_edges: int = 2_000_000,
    prepared: rd.Dataset | None = None,
) -> rd.Dataset:
    """Per-seed BFS levels: every ``(seed, node, level)`` with node
    reachable from that seed within ``k`` directed hops, level = FIRST
    reach (0 = the seed itself) — ``analytics.khop_reach`` generalized
    to tracked provenance, the primitive under closeness/eccentricity
    readouts.

    Same iterated-frontier shape as khop_reach: the edge table is
    exchanged/materialized ONCE; per level one ``exchange_join`` of the
    (seed, node) frontier against it, a pair distinct, an EXCEPT
    against the visited pair set (shuffle set-op, never a broadcast),
    and a union into visited.  Frontier rows carry only (seed, node) —
    all-to-all volume per level is the surviving pair set, bounded by
    |seeds| x |nodes|.  ``seeds`` is the bounded driver-side list by
    design (closeness from a handful of landmarks; full all-pairs BFS
    is a different algorithm).

    ``prepared``: the materialized distinct (node, _nxt) edge table
    from :func:`bfs_prepare_edges` — callers issuing several sweeps
    over the SAME graph (diameter's double sweep, landmark closeness)
    pass it so the distinct exchange runs once, not per sweep.
    """
    from .analytics import set_op_rows
    from .exchange import exchange_agg, exchange_join

    e_keyed = (prepared if prepared is not None
               else bfs_prepare_edges(edges, src_col=src_col,
                                      dst_col=dst_col))

    # driver tier (same rule as pagerank/scc): BFS is ~12 executor
    # rounds of fixed plan-spinup cost at k=6 x 2 sweeps, which dwarfs
    # the actual frontier work on graphs whose distinct edge table fits
    # the driver — measured 8.6s distributed vs <1.5s here at 1.2M
    # edges (graph_diameter, sf0.1).  The distributed tier above the
    # threshold is unchanged and parity-tested.
    if e_keyed.count() <= driver_max_edges:
        ed = e_keyed.to_pandas()
        src = ed["node"].to_numpy(np.int64)
        dst = ed["_nxt"].to_numpy(np.int64)
        order = np.argsort(src, kind="mergesort")
        src, dst = src[order], dst[order]
        rows: list[pd.DataFrame] = []
        for seed in sorted(set(int(s) for s in seeds)):
            level = {seed: 0}
            frontier = np.asarray([seed], np.int64)
            for lvl in range(1, k + 1):
                lo = np.searchsorted(src, frontier, side="left")
                hi = np.searchsorted(src, frontier, side="right")
                cnt = hi - lo
                if cnt.sum() == 0:
                    break
                # flat gather of every frontier node's adjacency slice
                flat = (np.repeat(lo, cnt)
                        + (np.arange(int(cnt.sum()))
                           - np.repeat(np.cumsum(cnt) - cnt, cnt)))
                nxt = np.unique(dst[flat])
                new = np.asarray([n for n in nxt if n not in level],
                                 np.int64)
                if len(new) == 0:
                    break
                for n in new:
                    level[int(n)] = lvl
                frontier = new
            nodes = np.fromiter(level.keys(), np.int64, len(level))
            lvls = np.fromiter(level.values(), np.int64, len(level))
            rows.append(pd.DataFrame({
                "seed": np.full(len(nodes), seed, np.int64),
                "node": nodes, "level": lvls}))
        out = (pd.concat(rows, ignore_index=True) if rows
               else pd.DataFrame({"seed": pd.Series(dtype="int64"),
                                  "node": pd.Series(dtype="int64"),
                                  "level": pd.Series(dtype="int64")}))
        return rd.from_pandas(out)

    es = pa.schema([("node", pa.int64()), ("_nxt", pa.int64())])
    fs = pa.schema([("seed", pa.int64()), ("node", pa.int64())])

    # block types must stay UNIFORM through the unions below (mixing
    # pandas and arrow blocks trips Ray's batcher) — exchange_agg /
    # set_op_rows emit Arrow blocks, so the seed frontier is Arrow too
    sarr = np.asarray(sorted(set(int(s) for s in seeds)), np.int64)
    frontier = rd.from_arrow(pa.table({"seed": sarr, "node": sarr}))

    def stamp(level: int):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "seed": b["seed"].astype("int64"),
                "node": b["node"].astype("int64"),
                "level": np.full(len(b), level, np.int64)})
        return fn

    levels = [frontier.map_batches(stamp(0), batch_format="pandas")]
    visited = frontier
    for lvl in range(1, k + 1):
        nb = exchange_join(
            frontier.map_batches(
                lambda t: pa.table({
                    "node": t.column("node").cast(pa.int64()),
                    "seed": t.column("seed").cast(pa.int64())}),
                batch_format="pyarrow"),
            e_keyed, on="node", num_partitions=num_partitions,
            left_schema=pa.schema([("node", pa.int64()),
                                   ("seed", pa.int64())]),
            right_schema=es)
        nb = exchange_agg(
            nb.map_batches(
                lambda t: pa.table({"seed": t.column("seed"),
                                    "node": t.column("_nxt")}),
                batch_format="pyarrow"),
            ["seed", "node"])
        new = set_op_rows(nb, visited, cols=["seed", "node"],
                          op="except",
                          num_partitions=num_partitions).materialize()
        if new.count() == 0:
            break
        levels.append(new.map_batches(stamp(lvl), batch_format="pandas"))
        visited = exchange_agg([visited, new], ["seed", "node"])
        frontier = new
    out = levels[0]
    for p in levels[1:]:
        out = out.union(p)
    return out


def closeness_from_seeds(
    edges: rd.Dataset,
    seeds: list[int],
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    k: int = 3,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Landmark closeness centrality: for each seed, the harmonic-free
    classic readout over its ``<= k``-hop reach —

        (seed, n_reached, sum_dist, closeness = n_reached / sum_dist)

    where n_reached counts nodes at level >= 1 and sum_dist sums their
    first-reach levels (a seed reaching nothing gets closeness 0).
    Built on :func:`multi_source_bfs` + one combiner-backed
    ``exchange_agg`` per seed — the sampled stand-in for exact
    closeness at graph sizes where all-pairs BFS is off the table.
    """
    from .exchange import exchange_agg

    bfs = multi_source_bfs(edges, seeds, src_col=src_col,
                           dst_col=dst_col, k=k,
                           num_partitions=num_partitions)

    def reached(t: pa.Table) -> pa.Table:
        # keep level-0 rows (they contribute 0 to both sums) so every
        # seed has a group and a no-reach seed emits closeness 0
        lv = t.column("level").to_numpy(zero_copy_only=False)
        return pa.table({
            "seed": t.column("seed"),
            "one": pa.array((lv > 0).astype(np.int64)),
            "level": t.column("level")})

    agg = exchange_agg(
        bfs.map_batches(reached, batch_format="pyarrow"),
        "seed", [("one", "sum", "n_reached"),
                 ("level", "sum", "sum_dist")],
        num_partitions=num_partitions)

    def finalize(t: pa.Table) -> pa.Table:
        n = t.column("n_reached").to_numpy(zero_copy_only=False)
        s = t.column("sum_dist").to_numpy(zero_copy_only=False)
        c = np.where(s > 0, n / np.maximum(s, 1).astype(np.float64), 0.0)
        return pa.table({
            "seed": t.column("seed"),
            "n_reached": t.column("n_reached"),
            "sum_dist": t.column("sum_dist"),
            "closeness": pa.array(c, pa.float64())})

    return agg.map_batches(finalize, batch_format="pyarrow")


def neighbor_agg(
    edges: rd.Dataset,
    emb: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    num_partitions: int = 32,
) -> rd.Dataset:
    """One round of GraphSAGE-style neighbor aggregation: for every
    destination node, the per-dimension MEAN of its in-neighbors'
    embedding vectors — the message-passing primitive under GNN feature
    propagation, supernode pooling and label-smoothing.

    Shape: ONE ``exchange_join`` attaches each edge's source embedding
    (vectors ride the exchange as Arrow lists, never exploded to d rows
    per edge); then a dst-hash exchange and a per-partition vectorized
    reduce — rows sort by dst once, vectors stack into a float64
    matrix, and ``np.add.reduceat`` sums every group in one C pass.
    Output is LONG (node, dim, val, n_neighbors): node-major vectors
    explode to d rows only at the final O(nodes x d) emit, which is the
    output's own size, not shuffle volume.
    """
    from .exchange import exchange_join, keyed_apply

    joined = exchange_join(
        edges.map_batches(
            lambda t: pa.table({
                id_col: t.column(src_col).cast(pa.int64()),
                "_dst": t.column(dst_col).cast(pa.int64())}),
            batch_format="pyarrow"),
        emb.map_batches(
            lambda t: pa.table({id_col: t.column(id_col).cast(pa.int64()),
                                emb_col: t.column(emb_col)}),
            batch_format="pyarrow"),
        on=id_col, num_partitions=num_partitions,
        left_schema=pa.schema([(id_col, pa.int64()),
                               ("_dst", pa.int64())]),
        right_schema=pa.schema([(id_col, pa.int64()),
                                (emb_col, pa.list_(pa.float32()))]))

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("_dst", kind="mergesort").reset_index(drop=True)
        m = np.stack([np.asarray(v, np.float64) for v in g[emb_col]])
        dst = g["_dst"].to_numpy(np.int64)
        starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
        counts = np.diff(np.r_[starts, len(dst)])
        sums = np.add.reduceat(m, starts, axis=0)
        mean = sums / counts[:, None]
        nodes = dst[starts]
        d = m.shape[1]
        return pd.DataFrame({
            "node": np.repeat(nodes, d),
            "dim": np.tile(np.arange(d, dtype=np.int64), len(nodes)),
            "val": mean.ravel(),
            "n_neighbors": np.repeat(counts.astype(np.int64), d)})

    return keyed_apply(joined, "_dst", per_part,
                       num_partitions=num_partitions)


def diameter_double_sweep(
    edges: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    k: int = 8,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Double-sweep BFS diameter lower bound (Magnien, Latapy & Habib
    2009) — the standard cheap estimator for "how wide is this graph"
    (two BFS traversals instead of all-pairs): sweep 1 runs BFS from
    the minimum-id node; the farthest node reached (max first-reach
    level, ties -> min node id) seeds sweep 2, whose eccentricity is
    the classic tight lower bound on the true diameter.

    Both sweeps are :func:`multi_source_bfs` (edge table exchanged and
    pinned once per sweep, frontier joins per level) with levels
    bounded at ``k`` — the bound is part of the contract (results are
    "within k hops", exact when the graph's true eccentricities fit).
    Start-node discovery and the farthest-pick are O(batches) driver
    folds over per-batch partials, never a full collect.  Emits ONE
    row: (start_node, ecc_start, far_node, diameter_lb).
    """
    from .exchange import exchange_agg

    prepared = bfs_prepare_edges(edges, src_col=src_col, dst_col=dst_col)
    lo = exchange_agg(
        prepared.map_batches(
            lambda t: pa.table({
                "_k": pa.array(np.zeros(2 * t.num_rows, np.int64)),
                "node": pa.concat_arrays([
                    t.column("node").combine_chunks(),
                    t.column("_nxt").combine_chunks()])}),
            batch_format="pyarrow"),
        "_k", [("node", "min", "start")], num_partitions=1).to_pandas()
    if lo.empty:
        raise ValueError("diameter_double_sweep: empty edge set")
    start = int(lo["start"].iloc[0])

    def _farthest(bfs: rd.Dataset) -> tuple[int, int]:
        # (max level, min node at that level) via per-batch partials
        part = bfs.map_batches(
            lambda b: (b.sort_values(["level", "node"],
                                     ascending=[False, True]).head(1)
                       [["node", "level"]]),
            batch_format="pandas").to_pandas()
        part = part.sort_values(["level", "node"],
                                ascending=[False, True])
        return int(part["node"].iloc[0]), int(part["level"].iloc[0])

    far, ecc1 = _farthest(multi_source_bfs(
        edges, [start], src_col=src_col, dst_col=dst_col, k=k,
        num_partitions=num_partitions, prepared=prepared))
    _far2, dlb = _farthest(multi_source_bfs(
        edges, [far], src_col=src_col, dst_col=dst_col, k=k,
        num_partitions=num_partitions, prepared=prepared))
    return rd.from_pandas(pd.DataFrame({
        "start_node": pd.Series([start], dtype="int64"),
        "ecc_start": pd.Series([ecc1], dtype="int64"),
        "far_node": pd.Series([far], dtype="int64"),
        "diameter_lb": pd.Series([dlb], dtype="int64")}))


def betweenness_from_seeds(
    edges: rd.Dataset,
    seeds: list[int],
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    k: int = 4,
    num_partitions: int = 32,
    driver_max_edges: int = 2_000_000,
    prepared: rd.Dataset | None = None,
) -> rd.Dataset:
    """Truncated (<= ``k``-hop) Brandes betweenness from a bounded
    seed set — the k-betweenness / source-sampled approximation
    (Brandes 2001; Bader et al. 2007 sampling), completing the
    centrality family beside pagerank/HITS/closeness.

    Forward: per level, path counts sigma accumulate over
    predecessor frontiers (BFS DAG).  Backward: Brandes dependency
    delta(v) = sum over successors w of sigma_v * (1 + delta_w) /
    sigma_w, accumulated level by level.  Each level's delta is
    quantized to INTEGER nano-units (rint(delta * 1e9) -> int64) in
    EVERY engine — driver, distributed, SQL replay — so float drift
    cannot compound across levels AND the final per-node sum over
    levels/seeds is integer-exact (a float sum of 1e-9 multiples
    lands ON a rounding boundary ~1/1000 of the time; summation
    order would then flip the last digit between engines).  bc(v) =
    that nano sum, for every node first reached at level >= 1.

    Two tiers (the multi_source_bfs rule): distinct edges <=
    ``driver_max_edges`` -> vectorized numpy BFS + dependency on the
    driver; above it, per-level (seed, node)-keyed exchange
    joins/aggs against the ONE materialized edge table — frontier
    rows carry (seed, node, sigma) only.  ``seeds`` is the bounded
    driver-side list by design.  Returns (node, bc_nano, bc) with
    bc = bc_nano / 1e9 (one exact division — identical bits in any
    engine).
    """
    from .exchange import exchange_agg, exchange_join

    e_keyed = (prepared if prepared is not None
               else bfs_prepare_edges(edges, src_col=src_col,
                                      dst_col=dst_col))
    sarr = np.asarray(sorted(set(int(s) for s in seeds)), np.int64)

    if e_keyed.count() <= driver_max_edges:
        ed = e_keyed.to_pandas()
        src = ed["node"].to_numpy(np.int64)
        dst = ed["_nxt"].to_numpy(np.int64)
        order = np.argsort(src, kind="mergesort")
        src, dst = src[order], dst[order]

        def adj(frontier: np.ndarray):
            lo = np.searchsorted(src, frontier, side="left")
            hi = np.searchsorted(src, frontier, side="right")
            cnt = hi - lo
            tot = int(cnt.sum())
            if tot == 0:
                return (np.empty(0, np.int64), np.empty(0, np.int64))
            flat = (np.repeat(lo, cnt)
                    + (np.arange(tot)
                       - np.repeat(np.cumsum(cnt) - cnt, cnt)))
            return dst[flat], np.repeat(
                np.arange(len(frontier), dtype=np.int64), cnt)

        bc: dict[int, int] = {}
        for seed in sarr:
            levels = [(np.asarray([seed], np.int64),
                       np.asarray([1], np.int64))]
            visited = np.asarray([seed], np.int64)
            for _lvl in range(1, k + 1):
                fnodes, fsig = levels[-1]
                tgt, fidx = adj(fnodes)
                if not len(tgt):
                    break
                keep = ~np.isin(tgt, visited)
                tgt, fidx = tgt[keep], fidx[keep]
                if not len(tgt):
                    break
                uniq, inv = np.unique(tgt, return_inverse=True)
                sig = np.zeros(len(uniq), np.int64)
                np.add.at(sig, inv, fsig[fidx])
                levels.append((uniq, sig))
                visited = np.concatenate([visited, uniq])
            deps = [np.zeros(len(n), np.int64) for n, _ in levels]
            for lvl in range(len(levels) - 2, -1, -1):
                vnodes, vsig = levels[lvl]
                wnodes, wsig = levels[lvl + 1]
                wdep = deps[lvl + 1]
                tgt, vidx = adj(vnodes)
                if len(tgt):
                    pos = np.searchsorted(wnodes, tgt)
                    pos_c = np.minimum(pos, len(wnodes) - 1)
                    ok = wnodes[pos_c] == tgt
                    c = (vsig[vidx[ok]]
                         * (1.0 + wdep[pos_c[ok]] / 1e9)
                         / wsig[pos_c[ok]])
                    d = np.zeros(len(vnodes), np.float64)
                    np.add.at(d, vidx[ok], c)
                    deps[lvl] = np.rint(d * 1e9).astype(np.int64)
            for lvl in range(1, len(levels)):
                for n, d in zip(levels[lvl][0], deps[lvl]):
                    bc[int(n)] = bc.get(int(n), 0) + int(d)
        nodes = np.asarray(sorted(bc), np.int64)
        nano = np.asarray([bc[int(n)] for n in nodes], np.int64)
        return rd.from_pandas(pd.DataFrame({
            "node": nodes, "bc_nano": nano, "bc": nano / 1e9}))

    # ---- distributed tier: per-level (seed,node)-keyed exchanges
    es = pa.schema([("node", pa.int64()), ("_nxt", pa.int64())])
    fsch = pa.schema([("seed", pa.int64()), ("node", pa.int64()),
                      ("sigma", pa.int64())])
    vsch = pa.schema([("seed", pa.int64()), ("node", pa.int64()),
                      ("_vis", pa.int8())])
    frontier = rd.from_arrow(pa.table({
        "seed": pa.array(sarr, pa.int64()),
        "node": pa.array(sarr, pa.int64()),
        "sigma": pa.array(np.ones(len(sarr), np.int64))})).materialize()
    def mark_visited(t: pa.Table) -> pa.Table:
        return pa.table({
            "seed": t.column("seed"), "node": t.column("node"),
            "_vis": pa.array(np.ones(t.num_rows, np.int8))})

    # the visited set is the union of every level so far: one source per
    # level, marked in the tasks that split its blocks
    visited = [(frontier, mark_visited)]
    levels = [frontier]
    for _lvl in range(1, k + 1):
        nb = exchange_join(frontier, e_keyed, on="node",
                           num_partitions=num_partitions,
                           left_schema=fsch, right_schema=es)
        cand = exchange_agg(
            (nb, _projection([("seed", "seed"), ("_nxt", "node"),
                              ("sigma", "sigma")])),
            ["seed", "node"], [("sigma", "sum", "sigma")],
            num_partitions=num_partitions)
        new = exchange_join(cand, visited, on=["seed", "node"],
                            how="left_outer",
                            num_partitions=num_partitions,
                            left_schema=fsch, right_schema=vsch)
        new = new.map_batches(
            lambda t: t.filter(pc.is_null(t.column("_vis")))
                       .select(["seed", "node", "sigma"]),
            batch_format="pyarrow").materialize()
        if new.count() == 0:
            break
        levels.append(new)
        visited.append((new, mark_visited))
        frontier = new

    def with_dep(lvl_ds: rd.Dataset) -> rd.Dataset:
        return lvl_ds.map_batches(
            lambda t: t.append_column(
                "dep_n", pa.array(np.zeros(t.num_rows, np.int64))),
            batch_format="pyarrow")

    deps: list[rd.Dataset | None] = [None] * len(levels)
    deps[-1] = with_dep(levels[-1]).materialize()
    for lvl in range(len(levels) - 2, -1, -1):
        nxt = (deps[lvl + 1], _projection([
            ("seed", "seed"), ("node", "_nxt"), ("sigma", "sigma_w"),
            ("dep_n", "dep_w")]))
        j1 = exchange_join(levels[lvl], e_keyed, on="node",
                           num_partitions=num_partitions,
                           left_schema=fsch, right_schema=es)
        j2 = exchange_join(
            (j1, _projection([("seed", "seed"), ("_nxt", "_nxt"),
                              ("node", "node"), ("sigma", "sigma")])),
            nxt, on=["seed", "_nxt"], num_partitions=num_partitions,
            left_schema=pa.schema([("seed", pa.int64()),
                                   ("_nxt", pa.int64()),
                                   ("node", pa.int64()),
                                   ("sigma", pa.int64())]),
            right_schema=pa.schema([("seed", pa.int64()),
                                    ("_nxt", pa.int64()),
                                    ("sigma_w", pa.int64()),
                                    ("dep_w", pa.int64())]))
        contrib = (j2, lambda t: pa.table({
            "seed": t.column("seed"),
            "node": t.column("node"),
            "c": pa.array(
                t.column("sigma").to_numpy(zero_copy_only=False)
                * (1.0 + t.column("dep_w")
                   .to_numpy(zero_copy_only=False) / 1e9)
                / t.column("sigma_w")
                .to_numpy(zero_copy_only=False), pa.float64())}))
        dsum = exchange_agg(contrib, ["seed", "node"],
                            [("c", "sum", "dep")],
                            num_partitions=num_partitions)
        dep_lvl = exchange_join(
            levels[lvl], dsum, on=["seed", "node"], how="left_outer",
            num_partitions=num_partitions, left_schema=fsch,
            right_schema=pa.schema([("seed", pa.int64()),
                                    ("node", pa.int64()),
                                    ("dep", pa.float64())]))
        deps[lvl] = dep_lvl.map_batches(
            lambda t: pa.table({
                "seed": t.column("seed"), "node": t.column("node"),
                "sigma": t.column("sigma"),
                "dep_n": pa.array(np.rint(np.nan_to_num(
                    t.column("dep").to_numpy(zero_copy_only=False)
                    .astype(np.float64)) * 1e9).astype(np.int64),
                    pa.int64())}),
            batch_format="pyarrow").materialize()
    if len(deps) == 1:
        return rd.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "bc_nano": pa.array([], pa.int64()),
            "bc": pa.array([], pa.float64())}))
    # every level past the seeds' own is one (materialized) source
    total = exchange_agg(
        [(d, _projection([("node", "node"), ("dep_n", "dep_n")]))
         for d in deps[1:]],
        "node", [("dep_n", "sum", "bc_nano")],
        num_partitions=num_partitions)
    return total.map_batches(
        lambda t: pa.table({
            "node": t.column("node"),
            "bc_nano": t.column("bc_nano"),
            "bc": pa.array(
                t.column("bc_nano").to_numpy(zero_copy_only=False)
                / 1e9, pa.float64())}),
        batch_format="pyarrow")


def degree_centralization(
    edges: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Freeman degree centralization (Freeman 1979) of an undirected
    graph: C = Σ_v (deg_max - deg_v) / ((n - 1)(n - 2)) — 0 for a
    ring/regular graph, 1 for a perfect star; the one-number
    "is this graph hub-dominated" readout beside the degree
    histogram.

    Edges are symmetrized INTERNALLY (both orientations emitted before
    the distinct), so the input may be one row per undirected edge OR
    already symmetric — degree = distinct neighbors per node either
    way (self-loops dropped).  Counting src-rows only would silently
    miss dst-only endpoints on unsymmetrized input (review r5).
    One distinct + one count exchange; the closing fold needs only
    (n, deg_max, deg_sum_deficit), reduced via a bounded
    per-partition partial — no degree table is collected.  Returns
    one row (n_nodes, n_edges, deg_max, centralization rounded 9dp).
    """
    from .exchange import exchange_agg

    def sym(t: pa.Table) -> pa.Table:
        f = t.filter(pc.not_equal(t.column(src_col), t.column(dst_col)))
        s = f.column(src_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        d = f.column(dst_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "node": pa.array(np.concatenate([s, d]), pa.int64()),
            "nbr": pa.array(np.concatenate([d, s]), pa.int64())})

    e = exchange_agg(
        edges.map_batches(sym, batch_format="pyarrow"),
        ["node", "nbr"]).materialize()
    deg = exchange_agg(
        e.map_batches(
            lambda b: pd.DataFrame({
                "node": b["node"].astype("int64"),
                "one": np.ones(len(b), np.int64)}),
            batch_format="pandas"),
        "node", [("one", "sum", "deg")],
        num_partitions=num_partitions)
    part = deg.map_batches(
        lambda t: pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "dsum": pa.array([int(t.column("deg")
                                  .to_numpy(zero_copy_only=False)
                                  .sum())] if t.num_rows else [0],
                             pa.int64()),
            "dmax": pa.array([int(t.column("deg")
                                  .to_numpy(zero_copy_only=False)
                                  .max())] if t.num_rows else [0],
                             pa.int64())}),
        batch_format="pyarrow").to_pandas()
    n = int(part["n"].sum())
    if n < 3:
        raise ValueError("degree_centralization: need >= 3 nodes")
    dsum = int(part["dsum"].sum())
    dmax = int(part["dmax"].max())
    cent = round((n * dmax - dsum) / ((n - 1.0) * (n - 2.0)), 9)
    return pd.DataFrame([{
        "n_nodes": np.int64(n),
        "n_edges": np.int64(dsum // 2),
        "deg_max": np.int64(dmax),
        "centralization": cent}])
