"""Tests for stages/graph.py (PageRank power iteration)."""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data as rd

from text_to_rdf_ray.stages.graph import pagerank


def _numpy_pagerank(edges, iterations, damping=0.85):
    nodes = sorted({s for s, _ in edges} | {d for _, d in edges})
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    outdeg = {}
    for s, _ in edges:
        outdeg[s] = outdeg.get(s, 0) + 1
    r = np.full(n, 1.0 / n)
    for _ in range(iterations):
        nr = np.full(n, (1.0 - damping) / n)
        for s, d in edges:
            nr[idx[d]] += damping * r[idx[s]] / outdeg[s]
        r = nr
    return dict(zip(nodes, r))


EDGES = [("A", "B"), ("A", "C"), ("B", "C"), ("C", "A"), ("D", "C"),
         ("D", "A"), ("E", "A")]


def test_pagerank_driver_path_matches_reference(ray_session):
    ds = rd.from_items([{"src": s, "dst": d} for s, d in EDGES]).repartition(3)
    out = pagerank(ds, iterations=5).to_pandas()
    want = _numpy_pagerank(EDGES, 5)
    got = dict(zip(out["node"], out["rank"]))
    assert set(got) == set(want)
    for k in want:
        assert abs(got[k] - want[k]) < 1e-12, k
    # dangling-in node E has only the base rank
    assert abs(got["E"] - 0.15 / 5) < 1e-12


def test_pagerank_distributed_parity(ray_session):
    """Forced distributed path (driver_threshold=0) must match the driver
    numpy path to float-sum noise."""
    rng = np.random.RandomState(11)
    edges = [("n%d" % rng.randint(0, 40), "n%d" % rng.randint(0, 40))
             for _ in range(300)]
    edges = sorted(set(edges))
    ds = rd.from_items([{"src": s, "dst": d} for s, d in edges]).repartition(7)
    dist = pagerank(ds, iterations=4, driver_threshold=0,
                    num_partitions=4).to_pandas()
    drv = pagerank(ds, iterations=4).to_pandas()
    m = dist.merge(drv, on="node", suffixes=("_d", "_l"))
    assert len(m) == len(drv) == len(dist)
    assert np.allclose(m["rank_d"], m["rank_l"], atol=1e-12)
    want = _numpy_pagerank(edges, 4)
    got = dict(zip(drv["node"], drv["rank"]))
    for k in want:
        assert abs(got[k] - want[k]) < 1e-12, k


def test_pagerank_multi_edges_each_contribute(ray_session):
    # A->B twice: outdeg(A)=2, both edges land on B
    edges = [("A", "B"), ("A", "B")]
    ds = rd.from_items([{"src": s, "dst": d} for s, d in edges])
    out = pagerank(ds, iterations=1, damping=0.85).to_pandas()
    got = dict(zip(out["node"], out["rank"]))
    # B gets full A mass: 0.075 + 0.85 * (0.5/2 + 0.5/2)
    assert abs(got["B"] - (0.15 / 2 + 0.85 * 0.5)) < 1e-12
    assert abs(got["A"] - 0.15 / 2) < 1e-12


def test_distinct_rows_matches_pandas(ray_session):
    from text_to_rdf_ray.stages.analytics import distinct_rows

    rng = np.random.RandomState(3)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y", "z"], 500),
        "b": rng.randint(0, 5, 500),
    })
    ds = rd.from_pandas(df).repartition(6)
    out = (distinct_rows(ds, cols=["a", "b"], num_partitions=8)
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    want = (df.drop_duplicates().sort_values(["a", "b"])
            .reset_index(drop=True))
    want["b"] = want["b"].astype(out["b"].dtype)
    assert out.equals(want)


def test_pagerank_empty_edges(ray_session):
    import pyarrow as pa

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = pagerank(empty, iterations=2)
    assert out.count() == 0
    # forced distributed path must also degrade to empty, not crash
    out_d = pagerank(empty, iterations=2, driver_threshold=0)
    assert out_d.count() == 0


def test_pagerank_engine_parity_bsp_vs_dataset(ray_session):
    """The forced BSP engine and the driver numpy tier must agree to
    float-sum noise on a multigraph (parallel edges each contribute)
    spread over 9 blocks, and both must match _numpy_pagerank."""
    rng = np.random.RandomState(23)
    edges = [("n%d" % rng.randint(0, 60), "n%d" % rng.randint(0, 60))
             for _ in range(400)]
    assert len(set(edges)) < len(edges)  # parallel edges present
    ds = rd.from_items([{"src": s, "dst": d} for s, d in edges]).repartition(9)
    bsp = pagerank(ds, iterations=4, driver_threshold=0,
                   num_partitions=4).to_pandas()
    drv = pagerank(ds, iterations=4).to_pandas()
    m = bsp.merge(drv, on="node", suffixes=("_b", "_d"))
    assert len(m) == len(bsp) == len(drv)
    assert np.allclose(m["rank_b"], m["rank_d"], atol=1e-12)
    want = _numpy_pagerank(edges, 4)
    got = dict(zip(bsp["node"], bsp["rank"]))
    assert set(got) == set(want)
    for k in want:
        assert abs(got[k] - want[k]) < 1e-12, k


def test_pagerank_bsp_single_partition(ray_session):
    """num_partitions=1 exercises the num_returns=1 fan-out special case
    in the BSP engine (Ray returns a bare ref, not a tuple)."""
    edges = [("A", "B"), ("B", "C"), ("C", "A"), ("A", "C")]
    ds = rd.from_items([{"src": s, "dst": d} for s, d in edges])
    got = pagerank(ds, iterations=3, driver_threshold=0,
                   num_partitions=1).to_pandas()
    want = _numpy_pagerank(edges, 3)
    g = dict(zip(got["node"], got["rank"]))
    assert all(abs(g[k] - want[k]) < 1e-12 for k in want)


def _brute_triangles(edges):
    """Per-node triangle counts by brute force over canonical edges."""
    import itertools

    e = {(min(a, b), max(a, b)) for a, b in edges if a != b}
    adj = {}
    for a, b in e:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    counts = {}
    for u, v, w in itertools.combinations(sorted(adj), 3):
        if v in adj[u] and w in adj[u] and w in adj[v]:
            for n in (u, v, w):
                counts[n] = counts.get(n, 0) + 1
    return counts


def test_triangle_count_matches_bruteforce(ray_session):
    from text_to_rdf_ray.stages.graph import triangle_count

    rng = np.random.RandomState(7)
    edges = [(int(rng.randint(0, 30)), int(rng.randint(0, 30)))
             for _ in range(180)]
    ds = rd.from_items([{"src": s, "dst": d} for s, d in edges]).repartition(5)
    out = triangle_count(ds, num_partitions=8).to_pandas()
    got = dict(zip(out["node"].astype(int), out["n_tri"].astype(int)))
    want = _brute_triangles(edges)
    assert got == want
    assert sum(got.values()) % 3 == 0


def test_triangle_count_direction_dupes_selfloops(ray_session):
    """Duplicate instances, reversed direction, and self-loops must not
    change the count: the operator canonicalizes + dedups first."""
    from text_to_rdf_ray.stages.graph import triangle_count

    base = [(1, 2), (2, 3), (1, 3), (3, 4)]
    noisy = base + [(b, a) for a, b in base] + base + [(1, 1), (4, 4)]
    ds = rd.from_items([{"src": s, "dst": d} for s, d in noisy])
    out = triangle_count(ds, num_partitions=4).to_pandas()
    got = dict(zip(out["node"].astype(int), out["n_tri"].astype(int)))
    assert got == {1: 1, 2: 1, 3: 1}


def test_triangle_count_no_triangles(ray_session):
    from text_to_rdf_ray.stages.graph import triangle_count

    # a path graph has zero triangles
    ds = rd.from_items([{"src": i, "dst": i + 1} for i in range(20)])
    out = triangle_count(ds, num_partitions=4)
    assert out.count() == 0


def test_triangle_tiers_parity(ray_session):
    """Broadcast-closing tier and shuffle tier must agree exactly."""
    from text_to_rdf_ray.stages.graph import triangle_count

    rng = np.random.RandomState(41)
    edges = [(int(rng.randint(0, 60)), int(rng.randint(0, 60)))
             for _ in range(400)]
    ds = rd.from_items([{"src": s, "dst": d} for s, d in edges]).repartition(5)
    bc = (triangle_count(ds, num_partitions=8).to_pandas()
          .sort_values("node").reset_index(drop=True))
    sh = (triangle_count(ds, num_partitions=8, broadcast_threshold=0)
          .to_pandas().sort_values("node").reset_index(drop=True))
    assert bc.equals(sh)
    assert dict(zip(bc["node"].astype(int), bc["n_tri"].astype(int))) \
        == _brute_triangles(edges)


def test_pairs_within_groups_chunked():
    from text_to_rdf_ray.stages.graph import _pairs_within_groups

    a = np.array([1, 1, 1, 1, 2, 3, 3, 5, 5, 5], np.int64)
    b = np.arange(10, dtype=np.int64)
    for chunk in (2, 3, 1000):
        got = [(int(b[f]), int(b[s]))
               for fs, ss in _pairs_within_groups(a, b, max_chunk_pairs=chunk)
               for f, s in zip(fs, ss)]
        want = [(i, j) for g in (range(0, 4), range(4, 5), range(5, 7),
                                 range(7, 10))
                for i in g for j in g if i < j]
        assert got == want, chunk
    assert list(_pairs_within_groups(np.array([], np.int64),
                                     np.array([], np.int64))) == []


def test_kcore_tiers_agree_and_counter(ray_session):
    """Driver numpy peel == forced distributed peel; rounds counted."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.graph import kcore
    from text_to_rdf_ray.state import counters

    rng = np.random.default_rng(23)
    # a dense clique (survives k=4) + a sparse halo (peels away in waves)
    clique = [(i, j) for i in range(8) for j in range(8) if i < j]
    halo = [(100 + i, rng.integers(0, 8)) for i in range(40)]
    chain = [(200 + i, 201 + i) for i in range(30)]
    df = pd.DataFrame(clique + halo + chain, columns=["src", "dst"]).astype(
        {"src": "int64", "dst": "int64"})
    ds = rd.from_pandas(df).repartition(3)

    counters.snapshot(reset=True)
    drv = (kcore(ds, k=4).to_pandas()
           .sort_values("node").reset_index(drop=True))
    r1 = counters.snapshot(reset=True).get("kcore_rounds")
    dist = (kcore(ds, k=4, max_driver_edges=0).to_pandas()
            .sort_values("node").reset_index(drop=True))
    r2 = counters.snapshot().get("kcore_rounds")
    pd.testing.assert_frame_equal(
        drv.astype("int64"), dist.astype("int64"))
    assert set(drv["node"]) == set(range(8))
    assert (drv["deg"] == 7).all()
    assert r1 and r2 and r1 >= 2 and r2 >= 2


def test_personalized_pagerank_matches_local(ray_session):
    import numpy as np
    import pandas as pd

    import ray.data as rd

    from text_to_rdf_ray.stages.graph import personalized_pagerank

    edges = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 2), (1, 3), (4, 0)]
    # node 5 is a dangling target reached from 2
    edges.append((2, 5))
    e = pd.DataFrame(edges, columns=["src", "dst"])
    seeds = [0, 3]
    out = (personalized_pagerank(
        rd.from_pandas(e).repartition(3),
        rd.from_pandas(pd.DataFrame({"node": seeds})),
        iterations=4, damping=0.85)
        .to_pandas().set_index("node")["rank"].to_dict())

    nodes = sorted({n for p in edges for n in p})
    outdeg = {}
    for u, _ in edges:
        outdeg[u] = outdeg.get(u, 0) + 1
    s = {n: (1.0 / len(seeds) if n in seeds else 0.0) for n in nodes}
    r = dict(s)
    d = 0.85
    for _ in range(4):
        c = {n: 0.0 for n in nodes}
        for u, v in edges:
            c[v] += d * r.get(u, 0.0) / outdeg[u]
        dang = sum(rv for n, rv in r.items() if n not in outdeg)
        r = {n: s[n] * ((1 - d) + d * dang) + c[n] for n in nodes}
    for n in nodes:
        assert abs(out.get(n, 0.0) - r[n]) < 1e-12, n
    assert abs(sum(out.values()) - 1.0) < 1e-9  # mass conserved


def test_clustering_coeff_triangle_plus_pendant(ray_session):
    from text_to_rdf_ray.stages.graph import clustering_coeff

    # triangle 1-2-3 plus pendant edge 3-4
    e = pd.DataFrame({"src": [1, 2, 1, 3], "dst": [2, 3, 3, 4]})
    out = (clustering_coeff(rd.from_pandas(e))
           .to_pandas().sort_values("node").reset_index(drop=True))
    assert out[["node", "deg", "n_tri"]].to_numpy().tolist() == [
        [1, 2, 1], [2, 2, 1], [3, 3, 1], [4, 1, 0]]


def test_clustering_coeff_ignores_direction_and_dups(ray_session):
    from text_to_rdf_ray.stages.graph import clustering_coeff

    e = pd.DataFrame({"src": [1, 2, 2, 3, 1, 1],
                      "dst": [2, 1, 3, 1, 3, 1]})  # dups + self-loop
    out = (clustering_coeff(rd.from_pandas(e))
           .to_pandas().sort_values("node").reset_index(drop=True))
    assert out[["node", "deg", "n_tri"]].to_numpy().tolist() == [
        [1, 2, 1], [2, 2, 1], [3, 2, 1]]


def test_sssp_prefers_cheap_path(ray_session):
    from text_to_rdf_ray.stages.graph import sssp

    # 1->3 direct costs 5; 1->2->3 costs 2
    e = pd.DataFrame({"src": [1, 2, 1, 2, 3, 3],
                      "dst": [2, 3, 3, 1, 2, 1],
                      "w": [1, 1, 5, 1, 1, 5]})
    out = (sssp(rd.from_pandas(e), 1).to_pandas()
           .sort_values("node").reset_index(drop=True))
    assert out[["node", "dist"]].to_numpy().tolist() == [
        [1, 0], [2, 1], [3, 2]]


def test_sssp_unreached_nodes_absent_and_long_path(ray_session):
    from text_to_rdf_ray.stages.graph import sssp

    # directed chain 0->1->...->5 (w=2 each); 9 isolated from source
    e = pd.DataFrame({"src": [0, 1, 2, 3, 4, 9],
                      "dst": [1, 2, 3, 4, 5, 8],
                      "w": [2] * 6})
    out = (sssp(rd.from_pandas(e), 0, max_iters=8).to_pandas()
           .sort_values("node").reset_index(drop=True))
    assert out[["node", "dist"]].to_numpy().tolist() == [
        [0, 0], [1, 2], [2, 4], [3, 6], [4, 8], [5, 10]]


def test_sssp_max_iters_truncates(ray_session):
    from text_to_rdf_ray.stages.graph import sssp

    e = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3], "w": [1, 1, 1]})
    out = (sssp(rd.from_pandas(e), 0, max_iters=2).to_pandas()
           .sort_values("node").reset_index(drop=True))
    # only two relaxation rounds -> node 3 unreached
    assert out["node"].tolist() == [0, 1, 2]


def _numpy_hits(edges, iterations):
    """L1-normalized HITS reference, hub0 = 1, over the distinct rows of
    an int src/dst DataFrame; returns (hub, auth) dicts."""
    edges = edges.drop_duplicates()  # hits counts each distinct edge once
    nodes_s = np.unique(edges.src)
    nodes_d = np.unique(edges.dst)
    hub = {int(u): 1.0 for u in nodes_s}
    auth = {}
    for _ in range(iterations):
        auth = {int(v): 0.0 for v in nodes_d}
        for u, v in edges.itertuples(index=False):
            auth[int(v)] += hub.get(int(u), 0.0)
        t = sum(auth.values())
        auth = {k: s / t for k, s in auth.items()}
        hub = {int(u): 0.0 for u in nodes_s}
        for u, v in edges.itertuples(index=False):
            hub[int(u)] += auth.get(int(v), 0.0)
        t = sum(hub.values())
        hub = {k: s / t for k, s in hub.items()}
    return hub, auth


def _assert_hits_match(out, hub, auth):
    assert set(out.node) == set(hub) | set(auth)
    for _, r in out.iterrows():
        assert abs(r.hub - hub.get(int(r.node), 0.0)) < 1e-9
        assert abs(r.auth - auth.get(int(r.node), 0.0)) < 1e-9
    # both score vectors are L1-normalized
    assert abs(out.hub.sum() - 1.0) < 1e-9
    assert abs(out.auth.sum() - 1.0) < 1e-9


def test_hits_matches_numpy_reference(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.graph import hits

    rng = np.random.RandomState(7)
    src = rng.randint(0, 20, 200)
    dst = rng.randint(100, 125, 200)
    edges = pd.DataFrame({"src": src, "dst": dst}).drop_duplicates()
    hub, auth = _numpy_hits(edges, 3)

    out = (hits(rd.from_pandas(edges).repartition(4), iterations=3,
                num_partitions=8).to_pandas()
           .sort_values("node").reset_index(drop=True))
    _assert_hits_match(out, hub, auth)


def test_hits_engines_parity(ray_session):
    """HITS on a random graph with duplicate edges, in one input block:
    the BSP engine at 8 partitions and at 1 partition must agree to
    float-sum noise, and both must match the numpy reference."""
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.graph import hits

    rng = np.random.RandomState(13)
    e = pd.DataFrame({"src": rng.randint(0, 40, 300),
                      "dst": rng.randint(40, 110, 300)})
    assert e.duplicated().any()
    ds = rd.from_pandas(e)
    a = hits(ds, iterations=3, num_partitions=8).to_pandas()
    b = hits(ds, iterations=3, num_partitions=1).to_pandas()
    da = {int(r.node): (r.hub, r.auth) for r in a.itertuples()}
    db = {int(r.node): (r.hub, r.auth) for r in b.itertuples()}
    assert set(da) == set(db)
    for n in da:
        assert abs(da[n][0] - db[n][0]) < 1e-12
        assert abs(da[n][1] - db[n][1]) < 1e-12
    hub, auth = _numpy_hits(e, 3)
    _assert_hits_match(a, hub, auth)


def test_label_propagation_two_communities(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.graph import label_propagation

    # two 4-cliques joined by ONE bridge edge: majority vote keeps the
    # communities separate (unlike min-label CC, which would merge them)
    def clique(nodes):
        return [(a, b) for i, a in enumerate(nodes)
                for b in nodes[i + 1:]]

    e = pd.DataFrame(clique([0, 1, 2, 3]) + clique([10, 11, 12, 13])
                     + [(3, 10)], columns=["src", "dst"])
    out = (label_propagation(rd.from_pandas(e), iterations=4,
                             num_partitions=4)
           .to_pandas().sort_values("node").reset_index(drop=True))
    left = set(out[out.node < 10].lbl)
    right = set(out[out.node >= 10].lbl)
    assert len(left) == 1 and len(right) == 1
    assert left != right


def test_scc_tiers_match_and_handle_cycles(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.graph import _tarjan_scc, scc

    e = pd.DataFrame({"src": [0, 1, 2, 5, 6, 2, 9],
                      "dst": [1, 2, 0, 6, 5, 5, 0]})
    want = {0: 0, 1: 0, 2: 0, 5: 5, 6: 5, 9: 9}
    for eng in ("driver", "distributed"):
        out = (scc(rd.from_pandas(e), engine=eng, num_partitions=4)
               .to_pandas())
        assert dict(zip(out.node, out.comp)) == want, eng


def test_scc_distributed_matches_tarjan_random(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.graph import _tarjan_scc, scc

    rng = np.random.RandomState(4)
    src = rng.randint(0, 24, 90).astype(np.int64)
    dst = rng.randint(0, 24, 90).astype(np.int64)
    e = pd.DataFrame({"src": src, "dst": dst})
    e = e[e.src != e.dst].drop_duplicates()
    ref = _tarjan_scc(e["src"].to_numpy(), e["dst"].to_numpy())
    out = (scc(rd.from_pandas(e), engine="distributed",
               num_partitions=4).to_pandas())
    assert dict(zip(out.node, out.comp)) == ref


def test_link_prediction_hand_computed(ray_session):
    import math

    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.graph import link_prediction

    # suppliers 1,2,3 over customers 10,11: (1,2) share both
    e = pd.DataFrame({"src": [1, 2, 1, 2, 3],
                      "dst": [10, 10, 11, 11, 10]})
    out = (link_prediction(rd.from_pandas(e), min_common=2)
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    assert len(out) == 1
    assert (out.a[0], out.b[0], out.common[0]) == (1, 2, 2)
    # deg(10)=3, deg(11)=2
    assert abs(out.aa[0] - (1 / math.log(3) + 1 / math.log(2))) < 1e-12
    assert abs(out.ra[0] - (1 / 3 + 1 / 2)) < 1e-12


def test_modularity_hand_computed(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.graph import modularity

    # triangle-free: path 1-2-3 in community 1, edge 4-5 in community 4
    e = pd.DataFrame({"src": [1, 2, 4], "dst": [2, 3, 5]})
    lab = pd.DataFrame({"node": [1, 2, 3, 4, 5],
                        "lbl": [1, 1, 1, 4, 4]})
    out = (modularity(rd.from_pandas(e), rd.from_pandas(lab))
           .to_pandas().sort_values("lbl").reset_index(drop=True))
    assert list(out.lbl) == [1, 4]
    assert list(out.n_nodes) == [3, 2]
    assert list(out.intra_edges) == [2, 1]
    assert list(out.deg_sum) == [4, 2]
    # m=3: q1 = 2/3 - (4/6)^2, q4 = 1/3 - (2/6)^2
    assert abs(out.q_term[0] - (2 / 3 - (4 / 6) ** 2)) < 1e-12
    assert abs(out.q_term[1] - (1 / 3 - (2 / 6) ** 2)) < 1e-12
    # perfect split of a disconnected graph: Q > 0
    assert out.q_term.sum() > 0


def test_modularity_cross_community_edges_not_intra(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.graph import modularity

    # one bridge edge between the communities + a self-loop (dropped)
    e = pd.DataFrame({"src": [1, 2, 4, 2, 3],
                      "dst": [2, 3, 5, 4, 3]})
    lab = pd.DataFrame({"node": [1, 2, 3, 4, 5],
                        "lbl": [1, 1, 1, 4, 4]})
    out = (modularity(rd.from_pandas(e), rd.from_pandas(lab))
           .to_pandas().sort_values("lbl").reset_index(drop=True))
    # m=4 (self-loop 3-3 dropped; bridge 2-4 counts toward degrees only)
    assert list(out.intra_edges) == [2, 1]
    assert list(out.deg_sum) == [5, 3]


def test_modularity_tier_parity(ray_session):
    """Broadcast-label tier == exchange tier on a random multigraph with
    self-loops, duplicate edges, and labels covering exactly the edge-set
    nodes (the documented parity contract)."""
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.graph import modularity

    rng = np.random.RandomState(11)
    src = rng.randint(0, 80, 600)
    dst = rng.randint(0, 80, 600)
    e = pd.DataFrame({"src": src, "dst": dst})
    keep = src != dst
    en = np.unique(np.concatenate([src[keep], dst[keep]]))
    lab = pd.DataFrame({"node": en, "lbl": en % 5})
    edges = rd.from_pandas(e).repartition(6).materialize()
    labels = rd.from_pandas(lab).materialize()
    bc = (modularity(edges, labels, broadcast_threshold=10_000)
          .to_pandas().sort_values("lbl").reset_index(drop=True))
    ex = (modularity(edges, labels, broadcast_threshold=0)
          .to_pandas().sort_values("lbl").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        bc.astype({"lbl": "int64", "n_nodes": "int64",
                   "intra_edges": "int64", "deg_sum": "int64"}),
        ex.astype({"lbl": "int64", "n_nodes": "int64",
                   "intra_edges": "int64", "deg_sum": "int64"}))


def _python_lpa(edges, iterations):
    """Synchronous LPA reference: labels start as node ids, each node
    takes its neighbors' majority label, ties to the smaller label;
    edges undirected and distinct."""
    nbrs = {}
    for a, b in set(edges):
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    lbl = {v: v for v in nbrs}
    for _ in range(iterations):
        new = {}
        for v, ns in nbrs.items():
            cnt = {}
            for u in ns:
                cnt[lbl[u]] = cnt.get(lbl[u], 0) + 1
            new[v] = min(cnt, key=lambda x: (-cnt[x], x))
        lbl = new
    return lbl


def test_lpa_matches_python_reference(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.graph import label_propagation

    # bipartite random graph: many equal-count votes exercise the
    # smaller-label tie-break
    rng = np.random.RandomState(9)
    e = pd.DataFrame({"src": rng.randint(0, 60, 400),
                      "dst": rng.randint(60, 120, 400)})
    got = label_propagation(rd.from_pandas(e), iterations=3,
                            num_partitions=8).to_pandas()
    want = _python_lpa(list(zip(e.src.tolist(), e.dst.tolist())), 3)
    assert {int(n): int(v) for n, v in zip(got.node, got.lbl)} == want


def test_pagerank_bsp_checkpoint_resume_exact(ray_session, tmp_path):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.bsp import pagerank_bsp

    rng = np.random.RandomState(1)
    e = pd.DataFrame({"node": [str(x) for x in rng.randint(0, 40, 300)],
                      "dst": [str(x) for x in rng.randint(0, 40, 300)]})
    deg = e.groupby("node").size()
    e["factor"] = 1.0 / deg.reindex(e["node"]).to_numpy()
    nodes = pd.DataFrame({"node": sorted(set(e["node"]) | set(e["dst"]))})
    efd, nds = rd.from_pandas(e), rd.from_pandas(nodes)
    n = len(nodes)

    full = pagerank_bsp(efd, nds, n, iterations=6, damping=0.85,
                        num_parts=4).to_pandas()
    ck = str(tmp_path / "ck")
    # first run leaves checkpoints at iterations 2 and 4
    pagerank_bsp(efd, nds, n, iterations=6, damping=0.85, num_parts=4,
                 checkpoint_dir=ck, checkpoint_every=2).to_pandas()
    import os
    assert os.path.exists(os.path.join(ck, "iter_4", "_DONE"))
    # the "preempted rerun" resumes from iter_4 and must be BIT-equal
    # to the uninterrupted run (same float op sequence from there on)
    b = pagerank_bsp(efd, nds, n, iterations=6, damping=0.85,
                     num_parts=4, checkpoint_dir=ck,
                     checkpoint_every=2).to_pandas()
    da = dict(zip(full.node, full["rank"]))
    db = dict(zip(b.node, b["rank"]))
    assert da == db


def test_bsp_checkpoint_meta_refuses_stale_resume(ray_session, tmp_path):
    """A checkpoint's _META.json stamp (layout format, key-hash version,
    partition count) must match the resuming run.  A missing stamp (a
    checkpoint written before stamping) or any differing field may mean
    state partitioned by another hash: resume raises, never returns
    ranks."""
    import json
    import os

    import pytest
    import ray.data as rd

    from text_to_rdf_ray.stages.bsp import pagerank_bsp

    e = pd.DataFrame({"node": ["a", "b", "c", "c"],
                      "dst": ["b", "c", "a", "b"],
                      "factor": [1.0, 1.0, 0.5, 0.5]})
    nodes = pd.DataFrame({"node": ["a", "b", "c"]})
    ck = str(tmp_path / "ck")

    def run():
        return pagerank_bsp(rd.from_pandas(e), rd.from_pandas(nodes), 3,
                            iterations=6, damping=0.85, num_parts=4,
                            checkpoint_dir=ck,
                            checkpoint_every=2).to_pandas()

    full = run()  # leaves checkpoints at iterations 2 and 4
    assert os.path.exists(os.path.join(ck, "iter_4", "_DONE"))
    path = os.path.join(ck, "iter_4", "_META.json")
    meta = None
    if os.path.exists(path):
        with open(path) as fh:
            meta = json.load(fh)
        os.remove(path)
    with pytest.raises(ValueError, match="meta"):
        run()
    assert meta is not None and set(meta) == {
        "format", "hash_version", "num_parts"}
    assert meta["num_parts"] == 4
    for field in meta:
        with open(path, "w") as fh:
            json.dump({**meta, field: meta[field] + 1}, fh)
        with pytest.raises(ValueError, match="meta"):
            run()
    with open(path, "w") as fh:
        json.dump(meta, fh)
    resumed = run()  # the intact stamp resumes, bit-equal
    assert dict(zip(full.node, full["rank"])) == \
        dict(zip(resumed.node, resumed["rank"]))


def test_multi_source_bfs_levels_and_closeness(ray_session):
    from text_to_rdf_ray.stages.graph import (closeness_from_seeds,
                                              multi_source_bfs)

    # 1 -> 2 -> 3 -> 4, 5 isolated-as-source-of-nothing (no out-edges),
    # 6 -> 1 gives seed 6 a longer reach
    edges = [(1, 2), (2, 3), (3, 4), (6, 1)]
    ds = rd.from_items([{"src": s, "dst": d} for s, d in edges])
    out = (multi_source_bfs(ds, [1, 5, 6], k=2, num_partitions=4)
           .to_pandas())
    got = {(int(r.seed), int(r.node)): int(r.level)
           for r in out.itertuples()}
    assert got == {(1, 1): 0, (1, 2): 1, (1, 3): 2,
                   (5, 5): 0,
                   (6, 6): 0, (6, 1): 1, (6, 2): 2}
    clo = (closeness_from_seeds(ds, [1, 5, 6], k=2, num_partitions=4)
           .to_pandas().set_index("seed"))
    # seed 1: reaches {2@1, 3@2} -> 2 / 3; seed 5: nothing -> 0
    assert int(clo.loc[1, "n_reached"]) == 2
    assert int(clo.loc[1, "sum_dist"]) == 3
    assert abs(float(clo.loc[1, "closeness"]) - 2.0 / 3.0) < 1e-12
    assert int(clo.loc[5, "n_reached"]) == 0
    assert float(clo.loc[5, "closeness"]) == 0.0
    assert abs(float(clo.loc[6, "closeness"]) - 2.0 / 3.0) < 1e-12


def test_multi_source_bfs_first_reach_wins_on_diamond(ray_session):
    from text_to_rdf_ray.stages.graph import multi_source_bfs

    # diamond: 1->2, 1->3, 2->4, 3->4, plus the long way 1->5->6->4;
    # node 4 must be level 2 (first reach), never 3
    edges = [(1, 2), (1, 3), (2, 4), (3, 4), (1, 5), (5, 6), (6, 4)]
    ds = rd.from_items([{"src": s, "dst": d} for s, d in edges])
    out = multi_source_bfs(ds, [1], k=3, num_partitions=2).to_pandas()
    lvl = dict(zip(out["node"].astype(int), out["level"].astype(int)))
    assert lvl[4] == 2
    assert len(out) == out[["seed", "node"]].drop_duplicates().shape[0]


def test_neighbor_agg_manual_means(ray_session):
    import ray.data as rd

    from text_to_rdf_ray.stages.graph import neighbor_agg

    emb = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(3, dtype=np.int64),
        "embedding": [np.asarray(v, np.float32) for v in
                      [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]]}))
    # node 7 <- {0, 1}; node 8 <- {2, 2} (duplicate edge counts twice)
    edges = rd.from_pandas(pd.DataFrame({
        "src": np.array([0, 1, 2, 2], np.int64),
        "dst": np.array([7, 7, 8, 8], np.int64)}))
    out = (neighbor_agg(edges, emb, num_partitions=4).to_pandas()
           .sort_values(["node", "dim"]).reset_index(drop=True))
    assert list(out["node"]) == [7, 7, 8, 8]
    assert list(out["dim"]) == [0, 1, 0, 1]
    np.testing.assert_allclose(out["val"].to_numpy(),
                               [2.0, 3.0, 5.0, 6.0])
    assert list(out["n_neighbors"]) == [2, 2, 2, 2]


def test_diameter_double_sweep_path_and_star(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.graph import diameter_double_sweep

    # undirected path 0-1-...-9: start=0 (min id), ecc=9, far=9, lb=9
    src = np.arange(9, dtype=np.int64)
    dst = src + 1
    edges = rd.from_pandas(pd.DataFrame({
        "src": np.concatenate([src, dst]),
        "dst": np.concatenate([dst, src])}))
    out = diameter_double_sweep(edges, k=12, num_partitions=4).to_pandas()
    assert out.iloc[0].to_dict() == {"start_node": 0, "ecc_start": 9,
                                     "far_node": 9, "diameter_lb": 9}

    # star centered at 0 with leaves 1..5: ecc(0)=1, far=1 (min leaf),
    # sweep 2 from leaf 1 reaches the others at level 2
    leaves = np.arange(1, 6, dtype=np.int64)
    ctr = np.zeros(5, np.int64)
    edges = rd.from_pandas(pd.DataFrame({
        "src": np.concatenate([ctr, leaves]),
        "dst": np.concatenate([leaves, ctr])}))
    out = diameter_double_sweep(edges, k=4, num_partitions=4).to_pandas()
    assert out.iloc[0].to_dict() == {"start_node": 0, "ecc_start": 1,
                                     "far_node": 1, "diameter_lb": 2}


def test_multi_source_bfs_driver_vs_distributed_parity(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.graph import multi_source_bfs

    rng = np.random.default_rng(3)
    src = rng.integers(0, 60, 400).astype(np.int64)
    dst = rng.integers(0, 60, 400).astype(np.int64)
    edges = pd.DataFrame({"src": np.concatenate([src, dst]),
                          "dst": np.concatenate([dst, src])})
    seeds = [0, 7, 41]

    def norm(ds):
        df = ds.to_pandas()
        return (df.sort_values(["seed", "node"])
                .reset_index(drop=True).astype("int64"))

    drv = norm(multi_source_bfs(rd.from_pandas(edges), seeds, k=4,
                                num_partitions=4))
    dist = norm(multi_source_bfs(rd.from_pandas(edges), seeds, k=4,
                                 num_partitions=4, driver_max_edges=0))
    pd.testing.assert_frame_equal(drv, dist)


def test_betweenness_diamond_manual(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.graph import betweenness_from_seeds

    # diamond + tail: 1->2, 1->3, 2->4, 3->4, 4->5; seed {1}
    # sigma: L1 {2:1, 3:1}, L2 {4:2}, L3 {5:2}
    # dep:   5: 0; 4: 2/2*(1+0)=1; 2: 1/2*(1+1)=1; 3: 1
    edges = pa.table({
        "src": pa.array([1, 1, 2, 3, 4], pa.int64()),
        "dst": pa.array([2, 3, 4, 4, 5], pa.int64()),
    })
    out = (betweenness_from_seeds(rd.from_arrow(edges), [1], k=4)
           .to_pandas().set_index("node"))
    assert out.loc[2, "bc_nano"] == 1_000_000_000
    assert out.loc[3, "bc_nano"] == 1_000_000_000
    assert out.loc[4, "bc_nano"] == 1_000_000_000
    assert out.loc[5, "bc_nano"] == 0
    assert out.loc[4, "bc"] == 1.0


def test_betweenness_distributed_parity(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.graph import betweenness_from_seeds

    # deterministic pseudo-random graph, multiple seeds, both tiers
    rng = np.random.RandomState(7)
    n = 60
    src = rng.randint(0, n, 400).astype(np.int64)
    dst = rng.randint(0, n, 400).astype(np.int64)
    m = src != dst
    edges = pa.table({
        "src": pa.array(np.concatenate([src[m], dst[m]]), pa.int64()),
        "dst": pa.array(np.concatenate([dst[m], src[m]]), pa.int64()),
    })
    ds = rd.from_arrow(edges).repartition(4)
    seeds = [0, 1, 2, 3]
    a = (betweenness_from_seeds(ds, seeds, k=3)
         .to_pandas().sort_values("node").reset_index(drop=True))
    b = (betweenness_from_seeds(ds, seeds, k=3, driver_max_edges=0)
         .to_pandas().sort_values("node").reset_index(drop=True))
    assert list(a["node"]) == list(b["node"])
    # nano units are integer-exact up to the per-level rint boundary;
    # engines may differ by at most 1 nano per level fold
    assert (a["bc_nano"] - b["bc_nano"]).abs().max() <= 4


def test_degree_centralization_star_and_ring(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.graph import degree_centralization

    def sym(pairs):
        src = [a for a, b in pairs] + [b for a, b in pairs]
        dst = [b for a, b in pairs] + [a for a, b in pairs]
        return rd.from_arrow(pa.table({
            "src": pa.array(src, pa.int64()),
            "dst": pa.array(dst, pa.int64())}))

    # perfect 5-star -> centralization 1.0
    star = degree_centralization(sym([(0, i) for i in range(1, 5)]))
    assert star.iloc[0]["centralization"] == 1.0
    assert star.iloc[0]["deg_max"] == 4
    # 5-ring (regular) -> 0.0
    ring = degree_centralization(sym([(i, (i + 1) % 5)
                                      for i in range(5)]))
    assert ring.iloc[0]["centralization"] == 0.0


def test_link_prediction_hub_cap_fires_and_is_counted(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.state import counters
    from text_to_rdf_ray.stages.graph import link_prediction

    # z=99 is a planted hub with 6 neighbors; z=10/11 are normal (deg 2)
    hub = pd.DataFrame({"src": [1, 2, 3, 4, 5, 6], "dst": [99] * 6})
    norm = pd.DataFrame({"src": [1, 2, 1, 2], "dst": [10, 10, 11, 11]})
    e = pd.concat([hub, norm], ignore_index=True)

    counters.snapshot(reset=True)
    capped = (link_prediction(rd.from_pandas(e), min_common=1,
                              max_wedge_degree=5)
              .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    snap = counters.snapshot(reset=True)
    # hub z=99 (deg 6 > 5) dropped: only the (1,2) pair via z=10,11 remains
    assert len(capped) == 1
    assert (capped.a[0], capped.b[0], capped.common[0]) == (1, 2, 2)
    assert snap.get("linkpred_capped_z") == 1
    assert snap.get("linkpred_capped_wedges") == 15  # 6*5/2

    # forced-uncapped parity: hub wedges present, no counter
    full = (link_prediction(rd.from_pandas(e), min_common=1,
                            max_wedge_degree=None)
            .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    snap2 = counters.snapshot(reset=True)
    assert "linkpred_capped_z" not in snap2
    assert len(full) == 15  # C(6,2) hub pairs, (1,2) merged with its row
    assert int(full.loc[(full.a == 1) & (full.b == 2), "common"].iloc[0]) == 3


def test_common_neighbors_hub_cap_and_parity(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.state import counters
    from text_to_rdf_ray.stages.graph import common_neighbors

    hub = pd.DataFrame({"src": [1, 2, 3, 4], "dst": [99] * 4})
    norm = pd.DataFrame({"src": [1, 2, 1, 2], "dst": [10, 10, 11, 11]})
    e = pd.concat([hub, norm], ignore_index=True)

    counters.snapshot(reset=True)
    capped = (common_neighbors(rd.from_pandas(e), min_common=1,
                               max_wedge_degree=3)
              .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    snap = counters.snapshot(reset=True)
    assert list(capped.itertuples(index=False)) == [(1, 2, 2)]
    assert snap.get("commonnb_capped_z") == 1
    assert snap.get("commonnb_capped_wedges") == 6  # 4*3/2

    full = (common_neighbors(rd.from_pandas(e), min_common=1,
                             max_wedge_degree=None)
            .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    assert len(full) == 6  # C(4,2) via hub, (1,2) row merged
    assert int(full.loc[(full.a == 1) & (full.b == 2),
                        "common"].iloc[0]) == 3


def test_bsp_tree_combine_parity_all_algorithms(ray_session, monkeypatch):
    """Forced tree combine (two-level exchange) must be BIT-identical to
    the flat P x P exchange for every BSP algorithm — the regroup task
    preserves source-partition concat order, so even float sums agree
    (VERDICT r4 #2).  The tree is forced through the threshold."""
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages import bsp
    from text_to_rdf_ray.stages.bsp import (connected_components_bsp,
                                            hits_bsp,
                                            label_propagation_bsp,
                                            pagerank_bsp)

    flat_threshold = bsp.TREE_COMBINE_THRESHOLD

    def force_tree(force: bool) -> None:
        monkeypatch.setattr(bsp, "TREE_COMBINE_THRESHOLD",
                            0 if force else flat_threshold)

    rng = np.random.RandomState(7)
    src = rng.randint(0, 40, 200).astype(np.int64)
    dst = rng.randint(0, 40, 200).astype(np.int64)
    e = pd.DataFrame({"src": src, "dst": dst})
    e = e[e.src != e.dst].drop_duplicates().reset_index(drop=True)
    und = pd.concat([e, e.rename(columns={"src": "dst", "dst": "src"})]) \
        .drop_duplicates().reset_index(drop=True)

    # pagerank: float ranks must be bit-equal
    outdeg = e.groupby("src").size()
    ef = e.assign(node=e["src"].astype(str), dst2=e["dst"].astype(str),
                  factor=(1.0 / e["src"].map(outdeg)).astype(np.float64))
    ef = ef[["node", "dst2", "factor"]].rename(columns={"dst2": "dst"})
    nodes = pd.DataFrame(
        {"node": pd.unique(pd.concat([e["src"], e["dst"]]).astype(str))})
    n = len(nodes)
    force_tree(False)
    flat = pagerank_bsp(rd.from_pandas(ef), rd.from_pandas(nodes), n,
                        iterations=5, damping=0.85,
                        num_parts=5).to_pandas()
    force_tree(True)
    tree = pagerank_bsp(rd.from_pandas(ef), rd.from_pandas(nodes), n,
                        iterations=5, damping=0.85,
                        num_parts=5).to_pandas()
    assert dict(zip(flat["node"], flat["rank"])) == \
        dict(zip(tree["node"], tree["rank"]))  # exact float equality

    # connected components: labels + round count
    undi = und.astype({"src": "int64", "dst": "int64"})
    force_tree(False)
    lf, rf = connected_components_bsp(rd.from_pandas(undi), num_parts=5)
    force_tree(True)
    lt, rt = connected_components_bsp(rd.from_pandas(undi), num_parts=5)
    lf, lt = lf.to_pandas(), lt.to_pandas()
    assert dict(zip(lf["name_id"], lf["component"])) == \
        dict(zip(lt["name_id"], lt["component"]))
    assert rf == rt

    # LPA: labels
    lund = und.rename(columns={"src": "node", "dst": "nbr"})
    force_tree(False)
    pf = label_propagation_bsp(rd.from_pandas(lund), iterations=3,
                               num_parts=5).to_pandas()
    force_tree(True)
    pt = label_propagation_bsp(rd.from_pandas(lund), iterations=3,
                               num_parts=5).to_pandas()
    assert dict(zip(pf["node"], pf["lbl"])) == \
        dict(zip(pt["node"], pt["lbl"]))

    # HITS: float hub/auth scores must be bit-equal
    eo = e.rename(columns={"src": "node", "dst": "_o"})
    ei = e.rename(columns={"dst": "node", "src": "_o"})[["node", "_o"]]
    force_tree(False)
    hf, af = hits_bsp(rd.from_pandas(eo), rd.from_pandas(ei),
                      iterations=3, num_parts=5)
    force_tree(True)
    ht, at = hits_bsp(rd.from_pandas(eo), rd.from_pandas(ei),
                      iterations=3, num_parts=5)
    assert dict(zip(hf.to_pandas()["node"], hf.to_pandas()["s"])) == \
        dict(zip(ht.to_pandas()["node"], ht.to_pandas()["s"]))
    assert dict(zip(af.to_pandas()["node"], af.to_pandas()["s"])) == \
        dict(zip(at.to_pandas()["node"], at.to_pandas()["s"]))


def test_two_phase_reduce_sized_parts_rule():
    """The exchange's partition count from its input size: at least 1,
    never above the cap, one partition per block-size unit rounded up,
    and never fewer partitions for a larger input."""
    from text_to_rdf_ray.stages.bsp import sized_parts

    mib = 1 << 20
    assert sized_parts(0, 32, mib) == 1
    assert sized_parts(1, 32, mib) == 1
    assert sized_parts(mib, 32, mib) == 1
    assert sized_parts(mib + 1, 32, mib) == 2
    assert sized_parts(1_300_000, 32, mib) == 2
    assert sized_parts(10**12, 32, mib) == 32
    assert sized_parts(10**12, 64, mib) == 64
    prev = 0
    for b in range(0, 80 * mib, mib // 3):
        for cap in (1, 32, 64):
            p = sized_parts(b, cap, mib)
            assert 1 <= p <= cap
        p = sized_parts(b, 64, mib)
        assert p >= prev
        prev = p


def test_bsp_fan_plan_object_counts(monkeypatch):
    """Plan math: auto threshold, full partition coverage, and the
    O(P^1.5) object-count bound the tree combine exists for."""
    from text_to_rdf_ray.stages import bsp
    from text_to_rdf_ray.stages.bsp import (TREE_COMBINE_THRESHOLD,
                                            _fan_plan)

    assert _fan_plan(512) is None          # at threshold: flat
    assert _fan_plan(1) is None
    with monkeypatch.context() as m:
        m.setattr(bsp, "TREE_COMBINE_THRESHOLD", 0)
        assert _fan_plan(4) == (2, 2)
    for P in (513, 1000, 4096):
        gsz, G = _fan_plan(P)
        # every partition owned by exactly one group slot
        owners = [(q // gsz, q % gsz) for q in range(P)]
        assert len(set(owners)) == P
        assert all(j < G and (j * gsz + i) < P for j, i in owners)
        # objects per phase: map P*G + regroup P  <<  flat P*P
        assert P * G + P < P * P / 8
    assert TREE_COMBINE_THRESHOLD == 512


def test_cc_lpa_hits_bsp_checkpoint_resume_exact(ray_session, tmp_path):
    """Kill-and-resume for the remaining BSP algorithms (VERDICT r4 #5):
    a rerun restoring the newest complete checkpoint must be bit-equal
    to the uninterrupted run — labels, round counts, and float HITS
    scores."""
    import os

    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.bsp import (connected_components_bsp,
                                            hits_bsp,
                                            label_propagation_bsp)

    rng = np.random.RandomState(3)
    e = pd.DataFrame({"src": rng.randint(0, 60, 150).astype(np.int64),
                      "dst": rng.randint(0, 60, 150).astype(np.int64)})
    e = e[e.src != e.dst].drop_duplicates().reset_index(drop=True)
    und = pd.concat([e, e.rename(columns={"src": "dst", "dst": "src"})]) \
        .drop_duplicates().reset_index(drop=True)

    # --- connected components: long path graph forces several rounds
    path = pd.DataFrame({"src": np.arange(0, 40, dtype=np.int64),
                         "dst": np.arange(1, 41, dtype=np.int64)})
    pund = pd.concat([path, path.rename(columns={"src": "dst",
                                                 "dst": "src"})]) \
        .drop_duplicates().reset_index(drop=True)
    lf, rf = connected_components_bsp(rd.from_pandas(pund), num_parts=4)
    ck = str(tmp_path / "cc")
    connected_components_bsp(rd.from_pandas(pund), num_parts=4,
                             checkpoint_dir=ck, checkpoint_every=1)
    assert os.path.exists(os.path.join(ck, "iter_1", "_DONE"))
    lr, rr = connected_components_bsp(rd.from_pandas(pund), num_parts=4,
                                      checkpoint_dir=ck,
                                      checkpoint_every=1)
    lf, lr = lf.to_pandas(), lr.to_pandas()
    assert dict(zip(lf.name_id, lf.component)) == \
        dict(zip(lr.name_id, lr.component))
    assert rr == rf  # total rounds include the restored ones

    # --- LPA
    lund = und.rename(columns={"src": "node", "dst": "nbr"})
    pf = label_propagation_bsp(rd.from_pandas(lund), iterations=4,
                               num_parts=4).to_pandas()
    ck = str(tmp_path / "lpa")
    label_propagation_bsp(rd.from_pandas(lund), iterations=4,
                          num_parts=4, checkpoint_dir=ck,
                          checkpoint_every=2)
    assert os.path.exists(os.path.join(ck, "iter_2", "_DONE"))
    pr_ = label_propagation_bsp(rd.from_pandas(lund), iterations=4,
                                num_parts=4, checkpoint_dir=ck,
                                checkpoint_every=2).to_pandas()
    assert dict(zip(pf.node, pf.lbl)) == dict(zip(pr_.node, pr_.lbl))

    # --- HITS: float scores bit-equal across resume
    eo = e.rename(columns={"src": "node", "dst": "_o"})
    ei = e.rename(columns={"dst": "node", "src": "_o"})[["node", "_o"]]
    hf, af = hits_bsp(rd.from_pandas(eo), rd.from_pandas(ei),
                      iterations=4, num_parts=4)
    ck = str(tmp_path / "hits")
    hits_bsp(rd.from_pandas(eo), rd.from_pandas(ei), iterations=4,
             num_parts=4, checkpoint_dir=ck, checkpoint_every=2)
    assert os.path.exists(os.path.join(ck, "iter_2", "_DONE"))
    hr, ar = hits_bsp(rd.from_pandas(eo), rd.from_pandas(ei),
                      iterations=4, num_parts=4, checkpoint_dir=ck,
                      checkpoint_every=2)
    assert dict(zip(hf.to_pandas().node, hf.to_pandas().s)) == \
        dict(zip(hr.to_pandas().node, hr.to_pandas().s))
    assert dict(zip(af.to_pandas().node, af.to_pandas().s)) == \
        dict(zip(ar.to_pandas().node, ar.to_pandas().s))


def test_bsp_auto_tree_mode_above_threshold(ray_session):
    """Integration proof that the AUTO tree switch works above
    TREE_COMBINE_THRESHOLD: a real P=513 run (plan (23, 23) — ~12k
    objects/phase instead of 263k) produces labels identical to a
    small-P run.  Runtime is task-overhead-bound (~8s) by design —
    the point is the engine no longer has a partition-count ceiling."""
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.bsp import (_fan_plan,
                                            connected_components_bsp)

    assert _fan_plan(513) == (23, 23)
    rng = np.random.RandomState(5)
    e = pd.DataFrame({"src": rng.randint(0, 800, 2500).astype(np.int64),
                      "dst": rng.randint(0, 800, 2500).astype(np.int64)})
    e = e[e.src != e.dst].drop_duplicates()
    und = pd.concat([e, e.rename(columns={"src": "dst", "dst": "src"})]) \
        .drop_duplicates().reset_index(drop=True)
    big, rb = connected_components_bsp(rd.from_pandas(und),
                                       num_parts=513)
    small, rs = connected_components_bsp(rd.from_pandas(und),
                                         num_parts=4)
    bd, sd = big.to_pandas(), small.to_pandas()
    assert dict(zip(bd.name_id, bd.component)) == \
        dict(zip(sd.name_id, sd.component))
    assert rb == rs


def test_partition_placement_is_pinned(ray_session):
    """Rows land where the split laws put them, flat (P=5) and through
    the tree combine (P=513): each row of the BSP initial exchange in
    partition ``_key_hash(key) % P`` taken in uint64, each row of
    ``_partition`` in ``col % P``.  Keys include hashes at or above
    2**63, whose residue changes if the hash is cast to int64 first.  A
    placement change would let a BSP checkpoint stamped with hash
    version 2 resume into another co-partitioning without any error.
    An empty input still gives P typed partitions."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from text_to_rdf_ray.stages import bsp
    from text_to_rdf_ray.stages.exchange import _KEY_HASH_VERSION, _key_hash

    assert bsp._CKPT_FORMAT == 1 and _KEY_HASH_VERSION == 2
    keys = np.arange(-3000, 3000, 7, dtype=np.int64)
    tbl = pa.table({"k": pa.array(keys),
                    "v": pa.array(np.arange(len(keys), dtype=np.int64))})
    h = _key_hash(tbl, ["k"])
    big = h >= np.uint64(2**63)
    assert big.any() and (~big).any()
    assert ((h.astype(np.int64) % 5)
            != (h % np.uint64(5)).astype(np.int64)).any()
    assert int(np.uint64(2**63 + 5) % np.uint64(5)) == 3
    col = pa.table({"c": pa.array((h >> np.uint64(1)).astype(np.int64)),
                    "v": tbl.column("v")})
    ds = rd.from_arrow([tbl.slice(0, 300), tbl.slice(300)]).materialize()
    cds = rd.from_arrow([col.slice(0, 300), col.slice(300)]).materialize()
    for P in (5, 513):
        assert (bsp._fan_plan(P) is None) == (P == 5)
        parts = ray.get(bsp.dataset_to_part_refs(ds, "k", P, tbl.schema))
        assert len(parts) == P
        for q, t in enumerate(parts):
            assert t.schema.equals(tbl.schema)
            assert (_key_hash(t, ["k"]) % np.uint64(P)
                    == np.uint64(q)).all()
        assert sum(t.num_rows for t in parts) == len(keys)

        dest, _, _ = bsp._partition([(cds, None)], "c", num_parts=P,
                                    max_parts=P)
        assert len(dest) == P
        n = 0
        for q, refs in enumerate(dest):
            for t in ray.get(refs):
                v = t.column("c").to_numpy()
                assert (v % P == q).all()
                n += len(v)
        assert n == len(keys)

    empty = ray.get(bsp.dataset_to_part_refs(
        rd.from_arrow(tbl.schema.empty_table()), "k", 5, tbl.schema))
    assert len(empty) == 5
    assert all(t.num_rows == 0 and t.schema.equals(tbl.schema)
               for t in empty)


def test_bsp_small_p_forced_tree_and_ckpt_partition_guard(ray_session,
                                                          tmp_path,
                                                          monkeypatch):
    """Review r5 regressions: (a) forced tree at P=2 falls back to flat
    (a one-group tree would break the bare-ref fan contract); (b)
    resuming a checkpoint at a different partition count raises instead
    of silently loading a co-partitioning-breaking subset."""
    import os

    import pandas as pd
    import pytest
    import ray.data as rd

    from text_to_rdf_ray.stages import bsp
    from text_to_rdf_ray.stages.bsp import (_fan_plan,
                                            connected_components_bsp)

    with monkeypatch.context() as m:
        m.setattr(bsp, "TREE_COMBINE_THRESHOLD", 0)  # force the tree
        assert _fan_plan(2) is None
        assert _fan_plan(3) == (2, 2)

        e = pd.DataFrame({"src": [1, 2, 2, 3], "dst": [2, 1, 3, 2]})
        lbl, _ = connected_components_bsp(rd.from_pandas(e),
                                          num_parts=2)  # flat fallback
    df = lbl.to_pandas()
    assert set(df.component) == {1}

    ck = str(tmp_path / "cc")
    connected_components_bsp(rd.from_pandas(e), num_parts=4,
                             checkpoint_dir=ck, checkpoint_every=1)
    assert os.path.exists(os.path.join(ck, "iter_1", "_DONE"))
    with pytest.raises(ValueError, match="num_parts=2"):
        connected_components_bsp(rd.from_pandas(e), num_parts=2,
                                 checkpoint_dir=ck, checkpoint_every=1)


def test_graph_review_r5_regressions(ray_session):
    """Review r5 graph.py fixes, pinned: big-id color/contribution
    integrity, unsymmetrized centralization, empty/degenerate guards."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from text_to_rdf_ray.stages.graph import (degree_centralization,
                                              hits, scc)

    # unsymmetrized path graph: node 4 is dst-only and must count
    e = pd.DataFrame({"src": [1, 2, 3], "dst": [2, 3, 4]})
    out = degree_centralization(rd.from_pandas(e))
    assert int(out["n_nodes"].iloc[0]) == 4
    assert int(out["n_edges"].iloc[0]) == 3
    assert abs(float(out["centralization"].iloc[0]) - 1.0 / 3) < 1e-9

    # scc distributed tier on an empty edge set: typed empty, no crash
    empty = rd.from_pandas(pd.DataFrame({"src": pd.Series(dtype="int64"),
                                         "dst": pd.Series(dtype="int64")}))
    s = scc(empty, engine="distributed")
    assert s.count() == 0
    assert s.schema().names == ["node", "comp"]  # typed, not schema-less
    # (Ray's to_pandas drops columns on zero-row datasets — the
    # dataset-level schema is the contract)

    # degenerate iteration counts raise
    ds = rd.from_pandas(pd.DataFrame({"src": [1], "dst": [2]}))
    with pytest.raises(Exception, match="iterations"):
        hits(ds, iterations=0)

    # scc distributed tier with hash-scale node ids survives exactly
    # (the float64 pcol round-trip rounded ids above 2^53)
    big = 2**62 + 12345
    e2 = pd.DataFrame({"src": [big, big + 1, 7],
                       "dst": [big + 1, big, big]})
    s2 = (scc(rd.from_pandas(e2), engine="distributed", num_partitions=4)
          .to_pandas())
    comp = dict(zip(s2.node, s2.comp))
    assert comp[big] == comp[big + 1]  # the 2-cycle is one SCC
    assert comp[7] != comp[big]
    assert set(s2.node) == {big, big + 1, 7}  # ids intact, no phantoms
