"""Temporal joins (stages/joins.py) and grouped analytics
(stages/analytics.py): brute-force references, variant parity, edges."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

RNG = np.random.default_rng(7)


def _mk_events(n_left=300, n_right=800, n_keys=17, t_max=100_000):
    """Synthetic two-sided event tables with interleaved int64-us times
    (includes keys present on only one side and exact-tie timestamps)."""
    left = pd.DataFrame({
        "k": RNG.integers(0, n_keys, n_left),
        "l_id": np.arange(n_left, dtype=np.int64),
        "lt": RNG.integers(0, t_max, n_left),
    })
    right = pd.DataFrame({
        "k": RNG.integers(2, n_keys + 2, n_right),  # some right-only keys
        "r_id": np.arange(n_right, dtype=np.int64),
        "rt": RNG.integers(0, t_max, n_right),
        "rv": np.round(RNG.random(n_right) * 10, 3),
    })
    # force exact timestamp ties (tiebreak path): clone some times
    nt = min(40, n_right - 1)
    ties = np.repeat(right.loc[0:nt // 2, "rt"].to_numpy(), 2)[:nt + 1]
    right.loc[0:nt, "rt"] = ties
    nl = min(10, n_left - 1, n_right - 1)
    left.loc[0:nl, "lt"] = right.loc[0:nl, "rt"].to_numpy()
    return left, right


def _brute_asof(left, right, inclusive=True):
    rows = []
    for t in left.itertuples():
        cand = right[right.k == t.k]
        cand = cand[cand.rt <= t.lt] if inclusive else cand[cand.rt < t.lt]
        if cand.empty:
            continue
        best = cand.sort_values(["rt", "r_id"]).iloc[-1]
        rows.append((t.k, t.lt, t.l_id, int(best.r_id), best.rv))
    return (pd.DataFrame(rows, columns=["k", "lt", "l_id", "r_id", "rv"])
            .sort_values("l_id").reset_index(drop=True))


def _sorted(df, by):
    return df.sort_values(by).reset_index(drop=True).astype({c: "int64" for c in by})


@pytest.mark.parametrize("inclusive", [True, False])
def test_asof_join_vs_brute(ray_session, inclusive):
    from text_to_rdf_ray.stages.joins import asof_join

    left, right = _mk_events()
    got = asof_join(rd.from_pandas(left), rd.from_pandas(right),
                    key_col="k", left_ts="lt", right_ts="rt",
                    tiebreak_col="r_id", inclusive=inclusive).to_pandas()
    want = _brute_asof(left, right, inclusive)
    got = _sorted(got[["k", "lt", "l_id", "r_id", "rv"]], ["l_id"])
    pd.testing.assert_frame_equal(got, _sorted(want, ["l_id"]))


def test_asof_broadcast_parity(ray_session):
    from text_to_rdf_ray.stages.joins import asof_join, asof_join_broadcast

    left, right = _mk_events()
    kw = dict(key_col="k", left_ts="lt", right_ts="rt", tiebreak_col="r_id")
    a = asof_join(rd.from_pandas(left), rd.from_pandas(right), **kw).to_pandas()
    b = asof_join_broadcast(rd.from_pandas(left), rd.from_pandas(right),
                            **kw).to_pandas()
    cols = ["k", "lt", "l_id", "r_id", "rv"]
    pd.testing.assert_frame_equal(_sorted(a[cols], ["l_id"]),
                                  _sorted(b[cols], ["l_id"]))


def test_asof_empty_right_and_payload_collision(ray_session):
    from text_to_rdf_ray.stages.joins import asof_join

    left, right = _mk_events(n_left=50, n_right=30)
    empty = right[right.k < 0]
    got = asof_join(rd.from_pandas(left), rd.from_pandas(empty),
                    key_col="k", left_ts="lt", right_ts="rt",
                    tiebreak_col="r_id").to_pandas()
    assert len(got) == 0
    clash = right.rename(columns={"r_id": "l_id"})
    with pytest.raises(ValueError, match="collision"):
        asof_join(rd.from_pandas(left), rd.from_pandas(clash),
                  key_col="k", left_ts="lt", right_ts="rt",
                  tiebreak_col="l_id")


def test_range_join_agg_vs_brute(ray_session):
    from text_to_rdf_ray.stages.joins import range_join_agg

    left, right = _mk_events()
    lo, hi = -5_000, 2_500
    got = range_join_agg(rd.from_pandas(left), rd.from_pandas(right),
                         key_col="k", left_ts="lt", right_ts="rt",
                         lower_us=lo, upper_us=hi, value_col="rv").to_pandas()
    want_rows = []
    for t in left.itertuples():
        cand = right[(right.k == t.k) & (right.rt >= t.lt + lo)
                     & (right.rt < t.lt + hi)]
        want_rows.append((t.k, t.lt, t.l_id, len(cand), float(cand.rv.sum())))
    want = pd.DataFrame(want_rows,
                        columns=["k", "lt", "l_id", "n_matched", "sum_value"])
    got = _sorted(got[["k", "lt", "l_id", "n_matched", "sum_value"]], ["l_id"])
    want = _sorted(want, ["l_id"])
    pd.testing.assert_frame_equal(got, want, check_exact=False, rtol=1e-12)


def test_hopping_agg_fanout_invariant(ray_session):
    from text_to_rdf_ray.stages.windows import hopping_agg

    n = 500
    df = pd.DataFrame({
        "ts": pd.to_datetime(RNG.integers(0, 10**7, n) * 1000, unit="us"),
        "event_type": RNG.choice(["a", "b"], n),
        "value": np.round(RNG.random(n), 3),
    })
    out = hopping_agg(rd.from_pandas(df), width_us=4_000_000,
                      hop_us=1_000_000).to_pandas()
    # every event appears in exactly width/hop = 4 windows
    assert out["n"].sum() == 4 * n
    assert np.isclose(out["sum_value"].sum(), 4 * df["value"].sum())
    # spot-check one (key, window): brute-force membership
    row = out.iloc[len(out) // 2]
    us = df["ts"].astype("int64") // 1000
    mask = ((df["event_type"] == row["event_type"])
            & (us >= row["window_start"])
            & (us < row["window_start"] + 4_000_000))
    assert int(mask.sum()) == int(row["n"])
    with pytest.raises(ValueError, match="multiple"):
        hopping_agg(rd.from_pandas(df), width_us=3_500_000, hop_us=1_000_000)


def test_topk_per_group_vs_pandas(ray_session):
    from text_to_rdf_ray.stages.analytics import topk_per_group

    n = 2_000
    df = pd.DataFrame({
        "g": RNG.integers(0, 40, n),
        "v": np.round(RNG.random(n) * 100, 1),  # coarse -> real ties
        "id": np.arange(n, dtype=np.int64),
    })
    got = topk_per_group(rd.from_pandas(df), key_col="g", sort_col="v",
                         tiebreak_col="id", k=3).to_pandas()
    want = (df.sort_values(["v", "id"], ascending=[False, True])
            .groupby("g", sort=False).head(3))
    want = want.sort_values(["g", "v", "id"], ascending=[True, False, True])
    want["rank"] = want.groupby("g").cumcount() + 1
    got = _sorted(got[["g", "v", "id", "rank"]], ["g", "rank"])
    pd.testing.assert_frame_equal(got, _sorted(want.reset_index(drop=True), ["g", "rank"]))


def test_group_quantiles_exact_vs_numpy(ray_session):
    from text_to_rdf_ray.stages.analytics import group_quantiles_exact

    parts = [
        pd.DataFrame({"g": "cont", "v": RNG.random(5_000) * 1e4}),
        pd.DataFrame({"g": "ties", "v": RNG.choice([1.0, 2.0, 2.0, 7.5], 4_000)}),
        pd.DataFrame({"g": "tiny", "v": [42.0]}),
    ]
    df = pd.concat(parts, ignore_index=True)
    qs = [0.5, 0.95, 0.0, 1.0]
    out = group_quantiles_exact(rd.from_pandas(df), key_col="g", value_col="v",
                                qs=qs, n_bins=64)
    for _, row in out.iterrows():
        vals = df[df.g == row["g"]]["v"].to_numpy()
        assert row["n"] == len(vals)
        for q in qs:
            assert np.isclose(row[f"q_{q}"], np.quantile(vals, q), atol=1e-9), \
                (row["g"], q)


def test_group_quantiles_max_collect_raises(ray_session):
    from text_to_rdf_ray.stages.analytics import group_quantiles_exact

    df = pd.DataFrame({"g": "x", "v": RNG.random(3_000)})
    with pytest.raises(ValueError, match="max_collect"):
        group_quantiles_exact(rd.from_pandas(df), key_col="g", value_col="v",
                              qs=[0.5], n_bins=2, max_collect=10)


def test_semi_and_anti_join_filter(ray_session):
    import numpy as np
    import ray.data as rd

    from text_to_rdf_ray.stages.joins import semi_join_filter

    big = rd.from_items([{"k": i, "v": i * 10} for i in range(100)]).repartition(5)
    keys = rd.from_items([{"k": i} for i in (3, 7, 7, 50, 999)])
    semi = semi_join_filter(big, keys, key_col="k").to_pandas()
    assert sorted(semi["k"]) == [3, 7, 50]
    anti = semi_join_filter(big, keys, key_col="k", anti=True).to_pandas()
    assert len(anti) == 97 and not set(anti["k"]) & {3, 7, 50}
    # key-side cap raises
    import pytest

    with pytest.raises(ValueError, match="max_keys"):
        semi_join_filter(big, keys, key_col="k", max_keys=2).to_pandas()


def test_inverted_index_postings_sorted_distinct(ray_session):
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import inverted_index

    docs = [
        {"doc_id": 2, "text": "b a b"},
        {"doc_id": 1, "text": "a c"},
        {"doc_id": 3, "text": "a"},
    ]
    out = (inverted_index(rd.from_items(docs).repartition(3))
           .to_pandas().set_index("term").sort_index())
    assert out.loc["a", "df"] == 3 and out.loc["a", "postings"] == "1,2,3"
    assert out.loc["b", "df"] == 1 and out.loc["b", "postings"] == "2"
    assert out.loc["c", "df"] == 1 and out.loc["c", "postings"] == "1"


def test_hll_accuracy_merge_and_linear_counting(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import (
        approx_distinct,
        hll_estimate,
        hll_registers,
    )

    ids = np.arange(100_000, dtype=np.int64) * 7919 + 13
    ds = rd.from_arrow(pa.table({"k": ids})).repartition(8)
    est = approx_distinct(ds, col="k", p=12)
    # 3-sigma bound: 3 * 1.04/sqrt(4096) ~ 4.9%
    assert abs(est - 100_000) / 100_000 < 0.05
    # the sketch is mergeable: max of half-registers == full registers
    r_all = hll_registers(ids)
    r1, r2 = hll_registers(ids[:50_000]), hll_registers(ids[50_000:])
    assert (np.maximum(r1, r2) == r_all).all()
    # duplicates don't move the estimate
    dup = np.concatenate([ids, ids[:30_000]])
    assert hll_estimate(hll_registers(dup)) == hll_estimate(r_all)
    # small cardinality takes the linear-counting branch: near exact
    est_s = hll_estimate(hll_registers(np.arange(500, dtype=np.int64)))
    assert abs(est_s - 500) < 25


def test_grouping_sets_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import grouping_sets_agg

    rng = np.random.RandomState(5)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y"], 400),
        "b": rng.randint(0, 3, 400),
        "v": rng.rand(400),
    })
    sets = [(), ("a",), ("b",), ("a", "b")]
    out = (grouping_sets_agg(rd.from_pandas(df).repartition(5),
                             sets=sets, value_col="v")
           .to_pandas().sort_values(["gid", "a", "b"]).reset_index(drop=True))
    # gid 0: one global row
    g0 = out[out["gid"] == 0]
    assert len(g0) == 1 and g0["a"].iloc[0] == "(all)" == g0["b"].iloc[0]
    assert g0["n"].iloc[0] == 400
    assert abs(g0["sum_value"].iloc[0] - df["v"].sum()) < 1e-9
    # gid 3: full cross grouping matches pandas
    want = (df.assign(a=df["a"].astype(str), b=df["b"].astype(str))
            .groupby(["a", "b"], as_index=False)
            .agg(n=("v", "size"), sum_value=("v", "sum")))
    g3 = out[out["gid"] == 3].reset_index(drop=True)
    m = g3.merge(want, on=["a", "b"], suffixes=("_got", "_want"))
    assert len(m) == len(want) == len(g3)
    assert (m["n_got"] == m["n_want"]).all()
    assert np.allclose(m["sum_value_got"], m["sum_value_want"], atol=1e-9)
    # per-set row counts
    assert len(out[out["gid"] == 1]) == df["a"].nunique()
    assert len(out[out["gid"] == 2]) == df["b"].nunique()


def test_asof_broadcast_string_and_numericstring_keys(ray_session):
    # ADVICE round-3: the broadcast index used int(k), crashing on string
    # keys and collapsing '01'/'1'.  Parity with the co-partitioned form
    # must hold for arbitrary key types.
    from text_to_rdf_ray.stages.joins import asof_join, asof_join_broadcast

    left = pd.DataFrame({"k": ["01", "1", "a", "a", "zz"],
                         "lt": [10, 10, 5, 50, 7],
                         "l_id": [0, 1, 2, 3, 4]})
    right = pd.DataFrame({"k": ["01", "1", "a", "b"],
                          "rt": [3, 8, 4, 1],
                          "r_id": [10, 11, 12, 13],
                          "rv": [0.1, 0.2, 0.3, 0.4]})
    kw = dict(key_col="k", left_ts="lt", right_ts="rt", tiebreak_col="r_id")
    a = asof_join(rd.from_pandas(left), rd.from_pandas(right), **kw).to_pandas()
    b = asof_join_broadcast(rd.from_pandas(left), rd.from_pandas(right),
                            **kw).to_pandas()
    cols = ["k", "lt", "l_id", "r_id", "rv"]
    pd.testing.assert_frame_equal(
        a[cols].sort_values("l_id").reset_index(drop=True),
        b[cols].sort_values("l_id").reset_index(drop=True))
    # '01' and '1' must resolve to DIFFERENT right rows
    byid = b.set_index("l_id")
    assert byid.loc[0, "r_id"] == 10 and byid.loc[1, "r_id"] == 11


def test_group_quantiles_null_values_ignored(ray_session):
    # ADVICE round-3: NaN ran through floor->int64 into bin 0, injecting
    # phantom histogram counts.  Policy: nulls are skipped in every pass
    # (matching pyarrow count/min/max in pass A).
    from text_to_rdf_ray.stages.analytics import group_quantiles_exact

    vals = np.concatenate([RNG.random(2_000) * 100, [np.nan] * 137])
    RNG.shuffle(vals)
    df = pd.DataFrame({"g": "x", "v": vals})
    out = group_quantiles_exact(rd.from_pandas(df), key_col="g",
                                value_col="v", qs=[0.25, 0.5, 0.9], n_bins=32)
    clean = df["v"].dropna().to_numpy()
    row = out.iloc[0]
    assert row["n"] == len(clean)
    for q in (0.25, 0.5, 0.9):
        assert np.isclose(row[f"q_{q}"], np.quantile(clean, q), atol=1e-9)


def test_hll_registers_rejects_inexact_p(ray_session):
    # ADVICE round-3: frexp rank extraction is exact only when the low-bit
    # field fits float64's 53-bit mantissa (p >= 11).
    from text_to_rdf_ray.stages.analytics import hll_registers

    with pytest.raises(ValueError, match="p >= 11"):
        hll_registers(np.arange(10, dtype=np.int64), p=10)
    assert hll_registers(np.arange(10, dtype=np.int64), p=11).shape == (2048,)


def test_inverted_index_chunked_and_stoplist(ray_session):
    from text_to_rdf_ray.stages.curation import inverted_index
    from text_to_rdf_ray.state import counters

    # "the" appears in all 10 docs -> 4 chunks at chunk_ids=3; chunk
    # reassembly in chunk_seq order must equal the unchunked posting list
    docs = [{"doc_id": i, "text": f"the x{i}"} for i in range(10)]
    out = (inverted_index(rd.from_items(docs).repartition(4), chunk_ids=3)
           .to_pandas())
    the = out[out["term"] == "the"].sort_values("chunk_seq")
    assert list(the["chunk_seq"]) == [0, 1, 2, 3]
    assert (the["df"] == 10).all()
    assert ",".join(the["postings"]) == ",".join(str(i) for i in range(10))
    assert all(len(p.split(",")) == 3 for p in the["postings"].iloc[:-1])

    # df-threshold stop-list drops the hot term, counted (no silent caps)
    counters.snapshot(reset=True)
    out2 = (inverted_index(rd.from_items(docs).repartition(4),
                           chunk_ids=3, max_df=5).to_pandas())
    assert "the" not in set(out2["term"])
    assert len(out2) == 10  # the x0..x9 singleton terms survive
    snap = counters.snapshot()
    assert snap.get("invindex_stoplist_terms", 0) == 1
    assert snap.get("invindex_stoplist_postings", 0) == 10


def test_exchange_join_parity_and_bigint_payloads(ray_session):
    """exchange_join must match Dataset.join for inner and left_outer —
    including 63-bit int64 payloads under null padding (a pandas-merge
    implementation would coerce them to float64 and corrupt them)."""
    import pyarrow as pa

    from text_to_rdf_ray.stages.exchange import exchange_join

    big = (1 << 62) + 12345  # not exactly representable in float64
    a = rd.from_arrow(pa.table({
        "k": [f"s{i}" for i in range(200)],
        "k2": pa.array(list(range(200)), pa.int64()),
        "v": pa.array([big + i for i in range(200)], pa.int64()),
    })).repartition(4).materialize()
    b = rd.from_arrow(pa.table({
        "k": [f"s{i}" for i in range(0, 400, 2)],
        "k2": pa.array(list(range(0, 400, 2)), pa.int64()),
        "w": pa.array([big + 7 * i for i in range(200)], pa.int64()),
        "lbl": [f"w{i}" for i in range(200)],
    })).repartition(3).materialize()

    for how, rayhow in (("inner", "inner"), ("left_outer", "left_outer")):
        got = exchange_join(a, b, on=("k", "k2"), how=how,
                            num_partitions=8).to_pandas()
        want = a.join(b, join_type=rayhow, num_partitions=8,
                      on=("k", "k2")).to_pandas()
        cols = ["k", "k2", "v", "w", "lbl"]
        gs = got[cols].sort_values("k2").reset_index(drop=True)
        ws = want[cols].sort_values("k2").reset_index(drop=True)
        pd.testing.assert_frame_equal(gs, ws)
        # the matched big ints survived exactly
        matched = gs[gs["w"].notna()]
        assert (matched["v"].astype("int64") - big
                == matched["k2"].astype("int64")).all()

    # key missing from a side / payload collision raise
    with pytest.raises(ValueError, match="missing"):
        exchange_join(a, b.select_columns(["k", "w"]), on=("k", "k2"))
    with pytest.raises(ValueError, match="collision"):
        exchange_join(a, a, on="k")


def test_exchange_join_full_outer_matches_pandas(ray_session):
    """full_outer: keys coalesced from whichever side matched, both
    payloads nullable, row multiplicity identical to a pandas outer
    merge (left-only + right-only + all match pairs)."""
    import numpy as np
    import pyarrow as pa

    from text_to_rdf_ray.stages.exchange import exchange_join

    rng = np.random.RandomState(5)
    la = pd.DataFrame({
        "k": rng.randint(0, 50, size=120).astype(np.int64),
        "v": np.arange(120, dtype=np.int64),
    })
    rb = pd.DataFrame({
        "k": rng.randint(25, 75, size=90).astype(np.int64),
        "w": np.arange(90, dtype=np.int64) * 10,
    })
    got = (exchange_join(rd.from_pandas(la).repartition(3),
                         rd.from_pandas(rb).repartition(4),
                         on="k", how="full_outer", num_partitions=8)
           .to_pandas())
    want = la.merge(rb, on="k", how="outer")
    # no null keys; sides null exactly where pandas says
    assert got["k"].notna().all()
    for df in (got, want):
        df.sort_values(["k", "v", "w"], inplace=True,
                       na_position="last")
        df.reset_index(drop=True, inplace=True)
    assert len(got) == len(want)
    assert (got["k"].to_numpy() == want["k"].to_numpy()).all()
    pd.testing.assert_series_equal(got["v"].astype("float64"),
                                   want["v"].astype("float64"),
                                   check_names=False)
    pd.testing.assert_series_equal(got["w"].astype("float64"),
                                   want["w"].astype("float64"),
                                   check_names=False)


def test_exchange_agg_matches_pandas_groupby(ray_session):
    """exchange_agg (combine on and off) must equal a pandas groupby on
    random multi-type keys, including count re-reduction and floats."""
    import pyarrow as pa

    from text_to_rdf_ray.stages.exchange import exchange_agg

    rng = np.random.RandomState(3)
    n = 5000
    df = pd.DataFrame({
        "k1": rng.choice(list("abcdefgh"), n),
        "k2": rng.randint(0, 37, n).astype("int64"),
        "v": rng.randn(n),
        "w": rng.randint(-1000, 1000, n).astype("int64"),
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(9)
    want = (df.groupby(["k1", "k2"], as_index=False)
            .agg(vmin=("v", "min"), vmax=("v", "max"), wsum=("w", "sum"),
                 cnt=("w", "count")))
    for combine in (True, False):
        got = exchange_agg(
            ds, ["k1", "k2"],
            [("v", "min", "vmin"), ("v", "max", "vmax"),
             ("w", "sum", "wsum"), ("w", "count", "cnt")],
            num_partitions=7, combine=combine,
        ).to_pandas()
        g = got.sort_values(["k1", "k2"]).reset_index(drop=True)
        w = want.sort_values(["k1", "k2"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            g[["k1", "k2", "vmin", "vmax", "wsum"]],
            w[["k1", "k2", "vmin", "vmax", "wsum"]])
        assert (g["cnt"].to_numpy() == w["cnt"].to_numpy()).all()
    # bare distinct
    got = exchange_agg(ds, ["k1", "k2"], num_partitions=5).to_pandas()
    assert len(got) == len(want)
    assert set(map(tuple, got[["k1", "k2"]].itertuples(index=False))) == \
        set(map(tuple, want[["k1", "k2"]].itertuples(index=False)))


def test_chained_exchange_matches_dataset_form(ray_session, monkeypatch,
                                               partition_counts):
    """An exchange_blocks (a salted partial min) chained into an
    agg_blocks (the min per key) must equal the pandas groupby min, with
    both exchanges at P=8, flat and through the forced tree combine."""
    import pyarrow as pa
    from ray.data import DataContext

    from text_to_rdf_ray.stages import bsp
    from text_to_rdf_ray.stages.bsp import exchange_blocks
    from text_to_rdf_ray.stages.exchange import agg_blocks

    rng = np.random.RandomState(11)
    n = 4000
    key = rng.randint(0, 130, n).astype("int64")
    salt = rng.randint(0, 4, n).astype("int64")
    val = rng.randint(0, 10**9, n).astype("int64")
    t = pa.table({
        "key": pa.array(key), "salt": pa.array(salt), "val": pa.array(val),
        "p1": pa.array(((key * 31 + salt) % 16).astype("int32"), pa.int32()),
    })
    ds = rd.from_arrow(t).repartition(6)

    def r1(g: pa.Table) -> pa.Table:
        r = g.group_by(["key", "salt"]).aggregate([("val", "min")])
        return pa.table({"key": r.column("key"), "val": r.column("val_min")})

    # one partition per byte of input: both exchanges at their cap
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", 1)

    def run():
        out = agg_blocks(exchange_blocks(ds, "p1", r1, max_parts=8), "key",
                         [("val", "min")], num_partitions=8)
        return (out.dataset().to_pandas().sort_values("key")
                .reset_index(drop=True))

    want = (pd.DataFrame({"key": key, "val": val})
            .groupby("key", as_index=False)["val"].min())
    g = run()
    assert partition_counts == [8, 8]
    assert (g["key"].to_numpy() == want["key"].to_numpy()).all()
    assert (g["val"].to_numpy() == want["val"].to_numpy()).all()

    # forced tree combine (the >512-part object-count path) must be
    # bit-identical to the flat exchange
    monkeypatch.setattr(bsp, "TREE_COMBINE_THRESHOLD", 0)
    pd.testing.assert_frame_equal(run(), g)


def test_set_op_rows_except_intersect_match_pandas(ray_session):
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import set_op_rows

    left_rows = [{"a": i % 13, "b": f"s{i % 7}"} for i in range(300)]
    right_rows = [{"a": i % 9, "b": f"s{i % 7}"} for i in range(200)]
    la = rd.from_items(left_rows).repartition(5)
    rb = rd.from_items(right_rows).repartition(3)

    ldf = pd.DataFrame(left_rows).drop_duplicates()
    rdf = pd.DataFrame(right_rows).drop_duplicates()
    m = ldf.merge(rdf, on=["a", "b"], how="left", indicator=True)

    for op, keep in (("except", "left_only"), ("intersect", "both")):
        got = (set_op_rows(la, rb, cols=["a", "b"], op=op).to_pandas()
               .sort_values(["a", "b"]).reset_index(drop=True))
        want = (m[m["_merge"] == keep][["a", "b"]]
                .sort_values(["a", "b"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    with pytest.raises(ValueError):
        set_op_rows(la, rb, cols=["a"], op="union")


def test_windowed_approx_distinct_accuracy_and_p_guard(ray_session):
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import windowed_approx_distinct

    # 3 windows x known distinct counts (users overlap across windows)
    rows = []
    for w, n_users in ((0, 50), (1, 400), (2, 3)):
        for u in range(n_users):
            for rep in range(2):  # duplicates must not inflate the estimate
                rows.append({"ts": w * 3_600_000_000 + u * 1000 + rep,
                             "user_id": u})
    ds = rd.from_items(rows).repartition(6)
    # from_items gives int ts; operator casts via timestamp("us")
    import pyarrow as pa

    ds = ds.map_batches(
        lambda t: pa.table({
            "ts": t.column("ts").cast(pa.int64()).cast(pa.timestamp("us")),
            "user_id": t.column("user_id").cast(pa.int64())}),
        batch_format="pyarrow")
    out = (windowed_approx_distinct(ds, ts_col="ts", id_col="user_id",
                                    width_us=3_600_000_000, p=12)
           .to_pandas().set_index("window_id")["hll_estimate"])
    for w, n in ((0, 50), (1, 400), (2, 3)):
        assert abs(out[w] - n) / n < 0.1, (w, n, out[w])
    with pytest.raises(ValueError):
        windowed_approx_distinct(ds, p=8)


def test_funnel_matches_bruteforce(ray_session):
    from text_to_rdf_ray.stages.windows import funnel

    rng = np.random.RandomState(17)
    rows = []
    for i in range(600):
        rows.append({
            "user_id": int(rng.randint(0, 40)),
            "ts": pd.Timestamp("2024-01-01") + pd.Timedelta(
                seconds=int(rng.randint(0, 86400))),
            "event_type": str(rng.choice(["a", "b", "c", "noise"])),
        })
    df = pd.DataFrame(rows)
    ds = rd.from_pandas(df).repartition(6)
    out = (funnel(ds, steps=["a", "b", "c"], num_partitions=8)
           .to_pandas().sort_values("step").reset_index(drop=True))

    # brute force: per user, earliest qualifying event per step
    counts = [0, 0, 0]
    for _, g in df.groupby("user_id"):
        prev = None
        for si, s in enumerate(["a", "b", "c"]):
            ev = g[(g["event_type"] == s)
                   & ((g["ts"] > prev) if prev is not None else True)]
            if ev.empty:
                break
            prev = ev["ts"].min()
            counts[si] += 1
    assert out["n_users"].tolist() == counts
    assert out["step_name"].tolist() == ["a", "b", "c"]
    assert counts[0] >= counts[1] >= counts[2] > 0


def test_funnel_strictly_after_semantics(ray_session):
    from text_to_rdf_ray.stages.windows import funnel

    t0 = pd.Timestamp("2024-01-01")
    rows = [
        # u1 converts fully; u2's 'b' is simultaneous with 'a' (excluded);
        # u3 does b before a (no conversion past step 1)
        {"user_id": 1, "ts": t0, "event_type": "a"},
        {"user_id": 1, "ts": t0 + pd.Timedelta(seconds=1), "event_type": "b"},
        {"user_id": 2, "ts": t0, "event_type": "a"},
        {"user_id": 2, "ts": t0, "event_type": "b"},
        {"user_id": 3, "ts": t0 - pd.Timedelta(seconds=5), "event_type": "b"},
        {"user_id": 3, "ts": t0, "event_type": "a"},
    ]
    out = (funnel(rd.from_pandas(pd.DataFrame(rows)), steps=["a", "b"],
                  num_partitions=4)
           .to_pandas().sort_values("step"))
    assert out["n_users"].tolist() == [3, 1]


def test_retention_matches_bruteforce(ray_session):
    from text_to_rdf_ray.stages.windows import retention

    rng = np.random.RandomState(29)
    rows = [{"user_id": int(rng.randint(0, 25)),
             "ts": pd.Timestamp("2024-03-01")
             + pd.Timedelta(hours=int(rng.randint(0, 24 * 40)))}
            for _ in range(800)]
    df = pd.DataFrame(rows)
    ds = rd.from_pandas(df).repartition(6)
    out = (retention(ds, max_offset=10, num_partitions=8).to_pandas()
           .sort_values(["cohort_day", "day_offset"]).reset_index(drop=True))

    act = df.assign(day=df["ts"].dt.normalize().astype("int64")
                    // 86_400_000_000_000).drop_duplicates(
        ["user_id", "day"])[["user_id", "day"]]
    coh = act.groupby("user_id")["day"].min().rename("cohort_day")
    m = act.merge(coh, on="user_id")
    m["day_offset"] = m["day"] - m["cohort_day"]
    want = (m[m["day_offset"] <= 10]
            .groupby(["cohort_day", "day_offset"]).size()
            .rename("n_users").reset_index()
            .sort_values(["cohort_day", "day_offset"])
            .reset_index(drop=True))
    for c in want.columns:
        want[c] = want[c].astype("int64")
    assert out.equals(want)
    # day-0 cohort sizes must sum to the distinct user count
    assert out[out["day_offset"] == 0]["n_users"].sum() == df["user_id"].nunique()


def test_group_corr_matches_pandas(ray_session):
    from text_to_rdf_ray.stages.analytics import group_corr

    rng = np.random.RandomState(31)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], 900),
        "x": rng.randn(900),
    })
    df["y"] = 0.5 * df["x"] + rng.randn(900) * 0.3
    ds = rd.from_pandas(df).repartition(7)
    out = (group_corr(ds, key_col="k", x_col="x", y_col="y",
                      num_partitions=4)
           .to_pandas().sort_values("k").reset_index(drop=True))
    want = df.groupby("k").apply(
        lambda g: g["x"].corr(g["y"]), include_groups=False)
    assert out["k"].tolist() == ["a", "b", "c"]
    for _, row in out.iterrows():
        assert abs(row["corr"] - want[row["k"]]) < 1e-6
        assert row["n"] == (df["k"] == row["k"]).sum()


def test_group_corr_drops_degenerate_keys(ray_session):
    from text_to_rdf_ray.stages.analytics import group_corr

    df = pd.DataFrame({
        "k": ["const", "const", "single", "ok", "ok", "ok"],
        "x": [1.0, 1.0, 2.0, 1.0, 2.0, 3.0],   # zero variance for 'const'
        "y": [5.0, 6.0, 2.0, 1.0, 2.0, 3.0],
    })
    df = pd.concat([df, df[df["k"] == "ok"]])  # n>=2 for 'ok'
    out = group_corr(rd.from_pandas(df), key_col="k", x_col="x",
                     y_col="y").to_pandas()
    assert set(out["k"]) == {"ok"}
    assert abs(out["corr"].iloc[0] - 1.0) < 1e-9


def test_winsorized_mean_matches_pandas(ray_session):
    from text_to_rdf_ray.stages.analytics import winsorized_mean

    rng = np.random.RandomState(7)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], 3_000),
        "v": rng.lognormal(3.0, 1.5, 3_000),  # heavy right tail
    })
    out = (winsorized_mean(rd.from_pandas(df).repartition(6),
                           key_col="k", value_col="v", num_partitions=4)
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["k"].tolist() == ["a", "b", "c"]
    for _, row in out.iterrows():
        vals = df[df["k"] == row["k"]]["v"].to_numpy()
        lo, hi = np.quantile(vals, 0.05), np.quantile(vals, 0.95)
        want = np.clip(vals, lo, hi).mean()
        assert row["n"] == len(vals)
        assert abs(row["w_mean"] - want) < 1e-5, (row["k"], row["w_mean"], want)
        # winsorizing a heavy tail must pull the mean DOWN vs the raw mean
        assert row["w_mean"] < vals.mean()


def test_winsorized_mean_empty(ray_session):
    from text_to_rdf_ray.stages.analytics import winsorized_mean

    ds = rd.from_pandas(pd.DataFrame({"k": pd.Series(dtype=str),
                                      "v": pd.Series(dtype="float64")}))
    out = winsorized_mean(ds, key_col="k", value_col="v")
    # zero-row to_pandas loses columns in Ray 2.49 — assert on the schema
    assert out.schema().names == ["k", "n", "w_mean"]
    assert out.count() == 0


def test_quantile_bucket_matches_numpy(ray_session):
    from text_to_rdf_ray.stages.analytics import quantile_bucket

    rng = np.random.RandomState(11)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], 2_000),
        "id": np.arange(2_000),
        "v": np.round(rng.random(2_000) * 100, 2),  # 2dp ties like prices
    })
    out = (quantile_bucket(rd.from_pandas(df).repartition(5),
                           key_col="k", value_col="v", n_buckets=4)
           .to_pandas().sort_values("id").reset_index(drop=True))
    for g, sub in df.groupby("k"):
        bounds = np.quantile(sub["v"].to_numpy(), [0.25, 0.5, 0.75])
        want = 1 + (sub["v"].to_numpy()[:, None] > bounds).sum(axis=1)
        got = out[out["k"] == g].sort_values("id")["bucket"].to_numpy()
        assert (got == want).all()
    # each bucket ~25% of its group
    for (g, b), sub in out.groupby(["k", "bucket"]):
        n_g = (out["k"] == g).sum()
        assert abs(len(sub) / n_g - 0.25) < 0.05, (g, b, len(sub), n_g)


def test_group_zscore_matches_pandas(ray_session):
    from text_to_rdf_ray.stages.analytics import group_zscore

    rng = np.random.RandomState(13)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], 1_500),
        "id": np.arange(1_500),
        "v": rng.randn(1_500) * 40 + 500,
    })
    df.loc[df["k"] == "c", "v"] = 7.0  # zero-variance group -> z = 0
    out = (group_zscore(rd.from_pandas(df).repartition(4),
                        key_col="k", value_col="v")
           .to_pandas().sort_values("id").reset_index(drop=True))
    want = df.sort_values("id").groupby("k")["v"].transform(
        lambda s: (s - s.mean()) / s.std(ddof=0) if s.std(ddof=0) > 0 else 0.0)
    assert np.allclose(out["z"].to_numpy(), want.to_numpy(), atol=2e-6)


def test_group_mode_matches_pandas(ray_session):
    from text_to_rdf_ray.stages.analytics import group_mode

    rng = np.random.RandomState(17)
    df = pd.DataFrame({
        "k": rng.choice(["x", "y", "z"], 3_000),
        "v": rng.choice(["en", "de", "fr", "es"], 3_000, p=[.5, .3, .1, .1]),
    })
    # force a tie in one group: mode must break ascending on value
    df = pd.concat([df, pd.DataFrame({"k": ["tie"] * 4,
                                      "v": ["bb", "aa", "bb", "aa"]})])
    out = (group_mode(rd.from_pandas(df).repartition(6),
                      key_col="k", value_col="v")
           .to_pandas().sort_values("k").reset_index(drop=True))
    for _, row in out.iterrows():
        vc = df[df["k"] == row["k"]]["v"].value_counts()
        top = vc[vc == vc.max()].index.min()  # ties -> lexicographic min
        assert row["v"] == top and row["n"] == vc.max(), row["k"]
    assert out[out["k"] == "tie"]["v"].iloc[0] == "aa"


@pytest.mark.parametrize("anti", [False, True])
def test_semi_join_bloom_parity(ray_session, anti):
    from text_to_rdf_ray.stages.joins import semi_join_bloom, semi_join_filter

    rng = np.random.RandomState(23)
    big = rd.from_pandas(pd.DataFrame({
        "k": rng.randint(0, 5_000, 20_000).astype(np.int64),
        "v": np.arange(20_000, dtype=np.int64),
    })).repartition(8)
    keys = rd.from_pandas(pd.DataFrame({
        "k": rng.randint(0, 5_000, 3_000).astype(np.int64)}))
    # 256-bit bloom -> saturated filter, heavy false-positive load on the
    # verify exchange; result must still be EXACT
    got = (semi_join_bloom(big, keys, key_col="k", anti=anti, n_bits=256)
           .to_pandas().sort_values("v").reset_index(drop=True))
    want = (semi_join_filter(big, keys, key_col="k", anti=anti)
            .to_pandas().sort_values("v").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[["k", "v"]], want[["k", "v"]])


def test_semi_join_bloom_string_keys_and_empty(ray_session):
    from text_to_rdf_ray.stages.joins import semi_join_bloom

    big = rd.from_pandas(pd.DataFrame({
        "k": [f"dom{i % 7}.com" for i in range(200)],
        "v": np.arange(200, dtype=np.int64)}))
    keys = rd.from_pandas(pd.DataFrame({"kc": ["dom1.com", "dom3.com"]}))
    semi = semi_join_bloom(big, keys, key_col="k", keys_col="kc",
                           n_bits=1 << 10).to_pandas()
    assert set(semi["k"]) == {"dom1.com", "dom3.com"}
    # empty key side: semi empty, anti keeps everything
    empty = rd.from_pandas(pd.DataFrame({"kc": pd.Series(dtype=str)}))
    assert semi_join_bloom(big, empty, key_col="k", keys_col="kc",
                           n_bits=1 << 10).count() == 0
    assert semi_join_bloom(big, empty, key_col="k", keys_col="kc", anti=True,
                           n_bits=1 << 10).count() == 200


def test_group_ols_matches_numpy(ray_session):
    """group_ols slope/intercept must equal numpy polyfit per key."""
    import numpy as np

    from text_to_rdf_ray.stages.analytics import group_ols

    rng = np.random.RandomState(11)
    n = 5000
    df = pd.DataFrame({
        "k": rng.randint(0, 40, size=n).astype(np.int64),
        "x": rng.uniform(0, 10, size=n),
        "y": 0.0,
    })
    df["y"] = 3.0 * df["x"] - 2.0 + rng.standard_normal(n)
    out = (group_ols(rd.from_pandas(df).repartition(5),
                     key_col="k", x_col="x", y_col="y")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert len(out) == 40
    for _, row in out.iterrows():
        sub = df[df["k"] == row["k"]]
        want_m, want_b = np.polyfit(sub["x"], sub["y"], 1)
        assert abs(row["slope"] - want_m) < 1e-4, row["k"]
        assert abs(row["intercept"] - want_b) < 1e-4, row["k"]
        assert row["n"] == len(sub)
    # degenerate keys dropped: constant x and n=1
    dg = pd.DataFrame({"k": [100, 100, 101], "x": [2.0, 2.0, 1.0],
                       "y": [1.0, 2.0, 3.0]})
    out2 = group_ols(rd.from_pandas(dg), key_col="k",
                     x_col="x", y_col="y").to_pandas()
    assert out2.empty or not set(out2["k"]) & {100, 101}


def test_broadcast_join_inner_left_and_cap(ray_session):
    import pytest

    from text_to_rdf_ray.stages.joins import broadcast_join

    big = rd.from_pandas(pd.DataFrame({
        "k": [1, 2, 2, 3, 9], "v": [10, 20, 21, 30, 90]})).repartition(3)
    small = pd.DataFrame({"k": [1, 2, 2, 4], "name": ["a", "b", "b2", "d"]})

    inner = (broadcast_join(big, small, on="k").to_pandas()
             .sort_values(["k", "v", "name"]).reset_index(drop=True))
    expect = (pd.DataFrame({"k": [1, 2, 2, 2, 2],
                            "v": [10, 20, 20, 21, 21],
                            "name": ["a", "b", "b2", "b", "b2"]})
              .sort_values(["k", "v", "name"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(inner, expect, check_dtype=False)

    left = (broadcast_join(big, small, on="k", how="left").to_pandas()
            .sort_values(["k", "v", "name"]).reset_index(drop=True))
    assert len(left) == 7  # 5 rows, k=2 rows doubled, k=3/9 kept null
    assert left[left["k"] == 9]["name"].isna().all()

    with pytest.raises(ValueError):
        broadcast_join(big, small, on="k", max_rows=2)
    with pytest.raises(ValueError):
        broadcast_join(big, small, on="k", how="full_outer")


def test_pivot_agg_matches_pandas(ray_session):
    import pytest

    from text_to_rdf_ray.stages.analytics import pivot_agg

    rng = np.random.RandomState(7)
    df = pd.DataFrame({
        "g": rng.randint(0, 20, 500),
        "t": rng.choice(["a", "b", "c", "dd"], 500),
        "v": np.round(rng.rand(500), 3),
    })
    out = (pivot_agg(rd.from_pandas(df).repartition(5), index_col="g",
                     pivot_col="t", value_col="v").to_pandas()
           .sort_values("g").reset_index(drop=True))
    expect = (pd.pivot_table(df, index="g", columns="t", values="v",
                             aggfunc="sum", fill_value=0.0)
              .reindex(columns=["a", "b", "c", "dd"], fill_value=0.0))
    expect.columns = ["t_a", "t_b", "t_c", "t_dd"]
    expect = expect.reset_index()
    for c in ["t_a", "t_b", "t_c", "t_dd"]:
        assert np.allclose(out[c], expect[c], atol=1e-9)
    cnt = (pivot_agg(rd.from_pandas(df), index_col="g", pivot_col="t",
                     value_col="v", agg="count").to_pandas())
    assert cnt[["t_a", "t_b", "t_c", "t_dd"]].to_numpy().sum() == 500
    with pytest.raises(ValueError):
        pivot_agg(rd.from_pandas(df), index_col="g", pivot_col="t",
                  value_col="v", max_pivot_values=2)


def test_upsert_merge_latest_wins(ray_session):
    from text_to_rdf_ray.stages.joins import upsert_merge

    base = pd.DataFrame({
        "k": [1, 2, 3, 3], "ver": [5, 5, 1, 2],
        "id": [10, 11, 12, 13], "val": ["b1", "b2", "b3a", "b3b"]})
    upd = pd.DataFrame({
        "k": [2, 3, 4], "ver": [5, 1, 9],
        "id": [20, 12, 22], "val": ["u2", "u3", "u4"]})
    out = (upsert_merge(rd.from_pandas(base).repartition(2),
                        rd.from_pandas(upd),
                        key_col="k", order_col="ver", tiebreak_col="id")
           .to_pandas().sort_values("k").reset_index(drop=True))
    # k=1: only base. k=2: tie on ver=5 -> update wins. k=3: base ver=2
    # beats update ver=1. k=4: only update.
    assert out["val"].tolist() == ["b1", "u2", "b3b", "u4"]
    assert list(out.columns) == ["k", "ver", "id", "val"]


def test_percentile_rank_matches_pandas(ray_session):
    import pytest

    from text_to_rdf_ray.stages.analytics import percentile_rank

    rng = np.random.RandomState(3)
    vals = np.round(rng.rand(400) * 10, 1)  # many ties
    df = pd.DataFrame({"id": np.arange(400), "value": vals})
    out = (percentile_rank(rd.from_pandas(df).repartition(5),
                           value_col="value").to_pandas()
           .sort_values("id").reset_index(drop=True))
    expect = df["value"].rank(method="min").sub(1).div(len(df) - 1)
    assert np.allclose(out["pct_rank"], expect, atol=1e-12)
    with pytest.raises(ValueError):
        percentile_rank(rd.from_pandas(df), value_col="value",
                        max_distinct=3).to_pandas()


def test_range_sort_exact_global_order(ray_session):
    from text_to_rdf_ray.stages.analytics import range_sort

    rng = np.random.RandomState(11)
    df = pd.DataFrame({"id": np.arange(2000),
                       "v": np.round(rng.rand(2000) * 5, 2)})  # ties
    out = (range_sort(rd.from_pandas(df).repartition(7), key_col="v",
                      tiebreak_col="id", num_partitions=6).to_pandas())
    expect = df.sort_values(["v", "id"]).reset_index(drop=True)
    got = out.sort_values("global_pos").reset_index(drop=True)
    assert got["global_pos"].tolist() == list(range(2000))
    assert got["id"].tolist() == expect["id"].tolist()


def test_table_diff_statuses(ray_session):
    from text_to_rdf_ray.stages.analytics import table_diff

    old = pd.DataFrame({"k": [1, 2, 3, 4],
                        "a": ["x", "y", "z", "w"], "b": [1.0, 2, 3, 4]})
    new = pd.DataFrame({"k": [2, 3, 4, 5],
                        "a": ["y", "zz", "w", "n"], "b": [2.0, 3, 4, 9]})
    out = (table_diff(rd.from_pandas(old).repartition(2),
                      rd.from_pandas(new).repartition(3),
                      key_col="k", compare_cols=["a", "b"]).to_pandas()
           .sort_values("k").reset_index(drop=True))
    assert dict(zip(out["k"], out["status"])) == {
        1: "removed", 2: "unchanged", 3: "changed",
        4: "unchanged", 5: "added"}


def test_range_sort_int_keys_with_empty_blocks(ray_session):
    from text_to_rdf_ray.stages.analytics import range_sort

    df = pd.DataFrame({"id": np.arange(50), "v": np.arange(50)[::-1]})
    ds = rd.from_pandas(df).repartition(20)  # some near-empty blocks
    out = (range_sort(ds, key_col="v", tiebreak_col="id",
                      num_partitions=4).to_pandas()
           .sort_values("global_pos").reset_index(drop=True))
    assert out["v"].tolist() == list(range(50))


def test_key_skew_stats(ray_session):
    from text_to_rdf_ray.stages.analytics import key_skew_stats

    keys = np.r_[np.zeros(60, np.int64), np.arange(1, 41)]
    ds = rd.from_pandas(pd.DataFrame({"k": keys})).repartition(4)
    out = key_skew_stats(ds, key_col="k", top_n=3)
    assert out.iloc[0]["k"] == 0 and out.iloc[0]["cnt"] == 60
    assert out.iloc[0]["share"] == round(60 / 100, 9)
    assert (out["n_rows"] == 100).all() and (out["n_keys"] == 41).all()
    assert out["rank"].tolist() == [1, 2, 3]
    # ties among the count-1 keys break ascending on the key
    assert out.iloc[1]["k"] == 1 and out.iloc[2]["k"] == 2


def test_group_mad_matches_numpy(ray_session):
    from text_to_rdf_ray.stages.analytics import group_mad

    rng = np.random.RandomState(5)
    ks = np.repeat(["a", "b"], 300)
    vs = np.r_[rng.normal(10, 1, 300), rng.normal(-5, 2, 300)]
    vs[10] = 100.0  # outlier in group a
    vs = np.round(vs, 4)
    ds = rd.from_pandas(pd.DataFrame({"k": ks, "v": vs})).repartition(4)
    out = group_mad(ds, key_col="k", value_col="v")
    for _, r in out.iterrows():
        g = vs[ks == r["k"]]
        med = np.median(g)
        mad = np.median(np.abs(g - med))
        assert abs(r["median"] - med) < 1e-9
        assert abs(r["mad"] - mad) < 1e-9
        assert r["n_outliers"] == int(
            (np.abs(g - med) > 3 * 1.4826 * mad).sum())
    assert out[out["k"] == "a"]["n_outliers"].iloc[0] >= 1


def test_skew_join_parity_with_exchange_join(ray_session):
    """Planted hot key: skew_join (salted replication) returns exactly
    exchange_join's result for inner and left_outer, and the heavy path
    actually fires (counters)."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.joins import skew_join
    from text_to_rdf_ray.state import counters

    # key 7 is viral (600 of 700 left rows); right is dimension-shaped
    left = pd.DataFrame({
        "k": np.concatenate([np.full(600, 7, np.int64),
                             np.arange(100, dtype=np.int64) % 20]),
        "lv": np.arange(700, dtype=np.int64),
    })
    right = pd.DataFrame({
        "k": np.arange(15, dtype=np.int64),  # keys 15..19 left-unmatched
        "rv": np.arange(15, dtype=np.int64) * 10,
    })
    lds = rd.from_pandas(left).repartition(8)
    rds = rd.from_pandas(right).repartition(3)

    for how in ("inner", "left_outer"):
        counters.snapshot(reset=True)
        got = skew_join(lds, rds, on="k", how=how, heavy_threshold=50,
                        replicate=4, num_partitions=8).to_pandas()
        snap = counters.snapshot()
        assert snap.get("skewjoin_heavy_keys") == 1
        assert snap.get("skewjoin_replicated_rows", 0) >= 3  # key 7 x3 salts
        want = exchange_join(lds, rds, on="k", how=how,
                             num_partitions=8).to_pandas()
        key = ["k", "lv"]
        got = got.sort_values(key).reset_index(drop=True)[want.columns]
        want = want.sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_skew_join_no_heavy_keys_falls_back(ray_session):
    """Un-skewed input: no replication, same result, zero counters."""
    from text_to_rdf_ray.stages.joins import skew_join
    from text_to_rdf_ray.state import counters

    left = pd.DataFrame({"k": np.arange(50, dtype=np.int64) % 10,
                         "lv": np.arange(50, dtype=np.int64)})
    right = pd.DataFrame({"k": np.arange(10, dtype=np.int64),
                          "rv": np.arange(10, dtype=np.int64)})
    counters.snapshot(reset=True)
    got = skew_join(rd.from_pandas(left), rd.from_pandas(right), on="k",
                    heavy_threshold=100, replicate=4).to_pandas()
    assert counters.snapshot().get("skewjoin_replicated_rows", 0) == 0
    want = left.merge(right, on="k")
    got = got.sort_values(["k", "lv"]).reset_index(drop=True)[
        ["k", "lv", "rv"]]
    want = want.sort_values(["k", "lv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_skew_join_string_keys_and_guard(ray_session):
    """String keys route through the Index membership path; the
    max_heavy_keys guard raises."""
    from text_to_rdf_ray.stages.joins import skew_join

    left = pd.DataFrame({
        "k": ["hot"] * 80 + ["a", "b", "c", "d"] * 5,
        "lv": np.arange(100, dtype=np.int64),
    })
    right = pd.DataFrame({"k": ["hot", "a", "b", "z"],
                          "rv": np.arange(4, dtype=np.int64)})
    got = skew_join(rd.from_pandas(left), rd.from_pandas(right), on="k",
                    heavy_threshold=50, replicate=3).to_pandas()
    want = left.merge(right, on="k")
    got = got.sort_values(["k", "lv"]).reset_index(drop=True)[
        ["k", "lv", "rv"]]
    want = want.sort_values(["k", "lv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    with pytest.raises(ValueError, match="max_heavy_keys"):
        skew_join(rd.from_pandas(left), rd.from_pandas(right), on="k",
                  heavy_threshold=1, max_heavy_keys=2)


def _exchange_sides():
    rng = np.random.default_rng(3)
    left = pd.DataFrame({"k": rng.integers(0, 40, 500).astype(np.int64),
                         "a": np.arange(500, dtype=np.int64)})
    right = pd.DataFrame({"k": np.arange(20, 60, dtype=np.int64),
                          "b": np.arange(40, dtype=np.int64) * 2})
    return left, right


def _exchange_results(lds, rds) -> dict:
    """exchange_join (every how) and exchange_agg rows, sorted."""
    from text_to_rdf_ray.stages.exchange import exchange_agg, exchange_join

    out = {}
    for how in ("inner", "left_outer", "full_outer"):
        got = exchange_join(lds, rds, on="k", how=how,
                            num_partitions=8).to_pandas()
        out[how] = (got[["k", "a", "b"]]
                    .sort_values(["k", "a", "b"], na_position="last")
                    .reset_index(drop=True))
    agg = exchange_agg(lds, "k", [("a", "sum", "s"), ("a", "count", "n"),
                                  ("a", "min", "lo")], num_partitions=8)
    out["agg"] = agg.to_pandas().sort_values("k").reset_index(drop=True)
    return out


def _assert_same_results(got: dict, want: dict, what: str) -> None:
    for name in want:
        pd.testing.assert_frame_equal(got[name], want[name],
                                      obj=f"{name} ({what})")


def test_exchange_block_layout_parity(ray_session):
    """Block layout never changes exchange results: a many-block and a
    one-block input give the same rows."""
    left, right = _exchange_sides()
    many = _exchange_results(rd.from_pandas(left).repartition(16),
                             rd.from_pandas(right).repartition(4))
    one = _exchange_results(rd.from_pandas(left).repartition(1),
                            rd.from_pandas(right).repartition(1))
    _assert_same_results(many, one, "16 blocks vs 1")
    ref = left.merge(right, on="k")
    assert len(one["inner"]) == len(ref)
    assert one["agg"]["s"].tolist() == \
        left.groupby("k")["a"].sum().sort_index().tolist()


def test_exchange_same_rows_at_every_partition_count(ray_session,
                                                     monkeypatch,
                                                     partition_counts):
    """exchange_join / exchange_agg size P to their input: the sized
    P=1, a mid P, the cap and the cap as a forced tree combine all give
    the same rows.  P is driven through the Ray context's
    target_min_block_size."""
    from ray.data import DataContext

    from text_to_rdf_ray.stages import bsp

    left, right = _exchange_sides()
    lds = rd.from_pandas(left).repartition(6).materialize()
    rds = rd.from_pandas(right).repartition(3).materialize()
    ctx = DataContext.get_current()
    flat = bsp.TREE_COMBINE_THRESHOLD

    def results(part_bytes, tree_threshold):
        monkeypatch.setattr(ctx, "target_min_block_size", part_bytes)
        monkeypatch.setattr(bsp, "TREE_COMBINE_THRESHOLD", tree_threshold)
        partition_counts.clear()
        out = _exchange_results(lds, rds)
        return out, set(partition_counts)

    sized, ps = results(ctx.target_min_block_size, flat)
    assert ps == {1}, ps
    ref = left.merge(right, on="k", how="outer")
    assert len(sized["full_outer"]) == len(ref)
    for part_bytes, tree_threshold, want_ps in (
            (4 << 10, flat, None), (1, flat, {8}), (1, 0, {8})):
        got, ps = results(part_bytes, tree_threshold)
        if want_ps is None:
            # mid-size: more than one partition, below the cap
            assert ps and all(1 < p < 8 for p in ps), ps
        else:
            assert ps == want_ps, ps
        _assert_same_results(got, sized, f"P={sorted(ps)} "
                             f"tree threshold={tree_threshold}")


def test_exchange_pandas_block_input(ray_session, monkeypatch):
    """Pandas blocks (from_pandas, or a pandas map_batches) are
    normalized to Arrow before the reduce, at P=1 and above."""
    from ray.data import DataContext

    from text_to_rdf_ray.stages.exchange import exchange_agg, exchange_join

    left, right = _exchange_sides()
    ldf = rd.from_pandas([left.iloc[:250], left.iloc[250:]])
    rdf = rd.from_pandas(right)
    want = _exchange_results(
        rd.from_arrow(pa.Table.from_pandas(left, preserve_index=False)),
        rd.from_arrow(pa.Table.from_pandas(right, preserve_index=False)))
    ctx = DataContext.get_current()
    for part_bytes in (ctx.target_min_block_size, 1):
        monkeypatch.setattr(ctx, "target_min_block_size", part_bytes)
        _assert_same_results(_exchange_results(ldf, rdf), want,
                             f"from_pandas, part bytes {part_bytes}")
        mapped = rd.from_arrow(pa.Table.from_pandas(
            left, preserve_index=False)).map_batches(
                lambda b: b, batch_format="pandas")
        got = (exchange_agg(mapped, "k", [("a", "sum", "s")])
               .to_pandas().sort_values("k").reset_index(drop=True))
        assert got["s"].tolist() == want["agg"]["s"].tolist()
        assert exchange_join(mapped, rdf, on="k").count() == \
            len(want["inner"])


def test_exchange_tasks_normalize_pandas_blocks(ray_session, monkeypatch,
                                                partition_counts):
    """The raw-task exchanges read pandas blocks directly (no Arrow map
    in front): exchange_blocks and agg_blocks at P=1 and P=4."""
    from ray.data import DataContext

    from text_to_rdf_ray.stages.bsp import exchange_blocks
    from text_to_rdf_ray.stages.exchange import agg_blocks

    left, _ = _exchange_sides()
    df = left.assign(p=left["k"])
    ds = rd.from_pandas([df.iloc[:200], df.iloc[200:]])
    schema = pa.Schema.from_pandas(df, preserve_index=False)

    def total(t: pa.Table) -> pa.Table:
        return t.group_by("k").aggregate([("a", "sum")])

    want = df.groupby("k")["a"].sum().sort_index().tolist()
    # one partition per byte of input: each exchange at its cap
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", 1)
    for parts in (1, 4):
        partition_counts.clear()
        got = exchange_blocks(ds, "p", total, schema,
                              max_parts=parts).dataset()
        assert got.to_pandas().sort_values("k")["a_sum"].tolist() == want
        got = agg_blocks(ds, "k", [("a", "sum")],
                         num_partitions=parts).dataset()
        assert got.to_pandas().sort_values("k")["a"].tolist() == want
        assert partition_counts == [parts, parts]


def test_exchange_empty_input_keeps_declared_schema(ray_session):
    """An empty input gives an empty result typed like a non-empty one."""
    from text_to_rdf_ray.stages.exchange import (exchange_agg,
                                                 exchange_join,
                                                 join_out_schema)

    ls = pa.schema([("k", pa.int64()), ("a", pa.string())])
    rs = pa.schema([("k", pa.int64()), ("b", pa.float64())])
    empty_l = rd.from_arrow(ls.empty_table())
    right = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                    "b": pa.array([0.5, 1.5])}))
    for how in ("inner", "left_outer", "full_outer"):
        out = exchange_join(empty_l, right, on="k", how=how)
        assert out.count() == (2 if how == "full_outer" else 0)
        got = pa.schema(list(zip(out.schema().names, out.schema().types)))
        assert got == join_out_schema(ls, rs, "k"), how
    agg = exchange_agg(empty_l, "k", [("a", "min", "lo"), ("a", "count", "n")])
    assert agg.count() == 0
    assert agg.schema().names == ["k", "lo", "n"]
    assert agg.schema().types == [pa.int64(), pa.string(), pa.int64()]


def _keyed_frame(n=600, n_keys=40):
    rng = np.random.default_rng(3)
    return pd.DataFrame({
        "k": rng.integers(0, n_keys, n).astype("int64"),
        "s": [f"s{i % 7}" for i in range(n)],
        "v": rng.random(n)})


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return (df.sort_values(["k", "s"]).reset_index(drop=True)
            .assign(t=lambda d: d["t"].round(9)))


def test_keyed_apply_same_rows_at_every_partition_count(ray_session,
                                                        monkeypatch,
                                                        partition_counts,
                                                        sized_and_capped):
    """keyed_apply gives the same rows at the sized P, at the cap, and
    with the tree combine forced at the cap."""
    from text_to_rdf_ray.stages import bsp
    from text_to_rdf_ray.stages.exchange import keyed_apply

    def per_key_sums(g: pd.DataFrame) -> pd.DataFrame:
        # nested: Ray workers cannot import this test module by name
        out = g.groupby(["k", "s"], as_index=False).agg(n=("v", "size"),
                                                        t=("v", "sum"))
        out["n"] = out["n"].astype("int64")
        return out

    df = _keyed_frame()
    ds = rd.from_pandas(df).repartition(6).materialize()
    want = _canon(per_key_sums(df))

    def run():
        return _canon(keyed_apply(ds, ["k", "s"], per_key_sums,
                                  num_partitions=8).to_pandas())

    (sized, p_sized), (capped, p_capped) = sized_and_capped(run)
    assert p_sized == [1] and p_capped == [8]
    pd.testing.assert_frame_equal(sized, want)
    pd.testing.assert_frame_equal(capped, want)
    # still one partition per byte: the cap, now as a two-level tree
    monkeypatch.setattr(bsp, "TREE_COMBINE_THRESHOLD", 0)
    partition_counts.clear()
    pd.testing.assert_frame_equal(run(), want)
    assert sorted(set(partition_counts)) == [8]


def test_keyed_apply_never_calls_per_part_on_an_empty_frame(ray_session,
                                                            monkeypatch):
    """At a cap far above the key count most partitions are empty:
    per_part sees only the non-empty ones, every key exactly once, and
    the result (no empty blocks) feeds to_pandas and exchange_agg."""
    from ray.data import DataContext

    from text_to_rdf_ray.stages.exchange import exchange_agg, keyed_apply

    ctx = DataContext.get_current()
    monkeypatch.setattr(ctx, "target_min_block_size", 1)
    df = pd.DataFrame({"k": np.arange(5, dtype="int64"),
                       "v": np.arange(5, dtype="float64")})
    # a pandas map_batches lineage as input (pandas blocks)
    src = rd.from_pandas(df).map_batches(lambda b: b, batch_format="pandas")

    def one_row_per_call(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [np.int64(len(g))]})

    calls = keyed_apply(src, "k", one_row_per_call,
                        num_partitions=64).to_pandas()["n"].tolist()
    assert all(n > 0 for n in calls) and sum(calls) == 5, calls

    out = keyed_apply(src, "k", lambda g: g, num_partitions=64)
    assert sorted(out.to_pandas()["k"].tolist()) == list(range(5))
    tot = exchange_agg(out, "k", [("v", "sum", "v")]).to_pandas()
    assert sorted(tot["v"].tolist()) == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_keyed_apply_empty_input_and_reserved_tag(ray_session):
    """An empty input gives an empty result without calling per_part;
    an input column named _part raises."""
    from text_to_rdf_ray.stages.exchange import keyed_apply

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        raise AssertionError("per_part called on an empty input")

    empty = rd.from_pandas(pd.DataFrame({"k": pd.Series(dtype="int64")}))
    out = keyed_apply(empty, "k", per_part)
    assert out.count() == 0 and len(out.to_pandas()) == 0
    bad = rd.from_pandas(pd.DataFrame({"k": [1], "_part": [2]}))
    with pytest.raises(Exception, match="_part.*reserved"):
        keyed_apply(bad, "k", lambda g: g).to_pandas()


def test_keyed_exchange_same_rows_at_every_partition_count(
        ray_session, monkeypatch, partition_counts, sized_and_capped):
    """keyed_exchange gives the same rows at the sized P, at the cap,
    and with the tree combine forced at the cap."""
    from text_to_rdf_ray.stages import bsp
    from text_to_rdf_ray.stages.exchange import keyed_exchange

    def per_key_sums(t: pa.Table) -> pa.Table:
        g = t.group_by(["k", "s"]).aggregate([("v", "count"), ("v", "sum")])
        return pa.table({"k": g["k"], "s": g["s"], "n": g["v_count"],
                         "t": g["v_sum"]})

    df = _keyed_frame()
    ds = rd.from_pandas(df).repartition(6).materialize()
    want = _canon(df.groupby(["k", "s"], as_index=False)
                  .agg(n=("v", "size"), t=("v", "sum"))
                  .astype({"n": "int64"}))

    def run():
        return _canon(keyed_exchange(ds, ["k", "s"], per_key_sums,
                                     num_partitions=8).to_pandas())

    (sized, p_sized), (capped, p_capped) = sized_and_capped(run)
    assert p_sized == [1] and p_capped == [8]
    pd.testing.assert_frame_equal(sized, want)
    pd.testing.assert_frame_equal(capped, want)
    monkeypatch.setattr(bsp, "TREE_COMBINE_THRESHOLD", 0)
    partition_counts.clear()
    pd.testing.assert_frame_equal(run(), want)
    assert sorted(set(partition_counts)) == [8]


def test_keyed_exchange_empty_partitions_input_and_reserved_tag(
        ray_session, monkeypatch):
    """reduce sees only non-empty partitions, every key exactly once; a
    result with no rows keeps the reduce's schema; an empty input gives
    an empty result without a call; an input column _part raises."""
    from ray.data import DataContext

    from text_to_rdf_ray.stages.exchange import keyed_exchange

    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size",
                        1)
    src = rd.from_pandas(pd.DataFrame({"k": np.arange(5, dtype="int64"),
                                       "v": np.arange(5, dtype="float64")}))

    def one_row_per_call(t: pa.Table) -> pa.Table:
        return pa.table({"n": [t.num_rows]})

    calls = keyed_exchange(src, "k", one_row_per_call,
                           num_partitions=64).to_pandas()["n"].tolist()
    assert all(n > 0 for n in calls) and sum(calls) == 5, calls

    none = keyed_exchange(src, "k", lambda t: t.slice(0, 0),
                          num_partitions=64)
    assert none.count() == 0 and none.schema().names == ["k", "v"]

    def never(t: pa.Table) -> pa.Table:
        raise AssertionError("reduce called on an empty input")

    empty = rd.from_pandas(pd.DataFrame({"k": pd.Series(dtype="int64")}))
    assert keyed_exchange(empty, "k", never).count() == 0
    bad = rd.from_pandas(pd.DataFrame({"k": [1], "_part": [2]}))
    with pytest.raises(Exception, match="_part.*reserved"):
        keyed_exchange(bad, "k", lambda t: t).to_pandas()


def test_keyed_exchange_keeps_arrow_types(ray_session):
    """The reduce sees and returns Arrow tables: a timezone-aware
    microsecond timestamp and a decimal column come back with their
    types (a pandas round trip re-infers the decimal's precision)."""
    from decimal import Decimal

    from text_to_rdf_ray.stages.exchange import keyed_exchange

    t = pa.table({
        "k": pa.array([1, 2, 2, 3], pa.int64()),
        "ts": pa.array([0, 1_000_001, 2, 3],
                       pa.timestamp("us", tz="Europe/Copenhagen")),
        "d": pa.array([Decimal("1.10"), Decimal("-2.25"), None,
                       Decimal("123456.78")], pa.decimal128(12, 2)),
    })
    out = keyed_exchange(rd.from_arrow(t), "k", lambda g: g)
    assert out.schema().types == t.schema.types
    got = pa.concat_tables(
        out.iter_batches(batch_format="pyarrow")).to_pylist()
    assert sorted(got, key=lambda r: (r["k"], r["ts"])) == sorted(
        t.to_pylist(), key=lambda r: (r["k"], r["ts"]))


def _moved_operator_run(name: str, tmp_path):
    """A small run of one operator moved onto the keyed exchanges,
    returning its rows as a sorted DataFrame."""
    from text_to_rdf_ray.stages import curation, dedup, joins, knn

    def rows(df: pd.DataFrame, by: list[str]) -> pd.DataFrame:
        return df.sort_values(by).reset_index(drop=True)

    if name == "exact_dedup":
        ds = rd.from_items([{"doc_id": i, "text": f"t{i % 23}"}
                            for i in range(200)]).repartition(4)
        return lambda: rows(dedup.exact_dedup(ds).to_pandas(), ["doc_id"])
    if name == "compact_clean":
        import pyarrow.parquet as pq

        from text_to_rdf_ray.pipelines.clean import (compact_clean,
                                                     run_clean_partitioned)

        words = ("the river runs past the old mill and the town hall "
                 "where people meet to talk about the weather and the "
                 "harvest of the year").split()
        texts = [" ".join(words[j % 7:] + words[:j % 7]) + f" day {j}"
                 for j in (i % 23 for i in range(120))]  # 23 distinct
        (tmp_path / "docs").mkdir()
        for k in range(2):
            pq.write_table(
                pa.table({"doc_id": pa.array(range(k * 60, k * 60 + 60),
                                             pa.int64()),
                          "text": texts[k * 60:k * 60 + 60]}),
                str(tmp_path / "docs" / f"docs-{k}.parquet"))
        out, final = str(tmp_path / "cleaned"), str(tmp_path / "final")
        run_clean_partitioned(str(tmp_path / "docs"), out, partitions=2)

        def run():
            compact_clean(out, final)
            return rows(rd.read_parquet(final).to_pandas(), ["doc_id"])
        return run
    if name == "asof_join":
        left, right = _mk_events(n_left=120, n_right=300)
        lds, rds = rd.from_pandas(left), rd.from_pandas(right)
        return lambda: rows(joins.asof_join(
            lds, rds, key_col="k", left_ts="lt", right_ts="rt",
            tiebreak_col="r_id", num_partitions=8).to_pandas(), ["l_id"])
    if name == "semi_join_bloom":
        rng = np.random.RandomState(29)
        big = rd.from_pandas(pd.DataFrame({
            "k": rng.randint(0, 500, 2_000).astype(np.int64),
            "v": np.arange(2_000, dtype=np.int64)})).repartition(4)
        keys = rd.from_pandas(pd.DataFrame({
            "k": rng.randint(0, 500, 300).astype(np.int64)}))
        return lambda: rows(joins.semi_join_bloom(
            big, keys, key_col="k", n_bits=256,
            num_partitions=8).to_pandas(), ["v"])
    if name == "knn_bruteforce":
        corpus = np.random.RandomState(3).randn(120, 8).astype(np.float32)
        ds = rd.from_items([{"vec_id": i, "embedding": corpus[i].tolist()}
                            for i in range(120)]).repartition(3)
        return lambda: rows(knn.knn_bruteforce(
            ds, corpus[:6].astype(np.float64), list(range(6)), k=4),
            ["query_id", "rank"])
    if name == "semdedup":
        rng = np.random.RandomState(11)
        base = rng.randn(6, 4)
        vecs = (base[np.arange(90) % 6] + 0.01 * rng.randn(90, 4))
        emb = rd.from_pandas(pd.DataFrame({
            "vec_id": np.arange(90, dtype=np.int64),
            "embedding": list(vecs.astype(np.float32))}))
        assign = rd.from_pandas(pd.DataFrame({
            "vec_id": np.arange(90, dtype=np.int64),
            "cluster": (np.arange(90) % 4).astype(np.int64)}))
        return lambda: rows(dedup.semdedup(
            emb, assignments=assign, tau=0.99).to_pandas(), ["vec_id"])
    assert name == "line_dedup"
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(40), pa.int64()),
        "text": pa.array([f"banner\nbody {i}\n" + ("promo" if i % 3 else "x")
                          for i in range(40)], pa.string())})).repartition(4)
    return lambda: rows(curation.line_dedup(
        ds, min_df=2, num_partitions=8, max_broadcast_pairs=0).to_pandas(),
        ["doc_id"])


@pytest.mark.parametrize("name", [
    "exact_dedup", "compact_clean", "asof_join", "semi_join_bloom",
    "knn_bruteforce", "semdedup", "line_dedup"])
def test_moved_operator_same_rows_at_every_partition_count(
        ray_session, monkeypatch, partition_counts, sized_and_capped,
        tmp_path, name):
    """Operators whose per-key reduce moved onto exchange_agg,
    keyed_apply or keyed_exchange give the same rows at the sized
    partition count, at every exchange's cap and with the tree combine
    forced at the cap."""
    from text_to_rdf_ray.stages import bsp

    run = _moved_operator_run(name, tmp_path)
    (sized, _), (capped, p_capped) = sized_and_capped(run)
    assert len(sized) and max(p_capped) > 1
    pd.testing.assert_frame_equal(capped, sized)
    monkeypatch.setattr(bsp, "TREE_COMBINE_THRESHOLD", 0)
    pd.testing.assert_frame_equal(run(), sized)


def _no_ray_sort_runs(monkeypatch, tmp_path):
    """Each operator moved onto the range exchange, run on small input
    with one range per byte (so every sort cuts several ranges), as
    ``(name, run)`` pairs; ``run()`` asserts its result against pandas."""
    from text_to_rdf_ray.stages import analytics, curation, dedup, lakehouse

    ctx = rd.DataContext.get_current()
    monkeypatch.setattr(ctx, "target_min_block_size", 1)
    rng = np.random.RandomState(4)
    df = pd.DataFrame({"id": np.arange(600, dtype=np.int64),
                       "k": rng.randint(0, 5, 600).astype(np.int64),
                       "v": np.round(rng.rand(600) * 9, 1),
                       "name": [f"w{i:03d}" for i in rng.randint(0, 90, 600)]})
    ds = rd.from_pandas(df).repartition(5).materialize()

    def range_sort():
        out = analytics.range_sort(ds, key_col="v", tiebreak_col="id",
                                   num_partitions=6).to_pandas()
        got = out.sort_values("global_pos")
        assert got["global_pos"].tolist() == list(range(600))
        assert got["id"].tolist() == df.sort_values(["v", "id"])["id"].tolist()

    def grouped_prefix_sum():
        out = analytics.grouped_prefix_sum(
            ds, key_col="k", order_col="id", value_col="v").to_pandas()
        want = df.groupby("k")["v"].cumsum() - df["v"]
        got = out.set_index("id")["before"].sort_index()
        np.testing.assert_allclose(got.to_numpy(), want.to_numpy())

    def prefix_max():
        out = analytics.prefix_max(ds, order_col="id",
                                   value_col="v").to_pandas()
        want = df["v"].cummax().shift(1)
        got = out.set_index("id")["running_max"].sort_index()
        np.testing.assert_array_equal(got.to_numpy(), want.to_numpy())

    def pack_sequences():
        out = curation.pack_sequences(ds, id_col="id", token_col="k",
                                      budget=7).to_pandas().sort_values("id")
        before = df["k"].cumsum() - df["k"]
        assert out["seq_id"].tolist() == (before // 7).tolist()

    def shuffle_rows():
        out = curation.shuffle_rows(ds, id_col="id").to_pandas()
        assert sorted(out["shuffle_pos"]) == list(range(600))

    def sorted_neighborhood_pairs():
        out = dedup.sorted_neighborhood_pairs(
            ds, key_col="name", id_col="id", window=3).to_pandas()
        order = df.sort_values(["name", "id"])["id"].tolist()
        want = sorted((order[p], order[p + g], g) for g in (1, 2)
                      for p in range(600 - g))
        assert sorted(map(tuple, out[["id_a", "id_b", "dist"]]
                          .to_numpy().tolist())) == want

    def clustered_write():
        man = lakehouse.clustered_write(ds, str(tmp_path / "c"), key_col="v",
                                        num_files=4)
        assert man["rows"].sum() == 600 and len(man) > 1

    def zorder_write():
        man = lakehouse.zorder_write(ds, str(tmp_path / "z"),
                                     cols=["v", "k"], num_files=4)
        assert man["rows"].sum() == 600 and len(man) > 1

    return [(f.__name__, f) for f in (
        range_sort, grouped_prefix_sum, prefix_max, pack_sequences,
        shuffle_rows, sorted_neighborhood_pairs, clustered_write,
        zorder_write)]


def test_range_operators_run_no_ray_sort_or_map_groups(ray_session,
                                                       monkeypatch,
                                                       tmp_path):
    """The sorts, range cuts and prefix scans run on the raw-task range
    exchange: with Ray's ``Dataset.sort`` and ``map_groups`` patched to
    raise, every moved operator still gives the pandas answer, and no
    ``map_groups(``, ``.sort([`` or ``.repartition(`` call (a Ray
    all-to-all operator) is left in the package."""
    import pathlib

    from ray.data.grouped_data import GroupedData

    import text_to_rdf_ray

    def refuse(*args, **kwargs):
        raise AssertionError("a Ray all-to-all sort ran")

    runs = _no_ray_sort_runs(monkeypatch, tmp_path)
    monkeypatch.setattr(rd.Dataset, "sort", refuse)
    monkeypatch.setattr(GroupedData, "map_groups", refuse)
    for name, run in runs:
        run()
    root = pathlib.Path(text_to_rdf_ray.__file__).parent
    for path in root.rglob("*.py"):
        text = path.read_text()
        assert ".map_groups(" not in text, path
        assert ".sort([" not in text and ".sort(\"" not in text, path
        assert ".repartition(" not in text, path


def _no_all_to_all_runs(monkeypatch, tmp_path):
    """Each operator whose Ray ``repartition``, or whose ``union`` in
    front of an exchange, went, on small input built here, as ``(name,
    run)`` pairs; ``run()`` asserts its result against pandas, a brute
    force or a driver tier computed here, before any patch."""
    from text_to_rdf_ray.kernels.minhash import (band_keys, jaccard,
                                                 minhash_signature,
                                                 word_shingles)
    from text_to_rdf_ray.stages import (analytics, canonicalize, curation,
                                        dedup, graph, kgops, lakehouse)
    from text_to_rdf_ray.stages.exchange import exchange_agg

    def frame(**cols):
        return rd.from_pandas(pd.DataFrame(cols)).materialize()

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda"
    docs = frame(doc_id=np.arange(4, dtype=np.int64),
                 text=[base, base + " nu", base + " xi",
                       "unrelated words entirely different topic here now"])

    def lsh_verify_join():
        def bands_feat(text):
            sig = minhash_signature(word_shingles(text, 3))
            return list(enumerate(band_keys(sig, 16))), None

        out = dedup._pairs_from_buckets(
            docs, bands_feat,
            lambda a, b: jaccard(a, b) if jaccard(a, b) >= 0.5 else None,
            "doc_id", "text", prepare_fn=lambda t: word_shingles(t, 3),
            broadcast_threshold=0).to_pandas()
        assert sorted(zip(out["id_a"], out["id_b"])) == [(0, 1), (0, 2),
                                                         (1, 2)]

    ids = frame(doc_id=np.arange(10, dtype=np.int64))
    id_pairs = frame(id_a=np.array([0, 1, 5], np.int64),
                     id_b=np.array([1, 2, 6], np.int64))

    def pairs_to_canonical_join():
        monkeypatch.setattr(canonicalize, "DRIVER_UNION_FIND_THRESHOLD", 0)
        out = (dedup.pairs_to_canonical(ids, id_pairs, "doc_id")
               .to_pandas().sort_values("doc_id"))
        assert out["canonical_id"].tolist() == [0, 0, 0, 3, 4, 5, 5, 7, 8, 9]

    rng = np.random.RandomState(3)
    src, dst = rng.randint(0, 12, 60), rng.randint(0, 12, 60)
    pr_edges = frame(src=[f"n{i}" for i in src], dst=[f"n{i}" for i in dst])
    pr_want = graph.pagerank(pr_edges).to_pandas().sort_values("node")

    def pagerank_bsp():
        got = (graph.pagerank(pr_edges, driver_threshold=0, num_partitions=4)
               .to_pandas().sort_values("node"))
        assert got["node"].tolist() == pr_want["node"].tolist()
        np.testing.assert_allclose(got["rank"], pr_want["rank"])

    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    tri_edges = frame(src=np.array([a for a, _ in k4] + [4, 5, 6, 6]),
                      dst=np.array([b for _, b in k4] + [5, 6, 4, 7]))

    def triangle_count():
        want = {0: 3, 1: 3, 2: 3, 3: 3, 4: 1, 5: 1, 6: 1}
        for threshold in (10**9, 0):  # broadcast, then shuffle tier
            out = graph.triangle_count(tri_edges, num_partitions=8,
                                       broadcast_threshold=threshold)
            out = out.to_pandas()
            assert dict(zip(out["node"], out["n_tri"])) == want

    w_edges = frame(src=np.array([0, 0, 2, 1, 2, 3]),
                    dst=np.array([1, 2, 1, 3, 3, 4]),
                    w=np.array([4, 1, 2, 1, 5, 3]))

    def sssp():
        out = graph.sssp(w_edges, 0, num_partitions=4).to_pandas()
        assert dict(zip(out["node"], out["dist"])) == {0: 0, 2: 1, 1: 3,
                                                       3: 4, 4: 7}

    tf_docs = frame(doc_id=np.arange(3, dtype=np.int64),
                    text=["apple banana apple", "banana cherry",
                          "cherry cherry durian"])

    def tfidf_terms():
        out = curation.tfidf_terms(tf_docs).to_pandas()
        got = {(d, t): (tf, df) for d, t, tf, df in
               zip(out["doc_id"], out["term"], out["tf"], out["df"])}
        assert got == {(0, "apple"): (2, 1), (0, "banana"): (1, 2),
                       (1, "banana"): (1, 2), (1, "cherry"): (1, 2),
                       (2, "cherry"): (2, 2), (2, "durian"): (1, 1)}

    a = pd.DataFrame({"k": rng.randint(0, 50, 300).astype(np.int64),
                      "x": np.arange(300, dtype=np.int64)})
    b = pd.DataFrame({"k": np.arange(60, dtype=np.int64)})
    b["y"] = b["k"] * 7
    a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
    lakehouse.clustered_write(rd.from_pandas(a), a_dir, key_col="k",
                              num_files=4)
    lakehouse.clustered_write(rd.from_pandas(b), b_dir, key_col="k",
                              num_files=3)

    def clustered_join():
        got = (lakehouse.clustered_join(a_dir, b_dir, key_col_a="k")
               .to_pandas().sort_values(["k", "x"])
               .reset_index(drop=True)[["k", "x", "y"]])
        want = a.merge(b, on="k").sort_values(["k", "x"]).reset_index(
            drop=True)
        pd.testing.assert_frame_equal(got, want)

    pts = pd.DataFrame({"x": rng.randint(0, 30, 300).astype(float),
                        "y": rng.randint(0, 30, 300).astype(np.int64)})
    pts_ds = rd.from_pandas([pts.iloc[:150], pts.iloc[150:]]).materialize()

    def skyline_2d():
        out = analytics.skyline_2d(pts_ds, x_col="x", y_col="y").to_pandas()
        want = {}
        for x, y in zip(pts["x"], pts["y"]):
            if not ((pts["x"] >= x) & (pts["y"] <= y)
                    & ((pts["x"] > x) | (pts["y"] < y))).any():
                want[(x, y)] = want.get((x, y), 0) + 1
        assert dict(zip(zip(out["x"], out["y"]), out["n"])) == want

    chain = frame(subj=["a", "b", "c", "d", "a"], pred=["p"] * 4 + ["q"],
                  obj=["b", "c", "d", "a", "zzz"])

    def property_path():
        out = kgops.property_path(chain, "p", max_hops=3).to_pandas()
        got = dict(zip(zip(out["src"], out["dst"]), out["hops"]))
        names = "abcd"
        want = {(names[i], names[(i + h) % 4]): h
                for i in range(4) for h in (1, 2, 3)}
        assert got == want

    owl = frame(subj=["a", "b", "c", "x"],
                pred=["follows"] * 3 + ["peer_of"],
                obj=["b", "c", "d", "y"])

    def property_entailment():
        out = kgops.property_entailment(
            owl, transitive=("follows",), symmetric=("peer_of",),
            inverse=(("follows", "precedes"),)).to_pandas()
        got = {(s, p, o): int(e) for s, p, o, e in
               zip(out["subj"], out["pred"], out["obj"], out["entailed"])}
        follows = {("a", "b"): 0, ("b", "c"): 0, ("c", "d"): 0,
                   ("a", "c"): 1, ("a", "d"): 1, ("b", "d"): 1}
        want = {(s, "follows", o): e for (s, o), e in follows.items()}
        want.update({(o, "precedes", s): 1 for s, o in follows})
        want.update({("x", "peer_of", "y"): 0, ("y", "peer_of", "x"): 1})
        assert got == want

    vals = pd.DataFrame({"k": rng.randint(0, 9, 400),
                         "v": rng.randint(0, 100, 400).astype(np.int64)})
    states = [exchange_agg(rd.from_pandas(h), "k",
                           [("v", "sum", "v_sum"), ("v", "min", "v_min")])
              for h in (vals.iloc[:150], vals.iloc[150:])]

    def merge_agg_states():
        out = (analytics.merge_agg_states(
            states, "k", [("v_sum", "sum"), ("v_min", "min")])
            .to_pandas().sort_values("k"))
        want = vals.groupby("k")["v"].agg(["sum", "min"])
        assert out["v_sum"].tolist() == want["sum"].tolist()
        assert out["v_min"].tolist() == want["min"].tolist()

    scc_edges = frame(src=np.array([0, 1, 2, 2, 3, 4, 4]),
                      dst=np.array([1, 2, 0, 3, 4, 3, 5]))

    def scc():
        out = graph.scc(scc_edges, engine="distributed",
                        num_partitions=4).to_pandas()
        assert dict(zip(out["node"], out["comp"])) == {
            0: 0, 1: 0, 2: 0, 3: 3, 4: 3, 5: 5}

    diamond = frame(src=np.array([1, 1, 2, 3, 4]),
                    dst=np.array([2, 3, 4, 4, 5]))

    def betweenness_from_seeds():
        out = graph.betweenness_from_seeds(diamond, [1], k=4,
                                           driver_max_edges=0).to_pandas()
        assert dict(zip(out["node"], out["bc_nano"])) == {
            2: 10**9, 3: 10**9, 4: 10**9, 5: 0}

    return [(f.__name__, f) for f in (
        lsh_verify_join, pairs_to_canonical_join, pagerank_bsp,
        triangle_count, sssp, tfidf_terms, clustered_join, skyline_2d,
        property_path, property_entailment, merge_agg_states, scc,
        betweenness_from_seeds)]


def test_exchange_operators_run_no_repartition_or_union(ray_session,
                                                        monkeypatch,
                                                        tmp_path):
    """No Ray all-to-all runs in front of an exchange: with Ray's
    ``Dataset.repartition`` and ``Dataset.union`` patched to raise, every
    operator that used one (through ``canonicalize._solid``, a range of
    blocks, a final single-partition pass or a union of sources) still
    gives its answer."""

    def refuse(*args, **kwargs):
        raise AssertionError("a Ray repartition or union ran")

    runs = _no_all_to_all_runs(monkeypatch, tmp_path)
    monkeypatch.setattr(rd.Dataset, "repartition", refuse)
    monkeypatch.setattr(rd.Dataset, "union", refuse)
    for name, run in runs:
        run()


def test_grouped_prefix_sum_spreads_a_hot_key(ray_session, monkeypatch):
    """One key with 20k distinct orders is cut over several ranges (the
    cuts sample the order column too) and still sums as pandas does."""
    from text_to_rdf_ray.stages import bsp
    from text_to_rdf_ray.stages.analytics import grouped_prefix_sum

    rng = np.random.RandomState(9)
    n = 20_000
    df = pd.DataFrame({"k": np.r_[np.zeros(n, np.int64),
                                  rng.randint(1, 50, 2000)],
                       "o": rng.permutation(n + 2000).astype(np.int64),
                       "v": rng.randint(0, 100, n + 2000).astype(np.float64)})
    ranges = []
    real = bsp.sort_blocks

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        ranges.append([m.num_rows for m in out.metas()])
        return out

    monkeypatch.setattr(bsp, "sort_blocks", recording)
    monkeypatch.setattr(rd.DataContext.get_current(),
                        "target_min_block_size", 32 * 1024)
    out = grouped_prefix_sum(rd.from_pandas(df).repartition(6),
                             key_col="k", order_col="o",
                             value_col="v").to_pandas()
    # range 0 holds only rows of the smallest key, the hot one: when it
    # holds some but not all of them, the key spans several ranges
    assert len(ranges[0]) > 2 and 0 < ranges[0][0] < n
    srt = df.sort_values(["k", "o"])
    want = (srt.groupby("k")["v"].cumsum() - srt["v"]).sort_index()
    got = out.sort_values("o").set_index("o")["before"]
    np.testing.assert_array_equal(
        got.loc[df["o"]].to_numpy(), want.to_numpy())


def test_range_ids_integer_key_matches_block_sort():
    """``bsp._range_ids`` on one integer key (``searchsorted``) gives the
    ids of its block-sort path and of a brute count: a key equal to a
    cut row goes after it."""
    from text_to_rdf_ray.stages.bsp import _range_ids

    rng = np.random.RandomState(5)
    cut = [3, 3, 17, 39]
    zeros = pa.array(np.zeros(500, np.int64))
    for typ in (pa.int64(), pa.int32(), pa.uint64()):
        keys = rng.randint(0, 41, 500)
        one = _range_ids(pa.table({"k": pa.array(keys, typ)}), ["k"],
                         pa.table({"k": cut}))
        two = _range_ids(pa.table({"k": pa.array(keys, typ), "z": zeros}),
                         ["k", "z"], pa.table({"k": cut, "z": [0] * 4}))
        brute = [sum(c <= x for c in cut) for x in keys]
        assert one.tolist() == two.tolist() == brute


def _null_block_frames():
    """Two pandas blocks whose ``note`` is all-None in the first."""
    a = pd.DataFrame({"k": [1, 2], "note": [None, None]})
    b = pd.DataFrame({"k": [2, 3], "note": ["x", "y"]})
    want = [(1, None), (2, None), (2, "x"), (3, "y")]
    return (a, b), want


def _k_note_rows(df):
    df = df.astype({"note": object}).where(df.notna(), None)
    return sorted(zip(df["k"], df["note"]), key=lambda r: (r[0], r[1] or ""))


def test_exchange_agg_promotes_a_column_null_in_one_block(ray_session):
    """A column that is all-None in one pandas block is Arrow null there;
    exchange_agg takes its type from the other blocks whichever block
    comes first (the dataset schema Ray reports is the first block's)."""
    from text_to_rdf_ray.stages.exchange import exchange_agg

    (a, b), want = _null_block_frames()
    for frames in ([a, b], [b, a]):
        got = exchange_agg(rd.from_pandas(frames), ["k", "note"]).to_pandas()
        assert _k_note_rows(got) == want


def test_keyed_apply_promotes_a_column_null_in_one_block(ray_session):
    """keyed_apply shares the exchange's block normalization: the same
    null-in-one-block input works in either order, and through
    sessionize."""
    from text_to_rdf_ray.stages.exchange import keyed_apply
    from text_to_rdf_ray.stages.windows import sessionize

    (a, b), want = _null_block_frames()
    for frames in ([a, b], [b, a]):
        got = keyed_apply(rd.from_pandas(frames), "k",
                          lambda g: g).to_pandas()
        assert _k_note_rows(got) == want

    ev = [pd.DataFrame({"user_id": [1, 1], "event_id": [1, 2],
                        "ts": pd.to_datetime([0, 60], unit="s"),
                        "note": [None, None]}),
          pd.DataFrame({"user_id": [2], "event_id": [3],
                        "ts": pd.to_datetime([0], unit="s"),
                        "note": ["x"]})]
    s = sessionize(rd.from_pandas(ev)).to_pandas().sort_values("user_id")
    assert s["n_events"].tolist() == [2, 1]


def test_key_hash_fixed_corpus(ray_session):
    """_key_hash values are pinned: int, float and string hashes are the
    ones persisted partition layouts were written with (hash version 2),
    and temporal, bool and binary keys hash through their integer view
    or bytes — equal values at different units share a hash."""
    import datetime as dt

    from text_to_rdf_ray.stages.exchange import _KEY_HASH_VERSION, _key_hash

    assert _KEY_HASH_VERSION == 2
    t = pa.table({
        "i": pa.array([0, 1, -1, 2**62 + 12345, None], pa.int64()),
        "f": pa.array([0.0, -0.0, 1.5, float("inf"), None], pa.float64()),
        "s": pa.array(["", "a\x00b", "东京", None, "x" * 100], pa.string()),
    })
    null = 11400714819323198485
    assert _key_hash(t, ["i"]).tolist() == [
        16294208416658607535, 10451216379200822465, 16490336266968443936,
        11243083831848222953, null]
    assert _key_hash(t, ["f"]).tolist() == [
        16294208416658607535, 16294208416658607535, 15481881892811333770,
        2638638862653029785, null]
    assert _key_hash(t, ["s"]).tolist() == [
        12638153115695167455, 12340098833051582147, 6605591294054262811,
        null, 856140524800620963]
    assert _key_hash(t, ["i", "s"]).tolist() == [
        13431020720355560347, 17220999312433499362, 8468215511157601408,
        8111790595201519509, 16489561339468712549]

    ts = [dt.datetime(2020, 1, 1), None, dt.datetime(1970, 1, 1)]
    days = [dt.date(2020, 1, 1), None, dt.date(1970, 1, 1)]
    n = pa.table({
        "ts_us": pa.array(ts, pa.timestamp("us")),
        "ts_ns": pa.array(ts, pa.timestamp("ns")),
        "d32": pa.array(days, pa.date32()),
        "d64": pa.array(days, pa.date64()),
        "b": pa.array([True, None, False]),
        "bin": pa.array([b"", None, b"a\x00b"], pa.binary()),
    })
    assert _key_hash(n, ["ts_us"]).tolist() == [
        410962054562611518, null, 16294208416658607535]
    assert (_key_hash(n, ["ts_ns"]) == _key_hash(n, ["ts_us"])).all()
    assert _key_hash(n, ["d32"]).tolist() == [
        9529193699160209575, null, 16294208416658607535]
    assert (_key_hash(n, ["d64"]) == _key_hash(n, ["d32"])).all()
    assert _key_hash(n, ["b"]).tolist() == [
        10451216379200822465, null, 16294208416658607535]
    # binary keys hash their bytes: the same as the utf-8 string
    assert _key_hash(n, ["bin"]).tolist() == [
        12638153115695167455, null, 12340098833051582147]


def test_profile_table_matches_pandas(ray_session):
    """profile_table vs pandas ground truth, incl. nulls + string cols."""
    from text_to_rdf_ray.stages.analytics import profile_table

    df = pd.DataFrame({
        "i": pd.array([1, 2, 2, None, 5], dtype="Int64"),
        "x": [1.5, np.nan, 2.5, 2.5, -3.0],
        "s": ["b", "a", None, "a", "c"],
    })
    out = profile_table(rd.from_pandas(df).repartition(3),
                        columns=["i", "x", "s"]).set_index("column")
    assert out.loc["i", "n_rows"] == 5 and out.loc["i", "n_nulls"] == 1
    assert out.loc["i", "n_distinct"] == 3
    assert out.loc["i", "min_num"] == 1.0 and out.loc["i", "max_num"] == 5.0
    assert out.loc["i", "sum_num"] == 10.0
    assert out.loc["x", "n_nulls"] == 1 and out.loc["x", "n_distinct"] == 3
    assert out.loc["x", "min_num"] == -3.0 and out.loc["x", "sum_num"] == 3.5
    assert out.loc["s", "n_nulls"] == 1 and out.loc["s", "n_distinct"] == 3
    assert out.loc["s", "min_str"] == "a" and out.loc["s", "max_str"] == "c"
    assert pd.isna(out.loc["s", "min_num"])


def test_group_collect_sorted_and_guard(ray_session):
    """group_collect: sorted distinct lists; hot-key guard raises."""
    from text_to_rdf_ray.stages.analytics import group_collect

    df = pd.DataFrame({
        "k": ["u1", "u2", "u1", "u1", "u2", "u3"],
        "v": ["beta", "alpha", "alpha", "beta", "alpha", "gamma"],
    })
    out = (group_collect(rd.from_pandas(df).repartition(3),
                         key_col="k", value_col="v")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["values"].tolist() == ["alpha,beta", "alpha", "gamma"]
    assert out["n_values"].tolist() == [2, 1, 1]

    import pytest as _pytest
    big = pd.DataFrame({"k": ["hot"] * 50,
                        "v": [f"v{i}" for i in range(50)]})
    with _pytest.raises(Exception):
        group_collect(rd.from_pandas(big), key_col="k", value_col="v",
                      max_values_per_key=10).to_pandas()


def test_rag_chunks_window_arithmetic(ray_session):
    """rag_chunks: boundary cases — empty, short, exact, overlap-tail."""
    from text_to_rdf_ray.stages.curation import rag_chunks

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["",                                   # no words
                 "a b c",                              # one short chunk
                 " ".join(f"w{i}" for i in range(8)),  # exactly window+stride
                 " ".join(f"w{i}" for i in range(13))],
    })
    out = (rag_chunks(rd.from_pandas(docs).repartition(2), id_col="doc_id",
                      text_col="text", window=5, stride=3)
           .to_pandas().sort_values(["doc_id", "chunk_idx"])
           .reset_index(drop=True))
    assert 1 not in set(out["doc_id"])
    d2 = out[out["doc_id"] == 2]
    assert d2["n_words"].tolist() == [3]
    assert d2["first_word"].tolist() == ["a"]
    assert d2["last_word"].tolist() == ["c"]
    # doc 3: nw=8 -> starts 0 (covers 0..4), 3 (covers 3..7, reaches end)
    d3 = out[out["doc_id"] == 3]
    assert d3["start_word"].tolist() == [0, 3]
    assert d3["n_words"].tolist() == [5, 5]
    # doc 4: nw=13 -> starts 0, 3, 6; next start 9 skipped? prev window
    # 6..10 doesn't reach 13, so 9 (9..13) emitted; 12 skipped (prev
    # window 9+5=14 >= 13)
    d4 = out[out["doc_id"] == 4]
    assert d4["start_word"].tolist() == [0, 3, 6, 9]
    assert d4["n_words"].tolist() == [5, 5, 5, 4]
    assert d4["last_word"].iloc[-1] == "w12"


def test_clustered_write_pruned_read_skips_files(ray_session, tmp_path):
    """Zone-map pruning: the range read opens only overlapping files,
    results identical to a full-scan filter."""
    from text_to_rdf_ray.stages.lakehouse import clustered_write, pruned_read
    from text_to_rdf_ray.state import counters

    rng = np.random.default_rng(7)
    df = pd.DataFrame({"id": np.arange(5000, dtype=np.int64),
                       "v": rng.uniform(0, 100, 5000)})
    path = str(tmp_path / "tbl")
    manifest = clustered_write(rd.from_pandas(df).repartition(8), path,
                               key_col="v", num_files=10)
    assert manifest["rows"].sum() == 5000
    # zone maps are disjoint-ish ranges: min of file k+1 >= max of file k
    m = manifest.sort_values("file")
    assert (m["min_key"].to_numpy()[1:] >= m["max_key"].to_numpy()[:-1]
            - 1e-12).all()

    counters.snapshot(reset=True)
    got = (pruned_read(path, key_col="v", lo=20.0, hi=30.0).to_pandas()
           .sort_values("id").reset_index(drop=True))
    snap = counters.snapshot()
    assert snap["prunedscan_files_total"] == len(manifest)
    assert snap["prunedscan_files_read"] < snap["prunedscan_files_total"]
    want = (df[(df["v"] >= 20.0) & (df["v"] <= 30.0)]
            .sort_values("id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[["id", "v"]], want[["id", "v"]])

    # no-overlap predicate: zero files read, typed empty result
    counters.snapshot(reset=True)
    empty = pruned_read(path, key_col="v", lo=500.0, hi=600.0).to_pandas()
    assert len(empty) == 0
    # incr drops zero deltas, so the key is simply absent
    assert counters.snapshot().get("prunedscan_files_read", 0) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_point_lookup_bloom_prunes(ray_session, tmp_path):
    """Bloom point lookup: few files opened, exact results, string keys."""
    from text_to_rdf_ray.stages.lakehouse import clustered_write, point_lookup
    from text_to_rdf_ray.state import counters

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "id": np.arange(8000, dtype=np.int64),
        "v": rng.uniform(0, 100, 8000),
        "name": [f"user_{i}" for i in range(8000)],
    })
    path = str(tmp_path / "tbl")
    clustered_write(rd.from_pandas(df).repartition(8), path,
                    key_col="v", num_files=16, bloom_col="id")
    counters.snapshot(reset=True)
    got = (point_lookup(path, col="id", values=[17, 4444]).to_pandas()
           .sort_values("id").reset_index(drop=True))
    snap = counters.snapshot()
    assert snap["bloomscan_files_total"] == 16
    # two true files + ~16*2*0.6% expected fp — well under half the table
    assert snap["bloomscan_files_read"] <= 6
    assert got["id"].tolist() == [17, 4444]
    assert got["name"].tolist() == ["user_17", "user_4444"]

    # string bloom column
    path2 = str(tmp_path / "tbl2")
    clustered_write(rd.from_pandas(df).repartition(4), path2,
                    key_col="v", num_files=8, bloom_col="name")
    got2 = point_lookup(path2, col="name",
                        values=["user_99"]).to_pandas()
    assert got2["id"].tolist() == [99]

    # missing value: correct empty result (fp files may still be read)
    miss = point_lookup(path, col="id", values=[10**9]).to_pandas()
    assert len(miss) == 0


def test_group_collect_composite_keys(ray_session):
    from text_to_rdf_ray.stages.analytics import group_collect

    df = pd.DataFrame({
        "a": ["x", "x", "y", "x"],
        "b": [1, 1, 2, 1],
        "v": ["q", "p", "r", "q"],
    })
    out = (group_collect(rd.from_pandas(df).repartition(2),
                         key_col=["a", "b"], value_col="v")
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    assert out["values"].tolist() == ["p,q", "r"]
    assert out["n_values"].tolist() == [2, 1]


def test_cdc_apply_tombstones_and_upserts(ray_session):
    from text_to_rdf_ray.stages.joins import cdc_apply

    base = pd.DataFrame({
        "k": [1, 2, 3, 4],
        "v": [10.0, 20.0, 30.0, 40.0],
        "t": [1, 1, 1, 1],
    })
    chg = pd.DataFrame({
        "k": [2, 3, 5, 5, 4],
        "v": [21.0, 0.0, 50.0, 0.0, 41.0],
        "t": [2, 2, 2, 3, 0],
        "op": ["U", "D", "U", "D", "U"],
    })
    out = (cdc_apply(rd.from_pandas(base).repartition(2),
                     rd.from_pandas(chg).repartition(2),
                     key_col="k", order_col="t", tiebreak_col="v")
           .to_pandas().sort_values("k").reset_index(drop=True))
    # k=1 untouched; k=2 upserted; k=3 deleted; k=4 stale change loses
    # (t=0 < base t=1); k=5 inserted then tombstoned at t=3 -> gone
    assert out["k"].tolist() == [1, 2, 4]
    assert out["v"].tolist() == [10.0, 21.0, 40.0]


def test_negative_samples_deterministic_and_in_vocab(ray_session):
    from text_to_rdf_ray.stages.graph import negative_samples

    tr = pd.DataFrame({
        "subj": ["a", "b", "c", "a"],
        "pred": ["p", "p", "q", "q"],
        "obj": ["x", "y", "z", "x"],
    })
    ds = rd.from_pandas(tr).repartition(2)
    out1 = (negative_samples(ds, subj_col="subj", k=3).to_pandas()
            .sort_values(["subj", "pred", "obj", "neg_j"])
            .reset_index(drop=True))
    out2 = (negative_samples(ds, subj_col="subj", k=3).to_pandas()
            .sort_values(["subj", "pred", "obj", "neg_j"])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(out1, out2)
    assert len(out1) == 12
    assert set(out1["obj_neg"]) <= {"x", "y", "z"}
    assert out1.groupby(["subj", "pred", "obj"])["neg_j"].apply(
        lambda s: s.tolist() == [0, 1, 2]).all()


def test_prefix_max_and_watermark(ray_session):
    from text_to_rdf_ray.stages.analytics import prefix_max
    from text_to_rdf_ray.stages.windows import watermark_filter

    rng = np.random.default_rng(5)
    n = 3000
    df = pd.DataFrame({"arr": np.arange(n, dtype=np.int64),
                       "t": rng.integers(0, 10**6, n).astype(np.int64)})
    out = (prefix_max(rd.from_pandas(df).repartition(7),
                      order_col="arr", value_col="t")
           .to_pandas().sort_values("arr").reset_index(drop=True))
    want = df["t"].astype(float).cummax().shift(1)
    assert pd.isna(out["running_max"].iloc[0])
    np.testing.assert_allclose(out["running_max"].iloc[1:].to_numpy(),
                               want.iloc[1:].to_numpy())

    wf = (watermark_filter(rd.from_pandas(df).repartition(7),
                           ts_col="t", arrival_col="arr",
                           lateness_us=200_000)
          .to_pandas().sort_values("arr").reset_index(drop=True))
    late_want = (df["t"] < want - 200_000).fillna(False)
    assert wf["is_late"].astype(bool).tolist() == late_want.tolist()
    assert wf["is_late"].iloc[0] == 0


def test_clustered_join_no_shuffle_parity(ray_session, tmp_path):
    """clustered_join == pandas merge; B reads stay near |B files|."""
    from text_to_rdf_ray.stages.lakehouse import clustered_join, clustered_write
    from text_to_rdf_ray.state import counters

    rng = np.random.default_rng(13)
    a = pd.DataFrame({"k": rng.integers(0, 500, 4000).astype(np.int64),
                      "x": np.arange(4000, dtype=np.int64)})
    b = pd.DataFrame({"k": np.arange(0, 600, dtype=np.int64)})
    b["y"] = b["k"] * 7
    pa_dir, pb_dir = str(tmp_path / "a"), str(tmp_path / "b")
    clustered_write(rd.from_pandas(a).repartition(4), pa_dir,
                    key_col="k", num_files=8)
    clustered_write(rd.from_pandas(b).repartition(2), pb_dir,
                    key_col="k", num_files=6)
    counters.snapshot(reset=True)
    got = (clustered_join(pa_dir, pb_dir, key_col_a="k").to_pandas()
           .sort_values(["k", "x"]).reset_index(drop=True)[["k", "x", "y"]])
    want = (a.merge(b, on="k").sort_values(["k", "x"])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)
    snap = counters.snapshot()
    assert snap["clusteredjoin_tasks"] == 8
    # aligned distributions: each A file overlaps ~1-2 B files, not all 6
    assert snap["clusteredjoin_b_reads"] <= 2 * 8


def test_interval_self_join_matches_bruteforce(ray_session):
    from text_to_rdf_ray.stages.joins import interval_self_join

    rng = np.random.default_rng(17)
    df = pd.DataFrame({
        "u": rng.integers(0, 6, 400).astype(np.int64),
        "t": rng.integers(0, 5000, 400).astype(np.int64),
        "i": np.arange(400, dtype=np.int64),
    })
    got = (interval_self_join(rd.from_pandas(df).repartition(4),
                              key_col="u", ts_col="t", id_col="i",
                              window_us=300)
           .to_pandas().sort_values(["u", "id_a", "id_b"])
           .reset_index(drop=True))
    m = df.merge(df, on="u", suffixes=("_a", "_b"))
    m = m[(m["t_b"] >= m["t_a"])
          & (m["t_b"] - m["t_a"] <= 300)
          & ((m["t_a"] < m["t_b"]) | (m["i_a"] < m["i_b"]))]
    want = (m.rename(columns={"i_a": "id_a", "i_b": "id_b"})
            .assign(dt_us=lambda x: x["t_b"] - x["t_a"])
            [["u", "id_a", "id_b", "dt_us"]]
            .sort_values(["u", "id_a", "id_b"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    import pytest as _pytest
    hot = pd.DataFrame({"u": np.zeros(100, np.int64),
                        "t": np.zeros(100, np.int64),
                        "i": np.arange(100, dtype=np.int64)})
    with _pytest.raises(Exception):
        interval_self_join(rd.from_pandas(hot), key_col="u", ts_col="t",
                           id_col="i", window_us=10,
                           max_pairs_per_row=5).to_pandas()


def test_explode_list_posexplode(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.analytics import explode_list

    t = pa.table({
        "id": pa.array([10, 20, 30], pa.int64()),
        "xs": pa.array([[1.0, 2.0], [], [3.0, 4.0, 5.0]],
                       pa.list_(pa.float64())),
    })
    got = (explode_list(rd.from_arrow(t), list_col="xs")
           .to_pandas().sort_values(["id", "pos"]).reset_index(drop=True))
    want = pd.DataFrame({"id": [10, 10, 30, 30, 30],
                         "pos": [0, 1, 0, 1, 2],
                         "value": [1.0, 2.0, 3.0, 4.0, 5.0]})
    pd.testing.assert_frame_equal(got[["id", "pos", "value"]], want)

    # fixed_size_list path
    fsl = pa.table({
        "id": pa.array([1, 2], pa.int64()),
        "xs": pa.FixedSizeListArray.from_arrays(
            pa.array([1.0, 2.0, 3.0, 4.0], pa.float64()), 2),
    })
    got2 = (explode_list(rd.from_arrow(fsl), list_col="xs")
            .to_pandas().sort_values(["id", "pos"]).reset_index(drop=True))
    assert got2["value"].tolist() == [1.0, 2.0, 3.0, 4.0]
    assert got2["pos"].tolist() == [0, 1, 0, 1]

    # null list slots rejected loudly
    bad = pa.table({"id": pa.array([1], pa.int64()),
                    "xs": pa.array([None], pa.list_(pa.float64()))})
    with pytest.raises(Exception, match="null list slots"):
        explode_list(rd.from_arrow(bad), list_col="xs").to_pandas()


def test_dq_check_all_rule_kinds(ray_session):
    from text_to_rdf_ray.stages.analytics import dq_check

    fact = pd.DataFrame({
        "id": [1, 2, 2, 3, 4, 5],          # dup id=2
        "ref": [10, 10, 99, 11, None, 10],  # 99 missing from dim, one null
        "v": [5.0, -1.0, 7.0, 100.0, None, 3.0],  # -1 and 100 out of range
    })
    dim = rd.from_pandas(pd.DataFrame({"k": [10, 11, 12]}))
    out = dq_check(
        rd.from_pandas(fact).repartition(3),
        [("id_unique", "unique", "id"),
         ("ref_fk", "fk", "ref", dim, "k"),
         ("ref_not_null", "not_null", "ref"),
         ("v_range", "range", "v", 0.0, 50.0)],
    ).to_pandas().sort_values("rule").reset_index(drop=True)
    got = {r["rule"]: (r["n_checked"], r["n_violations"])
           for _, r in out.iterrows()}
    assert got == {
        "id_unique": (6, 1),
        "ref_fk": (6, 1),
        "ref_not_null": (6, 1),
        "v_range": (6, 2),
    }


def test_dq_check_fk_guard_raises(ray_session):
    from text_to_rdf_ray.stages.analytics import dq_check

    fact = rd.from_pandas(pd.DataFrame({"ref": [1, 2]}))
    dim = rd.from_pandas(pd.DataFrame({"k": list(range(100))}))
    with pytest.raises(ValueError, match="max_fk_keys"):
        dq_check(fact, [("r", "fk", "ref", dim, "k")], max_fk_keys=10)


def test_resample_fill_gaps_zero(ray_session):
    from text_to_rdf_ray.stages.windows import resample_fill

    # user 1: events in hours 0, 0, 3 (gap at 1, 2); user 2: hour 5 only
    df = pd.DataFrame({
        "user_id": [1, 1, 1, 2],
        "ts": pd.to_datetime([0, 1800, 3 * 3600, 5 * 3600], unit="s"),
        "value": [2.0, 3.0, 7.0, 1.0],
    })
    out = (resample_fill(rd.from_pandas(df).repartition(2))
           .to_pandas().sort_values(["user_id", "window_id"])
           .reset_index(drop=True))
    assert out[["user_id", "window_id", "n"]].to_numpy().tolist() == [
        [1, 0, 2], [1, 1, 0], [1, 2, 0], [1, 3, 1], [2, 5, 1]]
    assert out["sum_value"].tolist() == [5.0, 0.0, 0.0, 7.0, 1.0]


def test_corr_matrix_matches_numpy(ray_session):
    from text_to_rdf_ray.stages.analytics import corr_matrix

    rng = np.random.RandomState(3)
    df = pd.DataFrame({
        "a": rng.rand(400) * 10,
        "b": rng.rand(400) * 5,
        "c": np.arange(400, dtype=float),
    })
    df.loc[5, "b"] = np.nan  # complete-case: row dropped everywhere
    out = (corr_matrix(rd.from_pandas(df).repartition(4), ["a", "b", "c"])
           .to_pandas().sort_values(["col_a", "col_b"])
           .reset_index(drop=True))
    sub = df.dropna()
    exp = sub.corr()
    assert out["n"].unique().tolist() == [399]
    for _, r in out.iterrows():
        assert abs(r["corr"] - exp.loc[r["col_a"], r["col_b"]]) < 1e-9


def test_khop_reach_levels_and_early_exit(ray_session):
    from text_to_rdf_ray.stages.analytics import khop_reach

    # 1 -> 2 -> 3 -> 4, plus 2 -> 1 cycle and isolated 9
    e = pd.DataFrame({"src": [1, 2, 3, 2], "dst": [2, 3, 4, 1]})
    seeds = pd.DataFrame({"node": [1]})
    out = (khop_reach(rd.from_pandas(e), rd.from_pandas(seeds), k=5)
           .to_pandas().sort_values("node").reset_index(drop=True))
    assert out[["node", "level"]].to_numpy().tolist() == [
        [1, 0], [2, 1], [3, 2], [4, 3]]
    # forced-distributed parity (driver_max_edges=0 disables the tier)
    dist = (khop_reach(rd.from_pandas(e), rd.from_pandas(seeds), k=5,
                       num_partitions=4, driver_max_edges=0)
            .to_pandas().sort_values("node").reset_index(drop=True))
    assert dist[["node", "level"]].to_numpy().tolist() == \
        out[["node", "level"]].to_numpy().tolist()


def test_transition_matrix_counts_and_probs(ray_session):
    from text_to_rdf_ray.stages.windows import transition_matrix

    df = pd.DataFrame({
        "user_id": [1, 1, 1, 2, 2, 2],
        "ts": pd.to_datetime([1, 2, 3, 1, 2, 3], unit="s"),
        "event_type": ["a", "b", "a", "a", "b", "b"],
        "event_id": [1, 2, 3, 4, 5, 6],
    })
    out = (transition_matrix(rd.from_pandas(df).repartition(2))
           .to_pandas().sort_values(["state_from", "state_to"])
           .reset_index(drop=True))
    # pairs: u1: a->b, b->a ; u2: a->b, b->b
    got = {(r.state_from, r.state_to): (r.n, round(r.prob, 6))
           for r in out.itertuples()}
    assert got == {("a", "b"): (2, 1.0),
                   ("b", "a"): (1, 0.5),
                   ("b", "b"): (1, 0.5)}


def test_ewma_matches_scalar_recursion(ray_session):
    from text_to_rdf_ray.stages.windows import ewma

    rng = np.random.RandomState(5)
    n = 50
    df = pd.DataFrame({
        "user_id": rng.randint(0, 4, n),
        "ts": pd.to_datetime(np.arange(n), unit="s"),
        "value": rng.rand(n) * 10,
        "event_id": np.arange(n),
    })
    out = (ewma(rd.from_pandas(df).repartition(3), alpha=0.3)
           .to_pandas().sort_values(["user_id", "event_id"])
           .reset_index(drop=True))
    a = np.float64(0.3)
    om = np.float64(1.0) - a
    for uid, g in df.sort_values(["user_id", "ts", "event_id"]).groupby(
            "user_id"):
        y = None
        for r in g.itertuples():
            x = np.float64(r.value)
            y = x if y is None else a * x + om * y
            got = out.loc[(out.user_id == uid)
                          & (out.event_id == r.event_id), "ewma"].iloc[0]
            assert got == y  # bit-exact, not approx


def test_iqr_outliers_flags_extremes(ray_session):
    from text_to_rdf_ray.stages.analytics import iqr_outliers

    vals_a = list(np.linspace(10, 20, 21)) + [100.0, -50.0]
    vals_b = list(np.linspace(0, 1, 11))
    df = pd.DataFrame({
        "grp": ["a"] * len(vals_a) + ["b"] * len(vals_b),
        "v": vals_a + vals_b,
    })
    out = (iqr_outliers(rd.from_pandas(df).repartition(3),
                        key_col="grp", value_col="v")
           .to_pandas())
    flagged = out[out["is_outlier"]]
    assert sorted(flagged["v"].tolist()) == [-50.0, 100.0]
    # numpy reference fences for group a
    q1, q3 = np.quantile(vals_a, [0.25, 0.75])
    lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    for _, r in out[out["grp"] == "a"].iterrows():
        assert r["is_outlier"] == (r["v"] < lo or r["v"] > hi)


def test_table_checksum_order_independent(ray_session):
    from text_to_rdf_ray.stages.analytics import table_checksum

    df = pd.DataFrame({"a": np.arange(1000, dtype=np.int64),
                       "b": (np.arange(1000, dtype=np.int64) * 7) % 31})
    c1 = table_checksum(rd.from_pandas(df).repartition(7),
                        id_col="a", mix_col="b").to_pandas()
    shuffled = df.sample(frac=1.0, random_state=3).reset_index(drop=True)
    c2 = table_checksum(rd.from_pandas(shuffled).repartition(2),
                        id_col="a", mix_col="b").to_pandas()
    assert c1["checksum"].iloc[0] == c2["checksum"].iloc[0]
    assert c1["n_rows"].iloc[0] == 1000
    # any single-row mutation changes the checksum
    mut = df.copy()
    mut.loc[500, "b"] += 1
    c3 = table_checksum(rd.from_pandas(mut), id_col="a",
                        mix_col="b").to_pandas()
    assert c3["checksum"].iloc[0] != c1["checksum"].iloc[0]


def test_zorder_prunes_both_dims_and_matches_filter(ray_session, tmp_path):
    from text_to_rdf_ray.stages.lakehouse import zorder_read, zorder_write
    from text_to_rdf_ray.state import counters

    rng = np.random.RandomState(8)
    df = pd.DataFrame({
        "rid": np.arange(20000, dtype=np.int64),
        "x": rng.rand(20000) * 1000.0,
        "y": rng.rand(20000) * 50.0,
    })
    path = str(tmp_path / "ztab")
    man = zorder_write(rd.from_pandas(df).repartition(6), path,
                       cols=["x", "y"], num_files=16)
    assert len(man) >= 8 and man["rows"].sum() == 20000

    for preds in ({"x": (100.0, 160.0)},      # first dim only
                  {"y": (10.0, 13.0)},        # second dim only
                  {"x": (100.0, 300.0), "y": (10.0, 20.0)}):
        counters.snapshot(reset=True)
        got = zorder_read(path, preds=preds).to_pandas()
        c = counters.snapshot(reset=True)
        assert c["zscan_files_read"] < c["zscan_files_total"], preds
        exp = df
        for col, (lo, hi) in preds.items():
            exp = exp[(exp[col] >= lo) & (exp[col] <= hi)]
        assert sorted(got["rid"]) == sorted(exp["rid"]), preds

    # no-overlap predicate: typed empty, zero files read
    counters.snapshot(reset=True)
    empty = zorder_read(path, preds={"x": (2000.0, 3000.0)}).to_pandas()
    c = counters.snapshot(reset=True)
    assert len(empty) == 0 and c.get("zscan_files_read", 0) == 0


def test_compact_files_preserves_rows_and_pruning(ray_session, tmp_path):
    from text_to_rdf_ray.stages.lakehouse import (clustered_write,
                                                  compact_files,
                                                  pruned_read)
    from text_to_rdf_ray.state import counters

    rng = np.random.RandomState(4)
    df = pd.DataFrame({"k": rng.rand(30000) * 100.0,
                       "v": np.arange(30000, dtype=np.int64)})
    path = str(tmp_path / "tab")
    man0 = clustered_write(rd.from_pandas(df).repartition(4), path,
                           key_col="k", num_files=24)
    counters.snapshot(reset=True)
    man1 = compact_files(path, key_col="k", target_rows=8000)
    c = counters.snapshot(reset=True)
    assert len(man1) < len(man0)
    assert c["compact_files_in"] == len(man0)
    assert c["compact_files_out"] == len(man1)
    assert man1["rows"].sum() == 30000
    # zone maps stay monotone and pruning still works + exact rows
    counters.snapshot(reset=True)
    got = pruned_read(path, key_col="k", lo=20.0, hi=30.0).to_pandas()
    c = counters.snapshot(reset=True)
    assert c["prunedscan_files_read"] < c["prunedscan_files_total"]
    exp = df[(df["k"] >= 20.0) & (df["k"] <= 30.0)]
    assert sorted(got["v"]) == sorted(exp["v"])


def test_resample_fill_random_parity_vs_pandas(ray_session):
    from text_to_rdf_ray.stages.windows import resample_fill

    rng = np.random.RandomState(23)
    n = 3000
    df = pd.DataFrame({
        "user_id": rng.randint(0, 40, n),
        "ts": pd.to_datetime(rng.randint(0, 3600 * 200, n), unit="s"),
        "value": rng.rand(n) * 10,
    })
    got = (resample_fill(rd.from_pandas(df).repartition(5))
           .to_pandas().sort_values(["user_id", "window_id"])
           .reset_index(drop=True))

    # pandas datetime64 int view is NANOSECONDS; the operator buckets
    # microseconds // 3_600_000_000 — same hour either way
    b = df.assign(window_id=df["ts"].astype("int64") // (3600 * 10**9))
    agg = (b.groupby(["user_id", "window_id"])
           .agg(n=("value", "size"), sum_value=("value", "sum"))
           .reset_index())
    frames = []
    for uid, g in agg.groupby("user_id"):
        full = pd.DataFrame({
            "user_id": uid,
            "window_id": np.arange(g["window_id"].min(),
                                   g["window_id"].max() + 1)})
        frames.append(full.merge(g, on=["user_id", "window_id"],
                                 how="left"))
    exp = (pd.concat(frames, ignore_index=True)
           .fillna({"n": 0, "sum_value": 0.0})
           .sort_values(["user_id", "window_id"]).reset_index(drop=True))
    assert len(got) == len(exp)
    assert (got["n"].to_numpy() == exp["n"].to_numpy(np.int64)).all()
    assert np.allclose(got["sum_value"], exp["sum_value"], atol=1e-9)


def test_transition_matrix_random_parity_vs_pandas(ray_session):
    from text_to_rdf_ray.stages.windows import transition_matrix

    rng = np.random.RandomState(29)
    n = 2500
    df = pd.DataFrame({
        "user_id": rng.randint(0, 60, n),
        "ts": pd.to_datetime(rng.randint(0, 10**6, n), unit="s"),
        "event_type": rng.choice(list("abcd"), n),
        "event_id": np.arange(n),
    })
    got = (transition_matrix(rd.from_pandas(df).repartition(4))
           .to_pandas().sort_values(["state_from", "state_to"])
           .reset_index(drop=True))
    s = df.sort_values(["user_id", "ts", "event_id"])
    prev = s.groupby("user_id")["event_type"].shift(1)
    pairs = pd.DataFrame({"state_from": prev, "state_to": s["event_type"]}
                         ).dropna()
    exp = (pairs.groupby(["state_from", "state_to"]).size()
           .rename("n").reset_index())
    exp["prob"] = exp["n"] / exp.groupby("state_from")["n"].transform("sum")
    exp = exp.sort_values(["state_from", "state_to"]).reset_index(drop=True)
    assert (got["n"].to_numpy() == exp["n"].to_numpy()).all()
    assert np.allclose(got["prob"], exp["prob"], atol=1e-12)


def test_interval_coverage_merges_islands(ray_session):
    from text_to_rdf_ray.stages.windows import interval_coverage

    # user 1: events at t=0s and t=10s with 30s intervals -> one island
    # [0, 40s); plus t=100s -> second island [100, 130s).  user 2: one.
    df = pd.DataFrame({
        "user_id": [1, 1, 1, 2],
        "ts": pd.to_datetime([0, 10, 100, 7], unit="s"),
    })
    out = (interval_coverage(rd.from_pandas(df).repartition(2),
                             dur_us=30_000_000)
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    assert out[["user_id", "n_islands", "covered_us"]].to_numpy().tolist() \
        == [[1, 2, 70_000_000], [2, 1, 30_000_000]]


def test_interval_coverage_touching_intervals_merge(ray_session):
    from text_to_rdf_ray.stages.windows import interval_coverage

    # end == next start (t=0+30s, t=30s): touching -> single island
    df = pd.DataFrame({"user_id": [1, 1],
                       "ts": pd.to_datetime([0, 30], unit="s")})
    out = interval_coverage(rd.from_pandas(df),
                            dur_us=30_000_000).to_pandas()
    assert out["n_islands"].tolist() == [1]
    assert out["covered_us"].tolist() == [60_000_000]


def test_debounce_keeps_burst_starts(ray_session):
    from text_to_rdf_ray.stages.windows import debounce

    # (1, click): burst at 0s/1s/2s then a fresh event at 1000s
    # (1, view): single event; (2, click): single event
    df = pd.DataFrame({
        "user_id": [1, 1, 1, 1, 1, 2],
        "event_type": ["click"] * 4 + ["view", "click"],
        "event_id": [10, 11, 12, 13, 14, 15],
        "ts": pd.to_datetime([0, 1, 2, 1000, 5, 3], unit="s"),
    })
    out = (debounce(rd.from_pandas(df).repartition(2), gap_us=300_000_000)
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    assert out["event_id"].tolist() == [10, 13, 14, 15]


def test_scd2_history_compresses_runs(ray_session):
    from text_to_rdf_ray.stages.windows import scd2_history

    # user 1: A A B A -> ranges A[0,2) B[2,3) A[3,open); user 2: C only
    df = pd.DataFrame({
        "user_id": [1, 1, 1, 1, 2],
        "event_type": ["A", "A", "B", "A", "C"],
        "event_id": [1, 2, 3, 4, 5],
        "ts": pd.to_datetime([0, 1, 2, 3, 9], unit="s"),
    })
    out = (scd2_history(rd.from_pandas(df).repartition(2))
           .to_pandas()
           .sort_values(["user_id", "valid_from_us"])
           .reset_index(drop=True))
    assert out[["user_id", "event_type", "valid_from_us",
                "valid_to_us"]].to_numpy().tolist() == [
        [1, "A", 0, 2_000_000],
        [1, "B", 2_000_000, 3_000_000],
        [1, "A", 3_000_000, -1],
        [2, "C", 9_000_000, -1]]


def test_grouped_path_order_and_cap(ray_session):
    from text_to_rdf_ray.stages.windows import grouped_path

    # ties on ts broken by event_id; max_n caps user 1 at 3 of 4
    df = pd.DataFrame({
        "user_id": [1, 1, 1, 1, 2],
        "event_type": ["b", "a", "c", "d", "x"],
        "event_id": [2, 1, 3, 4, 9],
        "ts": pd.to_datetime([0, 0, 5, 6, 1], unit="s"),
    })
    out = (grouped_path(rd.from_pandas(df).repartition(2), max_n=3)
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    assert out[["user_id", "path", "n"]].to_numpy().tolist() == [
        [1, "a>b>c", 3], [2, "x", 1]]


def test_cms_upper_bound_and_exact_when_wide(ray_session):
    from text_to_rdf_ray.stages.analytics import cms_build, cms_estimate

    rng = np.random.RandomState(7)
    keys = rng.randint(0, 40, size=2000).astype(np.int64)
    df = pd.DataFrame({"k": keys})
    exact = pd.Series(keys).value_counts().sort_index()
    probe = exact.index.to_numpy(np.int64)

    # narrow sketch: estimates are upper bounds, never under
    regs = cms_build(rd.from_pandas(df).repartition(4), key_col="k",
                     depth=4, width=16)
    est = cms_estimate(regs, probe, depth=4, width=16)
    assert (est["est"].to_numpy() >= exact.to_numpy()).all()

    # wide sketch (few keys, many buckets): exact with high probability
    regs_w = cms_build(rd.from_pandas(df).repartition(4), key_col="k",
                       depth=4, width=4096)
    est_w = cms_estimate(regs_w, probe, depth=4, width=4096)
    assert est_w["est"].to_numpy().tolist() == exact.to_numpy().tolist()


def test_cms_registers_mergeable_across_shards(ray_session):
    from text_to_rdf_ray.stages.analytics import cms_build, cms_estimate

    a = pd.DataFrame({"k": np.array([1, 1, 2], np.int64)})
    b = pd.DataFrame({"k": np.array([1, 3], np.int64)})
    both = cms_build(rd.from_pandas(pd.concat([a, b])), key_col="k",
                     depth=2, width=8).to_pandas()
    ra = cms_build(rd.from_pandas(a), key_col="k", depth=2,
                   width=8).to_pandas()
    rb = cms_build(rd.from_pandas(b), key_col="k", depth=2,
                   width=8).to_pandas()
    merged = (pd.concat([ra, rb]).groupby(["row", "bucket"], as_index=False)
              ["cnt"].sum())
    key = lambda d: d.sort_values(["row", "bucket"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(key(both), key(merged))


def test_skyline_matches_bruteforce(ray_session):
    from text_to_rdf_ray.stages.analytics import skyline_2d

    rng = np.random.RandomState(11)
    df = pd.DataFrame({"x": rng.randint(0, 50, 500).astype(float),
                       "y": rng.randint(0, 50, 500).astype(np.int64)})

    def dominated(xi, yi):
        return (((df.x >= xi) & (df.y <= yi)
                 & ((df.x > xi) | (df.y < yi))).any())

    exp = (df[~df.apply(lambda r: dominated(r.x, r.y), axis=1)]
           .groupby(["x", "y"], as_index=False).size()
           .rename(columns={"size": "n"}))
    out = (skyline_2d(rd.from_pandas(df).repartition(8),
                      x_col="x", y_col="y")
           .to_pandas().sort_values(["x", "y"]).reset_index(drop=True))
    out["n"] = out["n"].astype("int64")
    exp["n"] = exp["n"].astype("int64")
    pd.testing.assert_frame_equal(
        out, exp.sort_values(["x", "y"]).reset_index(drop=True),
        check_dtype=False)


def test_skyline_duplicates_counted(ray_session):
    from text_to_rdf_ray.stages.analytics import skyline_2d

    # two rows at the same frontier point -> n=2; dominated point dropped
    df = pd.DataFrame({"x": [5.0, 5.0, 4.0, 6.0],
                       "y": np.array([1, 1, 0, 3], np.int64)})
    out = (skyline_2d(rd.from_pandas(df), x_col="x", y_col="y")
           .to_pandas().sort_values("x").reset_index(drop=True))
    assert out[["x", "y", "n"]].to_numpy().tolist() == [
        [4.0, 0, 1], [5.0, 1, 2], [6.0, 3, 1]]


def test_welch_ttest_matches_numpy(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import welch_ttest

    rng = np.random.RandomState(5)
    a = rng.normal(10.0, 2.0, 300)
    b = rng.normal(10.5, 3.0, 200)
    df = pd.DataFrame({
        "arm": np.r_[np.zeros(300, int), np.ones(200, int)],
        "value": np.r_[a, b]})
    out = welch_ttest(rd.from_pandas(df).repartition(4),
                      group_col="arm", value_col="value",
                      group_a=0, group_b=1).iloc[0]
    va, vb = a.var(ddof=1), b.var(ddof=1)
    se = va / 300 + vb / 200
    t = (a.mean() - b.mean()) / np.sqrt(se)
    dof = se ** 2 / ((va / 300) ** 2 / 299 + (vb / 200) ** 2 / 199)
    assert out.n_a == 300 and out.n_b == 200
    assert abs(out.mean_a - a.mean()) < 1e-9
    assert abs(out.var_b - vb) < 1e-7
    assert abs(out.t_stat - t) < 1e-9
    assert abs(out.df - dof) < 1e-6


def test_logreg_train_matches_numpy_gd(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import logreg_train

    rng = np.random.RandomState(11)
    x1 = rng.randn(1000)
    x2 = rng.randn(1000)
    y = (1.0 / (1.0 + np.exp(-(0.5 + 2 * x1 - x2)))
         > rng.rand(1000)).astype(np.float64)
    df = pd.DataFrame({"x1": x1, "x2": x2, "y": y})
    out = logreg_train(rd.from_pandas(df).repartition(4),
                       ["x1", "x2"], "y", iterations=5, lr=0.3).iloc[0]

    w = np.zeros(3)
    for _ in range(5):
        z = w[0] + w[1] * x1 + w[2] * x2
        err = 1.0 / (1.0 + np.exp(-z)) - y
        g = np.array([err.sum(), (x1 * err).sum(), (x2 * err).sum()])
        w = w - 0.3 * g / 1000.0
    assert abs(out.w_0 - w[0]) < 1e-9
    assert abs(out.w_1 - w[1]) < 1e-9
    assert abs(out.w_2 - w[2]) < 1e-9
    assert out.n == 1000
    # learning moved the weights in the generative direction
    assert out.w_1 > 0 and out.w_2 < 0


def test_decayed_sum_matches_numpy(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.windows import decayed_sum

    rng = np.random.RandomState(3)
    n = 500
    ts = np.sort(rng.randint(0, 10**6, n)).astype("int64") * 10**6  # µs
    key = rng.randint(0, 7, n).astype("int64")
    val = rng.rand(n) * 10
    as_of = int(2 * 10**12)
    df = pd.DataFrame({"user_id": key, "ts": ts, "value": val})
    out = (decayed_sum(rd.from_pandas(df).repartition(6),
                       key_col="user_id", ts_col="ts",
                       value_col="value", as_of_us=as_of,
                       half_life_s=3600.0).to_pandas()
           .set_index("user_id").sort_index())
    w = val * np.exp(-(((as_of - ts) / 1e6) / 3600.0))
    want = pd.Series(w).groupby(key).sum()
    for k in want.index:
        assert abs(out.loc[k, "decayed_sum"] - want[k]) < 1e-9


def test_read_evolved_pads_and_rejects_conflicts(ray_session, tmp_path):
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from text_to_rdf_ray.stages.lakehouse import read_evolved

    p1 = str(tmp_path / "a.parquet")
    p2 = str(tmp_path / "b.parquet")
    pq.write_table(pa.table({"id": pa.array([1, 2], pa.int64()),
                             "x": pa.array([1.5, 2.5])}), p1)
    pq.write_table(pa.table({"id": pa.array([3], pa.int64()),
                             "y": pa.array(["new"])}), p2)
    out = (read_evolved([p1, p2]).to_pandas()
           .sort_values("id").reset_index(drop=True))
    assert list(out.columns) == ["id", "x", "y"]
    assert out["y"].isna().tolist() == [True, True, False]
    assert out["x"].isna().tolist() == [False, False, True]

    p3 = str(tmp_path / "c.parquet")
    pq.write_table(pa.table({"id": pa.array([4], pa.int64()),
                             "x": pa.array(["oops"])}), p3)  # x: str!
    with pytest.raises(ValueError, match="conflicting"):
        read_evolved([p1, p3])


def test_planned_join_both_paths_same_rows(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.joins import planned_join
    from text_to_rdf_ray.state import counters

    big = rd.from_pandas(pd.DataFrame(
        {"k": np.arange(2000, dtype=np.int64) % 40,
         "v": np.arange(2000, dtype=np.int64)})).repartition(4)
    small = rd.from_pandas(pd.DataFrame(
        {"k": np.arange(40, dtype=np.int64),
         "name": [f"n{i}" for i in range(40)]}))
    counters.snapshot(reset=True)
    a = planned_join(big, small, on="k").to_pandas()
    s1 = counters.snapshot(reset=True)
    assert s1.get("plannedjoin_broadcast") == 1
    b = planned_join(big, small, on="k", broadcast_limit=5).to_pandas()
    s2 = counters.snapshot(reset=True)
    assert s2.get("plannedjoin_shuffle") == 1
    key = ["k", "v", "name"]
    assert (a[key].sort_values(key).reset_index(drop=True)
            .equals(b[key].sort_values(key).reset_index(drop=True)))


def test_melt_minmax_target_encode(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import (melt, minmax_scale,
                                                  target_encode_loo)

    wide = pd.DataFrame({"id": [1, 2], "a": [1.0, 2.0], "b": [3.0, 4.0]})
    long = (melt(rd.from_pandas(wide), id_cols=["id"],
                 value_cols=["a", "b"]).to_pandas()
            .sort_values(["id", "variable"]).reset_index(drop=True))
    assert long.values.tolist() == [[1, "a", 1.0], [1, "b", 3.0],
                                    [2, "a", 2.0], [2, "b", 4.0]]

    df = pd.DataFrame({"k": ["x", "x", "x", "y", "z"],
                       "v": [0.0, 5.0, 10.0, 7.0, 3.0]})
    sc = (minmax_scale(rd.from_pandas(df).repartition(2),
                       key_col="k", value_col="v").to_pandas()
          .sort_values("v").reset_index(drop=True))
    assert sc[sc.k == "x"]["scaled"].tolist() == [0.0, 0.5, 1.0]
    assert (sc[sc.k.isin(["y", "z"])]["scaled"] == 0.0).all()  # constant

    te = (target_encode_loo(rd.from_pandas(df).repartition(2),
                            key_col="k", target_col="v").to_pandas()
          .sort_values("v").reset_index(drop=True))
    xs = te[te.k == "x"].sort_values("v")["te"].tolist()
    assert xs == [7.5, 5.0, 2.5]            # (15-v)/2
    assert te[te.k == "y"]["te"].isna().all()  # singleton -> NaN


def test_merge_agg_states_equals_rebuild(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import merge_agg_states
    from text_to_rdf_ray.stages.exchange import exchange_agg

    rng = np.random.RandomState(2)
    df = pd.DataFrame({"k": rng.randint(0, 9, 600),
                       "v": rng.randint(0, 100, 600).astype("int64")})
    aggs = [("v", "sum", "v_sum"), ("v", "min", "v_min"),
            ("v", "max", "v_max")]
    halves = [df.iloc[:250], df.iloc[250:]]
    states = [exchange_agg(rd.from_pandas(h), "k", aggs,
                           num_partitions=4).materialize()
              for h in halves]
    merged = (merge_agg_states(states, "k",
                               [("v_sum", "sum"), ("v_min", "min"),
                                ("v_max", "max")], num_partitions=4)
              .to_pandas().sort_values("k").reset_index(drop=True))
    want = (df.groupby("k").agg(v_sum=("v", "sum"), v_min=("v", "min"),
                                v_max=("v", "max")).reset_index())
    pd.testing.assert_frame_equal(
        merged.astype("int64"), want.astype("int64"))


def test_metadata_agg_counts_without_reading_covered_files(
        ray_session, tmp_path):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.lakehouse import clustered_write, metadata_agg
    from text_to_rdf_ray.state import counters

    df = pd.DataFrame({"event_id": range(1000),
                       "value": [float(i % 100) for i in range(1000)]})
    path = str(tmp_path / "meta")
    clustered_write(rd.from_pandas(df), path, key_col="value",
                    num_files=8)
    counters.snapshot(reset=True)
    out = metadata_agg(path, key_col="value", lo=10.0, hi=80.0)
    snap = counters.snapshot()
    exact = int(((df.value >= 10.0) & (df.value <= 80.0)).sum())
    assert int(out.n_rows.iloc[0]) == exact
    # several interior files answered from the manifest alone
    assert snap["metaagg_files_counted"] >= 1
    assert (snap["metaagg_files_scanned"]
            < snap["metaagg_files_total"])


def test_metadata_agg_disjoint_range_is_zero(ray_session, tmp_path):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.lakehouse import clustered_write, metadata_agg

    df = pd.DataFrame({"event_id": range(100),
                       "value": [float(i) for i in range(100)]})
    path = str(tmp_path / "meta0")
    clustered_write(rd.from_pandas(df), path, key_col="value",
                    num_files=4)
    out = metadata_agg(path, key_col="value", lo=500.0, hi=600.0)
    assert int(out.n_rows.iloc[0]) == 0


def test_time_weighted_avg_hand_computed(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.windows import time_weighted_avg

    ts = pd.to_datetime(["2026-01-01 00:00:00", "2026-01-01 00:00:10",
                         "2026-01-01 00:00:40", "2026-01-01 09:00:00"])
    ev = pd.DataFrame({"event_id": [1, 2, 3, 4],
                       "user_id": [7, 7, 7, 9],
                       "ts": ts,
                       "value": [10.0, 20.0, 30.0, 5.0]})
    out = time_weighted_avg(rd.from_pandas(ev)).to_pandas()
    # user 9 has one event -> no span -> dropped
    assert list(out.user_id) == [7]
    assert int(out.n_spans.iloc[0]) == 2
    # (10*10s + 20*30s) / 40s = 17.5
    assert abs(out.twa.iloc[0] - 17.5) < 1e-9


def test_time_weighted_avg_zero_duration_ties(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.windows import time_weighted_avg

    ts = pd.to_datetime(["2026-01-01", "2026-01-01",
                         "2026-01-02"])
    ev = pd.DataFrame({"event_id": [1, 2, 3],
                       "user_id": [1, 1, 1],
                       "ts": ts,
                       "value": [100.0, 2.0, 9.0]})
    out = time_weighted_avg(rd.from_pandas(ev)).to_pandas()
    # tie span (event 1 -> 2, dur 0) contributes nothing; value 2 holds
    # one day; event 3 opens no span -> twa = 2.0, but the zero span
    # still counts as a span row (matches the SQL replay's count(*))
    assert int(out.n_spans.iloc[0]) == 2
    assert abs(out.twa.iloc[0] - 2.0) < 1e-12


def test_survival_table_hand_computed(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.windows import survival_table

    day = pd.Timedelta(days=1)
    base = pd.Timestamp("2026-01-01")
    ev = pd.DataFrame({
        "user_id": [1, 1, 2, 3, 3],
        "ts": [base, base + 2 * day,          # u1: lifetime 2d, death
               base + 19 * day,               # u2: lifetime 0, censored
               base + 10 * day, base + 20 * day],  # u3: 10d, censored
    })
    out = survival_table(rd.from_pandas(ev)).sort_values("day")
    assert list(out.day) == [0, 2, 10]
    assert list(out.at_risk) == [3, 2, 1]
    assert list(out.deaths) == [0, 1, 0]
    assert list(out.censored) == [1, 0, 1]
    assert abs(out.factor.iloc[0] - 1.0) < 1e-12
    assert abs(out.factor.iloc[1] - 0.5) < 1e-12
    assert abs(out.factor.iloc[2] - 1.0) < 1e-12


def test_pattern_adjacent_strict_contiguity(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.windows import pattern_adjacent

    base = pd.Timestamp("2026-01-01")
    m = pd.Timedelta(minutes=1)
    ev = pd.DataFrame({
        "event_id": [1, 2, 3, 4, 5, 6],
        "user_id": [1, 1, 1, 2, 2, 2],
        "ts": [base, base + m, base + 2 * m,
               base, base + m, base + 2 * m],
        # u1: view -> purchase adjacent (match); u2: view -> click ->
        # purchase (click breaks contiguity -> NO match)
        "event_type": ["view", "purchase", "click",
                       "view", "click", "purchase"],
    })
    out = pattern_adjacent(rd.from_pandas(ev)).to_pandas()
    assert len(out) == 1
    assert (int(out.user_id.iloc[0]), int(out.first_id.iloc[0]),
            int(out.second_id.iloc[0])) == (1, 1, 2)
    assert int(out.gap_us.iloc[0]) == 60_000_000


def test_pattern_adjacent_gap_bound(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.windows import pattern_adjacent

    base = pd.Timestamp("2026-01-01")
    ev = pd.DataFrame({
        "event_id": [1, 2],
        "user_id": [1, 1],
        "ts": [base, base + pd.Timedelta(hours=2)],
        "event_type": ["view", "purchase"],
    })
    out = pattern_adjacent(rd.from_pandas(ev),
                           max_gap_us=3_600_000_000).to_pandas()
    assert out.empty or len(out) == 0


def test_time_travel_versions_survive_overwrite(ray_session, tmp_path):
    import pandas as pd
    import pytest
    import ray.data as rd

    from text_to_rdf_ray.stages.lakehouse import commit_version, read_version

    path = str(tmp_path / "tbl")
    v1 = commit_version(rd.from_pandas(
        pd.DataFrame({"x": [1, 2, 3]})), path)
    v2 = commit_version(rd.from_pandas(
        pd.DataFrame({"x": [4, 5]})), path, mode="append")
    v3 = commit_version(rd.from_pandas(
        pd.DataFrame({"x": [99]})), path, mode="overwrite")
    assert (v1, v2, v3) == (1, 2, 3)
    assert sorted(read_version(path, 1).to_pandas().x) == [1, 2, 3]
    assert sorted(read_version(path, 2).to_pandas().x) == [1, 2, 3, 4, 5]
    assert sorted(read_version(path, 3).to_pandas().x) == [99]
    with pytest.raises(ValueError, match="no version 9"):
        read_version(path, 9)


def test_time_weighted_avg_matches_reference_random(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.windows import time_weighted_avg

    rng = np.random.RandomState(5)
    n = 300
    ev = pd.DataFrame({
        "event_id": np.arange(n),
        "user_id": rng.randint(0, 12, n),
        "ts": pd.Timestamp("2026-01-01")
        + pd.to_timedelta(rng.randint(0, 10**6, n), unit="s"),
        "value": rng.rand(n) * 100,
    })
    out = time_weighted_avg(rd.from_pandas(ev)).to_pandas()
    got = dict(zip(out.user_id, out.twa))

    ref = {}
    for uid, g in ev.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"])
        t = g.ts.astype("int64").to_numpy() // 1000  # ns -> us
        dur = np.diff(t).astype(np.float64)
        if len(dur) == 0 or dur.sum() <= 0:
            continue
        ref[uid] = float((g.value.to_numpy()[:-1] * dur).sum()
                         / dur.sum())
    assert set(got) == set(ref)
    for uid in ref:
        assert abs(got[uid] - ref[uid]) < 1e-9, uid


def test_auc_score_matches_reference(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import auc_score

    rng = np.random.RandomState(17)
    n = 500
    # positives drawn higher on average, WITH ties (integer scores)
    y = (rng.rand(n) < 0.4).astype(np.int64)
    s = rng.randint(0, 40, n) + y * rng.randint(0, 15, n)
    df = pd.DataFrame({"score": s, "label": y})
    out = auc_score(rd.from_pandas(df), score_col="score",
                    label_col="label")

    # reference: rank-based AUC with midrank tie handling
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(n, np.float64)
    sorted_s = s[order]
    i = 0
    r = 1
    while i < n:
        j = i
        while j < n and sorted_s[j] == sorted_s[i]:
            j += 1
        ranks[order[i:j]] = (r + (r + (j - i) - 1)) / 2.0
        r += j - i
        i = j
    n_pos = int(y.sum())
    n_neg = n - n_pos
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    ref = u / (n_pos * n_neg)
    assert abs(out.auc.iloc[0] - ref) < 1e-12
    assert int(out.n_pos.iloc[0]) == n_pos


def test_auc_perfect_and_random(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import auc_score

    perfect = pd.DataFrame({"score": [1, 2, 3, 10, 11, 12],
                            "label": [0, 0, 0, 1, 1, 1]})
    out = auc_score(rd.from_pandas(perfect), score_col="score",
                    label_col="label")
    assert abs(out.auc.iloc[0] - 1.0) < 1e-12
    allsame = pd.DataFrame({"score": [5] * 6,
                            "label": [0, 0, 0, 1, 1, 1]})
    out2 = auc_score(rd.from_pandas(allsame), score_col="score",
                     label_col="label")
    assert abs(out2.auc.iloc[0] - 0.5) < 1e-12


def test_psi_bins_identical_slices_near_zero(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import psi_bins

    rng = np.random.RandomState(23)
    v = rng.rand(2000) * 100
    df = pd.DataFrame({"value": np.concatenate([v, v]),
                       "grp": ["a"] * 2000 + ["b"] * 2000})
    out = psi_bins(rd.from_pandas(df), value_col="value",
                   group_col="grp", a_value="a", b_value="b",
                   lo=0.0, hi=100.0, bins=10)
    # identical distributions -> PSI exactly 0 (same counts per bin)
    assert abs(out.psi_term.sum()) < 1e-12
    assert (out.n_a.to_numpy() == out.n_b.to_numpy()).all()


def test_psi_bins_shifted_distribution_flags_drift(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import psi_bins

    rng = np.random.RandomState(24)
    a = rng.rand(3000) * 50          # concentrated low
    b = 50 + rng.rand(3000) * 50     # concentrated high
    df = pd.DataFrame({"value": np.concatenate([a, b]),
                       "grp": ["a"] * 3000 + ["b"] * 3000})
    out = psi_bins(rd.from_pandas(df), value_col="value",
                   group_col="grp", a_value="a", b_value="b",
                   lo=0.0, hi=100.0, bins=10)
    assert out.psi_term.sum() > 0.2  # the standard drift threshold
    assert len(out) == 10


def test_calibration_bins_perfectly_calibrated(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import calibration_bins

    # score s repeated 100x; labels = exactly s*100 positives per group
    rows = []
    for s in (0.05, 0.25, 0.55, 0.95):
        k = int(s * 100)
        rows += [(s, 1)] * k + [(s, 0)] * (100 - k)
    df = pd.DataFrame(rows, columns=["score", "label"])
    out = calibration_bins(rd.from_pandas(df), score_col="score",
                           label_col="label", bins=10)
    got = dict(zip(out.bin, out.frac_pos))
    assert abs(got[0] - 0.05) < 1e-12
    assert abs(got[2] - 0.25) < 1e-12
    assert abs(got[5] - 0.55) < 1e-12
    assert abs(got[9] - 0.95) < 1e-12
    assert out.n.tolist() == [100, 100, 100, 100]


def test_double_smooth_matches_scalar_recursion(ray_session):
    from text_to_rdf_ray.stages.windows import double_smooth

    rng = np.random.RandomState(6)
    n = 40
    df = pd.DataFrame({
        "user_id": rng.randint(0, 3, n),
        "ts": pd.to_datetime(np.arange(n), unit="s"),
        "value": rng.rand(n) * 10,
        "event_id": np.arange(n),
    })
    out = (double_smooth(rd.from_pandas(df).repartition(3),
                         alpha=0.5, beta=0.3)
           .to_pandas().sort_values(["user_id", "event_id"])
           .reset_index(drop=True))
    a, bt = np.float64(0.5), np.float64(0.3)
    oma, omb = np.float64(1.0) - a, np.float64(1.0) - bt
    for uid, g in df.sort_values(["user_id", "ts", "event_id"]).groupby(
            "user_id"):
        lvl = trd = None
        for r in g.itertuples():
            x = np.float64(r.value)
            if lvl is None:
                lvl, trd = x, np.float64(0.0)
            else:
                l_new = a * x + oma * (lvl + trd)
                trd = bt * (l_new - lvl) + omb * trd
                lvl = l_new
            row = out[(out.user_id == uid) & (out.event_id == r.event_id)]
            assert row["level"].iloc[0] == lvl  # bit-exact
            assert row["trend"].iloc[0] == trd


def test_burst_detect_flags_spike_and_drops_warmup(ray_session):
    from text_to_rdf_ray.stages.windows import burst_detect

    # one key: 6 quiet hours (counts 2,3,2,3,2,3), then a 30-event spike
    rows = []
    counts = [2, 3, 2, 3, 2, 3, 30]
    for h, c in enumerate(counts):
        for i in range(c):
            rows.append({"event_type": "k",
                         "ts": pd.Timestamp("2024-01-01") +
                               pd.Timedelta(hours=h, seconds=i)})
    out = (burst_detect(rd.from_pandas(pd.DataFrame(rows)).repartition(3),
                        baseline=6, z_threshold=2.0)
           .to_pandas())
    # the 6 warm-up windows are dropped; only the spike window remains
    assert len(out) == 1
    r = out.iloc[0]
    assert r["n"] == 30
    assert r["base_mean"] == 15 / 6.0
    assert bool(r["burst"])
    assert r["z"] > 2.0


def test_burst_detect_flat_baseline_no_burst(ray_session):
    from text_to_rdf_ray.stages.windows import burst_detect

    rows = []
    for h in range(7):
        for i in range(5):  # identical counts -> var 0 on window 7
            rows.append({"event_type": "k",
                         "ts": pd.Timestamp("2024-01-01") +
                               pd.Timedelta(hours=h, seconds=i)})
    out = burst_detect(rd.from_pandas(pd.DataFrame(rows)),
                       baseline=6).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["base_var"] == 0.0
    assert out.iloc[0]["z"] == 0.0
    assert not bool(out.iloc[0]["burst"])


def test_resample_fill_locf_carries_last_sum(ray_session):
    from text_to_rdf_ray.stages.windows import resample_fill

    df = pd.DataFrame({
        "user_id": [1, 1, 1],
        "ts": pd.to_datetime(["2024-01-01 00:10", "2024-01-01 00:50",
                              "2024-01-01 04:30"]),
        "value": [2.5, 1.5, 7.0],
    })
    out = (resample_fill(rd.from_pandas(df), fill="locf")
           .to_pandas().sort_values("window_id").reset_index(drop=True))
    assert list(out["n"]) == [2, 0, 0, 0, 1]
    assert list(out["sum_value"]) == [4.0, 4.0, 4.0, 4.0, 7.0]
    # zero mode unchanged
    outz = (resample_fill(rd.from_pandas(df), fill="zero")
            .to_pandas().sort_values("window_id").reset_index(drop=True))
    assert list(outz["sum_value"]) == [4.0, 0.0, 0.0, 0.0, 7.0]
    import pytest
    with pytest.raises(ValueError):
        resample_fill(rd.from_pandas(df), fill="bogus")


def test_sampled_quantiles_rate_one_is_exact(ray_session):
    from text_to_rdf_ray.stages.analytics import sampled_quantiles

    rng = np.random.RandomState(8)
    df = pd.DataFrame({"id": np.arange(400),
                       "k": rng.randint(0, 3, 400).astype(str),
                       "v": rng.rand(400) * 100})
    out = sampled_quantiles(rd.from_pandas(df).repartition(4),
                            id_col="id", key_col="k", value_col="v",
                            rate=1.0, qs=[0.5])
    for k, g in df.groupby("k"):
        want = np.quantile(g["v"].to_numpy(), 0.5)
        got = out.loc[out["k"] == k, "q_0.5"].iloc[0]
        assert abs(got - want) < 1e-9
    import pytest
    with pytest.raises(ValueError):
        sampled_quantiles(rd.from_pandas(df), id_col="id", key_col="k",
                          value_col="v", rate=0.0)


def test_rate_limit_caps_per_window_deterministically(ray_session):
    from text_to_rdf_ray.stages.windows import rate_limit

    rows = []
    # user 1: 7 events in hour 0 (2 share a ts -> event_id tiebreak),
    # 2 events in hour 1; user 2: 3 events in hour 0
    base = pd.Timestamp("2024-01-01")
    for i in range(7):
        rows.append({"user_id": 1, "event_id": 100 - i,
                     "ts": base + pd.Timedelta(minutes=min(i, 5))})
    for i in range(2):
        rows.append({"user_id": 1, "event_id": 200 + i,
                     "ts": base + pd.Timedelta(hours=1, minutes=i)})
    for i in range(3):
        rows.append({"user_id": 2, "event_id": 300 + i,
                     "ts": base + pd.Timedelta(minutes=i)})
    out = rate_limit(rd.from_pandas(pd.DataFrame(rows)).repartition(3),
                     max_per_window=6).to_pandas()
    got = set(out["event_id"])
    # user 1 hour 0: (ts, event_id) order -> minutes 0..4 win, then the
    # shared-minute-5 pair resolves by smaller event_id (94 in, 95 out)
    assert got == {100, 99, 98, 97, 96, 94, 200, 201, 300, 301, 302}
    assert (out.groupby(["user_id", "window_id"]).size() <= 6).all()


def test_autocorr_matches_numpy_reference(ray_session):
    from text_to_rdf_ray.stages.windows import autocorr

    rng = np.random.RandomState(11)
    rows = []
    for key, n_h in (("a", 30), ("b", 12)):
        for h in range(n_h):
            for _ in range(int(rng.randint(1, 6))):
                rows.append({"event_type": key,
                             "ts": pd.Timestamp("2024-01-01") +
                                   pd.Timedelta(hours=h, minutes=1)})
    df = pd.DataFrame(rows)
    out = autocorr(rd.from_pandas(df).repartition(4),
                   lags=(1, 2)).to_pandas()
    # reference: per-key hourly counts, mean-centered lag products
    cnt = (df.assign(w=df["ts"].values.astype("datetime64[h]"))
           .groupby(["event_type", "w"]).size())
    for key in ("a", "b"):
        x = cnt[key].to_numpy(np.float64)
        d = x - x.mean()
        den = float((d * d).sum())
        for k in (1, 2):
            want = float((d[k:] * d[:-k]).sum()) / den
            r = out[(out["event_type"] == key) & (out["lag"] == k)]
            assert len(r) == 1
            assert abs(float(r["acf"].iloc[0]) - want) < 1e-9
            assert int(r["n_windows"].iloc[0]) == len(x)


def test_autocorr_constant_series_zero(ray_session):
    from text_to_rdf_ray.stages.windows import autocorr

    rows = [{"event_type": "k",
             "ts": pd.Timestamp("2024-01-01") + pd.Timedelta(hours=h)}
            for h in range(6)]
    out = autocorr(rd.from_pandas(pd.DataFrame(rows)),
                   lags=(1,)).to_pandas()
    assert len(out) == 1
    assert out["acf"].iloc[0] == 0.0  # den = 0 -> defined as 0
    with pytest.raises(ValueError):
        autocorr(rd.from_pandas(pd.DataFrame(rows)), lags=(0,))


def test_positional_delete_masked_scan(ray_session, tmp_path):
    from text_to_rdf_ray.stages.lakehouse import (positional_delete,
                                                  read_with_deletes)

    path = str(tmp_path / "tab")
    df = pd.DataFrame({"k": np.arange(100, dtype=np.int64),
                       "v": np.arange(100, dtype=np.int64) * 10})
    rd.from_pandas(df).repartition(4).write_parquet(path)
    res = positional_delete(path, "k", [5, 17, 17, 99, 1000])
    assert res["rows_deleted"] == 3  # 1000 absent, 17 deduped
    assert res["files_with_deletes"] <= res["files_total"]
    out = read_with_deletes(path).to_pandas().sort_values("k")
    assert set(out["k"]) == set(range(100)) - {5, 17, 99}
    assert (out["v"].to_numpy() == out["k"].to_numpy() * 10).all()
    # data files untouched (immutable): a raw scan still sees all rows
    import ray.data as _rd
    assert _rd.read_parquet(path).count() == 100
    with pytest.raises(ValueError):
        positional_delete(path, "k", range(10), max_keys=5)


def test_benford_audit_manual(ray_session):
    from text_to_rdf_ray.stages.analytics import benford_audit

    # digits: 1.23 -> 123 cents -> 1; 45.0 -> 4500 -> 4; 0.09 -> 9 -> 9;
    # 0.0 and -3.0 excluded (cents <= 0)
    df = pd.DataFrame({
        "event_type": ["a", "a", "a", "a", "a", "b"],
        "value": [1.23, 45.0, 0.09, 0.0, -3.0, 1.0]})
    out = benford_audit(rd.from_pandas(df)).to_pandas()
    a = out[out["event_type"] == "a"].set_index("digit")
    assert sorted(a.index) == [1, 4, 9]
    assert int(a.loc[1, "n"]) == 1
    total = 3.0
    exp1 = total * np.log10(1 + 1.0 / 1)
    assert abs(float(a.loc[1, "expected_n"]) - exp1) < 1e-12
    assert abs(float(a.loc[1, "chi2_term"])
               - (1 - exp1) ** 2 / exp1) < 1e-12
    b = out[out["event_type"] == "b"]
    assert len(b) == 1 and int(b["digit"].iloc[0]) == 1
    # single-digit-class key: expected = total (log10(2)*?) no — digit 1
    # with total 1: expected = log10(2) ~ 0.301
    assert abs(float(b["expected_n"].iloc[0]) - np.log10(2.0)) < 1e-12


def test_cusum_detect_level_shift(ray_session):
    from text_to_rdf_ray.stages.windows import cusum_detect

    # key "x": 1 event/hour for 20h, then 5/hour for 10h -> CUSUM climbs
    # after the shift and alarms; manual recurrence replayed exactly
    rows = []
    for h in range(20):
        rows.append({"event_type": "x",
                     "ts": pd.Timestamp("2024-01-01") + pd.Timedelta(hours=h)})
    for h in range(20, 30):
        for j in range(5):
            rows.append({"event_type": "x",
                         "ts": (pd.Timestamp("2024-01-01")
                                + pd.Timedelta(hours=h, minutes=j))})
    out = (cusum_detect(rd.from_pandas(pd.DataFrame(rows)),
                        kappa=0.5, h=4.0).to_pandas()
           .sort_values("window_id").reset_index(drop=True))
    assert len(out) == 30
    x = out["n"].to_numpy(np.float64)
    ref = x.mean()
    s = 0.0
    for i in range(30):
        s = max(0.0, s + ((x[i] - ref) - 0.5))
        assert abs(float(out["s"].iloc[i]) - s) < 1e-12
        assert bool(out["alarm"].iloc[i]) == (s > 4.0)
    assert not out["alarm"].iloc[:20].any()
    assert out["alarm"].iloc[-1]


def test_vacuum_table_reclaims_files(ray_session, tmp_path):
    import glob
    import os

    from text_to_rdf_ray.stages.lakehouse import (commit_version,
                                                  read_version,
                                                  vacuum_table)

    path = str(tmp_path / "tab")
    d1 = pd.DataFrame({"k": np.arange(10, dtype=np.int64)})
    d2 = pd.DataFrame({"k": np.arange(10, 20, dtype=np.int64)})
    d3 = pd.DataFrame({"k": np.arange(100, 105, dtype=np.int64)})
    commit_version(rd.from_pandas(d1).repartition(2), path)
    commit_version(rd.from_pandas(d2).repartition(2), path, mode="append")
    commit_version(rd.from_pandas(d3).repartition(2), path,
                   mode="overwrite")
    files_before = len(glob.glob(os.path.join(path, "commit_*",
                                              "*.parquet")))
    res = vacuum_table(path, keep_last=1)
    assert res == {"versions_kept": 1, "manifests_removed": 2,
                   "files_removed": files_before - len(
                       glob.glob(os.path.join(path, "commit_*",
                                              "*.parquet")))}
    assert res["files_removed"] > 0
    # v3 survives byte-intact; v1/v2 manifests are gone
    assert sorted(read_version(path, 3).to_pandas()["k"]) == list(
        range(100, 105))
    with pytest.raises(ValueError):
        read_version(path, 1)
    with pytest.raises(ValueError):
        vacuum_table(path, keep_last=0)
    # idempotent second vacuum removes nothing further
    res2 = vacuum_table(path, keep_last=1)
    assert res2["files_removed"] == 0 and res2["manifests_removed"] == 0


def test_vacuum_keeps_append_chain(ray_session, tmp_path):
    """keep_last=2 over v1 + append-v2: v1's files stay live through
    v2's manifest, so nothing is physically deleted."""
    import glob
    import os

    from text_to_rdf_ray.stages.lakehouse import (commit_version,
                                                  read_version,
                                                  vacuum_table)

    path = str(tmp_path / "tab")
    commit_version(rd.from_pandas(
        pd.DataFrame({"k": np.arange(5, dtype=np.int64)})), path)
    commit_version(rd.from_pandas(
        pd.DataFrame({"k": np.arange(5, 9, dtype=np.int64)})), path,
        mode="append")
    commit_version(rd.from_pandas(
        pd.DataFrame({"k": np.arange(9, 12, dtype=np.int64)})), path,
        mode="append")
    res = vacuum_table(path, keep_last=2)
    assert res["manifests_removed"] == 1
    assert res["files_removed"] == 0  # v1 files live via v2's manifest
    assert sorted(read_version(path, 2).to_pandas()["k"]) == list(range(9))


def test_kmv_distinct_exact_and_estimate(ray_session):
    from text_to_rdf_ray.stages.analytics import kmv_distinct, splitmix64

    # key "small": 10 distinct ids (< k=16) -> exact count; key "big":
    # 500 distinct -> estimate = 15 * 2^64 / h_(16), replayed manually
    rows = pd.DataFrame({
        "k": ["small"] * 30 + ["big"] * 500,
        "id": ([*range(10)] * 3) + [*range(1000, 1500)]})
    out = (kmv_distinct(rd.from_pandas(rows), key_col="k", id_col="id",
                        k=16).to_pandas().set_index("k"))
    assert int(out.loc["small", "n_kept"]) == 10
    assert float(out.loc["small", "est_distinct"]) == 10.0
    assert int(out.loc["big", "n_kept"]) == 16
    h = np.sort(splitmix64(np.arange(1000, 1500, dtype=np.int64)))
    kth = h[15]
    want = 15 * 2.0 ** 64 / float(kth)
    assert float(out.loc["big", "est_distinct"]) == want
    assert out.loc["big", "kth_hash"] == str(int(kth))
    # the estimate is in the right ballpark for a uniform hash sample
    assert 250 < want < 1000


def test_robust_zscore_outlier_and_zero_mad(ray_session):
    from text_to_rdf_ray.stages.analytics import robust_zscore

    # key "a": tight cluster + one wild sentinel -> only it flags;
    # key "b": constant values -> MAD 0 -> rz defined 0, no flags
    df = pd.DataFrame({
        "id": np.arange(12, dtype=np.int64),
        "k": ["a"] * 7 + ["b"] * 5,
        "v": [10.0, 10.5, 9.5, 10.25, 9.75, 10.1, 1e9] + [3.0] * 5})
    out = (robust_zscore(rd.from_pandas(df), key_col="k", value_col="v",
                         id_col="id").to_pandas()
           .sort_values("id").reset_index(drop=True))
    a = out[out["k"] == "a"]
    assert list(a["outlier"]) == [False] * 6 + [True]
    # manual: med/MAD of the 7 values (rounded 6dp), modified z
    vals = np.array([10.0, 10.5, 9.5, 10.25, 9.75, 10.1, 1e9])
    med = round(float(np.quantile(vals, 0.5)), 6)
    mad = round(float(np.quantile(np.abs(vals - med), 0.5)), 6)
    want = 0.6745 * (vals - med) / mad
    np.testing.assert_allclose(a["rz"].to_numpy(), want, rtol=1e-12)
    b = out[out["k"] == "b"]
    assert (b["rz"] == 0.0).all() and not b["outlier"].any()


def test_version_diff_added_removed(ray_session, tmp_path):
    from text_to_rdf_ray.stages.lakehouse import commit_version, version_diff

    path = str(tmp_path / "tab")
    v1 = pd.DataFrame({"k": np.array([1, 2, 3, 4], np.int64),
                       "v": np.array([10, 20, 30, 40], np.int64)})
    # v2: row 2 unchanged, row 3 value changed, row 4 gone, row 5 new
    v2 = pd.DataFrame({"k": np.array([2, 3, 5], np.int64),
                       "v": np.array([20, 31, 50], np.int64)})
    commit_version(rd.from_pandas(v1), path)
    commit_version(rd.from_pandas(v2), path, mode="overwrite")
    out = (version_diff(path, 1, 2, cols=["k", "v"]).to_pandas()
           .sort_values(["change", "k"]).reset_index(drop=True))
    got = set(map(tuple, out[["k", "v", "change"]].itertuples(index=False)))
    assert got == {(3, 31, "added"), (5, 50, "added"),
                   (1, 10, "removed"), (3, 30, "removed"),
                   (4, 40, "removed")}


def test_ohlc_bars_endpoints_and_ties(ray_session):
    from text_to_rdf_ray.stages.windows import ohlc_bars

    base = pd.Timestamp("2024-01-01")
    # one hour window for key "a": event 2 and 3 tie on ts -> id breaks
    df = pd.DataFrame({
        "event_id": np.array([1, 2, 3, 4], np.int64),
        "event_type": ["a"] * 4,
        "ts": [base + pd.Timedelta(minutes=m) for m in (5, 50, 50, 20)],
        "value": [10.0, 99.0, 7.0, 55.0]})
    out = ohlc_bars(rd.from_pandas(df), num_partitions=4).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert r["open"] == 10.0          # earliest ts
    assert r["close"] == 7.0          # ts tie at :50 -> higher id wins
    assert r["high"] == 99.0 and r["low"] == 7.0 and r["n"] == 4


def test_weighted_quantile_manual_and_guards(ray_session):
    import pytest

    from text_to_rdf_ray.stages.analytics import weighted_quantile

    # key "a": values 1(w=1), 2(w=1), 3(w=8): total 10 -> q0.5 target 5
    # -> first value whose cum >= 5 is 3 (cum 10)
    df = pd.DataFrame({
        "k": ["a"] * 3 + ["b"] * 2,
        "v": np.array([1, 2, 3, 7, 9], np.int64),
        "w": np.array([1, 1, 8, 5, 5], np.int64)})
    out = (weighted_quantile(rd.from_pandas(df), key_col="k",
                             value_col="v", weight_col="w",
                             qs=(0.5,), num_partitions=4).to_pandas()
           .set_index("k"))
    assert int(out.loc["a", "v"]) == 3
    assert (int(out.loc["a", "cum_weight"]),
            int(out.loc["a", "total_weight"])) == (10, 10)
    # key "b": target 5, first hit is 7 (cum 5 >= 5, inclusive)
    assert int(out.loc["b", "v"]) == 7
    with pytest.raises(Exception):
        weighted_quantile(rd.from_pandas(df.assign(w=df.w * 1.5)),
                          key_col="k", value_col="v", weight_col="w",
                          qs=(0.5,)).to_pandas()
    with pytest.raises(ValueError):
        weighted_quantile(rd.from_pandas(df), key_col="k",
                          value_col="v", weight_col="w", qs=(0.0,))


def test_f2_moment_matches_direct_replay(ray_session):
    from text_to_rdf_ray.stages.analytics import f2_moment, splitmix64

    ids = np.array([1, 1, 1, 2, 2, 5, 7, 7, 7, 7], np.int64)
    out = f2_moment(rd.from_pandas(pd.DataFrame({"k": ids})),
                    id_col="k", k=4)
    # direct definition replay: s_r = sum of ±1 signs over ROWS
    for r in range(4):
        bits = splitmix64(ids * np.int64(4) + np.int64(r)) & np.uint64(1)
        s = 2 * int(bits.sum()) - len(ids)
        row = out[out["r"] == r].iloc[0]
        assert int(row["s"]) == s and int(row["est"]) == s * s
    # exact F2 (sum of squared counts) for reference: 9+4+1+16 = 30;
    # the mean estimate is unbiased but noisy at k=4 — just finite
    assert np.isfinite(out["est"].astype(float).mean())


def test_rolling_median_manual(ray_session):
    from text_to_rdf_ray.stages.windows import rolling_median

    df = pd.DataFrame({
        "user_id": np.ones(5, np.int64),
        "event_id": np.arange(5, dtype=np.int64),
        "ts": pd.date_range("2024-01-01", periods=5, freq="1min"),
        "value": [5.0, 1.0, 9.0, 4.0, 100.0]})
    out = (rolling_median(rd.from_pandas(df), window_rows=3,
                          num_partitions=4).to_pandas()
           .sort_values("event_id").reset_index(drop=True))
    # head-shrunk windows: [5], [5,1], [5,1,9], [1,9,4], [9,4,100]
    np.testing.assert_allclose(out["rolling_med"].to_numpy(),
                               [5.0, 3.0, 5.0, 4.0, 9.0])


def test_rrf_fuse_manual(ray_session):
    from text_to_rdf_ray.stages.retrieval import rrf_fuse

    a = pd.DataFrame({"query_id": ["q"] * 3, "doc_id": [10, 20, 30],
                      "rank": [1, 2, 3]})
    b = pd.DataFrame({"query_id": ["q"] * 3, "doc_id": [20, 10, 40],
                      "rank": [1, 2, 3]})
    out = rrf_fuse([a, b], k=60, top_n=10)
    f = out.set_index("doc_id")
    # 10: 1/61 + 1/62; 20: 1/62 + 1/61 (equal sum -> doc asc tie);
    # 30: 1/63; 40: 1/63 (tie -> 30 first)
    both = 1 / 61 + 1 / 62
    assert f.loc[10, "rrf_score"] == both == f.loc[20, "rrf_score"]
    assert list(out["doc_id"]) == [10, 20, 30, 40]
    assert list(out["rrf_rank"]) == [1, 2, 3, 4]
    assert list(out["n_lists"]) == [2, 2, 1, 1]
    import pytest
    with pytest.raises(ValueError):
        rrf_fuse([])


def test_chi2_independence_manual(ray_session):
    from text_to_rdf_ray.stages.analytics import chi2_independence

    # 2x2 table: a/x 30, a/y 10, b/x 10, b/y 30 -> strong association
    df = pd.DataFrame({
        "A": ["a"] * 40 + ["b"] * 40,
        "B": ["x"] * 30 + ["y"] * 10 + ["x"] * 10 + ["y"] * 30})
    out = chi2_independence(rd.from_pandas(df), col_a="A", col_b="B")
    out = out.set_index(["A", "B"])
    # expected for each cell = 40*40/80 = 20; term = (30-20)^2/20 = 5
    for cell, o in [(("a", "x"), 30), (("a", "y"), 10),
                    (("b", "x"), 10), (("b", "y"), 30)]:
        r = out.loc[cell]
        assert r["expected_n"] == 20.0
        assert r["chi2_term"] == (o - 20.0) ** 2 / 20.0
        assert int(r["dof"]) == 1
    assert float(out["chi2_term"].sum()) == 20.0


def test_best_split_gini_perfect_split(ray_session):
    import pytest

    from text_to_rdf_ray.stages.analytics import best_split_gini

    # feature <= 1 is all class p, > 1 all q -> threshold 1 is perfect
    df = pd.DataFrame({
        "f": np.array([0, 1, 1, 2, 3, 3], np.int64),
        "c": ["p", "p", "p", "q", "q", "q"]})
    out = best_split_gini(rd.from_pandas(df), feature_col="f",
                          class_col="c")
    best = out[out["is_best"]].iloc[0]
    assert int(best["threshold"]) == 1
    assert float(best["gain"]) == 0.5  # parent gini 0.5 -> children 0
    assert (int(best["n_left"]), int(best["n_right"])) == (3, 3)
    with pytest.raises(ValueError):
        best_split_gini(rd.from_pandas(df.assign(f=1)),
                        feature_col="f", class_col="c")


def test_weighted_quantile_random_vs_bruteforce(ray_session):
    from text_to_rdf_ray.stages.analytics import weighted_quantile

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "k": rng.integers(0, 5, 300),
        "v": rng.integers(-50, 50, 300).astype(np.int64),
        "w": rng.integers(0, 7, 300).astype(np.int64)})
    qs = (0.25, 0.5, 0.9, 1.0)
    out = (weighted_quantile(rd.from_pandas(df), key_col="k",
                             value_col="v", weight_col="w", qs=qs,
                             num_partitions=8).to_pandas()
           .set_index(["k", "q"]).sort_index())

    g = (df.groupby(["k", "v"], as_index=False)["w"].sum()
         .sort_values(["k", "v"]))
    for key, sub in g.groupby("k"):
        tot = int(sub["w"].sum())
        if tot == 0:
            continue
        cum = sub["w"].cumsum().to_numpy()
        for q in qs:
            # brute force: smallest v with inclusive cum weight >= q*tot
            i = int(np.argmax(cum.astype(np.float64)
                              >= np.float64(q) * tot))
            want = int(sub["v"].iloc[i])
            assert int(out.loc[(key, q), "v"]) == want


def test_kmv_distinct_random_vs_exact_replay(ray_session):
    from text_to_rdf_ray.stages.analytics import kmv_distinct, splitmix64

    rng = np.random.default_rng(5)
    ids = rng.integers(0, 10_000, 2000).astype(np.int64)
    df = pd.DataFrame({"k": np.where(ids % 2 == 0, "even", "odd"),
                       "id": ids})
    out = (kmv_distinct(rd.from_pandas(df), key_col="k", id_col="id",
                        k=32, num_partitions=8).to_pandas()
           .set_index("k"))
    for key, mask in (("even", ids % 2 == 0), ("odd", ids % 2 != 0)):
        u = np.unique(ids[mask])
        h = np.sort(np.unique(splitmix64(u)))
        if len(h) >= 32:
            kth = h[31]
            want = 31 * 2.0 ** 64 / float(kth)
        else:
            kth = h[-1]
            want = float(len(h))
        assert out.loc[key, "kth_hash"] == str(int(kth))
        assert float(out.loc[key, "est_distinct"]) == want


def test_ohlc_bars_random_vs_pandas_reference(ray_session):
    from text_to_rdf_ray.stages.windows import ohlc_bars

    rng = np.random.default_rng(9)
    n = 500
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "event_type": rng.choice(["a", "b", "c"], n),
        "ts": (pd.Timestamp("2024-01-01")
               + pd.to_timedelta(rng.integers(0, 6 * 3600, n), unit="s")),
        "value": np.round(rng.random(n) * 100, 3)})
    out = (ohlc_bars(rd.from_pandas(df), num_partitions=8).to_pandas()
           .set_index(["event_type", "window_id"]).sort_index())
    ref = df.copy()
    ref["window_id"] = (ref["ts"].astype("datetime64[us]").astype("int64")
                        // 3_600_000_000)
    ref = ref.sort_values(["ts", "event_id"])
    gb = ref.groupby(["event_type", "window_id"])
    want = gb["value"].agg(open="first", high="max", low="min",
                           close="last", n="size")
    pd.testing.assert_frame_equal(
        out[["open", "high", "low", "close", "n"]].astype(
            {"n": "int64"}),
        want.sort_index().astype({"n": "int64"}))


def test_auc_by_group_matches_global_per_slice(ray_session):
    from text_to_rdf_ray.stages.analytics import auc_by_group, auc_score

    rng = np.random.default_rng(17)
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], 400),
        "s": np.round(rng.random(400) * 10, 2),
        "y": rng.integers(0, 2, 400).astype(np.int64)})
    # one slice with a single class -> auc defined as 0.0
    df.loc[df["g"] == "c", "y"] = 1
    out = auc_by_group(rd.from_pandas(df), group_col="g",
                       score_col="s", label_col="y").set_index("g")
    for g in ("a", "b"):
        sub = df[df["g"] == g]
        ref = auc_score(rd.from_pandas(sub), score_col="s",
                        label_col="y")
        assert int(out.loc[g, "u2"]) == int(ref["u2"].iloc[0])
        assert float(out.loc[g, "auc"]) == float(ref["auc"].iloc[0])
    assert float(out.loc["c", "auc"]) == 0.0
    assert int(out.loc["c", "n_neg"]) == 0


def test_seasonal_decompose_reference(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.windows import seasonal_decompose

    # 4 days of hourly events: count = 3 + phase%5, hour 30 missing
    rows = []
    eid = 0
    for h in range(96):
        if h == 30:
            continue
        for _ in range(3 + (h % 24) % 5):
            rows.append((eid, h * 3_600_000_000 + 7))
            eid += 1
    tbl = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows],
                       pa.timestamp("us")),
    })
    out = seasonal_decompose(rd.from_arrow(tbl).repartition(4),
                             period=24)
    assert list(out["window_id"]) == list(range(12, 84))
    # gap hour filled with zero count
    assert int(out[out["window_id"] == 30]["cnt"].iloc[0]) == 0

    # reference: dense numpy replay
    dense = np.zeros(96)
    for h in range(96):
        if h != 30:
            dense[h] = 3 + (h % 24) % 5
    t_idx = np.arange(12, 84)
    trend = np.round((0.5 * dense[t_idx - 12]
                      + np.array([dense[t - 11:t + 12].sum()
                                  for t in t_idx])
                      + 0.5 * dense[t_idx + 12]) / 24, 6)
    detr = dense[t_idx] - trend
    seas = np.zeros(24)
    for p in range(24):
        m = (t_idx % 24) == p
        seas[p] = round(detr[m].mean(), 6)
    assert np.allclose(out["trend"], trend)
    assert np.allclose(out["seasonal"], seas[t_idx % 24])
    assert np.allclose(out["remainder"],
                       np.round(detr - seas[t_idx % 24], 6))


def test_point_in_time_join_manual(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.joins import point_in_time_join

    dim = pa.table({
        "user_id": pa.array([1, 1, 2], pa.int64()),
        "state": pa.array(["a", "b", "z"], pa.string()),
        "valid_from_us": pa.array([100, 200, 100], pa.int64()),
        "valid_to_us": pa.array([200, -1, 150], pa.int64()),
    })
    facts = pa.table({
        "fact_id": pa.array([10, 11, 12, 13, 14], pa.int64()),
        "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "ts": pa.array([150, 200, 500, 120, 300], pa.int64()),
    })
    out = (point_in_time_join(
        rd.from_arrow(facts).repartition(2),
        rd.from_arrow(dim), key_col="user_id", ts_col="ts")
        .to_pandas().sort_values("fact_id").reset_index(drop=True))
    got = dict(zip(out["fact_id"], out["state"]))
    # fact 10 at 150 -> version a (100..200); fact 11 at exactly 200
    # -> version b starts (inclusive as-of); fact 12 -> open b;
    # fact 13 -> z; fact 14 at 300: z expired at 150 -> DROPPED
    assert got == {10: "a", 11: "b", 12: "b", 13: "z"}


def test_poisson_bootstrap_reference(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.analytics import (POISSON1_CUM,
                                                  poisson_bootstrap,
                                                  splitmix64)

    n, B = 400, 8
    ids = np.arange(n, dtype=np.int64)
    vals = (ids % 17).astype(np.float64) + 0.25
    tbl = pa.table({"event_id": pa.array(ids),
                    "value": pa.array(vals, pa.float64())})
    out = poisson_bootstrap(rd.from_arrow(tbl).repartition(4),
                            id_col="event_id", value_col="value",
                            replicates=B)
    # reference: identical weights computed directly
    cum = np.asarray(POISSON1_CUM)
    for b in range(B):
        u = splitmix64(ids * B + b).astype(np.float64) / 2.0 ** 64
        w = np.searchsorted(cum, u, side="right")
        row = out[out["replicate"] == b].iloc[0]
        assert int(row["w_sum"]) == int(w.sum())
        assert row["mean"] == round(float((w * vals).sum() / w.sum()), 6)
    # weights average ~1: total mass within 4 sigma of n
    assert abs(out["w_sum"].mean() - n) < 4 * np.sqrt(n)


def test_markov_stationary_two_state(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.windows import markov_stationary

    # empirical chain of this sequence: A->B 8/8; B->A 7/11,
    # B->B 4/11.  Stationary: pi(A) = pi(B)*7/11, sum 1
    # -> pi(A) = 7/18, pi(B) = 11/18
    seq = ["A", "B", "B", "A", "B", "A", "B", "B", "A", "B",
           "A", "B", "B", "A", "B", "A", "B", "B", "A", "B"]
    tbl = pa.table({
        "user_id": pa.array([1] * len(seq), pa.int64()),
        "event_id": pa.array(range(len(seq)), pa.int64()),
        "ts": pa.array(range(len(seq)), pa.timestamp("us")),
        "event_type": pa.array(seq, pa.string()),
    })
    out = markov_stationary(rd.from_arrow(tbl).repartition(2),
                            iterations=40).set_index("state")
    assert abs(out.loc["A", "pi"] - 7 / 18) < 1e-6
    assert abs(out.loc["B", "pi"] - 11 / 18) < 1e-6


def test_resample_fill_linear(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.windows import resample_fill

    # user 1: values at hours 0 (10), 3 (40) -> gaps 1,2 interpolate
    # 20, 30; user 2: value at 5 then silent trailing windows don't
    # exist (span ends at last present window)
    tbl = pa.table({
        "user_id": pa.array([1, 1, 2], pa.int64()),
        "ts": pa.array([0, 3 * 3_600_000_000, 5 * 3_600_000_000],
                       pa.timestamp("us")),
        "value": pa.array([10.0, 40.0, 7.0], pa.float64()),
    })
    out = (resample_fill(rd.from_arrow(tbl), fill="linear")
           .to_pandas().sort_values(["user_id", "window_id"])
           .reset_index(drop=True))
    u1 = out[out["user_id"] == 1]
    assert list(u1["window_id"]) == [0, 1, 2, 3]
    assert list(u1["sum_value"]) == [10.0, 20.0, 30.0, 40.0]
    assert list(u1["n"]) == [1, 0, 0, 1]
    assert len(out[out["user_id"] == 2]) == 1


def test_cohort_ltv_manual(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.windows import cohort_ltv

    D = 86_400_000_000
    # users 1,2 first seen day 0 (cohort 0, size 2); user 3 day 1
    # purchases: u1 day0 10, u1 day1 20, u2 day1 30, u3 day2 5
    rows = [
        (1, 0, "signup", 0.0), (2, 0, "view", 0.0),
        (3, 1 * D, "signup", 0.0),
        (1, 0, "purchase", 10.0), (1, 1 * D, "purchase", 20.0),
        (2, 1 * D + 7, "purchase", 30.0),
        (3, 2 * D, "purchase", 5.0),
    ]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
        "value": pa.array([r[3] for r in rows], pa.float64()),
    })
    out = (cohort_ltv(rd.from_arrow(tbl).repartition(3))
           .set_index(["cohort_day", "age"]))
    assert out.loc[(0, 0), "revenue"] == 10.0
    assert out.loc[(0, 1), "revenue"] == 50.0
    assert out.loc[(0, 1), "cum_revenue"] == 60.0
    assert out.loc[(0, 1), "cohort_users"] == 2
    assert out.loc[(0, 1), "ltv"] == 30.0
    assert out.loc[(1, 1), "revenue"] == 5.0
    assert out.loc[(1, 1), "ltv"] == 5.0


def test_assoc_rules_manual(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.analytics import assoc_rules

    # baskets: {1,2} x3, {1,3} x1, {2,3} x1, {1} x1  (N=6)
    baskets = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2),
               (4, 1), (4, 3), (5, 2), (5, 3), (6, 1)]
    tbl = pa.table({
        "o": pa.array([b for b, _ in baskets], pa.int64()),
        "p": pa.array([i for _, i in baskets], pa.int64()),
    })
    out = (assoc_rules(rd.from_arrow(tbl).repartition(3),
                       basket_col="o", item_col="p",
                       min_pair_count=2)
           .to_pandas().set_index(["antecedent", "consequent"]))
    # only pair (1,2) reaches count 2 (n_ab=3); n_1=5, n_2=4, N=6
    assert len(out) == 2
    r = out.loc[(1, 2)]
    assert r["n_ab"] == 3
    assert r["support"] == 0.5
    assert r["confidence"] == round(3 / 5, 6)
    assert r["lift"] == round((3 / 5) / (4 / 6), 6)
    r2 = out.loc[(2, 1)]
    assert r2["confidence"] == 0.75


def test_did_estimate_planted_effect(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.analytics import did_estimate

    rng = np.random.RandomState(11)
    n = 2000
    treat = np.arange(n) % 2 == 0
    post = np.arange(n) % 4 < 2
    base = rng.randn(n)
    # common trend +1 in post; treatment effect +5 only treated post
    x = base + np.where(post, 1.0, 0.0) + np.where(treat & post, 5.0,
                                                   0.0)
    tbl = pa.table({
        "treat": pa.array(treat), "post": pa.array(post),
        "value": pa.array(x, pa.float64())})
    out = did_estimate(rd.from_arrow(tbl).repartition(4),
                       treat_col="treat", post_col="post",
                       value_col="value").iloc[0]
    # the common trend cancels; the planted effect survives
    assert abs(out["did"] - 5.0) < 0.3
    assert out["t_stat"] > 10
    assert out["n_t_post"] + out["n_t_pre"] + out["n_c_post"] \
        + out["n_c_pre"] == n


def test_fsm_conformance_manual(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.windows import fsm_conformance

    tbl = pa.table({
        "user_id": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
        "event_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
        "ts": pa.array([0, 1, 2, 3, 4, 5], pa.timestamp("us")),
        "event_type": pa.array(
            ["signup", "view", "click", "view", "error", "view"],
            pa.string()),
    })
    out = (fsm_conformance(
        rd.from_arrow(tbl).repartition(2),
        [("signup", "view"), ("view", "click")])
        .to_pandas().set_index("user_id"))
    # user 1: signup->view ok, view->click ok
    assert out.loc[1, "n_violations"] == 0
    assert out.loc[1, "conformance"] == 1.0
    # user 2: view->error not allowed
    assert out.loc[2, "n_violations"] == 1
    assert out.loc[2, "conformance"] == 0.0
    # user 3: single event, zero steps
    assert out.loc[3, "n_steps"] == 0
    assert out.loc[3, "conformance"] == 1.0


def test_fsm_conformance_null_state_is_a_violation(ray_session):
    """A transition into a null state is never conformant, even when the
    packed codes of a whitelisted pair sit next to the null's code."""
    from text_to_rdf_ray.stages.windows import fsm_conformance

    tbl = pa.table({
        "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "event_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "ts": pa.array([0, 1, 2, 3, 4], pa.timestamp("us")),
        "event_type": pa.array(["a", "b", None, "a", "b"], pa.string()),
    })
    out = (fsm_conformance(rd.from_arrow(tbl), [("a", "b")])
           .to_pandas().set_index("user_id"))
    # user 1: a->b allowed, b->null a violation
    assert out.loc[1, "n_steps"] == 2
    assert out.loc[1, "n_violations"] == 1
    assert out.loc[1, "conformance"] == 0.5
    assert out.loc[2, "n_violations"] == 0


def test_ntile_matches_sql_distribution(ray_session):
    from text_to_rdf_ray.stages.analytics import _ntile

    # 7 rows, 3 tiles -> sizes 3,2,2 (first tiles get the remainder)
    key = np.asarray([10, 20, 30, 40, 50, 60, 70])
    tb = np.arange(7)
    t = _ntile(key, tb, 3)
    assert list(t) == [1, 1, 1, 2, 2, 3, 3]
    # ties order by tiebreak: equal keys split deterministically
    key2 = np.zeros(4, np.int64)
    t2 = _ntile(key2, np.asarray([3, 1, 2, 0]), 2)
    # sorted by tiebreak: rows 3,1,2,0 -> tiles 1,1,2,2
    assert list(t2) == [2, 1, 2, 1]


def test_abc_analysis_manual(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.analytics import abc_analysis

    tbl = pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "v": pa.array([70.0, 20.0, 6.0, 4.0], pa.float64()),
    })
    out = (abc_analysis(rd.from_arrow(tbl).repartition(2),
                        key_col="k", value_col="v")
           .set_index("key"))
    assert out.loc[1, "abc_class"] == "A"   # 0.70
    assert out.loc[2, "abc_class"] == "B"   # 0.90
    assert out.loc[3, "abc_class"] == "C"   # 0.96
    assert out.loc[4, "abc_class"] == "C"


def test_group_entropy_manual(ray_session):
    import math

    import pyarrow as pa

    from text_to_rdf_ray.stages.analytics import group_entropy

    tbl = pa.table({
        "u": pa.array([1, 1, 1, 1, 2, 2, 3], pa.int64()),
        "t": pa.array(["a", "a", "b", "b", "a", "a", "x"],
                      pa.string()),
    })
    out = (group_entropy(rd.from_arrow(tbl).repartition(3),
                         key_col="u", cat_col="t")
           .to_pandas().set_index("key"))
    # user 1: uniform over 2 cats -> ln 2; user 2: single cat -> 0
    assert abs(out.loc[1, "entropy"] - round(math.log(2), 6)) < 1e-9
    assert out.loc[2, "entropy"] == 0.0
    assert out.loc[3, "entropy"] == 0.0
    assert out.loc[1, "n_cats"] == 2


def test_gini_coefficient_extremes(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.analytics import gini_coefficient

    # perfect equality -> 0
    eq = pa.table({"k": pa.array(range(10), pa.int64()),
                   "v": pa.array([5.0] * 10, pa.float64())})
    g0 = gini_coefficient(rd.from_arrow(eq), key_col="k",
                          value_col="v").iloc[0]["gini"]
    assert abs(g0) < 1e-9
    # all mass on one key of n -> (n-1)/n
    one = pa.table({"k": pa.array(range(10), pa.int64()),
                    "v": pa.array([0.0] * 9 + [100.0], pa.float64())})
    g1 = gini_coefficient(rd.from_arrow(one), key_col="k",
                          value_col="v").iloc[0]["gini"]
    assert abs(g1 - 0.9) < 1e-9


def test_dau_wau_manual(ray_session):
    import pyarrow as pa

    from text_to_rdf_ray.stages.windows import dau_wau

    D = 86_400_000_000
    # user 1 active day 0 and 8; user 2 active day 0 only
    tbl = pa.table({
        "user_id": pa.array([1, 2, 1], pa.int64()),
        "ts": pa.array([5, 99, 8 * D + 3], pa.timestamp("us")),
    })
    out = (dau_wau(rd.from_arrow(tbl).repartition(2), window_days=7)
           .to_pandas().set_index("day"))
    assert out.loc[0, "dau"] == 2 and out.loc[0, "wau"] == 2
    # day 5: nobody active, but both users are within trailing 7d
    assert out.loc[5, "dau"] == 0 and out.loc[5, "wau"] == 2
    # day 7: day-0 activity aged out (supports days 0..6), day 8 not yet
    assert out.loc[7, "wau"] == 0 if 7 in out.index else True
    assert out.loc[8, "dau"] == 1 and out.loc[8, "wau"] == 1
    assert out.loc[0, "stickiness"] == 1.0


def test_group_broadcast_family_max_groups_guard(ray_session):
    """The O(groups)-broadcast transforms raise (never silently collect)
    past max_groups — the percentile_rank guard pattern applied to the
    whole family (VERDICT r4 #3)."""
    import pytest

    from text_to_rdf_ray.stages.analytics import (group_zscore,
                                                  minmax_scale,
                                                  quantile_bucket,
                                                  target_encode_loo)

    df = pd.DataFrame({"k": np.arange(10, dtype=np.int64),
                       "v": np.arange(10, dtype=np.float64)})
    ds = rd.from_pandas(df)
    with pytest.raises(ValueError, match="group_zscore.*max_groups"):
        group_zscore(ds, key_col="k", value_col="v", max_groups=5)
    with pytest.raises(ValueError, match="minmax_scale.*max_groups"):
        minmax_scale(ds, key_col="k", value_col="v", max_groups=5)
    with pytest.raises(ValueError, match="target_encode_loo.*max_groups"):
        target_encode_loo(ds, key_col="k", target_col="v", max_groups=5)
    # quantile_bucket needs >= 2 rows per group for sane quantiles;
    # 10 singleton groups still build the bound table, which trips first
    with pytest.raises(ValueError, match="quantile_bucket.*max_groups"):
        quantile_bucket(ds, key_col="k", value_col="v", max_groups=5)


def test_markov_stationary_substochastic_terminal_state(ray_session):
    """Pinned contract (ADVICE r4): terminal states absorb-and-evaporate
    — the iterate is the surviving-trajectory occupancy measure, so
    sum(pi) < 1 for chains with an absorbing end state, and the exact
    leaked mass matches the hand-computed killed-chain iterate."""
    from text_to_rdf_ray.stages.windows import markov_stationary

    # a -> b deterministic; b terminal (no outgoing row): after k
    # steps only mass that started in a and is now in b survives once
    df = pd.DataFrame({
        "user_id": [1, 1],
        "ts": pd.to_datetime([1, 2], unit="s"),
        "event_type": ["a", "b"],
        "event_id": [1, 2]})
    out = (markov_stationary(rd.from_pandas(df), iterations=3)
           .set_index("state"))
    # P = [[0,1],[0,0]]; pi0 = [.5,.5] -> [0,.5] -> [0,0] -> [0,0]
    assert out.loc["a", "pi"] == 0.0
    assert out.loc["b", "pi"] == 0.0
    one = (markov_stationary(rd.from_pandas(df), iterations=1)
           .set_index("state"))
    assert one.loc["b", "pi"] == 0.5  # mass in flight, not yet killed
    assert one["pi"].sum() == 0.5  # < 1: the documented evaporation


def test_exchange_key_hash_null_and_prefix_invariants(ray_session):
    import pyarrow as pa

    """Review r5 exchange fixes: (a) a null in an int64 key batch must
    not perturb sibling big-id hashes (no float64 round-trip); (b)
    string keys hash their FULL bytes — long-IRI keys with a shared
    40-byte prefix must spread across partitions, not collapse into
    one; (c) a string's hash is independent of the batch max width."""
    from text_to_rdf_ray.stages.exchange import _key_hash

    big = 9007199254740993  # 2^53 + 1: rounds under float64
    with_null = pa.table({"k": pa.array([big, None], pa.int64())})
    alone = pa.table({"k": pa.array([big], pa.int64())})
    assert _key_hash(with_null, ["k"])[0] == _key_hash(alone, ["k"])[0]

    pre = "http://example.org/very/long/namespace/prefix/entity/"
    iris = pa.table({"k": [pre + f"{i:06d}" for i in range(256)]})
    parts = set(_key_hash(iris, ["k"]) % np.uint64(32))
    assert len(parts) > 16  # spreads, not one hot partition

    s1 = pa.table({"k": ["ab"]})
    s2 = pa.table({"k": ["ab", "x" * 300]})
    assert _key_hash(s1, ["k"])[0] == _key_hash(s2, ["k"])[0]

    # (d) the string and binary hash reads the Arrow buffers: a sliced
    # table (offset into the offsets and validity buffers) hashes its
    # rows as the unsliced one does, nulls included
    t = pa.table({"s": pa.array(["q", None, "东京", "", "x" * 70, None, "z"]),
                  "b": pa.array([b"\x00", b"ab", None, b"", b"cd", b"e", None]),
                  "i": pa.array([1, 2, None, 4, 5, 6, 7], pa.int64())})
    for keys in (["s"], ["b"], ["s", "b", "i"]):
        full = _key_hash(t, keys)
        for lo, n in ((1, 5), (2, 4), (5, 2)):
            assert (_key_hash(t.slice(lo, n), keys) == full[lo:lo + n]).all()


def test_exchange_join_guards_and_nullable_bigint_keys(ray_session):
    import pyarrow as pa

    """Cross-family key types raise (they hash on different code paths
    — a silent empty join otherwise); reserved internal names raise;
    nullable int64 keys preserve all 64 bits through the merge."""
    import pytest

    from text_to_rdf_ray.stages.exchange import exchange_agg, exchange_join

    big = 9007199254740993
    l = rd.from_arrow(pa.table({
        "k": pa.array([big, big - 1, None], pa.int64()),
        "lv": pa.array([1, 2, 3], pa.int64())}))
    r = rd.from_arrow(pa.table({
        "k": pa.array([big, big - 1], pa.int64()),
        "rv": pa.array([10, 20], pa.int64())}))
    out = (exchange_join(l, r, on="k", num_partitions=4)
           .to_pandas().sort_values("lv").reset_index(drop=True))
    # 2^53+1 and 2^53 must NOT spuriously merge (float64 would conflate)
    assert list(out["lv"]) == [1, 2] and list(out["rv"]) == [10, 20]
    assert set(out["k"].astype("int64")) == {big, big - 1}

    rf = rd.from_arrow(pa.table({
        "k": pa.array([1.0], pa.float64()),
        "rv": pa.array([1], pa.int64())}))
    with pytest.raises(ValueError, match="family mismatch"):
        exchange_join(l, rf, on="k")

    bad = rd.from_arrow(pa.table({
        "k": pa.array([1], pa.int64()),
        "_xj_part": pa.array([1], pa.int64())}))
    with pytest.raises(ValueError, match="reserved"):
        exchange_join(bad, r, on="k")

    ds = rd.from_arrow(pa.table({"k": pa.array([1, 1], pa.int64()),
                                 "x": pa.array([3, 5], pa.int64())}))
    with pytest.raises(ValueError, match="duplicate output"):
        exchange_agg(ds, "k", [("x", "min"), ("x", "max")])
    ok = exchange_agg(ds, "k", [("x", "min", "lo"),
                                ("x", "max", "hi")]).to_pandas()
    assert (int(ok["lo"].iloc[0]), int(ok["hi"].iloc[0])) == (3, 5)


def test_joins_review_r5_regressions(ray_session):
    """Review r5 joins.py fixes, pinned: ns-unit interval windows,
    null-value range sums, empty-batch bloom, bigint payloads through
    the broadcast as-of, null-key MERGE refusal."""
    import pyarrow as pa
    import pytest

    from text_to_rdf_ray.stages.joins import (asof_join_broadcast,
                                              interval_self_join,
                                              range_join_agg,
                                              semi_join_bloom,
                                              upsert_merge)

    # interval_self_join with datetime64[ns] input: a 30s gap must be
    # inside a 60s window (ns cast made the window 1000x too small)
    df = pd.DataFrame({
        "user_id": [1, 1],
        "ts": pd.to_datetime([0, 30], unit="s"),
        "event_id": [1, 2]})
    out = (interval_self_join(rd.from_pandas(df), key_col="user_id",
                              ts_col="ts", id_col="event_id",
                              window_us=60_000_000).to_pandas())
    assert len(out) == 1 and int(out["dt_us"].iloc[0]) == 30_000_000

    # range_join_agg: a null value contributes 0 to sum_value, and must
    # not zero the running sum for later matches
    left = rd.from_arrow(pa.table({
        "k": pa.array([1], pa.int64()),
        "lts": pa.array([100], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([1, 1], pa.int64()),
        "rts": pa.array([50, 60], pa.int64()),
        "v": pa.array([5.0, None], pa.float64()),
    }))
    ra = range_join_agg(left, right, key_col="k", left_ts="lts",
                        right_ts="rts", lower_us=-100, upper_us=0,
                        value_col="v").to_pandas()
    assert int(ra["n_matched"].iloc[0]) == 2  # COUNT(*) contract
    assert float(ra["sum_value"].iloc[0]) == 5.0  # null contributes 0

    # semi_join_bloom survives zero-row key batches
    ks = rd.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    ds = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
    assert semi_join_bloom(ds, ks, key_col="k").count() == 0

    # asof_join_broadcast: nullable int64 right payload keeps 64 bits
    big = 9007199254740993
    l = rd.from_arrow(pa.table({
        "k": pa.array([1], pa.int64()), "lts": pa.array([10], pa.int64())}))
    r = rd.from_arrow(pa.table({
        "k": pa.array([1, 1], pa.int64()),
        "rts": pa.array([5, 20], pa.int64()),
        "rid": pa.array([big, None], pa.int64())}))
    ab = asof_join_broadcast(l, r, key_col="k", left_ts="lts",
                             right_ts="rts", tiebreak_col="rts").to_pandas()
    assert int(ab["rid"].iloc[0]) == big  # float64 would round to 2^53

    # upsert_merge refuses null keys instead of dropping the row
    b = rd.from_arrow(pa.table({
        "k": pa.array([1, None], pa.int64()),
        "o": pa.array([1, 2], pa.int64()),
        "t": pa.array([1, 2], pa.int64())}))
    with pytest.raises(Exception, match="null values in key"):
        upsert_merge(b, b, key_col="k", order_col="o",
                     tiebreak_col="t").to_pandas()


def test_analytics_review_r5_regressions(ray_session):
    """Review r5 analytics.py fixes, pinned: all-null quantile groups,
    float order-column prefix offsets, null-excluding winsorized mean,
    degenerate-arm welch refusal."""
    import pyarrow as pa
    import pytest

    from text_to_rdf_ray.stages.analytics import (group_quantiles_exact,
                                                  prefix_max,
                                                  welch_ttest,
                                                  winsorized_mean)

    # all-null group dropped, not KeyError
    t = pa.table({"k": pa.array(["a", "a", "b"], pa.string()),
                  "v": pa.array([1.0, 3.0, None], pa.float64())})
    q = group_quantiles_exact(rd.from_arrow(t), key_col="k",
                              value_col="v", qs=[0.5])
    assert list(q["k"]) == ["a"] and float(q["q_0.5"].iloc[0]) == 2.0

    # float order column: offsets keyed on the raw value (int() collided
    # 5.2 and 5.7); running max must thread through block boundaries
    df = pd.DataFrame({"o": [5.2, 5.7, 6.1, 6.9],
                       "v": [4.0, 1.0, 9.0, 2.0]})
    pm = (prefix_max(rd.from_pandas(df).repartition(4), order_col="o",
                     value_col="v").to_pandas().sort_values("o"))
    got = pm["running_max"].tolist()
    assert got[1:] == [4.0, 4.0, 9.0]  # exclusive prefix maxima

    # winsorized mean excludes nulls (clip(NaN) poisoned the group)
    t2 = pa.table({"k": pa.array(["a"] * 5 + ["a"], pa.string()),
                   "v": pa.array([1.0, 2.0, 3.0, 4.0, 100.0, None],
                                 pa.float64())})
    w = winsorized_mean(rd.from_arrow(t2), key_col="k", value_col="v",
                        q_lo=0.1, q_hi=0.9).to_pandas()
    assert int(w["n"].iloc[0]) == 5  # null not counted
    assert np.isfinite(w["w_mean"].iloc[0])

    # degenerate arm raises, never NaN/inf output
    t3 = pa.table({"g": pa.array(["a", "b", "b"], pa.string()),
                   "v": pa.array([1.0, 2.0, 3.0], pa.float64())})
    with pytest.raises(Exception, match="n=1 < 2"):
        welch_ttest(rd.from_arrow(t3), group_col="g", value_col="v",
                    group_a="a", group_b="b")


def test_exchange_join_mixed_block_union_bigint_payloads(ray_session):
    """Review r5 (root-caused from scc): when ANY block in a unioned
    lineage is a pandas block (Ray 2.49 emits empty zero-column pandas
    blocks that map_batches skips), Ray's sort exchange normalizes all
    blocks to pandas — a NULL-padded int64 payload then rode through
    float64 and ids above 2^53 rounded.  The pad's non-null zero filler
    (never read by merge_part) keeps payloads exact."""
    import pyarrow as pa

    from text_to_rdf_ray.stages.exchange import exchange_agg, exchange_join

    big = 2**62 + 12345
    arrow_part = rd.from_arrow(pa.table({
        "node": pa.array([big, big + 1], pa.int64()),
        "comp": pa.array([big + 1, big + 1], pa.int64())}))
    empty_pd = rd.from_pandas(pd.DataFrame({
        "node": pd.Series(dtype="int64"),
        "comp": pd.Series(dtype="int64")}))
    out = arrow_part.union(empty_pd)
    mins = exchange_agg(out, "comp", [("node", "min", "mn")],
                        num_partitions=4)
    final = (exchange_join(
        out, mins, on="comp", num_partitions=4,
        left_schema=pa.schema([("node", pa.int64()),
                               ("comp", pa.int64())]),
        right_schema=pa.schema([("comp", pa.int64()),
                                ("mn", pa.int64())]))
        .to_pandas().sort_values("node").reset_index(drop=True))
    assert final["node"].tolist() == [big, big + 1]  # exact, no rounding
    assert final["mn"].tolist() == [big, big]


def test_windows_review_r5_regressions(ray_session):
    """Review r5 windows.py fixes, pinned: ns-unit decayed_sum, empty
    inputs, the reserved _part guard."""
    import pytest

    from text_to_rdf_ray.stages.windows import (dau_wau, decayed_sum,
                                                sessionize,
                                                survival_table)

    # decayed_sum with datetime64[ns] input: a 1-hour age at half-life
    # 1h decays to exactly value/2 (the raw ns cast made age 1000x off)
    as_of = 3_600_000_000  # us
    df = pd.DataFrame({"user_id": [1],
                       "ts": pd.to_datetime([0], unit="s"),
                       "value": [8.0]})
    out = decayed_sum(rd.from_pandas(df), key_col="user_id",
                      ts_col="ts", value_col="value",
                      as_of_us=as_of, half_life_s=3600.0).to_pandas()
    assert abs(float(out["decayed_sum"].iloc[0]) - 8.0 * np.exp(-1)) < 1e-9

    # empty inputs: typed empties, not int(NaN) crashes
    empty = rd.from_pandas(pd.DataFrame({
        "user_id": pd.Series(dtype="int64"),
        "ts": pd.Series(dtype="datetime64[us]")}))
    assert len(survival_table(empty, key_col="user_id", ts_col="ts")) == 0
    assert dau_wau(empty, key_col="user_id", ts_col="ts").count() == 0

    # reserved _part column refuses loudly instead of silent clobber
    bad = rd.from_pandas(pd.DataFrame({
        "user_id": [1], "ts": pd.to_datetime([1], unit="s"),
        "event_id": [1], "_part": [9]}))
    with pytest.raises(Exception, match="_part.*reserved"):
        sessionize(bad).to_pandas()
