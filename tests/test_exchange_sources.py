"""The exchange's sources: block functions run in the split tasks, each
source is materialized on its own, and an already materialized source
costs no Ray Data execution."""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sides():
    rng = np.random.default_rng(7)
    left = pd.DataFrame({"k": rng.integers(0, 60, 500).astype("int64"),
                         "a": rng.random(500)})
    right = pd.DataFrame({"k": rng.integers(30, 90, 300).astype("int64"),
                          "b": [f"b{i}" for i in range(300)]})
    return left, right


def _arrow(df: pd.DataFrame) -> rd.Dataset:
    return rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))


def test_materialized_exchange_inputs_start_no_execution(ray_session,
                                                         executions):
    """exchange_join, exchange_agg and keyed_exchange over materialized
    inputs start no executor run, also over two sources; a lazy source
    starts exactly one."""
    from text_to_rdf_ray.stages.exchange import (exchange_agg,
                                                 exchange_join,
                                                 keyed_exchange)

    left, right = _sides()
    lds = _arrow(left).repartition(3).materialize()
    rds = _arrow(right).materialize()
    executions[0] = 0
    joined = exchange_join(lds, rds, on="k", how="full_outer")
    summed = exchange_agg(joined, "k", [("a", "sum", "s")])
    keyed = keyed_exchange(summed, "k", lambda t: t)
    projected = exchange_join(
        (lds, lambda t: t.select(["k"])), rds, on="k",
        left_schema=pa.schema([("k", pa.int64())]))
    assert executions[0] == 0
    assert keyed.count() == left["k"].nunique() + len(
        set(right["k"]) - set(left["k"]))
    assert projected.count() == len(left.merge(right, on="k"))

    # two materialized sources meet in one exchange with no union run
    def keys_only(t: pa.Table) -> pa.Table:
        return t.select(["k"])

    executions[0] = 0
    both = [(lds, keys_only), (rds, keys_only)]
    distinct = exchange_agg(both, "k")
    keyed_two = keyed_exchange(both, "k", lambda t: t)
    assert executions[0] == 0
    assert sorted(distinct.to_pandas()["k"]) == sorted(
        set(left["k"]) | set(right["k"]))
    assert sorted(keyed_two.to_pandas()["k"]) == sorted(
        list(left["k"]) + list(right["k"]))

    executions[0] = 0
    exchange_join(lds.map_batches(lambda t: t, batch_format="pyarrow"),
                  rds.map_batches(lambda t: t, batch_format="pyarrow"),
                  on="k", left_schema=lds.schema(), right_schema=rds.schema())
    assert executions[0] == 2


def test_link_entities_join_executions(ray_session, executions):
    """One shuffle-join link over materialized triples and a list KB
    starts no executor run: the KB label table is built on the driver,
    every projection feeding an exchange runs in its split tasks, and
    each exchange hands its blocks to the next."""
    from text_to_rdf_ray.stages.kg_stages import link_entities_join

    kb = [{"uri": f"https://kb.test/resource/e{i}", "label": nm,
           "aliases": [], "types": ["Person"]}
          for i, nm in enumerate(["Ada Lovelace", "Alan Turing",
                                  "Grace Hopper"])]
    n = 4
    triples = rd.from_arrow(pa.table({
        "url": [f"u{i}" for i in range(n)],
        "subj": ["Ada Lovelace", "Alan Turnig", "Nobody Known", "Ada"],
        "subj_slug": [""] * n, "subj_lower": [""] * n,
        "pred": ["knows"] * n, "pred_key": ["knows"] * n,
        "obj": ["Grace Hopper", "Ada Lovelace", "Alan Turing", "x"],
        "subj_type": ["Person"] * n,
        "obj_type": ["Person", "Person", "Person", ""],
        "nested_in": [""] * n,
        "chunk_id": pa.array([0] * n, pa.int32()),
        "span_start": pa.array([0] * n, pa.int64()),
        "span_end": pa.array([1] * n, pa.int64()),
        "confidence": [1.0] * n, "method": ["t"] * n,
    })).materialize()
    executions[0] = 0
    out = link_entities_join(triples, kb)
    assert executions[0] == 0
    got = out.to_pandas().set_index("url")
    assert got.loc["u0", "subj_uri"] == "https://kb.test/resource/e0"
    assert got.loc["u1", "subj_uri"] == "https://kb.test/resource/e1"
    # a fuzzy link: Jaro-Winkler score, not the exact-hit confidence
    assert 0.8 <= got.loc["u1", "subj_link_conf"] != 0.95
    assert pd.isna(got.loc["u2", "subj_uri"])
    assert got.loc["u0", "obj_uri"] == "https://kb.test/resource/e2"
    assert pd.isna(got.loc["u3", "obj_uri"])


def test_list_kb_label_table_blocks(ray_session, executions):
    """A list KB's label table is cut into ceil(rows / 2048) blocks on the
    driver (no executor run, no task: ``bsp.Blocks`` put in the object
    store), in KB order with each label before its aliases; a Dataset KB
    gives the same rows (a Ray Data map, whose output block order is not
    fixed)."""
    import hashlib
    import math

    import ray

    from text_to_rdf_ray.stages.kg_stages import (KB_LABEL_BLOCK_ROWS,
                                                  KBLabelTable)

    kb = [{"uri": f"https://kb.test/resource/e{i}", "label": f"Name {i}",
           "aliases": [f"Alias {i}"] if i % 3 else []}
          for i in range(3100)]
    n = sum(1 + len(r["aliases"]) for r in kb)
    assert n > 2 * KB_LABEL_BLOCK_ROWS
    executions[0] = 0
    labels = KBLabelTable(kb).labels()
    assert executions[0] == 0
    assert len(labels.refs) == math.ceil(n / KB_LABEL_BLOCK_ROWS)
    got = pa.concat_tables(ray.get(labels.refs)).to_pandas()
    want = [(r["uri"], lab) for r in kb for lab in [r["label"], *r["aliases"]]]
    assert list(zip(got["kb_uri"], got["kb_label"])) == want
    assert list(got["kb_low"]) == [lab.lower() for _, lab in want]
    assert list(got["lid"]) == [
        int.from_bytes(hashlib.blake2b(f"{lab.lower()}\x00{uri}".encode(),
                                       digest_size=8).digest(), "little") >> 1
        for uri, lab in want]
    def rows(df):
        return sorted(map(tuple, df.values.tolist()))

    assert rows(KBLabelTable(rd.from_items(kb)).labels().to_pandas()) == rows(got)


def test_block_functions_same_rows_at_every_partition_count(
        ray_session, sized_and_capped):
    """exchange_blocks over two sources with block functions gives the
    rows of mapping each source first, at the sized P=1 and at the cap;
    a pandas-block source is typed from its first block, so an object
    column holding lists stays a list column."""
    from text_to_rdf_ray.stages.bsp import exchange_blocks
    from text_to_rdf_ray.stages.exchange import _hash_col, keyed_exchange

    left, right = _sides()
    lds = _arrow(left).repartition(4).materialize()
    # object column: the pandas block schema carries no Arrow type for it
    rds = rd.from_pandas([right.iloc[:100], right.iloc[100:]]).materialize()

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            out = pa.table({"k": t.column("k"),
                            "side": pa.array(np.full(len(t), side, np.int8))})
            return out.append_column("p", _hash_col(out, ["k"]))
        return fn

    def count_sides(t: pa.Table) -> pa.Table:
        return t.group_by(["k", "side"]).aggregate([("p", "count")])

    def run():
        out = exchange_blocks([(lds, tag(0)), (rds, tag(1))], "p",
                              count_sides, max_parts=8).dataset()
        return (out.to_pandas().sort_values(["k", "side"])
                .reset_index(drop=True))

    (sized, p_sized), (capped, p_capped) = sized_and_capped(run)
    assert p_sized == [1] and p_capped == [8], (p_sized, p_capped)
    pd.testing.assert_frame_equal(sized, capped)
    want = (pd.concat([left.assign(side=0), right.assign(side=1)])
            .groupby(["k", "side"]).size().rename("p_count").reset_index()
            .astype({"side": "int8"}))
    pd.testing.assert_frame_equal(sized, want)

    # an object column holding lists keeps its type through the tagger
    lists = rd.from_pandas(pd.DataFrame({"k": [1, 2, 1],
                                         "l": [[1, 2], [3], []]}))
    got = keyed_exchange(lists, "k", lambda t: t).to_pandas()
    assert sorted(map(list, got["l"])) == [[], [1, 2], [3]]


def test_reserved_names_raise_plain_value_errors(ray_session):
    """A reserved column name raises a plain ValueError on the driver,
    before any task runs, for Arrow and pandas-block inputs alike."""
    from text_to_rdf_ray.stages.exchange import (exchange_join,
                                                 keyed_exchange)

    for bad in (rd.from_arrow(pa.table({"k": [1], "_part": [2]})),
                rd.from_pandas(pd.DataFrame({"k": [1], "_part": ["x"]}))):
        with pytest.raises(ValueError, match="_part.*reserved") as err:
            keyed_exchange(bad, "k", lambda t: t)
        assert type(err.value) is ValueError
    side = rd.from_arrow(pa.table({"k": [1], "_xj_side": [0]}))
    with pytest.raises(ValueError, match="reserved") as err:
        exchange_join(side, rd.from_arrow(pa.table({"k": [1]})), on="k")
    assert type(err.value) is ValueError


_ONE_CPU = textwrap.dedent("""
    import os
    import tempfile

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from text_to_rdf_ray.stages.exchange import (exchange_agg,
                                                 exchange_join,
                                                 keyed_exchange)

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    rd.DataContext.get_current().enable_progress_bars = False
    eid = np.arange(10_000, dtype=np.int64)
    events = pd.DataFrame({"eid": eid,
                           "k": np.where(eid % 10 < 7, 0, eid % 1000)})
    dim = pd.DataFrame({"k": np.arange(0, 1000, 2, dtype=np.int64)})
    dim["v"] = dim["k"] * 3 + 1
    path = os.path.join(tempfile.mkdtemp(), "events.parquet")
    pq.write_table(pa.Table.from_pandas(events, preserve_index=False), path)

    def read():
        # a read-backed lineage: unioned with an all-to-all one into a
        # single execution, it deadlocks a one-CPU cluster
        return rd.read_parquet(path).map_batches(
            lambda t: t, batch_format="pyarrow")

    ALL_TO_ALL = {"repartition": lambda d: d.repartition(2),
                  "sort": lambda d: d.sort("k"),
                  "random_shuffle": lambda d: d.random_shuffle(seed=1)}

    def rows(ds, cols):
        df = ds if isinstance(ds, pd.DataFrame) else ds.to_pandas()
        return df[cols].sort_values(cols).reset_index(drop=True)

    for name, op in ALL_TO_ALL.items():
        for how, ref in (("inner", "inner"), ("left_outer", "left"),
                         ("full_outer", "outer")):
            got = rows(exchange_join(read(), op(rd.from_pandas(dim)),
                                     on="k", how=how), ["k", "eid", "v"])
            want = rows(events.merge(dim, on="k", how=ref),
                        ["k", "eid", "v"])
            pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                          obj=f"{name} {how}")
        got = rows(exchange_agg(op(read()), "k", [("eid", "sum", "s")]),
                   ["k", "s"])
        want = events.groupby("k")["eid"].sum().rename("s").reset_index()
        pd.testing.assert_frame_equal(got, want, obj=f"{name} agg")
        got = rows(keyed_exchange(op(read()), "k", lambda t: t),
                   ["k", "eid"])
        pd.testing.assert_frame_equal(got, rows(events, ["k", "eid"]),
                                      obj=f"{name} keyed")
    ray.shutdown()
    print("OK")
""")


def test_exchanges_finish_at_one_cpu():
    """At one logical CPU, every exchange kind finishes and gives the
    rows of a pandas reference, with one source holding an all-to-all op
    (repartition, sort or random_shuffle) and a join's other side
    read-backed.  Runs in its own process and Ray session, killed with
    its Ray processes if it has not finished."""
    env = dict(os.environ, PYTHONPATH=ROOT)
    proc = subprocess.Popen([sys.executable, "-c", _ONE_CPU], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the one-CPU exchanges did not finish in 300 s")
    assert proc.returncode == 0, err[-3000:]
    assert out.strip().splitlines()[-1] == "OK"


_ONE_CPU_SOURCES = textwrap.dedent("""
    import os
    import tempfile

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import set_op_rows
    from text_to_rdf_ray.stages.bsp import connected_components_bsp
    from text_to_rdf_ray.stages.canonicalize import connected_components
    from text_to_rdf_ray.stages.exchange import exchange_agg
    from text_to_rdf_ray.stages.graph import pagerank
    from text_to_rdf_ray.stages.joins import upsert_merge

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    rd.DataContext.get_current().enable_progress_bars = False
    tmp = tempfile.mkdtemp()

    def read(df, name):
        # a read-backed lineage
        path = os.path.join(tmp, name + ".parquet")
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path)
        return rd.read_parquet(path).map_batches(
            lambda t: t, batch_format="pyarrow")

    def shuffled(df):
        # a lineage holding an all-to-all op
        return rd.from_pandas(df).repartition(2)

    def rows(ds, cols):
        df = ds if isinstance(ds, pd.DataFrame) else ds.to_pandas()
        return df[cols].sort_values(cols).reset_index(drop=True)

    rng = np.random.default_rng(3)
    a = pd.DataFrame({"k": rng.integers(0, 300, 2000).astype("int64")})
    b = pd.DataFrame({"k": rng.integers(150, 450, 1000).astype("int64")})
    for op, want in (("except", set(a.k) - set(b.k)),
                     ("intersect", set(a.k) & set(b.k))):
        got = set_op_rows(read(a, "a"), shuffled(b), cols=["k"], op=op)
        assert sorted(got.to_pandas()["k"]) == sorted(want), op

    base = pd.DataFrame({"key": np.arange(400, dtype="int64"),
                         "ts": np.zeros(400, "int64"),
                         "tb": np.zeros(400, "int64"),
                         "val": np.arange(400, dtype="int64")})
    upd = pd.DataFrame({"key": rng.integers(0, 600, 500).astype("int64"),
                        "ts": rng.integers(0, 3, 500).astype("int64"),
                        "tb": np.arange(500, dtype="int64"),
                        "val": np.arange(1000, 1500, dtype="int64")})
    got = rows(upsert_merge(read(base, "base"), shuffled(upd), key_col="key",
                            order_col="ts", tiebreak_col="tb"),
               ["key", "ts", "tb", "val"])
    both = pd.concat([base.assign(_src=0), upd.assign(_src=1)])
    want = (both.sort_values(["ts", "_src", "tb"], ascending=False)
            .groupby("key").head(1).drop(columns=["_src"]))
    pd.testing.assert_frame_equal(got, rows(want, ["key", "ts", "tb", "val"]),
                                  check_dtype=False)

    # chains of 5 nodes: components are the chain minima
    src = np.arange(500, dtype="int64")
    src = src[src % 5 != 4]
    fwd = pd.DataFrame({"src": src, "dst": src + 1})
    rev = pd.DataFrame({"src": src + 1, "dst": src})
    want = {int(n): int(n) // 5 * 5 for n in range(500)}
    for labels in (
            connected_components(
                shuffled(pd.concat([fwd, rev], ignore_index=True)),
                driver_threshold=0),
            connected_components_bsp([read(fwd, "fwd"), shuffled(rev)],
                                     num_parts=4)[0]):
        df = labels.to_pandas()
        assert dict(zip(df.name_id, df.component)) == want

    e = pd.DataFrame({"src": [f"n{i}" for i in rng.integers(0, 80, 400)],
                      "dst": [f"n{i}" for i in rng.integers(40, 120, 400)]})
    got = exchange_agg([read(e[["src"]].rename(columns={"src": "node"}),
                             "src"),
                        shuffled(e[["dst"]].rename(columns={"dst": "node"}))],
                       ["node"])
    assert sorted(got.to_pandas()["node"]) == sorted(set(e.src) | set(e.dst))
    ranks = pagerank(read(e, "edges").sort("src"), num_partitions=4,
                     driver_threshold=0).to_pandas()
    ref = pagerank(rd.from_pandas(e), driver_threshold=10**6).to_pandas()
    assert set(ranks.node) == set(e.src) | set(e.dst)
    got = dict(zip(ranks.node, ranks["rank"]))
    assert all(abs(got[n] - r) < 1e-12 for n, r in zip(ref.node, ref["rank"]))

    # the range-exchange operators, several ranges each, over a
    # read-backed input and one holding an all-to-all op
    from text_to_rdf_ray.stages import analytics, curation, dedup, lakehouse

    rd.DataContext.get_current().target_min_block_size = 1024
    d = pd.DataFrame({"id": np.arange(900, dtype="int64"),
                      "k": rng.integers(0, 4, 900).astype("int64"),
                      "v": rng.integers(0, 50, 900).astype("float64"),
                      "name": [f"w{i:03d}" for i in rng.integers(0, 99, 900)]})
    for src in (read(d, "d"), shuffled(d)):
        got = analytics.range_sort(src, key_col="v", tiebreak_col="id",
                                   num_partitions=4).to_pandas()
        assert (got.sort_values("global_pos")["id"].tolist()
                == d.sort_values(["v", "id"])["id"].tolist())
        got = analytics.grouped_prefix_sum(src, key_col="k", order_col="id",
                                           value_col="v").to_pandas()
        assert (got.set_index("id")["before"].sort_index().tolist()
                == (d.groupby("k")["v"].cumsum() - d["v"]).tolist())
        got = analytics.prefix_max(src, order_col="id",
                                   value_col="v").to_pandas()
        assert (got.set_index("id")["running_max"].sort_index()[1:].tolist()
                == d["v"].cummax()[:-1].tolist())
        got = curation.pack_sequences(src, id_col="id", token_col="k",
                                      budget=5).to_pandas().sort_values("id")
        assert (got["seq_id"].tolist()
                == ((d["k"].cumsum() - d["k"]) // 5).tolist())
        got = curation.shuffle_rows(src, id_col="id").to_pandas()
        assert sorted(got["shuffle_pos"]) == list(range(900))
        got = dedup.sorted_neighborhood_pairs(src, key_col="name",
                                              id_col="id",
                                              window=2).to_pandas()
        order = d.sort_values(["name", "id"])["id"].tolist()
        assert (sorted(zip(got.id_a, got.id_b))
                == sorted(zip(order[:-1], order[1:])))
        man = lakehouse.clustered_write(src, tempfile.mkdtemp(),
                                        key_col="v", num_files=3)
        assert man["rows"].sum() == 900
        man = lakehouse.zorder_write(src, tempfile.mkdtemp(),
                                     cols=["v", "k"], num_files=3)
        assert man["rows"].sum() == 900
    ray.shutdown()
    print("OK")
""")


def test_source_operators_finish_at_one_cpu():
    """At one logical CPU, the operators whose exchange takes two
    sources instead of a union — set_op_rows, upsert_merge, connected
    components (distributed path, and the BSP edge exchange over two
    sources) and the PageRank node distinct — finish and match a pandas
    reference, with one source read-backed and the other holding an
    all-to-all op; so do the range-exchange operators (the sorts, prefix
    scans and range-cut writes) over either kind of input.  Runs in its
    own process, killed with its Ray processes if it has not finished."""
    env = dict(os.environ, PYTHONPATH=ROOT)
    proc = subprocess.Popen([sys.executable, "-c", _ONE_CPU_SOURCES],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the one-CPU source operators did not finish in 300 s")
    assert proc.returncode == 0, err[-3000:]
    assert out.strip().splitlines()[-1] == "OK"


def test_canonicalize_surfaces_starts_no_execution(ray_session, executions):
    """canonicalize_surfaces over a materialized input starts no executor
    run: the LSH feature pass and the pair verify run as raw tasks, and
    the final projection runs in the last join's reduce tasks."""
    from text_to_rdf_ray.stages.canonicalize import (canonicalize_local,
                                                     canonicalize_surfaces)

    names = (["Alan Turing", "Alan Turnig", "alan turing", "Grace Hopper",
              "Grace Hoper", "Ada Lovelace", "Ada Lovelace.", "Bob"]
             + [f"Person {i} Example" for i in range(60)])
    surfaces = rd.from_arrow(pa.table({"surface": names})).repartition(
        3).materialize()
    executions[0] = 0
    out = canonicalize_surfaces(surfaces)
    rows = out.take_all()
    assert executions[0] == 0
    assert out.schema().names == ["surface", "canonical"]
    got = {r["surface"]: r["canonical"] for r in rows}
    assert sorted(got) == sorted(names)
    assert {s: c for s, c in got.items() if s != c} == canonicalize_local(
        names)


def test_lsh_pairs_execute_a_lazy_input_once(ray_session, executions):
    """minhash_lsh_pairs reads its corpus for the band exchange and for
    the verify pass; a lazy input executes once, not once per read."""
    from text_to_rdf_ray.stages.dedup import minhash_lsh_pairs

    text = "the quick brown fox jumps over the lazy dog again and again"
    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": [text, text + " today", "an unrelated line of words here",
                 text]})).map_batches(lambda df: df, batch_format="pandas")
    executions[0] = 0
    pairs = minhash_lsh_pairs(docs, threshold=0.5)
    assert executions[0] == 1
    got = {tuple(sorted((r["id_a"], r["id_b"]))) for r in pairs.take_all()}
    assert {(0, 3), (0, 1), (1, 3)} <= got and not any(2 in p for p in got)


def test_blocks_dataset_starts_no_task(ray_session, executions, monkeypatch):
    """Blocks.dataset() builds its Dataset from the metadata the reduce
    tasks returned: with rd.from_arrow_refs patched to raise it gives the
    rows, schema and block count of rd.from_arrow_refs over the same
    refs, and neither it nor reading its blocks back as an exchange
    source starts an executor run."""
    from text_to_rdf_ray.stages import bsp

    src = rd.from_arrow([pa.table({"k": [1, 2, 3]}), pa.table({"k": [4]}),
                         pa.table({"k": pa.array([], pa.int64())})])
    blocks = bsp.map_blocks(src.materialize(), lambda t: t.append_column(
        "s", pa.array([str(v) for v in t.column("k").to_pylist()])))
    want = rd.from_arrow_refs(blocks.refs)
    want_rows, want_schema = want.take_all(), want.schema()

    def refuse(*a, **k):
        raise AssertionError("rd.from_arrow_refs called")

    monkeypatch.setattr(rd, "from_arrow_refs", refuse)
    executions[0] = 0
    got = blocks.dataset()
    assert got.num_blocks() == want.num_blocks()
    assert got.schema() == want_schema
    assert got.take_all() == want_rows
    assert bsp.map_blocks(got, lambda t: t).num_rows() == 4
    assert executions[0] == 0
    empty = bsp.Blocks([], []).dataset()
    assert empty.count() == 0 and empty.num_blocks() == 0


def _lakehouse_input(tmp_path):
    import pyarrow.parquet as pq

    df = pd.DataFrame({"v": np.arange(600, dtype=np.float64),
                       "k": (np.arange(600) * 7 % 31).astype(np.int64)})
    d = tmp_path / "in"
    d.mkdir()
    for i in range(3):
        pq.write_table(pa.Table.from_pandas(df.iloc[i * 200:(i + 1) * 200],
                                            preserve_index=False),
                       str(d / f"in-{i}.parquet"))
    return df, str(d)


def test_lakehouse_writes_run_a_lazy_input_once(ray_session, executions,
                                                tmp_path):
    """clustered_write and zorder_write execute a read-backed input once:
    the sample and min/max passes read the materialized blocks in raw
    tasks."""
    from text_to_rdf_ray.stages.lakehouse import clustered_write, zorder_write

    df, d = _lakehouse_input(tmp_path)
    executions[0] = 0
    man = clustered_write(rd.read_parquet(d), str(tmp_path / "c"),
                          key_col="v", num_files=4)
    assert executions[0] == 1
    assert man["rows"].sum() == len(df) and len(man) == 4
    executions[0] = 0
    man = zorder_write(rd.read_parquet(d), str(tmp_path / "z"),
                       cols=["v", "k"], num_files=4)
    assert executions[0] == 1
    assert man["rows"].sum() == len(df) and len(man) > 1


def test_lakehouse_writes_of_an_empty_input(ray_session, tmp_path):
    """An empty input writes no data file and an empty manifest with the
    manifest's columns, for clustered_write (with and without a Bloom
    column) and zorder_write."""
    from text_to_rdf_ray.stages.lakehouse import (MANIFEST, clustered_write,
                                                  zorder_write)

    df, _ = _lakehouse_input(tmp_path)
    cases = [
        (lambda src, p: clustered_write(src, p, key_col="v", num_files=3),
         ["file", "rows", "min_key", "max_key"]),
        (lambda src, p: clustered_write(src, p, key_col="v", num_files=3,
                                        bloom_col="k"),
         ["file", "rows", "min_key", "max_key", "bloom", "bloom_nbits",
          "bloom_k"]),
        (lambda src, p: zorder_write(src, p, cols=["v", "k"], num_files=3),
         ["file", "rows", "min_v", "max_v", "min_k", "max_k"]),
    ]
    for i, (write, cols) in enumerate(cases):
        path = str(tmp_path / f"out{i}")
        man = write(rd.from_pandas(df.iloc[:0]), path)
        assert len(man) == 0 and list(man.columns) == cols
        assert os.listdir(path) == [MANIFEST]
        back = pd.read_parquet(os.path.join(path, MANIFEST))
        assert len(back) == 0 and list(back.columns) == cols
        # the dtypes of a manifest with rows
        full = write(rd.from_pandas(df), str(tmp_path / f"full{i}"))
        assert len(full) and dict(man.dtypes) == dict(full.dtypes)


def test_materialized_source_costs_no_materialize(ray_session, executions,
                                                  monkeypatch):
    """exchange_blocks and map_blocks read an already-materialized
    Dataset's blocks (a materialize() output, a from_arrow source) from
    its plan: with Dataset.materialize patched to raise they give the
    unpatched output.  A lazy source still runs exactly one execution."""
    import pyarrow.compute as pc
    import ray
    from ray.data import Dataset

    from text_to_rdf_ray.stages.bsp import exchange_blocks, map_blocks

    def rows(blocks):
        return sorted(r for t in ray.get(blocks.refs) for r in
                      zip(*(t.column(c).to_pylist() for c in t.column_names)))

    def exchanged(src):
        return rows(exchange_blocks(
            [(src, lambda t: t.append_column("p", pc.bit_wise_and(
                t.column("id"), 3)))],
            "p", lambda t: t.sort_by("id"), max_parts=4))

    def mapped(src):
        return rows(map_blocks(src, lambda t: t.append_column(
            "twice", pc.multiply(t.column("id"), 2))))

    def lazy():
        return rd.range(64, override_num_blocks=4).map_batches(
            lambda t: t, batch_format="pyarrow")

    mat = lazy().materialize()
    want = [exchanged(mat), mapped(mat)]
    assert len(want[0]) == len(want[1]) == 64
    for op, rows_want in zip((exchanged, mapped), want):
        executions[0] = 0
        assert op(lazy()) == rows_want
        assert executions[0] == 1

    def refuse(self):
        raise AssertionError("materialize() on a materialized source")

    monkeypatch.setattr(Dataset, "materialize", refuse)
    executions[0] = 0
    for src in (mat, rd.from_arrow(pa.table({"id": list(range(64))}))):
        assert [exchanged(src), mapped(src)] == want
    assert executions[0] == 0
