"""Operator counters: counts made in raw tasks come back with the task's
output and are added once, a retry or a second read of a lineage
included; an increment in a Ray Data map raises."""

import os
import threading

import pytest


def test_retried_reduce_counts_once(ray_session, tmp_path):
    """A keyed_apply reduce that counts its rows and then kills its worker
    on the first attempt is retried by Ray; the counters equal a clean
    run's."""
    import ray.data as rd

    from text_to_rdf_ray.stages.exchange import keyed_apply
    from text_to_rdf_ray.state import counters

    marker = tmp_path / "crashed"

    def per_part(df):
        counters.incr({"retry_rows": len(df)})
        if not marker.exists():
            marker.touch()
            os._exit(1)
        return df

    ds = rd.from_items([{"k": i} for i in range(100)])
    snaps = []
    for _ in range(2):  # the first run crashes once, the second is clean
        counters.snapshot(reset=True)
        assert keyed_apply(ds, "k", per_part, num_partitions=1).count() == 100
        snaps.append(counters.snapshot(reset=True))
    assert marker.exists()
    assert snaps[0] == snaps[1] == {"retry_rows": 100}


def test_lineage_read_twice_counts_once(ray_session):
    """The output of extract_links consumed twice (count, then pandas)
    counts its relative links once."""
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import extract_links
    from text_to_rdf_ray.state import counters

    html = '<a href="/rel">r</a> <a href="http://b.example/x">b</a>'
    pages = rd.from_items([{"page_id": i, "url": f"http://a.example/{i}",
                            "html": html} for i in range(10)])
    counters.snapshot(reset=True)
    links = extract_links(pages)
    assert links.count() == 10
    assert len(links.to_pandas()) == 10
    assert counters.snapshot(reset=True) == {"extractlinks_relative": 10}


def test_incr_in_a_ray_data_map_raises(ray_session):
    """A count made inside a Ray Data map would be lost or re-added: the
    increment raises and names the counter."""
    import ray.data as rd

    from text_to_rdf_ray.state import counters

    def step(t):
        counters.incr({"counted_in_a_map": 1})
        return t

    with pytest.raises(Exception, match="counted_in_a_map"):
        rd.from_items([{"x": 1}]).map_batches(
            step, batch_format="pyarrow").materialize()


def test_failed_task_counts_drop_and_pending_stays_bounded(ray_session):
    """A failed raw task's counts are dropped and snapshot does not raise
    its error again; counts of finished tasks are added as passes go, so
    the pending refs do not grow with the number of passes."""
    import pyarrow as pa

    from text_to_rdf_ray.stages import bsp
    from text_to_rdf_ray.state import counters

    src = bsp.Blocks.put([pa.table({"x": [1, 2]})] * 4)

    def fail(t):
        counters.incr({"before_failure": 1})
        raise ValueError("block function failed")

    counters.snapshot(reset=True)
    with pytest.raises(Exception, match="block function failed"):
        bsp.map_blocks(src, fail).num_rows()
    assert counters.snapshot(reset=True) == {}

    def count(t):
        counters.incr({"rows": t.num_rows})
        return t

    for _ in range(100):
        assert bsp.map_blocks(src, count).num_rows() == 8
    assert len(counters._pending) <= 2 * counters._FOLD_EVERY
    assert counters.snapshot(reset=True) == {"rows": 800}


def test_driver_threads_count_exactly(ray_session):
    """Two driver threads incrementing at once (run_partitioned's
    partition threads) lose no count, with thread switches forced often."""
    import sys

    from text_to_rdf_ray.state import counters

    def work():
        for _ in range(10_000):
            counters.incr({"threaded": 1})

    counters.snapshot(reset=True)
    threads = [threading.Thread(target=work) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert counters.snapshot(reset=True) == {"threaded": 20_000}


def test_counted_nests():
    """A counted call inside another (a task body run inline by a tail
    task) restores the enclosing task's counts, which then hold the
    inner counts once; a dropped call's counts reach neither."""
    from text_to_rdf_ray.state import counters

    def inner():
        counters.incr({"inner": 1})
        return "value"

    def outer():
        counters.incr({"outer": 2})
        assert counters.counted(inner) == ("value", {"inner": 1})
        assert counters.dropped(inner) == "value"
        counters.incr({"outer": 1})
        return "done"

    assert counters.counted(outer) == ("done", {"outer": 3, "inner": 1})
    assert counters._task is None


def test_tail_task_counts_nest_in_a_worker(ray_session):
    """Steps run inside one tail task (bsp.run_in_task) count into it:
    increments before, inside and after an inline per-block map all
    reach the driver's sums, once."""
    import pyarrow as pa
    import ray

    from text_to_rdf_ray.stages import bsp
    from text_to_rdf_ray.state import counters

    def count(t):
        counters.incr({"block_rows": t.num_rows})
        return t

    def steps(src):
        counters.incr({"tail_steps": 1})
        rows = bsp.map_blocks(src, count).num_rows()
        counters.incr({"tail_steps": 1})
        return rows, None

    src = bsp.Blocks.put([pa.table({"x": [1, 2]})] * 3)
    counters.snapshot(reset=True)
    rows, _ = bsp.run_in_task(steps, src)
    assert ray.get(rows) == 6
    assert counters.snapshot(reset=True) == {"tail_steps": 2, "block_rows": 6}
