"""A partition's post-extraction tail (join linking, canonicalization,
validation, dedup and the sink) as one raw task (``bsp.run_in_task``):
the same partitions, files and counters as the tail run step by step
from the driver, exact counts when the task is killed and retried, and
no task submitted from inside it."""

import functools
import os
from collections import Counter

import pytest

pytestmark = pytest.mark.usefixtures("ray_session")

N_PAGES = 400
#: perfbench's partitioned_at_scale settings: shuffle-join linking, the
#: distributed canonicalize, N-Triples and subject buckets
SETTINGS = dict(link_mode="join", canonicalize_local_threshold=0,
                ntriples=True, subject_buckets=8)
#: the package's own raw tasks (stages/bsp.py, pipelines/kg.py)
PACKAGE_TASKS = ("_map_split_task", "_regroup_task", "_reduce_task",
                 "_value_task", "_fn_schema_task", "_sample_task",
                 "_sink_task", "_tail_task")


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    from text_to_rdf_ray.sources.fixtures import write_pages

    path = str(tmp_path_factory.mktemp("pages"))
    return write_pages(path, N_PAGES, rows_per_file=100)


@pytest.fixture
def submitted(monkeypatch):
    """Raw task submissions from this process during the test, by
    function name (``RemoteFunction._remote`` wrapped)."""
    from ray.remote_function import RemoteFunction

    names: Counter = Counter()
    real = RemoteFunction._remote

    def counting(self, *args, **kwargs):
        names[self._function_name.rsplit(".", 1)[-1]] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(RemoteFunction, "_remote", counting)
    return names


def _run(pages_dir: str, out: str) -> tuple:
    """A two-partition run_partitioned with ``SETTINGS``: each partition's
    sorted rows and N-Triples lines with its manifest counters, the
    operator counters of the run, and any tmp file or dir left."""
    from perfbench import checks
    from text_to_rdf_ray.pipelines.kg import run_partitioned
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.state import counters
    from text_to_rdf_ray.state import manifest as mf

    counters.snapshot(reset=True)
    rep = run_partitioned(pages_dir, out, partitions=2, kb_records=kb_records(),
                          resume=False, **SETTINGS)
    assert rep["ran"] == 2
    snap = counters.snapshot(reset=True)
    parts = {p: (checks.partition_content(mf.partition_dir(out, p)),
                 mf.read_manifest(out, p)["counters"])
             for p in mf.completed_partitions(out)}
    left = [n for _root, dirs, names in os.walk(out) for n in dirs + names
            if ".tmp" in n or n.startswith(".part")]
    return parts, snap, left


def _equal(a: tuple, b: tuple) -> None:
    parts_a, snap_a, left_a = a
    parts_b, snap_b, left_b = b
    assert sorted(parts_a) == sorted(parts_b) == [0, 1]
    for p in parts_a:
        (rows_a, lines_a), counts_a = parts_a[p]
        (rows_b, lines_b), counts_b = parts_b[p]
        assert rows_a.num_rows > 0 and rows_a.equals(rows_b)
        assert lines_a == lines_b
        assert counts_a == counts_b
    assert snap_a == snap_b
    assert left_a == left_b == []


def test_tail_task_equals_the_distributed_tail(pages_dir, tmp_path,
                                               monkeypatch, submitted):
    """The metamorphic family: the tail as one task, the tail step by
    step from the driver with every exchange at its partition cap (one
    partition per byte of input, which also keeps the tail out of one
    task), and the same again through the two-level tree combine give
    the same partitions (every column, provenance included, and the
    N-Triples lines), the same manifest counters (_triple_counters) and
    the same operator counters."""
    import ray.data as rd

    from text_to_rdf_ray.stages import bsp

    runs = {}
    submitted.clear()
    runs["in_task"] = _run(pages_dir, str(tmp_path / "in_task"))
    assert submitted["_tail_task"] == 2
    assert runs["in_task"][1].get("canon_candidates", 0) > 0
    monkeypatch.setattr(rd.DataContext.get_current(), "target_min_block_size",
                        1)
    submitted.clear()
    runs["capped"] = _run(pages_dir, str(tmp_path / "capped"))
    assert "_tail_task" not in submitted and submitted["_map_split_task"]
    monkeypatch.setattr(bsp, "TREE_COMBINE_THRESHOLD", 0)
    submitted.clear()
    runs["tree"] = _run(pages_dir, str(tmp_path / "tree"))
    assert "_tail_task" not in submitted and submitted["_regroup_task"]
    _equal(runs["in_task"], runs["capped"])
    _equal(runs["in_task"], runs["tree"])


def test_killed_tail_task_gives_a_clean_run(pages_dir, tmp_path):
    """A tail task whose worker dies once (a custom validation rule
    exits its process on its first call) is retried by Ray: the
    partitions, N-Triples, manifest counters and operator counters equal
    a clean run's, and no tmp file or dir is left."""
    from text_to_rdf_ray.functions.registry import (ValidationRule, add_rule,
                                                    clear_rules)

    marker = str(tmp_path / "killed")

    def exit_once(row, marker=marker):
        import os

        from text_to_rdf_ray.stages import bsp

        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return True
        os.write(fd, b"in_task" if bsp._in_task else b"driver_steps")
        os.close(fd)
        os._exit(1)

    add_rule(ValidationRule(name="exit_once", description="kills its worker "
                            "on its first call", check_fn=exit_once))
    try:
        killed = _run(pages_dir, str(tmp_path / "killed_run"))
        clean = _run(pages_dir, str(tmp_path / "clean_run"))
    finally:
        clear_rules()
    with open(marker) as fh:
        assert fh.read() == "in_task"
    _equal(killed, clean)


def test_tail_is_one_task_and_submits_none(pages_dir, tmp_path, submitted):
    """A warm two-partition pass submits, besides the extraction chain's
    Ray Data tasks and the KB label table's band rows (one task per
    label block, built once per call), one tail task per partition.  The
    tail task's body, run in this process on the fetched input tables,
    submits no task and writes what the tail task wrote."""
    import ray
    import ray.data as rd

    from perfbench import checks
    from text_to_rdf_ray.pipelines import kg
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.stages import bsp
    from text_to_rdf_ray.stages.kg_stages import KBLabelTable

    out = str(tmp_path / "out")
    _run(pages_dir, out)  # warm
    n_label_blocks = len(KBLabelTable(kb_records()).labels().refs)
    submitted.clear()
    parts, _, _ = _run(pages_dir, out)
    own = {n: c for n, c in submitted.items() if n in PACKAGE_TASKS}
    assert own == {"_tail_task": 2, "_reduce_task": n_label_blocks}

    files = sorted(os.path.join(pages_dir, f) for f in os.listdir(pages_dir)
                   if f.endswith(".parquet"))
    tail = kg.build_triples.blocks(
        rd.read_parquet(files[0::2], columns=kg.PAGE_COLUMNS),
        kb_records=KBLabelTable(kb_records()), link_mode="join",
        canonicalize_local_threshold=0)
    srcs = tail._sources()
    assert bsp.fits_one_task(*srcs)
    tables = ray.get([r for src in srcs for r in src.refs])
    metas = [m for src in srcs for m in src.metas()]
    inline = str(tmp_path / "inline")
    os.makedirs(inline)
    write = functools.partial(kg._write_files, tmp_dir=inline,
                              sort_output=False, subject_buckets=8,
                              ntriples=True)
    body = functools.partial(kg._tail_in_task, tail.steps,
                             functools.partial(kg._with_none, write))
    submitted.clear()
    manifest, _, counts = bsp._tail_task._function(
        body, metas, [len(src.refs) for src in srcs], *tables)
    assert sum(submitted.values()) == 0
    assert not bsp._in_task
    assert checks.partition_content(inline) == parts[0][0]
    assert {"docs_in": N_PAGES // 2, **manifest["counters"]} == parts[0][1]
    assert counts.get("canon_candidates", 0) > 0
