"""Tests of the benchmark's own helpers (no Ray).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import sys

import pyarrow as pa
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import checks, hostinfo, loadgen  # noqa: E402
from perfbench.tracing import Span, Tracer, covered_length, self_times  # noqa: E402


# -- triple-set hash ---------------------------------------------------------

def test_set_hash_ignores_order_and_duplicates():
    s, p, o = ["a", "b", "a"], ["x", "y", "x"], ["1", "2", "1"]
    assert checks.triple_set_hash(s, p, o) == checks.triple_set_hash(
        ["b", "a"], ["y", "x"], ["2", "1"])


def test_set_hash_sees_every_field_and_separator():
    base = checks.triple_set_hash(["a"], ["x"], ["1"])
    assert checks.triple_set_hash(["a"], ["x"], ["2"]) != base
    assert checks.triple_set_hash(["b"], ["x"], ["1"]) != base
    # field boundaries are part of the hash
    assert checks.triple_set_hash(["ab"], ["c"], ["d"]) != checks.triple_set_hash(
        ["a"], ["bc"], ["d"])
    assert checks.triple_set_hash([], [], []) != base


def test_gold_check_names_missing_triples():
    table = pa.table({"subj_slug": ["alan_bean"], "pred": ["birthdat"], "obj": ["1932-03-15"]})
    checks.check_gold(table, {("alan_bean", "birthdat", "1932-03-15")})
    with pytest.raises(checks.CheckFailed, match="1 gold triples missing"):
        checks.check_gold(table, {("ada_lovelace", "birthdat", "1815-12-10")})


def test_partition_equality_compares_content_not_file_names(tmp_path):
    import pyarrow.parquet as pq

    for name, rows in (("a", [("s1", 1), ("s2", 2)]), ("b", [("s2", 2), ("s1", 1)])):
        d = tmp_path / name / "subj_bucket=3"
        d.mkdir(parents=True)
        pq.write_table(pa.table({"subj": [r[0] for r in rows], "n": [r[1] for r in rows]}),
                       d / f"{name}-random.parquet")
        (tmp_path / name / f"{name}.nt").write_text("<b> <p> <o> .\n<a> <p> <o> .\n")
    a = checks.partition_content(str(tmp_path / "a"))
    b = checks.partition_content(str(tmp_path / "b"))
    checks.check_partition_equal(a, b, 0)
    assert a[0].column("subj_bucket").to_pylist() == [3, 3]
    (tmp_path / "b" / "b.nt").write_text("<a> <p> <o> .\n")
    with pytest.raises(checks.CheckFailed, match="N-Triples"):
        checks.check_partition_equal(a, checks.partition_content(str(tmp_path / "b")), 0)


# -- spans and self time -----------------------------------------------------

def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, "r")


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3)


def test_self_time_subtracts_children_once():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "b", 3.0, 6.0, parent=1),  # overlaps a: covered 1..6
        _span(4, "leaf", 1.5, 2.0, parent=2),
        _span(5, "a", 7.0, 8.0, parent=1),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10 - 5 - 1)
    assert own["a"] == pytest.approx((3 - 0.5) + 1)
    assert own["b"] == pytest.approx(3)
    assert own["leaf"] == pytest.approx(0.5)
    total = sum(s.end - s.start for s in spans if s.parent is None)
    assert sum(own.values()) == pytest.approx(total + 1.0)  # b's overlap with a counts twice


def test_tracer_links_parents_and_names_the_failing_span():
    tr = Tracer("run-1")
    with tr.span("outer"):
        tr.wrap("inner", lambda: None)()
    inner, outer = tr.spans
    assert inner.parent == outer.id and outer.parent is None
    assert {s.run_id for s in tr.spans} == {"run-1"}
    off = Tracer("run-2", enabled=False)
    with pytest.raises(ZeroDivisionError):
        with off.span("job"):
            with off.span("stage.extract"):
                1 / 0
    assert off.failed_in == "job/stage.extract"
    assert off.spans == [] and off.open_path() == ""


# -- /proc readers -----------------------------------------------------------

STAT = "cpu  100 2 30 400 5 0 6 77 0 0\ncpu0 50 1 15 200 2 0 3 40 0 0\n"


def test_parse_steal_and_status():
    assert hostinfo.parse_steal_ticks(STAT) == 77
    with pytest.raises(ValueError):
        hostinfo.parse_steal_ticks("intr 1 2 3\n")
    status = "Name:\tpython\nVmPeak:\t  9000 kB\nVmHWM:\t  1234 kB\n"
    assert hostinfo.parse_status_kb(status, "VmHWM") == 1234
    assert hostinfo.parse_status_kb("Name:\tkthreadd\n", "VmHWM") == 0


def test_parse_stat_survives_spaces_and_parens_in_the_name():
    rest = " ".join(["S", "42"] + ["0"] * 17 + ["999"])
    assert hostinfo.parse_stat(f"7 (ray::IDLE (x) y) {rest}") == (42, "S", 999)


def _fake_proc(root, procs):
    (root / "stat").write_text(STAT)
    for pid, ppid, state, hwm in procs:
        d = root / str(pid)
        d.mkdir()
        rest = " ".join([state, str(ppid)] + ["0"] * 17 + [str(pid * 10)])
        (d / "stat").write_text(f"{pid} (p {pid}) {rest}\n")
        (d / "status").write_text(f"Name:\tp\nVmHWM:\t{hwm} kB\n")


def test_tree_peak_rss_sums_live_descendants(tmp_path):
    _fake_proc(tmp_path, [(1, 0, "S", 10), (100, 1, "S", 1024), (101, 100, "S", 2048),
                          (102, 101, "R", 1024), (103, 100, "Z", 0), (200, 1, "S", 4096)])
    assert hostinfo.descendants(100, str(tmp_path)) == {101: 1010, 102: 1020}
    assert hostinfo.tree_peak_rss_mb(100, str(tmp_path)) == pytest.approx(4.0)
    assert hostinfo.steal_s(str(tmp_path)) == pytest.approx(77 / os.sysconf("SC_CLK_TCK"))


def test_live_proc_readers_see_this_process():
    assert hostinfo.tree_peak_rss_mb() > 1
    assert hostinfo.steal_s() >= 0
    assert hostinfo.alive(os.getpid(), hostinfo.parse_stat(
        open(f"/proc/{os.getpid()}/stat").read())[2])


def test_nproc_honours_omp_limits():
    cpus = len(os.sched_getaffinity(0))
    assert hostinfo.nproc({}) == cpus
    assert hostinfo.nproc({"OMP_NUM_THREADS": "1"}) == 1
    assert hostinfo.nproc({"OMP_NUM_THREADS": "1000", "OMP_THREAD_LIMIT": "1"}) == 1
    assert hostinfo.nproc({"OMP_NUM_THREADS": "junk"}) == cpus


# -- load generation -----------------------------------------------------------

def test_generators_are_deterministic_per_seed_and_differ_across_seeds():
    a_rows, a_kb = loadgen.entity_pages(300, seed=1)
    b_rows, b_kb = loadgen.entity_pages(300, seed=1)
    c_rows, c_kb = loadgen.entity_pages(300, seed=2)
    assert a_rows == b_rows and a_kb == b_kb
    assert [r["text"] for r in a_rows] != [r["text"] for r in c_rows]
    assert a_kb != c_kb
    assert loadgen.web_pages_rows(200, 3) == loadgen.web_pages_rows(200, 3)
    assert ([r["html"] for r in loadgen.web_pages_rows(200, 3)]
            != [r["html"] for r in loadgen.web_pages_rows(200, 4)])


def test_entity_kb_holds_half_the_entities():
    rows, kb = loadgen.entity_pages(500, seed=5)
    people = [r for r in kb if r["types"] == ["Person"]]
    assert len(people) == int(500 * loadgen.ENTITIES_PER_PAGE) // 2
    assert len({r["url"] for r in rows}) == 500


def test_misspell_changes_one_inner_letter():
    rng = random.Random(0)
    for name in loadgen.entity_names(50, rng):
        bad = loadgen.misspell(name, rng)
        diff = [i for i, (x, y) in enumerate(zip(name, bad)) if x != y]
        assert len(bad) == len(name) and len(diff) == 1
        assert name[diff[0]].islower() and bad.split()[0][0] == name[0]


def test_prepare_caches_and_reuses(tmp_path, monkeypatch):
    monkeypatch.setitem(loadgen.SIZES, "partitioned_at_scale", 120)
    first = loadgen.prepare("partitioned_at_scale", 7, str(tmp_path))
    mtimes = {f: os.path.getmtime(f) for f in first.files()}
    again = loadgen.prepare("partitioned_at_scale", 7, str(tmp_path))
    assert again.expected_hash == first.expected_hash and again.kb_records == first.kb_records
    assert {f: os.path.getmtime(f) for f in again.files()} == mtimes
    assert len(first.files()) == loadgen.N_FILES and first.n_pages == 120
    with pytest.raises(ValueError):
        loadgen.prepare("no_such_workload", 1, str(tmp_path))


# -- BENCHMARK.json ----------------------------------------------------------

def test_benchmark_json_names_every_workload_and_target():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(ROOT, "perfbench", "targets.json")) as fh:
        targets = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    assert workloads == list(loadgen.WORKLOADS)
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer = [m["name"] for m in bench["per_layer"]]
    # every per-layer metric sits in exactly one target group
    grouped = [name for t in targets for name in t["metrics"]]
    assert sorted(grouped) == sorted(per_layer)
    for t in targets:
        assert set(t["moves"]) <= e2e and set(t["on"]) <= set(workloads), t["metrics"]
    # recorded output hashes exist for the current sizes and input format
    with open(os.path.join(ROOT, "perfbench", "expected.json")) as fh:
        recorded = json.load(fh)
    for w in workloads:
        assert len(recorded[f"{w}-n{loadgen.SIZES[w]}-f{loadgen.FORMAT}"]) >= 10, w
