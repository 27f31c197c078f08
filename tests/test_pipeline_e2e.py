"""End-to-end Ray pipeline tests: fixture pages -> canonical triples,
gold-set equality, determinism, and partitioned resume."""

import os

import pytest

pytestmark = pytest.mark.usefixtures("ray_session")

N_PAGES = 400


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    from text_to_rdf_ray.sources.fixtures import write_pages

    path = str(tmp_path_factory.mktemp("pages"))
    return write_pages(path, N_PAGES, rows_per_file=100)


@pytest.fixture(scope="module")
def triples_df(pages_dir):
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages
    from text_to_rdf_ray.sources.fixtures import kb_records

    return build_triples(read_pages(pages_dir), kb_records=kb_records()).to_pandas()


def _expected_gold(n_pages: int):
    """Gold triples computable from the fixture grid (en short pages only)."""
    from text_to_rdf_ray.sources.fixtures import gold_case, page_rows

    gold = set()
    for i, row in enumerate(page_rows(n_pages)):
        if row["lang"] != "en" or (i % 200 == 199):
            continue  # lang-filtered or long-doc page
        _, triples = gold_case(i)
        gold |= triples
    return gold


def test_pipeline_covers_gold_grid(triples_df):
    """Every computable gold triple from short pages appears, canonical."""
    gold = _expected_gold(N_PAGES)
    produced = {
        (r.subj_slug, r.pred, r.obj)
        for r in triples_df[triples_df.nested_in == ""].itertuples()
    }
    missing = gold - produced
    assert not missing, f"missing {len(missing)}: {sorted(missing)[:5]}"


def test_pipeline_dedup_no_duplicate_spo(triples_df):
    keys = triples_df[["subj", "pred", "obj"]].apply(tuple, axis=1)
    assert keys.is_unique


def test_pipeline_linked_subjects(triples_df):
    linked = triples_df["subj_uri"].notna().mean()
    assert linked > 0.9  # fixture KB covers the grid


def test_pipeline_validation_columns(triples_df):
    assert triples_df["valid"].all()
    assert (triples_df["confidence"] == 1.0).all()


def test_pipeline_deterministic(pages_dir):
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages
    from text_to_rdf_ray.sources.fixtures import kb_records

    a = build_triples(read_pages(pages_dir), kb_records=kb_records()).to_pandas()
    b = build_triples(read_pages(pages_dir), kb_records=kb_records()).to_pandas()
    ka = sorted(map(tuple, a[["subj", "pred", "obj", "url"]].values.tolist()))
    kb = sorted(map(tuple, b[["subj", "pred", "obj", "url"]].values.tolist()))
    assert ka == kb


def test_triple_counters_match_pandas_reference():
    """_triple_counters (one task per block, summed on the driver) equals
    a pandas count over the rows: a null subj_uri is not linked, and
    without a valid column every row counts as valid."""
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd

    from text_to_rdf_ray.pipelines.kg import _triple_counters

    df = pd.DataFrame({
        "method": ["pattern", "nlp", "pattern", "pattern", "llm"] * 5,
        "subj_uri": ["u", None, None, "v", "w"] * 5})

    def counters(frame):
        return _triple_counters(rd.from_arrow(pa.Table.from_pandas(
            frame, preserve_index=False)).repartition(3).materialize())

    def reference(frame):
        want = {f"triples_method_{m}": int(n)
                for m, n in frame.groupby("method").size().items()}
        want["triples_valid"] = (int(frame["valid"].sum())
                                 if "valid" in frame else len(frame))
        want["triples_linked"] = int(frame["subj_uri"].notna().sum())
        return want

    for frame in (df, df.assign(valid=[True, False, True, True, False] * 5)):
        got = counters(frame)
        assert got == reference(frame)
        assert list(got) == list(reference(frame))
    assert counters(df.iloc[:0]) == {}


def test_partitioned_run_and_resume(pages_dir, tmp_path):
    import pandas as pd

    from text_to_rdf_ray.pipelines.kg import run_partitioned
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.state import manifest as mf

    out = str(tmp_path / "out")
    rep1 = run_partitioned(pages_dir, out, partitions=2, kb_records=kb_records())
    assert rep1["ran"] == 2 and rep1["skipped"] == 0
    assert mf.completed_partitions(out) == [0, 1]
    totals = mf.aggregate_counters(out)
    assert totals["triples_out"] > 0

    # resume: nothing re-runs
    rep2 = run_partitioned(pages_dir, out, partitions=2, kb_records=kb_records())
    assert rep2["ran"] == 0 and rep2["skipped"] == 2

    # simulate partial failure: delete one manifest -> only that partition reruns
    os.remove(os.path.join(mf.partition_dir(out, 1), mf.MANIFEST_NAME))
    rep3 = run_partitioned(pages_dir, out, partitions=2, kb_records=kb_records())
    assert rep3["ran"] == 1 and rep3["skipped"] == 1

    # output parquet is readable and row counts match manifests
    frames = []
    for part in mf.completed_partitions(out):
        pdir = mf.partition_dir(out, part)
        files = [f for f in os.listdir(pdir) if f.endswith(".parquet")]
        assert files
        for f in files:
            frames.append(pd.read_parquet(os.path.join(pdir, f)))
    total_rows = sum(len(f) for f in frames)
    assert total_rows == mf.aggregate_counters(out)["triples_out"]


def test_strip_html_drops_column(pages_dir):
    import ray.data as rd

    from text_to_rdf_ray.stages.kg_stages import strip_html

    ds = rd.read_parquet(pages_dir).map_batches(strip_html, batch_format="pyarrow")
    names = ds.schema().names
    assert "html" not in names and "text" in names


def test_ntriples_sink(pages_dir, tmp_path):
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages, write_ntriples
    from text_to_rdf_ray.sources.fixtures import kb_records

    triples = build_triples(read_pages(pages_dir), kb_records=kb_records(),
                            canonicalize=False)
    out = str(tmp_path / "nt")
    write_ntriples(triples, out)
    files = os.listdir(out)
    assert files
    content = open(os.path.join(out, files[0])).read()
    assert "<https://schema.org/" in content


def test_ntriples_sink_identical_blocks_not_collapsed(tmp_path):
    """Two distinct blocks rendering byte-identical bodies (duplicate
    triples with dedup disabled) must yield distinct shard files — the
    round-2 content-hash-only naming silently dropped one block's rows."""
    import pyarrow as pa

    import ray.data as rd

    from text_to_rdf_ray.pipelines.kg import write_ntriples

    def block(n):
        return pa.table({
            "subj": pa.array(["Alan Bean"] * n, pa.string()),
            "pred": pa.array(["birthdat"] * n, pa.string()),
            "obj": pa.array(["1932-03-15"] * n, pa.string()),
            "obj_type": pa.array([""] * n, pa.string()),
        })

    ds = rd.from_arrow([block(3), block(3)])  # two identical 3-row blocks
    out = str(tmp_path / "nt_dup")
    write_ntriples(ds, out)
    files = sorted(os.listdir(out))
    total = sum(
        len(open(os.path.join(out, f)).read().strip().splitlines())
        for f in files
    )
    assert total == 6, (files, total)


def test_ntriples_sink_skips_empty_schemaless_block(tmp_path):
    """A zero-row block with no columns (what an empty upstream task can
    emit) must be skipped, not crash the sink on its missing columns."""
    import pyarrow as pa

    import ray.data as rd

    from text_to_rdf_ray.pipelines.kg import write_ntriples

    rows = pa.table({
        "subj": pa.array(["Alan Bean", "Buzz Aldrin"], pa.string()),
        "pred": pa.array(["birthdat", "birthdat"], pa.string()),
        "obj": pa.array(["1932-03-15", "1930-01-20"], pa.string()),
        "obj_type": pa.array(["", ""], pa.string()),
    })
    ds = rd.from_arrow([pa.table({}), rows])
    out = str(tmp_path / "nt_empty")
    write_ntriples(ds, out)
    lines = [ln for f in sorted(os.listdir(out))
             for ln in open(os.path.join(out, f)).read().splitlines()]
    assert len(lines) == 2, lines


def test_document_shaped_rule_rejected_at_build(pages_dir):
    """A rule requiring a property outside the relational row view must
    fail LOUDLY at graph build, not silently invalidate every triple."""
    import pytest as _pytest

    from text_to_rdf_ray.functions.registry import (
        ValidationRule,
        add_rule,
        clear_rules,
    )
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages

    clear_rules()
    try:
        add_rule(ValidationRule(
            name="needs_birthdate", description="", entity_type="Person",
            required_properties=["birthDate"],
        ))
        with _pytest.raises(ValueError, match="birthDate"):
            build_triples(read_pages(pages_dir), link=False,
                          canonicalize=False, dedup=False)
    finally:
        clear_rules()


def test_unknown_link_mode_raises(pages_dir):
    """Only "task" and "join" link: the deleted "actor" mode and a typo
    raise, naming both, instead of running task mode."""
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages
    from text_to_rdf_ray.sources.fixtures import kb_records

    for mode in ("actor", "jion"):
        with pytest.raises(ValueError, match="'task'.*'join'"):
            build_triples(read_pages(pages_dir), kb_records=kb_records(),
                          link_mode=mode)


def test_link_join_mode_agrees_with_broadcast(pages_dir):
    """The shuffle-join linker (link_mode='join': nothing replicated per
    worker, for KBs too large to broadcast) must produce exactly the same
    links and confidences as the broadcast task-mode index."""
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages
    from text_to_rdf_ray.sources.fixtures import kb_records

    kwargs = dict(kb_records=kb_records(), canonicalize=False, validate=False,
                  dedup=False)
    a = build_triples(read_pages(pages_dir), link_mode="task", **kwargs).to_pandas()
    j = build_triples(read_pages(pages_dir), link_mode="join", **kwargs).to_pandas()
    key = ["url", "subj", "pred", "obj", "subj_uri", "obj_uri",
           "subj_link_conf", "obj_link_conf"]
    sa = sorted(map(tuple, a[key].fillna("").round(
        {"subj_link_conf": 9, "obj_link_conf": 9}).values.tolist()))
    sj = sorted(map(tuple, j[key].fillna("").round(
        {"subj_link_conf": 9, "obj_link_conf": 9}).values.tolist()))
    assert sa == sj


def test_partitioned_join_link_builds_label_table_once(pages_dir, tmp_path,
                                                       monkeypatch):
    """run_partitioned(link_mode="join") labels the KB once per call, not
    once per partition, with no rd.from_items; every partition's output
    equals the broadcast (task-mode) link's."""
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.pipelines.kg import run_partitioned
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.stages import kg_stages
    from text_to_rdf_ray.state import manifest as mf

    calls = {"labels": 0, "from_items": 0}
    real_rows, real_items = kg_stages._label_rows, rd.from_items

    def counted_rows(records):
        calls["labels"] += 1
        return real_rows(records)

    def counted_items(*a, **k):
        calls["from_items"] += 1
        return real_items(*a, **k)

    monkeypatch.setattr(kg_stages, "_label_rows", counted_rows)
    monkeypatch.setattr(rd, "from_items", counted_items)

    def partitions(link_mode: str) -> list:
        out = str(tmp_path / link_mode)
        rep = run_partitioned(pages_dir, out, partitions=2,
                              kb_records=kb_records(), link_mode=link_mode)
        assert rep["ran"] == 2
        frames = []
        for part in mf.completed_partitions(out):
            pdir = mf.partition_dir(out, part)
            df = pd.concat([pd.read_parquet(os.path.join(pdir, f))
                            for f in sorted(os.listdir(pdir))
                            if f.endswith(".parquet")])
            df = df.round({c: 9 for c in df.columns if df[c].dtype == float})
            frames.append(df.sort_values(list(df.columns))
                          .reset_index(drop=True))
        return frames

    joined = partitions("join")
    assert calls == {"labels": 1, "from_items": 0}
    broadcast = partitions("task")
    assert len(joined) == len(broadcast) == 2
    for j, b in zip(joined, broadcast):
        pd.testing.assert_frame_equal(j, b)


def test_hot_key_skew_dedups_to_single_triples():
    """2,000 pages all asserting the same facts about one hot entity: the
    batch-local combiner collapses the skew before the exchange and the
    global dedup yields exactly the distinct triple set."""
    import pyarrow as pa

    import ray.data as rd

    from text_to_rdf_ray.pipelines.kg import build_triples
    from text_to_rdf_ray.sources.fixtures import kb_records, wrap_html

    text = "Alan Bean was born on the 15th of March 1932."
    n = 2000
    pages = rd.from_arrow(
        pa.table(
            {
                "url": pa.array([f"https://skew.test/{i}" for i in range(n)]),
                "warc_ts": pa.array([1704067200_000000 + i for i in range(n)],
                                    pa.timestamp("us")),
                "html": pa.array([wrap_html("d", text)] * n, pa.binary()),
                "lang": pa.array(["en"] * n),
            }
        )
    )
    out = build_triples(pages, kb_records=kb_records()).to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    assert (row.subj_slug, row.pred, row.obj) == ("alan_bean", "birthdat", "1932-03-15")
    # deterministic provenance: first url by (url, chunk, span)
    assert row.url == "https://skew.test/0"


def test_manifest_method_counters(pages_dir, tmp_path):
    from text_to_rdf_ray.pipelines.kg import run_partitioned
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.state import manifest as mf

    out = str(tmp_path / "out2")
    run_partitioned(pages_dir, out, partitions=1, kb_records=kb_records())
    totals = mf.aggregate_counters(out)
    assert totals["triples_valid"] > 0
    assert totals["triples_linked"] > 0
    method_keys = [k for k in totals if k.startswith("triples_method_")]
    assert "triples_method_born_on" in method_keys
    assert sum(totals[k] for k in method_keys) == totals["triples_out"]


def test_subject_bucketed_write(pages_dir, tmp_path):
    import pandas as pd

    from text_to_rdf_ray.pipelines.kg import run_partitioned
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.state import manifest as mf

    out = str(tmp_path / "bucketed")
    run_partitioned(pages_dir, out, partitions=1, kb_records=kb_records(),
                    subject_buckets=4)
    pdir = mf.partition_dir(out, 0)
    buckets = [d for d in os.listdir(pdir) if d.startswith("subj_bucket=")]
    assert 1 <= len(buckets) <= 4
    # subjects are co-located: each subj appears in exactly one bucket dir
    subj_to_bucket = {}
    for b in buckets:
        bdir = os.path.join(pdir, b)
        for f in os.listdir(bdir):
            df = pd.read_parquet(os.path.join(bdir, f))
            for s in df["subj"]:
                assert subj_to_bucket.setdefault(s, b) == b


def test_compact_partitions_global_dedup(pages_dir, tmp_path):
    from text_to_rdf_ray.pipelines.kg import compact_partitions, run_partitioned
    from text_to_rdf_ray.sources.fixtures import kb_records

    out = str(tmp_path / "parts")
    run_partitioned(pages_dir, out, partitions=2, kb_records=kb_records())
    rep = compact_partitions(out, str(tmp_path / "final"))
    assert rep["rows_out"] <= rep["rows_in"]
    import pandas as pd

    final = pd.concat(
        [pd.read_parquet(os.path.join(tmp_path, "final", f))
         for f in os.listdir(tmp_path / "final") if f.endswith(".parquet")]
    )
    keys = final[["subj", "pred", "obj"]].apply(tuple, axis=1)
    assert keys.is_unique
    assert rep["rows_out"] == len(final)


def test_run_cli_entrypoint(pages_dir, tmp_path):
    """`python -m text_to_rdf_ray.run` (the ray-job-submit entrypoint) in a
    fresh process: runs partitioned, writes manifests, reports JSON."""
    import json
    import subprocess
    import sys

    from text_to_rdf_ray.sources.fixtures import write_kb

    kb_path = str(tmp_path / "kb.parquet")
    write_kb(kb_path)
    out = str(tmp_path / "cli_out")
    proc = subprocess.run(
        [sys.executable, "-m", "text_to_rdf_ray.run", "--pages", pages_dir,
         "--out", out, "--kb", kb_path, "--partitions", "2"],
        capture_output=True, text=True, timeout=240,
        cwd="/root/repo",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["ran"] == 2
    assert report["counters"]["triples_out"] > 0


def test_adversarial_pages_robustness():
    """Nulls, empties, malformed HTML, unicode, and a ~1MB document all
    flow through the full pipeline without failures."""
    import pyarrow as pa

    import ray.data as rd

    from text_to_rdf_ray.pipelines.kg import build_triples
    from text_to_rdf_ray.sources.fixtures import kb_records, wrap_html

    pages = rd.from_arrow(
        pa.table(
            {
                "url": [f"https://a/{i}" for i in range(6)],
                "warc_ts": pa.array([0] * 6, pa.timestamp("us")),
                "html": pa.array(
                    [
                        None,
                        b"",
                        wrap_html("t", ""),
                        wrap_html("t", "José Gárcía was born on the 3rd of May 1950. 他是科学家。"),
                        wrap_html("t", "Alan Bean was born on the 15th of March 1932. " * 20000),
                        b"<p>broken<div><<<&&& unclosed",
                    ],
                    pa.binary(),
                ),
                "lang": pa.array(["en", "en", "en", "en", "en", None]),
            }
        )
    )
    out = build_triples(pages, kb_records=kb_records()).to_pandas()
    got = {(r.subj, r.pred, r.obj) for r in out.itertuples()}
    assert ("José Gárcía", "birthdat", "1950-05-03") in got
    assert ("Alan Bean", "birthdat", "1932-03-15") in got
    assert len(out) == 2  # the 1MB repeated doc dedups to one fact


def test_html_path_equals_gold_text_path(pages_dir):
    """The byte-identical extraction invariant end-to-end: running from
    html (strip stage) and from the gold text column yields identical
    triple sets."""
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages
    from text_to_rdf_ray.sources.fixtures import kb_records

    kwargs = dict(kb_records=kb_records(), canonicalize=False, dedup=False)
    a = build_triples(read_pages(pages_dir), from_html=True, **kwargs).to_pandas()
    b = build_triples(
        read_pages(pages_dir, use_gold_text=True), from_html=False, **kwargs
    ).to_pandas()
    key = ["url", "subj", "pred", "obj"]
    assert sorted(map(tuple, a[key].values.tolist())) == sorted(
        map(tuple, b[key].values.tolist())
    )


def test_lang_pushdown_read_equivalent(pages_dir):
    """Predicate pushdown at the scan == downstream lang filter."""
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages
    from text_to_rdf_ray.sources.fixtures import kb_records

    a = build_triples(read_pages(pages_dir), kb_records=kb_records()).to_pandas()
    b = build_triples(read_pages(pages_dir, lang="en"), kb_records=kb_records(),
                      lang=None).to_pandas()
    key = ["subj", "pred", "obj", "url"]
    assert sorted(map(tuple, a[key].values.tolist())) == sorted(
        map(tuple, b[key].values.tolist())
    )


def test_corpus_clean_partitioned_resume_and_parity(ray_session, tmp_path):
    """The partitioned resumable cleaning job (per-partition filters +
    manifests, global dedup compaction) resumes correctly and its final
    corpus equals the oracle-green corpus_clean_pipeline query (filters
    and exact dedup commute for identical texts)."""
    import pyarrow.parquet as pq

    from text_to_rdf_ray.pipelines.clean import compact_clean, run_clean_partitioned

    # split the sf0.001 documents into 3 input files
    t = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                      columns=["doc_id", "text"])
    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    n = t.num_rows
    for k in range(3):
        pq.write_table(t.slice(k * n // 3, (k + 1) * n // 3 - k * n // 3),
                       str(docs_dir / f"docs-{k}.parquet"))

    out = str(tmp_path / "cleaned")
    rep = run_clean_partitioned(str(docs_dir), out, partitions=3)
    assert rep["ran"] == 3 and rep["skipped"] == 0
    # resume: nothing re-runs
    rep2 = run_clean_partitioned(str(docs_dir), out, partitions=3)
    assert rep2["ran"] == 0 and rep2["skipped"] == 3
    # the same files dealt into 2 groups: partition 0's complete manifest
    # lists another group, so resume refuses it
    with pytest.raises(ValueError, match=r"partition 0 .*input_fragments"):
        run_clean_partitioned(str(docs_dir), out, partitions=2)

    final = str(tmp_path / "final")
    comp = compact_clean(out, final)
    assert comp["rows_out"] <= comp["rows_in"]
    # re-compaction replaces, never appends (the CLI resume path re-compacts)
    comp2 = compact_clean(out, final)
    assert comp2["rows_out"] == comp["rows_out"]

    import ray.data as rd

    got = rd.read_parquet(final).to_pandas().sort_values("doc_id")
    assert len(got) == comp["rows_out"]  # no duplicated files after rerun

    import __ray_entry__ as entry

    expect = entry.queries()["corpus_clean_pipeline"]("/root/testdata/sf0.001")
    assert list(got["doc_id"]) == list(expect["doc_id"])
    assert list(got["n_tokens"]) == list(expect["n_tokens"])


def test_sorted_output_files(pages_dir, tmp_path, monkeypatch):
    """sort_output=True writes each partition's parquet in (subj, pred, obj)
    order — the deterministic-file-ordering contract (SURVEY §2.6) — on
    the range exchange, with Ray's Dataset.sort refused."""
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.pipelines.kg import run_partitioned
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.state import manifest as mf

    def refuse(*args, **kwargs):
        raise AssertionError("a Ray all-to-all sort ran")

    monkeypatch.setattr(rd.Dataset, "sort", refuse)
    out = str(tmp_path / "sorted")
    run_partitioned(pages_dir, out, partitions=1, kb_records=kb_records(),
                    sort_output=True)
    pdir = mf.partition_dir(out, 0)
    files = sorted(f for f in os.listdir(pdir) if f.endswith(".parquet"))
    frames = [pd.read_parquet(os.path.join(pdir, f)) for f in files]
    df = pd.concat(frames, ignore_index=True)
    keys = list(map(tuple, df[["subj", "pred", "obj"]].values.tolist()))
    assert keys == sorted(keys)


def test_drop_invalid_filters_triples():
    """KG_VALIDATION_DROP_INVALID semantics: with a registered Error rule
    that invalidates a triple class, drop_invalid=True removes those rows
    while drop_invalid=False keeps them flagged."""
    import pyarrow as pa

    import ray.data as rd

    from text_to_rdf_ray.functions.registry import (
        ValidationRule,
        add_rule,
        clear_rules,
    )
    from text_to_rdf_ray.pipelines.kg import build_triples
    from text_to_rdf_ray.sources.fixtures import wrap_html

    texts = ["Alan Bean was born on the 15th of March 1932."]
    pages = rd.from_arrow(pa.table({
        "url": ["https://di.test/0"],
        "warc_ts": pa.array([1704067200_000000], pa.timestamp("us")),
        "html": pa.array([wrap_html("t", texts[0])], pa.binary()),
        "lang": ["en"],
    }))
    clear_rules()
    try:
        add_rule(ValidationRule(
            name="ban_person", description="", entity_type="Person",
            check_fn=lambda r: False, confidence_impact=-0.5,
            severity="Error",
        ))
        kept = build_triples(pages, canonicalize=False, dedup=False,
                             link=False).to_pandas()
        assert len(kept) > 0 and not kept["valid"].any()
        dropped = build_triples(pages, canonicalize=False, dedup=False,
                                link=False, drop_invalid=True).to_pandas()
        assert len(dropped) == 0
    finally:
        clear_rules()


def test_subject_lookup_prunes_and_matches_full_scan(pages_dir, tmp_path):
    import glob

    import pandas as pd

    from text_to_rdf_ray.pipelines.kg import run_partitioned, subject_lookup
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.state import counters

    out = str(tmp_path / "graph")
    run_partitioned(pages_dir, out, partitions=2, kb_records=kb_records(),
                    subject_buckets=8)
    files = glob.glob(os.path.join(out, "**", "*.parquet"), recursive=True)
    full = pd.concat([pd.read_parquet(f) for f in files], ignore_index=True)
    subj = full["subj"].value_counts().index[0]

    counters.snapshot(reset=True)
    got = (subject_lookup(out, subj, subject_buckets=8).to_pandas()
           [["subj", "pred", "obj"]]
           .sort_values(["subj", "pred", "obj"]).reset_index(drop=True))
    c = counters.snapshot(reset=True)
    assert c["sublookup_files_read"] < c["sublookup_files_total"]
    exp = (full.loc[full["subj"] == subj, ["subj", "pred", "obj"]]
           .sort_values(["subj", "pred", "obj"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, exp)


def test_incremental_merge_equals_full_rebuild(pages_dir):
    import numpy as np
    import pyarrow as pa

    from text_to_rdf_ray.kernels.minhash import _hash_shingles
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.stages.canonicalize import dedup_triples

    pages = read_pages(pages_dir)

    def split(keep_delta):
        def fn(t: pa.Table) -> pa.Table:
            h = _hash_shingles(t.column("url").to_pylist())
            is_delta = (h % np.uint64(5)) == 0
            return t.filter(pa.array(is_delta if keep_delta
                                     else ~is_delta))
        return fn

    kw = dict(kb_records=kb_records(), canonicalize=False, dedup=False)
    base = build_triples(pages.map_batches(split(False),
                                           batch_format="pyarrow"), **kw)
    delta = build_triples(pages.map_batches(split(True),
                                            batch_format="pyarrow"), **kw)
    merged = (dedup_triples(base.union(delta)).to_pandas()
              [["subj", "pred", "obj"]]
              .sort_values(["subj", "pred", "obj"]).reset_index(drop=True))
    full = (dedup_triples(build_triples(pages, **kw)).to_pandas()
            [["subj", "pred", "obj"]]
            .sort_values(["subj", "pred", "obj"]).reset_index(drop=True))
    assert merged.equals(full)


def _dedup_input():
    """Triples with duplicate (subj, pred, obj) keys spread over several
    urls and spans, so the kept representative (min packed provenance)
    is decided across partitions and salts."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    rng = np.random.RandomState(5)
    n = 3000
    k = rng.randint(0, 400, n)
    url = rng.randint(0, 60, n)
    span = rng.randint(0, 5000, n)
    t = pa.table({
        "url": pa.array([f"https://ex.org/p{u}" for u in url], pa.string()),
        "subj": pa.array([f"S{i % 37}" for i in k], pa.string()),
        "subj_slug": pa.array([f"s{i % 37}" for i in k], pa.string()),
        "subj_lower": pa.array([f"s{i % 37}" for i in k], pa.string()),
        "pred": pa.array([f"p{i % 11}" for i in k], pa.string()),
        "pred_key": pa.array([f"p{i % 11}" for i in k], pa.string()),
        "obj": pa.array([f"o{i}" for i in k], pa.string()),
        "subj_type": pa.array(["Person"] * n, pa.string()),
        "obj_type": pa.array([""] * n, pa.string()),
        "nested_in": pa.array([""] * n, pa.string()),
        "chunk_id": pa.array(rng.randint(0, 3, n), pa.int32()),
        "span_start": pa.array(span, pa.int64()),
        "span_end": pa.array(span + 7, pa.int64()),
        "method": pa.array(rng.choice(["pattern", "kb"], n), pa.string()),
        "subj_uri": pa.array([f"https://kg/{i % 37}" for i in k], pa.string()),
        "subj_link_conf": pa.array(rng.rand(n), pa.float64()),
        "obj_uri": pa.array([None] * n, pa.string()),
        "obj_link_conf": pa.array([0.0] * n, pa.float64()),
        "confidence": pa.array(rng.rand(n), pa.float64()),
        "valid": pa.array(rng.rand(n) > 0.1, pa.bool_()),
    })
    return t, rd.from_arrow(t).repartition(7)


def test_dedup_triples_same_rows_at_every_partition_count(monkeypatch):
    """dedup_triples sizes its exchange to the input; the output rows and
    the provenance kept per key must not depend on the partition count,
    the cap, or the tree-combine exchange."""
    import pandas as pd

    from ray.data import DataContext

    from text_to_rdf_ray.stages import bsp
    from text_to_rdf_ray.stages.canonicalize import (_DEDUP_MAX_PARTS,
                                                     dedup_triples)

    t, ds = _dedup_input()
    df = t.to_pandas()
    keys = ["subj", "pred", "obj"]
    ctx = DataContext.get_current()
    chosen = []
    real_sized_parts = bsp.sized_parts
    monkeypatch.setattr(bsp, "sized_parts", lambda *a: chosen.append(
        real_sized_parts(*a)) or chosen[-1])

    flat = bsp.TREE_COMBINE_THRESHOLD

    def rows(part_bytes, tree_threshold):
        # the exchange sizes P from DataContext.target_min_block_size
        monkeypatch.setattr(ctx, "target_min_block_size", part_bytes)
        monkeypatch.setattr(bsp, "TREE_COMBINE_THRESHOLD", tree_threshold)
        out = dedup_triples(ds).to_pandas()
        return out.sort_values(keys).reset_index(drop=True)

    sized = rows(ctx.target_min_block_size, flat)
    assert len(sized) == len(df.drop_duplicates(keys))
    # reference representative: min (url, chunk, span) per key
    ref = (df.sort_values(["url", "chunk_id", "span_start", "span_end",
                          "method"])
           .drop_duplicates(keys).sort_values(keys).reset_index(drop=True))
    pd.testing.assert_frame_equal(
        sized[keys + ["url", "chunk_id", "span_start", "method"]],
        ref[keys + ["url", "chunk_id", "span_start", "method"]])
    for part_bytes, tree_threshold in ((32 << 10, flat), (1, flat), (1, 0)):
        pd.testing.assert_frame_equal(
            rows(part_bytes, tree_threshold), sized,
            obj=f"P={chosen[-1]} tree threshold={tree_threshold}")
    # default (1 MiB per partition), mid-size, the cap, the cap as a tree
    assert chosen[0] < chosen[1] < _DEDUP_MAX_PARTS, chosen
    assert chosen[2:] == [_DEDUP_MAX_PARTS] * 2, chosen


def test_dedup_triples_null_url_keeps_provenance():
    """A null element in a present string column (url) must not null the
    row's whole packed provenance: span, method and link columns survive."""
    import pyarrow as pa

    import ray.data as rd

    from text_to_rdf_ray.stages.canonicalize import dedup_triples

    t, _ = _dedup_input()
    t = t.slice(0, 1)
    t = t.set_column(t.schema.get_field_index("url"), "url",
                     pa.array([None], pa.string()))
    t = t.set_column(t.schema.get_field_index("nested_in"), "nested_in",
                     pa.array([None], pa.string()))
    got = dedup_triples(rd.from_arrow(t)).to_pandas()
    assert len(got) == 1
    row, src = got.iloc[0], t.to_pylist()[0]
    assert row["url"] == ""
    for c in ("span_start", "span_end", "chunk_id", "method", "subj_uri",
              "subj_link_conf", "confidence", "subj_slug", "pred_key"):
        assert row[c] == src[c], c


def test_dedup_triples_null_numeric_keeps_provenance():
    """A null in a present numeric or bool column (chunk_id, span_*,
    *_conf, confidence, valid) must not null the row's whole packed
    provenance: the null reads back as the absent column's default and
    every other column survives."""
    import pyarrow as pa

    import ray.data as rd

    from text_to_rdf_ray.stages.canonicalize import dedup_triples

    t, _ = _dedup_input()
    src = t.slice(0, 1).to_pylist()[0]
    defaults = {"chunk_id": 0, "span_start": 0, "span_end": 0,
                "subj_link_conf": 0.0, "obj_link_conf": 0.0,
                "confidence": 0.0, "valid": True}
    for name, default in defaults.items():
        one = t.slice(0, 1)
        i = one.schema.get_field_index(name)
        one = one.set_column(i, name, pa.nulls(1, one.schema.field(i).type))
        got = dedup_triples(rd.from_arrow(one)).to_pandas()
        assert len(got) == 1, name
        row = got.iloc[0]
        assert row[name] == default, name
        for c in ("url", "span_end", "chunk_id", "method", "subj_uri",
                  "subj_slug", "pred_key", "confidence", "valid"):
            if c != name:
                assert row[c] == src[c], (name, c)


_SPO = ["subj", "pred", "obj"]


def _hot_key_input():
    """64 blocks of 500 triples: one (subj, pred, obj) in every other row
    of every block, each row with its own (url, chunk, span), and 1,000
    cold keys in the rest."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    rng = np.random.RandomState(11)
    n_blocks, per = 64, 500
    n = n_blocks * per
    hot = np.arange(n) % 2 == 0
    k = np.where(hot, -1, rng.randint(0, 1000, n))
    url = rng.randint(0, 300, n)
    span = rng.permutation(n) * 3
    t = pa.table({
        "url": pa.array([f"https://hot.test/p{u}" for u in url]),
        "subj": pa.array(["Hot" if i < 0 else f"S{i % 41}" for i in k]),
        "subj_slug": pa.array(["hot" if i < 0 else f"s{i % 41}" for i in k]),
        "subj_lower": pa.array(["hot" if i < 0 else f"s{i % 41}" for i in k]),
        "pred": pa.array(["p" if i < 0 else f"p{i % 13}" for i in k]),
        "pred_key": pa.array(["p" if i < 0 else f"p{i % 13}" for i in k]),
        "obj": pa.array(["o" if i < 0 else f"o{i}" for i in k]),
        "subj_type": pa.array(rng.choice(["Person", "Place"], n)),
        "obj_type": pa.array([""] * n),
        "nested_in": pa.array([""] * n),
        "chunk_id": pa.array(rng.randint(0, 4, n), pa.int32()),
        "span_start": pa.array(span, pa.int64()),
        "span_end": pa.array(span + 5, pa.int64()),
        "method": pa.array(rng.choice(["pattern", "kb"], n)),
        "subj_uri": pa.array([f"https://kg/{i}" for i in k]),
        "subj_link_conf": pa.array(rng.rand(n)),
        "obj_uri": pa.array([None] * n, pa.string()),
        "obj_link_conf": pa.array(rng.rand(n)),
        "confidence": pa.array(rng.rand(n)),
        "valid": pa.array(rng.rand(n) > 0.2),
    })
    return t, rd.from_arrow([t.slice(i * per, per) for i in range(n_blocks)])


def test_dedup_triples_hot_key_one_row_at_sized_and_capped_parts(
        monkeypatch, partition_counts):
    """A key in every block of the input reaches the reduce as one row per
    block: at the sized partition count, at the cap and at the cap as a
    tree, it dedups to one row, and every output row (every column) is
    the min-(url, chunk, span) row of its key."""
    import pandas as pd

    from ray.data import DataContext

    from text_to_rdf_ray.stages import bsp
    from text_to_rdf_ray.stages.canonicalize import (_DEDUP_MAX_PARTS,
                                                     dedup_triples)

    t, ds = _hot_key_input()
    ref = (t.to_pandas()
           .sort_values(["url", "chunk_id", "span_start", "span_end"])
           .drop_duplicates(_SPO).sort_values(_SPO).reset_index(drop=True))
    assert len(ref) > 900
    ctx = DataContext.get_current()
    flat = bsp.TREE_COMBINE_THRESHOLD
    for part_bytes, tree_threshold in ((ctx.target_min_block_size, flat),
                                       (1, flat), (1, 0)):
        monkeypatch.setattr(ctx, "target_min_block_size", part_bytes)
        monkeypatch.setattr(bsp, "TREE_COMBINE_THRESHOLD", tree_threshold)
        out = dedup_triples(ds).to_pandas()
        assert ((out["subj"] == "Hot") & (out["pred"] == "p")
                & (out["obj"] == "o")).sum() == 1
        pd.testing.assert_frame_equal(
            out.sort_values(_SPO).reset_index(drop=True), ref[out.columns],
            obj=f"P={partition_counts[-1]} tree threshold={tree_threshold}")
    assert 1 < partition_counts[0] < _DEDUP_MAX_PARTS, partition_counts
    assert partition_counts[1:] == [_DEDUP_MAX_PARTS] * 2, partition_counts


def test_dedup_triples_empty_input_gives_one_typed_block():
    """A zero-row input and a zero-block input each give one empty block,
    typed as a non-empty run's output."""
    import ray
    import ray.data as rd

    from text_to_rdf_ray.stages.bsp import Blocks
    from text_to_rdf_ray.stages.canonicalize import dedup_triples

    t, ds = _dedup_input()
    want = ray.get(dedup_triples.blocks(ds).refs[0]).schema
    for empty in (rd.from_arrow(t.slice(0, 0)), Blocks([], [])):
        out = dedup_triples.blocks(empty)
        assert len(out.refs) == 1
        block = ray.get(out.refs[0])
        assert block.num_rows == 0
        assert block.schema == want


@pytest.mark.parametrize("part_bytes, parts", [(1 << 40, 1), (1, 32)],
                         ids=["P1", "cap"])
def test_dedup_triples_retried_block_function_gives_a_clean_run(
        tmp_path, monkeypatch, partition_counts, part_bytes, parts):
    """A block function that counts its rows and then kills its worker on
    its first call is retried by Ray: the output rows (every column) and
    the counters equal a clean run's, at P=1 (the block function runs in
    the reduce task) and at the cap (in the split tasks)."""
    import pandas as pd

    import ray
    from ray.data import DataContext

    from text_to_rdf_ray.stages.canonicalize import dedup_triples
    from text_to_rdf_ray.state import counters

    marker = tmp_path / "crashed"

    def fn(t):
        counters.incr({"dedup_retry_rows": t.num_rows})
        if not marker.exists():
            marker.touch()
            os._exit(1)
        return t

    t, ds = _dedup_input()
    ds = ds.materialize()
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size",
                        part_bytes)
    runs = []
    for _ in range(2):  # the first run crashes once, the second is clean
        counters.snapshot(reset=True)
        out = dedup_triples.blocks((ds, fn))
        rows = pd.concat([b.to_pandas() for b in ray.get(out.refs)])
        runs.append((rows.sort_values(_SPO).reset_index(drop=True),
                     counters.snapshot(reset=True)))
    assert marker.exists()
    assert partition_counts == [parts] * 2
    pd.testing.assert_frame_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1] == {"dedup_retry_rows": t.num_rows}


@pytest.mark.parametrize("parts, want", [
    (1, {"_reduce_task": 1}),
    (4, {"_map_split_task": 3, "_reduce_task": 4}),
])
def test_dedup_triples_is_one_exchange(monkeypatch, partition_counts, parts,
                                       want):
    """Over a materialized 3-block input, dedup_triples is one exchange:
    one reduce task at P=1; at P=4 a split task per block and a reduce
    task per partition.  The packing runs in those tasks."""
    import collections

    import ray
    import ray.data as rd
    from ray.data import DataContext
    from ray.remote_function import RemoteFunction

    from text_to_rdf_ray.stages.bsp import _source_blocks
    from text_to_rdf_ray.stages.canonicalize import dedup_triples

    t, _ = _dedup_input()
    n = -(-t.num_rows // 3)
    ds = rd.from_arrow([t.slice(i * n, n) for i in range(3)]).materialize()
    blocks, _ = _source_blocks(ds)
    assert len(blocks) == 3
    total = sum(size for _, _, size in blocks)
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size",
                        1 << 40 if parts == 1 else -(-total // parts))
    tasks = collections.Counter()
    real = RemoteFunction._remote

    def counting(self, *args, **kwargs):
        tasks[self._function_name.rsplit(".", 1)[-1]] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(RemoteFunction, "_remote", counting)
    out = dedup_triples.blocks(ds)
    monkeypatch.setattr(RemoteFunction, "_remote", real)
    assert sum(b.num_rows for b in ray.get(out.refs)) == len(
        t.to_pandas().drop_duplicates(_SPO))
    assert partition_counts == [parts]
    assert dict(tasks) == want


def _partition_frames(out: str) -> dict:
    """Each committed partition's rows, sorted, floats rounded."""
    import pandas as pd

    from text_to_rdf_ray.state import manifest as mf

    frames = {}
    for part in mf.completed_partitions(out):
        pdir = mf.partition_dir(out, part)
        df = pd.concat([pd.read_parquet(os.path.join(root, f))
                        for root, _dirs, names in os.walk(pdir)
                        for f in sorted(names) if f.endswith(".parquet")])
        df = df.round({c: 9 for c in df.columns if df[c].dtype == float})
        frames[part] = (df.sort_values(sorted(df.columns))
                        .reset_index(drop=True)[sorted(df.columns)])
    return frames


def test_partitions_equal_build_triples_per_group(pages_dir, tmp_path,
                                                  monkeypatch):
    """With two partitions in flight, each partition's rows equal
    build_triples over its group of files alone; the task-mode linker of
    every partition reads one KB ref, so a worker builds one index."""
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.pipelines.kg import (PAGE_COLUMNS, build_triples,
                                              run_partitioned)
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.stages import kg_stages

    refs = []
    real_task = kg_stages.make_link_task

    def recording(kb_ref, **kw):
        refs.append(kb_ref)
        return real_task(kb_ref, **kw)

    monkeypatch.setattr(kg_stages, "make_link_task", recording)
    out = str(tmp_path / "out")
    rep = run_partitioned(pages_dir, out, partitions=3,
                          kb_records=kb_records())
    assert rep["ran"] == 3
    assert len(refs) == 3 and len({r.hex() for r in refs}) == 1
    got = _partition_frames(out)
    files = sorted(os.path.join(pages_dir, f) for f in os.listdir(pages_dir)
                   if f.endswith(".parquet"))
    assert sorted(got) == [0, 1, 2]
    for part in range(3):
        want = build_triples(rd.read_parquet(files[part::3],
                                             columns=PAGE_COLUMNS),
                             kb_records=kb_records()).to_pandas()
        want = want.round({c: 9 for c in want.columns
                           if want[c].dtype == float})
        want = (want.sort_values(sorted(want.columns))
                .reset_index(drop=True)[sorted(want.columns)])
        pd.testing.assert_frame_equal(got[part], want)


@pytest.mark.parametrize("stage", ["build", "write"])
def test_failed_partition_raises_and_leaves_nothing(pages_dir, tmp_path,
                                                    monkeypatch, stage):
    """A partition that raises, while its triples are built or while it
    is written (both on its partition thread), makes run_partitioned
    raise that error; the failed partition leaves no committed and no
    tmp directory, and no partition thread is alive afterwards."""
    import threading

    from text_to_rdf_ray.pipelines import kg
    from text_to_rdf_ray.state import manifest as mf

    class Boom(RuntimeError):
        pass

    if stage == "build":
        real = kg.build_triples.blocks

        def failing(pages, **kw):
            if any(p.endswith("00001.parquet") for p in pages.input_files()):
                raise Boom("partition 1 failed")
            return real(pages, **kw)

        monkeypatch.setattr(kg.build_triples, "blocks", failing)
    else:
        real = kg._write_partition_files

        def failing(triples, tmp_dir, *a, **kw):
            real(triples, tmp_dir, *a, **kw)
            if os.path.basename(tmp_dir).startswith(".part1-"):
                raise Boom("partition 1 failed")

        monkeypatch.setattr(kg, "_write_partition_files", failing)
    out = str(tmp_path / "out")
    with pytest.raises(Boom, match="partition 1 failed"):
        kg.run_partitioned(pages_dir, out, partitions=3)
    assert 1 not in mf.completed_partitions(out)
    assert not os.path.exists(mf.partition_dir(out, 1))
    left = os.listdir(out) if os.path.isdir(out) else []
    assert not [n for n in left if n.startswith(".part")]
    assert not [t for t in threading.enumerate()
                if t.name.startswith("kg-partition")]


def test_resume_refuses_a_stale_partition(tmp_path):
    """The resume probe: run 2 of the 8 partitioned_at_scale seed-3 files
    with partitions=2, add the other 6 and rerun with resume=True.  Each
    partition's group changed, so resume raises, naming the partition
    and the manifest field, instead of skipping both."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from perfbench import loadgen
    from text_to_rdf_ray.pipelines.kg import run_partitioned
    from text_to_rdf_ray.sources import fixtures

    rows, kb = loadgen.entity_pages(loadgen.SIZES["partitioned_at_scale"], 3)
    table = pa.Table.from_pylist(rows, schema=fixtures.PAGES_SCHEMA)
    step = -(-len(rows) // loadgen.N_FILES)
    pages = tmp_path / "pages"
    pages.mkdir()

    def write(ks):
        for k in ks:
            pq.write_table(table.slice(k * step, step),
                           str(pages / f"pages-{k:05d}.parquet"))

    out = str(tmp_path / "out")
    write(range(2))
    rep = run_partitioned(str(pages), out, partitions=2, kb_records=kb)
    assert rep["ran"] == 2
    write(range(2, loadgen.N_FILES))
    with pytest.raises(ValueError, match=r"partition 0 .*input_fragments"):
        run_partitioned(str(pages), out, partitions=2, kb_records=kb,
                        resume=True)
    # the same files dealt into 4 groups: partition 0 lists other files
    with pytest.raises(ValueError, match=r"partition 0 .*input_fragments"):
        run_partitioned(str(pages), out, partitions=4, kb_records=kb,
                        resume=True)


@pytest.mark.parametrize("field", ["subject_buckets", "hash_version"])
def test_layout_stamp_refuses_another_layout(pages_dir, tmp_path, field):
    """Each partition manifest stamps its layout: the subject bucket count
    and the subject hash's version.  A resume that asks for another
    layout, and a subject_lookup with another bucket count or hash
    version, raise naming the field instead of reading the wrong
    buckets."""
    import json

    from text_to_rdf_ray.pipelines.kg import run_partitioned, subject_lookup
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.stages.exchange import _KEY_HASH_VERSION
    from text_to_rdf_ray.state import manifest as mf

    out = str(tmp_path / "graph")
    run_partitioned(pages_dir, out, partitions=2, kb_records=kb_records(),
                    subject_buckets=8)
    for part in (0, 1):
        m = mf.read_manifest(out, part)
        assert (m["subject_buckets"], m["hash_version"]) == (
            8, _KEY_HASH_VERSION)
    subj = "Alan Bean"
    if field == "subject_buckets":
        buckets, had, want = 4, 8, 4
    else:
        buckets, had, want = 8, _KEY_HASH_VERSION - 1, _KEY_HASH_VERSION
        for part in (0, 1):
            path = os.path.join(mf.partition_dir(out, part), mf.MANIFEST_NAME)
            with open(path) as fh:
                m = json.load(fh)
            m["hash_version"] = had
            with open(path, "w") as fh:
                json.dump(m, fh)
    match = rf"partition \d .*{field}={had}, not {want}"
    with pytest.raises(ValueError, match=match):
        run_partitioned(pages_dir, out, partitions=2, kb_records=kb_records(),
                        subject_buckets=buckets)
    with pytest.raises(ValueError, match=match):
        subject_lookup(out, subj, subject_buckets=buckets)


def test_partition_tail_starts_no_ray_data_execution(pages_dir, tmp_path,
                                                      executions):
    """After linking nothing starts a Ray Data execution: a warm
    run_partitioned pass in join mode with the distributed canonicalize,
    N-Triples and subject buckets starts one per partition (its
    extraction chain), and a task-mode build_triples one; pipelines/kg.py
    writes with no Ray Data sink, and no Datasink subclass is left in the
    package."""
    import glob
    import re

    from text_to_rdf_ray.pipelines.kg import (build_triples, read_pages,
                                              run_partitioned)
    from text_to_rdf_ray.sources.fixtures import kb_records

    kw = dict(partitions=2, kb_records=kb_records(), ntriples=True,
              subject_buckets=8, link_mode="join",
              canonicalize_local_threshold=0, resume=False)
    out = str(tmp_path / "out")
    run_partitioned(pages_dir, out, **kw)
    executions[0] = 0
    assert run_partitioned(pages_dir, out, **kw)["ran"] == 2
    assert executions[0] == 2
    executions[0] = 0
    build_triples(read_pages(pages_dir), kb_records=kb_records()).materialize()
    assert executions[0] == 1
    pkg = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "text_to_rdf_ray")
    with open(os.path.join(pkg, "pipelines", "kg.py")) as fh:
        src = fh.read()
    for banned in ("rd.Datasink", "write_datasink(", "write_parquet("):
        assert banned not in src, banned
    for path in glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True):
        with open(path) as fh:
            assert not re.search(r"class \w+\([\w.]*Datasink\)", fh.read()), path


def test_partition_tail_builds_no_dataset(pages_dir, tmp_path, monkeypatch):
    """The steps after the extraction chain hand block refs to each other
    with no Dataset around them: a warm run_partitioned pass in join mode
    with the distributed canonicalize, N-Triples and subject buckets
    builds no Dataset from stages/bsp.py, exchange.py, canonicalize.py
    or dedup.py, and calls materialize() only on each partition's
    extraction chain (the Datasets a materialize() builds are its own)."""
    import threading
    import traceback

    from ray.data import Dataset

    from text_to_rdf_ray.pipelines.kg import run_partitioned
    from text_to_rdf_ray.sources.fixtures import kb_records

    kw = dict(partitions=2, kb_records=kb_records(), ntriples=True,
              subject_buckets=8, link_mode="join",
              canonicalize_local_threshold=0, resume=False)
    out = str(tmp_path / "out")
    run_partitioned(pages_dir, out, **kw)
    pkg = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "text_to_rdf_ray") + os.sep
    built, materialized = [], []
    inside = threading.local()
    real_init, real_materialize = Dataset.__init__, Dataset.materialize

    def init(self, *args, **kwargs):
        if not getattr(inside, "depth", 0):
            sites = [f.filename for f in traceback.extract_stack()
                     if f.filename.startswith(pkg)]
            built.append(os.path.relpath(sites[-1], pkg) if sites else "")
        real_init(self, *args, **kwargs)

    def materialize(self):
        materialized.append(self._logical_plan.dag.name)
        inside.depth = getattr(inside, "depth", 0) + 1
        try:
            return real_materialize(self)
        finally:
            inside.depth -= 1

    monkeypatch.setattr(Dataset, "__init__", init)
    monkeypatch.setattr(Dataset, "materialize", materialize)
    assert run_partitioned(pages_dir, out, **kw)["ran"] == 2
    tail = tuple(os.path.join("stages", f"{m}.py")
                 for m in ("bsp", "exchange", "canonicalize", "dedup"))
    assert [site for site in built if site.startswith(tail)] == []
    assert materialized == ["MapBatches(extract_triples)"] * 2


def test_build_triples_same_rows_from_one_block_or_many(pages_dir,
                                                        monkeypatch):
    """A join-mode, distributed-canonicalize build_triples gives the same
    triples (every column, provenance included) and _triple_counters
    whether its pages arrive as one block, extracted at the default
    batch size, or as one block per ten pages extracted one page per
    batch into blocks of at most 4 KiB (Ray's target_max_block_size),
    and again with every exchange at its partition cap (one partition
    per byte), so the steps after linking see many blocks too."""
    import glob

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from text_to_rdf_ray.pipelines.kg import (PAGE_COLUMNS, _triple_counters,
                                              build_triples)
    from text_to_rdf_ray.sources.fixtures import kb_records

    pages = pa.concat_tables(
        pq.read_table(f, columns=PAGE_COLUMNS)
        for f in sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))))

    def run(src, **kw):
        extracted = build_triples(src, link=False, canonicalize=False,
                                  validate=False, dedup=False,
                                  **kw).materialize()
        out = build_triples(src, kb_records=kb_records(), link_mode="join",
                            canonicalize_local_threshold=0, **kw)
        df = (out.to_pandas().sort_values(["subj", "pred", "obj"])
              .reset_index(drop=True))
        return extracted.num_blocks(), df, _triple_counters(out)

    one_blocks, one, one_counts = run(rd.from_arrow(pages))
    monkeypatch.setattr(rd.DataContext.get_current(), "target_max_block_size",
                        4096)
    many_src = rd.from_arrow(
        [pages.slice(i, 10) for i in range(0, len(pages), 10)])
    many_blocks, many, many_counts = run(many_src, extract_batch_size=1)
    assert one_blocks == 1 and many_blocks > 10
    assert len(one) and one["url"].notna().all()
    pd.testing.assert_frame_equal(one, many)
    assert one_counts == many_counts
    monkeypatch.setattr(rd.DataContext.get_current(), "target_min_block_size",
                        1)
    _, capped, capped_counts = run(many_src, extract_batch_size=1)
    pd.testing.assert_frame_equal(one, capped)
    assert one_counts == capped_counts


def _files(root: str) -> dict:
    out = {}
    for dirpath, _dirs, names in os.walk(root):
        for n in names:
            with open(os.path.join(dirpath, n), "rb") as fh:
                out[os.path.relpath(os.path.join(dirpath, n), root)] = fh.read()
    return out


def test_sink_task_rerun_rewrites_the_same_files(pages_dir, tmp_path):
    """A retried sink task (the same block into the same directory) writes
    the same file names with the same bytes and leaves no tmp file."""
    import ray

    from text_to_rdf_ray.pipelines import kg
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.stages.bsp import _source_blocks

    triples = kg.build_triples(kg.read_pages(pages_dir),
                               kb_records=kb_records())
    (ref, rows, _), *_ = _source_blocks(triples)[0]
    out = str(tmp_path / "part")
    runs = []
    for _ in range(2):
        n, counts = ray.get(kg._sink_task.remote(
            ref, 3, out, 8, os.path.join(out, "ntriples")))
        assert n == rows and counts
        runs.append(_files(out))
    assert runs[0] == runs[1]
    names = sorted(runs[0])
    assert len(names) > 2 and not [n for n in names if ".tmp" in n]
    assert all(os.path.basename(n).startswith("part-00003-") for n in names)


def test_sink_matches_ray_writers(pages_dir, tmp_path):
    """A partition written by the sink tasks holds what Ray's bucketed
    write_parquet plus the rendered N-Triples lines hold: the same rows
    with the same types, the subj_bucket column restored from the hive
    directories, and the same sorted lines."""
    import numpy as np
    import pyarrow as pa
    import ray

    from perfbench import checks
    from text_to_rdf_ray.kernels.jsonld import render_ntriples
    from text_to_rdf_ray.kernels.minhash import _hash_shingles
    from text_to_rdf_ray.pipelines import kg
    from text_to_rdf_ray.sources.fixtures import kb_records

    triples = kg.build_triples(kg.read_pages(pages_dir),
                               kb_records=kb_records()).materialize()
    got = str(tmp_path / "sink")
    os.makedirs(got)
    kg._write_partition_files(triples, got, sort_output=False,
                              subject_buckets=8, ntriples=True)

    def add_bucket(t: pa.Table) -> pa.Table:
        h = _hash_shingles(t.column("subj").to_pylist()) % np.uint64(8)
        return t.append_column("subj_bucket", pa.array(h.astype(np.int32)))

    want = str(tmp_path / "ray")
    triples.map_batches(add_bucket, batch_format="pyarrow").write_parquet(
        want, partition_cols=["subj_bucket"])
    t = pa.concat_tables(ray.get(triples.to_arrow_refs()))
    os.makedirs(os.path.join(want, "ntriples"))
    with open(os.path.join(want, "ntriples", "all.nt"), "w") as fh:
        cols = [t.column(c).to_pylist()
                for c in ("subj", "pred", "obj", "obj_type")]
        fh.writelines(render_ntriples(s, p, o, bool(ot)) + "\n"
                      for s, p, o, ot in zip(*cols))
    got_rows, got_lines = checks.partition_content(got)
    want_rows, want_lines = checks.partition_content(want)
    assert got_rows.schema == want_rows.schema
    assert got_rows.equals(want_rows)
    assert got_lines == want_lines and len(got_lines) == t.num_rows


def test_manifest_counters_equal_triple_counters(pages_dir, tmp_path):
    """The counters the sink tasks return, summed into the manifest, equal
    _triple_counters over the partition's written triples."""
    import glob

    import ray.data as rd

    from text_to_rdf_ray.pipelines.kg import _triple_counters, run_partitioned
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.state import manifest as mf

    out = str(tmp_path / "out")
    run_partitioned(pages_dir, out, partitions=1, kb_records=kb_records(),
                    subject_buckets=8, ntriples=True)
    m = mf.read_manifest(out, 0)
    files = glob.glob(os.path.join(mf.partition_dir(out, 0), "subj_bucket=*",
                                   "*.parquet"))
    written = rd.read_parquet(files).materialize()
    assert m["rows"] == written.count() > 0
    assert m["counters"] == {"docs_in": N_PAGES, "triples_out": m["rows"],
                             **_triple_counters(written)}


@pytest.mark.parametrize("ntriples", [True, False])
def test_partition_of_zero_triples(pages_dir, tmp_path, ntriples):
    """A partition with no triples commits its manifest, an empty
    ntriples/ directory when N-Triples are on, and no Parquet file."""
    from text_to_rdf_ray.pipelines.kg import run_partitioned
    from text_to_rdf_ray.state import manifest as mf

    out = str(tmp_path / "out")
    run_partitioned(pages_dir, out, partitions=1, lang="zz",
                    subject_buckets=8, ntriples=ntriples)
    pdir = mf.partition_dir(out, 0)
    tree = {os.path.relpath(d, pdir): sorted(names)
            for d, _dirs, names in os.walk(pdir)}
    assert tree == ({".": [mf.MANIFEST_NAME], "ntriples": []} if ntriples
                    else {".": [mf.MANIFEST_NAME]})
    m = mf.read_manifest(out, 0)
    assert m["rows"] == 0
    assert m["counters"] == {"docs_in": N_PAGES, "triples_out": 0}


_PARTITIONED_ONE_CPU = """
import sys

import ray

from text_to_rdf_ray.pipelines.kg import run_partitioned
from text_to_rdf_ray.sources.fixtures import kb_records

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
rep = run_partitioned(sys.argv[1], sys.argv[2], partitions=3,
                      kb_records=kb_records(), link_mode="join",
                      canonicalize_local_threshold=0)
assert rep["ran"] == 3, rep
ray.shutdown()
# the run left the process's import state alone
assert sys.modules.get("fsspec.implementations.http", 0) is not None
print("OK")
"""


def test_partitioned_join_run_at_one_cpu_in_a_fresh_process(pages_dir,
                                                            tmp_path):
    """run_partitioned(partitions=3, link_mode="join",
    canonicalize_local_threshold=0) in a fresh interpreter with one
    logical CPU, Ray Data first used inside the call (two partition
    threads start at once), finishes and writes the rows of the same
    run in this session.  Killed with its Ray processes if it has not
    finished."""
    import signal
    import subprocess
    import sys

    from text_to_rdf_ray.pipelines.kg import run_partitioned
    from text_to_rdf_ray.sources.fixtures import kb_records

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sub = str(tmp_path / "sub")
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.Popen(
        [sys.executable, "-c", _PARTITIONED_ONE_CPU, pages_dir, sub],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        so, se = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the one-CPU partitioned run did not finish in 300 s")
    assert proc.returncode == 0, se[-3000:]
    assert so.strip().splitlines()[-1] == "OK"
    here = str(tmp_path / "here")
    run_partitioned(pages_dir, here, partitions=3, kb_records=kb_records(),
                    link_mode="join", canonicalize_local_threshold=0)
    got, want = _partition_frames(sub), _partition_frames(here)
    assert sorted(got) == sorted(want) == [0, 1, 2]
    import pandas as pd

    for part in want:
        pd.testing.assert_frame_equal(got[part], want[part])


def test_partitioned_join_run_starts_no_counter_actor(pages_dir, tmp_path):
    """Counters travel with the data: a driver increment and a join-mode
    run_partitioned with the distributed canonicalize leave no named
    counter actor in any namespace."""
    import ray

    from text_to_rdf_ray.pipelines.kg import run_partitioned
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.state import counters

    counters.snapshot(reset=True)
    counters.incr({"before_run": 1})
    run_partitioned(pages_dir, str(tmp_path / "out"), partitions=2,
                    kb_records=kb_records(), link_mode="join",
                    canonicalize_local_threshold=0)
    assert counters.snapshot(reset=True).get("before_run") == 1
    names = [a["name"] for a in ray.util.list_named_actors(all_namespaces=True)]
    assert "graft_op_counters" not in names
