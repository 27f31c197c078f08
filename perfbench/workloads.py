"""Timed and traced runs of one workload against the public
``text_to_rdf_ray`` API."""

from __future__ import annotations

import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from text_to_rdf_ray.pipelines.kg import build_triples, read_pages, run_partitioned
from text_to_rdf_ray.state import counters
from text_to_rdf_ray.state import manifest as mf

from . import checks, hostinfo, kernel_pass, loadgen, stages
from .tracing import Tracer, self_times

#: Ray set-ups per timed run; setup_s is their median
SETUPS = 2
SUBJECT_BUCKETS = 8
#: partitioned_at_scale's build settings: the KG_LINK_MODE /
#: KG_CANONICALIZE_LOCAL_THRESHOLD values a run too large for driver memory
#: takes, so linking and canonicalization go through shuffle joins
PARTITIONED_BUILD = {"link_mode": "join", "canonicalize_local_threshold": 0}
#: the traced stage self times must cover this share of the traced wall time
MIN_STAGE_SHARE = 0.9
#: state.counters operator counters reported by the traced run
COUNTERS = ("linkjoin_fuzzy_candidates", "canon_candidates", "canon_skipped_rows",
            "cc_rounds")
WARMUP_PAGES = 64
#: longest Ray temp dir path that keeps Ray's socket paths within AF_UNIX limits
MAX_RAY_TEMP_DIR = 40
STAGES = ("read", "stage.lang_strip", "stage.extract", "stage.link", "stage.canon",
          "stage.validate", "stage.dedup", "stage.write")


class RayHost:
    """Starts and stops a local Ray instance and waits for its processes."""

    def __init__(self, root: str, num_cpus: int) -> None:
        self.num_cpus = num_cpus
        temp = os.path.join(root, ".perfbench_ray")
        self.temp_dir = temp if len(temp) <= MAX_RAY_TEMP_DIR else None
        if self.temp_dir:
            # keep only this run's Ray session logs
            shutil.rmtree(self.temp_dir, ignore_errors=True)
        # workers import the package from the checkout
        path = os.environ.get("PYTHONPATH", "")
        os.environ["PYTHONPATH"] = root + (os.pathsep + path if path else "")

    def start(self) -> None:
        kwargs = {"_temp_dir": self.temp_dir} if self.temp_dir else {}
        ray.init(address="local", num_cpus=self.num_cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 * 1024 * 1024, **kwargs)
        rd.DataContext.get_current().enable_progress_bars = False

    def stop(self) -> list[int]:
        """Shut Ray down; returns the pids that had to be killed."""
        if not ray.is_initialized():
            return []
        pids = hostinfo.descendants(os.getpid())
        ray.shutdown()
        return hostinfo.wait_gone(pids)


class Workload:
    """One benchmark invocation: a corpus, a Ray host and the output checks."""

    def __init__(self, corpus: loadgen.Corpus, host: RayHost, out_root: str,
                 recorded: str | None, tracer: Tracer) -> None:
        self.corpus = corpus
        self.host = host
        self.out_root = out_root
        self.recorded = recorded
        self.tracer = tracer
        self.partitioned = corpus.workload == "partitioned_at_scale"
        self.counters: dict = {}
        self.fresh_dir = os.path.join(out_root, "partitioned")

    # -- output checks ------------------------------------------------------

    def check(self, table: pa.Table, what: str) -> str:
        got = checks.table_hash(table)
        checks.check_hash(got, self.corpus.expected_hash, f"{what} vs in-process reference")
        if self.recorded is not None:
            checks.check_hash(got, self.recorded, f"{what} vs recorded")
        if self.corpus.gold:
            checks.check_gold(table, self.corpus.gold)
        return got

    def partition_table(self, out_dir: str) -> pa.Table:
        return pa.concat_tables(
            [checks.partition_content(mf.partition_dir(out_dir, p))[0]
             for p in range(loadgen.PARTITIONS)], promote_options="default")

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> float:
        """ray.init plus a warm-up pass over the first ``WARMUP_PAGES`` pages:
        starts workers, imports the package and puts the KB in the object
        store."""
        t0 = time.perf_counter()
        with self.tracer.span("setup"):
            self.host.start()
            pages = read_pages(self.corpus.files()[0]).limit(WARMUP_PAGES)
            build_triples(pages, kb_records=self.corpus.kb_records).materialize()
        return time.perf_counter() - t0

    # -- timed units ----------------------------------------------------------

    def run_build(self) -> tuple[float, float, pa.Table]:
        """build_triples from Dataset construction to the last row
        materialized; also returns the time until the rows reached the
        caller, the in-memory job's sink."""
        with self.tracer.span("job"):
            t0 = time.perf_counter()
            out = build_triples(read_pages(self.corpus.pages_dir),
                                kb_records=self.corpus.kb_records).materialize()
            dt = time.perf_counter() - t0
            table = stages.fetch(out)
        return dt, time.perf_counter() - t0, table

    def run_fresh(self, out_dir: str) -> float:
        shutil.rmtree(out_dir, ignore_errors=True)
        with self.tracer.span("job"):
            t0 = time.perf_counter()
            run_partitioned(self.corpus.pages_dir, out_dir, kb_records=self.corpus.kb_records,
                            partitions=loadgen.PARTITIONS, ntriples=True,
                            subject_buckets=SUBJECT_BUCKETS, resume=False,
                            **PARTITIONED_BUILD)
            return time.perf_counter() - t0

    def kill_and_resume(self, out_dir: str, part: int) -> tuple[float, dict]:
        """Delete one committed partition, time run_partitioned(resume=True)
        and check the partition comes back bit-equal."""
        before = checks.partition_content(mf.partition_dir(out_dir, part))
        shutil.rmtree(mf.partition_dir(out_dir, part))
        with self.tracer.span("resume"):
            t0 = time.perf_counter()
            report = run_partitioned(self.corpus.pages_dir, out_dir,
                                     kb_records=self.corpus.kb_records,
                                     partitions=loadgen.PARTITIONS, ntriples=True,
                                     subject_buckets=SUBJECT_BUCKETS, resume=True,
                                     **PARTITIONED_BUILD)
            dt = time.perf_counter() - t0
        with self.tracer.span("check"):
            if (report["skipped"], report["ran"]) != (loadgen.PARTITIONS - 1, 1):
                raise checks.CheckFailed(f"resume skipped {report['skipped']} and ran "
                                         f"{report['ran']} partitions")
            checks.check_partition_equal(
                before, checks.partition_content(mf.partition_dir(out_dir, part)), part)
        return dt, report

    def timed_pass(self) -> dict:
        """One timed unit with its output checks: build_triples, or a fresh
        run_partitioned."""
        steal0 = hostinfo.steal_s()
        out = {}
        if self.partitioned:
            out["seconds"] = self.run_fresh(self.fresh_dir)
            with self.tracer.span("check"):
                self.check(self.partition_table(self.fresh_dir), "fresh run")
        else:
            out["seconds"], _, table = self.run_build()
            with self.tracer.span("check"):
                self.check(table, "build_triples")
        out["docs_per_s"] = self.corpus.n_pages / out["seconds"]
        out["steal_s"] = hostinfo.steal_s() - steal0
        return out

    # -- traced run -----------------------------------------------------------

    def traced(self) -> dict:
        """The stage-by-stage traced run next to an untraced run of the same
        work, then the kernel pass; returns the per-layer metrics.

        web_pages runs build_triples untraced first.  partitioned_at_scale
        runs the traced job first, then deletes one of its partitions and
        lets run_partitioned(resume=True) rebuild it untraced: the rebuilt
        partition must be bit-equal to the traced one, and the overhead is
        taken on that partition.  A second untraced fresh run would not fit
        a run's time limit."""
        m: dict = {}
        counters.snapshot(reset=True)
        want = None
        if not self.partitioned:
            _, untraced_s, table = self.run_build()
            with self.tracer.span("check"):
                want = self.check(table, "untraced run")
            self.counters["untraced"] = counters.snapshot(reset=True)
        first = len(self.tracer.spans)
        traced_dir = os.path.join(self.out_root, "traced")
        shutil.rmtree(traced_dir, ignore_errors=True)
        with self.tracer.span("trace"):
            if self.partitioned:
                counts = stages.traced_partitioned(
                    self.tracer, self.corpus.files(), traced_dir, self.corpus.kb_records,
                    partitions=loadgen.PARTITIONS, subject_buckets=SUBJECT_BUCKETS,
                    **PARTITIONED_BUILD)
            else:
                out, counts = stages.traced_build(
                    self.tracer, lambda: read_pages(self.corpus.pages_dir),
                    self.corpus.kb_records)
                # the in-memory job's sink: the rows reach the caller
                with self.tracer.span("stage.write"):
                    table = stages.fetch(out)
        snap = self.counters["traced"] = counters.snapshot(reset=True)
        spans = self.tracer.spans[first:]
        with self.tracer.span("check"):
            if self.partitioned:
                table = self.partition_table(traced_dir)
            got = self.check(table, "traced run")
            if want is not None and got != want:
                raise checks.CheckFailed("traced output differs from the untraced output")
        own = self_times(spans)
        wall = next(s.end - s.start for s in spans if s.name == "trace")
        for name in STAGES:
            m[f"{name}.s"] = own.get(name, 0.0)
        m["trace.stage_share"] = sum(m[f"{name}.s"] for name in STAGES) / wall
        if m["trace.stage_share"] < MIN_STAGE_SHARE:
            raise checks.CheckFailed(f"stage self times cover {m['trace.stage_share']:.3f} of "
                                     f"the traced wall time, below {MIN_STAGE_SHARE}")
        m["read.rows"] = counts["read.rows"]
        for key in ("stage.lang_strip.rows_out", "stage.extract.triples_out",
                    "stage.canon.surfaces", "stage.canon.merged",
                    "stage.dedup.rows_in", "stage.dedup.rows_out"):
            m[key] = counts[key]
        # share of output triples whose subject linked to a KB entity
        m["stage.link.linked_ratio"] = (
            pc.sum(pc.is_valid(table.column("subj_uri"))).as_py() / table.num_rows)
        m["trace.wall_s"] = wall
        for name in COUNTERS:
            m[f"counters.{name}"] = snap.get(name, 0)
        if self.partitioned:
            # the last partition: traced after the first has warmed the
            # workers, like the resume that rebuilds it
            part = loadgen.PARTITIONS - 1
            m["state.resume.s"], report = self.kill_and_resume(traced_dir, part)
            self.counters["untraced"] = counters.snapshot(reset=True)
            traced_part = next(s.end - s.start for s in spans
                               if s.name == "partition" and s.attrs["part"] == part)
            m["trace.overhead_s"] = traced_part - m["state.resume.s"]
            m["state.resume.partitions_skipped"] = report["skipped"]
            m["state.resume.partitions_ran"] = report["ran"]
        else:
            m["trace.overhead_s"] = wall - untraced_s
            m["state.resume.s"] = 0.0
            m["state.resume.partitions_skipped"] = 0
            m["state.resume.partitions_ran"] = 0
        m.update(kernel_pass.run(self.tracer, self.sample(), self.corpus.kb_records))
        return m

    def sample(self) -> list[bytes]:
        """HTML of the first ``kernel_pass.SAMPLE_DOCS`` ``en`` pages."""
        out: list[bytes] = []
        for path in self.corpus.files():
            t = pq.read_table(path, columns=["html", "lang"], use_threads=False)
            out.extend(t.filter(pc.equal(t.column("lang"), "en")).column("html").to_pylist())
            if len(out) >= kernel_pass.SAMPLE_DOCS:
                break
        return out[:kernel_pass.SAMPLE_DOCS]
