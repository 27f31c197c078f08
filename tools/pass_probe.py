"""Per-pass probe of one perfbench workload: where a pass's time, Ray Data
executions and raw tasks go.

    python tools/pass_probe.py --workload partitioned_at_scale --seed 3 \\
        --passes 7 --num-cpus 1

Starts Ray itself with ``--num-cpus`` logical CPUs (a ``ray.init``
argument; no machine setting changes) and, with
``--partitions-in-flight N``, sets ``kg.PARTITIONS_IN_FLIGHT`` to N for
the run; it runs perfbench's set-up (the
warm-up pass) and then ``--passes`` timed units of the workload, each
checked as perfbench checks it.  ``perfbench`` is used read-only: its
``loadgen`` corpus (cached under ``.perfbench_cache``) and its
``Workload`` timed unit.

For every pass it prints one JSON line:

* ``seconds``: the pass's wall time (``first`` marks the first pass of
  the process, which pays the first-use costs);
* ``executions``: Ray Data executor runs (``StreamingExecutor.execute``)
  by the innermost ``text_to_rdf_ray`` call site that started them;
* ``datasets``: Ray ``Dataset`` objects built (``Dataset.__init__``) by
  the innermost ``text_to_rdf_ray`` call site, and ``materialize_calls``
  (``Dataset.materialize``) by the same key;
* ``tasks``: raw Ray task submissions by function name;
* ``exchanges``: each raw-task exchange's first phase
  (``bsp._partition``) as ``[P, input bytes]`` (the source blocks'
  bytes, before their block functions), by the innermost call site
  outside ``stages/bsp.py`` and ``stages/exchange.py``.  Only the
  exchanges run from the driver are recorded: a tail run as one raw
  task (``bsp.run_in_task``) runs its exchanges in a worker;
* ``driver_cpu_s``: this process's CPU time (``time.process_time``);
* ``ray_cpu_s``: the CPU (utime + stime from ``/proc/<pid>/stat``) the
  Ray processes (this process's descendants) used during the pass, by
  process title; a process that ended during the pass is not counted;
* ``ray_started``: the Ray processes that started during the pass, or
  took a new title (an idle worker turned into an actor), as
  ``[title, VmHWM MB]``;
* ``steal_s``: host CPU steal during the pass;
* ``phases``: ``[function, thread, start, end]`` of the pipeline calls
  named in ``PHASES``, in seconds from the pass start.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import os
import shutil
import sys
import tempfile
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "text_to_rdf_ray") + os.sep

#: (module, function) pairs timed into a pass's ``phases``; ``op.blocks``
#: names the unwrapped operator the pipeline chains (``exchange.dataset_api``)
PHASES = (("text_to_rdf_ray.pipelines.kg", "build_triples.blocks"),
          ("text_to_rdf_ray.pipelines.kg", "_Tail.blocks"),
          ("text_to_rdf_ray.pipelines.kg", "_Tail.write"),
          ("text_to_rdf_ray.pipelines.kg", "dedup_triples.blocks"),
          ("text_to_rdf_ray.pipelines.kg", "_write_partition_files"),
          ("text_to_rdf_ray.state.manifest", "write_partition"))


class _Host:
    """perfbench's Ray start (``workloads.RayHost``) at a chosen CPU count,
    with Ray's default temp dir."""

    def __init__(self, num_cpus: int) -> None:
        self.num_cpus = num_cpus

    def start(self) -> None:
        import ray
        import ray.data as rd

        ray.init(address="local", num_cpus=self.num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, object_store_memory=512 * 1024 * 1024)
        rd.DataContext.get_current().enable_progress_bars = False


def _site(skip: tuple = ()) -> str:
    """The innermost ``text_to_rdf_ray`` frame of the caller's stack,
    outside the package files ``skip``, as ``path:line``."""
    frames = [f for f in traceback.extract_stack()
              if f.filename.startswith(PKG)
              and os.path.relpath(f.filename, PKG) not in skip]
    return (f"{os.path.relpath(frames[-1].filename, PKG)}:{frames[-1].lineno}"
            if frames else "<outside>")


def _ray_procs() -> dict[int, tuple[str, int, float]]:
    """{pid: (title, starttime, CPU seconds)} of this process's live
    descendants (the Ray processes it started)."""
    from perfbench import hostinfo

    tck = os.sysconf("SC_CLK_TCK")
    out = {}
    for pid, start in hostinfo.descendants(os.getpid()).items():
        try:
            with open(f"/proc/{pid}/stat") as fh:
                stat = fh.read()
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
        except OSError:  # ended between listing and reading
            continue
        rest = stat[stat.rindex(")") + 2:].split()
        words = b" ".join(argv).decode(errors="replace").split()
        # a Python helper is named by its script, a Ray worker by the
        # title Ray gives it (ray::IDLE, ray::<actor class>)
        if len(words) > 1 and os.path.basename(words[0]).startswith("python"):
            words = [w for w in words[1:] if not w.startswith("-")]
        title = (os.path.basename(words[0]) if words
                 else stat[stat.index("(") + 1:stat.rindex(")")])
        out[pid] = (title, start, (int(rest[11]) + int(rest[12])) / tck)
    return out


def _vmhwm_mb(pid: int) -> float:
    from perfbench import hostinfo

    try:
        with open(f"/proc/{pid}/status") as fh:
            return hostinfo.parse_status_kb(fh.read(), "VmHWM") / 1024.0
    except OSError:
        return 0.0


def _ray_delta(before: dict, after: dict) -> tuple[dict, list]:
    """The Ray processes' CPU during a pass, summed by title, and the
    processes that started during it, or took a new title (an idle
    worker turned into an actor), with their VmHWM."""
    cpu: collections.Counter = collections.Counter()
    started = []
    for pid, (title, start, sec) in after.items():
        old = before.get(pid)
        if old is None or old[1] != start:
            old = (None, start, 0.0)
        if old[0] != title:
            started.append([title, round(_vmhwm_mb(pid), 1)])
        cpu[title] += sec - old[2]
    return ({k: round(v, 3) for k, v in sorted(cpu.items()) if v > 0},
            sorted(started))


#: the exchange engine's own files, skipped when naming an exchange's
#: call site
_EXCHANGE_FILES = (os.path.join("stages", "bsp.py"),
                   os.path.join("stages", "exchange.py"))


class _Recorder:
    """Counts executions, Dataset constructions, ``materialize()`` calls
    and task submissions, records each exchange's P and input bytes and
    times ``PHASES`` while installed; ``take()`` returns and clears what
    one pass recorded."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.t0 = time.perf_counter()
        self.executions: collections.Counter = collections.Counter()
        self.datasets: collections.Counter = collections.Counter()
        self.materialize_calls: collections.Counter = collections.Counter()
        self.tasks: collections.Counter = collections.Counter()
        self.exchanges: collections.defaultdict = collections.defaultdict(list)
        self.phases: list = []

    def install(self) -> None:
        import importlib

        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )
        from ray.data import Dataset
        from ray.remote_function import RemoteFunction

        rec = self
        execute, remote = StreamingExecutor.execute, RemoteFunction._remote
        init, materialize = Dataset.__init__, Dataset.materialize

        def counting(counter: collections.Counter, fn):
            def wrapper(self, *args, **kwargs):
                site = _site()
                with rec.lock:
                    counter[site] += 1
                return fn(self, *args, **kwargs)
            return wrapper

        Dataset.__init__ = counting(self.datasets, init)
        Dataset.materialize = counting(self.materialize_calls, materialize)
        counting_execute = counting(self.executions, execute)

        def counting_remote(self, *args, **kwargs):
            with rec.lock:
                rec.tasks[self._function_name.rsplit(".", 1)[-1]] += 1
            return remote(self, *args, **kwargs)

        StreamingExecutor.execute = counting_execute
        RemoteFunction._remote = counting_remote
        self._wrap_partition()
        for mod_name, path in PHASES:
            *owners, name = path.split(".")
            obj = importlib.import_module(mod_name)
            for owner in owners:
                obj = getattr(obj, owner)
            if hasattr(obj, name):
                setattr(obj, name, self._timed(path, getattr(obj, name)))

    def _wrap_partition(self) -> None:
        """Record ``[P, input bytes]`` per ``bsp._partition`` call: P is
        its partition count, the bytes the sizes its ``_walk_sources``
        call read (same thread) from the source blocks' metadata."""
        from text_to_rdf_ray.stages import bsp

        rec, local = self, threading.local()
        walk, partition = bsp._walk_sources, bsp._partition

        def recording_walk(*args, **kwargs):
            out = walk(*args, **kwargs)
            local.sizes = out[2]
            return out

        def recording_partition(*args, **kwargs):
            local.sizes = []
            out = partition(*args, **kwargs)
            nbytes = sum(size or 0 for size in local.sizes)
            with rec.lock:
                rec.exchanges[_site(_EXCHANGE_FILES)].append(
                    [len(out[0]), nbytes])
            return out

        bsp._walk_sources = recording_walk
        bsp._partition = recording_partition

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                with self.lock:
                    self.phases.append(
                        [name, threading.current_thread().name,
                         round(start - self.t0, 3),
                         round(time.perf_counter() - self.t0, 3)])
        return timed

    def take(self) -> dict:
        with self.lock:
            out = {"executions": dict(sorted(self.executions.items())),
                   "datasets": dict(sorted(self.datasets.items())),
                   "materialize_calls": dict(sorted(
                       self.materialize_calls.items())),
                   "tasks": dict(sorted(self.tasks.items())),
                   "exchanges": dict(sorted(self.exchanges.items())),
                   "phases": sorted(self.phases, key=lambda p: p[2])}
            for counter in (self.executions, self.datasets,
                            self.materialize_calls, self.tasks,
                            self.exchanges):
                counter.clear()
            self.phases = []
            self.t0 = time.perf_counter()
        return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=7)
    ap.add_argument("--num-cpus", type=int, default=1)
    ap.add_argument("--partitions-in-flight", type=int, default=None)
    args = ap.parse_args(argv)
    sys.path.insert(0, ROOT)
    # Ray workers import the package from this checkout
    path = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + path if path else "")

    import ray

    from perfbench import hostinfo, loadgen, workloads
    from perfbench.tracing import Tracer
    from text_to_rdf_ray.pipelines import kg

    if args.partitions_in_flight is not None:
        kg.PARTITIONS_IN_FLIGHT = args.partitions_in_flight

    corpus = loadgen.prepare(args.workload, args.seed,
                             os.path.join(ROOT, ".perfbench_cache"))
    out_root = tempfile.mkdtemp(prefix="pass-probe-")
    host = _Host(args.num_cpus)
    w = workloads.Workload(corpus, host, out_root, None,
                           Tracer("probe", enabled=False))
    rec = _Recorder()
    try:
        setup_s = w.setup()
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "num_cpus": args.num_cpus,
                          "partitions_in_flight": kg.PARTITIONS_IN_FLIGHT,
                          "setup_s": round(setup_s, 3)}), flush=True)
        rec.install()
        for k in range(args.passes):
            rec.take()
            procs0 = _ray_procs()
            cpu0, steal0 = time.process_time(), hostinfo.steal_s()
            # perfbench's timed unit, with its output check kept out of
            # the driver CPU
            if w.partitioned:
                seconds = w.run_fresh(w.fresh_dir)
            else:
                seconds, _, table = w.run_build()
            line = {"pass": k, "first": k == 0, "seconds": round(seconds, 3),
                    "driver_cpu_s": round(time.process_time() - cpu0, 3),
                    "steal_s": round(hostinfo.steal_s() - steal0, 2)}
            line["ray_cpu_s"], line["ray_started"] = _ray_delta(
                procs0, _ray_procs())
            line.update(rec.take())
            w.check(w.partition_table(w.fresh_dir) if w.partitioned
                    else table, f"pass {k}")
            print(json.dumps(line), flush=True)
    finally:
        ray.shutdown()
        shutil.rmtree(out_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
