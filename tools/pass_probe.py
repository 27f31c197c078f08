"""Per-pass probe of one perfbench workload: where a pass's time, Ray Data
executions and raw tasks go.

    python tools/pass_probe.py --workload partitioned_at_scale --seed 3 \\
        --passes 7 --num-cpus 1

Starts Ray itself with ``--num-cpus`` logical CPUs (a ``ray.init``
argument; no machine setting changes), runs perfbench's set-up (the
warm-up pass) and then ``--passes`` timed units of the workload, each
checked as perfbench checks it.  ``perfbench`` is used read-only: its
``loadgen`` corpus (cached under ``.perfbench_cache``) and its
``Workload`` timed unit.

For every pass it prints one JSON line:

* ``seconds``: the pass's wall time (``first`` marks the first pass of
  the process, which pays the first-use costs);
* ``executions``: Ray Data executor runs (``StreamingExecutor.execute``)
  by the innermost ``text_to_rdf_ray`` call site that started them;
* ``tasks``: raw Ray task submissions by function name;
* ``driver_cpu_s``: this process's CPU time (``time.process_time``);
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

#: (module, function) pairs timed into a pass's ``phases``
PHASES = (("text_to_rdf_ray.pipelines.kg", "build_triples"),
          ("text_to_rdf_ray.pipelines.kg", "dedup_triples"),
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


class _Recorder:
    """Counts executions and task submissions and times ``PHASES`` while
    installed; ``take()`` returns and clears what one pass recorded."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.t0 = time.perf_counter()
        self.executions: collections.Counter = collections.Counter()
        self.tasks: collections.Counter = collections.Counter()
        self.phases: list = []

    def install(self) -> None:
        import importlib

        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )
        from ray.remote_function import RemoteFunction

        rec = self
        execute, remote = StreamingExecutor.execute, RemoteFunction._remote

        def counting_execute(self, *args, **kwargs):
            frames = [f for f in traceback.extract_stack()
                      if f.filename.startswith(PKG)]
            site = (f"{os.path.relpath(frames[-1].filename, PKG)}:"
                    f"{frames[-1].lineno}" if frames else "<outside>")
            with rec.lock:
                rec.executions[site] += 1
            return execute(self, *args, **kwargs)

        def counting_remote(self, *args, **kwargs):
            with rec.lock:
                rec.tasks[self._function_name.rsplit(".", 1)[-1]] += 1
            return remote(self, *args, **kwargs)

        StreamingExecutor.execute = counting_execute
        RemoteFunction._remote = counting_remote
        for mod_name, name in PHASES:
            mod = importlib.import_module(mod_name)
            if hasattr(mod, name):
                setattr(mod, name, self._timed(name, getattr(mod, name)))

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
                   "tasks": dict(sorted(self.tasks.items())),
                   "phases": sorted(self.phases, key=lambda p: p[2])}
            self.executions.clear()
            self.tasks.clear()
            self.phases = []
            self.t0 = time.perf_counter()
        return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=7)
    ap.add_argument("--num-cpus", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, ROOT)
    # Ray workers import the package from this checkout
    path = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + path if path else "")

    import ray

    from perfbench import hostinfo, loadgen, workloads
    from perfbench.tracing import Tracer

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
                          "setup_s": round(setup_s, 3)}), flush=True)
        rec.install()
        for k in range(args.passes):
            rec.take()
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
