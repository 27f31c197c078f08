"""Benchmark entry point.

    python3 perfbench/run.py --workload web_pages --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed (cached under
``.perfbench_cache``), starts Ray with ``num_cpus`` = nproc, and then

* ``--trace 0``: sets Ray up ``SETUPS`` times (``setup_s`` is the median),
  repeats the workload's timed unit until ``--seconds`` have passed (at
  least once; ``docs_per_s`` is the median pass), checks every output, and
  reports the end-to-end metrics;
* ``--trace 1``: runs the job stage by stage with spans next to an untraced
  run of the same work, then the kernel pass, and reports the per-layer
  metrics.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is a report with the host, every timed unit and any
failure (workload, exception, and the span it happened in), also written
to ``.perfbench_out``.  A failed check or run exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: a run must end well within three minutes
DEADLINE_S = 165.0


class RunTimeout(Exception):
    """The run exceeded DEADLINE_S."""


def _import_package() -> None:
    """Import text_to_rdf_ray from this checkout, or exit 2."""
    sys.path.insert(0, ROOT)
    try:
        import text_to_rdf_ray
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import text_to_rdf_ray from {ROOT}: {exc}")
    where = os.path.dirname(os.path.dirname(os.path.abspath(text_to_rdf_ray.__file__)))
    if where != ROOT:
        sys.exit(f"perfbench: text_to_rdf_ray resolved to {where}, not this checkout")


def _recorded(key: str, seed: int) -> str | None:
    """The output hash recorded for (workload, size, format) and seed."""
    with open(os.path.join(ROOT, "perfbench", "expected.json")) as fh:
        return json.load(fh).get(key, {}).get(str(seed))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_package()

    from perfbench import hostinfo, loadgen, workloads
    from perfbench.tracing import Tracer

    started = time.monotonic()
    timed_out: list[float] = []

    def on_alarm(signum, frame):
        # raised inside a native Ray call this may surface re-wrapped (e.g.
        # as SystemError), so the flag, not the type, marks a timeout
        timed_out.append(time.monotonic() - started)
        raise RunTimeout(f"run exceeded {DEADLINE_S:.0f} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)

    out_root = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-s{args.seed}")
    os.makedirs(out_root, exist_ok=True)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
    tracer = Tracer(run_id, enabled=bool(args.trace))
    corpus = loadgen.prepare(args.workload, args.seed, os.path.join(ROOT, ".perfbench_cache"))
    hostinfo.reset_peak_rss()
    nproc = hostinfo.nproc()
    host = workloads.RayHost(ROOT, num_cpus=nproc)
    recorded = _recorded(corpus.key, args.seed)
    if recorded is None:
        # only the in-process reference, built from the same kernels as the
        # program, guards this run's output
        print(f"perfbench: no output hash recorded for {corpus.key} seed {args.seed}; "
              "checking against the in-process reference only", file=sys.stderr)
    w = workloads.Workload(corpus, host, out_root, recorded, tracer)

    steal0 = hostinfo.steal_s()
    setups: list[float] = []
    passes: list[dict] = []
    metrics: dict = {}
    attempted = failed = 0
    failure = None
    try:
        if args.trace:
            setups.append(w.setup())
            attempted = 1
            metrics = w.traced()
        else:
            for k in range(workloads.SETUPS):
                setups.append(w.setup())
                if k < workloads.SETUPS - 1:
                    host.stop()
            t0 = time.monotonic()
            while not passes or time.monotonic() - t0 < args.seconds:
                longest = max((p["seconds"] for p in passes), default=0.0)
                if passes and time.monotonic() - started + 2 * longest > DEADLINE_S - 30:
                    break
                attempted += 1
                passes.append(w.timed_pass())
            metrics = {
                "docs_per_s": statistics.median(p["docs_per_s"] for p in passes),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": hostinfo.tree_peak_rss_mb(),
            }
    except Exception as exc:  # a failed run is reported, never raised past here
        attempted = max(attempted, 1)
        failed += 1
        failure = {"workload": args.workload, "seed": args.seed,
                   "exception": (f"RunTimeout: run exceeded {DEADLINE_S:.0f} s" if timed_out
                                 else f"{type(exc).__name__}: {exc}"),
                   "span": tracer.failed_in or tracer.open_path()}
        traceback.print_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        killed = host.stop()

    host_info = {"cpu_count": os.cpu_count(), "nproc": nproc, "num_cpus": host.num_cpus,
                 "steal_s": hostinfo.steal_s() - steal0}
    if args.trace and failure is None:
        metrics.update({f"host.{k}": v for k, v in host_info.items()})
        tracer.dump(os.path.join(ROOT, ".perfbench_out", f"{args.workload}-trace.spans.json"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if failure is None and set(metrics) != set(units):
        failed += 1
        failure = {"workload": args.workload, "seed": args.seed, "span": "",
                   "exception": "metrics differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(units))}"}
    if failure is not None:
        print(f"perfbench: {args.workload} failed in span {failure['span']!r}: "
              f"{failure['exception']}", file=sys.stderr)
    report = {"run_id": run_id, "host": host_info, "pages": corpus.n_pages,
              "recorded_hash": recorded is not None,
              "setups_s": setups, "passes": passes,
              "counters": w.counters, "killed_pids": killed, "failure": failure}
    with open(os.path.join(ROOT, ".perfbench_out", f"report-{run_id}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failure is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                    if k in units},
    }), flush=True)
    return 0 if failure is None else 1


if __name__ == "__main__":
    sys.exit(main())
