"""Operator counters via a named metrics actor (no-silent-caps rule).

LSH bucket stages run inside exchange reduce tasks whose only output is the
pair stream, so observability (oversized buckets processed, buckets/pairs
skipped by an explicit cap) flows through a side channel: a tiny named
actor (num_cpus=0 — holds no slot) that any worker task can increment and
the driver reads after execution.  ``bench.py`` surfaces the snapshot in
its JSON line; tests assert on it.

Increments are *blocking* (one ``ray.get`` per shard task, not per batch)
so a driver snapshot taken after ``Dataset`` execution finishes is
guaranteed to include every task's counts — fire-and-forget sends could
still be in flight.
"""

from __future__ import annotations

import ray

ACTOR_NAME = "graft_op_counters"
NAMESPACE = "text_to_rdf_ray_metrics"


@ray.remote(num_cpus=0)
class CounterActor:
    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def add(self, delta: dict) -> None:
        for k, v in delta.items():
            self.counts[k] = self.counts.get(k, 0) + int(v)

    def snapshot(self, reset: bool = False) -> dict:
        out = dict(self.counts)
        if reset:
            self.counts = {}
        return out


def _actor():
    # detached: a named-but-owned actor dies as soon as its creating worker
    # task finishes ("all references removed"), killing mid-flight incr()
    # calls from sibling tasks; detached pins it to the Ray session (it is
    # torn down by ray.shutdown, so tests/bench runs stay self-contained)
    return CounterActor.options(
        name=ACTOR_NAME, namespace=NAMESPACE, get_if_exists=True,
        lifetime="detached",
    ).remote()


def incr(delta: dict) -> None:
    """Add counter deltas (zero-valued keys are dropped; no-op when all
    zero, so the common un-skewed path never touches the actor)."""
    delta = {k: int(v) for k, v in delta.items() if v}
    if not delta:
        return
    ray.get(_actor().add.remote(delta))


def snapshot(reset: bool = False) -> dict:
    """Read (and optionally reset) all counters."""
    return ray.get(_actor().snapshot.remote(reset))
