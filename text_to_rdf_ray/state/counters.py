"""Operator counters (no-silent-caps rule): process-local sums; counts
made in a task travel back with the task's output.

On the driver, :func:`incr` adds to a locked dict (``run_partitioned``'s
partition threads count at the same time).  A raw ``stages/bsp.py``
task that runs caller code collects its increments (:func:`counted`)
and returns them with its output; where the driver submits it, it
registers the counts ref (:func:`add_task`), whose value is added once.
A retried task, or a block re-made from its lineage, fills the same
ref, so its counts replace the first attempt's; a failed task's counts
are dropped.  A task body run inside another raw task (a tail task's
steps, ``bsp.in_task``) nests: its counts go to the enclosing task's.  Finished tasks' counts are added as more are registered,
so pending refs stay bounded by the tasks in flight.  An :func:`incr`
in any other worker process (a Ray Data map) raises and names the
counters.  The sums do not outlive ``ray.shutdown()``.  ``bench.py``
and perfbench report :func:`snapshot`; tests assert on it.
"""

from __future__ import annotations

import threading

import ray

#: registered counts refs between two adds of the finished ones
_FOLD_EVERY = 64

_lock = threading.Lock()  # the sums and the pending refs
_sums: dict[str, int] = {}
_pending: list = []
_session: str | None = None
#: the running raw task's counts (worker side, set by :func:`counted`)
_task: dict | None = None


def _in_worker() -> bool:
    return ray._private.worker.global_worker.mode == ray.WORKER_MODE


def _sync() -> None:
    """Drop the sums and pending refs of an earlier Ray session (under
    ``_lock``); counts made before ``ray.init`` carry into it."""
    global _session
    node = ray._private.worker._global_node
    cur = node.session_name if ray.is_initialized() and node else None
    if cur != _session:
        if _session is not None:
            _sums.clear()
            _pending.clear()
        _session = cur


def _add(into: dict, delta: dict) -> None:
    for k, v in delta.items():
        if v:
            into[k] = into.get(k, 0) + int(v)


def incr(delta: dict) -> None:
    """Add counter deltas (zero-valued keys are dropped)."""
    if _task is None and _in_worker():
        raise RuntimeError(
            f"counters {sorted(delta)} incremented in a Ray worker outside "
            "a raw bsp task: their counts would be lost or re-added on a "
            "retry — run the step as a bsp block function (bsp.map_blocks)")
    if _task is not None:
        _add(_task, delta)
        return
    with _lock:
        _sync()
        _add(_sums, delta)


def _collect(fn, args: tuple) -> tuple:
    """``fn(*args)`` with its :func:`incr` calls collected in a dict of
    their own: ``(value, counts, enclosing dict)``, the enclosing one
    (None outside a raw task) restored."""
    global _task
    outer, _task = _task, {}
    counts = _task
    try:
        return fn(*args), counts, outer
    finally:
        _task = outer


def counted(fn, *args) -> tuple:
    """``fn(*args)`` in a raw task and the counts its :func:`incr` calls
    made there: ``(value, counts)``.  Nested in another ``counted`` (a
    task body run inline by a tail task, ``bsp.in_task``) the counts
    are also added, once, to the enclosing task's when ``fn`` returns."""
    value, counts, outer = _collect(fn, args)
    if outer is not None:
        _add(outer, counts)
    return value, counts


def dropped(fn, *args):
    """``fn(*args)`` in a raw task with the counts it makes dropped (a
    block function run once more only to type or size its output)."""
    return _collect(fn, args)[0]


def add_task(ref) -> None:
    """Register the counts ref a raw task submitted by the driver
    returns."""
    with _lock:
        _sync()
        _pending.append(ref)
        if len(_pending) % _FOLD_EVERY == 0:
            _fold()


def _fold() -> None:
    """Add the finished pending counts to the sums (under ``_lock``).  A
    failed task's counts are dropped: its error is its operator's."""
    global _pending
    if _pending:
        ready, _pending = ray.wait(_pending, num_returns=len(_pending),
                                   timeout=0)
        for ref in ready:
            try:
                _add(_sums, ray.get(ref))
            except ray.exceptions.RayError:
                pass


def snapshot(reset: bool = False) -> dict:
    """Read (and optionally reset) all counters, once every task
    registered so far has finished."""
    with _lock:
        _sync()
        refs = list(_pending)
    if refs:
        ray.wait(refs, num_returns=len(refs))
    with _lock:
        _sync()
        _fold()
        out = dict(_sums)
        if reset:
            _sums.clear()
    return out
