"""In-memory spans {name, start, end, parent, run id} recorded around the
calls into each layer, with self-time arithmetic over them."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans when ``enabled``; always tracks the open-span stack, so
    a failure can name the span it happened in (``failed_in``)."""

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[tuple[int, str]] = []
        self._next = 0
        self.failed_in: str | None = None

    def _open(self, name: str) -> int:
        self._next += 1
        self._stack.append((self._next, name))
        return self._next

    def _close(self, sid: int, name: str, start: float, attrs: dict) -> None:
        self._stack.pop()
        if self.enabled:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(Span(sid, name, start, time.perf_counter(), parent,
                                   self.run_id, attrs))

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the block as one span; yields ``attrs`` so the block can add
        counts measured where the work happens."""
        sid = self._open(name)
        start = time.perf_counter()
        try:
            yield attrs
        except BaseException:
            if self.failed_in is None:
                self.failed_in = "/".join(n for _, n in self._stack)
            raise
        finally:
            self._close(sid, name, start, attrs)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span ``name``."""

        def traced(*args, **kwargs):
            sid = self._open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, {})

        return traced

    def open_path(self) -> str:
        return "/".join(n for _, n in self._stack)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, the summed self time: each span's duration minus the
    part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        own = (s.end - s.start) - covered_length(children.get(s.id, []), s.start, s.end)
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Per span name, (calls, summed inclusive duration)."""
    out: dict[str, tuple[int, float]] = {}
    for s in spans:
        n, t = out.get(s.name, (0, 0.0))
        out[s.name] = (n + 1, t + s.end - s.start)
    return out
