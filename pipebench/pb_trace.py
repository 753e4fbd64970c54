"""In-memory spans around the benchmark's own calls into each layer.

The program's telemetry stays off; the benchmark times the public calls
it makes.  A span has a name, start, end, parent and the id of the point
or request it belongs to.  The nesting is workload → point → layer call
on the sweeps and workload → service call on service-mix.  Spans live in
memory and are written out once, at the end.

Self time is an exclusive split of wall time.  At each instant the
innermost active layer spans share it equally (two client threads can
each be inside a layer at once), and an instant inside no layer call is
unattributed.  So layer self times plus unattributed time equal the
root span's duration, which is the traced ``run_s``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import dataclass

#: Span names that are structure, not layers.  A service request's span
#: is itself the layer call (the service), so it has no structure span.
STRUCTURE = ("workload", "point")

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    """One timed interval."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None

    @property
    def duration(self) -> float:
        """End minus start, in seconds."""
        return self.end - self.start


class _Active:
    """Context manager recording one span into its tracer."""

    __slots__ = ("tracer", "name", "op", "parent", "span")

    def __init__(self, tracer, name, op, parent):
        self.tracer, self.name, self.op, self.parent = tracer, name, op, parent

    def __enter__(self) -> Span:
        stack = self.tracer._stack()
        parent = self.parent if self.parent is not None else (stack[-1].id if stack else None)
        op = self.op if self.op is not None else (stack[-1].op if stack else None)
        self.span = Span(next(self.tracer._ids), self.name, time.perf_counter(), 0.0,
                         parent, op)
        stack.append(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(self.span)


class Tracer:
    """Records spans when enabled; a shared no-op context otherwise."""

    def __init__(self, enabled: bool) -> None:
        """Create an empty recorder (``enabled=False`` records nothing)."""
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op: str | None = None, parent: int | None = None):
        """Time the ``with`` body as span ``name`` of point/request ``op``.

        ``parent`` links a span opened on another thread to its cause;
        by default the innermost open span of this thread is the parent.
        """
        if not self.enabled:
            return _NULL
        return _Active(self, name, op, parent)

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op,
                }, sort_keys=True) + "\n")


@dataclass
class LayerSplit:
    """Per-layer busy and self time of one traced run."""

    run_s: float
    busy: dict[str, float]
    self_s: dict[str, float]
    calls: dict[str, int]
    unattributed_s: float
    slowest: dict[str, list[Span]]


def split_by_layer(spans: list[Span], root: Span, top: int = 3) -> LayerSplit:
    """Busy time, exclusive self time and slowest calls of each layer."""
    layers = [s for s in spans if s.name not in STRUCTURE]
    by_id = {s.id: s for s in spans}

    def ancestors(s: Span) -> set[int]:
        out, p = set(), s.parent
        while p is not None:
            out.add(p)
            p = by_id[p].parent if p in by_id else None
        return out

    anc = {s.id: ancestors(s) for s in layers}
    events = sorted(
        [(s.start, 1, s.id) for s in layers] + [(s.end, 0, s.id) for s in layers]
    )
    self_s: dict[int, float] = {s.id: 0.0 for s in layers}
    active: set[int] = set()
    covered = 0.0
    last = root.start
    for t, kind, sid in events:
        t = min(max(t, root.start), root.end)
        dt = t - last
        if dt > 0 and active:
            inner = [a for a in active if not any(a in anc[b] for b in active if b != a)]
            for a in inner:
                self_s[a] += dt / len(inner)
            covered += dt
        last = max(last, t)
        if kind:
            active.add(sid)
        else:
            active.discard(sid)
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    slowest: dict[str, list[Span]] = {}
    for s in layers:
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + self_s[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        slowest.setdefault(s.name, []).append(s)
    for name in slowest:
        slowest[name] = sorted(slowest[name], key=lambda s: -s.duration)[:top]
    return LayerSplit(
        run_s=root.duration,
        busy=busy,
        self_s=own,
        calls=calls,
        unattributed_s=root.duration - covered,
        slowest=slowest,
    )


def render(split: LayerSplit, notes: list[str]) -> str:
    """The traced run's human-readable report."""
    lines = [
        f"{'layer':22s} {'calls':>6s} {'busy_s':>9s} {'self_s':>9s} {'self%':>6s}",
    ]
    for name in sorted(split.self_s, key=lambda n: -split.self_s[n]):
        share = 100.0 * split.self_s[name] / split.run_s if split.run_s else 0.0
        lines.append(
            f"{name:22s} {split.calls[name]:6d} {split.busy[name]:9.3f} "
            f"{split.self_s[name]:9.3f} {share:5.1f}%"
        )
    total = sum(split.self_s.values()) + split.unattributed_s
    lines.append(f"{'(unattributed)':22s} {'':6s} {'':9s} {split.unattributed_s:9.3f}")
    lines.append(f"self + unattributed = {total:.3f} s; traced run_s = {split.run_s:.3f} s")
    lines.append("slowest calls per layer:")
    for name in sorted(split.slowest):
        for s in split.slowest[name]:
            lines.append(f"  {name:22s} {s.duration:9.3f} s  {s.op}")
    lines.extend(notes)
    return "\n".join(lines)
