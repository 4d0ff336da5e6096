"""In-memory span tracing from outside the program.

The tracer replaces a function in the namespace of the module that calls
it -- `clmech.suites.integrate`, not `clmech.dynamics.integrate` -- so a span
records both the callee and its call site, and calls a module makes to its
own functions stay untraced. Spans are kept in a list with parent links and
written out when the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    site: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; `patch` installs wrappers that `restore` removes."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, site: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, site, 0.0)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = self.clock()
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, site: str = "perfbench", **kwargs):
        """Call `fn` inside a span."""
        span = self._open(name, site)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, site: str, after: Callable | None = None) -> Callable:
        """`fn` inside a span; `after(span, args, result)` runs once the span is closed."""

        def traced(*args, **kwargs):
            span = self._open(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name: str, site: str, after: Callable | None = None) -> None:
        """Replace `owner.attr` (or `owner[attr]` for a dict) with a traced wrapper."""
        is_map = isinstance(owner, dict)
        original = owner[attr] if is_map else owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        if isinstance(original, staticmethod):
            wrapped = staticmethod(self.wrap(name, original.__func__, site, after))
        else:
            wrapped = self.wrap(name, original, site, after)
        if is_map:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)

    def patch_module(self, module: str, attr: str, name: str, after: Callable | None = None) -> None:
        self.patch(importlib.import_module(module), attr, name, module, after)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [asdict(s) for s in self.spans]
        for row in rows:
            row["attrs"] = {k: v for k, v in row["attrs"].items() if isinstance(v, (int, float, str))}
        path.write_text(json.dumps({"spans": rows}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


@dataclass
class Aggregate:
    calls: int = 0
    total: float = 0.0
    self: float = 0.0


def aggregate(spans: list[Span]) -> dict[str, Aggregate]:
    """Calls, total and self seconds per span name."""
    own = self_times(spans)
    out: dict[str, Aggregate] = {}
    for s in spans:
        agg = out.setdefault(s.name, Aggregate())
        agg.calls += 1
        agg.total += s.duration
        agg.self += own[s.id]
    return out
