"""Span bookkeeping: self time, aggregation, patching."""

import types

from spans import Span, Tracer, aggregate, self_times


def test_self_time_on_a_synthetic_tree():
    spans = [
        Span(0, None, "root", "x", 0.0, 10.0),
        Span(1, 0, "a", "x", 1.0, 4.0),
        Span(2, 1, "b", "x", 2.0, 3.0),
        Span(3, 0, "a", "x", 5.0, 6.5),
        Span(4, None, "other", "x", 20.0, 21.0),
    ]
    own = self_times(spans)
    assert own == {0: 10.0 - 3.0 - 1.5, 1: 3.0 - 1.0, 2: 1.0, 3: 1.5, 4: 1.0}
    agg = aggregate(spans)
    assert (agg["a"].calls, agg["a"].total, agg["a"].self) == (2, 4.5, 3.5)
    assert agg["root"].self == 5.5


def test_overlapping_children_are_counted_once():
    spans = [
        Span(0, None, "p", "x", 0.0, 10.0),
        Span(1, 0, "c", "x", 2.0, 6.0),
        Span(2, 0, "c", "x", 4.0, 8.0),
        Span(3, 0, "c", "x", 9.0, 12.0),  # runs past its parent's end
    ]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_wrappers_record_parents_and_restore():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace(inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    table = {"f": lambda: "f"}
    original = mod.__dict__["inner"], table["f"]
    tracer.patch(mod, "inner", "m.inner", "site")
    tracer.patch(mod, "outer", "m.outer", "site")
    tracer.patch(table, "f", "m.f", "site")
    assert tracer.call("top", mod.outer, 3) == 8
    assert table["f"]() == "f"
    tracer.restore()
    assert (mod.__dict__["inner"], table["f"]) == original
    top, outer, inner, f = tracer.spans
    assert (top.parent, outer.parent, inner.parent, f.parent) == (None, top.id, outer.id, None)
    assert self_times(tracer.spans)[outer.id] == outer.duration - inner.duration
