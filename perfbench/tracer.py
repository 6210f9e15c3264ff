"""Spans recorded around program functions, wrapped from outside the program.

A wrapper replaces the name a caller actually looks up: a module global
bound by ``from ... import`` in the calling module, or a class
attribute for methods. Spans stay in memory until the run ends. Each
span carries the id of the operation it belongs to (an analyze call, a
train step, an inferred document), set with ``begin_op``.
"""
from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op")

    def __init__(self, id, name, start, end, parent, op):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._open_names: dict[int, str] = {}
        self._next_id = 0
        self._next_op = 0
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self, kind: str) -> None:
        self._next_op += 1
        self.op = f"{kind}:{self._next_op}"

    def innermost(self) -> str | None:
        """Name of the innermost open span."""
        if not self._stack:
            return None
        return self._open_names[self._stack[-1]]

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr with a span-recording wrapper.

        before(tracer, args) runs ahead of the call; after(tracer, args,
        result) runs after a call that returned.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._open_names[span_id] = name
            tracer._stack.append(span_id)
            op = tracer.op
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                del tracer._open_names[span_id]
                tracer.spans.append(Span(span_id, name, start, end, parent, op))
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, extra: dict) -> None:
        payload = {
            **extra,
            "counts": dict(self.counts),
            "spans": [
                {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op}
                for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        inside = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.id] = (s.end - s.start) - covered([iv for iv in inside if iv[1] > iv[0]])
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, wall time covered (nesting counted once), self time."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    return {
        name: {
            "calls": len(group),
            "s": covered([(s.start, s.end) for s in group]),
            "self_s": sum(selfs[s.id] for s in group),
        }
        for name, group in by_name.items()
    }
