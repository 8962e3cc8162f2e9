"""In-memory span recorder for the traced benchmark run.

The benchmark never edits the program: it wraps public callables from
the outside (class attributes patched before the simulator is built,
instance attributes after) and records, per span name, how often the
call ran, its total time and its *self* time -- the part of each span
not covered by the wrapped calls it made.

Spans are grouped.  Within a group only the outermost call is
recorded, so a row build that re-enters the row tables from inside a
row build (``central_rid`` -> ``central_row`` -> ``entry_row``) counts
once.  Fine-grained spans (one per table row, hundreds of thousands per
run) are kept as aggregates; spans named in ``keep`` are also kept one
by one as ``(start, end, self)`` so step-time percentiles and the
cold/warm ratio can be computed from them.
"""

from __future__ import annotations

import time

clock = time.perf_counter


class Span:
    """Aggregate of one span name."""

    __slots__ = ("calls", "total", "self_time", "items")

    def __init__(self, keep: bool):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items: list[tuple[float, float, float]] | None = (
            [] if keep else None
        )


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        #: Child time accumulated by each open span (innermost last).
        self._stack: list[float] = []
        #: Open outermost calls per group.
        self._depth: dict[str, int] = {}
        #: Free-form counters filled by ``after`` hooks.
        self.counts: dict[str, float] = {}

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str, group: str | None = None,
             keep: bool = False, before=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args)`` runs ahead of an outermost call and its return
        value is handed to ``after(args, token, result, seconds)``, which
        runs once the call returns.
        """
        span = self.spans.setdefault(name, Span(keep))
        stack = self._stack
        depth = self._depth
        group = group or name
        depth.setdefault(group, 0)

        def wrapper(*args, **kwargs):
            if depth[group]:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            depth[group] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[group] -= 1
                child = stack.pop()
                dt = t1 - t0
                span.calls += 1
                span.total += dt
                span.self_time += dt - child
                if span.items is not None:
                    span.items.append((t0, t1, dt - child))
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, token, result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (a class or an instance) by a wrapper."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **options))

    def total(self, name: str) -> float:
        s = self.spans.get(name)
        return s.total if s is not None else 0.0

    def calls(self, name: str) -> int:
        s = self.spans.get(name)
        return s.calls if s is not None else 0
