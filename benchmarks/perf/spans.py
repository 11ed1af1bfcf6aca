"""In-memory spans recorded from outside the program.

The traced run of each workload wraps calls into the repository's
layers (``build_world``, ``DeliveryEngine.deliver_all``,
``ShardWriter.write``, ...) from the benchmark's own files; no module
under ``src/`` knows it is being traced.  Lazy pipelines are traced by
wrapping each ``next()`` of an iterator, so a stage that pulls from the
stage before it sees that stage as a child span.

Every event charges the time since the previous event to the span on top
of the stack, which gives each span its self time directly: a layer's
self time is its duration minus what its child spans cover.  Repeated
calls with the same name under the same parent fold into one span that
counts its calls, so the record stays small however many emails pass
through.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator


class _Span:
    __slots__ = ("id", "name", "parent", "start", "end", "calls", "busy_s",
                 "self_s", "children")

    def __init__(self, span_id: int, name: str, parent: "_Span | None",
                 start: float) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.children: dict[str, _Span] = {}


class Tracer:
    """Stack of active spans for one workload run (single thread)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        now = perf_counter()
        self._t0 = now
        self._last = now
        self._spans: list[_Span] = []
        self.root = self._new("run", None, now)
        self.root.calls = 1
        self._stack: list[tuple[_Span, float]] = [(self.root, now)]
        self.wall_s = 0.0

    def _new(self, name: str, parent: _Span | None, now: float) -> _Span:
        span = _Span(len(self._spans), name, parent, now)
        self._spans.append(span)
        if parent is not None:
            parent.children[name] = span
        return span

    def enter(self, name: str) -> None:
        now = perf_counter()
        parent = self._stack[-1][0]
        parent.self_s += now - self._last
        span = parent.children.get(name)
        if span is None:
            span = self._new(name, parent, now)
        span.calls += 1
        self._stack.append((span, now))
        self._last = now

    def exit(self) -> None:
        now = perf_counter()
        span, entered = self._stack.pop()
        span.self_s += now - self._last
        span.busy_s += now - entered
        span.end = now
        self._last = now

    @property
    def top(self) -> str:
        return self._stack[-1][0].name

    def finish(self) -> float:
        """Close the root span; returns the traced wall time."""
        now = perf_counter()
        self.root.self_s += now - self._last
        self.root.busy_s = now - self._t0
        self.root.end = now
        self.wall_s = now - self._t0
        return self.wall_s

    # -- wrapping ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def iterate(self, name: str, iterable: Iterable) -> Iterator:
        """Yield from ``iterable`` with every ``next()`` inside a span."""
        it = iter(iterable)
        enter, exit_ = self.enter, self.exit
        while True:
            enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                exit_()
            yield item

    def wrap(self, name: str, fn: Callable, under: str | None = None) -> Callable:
        """``fn`` with each call inside a span.  With ``under``, only calls
        made directly from a span of that name open one; the others run
        inside whatever span is already open."""
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            if under is not None and self.top != under:
                return fn(*args, **kwargs)
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """``fn`` returning an iterator, with each of its ``next()`` calls
        inside a span."""
        iterate = self.iterate

        def traced(*args, **kwargs):
            return iterate(name, fn(*args, **kwargs))

        return traced

    # -- results -----------------------------------------------------------------

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self._spans if s.name == name)

    def busy_s(self, name: str) -> float:
        """Inclusive time of the spans called ``name``."""
        return sum(s.busy_s for s in self._spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(s.calls for s in self._spans if s.name == name)

    def to_json(self) -> list[dict]:
        """Spans with times in seconds from the start of the run."""
        return [
            {
                "id": s.id,
                "name": s.name,
                "parent": None if s.parent is None else s.parent.id,
                "run": self.run_id,
                "start": round(s.start - self._t0, 6),
                "end": round(s.end - self._t0, 6),
                "calls": s.calls,
                "busy_s": round(s.busy_s, 6),
                "self_s": round(s.self_s, 6),
            }
            for s in self._spans
        ]


class _NullTracer:
    """Stands in for a tracer in untraced jobs: calls pass straight through."""

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        return fn(*args, **kwargs)

    def iterate(self, name: str, iterable: Iterable) -> Iterable:
        return iterable

    def span(self, name: str):
        return nullcontext()


NULL = _NullTracer()


@contextmanager
def patched(targets: list[tuple[type, str, Callable[[Callable], Callable]]]):
    """Replace method ``owner.attr`` by ``make(original)`` for the duration.

    Class-level replacement reaches every instance, including objects the
    program built before the patch, because methods are looked up on the
    class at call time.
    """
    saved = []
    try:
        for owner, attr, make in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
