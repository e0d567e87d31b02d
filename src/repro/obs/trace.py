"""Structured tracing: hierarchical spans with counters for every engine.

One query produces one span tree — ``query`` at the root, then ``stratum``,
``iteration``, ``rule``, ``cache.probe``, ``search`` and friends below it —
each span carrying attributes (what was evaluated) and counters (how much
work it took: facts derived, join probes, delta sizes, cache hits, tree
nodes expanded/cut).  The taxonomy is catalogued in ``docs/OBSERVABILITY.md``.

Two tracers share one duck-typed API:

* :class:`Tracer` collects spans.  Attach one to a
  :class:`~repro.session.Session` (``Session(trace=True)``) or pass it to
  any engine entry point; the finished tree is on :attr:`Tracer.last`.
* :class:`NullTracer` records nothing.  Every method is a no-op and
  :meth:`NullTracer.span` returns a shared null context manager, so a
  governed hot loop pays one method call per *instrumentation site* — never
  per row — when handed :data:`NULL_TRACER`.

The cheapest disabled path is no tracer at all: every instrumented call
site guards on ``tracer is not None`` (or goes through
:func:`traced_span`), so the default costs one identity check.

Span trees serialize deterministically: :meth:`Span.as_dict` with
``timings=False`` contains no wall-clock fields, so two runs of the same
program produce byte-identical JSON — the golden tests in ``tests/obs``
pin exactly that.
"""

from __future__ import annotations

import json
import time
from typing import Iterator

#: How many finished root spans a tracer retains (oldest dropped first); a
#: long-lived session must not grow without bound.
ROOT_LIMIT = 16

#: Attribute value types stored verbatim; anything else is stringified at
#: record time so a span tree is always JSON-serializable.
_PLAIN = (str, int, float, bool, type(None))


def _coerce(value: object) -> object:
    """A JSON-friendly, deterministic rendering of an attribute value."""
    if isinstance(value, _PLAIN):
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_coerce(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=str)
        return items
    if isinstance(value, dict):
        return {str(k): _coerce(v) for k, v in sorted(value.items(), key=lambda i: str(i[0]))}
    return str(value)


class Span:
    """One timed node of a trace tree.

    ``attributes`` describe what ran (rule text, predicates, outcome);
    ``counters`` accumulate how much work it took.  Children are the spans
    opened while this one was current.
    """

    __slots__ = ("name", "attributes", "counters", "children", "_started", "duration_s")

    def __init__(self, name: str, attributes: dict | None = None) -> None:
        self.name = name
        self.attributes: dict[str, object] = attributes or {}
        self.counters: dict[str, int | float] = {}
        self.children: list[Span] = []
        self._started = time.perf_counter()
        self.duration_s = 0.0

    # -- aggregation ---------------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """Every span in the subtree with the given name."""
        return [span for span in self.walk() if span.name == name]

    def total(self, counter: str) -> int | float:
        """Sum of one counter over the whole subtree."""
        return sum(span.counters.get(counter, 0) for span in self.walk())

    def totals(self) -> dict[str, int | float]:
        """Every counter summed over the whole subtree (sorted by name)."""
        combined: dict[str, int | float] = {}
        for span in self.walk():
            for counter, value in span.counters.items():
                combined[counter] = combined.get(counter, 0) + value
        return dict(sorted(combined.items()))

    # -- serialization -------------------------------------------------------------

    def as_dict(self, timings: bool = True) -> dict:
        """A JSON-friendly tree; ``timings=False`` omits every wall-clock
        field, making the output byte-stable across runs."""
        entry: dict[str, object] = {"name": self.name}
        if self.attributes:
            entry["attributes"] = {
                key: _coerce(value) for key, value in sorted(self.attributes.items())
            }
        if self.counters:
            entry["counters"] = dict(sorted(self.counters.items()))
        if timings:
            entry["duration_ms"] = round(self.duration_s * 1000, 3)
        if self.children:
            entry["children"] = [child.as_dict(timings) for child in self.children]
        return entry

    def to_json(self, timings: bool = True, indent: int | None = 2) -> str:
        """The span tree as stable JSON (keys sorted, deterministic)."""
        return json.dumps(self.as_dict(timings), indent=indent, sort_keys=True)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {len(self.children)} children, "
            f"{self.duration_s * 1000:.2f}ms)"
        )


class _NullSpanContext:
    """The shared no-op context manager returned by :meth:`NullTracer.span`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """The do-nothing tracer: the near-zero-overhead disabled path.

    Safe to hand to any instrumented engine; every method returns
    immediately and no state is kept.  ``enabled`` lets callers branch
    around expensive attribute construction.
    """

    enabled = False

    def span(self, name: str, **attributes: object) -> object:
        """A context manager for one unit of work (no-op here)."""
        return _NULL_CONTEXT

    def start(self, name: str, **attributes: object) -> Span | None:
        """Open a span without a ``with`` block (no-op here)."""
        return None

    def end(self, span: Span | None = None) -> None:
        """Close the span opened by :meth:`start` (no-op here)."""

    def count(self, counter: str, value: int | float = 1) -> None:
        """Add to a counter on the current span (no-op here)."""

    def annotate(self, **attributes: object) -> None:
        """Set attributes on the current span (no-op here)."""

    def event(self, name: str, **attributes: object) -> None:
        """Record an instant (zero-duration) child span (no-op here)."""

    @property
    def last(self) -> Span | None:
        """The most recently completed root span (always ``None`` here)."""
        return None

    def __repr__(self) -> str:
        return "NullTracer()"


#: Shared do-nothing tracer instance.
NULL_TRACER = NullTracer()


class _SpanContext:
    """Context manager pairing one :meth:`Tracer.start` with its end."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.end(self._span)


class Tracer(NullTracer):
    """A collecting tracer: builds span trees as instrumented code runs.

    Spans nest through an explicit stack; when the last open span closes,
    the finished tree is appended to :attr:`roots` (bounded by
    :data:`ROOT_LIMIT`) and exposed as :attr:`last`.
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attributes: object) -> _SpanContext:
        return _SpanContext(self, self.start(name, **attributes))

    def start(self, name: str, **attributes: object) -> Span:
        span = Span(name, attributes)
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span | None = None) -> None:
        """Close *span* (and, defensively, anything opened under it)."""
        if not self._stack:
            return
        now = time.perf_counter()
        while self._stack:
            current = self._stack.pop()
            current.duration_s = now - current._started
            if span is None or current is span:
                break
        if not self._stack and (span is None or span.children is not None):
            root = span if span is not None else current
            self.roots.append(root)
            del self.roots[:-ROOT_LIMIT]

    def count(self, counter: str, value: int | float = 1) -> None:
        if self._stack:
            counters = self._stack[-1].counters
            counters[counter] = counters.get(counter, 0) + value

    def annotate(self, **attributes: object) -> None:
        if self._stack:
            self._stack[-1].attributes.update(attributes)

    def event(self, name: str, **attributes: object) -> None:
        span = Span(name, attributes)
        span.duration_s = 0.0
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
            del self.roots[:-ROOT_LIMIT]

    @property
    def last(self) -> Span | None:
        return self.roots[-1] if self.roots else None

    def __repr__(self) -> str:
        return f"Tracer({len(self.roots)} roots, depth {len(self._stack)})"


def recording(tracer: NullTracer | None) -> NullTracer | None:
    """*tracer* when it records spans, else ``None``.

    Engine entry points normalize their tracer argument through this, so
    a disabled tracer (``enabled`` false, e.g. :data:`NULL_TRACER`) takes
    the same untraced branches as ``None`` instead of paying one no-op
    method call per counter and span in the hot loops.
    """
    if tracer is None or not tracer.enabled:
        return None
    return tracer


def traced_span(tracer: NullTracer | None, name: str, **attributes: object) -> object:
    """A span context manager, or the shared null context for ``None``.

    The standard instrumentation-site idiom::

        with traced_span(tracer, "stratum", predicates=members):
            ...

    costs one ``is None`` check when tracing is off.
    """
    if tracer is None:
        return _NULL_CONTEXT
    return tracer.span(name, **attributes)
