"""Span tracing: where the time goes inside one join.

A :class:`Span` is a named ``[start, start + duration)`` interval with
attributes and children; a :class:`Tracer` maintains the active span
stack and assembles the tree.  Two properties drive the design:

* **Near-zero cost when disabled.**  Instrumentation sites call
  :func:`span` (module level, reads the process-current tracer) inside a
  ``with`` statement.  A disabled tracer returns one shared no-op
  context manager, so a site costs a dict-free function call and two
  no-op methods — ``benchmarks/bench_gate_obs_overhead.py`` holds this
  under 2% of join wall time.  Sites sit at *block*
  granularity (one span per ~256-query block), never per query.
* **Process-portable trees.**  ``Span`` is a plain dataclass of
  built-in types, so worker processes pickle their chunk trees back to
  the parent, which grafts them under its own ``run`` span
  (:func:`repro.engine.join` with ``trace=True``).  Serial execution
  produces the same shape through the same code — one detached tree per
  chunk, stitched by the parent — so serial and parallel traces are
  directly comparable.

Timing uses :func:`time.perf_counter_ns`: monotonic, integer, and the
cheapest high-resolution clock CPython offers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class Span:
    """One named, timed interval in a trace tree.

    ``start_ns`` is a :func:`time.perf_counter_ns` reading — meaningful
    for ordering *within* one process only; durations are what cross
    process boundaries intact.
    """

    name: str
    start_ns: int = 0
    duration_ns: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def child(self, name: str) -> Optional["Span"]:
        """First direct child named ``name``, or ``None``."""
        for c in self.children:
            if c.name == name:
                return c
        return None

    def find(self, name: str) -> List["Span"]:
        """Every descendant (any depth, pre-order) named ``name``."""
        found: List[Span] = []
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if node.name == name:
                found.append(node)
            stack.extend(reversed(node.children))
        return found

    def name_tree(self):
        """The structural skeleton ``(name, (child skeletons...))``.

        Durations and attributes vary run to run; the skeleton is what
        determinism tests compare across worker counts.
        """
        return (self.name, tuple(c.name_tree() for c in self.children))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            name=payload["name"],
            start_ns=int(payload.get("start_ns", 0)),
            duration_ns=int(payload.get("duration_ns", 0)),
            attrs=dict(payload.get("attrs", {})),
            children=[cls.from_dict(c) for c in payload.get("children", [])],
        )


class _NullSpan:
    """The shared do-nothing context manager of every disabled tracer."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that opens a :class:`Span` on an enabled tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        tracer, span = self._tracer, self._span
        if tracer._stack:
            tracer._stack[-1].children.append(span)
        else:
            tracer.roots.append(span)
        tracer._stack.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def __exit__(self, exc_type, exc, tb):
        span = self._span
        span.duration_ns = time.perf_counter_ns() - span.start_ns
        self._tracer._stack.pop()
        return False


class Tracer:
    """Span-tree builder; disabled instances hand out no-op spans."""

    __slots__ = ("enabled", "roots", "_stack")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **attrs):
        """Open a child span of the currently active span (or a root)."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, Span(name=name, attrs=attrs))

    @property
    def root(self) -> Optional[Span]:
        """The first completed top-level span, or ``None``."""
        return self.roots[0] if self.roots else None

    def take(self) -> Optional[Span]:
        """Detach and return the first root (resetting the tracer)."""
        root = self.root
        self.roots = []
        self._stack = []
        return root


#: The context-current tracer.  Disabled by default; the engine swaps an
#: enabled tracer in for the duration of a traced join (and each worker
#: process activates its own around its chunk).  A ``ContextVar`` rather
#: than a module global so the thread-pool execution path works: each
#: worker thread starts from the default (disabled) value and activates
#: its own per-chunk tracer without racing siblings or the parent.
_DISABLED = Tracer(enabled=False)
_CURRENT: ContextVar[Tracer] = ContextVar("repro_tracer", default=_DISABLED)


def current_tracer() -> Tracer:
    return _CURRENT.get()


def span(name: str, **attrs):
    """Open a span on the context-current tracer.

    THE instrumentation entry point for kernel code: resolves the
    current tracer at call time, so modules can bind this function at
    import and still observe tracer activation.
    """
    return _CURRENT.get().span(name, **attrs)


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` the context-current tracer within the block."""
    token = _CURRENT.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)
