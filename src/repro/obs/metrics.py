"""Named counters, gauges, and histograms for the join engine.

A :class:`MetricsRegistry` is a flat name -> instrument map.  Like the
tracer (:mod:`repro.obs.trace`), the process-current registry is
disabled by default and instrumentation sites guard on ``.enabled``, so
the hooks in hot kernels (:mod:`repro.core.verify`,
:mod:`repro.lsh.index`) cost one attribute check when observability is
off.

Determinism contract: every instrument merges with integer (or exact
float) sums, and the engine merges worker snapshots in chunk order —
so a parallel join reports metric totals bit-identical to the serial
run, the same guarantee :meth:`repro.core.problems.QueryStats.merge`
gives the work counters.

Histograms use *fixed* bucket bounds chosen at first observation
(power-of-two by default), never adaptive ones: two registries can only
merge when their bucket layouts agree, and fixed bounds make layouts a
pure function of the instrument name.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError

#: Default histogram upper bounds: powers of two through 2^24, matching
#: the dynamic range of candidate-list sizes, bucket occupancies, and
#: GEMM union sizes this library produces.
POW2_BOUNDS: Tuple[float, ...] = tuple(float(2 ** e) for e in range(25))


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """Fixed-bound histogram with exact ``count``/``sum`` side totals.

    ``bounds`` are inclusive upper edges; observations above the last
    bound land in an implicit overflow bucket, so ``len(counts) ==
    len(bounds) + 1``.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Sequence[float] = POW2_BOUNDS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ParameterError("histogram bounds must be non-empty ascending")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0

    @classmethod
    def from_payload(cls, payload: dict) -> "Histogram":
        """The histogram of one :meth:`MetricsRegistry.snapshot` payload
        (``bounds``, ``counts``, ``count``, ``sum``)."""
        h = cls(payload["bounds"])
        h.counts = list(payload["counts"])
        h.count = payload["count"]
        h.sum = payload["sum"]
        return h

    def observe(self, value) -> None:
        self.counts[self._bucket(value)] += 1
        self.count += 1
        self.sum += value

    def observe_array(self, values: np.ndarray) -> None:
        """Vectorized :meth:`observe` over a flat numeric array."""
        values = np.asarray(values)
        if values.size == 0:
            return
        buckets = np.searchsorted(self.bounds, values, side="left")
        for b, c in zip(*np.unique(buckets, return_counts=True)):
            self.counts[int(b)] += int(c)
        self.count += int(values.size)
        # Sum in int space when possible so parallel merges stay exact.
        total = values.sum()
        self.sum += int(total) if np.issubdtype(values.dtype, np.integer) else float(total)

    def _bucket(self, value) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Linear interpolation inside the located bucket (lower edge 0 for
        the first bucket), so with pow2 bounds the estimate is within
        one bucket of the exact order statistic.  Observations that
        landed in the overflow bucket are clamped to the last bound —
        the histogram holds no information above it.
        """
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"quantile q must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cumulative + c >= target:
                if i >= len(self.bounds):  # overflow bucket
                    return self.bounds[-1]
                lo = self.bounds[i - 1] if i else 0.0
                hi = self.bounds[i]
                frac = (target - cumulative) / c
                return lo + frac * (hi - lo)
            cumulative += c
        return self.bounds[-1]

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        """:meth:`quantile` over several probabilities."""
        return [self.quantile(q) for q in qs]


class MetricsRegistry:
    """Flat name -> instrument map with snapshot/merge for worker fan-in."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (create on first use) ---------------------

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter()
            return c

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            g = self._gauges[name] = Gauge()
            return g

    def histogram(self, name: str, bounds: Sequence[float] = POW2_BOUNDS) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            h = self._histograms[name] = Histogram(bounds)
            return h

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data view of every instrument (picklable, mergeable)."""
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {k: g.value for k, g in self._gauges.items()},
            "histograms": {
                k: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.sum,
                }
                for k, h in self._histograms.items()
            },
        }

    def merge_snapshot(self, snapshot: Optional[dict]) -> None:
        """Fold a :meth:`snapshot` into this registry (sums; gauges last-write).

        A disabled registry swallows the payload without creating
        instruments — mirroring how instrumentation sites guard on
        ``.enabled`` — so merge call sites need no guard of their own.
        """
        if not snapshot or not self.enabled:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in snapshot.get("histograms", {}).items():
            h = self.histogram(name, payload["bounds"])
            if list(h.bounds) != list(payload["bounds"]):
                raise ParameterError(
                    f"histogram {name!r} bucket layouts disagree; cannot merge"
                )
            for i, c in enumerate(payload["counts"]):
                h.counts[i] += c
            h.count += payload["count"]
            h.sum += payload["sum"]

    def names(self) -> List[str]:
        return sorted(
            list(self._counters) + list(self._gauges) + list(self._histograms)
        )


#: The context-current registry; disabled by default (see module doc).
#: A ``ContextVar`` so the thread-pool execution path can give each
#: worker thread its own per-chunk registry without racing siblings.
_DISABLED = MetricsRegistry(enabled=False)
_CURRENT: ContextVar[MetricsRegistry] = ContextVar(
    "repro_metrics", default=_DISABLED
)


def current_metrics() -> MetricsRegistry:
    return _CURRENT.get()


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Make ``registry`` the context-current registry within the block."""
    token = _CURRENT.set(registry)
    try:
        yield registry
    finally:
        _CURRENT.reset(token)
