"""Process resource snapshots: RSS, page faults, arena bytes, pool health.

The memmap-served indexes of ``engine.open_path`` trade resident memory
for page faults, and the shared-memory arena trades ``/dev/shm`` bytes
for pickle time — trade-offs that only show up in *process* counters,
not in the join's own metrics.  This module reads them cheaply enough
to sit at query boundaries:

* **RSS** from ``/proc/self/statm`` (resident pages x ``SC_PAGE_SIZE``),
  the same technique the memmap load gate in ``benchmarks/`` uses; off
  Linux it falls back to ``ru_maxrss`` (a high-water mark, not an
  instantaneous value — ``rss_is_peak`` says which you got).
* **minor/major fault counts** from ``/proc/self/stat`` (fields 10 and
  12; parsed after the last ``)`` so a comm containing spaces or parens
  cannot shift the fields).
* **arena bytes / pool health** are passed in by the caller — the
  session knows its :class:`~repro.core.arena.SharedArena` and rebuild
  counters; this module just records them.

Two consumption modes:

* :func:`snapshot` — one on-demand :class:`ResourceSnapshot`; the
  session takes these at query boundaries when a sink is attached.
* :class:`ResourcePoller` — a daemon thread sampling at a fixed
  interval into a bounded ring (and optionally a sink), for watching a
  long-running session from outside the query path.

One snapshot costs two small ``/proc`` reads (~10 us); the poller adds
nothing to the query path at all.
"""

from __future__ import annotations

import os
import resource
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.errors import ParameterError

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096
_HAS_PROC = os.path.exists("/proc/self/statm")


@dataclass
class ResourceSnapshot:
    """One instant's process resource readings (plain data, sinkable)."""

    ts: float
    rss_bytes: int
    minor_faults: int
    major_faults: int
    #: True when ``rss_bytes`` is the ``ru_maxrss`` peak fallback rather
    #: than the instantaneous ``/proc/self/statm`` reading.
    rss_is_peak: bool = False
    #: Live shared-arena segment bytes (0 when no pool is attached).
    arena_bytes: int = 0
    #: Session pool health counters (``pool_rebuilds``, ``worker_crashes``).
    pool: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ts": self.ts,
            "rss_bytes": self.rss_bytes,
            "minor_faults": self.minor_faults,
            "major_faults": self.major_faults,
            "rss_is_peak": self.rss_is_peak,
            "arena_bytes": self.arena_bytes,
            "pool": dict(self.pool),
        }


def rss_bytes() -> int:
    """Instantaneous resident set size (peak fallback off Linux)."""
    if _HAS_PROC:
        with open("/proc/self/statm", "r") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return ru * (1024 if sys.platform != "darwin" else 1)


def page_faults() -> tuple:
    """``(minor, major)`` fault counts for this process since start."""
    if _HAS_PROC:
        with open("/proc/self/stat", "r") as fh:
            stat = fh.read()
        # Fields 10 (minflt) and 12 (majflt), counted 1-based from pid;
        # split after the last ')' so the comm field cannot shift them.
        rest = stat.rsplit(")", 1)[1].split()
        return int(rest[7]), int(rest[9])
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return int(ru.ru_minflt), int(ru.ru_majflt)


def snapshot(
    arena_bytes: int = 0, pool: Optional[Dict[str, int]] = None
) -> ResourceSnapshot:
    """One on-demand :class:`ResourceSnapshot` for this process."""
    minor, major = page_faults()
    return ResourceSnapshot(
        ts=time.time(),
        rss_bytes=rss_bytes(),
        minor_faults=minor,
        major_faults=major,
        rss_is_peak=not _HAS_PROC,
        arena_bytes=int(arena_bytes),
        pool=dict(pool) if pool else {},
    )


class ResourcePoller:
    """Background sampler: a daemon thread filling a bounded ring.

    Parameters
    ----------
    interval_s:
        Seconds between samples.
    keep:
        Ring size; older snapshots are dropped.
    extra:
        Optional zero-argument callable returning ``(arena_bytes, pool)``
        for each sample — the session passes a closure over its live
        pool so arena bytes track rebuilds.
    sink:
        Optional :class:`~repro.obs.sink.EventSink`; every sample is
        also emitted there as a ``resource`` event.
    """

    def __init__(
        self,
        interval_s: float = 1.0,
        keep: int = 512,
        extra: Optional[Callable[[], tuple]] = None,
        sink: Optional[Any] = None,
    ):
        if interval_s <= 0:
            raise ParameterError("poll interval must be positive")
        if keep <= 0:
            raise ParameterError("keep must be positive")
        self.interval_s = float(interval_s)
        self.samples: Deque[ResourceSnapshot] = deque(maxlen=keep)
        self._extra = extra
        self._sink = sink
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample_once(self) -> ResourceSnapshot:
        arena_bytes, pool = (0, None)
        if self._extra is not None:
            try:
                arena_bytes, pool = self._extra()
            except Exception:
                pass  # a mid-rebuild pool must not kill the poller
        snap = snapshot(arena_bytes=arena_bytes, pool=pool)
        self.samples.append(snap)
        if self._sink is not None:
            self._sink.emit("resource", snap.to_dict())
        return snap

    def start(self) -> "ResourcePoller":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-poller", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5 * self.interval_s + 1.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def __enter__(self) -> "ResourcePoller":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def timeline(snaps: List[ResourceSnapshot]) -> List[dict]:
    """Per-sample deltas (fault rates, RSS movement) for reporting."""
    rows: List[dict] = []
    prev: Optional[ResourceSnapshot] = None
    for s in snaps:
        row = s.to_dict()
        if prev is not None:
            row["d_minor_faults"] = s.minor_faults - prev.minor_faults
            row["d_major_faults"] = s.major_faults - prev.major_faults
            row["d_rss_bytes"] = s.rss_bytes - prev.rss_bytes
        rows.append(row)
        prev = s
    return rows
