"""Shared-memory arena: zero-copy array transport for parallel joins.

The pre-arena executor shipped ``P``, ``Q`` and every index array through
pickle *per chunk*, which is why 4-worker joins ran at 0.23-0.27x serial
(BENCH_PR3/PR5): the verification GEMMs are memory-bandwidth-bound, and
the same bandwidth was being spent serializing the operands.  This
module moves every large array exactly once into POSIX shared memory
(``multiprocessing.shared_memory``) and ships only tiny descriptors:

* :class:`SharedArena` — a slab allocator over shared-memory segments.
  ``place(arr)`` bump-allocates a 64-byte-aligned region inside the
  current slab (new slabs are created as needed), copies the array in
  once, and returns an :class:`ArenaRef`.  Placement is deduplicated by
  array identity, so placing the same ``P`` for every chunk of every
  call costs one copy total.
* :class:`ArenaRef` — ``(segment, dtype, shape, offset)``: pure data,
  pennies on the wire.  ``resolve()`` maps the segment (cached per
  process) and returns a **read-only** ndarray view — no copy, and no
  way for a worker to corrupt shared state.
* :func:`detour_dumps` / :func:`detour_loads` — the one array detour.
  A plain ndarray (not a subclass, no object fields) of at least
  ``ARENA_MIN_BYTES`` leaves the pickle through the ``persistent_id``
  hook: dumping hands it to a ``place(arr) -> token`` callback, loading
  maps each token back with ``resolve(token) -> arr``.  Every detour in
  the library calls this pair with its own store: :func:`freeze` /
  :func:`thaw` (arena descriptors), :func:`clone_shell` (a list),
  :func:`collect_arrays` (an identity-keyed dict) and the directory
  format of :mod:`repro.utils.persistence` (sidecar files).
* :func:`freeze` / :func:`thaw` — pickle an arbitrary object graph (a
  built index, a sketch structure, a bare matrix) with every detoured
  array swapped for an :class:`ArenaRef`.  The byte payload that
  crosses the process boundary is just the object *shell*; workers
  reconstruct views.  This is fully generic: any payload that pickles
  today is zero-copy tomorrow, including backends registered by third
  parties.

Lifecycle and leak-safety contract:

* The creating process owns every segment: ``close()`` (also run by a
  ``weakref.finalize``) closes and **unlinks** them, so ``/dev/shm``
  holds nothing after a pool shuts down.  Segments stay registered with
  the parent's ``resource_tracker``, so even a crashed parent is swept.
* Attaching processes (workers) never unlink: pool workers inherit the
  parent's resource-tracker fd (a process pool starts the tracker before
  it forks any worker), so Python 3.11's register-on-attach behaviour
  (bpo-39959) is an idempotent re-add to the shared tracker cache,
  balanced by the parent's unlink-time unregister.  The parent remains
  the single owner.
* :func:`repro_segments` lists the live segments this module created,
  which is what the leak tests assert empties out.
"""

from __future__ import annotations

import os
import pickle
import secrets
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from io import BytesIO
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.errors import ParameterError

#: The detour's size floor, for pools and disk alike: smaller arrays
#: pickle inline, where a descriptor plus a segment attachment (or a
#: sidecar file) costs more than copying a few KB.
ARENA_MIN_BYTES = 4096

#: Default slab size.  Slabs grow to fit oversized arrays, so this only
#: bounds fragmentation for the many-small-arrays case (CSR offsets,
#: projection stacks).
DEFAULT_SLAB_BYTES = 16 * 1024 * 1024

#: Byte alignment of every placement (one cache line; also satisfies
#: any numpy dtype's alignment requirement).
_ALIGN = 64

#: Name prefix of every segment this module creates; leak checks and
#: ``/dev/shm`` forensics key on it.
SEGMENT_PREFIX = "repro_arena"


@dataclass(frozen=True)
class ArenaRef:
    """Descriptor of one array placed in a shared-memory slab.

    Pure data — crossing a process boundary costs a few dozen bytes
    regardless of the array's size.  ``resolve()`` returns a read-only,
    C-contiguous view over the mapped segment.
    """

    segment: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    def resolve(self) -> np.ndarray:
        shm = _attach(self.segment)
        arr = np.ndarray(
            self.shape, dtype=np.dtype(self.dtype), buffer=shm.buf,
            offset=self.offset,
        )
        arr.flags.writeable = False
        return arr


class SharedArena:
    """Slab allocator over shared-memory segments, owned by one process.

    Not thread-safe for concurrent ``place`` calls; the executor only
    places from the parent's dispatch thread.
    """

    def __init__(self, slab_bytes: int = DEFAULT_SLAB_BYTES):
        if slab_bytes < _ALIGN:
            raise ParameterError(
                f"slab_bytes must be >= {_ALIGN}, got {slab_bytes}"
            )
        self.slab_bytes = int(slab_bytes)
        self._slabs: List[shared_memory.SharedMemory] = []
        self._cursor = 0  # offset into the current (last) slab
        #: id(arr) -> (ref, keepalive): the keepalive pins the array so
        #: a recycled id can never alias a different array.
        self._placed: Dict[int, Tuple[ArenaRef, np.ndarray]] = {}
        self._closed = False
        self._finalizer = weakref.finalize(self, SharedArena._release, self._slabs)

    # -- allocation ------------------------------------------------------

    def _new_slab(self, min_bytes: int) -> shared_memory.SharedMemory:
        size = max(self.slab_bytes, min_bytes)
        name = f"{SEGMENT_PREFIX}_{os.getpid()}_{secrets.token_hex(4)}"
        slab = shared_memory.SharedMemory(name=name, create=True, size=size)
        self._slabs.append(slab)
        self._cursor = 0
        return slab

    def place(self, arr: np.ndarray) -> ArenaRef:
        """Copy ``arr`` into the arena (once per array object) and
        return its descriptor."""
        if self._closed:
            raise ParameterError("arena is closed")
        if not isinstance(arr, np.ndarray):
            raise ParameterError(
                f"only ndarrays can be placed, got {type(arr).__name__}"
            )
        if arr.dtype == object:
            raise ParameterError("object arrays cannot live in shared memory")
        cached = self._placed.get(id(arr))
        if cached is not None:
            return cached[0]
        contiguous = np.ascontiguousarray(arr)
        nbytes = contiguous.nbytes
        aligned = -(-nbytes // _ALIGN) * _ALIGN
        if not self._slabs or self._cursor + aligned > self._slabs[-1].size:
            slab = self._new_slab(aligned)
        else:
            slab = self._slabs[-1]
        offset = self._cursor
        view = np.ndarray(
            contiguous.shape, dtype=contiguous.dtype, buffer=slab.buf,
            offset=offset,
        )
        view[...] = contiguous
        self._cursor = offset + aligned
        ref = ArenaRef(
            segment=slab.name, dtype=contiguous.dtype.str,
            shape=tuple(contiguous.shape), offset=offset,
        )
        # Pin the *original* object: the dedup key is its id.
        self._placed[id(arr)] = (ref, arr)
        return ref

    # -- lifecycle -------------------------------------------------------

    def segments(self) -> List[str]:
        """Names of the live segments this arena owns."""
        return [slab.name for slab in self._slabs]

    @property
    def nbytes(self) -> int:
        return sum(slab.size for slab in self._slabs)

    @property
    def closed(self) -> bool:
        return self._closed

    @staticmethod
    def _release(slabs: List[shared_memory.SharedMemory]) -> None:
        for slab in slabs:
            # Drop any same-process attachment first so unlink doesn't
            # leave a cached mapping of a dead segment behind.
            cached = _ATTACHED.pop(slab.name, None)
            if cached is not None:
                try:
                    cached.close()
                except BufferError:
                    pass
            try:
                slab.close()
                slab.unlink()
            except (FileNotFoundError, OSError):
                pass  # already unlinked (double close is a no-op)
        slabs.clear()

    def close(self) -> None:
        """Close and unlink every segment; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._placed.clear()
        self._finalizer.detach()
        SharedArena._release(self._slabs)

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Worker-side attachment cache

#: Process-local cache of mapped segments.  Bounded: a persistent worker
#: serving a long-lived pool would otherwise accumulate mappings of
#: retired per-call scratch segments forever.
_ATTACH_CACHE_MAX = 128
_ATTACHED: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()


def _attach(name: str) -> shared_memory.SharedMemory:
    """Map a segment by name, caching per process.

    Python 3.11 registers a segment with the resource tracker on
    *attach* as well as on create (bpo-39959).  That is harmless here —
    pool workers inherit the parent's tracker fd (fork and spawn both
    pass it), so the attach-side registration is an idempotent re-add to
    the same cache and the parent's unlink-time unregister balances it.
    Explicitly unregistering on attach would be WRONG in this topology:
    it would strip the shared tracker's only entry, losing crash
    cleanup and making the final unlink double-unregister.
    """
    shm = _ATTACHED.get(name)
    if shm is not None:
        _ATTACHED.move_to_end(name)
        return shm
    shm = shared_memory.SharedMemory(name=name)
    _ATTACHED[name] = shm
    while len(_ATTACHED) > _ATTACH_CACHE_MAX:
        _, old = _ATTACHED.popitem(last=False)
        try:
            old.close()
        except BufferError:
            # A live view still exports the buffer; keep it mapped.
            _ATTACHED[old.name] = old
            _ATTACHED.move_to_end(old.name, last=False)
            break
    return shm


def detach_all() -> None:
    """Drop every cached attachment (test isolation helper)."""
    while _ATTACHED:
        _, shm = _ATTACHED.popitem()
        try:
            shm.close()
        except BufferError:
            pass


# ---------------------------------------------------------------------------
# The array detour: one pickler pair for pools, threads and disk

#: The detour's persistent-id tag.  Directory-format shells store it, so
#: it is part of the on-disk format; arena tokens never reach disk.
_DETOUR_TAG = "repro-sidecar-array"


class _DetourPickler(pickle.Pickler):
    """Pickler that hands every detoured array to ``place(arr) -> token``.

    The one rule: a plain ``np.ndarray`` (no subclass, no object fields)
    of at least ``ARENA_MIN_BYTES`` leaves the pickle; everything else,
    memmap subclasses and object arrays included, stays in the shell.
    """

    def __init__(self, file, place: Callable[[np.ndarray], Any]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._place = place

    def persistent_id(self, obj):
        if (
            type(obj) is np.ndarray
            and not obj.dtype.hasobject
            and obj.nbytes >= ARENA_MIN_BYTES
        ):
            return (_DETOUR_TAG, self._place(obj))
        return None


class _DetourUnpickler(pickle.Unpickler):
    """Unpickler that maps every detour token back with ``resolve``."""

    def __init__(self, file, resolve: Callable[[Any], np.ndarray]):
        super().__init__(file)
        self._resolve = resolve

    def persistent_load(self, pid):
        if not (isinstance(pid, tuple) and len(pid) == 2
                and pid[0] == _DETOUR_TAG):
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        return self._resolve(pid[1])


def detour_dumps(obj: Any, place: Callable[[np.ndarray], Any]) -> bytes:
    """Pickle ``obj`` with every detoured array replaced by
    ``place(arr)``'s token: the *shell* of the object graph."""
    buffer = BytesIO()
    _DetourPickler(buffer, place).dump(obj)
    return buffer.getvalue()


def detour_loads(shell: bytes, resolve: Callable[[Any], np.ndarray]) -> Any:
    """Rebuild a :func:`detour_dumps` shell, each token becoming
    ``resolve(token)``."""
    return _DetourUnpickler(BytesIO(shell), resolve).load()


def freeze(
    obj: Any,
    arena: SharedArena,
    lookup: Tuple[SharedArena, ...] = (),
) -> bytes:
    """Serialize ``obj`` with its detoured arrays placed in ``arena``.

    The returned bytes hold only the object shell plus
    :class:`ArenaRef` descriptors; :func:`thaw` in any process mapping
    the same segments reconstructs the object with zero array copies.
    Arrays already placed in a ``lookup`` arena are referenced there
    instead of re-copied — how a persistent pool's long-lived arena
    deduplicates ``P`` across calls while per-call scratch arenas hold
    everything ephemeral.
    """

    def place(arr: np.ndarray) -> ArenaRef:
        for prior in lookup:
            hit = prior._placed.get(id(arr))
            if hit is not None:
                return hit[0]
        return arena.place(arr)

    return detour_dumps(obj, place)


def thaw(payload: bytes) -> Any:
    """Reconstruct an object frozen by :func:`freeze` (views, not copies)."""
    return detour_loads(payload, ArenaRef.resolve)


def clone_shell(obj: Any) -> Any:
    """Deep-copy the object *shell*, sharing detoured arrays by reference.

    The thread-pool analogue of :func:`freeze`/:func:`thaw`: each worker
    thread needs its own copy of every small mutable attribute (the LSH
    index's :class:`QueryStats`, scratch dicts) so concurrent chunks
    don't race, while the big read-mostly arrays — projections, CSR
    tables, ``P`` itself — stay shared so nothing is copied per chunk.
    """
    arrays: List[np.ndarray] = []

    def place(arr: np.ndarray) -> int:
        arrays.append(arr)
        return len(arrays) - 1

    return detour_loads(detour_dumps(obj, place), arrays.__getitem__)


def collect_arrays(obj: Any) -> List[np.ndarray]:
    """The arrays :func:`freeze` would detour out of ``obj``, each
    distinct one (by identity) once, in first-encounter order.

    The walk costs a shell pickle, not an array copy.  This is how a
    session finds what to pin into a pool's persistent arena.
    """
    found: Dict[int, np.ndarray] = {}

    def place(arr: np.ndarray) -> int:
        found.setdefault(id(arr), arr)
        return id(arr)

    detour_dumps(obj, place)
    return list(found.values())


def repro_segments() -> List[str]:
    """Live ``/dev/shm`` segments created by this module (leak check).

    Returns an empty list on platforms without a world-readable shm
    mount; the executor tests skip there.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return []
    try:
        entries = os.listdir(shm_dir)
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(SEGMENT_PREFIX))
