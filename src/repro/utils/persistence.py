"""Structure persistence: save and load built indexes and sketches.

Index construction is the expensive step of every data structure in this
library; persistence lets a user build once and query across processes.
A structure is saved as a versioned directory
(:func:`save_structure_dir` / :func:`load_structure_dir`), so an
incompatible load fails loudly (:class:`PersistenceError`) instead of
strangely:

* ``manifest.json`` — magic, format version, object type, array table;
* ``shell.pkl`` — the object graph, pickled by the array detour of
  :mod:`repro.core.arena` (the rule the shared-memory arena uses: every
  plain ndarray of at least ``ARENA_MIN_BYTES`` leaves the pickle);
* ``arrays/0000.bin`` ... — one raw sidecar file per detoured array.

Sidecars load via ``np.memmap``, so a service opening a saved index maps
the pages instead of copying them: N processes serving the same index
share one page cache, and load time is independent of index size.
Sidecar views come back as plain read-only ``np.ndarray`` objects
(memmap based), so the arena's freeze detour treats them exactly like
in-memory arrays.

The writer is **atomic**: the tree is assembled under ``<path>.tmp``,
fsynced, and renamed over the destination in one step — a crash mid-save
can never leave a truncated structure under the real name.  The loader
verifies sizes and translates every decode failure into
:class:`PersistenceError`, so a file truncated by some *other* writer
still fails with a typed error rather than a bare pickle exception.
"""

from __future__ import annotations

import json
import mmap as mmaplib
import os
import pickle
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.arena import detour_dumps, detour_loads
from repro.errors import ReproError

#: Bumped when persisted layouts change incompatibly (2: one fused
#: ``LSHIndex`` replaced the per-table and sign-only LSH indexes; 3: the
#: ``set_scan`` postings gained their head bitmaps; 4: ``ip_filter``
#: verifies its own survivors, and Plan stages lost their ``kind``;
#: 5: payloads lost their ``spec`` and ``block``, and brute force's
#: payload is ``None``).
DIR_FORMAT_VERSION = 5

_DIR_MAGIC = "repro-structure-dir"
_MANIFEST = "manifest.json"
_SHELL = "shell.pkl"
_ARRAY_DIR = "arrays"

#: Exceptions a corrupt/truncated pickle stream can raise while decoding.
_DECODE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    ValueError,
    IndexError,
    AttributeError,
    ImportError,
    KeyError,
    MemoryError,
)


class PersistenceError(ReproError):
    """A structure file is missing, corrupt, or from an incompatible version."""


def _fsync_file(handle) -> None:
    handle.flush()
    os.fsync(handle.fileno())


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# Directory format: manifest + shell pickle + raw array sidecars


def save_structure_dir(obj, path, *, overwrite: bool = True) -> Path:
    """Save a structure as a versioned directory with raw array sidecars.

    Layout::

        <path>/
          manifest.json     format version, type, array table
          shell.pkl         the object graph, large arrays detoured
          arrays/0000.bin   raw C-order bytes of each detoured array

    Every array the detour of :mod:`repro.core.arena` takes out of the
    pickle is written once (deduped by object identity, like the
    shared-memory arena) as a raw sidecar and replaced in the shell by
    its sidecar index, so :func:`load_structure_dir` can reconstruct it
    as a ``np.memmap`` view instead of copying bytes through the pickle
    machinery.

    Atomic: the whole tree is assembled under ``<path>.tmp`` (files and
    directories fsynced) and renamed into place in one step.  With
    ``overwrite`` (default) an existing structure directory at ``path``
    is replaced; anything at ``path`` that is *not* a structure directory
    is never deleted.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    array_dir = tmp / _ARRAY_DIR
    array_dir.mkdir(parents=True)

    entries: List[dict] = []
    # id(arr) -> (sidecar index, arr): holding the array keeps a freed
    # temporary's id from aliasing a later array.
    written: Dict[int, Tuple[int, np.ndarray]] = {}

    def place(arr: np.ndarray) -> int:
        hit = written.get(id(arr))
        if hit is not None:
            return hit[0]
        index = len(entries)
        written[id(arr)] = (index, arr)
        contiguous = np.ascontiguousarray(arr)
        name = f"{_ARRAY_DIR}/{index:04d}.bin"
        with open(tmp / name, "wb") as handle:
            contiguous.tofile(handle)
            _fsync_file(handle)
        entries.append({
            "file": name,
            "dtype": contiguous.dtype.str,
            "shape": list(contiguous.shape),
            "nbytes": int(contiguous.nbytes),
        })
        return index

    shell = detour_dumps(obj, place)
    with open(tmp / _SHELL, "wb") as handle:
        handle.write(shell)
        _fsync_file(handle)
    manifest = {
        "magic": _DIR_MAGIC,
        "format_version": DIR_FORMAT_VERSION,
        "type": type(obj).__name__,
        "shell": _SHELL,
        "shell_nbytes": len(shell),
        "arrays": entries,
    }
    with open(tmp / _MANIFEST, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
        _fsync_file(handle)
    _fsync_dir(array_dir)
    _fsync_dir(tmp)
    if path.exists():
        if not overwrite:
            raise PersistenceError(f"{path} already exists")
        if not (path.is_dir() and (path / _MANIFEST).exists()):
            raise PersistenceError(
                f"{path} exists and is not a repro structure directory; "
                "refusing to replace it"
            )
        shutil.rmtree(path)
    os.rename(tmp, path)
    _fsync_dir(path.parent)
    return path


def _load_manifest(path: Path) -> dict:
    manifest_path = path / _MANIFEST
    if not path.exists():
        raise PersistenceError(f"no structure directory at {path}")
    if not manifest_path.exists():
        raise PersistenceError(f"{path} has no {_MANIFEST}: not a structure directory")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise PersistenceError(f"corrupt manifest in {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("magic") != _DIR_MAGIC:
        raise PersistenceError(f"{path} is not a repro structure directory")
    if manifest.get("format_version") != DIR_FORMAT_VERSION:
        raise PersistenceError(
            f"{path} uses directory format version "
            f"{manifest.get('format_version')}, this library reads version "
            f"{DIR_FORMAT_VERSION}"
        )
    return manifest


def _advise_random(mapped) -> None:
    """``MADV_RANDOM`` on a sidecar mapping, where the platform has it.

    Served indexes are point-queried: candidate verification gathers
    scattered rows, and the kernel's default sequential readahead turns
    each 4 KiB fault into ~128 KiB of neighbours — enough to pull a
    whole index resident behind a handful of queries.  Advising random
    access keeps a memmap-loaded session's RSS proportional to the rows
    actually touched.  Best-effort: a no-op off Linux/CPython.
    """
    advise = getattr(getattr(mapped, "_mmap", None), "madvise", None)
    flag = getattr(mmaplib, "MADV_RANDOM", None)
    if advise is not None and flag is not None:
        try:
            advise(flag)
        except (OSError, ValueError):
            pass


def load_structure_dir(
    path,
    expected_type: Optional[str] = None,
    *,
    mmap: bool = True,
):
    """Load a structure saved by :func:`save_structure_dir`.

    With ``mmap=True`` (default) every sidecar array comes back as a
    read-only ``np.ndarray`` view over a ``np.memmap`` — the file's pages
    are mapped, not copied, so loading a multi-gigabyte index costs
    milliseconds and peak RSS stays at the shell size until queries
    actually touch the data.  ``mmap=False`` reads full in-memory copies
    (writable), for callers that intend to mutate.

    Every sidecar is size-checked against the manifest before the shell
    is decoded, so a truncated array file raises
    :class:`PersistenceError` up front rather than a numpy error later.
    """
    path = Path(path)
    manifest = _load_manifest(path)
    if expected_type is not None and manifest.get("type") != expected_type:
        raise PersistenceError(
            f"{path} holds a {manifest.get('type')}, expected {expected_type}"
        )
    entries = manifest.get("arrays")
    if not isinstance(entries, list):
        raise PersistenceError(f"corrupt manifest in {path}: bad array table")
    arrays: List[np.ndarray] = []
    for entry in entries:
        try:
            file = path / entry["file"]
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(v) for v in entry["shape"])
            nbytes = int(entry["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(
                f"corrupt manifest in {path}: bad array entry: {exc}"
            ) from exc
        if not file.exists():
            raise PersistenceError(f"{path} is missing sidecar {entry['file']}")
        actual = file.stat().st_size
        if actual != nbytes:
            raise PersistenceError(
                f"truncated sidecar {entry['file']} in {path}: "
                f"{actual} bytes on disk, manifest says {nbytes}"
            )
        if mmap:
            mapped = np.memmap(file, dtype=dtype, mode="r", shape=shape)
            _advise_random(mapped)
            arrays.append(mapped.view(np.ndarray))
        else:
            arrays.append(np.fromfile(file, dtype=dtype).reshape(shape))
    shell_path = path / manifest.get("shell", _SHELL)
    if not shell_path.exists():
        raise PersistenceError(f"{path} is missing its shell pickle")
    expected_shell = manifest.get("shell_nbytes")
    if expected_shell is not None and shell_path.stat().st_size != expected_shell:
        raise PersistenceError(
            f"truncated shell pickle in {path}: "
            f"{shell_path.stat().st_size} bytes on disk, manifest says "
            f"{expected_shell}"
        )

    def resolve(index) -> np.ndarray:
        if isinstance(index, int) and 0 <= index < len(arrays):
            return arrays[index]
        raise PersistenceError(
            f"unknown persistent reference {index!r} in {path}"
        )

    try:
        return detour_loads(shell_path.read_bytes(), resolve)
    except _DECODE_ERRORS as exc:
        raise PersistenceError(f"corrupt shell pickle in {path}: {exc}") from exc
