"""Structure persistence: save and load built indexes and sketches.

Index construction is the expensive step of every data structure in this
library; persistence lets a user build once and query across processes.
Two formats, both versioned so incompatible loads fail loudly
(:class:`PersistenceError`) instead of strangely:

* **Single file** (:func:`save_structure` / :func:`load_structure`) —
  pickle with a magic/version header.  Compact and universal, but the
  whole object (arrays included) is deserialized into fresh memory on
  every load.
* **Directory** (:func:`save_structure_dir` / :func:`load_structure_dir`)
  — a ``manifest.json`` (format version, object type, array table), a
  ``shell.pkl`` holding the object graph with every large array detoured
  to a raw sidecar file under ``arrays/``, and those sidecars loaded via
  ``np.memmap`` so a service opening a saved index maps the pages
  instead of copying them: N processes serving the same index share one
  page cache, and load time is independent of index size.  Sidecar
  views come back as plain read-only ``np.ndarray`` objects (memmap
  based), so downstream machinery that type-checks arrays — the
  shared-memory arena's freeze detour in particular — treats them
  exactly like in-memory arrays.

Both writers are **atomic**: content goes to ``<path>.tmp`` first, is
fsynced, and is renamed over the destination in one step — a crash
mid-save can never leave a truncated file under the real name.  Loaders
verify sizes and translate every decode failure into
:class:`PersistenceError`, so a file truncated by some *other* writer
still fails with a typed error rather than a bare pickle exception.
"""

from __future__ import annotations

import io
import json
import mmap as mmaplib
import os
import pickle
import shutil
from pathlib import Path
from typing import Any, List, Optional

import numpy as np

from repro.errors import ReproError

#: Bumped when persisted layouts change incompatibly (2: one fused
#: ``LSHIndex`` replaced the per-table and sign-only LSH indexes).
FORMAT_VERSION = 2

#: Directory-format version, independent of the single-file one.
DIR_FORMAT_VERSION = 2

#: Arrays at or above this many bytes become raw sidecar files; smaller
#: ones stay inline in the pickled shell (matches the shared-memory
#: arena's placement threshold).
PERSIST_MIN_BYTES = 4096

_MAGIC = b"repro-structure"
_DIR_MAGIC = "repro-structure-dir"
_MANIFEST = "manifest.json"
_SHELL = "shell.pkl"
_ARRAY_DIR = "arrays"
_ARRAY_TAG = "repro-sidecar-array"

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


def save_structure(obj, path) -> None:
    """Serialize a built structure (index, sketch, engine) to ``path``.

    Atomic: bytes land in ``<path>.tmp`` and are renamed over ``path``
    only after an fsync, so a crash mid-save leaves either the old file
    or the new one — never a truncated hybrid.
    """
    path = Path(path)
    payload = {
        "magic": _MAGIC,
        "format_version": FORMAT_VERSION,
        "type": type(obj).__name__,
        "object": obj,
    }
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        _fsync_file(handle)
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def load_structure(path, expected_type: str = None):
    """Load a structure saved by :func:`save_structure`.

    Args:
        path: file to read.
        expected_type: optional class-name check (e.g. ``"LSHIndex"``)
            so callers fail fast on the wrong file.

    Raises :class:`PersistenceError` on missing, truncated, corrupt, or
    version-incompatible files.  Note the standard pickle caveat: only
    load files you trust.
    """
    path = Path(path)
    if not path.exists():
        raise PersistenceError(f"no structure file at {path}")
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except _DECODE_ERRORS as exc:
        raise PersistenceError(f"corrupt structure file {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise PersistenceError(f"{path} is not a repro structure file")
    if payload.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"{path} uses format version {payload.get('format_version')}, "
            f"this library reads version {FORMAT_VERSION}"
        )
    if expected_type is not None and payload.get("type") != expected_type:
        raise PersistenceError(
            f"{path} holds a {payload.get('type')}, expected {expected_type}"
        )
    return payload["object"]


# ---------------------------------------------------------------------------
# Directory format: manifest + shell pickle + raw array sidecars


def save_structure_dir(
    obj,
    path,
    *,
    threshold: int = PERSIST_MIN_BYTES,
    overwrite: bool = True,
) -> Path:
    """Save a structure as a versioned directory with raw array sidecars.

    Layout::

        <path>/
          manifest.json     format version, type, array table
          shell.pkl         the object graph, large arrays detoured
          arrays/0000.bin   raw C-order bytes of each detoured array

    Every ndarray of at least ``threshold`` bytes is written once (deduped
    by object identity, like the shared-memory arena) as a raw sidecar and
    replaced in the pickle stream by a ``(tag, index)`` reference, so
    :func:`load_structure_dir` can reconstruct it as a ``np.memmap`` view
    instead of copying bytes through the pickle machinery.

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
    seen: dict = {}
    keepalive: List[np.ndarray] = []

    class _SidecarPickler(pickle.Pickler):
        def persistent_id(self, target):
            if type(target) is np.ndarray and target.nbytes >= threshold:
                index = seen.get(id(target))
                if index is None:
                    index = len(entries)
                    seen[id(target)] = index
                    keepalive.append(target)
                    contiguous = np.ascontiguousarray(target)
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
                return (_ARRAY_TAG, index)
            return None

    buffer = io.BytesIO()
    _SidecarPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    shell = buffer.getvalue()
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

    class _SidecarUnpickler(pickle.Unpickler):
        def persistent_load(self, pid):
            if (
                isinstance(pid, tuple)
                and len(pid) == 2
                and pid[0] == _ARRAY_TAG
                and isinstance(pid[1], int)
                and 0 <= pid[1] < len(arrays)
            ):
                return arrays[pid[1]]
            raise PersistenceError(
                f"unknown persistent reference {pid!r} in {path}"
            )

    try:
        with open(shell_path, "rb") as handle:
            return _SidecarUnpickler(handle).load()
    except _DECODE_ERRORS as exc:
        raise PersistenceError(f"corrupt shell pickle in {path}: {exc}") from exc
