import gc
import json
import weakref

import numpy as np
import pytest

from repro.core.arena import clone_shell, collect_arrays
from repro.datasets import planted_mips
from repro.lsh import DataDepALSH, LSHIndex
from repro.sketches import SketchCMIPS
from repro.utils.persistence import (
    DIR_FORMAT_VERSION,
    PersistenceError,
    load_structure_dir,
    save_structure_dir,
)


@pytest.fixture(scope="module")
def instance():
    return planted_mips(150, 8, 24, s=0.85, c=0.4, seed=0)


class TestRoundTrips:
    def test_sketch_structure_roundtrip(self, tmp_path, instance):
        structure = SketchCMIPS(instance.P, kappa=3.0, copies=5, seed=2)
        loaded = load_structure_dir(
            save_structure_dir(structure, tmp_path / "sketch"),
            expected_type="SketchCMIPS",
        )
        q = instance.Q[0]
        assert structure.query(q).index == loaded.query(q).index


class TestDirectoryFormat:
    def test_index_roundtrip_memmapped(self, tmp_path, instance):
        idx = LSHIndex(
            DataDepALSH(24, sphere="hyperplane"), n_tables=8,
            hashes_per_table=6, seed=1,
        ).build(instance.P)
        path = save_structure_dir(idx, tmp_path / "index")
        assert (path / "manifest.json").exists()
        assert (path / "shell.pkl").exists()
        assert list((path / "arrays").glob("*.bin"))
        loaded = load_structure_dir(path, expected_type="LSHIndex")
        q = instance.Q[0]
        np.testing.assert_array_equal(
            np.sort(idx.candidates(q)), np.sort(loaded.candidates(q))
        )

    def test_mmap_views_are_read_only_ndarrays(self, tmp_path):
        big = np.arange(4096, dtype=np.float64)
        loaded = load_structure_dir(
            save_structure_dir({"a": big}, tmp_path / "d")
        )
        view = loaded["a"]
        assert type(view) is np.ndarray  # arena-compatible, not memmap type
        assert isinstance(view.base, np.memmap)
        assert not view.flags.writeable
        np.testing.assert_array_equal(view, big)
        # A small top-level array stays in the shell: no sidecar.
        path = save_structure_dir(np.arange(5), tmp_path / "small")
        assert not list((path / "arrays").glob("*.bin"))
        np.testing.assert_array_equal(load_structure_dir(path), np.arange(5))

    def test_full_copy_load_is_writable(self, tmp_path):
        big = np.arange(4096, dtype=np.float64)
        path = save_structure_dir({"a": big}, tmp_path / "d")
        copied = load_structure_dir(path, mmap=False)["a"]
        assert copied.flags.writeable
        copied += 1.0  # mutating the copy must not touch the sidecar
        np.testing.assert_array_equal(load_structure_dir(path)["a"], big)

    def test_identity_dedup_stores_shared_array_once(self, tmp_path):
        big = np.arange(4096, dtype=np.float64)
        path = save_structure_dir({"a": big, "b": big}, tmp_path / "d")
        assert len(list((path / "arrays").glob("*.bin"))) == 1
        loaded = load_structure_dir(path)
        assert loaded["a"] is loaded["b"]

    def test_truncated_sidecar_raises_typed_error(self, tmp_path):
        path = save_structure_dir(
            {"a": np.arange(4096, dtype=np.float64)}, tmp_path / "d"
        )
        sidecar = next((path / "arrays").glob("*.bin"))
        sidecar.write_bytes(sidecar.read_bytes()[:-16])
        with pytest.raises(PersistenceError, match="truncated sidecar"):
            load_structure_dir(path)

    def test_truncated_shell_raises_typed_error(self, tmp_path):
        path = save_structure_dir(
            {"a": np.arange(4096, dtype=np.float64)}, tmp_path / "d"
        )
        shell = path / "shell.pkl"
        size = shell.stat().st_size
        shell.write_bytes(shell.read_bytes()[:-4])
        with pytest.raises(PersistenceError, match="truncated shell"):
            load_structure_dir(path)
        # Garbage of the size the manifest records fails to decode.
        shell.write_bytes(b"\x80\x05garbage".ljust(size, b"\x00"))
        with pytest.raises(PersistenceError, match="corrupt shell pickle"):
            load_structure_dir(path)

    def test_missing_and_corrupt_manifests(self, tmp_path):
        with pytest.raises(PersistenceError, match="no structure directory"):
            load_structure_dir(tmp_path / "absent")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(PersistenceError, match="not a structure directory"):
            load_structure_dir(empty)
        path = save_structure_dir({"a": np.arange(3)}, tmp_path / "d")
        (path / "manifest.json").write_text("{not json")
        with pytest.raises(PersistenceError, match="corrupt manifest"):
            load_structure_dir(path)
        (path / "manifest.json").write_text(json.dumps({"magic": "other"}))
        with pytest.raises(PersistenceError,
                           match="not a repro structure directory"):
            load_structure_dir(path)

    def test_version_check(self, tmp_path):
        path = save_structure_dir({"a": np.arange(3)}, tmp_path / "d")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = DIR_FORMAT_VERSION + 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="format version"):
            load_structure_dir(path)

    def test_type_check(self, tmp_path):
        path = save_structure_dir({"a": np.arange(3)}, tmp_path / "d")
        with pytest.raises(PersistenceError, match="expected SessionState"):
            load_structure_dir(path, expected_type="SessionState")

    def test_atomic_save_leaves_no_tmp_and_overwrites(self, tmp_path):
        target = tmp_path / "d"
        save_structure_dir({"v": 1}, target)
        save_structure_dir({"v": 2}, target)  # overwrite replaces in place
        assert load_structure_dir(target)["v"] == 2
        assert not (tmp_path / "d.tmp").exists()
        with pytest.raises(PersistenceError, match="already exists"):
            save_structure_dir({"v": 3}, target, overwrite=False)
        assert load_structure_dir(target)["v"] == 2

    def test_never_replaces_a_non_structure_path(self, tmp_path):
        plain = tmp_path / "precious"
        plain.mkdir()
        (plain / "data.txt").write_text("keep me")
        with pytest.raises(PersistenceError, match="refusing to replace"):
            save_structure_dir({"v": 1}, plain)
        assert (plain / "data.txt").read_text() == "keep me"


class TestDetourRule:
    """The one rule every detour applies: a plain ndarray of at least
    ``ARENA_MIN_BYTES`` leaves the pickle, anything else stays in it."""

    def test_object_arrays_stay_in_the_shell(self, tmp_path):
        ragged = np.array([list(range(i % 5)) for i in range(1000)],
                          dtype=object)
        assert ragged.nbytes >= 4096
        path = save_structure_dir({"ragged": ragged}, tmp_path / "d")
        assert not list((path / "arrays").glob("*.bin"))
        loaded = load_structure_dir(path)["ragged"]
        assert loaded.dtype == object
        assert [list(row) for row in loaded] == [list(row) for row in ragged]
        clone = clone_shell({"ragged": ragged})["ragged"]
        assert clone is not ragged
        assert [list(row) for row in clone] == [list(row) for row in ragged]
        assert collect_arrays({"ragged": ragged}) == []

    def test_detoured_arrays_die_with_their_last_reference(self, tmp_path):
        # No detour may hold an array past its call: with the cyclic
        # collector off, dropping the caller's last reference frees it.
        gc.disable()
        try:
            saved = np.arange(4096, dtype=np.float64)
            saved_ref = weakref.ref(saved)
            path = save_structure_dir({"a": saved}, tmp_path / "d")
            del saved
            assert saved_ref() is None

            view = load_structure_dir(path)["a"]
            view_ref = weakref.ref(view)
            del view
            assert view_ref() is None

            walked = np.arange(4096, dtype=np.float64)
            walked_ref = weakref.ref(walked)
            assert collect_arrays({"a": walked})[0] is walked
            del walked
            assert walked_ref() is None
        finally:
            gc.enable()
