import numpy as np
import pytest

from repro.datasets import planted_mips
from repro.lsh import DataDepALSH, LSHIndex
from repro.sketches import SketchCMIPS
from repro.utils.persistence import (
    DIR_FORMAT_VERSION,
    FORMAT_VERSION,
    PersistenceError,
    load_structure,
    load_structure_dir,
    save_structure,
    save_structure_dir,
)


@pytest.fixture(scope="module")
def instance():
    return planted_mips(150, 8, 24, s=0.85, c=0.4, seed=0)


class TestRoundTrips:
    def test_batch_index_roundtrip(self, tmp_path, instance):
        idx = LSHIndex(
            DataDepALSH(24, sphere="hyperplane"), n_tables=8,
            hashes_per_table=6, seed=1,
        ).build(instance.P)
        path = tmp_path / "index.repro"
        save_structure(idx, path)
        loaded = load_structure(path, expected_type="LSHIndex")
        q = instance.Q[0]
        np.testing.assert_array_equal(
            np.sort(idx.candidates(q)), np.sort(loaded.candidates(q))
        )

    def test_sketch_structure_roundtrip(self, tmp_path, instance):
        structure = SketchCMIPS(instance.P, kappa=3.0, copies=5, seed=2)
        path = tmp_path / "sketch.repro"
        save_structure(structure, path)
        loaded = load_structure(path)
        q = instance.Q[0]
        assert structure.query(q).index == loaded.query(q).index

    def test_plain_array_roundtrip(self, tmp_path):
        save_structure(np.arange(5), tmp_path / "a.repro")
        np.testing.assert_array_equal(
            load_structure(tmp_path / "a.repro"), np.arange(5)
        )


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError, match="no structure file"):
            load_structure(tmp_path / "absent.repro")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "corrupt.repro"
        path.write_bytes(b"\x80\x04 garbage")
        with pytest.raises(PersistenceError):
            load_structure(path)

    def test_non_repro_pickle(self, tmp_path):
        import pickle
        path = tmp_path / "plain.pkl"
        path.write_bytes(pickle.dumps({"hello": 1}))
        with pytest.raises(PersistenceError, match="not a repro structure"):
            load_structure(path)

    def test_type_check(self, tmp_path):
        save_structure(np.arange(3), tmp_path / "a.repro")
        with pytest.raises(PersistenceError, match="expected LSHIndex"):
            load_structure(tmp_path / "a.repro", expected_type="LSHIndex")

    def test_version_check(self, tmp_path):
        import pickle
        path = tmp_path / "old.repro"
        payload = {
            "magic": b"repro-structure",
            "format_version": FORMAT_VERSION + 1,
            "type": "X",
            "object": 1,
        }
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(PersistenceError, match="format version"):
            load_structure(path)


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
        shell.write_bytes(shell.read_bytes()[:-4])
        with pytest.raises(PersistenceError, match="truncated shell"):
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

    def test_version_check(self, tmp_path):
        import json
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
