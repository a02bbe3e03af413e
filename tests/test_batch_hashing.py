"""Batch hashing protocol: native vectorized hashers vs per-row reference.

Every concrete family's ``sample_batch`` hasher must produce *exactly*
the keys of its own per-row reference path (``hash_rows``), and an
``LSHIndex`` built through the batch path must produce exactly the
candidate sets of the generic per-vector closure path (the same family
behind :class:`PerRow`, which has no native hasher) for a shared seed —
the batch protocol's core contract.
"""

import numpy as np
import pytest

from repro.lsh import (
    AsymmetricMinHash,
    CrossPolytopeLSH,
    DataDepALSH,
    E2LSH,
    HyperplaneLSH,
    L2ALSH,
    LSHIndex,
    MinHash,
    SignALSH,
    SimpleALSH,
    SymmetricIPSHash,
)
from repro.errors import ValidationError
from repro.lsh import batch_hash
from repro.lsh.base import MISS_KEY, AsymmetricLSHFamily
from repro.lsh.crosspolytope import _ROTATION_CACHE, sample_rotation

D = 10
SEED = 1234


class PerRow(AsymmetricLSHFamily):
    """``family``'s hash pairs without its native hasher: ``sample_batch``
    is the base default (``None``), so an index over it hashes through
    the generic per-row closure path."""

    def __init__(self, family):
        self.family = family

    def sample(self, rng):
        return self.family.sample(rng)


def _dense_data(rng, n=40):
    P = rng.normal(size=(n, D))
    P /= np.linalg.norm(P, axis=1, keepdims=True) * 1.25
    Q = rng.normal(size=(n // 2, D))
    Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    return P, Q


def _binary_data(rng, universe, max_norm, n=40):
    P = np.zeros((n, universe), dtype=np.int64)
    for row in P:
        row[rng.choice(universe, size=rng.integers(1, max_norm + 1), replace=False)] = 1
    Q = np.zeros((n // 2, universe), dtype=np.int64)
    for row in Q:
        row[rng.choice(universe, size=rng.integers(1, universe // 2), replace=False)] = 1
    return P, Q


def _family_and_data(name, rng):
    if name == "hyperplane":
        return HyperplaneLSH(D), _dense_data(rng)
    if name == "crosspolytope":
        return CrossPolytopeLSH(D), _dense_data(rng)
    if name == "e2lsh":
        return E2LSH(D, w=2.0), _dense_data(rng)
    if name == "simple_alsh":
        return SimpleALSH(D), _dense_data(rng)
    if name == "sign_alsh":
        P, Q = _dense_data(rng)
        return SignALSH.fit(P), (P, Q)
    if name == "l2alsh":
        P, Q = _dense_data(rng)
        return L2ALSH.fit(P), (P, Q)
    if name == "datadep":
        return DataDepALSH(D), _dense_data(rng)
    if name == "symmetric":
        return SymmetricIPSHash(D, sphere="hyperplane"), _dense_data(rng)
    if name == "minhash":
        return MinHash(24), _binary_data(rng, 24, 6)
    if name == "asym_minhash":
        return AsymmetricMinHash(24, max_norm=6), _binary_data(rng, 24, 6)
    raise AssertionError(name)


FAMILIES = [
    "hyperplane",
    "crosspolytope",
    "e2lsh",
    "simple_alsh",
    "sign_alsh",
    "l2alsh",
    "datadep",
    "symmetric",
    "minhash",
    "asym_minhash",
]


#: Families whose hashers are sign projections: blocked GEMM, multiprobe.
SIGN_FAMILIES = ["hyperplane", "simple_alsh", "sign_alsh", "symmetric"]

#: GEMM rows per block for the blocked inputs: the 40 data rows and 20
#: query rows of ``_dense_data`` then hash in 14 and 7 blocks of 2 or 3
#: rows.
BLOCK_ROWS = 3


def _blocked(monkeypatch, hasher, rows):
    """Shrink the sign hasher's block budget to ``rows`` rows a block."""
    if rows is not None:
        width = hasher._projections.shape[0]
        monkeypatch.setattr(batch_hash, "SIGN_BLOCK_ELEMS", rows * width)


@pytest.mark.parametrize("name,block_rows", [
    *(pytest.param(name, None, id=name) for name in FAMILIES),
    *(pytest.param(name, BLOCK_ROWS, id=f"{name}-blocked")
      for name in SIGN_FAMILIES),
])
def test_hash_matrix_equals_per_row_reference(name, block_rows, monkeypatch):
    rng = np.random.default_rng(SEED)
    family, (P, Q) = _family_and_data(name, rng)
    hasher = family.sample_batch(np.random.default_rng(SEED + 1), 3, 4)
    assert hasher is not None and hasher.is_native
    _blocked(monkeypatch, hasher, block_rows)
    for X, side in ((P, "data"), (Q, "query")):
        batch = hasher.hash_matrix(X, side=side)
        rows = hasher.hash_rows(X, side=side)
        assert batch.shape == (X.shape[0], 4)
        assert batch.dtype == np.int64
        assert np.array_equal(batch, rows), f"{name}/{side}"


@pytest.mark.parametrize("k,block_rows", [
    *(pytest.param(k, None, id=str(k)) for k in (12, 58)),
    *(pytest.param(k, BLOCK_ROWS, id=f"{k}-blocked") for k in (12, 58)),
])
def test_sign_pack_exact_at_every_width(k, block_rows, monkeypatch):
    # float64 and int64 bit weights: the matvec pack must equal the
    # scalar Horner reference at each width.
    P, Q = _dense_data(np.random.default_rng(SEED))
    hasher = HyperplaneLSH(D).sample_batch(np.random.default_rng(SEED + 1), k, 2)
    _blocked(monkeypatch, hasher, block_rows)
    for X, side in ((P, "data"), (Q, "query")):
        assert np.array_equal(hasher.hash_matrix(X, side), hasher.hash_rows(X, side))


@pytest.mark.parametrize("name", FAMILIES)
def test_batch_index_matches_generic_index(name):
    rng = np.random.default_rng(SEED + 2)
    family, (P, Q) = _family_and_data(name, rng)
    batch_index = LSHIndex(family, n_tables=4, hashes_per_table=3, seed=99).build(P)
    generic_index = LSHIndex(
        PerRow(family), n_tables=4, hashes_per_table=3, seed=99
    ).build(P)
    assert batch_index.uses_batch_hashing
    assert not generic_index.uses_batch_hashing
    batch_cands = batch_index.candidates_batch(Q)
    generic_cands = generic_index.candidates_batch(Q)
    for b, g in zip(batch_cands, generic_cands):
        assert np.array_equal(b, g)
    assert batch_index.stats.candidates > 0
    assert batch_index.stats.candidates == generic_index.stats.candidates
    assert batch_index.stats.unique_candidates == generic_index.stats.unique_candidates
    # scalar path agrees with the batched path on the same index
    for j in range(Q.shape[0]):
        assert np.array_equal(batch_index.candidates(Q[j]), batch_cands[j])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("native", [True, False], ids=["native", "generic"])
@pytest.mark.parametrize("name", ["hyperplane", "crosspolytope", "e2lsh"])
def test_index_entry_points_reject_non_finite_rows(name, native, bad):
    """``LSHIndex`` checks each input once, at ``build`` and at
    ``candidates_batch``; the hasher kernels do not scan it again, so
    those two checks alone must reject NaN and inf."""
    family, (P, Q) = _family_and_data(name, np.random.default_rng(SEED))
    index = LSHIndex(family if native else PerRow(family), n_tables=2,
                     hashes_per_table=3, seed=7)
    assert index.uses_batch_hashing == native
    P_bad, Q_bad = P.copy(), Q.copy()
    P_bad[5, 2] = Q_bad[3, 0] = bad
    with pytest.raises(ValidationError, match="NaN or infinite"):
        index.build(P_bad)
    assert not index.is_built
    index.build(P)
    with pytest.raises(ValidationError, match="NaN or infinite"):
        index.candidates_batch(Q_bad)
    if name == "hyperplane" and native:
        with pytest.raises(ValidationError, match="NaN or infinite"):
            index.candidates_batch(Q_bad, n_probes=1)
    assert index.stats.queries == 0


def test_generic_hasher_marks_itself_non_native():
    index = LSHIndex(PerRow(HyperplaneLSH(D)), n_tables=2, hashes_per_table=2, seed=0)
    assert not index.uses_batch_hashing


def test_query_side_misses_produce_no_candidates():
    # A query key never seen on the data side must fall through cleanly.
    rng = np.random.default_rng(SEED)
    family = MinHash(24)
    P, Q = _binary_data(rng, 24, 6)
    index = LSHIndex(family, n_tables=2, hashes_per_table=2, seed=5).build(P)
    hasher = index._hasher
    keys = hasher.hash_matrix(Q, side="query")
    assert keys.dtype == np.int64
    assert MISS_KEY == np.int64(-1)
    # every returned candidate is a valid data row
    for cands in index.candidates_batch(Q):
        assert np.all((cands >= 0) & (cands < P.shape[0]))


def test_rotation_cache_identical_hashes():
    """Cached and fresh rotations give identical hashes for a fixed seed."""
    state = np.random.default_rng(777).bit_generator.state
    rng_a = np.random.default_rng(777)
    first = sample_rotation(rng_a, D)
    key = (D, repr(state))
    assert key in _ROTATION_CACHE
    rng_b = np.random.default_rng(777)
    cached = sample_rotation(rng_b, D)
    assert cached is first  # second call is a cache hit
    # the hit consumed the same variates: both rngs continue identically
    assert np.array_equal(rng_a.normal(size=3), rng_b.normal(size=3))
    # evicting the entry and resampling reproduces the same rotation
    _ROTATION_CACHE.pop(key)
    fresh = sample_rotation(np.random.default_rng(777), D)
    assert fresh is not first
    assert np.array_equal(fresh, first)
    family = CrossPolytopeLSH(D)
    x = np.random.default_rng(3).normal(size=D)
    x /= np.linalg.norm(x)
    pair_cached = family.sample(np.random.default_rng(42))
    _ROTATION_CACHE.clear()
    pair_fresh = family.sample(np.random.default_rng(42))
    assert pair_cached.hash_data(x) == pair_fresh.hash_data(x)
    assert pair_cached.hash_query(x) == pair_fresh.hash_query(x)


def test_rotation_cache_is_bounded():
    from repro.lsh.crosspolytope import _ROTATION_CACHE_MAX

    _ROTATION_CACHE.clear()
    for i in range(_ROTATION_CACHE_MAX + 10):
        sample_rotation(np.random.default_rng(10_000 + i), 4)
    assert len(_ROTATION_CACHE) <= _ROTATION_CACHE_MAX
