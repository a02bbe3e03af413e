"""Property tests for the compact tier's kernels.

The load-bearing guarantee: the int8 scan's survivor sets contain every
true match (the analytic error bound really bounds the quantization
error), across edge cases — all-zero rows, extreme norms, dimensions
that don't divide the pack/block sizes — so the quantized backend's
exactness claim rests on tested ground, not on the bench workload.
"""

import math

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.quant import (
    FLOAT32_EXACT_D,
    IPSketchFilter,
    dequantize_rows,
    hamming_scores,
    pack_sign_rows,
    pair_error_bounds,
    popcount_words,
    quantize_rows,
    quantized_scan_survivors,
    sign_ip_scores,
)
from repro.quant.scalar import MAX_CODE, QUANT_BLOCK_ELEMS, resolve_accumulate


def _random_rows(rng, n, d, scale=1.0):
    return scale * rng.standard_normal((n, d))


def _awkward_rows(rng, n, d):
    """Rows exercising the scan's edge cases in one matrix."""
    X = rng.standard_normal((n, d))
    X[0] = 0.0  # all-zero row: scale 0, codes 0
    X[1] *= 1e-12  # tiny norm
    X[2] *= 1e12  # huge norm
    if n > 3:
        X[3, :] = 0.0
        X[3, 0] = 5.0  # single spike: max |x| >> typical |x|
    return X


def _whole_matrix_quantize(X):
    """The whole-matrix formula ``quantize_rows`` computes block by block:
    ``(codes, scales, norms, eps)``."""
    absmax = np.max(np.abs(X), axis=1)
    scales = absmax / MAX_CODE
    safe = np.where(scales > 0.0, scales, 1.0)
    codes = np.clip(np.rint(X / safe[:, None]), -MAX_CODE, MAX_CODE)
    codes = np.ascontiguousarray(codes, dtype=np.int8)
    norms = np.linalg.norm(X, axis=1)
    eps = 0.5 * scales * math.sqrt(X.shape[1])
    return codes, scales, norms, eps


class TestScalarQuantization:
    @pytest.mark.parametrize("d", [33, 64])
    @pytest.mark.parametrize(
        "blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1), (3, 7)],
        ids=["1", "block-1", "block", "block+1", "2block+1", "3block+7"],
    )
    def test_row_blocks_equal_whole_matrix_formula(self, rng, d, blocks,
                                                   extra):
        n = blocks * (QUANT_BLOCK_ELEMS // d) + extra
        X = rng.standard_normal((n, d))
        X[-1, 1] = -10.0  # largest |x| is a negative entry
        if n > 1:
            X[0] = 0.0  # all-zero row: scale 0, codes 0
        # numpy's row sums follow the memory layout, so each layout is
        # checked against the formula over that same layout.
        for layout in (X, np.asfortranarray(X)):
            q = quantize_rows(layout)
            got = (q.codes, q.scales, q.norms, q.eps)
            for a, b in zip(got, _whole_matrix_quantize(layout)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert q.codes[-1, 1] == -MAX_CODE
        assert q.codes.flags.c_contiguous

    @pytest.mark.parametrize("d", [1, 16, 33, 64])
    def test_roundtrip_error_within_half_scale(self, rng, d):
        X = _random_rows(rng, 20, d)
        q = quantize_rows(X)
        err = np.abs(X - dequantize_rows(q))
        # rint rounds to nearest: per-coordinate error <= scale / 2.
        assert np.all(err <= 0.5 * q.scales[:, None] * (1 + 1e-12))
        assert np.allclose(q.norms, np.linalg.norm(X, axis=1))
        assert np.allclose(q.eps, 0.5 * q.scales * math.sqrt(d))

    def test_zero_rows_are_exact(self, rng):
        X = _random_rows(rng, 5, 8)
        X[2] = 0.0
        q = quantize_rows(X)
        assert q.scales[2] == 0.0
        assert not q.codes[2].any()
        assert np.array_equal(dequantize_rows(q)[2], np.zeros(8))

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_extreme_norms_roundtrip(self, rng, scale):
        X = _random_rows(rng, 10, 24, scale=scale)
        q = quantize_rows(X)
        err = np.abs(X - dequantize_rows(q))
        assert np.all(err <= 0.5 * q.scales[:, None] * (1 + 1e-12))

    def test_nbytes_counts_all_arrays(self, rng):
        X = _random_rows(rng, 7, 64)
        q = quantize_rows(X)
        assert q.nbytes == 7 * 64 + 3 * 7 * 8
        # 8d / (d + 24): 5.8x smaller than float64 rows at d = 64.
        assert X.nbytes >= 4.0 * q.nbytes
        assert q.n == 7 and q.d == 64

    def test_pair_error_bounds_dominate_empirical_error(self, rng):
        P = _awkward_rows(rng, 30, 33)
        Q = _awkward_rows(rng, 12, 33)
        qp, qq = quantize_rows(P), quantize_rows(Q)
        true = Q @ P.T
        approx = dequantize_rows(qq) @ dequantize_rows(qp).T
        bound = pair_error_bounds(qp, qq)
        assert np.all(np.abs(true - approx) <= bound * (1 + 1e-9) + 1e-12)

    def test_resolve_accumulate(self):
        assert resolve_accumulate("auto", FLOAT32_EXACT_D) == "float32"
        assert resolve_accumulate("auto", FLOAT32_EXACT_D + 1) == "int32"
        assert resolve_accumulate("int32", 8) == "int32"


class TestScanSurvivors:
    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 33, 64])
    def test_survivors_contain_all_true_matches(self, signed, seed, d):
        rng = np.random.default_rng(seed)
        P = _awkward_rows(rng, 80, d)
        Q = _awkward_rows(rng, 25, d)
        qp, qq = quantize_rows(P), quantize_rows(Q)
        scores = Q @ P.T if signed else np.abs(Q @ P.T)
        cs = float(np.quantile(scores, 0.9))
        cand, generated, max_bound = quantized_scan_survivors(
            qp, qq, cs, signed, scan_block=32
        )
        assert generated == sum(int(c.size) for c in cand)
        assert max_bound >= 0.0
        for j, lst in enumerate(cand):
            assert np.all(np.diff(lst) > 0)  # ascending, unique
            true = np.nonzero(scores[j] >= cs)[0]
            missing = np.setdiff1d(true, lst)
            assert missing.size == 0, (
                f"query {j} lost true matches {missing}"
            )

    def test_int32_and_float32_accumulate_consistent(self, rng):
        # The scale-folded float32 path thresholds per query exactly;
        # the int32 path divides out a block-max point scale and is
        # strictly looser.  Both must keep every true match; float32
        # survivors must be a subset of int32's.
        P = _random_rows(rng, 60, 48)
        Q = _random_rows(rng, 15, 48)
        qp, qq = quantize_rows(P), quantize_rows(Q)
        cs = 1.5
        a = quantized_scan_survivors(qp, qq, cs, True, accumulate="float32")
        b = quantized_scan_survivors(qp, qq, cs, True, accumulate="int32")
        assert a[1] <= b[1]
        scores = Q @ P.T
        for j, (x, y) in enumerate(zip(a[0], b[0])):
            assert np.setdiff1d(x, y).size == 0
            true = np.nonzero(scores[j] >= cs)[0]
            assert np.setdiff1d(true, x).size == 0

    def test_all_zero_inputs_survive_nothing_above_zero(self):
        Z = np.zeros((10, 16))
        qz = quantize_rows(Z)
        cand, generated, _ = quantized_scan_survivors(qz, qz, 0.5, True)
        assert generated == 0
        assert all(c.size == 0 for c in cand)

    def test_nonpositive_threshold_survives_everything(self, rng):
        # rhs <= 0 means the bound alone bridges the threshold: the scan
        # must keep every pair rather than divide by a zero denominator.
        P = _random_rows(rng, 12, 8, scale=1e-9)
        Q = _random_rows(rng, 4, 8, scale=1e-9)
        cand, generated, _ = quantized_scan_survivors(
            quantize_rows(P), quantize_rows(Q), 1e-30, True
        )
        assert generated == 4 * 12


class TestBitPack:
    def test_popcount_words_matches_python(self, rng):
        words = rng.integers(0, 2**64, size=(5, 3), dtype=np.uint64)
        expected = np.vectorize(lambda w: bin(int(w)).count("1"))(words)
        assert np.array_equal(popcount_words(words), expected)

    @pytest.mark.parametrize("d", [1, 33, 64, 65, 130])
    def test_hamming_matches_naive(self, rng, d):
        P = rng.standard_normal((20, d))
        Q = rng.standard_normal((7, d))
        P[0] = 0.0  # zero coords count as sign -1 in both operands
        ham = hamming_scores(pack_sign_rows(Q), pack_sign_rows(P), block=8)
        naive = ((Q > 0)[:, None, :] != (P > 0)[None, :, :]).sum(axis=-1)
        assert np.array_equal(ham, naive)

    @pytest.mark.parametrize("d", [33, 64])
    def test_sign_ip_matches_dense_sign_product(self, rng, d):
        P = rng.standard_normal((15, d))
        Q = rng.standard_normal((6, d))
        got = sign_ip_scores(pack_sign_rows(Q), pack_sign_rows(P), d)
        signs_p = np.where(P > 0, 1.0, -1.0)
        signs_q = np.where(Q > 0, 1.0, -1.0)
        assert np.array_equal(got, (signs_q @ signs_p.T).astype(np.int64))


class TestIPSketchFilter:
    @pytest.mark.parametrize("bits", [8, 1])
    @pytest.mark.parametrize("signed", [True, False])
    def test_planted_pairs_survive(self, bits, signed):
        rng = np.random.default_rng(7)
        d, n, m, planted = 96, 300, 40, 10
        P = rng.standard_normal((n, d))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        Q = rng.standard_normal((m, d))
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
        rho = 0.9
        idx = rng.choice(n, size=planted, replace=False)
        noise = rng.standard_normal((planted, d))
        noise /= np.linalg.norm(noise, axis=1, keepdims=True)
        Q[:planted] = rho * P[idx] + math.sqrt(1 - rho * rho) * noise
        Q[:planted] /= np.linalg.norm(Q[:planted], axis=1, keepdims=True)
        filt = IPSketchFilter(P, n_dims=64, bits=bits, z=3.0, seed=3)
        threshold = 0.8
        lists, generated, margin = filt.propose_chunk(Q, threshold, signed)
        assert len(lists) == m
        assert margin > 0.0
        assert generated == sum(int(lst.size) for lst in lists)
        true_scores = Q @ P.T if signed else np.abs(Q @ P.T)
        for j in range(m):
            true = np.nonzero(true_scores[j] >= threshold)[0]
            # z=3 sigma margin: all planted pairs survive at these sizes.
            assert np.setdiff1d(true, lists[j]).size == 0

    def test_filter_is_selective(self):
        rng = np.random.default_rng(11)
        d, n, m = 128, 400, 50
        P = rng.standard_normal((n, d))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        Q = rng.standard_normal((m, d))
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
        filt = IPSketchFilter(P, n_dims=64, bits=8, z=3.0, seed=0)
        _, generated, _ = filt.propose_chunk(Q, 0.8, True)
        # Random unit pairs concentrate near 0 << 0.8: the filter must
        # discard the overwhelming majority.
        assert generated < 0.2 * n * m

    def test_seed_determinism(self, rng):
        P = rng.standard_normal((50, 32))
        Q = rng.standard_normal((9, 32))
        a = IPSketchFilter(P, n_dims=16, seed=5).propose_chunk(Q, 2.0, True)
        b = IPSketchFilter(P, n_dims=16, seed=5).propose_chunk(Q, 2.0, True)
        for x, y in zip(a[0], b[0]):
            assert np.array_equal(x, y)

    def test_nbytes_reported(self, rng):
        P = rng.standard_normal((50, 32))
        for bits in (8, 1):
            filt = IPSketchFilter(P, n_dims=16, bits=bits)
            assert filt.nbytes > 0
            assert filt.n == 50
