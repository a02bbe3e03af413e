"""Inner-product sketch filter in the style of Pagh-Sivertsen.

*The space complexity of inner product filters* (arXiv:1909.10766)
studies exactly this primitive: decide from small sketches whether
``<p, q>`` can reach a threshold, with one-sided error.  Here each data
row is summarized by a seeded Gaussian random projection to ``n_dims``
dimensions — ``E<Gp, Gq> = <p, q>`` with standard deviation at most
``||p|| ||q|| sqrt(2 / n_dims)`` — stored quantized (int8 codes at
``bits=8``, packed sign bits at ``bits=1``).  A pair survives when its
sketch estimate plus a ``z``-standard-deviation confidence margin (plus
the deterministic quantization error bound) reaches the recall anchor
``s``, so pairs at the promise threshold are missed only on >
``z``-sigma estimator deviations, and pairs inside the ``(cs, s)`` gap
stay optional exactly as the ``c``-approximate guarantee allows.

The filter only proposes.  The ``ip_filter`` backend
(:mod:`repro.quant.backend`) hands each chunk's survivor block to the
shared filter-then-verify pipeline, which evaluates exact inner products
on the survivors only.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.lsh.csr import CandidateBlock
from repro.quant.bitpack import hamming_scores, pack_sign_rows
from repro.quant.scalar import DEFAULT_SCAN_BLOCK, quantize_rows, threshold_pairs
from repro.utils.validation import check_matrix

DEFAULT_FILTER_DIMS = 32
DEFAULT_FILTER_Z = 3.0
FILTER_BIT_WIDTHS = (1, 8)


class IPSketchFilter:
    """Quantized random-projection sketches of a data matrix ``P``."""

    def __init__(
        self,
        P,
        n_dims: int = DEFAULT_FILTER_DIMS,
        bits: int = 8,
        z: float = DEFAULT_FILTER_Z,
        seed: int = 0,
    ):
        P = check_matrix(P, "P")
        self.n_dims = int(n_dims)
        self.bits = int(bits)
        self.z = float(z)
        self.seed = int(seed)
        self.d = P.shape[1]
        rng = np.random.default_rng(self.seed)
        # Rows of sqrt(n_dims) * G are standard Gaussian directions, so
        # <Gp, Gq> averages n_dims unbiased single-direction estimates
        # of <p, q> and sign((Gp)_t) is a SimHash bit.
        self.G = rng.standard_normal((self.n_dims, self.d)) / math.sqrt(
            self.n_dims
        )
        self.norms = np.linalg.norm(P, axis=1)
        projected = P @ self.G.T
        if self.bits == 8:
            self.sketch = quantize_rows(projected)
            self.sign_bits = None
        else:
            self.sketch = None
            self.sign_bits = pack_sign_rows(projected)

    @property
    def n(self) -> int:
        return self.norms.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes held by the filter (projection, norms, sketches)."""
        total = self.G.nbytes + self.norms.nbytes
        if self.sketch is not None:
            total += self.sketch.nbytes
        if self.sign_bits is not None:
            total += self.sign_bits.nbytes
        return total

    def propose_chunk(
        self,
        Q_chunk,
        threshold: float,
        signed: bool,
        scan_block: int = DEFAULT_SCAN_BLOCK,
    ) -> Tuple[CandidateBlock, int, float]:
        """Survivor block for one query chunk.

        ``threshold`` anchors recall: every pair with true inner product
        at least ``threshold`` survives unless its sketch estimate
        deviated by more than ``z`` standard deviations.  The engine
        passes ``spec.s`` — like the LSH backend, the filter exploits
        the ``(cs, s)`` promise gap, leaving pairs inside the gap
        optional exactly as the ``c``-approximate guarantee allows.

        Returns ``(block, generated, margin_max)``: the
        :class:`~repro.lsh.csr.CandidateBlock` of surviving point
        indices, their total count, and the largest additive margin
        granted to any pair (the filter's recall knob, surfaced as
        ``JoinResult.error_bound``).  Every tile's survivors come from
        one ``nonzero``; no step loops over queries.
        """
        Q_chunk = np.ascontiguousarray(Q_chunk, dtype=np.float64)
        projected = Q_chunk @ self.G.T
        q_norms = np.linalg.norm(Q_chunk, axis=1)
        propose = self._propose_int8 if self.bits == 8 else self._propose_bits
        qids, rows, margin_max = propose(
            projected, q_norms, threshold, signed, scan_block
        )
        block = CandidateBlock.from_tiles(qids, rows, Q_chunk.shape[0])
        return block, int(block.rows.size), margin_max

    def _propose_int8(self, projected, q_norms, threshold, signed, scan_block):
        qq = quantize_rows(projected)
        sk = self.sketch
        mc = projected.shape[0]
        # Scaled float32 sketches: the statistical margin dwarfs both the
        # int8 rounding (bounded separately below) and float32 GEMM error.
        qf = qq.codes.astype(np.float32) * qq.scales[:, None].astype(
            np.float32
        )
        jl_sigma = math.sqrt(2.0 / self.n_dims)
        qids, rows = [], []
        margin_max = 0.0
        q_block = max(1, min(512, scan_block))
        buf = np.empty((q_block, min(scan_block, self.n)), dtype=np.float32)
        for p0 in range(0, self.n, scan_block):
            p1 = min(p0 + scan_block, self.n)
            pf = sk.codes[p0:p1].astype(np.float32) * sk.scales[
                p0:p1, None
            ].astype(np.float32)
            pn_max = float(self.norms[p0:p1].max())
            sk_eps_max = float(sk.eps[p0:p1].max())
            sk_norm_max = float(sk.norms[p0:p1].max())
            for q0 in range(0, mc, q_block):
                q1 = min(q0 + q_block, mc)
                if p1 - p0 == buf.shape[1]:
                    est = np.matmul(qf[q0:q1], pf.T, out=buf[: q1 - q0])
                else:
                    est = qf[q0:q1] @ pf.T
                margin = (
                    self.z * jl_sigma * q_norms[q0:q1] * pn_max
                    + sk_eps_max * qq.norms[q0:q1]
                    + qq.eps[q0:q1] * (sk_norm_max + sk_eps_max)
                )
                if margin.size:
                    margin_max = max(margin_max, float(margin.max()))
                hot, cols = threshold_pairs(est, threshold - margin, signed)
                qids.append(hot + q0)
                rows.append(cols + p0)
        return qids, rows, margin_max

    def _propose_bits(self, projected, q_norms, threshold, signed, scan_block):
        q_bits = pack_sign_rows(projected)
        k = self.n_dims
        # hamming / k estimates theta / pi (SimHash); its std is at most
        # 1 / (2 sqrt(k)), so widen the angle interval by z * pi /
        # (2 sqrt(k)) and take the most favorable cosine inside it.
        width = self.z * math.pi / (2.0 * math.sqrt(k))
        qids, rows = [], []
        margin_max = 0.0
        for p0 in range(0, self.n, scan_block):
            p1 = min(p0 + scan_block, self.n)
            ham = hamming_scores(q_bits, self.sign_bits[p0:p1])
            theta = (math.pi / k) * ham
            lo = np.cos(np.clip(theta - width, 0.0, math.pi))
            prod = q_norms[:, None] * self.norms[None, p0:p1]
            if signed:
                upper = lo
            else:
                hi = np.cos(np.clip(theta + width, 0.0, math.pi))
                upper = np.maximum(np.abs(lo), np.abs(hi))
            if prod.size:
                # |cos'| <= 1 bounds the slack the widened interval adds.
                margin_max = max(margin_max, width * float(prod.max()))
            hot, cols = np.nonzero(prod * upper >= threshold)
            qids.append(hot)
            rows.append(cols + p0)
        return qids, rows, margin_max
