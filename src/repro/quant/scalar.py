"""Symmetric int8 scalar quantization with per-row scales.

The compact tier stores each row of ``P``/``Q`` as int8 codes plus one
float64 scale: ``x ~= scale * codes`` with ``|x_i - scale * c_i| <=
scale / 2`` per coordinate, hence (Cauchy-Schwarz) a per-row additive
inner-product error bound of ``eps = (scale / 2) * sqrt(d)`` times the
other operand's norm.  The scan kernel turns the join threshold ``cs``
into a conservative integer-code threshold per (query, point-block), so
every pair whose *true* inner product clears ``cs`` survives — survivors
are then verified with exact float64 GEMM, which makes the quantized
backend exact despite the 8x-smaller index.

The scan GEMM runs in float32 (BLAS sgemm, twice dgemm's throughput)
over *scale-folded* operands ``codes * scale``: each dot product then
approximates the true inner product directly, so the survivor threshold
is per-query tight — no block-max scale substitution loosening it — and
float32 rounding is covered by an explicit ``gamma_d * 127**2 * d *
s_q * s_p`` term added to the bound (the standard summation error model
``|fl(<x, y>) - <x, y>| <= gamma_d * sum |x_t y_t|``).  Dimensions
beyond ``FLOAT32_EXACT_D`` fall back to an int32-accumulated code
matmul whose integer products are exact but whose threshold must divide
out a block-max point scale (conservative, hence looser).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.lsh.csr import CandidateBlock
from repro.utils.validation import check_matrix

MAX_CODE = 127

#: Largest d routed to the float32 scan under ``accumulate="auto"``.
#: (Historically the exact-integer limit ``d * 127**2 < 2**24``; the
#: scale-folded float32 path stays sound beyond it — its rounding term
#: grows with d — but past this point the int32 path's exact integer
#: products make the tighter kernel.)
FLOAT32_EXACT_D = (1 << 24) // (MAX_CODE * MAX_CODE)

#: Multiplicative + additive slack applied to the analytic bound before
#: thresholding, so float64 rounding in the bound arithmetic itself can
#: never drop a pair sitting exactly on the threshold.
_BOUND_SLACK_REL = 1e-9
_BOUND_SLACK_ABS = 1e-12

DEFAULT_SCAN_BLOCK = 4096

#: Entries per row block of :func:`quantize_rows` (1 MiB of float64), so
#: its scratch stays in cache instead of faulting in an ``n x d``
#: temporary per step.  Quantizing 100,000 x 64 rows took 48-72 ms at
#: this size, against 128-221 ms for whole-matrix steps (2-vCPU host).
QUANT_BLOCK_ELEMS = 1 << 17


def threshold_pairs(
    dots: np.ndarray, thresh: np.ndarray, signed: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Survivors ``(rows, cols)`` of one (query-block, point-block) tile.

    Keeps entry ``(r, i)`` when ``dots[r, i] >= thresh[r]``
    (``|dots[r, i]|`` unsigned), in row-major order.  A selective scan
    leaves most query rows with no survivor at all, so one max reduction
    per row picks the hot rows first and only those take the
    per-element compare and ``nonzero`` pass — without it that pass
    costs as much as the GEMM it follows.  ``thresh`` rows of ``-inf``
    keep everything, ``+inf`` nothing.
    """
    if signed:
        rowmax = dots.max(axis=1)
    else:
        rowmax = np.maximum(dots.max(axis=1), -dots.min(axis=1))
    hot = np.flatnonzero(rowmax >= thresh)
    tile = dots[hot] if signed else np.abs(dots[hot])
    rows, cols = np.nonzero(tile >= thresh[hot, None])
    return hot[rows], cols


@dataclass
class QuantizedRows:
    """Int8 codes + per-row scales for one matrix, with scan metadata.

    ``norms`` are the norms of the *original* rows and ``eps`` the
    per-row quantization error norms ``(scale / 2) * sqrt(d)``; writing
    ``<p,q> - <p_hat,q_hat> = <p - p_hat, q> + <p_hat, q - q_hat>`` and
    bounding ``||p_hat|| <= ||p|| + eps_p`` gives ``|<p, q> - <p_hat,
    q_hat>| <= eps_p * ||q|| + eps_q * (||p|| + eps_p)``.
    """

    codes: np.ndarray  # (n, d) int8
    scales: np.ndarray  # (n,) float64, >= 0; 0 only for all-zero rows
    norms: np.ndarray  # (n,) float64, norms of the original rows
    eps: np.ndarray  # (n,) float64, (scale / 2) * sqrt(d)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def d(self) -> int:
        return self.codes.shape[1]

    @property
    def nbytes(self) -> int:
        """Bytes held by the quantized representation."""
        return (
            self.codes.nbytes
            + self.scales.nbytes
            + self.norms.nbytes
            + self.eps.nbytes
        )


def quantize_rows(X) -> QuantizedRows:
    """Quantize each row of ``X`` to int8 with its own symmetric scale.

    ``scale = max|row| / 127``; all-zero rows get scale 0 and zero codes,
    so dequantization is exact for them.  Rows are quantized in blocks of
    at most :data:`QUANT_BLOCK_ELEMS` entries through one reused float64
    buffer; every step is row-wise, so the outputs equal the
    whole-matrix formula's bit for bit.
    """
    X = check_matrix(X, "X")
    n, d = X.shape
    codes = np.empty((n, d), dtype=np.int8)
    scales = np.empty(n)
    norms = np.empty(n)
    # numpy sums a lone row of a column-major X in another order than
    # the rows of a taller block, so a one-row tail joins the block before.
    step = max(2, QUANT_BLOCK_ELEMS // d)
    buf = np.empty((min(step + 1, n), d))
    lo = 0
    for hi in [*range(step, n - 1, step), n]:
        x = X[lo:hi]
        t = buf[:hi - lo]
        s = np.divide(np.max(np.abs(x, out=t), axis=1), MAX_CODE,
                      out=scales[lo:hi])
        np.divide(x, np.where(s > 0.0, s, 1.0)[:, None], out=t)
        np.clip(np.rint(t, out=t), -MAX_CODE, MAX_CODE, out=t)
        codes[lo:hi] = t
        norms[lo:hi] = np.linalg.norm(x, axis=1)
        lo = hi
    eps = 0.5 * scales * math.sqrt(d)
    return QuantizedRows(codes=codes, scales=scales, norms=norms, eps=eps)


def dequantize_rows(q: QuantizedRows) -> np.ndarray:
    """Reconstruct the float64 approximation ``scale * codes``."""
    return q.codes.astype(np.float64) * q.scales[:, None]


def pair_error_bounds(qp: QuantizedRows, qq: QuantizedRows) -> np.ndarray:
    """Full ``(m, n)`` matrix of analytic error bounds (test/diagnostic use).

    ``bound[j, i] = qp.eps[i] * ||q_j|| + qq.eps[j] * (||p_i|| +
    qp.eps[i])`` upper bounds ``|<p_i, q_j> - <p_hat_i, q_hat_j>|``; the
    scan kernel applies it blockwise with block maxima on the ``P`` side.
    """
    return (
        qq.norms[:, None] * qp.eps[None, :]
        + qq.eps[:, None] * (qp.norms + qp.eps)[None, :]
    )


def resolve_accumulate(accumulate: str, d: int) -> str:
    """Pick the code-product GEMM dtype: float32 when exact, else int32."""
    if accumulate == "auto":
        return "float32" if d <= FLOAT32_EXACT_D else "int32"
    return accumulate


def quantized_scan_survivors(
    qp: QuantizedRows,
    qq: QuantizedRows,
    cs: float,
    signed: bool,
    accumulate: str = "auto",
    scan_block: int = DEFAULT_SCAN_BLOCK,
) -> Tuple[CandidateBlock, int, float]:
    """Scan quantized queries against quantized points; return survivors.

    Returns ``(block, generated, max_bound)`` where ``block`` is a
    :class:`~repro.lsh.csr.CandidateBlock` holding, per query, every
    point whose true inner product *may* reach ``cs`` (a superset of the
    true matches — see module docstring), ``generated`` their total
    count, and ``max_bound`` the largest additive error bound granted to
    any (query, point-block) pair, i.e. the guaranteed-recall knob
    surfaced as ``JoinResult.error_bound``.
    """
    n, mc = qp.n, qq.n
    mode = resolve_accumulate(accumulate, qp.d)
    # Survivor pairs per tile; p-blocks ascend, so the block keeps each
    # query's points ascending.
    qids, rows = [], []
    max_bound = 0.0
    q_block = max(1, min(512, scan_block))
    dtype = np.float32 if mode == "float32" else np.int32
    if mode == "float32":
        # Scale-folded operands: dots approximate true inner products,
        # so thresholds stay per-query tight.  The summation model
        # |fl(<x,y>) - <x,y>| <= gamma * sum|x_t y_t| (a few extra
        # rounding steps folded into the +4 cushion) bounds the float32
        # GEMM error by gamma * 127**2 * d * s_q * s_p.
        u = 2.0**-24
        gamma = (qp.d + 4) * u / (1.0 - (qp.d + 4) * u)
        fp_coeff = gamma * float(MAX_CODE * MAX_CODE) * qp.d
        cq_cast = qq.codes.astype(np.float32) * qq.scales[:, None].astype(
            np.float32
        )
    else:
        fp_coeff = 0.0
        cq_cast = qq.codes.astype(np.int32)
    # One GEMM output buffer reused for every full-size block pair; the
    # fresh 8MB-per-block allocations it replaces cost page faults on a
    # par with the sgemm itself.  ``out=`` needs a C-contiguous
    # destination, so only row-sliced (full-width) views qualify —
    # trailing partial point blocks fall back to a plain matmul.
    buf = np.empty((q_block, min(scan_block, n)), dtype=dtype)
    for p0 in range(0, n, scan_block):
        p1 = min(p0 + scan_block, n)
        if mode == "float32":
            pb = qp.codes[p0:p1].astype(np.float32) * qp.scales[
                p0:p1, None
            ].astype(np.float32)
        else:
            pb = qp.codes[p0:p1].astype(np.int32)
        ep_max = float(qp.eps[p0:p1].max())
        pn_max = float(qp.norms[p0:p1].max())
        sp_max = float(qp.scales[p0:p1].max())
        for q0 in range(0, mc, q_block):
            q1 = min(q0 + q_block, mc)
            if p1 - p0 == buf.shape[1]:
                dots = np.matmul(cq_cast[q0:q1], pb.T, out=buf[: q1 - q0])
            else:
                dots = cq_cast[q0:q1] @ pb.T
            bound = (
                ep_max * qq.norms[q0:q1]
                + qq.eps[q0:q1] * (pn_max + ep_max)
                + fp_coeff * sp_max * qq.scales[q0:q1]
            )
            if bound.size:
                max_bound = max(max_bound, float(bound.max()))
            rhs = cs - bound * (1.0 + _BOUND_SLACK_REL) - _BOUND_SLACK_ABS
            if mode == "float32":
                # dots are (approximate) inner products: compare to rhs
                # directly.  Zero-scale rows give exact zero dots and
                # survive iff 0 >= rhs, as they must.
                thresh = rhs
            else:
                denom = qq.scales[q0:q1] * sp_max
                # Integer code products need the scales divided out;
                # only a block-max point scale is available, so rhs > 0
                # lets us substitute it (a surviving code product must
                # be positive there); rhs <= 0 means the bound alone
                # could bridge the threshold, so every pair survives.
                # denom == 0 with rhs > 0 means both sides quantize to
                # zero rows: nothing survives.
                positive = denom > 0.0
                thresh = np.where(
                    positive & (rhs > 0.0),
                    rhs / np.where(positive, denom, 1.0),
                    np.where(rhs > 0.0, np.inf, -np.inf),
                )
            hot, cols = threshold_pairs(dots, thresh, signed)
            qids.append(hot + q0)
            rows.append(cols + p0)
    block = CandidateBlock.from_tiles(qids, rows, mc)
    return block, int(block.rows.size), max_bound
