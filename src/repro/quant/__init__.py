"""The compact index tier: quantized kernels and inner-product filters.

Three representations trade precision for bytes per coordinate:

* :mod:`repro.quant.scalar` — symmetric int8 scalar quantization with
  per-row scales (1 byte/coordinate) and an exact-survivor scan kernel;
* :mod:`repro.quant.bitpack` — packed sign bits (1 bit/coordinate) with
  XOR + popcount scans;
* :mod:`repro.quant.ipfilter` — Pagh-Sivertsen-style inner-product
  sketch filters over quantized random projections.

:mod:`repro.quant.backend` adapts them to the engine: the ``quantized``
backend (exact joins over the int8 index) and the ``ip_filter`` backend
(sketch-filter proposals, verified exactly).
"""

from repro.quant.bitpack import (
    hamming_scores,
    pack_sign_rows,
    popcount_words,
    sign_ip_scores,
)
from repro.quant.ipfilter import IPSketchFilter
from repro.quant.scalar import (
    FLOAT32_EXACT_D,
    QuantizedRows,
    dequantize_rows,
    pair_error_bounds,
    quantize_rows,
    quantized_scan_survivors,
)

__all__ = [
    "FLOAT32_EXACT_D",
    "QuantizedRows",
    "quantize_rows",
    "dequantize_rows",
    "pair_error_bounds",
    "quantized_scan_survivors",
    "pack_sign_rows",
    "popcount_words",
    "hamming_scores",
    "sign_ip_scores",
    "IPSketchFilter",
]
