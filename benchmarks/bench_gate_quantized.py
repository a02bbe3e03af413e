"""Speed gates of the compact int8 tier.

* ``quant_scan_speedup_floor``: on a planted n = 100,000, d = 64 join
  with 2,000 queries, the int8 survivor scan must run at least
  ``QUANT_SCAN_SPEEDUP_FLOOR`` times faster than the float64
  ``brute_force`` join.
* ``quant_filter_beats_brute``: on a planted d = 512 join (n = 20,000,
  2,000 queries), the ``ip_filter`` backend (sketch-filter proposals,
  verified exactly) must beat ``brute_force`` end to end.
"""

from benchmarks.conftest import best_of, planted_unit
from repro import engine
from repro.core import JoinSpec
from repro.quant import quantize_rows, quantized_scan_survivors

QUANT_FULL = dict(n=100_000, d=64, n_queries=2_000, planted=400, rho=0.92,
                  s=0.8, c=0.9, block=256, repeats=3,
                  filter_n=20_000, filter_d=512, filter_queries=2_000,
                  filter_planted=400, filter_rho=0.92, filter_dims=128,
                  filter_s=0.85, filter_c=0.7, seed=2016)
#: sgemm runs ~2x dgemm and the scan also skips brute force's per-block
#: match bookkeeping; the observed band is 2.2-2.4x.
QUANT_SCAN_SPEEDUP_FLOOR = 2.0


def test_quant_scan_speedup_floor():
    cfg = QUANT_FULL
    P, Q = planted_unit(cfg["n"], cfg["d"], cfg["n_queries"], cfg["seed"],
                        cfg["planted"] / cfg["n_queries"], cfg["rho"])
    spec = JoinSpec(s=cfg["s"], c=cfg["c"], signed=True)
    brute_s, _ = best_of(
        lambda: engine.join(P, Q, spec, backend="brute_force",
                            block=cfg["block"]), repeats=cfg["repeats"])
    qp, qq = quantize_rows(P), quantize_rows(Q)
    scan_s, _ = best_of(
        lambda: quantized_scan_survivors(qp, qq, spec.cs, spec.signed),
        repeats=cfg["repeats"])
    speedup = brute_s / scan_s
    print(f"int8 scan {speedup:.2f}x the brute_force join")
    assert speedup >= QUANT_SCAN_SPEEDUP_FLOOR, f"{speedup:.2f}x"


def test_quant_filter_beats_brute():
    cfg = QUANT_FULL
    P, Q = planted_unit(cfg["filter_n"], cfg["filter_d"],
                        cfg["filter_queries"], cfg["seed"] + 10,
                        cfg["filter_planted"] / cfg["filter_queries"],
                        cfg["filter_rho"])
    spec = JoinSpec(s=cfg["filter_s"], c=cfg["filter_c"], signed=True)
    brute_s, _ = best_of(
        lambda: engine.join(P, Q, spec, backend="brute_force",
                            block=cfg["block"]), repeats=cfg["repeats"])
    filter_s, _ = best_of(
        lambda: engine.join(P, Q, spec, backend="ip_filter",
                            n_dims=cfg["filter_dims"], block=cfg["block"],
                            seed=cfg["seed"]), repeats=cfg["repeats"])
    print(f"ip_filter {brute_s / filter_s:.2f}x brute_force")
    assert filter_s < brute_s, f"{filter_s:.3f}s vs {brute_s:.3f}s"
