"""Compare two sets of benchmark runs, workload by workload.

    python3 bench/compare.py BASE NEW

``BASE`` and ``NEW`` are each a directory of run records written by
``run.py --out`` (or one such file).  For every workload and every
end-to-end metric of ``BENCHMARK.json`` it prints both medians, each
side's spread (quartile distance over median) and a verdict against the
metric's bound:

* ``regressed`` / ``improved`` -- the new median is worse / better by
  more than the bound;
* ``unchanged`` -- within the bound;
* ``unresolved`` -- a side's spread exceeds the bound, unless every new
  run is better (or worse) than every base run.

Traced records (``--trace 1``) are compared per layer: the medians'
deltas are listed largest relative change first, so a regression names
the layer it came from.  Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path):
    """``{(workload, trace): [record, ...]}`` from a directory or file."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = defaultdict(list)
    for f in files:
        data = json.loads(f.read_text())
        for rec in data if isinstance(data, list) else [data]:
            runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def spread(values) -> float:
    """Quartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better: str, bound: float):
    """``(relative change, verdict)``; positive change is worse."""
    b, n = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (n - b) / abs(b) if b else 0.0
    if max(spread(base), spread(new)) > bound:
        if all(sign * (x - y) < 0 for x in new for y in base):
            return worse, "improved"
        if all(sign * (x - y) > 0 for x in new for y in base):
            return worse, "regressed"
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if worse < -bound:
        return worse, "improved"
    return worse, "unchanged"


def compare_end_to_end(base_runs, new_runs, end_to_end) -> bool:
    regressed = False
    print(f"{'workload':<20} {'metric':<16} {'base':>12} {'new':>12} "
          f"{'spread b/n':>13} {'change':>8} {'bound':>6}  verdict")
    for workload, trace in sorted(set(base_runs) & set(new_runs)):
        if trace:
            continue
        for m in end_to_end:
            base = [r["metrics"][m["name"]]["value"]
                    for r in base_runs[(workload, 0)]]
            new = [r["metrics"][m["name"]]["value"]
                   for r in new_runs[(workload, 0)]]
            worse, what = verdict(base, new, m["better"], m["bound"])
            regressed |= what == "regressed"
            print(f"{workload:<20} {m['name']:<16} "
                  f"{statistics.median(base):>12.5g} "
                  f"{statistics.median(new):>12.5g} "
                  f"{spread(base):>6.3f}/{spread(new):<6.3f} "
                  f"{worse:>+8.3f} {m['bound']:>6.3f}  {what}")
    return regressed


def compare_layers(base_runs, new_runs) -> None:
    moves = {m.name: m.moves for m in layers.PER_LAYER}
    for workload, trace in sorted(set(base_runs) & set(new_runs)):
        if not trace:
            continue
        base, new = base_runs[(workload, 1)], new_runs[(workload, 1)]
        rows = []
        for name, m in base[0]["metrics"].items():
            b = statistics.median(r["metrics"][name]["value"] for r in base)
            n = statistics.median(r["metrics"][name]["value"] for r in new)
            rel = (n - b) / abs(b) if b else (0.0 if n == b else float("inf"))
            rows.append((abs(rel), name, b, n, rel, m["unit"]))
        print(f"\nper-layer deltas, {workload} "
              f"({len(base)} base / {len(new)} new traced runs):")
        for _, name, b, n, rel, unit in sorted(rows, reverse=True):
            print(f"  {name:<44} {b:>12.5g} -> {n:<12.5g} {unit:<6} "
                  f"{rel:>+8.3f}  moves {moves.get(name, '?')}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    regressed = compare_end_to_end(base_runs, new_runs, end_to_end)
    compare_layers(base_runs, new_runs)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
