"""The repository benchmark: closed-loop workloads over the public engine API.

    python3 bench/run.py [--workload NAME]... [--seed N] [--trace [0|1]]
                         [--out FILE]

Each workload runs in a fresh child process (``bench/measure.py``) as
one closed-loop client, and every answer is checked against an
independent numpy reference.  The command prints each metric with its
unit and sample count, then, as the last line of standard output, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics, or per-layer ones with ``--trace 1``).
It exits 0 only when every check passed.  ``--out`` writes the full run
records (metrics with sample counts, checks, host metadata) for
``bench/compare.py``.  The timed phase is fixed at ``RUN_SECONDS``;
``--seconds`` is accepted only with that value, so that no two runs
differ in length.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from workloads import RUN_SECONDS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: A child past this is killed, so no run exceeds 180 s.
CHILD_TIMEOUT_S = 170


def run_child(workload: str, args) -> dict:
    """Run one workload in a fresh process; return its record or raise."""
    cmd = [sys.executable, str(BENCH / "measure.py"), "--workload", workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    # Own process group: a hung child is killed together with its pool
    # workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload}: timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        raise RuntimeError(f"{workload}: child exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: child printed no record")
    return json.loads(lines[-1])


def print_record(rec: dict) -> None:
    checks = rec["checks"]
    status = "ok" if rec["correct"] else "FAILED"
    print(f"== {rec['workload']} (seed {rec['seed']}, picked "
          f"{rec['meta']['picked']}): {status}; {rec['attempted']} calls, "
          f"{rec['failed']} failed, truth queries {checks['truth_queries']}"
          f"/{checks['pool']}, unsound pairs {checks['unsound_pairs']}, "
          f"leaked segments {len(checks['leaked_segments'])}")
    for name, m in rec["metrics"].items():
        print(f"   {name:<44} {m['value']:>14.6g} {m['unit']:<10} n={m['n']}")
    if rec.get("unmeasured"):
        print("   unmeasured (runs in pool workers): " + ", ".join(rec["unmeasured"]))
    for tb in checks["tracebacks"]:
        print(tb, file=sys.stderr)


def summary(records) -> dict:
    """The last output line: one workload's metrics, or all of them
    prefixed with the workload name."""
    metrics = {}
    for rec in records:
        prefix = f"{rec['workload']}." if len(records) > 1 else ""
        for name, m in rec["metrics"].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the benchmark workloads and check their answers.")
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="workload to run (repeatable; default: all five)")
    ap.add_argument("--seed", type=int, default=2016)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS,
                    help=f"timed phase per workload; must be {RUN_SECONDS}")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="report per-layer metrics instead")
    ap.add_argument("--out", help="write the full run records here (JSON)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and a short timed phase, for the "
                         "benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        ap.error(f"--seconds must be {RUN_SECONDS}: the run length is fixed")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    records = []
    for workload in args.workload or WORKLOADS:
        try:
            records.append(run_child(workload, args))
        except (RuntimeError, ValueError) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print_record(records[-1])
    if args.out:
        Path(args.out).write_text(json.dumps(
            records[0] if len(records) == 1 else records, indent=1) + "\n")
    result = summary(records)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
