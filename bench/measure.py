"""Run one workload in this process and print its run record as JSON.

Started by ``run.py`` as a fresh child process per workload, so that
memory, worker pools and module state never leak between workloads.
The run is: generate inputs from the seed; compute reference answers;
set up (several times, median reported); an untimed warm-up; 40 timed
rounds of closed-loop calls with a host-speed probe between rounds;
check every answer; tear down and check ``/dev/shm``.  With
``--trace 1`` every other round runs under the layer wrappers of
``layers.py`` and the record carries per-layer metrics instead of
end-to-end ones.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# The planner must not read a calibration cache from the home directory.
os.environ["REPRO_COSTMODEL"] = ""

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
from workloads import (RUN_SECONDS, SIZES, SMOKE_SECONDS, WORKLOADS,  # noqa: E402
                       batch_starts)

#: The timed phase is cut into this many rounds, and throughput and
#: latency are read from the fastest one.  The host is shared: its speed
#: swings by up to 1.7x within seconds (see ``meta.ref_qps_all``), and the
#: fastest quarter-second round is the one least slowed by other load.
#: Over ten seeds this halved the run-to-run spread of ``ip_point_lsh``
#: and ``ip_batch_quantized`` against reporting the median round.
ROUNDS = 40
#: Set-up repeats: at least this many, more while they stay cheap.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 9
SETUP_CHEAP_S = 1.0


def host_probe() -> float:
    """A fixed numpy + Python loop; its rate tracks host speed drift."""
    A = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(8):
        acc += float((A @ A)[i, i])
        acc += sum(j * 0.5 for j in range(2000))
    return 1.0 / (time.perf_counter() - t0)


def pss_mb() -> float:
    """PSS of this process and all its descendants (``smaps_rollup``).

    PSS splits shared pages (the arena's shared memory, memmapped index
    files) among the processes mapping them, so the sum counts them once.
    """
    pids, todo = [], [os.getpid()]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as f:
                    todo.extend(int(c) for c in f.read().split())
            except OSError:
                pass
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


def release_free_heap() -> None:
    """Hand freed heap back to the OS before serving starts.

    glibc keeps freed blocks of the discarded set-up repetitions and of
    the reference computation, and how much it keeps depends on the
    allocation history: without this, the same run's PSS moved by
    ~25 MB between seeds.  Memory the program still holds is unaffected.
    """
    gc.collect()
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int:
    from repro.utils import blasctl

    return int(blasctl.get_blas_threads()) if blasctl.blas_available() else -1


class Loop:
    """The closed-loop client: cycles through the pool's batches."""

    def __init__(self, server, pool, starts, batch):
        self.server = server
        self.batches = [pool[s:s + batch] for s in starts]
        self.starts = starts
        self.rows = batch
        self.cursor = 0
        self.calls = []       # (pool_start, matches or None)
        self.errors = []
        #: PSS taken once ``calls`` reaches ``rss_at``.  The program's
        #: memory grows with the queries it served (its planner log keeps
        #: a record per call), so it is sampled after a fixed amount of
        #: work, not after a fixed time that a slower host fills with
        #: fewer calls.
        self.rss_at = None
        self.rss = None

    def round(self, deadline: float, rec=None):
        """Run calls until ``perf_counter()`` passes ``deadline``; returns
        per-call ns."""
        lat = []
        while True:
            k = self.cursor
            self.cursor = (k + 1) % len(self.batches)
            t0 = time.perf_counter_ns()
            try:
                matches = self.server.call(self.batches[k]).matches
            except Exception:
                matches = None
                if len(self.errors) < 3:
                    self.errors.append(traceback.format_exc())
            lat.append(time.perf_counter_ns() - t0)
            self.calls.append((self.starts[k], matches))
            if rec is not None:
                rec.roots += 1
                rec.rows += self.rows
            if len(self.calls) == self.rss_at:
                self.rss = pss_mb()
            if time.perf_counter() >= deadline:
                return lat


def reference(w, inputs) -> np.ndarray:
    spec = inputs.spec
    if w.measure == "ip":
        return oracle.ip_has_partner(inputs.P, inputs.pool, spec.s, spec.signed)
    return oracle.jaccard_has_partner(inputs.P, inputs.pool, spec.s)


def sound_pair_check(w, inputs):
    spec = inputs.spec
    if w.measure == "ip":
        def check(q, p):
            scores = oracle.ip_pair_scores(inputs.P, inputs.pool, q, p, spec.signed)
            return scores >= spec.cs - oracle.IP_TOLERANCE
    else:
        def check(q, p):
            return oracle.jaccard_pair_scores(inputs.P, inputs.pool, q, p) >= spec.cs
    return check


def set_up(w, inputs, workdir, trace):
    """Open the served program; untraced runs repeat and keep the last."""
    times = []
    while True:
        t0 = time.perf_counter()
        server = w.open(inputs, workdir)
        times.append(time.perf_counter() - t0)
        enough = len(times) >= SETUP_MIN_REPS and (
            sum(times) >= SETUP_CHEAP_S or len(times) >= SETUP_MAX_REPS)
        if trace or enough:
            return server, times
        server.close()


def quantile(values, q):
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def run(name: str, seed: int, trace: bool, smoke: bool) -> dict:
    from repro.core.arena import repro_segments

    w = WORKLOADS[name]
    sizes = SIZES[name]["smoke" if smoke else "full"]
    seconds = SMOKE_SECONDS if smoke else RUN_SECONDS
    t_start = time.perf_counter()
    segments_before = set(repro_segments())

    inputs = w.make_inputs(seed, sizes)
    t_inputs = time.perf_counter() - t_start
    has_partner = reference(w, inputs)
    if not has_partner.any():
        raise RuntimeError(f"{name}: the reference answer set is empty")
    t_reference = time.perf_counter() - t_start - t_inputs

    cs = inputs.spec.cs
    setup_rec, query_rec = layers.Recorder(cs), layers.Recorder(cs)
    rounds, traced_lat, ref_rates = [], [], []
    server = None
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH / ".work"))
    try:
        if trace:
            with layers.installed(setup_rec):
                server, setup_times = set_up(w, inputs, workdir, True)
        else:
            server, setup_times = set_up(w, inputs, workdir, False)
        pool, starts = inputs.pool, batch_starts(inputs)
        # The harness keeps only the query pool: whatever else stays
        # resident is the served program's own memory (the one-shot
        # client keeps P, as its caller would).
        del inputs
        release_free_heap()
        loop = Loop(server, pool, starts, sizes["batch"])

        loop.round(time.perf_counter() + seconds / 10)   # warm-up, untimed
        loop.calls.clear()
        loop.rss_at = len(starts)             # one pass over the pool
        # Round deadlines are fixed from the start of the phase, so a round
        # that overran by a long call leaves the next one shorter and the
        # phase ends within one call of ``seconds``.
        t_phase = time.perf_counter()
        for i in range(ROUNDS):
            ref_rates.append(host_probe())
            deadline = t_phase + (i + 1) * seconds / ROUNDS
            if trace and i % 2 == 1:
                with layers.installed(query_rec):
                    traced_lat += loop.round(deadline, query_rec)
                continue
            rounds.append(loop.round(deadline))
        rss = loop.rss if loop.rss is not None else pss_mb()
        rss_calls = min(len(loop.calls), len(starts))
        timed_calls = list(loop.calls)
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(workdir, ignore_errors=True)
    leaked = sorted(set(repro_segments()) - segments_before)

    inputs = w.make_inputs(seed, sizes)
    verdict = oracle.check_calls(timed_calls, sizes["batch"], has_partner,
                                 sound_pair_check(w, inputs), w.exact,
                                 int(inputs.P.shape[0]))
    failed = verdict.failed_calls + (1 if leaked else 0)
    correct = failed == 0 and verdict.truth_rows > 0

    record = dict(
        workload=name, seed=seed, seconds=seconds, trace=int(trace),
        smoke=bool(smoke), correct=bool(correct), attempted=len(timed_calls),
        failed=int(failed),
        checks=dict(
            truth_queries=int(has_partner.sum()), pool=int(has_partner.size),
            truth_rows=verdict.truth_rows, answered_rows=verdict.answered_rows,
            unsound_pairs=verdict.unsound_pairs,
            missed_exact=verdict.missed_exact, errors=verdict.errors,
            leaked_segments=leaked, tracebacks=loop.errors,
        ),
        meta=dict(
            picked=server.picked, sizes=sizes, batch=sizes["batch"],
            ref_qps=statistics.median(ref_rates), ref_qps_all=ref_rates,
            cpu_count=os.cpu_count(), blas_threads=blas_threads(),
            python=platform.python_version(), numpy=np.__version__,
            commit=git_commit(), setup_reps_s=setup_times,
            inputs_s=t_inputs, reference_s=t_reference,
            wall_s=time.perf_counter() - t_start,
        ),
    )
    lat_ms = [x / 1e6 for lat in rounds for x in lat]
    if not trace:
        best = max(rounds, key=lambda lat: len(lat) / sum(lat))
        record["metrics"] = {
            "throughput_qps": metric(len(best) * loop.rows / (sum(best) / 1e9),
                                     "queries/s", len(best)),
            "latency_p50_ms": metric(statistics.median(best) / 1e6, "ms",
                                     len(best)),
            "setup_s": metric(statistics.median(setup_times), "s", len(setup_times)),
            "rss_mb": metric(rss, "MB", rss_calls),
            "recall": metric(verdict.recall, "fraction", verdict.truth_rows),
        }
    else:
        values = layers.layer_values(query_rec, setup_rec)
        record["layer_calls"] = {k: calls for k, (_, calls) in values.items()}
        record["unmeasured"] = [m.name for m in layers.PER_LAYER
                                if name in m.unmeasured]
        traced_ms = [x / 1e6 for x in traced_lat]
        values["engine.session.latency_p90_ms"] = (quantile(lat_ms, 0.90), len(lat_ms))
        values["engine.session.latency_p99_ms"] = (quantile(lat_ms, 0.99), len(lat_ms))
        values["trace.overhead_frac"] = (
            statistics.median(traced_ms) / statistics.median(lat_ms) - 1.0,
            len(traced_ms))
        units = {m.name: m.unit for m in layers.PER_LAYER}
        record["metrics"] = {
            k: metric(v, units[k], n) for k, (v, n) in values.items()
        }
    return record


def metric(value: float, unit: str, n: int) -> dict:
    return {"value": float(value), "unit": unit, "n": int(n)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    record = run(args.workload, args.seed, bool(args.trace), args.smoke)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
