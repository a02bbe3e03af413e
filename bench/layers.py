"""Outside-in per-layer tracing and the per-layer metric table.

A traced round replaces chosen module and class attributes of the
engine with timing wrappers; nothing under ``src/`` changes.  The
wrappers share one stack of open spans, so a layer's *self* time is its
span minus the time its wrapped children cover.  Each target is resolved
by module path and attribute name, and a target that no longer resolves
raises, so a refactor that moves an entry point fails loudly instead of
reporting 0.

Modules are resolved with ``importlib.import_module``: ``import
repro.core.lsh_join as m`` would bind the ``lsh_join`` *function*,
which the ``repro.core`` package re-exports under the module's name.
``MeasureDescriptor`` is frozen, so validation is timed by wrapping
``get_measure`` to hand out copies with timed ``validate`` /
``check_compatible``.

Process-pool workers run without the wrappers.  There, kernel time comes
from ``ChunkResult.wall_ns`` on the objects ``map_query_chunks``
returns, and the worker-side split (quantize / scan / verify) is
unmeasured: those metrics read 0 with no calls behind them, and the run
record lists them under ``unmeasured``.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import perf_counter_ns
from typing import Callable, Dict, Optional, Tuple

# Layer (span) names.  Targets sharing a name form one layer, so the
# layer's self time is the sum of its targets' self times.
SESSION = "engine.session"
VALIDATE = "engine.measures.validate"
EXECUTE = "engine.execute"
PREPARE = "engine.execute.prepare"
PLAN = "engine.planner.plan"
BUILD = "engine.backends.build"
EXECUTOR = "core.executor"
MERGE = "core.executor.merge"
FREEZE = "core.arena.freeze"
LSH = "lsh.candidates"
VERIFY = "core.verify"
QUANTIZE = "quant.quantize"
QSCAN = "quant.scan"
NORM = "core.norm_pruning"
SET_SCAN = "core.set_join.scan"
MH_HASH = "core.set_join.minhash_hash"
MH_PROBE = "core.set_join.minhash_probe"
MH_VERIFY = "core.set_join.minhash_verify"
OBS = "obs"
OPEN = "engine.session.open"
SAVE = "utils.persistence.save"
LOAD = "utils.persistence.load"


class Recorder:
    """Span and counter totals for one traced phase.

    ``roots`` / ``rows`` count the public calls (``session.query`` /
    ``engine.join``) and the query rows they carried; the harness bumps
    them, since it is the one making those calls.
    """

    def __init__(self, cs: float):
        self.cs = cs
        self.stack = []
        self.spans: Dict[str, list] = defaultdict(lambda: [0, 0, 0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.roots = 0
        self.rows = 0

    def calls(self, layer: str) -> int:
        return self.spans[layer][0] if layer in self.spans else 0

    def self_ns(self, layer: str) -> int:
        return self.spans[layer][2] if layer in self.spans else 0


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module`` + dotted ``attr`` -> ``layer``.

    ``when(args, kwargs)`` may skip a call (e.g. a structure's ``build``
    that is already built); ``pre`` returns a token handed to ``post``,
    which reads the call's output into counters.
    """

    module: str
    attr: str
    layer: str
    post: Optional[Callable] = None
    pre: Optional[Callable] = None
    when: Optional[Callable] = None


def _span(fn, rec: Recorder, layer: str, pre=None, post=None, when=None):
    stack, spans = rec.stack, rec.spans

    def wrapper(*args, **kwargs):
        if when is not None and not when(args, kwargs):
            return fn(*args, **kwargs)
        token = pre(rec, args, kwargs) if pre is not None else None
        frame = [0]
        stack.append(frame)
        t0 = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = perf_counter_ns() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            totals = spans[layer]
            totals[0] += 1
            totals[1] += dt
            totals[2] += dt - frame[0]
        if post is not None:
            post(rec, args, kwargs, out, dt, token)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_measures(fn, rec: Recorder):
    """``get_measure`` returning copies whose validate hooks are timed."""
    copies: Dict[int, Tuple[object, object]] = {}

    def get_measure(name):
        desc = fn(name)
        hit = copies.get(id(desc))
        if hit is None:
            hit = copies[id(desc)] = (desc, replace(
                desc,
                validate=_span(desc.validate, rec, VALIDATE),
                check_compatible=_span(desc.check_compatible, rec, VALIDATE),
            ))
        return hit[1]

    return get_measure


# -- counters read from outputs ---------------------------------------------


def _count(name: str, value: Callable):
    def post(rec, args, kwargs, out, dt, token):
        rec.counts[name] += value(rec, args, out)
    return post


def _lsh_pre(rec, args, kwargs):
    return args[0].stats.candidates


def _lsh_post(rec, args, kwargs, out, dt, before):
    rec.counts["lsh.candidates"] += args[0].stats.candidates - before
    rec.counts["lsh.unique"] += sum(int(c.size) for c in out)


def _verify_block_post(rec, args, kwargs, out, dt, token):
    rec.counts["verify.pairs"] += out.n_evaluated
    rec.counts["verify.answered"] += int((out.best_score >= rec.cs).sum())


def _verify_candidates_post(rec, args, kwargs, out, dt, token):
    matches, evaluated = out
    rec.counts["verify.pairs"] += evaluated
    rec.counts["verify.answered"] += sum(m is not None for m in matches)


def _set_scan_post(rec, args, kwargs, out, dt, token):
    matches, evaluated = out[0], out[1]
    rec.counts["scan.pairs"] += evaluated
    rec.counts["scan.answered"] += sum(m is not None for m in matches)


def _mh_verify_post(rec, args, kwargs, scores, dt, token):
    rec.counts["mh.pairs"] += scores.size
    rec.counts["mh.answered"] += bool((scores >= rec.cs).any())


def _placed_bytes(arena) -> int:
    # The arena's allocation is slab-granular (``nbytes`` is capacity);
    # the arrays it pins are what a call actually copied.
    return sum(arr.nbytes for _, arr in arena._placed.values())


def _freeze_pre(rec, args, kwargs):
    return _placed_bytes(args[1])


def _freeze_post(rec, args, kwargs, blob, dt, before):
    rec.counts["arena.bytes"] += len(blob) + _placed_bytes(args[1]) - before


def _map_pre(rec, args, kwargs):
    return rec.spans[FREEZE][1], rec.spans[BUILD][1]


def _map_post(rec, args, kwargs, chunks, dt, before):
    walls = [getattr(c, "wall_ns", 0) or 0 for c in chunks]
    freeze_ns = rec.spans[FREEZE][1] - before[0]
    build_ns = rec.spans[BUILD][1] - before[1]
    # Chunk walls are the kernel (``backend.run_chunk``), timed by the
    # engine in whichever process ran it; on a pooled call only the
    # slowest chunk is on the caller's critical path.
    critical = max(walls) if freeze_ns else sum(walls)
    rec.counts["kernel.busy_ns"] += sum(walls)
    rec.counts["executor.chunks"] += len(chunks)
    rec.counts["executor.self_ns"] += dt - freeze_ns - build_ns - critical
    if freeze_ns:
        rec.counts["pool.wait_ns"] += dt - freeze_ns - critical
        rec.counts["pool.busy_ns"] += sum(walls)
        rec.counts["pool.capacity_ns"] += len(chunks) * dt


def _unbuilt(*attrs):
    def when(args, kwargs):
        return all(getattr(args[0], a) is None for a in attrs)
    return when


def _query_side(args, kwargs):
    side = kwargs.get("side", args[2] if len(args) > 2 else "data")
    return side == "query"


_SESSION = "repro.engine.session"
_BACKENDS = "repro.engine.backends"
_SETS = "repro.engine.set_backends"
_QUANT = "repro.quant.backend"

TARGETS = (
    # Public calls, plan dispatch and the stage walk.
    Target("repro.engine", "join", SESSION),
    Target(_SESSION, "JoinSession.query", SESSION),
    Target(_SESSION, "JoinSession._dispatch", SESSION),
    Target(_SESSION, "run_single_stage", EXECUTE),
    Target(_SESSION, "run_stage_plan", EXECUTE),
    Target(_SESSION, "prepare_stage", PREPARE),
    Target(_SESSION, "plan_join", PLAN, post=_count(
        "plan.multi", lambda r, a, out: len(out.best_plan.plan.stages) > 1)),
    # Backend prepare (inline in one-shot joins) and structure builds.
    Target(_BACKENDS, "BruteForceBackend.prepare", PREPARE),
    Target(_BACKENDS, "NormPrunedBackend.prepare", PREPARE),
    Target(_BACKENDS, "LSHBackend.prepare", PREPARE),
    Target(_QUANT, "QuantizedBackend.prepare", PREPARE),
    Target(_SETS, "SetScanBackend.prepare", PREPARE),
    Target(_SETS, "MinHashLSHBackend.prepare", PREPARE),
    Target(_BACKENDS, "LSHStructure.build", BUILD, when=_unbuilt("index")),
    Target(_BACKENDS, "NormStructure.build", BUILD, when=_unbuilt("index")),
    Target(_QUANT, "QuantizedStructure.build", BUILD,
           when=_unbuilt("data", "proposals")),
    Target(_SETS, "SetScanStructure.build", BUILD, when=_unbuilt("postings")),
    Target(_SETS, "MinHashStructure.build", BUILD, when=_unbuilt("index")),
    # Executor: chunk fan-out, arena freeze, merge.
    Target("repro.engine.execute", "map_query_chunks", EXECUTOR,
           pre=_map_pre, post=_map_post),
    Target("repro.engine.execute", "merge_join_chunks", MERGE),
    Target("repro.core.executor", "freeze", FREEZE,
           pre=_freeze_pre, post=_freeze_post),
    # Kernels.
    Target("repro.core.lsh_join", "block_candidates", LSH,
           pre=_lsh_pre, post=_lsh_post),
    Target("repro.core.lsh_join", "verify_block", VERIFY,
           post=_verify_block_post),
    Target("repro.core.verify", "verify_candidates", VERIFY,
           post=_verify_candidates_post),
    Target(_QUANT, "quantize_rows", QUANTIZE),
    Target(_QUANT, "quantized_scan_survivors", QSCAN, post=_count(
        "quant.survivors", lambda r, a, out: out[1])),
    Target("repro.core.norm_pruning", "NormScanIndex.query_block", NORM,
           post=_count("norm.pairs", lambda r, a, out: int(out[2].sum()))),
    Target(_SETS, "jaccard_scan_chunk", SET_SCAN, post=_set_scan_post),
    Target("repro.core.set_join", "hash_sets", MH_HASH, when=_query_side),
    Target("repro.core.set_join", "MinHashSetIndex.candidates", MH_PROBE,
           post=_count("mh.candidates", lambda r, a, out: out[0].size)),
    Target("repro.core.set_join", "MinHashSetIndex.verify", MH_VERIFY,
           post=_mh_verify_post),
    # Telemetry.
    Target(_SESSION, "JoinSession._observe_query", OBS),
    Target(_SESSION, "JoinSession._record", OBS),
    Target("repro.obs.planner_log", "PlannerLog.record", OBS),
    Target("repro.obs.metrics", "Histogram.observe", OBS),
    # Set-up and persistence.
    Target("repro.engine", "open", OPEN),
    Target(_SESSION, "save_structure_dir", SAVE),
    Target(_SESSION, "load_structure_dir", LOAD),
)

#: ``get_measure`` bindings whose descriptors get timed validate hooks.
MEASURE_TARGETS = (("repro.engine.session", "get_measure"),
                   ("repro.engine.api", "get_measure"))


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # Class attributes must be defined on the class itself, so that
    # restoring the original never leaves a shadowing copy behind.
    found = vars(owner).get(name) if isinstance(owner, type) else getattr(
        owner, name, None)
    if found is None:
        raise LookupError(f"trace target {module}:{attr} does not resolve")
    return owner, name, found


@contextmanager
def installed(rec: Recorder):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for t in TARGETS:
            owner, name, fn = _resolve(t.module, t.attr)
            saved.append((owner, name, fn))
            setattr(owner, name, _span(fn, rec, t.layer, t.pre, t.post, t.when))
        for module, attr in MEASURE_TARGETS:
            owner, name, fn = _resolve(module, attr)
            saved.append((owner, name, fn))
            setattr(owner, name, _timed_measures(fn, rec))
        yield rec
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)


# -- the per-layer metric table ---------------------------------------------

ALL = ("ip_point_lsh", "ip_batch_quantized", "ip_oneshot_auto",
       "jaccard_scan", "jaccard_minhash")
_LSH_WORK = ("ip_point_lsh", "ip_oneshot_auto")
_POOL = ("ip_batch_quantized",)
_ONESHOT = ("ip_oneshot_auto",)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _per_call_us(layer):
    return lambda r: _ratio(r.self_ns(layer), r.roots) / 1e3


def _per_row_us(layer):
    return lambda r: _ratio(r.self_ns(layer), r.rows) / 1e3


def _per_row(counter):
    return lambda r: _ratio(r.counts[counter], r.rows)


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric: how it is computed and where its layer runs.

    ``evidence`` is the layer whose call count proves the metric was
    measured; it must be non-zero exactly on the ``serves`` workloads.
    ``unmeasured`` names workloads where the layer runs only inside
    process-pool workers, out of the wrappers' reach, so it reads 0.
    ``phase`` says which recorder feeds it: ``query`` (traced rounds),
    ``setup`` (the traced set-up) or ``diag`` (computed by the harness
    from round latencies).
    """

    name: str
    unit: str
    better: str
    serves: Tuple[str, ...]
    evidence: Optional[str] = None
    value: Optional[Callable] = None
    phase: str = "query"
    unmeasured: Tuple[str, ...] = ()
    #: What the layer should move end to end (documentation for README
    #: and compare output; not part of BENCHMARK.json's schema).
    moves: str = ""


PER_LAYER = (
    LayerMetric("engine.session.self_us", "us", "lower", ALL, SESSION,
                _per_call_us(SESSION), moves="latency_p50_ms"),
    LayerMetric("engine.measures.validate_us", "us", "lower", ALL, VALIDATE,
                _per_call_us(VALIDATE), moves="latency_p50_ms"),
    LayerMetric("engine.execute.self_us", "us", "lower", ALL, EXECUTE,
                _per_call_us(EXECUTE), moves="latency_p50_ms"),
    LayerMetric("core.executor.self_us", "us", "lower", ALL, EXECUTOR,
                lambda r: _ratio(r.counts["executor.self_ns"], r.roots) / 1e3,
                moves="latency_p50_ms"),
    LayerMetric("core.executor.merge_us", "us", "lower", ALL, MERGE,
                _per_call_us(MERGE), moves="latency_p50_ms"),
    LayerMetric("core.executor.chunks_per_call", "count", "higher", ALL,
                EXECUTOR, lambda r: _ratio(r.counts["executor.chunks"], r.roots),
                moves="latency_p50_ms"),
    LayerMetric("obs.us_per_call", "us", "lower", ALL, OBS,
                _per_call_us(OBS), moves="latency_p50_ms"),
    LayerMetric("kernel.busy_us_per_query", "us", "lower", ALL, EXECUTOR,
                lambda r: _ratio(r.counts["kernel.busy_ns"], r.rows) / 1e3,
                moves="throughput_qps"),
    LayerMetric("lsh.candidates_us_per_query", "us", "lower", _LSH_WORK, LSH,
                _per_row_us(LSH), moves="throughput_qps"),
    LayerMetric("lsh.candidates_per_query", "count", "lower", _LSH_WORK, LSH,
                _per_row("lsh.candidates"), moves="throughput_qps"),
    LayerMetric("lsh.unique_frac", "frac", "higher", _LSH_WORK, LSH,
                lambda r: _ratio(r.counts["lsh.unique"], r.counts["lsh.candidates"]),
                moves="throughput_qps"),
    LayerMetric("core.verify.us_per_query", "us", "lower", _LSH_WORK, VERIFY,
                _per_row_us(VERIFY), moves="throughput_qps", unmeasured=_POOL),
    LayerMetric("core.verify.pairs_per_query", "count", "lower", _LSH_WORK,
                VERIFY, _per_row("verify.pairs"), moves="throughput_qps",
                unmeasured=_POOL),
    LayerMetric("core.verify.yield", "frac", "higher", _LSH_WORK, VERIFY,
                lambda r: _ratio(r.counts["verify.answered"], r.counts["verify.pairs"]),
                moves="throughput_qps", unmeasured=_POOL),
    LayerMetric("quant.quantize_us_per_query", "us", "lower", (), QUANTIZE,
                _per_row_us(QUANTIZE), moves="latency_p50_ms", unmeasured=_POOL),
    LayerMetric("quant.scan_us_per_query", "us", "lower", (), QSCAN,
                _per_row_us(QSCAN), moves="latency_p50_ms", unmeasured=_POOL),
    LayerMetric("quant.survivors_per_query", "count", "lower", (), QSCAN,
                _per_row("quant.survivors"), moves="latency_p50_ms",
                unmeasured=_POOL),
    LayerMetric("core.arena.freeze_us", "us", "lower", _POOL, FREEZE,
                _per_call_us(FREEZE), moves="latency_p50_ms"),
    LayerMetric("core.arena.frozen_bytes_per_call", "bytes", "lower", _POOL,
                FREEZE, lambda r: _ratio(r.counts["arena.bytes"], r.roots),
                moves="latency_p50_ms"),
    LayerMetric("core.executor.wait_us", "us", "lower", _POOL, FREEZE,
                lambda r: _ratio(r.counts["pool.wait_ns"], r.roots) / 1e3,
                moves="latency_p50_ms"),
    LayerMetric("core.executor.parallel_efficiency", "frac", "higher", _POOL,
                FREEZE, lambda r: _ratio(r.counts["pool.busy_ns"],
                                         r.counts["pool.capacity_ns"]),
                moves="latency_p50_ms"),
    LayerMetric("engine.planner.plan_us", "us", "lower", _ONESHOT, PLAN,
                _per_call_us(PLAN), moves="latency_p50_ms"),
    LayerMetric("engine.planner.multi_stage_picks", "frac", "higher", _ONESHOT,
                PLAN, lambda r: _ratio(r.counts["plan.multi"], r.calls(PLAN)),
                moves="latency_p50_ms"),
    LayerMetric("engine.execute.prepare_us", "us", "lower", _ONESHOT, PREPARE,
                _per_call_us(PREPARE), moves="latency_p50_ms"),
    LayerMetric("engine.backends.build_us", "us", "lower", _ONESHOT, BUILD,
                _per_call_us(BUILD), moves="latency_p50_ms"),
    LayerMetric("core.norm_pruning.us_per_query", "us", "lower", _ONESHOT, NORM,
                _per_row_us(NORM), moves="latency_p50_ms"),
    LayerMetric("core.norm_pruning.pairs_per_query", "count", "lower", _ONESHOT,
                NORM, _per_row("norm.pairs"), moves="latency_p50_ms"),
    LayerMetric("core.set_join.scan_us_per_query", "us", "lower",
                ("jaccard_scan",), SET_SCAN, _per_row_us(SET_SCAN),
                moves="throughput_qps"),
    LayerMetric("core.set_join.scan_pairs_per_query", "count", "lower",
                ("jaccard_scan",), SET_SCAN, _per_row("scan.pairs"),
                moves="throughput_qps"),
    LayerMetric("core.set_join.scan_yield", "frac", "higher", ("jaccard_scan",),
                SET_SCAN, lambda r: _ratio(r.counts["scan.answered"],
                                           r.counts["scan.pairs"]),
                moves="throughput_qps"),
    LayerMetric("core.set_join.minhash_hash_us_per_query", "us", "lower",
                ("jaccard_minhash",), MH_HASH, _per_row_us(MH_HASH),
                moves="throughput_qps"),
    LayerMetric("core.set_join.minhash_probe_us_per_query", "us", "lower",
                ("jaccard_minhash",), MH_PROBE, _per_row_us(MH_PROBE),
                moves="throughput_qps"),
    LayerMetric("core.set_join.minhash_verify_us_per_query", "us", "lower",
                ("jaccard_minhash",), MH_VERIFY, _per_row_us(MH_VERIFY),
                moves="throughput_qps"),
    LayerMetric("core.set_join.minhash_candidates_per_query", "count", "lower",
                ("jaccard_minhash",), MH_PROBE, _per_row("mh.candidates"),
                moves="throughput_qps"),
    LayerMetric("core.set_join.minhash_yield", "frac", "higher",
                ("jaccard_minhash",), MH_VERIFY,
                lambda r: _ratio(r.counts["mh.answered"], r.counts["mh.pairs"]),
                moves="throughput_qps"),
    LayerMetric("engine.session.open_s", "s", "lower", ALL, OPEN,
                lambda r: _ratio(r.spans[OPEN][1], r.calls(OPEN)) / 1e9,
                phase="setup", moves="setup_s"),
    LayerMetric("utils.persistence.save_s", "s", "lower", ("ip_point_lsh",),
                SAVE, lambda r: _ratio(r.spans[SAVE][1], r.calls(SAVE)) / 1e9,
                phase="setup", moves="setup_s"),
    LayerMetric("utils.persistence.load_s", "s", "lower", ("ip_point_lsh",),
                LOAD, lambda r: _ratio(r.spans[LOAD][1], r.calls(LOAD)) / 1e9,
                phase="setup", moves="setup_s, rss_mb"),
    LayerMetric("engine.session.latency_p90_ms", "ms", "lower", ALL,
                phase="diag", moves="(diagnostic)"),
    LayerMetric("engine.session.latency_p99_ms", "ms", "lower", ALL,
                phase="diag", moves="(diagnostic)"),
    LayerMetric("trace.overhead_frac", "frac", "lower", ALL,
                phase="diag", moves="(diagnostic)"),
)

def layer_values(rec: Recorder, setup: Recorder):
    """``{name: (value, evidence_calls)}`` for every query/setup metric."""
    out = {}
    for m in PER_LAYER:
        if m.phase == "diag":
            continue
        source = setup if m.phase == "setup" else rec
        out[m.name] = (float(m.value(source)), source.calls(m.evidence))
    return out
