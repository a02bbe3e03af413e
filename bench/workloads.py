"""The five benchmark workloads: seeded inputs, the served program, one call.

Every workload is a closed loop with one client: the next batch is sent
only after the previous answer came back.  A workload builds its inputs
from the seed (inner-product data with the generators below, sets with
``repro.datasets.sets.planted_jaccard_sets``, so a change to that
generator is a change to the benchmark's inputs), opens the program
through its public entry points (``engine.open``, ``open_path``,
``session.query``, ``engine.join``) and answers one query batch per
call.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

#: Seed of the program's randomized indexes (LSH tables, MinHash bands).
#: It is configuration, not input: held fixed so that run-to-run
#: differences come from the data and the host, not from drawing a lucky
#: or unlucky hash family (on Zipfian sets, drawing the MinHash family
#: from the run seed spread ``jaccard_minhash`` throughput over 1.7x).
ENGINE_SEED = 2016

#: Length of the timed phase, fixed so that every run measures the same
#: amount of time (``run_seconds`` in ``BENCHMARK.json``); smoke runs,
#: for the benchmark's own tests, use the short one.
RUN_SECONDS = 10
SMOKE_SECONDS = 1

#: Workload -> problem sizes; ``smoke`` sizes keep the test suite fast.
SIZES = {
    "ip_point_lsh": dict(full=dict(n=100_000, d=64, pool=8192, batch=1),
                         smoke=dict(n=3_000, d=64, pool=256, batch=1)),
    "ip_batch_quantized": dict(full=dict(n=100_000, d=64, pool=8192, batch=1024),
                               smoke=dict(n=3_000, d=64, pool=256, batch=128)),
    "ip_oneshot_auto": dict(full=dict(n=30_000, d=32, pool=4096, batch=1024),
                            # 512-row batches keep the two-stage pick at n=3000.
                            smoke=dict(n=3_000, d=32, pool=512, batch=512)),
    "jaccard_scan": dict(full=dict(n=4_000, universe=2048, pool=2048, batch=64),
                         smoke=dict(n=400, universe=512, pool=128, batch=64)),
    "jaccard_minhash": dict(full=dict(n=4_000, universe=2048, pool=2048, batch=64),
                            smoke=dict(n=400, universe=512, pool=128, batch=64)),
}


# ---------------------------------------------------------------------------
# Inner-product input generators (deterministic in the seed)


def _unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return X


def planted_ip(seed: int, n: int, d: int, pool: int,
               planted_frac: float = 0.10, rho: float = 0.92):
    """0.95-scaled unit rows; ``planted_frac`` of the shuffled query pool has
    a partner at cosine exactly ``rho`` (inner product ``rho * 0.95**2``
    = 0.830 > s = 0.8), while random pairs in d = 64 stay far below
    ``cs`` = 0.72."""
    rng = np.random.default_rng(seed)
    P = _unit_rows(rng, n, d)
    Q = _unit_rows(rng, pool, d)
    k = int(round(planted_frac * pool))
    partners = rng.choice(n, size=k, replace=False)
    noise = rng.standard_normal((k, d))
    base = P[partners]
    noise -= np.einsum("ij,ij->i", noise, base)[:, None] * base
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    Q[:k] = rho * base + np.sqrt(1.0 - rho * rho) * noise
    Q = Q[rng.permutation(pool)]
    return 0.95 * P, 0.95 * Q


def hub_tail_ip(seed: int, n: int, d: int, pool: int,
                hub_frac: float = 0.02, hub_query_frac: float = 0.85):
    """Norm-skewed data built for two-stage plans.

    ``hub_frac`` of the rows are norm-2 hubs in the first ``d // 4``
    coordinates; the rest are norm-0.5 tail rows in the other
    coordinates, so the two groups are orthogonal.  Hub queries align
    with a hub (inner product ~2, above s); tail queries sit at 0.45
    with a tail row, inside the ``(cs, s)`` gap.  The pool is shuffled.
    """
    rng = np.random.default_rng(seed)
    n_hub = max(1, int(round(hub_frac * n)))
    d_hub = d // 4
    d_tail = d - d_hub
    P = np.zeros((n, d))
    P[:n_hub, :d_hub] = 2.0 * _unit_rows(rng, n_hub, d_hub)
    P[n_hub:, d_hub:] = 0.5 * _unit_rows(rng, n - n_hub, d_tail)
    m_hub = int(round(hub_query_frac * pool))
    Q = np.zeros((pool, d))
    hubs = P[rng.integers(0, n_hub, m_hub), :d_hub] / 2.0
    Qh = hubs + 0.05 * rng.standard_normal((m_hub, d_hub))
    Q[:m_hub, :d_hub] = Qh / np.linalg.norm(Qh, axis=1, keepdims=True)
    U = P[rng.integers(n_hub, n, pool - m_hub), d_hub:] / 0.5
    W = rng.standard_normal((pool - m_hub, d_tail))
    W -= np.einsum("ij,ij->i", W, U)[:, None] * U
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    Q[m_hub:, d_hub:] = 0.9 * U + np.sqrt(1.0 - 0.9 ** 2) * W
    return P, Q[rng.permutation(pool)]


# ---------------------------------------------------------------------------
# Workload definitions


@dataclass
class Inputs:
    """One workload's generated data: ``P``, the query ``pool`` and sizes."""

    P: Any
    pool: Any
    spec: Any
    sizes: Dict[str, int]


class Server:
    """What the client talks to: ``call(batch)`` answers one batch."""

    def __init__(self, call: Callable, close: Callable = lambda: None,
                 picked: str = ""):
        self.call = call
        self.close = close
        self.picked = picked


@dataclass
class Workload:
    name: str
    measure: str            # "ip" or "jaccard" (selects the oracle)
    exact: bool             # exact backends must answer every true query
    make_inputs: Callable   # (seed, sizes) -> Inputs
    open: Callable          # (inputs, workdir) -> Server


def batch_starts(inputs: Inputs) -> List[int]:
    """First pool row of each batch; the pool is a whole number of batches."""
    b = inputs.sizes["batch"]
    return list(range(0, int(inputs.pool.shape[0]), b))


def _ip_inputs(generator, **spec_kw):
    def make(seed: int, sizes: dict) -> Inputs:
        from repro.core.problems import JoinSpec

        P, Q = generator(seed, sizes["n"], sizes["d"], sizes["pool"])
        return Inputs(P=P, pool=Q, spec=JoinSpec(**spec_kw), sizes=sizes)
    return make


def _set_inputs(seed: int, sizes: dict) -> Inputs:
    """Zipfian sets (mean size 32) with planted queries at Jaccard ~0.74."""
    from repro.core.problems import JoinSpec
    from repro.datasets.sets import planted_jaccard_sets

    P, Q = planted_jaccard_sets(sizes["n"], sizes["pool"], sizes["universe"],
                                32, threshold=0.6, seed=seed)
    return Inputs(P=P, pool=Q, spec=JoinSpec(s=0.6, c=1.0, measure="jaccard"),
                  sizes=sizes)


def _session_server(session) -> Server:
    return Server(call=session.query, close=session.close,
                  picked=session.the_plan.backend)


def _open_lsh_memmap(inputs: Inputs, workdir: Path) -> Server:
    """open(lsh) -> save -> open_path(mmap=True): the persisted serving path."""
    from repro import engine

    session = engine.open(inputs.P, inputs.spec, backend="lsh", seed=ENGINE_SEED)
    path = Path(tempfile.mkdtemp(prefix="lsh-", dir=workdir))
    try:
        session.save(path / "index")
    finally:
        session.close()
    served = _session_server(engine.open_path(path / "index", mmap=True))
    session_close = served.close

    def close():
        session_close()
        shutil.rmtree(path, ignore_errors=True)

    served.close = close
    return served


def _open_quantized_pool(inputs: Inputs, workdir: Path) -> Server:
    from repro import engine

    return _session_server(engine.open(
        inputs.P, inputs.spec, backend="quantized", n_workers=2, pool="process"))


def _open_oneshot(inputs: Inputs, workdir: Path) -> Server:
    """Set-up of a one-shot join is what each call pays before it scans:
    plan, prepare and build for this instance.  ``engine.join`` is a lazy
    session with ``expected_queries=1``, so opening one with the same
    hint and batch shape plans and builds exactly that, through the
    public entry point; the session is closed and each call re-does it."""
    from repro import engine

    P, spec = inputs.P, inputs.spec
    probe = engine.open(P, spec, backend="auto", seed=ENGINE_SEED,
                        expected_queries=1,
                        query_batch_hint=inputs.sizes["batch"])
    picked = probe.the_plan.backend
    probe.close()
    return Server(
        call=lambda Q: engine.join(P, Q, spec, backend="auto", seed=ENGINE_SEED),
        picked=picked,
    )


def _open_sets(backend: str):
    def open_(inputs: Inputs, workdir: Path) -> Server:
        from repro import engine

        return _session_server(
            engine.open(inputs.P, inputs.spec, backend=backend, seed=ENGINE_SEED))
    return open_


WORKLOADS = {
    w.name: w for w in (
        Workload("ip_point_lsh", "ip", False,
                 _ip_inputs(planted_ip, s=0.8, c=0.9, signed=True),
                 _open_lsh_memmap),
        Workload("ip_batch_quantized", "ip", True,
                 _ip_inputs(planted_ip, s=0.8, c=0.9, signed=True),
                 _open_quantized_pool),
        Workload("ip_oneshot_auto", "ip", False,
                 _ip_inputs(hub_tail_ip, s=0.8, c=0.5, signed=True),
                 _open_oneshot),
        Workload("jaccard_scan", "jaccard", True, _set_inputs,
                 _open_sets("set_scan")),
        Workload("jaccard_minhash", "jaccard", False, _set_inputs,
                 _open_sets("minhash_lsh")),
    )
}
