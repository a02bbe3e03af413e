"""What a process imports is part of what it costs.

``import repro`` loads no ``scipy`` module: ``scipy.stats`` alone adds
about 64 MB of resident memory and about a second to every process,
pool workers included, and ``scipy.sparse`` is needed only by the exact
Jaccard set scan.  Every inner-product backend and the MinHash join run
without scipy; a ``set_scan`` join may load ``scipy.sparse`` but never
``scipy.stats``.

The checks run in a fresh interpreter, because the test process has
whatever earlier tests imported.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

#: Runs each join in one fresh interpreter and prints, after each, the
#: scipy modules loaded so far.  ``set_scan`` runs last, because it may
#: load ``scipy.sparse``.
_SCRIPT = textwrap.dedent("""
    import json
    import sys

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    from repro import engine
    from repro.core import JoinSpec
    from repro.datasets import planted_jaccard_sets, planted_mips

    loaded = {"import repro": scipy_modules()}
    inst = planted_mips(400, 8, 16, s=0.8, c=0.5, seed=3)
    runs = [
        (backend, JoinSpec(s=0.8, c=0.5))
        for backend in ("brute_force", "norm_pruned", "lsh", "quantized",
                        "ip_filter", "auto")
    ]
    runs.append(("sketch", JoinSpec(s=0.8, signed=False)))
    for backend, spec in runs:
        result = engine.join(inst.P, inst.Q, spec, backend=backend, seed=1)
        assert any(j is not None for j in result.matches), backend
        loaded[backend] = scipy_modules()
    P, Q = planted_jaccard_sets(200, 16, 160, 12, threshold=0.6, seed=3)
    for backend in ("minhash_lsh", "set_scan"):
        result = engine.join(P, Q, JoinSpec(s=0.5, measure="jaccard"),
                             backend=backend, seed=1)
        assert any(j is not None for j in result.matches), backend
        loaded[backend] = scipy_modules()
    print(json.dumps(loaded))
""")


@pytest.fixture(scope="module")
def loaded():
    """Each run's name -> the scipy modules loaded once it finished."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_import_and_every_ip_backend_load_no_scipy(loaded):
    ran = [name for name in loaded if name != "set_scan"]
    assert ran == [
        "import repro", "brute_force", "norm_pruned", "lsh", "quantized",
        "ip_filter", "auto", "sketch", "minhash_lsh",
    ]
    assert {name: loaded[name] for name in ran if loaded[name]} == {}


def test_set_scan_loads_no_scipy_stats(loaded):
    assert not [m for m in loaded["set_scan"] if m.startswith("scipy.stats")]
