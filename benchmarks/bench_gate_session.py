"""Speed and memory gates of prepared sessions.

* ``session_reuse_speedup_floor``: 50 query batches of 64 against a
  planted n = 100,000, d = 64 ``lsh`` index through one prepared
  ``engine.open`` session must run at least
  ``SESSION_REUSE_SPEEDUP_FLOOR`` times faster than the same batches as
  one-shot ``engine.join`` calls, which rebuild the index every call.
* ``session_mmap_rss_ceiling``: right after ``engine.open_path`` in a
  fresh child process, the resident set of a memmap load of the saved
  session may be at most ``SESSION_MMAP_RSS_CEILING`` times that of a
  full load.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from benchmarks.conftest import best_of, planted_unit
from repro import engine
from repro.core import JoinSpec

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

SESSION_FULL = dict(n=100_000, d=64, batch=64, batches=50, n_tables=12,
                    hashes_per_table=12, block=256, seed=2016)
#: Build dominates the one-shot wall at n = 100k, so the ratio
#: approaches the batch count; 5x leaves a wide margin.
SESSION_REUSE_SPEEDUP_FLOOR = 5.0
#: The memmap load maps sidecar pages lazily, so right after
#: ``open_path`` its resident set is the interpreter's; the full load
#: holds every array in anonymous memory.
SESSION_MMAP_RSS_CEILING = 0.85

#: Child program: load the saved session and print the resident set.
#: Current ``VmRSS`` from ``/proc/self/statm``, not ``ru_maxrss``: the
#: rusage peak is inherited through fork and survives exec on Linux, so
#: it would report the parent's peak.  Off Linux it falls back to
#: ``ru_maxrss`` (then only an upper bound).
_RSS_CHILD = """\
import os
import resource
import sys

from repro.engine import open_path

session = open_path(sys.argv[1], mmap=(sys.argv[2] == "1"))
try:
    with open("/proc/self/statm") as handle:
        rss = int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
except (OSError, ValueError, IndexError):
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
print(rss)
session.close()
"""


@pytest.fixture(scope="module")
def workload():
    cfg = SESSION_FULL
    P, Q = planted_unit(cfg["n"], cfg["d"], cfg["batches"] * cfg["batch"],
                        cfg["seed"])
    batches = [np.ascontiguousarray(Q[i:i + cfg["batch"]])
               for i in range(0, Q.shape[0], cfg["batch"])]
    options = dict(backend="lsh", seed=cfg["seed"] + 2, block=cfg["block"],
                   n_tables=cfg["n_tables"],
                   hashes_per_table=cfg["hashes_per_table"])
    return P, batches, JoinSpec(s=0.75, c=0.8), options


def test_session_reuse_speedup_floor(workload):
    P, batches, spec, options = workload

    def reuse():
        with engine.open(P, spec, expected_queries=len(batches),
                         **options) as session:
            return [session.query(Qb) for Qb in batches]

    oneshot_s, _ = best_of(
        lambda: [engine.join(P, Qb, spec, **options) for Qb in batches])
    session_s, _ = best_of(reuse)
    speedup = oneshot_s / session_s
    print(f"session reuse {speedup:.1f}x one-shot joins")
    assert speedup >= SESSION_REUSE_SPEEDUP_FLOOR, f"{speedup:.2f}x"


def _load_rss(index_dir, mmap: bool) -> int:
    env = dict(os.environ)
    prior = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = SRC + (os.pathsep + prior if prior else "")
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, str(index_dir), "1" if mmap else "0"],
        capture_output=True, text=True, env=env, check=True)
    return int(proc.stdout)


def test_session_mmap_rss_ceiling(workload, tmp_path):
    P, batches, spec, options = workload
    index_dir = tmp_path / "index"
    with engine.open(P, spec, expected_queries=len(batches),
                     **options) as session:
        session.save(index_dir)
    full = _load_rss(index_dir, mmap=False)
    mapped = _load_rss(index_dir, mmap=True)
    print(f"post-load RSS: memmap {mapped / 1e6:.0f} MB, "
          f"full {full / 1e6:.0f} MB")
    assert mapped <= SESSION_MMAP_RSS_CEILING * full, \
        f"{mapped / full:.2f}x"
