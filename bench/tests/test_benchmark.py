"""Tests of the benchmark itself (not collected by the tier-1 suite).

    PYTHONPATH=src python -m pytest bench/tests -q

Two smoke-size runs of all five workloads (untraced and traced) check
that every metric ``BENCHMARK.json`` declares is emitted with its unit,
that every answer check passes, and that each layer wrapper records
calls exactly on the workloads its layer serves.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
from workloads import RUN_SECONDS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(tmp_path: Path, trace: int):
    out = tmp_path / f"runs-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke",
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def tmp_module(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="module")
def plain_runs(tmp_module):
    return _smoke(tmp_module, 0)


@pytest.fixture(scope="module")
def traced_runs(tmp_module):
    return _smoke(tmp_module, 1)


def test_benchmark_json_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == [(m.name, m.unit, m.better) for m in layers.PER_LAYER]
    assert SPEC["paths"] == ["bench"]
    assert SPEC["run_seconds"] == RUN_SECONDS


def test_smoke_run_emits_every_end_to_end_metric(plain_runs):
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert [r["workload"] for r in plain_runs] == list(WORKLOADS)
    for rec in plain_runs:
        assert rec["correct"], rec["checks"]
        assert rec["checks"]["truth_queries"] > 0
        assert rec["checks"]["leaked_segments"] == []
        assert {k: m["unit"] for k, m in rec["metrics"].items()} == declared
        for name, m in rec["metrics"].items():
            assert m["value"] > 0 and m["n"] >= 1, (rec["workload"], name)
        if WORKLOADS[rec["workload"]].exact:
            assert rec["metrics"]["recall"]["value"] == 1.0


def test_traced_run_records_each_layer_where_it_runs(traced_runs):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for rec in traced_runs:
        workload = rec["workload"]
        assert rec["correct"], rec["checks"]
        assert {k: m["unit"] for k, m in rec["metrics"].items()} == declared
        unmeasured = [m.name for m in layers.PER_LAYER
                      if workload in m.unmeasured]
        assert rec["unmeasured"] == unmeasured
        for name in unmeasured:
            assert rec["metrics"][name]["value"] == 0, (workload, name)
        for m in layers.PER_LAYER:
            if m.evidence is None:
                continue
            calls = rec["layer_calls"][m.name]
            if workload in m.serves:
                assert calls > 0, (workload, m.name)
            else:
                assert calls == 0, (workload, m.name)


def test_targets_resolve_and_restore():
    originals = [layers._resolve(t.module, t.attr)[2] for t in layers.TARGETS]
    with layers.installed(layers.Recorder(cs=0.5)):
        wrapped = [layers._resolve(t.module, t.attr)[2] for t in layers.TARGETS]
        assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
    assert [layers._resolve(t.module, t.attr)[2]
            for t in layers.TARGETS] == originals


def test_check_calls_flags_unsound_and_missed_answers():
    has_partner = np.array([True, False, True, False])
    sound = lambda q, p: p != 9  # noqa: E731  (row 9 is "below cs")
    calls = [(0, [1, None]), (2, [3, 9]), (0, None), (2, [None, None]),
             (0, [None, 10])]
    v = oracle.check_calls(calls, 2, has_partner, sound, exact=True, n_rows=10)
    # Row 9 scores below cs; row 10 does not exist.
    assert (v.errors, v.unsound_pairs, v.missed_exact) == (1, 2, 2)
    assert v.failed_calls == 4
    assert (v.truth_rows, v.answered_rows) == (4, 2)
    approx = oracle.check_calls(calls[:1] + calls[3:4], 2, has_partner, sound,
                                exact=False, n_rows=10)
    assert approx.failed_calls == 0 and approx.recall == 0.5


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [x * 1.2 for x in base], "lower", 0.1)[1] == "regressed"
    assert compare.verdict(base, [x * 1.02 for x in base], "lower", 0.1)[1] == "unchanged"
    assert compare.verdict(base, [x * 1.2 for x in base], "higher", 0.1)[1] == "improved"
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0]
    assert compare.verdict(base, noisy, "lower", 0.1)[1] == "unresolved"


def test_refuses_another_run_length():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                           "jaccard_scan", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "jaccard_scan", "--seed", "1", "--seconds",
                           str(RUN_SECONDS), "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
