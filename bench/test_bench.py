"""Tests of the benchmark itself: `python3 -m pytest bench/test_bench.py`."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import islice

import pytest

import episode
import ops

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def first_ops(workload, seed, n=40):
    return [(op.index, op.kind, op.raw, op.last_in_round)
            for op in islice(ops.op_stream(workload, seed, 0), n)]


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert first_ops(workload, 7) == first_ops(workload, 7)
    assert first_ops(workload, 7) != first_ops(workload, 8)


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(ops.WORKLOADS)


def test_generator_imports_no_library_code():
    code = ("import sys; from itertools import islice; import ops; "
            "[list(islice(ops.op_stream(w, 3, 0), 50)) for w in ops.WORKLOADS]; "
            "print(any(m.split('.')[0] == 'convexval' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_wrong_volume_is_a_failed_op(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    lib = episode.load_library()
    real = lib.polytope.volume
    monkeypatch.setattr(lib.polytope, "volume", lambda P: real(P) + Fraction(1, 2))
    cfg = {"workload": "staircase", "seed": 1, "episode": 0}
    done = [(op, episode.run_op_safely(lib, op)) for op in islice(ops.op_stream("staircase", 1, 0), 12)]
    result = episode.check_all(lib, cfg, done)
    assert result["attempted"] == 12
    assert result["failed"] == 12
    monkeypatch.undo()
    assert episode.check_all(lib, cfg, done)["failed"] == 12  # answers were recorded wrong
    fresh = [(op, episode.run_op_safely(lib, op)) for op, _ in done]
    assert episode.check_all(lib, cfg, fresh)["failed"] == 0


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "4",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload,trace", [(w, 0) for w in ops.WORKLOADS] + [("library", 1), ("cli", 1)])
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, provenance, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    info = json.loads(provenance)["provenance"]
    assert result["failed"] == info["known_defect_ops"]
    if workload == "cli":
        assert result["failed"] >= 1  # the known CLI defects stay in the mix
    else:
        assert result["failed"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("staircase", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
