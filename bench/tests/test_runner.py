"""The runner's output contract, its tracing, and BENCHMARK.json."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def run_bench(cwd, *args, timeout=120):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(tracing.PER_LAYER)
    assert doc["paths"] == ["bench"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    out = run_bench(ROOT, "--workload", "fresh_circuits", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [name for name, *_ in (tracing.PER_LAYER if trace == "1" else run.END_TO_END)]
    assert list(result["metrics"]) == names


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench(tmp_path, "--workload", "fresh_circuits", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""


def test_recorder_wraps_the_caller_bindings_and_restores_them(tmp_path):
    from matchcliff import encodings, gaussian, simulator

    originals = (simulator.run_marginal, gaussian.decompose_pauli, encodings.decompose_pauli)
    rec = tracing.Recorder()
    rec.install()
    try:
        assert simulator.run_marginal.__wrapped__ is originals[0]
        assert gaussian.decompose_pauli.__wrapped__ is originals[1]
        assert encodings.decompose_pauli.__wrapped__ is originals[2]
        wl = __import__("workloads").FreshCircuits(2, tmp_path)
        wl.op(wl.prepare(0))
    finally:
        rec.uninstall()
    assert (simulator.run_marginal, gaussian.decompose_pauli, encodings.decompose_pauli) == originals
    totals = rec.layer_totals()
    for name in ("cli.main", "circuits.load", "simulator.compile", "encodings.decompose", "f2.solve"):
        assert totals[name][1] > 0, name
    # self times add up to the time of the top-level spans
    top = sum(end - start for _, start, end, parent in rec.spans if parent < 0)
    assert sum(t for t, _ in totals.values()) == pytest.approx(top)
    values = rec.layer_values(1)
    # expect + marginal on each of two new files: each file misses once
    assert values["simulator.body_cov_cache_hit_ratio"] == 0.5
    assert set(name for name, *_ in tracing.PER_LAYER) <= set(values)
