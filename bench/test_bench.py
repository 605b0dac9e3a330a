"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench

They run the self-test and the smoke mode, so they take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def _run(*args, script=BENCH / "run.py", timeout=600):
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, timeout=timeout
    )


def _results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_self_test_flags_every_corrupted_output():
    proc = _run("--self-test")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    (result,) = _results(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_smoke_reports_every_metric_of_every_workload():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    results = _results(proc.stdout)
    assert len(results) == 2 * len(workloads.WORKLOADS)
    for i, result in enumerate(results):
        section = spec["per_layer" if i % 2 else "end_to_end"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in section]
        for m in section:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_same_seed_same_inputs_and_every_seed_same_mix():
    for name in workloads.WORKLOADS:
        a, b = workloads.rounds(name, 7), workloads.rounds(name, 7)
        c = workloads.rounds(name, 8)
        first, second, other = next(a), next(b), next(c)
        assert first == second and first != other
        assert [op["kind"] for op in first] == [op["kind"] for op in other]


def test_best_of_passes_pairs_each_operation_with_its_repeats():
    assert workloads.best_of_passes([3, 5, 1, 4, 2, 6], 2) == [3, 2, 1]


def test_tail_is_the_90th_percentile_or_the_one_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 201)]
    assert run.tail(values) == (190.0, 95.0)
    assert run.tail(values[:100]) == (90.0, 90.0)
    assert run.tail(values[:40]) == (36.0, 90.0)
    assert run.tail(values[:14]) == (13.0, 100.0 * 13 / 14)


def test_refuses_a_checkout_without_sources():
    bare = BENCH.parent / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    proc = _run("--workload", "cli-short", "--seed", "1", "--seconds", "1", "--trace", "0",
                script=bare / "bench" / "run.py", timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not _results(proc.stdout)
