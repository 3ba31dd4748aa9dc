"""Tests of the benchmark itself.

Run from the root of the checkout:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch, tmp_path):
    """A few instances per run, written under a temporary directory."""
    monkeypatch.setattr(run, "POOL_SIZE", 4)
    monkeypatch.setattr(run, "TRACE_INSTANCES", 3)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def run_main(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_printed(lines, result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert any(line.startswith(f"{m['name']} ")
                   and f" {m['unit']} (" in line for line in lines), m
    assert any(line.startswith("failed_share ") for line in lines)
    assert any(line.startswith("host.calib_ms ") for line in lines)


def test_declared_metrics_match_the_runner():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_runs_end_to_end(small, capsys, workload):
    lines, result = run_main(capsys, workload, trace=0)
    check_printed(lines, result, BENCH["end_to_end"])
    assert result["attempted"] >= 3
    assert result["correct"]
    metrics = result["metrics"]
    assert metrics["instance_ms_p90"]["value"] >= \
        metrics["instance_ms_p50"]["value"] > 0.0
    assert metrics["setup_s"]["value"] > 0.0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_writes_spans(small, capsys, workload):
    lines, result = run_main(capsys, workload, trace=1)
    check_printed(lines, result, BENCH["per_layer"])
    assert result["attempted"] == 3
    spans_file = small / f"spans-{workload}-seed3.jsonl"
    spans = [json.loads(line)
             for line in spans_file.read_text().splitlines()]
    roots = [s for s in spans if s["name"] == run.ROOT_SPAN]
    assert len(roots) == 3
    assert all(s["end"] >= s["start"] for s in spans)
    assert result["metrics"]["scenario.parse_ms"]["value"] > 0.0
    assert result["metrics"]["trace.coverage_pct"]["value"] > 90.0


def test_generators_follow_the_seed(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "POOL_SIZE", 4)

    def pool(gen, seed, name):
        paths = run.write_pool(gen, seed, tmp_path / name)[1]
        return [Path(path).read_text() for path in paths]

    for gen, _ in workloads.WORKLOADS.values():
        docs = pool(gen, 7, "a")
        assert docs == pool(gen, 7, "b")
        assert all(d != e for d, e in zip(docs, pool(gen, 8, "c")))


def test_lattice_covers_each_parameter_evenly():
    shift = np.random.default_rng(5).random(len(workloads.LATTICE_STEPS))
    points = np.array([workloads.lattice_point(shift, i)
                       for i in range(100)])
    for column in points.T:
        counts = np.histogram(column, bins=10, range=(0.0, 1.0))[0]
        assert counts.min() >= 8 and counts.max() <= 12


def test_many_blocks_partition():
    doc = workloads.gen_many_blocks(np.random.default_rng(1), 0, None)
    sizes = [len(b) for b in doc["sigma_g"]]
    assert sum(sizes) == 128 and 2 <= min(sizes) and max(sizes) <= 8


def shift_rho(monkeypatch, delta):
    real = workloads.solve_rho

    def shifted(spec):
        sol = real(spec)
        return replace(sol, rho=sol.rho + delta)

    monkeypatch.setattr(workloads, "solve_rho", shifted)


def one_file(tmp_path, workload, seed=1):
    gen, pipeline = workloads.WORKLOADS[workload]
    path = tmp_path / "instance.json"
    u = workloads.lattice_point(
        np.full(len(workloads.LATTICE_STEPS), 0.5), 0)
    path.write_text(json.dumps(gen(np.random.default_rng(seed), 0, u)))
    return str(path), pipeline


@pytest.mark.parametrize("workload", ["many_blocks", "wide_block"])
def test_shifted_rho_is_counted_as_failed(monkeypatch, tmp_path, workload):
    path, pipeline = one_file(tmp_path, workload)
    assert run.attempt(pipeline, path, NullTracer())[0] == "ok"
    shift_rho(monkeypatch, 1e-3)
    outcome, error, _ = run.attempt(pipeline, path, NullTracer())
    assert outcome != "ok"


def test_benchmark_gates_catch_what_the_package_lets_through(
        monkeypatch, small, capsys):
    """With the package's own gap check switched off, the benchmark's gates
    still reject a shifted rho, and the run reports it as not correct."""
    real = workloads.extract_dual_optimizer
    monkeypatch.setattr(workloads, "extract_dual_optimizer",
                        lambda sol, spec: real(sol, spec, check_gap=False))
    shift_rho(monkeypatch, 1e-3)
    lines, result = run_main(capsys, "many_blocks", trace=0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 3
    assert result["metrics"]["instances_per_s"]["value"] == 0.0
    assert any("duality gap" in line for line in lines)


def test_failures_count_distinct_instances():
    """However many passes the host's speed allows, each file counts once,
    by its worst outcome."""
    executions = Counter()

    def pipeline(path, tracer):
        executions[path] += 1
        if path == "b" and executions[path] % 2 == 0:
            raise workloads.NotCertified("every second execution of b")
        return path

    tally, ok_runs, latencies, _, host = run.timed_loop(
        pipeline, ["a", "b"], 0.01)
    assert len(latencies) == len(host.samples) >= 4
    assert (tally.attempted, tally.failed) == (2, 1)
    assert ok_runs == len(latencies) - executions["b"] // 2


def test_host_speed_scales_to_the_reference():
    host = run.HostSpeed()
    host.samples = [2.0 * run.CALIB_REF_MS, 1.0, 3.0 * run.CALIB_REF_MS]
    assert host.scale(1.0) == pytest.approx(0.5 ** run.HOST_ELASTICITY)
    host.samples = [run.CALIB_REF_MS]
    assert host.scale(1.0) == pytest.approx(1.0)


def test_failed_consistency_report_is_not_certified(monkeypatch, tmp_path):
    path, pipeline = one_file(tmp_path, "nested_certify")
    real = workloads.run_consistency

    def strict(*args, **kwargs):
        return replace(real(*args, **kwargs), tol=0.0)

    monkeypatch.setattr(workloads, "run_consistency", strict)
    outcome, error, _ = run.attempt(pipeline, path, NullTracer())
    assert outcome == "refused"
    assert isinstance(error, workloads.NotCertified)


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many_blocks",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
