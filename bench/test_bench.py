"""Tests of the benchmark itself.

  PYTHONPATH=src python -m pytest -q bench

Each run.py call below is a real run with one second of timed passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer as tracing  # noqa: E402
from fronthaul_planner import cli  # noqa: E402

WORKLOADS = ("cdf_ref", "studies_ref")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, seed, trace, cwd=ROOT):
    """Run the benchmark; return (exit code, info, result), None when absent."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None
    return 0, json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_pair(request):
    """Two traced runs of one workload at one seed."""
    return [run_bench(request.param, 7, 1)[2] for _ in range(2)]


def is_count(name):
    return (name.endswith((".calls", ".failed", ".cells"))
            or name in ("rate.mc.trials", "experiments.csv_rows"))


def test_traced_counts_repeat(traced_pair):
    first, second = traced_pair
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in DECLARED["per_layer"]]
    counts = {k: v["value"] for k, v in first["metrics"].items() if is_count(k)}
    assert counts == {k: v["value"] for k, v in second["metrics"].items()
                      if is_count(k)}
    assert counts["cli.calls"] > 0


def test_tracer_counts_repeat_on_monte_carlo(tmp_path):
    argv = ["validate", "--trials", "2000", "--m", "8", "--k", "3",
            "--seed", "5", "--out", str(tmp_path)]
    seen = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            cli.main(argv)
        finally:
            tracer.uninstall()
        stats = tracing.layer_stats(tracer.spans)
        # the tracemalloc peak is a size, not a count, and varies slightly
        counts = {k: v for k, v in tracer.counters.items() if "peak_alloc" not in k}
        seen.append(({layer: s["calls"] for layer, s in stats.items()}, counts))
    assert seen[0] == seen[1]
    calls, counters = seen[0]
    assert calls["rate.mc"] == 1 and calls["cli"] > 0
    assert counters["rate.mc.trials"] == 2000
    assert counters["rate.mc.rng_bytes_computed"] == 2000 * (2 * 8 * 3 + 4 * 8) * 8


def test_uninstall_restores_every_site():
    from fronthaul_planner import experiments, fronthaul, optimizer
    before = (optimizer.grid_cells, experiments.grid_cells, cli.grid_search,
              fronthaul.FronthaulPlan.__dict__["fso_first"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert experiments.grid_cells is optimizer.grid_cells is not before[0]
        assert cli.grid_search is not before[2]
    finally:
        tracer.uninstall()
    assert before == (optimizer.grid_cells, experiments.grid_cells,
                      cli.grid_search, fronthaul.FronthaulPlan.__dict__["fso_first"])


def test_self_times_cover_traced_pass(traced_pair):
    metrics = {k: v["value"] for k, v in traced_pair[0]["metrics"].items()}
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    wall = metrics["trace.pass_s"]
    gap = wall - self_total
    assert gap >= -1e-9
    assert gap <= max(metrics["trace.overhead_s"], 0.0) + 0.01 * wall


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_digests_not_rows(workload):
    _, info_a, result_a = run_bench(workload, 1, 0)
    _, info_b, result_b = run_bench(workload, 2, 0)
    for result in (result_a, result_b):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert list(result["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]
    assert info_a["csv_rows"] == info_b["csv_rows"]
    assert info_a["csv_sha256"].keys() == info_b["csv_sha256"].keys()
    for name, digest in info_a["csv_sha256"].items():
        assert digest != info_b["csv_sha256"][name]


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, _, result = run_bench("cdf_ref", 1, 0, cwd=tmp_path)
    assert code != 0 and result is None
