"""Self-check of the benchmark harness at tiny sizes (about ten seconds).

    python3 -m pytest -q bench/tests

It checks that every metric BENCHMARK.json declares is emitted, that no job
fails at the tiny sizes, that the tracer sees calls made through names that
other `interlace` modules imported, and that a corrupted reference output
makes jobs fail.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_are_emitted_and_nothing_fails(workload):
    result = run.run_workload(workload, seed=3, seconds=1, trace=False, scale="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["coarse", "wide"])
def test_traced_run_emits_every_layer_metric(workload):
    result = run.run_workload(workload, seed=3, seconds=1, trace=True, scale="tiny")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == declared("per_layer") == set(tracing.metric_names())
    value = {name: m["value"] for name, m in result["metrics"].items()}
    assert value["trace_overhead"] > 0
    if workload == "coarse":
        assert value["cli.main.calls"] == 4
        assert value["cli.csv_bytes"] > 0
        # dist is reached through `from .graphs import dist` in moduli and cli
        assert value["graphs.dist.calls"] > 0 and value["graphs.walk_profile.cells"] > 0
        assert value["moduli.target_evals_per_pair"] >= 1
        assert value["tree.treevec_add.calls"] > 0
    else:
        assert value["orlicz.orlicz_norm.calls"] == 3
        assert value["tree.jt_norm_exact.calls"] == 1 + workloads.WIDE_SIZES["tiny"]["full_trees"]
        assert value["graphs.dist.distinct_ratio"] > 0


def test_criteria_are_traced_through_the_registry():
    import interlace.acceptance

    tracer = tracing.Tracer().install()
    try:
        result = interlace.acceptance.CRITERIA[10](0)  # criterion_10, via the registry
    finally:
        tracer.uninstall()
    assert result.passed
    metrics = tracer.metrics()
    assert metrics["acceptance.criterion_10.total_s"] > 0
    assert metrics["orlicz.delta_transform.calls"] == 8
    assert metrics["orlicz.errors"] == 0
    assert interlace.acceptance.CRITERIA[10] is interlace.acceptance.criterion_10


def test_corrupted_reference_fails_jobs(tmp_path):
    seed = 3
    with gzip.open(workloads.reference_path("wide", "tiny"), "rt", encoding="utf-8") as fh:
        ref = json.load(fh)
    ref[str(seed % workloads.WIDE_INPUT_SEEDS)]["james-sine"] *= 1 + 1e-9
    with gzip.open(workloads.reference_path("wide", "tiny", tmp_path), "wt",
                   encoding="utf-8") as fh:
        json.dump(ref, fh)
    result = run.run_workload("wide", seed=seed, seconds=1, trace=False, scale="tiny",
                              reference_dir=tmp_path)
    assert result["failed"] >= 1 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0
