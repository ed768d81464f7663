"""BENCHMARK.json names exactly the metrics the benchmark prints."""

import json
from pathlib import Path

import run
from tracer import layer_metrics
from workloads import WORKLOADS

SPEC = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_and_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_and_units_match():
    printed = [*layer_metrics([]), "trace.overhead_s"]
    assert [m["name"] for m in SPEC["per_layer"]] == printed
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in SPEC["per_layer"])


def test_percentile_interpolates():
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile(range(201), 95) == 190
    assert run.percentile([7], 95) == 7


def test_op_latencies_average_each_operation_over_passes():
    assert run.op_latencies([[1.0, 20.0, 4.0], [3.0, 10.0, 4.0]]) == [2.0, 15.0, 4.0]
    assert run.op_latencies([[5.0]]) == [5.0]
