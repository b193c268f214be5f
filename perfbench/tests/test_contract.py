"""The metrics the benchmark prints are the ones BENCHMARK.json lists."""

import json
import pathlib

from perfbench import run, workloads

SPEC = json.loads((pathlib.Path(__file__).resolve().parents[2]
                   / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_and_units_match():
    listed = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert listed == run.END_TO_END


def test_per_layer_metrics_and_units_match():
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert listed == run.PER_LAYER


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(
        workloads.WORKLOADS)


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
