"""BENCHMARK.json against the metrics the benchmark emits."""

import json
import re
from pathlib import Path

import pytest

import run
from layers import PER_LAYER, layer_metrics
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_top_level_keys(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60


def test_metric_names_and_units_are_well_formed(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")


def test_bounds(spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_workloads_match_the_runner(spec):
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200


def test_every_end_to_end_metric_is_emitted(spec):
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_every_per_layer_metric_is_emitted(spec):
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    # An empty trace still yields every listed metric.
    emitted = layer_metrics(Tracer(), {}, copy_gbps=1.0)
    assert list(emitted) == [name for name, _ in PER_LAYER]
