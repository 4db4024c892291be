import json
from pathlib import Path

from run import END_TO_END_UNITS, PER_LAYER_UNITS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_names_what_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
