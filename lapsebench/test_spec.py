"""BENCHMARK.json is the benchmark's spec as ``run.py`` defines it."""
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def test_benchmark_json_matches_spec():
    assert json.loads((HERE.parent / "BENCHMARK.json").read_text()) == run.SPEC


def test_spec_names_units_and_bounds():
    names = [m["name"] for m in run.SPEC["end_to_end"] + run.SPEC["per_layer"]]
    names += [w["name"] for w in run.SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in run.SPEC["end_to_end"] + run.SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in run.SPEC["end_to_end"])
    setup = next(m for m in run.SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in run.SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in run.SPEC["workloads"])
