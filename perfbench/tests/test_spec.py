"""BENCHMARK.json agrees with the metric definitions; run.py refuses to
run without the program source."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench.report import END_TO_END, PER_LAYER
from perfbench.run import WORKLOAD_NAMES
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_matches_metric_definitions():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOAD_NAMES) == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_run_fails_without_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tsgemm-uk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
