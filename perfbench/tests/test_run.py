"""The command prints every named metric with its unit and checks its outputs."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "derive_cold", "--seed", "5",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_layer_table_matches_the_benchmark_file():
    import layers

    names = [m["name"] for m in SPEC["per_layer"]]
    assert names == list(layers.LAYERS)
    assert set(names) == set(layers.METRICS) | set(layers.RUN_METRICS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: v["unit"] for k, v in layers.LAYERS.items()}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    for m in wanted:
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert re.search(rf"^metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$", proc.stdout, re.M)
    assert re.search(r"^env \{.*\"cpu\".*\"git_sha\".*\"nproc\".*\"numpy\".*\"python\".*\"seed\": 5", proc.stdout, re.M)
    assert "info attempted = " in proc.stdout


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
