"""Smoke tests of the benchmark itself.

Run with:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_tiny_run_prints_every_metric_with_its_unit(tmp_path):
    # From another working directory, so cellsim must resolve by absolute path.
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all",
                           "--seed", "0", "--seconds", "0.5"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    assert len(results) == 2 * len(workloads)
    for i, result in enumerate(results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = _units("per_layer" if i % 2 else "end_to_end")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), name
    for metric, unit in {**_units("end_to_end"), **_units("per_layer")}.items():
        line = rf"^  {re.escape(metric)} +\S+ {re.escape(unit)}$"
        assert re.search(line, proc.stdout, re.MULTILINE), metric


def test_corrupted_golden_is_a_failure():
    sys.path.insert(0, str(HERE))
    import run

    golden = dict(run.GOLDEN)
    golden["verify_jensen_mc"] = golden["verify_jensen_mc"].replace("0.9", "0.8", 1)
    result, report, code = run.run("verify_jensen_mc", golden["seed"], 0.1, False, golden)
    assert code == 1
    assert not result["correct"] and result["failed"] == 1
    assert [f for f in report["failures"] if f.startswith("golden.verify_jensen_mc")]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           BENCHMARK["workloads"][0]["name"], "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
