"""Tiny-size smoke check of the benchmark itself.

Usage, from the root of a subtod checkout: ``python3 bench/smoke.py``.

Runs every workload at a few goals, untraced and traced, and asserts that the
result line has exactly the contract's keys, that every metric BENCHMARK.json
declares is printed with its declared unit, that every output check ran and
passed, and that the benchmark refuses to run where there are no subtod
sources. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
# Corpus sizes; http-clean processes a tenth of its corpus.
TINY_GOALS = {"detect-k3": 12, "http-clean": 30, "staged-unique": 12}
CHECKS = {"cli_exit_codes", "report_invariants", "identical_outputs"}


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(TINY_GOALS)
    for workload, goals in TINY_GOALS.items():
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "3", "--seconds", "2",
                        "--trace", str(trace), "--goals", str(goals)], ROOT)
            label = f"{workload} --trace {trace}"
            assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
            details_line, result_line = proc.stdout.strip().splitlines()[-2:]
            result = json.loads(result_line)
            details = json.loads(details_line)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] is True and result["failed"] == 0, label
            assert result["attempted"] >= details["jobs"], label
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == declared[trace], f"{label}: metrics differ from BENCHMARK.json"
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            expected = set(CHECKS)
            if workload == "http-clean":
                expected.add("http_matches_scripted")
            if trace:
                expected.add("trace_self_times_sum")
            assert set(details["checks"]) == expected, f"{label}: checks {details['checks']}"
            assert all(details["checks"].values()), f"{label}: checks {details['checks']}"
            assert details["jobs"] >= 2, f"{label}: only one job compared"
            print(f"ok  {label}: {details['jobs']} jobs, checks {sorted(details['checks'])}")

    (BENCH / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns(".work", ".results", "__pycache__"))
        proc = run(["--workload", "detect-k3", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), "ran without sources"
        print("ok  refuses to run without subtod sources")
    finally:
        shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
