"""The benchmark's hooks still find what they patch and count.

``bench/job.py`` and ``bench/tracer.py`` wrap subtod functions by module
attribute name and count work through them. A rename or a moved call would
crash the benchmark or zero its counters; these runs of ``bench/job.py`` on a
tiny corpus make that fail here instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from subtod.corpus import save_corpus
from subtod.synthetic import build_world

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-hooks") / "corpus.json"
    save_corpus(build_world(8, seed=3, dev_goals=2), path)
    return str(path)


def _iterate(corpus, out):
    return [["iterate", "--corpus", corpus, "--out", out, "--seed", "1", "--k", "2",
             "--noise-rate", "0.4", "--goal-fraction", "1.0", "--workers", "2"]]


def _staged(corpus, out):
    return [
        ["sample", "--corpus", corpus, "--out", out, "--seed", "1", "--k", "2",
         "--noise-rate", "0.4", "--goal-fraction", "1.0"],
        ["detect", "--corpus", corpus, "--candidates", str(Path(out) / "candidates.jsonl"),
         "--mode", "both", "--pair-policy", "all", "--out", out],
    ]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("commands", [_iterate, _staged], ids=["iterate", "sample-detect"])
def test_bench_job_runs_and_counts(tiny_corpus, tmp_path, commands, trace):
    out = tmp_path / "out"
    result_path = tmp_path / "result.json"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "src": str(ROOT / "src"),
        "commands": commands(tiny_corpus, str(out)),
        "trace": trace,
        "out": str(out),
        "result": str(result_path),
        "spans": str(tmp_path / "spans.jsonl.gz"),
    }), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "job.py"), str(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        # Reading bench/ must leave nothing there.
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["exit_codes"] == [0] * len(result["exit_codes"])
    if trace:
        metrics = result["layers"]["metrics"]
        assert metrics["subgoals.candidates"] > 0
        assert metrics["backends.calls"] > 0
        assert metrics["subgoals.records"] > 0
        assert metrics["subgoals.detect_s"] > 0
    else:
        assert result["candidates"] > 0
        assert result["calls"] > 0
