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

from subtod.backends import ErrorInjectionConfig, ScriptedBackend
from subtod.corpus import load_corpus, save_corpus
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


def _run_job(tmp_path, commands, trace):
    """``bench/job.py``'s result for ``commands``, which must all exit 0."""
    result_path = tmp_path / "result.json"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "src": str(ROOT / "src"),
        "commands": commands,
        "trace": trace,
        "out": str(tmp_path / "out"),
        "result": str(result_path),
        "spans": str(tmp_path / "spans.jsonl.gz"),
    }), encoding="utf-8")
    # Reading bench/ must leave nothing there, and --url must reach the server.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("SUIT_BACKEND_URL", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "job.py"), str(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["exit_codes"] == [0] * len(result["exit_codes"])
    return result


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("commands", [_iterate, _staged], ids=["iterate", "sample-detect"])
def test_bench_job_runs_and_counts(tiny_corpus, tmp_path, commands, trace):
    result = _run_job(tmp_path, commands(tiny_corpus, str(tmp_path / "out")), trace)
    if trace:
        metrics = result["layers"]["metrics"]
        assert metrics["subgoals.candidates"] > 0
        assert metrics["backends.calls"] > 0
        assert metrics["subgoals.records"] > 0
        assert metrics["subgoals.detect_s"] > 0
    else:
        assert result["candidates"] > 0
        assert result["calls"] > 0


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_bench_job_over_http_counts_every_post_and_accounts_for_its_time(
    tiny_corpus, tmp_path, trace, completion_server
):
    """What http-clean relies on: one counted ``generate`` per POST, and self times that add up.

    The job counts the backend instance's ``generate`` on the thread that
    calls it. The traced run's self times plus its residual equal the job
    time (``bench/run.py``'s ``trace_self_times_sum``), which holds only
    while every span is recorded under the main thread's spans: a span
    recorded on another thread has no parent and would overlap them as a
    second root.
    """
    completion_server.serve_backend(
        ScriptedBackend(load_corpus(tiny_corpus), ErrorInjectionConfig(rate=0.4), seed=1)
    )
    [command] = _iterate(tiny_corpus, str(tmp_path / "out"))
    command += ["--backend", "http", "--url", completion_server.url]
    result = _run_job(tmp_path, [command], trace)
    posts = len(completion_server.payloads)
    assert posts > 0
    if trace:
        layers = result["layers"]
        assert layers["metrics"]["backends.calls"] == posts
        self_s = sum(layers["self_by_span"].values())
        assert abs(self_s + layers["metrics"]["trace.residual_s"] - result["job_s"]) < 1e-6
    else:
        assert result["calls"] == posts
