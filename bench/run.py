"""subtod benchmark: drive the real CLI on generated inputs and report metrics.

Usage, from the root of a subtod checkout::

    python3 bench/run.py --workload detect-k3 --seed 1 --seconds 40 --trace 0

Each run builds its corpus from ``--seed`` in a separate process, then runs
the workload's CLI command(s) through ``subtod.cli.main``, one fresh process
per job (``bench/job.py``), until ``--seconds`` have passed. Every job's
outputs are checked; any failed check makes the run fail.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: for
timings the mean over the run's jobs (goals_per_s is total goals over total
job time), for the rest the median; the details keep each metric's median.
``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics, the median over the traced jobs, from spans recorded around
subtod's public functions (``bench/tracer.py``); it reports no end-to-end
number. The last stdout line is the result JSON; the line before it holds
the details (spread, checks, hashes, run context), which are also written to
``bench/.results/``.

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``detect-k3``: ``iterate --k 3 --noise-rate 0.4``, scripted backend.
  Subgoal detection takes most of the time.
- ``http-clean``: ``iterate --backend http --k 2 --workers 2`` against
  ``bench/stub_server.py``, which adds ``SERVICE_MS`` per request. Two
  workers make a closed loop with two clients; round trips take most of the
  time, and no candidate fails, so detection does no splices.
- ``staged-unique``: ``sample`` then ``detect --mode both --pair-policy all``
  on a corpus where no two dialogs share a context, so almost no generation
  request repeats, and the candidates file is written and read back.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = BENCH / ".results"

# Fixed service time the stub server adds to every request (http-clean).
SERVICE_MS = 10.0
# A run must end within 180 s; a job normally takes a few seconds.
JOB_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    goals: int  # corpus size
    fraction: float  # --goal-fraction: the share of the corpus's goals processed
    contexts: str  # "shared" or "unique", see make_inputs.py
    http: bool
    # (corpus, out dir, seed, goal fraction, backend flags) -> CLI argv list
    commands: Callable[[str, str, int, float, list[str]], list[list[str]]]


def _iterate(k: int, noise: float, workers: int):
    def commands(corpus, out, seed, fraction, backend):
        return [
            ["iterate", "--corpus", corpus, "--out", out, "--seed", str(seed), "--k", str(k),
             "--noise-rate", str(noise), "--goal-fraction", str(fraction),
             "--workers", str(workers), *backend]
        ]

    return commands


def _staged(corpus, out, seed, fraction, backend):
    return [
        ["sample", "--corpus", corpus, "--out", out, "--seed", str(seed), "--k", "2",
         "--noise-rate", "0.4", "--goal-fraction", str(fraction), *backend],
        ["detect", "--corpus", corpus, "--candidates", str(Path(out) / "candidates.jsonl"),
         "--mode", "both", "--pair-policy", "all", "--out", out],
    ]


# http-clean processes a tenth of a larger corpus, as iterate runs usually do,
# so that its set-up (loading the corpus) is long enough to time steadily.
WORKLOADS = {
    "detect-k3": Workload(goals=300, fraction=1.0, contexts="shared", http=False,
                          commands=_iterate(3, 0.4, 1)),
    "http-clean": Workload(goals=300, fraction=0.1, contexts="shared", http=True,
                           commands=_iterate(2, 0.0, 2)),
    "staged-unique": Workload(goals=400, fraction=1.0, contexts="unique", http=False,
                              commands=_staged),
}


class CheckFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SUIT_BACKEND_URL", None)  # would override the stub server's URL
    return env


def run_context() -> dict:
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "commit": commit,
    }


@contextlib.contextmanager
def stub_server(corpus: Path, seed: int, stats: dict):
    """Run bench/stub_server.py; yield its port; fill ``stats`` at shutdown."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "stub_server.py"), "--corpus", str(corpus),
         "--seed", str(seed), "--noise-rate", "0", "--service-ms", str(SERVICE_MS)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        line = proc.stdout.readline() if ready else ""
        if not line:
            raise CheckFailed("stub server did not start")
        yield json.loads(line)["port"]
        out, _ = proc.communicate(timeout=30)
        stats.update(json.loads(out.strip().splitlines()[-1]))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


@dataclass(frozen=True)
class Run:
    name: str
    workload: Workload
    goals: int
    seed: int
    work: Path
    corpus: Path


def run_job(run: Run, trace: bool, http: bool, commands=None) -> dict:
    """One fresh-process job; returns its measurements, output hashes and counts."""
    out = run.work / "out"
    shutil.rmtree(out, ignore_errors=True)
    spec_path = run.work / "spec.json"
    result_path = run.work / "result.json"
    result_path.unlink(missing_ok=True)
    server: dict = {}

    def launch(backend_flags):
        argv = (commands or run.workload.commands)(str(run.corpus), str(out), run.seed,
                                                   run.workload.fraction, backend_flags)
        spec = {
            "src": str(SRC),
            "commands": argv,
            "trace": trace,
            "out": str(out),
            "result": str(result_path),
            "spans": str(RESULTS / f"{run.name}-spans.jsonl.gz"),
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(BENCH / "job.py"), str(spec_path)],
            env=child_env(), cwd=ROOT, timeout=JOB_TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            raise CheckFailed(f"job process failed: {proc.stderr.strip()[-2000:]}")

    if http:
        with stub_server(run.corpus, run.seed, server) as port:
            launch(["--backend", "http", "--url", f"http://127.0.0.1:{port}/v1/completions"])
    else:
        launch(["--backend", "scripted"])
    job = json.loads(result_path.read_text(encoding="utf-8"))
    if any(code != 0 for code in job["exit_codes"]):
        raise CheckFailed(f"CLI exit codes {job['exit_codes']}")
    job["server"] = server
    job["sha256"] = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }
    for i, text in enumerate(job["stdouts"]):
        job["sha256"][f"stdout-{i}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    job.update(check_outputs(out, job, run))
    shutil.rmtree(out)
    return job


def _lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return [line for line in handle if line.strip()]


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_outputs(out: Path, job: dict, run: Run) -> dict:
    """Check the invariants of one job's outputs; return goals attempted/skipped."""
    if "layers" in job:
        n_candidates = job["layers"]["metrics"]["subgoals.candidates"]
    else:
        n_candidates = job["candidates"]
    first = json.loads(job["stdouts"][0])
    if len(job["stdouts"]) == 2:  # sample, then detect
        _expect(first["n_successful"] + first["n_unsuccessful"] == first["n_candidates"]
                == n_candidates, "sample: successes + failures != candidates")
        groups = [json.loads(line) for line in _lines(out / "candidates.jsonl")]
        _expect(len(groups) == first["n_goals"], "candidates.jsonl: one line per goal")
        _expect(sum(len(g["candidates"]) for g in groups) == n_candidates,
                "candidates.jsonl: candidate count")
        _expect(sum(c["success"] for g in groups for c in g["candidates"])
                == first["n_successful"], "candidates.jsonl: success count")
        detect = json.loads(job["stdouts"][1])
        n_sft = len(_lines(out / "sft.jsonl"))
        _expect(n_sft == detect["written"]["sft.jsonl"] == detect["n_subgoal_samples"],
                "sft.jsonl lines != subgoal samples")
        _expect(len(_lines(out / "dpo.jsonl")) == detect["written"]["dpo.jsonl"],
                "dpo.jsonl lines != records written")
        attempted, skipped = first["n_goals"] + len(first["skipped"]), len(first["skipped"])
    else:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        _expect(report == first, "report.json differs from the printed report")
        histogram = {int(b): n for b, n in report["histogram"].items()}
        _expect(sum(histogram.values()) == report["n_goals_sampled"],
                "histogram sum != goals sampled")
        _expect(sum(b * n for b, n in histogram.items()) == report["n_dialogs_successful"],
                "histogram buckets != successful candidates")
        _expect(report["n_dialogs_successful"] + report["n_dialogs_unsuccessful"]
                == n_candidates, "successes + failures != candidates")
        _expect(len(_lines(out / "sft.jsonl")) == sum(report["n_subgoal_samples"].values()),
                "sft.jsonl lines != sum of n_subgoal_samples")
        skipped = len(report["skipped"])
        attempted = report["n_goals_sampled"] + skipped
    _expect(attempted == math.ceil(run.workload.fraction * run.goals),
            "goals attempted != share of corpus goals")
    return {"attempted": attempted, "skipped": skipped}


def summarize(values: list[float]) -> dict:
    """Median, sample count, values in run order, and the highest percentile with
    at least ten samples beyond it (none below 20 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    supported = None
    if n >= 20:
        q = int(100 * (n - 10) / n)
        supported = {"q": q, "value": ordered[max(0, -(-n * q // 100) - 1)]}
    return {"median": statistics.median(ordered), "n": n, "values": values,
            "highest_supported_percentile": supported}


def end_to_end(job: dict) -> dict:
    attempted = job["attempted"]
    return {
        "job_s": job["job_s"],
        "goals_per_s": attempted / job["job_s"],
        "setup_s": job["setup_s"],
        "peak_rss_mb": job["peak_rss_mb"],
        "requests_per_goal": job["calls"] / attempted,
        "goal_completion_share": (attempted - job["skipped"]) / attempted,
    }


LAYER_CANDIDATES = (
    "corpus.load_s", "corpus.candidates_write_s", "corpus.candidates_read_s",
    "backends.busy_s", "backends.construct_s", "verbalize.serialize_s", "verbalize.parse_s",
    "sampling.self_s", "subgoals.detect_s", "subgoals.assemble_s", "subgoals.label_s",
    "subgoals.emit_s", "evaluate.dev_eval_s", "iteration.write_s", "iteration.self_s",
    "cli.self_s",
)


def layers(job: dict) -> dict:
    """A traced job's per-layer metrics plus those counted by the stub server."""
    metrics = dict(job["layers"]["metrics"])
    server = job["server"]  # empty for the scripted backend
    metrics["backends.server_busy_s"] = server.get("busy_s", 0.0)
    metrics["backends.client_overhead_s"] = (
        metrics["backends.busy_s"] - server["busy_s"] if server else 0.0
    )
    metrics["backends.retries"] = server["posts"] - metrics["backends.calls"] if server else 0
    return metrics


def declared_units() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json names them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(run: Run, seconds: float, trace: bool) -> tuple[list, list, dict, dict]:
    """Run jobs for ``seconds``; return untraced jobs, traced jobs, checks, hashes."""
    subprocess.run(
        [sys.executable, str(BENCH / "make_inputs.py"), "--goals", str(run.goals),
         "--seed", str(run.seed), "--contexts", run.workload.contexts, "--out", str(run.corpus)],
        env=child_env(), cwd=ROOT, check=True, timeout=120,
    )
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        plain.append(run_job(run, False, run.workload.http))
        if trace:
            traced.append(run_job(run, True, run.workload.http))
        # At least two jobs, so that their outputs can be compared, and then
        # no job that would likely end after the deadline.
        if len(plain) >= 2 and 2 * time.monotonic() - started > deadline:
            break
    # Getting here means every job exited 0 and passed check_outputs.
    checks = {"cli_exit_codes": True, "report_invariants": True}
    hashes = plain[0]["sha256"]
    checks["identical_outputs"] = all(job["sha256"] == hashes for job in plain + traced)
    if run.workload.http:
        # The same corpus and seed, in-process on the scripted backend, one worker.
        reference = run_job(run, False, False, commands=_iterate(2, 0.0, 1))
        checks["http_matches_scripted"] = reference["sha256"] == hashes
    if traced:
        checks["trace_self_times_sum"] = all(
            abs(sum(job["layers"]["self_by_span"].values())
                + job["layers"]["metrics"]["trace.residual_s"] - job["job_s"]) < 1e-6
            for job in traced
        )
    return plain, traced, checks, hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--goals", type=int, help="override the workload's corpus size")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so that jobs and the stub server are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "subtod" / "cli.py").is_file():
        print(f"error: no subtod sources under {SRC}; run from the root of a subtod checkout",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_units()
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    (BENCH / ".work").mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    run = Run(name=args.workload, workload=workload, goals=args.goals or workload.goals,
              seed=args.seed, work=work, corpus=work / "corpus.json")
    try:
        plain, traced, checks, hashes = measure(run, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    per_job = [end_to_end(job) for job in plain]
    summary = {name: summarize([m[name] for m in per_job]) for name in per_job[0]}
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "corpus_goals": run.goals,
        "goal_fraction": workload.fraction,
        "service_ms": SERVICE_MS if workload.http else None,
        "jobs": len(plain),
        "traced_jobs": len(traced),
        "wall_s": time.monotonic() - started,
        "end_to_end": summary,
        "checks": checks,
        "sha256": hashes,
        "context": run_context(),
    }
    if args.trace:
        traced_layers = [layers(job) for job in traced]
        values = {name: statistics.median(m[name] for m in traced_layers)
                  for name in traced_layers[0]}
        values["trace.overhead_s"] = (
            statistics.median(job["job_s"] for job in traced) - summary["job_s"]["median"]
        )
        details["layer_self_s"] = traced[-1]["layers"]["self_by_span"]
        details["largest_layer"] = max(LAYER_CANDIDATES, key=lambda name: values[name])
        units = layer_units
    else:
        # Timings are the mean over the run's jobs, not the median: on a shared
        # host other tenants slow every job in a stretch of seconds to minutes by
        # up to 1.8x, so a run's jobs mix two speeds, and the median jumps between
        # them while the mean moves with the mix.
        values = {name: statistics.median(stats["values"]) for name, stats in summary.items()}
        values.update(job_s=statistics.fmean(summary["job_s"]["values"]),
                      setup_s=statistics.fmean(summary["setup_s"]["values"]),
                      goals_per_s=sum(job["attempted"] for job in plain)
                      / sum(job["job_s"] for job in plain))
        units = e2e_units
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} "
                         "are not both measured and declared in BENCHMARK.json")
    measured = plain + traced
    print(json.dumps(details, sort_keys=True))
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    correct = all(checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(job["attempted"] for job in measured),
        "failed": sum(job["skipped"] for job in measured),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
