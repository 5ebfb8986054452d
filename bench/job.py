"""Run one benchmark job in a fresh process and write its measurements.

Usage: ``python3 bench/job.py <spec.json>``. The spec names the ``src``
directory to import subtod from, the CLI commands to run in order, whether to
trace, and where to write the result. Each command goes through
``subtod.cli.main`` exactly as a user's ``subtod ...`` call would; its stdout
is captured and returned.

Untraced jobs wrap only four functions: ``load_corpus`` and the backend
constructor (timed, for ``setup_s``), the backend's ``generate`` (counted) and
``assemble_candidates`` (counted). Traced jobs install ``tracer.install``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from subtod import cli, iteration

    setup: list[float] = []
    calls = itertools.count()
    candidates: list[int] = []
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run_main = tracer.wrap("cli.main", cli.main)
    else:
        load_corpus = cli.load_corpus
        make_backend = cli._make_backend
        assemble = iteration.assemble_candidates

        def timed_load(path):
            start = time.perf_counter()
            try:
                return load_corpus(path)
            finally:
                setup.append(time.perf_counter() - start)

        def counted_backend(args, corpus):
            start = time.perf_counter()
            backend = make_backend(args, corpus)
            setup.append(time.perf_counter() - start)
            generate = backend.generate

            def counted_generate(*a, **k):
                next(calls)
                return generate(*a, **k)

            backend.generate = counted_generate
            return backend

        def counted_assemble(*a, **k):
            dialogs = assemble(*a, **k)
            candidates.append(len(dialogs))
            return dialogs

        cli.load_corpus = timed_load
        cli._make_backend = counted_backend
        iteration.assemble_candidates = counted_assemble
        run_main = cli.main

    job_s = 0.0
    exit_codes = []
    stdouts = []
    for argv in spec["commands"]:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            start = time.perf_counter()
            exit_codes.append(run_main(argv))
            job_s += time.perf_counter() - start
        stdouts.append(captured.getvalue())

    result = {
        "job_s": job_s,
        "exit_codes": exit_codes,
        "stdouts": stdouts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is None:
        result.update(setup_s=sum(setup), calls=next(calls), candidates=sum(candidates))
    else:
        candidates_file = Path(spec["out"]) / "candidates.jsonl"
        layers = tracing.layer_metrics(
            tracer,
            candidates_bytes=candidates_file.stat().st_size if candidates_file.exists() else 0,
        )
        layers["metrics"]["trace.residual_s"] = job_s - layers["roots_s"]
        result["layers"] = layers
        tracer.write(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
