"""Command-line entry point.

Subcommands: ``synth`` writes a synthetic corpus, ``evaluate`` scores a
predictions file, ``sample`` generates and labels candidate dialogs,
``detect`` turns labeled candidates into training records, ``iterate`` runs
the full per-iteration pipeline, and ``stats`` renders report files as a
table. Exit codes: 0 on success, 2 on input or validation problems, 3 when
the generation backend is unreachable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing
from pathlib import Path

from .backends import ErrorInjectionConfig, GeneratorBackend, HttpBackend, ScriptedBackend
# dialog_from_dict, dialog_to_dict, build_group, map_goals, detect_subgoals,
# emit_sft and emit_dpo are unused here; bench/tracer.py patches them by name.
from .corpus import (
    Corpus,
    candidates_record,
    dialog_from_dict,  # noqa: F401
    dialog_to_dict,  # noqa: F401
    load_corpus,
    load_predictions,
    read_candidates,
    read_json,
    save_corpus,
)
from .errors import BackendError, PipelineError
from .evaluate import evaluate_corpus
from .iteration import (  # noqa: F401
    DetectEmit,
    IterationConfig,
    IterationReport,
    TrainMode,
    build_group,
    map_goals,
    process_goals,
    run_iteration,
    staged_outputs,
    write_jsonl,
)
from .subgoals import CandidateGroup, PairPolicy, detect_subgoals, emit_dpo, emit_sft  # noqa: F401
from .synthetic import build_world

BACKEND_URL_ENV = "SUIT_BACKEND_URL"


def _print_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _make_backend(args, corpus: Corpus) -> GeneratorBackend:
    if args.backend == "scripted":
        noise = ErrorInjectionConfig(rate=args.noise_rate)
        return ScriptedBackend(corpus, noise, seed=args.seed)
    url = os.environ.get(BACKEND_URL_ENV) or args.url
    if not url:
        raise ValueError(f"--backend http requires --url or {BACKEND_URL_ENV}")
    return HttpBackend(url)


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=("scripted", "http"), default="scripted")
    parser.add_argument("--url", help=f"http backend endpoint; {BACKEND_URL_ENV} overrides")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--temperature", type=float, default=1.0)
    parser.add_argument("--goal-fraction", type=float, default=0.5)
    parser.add_argument("--iteration", type=int, default=0)
    parser.add_argument("--noise-rate", type=float, default=0.0,
                        help="scripted backend error injection rate per site")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; has no effect")


def cmd_synth(args) -> int:
    corpus = build_world(args.goals, seed=args.seed, dev_goals=args.dev)
    save_corpus(corpus, args.out)
    _print_json(
        {
            "corpus": str(args.out),
            "n_goals": len(corpus.goals),
            "n_dev_goals": len(corpus.dev_goals),
        }
    )
    return 0


def cmd_evaluate(args) -> int:
    corpus = load_corpus(args.corpus)
    predictions = load_predictions(args.predictions)
    goals = {**corpus.goals, **corpus.dev_goals}
    references = {**corpus.references(), **corpus.dev_references()}
    report = evaluate_corpus(predictions, goals, corpus.database, references)
    _print_json(report.to_dict())
    if args.per_domain:
        print()
        print(f"{'domain':<12} {'inform':>7} {'success':>8}")
        for domain, (inform, success) in report.per_domain.items():
            print(f"{domain:<12} {inform:>7.1f} {success:>8.1f}")
    return 0


def _iteration_config(args, **emission) -> IterationConfig:
    if args.workers < 1:
        raise ValueError(f"workers must be at least 1, got {args.workers}")
    return IterationConfig(
        k=args.k,
        goal_fraction=args.goal_fraction,
        seed=args.seed,
        out_dir=args.out,
        iteration_index=args.iteration,
        temperature=args.temperature,
        **emission,
    )


def cmd_sample(args) -> int:
    corpus = load_corpus(args.corpus)
    with closing(_make_backend(args, corpus)) as backend, staged_outputs(args.out) as staging:
        path = staging / "candidates.jsonl"
        path.touch()

        def write_group(group: CandidateGroup) -> None:
            write_jsonl(path, [candidates_record(group.goal_id, group.labeled())])

        labels, skipped = process_goals(corpus, _iteration_config(args), backend, write_group)
    n_candidates = sum(map(len, labels.values()))
    n_successful = sum(map(sum, labels.values()))
    _print_json(
        {
            "candidates_file": str(Path(args.out) / "candidates.jsonl"),
            "n_goals": len(labels),
            "n_candidates": n_candidates,
            "n_successful": n_successful,
            "n_unsuccessful": n_candidates - n_successful,
            "skipped": [list(pair) for pair in skipped],
        }
    )
    if not labels and skipped:
        print(f"error: backend failure: every goal was skipped: {skipped[0][1]}", file=sys.stderr)
        return 3
    return 0


def cmd_detect(args) -> int:
    """Detect subgoals one candidates line at a time; goal ids must strictly ascend."""
    corpus = load_corpus(args.corpus)
    modes = [TrainMode.SFT, TrainMode.DPO] if args.mode == "both" else [TrainMode(args.mode)]
    with open(args.candidates, encoding="utf-8") as handle, staged_outputs(args.out) as staging:
        stage = DetectEmit(corpus.database, staging, modes, PairPolicy(args.pair_policy))
        for goal_id, dialogs, labels in read_candidates(handle, corpus.goals):
            stage(CandidateGroup(goal_id=goal_id, goal=corpus.goals[goal_id],
                                 candidates=dialogs, labels=labels))
    _print_json({"n_subgoal_samples": sum(stage.kind_counts.values()), "written": stage.written})
    return 0


def cmd_iterate(args) -> int:
    corpus = load_corpus(args.corpus)
    with closing(_make_backend(args, corpus)) as backend:
        cfg = _iteration_config(
            args, train_mode=TrainMode(args.mode), pair_policy=PairPolicy(args.pair_policy)
        )
        report = run_iteration(corpus, cfg, backend)
    _print_json(report.to_dict())
    if report.n_goals_sampled == 0 and report.skipped:
        print(f"error: backend failure: every goal was skipped: {report.skipped[0][1]}",
              file=sys.stderr)
        return 3
    return 0


def cmd_stats(args) -> int:
    reports = [IterationReport.from_dict(read_json(path), path) for path in args.report]
    reports.sort(key=lambda r: r.iteration_index)
    max_bucket = max(r.k * r.k + 1 for r in reports)
    headers = ["iter", "mode", "goals", "success", "unsuccess"]
    headers += [str(b) for b in range(max_bucket + 1)]
    # The paper stops iterating once dev COMBINED no longer improves.
    headers += ["state", "act_response", "combined"]
    rows = []
    for report in reports:
        row = [
            str(report.iteration_index),
            report.train_mode,
            str(report.n_goals_sampled),
            str(report.n_dialogs_successful),
            str(report.n_dialogs_unsuccessful),
        ]
        row += [str(report.histogram.get(b, 0)) for b in range(max_bucket + 1)]
        row += [
            str(report.n_subgoal_samples.get("state", 0)),
            str(report.n_subgoal_samples.get("act_response", 0)),
            f"{report.dev_eval['combined']:.2f}" if report.dev_eval else "-",
        ]
        rows.append(row)
    widths = [
        max(len(header), *(len(row[i]) for row in rows)) for i, header in enumerate(headers)
    ]
    print("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subtod")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic corpus")
    p.add_argument("--goals", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dev", type=int, default=None, help="held-out goal count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("evaluate", help="score a predictions file against a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--per-domain", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sample", help="generate and label candidate dialogs")
    p.add_argument("--corpus", required=True)
    _add_backend_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("detect", help="detect subgoals in labeled candidates")
    p.add_argument("--corpus", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--mode", choices=("sft", "dpo", "both"), default="both")
    p.add_argument("--pair-policy", choices=("first", "all"), default="first")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("iterate", help="run one full pipeline iteration")
    p.add_argument("--corpus", required=True)
    _add_backend_flags(p)
    p.add_argument("--mode", choices=("sft", "dpo"), default="sft")
    p.add_argument("--pair-policy", choices=("first", "all"), default="first")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("stats", help="render iteration reports as a table")
    p.add_argument("--report", action="append", required=True, help="repeatable")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BackendError as exc:
        print(f"error: backend failure: {exc}", file=sys.stderr)
        return 3
    except (PipelineError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
