"""One pipeline iteration: subsample goals, generate, detect, emit, report.

Training itself happens elsewhere; an iteration ends by writing ``sft.jsonl``
or ``dpo.jsonl`` plus ``report.json`` into the output directory, and the next
iteration points its backend at whatever model was trained on those files.
Goals are processed by a bounded worker pool but merged in sorted goal id
order, so the emitted bytes never depend on the worker count. A goal whose
generation fails is skipped whole and listed in the report rather than
contributing a partial candidate group.
"""

from __future__ import annotations

import json
import math
import random
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .backends import GeneratorBackend, stable_seed
from .corpus import Corpus
from .errors import BackendError, IncompleteSamples
from .evaluate import evaluate_corpus
from .model import (
    Database,
    Dialog,
    Ontology,
    SubgoalKind,
    SystemTurn,
    Turn,
    UserGoal,
    contexts_of,
)
# sample_turn, parse_state and parse_act_response are unused here;
# bench/tracer.py patches them by name.
from .sampling import SamplingConfig, sample_turn, sample_turns  # noqa: F401
from .subgoals import (
    CandidateGroup,
    PairPolicy,
    SubgoalSample,
    assemble_candidates,
    detect_subgoals,
    emit_dpo,
    emit_sft,
    label_success,
)
from .verbalize import parse_act_response, parse_state  # noqa: F401


class TrainMode(Enum):
    SFT = "sft"
    DPO = "dpo"


@dataclass(frozen=True)
class IterationConfig:
    k: int = 2
    goal_fraction: float = 0.5
    seed: int = 0
    train_mode: TrainMode = TrainMode.SFT
    out_dir: str | Path = "."
    iteration_index: int = 0
    temperature: float = 1.0
    workers: int = 1
    pair_policy: PairPolicy = PairPolicy.FIRST

    def __post_init__(self):
        if not 0 < self.goal_fraction <= 1:
            raise ValueError(f"goal_fraction must be in (0, 1], got {self.goal_fraction}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.iteration_index < 0:
            raise ValueError(f"iteration_index must be non-negative, got {self.iteration_index}")


@dataclass(frozen=True)
class IterationReport:
    iteration_index: int
    k: int
    train_mode: str
    n_goals_sampled: int
    n_dialogs_successful: int
    n_dialogs_unsuccessful: int
    # successful-candidates-per-goal counts, buckets 0..k*k+1
    histogram: Mapping[int, int]
    n_subgoal_samples: Mapping[str, int]
    skipped: tuple[tuple[str, str], ...]
    files: tuple[str, ...]
    dev_eval: Mapping | None

    def to_dict(self) -> dict:
        return {
            "iteration_index": self.iteration_index,
            "k": self.k,
            "train_mode": self.train_mode,
            "n_goals_sampled": self.n_goals_sampled,
            "n_dialogs_successful": self.n_dialogs_successful,
            "n_dialogs_unsuccessful": self.n_dialogs_unsuccessful,
            "histogram": {str(bucket): count for bucket, count in sorted(self.histogram.items())},
            "n_subgoal_samples": dict(self.n_subgoal_samples),
            "skipped": [list(pair) for pair in self.skipped],
            "files": list(self.files),
            "dev_eval": self.dev_eval,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "IterationReport":
        return IterationReport(
            iteration_index=data["iteration_index"],
            k=data["k"],
            train_mode=data["train_mode"],
            n_goals_sampled=data["n_goals_sampled"],
            n_dialogs_successful=data["n_dialogs_successful"],
            n_dialogs_unsuccessful=data["n_dialogs_unsuccessful"],
            histogram={int(bucket): count for bucket, count in data["histogram"].items()},
            n_subgoal_samples=dict(data["n_subgoal_samples"]),
            skipped=tuple((gid, why) for gid, why in data.get("skipped", ())),
            files=tuple(data.get("files", ())),
            dev_eval=data.get("dev_eval"),
        )


@dataclass
class LoopHistory:
    """Dev-set COMBINED per iteration, in strictly increasing iteration order."""

    entries: list[tuple[int, float]] = field(default_factory=list)

    def record(self, iteration_index: int, combined: float) -> None:
        if self.entries and iteration_index <= self.entries[-1][0]:
            raise ValueError(
                f"iteration {iteration_index} does not follow {self.entries[-1][0]}"
            )
        self.entries.append((iteration_index, float(combined)))


def subsample_goals(goal_ids: Iterable[str], fraction: float, seed: int) -> list[str]:
    """Draw ceil(fraction * N) goal ids uniformly without replacement."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ids = sorted(goal_ids)
    n = math.ceil(fraction * len(ids))
    rng = random.Random(seed)
    return sorted(rng.sample(ids, n))


def should_stop(history: LoopHistory | Sequence) -> bool:
    """True when the latest dev COMBINED no longer improves on the previous one."""
    entries = history.entries if isinstance(history, LoopHistory) else list(history)
    if not entries:
        raise ValueError("history must contain at least one entry")
    if len(entries) < 2:
        return False

    def combined_of(entry) -> float:
        return float(entry[1]) if isinstance(entry, (tuple, list)) else float(entry)

    return combined_of(entries[-1]) <= combined_of(entries[-2])


def predict_greedy(
    backend: GeneratorBackend,
    sources: Sequence[Dialog],
    cfg: SamplingConfig,
    ontology: Ontology,
) -> list[Dialog]:
    """Greedy two-stage rollout over every source dialog's contexts.

    Contexts are ground-truth prefixes, so the state requests of all dialogs
    form one wave and the act/response requests, built from the parsed
    states, a second. Replies are parsed with ``ontology``'s vocabulary.
    """
    contexts = [contexts_of(source) for source in sources]
    turn_sets = iter(
        sample_turns(backend, [c for cs in contexts for c in cs], cfg, ontology, greedy_only=True)
    )
    predicted = []
    for source, source_contexts in zip(sources, contexts):
        turns = []
        for context, turn_set in zip(source_contexts, turn_sets):
            greedy = turn_set.completions[0][0]
            turns.append(
                Turn(
                    user=context.user,
                    system=SystemTurn(
                        state=turn_set.states[0], acts=greedy.acts, response=greedy.response
                    ),
                )
            )
        predicted.append(Dialog(id=source.id, goal_id=source.goal_id, turns=tuple(turns)))
    return predicted


def write_jsonl(path: str | Path, records: Iterable[Mapping]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            handle.write("\n")


def build_group(
    source: Dialog,
    goal: UserGoal,
    backend: GeneratorBackend,
    sampling: SamplingConfig,
    k: int,
    db: Database,
) -> CandidateGroup:
    """Sample every turn of one ground-truth dialog and label its candidates."""
    turn_sets = sample_turns(backend, contexts_of(source), sampling, db.ontology)
    group = CandidateGroup(
        goal_id=source.goal_id,
        goal=goal,
        source=source,
        candidates=tuple(assemble_candidates(source, turn_sets, k)),
    )
    return label_success(group, db)


def map_goals(goal_ids: Sequence[str], fn, workers: int) -> tuple[dict, list[tuple[str, str]]]:
    """Apply ``fn`` to every goal id, optionally on a thread pool.

    Generation failures skip the goal instead of aborting the run; the skip
    list is returned sorted so output never depends on completion order.
    """
    results: dict = {}
    skipped: list[tuple[str, str]] = []
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(fn, goal_id): goal_id for goal_id in goal_ids}
            for future in as_completed(futures):
                goal_id = futures[future]
                try:
                    results[goal_id] = future.result()
                except (BackendError, IncompleteSamples) as exc:
                    skipped.append((goal_id, str(exc)))
    else:
        for goal_id in goal_ids:
            try:
                results[goal_id] = fn(goal_id)
            except (BackendError, IncompleteSamples) as exc:
                skipped.append((goal_id, str(exc)))
    skipped.sort()
    return results, skipped


def run_iteration(
    corpus: Corpus, cfg: IterationConfig, backend: GeneratorBackend
) -> IterationReport:
    goal_ids = subsample_goals(
        corpus.goals, cfg.goal_fraction, stable_seed(cfg.seed, "goals", cfg.iteration_index)
    )
    sampling = SamplingConfig(
        k=cfg.k,
        temperature=cfg.temperature,
        seed=stable_seed(cfg.seed, "sampling", cfg.iteration_index),
    )
    dialog_map = corpus.dialog_map()

    def process(goal_id: str) -> tuple[CandidateGroup, list[SubgoalSample]]:
        group = build_group(
            dialog_map[goal_id], corpus.goals[goal_id], backend, sampling, cfg.k, corpus.database
        )
        return group, detect_subgoals(group, corpus.database)

    results, skipped = map_goals(goal_ids, process, cfg.workers)

    histogram = {bucket: 0 for bucket in range(cfg.k * cfg.k + 2)}
    n_successful = 0
    n_unsuccessful = 0
    samples: list[SubgoalSample] = []
    for goal_id in sorted(results):
        group, goal_samples = results[goal_id]
        wins = sum(group.labels)
        n_successful += wins
        n_unsuccessful += len(group.labels) - wins
        histogram[wins] += 1
        samples.extend(goal_samples)
    kind_counts = {kind.value: 0 for kind in SubgoalKind}
    for sample in samples:
        kind_counts[sample.kind.value] += 1

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.train_mode is TrainMode.SFT:
        data_name = "sft.jsonl"
        records = emit_sft(samples)
    else:
        data_name = "dpo.jsonl"
        records = emit_dpo(samples, cfg.pair_policy)
    write_jsonl(out_dir / data_name, records)

    dev_eval = None
    if corpus.dev_dialogs:
        predicted = predict_greedy(backend, corpus.dev_dialogs, sampling, corpus.ontology)
        dev_eval = evaluate_corpus(
            predicted, corpus.dev_goals, corpus.database, corpus.dev_references()
        ).to_dict()

    report = IterationReport(
        iteration_index=cfg.iteration_index,
        k=cfg.k,
        train_mode=cfg.train_mode.value,
        n_goals_sampled=len(results),
        n_dialogs_successful=n_successful,
        n_dialogs_unsuccessful=n_unsuccessful,
        histogram=histogram,
        n_subgoal_samples=kind_counts,
        skipped=tuple(skipped),
        files=(data_name,),
        dev_eval=dev_eval,
    )
    report_path = out_dir / "report.json"
    report_path.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report
