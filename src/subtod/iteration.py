"""One pipeline iteration: subsample goals, generate, detect, emit, report.

Training itself happens elsewhere; an iteration ends by writing ``sft.jsonl``
or ``dpo.jsonl`` plus ``report.json`` into the output directory, and the next
iteration points its backend at whatever model was trained on those files.
Goals run in sorted goal id order, ``BLOCK_SIZE`` at a time: each block is
sampled in one wave of distinct state requests and one of distinct
act/response requests, for the state prompts no earlier block has sampled,
and its records are appended to the output before the next block starts. So
memory grows with a block and with the turn sets kept for later goals,
rather than with the run.
Outputs are staged and replace the previous run's files only when the run
succeeds. A goal whose generation fails is skipped whole and listed in the
report rather than contributing a partial candidate group.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import shutil
import tempfile
from dataclasses import MISSING, asdict, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .backends import GeneratorBackend, stable_seed
from .corpus import Corpus, expect_type
from .errors import BackendError, CorpusError, IncompleteSamples, PipelineError
from .evaluate import evaluate_corpus
from .model import (
    Database,
    Dialog,
    Ontology,
    SubgoalKind,
    Turn,
    UserGoal,
    contexts_of,
)
# sample_turn, parse_state and parse_act_response are unused here;
# bench/tracer.py patches them by name.
from .sampling import (  # noqa: F401
    SampledTurnSet,
    SamplingConfig,
    sample_dialogs,
    sample_turn,
)
from .subgoals import (
    CandidateGroup,
    PairPolicy,
    assemble_candidates,
    detect_subgoals,
    emit_dpo,
    emit_sft,
    label_success,
)
from .verbalize import parse_act_response, parse_state, state_prompts  # noqa: F401

# Goals sampled together in one pair of request waves.
BLOCK_SIZE = 32


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
    pair_policy: PairPolicy = PairPolicy.FIRST

    def __post_init__(self):
        if not 0 < self.goal_fraction <= 1:
            raise ValueError(f"goal_fraction must be in (0, 1], got {self.goal_fraction}")
        if self.iteration_index < 0:
            raise ValueError(f"iteration_index must be non-negative, got {self.iteration_index}")

    def sampling(self) -> SamplingConfig:
        return SamplingConfig(
            k=self.k,
            temperature=self.temperature,
            seed=stable_seed(self.seed, "sampling", self.iteration_index),
        )


# The JSON type of each report field, and of its items, as ``expect_type`` checks them.
_REPORT_TYPES = {
    "iteration_index": (int, None), "k": (int, None), "train_mode": (str, None),
    "n_goals_sampled": (int, None), "n_dialogs_successful": (int, None),
    "n_dialogs_unsuccessful": (int, None), "histogram": (dict, int),
    "n_subgoal_samples": (dict, int), "skipped": (list, list), "files": (list, str),
    "dev_eval": ((dict, type(None)), None), "dev_skipped": (list, list),
}


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
    skipped: tuple[tuple[str, str], ...] = ()
    files: tuple[str, ...] = ()
    dev_eval: Mapping | None = None
    # (dev dialog id, error) per dev dialog whose greedy requests failed.
    dev_skipped: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "histogram": {str(bucket): count for bucket, count in sorted(self.histogram.items())},
            "skipped": [list(pair) for pair in self.skipped],
            "files": list(self.files),
            "dev_skipped": [list(pair) for pair in self.dev_skipped],
        }

    @staticmethod
    def from_dict(data: Mapping, where: str = "report") -> "IterationReport":
        """The report ``to_dict`` gave; a field an older report lacks takes its default.

        A missing required field or a value of another JSON type raises
        ``CorpusError`` naming its place after ``where``.
        """
        expect_type(data, dict, where)
        for f in fields(IterationReport):
            if f.name in data or f.default is MISSING:
                kind, item = _REPORT_TYPES[f.name]
                expect_type(data.get(f.name, MISSING), kind, where, f.name, item=item)
        if data.get("dev_eval") is not None:
            expect_type(data["dev_eval"].get("combined", MISSING), (int, float), where,
                        "dev_eval", "combined")
        for bucket in data["histogram"]:
            if not bucket.isdecimal():
                raise CorpusError(f"{where}['histogram']: bucket {bucket!r} is not a whole number")
        values = {f.name: data.get(f.name, f.default) for f in fields(IterationReport)}
        for name in ("skipped", "files", "dev_skipped"):
            values[name] = tuple(tuple(v) if isinstance(v, list) else v for v in values[name])
        values["histogram"] = {int(bucket): count for bucket, count in values["histogram"].items()}
        return IterationReport(**values)


def subsample_goals(goal_ids: Iterable[str], fraction: float, seed: int) -> list[str]:
    """Draw ceil(fraction * N) goal ids uniformly without replacement."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ids = sorted(goal_ids)
    n = math.ceil(fraction * len(ids))
    rng = random.Random(seed)
    return sorted(rng.sample(ids, n))


def predict_greedy(
    backend: GeneratorBackend,
    sources: Sequence[Dialog],
    cfg: SamplingConfig,
    ontology: Ontology,
) -> tuple[list[Dialog], list[tuple[str, str]]]:
    """Greedy two-stage rollout over every source dialog's contexts.

    Contexts are ground-truth prefixes, so the state requests of all dialogs
    form one wave and the act/response requests, built from the parsed
    states, a second. Replies are parsed with ``ontology``'s vocabulary.
    Returns the predicted dialogs, in source order, and ``(dialog id,
    error)`` for each source whose requests failed, sorted.
    """
    contexts = [contexts_of(source) for source in sources]
    results = sample_dialogs(backend, contexts, cfg, ontology, greedy_only=True)
    predicted = []
    skipped = []
    for source, source_contexts, turn_sets in zip(sources, contexts, results):
        if isinstance(turn_sets, PipelineError):
            skipped.append((source.id, str(turn_sets)))
            continue
        turns = tuple(
            Turn(user=context.user, system=turn_set[0][0])
            for context, turn_set in zip(source_contexts, turn_sets)
        )
        predicted.append(Dialog(id=source.id, goal_id=source.goal_id, turns=turns))
    return predicted, sorted(skipped)


def write_jsonl(path: str | Path, records: Iterable[Mapping]) -> None:
    """Append ``records`` to ``path`` as JSON lines, creating the file if needed."""
    with open(path, "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            handle.write("\n")


@contextlib.contextmanager
def staged_outputs(out_dir: str | Path) -> Iterator[Path]:
    """A fresh directory in ``out_dir`` for a run's outputs, moved into ``out_dir`` on success.

    When the block exits normally, each staged file replaces its namesake in
    ``out_dir`` with ``os.replace``. Either way the staging directory is
    removed, so a run that raises leaves the previous run's files whole and
    no partial file behind.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    try:
        yield staging
        for path in staging.iterdir():
            os.replace(path, out_dir / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def label_candidates(
    source: Dialog, goal: UserGoal, turn_sets: list[SampledTurnSet], k: int, db: Database
) -> CandidateGroup:
    """Assemble one goal's candidates from its turn sets and label them."""
    group = CandidateGroup(
        goal_id=source.goal_id,
        goal=goal,
        candidates=tuple(assemble_candidates(source, turn_sets, k)),
    )
    return label_success(group, db)


def build_group(
    source: Dialog,
    goal: UserGoal,
    backend: GeneratorBackend,
    sampling: SamplingConfig,
    k: int,
    db: Database,
) -> CandidateGroup:
    """Sample every turn of one ground-truth dialog and label its candidates."""
    [turn_sets] = sample_dialogs(backend, [contexts_of(source)], sampling, db.ontology)
    if isinstance(turn_sets, PipelineError):
        raise turn_sets
    return label_candidates(source, goal, turn_sets, k, db)


def map_goals(goal_ids: Sequence[str], fn, workers: int = 1) -> tuple[dict, list[tuple[str, str]]]:
    """Apply ``fn`` to every goal id in order; ``workers`` has no effect.

    Generation failures skip the goal instead of aborting the run; results
    keep the order of ``goal_ids`` and the skip list is returned sorted.
    """
    results: dict = {}
    skipped: list[tuple[str, str]] = []
    for goal_id in goal_ids:
        try:
            results[goal_id] = fn(goal_id)
        except (BackendError, IncompleteSamples) as exc:
            skipped.append((goal_id, str(exc)))
    skipped.sort()
    return results, skipped


def process_goals(
    corpus: Corpus,
    cfg: IterationConfig,
    backend: GeneratorBackend,
    handle: Callable[[CandidateGroup], None],
) -> tuple[dict[str, tuple[bool, ...]], list[tuple[str, str]]]:
    """Label the iteration's goals ``BLOCK_SIZE`` at a time, in sorted order, and ``handle`` each.

    Each group goes to ``handle`` as soon as it is labeled, before the next
    goal's group is built. A state prompt's turn set is sampled once per run:
    it is kept across blocks until the block that holds the last goal using
    it has been sampled, then dropped. A failure is not kept, so a later
    block that needs a failed request sends it again. Returns each goal's
    labels, in goal order, and the skipped goals, sorted. A goal is
    skipped with the error ``build_group`` on it alone would raise; a failed
    request that several goals of one block share skips each of them.
    """
    goal_ids = subsample_goals(
        corpus.goals, cfg.goal_fraction, stable_seed(cfg.seed, "goals", cfg.iteration_index)
    )
    sampling = cfg.sampling()
    dialog_map = corpus.dialog_map()
    prompts = {goal_id: state_prompts(contexts_of(dialog_map[goal_id])) for goal_id in goal_ids}
    # The last goal, in goal order, whose dialog has each state prompt.
    last_goal = {prompt: goal_id for goal_id in goal_ids for prompt in prompts[goal_id]}
    known: dict[str, SampledTurnSet] = {}
    labels: dict[str, tuple[bool, ...]] = {}
    skipped: list[tuple[str, str]] = []
    for start in range(0, len(goal_ids), BLOCK_SIZE):
        block = goal_ids[start : start + BLOCK_SIZE]
        block_prompts = [prompts.pop(goal_id) for goal_id in block]
        contexts = [contexts_of(dialog_map[goal_id]) for goal_id in block]
        outcomes = sample_dialogs(
            backend, contexts, sampling, corpus.ontology, prompts=block_prompts, known=known
        )
        sampled = dict(zip(block, outcomes))
        for goal_id, goal_prompts in zip(block, block_prompts):
            for prompt in goal_prompts:
                if last_goal[prompt] == goal_id:
                    known.pop(prompt, None)

        def process(goal_id: str) -> tuple[bool, ...]:
            turn_sets = sampled.pop(goal_id)
            if isinstance(turn_sets, PipelineError):
                raise turn_sets
            group = label_candidates(
                dialog_map[goal_id], corpus.goals[goal_id], turn_sets, cfg.k, corpus.database
            )
            handle(group)
            return group.labels

        # bench/tracer.py's map_goals wrapper takes the workers argument positionally.
        block_labels, block_skipped = map_goals(block, process, 1)
        labels.update(block_labels)
        skipped += block_skipped
    return labels, skipped


class DetectEmit:
    """The detect/emit stage: detect one labeled group's subgoals and append its records.

    Each call runs ``detect_subgoals`` on the group and appends ``emit_sft``
    or ``emit_dpo`` records to ``<mode>.jsonl`` in ``out_dir`` for every
    mode in ``modes``; the files are created up front, so a run without
    records still writes them. ``seen`` keeps ``PairPolicy.ALL``
    deduplicating across goals, ``kind_counts`` counts subgoal samples per
    fragment kind and ``written`` records per file name.
    """

    def __init__(
        self, db: Database, out_dir: Path, modes: Sequence[TrainMode], pair_policy: PairPolicy
    ):
        self.db = db
        self.pair_policy = pair_policy
        self.paths = {mode: out_dir / f"{mode.value}.jsonl" for mode in modes}
        self.seen: set[tuple[str, str, str]] = set()
        self.kind_counts = {kind.value: 0 for kind in SubgoalKind}
        self.written = {path.name: 0 for path in self.paths.values()}
        for path in self.paths.values():
            path.touch()

    def __call__(self, group: CandidateGroup) -> None:
        samples = detect_subgoals(group, self.db)
        for sample in samples:
            self.kind_counts[sample.kind.value] += 1
        for mode, path in self.paths.items():
            if mode is TrainMode.SFT:
                records = emit_sft(samples)
            else:
                records = emit_dpo(samples, self.pair_policy, self.seen)
            write_jsonl(path, records)
            self.written[path.name] += len(records)


def run_iteration(
    corpus: Corpus, cfg: IterationConfig, backend: GeneratorBackend
) -> IterationReport:
    """``process_goals`` with the detect/emit stage, then the dev evaluation and the report."""
    with staged_outputs(cfg.out_dir) as staging:
        stage = DetectEmit(corpus.database, staging, [cfg.train_mode], cfg.pair_policy)
        labels, skipped = process_goals(corpus, cfg, backend, stage)

        predicted, dev_skipped = predict_greedy(
            backend, corpus.dev_dialogs, cfg.sampling(), corpus.ontology
        )
        dev_eval = None
        if predicted:
            dev_eval = evaluate_corpus(
                predicted, corpus.dev_goals, corpus.database, corpus.dev_references()
            ).to_dict()

        histogram = {bucket: 0 for bucket in range(cfg.k * cfg.k + 2)}
        for goal_labels in labels.values():
            histogram[sum(goal_labels)] += 1
        n_successful = sum(map(sum, labels.values()))
        report = IterationReport(
            iteration_index=cfg.iteration_index,
            k=cfg.k,
            train_mode=cfg.train_mode.value,
            n_goals_sampled=len(labels),
            n_dialogs_successful=n_successful,
            n_dialogs_unsuccessful=sum(map(len, labels.values())) - n_successful,
            histogram=histogram,
            n_subgoal_samples=stage.kind_counts,
            skipped=tuple(skipped),
            files=tuple(stage.written),
            dev_eval=dev_eval,
            dev_skipped=tuple(dev_skipped),
        )
        (staging / "report.json").write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return report
