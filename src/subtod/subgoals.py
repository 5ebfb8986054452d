"""Candidate assembly, success labeling, and subgoal detection.

For one user goal we hold the ground-truth dialog plus per-turn generation
sets and assemble k*k+1 candidate dialogs: one follows the greedy generations
everywhere, and sampled dialog j (1-based) picks, at every turn, sampled state
(j-1) // k and sampled continuation (j-1) % k. After success labeling, a
subgoal is any (turn, kind) fragment of a successful dialog whose replacement
by the same-turn fragment of some unsuccessful dialog flips the evaluation to
failure; those fragments become the dispreferred side of preference records.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum

from .errors import CorpusError
from .evaluate import (
    DialogSplices,
    SpliceEvaluator,
    dialog_success,  # noqa: F401  unused here; bench/tracer.py patches it by name
)
from .model import (
    Database,
    Dialog,
    SubgoalKind,
    SystemTurn,
    Turn,
    UserGoal,
    replace_turn,  # noqa: F401  unused here; bench/tracer.py patches it by name
)
from .sampling import SampledTurnSet
from .verbalize import act_prompt_text, state_prompts, state_text, turn_text


@dataclass(frozen=True)
class CandidateGroup:
    """All candidate dialogs for one goal; ``labels`` filled by label_success.

    ``splices`` holds the ``DialogSplices`` each label was read from, one
    evaluator's, so that detection reuses them; a group read back from a
    candidates file has none.
    """

    goal_id: str
    goal: UserGoal
    candidates: tuple[Dialog, ...]
    labels: tuple[bool, ...] = ()
    splices: tuple[DialogSplices, ...] = field(default=(), compare=False, repr=False)

    def labeled(self) -> tuple[tuple[Dialog, bool], ...]:
        if len(self.labels) != len(self.candidates):
            raise ValueError(f"group {self.goal_id!r} is not labeled yet")
        return tuple(zip(self.candidates, self.labels))

    def successful(self) -> tuple[Dialog, ...]:
        return tuple(d for d, ok in self.labeled() if ok)

    def unsuccessful(self) -> tuple[Dialog, ...]:
        return tuple(d for d, ok in self.labeled() if not ok)


@dataclass(frozen=True)
class SubgoalSample:
    """One success-critical fragment with every replacement that broke it."""

    prompt: str  # the state prompt of ``dialog_id``'s turn ``turn``
    kind: SubgoalKind
    positive: SystemTurn
    negatives: tuple[SystemTurn, ...]
    goal_id: str
    dialog_id: str
    turn: int


class PairPolicy(Enum):
    # One preference record per sample (first flipping negative) or one per
    # distinct (positive, negative) pair.
    FIRST = "first"
    ALL = "all"


def assemble_candidates(
    source: Dialog, samples: list[SampledTurnSet], k: int
) -> list[Dialog]:
    """Build the k*k+1 candidate dialogs for one goal, duplicates dropped.

    State lists are greedy-first, so sampled state choice a at a turn maps to
    slot a+1. The greedy state's turns are greedy-first too, so continuation
    choice b maps to its slot b+1, while a sampled state's list holds only
    its samples, so b maps to slot b (see ``SampledTurnSet``). Every slot is
    clamped to whatever survived deduplication. The all-greedy dialog always
    comes first.
    """
    if len(samples) != len(source.turns):
        raise ValueError(
            f"dialog {source.id!r}: {len(source.turns)} turns but "
            f"{len(samples)} turn sample sets"
        )
    # Per candidate: its id suffix and its (state, system turn) slot per turn.
    choices = [("0-0", tuple((0, 0) for _ in samples))]
    for a, b in (divmod(j, k) for j in range(k * k)):
        slots = []
        for turn_set in samples:
            state_idx = min(1 + a, len(turn_set) - 1)
            first_sample = 1 if state_idx == 0 else 0
            slots.append((state_idx, min(first_sample + b, len(turn_set[state_idx]) - 1)))
        choices.append((f"{a + 1}-{b + 1}", tuple(slots)))
    dialogs: list[Dialog] = []
    # The slots of each kept dialog; distinct slots are distinct fragments
    # (see ``SampledTurnSet``), so equal slot tuples are exactly equal dialogs.
    picked: set[tuple[tuple[int, int], ...]] = set()
    for suffix, key in choices:
        if key in picked:
            continue
        picked.add(key)
        turns = tuple(
            Turn(user=turn.user, system=turn_set[state_idx][cont_idx])
            for turn, turn_set, (state_idx, cont_idx) in zip(source.turns, samples, key)
        )
        dialogs.append(
            Dialog(id=f"{source.id}/cand-{suffix}", goal_id=source.goal_id, turns=turns)
        )
    return dialogs


def label_success(group: CandidateGroup, db: Database) -> CandidateGroup:
    """Label every candidate with ``dialog_success``, through one ``SpliceEvaluator``."""
    evaluator = SpliceEvaluator(group.goal, db)
    splices = tuple(evaluator.splices(d) for d in group.candidates)
    labels = tuple(s.unspliced_success for s in splices)
    return dataclasses.replace(group, labels=labels, splices=splices)


def _fragments_equal(kind: SubgoalKind, a: SystemTurn, b: SystemTurn) -> bool:
    if kind is SubgoalKind.STATE:
        return a.state == b.state
    return a.acts == b.acts and a.response == b.response


def detect_subgoals(group: CandidateGroup, db: Database) -> list[SubgoalSample]:
    """Single-replacement distant supervision over a labeled group.

    For every successful dialog, turn, and fragment kind, try the same-turn
    fragment of every unsuccessful dialog (in id order); fragments identical
    to the original are skipped since they cannot change anything. Each
    replacement that flips the dialog to unsuccessful contributes a negative;
    a sample is emitted when at least one flip occurred. Replacements are
    evaluated incrementally by ``SpliceEvaluator``, which agrees with
    ``dialog_success`` on the spliced dialog; a group that ``label_success``
    labeled brings its evaluator's splices along. In a group without them, as
    read from a candidates file, a successful label that the evaluation of
    its dialog refutes raises ``CorpusError`` naming the candidate.
    """
    failed = sorted(group.unsuccessful(), key=lambda d: d.id)
    if not failed:
        return []
    if group.splices:
        winners = [(d, s) for d, ok, s in zip(group.candidates, group.labels, group.splices) if ok]
    else:
        evaluator = SpliceEvaluator(group.goal, db)
        winners = [(d, evaluator.splices(d)) for d in group.successful()]
        for dialog, splices in winners:
            if not splices.unspliced_success:
                index = next(i for i, d in enumerate(group.candidates) if d is dialog)
                raise CorpusError(f"candidates[{index}] {dialog.id!r} is labeled successful, "
                                  "but fails the evaluation")
    samples: list[SubgoalSample] = []
    for winner, splices in sorted(winners, key=lambda pair: pair[0].id):
        prompts = state_prompts(winner.turns)
        for t in range(len(winner.turns)):
            original = winner.turns[t].system
            for kind in (SubgoalKind.STATE, SubgoalKind.ACT_RESPONSE):
                negatives: list[SystemTurn] = []
                for other in failed:
                    if t >= len(other.turns):
                        continue
                    fragment = other.turns[t].system
                    if _fragments_equal(kind, original, fragment):
                        continue
                    if not splices.success(t, kind, fragment):
                        negatives.append(fragment)
                if negatives:
                    samples.append(
                        SubgoalSample(
                            prompt=prompts[t],
                            kind=kind,
                            positive=original,
                            negatives=tuple(negatives),
                            goal_id=group.goal_id,
                            dialog_id=winner.id,
                            turn=t,
                        )
                    )
    return samples


def _prompt(sample: SubgoalSample) -> str:
    if sample.kind is SubgoalKind.STATE:
        return sample.prompt
    return act_prompt_text(sample.prompt, sample.positive.state)


def _text(kind: SubgoalKind, fragment: SystemTurn) -> str:
    if kind is SubgoalKind.STATE:
        return state_text(fragment.state)
    return turn_text(fragment.acts, fragment.response)


def _record_key(record: dict) -> tuple:
    return (record["goal_id"], record["dialog_id"], record["turn"], record["kind"])


def emit_sft(samples: list[SubgoalSample]) -> list[dict]:
    """One prompt/target record per sample, sorted for stable file output."""
    records = []
    for sample in samples:
        records.append(
            {
                "prompt": _prompt(sample),
                "target": _text(sample.kind, sample.positive),
                "kind": sample.kind.value,
                "goal_id": sample.goal_id,
                "dialog_id": sample.dialog_id,
                "turn": sample.turn,
            }
        )
    records.sort(key=_record_key)
    return records


def emit_dpo(
    samples: list[SubgoalSample],
    pair_policy: PairPolicy = PairPolicy.FIRST,
    seen: set[tuple[str, str, str]] | None = None,
) -> list[dict]:
    """Preference records pairing each positive with flipping negatives.

    FIRST keeps only the first flipping negative per sample; ALL emits every
    pair, deduplicated on (prompt, chosen, rejected) since distinct dialogs
    can contribute textually identical fragments. ``seen`` holds the keys
    earlier calls emitted, so a run that emits goal by goal deduplicates
    across goals; ALL skips them and adds its own.
    """
    records = []
    seen = set() if seen is None else seen
    for sample in samples:
        prompt, chosen = _prompt(sample), _text(sample.kind, sample.positive)
        negatives = sample.negatives[:1] if pair_policy is PairPolicy.FIRST else sample.negatives
        for negative in negatives:
            rejected = _text(sample.kind, negative)
            if pair_policy is PairPolicy.ALL:
                key = (prompt, chosen, rejected)
                if key in seen:
                    continue
                seen.add(key)
            records.append(
                {
                    "prompt": prompt,
                    "chosen": chosen,
                    "rejected": rejected,
                    "kind": sample.kind.value,
                    "goal_id": sample.goal_id,
                    "dialog_id": sample.dialog_id,
                    "turn": sample.turn,
                }
            )
    records.sort(key=_record_key)
    return records
