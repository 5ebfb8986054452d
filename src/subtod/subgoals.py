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
from dataclasses import dataclass
from enum import Enum

from .errors import IncompleteSamples
from .evaluate import (
    SpliceEvaluator,
    dialog_success,  # noqa: F401  unused here; bench/tracer.py patches it by name
)
from .model import (
    Database,
    Dialog,
    DialogContext,
    SubgoalKind,
    SystemTurn,
    Turn,
    UserGoal,
    contexts_of,
    replace_turn,  # noqa: F401  unused here; bench/tracer.py patches it by name
)
from .sampling import SampledTurnSet
from .verbalize import serialize_act_prompt, serialize_state_prompt, state_text, turn_text


@dataclass(frozen=True)
class CandidateGroup:
    """All candidate dialogs for one goal; ``labels`` filled by label_success."""

    goal_id: str
    goal: UserGoal
    source: Dialog
    candidates: tuple[Dialog, ...]
    labels: tuple[bool, ...] = ()

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

    context: DialogContext
    kind: SubgoalKind
    positive: SystemTurn
    negatives: tuple[SystemTurn, ...]
    goal_id: str
    dialog_id: str
    negative_ids: tuple[str, ...]
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

    Generation lists are greedy-first, so sampled choice a at a turn maps to
    list slot a (or a+1 when a greedy entry leads the list), clamped to
    whatever survived deduplication. The all-greedy dialog always comes first.
    """
    if len(samples) != len(source.turns):
        raise IncompleteSamples(
            f"dialog {source.id!r}: {len(source.turns)} turns but "
            f"{len(samples)} turn sample sets"
        )
    choices = [(0, 0)] + [((j - 1) // k, (j - 1) % k) for j in range(1, k * k + 1)]
    dialogs: list[Dialog] = []
    # Per-turn (state, completion) indices of each kept dialog; distinct
    # indices are distinct fragments (see ``SampledTurnSet``), so equal
    # index tuples are exactly equal dialogs.
    picked: set[tuple[tuple[int, int], ...]] = set()
    for number, (a, b) in enumerate(choices):
        indices = []
        for turn_set in samples:
            base = 1 if turn_set.has_greedy else 0
            state_idx = 0 if number == 0 else min(base + a, len(turn_set.states) - 1)
            spots = turn_set.completions[state_idx]
            cont_idx = 0 if number == 0 else min(base + b, len(spots) - 1)
            indices.append((state_idx, cont_idx))
        key = tuple(indices)
        if key in picked:
            continue
        picked.add(key)
        turns = []
        for t, (turn_set, (state_idx, cont_idx)) in enumerate(zip(samples, key)):
            completion = turn_set.completions[state_idx][cont_idx]
            system = SystemTurn(
                state=turn_set.states[state_idx],
                acts=completion.acts,
                response=completion.response,
            )
            turns.append(Turn(user=source.turns[t].user, system=system))
        suffix = "0-0" if number == 0 else f"{a + 1}-{b + 1}"
        dialogs.append(
            Dialog(id=f"{source.id}/cand-{suffix}", goal_id=source.goal_id, turns=tuple(turns))
        )
    return dialogs


def label_success(group: CandidateGroup, db: Database) -> CandidateGroup:
    """Label every candidate with ``dialog_success``, through one ``SpliceEvaluator``."""
    evaluator = SpliceEvaluator(group.goal, db)
    labels = tuple(evaluator.splices(d).unspliced_success for d in group.candidates)
    return dataclasses.replace(group, labels=labels)


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
    ``dialog_success`` on the spliced dialog.
    """
    failed = sorted(group.unsuccessful(), key=lambda d: d.id)
    if not failed:
        return []
    evaluator = SpliceEvaluator(group.goal, db)
    samples: list[SubgoalSample] = []
    for winner in sorted(group.successful(), key=lambda d: d.id):
        contexts = contexts_of(winner)
        splices = evaluator.splices(winner)
        for t in range(len(winner.turns)):
            original = winner.turns[t].system
            for kind in (SubgoalKind.STATE, SubgoalKind.ACT_RESPONSE):
                negatives: list[SystemTurn] = []
                negative_ids: list[str] = []
                for other in failed:
                    if t >= len(other.turns):
                        continue
                    fragment = other.turns[t].system
                    if _fragments_equal(kind, original, fragment):
                        continue
                    if not splices.success(t, kind, fragment):
                        negatives.append(fragment)
                        negative_ids.append(other.id)
                if negatives:
                    samples.append(
                        SubgoalSample(
                            context=contexts[t],
                            kind=kind,
                            positive=original,
                            negatives=tuple(negatives),
                            goal_id=group.goal_id,
                            dialog_id=winner.id,
                            negative_ids=tuple(negative_ids),
                            turn=t,
                        )
                    )
    return samples


def _prompt_and_text(sample: SubgoalSample, fragment: SystemTurn) -> tuple[str, str]:
    if sample.kind is SubgoalKind.STATE:
        prompt = serialize_state_prompt(sample.context).text
        return prompt, state_text(fragment.state)
    prompt = serialize_act_prompt(sample.context, sample.positive.state).text
    return prompt, turn_text(fragment.acts, fragment.response)


def _record_key(record: dict) -> tuple:
    return (record["goal_id"], record["dialog_id"], record["turn"], record["kind"])


def emit_sft(samples: list[SubgoalSample]) -> list[dict]:
    """One prompt/target record per sample, sorted for stable file output."""
    records = []
    for sample in samples:
        prompt, target = _prompt_and_text(sample, sample.positive)
        records.append(
            {
                "prompt": prompt,
                "target": target,
                "kind": sample.kind.value,
                "goal_id": sample.goal_id,
                "dialog_id": sample.dialog_id,
                "turn": sample.turn,
            }
        )
    records.sort(key=_record_key)
    return records


def emit_dpo(
    samples: list[SubgoalSample], pair_policy: PairPolicy = PairPolicy.FIRST
) -> list[dict]:
    """Preference records pairing each positive with flipping negatives.

    FIRST keeps only the first flipping negative per sample; ALL emits every
    pair, deduplicated on (prompt, chosen, rejected) since distinct dialogs
    can contribute textually identical fragments.
    """
    records = []
    seen: set[tuple[str, str, str]] = set()
    for sample in samples:
        prompt, chosen = _prompt_and_text(sample, sample.positive)
        negatives = sample.negatives[:1] if pair_policy is PairPolicy.FIRST else sample.negatives
        for negative in negatives:
            _, rejected = _prompt_and_text(sample, negative)
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
