"""Dialog-level success evaluation, corpus BLEU, and aggregate reports.

A system turn "offers" an entity when its delexicalized response contains the
domain's name placeholder (``[hotel_name]``, ``[train_id]``, ...). INFORM asks
whether the entities matching the belief state at the *last* offer turn
intersect the entities matching the goal constraints; SUCCESS additionally
requires every requested slot to show up as a placeholder somewhere in the
system's responses. Dialog success is the conjunction over all goal domains.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Sequence

from .errors import CorpusError
from .model import (
    BeliefState,
    Database,
    Dialog,
    GoalEntry,
    SubgoalKind,
    SystemTurn,
    UserGoal,
    placeholder,
    query,
)

BLEU_EPSILON = 1e-9
BLEU_ORDER = 4

# Column order used for per-domain report rendering.
DOMAIN_COLUMN_ORDER = ("train", "attraction", "restaurant", "taxi", "hotel")


@dataclass(frozen=True)
class EvalReport:
    bleu: float
    inform: float
    success: float
    combined: float
    per_domain: Mapping[str, tuple[float, float]]
    n_dialogs: int

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "per_domain": {
                domain: {"inform": inform, "success": success}
                for domain, (inform, success) in self.per_domain.items()
            },
        }


def _goal_names(db: Database, domain: str, entry: GoalEntry) -> frozenset[str]:
    """Names of the entities matching one goal domain's constraints."""
    name_slot = db.ontology.schema(domain).name_slot
    return frozenset(e.get(name_slot, "") for e in query(db, domain, dict(entry.constraints)))


def _offer_constraints(db: Database, domain: str, state: BeliefState) -> dict[str, str]:
    """The informable part of belief ``state`` for ``domain``: what INFORM queries."""
    informable = db.ontology.schema(domain).informable
    return {s: v for s, v in state.get(domain, {}).items() if s in informable}


def _inform(
    db: Database, domain: str, constraints: Mapping[str, str], goal_names: frozenset[str]
) -> bool:
    """INFORM at an offer turn whose belief has ``constraints``."""
    name_slot = db.ontology.schema(domain).name_slot
    return any(e.get(name_slot, "") in goal_names for e in query(db, domain, constraints))


def dialog_success(dialog: Dialog, goal: UserGoal, db: Database) -> bool:
    """True iff every domain in the goal reaches SUCCESS."""
    return SpliceEvaluator(goal, db).splices(dialog).unspliced_success


@dataclass(frozen=True)
class _DomainSplices:
    """What one goal domain's outcome reads from a dialog, indexed by turn."""

    domain: str
    # Placeholder that marks an offer; None for non-entity-bearing domains.
    name_ph: str | None
    # Turns whose response carries ``name_ph``, ascending.
    offers: tuple[int, ...]
    # (placeholder, turns whose response carries it) per requested slot.
    requests: tuple[tuple[str, frozenset[int]], ...]
    # INFORM when no turn offers anything.
    no_offer_inform: bool
    # INFORM and request coverage of the unspliced dialog.
    inform: bool
    covered: bool


class SpliceEvaluator:
    """The package's one INFORM/SUCCESS rule, for a dialog and its one-fragment splices.

    ``splices(dialog).outcomes`` holds ``(domain, inform, success)`` per goal
    domain for ``evaluate_corpus``; ``unspliced_success``, their conjunction,
    is ``dialog_success`` and the label. Detection's ``success(t, kind, fragment)``
    is the dialog success of ``replace_turn(dialog, t, kind, fragment)``. Belief
    states are read only at a domain's last offer turn, acts never, and
    responses only for the placeholders they carry, so a splice re-runs INFORM
    only for a domain whose offer-turn belief it changes. Goal-entity names are
    queried once per evaluator, and INFORM once per domain and constraints.
    """

    def __init__(self, goal: UserGoal, db: Database):
        self.goal = goal
        self.db = db
        self._goal_names: dict[str, frozenset[str]] = {}
        self._informs: dict[tuple[str, frozenset[tuple[str, str]]], bool] = {}

    def inform(self, domain: str, state: BeliefState) -> bool:
        constraints = _offer_constraints(self.db, domain, state)
        key = (domain, frozenset(constraints.items()))
        inform = self._informs.get(key)
        if inform is None:
            names = self._goal_names.get(domain)
            if names is None:
                names = _goal_names(self.db, domain, self.goal.domains[domain])
                self._goal_names[domain] = names
            inform = self._informs[key] = _inform(self.db, domain, constraints, names)
        return inform

    def splices(self, dialog: Dialog) -> DialogSplices:
        return DialogSplices(self, dialog)


class DialogSplices:
    """Splice outcomes for one dialog; see ``SpliceEvaluator``."""

    def __init__(self, evaluator: SpliceEvaluator, dialog: Dialog):
        self._evaluator = evaluator
        self._dialog = dialog
        responses = [turn.system.response for turn in dialog.turns]

        def carriers(ph: str) -> tuple[int, ...]:
            return tuple(t for t, response in enumerate(responses) if ph in response)

        domains = []
        for domain in evaluator.goal.domain_names():
            entry = evaluator.goal.domains[domain]
            schema = evaluator.db.ontology.schema(domain)
            requests = tuple(
                (ph, frozenset(carriers(ph)))
                for ph in (placeholder(domain, slot) for slot in entry.requests)
            )
            no_offer_inform = not entry.constraints
            if not schema.entity_bearing:
                name_ph, offers, inform = None, (), True
            else:
                name_ph = placeholder(domain, schema.name_slot)
                offers = carriers(name_ph)
                inform = (
                    evaluator.inform(domain, dialog.turns[offers[-1]].system.state)
                    if offers
                    else no_offer_inform
                )
            covered = all(turns for _, turns in requests)
            domains.append(
                _DomainSplices(domain, name_ph, offers, requests, no_offer_inform, inform, covered)
            )
        self._domains = tuple(domains)
        self.outcomes = tuple((d.domain, d.inform, d.inform and d.covered) for d in self._domains)
        self.unspliced_success = all(success for _, _, success in self.outcomes)
        # The only turns whose belief state any domain reads.
        self._state_turns = frozenset(d.offers[-1] for d in self._domains if d.offers)

    def success(self, t: int, kind: SubgoalKind, fragment: SystemTurn) -> bool:
        """Dialog success after turn ``t``'s ``kind`` fragment becomes ``fragment``'s."""
        if not 0 <= t < len(self._dialog.turns):
            raise IndexError(f"turn {t} out of range for dialog {self._dialog.id!r}")
        if kind is SubgoalKind.STATE:
            if t not in self._state_turns:
                return self.unspliced_success
            return all(self._state_spliced(d, t, fragment.state) for d in self._domains)
        return all(self._response_spliced(d, t, fragment.response) for d in self._domains)

    def _state_spliced(self, d: _DomainSplices, t: int, state: BeliefState) -> bool:
        if not d.offers or d.offers[-1] != t:
            return d.inform and d.covered
        return d.covered and self._evaluator.inform(d.domain, state)

    def _response_spliced(self, d: _DomainSplices, t: int, response: str) -> bool:
        # A requested placeholder survives on another turn or in the new response.
        for ph, turns in d.requests:
            if turns <= {t} and ph not in response:
                return False
        if d.name_ph is None:
            return True
        last = d.offers[-1] if d.offers else None
        if d.name_ph in response:
            offer = t if last is None or t > last else last
        elif t == last:
            offer = d.offers[-2] if len(d.offers) > 1 else None
        else:
            offer = last
        if offer == last:
            return d.inform
        if offer is None:
            return d.no_offer_inform
        return self._evaluator.inform(d.domain, self._dialog.turns[offer].system.state)


def bleu_tokenize(text: str) -> list[str]:
    """Lowercase, split punctuation from words, then split on whitespace."""
    return re.sub(r"([^\w\s])", r" \1 ", text.lower()).split()


def _ngrams(tokens: Sequence[str], n: int) -> Iterable[tuple[str, ...]]:
    return (tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hypotheses: Sequence[str], references: Sequence[str]) -> float:
    """Corpus-level BLEU-4 on a 0..100 scale, one reference per hypothesis.

    Uniform quarter weights, clipped modified n-gram precision, and the
    standard brevity penalty. A zero clipped count is smoothed by replacing
    the numerator with a small epsilon instead of zeroing the whole score.
    """
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    totals = [0] * BLEU_ORDER
    clipped = [0] * BLEU_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_tokens = bleu_tokenize(hyp)
        ref_tokens = bleu_tokenize(ref)
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        for n in range(1, BLEU_ORDER + 1):
            hyp_counts = Counter(_ngrams(hyp_tokens, n))
            ref_counts = Counter(_ngrams(ref_tokens, n))
            totals[n - 1] += sum(hyp_counts.values())
            clipped[n - 1] += sum(
                min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
            )
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for total, clip in zip(totals, clipped):
        numerator = clip if clip > 0 else BLEU_EPSILON
        log_sum += math.log(numerator / max(total, 1)) / BLEU_ORDER
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum)


def combined(bleu: float, inform: float, success: float) -> float:
    return bleu + (inform + success) / 2.0


def evaluate_corpus(
    dialogs: Sequence[Dialog],
    goals: Mapping[str, UserGoal],
    db: Database,
    references: Mapping[str, Sequence[str]],
) -> EvalReport:
    """Aggregate INFORM/SUCCESS rates (percentages), BLEU, and COMBINED.

    ``references`` maps dialog id to the reference response per turn. The
    headline rates count a dialog only when the metric holds for every goal
    domain; per-domain rates are over the dialogs whose goal covers the domain.
    """
    ordered = sorted(dialogs, key=lambda d: d.id)
    inform_hits = 0
    success_hits = 0
    by_domain: dict[str, list[tuple[bool, bool]]] = {}
    hyps: list[str] = []
    refs: list[str] = []
    for dialog in ordered:
        if dialog.goal_id not in goals:
            raise CorpusError(f"goal {dialog.goal_id!r} for dialog {dialog.id!r} not found")
        outcomes = SpliceEvaluator(goals[dialog.goal_id], db).splices(dialog).outcomes
        inform_hits += all(inform for _, inform, _ in outcomes)
        success_hits += all(success for _, _, success in outcomes)
        for domain, inform, success in outcomes:
            by_domain.setdefault(domain, []).append((inform, success))
        if dialog.id not in references:
            raise CorpusError(f"no reference dialog for id {dialog.id!r}")
        ref_turns = references[dialog.id]
        if len(ref_turns) != len(dialog.turns):
            raise CorpusError(
                f"dialog {dialog.id!r}: {len(dialog.turns)} turns vs "
                f"{len(ref_turns)} references"
            )
        hyps.extend(turn.system.response for turn in dialog.turns)
        refs.extend(ref_turns)

    n = len(ordered)
    bleu = corpus_bleu(hyps, refs)
    inform_rate = 100.0 * inform_hits / n if n else 0.0
    success_rate = 100.0 * success_hits / n if n else 0.0
    order = [d for d in DOMAIN_COLUMN_ORDER if d in by_domain]
    order += sorted(set(by_domain) - set(order))
    per_domain = {
        domain: tuple(100.0 * sum(hits) / len(hits) for hits in zip(*by_domain[domain]))
        for domain in order
    }
    return EvalReport(
        bleu=bleu,
        inform=inform_rate,
        success=success_rate,
        combined=combined(bleu, inform_rate, success_rate),
        per_domain=per_domain,
        n_dialogs=n,
    )
