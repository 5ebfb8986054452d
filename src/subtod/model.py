"""Core data model: goals, belief states, dialogs, and the entity database.

Belief states and entities are plain nested dicts (domain -> slot -> value and
slot -> value respectively); the structured records around them are frozen
dataclasses. Everything is treated as immutable after construction, and the
operations below are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import NotInGoal, UnknownDomain, UnknownSlot

# domain -> slot -> value
BeliefState = dict[str, dict[str, str]]
# slot -> value
Entity = dict[str, str]

DONTCARE = "dontcare"


class SubgoalKind(Enum):
    """Which part of a system turn a sample or replacement targets."""

    STATE = "state"
    ACT_RESPONSE = "act_response"


# Distinct values whose normalized form is kept; values come from generated
# text, so an unbounded memo would grow with a long run.
NORMALIZE_MEMO_SIZE = 4096


@lru_cache(maxsize=NORMALIZE_MEMO_SIZE)
def normalize_value(value: str) -> str:
    """Lowercase and collapse whitespace; the equality used for value matching."""
    return " ".join(value.lower().split())


def placeholder(domain: str, slot: str) -> str:
    """Delexicalized placeholder for a slot value, e.g. ``[hotel_name]``."""
    return f"[{domain}_{slot}]"


@dataclass(frozen=True)
class DomainSchema:
    """Per-domain ontology entry."""

    informable: tuple[str, ...]
    requestable: tuple[str, ...]
    acts: tuple[str, ...]
    entity_bearing: bool = True
    # Slot whose value identifies an entity; train-style domains use "id".
    name_slot: str = "name"


@dataclass(frozen=True)
class Ontology:
    domains: Mapping[str, DomainSchema]

    def schema(self, domain: str) -> DomainSchema:
        try:
            return self.domains[domain]
        except KeyError:
            raise UnknownDomain(f"domain {domain!r} is not in the ontology") from None

    def domain_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.domains))

    def act_verbs(self) -> frozenset[str]:
        verbs: set[str] = set()
        for schema in self.domains.values():
            verbs.update(schema.acts)
        return frozenset(verbs)


@dataclass(frozen=True)
class GoalEntry:
    """One domain's share of a user goal."""

    constraints: Mapping[str, str]
    requests: frozenset[str] = frozenset()


@dataclass(frozen=True)
class UserGoal:
    domains: Mapping[str, GoalEntry]

    def domain_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.domains))


@dataclass(frozen=True)
class DialogAct:
    """A single system act; ``booking`` marks the transactional flavor of the act."""

    domain: str
    act: str
    slot: str | None = None
    booking: bool = False


@dataclass(frozen=True)
class SystemTurn:
    state: BeliefState
    acts: tuple[DialogAct, ...]
    response: str


@dataclass(frozen=True)
class Turn:
    user: str
    system: SystemTurn


@dataclass(frozen=True)
class Dialog:
    id: str
    goal_id: str
    turns: tuple[Turn, ...]


@dataclass(frozen=True)
class DialogContext:
    """The prefix of a dialog up to (and including) one user utterance."""

    goal_id: str
    turn_index: int
    pairs: tuple[Turn, ...]
    user: str


@dataclass(frozen=True)
class Database:
    ontology: Ontology
    tables: Mapping[str, tuple[Entity, ...]]


def query(db: Database, domain: str, constraints: Mapping[str, str]) -> list[Entity]:
    """Entities of ``domain`` matching every constraint, in database order.

    Matching is case-insensitive and whitespace-normalized; the reserved value
    ``dontcare`` matches anything. Non-entity-bearing domains have no table and
    cannot be queried.
    """
    schema = db.ontology.schema(domain)
    if not schema.entity_bearing:
        raise UnknownDomain(f"domain {domain!r} is not entity-bearing")
    for slot in constraints:
        if slot not in schema.informable:
            raise UnknownSlot(f"slot {slot!r} is not informable for domain {domain!r}")
    table = db.tables.get(domain, ())
    wanted = {
        slot: normalize_value(value)
        for slot, value in constraints.items()
        if normalize_value(value) != DONTCARE
    }
    matched = []
    for entity in table:
        for slot, value in wanted.items():
            if slot not in entity or normalize_value(entity[slot]) != value:
                break
        else:
            matched.append(entity)
    return matched


def contexts_of(dialog: Dialog) -> list[DialogContext]:
    """One context per turn: the first t pairs plus turn t's user utterance."""
    return [
        DialogContext(
            goal_id=dialog.goal_id,
            turn_index=t,
            pairs=dialog.turns[:t],
            user=turn.user,
        )
        for t, turn in enumerate(dialog.turns)
    ]


def replace_turn(dialog: Dialog, t: int, kind: SubgoalKind, source: SystemTurn) -> Dialog:
    """Copy of ``dialog`` with turn ``t``'s state or act/response pair swapped in.

    STATE replaces only the belief state; ACT_RESPONSE replaces acts and the
    response together. The input dialog is never modified.
    """
    if not 0 <= t < len(dialog.turns):
        raise IndexError(f"turn {t} out of range for dialog {dialog.id!r}")
    old = dialog.turns[t]
    if kind is SubgoalKind.STATE:
        system = replace(old.system, state=source.state)
    else:
        system = replace(old.system, acts=source.acts, response=source.response)
    turns = dialog.turns[:t] + (Turn(user=old.user, system=system),) + dialog.turns[t + 1 :]
    return replace(dialog, turns=turns)
