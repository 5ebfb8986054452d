"""Loading, validating, and writing the self-contained corpus JSON format.

A corpus file bundles everything one run needs::

    {
      "ontology":  {domain: {"informable": [...], "requestable": [...],
                             "acts": [...], "entity_bearing": bool,
                             "name_slot": "name"}},
      "database":  {domain: [{slot: value, ...}, ...]},
      "dialogs":   [{"id": ..., "goal": {domain: {"constraints": {...},
                                                  "requests": [...]}},
                     "turns": [{"user": ..., "state": {...},
                                "acts": [{"domain": ..., "act": ...,
                                          "slot": ..., "booking": bool}],
                                "response": ...}]}],
      "dev_dialogs": [...]            # optional held-out split
    }

Goals are inlined per dialog; a dialog's goal_id equals its id.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import CorpusError
from .model import (
    Database,
    Dialog,
    DialogAct,
    DomainSchema,
    GoalEntry,
    Ontology,
    SystemTurn,
    Turn,
    UserGoal,
)
from .verbalize import SPECIAL_TOKENS

_PLACEHOLDER_RE = re.compile(r"\[([a-z]+)_([a-z0-9_ ]+)\]")
_BRACKET_RE = re.compile(r"\[[^\[\]\s]+\]")


@dataclass(frozen=True)
class Corpus:
    ontology: Ontology
    database: Database
    dialogs: tuple[Dialog, ...]
    goals: Mapping[str, UserGoal]
    dev_dialogs: tuple[Dialog, ...] = ()
    dev_goals: Mapping[str, UserGoal] = field(default_factory=dict)

    def dialog_map(self) -> dict[str, Dialog]:
        return {d.id: d for d in self.dialogs}

    def references(self) -> dict[str, list[str]]:
        """Ground-truth responses per dialog id, for BLEU."""
        return {d.id: [t.system.response for t in d.turns] for d in self.dialogs}

    def dev_references(self) -> dict[str, list[str]]:
        return {d.id: [t.system.response for t in d.turns] for d in self.dev_dialogs}


def goal_to_dict(goal: UserGoal) -> dict:
    return {
        domain: {
            "constraints": dict(entry.constraints),
            "requests": sorted(entry.requests),
        }
        for domain, entry in sorted(goal.domains.items())
    }


def goal_from_dict(data: Mapping) -> UserGoal:
    return UserGoal(
        domains={
            domain: GoalEntry(
                constraints=dict(entry.get("constraints", {})),
                requests=frozenset(entry.get("requests", ())),
            )
            for domain, entry in data.items()
        }
    )


def act_to_dict(act: DialogAct) -> dict:
    out: dict = {"domain": act.domain, "act": act.act}
    if act.slot is not None:
        out["slot"] = act.slot
    if act.booking:
        out["booking"] = True
    return out


def act_from_dict(data: Mapping) -> DialogAct:
    return DialogAct(
        domain=data["domain"],
        act=data["act"],
        slot=data.get("slot"),
        booking=bool(data.get("booking", False)),
    )


def dialog_to_dict(dialog: Dialog) -> dict:
    return {
        "id": dialog.id,
        "goal_id": dialog.goal_id,
        "turns": [
            {
                "user": turn.user,
                "state": {d: dict(s) for d, s in turn.system.state.items()},
                "acts": [act_to_dict(a) for a in turn.system.acts],
                "response": turn.system.response,
            }
            for turn in dialog.turns
        ],
    }


def dialog_from_dict(data: Mapping) -> Dialog:
    dialog_id = data["id"]
    turns = tuple(
        Turn(
            user=t["user"],
            system=SystemTurn(
                state={d: dict(s) for d, s in t.get("state", {}).items()},
                acts=tuple(act_from_dict(a) for a in t.get("acts", ())),
                response=t["response"],
            ),
        )
        for t in data["turns"]
    )
    return Dialog(id=dialog_id, goal_id=data.get("goal_id", dialog_id), turns=turns)


def corpus_to_dict(corpus: Corpus) -> dict:
    def dialog_entry(dialog: Dialog, goals: Mapping[str, UserGoal]) -> dict:
        entry = dialog_to_dict(dialog)
        del entry["goal_id"]
        entry["goal"] = goal_to_dict(goals[dialog.goal_id])
        return entry

    return {
        "ontology": {
            domain: {
                "informable": list(schema.informable),
                "requestable": list(schema.requestable),
                "acts": list(schema.acts),
                "entity_bearing": schema.entity_bearing,
                "name_slot": schema.name_slot,
            }
            for domain, schema in sorted(corpus.ontology.domains.items())
        },
        "database": {
            domain: [dict(e) for e in entities]
            for domain, entities in sorted(corpus.database.tables.items())
        },
        "dialogs": [dialog_entry(d, corpus.goals) for d in corpus.dialogs],
        "dev_dialogs": [dialog_entry(d, corpus.dev_goals) for d in corpus.dev_dialogs],
    }


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(json.dumps(corpus_to_dict(corpus), sort_keys=True), encoding="utf-8")


def _load_split(entries, errors) -> tuple[tuple[Dialog, ...], dict[str, UserGoal]]:
    dialogs = []
    goals = {}
    for i, entry in enumerate(entries):
        if "id" not in entry or "turns" not in entry:
            errors.append(f"dialog #{i}: missing id or turns")
            continue
        dialog = dialog_from_dict(entry)
        dialogs.append(dialog)
        if "goal" in entry:
            goals[dialog.goal_id] = goal_from_dict(entry["goal"])
        else:
            errors.append(f"dialog {dialog.id!r}: missing goal")
    return tuple(dialogs), goals


def _validate(corpus: Corpus, errors: list[str]) -> None:
    ontology = corpus.ontology
    for domain, schema in ontology.domains.items():
        if schema.entity_bearing:
            for i, entity in enumerate(corpus.database.tables.get(domain, ())):
                if schema.name_slot not in entity:
                    errors.append(
                        f"database {domain!r} entity #{i}: missing {schema.name_slot!r} slot"
                    )
    for split_goals in (corpus.goals, corpus.dev_goals):
        for goal_id, goal in split_goals.items():
            for domain, entry in goal.domains.items():
                if domain not in ontology.domains:
                    errors.append(f"goal {goal_id!r}: unknown domain {domain!r}")
                    continue
                schema = ontology.domains[domain]
                for slot in entry.constraints:
                    if slot not in schema.informable:
                        errors.append(
                            f"goal {goal_id!r}: slot {slot!r} not informable for {domain!r}"
                        )
                for slot in entry.requests:
                    if slot not in schema.requestable:
                        errors.append(
                            f"goal {goal_id!r}: slot {slot!r} not requestable for {domain!r}"
                        )
    for split in (corpus.dialogs, corpus.dev_dialogs):
        for dialog in split:
            for t, turn in enumerate(dialog.turns):
                where = f"dialog {dialog.id!r} turn {t}"
                for domain, slots in turn.system.state.items():
                    if domain not in ontology.domains:
                        errors.append(f"{where}: belief state names unknown domain {domain!r}")
                        continue
                    for slot in slots:
                        if slot not in ontology.domains[domain].informable:
                            errors.append(
                                f"{where}: belief state slot {slot!r} not informable for {domain!r}"
                            )
                for act in turn.system.acts:
                    if act.domain not in ontology.domains:
                        errors.append(f"{where}: act names unknown domain {act.domain!r}")
                    elif act.act not in ontology.domains[act.domain].acts:
                        errors.append(f"{where}: act verb {act.act!r} not in {act.domain!r}'s acts")
                for token in _BRACKET_RE.findall(turn.system.response):
                    if token in SPECIAL_TOKENS:
                        errors.append(f"{where}: special token {token} in response")
                        continue
                    match = _PLACEHOLDER_RE.fullmatch(token)
                    if match is None:
                        errors.append(f"{where}: malformed placeholder {token}")
                    elif match.group(1) not in ontology.domains:
                        errors.append(
                            f"{where}: placeholder {token} names unknown domain {match.group(1)!r}"
                        )


def corpus_from_dict(data: Mapping) -> Corpus:
    errors: list[str] = []
    for key in ("ontology", "database", "dialogs"):
        if key not in data:
            errors.append(f"corpus missing top-level key {key!r}")
    if errors:
        raise CorpusError("; ".join(errors))

    ontology = Ontology(
        domains={
            domain: DomainSchema(
                informable=tuple(entry.get("informable", ())),
                requestable=tuple(entry.get("requestable", ())),
                acts=tuple(entry.get("acts", ())),
                entity_bearing=bool(entry.get("entity_bearing", True)),
                name_slot=entry.get("name_slot", "name"),
            )
            for domain, entry in data["ontology"].items()
        }
    )
    database = Database(
        ontology=ontology,
        tables={
            domain: tuple(dict(e) for e in entities)
            for domain, entities in data["database"].items()
        },
    )
    dialogs, goals = _load_split(data["dialogs"], errors)
    dev_dialogs, dev_goals = _load_split(data.get("dev_dialogs", ()), errors)
    corpus = Corpus(
        ontology=ontology,
        database=database,
        dialogs=dialogs,
        goals=goals,
        dev_dialogs=dev_dialogs,
        dev_goals=dev_goals,
    )
    _validate(corpus, errors)
    if errors:
        raise CorpusError("\n".join(errors))
    return corpus


def load_corpus(path: str | Path) -> Corpus:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return corpus_from_dict(data)


def load_predictions(path: str | Path) -> list[Dialog]:
    """Predicted dialogs: ``{"dialogs": [{"id", "goal_id"?, "turns"}]}``.

    goal_id defaults to the dialog id, which matches a corpus dialog whose
    inline goal (and reference responses) the prediction is scored against.
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if "dialogs" not in data:
        raise CorpusError("predictions file missing top-level key 'dialogs'")
    return [dialog_from_dict(entry) for entry in data["dialogs"]]
