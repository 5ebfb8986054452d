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

Goals are inlined per dialog; a dialog's goal_id equals its id, and no two
dialogs share an id. The predictions and candidates formats live here too,
and ``expect_type`` names every missing key and wrong JSON type in all three.
"""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO

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


_JSON_NAMES = {
    dict: "an object", list: "an array", str: "a string", bool: "true or false",
    int: "an integer", (int, float): "a number", (dict, type(None)): "an object or null",
}


def _is_json(value, kind: type) -> bool:
    """``isinstance(value, kind)``, except that ``true`` and ``false`` are no numbers."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def expect_type(value, kind: type, where: str, *path, item: type | None = None):
    """``value``, if it is a ``kind`` whose items are all ``item``s.

    ``kind`` is ``dict`` (a JSON object), ``list`` (an array), ``str``,
    ``bool``, ``int``, ``(int, float)`` (a number) or ``(dict, type(None))``
    (an object or null); ``item`` is any of them, and a dict's items are its
    values. Otherwise raises ``CorpusError`` naming the place: ``where``, each
    key or index in ``path``, then the bad item's. Readers pass
    ``data.get(key, MISSING)`` (dataclasses' sentinel) with ``key`` last in
    ``path``: an absent key reads ``<place>: missing key 'key'``. The place is
    spelled out only on failure, so callers pass its parts.
    """
    if item is not None and isinstance(value, kind):
        for key, entry in value.items() if kind is dict else enumerate(value):
            if not _is_json(entry, item):
                value, kind, path = entry, item, (*path, key)
                break
    if not _is_json(value, kind):
        if value is MISSING:
            *path, key = path
            problem = f"missing key {key!r}"
        else:
            problem = f"expected {_JSON_NAMES[kind]}, got {json.dumps(value)[:40]}"
        place = where + "".join(f"[{key!r}]" for key in path)
        raise CorpusError(f"{place}: {problem}")
    return value


def goal_to_dict(goal: UserGoal) -> dict:
    return {
        domain: {
            "constraints": dict(entry.constraints),
            "requests": sorted(entry.requests),
        }
        for domain, entry in sorted(goal.domains.items())
    }


def goal_from_dict(data: Mapping, where: str = "goal") -> UserGoal:
    """The goal ``data`` describes; ``where`` names it in errors about its JSON types."""
    domains = {}
    for domain, entry in expect_type(data, dict, where, item=dict).items():
        constraints = expect_type(
            entry.get("constraints", {}), dict, where, domain, "constraints", item=str
        )
        requests = expect_type(entry.get("requests", []), list, where, domain, "requests", item=str)
        domains[domain] = GoalEntry(constraints=dict(constraints), requests=frozenset(requests))
    return UserGoal(domains=domains)


def act_to_dict(act: DialogAct) -> dict:
    out: dict = {"domain": act.domain, "act": act.act}
    if act.slot is not None:
        out["slot"] = act.slot
    if act.booking:
        out["booking"] = True
    return out


def act_from_dict(data: Mapping, where: str = "act", *path) -> DialogAct:
    """The act ``data`` describes; ``where`` and ``path`` name it in errors about its JSON types."""
    domain, act = data.get("domain", MISSING), data.get("act", MISSING)
    slot, booking = data.get("slot"), data.get("booking", False)
    if not (isinstance(domain, str) and isinstance(act, str) and isinstance(booking, bool)
            and (slot is None or isinstance(slot, str))):
        expect_type(domain, str, where, *path, "domain")
        expect_type(act, str, where, *path, "act")
        if slot is not None:
            expect_type(slot, str, where, *path, "slot")
        expect_type(booking, bool, where, *path, "booking")
    return DialogAct(domain=domain, act=act, slot=slot, booking=booking)


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


def dialog_from_dict(data: Mapping, where: str = "dialog") -> Dialog:
    """The dialog ``data`` describes; ``where`` names it in errors about its JSON types."""
    dialog_id = expect_type(expect_type(data, dict, where).get("id", MISSING), str, where, "id")
    goal_id = expect_type(data.get("goal_id", dialog_id), str, where, "goal_id")
    turns = []
    for i, t in enumerate(expect_type(data.get("turns", MISSING), list, where, "turns", item=dict)):
        raw_state = expect_type(t.get("state", {}), dict, where, "turns", i, "state", item=dict)
        state = {}
        for domain, slots in raw_state.items():
            for value in slots.values():
                if not isinstance(value, str):
                    expect_type(slots, dict, where, "turns", i, "state", domain, item=str)
            state[domain] = dict(slots)
        acts = expect_type(t.get("acts", []), list, where, "turns", i, "acts", item=dict)
        user, response = t.get("user", MISSING), t.get("response", MISSING)
        if not (isinstance(user, str) and isinstance(response, str)):
            expect_type(user, str, where, "turns", i, "user")
            expect_type(response, str, where, "turns", i, "response")
        system = SystemTurn(
            state=state,
            acts=tuple(act_from_dict(a, where, "turns", i, "acts", j) for j, a in enumerate(acts)),
            response=response,
        )
        turns.append(Turn(user=user, system=system))
    return Dialog(id=dialog_id, goal_id=goal_id, turns=tuple(turns))


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


def _load_split(
    entries, split: str, errors: list[str], places: dict[str, str]
) -> tuple[tuple[Dialog, ...], dict[str, UserGoal]]:
    """The dialogs and goals of one split; ``places`` maps each dialog id seen to its place."""
    dialogs = []
    goals = {}
    for i, entry in enumerate(entries):
        if "id" not in entry:  # nothing else can name the dialog
            errors.append(f"{split}[{i}]: missing key 'id'")
            continue
        dialog = dialog_from_dict(entry, f"dialog {entry['id']!r}")
        if dialog.id in places:
            errors.append(f"{split}[{i}]: id {dialog.id!r} is already used by {places[dialog.id]}")
            continue
        places[dialog.id] = f"{split}[{i}]"
        if dialog.goal_id != dialog.id:
            errors.append(f"{split}[{i}]: goal_id {dialog.goal_id!r} is not the dialog's id "
                          f"{dialog.id!r}; each dialog carries its own goal")
            continue
        dialogs.append(dialog)
        if "goal" in entry:
            goals[dialog.goal_id] = goal_from_dict(entry["goal"], f"dialog {dialog.id!r}['goal']")
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
    expect_type(data, dict, "corpus")
    schemas = expect_type(data.get("ontology", MISSING), dict, "corpus", "ontology", item=dict)
    for domain, entry in schemas.items():
        for key in ("informable", "requestable", "acts"):
            expect_type(entry.get(key, []), list, "corpus", "ontology", domain, key, item=str)
        expect_type(entry.get("entity_bearing", True), bool, "corpus", "ontology", domain,
                    "entity_bearing")
        expect_type(entry.get("name_slot", "name"), str, "corpus", "ontology", domain, "name_slot")
    tables = expect_type(data.get("database", MISSING), dict, "corpus", "database", item=list)
    for domain, table in tables.items():
        for i, entity in enumerate(table):
            expect_type(entity, dict, "corpus", "database", domain, i, item=str)
    for key, default in (("dialogs", MISSING), ("dev_dialogs", [])):
        expect_type(data.get(key, default), list, "corpus", key, item=dict)

    ontology = Ontology(
        domains={
            domain: DomainSchema(
                informable=tuple(entry.get("informable", ())),
                requestable=tuple(entry.get("requestable", ())),
                acts=tuple(entry.get("acts", ())),
                entity_bearing=entry.get("entity_bearing", True),
                name_slot=entry.get("name_slot", "name"),
            )
            for domain, entry in schemas.items()
        }
    )
    database = Database(
        ontology=ontology,
        tables={
            domain: tuple(dict(e) for e in entities)
            for domain, entities in tables.items()
        },
    )
    errors: list[str] = []
    places: dict[str, str] = {}
    dialogs, goals = _load_split(data["dialogs"], "dialogs", errors, places)
    dev_dialogs, dev_goals = _load_split(data.get("dev_dialogs", ()), "dev_dialogs", errors, places)
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


def read_json(path: str | Path):
    """The JSON value in the file ``path``; malformed JSON is a ``CorpusError`` naming the file."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise CorpusError(
                f"{path}: malformed JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None


def load_corpus(path: str | Path) -> Corpus:
    """The corpus in the file ``path``; each line of a ``CorpusError`` starts with the path."""
    data = read_json(path)
    try:
        return corpus_from_dict(data)
    except CorpusError as exc:
        raise CorpusError("\n".join(f"{path}: {line}" for line in str(exc).split("\n"))) from None


def load_predictions(path: str | Path) -> list[Dialog]:
    """Predicted dialogs: ``{"dialogs": [{"id", "goal_id"?, "turns"}]}``.

    A prediction is scored against the inline goal (and reference responses)
    of the corpus dialog with its id, so a ``goal_id`` must equal the id. Ids
    must be unique: each repeat is reported with the first one's place.
    """
    data = expect_type(read_json(path), dict, str(path))
    entries = expect_type(data.get("dialogs", MISSING), list, str(path), "dialogs")
    dialogs = [dialog_from_dict(e, f"{path}['dialogs'][{i}]") for i, e in enumerate(entries)]
    first: dict[str, int] = {}
    repeats = [
        f"{path}['dialogs'][{i}]: id {d.id!r} is already used by ['dialogs'][{first[d.id]}]"
        for i, d in enumerate(dialogs)
        if first.setdefault(d.id, i) != i
    ]
    if repeats:
        raise CorpusError("\n".join(repeats))
    for i, d in enumerate(dialogs):
        if d.goal_id != d.id:
            raise CorpusError(f"{path}['dialogs'][{i}]: goal_id {d.goal_id!r} is not the "
                              f"dialog's id {d.id!r}; a prediction is scored against its own goal")
    return dialogs


def candidates_record(goal_id: str, labeled: Iterable[tuple[Dialog, bool]]) -> dict:
    """The candidates-file line of one goal: each candidate dialog with its success label."""
    entries = [{**dialog_to_dict(dialog), "success": ok} for dialog, ok in labeled]
    return {"goal_id": goal_id, "candidates": entries}


def read_candidates(
    handle: TextIO, corpus: Corpus
) -> Iterator[tuple[str, str, tuple[Dialog, ...], tuple[bool, ...]]]:
    """``(where, goal_id, dialogs, labels)`` per line of the candidates file open as ``handle``.

    ``where`` names the file and the line. Goal ids must be ``corpus`` goal
    ids in ascending order, as ``sample`` writes them, and each candidate must
    be a dialog of its line's goal with the user turns of the corpus dialog of
    that goal; a bad line raises ``CorpusError`` naming the file and the line.
    """
    goals = corpus.goals
    sources = {d.goal_id: d.turns for d in corpus.dialogs}
    previous = None
    for number, line in enumerate(handle, 1):
        if not line.strip():
            continue
        where = f"{handle.name} line {number}"
        try:
            entry = expect_type(json.loads(line), dict, where)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{where}: malformed JSON: column {exc.colno}: {exc.msg}") from None
        goal_id = expect_type(entry.get("goal_id", MISSING), str, where, "goal_id")
        if goal_id not in goals:
            raise CorpusError(f"{where}: goal id {goal_id!r} is not a goal of the corpus")
        if previous is not None and goal_id <= previous:
            raise CorpusError(f"{where}: goal id {goal_id!r} does not follow {previous!r}; "
                              "detect needs strictly ascending goal ids, as sample writes them")
        previous = goal_id
        candidates = expect_type(entry.get("candidates", MISSING), list, where, "candidates",
                                 item=dict)
        labels = tuple(
            expect_type(c.get("success", MISSING), bool, f"{where}: candidates", i, "success")
            for i, c in enumerate(candidates)
        )
        dialogs = tuple(
            dialog_from_dict(c, f"{where}: candidates[{i}]") for i, c in enumerate(candidates)
        )
        source = sources[goal_id]
        for i, dialog in enumerate(dialogs):
            place = f"{where}: candidates[{i}]"
            if dialog.goal_id != goal_id:
                raise CorpusError(f"{place}: goal id {dialog.goal_id!r} is not the line's")
            if len(dialog.turns) != len(source):
                raise CorpusError(f"{place}: {len(dialog.turns)} turns, but the corpus dialog of "
                                  f"goal {goal_id!r} has {len(source)}")
            for t, (turn, gold) in enumerate(zip(dialog.turns, source)):
                if turn.user != gold.user:
                    raise CorpusError(f"{place}['turns'][{t}]['user']: not the user utterance of "
                                      f"the corpus dialog of goal {goal_id!r}")
        yield where, goal_id, dialogs, labels
