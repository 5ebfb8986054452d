"""Deterministic synthetic worlds: ontology, entity tables, goals, dialogs.

Each goal covers one entity domain (hotel, restaurant, attraction, train),
a taxi ride, or an entity domain plus a taxi. Entity-domain goals unfold over
three turns (constraints, recommendation, requested details) so every world
has a well-defined offer turn per domain and every requested placeholder
appears exactly once; a shared goodbye turn closes each dialog. Constraints
are copied from a concrete database entity, which keeps every goal satisfiable,
and always include a slot with a lettered value so sampled state variants stay
textually distinct.
"""

from __future__ import annotations

import random

from .backends import stable_seed
from .corpus import Corpus
from .model import (
    Database,
    Dialog,
    DialogAct,
    DomainSchema,
    Entity,
    GoalEntry,
    Ontology,
    SystemTurn,
    Turn,
    UserGoal,
    placeholder,
)

_NAMES = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta")
_AREAS = ("north", "south", "east", "west", "centre")
_PRICERANGES = ("cheap", "moderate", "expensive")
_FOODS = ("british", "italian", "indian", "chinese", "mediterranean", "french")
_ATTRACTION_TYPES = ("museum", "park", "theatre", "college", "cinema")
_STATIONS = (
    "cambridge",
    "london kings cross",
    "norwich",
    "ely",
    "peterborough",
    "stansted airport",
)
_DAYS = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")
_TIMES = ("05:15", "08:00", "09:30", "11:45", "13:00", "16:20", "18:05", "21:40")
_PLACES = (
    "alpha street",
    "museum of archaeology",
    "cinema city",
    "parkside station",
    "city centre north",
    "riverside crescent",
)

# One goal shape per entry; entity domains get a 3-turn block, taxi one turn.
_TEMPLATES = (
    ("hotel",),
    ("restaurant",),
    ("attraction",),
    ("train",),
    ("taxi",),
    ("hotel", "taxi"),
    ("restaurant", "taxi"),
    ("attraction", "taxi"),
    ("train", "taxi"),
)


def default_ontology() -> Ontology:
    shared_acts = ("inform", "request", "recommend", "book", "bye")
    return Ontology(
        domains={
            "hotel": DomainSchema(
                informable=("area", "pricerange", "stars", "type"),
                requestable=("address", "phone", "postcode"),
                acts=shared_acts,
            ),
            "restaurant": DomainSchema(
                informable=("area", "food", "pricerange"),
                requestable=("address", "phone", "postcode"),
                acts=shared_acts,
            ),
            "attraction": DomainSchema(
                informable=("area", "type"),
                requestable=("address", "entrancefee", "phone"),
                acts=shared_acts,
            ),
            "train": DomainSchema(
                informable=("day", "departure", "destination", "leaveat"),
                requestable=("duration", "price"),
                acts=shared_acts,
                name_slot="id",
            ),
            "taxi": DomainSchema(
                informable=("departure", "destination", "leaveat"),
                requestable=("phone", "type"),
                acts=shared_acts,
                entity_bearing=False,
            ),
        }
    )


def default_database(ontology: Ontology) -> Database:
    hotels = [
        {
            "name": f"{_NAMES[i]} hotel",
            "area": _AREAS[i % len(_AREAS)],
            "pricerange": _PRICERANGES[i % len(_PRICERANGES)],
            "stars": str(2 + i % 4),
            "type": ("hotel", "guesthouse")[i % 2],
        }
        for i in range(8)
    ]
    restaurants = [
        {
            "name": f"{_NAMES[i]} restaurant",
            "area": _AREAS[(i + 2) % len(_AREAS)],
            "food": _FOODS[i % len(_FOODS)],
            "pricerange": _PRICERANGES[(i + 1) % len(_PRICERANGES)],
        }
        for i in range(8)
    ]
    attractions = [
        {
            "name": f"{_NAMES[i]} {_ATTRACTION_TYPES[i % len(_ATTRACTION_TYPES)]}",
            "area": _AREAS[(i + 1) % len(_AREAS)],
            "type": _ATTRACTION_TYPES[i % len(_ATTRACTION_TYPES)],
        }
        for i in range(6)
    ]
    trains = []
    for i in range(12):
        departure = _STATIONS[i % len(_STATIONS)]
        destination = _STATIONS[(i + 1 + i // len(_STATIONS)) % len(_STATIONS)]
        trains.append(
            {
                "id": f"tr{7001 + i}",
                "departure": departure,
                "destination": destination,
                "day": _DAYS[i % len(_DAYS)],
                "leaveat": _TIMES[i % len(_TIMES)],
            }
        )
    return Database(
        ontology=ontology,
        tables={
            "hotel": tuple(hotels),
            "restaurant": tuple(restaurants),
            "attraction": tuple(attractions),
            "train": tuple(trains),
        },
    )


def _entity_goal(rng: random.Random, domain: str, db: Database, schema: DomainSchema) -> GoalEntry:
    entity: Entity = db.tables[domain][rng.randrange(len(db.tables[domain]))]
    if domain == "train":
        anchors = ("departure", "destination")
    else:
        anchors = ("area",)
    constraints = {slot: entity[slot] for slot in anchors}
    for slot in schema.informable:
        if slot not in constraints and rng.random() < 0.5:
            constraints[slot] = entity[slot]
    n_requests = 1 + rng.randrange(min(2, len(schema.requestable)))
    requests = frozenset(rng.sample(sorted(schema.requestable), n_requests))
    return GoalEntry(constraints=constraints, requests=requests)


def _taxi_goal(rng: random.Random, schema: DomainSchema) -> GoalEntry:
    i = rng.randrange(len(_PLACES))
    j = (i + 1 + rng.randrange(len(_PLACES) - 1)) % len(_PLACES)
    constraints = {
        "departure": _PLACES[i],
        "destination": _PLACES[j],
        "leaveat": _TIMES[rng.randrange(len(_TIMES))],
    }
    n_requests = 1 + rng.randrange(min(2, len(schema.requestable)))
    requests = frozenset(rng.sample(sorted(schema.requestable), n_requests))
    return GoalEntry(constraints=constraints, requests=requests)


def _article(noun: str) -> str:
    return "an" if noun[:1] in "aeiou" else "a"


def _constraint_text(constraints: dict[str, str]) -> str:
    return " ".join(f"the {slot} should be {value}." for slot, value in sorted(constraints.items()))


def _snapshot(state: dict[str, dict[str, str]]) -> dict[str, dict[str, str]]:
    return {domain: dict(slots) for domain, slots in state.items()}


def build_dialog(dialog_id: str, goal: UserGoal, ontology: Ontology) -> Dialog:
    turns: list[Turn] = []
    state: dict[str, dict[str, str]] = {}
    for domain in sorted(goal.domains, key=lambda d: (not ontology.schema(d).entity_bearing, d)):
        entry = goal.domains[domain]
        schema = ontology.schema(domain)
        state[domain] = dict(entry.constraints)
        if not schema.entity_bearing:
            turns.append(
                Turn(
                    user=f"i also need a taxi. {_constraint_text(dict(entry.constraints))}",
                    system=SystemTurn(
                        state=_snapshot(state),
                        acts=(
                            DialogAct(domain, "inform", "type", booking=True),
                            DialogAct(domain, "inform", "phone", booking=True),
                        ),
                        response=(
                            f"i booked you a {placeholder(domain, 'type')}. "
                            f"the contact number is {placeholder(domain, 'phone')}."
                        ),
                    ),
                )
            )
            continue
        requests = sorted(entry.requests)
        turns.append(
            Turn(
                user=(
                    f"i am looking for {_article(domain)} {domain}. "
                    f"{_constraint_text(dict(entry.constraints))}"
                ),
                system=SystemTurn(
                    state=_snapshot(state),
                    acts=(DialogAct(domain, "inform", "choice"),),
                    response=(
                        f"there are several {domain} options that fit. "
                        "would you like a recommendation?"
                    ),
                ),
            )
        )
        turns.append(
            Turn(
                user="yes, please recommend one.",
                system=SystemTurn(
                    state=_snapshot(state),
                    acts=(DialogAct(domain, "recommend", schema.name_slot),),
                    response=(
                        f"how about {placeholder(domain, schema.name_slot)}? "
                        "it matches your requirements."
                    ),
                ),
            )
        )
        turns.append(
            Turn(
                user=f"sounds good. can you give me the {' and the '.join(requests)}?",
                system=SystemTurn(
                    state=_snapshot(state),
                    acts=tuple(DialogAct(domain, "inform", slot) for slot in requests),
                    response=" ".join(
                        f"the {slot} is {placeholder(domain, slot)}." for slot in requests
                    ),
                ),
            )
        )
    turns.append(
        Turn(
            user="that is all, thank you. goodbye.",
            system=SystemTurn(
                state=_snapshot(state),
                acts=(),
                response="you are welcome. goodbye.",
            ),
        )
    )
    return Dialog(id=dialog_id, goal_id=dialog_id, turns=tuple(turns))


def _build_goal(rng: random.Random, ontology: Ontology, db: Database) -> UserGoal:
    template = _TEMPLATES[rng.randrange(len(_TEMPLATES))]
    domains = {}
    for domain in template:
        schema = ontology.schema(domain)
        if schema.entity_bearing:
            domains[domain] = _entity_goal(rng, domain, db, schema)
        else:
            domains[domain] = _taxi_goal(rng, schema)
    return UserGoal(domains=domains)


def build_world(n_goals: int, seed: int = 0, dev_goals: int | None = None) -> Corpus:
    """A complete corpus with ``n_goals`` training goals, one dialog each."""
    if n_goals < 1:
        raise ValueError(f"n_goals must be at least 1, got {n_goals}")
    if dev_goals is None:
        dev_goals = min(20, max(1, n_goals // 10))
    if dev_goals < 0:
        raise ValueError(f"dev_goals must be non-negative, got {dev_goals}")
    ontology = default_ontology()
    db = default_database(ontology)
    dialogs = []
    goals = {}
    for i in range(n_goals):
        rng = random.Random(stable_seed(seed, "goal", i))
        goal = _build_goal(rng, ontology, db)
        dialog_id = f"dlg-{i:05d}"
        goals[dialog_id] = goal
        dialogs.append(build_dialog(dialog_id, goal, ontology))
    dev_dialogs = []
    dev = {}
    for i in range(dev_goals):
        rng = random.Random(stable_seed(seed, "dev", i))
        goal = _build_goal(rng, ontology, db)
        dialog_id = f"dev-{i:04d}"
        dev[dialog_id] = goal
        dev_dialogs.append(build_dialog(dialog_id, goal, ontology))
    return Corpus(
        ontology=ontology,
        database=db,
        dialogs=tuple(dialogs),
        goals=goals,
        dev_dialogs=tuple(dev_dialogs),
        dev_goals=dev,
    )
