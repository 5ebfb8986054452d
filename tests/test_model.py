"""Data model: database queries, turn replacement, and the tests' context extraction."""

import random

import pytest

from oracles import contexts_of, plain_tables, query as oracle_query
from subtod.errors import CorpusError
from subtod.model import (
    SubgoalKind,
    normalize_value,
    placeholder,
    query,
    replace_turn,
)
from subtod.synthetic import build_world


def test_normalize_value_lowers_and_collapses():
    assert normalize_value("  London   Kings  CROSS ") == "london kings cross"
    assert normalize_value("dontcare") == "dontcare"
    assert normalize_value(normalize_value("A  B")) == normalize_value("A  B")


def test_placeholder_format():
    assert placeholder("hotel", "name") == "[hotel_name]"
    assert placeholder("train", "id") == "[train_id]"


def test_query_empty_constraints_returns_all(db3):
    assert query(db3, "hotel", {}) == list(db3.tables["hotel"])


def test_query_matches_brute_force_filter(db3):
    got = query(db3, "hotel", {"area": "north", "pricerange": "moderate"})
    expected = oracle_query(plain_tables(db3)["hotel"], {"area": "north", "pricerange": "moderate"})
    assert [e["name"] for e in got] == [e["name"] for e in expected] == ["alpha hotel"]


def test_query_dontcare_is_a_wildcard(db3):
    assert query(db3, "hotel", {"area": "dontcare"}) == list(db3.tables["hotel"])
    got = query(db3, "hotel", {"area": "DontCare", "internet": "yes"})
    assert [e["name"] for e in got] == ["alpha hotel", "gamma hotel"]


def test_query_normalizes_case_and_whitespace(db3):
    got = query(db3, "hotel", {"area": "  North ", "pricerange": "MODERATE"})
    assert [e["name"] for e in got] == ["alpha hotel"]


def test_query_rejects_unknown_domain_and_slot(db3):
    with pytest.raises(CorpusError):
        query(db3, "spa", {})
    with pytest.raises(CorpusError):
        query(db3, "taxi", {})  # no entity table to search
    with pytest.raises(CorpusError):
        query(db3, "hotel", {"parking": "yes"})


def test_query_random_constraints_match_oracle(small_world):
    db = small_world.database
    tables = plain_tables(db)
    rng = random.Random(4)
    for _ in range(200):
        domain = rng.choice(sorted(db.tables))
        schema = db.ontology.schema(domain)
        n = rng.randrange(0, len(schema.informable) + 1)
        slots = rng.sample(list(schema.informable), n)
        entity = rng.choice(db.tables[domain])
        constraints = {}
        for slot in slots:
            constraints[slot] = rng.choice((entity[slot], "dontcare", entity[slot].upper()))
        got = [e.get(schema.name_slot) for e in query(db, domain, constraints)]
        want = [e.get(schema.name_slot) for e in oracle_query(tables[domain], constraints)]
        assert got == want


def test_contexts_of_single_turn_dialog(hotel_dialog):
    one_turn = replace_turn(hotel_dialog, 0, SubgoalKind.STATE, hotel_dialog.turns[0].system)
    contexts = contexts_of(hotel_dialog)
    assert contexts[0].pairs == ()
    assert contexts[0].user == hotel_dialog.turns[0].user
    assert one_turn == hotel_dialog


def test_contexts_of_history_grows_one_pair_per_turn(small_world):
    for dialog in small_world.dialogs[:6]:
        contexts = contexts_of(dialog)
        assert len(contexts) == len(dialog.turns)
        for t, context in enumerate(contexts):
            assert context.pairs == dialog.turns[:t]
            assert context.user == dialog.turns[t].user
            assert context.goal_id == dialog.goal_id


def test_contexts_of_four_turn_dialog_has_four_histories():
    world = build_world(40, seed=2, dev_goals=1)
    four = next(d for d in world.dialogs if len(d.turns) == 4)
    assert [len(c.pairs) for c in contexts_of(four)] == [0, 1, 2, 3]


def test_replace_turn_identity(hotel_dialog):
    for t in range(len(hotel_dialog.turns)):
        for kind in SubgoalKind:
            assert replace_turn(hotel_dialog, t, kind, hotel_dialog.turns[t].system) == hotel_dialog


def test_replace_turn_state_touches_only_the_state(hotel_dialog):
    foreign = hotel_dialog.turns[1].system
    swapped = replace_turn(hotel_dialog, 0, SubgoalKind.STATE, foreign)
    assert swapped.turns[0].system.state == foreign.state
    assert swapped.turns[0].system.acts == hotel_dialog.turns[0].system.acts
    assert swapped.turns[0].system.response == hotel_dialog.turns[0].system.response
    assert swapped.turns[1] == hotel_dialog.turns[1]
    assert hotel_dialog.turns[0].system.state != foreign.state or swapped == hotel_dialog


def test_replace_turn_diff_is_exactly_one_field_group(small_world):
    rng = random.Random(9)
    dialogs = small_world.dialogs
    for _ in range(60):
        dialog = rng.choice(dialogs)
        donor = rng.choice(dialogs)
        t = rng.randrange(len(dialog.turns))
        if t >= len(donor.turns):
            continue
        fragment = donor.turns[t].system
        for kind in SubgoalKind:
            patched = replace_turn(dialog, t, kind, fragment)
            for i, (old, new) in enumerate(zip(dialog.turns, patched.turns)):
                assert old.user == new.user
                if i != t:
                    assert old == new
                    continue
                if kind is SubgoalKind.STATE:
                    assert new.system.state == fragment.state
                    assert (new.system.acts, new.system.response) == (
                        old.system.acts,
                        old.system.response,
                    )
                else:
                    assert new.system.state == old.system.state
                    assert (new.system.acts, new.system.response) == (
                        fragment.acts,
                        fragment.response,
                    )


def test_replace_turn_rejects_bad_index(hotel_dialog):
    with pytest.raises(IndexError):
        replace_turn(hotel_dialog, 2, SubgoalKind.STATE, hotel_dialog.turns[0].system)
    with pytest.raises(IndexError):
        replace_turn(hotel_dialog, -1, SubgoalKind.STATE, hotel_dialog.turns[0].system)
