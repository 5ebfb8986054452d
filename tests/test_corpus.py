"""Corpus JSON round trips and validation diagnostics."""

import copy
import json

import pytest

from subtod.corpus import (
    act_from_dict,
    act_to_dict,
    corpus_from_dict,
    corpus_to_dict,
    dialog_from_dict,
    dialog_to_dict,
    goal_from_dict,
    goal_to_dict,
    load_corpus,
    load_predictions,
    save_corpus,
)
from subtod.cli import main
from subtod.errors import CorpusError
from subtod.model import DialogAct


def tiny_corpus_dict():
    return {
        "ontology": {
            "hotel": {
                "informable": ["area"],
                "requestable": ["address"],
                "acts": ["inform", "recommend"],
                "entity_bearing": True,
                "name_slot": "name",
            }
        },
        "database": {
            "hotel": [{"name": "alpha hotel", "area": "north", "address": "12 road"}]
        },
        "dialogs": [
            {
                "id": "d-1",
                "goal": {
                    "hotel": {"constraints": {"area": "north"}, "requests": ["address"]}
                },
                "turns": [
                    {
                        "user": "hotel in the north?",
                        "state": {"hotel": {"area": "north"}},
                        "acts": [{"domain": "hotel", "act": "recommend", "slot": "name"}],
                        "response": "how about [hotel_name] at [hotel_address]?",
                    }
                ],
            }
        ],
    }


def test_save_and_load_round_trip(small_world, tmp_path):
    path = tmp_path / "corpus.json"
    save_corpus(small_world, path)
    loaded = load_corpus(path)
    assert loaded.dialogs == small_world.dialogs
    assert loaded.dev_dialogs == small_world.dev_dialogs
    assert dict(loaded.goals) == dict(small_world.goals)
    assert dict(loaded.dev_goals) == dict(small_world.dev_goals)
    assert loaded.ontology == small_world.ontology
    assert loaded.database.tables == small_world.database.tables


def test_save_is_deterministic(small_world, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_corpus(small_world, a)
    save_corpus(small_world, b)
    assert a.read_bytes() == b.read_bytes()


def test_goal_round_trip_sorts_requests(hotel_goal):
    data = goal_to_dict(hotel_goal)
    assert data["hotel"]["requests"] == ["address"]
    assert goal_from_dict(data) == hotel_goal
    assert goal_from_dict({"hotel": {}}).domains["hotel"].constraints == {}


def test_act_dict_omits_defaults():
    bare = DialogAct("hotel", "greet", None)
    assert act_to_dict(bare) == {"domain": "hotel", "act": "greet"}
    full = DialogAct("hotel", "inform", "area", booking=True)
    assert act_to_dict(full) == {
        "domain": "hotel",
        "act": "inform",
        "slot": "area",
        "booking": True,
    }
    assert act_from_dict(act_to_dict(bare)) == bare
    assert act_from_dict(act_to_dict(full)) == full


def test_dialog_round_trip_and_goal_id_default(hotel_dialog):
    data = dialog_to_dict(hotel_dialog)
    assert dialog_from_dict(data) == hotel_dialog
    del data["goal_id"]
    assert dialog_from_dict(data).goal_id == hotel_dialog.id


def test_references_map_ids_to_response_lists(small_world):
    references = small_world.references()
    assert set(references) == {d.id for d in small_world.dialogs}
    some = small_world.dialogs[0]
    assert references[some.id] == [t.system.response for t in some.turns]
    assert set(small_world.dev_references()) == {d.id for d in small_world.dev_dialogs}


def test_corpus_from_dict_accepts_the_tiny_fixture():
    corpus = corpus_from_dict(tiny_corpus_dict())
    assert len(corpus.dialogs) == 1
    assert corpus.goals["d-1"].domains["hotel"].requests == {"address"}
    assert corpus_from_dict(corpus_to_dict(corpus)).dialogs == corpus.dialogs


def test_schema_defaults_fill_in():
    data = tiny_corpus_dict()
    data["ontology"]["taxi"] = {"entity_bearing": False}
    corpus = corpus_from_dict(data)
    schema = corpus.ontology.domains["taxi"]
    assert schema.informable == ()
    assert schema.requestable == ()
    assert schema.entity_bearing is False
    assert schema.name_slot == "name"
    assert corpus.ontology.domains["hotel"].entity_bearing is True


def test_missing_top_level_keys_raise():
    data = tiny_corpus_dict()
    del data["database"]
    with pytest.raises(CorpusError, match="top-level key 'database'"):
        corpus_from_dict(data)


def test_dialog_without_goal_or_id_raises():
    data = tiny_corpus_dict()
    del data["dialogs"][0]["goal"]
    with pytest.raises(CorpusError, match="missing goal"):
        corpus_from_dict(data)
    data = tiny_corpus_dict()
    del data["dialogs"][0]["id"]
    with pytest.raises(CorpusError, match=r"^dialogs\[0\]: missing key 'id'$"):
        corpus_from_dict(data)


def test_a_dialog_id_used_twice_is_reported_with_both_places(tmp_path, capsys):
    data = tiny_corpus_dict()
    [first] = data["dialogs"]
    second = {**copy.deepcopy(first), "id": "d-2"}
    data["dialogs"].append(copy.deepcopy(first))
    data["dev_dialogs"] = [second, copy.deepcopy(second), copy.deepcopy(first)]
    expected = [
        "dialogs[1]: id 'd-1' is already used by dialogs[0]",
        "dev_dialogs[1]: id 'd-2' is already used by dev_dialogs[0]",
        "dev_dialogs[2]: id 'd-1' is already used by dialogs[0]",
    ]
    with pytest.raises(CorpusError) as err:
        corpus_from_dict(data)
    assert str(err.value).splitlines() == expected
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["iterate", "--corpus", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: {expected[0]}", *(f"{path}: {line}" for line in expected[1:])
    ]
    assert not out.exists()


def test_entity_missing_its_name_slot_raises():
    data = tiny_corpus_dict()
    data["database"]["hotel"].append({"area": "south"})
    with pytest.raises(CorpusError, match="missing 'name' slot"):
        corpus_from_dict(data)


def test_goal_validation_catches_schema_drift():
    data = tiny_corpus_dict()
    data["dialogs"][0]["goal"]["spa"] = {"constraints": {}, "requests": []}
    with pytest.raises(CorpusError, match="unknown domain 'spa'"):
        corpus_from_dict(data)

    data = tiny_corpus_dict()
    data["dialogs"][0]["goal"]["hotel"]["constraints"]["parking"] = "yes"
    with pytest.raises(CorpusError, match="not informable"):
        corpus_from_dict(data)

    data = tiny_corpus_dict()
    data["dialogs"][0]["goal"]["hotel"]["requests"].append("phone")
    with pytest.raises(CorpusError, match="not requestable"):
        corpus_from_dict(data)


def test_response_placeholder_validation():
    data = tiny_corpus_dict()
    data["dialogs"][0]["turns"][0]["response"] = "please continue [B] now"
    with pytest.raises(CorpusError, match=r"special token \[B\]"):
        corpus_from_dict(data)

    data = tiny_corpus_dict()
    data["dialogs"][0]["turns"][0]["response"] = "see [Hotel-Name] tonight"
    with pytest.raises(CorpusError, match="malformed placeholder"):
        corpus_from_dict(data)

    data = tiny_corpus_dict()
    data["dialogs"][0]["turns"][0]["response"] = "visit [spa_name] today"
    with pytest.raises(CorpusError, match="unknown domain 'spa'"):
        corpus_from_dict(data)


def test_errors_accumulate_instead_of_stopping_early():
    data = tiny_corpus_dict()
    data["dialogs"][0]["turns"][0]["response"] = "bad [B] and [worse-yet] here"
    data["dialogs"][0]["goal"]["hotel"]["requests"].append("phone")
    try:
        corpus_from_dict(data)
    except CorpusError as err:
        message = str(err)
        assert "special token" in message
        assert "malformed placeholder" in message
        assert "not requestable" in message
    else:
        pytest.fail("expected CorpusError")


# Each edit of the tiny fixture's one turn, and the diagnostic it must raise.
ONTOLOGY_DRIFT = {
    "act verb": (
        lambda turn: turn["acts"].append({"domain": "hotel", "act": "haggle"}),
        "act verb 'haggle' not in 'hotel''s acts",
    ),
    "act domain": (
        lambda turn: turn["acts"].append({"domain": "spa", "act": "inform"}),
        "act names unknown domain 'spa'",
    ),
    "state domain": (
        lambda turn: turn["state"].update({"spa": {"area": "north"}}),
        "belief state names unknown domain 'spa'",
    ),
    "state slot": (
        lambda turn: turn["state"]["hotel"].update({"stars": "4"}),
        "belief state slot 'stars' not informable for 'hotel'",
    ),
}


@pytest.mark.parametrize("problem", sorted(ONTOLOGY_DRIFT))
def test_dialog_acts_and_states_are_checked_against_the_ontology(problem, tmp_path, capsys):
    edit, diagnostic = ONTOLOGY_DRIFT[problem]
    data = tiny_corpus_dict()
    edit(data["dialogs"][0]["turns"][0])
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["evaluate", "--corpus", str(path), "--predictions", str(path)]) == 2
    assert f"dialog 'd-1' turn 0: {diagnostic}" in capsys.readouterr().err


def test_ontology_drift_in_acts_and_states_is_reported_at_once():
    data = tiny_corpus_dict()
    for edit, _ in ONTOLOGY_DRIFT.values():
        edit(data["dialogs"][0]["turns"][0])
    with pytest.raises(CorpusError) as err:
        corpus_from_dict(data)
    for _, diagnostic in ONTOLOGY_DRIFT.values():
        assert diagnostic in str(err.value)


def test_load_predictions(small_world, tmp_path):
    path = tmp_path / "pred.json"
    entries = [dialog_to_dict(d) for d in small_world.dialogs[:2]]
    for entry in entries:
        del entry["goal_id"]
    path.write_text(json.dumps({"dialogs": entries}), encoding="utf-8")
    loaded = load_predictions(path)
    assert loaded == list(small_world.dialogs[:2])

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"predictions": []}), encoding="utf-8")
    with pytest.raises(CorpusError, match="missing top-level key 'dialogs'"):
        load_predictions(bad)


def test_deep_copy_keeps_fixture_pristine():
    # Guard for the mutation style used above: each case mutates a fresh dict.
    first = tiny_corpus_dict()
    second = copy.deepcopy(first)
    second["dialogs"][0]["turns"][0]["response"] = "changed"
    assert first["dialogs"][0]["turns"][0]["response"] != "changed"
