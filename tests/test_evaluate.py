"""INFORM/SUCCESS evaluation, corpus BLEU, COMBINED, and report aggregation."""

import dataclasses
import math
import random
import re

import pytest

from oracles import bleu as oracle_bleu
from oracles import inform_success as oracle_inform_success
from oracles import plain_dialog, plain_goal, plain_schemas, plain_tables
from oracles import tokenize as oracle_tokenize
from reference import NotInGoal, domain_outcome, outcomes
from subtod.errors import CorpusError
from subtod.evaluate import (
    DOMAIN_COLUMN_ORDER,
    SpliceEvaluator,
    bleu_tokenize,
    combined,
    corpus_bleu,
    dialog_success,
    evaluate_corpus,
)
from subtod.model import (
    Dialog,
    DialogAct,
    GoalEntry,
    SubgoalKind,
    SystemTurn,
    Turn,
    UserGoal,
)

# Two-sentence corpus with partial overlap; the expected score was computed
# by the hand-rolled n-gram oracle in oracles.py and frozen here.
BLEU_FIXTURE_HYPS = [
    "there are several moderate hotels in the north .",
    "the phone number is [hotel_phone] . anything else ?",
]
BLEU_FIXTURE_REFS = [
    "there are several moderately priced hotels in the north area .",
    "their phone number is [hotel_phone] . can i help with anything else ?",
]
BLEU_FIXTURE_SCORE = 44.53291445518692


def _with_response(dialog, t, response):
    turns = list(dialog.turns)
    system = turns[t].system
    turns[t] = Turn(
        user=turns[t].user,
        system=SystemTurn(state=system.state, acts=system.acts, response=response),
    )
    return Dialog(id=dialog.id, goal_id=dialog.goal_id, turns=tuple(turns))


def _with_state(dialog, t, state):
    turns = list(dialog.turns)
    system = turns[t].system
    turns[t] = Turn(
        user=turns[t].user,
        system=SystemTurn(state=state, acts=system.acts, response=system.response),
    )
    return Dialog(id=dialog.id, goal_id=dialog.goal_id, turns=tuple(turns))


def _oracle_success(dialog, goal, db):
    return oracle_inform_success(
        plain_goal(goal), plain_dialog(dialog)["turns"], plain_schemas(db), plain_tables(db)
    )


def _assert_outcomes_match_the_reference(dialog, goal, db):
    assert SpliceEvaluator(goal, db).splices(dialog).outcomes == outcomes(dialog, goal, db)


def test_hotel_fixture_informs_and_succeeds(db3, hotel_goal, hotel_dialog):
    outcome = domain_outcome(hotel_dialog, hotel_goal, db3, "hotel")
    assert outcome.inform is True
    assert outcome.success is True
    _assert_outcomes_match_the_reference(hotel_dialog, hotel_goal, db3)


def test_deleting_the_requested_placeholder_breaks_success(db3, hotel_goal, hotel_dialog):
    broken = _with_response(hotel_dialog, 1, "the address is on file. anything else?")
    outcome = domain_outcome(broken, hotel_goal, db3, "hotel")
    assert outcome.inform is True
    assert outcome.success is False
    _assert_outcomes_match_the_reference(broken, hotel_goal, db3)


def test_taxi_domain_always_informs(db3):
    goal = UserGoal(
        domains={
            "taxi": GoalEntry(
                constraints={"departure": "alpha hotel", "destination": "gamma hotel"},
                requests=frozenset({"phone"}),
            )
        }
    )
    dialog = Dialog(
        id="t-1",
        goal_id="t-1",
        turns=(
            Turn(
                user="i need a taxi from alpha hotel to gamma hotel.",
                system=SystemTurn(
                    state={"taxi": {"departure": "alpha hotel", "destination": "gamma hotel"}},
                    acts=(DialogAct("taxi", "inform", "phone"),),
                    response="booked! the contact number is [taxi_phone].",
                ),
            ),
        ),
    )
    outcome = domain_outcome(dialog, goal, db3, "taxi")
    assert outcome.inform is True
    assert outcome.success is True
    _assert_outcomes_match_the_reference(dialog, goal, db3)

    silent = _with_response(dialog, 0, "your taxi is booked.")
    outcome = domain_outcome(silent, goal, db3, "taxi")
    assert outcome.inform is True
    assert outcome.success is False
    _assert_outcomes_match_the_reference(silent, goal, db3)


def test_no_offer_turn_fails_inform_under_constraints(db3, hotel_goal, hotel_dialog):
    quiet = _with_response(hotel_dialog, 0, "i found a nice place in the north.")
    outcome = domain_outcome(quiet, hotel_goal, db3, "hotel")
    assert outcome.inform is False
    assert outcome.success is False
    _assert_outcomes_match_the_reference(quiet, hotel_goal, db3)


def test_only_the_last_offer_turn_counts(db3, hotel_goal, hotel_dialog):
    # A matching offer after a bad one rescues the dialog; the reverse sinks it.
    bad_state = {"hotel": {"area": "south", "pricerange": "moderate", "internet": "yes"}}
    bad_first = _with_state(hotel_dialog, 0, bad_state)
    bad_first = _with_response(
        bad_first, 1, "how about [hotel_name]? the address is [hotel_address]."
    )
    assert domain_outcome(bad_first, hotel_goal, db3, "hotel").inform is True
    _assert_outcomes_match_the_reference(bad_first, hotel_goal, db3)

    bad_last = _with_state(hotel_dialog, 1, bad_state)
    bad_last = _with_response(
        bad_last, 1, "then [hotel_name]: the address is [hotel_address]."
    )
    outcome = domain_outcome(bad_last, hotel_goal, db3, "hotel")
    assert outcome.inform is False
    _assert_outcomes_match_the_reference(bad_last, hotel_goal, db3)


def test_mismatched_belief_fails_inform(db3, hotel_goal, hotel_dialog):
    wrong = _with_state(
        hotel_dialog, 0, {"hotel": {"area": "south", "pricerange": "moderate"}}
    )
    wrong = _with_state(wrong, 1, wrong.turns[0].system.state)
    outcome = domain_outcome(wrong, hotel_goal, db3, "hotel")
    assert outcome.inform is False
    _assert_outcomes_match_the_reference(wrong, hotel_goal, db3)


def test_domain_absent_from_goal_raises(db3, hotel_goal, hotel_dialog):
    with pytest.raises(NotInGoal):
        domain_outcome(hotel_dialog, hotel_goal, db3, "taxi")
    # The shipped rule has no outcome to ask for: it covers the goal's domains only.
    shipped = SpliceEvaluator(hotel_goal, db3).splices(hotel_dialog).outcomes
    assert [domain for domain, _, _ in shipped] == ["hotel"]


def test_dialog_success_is_a_conjunction_over_domains(db3):
    goal = UserGoal(
        domains={
            "hotel": GoalEntry(
                constraints={"area": "north", "pricerange": "moderate"},
                requests=frozenset({"address"}),
            ),
            "taxi": GoalEntry(constraints={}, requests=frozenset({"phone"})),
        }
    )
    state = {"hotel": {"area": "north", "pricerange": "moderate"}}
    good = Dialog(
        id="d-1",
        goal_id="g-1",
        turns=(
            Turn(
                user="hotel in the north, moderate.",
                system=SystemTurn(
                    state=state,
                    acts=(DialogAct("hotel", "recommend", "name"),),
                    response="how about [hotel_name]? it is at [hotel_address].",
                ),
            ),
            Turn(
                user="and a taxi there please.",
                system=SystemTurn(
                    state=state,
                    acts=(DialogAct("taxi", "inform", "phone"),),
                    response="your taxi is set, phone [taxi_phone].",
                ),
            ),
        ),
    )
    assert dialog_success(good, goal, db3) is True
    half = _with_response(good, 1, "your taxi is on the way.")
    assert dialog_success(half, goal, db3) is False
    for dialog in (good, half):
        assert dialog_success(dialog, goal, db3) == _oracle_success(dialog, goal, db3)[1]


def test_dialog_success_matches_the_oracle_on_mutations(small_world):
    db = small_world.database
    rng = random.Random(21)
    checked = 0
    for dialog in small_world.dialogs:
        goal = small_world.goals[dialog.goal_id]
        assert dialog_success(dialog, goal, db) is True
        assert _oracle_success(dialog, goal, db)[1] is True
        for _ in range(4):
            t = rng.randrange(len(dialog.turns))
            mode = rng.choice(("strip", "corrupt", "clear"))
            if mode == "strip":
                response = re.sub(r"\[\w+\]", "", dialog.turns[t].system.response)
                mutant = _with_response(dialog, t, response)
            elif mode == "corrupt":
                state = {d: dict(s) for d, s in dialog.turns[t].system.state.items()}
                for slots in state.values():
                    for slot in list(slots):
                        slots[slot] = "no such value"
                        break
                mutant = _with_state(dialog, t, state)
            else:
                mutant = _with_state(dialog, t, {})
            assert dialog_success(mutant, goal, db) == _oracle_success(mutant, goal, db)[1]
            checked += 1
    assert checked >= 40


def test_bleu_identity_corpus_scores_100():
    sentences = ["i can help with that .", "the [hotel_phone] is listed below ."]
    assert corpus_bleu(sentences, list(sentences)) == pytest.approx(100.0, abs=1e-6)


def test_bleu_disjoint_corpus_scores_near_zero():
    score = corpus_bleu(["aa bb cc dd ee"], ["ff gg hh ii jj"])
    assert 0.0 <= score <= 1e-6


def test_bleu_two_sentence_fixture_matches_the_frozen_oracle_value():
    score = corpus_bleu(BLEU_FIXTURE_HYPS, BLEU_FIXTURE_REFS)
    assert score == pytest.approx(BLEU_FIXTURE_SCORE, abs=1e-9)
    assert score == pytest.approx(oracle_bleu(BLEU_FIXTURE_HYPS, BLEU_FIXTURE_REFS), abs=1e-9)


def test_bleu_of_one_short_hypothesis_matches_the_hand_computed_value():
    # Pins behaviour that already holds. Four tokens give one 4-gram in total,
    # so every precision is 1/1 and only the brevity penalty exp(1 - 6/4) counts.
    score = corpus_bleu(["the cat sat on"], ["the cat sat on the mat"])
    assert score == pytest.approx(100.0 * math.exp(-0.5), abs=1e-9)


def test_bleu_rejects_mismatched_corpora():
    with pytest.raises(ValueError):
        corpus_bleu(["a"], [])


def test_bleu_degenerate_corpora_score_zero():
    assert corpus_bleu([], []) == 0.0
    assert corpus_bleu(["", ""], ["a b c", "d e f"]) == 0.0


def test_bleu_tokenizer_matches_the_oracle():
    cases = [
        "It's [hotel_name], isn't it?",
        "No punctuation here",
        "odd   spacing\tand CAPS!",
        "[train_id] leaves at 08:15.",
        "",
    ]
    for text in cases:
        assert bleu_tokenize(text) == oracle_tokenize(text)
    assert bleu_tokenize("It's [hotel_name].") == [
        "it", "'", "s", "[", "hotel_name", "]", ".",
    ]


def test_bleu_matches_the_oracle_on_random_corpora():
    vocab = (
        "the a hotel train cheap north is in [hotel_name] please ! , ? to "
        "leaves at 08:15 and for"
    ).split()
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randrange(2, 7)
        hyps = [" ".join(rng.choices(vocab, k=rng.randrange(3, 13))) for _ in range(n)]
        refs = [" ".join(rng.choices(vocab, k=rng.randrange(3, 13))) for _ in range(n)]
        assert corpus_bleu(hyps, refs) == pytest.approx(oracle_bleu(hyps, refs), abs=1e-9)


def test_combined_matches_published_rows():
    assert combined(19.94, 80.4, 72.5) == pytest.approx(96.39, abs=1e-9)
    assert combined(16.47, 90.0, 87.1) == pytest.approx(105.02, abs=1e-9)
    assert combined(0, 0, 0) == 0.0


def test_combined_is_exactly_bleu_plus_half_the_rates():
    rng = random.Random(23)
    for _ in range(100):
        b, i, s = (rng.uniform(0, 200) for _ in range(3))
        assert combined(b, i, s) == b + (i + s) / 2.0


def test_evaluate_corpus_single_successful_dialog(db3, hotel_goal, hotel_dialog):
    references = {hotel_dialog.id: [t.system.response for t in hotel_dialog.turns]}
    report = evaluate_corpus([hotel_dialog], {"h-1": hotel_goal}, db3, references)
    assert report.inform == 100.0
    assert report.success == 100.0
    assert report.bleu == pytest.approx(100.0, abs=1e-6)
    assert report.combined == pytest.approx(200.0, abs=1e-6)
    assert dict(report.per_domain) == {"hotel": (100.0, 100.0)}
    assert report.n_dialogs == 1


def test_evaluate_corpus_counts_seven_of_ten_successes(db3, hotel_goal, hotel_dialog):
    dialogs = []
    references = {}
    for i in range(10):
        dialog = Dialog(id=f"d-{i}", goal_id="h-1", turns=hotel_dialog.turns)
        if i < 3:
            dialog = _with_response(dialog, 1, "it is on the books. anything else?")
        dialogs.append(dialog)
        references[dialog.id] = [t.system.response for t in dialog.turns]
    report = evaluate_corpus(dialogs, {"h-1": hotel_goal}, db3, references)
    assert report.inform == 100.0
    assert report.success == 70.0
    assert dict(report.per_domain) == {"hotel": (100.0, 70.0)}
    assert report.combined == pytest.approx(report.bleu + 85.0, abs=1e-9)
    assert report.to_dict()["per_domain"]["hotel"] == {"inform": 100.0, "success": 70.0}


def test_evaluate_corpus_counts_a_dialog_only_when_every_goal_domain_holds(
    db3, hotel_goal, hotel_dialog
):
    # Pins behaviour that already holds. In each failed dialog one domain holds and the
    # other does not: d-1's taxi names no phone, d-2's hotel offer queries the wrong area.
    taxi = {"departure": "alpha hotel", "destination": "gamma hotel"}
    goal = UserGoal(domains={
        **hotel_goal.domains, "taxi": GoalEntry(constraints=taxi, requests=frozenset({"phone"})),
    })
    booked = Turn(
        user="i also need a taxi from alpha hotel to gamma hotel.",
        system=SystemTurn(
            state={**hotel_dialog.turns[-1].system.state, "taxi": dict(taxi)},
            acts=(DialogAct("taxi", "inform", "phone"),),
            response="booked! the contact number is [taxi_phone].",
        ),
    )
    both = Dialog(id="d-0", goal_id="g", turns=(*hotel_dialog.turns, booked))
    hotel_only = _with_response(dataclasses.replace(both, id="d-1"), 2, "your taxi is booked.")
    south = {"hotel": {**hotel_goal.domains["hotel"].constraints, "area": "south"}}
    taxi_only = _with_state(dataclasses.replace(both, id="d-2"), 0, south)
    dialogs = [both, hotel_only, taxi_only]
    references = {d.id: [t.system.response for t in d.turns] for d in dialogs}
    report = evaluate_corpus(dialogs, {"g": goal}, db3, references)
    assert report.inform == pytest.approx(200 / 3)
    assert report.success == pytest.approx(100 / 3)
    assert set(report.per_domain) == {"hotel", "taxi"}
    assert report.per_domain["hotel"] == pytest.approx((200 / 3, 200 / 3))
    assert report.per_domain["taxi"] == pytest.approx((100.0, 200 / 3))


def test_a_splice_past_the_last_turn_raises_index_error(db3, hotel_goal, hotel_dialog):
    # Pins behaviour that already holds.
    splices = SpliceEvaluator(hotel_goal, db3).splices(hotel_dialog)
    fragment = hotel_dialog.turns[0].system
    for kind in SubgoalKind:
        assert splices.success(len(hotel_dialog.turns) - 1, kind, fragment) in (True, False)
        with pytest.raises(IndexError, match="turn 2 out of range"):
            splices.success(len(hotel_dialog.turns), kind, fragment)


def test_evaluate_corpus_orders_domain_columns(small_world):
    references = {
        d.id: [t.system.response for t in d.turns] for d in small_world.dialogs
    }
    report = evaluate_corpus(
        small_world.dialogs, small_world.goals, small_world.database, references
    )
    domains = list(report.per_domain)
    expected = [d for d in DOMAIN_COLUMN_ORDER if d in set(domains)]
    assert domains == expected
    assert report.inform == 100.0
    assert report.success == 100.0
    for rates in report.per_domain.values():
        assert rates == (100.0, 100.0)


def test_evaluate_corpus_reports_missing_pieces(db3, hotel_goal, hotel_dialog):
    references = {hotel_dialog.id: [t.system.response for t in hotel_dialog.turns]}
    with pytest.raises(CorpusError):
        evaluate_corpus([hotel_dialog], {}, db3, references)
    with pytest.raises(CorpusError):
        evaluate_corpus([hotel_dialog], {"h-1": hotel_goal}, db3, {})
    with pytest.raises(CorpusError):
        evaluate_corpus([hotel_dialog], {"h-1": hotel_goal}, db3, {"h-1": ["one"]})
