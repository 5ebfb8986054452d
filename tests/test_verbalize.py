"""Flat text grammar: prompt serialization and state/act parsing."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from subtod.model import DialogAct, DialogContext, SubgoalKind, SystemTurn, Turn
from subtod.verbalize import (
    DEFAULT_ACT_VERBS,
    DEFAULT_DOMAINS,
    _parse_act_response,
    _parse_state,
    parse_act_response,
    parse_state,
    serialize_act_prompt,
    serialize_state_prompt,
    state_text,
    turn_text,
    verbalize_acts,
    verbalize_state,
)

TRAIN_STATE_TEXT = "train departure: london liverpool street; destination: cambridge;"
TRAIN_STATE = {"train": {"departure": "london liverpool street", "destination": "cambridge"}}

# Canonically formatted state and act strings these tools must reproduce
# byte for byte after a parse.
EXACT_STATE_STRINGS = (
    TRAIN_STATE_TEXT,
    "train departure: cambridge; destination: london liverpool street;",
)
EXACT_ACT_STRINGS = (
    "booking hotel inform NAME; inform PRICE;",
    "booking hotel inform PRICE; inform AREA; inform COUNT;",
    "booking restaurant inform AREA; inform COUNT; inform FOOD; inform NAME; inform PRICE;",
    "restaurant inform COUNT;",
    "taxi inform PHONE; inform TYPE;",
    "taxi request PLACE;",
)
# Messier published-style strings: a clause whose value hides a colon, mixed
# domain ordering, a trailing verb without a slot. These only survive a
# round trip at the structure level.
LENIENT_STATE_STRINGS = (
    "taxi departure: corpus christi; destination: university arms hotel; "
    "leave is 02:30; hotel area: centre; bookday: tuesday; bookstay: 1; "
    "name: university arms hotel; attraction type: college;",
    "hotel area: centre; bookday: tuesday; bookstay: 1; "
    "name: university arms hotel; stars: 4; attraction type: college;",
)
LENIENT_ACT_STRINGS = (
    "attraction inform ADDRESS; inform PRICE; inform NAME; inform POST; general",
    "attraction inform AREA; inform PRICE; inform NAME; general",
)


def _context(user, pairs=()):
    return DialogContext(goal_id="g", turn_index=len(pairs), pairs=tuple(pairs), user=user)


def test_state_prompt_with_empty_history():
    prompt = serialize_state_prompt(
        _context("I'm looking for a restaurant with mediterranean food.")
    )
    assert prompt.text == "[C] [U] i'm looking for a restaurant with mediterranean food."
    assert prompt.stage is SubgoalKind.STATE


def test_state_prompt_history_has_one_response_token_per_pair():
    pair = Turn(
        user="any area is fine",
        system=SystemTurn(state={}, acts=(), response="how about [restaurant_name]?"),
    )
    prompt = serialize_state_prompt(_context("book it please", [pair]))
    assert prompt.text.count("[R]") == 1
    assert prompt.text.count("[U]") == 2
    assert prompt.text.startswith("[C] [U] any area is fine [R] how about")


def test_state_prompt_token_split_recovers_the_context():
    pairs = [
        Turn(
            user=f"user turn {i} please",
            system=SystemTurn(state={}, acts=(), response=f"system reply {i}."),
        )
        for i in range(3)
    ]
    prompt = serialize_state_prompt(_context("final question?", pairs))
    body = prompt.text.removeprefix("[C] [U] ")
    chunks = body.split(" [U] ")
    *history, current = chunks
    assert current == "final question?"
    for i, chunk in enumerate(history):
        user, _, response = chunk.partition(" [R] ")
        assert user == f"user turn {i} please"
        assert response == f"system reply {i}."


def test_act_prompt_with_empty_state_ends_with_the_state_token():
    prompt = serialize_act_prompt(_context("hello"), {})
    assert prompt.text.endswith(" [B]")
    assert prompt.stage is SubgoalKind.ACT_RESPONSE


def test_act_prompt_carries_the_verbalized_state():
    prompt = serialize_act_prompt(_context("when does it leave?"), TRAIN_STATE)
    assert prompt.text.endswith(f" [B] {TRAIN_STATE_TEXT}")


def test_act_prompt_extends_the_state_prompt():
    context = _context("when does it leave?")
    assert serialize_act_prompt(context, TRAIN_STATE).text.startswith(
        serialize_state_prompt(context).text
    )


def test_parse_state_reads_domain_prefixed_clauses():
    parsed = parse_state(TRAIN_STATE_TEXT)
    assert parsed.state == TRAIN_STATE
    assert parsed.diagnostics == ()


def test_parse_state_empty_and_token_prefixed():
    assert parse_state("").state == {}
    assert parse_state("[B]").state == {}
    assert parse_state(f"[B] {TRAIN_STATE_TEXT}").state == TRAIN_STATE


def test_parse_state_keeps_colons_inside_values():
    parsed = parse_state("train leaveat: 08:45;")
    assert parsed.state == {"train": {"leaveat": "08:45"}}
    assert verbalize_state(parsed.state) == "train leaveat: 08:45;"


def test_parse_state_diagnostics_for_malformed_clauses():
    parsed = parse_state("no separator here; hotel; hotel area: ;")
    assert parsed.state == {}
    notes = "\n".join(parsed.diagnostics)
    assert "without separator" in notes
    assert "without a value" in notes

    orphan = parse_state("area: north;")
    assert orphan.state == {}
    assert any("before any domain" in d for d in orphan.diagnostics)

    headless = parse_state("hotel : x;")
    assert headless.state == {}
    assert any("without a slot name" in d for d in headless.diagnostics)


def test_verbalize_state_sorts_domains_and_slots():
    state = {
        "train": {"destination": "ely", "departure": "cambridge"},
        "hotel": {"stars": "4", "area": "west"},
    }
    assert verbalize_state(state) == (
        "hotel area: west; stars: 4; train departure: cambridge; destination: ely;"
    )


def test_exact_state_strings_survive_verbatim():
    for text in EXACT_STATE_STRINGS:
        parsed = parse_state(text)
        assert parsed.diagnostics == ()
        assert verbalize_state(parsed.state) == text


def test_lenient_state_strings_round_trip_as_structures():
    for text in LENIENT_STATE_STRINGS:
        first = parse_state(text)
        again = parse_state(verbalize_state(first.state))
        assert again.state == first.state
    taxi = parse_state(LENIENT_STATE_STRINGS[0]).state
    assert taxi["taxi"]["departure"] == "corpus christi"
    assert taxi["attraction"] == {"type": "college"}
    assert taxi["hotel"]["name"] == "university arms hotel"


def test_parse_acts_reads_booking_prefix_and_sticky_domain():
    parsed = parse_act_response(
        "[A] booking hotel inform NAME; inform PRICE; "
        "[R] [hotel_name] is [hotel_price]. would you like me to book it for you?"
    )
    assert parsed.acts == (
        DialogAct("hotel", "inform", "name", booking=True),
        DialogAct("hotel", "inform", "price", booking=True),
    )
    assert parsed.response == "[hotel_name] is [hotel_price]. would you like me to book it for you?"
    assert parsed.diagnostics == ()


def test_parse_acts_without_response_token_degrades():
    parsed = parse_act_response("hello")
    assert parsed.acts == ()
    assert parsed.response == "hello"
    assert any("[R]" in d for d in parsed.diagnostics)


def test_parse_acts_reports_missing_act_token_and_unknown_verbs():
    parsed = parse_act_response("hotel inform AREA; hotel shout AREA; [R] ok.")
    assert parsed.acts == (DialogAct("hotel", "inform", "area"),)
    notes = "\n".join(parsed.diagnostics)
    assert "[A]" in notes
    assert "unknown act verb" in notes

    orphan = parse_act_response("[A] inform AREA; [R] ok.")
    assert orphan.acts == ()
    assert any("before any domain" in d for d in orphan.diagnostics)


def test_parse_acts_bare_verb_inherits_the_running_domain():
    parsed = parse_act_response("[A] attraction inform NAME; general [R] anything else?")
    assert parsed.acts == (
        DialogAct("attraction", "inform", "name"),
        DialogAct("attraction", "general", None),
    )


def test_exact_act_strings_survive_verbatim():
    for text in EXACT_ACT_STRINGS:
        parsed = parse_act_response(f"[A] {text} [R] ok.")
        assert parsed.diagnostics == ()
        assert verbalize_acts(parsed.acts) == text


def test_lenient_act_strings_round_trip_as_structures():
    for text in LENIENT_ACT_STRINGS:
        first = parse_act_response(f"[A] {text} [R] ok.")
        again = parse_act_response(turn_text(first.acts, first.response))
        assert again.acts == first.acts
        assert again.response == first.response


def test_state_and_turn_text_wrap_generations():
    assert state_text(TRAIN_STATE) == f"[B] {TRAIN_STATE_TEXT}"
    assert state_text({}) == "[B]"
    acts = (DialogAct("taxi", "inform", "type", booking=True),)
    assert turn_text(acts, "done.") == "[A] booking taxi inform TYPE; [R] done."
    assert turn_text((), "done.") == "[A] [R] done."


_SLOTS = (
    "area", "pricerange", "food", "stars", "internet", "parking", "type",
    "day", "departure", "destination", "leaveat", "book stay", "people",
)
_VALUES = (
    "north", "london liverpool street", "02:30", "dontcare", "4",
    "guesthouse", "nandos city centre", "18:45", "monday", "el shaddai",
)


def random_state(rng):
    state = {}
    for domain in rng.sample(sorted(DEFAULT_DOMAINS), rng.randrange(0, 4)):
        state[domain] = {
            slot: rng.choice(_VALUES)
            for slot in rng.sample(_SLOTS, rng.randrange(1, 5))
        }
    return state


def random_acts(rng):
    return tuple(
        DialogAct(
            domain=rng.choice(sorted(DEFAULT_DOMAINS)),
            act=rng.choice(sorted(DEFAULT_ACT_VERBS)),
            slot=rng.choice((None,) + _SLOTS),
            booking=rng.random() < 0.3,
        )
        for _ in range(rng.randrange(0, 6))
    )


def test_random_states_round_trip():
    rng = random.Random(13)
    for _ in range(300):
        state = random_state(rng)
        parsed = parse_state(verbalize_state(state))
        assert parsed.state == state
        assert parsed.diagnostics == ()


def test_random_acts_round_trip():
    rng = random.Random(14)
    for _ in range(300):
        acts = random_acts(rng)
        response = rng.choice(("ok.", "the [hotel_phone] is here; call anytime.", "done"))
        parsed = parse_act_response(turn_text(acts, response))
        assert parsed.acts == acts
        assert parsed.response == response


def test_parse_memo_is_keyed_by_the_vocabulary():
    acts_text = "[A] lodge suggest NAME; [R] ok."
    lodge = {"domains": frozenset({"lodge"}), "verbs": frozenset({"suggest"})}
    for _ in range(2):
        assert parse_act_response(acts_text).acts == ()
        suggest = DialogAct("lodge", "suggest", "name")
        assert parse_act_response(acts_text, **lodge).acts == (suggest,)
        assert parse_state("lodge area: north;").state == {}
        assert parse_state("lodge area: north;", domains=lodge["domains"]).state == {
            "lodge": {"area": "north"}
        }


def test_parsers_take_any_collection_as_vocabulary():
    acts_text = "[A] lodge suggest NAME; [R] ok."
    suggest = DialogAct("lodge", "suggest", "name")
    for domains, verbs in (({"lodge"}, {"suggest"}), (["lodge"], ["suggest"]),
                           ({"lodge": None}, {"suggest": None})):
        assert parse_act_response(acts_text, domains=domains, verbs=verbs).acts == (suggest,)
        assert parse_state("lodge area: north;", domains=domains).state == {
            "lodge": {"area": "north"}
        }


_PIECES = (
    "[A]", "[B]", "[R]", ";", ":", "booking", "hotel", "lodge", "taxi", "inform",
    "suggest", "bye", "AREA", "area", "north", "08:45", "ok.",
)
_WORDS = ("hotel", "lodge", "taxi", "inform", "suggest", "bye")
_VOCABULARY = st.frozensets(st.sampled_from(_WORDS))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    text=st.one_of(
        st.text(max_size=30),
        st.lists(st.sampled_from(_PIECES), max_size=14).map(" ".join),
        st.lists(st.sampled_from(_PIECES), max_size=14).map("".join),
    ),
    domains=_VOCABULARY,
    verbs=_VOCABULARY,
)
def test_memoized_parsers_equal_their_originals(text, domains, verbs):
    # The first round may miss the memo, the second hits it.
    unmemoized_state = _parse_state.__wrapped__
    unmemoized_turn = _parse_act_response.__wrapped__
    for _ in range(2):
        assert parse_state(text) == unmemoized_state(text, DEFAULT_DOMAINS)
        assert parse_state(text, domains=domains) == unmemoized_state(text, domains)
        assert parse_act_response(text) == unmemoized_turn(
            text, DEFAULT_DOMAINS, DEFAULT_ACT_VERBS
        )
        assert parse_act_response(text, domains=domains, verbs=verbs) == unmemoized_turn(
            text, domains, verbs
        )
