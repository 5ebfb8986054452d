"""Flat text grammar: prompt serialization and state/act parsing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import serialize_state_prompt
from subtod.model import DialogAct, DialogContext, SystemTurn, Turn
from subtod.verbalize import (
    _parse_act_response,
    _parse_state,
    act_prompt_text,
    parse_act_response,
    parse_state,
    state_prompts,
    state_text,
    turn_text,
    verbalize_acts,
    verbalize_state,
)

# The MultiWOZ domain names and act verbs, the vocabulary the parser tests
# and the round-trip properties here and in c7 draw from.
MULTIWOZ_DOMAINS = frozenset(
    {"attraction", "hospital", "hotel", "police", "restaurant", "taxi", "train"}
)
MULTIWOZ_ACT_VERBS = frozenset(
    {
        "inform",
        "request",
        "recommend",
        "select",
        "book",
        "offer",
        "offerbook",
        "nooffer",
        "nobook",
        "general",
        "greet",
        "bye",
        "welcome",
        "reqmore",
    }
)
MULTIWOZ = {"domains": MULTIWOZ_DOMAINS, "verbs": MULTIWOZ_ACT_VERBS}

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
    return DialogContext(goal_id="g", pairs=tuple(pairs), user=user)


def test_state_prompt_with_empty_history():
    prompt = serialize_state_prompt(
        _context("I'm looking for a restaurant with mediterranean food.")
    )
    assert prompt == "[C] [U] i'm looking for a restaurant with mediterranean food."


def test_state_prompt_history_has_one_response_token_per_pair():
    pair = Turn(
        user="any area is fine",
        system=SystemTurn(state={}, acts=(), response="how about [restaurant_name]?"),
    )
    prompt = serialize_state_prompt(_context("book it please", [pair]))
    assert prompt.count("[R]") == 1
    assert prompt.count("[U]") == 2
    assert prompt.startswith("[C] [U] any area is fine [R] how about")


def test_state_prompt_token_split_recovers_the_context():
    pairs = [
        Turn(
            user=f"user turn {i} please",
            system=SystemTurn(state={}, acts=(), response=f"system reply {i}."),
        )
        for i in range(3)
    ]
    prompt = serialize_state_prompt(_context("final question?", pairs))
    body = prompt.removeprefix("[C] [U] ")
    chunks = body.split(" [U] ")
    *history, current = chunks
    assert current == "final question?"
    for i, chunk in enumerate(history):
        user, _, response = chunk.partition(" [R] ")
        assert user == f"user turn {i} please"
        assert response == f"system reply {i}."


def _token_by_token(context):
    """The state prompt spelled one token at a time, empty texts dropped."""
    def clean(text):
        return " ".join(text.lower().split())

    parts = ["[C]"]
    for pair in context.pairs:
        parts += ["[U]", clean(pair.user), "[R]", clean(pair.system.response)]
    parts += ["[U]", clean(context.user)]
    return " ".join(part for part in parts if part)


def test_state_prompts_of_each_dialog_match_token_by_token_encoding(small_world):
    silent = Turn(user="  Okay ", system=SystemTurn(state={}, acts=(), response=""))
    mute = Turn(user="", system=silent.system)
    then = Turn(user="And  then?", system=silent.system)
    dialogs = [dialog.turns for dialog in small_world.dialogs[:4]]
    # Empty user utterances and empty responses drop out of the prompt.
    dialogs += [(silent, mute, then), (silent, silent, then), (mute,)]
    for turns in dialogs:
        contexts = [_context(turn.user, turns[:t]) for t, turn in enumerate(turns)]
        expected = [_token_by_token(context) for context in contexts]
        assert state_prompts(turns) == expected
        assert [serialize_state_prompt(context) for context in contexts] == expected


def _act_prompt(context, state):
    return act_prompt_text(serialize_state_prompt(context), state)


def test_act_prompt_with_empty_state_ends_with_the_state_token():
    prompt = _act_prompt(_context("hello"), {})
    assert prompt.endswith(" [B]")


def test_act_prompt_carries_the_verbalized_state():
    prompt = _act_prompt(_context("when does it leave?"), TRAIN_STATE)
    assert prompt.endswith(f" [B] {TRAIN_STATE_TEXT}")


def test_act_prompt_extends_the_state_prompt():
    context = _context("when does it leave?")
    assert _act_prompt(context, TRAIN_STATE).startswith(serialize_state_prompt(context))


def test_parse_state_reads_domain_prefixed_clauses():
    parsed = parse_state(TRAIN_STATE_TEXT, domains=MULTIWOZ_DOMAINS)
    assert parsed.state == TRAIN_STATE
    assert parsed.diagnostics == ()


def test_parse_state_empty_and_token_prefixed():
    assert parse_state("", domains=MULTIWOZ_DOMAINS).state == {}
    assert parse_state("[B]", domains=MULTIWOZ_DOMAINS).state == {}
    assert parse_state(f"[B] {TRAIN_STATE_TEXT}", domains=MULTIWOZ_DOMAINS).state == TRAIN_STATE


def test_parse_state_keeps_colons_inside_values():
    parsed = parse_state("train leaveat: 08:45;", domains=MULTIWOZ_DOMAINS)
    assert parsed.state == {"train": {"leaveat": "08:45"}}
    assert verbalize_state(parsed.state) == "train leaveat: 08:45;"


def test_parse_state_diagnostics_for_malformed_clauses():
    parsed = parse_state("no separator here; hotel; hotel area: ;", domains=MULTIWOZ_DOMAINS)
    assert parsed.state == {}
    notes = "\n".join(parsed.diagnostics)
    assert "without separator" in notes
    assert "without a value" in notes

    orphan = parse_state("area: north;", domains=MULTIWOZ_DOMAINS)
    assert orphan.state == {}
    assert any("before any domain" in d for d in orphan.diagnostics)

    headless = parse_state("hotel : x;", domains=MULTIWOZ_DOMAINS)
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
        parsed = parse_state(text, domains=MULTIWOZ_DOMAINS)
        assert parsed.diagnostics == ()
        assert verbalize_state(parsed.state) == text


def test_lenient_state_strings_round_trip_as_structures():
    for text in LENIENT_STATE_STRINGS:
        first = parse_state(text, domains=MULTIWOZ_DOMAINS)
        again = parse_state(verbalize_state(first.state), domains=MULTIWOZ_DOMAINS)
        assert again.state == first.state
    taxi = parse_state(LENIENT_STATE_STRINGS[0], domains=MULTIWOZ_DOMAINS).state
    assert taxi["taxi"]["departure"] == "corpus christi"
    assert taxi["attraction"] == {"type": "college"}
    assert taxi["hotel"]["name"] == "university arms hotel"


def test_parse_acts_reads_booking_prefix_and_sticky_domain():
    parsed = parse_act_response(
        "[A] booking hotel inform NAME; inform PRICE; "
        "[R] [hotel_name] is [hotel_price]. would you like me to book it for you?",
        **MULTIWOZ,
    )
    assert parsed.acts == (
        DialogAct("hotel", "inform", "name", booking=True),
        DialogAct("hotel", "inform", "price", booking=True),
    )
    assert parsed.response == "[hotel_name] is [hotel_price]. would you like me to book it for you?"
    assert parsed.diagnostics == ()


def test_parse_acts_without_response_token_degrades():
    parsed = parse_act_response("hello", **MULTIWOZ)
    assert parsed.acts == ()
    assert parsed.response == "hello"
    assert any("[R]" in d for d in parsed.diagnostics)


def test_parse_acts_reports_missing_act_token_and_unknown_verbs():
    parsed = parse_act_response("hotel inform AREA; hotel shout AREA; [R] ok.", **MULTIWOZ)
    assert parsed.acts == (DialogAct("hotel", "inform", "area"),)
    notes = "\n".join(parsed.diagnostics)
    assert "[A]" in notes
    assert "unknown act verb" in notes

    orphan = parse_act_response("[A] inform AREA; [R] ok.", **MULTIWOZ)
    assert orphan.acts == ()
    assert any("before any domain" in d for d in orphan.diagnostics)


def test_a_clause_of_only_booking_is_reported_not_raised():
    # Pins behaviour that already holds: the parsers never raise.
    parsed = parse_act_response("[A] booking; [R] hi", **MULTIWOZ)
    assert parsed.acts == ()
    assert parsed.response == "hi"
    assert parsed.diagnostics == ("act clause without a verb: 'booking'",)


def test_parse_acts_bare_verb_inherits_the_running_domain():
    parsed = parse_act_response(
        "[A] attraction inform NAME; general [R] anything else?", **MULTIWOZ
    )
    assert parsed.acts == (
        DialogAct("attraction", "inform", "name"),
        DialogAct("attraction", "general", None),
    )


def test_exact_act_strings_survive_verbatim():
    for text in EXACT_ACT_STRINGS:
        parsed = parse_act_response(f"[A] {text} [R] ok.", **MULTIWOZ)
        assert parsed.diagnostics == ()
        assert verbalize_acts(parsed.acts) == text


def test_lenient_act_strings_round_trip_as_structures():
    for text in LENIENT_ACT_STRINGS:
        first = parse_act_response(f"[A] {text} [R] ok.", **MULTIWOZ)
        again = parse_act_response(turn_text(first.acts, first.response), **MULTIWOZ)
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
    for domain in rng.sample(sorted(MULTIWOZ_DOMAINS), rng.randrange(0, 4)):
        state[domain] = {
            slot: rng.choice(_VALUES)
            for slot in rng.sample(_SLOTS, rng.randrange(1, 5))
        }
    return state


def random_acts(rng):
    return tuple(
        DialogAct(
            domain=rng.choice(sorted(MULTIWOZ_DOMAINS)),
            act=rng.choice(sorted(MULTIWOZ_ACT_VERBS)),
            slot=rng.choice((None,) + _SLOTS),
            booking=rng.random() < 0.3,
        )
        for _ in range(rng.randrange(0, 6))
    )


def test_random_states_round_trip():
    rng = random.Random(13)
    for _ in range(300):
        state = random_state(rng)
        parsed = parse_state(verbalize_state(state), domains=MULTIWOZ_DOMAINS)
        assert parsed.state == state
        assert parsed.diagnostics == ()


def test_random_acts_round_trip():
    rng = random.Random(14)
    for _ in range(300):
        acts = random_acts(rng)
        response = rng.choice(("ok.", "the [hotel_phone] is here; call anytime.", "done"))
        parsed = parse_act_response(turn_text(acts, response), **MULTIWOZ)
        assert parsed.acts == acts
        assert parsed.response == response


def test_parse_memo_is_keyed_by_the_vocabulary():
    acts_text = "[A] lodge suggest NAME; [R] ok."
    lodge = {"domains": frozenset({"lodge"}), "verbs": frozenset({"suggest"})}
    for _ in range(2):
        assert parse_act_response(acts_text, **MULTIWOZ).acts == ()
        suggest = DialogAct("lodge", "suggest", "name")
        assert parse_act_response(acts_text, **lodge).acts == (suggest,)
        assert parse_state("lodge area: north;", domains=MULTIWOZ_DOMAINS).state == {}
        assert parse_state("lodge area: north;", domains=lodge["domains"]).state == {
            "lodge": {"area": "north"}
        }


def test_parsers_have_no_default_vocabulary():
    with pytest.raises(TypeError, match="domains"):
        parse_state(TRAIN_STATE_TEXT)
    with pytest.raises(TypeError, match="domains"):
        parse_act_response("[A] hotel inform AREA; [R] ok.")
    with pytest.raises(TypeError, match="verbs"):
        parse_act_response("[A] hotel inform AREA; [R] ok.", domains=MULTIWOZ_DOMAINS)


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
        assert parse_state(text, domains=MULTIWOZ_DOMAINS) == unmemoized_state(
            text, MULTIWOZ_DOMAINS
        )
        assert parse_state(text, domains=domains) == unmemoized_state(text, domains)
        assert parse_act_response(text, **MULTIWOZ) == unmemoized_turn(
            text, MULTIWOZ_DOMAINS, MULTIWOZ_ACT_VERBS
        )
        assert parse_act_response(text, domains=domains, verbs=verbs) == unmemoized_turn(
            text, domains, verbs
        )


# The grammar's own tokens, in the case the verbalizers write and another, mixed with free words
# below; the MULTIWOZ vocabulary's domains and verbs, as the parsers are called with.
_GRAMMAR_TOKENS = (
    "booking", "BOOKING", ";", ":", "[A]", "[R]", "[B]", "NAME", "area",
    *sorted(MULTIWOZ_DOMAINS), *sorted(MULTIWOZ_ACT_VERBS),
)
_GRAMMAR_TEXT = st.lists(
    st.one_of(st.sampled_from(_GRAMMAR_TOKENS), st.text(max_size=6)), max_size=20
).flatmap(lambda parts: st.sampled_from((" ", "", "; ")).map(lambda sep: sep.join(parts)))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(text=_GRAMMAR_TEXT)
def test_parsers_never_raise_on_text_built_from_the_grammar_tokens(text):
    # Pins behaviour that already holds: the parsers skip what they cannot read, with a note.
    state = parse_state(text, domains=MULTIWOZ_DOMAINS)
    assert set(state.state) <= MULTIWOZ_DOMAINS
    assert all(slots and all(slot and value for slot, value in slots.items())
               for slots in state.state.values())
    assert all(isinstance(note, str) for note in state.diagnostics)
    turn = parse_act_response(text, **MULTIWOZ)
    assert all(act.domain in MULTIWOZ_DOMAINS and act.act in MULTIWOZ_ACT_VERBS
               for act in turn.acts)
    assert isinstance(turn.response, str)
    assert all(isinstance(note, str) for note in turn.diagnostics)
