"""Candidate assembly, labeling, subgoal detection, and dataset emission."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import contexts_of, serialize_state_prompt
from oracles import detect as oracle_detect
from oracles import detect_flip_set, detect_flips, plain_dialog, plain_goal, plain_schemas, plain_tables
from reference import dialog_success, outcomes
from subtod import subgoals
from subtod.backends import ScriptedBackend
from subtod.evaluate import SpliceEvaluator
from subtod.model import (
    Database,
    Dialog,
    DialogAct,
    DomainSchema,
    GoalEntry,
    Ontology,
    SubgoalKind,
    SystemTurn,
    Turn,
    UserGoal,
    placeholder,
    replace_turn,
)
from subtod.sampling import SamplingConfig, sample_turn
from subtod.subgoals import (
    CandidateGroup,
    PairPolicy,
    SubgoalSample,
    assemble_candidates,
    detect_subgoals,
    emit_dpo,
    emit_sft,
    label_success,
)
from subtod.verbalize import act_prompt_text


def test_assemble_builds_k_squared_plus_one_candidates(small_world):
    backend = ScriptedBackend(small_world)
    dialog = small_world.dialogs[0]
    cfg = SamplingConfig(k=2, seed=3)
    samples = [sample_turn(backend, ctx, cfg, small_world.ontology) for ctx in contexts_of(dialog)]
    candidates = assemble_candidates(dialog, samples, 2)
    assert len(candidates) == 5
    assert [c.id for c in candidates] == [
        f"{dialog.id}/cand-0-0",
        f"{dialog.id}/cand-1-1",
        f"{dialog.id}/cand-1-2",
        f"{dialog.id}/cand-2-1",
        f"{dialog.id}/cand-2-2",
    ]
    assert candidates[0].turns == dialog.turns
    assert all(c.goal_id == dialog.goal_id for c in candidates)


def test_assemble_collapses_exact_duplicates():
    turn = Turn(
        user="hi",
        system=SystemTurn(
            state={"hotel": {"area": "north"}},
            acts=(DialogAct("hotel", "inform", "area"),),
            response="in the north.",
        ),
    )
    source = Dialog(id="d-x", goal_id="g-x", turns=(turn,))
    samples = [[[turn.system]]]
    candidates = assemble_candidates(source, samples, 2)
    assert [c.id for c in candidates] == ["d-x/cand-0-0"]


def test_assemble_clamps_to_whatever_survived_dedup():
    s0 = {"hotel": {"area": "north"}}
    s1 = {"hotel": {"area": "south"}}
    c0 = SystemTurn(state=s0, acts=(), response="greedy answer.")
    c1 = SystemTurn(state=s1, acts=(), response="alternate answer.")
    c2 = SystemTurn(state=s1, acts=(), response="third answer.")
    source = Dialog(
        id="d-x",
        goal_id="g-x",
        turns=(Turn(user="hi", system=SystemTurn(state=s0, acts=(), response="greedy answer.")),),
    )
    samples = [[[c0], [c1, c2]]]
    # k=3 asks for three sampled states and three continuations of each; only one sampled
    # state with two continuations survived.
    candidates = assemble_candidates(source, samples, 3)
    assert [c.id for c in candidates] == ["d-x/cand-0-0", "d-x/cand-1-1", "d-x/cand-1-2"]
    assert candidates[0].turns[0].system.state == s0
    assert candidates[0].turns[0].system.response == "greedy answer."
    assert [c.turns[0].system for c in candidates[1:]] == [c1, c2]


def test_assemble_requires_samples_for_every_turn(small_world):
    dialog = small_world.dialogs[0]
    with pytest.raises(ValueError, match="turn sample sets"):
        assemble_candidates(dialog, [], 2)


def test_mixed_group_is_labeled_one_winner_three_losers(mixed_group):
    assert mixed_group.labels == (True, False, False, False)
    assert [d.id for d in mixed_group.successful()] == ["cand-w"]
    assert [d.id for d in mixed_group.unsuccessful()] == ["cand-o", "cand-j", "cand-u"]


def test_unlabeled_groups_refuse_to_split():
    group = CandidateGroup(
        goal_id="g", goal=UserGoal(domains={}), candidates=()
    )
    stripped = dataclasses.replace(group, candidates=(None,), labels=())
    with pytest.raises(ValueError, match="not labeled yet"):
        stripped.labeled()


def test_detection_finds_the_three_planted_sites(db3, mixed_group):
    samples = detect_subgoals(mixed_group, db3)
    assert detect_flips(mixed_group, samples) == [
        ("cand-w", 1, "state", "cand-o"),
        ("cand-w", 2, "act_response", "cand-j"),
        ("cand-w", 3, "act_response", "cand-u"),
    ]
    winner = mixed_group.candidates[0]
    for sample in samples:
        assert sample.dialog_id == "cand-w"
        assert sample.goal_id == "g-1"
        assert sample.positive == winner.turns[sample.turn].system
        assert sample.prompt == serialize_state_prompt(contexts_of(winner)[sample.turn])
    assert samples[0].negatives[0].state == {"hotel": {
        "area": "south", "pricerange": "moderate", "internet": "yes"}}
    assert samples[1].negatives[0].response == "it is in the north of town."
    assert samples[2].negatives[0].acts == ()


def test_detection_needs_at_least_one_failure(db3, mixed_group):
    winner = mixed_group.candidates[0]
    group = CandidateGroup(
        goal_id="g-1", goal=mixed_group.goal, candidates=(winner,)
    )
    assert detect_subgoals(label_success(group, db3), db3) == []


def _turn(user, state, acts, response):
    return Turn(
        user=user,
        system=SystemTurn(
            state={d: dict(s) for d, s in state.items()}, acts=acts, response=response
        ),
    )


def _random_group(rng, db3):
    goal = UserGoal(
        domains={
            "hotel": GoalEntry(
                constraints={"area": "north", "pricerange": "moderate", "internet": "yes"},
                requests=frozenset({"address", "phone"}),
            )
        }
    )
    s_full = {"hotel": {"area": "north", "pricerange": "moderate", "internet": "yes"}}
    s_bad = {"hotel": {"area": "south", "pricerange": "moderate", "internet": "yes"}}
    t0 = _turn("hotel in the north, moderate, with wifi.", {"hotel": {"area": "north"}},
               (DialogAct("hotel", "request", "pricerange"),), "what price range?")
    t1_pool = (
        _turn("moderate.", s_full, (DialogAct("hotel", "recommend", "name"),),
              "i recommend [hotel_name]."),
        _turn("moderate.", s_bad, (DialogAct("hotel", "recommend", "name"),),
              "i recommend [hotel_name]."),
        _turn("moderate.", s_full, (DialogAct("hotel", "inform", "area"),),
              "we have several options in the north."),
    )
    t2_pool = (
        _turn("address?", s_full, (DialogAct("hotel", "inform", "address"),),
              "the address is [hotel_address]."),
        _turn("address?", s_full, (DialogAct("hotel", "inform", "area"),),
              "it is right in the north."),
    )
    t3_pool = (
        _turn("phone?", s_full, (DialogAct("hotel", "inform", "phone"),),
              "the phone is [hotel_phone]."),
        _turn("phone?", s_full, (), "you are welcome, goodbye!"),
    )
    candidates = []
    for i in range(rng.randrange(2, 6)):
        turns = (t0, rng.choice(t1_pool), rng.choice(t2_pool), rng.choice(t3_pool))
        if rng.random() < 0.25:
            turns = turns[:3]
        candidates.append(Dialog(id=f"c-{i}", goal_id="g-r", turns=turns))
    group = CandidateGroup(
        goal_id="g-r", goal=goal, candidates=tuple(candidates)
    )
    return label_success(group, db3)


def test_detection_matches_the_exhaustive_oracle(db3):
    rng = random.Random(31)
    nonempty = 0
    for _ in range(40):
        group = _random_group(rng, db3)
        flips = detect_flip_set(group, detect_subgoals(group, db3))
        expected = oracle_detect(
            [plain_dialog(d) for d in group.candidates],
            list(group.labels),
            plain_goal(group.goal),
            plain_schemas(db3),
            plain_tables(db3),
        )
        assert flips == expected
        nonempty += bool(flips)
    assert nonempty >= 10


def test_sft_records_for_the_mixed_group(db3, mixed_group):
    samples = detect_subgoals(mixed_group, db3)
    records = emit_sft(samples)
    winner = mixed_group.candidates[0]
    assert [(r["turn"], r["kind"]) for r in records] == [
        (1, "state"),
        (2, "act_response"),
        (3, "act_response"),
    ]
    state_record = records[0]
    assert state_record["prompt"] == serialize_state_prompt(contexts_of(winner)[1])
    assert state_record["target"] == (
        "[B] hotel area: north; internet: yes; pricerange: moderate;"
    )
    assert state_record["goal_id"] == "g-1"
    assert state_record["dialog_id"] == "cand-w"

    addr_record = records[1]
    assert addr_record["prompt"] == act_prompt_text(
        serialize_state_prompt(contexts_of(winner)[2]), winner.turns[2].system.state
    )
    assert addr_record["target"] == (
        "[A] hotel inform ADDRESS; [R] the address is [hotel_address]."
    )


def test_sft_target_verbalizes_a_train_state():
    positive = SystemTurn(
        state={"train": {"departure": "london liverpool street",
                         "destination": "cambridge"}},
        acts=(),
        response="",
    )
    sample = SubgoalSample(
        prompt="[C] [U] i need a train from london liverpool street to cambridge.",
        kind=SubgoalKind.STATE, positive=positive, negatives=(),
        goal_id="g", dialog_id="d", turn=0,
    )
    [record] = emit_sft([sample])
    assert record["target"] == (
        "[B] train departure: london liverpool street; destination: cambridge;"
    )


def test_dpo_first_pairs_each_site_with_its_first_flip(db3, mixed_group):
    records = emit_dpo(detect_subgoals(mixed_group, db3), PairPolicy.FIRST)
    assert len(records) == 3
    by_turn = {r["turn"]: r for r in records}
    assert by_turn[1]["chosen"] == (
        "[B] hotel area: north; internet: yes; pricerange: moderate;"
    )
    assert by_turn[1]["rejected"] == (
        "[B] hotel area: south; internet: yes; pricerange: moderate;"
    )
    assert by_turn[2]["rejected"] == "[A] hotel inform AREA; [R] it is in the north of town."
    assert by_turn[3]["chosen"] == (
        "[A] hotel inform PHONE; [R] the phone is [hotel_phone]. goodbye!"
    )
    assert by_turn[3]["rejected"] == "[A] [R] you are welcome, goodbye!"
    winner = mixed_group.candidates[0]
    assert by_turn[1]["prompt"] == serialize_state_prompt(contexts_of(winner)[1])


def test_dpo_all_emits_distinct_pairs_only(db3, mixed_group):
    sample = detect_subgoals(mixed_group, db3)[2]
    other = SystemTurn(state=sample.positive.state, acts=(), response="so long!")
    widened = dataclasses.replace(
        sample,
        negatives=(sample.negatives[0], other, sample.negatives[0]),
    )
    all_records = emit_dpo([widened], PairPolicy.ALL)
    assert len(all_records) == 2
    assert {r["rejected"] for r in all_records} == {
        "[A] [R] you are welcome, goodbye!",
        "[A] [R] so long!",
    }
    first_records = emit_dpo([widened], PairPolicy.FIRST)
    assert len(first_records) == 1
    assert first_records[0]["rejected"] == "[A] [R] you are welcome, goodbye!"


def test_dpo_builds_each_sample_prompt_once(db3, mixed_group, monkeypatch):
    # One more negative per sample, distinct from the others in both fragments.
    samples = [
        dataclasses.replace(
            sample,
            negatives=sample.negatives
            + (dataclasses.replace(sample.negatives[0], state={}, response="so long!"),),
        )
        for sample in detect_subgoals(mixed_group, db3)
    ]
    assert all(len(sample.negatives) >= 2 for sample in samples)
    built = []

    def counting_act_prompt(state_prompt, state):
        built.append((state_prompt, state))
        return act_prompt_text(state_prompt, state)

    monkeypatch.setattr(subgoals, "act_prompt_text", counting_act_prompt)
    records = emit_dpo(samples, PairPolicy.ALL, set())
    assert len(records) == sum(len(sample.negatives) for sample in samples)
    # One act/response prompt per act/response sample; a state sample's prompt is its own.
    assert built == [
        (sample.prompt, sample.positive.state)
        for sample in samples
        if sample.kind is SubgoalKind.ACT_RESPONSE
    ]
    assert {r["prompt"] for r in records if r["kind"] == "state"} == {
        sample.prompt for sample in samples if sample.kind is SubgoalKind.STATE
    }


def test_emission_order_ignores_input_order(db3, mixed_group):
    samples = detect_subgoals(mixed_group, db3)
    shuffled = random.Random(5).sample(samples, len(samples))
    assert emit_sft(shuffled) == emit_sft(samples)
    assert emit_dpo(shuffled, PairPolicy.ALL) == emit_dpo(samples, PairPolicy.ALL)


# ------------------------------------------------------- incremental splices

SPLICE_DB = Database(
    ontology=Ontology(
        domains={
            "hotel": DomainSchema(
                informable=("area", "pricerange", "internet"),
                requestable=("address", "phone"),
                acts=("inform", "recommend"),
            ),
            "train": DomainSchema(
                informable=("departure", "destination", "day"),
                requestable=("price", "duration"),
                acts=("inform", "offerbook"),
                name_slot="id",
            ),
            "taxi": DomainSchema(
                informable=("departure", "destination"),
                requestable=("phone", "type"),
                acts=("inform",),
                entity_bearing=False,
            ),
        }
    ),
    tables={
        "hotel": (
            {"name": "alpha", "area": "north", "pricerange": "moderate", "internet": "yes"},
            {"name": "beta", "area": "north", "pricerange": "cheap", "internet": "no"},
            {"name": "gamma", "area": "south", "pricerange": "moderate", "internet": "yes"},
        ),
        "train": (
            {"id": "tr1", "departure": "cambridge", "destination": "london", "day": "monday"},
            {"id": "tr2", "departure": "cambridge", "destination": "london", "day": "friday"},
            {"id": "tr3", "departure": "london", "destination": "cambridge", "day": "monday"},
        ),
    },
)
# Values drawn per slot: database values, a case variant, dontcare and a miss.
# "stars" and "leaveat" are not informable, so every evaluation ignores them.
SLOT_VALUES = {
    "hotel": {
        "area": ("north", "North ", "south", "dontcare", "east"),
        "pricerange": ("moderate", "cheap", "dontcare"),
        "internet": ("yes", "no"),
        "stars": ("4",),
    },
    "train": {
        "departure": ("cambridge", "london", "dontcare"),
        "destination": ("london", "cambridge"),
        "day": ("monday", "friday", "sunday"),
        "leaveat": ("10:00",),
    },
    "taxi": {"departure": ("alpha", "dontcare"), "destination": ("tr1",), "leaveat": ("9:00",)},
}
RESPONSE_PIECES = (
    "[hotel_name]", "[hotel_address]", "[hotel_phone]", "[train_id]", "[train_price]",
    "[train_duration]", "[taxi_phone]", "[taxi_type]", "anything else?",
)


@st.composite
def beliefs(draw):
    state = {}
    for domain in draw(st.lists(st.sampled_from(sorted(SLOT_VALUES)), unique=True)):
        slots = draw(st.lists(st.sampled_from(sorted(SLOT_VALUES[domain])), unique=True))
        state[domain] = {slot: draw(st.sampled_from(SLOT_VALUES[domain][slot])) for slot in slots}
    return state


@st.composite
def goals(draw):
    entries = {}
    for domain in draw(st.lists(st.sampled_from(sorted(SLOT_VALUES)), min_size=1, unique=True)):
        schema = SPLICE_DB.ontology.schema(domain)
        slots = draw(st.lists(st.sampled_from(schema.informable), unique=True))
        entries[domain] = GoalEntry(
            constraints={slot: draw(st.sampled_from(SLOT_VALUES[domain][slot])) for slot in slots},
            requests=frozenset(draw(st.lists(st.sampled_from(schema.requestable), max_size=2))),
        )
    return UserGoal(domains=entries)


@st.composite
def system_turns(draw, goal):
    """Turns that often satisfy ``goal`` (so that splices can break it) or nearly so."""
    likely = st.sampled_from((True, True, True, False))
    state = {d: dict(e.constraints) for d, e in goal.domains.items()} if draw(likely) else {}
    if not draw(likely):
        for domain, slots in draw(beliefs()).items():
            state[domain] = {**state.get(domain, {}), **slots}
    # Offers on half the turns, so that splices move the last offer turn.
    pieces = [
        placeholder(domain, SPLICE_DB.ontology.schema(domain).name_slot)
        for domain in goal.domain_names()
        if draw(st.booleans())
    ]
    pieces += [
        placeholder(domain, slot)
        for domain in goal.domain_names()
        for slot in sorted(goal.domains[domain].requests)
        if draw(likely)
    ]
    pieces += draw(st.lists(st.sampled_from(RESPONSE_PIECES), max_size=2))
    acts = draw(st.sampled_from(((), (DialogAct("hotel", "recommend", "name"),))))
    return SystemTurn(state=state, acts=acts, response=" ".join(pieces))


def _dialog(dialog_id, systems):
    turns = tuple(Turn(user=f"user {t}", system=s) for t, s in enumerate(systems))
    return Dialog(id=dialog_id, goal_id="g-s", turns=turns)


def _assert_splices_agree(goal, dialog, fragments):
    splices = SpliceEvaluator(goal, SPLICE_DB).splices(dialog)
    for t in range(len(dialog.turns)):
        for kind in SubgoalKind:
            for fragment in fragments:
                patched = replace_turn(dialog, t, kind, fragment)
                assert splices.success(t, kind, fragment) == dialog_success(
                    patched, goal, SPLICE_DB
                ), (t, kind, fragment)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_splice_evaluator_agrees_with_dialog_success(data):
    goal = data.draw(goals())
    systems = data.draw(st.lists(system_turns(goal), min_size=1, max_size=4))
    fragments = data.draw(st.lists(system_turns(goal), min_size=1, max_size=3))
    _assert_splices_agree(goal, _dialog("w", systems), fragments)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_outcomes_equal_the_reference_domain_by_domain(data):
    goal = data.draw(goals())
    dialog = _dialog("w", data.draw(st.lists(system_turns(goal), max_size=4)))
    splices = SpliceEvaluator(goal, SPLICE_DB).splices(dialog)
    assert splices.outcomes == outcomes(dialog, goal, SPLICE_DB)
    assert splices.unspliced_success == dialog_success(dialog, goal, SPLICE_DB)


HOTEL_GOAL = UserGoal(
    domains={
        "hotel": GoalEntry(
            constraints={"area": "north", "pricerange": "moderate"},
            requests=frozenset({"phone"}),
        )
    }
)
GOOD = {"hotel": {"area": "north", "pricerange": "moderate"}}
BAD = {"hotel": {"area": "south", "pricerange": "cheap"}}


def _sys(state, response):
    return SystemTurn(state=state, acts=(), response=response)


# (case, goal, winner turns, turn, kind, fragment, dialog success after the splice)
SPLICE_CASES = [
    ("no offer turn", HOTEL_GOAL,
     [_sys(GOOD, "[hotel_name]."), _sys(GOOD, "[hotel_phone].")],
     0, SubgoalKind.ACT_RESPONSE, _sys(BAD, "no."), False),
    ("offer moved earlier", HOTEL_GOAL,
     [_sys(BAD, "[hotel_name]?"), _sys(GOOD, "[hotel_name], [hotel_phone].")],
     1, SubgoalKind.ACT_RESPONSE, _sys(GOOD, "[hotel_phone]."), False),
    ("offer moved later", HOTEL_GOAL,
     [_sys(GOOD, "[hotel_name]."), _sys(BAD, "[hotel_phone].")],
     1, SubgoalKind.ACT_RESPONSE, _sys(GOOD, "[hotel_name], [hotel_phone]."), False),
    ("offer removed at the last offer turn", HOTEL_GOAL,
     [_sys(GOOD, "[hotel_name]."), _sys(GOOD, "[hotel_name], [hotel_phone].")],
     1, SubgoalKind.ACT_RESPONSE, _sys(GOOD, "[hotel_phone]."), True),
    ("state spliced at the last offer turn", HOTEL_GOAL,
     [_sys(BAD, "[hotel_name]."), _sys(GOOD, "[hotel_name], [hotel_phone].")],
     1, SubgoalKind.STATE, _sys(BAD, ""), False),
    ("state fixed but a request never answered", HOTEL_GOAL,
     [_sys(BAD, "[hotel_name].")],
     0, SubgoalKind.STATE, _sys(GOOD, ""), False),
    ("state spliced off the offer turn", HOTEL_GOAL,
     [_sys(GOOD, "[hotel_name]."), _sys(GOOD, "[hotel_phone].")],
     1, SubgoalKind.STATE, _sys(BAD, ""), True),
    ("requested placeholder only at turn t", HOTEL_GOAL,
     [_sys(GOOD, "[hotel_name]."), _sys(GOOD, "[hotel_phone].")],
     1, SubgoalKind.ACT_RESPONSE, _sys(GOOD, "goodbye."), False),
    ("non-entity-bearing domain",
     UserGoal(domains={"taxi": GoalEntry(constraints={"departure": "alpha"},
                                         requests=frozenset({"type"}))}),
     [_sys({}, "booked a [taxi_type]."), _sys({}, "bye.")],
     0, SubgoalKind.STATE, _sys(BAD, ""), True),
    ("dontcare and a non-informable slot", HOTEL_GOAL,
     [_sys(GOOD, "[hotel_name], [hotel_phone].")],
     0, SubgoalKind.STATE,
     _sys({"hotel": {"area": "North ", "pricerange": "dontcare", "stars": "9"}}, ""), True),
    ("two goal domains sharing an offer turn",
     UserGoal(domains={
         "hotel": HOTEL_GOAL.domains["hotel"],
         "train": GoalEntry(constraints={"day": "friday"}),
     }),
     [_sys({**GOOD, "train": {"day": "friday"}}, "[hotel_name] and [train_id]. [hotel_phone].")],
     0, SubgoalKind.STATE, _sys({**GOOD, "train": {"day": "sunday"}}, ""), False),
]


@pytest.mark.parametrize(
    "goal, systems, t, kind, fragment, expected",
    [case[1:] for case in SPLICE_CASES],
    ids=[case[0] for case in SPLICE_CASES],
)
def test_splice_evaluator_cases(goal, systems, t, kind, fragment, expected):
    dialog = _dialog("w", systems)
    patched = replace_turn(dialog, t, kind, fragment)
    assert dialog_success(patched, goal, SPLICE_DB) is expected
    splices = SpliceEvaluator(goal, SPLICE_DB).splices(dialog)
    assert splices.success(t, kind, fragment) is expected
    _assert_splices_agree(goal, dialog, [fragment])


def _naive_detect(group, db):
    """Every flip in detection order, from full re-evaluation of each splice."""
    failed = sorted(group.unsuccessful(), key=lambda d: d.id)
    flips = []
    for winner in sorted(group.successful(), key=lambda d: d.id):
        for t in range(len(winner.turns)):
            original = winner.turns[t].system
            for kind in (SubgoalKind.STATE, SubgoalKind.ACT_RESPONSE):
                for other in failed:
                    if t >= len(other.turns):
                        continue
                    fragment = other.turns[t].system
                    if kind is SubgoalKind.STATE:
                        same = fragment.state == original.state
                    else:
                        same = (fragment.acts, fragment.response) == (
                            original.acts, original.response)
                    patched = replace_turn(winner, t, kind, fragment)
                    if not same and not dialog_success(patched, group.goal, db):
                        flips.append((winner.id, t, kind.value, other.id))
    return flips


@st.composite
def candidate_groups(draw):
    goal = draw(goals())
    n_turns = draw(st.integers(2, 4))
    pools = [draw(st.lists(system_turns(goal), min_size=2, max_size=3)) for _ in range(n_turns)]
    candidates = []
    for i in range(draw(st.integers(3, 6))):
        # Offset by i so that even minimal draws give distinct candidates.
        systems = [pool[(i + draw(st.integers(0, 2))) % len(pool)] for pool in pools]
        if draw(st.booleans()):
            systems = systems[:-1]
        candidates.append(_dialog(f"c-{i}", systems))
    group = CandidateGroup(
        goal_id="g-s", goal=goal, candidates=tuple(candidates)
    )
    return label_success(group, SPLICE_DB)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(group=candidate_groups())
def test_detection_equals_naive_splice_loop(group):
    samples = detect_subgoals(group, SPLICE_DB)
    assert detect_flips(group, samples) == _naive_detect(group, SPLICE_DB)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(group=candidate_groups())
def test_labels_equal_dialog_success(group):
    assert group.labels == tuple(
        dialog_success(d, group.goal, SPLICE_DB) for d in group.candidates
    )


def _naive_assemble(source, samples, k):
    """``assemble_candidates`` that drops a candidate equal, turn by turn, to a kept one.

    The greedy state's list starts with its greedy turn; a sampled state's holds only samples.
    """
    choices = [(0, 0)] + [((j - 1) // k, (j - 1) % k) for j in range(1, k * k + 1)]
    dialogs = []
    for number, (a, b) in enumerate(choices):
        turns = []
        for t, turn_set in enumerate(samples):
            state_idx = 0 if number == 0 else min(1 + a, len(turn_set) - 1)
            spots = turn_set[state_idx]
            first_sample = 1 if state_idx == 0 else 0
            system = spots[0 if number == 0 else min(first_sample + b, len(spots) - 1)]
            turns.append(Turn(user=source.turns[t].user, system=system))
        suffix = "0-0" if number == 0 else f"{a + 1}-{b + 1}"
        candidate = Dialog(
            id=f"{source.id}/cand-{suffix}", goal_id=source.goal_id, turns=tuple(turns)
        )
        if all(candidate.turns != d.turns for d in dialogs):
            dialogs.append(candidate)
    return dialogs


@st.composite
def turn_sets(draw):
    """Turn sets with distinct states, and distinct system turns per state."""
    areas = draw(st.lists(st.sampled_from(("north", "south", "east")), min_size=1, unique=True))
    turn_set = []
    for area in areas:
        state = {"hotel": {"area": area}}
        pairs = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(((), (DialogAct("hotel", "inform", "area"),))),
                    st.sampled_from(("ok.", "in the [hotel_area].", "anything else?")),
                ),
                min_size=1,
                unique=True,
            )
        )
        turn_set.append(
            [SystemTurn(state=state, acts=acts, response=text) for acts, text in pairs]
        )
    return turn_set


@settings(derandomize=True, max_examples=200, deadline=None)
@given(samples=st.lists(turn_sets(), min_size=1, max_size=4), k=st.integers(1, 3))
def test_assembly_equals_naive_equality_dedup(samples, k):
    source = _dialog("src", [_sys({}, "") for _ in samples])
    assert assemble_candidates(source, samples, k) == _naive_assemble(source, samples, k)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(samples=st.lists(turn_sets(), min_size=1, max_size=4), k=st.integers(1, 3))
def test_candidates_share_the_sampled_system_turns(samples, k):
    source = _dialog("src", [_sys({}, "") for _ in samples])
    for candidate in assemble_candidates(source, samples, k):
        for turn, turn_set in zip(candidate.turns, samples, strict=True):
            assert any(turn.system is system for turns in turn_set for system in turns)
