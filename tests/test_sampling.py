"""Per-turn sampling: dedup, greedy-first ordering, and degraded replies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    contexts_of,
    every_draw_candidates,
    generation_request,
    sampled_continuations,
    sampled_turn_set,
)
from subtod.errors import BackendError
from subtod.backends import DEFAULT_MAX_TOKENS, ErrorInjectionConfig, ScriptedBackend, stable_seed
from subtod.iteration import IterationConfig, labeled_groups
from subtod.model import Dialog, DialogAct, DialogContext, SystemTurn, Turn
from subtod.sampling import SamplingConfig, sample_dialogs, sample_turn
from subtod.subgoals import assemble_candidates
from subtod.synthetic import default_ontology
from subtod.verbalize import act_prompt_text, split_act_prompt, state_prompts

STATE_NORTH = "[B] hotel area: north;"
STATE_SOUTH = "[B] hotel area: south;"
STATE_WEST = "[B] hotel area: west;"
TURN_BASE = "[A] hotel inform AREA; [R] it is in the north."
TURN_TAIL = "[A] hotel inform AREA; [R] it is in the north. anything else?"
TURN_ASK = "[A] hotel request PRICERANGE; [R] what price range?"

ONTOLOGY = default_ontology()


class FakeBackend:
    def __init__(self, greedy_state, sampled_states, greedy_turn, sampled_turns):
        self.greedy_state = greedy_state
        self.sampled_states = sampled_states
        self.greedy_turn = greedy_turn
        self.sampled_turns = sampled_turns
        self.calls = []

    def generate(self, prompt, n, *, greedy, temperature=1.0, seed=0, max_tokens=256):
        self.calls.append((prompt, n, greedy, seed))
        turn_stage = " [B]" in prompt or prompt.endswith("[B]")
        if greedy:
            return [self.greedy_turn if turn_stage else self.greedy_state] * n
        pool = self.sampled_turns if turn_stage else self.sampled_states
        return list(pool[:n])


def _context():
    return DialogContext(goal_id="g", pairs=(), user="hotel in the north?")


def _prompts(dialogs):
    """``sample_dialogs``' input for ``dialogs``: each goal id's state prompts."""
    return {dialog.goal_id: state_prompts(dialog.turns) for dialog in dialogs}


def test_config_validates_its_knobs():
    with pytest.raises(ValueError, match="k must be at least 1"):
        SamplingConfig(k=0)
    with pytest.raises(ValueError, match="temperature must be positive"):
        SamplingConfig(temperature=0.0)
    assert SamplingConfig().k == 2


def test_identical_generations_collapse_to_singletons():
    backend = FakeBackend(STATE_NORTH, [STATE_NORTH, STATE_NORTH],
                          TURN_BASE, [TURN_BASE, TURN_BASE])
    turn_set = sample_turn(backend, _context(), SamplingConfig(k=2), ONTOLOGY)
    assert [turns[0].state for turns in turn_set] == [{"hotel": {"area": "north"}}]
    assert turn_set[0] == [
        SystemTurn(
            state={"hotel": {"area": "north"}},
            acts=(DialogAct("hotel", "inform", "area"),),
            response="it is in the north.",
        )
    ]


def test_distinct_generations_all_survive():
    backend = FakeBackend(STATE_NORTH, [STATE_SOUTH, STATE_WEST],
                          TURN_BASE, [TURN_TAIL, TURN_ASK])
    turn_set = sample_turn(backend, _context(), SamplingConfig(k=2), ONTOLOGY)
    assert [turns[0].state["hotel"]["area"] for turns in turn_set] == ["north", "south", "west"]
    # With other states, the greedy state holds only its greedy turn and each sampled state only
    # its samples: no candidate reads more.
    assert [[turn.response for turn in turns] for turns in turn_set] == [
        ["it is in the north."],
        ["it is in the north. anything else?", "what price range?"],
        ["it is in the north. anything else?", "what price range?"],
    ]
    assert all(turn.state == turns[0].state for turns in turn_set for turn in turns)


def test_a_sample_equal_to_the_greedy_continuation_fills_a_sampled_states_slot():
    backend = FakeBackend(STATE_NORTH, [STATE_SOUTH, STATE_WEST],
                          TURN_BASE, [TURN_BASE, TURN_ASK])
    turn_set = sample_turn(backend, _context(), SamplingConfig(k=2), ONTOLOGY)
    assert [[turn.response for turn in turns] for turns in turn_set] == [
        ["it is in the north."],
        ["it is in the north.", "what price range?"],
        ["it is in the north.", "what price range?"],
    ]
    # No greedy act/response request goes to a sampled state.
    greedy_act_prompts = [prompt for prompt, _, greedy, _ in backend.calls[2:] if greedy]
    state_prompt = state_prompts([_context()])[0]
    assert greedy_act_prompts == [act_prompt_text(state_prompt, {"hotel": {"area": "north"}})]
    # Both samples fill a candidate's slot.
    source = Dialog(id="d", goal_id="g", turns=(Turn(user=_context().user, system=turn_set[0][0]),))
    candidates = assemble_candidates(source, [turn_set], 2)
    assert [(c.id, c.turns[0].system) for c in candidates] == [
        ("d/cand-0-0", turn_set[0][0]),
        ("d/cand-1-1", turn_set[1][0]),
        ("d/cand-1-2", turn_set[1][1]),
        ("d/cand-2-1", turn_set[2][0]),
        ("d/cand-2-2", turn_set[2][1]),
    ]


def test_dedup_keeps_the_greedy_variant_first():
    backend = FakeBackend(STATE_NORTH, [STATE_NORTH, STATE_SOUTH],
                          TURN_BASE, [TURN_BASE, TURN_ASK])
    turn_set = sample_turn(backend, _context(), SamplingConfig(k=2), ONTOLOGY)
    assert [turns[0].state["hotel"]["area"] for turns in turn_set] == ["north", "south"]
    # A prompt with one state: its greedy state gets the k samples too.
    backend = FakeBackend(STATE_NORTH, [STATE_NORTH, STATE_NORTH],
                          TURN_BASE, [TURN_BASE, TURN_ASK])
    turn_set = sample_turn(backend, _context(), SamplingConfig(k=2), ONTOLOGY)
    assert [turn.response for turn in turn_set[0]] == [
        "it is in the north.",
        "what price range?",
    ]


def test_call_plan_and_distinct_stage_seeds():
    backend = FakeBackend(STATE_NORTH, [STATE_SOUTH, STATE_WEST],
                          TURN_BASE, [TURN_TAIL, TURN_ASK])
    sample_turn(backend, _context(), SamplingConfig(k=2, seed=11), ONTOLOGY)
    prompts = [c[0] for c in backend.calls]
    # One greedy + one sampled call for states, then one call per distinct state: the greedy
    # state's greedy call and each sampled state's sampled call, the only ones candidates read.
    assert len(backend.calls) == 2 + 3
    assert backend.calls[0][1:3] == (1, True)
    assert backend.calls[1][1:3] == (2, False)
    assert backend.calls[0][3] != backend.calls[1][3]
    assert prompts[0] == prompts[1]
    assert len(set(prompts[2:])) == 3  # one act prompt per distinct state
    assert [call[1:3] for call in backend.calls[2:]] == [(1, True), (2, False), (2, False)]


def test_unparseable_generations_degrade_to_empty_state_and_bare_response():
    backend = FakeBackend(STATE_NORTH, ["utter garbage", STATE_SOUTH],
                          TURN_BASE, ["there is no response token", TURN_ASK])
    turn_set = sample_turn(backend, _context(), SamplingConfig(k=2), ONTOLOGY)
    assert {} in [turns[0].state for turns in turn_set]  # garbage state degrades to empty
    assert [turn.response for turn in turn_set[0]] == ["it is in the north."]
    # A reply without [R] becomes a turn with no acts and the whole text as its response.
    for turns in turn_set[1:]:
        bare = [turn for turn in turns if turn.response == "there is no response token"]
        assert [turn.acts for turn in bare] == [()]


def test_empty_backend_output_raises():
    class EmptyBackend:
        def generate(self, prompt, n, **kwargs):
            return []

    with pytest.raises(BackendError, match="no usable states"):
        sample_turn(EmptyBackend(), _context(), SamplingConfig(k=2), ONTOLOGY)


def test_scripted_world_yields_full_turn_sets(small_world):
    backend = ScriptedBackend(small_world)
    dialog = small_world.dialogs[0]
    context = contexts_of(dialog)[0]
    turn_set = sample_turn(backend, context, SamplingConfig(k=2, seed=1), small_world.ontology)
    assert len(turn_set) == 3
    assert turn_set[0] == [dialog.turns[0].system]
    # Each sampled state holds its two samples, which extend the gold response.
    gold = dialog.turns[0].system.response
    assert [len(turns) for turns in turn_set] == [1, 2, 2]
    for turns in turn_set[1:]:
        assert all(turn.response.startswith(f"{gold} ") for turn in turns)


def test_sampled_turn_set_is_deterministic(small_world):
    backend = ScriptedBackend(small_world)
    context = contexts_of(small_world.dialogs[3])[1]
    cfg = SamplingConfig(k=2, seed=8)
    first = sample_turn(backend, context, cfg, small_world.ontology)
    second = sample_turn(ScriptedBackend(small_world), context, cfg, small_world.ontology)
    assert first == second


class RefusingBackend:
    """Answers like ``backend``, but each request in ``refused`` fails with its own error."""

    def __init__(self, backend, refused=()):
        self.backend = backend
        self.refused = {request: i for i, request in enumerate(refused)}
        self.calls = []

    def generate(self, prompt, n, *, greedy, temperature=1.0, seed=0, max_tokens=256):
        request = (prompt, n, greedy, temperature, seed, max_tokens)
        self.calls.append(request)
        if request in self.refused:
            raise BackendError(f"refused request {self.refused[request]}")
        return self.backend.generate(
            prompt, n, greedy=greedy, temperature=temperature, seed=seed, max_tokens=max_tokens
        )


@pytest.mark.parametrize("greedy_only", [False, True], ids=["k-sample", "greedy-only"])
def test_every_request_carries_the_stable_seed_of_its_prompt_and_tag(small_world, greedy_only):
    cfg = SamplingConfig(k=3, seed=5)
    recorder = RefusingBackend(ScriptedBackend(small_world, ErrorInjectionConfig(rate=0.5), seed=3))
    prompts = _prompts(small_world.dialogs)
    results = sample_dialogs(recorder, prompts, cfg, small_world.ontology, greedy_only=greedy_only)
    assert list(results) == list(prompts)
    tags = {}
    for prompt, n, greedy, temperature, seed, max_tokens in recorder.calls:
        stage = "turn" if split_act_prompt(prompt)[1] else "state"
        tag = f"greedy-{stage}" if greedy else stage
        tags[tag] = tags.get(tag, 0) + 1
        assert (n, temperature, max_tokens) == (1 if greedy else 3, 1.0, DEFAULT_MAX_TOKENS)
        assert seed == stable_seed(5, prompt, tag), (prompt, tag)
    if greedy_only:
        assert set(tags) == {"greedy-state", "greedy-turn"}
    else:
        # Each draw of a prompt has its own request. A prompt's greedy state gets the one greedy
        # act/response request, and prompts have several states, whose sampled ones get a
        # k-sample act/response request each.
        assert set(tags) == {"greedy-state", "state", "greedy-turn", "turn"}
        assert tags["state"] == tags["greedy-state"] == tags["greedy-turn"] < tags["turn"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_candidates_equal_those_of_sampling_every_draw(small_world, k):
    cfg = SamplingConfig(k=k, seed=5)
    backend = ScriptedBackend(small_world, ErrorInjectionConfig(rate=0.5), seed=3)
    results = sample_dialogs(backend, _prompts(small_world.dialogs), cfg, small_world.ontology)
    several_states = False
    for dialog in small_world.dialogs:
        reference = []
        for prompt in state_prompts(dialog.turns):
            turn_set = sampled_turn_set(backend, prompt, cfg, small_world.ontology)
            # Sampling sends a sampled state no greedy act/response request. The candidates
            # stay equal because the scripted backend never samples that greedy continuation.
            for turns in turn_set[1:]:
                greedy, samples = sampled_continuations(
                    backend, prompt, turns[0].state, cfg, small_world.ontology
                )
                assert greedy not in samples
            several_states |= len(turn_set) > 1
            reference.append(turn_set)
        assert assemble_candidates(dialog, results[dialog.goal_id], k) == every_draw_candidates(
            dialog, reference, k
        )
    assert several_states


def test_no_request_is_sent_that_no_candidate_reads(small_world):
    cfg = SamplingConfig(k=3, seed=5)
    scripted = ScriptedBackend(small_world, ErrorInjectionConfig(rate=0.5), seed=3)
    recorder = RefusingBackend(scripted)
    prompts = _prompts(small_world.dialogs)
    sample_dialogs(recorder, prompts, cfg, small_world.ontology)
    turn_calls = {}
    for request in recorder.calls:
        prompt, is_turn = split_act_prompt(request[0])
        if is_turn:
            turn_calls.setdefault(prompt, []).append(request)
    assert set(turn_calls) == {prompt for ps in prompts.values() for prompt in ps}
    several_states = False
    for prompt, calls in turn_calls.items():
        turn_set = sampled_turn_set(scripted, prompt, cfg, small_world.ontology)
        states = [turns[0].state for turns in turn_set]
        if len(states) == 1:
            assert [call[2] for call in calls] == [True, False], prompt
            continue
        several_states = True
        # The greedy state gets only its greedy request and each sampled state only its
        # k-sample one.
        assert sorted((call[0], call[2]) for call in calls) == sorted(
            (act_prompt_text(prompt, state), i == 0) for i, state in enumerate(states)
        ), prompt
    assert several_states


def test_a_goal_runs_when_only_a_request_no_candidate_reads_would_fail(small_world):
    cfg = IterationConfig(k=2, goal_fraction=1.0, seed=3)
    sampling = cfg.sampling()
    scripted = ScriptedBackend(small_world, ErrorInjectionConfig(rate=0.5), seed=3)
    dialogs = small_world.dialog_map()
    # The first goal with a prompt of several states, and that prompt's act/response requests
    # that no candidate reads: its greedy state's k-sample one and each sampled state's greedy one.
    goal_id, unread = next(
        (goal_id, [
            generation_request(act_prompt_text(prompt, turns[0].state), "turn", sampling,
                               greedy=i > 0)
            for i, turns in enumerate(turn_set)
        ])
        for goal_id in sorted(small_world.goals)
        for prompt in state_prompts(dialogs[goal_id].turns)
        for turn_set in [sampled_turn_set(scripted, prompt, sampling, small_world.ontology)]
        if len(turn_set) > 1
    )

    def run(backend):
        skipped = []
        groups = {}
        for goal_id, group in labeled_groups(small_world, cfg, backend, skipped):
            groups.setdefault(goal_id, group)
        return groups, skipped

    clean, _ = run(scripted)
    groups, skipped = run(RefusingBackend(scripted, unread))
    assert goal_id not in dict(skipped)
    assert groups == clean


BLOCK_CFG = SamplingConfig(k=2, seed=3)


@pytest.fixture(scope="module")
def block_world(small_world):
    """``small_world``, a noisy backend for it, and every request its dialogs' sampling makes."""
    scripted = ScriptedBackend(small_world, ErrorInjectionConfig(rate=0.5), seed=3)
    recorder = RefusingBackend(scripted)
    dialogs = small_world.dialogs
    sample_dialogs(recorder, _prompts(dialogs), BLOCK_CFG, small_world.ontology)
    return small_world, scripted, dialogs, sorted(set(recorder.calls))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_block_sampling_equals_sampling_one_request_at_a_time(block_world, data):
    world, scripted, dialogs, requests = block_world
    refused = data.draw(st.lists(st.sampled_from(requests), max_size=6, unique=True))
    backend = RefusingBackend(scripted, refused)
    block = sample_dialogs(backend, _prompts(dialogs), BLOCK_CFG, world.ontology)
    # One call per distinct request, however many dialogs share it.
    assert len(backend.calls) == len(set(backend.calls))
    assert list(block) == [dialog.goal_id for dialog in dialogs]
    for dialog in dialogs:
        result = block[dialog.goal_id]
        try:
            expected = [
                sample_turn(backend, c, BLOCK_CFG, world.ontology) for c in contexts_of(dialog)
            ]
        except BackendError as exc:
            assert (type(result), str(result)) == (type(exc), str(exc))
        else:
            assert result == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_blocks_that_share_a_memo_equal_sampling_one_request_at_a_time(block_world, data):
    world, scripted, dialogs, requests = block_world
    refused = data.draw(st.lists(st.sampled_from(requests), max_size=6, unique=True))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(dialogs)), min_size=1, max_size=3)))
    backend = RefusingBackend(scripted, refused)
    known = {}
    results = {}
    for start, end in zip([0, *cuts], [*cuts, len(dialogs)]):
        sent = len(backend.calls)
        block = _prompts(dialogs[start:end])
        block_results = sample_dialogs(backend, block, BLOCK_CFG, world.ontology, known=known)
        assert list(block_results) == list(block)
        results.update(block_results)
        # One call per distinct request of the block; a failed one is sent again later.
        block_calls = backend.calls[sent:]
        assert len(block_calls) == len(set(block_calls))
    assert list(results) == [dialog.goal_id for dialog in dialogs]
    for dialog in dialogs:
        result = results[dialog.goal_id]
        try:
            expected = [
                sample_turn(backend, c, BLOCK_CFG, world.ontology) for c in contexts_of(dialog)
            ]
        except BackendError as exc:
            assert (type(result), str(result)) == (type(exc), str(exc))
        else:
            assert result == expected
