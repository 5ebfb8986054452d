"""Per-turn sampling: dedup, greedy-first ordering, and diagnostics."""

import pytest

from subtod.errors import IncompleteSamples
from subtod.backends import ScriptedBackend
from subtod.model import DialogAct, DialogContext, contexts_of
from subtod.sampling import SamplingConfig, TurnCompletion, sample_turn
from subtod.synthetic import default_ontology

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
    return DialogContext(goal_id="g", turn_index=0, pairs=(), user="hotel in the north?")


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
    assert turn_set.states == [{"hotel": {"area": "north"}}]
    assert list(turn_set.completions) == [0]
    assert turn_set.completions[0] == [
        TurnCompletion(
            acts=(DialogAct("hotel", "inform", "area"),), response="it is in the north."
        )
    ]
    assert turn_set.has_greedy is True
    assert turn_set.diagnostics == []


def test_distinct_generations_all_survive():
    backend = FakeBackend(STATE_NORTH, [STATE_SOUTH, STATE_WEST],
                          TURN_BASE, [TURN_TAIL, TURN_ASK])
    turn_set = sample_turn(backend, _context(), SamplingConfig(k=2), ONTOLOGY)
    assert [s["hotel"]["area"] for s in turn_set.states] == ["north", "south", "west"]
    assert set(turn_set.completions) == {0, 1, 2}
    for spots in turn_set.completions.values():
        assert len(spots) == 3
        assert spots[0].response == "it is in the north."


def test_dedup_keeps_the_greedy_variant_first():
    backend = FakeBackend(STATE_NORTH, [STATE_NORTH, STATE_SOUTH],
                          TURN_BASE, [TURN_BASE, TURN_ASK])
    turn_set = sample_turn(backend, _context(), SamplingConfig(k=2), ONTOLOGY)
    assert [s["hotel"]["area"] for s in turn_set.states] == ["north", "south"]
    assert [c.response for c in turn_set.completions[0]] == [
        "it is in the north.",
        "what price range?",
    ]


def test_without_greedy_only_samples_are_drawn():
    backend = FakeBackend(STATE_NORTH, [STATE_SOUTH, STATE_WEST],
                          TURN_BASE, [TURN_TAIL, TURN_ASK])
    turn_set = sample_turn(
        backend, _context(), SamplingConfig(k=2, include_greedy=False), ONTOLOGY
    )
    assert turn_set.has_greedy is False
    assert [s["hotel"]["area"] for s in turn_set.states] == ["south", "west"]
    assert all(not greedy for _, _, greedy, _ in backend.calls)


def test_call_plan_and_distinct_stage_seeds():
    backend = FakeBackend(STATE_NORTH, [STATE_SOUTH, STATE_WEST],
                          TURN_BASE, [TURN_TAIL, TURN_ASK])
    sample_turn(backend, _context(), SamplingConfig(k=2, seed=11), ONTOLOGY)
    prompts = [c[0] for c in backend.calls]
    # One greedy + one sampled call for states, then one pair per distinct state.
    assert len(backend.calls) == 2 + 2 * 3
    assert backend.calls[0][1:3] == (1, True)
    assert backend.calls[1][1:3] == (2, False)
    assert backend.calls[0][3] != backend.calls[1][3]
    assert prompts[0] == prompts[1]
    assert len(set(prompts[2:])) == 3  # one act prompt per distinct state


def test_unparseable_generations_surface_as_diagnostics():
    backend = FakeBackend(STATE_NORTH, ["utter garbage", STATE_SOUTH],
                          TURN_BASE, ["there is no response token", TURN_ASK])
    turn_set = sample_turn(backend, _context(), SamplingConfig(k=2), ONTOLOGY)
    assert {} in turn_set.states  # garbage state degrades to empty
    notes = "\n".join(turn_set.diagnostics)
    assert "state sample 1" in notes
    assert "turn sample 1" in notes
    assert "[R]" in notes


def test_empty_backend_output_raises():
    class EmptyBackend:
        def generate(self, prompt, n, **kwargs):
            return []

    with pytest.raises(IncompleteSamples, match="no usable states"):
        sample_turn(EmptyBackend(), _context(), SamplingConfig(k=2), ONTOLOGY)


def test_scripted_world_yields_full_turn_sets(small_world):
    backend = ScriptedBackend(small_world)
    dialog = small_world.dialogs[0]
    context = contexts_of(dialog)[0]
    turn_set = sample_turn(backend, context, SamplingConfig(k=2, seed=1), small_world.ontology)
    assert len(turn_set.states) == 3
    assert turn_set.states[0] == dialog.turns[0].system.state
    for idx in range(3):
        assert len(turn_set.completions[idx]) == 3
        assert turn_set.completions[idx][0].response == dialog.turns[0].system.response
    assert turn_set.diagnostics == []


def test_sampled_turn_set_is_deterministic(small_world):
    backend = ScriptedBackend(small_world)
    context = contexts_of(small_world.dialogs[3])[1]
    cfg = SamplingConfig(k=2, seed=8)
    first = sample_turn(backend, context, cfg, small_world.ontology)
    second = sample_turn(ScriptedBackend(small_world), context, cfg, small_world.ontology)
    assert first.states == second.states
    assert first.completions == second.completions
