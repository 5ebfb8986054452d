"""Scripted backend behavior, error injection, and the HTTP client."""

import base64
import dataclasses
import json
import socket
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subtod.backends import (
    MAX_REPLY_BYTES,
    ErrorInjectionConfig,
    ErrorKind,
    HttpBackend,
    ScriptedBackend,
    _BadReply,
    _OversizedReply,
    _parse_reply,
    stable_seed,
)
from subtod.cli import main
from subtod.corpus import save_corpus
from subtod.errors import BackendError
from subtod.iteration import IterationConfig, build_group, map_goals, run_iteration
from subtod.model import contexts_of, normalize_value, placeholder
from subtod.sampling import SamplingConfig, answer_wave, generation_request, sample_turn
from subtod.synthetic import default_ontology
from subtod.verbalize import (
    act_prompt_text,
    parse_act_response,
    parse_state,
    serialize_state_prompt,
    state_prompts,
)

# The vocabulary of the synthetic worlds' ontology, which the parses below read.
DOMAINS = frozenset(default_ontology().domains)
VERBS = default_ontology().act_verbs()


_REQUEST_FIELDS = ("prompt", "n", "greedy", "temperature", "seed", "max_tokens")


def _norm_state(state):
    return {d: {s: normalize_value(v) for s, v in slots.items()} for d, slots in state.items()}


def _state_prompt(dialog, t):
    return serialize_state_prompt(contexts_of(dialog)[t])


def _act_prompt(dialog, t, state=None):
    state = dialog.turns[t].system.state if state is None else state
    return act_prompt_text(_state_prompt(dialog, t), state)


def _requested_in(goal, response):
    return [
        placeholder(domain, slot)
        for domain, entry in sorted(goal.domains.items())
        for slot in sorted(entry.requests)
        if placeholder(domain, slot) in response
    ]


def _slots(state):
    return {(domain, slot) for domain, slots in state.items() for slot in slots}


def _state_error(gold, state):
    """The state error that turned ``gold`` into ``state``, told apart by the output alone."""
    if _slots(state) != _slots(gold):
        return ErrorKind.DROP_SLOT
    for domain, slots in gold.items():
        route = (slots.get("departure"), slots.get("destination"))
        if None not in route and route[0] != route[1]:
            if (state[domain]["departure"], state[domain]["destination"]) == route[::-1]:
                return ErrorKind.SWAP_DEPARTURE_DESTINATION
    return ErrorKind.WRONG_VALUE


@pytest.fixture
def closing_backends():
    """Builds ``HttpBackend``s and closes each at teardown, so no pooled socket outlives the test."""
    built = []

    def build(url, **kwargs):
        built.append(HttpBackend(url, **kwargs))
        return built[-1]

    yield build
    for backend in built:
        backend.close()


@pytest.fixture(scope="module")
def seeded_errors(small_world):
    """Every corrupted sample at noise rate 1.0, by the error its output shows.

    Each entry starts with its site, ``(dialog id, turn, stage)``. State
    errors go on with ``(gold, corrupted)`` normalized states, omissions with
    ``(goal, gold system turn, parsed turn)``. Sites come from the seed only.
    """
    backend = ScriptedBackend(small_world, ErrorInjectionConfig(rate=1.0), seed=3)
    found = {kind: [] for kind in ErrorKind}
    for dialog in small_world.dialogs:
        goal = small_world.goals[dialog.goal_id]
        for t, turn in enumerate(dialog.turns):
            system = turn.system
            gold = _norm_state(system.state)
            for text in backend.generate(_state_prompt(dialog, t), 3, greedy=False):
                state = _norm_state(parse_state(text, domains=DOMAINS).state)
                if state != gold:
                    found[_state_error(gold, state)].append(((dialog.id, t, "state"), gold, state))
            for text in backend.generate(_act_prompt(dialog, t), 3, greedy=False):
                parsed = parse_act_response(text, domains=DOMAINS, verbs=VERBS)
                if parsed.acts != system.acts or not parsed.response.startswith(system.response):
                    omissions = found[ErrorKind.OMIT_REQUESTED_SLOT_IN_RESPONSE]
                    omissions.append(((dialog.id, t, "act"), goal, system, parsed))
    return found


def test_stable_seed_is_deterministic_and_sensitive():
    assert stable_seed(0, "x") == stable_seed(0, "x")
    assert stable_seed(0, "x") != stable_seed(0, "y")
    assert stable_seed(1, "a") != stable_seed("1", "a", "")
    # Frozen so a refactor cannot silently reshuffle every seeded decision.
    assert stable_seed(0, "x") == 15838549821452497134
    assert stable_seed("a", 1, "state") == 10868619776756863047


def test_scripted_greedy_returns_the_ground_truth(small_world):
    backend = ScriptedBackend(small_world)
    dialog = small_world.dialogs[0]
    system = dialog.turns[0].system
    out = backend.generate(_state_prompt(dialog, 0), 3, greedy=True)
    assert len(out) == 3
    assert len(set(out)) == 1
    assert parse_state(out[0], domains=DOMAINS).state == system.state

    acts = backend.generate(_act_prompt(dialog, 0), 2, greedy=True)
    parsed = parse_act_response(acts[0], domains=DOMAINS, verbs=VERBS)
    assert parsed.acts == system.acts
    assert parsed.response == system.response
    assert acts[0] == acts[1]


def test_scripted_act_prompt_resolves_by_context_not_state(small_world):
    # Sampling asks for continuations of corrupted states too; the scripted
    # stand-in keys the site on the dialog context alone.
    backend = ScriptedBackend(small_world)
    dialog = small_world.dialogs[0]
    wrong_state = {"hotel": {"area": "nowhere"}}
    out = backend.generate(_act_prompt(dialog, 0, wrong_state), 1, greedy=True)
    parsed = parse_act_response(out[0], domains=DOMAINS, verbs=VERBS)
    assert parsed.response == dialog.turns[0].system.response


def test_scripted_sampled_states_vary_case_but_not_meaning(small_world):
    backend = ScriptedBackend(small_world)
    dialog = small_world.dialogs[0]
    ground = dialog.turns[0].system.state
    greedy = backend.generate(_state_prompt(dialog, 0), 1, greedy=True)[0]
    sampled = backend.generate(_state_prompt(dialog, 0), 2, greedy=False)
    assert len(sampled) == 2
    assert sampled[0] != sampled[1]
    for text in sampled:
        assert text != greedy
        assert _norm_state(parse_state(text, domains=DOMAINS).state) == _norm_state(ground)


def test_scripted_sampled_responses_add_neutral_tails(small_world):
    backend = ScriptedBackend(small_world)
    dialog = small_world.dialogs[0]
    system = dialog.turns[0].system
    sampled = backend.generate(_act_prompt(dialog, 0), 6, greedy=False)
    assert len(set(sampled)) == 6
    for text in sampled:
        parsed = parse_act_response(text, domains=DOMAINS, verbs=VERBS)
        assert parsed.acts == system.acts
        assert parsed.response.startswith(system.response)


def test_scripted_is_deterministic_and_ignores_the_call_seed(small_world):
    a = ScriptedBackend(small_world, seed=4)
    b = ScriptedBackend(small_world, seed=4)
    dialog = small_world.dialogs[1]
    prompt = _state_prompt(dialog, 0)
    assert a.generate(prompt, 3, greedy=False) == b.generate(prompt, 3, greedy=False)
    assert a.generate(prompt, 3, greedy=False, seed=7) == a.generate(
        prompt, 3, greedy=False, seed=123
    )


def test_scripted_rejects_prompts_outside_its_world(small_world):
    backend = ScriptedBackend(small_world)
    with pytest.raises(BackendError, match="known dialog context"):
        backend.generate("[C] [U] a prompt from nowhere", 1, greedy=True)


def test_scripted_refuses_conflicting_gold_for_a_shared_context(small_world, tmp_path, capsys):
    dialog = small_world.dialogs[0]
    goal = small_world.goals[dialog.goal_id]
    twin = dataclasses.replace(dialog, id="twin", goal_id="twin")
    world = dataclasses.replace(
        small_world, dialogs=(dialog, twin), goals={dialog.goal_id: goal, "twin": goal}
    )
    twin_greedy = ScriptedBackend(world).generate(_act_prompt(twin, 1), 1, greedy=True)
    gold = ScriptedBackend(small_world).generate(_act_prompt(dialog, 1), 1, greedy=True)
    assert twin_greedy == gold

    # Turn 1's context (turn 0 and the user's turn 1) is shared; its gold is not.
    turn = twin.turns[1]
    changed = dataclasses.replace(
        turn, system=dataclasses.replace(turn.system, response="a different answer.")
    )
    clash = dataclasses.replace(twin, turns=(twin.turns[0], changed, *twin.turns[2:]))
    world = dataclasses.replace(world, dialogs=(dialog, clash))
    with pytest.raises(ValueError, match=r"'twin' \(turn 1\) share a context"):
        ScriptedBackend(world)
    path = tmp_path / "corpus.json"
    save_corpus(world, path)
    assert main(["iterate", "--corpus", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "share a context but not its gold system turn" in capsys.readouterr().err


def test_planted_wrong_value_hits_one_sample(seeded_errors):
    sites = [entry[0] for entries in seeded_errors.values() for entry in entries]
    assert len(sites) == len(set(sites))  # one corrupted sample per site
    assert len(seeded_errors[ErrorKind.WRONG_VALUE]) >= 5
    for _, gold, state in seeded_errors[ErrorKind.WRONG_VALUE]:
        changed = [(d, s) for d, s in _slots(gold) if state[d][s] != gold[d][s]]
        assert len(changed) == 1
        domain, slot = changed[0]
        assert state[domain][slot] != "dontcare"


def test_planted_drop_slot_removes_it(seeded_errors):
    assert len(seeded_errors[ErrorKind.DROP_SLOT]) >= 5
    for _, gold, state in seeded_errors[ErrorKind.DROP_SLOT]:
        assert len(_slots(gold) - _slots(state)) == 1
        assert _slots(state) < _slots(gold)
        assert all(state[d][s] == gold[d][s] for d, s in _slots(state))


def test_planted_swap_reverses_the_route(seeded_errors):
    assert len(seeded_errors[ErrorKind.SWAP_DEPARTURE_DESTINATION]) >= 5
    for _, gold, state in seeded_errors[ErrorKind.SWAP_DEPARTURE_DESTINATION]:
        changed = [d for d in gold if state[d] != gold[d]]
        assert len(changed) == 1
        slots = gold[changed[0]]
        route = {"departure": slots["destination"], "destination": slots["departure"]}
        assert state[changed[0]] == {**slots, **route}


def test_planted_omission_strips_a_requested_slot(seeded_errors):
    assert len(seeded_errors[ErrorKind.OMIT_REQUESTED_SLOT_IN_RESPONSE]) >= 5
    for _, goal, system, parsed in seeded_errors[ErrorKind.OMIT_REQUESTED_SLOT_IN_RESPONSE]:
        before = _requested_in(goal, system.response)
        missing = [tok for tok in before if tok not in parsed.response]
        assert len(missing) == 1
        domain, _, slot = missing[0][1:-1].partition("_")
        assert set(parsed.acts) <= set(system.acts)
        assert {(a.domain, a.slot) for a in set(system.acts) - set(parsed.acts)} == {(domain, slot)}


def test_noise_rate_one_corrupts_exactly_one_sample_per_state_site(small_world):
    backend = ScriptedBackend(small_world, ErrorInjectionConfig(rate=1.0), seed=3)
    checked = 0
    for dialog in small_world.dialogs[:4]:
        for t, turn in enumerate(dialog.turns):
            if not turn.system.state:
                continue
            sampled = backend.generate(_state_prompt(dialog, t), 2, greedy=False)
            ground = _norm_state(turn.system.state)
            states = [parse_state(s, domains=DOMAINS).state for s in sampled]
            bad = [state for state in states if _norm_state(state) != ground]
            assert len(bad) == 1
            checked += 1
    assert checked >= 8


def test_noise_is_stable_across_repeated_calls(small_world):
    backend = ScriptedBackend(small_world, ErrorInjectionConfig(rate=0.7), seed=9)
    dialog = small_world.dialogs[2]
    prompt = _act_prompt(dialog, 0)
    first = backend.generate(prompt, 2, greedy=False)
    again = ScriptedBackend(
        small_world, ErrorInjectionConfig(rate=0.7), seed=9
    ).generate(prompt, 2, greedy=False)
    assert first == again


def test_http_backend_round_trip(completion_server):
    backend = HttpBackend(completion_server.url)
    out = backend.generate("hello prompt", 3, greedy=False, temperature=0.9, seed=5)
    assert out == ["stub", "stub", "stub"]
    payload = completion_server.payloads[-1]
    assert payload == {
        "prompt": "hello prompt",
        "n": 3,
        "greedy": False,
        "temperature": 0.9,
        "seed": 5,
        "max_tokens": 256,
    }


def test_http_backend_matches_the_scripted_backend(completion_server, small_world):
    scripted = ScriptedBackend(small_world, seed=2)
    completion_server.serve_backend(scripted)
    remote = HttpBackend(completion_server.url)
    local = ScriptedBackend(small_world, seed=2)
    for dialog in small_world.dialogs[:3]:
        for build in (_state_prompt, _act_prompt):
            prompt = build(dialog, 0)
            assert remote.generate(prompt, 1, greedy=True) == local.generate(
                prompt, 1, greedy=True
            )
            assert remote.generate(prompt, 2, greedy=False) == local.generate(
                prompt, 2, greedy=False
            )


def test_http_backend_rejects_wrong_completion_counts(completion_server):
    completion_server.respond_with(lambda payload: (200, {"completions": ["only one"]}))
    backend = HttpBackend(completion_server.url)
    with pytest.raises(BackendError, match="2 string completions"):
        backend.generate("p", 2, greedy=False)
    assert len(completion_server.payloads) == 1


def test_http_backend_rejects_malformed_json(completion_server):
    completion_server.respond_with(lambda payload: (200, b"not json {{{"))
    backend = HttpBackend(completion_server.url)
    with pytest.raises(BackendError, match="malformed JSON"):
        backend.generate("p", 1, greedy=True)


def test_http_backend_retries_transient_errors(completion_server):
    failures = []

    def flaky(payload):
        if len(failures) < 2:
            failures.append(payload)
            return 503, {"error": "busy"}
        return 200, {"completions": ["ok"]}

    completion_server.respond_with(flaky)
    backend = HttpBackend(completion_server.url, backoff=0.01)
    assert backend.generate("p", 1, greedy=True) == ["ok"]
    assert len(completion_server.payloads) == 3


def test_http_backend_gives_up_after_max_retries(completion_server):
    completion_server.respond_with(lambda payload: (503, {"error": "down"}))
    backend = HttpBackend(completion_server.url, max_retries=2, backoff=0.01)
    with pytest.raises(BackendError, match="after 3 attempts") as info:
        backend.generate("p", 1, greedy=True)
    assert info.value.attempts == 3
    assert len(completion_server.payloads) == 3


def test_http_backend_waits_out_a_numeric_retry_after_up_to_the_timeout(
    completion_server, monkeypatch
):
    slept = []
    monkeypatch.setattr("subtod.backends.time.sleep", slept.append)
    replies = iter([
        (503, {}, {"retry-after": "2"}),
        (429, {}, {"retry-after": "100"}),
        (503, {}, {"retry-after": "Wed, 21 Oct 2015 07:28:00 GMT"}),
        (500, {}, {"retry-after": "9"}),
        (200, {"completions": ["ok"]}),
    ])
    completion_server.respond_with(lambda payload: next(replies))
    backend = HttpBackend(completion_server.url, timeout=5.0, max_retries=4, backoff=0.5)
    assert backend.generate("p", 1, greedy=True) == ["ok"]
    # Each wait is the larger of the backoff (0.5, 1, 2, 4) and a numeric
    # Retry-After of a 429 or 503, and at most the timeout.
    assert slept == [2.0, 5.0, 2.0, 4.0]


def test_a_reply_later_than_the_timeout_is_retried_then_fails(completion_server, monkeypatch):
    monkeypatch.setattr("subtod.backends.time.sleep", lambda seconds: None)
    answered = threading.Event()

    def late(payload):
        answered.wait(5)  # released at the end, so no server thread outlives the test
        return 200, {"completions": ["late"]}

    completion_server.respond_with(late)
    backend = HttpBackend(completion_server.url, timeout=0.2, max_retries=1)
    try:
        start = time.monotonic()
        with pytest.raises(BackendError, match="after 2 attempts: .*timed out") as info:
            backend.generate("p", 1, greedy=True)
        assert time.monotonic() - start < 3
        assert info.value.attempts == 2
        assert len(completion_server.payloads) == 2
    finally:
        answered.set()
        backend.close()


def test_http_backend_fails_fast_on_client_errors(completion_server):
    completion_server.respond_with(lambda payload: (404, {"error": "no route"}))
    backend = HttpBackend(completion_server.url, max_retries=5)
    with pytest.raises(BackendError, match="http 404"):
        backend.generate("p", 1, greedy=True)
    assert len(completion_server.payloads) == 1


def _held(answer, hold_s=0.05):
    """A responder that answers like ``answer`` after ``hold_s``; tracks peak concurrency."""
    lock = threading.Lock()
    seen = {"now": 0, "peak": 0}

    def responder(payload):
        with lock:
            seen["now"] += 1
            seen["peak"] = max(seen["peak"], seen["now"])
        try:
            time.sleep(hold_s)
            return answer(payload)
        finally:
            with lock:
                seen["now"] -= 1

    return responder, seen


def _scripted_answer(backend):
    def answer(payload):
        return 200, {"completions": backend.generate(
            payload["prompt"], payload["n"], greedy=payload["greedy"]
        )}

    return answer


def test_sample_turn_overlaps_requests_within_max_in_flight(completion_server, small_world):
    scripted = ScriptedBackend(small_world, seed=2)
    responder, seen = _held(_scripted_answer(scripted))
    completion_server.respond_with(responder)
    remote = HttpBackend(completion_server.url, max_in_flight=3)
    calls = []
    generate = remote.generate
    remote.generate = lambda *args, **kwargs: calls.append(args) or generate(*args, **kwargs)
    cfg = SamplingConfig(k=2, seed=4)
    contexts = [contexts_of(dialog)[1] for dialog in small_world.dialogs[:2]]
    results = [None] * len(contexts)

    def run(i):
        results[i] = sample_turn(remote, contexts[i], cfg, small_world.ontology)

    # Two threads share the client, as library callers may.
    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(contexts))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)

    assert results == [
        sample_turn(scripted, context, cfg, small_world.ontology) for context in contexts
    ]
    assert any(len(result) > 1 for result in results)
    # Sequential calls would peak at 2, one per thread; the waves fill max_in_flight.
    assert seen["peak"] == 3
    assert len(completion_server.payloads) == len(calls)


def test_connection_pool_holds_every_in_flight_post(keep_alive_server):
    # Every request of a wave waits until all 16 are in flight.
    barrier = threading.Barrier(16, timeout=10)

    def responder(payload):
        barrier.wait()
        return 200, {"completions": ["stub"]}

    keep_alive_server.respond_with(responder)
    backend = HttpBackend(keep_alive_server.url, max_in_flight=16)
    wave = [(f"prompt {i}", 1, True, 1.0, i, 256) for i in range(16)]
    # Frequent thread switches, so a lost update to the idle pool would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert answer_wave(backend, wave) == {request: ["stub"] for request in wave}
        assert keep_alive_server.connections == 16
        # The second wave runs on the first wave's connections.
        assert answer_wave(backend, wave) == {request: ["stub"] for request in wave}
        assert keep_alive_server.connections == 16
    finally:
        sys.setswitchinterval(interval)
        backend.close()
    assert len(keep_alive_server.payloads) == 32


def test_threads_sharing_a_client_keep_its_pool_within_max_in_flight(keep_alive_server):
    responder, seen = _held(lambda payload: (200, {"completions": [payload["prompt"]]}), 0.002)
    keep_alive_server.respond_with(responder)
    backend = HttpBackend(keep_alive_server.url, max_in_flight=6)
    waves = [[(f"thread {t} prompt {i}", 1, True, 1.0, i, 256) for i in range(40)] for t in range(4)]
    answers = [None] * len(waves)

    def run(t):
        answers[t] = answer_wave(backend, waves[t])

    # More calling threads than cores, and frequent thread switches, so a lost
    # update to the shared pool would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=run, args=(t,)) for t in range(len(waves))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        backend.close()
    assert answers == [{request: [request[0]] for request in wave} for wave in waves]
    assert seen["peak"] <= 6
    assert keep_alive_server.connections <= 6
    # Every connection came back: once late dials end, none is counted open.
    deadline = time.monotonic() + 10
    while backend._open and time.monotonic() < deadline:
        time.sleep(0.01)
    assert backend._open == 0


def test_a_connection_the_server_closed_is_replaced_without_a_retry(
    keep_alive_server, monkeypatch
):
    def no_sleep(seconds):
        raise AssertionError("a closed idle connection must not cost a retry")

    monkeypatch.setattr("subtod.backends.time.sleep", no_sleep)
    keep_alive_server.drop_after_reply()
    backend = HttpBackend(keep_alive_server.url, max_retries=0)
    try:
        for i in range(3):
            assert backend.generate(f"prompt {i}", 1, greedy=True) == ["stub"]
            # The pooled connection is now closed at the server's end.
            keep_alive_server.wait_closed(i + 1)
    finally:
        backend.close()
    assert len(keep_alive_server.payloads) == 3
    assert keep_alive_server.connections == 3


class _HeldDial:
    """Wraps a backend's ``_connect``: its first connection's ``connect()`` awaits ``released``."""

    def __init__(self, backend):
        self.connections = []
        self.dialing = threading.Event()
        self.released = threading.Event()
        self._lock = threading.Lock()
        self._connect = backend._connect
        backend._connect = self.connect

    def connect(self):
        conn = self._connect()
        with self._lock:
            self.connections.append(conn)
            first = len(self.connections) == 1
        if first:
            dial = conn.connect

            def held():
                self.dialing.set()
                self.released.wait(30)
                dial()

            conn.connect = held
        return conn

    @property
    def held(self):
        return self.connections[0]


def _wave_with_a_held_dial(server, backend, size=64):
    """Answer a wave of ``size`` while the backend's first dial is held; it must finish."""
    dial = _HeldDial(backend)
    wave = [(f"prompt {i}", 1, True, 1.0, i, 256) for i in range(size)]
    answers = {}
    thread = threading.Thread(target=lambda: answers.update(answer_wave(backend, wave)))
    thread.start()
    try:
        assert dial.dialing.wait(10)
        thread.join(timeout=10)
        assert not thread.is_alive(), "the wave waited for the held dial"
    except BaseException:
        dial.released.set()
        thread.join(timeout=10)
        raise
    assert answers == {request: ["stub"] for request in wave}
    assert len(server.payloads) == size
    return dial


def test_a_wave_runs_on_other_connections_while_one_dial_is_held(keep_alive_server):
    backend = HttpBackend(keep_alive_server.url, max_in_flight=8)
    dial = _wave_with_a_held_dial(keep_alive_server, backend)
    try:
        # The held connection never opened: every POST ran on the others.
        assert dial.held.sock is None
        assert 1 < len(dial.connections) <= 8
    finally:
        dial.released.set()
        backend.close()


def test_a_held_dial_joins_the_pool_and_the_pool_stays_bounded(keep_alive_server):
    backend = HttpBackend(keep_alive_server.url, max_in_flight=8)
    dial = _wave_with_a_held_dial(keep_alive_server, backend)
    try:
        dial.released.set()
        deadline = time.monotonic() + 10
        while dial.held not in backend._idle and time.monotonic() < deadline:
            time.sleep(0.01)
        assert dial.held in backend._idle
        # A second wave reuses the pool. No connection closed, so the dials
        # counted are every connection the backend ever held.
        dialed = len(dial.connections)
        wave = [(f"again {i}", 1, True, 1.0, i, 256) for i in range(64)]
        assert answer_wave(backend, wave) == {request: ["stub"] for request in wave}
        assert len(dial.connections) == dialed <= 8
        assert keep_alive_server.connections <= 8
    finally:
        dial.released.set()
        backend.close()


def test_close_does_not_wait_for_a_held_dial_and_closes_it_later(keep_alive_server):
    backend = HttpBackend(keep_alive_server.url, max_in_flight=8)
    dial = _wave_with_a_held_dial(keep_alive_server, backend)
    closer = threading.Thread(target=backend.close)
    closer.start()
    closer.join(timeout=5)
    try:
        assert not closer.is_alive(), "close() waited for the held dial"
        served = len(dial.connections) - 1
        dial.released.set()
        # The late connection reaches the server and is closed, not pooled.
        keep_alive_server.wait_closed(served + 1)
        assert dial.held.sock is None
        assert backend._idle == []
    finally:
        dial.released.set()
        closer.join(timeout=10)


def test_a_closed_backend_fails_its_posts_at_once_and_dials_nothing(keep_alive_server):
    backend = HttpBackend(keep_alive_server.url, max_in_flight=1)
    assert backend.generate("before", 1, greedy=True) == ["stub"]
    backend.close()
    start = time.monotonic()
    with pytest.raises(BackendError, match=f"backend {keep_alive_server.url} is closed") as info:
        backend.generate("after", 1, greedy=True)
    assert time.monotonic() - start < 3
    assert info.value.prompt == "after"
    assert keep_alive_server.connections == 1
    assert len(keep_alive_server.payloads) == 1


def test_closing_a_backend_fails_a_wave_that_waits_on_a_dial(keep_alive_server):
    backend = HttpBackend(keep_alive_server.url, max_in_flight=1)
    dial = _HeldDial(backend)
    wave = [(f"prompt {i}", 1, True, 1.0, i, 256) for i in range(3)]
    answers = {}
    thread = threading.Thread(target=lambda: answers.update(answer_wave(backend, wave)))
    thread.start()
    try:
        assert dial.dialing.wait(10)
        # Another thread closes the backend while the wave waits on its only dial.
        backend.close()
        thread.join(timeout=5)
        assert not thread.is_alive(), "the wave waited for the held dial"
    finally:
        dial.released.set()
        thread.join(timeout=10)
    assert list(answers) == wave
    assert all(
        isinstance(error, BackendError) and "is closed" in str(error) for error in answers.values()
    )
    # The held dial's connection reaches the server and is closed, not pooled.
    keep_alive_server.wait_closed(1)
    assert keep_alive_server.connections == 1
    assert keep_alive_server.payloads == []


def test_prefetch_blocks_do_not_nest_and_another_request_posts_on_its_own(completion_server):
    backend = HttpBackend(completion_server.url)
    wave = [("first", 1, True, 1.0, 0, 256), ("second", 1, True, 1.0, 0, 256)]
    try:
        with backend.prefetch(wave):
            with pytest.raises(RuntimeError, match="do not nest"):
                with backend.prefetch(wave):
                    pass
            assert backend.generate("other", 1, greedy=True) == ["stub"]
            assert backend.generate("first", 1, greedy=True) == ["stub"]
            assert backend.generate("second", 1, greedy=True) == ["stub"]
    finally:
        backend.close()
    assert sorted(payload["prompt"] for payload in completion_server.payloads) == [
        "first", "other", "second"
    ]


def test_a_lone_generate_and_a_finished_wave_leave_no_wave_behind(completion_server):
    backend = HttpBackend(completion_server.url)
    assert backend.generate("lone", 1, greedy=True) == ["stub"]
    assert getattr(backend._waves, "pending", None) is None
    wave = [(f"prompt {i}", 1, True, 1.0, i, 256) for i in range(3)]
    assert answer_wave(backend, wave) == {request: ["stub"] for request in wave}
    assert getattr(backend._waves, "pending", None) is None
    assert len(completion_server.payloads) == 4


def test_a_wave_longer_than_twice_max_in_flight_returns_every_reply_in_order(keep_alive_server):
    responder, seen = _held(lambda payload: (200, {"completions": [payload["prompt"]]}), 0.002)
    keep_alive_server.respond_with(responder)
    backend = HttpBackend(keep_alive_server.url, max_in_flight=4)
    taken = []
    generate = backend.generate
    backend.generate = lambda prompt, *args, **kwargs: (
        taken.append(prompt) or generate(prompt, *args, **kwargs)
    )
    wave = [(f"prompt {i}", 1, True, 1.0, i, 256) for i in range(50)]
    try:
        answers = answer_wave(backend, wave)
    finally:
        backend.close()
    assert list(answers.items()) == [(request, [request[0]]) for request in wave]
    assert taken == [request[0] for request in wave]
    assert seen["peak"] <= 4
    assert keep_alive_server.connections <= 4


def test_a_wave_over_https_returns_the_scripted_answers(https_server, small_world, monkeypatch):
    server, ca_file = https_server
    # The client trusts the throwaway CA through OpenSSL's default verify paths.
    monkeypatch.setenv("SSL_CERT_FILE", str(ca_file))
    for name in ("https_proxy", "HTTPS_PROXY"):
        monkeypatch.delenv(name, raising=False)
    scripted = ScriptedBackend(small_world, seed=2)
    server.serve_backend(scripted)
    dialogs = small_world.dialogs + small_world.dev_dialogs
    prompts = [p for dialog in dialogs for p in state_prompts(contexts_of(dialog))]
    wave = [(p, 1 if greedy else 2, greedy, 1.0, 0, 256) for p in prompts for greedy in (True, False)]
    wave = list(dict.fromkeys(wave))[:100]
    assert len(wave) == 100
    backend = HttpBackend(server.url, max_in_flight=8)
    try:
        assert answer_wave(backend, wave) == {
            request: scripted.generate(request[0], request[1], greedy=request[2])
            for request in wave
        }
    finally:
        backend.close()
    assert server.url.startswith("https://")
    assert len(server.payloads) == 100
    assert server.connections <= 8


@pytest.mark.parametrize("declared", [True, False], ids=["content-length", "read-to-close"])
def test_http_backend_rejects_an_oversized_reply_without_a_retry(completion_server, declared):
    body = json.dumps({"completions": ["x" * MAX_REPLY_BYTES]}).encode("utf-8")
    headers = {} if declared else {"content-length": None}
    completion_server.respond_with(lambda payload: (200, body, headers))
    backend = HttpBackend(completion_server.url, max_retries=3)
    size = f"of {len(body)} bytes " if declared else ""
    with pytest.raises(BackendError, match=f"reply {size}exceeds the {MAX_REPLY_BYTES}-") as info:
        backend.generate("p", 1, greedy=True)
    assert info.value.attempts == 1
    assert len(completion_server.payloads) == 1


def test_failed_wave_skips_the_goal_and_leaves_no_reply_behind(
    completion_server, small_world, closing_backends
):
    scripted = ScriptedBackend(small_world, seed=2)
    dialog = small_world.dialogs[0]
    goal = small_world.goals[dialog.goal_id]
    cfg = SamplingConfig(k=2, seed=4)
    context = contexts_of(dialog)[1]
    greedy_state = parse_state(
        scripted.generate(serialize_state_prompt(context), 1, greedy=True)[0],
        domains=DOMAINS,
    ).state
    # The first request of the turn's act/response wave fails at once, while
    # the rest of the wave is still held by the server.
    failing = generation_request(
        act_prompt_text(serialize_state_prompt(context), greedy_state), "turn", cfg, greedy=True
    )
    healthy = _scripted_answer(scripted)
    held, seen = _held(healthy)

    def responder(payload):
        if tuple(payload[key] for key in _REQUEST_FIELDS) == failing:
            return 404, {"error": "no route"}
        return held(payload)

    completion_server.respond_with(responder)
    remote = closing_backends(completion_server.url)

    class Sequential:
        def generate(self, *args, **kwargs):
            return remote.generate(*args, **kwargs)

    def skipped_with(backend):
        def process(goal_id):
            return build_group(dialog, goal, backend, cfg, cfg.k, small_world.database)

        results, skipped = map_goals([dialog.goal_id], process, 1)
        assert results == {}
        return skipped

    expected = skipped_with(Sequential())
    assert expected == [(dialog.goal_id, "http 404 from backend")]
    assert skipped_with(remote) == expected
    # The rest of the failed wave was awaited, and none of it is kept.
    assert seen["now"] == 0
    assert not getattr(remote._waves, "pending", None)

    completion_server.respond_with(healthy)
    before = len(completion_server.payloads)
    prompt, n, greedy, temperature, seed, max_tokens = failing
    reply = remote.generate(
        prompt, n, greedy=greedy, temperature=temperature, seed=seed, max_tokens=max_tokens
    )
    assert reply == scripted.generate(prompt, n, greedy=greedy)
    assert len(completion_server.payloads) == before + 1


def test_state_wave_failure_still_meets_an_earlier_turns_act_failure_first(
    completion_server, small_world
):
    scripted = ScriptedBackend(small_world, seed=2)
    dialog = small_world.dialogs[0]
    goal = small_world.goals[dialog.goal_id]
    cfg = SamplingConfig(k=2, seed=4)
    contexts = contexts_of(dialog)
    assert len(contexts) >= 3
    greedy_state = parse_state(
        scripted.generate(serialize_state_prompt(contexts[1]), 1, greedy=True)[0],
        domains=DOMAINS,
    ).state
    # Turn 1's greedy act/response request, then turn 2's greedy state request.
    failures = {
        generation_request(
            act_prompt_text(serialize_state_prompt(contexts[1]), greedy_state),
            "turn",
            cfg,
            greedy=True,
        ): 404,
        generation_request(
            serialize_state_prompt(contexts[2]), "state", cfg, greedy=True
        ): 400,
    }
    healthy = _scripted_answer(scripted)

    def responder(payload):
        status = failures.get(tuple(payload[key] for key in _REQUEST_FIELDS))
        return (status, {"error": "refused"}) if status else healthy(payload)

    completion_server.respond_with(responder)
    remote = HttpBackend(completion_server.url)

    class Sequential:
        def generate(self, *args, **kwargs):
            return remote.generate(*args, **kwargs)

    def one_request_at_a_time(goal_id):
        return [
            sample_turn(Sequential(), context, cfg, small_world.ontology)
            for context in contexts
        ]

    def in_waves(goal_id):
        return build_group(dialog, goal, remote, cfg, cfg.k, small_world.database)

    expected = map_goals([dialog.goal_id], one_request_at_a_time, 1)
    assert expected == ({}, [(dialog.goal_id, "http 404 from backend")])
    assert map_goals([dialog.goal_id], in_waves, 1) == expected


def test_a_failed_request_goals_share_skips_each_of_them_and_no_other(
    completion_server, small_world, tmp_path, closing_backends
):
    scripted = ScriptedBackend(small_world, ErrorInjectionConfig(rate=0.5), seed=7)
    cfg = IterationConfig(k=2, goal_fraction=1.0, seed=7)
    sampling = cfg.sampling()
    goals_of = {}
    for dialog in small_world.dialogs:
        for context in contexts_of(dialog):
            goals_of.setdefault(serialize_state_prompt(context), set()).add(dialog.goal_id)
    # A state prompt that two goals of the single block share; its greedy request fails.
    prompt = min(p for p, goals in goals_of.items() if len(goals) > 1)
    failing = generation_request(prompt, "state", sampling, greedy=True)
    healthy = _scripted_answer(scripted)

    def responder(payload):
        if tuple(payload[key] for key in _REQUEST_FIELDS) == failing:
            return 404, {"error": "no route"}
        return healthy(payload)

    completion_server.respond_with(responder)
    remote = closing_backends(completion_server.url)
    failed = run_iteration(
        small_world, dataclasses.replace(cfg, out_dir=tmp_path / "failed"), remote
    )
    dialog_map = small_world.dialog_map()

    def alone(goal_id):
        return build_group(
            dialog_map[goal_id], small_world.goals[goal_id], remote, sampling, cfg.k,
            small_world.database,
        )

    expected = map_goals(sorted(goals_of[prompt]), alone, 1)[1]
    assert expected == [(goal_id, "http 404 from backend") for goal_id in sorted(goals_of[prompt])]
    assert list(failed.skipped) == expected
    assert len(small_world.goals) == failed.n_goals_sampled + len(expected)
    # The goals shared one POST of the request in the run, and one more each alone.
    sent = [tuple(p[key] for key in _REQUEST_FIELDS) for p in completion_server.payloads]
    assert sent.count(failing) == 1 + len(expected)

    completion_server.respond_with(healthy)
    clean = run_iteration(small_world, dataclasses.replace(cfg, out_dir=tmp_path / "clean"), remote)
    assert clean.skipped == ()

    def records(run):
        return (tmp_path / run / "sft.jsonl").read_text(encoding="utf-8").splitlines()

    kept = [
        line for line in records("clean") if json.loads(line)["goal_id"] not in goals_of[prompt]
    ]
    assert kept
    assert records("failed") == kept


@pytest.mark.parametrize(
    "body, headers, error",
    [
        (b"[1, 2]", {}, "missing 1 string completions"),
        (b'"x"', {}, "missing 1 string completions"),
        (b"5", {}, "missing 1 string completions"),
        (b"null", {}, "missing 1 string completions"),
        (b'{"completions": ["\xff"]}', {}, "malformed JSON"),
        (b'{"completions": ["stub"]}', {"content-length": "100"}, "unreachable after 2 attempts"),
    ],
    ids=["list", "string", "number", "null", "non-utf8", "truncated"],
)
def test_http_backend_rejects_hostile_replies(completion_server, monkeypatch, body, headers, error):
    monkeypatch.setattr("subtod.backends.time.sleep", lambda seconds: None)
    completion_server.respond_with(lambda payload: (200, body, headers))
    backend = HttpBackend(completion_server.url, max_retries=1)
    with pytest.raises(BackendError, match=error):
        backend.generate("p", 1, greedy=True)
    # Only a truncated reply is transient and retried.
    assert len(completion_server.payloads) == (2 if headers else 1)


def test_a_chunked_reply_is_decoded_and_keeps_its_connection(keep_alive_server):
    def chunked(payload):
        body = json.dumps({"completions": ["stub"] * payload["n"]}).encode("utf-8")
        chunks = b"%x;note=1\r\n%s\r\n%x\r\n%s\r\n" % (5, body[:5], len(body) - 5, body[5:])
        trailer = b"0\r\nx-trailer: done\r\n\r\n"
        return 200, chunks + trailer, {"content-length": None, "transfer-encoding": "chunked"}

    keep_alive_server.respond_with(chunked)
    backend = HttpBackend(keep_alive_server.url)
    try:
        for i in range(3):
            assert backend.generate(f"prompt {i}", 2, greedy=False) == ["stub", "stub"]
    finally:
        backend.close()
    assert keep_alive_server.connections == 1


@pytest.mark.parametrize(
    "reply",
    [
        b"NOT HTTP\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",
        b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n",
    ],
    ids=["status line", "header line", "chunk size"],
)
def test_a_garbled_reply_is_retried_like_a_network_error(monkeypatch, reply):
    monkeypatch.setattr("subtod.backends.time.sleep", lambda seconds: None)
    listener = socket.create_server(("127.0.0.1", 0))
    received = []

    def serve():
        for _ in range(2):
            conn, _ = listener.accept()
            with conn:
                received.append(conn.recv(65536))
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    backend = HttpBackend(f"http://127.0.0.1:{listener.getsockname()[1]}/v1", max_retries=1)
    try:
        with pytest.raises(BackendError, match="unreachable after 2 attempts"):
            backend.generate("p", 1, greedy=True)
    finally:
        backend.close()
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()
    assert len(received) == 2


def test_a_reply_that_is_not_an_object_skips_the_goal(completion_server, small_world):
    completion_server.respond_with(lambda payload: (200, [1, 2]))
    remote = HttpBackend(completion_server.url)
    dialog = small_world.dialogs[0]
    cfg = SamplingConfig(k=2, seed=4)

    def process(goal_id):
        return build_group(
            dialog, small_world.goals[goal_id], remote, cfg, cfg.k, small_world.database
        )

    assert map_goals([dialog.goal_id], process, 1) == (
        {},
        [(dialog.goal_id, "backend reply missing 1 string completions")],
    )


def test_http_backend_honours_proxy_variables(completion_server, monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    # The backend host resolves nowhere: only the proxy can reach it.
    resolve = socket.getaddrinfo

    def getaddrinfo(host, *args, **kwargs):
        if host == "backend.invalid":
            raise socket.gaierror(socket.EAI_NONAME, "unresolvable")
        return resolve(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
    proxy = completion_server.origin.replace("//", "//user:p%40ss@")
    monkeypatch.setenv("http_proxy", proxy)
    proxied = HttpBackend("http://backend.invalid/v1/completions?model=m", max_retries=0)
    assert proxied.generate("p", 1, greedy=True) == ["stub"]
    [(target, headers)] = completion_server.requests
    assert target == "http://backend.invalid/v1/completions?model=m"
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()

    # no_proxy covers the stub server's host: it is reached directly.
    monkeypatch.setenv("no_proxy", "example.org, 127.0.0.1")
    direct = HttpBackend(completion_server.url, max_retries=0)
    assert direct.generate("p", 1, greedy=True) == ["stub"]
    (target, headers) = completion_server.requests[1]
    assert target == "/v1/completions"
    assert "Proxy-Authorization" not in headers


@pytest.mark.parametrize("url", ["127.0.0.1:8000/v1", "ftp://host/v1", "http:///v1"])
def test_http_backend_rejects_urls_it_cannot_post_to(url):
    with pytest.raises(ValueError, match="backend url"):
        HttpBackend(url)


_TOKENS = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-", min_size=1,
                  max_size=10)
_FIELD_VALUES = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=16)
_FRAMING = {"content-length", "transfer-encoding", "connection"}


def _head_lines(data):
    """A status line and header lines drawn from ``data``, and the headers as parsed."""
    status = data.draw(st.integers(200, 599).filter(lambda status: status not in (204, 304)))
    reason = data.draw(st.sampled_from(["", " OK", " Some Reason"]))
    names = data.draw(st.lists(_TOKENS.filter(lambda name: name.lower() not in _FRAMING),
                               max_size=4))
    fields = [(name, data.draw(_FIELD_VALUES)) for name in names]
    spaces = data.draw(st.sampled_from(["", " ", "  "]))
    lines = [f"HTTP/1.1 {status}{reason}", *(f"{name}:{spaces}{value}" for name, value in fields)]
    return status, lines, {name.lower(): value for name, value in fields}


def _chunked(data, body):
    """``body`` framed as chunks cut at drawn places, with drawn extensions and trailers."""
    cuts = sorted(set(data.draw(st.lists(st.integers(0, len(body)), max_size=5))))
    bounds = [0, *cuts, len(body)]
    pieces = [body[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    out = b""
    for piece in [*pieces, b""]:
        size = data.draw(st.sampled_from(["%x", "%X", "00%x"])) % len(piece)
        extension = data.draw(st.sampled_from(["", ";x", ";name=value", ' ;q="a b"']))
        out += f"{size}{extension}\r\n".encode("ascii") + piece + (b"\r\n" if piece else b"")
    trailers = data.draw(st.lists(st.tuples(_TOKENS, _FIELD_VALUES), max_size=2))
    out += b"".join(f"{name}: {value}\r\n".encode("ascii") for name, value in trailers)
    return out + b"\r\n"


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_parse_reply_reads_both_framings_alike_and_nothing_short_of_the_end(data):
    status, lines, headers = _head_lines(data)
    body = data.draw(st.binary(max_size=200))
    interim = data.draw(st.sampled_from([b"", b"HTTP/1.1 100 Continue\r\n\r\n"]))
    framings = {
        "content-length": [f"Content-Length: {len(body)}"],
        "chunked": ["Transfer-Encoding: chunked"],
    }
    extra = data.draw(st.binary(min_size=1, max_size=20))
    for framing, framing_lines in framings.items():
        head = "\r\n".join([*lines, *framing_lines, "", ""]).encode("ascii")
        reply = interim + head + (body if framing == "content-length" else _chunked(data, body))
        parsed = _parse_reply(reply, eof=False)
        assert parsed is not None, framing
        assert (parsed[0], parsed[2], parsed[3]) == (status, body, True), framing
        assert headers.items() <= parsed[1].items()
        for end in range(len(reply)):
            assert _parse_reply(reply[:end], eof=False) is None, (framing, end)
        # Bytes after the reply: the same reply, and a connection not to reuse.
        assert _parse_reply(reply + extra, eof=False) == (*parsed[:3], False), framing


_HTTP_PIECES = st.sampled_from([
    b"HTTP/1.1 ", b"HTTP/1.0 ", b"200", b"100", b"204 ", b" OK", b"\r\n", b"\r\n\r\n", b":",
    b"Content-Length: ", b"Transfer-Encoding: chunked", b"Connection: close", b"0", b"1a",
    b"ffffffffffff", b";x", b"12", b"\n",
])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    raw=st.lists(_HTTP_PIECES | st.binary(max_size=6), max_size=30).map(b"".join),
    eof=st.booleans(),
)
@example(
    raw=b"HTTP/1.1 100 Continue\r\n\r\n" * 2000 + b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
    eof=False,
)
def test_parse_reply_fails_only_with_its_own_errors(raw, eof):
    try:
        parsed = _parse_reply(raw, eof)
    except (_BadReply, _OversizedReply):
        return
    if parsed is not None:
        status, headers, body, reusable = parsed
        assert 0 <= status < 1000 and not 100 <= status < 200
        assert isinstance(body, bytes) and isinstance(reusable, bool)
