"""Scripted backend behavior, error injection, and the HTTP client."""

import base64
import dataclasses
import json
import socket
import sys
import threading
import time

import pytest

from subtod.backends import (
    ErrorInjectionConfig,
    ErrorKind,
    HttpBackend,
    Injection,
    ScriptedBackend,
    stable_seed,
)
from subtod.cli import main
from subtod.corpus import save_corpus
from subtod.errors import BackendError
from subtod.iteration import build_group, map_goals
from subtod.model import SubgoalKind, contexts_of, normalize_value, placeholder
from subtod.sampling import SamplingConfig, generate_wave, generation_request, sample_turn
from subtod.verbalize import (
    parse_act_response,
    parse_state,
    serialize_act_prompt,
    serialize_state_prompt,
)


_REQUEST_FIELDS = ("prompt", "n", "greedy", "temperature", "seed", "max_tokens")


def _norm_state(state):
    return {d: {s: normalize_value(v) for s, v in slots.items()} for d, slots in state.items()}


def _state_prompt(dialog, t):
    return serialize_state_prompt(contexts_of(dialog)[t]).text


def _act_prompt(dialog, t, state=None):
    state = dialog.turns[t].system.state if state is None else state
    return serialize_act_prompt(contexts_of(dialog)[t], state).text


def _requested_in(goal, response):
    return [
        placeholder(domain, slot)
        for domain, entry in sorted(goal.domains.items())
        for slot in sorted(entry.requests)
        if placeholder(domain, slot) in response
    ]


def _find_omit_site(world):
    for dialog in world.dialogs:
        goal = world.goals[dialog.goal_id]
        for t, turn in enumerate(dialog.turns):
            if _requested_in(goal, turn.system.response):
                return dialog, t
    raise AssertionError("no turn mentions a requested slot")


def _find_swap_site(world):
    for dialog in world.dialogs:
        for t, turn in enumerate(dialog.turns):
            slots = turn.system.state.get("train", {})
            if "departure" in slots and "destination" in slots:
                return dialog, t
    raise AssertionError("no train turn carries both endpoints")


def _find_slot_site(world, slot):
    for dialog in world.dialogs:
        for t, turn in enumerate(dialog.turns):
            for domain in sorted(turn.system.state):
                if slot in turn.system.state[domain]:
                    return dialog, t, domain
    raise AssertionError(f"no state carries slot {slot!r}")


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
    assert parse_state(out[0]).state == system.state

    acts = backend.generate(_act_prompt(dialog, 0), 2, greedy=True)
    parsed = parse_act_response(acts[0])
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
    assert parse_act_response(out[0]).response == dialog.turns[0].system.response


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
        assert _norm_state(parse_state(text).state) == _norm_state(ground)


def test_scripted_sampled_responses_add_neutral_tails(small_world):
    backend = ScriptedBackend(small_world)
    dialog = small_world.dialogs[0]
    system = dialog.turns[0].system
    sampled = backend.generate(_act_prompt(dialog, 0), 6, greedy=False)
    assert len(set(sampled)) == 6
    for text in sampled:
        parsed = parse_act_response(text)
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


def test_planted_wrong_value_hits_one_sample(small_world):
    dialog, t, domain = _find_slot_site(small_world, "area")
    noise = ErrorInjectionConfig(
        injections=(
            Injection(dialog.id, t, SubgoalKind.STATE, ErrorKind.WRONG_VALUE, sample=1,
                      slot="area"),
        )
    )
    backend = ScriptedBackend(small_world, noise)
    ground = dialog.turns[t].system.state
    sampled = backend.generate(_state_prompt(dialog, t), 2, greedy=False)
    corrupted = parse_state(sampled[0]).state
    assert corrupted[domain]["area"] != ground[domain]["area"]
    assert normalize_value(corrupted[domain]["area"]) != "dontcare"
    untouched = {d: {s: v for s, v in slots.items() if (d, s) != (domain, "area")}
                 for d, slots in corrupted.items()}
    expected = {d: {s: v for s, v in slots.items() if (d, s) != (domain, "area")}
                for d, slots in ground.items()}
    assert untouched == expected
    assert _norm_state(parse_state(sampled[1]).state) == _norm_state(ground)
    assert backend.generate(_state_prompt(dialog, t), 1, greedy=True) != [sampled[0]]


def test_planted_drop_slot_removes_it(small_world):
    dialog, t, domain = _find_slot_site(small_world, "pricerange")
    noise = ErrorInjectionConfig(
        injections=(
            Injection(dialog.id, t, SubgoalKind.STATE, ErrorKind.DROP_SLOT, sample=2,
                      slot="pricerange"),
        )
    )
    backend = ScriptedBackend(small_world, noise)
    sampled = backend.generate(_state_prompt(dialog, t), 2, greedy=False)
    dropped = parse_state(sampled[1]).state
    assert "pricerange" not in dropped.get(domain, {})
    ground = dialog.turns[t].system.state
    assert _norm_state(parse_state(sampled[0]).state) == _norm_state(ground)


def test_planted_swap_reverses_the_route(small_world):
    dialog, t = _find_swap_site(small_world)
    noise = ErrorInjectionConfig(
        injections=(
            Injection(dialog.id, t, SubgoalKind.STATE,
                      ErrorKind.SWAP_DEPARTURE_DESTINATION, sample=1),
        )
    )
    backend = ScriptedBackend(small_world, noise)
    swapped = parse_state(
        backend.generate(_state_prompt(dialog, t), 1, greedy=False)[0]
    ).state
    ground = dialog.turns[t].system.state
    assert swapped["train"]["departure"] == ground["train"]["destination"]
    assert swapped["train"]["destination"] == ground["train"]["departure"]


def test_planted_omission_strips_a_requested_slot(small_world):
    dialog, t = _find_omit_site(small_world)
    goal = small_world.goals[dialog.goal_id]
    system = dialog.turns[t].system
    noise = ErrorInjectionConfig(
        injections=(
            Injection(dialog.id, t, SubgoalKind.ACT_RESPONSE,
                      ErrorKind.OMIT_REQUESTED_SLOT_IN_RESPONSE, sample=1),
        )
    )
    backend = ScriptedBackend(small_world, noise)
    parsed = parse_act_response(
        backend.generate(_act_prompt(dialog, t), 1, greedy=False)[0]
    )
    before = _requested_in(goal, system.response)
    after = [tok for tok in before if tok in parsed.response]
    missing = set(before) - set(after)
    assert len(missing) == 1
    token = missing.pop()
    domain, _, slot = token[1:-1].partition("_")
    assert all(not (a.domain == domain and a.slot == slot) for a in parsed.acts)
    assert set(parsed.acts) <= set(system.acts)


def test_noise_rate_one_corrupts_exactly_one_sample_per_state_site(small_world):
    backend = ScriptedBackend(small_world, ErrorInjectionConfig(rate=1.0), seed=3)
    checked = 0
    for dialog in small_world.dialogs[:4]:
        for t, turn in enumerate(dialog.turns):
            if not turn.system.state:
                continue
            sampled = backend.generate(_state_prompt(dialog, t), 2, greedy=False)
            ground = _norm_state(turn.system.state)
            bad = [s for s in sampled if _norm_state(parse_state(s).state) != ground]
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

    # Two goal threads share the client, as under --workers 2.
    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(contexts))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)

    assert results == [
        sample_turn(scripted, context, cfg, small_world.ontology) for context in contexts
    ]
    assert any(len(result.states) > 1 for result in results)
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
        assert generate_wave(backend, wave) == ([["stub"]] * 16, None)
        assert keep_alive_server.connections == 16
        # The second wave runs on the first wave's connections.
        assert generate_wave(backend, wave) == ([["stub"]] * 16, None)
        assert keep_alive_server.connections == 16
    finally:
        sys.setswitchinterval(interval)
        backend.close()
    assert len(keep_alive_server.payloads) == 32


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


def test_failed_wave_skips_the_goal_and_leaves_no_reply_behind(completion_server, small_world):
    scripted = ScriptedBackend(small_world, seed=2)
    dialog = small_world.dialogs[0]
    goal = small_world.goals[dialog.goal_id]
    cfg = SamplingConfig(k=2, seed=4)
    context = contexts_of(dialog)[1]
    greedy_state = parse_state(
        scripted.generate(serialize_state_prompt(context).text, 1, greedy=True)[0]
    ).state
    # The first request of the turn's act/response wave fails at once, while
    # the rest of the wave is still held by the server.
    failing = generation_request(
        serialize_act_prompt(context, greedy_state).text, "turn", cfg, greedy=True
    )
    healthy = _scripted_answer(scripted)
    held, seen = _held(healthy)

    def responder(payload):
        if tuple(payload[key] for key in _REQUEST_FIELDS) == failing:
            return 404, {"error": "no route"}
        return held(payload)

    completion_server.respond_with(responder)
    remote = HttpBackend(completion_server.url)

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
        scripted.generate(serialize_state_prompt(contexts[1]).text, 1, greedy=True)[0]
    ).state
    # Turn 1's greedy act/response request, then turn 2's greedy state request.
    failures = {
        generation_request(
            serialize_act_prompt(contexts[1], greedy_state).text, "turn", cfg, greedy=True
        ): 404,
        generation_request(
            serialize_state_prompt(contexts[2]).text, "state", cfg, greedy=True
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
