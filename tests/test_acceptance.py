"""Release gate: one test per shipped guarantee, tolerances pinned.

Each test is self-contained and prints one pass/fail line under ``pytest -v``.
Runtime bounds are asserted where a guarantee includes one.
"""

import dataclasses
import random
import re
import time

import pytest

from oracles import bleu as oracle_bleu
from oracles import detect as oracle_detect
from oracles import detect_flip_set, plain_dialog, plain_goal, plain_schemas, plain_tables
from subtod.backends import ErrorInjectionConfig, ScriptedBackend
from subtod.cli import main
from subtod.corpus import save_corpus
from subtod.evaluate import combined, corpus_bleu, dialog_success
from subtod.iteration import IterationConfig, build_group, run_iteration
from subtod.model import DialogAct, SubgoalKind, SystemTurn, placeholder, replace_turn
from subtod.sampling import SamplingConfig
from subtod.subgoals import CandidateGroup, PairPolicy, detect_subgoals, emit_dpo, label_success
from subtod.synthetic import build_world
from subtod.verbalize import (
    parse_act_response,
    parse_state,
    turn_text,
    verbalize_acts,
    verbalize_state,
)
from test_verbalize import (
    EXACT_ACT_STRINGS,
    EXACT_STATE_STRINGS,
    LENIENT_ACT_STRINGS,
    LENIENT_STATE_STRINGS,
    MULTIWOZ,
    MULTIWOZ_ACT_VERBS,
    MULTIWOZ_DOMAINS,
)

# Reported MultiWOZ 2.2 leaderboard rows as (bleu, inform, success,
# combined). Scores published at one decimal can only be checked to half a
# unit of that precision; two-decimal rows get 0.01.
REPORTED_ROWS = (
    (19.90, 88.9, 78.0, 103.4, 0.05),
    (19.00, 89.2, 80.3, 103.8, 0.05),
    (17.50, 89.5, 84.2, 104.4, 0.05),
    (19.94, 80.4, 72.5, 96.39, 0.01),
    (19.50, 87.0, 79.4, 102.70, 0.01),
    (17.79, 86.9, 80.6, 101.54, 0.01),
    (17.75, 89.8, 84.0, 104.65, 0.01),
    (17.44, 88.5, 82.7, 103.04, 0.01),
    (15.11, 89.7, 85.9, 102.91, 0.01),
    (17.17, 89.5, 84.4, 104.12, 0.01),
    (16.47, 90.0, 87.1, 105.02, 0.01),
    (16.92, 88.8, 84.4, 103.52, 0.01),
)


def test_c1_combined_score_reproduction():
    start = time.perf_counter()
    for bleu, inform, success, reported, tolerance in REPORTED_ROWS:
        score = combined(bleu, inform, success)
        # the 1e-9 covers float representation on exact half-unit ties
        assert score == pytest.approx(reported, abs=tolerance + 1e-9), (
            bleu, inform, success,
        )
    assert time.perf_counter() - start < 1.0


def test_c2_candidate_accounting(tmp_path):
    start = time.perf_counter()
    world = build_world(4218, seed=11, dev_goals=1)
    backend = ScriptedBackend(world)

    source = world.dialogs[0]
    group = build_group(
        source, world.goals[source.goal_id], backend, SamplingConfig(k=2, seed=1), 2,
        world.database,
    )
    assert len(group.candidates) == 5

    cfg = IterationConfig(goal_fraction=1.0, out_dir=tmp_path, seed=11)
    report = run_iteration(world, cfg, backend)
    assert report.n_goals_sampled == 4218
    assert report.skipped == ()
    assert report.histogram[5] == 4218
    assert report.n_dialogs_successful + report.n_dialogs_unsuccessful == 21090
    assert time.perf_counter() - start < 120.0


def test_c3_detection_equals_exhaustive_oracle():
    start = time.perf_counter()
    world = build_world(1000, seed=31, dev_goals=1)
    db = world.database
    schemas, tables = plain_schemas(db), plain_tables(db)
    backends = [
        ScriptedBackend(world, ErrorInjectionConfig(rate=rate), seed=101 + i)
        for i, rate in enumerate((0.3, 0.5, 0.7, 0.9))
    ]
    sampling = SamplingConfig(k=2, seed=7)

    checked = nonempty = 0
    for i, source in enumerate(world.dialogs):
        goal = world.goals[source.goal_id]
        group = build_group(source, goal, backends[i % 4], sampling, 2, db)
        assert len(group.candidates) <= 5
        assert all(len(d.turns) <= 6 for d in group.candidates)
        got = detect_flip_set(group, detect_subgoals(group, db))
        want = oracle_detect(
            [plain_dialog(d) for d in group.candidates],
            list(group.labels),
            plain_goal(goal),
            schemas,
            tables,
        )
        assert got == want, f"{source.id}: disagreement {got ^ want}"
        checked += 1
        nonempty += bool(want)
    assert checked >= 1000
    # the comparison would be vacuous if injection never produced flips
    assert nonempty >= 100
    assert time.perf_counter() - start < 300.0


def test_c4_every_rejected_fragment_breaks_the_dialog():
    # Checked with the turn-by-turn reference, not the DialogSplices rule detection uses.
    from reference import dialog_success

    world = build_world(60, seed=43, dev_goals=1)
    db = world.database
    backend = ScriptedBackend(world, ErrorInjectionConfig(rate=0.5), seed=3)
    sampling = SamplingConfig(k=2, seed=17)
    domains, verbs = world.ontology.domains, world.ontology.act_verbs()

    n_pairs = 0
    for source in world.dialogs:
        goal = world.goals[source.goal_id]
        group = build_group(source, goal, backend, sampling, 2, db)
        records = emit_dpo(detect_subgoals(group, db), PairPolicy.ALL)
        by_id = {d.id: d for d in group.candidates}
        for record in records:
            winner = by_id[record["dialog_id"]]
            if record["kind"] == "state":
                kind = SubgoalKind.STATE
                parsed = parse_state(record["rejected"], domains=domains)
                assert parsed.diagnostics == ()
                fragment = SystemTurn(state=parsed.state, acts=(), response="")
            else:
                kind = SubgoalKind.ACT_RESPONSE
                parsed = parse_act_response(record["rejected"], domains=domains, verbs=verbs)
                fragment = SystemTurn(state={}, acts=parsed.acts, response=parsed.response)
            patched = replace_turn(winner, record["turn"], kind, fragment)
            assert not dialog_success(patched, goal, db), record
            n_pairs += 1
    assert n_pairs >= 40


def _last_offer_turn(dialog, domain, db):
    token = placeholder(domain, db.ontology.domains[domain].name_slot)
    last = None
    for t, turn in enumerate(dialog.turns):
        if token in turn.system.response:
            last = t
    return last


def _strip_token(response, token):
    return re.sub(r"\s+", " ", response.replace(token, "")).strip()


def test_c5_planted_error_sites_are_recovered_exactly():
    world = build_world(500, seed=59, dev_goals=1)
    db = world.database
    tp = fp = fn = 0
    swap_cases = omit_cases = 0

    for source in world.dialogs:
        if swap_cases + omit_cases >= 200:
            break
        goal = world.goals[source.goal_id]
        if "train" in goal.domains and swap_cases < 100:
            t = _last_offer_turn(source, "train", db)
            if t is None:
                continue
            state = source.turns[t].system.state
            slots = state.get("train", {})
            if "departure" not in slots or "destination" not in slots:
                continue
            if slots["departure"] == slots["destination"]:
                continue
            swapped = dict(state)
            swapped["train"] = {
                **slots,
                "departure": slots["destination"],
                "destination": slots["departure"],
            }
            kind = SubgoalKind.STATE
            fragment = SystemTurn(state=swapped, acts=(), response="")
            swap_cases += 1
        elif omit_cases < 100:
            found = None
            for domain, entry in sorted(goal.domains.items()):
                for slot in sorted(entry.requests):
                    token = placeholder(domain, slot)
                    for i, turn in enumerate(source.turns):
                        if token in turn.system.response:
                            found = (domain, slot, token, i)
                            break
                    if found:
                        break
                if found:
                    break
            if found is None:
                continue
            domain, slot, token, t = found
            turn = source.turns[t].system
            kind = SubgoalKind.ACT_RESPONSE
            fragment = SystemTurn(
                state={},
                acts=tuple(a for a in turn.acts if (a.domain, a.slot) != (domain, slot)),
                response=_strip_token(turn.response, token),
            )
            omit_cases += 1
        else:
            continue

        loser = dataclasses.replace(
            replace_turn(source, t, kind, fragment), id=f"{source.id}/planted"
        )
        group = label_success(
            CandidateGroup(
                goal_id=source.goal_id, goal=goal, candidates=(source, loser),
            ),
            db,
        )
        assert group.labels == (True, False), source.id
        got = detect_flip_set(group, detect_subgoals(group, db))
        want = {(source.id, t, kind.value, loser.id)}
        tp += len(got & want)
        fp += len(got - want)
        fn += len(want - got)

    assert swap_cases == 100
    assert omit_cases == 100
    assert tp / (tp + fp) == 1.0
    assert tp / (tp + fn) == 1.0


def test_c6_evaluator_properties():
    world = build_world(150, seed=29, dev_goals=1)
    db = world.database
    rng = random.Random(71)

    cases = 0
    for source in world.dialogs:
        goal = world.goals[source.goal_id]
        requested = [
            (domain, slot)
            for domain, entry in sorted(goal.domains.items())
            for slot in sorted(entry.requests)
        ]
        domain, slot = rng.choice(requested)
        token = placeholder(domain, slot)
        t = next(
            i for i, turn in enumerate(source.turns) if token in turn.system.response
        )
        turn = source.turns[t].system
        stripped = SystemTurn(
            state={}, acts=turn.acts, response=_strip_token(turn.response, token)
        )
        patched = replace_turn(source, t, SubgoalKind.ACT_RESPONSE, stripped)
        assert dialog_success(source, goal, db)
        assert not dialog_success(patched, goal, db), (source.id, domain, slot)
        cases += 1
        if cases == 100:
            break
    assert cases == 100

    responses = [t.system.response for d in world.dialogs[:40] for t in d.turns]
    assert corpus_bleu(responses, responses) == pytest.approx(100.0, abs=1e-6)

    hyps = [
        "the hotel is in the north and has 4 stars .",
        "i booked a taxi for you , the contact number is 07218068540 .",
    ]
    refs = [
        "the hotel is in the north with 4 stars .",
        "i have booked a taxi for you . the contact number is 07218068540 .",
    ]
    assert corpus_bleu(hyps, refs) == pytest.approx(oracle_bleu(hyps, refs), abs=1e-9)


_RT_SLOTS = (
    "area", "pricerange", "food", "stars", "internet", "parking", "type",
    "day", "departure", "destination", "leaveat", "arriveby", "book people",
)
_RT_VALUES = (
    "north", "cheap", "modern european", "5", "yes", "no", "guesthouse",
    "saturday", "bishops stortford", "17:45", "dontcare", "el shaddai",
)
_RT_RESPONSES = (
    "ok.",
    "i found [restaurant_choice] places; [restaurant_name] is popular.",
    "what time would you like to leave?",
    "booking was successful. reference number is [hotel_reference].",
)


def test_c7_round_trip_parsing():
    rng = random.Random(97)
    domains = sorted(MULTIWOZ_DOMAINS)
    verbs = sorted(MULTIWOZ_ACT_VERBS)
    for _ in range(10_000):
        state = {
            domain: {
                slot: rng.choice(_RT_VALUES)
                for slot in rng.sample(_RT_SLOTS, rng.randrange(1, 5))
            }
            for domain in rng.sample(domains, rng.randrange(0, 4))
        }
        parsed = parse_state(verbalize_state(state), domains=MULTIWOZ_DOMAINS)
        assert parsed.state == state
        assert parsed.diagnostics == ()

        acts = tuple(
            DialogAct(
                domain=rng.choice(domains),
                act=rng.choice(verbs),
                slot=rng.choice((None,) + _RT_SLOTS),
                booking=rng.random() < 0.25,
            )
            for _ in range(rng.randrange(0, 6))
        )
        response = rng.choice(_RT_RESPONSES)
        again = parse_act_response(turn_text(acts, response), **MULTIWOZ)
        assert again.acts == acts
        assert again.response == response

    for text in EXACT_STATE_STRINGS:
        parsed = parse_state(text, domains=MULTIWOZ_DOMAINS)
        assert parsed.diagnostics == ()
        assert verbalize_state(parsed.state) == text
    for text in EXACT_ACT_STRINGS:
        parsed = parse_act_response(f"[A] {text} [R] ok.", **MULTIWOZ)
        assert parsed.diagnostics == ()
        assert verbalize_acts(parsed.acts) == text
    for text in LENIENT_STATE_STRINGS:
        first = parse_state(text, domains=MULTIWOZ_DOMAINS)
        again = parse_state(verbalize_state(first.state), domains=MULTIWOZ_DOMAINS)
        assert again.state == first.state
    for text in LENIENT_ACT_STRINGS:
        first = parse_act_response(f"[A] {text} [R] ok.", **MULTIWOZ)
        again = parse_act_response(turn_text(first.acts, first.response), **MULTIWOZ)
        assert again.acts == first.acts
        assert again.response == first.response


def test_c8_outputs_are_byte_identical_across_worker_counts(tmp_path, capsys):
    corpus_path = tmp_path / "world.json"
    save_corpus(build_world(36, seed=5, dev_goals=4), corpus_path)

    def run(mode, workers, name):
        out = tmp_path / name
        assert main([
            "iterate", "--corpus", str(corpus_path), "--out", str(out),
            "--mode", mode, "--goal-fraction", "1.0", "--seed", "5",
            "--noise-rate", "0.45", "--workers", str(workers),
        ]) == 0
        capsys.readouterr()
        data = f"{mode}.jsonl"
        return (out / data).read_bytes(), (out / "report.json").read_bytes()

    first = run("sft", 1, "sft-w1")
    assert first == run("sft", 3, "sft-w3")
    assert first == run("sft", 3, "sft-w3-again")
    assert len(first[0]) > 0

    dpo_first = run("dpo", 1, "dpo-w1")
    assert dpo_first == run("dpo", 3, "dpo-w3")
    assert len(dpo_first[0]) > 0
