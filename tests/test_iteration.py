"""Iteration driver: subsampling, goal isolation, report round trips."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    detect,
    generation_request,
    plain_dialog,
    plain_goal,
    plain_schemas,
    plain_tables,
)
from subtod import cli, iteration, sampling, subgoals
from subtod.backends import BackendError, ErrorInjectionConfig, ScriptedBackend
from subtod.corpus import save_corpus
from subtod.evaluate import SpliceEvaluator, dialog_success, evaluate_corpus
from subtod.iteration import (
    IterationConfig,
    IterationReport,
    TrainMode,
    build_group,
    map_goals,
    predict_greedy,
    process_goals,
    run_iteration,
    subsample_goals,
    write_jsonl,
)
from subtod.model import SubgoalKind, SystemTurn, replace_turn
from subtod.sampling import SamplingConfig
from subtod.subgoals import PairPolicy, detect_subgoals
from subtod.synthetic import build_world
from subtod.verbalize import (
    act_prompt_text,
    parse_act_response,
    parse_state,
    state_prompts,
    state_text,
)
from test_verbalize import MULTIWOZ_ACT_VERBS, MULTIWOZ_DOMAINS


def test_iteration_config_validates_its_knobs(tmp_path):
    with pytest.raises(ValueError, match="goal_fraction"):
        IterationConfig(goal_fraction=0.0)
    with pytest.raises(ValueError, match="iteration_index"):
        IterationConfig(iteration_index=-1)
    assert IterationConfig(out_dir=tmp_path).k == 2


def test_subsample_takes_the_ceiling_of_the_fraction():
    ids = [f"g-{i:05d}" for i in range(8436)]
    half = subsample_goals(ids, 0.5, seed=1)
    assert len(half) == 4218
    assert len(subsample_goals(ids + ["g-99999"], 0.5, seed=1)) == 4219
    assert half == sorted(half)
    assert set(half) <= set(ids)
    assert subsample_goals(ids, 0.5, seed=1) == half
    assert subsample_goals(ids, 0.5, seed=2) != half
    assert subsample_goals(ids, 1.0, seed=3) == ids


def test_subsample_rejects_out_of_range_fractions():
    with pytest.raises(ValueError, match="fraction"):
        subsample_goals(["a"], 0.0, seed=0)
    with pytest.raises(ValueError, match="fraction"):
        subsample_goals(["a"], 1.5, seed=0)


def test_run_iteration_on_a_clean_world(small_world, tmp_path):
    cfg = IterationConfig(
        k=2, goal_fraction=1.0, seed=5, train_mode=TrainMode.SFT, out_dir=tmp_path
    )
    report = run_iteration(small_world, cfg, ScriptedBackend(small_world))
    assert report.n_goals_sampled == 12
    assert report.histogram == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 12}
    assert report.n_dialogs_successful == 60
    assert report.n_dialogs_unsuccessful == 0
    assert report.n_subgoal_samples == {"state": 0, "act_response": 0}
    assert report.skipped == ()
    assert report.files == ("sft.jsonl",)
    # Nothing failed, so there is nothing to learn from; the file is empty.
    assert (tmp_path / "sft.jsonl").read_bytes() == b""
    assert report.dev_eval["combined"] == pytest.approx(200.0, abs=1e-6)

    stored = json.loads((tmp_path / "report.json").read_text())
    assert stored == report.to_dict()
    assert IterationReport.from_dict(stored) == report


def test_run_iteration_with_noise_emits_preference_data(small_world, tmp_path):
    backend = ScriptedBackend(small_world, ErrorInjectionConfig(rate=0.6), seed=13)
    cfg = IterationConfig(
        k=2,
        goal_fraction=1.0,
        seed=13,
        train_mode=TrainMode.DPO,
        out_dir=tmp_path,
        iteration_index=1,
        pair_policy=PairPolicy.ALL,
    )
    report = run_iteration(small_world, cfg, backend)
    assert report.n_dialogs_unsuccessful > 0
    assert sum(report.histogram.values()) == 12
    assert sum(report.n_subgoal_samples.values()) > 0
    lines = (tmp_path / "dpo.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert set(record) == {
            "prompt", "chosen", "rejected", "kind", "goal_id", "dialog_id", "turn",
        }
        assert record["chosen"] != record["rejected"]


def test_map_goals_skips_failures_and_keeps_going():
    def fn(goal_id):
        if goal_id == "g-1":
            raise BackendError("backend fell over")
        return f"ok-{goal_id}"

    for workers in (1, 3):
        results, skipped = map_goals(["g-2", "g-1", "g-0"], fn, workers)
        assert results == {"g-0": "ok-g-0", "g-2": "ok-g-2"}
        assert skipped == [("g-1", "backend fell over")]


def test_map_goals_propagates_programming_errors():
    def fn(goal_id):
        raise ValueError("a bug, not a backend hiccup")

    for workers in (1, 3):
        with pytest.raises(ValueError, match="a bug"):
            map_goals(["g-0"], fn, workers)


def test_a_backend_error_from_the_handler_stops_the_run(small_world, tmp_path):
    # Fails at the parent, which listed it as the goal's skip after the goal was handled.
    cfg = IterationConfig(k=2, goal_fraction=1.0, seed=5, out_dir=tmp_path)
    handled = []

    def handle(group):
        handled.append(group.goal_id)
        raise BackendError("raised after the goal was handled")

    with pytest.raises(BackendError, match="raised after the goal was handled"):
        process_goals(small_world, cfg, ScriptedBackend(small_world), handle)
    assert handled == sorted(small_world.goals)[:1]


def test_a_turn_set_count_mismatch_stops_the_run(small_world, tmp_path, monkeypatch):
    cfg = IterationConfig(k=2, goal_fraction=1.0, seed=5, out_dir=tmp_path)
    run_iteration(small_world, cfg, ScriptedBackend(small_world))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    # One goal gets one turn set too few: a caller bug, not a skipped goal.
    short_goal = sorted(small_world.goals)[0]
    sample_dialogs = iteration.sample_dialogs

    def one_turn_set_short(*args, **kwargs):
        results = sample_dialogs(*args, **kwargs)
        if short_goal in results:
            results[short_goal] = results[short_goal][:-1]
        return results

    monkeypatch.setattr(iteration, "sample_dialogs", one_turn_set_short)
    with pytest.raises(ValueError, match="turn sample sets"):
        run_iteration(small_world, cfg, ScriptedBackend(small_world))
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_predict_greedy_reproduces_the_ground_truth(small_world):
    backend = ScriptedBackend(small_world)
    dialogs = list(small_world.dialogs[4:7])
    cfg = SamplingConfig(k=2, seed=0)
    assert predict_greedy(backend, dialogs, cfg, small_world.ontology) == (dialogs, [])


def test_replies_are_parsed_with_the_corpus_vocabulary(lodge_world):
    backend = ScriptedBackend(lodge_world)
    cfg = SamplingConfig(k=2, seed=0)
    dialog = next(
        d for d in lodge_world.dialogs if "lodge" in lodge_world.goals[d.goal_id].domains
    )
    acts = {(act.domain, act.act) for turn in dialog.turns for act in turn.system.acts}
    assert ("lodge", "suggest") in acts
    group = build_group(
        dialog, lodge_world.goals[dialog.goal_id], backend, cfg, 2, lodge_world.database
    )
    assert group.candidates[0].turns == dialog.turns
    assert predict_greedy(backend, [dialog], cfg, lodge_world.ontology) == ([dialog], [])
    # A MultiWOZ vocabulary would drop the lodge clauses.
    assert "lodge" not in MULTIWOZ_DOMAINS and "suggest" not in MULTIWOZ_ACT_VERBS


def test_write_jsonl_format(tmp_path):
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [{"b": 1, "a": 2}, {"text": "café"}])
    raw = path.read_text(encoding="utf-8")
    assert raw == '{"a": 2, "b": 1}\n{"text": "café"}\n'
    assert "\\u" not in raw


@pytest.mark.parametrize("command, outputs", [
    ("iterate", {"sft.jsonl", "report.json"}),
    ("sample", {"candidates.jsonl"}),
])
def test_a_run_that_dies_mid_stream_leaves_the_previous_outputs_whole(
    small_world, tmp_path, monkeypatch, capsys, command, outputs
):
    corpus, out = tmp_path / "corpus.json", tmp_path / "out"
    save_corpus(small_world, corpus)
    argv = [command, "--corpus", str(corpus), "--out", str(out), "--goal-fraction", "1.0",
            "--noise-rate", "0.5", "--seed", "13"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert set(before) == outputs

    # Blocks of two goals, and a backend that dies on the fifth goal's last
    # context: earlier blocks' records are appended before it dies.
    monkeypatch.setattr(iteration, "BLOCK_SIZE", 2)
    fifth = small_world.dialog_map()[sorted(small_world.goals)[4]]
    doomed = state_prompts(fifth.turns)[-1]
    make_backend = cli._make_backend

    def dying_backend(args, corpus):
        backend = make_backend(args, corpus)
        generate = backend.generate

        def dies_at_the_fifth_goal(prompt, *args, **kwargs):
            if prompt == doomed:
                raise RuntimeError("backend process died")
            return generate(prompt, *args, **kwargs)

        backend.generate = dies_at_the_fifth_goal
        return backend

    appended = []
    write = iteration.write_jsonl

    def recorded_write(path, records):
        records = list(records)
        if records:
            appended.append(Path(path).name)
        write(path, records)

    monkeypatch.setattr(cli, "_make_backend", dying_backend)
    monkeypatch.setattr(cli, "write_jsonl", recorded_write)
    monkeypatch.setattr(iteration, "write_jsonl", recorded_write)
    with pytest.raises(RuntimeError, match="backend process died"):
        cli.main(argv)
    assert set(appended) & outputs
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_an_iterate_run_builds_one_splice_evaluator_per_goal(small_world, tmp_path, monkeypatch):
    built = []

    class CountedEvaluator(SpliceEvaluator):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(subgoals, "SpliceEvaluator", CountedEvaluator)
    cfg = IterationConfig(k=2, goal_fraction=1.0, seed=13, out_dir=tmp_path)
    backend = ScriptedBackend(small_world, ErrorInjectionConfig(rate=0.6), seed=13)
    report = run_iteration(small_world, cfg, backend)
    # Detection ran on groups with failed candidates, and reused their labelling evaluator.
    assert report.n_dialogs_unsuccessful > 0
    assert sum(report.n_subgoal_samples.values()) > 0
    assert len(built) == report.n_goals_sampled == len(small_world.goals)


def test_the_report_counts_the_subgoal_samples_the_oracle_detects(small_world, tmp_path):
    # Pins behaviour that already holds: one sample per winner, turn and kind with a flip.
    cfg = IterationConfig(k=2, goal_fraction=1.0, seed=13, out_dir=tmp_path)

    def noisy():
        return ScriptedBackend(small_world, ErrorInjectionConfig(rate=0.6), seed=13)

    report = run_iteration(small_world, cfg, noisy())
    groups = []
    process_goals(small_world, cfg, noisy(), groups.append)
    db = small_world.database
    expected = {kind.value: 0 for kind in SubgoalKind}
    for group in groups:
        flips = detect([plain_dialog(d) for d in group.candidates], group.labels,
                       plain_goal(group.goal), plain_schemas(db), plain_tables(db))
        for _, _, kind in {flip[:3] for flip in flips}:
            expected[kind] += 1
    assert len(groups) == len(small_world.goals)
    assert all(expected.values())
    assert report.n_subgoal_samples == expected


def _injected_fragments(world, cfg, noisy, clean):
    """Each goal's injected fragments by ``(goal id, turn, kind)``, found from the replies alone.

    A fragment is injected when the noisy backend's ``k``-sample reply to the
    gold state prompt, or to its act prompt for the gold state, differs from
    the noise-free backend's at the same sample. A state fragment is its
    state; an act/response fragment is a system turn with the gold state.
    """
    sampling = cfg.sampling()
    domains, verbs = frozenset(world.ontology.domains), world.ontology.act_verbs()
    injected = {}
    for dialog in world.dialogs:
        for t, prompt in enumerate(state_prompts(dialog.turns)):
            gold = dialog.turns[t].system
            stages = (("state", prompt, SubgoalKind.STATE),
                      ("turn", act_prompt_text(prompt, gold.state), SubgoalKind.ACT_RESPONSE))
            for stage, stage_prompt, kind in stages:
                request = generation_request(stage_prompt, stage, sampling, greedy=False)
                replies = [
                    backend.generate(stage_prompt, request[1], greedy=False,
                                     temperature=request[3], seed=request[4])
                    for backend in (noisy, clean)
                ]
                for noisy_reply, clean_reply in zip(*replies):
                    if noisy_reply == clean_reply:
                        continue
                    if kind is SubgoalKind.STATE:
                        fragment = SystemTurn(state=parse_state(noisy_reply, domains=domains).state,
                                              acts=gold.acts, response=gold.response)
                    else:
                        parsed = parse_act_response(noisy_reply, domains=domains, verbs=verbs)
                        fragment = SystemTurn(state=gold.state, acts=parsed.acts,
                                              response=parsed.response)
                    injected.setdefault((dialog.goal_id, t, kind), []).append(fragment)
    return injected


def _same_fragment(kind, a, b):
    if kind is SubgoalKind.STATE:
        return a.state == b.state
    return (a.acts, a.response) == (b.acts, b.response)


@settings(max_examples=12, deadline=None)
@given(
    n_goals=st.integers(3, 40),
    world_seed=st.integers(0, 1000),
    k=st.integers(1, 3),
    rate=st.floats(0.2, 1.0),
    seed=st.integers(0, 1000),
)
def test_detection_rejects_exactly_the_harmful_injected_fragments(n_goals, world_seed, k, rate,
                                                                   seed):
    # Pins behaviour that already holds, on both sides of the injection oracle.
    world = build_world(n_goals, seed=world_seed, dev_goals=0)
    noisy = ScriptedBackend(world, ErrorInjectionConfig(rate=rate), seed=seed)
    cfg = IterationConfig(k=k, goal_fraction=1.0, seed=seed)
    injected = _injected_fragments(world, cfg, noisy, ScriptedBackend(world, seed=seed))
    db = world.database
    negatives = {}

    def handle(group):
        for sample in detect_subgoals(group, db):
            negatives.setdefault((sample.goal_id, sample.turn, sample.kind), []).extend(
                sample.negatives
            )

    labels, skipped = process_goals(world, cfg, noisy, handle)
    assert skipped == [] and len(labels) == len(world.goals)
    # Every negative is an injected fragment of its goal, turn and kind.
    for (goal_id, t, kind), found in negatives.items():
        for negative in found:
            assert any(_same_fragment(kind, negative, fragment)
                       for fragment in injected.get((goal_id, t, kind), ()))
    # Every injected fragment that alone breaks the gold dialog is a negative of its goal.
    dialogs = world.dialog_map()
    for (goal_id, t, kind), fragments in injected.items():
        if not any(labels[goal_id]):
            continue
        goal = world.goals[goal_id]
        for fragment in fragments:
            if dialog_success(replace_turn(dialogs[goal_id], t, kind, fragment), goal, db):
                continue
            assert any(_same_fragment(kind, fragment, negative)
                       for negative in negatives.get((goal_id, t, kind), ()))


@pytest.fixture(scope="module")
def shared_world():
    """40 goals whose templated dialogs repeat ten contexts across goals."""
    return build_world(40, seed=7, dev_goals=3)


def _goals_by_prompt(world):
    """The goals whose dialog has each state prompt, in goal order."""
    goals = {}
    dialogs = world.dialog_map()
    for goal_id in sorted(world.goals):
        for prompt in state_prompts(dialogs[goal_id].turns):
            goals.setdefault(prompt, []).append(goal_id)
    return goals


class RecordingBackend:
    """Answers like ``backend`` and records each request.

    A request in ``refusals`` fails as many times as it maps to.
    """

    def __init__(self, backend, refusals=()):
        self.backend = backend
        self.refusals = dict(refusals)
        self.calls = []

    def generate(self, prompt, n, *, greedy, temperature=1.0, seed=0, max_tokens=256):
        request = (prompt, n, greedy, temperature, seed, max_tokens)
        self.calls.append(request)
        if self.refusals.get(request):
            self.refusals[request] -= 1
            raise BackendError("refused")
        return self.backend.generate(
            prompt, n, greedy=greedy, temperature=temperature, seed=seed, max_tokens=max_tokens
        )

    def close(self):
        self.backend.close()


def test_a_run_sends_each_distinct_request_once(shared_world, tmp_path, monkeypatch):
    # Without dev dialogs, whose greedy rollout samples on its own.
    world = dataclasses.replace(shared_world, dev_dialogs=(), dev_goals={})
    assert any(len(goals) > 1 for goals in _goals_by_prompt(world).values())
    act_prompts = []
    act_prompt_text = sampling.act_prompt_text

    def recorded_act_prompt_text(state_prompt, state):
        act_prompts.append((state_prompt, state_text(state)))
        return act_prompt_text(state_prompt, state)

    monkeypatch.setattr(sampling, "act_prompt_text", recorded_act_prompt_text)
    # Goals that share a context sit in different blocks.
    monkeypatch.setattr(iteration, "BLOCK_SIZE", 1)
    backend = RecordingBackend(ScriptedBackend(world, ErrorInjectionConfig(rate=0.5), seed=3))
    cfg = IterationConfig(k=2, goal_fraction=1.0, seed=3, out_dir=tmp_path)
    report = run_iteration(world, cfg, backend)
    assert report.n_goals_sampled == len(world.goals)
    assert len(backend.calls) == len(set(backend.calls))
    assert act_prompts
    assert len(act_prompts) == len(set(act_prompts))


def test_a_failed_shared_request_is_sent_again_by_a_later_block(
    shared_world, tmp_path, monkeypatch
):
    world = dataclasses.replace(shared_world, dev_dialogs=(), dev_goals={})
    prompt, goals = next(
        (prompt, goals) for prompt, goals in _goals_by_prompt(world).items() if len(goals) > 1
    )
    cfg = IterationConfig(k=2, goal_fraction=1.0, seed=3, out_dir=tmp_path)
    refused = generation_request(prompt, "state", cfg.sampling(), greedy=True)
    backend = RecordingBackend(ScriptedBackend(world), {refused: 1})
    # The first goal with the context has a block to itself.
    monkeypatch.setattr(iteration, "BLOCK_SIZE", 1)
    report = run_iteration(world, cfg, backend)
    assert [goal_id for goal_id, _ in report.skipped] == goals[:1]
    assert report.n_goals_sampled == len(world.goals) - 1
    assert backend.calls.count(refused) == 2


@pytest.mark.parametrize("failed", [1, 3])
def test_a_failed_dev_request_skips_only_its_dev_dialog(
    failed, shared_world, tmp_path, monkeypatch, capsys
):
    """A failed dev request skips that dev dialog; the run still writes its records and report."""
    training = _goals_by_prompt(shared_world)
    dev = shared_world.dev_dialogs
    cfg = IterationConfig(k=2, goal_fraction=1.0, seed=3, out_dir=tmp_path)
    refusals = {}
    for dialog in dev[:failed]:
        prompt = state_prompts(dialog.turns)[-1]
        assert prompt not in training
        refusals[generation_request(prompt, "state", cfg.sampling(), greedy=True)] = 1
    monkeypatch.setattr(
        cli, "_make_backend",
        lambda args, corpus: RecordingBackend(ScriptedBackend(corpus), refusals),
    )
    corpus = tmp_path / "corpus.json"
    save_corpus(shared_world, corpus)
    out = tmp_path / "out"
    assert cli.main(["iterate", "--corpus", str(corpus), "--out", str(out),
                     "--goal-fraction", "1.0", "--seed", "3"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report == json.loads(capsys.readouterr().out)
    assert report["n_goals_sampled"] == len(shared_world.goals)
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "sft.jsonl"]
    assert report["dev_skipped"] == [[dialog.id, "refused"] for dialog in dev[:failed]]
    predicted = dev[failed:]
    if predicted:
        # The scripted backend's greedy rollout is the ground truth.
        assert report["dev_eval"] == evaluate_corpus(
            predicted, shared_world.dev_goals, shared_world.database,
            shared_world.dev_references(),
        ).to_dict()
    else:
        assert report["dev_eval"] is None
    assert IterationReport.from_dict(report).to_dict() == report
    del report["dev_skipped"]  # as in a report written before the field existed
    assert IterationReport.from_dict(report).dev_skipped == ()


def test_outputs_do_not_depend_on_the_block_size(shared_world, tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus.json"
    save_corpus(shared_world, corpus)
    flags = ["--corpus", str(corpus), "--goal-fraction", "1.0", "--seed", "5",
             "--noise-rate", "0.5"]
    outputs = {}
    for size in (1, 3, 32, len(shared_world.goals)):
        monkeypatch.setattr(iteration, "BLOCK_SIZE", size)
        direct, staged = tmp_path / f"iterate-{size}", tmp_path / f"staged-{size}"
        assert cli.main(["iterate", *flags, "--out", str(direct), "--mode", "dpo",
                         "--pair-policy", "all"]) == 0
        assert cli.main(["sample", *flags, "--out", str(staged)]) == 0
        assert cli.main(["detect", "--corpus", str(corpus), "--candidates",
                         str(staged / "candidates.jsonl"), "--mode", "both",
                         "--pair-policy", "all", "--out", str(staged)]) == 0
        capsys.readouterr()
        outputs[size] = {
            f"{kind}/{path.name}": path.read_bytes()
            for kind, out in (("iterate", direct), ("staged", staged))
            for path in out.iterdir()
        }
    first = outputs[1]
    assert set(first) == {
        "iterate/dpo.jsonl", "iterate/report.json",
        "staged/candidates.jsonl", "staged/sft.jsonl", "staged/dpo.jsonl",
    }
    assert first["iterate/dpo.jsonl"] and first["staged/sft.jsonl"]
    assert all(output == first for output in outputs.values())


def test_outputs_do_not_depend_on_hash_randomization(shared_world, tmp_path):
    """Runs under two ``PYTHONHASHSEED`` values write the same bytes."""
    corpus = tmp_path / "corpus.json"
    save_corpus(shared_world, corpus)
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash-seed-{hash_seed}"
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
            "PYTHONHASHSEED": hash_seed,
        }
        run = subprocess.run(
            [sys.executable, "-m", "subtod.cli", "iterate", "--corpus", str(corpus),
             "--out", str(out), "--goal-fraction", "1.0", "--seed", "5", "--noise-rate", "0.5",
             "--mode", "dpo", "--pair-policy", "all"],
            check=True, env=env, capture_output=True,
        )
        outputs.append({"stdout": run.stdout, **{p.name: p.read_bytes() for p in out.iterdir()}})
    assert set(outputs[0]) == {"stdout", "dpo.jsonl", "report.json"}
    assert outputs[0]["dpo.jsonl"]
    assert outputs[0] == outputs[1]


def test_a_goals_records_do_not_depend_on_the_other_goals(shared_world, tmp_path):
    """With ``PairPolicy.FIRST``, a goal run alone gets the records it gets among every goal.

    The paper detects subgoals per goal. Both runs build the backend from the
    full corpus: ``ScriptedBackend`` answers a shared context from the first
    corpus dialog that has it, so a one-goal corpus would change the noise.
    """
    world = dataclasses.replace(shared_world, dev_dialogs=(), dev_goals={})

    def records(corpus, out):
        backend = ScriptedBackend(world, ErrorInjectionConfig(rate=0.5), seed=3)
        cfg = IterationConfig(k=2, goal_fraction=1.0, seed=3, train_mode=TrainMode.DPO,
                              out_dir=out, pair_policy=PairPolicy.FIRST)
        run_iteration(corpus, cfg, backend)
        by_goal = {}
        for line in (out / "dpo.jsonl").read_text(encoding="utf-8").splitlines():
            by_goal.setdefault(json.loads(line)["goal_id"], []).append(line)
        return by_goal

    together = records(world, tmp_path / "together")
    assert len(together) >= 5
    for dialog in world.dialogs:
        goal_id = dialog.goal_id
        alone = dataclasses.replace(world, dialogs=(dialog,), goals={goal_id: world.goals[goal_id]})
        expected = {goal_id: together[goal_id]} if goal_id in together else {}
        assert records(alone, tmp_path / goal_id) == expected
