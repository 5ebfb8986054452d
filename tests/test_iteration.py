"""Iteration driver: subsampling, stopping, worker parity, report round trips."""

import json
import sys

import pytest

from subtod.backends import BackendError, ErrorInjectionConfig, ScriptedBackend
from subtod.iteration import (
    IterationConfig,
    IterationReport,
    LoopHistory,
    TrainMode,
    build_group,
    map_goals,
    predict_greedy,
    run_iteration,
    should_stop,
    subsample_goals,
    write_jsonl,
)
from subtod import verbalize
from subtod.sampling import SamplingConfig
from subtod.subgoals import PairPolicy
from subtod.verbalize import DEFAULT_ACT_VERBS, DEFAULT_DOMAINS


def test_iteration_config_validates_its_knobs(tmp_path):
    with pytest.raises(ValueError, match="goal_fraction"):
        IterationConfig(goal_fraction=0.0)
    with pytest.raises(ValueError, match="workers"):
        IterationConfig(workers=0)
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


def test_should_stop_compares_the_last_two_entries():
    assert should_stop([(0, 100.0)]) is False
    assert should_stop([(0, 100.0), (1, 101.2)]) is False
    assert should_stop([(0, 100.0), (1, 99.0)]) is True
    assert should_stop([(0, 100.0), (1, 100.0)]) is True
    assert should_stop([100.0, 101.2, 101.0]) is True
    with pytest.raises(ValueError, match="at least one entry"):
        should_stop([])


def test_loop_history_requires_increasing_iterations():
    history = LoopHistory()
    history.record(0, 100.0)
    history.record(2, 101.0)
    assert should_stop(history) is False
    with pytest.raises(ValueError, match="does not follow"):
        history.record(2, 102.0)
    assert history.entries == [(0, 100.0), (2, 101.0)]


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


def test_run_iteration_bytes_match_across_worker_counts(small_world, tmp_path):
    # The threaded run goes first, on cold memos and with a fast thread
    # switch, so that its threads race to fill the parse memos and the
    # backend's per-site caches that they share.
    verbalize._parse_state.cache_clear()
    verbalize._parse_act_response.cache_clear()
    switch = sys.getswitchinterval()
    outputs = {}
    for workers in (4, 1):
        out = tmp_path / f"w{workers}"
        cfg = IterationConfig(
            k=2,
            goal_fraction=1.0,
            seed=13,
            train_mode=TrainMode.DPO,
            out_dir=out,
            workers=workers,
            pair_policy=PairPolicy.ALL,
        )
        backend = ScriptedBackend(small_world, ErrorInjectionConfig(rate=0.6), seed=13)
        sys.setswitchinterval(1e-6 if workers > 1 else switch)
        try:
            run_iteration(small_world, cfg, backend)
        finally:
            sys.setswitchinterval(switch)
        outputs[workers] = (
            (out / "dpo.jsonl").read_bytes(),
            (out / "report.json").read_bytes(),
        )
    assert outputs[1] == outputs[4]


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


def test_predict_greedy_reproduces_the_ground_truth(small_world):
    backend = ScriptedBackend(small_world)
    dialogs = list(small_world.dialogs[4:7])
    cfg = SamplingConfig(k=2, seed=0)
    assert predict_greedy(backend, dialogs, cfg, small_world.ontology) == dialogs


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
    assert predict_greedy(backend, [dialog], cfg, lodge_world.ontology) == [dialog]
    # The parsers' default vocabulary would drop the lodge clauses.
    assert "lodge" not in DEFAULT_DOMAINS and "suggest" not in DEFAULT_ACT_VERBS


def test_write_jsonl_format(tmp_path):
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [{"b": 1, "a": 2}, {"text": "café"}])
    raw = path.read_text(encoding="utf-8")
    assert raw == '{"a": 2, "b": 1}\n{"text": "café"}\n'
    assert "\\u" not in raw
