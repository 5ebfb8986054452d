"""End-to-end command-line behavior: flows, output files, exit codes."""

import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import subtod
from subtod.backends import ErrorInjectionConfig, ScriptedBackend
from subtod.cli import main
from subtod.corpus import dialog_to_dict, load_corpus, save_corpus
from subtod.evaluate import DOMAIN_COLUMN_ORDER
from subtod.synthetic import build_world


@pytest.fixture(scope="module")
def corpus10(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.json"
    corpus = build_world(10, seed=17, dev_goals=2)
    save_corpus(corpus, path)
    return corpus, str(path)


@pytest.fixture(scope="module")
def corpus1(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-tiny") / "corpus.json"
    save_corpus(build_world(1, seed=23, dev_goals=1), path)
    return str(path)


def _closed_port_url():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"http://127.0.0.1:{port}/v1/completions"


def _stdout_json(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_synth_writes_a_loadable_corpus(tmp_path, capsys):
    out = tmp_path / "corpus.json"
    assert main(["synth", "--goals", "6", "--seed", "3", "--out", str(out)]) == 0
    summary = _stdout_json(capsys)
    assert summary["n_goals"] == 6
    assert summary["corpus"] == str(out)
    corpus = load_corpus(out)
    assert len(corpus.dialogs) == 6
    first = out.read_bytes()
    assert main(["synth", "--goals", "6", "--seed", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_evaluate_perfect_predictions(corpus10, tmp_path, capsys):
    corpus, path = corpus10
    predictions = tmp_path / "pred.json"
    predictions.write_text(
        json.dumps({"dialogs": [dialog_to_dict(d) for d in corpus.dialogs]})
    )
    assert main(["evaluate", "--corpus", path, "--predictions", str(predictions)]) == 0
    report = _stdout_json(capsys)
    assert report["bleu"] == pytest.approx(100.0, abs=1e-6)
    assert report["inform"] == 100.0
    assert report["success"] == 100.0
    assert report["n_dialogs"] == 10


def test_evaluate_counts_partial_success(corpus10, tmp_path, capsys):
    corpus, path = corpus10
    entries = []
    for i, dialog in enumerate(corpus.dialogs):
        entry = dialog_to_dict(dialog)
        if i < 3:
            for turn in entry["turns"]:
                turn["response"] = re.sub(r"\[\w+\]", "", turn["response"])
        entries.append(entry)
    predictions = tmp_path / "pred.json"
    predictions.write_text(json.dumps({"dialogs": entries}))
    assert main(["evaluate", "--corpus", path, "--predictions", str(predictions)]) == 0
    report = _stdout_json(capsys)
    assert report["success"] == 70.0


def test_evaluate_per_domain_table(corpus10, tmp_path, capsys):
    corpus, path = corpus10
    predictions = tmp_path / "pred.json"
    predictions.write_text(
        json.dumps({"dialogs": [dialog_to_dict(d) for d in corpus.dialogs]})
    )
    assert main([
        "evaluate", "--corpus", path, "--predictions", str(predictions), "--per-domain",
    ]) == 0
    blob, table = capsys.readouterr().out.split("\n\n", 1)
    report = json.loads(blob)
    lines = table.strip().splitlines()
    assert lines[0].split() == ["domain", "inform", "success"]
    rows = [line.split()[0] for line in lines[1:]]
    assert sorted(rows) == sorted(report["per_domain"])
    assert rows == [d for d in DOMAIN_COLUMN_ORDER if d in report["per_domain"]]


def test_evaluate_rejects_malformed_inputs(corpus10, tmp_path, capsys):
    _, path = corpus10
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["evaluate", "--corpus", path, "--predictions", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err
    assert "line" in err

    assert main([
        "evaluate", "--corpus", path, "--predictions", str(tmp_path / "nowhere.json"),
    ]) == 2

    stray = tmp_path / "stray.json"
    stray.write_text(json.dumps({"dialogs": [
        {"id": "ghost", "turns": [{"user": "hi", "response": "hello."}]}
    ]}))
    assert main(["evaluate", "--corpus", path, "--predictions", str(stray)]) == 2
    assert "ghost" in capsys.readouterr().err


def test_sample_writes_labeled_candidate_groups(corpus10, tmp_path, capsys):
    _, path = corpus10
    out = tmp_path / "samples"
    args = [
        "sample", "--corpus", path, "--out", str(out),
        "--goal-fraction", "1.0", "--seed", "5",
    ]
    assert main(args) == 0
    summary = _stdout_json(capsys)
    assert summary["n_goals"] == 10
    assert summary["n_candidates"] == 50
    assert summary["n_successful"] == 50
    assert summary["n_unsuccessful"] == 0
    assert summary["skipped"] == []
    lines = (out / "candidates.jsonl").read_text().splitlines()
    assert len(lines) == 10
    group = json.loads(lines[0])
    assert len(group["candidates"]) == 5
    assert all(c["success"] is True for c in group["candidates"])

    first = (out / "candidates.jsonl").read_bytes()
    assert main(args) == 0
    capsys.readouterr()
    assert (out / "candidates.jsonl").read_bytes() == first


def test_detect_matches_iterate_output(corpus10, tmp_path, capsys):
    _, path = corpus10
    flags = ["--goal-fraction", "1.0", "--seed", "9", "--noise-rate", "0.5"]
    direct = tmp_path / "direct"
    assert main(["iterate", "--corpus", path, "--out", str(direct),
                 "--mode", "sft", *flags]) == 0
    report = _stdout_json(capsys)
    assert report["n_dialogs_unsuccessful"] > 0

    staged = tmp_path / "staged"
    assert main(["sample", "--corpus", path, "--out", str(staged), *flags]) == 0
    capsys.readouterr()
    assert main([
        "detect", "--corpus", path, "--candidates", str(staged / "candidates.jsonl"),
        "--mode", "both", "--out", str(staged),
    ]) == 0
    written = _stdout_json(capsys)["written"]
    assert written["sft.jsonl"] == len((staged / "sft.jsonl").read_text().splitlines())
    assert written["dpo.jsonl"] == len((staged / "dpo.jsonl").read_text().splitlines())
    assert written["sft.jsonl"] > 0
    assert (staged / "sft.jsonl").read_bytes() == (direct / "sft.jsonl").read_bytes()


def test_iterate_on_the_ten_goal_fixture(corpus10, tmp_path, capsys):
    _, path = corpus10
    out = tmp_path / "iter0"
    assert main([
        "iterate", "--corpus", path, "--out", str(out),
        "--goal-fraction", "1.0", "--mode", "sft",
    ]) == 0
    report = _stdout_json(capsys)
    assert report["n_goals_sampled"] == 10
    assert report["n_dialogs_successful"] + report["n_dialogs_unsuccessful"] == 50
    assert (out / "sft.jsonl").exists()
    assert not (out / "dpo.jsonl").exists()

    dpo_out = tmp_path / "iter1"
    assert main([
        "iterate", "--corpus", path, "--out", str(dpo_out),
        "--goal-fraction", "1.0", "--mode", "dpo",
    ]) == 0
    capsys.readouterr()
    assert (dpo_out / "dpo.jsonl").exists()
    assert not (dpo_out / "sft.jsonl").exists()


def test_iterate_over_http_matches_scripted(corpus10, tmp_path, capsys,
                                            completion_server, monkeypatch):
    _, path = corpus10
    completion_server.serve_backend(
        ScriptedBackend(load_corpus(path), ErrorInjectionConfig(rate=0.5), seed=7)
    )
    # The env var must win over a bogus --url.
    monkeypatch.setenv("SUIT_BACKEND_URL", completion_server.url)
    runs = (
        ("sft.jsonl", ["--mode", "sft", "--workers", "1"]),
        ("sft.jsonl", ["--mode", "sft", "--workers", "2"]),
        ("dpo.jsonl", ["--mode", "dpo", "--pair-policy", "all", "--workers", "2"]),
    )
    for i, (data_name, flags) in enumerate(runs):
        common = ["iterate", "--corpus", path, "--goal-fraction", "1.0", "--seed", "7", *flags]
        scripted_out = tmp_path / f"scripted{i}"
        assert main([*common, "--out", str(scripted_out), "--noise-rate", "0.5"]) == 0
        http_out = tmp_path / f"http{i}"
        assert main([
            *common, "--out", str(http_out),
            "--backend", "http", "--url", "http://127.0.0.1:1/unused",
        ]) == 0
        capsys.readouterr()
        for name in (data_name, "report.json"):
            assert (http_out / name).read_bytes() == (scripted_out / name).read_bytes(), flags


def test_warm_memos_do_not_leak_between_runs(small_world, lodge_world, tmp_path, capsys):
    """A run after another corpus's run writes what a run in a fresh process writes.

    The two corpora differ in vocabulary but share every context without a
    hotel, and the first run uses another seed, so its noise differs.
    """
    first, corpus = tmp_path / "first.json", tmp_path / "lodge.json"
    save_corpus(small_world, first)
    save_corpus(lodge_world, corpus)
    common = ["--goal-fraction", "1.0", "--k", "3", "--noise-rate", "0.5"]
    first_run = ["iterate", "--corpus", str(first), "--out", str(tmp_path / "first"), "--seed", "6"]
    assert main([*first_run, *common]) == 0
    common += ["--seed", "5"]
    env = {**os.environ, "PYTHONPATH": str(Path(subtod.__file__).resolve().parents[1])}
    for data_name, flags in (
        ("sft.jsonl", ["--mode", "sft"]),
        ("dpo.jsonl", ["--mode", "dpo", "--pair-policy", "all"]),
    ):
        argv = ["iterate", "--corpus", str(corpus), *common, *flags]
        warm, fresh = tmp_path / f"warm-{data_name}", tmp_path / f"fresh-{data_name}"
        assert main([*argv, "--out", str(warm)]) == 0
        subprocess.run(
            [sys.executable, "-m", "subtod.cli", *argv, "--out", str(fresh)],
            check=True, env=env, capture_output=True,
        )
        assert (warm / data_name).stat().st_size > 0
        for name in (data_name, "report.json"):
            assert (warm / name).read_bytes() == (fresh / name).read_bytes()
    capsys.readouterr()


def test_http_backend_requires_a_url(corpus10, tmp_path, capsys, monkeypatch):
    _, path = corpus10
    monkeypatch.delenv("SUIT_BACKEND_URL", raising=False)
    assert main([
        "iterate", "--corpus", path, "--out", str(tmp_path), "--backend", "http",
    ]) == 2
    assert "SUIT_BACKEND_URL" in capsys.readouterr().err


def test_unreachable_backend_exits_3(corpus1, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SUIT_BACKEND_URL", raising=False)
    # The retry backoff is real time; skip it.
    monkeypatch.setattr("subtod.backends.time.sleep", lambda seconds: None)
    url = _closed_port_url()
    assert main([
        "iterate", "--corpus", corpus1, "--out", str(tmp_path / "a"),
        "--backend", "http", "--url", url, "--goal-fraction", "1.0",
    ]) == 3
    assert "backend" in capsys.readouterr().err.lower()

    assert main([
        "sample", "--corpus", corpus1, "--out", str(tmp_path / "b"),
        "--backend", "http", "--url", url, "--goal-fraction", "1.0",
    ]) == 3


def test_stats_renders_sorted_fixed_width_rows(corpus10, tmp_path, capsys):
    _, path = corpus10
    reports = []
    for index, mode in ((1, "dpo"), (0, "sft")):
        out = tmp_path / f"iter{index}"
        assert main([
            "iterate", "--corpus", path, "--out", str(out), "--mode", mode,
            "--goal-fraction", "1.0", "--iteration", str(index),
            "--noise-rate", "0.4", "--seed", "2",
        ]) == 0
        reports.append(str(out / "report.json"))
    capsys.readouterr()

    assert main(["stats", "--report", reports[0], "--report", reports[1]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    header = lines[0].split()
    assert header == [
        "iter", "mode", "goals", "success", "unsuccess",
        "0", "1", "2", "3", "4", "5", "state", "act_response",
    ]
    first_row = lines[1].split()
    second_row = lines[2].split()
    assert [first_row[0], second_row[0]] == ["0", "1"]
    assert [first_row[1], second_row[1]] == ["sft", "dpo"]
    assert all(len(line) == len(lines[0]) for line in lines[1:])

    stored = json.loads((tmp_path / "iter0" / "report.json").read_text())
    assert first_row[2] == str(stored["n_goals_sampled"])
    assert first_row[3] == str(stored["n_dialogs_successful"])


def test_stats_missing_report_exits_2(tmp_path, capsys):
    assert main(["stats", "--report", str(tmp_path / "missing.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_argparse_rejects_unknown_commands():
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 2
