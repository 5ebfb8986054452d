"""End-to-end command-line behavior: flows, output files, exit codes."""

import gc
import json
import os
import re
import socket
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    assert err.startswith(f"error: {broken}: malformed JSON: line 1 column 2: ")

    assert main(["evaluate", "--corpus", str(broken), "--predictions", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {broken}: malformed JSON: line 1 column 2: ")

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


def test_detect_requires_strictly_ascending_goal_ids(corpus10, tmp_path, capsys):
    _, path = corpus10
    out = tmp_path / "staged"
    flags = ["--goal-fraction", "1.0", "--seed", "9", "--noise-rate", "0.5"]
    assert main(["sample", "--corpus", path, "--out", str(out), *flags]) == 0
    candidates = out / "candidates.jsonl"
    detect = ["detect", "--corpus", path, "--mode", "both", "--out", str(out)]
    assert main([*detect, "--candidates", str(candidates)]) == 0
    capsys.readouterr()
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    lines = candidates.read_text(encoding="utf-8").splitlines(keepends=True)
    for name, bad in (("swapped", [lines[1], lines[0], *lines[2:]]),
                      ("repeated", [*lines[:3], lines[2], *lines[3:]])):
        bad_file = tmp_path / f"{name}.jsonl"
        bad_file.write_text("".join(bad), encoding="utf-8")
        assert main([*detect, "--candidates", str(bad_file)]) == 2
        err = capsys.readouterr().err
        line = 2 if name == "swapped" else 4
        assert f"{bad_file} line {line}: goal id" in err
        assert "strictly ascending" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _staged_candidates(corpus10, tmp_path):
    """``sample``'s candidates file for ``corpus10``, the detect command line, and its out dir."""
    _, path = corpus10
    out = tmp_path / "staged"
    flags = ["--goal-fraction", "1.0", "--seed", "9", "--noise-rate", "0.5"]
    assert main(["sample", "--corpus", path, "--out", str(out), *flags]) == 0
    detect = ["detect", "--corpus", path, "--mode", "both", "--out", str(out)]
    return out / "candidates.jsonl", detect, out


def test_detect_rejects_a_goal_id_outside_the_corpus(corpus10, tmp_path, capsys):
    candidates, detect, out = _staged_candidates(corpus10, tmp_path)
    capsys.readouterr()
    lines = candidates.read_text(encoding="utf-8").splitlines(keepends=True)
    entry = json.loads(lines[-1])
    entry["goal_id"] = "zz-unknown"
    bad_file = tmp_path / "unknown.jsonl"
    bad_file.write_text("".join([*lines[:-1], json.dumps(entry) + "\n"]), encoding="utf-8")
    assert main([*detect, "--candidates", str(bad_file)]) == 2
    err = capsys.readouterr().err
    assert f"{bad_file} line {len(lines)}: goal id 'zz-unknown' is not a goal of the corpus" in err
    assert not (out / "sft.jsonl").exists()


def test_detect_rejects_success_labels_that_are_not_booleans(corpus10, tmp_path, capsys):
    candidates, detect, out = _staged_candidates(corpus10, tmp_path)
    capsys.readouterr()
    lines = candidates.read_text(encoding="utf-8").splitlines(keepends=True)
    entry = json.loads(lines[1])
    for candidate in entry["candidates"]:
        candidate["success"] = "false"
    bad_file = tmp_path / "strings.jsonl"
    bad_file.write_text("".join([lines[0], json.dumps(entry) + "\n", *lines[2:]]), encoding="utf-8")
    assert main([*detect, "--candidates", str(bad_file)]) == 2
    err = capsys.readouterr().err
    assert f'{bad_file} line 2: a candidate\'s "success" is not true or false' in err
    assert not (out / "sft.jsonl").exists()


@pytest.mark.parametrize(
    "case",
    [
        "ontology", "turn state", "candidates line", "candidates json", "candidate act",
        "prediction turns",
        "dialog id", "user", "response", "state value", "informable", "name_slot",
        "entity_bearing", "database value", "goal constraint", "goal request",
        "candidate act verb", "candidate act booking", "prediction goal id",
    ],
)
def test_a_json_value_of_the_wrong_type_exits_2_and_names_its_place(
    case, corpus10, tmp_path, capsys
):
    """Each case exits 2 with a message naming the file and the place, never a TypeError."""
    corpus, path = corpus10
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    dialog = dialog_to_dict(corpus.dialogs[0])
    candidates = [{"goal_id": dialog["goal_id"], "candidates": [{**dialog, "success": True}]}]
    predictions = {"dialogs": [dialog]}
    if case == "ontology":
        data["ontology"] = []
        expected = "corpus.json: corpus['ontology']: expected an object, got []"
    elif case == "turn state":
        data["dialogs"][0]["turns"][0]["state"] = []
        expected = (f"corpus.json: dialog {dialog['id']!r}['turns'][0]['state']: "
                    "expected an object, got []")
    elif case == "candidates line":
        candidates = [[1, 2]]
        expected = "candidates.jsonl line 1: expected an object, got [1, 2]"
    elif case == "candidates json":
        candidates = [*candidates, '{"goal_id": }']
        expected = "candidates.jsonl line 2: malformed JSON: column 13: Expecting value"
    elif case == "candidate act":
        candidates[0]["candidates"][0]["turns"][0]["acts"] = [1]
        expected = ("candidates.jsonl line 1: candidates[0]['turns'][0]['acts'][0]: "
                    "expected an object, got 1")
    elif case == "prediction turns":
        dialog["turns"] = "abc"
        expected = "predictions.json['dialogs'][0]['turns']: expected an array, got \"abc\""
    elif case == "dialog id":
        data["dialogs"][0]["id"] = 5
        expected = "corpus.json: dialog 5['id']: expected a string, got 5"
    elif case in ("user", "response"):
        value = {"user": ["x"], "response": 1}[case]
        data["dialogs"][0]["turns"][0][case] = value
        expected = (f"corpus.json: dialog {dialog['id']!r}['turns'][0][{case!r}]: "
                    f"expected a string, got {json.dumps(value)}")
    elif case == "state value":
        [(domain, slots), *_] = data["dialogs"][0]["turns"][0]["state"].items()
        [slot, *_] = slots
        slots[slot] = 3
        expected = (f"corpus.json: dialog {dialog['id']!r}['turns'][0]['state']"
                    f"[{domain!r}][{slot!r}]: "
                    "expected a string, got 3")
    elif case in ("informable", "name_slot", "entity_bearing"):
        value, kind = {
            "informable": ("area", "an array"),
            "name_slot": (1, "a string"),
            "entity_bearing": ("yes", "true or false"),
        }[case]
        data["ontology"]["hotel"][case] = value
        expected = (f"corpus.json: corpus['ontology']['hotel'][{case!r}]: "
                    f"expected {kind}, got {json.dumps(value)}")
    elif case == "database value":
        data["database"]["hotel"][2]["area"] = 3
        expected = "corpus.json: corpus['database']['hotel'][2]['area']: expected a string, got 3"
    elif case == "goal constraint":
        [(domain, entry), *_] = data["dialogs"][0]["goal"].items()
        [slot, *_] = entry["constraints"]
        entry["constraints"][slot] = 3
        expected = (f"corpus.json: dialog {dialog['id']!r}['goal'][{domain!r}]"
                    f"['constraints'][{slot!r}]: "
                    "expected a string, got 3")
    elif case == "goal request":
        [(domain, entry), *_] = data["dialogs"][0]["goal"].items()
        entry["requests"] = [1]
        expected = (f"corpus.json: dialog {dialog['id']!r}['goal'][{domain!r}]['requests'][0]: "
                    "expected a string, got 1")
    elif case in ("candidate act verb", "candidate act booking"):
        key, value, kind = {
            "candidate act verb": ("act", 7, "a string"),
            "candidate act booking": ("booking", "yes", "true or false"),
        }[case]
        candidates[0]["candidates"][0]["turns"][0]["acts"][0][key] = value
        expected = (f"candidates.jsonl line 1: candidates[0]['turns'][0]['acts'][0][{key!r}]: "
                    f"expected {kind}, got {json.dumps(value)}")
    else:
        dialog["goal_id"] = 5
        expected = "predictions.json['dialogs'][0]['goal_id']: expected a string, got 5"
    for name, value in (("corpus.json", data), ("predictions.json", predictions)):
        (tmp_path / name).write_text(json.dumps(value), encoding="utf-8")
    # A string is a line as it stands, JSON or not.
    (tmp_path / "candidates.jsonl").write_text(
        "".join((line if isinstance(line, str) else json.dumps(line)) + "\n" for line in candidates),
        encoding="utf-8",
    )
    if case.startswith("candidate"):
        command = ["detect", "--candidates", str(tmp_path / "candidates.jsonl"),
                   "--out", str(tmp_path / "out")]
    else:
        command = ["evaluate", "--predictions", str(tmp_path / "predictions.json")]
    assert main([*command, "--corpus", str(tmp_path / "corpus.json")]) == 2
    # The message starts with the path of the file, then names the place in it.
    assert capsys.readouterr().err.startswith(f"error: {tmp_path}{os.sep}{expected}")


# (file, path to the record, required key deleted from it, the place the message names)
MISSING_KEY_CASES = [
    ("corpus.json", ("dialogs", 0, "turns", 1), "user", "corpus.json: dialog {id!r}['turns'][1]"),
    ("corpus.json", ("dialogs", 0, "turns", 0, "acts", 0), "act",
     "corpus.json: dialog {id!r}['turns'][0]['acts'][0]"),
    ("corpus.json", ("dialogs", 0), "turns", "corpus.json: dialog {id!r}"),
    ("corpus.json", ("dev_dialogs", 1), "id", "corpus.json: dev_dialogs[1]"),
    ("predictions.json", ("dialogs", 0), "id", "predictions.json['dialogs'][0]"),
    ("predictions.json", ("dialogs", 0, "turns", 0), "response",
     "predictions.json['dialogs'][0]['turns'][0]"),
    ("candidates.jsonl", (0,), "goal_id", "candidates.jsonl line 1"),
    ("candidates.jsonl", (0, "candidates", 0), "success", "candidates.jsonl line 1: candidates[0]"),
    ("candidates.jsonl", (0, "candidates", 0, "turns", 0), "response",
     "candidates.jsonl line 1: candidates[0]['turns'][0]"),
]


@pytest.mark.parametrize(
    "name, path, key, place",
    MISSING_KEY_CASES,
    ids=[f"{name}-{'-'.join(map(str, path))}-{key}" for name, path, key, _ in MISSING_KEY_CASES],
)
def test_a_missing_required_key_exits_2_and_names_its_place(
    name, path, key, place, corpus10, tmp_path, capsys
):
    corpus, corpus_path = corpus10
    dialog_id = corpus.dialogs[0].id
    files = {
        "corpus.json": json.loads(Path(corpus_path).read_text(encoding="utf-8")),
        "predictions.json": {"dialogs": [dialog_to_dict(corpus.dialogs[0])]},
        "candidates.jsonl": [{
            "goal_id": dialog_id,
            "candidates": [{**dialog_to_dict(corpus.dialogs[0]), "success": True}],
        }],
    }
    record = files[name]
    for step in path:
        record = record[step]
    del record[key]
    for file, value in files.items():
        lines = value if file.endswith(".jsonl") else [value]
        (tmp_path / file).write_text("".join(json.dumps(v) + "\n" for v in lines), encoding="utf-8")
    if name == "candidates.jsonl":
        command = ["detect", "--candidates", str(tmp_path / name), "--out", str(tmp_path / "out")]
    else:
        command = ["evaluate", "--predictions", str(tmp_path / "predictions.json")]
    assert main([*command, "--corpus", str(tmp_path / "corpus.json")]) == 2
    err = capsys.readouterr().err
    # The message starts with the path of the file, then names the place in it.
    place = f"{tmp_path}{os.sep}{place.format(id=dialog_id)}"
    assert err.startswith(f"error: {place}: missing key {key!r}")


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A valid corpus, predictions file and candidates file, as parsed JSON values.

    The candidates file is a list of its lines' values.
    """
    tmp = tmp_path_factory.mktemp("valid-inputs")
    corpus = build_world(2, seed=31, dev_goals=1)
    save_corpus(corpus, tmp / "corpus.json")
    assert main(["sample", "--corpus", str(tmp / "corpus.json"), "--out", str(tmp),
                 "--goal-fraction", "1.0", "--k", "2", "--noise-rate", "0.5", "--seed", "3"]) == 0
    lines = (tmp / "candidates.jsonl").read_text(encoding="utf-8").splitlines()
    return {
        "corpus.json": json.loads((tmp / "corpus.json").read_text(encoding="utf-8")),
        "predictions.json": {"dialogs": [dialog_to_dict(d) for d in corpus.dialogs]},
        "candidates.jsonl": [json.loads(line) for line in lines],
    }


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


# One value of each JSON type; an edit puts one of another type in a value's place.
JSON_VALUES = [None, True, 0, 2.5, "x", [], {}, [1], {"k": "v"}]


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_an_edited_input_exits_2_naming_its_file_or_is_valid(valid_inputs, tmp_path, capsys,
                                                             data):
    """Delete one key of a valid input, or give one value another JSON type.

    ``evaluate`` (for a corpus or predictions edit) or ``detect`` (for a
    candidates edit) then exits 2 with a message that starts with the edited
    file's path, or exits 0 when the edit left the file valid (an optional key
    deleted, a ``slot`` set to null). It never raises.
    """
    files = json.loads(json.dumps(valid_inputs))
    name = data.draw(st.sampled_from(sorted(files)), label="file")
    # Walk down from the file's value, one drawn key or index at a time. A
    # candidates file is its lines: the list that holds them is no JSON value.
    parent, key = files, name
    while parent[key] and isinstance(parent[key], (dict, list)) and (
        parent is files and name == "candidates.jsonl"
        or data.draw(st.integers(0, 3), label="deeper") > 0  # mostly deeper
    ):
        parent = parent[key]
        key = data.draw(st.sampled_from(list(parent) if isinstance(parent, dict)
                                        else range(len(parent))), label="key")
    value = parent[key]
    deletable = isinstance(parent, dict) and parent is not files
    if deletable and data.draw(st.booleans(), label="delete"):
        del parent[key]
    else:
        others = [v for v in JSON_VALUES if _json_type(v) != _json_type(value)]
        parent[key] = data.draw(st.sampled_from(others), label="new value")
    for file, content in files.items():
        lines = content if file.endswith(".jsonl") else [content]
        (tmp_path / file).write_text("".join(json.dumps(v) + "\n" for v in lines),
                                     encoding="utf-8")
    corpus = ["--corpus", str(tmp_path / "corpus.json")]
    if name == "candidates.jsonl":
        command = ["detect", *corpus, "--candidates", str(tmp_path / name),
                   "--out", str(tmp_path / "out")]
    else:
        command = ["evaluate", *corpus, "--predictions", str(tmp_path / "predictions.json")]
    code = main(command)
    err = capsys.readouterr().err
    assert code in (0, 2)
    if code == 2:
        assert err.startswith(f"error: {tmp_path / name}"), err


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


def test_http_runs_close_their_connections(corpus10, tmp_path, capsys, keep_alive_server,
                                           monkeypatch):
    """The CLI closes the HTTP backend it built: no socket is left to the collector."""
    _, path = corpus10
    monkeypatch.delenv("SUIT_BACKEND_URL", raising=False)
    keep_alive_server.serve_backend(ScriptedBackend(load_corpus(path)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for command in ("iterate", "sample"):
            assert main([
                command, "--corpus", path, "--out", str(tmp_path / command),
                "--backend", "http", "--url", keep_alive_server.url, "--goal-fraction", "0.3",
            ]) == 0
            gc.collect()
    capsys.readouterr()
    unclosed = [str(w.message) for w in caught if "unclosed" in str(w.message)]
    assert unclosed == []


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


@pytest.mark.parametrize("command", ["sample", "iterate"])
def test_workers_below_one_exits_2(command, corpus10, tmp_path, capsys):
    _, path = corpus10
    out = tmp_path / "out"
    assert main([command, "--corpus", path, "--out", str(out), "--workers", "0"]) == 2
    assert "workers must be at least 1, got 0" in capsys.readouterr().err
    assert list(out.glob("*")) == []


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
        "0", "1", "2", "3", "4", "5", "state", "act_response", "combined",
    ]
    first_row = lines[1].split()
    second_row = lines[2].split()
    assert [first_row[0], second_row[0]] == ["0", "1"]
    assert [first_row[1], second_row[1]] == ["sft", "dpo"]
    assert all(len(line) == len(lines[0]) for line in lines[1:])

    stored = json.loads((tmp_path / "iter0" / "report.json").read_text())
    assert first_row[2] == str(stored["n_goals_sampled"])
    assert first_row[3] == str(stored["n_dialogs_successful"])
    assert first_row[-1] == f"{stored['dev_eval']['combined']:.2f}"
    assert float(first_row[-1]) > 0


def test_stats_shows_a_dash_without_a_dev_evaluation(tmp_path, capsys):
    out = tmp_path / "nodev"
    world = build_world(4, seed=3, dev_goals=0)
    save_corpus(world, tmp_path / "corpus.json")
    assert main(["iterate", "--corpus", str(tmp_path / "corpus.json"), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["dev_eval"] is None
    capsys.readouterr()
    assert main(["stats", "--report", str(out / "report.json")]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[-1] == "combined"
    assert row.split()[-1] == "-"


def test_stats_missing_report_exits_2(tmp_path, capsys):
    assert main(["stats", "--report", str(tmp_path / "missing.json")]) == 2
    assert "error" in capsys.readouterr().err


# Each edit of a valid report, and the message stats must exit 2 with after the path.
BAD_REPORTS = {
    "array": (lambda report: [report], ": expected an object, got [{"),
    "histogram list": (lambda report: {**report, "histogram": []},
                       "['histogram']: expected an object, got []"),
    "samples number": (lambda report: {**report, "n_subgoal_samples": 3},
                       "['n_subgoal_samples']: expected an object, got 3"),
    "no k": (lambda report: {key: v for key, v in report.items() if key != "k"},
             ": missing key 'k'"),
    "k string": (lambda report: {**report, "k": "2"}, "['k']: expected an integer, got \"2\""),
    "bucket": (lambda report: {**report, "histogram": {"two": 1}},
               "['histogram']: bucket 'two' is not a whole number"),
    "no combined": (lambda report: {**report, "dev_eval": {}},
                    "['dev_eval']: missing key 'combined'"),
}


@pytest.mark.parametrize("case", sorted(BAD_REPORTS))
def test_stats_on_a_malformed_report_exits_2_and_names_its_place(case, tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    save_corpus(build_world(3, seed=3, dev_goals=1), corpus)
    assert main(["iterate", "--corpus", str(corpus), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    edit, message = BAD_REPORTS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(report)), encoding="utf-8")
    capsys.readouterr()
    assert main(["stats", "--report", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}{message}")


@pytest.mark.parametrize("flags", [
    ["iterate", "--noise-rate", "1.5"], ["iterate", "--noise-rate", "nan"],
    ["sample", "--noise-rate", "-1"], ["synth", "--goals", "2", "--dev", "-1"],
], ids=["rate-1.5", "rate-nan", "rate-minus-1", "dev-minus-1"])
def test_an_out_of_range_noise_rate_or_dev_count_exits_2(flags, corpus1, tmp_path, capsys):
    out = tmp_path / "out"
    synth = flags[0] == "synth"
    corpus = [] if synth else ["--corpus", corpus1]
    assert main([*flags, *corpus, "--out", str(out)]) == 2
    expected = "dev_goals must be non-negative" if synth else "noise rate must be in [0, 1]"
    assert expected in capsys.readouterr().err
    assert not out.exists()


def test_argparse_rejects_unknown_commands():
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 2
