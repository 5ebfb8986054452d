"""What ``subtod`` modules import.

Every name a module imports is used in that module; an import kept on
purpose carries ``# noqa: F401`` on its statement's first line or on the
imported name's own line. Neither a scripted run nor an ``http://`` run
loads the HTTP stack or OpenSSL: the HTTP client dials with plain sockets.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from subtod.backends import ScriptedBackend
from subtod.cli import main
from subtod.corpus import load_corpus

SRC = Path(__file__).resolve().parents[1] / "src" / "subtod"
NOQA = "# noqa: F401"
# The standard library's HTTP and TLS stack, which the plain-socket HTTP client
# never needs; each module costs start-up time and memory.
HTTP_STACK = ("http.client", "ssl", "urllib.request", "email.parser")
# ``hashlib`` loads OpenSSL's libcrypto; seeds take the interpreter's built-in SHA-256.
OPENSSL = ("hashlib", "_hashlib")

# Runs every command on a tiny corpus, with the scripted backend, then prints
# the exit codes and which of the modules named on its command line are loaded.
_SCRIPTED_RUN = """
import json, sys
from pathlib import Path
from subtod.cli import main
from subtod.corpus import dialog_to_dict, load_corpus

out = Path(sys.argv[1])
corpus, predictions = str(out / "corpus.json"), out / "predictions.json"
run = ["--corpus", corpus, "--goal-fraction", "1.0", "--k", "3", "--noise-rate", "0.5"]
codes = [
    main(["synth", "--goals", "3", "--dev", "1", "--seed", "5", "--out", corpus]),
    main(["iterate", *run, "--out", str(out / "iterate")]),
    main(["sample", *run, "--out", str(out / "staged")]),
    main(["detect", "--corpus", corpus, "--candidates", str(out / "staged" / "candidates.jsonl"),
          "--out", str(out / "staged")]),
]
dialogs = [dialog_to_dict(d) for d in load_corpus(corpus).dialogs]
predictions.write_text(json.dumps({"dialogs": dialogs}))
codes.append(main(["evaluate", "--corpus", corpus, "--predictions", str(predictions)]))
codes.append(main(["stats", "--report", str(out / "iterate" / "report.json")]))
print(json.dumps({"codes": codes, "loaded": [m for m in sys.argv[2:] if m in sys.modules]}))
"""

# Runs ``iterate`` over HTTP, then prints its exit code and which of the
# modules named on its command line are loaded.
_HTTP_RUN = """
import json, sys
from subtod.cli import main

corpus, out, url, *modules = sys.argv[1:]
code = main(["iterate", "--corpus", corpus, "--out", out, "--goal-fraction", "1.0", "--k", "3",
             "--backend", "http", "--url", url])
print(json.dumps({"code": code, "loaded": [m for m in modules if m in sys.modules]}))
"""


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            exempt = NOQA in lines[node.lineno - 1] or NOQA in lines[alias.lineno - 1]
            if name not in used and not exempt:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


@pytest.fixture(scope="module")
def scripted_run(tmp_path_factory):
    """``_SCRIPTED_RUN``'s exit codes, and which of HTTP_STACK and OPENSSL it loaded."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = tmp_path_factory.mktemp("scripted")
    # -S: no site hooks, so that only subtod's own imports count.
    done = subprocess.run(
        [sys.executable, "-S", "-c", _SCRIPTED_RUN, str(out), *HTTP_STACK, *OPENSSL],
        check=True, env=env, capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_a_scripted_pipeline_loads_no_http_module(scripted_run):
    assert scripted_run["codes"] == [0] * 6
    assert [m for m in scripted_run["loaded"] if m in HTTP_STACK] == []


def test_a_scripted_pipeline_loads_no_openssl(scripted_run):
    assert scripted_run["codes"] == [0] * 6
    assert [m for m in scripted_run["loaded"] if m in OPENSSL] == []


def test_an_http_run_loads_no_http_stack_and_no_openssl(completion_server, tmp_path):
    # Fails at the parent, whose client dialed through http.client. The
    # server runs in this process: http.server itself imports http.client.
    corpus = tmp_path / "corpus.json"
    assert main(["synth", "--goals", "3", "--dev", "1", "--seed", "5", "--out", str(corpus)]) == 0
    completion_server.serve_backend(ScriptedBackend(load_corpus(corpus)))
    # No proxy variable, so that the run has no reason to load urllib.request.
    env = {name: value for name, value in os.environ.items()
           if not name.lower().endswith("_proxy") and name != "SUIT_BACKEND_URL"}
    env["PYTHONPATH"] = str(SRC.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", _HTTP_RUN, str(corpus), str(tmp_path / "out"),
         completion_server.url, *HTTP_STACK, *OPENSSL],
        check=True, env=env, capture_output=True, text=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == {"code": 0, "loaded": []}
    assert completion_server.payloads


def test_an_https_url_exits_2_naming_a_tunnel_and_loads_no_ssl(tmp_path):
    # Fails at the parent, which loaded ssl to post over TLS.
    corpus = tmp_path / "corpus.json"
    assert main(["synth", "--goals", "3", "--dev", "1", "--seed", "5", "--out", str(corpus)]) == 0
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    env.pop("SUIT_BACKEND_URL", None)
    done = subprocess.run(
        [sys.executable, "-S", "-c", _HTTP_RUN, str(corpus), str(tmp_path / "out"),
         "https://127.0.0.1:1/v1", *HTTP_STACK, *OPENSSL],
        check=True, env=env, capture_output=True, text=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == {"code": 2, "loaded": []}
    assert "TLS-terminating tunnel" in done.stderr
