"""Stand-in model server for the ``http-clean`` workload.

Usage: ``python3 bench/stub_server.py --corpus C --seed S --noise-rate R
--service-ms M`` with subtod importable (``PYTHONPATH=src``). It answers the
POST protocol of ``subtod.backends.HttpBackend`` through a
``ScriptedBackend`` built for the same corpus, noise and seed, after sleeping
a fixed service time per request, so a run over HTTP emits the same bytes as
the in-process scripted run.

It prints ``{"port": P}`` once it listens on 127.0.0.1, serves until its
stdin closes, then prints ``{"posts": N, "busy_s": T}``: the POSTs it
received and the summed time from reading a request to writing its reply.

Connections stay open (HTTP/1.1), every reply carries ``Content-Length``, and
Nagle's algorithm is off. Without these the client waits on each reply for a
connection close or a delayed ACK, and round trips stop being the measure.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from subtod.backends import ErrorInjectionConfig, ScriptedBackend
from subtod.corpus import load_corpus
from subtod.errors import BackendError


class StubServer(ThreadingHTTPServer):
    def __init__(self, backend, service_s: float):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.backend = backend
        self.service_s = service_s
        self.lock = threading.Lock()
        self.posts = 0
        self.busy_s = 0.0

    def record(self, seconds: float) -> None:
        with self.lock:
            self.posts += 1
            self.busy_s += seconds


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def do_POST(self):
        start = time.perf_counter()
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        time.sleep(self.server.service_s)
        try:
            completions = self.server.backend.generate(
                payload["prompt"],
                payload["n"],
                greedy=payload["greedy"],
                temperature=payload["temperature"],
                seed=payload["seed"],
                max_tokens=payload["max_tokens"],
            )
            status, body = 200, {"completions": completions}
        except BackendError as exc:
            status, body = 400, {"error": str(exc)}
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.server.record(time.perf_counter() - start)

    def log_message(self, format, *args):
        pass


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--noise-rate", type=float, required=True)
    parser.add_argument("--service-ms", type=float, required=True)
    args = parser.parse_args()

    backend = ScriptedBackend(
        load_corpus(args.corpus), ErrorInjectionConfig(rate=args.noise_rate), seed=args.seed
    )
    server = StubServer(backend, args.service_ms / 1000.0)
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    try:
        print(json.dumps({"port": server.server_address[1]}), flush=True)
        sys.stdin.read()
    finally:
        server.shutdown()
        serving.join()
        server.server_close()
    print(json.dumps({"posts": server.posts, "busy_s": server.busy_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
