import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from subtod.corpus import corpus_from_dict, corpus_to_dict
from subtod.model import (
    Database,
    Dialog,
    DialogAct,
    DomainSchema,
    GoalEntry,
    Ontology,
    SystemTurn,
    Turn,
    UserGoal,
)
from subtod.subgoals import CandidateGroup, label_success
from subtod.synthetic import build_world

HOTELS3 = (
    {
        "name": "alpha hotel",
        "area": "north",
        "pricerange": "moderate",
        "internet": "yes",
        "address": "12 chesterton road",
        "phone": "01223 111111",
    },
    {
        "name": "beta hotel",
        "area": "north",
        "pricerange": "cheap",
        "internet": "no",
        "address": "5 mill lane",
        "phone": "01223 222222",
    },
    {
        "name": "gamma hotel",
        "area": "south",
        "pricerange": "moderate",
        "internet": "yes",
        "address": "82 regent street",
        "phone": "01223 333333",
    },
)


@pytest.fixture(scope="session")
def db3():
    ontology = Ontology(
        domains={
            "hotel": DomainSchema(
                informable=("area", "pricerange", "internet"),
                requestable=("address", "phone"),
                acts=("inform", "request", "recommend"),
            ),
            "taxi": DomainSchema(
                informable=("departure", "destination"),
                requestable=("phone", "type"),
                acts=("inform", "request"),
                entity_bearing=False,
            ),
        }
    )
    return Database(ontology=ontology, tables={"hotel": HOTELS3})


@pytest.fixture
def hotel_goal():
    return UserGoal(
        domains={
            "hotel": GoalEntry(
                constraints={"area": "north", "pricerange": "moderate", "internet": "yes"},
                requests=frozenset({"address"}),
            )
        }
    )


@pytest.fixture
def hotel_dialog():
    state = {"hotel": {"area": "north", "pricerange": "moderate", "internet": "yes"}}
    return Dialog(
        id="h-1",
        goal_id="h-1",
        turns=(
            Turn(
                user="i need a hotel in the north, moderate price, with wifi.",
                system=SystemTurn(
                    state={d: dict(s) for d, s in state.items()},
                    acts=(DialogAct("hotel", "recommend", "name"),),
                    response="how about [hotel_name]? it is in the north.",
                ),
            ),
            Turn(
                user="what is the address?",
                system=SystemTurn(
                    state={d: dict(s) for d, s in state.items()},
                    acts=(DialogAct("hotel", "inform", "address"),),
                    response="the address is [hotel_address]. anything else?",
                ),
            ),
        ),
    )


def _turn(user, state, acts, response):
    return Turn(
        user=user,
        system=SystemTurn(
            state={d: dict(s) for d, s in state.items()}, acts=acts, response=response
        ),
    )


@pytest.fixture
def mixed_group(db3):
    """One successful dialog and three that each break it at a different site.

    cand-o carries a wrong area in its turn-1 state, cand-j never mentions the
    address, cand-u never mentions the phone; everything else is shared, so
    exactly three replacement sites can flip the winner.
    """
    goal = UserGoal(
        domains={
            "hotel": GoalEntry(
                constraints={"area": "north", "pricerange": "moderate", "internet": "yes"},
                requests=frozenset({"address", "phone"}),
            )
        }
    )
    s0 = {"hotel": {"area": "north"}}
    s1 = {"hotel": {"area": "north", "pricerange": "moderate", "internet": "yes"}}
    s1_bad = {"hotel": {"area": "south", "pricerange": "moderate", "internet": "yes"}}
    users = (
        "i need a hotel in the north.",
        "moderate please, and it should have wifi.",
        "what is the address?",
        "and the phone number?",
    )
    t0 = _turn(users[0], s0, (DialogAct("hotel", "request", "pricerange"),),
               "what price range would you like?")
    t1 = _turn(users[1], s1, (DialogAct("hotel", "recommend", "name"),),
               "i recommend [hotel_name].")
    t1_bad = _turn(users[1], s1_bad, (DialogAct("hotel", "recommend", "name"),),
                   "i recommend [hotel_name].")
    t2 = _turn(users[2], s1, (DialogAct("hotel", "inform", "address"),),
               "the address is [hotel_address].")
    t2_bad = _turn(users[2], s1, (DialogAct("hotel", "inform", "area"),),
                   "it is in the north of town.")
    t3 = _turn(users[3], s1, (DialogAct("hotel", "inform", "phone"),),
               "the phone is [hotel_phone]. goodbye!")
    t3_bad = _turn(users[3], s1, (), "you are welcome, goodbye!")

    winner = Dialog(id="cand-w", goal_id="g-1", turns=(t0, t1, t2, t3))
    loser_state = Dialog(id="cand-o", goal_id="g-1", turns=(t0, t1_bad, t2, t3))
    loser_addr = Dialog(id="cand-j", goal_id="g-1", turns=(t0, t1, t2_bad, t3))
    loser_phone = Dialog(id="cand-u", goal_id="g-1", turns=(t0, t1, t2, t3_bad))
    group = CandidateGroup(
        goal_id="g-1",
        goal=goal,
        source=winner,
        candidates=(winner, loser_state, loser_addr, loser_phone),
    )
    return label_success(group, db3)


@pytest.fixture(scope="session")
def small_world():
    return build_world(12, seed=7, dev_goals=3)


@pytest.fixture(scope="session")
def lodge_world(small_world):
    """``small_world`` with a domain and an act verb that the parsers' defaults lack.

    Every ``hotel`` becomes ``lodge`` and every ``recommend`` ``suggest``:
    ontology, database, goals, states, acts, placeholders and texts alike.
    """
    text = json.dumps(corpus_to_dict(small_world))
    renamed = text.replace("hotel", "lodge").replace("recommend", "suggest")
    return corpus_from_dict(json.loads(renamed))


class _StubHandler(BaseHTTPRequestHandler):
    """Answers each POST with ``server.responder(payload)``.

    A responder returns ``(status, body)`` or ``(status, body, headers)``; a
    non-bytes body is sent as JSON, and ``headers`` override the defaults
    (for example a ``content-length`` longer than the body).
    """

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        length = int(self.headers.get("content-length") or 0)
        payload = json.loads(self.rfile.read(length) or b"{}")
        with self.server.lock:
            self.server.payloads.append(payload)
            self.server.requests.append((self.path, dict(self.headers)))
        status, body, *extra = self.server.responder(payload)
        if not isinstance(body, bytes):
            body = json.dumps(body).encode("utf-8")
        headers = {"content-type": "application/json", "content-length": str(len(body))}
        headers.update(*extra)
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        if self.server.drop_after_reply:
            # Closed without a "Connection: close" header, so the client pools it.
            self.close_connection = True

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_StubHandler):
    protocol_version = "HTTP/1.1"


class _StubHTTPServer(ThreadingHTTPServer):
    # The default listen backlog of 5 overflows when a wave opens more
    # connections at once, and a dropped SYN is resent only after 1 s.
    request_queue_size = 64

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self.lock:
            self.closed += 1
            self.lock.notify_all()


class CompletionServer:
    """A stub completion service on 127.0.0.1.

    HTTP/1.0 by default, closing the connection after every reply; with
    ``keep_alive`` it speaks HTTP/1.1 and keeps connections open.
    """

    def __init__(self, keep_alive=False):
        handler = _KeepAliveHandler if keep_alive else _StubHandler
        self._httpd = _StubHTTPServer(("127.0.0.1", 0), handler)
        self._httpd.lock = threading.Condition()
        self._httpd.payloads = []
        self._httpd.requests = []
        self._httpd.connections = 0
        self._httpd.closed = 0
        self._httpd.drop_after_reply = False
        self._httpd.responder = lambda payload: (
            200,
            {"completions": ["stub"] * payload.get("n", 1)},
        )
        # A short shutdown poll keeps teardown from waiting out the 0.5 s default.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self._thread.start()
        host, port = self._httpd.server_address
        self.origin = f"http://{host}:{port}"
        self.url = f"{self.origin}/v1/completions"

    def _read(self, name):
        with self._httpd.lock:
            value = getattr(self._httpd, name)
            return list(value) if isinstance(value, list) else value

    @property
    def payloads(self):
        return self._read("payloads")

    @property
    def requests(self):
        """``(request target, headers)`` of every POST, in arrival order."""
        return self._read("requests")

    @property
    def connections(self):
        """Connections accepted so far."""
        return self._read("connections")

    def wait_closed(self, count, timeout=5.0):
        """Wait until the server has closed ``count`` connections (``time.sleep`` may be patched)."""
        with self._httpd.lock:
            assert self._httpd.lock.wait_for(lambda: self._httpd.closed >= count, timeout)

    def drop_after_reply(self):
        """Close every connection after its reply, without a ``Connection: close`` header."""
        self._httpd.drop_after_reply = True

    def respond_with(self, responder):
        self._httpd.responder = responder

    def serve_backend(self, backend):
        def responder(payload):
            completions = backend.generate(
                payload["prompt"],
                payload["n"],
                greedy=payload["greedy"],
                temperature=payload.get("temperature", 1.0),
                seed=payload.get("seed", 0),
                max_tokens=payload.get("max_tokens", 256),
            )
            return 200, {"completions": completions}

        self._httpd.responder = responder

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture
def completion_server():
    server = CompletionServer()
    yield server
    server.close()


@pytest.fixture
def keep_alive_server():
    server = CompletionServer(keep_alive=True)
    yield server
    server.close()
