"""Generation backends: a scripted, corpus-driven stand-in and an HTTP client.

The scripted backend answers the exact prompts built from its corpus's dialog
contexts. Greedy requests return the ground-truth state or act/response pair
verbatim; sampled requests return deterministic variations that are textually
distinct but evaluation-neutral (value casing for states, a politeness tail
for responses). With a noise rate, a site may instead receive one genuinely
wrong generation: whether it does, its error, the sample that carries it and
the slot it hits all come from the construction seed. So outputs are
bit-identical across runs and worker counts; the per-request ``seed``
argument is accepted for interface parity and ignored.
"""

from __future__ import annotations

import base64
import contextlib
import functools
import hashlib
import http.client
import json
import random
import selectors
import socket
import ssl
import threading
import time
import urllib.parse
import urllib.request
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Protocol, Sequence

from .corpus import Corpus
from .errors import BackendError
from .model import (
    BeliefState,
    Dialog,
    SubgoalKind,
    UserGoal,
    contexts_of,
    normalize_value,
    placeholder,
)
from .verbalize import (
    split_act_prompt,
    state_prompts,
    state_text,
    turn_text,
    verbalize_acts,
    verbalized_turn_text,
)

DEFAULT_MAX_TOKENS = 256
# Largest reply body the HTTP client reads; a larger one fails without a retry.
MAX_REPLY_BYTES = 1 << 20
_RECV_BYTES = 1 << 16
_REQUEST_FIELDS = ("prompt", "n", "greedy", "temperature", "seed", "max_tokens")
# poll() keeps registration out of the kernel; Windows has only select().
_Selector = getattr(selectors, "PollSelector", selectors.SelectSelector)


def stable_seed(*parts) -> int:
    """Deterministic 64-bit seed from arbitrary parts; hash() is salted, this isn't."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class GeneratorBackend(Protocol):
    """Text-completion interface shared by all backends.

    Implementations must be deterministic for a fixed (prompt, seed, params)
    tuple, or document themselves as best-effort. A backend may also offer a
    ``prefetch(requests)`` context manager (see ``HttpBackend``), which
    ``sampling.answer_wave`` uses to send a wave of requests at once.
    """

    def generate(
        self,
        prompt: str,
        n: int,
        *,
        greedy: bool,
        temperature: float = 1.0,
        seed: int = 0,
        max_tokens: int = DEFAULT_MAX_TOKENS,
    ) -> list[str]: ...


class ErrorKind(Enum):
    DROP_SLOT = "drop_slot"
    WRONG_VALUE = "wrong_value"
    SWAP_DEPARTURE_DESTINATION = "swap_departure_destination"
    OMIT_REQUESTED_SLOT_IN_RESPONSE = "omit_requested_slot_in_response"


STATE_ERRORS = (
    ErrorKind.DROP_SLOT,
    ErrorKind.WRONG_VALUE,
    ErrorKind.SWAP_DEPARTURE_DESTINATION,
)


@dataclass(frozen=True)
class Injection:
    """The error one site receives.

    ``sample`` is the 1-based sampled-generation index that carries it;
    greedy generations are never corrupted.
    """

    error: ErrorKind
    sample: int


@dataclass(frozen=True)
class ErrorInjectionConfig:
    # Probability that a site (dialog, turn, kind) gets one seeded injection.
    rate: float = 0.0

    def __post_init__(self):
        if not 0 <= self.rate <= 1:  # NaN fails too
            raise ValueError(f"noise rate must be in [0, 1], got {self.rate}")


def _case_variant_value(value: str, i: int) -> str:
    """Uppercase the first ``i`` letters; distinct per i, equal under matching."""
    out = []
    seen = 0
    for ch in value:
        if ch.isalpha():
            seen += 1
            out.append(ch.upper() if seen <= i else ch.lower())
        else:
            out.append(ch)
    return "".join(out)


def _copy_state(state: BeliefState) -> BeliefState:
    return {domain: dict(slots) for domain, slots in state.items()}


_RESPONSE_TAILS = (
    "is there anything else i can help you with?",
    "can i help you with anything else?",
    "anything else i can do for you?",
    "let me know if you need anything else.",
)


def _response_variant(response: str, i: int) -> str:
    tail = _RESPONSE_TAILS[(i - 1) % len(_RESPONSE_TAILS)]
    reps = 1 + (i - 1) // len(_RESPONSE_TAILS)
    return f"{response} " + " ".join([tail] * reps)


def _strip_placeholder(response: str, token: str) -> str:
    return " ".join(response.replace(token, " ").split())


class ScriptedBackend:
    """Deterministic stand-in for a dialog LM, driven by a corpus world.

    A site is one state prompt (a dialog context). Contexts that several
    dialogs share are answered from the first such dialog, so their gold
    system turns must agree; construction raises ``ValueError`` otherwise.
    """

    def __init__(self, world: Corpus, noise: ErrorInjectionConfig | None = None, seed: int = 0):
        self.world = world
        self.noise = noise or ErrorInjectionConfig()
        self.seed = seed
        # State prompt -> (dialog, turn, site index) of its first dialog.
        self._sites: dict[str, tuple[Dialog, int, int]] = {}
        for dialog in list(world.dialogs) + list(world.dev_dialogs):
            for t, prompt in enumerate(state_prompts(contexts_of(dialog))):
                first, first_t, _ = self._sites.setdefault(prompt, (dialog, t, len(self._sites)))
                if first is not dialog and first.turns[first_t].system != dialog.turns[t].system:
                    raise ValueError(
                        f"dialogs {first.id!r} (turn {first_t}) and {dialog.id!r} (turn {t}) "
                        "share a context but not its gold system turn"
                    )
        # Per-site values keyed by site index, filled on first use: the
        # injection per (site, stage, n) and the verbalized gold acts per site.
        self._injections: dict[tuple[int, SubgoalKind, int], Injection | None] = {}
        self._gold_acts: dict[int, str] = {}
        self._value_pool: dict[tuple[str, str], list[str]] = {}
        for domain, entities in world.database.tables.items():
            for entity in entities:
                for slot, value in entity.items():
                    pool = self._value_pool.setdefault((domain, slot), [])
                    if value not in pool:
                        pool.append(value)

    def close(self) -> None:
        """Nothing to release; callers may close any backend they built."""

    # -- generation ------------------------------------------------------

    def generate(
        self,
        prompt: str,
        n: int,
        *,
        greedy: bool,
        temperature: float = 1.0,
        seed: int = 0,
        max_tokens: int = DEFAULT_MAX_TOKENS,
    ) -> list[str]:
        state_key, is_act_prompt = split_act_prompt(prompt)
        stage = SubgoalKind.ACT_RESPONSE if is_act_prompt else SubgoalKind.STATE
        site = self._sites.get(state_key)
        if site is None:
            raise BackendError("prompt does not match any known dialog context", prompt=prompt)
        dialog, turn, index = site
        system = dialog.turns[turn].system
        if stage is SubgoalKind.STATE:
            if greedy:
                return [state_text(system.state)] * n
            injection = self._injection(index, dialog, turn, stage, n)
            return [self._sampled_state(dialog, turn, i, injection) for i in range(1, n + 1)]
        acts = self._gold_acts.get(index)
        if acts is None:
            acts = self._gold_acts[index] = verbalize_acts(system.acts)
        if greedy:
            return [verbalized_turn_text(acts, system.response)] * n
        injection = self._injection(index, dialog, turn, stage, n)
        return [self._sampled_turn(dialog, turn, acts, i, injection) for i in range(1, n + 1)]

    def _sampled_state(self, dialog: Dialog, turn: int, i: int, injection: Injection | None) -> str:
        state = dialog.turns[turn].system.state
        if injection is not None and injection.sample == i:
            return state_text(self._apply_state_error(dialog, turn, state, injection))
        return state_text(self._neutral_state(state, i))

    def _sampled_turn(
        self, dialog: Dialog, turn: int, gold_acts: str, i: int, injection: Injection | None
    ) -> str:
        if injection is not None and injection.sample == i:
            return turn_text(*self._apply_response_error(dialog, turn))
        response = _response_variant(dialog.turns[turn].system.response, i)
        return verbalized_turn_text(gold_acts, response)

    # -- noise -----------------------------------------------------------

    def _goal_of(self, dialog: Dialog) -> UserGoal | None:
        return self.world.goals.get(dialog.goal_id) or self.world.dev_goals.get(dialog.goal_id)

    def _injection(
        self, index: int, dialog: Dialog, turn: int, stage: SubgoalKind, n: int
    ) -> Injection | None:
        """``_site_injection`` for site ``index``, decided once."""
        key = (index, stage, n)
        if key not in self._injections:
            self._injections[key] = self._site_injection(dialog, turn, stage, n)
        return self._injections[key]

    def _site_injection(
        self, dialog: Dialog, turn: int, stage: SubgoalKind, n: int
    ) -> Injection | None:
        if self.noise.rate <= 0.0:
            return None
        rng = random.Random(stable_seed(self.seed, dialog.id, turn, stage.value))
        if rng.random() >= self.noise.rate:
            return None
        if stage is SubgoalKind.STATE:
            if not dialog.turns[turn].system.state:
                return None
            error = STATE_ERRORS[rng.randrange(len(STATE_ERRORS))]
        else:
            goal = self._goal_of(dialog)
            if goal is None:
                return None
            if not self._requested_tokens(goal, dialog.turns[turn].system.response):
                return None
            error = ErrorKind.OMIT_REQUESTED_SLOT_IN_RESPONSE
        return Injection(error=error, sample=rng.randrange(1, n + 1))

    def _requested_tokens(self, goal: UserGoal, response: str) -> list[tuple[str, str, str]]:
        """``(placeholder, domain, slot)`` per requested slot whose placeholder ``response`` holds."""
        tokens = []
        for domain in goal.domain_names():
            for slot in sorted(goal.domains[domain].requests):
                token = placeholder(domain, slot)
                if token in response:
                    tokens.append((token, domain, slot))
        return tokens

    def _neutral_state(self, state: BeliefState, i: int) -> BeliefState:
        out = _copy_state(state)
        for domain in sorted(out):
            for slot in sorted(out[domain]):
                value = out[domain][slot]
                if any(ch.isalpha() for ch in value):
                    out[domain][slot] = _case_variant_value(value, i)
                    return out
        return out

    def _apply_state_error(
        self, dialog: Dialog, turn: int, state: BeliefState, injection: Injection
    ) -> BeliefState:
        """``state`` with ``injection``'s error; the state is not empty."""
        out = _copy_state(state)
        rng = random.Random(stable_seed(self.seed, dialog.id, turn, "err", injection.sample))
        domains = sorted(out)
        if injection.error is ErrorKind.SWAP_DEPARTURE_DESTINATION:
            for domain in domains:
                slots = out[domain]
                if "departure" in slots and "destination" in slots:
                    slots["departure"], slots["destination"] = (
                        slots["destination"],
                        slots["departure"],
                    )
                    return out
            # No route to swap anywhere; a wrong value instead.
        domain = domains[rng.randrange(len(domains))]
        ordered = sorted(out[domain])
        slot = ordered[rng.randrange(len(ordered))]
        slots = out[domain]
        if injection.error is ErrorKind.DROP_SLOT:
            del slots[slot]
            if not slots:
                del out[domain]
            return out
        current = normalize_value(slots[slot])
        pool = [
            v
            for v in self._value_pool.get((domain, slot), ())
            if normalize_value(v) not in (current, "dontcare")
        ]
        slots[slot] = pool[rng.randrange(len(pool))] if pool else f"not {slots[slot]}"
        return out

    def _apply_response_error(self, dialog: Dialog, turn: int):
        """The gold turn without one requested slot's placeholder and act; the site has one."""
        system = dialog.turns[turn].system
        tokens = self._requested_tokens(self._goal_of(dialog), system.response)
        rng = random.Random(stable_seed(self.seed, dialog.id, turn, "omit"))
        token, domain, slot = tokens[rng.randrange(len(tokens))]
        response = _strip_placeholder(system.response, token)
        acts = tuple(a for a in system.acts if not (a.domain == domain and a.slot == slot))
        return acts, response


class _RetryableStatus(Exception):
    """A 429 or 5xx reply, retried like a network error, at the earliest after ``retry_after`` s."""

    def __init__(self, status: int, retry_after: float):
        super().__init__(f"http {status}")
        self.retry_after = retry_after


class _BadReply(Exception):
    """A truncated or garbled reply, retried like a network error."""


class _OversizedReply(Exception):
    """A reply body over ``MAX_REPLY_BYTES``; not retried."""


def _closed_by_peer(sock: socket.socket) -> bool:
    """True unless a read of the idle, non-blocking ``sock`` would wait.

    A read that does not wait finds that the server closed the connection (or
    misbehaved). One that finds only TLS records, such as the session tickets
    a TLS 1.3 server sends after the handshake, waits: the connection stays.
    """
    try:
        sock.recv(1)
    except (BlockingIOError, ssl.SSLWantReadError):
        return False
    except OSError:
        pass
    return True


def _parse_reply(data: bytes, eof: bool) -> tuple[int, dict[str, str], bytes, bool] | None:
    """The HTTP/1.x reply at the start of ``data``: its status, headers, body and reusability.

    ``None`` while the reply is incomplete. The body is framed by
    ``Transfer-Encoding: chunked``, a ``Content-Length`` or the end of the
    connection (``eof``). Only the first two leave the connection reusable,
    and only when HTTP/1.1 (or 1.0 with keep-alive) keeps it open and nothing
    follows the reply. Interim 1xx replies are skipped; header names are
    lower-cased.
    """
    status, start = 100, 0
    while 100 <= status < 200:
        head_end = data.find(b"\r\n\r\n", start)
        if head_end < 0:
            if len(data) - start > MAX_REPLY_BYTES:
                raise _OversizedReply(f"backend reply exceeds the {MAX_REPLY_BYTES}-byte limit")
            return None
        status_line, *lines = data[start:head_end].decode("latin-1").split("\r\n")
        version, _, rest = status_line.partition(" ")
        if version not in ("HTTP/1.0", "HTTP/1.1") or not rest[:3].isdecimal():
            raise _BadReply(f"bad status line {status_line!r}")
        headers = {}
        for line in lines:
            name, colon, value = line.partition(":")
            if not colon:
                raise _BadReply(f"bad header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        status, start = int(rest[:3]), head_end + 4
    connection = headers.get("connection", "").lower()
    reusable = "close" not in connection and (version == "HTTP/1.1" or "keep-alive" in connection)
    if status in (204, 304):
        framed = b"", start
    elif "chunked" in headers.get("transfer-encoding", "").lower():
        framed = _chunks(data, start)
    elif "content-length" in headers:
        length = headers["content-length"]
        if not length.isdecimal():
            raise _BadReply(f"bad Content-Length {length!r}")
        if int(length) > MAX_REPLY_BYTES:
            raise _OversizedReply(
                f"backend reply of {length} bytes exceeds the {MAX_REPLY_BYTES}-byte limit"
            )
        end = start + int(length)
        framed = (data[start:end], end) if len(data) >= end else None
    else:
        if len(data) - start > MAX_REPLY_BYTES:
            raise _OversizedReply(f"backend reply exceeds the {MAX_REPLY_BYTES}-byte limit")
        framed, reusable = ((data[start:], len(data)) if eof else None), False
    if framed is None:
        return None
    body, end = framed
    return status, headers, bytes(body), reusable and end == len(data)


def _chunks(data: bytes, pos: int) -> tuple[bytes, int] | None:
    """The body of the chunked reply whose chunks start at ``pos``, and where the reply ends."""
    body = bytearray()
    while True:
        line_end = data.find(b"\r\n", pos)
        if line_end < 0:
            return None
        digits = data[pos:line_end].partition(b";")[0].strip()
        if not digits or digits.strip(b"0123456789abcdefABCDEF"):
            raise _BadReply(f"bad chunk size {bytes(digits)!r}")
        size = int(digits, 16)
        if size == 0:
            end = data.find(b"\r\n\r\n", line_end)  # after the trailer lines, if any
            return None if end < 0 else (body, end + 4)
        if len(body) + size > MAX_REPLY_BYTES:
            raise _OversizedReply(f"backend reply exceeds the {MAX_REPLY_BYTES}-byte limit")
        pos = line_end + 2 + size
        if len(data) < pos + 2:
            return None
        if data[pos:pos + 2] != b"\r\n":
            raise _BadReply("chunk not followed by CRLF")
        body += data[line_end + 2:pos]
        pos += 2


def _route(parts: urllib.parse.SplitResult, timeout: float):
    """How to reach the URL ``parts``: a connection factory, and every POST's head up to its length.

    Honours ``http_proxy``/``https_proxy``/``no_proxy``, read once here: a
    plain-HTTP request goes to the proxy with the absolute URL as its target,
    an HTTPS one through a CONNECT tunnel.
    """
    https = parts.scheme == "https"
    default_port = 443 if https else 80
    host, port = parts.hostname, parts.port or default_port
    origin = f"[{host}]" if ":" in host else host
    headers = {
        "Host": origin if port == default_port else f"{origin}:{port}",
        "Accept-Encoding": "identity",
        "Content-Type": "application/json",
    }
    target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
    tunnel = None
    proxy = urllib.request.getproxies().get(parts.scheme)
    if proxy and not urllib.request.proxy_bypass(f"{host}:{port}"):
        via = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        if via.scheme != "http" or not via.hostname:
            raise ValueError(f"{parts.scheme}_proxy must be http://host[:port], got {proxy!r}")
        auth = {}
        if via.username is not None:
            credentials = ":".join(urllib.parse.unquote(v or "") for v in (via.username, via.password))
            auth["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials.encode()).decode()
        if https:
            tunnel = (host, port, auth)
        else:
            target = urllib.parse.urlunsplit(parts._replace(fragment=""))
            headers.update(auth)
        host, port = via.hostname, via.port or 80
    factory = http.client.HTTPConnection
    if https:
        factory = functools.partial(http.client.HTTPSConnection, context=ssl.create_default_context())

    def connect() -> http.client.HTTPConnection:
        conn = factory(host, port, timeout=timeout)
        if tunnel is not None:
            conn.set_tunnel(*tunnel)
        return conn

    lines = [f"POST {target} HTTP/1.1", *(f"{name}: {value}" for name, value in headers.items())]
    return connect, "\r\n".join([*lines, "Content-Length: "]).encode("ascii")


class _Exchange:
    """One POST: its request tuple, then its connection and reply bytes, then its outcome.

    The outcome is ``_parse_reply``'s tuple or the exception that ended the POST.
    """

    __slots__ = ("request", "conn", "buf", "deadline", "outcome")

    def __init__(self, request: tuple):
        self.request = request
        self.conn: http.client.HTTPConnection | None = None
        self.buf: bytearray | None = None
        self.deadline = 0.0
        self.outcome: tuple | Exception | None = None


class _Loop:
    """One thread's wave of POSTs, driven by one selector on that thread.

    ``wave`` holds the wave's exchanges that no ``generate`` call has taken
    yet, in wave order. ``waiting`` holds the POSTs without a connection, in
    order; the dial threads share it under the backend's lock. ``running``
    holds those in flight in the order they were sent, so the first is the
    first to time out.
    """

    def __init__(self, backend: HttpBackend, wave: Sequence[tuple]):
        self.backend = backend
        self.selector = _Selector()
        self.wave = deque(_Exchange(tuple(request)) for request in wave)
        self.waiting: deque[_Exchange] = deque(self.wave)
        self.running: dict[_Exchange, None] = {}
        self.dials = 0  # dials started for this loop and not yet ended
        # A socket pair that dials and other threads' connections wake the loop
        # through; made the first time the loop waits for one.
        self.wake: tuple[socket.socket, socket.socket] | None = None

    def take(self, request: tuple) -> _Exchange:
        """The wave's next exchange if it is ``request``'s, else a new POST of ``request``."""
        if self.wave and self.wave[0].request == request:
            return self.wave.popleft()
        return self.queue(_Exchange(request))

    def queue(self, exchange: _Exchange) -> _Exchange:
        """Put ``exchange`` first among the POSTs waiting for a connection."""
        exchange.outcome = None
        with self.backend._lock:
            self.waiting.appendleft(exchange)
        return exchange

    def close(self) -> None:
        """Drop the POSTs waiting for a connection and await those in flight."""
        with self.backend._lock:
            self.waiting.clear()
        while self.running:
            self.run(next(iter(self.running)))
        self.selector.close()
        for sock in self.wake or ():
            sock.close()

    def run(self, exchange: _Exchange) -> None:
        """Drive every POST of this thread until ``exchange`` has its outcome."""
        while True:
            self._send_waiting()
            done = exchange.outcome is not None
            events = []
            if not done:
                first = next(iter(self.running), None)
                events = self.selector.select(
                    None if first is None else max(0.0, first.deadline - time.monotonic())
                )
            if self.wake is not None:
                with self.backend._lock:
                    self.backend._waiters.discard(self.wake[1])
            if done:
                return
            for key, _ in events:
                if key.data is None:
                    key.fileobj.recv(64)
                else:
                    self._read(key.data)
            now = time.monotonic()
            while self.running and (first := next(iter(self.running))).deadline <= now:
                self._finish(first, TimeoutError("backend reply timed out"))

    def _send_waiting(self) -> None:
        """Send waiting POSTs on idle connections and keep one dial in progress per POST left.

        Dials never take the open connections past ``max_in_flight``. While a
        POST waits on a dial, or on nothing of this loop's own, the loop stays
        registered to be woken when a connection comes free or a dial ends.
        """
        backend = self.backend
        ready, dials = [], []
        with backend._lock:
            if backend._closed:
                # A dial would only be closed on arrival, and its POST dial again.
                for exchange in self.waiting:
                    exchange.outcome = BackendError(
                        f"backend {backend.url} is closed", prompt=exchange.request[0]
                    )
                self.waiting.clear()
            while self.waiting and backend._idle:
                conn = backend._idle.pop()
                if _closed_by_peer(conn.sock):
                    conn.close()
                    backend._open -= 1
                else:
                    ready.append((self.waiting.popleft(), conn))
            while (
                len(self.waiting) > self.dials + len(dials)
                and backend._open < backend._max_in_flight
            ):
                backend._open += 1
                dials.append(backend._connect())
            self.dials += len(dials)
            if self.waiting and (self.dials or not self.running):
                if self.wake is None:
                    self.wake = socket.socketpair()
                    self.selector.register(self.wake[0], selectors.EVENT_READ)
                backend._waiters.add(self.wake[1])
        for conn in dials:
            threading.Thread(target=backend._dial, args=(conn, self), daemon=True).start()
        for exchange, conn in ready:
            self._send(exchange, conn)

    def _send(self, exchange: _Exchange, conn: http.client.HTTPConnection) -> None:
        exchange.conn, exchange.buf = conn, bytearray()
        exchange.deadline = time.monotonic() + self.backend.timeout
        self.running[exchange] = None
        self.selector.register(conn.sock, selectors.EVENT_READ, exchange)
        try:
            # The send may wait up to the timeout for buffer room; reads never block.
            conn.sock.settimeout(self.backend.timeout)
            conn.sock.sendall(self.backend._encode(exchange.request))
            conn.sock.settimeout(0)
        except OSError as exc:
            self._finish(exchange, exc)

    def _read(self, exchange: _Exchange) -> None:
        sock = exchange.conn.sock
        try:
            data = sock.recv(_RECV_BYTES)
            # TLS may hold decrypted bytes that the selector cannot see.
            while data and isinstance(sock, ssl.SSLSocket) and sock.pending():
                data += sock.recv(_RECV_BYTES)
            exchange.buf += data
            reply = _parse_reply(exchange.buf, eof=not data)
            if reply is None and not data:
                raise _BadReply("reply ended early")
        except (BlockingIOError, ssl.SSLWantReadError):
            return  # a TLS record not yet whole
        except (OSError, _BadReply, _OversizedReply) as exc:
            self._finish(exchange, exc)
            return
        if reply is not None:
            self._finish(exchange, reply)

    def _finish(self, exchange: _Exchange, outcome: tuple | Exception) -> None:
        """Give ``exchange`` its outcome; pool its connection if the reply left it reusable."""
        conn = exchange.conn
        del self.running[exchange]
        self.selector.unregister(conn.sock)
        if not (isinstance(outcome, tuple) and outcome[3]):
            conn.close()
        self.backend._give_back(conn)
        exchange.conn = exchange.buf = None
        exchange.outcome = outcome


class HttpBackend:
    """Client for a remote completion service.

    POSTs ``{"prompt", "n", "greedy", "temperature", "seed", "max_tokens"}``
    and expects ``{"completions": [...]}`` back. Transient failures (network
    errors, truncated or garbled replies, 429, 5xx) are retried with
    exponential backoff up to ``max_retries``; a numeric ``Retry-After`` on a
    429 or 503 lengthens the wait, and no wait exceeds ``timeout``. Schema
    problems and replies over ``MAX_REPLY_BYTES`` fail fast. Determinism is
    best-effort and entirely up to the service.

    Each calling thread drives its own wave of POSTs (see ``prefetch``; a
    lone ``generate`` is a wave of one) with one selector loop, inside
    ``generate``: a POST is one ``sendall`` on a keep-alive connection, and
    its reply must arrive within ``timeout``. At most ``max_in_flight`` POSTs
    are in flight at once, across all threads that share the client, and
    each runs on a connection from a pool that never holds more than that
    many, open or being dialed. ``http.client`` only dials them, on
    short-lived threads, which covers TLS and proxy tunnels. A POST with no
    idle connection starts a dial and takes the first connection to come
    free, so a slow dial delays no POST while another connection is free.
    ``http_proxy``/``https_proxy``/``no_proxy`` are read once, here; HTTPS
    verifies against the system's CA store. Once the client is closed, a
    POST that has no connection yet fails at once, without a retry.
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 30.0,
        max_retries: int = 3,
        backoff: float = 0.25,
        max_in_flight: int = 64,
    ):
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"backend url must look like http[s]://host[:port]/path, got {url!r}")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.url = url
        self._max_in_flight = max_in_flight
        self._connect, self._head = _route(parts, timeout)
        # Idle keep-alive connections, most recently used last, and the count
        # of connections idle, in use or being dialed, which never exceeds
        # max_in_flight; a POST holds one, so that also bounds the POSTs.
        self._idle: list[http.client.HTTPConnection] = []
        self._open = 0
        self._closed = False
        # The wake sockets of the loops waiting for a connection.
        self._waiters: set[socket.socket] = set()
        self._lock = threading.Lock()
        # Per calling thread: the _Loop of its current wave.
        self._waves = threading.local()

    def close(self) -> None:
        """Close the idle connections, and fail every POST still waiting for one.

        A dial still in progress is not awaited: its connection is closed
        when it completes, as is any connection in use when it comes back.
        """
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            self._open -= len(idle)
            self._wake_waiters()
        for conn in idle:
            conn.close()

    @contextlib.contextmanager
    def prefetch(self, wave: Sequence[tuple]) -> Iterator[None]:
        """Send a wave of requests concurrently for the ``generate`` calls in the block.

        Each request is a ``(prompt, n, greedy, temperature, seed, max_tokens)``
        tuple. Inside the block, a ``generate`` call on this thread for the
        wave's next request returns that request's reply, or raises its error,
        instead of posting again; any other call posts on its own. Requests are
        sent in wave order as connections allow, and each ``generate`` call
        drives the POSTs until its own reply is in. On exit, requests nobody
        took are dropped or awaited, so a wave cut short by an error leaves
        nothing for later calls. Blocks on one thread do not nest.
        """
        if getattr(self._waves, "pending", None) is not None:
            raise RuntimeError("prefetch blocks do not nest")
        loop = self._waves.pending = _Loop(self, wave)
        try:
            yield
        finally:
            self._waves.pending = None
            loop.close()

    def generate(
        self,
        prompt: str,
        n: int,
        *,
        greedy: bool,
        temperature: float = 1.0,
        seed: int = 0,
        max_tokens: int = DEFAULT_MAX_TOKENS,
    ) -> list[str]:
        request = (prompt, n, greedy, temperature, seed, max_tokens)
        lone = getattr(self._waves, "pending", None) is None
        with self.prefetch([request]) if lone else contextlib.nullcontext():
            return self._completions(self._waves.pending, request)

    def _encode(self, request: tuple) -> bytes:
        """The request message of ``request``: the prebuilt head, the body's length, the body."""
        body = json.dumps(dict(zip(_REQUEST_FIELDS, request))).encode("utf-8")
        return b"%s%d\r\n\r\n%s" % (self._head, len(body), body)

    def _completions(self, loop: _Loop, request: tuple) -> list[str]:
        """The completions in ``loop``'s reply to ``request``; transient failures post again."""
        prompt, n = request[:2]
        exchange = loop.take(request)
        attempts = 0
        delay = self.backoff
        while True:
            attempts += 1
            loop.run(exchange)
            try:
                if isinstance(exchange.outcome, Exception):
                    raise exchange.outcome
                status, headers, data, _ = exchange.outcome
                if status == 429 or status >= 500:
                    wait = headers.get("retry-after", "") if status in (429, 503) else ""
                    raise _RetryableStatus(status, float(wait) if wait.isdecimal() else 0.0)
                if status != 200:
                    raise BackendError(
                        f"http {status} from backend",
                        prompt=prompt,
                        attempts=attempts,
                    )
                try:
                    reply = json.loads(data)
                except ValueError as exc:  # includes non-UTF-8 bytes
                    raise BackendError(
                        f"backend returned malformed JSON: {exc}",
                        prompt=prompt,
                        attempts=attempts,
                    ) from exc
                completions = reply.get("completions") if isinstance(reply, dict) else None
                if (
                    not isinstance(completions, list)
                    or len(completions) != n
                    or not all(isinstance(c, str) for c in completions)
                ):
                    raise BackendError(
                        f"backend reply missing {n} string completions",
                        prompt=prompt,
                        attempts=attempts,
                    )
                return completions
            except _OversizedReply as exc:
                raise BackendError(str(exc), prompt=prompt, attempts=attempts) from exc
            # OSError: refused, reset, timed out, unresolvable; _BadReply:
            # truncated or garbled replies.
            except (OSError, _BadReply, _RetryableStatus) as exc:
                if attempts > self.max_retries:
                    raise BackendError(
                        f"backend unreachable after {attempts} attempts: {exc}",
                        prompt=prompt,
                        attempts=attempts,
                    ) from exc
                time.sleep(min(max(delay, getattr(exc, "retry_after", 0.0)), self.timeout))
                delay *= 2
                loop.queue(exchange)

    def _dial(self, conn: http.client.HTTPConnection, loop: _Loop) -> None:
        """Open ``conn`` into the pool for ``loop``.

        If the dial fails while a POST of ``loop`` waits and no connection is
        idle, the first POST waiting fails with the dial's error.
        """
        error = None
        try:
            conn.connect()
            conn.sock.settimeout(0)  # idle and reading sockets never block
        except Exception as exc:
            conn.close()
            error = exc
        with self._lock:
            loop.dials -= 1
            if error is not None and loop.waiting and not self._idle:
                loop.waiting.popleft().outcome = error
        self._give_back(conn)

    def _give_back(self, conn: http.client.HTTPConnection) -> None:
        """Pool ``conn``, or close it if it is closed or the backend is; wake the waiting loops."""
        with self._lock:
            if conn.sock is None or self._closed:
                conn.close()
                self._open -= 1
            else:
                self._idle.append(conn)
            self._wake_waiters()

    def _wake_waiters(self) -> None:
        """Wake every loop waiting for a connection; the caller holds the lock."""
        for waiter in self._waiters:
            waiter.send(b"\0")
        self._waiters.clear()
