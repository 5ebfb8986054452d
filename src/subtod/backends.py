"""Generation backends: a scripted, corpus-driven stand-in and an HTTP client.

The scripted backend answers the exact prompts built from its corpus's dialog
contexts. Greedy requests return the ground-truth state or act/response pair
verbatim; sampled requests return deterministic variations that are textually
distinct but evaluation-neutral (value casing for states, a politeness tail
for responses), unless an error injection turns a specific site into a
genuinely wrong generation. Everything is derived from the construction seed,
so outputs are bit-identical across runs and worker counts; the per-request
``seed`` argument is accepted for interface parity and ignored.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import functools
import hashlib
import http.client
import json
import random
import select
import socket
import ssl
import threading
import time
import urllib.parse
import urllib.request
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Protocol, Sequence

from .corpus import Corpus
from .errors import BackendError
from .model import (
    BeliefState,
    Dialog,
    SubgoalKind,
    SystemTurn,
    UserGoal,
    contexts_of,
    normalize_value,
    placeholder,
)
from .verbalize import (
    TOKEN_STATE,
    serialize_state_prompt,
    state_text,
    turn_text,
    verbalize_acts,
    verbalized_turn_text,
)

DEFAULT_MAX_TOKENS = 256


def stable_seed(*parts) -> int:
    """Deterministic 64-bit seed from arbitrary parts; hash() is salted, this isn't."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class GeneratorBackend(Protocol):
    """Text-completion interface shared by all backends.

    Implementations must be deterministic for a fixed (prompt, seed, params)
    tuple, or document themselves as best-effort. A backend may also offer a
    ``prefetch(requests)`` context manager (see ``HttpBackend``), which
    ``sampling.generate_wave`` uses to send a wave of requests at once.
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
    """One planted error at a (dialog, turn, kind) site.

    ``sample`` is the 1-based sampled-generation index that receives the
    error; greedy generations are never corrupted.
    """

    dialog_id: str
    turn: int
    kind: SubgoalKind
    error: ErrorKind
    sample: int = 1
    slot: str | None = None


@dataclass(frozen=True)
class ErrorInjectionConfig:
    injections: tuple[Injection, ...] = ()
    # Probability that a site (dialog, turn, kind) gets one random injection.
    rate: float = 0.0

    def lookup(self, dialog_id: str, turn: int, kind: SubgoalKind) -> Injection | None:
        for injection in self.injections:
            if (
                injection.dialog_id == dialog_id
                and injection.turn == turn
                and injection.kind == kind
            ):
                return injection
        return None


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
        self._sites: dict[str, tuple[Dialog, int]] = {}
        for dialog in list(world.dialogs) + list(world.dev_dialogs):
            for t, context in enumerate(contexts_of(dialog)):
                prompt = serialize_state_prompt(context).text
                first, first_t = self._sites.setdefault(prompt, (dialog, t))
                if first is not dialog and first.turns[first_t].system != dialog.turns[t].system:
                    raise ValueError(
                        f"dialogs {first.id!r} (turn {first_t}) and {dialog.id!r} (turn {t}) "
                        "share a context but not its gold system turn"
                    )
        # Per-site values, filled on first use: the injection per (site,
        # stage, n) and the verbalized gold acts per site.
        self._injections: dict[tuple[str, SubgoalKind, int], Injection | None] = {}
        self._gold_acts: dict[str, str] = {}
        self._value_pool: dict[tuple[str, str], list[str]] = {}
        for domain, entities in world.database.tables.items():
            for entity in entities:
                for slot, value in entity.items():
                    pool = self._value_pool.setdefault((domain, slot), [])
                    if value not in pool:
                        pool.append(value)

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
        marker = f" {TOKEN_STATE}"
        if marker in prompt:
            state_key = prompt.split(marker, 1)[0]
            stage = SubgoalKind.ACT_RESPONSE
        else:
            state_key = prompt
            stage = SubgoalKind.STATE
        site = self._sites.get(state_key)
        if site is None:
            raise BackendError("prompt does not match any known dialog context", prompt=prompt)
        dialog, turn = site
        system = dialog.turns[turn].system
        if stage is SubgoalKind.STATE:
            if greedy:
                return [state_text(system.state)] * n
            injection = self._injection(state_key, dialog, turn, stage, n)
            return [self._sampled_state(dialog, system, i, injection) for i in range(1, n + 1)]
        acts = self._gold_acts.get(state_key)
        if acts is None:
            acts = self._gold_acts[state_key] = verbalize_acts(system.acts)
        if greedy:
            return [verbalized_turn_text(acts, system.response)] * n
        injection = self._injection(state_key, dialog, turn, stage, n)
        return [self._sampled_turn(dialog, turn, acts, i, injection) for i in range(1, n + 1)]

    def _sampled_state(
        self, dialog: Dialog, system: SystemTurn, i: int, injection: Injection | None
    ) -> str:
        if injection is not None and injection.sample == i:
            return state_text(self._apply_state_error(dialog, system.state, injection))
        return state_text(self._neutral_state(system.state, i))

    def _sampled_turn(
        self, dialog: Dialog, turn: int, gold_acts: str, i: int, injection: Injection | None
    ) -> str:
        if injection is not None and injection.sample == i:
            return turn_text(*self._apply_response_error(dialog, turn, injection))
        response = _response_variant(dialog.turns[turn].system.response, i)
        return verbalized_turn_text(gold_acts, response)

    # -- noise -----------------------------------------------------------

    def _goal_of(self, dialog: Dialog) -> UserGoal | None:
        return self.world.goals.get(dialog.goal_id) or self.world.dev_goals.get(dialog.goal_id)

    def _injection(
        self, state_key: str, dialog: Dialog, turn: int, stage: SubgoalKind, n: int
    ) -> Injection | None:
        """``_site_injection`` for the site of ``state_key``, decided once."""
        key = (state_key, stage, n)
        if key not in self._injections:
            self._injections[key] = self._site_injection(dialog, turn, stage, n)
        return self._injections[key]

    def _site_injection(
        self, dialog: Dialog, turn: int, stage: SubgoalKind, n: int
    ) -> Injection | None:
        planted = self.noise.lookup(dialog.id, turn, stage)
        if planted is not None:
            return planted
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
        return Injection(
            dialog_id=dialog.id,
            turn=turn,
            kind=stage,
            error=error,
            sample=rng.randrange(1, n + 1),
        )

    def _requested_tokens(self, goal: UserGoal, response: str) -> list[str]:
        tokens = []
        for domain in goal.domain_names():
            for slot in sorted(goal.domains[domain].requests):
                token = placeholder(domain, slot)
                if token in response:
                    tokens.append(token)
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
        self, dialog: Dialog, state: BeliefState, injection: Injection
    ) -> BeliefState:
        out = _copy_state(state)
        if not out:
            return out
        rng = random.Random(
            stable_seed(self.seed, dialog.id, injection.turn, "err", injection.sample)
        )
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
            # No route to swap anywhere; degrade to a wrong value.
            injection = dataclasses.replace(injection, error=ErrorKind.WRONG_VALUE)
        if injection.slot is not None:
            domain = next((d for d in domains if injection.slot in out[d]), None)
            slot = injection.slot if domain is not None else None
        else:
            domain = slot = None
        if domain is None:
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

    def _apply_response_error(self, dialog: Dialog, turn: int, injection: Injection):
        system = dialog.turns[turn].system
        goal = self._goal_of(dialog)
        if injection.slot is not None:
            domains = goal.domain_names() if goal else tuple(self.world.ontology.domain_names())
            tokens = [
                placeholder(d, injection.slot)
                for d in domains
                if placeholder(d, injection.slot) in system.response
            ]
        else:
            tokens = self._requested_tokens(goal, system.response) if goal else []
        if not tokens:
            # Nothing requested to omit here; fall back to a distinct variant.
            return system.acts, _response_variant(system.response, injection.sample)
        rng = random.Random(stable_seed(self.seed, dialog.id, turn, "omit"))
        token = tokens[rng.randrange(len(tokens))]
        response = _strip_placeholder(system.response, token)
        domain, _, slot = token[1:-1].partition("_")
        acts = tuple(a for a in system.acts if not (a.domain == domain and a.slot == slot))
        return acts, response


class _RetryableStatus(Exception):
    """A 429 or 5xx reply, retried like a network error."""


def _closed_by_peer(sock: socket.socket) -> bool:
    """True when an idle keep-alive socket is readable: the server closed it (or misbehaved)."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _route(parts: urllib.parse.SplitResult, timeout: float):
    """How to reach the URL ``parts``: a connection factory, the request target and headers.

    Honours ``http_proxy``/``https_proxy``/``no_proxy``, read once here: a
    plain-HTTP request goes to the proxy with the absolute URL as its target,
    an HTTPS one through a CONNECT tunnel.
    """
    https = parts.scheme == "https"
    host, port = parts.hostname, parts.port or (443 if https else 80)
    target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
    headers = {"Content-Type": "application/json"}
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

    return connect, target, headers


class HttpBackend:
    """Client for a remote completion service.

    POSTs ``{"prompt", "n", "greedy", "temperature", "seed", "max_tokens"}``
    and expects ``{"completions": [...]}`` back. Transient failures (network
    errors, truncated replies, 429, 5xx) are retried with exponential backoff
    up to ``max_retries``; schema problems fail fast. Determinism is
    best-effort and entirely up to the service. At most ``max_in_flight``
    POSTs are in flight at once, across all threads that share the client, and
    each runs on a keep-alive connection from a pool that never holds more
    than that many. ``http_proxy``/``https_proxy``/``no_proxy`` are read once,
    here; HTTPS verifies against the system's CA store.
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 30.0,
        max_retries: int = 3,
        backoff: float = 0.25,
        max_in_flight: int = 8,
    ):
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"backend url must look like http[s]://host[:port]/path, got {url!r}")
        self.url = url
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._semaphore = threading.BoundedSemaphore(max_in_flight)
        self._connect, self._target, self._headers = _route(parts, timeout)
        # Idle keep-alive connections, most recently used last. A new one is
        # opened only when none is idle, inside the semaphore, so there are
        # never more than max_in_flight.
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(max_in_flight, thread_name_prefix="http-backend")
        # Per calling thread: the replies of its current prefetched wave.
        self._waves = threading.local()

    def close(self) -> None:
        """Close the idle connections and stop the request threads."""
        self._pool.shutdown(cancel_futures=True)
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    @contextlib.contextmanager
    def prefetch(self, wave: Sequence[tuple]) -> Iterator[None]:
        """Send a wave of requests concurrently for the ``generate`` calls in the block.

        Each request is a ``(prompt, n, greedy, temperature, seed, max_tokens)``
        tuple. Inside the block, a ``generate`` call on this thread with equal
        arguments returns that request's reply, or raises its error, instead of
        posting again; each reply answers one call. On exit, replies nobody
        took are cancelled or awaited and dropped, so a wave cut short by an
        error leaves nothing for later calls.
        """
        pending: dict[tuple, list[Future]] = {}
        for request in wave:
            pending.setdefault(tuple(request), []).append(self._pool.submit(self._post, *request))
        outer = getattr(self._waves, "pending", None)
        self._waves.pending = pending
        try:
            yield
        finally:
            self._waves.pending = outer
            leftovers = [future for futures in pending.values() for future in futures]
            for future in leftovers:
                future.cancel()
            wait(leftovers)

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
        futures = (getattr(self._waves, "pending", None) or {}).get(request)
        if futures:
            return futures.pop(0).result()
        return self._post(*request)

    def _exchange(self, body: bytes) -> tuple[int, bytes]:
        """POST ``body`` on an idle or new connection; return the status and the whole reply."""
        conn = None
        with self._idle_lock:
            while self._idle and conn is None:
                conn = self._idle.pop()
                if _closed_by_peer(conn.sock):
                    conn.close()
                    conn = None
        if conn is None:
            conn = self._connect()
        try:
            conn.request("POST", self._target, body, self._headers)
            resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        # http.client closes the connection itself when the reply ends it.
        if conn.sock is not None:
            with self._idle_lock:
                self._idle.append(conn)
        return resp.status, data

    def _post(
        self, prompt: str, n: int, greedy: bool, temperature: float, seed: int, max_tokens: int
    ) -> list[str]:
        body = json.dumps(
            {
                "prompt": prompt,
                "n": n,
                "greedy": greedy,
                "temperature": temperature,
                "seed": seed,
                "max_tokens": max_tokens,
            }
        ).encode("utf-8")
        attempts = 0
        delay = self.backoff
        while True:
            attempts += 1
            try:
                with self._semaphore:
                    status, data = self._exchange(body)
                if status == 429 or status >= 500:
                    raise _RetryableStatus(f"http {status}")
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
            # OSError: refused, reset, timed out, unresolvable; HTTPException:
            # truncated or garbled replies.
            except (OSError, http.client.HTTPException, _RetryableStatus) as exc:
                if attempts > self.max_retries:
                    raise BackendError(
                        f"backend unreachable after {attempts} attempts: {exc}",
                        prompt=prompt,
                        attempts=attempts,
                    ) from exc
                time.sleep(delay)
                delay *= 2
