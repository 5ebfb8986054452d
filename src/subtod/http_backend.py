"""The HTTP client backend: ``HttpBackend`` POSTs each generation request to a completion service.

It lives apart from ``subtod.backends`` because of what it loads:
``socket``, ``selectors`` and ``threading`` add tens of milliseconds to a
process's start. ``subtod.cli`` imports this module only once it has parsed
``--backend http``, so no other run pays for them. The client speaks plain
HTTP only and dials with plain sockets, so it loads none of ``ssl``,
``http.client`` or ``urllib.request``.
"""

from __future__ import annotations

import contextlib
import json
import math
import selectors
import socket
import threading
import time
import urllib.parse
from collections import deque
from typing import Iterator, Sequence

from .backends import DEFAULT_MAX_TOKENS
from .errors import BackendError

# Largest reply body the HTTP client reads; a larger one fails without a retry.
MAX_REPLY_BYTES = 1 << 20
_RECV_BYTES = 1 << 16
_REQUEST_FIELDS = ("prompt", "n", "greedy", "temperature", "seed", "max_tokens")
# poll() keeps registration out of the kernel; Windows has only select().
_Selector = getattr(selectors, "PollSelector", selectors.SelectSelector)


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
    misbehaved).
    """
    try:
        sock.recv(1)
    except BlockingIOError:
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


def _route(parts: urllib.parse.SplitResult, port: int, timeout: float):
    """A connection factory for the ``http://`` URL ``parts``, and every POST's head up to its length."""
    host = parts.hostname
    origin = f"[{host}]" if ":" in host else host
    target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
    lines = [
        f"POST {target} HTTP/1.1",
        f"Host: {origin}" if port == 80 else f"Host: {origin}:{port}",
        "Accept-Encoding: identity",
        "Content-Type: application/json",
        "Content-Length: ",
    ]
    return (lambda: _Connection((host, port), timeout)), "\r\n".join(lines).encode("ascii")


class _Connection:
    """A connection to ``address``: ``connect()`` dials it, then ``sock`` is open until ``close()``."""

    def __init__(self, address: tuple[str, int], timeout: float):
        self.sock: socket.socket | None = None
        self._address = address
        self._timeout = timeout

    def connect(self) -> None:
        self.sock = socket.create_connection(self._address, self._timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            sock.close()


class _Exchange:
    """One POST: its request tuple, then its connection and reply bytes, then its outcome.

    The outcome is the reply's ``(status, Retry-After value, body)`` or the error that ended it.
    """

    __slots__ = ("request", "conn", "buf", "deadline", "outcome")

    def __init__(self, request: tuple):
        self.request = request
        self.conn: _Connection | None = None
        self.buf: bytearray | None = None
        self.deadline = 0.0
        self.outcome: tuple | Exception | None = None


class HttpBackend:
    """Client for a remote completion service.

    POSTs ``{"prompt", "n", "greedy", "temperature", "seed", "max_tokens"}``
    and expects ``{"completions": [...]}`` back. Transient failures (network
    errors, truncated or garbled replies, 429, 5xx) are retried with
    exponential backoff up to ``max_retries``; a numeric ``Retry-After`` on a
    429 or 503 lengthens the wait, and no wait exceeds ``timeout``. Schema
    problems and replies over ``MAX_REPLY_BYTES`` fail fast. Determinism is
    best-effort and entirely up to the service.

    A backend serves one calling thread at a time: that thread sends a wave
    of POSTs (see ``prefetch``; a lone ``generate`` and each retry are waves
    of one) with one selector loop, which returns once every POST of the
    wave has its outcome. A call from another thread while a ``prefetch``
    block is open raises ``RuntimeError``. A POST is one ``sendall`` on a
    keep-alive connection, and its reply must arrive within ``timeout``. At
    most ``max_in_flight`` POSTs are in flight at once, each on a connection
    from a pool that never holds more than that many, open or being dialed.
    They are dialed on short-lived threads, with plain sockets; a dial that
    ends is the only thing that wakes a waiting wave. A POST with no idle
    connection starts a dial and takes the first connection to come free, so
    a slow dial delays no POST while another connection is free. Once the
    client is closed, a POST that has no connection yet fails at once,
    without a retry. The client speaks plain HTTP only, straight to the
    service: an ``https://`` URL is refused, and no proxy variable is read.
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
        if "@" in parts.netloc:
            # The client would silently drop them, and error messages name the URL.
            raise ValueError(f"backend url must not hold credentials, got one for {parts.hostname!r}")
        if parts.scheme == "https":
            raise ValueError(
                "backend url must be http://, not https://; to reach an HTTPS service, "
                "point the url at a local TLS-terminating tunnel (such as stunnel)"
            )
        try:
            port = 80 if parts.port is None else parts.port
        except ValueError:  # not a number from 0 to 65535
            port = 0
        if parts.scheme != "http" or not parts.hostname or not port:
            # Nothing before an "@" is shown: it may be a password.
            shown = "..." + url[url.rindex("@"):] if "@" in url else url
            raise ValueError(f"backend url must look like http://host[:port]/path, got {shown!r}")
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be at least 1, got {max_in_flight!r}")
        if not timeout > 0:
            raise ValueError(f"timeout must be positive, got {timeout!r}")
        if not math.isfinite(timeout):
            raise ValueError(f"timeout must be finite, got {timeout!r}")
        if not (math.isfinite(backoff) and backoff >= 0):
            raise ValueError(f"backoff must be finite and non-negative, got {backoff!r}")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.url = url
        self._max_in_flight = max_in_flight
        self._connect, self._head = _route(parts, port, timeout)
        # Idle keep-alive connections, most recently used last, and the count
        # of connections idle, in use or being dialed, which never exceeds
        # max_in_flight; a POST holds one, so that also bounds the POSTs.
        self._idle: list[_Connection] = []
        self._open = 0
        self._closed = False
        # The open prefetch block, on the thread ``_owner``: its answered
        # exchanges that no ``generate`` call has taken yet, in wave order, or
        # None. The rest is one ``_post`` call's: ``_waiting`` holds the POSTs
        # without a connection, in order, and each call gets a new one, so a
        # late dial thread can only fail or count against its own call.
        # ``_running`` holds the POSTs in flight in the order they were sent,
        # so the first is the first to time out. ``_dials`` counts the dials
        # started and not yet ended, and ``_wake`` is the socket pair that
        # ending dials wake the loop through, made when a POST waits on one.
        self._replies: deque[_Exchange] | None = None
        self._owner = 0
        self._waiting: deque[_Exchange] = deque()
        self._running: dict[_Exchange, None] = {}
        self._dials = 0
        self._selector: selectors.BaseSelector | None = None
        self._wake: tuple[socket.socket, socket.socket] | None = None
        # Guards the pool, _replies, _waiting, _dials and _wake against other threads.
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections and mark the backend closed; wake no loop.

        A POST waiting for a connection fails once a dial wakes its loop; the
        replies an open ``prefetch`` block holds stay. A dial in progress is
        not awaited: its connection is closed when it completes, as is any
        connection in use when it comes back.
        """
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            self._open -= len(idle)
        for conn in idle:
            conn.close()

    @contextlib.contextmanager
    def prefetch(self, wave: Sequence[tuple]) -> Iterator[None]:
        """Answer a wave of requests concurrently for the ``generate`` calls in the block.

        Each request is a ``(prompt, n, greedy, temperature, seed, max_tokens)``
        tuple. They are sent in wave order as connections allow, and the
        block opens once each has its first reply or error. Inside it, a
        ``generate`` call on this thread for the wave's next request takes
        that reply, or raises its error, instead of posting again; any other
        call posts on its own. Replies nobody took are dropped on exit.
        Blocks do not nest, and while one is open, another thread's
        ``prefetch`` or ``generate`` raises ``RuntimeError``.
        """
        with self._lock:
            if self._replies is not None:
                if self._owner == threading.get_ident():
                    raise RuntimeError("prefetch blocks do not nest")
                raise RuntimeError(f"backend {self.url} is in use by another thread")
            self._replies = deque(_Exchange(tuple(request)) for request in wave)
            self._owner = threading.get_ident()
        try:
            self._post(self._replies)
            yield
        finally:
            self._replies = None

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
        lone = self._replies is None or self._owner != threading.get_ident()
        with self.prefetch([request]) if lone else contextlib.nullcontext():
            if self._replies and self._replies[0].request == request:
                exchange = self._replies.popleft()
            else:
                self._post([exchange := _Exchange(request)])
            return self._completions(exchange)

    def _encode(self, request: tuple) -> bytes:
        """The request message of ``request``: the prebuilt head, the body's length, the body."""
        body = json.dumps(dict(zip(_REQUEST_FIELDS, request))).encode("utf-8")
        return b"%s%d\r\n\r\n%s" % (self._head, len(body), body)

    def _completions(self, exchange: _Exchange) -> list[str]:
        """The completions in the reply ``exchange`` has; transient failures post it again."""
        prompt, n = exchange.request[:2]
        attempts = 0
        delay = self.backoff
        while True:
            attempts += 1
            try:
                if isinstance(exchange.outcome, Exception):
                    raise exchange.outcome
                status, retry_after, data = exchange.outcome
                if status == 429 or status >= 500:
                    wait = retry_after if status in (429, 503) else ""
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
                exchange.outcome = None
                self._post([exchange])

    def _post(self, exchanges: Sequence[_Exchange]) -> None:
        """Send ``exchanges`` in order as connections allow; return once each has its outcome.

        Only this sends POSTs. If the loop raises, a POST still in flight
        ends with an error, so its connection is closed and uncounted.
        """
        with self._lock:
            self._waiting = deque(exchanges)
            self._dials = 0
        self._selector = _Selector()
        try:
            while True:
                self._send_waiting()
                if not (self._running or self._waiting):
                    return
                first = next(iter(self._running), None)
                events = self._selector.select(
                    None if first is None else max(0.0, first.deadline - time.monotonic())
                )
                for key, _ in events:
                    if key.data is None:
                        key.fileobj.recv(_RECV_BYTES)  # every wake-up byte so far
                    else:
                        self._read(key.data)
                now = time.monotonic()
                while self._running and (first := next(iter(self._running))).deadline <= now:
                    self._finish(first, TimeoutError("backend reply timed out"))
        finally:
            while self._running:
                self._finish(next(iter(self._running)), ConnectionAbortedError("POST abandoned"))
            with self._lock:
                self._waiting = deque()
                wake, self._wake = self._wake, None
            for sock in wake or ():
                sock.close()
            self._selector.close()

    def _send_waiting(self) -> None:
        """Send waiting POSTs on idle connections and keep one dial in progress per POST left.

        Dials never take the open connections past ``max_in_flight``. While a
        POST waits on one of this call's dials, or nothing is in flight, the
        loop has its wake socket pair, so a dial that ends wakes it.
        """
        ready, dials = [], []
        with self._lock:
            if self._closed:
                # A dial would only be closed on arrival, and its POST dial again.
                for exchange in self._waiting:
                    exchange.outcome = BackendError(
                        f"backend {self.url} is closed", prompt=exchange.request[0]
                    )
                self._waiting.clear()
            while self._waiting and self._idle:
                conn = self._idle.pop()
                if _closed_by_peer(conn.sock):
                    conn.close()
                    self._open -= 1
                else:
                    ready.append((self._waiting.popleft(), conn))
            while (
                len(self._waiting) > self._dials + len(dials)
                and self._open < self._max_in_flight
            ):
                self._open += 1
                dials.append(self._connect())
            self._dials += len(dials)
            if self._wake is None and self._waiting and (self._dials or not self._running):
                self._wake = socket.socketpair()
                self._selector.register(self._wake[0], selectors.EVENT_READ)
        for conn in dials:
            threading.Thread(target=self._dial, args=(conn, self._waiting), daemon=True).start()
        for exchange, conn in ready:
            self._send(exchange, conn)

    def _send(self, exchange: _Exchange, conn: _Connection) -> None:
        exchange.conn, exchange.buf = conn, bytearray()
        exchange.deadline = time.monotonic() + self.timeout
        self._running[exchange] = None
        self._selector.register(conn.sock, selectors.EVENT_READ, exchange)
        try:
            # The send may wait up to the timeout for buffer room; reads never block.
            conn.sock.settimeout(self.timeout)
            conn.sock.sendall(self._encode(exchange.request))
            conn.sock.settimeout(0)
        except OSError as exc:
            self._finish(exchange, exc)

    def _read(self, exchange: _Exchange) -> None:
        try:
            data = exchange.conn.sock.recv(_RECV_BYTES)
            exchange.buf += data
            reply = _parse_reply(exchange.buf, eof=not data)
            if reply is None and not data:
                raise _BadReply("reply ended early")
        except BlockingIOError:
            return  # a spurious wake-up
        except (OSError, _BadReply, _OversizedReply) as exc:
            self._finish(exchange, exc)
            return
        if reply is not None:
            self._finish(exchange, reply)

    def _finish(self, exchange: _Exchange, outcome: tuple | Exception) -> None:
        """Give ``exchange`` its outcome; pool its connection if the reply left it reusable."""
        conn = exchange.conn
        del self._running[exchange]
        self._selector.unregister(conn.sock)
        if isinstance(outcome, tuple):  # a reply keeps its status, Retry-After value and body
            status, headers, body, reusable = outcome
            outcome = status, headers.get("retry-after", ""), body
        if not (isinstance(outcome, tuple) and reusable):
            conn.close()
        with self._lock:
            self._give_back(conn)
        exchange.conn = exchange.buf = None
        exchange.outcome = outcome

    def _dial(self, conn: _Connection, waiting: deque[_Exchange]) -> None:
        """Open ``conn`` into the pool for the ``_post`` call whose POSTs wait in ``waiting``.

        If the dial fails while a POST of that call waits and no connection is
        idle, the first POST waiting fails with the dial's error. Either way,
        the dial wakes the running loop, if it has a wake socket pair.
        """
        error = None
        try:
            conn.connect()
            conn.sock.settimeout(0)  # idle and reading sockets never block
        except Exception as exc:
            conn.close()
            error = exc
        with self._lock:
            if waiting is self._waiting:
                self._dials -= 1
                if error is not None and waiting and not self._idle:
                    waiting.popleft().outcome = error
            self._give_back(conn)
            if self._wake is not None:
                self._wake[1].send(b"\0")

    def _give_back(self, conn: _Connection) -> None:
        """Pool ``conn``, or close it if it is closed or the backend is; the caller holds the lock."""
        if conn.sock is None or self._closed:
            conn.close()
            self._open -= 1
        else:
            self._idle.append(conn)
