"""Async HTTP front-end: micro-batching, deadlines, tiered load shedding.

The socket layer of the serving stack (ROADMAP item 1): an
``asyncio``-streams HTTP/1.1 server — hand-rolled on the stdlib, no new
dependency — over a :class:`~repro.serve.pool.SuggestWorkerPool`.  The
pool is process-parallel and hands back futures; this module turns it
into an online service that answers real sockets under real overload:

Micro-batching
    Requests land in an asyncio queue.  A batcher task takes whatever is
    queued (up to ``max_batch``) and dispatches it at once — unless every
    worker is busy (``pool.queue_depth >= pool.n_workers``), in which
    case it first accumulates for ``batch_window_ms``, when a bigger
    batch costs nothing extra in latency.  Dispatch happens on the event
    loop itself: :meth:`~repro.serve.pool.SuggestWorkerPool.submit` sends
    the envelopes without blocking and returns a future, which a
    per-batch task awaits through :func:`asyncio.wrap_future` — no
    executor thread, and consecutive batches overlap because the pool's
    reply dispatcher completes each batch's future by batch id.  The
    ``serve.http.queue_seconds`` histogram records each request's wait
    from admission to ``submit``: near zero while a worker is idle, up
    to the window under saturation.

Admission control and shed tiers
    Every request is admitted at a *shed tier* chosen from the live
    per-worker queue depth (the number behind the ``serve.pool.queue_depth``
    gauge, plus the front-end's own not-yet-dispatched queue):

    ========  =========================  ===============================
    tier      entered when depth/worker  degradation
    ========  =========================  ===============================
    0         < ``shed_rerank_depth``    full pipeline
    1         ≥ ``shed_rerank_depth``    skip hitting-time rerank
    2         ≥ ``shed_personalize_depth``  + skip personalization
    3         ≥ ``reject_depth``         reject with 503, never enqueued
    ========  =========================  ===============================

    Tiers 1 and 2 ride into the workers as ``SuggestRequest.shed`` (see
    :class:`~repro.core.serving.ShedOptions`); tier 3 is answered here.
    Each tier entry is counted in ``serve.http.shed.{rerank,personalize,
    reject}``.  Hot-memo hits are unaffected — they are O(1) whatever
    the tier (degraded answers never fill the memo).

Deadlines
    Each request carries a deadline (``deadline_ms`` query parameter,
    default ``default_deadline_ms``).  A request that cannot be answered
    in time — still queued or still being served — returns 504 and is
    counted in ``serve.http.deadline_expired``; a request already
    expired when its batch dispatches is skipped, never burning worker
    time on an answer nobody is waiting for.

Failure isolation
    The pool is called with ``return_errors=True``: a request whose
    worker-side ``suggest`` raised maps to *its own* 500 (traceback in
    the JSON body) while every sibling in the batch is answered
    normally.  A pool-level failure — a dead worker, a timeout (replies
    still outstanding after the pool's ``ack_timeout``) or a closed pool
    — fails every request of its batch with a 500 and no other batch.

Connection cap
    At most ``_MAX_CONNECTIONS`` connections are served at once; one over
    the cap is answered 503 at accept, half-closed, its input drained
    (briefly) and closed, and counted in
    ``serve.http.rejected_connections``.

Endpoints
    * ``GET /suggest?q=Q[&k=K][&user=U][&timestamp=T][&deadline_ms=D]``
    * ``POST /suggest`` — JSON ``{"q": ...}`` or ``{"requests": [...]}``
    * ``GET /healthz`` — liveness (never shed, never batched)
    * ``GET /metrics`` — Prometheus text of the attached registry
    * ``GET /metrics.json`` — the same snapshot as JSON

Run it inline with :meth:`SuggestFrontend.start` on a running loop,
blocking with :func:`serve_until_interrupt` (the ``repro serve --listen``
path; SIGINT/SIGTERM-clean), or on a dedicated loop thread with
:func:`run_in_thread` (tests and benchmarks).
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
from dataclasses import dataclass, field
from urllib.parse import parse_qs, unquote, urlsplit

from repro.baselines.base import SuggestRequest
from repro.obs.export import to_json, to_prometheus
from repro.obs.registry import MetricsRegistry
from repro.serve.pool import SuggestError, SuggestWorkerPool

__all__ = [
    "FrontendConfig",
    "FrontendHandle",
    "SuggestFrontend",
    "run_in_thread",
    "serve_until_interrupt",
    "tier_for_depth",
]

#: Batch-size histogram bounds (requests per dispatched micro-batch).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Hard cap on an HTTP request body (bytes) — requests are tiny JSON.
_MAX_BODY_BYTES = 1 << 20

#: Seconds a client gets to deliver a request's headers and body once its
#: request line arrived (408 after that).  Idle keep-alive time between
#: requests is not bounded by it.
_REQUEST_READ_TIMEOUT_S = 10.0

#: Connections served at once; a connection over the cap gets a 503.
_MAX_CONNECTIONS = 1024

#: Seconds a rejected connection's unread input is drained after its 503
#: (closing a socket with unread input resets it, and the reset can cost
#: the client the 503).
_REJECT_DRAIN_S = 1.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(frozen=True, slots=True)
class FrontendConfig:
    """Tuning of the HTTP front-end.

    Attributes:
        batch_window_ms: Micro-batch accumulation window, waited only
            while every worker is busy (pool depth >= worker count);
            otherwise, and always at ``0``, a batch takes whatever is
            already queued and dispatches at once.
        max_batch: Dispatch a batch early once it holds this many
            requests.
        default_deadline_ms: Per-request deadline when the request does
            not carry ``deadline_ms`` itself.
        shed_rerank_depth: Per-worker queue depth at which tier 1 starts
            (skip the hitting-time rerank).
        shed_personalize_depth: Per-worker depth at which tier 2 starts
            (additionally skip personalization).
        reject_depth: Per-worker depth at which tier 3 starts (reject
            with 503 before enqueueing).
    """

    batch_window_ms: float = 2.0
    max_batch: int = 64
    default_deadline_ms: float = 1000.0
    shed_rerank_depth: float = 4.0
    shed_personalize_depth: float = 8.0
    reject_depth: float = 16.0

    def __post_init__(self) -> None:
        if self.batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")
        if not 0 < self.shed_rerank_depth <= self.shed_personalize_depth <= self.reject_depth:
            raise ValueError(
                "shed depths must satisfy 0 < rerank <= personalize <= "
                f"reject, got {self.shed_rerank_depth}/"
                f"{self.shed_personalize_depth}/{self.reject_depth}"
            )


def tier_for_depth(depth_per_worker: float, config: FrontendConfig) -> int:
    """The shed tier a request arriving at *depth_per_worker* enters.

    Monotone in depth by construction (the config validates the
    threshold ordering), so the server degrades in documented tier order
    as load rises: 0 → 1 → 2 → 3.
    """
    if depth_per_worker >= config.reject_depth:
        return 3
    if depth_per_worker >= config.shed_personalize_depth:
        return 2
    if depth_per_worker >= config.shed_rerank_depth:
        return 1
    return 0


@dataclass(slots=True)
class _HttpRequest:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    query: dict[str, list[str]]
    headers: dict[str, str]
    body: bytes
    keep_alive: bool


@dataclass(slots=True)
class _Ticket:
    """One admitted suggest request waiting for its batch's answer."""

    request: SuggestRequest
    admitted: float  # loop time of admission
    deadline: float  # loop-time deadline
    future: asyncio.Future = field(init=False)


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One CRLF-terminated line; over-long lines are a 400, not a crash."""
    try:
        return await reader.readline()
    except ValueError:  # longer than the StreamReader limit
        raise _BadRequest(f"{what} too long") from None


async def _read_head_and_body(
    reader: asyncio.StreamReader,
) -> tuple[dict[str, str], bytes] | None:
    """The headers and body after a request line (``None`` on EOF)."""
    headers: dict[str, str] = {}
    while True:
        raw = await _read_line(reader, "header line")
        if not raw:
            return None
        if raw in (b"\r\n", b"\n"):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length", "0") or "0"
    if not (declared.isascii() and declared.isdigit()):
        raise _BadRequest(f"malformed Content-Length {declared!r}")
    length = int(declared)
    if length > _MAX_BODY_BYTES:
        raise _BadRequest("request body too large", status=413)
    body = await reader.readexactly(length) if length else b""
    return headers, body


async def _drain_input(reader: asyncio.StreamReader, seconds: float) -> None:
    """Read and drop input until EOF, for at most *seconds*."""
    loop = asyncio.get_running_loop()
    end = loop.time() + seconds
    while (remaining := end - loop.time()) > 0:
        try:
            if not await asyncio.wait_for(reader.read(65536), remaining):
                return
        except asyncio.TimeoutError:
            return


async def _read_request(reader: asyncio.StreamReader) -> _HttpRequest | None:
    """Parse one HTTP/1.1 request off *reader* (``None`` on clean EOF).

    Malformed framing raises :class:`_BadRequest` (400/413); a client
    that stalls after its request line raises it with 408 once
    :data:`_REQUEST_READ_TIMEOUT_S` has passed.
    """
    try:
        line = await _read_line(reader, "request line")
    except ConnectionError:
        return None
    if not line or line in (b"\r\n", b"\n"):
        return None
    try:
        method, target, version = line.decode("latin-1").strip().split(" ", 2)
    except ValueError:
        raise _BadRequest("malformed request line") from None
    try:
        rest = await asyncio.wait_for(
            _read_head_and_body(reader), _REQUEST_READ_TIMEOUT_S
        )
    except asyncio.TimeoutError:
        raise _BadRequest("request read timed out", status=408) from None
    if rest is None:
        return None
    headers, body = rest
    try:
        parts = urlsplit(target)
    except ValueError:
        raise _BadRequest("malformed request target") from None
    keep_alive = headers.get("connection", "").lower() != "close" and (
        version.upper() != "HTTP/1.0"
        or headers.get("connection", "").lower() == "keep-alive"
    )
    return _HttpRequest(
        method=method.upper(),
        path=unquote(parts.path),
        query=parse_qs(parts.query),
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )


class _BadRequest(Exception):
    """A request the parser or router rejects with a 4xx."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _int_param(name: str, value) -> int:
    """*value* as an integer: a JSON integer or a decimal string.

    Booleans and non-integral numbers are rejected rather than coerced
    (``true`` is not ``k=1``, ``2.7`` is not ``k=2``).
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _BadRequest(f"{name} must be an integer, got {value!r}")


def _float_param(name: str, value) -> float:
    """*value* as a finite float: a JSON number or a numeric string."""
    number = math.nan
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
    if not math.isfinite(number):
        raise _BadRequest(f"{name} must be a finite number, got {value!r}")
    return number


def _str_param(name: str, value) -> str | None:
    """*value* as a string (``None`` passes through as "absent")."""
    if value is not None and not isinstance(value, str):
        raise _BadRequest(f"{name} must be a string, got {value!r}")
    return value


def _render(status: int, payload: bytes, content_type: str,
            keep_alive: bool) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + payload


class SuggestFrontend:
    """Asyncio HTTP/1.1 front-end over a :class:`SuggestWorkerPool`.

    Args:
        pool: The worker pool (its :attr:`~SuggestWorkerPool.queue_depth`
            drives admission control and the batch window; ``submit(...,
            return_errors=True)`` is the dispatch path).  Anything
            pool-shaped with ``n_workers``, ``queue_depth`` and ``submit``
            works — tests inject fakes.
        config: Batching/deadline/shed thresholds.
        registry: Metrics registry for the ``serve.http.*`` instruments
            (and ``/metrics``).  Pass the pool's registry to export both
            planes from one endpoint; ``None`` creates a private one.
    """

    def __init__(
        self,
        pool: SuggestWorkerPool,
        config: FrontendConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._pool = pool
        self._config = config if config is not None else FrontendConfig()
        self._registry = registry if registry is not None else MetricsRegistry()
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue[_Ticket] | None = None
        self._batcher: asyncio.Task | None = None
        self._dispatches: set[asyncio.Task] = set()
        self._connections = 0
        self._closed = False

        registry = self._registry
        self._m_requests = registry.counter("serve.http.requests")
        self._m_batches = registry.counter("serve.http.batches")
        self._m_batch_size = registry.histogram(
            "serve.http.batch_size", buckets=_BATCH_SIZE_BUCKETS
        )
        self._m_latency = registry.histogram("serve.http.latency_seconds")
        self._m_queue = registry.histogram("serve.http.queue_seconds")
        self._m_rejected_connections = registry.counter(
            "serve.http.rejected_connections"
        )
        self._m_inflight = registry.gauge("serve.http.inflight")
        self._m_deadline = registry.counter("serve.http.deadline_expired")
        self._m_shed = {
            1: registry.counter("serve.http.shed.rerank"),
            2: registry.counter("serve.http.shed.personalize"),
            3: registry.counter("serve.http.shed.reject"),
        }
        self._m_responses: dict[int, object] = {}

    # -- lifecycle ---------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving on the running loop (port 0 = ephemeral)."""
        if self._server is not None:
            raise RuntimeError("frontend already started")
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._batcher = self._loop.create_task(self._batch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves an ephemeral port)."""
        if self._server is None:
            raise RuntimeError("frontend not started")
        return self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        """Stop accepting, fail queued work, and await in-flight batches."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
        # Nothing new can arrive; fail whatever never got dispatched.
        if self._queue is not None:
            while not self._queue.empty():
                ticket = self._queue.get_nowait()
                if not ticket.future.done():
                    ticket.future.set_exception(
                        ConnectionError("frontend shutting down")
                    )
        if self._dispatches:
            await asyncio.gather(*self._dispatches, return_exceptions=True)

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        over_cap = self._connections >= _MAX_CONNECTIONS
        self._connections += 1
        try:
            if over_cap:
                self._m_rejected_connections.inc()
                writer.write(self._json_response(
                    503, {"error": "too many connections"}, keep_alive=False
                ))
                await writer.drain()
                writer.write_eof()
                await _drain_input(reader, _REJECT_DRAIN_S)
            else:
                await self._serve_requests(reader, writer)
        except (OSError, asyncio.CancelledError):
            pass
        finally:
            self._connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _serve_requests(self, reader, writer) -> None:
        """Answer requests off one connection until it closes."""
        while True:
            try:
                request = await _read_request(reader)
            except _BadRequest as exc:
                writer.write(self._json_response(
                    exc.status, {"error": str(exc)}, keep_alive=False
                ))
                await writer.drain()
                return
            except asyncio.IncompleteReadError:
                return
            if request is None:
                return
            started = self._loop.time()
            status, payload, content_type = await self._route(request)
            self._m_latency.observe(self._loop.time() - started)
            self._count_response(status)
            writer.write(_render(
                status, payload, content_type, request.keep_alive
            ))
            await writer.drain()
            if not request.keep_alive:
                return

    def _count_response(self, status: int) -> None:
        counter = self._m_responses.get(status)
        if counter is None:
            counter = self._registry.counter(
                "serve.http.responses", labels={"code": str(status)}
            )
            self._m_responses[status] = counter
        counter.inc()

    def _json_response(
        self, status: int, body: dict, keep_alive: bool
    ) -> bytes:
        self._count_response(status)
        return _render(
            status,
            json.dumps(body).encode("utf-8"),
            "application/json",
            keep_alive,
        )

    # -- routing -----------------------------------------------------------------

    async def _route(
        self, request: _HttpRequest
    ) -> tuple[int, bytes, str]:
        path = request.path
        if path == "/healthz":
            body = {"status": "ok", "workers": self._pool.n_workers}
            return 200, json.dumps(body).encode(), "application/json"
        if path == "/metrics":
            text = to_prometheus(self._registry.snapshot())
            return 200, text.encode(), "text/plain; version=0.0.4"
        if path == "/metrics.json":
            text = to_json(self._registry.snapshot())
            return 200, text.encode(), "application/json"
        if path == "/suggest":
            if request.method == "GET":
                return await self._suggest_single(request.query)
            if request.method == "POST":
                return await self._suggest_post(request.body)
            return 405, json.dumps({"error": "use GET or POST"}).encode(), \
                "application/json"
        return 404, json.dumps({"error": f"no route {path}"}).encode(), \
            "application/json"

    @staticmethod
    def _parse_params(params: dict) -> tuple[SuggestRequest, float | None]:
        """A ``SuggestRequest`` (tier 0) + deadline override from *params*.

        *params* maps names to either strings (JSON body) or lists of
        strings (query string).  Anything but a string query/user, an
        integral ``k`` or finite numbers is a 400, never coerced.
        """

        def one(name: str, default=None):
            value = params.get(name, default)
            if isinstance(value, list):
                value = value[0] if value else default
            return value

        query = _str_param("q", one("q") or one("query"))
        if not query or not query.strip():
            raise _BadRequest("missing query parameter 'q'")
        k = _int_param("k", one("k", 10))
        timestamp = _float_param("timestamp", one("timestamp", 0.0))
        deadline_ms = one("deadline_ms")
        if deadline_ms is not None:
            deadline_ms = _float_param("deadline_ms", deadline_ms)
            if deadline_ms <= 0:
                raise _BadRequest("deadline_ms must be positive")
        user = _str_param("user", one("user") or one("user_id"))
        try:
            request = SuggestRequest(
                query=query, k=k, user_id=user, timestamp=timestamp
            )
        except ValueError as exc:
            raise _BadRequest(str(exc)) from None
        return request, deadline_ms

    async def _suggest_single(self, params: dict) -> tuple[int, bytes, str]:
        try:
            request, deadline_ms = self._parse_params(params)
        except _BadRequest as exc:
            return exc.status, json.dumps({"error": str(exc)}).encode(), \
                "application/json"
        status, body = await self._admit_and_serve(request, deadline_ms)
        return status, json.dumps(body).encode(), "application/json"

    async def _suggest_post(self, body: bytes) -> tuple[int, bytes, str]:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (ValueError, RecursionError):
            return 400, json.dumps({"error": "body is not JSON"}).encode(), \
                "application/json"
        if isinstance(payload, dict) and "requests" in payload:
            items = payload["requests"]
            if not isinstance(items, list) or not items:
                return 400, json.dumps(
                    {"error": "'requests' must be a non-empty list"}
                ).encode(), "application/json"
            outcomes = await asyncio.gather(*(
                self._admit_one(item) for item in items
            ))
            results = [
                {"status": status, **body} for status, body in outcomes
            ]
            return 200, json.dumps({"results": results}).encode(), \
                "application/json"
        status, body = await self._admit_one(payload)
        return status, json.dumps(body).encode(), "application/json"

    async def _admit_one(self, params) -> tuple[int, dict]:
        if not isinstance(params, dict):
            return 400, {"error": "each request must be a JSON object"}
        try:
            request, deadline_ms = self._parse_params(params)
        except _BadRequest as exc:
            return exc.status, {"error": str(exc)}
        return await self._admit_and_serve(request, deadline_ms)

    # -- admission + batching ----------------------------------------------------

    def _current_depth(self) -> float:
        """Per-worker load signal: dispatched + still-queued requests."""
        queued = self._queue.qsize() if self._queue is not None else 0
        depth = self._pool.queue_depth + queued
        return depth / max(1, self._pool.n_workers)

    async def _admit_and_serve(
        self, request: SuggestRequest, deadline_ms: float | None
    ) -> tuple[int, dict]:
        """Admission control, batching, deadline — one request end to end."""
        self._m_requests.inc()
        depth = self._current_depth()
        tier = tier_for_depth(depth, self._config)
        if tier:
            self._m_shed[tier].inc()
        if tier >= 3:
            return 503, {
                "error": "overloaded",
                "shed_tier": 3,
                "depth_per_worker": depth,
            }
        if tier:
            request = SuggestRequest(
                query=request.query,
                k=request.k,
                user_id=request.user_id,
                context=request.context,
                timestamp=request.timestamp,
                shed=tier,
            )
        if deadline_ms is None:
            deadline_ms = self._config.default_deadline_ms
        admitted = self._loop.time()
        ticket = _Ticket(
            request=request,
            admitted=admitted,
            deadline=admitted + deadline_ms / 1000.0,
        )
        ticket.future = self._loop.create_future()
        self._m_inflight.inc()
        try:
            await self._queue.put(ticket)
            timeout = ticket.deadline - self._loop.time()
            try:
                result = await asyncio.wait_for(ticket.future, timeout)
            except asyncio.TimeoutError:
                self._m_deadline.inc()
                return 504, {
                    "error": "deadline expired",
                    "query": request.query,
                    "deadline_ms": deadline_ms,
                    "shed_tier": tier,
                }
            except ConnectionError as exc:
                return 503, {"error": str(exc), "query": request.query}
        finally:
            self._m_inflight.dec()
        if isinstance(result, SuggestError):
            return 500, {
                "error": result.error,
                "worker": result.worker_id,
                "query": request.query,
            }
        if isinstance(result, Exception):
            return 500, {"error": str(result), "query": request.query}
        return 200, {
            "query": request.query,
            "suggestions": result,
            "shed_tier": tier,
            "k": request.k,
        }

    async def _batch_loop(self) -> None:
        """Form a batch, dispatch it, repeat.

        A batch takes whatever is queued, up to ``max_batch``.  Only while
        every worker is busy (``pool.queue_depth >= pool.n_workers`` when
        the batch starts) does it first accumulate for ``batch_window_ms``:
        a request arriving at an idle worker never waits for a window.
        Dispatch is fire-and-forget (a task per batch), so batches overlap
        in the pool.
        """
        window = self._config.batch_window_ms / 1000.0
        max_batch = self._config.max_batch
        pool = self._pool
        while True:
            batch = [await self._queue.get()]
            if window > 0 and pool.queue_depth >= pool.n_workers:
                window_end = self._loop.time() + window
                while len(batch) < max_batch:
                    timeout = window_end - self._loop.time()
                    if timeout <= 0:
                        break
                    try:
                        batch.append(
                            await asyncio.wait_for(self._queue.get(), timeout)
                        )
                    except asyncio.TimeoutError:
                        break
            while len(batch) < max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            self._m_batches.inc()
            self._m_batch_size.observe(len(batch))
            task = self._loop.create_task(self._dispatch(batch))
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)

    async def _dispatch(self, batch: list[_Ticket]) -> None:
        """Submit one micro-batch to the pool and await its answers."""
        # Requests whose deadline passed while they waited (in the queue
        # or the window) get their 504 without ever burning a worker.
        now = self._loop.time()
        live = [ticket for ticket in batch if ticket.deadline > now]
        if not live:
            return
        for ticket in live:
            self._m_queue.observe(now - ticket.admitted)
        try:
            results = await asyncio.wrap_future(self._pool.submit(
                [ticket.request for ticket in live], return_errors=True
            ))
        except Exception as exc:
            # Pool-level failure (dead worker, closed pool): every ticket
            # of this batch fails; other batches are untouched.
            results = [exc] * len(live)
        for ticket, result in zip(live, results):
            if not ticket.future.done():
                ticket.future.set_result(result)


class FrontendHandle:
    """A :class:`SuggestFrontend` running on its own event-loop thread."""

    def __init__(
        self,
        frontend: SuggestFrontend,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self._frontend = frontend
        self._loop = loop
        self._thread = thread

    @property
    def frontend(self) -> SuggestFrontend:
        return self._frontend

    @property
    def address(self) -> tuple[str, int]:
        return self._frontend.address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the server and join its loop thread (idempotent)."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "FrontendHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_in_thread(
    pool,
    host: str = "127.0.0.1",
    port: int = 0,
    config: FrontendConfig | None = None,
    registry: MetricsRegistry | None = None,
    start_timeout: float = 30.0,
) -> FrontendHandle:
    """Start a frontend on a dedicated event-loop thread and return it.

    The blocking-world adapter used by tests, benchmarks and anything
    else that already owns its thread of control.  ``port=0`` binds an
    ephemeral port; read it off ``handle.address``.
    """
    started = threading.Event()
    holder: dict = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        frontend = SuggestFrontend(pool, config, registry)
        try:
            loop.run_until_complete(frontend.start(host, port))
        except Exception as exc:  # surface bind errors to the caller
            holder["error"] = exc
            started.set()
            loop.close()
            return
        holder["loop"] = loop
        holder["frontend"] = frontend
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(frontend.stop())
            # As asyncio.run does: cancel what is left (connections still
            # being answered) so each closes its socket on this loop.
            leftover = asyncio.all_tasks(loop)
            for task in leftover:
                task.cancel()
            loop.run_until_complete(
                asyncio.gather(*leftover, return_exceptions=True)
            )
            loop.close()

    thread = threading.Thread(target=runner, daemon=True, name="suggest-http")
    thread.start()
    if not started.wait(timeout=start_timeout):
        raise TimeoutError("frontend failed to start in time")
    if "error" in holder:
        raise holder["error"]
    return FrontendHandle(holder["frontend"], holder["loop"], thread)


def serve_until_interrupt(
    pool,
    host: str,
    port: int,
    config: FrontendConfig | None = None,
    registry: MetricsRegistry | None = None,
    ready=None,
) -> None:
    """Serve on the calling thread until SIGINT/SIGTERM (then stop cleanly).

    The ``repro serve --listen`` main loop: binds, reports the bound
    address through *ready* (a callable receiving ``(host, port)``), and
    shuts the front-end down — failing queued requests, awaiting
    in-flight batches — before returning, whatever ends the loop.
    """

    async def _main() -> None:
        frontend = SuggestFrontend(pool, config, registry)
        await frontend.start(host, port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        registered: list[signal.Signals] = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
                registered.append(signum)
            except (NotImplementedError, ValueError):  # pragma: no cover
                pass  # non-main thread / non-Unix: KeyboardInterrupt path
        if ready is not None:
            ready(*frontend.address)
        try:
            await stop.wait()
        finally:
            for signum in registered:
                loop.remove_signal_handler(signum)
            await frontend.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        pass
