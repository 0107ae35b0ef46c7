"""The async HTTP front-end: identity, deadlines, shedding, isolation.

Fake pools make the control-plane behavior deterministic (tier
selection, deadline expiry, per-request failures, batching windows); one
real :class:`SuggestWorkerPool` closes the loop end to end — bytes over
a socket must equal ``suggest_batch`` bit for bit.
"""

import json
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.base import SuggestRequest
from repro.obs.registry import MetricsRegistry
from repro.serve import frontend as frontend_module
from repro.serve.frontend import (
    FrontendConfig,
    SuggestFrontend,
    run_in_thread,
    tier_for_depth,
)
from repro.serve.pool import SuggestError, SuggestWorkerPool

from tests.serve.conftest import SERVE_CONFIG, wait_for


def _metric_value(registry, name, labels=None):
    for entry in registry.snapshot()["metrics"]:
        if entry["name"] == name and (
            labels is None or entry["labels"] == labels
        ):
            return entry["value"]
    return None


def _get(url):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class FakePool:
    """Scriptable pool: fixed depth, optional delay, recorded calls."""

    def __init__(self, n_workers=2, depth=0, delay=0.0, fail_queries=()):
        self.n_workers = n_workers
        self.queue_depth = depth
        self.delay = delay
        self.fail_queries = set(fail_queries)
        self.calls: list[list[SuggestRequest]] = []
        self._lock = threading.Lock()

    def submit(self, requests, return_errors=False):
        """``suggest_many`` on a thread, as a future (never blocks)."""
        future = Future()

        def run():
            try:
                future.set_result(self.suggest_many(requests, return_errors))
            except Exception as exc:
                future.set_exception(exc)

        threading.Thread(target=run, daemon=True).start()
        return future

    def suggest_many(self, requests, return_errors=False):
        with self._lock:
            self.calls.append(list(requests))
        if self.delay:
            time.sleep(self.delay)
        results = []
        for request in requests:
            if request.query in self.fail_queries:
                assert return_errors
                results.append(SuggestError(0, "TypeError: scripted failure"))
            else:
                results.append(
                    [f"{request.query}-s{i}" for i in range(request.k)]
                )
        return results

    @property
    def dispatched(self):
        with self._lock:
            return [request for call in self.calls for request in call]


@pytest.fixture
def fast_config():
    return FrontendConfig(batch_window_ms=1.0)


def test_config_validates_tier_ordering():
    with pytest.raises(ValueError, match="shed depths"):
        FrontendConfig(shed_rerank_depth=8.0, shed_personalize_depth=4.0)
    with pytest.raises(ValueError, match="shed depths"):
        FrontendConfig(reject_depth=1.0)
    with pytest.raises(ValueError, match="batch_window_ms"):
        FrontendConfig(batch_window_ms=-1.0)


def test_tier_is_monotone_in_depth(fast_config):
    tiers = [
        tier_for_depth(depth, fast_config) for depth in (0, 3.9, 4, 7.9, 8, 16, 99)
    ]
    assert tiers == [0, 0, 1, 1, 2, 3, 3]
    assert tiers == sorted(tiers)


class TestShedTiers:
    def test_tiers_follow_queue_depth_in_order(self):
        """Rising depth walks the documented tier order 0 → 1 → 2 → 3,
        forwarding the tier to the pool — until 3, which never dispatches."""
        pool = FakePool(n_workers=1)
        registry = MetricsRegistry()
        config = FrontendConfig(
            batch_window_ms=0.0,
            shed_rerank_depth=4.0,
            shed_personalize_depth=8.0,
            reject_depth=16.0,
        )
        with run_in_thread(pool, config=config, registry=registry) as handle:
            for depth, want_tier, want_status in (
                (0, 0, 200),
                (4, 1, 200),
                (8, 2, 200),
                (16, 3, 503),
            ):
                pool.queue_depth = depth
                status, body = _get(handle.url + f"/suggest?q=d{depth}&k=2")
                assert status == want_status
                assert body["shed_tier"] == want_tier
        shed_of = {request.query: request.shed for request in pool.dispatched}
        assert shed_of == {"d0": 0, "d4": 1, "d8": 2}  # d16 never dispatched
        for label, want in (("rerank", 1), ("personalize", 1), ("reject", 1)):
            assert _metric_value(registry, f"serve.http.shed.{label}") == want
        assert _metric_value(
            registry, "serve.http.responses", {"code": "503"}
        ) == 1

    def test_depth_is_per_worker(self):
        """The same absolute backlog sheds on a small pool, not a big one."""
        config = FrontendConfig(batch_window_ms=0.0, reject_depth=16.0)
        for n_workers, expected_status in ((1, 503), (8, 200)):
            pool = FakePool(n_workers=n_workers, depth=20)
            with run_in_thread(pool, config=config) as handle:
                status, _ = _get(handle.url + "/suggest?q=x&k=1")
                assert status == expected_status


class TestDeadlines:
    def test_deadline_expiry_returns_504(self):
        pool = FakePool(delay=1.0)
        registry = MetricsRegistry()
        with run_in_thread(
            pool, config=FrontendConfig(batch_window_ms=0.0), registry=registry
        ) as handle:
            status, body = _get(
                handle.url + "/suggest?q=slow&k=2&deadline_ms=80"
            )
            assert status == 504
            assert body["error"] == "deadline expired"
            assert _metric_value(registry, "serve.http.deadline_expired") == 1
            assert _metric_value(
                registry, "serve.http.responses", {"code": "504"}
            ) == 1

    def test_request_expired_in_queue_is_never_dispatched(self):
        """A request whose deadline passes while it waits out the batch
        window of a saturated pool gets its 504 without ever burning a
        worker on it; a sibling that outlives the window is served."""
        pool = FakePool(n_workers=2, depth=2)  # every worker busy
        config = FrontendConfig(batch_window_ms=300.0)
        with run_in_thread(pool, config=config) as handle:
            lasting = threading.Thread(
                target=_get, args=(handle.url + "/suggest?q=lasting&k=1",)
            )
            lasting.start()
            status, _ = _get(
                handle.url + "/suggest?q=doomed&k=1&deadline_ms=50"
            )
            lasting.join(timeout=30)
            assert not lasting.is_alive()
            assert status == 504
        assert {r.query for r in pool.dispatched} == {"lasting"}


class TestPerRequestFailures:
    def test_worker_error_maps_to_500_for_that_request_only(self):
        pool = FakePool(fail_queries={"bad"})
        registry = MetricsRegistry()
        with run_in_thread(
            pool,
            config=FrontendConfig(batch_window_ms=20.0),
            registry=registry,
        ) as handle:
            status, body = _post(handle.url + "/suggest", {
                "requests": [
                    {"q": "good1", "k": 2},
                    {"q": "bad", "k": 2},
                    {"q": "good2", "k": 2},
                ],
            })
            assert status == 200
            statuses = [result["status"] for result in body["results"]]
            assert statuses == [200, 500, 200]
            assert body["results"][0]["suggestions"] == ["good1-s0", "good1-s1"]
            assert "TypeError" in body["results"][1]["error"]
            assert body["results"][1]["worker"] == 0
            assert body["results"][2]["suggestions"] == ["good2-s0", "good2-s1"]
        # All three rode one micro-batch — isolation is per-request,
        # not an artifact of separate dispatches.
        assert any(len(call) == 3 for call in pool.calls)


class TestHttpPlumbing:
    def test_bad_requests_and_routes(self, fast_config):
        pool = FakePool()
        with run_in_thread(pool, config=fast_config) as handle:
            assert _get(handle.url + "/suggest?k=3")[0] == 400
            assert _get(handle.url + "/suggest?q=x&k=zero")[0] == 400
            assert _get(handle.url + "/suggest?q=x&deadline_ms=-5")[0] == 400
            assert _get(handle.url + "/nope")[0] == 404
            status, _ = _post(handle.url + "/suggest", {"requests": []})
            assert status == 400
            request = urllib.request.Request(
                handle.url + "/suggest", data=b"{}", method="PUT"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 405
        assert pool.calls == []  # nothing malformed reached the pool

    def test_healthz_and_metrics_endpoints(self, fast_config):
        registry = MetricsRegistry()
        with run_in_thread(
            FakePool(n_workers=3), config=fast_config, registry=registry
        ) as handle:
            status, body = _get(handle.url + "/healthz")
            assert (status, body) == (200, {"status": "ok", "workers": 3})
            _get(handle.url + "/suggest?q=x&k=1")
            with urllib.request.urlopen(handle.url + "/metrics") as response:
                text = response.read().decode()
            assert "repro_serve_http_requests_total 1" in text
            assert 'repro_serve_http_responses_total{code="200"}' in text
            status, snapshot = _get(handle.url + "/metrics.json")
            assert status == 200
            assert any(
                entry["name"] == "serve.http.batch_size"
                for entry in snapshot["metrics"]
            )

    def test_concurrent_requests_coalesce_into_micro_batches(self):
        pool = FakePool(n_workers=2, depth=2)  # saturated: the window opens
        config = FrontendConfig(batch_window_ms=150.0)
        with run_in_thread(pool, config=config) as handle:
            n_requests = 6
            threads = [
                threading.Thread(
                    target=_get,
                    args=(handle.url + f"/suggest?q=q{i}&k=1",),
                )
                for i in range(n_requests)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert len(pool.dispatched) == n_requests
        assert len(pool.calls) < n_requests  # coalesced, not one-by-one
        assert max(len(call) for call in pool.calls) >= 2

    def test_lone_request_on_an_idle_pool_skips_the_window(self):
        """No worker is busy, so nothing is worth waiting for: a lone
        request dispatches at once instead of after the window."""
        pool = FakePool(n_workers=2, depth=0)
        registry = MetricsRegistry()
        config = FrontendConfig(batch_window_ms=150.0)
        with run_in_thread(pool, config=config, registry=registry) as handle:
            _get(handle.url + "/healthz")  # connection machinery warm
            latencies = []
            for i in range(3):
                started = time.monotonic()
                status, _ = _get(handle.url + f"/suggest?q=lone{i}&k=1")
                latencies.append(time.monotonic() - started)
                assert status == 200
        assert min(latencies) < 0.1
        queued = next(
            entry for entry in registry.snapshot()["metrics"]
            if entry["name"] == "serve.http.queue_seconds"
        )
        assert queued["count"] == 3
        assert queued["sum"] < 0.15  # the window was never waited out

    def test_connection_over_the_cap_gets_a_503_and_is_closed(
        self, monkeypatch, fast_config
    ):
        monkeypatch.setattr(frontend_module, "_MAX_CONNECTIONS", 2)
        registry = MetricsRegistry()
        request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        with run_in_thread(
            FakePool(), config=fast_config, registry=registry
        ) as handle:
            held = [
                socket.create_connection(handle.address, timeout=10)
                for _ in range(2)
            ]
            try:
                for sock in held:  # both are being served (keep-alive)
                    sock.sendall(request)
                    assert _status_of(sock.recv(65536)) == 200
                # The over-cap client already sent its request: it must
                # still read the 503, not a connection reset.
                response = _raw_exchange(handle, request)
                assert _status_of(response) == 503
                assert b"too many connections" in response
                assert _metric_value(
                    registry, "serve.http.rejected_connections"
                ) == 1
                for sock in held:  # still served after the rejection
                    sock.sendall(request)
                    assert _status_of(sock.recv(65536)) == 200
            finally:
                held.pop().close()
            # A slot freed up: the next connection is served again.
            wait_for(lambda: _get(handle.url + "/healthz")[0] == 200)
            for sock in held:
                sock.close()

    @pytest.mark.parametrize(
        "method, target, payload",
        [
            ("GET", "/suggest?q=x&deadline_ms=nan", None),
            ("GET", "/suggest?q=x&deadline_ms=inf", None),
            ("POST", "/suggest", {"q": "x", "deadline_ms": float("nan")}),
            ("GET", "/suggest?q=x&timestamp=nan", None),
            ("GET", "/suggest?q=x&timestamp=inf", None),
            ("POST", "/suggest", {"q": "x", "timestamp": float("-inf")}),
            ("POST", "/suggest", {"q": "x", "k": True}),
            ("POST", "/suggest", {"q": "x", "k": 2.7}),
            ("POST", "/suggest", {"q": {"x": 1}}),
            ("POST", "/suggest", {"q": 7}),
            ("POST", "/suggest", {"q": "x", "user": {"id": 1}}),
            (
                "POST",
                "/suggest",
                {"requests": [{"q": "x", "deadline_ms": float("inf")}]},
            ),
        ],
        ids=[
            "get-deadline-nan",
            "get-deadline-inf",
            "json-deadline-nan",
            "get-timestamp-nan",
            "get-timestamp-inf",
            "json-timestamp-inf",
            "json-k-bool",
            "json-k-fraction",
            "json-q-object",
            "json-q-number",
            "json-user-object",
            "batch-deadline-inf",
        ],
    )
    def test_uncoercible_parameters_are_a_400(
        self, fast_config, method, target, payload
    ):
        pool = FakePool()
        with run_in_thread(pool, config=fast_config) as handle:
            if method == "GET":
                status, body = _get(handle.url + target)
            else:
                status, body = _post(handle.url + target, payload)
        if "requests" in (payload or {}):
            assert status == 200
            status, body = body["results"][0].pop("status"), body["results"][0]
        assert status == 400
        assert "error" in body
        assert pool.calls == []

    def test_pool_level_failure_maps_to_500(self, fast_config):
        class ExplodingPool(FakePool):
            def suggest_many(self, requests, return_errors=False):
                super().suggest_many(requests, return_errors)
                raise TimeoutError("replies outstanding after 30s")

        with run_in_thread(ExplodingPool(), config=fast_config) as handle:
            status, body = _get(handle.url + "/suggest?q=x&k=1")
            assert status == 500
            assert "outstanding" in body["error"]


def _raw_exchange(handle, payload: bytes, timeout: float = 10.0) -> bytes:
    """Send raw bytes, then read until the server closes the connection."""
    with socket.create_connection(handle.address, timeout=timeout) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _status_of(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


class TestMalformedFraming:
    """Broken framing gets a 4xx and a closed connection — never an
    exception escaping the connection handler, never a silent hang."""

    @pytest.fixture
    def served(self, fast_config, caplog):
        pool = FakePool()
        with run_in_thread(pool, config=fast_config) as handle:
            yield handle, pool
            # The server is still healthy after every malformed client.
            assert _get(handle.url + "/healthz")[0] == 200
        assert not [
            record
            for record in caplog.records
            if "client_connected_cb" in record.getMessage()
        ]

    @pytest.mark.parametrize("length", [b"abc", b"-5", b"1_0", b"0x10"])
    def test_bad_content_length_is_a_400(self, served, length):
        handle, pool = served
        response = _raw_exchange(
            handle,
            b"POST /suggest HTTP/1.1\r\nContent-Length: " + length
            + b"\r\n\r\n{}",
        )
        assert _status_of(response) == 400
        assert b"Content-Length" in response
        assert pool.calls == []

    def test_header_line_over_the_stream_limit_is_a_400(self, served):
        handle, _ = served
        response = _raw_exchange(
            handle,
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
        )
        assert _status_of(response) == 400
        assert b"header line too long" in response

    def test_stalled_request_gets_408_and_is_closed(
        self, served, monkeypatch
    ):
        monkeypatch.setattr(frontend_module, "_REQUEST_READ_TIMEOUT_S", 0.3)
        handle, _ = served
        started = time.monotonic()
        # A request line, one header, then silence (no blank line).
        response = _raw_exchange(
            handle, b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
        )
        assert _status_of(response) == 408
        assert time.monotonic() - started < 5.0

    def test_stalled_body_gets_408(self, served, monkeypatch):
        monkeypatch.setattr(frontend_module, "_REQUEST_READ_TIMEOUT_S", 0.3)
        handle, pool = served
        response = _raw_exchange(
            handle,
            b"POST /suggest HTTP/1.1\r\nContent-Length: 50\r\n\r\n{",
        )
        assert _status_of(response) == 408
        assert pool.calls == []

    def test_idle_keep_alive_between_requests_is_not_timed_out(
        self, served, monkeypatch
    ):
        monkeypatch.setattr(frontend_module, "_REQUEST_READ_TIMEOUT_S", 0.3)
        handle, _ = served
        request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(handle.address, timeout=10) as sock:
            stream = sock.makefile("rb")
            for _ in range(2):
                sock.sendall(request)
                status_line = stream.readline()
                assert _status_of(status_line) == 200
                headers = {}
                for line in iter(stream.readline, b"\r\n"):
                    name, _, value = line.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                stream.read(int(headers["content-length"]))
                time.sleep(1.0)  # idle well past the read timeout


def _strict_json(body: bytes):
    """``json.loads`` that rejects the non-standard NaN/Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(body, parse_constant=reject)


def _check_responses(data: bytes) -> None:
    """Every response in *data* is a framed HTTP/1.1 response with a
    strict-JSON or text body whose length matches its Content-Length."""
    while data:
        head, separator, rest = data.partition(b"\r\n\r\n")
        assert separator, f"unterminated response head: {data[:80]!r}"
        status_line, *header_lines = head.split(b"\r\n")
        version, status, _ = status_line.split(b" ", 2)
        assert version == b"HTTP/1.1" and 100 <= int(status) <= 599
        headers = {}
        for line in header_lines:
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers[b"content-length"])
        body, data = rest[:length], rest[length:]
        assert len(body) == length
        if headers[b"content-type"].startswith(b"application/json"):
            _strict_json(body)


_REQUEST_LINES = st.builds(
    lambda method, target, version: method + b" " + target + b" " + version,
    st.sampled_from([b"GET", b"POST", b"PUT", b"get", b""]),
    st.one_of(
        st.sampled_from([
            b"/suggest?q=x", b"/suggest?q=x&k=nan", b"/suggest?k=1e999",
            b"/healthz", b"/metrics", b"/metrics.json", b"/nope", b"*",
            b"//[x", b"/suggest?q=%ff%fe",
        ]),
        st.binary(max_size=24),
    ),
    st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"", b"HTTP/9"]),
)
_HEADERS = st.lists(
    st.tuples(
        st.sampled_from([
            b"Content-Length", b"Connection", b"Host", b"X-Any", b"",
        ]),
        st.one_of(
            st.sampled_from(
                [b"0", b"2", b"17", b"-1", b"close", b"keep-alive"]
            ),
            st.binary(max_size=12),
        ),
    ),
    max_size=4,
).map(
    lambda pairs: b"".join(
        name + b": " + value + b"\r\n" for name, value in pairs
    )
)
_BODIES = st.one_of(
    st.sampled_from([
        b"", b"{}", b'{"q": "x"}', b'{"q": "x", "k": NaN}',
        b'{"requests": [{"q": "x"}, 3]}', b"[" * 5000,
    ]),
    st.binary(max_size=64),
)
_PAYLOADS = st.one_of(
    st.binary(max_size=256),
    st.builds(
        lambda line, headers, body: line + b"\r\n" + headers + b"\r\n" + body,
        _REQUEST_LINES,
        _HEADERS,
        _BODIES,
    ),
)


def test_arbitrary_bytes_get_a_well_formed_answer_or_a_close(
    fast_config, monkeypatch
):
    """Whatever bytes a client sends, the server answers with framed
    responses or closes the connection — within the read timeout and
    without an exception reaching the event loop's handler — and keeps
    serving well-formed requests afterwards."""
    read_timeout = 0.5
    monkeypatch.setattr(
        frontend_module, "_REQUEST_READ_TIMEOUT_S", read_timeout
    )
    unhandled = []
    pool = FakePool()
    with run_in_thread(pool, config=fast_config) as handle:
        loop = handle._loop
        loop.call_soon_threadsafe(
            loop.set_exception_handler,
            lambda _loop, context: unhandled.append(context),
        )

        @settings(
            max_examples=80,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(payload=_PAYLOADS)
        @example(payload=b"GET //[x HTTP/1.1\r\n\r\n")
        @example(
            payload=b"POST /suggest HTTP/1.1\r\nContent-Length: 5000\r\n\r\n"
            + b"[" * 5000
        )
        def exchange(payload):
            started = time.monotonic()
            with socket.create_connection(
                handle.address, timeout=read_timeout + 5.0
            ) as sock:
                sock.sendall(payload)
                sock.shutdown(socket.SHUT_WR)
                chunks = []
                while chunk := sock.recv(65536):
                    chunks.append(chunk)
            assert time.monotonic() - started < read_timeout + 5.0
            _check_responses(b"".join(chunks))

        exchange()
        status, body = _get(handle.url + "/suggest?q=fresh&k=2")
        assert (status, body["suggestions"]) == (
            200, ["fresh-s0", "fresh-s1"]
        )
    assert unhandled == []


class TestEndToEnd:
    """One real pool behind a real socket: answers must be bit-identical."""

    @pytest.fixture(scope="class")
    def served(self, expander, multibipartite):
        registry = MetricsRegistry()
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=2,
            registry=registry,
            prefix="t-http",
        ) as pool:
            with run_in_thread(
                pool,
                config=FrontendConfig(batch_window_ms=5.0),
                registry=registry,
            ) as handle:
                yield pool, handle, registry

    def test_http_answers_are_bit_identical_to_suggest_batch(
        self, served, multibipartite, single_suggester
    ):
        _, handle, _ = served
        queries = multibipartite.queries[:10]
        expected = single_suggester.suggest_batch(
            [SuggestRequest(query=query, k=8) for query in queries]
        )
        for query, want in zip(queries, expected):
            status, body = _get(
                handle.url + "/suggest?q="
                + urllib.request.quote(query) + "&k=8"
            )
            assert status == 200
            assert body["suggestions"] == want
            assert body["shed_tier"] == 0

    def test_http_batch_post_matches_too(
        self, served, multibipartite, single_suggester
    ):
        _, handle, _ = served
        queries = multibipartite.queries[10:16]
        expected = single_suggester.suggest_batch(
            [SuggestRequest(query=query, k=8) for query in queries]
        )
        status, body = _post(handle.url + "/suggest", {
            "requests": [{"q": query, "k": 8} for query in queries],
        })
        assert status == 200
        assert [r["suggestions"] for r in body["results"]] == expected
        assert all(r["status"] == 200 for r in body["results"])

    def test_depth_gauge_settles_after_load(self, served):
        pool, _, registry = served
        deadline = time.monotonic() + 10
        while pool.queue_depth and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.queue_depth == 0
        assert _metric_value(registry, "serve.pool.queue_depth") == 0


class TestHungWorker:
    """A real pool whose only worker is stopped: the pool's
    ``ack_timeout``, not the (longer) request deadline, ends the wait."""

    def test_hung_worker_gives_a_500_and_stop_returns(
        self, expander, multibipartite
    ):
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-http-hung",
            ack_timeout=1.0,
        ) as pool:
            pid = pool._workers[0].pid
            os.kill(pid, signal.SIGSTOP)
            try:
                handle = run_in_thread(
                    pool, config=FrontendConfig(batch_window_ms=1.0)
                )
                target = (
                    "/suggest?q=" + urllib.request.quote(
                        multibipartite.queries[0]
                    ) + "&k=8&deadline_ms=30000"
                )
                status, body = _get(handle.url + target)
                assert status == 500
                assert "outstanding after 1s" in body["error"]
                assert pool.queue_depth == 0
                # A batch still in flight at shutdown: stop() awaits it,
                # and the pool's timeout ends it, so stop() returns.
                with socket.create_connection(
                    handle.address, timeout=10
                ) as late:
                    late.sendall(
                        f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                    )
                    wait_for(lambda: pool.queue_depth > 0)
                    started = time.monotonic()
                    handle.stop()
                    assert time.monotonic() - started < 10
                assert not handle._thread.is_alive()
                assert pool.queue_depth == 0
            finally:
                os.kill(pid, signal.SIGCONT)
