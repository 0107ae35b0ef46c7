"""Concurrent ``suggest_many``: overlap, isolation, and exact accounting.

The reply-dispatcher rewrite's contract, under test from the caller's
side: overlapping batches from different threads must not serialize on a
shared reply lock, a timeout in one batch must never bleed replies into
another, per-request worker errors must stay per-request, and the
``serve.pool.queue_depth`` gauge must return to exactly zero whatever
mixture of successes, failures and timeouts the callers produced.
"""

import asyncio
import os
import signal
import threading
import time

import pytest

from repro.baselines.base import SuggestRequest
from repro.core import head_queries
from repro.logs.schema import QueryRecord
from repro.obs.registry import MetricsRegistry
from repro.serve.pool import SuggestError, SuggestWorkerPool

from tests.serve.conftest import SERVE_CONFIG


def _metric_value(registry, name):
    for entry in registry.snapshot()["metrics"]:
        if entry["name"] == name:
            return entry["value"]
    return None


def _requests_for(queries, k=8):
    return [SuggestRequest(query=query, k=k) for query in queries]


def _queries_routed_to(pool, queries, worker_id, n):
    picked = [q for q in queries if pool._route(q) == worker_id]
    assert len(picked) >= n, (
        f"synthetic log routes fewer than {n} probe queries to "
        f"worker {worker_id}"
    )
    return picked[:n]


class TestConcurrentCallers:
    def test_threaded_hammer_is_bit_identical_and_settles_depth(
        self, expander, multibipartite, single_suggester
    ):
        """≥4 threads × repeated batches: every result matches the
        single-process reference, and both the gauge and the live
        ``queue_depth`` property read exactly zero at quiescence."""
        n_threads, rounds = 4, 3
        slices = [
            multibipartite.queries[start::n_threads][:8]
            for start in range(n_threads)
        ]
        probe_sets = [_requests_for(chunk) for chunk in slices]
        expected = [
            single_suggester.suggest_batch(probes) for probes in probe_sets
        ]
        registry = MetricsRegistry()
        failures: list = []
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=2,
            registry=registry,
            prefix="t-hammer",
        ) as pool:
            barrier = threading.Barrier(n_threads)

            def hammer(thread_id: int) -> None:
                try:
                    barrier.wait(timeout=30)
                    for _ in range(rounds):
                        got = pool.suggest_many(probe_sets[thread_id])
                        if got != expected[thread_id]:
                            failures.append(
                                (thread_id, got, expected[thread_id])
                            )
                except Exception as exc:  # surfaced below, not swallowed
                    failures.append((thread_id, exc))

            threads = [
                threading.Thread(target=hammer, args=(i,))
                for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not failures
            assert pool.queue_depth == 0
            assert _metric_value(registry, "serve.pool.queue_depth") == 0

    def test_overlapping_batches_do_not_serialize(
        self, expander, multibipartite
    ):
        """A batch stalled on worker 0 must not block a batch on worker 1.

        Deterministic, no sleep races: worker 0 is SIGSTOPped, a batch
        routed to it is dispatched from one thread (it cannot complete),
        and a batch routed to worker 1 must still complete while the
        first is pending — impossible under the old whole-call reply
        lock, where the second caller queued behind the first.
        """
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=2,
            prefix="t-overlap",
            ack_timeout=60.0,
        ) as pool:
            to_zero = _queries_routed_to(
                pool, multibipartite.queries, worker_id=0, n=3
            )
            to_one = _queries_routed_to(
                pool, multibipartite.queries, worker_id=1, n=3
            )
            stalled_done = threading.Event()
            stalled_result: list = []
            os.kill(pool._workers[0].pid, signal.SIGSTOP)
            try:
                def stalled_call() -> None:
                    stalled_result.append(
                        pool.suggest_many(_requests_for(to_zero))
                    )
                    stalled_done.set()

                stalled = threading.Thread(target=stalled_call)
                stalled.start()
                # The overlapping batch completes while the first caller
                # is still blocked waiting on the stopped worker.
                fast = pool.suggest_many(_requests_for(to_one))
                assert len(fast) == len(to_one)
                assert all(
                    result is not None and not isinstance(result, Exception)
                    for result in fast
                )
                assert not stalled_done.is_set()
            finally:
                os.kill(pool._workers[0].pid, signal.SIGCONT)
            assert stalled_done.wait(timeout=60)
            stalled.join(timeout=60)
            # The resumed batch finished normally — and independently.
            assert len(stalled_result) == 1
            assert len(stalled_result[0]) == len(to_zero)
            assert pool.queue_depth == 0

    def test_timed_out_batch_does_not_bleed_into_the_next(
        self, expander, multibipartite, single_suggester
    ):
        """A real timeout (not a synthetic stale envelope): the late
        reply that eventually surfaces must be drained, not delivered to
        a later batch, and the depth accounting must settle to zero."""
        probes = _requests_for(multibipartite.queries[:5])
        expected = single_suggester.suggest_batch(probes)
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-bleed",
            ack_timeout=1.5,
        ) as pool:
            os.kill(pool._workers[0].pid, signal.SIGSTOP)
            try:
                with pytest.raises((TimeoutError, RuntimeError)):
                    pool.suggest_many(probes)
            finally:
                os.kill(pool._workers[0].pid, signal.SIGCONT)
            # The worker now wakes up and sends the orphaned envelope;
            # the next batches must be answered by their own replies.
            assert pool.suggest_many(probes) == expected
            assert pool.suggest_many(probes) == expected
            deadline = time.monotonic() + 10
            while pool.queue_depth and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.queue_depth == 0


class TestPerRequestErrors:
    @staticmethod
    def _poisoned_request(query: str) -> SuggestRequest:
        # A context record whose timestamp is not a number blows up in
        # the worker's context-seed arithmetic — one request fails, the
        # worker survives.
        bad = QueryRecord(user_id="u0", query="ok text", timestamp="bad")
        return SuggestRequest(query=query, k=8, context=(bad,))

    def test_return_errors_isolates_the_failing_request(
        self, expander, multibipartite, single_suggester
    ):
        good = _requests_for(multibipartite.queries[:4])
        expected = single_suggester.suggest_batch(good)
        mixed = good[:2] + [
            self._poisoned_request(multibipartite.queries[0])
        ] + good[2:]
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=2,
            prefix="t-errs",
        ) as pool:
            results = pool.suggest_many(mixed, return_errors=True)
            assert results[:2] == expected[:2]
            assert results[3:] == expected[2:]
            failure = results[2]
            assert isinstance(failure, SuggestError)
            assert "TypeError" in failure.error
            assert failure.worker_id in (0, 1)
            # Siblings of the failed request were computed, not discarded.
            assert all(
                not isinstance(result, SuggestError)
                for result in results[:2] + results[3:]
            )
            assert pool.queue_depth == 0

    def test_default_mode_still_raises_with_the_worker_traceback(
        self, expander, multibipartite, single_suggester
    ):
        good = _requests_for(multibipartite.queries[:4])
        expected = single_suggester.suggest_batch(good)
        mixed = [self._poisoned_request(multibipartite.queries[0])] + good
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-raise",
        ) as pool:
            with pytest.raises(RuntimeError, match="TypeError"):
                pool.suggest_many(mixed)
            # The pool is not poisoned: the same workers keep serving.
            assert pool.suggest_many(good) == expected
            assert pool.queue_depth == 0


class TestSubmit:
    """The non-blocking entry point: done futures for memo hits, and no
    future left pending by a dead worker or a closed pool."""

    def test_all_hot_hit_batch_is_done_without_touching_a_worker(
        self, synthetic_log, expander, multibipartite, single_suggester
    ):
        hot = head_queries(synthetic_log, 6)
        probes = _requests_for(hot)
        expected = single_suggester.suggest_batch(probes)
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=2,
            prefix="t-submit-hot",
            hot_queries=hot,
        ) as pool:
            assert pool.suggest_many(probes) == expected  # fills the memo
            served = [w.requests for w in pool.stats().workers]
            future = pool.submit(probes)
            assert future.done()
            assert future.result() == expected
            assert pool.queue_depth == 0
            assert all(queue.empty() for queue in pool._request_queues)
            assert [w.requests for w in pool.stats().workers] == served

    def test_killed_worker_fails_its_in_flight_future_by_name(
        self, expander, multibipartite
    ):
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=2,
            prefix="t-submit-kill",
        ) as pool:
            to_zero = _queries_routed_to(
                pool, multibipartite.queries, worker_id=0, n=2
            )
            pid = pool._workers[0].pid
            os.kill(pid, signal.SIGSTOP)  # keeps the batch in flight
            future = pool.submit(_requests_for(to_zero))
            assert not future.done()
            os.kill(pid, signal.SIGKILL)
            error = future.exception(timeout=30)
            assert isinstance(error, RuntimeError)
            assert "worker process died" in str(error)
            assert "suggest-worker-0" in str(error)
            assert pool.queue_depth == 0

    def test_dead_worker_fails_only_the_batches_waiting_on_it(
        self, expander, multibipartite, single_suggester
    ):
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=2,
            prefix="t-submit-isolate",
        ) as pool:
            to_zero = _queries_routed_to(
                pool, multibipartite.queries, worker_id=0, n=2
            )
            to_one = _queries_routed_to(
                pool, multibipartite.queries, worker_id=1, n=2
            )
            expected = single_suggester.suggest_batch(_requests_for(to_one))
            doomed_pid = pool._workers[0].pid
            slow_pid = pool._workers[1].pid
            # Both batches stay in flight until their worker resumes.
            os.kill(doomed_pid, signal.SIGSTOP)
            os.kill(slow_pid, signal.SIGSTOP)
            try:
                doomed = pool.submit(_requests_for(to_zero))
                survivor = pool.submit(_requests_for(to_one))
                os.kill(doomed_pid, signal.SIGKILL)
                error = doomed.exception(timeout=30)
                assert "suggest-worker-0" in str(error)
                assert "suggest-worker-1" not in str(error)
                time.sleep(0.5)  # several liveness sweeps after the death
                assert not survivor.done()
            finally:
                os.kill(slow_pid, signal.SIGCONT)
            assert survivor.result(timeout=30) == expected
            assert pool.queue_depth == 0

    def test_close_fails_outstanding_futures_so_no_await_hangs(
        self, expander, multibipartite
    ):
        pool = SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-submit-close",
        )
        pid = pool._workers[0].pid
        os.kill(pid, signal.SIGSTOP)  # the batch can never be answered
        try:
            future = pool.submit(_requests_for(multibipartite.queries[:3]))

            async def await_answer():
                with pytest.raises(RuntimeError, match="pool is closed"):
                    await asyncio.wait_for(asyncio.wrap_future(future), 30)

            closer = threading.Thread(target=pool.close)
            closer.start()
            asyncio.run(await_answer())
            with pytest.raises(RuntimeError, match="pool is closed"):
                pool.submit(_requests_for(multibipartite.queries[:1]))
        finally:
            os.kill(pid, signal.SIGCONT)  # lets the worker reach "stop"
            pool.close()  # idempotent: a no-op once the closer started
        closer.join(timeout=60)
        assert not closer.is_alive()
