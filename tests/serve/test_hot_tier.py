"""Hot-query memo + batched IPC: bit-identity, refresh, regressions."""

import os
import random
import signal
import threading
import time

import pytest

from repro.baselines.base import SuggestRequest
from repro.core import PQSDA, head_queries
from repro.graphs.compact import RandomWalkExpander
from repro.graphs.multibipartite import build_multibipartite
from repro.logs.schema import QueryRecord
from repro.logs.sessionizer import sessionize
from repro.logs.storage import QueryLog
from repro.obs.registry import MetricsRegistry
from repro.serve.pool import SuggestWorkerPool
from repro.stream.epoch import Epoch, EpochManager
from repro.synth.generator import GeneratorConfig, generate_log
from repro.utils.text import normalize_query
from repro.synth.world import make_world

from tests.serve.conftest import SERVE_CONFIG, wait_for


def _metric_value(registry, name):
    for entry in registry.snapshot()["metrics"]:
        if entry["name"] == name:
            return entry["value"]
    return None


@pytest.fixture(scope="module")
def next_generation():
    """A second, different representation for refresh tests."""
    world = make_world(seed=0)
    log = generate_log(
        world,
        GeneratorConfig(n_users=40, mean_sessions_per_user=8, seed=17),
    ).log
    multibipartite = build_multibipartite(log, sessionize(log))
    expander = RandomWalkExpander(multibipartite)
    return log, multibipartite, expander


class TestHeadQueries:
    def test_ranked_by_frequency_then_query(self, synthetic_log):
        head = head_queries(synthetic_log, 10)
        assert len(head) == 10
        frequencies = [synthetic_log.query_frequency(q) for q in head]
        assert frequencies == sorted(frequencies, reverse=True)
        for first, second in zip(head, head[1:]):
            if synthetic_log.query_frequency(
                first
            ) == synthetic_log.query_frequency(second):
                assert first < second

    def test_zero_and_oversized_n(self, synthetic_log):
        assert head_queries(synthetic_log, 0) == []
        assert head_queries(synthetic_log, -3) == []
        everything = head_queries(synthetic_log, 10**6)
        assert sorted(everything) == synthetic_log.unique_queries

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_full_sort_under_frequency_ties(self, seed):
        """Few distinct frequencies over many queries: ties everywhere,
        and the tie order must be the lexicographic one of a full sort."""
        rng = random.Random(seed)
        words = [f"w{i}" for i in range(12)]
        records = []
        for i in range(400):
            query = " ".join(rng.sample(words, rng.randint(1, 2)))
            if rng.random() < 0.2:
                query = query.upper() + " !"  # same normalized query
            records.append(
                QueryRecord(user_id=f"u{i % 7}", query=query, timestamp=i)
            )
        log = QueryLog(records)
        reference = sorted(
            log.unique_queries,
            key=lambda query: (-log.query_frequency(query), query),
        )
        for n in (1, 5, 20, len(reference), len(reference) + 3):
            assert head_queries(log, n) == reference[:n]


class TestHotBitIdentity:
    @pytest.mark.parametrize("n_hot", [1, 4, 16])
    def test_hot_and_cold_answers_match_single_process(
        self, synthetic_log, expander, multibipartite, single_suggester, n_hot
    ):
        hot = head_queries(synthetic_log, n_hot)
        probes = [SuggestRequest(query=q, k=8) for q in hot]
        probes += [
            SuggestRequest(query=q, k=8) for q in multibipartite.queries[:10]
        ]
        probes.append(SuggestRequest(query="totally unseen query", k=8))
        expected = single_suggester.suggest_batch(probes)
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix=f"t-hot{n_hot}",
            hot_queries=hot,
        ) as pool:
            assert pool.hot_entries == 0
            # First pass: misses that fill the memo from worker answers.
            assert pool.suggest_many(probes) == expected
            assert pool.hot_entries == len({normalize_query(q) for q in hot})
            # Second pass: every hot probe is a hit, still bit-identical.
            hits_before = pool.hot_hits
            assert pool.suggest_many(probes) == expected
            hot_set = {normalize_query(q) for q in hot}
            assert pool.hot_hits - hits_before == sum(
                normalize_query(p.query) in hot_set for p in probes
            )

    def test_any_k_served_from_one_entry(
        self, synthetic_log, expander, multibipartite, single_suggester
    ):
        hot = head_queries(synthetic_log, 4)
        # Fill each entry from a k=1 miss: the worker is asked for the
        # full ranking, so every k after it is a hit.
        fills = [SuggestRequest(query=q, k=1) for q in hot]
        ks = list(range(1, SERVE_CONFIG.diversify.k + 1)) + [20]
        probes = [SuggestRequest(query=q, k=k) for q in hot for k in ks]
        expected = single_suggester.suggest_batch(probes)
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-hotk",
            hot_queries=hot,
        ) as pool:
            assert pool.suggest_many(fills) == single_suggester.suggest_batch(
                fills
            )
            assert pool.hot_hits == 0
            assert pool.suggest_many(probes) == expected
            assert pool.hot_hits == len(probes)

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_batched_envelopes_match_at_worker_counts(
        self,
        synthetic_log,
        expander,
        multibipartite,
        single_suggester,
        n_workers,
    ):
        hot = head_queries(synthetic_log, 8)
        probes = [SuggestRequest(query=q, k=8) for q in hot]
        probes += [
            SuggestRequest(query=q, k=8) for q in multibipartite.queries[:15]
        ]
        expected = single_suggester.suggest_batch(probes)
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=n_workers,
            prefix=f"t-hotw{n_workers}",
            hot_queries=hot,
        ) as pool:
            assert pool.suggest_many(probes) == expected
            assert pool.suggest_many(probes) == expected


class TestHotTierBehavior:
    def test_hot_hits_never_reach_a_worker(
        self, synthetic_log, expander, multibipartite
    ):
        hot = head_queries(synthetic_log, 6)
        probes = [SuggestRequest(query=q, k=8) for q in hot]
        registry = MetricsRegistry()
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            registry=registry,
            prefix="t-hotskip",
            hot_queries=hot,
        ) as pool:
            pool.suggest_many(probes)  # fills: one worker request each
            for _ in range(2):
                assert pool.suggest_many(probes) is not None
            stats = pool.stats()
            assert stats.hot_hits == 2 * len(probes)
            assert stats.hot_entries == len(hot)
            assert stats.total_requests == 3 * len(probes)
            assert sum(worker.requests for worker in stats.workers) == len(
                probes
            )
        assert _metric_value(registry, "serve.pool.hot_hits") == 2 * len(
            probes
        )

    def test_context_requests_take_the_worker_path(
        self, synthetic_log, expander, multibipartite, single_suggester
    ):
        hot = head_queries(synthetic_log, 4)
        context = (
            QueryRecord(
                user_id="u0",
                query=multibipartite.queries[1],
                timestamp=100.0,
                clicked_url="https://example.org/a",
                record_id=7,
            ),
        )
        probes = [
            SuggestRequest(query=q, k=8, context=context, timestamp=200.0)
            for q in hot
        ]
        expected = single_suggester.suggest_batch(probes)
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-hotctx",
            hot_queries=hot,
        ) as pool:
            assert pool.suggest_many(probes) == expected
            assert pool.suggest_many(probes) == expected
            # Context-bearing requests neither hit nor fill the memo.
            assert pool.hot_hits == 0
            assert pool.hot_entries == 0
            assert pool.stats().workers[0].requests == 2 * len(probes)

    def test_shed_tier_replies_are_never_memoized(
        self, synthetic_log, expander, multibipartite, single_suggester
    ):
        hot = head_queries(synthetic_log, 4)
        shed = [SuggestRequest(query=q, k=8, shed=1) for q in hot]
        full = [SuggestRequest(query=q, k=8) for q in hot]
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-hotshed",
            hot_queries=hot,
        ) as pool:
            # Degraded (no-rerank) answers go back to their callers only.
            for _ in range(2):
                assert pool.suggest_many(shed) == (
                    single_suggester.suggest_batch(shed)
                )
            assert pool.hot_entries == 0
            assert pool.hot_hits == 0
            # A tier-0 answer fills; later shed requests may hit it.
            assert pool.suggest_many(full) == (
                single_suggester.suggest_batch(full)
            )
            assert pool.hot_entries == len(hot)
            assert pool.suggest_many(shed) == (
                single_suggester.suggest_batch(full)
            )
            assert pool.hot_hits == len(hot)

    def test_memo_is_bounded_by_the_hot_set(
        self, synthetic_log, expander, multibipartite
    ):
        hot = head_queries(synthetic_log, 3)
        hot_set = {normalize_query(q) for q in hot}
        cold = [q for q in multibipartite.queries if q not in hot_set][:20]
        probes = [SuggestRequest(query=q, k=8) for q in hot + cold]
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=2,
            prefix="t-hotbound",
            hot_queries=hot,
        ) as pool:
            for _ in range(3):
                pool.suggest_many(probes)
            assert pool.hot_entries == len(hot_set)
            assert set(pool._memo[2]) == hot_set
            # Only the two repeat passes over the hot queries hit.
            assert pool.hot_hits == 2 * len(hot)


    def test_segments_carry_no_hot_arrays(
        self, synthetic_log, expander, multibipartite
    ):
        """The memo lives in the parent: nothing hot enters shared memory."""
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-hotseg",
            hot_queries=head_queries(synthetic_log, 5),
        ) as pool:
            pool.suggest_many(
                [SuggestRequest(query=q, k=8) for q in multibipartite.queries]
            )
            pool.publish_plane(expander, multibipartite=multibipartite)
            assert not [
                name
                for name in pool._store.meta.arrays
                if name.startswith("hot.")
            ]


class TestHotRefresh:
    def test_publish_plane_rebuilds_table_for_new_generation(
        self, synthetic_log, expander, multibipartite, next_generation
    ):
        log2, mb2, expander2 = next_generation
        hot2 = head_queries(log2, 6)
        single2 = PQSDA(mb2, expander2, None, SERVE_CONFIG)
        probes2 = [SuggestRequest(query=q, k=8) for q in hot2]
        expected2 = single2.suggest_batch(probes2)
        hot1 = head_queries(synthetic_log, 6)
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=2,
            prefix="t-hotswap",
            hot_queries=hot1,
        ) as pool:
            pool.suggest_many([SuggestRequest(query=q, k=8) for q in hot1])
            assert pool.hot_entries == len(hot1)
            pool.publish_plane(expander2, multibipartite=mb2, hot_queries=hot2)
            # The publish flushed the memo: nothing from generation 0
            # can be served on generation 1.
            assert pool.hot_entries == 0
            assert pool.suggest_many(probes2) == expected2
            assert pool.hot_hits == 0
            assert pool.suggest_many(probes2) == expected2
            assert pool.hot_hits == len(probes2)

    def test_epoch_publish_rederives_head_with_hot_top(
        self, synthetic_log, expander, multibipartite, next_generation
    ):
        log2, mb2, expander2 = next_generation
        single2 = PQSDA(mb2, expander2, None, SERVE_CONFIG)
        head2 = head_queries(log2, 5)
        probes2 = [SuggestRequest(query=q, k=8) for q in head2]
        expected2 = single2.suggest_batch(probes2)
        manager = EpochManager(
            Epoch(
                epoch_id=0,
                log=synthetic_log,
                multibipartite=multibipartite,
                matrices=expander.matrices,
                expander=expander,
                touched_queries=frozenset(),
            )
        )
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-hotepoch",
            hot_queries=head_queries(synthetic_log, 5),
            hot_top=5,
        ) as pool:
            pool.attach_epochs(manager)
            manager.publish(
                Epoch(
                    epoch_id=1,
                    log=log2,
                    multibipartite=mb2,
                    matrices=expander2.matrices,
                    expander=expander2,
                    touched_queries=frozenset(mb2.queries),
                )
            )
            assert pool.stats().epoch_id == 1
            assert pool.suggest_many(probes2) == expected2
            assert pool.suggest_many(probes2) == expected2
            # The epoch's own head is the hot set: the repeat pass hits.
            assert pool.hot_hits == len(probes2)
            assert pool.hot_entries == len(head2)

    def test_publish_between_dispatch_and_reply_never_fills_new_memo(
        self, synthetic_log, expander, multibipartite, next_generation,
        single_suggester,
    ):
        """Deterministic generation straddle (SIGSTOP, no sleep races).

        With the only worker stopped, its request queue is ordered by
        hand: a fill dispatched on generation 0, then the swap to
        generation 1, then a second fill dispatched before the publish
        finished.  The reply dispatcher is then held off until the
        publish completed, so both replies land after generation 1's
        memo exists: the generation-0 answer must not enter it, and the
        generation-1 answer was dispatched against the old memo.
        """
        _, mb2, expander2 = next_generation
        single2 = PQSDA(mb2, expander2, None, SERVE_CONFIG)
        query = next(
            q
            for q in head_queries(synthetic_log, 40)
            if single_suggester.suggest(q, k=8) != single2.suggest(q, k=8)
        )
        request = SuggestRequest(query=query, k=8)
        old_answer = single_suggester.suggest(query, k=8)
        new_answer = single2.suggest(query, k=8)
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-hotstraddle",
            hot_queries=[query],
            ack_timeout=60.0,
        ) as pool:
            worker_queue = pool._request_queues[0]
            results: dict[str, list] = {}

            def call(name, target):
                results[name] = target()

            threads = []

            def start(name, target, queued):
                thread = threading.Thread(target=call, args=(name, target))
                thread.start()
                threads.append(thread)
                wait_for(lambda: worker_queue.qsize() == queued)
                time.sleep(0.05)  # let the put finish behind its semaphore

            os.kill(pool._workers[0].pid, signal.SIGSTOP)
            try:
                start("old", lambda: pool.suggest_many([request]), 1)
                start(
                    "publish",
                    lambda: pool.publish_plane(
                        expander2, multibipartite=mb2, hot_queries=[query]
                    ),
                    2,
                )
                start("new", lambda: pool.suggest_many([request]), 3)
                assert pool.generation == 0  # publish waits on the ack
                # Replies cannot be recorded while this lock is held.
                pool._pending_lock.acquire()
            finally:
                os.kill(pool._workers[0].pid, signal.SIGCONT)
            try:
                wait_for(lambda: pool.generation == 1)
            finally:
                pool._pending_lock.release()
            for thread in threads:
                thread.join(timeout=60)
            assert results["old"] == [old_answer]
            assert results["new"] == [new_answer]
            assert pool.generation == 1
            assert pool.hot_entries == 0
            assert pool.hot_hits == 0
            assert pool.suggest(query, k=8) == new_answer  # fills gen 1
            assert pool.suggest(query, k=8) == new_answer  # hits gen 1
            assert pool.hot_hits == 1


class TestPoolRegressions:
    def test_stale_reply_envelope_is_drained_not_matched(
        self, expander, multibipartite, single_suggester
    ):
        """A late envelope from a timed-out batch must not poison calls."""
        probes = [
            SuggestRequest(query=q, k=8) for q in multibipartite.queries[:6]
        ]
        expected = single_suggester.suggest_batch(probes)
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-stale",
            hot_queries=[probe.query for probe in probes],
        ) as pool:
            # Simulate a reply surfacing after its batch already timed
            # out, tagged with the pool's live generation.
            pool._reply_queue.put(
                ("bres", 999_999, 0, (0, 0), [(["bogus"], None)] * len(probes))
            )
            assert pool.suggest_many(probes) == expected
            assert pool.suggest_many(probes) == expected
            assert all(
                ranking != ["bogus"] for ranking in pool._memo[2].values()
            )

    def test_queue_depth_gauge_returns_to_zero(
        self, synthetic_log, expander, multibipartite
    ):
        hot = head_queries(synthetic_log, 3)
        probes = [SuggestRequest(query=q, k=8) for q in hot]
        probes += [
            SuggestRequest(query=q, k=8) for q in multibipartite.queries[:8]
        ]
        registry = MetricsRegistry()
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=2,
            registry=registry,
            prefix="t-depth",
            hot_queries=hot,
        ) as pool:
            for _ in range(3):
                pool.suggest_many(probes)
            assert _metric_value(registry, "serve.pool.queue_depth") == 0

    def test_dead_worker_is_reported_by_name(self, expander, multibipartite):
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-dead",
            ack_timeout=30.0,
        ) as pool:
            pool._workers[0].terminate()
            pool._workers[0].join(timeout=30)
            with pytest.raises(RuntimeError, match="worker process died"):
                pool.suggest(multibipartite.queries[0], k=8)
