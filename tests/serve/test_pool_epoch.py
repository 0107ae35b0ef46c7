"""Generation handshake: epoch-consistent publication to pool workers."""

import os
import signal
import threading
import time

import pytest

from repro.baselines.base import SuggestRequest
from repro.core import PQSDA
from repro.graphs.compact import RandomWalkExpander
from repro.graphs.multibipartite import build_multibipartite
from repro.logs.sessionizer import sessionize
from repro.serve.pool import SuggestWorkerPool
from repro.stream.epoch import Epoch, EpochManager
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world

from tests.serve.conftest import SERVE_CONFIG


@pytest.fixture(scope="module")
def next_generation():
    """A second, different representation (more users -> larger graph)."""
    world = make_world(seed=0)
    log = generate_log(
        world,
        GeneratorConfig(n_users=40, mean_sessions_per_user=8, seed=17),
    ).log
    multibipartite = build_multibipartite(log, sessionize(log))
    expander = RandomWalkExpander(multibipartite)
    return log, multibipartite, expander


def _dev_shm_entries(prefix):
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]


def test_publish_swaps_all_workers_and_unlinks_old(
    expander, multibipartite, next_generation
):
    _, mb2, expander2 = next_generation
    single2 = PQSDA(mb2, expander2, None, SERVE_CONFIG)
    probes = [SuggestRequest(query=q, k=8) for q in mb2.queries[:12]]
    expected2 = single2.suggest_batch(probes)
    with SuggestWorkerPool(
        expander,
        SERVE_CONFIG,
        multibipartite=multibipartite,
        n_workers=2,
        prefix="t-swap",
    ) as pool:
        first_segment = pool.segment_name
        assert _dev_shm_entries(first_segment) == [first_segment]
        pool.publish_plane(expander2, multibipartite=mb2)
        assert pool.generation == 1
        # Old segment fully retired, exactly one (new) segment remains.
        assert _dev_shm_entries(first_segment) == []
        assert _dev_shm_entries("t-swap") == [pool.segment_name]
        stats = pool.stats()
        assert all(worker.generation == 1 for worker in stats.workers)
        assert all(worker.shares_memory for worker in stats.workers)
        # Workers now serve the new representation, bit-identically.
        assert pool.suggest_many(probes) == expected2
    assert _dev_shm_entries("t-swap") == []


def test_no_torn_views_under_concurrent_load(
    expander, multibipartite, single_suggester, next_generation
):
    """Each request matches one generation exactly — never a mix of two."""
    _, mb2, expander2 = next_generation
    shared_queries = [q for q in multibipartite.queries if q in mb2][:8]
    assert len(shared_queries) >= 4
    requests = [SuggestRequest(query=q, k=8) for q in shared_queries]
    expected_a = single_suggester.suggest_batch(requests)
    single_b = PQSDA(mb2, expander2, None, SERVE_CONFIG)
    expected_b = single_b.suggest_batch(requests)

    failures = []
    stop = threading.Event()

    with SuggestWorkerPool(
        expander,
        SERVE_CONFIG,
        multibipartite=multibipartite,
        n_workers=2,
        prefix="t-torn",
    ) as pool:

        def hammer():
            while not stop.is_set():
                got = pool.suggest_many(requests)
                for i, result in enumerate(got):
                    if result not in (expected_a[i], expected_b[i]):
                        failures.append((requests[i].query, result))
                        return

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            generations = [
                (expander2, mb2),
                (expander, multibipartite),
                (expander2, mb2),
            ]
            for next_expander, next_mb in generations:
                pool.publish_plane(next_expander, multibipartite=next_mb)
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not failures, failures
        assert pool.generation == 3
    assert _dev_shm_entries("t-torn") == []


def test_attach_epochs_republishes_to_workers(
    synthetic_log, expander, multibipartite, next_generation
):
    log2, mb2, expander2 = next_generation
    single2 = PQSDA(mb2, expander2, None, SERVE_CONFIG)
    probes = [SuggestRequest(query=q, k=8) for q in mb2.queries[:10]]
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
        n_workers=2,
        prefix="t-epoch",
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
        stats = pool.stats()
        assert stats.epoch_id == 1
        assert all(worker.epoch_id == 1 for worker in stats.workers)
        assert pool.suggest_many(probes) == single2.suggest_batch(probes)
    assert _dev_shm_entries("t-epoch") == []


def test_closed_pool_rejects_requests(expander, multibipartite):
    pool = SuggestWorkerPool(
        expander,
        SERVE_CONFIG,
        multibipartite=multibipartite,
        n_workers=1,
        prefix="t-closed",
    )
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        pool.suggest("anything")
    with pytest.raises(RuntimeError, match="closed"):
        pool.publish_plane(expander)
    assert _dev_shm_entries("t-closed") == []


def test_dead_worker_fails_publish_and_stats_at_once(
    expander, multibipartite, next_generation
):
    """A publish or stats round to a pool with a dead worker raises the
    error naming it within seconds, not after ``ack_timeout``, and the
    failed publish leaves no new segment behind."""
    _, mb2, expander2 = next_generation
    pool = SuggestWorkerPool(
        expander,
        SERVE_CONFIG,
        multibipartite=multibipartite,
        n_workers=2,
        prefix="t-deadpub",
        ack_timeout=60.0,
    )
    try:
        serving = pool.segment_name
        # Let worker 0's queue feeder release the shared ack-queue lock it
        # took to send "ready": a worker killed inside that window would
        # wedge its peer's acks (and make close() wait out its join).
        time.sleep(0.5)
        os.kill(pool._workers[0].pid, signal.SIGKILL)
        pool._workers[0].join(timeout=30)
        assert pool._workers[0].exitcode is not None
        for call in (
            lambda: pool.publish_plane(expander2, multibipartite=mb2),
            pool.stats,
        ):
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="worker process died") as err:
                call()
            assert time.monotonic() - start < 10.0
            assert "suggest-worker-0" in str(err.value)
            assert "suggest-worker-1" not in str(err.value)
            assert _dev_shm_entries("t-deadpub") == [serving]
        assert pool.generation == 0
    finally:
        pool.close()
    assert _dev_shm_entries("t-deadpub") == []
