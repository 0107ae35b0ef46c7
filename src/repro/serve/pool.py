"""Multi-process suggest workers over the shared-memory matrix plane.

:class:`SuggestWorkerPool` scales the serving fast path across CPU cores
without duplicating the representation: the parent publishes one
:class:`~repro.serve.shm.SharedMatrixStore` generation, spawns N workers,
and each worker attaches read-only views (see :mod:`repro.serve.shm`) and
builds its own :class:`~repro.core.suggester.PQSDA` plus
:class:`~repro.core.serving.CompactCache` over them.  Matrix bytes exist
once per generation however many workers serve.

Routing, affinity and batched envelopes
    Requests are routed by ``crc32(normalized_query) % n_workers`` — a
    process-stable hash (builtin ``hash`` is salted per process), so
    repeats of a query land on the same worker and hit its compact-entry
    cache.  :meth:`~SuggestWorkerPool.submit` groups the requests
    of one call by route and sends **one** compact envelope per worker —
    a batch id plus primitive-encoded request tuples, never a pickled
    :class:`~repro.baselines.base.SuggestRequest` per request — and each
    worker replies with one envelope per batch, so the per-request IPC
    tax (queue hop + pickle) is amortized across the batch.  Results
    come back in request order and are bit-identical to the
    single-process path — personalized requests included: a
    profile-bearing suggester's store is packed into a shared **profile
    plane** (:mod:`repro.serve.profile_plane`) that workers attach
    zero-copy and Borda-fuse against exactly like the single-process
    ``PersonalizedSuggester`` path.  Reply envelopes are tagged with
    their batch id: envelopes surfacing late from a timed-out batch are
    drained, never matched against the next call.

Concurrent callers (the front-end contract)
    :meth:`~SuggestWorkerPool.submit` is the non-blocking entry point: it
    answers memo hits, routes the rest, sends the envelopes and returns a
    :class:`concurrent.futures.Future` of the results without waiting.
    A single dispatcher thread drains the shared reply queue, correlates
    each reply envelope to its batch by id and completes the batch's
    future when its last envelope arrives, so overlapping batches from
    any number of callers (threads or an event loop, through
    :func:`asyncio.wrap_future`) never serialize behind one another.  The
    same thread fails an in-flight future with a ``RuntimeError`` naming
    the worker once a worker it waits on dies, and with ``TimeoutError``
    once it has waited ``ack_timeout``; :meth:`~SuggestWorkerPool.close`
    fails whatever is still outstanding.  So no future outlives
    ``ack_timeout``, and :meth:`~SuggestWorkerPool.suggest_many` is plain
    ``submit(...).result()``.  Per-request failures inside an envelope
    are propagated per request (``return_errors=True`` returns
    :class:`SuggestError` placeholders; the default raises, matching
    single-caller semantics), so one poisoned request cannot discard the
    sibling results its batch already computed.  Requests carry their
    load-shed tier (``SuggestRequest.shed``) into the envelope, which the
    worker forwards to ``PQSDA.suggest`` — the degraded modes the HTTP
    front-end (:mod:`repro.serve.frontend`) sheds into under load.

Hot-query memo
    Real query streams are head-skewed.  Given ``hot_queries`` (or
    ``hot_top`` over streaming epochs), the parent keeps a per-generation
    memo of the head queries' full diversified rankings and answers
    repeats O(1) without touching a worker queue.  The memo is filled by
    worker answers, never computed by the parent: a hot-eligible miss is
    sent with ``k = max(k, diversify.k)``, so the reply is the query's
    full ranking, which never depends on the request's ``k`` (``suggest``
    slices ``ranking[:k]``); any later ``k`` is served from that entry.
    Only hot-set queries without a search context, asked by users the
    worker would not Borda-fuse (see ``_personalizes``), are eligible.
    A reply enters the memo only when it carries no error, ran at shed
    tier 0, and was computed on the memo's generation: workers tag every
    reply envelope with their (plane, profile) generation pair, and the
    parent replaces the ``(generation, hot set, answers)`` memo in one
    reference assignment after the acks of every publish.  So an answer
    from one generation is never served on another, and a publish only
    flushes the memo — it never computes hot rankings.

Shared profile plane (personalized serving)
    Given ``profiles`` (or a profile-bearing suggester via
    :meth:`~SuggestWorkerPool.from_suggester`), the pool packs the fitted
    UPM's serving state into its own shared-memory segment
    (:class:`~repro.serve.profile_plane.SharedProfileStore`); each worker
    attaches a read-only zero-copy scorer and binds it to its ``PQSDA``,
    so profiled requests come back Borda-fused bit-identically to the
    single-process path while profile bytes exist once per generation.
    Profile generations swap through the same in-band handshake as the
    matrix plane (:meth:`~SuggestWorkerPool.publish_profiles`, message
    kind ``pswap``), and epochs carrying folded click feedback
    (``epoch.profiles``) republish automatically.

Generation handshake (epoch-consistent publication)
    :meth:`~SuggestWorkerPool.publish_plane` shares the next generation as
    a fresh segment and sends a swap control message down every worker's
    *request queue*.  Workers are single-threaded loops, so the swap is
    processed strictly between requests — no request ever observes half of
    each generation (torn view).  The publisher unlinks the superseded
    segment only after every worker acks the swap, so a slow worker can
    finish in-flight requests against arrays that are guaranteed to stay
    mapped.  :meth:`~SuggestWorkerPool.attach_epochs` wires this to an
    :class:`~repro.stream.epoch.EpochManager` publish stream.

Observability
    Workers run their own :class:`~repro.obs.registry.MetricsRegistry`;
    :meth:`~SuggestWorkerPool.merged_metrics` fetches the per-worker
    snapshots, relabels them with ``worker=<id>``, and merges them with
    the pool-level registry (queue-depth gauge, request counter,
    attach/swap latency histograms) into one deterministic snapshot.
"""

from __future__ import annotations

import os
import queue as queue_module
import threading
import time
import traceback
import zlib
from collections.abc import Sequence
from concurrent import futures
from dataclasses import asdict, dataclass
from multiprocessing import get_context

from repro.baselines.base import SuggestRequest
from repro.core.config import PQSDAConfig
from repro.core.serving import CacheStats
from repro.core.suggester import PQSDA
from repro.graphs.compact import RandomWalkExpander
from repro.logs.schema import QueryRecord
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.personalize.profiles import (
    ArrayProfileStore,
    ProfileArrays,
    UserProfileStore,
)
from repro.serve.profile_plane import (
    AttachedProfilePlane,
    SharedProfileMeta,
    SharedProfileStore,
)
from repro.serve.shm import AttachedPlane, SharedMatrixStore, SharedPlaneMeta
from repro.utils.text import normalize_query

__all__ = [
    "PoolStats",
    "SuggestError",
    "SuggestWorkerPool",
    "WorkerStats",
]

#: Batch-size histogram bounds (requests per worker envelope).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Seconds between the reply dispatcher's sweeps for dead workers and
#: expired batches while batches are in flight (also its reply-queue poll
#: timeout).
_POLL_SECONDS = 0.2


@dataclass(frozen=True, slots=True)
class SuggestError:
    """Per-request failure marker returned by ``suggest_many(return_errors=True)``.

    Attributes:
        worker_id: The worker whose ``suggest`` call raised.
        error: The worker-side traceback, formatted.
    """

    worker_id: int
    error: str

    def __str__(self) -> str:
        return f"worker {self.worker_id} failed:\n{self.error}"


class _PendingBatch:
    """Parent-side state of one in-flight request batch.

    Whoever removes the batch from the pool's registry (the dispatcher on
    its last envelope or its sweep, or ``close``) is the one that
    completes :attr:`future`, so it is completed exactly once.
    """

    __slots__ = (
        "future", "deadline", "requests", "results", "by_worker", "fills",
        "memo", "return_errors", "expected", "outstanding", "replies",
    )

    def __init__(
        self, future, deadline: float, requests, results, by_worker, fills,
        memo, return_errors: bool,
    ) -> None:
        self.future = future
        #: ``time.monotonic()`` after which the batch fails with a timeout.
        self.deadline = deadline
        self.requests = requests
        #: Request-ordered results, memo hits already in place.
        self.results = results
        self.by_worker: dict[int, list[int]] = by_worker
        #: Positions whose full ranking fills the memo, by normalized query.
        self.fills: dict[int, str] = fills
        #: The ``(generation, answers)`` of the memo snapshot at submit.
        self.memo = memo
        self.return_errors = return_errors
        self.expected = frozenset(by_worker)
        self.replies: dict[int, tuple] = {}
        #: Requests dispatched and not yet replied (exact depth gauge).
        self.outstanding = sum(len(p) for p in by_worker.values())


def _encode_request(request: SuggestRequest, k: int) -> tuple:
    """Primitive-tuple encoding of one request for a worker envelope.

    Dataclass pickling (class lookup + per-field ``__reduce__``) is the
    measurable per-request cost of the old one-message-per-request path;
    plain tuples of builtins keep the envelope compact.  *k* replaces the
    request's own ``k`` (memo fills ask for the full ranking).
    """
    return (
        request.query,
        k,
        request.user_id,
        tuple(
            (r.user_id, r.query, r.timestamp, r.clicked_url, r.record_id)
            for r in request.context
        ),
        request.timestamp,
        request.shed,
    )


def _hot_set(queries: Sequence[str] | None) -> frozenset[str]:
    """The normalized hot set the memo admits (empty = hot tier off)."""
    return frozenset(normalize_query(query) for query in queries or ())


def _profile_arrays(
    profiles: UserProfileStore | ArrayProfileStore | ProfileArrays,
) -> ProfileArrays:
    """The packable form of any profile-store flavor the pool accepts."""
    if isinstance(profiles, ProfileArrays):
        return profiles
    return profiles.to_arrays()


def _decode_context(encoded: tuple) -> tuple[QueryRecord, ...]:
    """Rebuild the context records a worker passes into ``suggest``."""
    return tuple(
        QueryRecord(
            user_id=user_id,
            query=query,
            timestamp=timestamp,
            clicked_url=clicked_url,
            record_id=record_id,
        )
        for user_id, query, timestamp, clicked_url, record_id in encoded
    )


def _rss_kb() -> int:
    """This process's resident set size in kB (0 where /proc is absent)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:  # pragma: no cover - non-Linux fallback
        pass
    return 0


def _worker_main(
    worker_id: int,
    meta: SharedPlaneMeta,
    profile_meta: SharedProfileMeta | None,
    config: PQSDAConfig,
    request_queue,
    reply_queue,
    ack_queue,
) -> None:
    """One suggest worker: attach, serve, swap on command, report stats.

    The loop is strictly serial, which is the torn-view guarantee: a swap
    (matrix or profile) message is only ever handled between two
    requests, so every request runs start-to-finish against exactly one
    generation's views.
    """
    started = time.perf_counter()
    # multiprocessing children (spawn and fork alike, on POSIX) inherit the
    # publisher's resource_tracker fd, so attach-time registrations land in
    # the publisher's registry where they are idempotent — no untracking.
    attach_start = time.perf_counter()
    plane = AttachedPlane(meta)
    profile_plane = (
        AttachedProfilePlane(profile_meta) if profile_meta is not None else None
    )
    attach_seconds = time.perf_counter() - attach_start
    registry = MetricsRegistry()
    profiles = profile_plane.store if profile_plane is not None else None
    if profiles is not None:
        profiles.attach_metrics(registry)
    pqsda = PQSDA(plane.representation, plane.expander, profiles, config)
    pqsda.attach_metrics(registry)
    requests_served = 0
    busy_seconds = 0.0
    generation = 0
    profile_generation = (
        profile_plane.generation if profile_plane is not None else 0
    )
    ack_queue.put(
        (
            "ready",
            worker_id,
            {
                "pid": os.getpid(),
                "attach_seconds": attach_seconds,
                "shares_memory": plane.shares_memory(),
                "profile_shares_memory": (
                    profile_plane.shares_memory()
                    if profile_plane is not None
                    else True
                ),
                "profile_users": len(profiles) if profiles is not None else 0,
                "rss_kb": _rss_kb(),
                "epoch_id": plane.epoch_id,
            },
        )
    )
    try:
        while True:
            message = request_queue.get()
            kind = message[0]
            if kind == "batch":
                _, batch_id, items = message
                begin = time.perf_counter()
                replies = []
                for query, k, user_id, context, timestamp, shed in items:
                    try:
                        result = pqsda.suggest(
                            query,
                            k=k,
                            user_id=user_id,
                            context=_decode_context(context),
                            timestamp=timestamp,
                            shed=shed,
                        )
                        replies.append((result, None))
                    except Exception:
                        replies.append((None, traceback.format_exc()))
                busy_seconds += time.perf_counter() - begin
                requests_served += len(items)
                reply_queue.put(
                    (
                        "bres",
                        batch_id,
                        worker_id,
                        (generation, profile_generation),
                        replies,
                    )
                )
            elif kind == "swap":
                _, new_meta, new_generation, touched = message
                swap_start = time.perf_counter()
                error = None
                try:
                    new_plane = AttachedPlane(new_meta)
                    pqsda.rebind_representation(
                        new_plane.representation, new_plane.expander, touched
                    )
                    plane.close()
                    plane = new_plane
                    generation = new_generation
                except Exception:
                    error = traceback.format_exc()
                ack_queue.put(
                    (
                        "ack",
                        worker_id,
                        new_generation,
                        {
                            "swap_seconds": time.perf_counter() - swap_start,
                            "error": error,
                        },
                    )
                )
            elif kind == "pswap":
                # Profile-generation swap: same serial-loop guarantee as a
                # matrix swap — never observed mid-request, old segment
                # released only after this ack reaches the publisher.
                _, new_profile_meta, new_profile_generation = message
                swap_start = time.perf_counter()
                error = None
                try:
                    new_profile_plane = AttachedProfilePlane(new_profile_meta)
                    profiles = new_profile_plane.store
                    profiles.attach_metrics(registry)
                    pqsda.rebind_profiles(profiles)
                    if profile_plane is not None:
                        profile_plane.close()
                    profile_plane = new_profile_plane
                    profile_generation = new_profile_generation
                except Exception:
                    error = traceback.format_exc()
                ack_queue.put(
                    (
                        "pswap_ack",
                        worker_id,
                        new_profile_generation,
                        {
                            "swap_seconds": time.perf_counter() - swap_start,
                            "shares_memory": (
                                profile_plane.shares_memory()
                                if profile_plane is not None and error is None
                                else True
                            ),
                            "error": error,
                        },
                    )
                )
            elif kind == "stats":
                (_, token) = message
                uptime = time.perf_counter() - started
                ack_queue.put(
                    (
                        "stats",
                        worker_id,
                        token,
                        {
                            "pid": os.getpid(),
                            "requests": requests_served,
                            "busy_seconds": busy_seconds,
                            "uptime_seconds": uptime,
                            "generation": generation,
                            "epoch_id": plane.epoch_id,
                            "rss_kb": _rss_kb(),
                            "shares_memory": plane.shares_memory(),
                            "profile_generation": profile_generation,
                            "profile_users": (
                                len(profiles) if profiles is not None else 0
                            ),
                            "profile_shares_memory": (
                                profile_plane.shares_memory()
                                if profile_plane is not None
                                else True
                            ),
                            "cache": asdict(pqsda.cache_stats),
                            "snapshot": registry.snapshot(),
                        },
                    )
                )
            elif kind == "stop":
                break
    finally:
        plane.close()
        if profile_plane is not None:
            profile_plane.close()


@dataclass(frozen=True, slots=True)
class WorkerStats:
    """Point-in-time counters of one pool worker.

    Attributes:
        worker_id: Routing slot of the worker (0-based).
        pid: OS process id.
        requests: Requests served since spawn.
        busy_seconds: Wall time spent inside ``suggest`` calls.
        uptime_seconds: Wall time since the worker process started.
        qps: ``requests / uptime_seconds``.
        generation: Last plane generation the worker acked.
        epoch_id: Epoch ordinal of the attached plane.
        rss_kb: Worker resident set size (kB).
        shares_memory: Whether every matrix payload is still a shared view.
        cache: The worker's compact-entry cache counters.
        profile_generation: Last profile generation the worker acked (0
            when the pool serves without profiles).
        profile_users: Users in the worker's attached profile store.
        profile_shares_memory: Whether every profile payload is still a
            shared view (vacuously true without profiles).
    """

    worker_id: int
    pid: int
    requests: int
    busy_seconds: float
    uptime_seconds: float
    qps: float
    generation: int
    epoch_id: int
    rss_kb: int
    shares_memory: bool
    cache: CacheStats
    profile_generation: int = 0
    profile_users: int = 0
    profile_shares_memory: bool = True


@dataclass(frozen=True, slots=True)
class PoolStats:
    """Pool-level snapshot: one :class:`WorkerStats` per worker.

    Attributes:
        n_workers: Worker count.
        generation: Current plane generation (0 = the bootstrap plane).
        epoch_id: Epoch ordinal of the current plane.
        segment_bytes: Bytes of the current shared segment (counted once,
            however many workers attach).
        workers: Per-worker counters, ordered by ``worker_id``.
        hot_entries: Head-query answers memoized for the current
            generation (0 when the hot tier is off or nothing was asked
            yet; never more than the hot set).
        hot_hits: Requests the parent answered O(1) from the memo since
            the pool started — these never reached a worker, so they are
            *not* part of any worker's ``requests`` count.
        profile_users: Profiled users in the current profile generation
            (0 = the pool serves without the profile plane).
        profile_generation: Current profile generation ordinal.
        profile_segment_bytes: Bytes of the current profile segment.
    """

    n_workers: int
    generation: int
    epoch_id: int
    segment_bytes: int
    workers: tuple[WorkerStats, ...]
    hot_entries: int = 0
    hot_hits: int = 0
    profile_users: int = 0
    profile_generation: int = 0
    profile_segment_bytes: int = 0

    @property
    def total_requests(self) -> int:
        """Requests served by the pool (worker batches + parent hot hits)."""
        return sum(worker.requests for worker in self.workers) + self.hot_hits


class SuggestWorkerPool:
    """N suggest workers sharing one zero-copy matrix plane.

    Args:
        expander: Full-graph expander whose matrices and walk stacks seed
            the first published generation.
        config: Serving configuration for every worker's ``PQSDA``.
        multibipartite: Representation handle; publishes the query-term
            adjacency so workers serve the unseen-query backoff.  ``None``
            disables the backoff in workers.
        profiles: Profile store (or packed
            :class:`~repro.personalize.profiles.ProfileArrays`) to publish
            as the shared profile plane.  Workers attach zero-copy scorers
            over it and Borda-fuse personalized requests bit-identically
            to the single-process personalized suggester; ``None`` serves
            unpersonalized (the pre-profile-plane behavior).
        n_workers: Worker process count.
        registry: Optional pool-level metrics registry.
        start_method: ``multiprocessing`` start method.  The default
            ``"spawn"`` is the honest zero-copy demonstration — children
            inherit nothing, every shared byte travels through the
            segment.  (``"fork"`` also works and attaches faster.)
        ready_timeout: Seconds to wait for workers to attach at startup.
        ack_timeout: Seconds to wait for swap acks, batch replies and
            stats replies.
        prefix: Shared-memory segment name prefix.
        hot_queries: Head queries whose worker answers the parent memoizes
            per generation (``None``/empty = no hot tier).  Use
            :func:`repro.core.suggester.head_queries` to extract them
            from a log by frequency.
        hot_top: When > 0 and the pool is wired to an epoch manager,
            every epoch publish re-derives ``hot_top`` head queries from
            the epoch's log as the new generation's hot set (explicit
            ``hot_queries`` serve until the first epoch arrives).

    Use as a context manager (or call :meth:`close`): shutdown stops the
    workers and unlinks the current segments, leaving nothing in
    ``/dev/shm``.
    """

    def __init__(
        self,
        expander: RandomWalkExpander,
        config: PQSDAConfig,
        multibipartite=None,
        profiles: UserProfileStore | ArrayProfileStore | ProfileArrays | None = None,
        n_workers: int = 2,
        registry=None,
        start_method: str = "spawn",
        ready_timeout: float = 120.0,
        ack_timeout: float = 120.0,
        prefix: str = "pqsda",
        hot_queries: Sequence[str] | None = None,
        hot_top: int = 0,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._n_workers = n_workers
        self._config = config
        self._multibipartite = multibipartite
        self._ack_timeout = ack_timeout
        self._prefix = prefix
        self._generation = 0
        self._closed = False
        self._hot = _hot_set(hot_queries)
        self._hot_top = hot_top
        self._hot_hits_total = 0

        registry = registry if registry is not None else NULL_REGISTRY
        self._registry = registry
        self._m_requests = registry.counter("serve.pool.requests")
        self._m_depth = registry.gauge("serve.pool.queue_depth")
        self._m_workers = registry.gauge("serve.pool.workers")
        self._m_generations = registry.counter("serve.pool.generations")
        self._m_attach = registry.histogram("serve.pool.attach_seconds")
        self._m_swap = registry.histogram("serve.pool.swap_seconds")
        self._m_hot_hits = registry.counter("serve.pool.hot_hits")
        self._m_batch_size = registry.histogram(
            "serve.pool.batch_size", buckets=_BATCH_SIZE_BUCKETS
        )
        self._m_profile_swaps = registry.counter(
            "serve.profile.generation_swaps"
        )
        self._m_profile_users = registry.gauge("serve.profile.users")
        self._m_workers.set(n_workers)

        self._store = SharedMatrixStore.publish(
            expander.matrices,
            expander,
            multibipartite,
            epoch_id=0,
            prefix=prefix,
        )
        self._profile_store: SharedProfileStore | None = None
        self._profile_generation = 0
        self._profiled_users: frozenset[str] = frozenset()
        if profiles is not None:
            arrays = _profile_arrays(profiles)
            self._profile_store = SharedProfileStore.publish(
                arrays, prefix=prefix, generation=arrays.generation
            )
            self._profile_generation = self._profile_store.generation
            self._profiled_users = frozenset(arrays.users)
            self._m_profile_users.set(len(arrays.users))
        self._reset_memo()
        context = get_context(start_method)
        self._request_queues = [context.Queue() for _ in range(n_workers)]
        self._reply_queue = context.Queue()
        self._ack_queue = context.Queue()
        # _control_lock serializes publish/stats round-trips over the ack
        # queue.  The request path has no whole-call lock: _pending_lock
        # only guards the batch registry that the reply dispatcher thread
        # correlates envelopes against, so concurrent submits overlap
        # (each batch's future completes on its own replies).
        self._control_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, _PendingBatch] = {}
        self._next_batch_id = 0
        self._next_token = 0
        self._workers = []
        self._dispatcher_stop = threading.Event()
        self._dispatcher: threading.Thread | None = None
        try:
            for worker_id in range(n_workers):
                process = context.Process(
                    target=_worker_main,
                    args=(
                        worker_id,
                        self._store.meta,
                        (
                            self._profile_store.meta
                            if self._profile_store is not None
                            else None
                        ),
                        config,
                        self._request_queues[worker_id],
                        self._reply_queue,
                        self._ack_queue,
                    ),
                    daemon=True,
                    name=f"suggest-worker-{worker_id}",
                )
                process.start()
                self._workers.append(process)
            self._dispatcher = threading.Thread(
                target=self._dispatch_replies,
                name="suggest-reply-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()
            self._ready_info = self._collect_ready(ready_timeout)
        except Exception:
            self.close()
            raise

    def _dispatch_replies(self) -> None:
        """Reply-dispatcher loop: correlate envelopes, complete futures.

        One thread owns the read side of the shared reply queue for the
        pool's whole lifetime.  Each ``("bres", batch_id, worker_id,
        generation, replies)`` envelope is matched to its
        :class:`_PendingBatch` by id and recorded with the worker's
        generation tag; the batch's future is completed once every
        expected worker has replied.  Envelopes whose batch is no longer
        registered (it timed out and was deregistered) are drained here,
        never matched.  While batches are in flight the loop also sweeps
        them every :data:`_POLL_SECONDS` (:meth:`_sweep_pending`).
        """
        next_check = 0.0
        while not self._dispatcher_stop.is_set():
            try:
                message = self._reply_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                message = None
            except (EOFError, OSError, ValueError):  # pragma: no cover
                return  # queue torn down mid-shutdown
            if message is not None:
                self._record_reply(*message[1:])
            now = time.monotonic()
            if self._pending and now >= next_check:
                next_check = now + _POLL_SECONDS
                self._sweep_pending(now)

    def _sweep_pending(self, now: float) -> None:
        """Fail the in-flight batches that can no longer complete.

        A batch still waiting on a dead worker fails with the
        ``RuntimeError`` naming it; batches waiting only on live workers
        are left alone.  A batch past its ``ack_timeout`` deadline fails
        with ``TimeoutError`` (its late envelopes then drain as stale).
        """
        dead = {
            worker_id: f"{process.name} (exit {process.exitcode})"
            for worker_id, process in enumerate(self._workers)
            if process.exitcode is not None
        }

        def verdict(pending: _PendingBatch) -> BaseException | None:
            missing = pending.expected - pending.replies.keys()
            lost = sorted(missing & dead.keys())
            if lost:
                return RuntimeError("worker process died: " + ", ".join(
                    dead[worker_id] for worker_id in lost
                ))
            if now >= pending.deadline:
                return TimeoutError(
                    f"{len(missing)} worker batch replies "
                    f"({pending.outstanding} requests) outstanding "
                    f"after {self._ack_timeout:.0f}s"
                )
            return None

        self._fail_batches(verdict)

    def _record_reply(self, batch_id, worker_id, generation, replies) -> None:
        """File one worker's reply envelope; complete its batch if last."""
        with self._pending_lock:
            pending = self._pending.get(batch_id)
            if pending is None or worker_id not in pending.expected:
                # Stale envelope from a batch that timed out (and was
                # deregistered) earlier: drain, never match.
                return
            pending.replies[worker_id] = (generation, replies)
            pending.outstanding -= len(replies)
            done = len(pending.replies) == len(pending.expected)
            if done:
                del self._pending[batch_id]
        self._m_depth.dec(len(replies))
        if done:
            try:
                pending.future.set_result(self._collect(pending))
            except Exception as exc:  # worker error, return_errors=False
                pending.future.set_exception(exc)

    def _collect(self, pending: _PendingBatch) -> list:
        """The request-ordered results of a fully replied batch.

        Fills the memo with full rankings computed on the memo's own
        generation (a publish that landed between dispatch and reply
        leaves the answer to this caller alone).  A worker error raises
        ``RuntimeError`` with its traceback (first error wins) unless the
        batch was submitted with ``return_errors``.
        """
        results = pending.results
        generation, answers = pending.memo
        for worker_id, positions in pending.by_worker.items():
            reply_generation, replies = pending.replies[worker_id]
            for position, (result, error) in zip(positions, replies):
                if error is None:
                    normalized = pending.fills.get(position)
                    if normalized is not None:
                        if reply_generation == generation:
                            answers[normalized] = result
                        result = result[: pending.requests[position].k]
                    results[position] = result
                elif pending.return_errors:
                    results[position] = SuggestError(worker_id, error)
                else:
                    raise RuntimeError(f"worker {worker_id} failed:\n{error}")
        return results

    def _fail_batches(self, verdict) -> None:
        """Deregister every in-flight batch *verdict* maps to an exception
        and fail its future with it (late envelopes then drain as stale).

        Settles the depth gauge by whatever the dispatcher never drained
        — :meth:`_record_reply` and this method split the decrement under
        the same lock, so they can never both count a reply.
        """
        failed = []
        with self._pending_lock:
            for batch_id, pending in list(self._pending.items()):
                exc = verdict(pending)
                if exc is not None:
                    del self._pending[batch_id]
                    failed.append((pending, exc))
        undrained = sum(pending.outstanding for pending, _ in failed)
        if undrained:
            self._m_depth.dec(undrained)
        for pending, exc in failed:
            pending.future.set_exception(exc)

    def _reset_memo(self, carry: bool = False) -> None:
        """Start the hot-answer memo of the generation just acked.

        One reference assignment swaps ``(generation, hot set, answers)``
        together; the answers start empty unless *carry* copies them
        over.  Publishers call this after every worker acked and after
        updating ``_profiled_users``, so a caller that snapshots the memo
        and then checks ``_personalizes`` sees profiled users at least
        as new as the memo's profile generation.
        """
        self._memo = (
            (self._generation, self._profile_generation),
            self._hot,
            dict(self._memo[2]) if carry else {},
        )

    def _check_workers_alive(self) -> None:
        dead = [
            f"{process.name} (exit {process.exitcode})"
            for process in self._workers
            if process.exitcode is not None
        ]
        if dead:
            raise RuntimeError(f"worker process died: {', '.join(dead)}")

    def _collect_ready(self, timeout: float) -> dict[int, dict]:
        deadline = time.monotonic() + timeout
        ready: dict[int, dict] = {}
        while len(ready) < self._n_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"only {len(ready)}/{self._n_workers} workers attached "
                    f"within {timeout:.0f}s"
                )
            try:
                kind, worker_id, info = self._ack_queue.get(
                    timeout=min(remaining, 1.0)
                )
            except queue_module.Empty:
                self._check_workers_alive()
                continue
            if kind != "ready":  # pragma: no cover - defensive
                continue
            ready[worker_id] = info
            self._m_attach.observe(info["attach_seconds"])
        return ready

    # -- properties --------------------------------------------------------------

    @property
    def n_workers(self) -> int:
        """Worker process count."""
        return self._n_workers

    @property
    def generation(self) -> int:
        """Current plane generation (bumped by each publish)."""
        return self._generation

    @property
    def segment_name(self) -> str:
        """Name of the current generation's segment."""
        return self._store.segment_name

    @property
    def segment_bytes(self) -> int:
        """Bytes of the current shared segment."""
        return self._store.total_bytes

    @property
    def ready_info(self) -> dict[int, dict]:
        """Per-worker attach facts gathered at startup (pid, timings, rss)."""
        return dict(self._ready_info)

    @property
    def queue_depth(self) -> int:
        """Requests dispatched to workers and not yet replied, right now.

        The exact number behind the ``serve.pool.queue_depth`` gauge —
        the admission-control signal the HTTP front-end divides by
        :attr:`n_workers` to pick a shed tier.  Available without a
        registry attached.
        """
        with self._pending_lock:
            return sum(p.outstanding for p in self._pending.values())

    @property
    def hot_entries(self) -> int:
        """Head-query answers memoized for the current generation."""
        return len(self._memo[2])

    @property
    def hot_hits(self) -> int:
        """Requests answered O(1) from the memo since startup."""
        return self._hot_hits_total

    @property
    def serves_profiles(self) -> bool:
        """Whether a shared profile plane is attached to the workers."""
        return self._profile_store is not None

    @property
    def profile_generation(self) -> int:
        """Current profile generation (bumped by each profile publish)."""
        return self._profile_generation

    @property
    def profile_users(self) -> int:
        """Profiled users in the current profile generation."""
        return len(self._profiled_users)

    @property
    def profile_segment_name(self) -> str | None:
        """Name of the current profile segment (``None`` without profiles)."""
        store = self._profile_store
        return store.segment_name if store is not None else None

    @property
    def profile_segment_bytes(self) -> int:
        """Bytes of the current profile segment (0 without profiles)."""
        store = self._profile_store
        return store.total_bytes if store is not None else 0

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def from_suggester(
        cls, suggester: PQSDA, n_workers: int = 2, **kwargs
    ) -> "SuggestWorkerPool":
        """Pool serving the same representation as a built *suggester*.

        A profile-bearing suggester's store is packed into the shared
        profile plane (see :mod:`repro.serve.profile_plane`), so pooled
        personalized rankings stay bit-identical to the single-process
        path; pass ``profiles=None`` in *kwargs* to explicitly serve it
        unpersonalized instead.
        """
        kwargs.setdefault("profiles", suggester.profiles)
        return cls(
            suggester.expander,
            suggester.config,
            multibipartite=suggester.representation,
            n_workers=n_workers,
            **kwargs,
        )

    # -- request path ------------------------------------------------------------

    def _route(self, query: str) -> int:
        """Stable query-hash routing: repeats hit the same worker's cache."""
        normalized = normalize_query(query)
        return zlib.crc32(normalized.encode("utf-8")) % self._n_workers

    def _personalizes(self, user_id: str | None) -> bool:
        """Whether workers would Borda-fuse a request of *user_id*.

        Mirrors the worker-side gate in ``PQSDA.suggest`` exactly
        (personalization on, profile plane attached, user profiled), so
        the parent's hot memo only serves and stores requests whose
        worker result is the unpersonalized ranking.
        """
        return (
            user_id is not None
            and self._config.personalize
            and user_id in self._profiled_users
        )

    def submit(
        self,
        requests: Sequence[SuggestRequest],
        return_errors: bool = False,
    ) -> futures.Future:
        """Dispatch *requests* without waiting; a future of their results.

        The non-blocking half of :meth:`suggest_many`, with the same
        results and error semantics once the future completes.
        Hot-eligible requests whose answer the current generation's memo
        holds are answered here; if every request is, the returned future
        is already done and no worker queue is touched.  The rest are
        grouped by route and sent as one envelope per worker; the
        reply-dispatcher thread completes the future when the batch's
        last envelope arrives.  The future never outlives
        ``ack_timeout``: the death of a worker it waits on fails it with a
        ``RuntimeError`` naming the worker, replies still outstanding
        after ``ack_timeout`` fail it with ``TimeoutError``, and
        :meth:`close` fails every future still outstanding.

        Safe to call from any thread, including an event loop's: it
        never blocks on a worker.  Raises ``RuntimeError`` once the pool
        is closed.
        """
        requests = list(requests)
        future: futures.Future = futures.Future()
        # Running futures cannot be cancelled: the batch stays the
        # dispatcher's to complete, whatever a waiter does.
        future.set_running_or_notify_cancel()
        if not requests:
            future.set_result([])
            return future
        if self._closed:
            raise RuntimeError("pool is closed")
        self._m_requests.inc(len(requests))
        results: list = [None] * len(requests)
        # Snapshot the memo before any _personalizes call (see _reset_memo).
        generation, hot, answers = self._memo
        by_worker: dict[int, list[int]] = {}
        fills: dict[int, str] = {}
        hot_hits = 0
        for position, request in enumerate(requests):
            # A memo entry is the full ranking of a context-free,
            # unpersonalized request; the ranking is k- and
            # timestamp-independent (timestamps only weight context
            # records), so no-context hits of any k are exact —
            # *except* for profiled users, whose worker-side ranking
            # is Borda-fused with their preference scores, so profiled
            # requests always take the worker path.  Shed tiers don't
            # gate hits (a hit's full ranking equals or beats any
            # degraded tier's) but do gate fills: a degraded answer is
            # never memoized.
            if (
                hot
                and not request.context
                and not self._personalizes(request.user_id)
            ):
                normalized = normalize_query(request.query)
                if normalized in hot:
                    ranking = answers.get(normalized)
                    if ranking is not None:
                        results[position] = ranking[: request.k]
                        hot_hits += 1
                        continue
                    if request.shed == 0:
                        fills[position] = normalized
            by_worker.setdefault(
                self._route(request.query), []
            ).append(position)
        if hot_hits:
            with self._pending_lock:
                self._hot_hits_total += hot_hits
            self._m_hot_hits.inc(hot_hits)
        if not by_worker:
            future.set_result(results)
            return future
        pending = _PendingBatch(
            future, time.monotonic() + self._ack_timeout, requests, results,
            by_worker, fills, (generation, answers), return_errors,
        )
        with self._pending_lock:
            # Checked under the lock close() sweeps under: a batch
            # registered here is either swept by close or never created.
            if self._closed:
                raise RuntimeError("pool is closed")
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            self._pending[batch_id] = pending
        self._m_depth.inc(pending.outstanding)
        try:
            for worker_id, positions in by_worker.items():
                envelope = [
                    _encode_request(
                        requests[position],
                        max(requests[position].k, self._config.diversify.k)
                        if position in fills
                        else requests[position].k,
                    )
                    for position in positions
                ]
                self._m_batch_size.observe(len(envelope))
                self._request_queues[worker_id].put(
                    ("batch", batch_id, envelope)
                )
        except BaseException as exc:
            # Nobody holds the future yet: deregister and re-raise.
            self._fail_batches(lambda other: exc if other is pending else None)
            raise
        return future

    def suggest_many(
        self,
        requests: Sequence[SuggestRequest],
        return_errors: bool = False,
    ) -> list:
        """Suggestions for *requests*, in order (``suggest_batch`` semantics).

        ``submit(requests, return_errors).result()``: hot-memo hits are
        answered O(1) in this process (tier-0 misses ask the worker for
        the full ranking and fill the memo); the rest go out as one
        envelope per worker.  Thread-safe
        and genuinely concurrent: overlapping calls from different
        threads dispatch independently and each waits only on its own
        batch, so one slow batch never stalls another caller.

        Error semantics: with the default ``return_errors=False`` a
        worker-side exception re-raises here with the worker traceback
        attached (first error wins) — the single-caller behavior.  With
        ``return_errors=True`` each failed request's slot carries a
        :class:`SuggestError` instead, and every sibling result that the
        batch did compute is returned — the per-request contract the HTTP
        front-end maps to per-request 500s.  The death of a worker the
        batch waits on raises ``RuntimeError`` naming it instead of a
        generic timeout; replies still outstanding after ``ack_timeout``
        raise ``TimeoutError``.
        Reply envelopes from a previously timed-out batch are drained by
        batch-id mismatch, so a timeout cannot corrupt subsequent calls.
        """
        return self.submit(requests, return_errors).result()

    def suggest(
        self,
        query: str,
        k: int = 10,
        user_id: str | None = None,
        context=(),
        timestamp: float = 0.0,
    ) -> list[str]:
        """Single-request convenience over :meth:`suggest_many`."""
        request = SuggestRequest(
            query=query,
            k=k,
            user_id=user_id,
            context=tuple(context),
            timestamp=timestamp,
        )
        return self.suggest_many([request])[0]

    # -- generation handshake ----------------------------------------------------

    def publish_plane(
        self,
        expander: RandomWalkExpander,
        multibipartite=None,
        touched=None,
        epoch_id: int | None = None,
        hot_queries: Sequence[str] | None = None,
    ) -> None:
        """Publish the next generation and swap every worker onto it.

        Shares *expander*'s matrices as a fresh segment, sends an in-band
        swap message down each worker's request queue (processed strictly
        between requests — no torn views), waits for every worker's ack,
        and only then unlinks the superseded segment.  *touched* flows
        into each worker's targeted cache invalidation (``None`` flushes
        the caches wholesale).

        After the acks the hot memo restarts empty for the new
        generation, over *hot_queries* when given (else the current hot
        set), so no request gets a hot answer from a superseded
        generation once the swap completes.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        with self._control_lock:
            generation = self._generation + 1
            if epoch_id is None:
                epoch_id = generation
            publish_multibipartite = (
                multibipartite
                if multibipartite is not None
                else self._multibipartite
            )
            new_store = SharedMatrixStore.publish(
                expander.matrices,
                expander,
                publish_multibipartite,
                epoch_id=epoch_id,
                prefix=self._prefix,
            )
            touched_payload = (
                frozenset(touched) if touched is not None else None
            )
            for request_queue in self._request_queues:
                request_queue.put(
                    ("swap", new_store.meta, generation, touched_payload)
                )
            self._await_swap_acks(generation, new_store)
            # Every worker acked: nobody can still be serving from the old
            # segment, so removing it is safe now and not a moment before.
            old_store = self._store
            self._store = new_store
            if hot_queries is not None:
                self._hot = _hot_set(hot_queries)
            self._generation = generation
            self._reset_memo()
            self._m_generations.inc()
            old_store.unlink()
            old_store.close()

    def _await_swap_acks(
        self, generation: int, new_store: SharedMatrixStore
    ) -> None:
        """Collect one ``ack`` per worker for *generation*.

        On timeout or any worker-side error the freshly published
        *new_store* is unlinked before raising, so a failed publish
        leaves the pool serving the previous generation with nothing
        leaked.
        """
        acked: set[int] = set()
        errors: list[str] = []
        deadline = time.monotonic() + self._ack_timeout
        while len(acked) < self._n_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                new_store.unlink()
                new_store.close()
                raise TimeoutError(
                    f"only {len(acked)}/{self._n_workers} workers acked "
                    f"generation {generation} within "
                    f"{self._ack_timeout:.0f}s"
                )
            try:
                kind, worker_id, gen, info = self._ack_queue.get(
                    timeout=remaining
                )
            except queue_module.Empty:
                continue
            if kind != "ack" or gen != generation:  # pragma: no cover
                continue
            acked.add(worker_id)
            if info.get("error"):
                errors.append(f"worker {worker_id}: {info['error']}")
            else:
                self._m_swap.observe(info["swap_seconds"])
        if errors:
            new_store.unlink()
            new_store.close()
            raise RuntimeError(
                "generation swap failed:\n" + "\n".join(errors)
            )

    def publish_profiles(
        self,
        profiles: UserProfileStore | ArrayProfileStore | ProfileArrays,
        generation: int | None = None,
    ) -> None:
        """Publish the next profile generation and swap every worker onto it.

        Same handshake shape as :meth:`publish_plane`, over the profile
        plane: the new generation is packed into a fresh segment, a
        ``pswap`` message goes down each worker's request queue (processed
        strictly between requests — no torn profile views), and the
        superseded profile segment is unlinked only after every worker
        acks.  On ack errors or timeout the new segment is unlinked and
        the pool keeps serving the old generation.

        A pool started without profiles can be upgraded by a first
        ``publish_profiles`` call (workers bind the store and start
        Borda-fusing profiled requests; *config.personalize* must be on
        for the fusion gate to open).
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        with self._control_lock:
            if generation is None:
                generation = self._profile_generation + 1
            arrays = _profile_arrays(profiles)
            new_store = SharedProfileStore.publish(
                arrays, prefix=self._prefix, generation=generation
            )
            for request_queue in self._request_queues:
                request_queue.put(("pswap", new_store.meta, generation))
            acked: set[int] = set()
            errors: list[str] = []
            deadline = time.monotonic() + self._ack_timeout
            while len(acked) < self._n_workers:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    new_store.unlink()
                    new_store.close()
                    raise TimeoutError(
                        f"only {len(acked)}/{self._n_workers} workers acked "
                        f"profile generation {generation} within "
                        f"{self._ack_timeout:.0f}s"
                    )
                try:
                    kind, worker_id, gen, info = self._ack_queue.get(
                        timeout=remaining
                    )
                except queue_module.Empty:
                    continue
                if kind != "pswap_ack" or gen != generation:
                    continue  # pragma: no cover - defensive
                acked.add(worker_id)
                if info.get("error"):
                    errors.append(f"worker {worker_id}: {info['error']}")
                else:
                    self._m_swap.observe(info["swap_seconds"])
            if errors:
                new_store.unlink()
                new_store.close()
                raise RuntimeError(
                    "profile generation swap failed:\n" + "\n".join(errors)
                )
            # Every worker acked: nobody can still be scoring from the
            # old profile segment, so removing it is safe now.
            old_store = self._profile_store
            self._profile_store = new_store
            self._profile_generation = generation
            self._profiled_users = frozenset(arrays.users)
            # Profiles never change an unpersonalized ranking, so the
            # memo's answers carry over; the new tag only rejects fills
            # that straddled this swap.
            self._reset_memo(carry=True)
            self._m_profile_swaps.inc()
            self._m_profile_users.set(len(arrays.users))
            if old_store is not None:
                old_store.unlink()
                old_store.close()

    def publish_epoch(self, epoch) -> None:
        """Swap the pool onto a streaming :class:`~repro.stream.epoch.Epoch`.

        With ``hot_top`` configured, the hot set is re-extracted from the
        epoch's cumulative log (traffic drifts; yesterday's head is not
        today's) and takes effect with the new generation's memo.  An epoch
        carrying a folded profile generation (``epoch.profiles`` — see
        :class:`repro.stream.ingest.LogIngestor`) additionally rides a
        profile swap after the matrix swap, so click feedback reaches the
        workers' scorers through the same epoch machinery.
        """
        hot_queries = None
        if self._hot_top > 0:
            hot_queries = epoch.head_queries(self._hot_top)
        self.publish_plane(
            epoch.expander,
            multibipartite=epoch.multibipartite,
            touched=epoch.touched_queries,
            epoch_id=epoch.epoch_id,
            hot_queries=hot_queries,
        )
        profiles = getattr(epoch, "profiles", None)
        if profiles is not None:
            self.publish_profiles(profiles)

    def attach_epochs(self, manager) -> None:
        """Republish to the workers after every epoch-manager publish."""
        manager.subscribe(self.publish_epoch)

    # -- introspection -----------------------------------------------------------

    def _collect_stats_payloads(self) -> dict[int, dict]:
        """One stats round-trip to every worker (serialized by caller)."""
        token = self._next_token
        self._next_token += 1
        for request_queue in self._request_queues:
            request_queue.put(("stats", token))
        payloads: dict[int, dict] = {}
        deadline = time.monotonic() + self._ack_timeout
        while len(payloads) < self._n_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"only {len(payloads)}/{self._n_workers} stats replies "
                    f"within {self._ack_timeout:.0f}s"
                )
            try:
                kind, worker_id, got_token, payload = self._ack_queue.get(
                    timeout=remaining
                )
            except queue_module.Empty:
                continue
            if kind != "stats" or got_token != token:  # pragma: no cover
                continue
            payloads[worker_id] = payload
        return payloads

    def stats(self) -> PoolStats:
        """Live per-worker counters, one round-trip to every worker."""
        if self._closed:
            raise RuntimeError("pool is closed")
        with self._control_lock:
            payloads = self._collect_stats_payloads()
        workers = tuple(
            WorkerStats(
                worker_id=worker_id,
                pid=payload["pid"],
                requests=payload["requests"],
                busy_seconds=payload["busy_seconds"],
                uptime_seconds=payload["uptime_seconds"],
                qps=(
                    payload["requests"] / payload["uptime_seconds"]
                    if payload["uptime_seconds"] > 0
                    else 0.0
                ),
                generation=payload["generation"],
                epoch_id=payload["epoch_id"],
                rss_kb=payload["rss_kb"],
                shares_memory=payload["shares_memory"],
                cache=CacheStats(**payload["cache"]),
                profile_generation=payload.get("profile_generation", 0),
                profile_users=payload.get("profile_users", 0),
                profile_shares_memory=payload.get(
                    "profile_shares_memory", True
                ),
            )
            for worker_id, payload in sorted(payloads.items())
        )
        return PoolStats(
            n_workers=self._n_workers,
            generation=self._generation,
            epoch_id=self._store.meta.epoch_id,
            segment_bytes=self.segment_bytes,
            workers=workers,
            hot_entries=self.hot_entries,
            hot_hits=self._hot_hits_total,
            profile_users=len(self._profiled_users),
            profile_generation=self._profile_generation,
            profile_segment_bytes=self.profile_segment_bytes,
        )

    def merged_metrics(self) -> dict:
        """Pool + per-worker metric snapshots as one deterministic view.

        Worker metrics carry a ``worker=<id>`` label; pool-level metrics
        (queue depth, request counter, attach/swap histograms) come from
        the pool's own registry.  Entries are sorted by (name, labels),
        matching :meth:`~repro.obs.registry.MetricsRegistry.snapshot`.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        with self._control_lock:
            payloads = self._collect_stats_payloads()
        merged: list[dict] = []
        for worker_id, payload in sorted(payloads.items()):
            for entry in payload["snapshot"]["metrics"]:
                entry = dict(entry)
                labels = dict(entry.get("labels", {}))
                labels["worker"] = str(worker_id)
                entry["labels"] = labels
                merged.append(entry)
        if self._registry is not NULL_REGISTRY:
            merged.extend(self._registry.snapshot()["metrics"])
        merged.sort(
            key=lambda entry: (
                entry["name"],
                sorted(entry.get("labels", {}).items()),
            )
        )
        return {"metrics": merged}

    # -- lifecycle ---------------------------------------------------------------

    def close(self, join_timeout: float = 30.0) -> None:
        """Stop the workers and unlink the current segments (idempotent).

        Every future still outstanding fails with ``RuntimeError("pool is
        closed")`` first, so no waiter outlives the pool.
        """
        with self._pending_lock:
            if self._closed:
                return
            self._closed = True
        closed = RuntimeError("pool is closed")
        self._fail_batches(lambda pending: closed)
        for request_queue in self._request_queues:
            try:
                request_queue.put(("stop",))
            except Exception:  # pragma: no cover - queue already broken
                pass
        for process in self._workers:
            process.join(timeout=join_timeout)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5.0)
        self._dispatcher_stop.set()
        if self._dispatcher is not None and self._dispatcher.is_alive():
            self._dispatcher.join(timeout=5.0)
        self._store.unlink()
        self._store.close()
        if self._profile_store is not None:
            self._profile_store.unlink()
            self._profile_store.close()

    def __enter__(self) -> "SuggestWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
