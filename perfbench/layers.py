"""Per-layer metrics of a traced run.

Inputs are what the traced server recorded from outside the program —
spans around each layer's public entry points, record pulls, epoch swaps
— plus ``pool.merged_metrics()`` snapshots taken at both ends of the read
window, ``/proc`` CPU readings and the client's own timestamps.  All
times share ``CLOCK_MONOTONIC``.  See README.md for what each metric
should move.
"""

from __future__ import annotations

import bisect
import statistics
import zlib
from collections import defaultdict

#: Worker-side spans of ``PQSDA.suggest`` (``trace.span.seconds``).
WORKER_STAGES = {
    "graphs.compact.expand_ms.mean": "expand",
    "diversify.regularization.solve_ms.mean": "solve",
    "diversify.hitting_time.walk_ms.mean": "walk",
    "personalize.rerank_ms.mean": "rerank",
}

#: Write-path spans recorded by the traced server, by metric.
WRITE_SPANS = {
    "stream.delta.fold_ms.mean": "fold",
    "stream.delta.snapshot_ms.mean": "snapshot",
    "personalize.profile_fold_ms.mean": "profile_fold",
    "stream.epoch.publish_ms.mean": "epoch_publish",
    "serve.pool.publish_plane_ms.mean": "publish_plane",
    "serve.pool.publish_profiles_ms.mean": "publish_profiles",
}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _series(snapshot: dict) -> dict:
    """``(name, span, worker) -> entry`` of a merged-metrics snapshot."""
    table = {}
    for entry in snapshot["metrics"]:
        labels = entry.get("labels", {})
        key = (entry["name"], labels.get("span"), labels.get("worker"))
        table[key] = entry
    return table


def _delta_total(before: dict, after: dict, name: str, field: str) -> float:
    """Sum over workers of ``after - before`` for a counter or histogram."""
    total = 0.0
    for key, entry in after.items():
        if key[0] != name:
            continue
        old = before.get(key, {})
        total += entry.get(field, 0) - old.get(field, 0)
    return total


def _span_delta(before: dict, after: dict, span: str):
    """Window count, sum and cumulative buckets of one worker span."""
    count, total, buckets = 0, 0.0, defaultdict(float)
    for key, entry in after.items():
        if key[0] != "trace.span.seconds" or key[1] != span:
            continue
        old = before.get(key, {"count": 0, "sum": 0.0, "buckets": []})
        count += entry["count"] - old["count"]
        total += entry["sum"] - old["sum"]
        previous = {bound: n for bound, n in old["buckets"]}
        for bound, n in entry["buckets"]:
            buckets[bound] += n - previous.get(bound, 0)
    return count, total, buckets


def _bucket_median_ms(count: int, buckets: dict) -> float:
    """Median interpolated inside its histogram bucket, in ms."""
    if count <= 0:
        return 0.0
    target, lower, below = count / 2, 0.0, 0
    for bound, cumulative in sorted(
        ((b, n) for b, n in buckets.items() if b != "+Inf")
    ):
        if cumulative >= target:
            inside = cumulative - below
            share = (target - below) / inside if inside else 0.0
            return (lower + share * (bound - lower)) * 1000
        lower, below = bound, cumulative
    return lower * 1000


def per_layer(
    *,
    spans: list,
    window: tuple[float, float],
    ingest_started: float,
    outcomes: list,
    metrics_before: dict,
    metrics_after: dict,
    cpu: dict,
    pulls: list[float],
    dues: list[float],
    hot_queries: set[str],
    profiled_users: set[str],
    normalize,
    n_workers: int,
    traced_p50_ms: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    lo, hi = window
    before = _series(metrics_before["merged"])
    after = _series(metrics_after["merged"])
    calls = [s for s in spans if s[0] == "suggest_many" and lo <= s[1] <= hi]
    out: dict[str, float] = {}

    # -- serve.frontend: client latency minus the enclosing pool call.
    by_request = defaultdict(list)
    for label, start, end, info in calls:
        for query, user in info:
            by_request[(query, user)].append((start, end))
    self_ms = []
    for outcome in outcomes:
        if outcome.status != 200:
            continue
        key = (outcome.request.query, outcome.request.user)
        inside = [
            end - start
            for start, end in by_request.get(key, ())
            if outcome.sent <= start and end <= outcome.received
        ]
        if inside:
            self_ms.append((outcome.latency - max(inside)) * 1000)
    out["serve.frontend.self_ms.p50"] = median(self_ms)
    out["serve.frontend.batch_requests.mean"] = mean(len(c[3]) for c in calls)

    # -- serve.pool: call time minus the worker compute it waited on.
    suggests, suggest_sum, suggest_buckets = _span_delta(
        before, after, "suggest"
    )
    worker_mean = suggest_sum / suggests if suggests else 0.0
    pool_self = []
    for label, start, end, info in calls:
        per_worker = defaultdict(int)
        for query, user in info:
            normalized = normalize(query)
            hot = normalized in hot_queries and (
                user is None or user not in profiled_users
            )
            if not hot:
                crc = zlib.crc32(normalized.encode("utf-8"))
                per_worker[crc % n_workers] += 1
        waited = worker_mean * max(per_worker.values(), default=0)
        pool_self.append((end - start - waited) * 1000)
    out["serve.pool.self_ms.p50"] = median(pool_self)
    requests = _delta_total(before, after, "serve.pool.requests", "value")
    hot_hits = _delta_total(before, after, "serve.pool.hot_hits", "value")
    out["serve.pool.hot_hit_ratio"] = hot_hits / requests if requests else 0.0

    # -- core.serving: CompactCache hits over lookups, all workers.
    hits = _delta_total(before, after, "serving.cache.hits", "value")
    misses = _delta_total(before, after, "serving.cache.misses", "value")
    lookups = hits + misses
    out["core.serving.cache_hit_ratio"] = hits / lookups if lookups else 0.0

    # -- worker compute, per worker request.
    out["core.suggester.suggest_ms.p50"] = _bucket_median_ms(
        suggests, suggest_buckets
    )
    for metric, stage in WORKER_STAGES.items():
        _, stage_sum, _ = _span_delta(before, after, stage)
        out[metric] = stage_sum / suggests * 1000 if suggests else 0.0

    # -- process CPU over the read window.
    http_requests = max(1, len(outcomes))
    out["cpu.parent_ms_per_req"] = cpu["parent"] * 1000 / http_requests
    out["cpu.workers_ms_per_req"] = cpu["workers"] * 1000 / http_requests

    # -- write path (every span after the ingest thread started).
    read_lags = [
        (pulled - due) * 1000 for pulled, due in zip(pulls, dues)
    ]
    out["stream.ingest.read_lag_ms.p50"] = median(read_lags)
    for metric, label in WRITE_SPANS.items():
        out[metric] = mean(
            (end - start) * 1000
            for name, start, end, _ in spans
            if name == label and start >= ingest_started
        )

    # -- reads that overlapped an epoch publish.
    publishes = sorted(
        (start, end)
        for name, start, end, _ in spans
        if name == "epoch_publish" and start >= ingest_started
    )
    starts = [start for start, _ in publishes]
    during = []
    for outcome in outcomes:
        index = bisect.bisect_right(starts, outcome.received)
        if index and publishes[index - 1][1] >= outcome.sent:
            during.append(outcome.latency_from_due * 1000)
    out["http.during_publish_ms.p50"] = median(during)

    out["serve.shm.plane_mb"] = metrics_after["plane_bytes"] / 1e6
    out["serve.shm.profile_mb"] = metrics_after["profile_bytes"] / 1e6
    out["trace.suggest_p50_ms"] = traced_p50_ms
    return out


def write_path_seconds(spans: list, ingest_started: float) -> float:
    """Fold + snapshot + profile fold + epoch publish, in seconds.

    These partition ``LogIngestor``'s fold and publish timers, so the sum
    should agree with ``IngestReport.fold_seconds + publish_seconds``.
    """
    labels = {"fold", "snapshot", "profile_fold", "epoch_publish"}
    return sum(
        end - start
        for name, start, end, _ in spans
        if name in labels and start >= ingest_started
    )
