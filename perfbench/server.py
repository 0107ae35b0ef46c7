"""The deployment under test, run as its own process.

Usage (the benchmark starts it; shown for running it by hand)::

    PYTHONPATH=src python3 perfbench/server.py --bootstrap B.tsv \\
        --feed F.tsv --port 8080 --prefix pbtest [--trace]

It builds ``streaming_pqsda`` over the bootstrap TSV with personalization
on (``repro serve --personalize`` defaults) and streamed profiles, starts
a 2-worker ``SuggestWorkerPool`` with a 20-entry hot tier wired to the
epoch manager, and serves it over HTTP through ``run_in_thread`` with
``FrontendConfig()`` defaults.  Commands arrive one per line on stdin:

* ``ingest`` — start ``LogIngestor.ingest(tail_aol(feed, 0.05))`` on a
  thread; a ``drained`` event follows once the feed has been idle for
  ``IDLE_SECONDS`` and the remainder is published;
* ``metrics`` — reply with ``pool.merged_metrics()`` and plane sizes;
* ``profiles PATH`` — pickle the current profile arrays to PATH (the
  benchmark's reference suggester ranks with the same profiles);
* ``dump`` — reply with the recorded epochs, record pulls and spans.

Replies and events are single stdout lines ``PERFBENCH <json>``.  SIGINT
stops the ingest thread, the front-end and the pool, in that order.

With ``--trace`` the public entry points of each layer are wrapped from
outside (see :func:`install_tracing`); no code of the program changes.
"""

from __future__ import annotations

import argparse
import functools
import json
import pickle
import sys
import threading
import time
import traceback
from dataclasses import asdict

#: The hot tier's size (see README: larger tiers dominate publish time).
HOT_TOP = 20
#: Suggest worker processes (the ``repro serve`` default).
WORKERS = 2
#: Seconds without a new feed line after which the tail source ends.
IDLE_SECONDS = 1.0

_emit_lock = threading.Lock()


def emit(event: str, **payload) -> None:
    """Write one ``PERFBENCH`` event line to stdout."""
    line = json.dumps({"event": event, **payload})
    with _emit_lock:
        sys.stdout.write("PERFBENCH " + line + "\n")
        sys.stdout.flush()


def serving_config():
    """The ``repro serve --personalize`` defaults the server runs with."""
    from repro.core import PQSDAConfig
    from repro.diversify.candidates import DiversifyConfig
    from repro.graphs.compact import CompactConfig
    from repro.personalize.upm import UPMConfig

    return PQSDAConfig(
        compact=CompactConfig(size=150),
        diversify=DiversifyConfig(k=10),
        personalize=True,
        upm=UPMConfig(n_topics=5, iterations=10, hyperopt_every=0, seed=0),
    )


def install_tracing(spans: list) -> None:
    """Time each layer's public entry points into *spans*.

    Every call appends ``(label, start, end, info)`` with monotonic-clock
    bounds; ``info`` is the request list for ``suggest_many`` and ``None``
    elsewhere.  ``list.append`` is atomic, so concurrent callers need no
    lock.
    """
    from repro.personalize.profiles import ArrayProfileStore
    from repro.serve.pool import SuggestWorkerPool
    from repro.stream.delta import StreamState
    from repro.stream.epoch import EpochManager

    def wrap(cls, method: str, label: str, describe=None) -> None:
        original = getattr(cls, method)

        @functools.wraps(original)
        def timed(self, *args, **kwargs):
            start = time.monotonic()
            try:
                return original(self, *args, **kwargs)
            finally:
                info = describe(*args) if describe is not None else None
                spans.append((label, start, time.monotonic(), info))

        setattr(cls, method, timed)

    wrap(
        SuggestWorkerPool,
        "suggest_many",
        "suggest_many",
        lambda requests, *_: [(r.query, r.user_id) for r in requests],
    )
    wrap(SuggestWorkerPool, "publish_plane", "publish_plane")
    wrap(SuggestWorkerPool, "publish_profiles", "publish_profiles")
    wrap(StreamState, "apply", "fold")
    wrap(StreamState, "build_snapshot", "snapshot")
    wrap(EpochManager, "publish", "epoch_publish")
    wrap(ArrayProfileStore, "fold_feedback", "profile_fold")


class Ingest:
    """The ingest thread and what it records for epoch lag."""

    def __init__(self, ingestor, manager, feed: str, trace: bool) -> None:
        self._ingestor = ingestor
        self._manager = manager
        self._feed = feed
        self._trace = trace
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.pulled = 0
        self.ended = False
        self.pulls: list[float] = []
        self.epochs: list[dict] = []
        # Registered after the pool's subscriber, so it runs once the
        # pool's swap for the epoch has returned (every worker acked).
        manager.subscribe(self._on_epoch)

    def _on_epoch(self, epoch) -> None:
        self.epochs.append({
            "epoch": epoch.epoch_id,
            "t": time.monotonic(),
            "pulled": self.pulled,
            "ended": self.ended,
            "records": len(epoch.log),
        })

    def _source(self):
        from repro.stream.ingest import tail_aol

        for record in tail_aol(
            self._feed, poll_seconds=0.05, idle_timeout=IDLE_SECONDS
        ):
            if self._stop.is_set():
                break
            self.pulled += 1
            if self._trace:
                self.pulls.append(time.monotonic())
            yield record
        self.ended = True

    def _run(self) -> None:
        try:
            report = self._ingestor.ingest(self._source())
        except Exception:
            emit("error", where="ingest", traceback=traceback.format_exc())
            return
        emit(
            "drained",
            report=asdict(report),
            records=len(self._manager.current().log),
        )

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("ingest already started")
        self._thread = threading.Thread(
            target=self._run, name="perfbench-ingest", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=60.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bootstrap", required=True)
    parser.add_argument("--feed", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--prefix", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    spans: list = []
    if args.trace:
        install_tracing(spans)

    from repro.core.suggester import head_queries
    from repro.logs.aol import read_aol
    from repro.obs.registry import MetricsRegistry
    from repro.serve.frontend import FrontendConfig, run_in_thread
    from repro.serve.pool import SuggestWorkerPool
    from repro.stream import IngestConfig, streaming_pqsda

    bootstrap = read_aol(args.bootstrap)
    suggester, ingestor, manager = streaming_pqsda(
        bootstrap,
        config=serving_config(),
        # The input TSV is cleaned wholesale up front (as `repro ingest`
        # does), so the online gate admits every fed record verbatim.
        ingest=IngestConfig(batch_size=256, epoch_every=1, clean=False),
        stream_profiles=True,
    )
    registry = MetricsRegistry()
    pool = SuggestWorkerPool.from_suggester(
        suggester,
        n_workers=WORKERS,
        registry=registry,
        hot_queries=head_queries(bootstrap, HOT_TOP),
        hot_top=HOT_TOP,
        prefix=args.prefix,
    )
    ingest = None
    handle = None
    try:
        pool.attach_epochs(manager)
        ingest = Ingest(ingestor, manager, args.feed, args.trace)
        handle = run_in_thread(
            pool,
            port=args.port,
            config=FrontendConfig(),
            registry=registry,
        )
        emit(
            "ready",
            port=handle.address[1],
            workers=[info["pid"] for _, info in sorted(pool.ready_info.items())],
        )
        for line in sys.stdin:
            command = line.strip()
            if command == "ingest":
                ingest.start()
            elif command == "metrics":
                emit(
                    "metrics",
                    merged=pool.merged_metrics(),
                    plane_bytes=pool.segment_bytes,
                    profile_bytes=pool.profile_segment_bytes,
                )
            elif command.startswith("profiles "):
                with open(command.split(" ", 1)[1], "wb") as out:
                    pickle.dump(ingestor.profiles.to_arrays(), out)
                emit("profiles")
            elif command == "dump":
                emit(
                    "dump",
                    epochs=ingest.epochs,
                    pulls=ingest.pulls,
                    spans=spans,
                )
            elif command:
                emit("error", where="stdin", traceback=f"unknown {command!r}")
    except KeyboardInterrupt:
        pass
    finally:
        if ingest is not None:
            ingest.stop()
        if handle is not None:
            handle.stop()
        pool.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
