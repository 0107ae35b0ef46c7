"""The repository's benchmark: HTTP suggest latency/capacity and epoch lag.

Usage (from the repository root)::

    python3 perfbench/run.py --workload head_anon --seed 1 --seconds 10 --trace 0

One run starts the deployment under test (``perfbench/server.py``) as its
own process, drives one workload against it over HTTP, checks every
answer against a single-process reference, and prints one JSON line of
run details followed, as the last line, by the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import platform
import secrets
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "suggest_p50_ms": "ms",
    "suggest_capacity_qps": "1/s",
    "epoch_lag_p50_s": "s",
    "server_pss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "serve.frontend.self_ms.p50": "ms",
    "serve.frontend.batch_requests.mean": "count",
    "serve.pool.self_ms.p50": "ms",
    "serve.pool.hot_hit_ratio": "ratio",
    "core.serving.cache_hit_ratio": "ratio",
    "core.suggester.suggest_ms.p50": "ms",
    "graphs.compact.expand_ms.mean": "ms",
    "diversify.regularization.solve_ms.mean": "ms",
    "diversify.hitting_time.walk_ms.mean": "ms",
    "personalize.rerank_ms.mean": "ms",
    "cpu.parent_ms_per_req": "ms",
    "cpu.workers_ms_per_req": "ms",
    "stream.ingest.read_lag_ms.p50": "ms",
    "stream.delta.fold_ms.mean": "ms",
    "stream.delta.snapshot_ms.mean": "ms",
    "personalize.profile_fold_ms.mean": "ms",
    "stream.epoch.publish_ms.mean": "ms",
    "serve.pool.publish_plane_ms.mean": "ms",
    "serve.pool.publish_profiles_ms.mean": "ms",
    "serve.shm.plane_mb": "MB",
    "serve.shm.profile_mb": "MB",
    "http.during_publish_ms.p50": "ms",
    "trace.suggest_p50_ms": "ms",
}


@dataclass(frozen=True)
class Workload:
    reads: str          # read mix: "head" or "tail" (inputs.read_schedule)
    open_rate: float    # open-loop requests per second
    live_feed: bool     # append the log tail while the open loop runs


WORKLOADS = {
    "head_anon": Workload("head", 30.0, False),
    "tail_signed_in": Workload("tail", 30.0, False),
    "live_ingest": Workload("head", 20.0, True),
}

#: Server starts per run; setup_s is their median.  Each costs 7-10 s on
#: a 2-CPU VM, and a full set of 48 runs must finish within 3420 s.
SETUPS = 2
#: Unmeasured reads that warm the caches before timing.
WARMUP_SECONDS = 1.0
#: Share of --seconds spent in the open loop; capacity takes the rest.
OPEN_SHARE = {False: 0.6, True: 0.86}
#: Closed-loop connections of the capacity phase (= the machine's CPUs).
CONNECTIONS = 2
#: Latency limit of an answer counted towards capacity.
CAPACITY_LIMIT_S = 0.1
#: Answers per block of the capacity estimate (see Run.capacity_qps).
CAPACITY_BLOCK = 25
#: Records per second appended to the tailed TSV by ``live_ingest``.
FEED_RATE = 150.0
#: Ingest micro-batch size; one epoch per batch.
BATCH = 256
#: Write probe of the read workloads: bursts of one batch, this far apart.
PROBE_BURSTS = 4
PROBE_GAP_S = 1.0
#: The feed is behind its schedule when its p90 lateness exceeds the
#: tail's poll interval (seconds); the open loop, when it exceeds the gap
#: between two sends.  (A lone late wake-up is not falling behind: the
#: schedule is absolute, so the next send is on time again.)
FEED_LATENESS_LIMIT = 0.05


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (*share* in (0, 1]) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def lateness_summary(values: list[float]) -> dict:
    return {
        "samples": len(values),
        "p90_ms": percentile(values, 0.9) * 1000,
        "p99_ms": percentile(values, 0.99) * 1000,
        "max_ms": max(values, default=0.0) * 1000,
    }


def source_stamp() -> dict:
    """Commit (when the checkout is a git repository) and a source digest."""
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=False,
        )
        commit = result.stdout.strip() or None
    return {"commit": commit, "source_sha1": digest.hexdigest()}


class Run:
    """One benchmark run of one workload."""

    def __init__(self, args: argparse.Namespace) -> None:
        from inputs import load_split

        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.trace = bool(args.trace)
        self.open_seconds = args.seconds * OPEN_SHARE[self.workload.live_feed]
        self.capacity_seconds = args.seconds - self.open_seconds
        self.split = load_split(ROOT, args.scale, args.seed)
        token = f"{os.getpid()}-{secrets.token_hex(3)}"
        self.workdir = ROOT / ".perfbench" / "runs" / token
        self.workdir.mkdir(parents=True)
        self.prefix = f"perfbench-{token}"
        self.feed_path = self.workdir / "tail.tsv"
        self.profiles_path = self.workdir / "profiles.pickle"
        self.failures: dict[str, int] = {}
        self.attempted = 0
        self.details: dict = {}
        self.marks: dict = {}
        self.fed_lines: list[str] = []
        self.dues: list[float] = []
        self.ingest_started = 0.0

    def fail(self, reason: str, count: int = 1) -> None:
        if count:
            self.failures[reason] = self.failures.get(reason, 0) + count

    def schedule(self, stream: str, n: int) -> list:
        from inputs import read_schedule

        return read_schedule(
            self.split, self.workload.reads, self.args.seed, stream, n
        )

    # -- the server --------------------------------------------------------------

    def start_server(self, index: int):
        from procs import Server

        self.feed_path.write_text("", encoding="utf-8")
        return Server(
            ROOT,
            self.split.bootstrap_path,
            self.feed_path,
            f"{self.prefix}-{index}-",
            self.trace,
            self.workdir / f"server{index}.log",
        )

    def stop_server(self, server) -> None:
        from procs import Server

        report = server.stop()
        if not Server.clean(report):
            self.fail("unclean_shutdown")
            report["log_tail"] = server.log_text()[-3000:]
        self.details.setdefault("shutdowns", []).append(report)

    def mark(self, when: str) -> None:
        """Traced runs: metrics snapshot, CPU times and time at *when*."""
        from procs import cpu_seconds

        if not self.trace:
            return
        server = self.server
        self.marks[when] = {
            "metrics": server.command("metrics", "metrics"),
            "parent": cpu_seconds(server.pid),
            "workers": sum(cpu_seconds(p) for p in server.ready["workers"]),
            "t": time.monotonic(),
        }

    # -- phases ------------------------------------------------------------------

    def connect(self) -> list:
        from loadgen import Connection

        port = self.server.ready["port"]
        return [Connection("127.0.0.1", port) for _ in range(CONNECTIONS)]

    def check_lateness(self, name: str, late: list[float], limit: float) -> None:
        """Record the generator's lateness; a run behind schedule fails."""
        summary = lateness_summary(late)
        self.details[f"{name}_lateness"] = summary
        if summary["p90_ms"] > limit * 1000:
            self.fail(f"{name}_behind_schedule")

    def start_feed(self, lines: list[str], dues: list[float]):
        from loadgen import feed

        self.fed_lines, self.dues = lines, dues
        self.server.command("ingest")
        self.ingest_started = time.monotonic()
        return feed(str(self.feed_path), lines, dues)

    async def warmup(self) -> list:
        from loadgen import open_loop

        connections = self.connect()
        rate = self.workload.open_rate
        try:
            outcomes, _ = await open_loop(
                connections,
                self.schedule("warmup", int(WARMUP_SECONDS * rate)),
                time.monotonic() + 0.05,
                rate,
            )
        finally:
            for connection in connections:
                connection.close()
        return outcomes

    async def open_phase(self) -> list:
        """The open loop; ``live_ingest`` feeds the log tail meanwhile."""
        from loadgen import open_loop

        connections = self.connect()
        rate = self.workload.open_rate
        start = time.monotonic() + 0.1
        tasks = [
            open_loop(
                connections,
                self.schedule("open", int(self.open_seconds * rate)),
                start,
                rate,
            )
        ]
        if self.workload.live_feed:
            lines = self.split.feed_lines[: int(self.open_seconds * FEED_RATE)]
            dues = [start + i / FEED_RATE for i in range(len(lines))]
            tasks.append(self.start_feed(lines, dues))
        try:
            results = await asyncio.gather(*tasks)
        finally:
            for connection in connections:
                connection.close()
        outcomes, late = results[0]
        self.check_lateness("open_loop", late, 1 / rate)
        if self.workload.live_feed:
            self.check_lateness("feed", results[1], FEED_LATENESS_LIMIT)
        return outcomes

    async def capacity_phase(self) -> list:
        from loadgen import closed_loop

        connections = self.connect()
        sequences = [self.schedule(f"capacity{i}", 4000) for i in range(CONNECTIONS)]
        self.capacity_start = time.monotonic()
        try:
            outcomes = await closed_loop(
                connections,
                sequences,
                self.capacity_start + self.capacity_seconds,
            )
        finally:
            for connection in connections:
                connection.close()
        return outcomes

    async def write_probe(self) -> None:
        """Bursts of one batch each, for the read workloads' epoch lag."""
        lines = self.split.feed_lines[: PROBE_BURSTS * BATCH]
        start = time.monotonic() + 0.1
        dues = [start + (i // BATCH) * PROBE_GAP_S for i in range(len(lines))]
        late = await self.start_feed(lines, dues)
        self.check_lateness("feed", late, FEED_LATENESS_LIMIT)

    # -- the run -----------------------------------------------------------------

    def execute(self) -> dict:
        from procs import pss_mb

        t0 = time.monotonic()
        phases = self.details["phases_s"] = {}

        def lap(name):
            nonlocal t0
            now = time.monotonic()
            phases[name] = now - t0
            t0 = now

        setups = []
        for index in range(SETUPS - 1):
            server = self.start_server(index)
            setups.append(server.setup_seconds)
            self.stop_server(server)
            lap(f"setup{index}")
        self.server = server = self.start_server(SETUPS - 1)
        setups.append(server.setup_seconds)
        self.details["setup_s"] = setups
        lap("setup_main")
        try:
            warm = asyncio.run(self.warmup())
            lap("warm")
            self.mark("before")
            opened = asyncio.run(self.open_phase())
            lap("open")
            if self.workload.live_feed:
                # Capacity reads the drained graph, so the post-ingest
                # reference can check its answers.
                drained = server.wait("drained", timeout=120.0)
            capacity = asyncio.run(self.capacity_phase())
            lap("capacity")
            self.mark("after")
            if self.workload.reads == "tail":
                server.command(f"profiles {self.profiles_path}", "profiles")
            if not self.workload.live_feed:
                asyncio.run(self.write_probe())
                drained = server.wait("drained", timeout=120.0)
            lap("probe")
            dump = server.command("dump", "dump")
            pss = pss_mb(server.tree())
        finally:
            self.stop_server(server)
        lap("stop")

        self.check_feed(drained)
        reference = self.reference()
        lap("reference")
        self.check(warm, None)
        # Answers read mid-ingest have no single reference graph.
        self.check(opened, None if self.workload.live_feed else reference)
        self.check(capacity, reference)
        latencies = [
            o.latency_from_due if o.status == 200 else math.inf for o in opened
        ]
        lags = self.epoch_lags(dump["epochs"])
        if not lags:
            self.fail("no_epochs")
        self.details.update(
            epoch_lags_s=lags,
            open_requests=len(opened),
            capacity_answers=len(capacity),
            ingest_report=drained["report"],
        )
        p50_ms = percentile(latencies, 0.5) * 1000
        # Reported, not gated: on a shared 2-CPU VM its spread across
        # seeds (IQR/median 0.35) exceeds 0.25, the largest bound
        # BENCHMARK.json may set.
        self.details["suggest_p90_ms"] = percentile(latencies, 0.9) * 1000
        if self.trace:
            return self.layer_metrics(opened + capacity, dump, drained, p50_ms)
        return {
            "setup_s": statistics.median(setups),
            "suggest_p50_ms": p50_ms,
            "suggest_capacity_qps": self.capacity_qps(capacity),
            "epoch_lag_p50_s": statistics.median(lags) if lags else 0.0,
            "server_pss_mb": pss,
        }

    def capacity_qps(self, outcomes: list) -> float:
        """Correct answers under the latency limit per second.

        The median rate over consecutive blocks of ``CAPACITY_BLOCK``
        such answers (a block's span includes the misses inside it), so a
        short stall — a neighbour's burst on a shared machine — moves one
        block rather than the figure.
        """
        marks = [self.capacity_start] + sorted(
            o.received for o in outcomes
            if o.ok and o.latency < CAPACITY_LIMIT_S
        )
        rates = [
            CAPACITY_BLOCK / (marks[i + CAPACITY_BLOCK] - marks[i])
            for i in range(0, len(marks) - CAPACITY_BLOCK, CAPACITY_BLOCK)
        ]
        return statistics.median(rates) if rates else 0.0

    # -- checks ------------------------------------------------------------------

    def check_feed(self, drained: dict) -> None:
        """Fed records count as operations; invisible ones as failed."""
        visible = drained["records"] - self.split.bootstrap_records
        self.attempted += len(self.fed_lines)
        self.fail("records_not_visible", len(self.fed_lines) - visible)

    def reference(self):
        """The single-process suggester the answers must match.

        Built here over the bootstrap plus everything fed (the state that
        ``live_ingest``'s capacity phase reads; the read workloads' checked
        answers all precede their write probe).  Signed-in reads rank
        with the server's own generation-0 profile arrays, so the check
        covers serving them, not fitting them.
        """
        import pickle
        from dataclasses import replace

        from repro.core import PQSDA
        from repro.logs.aol import parse_aol_line, read_aol
        from repro.logs.storage import QueryLog
        from repro.personalize.profiles import ArrayProfileStore
        from server import serving_config

        records = list(read_aol(self.split.bootstrap_path).records)
        if self.workload.live_feed:
            records += [parse_aol_line(line) for line in self.fed_lines]
        config = serving_config()
        graph = PQSDA.build(
            QueryLog(records), config=replace(config, personalize=False)
        )
        profiles = None
        if self.workload.reads == "tail":
            with open(self.profiles_path, "rb") as handle:
                profiles = ArrayProfileStore(pickle.load(handle))
        return PQSDA(graph.representation, graph.expander, profiles, config)

    def check(self, outcomes: list, reference) -> None:
        """Mark each outcome ``ok``; count failures (*reference* None:
        status, shed tier and shape only)."""
        expected: dict = {}
        for outcome in outcomes:
            self.attempted += 1
            outcome.ok = False
            if outcome.status != 200:
                self.fail(f"status_{outcome.status}")
                continue
            try:
                body = json.loads(outcome.body)
                tier, suggestions = body["shed_tier"], body["suggestions"]
            except (ValueError, TypeError, KeyError):
                self.fail("malformed")
                continue
            if tier != 0:
                self.fail("shed")
            elif not isinstance(suggestions, list) or len(suggestions) > 10:
                self.fail("malformed")
            elif reference is None:
                outcome.ok = True
            else:
                key = (outcome.request.query, outcome.request.user)
                if key not in expected:
                    expected[key] = reference.suggest(
                        key[0], k=10, user_id=key[1]
                    )
                outcome.ok = suggestions == expected[key]
                if not outcome.ok:
                    self.fail("mismatch")

    def epoch_lags(self, epochs: list[dict]) -> list[float]:
        """Per full-batch epoch: swap acked minus its last record's due."""
        return [
            epoch["t"] - self.dues[epoch["pulled"] - 1]
            for epoch in epochs
            if not epoch["ended"] and epoch["pulled"] > 0
        ]

    def layer_metrics(self, outcomes, dump, drained, p50_ms) -> dict:
        from layers import per_layer, write_path_seconds
        from repro.utils.text import normalize_query

        before, after = self.marks["before"], self.marks["after"]
        metrics = per_layer(
            spans=dump["spans"],
            window=(before["t"], after["t"]),
            ingest_started=self.ingest_started,
            outcomes=outcomes,
            metrics_before=before["metrics"],
            metrics_after=after["metrics"],
            cpu={k: after[k] - before[k] for k in ("parent", "workers")},
            pulls=dump["pulls"],
            dues=self.dues,
            hot_queries=set(self.split.hot_queries),
            profiled_users=set(self.split.profiled_users),
            normalize=normalize_query,
            n_workers=len(self.server.ready["workers"]),
            traced_p50_ms=p50_ms,
        )
        report = drained["report"]
        timed = report["fold_seconds"] + report["publish_seconds"]
        traced = write_path_seconds(dump["spans"], self.ingest_started)
        self.details["write_path_traced_over_report"] = (
            traced / timed if timed else None
        )
        return metrics

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny log, for the harness self-test")
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so every server tree is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from procs import cpu_times

    steal_before = cpu_times()
    run = Run(args)
    try:
        values = run.execute()
    finally:
        run.close()
    steal_after = cpu_times()
    failed = sum(run.failures.values())
    run.details.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        scale=args.scale,
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        failures=run.failures,
        # Share of the machine's CPU time taken by its hypervisor.
        cpu_steal_share=(steal_after[0] - steal_before[0])
        / max(1, steal_after[1] - steal_before[1]),
        **source_stamp(),
    )
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"details": run.details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, run.attempted),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
