"""Seeded inputs of the benchmark, generated before any timing starts.

One synthetic AOL log per ``(scale, seed)``: generated, written as TSV,
read back and cleaned wholesale (exactly what ``repro serve`` does to its
input), then split in half by time.  The first half is the bootstrap TSV
the server builds from; the second half is the feed the ``live_ingest``
workload (and every workload's write probe) appends to the tailed TSV.
The pair is cached under ``.perfbench/cache`` in the checkout, so runs
that share a seed generate it once.

Read schedules (which query, which user, in what order) are cheap and are
drawn per run by :func:`read_schedule` from the same seed.
"""

from __future__ import annotations

import os
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote

#: Scales: ``full`` is the 800-user scale of the committed ingest bench;
#: ``smoke`` is the seconds-long self-test scale.
USERS = {"full": 800, "smoke": 40}

#: Version of the cached file layout; bump when generation changes.
CACHE_VERSION = 1


@dataclass(frozen=True)
class LogSplit:
    """The bootstrap TSV plus the feed lines, and what schedules need."""

    bootstrap_path: Path
    bootstrap_records: int
    feed_lines: list[str]
    query_counts: dict[str, int]
    profiled_users: list[str]
    hot_queries: list[str]


def _generate(users: int, seed: int, directory: Path) -> None:
    from repro.logs.aol import read_aol, write_aol
    from repro.logs.cleaning import clean_log
    from repro.logs.storage import QueryLog
    from repro.synth.generator import GeneratorConfig, generate_log
    from repro.synth.world import make_world

    world = make_world(seed=0, pages_per_leaf=24)
    log = generate_log(
        world,
        GeneratorConfig(
            n_users=users,
            mean_sessions_per_user=12,
            click_probability=0.55,
            noise_click_probability=0.12,
            hub_click_probability=0.15,
            seed=seed,
        ),
    ).log
    raw = directory / "raw.tsv"
    write_aol(log, raw)
    cleaned, _ = clean_log(read_aol(raw))
    raw.unlink()
    records = sorted(cleaned.records, key=lambda r: (r.timestamp, r.record_id))
    # Split at the middle, moved forward past any timestamp tie, so every
    # bootstrap record strictly precedes every fed record: the stream and
    # the batch reference then see one unambiguous order.
    split = len(records) // 2
    while 0 < split < len(records) and (
        records[split].timestamp == records[split - 1].timestamp
    ):
        split += 1
    write_aol(QueryLog(records[:split]), directory / "bootstrap.tsv")
    write_aol(QueryLog(records[split:]), directory / "feed.tsv")


def load_split(root: Path, scale: str, seed: int) -> LogSplit:
    """The cached log split for *(scale, seed)*, generating it if absent."""
    from repro.core.suggester import head_queries
    from repro.logs.aol import read_aol
    from repro.utils.text import tokenize

    directory = root / ".perfbench" / "cache" / f"v{CACHE_VERSION}-{scale}-{seed}"
    if not (directory / "bootstrap.tsv").is_file():
        staging = directory.with_name(directory.name + f".tmp{os.getpid()}")
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        _generate(USERS[scale], seed, staging)
        shutil.rmtree(directory, ignore_errors=True)
        staging.rename(directory)
    bootstrap = read_aol(directory / "bootstrap.tsv")
    with open(directory / "feed.tsv", encoding="utf-8") as handle:
        feed_lines = [line for line in handle if not line.startswith("AnonID")]
    counts = Counter(record.query for record in bootstrap)
    # The UPM corpus keeps a user once any of their sessions has a topical
    # term, so these are the users the server's profile plane serves.
    profiled = sorted({r.user_id for r in bootstrap if tokenize(r.query)})
    return LogSplit(
        bootstrap_path=directory / "bootstrap.tsv",
        bootstrap_records=len(bootstrap),
        feed_lines=feed_lines,
        query_counts=dict(counts),
        profiled_users=profiled,
        hot_queries=head_queries(bootstrap, 20),
    )


@dataclass(frozen=True)
class Request:
    """One scheduled ``/suggest`` GET."""

    query: str
    user: str | None

    @property
    def target(self) -> str:
        target = f"/suggest?q={quote(self.query)}&k=10"
        if self.user is not None:
            target += f"&user={quote(self.user)}"
        return target


def read_schedule(
    split: LogSplit, kind: str, seed: int, stream: str, n: int
) -> list[Request]:
    """*n* requests of read mix *kind*, drawn from *seed* and *stream*.

    ``head``: anonymous, queries drawn by bootstrap frequency.
    ``tail``: signed in as a profiled user, queries drawn uniformly over
    the distinct bootstrap queries.
    """
    rng = random.Random(f"{seed}/{kind}/{stream}")
    queries = sorted(split.query_counts)
    if kind == "head":
        weights = [split.query_counts[q] for q in queries]
        return [Request(q, None) for q in rng.choices(queries, weights, k=n)]
    if kind == "tail":
        users = split.profiled_users
        return [
            Request(rng.choice(queries), rng.choice(users)) for _ in range(n)
        ]
    raise ValueError(f"unknown read mix {kind!r}")

