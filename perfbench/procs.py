"""The server process tree: start, readiness, /proc readings, shutdown.

Linux-only by design: PSS comes from ``/proc/<pid>/smaps_rollup``, CPU
time from ``/proc/<pid>/stat`` and leaked segments from ``/dev/shm``.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Longest a server may take from process start to the first 200.
READY_TIMEOUT = 150.0
#: Longest a server may take to exit after SIGINT.
EXIT_TIMEOUT = 60.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesized command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


def descendants(pid: int) -> list[int]:
    """Every live descendant of *pid* (workers, resource tracker, ...)."""
    result, frontier = [], [pid]
    while frontier:
        children = _children(frontier.pop())
        result.extend(children)
        frontier.extend(children)
    return result


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of *pid* (all its threads)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def cpu_times() -> tuple[int, int]:
    """Machine-wide ``(steal, total)`` CPU ticks from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as handle:
        ticks = [int(v) for v in handle.readline().split()[1:]]
    return ticks[7], sum(ticks)


def pss_mb(pids: list[int]) -> float:
    """Summed proportional set size of *pids*, in MB (10^6 bytes)."""
    total_kib = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    total_kib += int(line.split()[1])
                    break
    return total_kib * 1024 / 1e6


def leaked_segments(prefix: str) -> list[str]:
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))


class Server:
    """One server process (``perfbench/server.py``) and its event stream."""

    def __init__(
        self,
        root: Path,
        bootstrap: Path,
        feed: Path,
        prefix: str,
        trace: bool,
        log_path: Path,
    ) -> None:
        self.prefix = prefix
        self.port = free_port()
        self.events: queue.Queue = queue.Queue()
        self._log_path = log_path
        self._log = open(log_path, "wb")
        self._finished = False
        command = [
            sys.executable, str(root / "perfbench" / "server.py"),
            "--bootstrap", str(bootstrap), "--feed", str(feed),
            "--port", str(self.port), "--prefix", prefix,
        ]
        if trace:
            command.append("--trace")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        self.pid = self.process.pid
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.ready_at = self._await_health()
            self.ready = self.wait("ready", timeout=30.0)
        except BaseException:
            self.release()
            raise

    def _read(self) -> None:
        for raw in self.process.stdout:
            if raw.startswith(b"PERFBENCH "):
                self.events.put(json.loads(raw[len(b"PERFBENCH "):]))
        self.events.put({"event": "eof"})

    def _await_health(self) -> float:
        deadline = self.started + READY_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} before "
                    f"it was healthy:\n{self.log_text()[-3000:]}"
                )
            try:
                connection = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=2.0
                )
                try:
                    connection.request("GET", "/healthz")
                    if connection.getresponse().status == 200:
                        return time.monotonic()
                finally:
                    connection.close()
            except OSError:
                pass
            time.sleep(0.02)
        raise TimeoutError(f"server not healthy within {READY_TIMEOUT:.0f}s")

    @property
    def setup_seconds(self) -> float:
        return self.ready_at - self.started

    def wait(self, name: str, timeout: float) -> dict:
        """The next event named *name*; raises on an error event or EOF."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no {name!r} event within {timeout:.0f}s")
            try:
                event = self.events.get(timeout=remaining)
            except queue.Empty:
                continue
            if event["event"] == name:
                return event
            if event["event"] in ("error", "eof"):
                raise RuntimeError(f"server {event['event']}: {event}")

    def command(self, line: str, reply: str | None = None,
                timeout: float = 60.0) -> dict | None:
        self.process.stdin.write((line + "\n").encode())
        self.process.stdin.flush()
        return self.wait(reply, timeout) if reply is not None else None

    def tree(self) -> list[int]:
        return [self.pid, *descendants(self.pid)]

    def stop(self) -> dict:
        """SIGINT, wait for exit; report exit code and leftovers."""
        tree = self.tree()
        try:
            self.process.send_signal(signal.SIGINT)
            self.process.wait(timeout=EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(_alive(p) for p in tree[1:]):
            time.sleep(0.05)
        survivors = [p for p in tree if _alive(p)]
        report = {
            "exit_code": self.process.poll(),
            "surviving_processes": len(survivors),
            "leaked_segments": leaked_segments(self.prefix),
        }
        self.release(survivors)
        # The resource tracker unlinks segments its owner leaked and says
        # so on stderr; such a segment leaked all the same.
        if "leaked shared_memory" in self.log_text():
            report["leaked_segments"].append("reported by resource_tracker")
        return report

    def log_text(self) -> str:
        return self._log_path.read_text(encoding="utf-8", errors="replace")

    def release(self, pids: list[int] | None = None) -> None:
        """SIGKILL *pids* (default: the whole tree), then close the pipes
        and the log and unlink any segment left with the run's prefix."""
        if self._finished:
            return
        self._finished = True
        for pid in pids if pids is not None else self.tree():
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        self._reader.join(timeout=10.0)
        if self.process.stdin is not None:
            try:
                self.process.stdin.close()
            except OSError:
                pass
        self._log.close()
        for name in leaked_segments(self.prefix):
            try:
                os.unlink(f"/dev/shm/{name}")
            except OSError:
                pass

    @staticmethod
    def clean(report: dict) -> bool:
        return (
            report["exit_code"] == 0
            and report["surviving_processes"] == 0
            and not report["leaked_segments"]
        )
