"""Load generation within the core budget, the HTTP client and the served process.

The generator uses at most two threads and two connections (``nproc`` on
the reference box). Open loops time each request from when it was due;
closed loops from when it was sent. Each record keeps ``due``, ``sent``
and ``done`` so the report can tell the generator's own lateness
(``loadgen.late_ms``) from the program's latency.
"""

from __future__ import annotations

import heapq
import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlencode

from perfbench.inputs import SRC

#: The deployment ``docs/OPERATIONS.md`` documents for distinct traffic.
SERVE_FLAGS = ("--executor", "process", "--workers", "2", "--max-batch", "16",
               "--batch-window-ms", "5")
#: ``repro serve`` defaults the engine config of an in-process server must match.
SERVE_SEED = 11
CACHE_SIZE = 256


@dataclass
class Record:
    """One request: when it was due, sent and answered, and what came back."""

    item: object
    due: float
    sent: float
    done: float
    result: object
    #: When a connection became free for it, if later than ``due``: an
    #: open loop with every connection busy sends late through no fault
    #: of the generator.
    ready: float = 0.0

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        """The generator's own delay in sending."""
        return self.sent - max(self.due, self.ready)


def scheduled(schedule, call, senders: int, start: float) -> "list[Record]":
    """Open loop: send ``item`` at ``start + due_s`` for each ``(due_s, item)``.

    ``senders`` threads (the caller's included) take requests in schedule
    order; a request whose senders are all busy goes out late, and its
    latency still counts from the due time.
    """
    records: "list[Record | None]" = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            ready = time.perf_counter()
            if index is None:
                return
            due_s, item = schedule[index]
            due = start + due_s
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            result = call(item)
            records[index] = Record(item, due, sent, time.perf_counter(), result, ready)

    helpers = [threading.Thread(target=sender) for _ in range(senders - 1)]
    for thread in helpers:
        thread.start()
    sender()
    for thread in helpers:
        thread.join()
    return records


def closed_loop(items, call, start: float, seconds: float) -> "list[Record]":
    """One outstanding request at a time until ``seconds`` have passed."""
    records, end, due = [], start + seconds, start
    for item in items:
        sent = time.perf_counter()
        if sent >= end:
            break
        result = call(item)
        done = time.perf_counter()
        records.append(Record(item, due, sent, done, result))
        due = done
    else:
        raise RuntimeError("closed loop ran out of inputs before its window ended")
    return records


def closed_loop_futures(items, submit, finish, outstanding: int, start: float,
                        seconds: float, ramp: float = 0.0, on_send=None) -> "list[Record]":
    """Keep ``outstanding`` futures in flight from this one thread for ``seconds``.

    The ``outstanding`` clients start ``ramp`` seconds apart; after that a
    request is due when the one whose slot it takes completed.
    ``submit(item)`` returns a ``concurrent.futures.Future``; a record's
    ``result`` is ``finish(future)``, taken when it completes so that the
    future is dropped. ``on_send(inflight)`` observes the in-flight count
    after every send (the bound is checked by the self-tests).
    """
    completions: "queue.SimpleQueue[tuple[int, float]]" = queue.SimpleQueue()
    futures: dict = {}
    records: "list[Record]" = []
    end = start + seconds
    free_slots = [start + client * ramp for client in range(outstanding)]
    inflight = 0
    items = iter(items)
    while True:
        now = time.perf_counter()
        if free_slots and free_slots[0] <= now < end:
            item = next(items, None)
            if item is None:
                raise RuntimeError("closed loop ran out of inputs before its window ended")
            index = len(records)
            records.append(Record(item, heapq.heappop(free_slots), now, 0.0, None))
            futures[index] = future = submit(item)
            inflight += 1
            if on_send is not None:
                on_send(inflight)
            future.add_done_callback(
                lambda _f, i=index: completions.put((i, time.perf_counter()))
            )
            continue
        waiting = free_slots and now < end
        if inflight == 0 and not waiting:
            return records
        try:
            index, done = completions.get(
                timeout=max(0.0, free_slots[0] - now) if waiting else 300
            )
        except queue.Empty:
            if waiting:
                continue
            raise
        records[index].done = done
        records[index].result = finish(futures.pop(index))
        inflight -= 1
        heapq.heappush(free_slots, done)


class Http:
    """A client of the service's HTTP API (one TCP connection per request:
    the stdlib server speaks HTTP/1.0)."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.host, self.port = host, port

    def call(self, method: str, path: str, body: "bytes | None" = None):
        """``(status, decoded JSON body)`` of one request."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def search(self, query, context_size: int):
        """``GET /v1/search`` for one entity set."""
        params = [("query", name) for name in query] + [("context_size", context_size)]
        return self.call("GET", "/v1/search?" + urlencode(params))


class ServedProcess:
    """``repro serve --snapshot-dir`` as a subprocess, with its output in a log file."""

    def __init__(self, registry: Path, log: Path, context_size: int) -> None:
        self.log = log
        self.argv = [
            sys.executable, "-m", "repro", "serve", "--snapshot-dir", str(registry),
            "--port", "0", "--context-size", str(context_size), *SERVE_FLAGS,
        ]
        self.process: "subprocess.Popen | None" = None

    def start(self, timeout: float = 120.0) -> int:
        """Launch and return the bound port once the server says it is listening."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.log, "wb") as sink:
            self.process = subprocess.Popen(
                self.argv, stdout=sink, stderr=subprocess.STDOUT, env=env
            )
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            for line in self.log.read_text(errors="replace").splitlines():
                if line.startswith("listening on http://"):
                    return int(line.split()[2].rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        reap(self.stop())
        raise RuntimeError(f"server did not start; log:\n{self.log.read_text()}")

    def stop(self, timeout: float = 30.0) -> "list[int]":
        """SIGTERM (the server drains and reaps its workers); returns the pids
        of its other descendants, which exit on their own and are left to :func:`reap`."""
        if self.process is None:
            return []
        pids = process_tree(self.process.pid)
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process = None
        return pids[1:]


def process_tree(pid: int) -> "list[int]":
    """``pid`` and all its live descendants."""
    out, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        out.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except FileNotFoundError:
            continue
        for task in tasks:
            try:
                frontier += map(int, Path(f"/proc/{current}/task/{task}/children").read_text().split())
            except FileNotFoundError:
                pass
    return out


def _running(pid: int) -> bool:
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def reap(pids, timeout: float = 10.0) -> None:
    """Wait for ``pids`` (not our children) to exit; SIGKILL stragglers and
    wait for them too."""
    deadline = time.perf_counter() + timeout
    for pid in pids:
        while _running(pid) and time.perf_counter() < deadline:
            time.sleep(0.02)
        if _running(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            while _running(pid):
                time.sleep(0.02)


#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the parent of descendants whose own parent exits (Linux), so
    that :func:`stop_descendants` also waits for a stopped server's workers
    and for helpers of short-lived children."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_descendants(timeout: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Other descendants get SIGTERM, then SIGKILL after ``timeout``. The
    ``multiprocessing`` resource tracker, which ignores SIGTERM and would
    otherwise outlive this process by a moment, is stopped last, once no
    worker holds its pipe.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    deadline = time.perf_counter() + timeout
    while True:
        live = [pid for pid in process_tree(os.getpid())[1:]
                if _running(pid) and pid != tracker_pid]
        if not live:
            break
        for pid in live:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        reap(live, max(0.0, deadline - time.perf_counter()))
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    elif tracker_pid is not None:
        os.kill(tracker_pid, signal.SIGKILL)
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break


def rss_mb(pid: int) -> float:
    """Summed resident set of ``pid`` and its descendants, in MB."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            for line in Path(f"/proc/{member}/status").read_text().splitlines():
                if line.startswith("VmRSS:"):
                    total_kb += int(line.split()[1])
        except FileNotFoundError:
            pass
    return total_kb / 1024.0
