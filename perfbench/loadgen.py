"""Open- and closed-loop load over a fixed number of connections.

Each connection is one thread with one ``worker`` callable that sends
an op and returns ``(ok, error)``.  The phases only schedule and time;
what a request is and how its answer is checked belongs to the worker,
so the tests drive these loops against fake servers.

Open loop: op ``i`` is due at ``start + i / rate`` whatever happened
before.  Its latency runs from when it was due, so a stall also counts
against every request queued behind it.  A request whose connection
was free when it came due (``idle``) measures the generator itself:
its due-to-send lag is how late the generator woke up.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from perfbench.stats import summarize

#: An idle-connection wake-up later than this at p99 means the
#: generator, not the server, fell behind.
GENERATOR_LAG_LIMIT_S = 0.005

Worker = Callable[[object], "tuple[bool, str]"]


@dataclass(frozen=True)
class Sample:
    kind: str
    due: float
    sent: float
    done: float
    ok: bool
    idle: bool
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


def _run_threads(workers: Sequence[Worker], body) -> None:
    errors: list[BaseException] = []

    def guarded(worker: Worker) -> None:
        try:
            body(worker)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(worker,), name=f"load-{i}")
        for i, worker in enumerate(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _send(worker: Worker, op) -> tuple[bool, str]:
    try:
        return worker(op)
    except Exception as exc:  # a transport error is a failed request
        return False, f"{type(exc).__name__}: {exc}"


def open_loop(
    ops: Sequence,
    rate: float,
    workers: Sequence[Worker],
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    lead_s: float = 0.05,
) -> list[Sample]:
    """Offer ``ops`` at ``rate`` per second over ``len(workers)`` connections."""
    samples: list[Sample] = []
    lock = threading.Lock()
    cursor = [0]
    start = clock() + lead_s

    def body(worker: Worker) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(ops):
                return
            due = start + index / rate
            now = clock()
            idle = now < due
            if idle:
                sleep(due - now)
            sent = clock()
            ok, error = _send(worker, ops[index])
            done = clock()
            samples.append(
                Sample(ops[index].kind, due, sent, done, ok, idle, error)
            )

    _run_threads(workers, body)
    return samples


def closed_loop(
    ops: Sequence,
    workers: Sequence[Worker],
    *,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[list[Sample], float]:
    """Send ``ops`` back to back over every connection; returns the
    samples and the phase's wall time."""
    samples: list[Sample] = []
    lock = threading.Lock()
    cursor = [0]
    start = clock()

    def body(worker: Worker) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(ops):
                return
            sent = clock()
            ok, error = _send(worker, ops[index])
            done = clock()
            samples.append(Sample(ops[index].kind, sent, sent, done, ok, False, error))

    _run_threads(workers, body)
    return samples, clock() - start


def generator_validity(samples: Sequence[Sample], connections: int) -> dict:
    """How late the open-loop generator ran, and whether it fell behind."""
    lags = [s.lag for s in samples]
    idle_lags = [s.lag for s in samples if s.idle]
    lag = summarize(lags)
    idle = summarize(idle_lags)
    idle_p99 = idle.get("p99", max(idle_lags, default=0.0))
    return {
        "connections": connections,
        "threads": connections,
        "lag_n": lag["n"],
        "lag_p99_ms": lag.get("p99", max(lags, default=0.0)) * 1e3,
        "idle_lag_n": idle["n"],
        "idle_lag_p99_ms": idle_p99 * 1e3,
        "generator_behind": idle_p99 > GENERATOR_LAG_LIMIT_S,
    }
