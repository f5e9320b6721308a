"""One benchmark run: set up, load, check, and compute the metrics.

Untraced run (``trace=False``): ``ROUNDS`` open-loop slices give the
latency percentiles, the closed-loop slices between them
``capacity_rps``, and a final full ``POST /v1/verify`` gives
``verify_s``.  Traced run: an untraced open-loop half, then the same
load with the layers wrapped; the traced half gives the per-layer
metrics and the pair gives the tracing overhead.  Either run fails, and reports no numbers, if any answer was
wrong, the verify or the service chain failed, or the service audited
another number of requests than the generator sent.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

from repro.util.encoding import canonical_bytes

from perfbench import loadgen
from perfbench.corpus import AUDITOR, Scheduler, build_corpus
from perfbench.layers import layer_metrics
from perfbench.stats import summarize
from perfbench.wire import Checker, Connection, login_all
from perfbench.workloads import CONNECTIONS, OPEN_SHARE, ROUNDS, SETUPS, WORKLOADS

OP_KINDS = ("read", "write", "search", "recall")
UNITS = {
    "setup_s": "s",
    "capacity_rps": "1/s",
    "ok_share": "ratio",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "stored_bytes_per_user_byte": "ratio",
    **{f"{kind}_p{q}_ms": "ms" for kind in OP_KINDS for q in ("50", "90", "99")},
}

SERVER_TIMEOUT_S = 170.0


def host_stamp() -> dict:
    """What a result must share with another before they are compared."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cores = os.cpu_count() or 1
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": find_spec("numpy") is not None,
        "platform": platform.platform(),
    }


class ServerProcess:
    """The server in its own process, driven over stdin/stdout lines."""

    def __init__(
        self, root: Path, workload: str, seed: int, spans: Path, cpu: int | None
    ) -> None:
        pin = [] if cpu is None else ["--cpu", str(cpu)]
        self._proc = subprocess.Popen(
            [
                sys.executable,
                str(root / "perfbench" / "server.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--spans", str(spans),
                *pin,
            ],
            cwd=root,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def read(self, timeout: float = SERVER_TIMEOUT_S) -> dict:
        ready, _, _ = select.select([self._proc.stdout], [], [], timeout)
        line = self._proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"server gave no answer (exit code {self._proc.poll()})"
            )
        return json.loads(line)

    def command(self, cmd: str, **fields) -> dict:
        self._proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self._proc.stdin.flush()
        return self.read()

    def stop(self) -> None:
        """Stop the server and wait until its process has ended."""
        try:
            if self._proc.poll() is None:
                self._proc.stdin.write(json.dumps({"cmd": "stop"}) + "\n")
                self._proc.stdin.close()
                self._proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
            self._proc.wait()
            self._proc.stdout.close()


def split_cpus() -> tuple[int | None, set[int] | None]:
    """With two or more CPUs, the server gets the first to itself and
    the load generator the rest, so neither steals the other's core."""
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], set(cpus[1:])


def start_server(root: Path, workload: str, seed: int, spans: Path, cpu: int | None):
    """Spawn a server; returns it, its port, tokens, the login
    connection, and the set-up time (spawn until every session is
    logged in)."""
    began = time.perf_counter()
    server = ServerProcess(root, workload, seed, spans, cpu)
    try:
        ready = server.read()
        conn = Connection("127.0.0.1", ready["port"])
        tokens = login_all(conn, ready["secrets"])
    except BaseException:
        server.stop()
        raise
    return server, ready["port"], tokens, conn, time.perf_counter() - began


def _latencies_ms(samples, kind: str) -> list[float]:
    return [s.latency * 1e3 for s in samples if s.kind == kind]


def run(root: Path, workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    corpus = build_corpus(workload, seed)
    out_dir = root / ".perfbench"
    spans_path = out_dir / "spans" / f"{workload_name}-s{seed}.jsonl"
    host = host_stamp()  # before pinning narrows this process to fewer cores
    connections = max(1, min(CONNECTIONS, host["nproc"]))
    server_cpu, client_cpus = split_cpus()
    if client_cpus:
        os.sched_setaffinity(0, client_cpus)

    setups = []
    for attempt in range(SETUPS):
        server, port, tokens, login_conn, setup_s = start_server(
            root, workload_name, seed, spans_path, server_cpu
        )
        setups.append(setup_s)
        if attempt < SETUPS - 1:
            login_conn.close()
            server.stop()

    result: dict = {"workload": workload_name, "seed": seed, "seconds": seconds,
                    "trace": trace, "host": host, "problems": []}
    problems = result["problems"]
    conns = [Connection("127.0.0.1", port) for _ in range(connections)]
    # The generator must not stall on its own garbage collection: park
    # the corpus and schedule outside the collector, pause it under load.
    gc.freeze()
    gc.disable()
    try:
        checker = Checker(corpus, tokens)
        workers = [checker.worker(conn) for conn in conns]
        scheduler = Scheduler(corpus, run_tag=f"s{seed}")
        if not trace:
            open_count = round(workload.open_rate * seconds * OPEN_SHARE / ROUNDS)
            slices = [
                (scheduler.phase(open_count), scheduler.phase(workload.closed_ops // ROUNDS))
                for _ in range(ROUNDS)
            ]
            open_samples, closed_samples, closed_s = [], [], 0.0
            for open_ops, closed_ops in slices:
                open_samples += loadgen.open_loop(open_ops, workload.open_rate, workers)
                samples, elapsed = loadgen.closed_loop(closed_ops, workers)
                closed_samples += samples
                closed_s += elapsed
            measured = open_samples + closed_samples
        else:
            half = round(workload.open_rate * seconds / 2)
            untraced_ops, traced_ops = scheduler.phase(half), scheduler.phase(half)
            open_samples = loadgen.open_loop(untraced_ops, workload.open_rate, workers)
            server.command("trace", on=True)
            traced_samples = loadgen.open_loop(traced_ops, workload.open_rate, workers)
            traced = server.command("trace", on=False)
            measured = open_samples + traced_samples

        began = time.perf_counter()
        status, verdict = conns[0].call(
            "POST", "/v1/verify", {"incremental": False}, tokens[AUDITOR]
        )
        verify_s = time.perf_counter() - began
        gc.enable()
        # hang up first, so no connection handler is still open when it stops
        for conn in conns + [login_conn]:
            conn.close()
        report = server.command("report")
    finally:
        gc.enable()
        for conn in conns + [login_conn]:
            conn.close()
        server.stop()

    # -- checks ---------------------------------------------------------------
    problems.extend(checker.incorrect[:20])
    if status != 200 or not verdict.get("ok") or verdict.get("violations"):
        problems.append(f"full verify failed: {status} {verdict}")
    if not report["service_chain_ok"]:
        problems.append(f"service audit chain: {report['service_chain_error']}")
    sent = login_conn.sent + sum(conn.sent for conn in conns)
    if report["wire_events"] != sent:
        problems.append(
            f"service audited {report['wire_events']} requests; {sent} were sent"
        )

    failed = [s for s in measured if not s.ok]
    result["attempted"] = len(measured)
    result["failed"] = len(failed)
    result["failures"] = sorted({s.error for s in failed})[:10]
    result["generator"] = loadgen.generator_validity(open_samples, connections)
    result["samples"] = {
        kind: summarize(_latencies_ms(open_samples, kind)) for kind in OP_KINDS
    }
    result["setups_s"] = setups
    result["shard_audit_events"] = report["shard_audit_events"]
    result["device_capacity"] = report["devices"][0][2]

    metrics: dict = {}
    if not trace:
        # every percentile the open-loop samples support, per op kind
        for kind, summary in result["samples"].items():
            for q in ("p50", "p90", "p99"):
                if q in summary:
                    metrics[f"{kind}_{q}_ms"] = (summary[q], summary["n"])
        ok_closed = sum(1 for s in closed_samples if s.ok)
        user_bytes = corpus.user_bytes() + _canonical_size(checker.acked_writes)
        stored = sum(used for _id, used, _cap in report["devices"])
        metrics.update(
            setup_s=(statistics.median(setups), len(setups)),
            capacity_rps=(ok_closed / closed_s, len(closed_samples)),
            ok_share=((len(measured) - len(failed)) / len(measured), len(measured)),
            verify_s=(verify_s, 1),
            peak_rss_mb=(report["peak_rss_mb"], 1),
            stored_bytes_per_user_byte=(stored / user_bytes, 1),
        )
        result["metrics"] = {
            name: {"value": value, "unit": UNITS[name], "n": n}
            for name, (value, n) in metrics.items()
        }
    else:
        result["metrics"] = layer_metrics(
            traced, open_samples, traced_samples, result["generator"]
        )
    result["correct"] = not problems
    return result


def _canonical_size(records: list[dict]) -> int:
    return sum(len(canonical_bytes(record)) for record in records)
