"""The benchmark's server process.

Builds one workload's cluster through the public API, serves it with
:class:`ServiceServer` on a loopback port (default admission settings),
and answers the benchmark's control commands, one JSON object per line
on stdin, with one JSON line each on stdout:

* ``{"cmd": "trace", "on": true}`` wraps the layers' entry points and
  snapshots counters; ``"on": false`` unwraps them and replies with the
  span analysis and the counter and device deltas of the traced window;
* ``{"cmd": "report"}`` replies with the post-run checks and sizes;
* ``{"cmd": "stop"}`` drains the server and exits (so does end of input).

Run by ``perfbench/run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from repro.access.principals import Role, User  # noqa: E402
from repro.audit.events import AuditAction  # noqa: E402
from repro.cluster import CuratorCluster  # noqa: E402
from repro.core.config import CuratorConfig  # noqa: E402
from repro.errors import CuratorError  # noqa: E402
from repro.service import ServiceConfig, ServiceServer  # noqa: E402
from repro.service.service import CuratorService  # noqa: E402
from repro.util.clock import WallClock  # noqa: E402
from repro.util.metrics import METRICS  # noqa: E402

from perfbench.corpus import AUDITOR, INTAKE_AUTHOR, build_corpus  # noqa: E402
from perfbench.tracing import Tracer, analyze  # noqa: E402
from perfbench.workloads import DEVICE_CAPACITY, WORKLOADS  # noqa: E402

MASTER_KEY = bytes(range(32))


def _emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def build(workload, seed: int):
    """The cluster and service of one workload, ready to serve."""
    corpus = build_corpus(workload, seed)
    config = CuratorConfig(
        master_key=MASTER_KEY,
        clock=WallClock(),
        device_capacity=DEVICE_CAPACITY,
        cold_device_capacity=DEVICE_CAPACITY,
    )
    cluster = CuratorCluster(config, shards=workload.shards)
    service = CuratorService(cluster, ServiceConfig(port=0))
    secrets = {}
    for user_id, panel in corpus.clinicians:
        user = User.make(
            user_id, f"Clinician {user_id}", [Role.PHYSICIAN], "medicine",
            treating=set(panel),
        )
        secrets[user_id] = service.enroll(user).hex()
    auditor = User.make(AUDITOR, "Privacy officer", [Role.PRIVACY_OFFICER], "compliance")
    secrets[AUDITOR] = service.enroll(auditor).hex()
    cluster.store_many(corpus.records, author_id=INTAKE_AUTHOR)
    cluster.demote_records(corpus.cold_ids)
    if workload.hot_per_clinician:
        # fill every shard's read cache with the hot set
        for record_id in corpus.read_ids:
            cluster.read(record_id, actor_id=corpus.actor_for(record_id))
    if workload.grow_audit_to:
        # access history: reads of a small cached set until every
        # shard's audit log holds the target number of events
        growth = corpus.growth_ids
        reads = 0
        while min(len(engine.audit_log) for engine in cluster.shards) < workload.grow_audit_to:
            record_id = growth[reads % len(growth)]
            cluster.read(record_id, actor_id=corpus.actor_for(record_id))
            reads += 1
    return cluster, service, secrets


def _counters(cluster) -> dict:
    return {
        "metrics": METRICS.snapshot(),
        "devices": [[d.device_id, d.used, d.capacity] for d in cluster.devices()],
        "audit_devices": sum(d.used for d in cluster.audit_devices()),
        "audit_events": sum(len(engine.audit_log) for engine in cluster.shards),
    }


def _delta(before: dict, after: dict) -> dict:
    metrics = {
        name: value - before["metrics"].get(name, 0)
        for name, value in after["metrics"].items()
        if value != before["metrics"].get(name, 0)
    }
    return {
        "metrics": metrics,
        "device_bytes": _device_deltas(before["devices"], after["devices"]),
        "devices": after["devices"],
        "audit_device_bytes": after["audit_devices"] - before["audit_devices"],
        "audit_events": after["audit_events"] - before["audit_events"],
    }


def _device_deltas(before: list, after: list) -> dict:
    """Bytes allocated per device kind over the window, summed over shards."""
    deltas: dict[str, int] = {}
    for (device_id, used, _cap), (_id, old, _c) in zip(after, before):
        deltas[device_id] = deltas.get(device_id, 0) + used - old
    return deltas


def _report(cluster, service) -> dict:
    events = service.audit_events()
    wire_events = sum(
        1
        for event in events
        if event.action in (AuditAction.API_REQUEST, AuditAction.API_REJECTED)
    )
    try:
        service.verify_service_audit()
        service_chain_ok, service_chain_error = True, ""
    except CuratorError as exc:
        service_chain_ok, service_chain_error = False, str(exc)
    return {
        "wire_events": wire_events,
        "service_chain_ok": service_chain_ok,
        "service_chain_error": service_chain_error,
        "shard_audit_events": [len(engine.audit_log) for engine in cluster.shards],
        "devices": [[d.device_id, d.used, d.capacity] for d in cluster.devices()],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _write_spans(path: Path, spans: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--cpu", type=int, help="pin the server to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    cluster, service, secrets = build(WORKLOADS[args.workload], args.seed)
    server = ServiceServer(service).start()
    _emit({"event": "ready", "port": server.port, "secrets": secrets})

    tracer: Tracer | None = None
    before: dict = {}
    try:
        for line in sys.stdin:
            command = json.loads(line)
            cmd = command["cmd"]
            if cmd == "trace" and command["on"]:
                tracer = Tracer()
                before = _counters(cluster)
                tracer.install()
                _emit({"event": "tracing"})
            elif cmd == "trace":
                tracer.uninstall()
                after = _counters(cluster)
                _write_spans(args.spans, tracer.spans)
                analysis = analyze(tracer.spans)
                analysis["layers"] = {
                    layer: vars(totals) for layer, totals in analysis["layers"].items()
                }
                _emit(
                    {
                        "event": "traced",
                        "analysis": analysis,
                        "delta": _delta(before, after),
                        "spans_file": str(args.spans),
                    }
                )
            elif cmd == "report":
                _emit({"event": "report", **_report(cluster, service)})
            elif cmd == "stop":
                break
            else:
                _emit({"event": "error", "message": f"unknown command {cmd!r}"})
    finally:
        server.stop()
        cluster.close()
    _emit({"event": "stopped"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
