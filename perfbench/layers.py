"""Per-layer metrics of a traced window.

Inputs: the server's span analysis and counter/device deltas over the
traced window, and the client's samples of the untraced and traced
halves.  ``*_us_per_req`` of a leaf layer is the inclusive time of its
outermost calls; the catch-all layers (service, router, engine) report
self time.  ``trace.span_coverage`` is the share of ``handle_request``
time spent inside leaf layers (see ``tracing.CATCH_ALL``); it drops
when an entry point is left unwrapped.  ``wire.overhead_us_per_req``
carries the number of requests it was measured on as its ``n``.
"""

from __future__ import annotations

import bisect
import statistics

from perfbench.stats import percentile

US = 1e6


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _labelled(metrics: dict, names: tuple[str, ...]) -> dict[str, int]:
    """Per-label sums of labelled counters ``name{label}``."""
    totals: dict[str, int] = {}
    for key, value in metrics.items():
        name, _, label = key.partition("{")
        if name in names and label:
            totals[label[:-1]] = totals.get(label[:-1], 0) + value
    return totals


def wire_overhead(samples, roots) -> tuple[float, int]:
    """Mean client latency minus ``handle_request`` time, over requests
    that had no other request in flight (each then holds exactly one
    ``handle_request`` span; both processes read the same monotonic
    clock).  Returns seconds and the number of requests used."""
    ordered = sorted(samples, key=lambda s: s.sent)
    starts = sorted(roots)
    begins = [start for start, _end in starts]
    overheads = []
    reach = float("-inf")  # latest completion among earlier requests
    for i, sample in enumerate(ordered):
        following = ordered[i + 1].sent if i + 1 < len(ordered) else float("inf")
        if reach < sample.sent and sample.done < following:
            first = bisect.bisect_left(begins, sample.sent)
            inside = [
                end - start
                for start, end in starts[first:first + 2]
                if end <= sample.done
            ]
            if len(inside) == 1:
                overheads.append(sample.done - sample.sent - inside[0])
        reach = max(reach, sample.done)
    return (statistics.fmean(overheads) if overheads else 0.0), len(overheads)


def layer_metrics(traced: dict, untraced_samples, traced_samples, generator: dict) -> dict:
    analysis = traced["analysis"]
    layers = analysis["layers"]
    delta = traced["delta"]
    counters = delta["metrics"]
    requests = analysis["requests"]

    def calls(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    def inclusive(layer: str) -> float:
        return layers.get(layer, {}).get("inclusive_s", 0.0)

    def own(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def per_req(seconds: float) -> float:
        return _ratio(seconds * US, requests)

    stores = sum(1 for s in traced_samples if s.kind == "write" and s.ok)
    anchors = calls("anchors.receive")
    per_shard = _labelled(
        counters, ("cluster_reads", "cluster_stores", "cluster_searches")
    )
    denials = sum(
        counters.get(f"service_denials{{{code}}}", 0)
        for code in ("rate_limited", "queue_full", "service_draining")
    )
    cache_hits = counters.get("read_cache_hits", 0)
    policy_hits = counters.get("policy_cache_hits", 0)
    index_devices = [(used, cap) for name, used, cap in delta["devices"] if name == "curator-idx"]
    wire_s, wire_n = wire_overhead(traced_samples, analysis["roots"])

    def read_p50_ms(samples) -> float:
        return percentile([s.latency * 1e3 for s in samples if s.kind == "read"], 0.5)

    values = {
        "wire.overhead_us_per_req": wire_s * US,
        "service.self_us_per_req": per_req(own("service")),
        "auth.validate_us_per_req": per_req(inclusive("auth")),
        "admission.admit_us_per_req": per_req(inclusive("admission")),
        "admission.denied_share": _ratio(denials, calls("admission")),
        "router.self_us_per_req": per_req(own("router")),
        "router.fanout_calls_per_req": _ratio(calls("engine"), requests),
        "router.shard_skew": _ratio(
            max(per_shard.values(), default=0),
            statistics.fmean(per_shard.values()) if per_shard else 0,
        ),
        "engine.self_us_per_req": per_req(own("engine")),
        "engine.read_cache_hit_ratio": _ratio(
            cache_hits, cache_hits + counters.get("read_cache_misses", 0)
        ),
        "policy.decide_calls_per_req": _ratio(calls("policy"), requests),
        "policy.decide_us_per_req": per_req(inclusive("policy")),
        "policy.cache_hit_ratio": _ratio(
            policy_hits, policy_hits + counters.get("policy_cache_misses", 0)
        ),
        "audit.append_calls_per_req": _ratio(calls("audit"), requests),
        "audit.append_us_per_req": per_req(inclusive("audit")),
        "audit.bytes_per_event": _ratio(delta["audit_device_bytes"], delta["audit_events"]),
        "anchors.per_req": _ratio(anchors, requests),
        "anchors.us_per_anchor": _ratio(
            (inclusive("anchors.receive") + inclusive("anchors.publish")) * US, anchors
        ),
        "merkle.proof_us_per_call": _ratio(inclusive("merkle") * US, calls("merkle")),
        "aead.decrypt_calls_per_req": _ratio(calls("aead.decrypt"), requests),
        "aead.decrypt_us_per_req": per_req(inclusive("aead.decrypt")),
        "aead.encrypt_us_per_req": per_req(inclusive("aead.encrypt")),
        "signatures.sign_calls_per_req": _ratio(calls("signatures"), requests),
        "signatures.sign_us_per_req": per_req(inclusive("signatures")),
        "worm.get_us_per_req": per_req(inclusive("worm.get")),
        "worm.put_us_per_req": per_req(inclusive("worm.put")),
        "journal.writes_per_req": _ratio(calls("journal"), requests),
        "journal.bytes_per_req": _ratio(layers.get("journal", {}).get("bytes", 0), requests),
        "index.add_us_per_store": _ratio(inclusive("index.add") * US, stores),
        "index.search_us_per_call": _ratio(inclusive("index.search") * US, calls("index.search")),
        "index.bytes_per_store": _ratio(delta["device_bytes"].get("curator-idx", 0), stores),
        "index.device_fill_ratio": max(_ratio(used, cap) for used, cap in index_devices),
        "cold.recall_us_per_recall": _ratio(inclusive("cold.recall") * US, calls("cold.recall")),
        "cold.recalls_per_req": _ratio(calls("cold.recall"), requests),
        "trace.overhead_read_p50_ms": read_p50_ms(traced_samples) - read_p50_ms(untraced_samples),
        "trace.span_coverage": analysis["coverage"],
        "trace.orphan_spans": analysis["orphans"],
        "loadgen.lag_p99_ms": generator["lag_p99_ms"],
        "loadgen.idle_lag_p99_ms": generator["idle_lag_p99_ms"],
    }
    counts = {"wire.overhead_us_per_req": wire_n}
    return {
        name: {"value": value, "unit": UNITS[name], "n": counts.get(name, requests)}
        for name, value in values.items()
    }


UNITS = {
    "wire.overhead_us_per_req": "us",
    "service.self_us_per_req": "us",
    "auth.validate_us_per_req": "us",
    "admission.admit_us_per_req": "us",
    "admission.denied_share": "ratio",
    "router.self_us_per_req": "us",
    "router.fanout_calls_per_req": "count",
    "router.shard_skew": "ratio",
    "engine.self_us_per_req": "us",
    "engine.read_cache_hit_ratio": "ratio",
    "policy.decide_calls_per_req": "count",
    "policy.decide_us_per_req": "us",
    "policy.cache_hit_ratio": "ratio",
    "audit.append_calls_per_req": "count",
    "audit.append_us_per_req": "us",
    "audit.bytes_per_event": "B",
    "anchors.per_req": "count",
    "anchors.us_per_anchor": "us",
    "merkle.proof_us_per_call": "us",
    "aead.decrypt_calls_per_req": "count",
    "aead.decrypt_us_per_req": "us",
    "aead.encrypt_us_per_req": "us",
    "signatures.sign_calls_per_req": "count",
    "signatures.sign_us_per_req": "us",
    "worm.get_us_per_req": "us",
    "worm.put_us_per_req": "us",
    "journal.writes_per_req": "count",
    "journal.bytes_per_req": "B",
    "index.add_us_per_store": "us",
    "index.search_us_per_call": "us",
    "index.bytes_per_store": "B",
    "index.device_fill_ratio": "ratio",
    "cold.recall_us_per_recall": "us",
    "cold.recalls_per_req": "count",
    "trace.overhead_read_p50_ms": "ms",
    "trace.span_coverage": "ratio",
    "trace.orphan_spans": "count",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.idle_lag_p99_ms": "ms",
}
