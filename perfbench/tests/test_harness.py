"""Self-tests of the benchmark harness (no server process needed).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.cluster.ring import HashRing  # noqa: E402

from perfbench import compare, loadgen  # noqa: E402
from perfbench.bench import UNITS as END_TO_END_UNITS  # noqa: E402
from perfbench.corpus import Scheduler, build_corpus  # noqa: E402
from perfbench.layers import UNITS as LAYER_UNITS, wire_overhead  # noqa: E402
from perfbench.stats import percentile, summarize, supported  # noqa: E402
from perfbench.tracing import Tracer, analyze  # noqa: E402
from perfbench.wire import Checker  # noqa: E402
from perfbench.workloads import COLD_RECORDS, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the percentile rule -----------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    for q, fewest in ((0.5, 20), (0.9, 100), (0.99, 1000)):
        assert supported(q, fewest) and not supported(q, fewest - 1)
    with pytest.raises(ValueError, match="10 samples beyond"):
        percentile(list(range(99)), 0.9)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]  # 1..100, reversed below
    values.reverse()
    assert percentile(values, 0.5) == 50.0
    assert percentile(values, 0.9) == 90.0
    # exactly 10 samples (91..100) lie beyond the 90th percentile
    assert sum(1 for v in values if v > percentile(values, 0.9)) == 10


def test_summary_reports_count_and_only_supported_percentiles():
    assert summarize([1.0] * 19) == {"n": 19}
    assert set(summarize([1.0] * 150)) == {"n", "p50", "p90"}
    assert set(summarize([1.0] * 1000)) == {"n", "p50", "p90", "p99"}


# -- due-time latency accounting ----------------------------------------------


class FakeClock:
    """Simulated time: sleeping and serving advance it exactly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class Op:
    kind = "read"


def test_open_loop_times_requests_from_when_they_were_due():
    clock = FakeClock()
    service_s, rate, lead = 0.050, 100.0, 0.05

    def slow_server(op):  # takes 50 ms; the schedule wants one every 10 ms
        clock.now += service_s
        return True, ""

    samples = loadgen.open_loop(
        [Op()] * 10, rate, [slow_server], clock=clock, sleep=clock.sleep, lead_s=lead
    )
    for i, sample in enumerate(samples):
        assert sample.due == pytest.approx(lead + i / rate)
        # each request waits for every slow one before it
        assert sample.latency == pytest.approx(service_s + i * (service_s - 1 / rate))
        assert sample.lag == pytest.approx(i * (service_s - 1 / rate))
    assert samples[0].idle and not any(s.idle for s in samples[1:])
    validity = loadgen.generator_validity(samples, connections=1)
    # the backlog is the server's doing, not the generator's
    assert validity["lag_n"] == 10 and validity["idle_lag_p99_ms"] == 0.0
    assert not validity["generator_behind"]


def test_late_wakeups_flag_the_generator():
    clock = FakeClock()

    def oversleep(seconds):
        clock.now += seconds + 0.010  # every wake-up 10 ms late

    def fast_server(op):
        clock.now += 0.0001
        return True, ""

    samples = loadgen.open_loop(
        [Op()] * 200, 10.0, [fast_server], clock=clock, sleep=oversleep
    )
    validity = loadgen.generator_validity(samples, connections=1)
    assert validity["idle_lag_p99_ms"] == pytest.approx(10.0)
    assert validity["generator_behind"]


def test_open_loop_over_two_real_connections_against_a_slow_server():
    def slow_server(op):
        time.sleep(0.03)
        return True, ""

    started = time.perf_counter()
    samples = loadgen.open_loop([Op()] * 20, 100.0, [slow_server, slow_server])
    elapsed = time.perf_counter() - started
    # two connections at 30 ms each serve at most ~67/s of the 100/s offered
    assert elapsed >= 10 * 0.03
    assert max(s.latency for s in samples) > max(s.done - s.sent for s in samples)
    assert all(s.ok for s in samples) and len(samples) == 20


def test_closed_loop_counts_failures_and_wall_time():
    clock = FakeClock()
    outcomes = iter([(True, ""), (False, "503"), (True, "")])

    def server(op):
        clock.now += 0.1
        return next(outcomes)

    samples, elapsed = loadgen.closed_loop([Op()] * 3, [server], clock=clock)
    assert elapsed == pytest.approx(0.3)
    assert [s.ok for s in samples] == [True, False, True]


def test_transport_errors_are_failed_requests():
    def broken(op):
        raise ConnectionResetError("peer went away")

    samples = loadgen.open_loop([Op()], 100.0, [broken], lead_s=0.0)
    assert not samples[0].ok and "ConnectionResetError" in samples[0].error


# -- span self-time arithmetic ---------------------------------------------------


def _traced_request(clock: FakeClock, tracer: Tracer, pool: ThreadPoolExecutor):
    """root 0..10: leaf a 1..3 on the request thread, engine b 4..8 on a
    pool thread with its own leaf g 5..6."""

    def g():
        clock.now = 6.0

    traced_g = tracer.wrap("leaf", g)

    def b():
        clock.now = 5.0
        traced_g()
        clock.now = 8.0

    def a():
        clock.now = 3.0

    traced_a, traced_b = tracer.wrap("leaf", a), tracer.wrap("engine", b)

    def root():
        clock.now = 1.0
        traced_a()
        clock.now = 4.0
        pool.submit(traced_b).result()
        clock.now = 10.0

    clock.now = 0.0
    tracer.wrap("service", root, root=True)()


def test_self_time_subtracts_children_including_pool_threads():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.install(layers=())  # only the thread-pool propagation
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            _traced_request(clock, tracer, pool)
    finally:
        tracer.uninstall()
    result = analyze(tracer.spans)
    layers = result["layers"]
    assert result["requests"] == 1 and result["orphans"] == 0
    assert layers["service"].self_s == pytest.approx(10 - 2 - 4)
    assert layers["engine"].self_s == pytest.approx(4 - 1)
    assert layers["leaf"].self_s == pytest.approx(2 + 1)
    # leaf g nests inside engine b, not inside another leaf: both count
    assert layers["leaf"].calls == 2
    assert result["coverage"] == pytest.approx((2 + 1) / 10)
    assert result["roots"] == [[0.0, 10.0]]
    assert {span[2] for span in tracer.spans} == {1}


def test_a_pool_thread_without_propagation_leaves_an_orphan():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with ThreadPoolExecutor(max_workers=2) as pool:  # submit not patched
        _traced_request(clock, tracer, pool)
    result = analyze(tracer.spans)
    # b and g lost their request: leaf g no longer counts for it
    assert result["orphans"] == 2
    assert result["coverage"] == pytest.approx(2 / 10)


def test_parallel_leaves_count_their_wall_time_once():
    spans = [
        (1, 0, 1, "service", 0.0, 10.0, 0),
        (2, 1, 1, "aead.decrypt", 2.0, 6.0, 0),
        (3, 1, 1, "aead.decrypt", 3.0, 7.0, 0),  # a sibling on another pool thread
    ]
    result = analyze(spans)
    assert result["layers"]["service"].self_s == pytest.approx(10 - 5)
    assert result["layers"]["aead.decrypt"].self_s == pytest.approx(8)
    assert result["coverage"] == pytest.approx(5 / 10)


def _request_with_unwrapped_call(wrap_index: bool) -> dict:
    """root = engine 0..10 with leaf decrypt 1..3 and index add 3..9;
    index add is traced only when ``wrap_index``."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def decrypt():
        clock.now += 2.0

    def index_add():
        clock.now += 6.0

    traced_decrypt = tracer.wrap("aead.decrypt", decrypt)
    add = tracer.wrap("index.add", index_add) if wrap_index else index_add

    def engine():
        clock.now += 1.0
        traced_decrypt()
        add()
        clock.now += 1.0

    clock.now = 0.0
    tracer.wrap("service", tracer.wrap("engine", engine), root=True)()
    return analyze(tracer.spans)


def test_an_unwrapped_entry_point_lowers_coverage():
    wrapped, unwrapped = (_request_with_unwrapped_call(flag) for flag in (True, False))
    assert wrapped["coverage"] == pytest.approx(8 / 10)
    assert unwrapped["coverage"] == pytest.approx(2 / 10)
    # its time moved into the catch-all layer's self time
    assert wrapped["layers"]["engine"].self_s == pytest.approx(2)
    assert unwrapped["layers"]["engine"].self_s == pytest.approx(8)


def test_nested_calls_of_one_layer_count_once_inclusive():
    spans = [
        (1, 0, 1, "service", 0.0, 10.0, 0),
        (2, 1, 1, "journal", 1.0, 5.0, 100),
        (3, 2, 1, "journal", 2.0, 4.0, 60),
    ]
    journal = analyze(spans)["layers"]["journal"]
    assert (journal.calls, journal.inclusive_s, journal.bytes) == (1, 4.0, 100)
    assert journal.self_s == pytest.approx(4.0)


def test_install_wraps_and_uninstall_restores_entry_points():
    from repro.audit.log import AuditLog
    from repro.core import engine as engine_module

    before = (AuditLog.append, engine_module.aead_encrypt_many)
    tracer = Tracer()
    tracer.install()
    try:
        assert AuditLog.append is not before[0]
        assert engine_module.aead_encrypt_many is not before[1]  # aliased import
    finally:
        tracer.uninstall()
    assert (AuditLog.append, engine_module.aead_encrypt_many) == before


def test_spans_from_many_threads_keep_their_own_requests():
    tracer = Tracer()
    tracer.install(layers=())
    try:
        def leaf():
            time.sleep(0.001)

        traced_leaf = tracer.wrap("leaf", leaf)

        def request():
            with ThreadPoolExecutor(max_workers=2) as pool:
                for future in [pool.submit(traced_leaf) for _ in range(4)]:
                    future.result()

        traced_request = tracer.wrap("service", request, root=True)
        threads = [threading.Thread(target=traced_request) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        tracer.uninstall()
    by_sid = {span[0]: span for span in tracer.spans}
    leaves = [span for span in tracer.spans if span[3] == "leaf"]
    assert len(leaves) == 24
    assert all(by_sid[leaf[1]][2] == leaf[2] != 0 for leaf in leaves)


# -- wire overhead matching ---------------------------------------------------


def test_wire_overhead_uses_only_requests_alone_in_flight():
    S = loadgen.Sample
    samples = [
        S("read", 0.0, 0.0, 1.0, True, True),  # alone
        S("read", 2.0, 2.0, 4.0, True, True),  # overlaps the next
        S("read", 3.0, 3.0, 5.0, True, True),
        S("read", 6.0, 6.0, 6.5, True, True),  # alone
    ]
    roots = [[0.2, 0.8], [2.1, 3.5], [3.6, 4.9], [6.1, 6.3]]
    seconds, used = wire_overhead(samples, roots)
    assert used == 2
    assert seconds == pytest.approx(((1.0 - 0.6) + (0.5 - 0.2)) / 2)


# -- inputs, checks, and the benchmark definition ---------------------------------


def test_schedules_are_seeded_and_exact():
    workload = WORKLOADS["ward-round"]
    first = Scheduler(build_corpus(workload, 5), "s5").phase(400)
    again = Scheduler(build_corpus(workload, 5), "s5").phase(400)
    other = Scheduler(build_corpus(workload, 6), "s6").phase(400)
    assert [(o.kind, o.path) for o in first] == [(o.kind, o.path) for o in again]
    assert [o.path for o in first] != [o.path for o in other]
    counts = {kind: sum(1 for o in first if o.kind == kind) for kind in workload.mix}
    assert counts == {kind: round(share * 400) for kind, share in workload.mix.items()}
    recalls = [o.path for o in first if o.kind == "recall"]
    assert len(set(recalls)) == len(recalls)


def test_reads_go_to_the_treating_clinician_and_hot_sets_fit_the_cache():
    workload = WORKLOADS["ward-round"]
    corpus = build_corpus(workload, 3)
    for op in Scheduler(corpus, "t").phase(200):
        if op.kind in ("read", "recall"):
            assert op.expect.patient_id in dict(corpus.clinicians)[op.actor]
    assert not set(corpus.read_ids) & set(corpus.cold_ids)
    # the hot set fits every shard's 128-entry read cache
    ring = HashRing(workload.shards)
    per_shard: dict[int, int] = {}
    for record_id in corpus.read_ids:
        shard = ring.shard_for(corpus.by_id[record_id].patient_id)
        per_shard[shard] = per_shard.get(shard, 0) + 1
    assert len(per_shard) == workload.shards and max(per_shard.values()) <= 128


class FakeConnection:
    def __init__(self, answers):
        self.answers = answers
        self.sent = 0

    def call(self, method, path, body=None, token=""):
        self.sent += 1
        return self.answers(method, path, body)


def test_checker_flags_wrong_reads_and_search_results():
    workload = WORKLOADS["ward-round"]
    corpus = build_corpus(workload, 4)
    tokens = {user: "t" for user, _panel in corpus.clinicians}
    scheduler = Scheduler(corpus, "c")
    read = scheduler.op("read")
    search = scheduler.op("search")
    checker = Checker(corpus, tokens)
    stored = read.expect

    def honest(method, path, body):
        if path.startswith("/v1/search"):
            return 200, {"record_ids": sorted(corpus.seeded_hits(search.expect))}
        return 200, {**stored.to_dict(), "version": 1}

    assert checker.execute(FakeConnection(honest), read) == (True, "")
    assert checker.execute(FakeConnection(honest), search) == (True, "")
    assert checker.incorrect == []

    def lying(method, path, body):
        if path.startswith("/v1/search"):
            return 200, {"record_ids": ["rec-invented"]}
        return 200, {**stored.to_dict(), "body": {"text": "someone else"}}

    checker.execute(FakeConnection(lying), read)
    checker.execute(FakeConnection(lying), search)
    assert len(checker.incorrect) == 2
    ok, error = checker.execute(
        FakeConnection(lambda m, p, b: (429, {"error": {"code": "rate_limited"}})), read
    )
    assert not ok and "rate_limited" in error


def test_benchmark_json_names_what_the_harness_reports():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for metric in BENCHMARK["end_to_end"]:
        assert END_TO_END_UNITS[metric["name"]] == metric["unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert LAYER_UNITS[metric["name"]] == metric["unit"]
    assert len(LAYER_UNITS) == len(BENCHMARK["per_layer"])


def test_every_workload_has_enough_samples_for_its_reported_percentiles():
    seconds = BENCHMARK["run_seconds"]
    from perfbench.workloads import OPEN_SHARE, ROUNDS

    for workload in WORKLOADS.values():
        assert workload.closed_ops % ROUNDS == 0, workload.name
        per_round = round(workload.open_rate * seconds * OPEN_SHARE / ROUNDS)
        for kind, share in workload.mix.items():
            count = ROUNDS * round(share * per_round)
            assert supported(0.5, count), (workload.name, kind, count)
        assert supported(0.9, ROUNDS * round(workload.mix["read"] * per_round))
        recalls = ROUNDS * (
            round(workload.mix["recall"] * per_round)
            + round(workload.mix["recall"] * workload.closed_ops / ROUNDS)
        )
        traced_recalls = 2 * round(workload.mix["recall"] * workload.open_rate * seconds / 2)
        assert max(recalls, traced_recalls) <= COLD_RECORDS


def test_compare_refuses_results_from_different_hosts(tmp_path):
    host = {"nproc": 2, "python": "3.11.7", "numpy": True, "platform": "x"}
    result = {
        "workload": "ward-round", "trace": False, "host": host,
        "metrics": {"capacity_rps": {"value": 100.0, "unit": "1/s"}},
    }
    base = tmp_path / "base.json"
    new = tmp_path / "new.json"
    base.write_text(json.dumps(result))
    new.write_text(json.dumps({**result, "host": {**host, "numpy": False}}))
    assert compare.main(["--base", str(base), "--new", str(new)]) == 3
    assert compare.main(["--base", str(base), "--new", str(base)]) == 0
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(
        {**result, "metrics": {"capacity_rps": {"value": 50.0, "unit": "1/s"}}}
    ))
    assert compare.main(["--base", str(base), "--new", str(slower)]) == 1
