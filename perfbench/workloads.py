"""Workload specifications: every constant a run depends on.

A workload fixes the server's shape (shards, corpus, cold set, audit
history grown in setup) and the client's traffic (op mix, the open-loop
offered rate, the closed-loop op count).  The offered rates were set
once from the median ``capacity_rps`` of ten seeds on a 2-vCPU VM and
are never derived at run time: a later change that makes the server
faster or slower is measured at the same offered load.

Both are offered about 30% of their capacity (ward-round 85 of
~280/s, chart-history 45 of ~150/s).  At half, a median sat on the step
between requests that found the server idle and requests that waited
behind another one, and a slow phase of the shared host tipped it over:
ward-round's read p50 moved by 44% between seeds (~1.5 ms idle against
5 ms or a 45 ms note write queued ahead); at 70/s, 52% of chart-history's
writes overlapped another request and its write p50 moved by 41%
(at 45/s, 6% overlap).

Both processes import this module; the server builds its state from the
spec and the seed, the client derives its schedule from the same pair.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Capacity of every block device of every shard (WORM, index, audit,
#: keys, checkpoints, cold).  Sized so that ``chart-history``'s grown
#: audit log plus a run's events fit one shard's audit device; shared
#: by all workloads.
DEVICE_CAPACITY = 1 << 24

#: Clinician sessions logged in over the wire; each treats its own
#: panel of ``PANEL_SIZE`` patients and is the only actor whose token
#: reads that panel.
CLINICIANS = 64
PANEL_SIZE = 4

#: Records stored per patient in setup.
RECORDS_PER_PATIENT = 4

#: Records demoted to the cold tier in setup; each recall op is the
#: first touch of one of them.
COLD_RECORDS = 250

#: Search terms, drawn in rotation.
SEARCH_TERMS = ("glucose", "hypertension", "asthma", "creatinine")

#: Server set-ups per run; ``setup_s`` is their median.  Only the last
#: one serves the measured phases.
SETUPS = 3

#: Share of ``--seconds`` given to the open-loop phase of an untraced
#: run; the closed loop's fixed op count takes most of the rest at the
#: seed.
OPEN_SHARE = 0.75

#: An untraced run alternates this many open-loop and closed-loop
#: slices, so both phases sample the whole run.  The host's speed
#: wanders by 20-40% over 10-30 s; a closed loop in one ~5 s block
#: measures only the phase it falls in (ward-round's ``capacity_rps``
#: then spread 0.26-0.29 over ten seeds).
ROUNDS = 12

#: Client connections, one thread each (the load host has two cores).
CONNECTIONS = 2

OP_KINDS = ("read", "search", "write", "recall")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shards: int
    #: Reads draw from this many records per clinician (a hot set that
    #: fits every shard's read cache), or uniformly over the warm corpus
    #: when 0.
    hot_per_clinician: int
    #: In-process reads in setup grow every shard's audit log to at
    #: least this many events (0: no growth).
    grow_audit_to: int
    #: op kind -> share of requests, summing to 1.
    mix: dict
    #: Open-loop offered rate, requests per second.
    open_rate: float
    #: Closed-loop phase size, requests over all connections and
    #: rounds (a multiple of ``ROUNDS``).
    closed_ops: int
    #: What a write stores: "note" (clinical note) or "observation".
    write_record: str = "note"


WORKLOADS = {
    "ward-round": Workload(
        name="ward-round",
        why=(
            "4 shards, fresh short log, 85% reads of a hot set that fits "
            "every read cache: front-door costs dominate, decrypt and "
            "anchoring are nearly bypassed"
        ),
        shards=4,
        hot_per_clinician=3,
        grow_audit_to=0,
        mix={"read": 0.85, "search": 0.05, "write": 0.05, "recall": 0.05},
        open_rate=85.0,
        closed_ops=1680,
    ),
    "chart-history": Workload(
        name="chart-history",
        why=(
            "1 shard, audit log grown to 2e4 events, uniform reads over a "
            "corpus 6x the read cache plus cold recalls: anchoring, Merkle "
            "proofs, decrypt and recall dominate"
        ),
        shards=1,
        hot_per_clinician=0,
        grow_audit_to=20_000,
        mix={"read": 0.70, "search": 0.10, "write": 0.10, "recall": 0.10},
        open_rate=45.0,
        closed_ops=840,
        write_record="observation",
    ),
}
