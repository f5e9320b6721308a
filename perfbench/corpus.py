"""Inputs made from a workload and a seed: corpus, sets, and schedules.

The server and the client call the same functions with the same
``(workload, seed)`` pair, so they agree on every record, on which
records are hot, cold or used to grow the log, and on what each read
and search must return, without shipping the corpus between processes.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from repro.records.model import HealthRecord
from repro.util.encoding import canonical_bytes
from repro.util.clock import SimulatedClock
from repro.workload.generator import PatientProfile, WorkloadGenerator

from perfbench.workloads import (
    CLINICIANS,
    COLD_RECORDS,
    PANEL_SIZE,
    RECORDS_PER_PATIENT,
    SEARCH_TERMS,
    Workload,
)

#: Fixed creation time of every generated record (early 2007).
CORPUS_TIME = 1.17e9

#: Author of the corpus ingest batch; never logs in.
INTAKE_AUTHOR = "intake-clerk"

#: The privacy officer who runs the final full verify.
AUDITOR = "privacy-officer"

#: Records read in setup to grow the audit log: few enough to stay in
#: the read cache, so growth costs audit appends and anchors, not
#: decryption.
GROWTH_SET = 96

_TERM = re.compile(r"[a-z][a-z0-9'-]*")


def terms_of(record: HealthRecord) -> set[str]:
    """Words of the record's searchable text, as the index sees them
    for the plain search terms the workloads use."""
    return set(_TERM.findall(record.searchable_text().lower()))


@dataclass
class Corpus:
    workload: Workload
    seed: int
    patients: list[PatientProfile]
    #: (user_id, panel patient ids), one per clinician.
    clinicians: list[tuple[str, tuple[str, ...]]]
    owner: dict[str, str]  # patient id -> treating clinician
    records: list[HealthRecord]
    by_id: dict[str, HealthRecord] = field(default_factory=dict)
    cold_ids: list[str] = field(default_factory=list)
    #: Reads draw from these (hot set, or the whole warm corpus).
    read_ids: list[str] = field(default_factory=list)
    growth_ids: list[str] = field(default_factory=list)

    def actor_for(self, record_id: str) -> str:
        return self.owner[self.by_id[record_id].patient_id]

    def seeded_hits(self, term: str) -> set[str]:
        return {r.record_id for r in self.records if term in terms_of(r)}

    def user_bytes(self) -> int:
        return sum(len(canonical_bytes(r.to_dict())) for r in self.records)


def build_corpus(workload: Workload, seed: int) -> Corpus:
    generator = WorkloadGenerator(
        f"{workload.name}/{seed}", SimulatedClock(start=CORPUS_TIME)
    )
    patients = generator.create_population(CLINICIANS * PANEL_SIZE)
    clinicians = []
    owner = {}
    for c in range(CLINICIANS):
        user_id = f"dr-{c:03d}"
        panel = tuple(p.patient_id for p in patients[c * PANEL_SIZE : (c + 1) * PANEL_SIZE])
        clinicians.append((user_id, panel))
        for patient_id in panel:
            owner[patient_id] = user_id
    makers = (
        generator.note_record,
        generator.observation_record,
        generator.encounter_record,
    )
    records = [
        makers[k % len(makers)](patient).record
        for k in range(RECORDS_PER_PATIENT)
        for patient in patients
    ]
    corpus = Corpus(workload, seed, patients, clinicians, owner, records)
    corpus.by_id = {r.record_id: r for r in records}

    rng = random.Random(f"{workload.name}/{seed}/sets")
    ids = [r.record_id for r in records]
    corpus.cold_ids = rng.sample(ids, COLD_RECORDS)
    cold = set(corpus.cold_ids)
    warm = [record_id for record_id in ids if record_id not in cold]
    if workload.hot_per_clinician:
        by_clinician: dict[str, list[str]] = {}
        for record_id in warm:
            by_clinician.setdefault(corpus.actor_for(record_id), []).append(record_id)
        corpus.read_ids = [
            record_id
            for user_id, _panel in clinicians
            for record_id in rng.sample(
                by_clinician[user_id], workload.hot_per_clinician
            )
        ]
    else:
        corpus.read_ids = warm
    if workload.grow_audit_to:
        corpus.growth_ids = rng.sample(warm, GROWTH_SET)
    return corpus


@dataclass(frozen=True)
class Op:
    """One scheduled request."""

    kind: str
    method: str
    path: str
    actor: str
    body: dict | None = None
    #: read/recall: the stored record; write: its search terms;
    #: search: the term.
    expect: object = None


class Scheduler:
    """Makes the op sequence of each phase of one run.

    Kinds come in exact shares per phase (shuffled), so every run of a
    workload has the same number of samples of each kind.  Recalls take
    cold records in a fixed shuffled order, each exactly once per run.
    """

    def __init__(self, corpus: Corpus, run_tag: str) -> None:
        self.corpus = corpus
        self._rng = random.Random(f"{corpus.workload.name}/{corpus.seed}/ops/{run_tag}")
        self._cold = list(corpus.cold_ids)
        self._rng.shuffle(self._cold)
        self._writer = WorkloadGenerator(
            f"{corpus.workload.name}/{corpus.seed}/writes/{run_tag}",
            SimulatedClock(start=CORPUS_TIME),
        )
        self._run_tag = run_tag
        self._writes = 0
        self._searches = 0

    def kinds(self, count: int) -> list[str]:
        mix = self.corpus.workload.mix
        counts = {kind: int(round(share * count)) for kind, share in mix.items()}
        counts["read"] += count - sum(counts.values())
        kinds = [kind for kind, n in counts.items() for _ in range(n)]
        self._rng.shuffle(kinds)
        return kinds

    def phase(self, count: int) -> list[Op]:
        return [self.op(kind) for kind in self.kinds(count)]

    def op(self, kind: str) -> Op:
        corpus = self.corpus
        if kind in ("read", "recall"):
            if kind == "read":
                record_id = self._rng.choice(corpus.read_ids)
            else:
                if not self._cold:
                    raise ValueError("the run has more recalls than cold records")
                record_id = self._cold.pop()
            return Op(
                kind,
                "GET",
                f"/v1/records/{record_id}",
                corpus.actor_for(record_id),
                expect=corpus.by_id[record_id],
            )
        if kind == "search":
            term = SEARCH_TERMS[self._searches % len(SEARCH_TERMS)]
            actor = corpus.clinicians[self._searches % len(corpus.clinicians)][0]
            self._searches += 1
            return Op(kind, "GET", f"/v1/search?term={term}", actor, expect=term)
        if kind == "write":
            patient = self._rng.choice(corpus.patients)
            if corpus.workload.write_record == "note":
                made = self._writer.note_record(patient).record
            else:
                made = self._writer.observation_record(patient).record
            record = HealthRecord(
                record_id=f"w-{self._run_tag}-{self._writes:05d}",
                record_type=made.record_type,
                patient_id=made.patient_id,
                created_at=made.created_at,
                body=made.body,
            )
            self._writes += 1
            return Op(
                kind,
                "POST",
                "/v1/records",
                corpus.owner[patient.patient_id],
                body=record.to_dict(),
                expect=frozenset(terms_of(record)),
            )
        raise ValueError(f"unknown op kind {kind!r}")
