"""The load generator's side of the wire: connections, logins, checks.

Every request goes over a real keep-alive HTTP connection; each
connection counts what it sends, so the run can hold the server's
audit chain to exactly one event per request.  :class:`Checker` turns a
scheduled :class:`~perfbench.corpus.Op` into a request with the bearer
token of the clinician it belongs to, and checks the answer:

* a read returns the stored record, body and all;
* a write is acknowledged as version 1 of the new record;
* a search returns every seeded record with the term and every write
  with it acknowledged before the search was sent, and nothing but
  seeded records and writes sent before its answer came back.

A non-2xx answer or a transport error is a failed request; a 2xx
answer with the wrong content is recorded in ``Checker.incorrect``.
"""

from __future__ import annotations

import http.client
import json
import threading

from repro.access.sessions import Authenticator, Challenge

from perfbench.corpus import Corpus, Op
from perfbench.workloads import SEARCH_TERMS


class Connection:
    """One keep-alive HTTP connection to the service."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self.sent = 0

    def call(self, method: str, path: str, body=None, token: str = "") -> tuple[int, dict]:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if token:
            headers["Authorization"] = f"Bearer {token}"
        self.sent += 1
        try:
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()  # the next call reconnects
            raise
        return response.status, json.loads(raw) if raw else {}

    def close(self) -> None:
        self._conn.close()


def login_all(conn: Connection, secrets: dict[str, str]) -> dict[str, str]:
    """Challenge-response login of every clinician; returns bearer tokens."""
    tokens = {}
    for user_id, secret_hex in secrets.items():
        status, challenge = conn.call("POST", "/v1/auth/challenge", {"user_id": user_id})
        if status != 200:
            raise RuntimeError(f"challenge for {user_id}: {status} {challenge}")
        proof = Authenticator.respond(
            bytes.fromhex(secret_hex),
            Challenge(
                user_id=user_id,
                nonce=bytes.fromhex(challenge["nonce"]),
                issued_at=challenge["issued_at"],
            ),
        )
        status, session = conn.call(
            "POST", "/v1/auth/login", {"user_id": user_id, "response": proof.hex()}
        )
        if status != 200:
            raise RuntimeError(f"login of {user_id}: {status} {session}")
        tokens[user_id] = session["token"]
    return tokens


class Checker:
    """Sends ops with the right token and checks every answer."""

    def __init__(self, corpus: Corpus, tokens: dict[str, str]) -> None:
        self._tokens = tokens
        self._lock = threading.Lock()
        self._writes: list[tuple[str, frozenset]] = []  # sent, in order
        self._acked: set[str] = set()
        self._seeded = {
            term: corpus.seeded_hits(term) for term in SEARCH_TERMS
        }
        self.incorrect: list[str] = []
        self.acked_writes: list[dict] = []

    def worker(self, conn: Connection):
        return lambda op: self.execute(conn, op)

    def _written_with(self, term: str, ids) -> set[str]:
        return {record_id for record_id, terms in ids if term in terms}

    def execute(self, conn: Connection, op: Op) -> tuple[bool, str]:
        if op.kind == "search":
            with self._lock:
                acked = [(r, t) for r, t in self._writes if r in self._acked]
        elif op.kind == "write":
            with self._lock:
                self._writes.append((op.body["record_id"], op.expect))
        status, body = conn.call(op.method, op.path, op.body, self._tokens[op.actor])
        if status >= 300:
            error = body.get("error", {}) if isinstance(body, dict) else {}
            return False, f"{op.kind} {op.path}: {status} {error.get('code', '')}"
        problem = ""
        if op.kind in ("read", "recall"):
            problem = self._check_read(op, body)
        elif op.kind == "write":
            problem = self._check_write(op, body)
        else:
            with self._lock:
                sent = list(self._writes)
            problem = self._check_search(op.expect, body, acked, sent)
        if problem:
            self.incorrect.append(problem)
        return True, ""

    def _check_read(self, op: Op, body: dict) -> str:
        record = op.expect
        if (
            body.get("record_id") != record.record_id
            or body.get("patient_id") != record.patient_id
            or body.get("record_type") != record.record_type.value
            or body.get("body") != record.body
        ):
            return f"{op.kind} of {record.record_id} returned another record or body"
        return ""

    def _check_write(self, op: Op, body: dict) -> str:
        record_id = op.body["record_id"]
        if body.get("record_id") != record_id or body.get("versions") != 1:
            return f"write of {record_id} acknowledged as {body}"
        with self._lock:
            self._acked.add(record_id)
            self.acked_writes.append(op.body)
        return ""

    def _check_search(self, term: str, body: dict, acked, sent) -> str:
        seeded = self._seeded[term]
        got = set(body.get("record_ids", ()))
        must = seeded | self._written_with(term, acked)
        may = seeded | self._written_with(term, sent)
        if not must <= got:
            return f"search {term!r} missed {len(must - got)} stored records"
        if not got <= may:
            return f"search {term!r} returned {len(got - may)} unknown records"
        return ""
