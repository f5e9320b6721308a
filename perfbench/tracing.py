"""Spans around the layers' public entry points, recorded from outside.

:class:`Tracer` wraps functions so that each call records a span: id,
parent span, request id, layer, start and end.  A call of the root
entry point (``CuratorService.handle_request``) opens a new request;
any other traced call inherits the request of the span open on its
thread.  Work handed to a thread pool keeps its submitter's span, so
the router's fan-out threads stay inside the request that caused them.
A traced call with no open span anywhere is recorded as an orphan
(request 0).

Spans are kept in memory; :func:`analyze` turns them into per-layer
call counts, inclusive time (outermost call of a layer only) and self
time (a span's duration minus the part of it its child spans cover),
and into span coverage: the share of ``handle_request`` time during
which some leaf layer (any layer but the catch-all ``CATCH_ALL``) was
running.  Work in an entry point that is not wrapped lands in the self
time of a catch-all layer and lowers the coverage.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

ROOT_LAYER = "service"

#: Layers whose self time is whatever their wrapped children leave
#: over: request dispatch, routing and shard-lock waits, engine
#: bookkeeping.  Every other layer is a leaf.
CATCH_ALL = (ROOT_LAYER, "router", "engine")


def _payload_bytes(args, kwargs) -> int:
    return len(args[1])


def _payloads_bytes(args, kwargs) -> int:
    return sum(len(item) for item in args[1])


#: (layer, module, class or None for a module function, names, bytes measure)
LAYERS = (
    ("service", "repro.service.service", "CuratorService", ("handle_request",), None),
    ("auth", "repro.service.auth", "SessionBroker", ("validate_bearer",), None),
    ("admission", "repro.service.admission", "AdmissionController", ("admit",), None),
    ("router", "repro.cluster.router", "CuratorCluster",
     ("read", "store", "search", "version_count", "records_of_patient"), None),
    ("engine", "repro.core.engine", "CuratorStore",
     ("read", "store", "search", "version_count", "records_of_patient"), None),
    ("policy", "repro.policy.engine", "PolicyEngine", ("decide",), None),
    ("audit", "repro.audit.log", "AuditLog", ("append",), None),
    ("anchors.receive", "repro.audit.anchors", "AnchorWitness", ("receive",), None),
    ("anchors.publish", "repro.audit.anchors", None, ("publish_anchor",), None),
    ("merkle", "repro.crypto.merkle", "MerkleTree",
     ("prove_consistency", "prove_inclusion_at", "root_at"), None),
    ("aead.decrypt", "repro.crypto.aead", "AeadCipher", ("decrypt",), None),
    ("aead.decrypt", "repro.crypto.aead", None, ("decrypt_many",), None),
    ("aead.encrypt", "repro.crypto.aead", "AeadCipher", ("encrypt",), None),
    ("aead.encrypt", "repro.crypto.aead", None, ("encrypt_many",), None),
    ("signatures", "repro.crypto.signatures", "Signer", ("sign", "sign_batch"), None),
    ("worm.get", "repro.worm.store", "WormStore", ("get",), None),
    ("worm.put", "repro.worm.store", "WormStore", ("put", "put_many"), None),
    ("journal", "repro.storage.journal", "Journal", ("append",), _payload_bytes),
    ("journal", "repro.storage.journal", "Journal",
     ("append_many", "append_scattered"), _payloads_bytes),
    ("index.add", "repro.index.trustworthy", "TrustworthyIndex",
     ("add_document", "add_documents"), None),
    ("index.search", "repro.index.trustworthy", "TrustworthyIndex", ("search",), None),
    # The one private hook: a recall has no public entry point of its
    # own (it runs inside a read of a cold record).
    ("cold.recall", "repro.core.engine", "CuratorStore", ("_recall",), None),
)


class Tracer:
    """Records spans; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        #: (span id, parent id or 0, request id or 0, layer, start, end, bytes)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._clock = clock
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, int] | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, layer: str, fn, args, kwargs, *, root: bool = False, measure=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        if parent is not None:
            parent_sid, request = parent
        elif root:
            parent_sid, request = 0, next(self._requests)
        else:
            parent_sid, request = 0, 0
        stack.append((sid, request))
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self._clock()
            stack.pop()
            size = measure(args, kwargs) if measure is not None else 0
            self.spans.append((sid, parent_sid, request, layer, start, end, size))

    def wrap(self, layer: str, fn, *, root: bool = False, measure=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs, root=root, measure=measure)

        return traced

    def propagating(self, fn):
        """``fn`` made to run under the calling thread's open span."""
        parent = self.current()
        if parent is None:
            return fn
        tracer = self

        def run(*args, **kwargs):
            stack = tracer._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return run

    # -- installing wrappers ------------------------------------------------

    def _patch(self, target, name: str, replacement) -> None:
        self._patches.append((target, name, target.__dict__[name]))
        setattr(target, name, replacement)

    def install(self, layers=LAYERS) -> None:
        """Wrap every entry point in ``layers`` and make thread pools
        carry the submitter's span."""
        for layer, module_name, class_name, names, measure in layers:
            module = importlib.import_module(module_name)
            for name in names:
                if class_name is None:
                    original = getattr(module, name)
                    traced = self.wrap(layer, original, measure=measure)
                    # `from m import f [as g]` copies the reference:
                    # patch every name that holds it
                    for holder in list(sys.modules.values()):
                        if not getattr(holder, "__name__", "").startswith("repro"):
                            continue
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                self._patch(holder, attr, traced)
                else:
                    owner = getattr(module, class_name)
                    original = inspect.getattr_static(owner, name)
                    if not inspect.isfunction(original):
                        raise TypeError(f"{class_name}.{name} is not a plain method")
                    self._patch(
                        owner,
                        name,
                        self.wrap(
                            layer, original, root=layer == ROOT_LAYER, measure=measure
                        ),
                    )
        original_submit = ThreadPoolExecutor.__dict__["submit"]
        tracer = self

        def submit(pool, fn, /, *args, **kwargs):
            return original_submit(pool, tracer.propagating(fn), *args, **kwargs)

        self._patch(ThreadPoolExecutor, "submit", submit)

    def uninstall(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)


# -- analysis ----------------------------------------------------------------


@dataclass
class LayerTotals:
    calls: int = 0  # outermost calls of the layer
    inclusive_s: float = 0.0  # their summed duration
    self_s: float = 0.0  # every span's self time
    bytes: int = 0


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def analyze(spans: list[tuple]) -> dict:
    """Per-layer totals, request count, root time and intervals,
    coverage, orphans."""
    by_sid = {span[0]: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    leaves: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, request, layer, start, end, _size in spans:
        if parent:
            children[parent].append((start, end))
        if request and layer not in CATCH_ALL:
            leaves[request].append((start, end))
    layers: dict[str, LayerTotals] = defaultdict(LayerTotals)
    roots: list[list[float]] = []
    root_s = 0.0
    leaf_s = 0.0
    orphans = 0
    for sid, parent, request, layer, start, end, size in spans:
        totals = layers[layer]
        totals.self_s += (end - start) - _covered(start, end, children.get(sid, []))
        if request == 0:
            orphans += 1
        if layer == ROOT_LAYER and not parent and request:
            roots.append([start, end])
            root_s += end - start
            # leaves on pool threads may overlap: count wall time once
            leaf_s += _covered(start, end, leaves.get(request, []))
        ancestor = by_sid.get(parent)
        while ancestor is not None and ancestor[3] != layer:
            ancestor = by_sid.get(ancestor[1])
        if ancestor is None:
            totals.calls += 1
            totals.inclusive_s += end - start
            totals.bytes += size
    return {
        "layers": dict(layers),
        "requests": len(roots),
        "roots": roots,
        "root_s": root_s,
        "coverage": leaf_s / root_s if root_s else 0.0,
        "orphans": orphans,
    }
