"""Seeded DET003 violations — telemetry leaking into digest scope.

Never executed; see README.md.  These are the obs-boundary cases: the
:mod:`repro.obs` layer is write-only from engine code, and every shape
of *reading telemetry back* inside digest-producing code must trip the
linter — plus a trace field smuggled onto a report dataclass still
trips DIG001, and hashing an unordered set of span names still trips
FLOW002.  The clean cases pin the other side of the contract: write-only
instrumentation (``maybe_span``) is blessed even inside a digest body.
"""

import json
from dataclasses import dataclass
from hashlib import sha256

from repro.obs import Tracer, maybe_span, phase_fragments


def describe_run(tracer) -> str:
    # DET003: snapshot() readback in a digest-named scope.
    snap = tracer.metrics.snapshot()
    return f"run with {len(snap.counters)} counters"


def run_digest(tracer, payload: bytes) -> str:
    digest = sha256(payload)
    # DET003: a counter value folded into a hash.
    digest.update(str(tracer.metrics.counter("cache.hit")).encode())
    return digest.hexdigest()


def bench_payload(snapshot) -> str:
    # DET003: phase_fragments() resolves to repro.obs — telemetry
    # timings serialized into a payload.
    return json.dumps(phase_fragments(snapshot))


def timestamped_payload() -> str:
    # DET003: constructing a repro.obs object inside digest scope.
    tracer = Tracer()
    return json.dumps({"epoch": tracer._epoch})


@dataclass(frozen=True)
class TracedReport:
    """``span_count`` smuggled onto a report — invisible to its digest."""

    scenarios: int
    run_seed: int
    span_count: int  # DIG001: a trace artifact the digest cannot see

    def digest(self) -> str:
        payload = f"{self.scenarios}|{self.run_seed}"
        return sha256(payload.encode()).hexdigest()


def span_names_digest(names: set) -> str:
    digest = sha256()
    for name in names:  # FLOW002: set of span names hashed unsorted
        digest.update(name.encode())
    return digest.hexdigest()


def write_only_is_clean(tracer, payload: bytes) -> str:
    # Clean: maybe_span is a telemetry *write* — blessed in digest scope.
    with maybe_span(tracer, "digest"):
        return sha256(payload).hexdigest()


def ledger_snapshot_is_clean(chain) -> str:
    # Clean: simulation state named snapshot() is not telemetry.
    digest = sha256()
    for key, value in sorted(chain.ledger.snapshot().items()):
        digest.update(f"{key}={value}".encode())
    return digest.hexdigest()


def suppressed_is_fine(tracer) -> str:
    snap = tracer.metrics.snapshot()  # lint: disable=DET003
    return json.dumps({"counters": len(snap.counters)})
