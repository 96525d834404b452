"""The answer side of the quoting API: :class:`Quote`.

A quote is the priced deal: the deterring premium fraction π* (with the
smallest integer premium that clears it), the full per-arc deposit
schedule that premium implies under Equations 1–2, and the provenance of
the number — which tier answered, from what measurement.  Like the
request it is frozen, JSON-serializable, and digest-covered; the digest
hashes every *economic* field but deliberately not ``tier`` or
``latency_ms``, which describe how fast the service answered, not what
the answer is — a tier-1 closed form and a tier-3 measurement of the
same request must produce byte-identical digests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from hashlib import sha256

from repro.campaign.canon import canon_float, canon_opt

from repro.quote.request import QuoteError, QuoteRequest


@dataclass(frozen=True)
class ScheduleEntry:
    """One deposit in a deal's premium schedule.

    ``kind`` names the contract class the deposit collateralizes
    (``escrow``, ``redemption``, ``trading``); ``depositor`` pays
    ``amount`` into the contract on ``arc`` at protocol round ``round``;
    for redemption premiums ``path`` is the leader-to-beneficiary path
    the Equation-1 recurrence priced (empty otherwise).
    """

    kind: str
    depositor: str
    arc: tuple[str, str]
    round: int
    amount: int
    path: tuple[str, ...] = ()


def schedule_entry_payload(entry: ScheduleEntry) -> dict:
    """The canonical JSON shape of one schedule entry."""
    return {
        "kind": entry.kind,
        "depositor": entry.depositor,
        "arc": list(entry.arc),
        "round": entry.round,
        "amount": entry.amount,
        "path": list(entry.path),
    }


def _text(name: str, value: object) -> str:
    if not isinstance(value, str):
        raise QuoteError(f"{name} must be a string, got {value!r}")
    return value


def _integer(name: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise QuoteError(f"{name} must be an integer, got {value!r}")
    return value


def _real(name: str, value: object) -> float:
    # An int too large for a double is as unusable as NaN or inf: every
    # digest renders it through canon_float.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QuoteError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise QuoteError(f"{name} must be finite, got {value!r}")
    return value


def _strings(name: str, value: object) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise QuoteError(f"{name} must be a list of strings, got {value!r}")
    return tuple(_text(name, item) for item in value)


def schedule_entry_from_payload(data: dict) -> ScheduleEntry:
    """Rebuild one :class:`ScheduleEntry`, refusing wrong field types.

    A ``"5"`` amount or an ``"ab"`` arc would load as a different entry
    than the one that was priced, so each type is checked, never coerced.
    """
    if not isinstance(data, dict):
        raise QuoteError(f"a schedule entry is a JSON object, got {data!r}")
    arc = _strings("arc", data["arc"])
    if len(arc) != 2:
        raise QuoteError(f"arc must name two parties, got {data['arc']!r}")
    return ScheduleEntry(
        kind=_text("kind", data["kind"]),
        depositor=_text("depositor", data["depositor"]),
        arc=arc,
        round=_integer("round", data["round"]),
        amount=_integer("amount", data["amount"]),
        path=_strings("path", data.get("path", [])),
    )


@dataclass(frozen=True)
class Quote:
    """One priced deal: π*, the integer premium, the deposit schedule.

    ``pi_star`` is the deterring premium fraction (None when no premium
    up to the expansion ceiling deters — the deal is un-hedgeable for
    this coalition, the broker seller+buyer verdict); ``premium`` is the
    smallest integer premium ≥ π*·``base`` (None likewise); ``schedule``
    prices that premium arc by arc.  ``provenance`` names the source of
    the number — ``closed-form|...`` or ``refined|<row descriptor>`` —
    and is *tier-stable*: tiers 2 and 3 stamp the same descriptor, so
    cache hits and fresh measurements are byte-identical.  ``tier`` and
    ``latency_ms`` are service metadata, excluded from the digest.
    """

    request_digest: str
    family: str
    coalition: str
    stage: str
    shock: float
    tol: float
    pi_star: float | None
    premium: int | None
    base: int
    provenance: str
    schedule: tuple[ScheduleEntry, ...] = ()
    tier: int = 0
    latency_ms: float = 0.0

    @property
    def hedgeable(self) -> bool:
        """Whether any premium up to the ceiling deters the sore loser."""
        return self.pi_star is not None

    def _economic_payload(self) -> dict:
        """Every digest-covered field, canonical floats, sorted entries."""
        return {
            "request_digest": self.request_digest,
            "family": self.family,
            "coalition": self.coalition,
            "stage": self.stage,
            "shock": canon_float(self.shock),
            "tol": canon_float(self.tol),
            "pi_star": canon_opt(self.pi_star),
            "premium": self.premium,
            "base": self.base,
            "provenance": self.provenance,
            "schedule": [schedule_entry_payload(e) for e in self.schedule],
        }

    def digest(self) -> str:
        """The quote's identity: a hash of the economic answer only.

        ``tier`` and ``latency_ms`` are deliberately outside the hash —
        the digest asserts *what* the deal costs, not how quickly the
        service looked it up, so a closed form, a cache hit, and a fresh
        measurement of the same request can attest to one another.
        """
        text = json.dumps(
            self._economic_payload(), sort_keys=True, separators=(",", ":")
        )
        return sha256(f"quote|{text}".encode()).hexdigest()

    def to_json(self) -> str:
        return json.dumps(
            {
                **self._economic_payload(),
                "tier": self.tier,
                "latency_ms": canon_float(self.latency_ms),
                "digest": self.digest(),
            },
            indent=2,
            sort_keys=False,
        )

    @classmethod
    def from_json(cls, text: str) -> "Quote":
        """Load a quote, refusing any field of the wrong type.

        Types are checked, never coerced: a ``"5"`` premium would load
        as a quote whose digest differs from the well-typed one's.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise QuoteError(f"not a JSON quote: {err}")
        if not isinstance(data, dict):
            raise QuoteError(
                f"a quote is a JSON object, got {type(data).__name__}"
            )
        try:
            pi_star = data.get("pi_star")
            premium = data.get("premium")
            schedule = data.get("schedule", [])
            if not isinstance(schedule, list):
                raise QuoteError(f"schedule must be a list, got {schedule!r}")
            tier = _integer("tier", data.get("tier", 0))
            if not 0 <= tier <= 3:
                raise QuoteError(f"tier must be 0-3, got {tier}")
            quote = cls(
                request_digest=_text("request_digest", data["request_digest"]),
                family=_text("family", data["family"]),
                coalition=_text("coalition", data.get("coalition", "")),
                stage=_text("stage", data["stage"]),
                shock=_real("shock", data["shock"]),
                tol=_real("tol", data["tol"]),
                pi_star=None if pi_star is None else _real("pi_star", pi_star),
                premium=None if premium is None else _integer("premium", premium),
                base=_integer("base", data["base"]),
                provenance=_text("provenance", data["provenance"]),
                schedule=tuple(schedule_entry_from_payload(e) for e in schedule),
                tier=tier,
                latency_ms=_real("latency_ms", data.get("latency_ms", 0.0)),
            )
        except KeyError as err:
            raise QuoteError(f"malformed quote: missing {err}")
        stamped = data.get("digest")
        if stamped is not None and _text("digest", stamped) != quote.digest():
            raise QuoteError(
                "quote digest mismatch after deserialization: "
                f"{quote.digest()[:16]} != {stamped[:16]} — the quote was "
                "edited without re-stamping"
            )
        return quote


def quote_for(
    request: QuoteRequest,
    *,
    pi_star: float | None,
    base: int,
    provenance: str,
    schedule: tuple[ScheduleEntry, ...] = (),
    tier: int = 0,
    latency_ms: float = 0.0,
) -> Quote:
    """Assemble a :class:`Quote` answering ``request``.

    Centralizes the two derivations every tier shares: the request-digest
    stamp that binds answer to question, and the smallest integer premium
    clearing π* (``ceil(pi_star * base)``, the deposit a contract can
    actually hold — premiums are integer token amounts throughout the
    protocol layer).
    """
    premium: int | None = None
    if pi_star is not None:
        pi_star = canon_float(pi_star)
        scaled = pi_star * base
        premium = int(scaled)
        if premium < scaled:
            premium += 1
    return Quote(
        request_digest=request.digest(),
        family=request.cell_family,
        coalition=request.coalition,
        stage=request.stage,
        shock=request.shock,
        tol=request.tol,
        pi_star=pi_star,
        premium=premium,
        base=base,
        provenance=provenance,
        schedule=schedule,
        tier=tier,
        latency_ms=latency_ms,
    )
