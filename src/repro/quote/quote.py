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
from typing import Annotated

from repro import codec
from repro.codec import Interval

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

    def __post_init__(self) -> None:
        codec.check(self, QuoteError)


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
    tier: Annotated[int, Interval(0, 3, what="0-3")] = 0
    latency_ms: float = 0.0

    def __post_init__(self) -> None:
        codec.check(self, QuoteError)

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
            "shock": self.shock,
            "tol": self.tol,
            "pi_star": self.pi_star,
            "premium": self.premium,
            "base": self.base,
            "provenance": self.provenance,
            # Each entry's fields by name; json renders its tuples as arrays.
            "schedule": [vars(entry) for entry in self.schedule],
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
            {**codec.encode(self), "digest": self.digest()}, indent=2, sort_keys=False
        )

    @classmethod
    def from_json(cls, text: str) -> "Quote":
        """Load a quote; a ``"5"`` premium is refused, never coerced."""
        return codec.load_stamped(cls, text, QuoteError, "a quote")


def smallest_premium(pi_star: float | None, base: int) -> int | None:
    """The smallest integer premium (a deposit a contract can hold)
    clearing π* on ``base``, or None when no premium deters."""
    return None if pi_star is None else math.ceil(pi_star * base)


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
    """A :class:`Quote` answering ``request``, bound to it by its digest."""
    return Quote(
        request_digest=request.digest(),
        family=request.cell_family,
        coalition=request.coalition,
        stage=request.stage,
        shock=request.shock,
        tol=request.tol,
        pi_star=pi_star,
        premium=smallest_premium(pi_star, base),
        base=base,
        provenance=provenance,
        schedule=schedule,
        tier=tier,
        latency_ms=latency_ms,
    )
