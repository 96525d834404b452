"""Seeded quote-layer violations (never executed; see README.md).

The quote service's standing invariant is that service metadata — which
tier answered, how long it took, any tracing identifiers — stays outside
the quote digest.  These fixtures violate it both ways: telemetry
smuggled *into* a digest-bearing payload without an exclusion entry
(DIG001), and a tier set hashed in nondeterministic iteration order
(FLOW002).
"""

import json
from dataclasses import dataclass
from hashlib import sha256


@dataclass(frozen=True)
class SmuggledQuote:
    """``trace_id`` rides the serialized payload but never the digest.

    DIG001: the field is neither hashed, nor excluded in
    ``DIGEST_EXCLUSIONS``, nor inline-disabled — so two byte-different
    payloads share one digest, and the traced/untraced byte-identity
    audit can no longer catch the fork.
    """

    family: str
    pi_star: float
    trace_id: str  # DIG001: serialized below, absent from digest()

    def digest(self) -> str:
        payload = f"quote|{self.family}|{self.pi_star!r}"
        return sha256(payload.encode()).hexdigest()

    def to_json(self) -> str:
        return json.dumps(
            {
                "family": self.family,
                "pi_star": self.pi_star,
                "trace_id": self.trace_id,
            }
        )


def ladder_digest(tiers: set) -> str:
    """Hash the tiers a quote engine consulted — in set order.

    FLOW002: set iteration order is arbitrary across processes, so the
    same ladder produces different digests run to run; the real engine
    iterates the fixed ``(1, 2, 3)`` tuple.
    """
    digest = sha256()
    for tier in tiers:  # FLOW002: unsorted set iteration feeds the hash
        digest.update(str(tier).encode())
    return digest.hexdigest()
