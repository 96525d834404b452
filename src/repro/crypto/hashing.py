"""Secrets and hashlocks (SHA-256).

A :class:`Secret` is the preimage ``s`` a leader generates; a
:class:`Hashlock` is ``h = H(s)``.  Contracts store hashlocks and accept any
byte string whose SHA-256 digest matches, exactly as an HTLC does.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field


def sha256_hex(data: bytes) -> str:
    """Return the SHA-256 digest of ``data`` as a hex string."""
    # Hashing OS entropy is this primitive's whole point: hashlocks and
    # public keys digest live secrets (Secret.generate / KeyPair.generate),
    # which is HTLC protocol behavior, not reproducibility-digest material.
    # Campaign builds draw their keys and secrets from OS entropy too; no
    # scenario digest reads a key, a secret or a hashlock.
    return hashlib.sha256(data).hexdigest()  # lint: disable=FLOW001


@dataclass(frozen=True)
class Hashlock:
    """A SHA-256 hashlock ``h = H(s)``.

    Equality and hashing are by digest, so hashlocks can key dictionaries in
    contracts (e.g. the hashlock vector of a multi-party swap).
    """

    digest: str

    def matches(self, preimage: bytes) -> bool:
        """Return ``True`` iff ``preimage`` hashes to this lock."""
        return sha256_hex(preimage) == self.digest

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hashlock({self.digest[:10]}…)"


@dataclass(frozen=True)
class Secret:
    """A hashlock preimage.

    ``Secret.generate()`` draws 32 random bytes; deterministic tests can pass
    explicit bytes.  The corresponding lock is cached on first use.
    """

    preimage: bytes
    label: str = field(default="", compare=False)

    @staticmethod
    def generate(label: str = "") -> "Secret":
        """Create a fresh random secret (32 bytes of OS entropy)."""
        # OS entropy is this API's whole point (live secrets), and every
        # protocol build draws its secrets here; no scenario digest reads
        # a secret or its hashlock.
        return Secret(os.urandom(32), label=label)  # lint: disable=DET001

    @staticmethod
    def from_text(text: str, label: str = "") -> "Secret":
        """Create a deterministic secret from a text seed (tests only)."""
        return Secret(text.encode("utf-8"), label=label)

    @property
    def hashlock(self) -> Hashlock:
        """The hashlock ``H(preimage)`` guarding this secret."""
        return Hashlock(sha256_hex(self.preimage))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = self.label or self.hashlock.digest[:8]
        return f"Secret({tag})"
