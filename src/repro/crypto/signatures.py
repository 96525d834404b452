"""HMAC-based signatures over protocol messages.

``sign(keypair, message)`` produces a :class:`Signature`;
``verify(registry, signature, message)`` checks it.  Messages are byte
strings; helpers canonicalize structured data before signing.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.errors import CryptoError


@dataclass(frozen=True)
class Signature:
    """A signature: the signer's public key and an HMAC-SHA256 tag."""

    signer: str
    tag: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sig({self.signer[:8]}…:{self.tag[:8]}…)"


def _mac(private: bytes, message: bytes) -> str:
    return hmac.new(private, message, hashlib.sha256).hexdigest()


def sign(keypair: KeyPair, message: bytes) -> Signature:
    """Sign ``message`` with ``keypair``; only the key holder can do this."""
    return Signature(signer=keypair.public, tag=_mac(keypair.private, message))


def verify(registry: KeyRegistry, signature: Signature, message: bytes) -> bool:
    """Return True iff ``signature`` is a valid signature of ``message``.

    Unknown signers verify as False rather than raising, so contracts can
    treat malformed hashkeys as simply invalid.  A triple that already
    verified against ``registry`` is not recomputed (see
    :class:`repro.crypto.keys.KeyRegistry`).
    """
    signer, tag = signature.signer, signature.tag
    if not registry.knows(signer):
        return False
    # Only str tags can have verified; anything else goes on to fail (or
    # raise) in compare_digest exactly as it would without the memo.
    if type(tag) is str and registry.has_verified(signer, tag, message):
        return True
    expected = _mac(registry.private_for(signer), message)
    if not hmac.compare_digest(expected, tag):
        return False
    registry.record_verified(signer, tag, message)
    return True


def require_valid(registry: KeyRegistry, signature: Signature, message: bytes) -> None:
    """Raise :class:`CryptoError` unless the signature verifies."""
    if not verify(registry, signature, message):
        raise CryptoError(f"invalid signature by {signature.signer[:12]}…")
