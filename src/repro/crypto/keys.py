"""Key pairs and the verification registry.

The simulation replaces asymmetric signatures with HMAC-SHA256.  Each
:class:`KeyPair` holds 32 private bytes; the public key is the SHA-256 of
the private key.  A :class:`KeyRegistry` (one per simulated world) maps
public keys to private keys so that ``verify`` can recompute MACs.  Parties
hold only their own :class:`KeyPair`; contracts hold only the registry.
Within the simulation this gives the standard signature guarantees: nobody
can produce a signature for a public key whose private bytes they do not
hold (see DESIGN.md substitution table).

A registry also remembers every ``(signer, tag, message)`` triple that
has verified, so a signed path re-checked at every hop costs one MAC per
link per world rather than one per check.  The memo is sound because a
public key is the SHA-256 of its private key: once registered, a key
cannot change its meaning, so a triple that verified once verifies
forever.  Only successes are remembered (a signer unknown today may be
registered tomorrow), the key is the full triple (never the signer and
tag alone), and the memo lives on one registry, which is one world.

A second memo remembers validated objects: a signed path whose every
link verified, and a hashkey with the hashlock and arc set it was
validated against.  A party extends one path and hands the same object
to every incoming arc's contract, so each contract after the first
skips the whole link walk.  The memo keys on object identity and is
sound for four reasons.  The objects are frozen and built from
strings, bytes and tuples, so the one that validated cannot change
afterwards.  Each entry stores a reference to
its object, which keeps the object alive, so its ``id`` cannot pass to
another, and a hit requires ``is``: an equal-content copy is checked in
full.  Only successes are recorded.  And the memo lives on one
registry, which is one world.  What a hit skips is only what holds
forever for that object; what depends on the caller, such as whether
each signer is the key the caller's own ``public_of`` names, is checked
on every call.

A world's fork takes a fork of its registry (:meth:`KeyRegistry.fork`):
the copy shares the key pairs, which are frozen, and owns its key maps
and both memos, so what one world verifies after the fork is never
remembered by the other.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.crypto.hashing import sha256_hex
from repro.errors import CryptoError


@dataclass(frozen=True)
class KeyPair:
    """A signing key pair: 32 private bytes and the derived public key."""

    private: bytes
    owner: str = ""
    #: The public key: hex SHA-256 of the private bytes, derived once at
    #: construction (a world registers it and every signature reads it).
    public: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "public", sha256_hex(self.private))

    @staticmethod
    def generate(owner: str = "") -> "KeyPair":
        """Create a fresh random key pair."""
        # OS entropy is this API's whole point (live keys), and every
        # protocol build draws its keys here.  No digest reads a key: a
        # scenario digest covers outcomes, never keys, secrets or
        # hashlocks, which is also why a forked world may share its
        # base's keys.
        return KeyPair(os.urandom(32), owner=owner)  # lint: disable=DET001

    @staticmethod
    def from_seed(seed: str, owner: str = "") -> "KeyPair":
        """Create a deterministic key pair from a text seed (tests only)."""
        return KeyPair(seed.encode("utf-8"), owner=owner)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"KeyPair({self.owner or self.public[:8]})"


class KeyRegistry:
    """Maps public keys to private keys for signature verification.

    One registry is shared by all chains of a simulated world.  It plays the
    role mathematics plays for ECDSA: it lets anyone *verify* a signature
    without being able to *produce* one (parties never query the registry;
    only `repro.crypto.signatures.verify` does).
    """

    def __init__(self) -> None:
        self._by_public: dict[str, KeyPair] = {}
        self._owner_by_public: dict[str, str] = {}
        #: (signer, tag, message) triples that verified (see module doc)
        self._verified: set[tuple[str, str, bytes]] = set()
        #: id(obj) -> (obj, *context) for each object that validated
        #: against that context (see module doc)
        self._validated: dict[int, tuple] = {}

    def fork(self) -> "KeyRegistry":
        """A copy that owns its key maps and memos (see module doc)."""
        twin = KeyRegistry.__new__(KeyRegistry)
        twin._by_public = dict(self._by_public)
        twin._owner_by_public = dict(self._owner_by_public)
        twin._verified = set(self._verified)
        twin._validated = dict(self._validated)
        return twin

    def register(self, keypair: KeyPair) -> None:
        """Add ``keypair`` so signatures by it can be verified."""
        public = keypair.public
        self._by_public[public] = keypair
        if keypair.owner:
            self._owner_by_public[public] = keypair.owner

    def private_for(self, public: str) -> bytes:
        """Return the private bytes behind ``public`` (verification only)."""
        try:
            return self._by_public[public].private
        except KeyError:
            raise CryptoError(f"unknown public key {public[:12]}…") from None

    def owner_of(self, public: str) -> str:
        """Return the registered owner name for ``public`` (may be '')."""
        return self._owner_by_public.get(public, "")

    def has_verified(self, signer: str, tag: str, message: bytes) -> bool:
        """True if this exact triple already verified in this registry."""
        return (signer, tag, message) in self._verified

    def record_verified(self, signer: str, tag: str, message: bytes) -> None:
        """Remember a triple that just verified (successes only)."""
        self._verified.add((signer, tag, message))

    def has_validated(self, obj: object, *context: object) -> bool:
        """True if this very object already validated against ``context``."""
        # Identity keys an in-process memo that holds its object; never
        # digested or serialized.
        entry = self._validated.get(id(obj))  # lint: disable=DET001
        return entry is not None and entry[0] is obj and entry[1:] == context

    def record_validated(self, obj: object, *context: object) -> None:
        """Remember that ``obj`` just validated against ``context``
        (successes only)."""
        self._validated[id(obj)] = (obj, *context)  # lint: disable=DET001

    def knows(self, public: str) -> bool:
        """Return True if ``public`` is registered."""
        return public in self._by_public

    def __len__(self) -> int:
        return len(self._by_public)
