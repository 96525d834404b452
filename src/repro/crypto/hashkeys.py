"""Hashkeys and signed path chains (Herlihy '18 / Xue-Herlihy '21).

A *hashkey* for hashlock ``h`` on arc ``(u, v)`` is a triple ``(s, q, σ)``
where ``s`` is the secret with ``H(s) = h``, ``q = (u_0, ..., u_k)`` is a
path in the swap digraph with ``u_0 = v`` (the redeemer on that arc) and
``u_k`` the leader who generated ``s``, and ``σ`` is a chain of signatures
authenticating the path.  A hashkey with path length ``|q|`` times out
``|q|·Δ`` after the start of its phase, which is what makes "extend the path,
present one hop further" always feasible for compliant parties.

The same signed-path machinery authenticates redemption-premium deposits
(§7.1), which carry a path but no secret, so the chain binds the *hashlock
digest* rather than the preimage.  :class:`SignedPath` stores vertices in
build order — leader first — while the paper writes paths redeemer-first;
:attr:`SignedPath.path` returns the paper's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import Hashlock, Secret
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signatures import Signature, sign, verify
from repro.errors import CryptoError


def _link_message(payload: str, joined: str, prev_tag: str) -> bytes:
    """The bytes a link signs; ``joined`` is ``",".join`` of the path prefix."""
    return f"{payload}|{joined}|{prev_tag}".encode("utf-8")


@dataclass(frozen=True)
class SignedPath:
    """An authenticated path chain.

    ``vertices`` is in build order (leader / originator first); each element
    of ``sigs`` is the signature of the corresponding vertex over the payload,
    the path prefix up to that vertex, and the previous signature tag.
    """

    payload: str
    vertices: tuple[str, ...]
    sigs: tuple[Signature, ...]

    @staticmethod
    def create(payload: str, keypair: KeyPair, vertex: str) -> "SignedPath":
        """Originate a chain at ``vertex`` (typically a leader)."""
        vertices = (vertex,)
        signature = sign(keypair, _link_message(payload, vertex, ""))
        return SignedPath(payload, vertices, (signature,))

    def extend(self, keypair: KeyPair, vertex: str) -> "SignedPath":
        """Append ``vertex`` to the chain, signing the extension."""
        vertices = self.vertices + (vertex,)
        prev_tag = self.sigs[-1].tag
        message = _link_message(self.payload, ",".join(vertices), prev_tag)
        signature = sign(keypair, message)
        return SignedPath(self.payload, vertices, self.sigs + (signature,))

    @property
    def path(self) -> tuple[str, ...]:
        """The path in the paper's order: redeemer first, leader last."""
        return tuple(reversed(self.vertices))

    @property
    def length(self) -> int:
        """``|q|`` — the number of vertices on the path."""
        return len(self.vertices)

    @property
    def originator(self) -> str:
        """The vertex that originated the chain (the leader)."""
        return self.vertices[0]

    @property
    def head(self) -> str:
        """The most recent extender (the redeemer on the presented arc)."""
        return self.vertices[-1]

    def is_simple(self) -> bool:
        """Return True iff no vertex repeats."""
        return len(set(self.vertices)) == len(self.vertices)

    def verify(self, registry: KeyRegistry, public_of: dict[str, str]) -> bool:
        """Check every link of the chain.

        ``public_of`` maps party names to their registered public keys (this
        mapping is part of the public protocol agreement every contract is
        initialized with).  Returns False on any mismatch — wrong signer,
        broken chain, unknown vertex.  A path that already verified in
        this registry's world skips the link walk; its signers are still
        checked against the caller's ``public_of`` (see
        :mod:`repro.crypto.keys`).
        """
        if registry.has_validated(self):
            for vertex, signature in zip(self.vertices, self.sigs):
                if public_of.get(vertex) != signature.signer:
                    return False
            return True
        if len(self.vertices) != len(self.sigs) or not self.vertices:
            return False
        prev_tag = joined = ""
        for i, (vertex, signature) in enumerate(zip(self.vertices, self.sigs)):
            expected_public = public_of.get(vertex)
            if expected_public is None:
                return False
            if signature.signer != expected_public:
                return False
            joined = f"{joined},{vertex}" if i else vertex
            message = _link_message(self.payload, joined, prev_tag)
            if not verify(registry, signature, message):
                return False
            prev_tag = signature.tag
        registry.record_validated(self)
        return True


@dataclass(frozen=True)
class HashKey:
    """A hashkey ``(s, q, σ)``: a secret plus an authenticated path."""

    secret: Secret
    chain: SignedPath = field(repr=False)

    @staticmethod
    def originate(secret: Secret, keypair: KeyPair, leader: str) -> "HashKey":
        """Create the leader's initial hashkey with trivial path ``(leader)``."""
        payload = f"hashkey:{secret.hashlock.digest}"
        return HashKey(secret, SignedPath.create(payload, keypair, leader))

    def extend(self, keypair: KeyPair, vertex: str) -> "HashKey":
        """Extend the hashkey's path by ``vertex`` (signing the extension)."""
        return HashKey(self.secret, self.chain.extend(keypair, vertex))

    @property
    def hashlock(self) -> Hashlock:
        """The lock this hashkey opens."""
        return self.secret.hashlock

    @property
    def path(self) -> tuple[str, ...]:
        """Path in paper order (redeemer first, leader last)."""
        return self.chain.path

    @property
    def length(self) -> int:
        """``|q|`` — determines the hashkey's timeout."""
        return self.chain.length

    @property
    def leader(self) -> str:
        """The leader who generated the secret."""
        return self.chain.originator

    @property
    def redeemer(self) -> str:
        """The party entitled to present this hashkey (head of the path)."""
        return self.chain.head

    def verify(
        self,
        registry: KeyRegistry,
        public_of: dict[str, str],
        hashlock: Hashlock,
        arcs: frozenset[tuple[str, str]] | None = None,
    ) -> bool:
        """Full contract-side validation of a presented hashkey.

        Checks the preimage against ``hashlock``, that the payload binds that
        same hashlock (so chains cannot be replayed across locks), that the
        path is simple, that consecutive vertices follow arcs of the swap
        digraph when ``arcs`` is given (``(q_i, q_{i+1})`` must be an arc,
        reading the path redeemer-first, per Figure 3b), and the signature
        chain.  A hashkey that already validated against the same
        ``hashlock`` and ``arcs`` in this registry's world checks only the
        signature chain, whose own memo then skips the link walk.
        """
        if registry.has_validated(self, hashlock, arcs):
            return self.chain.verify(registry, public_of)
        if not hashlock.matches(self.secret.preimage):
            return False
        if self.chain.payload != f"hashkey:{hashlock.digest}":
            return False
        if not self.chain.is_simple():
            return False
        if arcs is not None:
            q = self.path
            for i in range(len(q) - 1):
                if (q[i], q[i + 1]) not in arcs:
                    return False
        if not self.chain.verify(registry, public_of):
            return False
        registry.record_validated(self, hashlock, arcs)
        return True


def require_valid_hashkey(
    hashkey: HashKey,
    registry: KeyRegistry,
    public_of: dict[str, str],
    hashlock: Hashlock,
    arcs: frozenset[tuple[str, str]] | None = None,
) -> None:
    """Raise :class:`CryptoError` unless the hashkey validates."""
    if not hashkey.verify(registry, public_of, hashlock, arcs):
        raise CryptoError("invalid hashkey")
