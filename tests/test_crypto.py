"""Unit tests for hashing, keys, and signatures."""

import pickle

import pytest

from repro.crypto.hashing import Hashlock, Secret, sha256_hex
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signatures import Signature, require_valid, sign, verify
from repro.errors import CryptoError


# ----------------------------------------------------------------------
# hashing
# ----------------------------------------------------------------------
def test_sha256_hex_known_vector():
    assert sha256_hex(b"abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_secret_hashlock_roundtrip():
    secret = Secret.from_text("hello")
    assert secret.hashlock.matches(secret.preimage)


def test_hashlock_rejects_wrong_preimage():
    assert not Secret.from_text("a").hashlock.matches(b"b")


def test_generated_secrets_are_distinct():
    assert Secret.generate().preimage != Secret.generate().preimage


def test_hashlock_equality_by_digest():
    s = Secret.from_text("x")
    assert Hashlock(s.hashlock.digest) == s.hashlock
    assert hash(Hashlock(s.hashlock.digest)) == hash(s.hashlock)


def test_secret_label_does_not_affect_equality():
    a = Secret.from_text("x", label="one")
    b = Secret.from_text("x", label="two")
    assert a == b


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
def test_keypair_public_is_derived():
    kp = KeyPair.from_seed("seed")
    assert kp.public == sha256_hex(b"seed")


def test_keypair_public_is_computed_once_and_stays_out_of_equality():
    generated = KeyPair.generate(owner="Alice")
    assert generated.public == sha256_hex(generated.private)
    seeded = KeyPair.from_seed("seed", owner="Bob")
    assert "public" in vars(seeded)  # derived at construction, not per read
    assert seeded == KeyPair(b"seed", owner="Bob")
    assert hash(seeded) == hash(KeyPair(b"seed", owner="Bob"))
    assert seeded != KeyPair.from_seed("seed", owner="Carol")
    assert "public" not in repr(seeded)
    clone = pickle.loads(pickle.dumps(seeded))
    assert clone == seeded and clone.public == seeded.public


def test_registry_register_and_lookup():
    reg = KeyRegistry()
    kp = KeyPair.generate(owner="Alice")
    reg.register(kp)
    assert reg.knows(kp.public)
    assert reg.private_for(kp.public) == kp.private
    assert reg.owner_of(kp.public) == "Alice"
    assert len(reg) == 1


def test_registry_unknown_key_raises():
    reg = KeyRegistry()
    with pytest.raises(CryptoError):
        reg.private_for("deadbeef")


# ----------------------------------------------------------------------
# signatures
# ----------------------------------------------------------------------
@pytest.fixture
def signing_setup():
    reg = KeyRegistry()
    kp = KeyPair.generate(owner="Alice")
    reg.register(kp)
    return reg, kp


def test_sign_verify_roundtrip(signing_setup):
    reg, kp = signing_setup
    sig = sign(kp, b"message")
    assert verify(reg, sig, b"message")


def test_verify_rejects_tampered_message(signing_setup):
    reg, kp = signing_setup
    sig = sign(kp, b"message")
    assert not verify(reg, sig, b"messagE")


def test_verify_rejects_tampered_tag(signing_setup):
    reg, kp = signing_setup
    sig = sign(kp, b"message")
    forged = Signature(signer=sig.signer, tag="00" * 32)
    assert not verify(reg, forged, b"message")


def test_verify_rejects_unknown_signer(signing_setup):
    reg, _ = signing_setup
    stranger = KeyPair.generate()
    sig = sign(stranger, b"message")
    assert not verify(reg, sig, b"message")


def test_signature_not_transferable_between_keys(signing_setup):
    reg, kp = signing_setup
    other = KeyPair.generate(owner="Bob")
    reg.register(other)
    sig = sign(kp, b"message")
    forged = Signature(signer=other.public, tag=sig.tag)
    assert not verify(reg, forged, b"message")


def test_require_valid_raises(signing_setup):
    reg, kp = signing_setup
    sig = sign(kp, b"m")
    require_valid(reg, sig, b"m")  # ok
    with pytest.raises(CryptoError):
        require_valid(reg, sig, b"other")


# ----------------------------------------------------------------------
# the registry's verified-signature memo
# ----------------------------------------------------------------------
def _flip(tag: str) -> str:
    """``tag`` with its first hex digit changed."""
    return ("1" if tag[0] == "0" else "0") + tag[1:]


def _count_macs(monkeypatch) -> list[int]:
    """Count the MACs ``verify`` computes from here on."""
    import repro.crypto.signatures as signatures

    calls = [0]
    original = signatures._mac

    def counted(private: bytes, message: bytes) -> str:
        calls[0] += 1
        return original(private, message)

    monkeypatch.setattr(signatures, "_mac", counted)
    return calls


def test_memo_answers_a_repeated_triple_without_a_mac(signing_setup, monkeypatch):
    reg, kp = signing_setup
    sig = sign(kp, b"message")
    macs = _count_macs(monkeypatch)
    assert verify(reg, sig, b"message")
    assert verify(reg, sig, b"message")
    assert macs[0] == 1


def test_memo_does_not_accept_a_flipped_tag(signing_setup):
    reg, kp = signing_setup
    sig = sign(kp, b"message")
    assert verify(reg, sig, b"message")  # the valid triple is now cached
    forged = Signature(signer=sig.signer, tag=_flip(sig.tag))
    for _ in range(2):  # a failure is never remembered as a success
        assert not verify(reg, forged, b"message")


def test_memo_does_not_accept_a_changed_message(signing_setup):
    reg, kp = signing_setup
    sig = sign(kp, b"message")
    assert verify(reg, sig, b"message")
    for _ in range(2):
        assert not verify(reg, sig, b"message!")
        assert not verify(reg, sig, b"messag")


def test_memo_does_not_accept_a_tampered_signed_path_link():
    from repro.crypto.hashkeys import SignedPath

    reg = KeyRegistry()
    keys = {name: KeyPair.from_seed(name, owner=name) for name in "ABC"}
    for kp in keys.values():
        reg.register(kp)
    public_of = {name: kp.public for name, kp in keys.items()}
    path = SignedPath.create("payload", keys["A"], "A")
    path = path.extend(keys["B"], "B").extend(keys["C"], "C")
    assert path.verify(reg, public_of)  # every link is now cached
    sigs = list(path.sigs)
    sigs[1] = Signature(signer=sigs[1].signer, tag=_flip(sigs[1].tag))
    assert not SignedPath(path.payload, path.vertices, tuple(sigs)).verify(reg, public_of)
    reordered = ("A", "C", "B")
    assert not SignedPath(path.payload, reordered, path.sigs).verify(reg, public_of)
    assert not SignedPath("other", path.vertices, path.sigs).verify(reg, public_of)
    assert path.verify(reg, public_of)


def test_memo_keeps_no_failure_for_a_signer_registered_later():
    reg = KeyRegistry()
    kp = KeyPair.from_seed("late", owner="Late")
    sig = sign(kp, b"message")
    assert not verify(reg, sig, b"message")  # unknown signer
    reg.register(kp)
    assert verify(reg, sig, b"message")


def test_two_worlds_do_not_share_a_memo(monkeypatch):
    kp = KeyPair.from_seed("shared", owner="Shared")
    sig = sign(kp, b"message")
    first, second, stranger = KeyRegistry(), KeyRegistry(), KeyRegistry()
    first.register(kp)
    second.register(kp)
    macs = _count_macs(monkeypatch)
    assert verify(first, sig, b"message")
    assert not verify(stranger, sig, b"message")  # the signer is unknown there
    assert verify(second, sig, b"message")
    assert macs[0] == 2  # the second registry verified for itself


# ----------------------------------------------------------------------
# the registry's validated-path memo
# ----------------------------------------------------------------------
@pytest.fixture
def path_world():
    """A registry with parties A, B, C, D registered, their public keys,
    and the path A -> B -> C signed with a hashlock-bound payload."""
    from repro.crypto.hashkeys import HashKey

    reg = KeyRegistry()
    keys = {name: KeyPair.from_seed(name, owner=name) for name in "ABCD"}
    for kp in keys.values():
        reg.register(kp)
    public_of = {name: kp.public for name, kp in keys.items()}
    hashkey = HashKey.originate(Secret.from_text("s"), keys["A"], "A")
    hashkey = hashkey.extend(keys["B"], "B").extend(keys["C"], "C")
    return reg, keys, public_of, hashkey


#: the swap arcs the path C, B, A (redeemer first) follows
ARCS = frozenset({("C", "B"), ("B", "A")})


def _count_verifies(monkeypatch) -> list[int]:
    """Count the ``signatures.verify`` calls signed paths make from here on."""
    import repro.crypto.hashkeys as hashkeys

    calls = [0]
    original = hashkeys.verify

    def counted(registry, signature, message):
        calls[0] += 1
        return original(registry, signature, message)

    monkeypatch.setattr(hashkeys, "verify", counted)
    return calls


def test_path_memo_hit_makes_no_signature_check(path_world, monkeypatch):
    reg, _, public_of, hashkey = path_world
    assert hashkey.chain.verify(reg, public_of)
    verifies = _count_verifies(monkeypatch)
    assert hashkey.chain.verify(reg, public_of)
    assert verifies[0] == 0


def test_hashkey_memo_hit_skips_the_preimage_hash_and_every_signature(
    path_world, monkeypatch
):
    reg, _, public_of, hashkey = path_world
    hashlock = hashkey.hashlock
    assert hashkey.verify(reg, public_of, hashlock, ARCS)
    verifies = _count_verifies(monkeypatch)
    hashes = [0]
    matches = Hashlock.matches

    def counted_matches(self, preimage):
        hashes[0] += 1
        return matches(self, preimage)

    monkeypatch.setattr(Hashlock, "matches", counted_matches)
    assert hashkey.verify(reg, public_of, hashlock, ARCS)
    assert verifies[0] == hashes[0] == 0


def test_path_memo_checks_an_equal_copy_in_full(path_world, monkeypatch):
    from repro.crypto.hashkeys import SignedPath

    reg, _, public_of, hashkey = path_world
    path = hashkey.chain
    assert path.verify(reg, public_of)
    verifies = _count_verifies(monkeypatch)
    copy = SignedPath(path.payload, path.vertices, path.sigs)
    assert copy == path and copy is not path
    assert copy.verify(reg, public_of)
    assert verifies[0] == 3  # one per link: the copy is not a hit
    sigs = list(path.sigs)
    sigs[2] = Signature(signer=sigs[2].signer, tag=_flip(sigs[2].tag))
    tampered = SignedPath(path.payload, path.vertices, tuple(sigs))
    for _ in range(2):
        assert not tampered.verify(reg, public_of)


def test_memo_entry_answers_only_for_the_object_it_holds(path_world):
    from repro.crypto.hashkeys import SignedPath

    reg, _, _, hashkey = path_world
    path = hashkey.chain
    reg.record_validated(path)
    stranger = SignedPath(path.payload, path.vertices, path.sigs)
    # an entry found under the stranger's id, as if that id were reused
    reg._validated[id(stranger)] = reg._validated.pop(id(path))
    assert not reg.has_validated(stranger)
    assert not reg.has_validated(path)


def test_path_memo_hit_still_checks_signers_against_the_callers_keys(path_world):
    reg, keys, public_of, hashkey = path_world
    path = hashkey.chain
    assert path.verify(reg, public_of)
    without_b = {name: key for name, key in public_of.items() if name != "B"}
    b_is_d = {**public_of, "B": keys["D"].public}
    for other in (without_b, b_is_d):
        assert not path.verify(reg, other)
        assert not hashkey.verify(reg, other, hashkey.hashlock, ARCS)
    assert path.verify(reg, public_of)


def test_hashkey_memo_is_kept_per_hashlock_and_arc_set(path_world):
    reg, _, public_of, hashkey = path_world
    hashlock = hashkey.hashlock
    other_lock = Secret.from_text("other").hashlock
    reversed_arcs = frozenset((v, u) for u, v in ARCS)
    assert hashkey.verify(reg, public_of, hashlock, ARCS)
    assert not hashkey.verify(reg, public_of, other_lock, ARCS)
    assert not hashkey.verify(reg, public_of, hashlock, reversed_arcs)
    assert hashkey.verify(reg, public_of, hashlock, None)
    assert not hashkey.verify(reg, public_of, other_lock, None)
    assert hashkey.verify(reg, public_of, Hashlock(hashlock.digest), ARCS)


def test_a_failed_check_leaves_no_memo_entry(path_world, monkeypatch):
    reg, keys, public_of, hashkey = path_world
    b_is_d = {**public_of, "B": keys["D"].public}
    reversed_arcs = frozenset((v, u) for u, v in ARCS)
    assert not hashkey.chain.verify(reg, b_is_d)
    assert not hashkey.verify(reg, b_is_d, hashkey.hashlock, ARCS)
    assert not hashkey.verify(reg, public_of, hashkey.hashlock, reversed_arcs)
    assert not reg._validated
    verifies = _count_verifies(monkeypatch)
    assert hashkey.verify(reg, public_of, hashkey.hashlock, ARCS)
    assert verifies[0] == 3  # nothing was remembered: every link is walked


def test_two_worlds_share_no_validated_path(path_world, monkeypatch):
    reg, keys, public_of, hashkey = path_world
    assert hashkey.verify(reg, public_of, hashkey.hashlock, ARCS)
    second, stranger = KeyRegistry(), KeyRegistry()
    for kp in keys.values():
        second.register(kp)
    verifies = _count_verifies(monkeypatch)
    assert not hashkey.verify(stranger, public_of, hashkey.hashlock, ARCS)
    assert hashkey.verify(second, public_of, hashkey.hashlock, ARCS)
    assert verifies[0] == 1 + 3  # the stranger failed at once; second walked
    assert not stranger._validated
