"""Seeded FLOW002 ordering violations (never executed; see README.md)."""

from hashlib import sha256
from pathlib import Path


def tree_digest(root: Path) -> str:
    digest = sha256()
    for path in root.rglob("*.py"):  # FLOW002: filesystem order hashed
        digest.update(path.read_bytes())
    return digest.hexdigest()


def member_digest(members: set) -> str:
    digest = sha256()
    for member in members:  # FLOW002: set iteration hashed
        digest.update(str(member).encode())
    return digest.hexdigest()


def label_payload(parties) -> str:
    # FLOW002: join over a set returned from digest-producing code.
    return ",".join({p.upper() for p in parties})


def sorted_is_clean(root: Path, members: set) -> str:
    digest = sha256()
    for path in sorted(root.rglob("*.py")):  # clean: sorted walk
        digest.update(path.read_bytes())
    for member in sorted(members):  # clean: sorted set
        digest.update(str(member).encode())
    return digest.hexdigest()


def order_free_is_clean(members: set) -> int:
    # Clean: sum() cannot see iteration order.
    digest = sha256(b"count")
    digest.update(str(sum({len(m) for m in members})).encode())
    return len(digest.hexdigest())


def presentation_is_clean(members: set) -> list:
    # Clean: no digest/JSON sink in this function's scope.
    return [m for m in members]


def suppressed_is_fine(members: set) -> str:
    digest = sha256()
    for member in members:  # the FLOW002 finding anchors at the sink
        digest.update(str(member).encode())  # lint: disable=FLOW002
    return digest.hexdigest()


def suppressed_payload(parties) -> str:  # lint: disable=FLOW002
    # A digest-scope return finding anchors at the def line.
    return ",".join({p.upper() for p in parties})
