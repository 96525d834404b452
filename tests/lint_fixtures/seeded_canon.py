"""Seeded FLOW003 float-text violations (never executed; see README.md)."""

from hashlib import sha256

from repro.campaign.canon import canon_float, fmt_fraction


def cell_digest(pi: float, shock: float) -> str:
    line = f"{pi:g}|{shock:.6f}"  # FLOW003 x2: lossy float specs hashed
    return sha256(line.encode()).hexdigest()


def axis_label(pi: float) -> str:
    return format(pi, "g")  # FLOW003: lossy 'g' in label code


def legacy_payload(shock: float) -> str:
    return "s=%g" % shock  # FLOW003: printf float returned from digest code


def canonical_is_clean(pi: float, shock: float) -> str:
    line = f"{fmt_fraction(pi)}|{canon_float(shock)!r}"
    return sha256(line.encode()).hexdigest()


def presentation_is_clean(pi: float) -> str:
    # Clean: no digest/label scope — plain progress printing.
    return f"refining pi={pi:g}"


def suppressed_is_fine(pi: float) -> str:
    line = f"{pi:g}"  # the FLOW003 finding anchors at the sink
    return sha256(line.encode()).hexdigest()  # lint: disable=FLOW003


def suppressed_payload(shock: float) -> str:  # lint: disable=FLOW003
    # A digest-scope return finding anchors at the def line.
    return "s=%g" % shock
