"""DIG001: dataclass fields invisible to ``digest()``/``to_json()``.

A report or spec dataclass makes two promises: its *digest* binds every
result-determining field (tampering fails verification), and its
*serialization* carries every field a merge or audit needs.  Both decay
silently — a new field added to :class:`ExperimentSpec` but not to its
``digest()`` payload means two different experiments share an identity;
a field missing from ``to_json()`` vanishes on the first cross-host
shard hop.  This rule cross-checks each dataclass's declared fields
against the fields its digest producers and serializers actually read.

**Consumers.**  For a class, the rule collects ``self.<field>`` reads
(with a fixpoint over ``self.method()`` calls, so ``digest()`` delegating
to ``self._payload()`` still counts) from:

- digest producers: methods named ``digest``/``fingerprint`` that
  actually hash (call into :mod:`hashlib`) — a property that merely
  *aliases* a stored digest field is not a producer: there the digest is
  stamped elsewhere (at fold time, over serialized material), so the
  serializer check below is the meaningful one, and ``from_json``'s
  digest recomputation closes the loop dynamically;
- serializers: ``to_json``/``payload`` methods, plus module-level
  helpers bound by their first parameter's annotation (``def
  result_payload(result: ScenarioResult)``), reading ``<param>.<field>``.
  A serializer that hands the instance itself to
  :func:`repro.codec.encode` (``codec.encode(self)``) serializes every
  field the constructor takes, since that is what ``encode`` does; a
  ``field(init=False)`` is derived state the codec never carries.

**Allowlist.**  Exclusions are intentional and must say why:
:data:`DIGEST_EXCLUSIONS` maps ``ClassName.field`` to a justification.
``ExperimentSpec.backend``/``workers``/``expect`` are the canonical
entries — results are backend-invariant, so execution placement must
*not* shape the spec's identity.  An inline ``# lint: disable=DIG001``
on the field's declaration line works too, but the table keeps all
digest-surface decisions reviewable in one place.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.core import (
    Finding,
    FuncDef,
    ProgramRule,
    Rule,
    SourceFile,
    call_name,
    qualified_name,
    register_rule,
)

#: ``ClassName.field`` → why the field is intentionally outside the
#: digest and/or serialization surface.  Keep justifications load-bearing:
#: they are the documented contract the rule enforces everything else
#: against.
DIGEST_EXCLUSIONS: dict[str, str] = {
    # -- ExperimentSpec: identity covers *what runs*, not *where* -------
    "ExperimentSpec.backend": (
        "results are backend-invariant; placement must not change the "
        "spec's identity (serialized for convenience, never hashed)"
    ),
    "ExperimentSpec.workers": (
        "worker count is placement, not content; see backend"
    ),
    "ExperimentSpec.expect": (
        "assertions about the result are not part of what runs"
    ),
    # -- CampaignReport: derived aggregates rebuilt by from_json --------
    "CampaignReport.by_axis": (
        "derived per-axis aggregate; from_json rebuilds it from results "
        "via _fold_results, serializing it would just invite drift"
    ),
    "CampaignReport.premium_net_hist": (
        "derived histogram; rebuilt from results on load, see by_axis"
    ),
    # -- Quote: identity covers the answer, not the service path --------
    "Quote.tier": (
        "which ladder rung answered is service metadata; a closed form, "
        "a cache hit, and a fresh measurement of one request must attest "
        "to the same quote digest (serialized for ops, never hashed)"
    ),
    "Quote.latency_ms": (
        "wall-clock is telemetry; hashing it would fork traced/untraced "
        "and cold/warm digests of identical answers, see tier"
    ),
}


#: the codec entry point that serializes every constructor field.
CODEC_ENCODE = "repro.codec.encode"


def _is_dataclass(node: ast.ClassDef, src: SourceFile) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = qualified_name(target, src.aliases)
        if name is not None and name.rsplit(".", 1)[-1] == "dataclass":
            return True
    return False


def _declared_fields(node: ast.ClassDef) -> list[tuple[str, ast.AnnAssign]]:
    fields = []
    for stmt in node.body:
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and not stmt.target.id.startswith("_")
        ):
            annotation = ast.unparse(stmt.annotation) if stmt.annotation else ""
            if "ClassVar" in annotation:
                continue
            fields.append((stmt.target.id, stmt))
    return fields


def _methods(node: ast.ClassDef) -> dict[str, FuncDef]:
    return {
        stmt.name: stmt
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _self_param(func: FuncDef) -> str | None:
    if func.args.args:
        return func.args.args[0].arg
    return None


def _attr_reads(func: FuncDef, param: str) -> set[str]:
    """Names read as ``<param>.<attr>`` anywhere in ``func``."""
    out: set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == param
        ):
            out.add(node.attr)
    return out


def _encodes_whole(func: FuncDef, param: str | None, src: SourceFile) -> bool:
    """Does ``func`` pass ``param`` itself to :data:`CODEC_ENCODE`?"""
    return any(
        isinstance(node, ast.Call)
        and call_name(node, src.aliases) == CODEC_ENCODE
        and [ast.unparse(arg) for arg in node.args[:1]] == [param]
        for node in ast.walk(func)
    )


def _hashes(func: FuncDef, src: SourceFile) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = call_name(node, src.aliases)
            if name is not None and (
                name.startswith("hashlib.") or name.rsplit(".", 1)[-1] in
                {"sha256", "sha1", "sha512", "md5", "blake2b", "blake2s"}
            ):
                return True
    return False


def _consumed_with_fixpoint(
    start: list[FuncDef], methods: dict[str, FuncDef]
) -> set[str]:
    """Fields read by the given methods, following ``self.m()`` calls."""
    consumed: set[str] = set()
    seen: set[str] = set()
    queue = list(start)
    while queue:
        func = queue.pop()
        if func.name in seen:
            continue
        seen.add(func.name)
        param = _self_param(func)
        if param is None:
            continue
        reads = _attr_reads(func, param)
        consumed |= reads
        for read in reads:
            target = methods.get(read)
            if target is not None and target.name not in seen:
                queue.append(target)
    return consumed


def _bound_helpers(src: SourceFile) -> dict[str, list[tuple[FuncDef, str]]]:
    """Module-level (helper, param-name) lists keyed by class name.

    A helper binds to a class when its first parameter is annotated with
    that class's name — ``def result_payload(result: ScenarioResult)``.
    """
    out: dict[str, list[tuple[FuncDef, str]]] = {}
    for node in src.tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not node.args.args:
            continue
        first = node.args.args[0]
        if first.annotation is None:
            continue
        annotation = ast.unparse(first.annotation).strip("\"'")
        class_name = annotation.split("[")[0].split(".")[-1]
        out.setdefault(class_name, []).append((node, first.arg))
    return out


@register_rule
class DigestCoverageRule(Rule):
    """DIG001: a field the digest/serialization surface cannot see."""

    code = "DIG001"
    name = "digest-coverage"
    summary = (
        "dataclass field not consumed by the class's digest()/to_json() "
        "and not allowlisted in DIGEST_EXCLUSIONS; the field would be "
        "invisible to identity and/or transport"
    )

    def check(self, src: SourceFile) -> Iterable[Finding]:
        helpers = _bound_helpers(src)
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node, src):
                yield from self._check_class(src, node, helpers)

    def _check_class(
        self,
        src: SourceFile,
        node: ast.ClassDef,
        helpers: dict[str, list[tuple[FuncDef, str]]],
    ) -> Iterable[Finding]:
        fields = _declared_fields(node)
        if not fields:
            return
        methods = _methods(node)
        bound = helpers.get(node.name, [])

        digest_producers = [
            func
            for name, func in methods.items()
            if name in {"digest", "fingerprint"} and _hashes(func, src)
        ]
        serializers = [
            func for name, func in methods.items() if name in {"to_json", "payload"}
        ]
        helper_serializers = [
            (func, param)
            for func, param in bound
            if "payload" in func.name or "to_json" in func.name
        ]

        digest_consumed = _consumed_with_fixpoint(digest_producers, methods)
        serial_consumed = _consumed_with_fixpoint(serializers, methods)
        for func, param in helper_serializers:
            serial_consumed |= _attr_reads(func, param)
        encoders = [(func, _self_param(func)) for func in serializers]
        if any(_encodes_whole(f, p, src) for f, p in encoders + helper_serializers):
            # A field(init=False) is derived state the codec never carries.
            serial_consumed |= {
                name for name, stmt in fields
                if stmt.value is None or "init=False" not in ast.unparse(stmt.value)
            }

        # Only *method* digest producers support the digest-coverage
        # check: a class whose digest is stamped by a module-level fold
        # (CampaignReport via _fold_results, FrontierReport via
        # _with_digest) binds its header fields through preambles built
        # at call sites the AST cannot soundly attribute — there the
        # serializer check is the meaningful (and sufficient) one, since
        # from_json recomputes and verifies the digest from what was
        # serialized.
        has_digest = bool(digest_producers)
        has_serial = bool(serializers or helper_serializers)

        for field_name, stmt in fields:
            key = f"{node.name}.{field_name}"
            if key in DIGEST_EXCLUSIONS:
                continue
            if (
                has_digest
                and field_name not in digest_consumed
                # The stamp itself can never hash itself.
                and field_name != "digest"
            ):
                yield src.finding(
                    stmt,
                    self.code,
                    f"field {key} is not consumed by the digest "
                    "producer; two instances differing only here would "
                    "share an identity — hash it, or allowlist it in "
                    "DIGEST_EXCLUSIONS with a justification",
                )
            if has_serial and field_name not in serial_consumed:
                yield src.finding(
                    stmt,
                    self.code,
                    f"field {key} is not serialized by "
                    "to_json()/payload; it vanishes on the first "
                    "cross-host hop — serialize it, or allowlist it in "
                    "DIGEST_EXCLUSIONS with a justification",
                )


@register_rule
class StaleExclusionRule(ProgramRule):
    """DIG002: a ``DIGEST_EXCLUSIONS`` entry that no longer matches.

    An allowlist only stays trustworthy if every entry still points at a
    live field: an entry surviving a field rename silently re-opens the
    DIG001 hole it once documented (the renamed field gets flagged, the
    reviewer sees a justification for the *old* name, and the table rots
    into noise).  This whole-program check cross-references each
    ``ClassName.field`` entry against every dataclass the run parsed and
    reports entries whose class is present but no longer declares the
    field.  Classes absent from the linted tree are skipped — linting a
    fixture directory must not indict the shipped allowlist.
    """

    code = "DIG002"
    name = "stale-digest-exclusion"
    summary = (
        "DIGEST_EXCLUSIONS entry names a field its dataclass no longer "
        "declares; remove or update the allowlist entry"
    )

    def check_program(self, sources: list[SourceFile]) -> Iterable[Finding]:
        declared: dict[str, list[tuple[SourceFile, ast.ClassDef, set[str]]]] = {}
        for src in sources:
            for node in ast.walk(src.tree):
                if isinstance(node, ast.ClassDef) and _is_dataclass(node, src):
                    fields = {name for name, _ in _declared_fields(node)}
                    declared.setdefault(node.name, []).append(
                        (src, node, fields)
                    )

        for key in sorted(DIGEST_EXCLUSIONS):
            class_name, _, field_name = key.partition(".")
            owners = declared.get(class_name)
            if not owners:
                continue
            if any(field_name in fields for _, _, fields in owners):
                continue
            src, node, _ = owners[0]
            yield src.finding(
                node,
                self.code,
                f"stale DIGEST_EXCLUSIONS entry {key!r}: dataclass "
                f"{class_name} no longer declares field {field_name!r} — "
                "remove the entry (or update it to the renamed field) in "
                "repro.lint.rules.digestcov",
            )
