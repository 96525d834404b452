"""The taint domain: sources, sinks, and digest-covered fields.

Three taint kinds flow through the analysis:

- **nondet** — values no two runs agree on.  The table starts from the
  DET001 call list and *extends* it with sources the DET rules bless on
  purpose: ``time.perf_counter`` (the sanctioned way to measure elapsed
  time) is harmless in a ``wall_seconds`` field but a digest-invariant
  bug the moment it flows into a hash — exactly the distinction only a
  flow analysis can make.  Unseeded RNG draws (the DET002 patterns)
  generate the same taint.
- **unordered** — values whose *iteration order* is process- or
  filesystem-dependent: set construction, directory walks.  Order-free
  consumers (``sorted``/``sum``/``min``/...) neutralize it.
- **lossy** — float text rendered outside :mod:`repro.campaign.canon`
  (``%g``, ``format(x, "g")``, f-string float specs), generated wherever
  it occurs, neutralized by ``canon_float``/``canon_opt``/``fmt_fraction``.

Digest sinks are where taint becomes a finding: hash constructor and
``.update()`` inputs, canonical JSON (``json.dumps(sort_keys=...)``),
writes into dataclass fields the DIG001 machinery proves digest-covered,
the return values of label/axes producers (labels are digest material
downstream), and the return values of digest-producing functions
(:func:`repro.lint.core.is_digest_function`) for the unordered and lossy
taint born in their own body.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.lint.core import SourceFile, call_name
from repro.lint.rules.determinism import (
    NONDETERMINISTIC_CALLS,
    _GLOBAL_RNG_MODULES,
    _NUMPY_RNG_NEUTRAL,
    _RNG_ALWAYS_BAD,
    _RNG_CONSTRUCTORS,
)
from repro.lint.rules.digestcov import (
    _consumed_with_fixpoint,
    _hashes,
    _methods,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.flow.callgraph import Program

NONDET = "nondet"
UNORDERED = "unordered"
LOSSY = "lossy"
ALL_KINDS = (LOSSY, NONDET, UNORDERED)

#: nondeterministic-value producers: DET001's table plus the sources the
#: DET rules deliberately bless because their *legitimate* uses never
#: reach a digest.  Flow analysis is exactly the tool that can tell the
#: legitimate uses from the smuggled ones.
NONDET_SOURCES: dict[str, str] = {
    **NONDETERMINISTIC_CALLS,
    "time.perf_counter": "monotonic clock (blessed for timing, never digests)",
    "time.perf_counter_ns": "monotonic clock (blessed for timing, never digests)",
    "time.monotonic": "monotonic clock differs per process",
    "time.monotonic_ns": "monotonic clock differs per process",
    "time.process_time": "CPU clock differs per run",
    "time.thread_time": "CPU clock differs per run",
    "os.getpid": "pid differs per process",
    "os.getppid": "pid differs per process",
    "os.getenv": "environment differs per host",
    "os.environ.get": "environment differs per host",
    "socket.gethostname": "hostname differs per host",
    "platform.node": "hostname differs per host",
    "platform.platform": "platform string differs per host",
    "platform.machine": "architecture differs per host",
    "platform.python_version": "interpreter version differs per host",
    "threading.get_ident": "thread id differs per run",
}

#: order-free consumers: iteration order cannot reach their result.
ORDER_FREE_CALLS = frozenset({"sorted", "sum", "min", "max", "len", "any", "all"})

#: external calls whose results carry no data taint at all.
PREDICATE_CALLS = frozenset(
    {"isinstance", "issubclass", "hasattr", "callable", "bool", "id"}
)

#: the blessed float canonicalizers (matched by trailing name).
CANON_CALLS = frozenset({"canon_float", "canon_opt", "fmt_fraction"})

#: filesystem walks: results arrive in inode order.
WALK_CALLS = frozenset({"os.listdir", "os.scandir", "os.walk"})
WALK_METHODS = frozenset({"iterdir", "rglob", "glob"})

#: hash constructors whose inputs are digest sinks.
HASH_CONSTRUCTORS = frozenset(
    {
        "hashlib.sha256", "hashlib.sha1", "hashlib.sha512", "hashlib.md5",
        "hashlib.blake2b", "hashlib.blake2s", "hashlib.sha3_256",
        "hashlib.new",
    }
)

#: receiver methods that mutate the receiver in place with their args.
MUTATORS = frozenset({"append", "add", "extend", "insert", "setdefault", "update"})

#: set-ish annotation heads: a parameter annotated this way is *proof*
#: the value iterates in hash order.
SET_ANNOTATIONS = frozenset({"set", "frozenset", "abstractset", "mutableset"})

#: a format spec that renders a float: ``g``, ``.3f``, ``e``, ``%``, ...
_FLOAT_SPEC_RE = re.compile(r"^[<>=^+\- #0-9,._]*[gGeEfF%]$")
#: printf-style float conversions inside a ``%`` format string.
_PRINTF_FLOAT_RE = re.compile(r"%[-+ #0-9.]*[gGeEfF]")

#: functions whose name marks them as label producers even when they do
#: not hash or dump JSON themselves (labels feed digests downstream).
LABEL_NAME_RE = re.compile(r"label|axes")


@dataclass(frozen=True, order=True)
class Tag:
    """One concrete taint source: where it was born and why."""

    kind: str
    path: str
    line: int
    detail: str
    origin: str  # label of the function that generated it


@dataclass(frozen=True, order=True)
class ParamTaint:
    """Symbolic taint: 'whatever kinds parameter *index* carries'.

    ``kinds`` shrinks as the value passes neutralizers — ``sorted(param)``
    strips *unordered* from the pass-through — so callers only propagate
    the kinds that actually survive the callee's body.
    """

    index: int
    kinds: tuple[str, ...] = ALL_KINDS


@dataclass(frozen=True, order=True)
class Sink:
    """One digest sink site."""

    kind: str  # "hash" | "json" | "field" | "label" | "return"
    detail: str
    path: str
    line: int

    def describe(self) -> str:
        if self.kind == "hash":
            return f"hash input ({self.detail})"
        if self.kind == "json":
            return f"canonical JSON ({self.detail})"
        if self.kind == "field":
            return f"digest-covered field {self.detail}"
        if self.kind == "return":
            return f"digest-scope return ({self.detail})"
        return f"label output ({self.detail})"


@dataclass(frozen=True, order=True)
class SinkPoint:
    """A sink reachable from a function parameter, with its descent.

    ``descent`` lists the function labels from the summarized function
    down to the sink's owner; ``kinds`` are the taint kinds that survive
    the path (neutralizers along the way strip kinds).
    """

    sink: Sink
    descent: tuple[str, ...]
    kinds: tuple[str, ...] = ALL_KINDS


def is_unseeded_rng(name: str, node: ast.Call) -> str | None:
    """DET002's patterns as a taint source: reason or None."""
    if name in _RNG_ALWAYS_BAD:
        return _RNG_ALWAYS_BAD[name]
    if name in _RNG_CONSTRUCTORS and not node.args and not node.keywords:
        return f"{_RNG_CONSTRUCTORS[name]} without a seed"
    if name.startswith(_GLOBAL_RNG_MODULES) and name not in _NUMPY_RNG_NEUTRAL:
        return "draw from the shared unseeded global RNG"
    return None


def is_set_annotation(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    text = ast.unparse(annotation).strip("\"'")
    head = text.split("[")[0].split(".")[-1].strip().lower()
    return head in SET_ANNOTATIONS


def covered_fields(program: "Program") -> dict[str, frozenset[str]]:
    """Per-class digest-covered fields: ``{class label: {field, ...}}``.

    A field is digest-covered when the class's *hashing* digest producer
    (``digest()``/``fingerprint()`` that calls into :mod:`hashlib`,
    followed through ``self.method()`` delegation — the DIG001 fixpoint)
    reads it.  Serialized-only fields are deliberately excluded: fields
    like ``elapsed_seconds`` travel in ``to_json()`` payloads without
    ever being hashed, and treating transport as a digest sink would
    flag every legitimately wall-clock-carrying field in the tree.
    """
    out: dict[str, frozenset[str]] = {}
    for fid in sorted(program.classes):
        cls = program.classes[fid]
        methods = _methods(cls.node)
        producers = [
            func
            for name, func in methods.items()
            if name in {"digest", "fingerprint"} and _hashes(func, cls.src)
        ]
        if not producers:
            continue
        consumed = _consumed_with_fixpoint(producers, methods)
        fields = frozenset(name for name in cls.fields if name in consumed)
        if fields:
            out[fid.label] = fields
    return out


def float_format_hazard(
    node: ast.AST, src: SourceFile
) -> tuple[ast.expr | None, str] | None:
    """The LOSSY taint source: lossy float rendering at ``node``.

    Returns ``(formatted_value_expr, description)`` when ``node`` renders
    a float lossily, or None.  The value expr is returned so the caller
    can skip generation when it is a direct canon call.
    """
    if isinstance(node, ast.FormattedValue) and node.format_spec is not None:
        spec = _literal_spec(node.format_spec)
        if spec and _FLOAT_SPEC_RE.match(spec):
            return node.value, f"f-string float format spec {spec!r}"
    if isinstance(node, ast.Call):
        name = call_name(node, src.aliases)
        if (
            name == "format"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and _FLOAT_SPEC_RE.match(node.args[1].value)
        ):
            return node.args[0], f"format(x, {node.args[1].value!r})"
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and isinstance(node.left, ast.Constant)
        and isinstance(node.left.value, str)
        and _PRINTF_FLOAT_RE.search(node.left.value)
    ):
        return None, f"printf-style float format {node.left.value!r}"
    return None


def _literal_spec(spec_node: ast.expr) -> str | None:
    """The constant text of an f-string format spec, if it is constant."""
    if isinstance(spec_node, ast.JoinedStr) and all(
        isinstance(part, ast.Constant) for part in spec_node.values
    ):
        return "".join(str(part.value) for part in spec_node.values)
    return None
