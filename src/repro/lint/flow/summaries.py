"""Summary-based interprocedural taint fixpoint.

Each function gets a :class:`Summary`: which taint its return value
carries (concrete :class:`~repro.lint.flow.taint.Tag` sources and
symbolic :class:`~repro.lint.flow.taint.ParamTaint` pass-throughs), and
which of its parameters descend into digest sinks.  Summaries are
computed to a global fixpoint over the call graph, then a final
recording pass joins concrete sources against sinks into
:class:`FlowHit`\\ s carrying the full call chain.

Design notes that keep the pass sound-enough and deterministic:

- **Weak updates only.**  Environments and summaries only grow (or keep
  a shorter trail for an existing item), so the fixpoint is monotone
  and terminates.  Recursive descents are bounded by keeping one
  shortest descent per ``(sink, kinds)`` and a hard depth cap.
- **Kind-filtered pass-through.**  ``ParamTaint.kinds`` shrinks through
  neutralizers, so ``def f(xs): return sorted(xs)`` correctly strips
  *unordered* for every caller.
- **Shortest-trail, lexicographic tie-break.**  Whenever two trails
  reach the same item, the shorter (then lexicographically smaller)
  wins, making chains independent of iteration order and hash seed.
- **No ``id()``/identity keys.**  Call sites are looked up by their
  full source extent — stable across runs — because the analyzer is
  linted by the very rules it powers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.core import is_digest_function
from repro.lint.flow.callgraph import (
    CallSite,
    ClassInfo,
    FuncId,
    FunctionInfo,
    Program,
)
from repro.lint.flow.taint import (
    ALL_KINDS,
    CANON_CALLS,
    HASH_CONSTRUCTORS,
    LABEL_NAME_RE,
    LOSSY,
    MUTATORS,
    NONDET,
    NONDET_SOURCES,
    ORDER_FREE_CALLS,
    PREDICATE_CALLS,
    UNORDERED,
    WALK_CALLS,
    WALK_METHODS,
    ParamTaint,
    Sink,
    SinkPoint,
    Tag,
    covered_fields,
    float_format_hazard,
    is_set_annotation,
    is_unseeded_rng,
)

Trail = tuple[str, ...]


def _extent(node: ast.AST) -> tuple[int, int, int | None, int | None]:
    """Full source extent of a node — a collision-free position key."""
    return (
        node.lineno,
        node.col_offset,
        getattr(node, "end_lineno", None),
        getattr(node, "end_col_offset", None),
    )


TaintMap = dict[object, Trail]  # keys are Tag | ParamTaint

#: longest sink descent a summary will record — bounds recursion.
_MAX_DESCENT = 12
#: global fixpoint round cap (generous: depth of the call DAG suffices).
_MAX_ROUNDS = 50
#: per-function inner fixpoint cap (loop-carried taint converges fast).
_MAX_BODY_PASSES = 8


def _better(trail: Trail, incumbent: Trail) -> bool:
    return (len(trail), trail) < (len(incumbent), incumbent)


def _merge(dst: TaintMap, src: TaintMap) -> bool:
    """Weak-update ``dst`` with ``src``; True when anything changed."""
    changed = False
    for item, trail in src.items():
        incumbent = dst.get(item)
        if incumbent is None or _better(trail, incumbent):
            dst[item] = trail
            changed = True
    return changed


def _strip(taints: TaintMap, kind: str) -> TaintMap:
    """Drop ``kind`` from every item (neutralizer semantics)."""
    out: TaintMap = {}
    for item, trail in taints.items():
        if isinstance(item, Tag):
            if item.kind != kind:
                out[item] = trail
        else:
            kinds = tuple(k for k in item.kinds if k != kind)
            if kinds:
                out[ParamTaint(item.index, kinds)] = trail
    return out


@dataclass
class Summary:
    """What one function does with taint, from its caller's view."""

    #: taint the return value carries → shortest trail that reaches it.
    ret: TaintMap = field(default_factory=dict)
    #: parameter index → sinks it descends into.
    param_sinks: dict[int, tuple[SinkPoint, ...]] = field(default_factory=dict)

    def return_kinds(self) -> set[str]:
        return {item.kind for item in self.ret if isinstance(item, Tag)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Summary):
            return NotImplemented
        return self.ret == other.ret and self.param_sinks == other.param_sinks


@dataclass(frozen=True, order=True)
class FlowHit:
    """One confirmed source→sink flow."""

    kind: str
    tag: Tag
    sink: Sink
    #: function labels from the source's origin to the sink's owner.
    chain: tuple[str, ...]


class FlowAnalysis:
    """Run the interprocedural fixpoint over a :class:`Program`."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.covered = covered_fields(program)
        #: functions whose return value is a sink for their own taint.
        self.digest_scoped = frozenset(
            fid
            for fid, info in program.functions.items()
            if is_digest_function(info.node, info.src.aliases)
        )
        self.summaries: dict[FuncId, Summary] = {
            fid: Summary() for fid in program.functions
        }
        #: (class label, field) → taint written into the field.
        self.field_taints: dict[tuple[str, str], TaintMap] = {}
        self.hits: list[FlowHit] = []
        self._fixpoint()
        self._record()

    # -- driver --------------------------------------------------------
    def _fixpoint(self) -> None:
        order = sorted(self.program.functions)
        for _ in range(_MAX_ROUNDS):
            changed = False
            for fid in order:
                summary = _Transfer(self, fid).run()
                if summary != self.summaries[fid]:
                    self.summaries[fid] = summary
                    changed = True
            if not changed:
                return

    def _record(self) -> None:
        seen: dict[tuple[str, Tag, Sink], Trail] = {}
        for fid in sorted(self.program.functions):
            transfer = _Transfer(self, fid)
            transfer.run()
            for hit in transfer.hits:
                key = (hit.kind, hit.tag, hit.sink)
                incumbent = seen.get(key)
                if incumbent is None or _better(hit.chain, incumbent):
                    seen[key] = hit.chain
        self.hits = sorted(
            FlowHit(kind=k, tag=t, sink=s, chain=chain)
            for (k, t, s), chain in seen.items()
        )


class _Transfer:
    """One intraprocedural pass over a single function body."""

    def __init__(self, analysis: FlowAnalysis, fid: FuncId) -> None:
        self.analysis = analysis
        self.program = analysis.program
        self.info: FunctionInfo = self.program.functions[fid]
        self.fid = fid
        self.label = fid.label
        self.src = self.info.src
        #: call sites by full source extent — stable across runs (no
        #: identity keys), and unambiguous even for chained calls like
        #: ``sha256(x).hexdigest()`` where outer and inner call share a
        #: start position.
        self.sites: dict[tuple[int, int, int | None, int | None], CallSite] = {
            _extent(site.node): site
            for site in self.program.callsites.get(fid, [])
        }
        self.env: dict[str, TaintMap] = {}
        self.hash_locals: set[str] = set()
        self.ret: TaintMap = {}
        self.param_sinks: dict[int, dict[tuple[Sink, tuple[str, ...]], Trail]] = {}
        self.hits: list[FlowHit] = []
        self._is_label_fn = bool(LABEL_NAME_RE.search(self.info.node.name))

    # -- entry ---------------------------------------------------------
    def run(self) -> Summary:
        self._seed_params()
        for _ in range(_MAX_BODY_PASSES):
            self.hits = []
            before = (
                {k: dict(v) for k, v in self.env.items()},
                dict(self.ret),
                {k: dict(v) for k, v in self.param_sinks.items()},
            )
            for stmt in self.info.node.body:
                self._stmt(stmt)
            after = (
                {k: dict(v) for k, v in self.env.items()},
                dict(self.ret),
                {k: dict(v) for k, v in self.param_sinks.items()},
            )
            if after == before:
                break
        if self._is_label_fn:
            # Labels are digest material downstream (axis labels key
            # report tables that get hashed), so every kind sinks here — a
            # label built from set iteration is as digest-hostile as lossy
            # text.
            self._feed_sink(self._def_sink("label"), self.ret, ALL_KINDS)
        elif self.fid in self.analysis.digest_scoped:
            # Only taint born in this body: a caller-side set or float
            # text passing through a digest-named helper is reported where
            # it is hashed, not at every payload it rides.  Nondet values
            # in payloads are legitimate (wall-clock fields travel in
            # ``to_json`` without being hashed), so they do not sink here.
            own = {
                item: trail
                for item, trail in self.ret.items()
                if isinstance(item, Tag) and item.origin == self.label
            }
            self._feed_sink(self._def_sink("return"), own, (LOSSY, UNORDERED))
        return Summary(ret=dict(self.ret), param_sinks=self._packed_sinks())

    def _seed_params(self) -> None:
        args = self.info.node.args
        named = {
            arg.arg: arg
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        }
        for index, name in enumerate(self.info.params):
            taints: TaintMap = {ParamTaint(index, ALL_KINDS): ()}
            arg = named.get(name)
            if arg is not None and is_set_annotation(arg.annotation):
                taints[
                    Tag(
                        kind=UNORDERED,
                        path=self.src.display_path,
                        line=arg.lineno,
                        detail=f"set-typed parameter {name!r}",
                        origin=self.label,
                    )
                ] = ()
            self.env[name] = taints

    def _packed_sinks(self) -> dict[int, tuple[SinkPoint, ...]]:
        out: dict[int, tuple[SinkPoint, ...]] = {}
        for index in sorted(self.param_sinks):
            points = sorted(
                SinkPoint(sink=sink, descent=descent, kinds=kinds)
                for (sink, kinds), descent in self.param_sinks[index].items()
            )
            if points:
                out[index] = tuple(points)
        return out

    # -- sinks ---------------------------------------------------------
    def _feed_sink(self, sink: Sink, taints: TaintMap, kinds: tuple[str, ...]) -> None:
        """A value carrying ``taints`` reaches ``sink`` (direct, here)."""
        for item, trail in taints.items():
            if isinstance(item, Tag):
                if item.kind in kinds:
                    self.hits.append(
                        FlowHit(
                            kind=item.kind,
                            tag=item,
                            sink=sink,
                            chain=(*trail, self.label),
                        )
                    )
            else:
                surviving = tuple(k for k in item.kinds if k in kinds)
                if surviving:
                    self._add_param_sink(
                        item.index, sink, (self.label,), surviving
                    )

    def _add_param_sink(
        self, index: int, sink: Sink, descent: tuple[str, ...],
        kinds: tuple[str, ...],
    ) -> None:
        if len(descent) > _MAX_DESCENT:
            return
        slot = self.param_sinks.setdefault(index, {})
        key = (sink, kinds)
        incumbent = slot.get(key)
        if incumbent is None or _better(descent, incumbent):
            slot[key] = descent

    def _def_sink(self, kind: str) -> Sink:
        """A sink on this function's return value, anchored at its def."""
        return Sink(
            kind=kind,
            detail=self.info.node.name,
            path=self.src.display_path,
            line=self.info.node.lineno,
        )

    def _field_write(
        self, cls: ClassInfo, fname: str, taints: TaintMap, line: int
    ) -> None:
        """A value lands in ``cls.fname``: sink if covered, recorded always."""
        label = cls.fid.label
        covered = self.analysis.covered.get(label, frozenset())
        if fname in covered:
            sink = Sink(
                kind="field",
                detail=f"{cls.name}.{fname}",
                path=cls.src.display_path,
                line=cls.field_nodes[fname].lineno
                if fname in cls.field_nodes
                else line,
            )
            self._feed_sink(sink, taints, kinds=ALL_KINDS)
        stored = self.analysis.field_taints.setdefault((label, fname), {})
        for item, trail in taints.items():
            if isinstance(item, Tag):
                incumbent = stored.get(item)
                candidate = (*trail, self.label)
                if incumbent is None or _better(candidate, incumbent):
                    stored[item] = candidate

    def _field_read(self, cls: ClassInfo, fname: str) -> TaintMap:
        stored = self.analysis.field_taints.get((cls.fid.label, fname), {})
        marker = f"field {cls.name}.{fname}"
        return {item: (*trail, marker) for item, trail in stored.items()}

    # -- statements ----------------------------------------------------
    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, stmt.value, value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, stmt.value, self._eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value)
            self._assign(stmt.target, stmt.value, value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                _merge(self.ret, self._eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.If,)):
            self._eval(stmt.test)
            for sub in [*stmt.body, *stmt.orelse]:
                self._stmt(sub)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_names(stmt.target, self._eval(stmt.iter))
            for sub in [*stmt.body, *stmt.orelse]:
                self._stmt(sub)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            for sub in [*stmt.body, *stmt.orelse]:
                self._stmt(sub)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                ctx = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_names(item.optional_vars, ctx)
            for sub in stmt.body:
                self._stmt(sub)
        elif isinstance(stmt, ast.Try):
            for sub in stmt.body:
                self._stmt(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._stmt(sub)
            for sub in [*stmt.orelse, *stmt.finalbody]:
                self._stmt(sub)
        elif isinstance(stmt, ast.Match):
            self._eval(stmt.subject)
            for case in stmt.cases:
                for sub in case.body:
                    self._stmt(sub)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)
        # Nested defs/classes are separate graph nodes; Pass/Break/...
        # carry no taint.

    def _assign(
        self, target: ast.expr, value_node: ast.expr, value: TaintMap
    ) -> None:
        if isinstance(target, ast.Name):
            if self._is_hash_constructor(value_node):
                self.hash_locals.add(target.id)
            _merge(self.env.setdefault(target.id, {}), value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, value_node, value)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, value_node, value)
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            cls = self._receiver_class(target.value.id)
            if cls is not None:
                self._field_write(cls, target.attr, value, target.lineno)

    def _bind_names(self, target: ast.expr, value: TaintMap) -> None:
        if isinstance(target, ast.Name):
            _merge(self.env.setdefault(target.id, {}), value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_names(elt, value)
        elif isinstance(target, ast.Starred):
            self._bind_names(target.value, value)

    def _receiver_class(self, name: str) -> ClassInfo | None:
        if self.info.self_name is not None and name == self.info.self_name:
            return self.program.class_named(
                self.fid.module, self.info.class_name or ""
            )
        return self.program.local_types(self.fid).get(name)

    def _is_hash_constructor(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        site = self.sites.get(_extent(node))
        return (
            site is not None
            and site.kind == "external"
            and site.external in HASH_CONSTRUCTORS
        )

    # -- expressions ---------------------------------------------------
    def _eval(self, node: ast.expr) -> TaintMap:
        if isinstance(node, ast.Name):
            return dict(self.env.get(node.id, {}))
        if isinstance(node, ast.Constant):
            return {}
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.JoinedStr):
            return self._eval_fstring(node)
        if isinstance(node, ast.BinOp):
            out: TaintMap = {}
            _merge(out, self._eval(node.left))
            _merge(out, self._eval(node.right))
            hazard = float_format_hazard(node, self.src)
            if hazard is not None:
                _merge(out, {self._lossy_tag(node.lineno, hazard[1]): ()})
            return out
        if isinstance(node, ast.BoolOp):
            out = {}
            for value in node.values:
                _merge(out, self._eval(value))
            return out
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            for cmp in node.comparators:
                self._eval(cmp)
            return {}
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            out = {}
            _merge(out, self._eval(node.body))
            _merge(out, self._eval(node.orelse))
            return out
        if isinstance(node, (ast.List, ast.Tuple)):
            out = {}
            for elt in node.elts:
                _merge(out, self._eval(elt))
            return out
        if isinstance(node, ast.Set):
            out = {}
            for elt in node.elts:
                _merge(out, self._eval(elt))
            _merge(out, {self._unordered_tag(node.lineno, "set literal"): ()})
            return out
        if isinstance(node, ast.Dict):
            out = {}
            for key in node.keys:
                if key is not None:
                    _merge(out, self._eval(key))
            for value in node.values:
                _merge(out, self._eval(value))
            return out
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            out = self._eval_comprehension(node.generators, [node.elt])
            if isinstance(node, ast.SetComp):
                _merge(
                    out,
                    {self._unordered_tag(node.lineno, "set comprehension"): ()},
                )
            return out
        if isinstance(node, ast.DictComp):
            return self._eval_comprehension(node.generators, [node.key, node.value])
        if isinstance(node, ast.Subscript):
            return self._eval(node.value)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value)
            self._bind_names(node.target, value)
            return value
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value)
        if isinstance(node, ast.Lambda):
            return {}
        if isinstance(node, ast.Slice):
            return {}
        return {}

    def _eval_comprehension(
        self, generators: list[ast.comprehension], result_exprs: list[ast.expr]
    ) -> TaintMap:
        out: TaintMap = {}
        for gen in generators:
            iter_map = self._eval(gen.iter)
            self._bind_names(gen.target, iter_map)
            _merge(out, iter_map)
            for cond in gen.ifs:
                self._eval(cond)
        for expr in result_exprs:
            _merge(out, self._eval(expr))
        return out

    def _eval_fstring(self, node: ast.JoinedStr) -> TaintMap:
        out: TaintMap = {}
        for value in node.values:
            if isinstance(value, ast.FormattedValue):
                _merge(out, self._eval(value.value))
                hazard = float_format_hazard(value, self.src)
                if hazard is not None and not self._is_canon_call(hazard[0]):
                    _merge(
                        out, {self._lossy_tag(value.value.lineno, hazard[1]): ()}
                    )
        return out

    def _is_canon_call(self, node: ast.expr | None) -> bool:
        if not isinstance(node, ast.Call):
            return False
        site = self.sites.get(_extent(node))
        if site is None:
            return False
        if site.kind == "internal" and site.target is not None:
            return site.target.qualname.rsplit(".", 1)[-1] in CANON_CALLS
        if site.kind == "external" and site.external is not None:
            return site.external.rsplit(".", 1)[-1] in CANON_CALLS
        return False

    def _eval_attribute(self, node: ast.Attribute) -> TaintMap:
        out: TaintMap = {}
        if isinstance(node.value, ast.Name):
            cls = self._receiver_class(node.value.id)
            if cls is not None and node.attr in cls.fields:
                _merge(out, self._field_read(cls, node.attr))
            _merge(out, dict(self.env.get(node.value.id, {})))
        else:
            _merge(out, self._eval(node.value))
        return out

    # -- calls ---------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> TaintMap:
        arg_maps = [self._eval(arg) for arg in node.args]
        kw_maps = {
            kw.arg: self._eval(kw.value) for kw in node.keywords
        }  # None key = **kwargs
        site = self.sites.get(_extent(node))
        if site is None:
            return self._union(arg_maps, kw_maps)

        if site.kind == "internal" and site.target is not None:
            return self._apply_internal(node, site.target, arg_maps, kw_maps)
        if site.kind == "constructor" and site.cls is not None:
            self._apply_constructor(node, site.cls, arg_maps, kw_maps)
            return {}
        if site.kind == "external" and site.external is not None:
            return self._apply_external(node, site.external, arg_maps, kw_maps)
        # Open call: method calls on plain locals land here (``h.update``
        # resolves to no graph node), so receiver semantics — hash-sink
        # updates, ``.sort()``, mutators — apply before the conservative
        # pass-through.  The open edge itself is recorded in the graph.
        everything = self._union(arg_maps, kw_maps)
        handled = self._receiver_semantics(node, arg_maps, kw_maps, everything)
        if handled is not None:
            return handled
        out = dict(everything)
        if isinstance(node.func, ast.Attribute):
            _merge(out, self._eval(node.func.value))
        return out

    @staticmethod
    def _union(
        arg_maps: list[TaintMap], kw_maps: dict[str | None, TaintMap]
    ) -> TaintMap:
        out: TaintMap = {}
        for taints in arg_maps:
            _merge(out, taints)
        for taints in kw_maps.values():
            _merge(out, taints)
        return out

    def _callee_arg_map(
        self,
        callee: FunctionInfo,
        index: int,
        arg_maps: list[TaintMap],
        kw_maps: dict[str | None, TaintMap],
    ) -> TaintMap:
        if index < len(arg_maps):
            return arg_maps[index]
        if index < len(callee.params):
            return kw_maps.get(callee.params[index], {})
        return {}

    def _apply_internal(
        self,
        node: ast.Call,
        target: FuncId,
        arg_maps: list[TaintMap],
        kw_maps: dict[str | None, TaintMap],
    ) -> TaintMap:
        callee = self.program.functions[target]
        summary = self.analysis.summaries.get(target, Summary())
        out: TaintMap = {}
        for item, trail in summary.ret.items():
            if isinstance(item, Tag):
                # The tag crossed the callee on its way here.
                _merge(out, {item: (*trail, target.label)})
            else:
                passed = self._callee_arg_map(callee, item.index, arg_maps, kw_maps)
                for inner, inner_trail in passed.items():
                    if isinstance(inner, Tag):
                        if inner.kind in item.kinds:
                            _merge(out, {inner: inner_trail})
                    else:
                        kinds = tuple(
                            k for k in inner.kinds if k in item.kinds
                        )
                        if kinds:
                            _merge(
                                out,
                                {ParamTaint(inner.index, kinds): inner_trail},
                            )
        for index, points in summary.param_sinks.items():
            passed = self._callee_arg_map(callee, index, arg_maps, kw_maps)
            if not passed:
                continue
            for point in points:
                for inner, inner_trail in passed.items():
                    if isinstance(inner, Tag):
                        if inner.kind in point.kinds:
                            self.hits.append(
                                FlowHit(
                                    kind=inner.kind,
                                    tag=inner,
                                    sink=point.sink,
                                    chain=(
                                        *inner_trail,
                                        self.label,
                                        *point.descent,
                                    ),
                                )
                            )
                    else:
                        kinds = tuple(
                            k for k in inner.kinds if k in point.kinds
                        )
                        if kinds:
                            self._add_param_sink(
                                inner.index,
                                point.sink,
                                (self.label, *point.descent),
                                kinds,
                            )
        return out

    def _apply_constructor(
        self,
        node: ast.Call,
        cls: ClassInfo,
        arg_maps: list[TaintMap],
        kw_maps: dict[str | None, TaintMap],
    ) -> None:
        if not cls.is_dataclass:
            return
        for index, taints in enumerate(arg_maps):
            if index < len(cls.fields) and taints:
                self._field_write(cls, cls.fields[index], taints, node.lineno)
        for name, taints in kw_maps.items():
            if name is not None and name in cls.fields and taints:
                self._field_write(cls, name, taints, node.lineno)

    def _apply_external(
        self,
        node: ast.Call,
        name: str,
        arg_maps: list[TaintMap],
        kw_maps: dict[str | None, TaintMap],
    ) -> TaintMap:
        tail = name.rsplit(".", 1)[-1]
        everything = self._union(arg_maps, kw_maps)

        if tail in CANON_CALLS:
            return _strip(everything, LOSSY)
        if name in NONDET_SOURCES:
            return {
                self._tag(NONDET, node.lineno, f"{name}() — {NONDET_SOURCES[name]}"): ()
            }
        rng = is_unseeded_rng(name, node)
        if rng is not None:
            return {self._tag(NONDET, node.lineno, f"{name}() — {rng}"): ()}
        if name == "format":
            hazard = float_format_hazard(node, self.src)
            if hazard is not None and not self._is_canon_call(hazard[0]):
                out = dict(everything)
                _merge(out, {self._lossy_tag(node.lineno, hazard[1]): ()})
                return out
            return everything
        if name in ORDER_FREE_CALLS:
            return _strip(everything, UNORDERED)
        if name in PREDICATE_CALLS:
            return {}
        if name in {"set", "frozenset"}:
            out = dict(everything)
            _merge(out, {self._unordered_tag(node.lineno, f"{name}() construction"): ()})
            return out
        if name in WALK_CALLS:
            return {
                self._unordered_tag(
                    node.lineno, f"{name}() yields entries in inode order"
                ): ()
            }
        if name in HASH_CONSTRUCTORS:
            if everything:
                self._feed_sink(self._hash_sink(node, name), everything, ALL_KINDS)
            return {}
        if name == "json.dumps":
            # Only the *canonical* form is a sink: ``sort_keys=...`` is
            # this repo's convention for digest material.  A plain dump
            # (transport serialization, e.g. ``to_json``) passes taint
            # through — if its output is hashed, the hash sink fires.
            if any(kw.arg == "sort_keys" for kw in node.keywords):
                self._feed_sink(
                    Sink(
                        kind="json",
                        detail="json.dumps(sort_keys=...)",
                        path=self.src.display_path,
                        line=node.lineno,
                    ),
                    everything,
                    ALL_KINDS,
                )
                return {}
            return everything

        # Method-shaped externals share receiver semantics with opens.
        handled = self._receiver_semantics(node, arg_maps, kw_maps, everything)
        if handled is not None:
            return handled
        if isinstance(node.func, ast.Attribute):
            out = dict(everything)
            _merge(out, self._eval(node.func.value))
            return out
        return everything

    def _receiver_semantics(
        self,
        node: ast.Call,
        arg_maps: list[TaintMap],
        kw_maps: dict[str | None, TaintMap],
        everything: TaintMap,
    ) -> TaintMap | None:
        """Model ``receiver.method(...)`` calls; None when not one."""
        if not isinstance(node.func, ast.Attribute):
            return None
        attr = node.func.attr
        receiver = node.func.value
        if attr in WALK_METHODS:
            return {
                self._unordered_tag(
                    node.lineno, f".{attr}() yields entries in inode order"
                ): ()
            }
        if not isinstance(receiver, ast.Name):
            return None
        rname = receiver.id
        if rname in self.hash_locals:
            if attr == "update":
                if everything:
                    self._feed_sink(
                        self._hash_sink(node, f"{rname}.update"),
                        everything,
                        ALL_KINDS,
                    )
                return {}
            if attr in ("hexdigest", "digest", "copy"):
                return {}
        if attr == "sort":
            slot = self.env.get(rname)
            if slot is not None:
                self.env[rname] = _strip(slot, UNORDERED)
            return {}
        if attr in MUTATORS:
            # The key/index argument of setdefault/insert never becomes
            # container *content* — an ``id()`` dict key must not taint
            # the values iterated out of the dict.
            skip = 1 if attr in ("setdefault", "insert") else 0
            stored: TaintMap = {}
            for taints in arg_maps[skip:]:
                _merge(stored, taints)
            for taints in kw_maps.values():
                _merge(stored, taints)
            if stored:
                _merge(self.env.setdefault(rname, {}), stored)
            return dict(stored) if attr == "setdefault" else {}
        return None

    # -- tag/sink builders ---------------------------------------------
    def _tag(self, kind: str, line: int, detail: str) -> Tag:
        return Tag(
            kind=kind,
            path=self.src.display_path,
            line=line,
            detail=detail,
            origin=self.label,
        )

    def _unordered_tag(self, line: int, detail: str) -> Tag:
        return self._tag(UNORDERED, line, detail)

    def _lossy_tag(self, line: int, detail: str) -> Tag:
        return self._tag(LOSSY, line, detail)

    def _hash_sink(self, node: ast.Call, detail: str) -> Sink:
        return Sink(
            kind="hash",
            detail=detail,
            path=self.src.display_path,
            line=node.lineno,
        )


__all__ = ["FlowAnalysis", "FlowHit", "Summary", "Trail"]
