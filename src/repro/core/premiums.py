"""Premium formulas — Equations 1 and 2 of §7.1.

**Redemption premiums** flow backward from each leader.  A deposit by ``v``
on incoming arc ``(u, v)`` carries a path ``q`` from ``v`` to the leader
``L_i`` and must be large enough that if hashkey ``k_i`` never reaches
``v``, the premium ``v`` collects covers both a compensation ``p`` for
``u``'s locked asset and every passthrough deposit ``u`` itself made.  The
paper's Equation 1::

    R_i(q, v) = p                                  if v ‖ q is a cycle
    R_i(q, v) = p + Σ_{(u,v) ∈ G} R_i(v ‖ q, u)    otherwise

In our notation :func:`redemption_premium_amount` computes the amount of
the deposit with (redeemer-first) path ``q`` whose beneficiary is ``u``:
the beneficiary passes nothing through when it already lies on the path
(in particular when it *is* the leader — the paper's "v ‖ q is a cycle"
case), so the amount is ``p``; otherwise it is ``p`` plus the deposits the
beneficiary will make on its own incoming arcs with the extended path.

**Escrow premiums** flow forward (Equation 2)::

    E(u, v) = R(L_i)            if v is leader L_i
    E(u, v) = Σ_{(v,w) ∈ G} E(v, w)   otherwise

well-defined because leaders form a feedback vertex set.

Everything is exact integer arithmetic: with integer ``p`` both equations
stay integral.

**Complexity.**  Equation 1's recursion branches over every simple
extension of the path, which is exponential in the vertex count if
evaluated naively — dense graphs beyond ``complete:5`` were infeasible.
But the recursion only ever tests *membership* in the path, never order,
so its true state space is (vertex subset, beneficiary): at most
``n·2^n`` states per ``(graph, p)``.  :func:`redemption_premium_amount`
memoizes on that key, shared across calls through a cache slotted on the
graph instance itself, which is what makes ``complete:6+`` premium
sizing (and the per-deposit re-validation inside
:class:`repro.contracts.swap_arc.HedgedSwapArc`) feasible.  The simple-path
member sets and the worst-case funding amount are memoized the same way.

Every such memo lives exactly as long as its graph instance.  A builder
that makes a fresh graph per deal therefore starts cold on every build;
builders of many deals over one digraph must share one graph instance
to benefit (the campaign matrix does, per block).

**Evaluation.**  Both recurrences run as loops over an explicit stack
and keep their memos in plain dicts.  A recursion limit therefore does
not cap the graph size (a ring of n parties nests n deep), and sizing a
deal creates no reference cycles, so the cycle collector never has to
run for it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.errors import GraphError
from repro.graph.digraph import Arc, SwapGraph
from repro.graph.feedback import is_feedback_vertex_set


def _graph_memo(graph: SwapGraph, name: str) -> dict:
    """The graph's shared memo called ``name``, created on first use.

    ``SwapGraph`` is a frozen dataclass, but — like ``cached_property``,
    which the graph already uses — we can slot a cache straight into the
    instance ``__dict__``; it dies with the graph, so distinct graphs can
    never share entries.
    """
    memo = graph.__dict__.get(name)
    if memo is None:
        memo = graph.__dict__[name] = {}
    return memo


#: every per-graph memo this module keeps, by ``__dict__`` slot name
GRAPH_MEMOS = ("_equation1_memo", "_path_member_sets_memo", "_worst_case_memo")


def memo_sizes(graph: SwapGraph) -> dict[str, int]:
    """Entries held in each of ``graph``'s premium memos (0 if unused)."""
    return {name: len(graph.__dict__.get(name, ())) for name in GRAPH_MEMOS}


def redemption_premium_amount(
    graph: SwapGraph, path: tuple[str, ...], beneficiary: str, p: int
) -> int:
    """Equation 1: the amount of a redemption premium deposit.

    ``path`` is redeemer-first: ``path[0]`` is the depositor ``v`` (the
    redeemer on arc ``(beneficiary, v)``), ``path[-1]`` the leader.  The
    result is ``p`` when the beneficiary already lies on the path (no
    passthrough needed — the leader case is the paper's "cycle" clause),
    otherwise ``p`` plus the beneficiary's own extended deposits on every
    arc entering it.

    The recursion depends on the path only through its *member set* (the
    base case is a membership test and extensions only add members), so
    results are memoized per graph on ``(frozenset(path), beneficiary,
    p)`` — see the module docstring.
    """
    if not path:
        raise GraphError("empty premium path")
    if not graph.is_path(path):
        raise GraphError(f"{path} is not a simple forward path")
    return _memoized_amount(graph, frozenset(path), beneficiary, p)


def _memoized_amount(
    graph: SwapGraph, members: frozenset[str], beneficiary: str, p: int
) -> int:
    """Equation 1 on a path *member set*, through the graph's shared memo.

    The recursion runs on an explicit stack of ``(key, extended members,
    unvisited in-neighbors, partial sum)`` frames, one per memo miss, so
    its depth is bounded by memory rather than by the interpreter's
    recursion limit (a ring of n parties nests n deep).
    """
    if beneficiary in members:
        return p
    memo = _graph_memo(graph, "_equation1_memo")
    key = (members, beneficiary, p)
    total = memo.get(key)
    if total is not None:
        return total
    in_neighbors = graph.in_neighbors
    extended = members | {beneficiary}
    todo = iter(in_neighbors(beneficiary))
    total = p
    stack: list[tuple[tuple, frozenset[str], Iterator[str], int]] = []
    while True:
        for x in todo:
            if x in extended:
                total += p
                continue
            child = (extended, x, p)
            value = memo.get(child)
            if value is None:
                stack.append((key, extended, todo, total))
                key, extended, todo, total = (
                    child, extended | {x}, iter(in_neighbors(x)), p
                )
                break
            total += value
        else:
            memo[key] = total
            if not stack:
                return total
            value = total
            key, extended, todo, total = stack.pop()
            total += value


def path_member_sets(
    graph: SwapGraph, source: str, target: str
) -> tuple[frozenset[str], ...]:
    """The vertex sets of all simple forward paths ``source`` → ``target``.

    Enumerated by a ``(member set, tip)`` state search — at most ``n·2^n``
    states — rather than by walking the paths themselves, of which a dense
    graph has factorially many (``complete:8`` holds 1957 simple paths per
    ordered pair, but only their distinct member sets matter to Equation
    1).  Results are cached on the graph instance per ``(source, target)``,
    deterministically ordered.
    """
    cache = _graph_memo(graph, "_path_member_sets_memo")
    key = (source, target)
    cached = cache.get(key)
    if cached is not None:
        return cached
    results: set[frozenset[str]] = set()
    start = (frozenset((source,)), source)
    seen = {start}
    stack = [start]
    while stack:
        members, tip = stack.pop()
        if tip == target:
            results.add(members)
            continue
        for w in graph.out_neighbors(tip):
            if w in members:
                continue
            state = (members | {w}, w)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    ordered = tuple(
        sorted(results, key=lambda s: (len(s), tuple(sorted(s))))
    )
    cache[key] = ordered
    return ordered


def worst_case_redemption_amount(
    graph: SwapGraph, redeemer: str, beneficiary: str, leader: str, p: int
) -> int:
    """The largest Equation-1 deposit ``redeemer`` may owe ``beneficiary``.

    Maximizes :func:`redemption_premium_amount` over every simple path the
    redeemer could authenticate from itself to the leader — but since the
    amount depends on the path only through its member set, the maximum is
    taken over :func:`path_member_sets` instead of the (factorially more
    numerous) paths.  This is the quantity worst-case native funding needs
    per arc, and what made ``complete:7``/``complete:8`` builders feasible.
    Returns 0 when no path exists.  Cached on the graph instance per
    ``(redeemer, beneficiary, leader, p)``.
    """
    memo = _graph_memo(graph, "_worst_case_memo")
    key = (redeemer, beneficiary, leader, p)
    cached = memo.get(key)
    if cached is None:
        cached = memo[key] = max(
            (
                _memoized_amount(graph, members, beneficiary, p)
                for members in path_member_sets(graph, redeemer, leader)
            ),
            default=0,
        )
    return cached


def leader_redemption_total(graph: SwapGraph, leader: str, p: int) -> int:
    """``R(L_i)``: the sum of the leader's own deposits on incoming arcs."""
    return sum(
        redemption_premium_amount(graph, (leader,), u, p)
        for u in graph.in_neighbors(leader)
    )


def escrow_premium_amounts(
    graph: SwapGraph, leaders: tuple[str, ...] | frozenset[str], p: int
) -> dict[Arc, int]:
    """Equation 2: the escrow premium ``E(u, v)`` for every arc.

    Each arc entering a leader carries that leader's redemption total; each
    arc entering a follower covers the sum of the follower's outgoing
    escrow premiums.
    """
    leader_set = frozenset(leaders)
    if not is_feedback_vertex_set(graph, leader_set):
        raise GraphError(f"{sorted(leader_set)} is not a feedback vertex set")
    need: dict[str, int] = {}
    return {(u, v): _escrow_need(graph, leader_set, p, need, v) for (u, v) in graph.arcs}


def _escrow_need(
    graph: SwapGraph, leader_set: frozenset[str], p: int, need: dict[str, int], root: str
) -> int:
    """Equation 2's ``E(·, root)``, through ``need`` (vertex -> amount).

    A post-order walk over followers on an explicit stack of ``(vertex,
    unvisited out-neighbors, partial sum)`` frames that fills ``need`` for
    every vertex it reaches; it ends because the leaders are a feedback
    vertex set, so every follower path reaches one.
    """
    total = need.get(root)
    if total is not None:
        return total
    if root in leader_set:
        need[root] = total = leader_redemption_total(graph, root, p)
        return total
    out_neighbors = graph.out_neighbors
    v, todo, total = root, iter(out_neighbors(root)), 0
    stack: list[tuple[str, Iterator[str], int]] = []
    while True:
        for w in todo:
            value = need.get(w)
            if value is None:
                if w not in leader_set:
                    stack.append((v, todo, total))
                    v, todo, total = w, iter(out_neighbors(w)), 0
                    break
                value = need[w] = leader_redemption_total(graph, w, p)
            total += value
        else:
            need[v] = total
            if not stack:
                return total
            value = total
            v, todo, total = stack.pop()
            total += value


def redemption_premium_table(
    graph: SwapGraph, leader: str, p: int
) -> dict[Arc, dict[tuple[str, ...], int]]:
    """All possible (path → amount) deposits per arc for one leader.

    On arc ``(u, v)`` the depositor ``v`` may use any simple forward path
    from ``v`` to the leader that the beneficiary can verify; which one is
    used at runtime depends on where ``v`` first saw a premium.  This table
    (used by benchmarks and the Figure 3 reproduction) enumerates them all.
    """
    table: dict[Arc, dict[tuple[str, ...], int]] = {}
    for arc in graph.arcs:
        u, v = arc
        table[arc] = {
            q: redemption_premium_amount(graph, q, u, p)
            for q in graph.simple_paths(v, leader)
        }
    return table


def worst_case_leader_premium(graph: SwapGraph, leaders: tuple[str, ...], p: int) -> int:
    """The largest premium any single leader must front (for EXP-T3)."""
    return max(leader_redemption_total(graph, leader, p) for leader in leaders)


# ----------------------------------------------------------------------
# contract-aware (pruned) variant — footnote 7 of §8.2
# ----------------------------------------------------------------------
#
# When several arcs share one escrow contract (the broker's coin contract
# hosts both (C,A) and (A,B)), a hashkey presented for one arc is already on
# the contract for the other, so the forwarding step — and therefore the
# matching redemption premium — is unnecessary.  ``contract_of`` maps each
# arc to its hosting contract; passing ``None`` reduces every function below
# to the plain Equation 1/flow (each arc its own contract).


def pruned_redemption_premium_amount(
    graph: SwapGraph,
    path: tuple[str, ...],
    beneficiary: str,
    p: int,
    contract_of: dict[Arc, str] | None = None,
) -> int:
    """Equation 1 with footnote-7 pruning of same-contract forwarding.

    The beneficiary ``u`` of a deposit with path ``q`` (made on arc
    ``(u, q[0])``) only needs passthrough cover for incoming arcs hosted on
    a *different* contract than the arc it observes ``k_i`` on.
    """
    if contract_of is None:
        return redemption_premium_amount(graph, path, beneficiary, p)
    if not path:
        raise GraphError("empty premium path")
    if not graph.is_path(path):
        raise GraphError(f"{path} is not a simple forward path")

    # Unrolled, the recursion adds ``p`` once per call in its call tree, so
    # a worklist that adds ``p`` per visited ``(path, beneficiary)`` gives
    # the same integer.  A call's path is its parent's path plus one
    # vertex, so states do not repeat and a memo would not pay.
    total = 0
    stack = [(tuple(path), beneficiary)]
    while stack:
        q, u = stack.pop()
        total += p
        if u in q:
            continue
        observe_contract = contract_of[(u, q[0])]
        extended = (u,) + q
        for x in graph.in_neighbors(u):
            if contract_of[(x, u)] == observe_contract:
                continue  # footnote 7: the key is already on that contract
            stack.append((extended, x))
    return total


@dataclass(frozen=True)
class PremiumDeposit:
    """One redemption-premium deposit in the compliant flow."""

    round: int
    arc: Arc
    leader: str
    path: tuple[str, ...]
    amount: int

    @property
    def depositor(self) -> str:
        return self.path[0]


def redemption_premium_flow(
    graph: SwapGraph,
    leaders: tuple[str, ...] | frozenset[str],
    p: int,
    contract_of: dict[Arc, str] | None = None,
) -> list[PremiumDeposit]:
    """Simulate the compliant phase-2 deposit flow.

    Round 0: each leader deposits on its incoming arcs (one per hosting
    contract when pruning).  Round t+1: a party that first saw a premium for
    ``k_i`` on one of its outgoing arcs at round t extends the path and
    deposits on its incoming arcs (skipping same-contract arcs when
    pruning).  Ties break lexicographically, matching the actors.
    """
    deposits: list[PremiumDeposit] = []
    for leader in sorted(leaders):
        per_arc: dict[Arc, PremiumDeposit] = {}
        done: set[str] = {leader}

        def place(rnd: int, arc: Arc, path: tuple[str, ...]) -> None:
            if arc in per_arc:
                return
            amount = pruned_redemption_premium_amount(graph, path, arc[0], p, contract_of)
            per_arc[arc] = PremiumDeposit(rnd, arc, leader, path, amount)

        origin_contracts: set[str] = set()
        for arc in sorted(graph.in_arcs(leader)):
            if contract_of is not None:
                host = contract_of[arc]
                if host in origin_contracts:
                    continue
                origin_contracts.add(host)
            place(0, arc, (leader,))

        for rnd in range(1, len(graph.parties) + 1):
            snapshot = dict(per_arc)
            for v in sorted(graph.parties):
                if v in done:
                    continue
                triggers = [
                    snapshot[arc]
                    for arc in sorted(graph.out_arcs(v))
                    if arc in snapshot and snapshot[arc].round < rnd
                ]
                if not triggers:
                    continue
                first = min(triggers, key=lambda d: (d.round, d.arc))
                done.add(v)
                if v in first.path:
                    continue
                extended = (v,) + first.path
                for arc in sorted(graph.in_arcs(v)):
                    if (
                        contract_of is not None
                        and contract_of[arc] == contract_of[first.arc]
                    ):
                        continue
                    place(rnd, arc, extended)
        deposits.extend(per_arc.values())
    return sorted(deposits, key=lambda d: (d.round, d.leader, d.arc))


def required_redemption_keys(
    graph: SwapGraph,
    leaders: tuple[str, ...] | frozenset[str],
    contract_of: dict[Arc, str] | None = None,
) -> dict[Arc, frozenset[str]]:
    """Which leaders' premiums each arc expects (its activation set)."""
    flow = redemption_premium_flow(graph, leaders, 1, contract_of)
    required: dict[Arc, set[str]] = {arc: set() for arc in graph.arcs}
    for deposit in flow:
        required[deposit.arc].add(deposit.leader)
    return {arc: frozenset(keys) for arc, keys in required.items()}
