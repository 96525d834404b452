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

**One p-free plan per graph.**  Every node of Equation 1's recursion adds
``p`` and nothing else, so ``A(S, u, p) = p · A(S, u, 1)`` exactly, and
Equation 2 sums such amounts.  Each graph therefore keeps one
:class:`PremiumPlan`, slotted on the graph instance itself and computed
at ``p = 1``; every sizing function here but the footnote-7 pruned
variant scales a plan entry by ``p``.
The recursion tests only *membership* in the path, never order, so
Equation 1 is memoized on (member set, beneficiary): at most ``n·2^n``
entries, filled once for all premiums.  The plan dies with its graph, so
distinct graphs never share entries; a builder of many deals over one
digraph shares one graph instance to share its plan (the campaign matrix
does, per block; the ablation grid and the quote service do, per family
name).

**Worst-case funding from inclusion-minimal paths.**  A redeemer's
worst-case deposit is the largest Equation-1 amount over every simple path
it could authenticate to the leader.  Equation 1 is antitone in the member
set: ``S ⊆ T`` implies ``A(S, u) ≥ A(T, u)``.  (By induction on
``|V ∖ S|``: if ``u ∈ T`` then ``A(T, u) = 1``, the least amount;
otherwise both sums run over the same in-neighbors ``x`` of ``u``, and
each term ``A(T ∪ {u}, x)`` is at most ``A(S ∪ {u}, x)``.)  So the maximum is
reached on an inclusion-minimal member set, and
:func:`minimal_path_member_sets` searches only those: a breadth-first
search by member count that drops every state whose members already
contain a found set minus the target.  On ``complete:N`` it finds only
the direct arc, in ``N`` states.  A negative ``p`` would turn the
maximum into a minimum, so the worst case refuses it.

**Evaluation.**  Every recurrence runs as a loop over an explicit stack or
frontier and keeps its memo in plain dicts.  A recursion limit therefore
does not cap the graph size (a ring of n parties nests n deep), and
sizing a deal creates no reference cycles — the plan holds no reference
back to its graph — so the cycle collector never has to run for it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.errors import GraphError, ProtocolError
from repro.graph.digraph import Arc, SwapGraph
from repro.graph.feedback import is_feedback_vertex_set, minimum_feedback_vertex_set
from repro.graph.schedule import MultiPartySchedule


@dataclass
class PremiumPlan:
    """Equations 1–2 of one graph at ``p = 1``; callers scale by ``p``.

    Every table fills on first use and never changes after: a second
    build over the same graph, at any premium, adds no entries.
    """

    #: Equation 1: ``(path member set, beneficiary) -> A(S, u, 1)``
    redemption: dict[tuple[frozenset[str], str], int] = field(default_factory=dict)
    #: ``(redeemer, beneficiary, leader) -> `` worst-case Equation-1 amount
    worst: dict[tuple[str, str, str], int] = field(default_factory=dict)
    #: Equation 2 per leader set: ``arc -> E(u, v)``
    escrow: dict[frozenset[str], dict[Arc, int]] = field(default_factory=dict)
    #: per leader set, ``arc (u, v) ->`` the most ``v`` may owe ``u`` for
    #: any one leader
    funding: dict[frozenset[str], dict[Arc, int]] = field(default_factory=dict)
    #: the graph's default leaders (its minimum feedback vertex set)
    leaders: tuple[str, ...] | None = None
    #: per leader tuple, the checked follower depths of the swap schedule
    depths: dict[tuple[str, ...], dict[str, int]] = field(default_factory=dict)
    #: states the minimal member-set searches have visited
    search_states: int = 0

    def sizes(self) -> dict[str, int]:
        """Entries held per table (escrow and funding count arcs)."""
        return {
            "eq1": len(self.redemption),
            "worst": len(self.worst),
            "escrow": sum(map(len, self.escrow.values())),
            "funding": sum(map(len, self.funding.values())),
        }


def premium_plan(graph: SwapGraph) -> PremiumPlan:
    """``graph``'s premium plan, created empty on first use.

    ``SwapGraph`` is a frozen dataclass, but — like ``cached_property``,
    which the graph already uses — the plan can be slotted straight into
    the instance ``__dict__``; it dies with the graph.
    """
    plan = graph.__dict__.get("_premium_plan")
    if plan is None:
        plan = graph.__dict__["_premium_plan"] = PremiumPlan()
    return plan


def default_leaders(graph: SwapGraph) -> tuple[str, ...]:
    """The graph's minimum feedback vertex set, derived once per graph."""
    plan = premium_plan(graph)
    if plan.leaders is None:
        plan.leaders = minimum_feedback_vertex_set(graph)
    return plan.leaders


def swap_schedule(graph: SwapGraph, leaders: tuple[str, ...]) -> MultiPartySchedule:
    """The phase schedule of a multi-party swap on ``graph`` led by ``leaders``.

    The graph's strong connectivity, the leaders' feedback-set check and
    the follower depths are derived once per (graph, leaders) and kept as
    depths in the plan (a schedule refers to its graph, so the plan holds
    none); every later swap over them reuses the depths unchecked.
    """
    plan = premium_plan(graph)
    depths = plan.depths.get(leaders)
    if depths is None:
        if not graph.is_strongly_connected():
            raise ProtocolError("swap digraph must be strongly connected")
        depths = plan.depths[leaders] = MultiPartySchedule(graph, leaders).depths
    return MultiPartySchedule(graph, leaders, depths)


def redemption_premium_amount(
    graph: SwapGraph, path: tuple[str, ...], beneficiary: str, p: int
) -> int:
    """Equation 1: the amount of a redemption premium deposit.

    ``path`` is redeemer-first: ``path[0]`` is the depositor ``v`` (the
    redeemer on arc ``(beneficiary, v)``), ``path[-1]`` the leader.  The
    result is ``p`` when the beneficiary already lies on the path (no
    passthrough needed — the leader case is the paper's "cycle" clause),
    otherwise ``p`` plus the beneficiary's own extended deposits on every
    arc entering it.  It is ``p`` times the plan's entry for the path's
    member set (see the module docstring).
    """
    if not path:
        raise GraphError("empty premium path")
    if not graph.is_path(path):
        raise GraphError(f"{path} is not a simple forward path")
    return p * unit_redemption_amount(graph, frozenset(path), beneficiary)


def unit_redemption_amount(
    graph: SwapGraph, members: frozenset[str], beneficiary: str
) -> int:
    """Equation 1 at ``p = 1`` on a path *member set*, through the plan.

    Nothing is checked: the recursion is defined on any vertex set, and
    the caller vouches that ``members`` belongs to a path the deposit may
    carry.  The recursion runs on an explicit stack of ``(key,
    extended members, unvisited in-neighbors, partial sum)`` frames, one
    per plan miss, so its depth is bounded by memory rather than by the
    interpreter's recursion limit (a ring of n parties nests n deep).
    """
    if beneficiary in members:
        return 1
    memo = premium_plan(graph).redemption
    key = (members, beneficiary)
    total = memo.get(key)
    if total is not None:
        return total
    in_neighbors = graph.in_neighbors
    extended = members | {beneficiary}
    todo = iter(in_neighbors(beneficiary))
    total = 1
    stack: list[tuple[tuple, frozenset[str], Iterator[str], int]] = []
    while True:
        for x in todo:
            if x in extended:
                total += 1
                continue
            child = (extended, x)
            value = memo.get(child)
            if value is None:
                stack.append((key, extended, todo, total))
                key, extended, todo, total = (
                    child, extended | {x}, iter(in_neighbors(x)), 1
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


def _member_set_order(members: frozenset[str]) -> tuple:
    return (len(members), tuple(sorted(members)))


def path_member_sets(
    graph: SwapGraph, source: str, target: str
) -> tuple[frozenset[str], ...]:
    """The vertex sets of all simple forward paths ``source`` → ``target``.

    Enumerated by a ``(member set, tip)`` state search — at most ``n·2^n``
    states — rather than by walking the paths themselves, of which a dense
    graph has factorially many (``complete:8`` holds 1957 simple paths per
    ordered pair).  Sizing never needs them all (see
    :func:`minimal_path_member_sets`); this is for tests and tables, and
    keeps no memo.  Deterministically ordered.
    """
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
    return tuple(sorted(results, key=_member_set_order))


def minimal_path_member_sets(
    graph: SwapGraph, source: str, target: str
) -> tuple[frozenset[str], ...]:
    """The inclusion-minimal member sets of simple paths ``source`` → ``target``.

    A breadth-first search over ``(member set, tip)`` states, one layer
    per member count.  A layer first records the sets of its states that
    reached the target, then expands only the states whose members
    contain no recorded set minus the target: every completion of such a
    state would contain a recorded set.  A set recorded at member count
    ``k`` is minimal, since any smaller set was recorded in an earlier
    layer and pruned its supersets.  The states visited are added to the
    graph plan's ``search_states``.  Deterministically ordered.
    """
    found: list[frozenset[str]] = []
    layer = {(frozenset((source,)), source)}
    visited = 0
    while layer:
        visited += len(layer)
        found += [members for members, tip in layer if tip == target]
        heads = [members - {target} for members in found]
        upper: set[tuple[frozenset[str], str]] = set()
        for members, tip in layer:
            if tip == target or any(head <= members for head in heads):
                continue
            for w in graph.out_neighbors(tip):
                if w not in members:
                    upper.add((members | {w}, w))
        layer = upper
    premium_plan(graph).search_states += visited
    return tuple(sorted(found, key=_member_set_order))


def worst_case_redemption_amount(
    graph: SwapGraph, redeemer: str, beneficiary: str, leader: str, p: int
) -> int:
    """The largest Equation-1 deposit ``redeemer`` may owe ``beneficiary``.

    The maximum of :func:`redemption_premium_amount` over every simple
    path the redeemer could authenticate from itself to the leader.  The
    amount depends on the path only through its member set and is
    antitone in that set, so the maximum is taken over
    :func:`minimal_path_member_sets` alone.  This is the quantity
    worst-case native funding needs per arc.  Returns 0 when no path
    exists.  The plan keeps it per ``(redeemer, beneficiary, leader)`` at
    ``p = 1``; one search fills the entry of every in-neighbor of the
    redeemer too, since worst-case funding asks for each of them.  A
    negative ``p`` raises :class:`GraphError`, because the maximum does
    not commute with a negative scale.
    """
    if p < 0:
        raise GraphError(f"worst-case premium needs p >= 0, got {p}")
    memo = premium_plan(graph).worst
    key = (redeemer, beneficiary, leader)
    worst = memo.get(key)
    if worst is None:
        sets = minimal_path_member_sets(graph, redeemer, leader)
        for u in (beneficiary, *graph.in_neighbors(redeemer)):
            memo[(redeemer, u, leader)] = max(
                (unit_redemption_amount(graph, members, u) for members in sets),
                default=0,
            )
        worst = memo[key]
    return p * worst


def worst_case_funding(
    graph: SwapGraph, leaders: tuple[str, ...] | frozenset[str], p: int
) -> dict[Arc, int]:
    """Per arc ``(u, v)``: the most ``v`` may owe ``u`` for any one leader.

    The maximum of :func:`worst_case_redemption_amount` over the leaders,
    kept by the plan per leader set at ``p = 1``; graph arc order.
    """
    if p < 0:
        raise GraphError(f"worst-case premium needs p >= 0, got {p}")
    leader_set = frozenset(leaders)
    funding = premium_plan(graph).funding
    unit = funding.get(leader_set)
    if unit is None:
        unit = funding[leader_set] = {
            (u, v): max(
                (
                    worst_case_redemption_amount(graph, v, u, leader, 1)
                    for leader in sorted(leader_set)
                ),
                default=0,
            )
            for (u, v) in graph.arcs
        }
    return {arc: p * amount for arc, amount in unit.items()}


def leader_redemption_total(graph: SwapGraph, leader: str, p: int) -> int:
    """``R(L_i)``: the sum of the leader's own deposits on incoming arcs."""
    return p * _leader_unit_total(graph, leader)


def _leader_unit_total(graph: SwapGraph, leader: str) -> int:
    members = frozenset((leader,))
    return sum(
        unit_redemption_amount(graph, members, u)
        for u in graph.in_neighbors(leader)
    )


def escrow_premium_amounts(
    graph: SwapGraph, leaders: tuple[str, ...] | frozenset[str], p: int
) -> dict[Arc, int]:
    """Equation 2: the escrow premium ``E(u, v)`` for every arc.

    Each arc entering a leader carries that leader's redemption total; each
    arc entering a follower covers the sum of the follower's outgoing
    escrow premiums.  The plan keeps the table per leader set at ``p = 1``.
    """
    leader_set = frozenset(leaders)
    escrow = premium_plan(graph).escrow
    unit = escrow.get(leader_set)
    if unit is None:
        if not is_feedback_vertex_set(graph, leader_set):
            raise GraphError(f"{sorted(leader_set)} is not a feedback vertex set")
        need: dict[str, int] = {}
        unit = escrow[leader_set] = {
            (u, v): _escrow_need(graph, leader_set, need, v) for (u, v) in graph.arcs
        }
    return {arc: p * amount for arc, amount in unit.items()}


def _escrow_need(
    graph: SwapGraph, leader_set: frozenset[str], need: dict[str, int], root: str
) -> int:
    """Equation 2's ``E(·, root)`` at ``p = 1``, through ``need`` (vertex ->
    amount).

    A post-order walk over followers on an explicit stack of ``(vertex,
    unvisited out-neighbors, partial sum)`` frames that fills ``need`` for
    every vertex it reaches; it ends because the leaders are a feedback
    vertex set, so every follower path reaches one.
    """
    total = need.get(root)
    if total is not None:
        return total
    if root in leader_set:
        need[root] = total = _leader_unit_total(graph, root)
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
                value = need[w] = _leader_unit_total(graph, w)
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
