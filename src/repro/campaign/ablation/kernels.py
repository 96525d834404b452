"""Payoff kernels: the ablation grid without per-cell replays.

The frontier and refine engines replay the full object-oriented protocol
(contracts, ledger, parties) once per scenario, yet across a premium ×
shock × stage grid almost everything repeats: at a fixed ``(family,
coalition, integer premium)`` the *transactions* of a run depend only on
the rounds the pivot participates — prices are exogenous, so a shock
changes decisions, never trajectories.  The §5.2 outcomes are therefore
piecewise constant in trajectory and closed-form in payoff, which is what
this module exploits:

1. **Pair calibration.**  A cell context
   (:func:`repro.campaign.ablation.grid.family_cell`) is calibrated by a
   real compliant run with the pivot wrapped in a pass-through recorder.
   The context itself builds no protocol: its contracts, schedule and
   pivot set come from the ``(family, coalition)``'s shared, premium-free
   :func:`~repro.campaign.ablation.grid.cell_shape`, so that run is the
   calibration's only build.  Each round it captures the pivot (set)'s
   walk-forfeit stake — price-independent by construction — and the
   symbolic completion-gain terms
   (:func:`repro.parties.rational.completion_gain_terms`), i.e. the exact
   ``(sign, amount, asset)`` folds the live
   :class:`~repro.parties.rational.UtilityModel` would price.
   The paper's premiums (Eq. 1–2) are linear in p, and a premium moves
   deposit amounts only, never the trajectory.  So each of the six named
   :data:`~repro.campaign.ablation.grid.CELL_CONTEXTS` is simulated at
   exactly two premiums, p = 1 and p = 2, and every recorded quantity —
   per-round stakes and fold amounts, ``premium_net``, every final ledger
   balance, the utility delta terms — becomes an exact integer line
   ``a + b·p`` through that pair.  A premium in ``[1, premium_base]`` is
   *evaluated* on those lines, not simulated — the pair's recording is
   compiled once into per-round lines, so a new premium's rounds are
   integer arithmetic — and its ledger fingerprint follows
   :func:`repro.campaign.scenario.render_ledger`.  At p = 0 the real
   compliant run is the detector: if it holds on the lines (vanished
   entries dropped), the walks are evaluated there too.  A deal's
   contexts share each compliant run (nested pass-through recorders).  The
   simulator still runs — one counted fallback each — for a p = 0 run
   off the lines (the auction's skips ``endow_premium``), a premium
   above ``premium_base``, a graph context (``ring:N``, ``complete:N``,
   ``figure3``), and a pair whose trajectory shape differs (transactions,
   heights, event names, ledger keys or term structure per round).
2. **Replayed decisions.**  Per shock fraction, the recorded folds are
   replayed in plain floats in the *identical operation order* the
   simulator uses (same term order, same ``0.0 +``/``-=`` fold, same
   ``value * (1 - s)`` shock step), so the per-round rule ``gain >=
   -stake`` — and hence the walk round — is the simulator's, bit for bit.
   Each round is compiled once per kernel into ``(sign, amount, base
   value, shocked?)`` terms, so a replay does no price lookup.
3. **Trajectory templates.**  A rational arm that never walks *is* the
   comply run; one that walks at round ``w`` is reproduced once per
   distinct ``w`` by a scripted :class:`~repro.parties.rational.
   Opportunist` (``continue iff rnd < w``) and then shared by every
   scenario that walks there — inside the pair's domain, evaluated on the
   lines through the pair's own walk runs at ``w``.  Violations, premium
   flows, transaction counts, and the ledger fingerprint are condensed
   per template; the ``utility`` metric is replayed per (template, shock
   height) from the final balance deltas.  An evaluated template has no
   live run to check properties on: it reuses the pair's outcome for an
   adversary set only when the checks at p = 1 and p = 2 both find no
   violation, and otherwise checks a real run at its own premium.

The result: per-scenario work collapses to a metrics fold, a summary
join, and a sha256 — identical :class:`~repro.campaign.scenario.
ScenarioResult` objects (digests included) at orders of magnitude the
simulator cannot reach.  The simulator stays the audit path:
``benchmarks/parity_audit.py`` runs every default-grid cell through both
engines, and every pair-evaluated premium and walk round against a real
run, and fails on any metric or digest divergence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from hashlib import sha256

from repro.campaign.ablation.grid import CELL_CONTEXTS, family_cell, premium_base
from repro.campaign.scenario import (
    Scenario,
    ScenarioResult,
    ledger_balances,
    render_ledger,
)
from repro.obs.tracer import maybe_span
from repro.parties.base import Actor
from repro.parties.rational import Opportunist, TokenPrices
from repro.protocols.instance import execute

#: the two premiums a named context is simulated at; every other premium
#: of ``[1, premium_base]`` is evaluated on the lines through them.
PAIR_PREMIUMS = (1, 2)


class KernelUnsupported(ValueError):
    """A scenario (or matrix) the kernel engine cannot reproduce."""


def _paired(cell) -> bool:
    """Is the cell a named context's, at a premium in ``[0, premium_base]``?"""
    return (cell.family, cell.coalition) in CELL_CONTEXTS and (
        0 <= cell.premium <= premium_base(cell.family)
    )


# ----------------------------------------------------------------------
# calibration: one recorded compliant run per cell context
# ----------------------------------------------------------------------
@dataclass
class _Recording:
    """Per-round decision ingredients captured on the compliant path.

    Valid for any rational trajectory's *pre-walk prefix*: until the
    pivot walks it acts compliantly, so the chain state (and hence the
    stake and the gain terms) each round equals the compliant run's.
    """

    heights: list = field(default_factory=list)
    stakes: list = field(default_factory=list)
    #: per round: per member fold of (sign, amount, is_native, symbol).
    folds: list = field(default_factory=list)
    #: per round: does any fold term price the shocked token?
    exposed: list = field(default_factory=list)


class _RecordingActor(Actor):
    """Pass-through wrapper: behaves compliantly, records the calculus."""

    def __init__(self, inner: Actor, cell, recording: _Recording) -> None:
        super().__init__(inner.name, inner.keypair)
        self._inner = inner
        self._cell = cell
        # walk_cost never reads prices, so any TokenPrices instance works.
        self._stake = cell.model_factory(TokenPrices()).walk_cost
        self._recording = recording

    def on_round(self, rnd: int, view):
        rec = self._recording
        rec.heights.append(view.height)
        rec.stakes.append(self._stake(view))
        folds = [
            [
                (
                    sign,
                    amount,
                    getattr(asset, "is_native", False),
                    getattr(asset, "symbol", str(asset)),
                )
                for sign, amount, asset in fold
            ]
            for fold in self._cell.gain_terms(view)
        ]
        rec.folds.append(folds)
        rec.exposed.append(_exposed(folds, self._cell.shape.shocked))
        return self._inner.on_round(rnd, view)


def _exposed(folds, shocked) -> bool:
    """True iff a non-native ``(..., is_native, symbol)`` term of
    ``folds`` is priced in the ``shocked`` token."""
    return any(
        not term[-2] and term[-1] == shocked for terms in folds for term in terms
    )


def _priced(base_map: dict, shocked: str, is_native: bool, symbol: str) -> tuple:
    """``(base value, shocked?)`` of one asset: ``TokenPrices.__call__``
    with its lookups done — native is 1.0 and never shocked."""
    if is_native:
        return 1.0, False
    return base_map.get(symbol, 1.0), symbol == shocked


@dataclass
class _Template:
    """One finished trajectory, condensed once and shared by scenarios."""

    walk_round: int  #: the scripted walk round; -1 for the compliant run
    ntx: int
    ntx_str: str
    reverted: int
    premium_net: tuple
    premium_net_str: str
    #: ((asset, account, balance), ...) in fingerprint order.
    ledger: tuple
    fingerprint: str
    completed: float
    #: per metrics party: ((change, base value, shocked?), ...) in delta order.
    utility_terms: tuple
    #: does any delta term price the shocked token?
    exposed: bool
    #: the simulated run; both None for a template evaluated on lines.
    instance: object = None
    result: object = None
    #: an evaluated template's (p = 1, p = 2) source templates.
    sources: tuple = ()
    #: an evaluated template's simulated twin, run once an adversary set
    #: violates at a source (the checks need a live run).
    real: object = None
    #: adversaries tuple -> (violations, trace, completed pair, middle,
    #: suffix), lazily.
    checks: dict = field(default_factory=dict)


def _condense_template(cell, instance, result, walk_round: int) -> _Template:
    payoffs = result.payoffs
    premium_net = tuple(
        (party, payoffs.premium_net(party)) for party in sorted(instance.actors)
    )
    base_map, shocked = dict(cell.base_values), cell.shape.shocked
    terms = tuple(
        tuple(
            (
                change,
                *_priced(
                    base_map,
                    shocked,
                    getattr(asset, "is_native", False),
                    getattr(asset, "symbol", str(asset)),
                ),
            )
            for asset, change in payoffs.delta(party).items()
        )
        for party in cell.metrics_parties
    )
    ntx = len(result.transactions)
    ledger = tuple(ledger_balances(instance))
    return _Template(
        walk_round=walk_round,
        ntx=ntx,
        ntx_str=str(ntx),
        reverted=len(result.reverted()),
        premium_net=premium_net,
        premium_net_str=_render_net(premium_net),
        ledger=ledger,
        fingerprint=render_ledger(ledger),
        completed=1.0 if cell.completed(instance) else 0.0,
        utility_terms=terms,
        exposed=any(term[2] for party in terms for term in party),
        instance=instance,
        result=result,
    )


def _render_net(premium_net) -> str:
    """``condense_run``'s premium-flow field."""
    return ",".join(f"{p}:{net}" for p, net in premium_net)


# ----------------------------------------------------------------------
# lines through the pair: exact integer a + b·p
# ----------------------------------------------------------------------
class _Lines:
    """Integer lines ``v(p) = a + b·p`` through one trajectory's values
    at p = 1 and p = 2.

    A value is an int or an integral float (a stake is a float sum of
    int deposits); a float line keeps float coefficients, so ``a + b·p``
    is the simulator's own float sum exactly.  Values from index ``kept``
    on are structural — a ledger balance, a delta or a fold amount the
    simulator drops when it is zero — so a line that is not identically
    zero but vanishes at p does not evaluate there: ``vanish`` holds
    those premiums, found once per fit.
    """

    def __init__(self, coefficients: tuple, vanish: frozenset) -> None:
        self.coefficients = coefficients
        self.vanish = vanish

    @classmethod
    def fit(cls, lo: list, hi: list, kept: int) -> "_Lines | None":
        """The lines through ``lo`` (p = 1) and ``hi`` (p = 2), or None
        unless both are equally long and each pair of values is two ints
        or two integral floats."""
        if len(lo) != len(hi):
            return None
        coefficients, vanish = [], set()
        for index, (low, high) in enumerate(zip(lo, hi)):
            kind = type(low)
            if type(high) is not kind or kind not in (int, float):
                return None
            if kind is float and not (low.is_integer() and high.is_integer()):
                return None
            a, b = int(2 * low - high), int(high - low)
            if index >= kept and b and a % b == 0:
                vanish.add(-a // b)
            coefficients.append((kind(a), kind(b)))
        return cls(tuple(coefficients), frozenset(vanish))

    def at(self, premium: int, drop: bool = False) -> list | None:
        """None if a structural value vanishes at ``premium``, unless the
        caller will ``drop`` the zero as the ledger and payoff sheet do."""
        if premium in self.vanish and not drop:
            return None
        return [a + b * premium for a, b in self.coefficients]


def _recording_values(rec: _Recording) -> tuple[tuple, list, int]:
    """(shape, values, kept) of a recording: heights and term structure,
    then stakes followed by every fold amount."""
    shape = (
        tuple(rec.heights),
        tuple(rec.exposed),
        tuple(
            tuple(tuple((s, native, sym) for s, _, native, sym in terms) for terms in folds)
            for folds in rec.folds
        ),
    )
    amounts = [term[1] for folds in rec.folds for terms in folds for term in terms]
    return shape, [*rec.stakes, *amounts], len(rec.stakes)


def _trajectory(result) -> tuple:
    """A run's transactions and events, amounts aside."""
    return (
        tuple((tx.chain, tx.sender, tx.contract, tx.method, tx.receipt.height,
               tx.receipt.status) for tx in result.transactions),
        tuple((e.chain, e.contract, e.name, e.height) for e in result.events),
    )


def _template_values(cell, template: _Template) -> tuple[tuple, list, int]:
    """(shape, values, kept) of a simulated template: its trajectory shape,
    then ``premium_net``, ledger balances and utility delta changes."""
    payoffs = template.result.payoffs
    shape = (
        template.ntx,
        template.reverted,
        template.completed,
        _trajectory(template.result),
        tuple(party for party, _ in template.premium_net),
        tuple((asset, account) for asset, account, _ in template.ledger),
        tuple(tuple(payoffs.delta(party)) for party in cell.metrics_parties),
    )
    values = [
        *(net for _, net in template.premium_net),
        *(balance for _, _, balance in template.ledger),
        *(change for terms in template.utility_terms for change, _, _ in terms),
    ]
    return shape, values, len(template.premium_net)


class _TemplateLines:
    """A template pair's lines: evaluates the template at any premium."""

    def __init__(self, lo: _Template, hi: _Template, lines: _Lines) -> None:
        self.lo = lo
        self.hi = hi
        self.lines = lines
        #: each balance's fingerprint prefix, rendered once
        self.prefixes = tuple(f"{asset}/{account}=" for asset, account, _ in lo.ledger)

    @classmethod
    def fit(cls, cell, lo: _Template, hi: _Template) -> "_TemplateLines | None":
        """None when the two runs' trajectory shapes differ."""
        lo_shape, lo_values, kept = _template_values(cell, lo)
        hi_shape, hi_values, _ = _template_values(cell, hi)
        if lo_shape != hi_shape:
            return None
        lines = _Lines.fit(lo_values, hi_values, kept)
        return None if lines is None else cls(lo, hi, lines)

    def at(self, premium: int, drop: bool = False) -> _Template | None:
        """``drop`` as :meth:`_Lines.at`.  A run with dropped entries lists
        its deltas in its own set order, not the pair's: a party keeps at
        most two terms, whose fold into ``0.0`` is the same in either order."""
        values = self.lines.at(premium, drop)
        if values is None:
            return None
        model = self.lo
        nnet = len(model.premium_net)
        balances = values[nnet:nnet + len(model.ledger)]
        changes = iter(values[nnet + len(balances):])
        terms = tuple(tuple((c, base, shocked) for _, base, shocked in party if (c := next(changes)))
                      for party in model.utility_terms)
        if drop and any(len(party) > 2 for party in terms):
            return None
        premium_net = tuple(
            (party, value) for (party, _), value in zip(model.premium_net, values)
        )
        return _Template(
            walk_round=model.walk_round,
            ntx=model.ntx,
            ntx_str=model.ntx_str,
            reverted=model.reverted,
            premium_net=premium_net,
            premium_net_str=_render_net(premium_net),
            ledger=tuple(
                (asset, account, value)
                for (asset, account, _), value in zip(model.ledger, balances)
                if value
            ),
            fingerprint=";".join(  # render_ledger's rule: nonzero balances
                f"{prefix}{value}" for prefix, value in zip(self.prefixes, balances) if value
            ),
            completed=model.completed,
            utility_terms=terms,
            exposed=model.exposed,  # with terms dropped, at worst needlessly True
            sources=(self.lo, self.hi),
        )


class _CellPair:
    """A named context's simulated kernels at p = 1 and p = 2, and the
    lines through their recordings and templates.

    The recording's lines are compiled once into per-round records
    ``(height, -stake line, folds of (sign, amount line, base value,
    shocked?), exposed)``, each line an ``(a, b)`` pair, so a new premium
    derives its rounds by arithmetic alone.
    """

    def __init__(self, lo: "_CellKernel", hi: "_CellKernel") -> None:
        self.lo = lo
        self.hi = hi
        lo_shape, lo_values, kept = _recording_values(lo.recording)
        hi_shape, hi_values, _ = _recording_values(hi.recording)
        lines = _Lines.fit(lo_values, hi_values, kept) if lo_shape == hi_shape else None
        self.rounds = None
        if lines is not None:
            self.vanish = lines.vanish
            bounds = iter([(-a, -b) for a, b in lines.coefficients[:kept]])
            amounts = iter(lines.coefficients[kept:])
            self.rounds = [
                (height, *next(bounds), [
                    [(s, *next(amounts), base, shocked) for s, _, base, shocked in terms]
                    for terms in folds
                ], exposed)
                for height, _, folds, exposed in lo.rounds
            ]
        self.comply = _TemplateLines.fit(lo.cell, lo.comply, hi.comply)
        self._walks: dict[int, _TemplateLines | None] = {}

    def walk(self, walk_round: int, count) -> _TemplateLines | None:
        """The lines through the pair's scripted walks at ``walk_round``."""
        if walk_round not in self._walks:
            self._walks[walk_round] = _TemplateLines.fit(
                self.lo.cell,
                self.lo.walk_template(walk_round, count),
                self.hi.walk_template(walk_round, count),
            )
        return self._walks[walk_round]

    def derive(self, cell) -> "_CellKernel | None":
        """``cell``'s kernel evaluated on the lines, or None where they do
        not apply (shapes differ, or a structural value vanishes)."""
        p = cell.premium
        comply = self.comply and self.comply.at(p)
        if self.rounds is None or p in self.vanish or comply is None:
            return None
        rounds = [
            (height, bound_a + bound_b * p, [
                [(s, a + b * p, base, shocked) for s, a, b, base, shocked in terms]
                for terms in folds
            ], exposed)
            for height, bound_a, bound_b, folds, exposed in self.rounds
        ]
        return _CellKernel(cell, rounds, comply, pair=self)

    def adopt(self, kernel: "_CellKernel") -> bool:
        """Put a kernel calibrated off the pair onto the lines if its real
        compliant run holds on them, vanished entries dropped: same
        transactions, events and values (not the auction's at p = 0)."""
        lines, real = self.comply, kernel.comply
        evaluated = lines and lines.at(kernel.cell.premium, drop=True)
        held = evaluated and [
            (t.premium_net, t.ledger, t.completed, [sorted(p) for p in t.utility_terms])
            for t in (evaluated, real)
        ]
        if held and held[0] == held[1] and _trajectory(real.result) == _trajectory(lines.lo.result):
            kernel.pair = self
        return kernel.pair is self


# ----------------------------------------------------------------------
# one cell context's kernel: templates + replayed decisions
# ----------------------------------------------------------------------
class _CellKernel:
    """Everything cached for one ``(family, coalition, premium)`` cell.

    ``rounds`` holds per round ``(height, -stake, compiled folds,
    exposed)``, each fold term compiled to ``(sign, amount, base value,
    shocked?)``; only a calibrated kernel keeps the ``recording`` it was
    compiled from.  ``pair`` is the :class:`_CellPair` an evaluated or
    adopted (p = 0) kernel derives its walk templates from; ``off_pair``
    marks a kernel whose simulator runs are fallbacks (every kernel but
    the pair's own two).  Methods that may run the simulator take the engine's
    ``count(name)`` callback rather than holding it, so a kernel never
    refers back to its engine (a dropped engine leaves no reference
    cycle).
    """

    def __init__(
        self, cell, rounds: list, comply: _Template,
        pair: _CellPair | None = None, recording: _Recording | None = None,
    ) -> None:
        self.cell = cell
        self.rounds = rounds
        #: the compliant trajectory — also every never-walks rational arm.
        self.comply = comply
        self.pair = pair
        self.off_pair = not (cell.premium in PAIR_PREMIUMS and _paired(cell))
        self.recording = recording
        self.gain_shape = cell.gain_shape
        self._walks: dict[int, _Template] = {}
        #: per round: does the rule hold at unshocked prices?  Folded
        #: once, on first use: it is the same for every shock.
        self._holds: list = [None] * len(rounds)

    @classmethod
    def calibrate(cls, cells, count) -> list:
        """One real compliant run of ``cells`` (one deal and premium), each
        cell's (first) pivot recorded by a pass-through recorder wrapping
        the previous cell's, each cell's compliant template its own."""
        recordings = [_Recording() for _ in cells]
        deviations = {}
        for cell, recording in zip(cells, recordings):
            pivot = cell.shape.pivots[0]
            inner = deviations.get(pivot, lambda actor: actor)
            deviations[pivot] = lambda actor, c=cell, r=recording, inner=inner: (
                _RecordingActor(inner(actor), c, r)
            )
        instance = cells[0].builder()
        result = execute(instance, deviations)
        count("kernel.calibrations")
        kernels = []
        for cell, recording in zip(cells, recordings):
            base_map, shocked = dict(cell.base_values), cell.shape.shocked
            rounds = [
                (height, -stake, [
                    [(s, amount, *_priced(base_map, shocked, native, sym))
                     for s, amount, native, sym in terms]
                    for terms in folds
                ], exposed)
                for height, stake, folds, exposed in zip(
                    recording.heights, recording.stakes, recording.folds, recording.exposed
                )
            ]
            comply = _condense_template(cell, instance, result, -1)
            kernels.append(cls(cell, rounds, comply, recording=recording))
        return kernels

    def simulate(self, walk_round: int, count) -> _Template:
        """A real run at this kernel's premium: every pivot member walks
        at ``walk_round`` (the compliant run for -1).

        Reproduced with a scripted :class:`Opportunist` (``rnd < w``):
        identical transactions to the live rational arm, because the
        utility model's decisions are True exactly on the pre-walk prefix.
        """
        cell = self.cell
        deviations = {}
        if walk_round >= 0:

            def scripted(actor):
                return Opportunist(actor, lambda rnd, view, w=walk_round: rnd < w)

            deviations = {member: scripted for member in cell.shape.pivots}
        instance = cell.builder()
        result = execute(instance, deviations)
        if self.off_pair:
            count("kernel.fallbacks")
        return _condense_template(cell, instance, result, walk_round)

    def walk_template(self, walk_round: int, count) -> _Template:
        """The trajectory where every pivot member walks at ``walk_round``:
        evaluated on the pair's lines where they apply, else simulated."""
        template = self._walks.get(walk_round)
        if template is None:
            if self.pair is not None:
                lines = self.pair.walk(walk_round, count)
                # an adopted (calibrated) kernel's walks may drop entries
                template = lines and lines.at(self.cell.premium, self.recording is not None)
                if template is not None:
                    count("kernel.derived")
            if template is None:
                template = self.simulate(walk_round, count)
            self._walks[walk_round] = template
        return template

    # ------------------------------------------------------------------
    # bit-exact replays, one shock at a time
    # ------------------------------------------------------------------
    def _gain(self, folds, factor):
        """Replay the cell's completion gain for one compiled round.

        ``factor`` is ``1 - s`` for a shocked round, else 1.0 (which
        leaves every base value unchanged).  Each member's fold replays
        ``pending_completion_gain``: ``amount * price`` per term, folded
        with ``+=``/``-=`` into ``0.0`` in term order.
        """
        shape = self.gain_shape
        if shape == "diff":
            # The auction's two bare-product legs, first minus second.
            (_, amount0, base0, shocked0), = folds[0]
            (_, amount1, base1, shocked1), = folds[1]
            leg0 = amount0 * (base0 * factor if shocked0 else base0)
            leg1 = amount1 * (base1 * factor if shocked1 else base1)
            return leg0 - leg1
        total = 0.0
        for terms in folds:
            fold = 0.0
            for sign, amount, base, shocked in terms:
                value = amount * (base * factor if shocked else base)
                if sign > 0:
                    fold += value
                else:
                    fold -= value
            if shape == "single":
                return fold
            total += fold
        return total

    def walk_rounds(self, shock_height: int, shocks: list) -> list:
        """First round where ``gain < -stake`` per shock, or -1 (complete).

        Replays the recorded per-round rule for every shock still
        undecided; the :class:`Opportunist` halts permanently at its
        first False, so the first failing round is the walk round.  A
        round that prices nothing shocked decides every shock alike, so
        its gain is folded and compared once per kernel.
        """
        walked = [-1] * len(shocks)
        undecided = range(len(shocks))
        gain, holds = self._gain, self._holds
        for rnd, (height, bound, folds, exposed) in enumerate(self.rounds):
            if height < shock_height or not exposed:
                # No term is shocked: the base values are the prices.
                if holds[rnd] is None:
                    holds[rnd] = gain(folds, 1.0) >= bound
                if holds[rnd]:
                    continue
                for i in undecided:
                    walked[i] = rnd
                break
            still = []
            for i in undecided:
                if gain(folds, 1.0 - shocks[i]) >= bound:
                    still.append(i)
                else:
                    walked[i] = rnd
            if not still:
                break
            undecided = still
        return walked

    def utilities(self, template: _Template, shock_height: int, shocks: list) -> list:
        """Replay the metrics utility (joint realized value) per shock.

        Mirrors ``_make_metrics``: sum over the metrics parties of
        ``realized_utility`` at the horizon — each party a fold of
        ``price * change`` over its final balance deltas, in delta order.
        Folded once when no delta term is priced shocked at the horizon.
        """

        def utility(factor):
            total = 0.0
            for terms in template.utility_terms:
                party = 0.0
                for change, base, shocked in terms:
                    party += (base * factor if shocked else base) * change
                total += party
            return total

        if self.cell.shape.horizon < shock_height or not template.exposed:
            return [utility(1.0)] * len(shocks)
        return [utility(1.0 - shock) for shock in shocks]


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class KernelEngine:
    """Execute ablation scenarios through the payoff kernels.

    Drop-in for the serial scenario loop: ``run(scenarios)`` returns the
    same :class:`ScenarioResult` list (same digests, same metrics, same
    violations) the simulator would produce.  Cell templates and the
    named contexts' calibration pairs are cached on the engine, so a
    long-lived engine amortizes calibration across grid runs and
    refinement probes alike.
    """

    def __init__(self, tracer=None) -> None:
        self._kernels: dict[tuple[str, str, int], _CellKernel] = {}
        #: (family, coalition) -> its calibration pair (named contexts).
        self._pairs: dict[tuple[str, str], _CellPair] = {}
        self._cells: tuple = ()  #: the latest run's cells; siblings share runs
        #: optional repro.obs.Tracer — counts calibrations, evaluated
        #: templates, simulator fallbacks, cell-cache hits and replays,
        #: and wraps each cell group in a "block" span.  Digest-inert:
        #: write-only from here, never read.
        self.tracer = tracer

    def _count(self, name: str, amount: float = 1) -> None:
        if self.tracer is not None:
            self.tracer.inc(name, amount)

    # ------------------------------------------------------------------
    def _parse(self, scenario: Scenario) -> tuple:
        """``((family, coalition, premium), (shock height, rational?),
        shock)``: the scenario's cell group, its arm, and its shock."""
        axes = dict(scenario.axes)
        try:
            cell = (axes["family"], axes.get("coalition", ""), int(axes["premium"]))
            shock_height = int(axes["shock_height"])
            strategy = axes["strategy"]
            shock = float(axes["shock"])
        except (KeyError, ValueError) as err:
            raise KernelUnsupported(
                f"scenario {scenario.label!r} lacks ablation axes ({err}); "
                "the kernel engine runs only ablation_matrix/ablation_cell "
                "scenarios"
            )
        if strategy not in ("comply", "compliant", "rational"):
            raise KernelUnsupported(
                f"scenario {scenario.label!r} has unknown strategy arm "
                f"{strategy!r}"
            )
        return cell, (shock_height, strategy == "rational"), shock

    def _kernel_for(self, family: str, coalition: str, premium: int) -> _CellKernel:
        """The cached kernel, else one evaluated on the context's pair lines
        where they apply, else one calibrated by a real run."""
        key = (family, coalition, premium)
        kernel = self._kernels.get(key)
        if kernel is not None:
            self._count("kernel.cell_hits")
            return kernel
        try:
            cell = family_cell(family, coalition, premium)
        except ValueError as err:
            raise KernelUnsupported(str(err))
        if premium not in (0, *PAIR_PREMIUMS) and _paired(cell):
            kernel = self._pair_for(family, coalition).derive(cell)
            if kernel is not None:
                self._count("kernel.derived")
                self._kernels[key] = kernel
                return kernel
        return self._calibrate(cell)

    def _calibrate(self, cell) -> _CellKernel:
        """Calibrate ``cell`` by one real run, shared with each sibling
        context (same family: one deal, one builder) of the latest ``run``
        call not yet cached at the premium; count each kernel that is
        neither the pair's own nor adopted onto its lines a fallback."""
        family, premium = cell.family, cell.premium
        siblings = dict.fromkeys(c for f, c, _ in self._cells if f == family
                                 and c != cell.coalition and (f, c, premium) not in self._kernels)
        kernels = _CellKernel.calibrate(
            [cell, *(family_cell(family, c, premium) for c in siblings)], self._count
        )
        for kernel in kernels:
            coalition = kernel.cell.coalition
            self._kernels[(family, coalition, premium)] = kernel
            if kernel.off_pair and not (
                _paired(kernel.cell) and self._pair_for(family, coalition).adopt(kernel)
            ):
                self._count("kernel.fallbacks")
        return kernels[0]

    def _pair_for(self, family: str, coalition: str) -> _CellPair:
        pair = self._pairs.get((family, coalition))
        if pair is None:
            pair = self._pairs[(family, coalition)] = _CellPair(*(
                self._kernels.get((family, coalition, p))
                or self._calibrate(family_cell(family, coalition, p))
                for p in PAIR_PREMIUMS
            ))
        return pair

    # ------------------------------------------------------------------
    def run(self, scenarios: list[Scenario], meter=None) -> list[ScenarioResult]:
        """Run every scenario; results in input order.

        ``meter`` (a :class:`repro.obs.ProgressMeter`) ticks once per
        scenario as each cell group completes; with a tracer attached,
        every cell group is wrapped in a ``block`` span and calibration /
        evaluation / fallback / replay / cell-hit counters accumulate.
        Both are observational only — results are byte-identical with or
        without them.
        """
        results: list[ScenarioResult | None] = [None] * len(scenarios)
        groups: dict[tuple[str, str, int], list] = {}
        for position, scenario in enumerate(scenarios):
            cell, arm, shock = self._parse(scenario)
            groups.setdefault(cell, []).append((position, scenario, arm, shock))
        self._cells = tuple(groups)
        tracer = self.tracer
        self._count("kernel.scenarios", len(scenarios))
        for (family, coalition, premium), members in groups.items():
            label = f"{family}:{coalition or '-'}[premium={premium}]" if tracer is not None else ""
            with maybe_span(tracer, "block", label=label, scenarios=len(members)):
                self._run_group(results, family, coalition, premium, members)
            if meter is not None:
                meter.advance(len(members))
        return results  # type: ignore[return-value]

    def _run_group(
        self,
        results: list,
        family: str,
        coalition: str,
        premium: int,
        members: list,
    ) -> None:
        """Execute one (family, coalition, premium) cell group in place."""
        start = time.perf_counter()
        count = self._count
        kernel = self._kernel_for(family, coalition, premium)
        comply = kernel.comply
        # Bucket scenarios by (template, shock height): the utility
        # metric is one replay per bucket.  A member is (position,
        # scenario, (shock height, rational?), shock).
        arms: dict[tuple[int, bool], list] = {}
        for member in members:
            arms.setdefault(member[2], []).append(member)
        buckets: dict[tuple[int, int], tuple] = {}
        for (shock_height, rational), entries in arms.items():
            walked = (-1,) * len(entries)
            if rational:
                walked = kernel.walk_rounds(shock_height, [e[3] for e in entries])
                count("kernel.replays")
            for entry, w in zip(entries, walked):
                template = comply if w < 0 else kernel.walk_template(w, count)
                # Identity keys an in-process bucket of shared templates;
                # never digested or serialized.
                key = (id(template), shock_height)  # lint: disable=DET001
                buckets.setdefault(key, (template, shock_height, []))[2].append(entry)
        # Decisions and trajectory templates are in hand; distribute
        # the group's shared cost (elapsed is reported, not digested).
        elapsed_each = (time.perf_counter() - start) / max(1, len(members))
        # Per-scenario marginal work, inlined and hoisted: a cached
        # property check, the utility repr, one string concat, the
        # sha256, and a ScenarioResult with condense_run's field set.
        for template, shock_height, entries in buckets.values():
            utilities = kernel.utilities(template, shock_height, [e[3] for e in entries])
            count("kernel.replays")
            checks = template.checks
            ntx = template.ntx
            reverted = template.reverted
            premium_net = template.premium_net
            for (position, scenario, _, _), utility in zip(entries, utilities):
                static = checks.get(scenario.adversaries)
                if static is None:
                    static = self._check(kernel, template, scenario)
                violations, trace, completed_pair, middle, suffix = static
                if utility == 0.0:
                    utility = 0.0  # collapse -0.0, as canon_float does
                summary = f"{scenario.label}|{middle}{utility!r}{suffix}"
                result = ScenarioResult(
                    scenario.index, scenario.label, scenario.axes, violations,
                    ntx, reverted, premium_net, elapsed_each,
                    # Same conservative flow-pass artifact as condense_run:
                    # properties only membership-test the adversary
                    # frozenset, so its order never reaches the summary.
                    sha256(summary.encode()).hexdigest(),  # lint: disable=FLOW002
                    (completed_pair, ("utility", utility)),
                    trace,
                )
                results[position] = result

    # ------------------------------------------------------------------
    def _check(
        self, kernel: _CellKernel, template: _Template, scenario: Scenario
    ) -> tuple:
        """Evaluate properties once per (template, adversary set) and
        condense everything scenario-invariant about the outcome.

        Everything in ``condense_run``'s summary line except the label
        and the utility value is fixed per (template, adversary set), so
        the middle and suffix fragments are pre-rendered here.  An
        evaluated template has no live run: it is clean when both of its
        sources check clean, and is otherwise checked on its simulated
        twin at its own premium.
        """
        adversaries = scenario.adversaries
        if adversaries in template.checks:
            return template.checks[adversaries]
        violations: list[str] = []
        if template.instance is None:
            if any(
                self._check(kernel, source, scenario)[0]
                for source in template.sources
            ):
                if template.real is None:
                    template.real = kernel.simulate(template.walk_round, self._count)
                static = self._check(kernel, template.real, scenario)
                template.checks[adversaries] = static
                return static
        else:
            adversary_set = frozenset(adversaries)
            for prop in kernel.cell.properties:
                violations.extend(
                    prop(template.instance, template.result, adversary_set)
                )
        trace = ""
        if violations:
            from repro.sim.trace import render_lanes

            trace = render_lanes(template.result)
        completed = template.completed
        static = (
            tuple(violations),
            trace,
            ("completed", completed),
            f"{','.join(violations)}|{template.ntx_str}"
            f"|{template.premium_net_str}"
            f"|completed={completed!r},utility=",
            f"|{template.fingerprint}",
        )
        template.checks[adversaries] = static
        return static
