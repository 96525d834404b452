"""Payoff kernels: the ablation grid without per-cell replays.

The frontier and refine engines replay the full object-oriented protocol
(contracts, ledger, parties) once per scenario, yet across a premium ×
shock × stage grid almost everything repeats: at a fixed ``(family,
coalition, integer premium)`` the *transactions* of a run depend only on
the rounds the pivot participates — prices are exogenous, so a shock
changes decisions, never trajectories.  The §5.2 outcomes are therefore
piecewise constant in trajectory and closed-form in payoff, which is what
this module exploits:

1. **Template calibration.**  One real simulation per cell context
   (:func:`repro.campaign.ablation.grid.family_cell`) runs the compliant
   trajectory with the pivot wrapped in a pass-through recorder.  The
   context itself builds no protocol: its contracts, schedule and pivot
   set come from the ``(family, coalition)``'s shared, premium-free
   :func:`~repro.campaign.ablation.grid.cell_shape`, so that run is the
   calibration's only build.  The run itself cannot be skipped: its
   ledger fingerprint enters every comply arm's digest.  Each
   round it captures the pivot (set)'s walk-forfeit stake — price-
   independent by construction — and the symbolic completion-gain terms
   (:func:`repro.parties.rational.completion_gain_terms`), i.e. the exact
   ``(sign, amount, asset)`` folds the live
   :class:`~repro.parties.rational.UtilityModel` would price.
2. **Replayed decisions.**  Per shock fraction, the recorded folds are
   replayed in plain floats in the *identical operation order* the
   simulator uses (same term order, same ``0.0 +``/``-=`` fold, same
   ``value * (1 - s)`` shock step), so the per-round rule ``gain >=
   -stake`` — and hence the walk round — is the simulator's, bit for bit.
3. **Trajectory templates.**  A rational arm that never walks *is* the
   comply run; one that walks at round ``w`` is reproduced once per
   distinct ``w`` by a scripted :class:`~repro.parties.rational.
   Opportunist` (``continue iff rnd < w``) and then shared by every
   scenario that walks there.  Violations, premium flows, transaction
   counts, and the ledger fingerprint are condensed per template; the
   ``utility`` metric is replayed per (template, shock height) from the
   final balance deltas.

The result: per-scenario work collapses to a metrics fold, a summary
join, and a sha256 — identical :class:`~repro.campaign.scenario.
ScenarioResult` objects (digests included) at orders of magnitude the
simulator cannot reach.  The simulator stays the audit path:
``benchmarks/parity_audit.py`` runs every default-grid cell through both
engines and fails on any metric or digest divergence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from hashlib import sha256

from repro.campaign.scenario import (
    Scenario,
    ScenarioResult,
    _ledger_fingerprint,
)
from repro.obs import maybe_span
from repro.parties.base import Actor
from repro.parties.rational import Opportunist, TokenPrices
from repro.protocols.instance import execute

#: matrix factories whose scenarios the kernel engine understands.
KERNEL_FACTORIES = ("ablation", "ablation_cell")


class KernelUnsupported(ValueError):
    """A scenario (or matrix) the kernel engine cannot reproduce."""


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


@dataclass
class _Template:
    """One finished trajectory, condensed once and shared by scenarios."""

    instance: object
    result: object
    ntx: int
    ntx_str: str
    reverted: int
    premium_net: tuple
    premium_net_str: str
    fingerprint: str
    completed: float
    #: per metrics party: ((change, is_native, symbol), ...) delta terms.
    utility_terms: tuple
    #: does any delta term price the shocked token?
    exposed: bool
    #: adversaries tuple -> (violations, violations_str, trace), lazily.
    checks: dict = field(default_factory=dict)


def _condense_template(cell, instance, result) -> _Template:
    payoffs = result.payoffs
    premium_net = tuple(
        (party, payoffs.premium_net(party)) for party in sorted(instance.actors)
    )
    terms = tuple(
        tuple(
            (
                change,
                getattr(asset, "is_native", False),
                getattr(asset, "symbol", str(asset)),
            )
            for asset, change in payoffs.delta(party).items()
        )
        for party in cell.metrics_parties
    )
    ntx = len(result.transactions)
    return _Template(
        instance=instance,
        result=result,
        ntx=ntx,
        ntx_str=str(ntx),
        reverted=len(result.reverted()),
        premium_net=premium_net,
        premium_net_str=",".join(f"{p}:{net}" for p, net in premium_net),
        fingerprint=_ledger_fingerprint(instance),
        completed=1.0 if cell.completed(instance) else 0.0,
        utility_terms=terms,
        exposed=_exposed(terms, cell.shape.shocked),
    )


# ----------------------------------------------------------------------
# one cell context's kernel: templates + replayed decisions
# ----------------------------------------------------------------------
class _CellKernel:
    """Everything cached for one ``(family, coalition, premium)`` cell."""

    def __init__(self, cell) -> None:
        self.cell = cell
        self.base_map = dict(cell.base_values)
        self.shocked = cell.shape.shocked
        self.recording = _Recording()

        def recorder(actor):
            return _RecordingActor(actor, cell, self.recording)

        instance = cell.builder()
        result = execute(instance, {cell.shape.pivots[0]: recorder})
        #: the compliant trajectory — also every never-walks rational arm.
        self.comply = _condense_template(cell, instance, result)
        self._walks: dict[int, _Template] = {}

    def walk_template(self, walk_round: int) -> _Template:
        """The trajectory where every pivot member walks at ``walk_round``.

        Reproduced with a scripted :class:`Opportunist` (``rnd < w``):
        identical transactions to the live rational arm, because the
        utility model's decisions are True exactly on the pre-walk prefix.
        """
        template = self._walks.get(walk_round)
        if template is None:
            cell = self.cell

            def scripted(actor):
                return Opportunist(
                    actor, lambda rnd, view, w=walk_round: rnd < w
                )

            instance = cell.builder()
            result = execute(
                instance, {member: scripted for member in cell.shape.pivots}
            )
            template = _condense_template(cell, instance, result)
            self._walks[walk_round] = template
        return template

    # ------------------------------------------------------------------
    # bit-exact replays, one shock at a time
    # ------------------------------------------------------------------
    def _price(self, is_native, symbol, height, shock_height, shock):
        """Replay ``TokenPrices.__call__`` at one shock fraction.

        Same op order: native short-circuits to 1.0, base lookup, then
        one ``value *= 1 - s`` step when the shocked token is past its
        shock height.
        """
        if is_native:
            return 1.0
        value = self.base_map.get(symbol, 1.0)
        if self.shocked == symbol and height >= shock_height:
            value *= 1.0 - shock
        return value

    def _fold(self, terms, height, shock_height, shock):
        """Replay one member's ``pending_completion_gain`` fold."""
        total = 0.0
        for sign, amount, is_native, symbol in terms:
            value = amount * self._price(
                is_native, symbol, height, shock_height, shock
            )
            if sign > 0:
                total += value
            else:
                total -= value
        return total

    def _gain(self, folds, height, shock_height, shock):
        """Replay the cell's completion gain for one recorded round."""
        shape = self.cell.gain_shape
        if shape == "single":
            return self._fold(folds[0], height, shock_height, shock)
        if shape == "sum":
            total = 0.0
            for terms in folds:
                total += self._fold(terms, height, shock_height, shock)
            return total
        # "diff": the auction's two bare-product legs, first minus second.
        (sign0, amount0, native0, symbol0) = folds[0][0]
        (sign1, amount1, native1, symbol1) = folds[1][0]
        leg0 = amount0 * self._price(native0, symbol0, height, shock_height, shock)
        leg1 = amount1 * self._price(native1, symbol1, height, shock_height, shock)
        return leg0 - leg1

    def walk_rounds(self, shock_height: int, shocks: list) -> list:
        """First round where ``gain < -stake`` per shock, or -1 (complete).

        Replays the recorded per-round rule for every shock still
        undecided; the :class:`Opportunist` halts permanently at its
        first False, so the first failing round is the walk round.  A
        round that prices nothing shocked decides every shock alike, so
        its gain is folded and compared once.
        """
        walked = [-1] * len(shocks)
        undecided = range(len(shocks))
        rec = self.recording
        for rnd, height in enumerate(rec.heights):
            folds = rec.folds[rnd]
            bound = -rec.stakes[rnd]
            if height < shock_height or not rec.exposed[rnd]:
                # The shock argument is never read: no term is shocked.
                if self._gain(folds, height, shock_height, 0.0) >= bound:
                    continue
                for i in undecided:
                    walked[i] = rnd
                break
            still = []
            for i in undecided:
                if self._gain(folds, height, shock_height, shocks[i]) >= bound:
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
        horizon = self.cell.shape.horizon

        def utility(shock):
            total = 0.0
            for terms in template.utility_terms:
                party = 0.0
                for change, is_native, symbol in terms:
                    price = self._price(is_native, symbol, horizon, shock_height, shock)
                    party += price * change
                total += party
            return total

        if horizon < shock_height or not template.exposed:
            return [utility(0.0)] * len(shocks)
        return [utility(shock) for shock in shocks]


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class KernelEngine:
    """Execute ablation scenarios through the payoff kernels.

    Drop-in for the serial scenario loop: ``run(scenarios)`` returns the
    same :class:`ScenarioResult` list (same digests, same metrics, same
    violations) the simulator would produce.  Cell templates are cached
    on the engine, so a long-lived engine amortizes calibration across
    grid runs and refinement probes alike.
    """

    def __init__(self, tracer=None) -> None:
        self._kernels: dict[tuple[str, str, int], _CellKernel] = {}
        #: axes tuple -> (family, coalition, premium, shock, height,
        #: rational) — parsing is per distinct cell coordinate, not per
        #: scenario execution, so re-runs and refine loops skip it.
        self._coords: dict[tuple, tuple] = {}
        #: optional repro.obs.Tracer — counts calibrations vs cell-cache
        #: hits and replays, and wraps each cell group in a
        #: "block" span.  Digest-inert: write-only from here, never read.
        self.tracer = tracer

    def _count(self, name: str, amount: float = 1) -> None:
        if self.tracer is not None:
            self.tracer.inc(name, amount)

    # ------------------------------------------------------------------
    def _parse(self, scenario: Scenario) -> tuple:
        coords = self._coords.get(scenario.axes)
        if coords is not None:
            return coords
        axes = dict(scenario.axes)
        try:
            family = axes["family"]
            premium = int(axes["premium"])
            shock = float(axes["shock"])
            shock_height = int(axes["shock_height"])
            strategy = axes["strategy"]
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
        coords = (
            family,
            axes.get("coalition", ""),
            premium,
            shock,
            shock_height,
            strategy == "rational",
        )
        self._coords[scenario.axes] = coords
        return coords

    def _kernel_for(self, family: str, coalition: str, premium: int) -> _CellKernel:
        key = (family, coalition, premium)
        kernel = self._kernels.get(key)
        if kernel is None:
            from repro.campaign.ablation.grid import family_cell

            try:
                cell = family_cell(family, coalition, premium)
            except ValueError as err:
                raise KernelUnsupported(str(err))
            kernel = _CellKernel(cell)
            self._kernels[key] = kernel
            self._count("kernel.calibrations")
        else:
            self._count("kernel.cell_hits")
        return kernel

    # ------------------------------------------------------------------
    def run(self, scenarios: list[Scenario], meter=None) -> list[ScenarioResult]:
        """Run every scenario; results in input order.

        ``meter`` (a :class:`repro.obs.ProgressMeter`) ticks once per
        scenario as each cell group completes; with a tracer attached,
        every cell group is wrapped in a ``block`` span and calibration /
        replay / cell-hit counters accumulate.  Both are observational
        only — results are byte-identical with or without them.
        """
        results: list[ScenarioResult | None] = [None] * len(scenarios)
        groups: dict[tuple[str, str, int], list] = {}
        for position, scenario in enumerate(scenarios):
            coords = self._parse(scenario)
            groups.setdefault(coords[:3], []).append(
                (position, scenario, coords)
            )
        self._count("kernel.scenarios", len(scenarios))
        for (family, coalition, premium), members in groups.items():
            label = f"{family}:{coalition or '-'}[premium={premium}]"
            with maybe_span(
                self.tracer, "block", label=label, scenarios=len(members)
            ):
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
        kernel = self._kernel_for(family, coalition, premium)
        comply = kernel.comply
        # Bucket scenarios by (template, shock height): the utility
        # metric is one replay per bucket.
        arms: dict[tuple[int, bool], list] = {}
        for position, scenario, coords in members:
            arms.setdefault(coords[4:], []).append((position, scenario, coords[3]))
        buckets: dict[tuple[int, int], tuple] = {}
        for (shock_height, rational), entries in arms.items():
            walked = [-1] * len(entries)
            if rational:
                walked = kernel.walk_rounds(shock_height, [e[2] for e in entries])
                self._count("kernel.replays")
            for entry, w in zip(entries, walked):
                template = comply if w < 0 else kernel.walk_template(w)
                buckets.setdefault(
                    # Identity keys an in-process bucket of shared
                    # templates; never digested or serialized.
                    (id(template), shock_height),  # lint: disable=DET001
                    (template, shock_height, []),
                )[2].append(entry)
        # Decisions and trajectory templates are in hand; distribute
        # the group's shared cost (elapsed is reported, not digested).
        elapsed_each = (time.perf_counter() - start) / max(1, len(members))
        # Per-scenario marginal work, inlined and hoisted: a cached
        # property check, the utility repr, one string concat, the
        # sha256, and a direct ScenarioResult construction (the
        # frozen-dataclass __init__ — one object.__setattr__ per
        # field — is bypassed; the field set mirrors condense_run).
        new = ScenarioResult.__new__
        for template, shock_height, entries in buckets.values():
            utilities = kernel.utilities(
                template, shock_height, [e[2] for e in entries]
            )
            self._count("kernel.replays")
            checks = template.checks
            ntx = template.ntx
            reverted = template.reverted
            premium_net = template.premium_net
            for (position, scenario, _), utility in zip(entries, utilities):
                static = checks.get(scenario.adversaries)
                if static is None:
                    static = self._check(kernel, template, scenario)
                violations, trace, completed_pair, middle, suffix = static
                if utility == 0.0:
                    utility = 0.0  # collapse -0.0, as canon_float does
                summary = f"{scenario.label}|{middle}{utility!r}{suffix}"
                result = new(ScenarioResult)
                result.__dict__.update({
                    "index": scenario.index,
                    "label": scenario.label,
                    "axes": scenario.axes,
                    "violations": violations,
                    "transactions": ntx,
                    "reverted": reverted,
                    "premium_net": premium_net,
                    "elapsed_seconds": elapsed_each,
                    # Same conservative flow-pass artifact as condense_run:
                    # properties only membership-test the adversary
                    # frozenset, so its order never reaches the summary.
                    "digest": sha256(summary.encode()).hexdigest(),  # lint: disable=FLOW002
                    "metrics": (completed_pair, ("utility", utility)),
                    "trace": trace,
                })
                results[position] = result

    # ------------------------------------------------------------------
    def _check(
        self, kernel: _CellKernel, template: _Template, scenario: Scenario
    ) -> tuple:
        """Evaluate properties once per (template, adversary set) and
        condense everything scenario-invariant about the outcome.

        Everything in ``condense_run``'s summary line except the label
        and the utility value is fixed per (template, adversary set), so
        the middle and suffix fragments are pre-rendered here.
        """
        adversary_set = frozenset(scenario.adversaries)
        violations: list[str] = []
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
        template.checks[scenario.adversaries] = static
        return static
