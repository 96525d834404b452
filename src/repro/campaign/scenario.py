"""One campaign scenario: a full simulation condensed to a stable digest.

A :class:`Scenario` is executable data: a protocol builder, an adversary
profile (party → labelled actor transform), the properties to assert, and
the axis coordinates used for aggregation.  :func:`run_scenario` executes
it — build, deviate, run to the horizon, evaluate every property — and
condenses the run into a :class:`ScenarioResult` made only of primitives,
so results cross process boundaries cheaply.

:func:`run_scenarios` runs many scenarios at once, each with the same
result: a block's halting scenarios fork from one compliant base run.

The per-scenario ``digest`` hashes everything observable about the outcome
(violations, transaction count, premium flows, custom metrics, the final
ledger state of every chain), which is what makes whole campaigns
reproducible: two runs of the same matrix — on any backend, in any process
layout — must produce the same sequence of digests.

Two optional extensions serve analysis campaigns:

- a scenario may carry a ``metrics_fn`` (from its matrix block): a pure
  function of the finished run that condenses it into named floats — e.g.
  the ablation engine's realized-utility and completion metrics.  Metrics
  fold into the scenario digest, so they are covered by the same
  cross-backend determinism contract as ledger state,
- when any property is violated, the run's lane diagram
  (:func:`repro.sim.trace.render_lanes`) is attached to the result as
  ``trace``, making frontier/campaign anomalies one-shot debuggable without
  re-running the scenario.  The trace is *derived* presentation, not
  outcome, so it stays out of the digest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from hashlib import sha256
from typing import Callable, NamedTuple, Protocol, Sequence

from repro.campaign.canon import canon_float
from repro.chain.blockchain import NEVER
from repro.parties.base import Actor
from repro.parties.strategies import Deviant
from repro.protocols.instance import ProtocolInstance, execute
from repro.sim.runner import RunResult

Builder = Callable[[], ProtocolInstance]
Property = Callable[[ProtocolInstance, object, frozenset[str]], list[str]]
#: condenses a finished run into named floats, e.g. realized utilities.
MetricsFn = Callable[[ProtocolInstance, object], tuple[tuple[str, float], ...]]


class LabelledStrategy(Protocol):
    """Anything with a ``label`` and an actor ``transform`` (duck-typed so
    the campaign core does not depend on ``repro.checker``)."""

    label: str
    transform: Callable


@dataclass(frozen=True, slots=True)
class Scenario:
    """A fully specified scenario, ready to execute."""

    index: int
    label: str
    builder: Builder = field(repr=False)
    properties: tuple[Property, ...] = field(repr=False)
    #: (party, strategy) pairs; the strategy's transform wraps the actor.
    profile: tuple[tuple[str, LabelledStrategy], ...] = ()
    #: parties counted as adversarial when evaluating properties.  Includes
    #: every profiled party plus builder-level deviants (e.g. a cheating
    #: auctioneer baked into the builder rather than an actor transform).
    adversaries: tuple[str, ...] = ()
    #: (axis, value) coordinates for aggregation, e.g. ("family", "broker").
    axes: tuple[tuple[str, str], ...] = ()
    #: optional post-run metric extractor (digest-covered; see module doc).
    metrics_fn: MetricsFn | None = field(default=None, repr=False)


@dataclass(frozen=True, slots=True)
class ScenarioResult:
    """Primitive-only outcome of one scenario (picklable)."""

    index: int
    label: str
    axes: tuple[tuple[str, str], ...]
    violations: tuple[str, ...]
    transactions: int
    reverted: int
    premium_net: tuple[tuple[str, int], ...]
    #: wall time of the scenario's own work.  A scenario run by itself
    #: counts its build, run and condensing; a forked one counts the
    #: compliant segment of its base run since the previous fork, the
    #: fork, its own rounds and condensing, and the first scenario of a
    #: base run also counts the build (see :func:`run_scenarios`).
    elapsed_seconds: float
    digest: str
    #: named floats from the scenario's ``metrics_fn`` (digest-covered).
    metrics: tuple[tuple[str, float], ...] = ()
    #: lane diagram of the run, captured only when a property failed.
    trace: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations


def ledger_balances(instance: ProtocolInstance) -> list[tuple[object, str, int]]:
    """Every chain's final ``(asset, account, balance)``, in fingerprint order."""
    balances = []
    for name in sorted(instance.world.chains):
        chain = instance.world.chains[name]
        balances.extend(
            (asset, account, balance)
            for (asset, account), balance in sorted(
                chain.ledger.snapshot().items(),
                key=lambda kv: (str(kv[0][0]), kv[0][1]),
            )
        )
    return balances


def render_ledger(balances) -> str:
    """The fingerprint rule: ``asset/account=balance`` per nonzero balance,
    ``;``-joined.  The kernel engine renders balances it evaluated (not
    simulated) through this same rule."""
    return ";".join(
        f"{asset}/{account}={balance}" for asset, account, balance in balances if balance
    )


def _ledger_fingerprint(instance: ProtocolInstance) -> str:
    """Canonical rendering of every chain's final ledger state."""
    return render_ledger(ledger_balances(instance))


def condense_run(
    scenario: Scenario, instance: ProtocolInstance, result, elapsed: float
) -> ScenarioResult:
    """Condense a finished run into the scenario's :class:`ScenarioResult`.

    Shared by :func:`run_scenario` and the ablation kernel's
    audit path (`repro.campaign.ablation.kernels`): every digest-covered
    field — violations, counts, premium flows, metrics, the ledger
    fingerprint and the summary line hashed into ``digest`` — is produced
    here and only here, so the two engines cannot drift in how an outcome
    is rendered.
    """
    adversaries = frozenset(scenario.adversaries)
    violations: list[str] = []
    for prop in scenario.properties:
        violations.extend(prop(instance, result, adversaries))

    payoffs = result.payoffs
    premium_net = tuple(
        (party, payoffs.premium_net(party)) for party in sorted(instance.actors)
    )
    metrics: tuple[tuple[str, float], ...] = ()
    if scenario.metrics_fn is not None:
        # canon_float so a metric of -0.0 (e.g. a negated zero utility)
        # hashes and transports identically to 0.0 on every path.
        metrics = tuple(
            (name, canon_float(value))
            for name, value in scenario.metrics_fn(instance, result)
        )
    trace = ""
    if violations:
        # Capture the lane diagram while the run is still in hand, so a
        # violation record is debuggable without re-running the scenario.
        from repro.sim.trace import render_lanes

        trace = render_lanes(result)

    summary = "|".join(
        (
            scenario.label,
            ",".join(violations),
            str(len(result.transactions)),
            ",".join(f"{p}:{net}" for p, net in premium_net),
            ",".join(f"{name}={value!r}" for name, value in metrics),
            _ledger_fingerprint(instance),
        )
    )
    return ScenarioResult(
        index=scenario.index,
        label=scenario.label,
        axes=scenario.axes,
        violations=tuple(violations),
        transactions=len(result.transactions),
        reverted=len(result.reverted()),
        premium_net=premium_net,
        elapsed_seconds=elapsed,
        # The flow pass cannot see through the dynamic ``prop(...)`` call
        # above and conservatively assumes the adversary frozenset's
        # iteration order reaches the violation strings; properties only
        # membership-test it (see repro.checker.properties), so no order
        # escapes into the summary.
        digest=sha256(summary.encode()).hexdigest(),  # lint: disable=FLOW002
        metrics=metrics,
        trace=trace,
    )


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute one scenario by itself: build, deviate, run, condense.

    :func:`run_scenarios` gives the same result for every scenario but
    ``elapsed_seconds``, while it plays each block's compliant prefix
    once: a scenario that plays compliant before round ``r > 0`` forks
    from its block's compliant run there (see :class:`BaseRun` for why
    that is sound, and :meth:`repro.sim.runner.SyncRunner.fork` for what
    a fork copies and what it shares).
    """
    start = time.perf_counter()
    instance = scenario.builder()
    deviations = {party: strategy.transform for party, strategy in scenario.profile}
    result = execute(instance, deviations)
    return condense_run(
        scenario, instance, result, time.perf_counter() - start
    )


# ----------------------------------------------------------------------
# running many scenarios: one compliant base run per builder, plus forks
# ----------------------------------------------------------------------
def fork_round(scenario: Scenario) -> int:
    """The first round in which ``scenario`` may play unlike the compliant
    run of its build: :data:`~repro.chain.blockchain.NEVER` when it never
    does.

    Read off the wrapper each strategy's transform builds around a
    stand-in actor, never off labels.  A transform that returns its actor
    deviates nowhere.  A :class:`~repro.parties.strategies.Deviant` with
    only ``halt_round`` deviates from that round: before it, the wrapper
    passes its inner actor's transactions and wake rounds through
    unchanged.  Any other wrapper (skip rules, a skip predicate,
    injections, a laggard, an opportunist) deviates from round 0.
    """
    first = NEVER
    for party, strategy in scenario.profile:
        probe = Actor(party, None)
        wrapper = strategy.transform(probe)
        if wrapper is probe:
            continue
        if (
            type(wrapper) is Deviant
            and wrapper.inner is probe
            and wrapper.halt_round is not None
            and not (wrapper.skip_rules or wrapper.skip_predicate or wrapper.extra)
        ):
            first = min(first, max(wrapper.halt_round, 0))
        else:
            return 0
    return first


class BaseRun:
    """One build's compliant run, played on in steps: each forking
    scenario forks from it at its fork round, and the all-compliant
    scenario, if any, finishes it.

    Sound because up to the fork round the scenario's run *is* the
    compliant run, state for state (see :func:`fork_round`), and a base
    run depends only on its build.  The build draws fresh keys and
    secrets, which every fork shares; no digest reads them.  A run that
    goes idle up to its horizon before a scenario's fork round is that
    scenario's whole run too, so the scenario condenses the finished
    base; properties and metrics only read a run, so any number of
    scenarios may condense one.
    """

    def __init__(self, builder: Builder, scenarios: int) -> None:
        self.builder = builder
        #: scenarios still to run from this base; the last one drops it
        self.pending = scenarios
        self.instance: ProtocolInstance | None = None
        #: the base's result once it has run to its horizon
        self.finished: RunResult | None = None

    def run(self, scenario: Scenario, at: int) -> ScenarioResult:
        """Run ``scenario``, which plays compliant before round ``at``.

        Its ``elapsed_seconds`` is its own work: the compliant segment
        since the previous fork, the fork and the scenario's own rounds
        (and the build, for the first scenario to run).
        """
        start = time.perf_counter()
        if self.instance is None:
            self.instance = self.builder()
        instance = self.instance
        if self.finished is None:
            partial = execute(instance, until=min(at, instance.horizon))
            if instance.run is None:
                self.finished = partial
        if self.finished is not None:
            result = self.finished
        else:
            deviations = {party: strategy.transform for party, strategy in scenario.profile}
            result = execute(instance, deviations, fork=True)
            # The fork's own instance: its world, and the labels, horizon,
            # meta and party names every fork shares with the base.
            instance = replace(instance, world=result.world, run=None)
        self.pending -= 1
        if not self.pending:
            self.instance = self.finished = None
        return condense_run(scenario, instance, result, time.perf_counter() - start)


class ScenarioJob(NamedTuple):
    """One scenario's share of a planned run (see :func:`plan_scenarios`)."""

    #: the scenario's place in the planned list
    position: int
    scenario: Scenario
    #: the base run it forks from or finishes; None to run by itself
    base: BaseRun | None = None
    #: its fork round (see :func:`fork_round`)
    at: int = 0

    def __call__(self) -> ScenarioResult:
        if self.base is None:
            return run_scenario(self.scenario)
        return self.base.run(self.scenario, self.at)


def plan_scenarios(scenarios: Sequence[Scenario]) -> list[ScenarioJob]:
    """The jobs that run ``scenarios``, in the order they must run.

    Scenarios are grouped by builder identity (every scenario of a matrix
    block shares its builder).  In a group, the scenarios that play
    compliant up to some round ``r > 0`` share one :class:`BaseRun`: they
    fork from it in ascending ``r``, and the first all-compliant scenario
    finishes it last.  Every other scenario runs by itself: one that
    deviates from round 0 (forking a fresh world costs more than a
    build), a second all-compliant one, and any scenario that would share
    a base with no other.
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    for position, scenario in enumerate(scenarios):
        # Identity groups scenarios in one process; never digested.
        key = id(scenario.builder)  # lint: disable=DET001
        groups.setdefault(key, []).append((fork_round(scenario), position))
    jobs: list[ScenarioJob] = []
    for members in groups.values():
        forks = sorted(member for member in members if 0 < member[0] < NEVER)
        compliant = [member for member in members if member[0] == NEVER][:1]
        shared = forks + compliant
        if len(shared) < 2:
            shared = []
        alone = set(members).difference(shared)
        jobs.extend(
            ScenarioJob(position, scenarios[position])
            for position in sorted(position for _, position in alone)
        )
        if shared:
            base = BaseRun(scenarios[shared[0][1]].builder, len(shared))
            jobs.extend(
                ScenarioJob(position, scenarios[position], base, at)
                for at, position in shared
            )
    return jobs


def run_scenarios(scenarios: Sequence[Scenario]) -> list[ScenarioResult]:
    """Run ``scenarios`` as :func:`plan_scenarios` plans them; results come
    back in the given order, each the same as :func:`run_scenario`'s but
    for ``elapsed_seconds``."""
    results: list[ScenarioResult | None] = [None] * len(scenarios)
    for job in plan_scenarios(scenarios):
        results[job.position] = job()
    return results
