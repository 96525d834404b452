"""One campaign scenario: a full simulation condensed to a stable digest.

A :class:`Scenario` is executable data: a protocol builder, an adversary
profile (party → labelled actor transform), the properties to assert, and
the axis coordinates used for aggregation.  :func:`run_scenario` executes
it — build, deviate, run to the horizon, evaluate every property — and
condenses the run into a :class:`ScenarioResult` made only of primitives,
so results cross process boundaries cheaply.

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
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Callable, Protocol

from repro.campaign.canon import canon_float
from repro.protocols.instance import ProtocolInstance, execute

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
    """Execute one scenario and condense the run."""
    start = time.perf_counter()
    instance = scenario.builder()
    deviations = {party: strategy.transform for party, strategy in scenario.profile}
    result = execute(instance, deviations)
    return condense_run(
        scenario, instance, result, time.perf_counter() - start
    )
