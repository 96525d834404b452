"""The model-checking driver — a thin client of the campaign engine.

``ModelChecker`` keeps its historical interface (builder + properties +
per-party strategy spaces, ``profiles()``, ``run()`` → :class:`CheckReport`)
but profile enumeration, execution, and property evaluation all live in
:mod:`repro.campaign` now: the checker wraps its configuration in a
single-block :class:`repro.campaign.ScenarioMatrix` and hands it to a
:class:`repro.campaign.CampaignRunner`.  That also gives every checker the
campaign backends for free — pass ``backend="process"`` to explore a large
deviation space across worker processes.

Scenarios are independent full simulations, so exploration is
embarrassingly deterministic: the same profile always yields the same
trace, and the same matrix always yields the same run digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.campaign.matrix import ScenarioMatrix, enumerate_profiles
from repro.campaign.runner import CampaignRunner
from repro.checker.strategies import NamedStrategy
from repro.protocols.instance import ProtocolInstance
from repro.sim.runner import RunResult

Property = Callable[[ProtocolInstance, RunResult, frozenset[str]], list[str]]
Builder = Callable[[], ProtocolInstance]


@dataclass(frozen=True)
class Violation:
    """One property violation in one scenario."""

    scenario: str
    message: str


@dataclass
class CheckReport:
    """Everything the checker observed."""

    scenarios: int = 0
    transactions: int = 0
    violations: list[Violation] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: the backend that actually ran (a requested "process" backend falls
    #: back to "serial" on platforms without fork, and for selections too
    #: small to amortize the pool fork cost).
    backend: str = "serial"

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (
            f"{self.scenarios} scenarios, {self.transactions} transactions, "
            f"{self.elapsed_seconds:.2f}s: {status}"
        )


class ModelChecker:
    """Exhaustive exploration of deviation profiles for one protocol."""

    def __init__(
        self,
        builder: Builder,
        properties: Iterable[Property],
        strategies: dict[str, list[NamedStrategy]],
        max_adversaries: int = 1,
        include_compliant: bool = True,
        backend: str = "serial",
        workers: int | None = None,
    ) -> None:
        self.builder = builder
        self.properties = list(properties)
        self.strategies = strategies
        self.max_adversaries = max_adversaries
        self.include_compliant = include_compliant
        self.backend = backend
        self.workers = workers

    def profiles(self) -> Iterable[dict[str, NamedStrategy]]:
        """All adversary profiles in deterministic order."""
        return enumerate_profiles(
            self.strategies, self.max_adversaries, self.include_compliant
        )

    def matrix(self) -> ScenarioMatrix:
        """This checker's configuration as a one-block scenario matrix."""
        matrix = ScenarioMatrix()
        matrix.add_block(
            family="",  # no prefix: scenario labels stay profile labels
            schedule="",
            builder=self.builder,
            builder_id=getattr(
                self.builder, "__qualname__", type(self.builder).__name__
            ),
            properties=self.properties,
            strategies=self.strategies,
            max_adversaries=self.max_adversaries,
            include_compliant=self.include_compliant,
        )
        return matrix

    def run(self) -> CheckReport:
        """Execute every profile and evaluate every property."""
        campaign = CampaignRunner(
            self.matrix(), backend=self.backend, workers=self.workers
        ).run()
        return CheckReport(
            scenarios=campaign.scenarios,
            transactions=campaign.transactions,
            violations=[
                Violation(v.scenario, v.message) for v in campaign.violations
            ],
            elapsed_seconds=campaign.elapsed_seconds,
            backend=campaign.backend,
        )
