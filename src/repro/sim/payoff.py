"""Payoff accounting.

A :class:`Valuation` assigns a per-unit value to each asset so outcomes on
different chains can be compared (the paper: "we treat all premiums as if
they were denominated in the same currency").  Native (premium) assets
default to value 1.  A :class:`PayoffSheet` diffs ledger snapshots taken
before and after a protocol run and reports, per party, the premium flow
(native assets) and the principal flow (everything else) separately, which
is how the paper's lemmas are phrased.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.assets import Asset
from repro.sim.world import World


@dataclass
class Valuation:
    """Per-unit asset values; native assets default to 1."""

    values: dict[Asset, float] = field(default_factory=dict)

    def value_of(self, asset: Asset) -> float:
        if asset in self.values:
            return self.values[asset]
        return 1.0 if asset.is_native else 0.0

    def set(self, asset: Asset, value: float) -> "Valuation":
        self.values[asset] = value
        return self


class PayoffSheet:
    """Balance diffs per party between two world snapshots."""

    def __init__(self, world: World, parties: list[str] | tuple[str, ...]) -> None:
        self._world = world
        self.parties = tuple(parties)
        self._start = self._snapshot()
        self._end: dict[tuple[Asset, str], int] | None = None
        #: party -> the assets it held before or after the run, in
        #: first-seen order (finish())
        self._assets_of: dict[str, dict[Asset, None]] = {}
        #: party -> its delta, computed on first query after finish()
        self._deltas: dict[str, dict[Asset, int]] = {}

    def fork(self, world: World) -> "PayoffSheet":
        """An unfinished sheet over ``world``, a fork of this sheet's
        world, sharing this sheet's start snapshot."""
        twin = PayoffSheet.__new__(PayoffSheet)
        twin._world = world
        twin.parties = self.parties
        twin._start = self._start
        twin._end = None
        twin._assets_of = {}
        twin._deltas = {}
        return twin

    def _snapshot(self) -> dict[tuple[Asset, str], int]:
        snap: dict[tuple[Asset, str], int] = {}
        for chain in self._world.chains.values():
            snap.update(chain.ledger.snapshot())
        return snap

    def finish(self) -> None:
        """Record the post-run snapshot and index its assets by party."""
        self._end = self._snapshot()
        # Each party's assets are indexed in first-seen order, start keys
        # then new end keys, which fixes the order delta() yields them in:
        # realized_utility sums floats in that order, and the kernel's
        # templates follow it.  Ledger order is insertion order, so this
        # order is the same in every process, whatever PYTHONHASHSEED.
        assets_of: dict[str, dict[Asset, None]] = {}
        for keys in (self._start, self._end):
            for asset, account in keys:
                assets_of.setdefault(account, {})[asset] = None
        self._assets_of = assets_of
        self._deltas = {}

    # ------------------------------------------------------------------
    # queries (valid after finish())
    # ------------------------------------------------------------------
    def delta(self, party: str) -> dict[Asset, int]:
        """Per-asset balance change for ``party``."""
        return dict(self._delta(party))

    def _delta(self, party: str) -> dict[Asset, int]:
        """The memoized delta of ``party``; callers must not mutate it."""
        out = self._deltas.get(party)
        if out is None:
            assert self._end is not None, "call finish() first"
            out = {}
            for asset in self._assets_of.get(party, ()):
                key = (asset, party)
                change = self._end.get(key, 0) - self._start.get(key, 0)
                if change:
                    out[asset] = change
            self._deltas[party] = out
        return out

    def premium_net(self, party: str) -> int:
        """Net flow of native (premium) currency across all chains."""
        return sum(v for a, v in self._delta(party).items() if a.is_native)

    def principal_delta(self, party: str) -> dict[Asset, int]:
        """Balance changes in non-native assets only."""
        return {a: v for a, v in self._delta(party).items() if not a.is_native}

    def total_value(self, party: str, valuation: Valuation) -> float:
        """Value-weighted total payoff for ``party``."""
        return sum(valuation.value_of(a) * v for a, v in self._delta(party).items())

    def realized_utility(self, party: str, price_of, height: int) -> float:
        """The party's realized utility under an exogenous price path.

        ``price_of(asset, height)`` is a per-unit value function (e.g.
        :class:`repro.parties.rational.TokenPrices`); the party's final
        balance deltas are valued at the path's prices at ``height`` —
        typically the run horizon, so a mid-run shock is priced in.  This
        is the quantity the ablation engine compares between a rational
        deviator and its compliant twin to decide whether deviating paid.
        """
        return sum(
            price_of(asset, height) * change
            for asset, change in self._delta(party).items()
        )

    def table(self) -> dict[str, dict[str, object]]:
        """A printable summary: premium net + principal deltas per party."""
        return {
            p: {
                "premium_net": self.premium_net(p),
                "principals": {str(a): v for a, v in self.principal_delta(p).items()},
            }
            for p in self.parties
        }
