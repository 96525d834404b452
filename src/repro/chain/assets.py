"""Asset identifiers.

An :class:`Asset` names a fungible token managed by exactly one chain.
Amounts everywhere in the library are integers (base units), which keeps
premium arithmetic exact — Equations 1 and 2 of the paper are closed under
integer ``p``.  Each chain has a *native* asset used to pay premiums on that
chain (§4: "We assume each blockchain has a native currency that can be used
to pay premiums on that chain").

Chains hand out one interned :class:`Asset` per ``(chain, symbol)``
(:func:`asset_of`), so ledger keys built from them compare by identity
before falling back to the dataclass ``__eq__``.  Interning is an
optimisation only: an ``Asset`` built directly, or unpickled in another
process, is equal to the interned one and hashes the same.
"""

from __future__ import annotations

from dataclasses import dataclass

NATIVE_SYMBOL = "native"


@dataclass(frozen=True, order=True)
class Asset:
    """A fungible asset: ``chain`` that manages it and a ``symbol``."""

    chain: str
    symbol: str

    @property
    def is_native(self) -> bool:
        """True for the chain's native (premium) currency."""
        return self.symbol == NATIVE_SYMBOL

    def __str__(self) -> str:
        return f"{self.symbol}@{self.chain}"


#: the interned assets, one per (chain, symbol); chain and symbol names
#: come from protocol builders, so the table stays as small as they are.
_INTERNED: dict[tuple[str, str], Asset] = {}


def asset_of(chain: str, symbol: str) -> Asset:
    """The interned asset ``symbol`` managed by ``chain``."""
    key = (chain, symbol)
    asset = _INTERNED.get(key)
    if asset is None:
        asset = _INTERNED[key] = Asset(chain, symbol)
    return asset


def native_asset(chain: str) -> Asset:
    """The native premium currency of ``chain``."""
    return asset_of(chain, NATIVE_SYMBOL)
