"""repro — hedged cross-chain transactions.

A production-quality reproduction of Yingjie Xue and Maurice Herlihy,
*"Hedging Against Sore Loser Attacks in Cross-Chain Transactions"*
(PODC 2021, arXiv:2105.06322): a multi-chain simulator with contract-level
escrow, the base protocols the paper transforms (HTLC swaps, Herlihy '18
multi-party swaps, brokered deals, auctions), their hedged counterparts
with the paper's premium structures, a model-checking analog, and the
economic analysis layer (CRR premium pricing, rational-deviation games).

Quickstart::

    from repro.core import HedgedTwoPartySwap, extract_two_party_outcome
    from repro.protocols.instance import execute

    instance = HedgedTwoPartySwap().build()
    result = execute(instance)
    outcome = extract_two_party_outcome(instance, result)
    assert outcome.swapped and outcome.alice_premium_net == 0

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for the paper-versus-measured record.
"""

from importlib import import_module

__version__ = "1.0.0"

__all__ = ["__version__"]


def lazy_exports(namespace: dict, exports: dict[str, str]) -> None:
    """Make a package resolve its re-exports on first attribute access.

    ``exports`` maps each public name to the module that defines it; a
    submodule exported under its own name maps to itself.  The package
    gets ``__all__`` in table order and a PEP 562 ``__getattr__`` that
    imports the defining module on first use and keeps the value in the
    package namespace, so importing a package loads none of what it
    re-exports.  Code under ``src/`` imports from the defining module.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        source = exports[name]
        module = import_module(source)
        value = module if source == f"{package}.{name}" else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    namespace.update(__all__=list(exports), __getattr__=__getattr__, __dir__=__dir__)
