"""The simulated multi-chain world.

A :class:`World` owns the key registry and a set of lock-stepped chains.
Actors never touch a :class:`repro.chain.blockchain.Blockchain` directly;
they receive a :class:`WorldView` of read-only chain views each round.

A world forks between rounds (:meth:`World.fork`) into a copy that a
run can take on from there, independently of the original.
"""

from __future__ import annotations

from repro.chain.blockchain import Blockchain, ChainView, ForkMemo
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.errors import ChainError


class World:
    """All chains of one simulation, advanced in lockstep."""

    def __init__(self, chain_names: tuple[str, ...] | list[str]) -> None:
        self.registry = KeyRegistry()
        self.chains: dict[str, Blockchain] = {
            name: Blockchain(name, self.registry) for name in chain_names
        }
        # One view per chain for the world's lifetime: a view reads live
        # chain state, so every round's WorldView can hand out the same one.
        self._views: dict[str, ChainView] = {
            name: ChainView(chain) for name, chain in self.chains.items()
        }
        self.public_of: dict[str, str] = {}

    def fork(self, memo: ForkMemo) -> "World":
        """A copy of this world between rounds.

        The copy owns a fork of the registry, of every chain (and with it
        each ledger and contract) and its public-key map; it shares every
        frozen value.  ``memo`` collects each original the fork copied, so
        a later :meth:`~repro.parties.base.Actor.fork` into the same memo
        points the forked actors at the forked contracts.
        """
        twin = World.__new__(World)
        twin.registry = self.registry.fork()
        twin.chains = {
            name: chain.fork(twin.registry, memo) for name, chain in self.chains.items()
        }
        twin._views = {name: ChainView(chain) for name, chain in twin.chains.items()}
        twin.public_of = dict(self.public_of)
        return twin

    @property
    def height(self) -> int:
        """Common height of all chains (they advance in lockstep)."""
        heights = {chain.height for chain in self.chains.values()}
        if len(heights) != 1:
            raise ChainError(f"chains out of lockstep: {heights}")
        return heights.pop()

    def chain(self, name: str) -> Blockchain:
        """Look up a chain by name."""
        try:
            return self.chains[name]
        except KeyError:
            raise ChainError(f"no chain named {name!r}") from None

    def chain_view(self, name: str) -> ChainView:
        """The read-only view of a chain, shared by every round."""
        try:
            return self._views[name]
        except KeyError:
            raise ChainError(f"no chain named {name!r}") from None

    def register_party(self, name: str, keypair: KeyPair | None = None) -> KeyPair:
        """Create/record a party's key pair and publish its public key."""
        keypair = keypair or KeyPair.generate(owner=name)
        self.registry.register(keypair)
        self.public_of[name] = keypair.public
        return keypair

    def fund(self, chain: str, account: str, symbol: str, amount: int) -> None:
        """Genesis allocation: mint ``amount`` of an asset to ``account``."""
        host = self.chain(chain)
        host.ledger.mint(host.asset(symbol), account, amount)

    def view(self) -> "WorldView":
        """A read-only observation of every chain at the current height."""
        return WorldView(self, self.height)


class WorldView:
    """Read-only facade over all chains, handed to actors each round."""

    def __init__(self, world: World, height: int) -> None:
        self._world = world
        self.height = height

    def chain(self, name: str) -> ChainView:
        return self._world.chain_view(name)

    @property
    def chain_names(self) -> tuple[str, ...]:
        return tuple(self._world.chains)
