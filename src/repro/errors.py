"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Contract execution errors derive
from :class:`ContractError`; raising one inside a contract call aborts the
transaction and rolls back all ledger effects, mirroring EVM ``revert``
semantics.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class DecodeError(ReproError, ValueError):
    """An artifact document does not match its declared shape.

    ``path`` locates the bad value (``rows[0].cells[1].walked``; empty
    for the document itself), ``problem`` says what is wrong with it.
    """

    def __init__(self, problem: str, path: str = "") -> None:
        super().__init__(problem, path)
        self.problem, self.path = problem, path

    def within(self, segment: str) -> "DecodeError":
        """The same error under field or index ``segment`` of its parent."""
        dot = "." if self.path and self.path[0] != "[" else ""
        return DecodeError(self.problem, segment + dot + self.path)

    def __str__(self) -> str:
        return f"{self.path or 'document'} {self.problem}"


class LedgerError(ReproError):
    """A ledger operation could not be performed (e.g. insufficient funds)."""


class InsufficientFunds(LedgerError):
    """An account tried to move more of an asset than it holds."""


class UnknownAsset(LedgerError):
    """An asset identifier is not registered on this chain."""


class ChainError(ReproError):
    """A blockchain-level operation failed (bad height, unknown contract...)."""


class ContractError(ReproError):
    """Raised inside contract code to revert the enclosing transaction.

    Analogous to ``revert`` on Ethereum: all state changes performed by the
    transaction are rolled back and the error message is recorded in the
    transaction receipt.
    """


class AuthError(ContractError):
    """The caller is not authorized to perform a contract action."""


class TimeoutViolation(ContractError):
    """An action arrived after its deadline (or before it becomes legal)."""


class StateError(ContractError):
    """A contract method was called in an incompatible contract state."""


class CryptoError(ReproError):
    """Signature or hashlock verification failed."""


class ProtocolError(ReproError):
    """A protocol harness was configured inconsistently."""


class GraphError(ReproError):
    """A swap digraph does not satisfy a structural requirement."""


class CheckerError(ReproError):
    """The model-checking explorer detected a property violation."""
