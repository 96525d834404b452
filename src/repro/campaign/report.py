"""The common Report protocol: one serialization contract for every engine.

:class:`~repro.campaign.runner.CampaignReport`,
:class:`~repro.campaign.ablation.frontier.FrontierReport` and
:class:`~repro.campaign.ablation.refine.RefinedFrontierReport` are one
family:

- every report class registers under a short ``kind`` string
  (:func:`register_report`), which it stamps into its JSON envelope,
- :func:`report_from_json` dispatches deserialization on that ``kind``
  (files written before the field existed are inferred from their shape,
  so old shard artifacts keep loading),
- each class's ``from_json`` parses its text once with
  :func:`parse_report` and hands the object to its class-level loader
  ``from_data`` (which :func:`report_from_json` calls directly, so a
  dispatched file is parsed once); ``from_data`` takes the envelope
  through :func:`load_payload` and the rest through the strict
  :mod:`repro.codec`, so an ill-typed, missing or unknown value fails
  with a :class:`~repro.errors.DecodeError` naming its field path; a
  stamped digest that does not recompute fails with a ``ValueError``,
- :func:`merge_reports_any` is the kind-aware merge behind the CLI's
  single ``merge`` subcommand: homogeneous inputs dispatch to the class's
  own ``merge``; a reduced artifact (frontier, refined frontier) says
  explicitly that its *underlying campaign shards* are what merge.

Like the matrix-factory registry in :mod:`repro.campaign.pool`, the
standard report modules are imported lazily on first lookup, so this
module stays import-cycle-free while ``kind`` strings remain resolvable
from anywhere (CLI, tests, cross-host tooling).  The ``kind`` field rides
in the JSON envelope only: no report digest covers it.
"""

from __future__ import annotations

import importlib
import json
from typing import Iterable, Protocol, Type, runtime_checkable

from repro import codec
from repro.errors import DecodeError


@runtime_checkable
class Report(Protocol):
    """What every campaign-engine report exposes.

    ``kind`` names the report type (the registry key), ``digest`` is the
    reproducibility digest provenance claims should cite, ``to_json`` /
    ``from_json`` round-trip the report with tamper detection (``from_data``
    is ``from_json`` on an already-parsed JSON object), and
    ``merge`` recombines shard reports of the same kind (reduced
    artifacts raise with guidance instead).
    """

    kind: str

    @property
    def digest(self) -> str: ...  # pragma: no cover - protocol

    def to_json(self) -> str: ...  # pragma: no cover - protocol

    @classmethod
    def from_json(cls, text: str) -> "Report": ...  # pragma: no cover

    @classmethod
    def from_data(cls, data: dict) -> "Report": ...  # pragma: no cover

    @classmethod
    def merge(cls, reports: "Iterable[Report]") -> "Report": ...  # pragma: no cover


_REPORT_KINDS: dict[str, Type] = {}

#: modules whose import registers the shipped report kinds; imported
#: lazily because each imports this module back for `register_report`.
_STANDARD_REPORT_MODULES = (
    "repro.campaign.runner",
    "repro.campaign.ablation.frontier",
    "repro.campaign.ablation.refine",
)


def register_report(kind: str):
    """Class decorator: register a report type under ``kind``.

    Stamps ``cls.kind`` so instances can label their own JSON envelope::

        @register_report("campaign")
        @dataclass
        class CampaignReport: ...
    """

    def decorate(cls):
        cls.kind = kind
        _REPORT_KINDS[kind] = cls
        return cls

    return decorate


def registered_report_kinds() -> tuple[str, ...]:
    """The currently registered kinds (sorted), for audits and errors."""
    for module in _STANDARD_REPORT_MODULES:
        importlib.import_module(module)
    return tuple(sorted(_REPORT_KINDS))


def report_class(kind: str) -> Type:
    """Resolve a kind to its report class, importing standard modules."""
    if kind not in _REPORT_KINDS:
        for module in _STANDARD_REPORT_MODULES:
            importlib.import_module(module)
    if kind not in _REPORT_KINDS:
        raise KeyError(
            f"unknown report kind {kind!r}; "
            f"registered: {list(registered_report_kinds())}"
        )
    return _REPORT_KINDS[kind]


def _infer_kind(data: dict) -> str:
    """Shape-infer the kind of a pre-protocol JSON file (no ``kind`` key)."""
    if "results" in data and "run_digest" in data:
        return "campaign"
    if "base_digest" in data:
        return "refined-frontier"
    if "rows" in data:
        return "frontier"
    raise ValueError(
        "not a recognizable report: no 'kind' field and the payload shape "
        "matches none of the known report kinds "
        f"({list(registered_report_kinds())})"
    )


def report_from_json(text: str) -> Report:
    """Deserialize any registered report, dispatching on its ``kind``.

    The text is parsed once: the class's loader takes the parsed object.
    """
    data = parse_report(text)
    kind = codec.decode(str, data.get("kind") or _infer_kind(data), "kind")
    try:
        cls = report_class(kind)
    except KeyError as err:
        raise ValueError(str(err))
    return cls.from_data(data)


def check_kind(cls, data: dict) -> None:
    """Shared ``from_json`` guard: a stamped kind must match the class.

    Files written before the protocol carry no ``kind`` — those pass (the
    shape already matched the deserializer the caller chose).
    """
    stamped = data.get("kind")
    if stamped is not None and stamped != cls.kind:
        raise ValueError(
            f"report kind mismatch: payload says {stamped!r} but "
            f"{cls.__name__} deserializes {cls.kind!r} — use "
            "repro.campaign.report.report_from_json for kind dispatch"
        )


def parse_report(text: str) -> dict:
    """A report file's text as its top-level JSON object."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise DecodeError(f"is not JSON: {err}") from None
    if not isinstance(data, dict):
        raise DecodeError(f"must be a JSON object, got {type(data).__name__}")
    return data


def load_payload(cls, data: dict) -> dict:
    """The parsed JSON object of a ``cls`` report, its envelope ``kind``
    checked and removed: what is left is for :func:`repro.codec.decode`."""
    check_kind(cls, data)
    data.pop("kind", None)
    return data


def merge_reports_any(reports: Iterable[Report]) -> Report:
    """Kind-aware merge: dispatch homogeneous reports to their own merge.

    This is what lets one CLI ``merge`` subcommand replace the old
    ``campaign-merge``/``ablate-merge`` pair: campaign shards (from either
    matrix shape) recombine via the class merge; mixed kinds, or reduced
    artifacts whose class merge raises, fail with guidance.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge: empty report list")
    kinds = {type(report).kind for report in reports}
    if len(kinds) > 1:
        raise ValueError(
            f"cannot merge mixed report kinds {sorted(kinds)}: merge each "
            "kind separately"
        )
    return type(reports[0]).merge(reports)
