"""One strict JSON codec and input rule set for every artifact dataclass.

Shard reports, frontiers, refined rows, experiment specs and quotes
cross hosts as JSON (``merge``, ``run SPEC.json``, ``ablate-refine
--from``, ``quote-batch``, the result cache).  :func:`encode` and
:func:`decode` derive each artifact's JSON from its dataclass fields and
their annotations: ``str``, ``int``, ``float``, ``bool``, ``X | None``,
``tuple[X, ...]``, ``list[X]``, fixed tuples (``tuple[X, Y]`` or a
``NamedTuple``, whose defaulted tail may be left out), nested
dataclasses, and ``Any`` (a JSON scalar or array; arrays load as
tuples).  The rules are fixed, with no options:

- a bool is never an int;
- a float field takes an int or a float, never a string, and passes it
  through :func:`~repro.campaign.canon.canon_float` (so it is finite);
- a missing key is required unless the field has a default;
- an unknown key is an error;
- a ``field(init=False)`` is derived state and is never transported;
- a scalar may declare its domain beside its type, ``Annotated[T,
  rule]``, from a fixed rule set: an :class:`Interval` (either end open
  or closed) or a :class:`OneOf` name set.  A value is checked for its
  type, then its domain, then made canonical;
- every failure raises :class:`~repro.errors.DecodeError` (a
  ``ReproError`` and a ``ValueError``) naming the field path, e.g.
  ``rows[0].cells[1].walked must be a boolean, got 3``.

**The Python route.**  ``__post_init__`` calls :func:`check` first,
which runs each field through the same compiled decoder, in place (a
tuple passes for an array, a nested dataclass decodes through its
fields, and an array of dataclasses that check themselves passes), so
``Cls(...)`` and ``decode(Cls, ...)`` refuse the same inputs and
``__post_init__`` keeps only the rules that relate two fields.  Each
artifact keeps its shape differences (a frontier cell's coordinates live
on its row) and its hand-rendered digest in its own module;
:func:`load_stamped` checks a stamped one.  Type hints are resolved once
per annotation, on first use.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import operator
import types
import typing
from typing import Any

from repro.campaign.canon import canon_float
from repro.errors import DecodeError, ReproError

__all__ = ["DecodeError", "Interval", "OneOf", "check", "decode", "encode", "load_stamped"]

#: annotation -> (encode, decode), compiled on first use.
_CODECS: dict = {}
#: dataclass -> (name, decode, exact type, checked default) per field.
_FIELDS: dict = {}


@dataclasses.dataclass(frozen=True)
class Interval:
    """A number from ``lo`` to ``hi``; ``what`` names it in a refusal."""

    lo: float
    hi: float = float("inf")
    lo_open: bool = False
    hi_open: bool = False
    what: str = ""

    def __contains__(self, value) -> bool:
        above = self.lo < value if self.lo_open else self.lo <= value
        return above and (value < self.hi if self.hi_open else value <= self.hi)

    def __str__(self) -> str:
        return f"{'[('[self.lo_open]}{self.lo:g}, {self.hi:g}{'])'[self.hi_open]}"

    def refusal(self, shown: str) -> str:
        return f"must be {self.what or f'in {self}'}, got {shown}"


@dataclasses.dataclass(frozen=True)
class OneOf:
    """A name from the closed set ``names``, each naming a ``noun``."""

    names: tuple[str, ...]
    noun: str

    def __contains__(self, value) -> bool:
        return value in self.names

    def refusal(self, shown: str) -> str:
        return f"must be one of {list(self.names)}, got unknown {self.noun} {shown}"


def encode(obj) -> dict:
    """The JSON object of a dataclass instance, keys in field order."""
    return _codec(type(obj))[0](obj)


def decode(tp, data, path: str = ""):
    """Rebuild a ``tp`` from its JSON form ``data``; ``path`` places
    ``data`` in a larger document, for the error message."""
    try:
        return _codec(tp)[1](data)
    except DecodeError as err:
        raise err.within(path) if path else err from None


def check(obj, error: type[Exception]) -> None:
    """Decode each field of the dataclass ``obj`` (one with a ``__dict__``)
    in place, as :func:`decode` would its JSON value, raising ``error``
    naming the field path.  ``__post_init__`` calls it first."""
    if type(obj) not in _FIELDS:
        _codec(type(obj))
    values = obj.__dict__
    for name, dec, kind, default in _FIELDS[type(obj)]:
        value = values[name]
        if type(value) is not kind and value is not default:
            try:
                decoded = dec(value)
            except DecodeError as err:
                raise error(str(err.within(name))) from None
            if decoded is not value:
                values[name] = decoded


def load_stamped(cls, text: str, error, noun: str, prepare=None):
    """Load a ``cls`` (``noun``, e.g. ``"a quote"``) whose optional
    ``digest`` stamp must match, raising ``error(message)`` on any failure;
    ``prepare`` rewrites its JSON object first."""
    try:
        data = json.loads(text)
        if type(data) is not dict:
            raise ValueError(f"{noun} is a JSON object, got {type(data).__name__}")
        stamped = decode(str | None, data.pop("digest", None), "digest")
        obj = decode(cls, prepare(data) if prepare else data)
        digest = obj.digest()
        if stamped not in (None, digest):
            raise ValueError(
                f"digest mismatch after deserialization: {digest[:16]} != "
                f"{stamped[:16]} ({noun} edited without re-stamping)"
            )
    except json.JSONDecodeError as err:
        raise error(f"{noun} is not JSON: {err}") from None
    except (ValueError, ReproError) as err:  # a field, or a rule relating two
        raise error(str(err)) from None
    return obj


def _codec(tp):
    if tp not in _CODECS:
        _CODECS[tp] = _compile(tp)
    return _CODECS[tp]


def _shown(value) -> str:
    shown = repr(value)
    return shown if len(shown) <= 60 else shown[:57] + "..."


def _refuse(what: str, value) -> DecodeError:
    return DecodeError(f"must be {what}, got {_shown(value)}")


def _same(value):
    return value


#: the scalar annotations whose JSON value is the field value itself: a
#: value of exactly this type passes after one ``type()`` comparison.
_SCALARS = {str: "a string", int: "an integer", bool: "a boolean"}


def _scalar(kind: type, rule=None):
    """A scalar's (encode, decode): its type, then its domain ``rule``,
    then, for a float, its canonical value."""
    real = kind is float
    what = "a real number" if real else _SCALARS[kind]

    def decode_scalar(value):
        if type(value) is not kind and not (real and type(value) is int):
            raise _refuse(what, value)
        if rule is not None and value not in rule:
            raise DecodeError(rule.refusal(_shown(value)))
        if not real:
            return value
        try:
            return canon_float(value)
        except (ValueError, OverflowError):
            raise _refuse("finite", value) from None

    return (canon_float if real else _same), decode_scalar


def _items(decoders, value) -> list:
    """Decode each item of the array (or tuple) ``value`` by its decoder."""
    if type(value) is not list and type(value) is not tuple:
        raise _refuse("an array", value)
    items = []
    for index, (dec, item) in enumerate(zip(decoders, value)):
        try:
            items.append(dec(item))
        except DecodeError as err:
            raise err.within(f"[{index}]") from None
    return items


def _plain(value):
    """An ``Any`` value's JSON form: tuples become arrays."""
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    return value


def _any(value):
    if type(value) is list or type(value) is tuple:
        return tuple(_items(itertools.repeat(_any), value))
    if value is not None and type(value) not in (str, int, float, bool):
        raise _refuse("a JSON scalar or array", value)
    return value


def _compile(tp):
    """The (encode, decode) pair of one annotation."""
    if tp in _SCALARS or tp is float:
        return _scalar(tp)
    if tp is Any:
        return _plain, _any
    if tp is tuple:
        return _compile(tuple[Any, ...])
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Annotated:
        return _scalar(*args)
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        (inner,) = (arg for arg in args if arg is not type(None))
        enc, dec = _codec(inner)
        return (
            lambda value: None if value is None else enc(value),
            lambda value: None if value is None else dec(value),
        )
    if origin is list or (origin is tuple and args[-1] is Ellipsis):
        enc, dec = _codec(args[0])
        make = list if origin is list else tuple
        exact = args[0] in _SCALARS or dataclasses.is_dataclass(args[0])
        kind = args[0] if exact else None

        def decode_array(value):
            if (
                kind is not None
                and (type(value) is list or type(value) is tuple)
                and list(map(type, value)).count(kind) == len(value)
            ):
                return make(value)
            return make(_items(itertools.repeat(dec), value))

        return lambda value: [enc(item) for item in value], decode_array
    if origin is tuple or (origin is None and hasattr(tp, "_fields")):
        return _record(tp, args or tuple(_hints(tp).values()))
    if origin is None and dataclasses.is_dataclass(tp):
        return _object(tp)
    raise TypeError(f"repro.codec cannot carry {tp!r}")


def _record(tp, args):
    """A fixed tuple: an array of exactly these item types, except that
    a ``NamedTuple``'s defaulted tail may be left out."""
    encoders, decoders = zip(*(_codec(arg) for arg in args))
    fewest = len(args) - len(getattr(tp, "_field_defaults", ()))
    make = getattr(tp, "_make", tuple)
    what = f"an array of {len(args)} items"
    kinds = tuple(arg if arg in _SCALARS else None for arg in args)
    scalar = None not in kinds

    def decode_record(value):
        if not isinstance(value, (list, tuple)) or not fewest <= len(value) <= len(args):
            raise _refuse(what, value)
        if scalar and all(map(operator.is_, map(type, value), kinds)):
            return make(value)
        try:
            return make(_items(decoders, value))
        except DecodeError as err:
            raise DecodeError(f"must be {what}: {err}") from None

    return (
        lambda value: [enc(item) for enc, item in zip(encoders, value)],
        decode_record,
    )


def _hints(tp) -> dict:
    return typing.get_type_hints(tp, include_extras=True)


def _object(cls):
    """A dataclass's (encode, decode).  An instance of ``cls`` decodes
    through its fields, as its JSON object would, so a field holding a
    class that never checks itself (a ``MatrixSpec``) is checked by the
    :func:`check` of the class that holds it."""
    hints = _hints(cls)
    fields = [_field(field, hints[field.name]) for field in dataclasses.fields(cls) if field.init]
    names = frozenset(name for name, *_ in fields)

    def encode_object(obj) -> dict:
        return {name: enc(getattr(obj, name)) for name, enc, *_ in fields}

    def decode_object(data):
        if type(data) is cls:
            data = {name: getattr(data, name) for name, *_ in fields}
        elif type(data) is not dict:
            raise _refuse(f"a {cls.__name__} or its JSON object", data)
        unknown = data.keys() - names
        if unknown:
            raise DecodeError(f"is not a field of {cls.__name__}", min(unknown))
        kwargs = {}
        for name, _, dec, required, kind, _ in fields:
            if name in data:
                value = data[name]
                if type(value) is not kind:
                    try:
                        value = dec(value)
                    except DecodeError as err:
                        raise err.within(name) from None
                kwargs[name] = value
            elif required:
                raise DecodeError("is missing", name)
        return cls(**kwargs)

    _FIELDS[cls] = [
        (name, dec, kind, default) for name, _, dec, _, kind, default in fields
    ]
    return encode_object, decode_object


def _field(field, tp) -> tuple:
    """One field's (name, encode, decode, required, exact type, default):
    the default only if it decodes to itself, since a field left at such a
    default needs no check, else a value no caller passes."""
    enc, dec = _codec(tp)
    try:
        default = field.default if dec(field.default) is field.default else dataclasses.MISSING
    except DecodeError:
        default = dataclasses.MISSING
    required = field.default is field.default_factory is dataclasses.MISSING
    return field.name, enc, dec, required, tp if tp in _SCALARS else None, default
