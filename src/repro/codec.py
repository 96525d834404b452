"""One strict JSON codec for every artifact dataclass.

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
- every failure raises :class:`~repro.errors.DecodeError` (a
  ``ReproError`` and a ``ValueError``) naming the field path, e.g.
  ``rows[0].cells[1].walked must be a boolean, got 3``.

Decoding calls the constructor, so ``__post_init__`` checks still run.
Each artifact keeps its true shape differences (a frontier cell's
coordinates live on its row) and its digest renderer in its own module:
identity is rendered by hand, never through this one.  Type hints are
resolved once per annotation, on first use.
"""

from __future__ import annotations

import dataclasses
import itertools
import types
import typing
from typing import Any

from repro.campaign.canon import canon_float
from repro.errors import DecodeError

__all__ = ["DecodeError", "decode", "encode"]

#: annotation -> (encode, decode), compiled on first use.
_CODECS: dict = {}


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


def _codec(tp):
    if tp not in _CODECS:
        _CODECS[tp] = _compile(tp)
    return _CODECS[tp]


def _refuse(what: str, value) -> DecodeError:
    shown = repr(value)
    shown = shown if len(shown) <= 60 else shown[:57] + "..."
    return DecodeError(f"must be {what}, got {shown}")


def _same(value):
    return value


def _exact(kind: type, what: str):
    def decode_exact(value):
        if type(value) is not kind:
            raise _refuse(what, value)
        return value

    return decode_exact


def _real(value) -> float:
    if type(value) is not float and type(value) is not int:
        raise _refuse("a real number", value)
    try:
        return canon_float(value)
    except (ValueError, OverflowError):
        raise _refuse("finite", value) from None


def _items(decoders, value) -> list:
    """Decode each item of the array ``value`` by its decoder."""
    if type(value) is not list:
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
    if type(value) is list:
        return tuple(_items(itertools.repeat(_any), value))
    if value is not None and type(value) not in (str, int, float, bool):
        raise _refuse("a JSON scalar or array", value)
    return value


def _compile(tp):
    """The (encode, decode) pair of one annotation."""
    if tp in (str, int, bool):
        what = {str: "a string", int: "an integer", bool: "a boolean"}[tp]
        return _same, _exact(tp, what)
    if tp is float:
        return canon_float, _real
    if tp is Any:
        return _plain, _any
    if tp is tuple:
        return _compile(tuple[Any, ...])
    origin, args = typing.get_origin(tp), typing.get_args(tp)
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
        return (
            lambda value: [enc(item) for item in value],
            lambda value: make(_items(itertools.repeat(dec), value)),
        )
    if origin is tuple or (origin is None and hasattr(tp, "_fields")):
        return _record(tp, args or tuple(typing.get_type_hints(tp).values()))
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

    def decode_record(value):
        if type(value) is not list or not fewest <= len(value) <= len(args):
            raise _refuse(what, value)
        try:
            return make(_items(decoders, value))
        except DecodeError as err:
            raise DecodeError(f"must be {what}: {err}") from None

    return (
        lambda value: [enc(item) for enc, item in zip(encoders, value)],
        decode_record,
    )


def _object(cls):
    hints = typing.get_type_hints(cls)
    fields = [
        (
            field.name,
            *_codec(hints[field.name]),
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING,
        )
        for field in dataclasses.fields(cls)
        if field.init
    ]
    names = frozenset(name for name, *_ in fields)

    def encode_object(obj) -> dict:
        return {name: enc(getattr(obj, name)) for name, enc, _, _ in fields}

    def decode_object(data):
        if type(data) is not dict:
            raise _refuse("a JSON object", data)
        unknown = data.keys() - names
        if unknown:
            raise DecodeError(f"is not a field of {cls.__name__}", min(unknown))
        kwargs = {}
        for name, _, dec, required in fields:
            if name in data:
                try:
                    kwargs[name] = dec(data[name])
                except DecodeError as err:
                    raise err.within(name) from None
            elif required:
                raise DecodeError("is missing", name)
        return cls(**kwargs)

    return encode_object, decode_object
