"""Persisted record layouts, declared once.

Every persisted JSON document is declared as a frozen dataclass whose
fields mirror its keys, in order: a ``@layout`` class, or a domain
dataclass that already matches (``FaultSite``, ``Classification``).
:func:`encode` and the strict :func:`decode` both walk that declaration,
so a writer and its reader cannot drift apart. Annotations understood:
checked scalars (a ``bool`` is not an ``int``), ``Any``, and bare
``dict`` and ``list`` (their contents passed through unchecked), enums (stored by value), nested dataclasses, lists and
tuples, ``T | None``, ``Literal`` choices and tags, and unions of
dataclasses told apart by their first field's ``Literal`` tag. :func:`key`
adds bounds; checks spanning several fields stay explicit in the caller.
"""

from __future__ import annotations

import dataclasses
import enum
import types
from functools import lru_cache
from typing import Any, Callable, Literal, Union, get_args, get_origin, get_type_hints

__all__ = [
    "SCHEMA_VERSION", "Version", "SpecError",
    "layout", "key", "encode", "decode", "decode_record",
]

#: Schema version written into every versioned artefact.
SCHEMA_VERSION = 1

#: Annotation of a ``schema_version`` field: exactly :data:`SCHEMA_VERSION`.
Version = Literal[SCHEMA_VERSION]

_Decoder = Callable[[Any, str], Any]
_Encoder = Callable[[Any], Any]


class SpecError(ValueError):
    """A document failed validation at ``path`` (dotted, e.g. ``workload.m``)."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def layout(cls: type) -> type:
    """Declare a record layout: a frozen, keyword-only dataclass (keyword-only
    so a constant tag with a default may precede required fields)."""
    return dataclasses.dataclass(frozen=True, kw_only=True)(cls)


def key(
    default: Any = dataclasses.MISSING,
    *,
    minimum: int | None = None,
    positive: bool = False,
) -> Any:
    """A layout field with bounds: ``minimum`` for integers (and their
    lists), ``positive`` for numbers."""
    metadata = {"minimum": minimum, "positive": positive}
    return dataclasses.field(default=default, metadata=metadata)


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _fail(where: str, expected: str, value: Any) -> SpecError:
    return SpecError(where, f"expected {expected}, got {type(value).__name__}")


def _scalar(tp: type, minimum: int | None, positive: bool) -> _Decoder:
    expected = {int: "an integer", float: "a number", str: "a string",
                bool: "a boolean", dict: "an object", list: "a list"}[tp]
    accepted = (int, float) if tp is float else tp

    def decode_scalar(value: Any, where: str) -> Any:
        if not isinstance(value, accepted) or (
            isinstance(value, bool) and tp is not bool
        ):
            raise _fail(where, expected, value)
        if minimum is not None and value < minimum:
            raise SpecError(where, f"must be >= {minimum}, got {value}")
        if positive and not value > 0:
            raise SpecError(where, f"must be > 0, got {value}")
        return float(value) if tp is float else value
    return decode_scalar


def _choice(choices: tuple[Any, ...]) -> _Decoder:
    def decode_choice(value: Any, where: str) -> Any:
        if value not in choices:
            raise SpecError(where, f"must be one of {sorted(choices)}, got {value!r}")
        return value
    return decode_choice


def _tagged(members: tuple[type, ...]) -> _Decoder:
    """A union of dataclasses, told apart by their first (tag) field; a
    missing tag selects the first member if its tag has a default."""
    tag = dataclasses.fields(members[0])[0]
    by_tag = {get_args(_hints(m)[tag.name])[0]: m for m in members}
    check_tag = _choice(tuple(by_tag))

    def decode_tagged(value: Any, where: str) -> Any:
        if not isinstance(value, dict):
            raise _fail(where, "an object", value)
        if tag.name not in value and tag.default is dataclasses.MISSING:
            raise SpecError(_join(where, tag.name), "required field")
        chosen = check_tag(value.get(tag.name, tag.default), _join(where, tag.name))
        return decode(by_tag[chosen], value, where)
    return decode_tagged


def _sequence(items: tuple[_Decoder, ...] | _Decoder, build: type) -> _Decoder:
    """A JSON list decoded item by item — one decoder for every item, or a
    fixed tuple of per-position decoders. Items are decoded under the
    list's own path; only when one fails are they walked again under
    ``where[i]`` to name it, so a valid list formats no item paths."""
    def decode_sequence(value: Any, where: str) -> Any:
        if not isinstance(value, list):
            raise _fail(where, "a list", value)
        decoders = items if isinstance(items, tuple) else [items] * len(value)
        if len(value) != len(decoders):
            raise SpecError(where, f"expected {len(decoders)} items, got {len(value)}")
        try:
            return build([dec(item, where) for dec, item in zip(decoders, value)])
        except SpecError:
            for i, (dec, item) in enumerate(zip(decoders, value)):
                dec(item, f"{where}[{i}]")
            raise
    return decode_sequence


def _plain_ints(count: int | None, build: type, decode_items: _Decoder) -> _Decoder:
    """A list or tuple of unbounded ints (``count`` of them when fixed):
    taken in one pass when every item is exactly an ``int``, else decoded
    item by item, which also words any error."""
    def decode_plain_ints(value: Any, where: str) -> Any:
        if (
            type(value) is list
            and (count is None or len(value) == count)
            and all(type(item) is int for item in value)
        ):
            return build(value)
        return decode_items(value, where)
    return decode_plain_ints


def _converters(
    tp: Any, minimum: int | None = None, positive: bool = False
) -> tuple[_Decoder, _Encoder | None]:
    """``(decode, encode)`` for annotation ``tp``; ``encode`` is ``None``
    when the value is JSON-native already and passes through."""
    origin, args = get_origin(tp), get_args(tp)
    if tp is Any:
        return (lambda value, where: value), None
    if dataclasses.is_dataclass(tp):
        return (lambda value, where: decode(tp, value, where)), (
            lambda value: encode(value, tp)
        )
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        check = _choice(tuple(member.value for member in tp))
        return (lambda value, where: tp(check(value, where))), (lambda v: v.value)
    if origin is Literal:
        return _choice(args), None
    if origin in (list, tuple):
        fixed = origin is tuple and args[1:] != (Ellipsis,)
        parts = [_converters(a, minimum, positive) for a in args[:None if fixed else 1]]
        items = tuple(d for d, _ in parts) if fixed else parts[0][0]
        decoder = _sequence(items, origin)
        if minimum is None and not positive and set(args) - {Ellipsis} == {int}:
            decoder = _plain_ints(len(args) if fixed else None, origin, decoder)
        item_encode = parts[0][1]
        if item_encode is None:
            return decoder, list
        return decoder, lambda value: [item_encode(item) for item in value]
    if origin in (Union, types.UnionType):
        members = tuple(arg for arg in args if arg is not type(None))
        if len(members) > 1:
            return _tagged(members), encode
        inner_decode, inner_encode = _converters(members[0], minimum, positive)

        def decode_optional(value: Any, where: str) -> Any:
            return None if value is None else inner_decode(value, where)

        if inner_encode is None:
            return decode_optional, None
        return decode_optional, lambda v: None if v is None else inner_encode(v)
    return _scalar(tp, minimum, positive), None


@lru_cache(maxsize=None)
def _hints(cls: type) -> dict[str, Any]:
    return get_type_hints(cls)


@lru_cache(maxsize=None)
def _keys(cls: type) -> tuple[tuple[str, bool, _Decoder, _Encoder | None], ...]:
    """``(name, required, decode, encode)`` for every field of ``cls``."""
    keys = []
    for spec in dataclasses.fields(cls):
        meta = spec.metadata
        decoder, encoder = _converters(
            _hints(cls)[spec.name], meta.get("minimum"), meta.get("positive", False)
        )
        required = (
            spec.default is dataclasses.MISSING
            and spec.default_factory is dataclasses.MISSING
        )
        keys.append((spec.name, required, decoder, encoder))
    return tuple(keys)


def encode(record: Any, tp: type | None = None) -> dict[str, Any]:
    """The JSON object of a dataclass instance: the fields of ``tp`` (the
    declared type; by default the record's own) in declaration order."""
    return {
        name: getattr(record, name) if enc is None else enc(getattr(record, name))
        for name, _, _, enc in _keys(tp or type(record))
    }


def decode(tp: Any, data: Any, path: str = "") -> Any:
    """Strictly rebuild a value of type ``tp`` — usually a dataclass — from
    its JSON form. Raises :class:`SpecError` naming the offending key."""
    if not dataclasses.is_dataclass(tp):
        return _converters(tp)[0](data, path)
    if not isinstance(data, dict):
        raise _fail(path, "an object", data)
    keys = _keys(tp)
    names = {name for name, *_ in keys}
    for name in data:
        if name not in names:
            raise SpecError(_join(path, name), "unknown field")
    values = {}
    for name, required, dec, _ in keys:
        if name in data:
            values[name] = dec(data[name], _join(path, name))
        elif required:
            raise SpecError(_join(path, name), "required field")
    return tp(**values)


def decode_record(cls: type, data: Any, noun: str) -> Any:
    """:func:`decode` behind an envelope check — ``kind`` tag, schema
    version, top-level keys — whose :class:`ValueError` names the record
    (``"job record"``)."""
    fields = {spec.name: spec for spec in dataclasses.fields(cls)}
    if not isinstance(data, dict) or (
        "kind" in fields and data.get("kind") != fields["kind"].default
    ):
        raise ValueError(f"not a {noun}")
    if "schema_version" in fields and data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported {noun} schema version {data.get('schema_version')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"unknown {noun} fields: {sorted(unknown)}")
    for name, required, _, _ in _keys(cls):
        if required and name not in data:
            raise ValueError(f"{noun} is missing {name!r}")
    return decode(cls, data)
