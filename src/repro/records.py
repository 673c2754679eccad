"""The JSON form of the frozen dataclass records that outlive a run.

A record's JSON form is stated once, by its dataclass: :func:`to_json`
writes its fields in field order, and :func:`from_json` reads a
payload back by the fields' type hints. Scorecards and journal headers
travel this way through checkpoint journals, decision audits through
JSONL traces, and the sweep report's rows into its JSON document.

Reading is strict. A value of the wrong JSON type is refused, not
coerced (``2.7`` is no ``int``, ``true`` no ``int``, ``"nan"`` no
``float``), and so is a key the record does not have. A missing field
takes its dataclass default, or is refused if it has none. Each
refusal is a :class:`ValueError` naming the field's path, e.g.
``scorecard.audit.skips[0][1]: expected an integer, got 2.5``; callers
re-raise it as their own error type.

:func:`content_hash` is the one fingerprint hash: what a checkpoint
journal records to tell one cell's (or one sweep grid's) configuration
from another's.

Supported field types: ``str``, ``int`` (not ``bool``), ``float`` (any
JSON number but ``bool``, read as ``float``), ``bool``,
``Optional[X]``, ``Tuple[X, ...]``, fixed ``Tuple[X, Y, ...]``,
``Mapping[str, X]`` and nested dataclasses. :func:`decoder` raises
:class:`TypeError` for any other type, the first time a record type is
used.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import hashlib
import json
import typing
from typing import Any, Callable, Dict, Mapping

#: Decodes one JSON value found at the given path.
Decoder = Callable[[object, str], Any]


def to_json(value: Any) -> Any:
    """``value`` as plain JSON data: a dataclass becomes a dict in
    field order, a tuple or list a list, a mapping a dict."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_json(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [to_json(item) for item in value]
    if isinstance(value, collections.abc.Mapping):
        return {key: to_json(item) for key, item in value.items()}
    raise TypeError(f"no JSON form for {type(value).__name__}")


def content_hash(doc: Mapping[str, object]) -> str:
    """A fingerprint: the first 16 hex digits of the SHA-256 of ``doc``
    as key-sorted JSON. ``doc`` names everything that determines what
    is fingerprinted, floats as ``repr`` strings."""
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def from_json(kind: Any, payload: object, name: str = "value") -> Any:
    """Read ``payload`` back as a value of type hint ``kind``.

    ``name`` heads the field path in error messages. Raises
    :class:`ValueError` for a payload that does not fit ``kind``.
    """
    return decoder(kind)(payload, name)


def _mismatch(path: str, expected: str, value: object) -> ValueError:
    text = repr(value)
    if len(text) > 60:
        text = text[:57] + "..."
    return ValueError(f"{path}: expected {expected}, got {text}")


def _str(value: object, path: str) -> str:
    if isinstance(value, str):
        return value
    raise _mismatch(path, "a string", value)


def _int(value: object, path: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _mismatch(path, "an integer", value)


def _float(value: object, path: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise _mismatch(path, "a number", value)


def _bool(value: object, path: str) -> bool:
    if isinstance(value, bool):
        return value
    raise _mismatch(path, "a boolean", value)


_SCALARS: Dict[Any, Decoder] = {
    str: _str, int: _int, float: _float, bool: _bool,
}


@functools.lru_cache(maxsize=None)
def decoder(kind: Any) -> Decoder:
    """The decoder for type hint ``kind``, built once per type.

    Resolves a dataclass's type hints and checks every field type;
    raises :class:`TypeError` if one has no JSON form here.
    """
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar
    if isinstance(kind, type) and dataclasses.is_dataclass(kind):
        return _dataclass_decoder(kind)
    origin = typing.get_origin(kind)
    args = typing.get_args(kind)
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        inner = decoder(args[0] if args[1] is type(None) else args[1])
        return lambda value, path: (
            None if value is None else inner(value, path)
        )
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = decoder(args[0])

        def variadic(value: object, path: str) -> Any:
            if not isinstance(value, list):
                raise _mismatch(path, "a list", value)
            return tuple(
                item(entry, f"{path}[{index}]")
                for index, entry in enumerate(value)
            )

        return variadic
    if origin is tuple and args:
        items = [decoder(arg) for arg in args]

        def fixed(value: object, path: str) -> Any:
            if not isinstance(value, list) or len(value) != len(items):
                raise _mismatch(path, f"a list of {len(items)}", value)
            return tuple(
                decode(entry, f"{path}[{index}]")
                for index, (decode, entry) in enumerate(zip(items, value))
            )

        return fixed
    if origin is collections.abc.Mapping and args[0] is str:
        entry_decoder = decoder(args[1])

        def mapping(value: object, path: str) -> Any:
            if not isinstance(value, dict):
                raise _mismatch(path, "an object", value)
            return {
                key: entry_decoder(entry, f"{path}.{key}")
                for key, entry in value.items()
            }

        return mapping
    raise TypeError(f"no JSON codec for type {kind!r}")


def _dataclass_decoder(cls: type) -> Decoder:
    hints = typing.get_type_hints(cls)
    fields = [
        (
            field.name,
            decoder(hints[field.name]),
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING,
        )
        for field in dataclasses.fields(cls)
    ]
    names = frozenset(name for name, _, _ in fields)

    def decode(value: object, path: str) -> Any:
        if not isinstance(value, dict):
            raise _mismatch(path, "an object", value)
        unknown = [key for key in value if key not in names]
        if unknown:
            raise ValueError(
                f"{path}: unknown field(s) {', '.join(map(str, unknown))}"
            )
        values: Dict[str, Any] = {}
        for name, decode_field, required in fields:
            if name in value:
                values[name] = decode_field(value[name], f"{path}.{name}")
            elif required:
                raise ValueError(f"{path}.{name}: missing")
        return cls(**values)

    return decode


__all__ = ["Decoder", "content_hash", "decoder", "from_json", "to_json"]
