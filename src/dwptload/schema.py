"""Strict conversion between the package's dataclasses and JSON documents.

Run configs and scenario files share one format:

* a dataclass is a JSON object with one key per field, named after the
  field unless the field's metadata gives another ``"key"``;
* a class with a ``kind`` class attribute carries it as a ``"kind"`` key,
  which picks the member when a field's type is a ``Union`` of such
  classes;
* a ``tuple[X, ...]`` is an array and ``None`` is ``null``.

Reading is strict.  Unknown keys, a missing key for a field without a
default and a value of the wrong JSON type each raise ``ValueError``
naming the value's dotted path, such as
``config.traffic.classes[0].demand``.  An ``int`` takes JSON integers
only, a ``bool`` only ``true`` or ``false``, a ``float`` any number but no
bool or string, and ``null`` is accepted only where the type is
``Optional``.  Range checks stay in the dataclasses' ``__post_init__``;
a ``ValueError`` raised there is reported with the object's path.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, Union

_JSON_TYPE = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, str, Any, bool], ...]:
    """(field name, document key, type, required) for each field of ``cls``."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            f.metadata.get("key", f.name),
            hints[f.name],
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


def to_dict(obj: Any) -> Any:
    """The JSON document of a dataclass instance, tuple or scalar."""
    if dataclasses.is_dataclass(obj):
        doc = {"kind": obj.kind} if hasattr(obj, "kind") else {}
        for name, key, _, _ in _fields(type(obj)):
            doc[key] = to_dict(getattr(obj, name))
        return doc
    if isinstance(obj, tuple):
        return [to_dict(item) for item in obj]
    return obj


def from_dict(cls: Any, doc: Any, where: str) -> Any:
    """Build a ``cls`` from a parsed JSON value; ``where`` names it in errors."""
    args = typing.get_args(cls)
    if typing.get_origin(cls) is Union:
        if doc is None and type(None) in args:
            return None
        members = [a for a in args if a is not type(None)]
        if len(members) > 1:
            kinds = {m.kind: m for m in members}
            kind = doc.get("kind") if isinstance(doc, dict) else None
            if kind not in kinds:
                raise ValueError(
                    f"{where}: unknown kind {kind!r}, expected one of {sorted(kinds)}"
                )
            return _object(kinds[kind], doc, where)
        cls = members[0]
    if doc is None:
        raise ValueError(f"{where}: must not be null")
    if typing.get_origin(cls) is tuple:
        if not isinstance(doc, list):
            raise ValueError(f"{where}: expected an array, got {doc!r}")
        return tuple(from_dict(args[0], item, f"{where}[{i}]") for i, item in enumerate(doc))
    if dataclasses.is_dataclass(cls):
        return _object(cls, doc, where)
    # bool is a subclass of int, so only a bool field may take true or false.
    accepted = (int, float) if cls is float else cls
    if isinstance(doc, accepted) and isinstance(doc, bool) == (cls is bool):
        return float(doc) if cls is float else doc
    raise ValueError(f"{where}: expected {_JSON_TYPE[cls]}, got {doc!r}")


def _object(cls: type, doc: Any, where: str) -> Any:
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object, got {doc!r}")
    fields = _fields(cls)
    allowed = {key for _, key, _, _ in fields}
    if hasattr(cls, "kind"):
        allowed.add("kind")  # checked by the Union that picked cls
    unknown = doc.keys() - allowed
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {sorted(unknown)}")
    kwargs = {}
    for name, key, tp, required in fields:
        if key in doc:
            kwargs[name] = from_dict(tp, doc[key], f"{where}.{key}")
        elif required:
            raise ValueError(f"{where}: missing key {key!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
