"""Strict conversion between the package's dataclasses and JSON documents.

Run configs and scenario files share one format:

* a dataclass is a JSON object with one key per field, named after the
  field unless the field's metadata gives another ``"key"``;
* a class with a ``kind`` class attribute carries it as a ``"kind"`` key,
  which picks the member when a field's type is a ``Union`` of such
  classes;
* a ``tuple[X, ...]`` is an array and ``None`` is ``null``;
* a class with a ``row_type`` class attribute is a table held column by
  column: its document is an array of ``row_type`` objects, ``column(name)``
  gives the values of one of their fields as a float array or a list, and
  the class is built from one keyword argument per field, each a list of
  values.  A row's fields are scalars.

:func:`dumps` writes a document as ``json.dumps(doc, indent=2,
sort_keys=True)`` does, byte for byte, and writes each table column by
column.

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
import json
import typing
from itertools import chain, repeat
from typing import Any, Union

import numpy as np

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


def members(obj: Any) -> dict:
    """The keys of a dataclass instance's document and their values, not
    yet converted."""
    doc = {"kind": obj.kind} if hasattr(obj, "kind") else {}
    for name, key, _, _ in _fields(type(obj)):
        doc[key] = getattr(obj, name)
    return doc


def to_dict(obj: Any) -> Any:
    """The JSON document of a dataclass instance, table, tuple or scalar."""
    if hasattr(obj, "row_type"):
        fields = _fields(obj.row_type)
        keys = [key for _, key, _, _ in fields]
        columns = [_values(obj.column(name)) for name, _, _, _ in fields]
        return [dict(zip(keys, row)) for row in zip(*columns)]
    if dataclasses.is_dataclass(obj):
        return {key: to_dict(value) for key, value in members(obj).items()}
    if isinstance(obj, tuple):
        return [to_dict(item) for item in obj]
    return obj


def dumps(obj: Any) -> str:
    """The text of ``json.dumps(to_dict(obj), indent=2, sort_keys=True)``.

    ``obj`` is what :func:`to_dict` takes, or a dict or list of such
    values with string keys.  A table is written column by column from
    ``column(name)``: a float array of finite values by
    :func:`float_texts`, which gives what ``json`` writes for them, and any
    other column by ``json.dumps`` once per distinct value, so no per-row
    object is built.
    """
    return _dumps(obj, "\n")


def _dumps(obj: Any, nl: str) -> str:
    """``obj``'s text, with ``nl`` (a newline and the indent) before each
    line but the first."""
    if hasattr(obj, "row_type"):
        return _table_text(obj, nl)
    if dataclasses.is_dataclass(obj):
        obj = members(obj)
    inner = nl + "  "
    if isinstance(obj, dict) and obj:
        items = (f"{json.dumps(k)}: {_dumps(v, inner)}" for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[" + inner + ("," + inner).join(_dumps(v, inner) for v in obj) + nl + "]"
    return json.dumps(obj)


def _table_text(table: Any, nl: str) -> str:
    """A table's text: the value texts of each column, interleaved with
    the text that comes before each value and after each row, and joined
    once."""
    fields = sorted((key, name) for name, key, _, _ in _fields(table.row_type))
    columns = [_column_text(table.column(name)) for _, name in fields]
    if not columns or not columns[0]:
        return "[]"
    inner = nl + "  "
    # The text before each value of a row; the first also opens the row
    # after the comma that ends the row before it.
    heads = [f",{inner}  {json.dumps(key)}: " for key, _ in fields]
    heads[0] = f",{inner}{{{heads[0][1:]}"
    pieces = [p for head, column in zip(heads, columns) for p in (repeat(head), column)]
    texts = chain.from_iterable(zip(*pieces, repeat(inner + "}")))
    next(texts)  # the first row follows no other, so its head loses the comma
    return "".join(chain(["[" + heads[0][1:]], texts, [nl + "]"]))


def float_texts(values: np.ndarray) -> list[str]:
    """``float.__repr__`` of each value of a float array, each distinct
    value formatted once.  Values are told apart by their bits, so -0.0
    and 0.0 keep their own texts."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(float.__repr__, distinct.view(float).tolist())), dtype=object)
    return texts[inverse].tolist()


def _values(column: Any) -> list:
    """A table column's values as a list of plain Python values."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _column_text(column: Any) -> list[str]:
    """The JSON text of each value of a table column."""
    if isinstance(column, np.ndarray) and np.isfinite(column).all():
        return float_texts(column)
    values = _values(column)
    types = set(map(type, values))
    if any(issubclass(t, float) for t in types):
        # -0.0 == 0.0, so floats are not looked up by value.
        return list(map(json.dumps, values))
    keys = list(zip(map(type, values), values))
    text = {key: json.dumps(key[1]) for key in set(keys)}
    return list(map(text.__getitem__, keys))


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
    if hasattr(cls, "row_type"):
        return _table(cls, doc, where)
    if dataclasses.is_dataclass(cls):
        return _object(cls, doc, where)
    # bool is a subclass of int, so only a bool field may take true or false.
    accepted = (int, float) if cls is float else cls
    if isinstance(doc, accepted) and isinstance(doc, bool) == (cls is bool):
        return float(doc) if cls is float else doc
    raise ValueError(f"{where}: expected {_JSON_TYPE[cls]}, got {doc!r}")


def _kwargs(cls: type, doc: Any, where: str) -> dict:
    """The constructor arguments of a ``cls`` given by its document."""
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
    return kwargs


def _build(cls: type, kwargs: dict, where: str) -> Any:
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _object(cls: type, doc: Any, where: str) -> Any:
    return _build(cls, _kwargs(cls, doc, where), where)


def _table(cls: type, doc: Any, where: str) -> Any:
    """A table from an array of row objects, checked column by column and
    then built, and range-checked, column by column.  Rows that the column
    check does not accept are checked row by row, so the error names the
    first bad row as it would without the column check."""
    if not isinstance(doc, list):
        raise ValueError(f"{where}: expected an array, got {doc!r}")
    columns = _plain_columns(cls.row_type, doc)
    if columns is None:
        rows = [_kwargs(cls.row_type, item, f"{where}[{i}]") for i, item in enumerate(doc)]
        columns = {
            f.name: [row.get(f.name, f.default) for row in rows]
            for f in dataclasses.fields(cls.row_type)
        }
    return _build(cls, columns, where)


#: The JSON types of a plain value of each scalar field type.
_PLAIN = {float: {float, int}, int: {int}, bool: {bool}, str: {str}}


def _plain_columns(row_type: type, rows: list) -> dict | None:
    """The keyword arguments of a table whose rows are all objects with
    every key of ``row_type`` and no other, each value of one of its
    field's plain JSON types (``null`` only where the field is
    ``Optional``); None if any row is not."""
    fields = _fields(row_type)
    keys = {key for _, key, _, _ in fields}
    if not all(type(row) is dict and row.keys() == keys for row in rows):
        return None
    columns = {}
    for name, key, tp, _ in fields:
        null = set()
        if typing.get_origin(tp) is Union:
            args = set(typing.get_args(tp))
            null = args & {type(None)}
            others = args - null
            tp = others.pop() if len(others) == 1 else None
        if tp not in _PLAIN:
            return None
        values = [row[key] for row in rows]
        types = set(map(type, values))
        if not types <= _PLAIN[tp] | null:
            return None
        if tp is float and int in types:
            values = [v if v is None else float(v) for v in values]
        columns[name] = values
    return columns
