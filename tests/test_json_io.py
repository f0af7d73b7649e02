"""The JSON writer and the table reader of ``dwptload.schema``.

``schema.dumps`` writes a document column by column where it holds a
table; ``tests/oracles.py`` keeps ``json.dumps(to_dict(x), indent=2,
sort_keys=True)``, which builds one object per row.  On generated tables,
scenarios and documents, and on the bodies the CLI writes, the two must
give the same text.  Reading a table checks its rows column by column and
falls back to checking them row by row, so every accepted document must
read the same, and every rejected one fail with the same message, as on
the row path alone.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwptload import (
    INDOT,
    EvParams,
    IngestedFile,
    MaxDemand,
    Scenario,
    Synthetic,
    TrafficClass,
    TrafficSpec,
    VehicleTable,
    cli,
    generate,
    scenario_from_json,
    scenario_to_json,
)
from dwptload import schema
from dwptload.schema import dumps, members, to_dict
from oracles import json_text

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

#: Floats whose shortest repr takes each of its forms: subnormal,
#: exponent, long mantissa, and negative zero.
ODD_FLOATS = [5e-324, 1e16, 1e-7, -0.0, 0.0, 0.1, 1 / 3, 2.0**53, 1e300, 123456789.0]
#: Class ids that need escaping in JSON or quoting in a CSV.
ODD_IDS = [None, 'say "hi"', "naïve", "車両", "a,b", "back\\slash", "tab\tin", "%s", "{x}"]


def floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False) | st.sampled_from(
        [x for x in ODD_FLOATS if lo <= x <= hi]
    )


class_ids = st.sampled_from(ODD_IDS) | st.text(min_size=1, max_size=6).filter(
    lambda s: s == s.strip() and "\n" not in s and "\r" not in s
)


@st.composite
def rows(draw, duration: float) -> tuple:
    """One vehicle's values, deliverable on ``INDOT`` and entering before
    ``duration``."""
    rx = draw(floats(5e-324, INDOT.tx_len_m).filter(lambda rx: 0 < rx < INDOT.tx_len_m))
    share = draw(st.sampled_from([0.0, -0.0, 5e-324, 1e-7, 0.5, 1.0]))
    return (
        draw(floats(0.0, duration).filter(lambda t: t < duration)),
        draw(floats(5e-324, 1e300).filter(lambda v: v > 0)),
        rx,
        share * INDOT.power_density_kw_per_m * rx,
        draw(class_ids),
    )


@st.composite
def tables(draw, duration: float = 1e300) -> VehicleTable:
    values = draw(st.lists(rows(duration), max_size=8))
    names = ("entry_time_s", "speed_mps", "rx_len_m", "peak_demand_kw", "class_id")
    return VehicleTable(**{name: [row[k] for row in values] for k, name in enumerate(names)})


@st.composite
def scenarios(draw) -> Scenario:
    duration = draw(st.sampled_from([1.0, 60.0, 1e16]))
    provenance = draw(
        st.sampled_from(
            [
                IngestedFile("a,b/ü.csv"),
                Synthetic(TrafficSpec(0.5, duration, (TrafficClass(1.83, 1, 24.6, MaxDemand()),))),
            ]
        )
    )
    seed = draw(st.none() | st.integers(0, 2**64))
    return Scenario(INDOT, draw(tables(duration)), duration, seed, provenance)


@dataclasses.dataclass(frozen=True)
class Cell:
    """A row with columns that a vehicle table cannot hold."""

    x: float
    n: Optional[int]
    flag: bool
    name: Optional[str] = dataclasses.field(default=None, metadata={"key": "a%b"})


class Cells:
    """A table of :class:`Cell` rows held as columns."""

    row_type = Cell

    def __init__(self, rows: list[tuple]) -> None:
        self.rows = rows

    def column(self, name: str) -> list:
        k = [f.name for f in dataclasses.fields(Cell)].index(name)
        return [row[k] for row in self.rows]


cells = st.lists(
    st.tuples(
        st.floats() | st.sampled_from(ODD_FLOATS) | st.integers(-5, 5),
        st.none() | st.integers(-(2**70), 2**70) | st.booleans(),
        st.booleans(),
        st.sampled_from(ODD_IDS),
    ),
    max_size=6,
).map(Cells)

keys = st.text(max_size=4) | st.sampled_from(["%", "%s", "{", "}", '"', "é", "meta", "evs"])
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats() | st.sampled_from(ODD_FLOATS),
    st.text(max_size=6),
    st.sampled_from([INDOT, IngestedFile("x%s"), MaxDemand()]),
    tables(),
    cells,
)
documents = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(keys, inner, max_size=3),
    max_leaves=12,
)


# --- writer ---------------------------------------------------------------------


#: Floats at each switch of ``float.__repr__``'s notation (exponent below
#: -4 or from 16 up), at the ends of the subnormal and float ranges, and
#: the non-finite ones.
REPR_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    9.999999999999999e-06, 1e-05, 9.999999999999999e-05, 0.0001, 0.00010000000000000002,
    9999999999999998.0, 1e16, 1.0000000000000002e16, -1e16, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan,
]
any_float = (
    st.floats()
    | st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)  # subnormals
    | st.sampled_from(REPR_EDGES)
)


@SETTINGS
@given(st.lists(any_float, max_size=40), st.lists(st.integers(0, 39), max_size=200))
@example(REPR_EDGES, list(range(len(REPR_EDGES))) * 3)
@example([0.0, -0.0], [0, 1, 1, 0, 1])
def test_float_texts_are_float_repr(distinct, picks):
    # Heavy repeats: each value of the column is one of a few distinct ones.
    values = distinct + [distinct[i % len(distinct)] for i in picks] if distinct else []
    texts = schema.float_texts(np.array(values, dtype=float))
    assert texts == list(map(float.__repr__, values))


@SETTINGS
@given(tables())
@example(VehicleTable(entry_time_s=[], speed_mps=[], rx_len_m=[], peak_demand_kw=[], class_id=[]))
@example(
    VehicleTable(
        entry_time_s=ODD_FLOATS[:len(ODD_IDS)],
        speed_mps=[1e16] * len(ODD_IDS),
        rx_len_m=[1e-7] * len(ODD_IDS),
        peak_demand_kw=[-0.0] * len(ODD_IDS),
        class_id=ODD_IDS,
    )
)
def test_tables_are_written_as_json_dumps_writes_them(table):
    assert dumps(table) == json_text(table)
    doc = {"evs": table, "meta": {"seed": 1}}
    assert dumps(doc) == json_text(doc)


@SETTINGS
@given(scenarios())
def test_scenarios_are_written_as_json_dumps_writes_them(scenario):
    text = scenario_to_json(scenario)
    assert text == json_text(scenario)
    meta = {"config_sha256": "0" * 64, "seed": scenario.seed, "version": "x"}
    written = dumps({"meta": meta, **members(scenario)})
    assert written == json_text({"meta": meta, **to_dict(scenario)})
    assert scenario_from_json(text) == scenario


@SETTINGS
@given(documents)
@example([Cells([(math.nan, None, True, "x"), (-0.0, 0, False, None), (math.inf, True, True, "")])])
@example(Cells([(0.0, 1, True, None), (-0.0, True, 0, None), (math.nan, 0, 1, ""), (1, False, 1, "")]))
@example({"%": Cells([(1, -(2**70), False, "%s")]), "": []})
def test_documents_are_written_as_json_dumps_writes_them(doc):
    assert dumps(doc) == json_text(doc)


@pytest.mark.parametrize(
    "argv",
    [
        ["psd", "--seed", "3", "--duration-s", "20"],
        ["psd", "--seed", "3", "--analytic"],
        ["spectrum"],
        ["validate", "--trials", "300", "--self-test"],
    ],
    ids=["peaks", "peaks-analytic", "thc", "validate"],
)
def test_cli_bodies_are_written_as_json_dumps_writes_them(tmp_path, monkeypatch, argv):
    docs = []

    def recording(doc):
        docs.append(doc)
        return dumps(doc)

    monkeypatch.setattr(cli, "dumps", recording)
    cli.main([*argv, "--out", str(tmp_path)])
    (path,) = tmp_path.glob("*.json")
    assert len(docs) == 1
    assert path.read_text(encoding="utf-8") == json_text(docs[0])


# --- reader ---------------------------------------------------------------------


def outcome(read):
    """("ok", value) or ("error", message) of ``read()``."""
    try:
        return "ok", read()
    except ValueError as exc:
        return "error", str(exc)


def rowwise_read(text: str):
    """``scenario_from_json`` with every row checked on its own."""
    with mock.patch.object(schema, "_plain_columns", return_value=None):
        return scenario_from_json(text)


REPLACEMENTS = [None, True, False, 3, -1, 2.5, -0.0, 0.0, 5e-324, 1e300, "x", "", " pad ", [], {}]


@st.composite
def edited_documents(draw) -> str:
    """A scenario document with one row edited: a key dropped, added or
    given a value of any JSON type, or the row replaced."""
    scenario = draw(scenarios())
    doc = json.loads(scenario_to_json(scenario))
    rows = doc["evs"]
    if rows:
        i = draw(st.integers(0, len(rows) - 1))
        how = draw(st.sampled_from(["drop", "add", "set", "set", "set", "row"]))
        if how == "row":
            rows[i] = draw(st.sampled_from(REPLACEMENTS))
        elif how == "add":
            rows[i]["kind"] = "ev"
        else:
            key = draw(st.sampled_from(sorted(rows[i])))
            if how == "drop":
                del rows[i][key]
            else:
                rows[i][key] = draw(st.sampled_from(REPLACEMENTS))
    return json.dumps(doc)


#: Integral numbers in float fields, which both paths read as floats.
INTEGRAL = json.dumps(
    {
        "cfg": to_dict(INDOT),
        "duration_s": 9.0,
        "seed": None,
        "provenance": to_dict(IngestedFile("x")),
        "evs": [
            {"entry_time_s": 1, "speed_mps": 2, "rx_len_m": 1, "peak_demand_kw": 0,
             "class_id": None},
            {"entry_time_s": 2.0, "speed_mps": 2.5, "rx_len_m": 1.2, "peak_demand_kw": 1.0,
             "class_id": "x"},
        ],
    }
)


@SETTINGS
@given(edited_documents())
@example(INTEGRAL)
def test_tables_read_as_row_by_row(text):
    got = outcome(lambda: scenario_from_json(text))
    want = outcome(lambda: rowwise_read(text))
    assert got == want
    # Where the column check accepts the rows, it gives the arguments the
    # row path gives, value for value and type for type.
    rows = json.loads(text)["evs"]
    columns = schema._plain_columns(EvParams, rows)
    if columns is not None:
        kwargs = [schema._kwargs(EvParams, row, "row") for row in rows]
        for name, values in columns.items():
            expected = [row[name] for row in kwargs]
            assert list(map(type, values)) == list(map(type, expected))
            assert values == expected


def test_well_formed_tables_are_not_read_row_by_row():
    calls = []
    for duration in (1.0, 401.0):
        spec = TrafficSpec(1.0, duration, (TrafficClass(1.2, 1.0, 29.0, MaxDemand(), "s"),))
        sc = generate(INDOT, spec, 5)
        with mock.patch.object(schema, "_kwargs", wraps=schema._kwargs) as spy:
            assert scenario_from_json(scenario_to_json(sc)) == sc
        calls.append((len(sc.evs), spy.call_count))
    assert calls[1][0] > 20
    assert calls[0][1] == calls[1][1]
