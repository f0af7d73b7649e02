"""The columnar vehicle table against one ``EvParams`` per vehicle.

``VehicleTable`` checks its columns, and ``ingest`` its file, on arrays;
``tests/oracles.py`` keeps the per-vehicle loop, row-wise ingest, CSV
writer and JSON vehicle list they replaced.  On generated columns and
files the two routes must accept the same inputs, reject the others with
the same message, and write the same bytes; the trajectory path must
build no ``EvParams`` at all.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from pathlib import Path

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
    TrafficClass,
    TrafficSpec,
    UniformOnRange,
    VehicleTable,
    generate,
    ingest,
    scenario_to_json,
    write_scenario_csv,
)
from dwptload.cli import main
from dwptload.schema import to_dict
from oracles import (
    rowwise_evs,
    rowwise_ingest,
    rowwise_scenario_checks,
    rowwise_scenario_csv,
    rowwise_scenario_dict,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)
ALPHA = INDOT.power_density_kw_per_m
TX = INDOT.tx_len_m
BAD = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324]

TWO_CLASS = (
    TrafficClass(1.83, 0.3, 21.7, MaxDemand(), "truck"),
    TrafficClass(1.2, 0.7, 29.0, UniformOnRange(), "sedan"),
)


def outcome(build):
    """("ok", value) or ("error", message) of ``build()``."""
    try:
        return "ok", build()
    except ValueError as exc:
        return "error", str(exc)


# --- table checks ------------------------------------------------------------


@st.composite
def vehicle_rows(draw, duration: float):
    """One vehicle's column values: valid, or with one field at or just
    past a boundary of its check."""
    spoil = draw(st.sampled_from([None, None, "rx", "demand", "speed", "entry", "class_id"]))
    rx = draw(
        st.sampled_from([TX, np.nextafter(TX, 0.0), *BAD])
        if spoil == "rx"
        else st.floats(0.05, TX, exclude_max=True)
    )
    edge = ALPHA * rx * (1 + 1e-12)
    full = ALPHA * rx if math.isfinite(rx) and rx > 0 else 100.0
    demand = draw(
        st.sampled_from([edge, np.nextafter(edge, math.inf), np.nextafter(edge, -math.inf), *BAD])
        if spoil == "demand"
        else st.floats(0.0, full)
    )
    speed = draw(st.sampled_from(BAD) if spoil == "speed" else st.floats(0.5, 45.0))
    entry = draw(
        st.sampled_from([duration, np.nextafter(duration, 0.0), *BAD])
        if spoil == "entry"
        else st.floats(0.0, duration, exclude_max=True)
    )
    class_id = draw(
        st.sampled_from(["", " pad ", "x\n", "\r", "a,b"])
        if spoil == "class_id"
        else st.sampled_from([None, "truck"])
    )
    return entry, speed, rx, demand, class_id


@st.composite
def tables(draw):
    duration = draw(st.floats(1.0, 1e4) | st.just(5e-324))
    rows = draw(st.lists(vehicle_rows(duration), max_size=6))
    return columns_of(rows), duration


def columns_of(rows) -> dict:
    names = ("entry_time_s", "speed_mps", "rx_len_m", "peak_demand_kw", "class_id")
    return {name: [row[k] for row in rows] for k, name in enumerate(names)}


OVER = np.nextafter(ALPHA * 1.83 * (1 + 1e-12), math.inf)


@pytest.mark.filterwarnings("error")
@SETTINGS
@given(tables())
@example((columns_of([(1.0, 24.6, 1.83, OVER, None)]), 10.0))
@example((columns_of([(1.0, 24.6, 1.83, 100.0, None), (10.0, 24.6, 1.83, 100.0, None)]), 10.0))
def test_table_checks_match_the_rowwise_oracle(case):
    columns, duration = case

    def columnar():
        table = VehicleTable(**columns)
        Scenario(INDOT, table, duration, None, IngestedFile("x"))
        return tuple(table)

    def rowwise():
        evs = rowwise_evs(*columns.values())
        rowwise_scenario_checks(INDOT, evs, duration)
        return evs

    assert outcome(columnar) == outcome(rowwise)


def test_table_rejects_ragged_columns_and_tuples():
    with pytest.raises(ValueError, match="speed_mps must hold 2 values"):
        VehicleTable([0.0, 1.0], [24.6], [1.83, 1.83], [100.0, 100.0], (None, None))
    with pytest.raises(TypeError, match="VehicleTable"):
        Scenario(INDOT, (EvParams(1.83, 100.0, 24.6),), 10.0, None, IngestedFile("x"))


def test_table_is_a_sequence_of_evparams():
    evs = (EvParams(1.83, 200.0, 24.6, 1.0, "truck"), EvParams(1.2, 90.0, 29.0, 2.5))
    table = VehicleTable.from_evs(evs)
    assert len(table) == 2
    assert table[0] == evs[0] and table[-1] == evs[1]
    assert tuple(table) == evs and list(table) == list(evs)
    assert table == evs and table == VehicleTable.from_evs(evs)
    assert table != VehicleTable.from_evs(evs[:1])
    assert hash(table) == hash(evs)
    assert isinstance(table.entry_time_s, np.ndarray)
    assert not table.entry_time_s.flags.writeable
    with pytest.raises(IndexError):
        table[2]


# --- ingest --------------------------------------------------------------------


def good_row(draw) -> list[str]:
    rx = draw(st.floats(0.1, 3.5))
    return [
        repr(draw(st.floats(0.0, 1e3))),
        repr(draw(st.floats(0.5, 45.0))),
        repr(rx),
        repr(draw(st.floats(0.0, ALPHA * rx))),
    ]


#: Ways to spoil one row: (field index or None for the row, replacement).
SPOILERS = [
    (None, "drop"),  # too few fields
    (None, "extra"),  # too many fields
    (0, "abc"),
    (1, ""),
    (0, "-1.0"),
    (0, "nan"),
    (0, "inf"),
    (1, "inf"),
    (1, "0"),
    (1, "5e-324"),  # the dwell overflows
    (0, "1e20"),  # entry + dwell rounds to entry
    (2, "3.66"),  # receiver as long as a coil
    (2, "-0.5"),
    (3, "900.0"),  # beyond the deliverable demand
    (3, "-2.0"),
    (4, '"open'),  # a quote left open runs to the line's end
]

CLASS_FIELDS = ["truck", '"a,b"', '"say ""hi"""', " padded ", "", '"x"y']


@st.composite
def trajectory_files(draw) -> str:
    with_class = draw(st.booleans())
    header = "entry_time_s,speed_mps,rx_len_m,peak_demand_kw" + (",class_id" if with_class else "")
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = good_row(draw)
        if with_class:
            row.append(draw(st.sampled_from(CLASS_FIELDS)))
        rows.append(row)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        k = draw(st.integers(0, len(rows) - 1))
        field, value = draw(st.sampled_from(SPOILERS))
        if value == "drop":
            rows[k] = rows[k][:-1]
        elif value == "extra":
            rows[k] = rows[k] + ["1.0"]
        elif field < len(rows[k]):
            rows[k][field] = value
    lines = [header, *(",".join(row) for row in rows)]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines)))
        lines.insert(k, draw(st.sampled_from(["", "   ", "# note", "  # indented", "#,1,2"])))
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("error")
@SETTINGS
@given(trajectory_files())
@example(
    "entry_time_s,speed_mps,rx_len_m,peak_demand_kw,class_id\n"
    '0.0,24.6,1.83,200.0,"open\n1.0,24.6,1.83,200.0,truck\n'
)
@example(  # a bad value two lines before an unparsable line
    "entry_time_s,speed_mps,rx_len_m,peak_demand_kw\n0.0,24.6,1.83,200.0\n"
    "1.0,24.6,1.83,900.0\n2.0,24.6,1.83,200.0\nabc\n"
)
def test_ingest_matches_the_rowwise_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traffic.csv"
        path.write_text(text, encoding="utf-8")
        assert outcome(lambda: ingest(str(path), INDOT)) == outcome(
            lambda: rowwise_ingest(str(path), INDOT)
        )


# --- byte identity and no per-vehicle objects ------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_simulate_scenario_json_matches_the_rowwise_document(tmp_path, seed):
    spec = TrafficSpec(0.8, 30.0, TWO_CLASS)
    config = {
        "seed": seed,
        "duration_s": 30.0,
        "traffic": json.loads(json.dumps(to_dict(spec))),
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    config_path = str(tmp_path / "c.json")
    assert main(["simulate", "--config", config_path, "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "scenario.json").read_text(encoding="utf-8")
    meta = json.loads(text)["meta"]
    body = rowwise_scenario_dict(generate(INDOT, spec, seed))
    assert text == json.dumps({"meta": meta, **body}, indent=2, sort_keys=True)


ODD_IDS = Scenario(
    INDOT,
    VehicleTable.from_evs(
        EvParams(1.83, 200.0, 24.6, float(i), cid)
        for i, cid in enumerate(["a,b", 'say "hi"', None, "#1"])
    ),
    10.0,
    None,
    IngestedFile("x"),
)


#: Repeated values in every column, -0.0 beside 0.0, and the floats at
#: which ``float.__repr__`` changes notation.
REPEATS = Scenario(
    INDOT,
    VehicleTable(
        entry_time_s=[-0.0, 0.0, 0.0, 2.5, 2.5, 1e-05, 0.0001, 9999999999999998.0],
        speed_mps=[24.6, 24.6, 29.0, 24.6, 24.6, 29.0, 24.6, 1e16],
        rx_len_m=[1.83, 1.83, 1.2, 1.83, 1.83, 1.2, 1.83, 1.2],
        peak_demand_kw=[200.0, 200.0, 0.0, -0.0, 200.0, 5e-324, 200.0, 0.1],
        class_id=["truck", None, "car", "a,b", "truck", "car", "truck", None],
    ),
    1e16,
    None,
    IngestedFile("repeats.csv"),
)


@pytest.mark.parametrize(
    "sc",
    [generate(INDOT, TrafficSpec(2.0, 200.0, TWO_CLASS), seed) for seed in (0, 1)]
    + [ODD_IDS, REPEATS],
    ids=["seed0", "seed1", "odd-class-ids", "repeats"],
)
def test_trajectory_csv_and_ingest_json_match_the_rowwise_writers(tmp_path, sc):
    path = tmp_path / "t.csv"
    write_scenario_csv(sc, str(path))
    assert path.read_bytes() == rowwise_scenario_csv(sc)
    assert ingest(str(path), INDOT).evs == sc.evs
    assert main(["ingest", "--out", str(tmp_path / "o"), str(path)]) == 0
    text = (tmp_path / "o" / "scenario.json").read_text(encoding="utf-8")
    meta = json.loads(text)["meta"]
    body = rowwise_scenario_dict(rowwise_ingest(str(path), INDOT))
    assert text == json.dumps({"meta": meta, **body}, indent=2, sort_keys=True)


def test_repeated_values_are_written_as_before(tmp_path):
    # The bytes that writing each cell by ``float.__repr__`` gave.
    path = tmp_path / "t.csv"
    write_scenario_csv(REPEATS, str(path))
    assert path.read_text(encoding="utf-8") == (
        "entry_time_s,speed_mps,rx_len_m,peak_demand_kw,class_id\n"
        "-0.0,24.6,1.83,200.0,truck\n"
        "0.0,24.6,1.83,200.0,\n"
        "0.0,29.0,1.2,0.0,car\n"
        '2.5,24.6,1.83,-0.0,"a,b"\n'
        "2.5,24.6,1.83,200.0,truck\n"
        "1e-05,29.0,1.2,5e-324,car\n"
        "0.0001,24.6,1.83,200.0,truck\n"
        "9999999999999998.0,1e+16,1.2,0.1,\n"
    )
    text = scenario_to_json(REPEATS)
    assert text == json.dumps(to_dict(REPEATS), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f71e174a7dea53b38a11ad4d727e025777aaf00b533434bbbf480ba89717338d"
    )


def test_trajectory_path_builds_no_evparams(tmp_path, evparams_built):
    built = evparams_built
    sc = generate(INDOT, TrafficSpec(10.0, 100.0, TWO_CLASS), 4)
    path = tmp_path / "t.csv"
    write_scenario_csv(sc, str(path))
    back = ingest(str(path), INDOT)
    doc = to_dict(back)
    assert 900 < len(doc["evs"]) < 1100
    assert built == []
    assert back.evs[0] is not None and built == [1]  # reading a row builds one
