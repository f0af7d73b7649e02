"""The JSON schema of configs and scenarios, on generated documents.

Random run configs and scenarios must survive a JSON round trip exactly;
single-key mutations of a valid config must either parse or raise
``ConfigError``; random trajectory CSVs must make ``dwptload ingest``
exit 0 or 2, never with a traceback.  The README's config example must
parse and its python examples must run.
"""

from __future__ import annotations

import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dwptload import (
    INDOT,
    ErConfig,
    EvParams,
    IngestedFile,
    MaxDemand,
    Scenario,
    SweepColumn,
    Synthetic,
    TrafficClass,
    TrafficSpec,
    UniformExplicit,
    UniformOnRange,
    VehicleTable,
)
from dwptload.cli import (
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    RunConfig,
    main,
    runconfig_from_dict,
)
from dwptload.schema import from_dict, to_dict

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def geometries(draw) -> ErConfig:
    tx = draw(floats(0.5, 5.0))
    gap = draw(floats(0.1, 3.0))
    return ErConfig(tx, gap, draw(floats(1.0, 300.0)), (tx + gap) * draw(floats(1.0, 1e3)))


demands = st.one_of(
    st.just(MaxDemand()),
    st.just(UniformOnRange()),
    st.lists(floats(0.0, 500.0), min_size=2, max_size=2).map(
        lambda b: UniformExplicit(min(b), max(b))
    ),
)
#: Class ids a trajectory CSV gives back unchanged: non-empty, unpadded,
#: on one line.
class_ids = st.none() | st.text(min_size=1, max_size=6).filter(
    lambda s: s == s.strip() and "\n" not in s and "\r" not in s
)


@st.composite
def traffic_specs(draw) -> TrafficSpec:
    weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    classes = tuple(
        TrafficClass(
            rx_len_m=draw(floats(0.1, 3.5)),
            prob=w / sum(weights),
            speed_mps=draw(floats(0.5, 45.0)),
            demand_dist=draw(demands),
            class_id=draw(class_ids),
        )
        for w in weights
    )
    return TrafficSpec(draw(floats(0.0, 3.0)), draw(floats(0.1, 3600.0)), classes)


@st.composite
def run_configs(draw) -> RunConfig:
    return RunConfig(
        er=draw(st.just(INDOT) | geometries()),
        traffic=draw(st.none() | traffic_specs()),
        seed=draw(st.integers(0, 2**64)),
        out_dir=draw(st.text(max_size=8)),
        sample_rate_hz=draw(floats(1.0, 1e5)),
        duration_s=draw(floats(0.1, 1e5)),
        psd_method=draw(st.sampled_from(["welch", "periodogram"])),
        segment_s=draw(floats(0.1, 100.0)),
        overlap_frac=draw(floats(0.0, 0.99)),
        psd_window=draw(st.text(max_size=8)),
        trials=draw(st.integers(1, 10**6)),
        harmonics=draw(st.none() | st.integers(1, 500)),
        analytic=draw(st.booleans()),
        rx_len_m=draw(floats(0.1, 3.5)),
        demand_kw=draw(st.none() | floats(0.0, 500.0)),
        speed_mps=draw(floats(0.5, 45.0)),
        thetas=tuple(draw(st.lists(floats(0.0, 1.0), max_size=4))),
        sweep_columns=tuple(
            SweepColumn(rx, dist)
            for rx, dist in draw(st.lists(st.tuples(floats(0.1, 3.5), demands), max_size=3))
        ),
        n_windows=draw(st.integers(1, 1000)),
        n_ref=draw(st.integers(1, 1000)),
    )


@st.composite
def scenarios(draw) -> Scenario:
    spec = draw(traffic_specs())
    evs = tuple(
        EvParams(
            rx_len_m=rx,
            peak_demand_kw=INDOT.power_density_kw_per_m * rx * draw(floats(0.0, 1.0)),
            speed_mps=draw(floats(0.5, 45.0)),
            entry_time_s=spec.duration_s * draw(floats(0.0, 0.5)),
            class_id=draw(class_ids),
        )
        for rx in draw(st.lists(floats(0.1, 3.5), max_size=5))
    )
    provenance = draw(st.just(Synthetic(spec)) | st.text(max_size=12).map(IngestedFile))
    seed = draw(st.none() | st.integers(0, 2**64))
    return Scenario(INDOT, VehicleTable.from_evs(evs), spec.duration_s, seed, provenance)


def through_json(doc):
    return json.loads(json.dumps(doc))


@SETTINGS
@given(run_configs())
def test_runconfig_json_round_trip(rc):
    assert from_dict(RunConfig, through_json(to_dict(rc)), "config") == rc


@SETTINGS
@given(scenarios())
def test_scenario_json_round_trip(scenario):
    assert from_dict(Scenario, through_json(to_dict(scenario)), "scenario") == scenario


def json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "array", dict: "object"}[type(value)]


def slots(doc):
    """Every (container, key or index) pair of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield doc, key
        yield from slots(value)


REPLACEMENTS = (None, True, 3, 2.5, "x", [], {})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(run_configs(), st.data())
def test_single_key_mutations_raise_only_config_errors(rc, data):
    doc = through_json(to_dict(rc))
    how = data.draw(st.sampled_from(["drop", "add", "retype"]))
    if how == "add":
        objects = [doc] + [c[k] for c, k in slots(doc) if isinstance(c[k], dict)]
        data.draw(st.sampled_from(objects))["unexpected"] = 1
        must_fail = True
    else:
        container, key = data.draw(st.sampled_from(list(slots(doc))))
        if how == "drop":
            del container[key]
            must_fail = False
        else:
            old = container[key]
            others = [v for v in REPLACEMENTS if json_type(v) != json_type(old)]
            container[key] = data.draw(st.sampled_from(others))
            # Only an Optional field takes a value of another JSON type: null.
            must_fail = container[key] is not None
    try:
        runconfig_from_dict(doc)
    except ConfigError:
        return
    assert not must_fail, f"{how} was accepted"


def column(lo: float, hi: float):
    """A CSV number inside [lo, hi] or at an extreme."""
    extremes = st.sampled_from([0.0, -1.0, 5e-324, 1e300, math.inf, math.nan])
    return (floats(lo, hi) | extremes).map(repr)


CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", " ", "x", "truck", '"', "#"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6),
)
ROWS = st.one_of(
    st.tuples(column(0.0, 1e3), column(0.5, 45.0), column(0.1, 3.5), column(0.0, 10.0)),
    st.lists(CELLS, min_size=3, max_size=6),
).map(",".join)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(
        [
            "entry_time_s,speed_mps,rx_len_m,peak_demand_kw",
            "entry_time_s,speed_mps,rx_len_m,peak_demand_kw,class_id",
            "entry_time_s,speed_mps",
        ]
    ),
    st.lists(ROWS, max_size=4),
)
def test_ingest_of_random_rows_never_raises(header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "traffic.csv"
        src.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        code = main(["ingest", "--out", str(Path(tmp) / "out"), str(src)])
    assert code in (EXIT_OK, EXIT_VALIDATION)


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    rc = runconfig_from_dict(json.loads(blocks[0]))
    assert rc.traffic is not None and len(rc.traffic.classes) == 2


def test_readme_python_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
    assert capsys.readouterr().out
