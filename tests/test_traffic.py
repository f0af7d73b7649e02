"""Synthetic arrivals, window-covering placement, CSV/JSON round-trips."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from dwptload import (
    INDOT,
    EvClass,
    EvParams,
    FleetModel,
    IngestError,
    IngestedFile,
    MaxDemand,
    Scenario,
    Synthetic,
    TrafficClass,
    TrafficSpec,
    UniformExplicit,
    UniformOnRange,
    VehicleTable,
    covering_entry_time,
    covering_scenario,
    demand_bounds,
    generate,
    ingest,
    max_covering_periods,
    scenario_from_json,
    scenario_to_json,
    write_scenario_csv,
)
from dwptload.traffic import CSV_FIELDS
from oracles import checked_generate, float_bits

TRUCK = TrafficClass(1.83, 1.0, 24.6, MaxDemand(), "truck")

TWO_CLASS = (
    TrafficClass(1.83, 0.1775, 21.7, MaxDemand(), "truck"),
    TrafficClass(1.2, 0.8225, 29.0, UniformOnRange(), "sedan"),
)


#: A -0.0 entry time and a -0.0 demand beside 0.0.
SIGNED_ZEROS = VehicleTable(
    entry_time_s=[-0.0, 0.0, 2.5],
    speed_mps=[24.6, 29.0, 24.6],
    rx_len_m=[1.83, 1.2, 1.83],
    peak_demand_kw=[200.0, -0.0, 0.0],
    class_id=["truck", None, "car"],
)


def spec(rate=0.21, duration=600.0, classes=(TRUCK,)):
    return TrafficSpec(rate_evps=rate, duration_s=duration, classes=tuple(classes))


# --- generator -------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(rate=-0.1)
    with pytest.raises(ValueError):
        spec(duration=0.0)
    with pytest.raises(ValueError):
        TrafficSpec(rate_evps=0.2, duration_s=10.0, classes=())
    with pytest.raises(ValueError):
        spec(classes=(TrafficClass(1.83, 0.6, 24.6, MaxDemand()),))
    # An infinite rate or horizon would never end the arrival loop.
    with pytest.raises(ValueError, match="rate_evps must be finite"):
        spec(rate=float("inf"))
    with pytest.raises(ValueError, match="duration_s must be finite"):
        spec(duration=float("inf"))


#: A full-demand truck, then a class whose demand reaches above the
#: 109.36 kW that its 1 m receiver can draw.
UNSERVED = (
    TrafficClass(1.83, 0.5, 24.6, MaxDemand()),
    TrafficClass(1.0, 0.5, 24.6, UniformExplicit(100.0, 110.0)),
)
UNSERVED_MESSAGE = (
    "class[1]: peak_demand_kw 110.0 exceeds deliverable maximum 109.3600 for rx_len_m=1.0"
)


def test_undeliverable_class_is_rejected_before_any_draw():
    # Checking only the drawn demands accepted such a class at some seeds
    # and named the first vehicle that exceeded the maximum at others.
    messages = set()
    for rate, seed in [(0.0, 0)] + [(0.2, seed) for seed in range(12)]:
        with pytest.raises(ValueError) as exc:
            generate(INDOT, spec(rate=rate, duration=20.0, classes=UNSERVED), seed)
        messages.add(str(exc.value))
    with pytest.raises(ValueError) as exc:
        covering_scenario(INDOT, [(c, 0) for c in UNSERVED], (130.0, 150.0), seed=0)
    messages.add(str(exc.value))
    fleet = tuple(EvClass(c.rx_len_m, c.prob, c.demand_dist) for c in UNSERVED)
    with pytest.raises(ValueError) as exc:
        FleetModel(INDOT, fleet, 10, 24.6)
    messages.add(str(exc.value))
    assert messages == {UNSERVED_MESSAGE}


def test_arrival_count_near_poisson_mean():
    sc = generate(INDOT, spec(), seed=1)
    assert abs(len(sc.evs) - 126) <= 3 * np.sqrt(126)
    assert all(0 <= ev.entry_time_s < 600.0 for ev in sc.evs)
    # Arrivals come out time-ordered from the exponential-gap construction.
    times = [ev.entry_time_s for ev in sc.evs]
    assert times == sorted(times)


def test_zero_rate_gives_empty_scenario():
    sc = generate(INDOT, spec(rate=0.0), seed=1)
    assert sc.evs == ()
    assert sc.duration_s == 600.0


def test_class_mix_matches_probabilities():
    sc = generate(INDOT, spec(rate=1.0, duration=10_000.0, classes=TWO_CLASS), seed=3)
    n = len(sc.evs)
    trucks = sum(ev.class_id == "truck" for ev in sc.evs)
    se = np.sqrt(0.1775 * 0.8225 / n)
    assert abs(trucks / n - 0.1775) <= 3 * se


def test_class_attributes_match_the_declared_classes():
    sc = generate(INDOT, spec(rate=0.5, duration=2000.0, classes=TWO_CLASS), seed=9)
    by_id = {"truck": TWO_CLASS[0], "sedan": TWO_CLASS[1]}
    assert {ev.class_id for ev in sc.evs} == {"truck", "sedan"}
    for ev in sc.evs:
        cls = by_id[ev.class_id]
        assert ev.speed_mps == cls.speed_mps
        assert ev.rx_len_m == cls.rx_len_m
        lo, hi = demand_bounds(cls.demand_dist, INDOT, cls.rx_len_m)
        assert lo <= ev.peak_demand_kw <= hi


def test_interarrival_mean_is_exponential():
    rate = 0.8
    sc = generate(INDOT, spec(rate=rate, duration=20_000.0), seed=12)
    times = np.array([ev.entry_time_s for ev in sc.evs])
    gaps = np.diff(times)
    se = (1.0 / rate) / np.sqrt(gaps.size)
    assert abs(gaps.mean() - 1.0 / rate) <= 3 * se


def test_generation_is_reproducible():
    a = generate(INDOT, spec(classes=TWO_CLASS), seed=77)
    b = generate(INDOT, spec(classes=TWO_CLASS), seed=77)
    c = generate(INDOT, spec(classes=TWO_CLASS), seed=78)
    assert scenario_to_json(a) == scenario_to_json(b)
    assert scenario_to_json(a) != scenario_to_json(c)


#: Specs on which ``generate`` must draw what the argument-checked
#: ``Generator`` calls draw: each demand kind, a zero-width interval, a
#: single class and no arrivals.  The rate is no power of two, so that
#: ``gap / rate`` and ``(1 / rate) * gap`` round differently.
DRAW_CASES = {
    "max": spec(2.3, 30.0, (
        TrafficClass(1.83, 0.4, 21.7, MaxDemand(), "truck"),
        TrafficClass(1.7, 0.6, 26.8, MaxDemand(), "suv"),
    )),
    "uniform-range": spec(2.3, 30.0, TWO_CLASS),
    "explicit": spec(2.3, 30.0, (
        TrafficClass(1.2, 0.5, 29.0, UniformExplicit(20.0, 90.0)),
        TrafficClass(1.83, 0.5, 21.7, MaxDemand(), "truck"),
    )),
    "zero-width": spec(2.3, 30.0, (
        TrafficClass(1.2, 0.7, 29.0, UniformExplicit(50.0, 50.0)),
        TrafficClass(1.7, 0.3, 26.8, UniformOnRange()),
    )),
    "single-class": spec(2.3, 30.0, (TrafficClass(1.2, 1.0, 29.0, UniformOnRange()),)),
    "no-arrivals": spec(0.0, 30.0, TWO_CLASS),
}


@pytest.mark.parametrize("case", DRAW_CASES)
def test_generate_draws_what_the_checked_generator_calls_draw(case):
    for seed in range(300):
        got = generate(INDOT, DRAW_CASES[case], seed).evs
        want = checked_generate(INDOT, DRAW_CASES[case], seed)
        for name in CSV_FIELDS:  # bit for bit, so -0.0 and 0.0 differ
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (seed, name)
        assert got.class_id == want.class_id


def test_scenario_rejects_out_of_horizon_entries():
    with pytest.raises(ValueError):
        Scenario(
            cfg=INDOT,
            evs=VehicleTable.from_evs([EvParams(1.83, 100.0, 24.6, entry_time_s=60.0)]),
            duration_s=60.0,
            seed=None,
            provenance=IngestedFile("x"),
        )


# --- window-covering placement ---------------------------------------------


def test_covering_entry_sets_the_phase_at_window_start():
    window = (130.0, 190.0)
    for u in (0.0, 0.25, 0.9):
        for k in (0, 3, 50):
            entry = covering_entry_time(INDOT, 21.7, window, u, k)
            phase = np.mod((window[0] - entry) * 21.7, INDOT.period_m) / INDOT.period_m
            assert phase == pytest.approx(u, abs=1e-9) or phase == pytest.approx(
                1.0 + u, abs=1e-9
            )
            assert entry <= window[0]


def test_covering_vehicle_spans_the_window():
    window = (130.0, 190.0)
    k_max = max_covering_periods(INDOT, 29.0, window)
    assert k_max > 0
    for k in (0, k_max):
        entry = covering_entry_time(INDOT, 29.0, window, 0.5, k)
        dwell = INDOT.energized_len_m / 29.0
        assert entry <= window[0]
        assert entry + dwell >= window[1]


def test_covering_entry_argument_checks():
    window = (130.0, 190.0)
    k_max = max_covering_periods(INDOT, 21.7, window)
    with pytest.raises(ValueError):
        covering_entry_time(INDOT, 21.7, window, 1.0, 0)
    with pytest.raises(ValueError):
        covering_entry_time(INDOT, 21.7, window, 0.5, k_max + 1)
    with pytest.raises(ValueError):
        # Window longer than the dwell: no covering placement exists.
        covering_entry_time(INDOT, 29.0, (10.0, 200.0), 0.5, 0)


def test_covering_scenario_counts_and_span():
    window = (130.0, 170.0)
    sc = covering_scenario(INDOT, [(TWO_CLASS[0], 4), (TWO_CLASS[1], 7)], window, seed=5)
    assert len(sc.evs) == 11
    assert sum(ev.class_id == "truck" for ev in sc.evs) == 4
    for ev in sc.evs:
        dwell = INDOT.energized_len_m / ev.speed_mps
        assert ev.entry_time_s <= window[0]
        assert ev.entry_time_s + dwell >= window[1]
    with pytest.raises(ValueError):
        covering_scenario(INDOT, [(TWO_CLASS[0], -1)], window, seed=5)


# --- trajectory CSV --------------------------------------------------------


def test_ingest_single_vehicle(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("entry_time_s,speed_mps,rx_len_m,peak_demand_kw\n0.0,24.6,1.83,200.0\n")
    sc = ingest(str(path), INDOT)
    assert len(sc.evs) == 1
    ev = sc.evs[0]
    assert (ev.entry_time_s, ev.speed_mps, ev.rx_len_m, ev.peak_demand_kw) == (
        0.0,
        24.6,
        1.83,
        200.0,
    )
    assert ev.class_id is None
    assert sc.provenance == IngestedFile(str(path))
    assert sc.duration_s >= ev.dwell_s(INDOT)


def test_ingest_header_only_is_empty_not_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("entry_time_s,speed_mps,rx_len_m,peak_demand_kw\n")
    sc = ingest(str(path), INDOT)
    assert sc.evs == ()
    assert sc.duration_s == 0.0


def test_ingest_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "commented.csv"
    path.write_text(
        "# trajectory export\n"
        "\n"
        "entry_time_s,speed_mps,rx_len_m,peak_demand_kw,class_id\n"
        "1.5,21.7,1.83,200.1288,truck\n"
        "\n"
        "# trailing note\n"
        "2.5,29.0,1.2,100.0,\n"
    )
    sc = ingest(str(path), INDOT)
    assert len(sc.evs) == 2
    assert sc.evs[0].class_id == "truck"
    assert sc.evs[1].class_id is None


@pytest.mark.parametrize(
    "row, fragment",
    [
        ("0.0,24.6,5.0,200.0", "rx_len_m"),  # receiver longer than a coil
        ("0.0,24.6,1.83,900.0", "peak_demand_kw"),
        ("-1.0,24.6,1.83,200.0", "entry_time_s"),
        ("0.0,abc,1.83,200.0", "abc"),
        ("0.0,24.6,1.83", "fields"),
        ("nan,24.6,1.83,200.0", "entry_time_s"),
        ("0.0,inf,1.83,200.0", "speed_mps"),
        ("0.0,5e-324,1.83,200.0", "horizon"),  # dwell overflows to inf
        ("1e20,24.6,1.83,200.0", "horizon"),  # entry + dwell rounds to entry
    ],
)
def test_ingest_rejects_bad_rows_with_location(tmp_path, row, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(f"entry_time_s,speed_mps,rx_len_m,peak_demand_kw\n{row}\n")
    with pytest.raises(IngestError) as err:
        ingest(str(path), INDOT)
    message = str(err.value)
    assert f"{path}:2" in message
    assert fragment in message


def test_ingest_rejects_bad_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("time,speed,rx,demand\n0.0,24.6,1.83,200.0\n")
    with pytest.raises(IngestError, match="bad header"):
        ingest(str(path), INDOT)
    empty = tmp_path / "nothing.csv"
    empty.write_text("")
    with pytest.raises(IngestError, match="no header"):
        ingest(str(empty), INDOT)


@pytest.mark.parametrize(
    "data, lineno",
    [
        (b"entry_time_s,speed_mps,rx_len_m,peak_demand_kw,class_\xff\n", 1),
        # CRLF, a lone CR (a blank line) and a multi-byte character before
        # the bad byte on its line.
        (
            b"# \xc3\xa9t\xc3\xa9\r\nentry_time_s,speed_mps,rx_len_m,peak_demand_kw,class_id\r\n"
            b"\r0.0,24.6,1.83,200.0,\xc3\xa9\xff\n",
            4,
        ),
    ],
    ids=["header", "body"],
)
def test_ingest_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, data, lineno):
    path = tmp_path / "latin.csv"
    path.write_bytes(data)
    with pytest.raises(IngestError, match=f"^{re.escape(str(path))}:{lineno}: byte 0xff is not UTF-8$"):
        ingest(str(path), INDOT)


def test_csv_round_trip_is_exact(tmp_path):
    sc = generate(INDOT, spec(rate=0.5, duration=300.0, classes=TWO_CLASS), seed=21)
    assert len(sc.evs) > 50
    path = tmp_path / "round.csv"
    write_scenario_csv(sc, str(path))
    back = ingest(str(path), INDOT)
    assert back.evs == sc.evs  # float repr round-trips exactly
    assert float_bits(back.evs) == float_bits(sc.evs)
    # Class ids that need quoting come back unchanged too.
    odd = [EvParams(1.83, 200.0, 24.6, float(i), cid) for i, cid in enumerate(["a,b", 'q"', None])]
    sc = Scenario(INDOT, VehicleTable.from_evs(odd), 10.0, None, IngestedFile("x"))
    write_scenario_csv(sc, str(path))
    assert ingest(str(path), INDOT).evs == sc.evs
    # So do signed zeros, which ``==`` takes for 0.0.
    sc = Scenario(INDOT, SIGNED_ZEROS, 10.0, None, IngestedFile("x"))
    write_scenario_csv(sc, str(path))
    back = ingest(str(path), INDOT)
    assert back.evs == sc.evs
    assert float_bits(back.evs) == float_bits(sc.evs)
    # Ids it could not give back are rejected where vehicles and classes are built.
    for cid in ("", " pad ", "pad\n"):
        with pytest.raises(ValueError, match="class_id"):
            EvParams(1.83, 200.0, 24.6, class_id=cid)
        with pytest.raises(ValueError, match="class_id"):
            TrafficClass(1.83, 1.0, 24.6, MaxDemand(), cid)


# --- JSON serialization ----------------------------------------------------


def test_json_round_trip_synthetic():
    generator = spec(
        rate=0.4,
        duration=500.0,
        classes=(
            TrafficClass(1.83, 0.2, 21.7, MaxDemand(), "truck"),
            TrafficClass(1.2, 0.5, 29.0, UniformOnRange(), "sedan"),
            TrafficClass(1.7, 0.3, 29.0, UniformExplicit(40.0, 120.0)),
        ),
    )
    sc = generate(INDOT, generator, seed=33)
    back = scenario_from_json(scenario_to_json(sc))
    assert back == sc
    assert isinstance(back.provenance, Synthetic)
    assert back.provenance.spec == generator


def test_json_round_trip_ingested(tmp_path):
    path = tmp_path / "src.csv"
    path.write_text("entry_time_s,speed_mps,rx_len_m,peak_demand_kw\n0.0,24.6,1.83,200.0\n")
    sc = ingest(str(path), INDOT)
    back = scenario_from_json(scenario_to_json(sc))
    assert back == sc
    assert back.seed is None
    assert isinstance(back.provenance, IngestedFile)


def test_json_rejects_unknown_kinds():
    sc = generate(INDOT, spec(rate=0.2, duration=50.0), seed=2)
    text = scenario_to_json(sc)
    with pytest.raises(ValueError):
        scenario_from_json(text.replace('"synthetic"', '"mystery"'))


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda doc: doc.update(extra=1), "scenario"),
        (lambda doc: doc.pop("evs"), "scenario"),
        (lambda doc: doc["evs"][0].update(speed_mps="fast"), "scenario.evs[0].speed_mps"),
        (lambda doc: doc["provenance"].pop("generator"), "scenario.provenance"),
    ],
    ids=["unknown-key", "no-evs", "string-speed", "no-generator"],
)
def test_json_rejects_malformed_documents(edit, where):
    sc = generate(INDOT, spec(rate=0.2, duration=50.0), seed=2)
    doc = json.loads(scenario_to_json(sc))
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(where)):
        scenario_from_json(json.dumps(doc))
