"""The exact-span, mod-free sampling path against its oracles.

``synthesize`` fills the output grid block by block, computing each
block's times once and adding each vehicle only over its exact
on-segment samples; it takes the in-period position from the phase in
periods.  The cases put windows and spans on the edges of ``_BLOCK``,
the grid block the package uses.  ``run_sweep`` samples each vehicle
slot once, on the window's one time array, and adds it into every
penetration row that holds it.
``tests/oracles.py`` keeps the formulations they replaced: one ``np.mod``
pulse call per vehicle over its whole span, masked ``load_at_time`` calls
per vehicle and block, and one validated scenario per sweep row.  The
``np.mod`` routes must agree to rounding; the ``load_at_time`` routes
make the same float operations on every on-segment sample and must agree
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwptload import (
    INDOT,
    ErConfig,
    EvParams,
    MaxDemand,
    Scenario,
    SweepColumn,
    SweepConfig,
    TrafficClass,
    TrafficSpec,
    UniformOnRange,
    default_sweep_config,
    generate,
    run_sweep,
    synthesize,
)
from dwptload.composition import matched_counts, truck_count_schedules
from dwptload.signals import _BLOCK, _sample_spans
from dwptload.traffic import IngestedFile, VehicleTable
from oracles import blocked_sweep, blocked_synthesize, per_row_sweep, unblocked_synthesize

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def block_edge_cases(draw):
    """A window of up to three blocks and vehicles whose sampled spans are
    a whole number of blocks give or take a few samples, entering and
    leaving before, inside and after the window."""
    n_coils = draw(st.integers(20, 200))
    cfg = ErConfig(3.66, 0.91, 109.36, n_coils * 4.57)
    fs = draw(st.floats(100.0, 1000.0))
    t0 = draw(st.floats(0.0, 50.0))
    n = draw(st.integers(_BLOCK - 3, 3 * _BLOCK + 3))
    t1 = t0 + n / fs
    evs = []
    for _ in range(draw(st.integers(1, 4))):
        span = draw(st.integers(1, 3)) * _BLOCK + draw(st.integers(-6, 3))
        speed = cfg.energized_len_m * fs / span
        # Either anywhere, or whole blocks before the window's end.
        start = st.integers(-span - 4, n + 4) | st.sampled_from(
            [n - _BLOCK, n - 2 * _BLOCK]
        )
        offset = draw(start) + draw(st.integers(-2, 2))
        offset += draw(st.sampled_from([0.0, 1e-9, 0.5]))
        rx = draw(st.floats(1.0, 3.5))
        demand = rx * 109.36 * draw(st.floats(0.5, 1.0))
        evs.append(EvParams(rx, demand, speed, max(0.0, t0 + offset / fs)))
    duration = max(t1, max(e.entry_time_s for e in evs) + 1.0)
    scenario = Scenario(
        cfg, VehicleTable.from_evs(evs), duration, None, IngestedFile("generated")
    )
    return scenario, fs, (t0, t1)


@SETTINGS
@given(block_edge_cases())
def test_blocked_synthesis_matches_unblocked_oracle(case):
    scenario, fs, window = case
    got = synthesize(scenario, fs, window).samples_kw
    want = unblocked_synthesize(scenario, fs, window).samples_kw
    assert got.shape == want.shape
    peak = float(np.max(want, initial=0.0))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * peak)
    assert not np.any(got[want == 0.0])


@st.composite
def output_block_edge_cases(draw):
    """A window of one to three output blocks, give or take three samples,
    and vehicles whose on-segment samples start and end within three
    samples (and a fraction) of an output-block edge, or that leave the
    segment before the window starts or enter it after the window ends."""
    n_coils = draw(st.integers(20, 200))
    cfg = ErConfig(3.66, 0.91, 109.36, n_coils * 4.57)
    fs = draw(st.floats(100.0, 1000.0))
    # Late enough that a vehicle of four blocks fits before the window.
    t0 = 5 * _BLOCK / fs + draw(st.floats(0.0, 50.0))
    n = draw(st.integers(1, 3)) * _BLOCK + draw(st.integers(-3, 3))
    edge = st.builds(lambda b, d: b * _BLOCK + d, st.integers(0, 4), st.integers(-3, 3))
    evs = []
    for _ in range(draw(st.integers(1, 5))):
        first, last = sorted(draw(st.lists(edge, min_size=2, max_size=2, unique=True)))
        place = draw(st.sampled_from(["edges", "before", "after"]))
        if place == "before":
            shift = -last - draw(st.integers(0, 3))
        elif place == "after":
            shift = n - first + draw(st.integers(0, 3))
        else:
            shift = 0
        nudge = draw(st.sampled_from([0.0, 1e-9, -1e-9, 0.5]))
        speed = cfg.energized_len_m * fs / (last - first)
        rx = draw(st.floats(1.0, 3.5))
        demand = rx * 109.36 * draw(st.floats(0.5, 1.0))
        evs.append(EvParams(rx, demand, speed, t0 + (first + shift + nudge) / fs))
    duration = max(t0 + n / fs, max(e.entry_time_s for e in evs) + 1.0)
    scenario = Scenario(
        cfg, VehicleTable.from_evs(evs), duration, None, IngestedFile("generated")
    )
    return scenario, fs, (t0, t0 + n / fs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(block_edge_cases() | output_block_edge_cases())
def test_synthesis_is_bit_identical_to_blocked_oracle(case):
    scenario, fs, window = case
    got = synthesize(scenario, fs, window).samples_kw
    want = blocked_synthesize(scenario, fs, window).samples_kw
    assert np.array_equal(got, want)


def test_unsorted_table_adds_vehicles_in_table_order():
    """``ingest`` keeps a file's row order, so a table need not be sorted
    by entry time.  The sampling loop adds each sample's vehicles in table
    order: its bits are those of the blocked oracle, which adds vehicle
    after vehicle, and they differ from those of the same vehicles sorted
    by entry."""
    spec = TrafficSpec(
        rate_evps=2.0,
        duration_s=80.0,
        classes=(
            TrafficClass(1.83, 0.5, 21.7, MaxDemand(), "truck"),
            TrafficClass(1.2, 0.5, 29.0, UniformOnRange(), "sedan"),
        ),
    )
    evs = list(generate(INDOT, spec, 4).evs)
    shuffled = [evs[i] for i in np.random.default_rng(4).permutation(len(evs))]
    tables = [VehicleTable.from_evs(v) for v in (shuffled, evs)]
    window = (0.0, 80.0)
    got, by_entry = (
        synthesize(Scenario(INDOT, t, 80.0, None, IngestedFile("generated")), 1000.0, window)
        for t in tables
    )
    want = blocked_synthesize(
        Scenario(INDOT, tables[0], 80.0, None, IngestedFile("generated")), 1000.0, window
    )
    assert np.array_equal(got.samples_kw, want.samples_kw)
    assert not np.array_equal(got.samples_kw, by_entry.samples_kw)


# A roadway whose energized length, 16 m, and a grid whose times,
# 1 + k/8 s, are exact in binary, so entries can put a sample exactly on
# either edge of the segment.
EXACT_CFG = ErConfig(3.0, 1.0, 100.0, 16.0)
EXACT_GRID = (1.0, 8.0)  # t0, sample rate


def brute_force_span(cfg, speed, entry, t0, fs, n):
    x = speed * ((t0 + np.arange(n) / fs) - entry)
    on = np.flatnonzero((x >= 0) & (x < cfg.energized_len_m))
    if not on.size:
        return None
    assert on.size == on[-1] + 1 - on[0]  # contiguous
    return int(on[0]), int(on[-1]) + 1


def assert_spans_match_brute_force(cfg, speeds, entries, t0, fs, n):
    j0, j1 = _sample_spans(cfg, np.array(speeds), np.array(entries), t0, fs, n)
    for speed, entry, a, b in zip(speeds, entries, j0.tolist(), j1.tolist()):
        want = brute_force_span(cfg, speed, entry, t0, fs, n)
        if want is None:
            assert a == b
        else:
            assert (a, b) == want


def test_sample_spans_on_exact_segment_edges():
    cfg = EXACT_CFG
    t0, fs = EXACT_GRID
    speed = 2.0
    assert cfg.energized_len_m == 16.0
    entries = []
    for k in (0, 3, 17, 39):
        at_start = t0 + k / fs  # x_k == 0
        at_end = at_start - cfg.energized_len_m / speed  # x_k == E
        assert speed * ((t0 + k / fs) - at_start) == 0.0
        assert speed * ((t0 + k / fs) - at_end) == cfg.energized_len_m
        for entry in (at_start, at_end):
            entries += [entry, np.nextafter(entry, -np.inf), np.nextafter(entry, np.inf)]
    # Never on the segment during the grid: out long before, in long after.
    entries += [t0 - 100.0, t0 + 100.0]
    for n in (0, 1, 2, 40, 41):
        assert_spans_match_brute_force(cfg, [speed] * len(entries), entries, t0, fs, n)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n_coils=st.integers(1, 30),
    fs=st.floats(1.0, 2000.0),
    t0=st.floats(0.0, 1e4),
    n=st.integers(0, 300) | st.just(1),
    vehicles=st.lists(
        st.tuples(st.floats(0.5, 60.0), st.floats(-2.0, 2.0)), min_size=1, max_size=6
    ),
)
def test_sample_spans_match_brute_force(n_coils, fs, t0, n, vehicles):
    cfg = ErConfig(3.66, 0.91, 109.36, n_coils * 4.57)
    speeds = [v for v, _ in vehicles]
    # Entries from before the grid's start to after its end, in grid lengths.
    entries = [t0 + u * max(n, 1) / fs for _, u in vehicles]
    assert_spans_match_brute_force(cfg, speeds, entries, t0, fs, n)


def assert_sweeps_agree(sw: SweepConfig, seed: int) -> None:
    try:
        want = per_row_sweep(sw, seed)
    except ValueError:
        with pytest.raises(ValueError):
            run_sweep(sw, seed)
        return
    got = run_sweep(sw, seed).thc_windows
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert np.array_equal(got, blocked_sweep(sw, seed))


COLUMNS = (
    SweepColumn(0.58, UniformOnRange()),
    SweepColumn(1.2, MaxDemand()),
    SweepColumn(1.7, UniformOnRange()),
    SweepColumn(2.5, MaxDemand()),
)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    columns=st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=2, unique=True),
    thetas=st.lists(st.floats(0.0, 0.6), min_size=1, max_size=3, unique=True).map(
        lambda t: tuple(sorted(t))
    ),
    n_ref=st.integers(1, 12),
    window_s=st.sampled_from([9.0, 16.384, 20.0]),
    seed=st.integers(0, 2**16),
)
def test_slot_shared_sweep_matches_per_row_oracle(columns, thetas, n_ref, window_s, seed):
    sw = SweepConfig(
        cfg=INDOT,
        columns=tuple(columns),
        thetas=thetas,
        n_ref=n_ref,
        n_windows=2,
        window_s=window_s,
        sample_rate_hz=500.0,
        m_max=6,
    )
    assert_sweeps_agree(sw, seed)


def test_sweep_over_several_blocks_matches_per_row_oracle():
    # 70 s at 500 Hz is more than one block, so a slot on the segment for
    # the whole window is sampled in two blocks.
    sw = SweepConfig(
        cfg=INDOT,
        columns=(SweepColumn(1.2, UniformOnRange()), SweepColumn(1.7, MaxDemand())),
        thetas=(0.0377, 0.1775),
        n_ref=6,
        n_windows=2,
        window_s=70.0,
        sample_rate_hz=500.0,
        m_max=6,
    )
    assert _BLOCK < 70.0 * 500.0 < 2 * _BLOCK
    assert_sweeps_agree(sw, seed=5)


def test_heavy_sedan_column_matches_per_row_oracle():
    # A 2.5 m sedan at full demand draws more than the truck, so the
    # matched counts rise with the truck share.  Here the third row gains
    # a vehicle but, in the first window, no truck: its sedan count rises
    # again, so one sedan slot of that window is held by the first and the
    # third row but not the second.
    sw = SweepConfig(
        cfg=INDOT,
        columns=(SweepColumn(2.5, MaxDemand()),),
        thetas=(0.0, 0.16, 0.18),
        n_ref=10,
        n_windows=2,
        window_s=20.0,
        sample_rate_hz=500.0,
        m_max=6,
    )
    counts = matched_counts(sw, sw.columns[0])
    assert counts == [10, 10, 11]
    sedans = np.array(counts)[:, None] - truck_count_schedules(sw.thetas, counts, 2)
    assert sedans[:, 0].tolist() == [10, 8, 9]
    assert_sweeps_agree(sw, seed=11)


@pytest.mark.parametrize("seed", [0, 3])
def test_default_sweep_is_bit_identical_to_blocked_oracle(seed):
    sw = default_sweep_config(INDOT, n_windows=2)
    assert np.array_equal(run_sweep(sw, seed).thc_windows, blocked_sweep(sw, seed))
