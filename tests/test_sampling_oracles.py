"""The exact-span, kink-driven sampling path against its oracles.

``synthesize`` fills the output grid block by block from each vehicle's
exact on-segment samples; within a block it adds the pieces of each
vehicle's piecewise-linear load, between the kinks of its pulse, as exact
sums of rounded weights (``signals._add_pulses``).  The cases put windows
and spans on the edges of ``_BLOCK``, the grid block the package uses,
and of its chunks.  ``run_sweep`` adds each vehicle slot into every
penetration row that holds it.  ``tests/oracles.py`` keeps the
formulations they replaced: one ``np.mod`` pulse call per vehicle over
its whole span, masked ``load_at_time`` calls per vehicle and block, and
one validated scenario per sweep row.  All of them evaluate one
continuous pulse, so they agree within the bound
``oracles.sampling_bound`` derives from the inputs; samples with no load
are exactly 0.0 on every route.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    composition,
    default_sweep_config,
    generate,
    run_sweep,
    synthesize,
)
from dwptload.composition import matched_counts, truck_count_schedules
from dwptload.signals import _BLOCK, _CHUNK, _add_pulses, _collect, _sample_spans
from dwptload.traffic import IngestedFile, VehicleTable
from oracles import (
    blocked_sweep,
    blocked_synthesize,
    per_row_sweep,
    sampling_bound,
    thc_bound,
    unblocked_synthesize,
)

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


def columns(scenario: Scenario) -> tuple[np.ndarray, ...]:
    evs = scenario.evs
    return evs.speed_mps, evs.entry_time_s, evs.rx_len_m, evs.peak_demand_kw


def assert_within_bound(got, want, cfg, vehicles, fs, window) -> None:
    assert got.shape == want.shape
    bound = sampling_bound(cfg, vehicles, fs, window)
    assert np.all(np.abs(got - want) <= bound), (float(np.max(np.abs(got - want))), bound)
    assert np.all(got >= 0.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(block_edge_cases() | output_block_edge_cases())
def test_synthesis_matches_blocked_oracle_within_bound(case):
    scenario, fs, window = case
    got = synthesize(scenario, fs, window).samples_kw
    want = blocked_synthesize(scenario, fs, window).samples_kw
    assert_within_bound(got, want, scenario.cfg, columns(scenario), fs, window)
    # These receivers are longer than the gap: a sample without load has
    # no vehicle on the segment.
    assert np.array_equal(got == 0.0, want == 0.0)


#: Receivers drawn below the 0.91 m gap, at it, just under the 3.66 m
#: coil, and anywhere between.
RECEIVERS = st.sampled_from([0.2, 0.5, 0.91, 3.6, 3.659]) | st.floats(0.2, 3.65)


@st.composite
def sampler_cases(draw):
    """A roadway, a grid of 0.5 Hz to 1 kHz cut near the edges of blocks
    and chunks (below some 9 Hz a coil period can be shorter than one
    sample), vehicles with their own speeds in no particular order --
    receivers from under the gap to just under the coil, demands from 0
    through the constant regime (at or below the floor) to full -- and
    the rows that hold each, for one row or several: a run of rows, rows
    with gaps between, or a row more than once."""
    n_coils = draw(st.integers(3, 60))
    cfg = ErConfig(3.66, 0.91, 109.36, n_coils * 4.57)
    fs = draw(st.sampled_from([0.5, 100.0, 1000.0]) | st.floats(0.5, 10.0) | st.floats(0.5, 1000.0))
    t0 = draw(st.floats(0.0, 100.0))
    edge = st.sampled_from([_BLOCK, 2 * _BLOCK, _CHUNK, 3 * _CHUNK])
    near_edge = st.builds(lambda e, d: e + d, edge, st.integers(-2, 2))
    n = draw(st.integers(1, 2 * _BLOCK + 3) | near_edge)
    vehicles = []
    for _ in range(draw(st.integers(1, 8))):
        rx = draw(RECEIVERS)
        floor, full = 109.36 * max(rx - 0.91, 0.0), 109.36 * rx
        regime = draw(st.sampled_from(["zero", "constant", "ripple", "full"]))
        if regime == "zero":
            demand = 0.0
        elif regime == "constant" and floor > 0.0:
            demand = floor * draw(st.floats(0.0, 1.0))
        elif regime == "full":
            demand = full
        else:
            demand = floor + (full - floor) * draw(st.floats(0.01, 1.0))
        speed = draw(st.floats(0.5, 40.0))
        dwell = cfg.energized_len_m / speed
        entry = draw(st.floats(max(0.0, t0 - dwell - 1.0), t0 + n / fs + 1.0))
        vehicles.append((speed, entry, rx, demand))
    n_rows = draw(st.integers(1, 4))
    holders = None
    if n_rows > 1 or draw(st.booleans()):
        row = st.integers(0, n_rows - 1)
        holder_rows = (
            # One run of rows, as a sweep holds its slots.
            st.builds(lambda a, b: list(range(min(a, b), max(a, b) + 1)), row, row)
            # Any set of rows, in any order: runs or rows with gaps between.
            | st.lists(row, max_size=n_rows, unique=True)
            # A row held more than once.
            | st.builds(lambda h, r: h + [r, r], st.lists(row, max_size=n_rows), row)
        )
        holders = [draw(holder_rows) for _ in vehicles]
    return cfg, fs, t0, n, vehicles, n_rows, holders


def in_a_gap_or_off(cfg, vehicles, fs, t0, n, margin_m=1e-6) -> np.ndarray:
    """Samples where no vehicle draws power: each is off the segment, has
    no demand, or has its receiver inside a gap by at least ``margin_m``
    (a receiver not longer than the gap, past the end of the coil)."""
    t = t0 + np.arange(n) / fs
    idle = np.ones(n, dtype=bool)
    for speed, entry, rx, demand in vehicles:
        x = speed * (t - entry)
        on = (x >= 0.0) & (x < cfg.energized_len_m)
        xm = np.mod(x, cfg.period_m)
        gap = (xm > cfg.tx_len_m + rx + margin_m) & (xm < cfg.period_m - margin_m)
        idle &= ~on | (demand == 0.0) | gap
    return idle


def vehicle_scenario(cfg, vehicles, duration) -> Scenario:
    evs = [EvParams(rx, demand, speed, entry) for speed, entry, rx, demand in vehicles]
    return Scenario(cfg, VehicleTable.from_evs(evs), duration, None, IngestedFile("generated"))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sampler_cases())
# Constant-regime and short-receiver vehicles across a block edge, unsorted.
@example(case=(
    ErConfig(3.66, 0.91, 109.36, 20 * 4.57), 1000.0, 3.0, _BLOCK + 1,
    [(21.7, 5.0, 1.83, 60.0), (2.5, 0.0, 0.5, 54.68), (29.0, 2.5, 1.2, 0.0)], 1, None,
))
# Rows that hold different vehicles, one held twice, one by no row.
@example(case=(
    ErConfig(3.66, 0.91, 109.36, 20 * 4.57), 100.0, 0.0, 3 * _CHUNK + 1,
    [(24.6, 0.2, 1.83, 200.1288), (29.0, 0.0, 0.58, 40.0), (26.8, 1.0, 1.7, 150.0)], 3,
    [[0, 2], [1], []],
))
def test_sampler_matches_blocked_oracle_in_every_regime(case):
    """Each row of the sampler is, within :func:`sampling_bound`, the
    blocked oracle's series of the vehicles that the row holds; it is
    never negative, and exactly 0.0 where no vehicle draws power."""
    cfg, fs, t0, n, vehicles, n_rows, holders = case
    got = _collect(np.empty((n_rows, n)), _add_pulses(
        cfg, n_rows, n, holders, t0, fs, tuple(np.array(c) for c in zip(*vehicles))
    ))
    window = (t0, t0 + n / fs)
    duration = max(window[1], max(v[1] for v in vehicles)) + 1.0
    # The sampler sets q from the vehicles of every row, each once per row.
    held = vehicles if holders is None else [v for v, h in zip(vehicles, holders) for _ in h]
    block = tuple(np.array(c) for c in zip(*held))
    for r in range(n_rows):
        # A vehicle that the row holds twice adds its load twice.
        times = [1] * len(vehicles) if holders is None else [h.count(r) for h in holders]
        mine = [v for v, k in zip(vehicles, times) for _ in range(k)]
        if not mine:
            assert np.all(got[r] == 0.0)
            continue
        want = blocked_synthesize(vehicle_scenario(cfg, mine, duration), fs, window).samples_kw
        if want.size != n:  # the oracle rounds the window's length itself
            continue
        count = max(holders[i].count(r) for i in range(len(vehicles))) if holders else 1
        bound = count * sampling_bound(cfg, tuple(np.array(c) for c in zip(*mine)), fs, window,
                                       block=block)
        assert np.all(np.abs(got[r] - want) <= bound)
        assert np.all(got[r] >= 0.0)
        assert np.all(got[r][in_a_gap_or_off(cfg, mine, fs, t0, n)] == 0.0)


def test_unsorted_table_gives_the_bits_of_the_sorted_one():
    """``ingest`` keeps a file's row order, so a table need not be sorted
    by entry time.  The sampler's sums are exact, so the order of the
    table changes no bit; and both are within the bound of the blocked
    oracle, which adds vehicle after vehicle."""
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
    assert shuffled != evs
    scenarios = [
        Scenario(INDOT, VehicleTable.from_evs(v), 80.0, None, IngestedFile("generated"))
        for v in (shuffled, evs)
    ]
    window = (0.0, 80.0)
    got, by_entry = (synthesize(sc, 1000.0, window).samples_kw for sc in scenarios)
    assert np.array_equal(got, by_entry)
    want = blocked_synthesize(scenarios[0], 1000.0, window).samples_kw
    assert_within_bound(got, want, INDOT, columns(scenarios[0]), 1000.0, window)


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
    # Far from t = 0 at a high rate, t_k, and with it x_k, stays flat over
    # many samples, so the closed-form guess of an edge is off by many.
    fs=st.floats(1.0, 2000.0) | st.floats(1.0, 1e6),
    t0=st.floats(0.0, 1e4) | st.floats(0.0, 1e12),
    n=st.integers(0, 300) | st.just(1),
    vehicles=st.lists(
        st.tuples(st.floats(0.5, 60.0), st.floats(-2.0, 2.0)), min_size=1, max_size=6
    ),
)
@example(n_coils=2, fs=1e6, t0=1e12, n=300, vehicles=[(30.0, 0.3), (0.5, -0.5)])
def test_sample_spans_match_brute_force(n_coils, fs, t0, n, vehicles):
    cfg = ErConfig(3.66, 0.91, 109.36, n_coils * 4.57)
    speeds = [v for v, _ in vehicles]
    # Entries from before the grid's start to after its end, in grid lengths.
    entries = [t0 + u * max(n, 1) / fs for _, u in vehicles]
    assert_spans_match_brute_force(cfg, speeds, entries, t0, fs, n)


def captured_sweep(sw: SweepConfig, seed: int):
    """``run_sweep``'s per-window THC and the rows of every (window,
    column) cell it projected, in order."""
    rows, project = [], composition._thc

    def capture(x, *args):
        rows.append(x.copy())
        return project(x, *args)

    with mock.patch.object(composition, "_thc", capture):
        thc = run_sweep(sw, seed).thc_windows
    return thc, rows


def assert_sweep_rows_match(sw: SweepConfig, seed: int, got_thc, got_rows, unblocked=None) -> None:
    """Every cell's rows within :func:`sampling_bound` of the blocked
    oracle's series of the same vehicles, and its THC within
    :func:`thc_bound` of theirs; and within twice that of the ``unblocked``
    oracle's THC, whose rows are within the same bound of the blocked
    ones."""
    window = (sw.window_start_s, sw.window_start_s + sw.window_s)
    n_lines = 2 * sw.m_max  # two fundamentals
    for (w, j, want, vehicles, thc), got in zip(blocked_sweep(sw, seed), got_rows, strict=True):
        eps = max(sampling_bound(sw.cfg, v, sw.sample_rate_hz, window) for v in vehicles)
        assert np.all(np.abs(got - want) <= eps)
        bound = thc_bound(want, thc, eps, n_lines)
        assert np.all(np.abs(got_thc[:, j, w] - thc) <= bound)
        if unblocked is not None:
            assert np.all(np.abs(got_thc[:, j, w] - unblocked[:, j, w]) <= 2.0 * bound)


def assert_sweeps_agree(sw: SweepConfig, seed: int) -> None:
    try:
        want = per_row_sweep(sw, seed)
    except ValueError:
        with pytest.raises(ValueError):
            run_sweep(sw, seed)
        return
    got, rows = captured_sweep(sw, seed)
    assert_sweep_rows_match(sw, seed, got, rows, unblocked=want)


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
    # 70 s at 500 Hz is more than one block even of one row, so a slot on
    # the segment for the whole window is sampled in several blocks (three
    # of these two rows' 2^14 samples).
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
def test_default_sweep_matches_blocked_oracle(seed):
    sw = default_sweep_config(INDOT, n_windows=2)
    got, rows = captured_sweep(sw, seed)
    assert_sweep_rows_match(sw, seed, got, rows)
