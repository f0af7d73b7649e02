"""Mean-power-matched penetration sweeps and their variance controls."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from dwptload import (
    EvClass,
    FleetModel,
    INDOT,
    MaxDemand,
    SweepColumn,
    SweepConfig,
    SweepResult,
    UniformOnRange,
    class_moments,
    default_sweep_config,
    fs_harmonic,
    run_sweep,
)
from dwptload import composition
from dwptload.composition import (
    MAX_WINDOWS,
    _accumulated_counts,
    matched_counts,
    truck_count_schedules,
)
from dwptload.roadway import EvParams


def test_default_config_layout():
    sw = default_sweep_config(INDOT, n_windows=16)
    assert [c.rx_len_m for c in sw.columns] == [0.58, 1.2, 1.7]
    assert isinstance(sw.columns[0].demand_dist, UniformOnRange)
    assert isinstance(sw.columns[1].demand_dist, UniformOnRange)
    assert isinstance(sw.columns[2].demand_dist, MaxDemand)
    assert sw.thetas == (0.0377, 0.0557, 0.1775)
    assert (sw.truck_rx_len_m, sw.truck_speed_mps) == (1.83, 21.7)
    assert sw.sedan_speed_mps == 29.0
    assert (sw.n_ref, sw.n_windows) == (45, 16)
    assert (sw.window_start_s, sw.window_s) == (130.0, 60.0)
    assert (sw.sample_rate_hz, sw.m_max) == (500.0, 8)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(cfg=INDOT, columns=())
    with pytest.raises(ValueError, match=r"^n_windows must be >= 1, got 0$"):
        default_sweep_config(INDOT, n_windows=0)
    with pytest.raises(ValueError, match=r"^n_ref must be >= 1, got 0$"):
        dataclasses.replace(default_sweep_config(INDOT), n_ref=0)
    with pytest.raises(ValueError, match=r"^thetas must be non-empty and lie in \[0, 1\], got"):
        SweepConfig(
            cfg=INDOT, columns=(SweepColumn(1.2, MaxDemand()),), thetas=(0.1, 1.5)
        )
    # The sampling fields are refused where the config is built.
    sw = default_sweep_config(INDOT, n_windows=1)
    bad = [(name, value, "must be finite") for value in (np.nan, np.inf, -np.inf) for name in (
        "truck_rx_len_m", "truck_speed_mps", "sedan_speed_mps", "window_s",
        "window_start_s", "sample_rate_hz",
    )]
    bad += [(name, value, "must be > 0") for value in (0.0, -500.0) for name in (
        "truck_rx_len_m", "truck_speed_mps", "sedan_speed_mps", "window_s", "sample_rate_hz",
    )]
    bad += [("window_start_s", -1.0, "must be >= 0"), ("m_max", 0, "must be >= 1")]
    for name, value, rule in bad:
        with pytest.raises(ValueError, match=rf"^{name} {rule}, got {value}$"):
            dataclasses.replace(sw, **{name: value})
    # A window whose end overflows is refused by the grid, before any draw.
    with pytest.raises(ValueError, match=r"^bad window"):
        run_sweep(dataclasses.replace(sw, window_start_s=1e308, window_s=1e308), seed=0)
    # So is one of more samples than any grid takes: the parent asked for
    # 3 rows of 5e8 samples (12 GB), or numpy's "Maximum allowed size
    # exceeded" at window_s 1e300.
    with pytest.raises(ValueError, match=(
        r"^window \(130\.0, 1000130\.0\) at 500\.0 Hz makes 500000000 samples, "
        r"above the limit of 134217728$"
    )):
        run_sweep(dataclasses.replace(sw, window_s=1e6), seed=0)


def test_sweep_size_limits(monkeypatch):
    assert MAX_WINDOWS == 2**14
    assert default_sweep_config(INDOT, n_windows=MAX_WINDOWS).n_windows == MAX_WINDOWS
    with pytest.raises(ValueError, match=rf"^n_windows must be <= 16384, got 16385$"):
        default_sweep_config(INDOT, n_windows=MAX_WINDOWS + 1)

    # n_ref 10600 matches 10600 vehicles a window, 21200 Sobol dimensions:
    # the shipped table serves them; one more vehicle is refused before any
    # point is drawn.
    class Drew(Exception):
        pass

    def draw(directions, rng, m):
        raise Drew(directions.shape)

    monkeypatch.setattr(composition, "_scrambled_sobol", draw)
    sw = default_sweep_config(INDOT, n_windows=1)
    with pytest.raises(Drew) as drew:
        run_sweep(dataclasses.replace(sw, n_ref=10600), seed=0)
    assert drew.value.args == ((21200, 30),)
    with pytest.raises(ValueError, match=(
        r"^n_ref 10601 matches up to 10601 vehicles a window, whose phases and demands "
        r"need 21202 Sobol dimensions: Maximum supported dimensionality is 21201\.$"
    )):
        run_sweep(dataclasses.replace(sw, n_ref=10601), seed=0)


def test_matched_counts_reference_values():
    sw = default_sweep_config(INDOT)
    expected = {0.58: [45, 42, 28], 1.2: [45, 44, 39], 1.7: [45, 45, 45]}
    for col in sw.columns:
        assert matched_counts(sw, col) == expected[col.rx_len_m]


def test_matched_counts_equalize_expected_power():
    sw = default_sweep_config(INDOT)
    alpha = INDOT.power_density_kw_per_m
    truck_dc = fs_harmonic(INDOT, EvParams(1.83, alpha * 1.83, 21.7), 0)
    for col in sw.columns:
        probe = FleetModel(
            cfg=INDOT,
            classes=(EvClass(col.rx_len_m, 1.0, col.demand_dist),),
            n_evs=1,
            speed_mps=29.0,
        )
        sedan_dc = class_moments(probe, 0, 0)[0]
        counts = matched_counts(sw, col)
        per_ev = [t * truck_dc + (1 - t) * sedan_dc for t in sw.thetas]
        ref = counts[0] * per_ev[0]
        for n, p in zip(counts, per_ev):
            # Counts are integers, so rows match to within half a vehicle.
            assert abs(n * p - ref) <= 0.5 * p


def test_accumulated_counts_average_exactly():
    out = _accumulated_counts(2.5, 4)
    assert out.tolist() == [3, 2, 3, 2]
    assert not _accumulated_counts(0.0, 5).any()
    assert _accumulated_counts(3.0, 5).tolist() == [3] * 5
    frac = _accumulated_counts(1.6965, 64)
    assert abs(frac.sum() - 1.6965 * 64) <= 0.5
    assert set(frac) <= {1, 2}


def test_truck_schedules_are_nested_and_unbiased():
    thetas = (0.0377, 0.0557, 0.1775)
    counts = (45, 42, 28)
    sched = truck_count_schedules(thetas, counts, 64)
    assert sched.shape == (3, 64)
    assert np.all(np.diff(sched, axis=0) >= 0)  # nested truck sets
    for row, (t, n) in zip(sched, zip(thetas, counts)):
        assert abs(row.sum() - t * n * 64) <= 0.5
    with pytest.raises(ValueError):
        truck_count_schedules((0.5, 0.1), (10, 10), 8)


def test_sweep_result_summaries():
    thc = np.array([[[3.0, 4.0, 3.0, 4.0]], [[5.0, 5.0, 5.0, 5.0]]])
    res = SweepResult(
        thetas=(0.1, 0.3),
        columns=(SweepColumn(1.2, MaxDemand()),),
        ev_counts=np.array([[6], [6]]),
        thc_windows=thc,
    )
    assert res.n_windows == 4
    assert res.thc_rms[0, 0] == pytest.approx(np.sqrt(12.5))
    assert res.thc_rms[1, 0] == 5.0
    assert res.thc_mean[0, 0] == 3.5
    assert res.column_spread(0) == pytest.approx(5.0 - np.sqrt(12.5))
    diff, se = res.paired_diff(0, 1, 0)
    assert diff == pytest.approx(5.0 - np.sqrt(12.5))
    d_sq = np.array([16.0, 9.0, 16.0, 9.0])
    scale = 2.0 * np.sqrt(0.5 * (25.0 + 12.5))
    assert se == pytest.approx(d_sq.std(ddof=1) / 2.0 / scale)


def test_run_sweep_smoke():
    sw = SweepConfig(
        cfg=INDOT,
        columns=(SweepColumn(1.2, MaxDemand()),),
        thetas=(0.05, 0.2),
        n_ref=6,
        n_windows=2,
        window_s=20.0,
        sample_rate_hz=200.0,
        m_max=6,
    )
    res = run_sweep(sw, seed=3)
    assert res.thc_windows.shape == (2, 1, 2)
    assert res.ev_counts.shape == (2, 1)
    assert np.all(res.thc_windows > 1.0)
    assert np.all(res.thc_windows < 30.0)
    again = run_sweep(sw, seed=3)
    assert np.array_equal(res.thc_windows, again.thc_windows)
    other = run_sweep(sw, seed=4)
    assert not np.array_equal(res.thc_windows, other.thc_windows)


def test_run_sweep_builds_no_evparams_per_slot(evparams_built):
    built, slots = [], []
    for n_windows, n_ref in ((1, 6), (3, 30)):
        sw = dataclasses.replace(default_sweep_config(INDOT, n_windows), n_ref=n_ref)
        before = len(evparams_built)
        result = run_sweep(sw, 0)
        built.append(len(evparams_built) - before)
        slots.append(n_windows * result.ev_counts.max(axis=0).sum())
    assert slots[1] > 10 * slots[0]
    assert built[0] == built[1]
