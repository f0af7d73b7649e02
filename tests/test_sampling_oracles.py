"""The blocked, mod-free sampling path against its unblocked oracles.

``synthesize`` evaluates each vehicle in fixed blocks of samples and
takes the in-period position from the phase in periods; ``run_sweep``
samples each vehicle slot once and adds it into every penetration row
that holds it.  ``tests/oracles.py`` keeps the formulations they
replaced: one ``np.mod`` pulse call per vehicle over its whole span, and
one validated scenario per sweep row.  Both routes must agree on
generated inputs.
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
    UniformOnRange,
    run_sweep,
    synthesize,
)
from dwptload.composition import matched_counts, truck_count_schedules
from dwptload.signals import _BLOCK
from dwptload.traffic import IngestedFile, VehicleTable
from oracles import per_row_sweep, unblocked_synthesize

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


def assert_sweeps_agree(sw: SweepConfig, seed: int) -> None:
    try:
        want = per_row_sweep(sw, seed)
    except ValueError:
        with pytest.raises(ValueError):
            run_sweep(sw, seed)
        return
    np.testing.assert_allclose(run_sweep(sw, seed).thc_windows, want, rtol=1e-12, atol=0)


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
