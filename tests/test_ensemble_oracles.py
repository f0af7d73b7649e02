"""The per-harmonic Monte Carlo ensemble and the class draw of ``generate``
against their oracles, and the ensemble against the analytic spectrum.

``monte_carlo_psd`` takes the harmonics one at a time on (tile, vehicles)
arrays of a bounded size, stepping the two sines of each class's
coefficients from one harmonic to the next, and ``generate`` draws each
class by searching the cumulative class probabilities; ``tests/oracles.py``
keeps the dense (chunk, vehicles, harmonics) ensemble of
``fs_harmonic_grid`` coefficients, the chunk-wide (chunk, vehicles)
ensemble the tiles replaced, and the ``Generator.choice`` draw.  On
generated fleets and traffic the routes must draw the same numbers: the
tiled and chunk-wide ensembles must agree bit for bit, the dense one to
rounding.  The stepped coefficients must agree with ``fs_harmonic_grid``
to a rounding bound that shrinks with the demand as c_m does, the
ensemble's lines must sit within a few standard errors of ``analytic_psd``
(whose moments are quadratures of ``fs_harmonic_grid``) down to demands
of 1e-105 kW, and its traced memory must not grow with the trials.

Hypothesis mixes literals of the loaded modules into its derandomized
draws, so this file run alone draws other examples than the whole suite:
the fleets that once failed only alone are pinned as ``@example``s.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwptload import (
    INDOT,
    ErConfig,
    EvClass,
    FleetModel,
    MaxDemand,
    TrafficClass,
    TrafficSpec,
    UniformExplicit,
    UniformOnRange,
    analytic_psd,
    demand_bounds,
    fs_harmonic_grid,
    generate,
    mixture_moments,
    monte_carlo_psd,
)
from dwptload import signals
from dwptload.spectrum import _stepped_rows
from oracles import choice_generate, chunked_monte_carlo_psd, dense_monte_carlo_psd

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
UNIT = st.floats(0.0, 1.0)


@st.composite
def geometries(draw) -> ErConfig:
    """The test track, or a coil array with any duty cycle."""
    if draw(st.booleans()):
        return INDOT
    tx = draw(st.floats(0.5, 5.0))
    gap = draw(st.floats(0.1, 3.0))
    alpha = draw(st.floats(10.0, 300.0))
    return ErConfig(tx, gap, alpha, segment_len_m=100.0 * (tx + gap))


DEMAND_KINDS = ("max", "range", "explicit", "point")


@st.composite
def demand_classes(draw, cfg: ErConfig, kinds=DEMAND_KINDS):
    """(rx_len_m, demand) with a receiver from well below the gap up to
    just under the coil, and a full, ranged, explicit or point demand."""
    rx = cfg.tx_len_m * draw(st.floats(0.01, 0.995))
    full = cfg.power_density_kw_per_m * rx
    kind = draw(st.sampled_from(kinds))
    if kind == "max":
        return rx, MaxDemand()
    if kind == "range":
        return rx, UniformOnRange()
    if kind == "point":
        level = full * draw(UNIT)
        return rx, UniformExplicit(level, level)
    lo, hi = sorted((full * draw(UNIT), full * draw(UNIT)))
    return rx, UniformExplicit(lo, hi)


def class_probs(draw, n: int) -> list[float]:
    """``n`` probabilities summing to one; some may be exactly zero, the
    rest are at least a few percent, so every present class is drawn
    often enough for the ensemble's normal approximation."""
    weights = draw(
        st.lists(st.just(0.0) | st.floats(0.2, 1.0), min_size=n, max_size=n).filter(
            lambda w: sum(w) > 0
        )
    )
    total = sum(weights)
    return [w / total for w in weights]


@st.composite
def fleets(draw, max_evs: int = 60, demand_kinds=DEMAND_KINDS) -> FleetModel:
    cfg = draw(geometries())
    n = draw(st.integers(1, 4))
    kinds = [draw(demand_classes(cfg, demand_kinds)) for _ in range(n)]
    probs = class_probs(draw, n)
    classes = tuple(EvClass(rx, p, d) for (rx, d), p in zip(kinds, probs))
    return FleetModel(cfg, classes, draw(st.integers(1, max_evs)), 24.6)


#: Four classes: a short receiver (below INDOT's 0.91 m gap) with ranged
#: demand, an absent class, a point-demand explicit interval and a full
#: truck.  2000 vehicles at m_max = 19 give draw chunks of 100 trials, so
#: 250 trials take two whole chunks and a remainder.
CHUNKED = FleetModel(
    INDOT,
    (
        EvClass(0.6, 0.3, UniformOnRange()),
        EvClass(1.2, 0.0, UniformOnRange()),
        EvClass(1.5, 0.3, UniformExplicit(90.0, 90.0)),
        EvClass(1.83, 0.4, MaxDemand()),
    ),
    2000,
    24.6,
)


def tiny_fleet(rx_len_m: float, hi_kw: float) -> FleetModel:
    """One INDOT vehicle of demand uniform on [0, hi_kw]."""
    return FleetModel(INDOT, (EvClass(rx_len_m, 1.0, UniformExplicit(0.0, hi_kw)),), 1, 24.6)


def assert_ensembles_agree(got, want) -> None:
    np.testing.assert_allclose(got.line_powers_kw2, want.line_powers_kw2, rtol=1e-10, atol=0)
    # The variance is a difference of two sums of ~trials * line^2, so it
    # carries a rounding error of a few eps * line^2 whatever its size: a
    # deterministic line's standard error is rounding noise on both routes.
    var_got = got.stderr_kw2**2 * got.trials
    var_want = want.stderr_kw2**2 * want.trials
    floor = 64 * np.finfo(float).eps * want.line_powers_kw2**2
    assert np.all(np.abs(var_got - var_want) <= 2e-10 * var_want + floor)
    assert got.trials == want.trials
    assert got.fundamental_hz == want.fundamental_hz


@SETTINGS
@given(
    model=fleets(),
    trials=st.integers(100, 300),
    seed=st.integers(0, 2**32 - 1),
    m_max=st.integers(0, 20),
)
@example(model=CHUNKED, trials=250, seed=7, m_max=19)
# Demands up to 6e-6 kW: the line was 7.8e-9 off relative when the stepped
# rows rounded with the envelope alpha D / (m pi)^2 rather than with c_m.
@example(model=tiny_fleet(0.4575, 5.964303019125121e-06), trials=100, seed=0, m_max=1)
def test_monte_carlo_matches_dense_oracle(model, trials, seed, m_max):
    assert_ensembles_agree(
        monte_carlo_psd(model, trials, seed, m_max),
        dense_monte_carlo_psd(model, trials, seed, m_max),
    )


#: The benchmark's ensemble fleet: 45 vehicles, a fifth of them trucks at
#: full demand and the rest sedans on their whole demand range.
MODEL_IO = FleetModel(
    INDOT,
    (EvClass(1.83, 0.2, MaxDemand(), "truck"), EvClass(1.2, 0.8, UniformOnRange(), "sedan")),
    45,
    24.6,
)


#: One vehicle of ``CHUNKED``'s classes.
ONE_EV = FleetModel(INDOT, CHUNKED.classes, 1, 24.6)


@st.composite
def tiled_fleets(draw) -> FleetModel:
    """Up to 300 vehicles, with point demands only, continuous demands
    only (a demand range) or any mixture."""
    kinds = draw(st.sampled_from([DEMAND_KINDS, ("max", "point"), ("range",)]))
    return draw(fleets(max_evs=300, demand_kinds=kinds))


@SETTINGS
@given(
    model=tiled_fleets(),
    trials=st.integers(100, 2500),
    seed=st.integers(0, 2**32 - 1),
    m_max=st.integers(0, 12),
    tile_elems=st.just(signals._MC_TILE) | st.integers(2, 4096),
)
@example(model=MODEL_IO, trials=10_000, seed=3, m_max=8, tile_elems=signals._MC_TILE)
# Draw chunks of 100 trials in tiles of 16: a remainder in both.
@example(model=CHUNKED, trials=250, seed=7, m_max=19, tile_elems=2**15)
# Two trials of one vehicle per tile, so most tiles lack a class, and a
# lone last trial that joins the tile before it (taken alone, it changes
# the lines at this seed).
@example(model=ONE_EV, trials=101, seed=6, m_max=5, tile_elems=2)
def test_tiled_monte_carlo_matches_chunked_oracle_bit_for_bit(
    model, trials, seed, m_max, tile_elems
):
    with mock.patch.object(signals, "_MC_TILE", tile_elems):
        got = monte_carlo_psd(model, trials, seed, m_max)
    want = chunked_monte_carlo_psd(model, trials, seed, m_max)
    assert np.array_equal(got.line_powers_kw2, want.line_powers_kw2)
    assert np.array_equal(got.stderr_kw2, want.stderr_kw2)


def test_tiny_demands_keep_their_standard_error():
    # One vehicle on (0, 2.1e-104] kW: its DC power varies from trial to
    # trial, but the squares of powers of ~1e-208 kW^2 underflowed to a
    # zero standard error.  At 2**300 times the demand nothing underflows,
    # and the pulse (a flat demand) scales exactly, so the relative
    # standard error must be the same.
    tiny, big = (
        FleetModel(INDOT, (EvClass(1.2, 1.0, UniformExplicit(0.0, hi)),), 1, 24.6)
        for hi in (2.1e-104, 2.1e-104 * 2.0**300)
    )
    got, ref = monte_carlo_psd(tiny, 1000, 3, 3), monte_carlo_psd(big, 1000, 3, 3)
    assert got.stderr_kw2[0] > 0.0
    assert got.stderr_kw2[0] / got.line_powers_kw2[0] == pytest.approx(
        ref.stderr_kw2[0] / ref.line_powers_kw2[0], rel=1e-12
    )
    want = chunked_monte_carlo_psd(tiny, 1000, 3, 3)
    assert np.array_equal(got.stderr_kw2, want.stderr_kw2)
    assert_ensembles_agree(got, dense_monte_carlo_psd(tiny, 1000, 3, 3))


def traced_peak(trials: int) -> int:
    tracemalloc.start()
    try:
        monte_carlo_psd(MODEL_IO, trials, 3, 8)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_memory_is_bounded_by_the_tile():
    # The chunk-wide route peaked at ~49 MB here (10,000 trials); the tiles
    # keep the chunk's draws (~7 MB) and ~3 MB of tile work arrays.
    peak = traced_peak(10_000)
    assert peak < 16 * 2**20
    # Four whole chunks instead of one: no chunk's arrays outlive it.
    assert traced_peak(40_000) <= 1.01 * peak


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cfg=geometries(), data=st.data(), m_max=st.integers(0, 64))
def test_stepped_rows_match_fs_harmonic_grid(cfg, data, m_max):
    rx = cfg.tx_len_m * data.draw(st.floats(0.01, 0.995) | st.sampled_from([1e-6, 1 - 1e-9]))
    alpha = cfg.power_density_kw_per_m
    full = alpha * rx
    threshold = alpha * (rx - cfg.gap_m)  # at or below: flat, if rx > gap
    # Tiny demands too: rows of a difference of cosines were ~1e92 off
    # relative at 5.3e-105 kW.
    levels = [0.0, 5.3e-105, 6e-6, full, threshold, np.nextafter(threshold, np.inf)]
    shares = data.draw(st.lists(UNIT | st.floats(1e-120, 1e-3), max_size=20))
    demands = np.array([full * s for s in shares] + [p for p in levels if 0 <= p <= full])
    rows = np.array([row.copy() for row in _stepped_rows(cfg, rx, demands, m_max)])
    rows = rows.reshape(m_max + 1, -1).T
    want = fs_harmonic_grid(cfg, rx, demands, np.arange(m_max + 1))
    assert np.array_equal(rows[:, :2], want[:, :2])
    assert np.all(rows[demands <= threshold, 1:] == 0.0)
    # Over 7,000 random geometries (coils 0.05-10 m, gaps 0.01-10 m,
    # receivers up to 1 - 1e-15 of the coil, 40 demands each, down to
    # 1e-120 of full), |stepped - grid| stayed within 1.06 eps m (4 + m / 8)
    # of the envelope alpha D / (m pi)^2, and over 9,500 within
    # 0.99 eps m^2 (4 + m / 4) theta_a of it, theta_a = pi a / D, which
    # shrinks with the demand as c_m does.  The bounds are twice
    # eps m (4 + m / 8) and eps m^2 (4 + m / 4) theta_a; below the smallest
    # normal number floats are evenly spaced, so theta_a counts as no smaller.
    m = np.arange(1, m_max + 1)
    envelope = alpha * cfg.period_m / (m * np.pi) ** 2
    theta_a = np.maximum(np.pi * (demands / alpha) / cfg.period_m, np.finfo(float).tiny)
    eps = np.finfo(float).eps
    bound = np.minimum(
        eps * m * (8 + m / 4) * envelope, eps * m**2 * (8 + m / 2) * theta_a[:, None] * envelope
    )
    assert np.all(np.abs(rows[:, 1:] - want[:, 1:]) <= bound)


@st.composite
def traffic_specs(draw) -> tuple[ErConfig, TrafficSpec]:
    cfg = draw(geometries())
    n = draw(st.integers(1, 4))
    kinds = [draw(demand_classes(cfg)) for _ in range(n)]
    probs = class_probs(draw, n)
    classes = tuple(
        TrafficClass(rx, p, draw(st.floats(5.0, 40.0)), d, f"c{i}")
        for i, ((rx, d), p) in enumerate(zip(kinds, probs))
    )
    return cfg, TrafficSpec(draw(st.floats(0.0, 20.0)), draw(st.floats(1.0, 200.0)), classes)


@SETTINGS
@given(case=traffic_specs(), seed=st.integers(0, 2**32 - 1))
def test_generate_matches_choice_oracle(case, seed):
    cfg, spec = case
    assert generate(cfg, spec, seed).evs == choice_generate(cfg, spec, seed)


@SETTINGS
@given(model=fleets(max_evs=50), seed=st.integers(0, 2**32 - 1), m_max=st.integers(1, 10))
# Demands of ~1e-105 kW: the analytic m = 1 line came out as 7.1e-14 kW^2
# for a true ~4e-213, and the ensemble's sums of squares overflowed.
@example(model=tiny_fleet(0.0571875, 6.604055908745071e-106), seed=0, m_max=1)
@example(model=tiny_fleet(0.4575, 5.283244726996057e-105), seed=0, m_max=2)
def test_monte_carlo_lines_match_analytic(model, seed, m_max):
    trials = 2000
    mc = monte_carlo_psd(model, trials, seed, m_max)
    ana = analytic_psd(model, m_max)
    lines, se = mc.line_powers_kw2, mc.stderr_kw2
    # A line of identical trials (one point-demand vehicle) has a standard
    # error of rounding noise; its deviation is rounding too.
    want = np.asarray(ana.harmonic_powers)
    assert np.all(np.abs(lines[1:] - want) <= 4.5 * se[1:] + 1e-9 * want)
    # E|sum_n c_0n|^2 = N E[c_0^2] + N (N - 1) E[c_0]^2; analytic_psd's DC
    # line (N E[c_0])^2 leaves out the class and demand variance, which a
    # fleet of one point-demand class does not have.
    e0, e00 = mixture_moments(model, 0)
    n = model.n_evs
    dc = n * e00 + n * (n - 1) * e0 * e0
    assert abs(lines[0] - dc) <= 4.5 * se[0] + 1e-9 * dc
    present = [c for c in model.classes if c.prob > 0]
    lo, hi = demand_bounds(present[0].demand_dist, model.cfg, present[0].rx_len_m)
    if len(present) == 1 and lo == hi:
        assert lines[0] == pytest.approx(ana.dc_power_sq, rel=1e-9)
