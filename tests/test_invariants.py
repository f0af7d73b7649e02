"""The checks of :mod:`dwptload.invariants` on random geometry
(``test_closed_forms.geometries``, receivers from below the gap), and
against perturbed models, which each check must report.  The Monte Carlo
check has a statistical bound, so it runs on fixed seeds only (here,
``test_acceptance.py::test_06`` and ``validate`` in ``test_cli.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_closed_forms import geometries

from dwptload import (
    INDOT,
    ErConfig,
    EvParams,
    fleet,
    invariants,
    spectrum,
)
from dwptload.invariants import CHECKS, RX_HI, RX_LO, draw_vehicle

SEEDS = st.integers(0, 2**32 - 1)
WIDE_GAP = ErConfig(0.5, 3.0, 100.0, 350.0)  # every receiver is shorter than the gap
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


def assert_holds(name: str, cfg: ErConfig, seed: int, n: int) -> None:
    check = CHECKS[name]
    worst = check.run(cfg, np.random.default_rng(seed), n)
    assert worst <= check.bound, (name, cfg, worst)


@PROPERTY
@given(geometries(), SEEDS)
@example(WIDE_GAP, 0)
@pytest.mark.parametrize(
    "name, n",
    [("parseval", 3), ("harmonic-bound", 20), ("composition-sign", 20), ("fs-oracle", 3)],
)
def test_check_holds_on_any_geometry(name, n, cfg, seed):
    assert_holds(name, cfg, seed, n)


@PROPERTY
@given(geometries().filter(lambda cfg: cfg.tx_len_m > cfg.period_m / 2))
def test_clipping_never_rougher_where_the_coil_covers_half_the_period(cfg):
    # The check's grid draws nothing; the per-vehicle ratio |c_1| / c_0 of
    # fs_harmonic, against that of the full-demand (scaled) waveform, is
    # its reference.
    check, n, alpha = CHECKS["clipping-vs-scaling"], 10, cfg.power_density_kw_per_m

    def ratio(rx, demand):
        c = spectrum.fs_harmonic(cfg, EvParams(rx, demand, 24.6), np.arange(2))
        return abs(c[1]) / c[0]

    gaps = []
    for rx in np.linspace(RX_LO * cfg.tx_len_m, RX_HI * cfg.tx_len_m, n):
        lo, hi = max(0.0, alpha * (rx - cfg.gap_m)), alpha * rx
        for u in np.linspace(0.01, 0.999, n):
            gaps.append(ratio(rx, lo + u * (hi - lo)) - ratio(rx, hi))
    worst = check.run(cfg, np.random.default_rng(0), n)
    assert worst == pytest.approx(max(gaps), rel=0, abs=1e-15)
    assert worst <= check.bound


def test_clipping_check_skips_short_coils():
    short = ErConfig(2.0, 2.5, 100.0, 45.0)
    assert CHECKS["clipping-vs-scaling"].run(short, np.random.default_rng(0), 10) is None


def test_draws_reach_below_the_gap():
    rng = np.random.default_rng(0)
    rx = np.array([draw_vehicle(rng, INDOT).rx_len_m for _ in range(200)])
    assert rx.min() < INDOT.gap_m < rx.max() < INDOT.tx_len_m
    assert RX_LO * INDOT.tx_len_m == 0.2  # the INDOT draws of earlier builds


# --- perturbed models -------------------------------------------------------


def scaled(fn, factor):
    return lambda *args: fn(*args) * factor


def load_scaled(fn, factor, part_load):
    """``fn`` of a 1-D ``m`` with its harmonics m >= 1 scaled by ``factor``
    at demands below full power (``part_load``) or at full power (not)."""

    def harmonics_scaled(cfg, rx, demands, m):
        c = fn(cfg, rx, demands, m)
        part = np.asarray(demands)[..., None] < cfg.power_density_kw_per_m * rx
        return np.where((part == part_load) & (np.asarray(m) > 0), c * factor, c)

    return harmonics_scaled


def harmonics_only(fn, factor):
    """``fn`` with its harmonics m >= 1 scaled by ``factor`` and c_0 kept."""

    def harmonics_scaled(cfg, rx, demands, m):
        c = fn(cfg, rx, demands, m)
        return np.where(np.asarray(m) > 0, c * factor, c)

    return harmonics_scaled


def dc_only(fn, factor):
    """``fn`` with c_0 scaled by ``factor`` and the harmonics kept."""

    def dc_scaled(cfg, rx, demands, m):
        c = fn(cfg, rx, demands, m)
        return np.where(np.asarray(m) == 0, c * factor, c)

    return dc_scaled


def tilted_harmonics(cfg, rx, demands, m, grid=fleet.fs_harmonic_grid):
    """Harmonics larger by 1 % of the receiver's share of the coil.

    The sign check counts flips, and only draws near the boundary flip,
    so it needs a larger perturbation than the others."""
    return harmonics_only(grid, 1 + 1e-2 * rx / cfg.tx_len_m)(cfg, rx, demands, m)


GRID = "dwptload.invariants.fs_harmonic_grid"
FLEET_GRID = "dwptload.fleet.fs_harmonic_grid"


@pytest.mark.parametrize(
    "name, target, fake, n",
    [
        ("parseval", GRID, scaled(invariants.fs_harmonic_grid, 1 + 1e-3), 20),
        ("harmonic-bound", GRID, scaled(invariants.fs_harmonic_grid, 1 + 1e-3), 200),
        # Clipping rougher than scaling.
        ("clipping-vs-scaling", GRID, load_scaled(spectrum.fs_harmonic_grid, 1 + 1e-3, True), 100),
        # The DC line of full-demand receivers has no spread, so 1e-3 shows;
        # the harmonics are checked in standard errors, about 1 % of a line
        # at 1e4 trials.
        pytest.param(
            "ensemble-mc", FLEET_GRID, dc_only(fleet.fs_harmonic_grid, 1 + 1e-3), 10_000,
            id="ensemble-mc-point-class-dc",
        ),
        pytest.param(
            "ensemble-mc", FLEET_GRID, load_scaled(fleet.fs_harmonic_grid, 1.05, False), 10_000,
            id="ensemble-mc-point-class-harmonics",
        ),
        # Every node of a uniform demand's moments lies below full demand,
        # so its E[c_m^2] are 5 % larger; the full-demand class is kept.
        pytest.param(
            "ensemble-mc", FLEET_GRID, load_scaled(fleet.fs_harmonic_grid, 1.05**0.5, True),
            10_000, id="ensemble-mc-uniform-class-moments",
        ),
        ("composition-sign", FLEET_GRID, tilted_harmonics, 1000),
        ("fs-oracle", GRID, scaled(invariants.fs_harmonic_grid, 1 + 1e-3), 5),
    ],
)
def test_check_reports_a_perturbed_model(monkeypatch, name, target, fake, n):
    check = CHECKS[name]
    assert check.run(INDOT, np.random.default_rng(0), n) <= check.bound
    monkeypatch.setattr(target, fake)
    assert not check.run(INDOT, np.random.default_rng(0), n) <= check.bound


def test_ensemble_bound_is_the_sidak_quantile():
    # 11 lines of the two fleets have a spread; a family-wise false alarm
    # of 1e-3 leaves each two-sided |z| a rate of 1 - (1 - 1e-3)^(1/11).
    from scipy.stats import norm

    per_line = 1.0 - (1.0 - 1e-3) ** (1.0 / 11.0)
    assert CHECKS["ensemble-mc"].bound == pytest.approx(norm.isf(per_line / 2.0), abs=0.005)
