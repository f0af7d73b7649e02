"""Closed-form Fourier coefficients, THC, bounds, and scheme comparison.

The identities checked on random draws (closed form against quadrature,
the envelope, clipping against scaling, Parseval) are in
:mod:`dwptload.invariants`; ``tests/test_invariants.py`` runs them on
random geometry.
"""

from __future__ import annotations

import numpy as np
import pytest

from dwptload import (
    INDOT,
    ErConfig,
    EvParams,
    coil_pulse,
    compare_schemes,
    default_harmonic_count,
    fs_coefficients,
    fs_dc,
    fs_harmonic,
    fs_harmonic_grid,
    harmonic_bound,
    harmonic_count_for_dc,
    harmonic_ratio_clipping,
    harmonic_ratio_scaling,
    thc_single,
)
from dwptload.invariants import draw_vehicle

ALPHA = INDOT.power_density_kw_per_m
D = INDOT.period_m

# Frozen reference values for the full-demand 1.83 m receiver on the test
# track, cross-checked against the quadrature oracle below.
TRUCK_C0 = 160.27820743982494
TRUCK_C1 = 28.21272790074274
TRUCK_RATIO1 = 0.17602348036825258
TRUCK_THC = 25.87860450948639
TRUCK_THC_M1 = 24.893479323289704
TRUCK_AUTO_M = 189


def ev(rx, demand, speed=24.6):
    return EvParams(rx_len_m=rx, peak_demand_kw=demand, speed_mps=speed)


def max_ev(rx, speed=24.6):
    return ev(rx, ALPHA * rx, speed)


# --- DC coefficient --------------------------------------------------------


def test_dc_value_at_full_demand(truck):
    assert fs_dc(INDOT, truck) == pytest.approx(ALPHA * 1.83 * 3.66 / 4.57, rel=1e-14)
    assert fs_dc(INDOT, truck) == pytest.approx(TRUCK_C0, rel=1e-14)
    assert fs_dc(INDOT, truck) == pytest.approx(160.28, abs=5e-3)


def test_dc_constant_load_limit():
    base = ALPHA * (1.83 - INDOT.gap_m)
    assert fs_dc(INDOT, ev(1.83, base)) == base  # constant regime: mean = demand
    assert fs_dc(INDOT, ev(1.83, base + 1e-9)) == pytest.approx(base, rel=1e-9)


def test_dc_matches_waveform_mean():
    """Closed form vs midpoint-rule mean of the sampled pulse, rel < 1e-10."""
    rng = np.random.default_rng(5)
    x = (np.arange(200_000) + 0.5) * (D / 200_000)
    for _ in range(10):
        vehicle = draw_vehicle(rng, INDOT)
        mean = float(np.mean(coil_pulse(INDOT, vehicle, x)))
        assert fs_dc(INDOT, vehicle) == pytest.approx(mean, rel=1e-10)


def test_dc_bounded_by_full_demand_value():
    rng = np.random.default_rng(6)
    for _ in range(50):
        vehicle = draw_vehicle(rng, INDOT)
        cap = ALPHA * vehicle.rx_len_m * INDOT.tx_len_m / D
        assert 0.0 < fs_dc(INDOT, vehicle) <= cap * (1 + 1e-12)


# --- harmonic coefficients -------------------------------------------------


def test_first_harmonic_and_remark_ratio(truck):
    c1 = fs_harmonic(INDOT, truck, 1)
    assert c1 == pytest.approx(TRUCK_C1, rel=1e-14)
    ratio = c1 / fs_dc(INDOT, truck)
    assert ratio == pytest.approx(TRUCK_RATIO1, rel=1e-14)
    # First-harmonic relative signal power is one quarter of the DC power.
    assert np.sqrt(2.0) * ratio == pytest.approx(0.25, abs=0.005)


def test_full_demand_ratio_reduces_to_sinc_product(truck):
    ratio = fs_harmonic(INDOT, truck, 1) / fs_dc(INDOT, truck)
    assert ratio == pytest.approx(np.sinc(1.83 / D) * np.sinc(3.66 / D), rel=1e-13)


def test_constant_regime_has_no_harmonics():
    quiet = ev(1.83, 50.0)
    assert fs_harmonic(INDOT, quiet, 0) == 50.0
    np.testing.assert_array_equal(fs_harmonic(INDOT, quiet, np.arange(1, 8)), 0.0)


def test_harmonics_vanish_approaching_constant_threshold():
    base = ALPHA * (1.83 - INDOT.gap_m)
    cm = fs_harmonic(INDOT, ev(1.83, base + 1e-7), np.arange(1, 20))
    assert np.max(np.abs(cm)) < 1e-5


def test_coefficient_grid_matches_scalar_path():
    demands = np.array([110.0, 150.0, 200.0])
    m = np.arange(0, 12)
    grid = fs_harmonic_grid(INDOT, 1.83, demands, m)
    assert grid.shape == (3, 12)
    for i, p in enumerate(demands):
        np.testing.assert_allclose(grid[i], fs_harmonic(INDOT, ev(1.83, p), m), rtol=1e-14)
    flat = fs_harmonic_grid(INDOT, 1.83, np.array([40.0]), m)
    assert flat[0, 0] == 40.0
    np.testing.assert_array_equal(flat[0, 1:], 0.0)


def test_first_harmonic_dominates_the_rest():
    rng = np.random.default_rng(31)
    m = np.arange(1, 101)
    for _ in range(60):
        vehicle = draw_vehicle(rng, INDOT)
        cm = np.abs(fs_harmonic(INDOT, vehicle, m))
        assert cm[0] >= np.max(cm[1:]) - 1e-12


# --- total harmonic content ------------------------------------------------


def test_single_vehicle_thc_value(truck):
    thc = thc_single(INDOT, truck)
    assert thc == pytest.approx(TRUCK_THC, rel=1e-12)
    assert thc == pytest.approx(26.0, abs=0.2)


def test_thc_first_harmonic_only(truck):
    thc1 = thc_single(INDOT, truck, 1)
    assert thc1 == pytest.approx(TRUCK_THC_M1, rel=1e-12)
    assert thc1 == pytest.approx(25.0, abs=0.2)


def test_thc_nondecreasing_in_truncation(truck):
    values = [thc_single(INDOT, truck, m) for m in (1, 2, 5, 20, 100, 400)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_thc_zero_for_constant_load():
    assert thc_single(INDOT, ev(1.83, 50.0)) == 0.0


def test_thc_rejects_bad_truncation(truck):
    with pytest.raises(ValueError):
        thc_single(INDOT, truck, 0)


def test_auto_truncation_rule(truck):
    assert default_harmonic_count(INDOT, truck) == TRUCK_AUTO_M
    assert harmonic_count_for_dc(INDOT, TRUCK_C0) == TRUCK_AUTO_M
    assert harmonic_count_for_dc(INDOT, 0.0) == 1
    # Smaller DC needs more harmonics for the same percentage-point slack.
    assert harmonic_count_for_dc(INDOT, 20.0) > TRUCK_AUTO_M


def test_coefficient_bundle(truck):
    fc = fs_coefficients(INDOT, truck)
    assert fc.c0_kw == pytest.approx(TRUCK_C0)
    assert fc.harmonics_kw[0] == pytest.approx(TRUCK_C1)
    assert fc.truncation_m == TRUCK_AUTO_M
    assert fc.fundamental_hz == pytest.approx(24.6 / D)
    assert fs_coefficients(INDOT, truck, 3).truncation_m == 3


# --- demand-independent envelope -------------------------------------------


def test_envelope_value_and_quartering():
    b1 = harmonic_bound(INDOT, 1)
    assert b1 == pytest.approx(ALPHA * D / np.pi**2, rel=1e-14)
    assert b1 == pytest.approx(50.64, abs=5e-3)
    assert harmonic_bound(INDOT, 2) == pytest.approx(b1 / 4.0, rel=1e-14)
    np.testing.assert_allclose(
        harmonic_bound(INDOT, np.array([1, 2, 4])), b1 / np.array([1.0, 4.0, 16.0])
    )
    with pytest.raises(ValueError):
        harmonic_bound(INDOT, 0)


# --- clipping vs scaling ---------------------------------------------------


def test_clipping_ratio_regimes(truck):
    base = ALPHA * (1.83 - INDOT.gap_m)
    assert harmonic_ratio_clipping(INDOT, ev(1.83, base)) == 0.0
    r = harmonic_ratio_clipping(INDOT, ev(1.83, 150.0))
    assert r == pytest.approx(
        fs_harmonic(INDOT, ev(1.83, 150.0), 1) / fs_dc(INDOT, ev(1.83, 150.0))
    )
    assert harmonic_ratio_clipping(INDOT, truck) == pytest.approx(TRUCK_RATIO1)


@pytest.mark.parametrize("rx", [0.95, 1.83, 2.6, 3.4])
def test_clipping_ratio_nondecreasing_in_demand(rx):
    lo = max(0.0, ALPHA * (rx - INDOT.gap_m))
    demands = np.linspace(lo + 1e-9, ALPHA * rx, 1000)
    ratios = [harmonic_ratio_clipping(INDOT, ev(rx, p)) for p in demands]
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_scaling_ratio_value_and_demand_independence():
    values = {harmonic_ratio_scaling(INDOT, ev(1.83, p)) for p in (20.0, 120.0, 200.1288)}
    assert len(values) == 1
    assert values.pop() == pytest.approx(TRUCK_RATIO1, rel=1e-14)
    assert harmonic_ratio_scaling(INDOT, max_ev(1.83)) == pytest.approx(0.177, abs=2e-3)


def test_scaling_ratio_strictly_decreasing_in_receiver_length():
    lengths = np.linspace(INDOT.gap_m + 1e-3, INDOT.tx_len_m - 1e-3, 400)
    ratios = [harmonic_ratio_scaling(INDOT, max_ev(l)) for l in lengths]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_schemes_coincide_at_full_demand(truck):
    cmp = compare_schemes(INDOT, truck)
    assert cmp.lemma_applies  # coil longer than half the period
    assert cmp.clipping_ratio == pytest.approx(cmp.scaling_ratio, rel=1e-14)
    assert cmp.clipping_wins


def test_clipping_wins_outright_at_constant_threshold():
    base = ALPHA * (1.83 - INDOT.gap_m)
    cmp = compare_schemes(INDOT, ev(1.83, base))
    assert cmp.clipping_ratio == 0.0
    assert cmp.scaling_ratio > 0.0
    assert cmp.clipping_wins


def test_comparison_flagged_when_coil_shorter_than_half_period():
    wide_gap = ErConfig(
        tx_len_m=2.0, gap_m=2.5, power_density_kw_per_m=100.0, segment_len_m=45.0
    )
    cmp = compare_schemes(wide_gap, EvParams(1.5, 150.0, 20.0))
    assert not cmp.lemma_applies
    assert cmp.clipping_ratio >= 0.0 and cmp.scaling_ratio >= 0.0
