"""Closed-form Fourier coefficients, THC, bounds, and scheme comparison.

Every coefficient here is a value of :func:`fs_harmonic`; the
first-harmonic ratio ``|c_1| / c_0`` under scaling control is that of the
full-demand waveform, which the converter scales down.

The identities checked on random draws (closed form against quadrature,
the envelope, clipping against scaling, Parseval) are in
:mod:`dwptload.invariants`; ``tests/test_invariants.py`` runs them on
random geometry.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dwptload import (
    INDOT,
    Clipping,
    ErConfig,
    EvClass,
    EvParams,
    FleetModel,
    MaxDemand,
    Scaling,
    analytic_psd,
    coil_pulse,
    fs_harmonic,
    fs_harmonic_grid,
    harmonic_bound,
    harmonic_count_for_dc,
    load_at_position,
    spectrum,
    thc_single,
    thc_total,
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


def ratio1(vehicle):
    """|c_1| / c_0 of one vehicle under clipping control."""
    c = fs_harmonic(INDOT, vehicle, np.arange(2))
    return abs(c[1]) / c[0]


def sampled_ratio1(vehicle, scheme, n=2**12):
    """|c_1| / c_0 by the DFT of the load sampled at ``n`` midpoints of one
    period in the middle of the energized span: within 1e-8 of the
    closed form on a 1.83 m receiver."""
    x = D * (INDOT.n_coils // 2) + (np.arange(n) + 0.5) * (D / n)
    c = np.fft.rfft(load_at_position(INDOT, vehicle, scheme, x))[:2] / n
    return abs(c[1]) / c[0].real


# --- DC coefficient --------------------------------------------------------


def test_dc_value_at_full_demand(truck):
    assert fs_harmonic(INDOT, truck, 0) == pytest.approx(ALPHA * 1.83 * 3.66 / 4.57, rel=1e-14)
    assert fs_harmonic(INDOT, truck, 0) == pytest.approx(TRUCK_C0, rel=1e-14)
    assert fs_harmonic(INDOT, truck, 0) == pytest.approx(160.28, abs=5e-3)


def test_dc_constant_load_limit():
    base = ALPHA * (1.83 - INDOT.gap_m)
    assert fs_harmonic(INDOT, ev(1.83, base), 0) == base  # constant regime: mean = demand
    assert fs_harmonic(INDOT, ev(1.83, base + 1e-9), 0) == pytest.approx(base, rel=1e-9)


def test_dc_matches_waveform_mean():
    """Closed form vs midpoint-rule mean of the sampled pulse, rel < 1e-10."""
    rng = np.random.default_rng(5)
    x = (np.arange(200_000) + 0.5) * (D / 200_000)
    for _ in range(10):
        vehicle = draw_vehicle(rng, INDOT)
        mean = float(np.mean(coil_pulse(INDOT, vehicle, x)))
        assert fs_harmonic(INDOT, vehicle, 0) == pytest.approx(mean, rel=1e-10)


def test_dc_bounded_by_full_demand_value():
    rng = np.random.default_rng(6)
    for _ in range(50):
        vehicle = draw_vehicle(rng, INDOT)
        cap = ALPHA * vehicle.rx_len_m * INDOT.tx_len_m / D
        assert 0.0 < fs_harmonic(INDOT, vehicle, 0) <= cap * (1 + 1e-12)


# --- harmonic coefficients -------------------------------------------------


def test_first_harmonic_and_remark_ratio(truck):
    c1 = fs_harmonic(INDOT, truck, 1)
    assert c1 == pytest.approx(TRUCK_C1, rel=1e-14)
    ratio = c1 / fs_harmonic(INDOT, truck, 0)
    assert ratio == pytest.approx(TRUCK_RATIO1, rel=1e-14)
    # First-harmonic relative signal power is one quarter of the DC power.
    assert np.sqrt(2.0) * ratio == pytest.approx(0.25, abs=0.005)


def test_full_demand_ratio_reduces_to_sinc_product(truck):
    ratio = fs_harmonic(INDOT, truck, 1) / fs_harmonic(INDOT, truck, 0)
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
    assert harmonic_count_for_dc(INDOT, fs_harmonic(INDOT, truck, 0)) == TRUCK_AUTO_M
    assert harmonic_count_for_dc(INDOT, TRUCK_C0) == TRUCK_AUTO_M
    assert harmonic_count_for_dc(INDOT, 0.0) == 1
    # Smaller DC needs more harmonics for the same percentage-point slack.
    assert harmonic_count_for_dc(INDOT, 20.0) > TRUCK_AUTO_M
    # Too many for a float: the rule divided by zero (5e-324) or took
    # int(inf) (1e-160).
    for dc in (5e-324, 1e-160):
        with pytest.raises(ValueError, match=f"^dc_kw {dc} is too small for the tail rule"):
            harmonic_count_for_dc(INDOT, dc)


def test_tail_rule_above_the_limit_is_refused(monkeypatch, truck):
    # Without a count, the truck's tail rule asks for 189 harmonics; above
    # the limit it is refused before anything of that size is allocated.
    monkeypatch.setattr(spectrum, "MAX_HARMONICS", 12)
    refusal = (
        rf"^dc_kw 160\.278207439824\d+ needs {TRUCK_AUTO_M} harmonics by the tail rule, "
        "above the limit of 12; give a harmonic count$"
    )
    model = FleetModel(INDOT, (EvClass(1.83, 1.0, MaxDemand()),), 45, 24.6)
    for compute, of in ((thc_single, (INDOT, truck)), (thc_total, (model,)), (analytic_psd, (model,))):
        with pytest.raises(ValueError, match=refusal):
            compute(*of)
        compute(*of, TRUCK_AUTO_M + 1)  # a given count is not the rule's
    monkeypatch.setattr(spectrum, "MAX_HARMONICS", TRUCK_AUTO_M)
    assert thc_single(INDOT, truck) == thc_single(INDOT, truck, TRUCK_AUTO_M)
    assert thc_total(model) == thc_total(model, TRUCK_AUTO_M)


def test_coefficient_row(truck):
    row = fs_harmonic(INDOT, truck, np.arange(TRUCK_AUTO_M + 1))
    assert row.shape == (TRUCK_AUTO_M + 1,)
    assert row[0] == pytest.approx(TRUCK_C0, rel=1e-14)
    assert row[1] == pytest.approx(TRUCK_C1, rel=1e-14)
    thc = 100.0 * np.sqrt(2.0 * np.sum(row[1:] ** 2)) / row[0]
    assert thc == pytest.approx(thc_single(INDOT, truck), rel=1e-14)
    assert truck.fundamental_hz(INDOT) == pytest.approx(24.6 / D)


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


@given(
    cfg=st.sampled_from([INDOT, ErConfig(1.0, 0.3, 55.0, 500.0), ErConfig(6.0, 2.5, 80.0, 2000.0)]),
    ms=st.lists(st.integers(1, 20_000), min_size=1, max_size=40),
)
@example(cfg=INDOT, ms=[2207, 4414, 8828, 12329])  # where squaring by pow differed
def test_scalar_bound_is_the_element_of_the_array_call(cfg, ms):
    # `spectrum` writes its bound column from one array call; each entry
    # is the bound of that m alone.
    assert [harmonic_bound(cfg, m) for m in ms] == harmonic_bound(cfg, np.array(ms)).tolist()


# --- clipping vs scaling ---------------------------------------------------


def test_clipping_ratio_regimes(truck):
    base = ALPHA * (1.83 - INDOT.gap_m)
    assert ratio1(ev(1.83, base)) == 0.0
    assert ratio1(ev(1.83, 150.0)) == pytest.approx(sampled_ratio1(ev(1.83, 150.0), Clipping()))
    assert ratio1(truck) == pytest.approx(TRUCK_RATIO1, rel=1e-14)


@pytest.mark.parametrize("rx", [0.95, 1.83, 2.6, 3.4])
def test_clipping_ratio_nondecreasing_in_demand(rx):
    lo = max(0.0, ALPHA * (rx - INDOT.gap_m))
    demands = np.linspace(lo + 1e-9, ALPHA * rx, 1000)
    c = fs_harmonic_grid(INDOT, rx, demands, np.arange(2))
    ratios = np.abs(c[:, 1]) / c[:, 0]
    assert np.all(np.diff(ratios) >= -1e-12)


def test_scaling_ratio_value_and_demand_independence():
    # The scaled waveform at any factor has the full-demand ratio.
    values = [sampled_ratio1(ev(1.83, f * ALPHA * 1.83), Scaling(f)) for f in (0.1, 0.55, 1.0)]
    np.testing.assert_allclose(values, values[-1], rtol=1e-12)
    assert values[-1] == pytest.approx(ratio1(max_ev(1.83)), rel=1e-7)
    assert ratio1(max_ev(1.83)) == pytest.approx(TRUCK_RATIO1, rel=1e-14)
    assert ratio1(max_ev(1.83)) == pytest.approx(0.177, abs=2e-3)


def test_scaling_ratio_strictly_decreasing_in_receiver_length():
    lengths = np.linspace(INDOT.gap_m + 1e-3, INDOT.tx_len_m - 1e-3, 400)
    ratios = [ratio1(max_ev(l)) for l in lengths]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_schemes_coincide_at_full_demand(truck):
    assert INDOT.tx_len_m > D / 2  # coil longer than half the period
    clipped = sampled_ratio1(truck, Clipping())
    assert clipped == pytest.approx(sampled_ratio1(truck, Scaling(1.0)), rel=1e-14)
    assert clipped == pytest.approx(ratio1(truck), rel=1e-7)


def test_clipping_wins_outright_at_constant_threshold():
    base = ALPHA * (1.83 - INDOT.gap_m)
    assert ratio1(ev(1.83, base)) == 0.0
    assert ratio1(max_ev(1.83)) > 0.0
