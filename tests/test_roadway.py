"""Geometry, validation, and single-vehicle waveforms in position and time."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwptload import (
    INDOT,
    Clipping,
    ConstantRegimeError,
    ErConfig,
    EvParams,
    Scaling,
    coil_pulse,
    constant_regime,
    fs_harmonic,
    load_at_position,
    load_at_time,
)
from dwptload.invariants import draw_vehicle
from oracles import divided_pulse_at_expression, overlap_load

ALPHA = INDOT.power_density_kw_per_m


def ev(rx, demand, speed=24.6, entry=0.0):
    return EvParams(rx_len_m=rx, peak_demand_kw=demand, speed_mps=speed, entry_time_s=entry)


def max_ev(rx, speed=24.6):
    return ev(rx, ALPHA * rx, speed)


# --- configuration and parameter types ------------------------------------


def test_segment_geometry_derived_quantities():
    assert INDOT.period_m == pytest.approx(4.57)
    assert INDOT.n_coils == 875
    assert INDOT.energized_len_m == pytest.approx(875 * 4.57)
    # The pulse's two power levels: a float for a float, an array for an array.
    assert INDOT.full_kw(1.83) == ALPHA * 1.83
    assert INDOT.floor_kw(1.83) == ALPHA * (1.83 - INDOT.gap_m)
    assert INDOT.floor_kw(0.58) == 0.0 and INDOT.floor_kw(INDOT.gap_m) == 0.0
    assert type(INDOT.full_kw(1.83)) is float and type(INDOT.floor_kw(0.58)) is float
    rx = np.array([0.58, 1.83])
    np.testing.assert_array_equal(INDOT.full_kw(rx), [INDOT.full_kw(r) for r in rx.tolist()])
    np.testing.assert_array_equal(INDOT.floor_kw(rx), [INDOT.floor_kw(r) for r in rx.tolist()])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(tx_len_m=0.0, gap_m=0.91, power_density_kw_per_m=109.36, segment_len_m=4000.0),
        dict(tx_len_m=3.66, gap_m=0.0, power_density_kw_per_m=109.36, segment_len_m=4000.0),
        dict(tx_len_m=3.66, gap_m=0.91, power_density_kw_per_m=0.0, segment_len_m=4000.0),
        dict(tx_len_m=3.66, gap_m=0.91, power_density_kw_per_m=109.36, segment_len_m=4.0),
    ],
)
def test_bad_roadway_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        ErConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rx_len_m=0.0, peak_demand_kw=100.0, speed_mps=24.6),
        dict(rx_len_m=1.83, peak_demand_kw=-1.0, speed_mps=24.6),
        dict(rx_len_m=1.83, peak_demand_kw=100.0, speed_mps=0.0),
    ],
)
def test_bad_vehicle_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        EvParams(**kwargs)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize("field", ["tx_len_m", "gap_m", "power_density_kw_per_m", "segment_len_m"])
def test_non_finite_roadway_parameters_rejected(field, value):
    kwargs = dict(tx_len_m=3.66, gap_m=0.91, power_density_kw_per_m=109.36, segment_len_m=4000.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ErConfig(**kwargs)


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
@pytest.mark.parametrize("field", ["rx_len_m", "peak_demand_kw", "speed_mps", "entry_time_s"])
def test_non_finite_vehicle_parameters_rejected(field, value):
    kwargs = dict(rx_len_m=1.83, peak_demand_kw=100.0, speed_mps=24.6, entry_time_s=0.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        EvParams(**kwargs)


def test_cross_validation_against_roadway():
    with pytest.raises(ValueError):
        ev(5.0, 100.0).validate_against(INDOT)  # receiver longer than a coil
    with pytest.raises(ValueError):
        ev(1.83, ALPHA * 1.83 + 1.0).validate_against(INDOT)  # undeliverable demand
    # Receivers shorter than the inter-coil gap are legitimate (the load
    # simply dips to zero inside the gap); they must validate cleanly.
    ev(0.58, 60.0).validate_against(INDOT)
    ev(INDOT.gap_m, 90.0).validate_against(INDOT)


def test_fundamental_and_dwell_accessors():
    truck = max_ev(1.83)
    assert truck.fundamental_hz(INDOT) == pytest.approx(24.6 / 4.57, rel=1e-14)
    assert truck.fundamental_hz(INDOT) == pytest.approx(5.382932166301969)
    assert truck.period_s(INDOT) == pytest.approx(4.57 / 24.6, rel=1e-14)
    assert truck.omega0(INDOT) == pytest.approx(2 * np.pi * 5.382932166301969)
    assert truck.dwell_s(INDOT) == pytest.approx(3998.75 / 24.6)
    assert max_ev(1.83, 21.7).fundamental_hz(INDOT) == pytest.approx(4.7483588621444195)
    assert max_ev(1.7, 29.0).fundamental_hz(INDOT) == pytest.approx(6.345733041575492)


@pytest.mark.parametrize("factor", [0.0, -0.2, 1.2])
def test_scaling_factor_range_enforced(factor):
    with pytest.raises(ValueError):
        Scaling(factor)


# --- constant-load regime threshold ---------------------------------------


def test_constant_regime_threshold():
    threshold = ALPHA * (1.83 - INDOT.gap_m)
    assert constant_regime(INDOT, ev(1.83, threshold))
    assert constant_regime(INDOT, ev(1.83, 50.0))
    assert constant_regime(INDOT, ev(1.83, 0.0))
    assert not constant_regime(INDOT, ev(1.83, threshold + 1e-9))
    # A receiver shorter than the gap is periodically fully uncoupled, so
    # any positive demand produces ripple.
    assert not constant_regime(INDOT, ev(0.58, 1.0))
    assert constant_regime(INDOT, ev(0.58, 0.0))
    # The regime and the spectrum read one threshold: on either side of the
    # gap the load is constant exactly when every harmonic is +0.0.  A
    # trapezoid of zero ramp gives zeros too, signed as its sines are, so
    # the sign bit tells the two apart where == 0 does not.
    for rx in (0.58, 1.83):
        floor = INDOT.floor_kw(rx)
        for demand in (0.0, floor, float(np.nextafter(floor, np.inf)), INDOT.full_kw(rx)):
            vehicle = ev(rx, demand)
            cm = fs_harmonic(INDOT, vehicle, np.arange(1, 9))
            flat = not np.any(cm) and not np.any(np.signbit(cm))
            assert constant_regime(INDOT, vehicle) == flat, (rx, demand)


# --- the single-period pulse ----------------------------------------------


def test_pulse_trough_value_at_full_demand():
    # Minimum-overlap position: only rx_len - gap meters of coil coupled.
    assert coil_pulse(INDOT, max_ev(1.83), 0.0) == pytest.approx(109.36 * 0.92)
    assert coil_pulse(INDOT, max_ev(1.83), 0.0) == pytest.approx(100.61, abs=5e-3)


def test_pulse_plateau_value_at_full_demand():
    assert coil_pulse(INDOT, max_ev(1.83), 1.83) == pytest.approx(109.36 * 1.83)
    assert coil_pulse(INDOT, max_ev(1.83), 1.83) == pytest.approx(200.13, abs=5e-3)


def test_pulse_rising_and_falling_branches():
    v = max_ev(1.83)
    assert coil_pulse(INDOT, v, 1.2) == pytest.approx(ALPHA * 1.2)
    assert coil_pulse(INDOT, v, 4.0) == pytest.approx(ALPHA * (1.83 + 3.66 - 4.0))


def test_pulse_near_constant_threshold_is_almost_flat():
    base = ALPHA * (1.83 - INDOT.gap_m)
    vehicle = ev(1.83, base + 1e-6)
    x = np.linspace(0.0, INDOT.period_m, 8001, endpoint=False)
    g = coil_pulse(INDOT, vehicle, x)
    assert np.min(g) == pytest.approx(base, rel=1e-9)
    assert np.max(g) - np.min(g) <= 1e-6 + 1e-12
    # The plateau spans all but a vanishing fraction of the period.
    assert np.mean(np.isclose(g, base + 1e-6)) > 0.999


def test_pulse_domain_and_regime_errors():
    with pytest.raises(ValueError):
        coil_pulse(INDOT, max_ev(1.83), -0.1)
    with pytest.raises(ValueError):
        coil_pulse(INDOT, max_ev(1.83), INDOT.period_m)
    with pytest.raises(ConstantRegimeError):
        coil_pulse(INDOT, ev(1.83, 50.0), 1.0)


def test_pulse_min_max_and_continuity():
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, INDOT.period_m, 20001, endpoint=False)
    dx = x[1] - x[0]
    for _ in range(25):
        vehicle = draw_vehicle(rng, INDOT)
        g = coil_pulse(INDOT, vehicle, x)
        lo = max(0.0, ALPHA * (vehicle.rx_len_m - INDOT.gap_m))
        assert np.min(g) == pytest.approx(lo, abs=ALPHA * dx)
        assert np.max(g) == pytest.approx(vehicle.peak_demand_kw, abs=ALPHA * dx)
        # Continuous waveform: no step can exceed the ramp slope alpha.
        jumps = np.abs(np.diff(g))
        wrap = abs(g[0] - g[-1])
        assert max(np.max(jumps), wrap) <= ALPHA * dx * (1 + 1e-9)


def test_pulse_even_symmetry_about_plateau_center():
    rng = np.random.default_rng(11)
    for _ in range(20):
        vehicle = draw_vehicle(rng, INDOT)
        center = (vehicle.rx_len_m + INDOT.tx_len_m) / 2.0
        delta = np.linspace(0.0, min(center, INDOT.period_m - center) - 1e-9, 300)
        left = coil_pulse(INDOT, vehicle, center - delta)
        right = coil_pulse(INDOT, vehicle, center + delta)
        np.testing.assert_allclose(left, right, rtol=0, atol=1e-9)


def test_pulse_short_receiver_dips_to_zero():
    vehicle = max_ev(0.58)
    x = np.linspace(0.58 + INDOT.tx_len_m, INDOT.period_m, 200, endpoint=False)
    np.testing.assert_array_equal(coil_pulse(INDOT, vehicle, x), 0.0)
    assert coil_pulse(INDOT, vehicle, 0.3) == pytest.approx(ALPHA * 0.3)


def test_pulse_gap_length_receiver_touches_zero():
    vehicle = max_ev(INDOT.gap_m)
    assert coil_pulse(INDOT, vehicle, 0.0) == 0.0


def test_pulse_matches_geometric_overlap_oracle():
    """The piecewise formula must reproduce a from-scratch coil-overlap
    computation (cumulative coil length under the receiver, capped at the
    demand) for receivers travelling deep inside the array."""
    rng = np.random.default_rng(42)
    xm = np.linspace(0.0, INDOT.period_m, 977, endpoint=False)
    for _ in range(40):
        vehicle = draw_vehicle(rng, INDOT)
        got = coil_pulse(INDOT, vehicle, xm)
        want = overlap_load(INDOT, vehicle, 10 * INDOT.period_m + xm)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


# --- load versus roadway position -----------------------------------------


def test_low_demand_gives_constant_load_on_segment():
    vehicle = ev(1.83, 50.0)
    x = np.linspace(0.0, INDOT.energized_len_m, 5000, endpoint=False)
    np.testing.assert_array_equal(load_at_position(INDOT, vehicle, Clipping(), x), 50.0)


def test_load_zero_outside_energized_span():
    vehicle = max_ev(1.83)
    span = INDOT.energized_len_m
    for x in (-1.0, -1e-9, span, span + 1.0, INDOT.segment_len_m + 5.0):
        assert load_at_position(INDOT, vehicle, Clipping(), x) == 0.0


@pytest.mark.parametrize("scheme", [Clipping(), Scaling(0.6)])
@pytest.mark.parametrize("rx", [0.5, 1.83])  # shorter / longer than the gap
def test_load_at_period_and_span_edges(scheme, rx):
    vehicle = ev(rx, 0.9 * ALPHA * rx)
    at_start = load_at_position(INDOT, vehicle, scheme, 0.0)
    # Every whole period k*D and one ulp either side: the phase in periods
    # may round to 0 or to 1 there, and both must give the start value.
    kd = np.arange(1, INDOT.n_coils) * INDOT.period_m
    for x in (np.nextafter(kd, -np.inf), kd, np.nextafter(kd, np.inf)):
        got = load_at_position(INDOT, vehicle, scheme, x)
        np.testing.assert_allclose(got, at_start, rtol=0, atol=1e-9 * ALPHA * rx)
    end = INDOT.energized_len_m
    last = load_at_position(INDOT, vehicle, scheme, np.nextafter(end, -np.inf))
    assert last == pytest.approx(at_start, rel=0, abs=1e-9 * ALPHA * rx)
    for x in (end, np.nextafter(end, np.inf), end + INDOT.period_m):
        assert load_at_position(INDOT, vehicle, scheme, x) == 0.0


def test_load_is_periodic_along_the_array():
    vehicle = max_ev(1.83)
    x = np.linspace(0.0, (INDOT.n_coils - 1) * INDOT.period_m, 4001, endpoint=False)
    a = load_at_position(INDOT, vehicle, Clipping(), x)
    b = load_at_position(INDOT, vehicle, Clipping(), x + INDOT.period_m)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


def test_load_reduces_to_pulse_within_one_period():
    rng = np.random.default_rng(3)
    xm = np.linspace(0.0, INDOT.period_m, 501, endpoint=False)
    for _ in range(10):
        vehicle = draw_vehicle(rng, INDOT)
        got = load_at_position(INDOT, vehicle, Clipping(), 7 * INDOT.period_m + xm)
        np.testing.assert_allclose(got, coil_pulse(INDOT, vehicle, xm), atol=1e-9)


def test_scaling_is_proportional_to_max_power_waveform():
    vehicle = ev(1.83, 120.0)
    x = np.linspace(0.0, 3 * INDOT.period_m, 1200)
    full = load_at_position(INDOT, max_ev(1.83), Clipping(), x)
    half = load_at_position(INDOT, vehicle, Scaling(0.5), x)
    tenth = load_at_position(INDOT, vehicle, Scaling(0.1), x)
    np.testing.assert_allclose(half, 0.5 * full, atol=1e-9)
    np.testing.assert_allclose(half, 5.0 * tenth, atol=1e-9)


def test_clipping_never_exceeds_demand_or_available_power():
    rng = np.random.default_rng(19)
    x = np.linspace(0.0, 2 * INDOT.period_m, 2000)
    for _ in range(25):
        vehicle = draw_vehicle(rng, INDOT)
        clipped = load_at_position(INDOT, vehicle, Clipping(), x)
        available = load_at_position(INDOT, max_ev(vehicle.rx_len_m), Clipping(), x)
        assert np.all(clipped <= vehicle.peak_demand_kw + 1e-9)
        assert np.all(clipped <= available + 1e-9)


def test_full_demand_clipping_coincides_with_scaling_at_unity():
    x = np.linspace(0.0, 2 * INDOT.period_m, 2000)
    clipped = load_at_position(INDOT, max_ev(1.83), Clipping(), x)
    scaled = load_at_position(INDOT, max_ev(1.83), Scaling(1.0), x)
    np.testing.assert_allclose(clipped, scaled, atol=1e-12)


# --- load versus time ------------------------------------------------------


def test_no_load_before_entry_or_after_exit():
    vehicle = ev(1.83, ALPHA * 1.83, entry=10.0)
    exit_time = 10.0 + vehicle.dwell_s(INDOT)
    t = np.array([0.0, 9.999, exit_time, exit_time + 50.0])
    np.testing.assert_array_equal(load_at_time(INDOT, vehicle, Clipping(), t), 0.0)
    assert load_at_time(INDOT, vehicle, Clipping(), 10.5) > 0.0


def test_time_and_position_paths_agree():
    vehicle = max_ev(1.83)
    t = np.linspace(0.0, 30.0, 4001)
    by_time = load_at_time(INDOT, vehicle, Clipping(), t)
    by_position = load_at_position(INDOT, vehicle, Clipping(), 24.6 * t)
    np.testing.assert_array_equal(by_time, by_position)


def test_load_periodic_in_time_while_on_segment():
    vehicle = max_ev(1.83)
    period = vehicle.period_s(INDOT)
    assert period == pytest.approx(0.18577, abs=5e-6)
    t = np.linspace(5.0, 100.0, 3001)
    a = load_at_time(INDOT, vehicle, Clipping(), t)
    b = load_at_time(INDOT, vehicle, Clipping(), t + period)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-6)


# --- the pulse at segment positions -----------------------------------------


def below_whole_periods(period: float, ks) -> list[float]:
    """Positions just below ``k`` whole periods whose phase
    ``x * (1 / period)`` rounds up to ``k``, so that the in-period position
    is 0, not ~period."""
    found = []
    for k in ks:
        x = k * period
        for _ in range(4):
            x = float(np.nextafter(x, -np.inf))
            if x * (1.0 / period) == k:
                found.append(x)
    return found


@st.composite
def kernel_cases(draw):
    """Random geometry, a receiver shorter or longer than the gap, a demand
    in the constant regime, at full power or in between, and positions on,
    next to and just below whole periods, or anywhere."""
    tx = draw(st.floats(0.5, 6.0))
    gap = draw(st.floats(0.05, 3.0))
    cfg = ErConfig(tx, gap, draw(st.floats(1.0, 500.0)), 100 * (tx + gap))
    if np.nextafter(gap, np.inf) < tx and draw(st.booleans()):
        rx = draw(st.floats(gap, tx, exclude_min=True, exclude_max=True))
    else:
        rx = min(gap, tx) * draw(st.floats(0.01, 0.99))
    alpha = cfg.power_density_kw_per_m
    floor_kw = alpha * max(rx - gap, 0.0)
    kind = draw(st.sampled_from(["constant", "full", "between"]))
    share = draw(st.floats(0.0, 1.0))
    demand = {
        "constant": floor_kw * share,
        "full": alpha * rx,
        "between": floor_kw + (alpha * rx - floor_kw) * share,
    }[kind]
    period = cfg.period_m
    ks = st.integers(-3, 80)
    position = st.one_of(
        st.floats(-3 * period, 80 * period),
        ks.map(lambda k: k * period),
        st.tuples(ks, st.integers(-3, 3)).map(
            lambda kd: float(kd[0] * period + kd[1] * np.spacing(kd[0] * period))
        ),
    )
    x = draw(st.lists(position, min_size=1, max_size=40))
    x += below_whole_periods(period, draw(st.lists(ks, max_size=4)))
    return cfg, rx, demand, np.array(x)


def clipping_load(cfg: ErConfig, rx: float, demand: float, x: np.ndarray) -> np.ndarray:
    return load_at_position(cfg, ev(rx, demand), Clipping(), x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kernel_cases())
def test_pulse_kernel_within_rounding_of_the_divided_chain(case):
    """The load and the chain the package once evaluated (``x / D``,
    ``* D``, ``* alpha``) are one continuous, periodic pulse of slope at
    most ``alpha`` per metre, so on the segment they differ by at most
    ``alpha D`` times their phase errors plus the roundings after the
    phase, each at most ``eps = 2^-53`` times ``alpha D``.  The phase
    ``|x| / D`` takes one rounding there and two here, so the fractional
    phases are within ``3 eps |x| / D`` of each other on the circle.
    After it the old chain rounds ``(u - floor u) D``, ``tx + rx``, the
    difference and the product by alpha (6 eps alpha D, the span being
    below ``2 D``), and the load ``(u - floor u) D``, the kink (two for
    ``min(tx + rx, D)``), the difference, the product by alpha, the base
    (two) and the sum (8 eps alpha D); a phase that wraps in one chain and
    not the other adds at most 2 eps alpha D.  Both clip to the same
    bounds."""
    cfg, rx, demand, x = case
    alpha_period = cfg.power_density_kw_per_m * cfg.period_m
    got = clipping_load(cfg, rx, demand, x)
    on = x >= 0  # the segment is 100 periods, longer than any position
    old = np.where(on, divided_pulse_at_expression(cfg, rx, demand, x), 0.0)
    bound = 2.0**-53 * alpha_period * (3.0 * np.abs(x) / cfg.period_m + 16.0)
    assert np.all(np.abs(got - old) <= bound)
    if demand <= cfg.power_density_kw_per_m * max(rx - cfg.gap_m, 0.0):
        assert np.all(got[on] == demand) and np.all(old[on] == demand)


def test_positions_rounding_up_to_a_whole_period_take_the_pulse_at_zero():
    period = INDOT.period_m
    x = np.array(below_whole_periods(period, range(1, 400)))
    assert x.size > 0
    assert np.all(x < np.round(x / period) * period)
    at_zero = coil_pulse(INDOT, ev(0.5, 30.0), 0.0)
    assert np.all(clipping_load(INDOT, 0.5, 30.0, x) == at_zero)
