"""Mixture moments, analytical line spectrum, aggregate THC, composition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from test_ensemble_oracles import fleets

from dwptload import (
    INDOT,
    EvClass,
    EvParams,
    FleetModel,
    MaxDemand,
    UniformExplicit,
    UniformOnRange,
    analytic_psd,
    class_moments,
    coil_pulse,
    composition_boundary,
    composition_condition,
    demand_bounds,
    fs_harmonic,
    fs_harmonic_grid,
    harmonic_bound,
    mixture_moments,
    q_ratio,
    sample_demand,
    thc_single,
    thc_total,
)
from oracles import (
    max_demand_harmonic_power, scalar_class_moments, scalar_mixture_moments, uniform_moment_quad,
)

ALPHA = INDOT.power_density_kw_per_m
D = INDOT.period_m

# Oracle-computed flip point of the composition criterion for a 1.83 m
# long-receiver class (sign-scan plus bisection; see also the boundary
# bracketing test below).
BOUNDARY_183 = 1.5629558701939188


def single(rx, dist, n=1, speed=24.6):
    return FleetModel(INDOT, (EvClass(rx, 1.0, dist),), n, speed)


def truck_ev(rx=1.83):
    return EvParams(rx, ALPHA * rx, 24.6)


# --- demand distributions --------------------------------------------------


def test_demand_bounds_by_distribution():
    assert demand_bounds(MaxDemand(), INDOT, 1.83) == (ALPHA * 1.83, ALPHA * 1.83)
    lo, hi = demand_bounds(UniformOnRange(), INDOT, 1.83)
    assert lo == pytest.approx(ALPHA * (1.83 - INDOT.gap_m))
    assert hi == pytest.approx(ALPHA * 1.83)
    # Short receivers have no positive constant-load band to exclude.
    assert demand_bounds(UniformOnRange(), INDOT, 0.58) == (0.0, pytest.approx(ALPHA * 0.58))
    assert demand_bounds(UniformExplicit(40.0, 90.0), INDOT, 1.83) == (40.0, 90.0)


def test_explicit_interval_validation():
    with pytest.raises(ValueError):
        UniformExplicit(-1.0, 50.0)
    with pytest.raises(ValueError):
        UniformExplicit(90.0, 40.0)


def test_sample_demand_respects_support():
    rng = np.random.default_rng(0)
    assert sample_demand(MaxDemand(), rng, INDOT, 1.83) == pytest.approx(ALPHA * 1.83)
    lo, hi = demand_bounds(UniformOnRange(), INDOT, 1.83)
    draws = [sample_demand(UniformOnRange(), rng, INDOT, 1.83) for _ in range(200)]
    assert all(lo <= d <= hi for d in draws)
    assert np.std(draws) > 0


# --- model validation ------------------------------------------------------


def test_fleet_model_validation():
    good = EvClass(1.83, 0.5, MaxDemand())
    with pytest.raises(ValueError):
        FleetModel(INDOT, (good, EvClass(1.2, 0.4, MaxDemand())), 10, 24.6)  # probs != 1
    with pytest.raises(ValueError):
        FleetModel(INDOT, (), 10, 24.6)
    with pytest.raises(ValueError):
        FleetModel(INDOT, (EvClass(1.83, 1.0, MaxDemand()),), 0, 24.6)
    with pytest.raises(ValueError):
        FleetModel(INDOT, (EvClass(5.0, 1.0, MaxDemand()),), 10, 24.6)  # rx > coil
    with pytest.raises(ValueError):
        # Explicit demand interval exceeds what the receiver can draw.
        FleetModel(INDOT, (EvClass(1.2, 1.0, UniformExplicit(0.0, 500.0)),), 10, 24.6)
    with pytest.raises(ValueError):
        EvClass(1.83, 1.4, MaxDemand())


def test_member_builds_vehicles():
    fm = FleetModel(INDOT, (EvClass(1.83, 1.0, MaxDemand(), "truck"),), 10, 21.7)
    m = fm.member(0, 150.0, entry_time_s=3.0)
    assert (m.rx_len_m, m.peak_demand_kw, m.speed_mps) == (1.83, 150.0, 21.7)
    assert m.class_id == "truck"
    assert fm.fundamental_hz == pytest.approx(21.7 / D)


# --- class-conditional moments ---------------------------------------------


def test_full_demand_class_is_degenerate():
    fm = single(1.83, MaxDemand())
    e0, e0sq = class_moments(fm, 0, 0)
    assert e0 == pytest.approx(160.28, abs=5e-3)
    assert e0sq == pytest.approx(e0 * e0, rel=1e-14)  # zero demand variance
    e0_again, e1sq = class_moments(fm, 0, 1)
    c1 = fs_harmonic(INDOT, truck_ev(), 1)
    assert e0_again == e0
    assert e1sq == pytest.approx(c1 * c1, rel=1e-14)
    with pytest.raises(ValueError):
        class_moments(fm, 0, -1)


def test_zero_width_uniform_collapses_to_point_mass():
    point = single(1.83, UniformExplicit(150.0, 150.0))
    e0, e1sq = class_moments(point, 0, 1)
    ref = EvParams(1.83, 150.0, 24.6)
    assert e0 == pytest.approx(fs_harmonic(INDOT, ref, 0), rel=1e-14)
    assert e1sq == pytest.approx(fs_harmonic(INDOT, ref, 1) ** 2, rel=1e-14)
    # Narrow-but-finite intervals converge to the same values.
    narrow = single(1.83, UniformExplicit(150.0 - 1e-7, 150.0))
    e0n, e1n = class_moments(narrow, 0, 1)
    assert e0n == pytest.approx(e0, rel=1e-8)
    assert e1n == pytest.approx(e1sq, rel=1e-6)


@pytest.mark.parametrize("m", [1, 2])
def test_uniform_demand_moments_match_monte_carlo(m):
    """Quadrature E[c_m^2] vs a 10^6-sample mean, within 3 standard errors."""
    fm = single(1.83, UniformOnRange())
    _, quad_val = class_moments(fm, 0, m)
    lo, hi = demand_bounds(UniformOnRange(), INDOT, 1.83)
    rng = np.random.default_rng(2024)
    demands = rng.uniform(lo, hi, size=1_000_000)
    sq = fs_harmonic_grid(INDOT, 1.83, demands, np.array([m]))[:, 0] ** 2
    se = float(np.std(sq, ddof=1) / np.sqrt(sq.size))
    assert abs(quad_val - float(np.mean(sq))) <= 3.0 * se


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fleets())
def test_moments_over_an_array_of_m_match_the_scalar_loop(model):
    """One call over m = 0..64 against the closed-form oracle, one scalar
    call per m.  Against 40-digit values of the closed form both stayed
    within ~200 eps (alpha D / (m pi)^2)^2 of E[c_m^2] for m <= 64, and
    within 5 eps of c_0's moments, relative.  Over 2,000 random uniform
    classes they differed by at most 3.7 eps m (alpha D / (m pi)^2)^2 and
    4.8 eps relative (point classes are equal); the bounds are
    8 eps m (alpha D / (m pi)^2)^2 and 16 eps."""
    m = np.arange(65)
    eps = np.finfo(float).eps
    atol = 8 * eps * m[1:] * harmonic_bound(model.cfg, m[1:]) ** 2
    pairs = [(class_moments, scalar_class_moments, (model, g)) for g in range(len(model.classes))]
    pairs.append((mixture_moments, scalar_mixture_moments, (model,)))
    for moments, oracle, args in pairs:
        e0, e2 = moments(*args, m)
        want = [oracle(*args, k) for k in m.tolist()]
        assert e2.shape == m.shape
        assert all(abs(e0 - w0) <= 16 * eps * w0 for w0, _ in want)
        assert abs(e2[0] - want[0][1]) <= 16 * eps * want[0][1]
        assert np.all(np.abs(e2[1:] - [w2 for _, w2 in want[1:]]) <= atol)
        # An int m gives floats, from panels of its own.
        got0, got7 = moments(*args, 7)
        assert type(got0) is float and type(got7) is float
        assert abs(got0 - e0) <= 16 * eps * e0 and abs(got7 - want[7][1]) <= atol[6]


@pytest.mark.parametrize("hi", [6e-6, 1e-3, 1.0])
def test_small_uniform_demand_moments_match_quadrature_oracle(hi):
    """Moments of demands uniform on [0, hi] kW against adaptive quadrature,
    relative to each moment, within the 1e-11 the oracle asks of scipy
    (measured: 2e-15).  A closed form whose rounding scaled with the
    envelope (alpha D / (m pi)^2)^2 was 25 % off at 6e-6 kW and 3.5e-5
    off at 1e-3 kW."""
    rx = 0.4575  # below the gap: every demand ripples
    m = np.arange(6)
    e0, e2 = class_moments(single(rx, UniformExplicit(0.0, hi)), 0, m)
    assert e0 == pytest.approx(uniform_moment_quad(INDOT, rx, 0.0, hi, 0, squared=False), rel=1e-11)
    want = [uniform_moment_quad(INDOT, rx, 0.0, hi, k, squared=True) for k in m.tolist()]
    np.testing.assert_allclose(e2, want, rtol=1e-11, atol=0)


# --- mixture moments -------------------------------------------------------


def test_single_class_mixture_reduces_to_spectrum_values():
    fm = single(1.83, MaxDemand())
    e0, e1sq = mixture_moments(fm, 1)
    assert e0 == pytest.approx(fs_harmonic(INDOT, truck_ev(), 0), rel=1e-14)
    assert e1sq == pytest.approx(fs_harmonic(INDOT, truck_ev(), 1) ** 2, rel=1e-14)


def test_two_class_mean_is_probability_weighted():
    fm = FleetModel(
        INDOT,
        (EvClass(1.83, 0.5, MaxDemand()), EvClass(1.2, 0.5, MaxDemand())),
        45,
        24.6,
    )
    e0, _ = mixture_moments(fm, 0)
    assert e0 == pytest.approx(ALPHA * (3.66 / D) * (0.5 * 1.83 + 0.5 * 1.2), rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 7])
def test_sine_product_form_agrees_with_coefficient_average(m):
    """The closed sin-product expression for full-demand harmonic power must
    match the probability-weighted coefficient squares to near machine
    precision."""
    classes = ((1.83, 0.3), (1.2, 0.45), (2.6, 0.25))
    fm = FleetModel(
        INDOT, tuple(EvClass(l, p, MaxDemand()) for l, p in classes), 45, 24.6
    )
    _, e_sq = mixture_moments(fm, m)
    direct = sum(p * max_demand_harmonic_power(INDOT, l, m) for l, p in classes)
    assert e_sq == pytest.approx(direct, rel=1e-12)
    weighted = sum(
        p * fs_harmonic(INDOT, EvParams(l, ALPHA * l, 24.6), m) ** 2 for l, p in classes
    )
    assert e_sq == pytest.approx(weighted, rel=1e-12)


# --- analytical line spectrum ----------------------------------------------


def test_one_vehicle_spectrum_is_exact():
    psd = analytic_psd(single(1.83, MaxDemand()), 6)
    c0 = fs_harmonic(INDOT, truck_ev(), 0)
    cm = fs_harmonic(INDOT, truck_ev(), np.arange(1, 7))
    assert psd.dc_power_sq == pytest.approx(c0 * c0, rel=1e-14)
    np.testing.assert_allclose(psd.harmonic_powers, cm * cm, rtol=1e-14)
    assert psd.mean_kw == pytest.approx(c0)
    assert psd.truncation_m == 6


def test_spectrum_scaling_with_fleet_size():
    base = analytic_psd(single(1.83, MaxDemand(), n=5), 4)
    double = analytic_psd(single(1.83, MaxDemand(), n=10), 4)
    np.testing.assert_allclose(
        double.harmonic_powers, 2.0 * np.asarray(base.harmonic_powers), rtol=1e-14
    )
    assert double.dc_power_sq == pytest.approx(4.0 * base.dc_power_sq, rel=1e-14)


def test_autocorrelation_is_periodic_dc_plus_cosines():
    psd = analytic_psd(single(1.83, MaxDemand(), n=3), 5)
    r0 = psd.autocorrelation(0.0)
    assert r0 == pytest.approx(psd.dc_power_sq + 2 * np.sum(psd.harmonic_powers))
    period = D / 24.6
    taus = np.linspace(0.0, 0.4, 9)
    np.testing.assert_allclose(
        psd.autocorrelation(taus), psd.autocorrelation(taus + period), rtol=1e-12
    )
    w0 = 2 * np.pi * psd.fundamental_hz
    manual = psd.dc_power_sq + 2 * sum(
        p * np.cos((k + 1) * w0 * 0.05) for k, p in enumerate(psd.harmonic_powers)
    )
    assert psd.autocorrelation(0.05) == pytest.approx(manual, rel=1e-12)


def test_ensemble_mean_load_is_time_invariant():
    """Mean of the aggregate at any fixed instant equals N * E[c0] when the
    per-vehicle phases are uniform (wide-sense stationarity)."""
    n = 10
    rng = np.random.default_rng(8)
    c0 = fs_harmonic(INDOT, truck_ev(), 0)
    for x_probe in (0.0, 1.1, 3.9):
        u = rng.uniform(0.0, D, size=(4000, n))
        g = coil_pulse(INDOT, truck_ev(), np.mod(x_probe + u, D))
        totals = g.sum(axis=1)
        se = totals.std(ddof=1) / np.sqrt(totals.shape[0])
        assert abs(totals.mean() - n * c0) <= 3.0 * se


def test_cross_coefficients_average_to_zero():
    """Ensemble averages of c_m * conj(c_k) vanish for m != k."""
    n = 5
    cm = fs_harmonic(INDOT, truck_ev(), np.array([1, 2]))
    rng = np.random.default_rng(15)
    u = rng.random((6000, n))
    a1 = cm[0] * np.exp(-2j * np.pi * 1 * u).sum(axis=1)
    a2 = cm[1] * np.exp(-2j * np.pi * 2 * u).sum(axis=1)
    prod = a1 * np.conj(a2)
    for part in (prod.real, prod.imag):
        se = part.std(ddof=1) / np.sqrt(part.size)
        assert abs(part.mean()) <= 3.0 * se


# --- aggregate THC ---------------------------------------------------------


def test_one_vehicle_aggregate_equals_single_thc():
    assert thc_total(single(1.83, MaxDemand())) == pytest.approx(
        thc_single(INDOT, truck_ev()), rel=1e-12
    )


def test_quadrupling_fleet_halves_thc():
    fm1 = single(1.83, MaxDemand(), n=11)
    fm4 = single(1.83, MaxDemand(), n=44)
    assert thc_total(fm4, 40) == pytest.approx(thc_total(fm1, 40) / 2.0, rel=1e-12)


def test_mixed_fleet_thc_has_realistic_magnitude():
    """A 45-vehicle truck/sedan mixture lands in the single-digit percent
    range -- same order as measured highway averages."""
    fm = FleetModel(
        INDOT,
        (EvClass(1.83, 0.1775, MaxDemand()), EvClass(1.2, 0.8225, MaxDemand())),
        45,
        24.6,
    )
    thc = thc_total(fm, 50)
    assert 1.0 < thc < 15.0


@pytest.mark.parametrize("n_harmonics", [0, -3])
def test_thc_total_rejects_an_order_below_one(n_harmonics):
    with pytest.raises(ValueError, match=f"n_harmonics must be >= 1, got {n_harmonics}"):
        thc_total(single(1.83, MaxDemand()), n_harmonics)


@pytest.mark.parametrize("n_harmonics", [0, -3])
def test_analytic_psd_rejects_an_order_below_one(n_harmonics):
    with pytest.raises(ValueError, match=f"n_harmonics must be >= 1, got {n_harmonics}"):
        analytic_psd(single(1.83, MaxDemand()), n_harmonics)


def test_thc_undefined_for_zero_mean_fleet():
    with pytest.raises(ValueError):
        thc_total(single(1.83, UniformExplicit(0.0, 0.0)))


def test_first_harmonic_carries_most_aggregate_content():
    """Keeping only m=1 changes the aggregate THC by well under 10% for
    long-receiver mixtures (both lengths in [1.5, 1.83] m); this is what
    justifies first-harmonic-only composition comparisons there."""
    rng = np.random.default_rng(44)
    for _ in range(25):
        l_b = rng.uniform(1.5, 1.83)
        theta = rng.uniform(0.0, 1.0)
        fm = FleetModel(
            INDOT,
            (EvClass(1.83, theta, MaxDemand()), EvClass(l_b, 1.0 - theta, MaxDemand())),
            45,
            24.6,
        )
        t1, t50 = thc_total(fm, 1), thc_total(fm, 50)
        assert (t50 - t1) / t50 < 0.10


# --- composition criterion -------------------------------------------------


def test_composition_condition_examples():
    assert not composition_condition(INDOT, 1.83, 1.83)  # strict inequality
    assert composition_condition(INDOT, 1.83, 1.7)
    assert not composition_condition(INDOT, 1.83, 0.58)


def test_composition_condition_domain():
    with pytest.raises(ValueError):
        composition_condition(INDOT, 1.2, 1.83)  # short class longer than long
    with pytest.raises(ValueError):
        composition_condition(INDOT, 5.0, 1.0)
    with pytest.raises(ValueError):
        composition_condition(INDOT, 1.83, 0.0)


def test_condition_agrees_with_coefficient_formulation():
    """The length-based criterion and the equivalent statement in terms of
    full-demand coefficients (c0_a * c1_b^2 > c0_b * c1_a^2, i.e. the short
    class has the larger c1^2/c0) must give the same verdict."""

    def coeff_form(l_a, l_b):
        def c0(l):
            return fs_harmonic(INDOT, EvParams(l, ALPHA * l, 24.6), 0)

        def c1sq(l):
            return fs_harmonic(INDOT, EvParams(l, ALPHA * l, 24.6), 1) ** 2

        return c0(l_a) * c1sq(l_b) > c0(l_b) * c1sq(l_a)

    rng = np.random.default_rng(51)
    for _ in range(300):
        l_a = rng.uniform(0.4, 3.6)
        l_b = rng.uniform(0.2, l_a)
        assert composition_condition(INDOT, l_a, l_b) == coeff_form(l_a, l_b)


def test_boundary_root_for_long_trucks():
    root = composition_boundary(INDOT, 1.83)
    assert root == pytest.approx(BOUNDARY_183, abs=2e-6)
    # Bracketing: the verdict flips exactly at the root.
    assert not composition_condition(INDOT, 1.83, root - 1e-4)
    assert composition_condition(INDOT, 1.83, root + 1e-4)


def test_boundary_absent_for_short_long_class():
    assert composition_boundary(INDOT, 1.5) is None
    assert composition_boundary(INDOT, 1e-6) is None
    with pytest.raises(ValueError):
        composition_boundary(INDOT, D)


# --- penetration-ratio comparison ------------------------------------------


def test_identical_scenarios_give_unit_ratio():
    assert q_ratio(INDOT, 1.83, 1.2, theta1=0.3, theta2=0.3, n2=45, n1=45) == pytest.approx(
        1.0, rel=1e-14
    )


def test_ratio_verdicts_for_long_and_short_sedans():
    q_long = q_ratio(INDOT, 1.83, 1.7, theta1=0.5, theta2=0.1, n2=45)
    q_short = q_ratio(INDOT, 1.83, 0.58, theta1=0.5, theta2=0.1, n2=45)
    assert q_long == pytest.approx(0.9971770691954146, rel=1e-12)
    assert q_short == pytest.approx(1.365809285527347, rel=1e-12)
    assert (q_long < 1.0) == composition_condition(INDOT, 1.83, 1.7)
    assert (q_short > 1.0) == (not composition_condition(INDOT, 1.83, 0.58))


def test_ratio_validation():
    with pytest.raises(ValueError):
        q_ratio(INDOT, 1.83, 1.2, theta1=1.5, theta2=0.1, n2=45)
    with pytest.raises(ValueError):
        q_ratio(INDOT, 1.83, 1.2, theta1=0.5, theta2=0.1, n2=0)


def _mean_matched_thc(l_a, l_b, theta, n, m=50):
    """Aggregate THC of a full-demand two-class mixture with a possibly
    fractional vehicle count (counts only rescale, never reshape, the
    spectrum)."""
    fm = FleetModel(
        INDOT,
        (EvClass(l_a, theta, MaxDemand()), EvClass(l_b, 1.0 - theta, MaxDemand())),
        1,
        24.6,
    )
    e0, _ = mixture_moments(fm, 0)
    total = sum(mixture_moments(fm, k)[1] for k in range(1, m + 1))
    return 100.0 * np.sqrt(2.0 * total / (n * e0 * e0))


@pytest.mark.parametrize("l_b", [1.7, 0.58])
def test_ratio_verdict_matches_full_thc_comparison(l_b):
    theta1, theta2, n2 = 0.5, 0.1, 45.0
    q = q_ratio(INDOT, 1.83, l_b, theta1=theta1, theta2=theta2, n2=n2)

    def dc_of(theta):
        fm = FleetModel(
            INDOT,
            (EvClass(1.83, theta, MaxDemand()), EvClass(l_b, 1 - theta, MaxDemand())),
            1,
            24.6,
        )
        return mixture_moments(fm, 0)[0]

    n1 = n2 * dc_of(theta2) / dc_of(theta1)
    thc1 = _mean_matched_thc(1.83, l_b, theta1, n1)
    thc2 = _mean_matched_thc(1.83, l_b, theta2, n2)
    assert (q < 1.0) == (thc1 < thc2)
