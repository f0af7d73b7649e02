"""Property checks of the closed forms against the slower formulations.

The pulse, the uniform-demand moments and the coil-start-phase
coefficients each have one closed form in the package; here they are
compared on generated geometry, receivers and demands with the
branch-selection pulse, adaptive quadrature and the DFT of a sampled
period from ``oracles``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dwptload import (
    INDOT,
    Clipping,
    ErConfig,
    EvClass,
    EvParams,
    FleetModel,
    UniformExplicit,
    class_moments,
    harmonic_bound,
    load_at_position,
    period_coefficients,
)
from oracles import period_coefficients_fft, pulse_kinks, select_pulse, uniform_moment_quad

UNIT = st.floats(min_value=0.0, max_value=1.0)
FAST = settings(max_examples=100, deadline=None, derandomize=True)
SLOW = settings(max_examples=50, deadline=None, derandomize=True)


@st.composite
def geometries(draw) -> ErConfig:
    """The test track, or a coil array with any duty cycle."""
    if draw(st.booleans()):
        return INDOT
    tx = draw(st.floats(0.5, 5.0))
    gap = draw(st.floats(0.1, 3.0))
    alpha = draw(st.floats(10.0, 300.0))
    return ErConfig(tx, gap, alpha, segment_len_m=100.0 * (tx + gap))


def threshold_kw(cfg: ErConfig, rx: float) -> float:
    """Demand at or below which the load is constant (0 below the gap)."""
    return max(0.0, cfg.power_density_kw_per_m * (rx - cfg.gap_m))


def receiver(draw, cfg: ErConfig) -> float:
    """A receiver from well below the gap up to just under the coil."""
    return cfg.tx_len_m * draw(st.floats(0.01, 0.995))


@st.composite
def vehicles(draw) -> tuple[ErConfig, EvParams]:
    """A receiver with a demand in the ripple range or the constant regime."""
    cfg = draw(geometries())
    rx = receiver(draw, cfg)
    lo, hi = threshold_kw(cfg, rx), cfg.power_density_kw_per_m * rx
    if lo > 0 and draw(st.booleans()):
        demand = lo * draw(UNIT)
    else:
        demand = lo + (hi - lo) * draw(UNIT)
    return cfg, EvParams(rx, demand, 24.6)


@st.composite
def uniform_classes(draw) -> tuple[ErConfig, float, float, float]:
    """(cfg, rx, lo_kw, hi_kw): intervals straddling the constant-load
    threshold, near-zero-width ones, and arbitrary ones."""
    cfg = draw(geometries())
    rx = receiver(draw, cfg)
    th, full = threshold_kw(cfg, rx), cfg.power_density_kw_per_m * rx
    kind = draw(st.sampled_from(["straddle", "narrow", "any"]))
    if kind == "straddle" and th > 0:
        lo = th * draw(st.floats(0.0, 0.999))
        hi = th + (full - th) * draw(st.floats(0.001, 1.0))
    elif kind == "narrow":
        hi = full * draw(st.floats(1e-3, 1.0))
        lo = hi - hi * draw(st.floats(1e-12, 1e-5))
    else:
        lo, hi = sorted((full * draw(UNIT), full * draw(UNIT)))
        if lo == hi:
            lo = 0.0
    return cfg, rx, lo, hi


@FAST
@given(vehicles())
def test_clip_pulse_matches_select_oracle(case):
    cfg, vehicle = case
    xm = np.linspace(0.0, cfg.period_m, 1001, endpoint=False)
    kinks = pulse_kinks(cfg, vehicle)
    xm = np.concatenate([xm, kinks[kinks < cfg.period_m]])
    got = load_at_position(cfg, vehicle, Clipping(), xm)
    want = select_pulse(cfg, vehicle, xm)
    full = cfg.power_density_kw_per_m * vehicle.rx_len_m
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * full)


@SLOW
@given(uniform_classes(), st.one_of(st.integers(0, 20), st.sampled_from([50, 100])))
def test_uniform_moments_match_quadrature_oracle(case, m):
    cfg, rx, lo, hi = case
    model = FleetModel(cfg, (EvClass(rx, 1.0, UniformExplicit(lo, hi)),), 1, 24.6)
    e_c0, e_cm2 = class_moments(model, 0, m)
    want_c0 = uniform_moment_quad(cfg, rx, lo, hi, 0, squared=False)
    want_cm2 = uniform_moment_quad(cfg, rx, lo, hi, m, squared=True)
    # Absolute floors for near-zero values, scaled by the largest c_0 and
    # by the envelope on c_m.
    full = cfg.power_density_kw_per_m * rx
    envelope = full if m == 0 else harmonic_bound(cfg, m)
    assert abs(e_c0 - want_c0) <= 1e-12 * abs(want_c0) + 1e-14 * full
    assert abs(e_cm2 - want_cm2) <= 1e-11 * abs(want_cm2) + 1e-13 * envelope**2


@SLOW
@given(vehicles())
def test_period_coefficients_match_fft_oracle(case):
    cfg, vehicle = case
    m_max, n_samples = 40, 2**15
    got = period_coefficients(cfg, vehicle.rx_len_m, vehicle.peak_demand_kw, m_max)
    want = period_coefficients_fft(
        cfg, vehicle.rx_len_m, vehicle.peak_demand_kw, m_max, n_samples
    )
    # The DFT of N samples adds the aliases c_{m+kN}, k != 0, to each line;
    # the envelope bounds their sum by 2 zeta(2) alpha D / (pi (N - m))^2.
    alias = 2.0 * np.pi**2 / 6.0 * harmonic_bound(cfg, n_samples - m_max)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=alias)
