"""The model's identities, each written once, for any roadway geometry.

A check ``(cfg, rng, n) -> worst`` draws ``n`` vehicles (a side-``n``
grid, ``n`` Monte Carlo trials) on the roadway ``cfg``; :data:`CHECKS`
bounds its worst value.  ``dwptload validate`` and the tests run them.
The pulse is piecewise linear, so its mean square and its Fourier
coefficients have exact numerical oracles on numpy alone.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Optional

import numpy as np

from .fleet import (
    EvClass, FleetModel, MaxDemand, UniformOnRange, _gauss_panels, analytic_psd,
    composition_condition, mixture_moments, q_ratio,
)
from .roadway import ErConfig, EvParams, _pulse_kinks, coil_pulse
from .signals import monte_carlo_psd
from .spectrum import fs_harmonic_grid, harmonic_bound, harmonic_count_for_dc

#: Receivers as fractions of ``tx_len_m``: 0.2 m to 3.61 m on the 3.66 m
#: INDOT coils, from below the gap to just under the coil.
RX_LO, RX_HI = 0.2 / 3.66, 3.61 / 3.66


def draw_vehicle(rng: np.random.Generator, cfg: ErConfig) -> EvParams:
    """A random receiver with a demand in the ripple range."""
    rx = rng.uniform(RX_LO * cfg.tx_len_m, RX_HI * cfg.tx_len_m)
    lo = cfg.floor_kw(rx)
    demand = lo + (cfg.full_kw(rx) - lo) * rng.uniform(0.05, 1.0)
    return EvParams(rx_len_m=rx, peak_demand_kw=demand, speed_mps=24.6)


def pulse_kinks(cfg: ErConfig, ev: EvParams) -> np.ndarray:
    """Breakpoints of the clipped-trapezoid pulse within [0, period]: the
    period's ends and the kinks of :func:`dwptload.roadway._pulse_kinks`
    that lie within it, sorted, each once."""
    offsets, _ = _pulse_kinks(cfg, ev.rx_len_m, ev.peak_demand_kw)
    points = np.unique(np.append(offsets, (0.0, cfg.period_m)))
    return points[points <= cfg.period_m]


def mean_square_exact(cfg: ErConfig, ev: EvParams) -> float:
    """Mean of the squared pulse over one period, exact: the square is
    piecewise quadratic, so Simpson's rule on each piece is exact."""
    k = pulse_kinks(cfg, ev)
    a, b = k[:-1], k[1:]
    y = coil_pulse(cfg, ev, np.mod(np.stack([a, (a + b) / 2, b]), cfg.period_m)) ** 2
    return float(np.sum((b - a) * (y[0] + 4.0 * y[1] + y[2])) / (6.0 * cfg.period_m))


def fourier_coeffs_quadrature(cfg: ErConfig, ev: EvParams, m_max: int) -> np.ndarray:
    """c_0..c_m_max by 12-point Gauss-Legendre on panels between the kinks,
    each at most one wavelength of c_m_max (the panels of
    :func:`dwptload.fleet.class_moments`), against cosines centered on the
    pulse's symmetry axis."""
    d_per, k = cfg.period_m, pulse_kinks(cfg, ev)
    panels = [_gauss_panels(a, b, d_per / max(m_max, 1)) for a, b in zip(k[:-1], k[1:])]
    y, w = (np.concatenate(x) for x in zip(*panels))
    phase = 2.0 * np.pi / d_per * (y - (ev.rx_len_m + cfg.tx_len_m) / 2.0)
    return np.cos(np.outer(np.arange(m_max + 1), phase)) @ (w * coil_pulse(cfg, ev, y)) / d_per


def _over_vehicles(error: Callable[[ErConfig, EvParams], float]):
    """The check whose worst value is the largest ``error`` of n vehicles."""

    @functools.wraps(error)
    def check(cfg: ErConfig, rng: np.random.Generator, n: int) -> float:
        return max(float(error(cfg, draw_vehicle(rng, cfg))) for _ in range(n))

    return check


@_over_vehicles
def parseval(cfg: ErConfig, ev: EvParams) -> float:
    """Relative gap between the exact mean square and the line powers
    ``c_0^2 + 2 sum c_m^2`` up to m = 1000, or further if the envelope
    could leave more than 1e-8 of ``c_0^2`` (THC 0.01 pp) in the tail."""
    c0 = float(fs_harmonic_grid(cfg, ev.rx_len_m, ev.peak_demand_kw, 0))
    m = np.arange(max(1000, harmonic_count_for_dc(cfg, c0)) + 1)
    cm = fs_harmonic_grid(cfg, ev.rx_len_m, ev.peak_demand_kw, m)
    exact = mean_square_exact(cfg, ev)
    return abs(cm[0] ** 2 + 2.0 * np.sum(cm[1:] ** 2) - exact) / exact


@_over_vehicles
def envelope(cfg: ErConfig, ev: EvParams) -> float:
    """Largest ``|c_m| / (alpha D / (m pi)^2)`` for m = 1..100."""
    m = np.arange(1, 101)
    cm = fs_harmonic_grid(cfg, ev.rx_len_m, ev.peak_demand_kw, m)
    return np.max(np.abs(cm) / harmonic_bound(cfg, m))


@_over_vehicles
def fs_oracle(cfg: ErConfig, ev: EvParams) -> float:
    """Error of the closed-form c_0..c_50 against the quadrature, the
    larger of: the l2 error relative to the oracle's norm, and each
    |error| relative to ``|c_m| + 1e-4 max |c|``."""
    oracle = fourier_coeffs_quadrature(cfg, ev, 50)
    err = np.abs(fs_harmonic_grid(cfg, ev.rx_len_m, ev.peak_demand_kw, np.arange(51)) - oracle)
    scale = np.abs(oracle) + 1e-4 * np.max(np.abs(oracle))
    return max(np.linalg.norm(err) / np.linalg.norm(oracle), np.max(err / scale))


def clipping_vs_scaling(cfg: ErConfig, rng: np.random.Generator, n: int) -> Optional[float]:
    """Largest first-harmonic ratio ``|c_1| / c_0`` under clipping minus
    that under scaling (the full-demand ratio), on an n x n grid of
    receivers and part-load demands; draws nothing.  None unless the coil
    is longer than half the period, where the lemma applies."""
    if not cfg.tx_len_m > cfg.period_m / 2:
        return None
    u, worst = np.linspace(0.01, 0.999, n), -np.inf
    for rx in np.linspace(RX_LO * cfg.tx_len_m, RX_HI * cfg.tx_len_m, n):
        lo, hi = cfg.floor_kw(rx), cfg.full_kw(rx)
        c = fs_harmonic_grid(cfg, rx, np.append(lo + u * (hi - lo), hi), np.arange(2))
        ratio = np.abs(c[:, 1]) / c[:, 0]
        worst = max(worst, float(np.max(ratio[:-1] - ratio[-1])))
    return worst


def ensemble_mc(cfg: ErConfig, rng: np.random.Generator, n: int) -> float:
    """Largest |z| of the Monte Carlo lines m = 0..5 (n trials each) of two
    45-vehicle fleets drawn in turn from ``rng``, full-demand receivers of
    half the coil (1.83 m on INDOT) and receivers of 1.2 / 3.66 of the coil
    with demands uniform on the ripple range, against :func:`analytic_psd`
    and the DC line ``N E[c_0^2] + N (N - 1) E[c_0]^2``; infinite if a line
    with no spread (the first fleet's DC) is off by more than 1e-6 relative."""
    worst = 0.0
    for rx, demand in ((cfg.tx_len_m / 2, MaxDemand()), (1.2 / 3.66 * cfg.tx_len_m, UniformOnRange())):
        model = FleetModel(cfg, (EvClass(rx, 1.0, demand),), 45, 24.6)
        mc = monte_carlo_psd(model, trials=n, seed=rng, m_max=5)
        e0, e00 = mixture_moments(model, 0)
        dc = model.n_evs * e00 + model.n_evs * (model.n_evs - 1) * e0 * e0
        expected = np.array((dc, *analytic_psd(model, 5).harmonic_powers))
        err, exact = np.abs(mc.line_powers_kw2 - expected), mc.stderr_kw2 == 0
        if np.any(err[exact] > 1e-6 * expected[exact]):
            return np.inf
        worst = max(worst, float(np.max(err[~exact] / mc.stderr_kw2[~exact], initial=0.0)))
    return worst


def composition_sign(cfg: ErConfig, rng: np.random.Generator, n: int) -> float:
    """Draws whose mean-matched ``q_ratio < 1`` disagrees with
    :func:`composition_condition`, q within 1e-9 of 1 not counted."""
    tx, bad = cfg.tx_len_m, 0
    for _ in range(n):
        # On INDOT: l_a from 0.8 m to 3.6 m, l_b from 0.2 m to l_a - 0.1 m.
        l_a = tx * rng.uniform(0.8 / 3.66, 3.6 / 3.66)
        l_b = rng.uniform(RX_LO * tx, l_a - 0.1 / 3.66 * tx)
        theta2 = rng.uniform(0.0, 0.5)
        theta1 = rng.uniform(theta2 + 0.01, 1.0)
        q = q_ratio(cfg, l_a, l_b, theta1=theta1, theta2=theta2, n2=rng.uniform(1.0, 100.0))
        if abs(q - 1.0) > 1e-9 and (q < 1.0) != composition_condition(cfg, l_a, l_b):
            bad += 1
    return float(bad)


class Check(NamedTuple):
    run: Callable[[ErConfig, np.random.Generator, int], Optional[float]]
    measure: str
    bound: float  # passes when the worst value is at most this
    n: Optional[int]  # draws in `validate`; None: its Monte Carlo trials


#: The checks ``validate`` runs, in order.
CHECKS: dict[str, Check] = {
    "parseval": Check(parseval, "max rel err", 1e-6, 20),
    "harmonic-bound": Check(envelope, "max |c_m|/bound", 1.0 + 1e-12, 200),
    "clipping-vs-scaling": Check(clipping_vs_scaling, "max clip-minus-scale ratio", 1e-12, 100),
    # 11 lines have a spread (not the first fleet's DC).  A family-wise false
    # alarm of 1e-3 leaves each line 1 - (1 - 1e-3)^(1/11) = 9.1e-5 (Sidak),
    # so |z| <= 3.91, the standard normal's upper 4.55e-5 quantile.
    "ensemble-mc": Check(ensemble_mc, "max |z| of lines m<=5", 3.91, None),
    "composition-sign": Check(composition_sign, "sign disagreements", 0.0, 200),
    "fs-oracle": Check(fs_oracle, "max rel err", 1e-8, 5),
}
