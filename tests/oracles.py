"""Independent numerical oracles used across the test suite.

Everything here recomputes quantities from first principles -- geometric
coil overlap, composite quadrature, exact piecewise integration -- or by
the slower formulations the package used before its closed forms: the
pulse by branch selection, uniform-demand moments by adaptive
quadrature, and coil-start-phase coefficients by the DFT of a densely
sampled period.  The closed forms in the package are thus checked against
a second, structurally different derivation rather than against
themselves.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate

from dwptload import ErConfig, EvParams, coil_pulse, constant_regime, fs_harmonic


def pulse_kinks(cfg: ErConfig, ev: EvParams) -> np.ndarray:
    """Breakpoints of the clipped-trapezoid pulse within [0, period]."""
    d_per = cfg.period_m
    ramp = ev.peak_demand_kw / cfg.power_density_kw_per_m
    pts = {
        0.0,
        d_per,
        max(0.0, ev.rx_len_m - cfg.gap_m),
        ramp,
        ev.rx_len_m + cfg.tx_len_m - ramp,
    }
    if ev.rx_len_m < cfg.gap_m:
        # Short receivers: the trailing ramp hits zero before the period ends.
        pts.add(min(ev.rx_len_m + cfg.tx_len_m, d_per))
    return np.array(sorted(p for p in pts if 0.0 <= p <= d_per))


def fourier_coeffs_quadrature(
    cfg: ErConfig, ev: EvParams, m_max: int, order: int = 12
) -> np.ndarray:
    """Coefficients c_0..c_m_max by kink-aligned composite Gauss-Legendre.

    Integrates the sampled pulse against cosines centered on the pulse's
    symmetry axis, with panels no wider than one wavelength of the highest
    harmonic so the rule stays in its spectral-accuracy regime.
    """
    d_per = cfg.period_m
    center = (ev.rx_len_m + cfg.tx_len_m) / 2.0
    omega = 2.0 * np.pi / d_per
    gx, gw = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    kinks = pulse_kinks(cfg, ev)
    for a, b in zip(kinks[:-1], kinks[1:]):
        if b - a <= 1e-12 * d_per:
            continue
        n_panels = max(1, int(np.ceil((b - a) * max(m_max, 1) / d_per)))
        edges = np.linspace(a, b, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        nodes.append((mid[:, None] + half[:, None] * gx).ravel())
        weights.append((half[:, None] * np.broadcast_to(gw, (n_panels, order))).ravel())
    y = np.concatenate(nodes)
    w = np.concatenate(weights)
    g = coil_pulse(cfg, ev, y)
    m = np.arange(m_max + 1)
    cosines = np.cos(np.outer(m, omega * (y - center)))
    return cosines @ (w * g) / d_per


def mean_square_exact(cfg: ErConfig, ev: EvParams) -> float:
    """Exact mean of the squared pulse over one period.

    The pulse is piecewise linear, so its square is piecewise quadratic
    and Simpson's rule on each piece is exact.
    """
    d_per = cfg.period_m
    kinks = pulse_kinks(cfg, ev)
    total = 0.0
    for a, b in zip(kinks[:-1], kinks[1:]):
        if b <= a:
            continue
        x = np.mod(np.array([a, 0.5 * (a + b), b]), d_per)
        ya, ym, yb = np.asarray(coil_pulse(cfg, ev, x)) ** 2
        total += (b - a) / 6.0 * (ya + 4.0 * ym + yb)
    return total / d_per


def overlap_load(cfg: ErConfig, ev: EvParams, x) -> np.ndarray:
    """Load from first principles: energized length under the receiver.

    ``coil_len(y)`` accumulates the transmitter-coil length covered by
    [0, y); the receiver occupying [x - rx_len, x) then draws the power
    density times its overlapped coil length, capped at its demand.  Only
    valid while the receiver is fully inside the coil array.
    """
    d_per = cfg.period_m

    def coil_len(y: np.ndarray) -> np.ndarray:
        return np.floor(y / d_per) * cfg.tx_len_m + np.minimum(
            np.mod(y, d_per), cfg.tx_len_m
        )

    xa = np.asarray(x, dtype=float)
    overlap = coil_len(xa) - coil_len(xa - ev.rx_len_m)
    return np.minimum(ev.peak_demand_kw, cfg.power_density_kw_per_m * overlap)


def draw_periodic_ev(
    rng: np.random.Generator,
    cfg: ErConfig,
    speed_mps: float = 24.6,
    rx_lo: float = 0.2,
    rx_hi: float | None = None,
) -> EvParams:
    """Random receiver/demand pair in the ripple-producing regime."""
    if rx_hi is None:
        rx_hi = cfg.tx_len_m - 0.05
    rx = rng.uniform(rx_lo, rx_hi)
    lo = max(0.0, cfg.power_density_kw_per_m * (rx - cfg.gap_m))
    hi = cfg.power_density_kw_per_m * rx
    demand = lo + (hi - lo) * rng.uniform(0.05, 1.0)
    return EvParams(rx_len_m=rx, peak_demand_kw=demand, speed_mps=speed_mps)


def select_pulse(cfg: ErConfig, ev: EvParams, xm: np.ndarray) -> np.ndarray:
    """On-segment load at in-period positions ``xm`` by branch selection.

    ``xm`` must lie in [0, period).  Branch boundaries are half-open with
    ties going to the branch on the left.  In the constant-load regime the
    load is the demand everywhere.
    """
    if constant_regime(cfg, ev):
        return np.full_like(xm, ev.peak_demand_kw)
    alpha = cfg.power_density_kw_per_m
    ell, ell_t = ev.rx_len_m, cfg.tx_len_m
    p = ev.peak_demand_kw
    out = np.select(
        [xm < ell - cfg.gap_m, xm < p / alpha, xm < ell + ell_t - p / alpha],
        [alpha * (ell - cfg.gap_m), alpha * xm, p],
        default=alpha * (ell + ell_t - xm),
    )
    if ell < cfg.gap_m:
        # Receiver shorter than the gap: the trough dips to zero instead of
        # a positive baseline, and the trailing ramp must not go negative.
        np.maximum(out, 0.0, out=out)
    return out


def max_demand_harmonic_power(cfg: ErConfig, rx_len_m: float, m: int) -> float:
    """Squared m-th coefficient at full demand, in product-of-sines form."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    alpha = cfg.power_density_kw_per_m
    d_per = cfg.period_m
    amp = (
        alpha
        * d_per
        / (m * np.pi) ** 2
        * np.sin(m * np.pi * rx_len_m / d_per)
        * np.sin(m * np.pi * cfg.tx_len_m / d_per)
    )
    return amp * amp


def uniform_moment_quad(
    cfg: ErConfig,
    rx_len_m: float,
    lo: float,
    hi: float,
    m: int,
    *,
    squared: bool,
) -> float:
    """E[f(p)] for p ~ U(lo, hi), with f the (squared) m-th coefficient,
    by adaptive quadrature of the point coefficient."""

    def f(p: float) -> float:
        c = fs_harmonic(cfg, EvParams(rx_len_m, p, 1.0), m)
        return c * c if squared else c

    if hi == lo:
        return f(hi)
    # The coefficient formulas switch branch at the constant-load threshold.
    threshold = cfg.power_density_kw_per_m * (rx_len_m - cfg.gap_m)
    pts = [threshold] if lo < threshold < hi else None
    val, _ = integrate.quad(
        f, lo, hi, points=pts, limit=300, epsabs=0.0, epsrel=1e-11
    )
    return val / (hi - lo)


def period_coefficients_fft(
    cfg: ErConfig, rx_len_m: float, demand_kw: float, m_max: int, n_samples: int = 2**15
) -> np.ndarray:
    """Coefficients c_0..c_m_max with the phase origin at a coil start, as
    the DFT of one densely sampled period (no windowing)."""
    if m_max >= n_samples // 2:
        raise ValueError(f"m_max={m_max} too large for n_samples={n_samples}")
    ev = EvParams(rx_len_m=rx_len_m, peak_demand_kw=demand_kw, speed_mps=1.0)
    x = np.arange(n_samples) * (cfg.period_m / n_samples)
    return np.fft.rfft(select_pulse(cfg, ev, x))[: m_max + 1] / n_samples
