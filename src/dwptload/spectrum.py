"""Fourier-series description of the single-vehicle load waveform.

The clipped-trapezoid pulse train admits closed-form Fourier coefficients:
with plateau width derived from the demand clip level, the waveform is a
periodized trapezoid, i.e. the convolution of two rectangles, so every
coefficient is a product of two sinc factors.  The waveform is even about
the pulse center, so with that phase convention all coefficients are real.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .roadway import ErConfig, EvParams, constant_regime


def _trapezoid(cfg: ErConfig, rx_len_m: float, p: np.ndarray):
    """Ramp width ``a = p / alpha``, full width at half plateau
    ``b = tx_len + rx_len - a``, and where the demand is at or below the
    constant-load threshold :meth:`ErConfig.floor_kw`."""
    a = p / cfg.power_density_kw_per_m
    b = cfg.tx_len_m + rx_len_m - a
    return a, b, p <= cfg.floor_kw(rx_len_m)


def fs_harmonic_grid(cfg: ErConfig, rx_len_m: float, demands_kw, m) -> np.ndarray:
    """Real coefficients c_m for one receiver at one or many demand levels.

    Vectorized over both axes; returns shape ``demands_kw.shape + m.shape``.
    With ramp width ``a = p / alpha`` and full width at half plateau
    ``b = tx_len + rx_len - a`` the pulse is a periodized trapezoid, the
    convolution of two rectangles, so
    ``c_m = (p b / D) sinc(m a / D) sinc(m b / D)``, which is evaluated as
    ``p b / D`` for m = 0 and as
    ``alpha D / (m pi)^2 sin(pi m a / D) sin(pi m b / D)`` for m >= 1.
    Demands at or below the constant-load threshold yield c_0 = demand and
    zero harmonics.
    """
    d_per = cfg.period_m
    ma = np.asarray(m, dtype=float)
    p = np.asarray(demands_kw, dtype=float)
    p = p.reshape(p.shape + (1,) * ma.ndim)
    a, b, flat = _trapezoid(cfg, rx_len_m, p)
    dc = ma == 0
    envelope = harmonic_bound(cfg, np.where(dc, 1.0, np.abs(ma)))
    # The sine arguments round as those of the sinc form, pi * (m a / D),
    # so the two forms agree to a few ulps even next to a zero of c_m.
    out = envelope * np.sin(np.pi * (ma * a / d_per))
    out *= np.sin(np.pi * (ma * b / d_per))
    if dc.any():
        out = np.where(dc, p * b / d_per, out)
    return np.where(flat, np.where(dc, p, 0.0), out)


def _stepped_rows(
    cfg: ErConfig, rx_len_m: float, demands_kw: np.ndarray, m_max: int
) -> Iterator[np.ndarray]:
    """The rows c_0, c_1, ..., c_m_max of :func:`fs_harmonic_grid` for one
    receiver at a 1-D array of demands, one harmonic at a time: row k is its
    product ``alpha D / (k pi)^2 sin(k theta_a) sin(k theta_b)`` with
    ``theta_a = pi a / D`` and ``theta_b = pi b / D``, each sine stepped by
    the Chebyshev recurrence ``sin((k+1) t) = 2 cos(t) sin(k t) - sin((k-1) t)``
    in rotating buffers.  Rows 0 and 1 and the rows of flat demands equal
    it; row k differs by rounding that grows with k and, as c_k does,
    shrinks with the demand.  Rows from 1 on share one buffer: each is
    valid until the next is drawn.
    """
    d_per = cfg.period_m
    a, b, flat = _trapezoid(cfg, rx_len_m, demands_kw)
    yield np.where(flat, demands_kw, demands_kw * b / d_per)
    flat = np.flatnonzero(flat)
    theta = np.stack((np.pi * (a / d_per), np.pi * (b / d_per)))
    del a, b
    # Both sines at once: sin((k-1) theta), sin(k theta) and 2 cos(theta).
    prev, cur, two_cos = np.zeros_like(theta), np.sin(theta), 2.0 * np.cos(theta)
    spare, alpha = theta, cfg.power_density_kw_per_m
    for k in range(1, m_max + 1):
        if k > 1:
            np.multiply(two_cos, cur, out=spare)
            prev, cur, spare = cur, np.subtract(spare, prev, out=prev), spare
        # Not harmonic_bound: Python's (pi k)**2 is not always (pi k)*(pi k).
        row = np.multiply(alpha * d_per / (np.pi * k) ** 2, cur[0], out=spare[0])
        row *= cur[1]
        row[flat] = 0.0
        yield row


def fs_harmonic(cfg: ErConfig, ev: EvParams, m) -> np.ndarray | float:
    """Real Fourier coefficient c_m of the load pulse train (kW).

    Phase convention: position measured from the pulse center, where the
    waveform is even; coefficients are then real (possibly negative) and
    the waveform is ``c_0 + 2 * sum_m c_m cos(m w0 t)``.  m may be an
    integer or an array of integers; c_0 is the mean load over a period.
    """
    ev.validate_against(cfg)
    out = fs_harmonic_grid(cfg, ev.rx_len_m, ev.peak_demand_kw, m)
    return out if np.ndim(m) else float(out)


def harmonic_bound(cfg: ErConfig, m) -> np.ndarray | float:
    """Demand-independent envelope ``alpha * D / (m pi)^2`` on |c_m|,
    squared by one multiply, so a scalar m gives the bits of an array's."""
    ma = np.asarray(m)
    if np.any(ma < 1):
        raise ValueError(f"m must be >= 1, got {m}")
    x = ma * np.pi
    out = cfg.power_density_kw_per_m * cfg.period_m / (x * x)
    return out if np.ndim(m) else float(out)


#: THC, in percentage points, that :func:`harmonic_count_for_dc` leaves to the tail.
TAIL_TOL_PP = 0.01

#: The most harmonics the tail rule may ask for, and the most a run of the
#: CLI takes: ``spectrum`` writes one row of 30-50 bytes per harmonic to
#: ``fs_coeffs.csv``, so at most some 50 MB.
MAX_HARMONICS = 2**20


def harmonic_count_for_dc(cfg: ErConfig, dc_kw: float) -> int:
    """Smallest M whose envelope-bounded spectral tail can add less than
    :data:`TAIL_TOL_PP` percentage points to a THC with DC term ``dc_kw``.

    Uses ``sum_{m>M} m^-4 <= 1/(3 M^3)`` with the demand-independent
    envelope on |c_m|, so the returned M is conservative.  A DC term so
    small that M overflows a float, or exceeds :data:`MAX_HARMONICS`,
    raises ``ValueError`` before anything of size M is allocated.
    """
    if dc_kw <= 0:
        return 1
    envelope = harmonic_bound(cfg, 1)
    # 100 * sqrt(2 * envelope^2 / (3 M^3)) / dc < TAIL_TOL_PP
    target = TAIL_TOL_PP / 100.0 * dc_kw / envelope
    try:
        m = int(np.ceil((2.0 / (3.0 * target * target)) ** (1.0 / 3.0)))
    except (ZeroDivisionError, OverflowError):
        raise ValueError(
            f"dc_kw {dc_kw} is too small for the tail rule; give a harmonic count"
        ) from None
    if m > MAX_HARMONICS:
        raise ValueError(
            f"dc_kw {dc_kw} needs {m} harmonics by the tail rule, above the limit "
            f"of {MAX_HARMONICS}; give a harmonic count"
        )
    return max(m, 1)


def thc_single(
    cfg: ErConfig, ev: EvParams, n_harmonics: int | None = None
) -> float:
    """Total harmonic content of one vehicle's load, in percent.

    Defined as the RMS of the oscillatory part relative to the mean:
    ``100 * sqrt(2 * sum_m c_m^2) / c_0``.  In the constant-load regime the
    waveform has no ripple and the THC is exactly zero.  Without
    ``n_harmonics`` the count is the tail rule's, at most
    :data:`MAX_HARMONICS`.
    """
    ev.validate_against(cfg)
    if constant_regime(cfg, ev):
        return 0.0
    c0 = fs_harmonic(cfg, ev, 0)
    if n_harmonics is None:
        n_harmonics = harmonic_count_for_dc(cfg, c0)
    if n_harmonics < 1:
        raise ValueError(f"n_harmonics must be >= 1, got {n_harmonics}")
    cm = fs_harmonic(cfg, ev, np.arange(1, n_harmonics + 1))
    return 100.0 * float(np.sqrt(2.0 * np.sum(cm * cm)) / c0)
