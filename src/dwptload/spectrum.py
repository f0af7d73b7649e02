"""Fourier-series description of the single-vehicle load waveform.

The clipped-trapezoid pulse train admits closed-form Fourier coefficients:
with plateau width derived from the demand clip level, the waveform is a
periodized trapezoid, i.e. the convolution of two rectangles, so every
coefficient is a product of two sinc factors.  The waveform is even about
the pulse center, so with that phase convention all coefficients are real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .roadway import ErConfig, EvParams, constant_regime


def _trapezoid(cfg: ErConfig, rx_len_m: float, p: np.ndarray):
    """Ramp width ``a = p / alpha``, full width at half plateau
    ``b = tx_len + rx_len - a``, and where the demand is at or below the
    constant-load threshold ``alpha (rx_len - gap)``."""
    alpha = cfg.power_density_kw_per_m
    a = p / alpha
    b = cfg.tx_len_m + rx_len_m - a
    return a, b, p <= alpha * (rx_len_m - cfg.gap_m)


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
    alpha = cfg.power_density_kw_per_m
    d_per = cfg.period_m
    ma = np.asarray(m, dtype=float)
    p = np.asarray(demands_kw, dtype=float)
    p = p.reshape(p.shape + (1,) * ma.ndim)
    a, b, flat = _trapezoid(cfg, rx_len_m, p)
    dc = ma == 0
    envelope = alpha * d_per / (np.pi * np.where(dc, 1.0, ma)) ** 2
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
    receiver at a 1-D array of demands, one harmonic at a time.

    The same closed form in product-to-sum form:
    ``c_k = alpha D / (2 (k pi)^2) [cos(k delta) - cos(k sigma)]`` with
    ``delta = pi (b - a) / D``, which varies with the demand, and
    ``sigma = pi (a + b) / D = pi (tx_len + rx_len) / D``, one scalar.
    ``cos(k delta)`` is stepped by the Chebyshev recurrence
    ``cos((k+1) delta) = 2 cos(delta) cos(k delta) - cos((k-1) delta)``, so
    a row costs a few array operations where :func:`fs_harmonic_grid` takes
    two sines.  Row k differs from it by rounding that grows with k, up to
    about ``eps k (4 + k / 8)`` of the envelope ``alpha D / (k pi)^2`` as
    measured; c_0 and the rows of flat demands are equal to it.
    """
    d_per = cfg.period_m
    a, b, flat = _trapezoid(cfg, rx_len_m, demands_kw)
    yield np.where(flat, demands_kw, demands_kw * b / d_per)
    flat = np.flatnonzero(flat)
    cos_prev, cos_k = 1.0, np.cos(np.pi * (b - a) / d_per)
    del a, b
    two_cos = 2.0 * cos_k
    sigma = np.pi * (cfg.tx_len_m + rx_len_m) / d_per
    half_env = cfg.power_density_kw_per_m * d_per / 2.0
    for k in range(1, m_max + 1):
        if k > 1:
            cos_next = two_cos * cos_k
            cos_next -= cos_prev
            cos_prev, cos_k = cos_k, cos_next
        row = cos_k - np.cos(k * sigma)
        row *= half_env / (np.pi * k) ** 2
        row[flat] = 0.0
        yield row


def fs_dc(cfg: ErConfig, ev: EvParams) -> float:
    """Mean load over one spatial period (kW)."""
    return fs_harmonic(cfg, ev, 0)


def fs_harmonic(cfg: ErConfig, ev: EvParams, m) -> np.ndarray | float:
    """Real Fourier coefficient c_m of the load pulse train (kW).

    Phase convention: position measured from the pulse center, where the
    waveform is even; coefficients are then real (possibly negative) and
    the waveform is ``c_0 + 2 * sum_m c_m cos(m w0 t)``.  m may be an
    integer or an array of integers; c_0 equals :func:`fs_dc`.
    """
    ev.validate_against(cfg)
    out = fs_harmonic_grid(cfg, ev.rx_len_m, ev.peak_demand_kw, m)
    return out if np.ndim(m) else float(out)


def harmonic_bound(cfg: ErConfig, m) -> np.ndarray | float:
    """Demand-independent envelope ``alpha * D / (m pi)^2`` on |c_m|."""
    ma = np.asarray(m)
    if np.any(ma < 1):
        raise ValueError(f"m must be >= 1, got {m}")
    alpha = cfg.power_density_kw_per_m
    out = alpha * cfg.period_m / (ma * np.pi) ** 2
    return out if np.ndim(m) else float(out)


def harmonic_count_for_dc(cfg: ErConfig, dc_kw: float, tol_pp: float = 0.01) -> int:
    """Smallest M whose envelope-bounded spectral tail can add less than
    ``tol_pp`` percentage points to a THC with DC term ``dc_kw``.

    Uses ``sum_{m>M} m^-4 <= 1/(3 M^3)`` with the demand-independent
    envelope on |c_m|, so the returned M is conservative.
    """
    if dc_kw <= 0:
        return 1
    envelope = cfg.power_density_kw_per_m * cfg.period_m / np.pi**2
    # 100 * sqrt(2 * envelope^2 / (3 M^3)) / dc < tol_pp
    target = tol_pp / 100.0 * dc_kw / envelope
    m = int(np.ceil((2.0 / (3.0 * target * target)) ** (1.0 / 3.0)))
    return max(m, 1)


def default_harmonic_count(cfg: ErConfig, ev: EvParams, tol_pp: float = 0.01) -> int:
    """Default truncation order for one vehicle's THC (see
    :func:`harmonic_count_for_dc`)."""
    return harmonic_count_for_dc(cfg, fs_dc(cfg, ev), tol_pp)


def thc_single(
    cfg: ErConfig, ev: EvParams, n_harmonics: int | None = None
) -> float:
    """Total harmonic content of one vehicle's load, in percent.

    Defined as the RMS of the oscillatory part relative to the mean:
    ``100 * sqrt(2 * sum_m c_m^2) / c_0``.  In the constant-load regime the
    waveform has no ripple and the THC is exactly zero.
    """
    ev.validate_against(cfg)
    if constant_regime(cfg, ev):
        return 0.0
    if n_harmonics is None:
        n_harmonics = default_harmonic_count(cfg, ev)
    if n_harmonics < 1:
        raise ValueError(f"n_harmonics must be >= 1, got {n_harmonics}")
    c0 = fs_dc(cfg, ev)
    cm = fs_harmonic(cfg, ev, np.arange(1, n_harmonics + 1))
    return 100.0 * float(np.sqrt(2.0 * np.sum(cm * cm)) / c0)


@dataclass(frozen=True)
class FsCoefficients:
    """Truncated Fourier-series description of one vehicle's load."""

    c0_kw: float
    harmonics_kw: tuple[float, ...]  # c_m for m = 1..truncation_m
    fundamental_hz: float

    @property
    def truncation_m(self) -> int:
        return len(self.harmonics_kw)


def fs_coefficients(
    cfg: ErConfig, ev: EvParams, n_harmonics: int | None = None
) -> FsCoefficients:
    """Bundle c_0 and c_1..c_M for one vehicle (M defaults to the tail rule)."""
    ev.validate_against(cfg)
    if n_harmonics is None:
        n_harmonics = default_harmonic_count(cfg, ev)
    if n_harmonics < 1:
        raise ValueError(f"n_harmonics must be >= 1, got {n_harmonics}")
    cm = fs_harmonic(cfg, ev, np.arange(1, n_harmonics + 1))
    return FsCoefficients(
        c0_kw=fs_dc(cfg, ev),
        harmonics_kw=tuple(float(c) for c in np.atleast_1d(cm)),
        fundamental_hz=ev.fundamental_hz(cfg),
    )


@dataclass(frozen=True)
class SchemeComparison:
    """First-harmonic ripple ratios of the two converter control schemes."""

    clipping_ratio: float
    scaling_ratio: float
    lemma_applies: bool  # sufficient condition tx_len > period/2 held

    @property
    def clipping_wins(self) -> bool:
        return self.clipping_ratio <= self.scaling_ratio


def harmonic_ratio_clipping(cfg: ErConfig, ev: EvParams, m: int = 1) -> float:
    """|c_m| / c_0 under demand-clipping control (0 in the constant regime)."""
    if constant_regime(cfg, ev):
        return 0.0
    return abs(fs_harmonic(cfg, ev, m)) / fs_dc(cfg, ev)


def harmonic_ratio_scaling(cfg: ErConfig, ev: EvParams, m: int = 1) -> float:
    """|c_m| / c_0 when the converter scales the max-demand waveform down
    to meet the same mean; the ratio is demand-independent."""
    ref = EvParams(
        rx_len_m=ev.rx_len_m,
        peak_demand_kw=ev.max_demand_kw(cfg),
        speed_mps=ev.speed_mps,
    )
    return abs(fs_harmonic(cfg, ref, m)) / fs_dc(cfg, ref)


def compare_schemes(cfg: ErConfig, ev: EvParams, m: int = 1) -> SchemeComparison:
    """Compare first-harmonic ripple of clipping vs scaling control.

    When the coil is longer than half the period (duty cycle above one
    half), clipping never does worse; outside that condition the comparison
    is still computed but the guarantee does not apply.
    """
    ev.validate_against(cfg)
    return SchemeComparison(
        clipping_ratio=harmonic_ratio_clipping(cfg, ev, m),
        scaling_ratio=harmonic_ratio_scaling(cfg, ev, m),
        lemma_applies=cfg.tx_len_m > cfg.period_m / 2,
    )
