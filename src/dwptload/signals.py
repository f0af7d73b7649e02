"""Sampled aggregate-load series, empirical spectra, and ensemble checks.

This module turns scenarios into uniformly sampled time series, estimates
their power spectral densities, pulls out harmonic line powers, and runs
Monte Carlo ensembles whose averages can be compared against the
analytical line spectrum.

Conventions: PSDs are one-sided in kW^2/Hz; a reported *line power* is the
integrated one-sided power at that line divided by two, so it compares
directly to the squared Fourier coefficient |c_m|^2 of the underlying
periodic waveform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np
from scipy import signal as sps

from .fleet import FleetModel, demand_bounds
from .roadway import Clipping, ErConfig, EvParams, load_at_time
from .spectrum import fs_harmonic_grid
from .traffic import Scenario


@dataclass(frozen=True, eq=False)
class LoadSeries:
    """Uniformly sampled total load."""

    samples_kw: np.ndarray
    sample_rate_hz: float
    t0_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.sample_rate_hz > 0:
            raise ValueError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")

    @property
    def n_samples(self) -> int:
        return self.samples_kw.size

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz

    @property
    def times_s(self) -> np.ndarray:
        return self.t0_s + np.arange(self.n_samples) / self.sample_rate_hz

    @property
    def mean_kw(self) -> float:
        return float(np.mean(self.samples_kw)) if self.n_samples else 0.0


#: Samples per pulse evaluation: the temporaries of one block stay in cache.
_BLOCK = 8192


def _vehicle_blocks(
    cfg: ErConfig,
    ev: EvParams,
    window: tuple[float, float],
    sample_rate_hz: float,
    n: int,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(a, b, load)``: one vehicle's load at samples ``a`` to ``b - 1``
    of the ``n``-sample grid of ``window``, in blocks of at most ``_BLOCK``
    samples over its on-segment span (plus one sample either side)."""
    t0, t1 = window
    exit_time = ev.entry_time_s + ev.dwell_s(cfg)
    if exit_time <= t0 or ev.entry_time_s >= t1:
        return
    i0 = max(0, int(np.ceil((ev.entry_time_s - t0) * sample_rate_hz)) - 1)
    i1 = min(n, int(np.floor((exit_time - t0) * sample_rate_hz)) + 2)
    for a in range(i0, i1, _BLOCK):
        b = min(a + _BLOCK, i1)
        yield a, b, load_at_time(cfg, ev, Clipping(), t0 + np.arange(a, b) / sample_rate_hz)


def synthesize(
    scenario: Scenario,
    sample_rate_hz: float = 1000.0,
    window: Optional[tuple[float, float]] = None,
) -> LoadSeries:
    """Sample the total load (sum over vehicles) on a uniform grid.

    The window defaults to the whole scenario horizon.  Choose a sample
    rate comfortably above twice the highest harmonic you intend to read
    off the result; the clipped waveforms have spectral content rolling
    off only quadratically.  Each vehicle is evaluated over its
    on-segment span only, in blocks of a fixed number of samples, so the
    memory a vehicle needs beyond the output array is bounded by the
    block, however long the window.
    """
    if window is None:
        window = (0.0, scenario.duration_s)
    t0, t1 = window
    if not (0.0 <= t0 < t1):
        raise ValueError(f"bad window {window}")
    n = int(round((t1 - t0) * sample_rate_hz))
    total = np.zeros(n)
    for ev in scenario.evs:
        for a, b, load in _vehicle_blocks(scenario.cfg, ev, window, sample_rate_hz, n):
            total[a:b] += load
    return LoadSeries(samples_kw=total, sample_rate_hz=sample_rate_hz, t0_s=t0)


@dataclass(frozen=True, eq=False)
class PsdEstimate:
    """One-sided PSD estimate with enough context to interpret it."""

    freqs_hz: np.ndarray
    psd_kw2_per_hz: np.ndarray
    resolution_hz: float
    method: str
    series_mean_kw: float
    n_samples: int

    @property
    def nyquist_hz(self) -> float:
        return float(self.freqs_hz[-1])

    def integrated_power(self) -> float:
        """Sum over bins times bin width (compare to the series mean square)."""
        return float(np.sum(self.psd_kw2_per_hz) * self.resolution_hz)


def estimate_psd(
    series: LoadSeries,
    method: str = "welch",
    segment_s: float = 8.0,
    overlap_frac: float = 0.5,
    window: str = "hann",
) -> PsdEstimate:
    """Periodogram or Welch PSD of a load series (one-sided, kW^2/Hz).

    Welch trades resolution for variance; the defaults (Hann, 8 s
    segments, 50% overlap) resolve the per-speed fundamentals of typical
    highway scenarios while smoothing finite-length scatter.
    """
    fs = series.sample_rate_hz
    x = series.samples_kw
    if method == "periodogram":
        freqs, psd = sps.periodogram(x, fs=fs, detrend=False)
    elif method == "welch":
        nperseg = int(round(segment_s * fs))
        if nperseg < 2:
            raise ValueError(f"segment_s too short: {segment_s}")
        if nperseg > x.size:
            raise ValueError(
                f"segment of {nperseg} samples longer than series of {x.size}"
            )
        noverlap = int(round(overlap_frac * nperseg))
        freqs, psd = sps.welch(
            x,
            fs=fs,
            window=window,
            nperseg=nperseg,
            noverlap=noverlap,
            detrend=False,
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    return PsdEstimate(
        freqs_hz=freqs,
        psd_kw2_per_hz=psd,
        resolution_hz=float(freqs[1] - freqs[0]),
        method=method,
        series_mean_kw=series.mean_kw,
        n_samples=x.size,
    )


@dataclass(frozen=True)
class Peak:
    """One expected harmonic line and what the estimate shows there."""

    fundamental_hz: float
    m: int
    target_hz: float
    freq_hz: float
    line_power_kw2: float  # integrated power / 2, comparable to |c_m|^2
    resolved: bool


def detect_peaks(
    psd: PsdEstimate,
    expected_fundamentals: Sequence[float],
    m_max: int,
    halfwidth_bins: int = 3,
) -> list[Peak]:
    """Locate the harmonic lines of each fundamental in a PSD estimate.

    For every target ``m * f`` (m = 1..m_max) within Nyquist, reports the
    local maximum within 1.5 bins of the target and the line power
    integrated over ±halfwidth_bins around it.  A peak is flagged
    unresolved when another target sits within two integration widths, in
    which case the two lines share bins and their powers blend.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    df = psd.resolution_hz
    targets = [
        (f0, m, m * f0)
        for f0 in expected_fundamentals
        for m in range(1, m_max + 1)
        if m * f0 <= psd.nyquist_hz
    ]
    target_bins = [int(round(t / df)) for _, _, t in targets]
    peaks: list[Peak] = []
    for i, ((f0, m, t_hz), bin_t) in enumerate(zip(targets, target_bins)):
        lo = max(bin_t - 1, 0)
        hi = min(bin_t + 1, psd.freqs_hz.size - 1)
        peak_bin = lo + int(np.argmax(psd.psd_kw2_per_hz[lo : hi + 1]))
        a = max(peak_bin - halfwidth_bins, 0)
        b = min(peak_bin + halfwidth_bins, psd.freqs_hz.size - 1)
        power = float(np.sum(psd.psd_kw2_per_hz[a : b + 1]) * df / 2.0)
        crowded = any(
            j != i and abs(other - bin_t) < 2 * halfwidth_bins
            for j, other in enumerate(target_bins)
        )
        peaks.append(
            Peak(
                fundamental_hz=f0,
                m=m,
                target_hz=t_hz,
                freq_hz=float(psd.freqs_hz[peak_bin]),
                line_power_kw2=power,
                resolved=not crowded,
            )
        )
    return peaks


def harmonic_line_powers(
    series: LoadSeries, fundamental_hz: float, m_max: int
) -> np.ndarray:
    """Squared projections |c_m|^2 (m = 1..m_max) onto one harmonic set.

    The series is trimmed to a whole number of fundamental periods before
    projecting, which suppresses spectral leakage from the DC term and
    from the line itself.
    """
    return _line_powers(series.samples_kw, series.sample_rate_hz, fundamental_hz, m_max)


def _line_powers(
    rows: np.ndarray, sample_rate_hz: float, fundamental_hz: float, m_max: int
) -> np.ndarray:
    """:func:`harmonic_line_powers` of each series along the last axis of
    ``rows``, all sampled at ``sample_rate_hz`` from one start time: the
    powers have shape ``rows.shape[:-1] + (m_max,)``, and the exponential
    is built once for all of them."""
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    fs = sample_rate_hz
    n = rows.shape[-1]
    n_cycles = int(np.floor(n / fs * fundamental_hz + 1e-12))
    if n_cycles < 1:
        raise ValueError("series shorter than one fundamental period")
    n_trim = min(n, int(round(n_cycles / fundamental_hz * fs)))
    t = np.arange(n_trim) / fs
    x = rows[..., :n_trim]
    z = np.exp(-2j * np.pi * fundamental_hz * t)
    powers = np.empty(rows.shape[:-1] + (m_max,))
    zm = np.ones_like(z)
    for i in range(m_max):
        zm = zm * z
        # Two real matrix-vector products: no complex temporary of x's shape.
        re = (x @ zm.real) / n_trim
        im = (x @ zm.imag) / n_trim
        powers[..., i] = re * re + im * im
    return powers


def _thc(
    rows: np.ndarray, sample_rate_hz: float, fundamentals: Sequence[float], m_max: int
) -> np.ndarray:
    """:func:`empirical_thc` (series route) of each series along the last
    axis of ``rows``, in percent, with shape ``rows.shape[:-1]``."""
    dc = rows.mean(axis=-1)
    if not np.all(dc):
        raise ValueError("series has zero mean; THC undefined")
    total = sum(
        _line_powers(rows, sample_rate_hz, f0, m_max).sum(axis=-1) for f0 in fundamentals
    )
    return 100.0 * np.sqrt(2.0 * total) / dc


def empirical_thc(
    source: Union[LoadSeries, PsdEstimate],
    fundamentals: Sequence[float],
    m_max: int,
) -> float:
    """Total harmonic content of a measured load, in percent.

    Sums line powers over every harmonic set in ``fundamentals`` and
    normalizes by the squared time-domain mean (not a DC bin, which
    windowing would bias).  Accepts either a series (projection route) or
    a PSD estimate (peak-integration route).
    """
    if isinstance(source, LoadSeries):
        if not source.n_samples:
            raise ValueError("series has zero mean; THC undefined")
        return float(_thc(source.samples_kw, source.sample_rate_hz, fundamentals, m_max))
    dc = source.series_mean_kw
    if dc == 0:
        raise ValueError("underlying series has zero mean; THC undefined")
    peaks = detect_peaks(source, fundamentals, m_max)
    total = sum(p.line_power_kw2 for p in peaks)
    return 100.0 * float(np.sqrt(2.0 * total) / dc)


# --- Period-exact coefficients and Monte Carlo ensembles ------------------


def period_coefficients(
    cfg: ErConfig, rx_len_m: float, demand_kw: float, m_max: int
) -> np.ndarray:
    """Fourier coefficients c_0..c_m_max of one vehicle's periodic load.

    The phase origin is the start of a coil: these are the real
    closed-form coefficients of :func:`fs_harmonic_grid`, whose origin is
    the pulse center ``L / 2`` with ``L = rx_len + tx_len``, times the
    shift ``exp(-i pi m L / D)``.
    """
    m = np.arange(m_max + 1)
    shift = np.exp(-1j * np.pi * m * (rx_len_m + cfg.tx_len_m) / cfg.period_m)
    return fs_harmonic_grid(cfg, rx_len_m, demand_kw, m) * shift


@dataclass(frozen=True, eq=False)
class EnsemblePsd:
    """Monte Carlo estimate of the aggregate line powers E[|c_m|^2]."""

    line_powers_kw2: np.ndarray  # m = 0..m_max
    stderr_kw2: np.ndarray
    fundamental_hz: float
    trials: int


def monte_carlo_psd(
    model: FleetModel,
    trials: int,
    seed: int,
    m_max: int = 5,
) -> EnsemblePsd:
    """Ensemble-average the aggregate line powers over random entry phases.

    Each trial draws every vehicle's class, demand, and in-period phase
    (i.i.d. uniform, the stationarity hypothesis), forms the aggregate
    coefficient sum c_m = sum_n c_{m,n} e^{-2pi i m u_n}, and averages
    |c_m|^2 across trials.  Point-demand classes use the coil-start-phase
    coefficients of :func:`period_coefficients`; continuous-demand classes
    evaluate the real closed form of :func:`fs_harmonic_grid` at the
    sampled demands, without the coil-start phase shift.

    Trials are drawn in chunks of ``4_000_000 // (n_evs (m_max + 1))``.
    Each chunk draws, in this order, the classes of all its vehicles, their
    phases ``u``, then the demands of each present continuous class in
    class order.  The harmonics are then taken one at a time, with
    ``e^{-2pi i m u}`` carried as a running product of ``e^{-2pi i u}``, so
    every work array is ``(chunk, n_evs)``: none has a harmonic axis.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    rng = np.random.default_rng(seed)
    cfg = model.cfg
    n = model.n_evs
    g_count = len(model.classes)
    probs = np.array([c.prob for c in model.classes])
    bounds = [demand_bounds(c.demand_dist, cfg, c.rx_len_m) for c in model.classes]
    # Coil-start-phase coefficients of each point-demand class, c_0..c_m_max.
    point = [
        period_coefficients(cfg, c.rx_len_m, hi, m_max) if hi == lo else None
        for c, (lo, hi) in zip(model.classes, bounds)
    ]

    # The (m_max + 1) divisor no longer bounds memory; it stays so that the
    # draw stream (classes, u, demands per chunk) is unchanged for a seed.
    chunk = max(1, min(trials, 4_000_000 // (n * (m_max + 1))))
    p_sum = np.zeros(m_max + 1)
    p_sumsq = np.zeros(m_max + 1)
    done = 0
    while done < trials:
        t_here = min(chunk, trials - done)
        cls = rng.choice(g_count, p=probs, size=(t_here, n)).ravel()
        u = rng.random((t_here, n))
        members = []  # (class, flat indices into the chunk, demands or None)
        for g in range(g_count):
            idx = np.flatnonzero(cls == g)
            if not idx.size:
                continue
            lo, hi = bounds[g]
            demands = None if point[g] is not None else rng.uniform(lo, hi, size=idx.size)
            members.append((g, idx, demands))
        z = np.exp(-2j * np.pi * u)
        zk = np.ones_like(z)
        coeff = np.empty(t_here * n, dtype=complex)
        for k in range(m_max + 1):
            for g, idx, demands in members:
                if demands is None:
                    coeff[idx] = point[g][k]
                else:
                    coeff[idx] = fs_harmonic_grid(
                        cfg, model.classes[g].rx_len_m, demands, k
                    )
            agg = np.sum(coeff.reshape(t_here, n) * zk, axis=1)
            power = np.abs(agg) ** 2
            p_sum[k] += power.sum()
            p_sumsq[k] += (power * power).sum()
            zk *= z
        done += t_here
    mean = p_sum / trials
    var = np.maximum(p_sumsq - trials * mean * mean, 0.0) / (trials - 1)
    stderr = np.sqrt(var / trials)
    return EnsemblePsd(
        line_powers_kw2=mean,
        stderr_kw2=stderr,
        fundamental_hz=model.fundamental_hz,
        trials=trials,
    )
