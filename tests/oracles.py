"""Independent numerical oracles used across the test suite.

Everything here recomputes quantities from first principles -- geometric
coil overlap; composite quadrature and exact piecewise integration,
which ``dwptload.invariants`` holds and this module re-exports -- or by
the slower formulations the package used before: the pulse by branch
selection or as one expression of new arrays, uniform-demand moments
by adaptive quadrature, coil-start-phase coefficients by the DFT of a densely sampled period,
the pulse kernel's chain before it dropped its divide, synthesis by
one ``np.mod`` pulse call per vehicle over its whole span
or by masked ``load_at_time`` calls per vehicle and block, Welch on
the whole series in memory, the
composition sweep by one scenario per row, the class moments by one
scalar harmonic at a time, the lines of ``psd --analytic`` by one point
class per distinct vehicle, the Monte Carlo ensemble
on dense (trials, vehicles, harmonics) arrays or on chunk-wide (trials,
vehicles) arrays, traffic classes by
``Generator.choice``, each traffic draw by its argument-checked
``Generator`` call, the checks, trajectory CSV and JSON document of
a scenario's vehicles by one ``EvParams`` per vehicle, JSON text by
``json.dumps`` of the whole document, and CSV cells one call each.  The package is
thus checked against a second, structurally different derivation rather
than against itself.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math

import numpy as np
from scipy import integrate
from scipy.stats import qmc

from dwptload import (
    Clipping,
    EnsemblePsd,
    ErConfig,
    EvClass,
    EvParams,
    FleetModel,
    IngestedFile,
    IngestError,
    LoadSeries,
    MaxDemand,
    Scenario,
    SweepConfig,
    Synthetic,
    TrafficClass,
    TrafficSpec,
    UniformExplicit,
    VehicleTable,
    analytic_psd,
    constant_regime,
    demand_bounds,
    empirical_thc,
    fs_harmonic,
    fs_harmonic_grid,
    load_at_time,
    period_coefficients,
    sample_demand,
)
from dwptload.composition import matched_counts, truck_count_schedules
from dwptload.invariants import fourier_coeffs_quadrature, mean_square_exact, pulse_kinks
from dwptload.signals import _BLOCK, _phasor, _thc
from dwptload.schema import to_dict
from dwptload.spectrum import _stepped_rows
from dwptload.traffic import CSV_FIELDS, covering_entry_time, max_covering_periods


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
    by adaptive quadrature of the point coefficient over the share
    ``s = (p - lo) / (hi - lo)`` of the interval: on [0, 1], so that the
    integral of demands of 1e-105 kW does not go subnormal, as it would
    over [lo, hi]."""

    def f(s: float) -> float:
        c = fs_harmonic(cfg, EvParams(rx_len_m, lo + (hi - lo) * s, 1.0), m)
        return c * c if squared else c

    if hi == lo:
        return f(0.0)
    # The coefficient formulas switch branch at the constant-load threshold.
    threshold = cfg.power_density_kw_per_m * (rx_len_m - cfg.gap_m)
    pts = [(threshold - lo) / (hi - lo)] if lo < threshold < hi else None
    val, _ = integrate.quad(
        f, 0.0, 1.0, points=pts, limit=300, epsabs=0.0, epsrel=1e-11
    )
    return val


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


def pulse_expression(
    cfg: ErConfig, rx_len_m: float, demand_kw: float, xm: np.ndarray
) -> np.ndarray:
    """The clipped-trapezoid pulse at in-period positions ``xm``, written
    as one expression whose every step makes a new array, as the package
    wrote it before it evaluated the pulse in place."""
    alpha = cfg.power_density_kw_per_m
    span = cfg.tx_len_m + rx_len_m
    return np.clip(
        alpha * np.minimum(xm, span - xm),
        alpha * max(rx_len_m - cfg.gap_m, 0.0),
        demand_kw,
    )


def pulse_at_expression(
    cfg: ErConfig, rx_len_m: float, demand_kw: float, x: np.ndarray
) -> np.ndarray:
    """The pulse kernel's chain at segment positions ``x``, written as one
    expression of new arrays: the phase ``u = x * (1/D)``, the in-period
    overlap power ``z = (u - floor(u)) * alpha D``, then
    ``clip(min(z, alpha (tx + rx) - z), alpha max(rx - gap, 0), demand)``."""
    alpha = cfg.power_density_kw_per_m
    u = x * (1.0 / cfg.period_m)
    z = (u - np.floor(u)) * (alpha * cfg.period_m)
    return np.clip(
        np.minimum(z, alpha * (cfg.tx_len_m + rx_len_m) - z),
        alpha * max(rx_len_m - cfg.gap_m, 0.0),
        demand_kw,
    )


def divided_pulse_at_expression(
    cfg: ErConfig, rx_len_m: float, demand_kw: float, x: np.ndarray
) -> np.ndarray:
    """:func:`pulse_expression` at segment positions ``x``, with the
    in-period position ``(u - floor(u)) * D`` from the phase ``u = x / D``:
    the package's chain before it multiplied by ``1/D`` and scaled the
    phase by ``alpha D`` in one step."""
    u = x / cfg.period_m
    return pulse_expression(cfg, rx_len_m, demand_kw, (u - np.floor(u)) * cfg.period_m)


def mod_load_at_time(cfg: ErConfig, ev: EvParams, t: np.ndarray) -> np.ndarray:
    """Clipping load at times ``t``, with the in-period position taken by
    the float ``np.mod`` of the position, as the package once did."""
    ev.validate_against(cfg)
    x = ev.speed_mps * (np.asarray(t, dtype=float) - ev.entry_time_s)
    on = (x >= 0) & (x < cfg.energized_len_m)
    xm = np.where(on, np.mod(x, cfg.period_m), 0.0)
    return np.where(on, pulse_expression(cfg, ev.rx_len_m, ev.peak_demand_kw, xm), 0.0)


def padded_span(
    cfg: ErConfig, ev: EvParams, window: tuple[float, float], sample_rate_hz: float, n: int
) -> tuple[int, int]:
    """Samples ``[i0, i1)`` of the ``n``-sample grid of ``window`` that cover
    the vehicle's on-segment interval, from its entry and exit times, plus
    one sample either side; empty (``i0 >= i1``) when it leaves well before
    the window or enters after it.

    The package once also skipped every vehicle whose exit time was at or
    before the window start.  When ``entry + dwell`` rounds onto the start
    while the first sample's position is still just short of the segment
    end, that dropped a sample ``load_at_time`` puts on the segment; the
    padding alone keeps it.
    """
    t0 = window[0]
    exit_time = ev.entry_time_s + ev.dwell_s(cfg)
    i0 = max(0, int(np.ceil((ev.entry_time_s - t0) * sample_rate_hz)) - 1)
    i1 = min(n, int(np.floor((exit_time - t0) * sample_rate_hz)) + 2)
    return i0, max(i0, i1)


def unblocked_synthesize(
    scenario: Scenario, sample_rate_hz: float, window: tuple[float, float]
) -> LoadSeries:
    """Total load with each vehicle's whole span sampled in one call, on a
    full-length time array, by :func:`mod_load_at_time`."""
    t0, t1 = window
    n = int(round((t1 - t0) * sample_rate_hz))
    total = np.zeros(n)
    times = t0 + np.arange(n) / sample_rate_hz
    for ev in scenario.evs:
        i0, i1 = padded_span(scenario.cfg, ev, window, sample_rate_hz, n)
        total[i0:i1] += mod_load_at_time(scenario.cfg, ev, times[i0:i1])
    return LoadSeries(samples_kw=total, sample_rate_hz=sample_rate_hz, t0_s=t0)


def blocked_synthesize(
    scenario: Scenario, sample_rate_hz: float, window: tuple[float, float]
) -> LoadSeries:
    """Total load vehicle by vehicle, each over its :func:`padded_span` in
    blocks of ``_BLOCK`` samples that build their own times and go through
    the validated, masked :func:`dwptload.load_at_time`: the package's
    sampling before it took exact spans on shared block times."""
    t0, t1 = window
    n = int(round((t1 - t0) * sample_rate_hz))
    total = np.zeros(n)
    for ev in scenario.evs:
        i0, i1 = padded_span(scenario.cfg, ev, window, sample_rate_hz, n)
        for a in range(i0, i1, _BLOCK):
            b = min(a + _BLOCK, i1)
            times = t0 + np.arange(a, b) / sample_rate_hz
            total[a:b] += load_at_time(scenario.cfg, ev, Clipping(), times)
    return LoadSeries(samples_kw=total, sample_rate_hz=sample_rate_hz, t0_s=t0)


def in_memory_welch(
    x: np.ndarray, fs: float, win: np.ndarray, nperseg: int, noverlap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Textbook Welch density of the whole series ``x`` held in memory:
    every segment of a strided view of ``x`` windowed and transformed in
    one call, and ``|X|^2`` summed over the segments in segment order, the
    last entry of their running sum."""
    segments = np.lib.stride_tricks.sliding_window_view(x, nperseg)[:: nperseg - noverlap]
    spec = np.fft.rfft(segments * win, axis=-1)
    power = np.cumsum(spec.real**2 + spec.imag**2, axis=0)[-1]
    psd = power / (len(segments) * fs * np.sum(win * win))
    psd[1 : None if nperseg % 2 else -1] *= 2.0
    return np.fft.rfftfreq(nperseg, 1.0 / fs), psd


def per_row_sweep(sw: SweepConfig, seed: int) -> np.ndarray:
    """Per-window THC of every sweep cell, (n_thetas, n_cols, n_windows),
    with every row built as its own validated ``Scenario``, synthesized by
    :func:`unblocked_synthesize` and projected on its own."""
    fundamentals = (sw.truck_speed_mps / sw.cfg.period_m, sw.sedan_speed_mps / sw.cfg.period_m)
    thc = np.empty((len(sw.thetas), len(sw.columns), sw.n_windows))
    for w, j, rows in per_row_series(sw, seed, unblocked_synthesize):
        for i, series in enumerate(rows):
            thc[i, j, w] = empirical_thc(series, fundamentals, sw.m_max)
    return thc


def blocked_sweep(sw: SweepConfig, seed: int) -> np.ndarray:
    """:func:`per_row_sweep` with every row synthesized by
    :func:`blocked_synthesize` and the rows of a (window, column) projected
    together.  Each row sums its vehicles in the slot order of
    :func:`dwptload.run_sweep`, so this is, number for number, the
    slot-shared sweep before it took exact spans."""
    fundamentals = (sw.truck_speed_mps / sw.cfg.period_m, sw.sedan_speed_mps / sw.cfg.period_m)
    thc = np.empty((len(sw.thetas), len(sw.columns), sw.n_windows))
    for w, j, rows in per_row_series(sw, seed, blocked_synthesize):
        stacked = np.stack([series.samples_kw for series in rows])
        fs, n = sw.sample_rate_hz, stacked.shape[-1]
        phasors = [_phasor(n, fs, f0) for f0 in fundamentals]
        thc[:, j, w] = _thc(stacked, phasors, sw.m_max)
    return thc


def per_row_series(sw: SweepConfig, seed: int, synthesize):
    """Yield ``(w, j, rows)``: the series of every penetration row of window
    ``w`` and column ``j``, each row built as its own validated
    ``Scenario`` and sampled by ``synthesize``.  Draws the same random
    numbers in the same order as :func:`dwptload.run_sweep`."""
    cfg = sw.cfg
    alpha = cfg.power_density_kw_per_m
    t0 = sw.window_start_s
    window = (t0, t0 + sw.window_s)
    k_truck = max_covering_periods(cfg, sw.truck_speed_mps, window)
    k_sedan = max_covering_periods(cfg, sw.sedan_speed_mps, window)
    truck_demand = alpha * sw.truck_rx_len_m

    n_thetas = len(sw.thetas)
    n_cols = len(sw.columns)
    counts = np.array([matched_counts(sw, c) for c in sw.columns]).T
    n_max = int(counts.max())
    schedules = np.empty((n_thetas, n_cols, sw.n_windows), dtype=int)
    for j in range(n_cols):
        schedules[:, j, :] = truck_count_schedules(sw.thetas, counts[:, j], sw.n_windows)
    bounds = [demand_bounds(c.demand_dist, cfg, c.rx_len_m) for c in sw.columns]

    rng = np.random.default_rng(seed)
    pools = []
    for _ in range(n_cols):
        sob = qmc.Sobol(d=2 * n_max, scramble=True, seed=rng)
        pools.append(sob.random_base2(max(1, int(np.ceil(np.log2(sw.n_windows))))))
    for w in range(sw.n_windows):
        for j, col in enumerate(sw.columns):
            lo, hi = bounds[j]
            u_phase = pools[j][w, :n_max]
            u_demand = pools[j][w, n_max:]
            u_k = rng.random(n_max)
            rows = []
            for i, theta in enumerate(sw.thetas):
                n = int(counts[i, j])
                n_trucks = int(schedules[i, j, w])
                evs = []
                for s in range(n_trucks):
                    k = int(u_k[s] * (k_truck + 1))
                    entry = covering_entry_time(
                        cfg, sw.truck_speed_mps, window, u_phase[s], k
                    )
                    evs.append(
                        EvParams(sw.truck_rx_len_m, truck_demand, sw.truck_speed_mps, entry)
                    )
                for s in range(n_max - (n - n_trucks), n_max):
                    k = int(u_k[s] * (k_sedan + 1))
                    entry = covering_entry_time(
                        cfg, sw.sedan_speed_mps, window, u_phase[s], k
                    )
                    demand = lo + (hi - lo) * u_demand[s]
                    evs.append(EvParams(col.rx_len_m, demand, sw.sedan_speed_mps, entry))
                spec = TrafficSpec(
                    rate_evps=n / window[1],
                    duration_s=window[1],
                    classes=(
                        TrafficClass(
                            sw.truck_rx_len_m, theta, sw.truck_speed_mps, MaxDemand()
                        ),
                        TrafficClass(
                            col.rx_len_m, 1.0 - theta, sw.sedan_speed_mps, col.demand_dist
                        ),
                    ),
                )
                table = VehicleTable.from_evs(evs)
                scenario = Scenario(cfg, table, window[1], seed, Synthetic(spec))
                rows.append(synthesize(scenario, sw.sample_rate_hz, window))
            yield w, j, rows


def dense_monte_carlo_psd(
    model: FleetModel, trials: int, seed: int, m_max: int = 5
) -> EnsemblePsd:
    """Monte Carlo line powers from a (trials, vehicles, harmonics) array of
    coefficients per draw chunk, with every ``e^{-2pi i m u}`` computed
    directly.  Draws the same random numbers in the same order as
    :func:`dwptload.monte_carlo_psd`."""
    rng = np.random.default_rng(seed)
    cfg = model.cfg
    n = model.n_evs
    g_count = len(model.classes)
    probs = np.array([c.prob for c in model.classes])
    m = np.arange(m_max + 1)
    chunk = max(1, min(trials, 4_000_000 // (n * (m_max + 1))))
    scale = square_scale(model)
    p_sum = np.zeros(m_max + 1)
    p_sumsq = np.zeros(m_max + 1)
    done = 0
    while done < trials:
        t_here = min(chunk, trials - done)
        cls = rng.choice(g_count, p=probs, size=(t_here, n))
        u = rng.random((t_here, n))
        coeff = np.zeros((t_here, n, m_max + 1), dtype=complex)
        for g, c in enumerate(model.classes):
            mask = cls == g
            if not mask.any():
                continue
            lo, hi = demand_bounds(c.demand_dist, cfg, c.rx_len_m)
            if hi == lo:
                coeff[mask] = period_coefficients(cfg, c.rx_len_m, hi, m_max)
            else:
                demands = rng.uniform(lo, hi, size=int(mask.sum()))
                coeff[mask] = fs_harmonic_grid(cfg, c.rx_len_m, demands, m)
        agg = np.sum(coeff * np.exp(-2j * np.pi * u[:, :, None] * m), axis=1)
        power = np.abs(agg) ** 2
        p_sum += power.sum(axis=0)
        p_sumsq += ((power * scale) ** 2).sum(axis=0)
        done += t_here
    return scaled_ensemble(model, trials, p_sum, p_sumsq, scale)


def chunked_monte_carlo_psd(
    model: FleetModel, trials: int, seed: int, m_max: int = 5
) -> EnsemblePsd:
    """Monte Carlo line powers with every work array as wide as a draw
    chunk: classes by ``Generator.choice``, chunk-wide int64 index arrays
    per class, and the harmonics stepped on (chunk, vehicles) arrays.
    Draws the same random numbers in the same order as
    :func:`dwptload.monte_carlo_psd` and performs the same floating-point
    operations on every trial, so its lines are equal bit for bit."""
    rng = np.random.default_rng(seed)
    cfg = model.cfg
    n = model.n_evs
    g_count = len(model.classes)
    probs = np.array([c.prob for c in model.classes])
    bounds = [demand_bounds(c.demand_dist, cfg, c.rx_len_m) for c in model.classes]
    point = [
        period_coefficients(cfg, c.rx_len_m, hi, m_max) if hi == lo else None
        for c, (lo, hi) in zip(model.classes, bounds)
    ]
    chunk = max(1, min(trials, 4_000_000 // (n * (m_max + 1))))
    scale = square_scale(model)
    p_sum = np.zeros(m_max + 1)
    p_sumsq = np.zeros(m_max + 1)
    done = 0
    while done < trials:
        t_here = min(chunk, trials - done)
        cls = rng.choice(g_count, p=probs, size=(t_here, n)).ravel()
        u = rng.random((t_here, n))
        members = []  # (class, flat indices into the chunk, rows or None)
        for g in range(g_count):
            idx = np.flatnonzero(cls == g)
            if not idx.size:
                continue
            lo, hi = bounds[g]
            rows = None
            if point[g] is None:
                demands = rng.uniform(lo, hi, size=idx.size)
                rows = _stepped_rows(cfg, model.classes[g].rx_len_m, demands, m_max)
            members.append((g, idx, rows))
        t = np.tan(-np.pi * u)
        z = (1.0 - t * t + 2j * t) / (1.0 + t * t)
        zk = np.ones_like(z)
        coeff = np.empty(t_here * n, dtype=complex)
        per_trial = coeff.reshape(t_here, n)
        for k in range(m_max + 1):
            for g, idx, rows in members:
                coeff[idx] = point[g][k] if rows is None else next(rows)
            per_trial *= zk
            power = np.abs(per_trial.sum(axis=1)) ** 2
            p_sum[k] += power.sum()
            p_sumsq[k] += ((power * scale) ** 2).sum()
            zk *= z
        done += t_here
    return scaled_ensemble(model, trials, p_sum, p_sumsq, scale)


def square_scale(model: FleetModel) -> float:
    """``2**-e`` for the binary exponent ``e`` of the largest line power
    a trial can have, ``(n max demand)^2``: the squares of powers times it
    neither underflow for tiny demands nor overflow."""
    hi = max(demand_bounds(c.demand_dist, model.cfg, c.rx_len_m)[1] for c in model.classes)
    return 2.0 ** -math.frexp((model.n_evs * hi) ** 2)[1]


def scaled_ensemble(
    model: FleetModel, trials: int, p_sum: np.ndarray, p_sumsq: np.ndarray, scale: float
) -> EnsemblePsd:
    """Lines and standard errors from the sums of the trials' powers and
    of the squares of the powers times ``scale``."""
    mean = p_sum / trials
    scaled = mean * scale
    var = np.maximum(p_sumsq - trials * scaled * scaled, 0.0) / (trials - 1)
    return EnsemblePsd(mean, np.sqrt(var / trials) / scale, model.fundamental_hz, trials)


def choice_generate(cfg: ErConfig, spec: TrafficSpec, seed: int) -> tuple[EvParams, ...]:
    """Vehicles of :func:`dwptload.generate`, with each class drawn by
    ``Generator.choice``."""
    rng = np.random.default_rng(seed)
    probs = np.array([c.prob for c in spec.classes])
    evs: list[EvParams] = []
    t = 0.0
    while spec.rate_evps > 0:
        t += rng.exponential(1.0 / spec.rate_evps)
        if t >= spec.duration_s:
            break
        c = spec.classes[int(rng.choice(len(spec.classes), p=probs))]
        demand = sample_demand(c.demand_dist, rng, cfg, c.rx_len_m)
        evs.append(EvParams(c.rx_len_m, demand, c.speed_mps, t, c.class_id))
    return tuple(evs)


def checked_generate(cfg: ErConfig, spec: TrafficSpec, seed: int) -> VehicleTable:
    """Vehicles of :func:`dwptload.generate`, each draw made by its
    argument-checked ``Generator`` call: the gap by ``exponential(1 /
    rate)``, the class by one ``random()`` against the cumulative
    probabilities, and a demand on an interval by ``uniform(lo, hi)``."""
    rng = np.random.default_rng(seed)
    bounds = [demand_bounds(c.demand_dist, cfg, c.rx_len_m) for c in spec.classes]
    cdf = np.cumsum([c.prob for c in spec.classes])
    cdf = (cdf / cdf[-1]).tolist()
    entries, kinds, demands = [], [], []
    t = 0.0
    while spec.rate_evps > 0:
        t += rng.exponential(1.0 / spec.rate_evps)
        if t >= spec.duration_s:
            break
        k = bisect.bisect_right(cdf, rng.random())
        lo, hi = bounds[k]
        entries.append(t)
        kinds.append(k)
        demands.append(hi if hi == lo else float(rng.uniform(lo, hi)))
    return VehicleTable.from_classes(spec.classes, kinds, entries, demands)


# --- scenario vehicles, one EvParams per vehicle ---------------------------


def rowwise_evs(
    entry_time_s, speed_mps, rx_len_m, peak_demand_kw, class_id
) -> tuple[EvParams, ...]:
    """One ``EvParams`` per row of the columns, in order; the first that
    cannot be built raises its message as ``ev[i]: ...``."""
    evs = []
    for i, (entry, speed, rx, demand, cid) in enumerate(
        zip(entry_time_s, speed_mps, rx_len_m, peak_demand_kw, class_id)
    ):
        try:
            evs.append(EvParams(float(rx), float(demand), float(speed), float(entry), cid))
        except ValueError as exc:
            raise ValueError(f"ev[{i}]: {exc}") from None
    return tuple(evs)


def rowwise_scenario_checks(cfg: ErConfig, evs, duration_s: float) -> None:
    """The vehicle loop ``Scenario.__post_init__`` ran per vehicle, with each
    roadway message given as ``ev[i]: ...``."""
    for i, ev in enumerate(evs):
        try:
            ev.validate_against(cfg)
        except ValueError as exc:
            raise ValueError(f"ev[{i}]: {exc}") from None
        if not 0 <= ev.entry_time_s < duration_s:
            raise ValueError(
                f"ev[{i}] entry time {ev.entry_time_s} outside [0, {duration_s})"
            )


def rowwise_ingest(path: str, cfg: ErConfig) -> Scenario:
    """:func:`dwptload.ingest` one line at a time: each content line through
    its own ``csv.reader`` and one ``EvParams`` per row."""
    with open(path, "r", encoding="utf-8") as f:
        raw = f.readlines()
    numbered = [
        (i + 1, line)
        for i, line in enumerate(raw)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not numbered:
        raise IngestError(f"{path}: no header row found")
    header_no, header_line = numbered[0]
    header = [h.strip() for h in next(csv.reader([header_line]))]
    if tuple(header[:4]) != CSV_FIELDS or len(header) > 5 or (
        len(header) == 5 and header[4] != "class_id"
    ):
        raise IngestError(
            f"{path}:{header_no}: bad header {header!r}; expected "
            f"{','.join(CSV_FIELDS)}[,class_id]"
        )
    evs: list[EvParams] = []
    duration = 0.0
    for lineno, line in numbered[1:]:
        row = next(csv.reader([line]))
        if len(row) != len(header):
            raise IngestError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            entry, speed, rx_len, demand = (float(v) for v in row[:4])
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from exc
        class_id = row[4].strip() if len(row) == 5 and row[4].strip() else None
        if not entry >= 0:
            raise IngestError(f"{path}:{lineno}: entry_time_s must be >= 0, got {entry}")
        try:
            ev = EvParams(rx_len, demand, speed, entry, class_id)
            ev.validate_against(cfg)
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from exc
        end = max(entry + 1.0, entry + ev.dwell_s(cfg))
        if not (math.isfinite(end) and end > entry):
            raise IngestError(
                f"{path}:{lineno}: no finite horizon after entry_time_s {entry} "
                f"at speed_mps {speed}"
            )
        evs.append(ev)
        duration = max(duration, end)
    return Scenario(cfg, VehicleTable.from_evs(evs), duration, None, IngestedFile(path))


def rowwise_scenario_csv(scenario: Scenario) -> bytes:
    """The trajectory CSV of :func:`dwptload.write_scenario_csv`, written one
    vehicle at a time by ``csv.writer``."""
    with_class = any(ev.class_id is not None for ev in scenario.evs)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS + (("class_id",) if with_class else ()))
    for ev in scenario.evs:
        row = [repr(getattr(ev, name)) for name in CSV_FIELDS]
        if with_class:
            row.append(ev.class_id if ev.class_id is not None else "")
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def rowwise_scenario_dict(scenario: Scenario) -> dict:
    """The JSON document of a scenario, its vehicles converted one
    ``EvParams`` at a time."""
    doc = {name: to_dict(getattr(scenario, name)) for name in ("cfg", "duration_s", "seed")}
    doc["provenance"] = to_dict(scenario.provenance)
    doc["evs"] = [to_dict(ev) for ev in scenario.evs]
    return doc


def float_bits(evs: VehicleTable) -> list[list[int]]:
    """The float columns of ``evs`` as the int64 views of their bits, so
    that -0.0 and 0.0 differ, as they do not under ``VehicleTable ==``."""
    return [getattr(evs, name).view(np.int64).tolist() for name in CSV_FIELDS]


def json_text(obj) -> str:
    """``json.dumps(to_dict(obj), indent=2, sort_keys=True)``, with the
    items of a dict, list or tuple converted by ``to_dict`` too."""

    def doc(x):
        if isinstance(x, dict):
            return {k: doc(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [doc(v) for v in x]
        return to_dict(x)

    return json.dumps(doc(obj), indent=2, sort_keys=True)


def csv_cell(cell) -> str:
    """One CSV cell as ``cli._write_csv`` writes it: a float to 10
    significant digits, None as nothing, anything else by ``str``."""
    if isinstance(cell, float):
        return f"{cell:.10g}"
    return "" if cell is None else str(cell)


def csv_lines(rows) -> str:
    """The CSV lines of ``rows``, joined one cell at a time."""
    return "".join(",".join(map(csv_cell, row)) + "\n" for row in rows)


def scalar_class_moments(model: FleetModel, class_index: int, m: int) -> tuple[float, float]:
    """(E[c_0 | class], E[c_m^2 | class]) for one int m in closed form, as
    the package computed them before its moments became quadratures: a
    point class through ``fs_harmonic`` of one ``EvParams``; for a uniform
    demand, the ramp width ``a = p / alpha`` is uniform too, c_0 is a
    quadratic in ``a`` and ``c_m = K (cos(k (a - L/2)) - C)`` with
    ``K = alpha D / (2 (m pi)^2)``, ``k = 2 pi m / D``, ``L = tx + rx``
    and ``C = cos(pi m L / D)``, so both moments are elementary integrals.
    The difference of O(1) cosines rounds with the envelope ``2 K``, not
    with c_m, so the form loses digits at small demands."""
    c = model.classes[class_index]
    cfg = model.cfg
    lo, hi = demand_bounds(c.demand_dist, cfg, c.rx_len_m)
    if hi == lo:
        ev = EvParams(rx_len_m=c.rx_len_m, peak_demand_kw=hi, speed_mps=1.0)
        cm = fs_harmonic(cfg, ev, m)
        return fs_harmonic(cfg, ev, 0), cm * cm
    alpha = cfg.power_density_kw_per_m
    d_per = cfg.period_m
    span = cfg.tx_len_m + c.rx_len_m
    a_lo, a_hi = lo / alpha, hi / alpha
    a_th = min(max(c.rx_len_m - cfg.gap_m, a_lo), a_hi)
    e_c0 = e_cm2 = 0.0
    if a_th > a_lo:
        mid, half = (a_lo + a_th) / 2.0, (a_th - a_lo) / 2.0
        w = (a_th - a_lo) / (a_hi - a_lo)
        e_c0 += w * alpha * mid
        if m == 0:
            e_cm2 += w * alpha * alpha * (mid * mid + half * half / 3.0)
    if a_hi > a_th:
        w = (a_hi - a_th) / (a_hi - a_lo)
        mid, half = (a_th + a_hi) / 2.0, (a_hi - a_th) / 2.0
        s = mid - span / 2.0
        q = mid * (span - mid) - half * half / 3.0
        var = 4.0 * half * half * (s * s / 3.0 + half * half / 45.0)
        e_c0 += w * (alpha / d_per * q)
        if m == 0:
            e_cm2 += w * ((alpha / d_per) ** 2 * (q * q + var))
        else:
            big_k = alpha * d_per / (2.0 * (m * np.pi) ** 2)
            k = 2.0 * np.pi * m / d_per
            mean_cos = np.cos(k * s) * np.sinc(k * half / np.pi)
            mean_cos2 = 0.5 + 0.5 * np.cos(2.0 * k * s) * np.sinc(2.0 * k * half / np.pi)
            var_cos = max(mean_cos2 - mean_cos**2, 0.0)
            c_m = np.cos(np.pi * m * span / d_per)
            e_cm2 += w * (big_k * big_k * float((mean_cos - c_m) ** 2 + var_cos))
    return e_c0, e_cm2


def scalar_mixture_moments(model: FleetModel, m: int) -> tuple[float, float]:
    """(E[c_0], E[c_m^2]) over the classes, one :func:`scalar_class_moments`
    call per class."""
    e0 = e2 = 0.0
    for g, c in enumerate(model.classes):
        if c.prob:
            m0, m2 = scalar_class_moments(model, g, m)
            e0 += c.prob * m0
            e2 += c.prob * m2
    return e0, e2


def point_class_analytic_lines(scenario: Scenario, n_harmonics: int | None):
    """The fundamentals and (freq_hz, line_power_kw2, speed_mps) lines of
    ``psd --analytic``, as ``analytic_psd`` of one fleet per speed whose
    classes are point masses at each distinct (receiver, demand) pair of
    the scenario's vehicles, read one ``EvParams`` at a time."""
    groups: dict[float, list[EvParams]] = {}
    for ev in scenario.evs:
        groups.setdefault(ev.speed_mps, []).append(ev)
    fundamentals, lines = [], []
    for speed, evs in sorted(groups.items()):
        counts: dict[tuple[float, float], int] = {}
        for ev in evs:
            key = (ev.rx_len_m, ev.peak_demand_kw)
            counts[key] = counts.get(key, 0) + 1
        model = FleetModel(
            cfg=scenario.cfg,
            classes=tuple(
                EvClass(rx, count / len(evs), UniformExplicit(demand, demand))
                for (rx, demand), count in sorted(counts.items())
            ),
            n_evs=len(evs),
            speed_mps=speed,
        )
        psd = analytic_psd(model, n_harmonics)
        fundamentals.append(psd.fundamental_hz)
        lines.append((0.0, psd.dc_power_sq, speed))
        for m, power in enumerate(psd.harmonic_powers, start=1):
            lines.append((m * psd.fundamental_hz, power, speed))
    return fundamentals, lines
