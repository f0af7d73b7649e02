"""Empirical truck/sedan composition sweeps.

Measures how the aggregate total harmonic content moves with the truck
share by building window-covering synthetic traffic for each
(penetration, sedan-receiver) cell, synthesizing the load, and reading
the THC off the sampled signal.  Rows are mean-power matched: the
vehicle count of each row is scaled so every penetration draws the same
expected load, which is the regime where the harmonic-composition
comparison is meaningful.

Variance control, so small trends survive a finite window budget:

* truck counts track the expected share deterministically (a
  largest-remainder accumulation across windows instead of independent
  labels), and adjacent penetrations add trucks incrementally, so the
  truck sets of one window are nested across penetration rows;
* all penetration rows of a window share one phase and demand pool,
  so adjacent rows differ only by the vehicles actually added or
  removed;
* phases and demands are drawn from a scrambled Sobol sequence across
  windows.  Window-to-window line-power noise is pairwise phase
  interference, which the low-discrepancy pairing averages out far
  faster than independent draws would.

Because the rows of a window share their vehicle slots, each slot's
truck waveform and sedan waveform is sampled at most once per (window,
column), only over the slot's exact on-segment samples, and added into
every penetration row that holds the slot.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fleet import (
    DEMAND_KEY,
    DemandDist,
    EvClass,
    FleetModel,
    MaxDemand,
    UniformOnRange,
    _class_bounds,
    class_moments,
)
from .roadway import ErConfig, EvParams, _require_finite
from .signals import _add_pulses, _collect, _grid, _phasor, _thc
from .spectrum import fs_harmonic
from .traffic import covering_entry_time, max_covering_periods


@dataclass(frozen=True)
class SweepColumn:
    """One sedan population to sweep penetrations against."""

    rx_len_m: float
    demand_dist: DemandDist = field(metadata=DEMAND_KEY)

    def __post_init__(self) -> None:
        _require_finite(self, "rx_len_m")
        if not self.rx_len_m > 0:
            raise ValueError(f"rx_len_m must be > 0, got {self.rx_len_m}")


#: The most windows a sweep takes.  Each column's Sobol pool holds
#: ``2^ceil(log2 n_windows) x 2 n_max`` points of 8 bytes: at the default
#: ``n_ref`` of 45 (``n_max`` 45), 11.8 MB a column at the limit.
MAX_WINDOWS = 2**14


@dataclass(frozen=True)
class SweepConfig:
    cfg: ErConfig
    columns: tuple[SweepColumn, ...]
    thetas: tuple[float, ...] = (0.0377, 0.0557, 0.1775)
    truck_rx_len_m: float = 1.83
    truck_speed_mps: float = 21.7
    sedan_speed_mps: float = 29.0
    n_ref: int = 45
    n_windows: int = 128
    window_s: float = 60.0
    window_start_s: float = 130.0
    sample_rate_hz: float = 500.0
    m_max: int = 8

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("need at least one sedan column")
        if not self.thetas or any(not 0.0 <= t <= 1.0 for t in self.thetas):
            raise ValueError(f"thetas must be non-empty and lie in [0, 1], got {self.thetas}")
        if self.n_windows < 1:
            raise ValueError(f"n_windows must be >= 1, got {self.n_windows}")
        if self.n_windows > MAX_WINDOWS:
            raise ValueError(f"n_windows must be <= {MAX_WINDOWS}, got {self.n_windows}")
        if self.n_ref < 1:
            raise ValueError(f"n_ref must be >= 1, got {self.n_ref}")
        if self.m_max < 1:
            raise ValueError(f"m_max must be >= 1, got {self.m_max}")
        positive = ("truck_rx_len_m", "truck_speed_mps", "sedan_speed_mps", "window_s",
                    "sample_rate_hz")
        _require_finite(self, *positive, "window_start_s")
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.window_start_s < 0:
            raise ValueError(f"window_start_s must be >= 0, got {self.window_start_s}")


def default_sweep_config(cfg: ErConfig, n_windows: int = 128) -> SweepConfig:
    """The standard 3 x 3 sweep: short / mid / long sedan receivers."""
    return SweepConfig(
        cfg=cfg,
        columns=(
            SweepColumn(0.58, UniformOnRange()),
            SweepColumn(1.2, UniformOnRange()),
            SweepColumn(1.7, MaxDemand()),
        ),
        n_windows=n_windows,
    )


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-window THC of every sweep cell plus window-averaged summaries.

    Cells are summarized by the root-mean-square of the per-window THC
    values: that is the estimator whose expectation matches the
    ensemble (power-averaged) harmonic content, whereas the plain mean
    of per-window THC sits below it by a phase-interference bias.
    """

    thetas: tuple[float, ...]
    columns: tuple[SweepColumn, ...]
    ev_counts: np.ndarray  # (n_thetas, n_cols) mean-power-matched counts
    thc_windows: np.ndarray  # (n_thetas, n_cols, n_windows) percent

    @property
    def n_windows(self) -> int:
        return self.thc_windows.shape[2]

    @property
    def thc_rms(self) -> np.ndarray:
        """Power-sense window average of the per-cell THC, percent."""
        return np.sqrt(np.mean(self.thc_windows**2, axis=2))

    @property
    def thc_mean(self) -> np.ndarray:
        """Plain window average of the per-cell THC, percent."""
        return self.thc_windows.mean(axis=2)

    def column_spread(self, col: int) -> float:
        """Max minus min of the window-averaged THC down one column."""
        rms = self.thc_rms[:, col]
        return float(rms.max() - rms.min())

    def paired_diff(self, col: int, row_hi: int, row_lo: int) -> tuple[float, float]:
        """Window-averaged THC difference between two rows, with its SE.

        The difference is taken between the RMS averages; the standard
        error propagates the per-window paired difference of squared
        THC through the square root (delta method), which keeps the
        shared-slot noise cancellation of the common random numbers.
        """
        hi_sq = self.thc_windows[row_hi, col] ** 2
        lo_sq = self.thc_windows[row_lo, col] ** 2
        d_sq = hi_sq - lo_sq
        n = d_sq.size
        diff = float(np.sqrt(hi_sq.mean()) - np.sqrt(lo_sq.mean()))
        scale = 2.0 * np.sqrt(0.5 * (hi_sq.mean() + lo_sq.mean()))
        se = float(d_sq.std(ddof=1) / np.sqrt(n) / scale)
        return diff, se


def matched_counts(sw: SweepConfig, col: SweepColumn) -> list[int]:
    """Vehicle count per penetration drawing the same expected power.

    The first penetration keeps ``n_ref`` vehicles; the rest are scaled
    by the ratio of per-vehicle mean loads so every row of the column
    has the same expected aggregate demand.
    """
    cfg = sw.cfg
    truck = EvParams(sw.truck_rx_len_m, cfg.full_kw(sw.truck_rx_len_m), sw.truck_speed_mps)
    truck_dc = fs_harmonic(cfg, truck, 0)
    probe = FleetModel(
        cfg=cfg,
        classes=(EvClass(col.rx_len_m, 1.0, col.demand_dist),),
        n_evs=1,
        speed_mps=sw.sedan_speed_mps,
    )
    sedan_dc = class_moments(probe, 0, 0)[0]

    def mean_power(theta: float) -> float:
        return theta * truck_dc + (1.0 - theta) * sedan_dc

    ref = mean_power(sw.thetas[0])
    return [max(1, round(sw.n_ref * ref / mean_power(t))) for t in sw.thetas]


def _accumulated_counts(target: float, n_windows: int) -> np.ndarray:
    """Integer counts per window averaging ``target`` (largest remainder)."""
    edges = np.floor(target * np.arange(n_windows + 1) + 0.5)
    return np.diff(edges).astype(int)


def truck_count_schedules(
    thetas: Sequence[float], counts: Sequence[int], n_windows: int
) -> np.ndarray:
    """Per-window truck counts for every penetration row of one column.

    Rows are built incrementally: each row adds a deterministic count
    on top of the previous one, so within any window the truck count
    never decreases with the share and the per-row window average is
    exactly ``theta * n_evs`` up to rounding drift below one vehicle.
    Requires ``theta * n_evs`` to be non-decreasing across rows.
    """
    targets = [t * n for t, n in zip(thetas, counts)]
    if any(b < a for a, b in zip(targets, targets[1:])):
        raise ValueError("expected truck counts must not decrease across rows")
    out = np.empty((len(targets), n_windows), dtype=int)
    out[0] = _accumulated_counts(targets[0], n_windows)
    for i in range(1, len(targets)):
        out[i] = out[i - 1] + _accumulated_counts(targets[i] - targets[i - 1], n_windows)
    return out


#: Bits per Sobol coordinate, as in scipy's ``qmc.Sobol`` by default.
_SOBOL_BITS = 30
#: The Joe-Kuo direction numbers, scipy 1.17.1's file unchanged.
_SOBOL_TABLE = os.path.join(os.path.dirname(__file__), "_sobol_direction_numbers.npz")


@functools.cache
def _sobol_directions(d: int) -> np.ndarray:
    """Unscrambled direction numbers of a ``d``-dimensional Sobol sequence,
    as the ``(d, 30)`` ``uint32`` array that scipy's ``qmc.Sobol`` builds,
    read-only and computed once per ``d``.

    The primitive polynomials and initial numbers are the first ``d`` rows
    of the Joe-Kuo table, shipped beside this module as scipy's
    ``stats/_sobol_direction_numbers.npz``.  Each row is extended by the
    Bratley-Fox recurrence, one bit column at a time for all dimensions.
    """
    with np.load(_SOBOL_TABLE) as table:
        poly, vinit = table["poly"], table["vinit"]
    if d > len(poly):
        raise ValueError(f"Maximum supported dimensionality is {len(poly)}.")
    poly, vinit = poly[:d], vinit[:d]
    degree = np.array([int(p).bit_length() - 1 for p in poly.tolist()])
    v = np.zeros((d, _SOBOL_BITS), dtype=np.int64)
    v[:, : vinit.shape[1]] = vinit
    v[0] = 1
    for j in range(_SOBOL_BITS):
        # Past its initial numbers, row i takes v[j - deg] xor each
        # v[j - k - 1] << (k + 1) whose polynomial coefficient is set; row 0
        # stays all ones.
        rows = 1 + np.flatnonzero(degree[1:] <= j)
        if not rows.size:
            continue
        deg, p = degree[rows], poly[rows]
        new = v[rows, j - deg]
        for k in range(int(deg.max())):
            use = (k < deg) & ((p >> np.maximum(deg - 1 - k, 0)) & 1 == 1)
            new = np.where(use, new ^ (v[rows, j - k - 1] << (k + 1)), new)
        v[rows, j] = new
    directions = (v << np.arange(_SOBOL_BITS - 1, -1, -1)).astype(np.uint32)
    directions.flags.writeable = False
    return directions


def _parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each ``uint32`` in ``x``, as 0 or 1."""
    for s in (16, 8, 4, 2, 1):
        x = x ^ (x >> s)
    return x & 1


def _scrambled_sobol(
    directions: np.ndarray, rng: np.random.Generator, m: int
) -> np.ndarray:
    """The ``2**m`` points that ``qmc.Sobol(d, scramble=True, seed=rng)
    .random_base2(m)`` returns, for ``directions`` from
    :func:`_sobol_directions`.

    As scipy does, the scramble is drawn from ``rng.spawn(1)[0]``, so
    ``rng``'s own stream is not advanced: first a random digital shift,
    then one lower-triangular binary matrix per dimension with a unit
    diagonal (linear matrix scrambling).  Point ``k`` is the shift xor the
    scrambled direction numbers of the set bits of the Gray code of ``k``.
    """
    d = directions.shape[0]
    child = rng.spawn(1)[0]
    bits = np.arange(_SOBOL_BITS, dtype=np.uint32)
    msb_first = bits[::-1]
    shift = child.integers(2, size=(d, _SOBOL_BITS), dtype=np.uint32)
    shift = np.bitwise_or.reduce(shift << bits, axis=1)
    ltm = np.tril(child.integers(2, size=(d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, bits, bits] = 1
    # Row p of each matrix as a word whose most significant bit is column 0;
    # bit 29 - p of a scrambled number is the parity of row p and the input.
    lms = np.bitwise_or.reduce(ltm << msb_first, axis=2)
    scrambled = np.bitwise_or.reduce(
        _parity(lms[:, :, None] & directions[:, None, :]) << msb_first[:, None], axis=1
    )
    k = np.arange(1 << m)
    gray = k ^ (k >> 1)
    points = np.tile(shift, (k.size, 1))
    for b in range(m):
        points[(gray >> b) & 1 == 1] ^= scrambled[:, b]
    return points * (1.0 / (1 << _SOBOL_BITS))


def run_sweep(sw: SweepConfig, seed: int) -> SweepResult:
    """Run the full windows x penetrations x columns measurement.

    Every cell samples the same window, so the projection phasor of each
    fundamental (:func:`dwptload.signals._phasor`) is built once per call.
    The slots of a (window, column) are added into the penetration rows
    that hold them by :func:`dwptload.signals._add_pulses`, the sampling
    of :func:`dwptload.signals.synthesize`, whose blocks are copied into
    one array of rows that every cell reuses.  The columns are checked
    against the roadway first (``class[j]: ...`` names a bad column j),
    :func:`matched_counts` checks the truck, and each slot's demand lies
    within its column's bounds.
    """
    cfg = sw.cfg
    fs = sw.sample_rate_hz
    window = (sw.window_start_s, sw.window_start_s + sw.window_s)
    t0, n_samples = _grid(window, fs)
    f_truck = sw.truck_speed_mps / cfg.period_m
    f_sedan = sw.sedan_speed_mps / cfg.period_m
    k_truck = max_covering_periods(cfg, sw.truck_speed_mps, window)
    k_sedan = max_covering_periods(cfg, sw.sedan_speed_mps, window)
    truck_demand = cfg.full_kw(sw.truck_rx_len_m)

    bounds = _class_bounds(cfg, sw.columns)
    n_thetas = len(sw.thetas)
    n_cols = len(sw.columns)
    counts = np.array([matched_counts(sw, c) for c in sw.columns]).T
    n_max = int(counts.max())
    schedules = np.empty((n_thetas, n_cols, sw.n_windows), dtype=int)
    for j in range(n_cols):
        schedules[:, j, :] = truck_count_schedules(
            sw.thetas, counts[:, j], sw.n_windows
        )

    rng = np.random.default_rng(seed)
    # One scrambled Sobol stream of (phase, demand) pairs per column; row w
    # seeds window w.  Drawn in a power-of-two block to keep the net balanced.
    try:
        directions = _sobol_directions(2 * n_max)
    except ValueError as exc:  # more dimensions than the shipped table
        raise ValueError(
            f"n_ref {sw.n_ref} matches up to {n_max} vehicles a window, whose phases and "
            f"demands need {2 * n_max} Sobol dimensions: {exc}"
        ) from None
    m = max(1, int(np.ceil(np.log2(sw.n_windows))))
    pools = [_scrambled_sobol(directions, rng, m) for _ in range(n_cols)]
    phasors = [_phasor(n_samples, fs, f0) for f0 in (f_truck, f_sedan)]
    thc = np.empty((n_thetas, n_cols, sw.n_windows))
    rows = np.empty((n_thetas, n_samples))  # every cell fills all of it
    for w in range(sw.n_windows):
        for j, col in enumerate(sw.columns):
            lo, hi = bounds[j]
            u_phase = pools[j][w, :n_max]
            u_demand = pools[j][w, n_max:]
            u_k = rng.random(n_max)
            n_trucks = schedules[:, j, w]
            n_sedans = counts[:, j] - n_trucks
            # Row i holds truck slots [0, n_trucks[i]) and sedan slots
            # [n_max - n_sedans[i], n_max): each slot's waveform is sampled
            # once and added to every row that holds it, trucks first, each
            # kind in slot order, as a per-row sum would add them.
            slots = []  # (speed, entry, rx, demand, rows holding the slot)
            for s in range(int(n_trucks.max())):
                k = int(u_k[s] * (k_truck + 1))
                entry = covering_entry_time(cfg, sw.truck_speed_mps, window, u_phase[s], k)
                slots.append((
                    sw.truck_speed_mps, entry, sw.truck_rx_len_m, truck_demand,
                    np.flatnonzero(n_trucks > s),
                ))
            for s in range(n_max - int(n_sedans.max()), n_max):
                k = int(u_k[s] * (k_sedan + 1))
                entry = covering_entry_time(cfg, sw.sedan_speed_mps, window, u_phase[s], k)
                slots.append((
                    sw.sedan_speed_mps, entry, col.rx_len_m, lo + (hi - lo) * u_demand[s],
                    np.flatnonzero(n_sedans >= n_max - s),
                ))
            *vehicles, holders = zip(*slots)
            _collect(rows, _add_pulses(cfg, n_thetas, n_samples, holders, t0, fs, vehicles))
            thc[:, j, w] = _thc(rows, phasors, sw.m_max)
    return SweepResult(
        thetas=sw.thetas,
        columns=sw.columns,
        ev_counts=counts,
        thc_windows=thc,
    )
