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

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .fleet import FleetModel, demand_bounds
from .roadway import ErConfig, _pulse_kinks, _require_finite
from .spectrum import _stepped_rows, fs_harmonic_grid
from .traffic import Scenario


@dataclass(frozen=True, eq=False)
class LoadSeries:
    """Uniformly sampled total load."""

    samples_kw: np.ndarray
    sample_rate_hz: float
    t0_s: float = 0.0

    def __post_init__(self) -> None:
        x = self.samples_kw
        if not isinstance(x, np.ndarray):
            raise ValueError(f"samples_kw must be an ndarray, got {type(x).__name__}")
        if x.ndim != 1 or x.dtype.kind not in "fiu":
            raise ValueError(f"samples_kw must be 1-D and real, got {x.ndim}-D {x.dtype}")
        finite = np.isfinite(x)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"samples_kw must be finite, got {x[i]} at index {i}")
        _require_finite(self, "sample_rate_hz", "t0_s")
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


#: Samples per block of an output grid, over all its rows (256 KiB of
#: floats).  Every work array of the sampled path (a block's rows of load
#: and of slopes, and the segments that Welch transforms at a time, unless
#: one segment is longer) has at most this many samples, so none grows
#: with the window.
_BLOCK = 2**15

#: Samples per chunk of a sampling block, a power of two: each piece of
#: a vehicle's load takes its intercept from the start of its chunk.
_CHUNK = 2**8

#: Coil periods whose kinks :func:`_add_pulses` turns into events at a
#: time (each edge of their vehicles' holder rows scatters the same
#: events), so no event array grows with the number of vehicles on the
#: segment: a group's work arrays take about 1 MB.
_GROUP = 2**12

#: Vehicles whose spans :func:`_sample_spans` finds at a time, so that its
#: work arrays do not grow with the table.
_SPAN_CHUNK = 2**12

#: Complex elements in each work array of a Monte Carlo tile (512 KiB):
#: :func:`monte_carlo_psd` takes ``_MC_TILE // n_evs`` trials at a time.
#: At least 2, so that no tile is a one-element array (see there).
_MC_TILE = 2**15


def _sample_spans(
    cfg: ErConfig,
    speed_mps: np.ndarray,
    entry_time_s: np.ndarray,
    t0: float,
    sample_rate_hz: float,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Each vehicle's exact on-segment sample range ``[j0, j1)`` on a grid.

    Sample ``k`` of the ``n``-sample grid is taken at
    ``t_k = t0 + k / sample_rate_hz`` and finds the vehicle at
    ``x_k = speed * (t_k - entry)``; it is on the segment when
    ``0 <= x_k < energized_len_m``.  Each step of ``x_k`` rounds
    monotonically, so ``x_k`` never decreases in ``k`` and these samples
    are contiguous.  Each edge, the least ``k`` in ``[0, n]`` with ``x_k``
    at or above its bound (``n`` if there is none), is first guessed in
    closed form, ``ceil((entry + bound / speed - t0) sample_rate_hz)``
    clipped to ``[0, n]``, and the guess is kept where ``x_k`` computed
    with the float operations that sampling uses is below the bound one
    sample before it and not below it at it.  The rest, where rounding
    moved the edge (``x_k`` flat over many samples far from ``t = 0``),
    are found by bisection on ``[0, n]`` with the same operations, so the
    ranges are exact.  A vehicle that is never on the segment gets
    ``j0 == j1``.  The vehicles are taken ``_SPAN_CHUNK`` at a time, so
    only the spans, 16 B a vehicle, grow with the table.
    """

    def below(k, speed, entry, bound):
        return speed * ((t0 + k / sample_rate_hz) - entry) < bound

    def first(speed, entry, bound):
        """The least k in [0, n] with ``x_k >= bound``, or n if there is none."""
        guess = np.ceil((entry + bound / speed - t0) * sample_rate_hz)
        k = np.clip(guess, 0, n, out=guess).astype(np.int64)
        late = (k > 0) & ~below(k - 1, speed, entry, bound)
        miss = np.flatnonzero(late | ((k < n) & below(k, speed, entry, bound)))
        speed, entry = speed[miss], entry[miss]
        lo = np.zeros(miss.size, dtype=np.int64)
        hi = np.full(miss.size, n, dtype=np.int64)
        while True:
            open_ = lo < hi
            if not open_.any():
                k[miss] = lo
                return k
            mid = (lo + hi) // 2
            under = below(mid, speed, entry, bound)
            lo = np.where(open_ & under, mid + 1, lo)
            hi = np.where(open_ & ~under, mid, hi)

    j0 = np.empty(speed_mps.shape, dtype=np.int64)
    j1 = np.empty(speed_mps.shape, dtype=np.int64)
    for a in range(0, speed_mps.size, _SPAN_CHUNK):
        part = slice(a, a + _SPAN_CHUNK)
        speed, entry = speed_mps[part], entry_time_s[part]
        j0[part] = first(speed, entry, 0.0)
        j1[part] = first(speed, entry, cfg.energized_len_m)
    return j0, j1


def _holder_edges(
    holders: Sequence[Sequence[int]], n_rows: int, stride: int
) -> tuple[np.ndarray, ...]:
    """The holder rows of each vehicle as unit edges: where the number of
    times row r holds the vehicle steps up from row r - 1 by c, c edges of
    sign +1 into row r, and where it steps down, edges of sign -1; none
    past the last row.  A running sum over the rows of what the edges add
    then gives each row its holders.  A vehicle's edges come in row order,
    so its first is always +1.

    Returns how many rows hold each vehicle, its edge count, the index of
    its first edge, and each edge's row as a flat start (``row *
    stride``) and its sign."""
    held = np.array([len(h) for h in holders], dtype=np.int64)
    owner = np.repeat(np.arange(held.size), held)
    rows = np.fromiter(itertools.chain.from_iterable(holders), dtype=np.int64, count=owner.size)
    counts = np.bincount(owner * n_rows + rows, minlength=held.size * n_rows)
    steps = np.diff(counts.reshape(held.size, n_rows), axis=1, prepend=0).reshape(-1)
    cells = np.flatnonzero(steps)
    cells = np.repeat(cells, np.abs(steps[cells]))
    n_edges = np.bincount(cells // n_rows, minlength=held.size)
    head = np.cumsum(n_edges) - n_edges
    return held, n_edges, head, cells % n_rows * stride, np.sign(steps[cells]).astype(float)


def _add_pulses(
    cfg: ErConfig,
    n_rows: int,
    n: int,
    holders: Optional[Sequence[Sequence[int]]],
    t0: float,
    sample_rate_hz: float,
    vehicles: Sequence[Sequence[float]],
) -> Iterator[tuple[int, np.ndarray]]:
    """The sampled load of ``n_rows`` rows on the ``n``-sample grid
    ``t0 + k / sample_rate_hz``, one block at a time: the only producer of
    sampled load.

    Vehicle i of ``vehicles``, the columns (speed, entry time, receiver
    length, demand), is added into each row r in ``holders[i]`` (into row
    0 if ``holders`` is None) over its exact on-segment samples
    (:func:`_sample_spans`).  The grid is taken in blocks of
    ``_BLOCK // n_rows`` samples, ``_BLOCK`` in all their rows.  At
    constant speed a vehicle's load is piecewise linear in time: its base
    level over its span and, in every coil period, a ramp up, a plateau
    and a ramp down between the kinks of
    :func:`dwptload.roadway._pulse_kinks`.  So a block is built from the
    kinks in it, not from its samples: each piece adds its slope and its
    intercept into two difference arrays at its first sample and takes
    them out at its past-the-end sample (:func:`_add_kinks`), and two
    cumulative sums give the load.  A vehicle's events are scattered once
    per edge of its holder rows (:func:`_holder_edges`), +1 into the row
    where a run of holding rows starts and -1 into the row past its end,
    and a running sum over the rows then gives every row its holders.
    That costs a few passes per sample and row and a few operations per
    kink and edge, however many vehicles are on the segment.

    The sums are exact: the weights are whole multiples of a power of two
    ``q`` (the slopes of ``q / _CHUNK``), set per block so that no partial
    sum reaches ``2^53`` of them.  Each piece's intercept is its value at
    the start of its ``_CHUNK``-sample chunk of the block, below
    ``alpha v (_CHUNK + 2 period)``, and carried from chunk to chunk by
    the exact slope sums, so ``q`` is small.  A sample with no vehicle on
    the segment, or with every vehicle in a gap, is thus exactly 0.0, and
    the result does not depend on the order of the table or on how its
    events are scattered.  For each vehicle on the segment a sample is
    within ``q (2 + period / (2 _CHUNK))`` of the continuous pulse (its
    rounded weights), plus ``alpha v / fs`` times the rounding of its
    kink's position in samples (a few ``2^-53`` times its distance from
    the grid's start); the last addition rounds once more.
    ``tests/oracles.py`` (``sampling_bound``) writes the bound out.
    Samples are then clipped below at 0, which only moves them towards the
    pulse.

    Yields ``(a, block)`` for each finished block: ``block`` is the
    ``(n_rows, b - a)`` load on samples ``[a, b)``.  It is a view of one
    buffer that every block reuses, so a caller copies or consumes it
    before taking the next; no work array grows with the grid, and the
    kinks are taken ``_GROUP`` coil periods at a time.  Besides the table,
    a call keeps 16 B a vehicle (its span), and with ``holders`` 24 B more
    and 16 B an edge.
    """
    speed, entry, rx, demand = (np.asarray(v, dtype=float) for v in vehicles)
    j0, j1 = _sample_spans(cfg, speed, entry, t0, sample_rate_hz, n)
    step = max(1, _BLOCK // n_rows)  # a block holds _BLOCK samples in all
    size = min(n, step)
    if holders is not None:
        held, n_edges, head, rows, signs = _holder_edges(holders, n_rows, size + 1)
        j1 = np.where(held > 0, j1, j0)  # a vehicle no row holds adds nothing
    # Intercepts (then the load) and slopes, as real and imaginary parts,
    # with a past-the-end column.
    sums = np.empty((n_rows, size + 1), dtype=complex)
    in_chunk = np.arange(size, dtype=float)  # each sample's place in its chunk
    np.mod(in_chunk, _CHUNK, out=in_chunk)
    in_chunk *= 1.0 / _CHUNK
    for a in range(0, n, step):
        m = min(a + step, n) - a
        both = sums[:, : m + 1]
        both.fill(0.0)
        levels, slopes = both.real, both.imag
        on = np.flatnonzero((j0 < np.minimum(j1, a + m)) & (j1 > a))
        q = 1.0
        if on.size:
            edges = None if holders is None else (held[on], n_edges[on], head[on], rows, signs)
            q = _add_kinks(
                cfg,
                (np.maximum(j0[on], a) - a, np.minimum(j1[on], a + m) - a),
                (
                    sample_rate_hz / speed[on],
                    (entry[on] - t0) * sample_rate_hz - a,
                    rx[on],
                    demand[on],
                ),
                edges,
                sums.reshape(-1),
            )
            if holders is not None:  # each row takes the edges at and above it
                for r in range(1, n_rows):
                    both[r] += both[r - 1]
        np.cumsum(both, axis=1, out=both)
        # A chunk's intercepts start where the last chunk's pieces end: the
        # open slopes times _CHUNK samples, in units of q the sum of the
        # slope sums at the chunk edges before it.
        carry = np.cumsum(slopes[:, _CHUNK - 1 : m - 1 : _CHUNK], axis=1)
        whole = m // _CHUNK
        # A view of the whole chunks, as a row's samples are evenly strided.
        chunks = levels[:, : whole * _CHUNK].reshape(n_rows, whole, _CHUNK)
        chunks[:, 1:] += carry[:, : whole - 1, None]
        if m % _CHUNK and whole:  # a part chunk at the block's end
            levels[:, whole * _CHUNK : m] += carry[:, -1:]
        block, ramp = levels[:, :m], slopes[:, :m]
        np.multiply(ramp, in_chunk[:m], out=ramp)
        np.add(block, ramp, out=block)
        np.multiply(block, q, out=block)
        np.maximum(block, 0.0, out=block)
        yield a, block


def _add_kinks(
    cfg: ErConfig,
    spans: tuple[np.ndarray, np.ndarray],
    vehicles: tuple[np.ndarray, ...],
    edges: Optional[tuple[np.ndarray, ...]],
    sums: np.ndarray,
) -> float:
    """Add the pieces of the vehicles on the segment during one block into
    ``sums``, the block's buffer flattened, whose real parts are the
    difference array of intercepts and imaginary parts that of slopes
    (see :func:`_add_pulses`), in whole units of the returned ``q`` kW and
    of ``q / _CHUNK`` kW per sample.

    ``spans`` are the vehicles' on-segment samples ``[lo, hi)`` in the
    block; ``vehicles`` their samples per metre, entry in samples from the
    block's start, receiver and demand; and ``edges`` how many rows hold
    each vehicle, its edge count and first edge, and every edge's flat row
    start and sign (:func:`_holder_edges`; None: each vehicle is held
    once, by row 0).  A piece opens at the first sample at or after the
    position of its kink in samples and closes at that of the next kink,
    both clipped to the span.  Its intercept, its value at the start of
    the chunk of its opening sample, is rounded once; its closing weight
    is that plus the slope times the chunks between, exactly.  A
    vehicle's events are computed once and scattered once per edge, times
    the edge's sign.
    """
    lo, hi = spans
    per_m, start, rx, demand = vehicles
    held, n_edges, head, rows, signs = (1, None, None, None, None) if edges is None else edges
    most = 1 if edges is None else int(n_edges.max())

    def scatter(at: np.ndarray, values: np.ndarray, v: np.ndarray) -> None:
        """Add ``values[i]`` at the offsets ``at[i]`` into the row of each
        edge of vehicle ``v[i]``, times the edge's sign; ``at`` is
        overwritten."""
        if edges is None:
            np.add.at(sums, at.ravel(), values.ravel())
            return
        for j in range(1, most):
            sel = np.flatnonzero(n_edges[v] > j)
            e = head[v[sel]] + j
            where, part = at[sel], values[sel]
            where += rows[e][:, None]
            part *= signs[e][:, None]
            np.add.at(sums, where.ravel(), part.ravel())
        at += rows[head[v]][:, None]  # a vehicle's first edge, of sign +1
        np.add.at(sums, at.ravel(), values.ravel())

    offsets, base = _pulse_kinks(cfg, rx, demand)
    rise = demand - base  # the plateau above the base; 0 in the constant regime
    slope = cfg.power_density_kw_per_m / per_m  # kW per sample on a ramp
    period = cfg.period_m * per_m
    # No partial sum exceeds this.  A holder adds its base, and it opens
    # one piece at a time, of value below rise + slope (_CHUNK + period).
    # Its weights go in period after period: within one sample its whole
    # periods add to 0, and the periods the sample cuts (two, or three
    # about a span's edge) leave sums of a few pieces' values, each below
    # rise + slope (2 _CHUNK + 2 period + 2).  Before the running sum over
    # the rows, a row has the events of the edges into it, a vehicle's no
    # more times than rows hold it, so the same bound holds there.  Summed
    # exactly, so that it does not depend on the order of the table.
    bound = math.fsum(held * (base + 4.0 * (rise + slope * (2 * _CHUNK + 2.0 * period + 2.0))))
    q = math.ldexp(1.0, max(math.frexp(bound)[1] - 52, -1066))
    # Levels round down or up as the entry's fraction of a sample says, so
    # that the many vehicles of one class do not all err the same way.
    dither = np.abs(np.fmod(start, 1.0))  # in [0, 1), exactly
    base, rise = np.floor(base / q + dither), np.floor(rise / q + dither)
    slope = np.rint(slope * (_CHUNK / q)) / _CHUNK  # in q per sample, to 1/_CHUNK
    scatter(np.stack((lo, hi), axis=1), np.stack((base, -base), axis=1), np.arange(lo.size))
    # The coil periods that meet each span, one more either side against
    # rounding; none in the constant regime.
    first = np.maximum(np.floor((lo - start) / period) - 1.0, 0.0)
    last = np.minimum(np.floor((hi - 1 - start) / period) + 1.0, cfg.n_coils - 1)
    count = np.where(rise > 0.0, np.maximum(last - first + 1.0, 0.0), 0.0).astype(np.int64)
    ends = np.cumsum(count)
    skip = ends - count - first  # a vehicle's flat index less its period
    kinks = start + np.stack(offsets) * per_m  # period 0's, a row per kink
    lo, hi = lo.astype(float), hi.astype(float)

    def group(g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The offsets and events of the periods ``[g, g + _GROUP)`` of the
        block, and the vehicle of each; a function of its own, so that its
        work arrays are freed before the next group's are built."""
        flat = np.arange(g, min(g + _GROUP, int(ends[-1])))
        v = np.searchsorted(ends, flat, side="right")
        pos = np.take(kinks, v, axis=1)
        pos += (flat - skip[v]) * period[v]
        k = np.ceil(pos)
        np.maximum(k, lo[v], out=k)
        np.minimum(k, hi[v], out=k)
        at = np.empty(k.shape[::-1], dtype=np.int64)
        at.T[...] = k
        chunk = np.multiply(k, 1.0 / _CHUNK, out=k)
        np.floor(chunk, out=chunk)
        chunk *= _CHUNK  # the start of each kink's chunk
        s, r = slope[v], rise[v]
        np.subtract(chunk, pos, out=pos)
        # Weights (real) and slope steps (imaginary) period after period,
        # so that a sample's partial sums hold at most a few periods' worth.
        events = np.empty(at.shape, dtype=complex)
        weights = events.real.T
        up = np.rint(s * pos[0])
        down = np.rint(r - s * pos[2])
        weights[0] = up
        weights[1] = r - up - s * (chunk[1] - chunk[0])
        weights[2] = down - r
        weights[3] = s * (chunk[3] - chunk[2]) - down
        steps = events.imag.T
        np.multiply(s, _CHUNK, out=steps[0])
        steps[3] = steps[0]
        np.negative(steps[0], out=steps[1])
        steps[2] = steps[1]
        return at, events, v

    for g in range(0, int(ends[-1]), _GROUP):
        scatter(*group(g))
    return q


def _collect(rows: np.ndarray, blocks: Iterator[tuple[int, np.ndarray]]) -> np.ndarray:
    """Copy each block of :func:`_add_pulses` into its samples of ``rows``,
    the whole grid; return ``rows``.  Nothing refers to the reused block
    buffer once this returns."""
    for a, block in blocks:
        rows[:, a : a + block.shape[1]] = block
    return rows


def _require_rate(sample_rate_hz: float) -> None:
    """Raise ``ValueError`` unless ``sample_rate_hz`` is finite and > 0."""
    if not (np.isfinite(sample_rate_hz) and sample_rate_hz > 0):
        raise ValueError(f"sample_rate_hz must be finite and > 0, got {sample_rate_hz}")


#: The most samples on one grid: 2^27, some 37 h at 1 kHz.  It bounds
#: every sampled route, ``synthesize``, ``simulate``, the sampled ``psd``
#: and :func:`dwptload.composition.run_sweep`, before any vehicle is drawn.
MAX_SAMPLES = 2**27


def _grid(window: tuple[float, float], sample_rate_hz: float) -> tuple[float, int]:
    """Start time and sample count of the grid that samples ``window`` at
    ``sample_rate_hz``: at most :data:`MAX_SAMPLES`, else ``ValueError``."""
    _require_rate(sample_rate_hz)
    t0, t1 = window
    if not (0.0 <= t0 < t1 and np.isfinite((t1 - t0) * sample_rate_hz)):
        raise ValueError(
            f"bad window {window}: need 0 <= t0 < t1 and a finite number of "
            f"samples at {sample_rate_hz} Hz"
        )
    n = int(round((t1 - t0) * sample_rate_hz))
    if n > MAX_SAMPLES:
        raise ValueError(
            f"window {window} at {sample_rate_hz} Hz makes {n:.10g} samples, above the limit "
            f"of {MAX_SAMPLES}"
        )
    return t0, n


def _scenario_blocks(
    scenario: Scenario, sample_rate_hz: float, t0: float, n: int
) -> Iterator[tuple[int, np.ndarray]]:
    """:func:`_add_pulses` of every vehicle of ``scenario`` into one row."""
    evs = scenario.evs
    vehicles = (evs.speed_mps, evs.entry_time_s, evs.rx_len_m, evs.peak_demand_kw)
    return _add_pulses(scenario.cfg, 1, n, None, t0, sample_rate_hz, vehicles)


def synthesize(
    scenario: Scenario,
    sample_rate_hz: float = 1000.0,
    window: Optional[tuple[float, float]] = None,
) -> LoadSeries:
    """Sample the total load (sum over vehicles) on a uniform grid.

    The window defaults to the whole scenario horizon.  Choose a sample
    rate comfortably above twice the highest harmonic you intend to read
    off the result; the clipped waveforms have spectral content rolling
    off only quadratically.  Each vehicle adds its load only over its
    exact on-segment samples, within the bound that :func:`_add_pulses`
    states of the continuous pulse (:func:`dwptload.load_at_time` is
    within rounding of it too), and the series does not depend on the
    order of the table.
    """
    if window is None:
        window = (0.0, scenario.duration_s)
    t0, n = _grid(window, sample_rate_hz)
    total = _collect(np.empty((1, n)), _scenario_blocks(scenario, sample_rate_hz, t0, n))
    return LoadSeries(samples_kw=total[0], sample_rate_hz=sample_rate_hz, t0_s=t0)


@dataclass(frozen=True, eq=False)
class PsdEstimate:
    """One-sided PSD estimate with enough context to interpret it."""

    freqs_hz: np.ndarray
    psd_kw2_per_hz: np.ndarray
    resolution_hz: float
    method: str
    n_samples: int

    @property
    def nyquist_hz(self) -> float:
        return float(self.freqs_hz[-1])

    def integrated_power(self) -> float:
        """Sum over bins times bin width (compare to the series mean square)."""
        return float(np.sum(self.psd_kw2_per_hz) * self.resolution_hz)


#: Cosine-sum coefficients a_k of each window, as ``scipy.signal.windows`` has them.
WINDOWS = {
    "boxcar": (1.0,),
    "hann": (0.5, 1.0 - 0.5),
    "hamming": (0.54, 1.0 - 0.54),
    "blackman": (0.42, 0.50, 0.08),
    "nuttall": (0.3635819, 0.4891775, 0.1365995, 0.0106411),
    "blackmanharris": (0.35875, 0.48829, 0.14128, 0.01168),
    "flattop": (0.21557895, 0.41663158, 0.277263158, 0.083578947, 0.006947368),
}


def _window(name: str, n: int) -> np.ndarray:
    """The ``n``-sample periodic window ``name``: ``sum_k a_k cos(k x)`` on
    ``n + 1`` points of [-pi, pi] less the last, summed as scipy's
    ``general_cosine`` sums it, so it is ``get_window(name, n)`` bit for bit."""
    if n <= 1:
        return np.ones(n)
    x = np.linspace(-np.pi, np.pi, n + 1)
    w = np.zeros(n + 1)
    for k, a in enumerate(WINDOWS[name]):
        w += a * np.cos(k * x)
    return w[:-1]


def _welch(
    blocks: Iterable[np.ndarray], fs: float, win: np.ndarray, nperseg: int, noverlap: int
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch density of the series that ``blocks`` gives in
    consecutive pieces, as ``scipy.signal.welch`` with ``detrend=False``
    gives it for the whole series: frequencies and PSD.

    Segments of ``nperseg`` samples start every ``nperseg - noverlap``
    samples, and a trailing part too short for a segment is dropped.  Each
    segment is multiplied by ``win`` and transformed, and ``|X|^2`` is
    averaged over the segments, scaled by ``1 / (fs sum(win^2))`` and
    doubled in every bin but DC and, for an even ``nperseg``, Nyquist.

    The series is never held.  Only its samples from the next segment's
    start on, fewer than ``nperseg``, are kept between pieces (copies while
    they are shorter than a segment: producers reuse their buffers).  A
    piece that completes a segment is joined to them, and the whole
    segments of the join are windowed ``max(1, _BLOCK // nperseg)`` at a
    time into one reused buffer (in place in the join when segments do
    not overlap) and transformed, so memory holds one sampling block and
    one segment, whatever the series.  Their ``|X|^2`` go into the rows of
    that buffer, and the first row takes the running sum: numpy sums a
    2-D array over its first axis row after row, so the segments add into
    one running sum in segment order, and the estimate does not depend on
    how the series is cut.  A periodogram's one segment is the whole
    series, which it holds.  Requires ``noverlap < nperseg <=`` the number
    of samples.
    """
    step = nperseg - noverlap
    rows = max(1, _BLOCK // nperseg)
    segs = np.empty((rows, nperseg)) if noverlap else None
    power = np.zeros(nperseg // 2 + 1)
    # Segments summed; the series from the next segment's start, and its samples.
    count, pending, held = 0, [], 0
    for x in blocks:
        if held + x.size < nperseg:
            pending.append(np.array(x, dtype=float))
            held += x.size
            continue
        join = np.concatenate(pending + [x], dtype=float)
        del pending
        r = (join.size - nperseg) // step + 1
        if noverlap:
            windows = np.lib.stride_tricks.sliding_window_view(join, nperseg)[::step]
        else:  # the segments tile the join: window them where they lie
            windows = join[: r * nperseg].reshape(r, nperseg)
        for k in range(0, r, rows):
            part = windows[k : k + rows]
            part = np.multiply(part, win, out=segs[: len(part)] if noverlap else part)
            spec = np.fft.rfft(part, axis=-1)
            squares = part.reshape(-1)[: spec.size].reshape(spec.shape)
            np.multiply(spec.real, spec.real, out=squares)
            np.multiply(spec.imag, spec.imag, out=spec.imag)
            squares += spec.imag
            squares[0] += power
            np.sum(squares, axis=0, out=power)
            count += len(squares)
        pending = [join[r * step :]]
        held = pending[0].size
    psd = power / (count * fs * np.sum(win * win))
    psd[1 : None if nperseg % 2 else -1] *= 2.0
    return np.fft.rfftfreq(nperseg, 1.0 / fs), psd


@dataclass(frozen=True)
class PsdPlan:
    """The settings of :func:`_welch` for an ``n``-sample series at ``fs``
    Hz, worked out by :func:`psd_plan` before any sample exists."""

    n: int
    fs: float
    method: str
    nperseg: int
    noverlap: int
    window: str

    def estimate(self, blocks: Iterable[np.ndarray]) -> PsdEstimate:
        """The estimate of the series that ``blocks`` gives in consecutive
        pieces, through :func:`_welch`."""
        win = _window(self.window, self.nperseg)
        freqs, psd = _welch(blocks, self.fs, win, self.nperseg, self.noverlap)
        return PsdEstimate(freqs, psd, float(freqs[1] - freqs[0]), self.method, self.n)


#: The most samples in one segment of a PSD estimate, a periodogram's being
#: the whole series.  :meth:`PsdPlan.estimate` peaks at some 44 bytes per
#: segment sample (traced), 704 MiB at the limit.
MAX_SEGMENT_SAMPLES = 2**24


def psd_plan(
    n: int, fs: float, method: str, segment_s: float, overlap_frac: float, window: str
) -> PsdPlan:
    """The plan of ``method`` for an ``n``-sample series at ``fs`` Hz: the
    one place that checks the settings, raising ``ValueError``, a segment
    above :data:`MAX_SEGMENT_SAMPLES` included.  A periodogram is one
    boxcar segment over the whole series, so it ignores ``segment_s``,
    ``overlap_frac`` and ``window``."""
    _require_rate(fs)
    if method == "periodogram":
        if n < 2:
            raise ValueError(f"series of {n} samples too short for a periodogram")
        if n > MAX_SEGMENT_SAMPLES:
            raise ValueError(
                f"a periodogram of {n} samples at {fs} Hz is one segment above the limit "
                f"of {MAX_SEGMENT_SAMPLES}"
            )
        return PsdPlan(n, fs, method, n, 0, "boxcar")
    if method != "welch":
        raise ValueError(f"unknown method {method!r}")
    if not 0 <= overlap_frac < 1:
        raise ValueError(f"overlap_frac must lie in [0, 1), got {overlap_frac}")
    seg = segment_s * fs  # inf if it overflows: longer than any series
    nperseg = round(seg) if math.isfinite(seg) else seg
    if not nperseg >= 2:  # NaN included
        raise ValueError(f"segment_s too short: {segment_s}")
    if nperseg > n:
        raise ValueError(f"segment of {nperseg} samples longer than series of {n}")
    noverlap = round(overlap_frac * nperseg)
    if noverlap >= nperseg:
        raise ValueError(f"noverlap={noverlap} must be less than nperseg={nperseg}!")
    if window not in WINDOWS:
        raise ValueError(f"Invalid window name {window!r}; the windows are {', '.join(WINDOWS)}")
    if nperseg > MAX_SEGMENT_SAMPLES:
        raise ValueError(
            f"segment_s {segment_s} at {fs} Hz makes a segment of {nperseg} samples, "
            f"above the limit of {MAX_SEGMENT_SAMPLES}"
        )
    return PsdPlan(n, fs, method, nperseg, noverlap, window)


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
    highway scenarios while smoothing finite-length scatter.  The
    periodogram is one boxcar segment over the whole series: it ignores
    ``window``, ``segment_s`` and ``overlap_frac`` (:func:`psd_plan`).
    The series goes through the accumulator :func:`_welch` in blocks of
    ``_BLOCK`` samples, as sampling feeds it in :func:`_scenario_psd`.
    """
    x = series.samples_kw
    plan = psd_plan(x.size, series.sample_rate_hz, method, segment_s, overlap_frac, window)
    return plan.estimate(x[a : a + _BLOCK] for a in range(0, x.size, _BLOCK))


def _scenario_psd(scenario: Scenario, plan: PsdPlan) -> PsdEstimate:
    """:func:`estimate_psd` by ``plan`` of the first ``plan.n`` samples of
    :func:`synthesize`, bit for bit, without the series: each sampled
    block of :func:`_add_pulses` goes straight into :func:`_welch`, so
    memory does not grow with the horizon (but for a periodogram's one
    segment)."""
    blocks = _scenario_blocks(scenario, plan.fs, 0.0, plan.n)
    return plan.estimate(block[0] for _, block in blocks)


@dataclass(frozen=True)
class Peak:
    """One expected harmonic line and what the estimate shows there."""

    fundamental_hz: float
    m: int
    target_hz: float
    freq_hz: float
    line_power_kw2: float  # integrated power / 2, comparable to |c_m|^2
    resolved: bool


#: Bins on each side of a peak that :func:`detect_peaks` integrates.
PEAK_HALFWIDTH_BINS = 3


def detect_peaks(
    psd: PsdEstimate, expected_fundamentals: Sequence[float], m_max: int
) -> list[Peak]:
    """Locate the harmonic lines of each fundamental in a PSD estimate.

    For every target ``m * f`` (m = 1..m_max) within Nyquist, reports the
    local maximum within 1.5 bins of the target and the line power
    integrated over ±:data:`PEAK_HALFWIDTH_BINS` around it.  A peak is flagged
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
        a = max(peak_bin - PEAK_HALFWIDTH_BINS, 0)
        b = min(peak_bin + PEAK_HALFWIDTH_BINS, psd.freqs_hz.size - 1)
        power = float(np.sum(psd.psd_kw2_per_hz[a : b + 1]) * df / 2.0)
        crowded = any(
            j != i and abs(other - bin_t) < 2 * PEAK_HALFWIDTH_BINS
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


def _phasor(n: int, sample_rate_hz: float, fundamental_hz: float) -> np.ndarray:
    """``exp(-2 pi i f0 t)`` over the first whole number of fundamental
    periods of an ``n``-sample series at ``sample_rate_hz``: the phasor
    that :func:`_line_powers` projects onto, whose length is the trimmed
    length."""
    fs = sample_rate_hz
    n_cycles = int(np.floor(n / fs * fundamental_hz + 1e-12))
    if n_cycles < 1:
        raise ValueError("series shorter than one fundamental period")
    n_trim = min(n, int(round(n_cycles / fundamental_hz * fs)))
    t = np.arange(n_trim) / fs
    return np.exp(-2j * np.pi * fundamental_hz * t)


def _line_powers(rows: np.ndarray, z: np.ndarray, m_max: int) -> np.ndarray:
    """Squared projections |c_m|^2 (m = 1..m_max) of each series along the
    last axis of ``rows`` onto one harmonic set, all sampled from one start
    time on the grid of the :func:`_phasor` ``z``: the powers have shape
    ``rows.shape[:-1] + (m_max,)``.  Each series is trimmed to the phasor's
    whole number of fundamental periods, which suppresses spectral leakage
    from the DC term and from the line itself."""
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    n_trim = z.size
    x = rows[..., :n_trim]
    powers = np.empty(rows.shape[:-1] + (m_max,))
    zm = np.ones_like(z)
    for i in range(m_max):
        np.multiply(zm, z, out=zm)
        # Two real matrix-vector products, no complex temporary of x's shape;
        # a contiguous copy of the parts would sum one row in another order.
        re = (x @ zm.real) / n_trim
        im = (x @ zm.imag) / n_trim
        powers[..., i] = re * re + im * im
    return powers


def _thc(rows: np.ndarray, phasors: Sequence[np.ndarray], m_max: int) -> np.ndarray:
    """:func:`empirical_thc` of each series along the last
    axis of ``rows``, in percent, with shape ``rows.shape[:-1]``: one
    :func:`_phasor` per fundamental, built by the caller so that a sweep
    builds each once for all its cells."""
    dc = rows.mean(axis=-1)
    if not np.all(dc):
        raise ValueError("series has zero mean; THC undefined")
    total = sum(_line_powers(rows, z, m_max).sum(axis=-1) for z in phasors)
    return 100.0 * np.sqrt(2.0 * total) / dc


def empirical_thc(series: LoadSeries, fundamentals: Sequence[float], m_max: int) -> float:
    """Total harmonic content of a measured load, in percent.

    Sums the line powers of every harmonic set in ``fundamentals``, each
    projected out of the series (:func:`_line_powers`), and normalizes by
    the squared time-domain mean (not a DC bin, which windowing would
    bias).
    """
    if not series.n_samples:
        raise ValueError("series has zero mean; THC undefined")
    n, fs = series.n_samples, series.sample_rate_hz
    phasors = [_phasor(n, fs, f0) for f0 in fundamentals]
    return float(_thc(series.samples_kw, phasors, m_max))


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


def _tile_powers(
    model: FleetModel,
    point: list,
    cls: np.ndarray,
    u: np.ndarray,
    demands: list,
    used: list[int],
    out: np.ndarray,
) -> None:
    """Write |c_m|^2 of each trial of one Monte Carlo tile into ``out[m]``.
    A function of its own, so that a tile's work arrays are freed before
    the next tile's are built.

    ``cls`` and ``u`` are the tile's (trials, n_evs) classes and phases.
    A continuous class g takes its next demands from ``demands[g]``,
    starting at ``used[g]``, which is advanced past them.
    """
    cfg = model.cfg
    flat_cls = cls.ravel()
    members = []  # (class, flat indices into the tile, rows or None)
    for g, c in enumerate(model.classes):
        idx = np.flatnonzero(flat_cls == g)
        if not idx.size:
            continue
        rows = None
        if point[g] is None:
            mine = demands[g][used[g] : used[g] + idx.size]
            used[g] += idx.size
            rows = _stepped_rows(cfg, c.rx_len_m, mine, len(out) - 1)
        members.append((g, idx, rows))
    # e^(-2 pi i u) from one tangent, in half the time of a complex exp:
    # (1 - t^2 + 2 i t) times 1 / (1 + t^2), the reciprocal that numpy's
    # complex division takes, with no complex temporary.
    t = np.tan(-np.pi * u)
    s = t * t
    z = np.empty(u.shape, dtype=complex)
    np.subtract(1.0, s, out=z.real)
    np.multiply(2.0, t, out=z.imag)
    s += 1.0
    z *= np.divide(1.0, s, out=s)
    zk = np.ones_like(z)
    coeff = np.empty(u.size, dtype=complex)
    per_trial = coeff.reshape(u.shape)
    for k, line in enumerate(out):
        for g, idx, rows in members:
            coeff[idx] = point[g][k] if rows is None else next(rows)
        per_trial *= zk
        line[:] = np.abs(per_trial.sum(axis=1)) ** 2
        zk *= z


#: Fewest trials :func:`monte_carlo_psd` averages.
MIN_TRIALS = 100


def monte_carlo_psd(
    model: FleetModel,
    trials: int,
    seed: int | np.random.Generator,
    m_max: int = 5,
) -> EnsemblePsd:
    """Ensemble-average the aggregate line powers over random entry phases.

    Each trial draws every vehicle's class, demand, and in-period phase
    (i.i.d. uniform, the stationarity hypothesis), forms the aggregate
    coefficient sum c_m = sum_n c_{m,n} e^{-2pi i m u_n}, and averages
    |c_m|^2 across trials.  Point-demand classes use the coil-start-phase
    coefficients of :func:`period_coefficients`; continuous-demand classes
    take the real product form of :func:`fs_harmonic_grid` at the sampled
    demands, without the coil-start phase shift, so the lines keep the
    relative precision of c_m at any demand scale.

    Trials are drawn in chunks of ``4_000_000 // (n_evs (m_max + 1))``.
    Each chunk draws, in this order, the classes of all its vehicles (one
    uniform each, searched in the normalized cumulative class
    probabilities as ``Generator.choice`` does), their phases ``u``, then
    the demands of each present continuous class in class order.  The
    classes are kept as small ints, the phases and demands as drawn.

    The harmonics are then taken over tiles of ``_MC_TILE // n_evs`` trials
    (at least one), one harmonic at a time: ``e^{-2pi i m u}`` is carried
    as a running product of ``e^{-2pi i u} = (1 - t^2 + 2 i t) / (1 + t^2)``
    with ``t = tan(-pi u)``, and the two sines of each continuous class's
    coefficients are stepped from one harmonic to the next by
    :func:`dwptload.spectrum._stepped_rows` on the tile's slice of its
    demands.  Every complex work array is ``(tile, n_evs)``, about
    ``_MC_TILE`` elements, whatever the chunk.  Each tile writes its
    trials' |c_m|^2 into a ``(m_max + 1, chunk)`` buffer that is summed
    once per chunk; every operation on a trial is elementwise or a sum
    over that trial's vehicles, so the lines do not depend on the tile.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}, got {trials}")
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    rng = np.random.default_rng(seed)
    cfg = model.cfg
    n = model.n_evs
    g_count = len(model.classes)
    cdf = np.array([c.prob for c in model.classes]).cumsum()
    cdf /= cdf[-1]
    bounds = [demand_bounds(c.demand_dist, cfg, c.rx_len_m) for c in model.classes]
    # Coil-start-phase coefficients of each point-demand class, c_0..c_m_max.
    point = [
        period_coefficients(cfg, c.rx_len_m, hi, m_max) if hi == lo else None
        for c, (lo, hi) in zip(model.classes, bounds)
    ]

    # The (m_max + 1) divisor no longer bounds memory; it stays so that the
    # draw stream (classes, u, demands per chunk) is unchanged for a seed.
    chunk = max(1, min(trials, 4_000_000 // (n * (m_max + 1))))
    tile = max(1, _MC_TILE // n)
    power = np.empty((m_max + 1, chunk))
    p_sum = np.zeros(m_max + 1)
    # Sums of squares of the powers times `scale`, a power of two that
    # takes their bound (n max demand)^2 (|c_m| <= c_0 <= demand) into
    # [0.5, 1): tiny demands' squares would underflow to a zero variance.
    # Such scaling is exact, so no other bit changes.
    bound = (n * max(hi for _, hi in bounds)) ** 2
    scale = math.ldexp(1.0, -max(math.frexp(bound)[1], -1021))
    p_sumsq = np.zeros(m_max + 1)
    done = 0
    while done < trials:
        t_here = min(chunk, trials - done)
        # Class g is the number of cdf entries at or below the uniform.
        r = rng.random((t_here, n))
        cls = np.zeros((t_here, n), dtype=np.min_scalar_type(g_count))
        for edge in cdf[:-1]:
            cls += r >= edge
        del r
        u = rng.random((t_here, n))
        demands = [None] * g_count
        for g in range(g_count):
            if point[g] is None:
                size = np.count_nonzero(cls == g)
                if size:
                    demands[g] = rng.uniform(*bounds[g], size=size)
        used = [0] * g_count  # demands of each class taken by earlier tiles
        t0 = 0
        while t0 < t_here:
            # numpy multiplies a one-element complex array without the fused
            # multiply-add it uses on longer ones: a lone last element (one
            # trial of one vehicle) joins the tile before it.
            t1 = t_here if (t_here - t0 - tile) * n <= 1 else t0 + tile
            _tile_powers(model, point, cls[t0:t1], u[t0:t1], demands, used, power[:, t0:t1])
            t0 = t1
        del cls, u, demands  # before the next chunk draws its own
        for k in range(m_max + 1):
            row = power[k, :t_here]
            p_sum[k] += row.sum()
            scaled = row * scale
            p_sumsq[k] += (scaled * scaled).sum()
        done += t_here
    mean = p_sum / trials
    scaled = mean * scale
    var = np.maximum(p_sumsq - trials * scaled * scaled, 0.0) / (trials - 1)
    stderr = np.sqrt(var / trials) / scale
    return EnsemblePsd(
        line_powers_kw2=mean,
        stderr_kw2=stderr,
        fundamental_hz=model.fundamental_hz,
        trials=trials,
    )
