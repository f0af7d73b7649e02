"""Sampled load streamed into Welch, one block at a time.

``signals._add_pulses`` yields the sampled load one block of at most
``_BLOCK`` samples at a time, in one reused buffer.  ``synthesize`` and
the composition sweep copy the blocks out; the sampled ``psd`` feeds them
to the Welch accumulator ``signals._welch``, which keeps only the
samples from the next segment's start on from one block to the next.
``tests/oracles.py`` keeps Welch on the whole series in memory: the
accumulator must equal it bit for bit however the series is cut, and
the sampled ``psd``'s traced memory must not grow with the horizon.
"""

from __future__ import annotations

import collections
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwptload import (
    INDOT, ErConfig, MaxDemand, TrafficClass, TrafficSpec, UniformOnRange, cli, generate, signals,
)
from dwptload.signals import (
    _BLOCK,
    _add_pulses,
    _collect,
    _sample_spans,
    _scenario_blocks,
    _scenario_psd,
    _welch,
    _window,
    estimate_psd,
    psd_plan,
    synthesize,
)
from dwptload.schema import to_dict
from oracles import in_memory_welch

#: Chunks a series is cut into at most; the rest of the series is the last.
MAX_CHUNKS = 20_000


def ragged(x: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """``x`` cut into consecutive chunks of ``sizes``, repeated until it ends."""
    chunks, a = [], 0
    for size in itertools.cycle(sizes):
        if a >= x.size:
            return chunks
        b = x.size if len(chunks) == MAX_CHUNKS - 1 else a + size
        chunks.append(x[a:b])
        a = b


def stream(n: int, nperseg: int, noverlap: int, sizes: list[int], seed: int = 0):
    """A case of :func:`welch_streams`; ``nperseg == n`` with no overlap is
    the periodogram, one boxcar segment."""
    periodogram = nperseg == n and noverlap == 0
    win = np.ones(n) if periodogram else _window("hann", nperseg)
    x = np.random.default_rng(seed).normal(100.0, 20.0, n)
    return x, win, nperseg, noverlap, sizes


@st.composite
def welch_streams(draw):
    """A series with a Welch segmentation or the periodogram, and the chunk
    sizes to feed it in.  Welch series hold up to 400,000 samples and
    their segments up to 4,000,000 in all, so the batches that Welch
    transforms at a time end anywhere among the chunks."""
    sizes = draw(
        st.lists(st.integers(1, 8) | st.integers(1, 2 * _BLOCK), min_size=1, max_size=6)
    )
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        n = draw(st.integers(2, 3 * _BLOCK))
        return stream(n, n, 0, sizes, seed)
    nperseg = draw(st.sampled_from([2, 3, 5001, 8000, _BLOCK + 1]) | st.integers(2, 3 * _BLOCK))
    noverlap = draw(st.sampled_from([0, nperseg - 1]) | st.integers(0, nperseg - 1))
    step = nperseg - noverlap
    most = min(4_000_000 // nperseg, (400_000 - nperseg) // step + 1)
    n = nperseg + (draw(st.integers(1, most)) - 1) * step + draw(st.integers(0, step - 1))
    return stream(n, nperseg, noverlap, sizes, seed)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(case=welch_streams())
# Segments longer than a sampling block, odd, fed in sampling blocks: one
# segment per transform.
@example(case=stream(3 * (_BLOCK + 1) + 5, _BLOCK + 1, 0, [_BLOCK]))
# The default 8 s Hann segments at 1 kHz over 150 s: 4 per transform.
@example(case=stream(150_000, 8000, 4000, [_BLOCK]))
# One sample at a time, every segment overlapping the last but one sample.
@example(case=stream(5201, 5001, 5000, [1]))
@example(case=stream(50, 2, 1, [1]))
@example(case=stream(60, 7, 0, [1, 6, 7, 8]))
# Periodograms across sampling blocks, and of two samples.
@example(case=stream(2 * _BLOCK + 7, 2 * _BLOCK + 7, 0, [3, _BLOCK]))
@example(case=stream(2, 2, 0, [1]))
def test_streamed_welch_matches_in_memory_oracle_bit_for_bit(case):
    x, win, nperseg, noverlap, sizes = case
    fs = 1000.0
    got = _welch(ragged(x, sizes), fs, win, nperseg, noverlap)
    want = in_memory_welch(x, fs, win, nperseg, noverlap)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def corridor_spec(duration_s: float, rate_evps: float) -> TrafficSpec:
    """The benchmark corridor's three classes."""
    classes = (
        TrafficClass(1.83, 0.2, 21.7, MaxDemand(), "truck"),
        TrafficClass(1.2, 0.5, 29.0, UniformOnRange(), "sedan"),
        TrafficClass(1.7, 0.3, 26.8, MaxDemand(), "suv"),
    )
    return TrafficSpec(rate_evps, duration_s, classes)


@pytest.mark.parametrize(
    "method, segment_s, overlap_frac",
    [("welch", 8.0, 0.5), ("welch", 7.001, 0.3), ("periodogram", 8.0, 0.5)],
)
def test_scenario_psd_is_estimate_psd_of_synthesize(method, segment_s, overlap_frac):
    scenario = generate(INDOT, corridor_spec(100.0, 2.0), 5)
    series = synthesize(scenario, 1000.0)
    want = estimate_psd(series, method, segment_s, overlap_frac)
    got = _scenario_psd(
        scenario, psd_plan(series.n_samples, 1000.0, method, segment_s, overlap_frac, "hann")
    )
    assert np.array_equal(got.freqs_hz, want.freqs_hz)
    assert np.array_equal(got.psd_kw2_per_hz, want.psd_kw2_per_hz)
    assert (got.resolution_hz, got.method, got.n_samples) == (
        want.resolution_hz, want.method, want.n_samples
    )


def test_sampling_blocks_reuse_one_buffer():
    scenario = generate(INDOT, corridor_spec(100.0, 2.0), 5)
    n = 3 * _BLOCK + 11
    blocks = _scenario_blocks(scenario, 1000.0, 0.0, n)
    first = None
    starts = []
    for a, block in blocks:
        first = block if first is None else first
        assert block.shape == (1, min(_BLOCK, n - a))
        assert np.shares_memory(block, first)
        starts.append(a)
    assert starts == list(range(0, n, _BLOCK))


def kink_calls(monkeypatch) -> collections.Counter:
    """How many blocks hand each vehicle to the kink sampler, counted by
    the demand it is given (the tests give each vehicle its own)."""
    calls = collections.Counter()
    add = signals._add_kinks

    def counted(cfg, spans, vehicles, *rest):
        calls.update(vehicles[-1].tolist())
        return add(cfg, spans, vehicles, *rest)

    monkeypatch.setattr(signals, "_add_kinks", counted)
    return calls


def blocks_met(cfg, vehicles, t0, fs, n, n_rows) -> list[int]:
    """How many sampling blocks, of ``_BLOCK`` samples over ``n_rows``
    rows, each vehicle's on-segment span meets."""
    speed, entry = (np.asarray(c, dtype=float) for c in vehicles[:2])
    j0, j1 = _sample_spans(cfg, speed, entry, t0, fs, n)
    step = _BLOCK // n_rows
    starts = range(0, n, step)
    return [
        sum(max(a0, a) < min(a1, a + step, n) for a in starts)
        for a0, a1 in zip(j0.tolist(), j1.tolist())
    ]


#: A 96 m energized segment: about 4 s at 25 m/s, so most spans meet one
#: block or two.
SHORT_CFG = ErConfig(3.66, 0.91, 109.36, 100.0)


@pytest.mark.parametrize("holders", [None, "sweep"])
def test_sampling_evaluates_each_vehicle_once_per_block_it_meets(monkeypatch, holders):
    """Each vehicle's kinks are taken once for each block its span meets,
    whatever rows hold it, and never for a vehicle that is not on the
    segment during the grid; the table is not in entry order."""
    rng = np.random.default_rng(7)
    t0, fs, n = 50.0, 1000.0, 3 * _BLOCK + 5
    count = 60
    speed = rng.uniform(20.0, 30.0, count)
    entry = rng.uniform(t0 - 10.0, t0 + n / fs, count)
    speed[:3], entry[:3] = 0.5, t0 - 1.0  # on the segment for 192 s: every block
    entry[3:5] = t0 - 50.0, t0 + n / fs  # off the segment before and after the grid
    demand = 100.0 + np.arange(count)  # the key of each vehicle's calls
    vehicles = (speed, entry, np.full(count, 1.83), demand)
    n_rows = 1 if holders is None else 3
    met = blocks_met(SHORT_CFG, vehicles, t0, fs, n, n_rows)
    assert sorted(entry.tolist()) != entry.tolist()
    assert 0 in met and 1 in met and 2 in met and max(met) == -(-n // (_BLOCK // n_rows))
    rows = None if holders is None else [[r for r in range(3) if (i + r) % 2] for i in range(count)]
    calls = kink_calls(monkeypatch)
    _collect(np.empty((n_rows, n)), _add_pulses(SHORT_CFG, n_rows, n, rows, t0, fs, vehicles))
    assert [calls[d] for d in demand.tolist()] == met


def traced_psd_peak(tmp_path, duration_s: float) -> int:
    """Traced peak of the sampled ``psd`` at 200 Hz on the benchmark
    corridor at 0.5 vehicles/s (8 s segments: 20 per transform)."""
    config = tmp_path / f"corridor{duration_s}.json"
    spec = corridor_spec(duration_s, 0.5)
    config.write_text(json.dumps({
        "sample_rate_hz": 200.0,
        "duration_s": duration_s,
        "traffic": to_dict(spec),
    }))
    argv = ["psd", "--config", str(config), "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_psd_memory_does_not_grow_with_the_horizon(tmp_path, capsys):
    traced_psd_peak(tmp_path, 60.0)  # FFT plans and caches outside the trace
    short, long_ = traced_psd_peak(tmp_path, 900.0), traced_psd_peak(tmp_path, 3600.0)
    # 180k against 720k samples: synthesizing the series first grew the
    # peak by ~6.1 MiB.  What may grow is the vehicle table, with the
    # spans the sampler keeps (16 B a vehicle) and the work arrays of
    # their bisection (:func:`_sample_spans`), for the ~1,350 more
    # vehicles.
    extra_vehicles = 0.5 * (3600.0 - 900.0)
    assert long_ - short <= 512 * extra_vehicles
