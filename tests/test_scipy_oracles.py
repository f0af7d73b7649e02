"""The numpy Welch PSD, windows, Sobol table, scrambled Sobol draw and
composition boundary against scipy.

The package imports nothing from scipy: Welch and the periodogram (one
boxcar segment) go through the streaming accumulator ``signals._welch``,
here fed the series in chunks, the windows through ``signals._window``,
and the sweep's Sobol pools through ``composition._scrambled_sobol`` from
the direction table shipped beside ``composition``.  scipy is a test
dependency and their oracle here.  The windows, the table and the Sobol
points must be bit-identical to scipy's; the PSD, whose sums run in
another order, must agree to 1e-12 of its peak bin, on exactly equal
frequencies.  ``composition_boundary`` bisects as
``scipy.optimize.bisect`` does, and its root must agree with scipy's to
1e-9 m.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy import signal as sps
from scipy.stats import qmc

from dwptload import INDOT, ErConfig, composition_boundary
from dwptload.composition import _SOBOL_TABLE, _scrambled_sobol, _sobol_directions
from dwptload.signals import WINDOWS, LoadSeries, _welch, _window, estimate_psd


@st.composite
def welch_cases(draw):
    """A series, its rate, and segment settings that scipy accepts."""
    n = draw(st.integers(2, 3000))
    nperseg = draw(st.one_of(st.just(n), st.integers(2, n)))
    noverlap = draw(
        st.one_of(st.just(0), st.just(nperseg - 1), st.integers(0, nperseg - 1))
    )
    fs = draw(st.floats(0.5, 5000.0))
    chunk = draw(st.integers(1, n))
    # Not 8- or 16-bit integers: scipy computes their PSD in float32.
    dtype = draw(st.sampled_from(["float64", "int64", "int32"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype == "float64":
        x = rng.normal(50.0, 20.0, n)
    else:
        x = rng.integers(0, 1000, n).astype(dtype)
    return x, fs, nperseg, noverlap, chunk


def assert_same_psd(ours, theirs):
    (freqs, psd), (f_ref, p_ref) = ours, theirs
    assert np.array_equal(freqs, f_ref)
    assert np.abs(psd - p_ref).max() <= 1e-12 * p_ref.max()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    case=welch_cases(),
    window=st.sampled_from(list(WINDOWS)),
)
@example(case=(np.arange(10.0), 100.0, 10, 9, 1), window="hann")
@example(case=(np.arange(11), 100.0, 11, 0, 4), window="hann")
def test_welch_matches_scipy(case, window):
    x, fs, nperseg, noverlap, chunk = case
    chunks = (x[a : a + chunk] for a in range(0, x.size, chunk))
    assert_same_psd(
        _welch(chunks, fs, _window(window, nperseg), nperseg, noverlap),
        sps.welch(
            x, fs=fs, window=window, nperseg=nperseg, noverlap=noverlap, detrend=False
        ),
    )


def test_welch_of_many_segments_matches_scipy():
    # The segments add into one running sum in order: an hour at 1 kHz in
    # 50-sample Hann segments at 50 % overlap is 143,999 of them, where
    # the property cases above hold at most ~3,000.
    fs, nperseg, noverlap = 1000.0, 50, 25
    x = np.random.default_rng(0).normal(50.0, 20.0, 3_600_000)
    chunks = (x[a : a + 2**15] for a in range(0, x.size, 2**15))
    assert_same_psd(
        _welch(chunks, fs, _window("hann", nperseg), nperseg, noverlap),
        sps.welch(x, fs=fs, window="hann", nperseg=nperseg, noverlap=noverlap, detrend=False),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=welch_cases())
def test_periodogram_matches_scipy(case):
    x, fs, _, _, _ = case
    est = estimate_psd(LoadSeries(x, fs), method="periodogram")
    assert_same_psd((est.freqs_hz, est.psd_kw2_per_hz), sps.periodogram(x, fs=fs, detrend=False))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 20_000))
@example(n=1)
@example(n=2)
@example(n=3)
@example(n=4096)
def test_hann_is_bit_identical_to_get_window(n):
    for name in WINDOWS:
        assert np.array_equal(_window(name, n), sps.get_window(name, n)), name


def test_shipped_sobol_table_is_scipys():
    installed = Path(scipy.stats.__file__).parent / "_sobol_direction_numbers.npz"
    with np.load(_SOBOL_TABLE) as ours, np.load(installed) as theirs:
        assert sorted(ours.files) == sorted(theirs.files) == ["poly", "vinit"]
        for key in theirs.files:
            assert ours[key].dtype == theirs[key].dtype
            assert np.array_equal(ours[key], theirs[key])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.one_of(st.sampled_from([1, 2]), st.integers(1, 1000)),
    m=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=1, m=0, seed=0)
@example(d=2, m=8, seed=1)
def test_scrambled_sobol_is_bit_identical_to_qmc(d, m, seed):
    # Two draws from one parent, as run_sweep draws one pool per column:
    # each spawns its own child, and the parent's stream is left untouched.
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    directions = _sobol_directions(d)
    for _ in range(2):
        expected = qmc.Sobol(d, scramble=True, seed=theirs).random_base2(m)
        assert np.array_equal(_scrambled_sobol(directions, ours, m), expected)
    assert np.array_equal(ours.random(5), theirs.random(5))


def test_sobol_dimension_limit_is_scipys():
    with pytest.raises(ValueError, match=f"dimensionality is {qmc.Sobol.MAXDIM}"):
        _sobol_directions(qmc.Sobol.MAXDIM + 1)


def scipy_boundary(cfg: ErConfig, l_a: float):
    """The scan of scalar margins refined by ``scipy.optimize.bisect``."""
    d_per = cfg.period_m
    s_a = np.sin(np.pi * l_a / d_per) ** 2

    def margin(l_b):
        return l_a * np.sin(np.pi * l_b / d_per) ** 2 - l_b * s_a

    grid = np.linspace(1e-9 * l_a, l_a * (1 - 1e-9), 4097)
    change = np.flatnonzero(np.diff(np.sign([margin(x) for x in grid])))
    if change.size == 0:
        return None
    return optimize.bisect(margin, *grid[change[0] : change[0] + 2], xtol=1e-9, maxiter=200)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cfg=st.just(INDOT)
    | st.builds(ErConfig, st.floats(0.5, 5.0), st.floats(0.1, 3.0), st.just(100.0), st.just(1e3)),
    frac=st.floats(1e-6, 1.0, exclude_max=True),
)
@example(cfg=INDOT, frac=1.83 / INDOT.period_m)  # a root
@example(cfg=INDOT, frac=1.5 / INDOT.period_m)  # no root
def test_composition_boundary_matches_scipy_bisect(cfg, frac):
    l_a = frac * cfg.period_m
    ours, theirs = composition_boundary(cfg, l_a), scipy_boundary(cfg, l_a)
    assert (ours is None) == (theirs is None)
    if ours is not None:
        assert abs(ours - theirs) <= 1e-9
