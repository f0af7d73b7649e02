"""Top-level acceptance checks.

Each test prints one PASS/FAIL summary line with the measured quantity
and its tolerance, then asserts, so a bare ``pytest`` run still shows
the verdict table.  Tests 03-06, 09 and 10 run the checks of
:mod:`dwptload.invariants` on INDOT with their own seeds and draw counts.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from dwptload import (
    INDOT,
    MaxDemand,
    TrafficClass,
    TrafficSpec,
    default_sweep_config,
    detect_peaks,
    estimate_psd,
    fs_harmonic_grid,
    generate,
    harmonic_count_for_dc,
    q_ratio,
    run_sweep,
    synthesize,
    thc_single,
)
from dwptload.invariants import CHECKS
from dwptload.roadway import EvParams

ALPHA = INDOT.power_density_kw_per_m
TRUCK = EvParams(1.83, ALPHA * 1.83, 24.6)


@pytest.fixture
def report(capsys):
    def _emit(ok: bool, label: str, detail: str) -> None:
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")

    return _emit


def full_spectrum(rx_len_m: float, demand_kw: float, m_max: int) -> np.ndarray:
    """Coefficients c_0..c_m_max of one vehicle, as a flat vector."""
    m = np.arange(m_max + 1)
    return fs_harmonic_grid(INDOT, rx_len_m, np.array([demand_kw]), m)[0]


def test_01_reference_vehicle_thc(report):
    start = time.perf_counter()
    order = harmonic_count_for_dc(INDOT, full_spectrum(1.83, TRUCK.peak_demand_kw, 0)[0])
    thc = thc_single(INDOT, TRUCK, order)
    elapsed = time.perf_counter() - start
    ok = abs(thc - 26.0) <= 0.2 and elapsed < 1.0
    report(ok, "reference-vehicle THC", f"{thc:.4f}% (26.0+/-0.2) in {elapsed:.3f}s")
    assert abs(thc - 26.0) <= 0.2
    assert elapsed < 1.0


def test_02_first_harmonic_share(report):
    c = full_spectrum(1.83, TRUCK.peak_demand_kw, 1)
    value = np.sqrt(2.0) * abs(c[1]) / c[0]
    ok = abs(value - 0.250) <= 0.005
    report(ok, "first-harmonic share", f"sqrt(2)*c1/c0 = {value:.5f} (0.250+/-0.005)")
    assert abs(value - 0.250) <= 0.005


def run_check(name: str, seed: int, n: int) -> tuple[float, float]:
    """(worst value, bound) of one :mod:`dwptload.invariants` check on INDOT."""
    check = CHECKS[name]
    return check.run(INDOT, np.random.default_rng(seed), n), check.bound


def test_03_closed_form_matches_quadrature(report):
    start = time.perf_counter()
    worst, bound = run_check("fs-oracle", 20260823, 100)
    elapsed = time.perf_counter() - start
    ok = worst <= bound and elapsed < 10.0
    report(
        ok,
        "closed form vs quadrature",
        f"worst rel err {worst:.2e} (<={bound:g}) over 100 draws, m<=50, in {elapsed:.2f}s",
    )
    assert worst <= bound
    assert elapsed < 10.0


def test_04_harmonic_envelope(report):
    worst, bound = run_check("harmonic-bound", 41, 1000)
    report(
        worst <= bound,
        "quadratic envelope",
        f"max |c_m| / (alpha*D/(m*pi)^2) {worst:.6f} (<=1+1e-12) over 1000 draws, m<=100",
    )
    assert worst <= bound


def test_05_clipping_never_rougher_than_scaling(report):
    assert INDOT.tx_len_m > INDOT.period_m / 2  # the regime where this holds
    worst, bound = run_check("clipping-vs-scaling", 0, 100)
    report(
        worst <= bound,
        "clipping vs scaling",
        f"max clip-minus-scale {worst:.2e} (<={bound:g}) over 100x100 grid points",
    )
    assert worst <= bound


def test_06_ensemble_average_matches_line_spectrum(report):
    start = time.perf_counter()
    worst_z, bound = run_check("ensemble-mc", 20260823, 10_000)
    elapsed = time.perf_counter() - start
    ok = worst_z <= bound and elapsed < 60.0
    report(
        ok,
        "Monte Carlo line powers",
        f"max |z| {worst_z:.2f} (<={bound:g}) over m=0..5, 1e4 trials in {elapsed:.2f}s",
    )
    assert worst_z <= bound
    assert elapsed < 60.0


def test_07_two_speed_fundamentals_detected(report):
    spec = TrafficSpec(
        rate_evps=0.8,
        duration_s=60.0,
        classes=(
            TrafficClass(1.83, 0.5, 21.7, MaxDemand(), "truck"),
            TrafficClass(1.7, 0.5, 29.0, MaxDemand(), "sedan"),
        ),
    )
    scenario = generate(INDOT, spec, seed=5)
    psd = estimate_psd(synthesize(scenario, 400.0), method="welch")
    targets = [21.7 / INDOT.period_m, 29.0 / INDOT.period_m]
    peaks = detect_peaks(psd, targets, m_max=1)
    errs = [abs(p.freq_hz - p.target_hz) for p in peaks]
    ok = len(peaks) == 2 and all(e <= psd.resolution_hz for e in errs)
    report(
        ok,
        "two-speed fundamentals",
        f"4.75/6.35 Hz found within {psd.resolution_hz} Hz (errs {errs[0]:.4f}, {errs[1]:.4f})",
    )
    assert len(peaks) == 2
    for e in errs:
        assert e <= psd.resolution_hz


def test_08_penetration_sweep_trends(report):
    result = run_sweep(default_sweep_config(INDOT, n_windows=128), seed=20260823)
    rms = result.thc_rms
    short_cols_rise = bool(
        np.all(rms[1:, 0] > rms[:-1, 0]) and np.all(rms[1:, 1] > rms[:-1, 1])
    )
    long_spread = result.column_spread(2)
    in_band = bool(np.all((rms >= 3.65) & (rms <= 13.73)))
    ok = short_cols_rise and long_spread < 0.5 and in_band
    report(
        ok,
        "penetration sweep",
        f"rising cols {short_cols_rise}, 1.7 m spread {long_spread:.3f} (<0.5), "
        f"cells {rms.min():.2f}..{rms.max():.2f} in [3.65, 13.73]",
    )
    assert short_cols_rise
    assert long_spread < 0.5
    assert in_band


def test_09_composition_ratio_sign(report):
    n_pairs = 1000
    disagreements, _ = run_check("composition-sign", 7, n_pairs)
    rng = np.random.default_rng(7)
    thc_matches = 0
    for _ in range(n_pairs):
        l_a = rng.uniform(1.55, 1.83)
        l_b = rng.uniform(0.3, 0.75)
        theta2 = rng.uniform(0.02, 0.4)
        theta1 = rng.uniform(theta2 + 0.02, 0.6)
        n2 = rng.uniform(10.0, 100.0)
        q = q_ratio(INDOT, l_a, l_b, theta1=theta1, theta2=theta2, n2=n2)

        spec_a = full_spectrum(l_a, ALPHA * l_a, 50)
        spec_b = full_spectrum(l_b, ALPHA * l_b, 50)
        h_a, h_b = np.sum(spec_a[1:] ** 2), np.sum(spec_b[1:] ** 2)
        mean1 = theta1 * spec_a[0] + (1 - theta1) * spec_b[0]
        mean2 = theta2 * spec_a[0] + (1 - theta2) * spec_b[0]
        n1 = n2 * mean2 / mean1
        agg1 = n1 * (theta1 * h_a + (1 - theta1) * h_b)
        agg2 = n2 * (theta2 * h_a + (1 - theta2) * h_b)
        # Equal mean power, so the lower aggregate harmonic power is the
        # lower THC once all 50 harmonics are kept.
        thc_matches += int((q < 1.0) == (agg1 < agg2))
    ok = disagreements == 0 and thc_matches >= 0.99 * n_pairs
    report(
        ok,
        "composition ratio sign",
        f"{disagreements:g}/{n_pairs} disagree with the length condition, "
        f"{thc_matches}/{n_pairs} match the 50-harmonic comparison (>=99%)",
    )
    assert disagreements == 0
    assert thc_matches >= 0.99 * n_pairs


def test_10_line_spectrum_carries_the_power(report):
    worst, bound = run_check("parseval", 3, 100)
    report(
        worst <= bound,
        "spectral power balance",
        f"worst rel err {worst:.2e} (<={bound:g}) over 100 draws, m>=1000",
    )
    assert worst <= bound
