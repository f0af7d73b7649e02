"""Series synthesis, PSD estimation, line extraction, ensemble averages."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from dwptload import (
    EnsemblePsd,
    EvClass,
    FleetModel,
    INDOT,
    IngestedFile,
    LoadSeries,
    MaxDemand,
    Peak,
    Scenario,
    TrafficClass,
    VehicleTable,
    analytic_psd,
    covering_scenario,
    detect_peaks,
    empirical_thc,
    estimate_psd,
    fs_harmonic,
    monte_carlo_psd,
    period_coefficients,
    synthesize,
)
from dwptload.roadway import EvParams
from dwptload.signals import MAX_SAMPLES, _grid, _line_powers, _phasor, psd_plan
from oracles import period_coefficients_fft, sampling_bound

F0_246 = 24.6 / INDOT.period_m  # 5.3829... Hz
ALPHA = INDOT.power_density_kw_per_m


def trucks_cover(n, seed, speed=24.6, window=(130.0, 190.0)):
    cls = TrafficClass(1.83, 1.0, speed, MaxDemand(), "truck")
    return covering_scenario(INDOT, [(cls, n)], window, seed=seed)


def manual_scenario(evs, duration=200.0):
    return Scenario(
        cfg=INDOT,
        evs=VehicleTable.from_evs(evs),
        duration_s=duration,
        seed=None,
        provenance=IngestedFile("inline"),
    )


def cosine_series(amps_freqs, fs, duration, offset=0.0):
    t = np.arange(round(duration * fs)) / fs
    x = np.full(t.size, offset)
    for a, f in amps_freqs:
        x = x + a * np.cos(2 * np.pi * f * t)
    return LoadSeries(samples_kw=x, sample_rate_hz=fs)


# --- LoadSeries -------------------------------------------------------------


def test_series_properties_and_validation():
    ser = LoadSeries(samples_kw=np.arange(6.0), sample_rate_hz=2.0, t0_s=1.0)
    assert ser.n_samples == 6
    assert ser.duration_s == 3.0
    assert np.allclose(ser.times_s, 1.0 + np.arange(6) / 2.0)
    assert ser.mean_kw == 2.5
    with pytest.raises(ValueError):
        LoadSeries(samples_kw=np.zeros(4), sample_rate_hz=0.0)


@pytest.mark.parametrize(
    "rate, t0, field",
    [
        (np.inf, 0.0, "sample_rate_hz"),
        (np.nan, 0.0, "sample_rate_hz"),
        (-np.inf, 0.0, "sample_rate_hz"),
        (100.0, np.nan, "t0_s"),
        (100.0, np.inf, "t0_s"),
        (100.0, -np.inf, "t0_s"),
    ],
)
def test_series_rejects_non_finite_fields(rate, t0, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        LoadSeries(samples_kw=np.ones(4), sample_rate_hz=rate, t0_s=t0)


@pytest.mark.parametrize(
    "samples, message",
    [
        (np.array([1.0, np.nan, 3.0, 4.0] * 100), "finite, got nan at index 1"),
        (np.array([0.0, 0.0, -np.inf]), "finite, got -inf at index 2"),
        (np.ones((3, 4)), "1-D and real, got 2-D float64"),
        (np.array([1.0 + 0j]), "1-D and real, got 1-D complex128"),
        ([1.0, 2.0], "an ndarray, got list"),
    ],
)
def test_series_rejects_bad_samples(samples, message):
    with pytest.raises(ValueError, match=f"^samples_kw must be {re.escape(message)}$"):
        LoadSeries(samples_kw=samples, sample_rate_hz=10.0)


# --- synthesize -------------------------------------------------------------


def test_empty_scenario_synthesizes_to_zeros():
    ser = synthesize(manual_scenario([], duration=10.0), 250.0)
    assert ser.n_samples == 2500
    assert not ser.samples_kw.any()
    assert ser.mean_kw == 0.0


def test_constant_regime_vehicle_gives_rectangular_load():
    # 50 kW from a 1.83 m receiver never exhausts a coil, so the load is
    # flat at the demand for the whole on-segment interval.
    ev = EvParams(1.83, 50.0, 24.6, entry_time_s=1.0)
    ser = synthesize(manual_scenario([ev]), 1000.0, (0.0, 20.0))
    assert set(np.unique(ser.samples_kw)) <= {0.0, 50.0}
    assert not ser.samples_kw[:999].any()
    assert np.all(ser.samples_kw[1001:] == 50.0)
    inside = synthesize(manual_scenario([ev]), 1000.0, (2.0, 10.0))
    assert np.all(inside.samples_kw == 50.0)


def test_sample_count_and_window_validation():
    sc = manual_scenario([], duration=30.0)
    assert synthesize(sc, 100.0, (0.0, 12.34)).n_samples == 1234
    assert synthesize(sc, 100.0).n_samples == 3000  # defaults to the horizon
    for bad in ((-1.0, 5.0), (5.0, 5.0), (6.0, 2.0)):
        with pytest.raises(ValueError):
            synthesize(sc, 100.0, bad)


@pytest.mark.parametrize(
    "rate, window, message",
    [
        (100.0, (0.0, np.inf), "bad window"),
        (100.0, (np.nan, 5.0), "bad window"),
        (100.0, (0.0, np.nan), "bad window"),
        (1e308, (0.0, 10.0), "bad window"),  # finite, but too many samples
        (np.inf, None, "sample_rate_hz"),
        (np.nan, None, "sample_rate_hz"),
        (-5.0, None, "sample_rate_hz"),
        (0.0, None, "sample_rate_hz"),
    ],
)
def test_bad_synthesize_arguments_are_named(rate, window, message):
    sc = manual_scenario([EvParams(1.83, 200.0, 24.6, entry_time_s=1.0)], duration=30.0)
    with pytest.raises(ValueError, match=message):
        synthesize(sc, rate, window)


def test_superposition_of_scenarios():
    a = EvParams(1.83, 200.1288, 24.6, entry_time_s=2.0)
    b = EvParams(1.2, 90.0, 29.0, entry_time_s=7.5)
    window = (0.0, 60.0)
    ser_a = synthesize(manual_scenario([a]), 500.0, window)
    ser_b = synthesize(manual_scenario([b]), 500.0, window)
    ser_ab = synthesize(manual_scenario([a, b]), 500.0, window)
    # Each series is within the sampling bound of the continuous pulses,
    # which superpose exactly; the sum of two rounds once more.
    both = manual_scenario([a, b]).evs
    columns = (both.speed_mps, both.entry_time_s, both.rx_len_m, both.peak_demand_kw)
    bound = 2.0 * sampling_bound(INDOT, columns, 500.0, window)
    assert np.all(np.abs(ser_ab.samples_kw - (ser_a.samples_kw + ser_b.samples_kw)) <= bound)
    assert np.all(ser_ab.samples_kw >= 0.0)


def test_synthesis_is_deterministic():
    x = synthesize(trucks_cover(5, 9), 500.0, (130.0, 150.0)).samples_kw
    y = synthesize(trucks_cover(5, 9), 500.0, (130.0, 150.0)).samples_kw
    assert x.tobytes() == y.tobytes()


def test_window_mean_matches_dc_line():
    n = 12
    ser = synthesize(trucks_cover(n, 31), 500.0, (130.0, 190.0))
    ev = EvParams(1.83, ALPHA * 1.83, 24.6)
    expected = n * fs_harmonic(INDOT, ev, 0)
    assert ser.mean_kw == pytest.approx(expected, rel=0.02)


# --- estimate_psd -----------------------------------------------------------


def test_psd_of_pure_cosine():
    ser = cosine_series([(3.0, 7.0)], fs=100.0, duration=20.0)
    psd = estimate_psd(ser, method="periodogram")
    fpk = psd.freqs_hz[np.argmax(psd.psd_kw2_per_hz)]
    assert abs(fpk - 7.0) <= psd.resolution_hz
    assert psd.integrated_power() == pytest.approx(3.0**2 / 2, rel=0.02)
    assert psd.nyquist_hz == 50.0


def test_periodogram_satisfies_parseval():
    ser = synthesize(trucks_cover(8, 3), 500.0, (130.0, 190.0))
    msq = float(np.mean(ser.samples_kw**2))
    psd = estimate_psd(ser, method="periodogram")
    assert psd.integrated_power() == pytest.approx(msq, rel=1e-9)
    assert psd.n_samples == ser.n_samples


def test_welch_preserves_total_power():
    ser = synthesize(trucks_cover(8, 3), 500.0, (130.0, 190.0))
    msq = float(np.mean(ser.samples_kw**2))
    psd = estimate_psd(ser, method="welch")
    assert psd.integrated_power() == pytest.approx(msq, rel=0.01)


@pytest.mark.parametrize("duration_s, bound_mib", [(150.0, 4.1), (600.0, 6.0)])
def test_welch_memory_is_bounded_by_its_block(duration_s, bound_mib):
    # Welch takes the series in sampling blocks and transforms 2**15
    # samples of segments at a time (8 s Hann segments at 1 kHz: 4 of
    # them), whatever the series' length.
    x = np.random.default_rng(0).normal(100.0, 10.0, int(duration_s * 1000))
    ser = LoadSeries(x, 1000.0)
    estimate_psd(ser)  # warm numpy's FFT plan cache outside the trace
    tracemalloc.start()
    try:
        estimate_psd(ser)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


def test_estimate_psd_argument_errors():
    ser = synthesize(trucks_cover(2, 1), 200.0, (130.0, 140.0))
    with pytest.raises(ValueError):
        estimate_psd(ser, method="welch", segment_s=30.0)  # longer than series
    with pytest.raises(ValueError):
        estimate_psd(ser, method="welch", segment_s=0.001)
    with pytest.raises(ValueError, match="noverlap=2 must be less than nperseg=2!"):
        estimate_psd(ser, method="welch", segment_s=0.01, overlap_frac=0.99)
    with pytest.raises(ValueError, match="Invalid window name 'bogus'"):
        estimate_psd(ser, method="welch", window="bogus")
    with pytest.raises(ValueError, match="1 samples too short for a periodogram"):
        estimate_psd(LoadSeries(np.array([5.0]), 10.0), method="periodogram")
    with pytest.raises(ValueError):
        estimate_psd(ser, method="multitaper")
    # psd_plan checks what RunConfig checks for the CLI: a negative overlap
    # would skip samples between segments, and NaN is no number of samples.
    for frac in (-0.5, 1.0, np.nan):
        with pytest.raises(ValueError, match=rf"^overlap_frac must lie in \[0, 1\), got {frac}$"):
            estimate_psd(ser, method="welch", segment_s=2.0, overlap_frac=frac)
    with pytest.raises(ValueError, match="^segment_s too short: nan$"):
        estimate_psd(ser, method="welch", segment_s=np.nan)
    # The rate is refused before the segment it scales.
    for fs in (np.nan, np.inf, 0.0, -100.0):
        message = rf"^sample_rate_hz must be finite and > 0, got {fs}$"
        for method in ("welch", "periodogram"):
            with pytest.raises(ValueError, match=message):
                psd_plan(10_000, fs, method, 8.0, 0.5, "hann")


def test_single_speed_fundamental_dominates():
    ser = synthesize(trucks_cover(8, 3), 500.0, (130.0, 190.0))
    psd = estimate_psd(ser, method="welch")
    mask = psd.freqs_hz > 2.0
    fpk = psd.freqs_hz[mask][np.argmax(psd.psd_kw2_per_hz[mask])]
    assert abs(fpk - F0_246) <= psd.resolution_hz


def test_two_speed_scenario_shows_both_fundamentals():
    t_cls = TrafficClass(1.83, 0.5, 21.7, MaxDemand(), "t")
    s_cls = TrafficClass(1.2, 0.5, 29.0, MaxDemand(), "s")
    sc = covering_scenario(INDOT, [(t_cls, 6), (s_cls, 6)], (130.0, 190.0), seed=4)
    psd = estimate_psd(synthesize(sc, 500.0, (130.0, 190.0)), method="welch")
    for f0 in (21.7 / INDOT.period_m, 29.0 / INDOT.period_m):
        j = int(round(f0 / psd.resolution_hz))
        sl = psd.psd_kw2_per_hz[j - 2 : j + 3]
        fpk = psd.freqs_hz[j - 2 + int(np.argmax(sl))]
        assert abs(fpk - f0) <= psd.resolution_hz


def _local_maxima(psd, lo, hi):
    f, p = psd.freqs_hz, psd.psd_kw2_per_hz
    idx = np.where((f >= lo) & (f <= hi))[0]
    return [
        float(f[i])
        for i in idx
        if 0 < i < f.size - 1 and p[i] > p[i - 1] and p[i] > p[i + 1]
    ]


def test_welch_resolution_scales_with_segment_length():
    # Two tones 0.4 Hz apart: resolved with 10 s segments, merged at 2 s.
    ser = cosine_series([(1.0, 5.0), (1.0, 5.4)], fs=100.0, duration=60.0)
    fine = estimate_psd(ser, method="welch", segment_s=10.0)
    coarse = estimate_psd(ser, method="welch", segment_s=2.0)
    assert coarse.resolution_hz == 5 * fine.resolution_hz
    assert _local_maxima(fine, 4.6, 5.9) == [5.0, 5.4]
    assert len(_local_maxima(coarse, 4.6, 5.9)) <= 1


# --- detect_peaks -----------------------------------------------------------


def test_detect_peaks_recovers_exact_lines():
    # Whole numbers of cycles put each tone exactly on a periodogram bin.
    ser = cosine_series([(2.0, 3.0), (1.0, 5.0)], fs=64.0, duration=8.0, offset=4.0)
    psd = estimate_psd(ser, method="periodogram")
    peaks = detect_peaks(psd, [3.0, 5.0], m_max=1)
    assert [(p.fundamental_hz, p.m) for p in peaks] == [(3.0, 1), (5.0, 1)]
    assert [p.freq_hz for p in peaks] == [3.0, 5.0]
    assert peaks[0].line_power_kw2 == pytest.approx((2.0 / 2) ** 2, rel=1e-9)
    assert peaks[1].line_power_kw2 == pytest.approx((1.0 / 2) ** 2, rel=1e-9)
    assert all(p.resolved for p in peaks)


def test_detect_peaks_harmonic_set():
    amps = [1.5, 0.8, 0.3]
    ser = cosine_series(
        [(a, 2.0 * (m + 1)) for m, a in enumerate(amps)], fs=64.0, duration=8.0
    )
    psd = estimate_psd(ser, method="periodogram")
    peaks = detect_peaks(psd, [2.0], m_max=3)
    assert [p.m for p in peaks] == [1, 2, 3]
    assert [p.target_hz for p in peaks] == [2.0, 4.0, 6.0]
    for p, a in zip(peaks, amps):
        assert p.freq_hz == p.target_hz
        assert p.line_power_kw2 == pytest.approx((a / 2) ** 2, rel=1e-9)


def test_detect_peaks_flags_crowded_targets():
    ser = cosine_series([(1.0, 5.0), (1.0, 5.125)], fs=64.0, duration=8.0)
    psd = estimate_psd(ser, method="periodogram")
    peaks = detect_peaks(psd, [5.0, 5.125], m_max=1)
    assert [p.resolved for p in peaks] == [False, False]


def test_detect_peaks_drops_targets_beyond_nyquist():
    ser = cosine_series([(1.0, 30.0)], fs=100.0, duration=4.0)
    psd = estimate_psd(ser, method="periodogram")
    peaks = detect_peaks(psd, [30.0], m_max=3)
    assert [p.m for p in peaks] == [1]
    with pytest.raises(ValueError):
        detect_peaks(psd, [30.0], m_max=0)


def test_averaged_peak_powers_match_line_spectrum():
    # Window spanning a whole number of coil periods puts the harmonic
    # lines on periodogram bins, so +/-3 bins captures each line fully.
    n_evs, fs = 15, 200.0
    width = round(323 * fs / F0_246) / fs
    ev = EvParams(1.83, ALPHA * 1.83, 24.6)
    samples = {1: [], 2: []}
    for s in range(32):
        sc = trucks_cover(n_evs, 100 + s, window=(130.0, 130.0 + width))
        psd = estimate_psd(
            synthesize(sc, fs, (130.0, 130.0 + width)), method="periodogram"
        )
        for p in detect_peaks(psd, [F0_246], m_max=2):
            samples[p.m].append(p.line_power_kw2)
    for m in (1, 2):
        vals = np.array(samples[m])
        expected = n_evs * fs_harmonic(INDOT, ev, m) ** 2
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - expected) <= 3 * se


# --- harmonic projections and THC -------------------------------------------


def test_line_powers_match_closed_form_coefficients():
    ser = synthesize(trucks_cover(1, 11), 2000.0, (130.0, 190.0))
    ev = EvParams(1.83, ALPHA * 1.83, 24.6)
    z = _phasor(ser.n_samples, ser.sample_rate_hz, F0_246)
    measured = np.sqrt(_line_powers(ser.samples_kw, z, 8))
    expected = np.abs([fs_harmonic(INDOT, ev, m) for m in range(1, 9)])
    # Near-null coefficients (m=5 here) only meet an absolute tolerance.
    assert np.allclose(measured, expected, rtol=1e-2, atol=0.05)


def test_line_power_argument_errors():
    ser = cosine_series([(1.0, 5.0)], fs=100.0, duration=10.0)
    z = _phasor(ser.n_samples, ser.sample_rate_hz, 5.0)
    with pytest.raises(ValueError):
        _line_powers(ser.samples_kw, z, 0)
    with pytest.raises(ValueError):
        _phasor(ser.n_samples, ser.sample_rate_hz, 0.01)  # shorter than one period


def test_thc_of_constant_load_is_zero():
    ser = LoadSeries(samples_kw=np.full(5000, 80.0), sample_rate_hz=500.0)
    assert empirical_thc(ser, [5.0], 8) < 1e-8


def test_thc_rejects_zero_mean():
    ser = LoadSeries(samples_kw=np.zeros(1000), sample_rate_hz=100.0)
    with pytest.raises(ValueError):
        empirical_thc(ser, [5.0], 3)
    with pytest.raises(ValueError):
        empirical_thc(LoadSeries(samples_kw=np.zeros(0), sample_rate_hz=100.0), [5.0], 3)


def test_single_vehicle_thc_near_full_output_value():
    ser = synthesize(trucks_cover(1, 11), 2000.0, (130.0, 190.0))
    assert empirical_thc(ser, [F0_246], 50) == pytest.approx(26.0, abs=1.0)


def test_thc_routes_agree():
    # The projection against the Welch peaks' line powers over the same mean.
    ser = synthesize(trucks_cover(8, 3), 500.0, (130.0, 190.0))
    via_series = empirical_thc(ser, [F0_246], 8)
    peaks = detect_peaks(estimate_psd(ser, method="welch"), [F0_246], 8)
    via_psd = 100.0 * np.sqrt(2.0 * sum(p.line_power_kw2 for p in peaks)) / ser.mean_kw
    assert via_psd == pytest.approx(via_series, rel=0.05)


def test_mixture_thc_orders_by_sedan_receiver_length():
    # 45-vehicle truck/sedan mixes at two truck counts: shorter sedan
    # receivers raise the harmonic content at every mix, and more trucks
    # raise it when the sedans are the milder class.  All vehicles draw
    # their maximum so the three columns share phase draws (common random
    # numbers) and the ordering is resolved with few windows.
    window = (130.0, 170.0)
    f_truck = 21.7 / INDOT.period_m
    f_sedan = 29.0 / INDOT.period_m
    table = {}
    for n_trucks in (2, 8):
        row = []
        for rx_sedan in (0.58, 1.2, 1.7):
            truck = TrafficClass(1.83, n_trucks / 45, 21.7, MaxDemand(), "truck")
            sedan = TrafficClass(rx_sedan, 1 - n_trucks / 45, 29.0, MaxDemand(), "s")
            thcs = []
            for w in range(12):
                sc = covering_scenario(
                    INDOT, [(truck, n_trucks), (sedan, 45 - n_trucks)], window, seed=w
                )
                ser = synthesize(sc, 400.0, window)
                thcs.append(empirical_thc(ser, [f_truck, f_sedan], 8))
            row.append(float(np.sqrt(np.mean(np.square(thcs)))))
        table[n_trucks] = row
        assert row[0] > row[1] > row[2]
    for col in range(3):
        assert 3.0 < table[2][col] < 8.0
        assert 3.0 < table[8][col] < 8.0


# --- period-exact coefficients ----------------------------------------------


def test_period_coefficients_match_closed_form():
    ev = EvParams(1.83, ALPHA * 1.83, 24.6)
    got = period_coefficients(INDOT, 1.83, ev.peak_demand_kw, 10)
    want = [fs_harmonic(INDOT, ev, 0)] + [abs(fs_harmonic(INDOT, ev, m)) for m in range(1, 11)]
    np.testing.assert_allclose(np.abs(got), want, rtol=1e-14, atol=1e-12)
    # The coil-start phase against the DFT of a sampled period; atol
    # covers DFT aliasing on the near-null m=5 and m=10 lines.
    fft = period_coefficients_fft(INDOT, 1.83, ev.peak_demand_kw, 10)
    assert np.allclose(got, fft, rtol=1e-6, atol=1e-7)


def test_period_coefficients_constant_regime():
    got = period_coefficients(INDOT, 1.83, 50.0, 6)
    assert got[0] == 50.0
    assert not got[1:].any()
    np.testing.assert_allclose(got, period_coefficients_fft(INDOT, 1.83, 50.0, 6), atol=1e-12)


# --- Monte Carlo ensembles --------------------------------------------------


def fleet(n_evs, rx=1.83):
    return FleetModel(
        cfg=INDOT,
        classes=(EvClass(rx, 1.0, MaxDemand(), "t"),),
        n_evs=n_evs,
        speed_mps=24.6,
    )


def test_monte_carlo_single_vehicle_is_exact():
    model = fleet(1)
    ref = analytic_psd(model, n_harmonics=5)
    mc = monte_carlo_psd(model, trials=100, seed=1, m_max=5)
    assert isinstance(mc, EnsemblePsd)
    assert mc.fundamental_hz == model.fundamental_hz
    expected = np.concatenate([[ref.dc_power_sq], ref.harmonic_powers])
    assert np.allclose(mc.line_powers_kw2, expected, rtol=1e-6)
    # Identical trials: any residual spread is pure float cancellation.
    assert np.all(mc.stderr_kw2 <= 1e-7 * (1.0 + mc.line_powers_kw2))


def test_monte_carlo_matches_analytic_lines():
    model = fleet(45)
    ref = analytic_psd(model, n_harmonics=5)
    mc = monte_carlo_psd(model, trials=2000, seed=6, m_max=5)
    # Point demands make the DC sum deterministic.
    assert mc.line_powers_kw2[0] == pytest.approx(ref.dc_power_sq, rel=1e-9)
    for m in range(1, 6):
        dev = abs(mc.line_powers_kw2[m] - ref.harmonic_powers[m - 1])
        assert dev <= 3 * mc.stderr_kw2[m]


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        monte_carlo_psd(fleet(5), trials=50, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_psd(fleet(5), trials=100, seed=0, m_max=-1)


def test_grid_sample_limit_is_inclusive():
    assert _grid((0.0, 2.0**27), 1.0) == (0.0, MAX_SAMPLES) == (0.0, 2**27)
    refusal = (
        r"^window \(0\.0, 134217729\.0\) at 1\.0 Hz makes 134217729 samples, above the "
        r"limit of 134217728$"
    )
    with pytest.raises(ValueError, match=refusal):
        _grid((0.0, 2.0**27 + 1), 1.0)
    # A finite but absurd window: the count in short float form, not as a
    # 300-digit integer.
    huge = (
        r"^window \(130\.0, 1e\+300\) at 500\.0 Hz makes 5e\+302 samples, above the "
        r"limit of 134217728$"
    )
    with pytest.raises(ValueError, match=huge):
        _grid((130.0, 1e300), 500.0)
    # synthesize refuses its grid before it holds a sample: the parent
    # asked numpy for 1e13 floats (72.8 TiB).
    with pytest.raises(ValueError, match=r"^window \(0\.0, 10\.0\) at 1000000000000\.0 Hz makes"):
        synthesize(trucks_cover(1, 0), 1e12, window=(0.0, 10.0))
