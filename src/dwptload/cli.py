"""Command-line front end for the load simulator.

Subcommands cover the whole pipeline: ``simulate`` (traffic -> sampled
load), ``spectrum`` (single-vehicle Fourier table), ``psd``
(synthesize -> estimate -> peak detection, or the analytic line
spectrum), ``composition`` (truck-share sweep), ``validate``
(self-check suites), and ``ingest`` (trajectory CSV -> scenario JSON).

Configuration is one JSON document; every flag overrides the matching
config key and built-in defaults (the INDOT pilot geometry) fill the
rest.  Outputs are written atomically and stamped with the resolved
config hash, the seed, and the package version, so any artifact can be
regenerated from its own metadata.

Exit codes: 0 success, 2 validation failure, 3 I/O error, 4 config
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .composition import SweepColumn, SweepConfig, default_sweep_config, run_sweep
from .fleet import (
    EvClass,
    FleetModel,
    MaxDemand,
    UniformExplicit,
    analytic_psd,
    composition_condition,
    q_ratio,
)
from .roadway import INDOT, ErConfig, EvParams, _require_finite, coil_pulse, constant_regime
from .signals import (
    _welch_segments,
    _window,
    detect_peaks,
    empirical_thc,
    estimate_psd,
    monte_carlo_psd,
    synthesize,
)
from .spectrum import (
    default_harmonic_count,
    fs_coefficients,
    fs_dc,
    fs_harmonic,
    fs_harmonic_grid,
    harmonic_bound,
    harmonic_ratio_clipping,
    harmonic_ratio_scaling,
    thc_single,
)
from .schema import dumps, from_dict, members, to_dict
from .traffic import IngestError, Scenario, TrafficClass, TrafficSpec, generate, ingest

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_CONFIG = 4


class ConfigError(ValueError):
    """Bad config file or flag combination."""


class ValidationFailure(Exception):
    """A validate suite found a violated invariant."""


# --- run configuration ----------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one CLI invocation."""

    er: ErConfig = INDOT
    traffic: Optional[TrafficSpec] = None
    seed: int = 0
    out_dir: str = "."
    sample_rate_hz: float = 1000.0
    duration_s: float = 60.0
    psd_method: str = "welch"
    segment_s: float = 8.0
    overlap_frac: float = 0.5
    psd_window: str = "hann"
    trials: int = 10_000
    harmonics: Optional[int] = None
    analytic: bool = False
    # single-vehicle target for `spectrum`
    rx_len_m: float = 1.83
    demand_kw: Optional[float] = None  # None = rated maximum for the receiver
    speed_mps: float = 24.6
    # `composition` sweep shape
    thetas: tuple[float, ...] = (0.0377, 0.0557, 0.1775)
    sweep_columns: tuple[SweepColumn, ...] = ()
    n_windows: int = 24
    n_ref: int = 45

    def __post_init__(self) -> None:
        _require_finite(
            self, "sample_rate_hz", "duration_s", "segment_s", "rx_len_m", "speed_mps"
        )
        if self.demand_kw is not None:
            _require_finite(self, "demand_kw")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.sample_rate_hz <= 0:
            raise ConfigError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
        if self.duration_s <= 0:
            raise ConfigError(f"duration_s must be > 0, got {self.duration_s}")
        if self.psd_method not in ("welch", "periodogram"):
            raise ConfigError(f"unknown psd_method {self.psd_method!r}")
        if self.segment_s <= 0 or not 0 <= self.overlap_frac < 1:
            raise ConfigError("bad Welch settings")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.harmonics is not None and self.harmonics < 1:
            raise ConfigError(f"harmonics must be >= 1, got {self.harmonics}")
        if self.rx_len_m <= 0 or self.speed_mps <= 0:
            raise ConfigError("rx_len_m and speed_mps must be > 0")
        if self.demand_kw is not None and self.demand_kw < 0:
            raise ConfigError(f"demand_kw must be >= 0, got {self.demand_kw}")
        if any(not 0 <= t <= 1 for t in self.thetas):
            raise ConfigError(f"thetas must lie in [0, 1], got {self.thetas}")
        if self.n_windows < 1 or self.n_ref < 1:
            raise ConfigError("n_windows and n_ref must be >= 1")


#: Keys of the Welch estimate, which a periodogram (one boxcar segment
#: over the whole series) does not use.
_WELCH_KEYS = ("psd_window", "segment_s", "overlap_frac")


def runconfig_from_dict(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document (rules in :mod:`.schema`).

    A document with ``"psd_method": "periodogram"`` may not set a Welch
    key: it would be ignored.
    """
    try:
        rc = from_dict(RunConfig, doc, "config")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if rc.psd_method == "periodogram":
        for key in _WELCH_KEYS:
            if key in doc:
                raise ConfigError(
                    f"config.{key}: not used by psd_method 'periodogram', "
                    "which is one boxcar segment over the whole series"
                )
    return rc


def runconfig_to_dict(rc: RunConfig) -> dict:
    """Inverse of :func:`runconfig_from_dict`, used for hashing.  It holds
    every field, so a periodogram config's document carries the Welch keys
    at their defaults and is not read back."""
    return to_dict(rc)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


_FLAG_FIELDS = (
    "seed",
    "out_dir",
    "sample_rate_hz",
    "duration_s",
    "trials",
    "harmonics",
    "analytic",
    "n_windows",
)


#: Sampling keys of `simulate` and `psd`, which `composition` does not
#: read: its sweep samples windows of a fixed length at a fixed rate.
_SAMPLING_KEYS = ("sample_rate_hz", "duration_s")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flag overrides into the config file on top of defaults.

    A `composition` document may not set a sampling key: it would be
    ignored.
    """
    doc = _load_config(getattr(args, "config", None))
    for field in _FLAG_FIELDS:
        value = getattr(args, field, None)
        if value is not None:
            doc[field] = value
    rc = runconfig_from_dict(doc)
    if getattr(args, "command", None) == "composition":
        for key in _SAMPLING_KEYS:
            if key in doc:
                raise ConfigError(
                    f"config.{key}: not used by composition, whose sweep samples "
                    f"fixed {SweepConfig.window_s:g} s windows at "
                    f"{SweepConfig.sample_rate_hz:g} Hz"
                )
    return rc


# --- output plumbing ------------------------------------------------------


def run_metadata(rc: RunConfig) -> dict:
    canonical = json.dumps(runconfig_to_dict(rc), sort_keys=True)
    return {
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": rc.seed,
        "version": __version__,
    }


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, meta: dict, header: Sequence[str], rows) -> None:
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.10g}"
    return "" if cell is None else str(cell)


def _write_json(path: Path, meta: dict, body: dict) -> None:
    _write_atomic(path, dumps({"meta": meta, **body}))


# --- subcommands ----------------------------------------------------------


def _default_simulate_traffic(rc: RunConfig) -> TrafficSpec:
    return TrafficSpec(
        rate_evps=0.3,
        duration_s=rc.duration_s,
        classes=(
            TrafficClass(1.83, 1.0, 24.6, MaxDemand(), "truck"),
        ),
    )


def _default_psd_traffic(rc: RunConfig) -> TrafficSpec:
    return TrafficSpec(
        rate_evps=0.8,
        duration_s=rc.duration_s,
        classes=(
            TrafficClass(1.83, 0.5, 21.7, MaxDemand(), "truck"),
            TrafficClass(1.7, 0.5, 29.0, MaxDemand(), "sedan"),
        ),
    )


def _resolved_traffic(rc: RunConfig, fallback) -> TrafficSpec:
    if rc.traffic is None:
        return fallback(rc)
    if rc.traffic.duration_s != rc.duration_s:
        raise ConfigError(
            f"traffic.duration_s ({rc.traffic.duration_s}) must equal "
            f"duration_s ({rc.duration_s})"
        )
    return rc.traffic


def cmd_simulate(rc: RunConfig) -> int:
    spec = _resolved_traffic(rc, _default_simulate_traffic)
    scenario = generate(rc.er, spec, rc.seed)
    series = synthesize(scenario, rc.sample_rate_hz)
    meta = run_metadata(rc)
    out = Path(rc.out_dir)
    _write_csv(
        out / "timeseries.csv",
        meta,
        ("time_s", "load_kw"),
        zip(series.times_s.tolist(), series.samples_kw.tolist()),
    )
    _write_json(out / "scenario.json", meta, members(scenario))
    print(
        f"simulate: {len(scenario.evs)} vehicles, {series.n_samples} samples, "
        f"mean load {series.mean_kw:.10g} kW"
    )
    return EXIT_OK


def cmd_spectrum(rc: RunConfig) -> int:
    alpha = rc.er.power_density_kw_per_m
    demand = rc.demand_kw if rc.demand_kw is not None else alpha * rc.rx_len_m
    ev = EvParams(rc.rx_len_m, demand, rc.speed_mps)
    ev.validate_against(rc.er)
    n_harmonics = rc.harmonics or default_harmonic_count(rc.er, ev)
    coeffs = fs_coefficients(rc.er, ev, n_harmonics)
    thc = thc_single(rc.er, ev, n_harmonics)
    meta = run_metadata(rc)
    out = Path(rc.out_dir)

    rows = [(0, 0.0, coeffs.c0_kw, None)]
    for m, cm in enumerate(coeffs.harmonics_kw, start=1):
        rows.append((m, m * ev.fundamental_hz(rc.er), cm, harmonic_bound(rc.er, m)))
    _write_csv(
        out / "fs_coeffs.csv",
        meta,
        ("m", "freq_hz", "coeff_kw", "bound_kw"),
        rows,
    )
    body = {
        "thc_percent": thc,
        "dc_kw": coeffs.c0_kw,
        "fundamental_hz": ev.fundamental_hz(rc.er),
        "harmonics_used": n_harmonics,
        "constant_load": constant_regime(rc.er, ev),
    }
    if not constant_regime(rc.er, ev):
        body["first_harmonic_ratio"] = harmonic_ratio_clipping(rc.er, ev)
    _write_json(out / "thc.json", meta, body)
    print(f"spectrum: THC {thc:.10g} % over {n_harmonics} harmonics")
    return EXIT_OK


def _speed_groups(scenario: Scenario) -> dict[float, list[EvParams]]:
    groups: dict[float, list[EvParams]] = {}
    for ev in scenario.evs:
        groups.setdefault(ev.speed_mps, []).append(ev)
    return groups


def _analytic_lines(rc: RunConfig, scenario: Scenario):
    """Per-speed-group line spectra for the vehicles actually generated."""
    lines = []
    fundamentals = []
    for speed, evs in sorted(_speed_groups(scenario).items()):
        classes: dict[tuple[float, float], int] = {}
        for ev in evs:
            key = (ev.rx_len_m, ev.peak_demand_kw)
            classes[key] = classes.get(key, 0) + 1
        model = FleetModel(
            cfg=rc.er,
            classes=tuple(
                # Point-mass demand at whatever each vehicle actually drew.
                EvClass(rx, count / len(evs), UniformExplicit(demand, demand))
                for (rx, demand), count in sorted(classes.items())
            ),
            n_evs=len(evs),
            speed_mps=speed,
        )
        psd = analytic_psd(model, rc.harmonics or None)
        fundamentals.append(psd.fundamental_hz)
        lines.append((0.0, psd.dc_power_sq, speed))
        for m, power in enumerate(psd.harmonic_powers, start=1):
            lines.append((m * psd.fundamental_hz, power, speed))
    return fundamentals, lines


def cmd_psd(rc: RunConfig) -> int:
    if not rc.analytic and rc.psd_method == "welch":
        # Reject Welch settings that cannot work now, not after the whole
        # horizon has been generated and synthesized: the series will have
        # round(duration_s * sample_rate_hz) samples.  Whether a window name
        # is known does not depend on the length, and two samples stay small
        # for any segment.
        n = int(round(rc.duration_s * rc.sample_rate_hz))
        try:
            _welch_segments(n, rc.sample_rate_hz, rc.segment_s, rc.overlap_frac)
            _window(rc.psd_window, 2)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    spec = _resolved_traffic(rc, _default_psd_traffic)
    scenario = generate(rc.er, spec, rc.seed)
    meta = run_metadata(rc)
    out = Path(rc.out_dir)
    if not scenario.evs:
        raise ValidationFailure("psd: generated scenario contains no vehicles")

    if rc.analytic:
        fundamentals, lines = _analytic_lines(rc, scenario)
        _write_csv(
            out / "psd.csv",
            meta,
            ("freq_hz", "line_power_kw2", "speed_mps"),
            lines,
        )
        _write_json(
            out / "peaks.json",
            meta,
            {"mode": "analytic", "fundamentals_hz": fundamentals},
        )
        print(f"psd: analytic lines for fundamentals {fundamentals}")
        return EXIT_OK

    series = synthesize(scenario, rc.sample_rate_hz)
    est = estimate_psd(
        series,
        method=rc.psd_method,
        segment_s=rc.segment_s,
        overlap_frac=rc.overlap_frac,
        window=rc.psd_window,
    )
    fundamentals = sorted(set((scenario.evs.speed_mps / rc.er.period_m).tolist()))
    peaks = detect_peaks(est, fundamentals, rc.harmonics or 5)
    _write_csv(
        out / "psd.csv",
        meta,
        ("freq_hz", "psd_kw2_per_hz"),
        zip(est.freqs_hz.tolist(), est.psd_kw2_per_hz.tolist()),
    )
    _write_json(
        out / "peaks.json",
        meta,
        {
            "mode": rc.psd_method,
            "resolution_hz": est.resolution_hz,
            "fundamentals_hz": fundamentals,
            "peaks": [
                {
                    "fundamental_hz": p.fundamental_hz,
                    "m": p.m,
                    "target_hz": p.target_hz,
                    "freq_hz": p.freq_hz,
                    "line_power_kw2": p.line_power_kw2,
                    "resolved": p.resolved,
                }
                for p in peaks
            ],
        },
    )
    detected = [p.freq_hz for p in peaks if p.m == 1]
    print(f"psd: detected fundamentals near {detected} Hz")
    return EXIT_OK


def cmd_composition(rc: RunConfig) -> int:
    if rc.sweep_columns:
        sw = SweepConfig(
            cfg=rc.er,
            columns=rc.sweep_columns,
            thetas=rc.thetas,
            n_ref=rc.n_ref,
            n_windows=rc.n_windows,
        )
    else:
        sw = dataclasses.replace(
            default_sweep_config(rc.er, rc.n_windows),
            thetas=rc.thetas,
            n_ref=rc.n_ref,
        )
    result = run_sweep(sw, rc.seed)
    meta = run_metadata(rc)
    out = Path(rc.out_dir)
    header = ["theta"] + [f"thc_rx_{c.rx_len_m:g}" for c in sw.columns]
    rows = []
    for i, theta in enumerate(sw.thetas):
        rows.append([theta] + [float(result.thc_rms[i, j]) for j in range(len(sw.columns))])
    _write_csv(out / "thc_table.csv", meta, header, rows)
    print(f"composition: {len(sw.thetas)}x{len(sw.columns)} THC table written")
    return EXIT_OK


# --- validate suites ------------------------------------------------------


def _draw_valid(rng: np.random.Generator, cfg: ErConfig) -> EvParams:
    """Random receiver and demand inside the oscillating-load regime."""
    alpha = cfg.power_density_kw_per_m
    rx = rng.uniform(0.2, min(3.5, cfg.tx_len_m - 0.05))
    lo = max(0.0, alpha * (rx - cfg.gap_m))
    demand = lo + (alpha * rx - lo) * rng.uniform(0.05, 1.0)
    return EvParams(rx, demand, 24.6)


def _suite_parseval(rc: RunConfig, tol: float) -> tuple[bool, str]:
    # Imported here, not at module level: scipy.integrate costs ~0.75 s and
    # ~50 MB at start-up, and only this suite and `fs-oracle` use it.
    from scipy.integrate import quad

    rng = np.random.default_rng(rc.seed)
    worst = 0.0
    for _ in range(20):
        ev = _draw_valid(rng, rc.er)
        period = rc.er.period_m
        kinks = sorted(
            {
                0.0,
                max(0.0, ev.rx_len_m - rc.er.gap_m),
                ev.peak_demand_kw / rc.er.power_density_kw_per_m,
                min(period, ev.rx_len_m + rc.er.tx_len_m - ev.peak_demand_kw / rc.er.power_density_kw_per_m),
                period,
            }
        )
        mean_sq = sum(
            quad(lambda y: coil_pulse(rc.er, ev, y) ** 2, a, b, limit=200)[0]
            for a, b in zip(kinks, kinks[1:])
        ) / period
        m = np.arange(0, 1001)
        cm = fs_harmonic_grid(rc.er, ev.rx_len_m, np.array([ev.peak_demand_kw]), m)[0]
        line_sum = cm[0] ** 2 + 2 * np.sum(cm[1:] ** 2)
        worst = max(worst, abs(mean_sq - line_sum) / mean_sq)
    return worst < tol, f"max rel err {worst:.3e} (tol {tol:g})"


def _suite_bound(rc: RunConfig, tol: float) -> tuple[bool, str]:
    rng = np.random.default_rng(rc.seed + 1)
    m = np.arange(1, 101)
    bound = harmonic_bound(rc.er, m) * (1 + tol)
    worst = 0.0
    for _ in range(200):
        ev = _draw_valid(rng, rc.er)
        cm = fs_harmonic_grid(rc.er, ev.rx_len_m, np.array([ev.peak_demand_kw]), m)[0]
        worst = max(worst, float(np.max(np.abs(cm) / bound)))
    return worst <= 1.0, f"max |c_m|/bound {worst:.6f}"


def _suite_clipping_vs_scaling(rc: RunConfig, tol: float) -> tuple[bool, str]:
    if not rc.er.tx_len_m > rc.er.period_m / 2:
        return True, "skipped: coil shorter than half the period"
    alpha = rc.er.power_density_kw_per_m
    worst = -np.inf
    for rx in np.linspace(0.2, min(3.5, rc.er.tx_len_m - 0.05), 100):
        lo = max(0.0, alpha * (rx - rc.er.gap_m))
        hi = alpha * rx
        for u in np.linspace(0.01, 0.999, 100):
            ev = EvParams(rx, lo + u * (hi - lo), 24.6)
            r_clip = harmonic_ratio_clipping(rc.er, ev)
            r_scale = harmonic_ratio_scaling(rc.er, ev)
            worst = max(worst, r_clip - r_scale)
    return worst <= tol, f"max clip-minus-scale ratio {worst:.3e}"


def _suite_ensemble_mc(rc: RunConfig, tol: float) -> tuple[bool, str]:
    model = FleetModel(
        cfg=rc.er,
        classes=(EvClass(1.83, 1.0, MaxDemand()),),
        n_evs=45,
        speed_mps=24.6,
    )
    trials = max(100, rc.trials)
    mc = monte_carlo_psd(model, trials=trials, seed=rc.seed + 2, m_max=5)
    ana = analytic_psd(model, 5)
    expected = (ana.dc_power_sq,) + ana.harmonic_powers
    worst_z = 0.0
    for m in range(6):
        se = mc.stderr_kw2[m]
        err = abs(mc.line_powers_kw2[m] - expected[m])
        if se > 0:
            worst_z = max(worst_z, err / se)
        elif err > tol * expected[m]:
            return False, f"m={m}: deterministic line off by {err:.3e}"
    return worst_z <= 3.0, f"max |z| {worst_z:.2f} over m=0..5 ({trials} trials)"


def _suite_composition_sign(rc: RunConfig, tol: float) -> tuple[bool, str]:
    rng = np.random.default_rng(rc.seed + 3)
    bad = 0
    for _ in range(200):
        l_a = rng.uniform(1.0, 1.83)
        l_b = rng.uniform(0.3, l_a - 0.05)
        t2 = rng.uniform(0.02, 0.4)
        t1 = rng.uniform(t2 + 0.01, 0.6)
        q = q_ratio(rc.er, l_a, l_b, theta1=t1, theta2=t2, n2=45)
        if (q < 1.0 - tol) != composition_condition(rc.er, l_a, l_b):
            bad += 1
    return bad == 0, f"{bad}/200 sign disagreements"


def _suite_fs_oracle(rc: RunConfig, tol: float) -> tuple[bool, str]:
    from scipy.integrate import quad  # local for start-up, as in `parseval`

    rng = np.random.default_rng(rc.seed + 4)
    period = rc.er.period_m
    omega = 2 * np.pi / period
    worst = 0.0
    for _ in range(5):
        ev = _draw_valid(rng, rc.er)
        kinks = [
            max(0.0, ev.rx_len_m - rc.er.gap_m),
            ev.peak_demand_kw / rc.er.power_density_kw_per_m,
            min(period, ev.rx_len_m + rc.er.tx_len_m - ev.peak_demand_kw / rc.er.power_density_kw_per_m),
        ]
        ms = np.arange(0, 21)
        closed = fs_harmonic_grid(rc.er, ev.rx_len_m, np.array([ev.peak_demand_kw]), ms)[0]
        scale = np.max(np.abs(closed))
        center = (ev.rx_len_m + rc.er.tx_len_m) / 2  # pulse symmetry axis
        for m in ms:
            val = quad(
                lambda y, m=m: coil_pulse(rc.er, ev, y) * np.cos(m * omega * (y - center)),
                0.0,
                period,
                points=kinks,
                limit=200,
            )[0] / period
            worst = max(worst, abs(val - closed[m]) / scale)
    return worst < tol, f"max rel err {worst:.3e} (tol {tol:g})"


_SUITES: tuple[tuple[str, Callable, float], ...] = (
    ("parseval", _suite_parseval, 1e-6),
    ("harmonic-bound", _suite_bound, 1e-12),
    ("clipping-vs-scaling", _suite_clipping_vs_scaling, 1e-12),
    ("ensemble-mc", _suite_ensemble_mc, 1e-6),
    ("composition-sign", _suite_composition_sign, 1e-9),
    ("fs-oracle", _suite_fs_oracle, 1e-8),
)


def cmd_validate(rc: RunConfig, self_test: bool = False) -> int:
    meta = run_metadata(rc)
    results = []
    failed = []
    for name, suite, tol in _SUITES:
        if self_test and name == "parseval":
            tol = 0.0  # deliberately unsatisfiable, to prove failures surface
        ok, detail = suite(rc, tol)
        results.append({"suite": name, "passed": bool(ok), "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed.append(name)
    _write_json(
        Path(rc.out_dir) / "validate.json",
        meta,
        {"results": results, "passed": not failed},
    )
    if failed:
        print(f"validate: FAILED suites: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VALIDATION
    print("validate: all suites passed")
    return EXIT_OK


def cmd_ingest(rc: RunConfig, path: str) -> int:
    scenario = ingest(path, rc.er)
    meta = run_metadata(rc)
    _write_json(Path(rc.out_dir) / "scenario.json", meta, members(scenario))
    print(f"ingest: {len(scenario.evs)} vehicles from {path}")
    return EXIT_OK


# --- entry point ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # route usage errors to the config exit code
        raise ConfigError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    p.add_argument("--out", dest="out_dir", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dwptload", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate traffic and sample the load")
    _add_common(p)
    p.add_argument("--sample-rate-hz", type=float, dest="sample_rate_hz")
    p.add_argument("--duration-s", type=float, dest="duration_s")

    p = sub.add_parser("spectrum", help="single-vehicle Fourier table and THC")
    _add_common(p)
    p.add_argument("--harmonics", type=int, help="truncation order")

    p = sub.add_parser("psd", help="synthesize, estimate the PSD, find peaks")
    _add_common(p)
    p.add_argument("--sample-rate-hz", type=float, dest="sample_rate_hz")
    p.add_argument("--duration-s", type=float, dest="duration_s")
    p.add_argument("--harmonics", type=int, help="harmonics per fundamental")
    p.add_argument(
        "--analytic",
        action="store_const",
        const=True,
        help="emit the analytic line spectrum instead of an estimate",
    )

    p = sub.add_parser("composition", help="truck-share THC sweep table")
    _add_common(p)
    p.add_argument(
        "--trials",
        type=int,
        dest="n_windows",
        help="number of one-minute windows per cell",
    )

    p = sub.add_parser("validate", help="run the invariant self-check suites")
    _add_common(p)
    p.add_argument("--trials", type=int, help="Monte Carlo trials")
    p.add_argument(
        "--self-test",
        action="store_true",
        help="inject an unsatisfiable tolerance to prove failures surface",
    )

    p = sub.add_parser("ingest", help="convert a trajectory CSV to scenario JSON")
    _add_common(p)
    p.add_argument("path", help="trajectory CSV file")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        rc = resolve_config(args)
        if args.command == "simulate":
            return cmd_simulate(rc)
        if args.command == "spectrum":
            return cmd_spectrum(rc)
        if args.command == "psd":
            return cmd_psd(rc)
        if args.command == "composition":
            return cmd_composition(rc)
        if args.command == "validate":
            return cmd_validate(rc, self_test=args.self_test)
        return cmd_ingest(rc, args.path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IngestError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
