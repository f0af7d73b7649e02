"""Command-line front end for the load simulator.

Subcommands cover the whole pipeline: ``simulate`` (traffic -> sampled
load), ``spectrum`` (single-vehicle Fourier table), ``psd``
(sampled load streamed into the PSD estimate -> peak detection, or the
analytic line spectrum), ``composition`` (truck-share sweep), ``validate``
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
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__, spectrum
from .composition import SweepColumn, SweepConfig, default_sweep_config, run_sweep
from .fleet import MaxDemand
from .invariants import CHECKS
from .roadway import INDOT, ErConfig, EvParams, _require_finite, constant_regime
from .signals import MIN_TRIALS, _grid, _scenario_blocks, _scenario_psd, detect_peaks, psd_plan
from .spectrum import (
    fs_harmonic, fs_harmonic_grid, harmonic_bound, harmonic_count_for_dc, thc_single,
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
    """A run found nothing to analyse."""


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
        if self.segment_s <= 0:
            raise ConfigError(f"segment_s must be > 0, got {self.segment_s}")
        if not 0 <= self.overlap_frac < 1:
            raise ConfigError(f"overlap_frac must lie in [0, 1), got {self.overlap_frac}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.harmonics is not None and self.harmonics < 1:
            raise ConfigError(f"harmonics must be >= 1, got {self.harmonics}")
        if self.harmonics is not None and self.harmonics > spectrum.MAX_HARMONICS:
            raise ConfigError(
                f"harmonics must be <= {spectrum.MAX_HARMONICS}, got {self.harmonics}"
            )
        if self.rx_len_m <= 0:
            raise ConfigError(f"rx_len_m must be > 0, got {self.rx_len_m}")
        if self.speed_mps <= 0:
            raise ConfigError(f"speed_mps must be > 0, got {self.speed_mps}")
        if self.demand_kw is not None and self.demand_kw < 0:
            raise ConfigError(f"demand_kw must be >= 0, got {self.demand_kw}")
        if any(not 0 <= t <= 1 for t in self.thetas):
            raise ConfigError(f"thetas must lie in [0, 1], got {self.thetas}")
        if self.n_windows < 1:
            raise ConfigError(f"n_windows must be >= 1, got {self.n_windows}")
        if self.n_ref < 1:
            raise ConfigError(f"n_ref must be >= 1, got {self.n_ref}")


def runconfig_from_dict(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document (rules in :mod:`.schema`)."""
    try:
        return from_dict(RunConfig, doc, "config")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def runconfig_to_dict(rc: RunConfig) -> dict:
    """Inverse of :func:`runconfig_from_dict`, used for hashing."""
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


#: The config keys each subcommand reads, besides `seed` and `out_dir`,
#: which all take (`--seed`, `--out`).  A document that sets any other
#: key is refused: it would be ignored.
SUBCOMMAND_KEYS: dict[str, frozenset[str]] = {
    command: frozenset(f"seed out_dir er {keys}".split())
    for command, keys in {
        "simulate": "traffic sample_rate_hz duration_s",
        "spectrum": "harmonics rx_len_m demand_kw speed_mps",
        "psd": "traffic sample_rate_hz duration_s psd_method segment_s overlap_frac "
        "psd_window harmonics analytic",
        "composition": "thetas sweep_columns n_windows n_ref",
        "validate": "trials",
        "ingest": "",
    }.items()
}


def _unread_keys(command: str, rc: RunConfig, doc: dict) -> Iterator[tuple[str, str]]:
    """The keys of ``doc`` that a ``command`` run with settings ``rc`` does
    not read, each with the words that name the run, in the order they are
    refused: a periodogram's Welch keys in a fixed order, then the keys the
    subcommand never reads (:data:`SUBCOMMAND_KEYS`) in document order,
    then the sampling and estimate keys of ``psd --analytic`` in a fixed
    order."""
    if rc.psd_method == "periodogram":
        run = "psd_method 'periodogram', which is one boxcar segment over the whole series"
        yield from ((k, run) for k in ("psd_window", "segment_s", "overlap_frac") if k in doc)
    sweep = f"fixed {SweepConfig.window_s:g} s windows at {SweepConfig.sample_rate_hz:g} Hz"
    run = f"{command}, whose sweep samples {sweep}" if command == "composition" else command
    yield from ((k, run) for k in doc if k not in SUBCOMMAND_KEYS[command])
    if command == "psd" and rc.analytic:
        keys = ("sample_rate_hz", "psd_method", "segment_s", "overlap_frac", "psd_window")
        yield from ((k, "psd --analytic, which samples no series") for k in keys if k in doc)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flag overrides (each flag sets the config key of its name) into
    the config file on top of defaults.  A document may set only the keys
    its run reads (:func:`_unread_keys`)."""
    doc = _load_config(getattr(args, "config", None))
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    doc.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    rc = runconfig_from_dict(doc)
    for key, run in _unread_keys(args.command, rc, doc):
        raise ConfigError(f"config.{key}: not used by {run}")
    return rc


# --- output plumbing ------------------------------------------------------


def run_metadata(rc: RunConfig) -> dict:
    canonical = json.dumps(runconfig_to_dict(rc), sort_keys=True)
    return {
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": rc.seed,
        "version": __version__,
    }


def _write_atomic(path: Path, text: str, more: Iterable[str] = ()) -> None:
    """Write ``text``, then each chunk of ``more``, to a temporary file
    beside ``path``, then move it there: ``path`` is the whole text or
    untouched, and of the mode a plain ``open`` gives, not ``0o600``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
            f.writelines(more)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: Rows of a CSV body formatted into one string and written at a time.
_CSV_ROWS = 2**13


def _write_csv(path: Path, meta: dict, header: Sequence[str], blocks: Iterable) -> None:
    """The rows of ``blocks`` under the metadata and the header, one line
    each.  A block is a sequence of equal-length columns; its rows are
    formatted ``_CSV_ROWS`` at a time, the first batch going out with the
    header and the rest batch by batch, so a generator of blocks is never
    held whole.  A file of one block of at most ``_CSV_ROWS`` rows thus
    reaches :func:`_write_atomic` as one text, which ``bench/tracer.py``
    counts as the bytes written."""
    head = "".join(f"# {k}={v}\n" for k, v in meta.items()) + ",".join(header) + "\n"

    def batches() -> Iterator[str]:
        for block in blocks:
            for a in range(0, len(block[0]), _CSV_ROWS):
                yield _csv_lines([column[a : a + _CSV_ROWS] for column in block])
            del block  # not held while the next block is made

    body = batches()
    _write_atomic(path, head + next(body, ""), body)


def _line_template(types: Iterable[type]) -> str:
    """The ``%``-template of a CSV line whose cells have these types: a
    float to 10 significant digits, None as an empty field and anything
    else by ``str``."""
    cells = ("%.10g" if issubclass(t, float) else "%.0s" if t is type(None) else "%s" for t in types)
    return ",".join(cells) + "\n"


def _csv_lines(columns: list[Sequence]) -> str:
    """The lines of the rows of equal-length ``columns``, each filled into
    one ``%``-template: the batch's own when each column holds cells of one
    type, or else one per distinct row of cell types.  The rows are zipped
    as they are filled, so no batch of row tuples is held."""
    column_types = [set(map(type, column)) for column in columns]
    if all(len(types) == 1 for types in column_types):
        template = _line_template(next(iter(types)) for types in column_types)
        return "".join(map(template.__mod__, zip(*columns)))
    row_types = list(zip(*(map(type, column) for column in columns)))
    templates = {types: _line_template(types) for types in set(row_types)}
    return "".join(map(str.__mod__, map(templates.__getitem__, row_types), zip(*columns)))


def _array_blocks(*columns: np.ndarray) -> Iterator[list[list]]:
    """The columns of equal-length arrays as lists, ``_CSV_ROWS`` rows at a
    time."""
    for a in range(0, len(columns[0]), _CSV_ROWS):
        yield [c[a : a + _CSV_ROWS].tolist() for c in columns]


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


def _series_blocks(
    scenario: Scenario, sample_rate_hz: float, t0: float, n: int, sums: list[float]
) -> Iterator[tuple[list[float], list[float]]]:
    """The times and loads of :func:`synthesize`'s series on the
    ``n``-sample grid from ``t0``, bit for bit, as two lists per sampled
    block; appends each block's sum of load to ``sums``."""
    for a, block in _scenario_blocks(scenario, sample_rate_hz, t0, n):
        load = block[0]
        sums.append(float(load.sum()))
        times = t0 + np.arange(a, a + load.size) / sample_rate_hz
        yield times.tolist(), load.tolist()


def cmd_simulate(rc: RunConfig) -> int:
    spec = _resolved_traffic(rc, _default_simulate_traffic)
    t0, n = _grid((0.0, rc.duration_s), rc.sample_rate_hz)  # before generating
    scenario = generate(rc.er, spec, rc.seed)
    sums = []
    meta = run_metadata(rc)
    out = Path(rc.out_dir)
    blocks = _series_blocks(scenario, rc.sample_rate_hz, t0, n, sums)
    _write_csv(out / "timeseries.csv", meta, ("time_s", "load_kw"), blocks)
    _write_json(out / "scenario.json", meta, members(scenario))
    # The exact sum of the blocks' sums: the series mean within rounding.
    mean_kw = math.fsum(sums) / n if n else 0.0
    print(
        f"simulate: {len(scenario.evs)} vehicles, {n} samples, "
        f"mean load {mean_kw:.10g} kW"
    )
    return EXIT_OK


def _tail_rule(cfg: ErConfig, dc_kw: float, setting: str) -> int:
    """:func:`harmonic_count_for_dc`, whose refusal names the ``setting``
    that asked and the option that replaces the rule."""
    try:
        return harmonic_count_for_dc(cfg, dc_kw)
    except ValueError as exc:
        raise ValueError(f"{setting}: {exc} (--harmonics)") from None


def cmd_spectrum(rc: RunConfig) -> int:
    """The table and the first-harmonic ratio from one row c_0..c_M of
    :func:`fs_harmonic`, and the THC of :func:`thc_single` over the same
    M, from ``harmonics``, or else 1 for a constant load and
    :func:`harmonic_count_for_dc` for any other."""
    demand = rc.demand_kw if rc.demand_kw is not None else rc.er.full_kw(rc.rx_len_m)
    ev = EvParams(rc.rx_len_m, demand, rc.speed_mps)
    c0 = fs_harmonic(rc.er, ev, 0)
    constant = constant_regime(rc.er, ev)  # every c_m is 0: no tail to bound
    setting = f"demand_kw {demand!r} on rx_len_m {rc.rx_len_m!r}"
    n_harmonics = rc.harmonics or (1 if constant else _tail_rule(rc.er, c0, setting))
    m = np.arange(n_harmonics + 1)
    thc = thc_single(rc.er, ev, n_harmonics)
    meta = run_metadata(rc)
    out = Path(rc.out_dir)

    f0 = ev.fundamental_hz(rc.er)
    coeffs = fs_harmonic(rc.er, ev, m).tolist()
    bounds = [None] + harmonic_bound(rc.er, m[1:]).tolist()
    columns = (m.tolist(), (m * f0).tolist(), coeffs, bounds)
    _write_csv(out / "fs_coeffs.csv", meta, ("m", "freq_hz", "coeff_kw", "bound_kw"), [columns])
    body = {
        "thc_percent": thc,
        "dc_kw": c0,
        "fundamental_hz": f0,
        "harmonics_used": n_harmonics,
        "constant_load": constant,
    }
    if not constant:
        body["first_harmonic_ratio"] = abs(coeffs[1]) / c0
    _write_json(out / "thc.json", meta, body)
    print(f"spectrum: THC {thc:.10g} % over {n_harmonics} harmonics")
    return EXIT_OK


#: The most harmonics :func:`_analytic_lines` evaluates at a time, so
#: that ``psd --analytic`` holds vehicles x 1024 coefficients, whatever M.
_HARMONIC_BLOCK = 1024


def _analytic_lines(rc: RunConfig, scenario: Scenario):
    """Per-speed-group line spectra for the vehicles actually generated:
    the DC line ``(sum c_0)^2`` and the line ``sum c_m^2`` at each harmonic
    up to ``harmonics``, or else 1 for a group of constant loads and the
    :func:`harmonic_count_for_dc` of the group's mean c_0 for any other,
    with one :func:`fs_harmonic_grid` call per receiver length and order,
    for at most ``_HARMONIC_BLOCK`` harmonics at a time, in blocks whose
    widths differ by at most one: numpy would sum a block of one harmonic
    pairwise, not in the order of one call over all M.  The scenario has
    validated every vehicle."""
    cfg, evs = rc.er, scenario.evs
    lines, fundamentals = [], []
    for speed in sorted(set(evs.speed_mps.tolist())):
        group = evs.speed_mps == speed
        rx, demand = evs.rx_len_m[group], evs.peak_demand_kw[group]
        receivers = [(r, demand[rx == r]) for r in np.unique(rx).tolist()]
        dc = sum(float(fs_harmonic_grid(cfg, r, d, 0).sum()) for r, d in receivers)
        constant = np.all(demand <= cfg.floor_kw(rx))  # every c_m is 0
        setting = f"the {speed!r} m/s speed group"
        m_max = rc.harmonics or (1 if constant else _tail_rule(cfg, dc / rx.size, setting))
        m = np.arange(1, m_max + 1)
        powers = np.concatenate([
            sum((fs_harmonic_grid(cfg, r, d, part) ** 2).sum(axis=0) for r, d in receivers)
            for part in np.array_split(m, -(-m.size // _HARMONIC_BLOCK))
        ])
        f0 = speed / cfg.period_m
        fundamentals.append(f0)
        lines.append((0.0, dc * dc, speed))
        lines.extend((k * f0, p, speed) for k, p in zip(m.tolist(), powers.tolist()))
    return fundamentals, lines


def cmd_psd(rc: RunConfig) -> int:
    if not rc.analytic:
        # Checked now, not after the whole horizon has been generated.
        _, n = _grid((0.0, rc.duration_s), rc.sample_rate_hz)
        plan = psd_plan(
            n, rc.sample_rate_hz, rc.psd_method, rc.segment_s, rc.overlap_frac, rc.psd_window
        )
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
            [list(zip(*lines))],
        )
        _write_json(
            out / "peaks.json",
            meta,
            {"mode": "analytic", "fundamentals_hz": fundamentals},
        )
        print(f"psd: analytic lines for fundamentals {fundamentals}")
        return EXIT_OK

    est = _scenario_psd(scenario, plan)
    fundamentals = sorted(set((scenario.evs.speed_mps / rc.er.period_m).tolist()))
    peaks = detect_peaks(est, fundamentals, rc.harmonics or 5)
    _write_csv(
        out / "psd.csv",
        meta,
        ("freq_hz", "psd_kw2_per_hz"),
        _array_blocks(est.freqs_hz, est.psd_kw2_per_hz),
    )
    _write_json(
        out / "peaks.json",
        meta,
        {
            "mode": rc.psd_method,
            "resolution_hz": est.resolution_hz,
            "fundamentals_hz": fundamentals,
            "peaks": peaks,
        },
    )
    detected = [p.freq_hz for p in peaks if p.m == 1]
    print(f"psd: detected fundamentals near {detected} Hz")
    return EXIT_OK


def cmd_composition(rc: RunConfig) -> int:
    sw = SweepConfig(
        cfg=rc.er,
        columns=rc.sweep_columns or default_sweep_config(rc.er).columns,
        thetas=rc.thetas,
        n_ref=rc.n_ref,
        n_windows=rc.n_windows,
    )
    result = run_sweep(sw, rc.seed)
    meta = run_metadata(rc)
    out = Path(rc.out_dir)
    header = ["theta"] + [f"thc_rx_{c.rx_len_m:g}" for c in sw.columns]
    _write_csv(out / "thc_table.csv", meta, header, [(sw.thetas, *result.thc_rms.T.tolist())])
    print(f"composition: {len(sw.thetas)}x{len(sw.columns)} THC table written")
    return EXIT_OK


def cmd_validate(rc: RunConfig, self_test: bool = False) -> int:
    if rc.trials < MIN_TRIALS:
        raise ConfigError(f"trials must be >= {MIN_TRIALS} for validate, got {rc.trials}")
    meta = run_metadata(rc)
    results, failed = [], []
    for i, (name, check) in enumerate(CHECKS.items()):
        # --self-test: no truncated line sum meets Parseval exactly.
        bound = 0.0 if self_test and name == "parseval" else check.bound
        n = check.n or rc.trials
        worst = check.run(rc.er, np.random.default_rng(rc.seed + i), n)
        if worst is None:
            ok, detail = True, "skipped: coil not longer than half the period"
        else:
            ok = bool(worst <= bound)
            detail = f"{check.measure} {worst:.6g} (bound {bound!r}, n={n})"
        results.append({"suite": name, "passed": ok, "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed.append(name)
    _write_json(Path(rc.out_dir, "validate.json"), meta, {"results": results, "passed": not failed})
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
