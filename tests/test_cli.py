"""End-to-end CLI: config resolution, artifacts, exit codes."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dwptload
from dwptload import cli, generate, synthesize
from dwptload.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    SUBCOMMAND_KEYS,
    RunConfig,
    main,
    run_metadata,
    runconfig_from_dict,
    runconfig_to_dict,
)
from dwptload.composition import _sobol_directions
from dwptload.invariants import CHECKS
from oracles import point_class_analytic_lines

GOOD_CSV = "entry_time_s,speed_mps,rx_len_m,peak_demand_kw\n0.0,24.6,1.83,200.0\n1.5,29.0,1.2,90.0\n"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_meta_csv(path):
    lines = path.read_text().splitlines()
    meta = {}
    for i, line in enumerate(lines):
        if not line.startswith("# "):
            return meta, lines[i], lines[i + 1 :]
        key, _, value = line[2:].partition("=")
        meta[key] = value
    raise AssertionError("no data after metadata")


# --- config plumbing --------------------------------------------------------


def test_runconfig_round_trip():
    doc = {
        "er": {
            "tx_len_m": 3.66,
            "gap_m": 0.91,
            "power_density_kw_per_m": 109.36,
            "segment_len_m": 4000.0,
        },
        "seed": 7,
        "duration_s": 30.0,
        "traffic": {
            "rate_evps": 0.4,
            "duration_s": 30.0,
            "classes": [
                {
                    "rx_len_m": 1.83,
                    "prob": 0.3,
                    "speed_mps": 21.7,
                    "demand": {"kind": "max"},
                    "class_id": "truck",
                },
                {
                    "rx_len_m": 1.2,
                    "prob": 0.7,
                    "speed_mps": 29.0,
                    "demand": {"kind": "uniform", "lo_kw": 40.0, "hi_kw": 110.0},
                },
            ],
        },
        "thetas": [0.05, 0.2],
        "sweep_columns": [{"rx_len_m": 1.2, "demand": {"kind": "uniform_range"}}],
    }
    rc = runconfig_from_dict(doc)
    assert rc.seed == 7
    assert rc.traffic.classes[0].class_id == "truck"
    assert runconfig_from_dict(runconfig_to_dict(rc)) == rc


def one_class(**changes):
    cls = {"rx_len_m": 1.2, "prob": 1.0, "speed_mps": 29.0, "demand": {"kind": "max"}}
    return {"traffic": {"rate_evps": 0.1, "duration_s": 10.0, "classes": [{**cls, **changes}]}}


#: Documents the schema rejects, with the path its message must name.
MISTYPED = [
    ({"analytic": "false"}, "config.analytic"),
    ({"seed": 1.7}, "config.seed"),
    ({"harmonics": 2.9}, "config.harmonics"),
    ({"er": None}, "config.er"),
    (one_class(class_id=7), "config.traffic.classes[0].class_id"),
    (one_class(demand={"kind": "max", "lo_kw": 5}), "config.traffic.classes[0].demand"),
    (
        one_class(demand={"kind": "uniform", "lo_kw": 0, "hi_kw": float("inf")}),
        "config.traffic.classes[0].demand",
    ),
    # A trajectory CSV could not give these class ids back unchanged.
    (one_class(class_id=""), "config.traffic.classes[0]: class_id"),
    (one_class(class_id=" pad "), "config.traffic.classes[0]: class_id"),
]


@pytest.mark.parametrize(
    "doc",
    [
        {"bogus": 1},
        {"er": {"tx_len_m": 3.66}},  # missing geometry keys
        {"er": {"tx_len_m": 3.66, "gap_m": 0.91, "power_density_kw_per_m": 109.36, "segment_len_m": 4000.0, "extra": 1}},
        {"seed": -1},
        {"psd_method": "multitaper"},
        {"traffic": {"rate_evps": 0.1, "duration_s": 10.0, "classes": [{"rx_len_m": 1.2, "prob": 1.0, "speed_mps": 29.0, "demand": {"kind": "max"}, "oops": 1}]}},
        {"er": {"tx_len_m": 3.66, "gap_m": 0.91, "power_density_kw_per_m": 109.36, "segment_len_m": float("inf")}},
        {"traffic": {"duration_s": 10.0, "classes": [{"rx_len_m": 1.2, "prob": 1.0, "speed_mps": 29.0, "demand": {"kind": "max"}}]}},  # no rate_evps
        {"traffic": {"rate_evps": 0.1, "duration_s": 10.0, "classes": [{"rx_len_m": 1.2, "prob": 1.0, "speed_mps": 29.0}]}},  # class without demand
        {"duration_s": float("inf")},
        {"sample_rate_hz": float("nan")},
        *(doc for doc, _ in MISTYPED),
    ],
)
def test_runconfig_rejects_bad_documents(doc):
    with pytest.raises(ConfigError):
        runconfig_from_dict(doc)


@pytest.mark.parametrize("doc, where", MISTYPED)
def test_config_errors_name_the_path(doc, where):
    with pytest.raises(ConfigError, match=re.escape(where)):
        runconfig_from_dict(doc)


def test_run_metadata_is_stable():
    meta = run_metadata(RunConfig(seed=3))
    assert meta["seed"] == 3
    assert meta["version"] == dwptload.__version__
    assert len(meta["config_sha256"]) == 64
    assert meta == run_metadata(RunConfig(seed=3))
    assert meta["config_sha256"] != run_metadata(RunConfig(seed=4))["config_sha256"]


# --- exit codes -------------------------------------------------------------


def test_exit_codes(tmp_path):
    assert main(["simulate", "--bogus-flag"]) == EXIT_CONFIG
    assert main(["frobnicate"]) == EXIT_CONFIG
    assert main(["spectrum", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["spectrum", "--config", str(bad_json)]) == EXIT_CONFIG
    unknown = write_config(tmp_path, {"nonsense": 1})
    assert main(["spectrum", "--config", unknown]) == EXIT_CONFIG
    infinite = write_config(
        tmp_path, one_class(demand={"kind": "uniform", "lo_kw": 0, "hi_kw": float("inf")})
    )
    assert main(["simulate", "--config", infinite, "--out", str(tmp_path)]) == EXIT_CONFIG
    padded = write_config(tmp_path, one_class(class_id=" pad "))
    assert main(["simulate", "--config", padded, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["ingest", str(tmp_path / "absent.csv")]) == EXIT_IO
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("entry_time_s,speed_mps,rx_len_m,peak_demand_kw\n0.0,24.6,9.9,10.0\n")
    assert main(["ingest", "--out", str(tmp_path), str(bad_csv)]) == EXIT_VALIDATION


@pytest.mark.parametrize("command", ["simulate", "psd"])
def test_traffic_duration_must_equal_run_duration(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"duration_s": 30.0, **one_class()})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "traffic.duration_s (10.0)" in err
    assert "duration_s (30.0)" in err
    assert not list(tmp_path.glob("*.csv"))


def run_child(*args):
    """Run a fresh interpreter that imports this checkout's package."""
    # The child does not inherit pytest's `pythonpath`: hand it the directory
    # the package was imported from.
    src = str(Path(dwptload.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_version_runs_as_module():
    proc = run_child("-m", "dwptload.cli", "--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == dwptload.__version__


# Runs in a fresh interpreter, with an output directory, a config and a
# trajectory CSV as arguments, and prints the scipy modules loaded after the
# scipy-free subcommands, then after a sampled `psd`.
SCIPY_PROBE = """
import json, sys

import dwptload
from dwptload import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out, config, csv, hamming = sys.argv[1:]
try:
    cli.main(["--version"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
for argv in (
    ["spectrum"],
    ["simulate", "--duration-s", "5"],
    ["psd", "--analytic", "--config", config],
    ["ingest", csv],
    ["psd", "--duration-s", "10", "--sample-rate-hz", "200"],
    ["composition", "--trials", "2"],
    ["validate", "--trials", "100"],
):
    assert cli.main([*argv, "--out", out]) == 0, argv
free = scipy_modules()
assert cli.main(["psd", "--config", hamming, "--out", out]) == 0
print(json.dumps({"free": free, "hamming": scipy_modules()}))
"""


def test_scipy_free_subcommands_load_no_scipy(tmp_path):
    # scipy.signal and scipy.stats each cost ~1 s and ~70 MB at start-up, so
    # only the functions that call scipy import it.  `psd --analytic` ignores
    # the window, even one that the sampled `psd` would reject.  The sampled
    # `psd` computes its default Hann window itself, and `composition` reads
    # scipy's Sobol direction numbers without importing scipy; `validate`'s
    # oracles are numpy code.  Any other window comes from scipy.signal.
    config = write_config(tmp_path, {"duration_s": 10.0, "psd_window": "bogus"})
    hamming = write_config(
        tmp_path,
        {"duration_s": 10.0, "sample_rate_hz": 200.0, "psd_window": "hamming"},
        "hamming.json",
    )
    csv = tmp_path / "traffic.csv"
    csv.write_text(GOOD_CSV)
    proc = run_child("-c", SCIPY_PROBE, str(tmp_path), config, str(csv), hamming)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["free"] == []
    assert "scipy.signal" in loaded["hamming"]  # the probe can see a scipy import


# --- spectrum ---------------------------------------------------------------


def test_spectrum_reference_artifacts(tmp_path):
    assert main(["spectrum", "--out", str(tmp_path), "--seed", "0"]) == EXIT_OK
    doc = json.loads((tmp_path / "thc.json").read_text())
    assert doc["meta"]["seed"] == 0
    assert doc["meta"]["version"] == dwptload.__version__
    assert doc["thc_percent"] == pytest.approx(25.87860450948639, rel=1e-12)
    assert doc["dc_kw"] == pytest.approx(160.27820743982494, rel=1e-12)
    assert doc["fundamental_hz"] == pytest.approx(5.382932166301969, rel=1e-12)
    assert doc["first_harmonic_ratio"] == pytest.approx(0.17602348036825258, rel=1e-12)
    assert doc["harmonics_used"] == 189
    assert doc["constant_load"] is False

    meta, header, rows = read_meta_csv(tmp_path / "fs_coeffs.csv")
    assert set(meta) == {"config_sha256", "seed", "version"}
    assert header == "m,freq_hz,coeff_kw,bound_kw"
    assert len(rows) == 190  # DC plus 189 harmonics
    m1 = rows[1].split(",")
    assert float(m1[1]) == pytest.approx(5.382932166301969, rel=1e-9)
    assert float(m1[2]) == pytest.approx(28.21272790074274, rel=1e-9)
    assert float(m1[3]) == pytest.approx(50.637814819086095, rel=1e-9)


def test_spectrum_truncation_flag_and_constant_load(tmp_path):
    assert main(["spectrum", "--out", str(tmp_path), "--harmonics", "12"]) == EXIT_OK
    doc = json.loads((tmp_path / "thc.json").read_text())
    assert doc["harmonics_used"] == 12
    _, _, rows = read_meta_csv(tmp_path / "fs_coeffs.csv")
    assert len(rows) == 13

    cfg = write_config(tmp_path, {"demand_kw": 50.0})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    doc = json.loads((tmp_path / "thc.json").read_text())
    assert doc["constant_load"] is True
    assert doc["thc_percent"] == 0.0
    assert "first_harmonic_ratio" not in doc


# --- simulate ---------------------------------------------------------------


def test_simulate_artifacts_are_deterministic(tmp_path):
    args = [
        "simulate",
        "--out",
        str(tmp_path),
        "--seed",
        "2",
        "--duration-s",
        "20",
        "--sample-rate-hz",
        "200",
    ]
    assert main(args) == EXIT_OK
    first_ts = (tmp_path / "timeseries.csv").read_bytes()
    first_sc = (tmp_path / "scenario.json").read_bytes()
    assert main(args) == EXIT_OK
    assert (tmp_path / "timeseries.csv").read_bytes() == first_ts
    assert (tmp_path / "scenario.json").read_bytes() == first_sc

    meta, header, rows = read_meta_csv(tmp_path / "timeseries.csv")
    assert header == "time_s,load_kw"
    assert len(rows) == 20 * 200
    doc = json.loads(first_sc)
    assert doc["meta"]["seed"] == 2
    assert doc["provenance"]["kind"] == "synthetic"
    assert len(doc["evs"]) >= 1


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_simulate_streams_the_synthesized_series(tmp_path, capsys, seed):
    """``simulate`` writes its series one sampled block at a time.  The
    rows are ``synthesize``'s times and loads bit for bit, the file is the
    one written from the whole series byte for byte (40 s at 1 kHz: two
    sampling blocks and several CSV batches), and the printed mean load is
    the series mean to the printed digits."""
    args = ["simulate", "--duration-s", "40", "--seed", str(seed), "--out", str(tmp_path)]
    assert main(args) == EXIT_OK
    printed = capsys.readouterr().out
    rc = cli.resolve_config(cli.build_parser().parse_args(args))
    scenario = generate(rc.er, cli._default_simulate_traffic(rc), seed)
    series = synthesize(scenario, rc.sample_rate_hz)

    sums = []
    times, loads = zip(*cli._series_rows(scenario, rc.sample_rate_hz, 0.0, series.n_samples, sums))
    assert np.array_equal(np.array(times), series.times_s)
    assert np.array_equal(np.array(loads), series.samples_kw)
    assert math.fsum(sums) / series.n_samples == pytest.approx(series.mean_kw, rel=1e-14)

    lines = [f"# {k}={v}" for k, v in run_metadata(rc).items()] + ["time_s,load_kw"]
    lines += [f"{t:.10g},{y:.10g}" for t, y in zip(series.times_s.tolist(), series.samples_kw.tolist())]
    assert (tmp_path / "timeseries.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
    assert f"{series.n_samples} samples, mean load {series.mean_kw:.10g} kW" in printed


def traced_simulate_peak(tmp_path, duration_s: float) -> int:
    """Traced peak of ``simulate`` at 100 Hz with its default traffic."""
    argv = [
        "simulate", "--duration-s", str(duration_s), "--sample-rate-hz", "100",
        "--out", str(tmp_path / f"simulate{duration_s}"),
    ]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_the_horizon(tmp_path, capsys):
    traced_simulate_peak(tmp_path, 10.0)  # caches outside the trace
    short, long_ = traced_simulate_peak(tmp_path, 340.0), traced_simulate_peak(tmp_path, 1000.0)
    # 34k against 100k rows, both more than one sampling block: writing
    # the whole series as one text grew the peak by ~10 MB.  What may grow
    # is the vehicle table and its scenario.json (~250 B a vehicle
    # measured) for the ~200 more vehicles at 0.3 vehicles/s.
    extra_vehicles = 0.3 * (1000.0 - 340.0)
    assert long_ - short <= 512 * extra_vehicles


def test_flag_overrides_config_seed(tmp_path):
    cfg = write_config(
        tmp_path, {"seed": 5, "duration_s": 15.0, "sample_rate_hz": 250.0}
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "scenario.json").read_text())["meta"]["seed"] == 5
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "9"]) == EXIT_OK
    assert json.loads((out / "scenario.json").read_text())["meta"]["seed"] == 9


# --- psd --------------------------------------------------------------------


def test_psd_finds_both_fundamentals(tmp_path):
    args = [
        "psd",
        "--out",
        str(tmp_path),
        "--seed",
        "5",
        "--duration-s",
        "30",
        "--sample-rate-hz",
        "400",
    ]
    assert main(args) == EXIT_OK
    doc = json.loads((tmp_path / "peaks.json").read_text())
    assert doc["mode"] == "welch"
    assert doc["fundamentals_hz"] == pytest.approx(
        [21.7 / 4.57, 29.0 / 4.57], rel=1e-12
    )
    firsts = [p for p in doc["peaks"] if p["m"] == 1]
    assert len(firsts) == 2
    for p in firsts:
        assert abs(p["freq_hz"] - p["fundamental_hz"]) <= doc["resolution_hz"]
        assert p["line_power_kw2"] > 0
    _, header, rows = read_meta_csv(tmp_path / "psd.csv")
    assert header == "freq_hz,psd_kw2_per_hz"
    assert len(rows) > 100


def test_psd_rejects_bad_window_before_generating(tmp_path, capsys, monkeypatch):
    def generate(*args):
        raise AssertionError("generated traffic before checking the window")

    monkeypatch.setattr("dwptload.cli.generate", generate)
    cfg = write_config(tmp_path, {"psd_window": "bogus"})
    assert main(["psd", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error: Invalid window name 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "psd.csv").exists()


def test_psd_window_without_scipy_is_a_config_error(tmp_path, capsys, monkeypatch):
    def generate(*args):
        raise AssertionError("generated traffic before checking the window")

    monkeypatch.setattr("dwptload.cli.generate", generate)
    monkeypatch.setitem(sys.modules, "scipy.signal", None)  # as if scipy were not installed
    cfg = write_config(tmp_path, {"psd_window": "hamming"})
    assert main(["psd", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (
        "config error: window 'hamming' needs scipy, which is not installed; "
        "'hann' runs on numpy alone\n"
    )


def test_composition_without_scipy_is_an_io_error(tmp_path, capsys, monkeypatch):
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(
        importlib.util, "find_spec", lambda name, *a: None if name == "scipy" else find_spec(name, *a)
    )
    _sobol_directions.cache_clear()
    try:
        assert main(["composition", "--trials", "1", "--out", str(tmp_path)]) == EXIT_IO
    finally:
        _sobol_directions.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("i/o error: no Sobol direction table")
    assert "scipy is not installed" in err
    assert not (tmp_path / "thc_table.csv").exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"segment_s": 700.0, "duration_s": 600.0},
            "segment of 700000 samples longer than series of 600000",
        ),
        (
            {"segment_s": 0.002, "overlap_frac": 0.99},
            "noverlap=2 must be less than nperseg=2!",
        ),
    ],
)
def test_psd_rejects_unworkable_welch_settings_before_generating(
    tmp_path, capsys, monkeypatch, doc, message
):
    def generate(*args):
        raise AssertionError("generated traffic before checking the Welch settings")

    monkeypatch.setattr("dwptload.cli.generate", generate)
    cfg = write_config(tmp_path, doc)
    assert main(["psd", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "psd.csv").exists()


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"psd_window": "bogus", "segment_s": 1000.0}, "psd_window"),
        ({"segment_s": 8.0}, "segment_s"),
        ({"overlap_frac": 0.0}, "overlap_frac"),
    ],
)
def test_periodogram_rejects_welch_keys(tmp_path, capsys, doc, key):
    cfg = write_config(tmp_path, {"psd_method": "periodogram", **doc})
    assert main(["psd", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config.{key}: not used by psd_method 'periodogram'")
    assert not (tmp_path / "psd.csv").exists()


def test_periodogram_config_runs(tmp_path):
    cfg = write_config(tmp_path, {"psd_method": "periodogram", "duration_s": 10.0})
    assert main(["psd", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    assert json.loads((tmp_path / "peaks.json").read_text())["mode"] == "periodogram"


def test_psd_analytic_mode(tmp_path):
    args = ["psd", "--analytic", "--out", str(tmp_path), "--seed", "3", "--duration-s", "20"]
    assert main(args) == EXIT_OK
    doc = json.loads((tmp_path / "peaks.json").read_text())
    assert doc["mode"] == "analytic"
    assert len(doc["fundamentals_hz"]) == 2
    _, header, rows = read_meta_csv(tmp_path / "psd.csv")
    assert header == "freq_hz,line_power_kw2,speed_mps"
    parsed = [r.split(",") for r in rows]
    dc_rows = [r for r in parsed if float(r[0]) == 0.0]
    assert len(dc_rows) == 2  # one DC line per speed group
    assert all(float(r[1]) > 0 for r in dc_rows)
    truck_lines = [float(r[0]) for r in parsed if float(r[2]) == 21.7]
    assert any(abs(f - 21.7 / 4.57) < 1e-9 for f in truck_lines)


#: A short corridor at three speeds, one class with demands uniform on the
#: ripple range, so that nearly every vehicle has a demand of its own.
MIXED_CORRIDOR = {
    "duration_s": 30.0,
    "traffic": {
        "rate_evps": 2.0,
        "duration_s": 30.0,
        "classes": [
            {"rx_len_m": 1.83, "prob": 0.2, "speed_mps": 21.7, "demand": {"kind": "max"}},
            {"rx_len_m": 1.2, "prob": 0.5, "speed_mps": 29.0, "demand": {"kind": "uniform_range"}},
            {"rx_len_m": 1.7, "prob": 0.3, "speed_mps": 26.8, "demand": {"kind": "max"}},
        ],
    },
}


@pytest.mark.parametrize("doc", [{}, MIXED_CORRIDOR], ids=["default", "mixed-demand"])
@pytest.mark.parametrize("harmonics", [None, 12])
def test_psd_analytic_matches_point_class_oracle(tmp_path, doc, harmonics):
    doc = {**doc, "seed": 5, "analytic": True, "harmonics": harmonics}
    assert main(["psd", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)]) == EXIT_OK
    rc = runconfig_from_dict(doc)
    scenario = generate(rc.er, rc.traffic or cli._default_psd_traffic(rc), rc.seed)
    fundamentals, lines = point_class_analytic_lines(scenario, harmonics)
    cli._write_csv(tmp_path / "oracle.csv", {}, ("freq_hz", "line_power_kw2", "speed_mps"), lines)
    _, header, rows = read_meta_csv(tmp_path / "psd.csv")
    assert [header, *rows] == (tmp_path / "oracle.csv").read_text().splitlines()
    assert json.loads((tmp_path / "peaks.json").read_text())["fundamentals_hz"] == fundamentals


def test_psd_analytic_builds_no_evparams_per_vehicle(tmp_path, evparams_built):
    built, n_evs = [], []
    for duration in (20.0, 200.0):
        rc = RunConfig(duration_s=duration)
        n_evs.append(len(generate(rc.er, cli._default_psd_traffic(rc), rc.seed).evs))
        before = len(evparams_built)
        args = ["psd", "--analytic", "--duration-s", str(duration), "--out", str(tmp_path)]
        assert main(args) == EXIT_OK
        built.append(len(evparams_built) - before)
    assert n_evs[1] > 5 * n_evs[0]
    assert built[0] == built[1]


# --- composition ------------------------------------------------------------


def test_composition_table(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "thetas": [0.05, 0.2],
            "sweep_columns": [{"rx_len_m": 1.2, "demand": {"kind": "max"}}],
            "n_ref": 6,
        },
    )
    args = ["composition", "--config", cfg, "--out", str(tmp_path), "--seed", "1", "--trials", "2"]
    assert main(args) == EXIT_OK
    meta, header, rows = read_meta_csv(tmp_path / "thc_table.csv")
    assert header == "theta,thc_rx_1.2"
    assert len(rows) == 2
    for row, theta in zip(rows, (0.05, 0.2)):
        cells = row.split(",")
        assert float(cells[0]) == theta
        assert 0.5 < float(cells[1]) < 40.0


@pytest.mark.parametrize(
    "doc, key", [({"sample_rate_hz": 2000.0}, "sample_rate_hz"), ({"duration_s": 300.0}, "duration_s")]
)
def test_composition_rejects_sampling_keys(tmp_path, capsys, doc, key):
    # The sweep samples fixed 60 s windows at 500 Hz.  Earlier builds
    # accepted these keys and wrote the default table under another hash.
    cfg = write_config(tmp_path, doc)
    args = ["composition", "--config", cfg, "--out", str(tmp_path), "--trials", "2"]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: config.{key}: not used by composition, "
        "whose sweep samples fixed 60 s windows at 500 Hz\n"
    )
    assert not (tmp_path / "thc_table.csv").exists()


@pytest.mark.parametrize(
    "command, doc, key",
    [
        (["composition"], {"segment_s": 4.0, "psd_method": "welch", "harmonics": 3}, "segment_s"),
        (["spectrum"], {"segment_s": 4.0}, "segment_s"),
        (["validate"], {"thetas": [0.1], "n_ref": 3}, "thetas"),
        (["psd"], {"trials": 200}, "trials"),
        (["ingest", "traffic.csv"], {"duration_s": 5.0}, "duration_s"),
    ],
)
def test_subcommands_reject_keys_they_do_not_read(tmp_path, capsys, command, doc, key):
    # Earlier builds accepted these and wrote their default outputs under
    # another config hash.
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([*command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config.{key}: not used by {command[0]}")
    assert not out.exists()


def test_every_run_config_key_is_read_by_some_subcommand():
    read = set().union(*SUBCOMMAND_KEYS.values())
    assert read == {f.name for f in dataclasses.fields(RunConfig)}


# --- validate and ingest ----------------------------------------------------


def test_validate_suites_pass(tmp_path):
    args = ["validate", "--out", str(tmp_path), "--seed", "0", "--trials", "300"]
    assert main(args) == EXIT_OK
    doc = json.loads((tmp_path / "validate.json").read_text())
    assert doc["passed"] is True
    assert len(doc["results"]) == 6
    assert all(r["passed"] for r in doc["results"])


@pytest.mark.parametrize(
    "er",
    [
        # Earlier builds drew 1.83 m receivers here, longer than the coil.
        {"tx_len_m": 0.5, "gap_m": 0.3, "power_density_kw_per_m": 100.0, "segment_len_m": 80.0},
        {"tx_len_m": 6.0, "gap_m": 1.0, "power_density_kw_per_m": 100.0, "segment_len_m": 4000.0},
    ],
)
def test_validate_runs_on_any_roadway(tmp_path, capsys, er):
    cfg = write_config(tmp_path, {"er": er})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:6]] == [f"PASS {name}" for name in CHECKS]
    assert json.loads((tmp_path / "validate.json").read_text())["passed"] is True


def test_validate_rejects_too_few_trials(tmp_path, capsys):
    # Earlier builds ran 100 trials instead, and said nothing.
    assert main(["validate", "--trials", "5", "--out", str(tmp_path)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: trials must be >= 100 for validate, got 5\n"
    assert not (tmp_path / "validate.json").exists()


def test_validate_self_test_reports_failure(tmp_path):
    args = [
        "validate",
        "--self-test",
        "--out",
        str(tmp_path),
        "--seed",
        "0",
        "--trials",
        "300",
    ]
    assert main(args) == EXIT_VALIDATION
    doc = json.loads((tmp_path / "validate.json").read_text())
    assert doc["passed"] is False
    by_name = {r["suite"]: r["passed"] for r in doc["results"]}
    assert by_name["parseval"] is False


def test_ingest_rejects_bytes_that_are_not_utf8(tmp_path, capsys):
    src = tmp_path / "traffic.csv"
    src.write_bytes(GOOD_CSV.encode().replace(b"1.5,29.0", b"1.5\xff,29.0"))
    assert main(["ingest", "--out", str(tmp_path / "out"), str(src)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"ingest error: {src}:3: byte 0xff is not UTF-8\n"


def test_ingest_writes_scenario(tmp_path):
    src = tmp_path / "traffic.csv"
    src.write_text(GOOD_CSV)
    out = tmp_path / "out"
    assert main(["ingest", "--out", str(out), str(src)]) == EXIT_OK
    doc = json.loads((out / "scenario.json").read_text())
    assert doc["provenance"] == {"kind": "ingested", "path": str(src)}
    assert len(doc["evs"]) == 2
    assert doc["evs"][0]["peak_demand_kw"] == 200.0
