"""End-to-end CLI: config resolution, artifacts, exit codes."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dwptload
from dwptload import (
    INDOT, cli, composition, generate, ingest, scenario_from_json, spectrum, synthesize,
)
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
from dwptload.signals import MAX_SEGMENT_SAMPLES, WINDOWS, LoadSeries, estimate_psd, psd_plan
from dwptload.spectrum import fs_harmonic_grid
from oracles import csv_lines, point_class_analytic_lines

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


def test_undeliverable_class_is_a_config_error(tmp_path, capsys):
    doc = {**one_class(prob=0.5), "duration_s": 10.0}
    doc["traffic"]["classes"].append(
        {"rx_len_m": 1.0, "prob": 0.5, "speed_mps": 24.6,
         "demand": {"kind": "uniform", "lo_kw": 100.0, "hi_kw": 110.0}}
    )
    config = write_config(tmp_path, doc)
    for command in ("simulate", "psd"):
        assert main([command, "--config", config, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: class[1]: peak_demand_kw 110.0 exceeds deliverable "
            "maximum 109.3600 for rx_len_m=1.0\n"
        )
    # A sweep's columns are checked the same way, before any count is matched.
    columns = [{"rx_len_m": rx, "demand": {"kind": "max"}} for rx in (1.2, 9.0)]
    config = write_config(tmp_path, {"sweep_columns": columns})
    assert main(["composition", "--config", config, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: class[1]: rx_len_m must be < tx_len_m (3.66), got 9.0\n"
    )


#: Each bound of `RunConfig`, crossed in a document of a subcommand that
#: reads the key, and the whole message that must name it.
OUT_OF_BOUNDS = [
    ("spectrum", {"seed": -1}, "seed must be >= 0, got -1"),
    ("psd", {"sample_rate_hz": 0.0}, "sample_rate_hz must be > 0, got 0.0"),
    ("psd", {"duration_s": -5.0}, "duration_s must be > 0, got -5.0"),
    ("psd", {"psd_method": "multitaper"}, "unknown psd_method 'multitaper'"),
    ("psd", {"segment_s": 0.0}, "segment_s must be > 0, got 0.0"),
    ("psd", {"overlap_frac": 1.0}, "overlap_frac must lie in [0, 1), got 1.0"),
    ("psd", {"overlap_frac": -0.25}, "overlap_frac must lie in [0, 1), got -0.25"),
    ("validate", {"trials": 0}, "trials must be >= 1, got 0"),
    ("spectrum", {"harmonics": 0}, "harmonics must be >= 1, got 0"),
    ("spectrum", {"rx_len_m": 0.0}, "rx_len_m must be > 0, got 0.0"),
    ("spectrum", {"speed_mps": -1.0}, "speed_mps must be > 0, got -1.0"),
    ("spectrum", {"demand_kw": -1.0}, "demand_kw must be >= 0, got -1.0"),
    ("composition", {"thetas": [0.1, 1.5]}, "thetas must lie in [0, 1], got (0.1, 1.5)"),
    ("composition", {"n_windows": 0}, "n_windows must be >= 1, got 0"),
    ("composition", {"n_ref": 0}, "n_ref must be >= 1, got 0"),
]


@pytest.mark.parametrize("command, doc, message", OUT_OF_BOUNDS)
def test_out_of_bounds_settings_name_their_key(tmp_path, capsys, command, doc, message):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ["[1, 2]", "7", '"psd"', "null"])
def test_config_top_level_must_be_an_object(tmp_path, capsys, text):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {cfg}: top level must be a JSON object\n"


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
    ["psd", "--config", hamming],
    ["composition", "--trials", "2"],
    ["validate", "--trials", "100"],
):
    assert cli.main([*argv, "--out", out]) == 0, argv
free = scipy_modules()
import scipy.signal
print(json.dumps({"free": free, "imported": scipy_modules()}))
"""


def test_scipy_free_subcommands_load_no_scipy(tmp_path):
    # scipy.signal and scipy.stats each cost ~1 s and ~70 MB at start-up,
    # and scipy is only a test dependency, so no subcommand imports it.
    # The sampled `psd` computes every window itself,
    # `composition` reads the Sobol direction numbers shipped with the
    # package, and `validate`'s oracles are numpy code.
    config = write_config(tmp_path, {"duration_s": 10.0})
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
    assert "scipy.signal" in loaded["imported"]  # the probe can see a scipy import


@pytest.mark.parametrize("error", [RuntimeError("formatting failed"), KeyboardInterrupt()])
def test_failed_write_leaves_the_old_file(tmp_path, error):
    path = tmp_path / "psd.csv"
    path.write_bytes(b"# seed=0\nold,rows\n")

    def body():
        yield "second batch\n"
        raise error

    with pytest.raises(type(error)):
        cli._write_atomic(path, "first batch\n", body())
    assert path.read_bytes() == b"# seed=0\nold,rows\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=oct)
def test_artifacts_get_a_plain_files_mode(tmp_path, capsys, umask):
    # mkstemp makes its file 0600, and os.replace keeps that mode.
    old = os.umask(umask)
    try:
        assert main(["spectrum", "--out", str(tmp_path)]) == EXIT_OK
        plain = tmp_path / "plain.txt"
        plain.write_text("")
    finally:
        os.umask(old)
    mode = stat.S_IMODE(plain.stat().st_mode)
    assert mode == 0o666 & ~umask
    for name in ("fs_coeffs.csv", "thc.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name


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


def tiny_demand_traffic(rx_len_m: float) -> dict:
    """A psd document of one class drawing 1e-10 kW: a constant load on a
    receiver longer than the gap, a pulse on a shorter one."""
    demand = {"kind": "uniform", "lo_kw": 1e-10, "hi_kw": 1e-10}
    classes = [{"rx_len_m": rx_len_m, "prob": 1.0, "speed_mps": 29.0, "demand": demand}]
    return {"duration_s": 30.0, "traffic": {"rate_evps": 1.0, "duration_s": 30.0, "classes": classes}}


def tail_rule_refusal(dc_kw: float, m: int, limit: int = 2**20, setting: str = "") -> str:
    """The tail rule's refusal of a DC term of ``dc_kw``, which needs ``m``
    harmonics; through the CLI, after the ``setting`` that asked and with
    the option that replaces the rule."""
    message = (
        f"dc_kw {dc_kw!r} needs {m} harmonics by the tail rule, above the limit of "
        f"{limit}; give a harmonic count"
    )
    return f"{setting}: {message} (--harmonics)" if setting else message


@pytest.mark.parametrize(
    "args, doc, message",
    [
        (
            ["spectrum", "--harmonics", str(2**20 + 1)],
            {},
            f"config: harmonics must be <= 1048576, got {2**20 + 1}",
        ),
        (
            ["spectrum", "--harmonics", "30000000000"],
            {},
            "config: harmonics must be <= 1048576, got 30000000000",
        ),
        # A receiver shorter than the gap is never a constant load, so the
        # tail rule bounds its harmonics: 2.7e10 of them, 204 GiB as one array.
        (
            ["spectrum"],
            {"rx_len_m": 0.5, "demand_kw": 1e-10},
            tail_rule_refusal(
                9.10284463894767e-11, 27426357379, setting="demand_kw 1e-10 on rx_len_m 0.5"
            ),
        ),
        (
            ["psd", "--analytic", "--harmonics", "30000000000"],
            {},
            "config: harmonics must be <= 1048576, got 30000000000",
        ),
        (
            ["psd", "--analytic"],
            tiny_demand_traffic(0.5),
            tail_rule_refusal(
                9.10284463894767e-11, 27426357379, setting="the 29.0 m/s speed group"
            ),
        ),
    ],
    ids=["harmonics-over", "harmonics-huge", "demand-kw", "psd-harmonics-huge", "psd-demand"],
)
def test_more_harmonics_than_the_limit_are_refused(tmp_path, capsys, args, doc, message):
    out = tmp_path / "out"
    argv = [*args, "--config", write_config(tmp_path, doc), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_harmonic_limit_is_inclusive(tmp_path, capsys, monkeypatch):
    # The CLI binds no copy of the limit: patching the library's moves it.
    monkeypatch.setattr(spectrum, "MAX_HARMONICS", 12)
    over = "config error: config: harmonics must be <= 12, got 13\n"
    # The default vehicle's tail rule needs 189 harmonics.
    setting = "demand_kw 200.1288 on rx_len_m 1.83"
    rule = f"config error: {tail_rule_refusal(160.27820743982497, 189, 12, setting)}\n"
    psd = ["psd", "--analytic", "--duration-s", "20"]
    for i, (args, code, err) in enumerate([
        (["spectrum", "--harmonics", "12"], EXIT_OK, ""),
        (["spectrum", "--harmonics", "13"], EXIT_CONFIG, over),
        (["spectrum"], EXIT_CONFIG, rule),
        ([*psd, "--harmonics", "12"], EXIT_OK, ""),
        ([*psd, "--harmonics", "13"], EXIT_CONFIG, over),
    ]):
        out = tmp_path / f"out{i}"
        assert main([*args, "--out", str(out)]) == code
        assert capsys.readouterr().err == err
        assert out.exists() == (code == EXIT_OK)
    # Each speed group's mean DC term asks for more than 12 harmonics.
    out = tmp_path / "psd-rule"
    assert main([*psd, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: the ") and " m/s speed group: dc_kw " in err
    assert err.endswith(
        "harmonics by the tail rule, above the limit of 12; give a harmonic count (--harmonics)\n"
    )
    assert not out.exists()


def test_runconfig_harmonics_limit_is_inclusive():
    assert RunConfig(harmonics=2**20).harmonics == 2**20
    with pytest.raises(ConfigError, match=rf"^harmonics must be <= 1048576, got {2**20 + 1}$"):
        RunConfig(harmonics=2**20 + 1)


def test_a_constant_load_takes_one_harmonic(tmp_path, capsys):
    # Every harmonic of a constant load is 0, so no tail rule applies: the
    # parent asked for --harmonics at 1e-5 kW and wrote 409 zero rows at 50 kW.
    for demand_kw in (1e-5, 50.0):
        out = tmp_path / f"spectrum{demand_kw}"
        cfg = write_config(tmp_path, {"demand_kw": demand_kw})
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "spectrum: THC 0 % over 1 harmonics\n"
        doc = json.loads((out / "thc.json").read_text())
        assert (doc["harmonics_used"], doc["constant_load"], doc["dc_kw"]) == (1, True, demand_kw)
        _, _, rows = read_meta_csv(out / "fs_coeffs.csv")
        assert [row.split(",")[:3] for row in rows] == [
            ["0", "0", f"{demand_kw:.10g}"], ["1", "5.382932166", "0"]
        ]
    # A speed group whose vehicles are all constant loads: its DC line and one line of 0.
    out = tmp_path / "psd"
    cfg = write_config(tmp_path, tiny_demand_traffic(1.2))
    assert main(["psd", "--analytic", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, _, rows = read_meta_csv(out / "psd.csv")
    assert [row.split(",")[1:] for row in rows][1:] == [["0", "29"]]
    assert main(["psd", "--analytic", "--harmonics", "3", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_meta_csv(out / "psd.csv")
    assert len(rows) == 4


# --- CSV rows ---------------------------------------------------------------

#: Cells of each type a CSV row may hold, float subclasses and the
#: non-finite floats among them.
csv_cells = {
    "float": st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, 0.1]),
    "float64": st.floats().map(np.float64),
    "int": st.integers(-(2**70), 2**70),
    "bool": st.booleans(),
    "none": st.none(),
    "str": st.text(max_size=4),
}


@st.composite
def csv_batches(draw):
    """Rows whose columns each hold one cell type, or any mix of types."""
    n_rows, n_cols = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    kinds = st.sampled_from(sorted(csv_cells))
    if draw(st.booleans()):
        columns = [csv_cells[draw(kinds)] for _ in range(n_cols)]
        return [tuple(draw(c) for c in columns) for _ in range(n_rows)]
    return [tuple(draw(csv_cells[draw(kinds)]) for _ in range(n_cols)) for _ in range(n_rows)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(csv_batches())
def test_csv_lines_are_the_cell_by_cell_lines(rows):
    assert cli._csv_lines([list(column) for column in zip(*rows)]) == csv_lines(rows)


def test_csv_batches_keep_the_cell_by_cell_bytes(tmp_path, monkeypatch):
    # Rows of `fs_coeffs.csv`, whose first bound is None, in two blocks
    # and across batches.
    monkeypatch.setattr(cli, "_CSV_ROWS", 3)
    rows = [(0, 0.0, 160.25, None)] + [(m, m * 5.38, 1 / m, 50.6 / m**2) for m in range(1, 8)]
    blocks = (list(zip(*rows[:5])), list(zip(*rows[5:])))
    cli._write_csv(tmp_path / "t.csv", {"seed": 1}, ("m", "freq_hz", "coeff_kw", "bound_kw"), iter(blocks))
    body = "# seed=1\nm,freq_hz,coeff_kw,bound_kw\n" + csv_lines(rows)
    assert (tmp_path / "t.csv").read_text() == body


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
    blocks = list(cli._series_blocks(scenario, rc.sample_rate_hz, 0.0, series.n_samples, sums))
    assert np.array_equal(np.concatenate([times for times, _ in blocks]), series.times_s)
    assert np.array_equal(np.concatenate([loads for _, loads in blocks]), series.samples_kw)
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


def traced_psd_csv_write(tmp_path, monkeypatch, duration_s):
    """The PSD's bytes, and the traced peak from the estimate's return to
    the end of writing ``psd.csv``, of a 100 Hz periodogram ``psd``."""
    scenario_psd, write_csv = cli._scenario_psd, cli._write_csv
    seen = {}

    def traced_psd(*args, **kwargs):
        est = scenario_psd(*args, **kwargs)
        seen["psd"] = est.freqs_hz.nbytes + est.psd_kw2_per_hz.nbytes
        seen["before"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return est

    def traced_write(path, *args):
        write_csv(path, *args)
        if path.name == "psd.csv":
            seen["write"] = tracemalloc.get_traced_memory()[1] - seen["before"]

    monkeypatch.setattr(cli, "_scenario_psd", traced_psd)
    monkeypatch.setattr(cli, "_write_csv", traced_write)
    cfg = write_config(
        tmp_path,
        {"duration_s": duration_s, "sample_rate_hz": 100.0, "psd_method": "periodogram"},
    )
    tracemalloc.start()
    try:
        assert main(["psd", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    finally:
        tracemalloc.stop()
    return seen["psd"], seen["write"]


def test_psd_csv_write_does_not_grow_with_the_psd(tmp_path, monkeypatch, capsys):
    # 20,001 bins (more than two batches of rows) against 60,001: the write
    # grew by 0.13 times the PSD's own growth here.  Converting the whole
    # PSD to two lists of Python floats made it grow by 4.1 times.
    small_psd, small_write = traced_psd_csv_write(tmp_path, monkeypatch, 400.0)
    large_psd, large_write = traced_psd_csv_write(tmp_path, monkeypatch, 1200.0)
    assert large_write - small_write <= 0.5 * (large_psd - small_psd)


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


def block_scipy(monkeypatch):
    """Make every import of scipy fail, as if it were not installed."""
    for name in ["scipy", *(m for m in sys.modules if m.startswith("scipy."))]:
        monkeypatch.setitem(sys.modules, name, None)


def run_with_and_without_scipy(monkeypatch, tmp_path, argv, names):
    """The bytes of the files ``names`` that ``argv`` writes, with scipy
    importable and then blocked; each run must exit 0."""
    outs = []
    for blocked in (False, True):
        if blocked:
            block_scipy(monkeypatch)
        _sobol_directions.cache_clear()  # read the table again
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        outs.append([(tmp_path / name).read_bytes() for name in names])
    _sobol_directions.cache_clear()
    return outs


@pytest.mark.parametrize("window", list(WINDOWS))
def test_psd_runs_every_window_without_scipy(tmp_path, monkeypatch, capsys, window):
    cfg = write_config(
        tmp_path, {"duration_s": 10.0, "sample_rate_hz": 200.0, "psd_window": window}
    )
    with_scipy, without = run_with_and_without_scipy(
        monkeypatch, tmp_path, ["psd", "--config", cfg], ["psd.csv", "peaks.json"]
    )
    assert with_scipy == without


def test_unknown_window_without_scipy_names_the_windows(tmp_path, monkeypatch, capsys):
    block_scipy(monkeypatch)
    cfg = write_config(tmp_path, {"psd_window": "tukey"})
    assert main(["psd", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: Invalid window name 'tukey'; the windows are boxcar, hann, "
        "hamming, blackman, nuttall, blackmanharris, flattop\n"
    )


def test_composition_runs_without_scipy(tmp_path, monkeypatch, capsys):
    with_scipy, without = run_with_and_without_scipy(
        monkeypatch, tmp_path, ["composition", "--trials", "2"], ["thc_table.csv"]
    )
    assert with_scipy == without


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
        (
            {"sample_rate_hz": 1e300, "duration_s": 1e10},
            "bad window (0.0, 10000000000.0): need 0 <= t0 < t1 and a finite number "
            "of samples at 1e+300 Hz",
        ),
        (
            {"sample_rate_hz": 1e308, "duration_s": 1e-300, "segment_s": 10.0},
            "segment of inf samples longer than series of 100000000",
        ),
        (
            {"psd_method": "periodogram", "sample_rate_hz": 1.0, "duration_s": 1.0},
            "series of 1 samples too short for a periodogram",
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
    "doc, message",
    [
        (
            {"segment_s": 18.0},
            "segment_s 18.0 at 1000000.0 Hz makes a segment of 18000000 samples, above the "
            "limit of 16777216",
        ),
        (
            {"psd_method": "periodogram"},
            "a periodogram of 20000000 samples at 1000000.0 Hz is one segment above the "
            "limit of 16777216",
        ),
    ],
    ids=["welch", "periodogram"],
)
def test_psd_refuses_a_segment_above_the_limit_before_generating(
    tmp_path, capsys, monkeypatch, doc, message
):
    # Earlier builds generated the traffic, then asked numpy for the
    # 8e12-sample window (58.2 TiB) or the 1e13-sample periodogram (72.8
    # TiB) and ended in a traceback, exit 1.  The series here is within
    # `signals.MAX_SAMPLES`, so the segment is what is refused.
    def generate(*args):
        raise AssertionError("generated traffic before checking the segment")

    monkeypatch.setattr("dwptload.cli.generate", generate)
    cfg = write_config(tmp_path, {"sample_rate_hz": 1e6, "duration_s": 20, **doc})
    out = tmp_path / "out"
    assert main(["psd", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "method, message",
    [
        ("periodogram", "a periodogram of 16777217 samples at 1.0 Hz is one segment above"),
        ("welch", "segment_s 16777217.0 at 1.0 Hz makes a segment of 16777217 samples, above"),
    ],
    ids=["periodogram", "welch"],
)
def test_segment_limit_is_inclusive(method, message):
    # A segment as long as the series, at 1 Hz: 2^24 samples are planned
    # (nothing of that size is allocated), 2^24 + 1 are refused by the plan
    # and by the in-memory estimate alike, which reads no sample of them.
    n = MAX_SEGMENT_SAMPLES
    assert psd_plan(n, 1.0, method, float(n), 0.5, "hann").nperseg == n == 2**24
    refusal = f"^{message} the limit of 16777216$"
    with pytest.raises(ValueError, match=refusal):
        psd_plan(n + 1, 1.0, method, float(n + 1), 0.5, "hann")
    series = LoadSeries(np.broadcast_to(0.0, (n + 1,)), 1.0)
    with pytest.raises(ValueError, match=refusal):
        estimate_psd(series, method, segment_s=float(n + 1))


@pytest.mark.parametrize(
    "command, doc, message",
    [
        # The parent was still writing a `*.tmp` of 332 MB and growing.
        (
            "simulate",
            {"sample_rate_hz": 1e12, "duration_s": 10},
            "window (0.0, 10.0) at 1000000000000.0 Hz makes 1e+13 samples",
        ),
        # The parent was still sampling after 30 s.
        (
            "psd",
            {"sample_rate_hz": 1e6, "duration_s": 1e5, "segment_s": 1.0},
            "window (0.0, 100000.0) at 1000000.0 Hz makes 1e+11 samples",
        ),
    ],
    ids=["simulate", "psd"],
)
def test_a_grid_above_the_sample_limit_is_refused_before_generating(
    tmp_path, capsys, monkeypatch, command, doc, message
):
    def generate(*args):
        raise AssertionError("generated traffic before checking the sample count")

    monkeypatch.setattr("dwptload.cli.generate", generate)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {message}, above the limit of 134217728\n"
    )
    assert not out.exists()


def test_composition_refuses_sizes_it_cannot_serve(tmp_path, capsys, monkeypatch):
    # The parent ended --trials 1000000000 in a 67.1 GiB allocation
    # traceback, exit 1, and refused n_ref 20000 without naming the key.
    def draw(*args):
        raise AssertionError("drew Sobol points before checking the sweep's size")

    monkeypatch.setattr(composition, "_scrambled_sobol", draw)
    for args, message in [
        (["--trials", "1000000000"], "n_windows must be <= 16384, got 1000000000"),
        (["--trials", "16385"], "n_windows must be <= 16384, got 16385"),
        (
            ["--config", write_config(tmp_path, {"n_ref": 20000})],
            "n_ref 20000 matches up to 20000 vehicles a window, whose phases and demands "
            "need 40000 Sobol dimensions: Maximum supported dimensionality is 21201.",
        ),
    ]:
        out = tmp_path / "out"
        assert main(["composition", *args, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


def test_simulate_rejects_an_overflowing_sample_count_before_generating(
    tmp_path, capsys, monkeypatch
):
    def generate(*args):
        raise AssertionError("generated traffic before checking the sample count")

    monkeypatch.setattr("dwptload.cli.generate", generate)
    cfg = write_config(tmp_path, {"sample_rate_hz": 1e300, "duration_s": 1e10})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "a finite number of samples at 1e+300 Hz" in capsys.readouterr().err
    assert not (tmp_path / "timeseries.csv").exists()


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


@pytest.mark.parametrize(
    "key, value",
    [
        ("sample_rate_hz", 7.0),
        ("psd_method", "welch"),
        ("segment_s", 4.0),
        ("overlap_frac", 0.25),
        ("psd_window", "flattop"),
    ],
)
def test_psd_analytic_rejects_sampling_keys(tmp_path, capsys, monkeypatch, key, value):
    # The analytic lines come from the generated vehicles, not from a
    # sampled series.  Earlier builds accepted these keys and wrote the
    # same lines under another config hash.
    def generate(*args):
        raise AssertionError("generated traffic before checking the keys")

    monkeypatch.setattr("dwptload.cli.generate", generate)
    cfg = write_config(tmp_path, {key: value})
    out = tmp_path / "out"
    assert main(["psd", "--analytic", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: config.{key}: not used by psd --analytic, which samples no series\n"
    )
    assert not out.exists()


def test_analytic_periodogram_is_refused_as_a_periodogram(tmp_path, capsys):
    cfg = write_config(tmp_path, {"psd_method": "periodogram", "segment_s": 4.0})
    out = tmp_path / "out"
    assert main(["psd", "--analytic", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: config.segment_s: not used by psd_method 'periodogram', "
        "which is one boxcar segment over the whole series\n"
    )
    assert not out.exists()


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
    header = ("freq_hz", "line_power_kw2", "speed_mps")
    cli._write_csv(tmp_path / "oracle.csv", {}, header, [list(zip(*lines))])
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


@pytest.mark.parametrize("harmonics", [1025, 2049])
def test_psd_analytic_blocks_sum_as_one_call(harmonics):
    # A block of one harmonic would sum its vehicles in another order
    # (numpy sums a column of one pairwise), and its line would move.
    rc = runconfig_from_dict({**MIXED_CORRIDOR, "seed": 5, "analytic": True, "harmonics": harmonics})
    scenario = generate(rc.er, rc.traffic, rc.seed)
    _, lines = cli._analytic_lines(rc, scenario)
    evs, m = scenario.evs, np.arange(1, harmonics + 1)
    want = []
    for speed in sorted(set(evs.speed_mps.tolist())):
        rx, demand = (column[evs.speed_mps == speed] for column in (evs.rx_len_m, evs.peak_demand_kw))
        grids = (fs_harmonic_grid(rc.er, r, demand[rx == r], m) for r in np.unique(rx).tolist())
        want += sum((grid**2).sum(axis=0) for grid in grids).tolist()
    got = np.array([power for f, power, _ in lines if f])  # less the DC lines
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


def traced_analytic_peak(tmp_path, harmonics: int) -> int:
    """Traced peak of ``psd --analytic`` over 600 s of default traffic."""
    argv = [
        "psd", "--analytic", "--duration-s", "600", "--harmonics", str(harmonics),
        "--out", str(tmp_path / f"analytic{harmonics}"),
    ]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_psd_analytic_memory_does_not_grow_with_the_harmonics(tmp_path, capsys):
    traced_analytic_peak(tmp_path, 10)  # caches outside the trace
    # ~0.7 MiB measured, the lines written; one vehicles x M array per
    # receiver length grew it by ~30 MiB.
    assert traced_analytic_peak(tmp_path, 8000) - traced_analytic_peak(tmp_path, 2000) <= 2 * 2**20


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


def test_scenario_files_read_back(tmp_path):
    # `simulate` and `ingest` write the scenario with a top-level `meta`.
    sim, ing = tmp_path / "simulate", tmp_path / "ingest"
    assert main(["simulate", "--duration-s", "20", "--seed", "4", "--out", str(sim)]) == EXIT_OK
    spec = cli._default_simulate_traffic(RunConfig(duration_s=20.0))
    assert scenario_from_json((sim / "scenario.json").read_text()) == generate(INDOT, spec, 4)
    src = tmp_path / "traffic.csv"
    src.write_text(GOOD_CSV)
    assert main(["ingest", "--out", str(ing), str(src)]) == EXIT_OK
    assert scenario_from_json((ing / "scenario.json").read_text()) == ingest(str(src), INDOT)


def test_ingest_writes_scenario(tmp_path):
    src = tmp_path / "traffic.csv"
    src.write_text(GOOD_CSV)
    out = tmp_path / "out"
    assert main(["ingest", "--out", str(out), str(src)]) == EXIT_OK
    doc = json.loads((out / "scenario.json").read_text())
    assert doc["provenance"] == {"kind": "ingested", "path": str(src)}
    assert len(doc["evs"]) == 2
    assert doc["evs"][0]["peak_demand_kw"] == 200.0
