"""Random configs through every subcommand that reads one.

Each generated config is small (at most 5 s of traffic at up to 200 Hz,
at most 2 sweep windows) and is run through ``main`` for ``simulate``,
``psd``, ``spectrum`` and ``composition``.  Whatever the config, the exit
code must be one of the documented ones and nothing may be raised.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwptload import (
    INDOT,
    ErConfig,
    MaxDemand,
    SweepColumn,
    TrafficClass,
    TrafficSpec,
    UniformExplicit,
    UniformOnRange,
)
from dwptload.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION, RunConfig, main
from dwptload.cli import SUBCOMMAND_KEYS
from dwptload.schema import to_dict

EXIT_CODES = {EXIT_OK, EXIT_VALIDATION, EXIT_IO, EXIT_CONFIG}


def floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def geometries(draw) -> ErConfig:
    tx = draw(floats(0.5, 5.0))
    gap = draw(floats(0.1, 3.0))
    return ErConfig(tx, gap, draw(floats(1.0, 300.0)), (tx + gap) * draw(floats(1.0, 1e3)))


demands = st.one_of(
    st.just(MaxDemand()),
    st.just(UniformOnRange()),
    st.lists(floats(0.0, 500.0), min_size=2, max_size=2).map(
        lambda b: UniformExplicit(min(b), max(b))
    ),
)


@st.composite
def traffic_specs(draw, duration_s: float) -> TrafficSpec:
    weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    classes = tuple(
        TrafficClass(
            rx_len_m=draw(floats(0.1, 3.5)),
            prob=w / sum(weights),
            speed_mps=draw(floats(0.5, 45.0)),
            demand_dist=draw(demands),
        )
        for w in weights
    )
    # Mostly the run's duration; sometimes another, which must be refused.
    duration = draw(st.just(duration_s) | floats(0.1, 5.0))
    return TrafficSpec(draw(floats(0.0, 3.0)), duration, classes)


@st.composite
def small_configs(draw) -> dict:
    duration_s = draw(floats(0.1, 5.0))
    rc = RunConfig(
        er=draw(st.just(INDOT) | geometries()),
        traffic=draw(st.none() | traffic_specs(duration_s)),
        seed=draw(st.integers(0, 2**32)),
        sample_rate_hz=draw(floats(1.0, 200.0)),
        duration_s=duration_s,
        psd_method=draw(st.sampled_from(["welch", "periodogram"])),
        segment_s=draw(floats(0.05, 6.0)),
        overlap_frac=draw(floats(0.0, 0.99)),
        psd_window=draw(st.sampled_from(["hann", "boxcar", "hamming", "nonsense", ""])),
        harmonics=draw(st.none() | st.integers(1, 12)),
        analytic=draw(st.booleans()),
        rx_len_m=draw(floats(0.1, 3.5)),
        demand_kw=draw(st.none() | floats(0.0, 500.0)),
        speed_mps=draw(floats(0.5, 45.0)),
        thetas=tuple(sorted(draw(st.lists(floats(0.0, 1.0), min_size=1, max_size=3)))),
        sweep_columns=tuple(
            SweepColumn(rx, dist)
            for rx, dist in draw(st.lists(st.tuples(floats(0.1, 3.5), demands), max_size=2))
        ),
        n_windows=draw(st.integers(1, 2)),
        n_ref=draw(st.integers(1, 6)),
    )
    doc = to_dict(rc)
    # A periodogram document that sets a Welch key is refused, and so is
    # an analytic one that sets a sampling or estimate key; half the time
    # leave them out so that the periodogram and `psd --analytic` run too.
    if rc.psd_method == "periodogram" and draw(st.booleans()):
        for key in ("psd_window", "segment_s", "overlap_frac"):
            del doc[key]
    if rc.analytic and draw(st.booleans()):
        for key in ("sample_rate_hz", "psd_method", "segment_s", "overlap_frac", "psd_window"):
            doc.pop(key, None)
    return doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_configs(), st.sampled_from(["simulate", "psd", "spectrum", "composition"]))
# An analytic `psd` that keeps a sampling key, which it refuses: the
# derandomized draws need not send one.
@example({"analytic": True, "sample_rate_hz": 50.0, "duration_s": 1.0}, "psd")
def test_random_configs_exit_with_a_documented_code(doc, command):
    # A subcommand refuses the keys it does not read (tests/test_cli.py);
    # without them it runs.
    doc = {k: v for k, v in doc.items() if k in SUBCOMMAND_KEYS[command]}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        code = main([command, "--config", str(config), "--out", str(Path(tmp) / "out")])
    assert code in EXIT_CODES
