"""Arrival scenarios: synthetic stochastic traffic and trajectory files.

A scenario is a concrete list of vehicles with entry times on a common
roadway.  Synthetic scenarios draw Poisson arrivals with per-class speeds
and demands; trajectory files use a small CSV format
(``entry_time_s,speed_mps,rx_len_m,peak_demand_kw[,class_id]``) so that
externally simulated traffic can be ingested.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence, Union

import numpy as np

from .fleet import DEMAND_KEY, DemandDist, sample_demand
from .roadway import ErConfig, EvParams, _require_finite
from .schema import from_dict, to_dict

CSV_FIELDS = ("entry_time_s", "speed_mps", "rx_len_m", "peak_demand_kw")


@dataclass(frozen=True)
class TrafficClass:
    """One vehicle population in a generator spec."""

    rx_len_m: float
    prob: float
    speed_mps: float
    demand_dist: DemandDist = field(metadata=DEMAND_KEY)
    class_id: Optional[str] = None

    def __post_init__(self) -> None:
        _require_finite(self, "rx_len_m", "prob", "speed_mps")
        if not self.rx_len_m > 0:
            raise ValueError(f"rx_len_m must be > 0, got {self.rx_len_m}")
        if not 0 <= self.prob <= 1:
            raise ValueError(f"prob must be in [0, 1], got {self.prob}")
        if not self.speed_mps > 0:
            raise ValueError(f"speed_mps must be > 0, got {self.speed_mps}")


@dataclass(frozen=True)
class TrafficSpec:
    """Poisson-arrival generator parameters."""

    rate_evps: float
    duration_s: float
    classes: tuple[TrafficClass, ...]

    def __post_init__(self) -> None:
        _require_finite(self, "rate_evps", "duration_s")
        if not self.rate_evps >= 0:
            raise ValueError(f"rate_evps must be >= 0, got {self.rate_evps}")
        if not self.duration_s > 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if len(self.classes) < 1:
            raise ValueError("need at least one class")
        total = sum(c.prob for c in self.classes)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"class probabilities must sum to 1, got {total}")


@dataclass(frozen=True)
class Synthetic:
    kind: ClassVar[str] = "synthetic"
    spec: TrafficSpec = field(metadata={"key": "generator"})


@dataclass(frozen=True)
class IngestedFile:
    kind: ClassVar[str] = "ingested"
    path: str


Provenance = Union[Synthetic, IngestedFile]


@dataclass(frozen=True)
class Scenario:
    cfg: ErConfig
    evs: tuple[EvParams, ...]
    duration_s: float
    seed: Optional[int]
    provenance: Provenance

    def __post_init__(self) -> None:
        _require_finite(self, "duration_s")
        if not self.duration_s >= 0:
            raise ValueError(f"duration_s must be >= 0, got {self.duration_s}")
        for i, ev in enumerate(self.evs):
            ev.validate_against(self.cfg)
            if not 0 <= ev.entry_time_s < self.duration_s:
                raise ValueError(
                    f"ev[{i}] entry time {ev.entry_time_s} outside "
                    f"[0, {self.duration_s})"
                )


def generate(cfg: ErConfig, spec: TrafficSpec, seed: int) -> Scenario:
    """Homogeneous-Poisson scenario: exponential gaps, class by probability,
    speed by class, demand by the class distribution.  Same seed, same
    scenario.

    The class is the first index whose normalized cumulative probability
    exceeds one ``rng.random()`` draw.  That is what
    ``rng.choice(len(classes), p=probs)`` computes for one draw, so the
    stream is the same, without ``choice``'s per-call argument checks.
    """
    rng = np.random.default_rng(seed)
    cdf = np.cumsum([c.prob for c in spec.classes])
    cdf /= cdf[-1]
    evs: list[EvParams] = []
    t = 0.0
    while spec.rate_evps > 0:
        t += rng.exponential(1.0 / spec.rate_evps)
        if t >= spec.duration_s:
            break
        k = int(cdf.searchsorted(rng.random(), side="right"))
        c = spec.classes[k]
        demand = sample_demand(c.demand_dist, rng, cfg, c.rx_len_m)
        evs.append(
            EvParams(
                rx_len_m=c.rx_len_m,
                peak_demand_kw=demand,
                speed_mps=c.speed_mps,
                entry_time_s=t,
                class_id=c.class_id,
            )
        )
    return Scenario(
        cfg=cfg,
        evs=tuple(evs),
        duration_s=spec.duration_s,
        seed=seed,
        provenance=Synthetic(spec),
    )


def covering_entry_time(
    cfg: ErConfig,
    speed_mps: float,
    window: tuple[float, float],
    u_phase: float,
    k_periods: int,
) -> float:
    """Entry time that keeps a vehicle on-segment for the whole window.

    The vehicle enters ``(u_phase + k_periods)`` coil periods of travel
    before the window opens, so its in-period phase at the window start is
    exactly ``u_phase`` (uniform phases stay uniform).
    """
    t0, t1 = window
    period_s = cfg.period_m / speed_mps
    dwell = cfg.energized_len_m / speed_mps
    width = t1 - t0
    k_max = int(np.floor(min(t0, dwell - width) / period_s)) - 1
    if k_max < 0:
        raise ValueError(
            "cannot place a covering vehicle: window too long for the "
            "segment dwell or window start too early"
        )
    if not 0 <= u_phase < 1:
        raise ValueError(f"u_phase must be in [0, 1), got {u_phase}")
    if not 0 <= k_periods <= k_max:
        raise ValueError(f"k_periods must be in [0, {k_max}], got {k_periods}")
    return t0 - (u_phase + k_periods) * period_s


def max_covering_periods(
    cfg: ErConfig, speed_mps: float, window: tuple[float, float]
) -> int:
    """Largest usable ``k_periods`` for :func:`covering_entry_time`."""
    t0, t1 = window
    period_s = cfg.period_m / speed_mps
    dwell = cfg.energized_len_m / speed_mps
    return int(np.floor(min(t0, dwell - (t1 - t0)) / period_s)) - 1


def covering_scenario(
    cfg: ErConfig,
    counts: Sequence[tuple[TrafficClass, int]],
    window: tuple[float, float],
    seed: int,
) -> Scenario:
    """Fixed-count scenario whose vehicles all span the given window.

    Entry times are drawn so that each vehicle's coil-array phase at the
    window start is uniform, matching the stationarity hypothesis behind
    the analytical spectrum.
    """
    rng = np.random.default_rng(seed)
    evs: list[EvParams] = []
    for c, count in counts:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        k_max = max_covering_periods(cfg, c.speed_mps, window)
        for _ in range(count):
            u = float(rng.random())
            k = int(rng.integers(0, k_max + 1)) if k_max > 0 else 0
            entry = covering_entry_time(cfg, c.speed_mps, window, u, k)
            demand = sample_demand(c.demand_dist, rng, cfg, c.rx_len_m)
            evs.append(
                EvParams(
                    rx_len_m=c.rx_len_m,
                    peak_demand_kw=demand,
                    speed_mps=c.speed_mps,
                    entry_time_s=entry,
                    class_id=c.class_id,
                )
            )
    spec = TrafficSpec(
        rate_evps=0.0 if not evs else len(evs) / window[1],
        duration_s=window[1],
        classes=tuple(c for c, _ in counts),
    )
    return Scenario(
        cfg=cfg,
        evs=tuple(evs),
        duration_s=window[1],
        seed=seed,
        provenance=Synthetic(spec),
    )


# --- CSV trajectory files -------------------------------------------------


class IngestError(ValueError):
    """A trajectory file failed to parse or validate."""


def write_scenario_csv(scenario: Scenario, path: str) -> None:
    """Write the vehicle list in the trajectory CSV format (UTF-8, LF).

    Floats are written in shortest round-trip form so reading the file
    back reproduces the scenario exactly.
    """
    with_class = any(ev.class_id is not None for ev in scenario.evs)
    fields = CSV_FIELDS + (("class_id",) if with_class else ())
    buf = io.StringIO()
    buf.write(",".join(fields) + "\n")
    for ev in scenario.evs:
        row = [
            repr(ev.entry_time_s),
            repr(ev.speed_mps),
            repr(ev.rx_len_m),
            repr(ev.peak_demand_kw),
        ]
        if with_class:
            row.append(ev.class_id if ev.class_id is not None else "")
        buf.write(",".join(row) + "\n")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(buf.getvalue())


def ingest(path: str, cfg: ErConfig) -> Scenario:
    """Read a trajectory CSV into a scenario.

    Lines starting with ``#`` and blank lines are skipped.  The first
    content line must be the header.  Any malformed or invalid row aborts
    the ingest with a diagnostic naming the offending line.
    """
    with open(path, "r", encoding="utf-8") as f:
        raw = f.readlines()
    numbered = [
        (i + 1, line)
        for i, line in enumerate(raw)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not numbered:
        raise IngestError(f"{path}: no header row found")
    header_no, header_line = numbered[0]
    header = next(csv.reader([header_line]))
    header = [h.strip() for h in header]
    if tuple(header[:4]) != CSV_FIELDS or len(header) > 5 or (
        len(header) == 5 and header[4] != "class_id"
    ):
        raise IngestError(
            f"{path}:{header_no}: bad header {header!r}; expected "
            f"{','.join(CSV_FIELDS)}[,class_id]"
        )
    evs: list[EvParams] = []
    duration = 0.0
    for lineno, line in numbered[1:]:
        row = next(csv.reader([line]))
        if len(row) != len(header):
            raise IngestError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            entry, speed, rx_len, demand = (float(v) for v in row[:4])
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from exc
        class_id = row[4].strip() if len(row) == 5 and row[4].strip() else None
        if not entry >= 0:
            raise IngestError(f"{path}:{lineno}: entry_time_s must be >= 0, got {entry}")
        try:
            ev = EvParams(
                rx_len_m=rx_len,
                peak_demand_kw=demand,
                speed_mps=speed,
                entry_time_s=entry,
                class_id=class_id,
            )
            ev.validate_against(cfg)
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from exc
        end = max(entry + 1.0, entry + ev.dwell_s(cfg))
        if not (math.isfinite(end) and end > entry):
            raise IngestError(
                f"{path}:{lineno}: no finite horizon after entry_time_s {entry} "
                f"at speed_mps {speed}"
            )
        evs.append(ev)
        duration = max(duration, end)
    return Scenario(
        cfg=cfg,
        evs=tuple(evs),
        duration_s=duration,
        seed=None,
        provenance=IngestedFile(path),
    )


# --- JSON serialization ---------------------------------------------------


def scenario_to_json(scenario: Scenario) -> str:
    return json.dumps(to_dict(scenario), indent=2, sort_keys=True)


def scenario_from_json(text: str) -> Scenario:
    return from_dict(Scenario, json.loads(text), "scenario")
