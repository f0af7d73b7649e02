"""Arrival scenarios: synthetic stochastic traffic and trajectory files.

A scenario is a concrete set of vehicles with entry times on a common
roadway.  Synthetic scenarios draw Poisson arrivals with per-class speeds
and demands; trajectory files use a small CSV format
(``entry_time_s,speed_mps,rx_len_m,peak_demand_kw[,class_id]``) so that
externally simulated traffic can be ingested.

A scenario holds its vehicles in a :class:`VehicleTable`, one column per
``EvParams`` field.  Generating, writing, ingesting and serializing a
scenario work on the columns and check them on arrays, so none of them
builds an ``EvParams`` per vehicle; the table still reads as a sequence
of ``EvParams``, each built on access.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Union

import numpy as np

from .fleet import DEMAND_KEY, DemandDist, _class_bounds, _draw_demand
from .roadway import ErConfig, EvParams, _class_id_ok, _require_class_id, _require_finite
from .schema import dumps, float_texts, from_dict

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
        _require_class_id(self.class_id)


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


#: The columns of a :class:`VehicleTable`, in trajectory-CSV order.
COLUMNS = CSV_FIELDS + ("class_id",)


def _rejected(entry, speed, rx, demand, class_id) -> np.ndarray:
    """Where ``EvParams.__post_init__`` rejects a vehicle."""
    ok = np.isfinite(entry) & np.isfinite(speed) & np.isfinite(rx) & np.isfinite(demand)
    ok &= (rx > 0) & (demand >= 0) & (speed > 0)
    bad_ids = {c for c in set(class_id) if not _class_id_ok(c)}
    if bad_ids:
        ok &= np.array([c not in bad_ids for c in class_id], dtype=bool)
    return ~ok


def _undeliverable(cfg: ErConfig, rx, demand) -> np.ndarray:
    """Where ``EvParams.validate_against`` rejects a vehicle."""
    with np.errstate(over="ignore", invalid="ignore"):
        return ~(rx < cfg.tx_len_m) | (demand > cfg.full_kw(rx) * (1 + 1e-12))


@dataclass(frozen=True, eq=False)
class VehicleTable(Sequence):
    """The vehicles of a scenario, one column per :class:`EvParams` field.

    The four numeric columns are read-only float arrays and ``class_id`` is
    a tuple.  Building a table makes the checks of ``EvParams.__post_init__``
    in one vectorised pass; a rejected table raises the scalar message of
    its first bad vehicle ``i`` as ``ev[i]: ...``.  The table is also a
    sequence of ``EvParams``, each built when it is read.
    """

    #: The type of one row; :mod:`dwptload.schema` writes a table as an
    #: array of such objects.
    row_type: ClassVar[type] = EvParams

    entry_time_s: np.ndarray
    speed_mps: np.ndarray
    rx_len_m: np.ndarray
    peak_demand_kw: np.ndarray
    class_id: tuple[Optional[str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_id", tuple(self.class_id))
        n = len(self.class_id)
        for name in CSV_FIELDS:
            col = np.array(getattr(self, name), dtype=float)
            if col.shape != (n,):
                raise ValueError(f"{name} must hold {n} values, got shape {col.shape}")
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        bad = _rejected(
            self.entry_time_s, self.speed_mps, self.rx_len_m, self.peak_demand_kw, self.class_id
        )
        for i in np.flatnonzero(bad):
            try:
                self[i]  # the row's EvParams raises its own message
            except ValueError as exc:
                raise ValueError(f"ev[{i}]: {exc}") from None

    @classmethod
    def from_evs(cls, evs: Iterable[EvParams]) -> "VehicleTable":
        """The table of the given vehicles, in order."""
        evs = tuple(evs)
        return cls(**{name: [getattr(ev, name) for ev in evs] for name in COLUMNS})

    @classmethod
    def from_classes(
        cls,
        classes: Sequence["TrafficClass"],
        kinds: Sequence[int],
        entry_time_s: Sequence[float],
        peak_demand_kw: Sequence[float],
    ) -> "VehicleTable":
        """Vehicles of the given class indices, entry times and demands."""
        idx = np.asarray(kinds, dtype=np.intp)
        ids = [c.class_id for c in classes]
        return cls(
            entry_time_s=entry_time_s,
            speed_mps=np.array([c.speed_mps for c in classes])[idx],
            rx_len_m=np.array([c.rx_len_m for c in classes])[idx],
            peak_demand_kw=peak_demand_kw,
            class_id=tuple(map(ids.__getitem__, kinds)),
        )

    def column(self, name: str) -> Union[np.ndarray, tuple[Optional[str], ...]]:
        """One column: a float array, or the class ids."""
        return getattr(self, name)

    def validate_against(self, cfg: ErConfig, duration_s: float) -> None:
        """The checks of ``EvParams.validate_against`` and of an entry time
        in ``[0, duration_s)``, in one vectorised pass."""
        entry = self.entry_time_s
        bad = _undeliverable(cfg, self.rx_len_m, self.peak_demand_kw)
        bad |= ~((entry >= 0) & (entry < duration_s))
        for i in np.flatnonzero(bad):
            ev = self[i]
            try:
                ev.validate_against(cfg)
            except ValueError as exc:
                raise ValueError(f"ev[{i}]: {exc}") from None
            if not 0 <= ev.entry_time_s < duration_s:
                raise ValueError(
                    f"ev[{i}] entry time {ev.entry_time_s} outside [0, {duration_s})"
                )

    def __len__(self) -> int:
        return len(self.class_id)

    def __getitem__(self, i: int) -> EvParams:
        i = range(len(self))[i]
        return EvParams(
            rx_len_m=float(self.rx_len_m[i]),
            peak_demand_kw=float(self.peak_demand_kw[i]),
            speed_mps=float(self.speed_mps[i]),
            entry_time_s=float(self.entry_time_s[i]),
            class_id=self.class_id[i],
        )

    def __iter__(self) -> Iterator[EvParams]:
        return map(
            EvParams,
            self.rx_len_m.tolist(),
            self.peak_demand_kw.tolist(),
            self.speed_mps.tolist(),
            self.entry_time_s.tolist(),
            self.class_id,
        )

    def __eq__(self, other: object) -> bool:
        """Equal to a table with equal columns, or to a sequence of equal
        ``EvParams``."""
        if isinstance(other, VehicleTable):
            return self.class_id == other.class_id and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in CSV_FIELDS
            )
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self) -> int:  # equal to the hash of an equal tuple
        return hash(tuple(self))


@dataclass(frozen=True)
class Scenario:
    cfg: ErConfig
    evs: VehicleTable
    duration_s: float
    seed: Optional[int]
    provenance: Provenance

    def __post_init__(self) -> None:
        if not isinstance(self.evs, VehicleTable):
            raise TypeError(
                f"evs must be a VehicleTable (see VehicleTable.from_evs), got "
                f"{type(self.evs).__name__}"
            )
        _require_finite(self, "duration_s")
        if not self.duration_s >= 0:
            raise ValueError(f"duration_s must be >= 0, got {self.duration_s}")
        self.evs.validate_against(self.cfg, self.duration_s)


def generate(cfg: ErConfig, spec: TrafficSpec, seed: int) -> Scenario:
    """Homogeneous-Poisson scenario: exponential gaps, class by probability,
    speed by class, demand by the class distribution.  Same seed, same
    scenario.

    Each vehicle takes one gap, one class and one demand draw, in that
    order, each as the argument-checked ``Generator`` call would make it
    but without its checks:

    * the gap is ``scale * standard_exponential()``, which is what
      ``exponential(scale)`` computes;
    * the class is the first index whose normalized cumulative
      probability exceeds one ``random()`` draw, which is what
      ``choice(len(classes), p=probs)`` computes for one draw;
    * the demand is :func:`~dwptload.fleet._draw_demand`'s form of
      ``uniform(lo, hi)``.

    The loop keeps plain floats and class indices, with each class's
    demand bounds checked and computed once, and builds the table.
    """
    bounds = _class_bounds(cfg, spec.classes)
    rng = np.random.default_rng(seed)
    gap, random = rng.standard_exponential, rng.random
    cdf = np.cumsum([c.prob for c in spec.classes])
    cdf = (cdf / cdf[-1]).tolist()
    entries: list[float] = []
    kinds: list[int] = []
    demands: list[float] = []
    t, horizon = 0.0, spec.duration_s
    scale = 1.0 / spec.rate_evps if spec.rate_evps > 0 else 0.0
    while scale > 0:
        t += scale * gap()
        if t >= horizon:
            break
        k = bisect.bisect_right(cdf, random())
        entries.append(t)
        kinds.append(k)
        demands.append(_draw_demand(random, *bounds[k]))
    return Scenario(
        cfg=cfg,
        evs=VehicleTable.from_classes(spec.classes, kinds, entries, demands),
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
    k_max = max_covering_periods(cfg, speed_mps, window)
    if k_max < 0:
        raise ValueError(
            "cannot place a covering vehicle: window too long for the "
            "segment dwell or window start too early"
        )
    if not 0 <= u_phase < 1:
        raise ValueError(f"u_phase must be in [0, 1), got {u_phase}")
    if not 0 <= k_periods <= k_max:
        raise ValueError(f"k_periods must be in [0, {k_max}], got {k_periods}")
    return window[0] - (u_phase + k_periods) * (cfg.period_m / speed_mps)


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
    classes = tuple(c for c, _ in counts)
    bounds = _class_bounds(cfg, classes)
    rng = np.random.default_rng(seed)
    entries: list[float] = []
    kinds: list[int] = []
    demands: list[float] = []
    for g, (c, count) in enumerate(counts):
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        k_max = max_covering_periods(cfg, c.speed_mps, window)
        for _ in range(count):
            u = float(rng.random())
            k = int(rng.integers(0, k_max + 1)) if k_max > 0 else 0
            entries.append(covering_entry_time(cfg, c.speed_mps, window, u, k))
            kinds.append(g)
            demands.append(_draw_demand(rng.random, *bounds[g]))
    spec = TrafficSpec(
        rate_evps=0.0 if not kinds else len(kinds) / window[1],
        duration_s=window[1],
        classes=classes,
    )
    return Scenario(
        cfg=cfg,
        evs=VehicleTable.from_classes(classes, kinds, entries, demands),
        duration_s=window[1],
        seed=seed,
        provenance=Synthetic(spec),
    )


# --- CSV trajectory files -------------------------------------------------


class IngestError(ValueError):
    """A trajectory file failed to parse or validate."""


def _csv_field(class_id: Optional[str]) -> str:
    """A class id quoted as ``csv`` quotes it; an absent id is empty."""
    if class_id is None:
        return ""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([class_id])
    return buf.getvalue()[:-1]


def write_scenario_csv(scenario: Scenario, path: str) -> None:
    """Write the vehicle list in the trajectory CSV format (UTF-8, LF).

    Floats are written in shortest round-trip form and class ids are
    quoted as ``csv`` quotes them, so reading the file back reproduces the
    scenario exactly.  The file is written column by column, each distinct
    value of a column formatted once.
    """
    evs = scenario.evs
    columns = [float_texts(getattr(evs, name)) for name in CSV_FIELDS]
    fields = CSV_FIELDS
    if any(c is not None for c in evs.class_id):
        fields = COLUMNS
        quoted = {c: _csv_field(c) for c in set(evs.class_id)}
        columns.append(list(map(quoted.__getitem__, evs.class_id)))
    lines = [",".join(fields), *map(",".join, zip(*columns))]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _check_line(path: str, lineno: int, row: list[str], n_fields: int, cfg: ErConfig) -> None:
    """Raise the ``file:line:`` diagnostic of one trajectory row, if any.

    The checks run in order: field count, numbers, entry time, the vehicle
    (``EvParams`` and ``validate_against``), and a finite horizon.
    """
    where = f"{path}:{lineno}"
    if len(row) != n_fields:
        raise IngestError(f"{where}: expected {n_fields} fields, got {len(row)}")
    try:
        entry, speed, rx_len, demand = (float(v) for v in row[:4])
    except ValueError as exc:
        raise IngestError(f"{where}: {exc}") from exc
    class_id = (row[4].strip() or None) if n_fields == 5 else None
    if not entry >= 0:
        raise IngestError(f"{where}: entry_time_s must be >= 0, got {entry}")
    try:
        ev = EvParams(rx_len, demand, speed, entry, class_id)
        ev.validate_against(cfg)
    except ValueError as exc:
        raise IngestError(f"{where}: {exc}") from exc
    end = max(entry + 1.0, entry + ev.dwell_s(cfg))
    if not (math.isfinite(end) and end > entry):
        raise IngestError(
            f"{where}: no finite horizon after entry_time_s {entry} at speed_mps {speed}"
        )


def _columns(rows: list[list[str]], n_fields: int):
    """The numeric columns and the class ids of the rows, or None if a
    row has the wrong field count or a number that does not parse."""
    if set(map(len, rows)) - {n_fields}:
        return None
    cols = list(zip(*rows)) or [()] * n_fields
    try:
        numbers = [np.fromiter(map(float, col), float, len(col)) for col in cols[:4]]
    except ValueError:
        return None
    if n_fields == 5:
        ids = {raw: raw.strip() or None for raw in set(cols[4])}
        class_id = tuple(map(ids.__getitem__, cols[4]))
    else:
        class_id = (None,) * len(rows)
    return (*numbers, class_id)


def ingest(path: str, cfg: ErConfig) -> Scenario:
    """Read a trajectory CSV into a scenario.

    The file is UTF-8 text with any line ending.  Lines starting with
    ``#`` and blank lines are skipped.  The first content line must be the
    header.  Any malformed or invalid row, or a byte that is not UTF-8,
    aborts the ingest with a diagnostic naming the offending line.

    The content lines are parsed in one ``csv.reader`` pass, converted
    column by column and checked on arrays.  Only when that rejects the
    file are rows checked one at a time, to name the first bad line.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = f.readlines()
    except UnicodeDecodeError:
        # Name the first bad byte, a surrogate escape in U+DC80..U+DCFF here,
        # at its line as text mode counts lines: ended by \n, \r or \r\n.
        with open(path, "rb") as f:
            text = f.read().decode("utf-8", "surrogateescape")
        i = re.search("[\udc80-\udcff]", text).start()
        lineno = text.count("\n", 0, i) + text.count("\r", 0, i) - text.count("\r\n", 0, i) + 1
        bad = ord(text[i]) - 0xDC00
        raise IngestError(f"{path}:{lineno}: byte 0x{bad:02x} is not UTF-8") from None
    numbered = [(i, line) for i, line in enumerate(raw, 1) if line.lstrip()[:1] not in ("", "#")]
    if not numbered:
        raise IngestError(f"{path}: no header row found")
    linenos, lines = zip(*numbered)
    # The list of all lines and the (number, line) pairs take ~80 B a
    # line beyond the lines; dropped here, they add nothing to the parse's
    # peak memory.
    del raw, numbered
    rows = list(csv.reader(lines))
    if len(rows) != len(lines):  # a quoted field ran past its line's end
        rows = [next(csv.reader([line])) for line in lines]
    header = [h.strip() for h in rows[0]]
    if tuple(header[:4]) != CSV_FIELDS or len(header) > 5 or (
        len(header) == 5 and header[4] != "class_id"
    ):
        raise IngestError(
            f"{path}:{linenos[0]}: bad header {header!r}; expected "
            f"{','.join(CSV_FIELDS)}[,class_id]"
        )
    body, linenos = rows[1:], linenos[1:]
    columns = _columns(body, len(header))
    if columns is None:
        # Some row has the wrong field count or a number that does not
        # parse, so the scan below raises at that row at the latest.
        suspects = range(len(body))
    else:
        entry, speed, rx, demand, class_id = columns
        with np.errstate(all="ignore"):
            end = np.maximum(entry + 1.0, entry + cfg.energized_len_m / speed)
            bad = ~(entry >= 0) | ~(np.isfinite(end) & (end > entry))
        bad |= _rejected(entry, speed, rx, demand, class_id)
        bad |= _undeliverable(cfg, rx, demand)
        suspects = np.flatnonzero(bad)
    for k in suspects:
        _check_line(path, linenos[k], body[k], len(header), cfg)
    return Scenario(
        cfg=cfg,
        evs=VehicleTable(entry, speed, rx, demand, class_id),
        duration_s=float(end.max()) if len(end) else 0.0,
        seed=None,
        provenance=IngestedFile(path),
    )


# --- JSON serialization ---------------------------------------------------


def scenario_to_json(scenario: Scenario) -> str:
    return dumps(scenario)


def scenario_from_json(text: str) -> Scenario:
    """The scenario of a JSON document, less the ``meta`` the CLI writes."""
    doc = json.loads(text)
    if isinstance(doc, dict) and isinstance(doc.get("meta"), dict):
        del doc["meta"]
    return from_dict(Scenario, doc, "scenario")
