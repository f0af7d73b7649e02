"""Roadway geometry and per-vehicle load waveforms.

An electrified roadway (ER) segment is a periodic array of transmitter
coils of length ``tx_len_m`` separated by gaps of ``gap_m``; a vehicle
receiver coil of length ``rx_len_m`` sliding over the array draws power
proportional to the instantaneous coil overlap, capped at the vehicle's
peak demand.  The resulting load, as a function of receiver position, is
a periodic clipped-trapezoid pulse train.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

#: The ``clip`` ufunc that :func:`numpy.clip` wraps.  Called bare, it
#: skips the wrapper's argument handling, a few microseconds per call.
try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip


class ConstantRegimeError(ValueError):
    """Raised when a pulse-train quantity is requested for a demand so low
    that the load never varies (no ripple, no harmonics)."""


def _require_finite(obj: object, *names: str) -> None:
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _class_id_ok(class_id: object) -> bool:
    """A class id is absent, or a non-empty string that a trajectory CSV
    gives back unchanged: no surrounding whitespace and no line break."""
    if class_id is None:
        return True
    return (
        isinstance(class_id, str)
        and class_id != ""
        and class_id == class_id.strip()
        and "\n" not in class_id
        and "\r" not in class_id
    )


def _require_class_id(class_id: object) -> None:
    if not _class_id_ok(class_id):
        raise ValueError(
            "class_id must be a non-empty string without surrounding whitespace "
            f"or line breaks, got {class_id!r}"
        )


@dataclass(frozen=True)
class ErConfig:
    """Electrified-roadway segment parameters."""

    tx_len_m: float  # transmitter coil length
    gap_m: float  # inter-coil gap
    power_density_kw_per_m: float  # deliverable power per meter of overlap
    segment_len_m: float  # total energized segment length

    def __post_init__(self) -> None:
        _require_finite(
            self, "tx_len_m", "gap_m", "power_density_kw_per_m", "segment_len_m"
        )
        if not self.tx_len_m > 0:
            raise ValueError(f"tx_len_m must be > 0, got {self.tx_len_m}")
        if not self.gap_m > 0:
            raise ValueError(f"gap_m must be > 0, got {self.gap_m}")
        if not self.power_density_kw_per_m > 0:
            raise ValueError(
                f"power_density_kw_per_m must be > 0, got {self.power_density_kw_per_m}"
            )
        if not self.segment_len_m >= self.tx_len_m + self.gap_m:
            raise ValueError(
                "segment_len_m must cover at least one coil period "
                f"({self.tx_len_m + self.gap_m} m), got {self.segment_len_m}"
            )

    @property
    def period_m(self) -> float:
        """Spatial period of the coil array (coil + gap)."""
        return self.tx_len_m + self.gap_m

    @property
    def n_coils(self) -> int:
        """Number of whole coil periods in the segment."""
        return int(np.floor(self.segment_len_m / self.period_m))

    @property
    def energized_len_m(self) -> float:
        """Length of the segment actually spanned by whole coil periods."""
        return self.n_coils * self.period_m

    def full_kw(self, rx_len_m):
        """Power at full overlap, ``alpha * rx_len``: the most a receiver
        draws.  Both levels give a float for a float, an array for an array."""
        return self.power_density_kw_per_m * rx_len_m

    def floor_kw(self, rx_len_m):
        """Power across a gap, ``alpha * max(rx_len - gap, 0)``: a demand at
        or below it makes the load constant."""
        over = rx_len_m - self.gap_m
        over = np.maximum(over, 0.0) if np.ndim(over) else max(over, 0.0)
        return self.power_density_kw_per_m * over


#: Test-track parameters used as defaults throughout (4.57 m period,
#: 109.36 kW/m): a 3.66 m coil, 0.91 m gap arrangement.
INDOT = ErConfig(
    tx_len_m=3.66,
    gap_m=0.91,
    power_density_kw_per_m=109.36,
    segment_len_m=4000.0,
)


def _check_deliverable(cfg: ErConfig, rx_len_m: float, peak_demand_kw: float) -> None:
    """The checks of ``EvParams.validate_against``, on plain numbers."""
    if not rx_len_m < cfg.tx_len_m:
        raise ValueError(f"rx_len_m must be < tx_len_m ({cfg.tx_len_m}), got {rx_len_m}")
    max_kw = cfg.full_kw(rx_len_m)
    if peak_demand_kw > max_kw * (1 + 1e-12):
        raise ValueError(
            f"peak_demand_kw {peak_demand_kw} exceeds deliverable "
            f"maximum {max_kw:.4f} for rx_len_m={rx_len_m}"
        )


@dataclass(frozen=True)
class EvParams:
    """A single vehicle on the roadway.

    ``rx_len_m`` may be shorter than the coil gap, in which case the
    receiver is periodically fully inside a gap and the load dips to
    exactly zero there.
    """

    rx_len_m: float
    peak_demand_kw: float
    speed_mps: float
    entry_time_s: float = 0.0
    class_id: Optional[str] = None

    def __post_init__(self) -> None:
        _require_finite(self, "rx_len_m", "peak_demand_kw", "speed_mps", "entry_time_s")
        if not self.rx_len_m > 0:
            raise ValueError(f"rx_len_m must be > 0, got {self.rx_len_m}")
        if not self.peak_demand_kw >= 0:
            raise ValueError(f"peak_demand_kw must be >= 0, got {self.peak_demand_kw}")
        if not self.speed_mps > 0:
            raise ValueError(f"speed_mps must be > 0, got {self.speed_mps}")
        _require_class_id(self.class_id)

    def validate_against(self, cfg: ErConfig) -> None:
        """Check the cross-constraints that involve roadway geometry."""
        _check_deliverable(cfg, self.rx_len_m, self.peak_demand_kw)

    def period_s(self, cfg: ErConfig) -> float:
        """Fundamental period of the load seen by this vehicle."""
        return cfg.period_m / self.speed_mps

    def fundamental_hz(self, cfg: ErConfig) -> float:
        return self.speed_mps / cfg.period_m

    def omega0(self, cfg: ErConfig) -> float:
        """Fundamental angular frequency (rad/s)."""
        return 2.0 * np.pi * self.speed_mps / cfg.period_m

    def dwell_s(self, cfg: ErConfig) -> float:
        """Time the vehicle spends on the energized segment."""
        return cfg.energized_len_m / self.speed_mps


@dataclass(frozen=True)
class Clipping:
    """Power-limit control: the converter caps delivery at peak demand."""


@dataclass(frozen=True)
class Scaling:
    """Proportional control: delivery is the max-overlap waveform times a
    constant factor in (0, 1]."""

    scale_factor: float

    def __post_init__(self) -> None:
        if not 0 < self.scale_factor <= 1:
            raise ValueError(
                f"scale_factor must be in (0, 1], got {self.scale_factor}"
            )


ControlScheme = Union[Clipping, Scaling]


def constant_regime(cfg: ErConfig, ev: EvParams) -> bool:
    """True when demand is low enough that the clipped load never varies:
    peak demand does not exceed :meth:`ErConfig.floor_kw`, the power at the
    minimum-overlap position.  For receivers not longer than the gap that
    power is zero, so only a zero demand is constant.
    """
    return ev.peak_demand_kw <= cfg.floor_kw(ev.rx_len_m)


def _pulse_constants(cfg: ErConfig, rx_len_m, demand_kw):
    """The operands of :func:`_pulse` after its three arrays, for receivers
    of length ``rx_len_m`` drawing ``demand_kw``: ``1/D``, ``alpha D``,
    ``alpha (tx_len + rx_len)``, :meth:`ErConfig.floor_kw` and the
    demand.  ``rx_len_m`` and ``demand_kw`` may be arrays, one entry per
    vehicle, which gives each operand bit for bit as for one vehicle."""
    alpha = cfg.power_density_kw_per_m
    period = cfg.period_m
    return (
        1.0 / period,
        alpha * period,
        alpha * (cfg.tx_len_m + rx_len_m),
        cfg.floor_kw(rx_len_m),
        demand_kw,
    )


def _pulse_kinks(cfg: ErConfig, rx_len_m, demand_kw):
    """Where the pulse of :func:`_pulse` bends within a coil period, and
    its base level: ``(offsets, base_kw)``.

    From the coil start the load holds ``base_kw``, ramps up at alpha kW
    per metre from ``offsets[..., 0]`` (``max(rx_len - gap, 0)``) to the
    demand at ``offsets[..., 1]`` (``demand / alpha``), holds it to
    ``offsets[..., 2]`` (``tx_len + rx_len - demand / alpha``), ramps down
    to ``base_kw`` at ``offsets[..., 3]`` (``min(tx_len + rx_len, D)``)
    and holds that to the period's end.  The base is
    :meth:`ErConfig.floor_kw`, or the demand where it is not above the
    floor: that is the constant regime, whose load is its base everywhere
    and whose offsets mean nothing.  ``rx_len_m`` and ``demand_kw`` may be
    arrays, one entry per vehicle; the offsets then have a last axis of 4.
    """
    alpha = cfg.power_density_kw_per_m
    end = cfg.tx_len_m + rx_len_m
    ramp = demand_kw / alpha
    offsets = np.stack(
        np.broadcast_arrays(
            np.maximum(rx_len_m - cfg.gap_m, 0.0), ramp, end - ramp, np.minimum(end, cfg.period_m)
        ),
        axis=-1,
    )
    return offsets, np.minimum(cfg.floor_kw(rx_len_m), demand_kw)


def _pulse(
    x: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
    inv_period: float,
    alpha_period: float,
    span_kw: float,
    floor_kw: float,
    demand_kw: float,
) -> np.ndarray:
    """The clipped-trapezoid pulse at segment positions ``x``, with no
    on-segment mask, written into ``out`` and returned: the one pulse
    kernel, which every route to a load calls.

    The phase in periods is ``u = x * (1/D)`` and the in-period position,
    in kW of overlap, ``z = (u - floor(u)) * alpha D``.  The overlap ramps
    up from the coil start and down to the end of the span
    ``tx_len + rx_len``, ``min(z, alpha (tx_len + rx_len) - z)``; it never
    falls below the minimum overlap ``rx_len - gap`` (zero for receivers
    not longer than the gap) and the converter caps it at the demand.  The
    clip bounds are in kW, so a demand at or below the minimum-overlap
    power gives the demand itself everywhere (the constant-load regime) and
    a short receiver dips to exactly 0.  The phase may round up to a whole
    period, where the continuous, periodic pulse takes its value at 0.
    The operands after the arrays come from :func:`_pulse_constants`.

    ``out`` and ``scratch`` are float arrays of ``x``'s shape, and ``out``
    may be ``x`` itself.  Each of the seven steps is one ufunc call into
    them, with no divide, so a caller that reuses its buffers allocates
    nothing here.
    """
    np.multiply(x, inv_period, out=out)
    np.floor(out, out=scratch)
    np.subtract(out, scratch, out=out)
    np.multiply(out, alpha_period, out=out)
    np.subtract(span_kw, out, out=scratch)
    np.minimum(out, scratch, out=out)
    return _clip(out, floor_kw, demand_kw, out=out)


def coil_pulse(cfg: ErConfig, ev: EvParams, x) -> np.ndarray | float:
    """One period of the clipped load waveform at in-period position ``x``.

    Raises ConstantRegimeError when the demand is in the constant-load
    regime, and ValueError for positions outside [0, period).
    """
    ev.validate_against(cfg)
    if constant_regime(cfg, ev):
        raise ConstantRegimeError(
            "demand is in the constant-load regime; the load equals "
            f"peak_demand_kw={ev.peak_demand_kw} everywhere on the segment"
        )
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0) or np.any(xa >= cfg.period_m):
        raise ValueError(f"position must be in [0, {cfg.period_m}), got {x}")
    out = _pulse(
        xa, np.empty_like(xa), np.empty_like(xa),
        *_pulse_constants(cfg, ev.rx_len_m, ev.peak_demand_kw),
    )
    return out if np.ndim(x) else float(out)


def load_at_position(cfg: ErConfig, ev: EvParams, scheme: ControlScheme, x) -> np.ndarray | float:
    """Load drawn when the receiver front edge is at roadway position ``x``.

    Zero outside the energized span [0, n_coils * period).  Positions are
    relative to the vehicle's segment entry point.
    """
    ev.validate_against(cfg)
    xa = np.asarray(x, dtype=float)
    on = (xa >= 0) & (xa < cfg.energized_len_m)
    demand = cfg.full_kw(ev.rx_len_m) if isinstance(scheme, Scaling) else ev.peak_demand_kw
    vals = _pulse(
        xa, np.empty_like(xa), np.empty_like(xa), *_pulse_constants(cfg, ev.rx_len_m, demand)
    )
    if isinstance(scheme, Scaling):
        vals = scheme.scale_factor * vals
    out = np.where(on, vals, 0.0)
    return out if np.ndim(x) else float(out)


def load_at_time(cfg: ErConfig, ev: EvParams, scheme: ControlScheme, t) -> np.ndarray | float:
    """Load drawn at time ``t``; zero before entry and after segment exit."""
    ta = np.asarray(t, dtype=float)
    x = ev.speed_mps * (ta - ev.entry_time_s)
    # Positions before entry map to x < 0 which load_at_position zeroes out.
    out = load_at_position(cfg, ev, scheme, x)
    return out if np.ndim(t) else float(out)
