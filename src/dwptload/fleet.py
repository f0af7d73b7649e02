"""Stochastic fleet model of the aggregate roadway load.

A fleet is a mixture of vehicle classes (receiver length, probability,
demand distribution) sharing one speed.  With entry times independent and
uniform over the horizon, the aggregate load is wide-sense stationary and
its spectrum is a line spectrum at multiples of the common fundamental:
the DC line carries ``N^2 (E[c_0])^2`` and each harmonic line carries
``N E[c_m^2]``, which is what this module computes, along with the
aggregate total harmonic content and the truck/sedan composition analysis
built on the first harmonic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence, Union

import numpy as np

from .roadway import ErConfig, EvParams, _check_deliverable, _require_class_id, _require_finite
from .spectrum import fs_harmonic_grid, harmonic_count_for_dc


@dataclass(frozen=True)
class MaxDemand:
    """Every vehicle of the class demands the full deliverable power."""

    kind: ClassVar[str] = "max"


@dataclass(frozen=True)
class UniformOnRange:
    """Demand uniform over the whole ripple-producing range: from the
    constant-load threshold (or zero for short receivers) up to full power."""

    kind: ClassVar[str] = "uniform_range"


@dataclass(frozen=True)
class UniformExplicit:
    """Demand uniform over an explicit [lo_kw, hi_kw] interval."""

    kind: ClassVar[str] = "uniform"
    lo_kw: float
    hi_kw: float

    def __post_init__(self) -> None:
        _require_finite(self, "lo_kw", "hi_kw")
        if not 0 <= self.lo_kw <= self.hi_kw:
            raise ValueError(
                f"need 0 <= lo_kw <= hi_kw, got ({self.lo_kw}, {self.hi_kw})"
            )


DemandDist = Union[MaxDemand, UniformOnRange, UniformExplicit]

#: Metadata of a ``DemandDist`` field: documents store it under "demand".
DEMAND_KEY = {"key": "demand"}


def demand_bounds(dist: DemandDist, cfg: ErConfig, rx_len_m: float) -> tuple[float, float]:
    """Support [lo, hi] of a demand distribution for the given receiver."""
    full = cfg.full_kw(rx_len_m)
    if isinstance(dist, MaxDemand):
        return full, full
    if isinstance(dist, UniformOnRange):
        return cfg.floor_kw(rx_len_m), full
    return dist.lo_kw, dist.hi_kw


def _class_bounds(cfg: ErConfig, classes: Sequence) -> list[tuple[float, float]]:
    """The demand bounds of each class, or ``class[g]: ...`` for the first
    whose receiver or top demand the roadway cannot serve."""
    bounds = [demand_bounds(c.demand_dist, cfg, c.rx_len_m) for c in classes]
    for g, (c, (_, hi)) in enumerate(zip(classes, bounds)):
        try:
            _check_deliverable(cfg, c.rx_len_m, hi)
        except ValueError as exc:
            raise ValueError(f"class[{g}]: {exc}") from None
    return bounds


def sample_demand(
    dist: DemandDist, rng: np.random.Generator, cfg: ErConfig, rx_len_m: float
) -> float:
    return _draw_demand(rng.random, *demand_bounds(dist, cfg, rx_len_m))


def _draw_demand(random: Callable[[], float], lo: float, hi: float) -> float:
    """One uniform demand on [lo, hi] from a ``Generator.random`` draw, as
    ``Generator.uniform(lo, hi)`` computes it, without its argument
    checks; a point support takes no draw."""
    if hi == lo:
        return hi
    return lo + (hi - lo) * random()


@dataclass(frozen=True)
class EvClass:
    rx_len_m: float
    prob: float
    demand_dist: DemandDist
    class_id: Optional[str] = None

    def __post_init__(self) -> None:
        _require_finite(self, "rx_len_m", "prob")
        if not self.rx_len_m > 0:
            raise ValueError(f"rx_len_m must be > 0, got {self.rx_len_m}")
        if not 0 <= self.prob <= 1:
            raise ValueError(f"prob must be in [0, 1], got {self.prob}")
        _require_class_id(self.class_id)


@dataclass(frozen=True)
class FleetModel:
    """Mixture of vehicle classes sharing one constant speed."""

    cfg: ErConfig
    classes: tuple[EvClass, ...]
    n_evs: int
    speed_mps: float

    def __post_init__(self) -> None:
        _require_finite(self, "speed_mps")
        if len(self.classes) < 1:
            raise ValueError("need at least one class")
        total = sum(c.prob for c in self.classes)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"class probabilities must sum to 1, got {total}")
        if self.n_evs < 1:
            raise ValueError(f"n_evs must be >= 1, got {self.n_evs}")
        if not self.speed_mps > 0:
            raise ValueError(f"speed_mps must be > 0, got {self.speed_mps}")
        _class_bounds(self.cfg, self.classes)

    @property
    def fundamental_hz(self) -> float:
        return self.speed_mps / self.cfg.period_m

    def member(self, class_index: int, demand_kw: float, entry_time_s: float = 0.0) -> EvParams:
        c = self.classes[class_index]
        return EvParams(
            rx_len_m=c.rx_len_m,
            peak_demand_kw=demand_kw,
            speed_mps=self.speed_mps,
            entry_time_s=entry_time_s,
            class_id=c.class_id,
        )


#: Positive nodes and their weights of 12-point Gauss-Legendre on [-1, 1], as
#: ``np.polynomial.legendre.leggauss(12)`` gives them; importing and first
#: calling it takes ~1.8 MB of resident memory.
_GAUSS_X = np.array([0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                     0.7699026741943047, 0.9041172563704748, 0.9815606342467192])
_GAUSS_W = np.array([0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                     0.16007832854334642, 0.10693932599531907, 0.04717533638651141])


def _gauss_panels(lo: float, hi: float, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (summing to ``hi - lo``) of 12-point Gauss-Legendre on
    the fewest equal panels of [lo, hi] no wider than ``width``: exact to
    rounding for a polynomial of degree 23, or a trigonometric one of period
    ``width``."""
    gx, gw = np.r_[-_GAUSS_X[::-1], _GAUSS_X], np.r_[_GAUSS_W[::-1], _GAUSS_W]
    edges = np.linspace(lo, hi, max(1, int(np.ceil((hi - lo) / width))) + 1)
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half * (1.0 + gx)).ravel(), (half * gw).ravel()


def class_moments(model: FleetModel, class_index: int, m) -> tuple[float, np.ndarray | float]:
    """(E[c_0 | class], E[c_m^2 | class]) over the class demand distribution,
    for an int ``m`` (two floats) or an int array of them (E[c_m^2] of its
    shape): weighted sums over demand nodes of one :func:`fs_harmonic_grid`
    call.  A point mass is one node.  A uniform demand takes
    :func:`_gauss_panels` on one panel below the constant-load threshold
    :meth:`ErConfig.floor_kw` (c_0 = demand, no harmonics) and above it on
    panels of at most ``alpha D / (2 M)``, a period of c_M^2 for the largest
    M of ``m``, where c_0 is quadratic and c_m^2 a trigonometric polynomial
    in the demand: the moments are exact to the rounding of c_m itself.
    """
    ma = np.asarray(m)
    if np.any(ma < 0):
        raise ValueError(f"m must be >= 0, got {m}")
    c, cfg = model.classes[class_index], model.cfg
    lo, hi = demand_bounds(c.demand_dist, cfg, c.rx_len_m)
    th = min(max(cfg.floor_kw(c.rx_len_m), lo), hi)
    width = cfg.power_density_kw_per_m * cfg.period_m / (2 * max(ma.max(initial=0), 1))
    parts = [
        _gauss_panels(x0, x1, w) for x0, x1, w in ((lo, th, np.inf), (th, hi, width)) if x1 > x0
    ] or [(np.array([hi]), np.ones(1))]
    nodes, weights = (np.concatenate(x) for x in zip(*parts))
    weights /= weights.sum()
    coeffs = fs_harmonic_grid(cfg, c.rx_len_m, nodes, np.append(0, ma))
    e_cm2 = weights @ np.square(coeffs[:, 1:], out=coeffs[:, 1:])
    return float(weights @ coeffs[:, 0]), e_cm2.reshape(ma.shape) if ma.ndim else float(e_cm2[0])


def mixture_moments(model: FleetModel, m) -> tuple[float, np.ndarray | float]:
    """(E[c_0], E[c_m^2]) over both class membership and demand, for an
    int ``m`` or an int array of them (see :func:`class_moments`)."""
    e0 = e2 = 0.0
    for g, c in enumerate(model.classes):
        if c.prob == 0:
            continue
        m0, m2 = class_moments(model, g, m)
        e0 += c.prob * m0
        e2 = e2 + c.prob * m2
    return e0, e2


@dataclass(frozen=True)
class PsdModel:
    """Analytical line spectrum of the aggregate load.

    ``dc_power_sq`` is the power of the DC line, ``harmonic_powers[k]``
    the power of the line at ``(k+1) * fundamental_hz``; both in kW^2.
    """

    dc_power_sq: float
    harmonic_powers: tuple[float, ...]
    fundamental_hz: float
    n_evs: int

    @property
    def mean_kw(self) -> float:
        return float(np.sqrt(self.dc_power_sq))

    @property
    def truncation_m(self) -> int:
        return len(self.harmonic_powers)

    def autocorrelation(self, tau) -> np.ndarray | float:
        """Autocorrelation of the aggregate load at lag ``tau`` seconds."""
        ta = np.asarray(tau, dtype=float)
        w0 = 2.0 * np.pi * self.fundamental_hz
        powers = np.asarray(self.harmonic_powers)
        m = np.arange(1, powers.size + 1)
        out = self.dc_power_sq + 2.0 * np.sum(
            powers * np.cos(np.multiply.outer(ta, m) * w0), axis=-1
        )
        return out if np.ndim(tau) else float(out)


def _harmonic_moments(model: FleetModel, n_harmonics: int | None) -> tuple[float, np.ndarray]:
    """(E[c_0], E[c_m^2] for m = 1..M), with M from the tail rule, at most
    ``spectrum.MAX_HARMONICS``, unless ``n_harmonics`` gives it; a given M
    must be at least 1."""
    if n_harmonics is not None and n_harmonics < 1:
        raise ValueError(f"n_harmonics must be >= 1, got {n_harmonics}")
    if n_harmonics is None:
        e0, _ = mixture_moments(model, 0)
        n_harmonics = harmonic_count_for_dc(model.cfg, e0)
    return mixture_moments(model, np.arange(1, n_harmonics + 1))


def analytic_psd(model: FleetModel, n_harmonics: int | None = None) -> PsdModel:
    """Line spectrum of the aggregate load under uniform random entry times.

    Assumes the N entry times are i.i.d. uniform over the horizon, which
    makes the aggregate wide-sense stationary: the DC line carries
    ``N^2 (E[c_0])^2`` and the line at each harmonic carries ``N E[c_m^2]``.
    """
    e0, e2 = _harmonic_moments(model, n_harmonics)
    return PsdModel(
        dc_power_sq=(model.n_evs * e0) ** 2,
        harmonic_powers=tuple((model.n_evs * e2).tolist()),
        fundamental_hz=model.fundamental_hz,
        n_evs=model.n_evs,
    )


def thc_total(model: FleetModel, n_harmonics: int | None = None) -> float:
    """Total harmonic content of the aggregate load, in percent.

    Equals ``100 sqrt(2 sum_m E[c_m^2] / (N (E[c_0])^2))``; for a fixed
    mixture it decays as ``1/sqrt(N)``.
    """
    e0, e2 = _harmonic_moments(model, n_harmonics)
    if e0 <= 0:
        raise ValueError("aggregate mean load is zero; THC undefined")
    return 100.0 * float(np.sqrt(2.0 * e2.sum() / (model.n_evs * e0 * e0)))


# --- Fleet-composition analysis (long vs short receivers) -----------------


def _check_pair(cfg: ErConfig, l_a: float, l_b: float) -> None:
    if not 0 < l_b <= l_a < cfg.period_m:
        raise ValueError(
            f"need 0 < l_b <= l_a < period ({cfg.period_m}), got "
            f"l_a={l_a}, l_b={l_b}"
        )


def composition_condition(cfg: ErConfig, l_a: float, l_b: float) -> bool:
    """Whether raising the share of long receivers lowers aggregate THC.

    True iff ``l_a sin^2(pi l_b / D) > l_b sin^2(pi l_a / D)`` — the
    first-harmonic criterion for mean-matched fleets.  Equivalently, the
    short-receiver class has the larger ratio (c_1)^2 / c_0.
    """
    _check_pair(cfg, l_a, l_b)
    d_per = cfg.period_m
    return bool(
        l_a * np.sin(np.pi * l_b / d_per) ** 2
        > l_b * np.sin(np.pi * l_a / d_per) ** 2
    )


def composition_boundary(cfg: ErConfig, l_a: float) -> Optional[float]:
    """Short-receiver length where the composition verdict flips, if any.

    Scans (0, l_a) for a sign change of the criterion margin and refines it
    by bisection to 1e-9 m, in the steps of ``scipy.optimize.bisect`` with
    ``xtol=1e-9``.  Returns None when the verdict never flips (which
    is the case for l_a below the ratio-curve peak).
    """
    if not 0 < l_a < cfg.period_m:
        raise ValueError(f"need 0 < l_a < period, got {l_a}")
    d_per = cfg.period_m
    s_a = np.sin(np.pi * l_a / d_per) ** 2

    def margin(l_b):
        return l_a * np.sin(np.pi * l_b / d_per) ** 2 - l_b * s_a

    # The margin vanishes trivially at both endpoints; scan the interior.
    grid = np.linspace(1e-9 * l_a, l_a * (1 - 1e-9), 4097)
    sign_change = np.nonzero(np.diff(np.sign(margin(grid))) != 0)[0]
    if sign_change.size == 0:
        return None
    i = sign_change[0]
    lo, step, f_lo = grid[i], grid[i + 1] - grid[i], margin(grid[i])
    while True:
        step *= 0.5
        mid = lo + step
        f_mid = margin(mid)
        if f_mid * f_lo >= 0:
            lo = mid
        if f_mid == 0 or step < 1e-9 + 4 * np.finfo(float).eps * abs(mid):
            return float(mid)


def q_ratio(
    cfg: ErConfig,
    l_a: float,
    l_b: float,
    *,
    theta1: float,
    theta2: float,
    n2: float,
    n1: Optional[float] = None,
) -> float:
    """First-harmonic power ratio between two fleet compositions.

    Scenario i mixes full-demand long (share ``theta_i``) and short
    receivers; the ratio compares their aggregate first-harmonic powers.
    When ``n1`` is omitted it is chosen so both scenarios draw the same
    mean power (counts are left fractional here; rounding to whole
    vehicles is a concern for scenario generation, not analysis).
    Q < 1 means scenario 1 has the lower aggregate THC under the
    first-harmonic approximation.
    """
    _check_pair(cfg, l_a, l_b)
    for theta in (theta1, theta2):
        if not 0 <= theta <= 1:
            raise ValueError(f"theta must be in [0, 1], got {theta}")
    if not n2 > 0:
        raise ValueError(f"n2 must be > 0, got {n2}")
    if not l_a < cfg.tx_len_m:
        raise ValueError(f"rx_len_m must be < tx_len_m ({cfg.tx_len_m}), got {l_a}")
    # c_0 and c_1 of each receiver at full demand.
    (c0_a, c1_a), (c0_b, c1_b) = (
        fs_harmonic_grid(cfg, l, cfg.full_kw(l), np.arange(2)).tolist() for l in (l_a, l_b)
    )
    h_a, h_b = c1_a * c1_a, c1_b * c1_b
    if n1 is None:
        mean1 = theta1 * c0_a + (1 - theta1) * c0_b
        mean2 = theta2 * c0_a + (1 - theta2) * c0_b
        n1 = n2 * mean2 / mean1
    num = n1 * (theta1 * h_a + (1 - theta1) * h_b)
    den = n2 * (theta2 * h_a + (1 - theta2) * h_b)
    if den == 0 or num == 0:
        raise ValueError("a scenario has zero first-harmonic power")
    return float(num / den)
