"""The benchmark's two workloads and the four parts they are made of.

A workload is a closed loop with one caller: the next study starts when
the previous one ends, and every study of a run uses the same inputs,
built from the run's seed.  One study runs the workload's parts in order:

* ``signal``: ``corridor`` then ``sweep``, the two uses of the sampled
  signal path;
* ``model_io``: ``ensemble`` then ``trajectory``, the analytic model and
  scenario I/O, which sample no waveform.

Two workloads rather than four, because the host's speed drifts over
tens of seconds: only runs of ~50 s damp that in the median, and four
workloads of that length do not fit the benchmark's time budget.

Each part, and each workload, provides

* ``prepare(seed, workdir)``: build the inputs (untimed);
* ``study(inputs)``: one study at the stated size, the timed part;
* ``read(inputs, raw)``: collect the study's outputs (untimed);
* ``check(inputs, out)``: a list of problems, empty when the output is right;
* ``summary(out)``: named numbers that ``reference.json`` pins for the
  benchmark's fixed seeds;
* ``digest(out)``: a hash of the whole numeric output, so any change shows.

``dwptload`` is imported inside the functions, never at module import:
the worker times that import as part of set-up, and the tracer rebinds
the package's functions, so every call goes through a module attribute.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

#: Corridor traffic: three classes at ~2 EV/s in total.
CORRIDOR_CLASSES = (
    {"rx_len_m": 1.83, "prob": 0.2, "speed_mps": 21.7,
     "demand": {"kind": "max"}, "class_id": "truck"},
    {"rx_len_m": 1.2, "prob": 0.5, "speed_mps": 29.0,
     "demand": {"kind": "uniform_range"}, "class_id": "sedan"},
    {"rx_len_m": 1.7, "prob": 0.3, "speed_mps": 26.8,
     "demand": {"kind": "max"}, "class_id": "suv"},
)
CORRIDOR_RATE_EVPS = 2.0
#: The corridor's traffic seed, the same for every run seed: Poisson
#: traffic of another seed has another vehicle count, so the study's size,
#: and with it study_s, would move with the run seed.
CORRIDOR_SEED = 0
CORRIDOR_DURATION_S = 150.0
CORRIDOR_SAMPLE_RATE_HZ = 1000.0

SWEEP_WINDOWS = 2

ENSEMBLE_N_EVS = 45
ENSEMBLE_SPEED_MPS = 24.6
#: Explicit truncation order.  The default for this fleet, M = 278, takes
#: ~14 s, too long for a study; 64 harmonics take about a second.  The
#: quadrature needs more points as m grows, so fs_harmonic evaluations
#: per harmonic are fewer here than at M = 278.
ENSEMBLE_HARMONICS = 64
ENSEMBLE_TRIALS = 10_000
#: Upper bound on any fleet member's c0: the truck's full demand, in kW.
ENSEMBLE_C0_BOUND_KW = 109.36 * 1.83
ENSEMBLE_M_MAX = 8
#: Largest |z| allowed between a Monte Carlo line and the analytic line.
ENSEMBLE_Z_MAX = 4.5

TRAJECTORY_RATE_EVPS = 20.0
TRAJECTORY_DURATION_S = 900.0

#: Relative tolerance against the recorded values.  It admits the moves
#: that a reformulation of the same model may make (3.2e-14 on the
#: closed-form moments, last-digit changes from summation order) and the
#: 10-significant-digit rounding of the CLI's CSV files, but not a wrong
#: harmonic, which changes a value at the percent level or more.
REFERENCE_RTOL = 1e-6
#: A Monte Carlo line is a mean of |sum_n c_mn e^{-2 pi i m u_n}|^2.  If a
#: new path moves every coefficient by up to this share of its DC term
#: (1.6e-9 c0 is the sampling error of the FFT path), the line power P
#: moves by at most 2 N eps c0 sqrt(P); the tolerance is ten times that.
MC_COEFF_EPS = 1.6e-9


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _data_lines(path: Path) -> list[str]:
    """Lines of a CLI CSV output without its ``# key=value`` header."""
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def _body(path: Path) -> dict:
    """A CLI JSON output without its run metadata."""
    doc = json.loads(path.read_text())
    doc.pop("meta", None)
    return doc


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


class Part:
    name = ""

    def tolerance(self, key: str, ref: float) -> float:
        """Largest admitted distance of summary value ``key`` from ``ref``."""
        return REFERENCE_RTOL * abs(ref)


# --- corridor: `dwptload psd` on a long three-class corridor ---------------


class Corridor(Part):
    name = "corridor"

    def prepare(self, seed: int, workdir: Path) -> dict:
        config = workdir / "corridor.json"
        config.write_text(json.dumps({
            "seed": CORRIDOR_SEED,
            "sample_rate_hz": CORRIDOR_SAMPLE_RATE_HZ,
            "duration_s": CORRIDOR_DURATION_S,
            "traffic": {
                "rate_evps": CORRIDOR_RATE_EVPS,
                "duration_s": CORRIDOR_DURATION_S,
                "classes": list(CORRIDOR_CLASSES),
            },
        }))
        return {"config": config, "out": workdir / "corridor-out"}

    def study(self, inputs: dict) -> int:
        from dwptload import cli

        return cli.main(["psd", "--config", str(inputs["config"]), "--out", str(inputs["out"])])

    def read(self, inputs: dict, raw: int) -> dict:
        out = inputs["out"]
        return {
            "exit": raw,
            "peaks": _body(out / "peaks.json"),
            "psd": _data_lines(out / "psd.csv"),
        }

    def check(self, inputs: dict, out: dict) -> list[str]:
        from dwptload import roadway

        if out["exit"] != 0:
            return [f"psd exited {out['exit']}"]
        peaks = out["peaks"]
        df = peaks["resolution_hz"]
        problems = []
        for c in CORRIDOR_CLASSES:
            f0 = c["speed_mps"] / roadway.INDOT.period_m
            firsts = [
                p for p in peaks["peaks"]
                if p["m"] == 1 and abs(p["fundamental_hz"] - f0) < 1e-9
            ]
            if len(firsts) != 1:
                problems.append(f"no m=1 peak for the {f0:.4f} Hz fundamental")
            elif abs(firsts[0]["freq_hz"] - f0) > df:
                problems.append(
                    f"m=1 peak of {f0:.4f} Hz found at {firsts[0]['freq_hz']} Hz, "
                    f"more than one {df} Hz bin away"
                )
        return problems

    def summary(self, out: dict) -> dict:
        values = {
            f"peak.f{p['fundamental_hz']:.4f}.m{p['m']}": p["line_power_kw2"]
            for p in out["peaks"]["peaks"]
        }
        rows = [ln.split(",") for ln in out["psd"][1:]]
        values["psd.sum_kw2_per_hz"] = math.fsum(float(r[1]) for r in rows)
        return values

    def digest(self, out: dict) -> str:
        return _sha256(_canonical(out["peaks"]), "\n".join(out["psd"]).encode())


# --- sweep: `dwptload composition` on the default 3x3 table ----------------


class Sweep(Part):
    name = "sweep"

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed, "out": workdir / "sweep-out"}

    def study(self, inputs: dict) -> int:
        from dwptload import cli

        return cli.main([
            "composition", "--seed", str(inputs["seed"]),
            "--trials", str(SWEEP_WINDOWS), "--out", str(inputs["out"]),
        ])

    def read(self, inputs: dict, raw: int) -> dict:
        lines = _data_lines(inputs["out"] / "thc_table.csv")
        return {"exit": raw, "table": lines}

    def check(self, inputs: dict, out: dict) -> list[str]:
        if out["exit"] != 0:
            return [f"composition exited {out['exit']}"]
        cells = [float(v) for ln in out["table"][1:] for v in ln.split(",")[1:]]
        if len(cells) != 9:
            return [f"expected a 3x3 THC table, got {len(cells)} cells"]
        bad = [v for v in cells if not (math.isfinite(v) and v > 0)]
        return [f"THC cells not finite and positive: {bad}"] if bad else []

    def summary(self, out: dict) -> dict:
        header = out["table"][0].split(",")
        values = {}
        for ln in out["table"][1:]:
            row = ln.split(",")
            for name, cell in zip(header[1:], row[1:]):
                values[f"theta{row[0]}.{name}"] = float(cell)
        return values

    def digest(self, out: dict) -> str:
        return _sha256("\n".join(out["table"]).encode())


# --- ensemble: analytic line spectrum checked by Monte Carlo --------------


class Ensemble(Part):
    name = "ensemble"

    def prepare(self, seed: int, workdir: Path) -> dict:
        from dwptload import fleet, roadway

        model = fleet.FleetModel(
            cfg=roadway.INDOT,
            classes=(
                fleet.EvClass(1.83, 0.2, fleet.MaxDemand(), "truck"),
                fleet.EvClass(1.2, 0.8, fleet.UniformOnRange(), "sedan"),
            ),
            n_evs=ENSEMBLE_N_EVS,
            speed_mps=ENSEMBLE_SPEED_MPS,
        )
        return {"seed": seed, "model": model}

    def study(self, inputs: dict):
        from dwptload import fleet, signals

        model = inputs["model"]
        return (
            fleet.analytic_psd(model, ENSEMBLE_HARMONICS),
            fleet.thc_total(model, ENSEMBLE_HARMONICS),
            signals.monte_carlo_psd(model, ENSEMBLE_TRIALS, inputs["seed"], ENSEMBLE_M_MAX),
        )

    def read(self, inputs: dict, raw) -> dict:
        psd, thc, mc = raw
        return {
            "dc_power_sq": psd.dc_power_sq,
            "harmonic_powers": list(psd.harmonic_powers),
            "thc_percent": thc,
            "mc_lines": mc.line_powers_kw2.tolist(),
            "mc_stderr": mc.stderr_kw2.tolist(),
        }

    def check(self, inputs: dict, out: dict) -> list[str]:
        problems = []
        thc = out["thc_percent"]
        if not (math.isfinite(thc) and thc > 0):
            problems.append(f"thc_total {thc} not finite and positive")
        # Harmonic lines only: the DC line of a mixed-demand fleet also
        # carries N Var(c0), which the analytic DC line leaves out.
        for m in range(1, ENSEMBLE_M_MAX + 1):
            ana = out["harmonic_powers"][m - 1]
            z = abs(out["mc_lines"][m] - ana) / out["mc_stderr"][m]
            if not z <= ENSEMBLE_Z_MAX:
                problems.append(f"Monte Carlo line m={m} is {z:.2f} stderr from analytic")
        return problems

    def summary(self, out: dict) -> dict:
        values = {
            "analytic.dc_power_sq": out["dc_power_sq"],
            "analytic.truncation_m": float(len(out["harmonic_powers"])),
            "analytic.sum_harmonic_powers": math.fsum(out["harmonic_powers"]),
            "thc_percent": out["thc_percent"],
        }
        for m in range(1, ENSEMBLE_M_MAX + 1):
            values[f"analytic.m{m}"] = out["harmonic_powers"][m - 1]
            values[f"mc.m{m}"] = out["mc_lines"][m]
        return values

    def tolerance(self, key: str, ref: float) -> float:
        tol = super().tolerance(key, ref)
        if key.startswith("mc."):
            tol += 10 * 2 * ENSEMBLE_N_EVS * MC_COEFF_EPS * ENSEMBLE_C0_BOUND_KW * math.sqrt(abs(ref))
        return tol

    def digest(self, out: dict) -> str:
        return _sha256(_canonical(out))


# --- trajectory: generate, write the CSV, ingest it through the CLI -------


class Trajectory(Part):
    name = "trajectory"

    @staticmethod
    def _spec():
        from dwptload import fleet, traffic

        demands = {"max": fleet.MaxDemand(), "uniform_range": fleet.UniformOnRange()}
        return traffic.TrafficSpec(
            rate_evps=TRAJECTORY_RATE_EVPS,
            duration_s=TRAJECTORY_DURATION_S,
            classes=tuple(
                traffic.TrafficClass(
                    c["rx_len_m"], c["prob"], c["speed_mps"],
                    demands[c["demand"]["kind"]], c["class_id"],
                )
                for c in CORRIDOR_CLASSES
            ),
        )

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {
            "seed": seed,
            "spec": self._spec(),
            "csv": workdir / "trajectory.csv",
            "out": workdir / "trajectory-out",
        }

    def study(self, inputs: dict):
        from dwptload import cli, roadway, traffic

        scenario = traffic.generate(roadway.INDOT, inputs["spec"], inputs["seed"])
        traffic.write_scenario_csv(scenario, str(inputs["csv"]))
        code = cli.main(["ingest", "--out", str(inputs["out"]), str(inputs["csv"])])
        return scenario, code

    def read(self, inputs: dict, raw) -> dict:
        scenario, code = raw
        fields = ("entry_time_s", "speed_mps", "rx_len_m", "peak_demand_kw", "class_id")
        out = {
            "exit": code,
            "generated": [tuple(getattr(ev, f) for f in fields) for ev in scenario.evs],
            "csv_sha256": _sha256(inputs["csv"].read_bytes()),
        }
        if code == 0:
            doc = json.loads((inputs["out"] / "scenario.json").read_text())
            out["ingested"] = [tuple(e[f] for f in fields) for e in doc["evs"]]
        return out

    def check(self, inputs: dict, out: dict) -> list[str]:
        if out["exit"] != 0:
            return [f"ingest exited {out['exit']}"]
        gen, ing = out["generated"], out["ingested"]
        if len(gen) != len(ing):
            return [f"ingested {len(ing)} vehicles, generated {len(gen)}"]
        diff = sum(a != b for a, b in zip(gen, ing))
        return [f"{diff} ingested vehicles differ from the generated ones"] if diff else []

    def summary(self, out: dict) -> dict:
        gen = out["generated"]
        return {
            "vehicles": float(len(gen)),
            "sum_entry_time_s": math.fsum(ev[0] for ev in gen),
            "sum_peak_demand_kw": math.fsum(ev[3] for ev in gen),
        }

    def digest(self, out: dict) -> str:
        return out["csv_sha256"]


class Workload:
    """Runs its parts in order; keys and problems carry the part's name."""

    def __init__(self, name: str, *parts: Part) -> None:
        self.name = name
        self.parts = {p.name: p for p in parts}

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {n: p.prepare(seed, workdir) for n, p in self.parts.items()}

    def study(self, inputs: dict) -> dict:
        return {n: p.study(inputs[n]) for n, p in self.parts.items()}

    def read(self, inputs: dict, raw: dict) -> dict:
        return {n: p.read(inputs[n], raw[n]) for n, p in self.parts.items()}

    def check(self, inputs: dict, out: dict) -> list[str]:
        return [f"{n}: {problem}" for n, p in self.parts.items()
                for problem in p.check(inputs[n], out[n])]

    def summary(self, out: dict) -> dict:
        return {f"{n}.{k}": v for n, p in self.parts.items()
                for k, v in p.summary(out[n]).items()}

    def tolerance(self, key: str, ref: float) -> float:
        part, _, rest = key.partition(".")
        return self.parts[part].tolerance(rest, ref)

    def digest(self, out: dict) -> str:
        return _sha256(*(p.digest(out[n]).encode() for n, p in self.parts.items()))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("signal", Corridor(), Sweep()),
        Workload("model_io", Ensemble(), Trajectory()),
    )
}


def compare_reference(workload, seed: int, values: dict, reference: dict) -> list[str]:
    """Problems against the values recorded for a fixed seed (none if unrecorded).

    The recorded digest is not compared here: a benign last-digit move
    changes it.  ``recorded_digest`` lets a run report whether it did.
    """
    ref = dict(reference.get(workload.name, {}).get(str(seed), {}))
    if not ref:
        return []
    ref.pop("digest", None)
    problems = []
    if set(ref) != set(values):
        problems.append(f"output keys differ from the recorded ones: {sorted(set(ref) ^ set(values))}")
    for key in sorted(set(ref) & set(values)):
        if not abs(values[key] - ref[key]) <= workload.tolerance(key, ref[key]):
            problems.append(f"{key} = {values[key]!r}, recorded {ref[key]!r}")
    return problems


def recorded_digest(workload, seed: int, reference: dict) -> str | None:
    return reference.get(workload.name, {}).get(str(seed), {}).get("digest")
