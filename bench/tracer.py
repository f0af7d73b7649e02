"""Per-layer tracing from outside the program.

A ``Tracer`` wraps every public function of each ``dwptload`` module;
``install`` binds each wrapper wherever the package bound the original:
in the defining module, in every module that imported it by name, and in
the package namespace.  Calls inside a module, such as ``load_at_time``
calling ``load_at_position``, therefore go through the wrappers too.

Each wrapped call records a span (function, start, end, parent span,
study id) in flat in-memory arrays; ``save`` writes them out at the end of
a run and ``layer_metrics`` derives the per-layer numbers from them.  A
span's self time is its duration minus the time its direct child spans
cover; the package is single-threaded, so spans nest and children never
overlap.  No layer queues work, so no wait time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

#: The layers, in the package's dependency order.
MODULES = ("roadway", "spectrum", "fleet", "traffic", "signals", "composition", "cli")

#: Bytes a pulse evaluation must at least move per sample: one float64
#: time read and one float64 load written.  Temporaries and cache misses
#: are not counted, so bytes derived from this are labelled "computed".
ROADWAY_BYTES_PER_SAMPLE = 16


def _samples(args, kwargs, result) -> int:
    return int(np.size(args[3] if len(args) > 3 else kwargs["t"]))


def _waveform_key(args, kwargs):
    """What makes two ``load_at_time`` calls compute the same waveform."""
    cfg, ev, scheme = args[:3]
    t = np.asarray(args[3] if len(args) > 3 else kwargs["t"])
    first = float(t.flat[0]) if t.size else 0.0
    step = float(t.flat[1] - t.flat[0]) if t.size > 1 else 0.0
    return (cfg, ev, scheme, first, step, t.size)


def _trials(args, kwargs, result) -> int:
    return int(args[1] if len(args) > 1 else kwargs["trials"])


def _cells(args, kwargs, result) -> int:
    sw = args[0] if args else kwargs["sw"]
    return len(sw.thetas) * len(sw.columns) * sw.n_windows


def _vehicles(args, kwargs, result) -> int:
    return len(result.evs)


def _text_bytes(args, kwargs, result) -> int:
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode("utf-8"))


#: Work counted at a function's boundary: function -> (counter, how).
COUNTERS = {
    "roadway.load_at_time": ("roadway.load_at_time.samples", _samples),
    "signals.monte_carlo_psd": ("signals.monte_carlo_psd.trials", _trials),
    "composition.run_sweep": ("composition.cells", _cells),
    "traffic.generate": ("traffic.generate.vehicles", _vehicles),
    "traffic.ingest": ("traffic.ingest.rows", _vehicles),
    "cli._write_atomic": ("cli.bytes_written", _text_bytes),
}

#: Private functions traced as well, because they are a layer's boundary.
EXTRA = ("cli._write_atomic",)


class Tracer:
    def __init__(self) -> None:
        """Build a wrapper for every public function of every layer."""
        self.names: list[str] = []
        self.func = array("i")
        self.parent = array("i")
        self.study = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.study_id = -1
        self.counts: dict[tuple[int, str], int] = {}
        self.waveforms: dict[int, set] = {}
        self.errors: dict[tuple[int, str], list] = {}
        self.counter_errors: dict[int, int] = {}
        package = importlib.import_module("dwptload")
        modules = {m: importlib.import_module(f"dwptload.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                qual = f"{short}.{attr}"
                public = not attr.startswith("_") or qual in EXTRA
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(qual, obj)
        self._bindings = [
            (ns, attr, obj, wrappers[id(obj)])
            for ns in (package, *modules.values())
            for attr, obj in vars(ns).items()
            if id(obj) in wrappers
        ]

    def install(self, study_id: int) -> None:
        """Bind the wrappers; spans from now on belong to ``study_id``."""
        self.study_id = study_id
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        """Bind the original functions again."""
        for ns, attr, original, _ in self._bindings:
            setattr(ns, attr, original)

    def _wrap(self, qual: str, fn):
        index = len(self.names)
        self.names.append(qual)
        module = qual.split(".")[0]
        counter = COUNTERS.get(qual)
        waveforms = qual == "roadway.load_at_time"
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(rec.start)
            rec.func.append(index)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.study.append(rec.study_id)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec.stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                seen = rec.errors.setdefault((rec.study_id, module), [])
                if not any(e is exc for e in seen):
                    seen.append(exc)
                raise
            finally:
                t1 = clock()
                rec.stack.pop()
                rec.start[span] = t0
                rec.end[span] = t1
            # Counting must never change what the program returns: a
            # counter that no longer fits the function's signature is
            # itself counted, and the call goes on.
            try:
                if counter is not None:
                    key = (rec.study_id, counter[0])
                    rec.counts[key] = rec.counts.get(key, 0) + counter[1](args, kwargs, result)
                if waveforms:
                    rec.waveforms.setdefault(rec.study_id, set()).add(_waveform_key(args, kwargs))
            except Exception:
                rec.counter_errors[rec.study_id] = rec.counter_errors.get(rec.study_id, 0) + 1
            return result

        return wrapper

    # --- results ------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write every span, with the function names, as one ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            func=np.array(self.func, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            study=np.array(self.study, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
        )

    def layer_metrics(self, study_id: int) -> dict[str, float]:
        """The per-layer metrics of one traced study."""
        func = np.array(self.func, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        study = np.array(self.study, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = study == study_id
        n = len(self.names)
        calls = np.bincount(func[own], minlength=n)
        total = np.bincount(func[own], weights=dur[own], minlength=n)
        self_time = np.bincount(func[own], weights=(dur - covered)[own], minlength=n)
        index = {name: i for i, name in enumerate(self.names)}

        # A function the package no longer has reads as never called.
        def c(name):
            return int(calls[index[name]]) if name in index else 0

        def s(name):
            return float(total[index[name]]) if name in index else 0.0

        def selfs(name):
            return float(self_time[index[name]]) if name in index else 0.0

        def count(name):
            return self.counts.get((study_id, name), 0)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        samples = count("roadway.load_at_time.samples")
        lat_calls = c("roadway.load_at_time")
        unique = len(self.waveforms.get(study_id, ()))
        cli_self = sum(
            float(self_time[i]) for name, i in index.items() if name.startswith("cli.")
        )
        m = {
            "roadway.load_at_time.calls": lat_calls,
            "roadway.load_at_time.samples": samples,
            "roadway.ns_per_sample": ratio(s("roadway.load_at_time"), samples, 1e9),
            "roadway.bytes_computed": ROADWAY_BYTES_PER_SAMPLE * samples,
            "signals.synthesize.calls": c("signals.synthesize"),
            "signals.synthesize.self_s": selfs("signals.synthesize"),
            "signals.estimate_psd.s": s("signals.estimate_psd"),
            "signals.detect_peaks.s": s("signals.detect_peaks"),
            "signals.harmonic_line_powers.calls": c("signals.harmonic_line_powers"),
            "signals.harmonic_line_powers.s": s("signals.harmonic_line_powers"),
            "composition.cells": count("composition.cells"),
            "composition.run_sweep.self_s": selfs("composition.run_sweep"),
            "composition.unique_waveforms": unique,
            "composition.unique_waveform_frac": ratio(unique, lat_calls),
            "traffic.covering_entry_time.calls": c("traffic.covering_entry_time"),
            "spectrum.fs_harmonic.calls": c("spectrum.fs_harmonic"),
            "spectrum.fs_harmonic.self_s": selfs("spectrum.fs_harmonic"),
            "spectrum.fs_harmonic_grid.calls": c("spectrum.fs_harmonic_grid"),
            "spectrum.fs_harmonic_grid.s": s("spectrum.fs_harmonic_grid"),
            "fleet.mixture_moments.calls": c("fleet.mixture_moments"),
            "fleet.class_moments.self_s": selfs("fleet.class_moments"),
            "fleet.fs_evals_per_harmonic": ratio(
                c("spectrum.fs_harmonic"), c("fleet.mixture_moments")
            ),
            "fleet.analytic_psd.s": s("fleet.analytic_psd"),
            "fleet.thc_total.s": s("fleet.thc_total"),
            "signals.monte_carlo_psd.s": s("signals.monte_carlo_psd"),
            "signals.monte_carlo_psd.trials": count("signals.monte_carlo_psd.trials"),
            "signals.monte_carlo_psd.us_per_trial": ratio(
                s("signals.monte_carlo_psd"), count("signals.monte_carlo_psd.trials"), 1e6
            ),
            "traffic.generate.s": s("traffic.generate"),
            "traffic.generate.vehicles": count("traffic.generate.vehicles"),
            "traffic.generate.us_per_vehicle": ratio(
                s("traffic.generate"), count("traffic.generate.vehicles"), 1e6
            ),
            "traffic.write_scenario_csv.s": s("traffic.write_scenario_csv"),
            "traffic.ingest.s": s("traffic.ingest"),
            "traffic.ingest.rows": count("traffic.ingest.rows"),
            "traffic.ingest.us_per_row": ratio(
                s("traffic.ingest"), count("traffic.ingest.rows"), 1e6
            ),
            "traffic.scenario_to_json.s": s("traffic.scenario_to_json"),
            "cli.main.s": s("cli.main"),
            "cli.self_s": cli_self,
            "cli.bytes_written": count("cli.bytes_written"),
            "trace.spans": int(np.count_nonzero(own)),
            "trace.counter_errors": self.counter_errors.get(study_id, 0),
        }
        for module in MODULES:
            m[f"{module}.errors"] = len(self.errors.get((study_id, module), ()))
        return m
