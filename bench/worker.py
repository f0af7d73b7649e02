"""One benchmark process: set up one workload, then run its studies.

Started by ``run.py``, one fresh process per set-up, with the checkout's
``src`` as the only import path for the package.  Modes:

* ``setup``: import the package, build the inputs, run one warm-up study;
* ``measure``: the same, then studies in a closed loop for ``--seconds``;
* ``trace``: the same, then alternately an untraced and a traced study
  for ``--seconds``; the traced ones give the per-layer metrics.

Writes one JSON record to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, compare_reference, recorded_digest

ROOT = Path(__file__).resolve().parent.parent


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spans", type=Path, help="where the trace mode writes its spans")
    return p.parse_args(argv)


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "caches": _cache_sizes(),
        "git_commit": _git_commit(),
        "thread_pins": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


class Runner:
    """Runs and checks the studies of one workload on one seed."""

    def __init__(self, workload, inputs, seed: int, reference: dict) -> None:
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.reference = reference
        self.digest = None
        self.summary = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def study(self, tracer=None, study_id: int = -1) -> tuple[float, str | None]:
        """Run one study; return its wall time and output digest."""
        w = self.workload
        self.attempted += 1
        if tracer is not None:
            tracer.install(study_id)
        t0 = time.perf_counter()
        try:
            raw = w.study(self.inputs)
        except Exception as exc:  # a study that raises is a failed study
            self._fail([f"study raised {exc!r}"])
            return time.perf_counter() - t0, None
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = time.perf_counter() - t0
        try:
            out = w.read(self.inputs, raw)
            summary = w.summary(out)
            problems = w.check(self.inputs, out)
            problems += compare_reference(w, self.seed, summary, self.reference)
            digest = w.digest(out)
        except Exception as exc:  # unreadable output is a failed study
            self._fail([f"output unreadable: {exc!r}"])
            return elapsed, None
        if self.digest is None:
            self.digest, self.summary = digest, summary
        elif digest != self.digest:
            problems.append("output differs from the run's first study on the same inputs")
        if problems:
            self._fail(problems)
        return elapsed, digest

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)


def _measure(runner: Runner, seconds: float) -> dict:
    times = []
    deadline = time.perf_counter() + seconds
    while True:
        elapsed, _ = runner.study()
        times.append(elapsed)
        if time.perf_counter() >= deadline:
            return {"study_s": times}


def _trace(runner: Runner, seconds: float, spans: Path | None) -> dict:
    """Alternate untraced and traced studies.

    Every study runs on the same inputs, so ``Runner`` already fails a
    traced study whose output differs from the untraced ones.
    """
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, per_study = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(runner.study()[0])
        study_id = len(traced)
        traced.append(runner.study(tracer, study_id)[0])
        per_study.append(tracer.layer_metrics(study_id))
        if time.perf_counter() >= deadline:
            break
    if spans is not None:
        tracer.save(spans)
    layers = {k: statistics.median(m[k] for m in per_study) for k in per_study[0]}
    u, t = statistics.median(untraced), statistics.median(traced)
    layers["trace.untraced_study_s"] = u
    layers["trace.overhead_frac"] = (t - u) / u
    return {"study_s": untraced, "traced_study_s": traced, "per_layer": layers}


def main(argv=None) -> int:
    args = _parse_args(argv)
    import dwptload

    src = (ROOT / "src").resolve()
    if src not in Path(dwptload.__file__).resolve().parents:
        print(f"dwptload imported from {dwptload.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    # One untimed study at full size, so lazy imports, caches and the
    # allocator's large-block thresholds settle before timing.
    try:
        inputs = workload.prepare(args.seed, args.workdir)
        workload.study(inputs)
        setup_error = None
    except Exception as exc:  # the program failed; report it as a failed study
        setup_error = f"set-up study raised {exc!r}"
    record = {"setup_s": time.monotonic() - args.spawned_at}

    if setup_error is not None:
        record.update(setup_error=setup_error, attempted=1, failed=1)
    elif args.mode != "setup":
        ref_path = Path(__file__).with_name("reference.json")
        reference = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
        runner = Runner(workload, inputs, args.seed, reference)
        if args.mode == "measure":
            record.update(_measure(runner, args.seconds))
        else:
            record.update(_trace(runner, args.seconds, args.spans))
        record.update(
            attempted=runner.attempted,
            failed=runner.failed,
            problems=runner.problems,
            digest=runner.digest,
            recorded_digest=recorded_digest(workload, args.seed, reference),
            summary=runner.summary,
        )
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["env"] = environment()
    args.result.write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
