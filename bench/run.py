"""Benchmark of dwptload: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload signal --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the run starts ``SETUPS`` fresh processes one after
another, each importing the checkout's ``src/dwptload`` and running the
workload's warm-up; the last one then runs studies for ``--seconds``.  It
reports the end-to-end metrics ``setup_s`` (median over the set-ups),
``study_s`` (median over the studies) and ``peak_rss_mb`` (the measuring
process).  With ``--trace 1`` one process alternates untraced and traced
studies and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Records of the
run are kept under ``.bench_out/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("signal", "model_io")
#: Fresh processes per untraced run, each timing one set-up.
SETUPS = 3
#: Time allowed per set-up on top of ``--seconds``, in seconds.  A set-up,
#: one full warm-up study included, takes 3-7 s; the measure loop overruns
#: ``--seconds`` by at most one study of 1-3 s (two when traced).
SETUP_LIMIT_S = 35.0


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(mode: str, args, workdir: Path, index: int, deadline: float, **extra) -> dict:
    """Run one worker process to completion and return its record."""
    result = workdir / f"{mode}-{index}.json"
    log = workdir / f"{mode}-{index}.log"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--workdir", str(workdir / "work"), "--result", str(result),
    ]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    with open(log, "w") as out:
        cmd += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(
            cmd, stdout=out, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    if proc.returncode != 0 or not result.is_file():
        tail = log.read_text()[-2000:]
        raise RuntimeError(f"{mode} process exited {proc.returncode}:\n{tail}")
    return json.loads(result.read_text())


def _tail_percentile(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return f"none (n={n}; needs at least 11 studies)"
    pct = 100 * (n - 10) // n
    return f"p{pct} = {sorted(times)[n - 11]:.4f} s (n={n})"


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    setups_per_run = 1 if args.trace else SETUPS
    deadline = time.monotonic() + args.seconds + setups_per_run * SETUP_LIMIT_S
    if not (ROOT / "src" / "dwptload" / "__init__.py").is_file():
        print(f"no dwptload package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    records = ROOT / ".bench_out"
    workdir = records / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans = records / f"spans-{args.workload}.npz"
            run = _spawn("trace", args, workdir, 0, deadline, spans=spans)
            setups = [run["setup_s"]]
        else:
            setups = []
            for i in range(SETUPS):
                mode = "measure" if i == SETUPS - 1 else "setup"
                run = _spawn(mode, args, workdir, i, deadline)
                setups.append(run["setup_s"])
                if "setup_error" in run:
                    break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir / "work", ignore_errors=True)

    record = {"args": vars(args), "setups_s": setups, **run}
    (records / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    shutil.rmtree(workdir, ignore_errors=True)
    units = declared_units(args.trace)
    if "setup_error" in run:
        # The program failed before any study could be timed: a failed run,
        # with only the metrics that were measured.
        print(f"set-up failed: {run['setup_error']}")
        measured = {} if args.trace else {
            "setup_s": statistics.median(setups), "peak_rss_mb": run["peak_rss_mb"]}
        print(json.dumps({
            "correct": False, "attempted": 1, "failed": 1,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in measured.items()},
        }))
        return 0
    if args.trace:
        metrics = run["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "study_s": statistics.median(run["study_s"]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
    if set(units) != set(metrics):
        print(f"metrics {sorted(set(units) ^ set(metrics))} not both declared and measured",
              file=sys.stderr)
        return 1

    env = run["env"]
    print(f"dwptload benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}; "
          f"{env['cpu_model']}, {env['cpu_count']} CPUs, caches {env['caches']}; "
          f"commit {env['git_commit']}; threads pinned {env['thread_pins']}")
    print(f"setup_s: {', '.join(f'{s:.4f}' for s in setups)} s")
    print(f"study_s: median {statistics.median(run['study_s']):.4f} s; "
          f"tail {_tail_percentile(run['study_s'])}")
    if args.trace:
        print(f"traced study_s: median {statistics.median(run['traced_study_s']):.4f} s; "
              f"tracing overhead {metrics['trace.overhead_frac']:+.2%}")
    fail_frac = run["failed"] / run["attempted"]
    print(f"fail_frac: {fail_frac:g} ({run['failed']} of {run['attempted']} studies)")
    for problem in run["problems"][:20]:
        print(f"problem: {problem}")
    recorded = run["recorded_digest"]
    match = "not recorded" if recorded is None else (
        "same as recorded" if recorded == run["digest"] else "differs from recorded")
    print(f"digest: {run['digest']} ({match} for seed {args.seed})")
    for name in units:
        print(f"{name}: {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
