"""Record the reference outputs that benchmark runs on fixed seeds compare against.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 bench/record_reference.py

Runs one study per workload and seed, requires it to pass its own
checks, and writes each output's summary values and digest to
``bench/reference.json``, replacing the whole file, so every value in it
comes from the same commit.  Run it again only when a change is meant to
move the numbers, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

REFERENCE = Path(__file__).with_name("reference.json")
SEEDS = range(16)


def main() -> int:
    doc = {}
    for name, w in WORKLOADS.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=Path(__file__).parent.parent) as tmp:
                inputs = w.prepare(seed, Path(tmp))
                out = w.read(inputs, w.study(inputs))
                problems = w.check(inputs, out)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                values = w.summary(out)
                values["digest"] = w.digest(out)
            doc.setdefault(name, {})[str(seed)] = values
            print(f"{name} seed {seed}: {len(values) - 1} values", file=sys.stderr)
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
