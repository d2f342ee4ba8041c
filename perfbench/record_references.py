"""Record the reference output of every pooled trial input.

    python3 perfbench/record_references.py

Runs each distinct input of every workload's trial pool once and writes
what the output check compares against to ``references.json``.  Re-record
only when a change to the program is meant to change its outputs.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads as wl

OUT = wl.ROOT / ".bench_out" / "record"


def main() -> int:
    references = {}
    for name, cls in wl.WORKLOADS.items():
        workload = cls(0, OUT / name, None)
        recorded = {}
        for trial in workload.trials:
            key = workload.key(trial)
            if key in recorded:
                continue
            output = workload.run(trial)
            if not workload.invariant(trial, output):
                print(f"{name} {trial}: invariant does not hold", file=sys.stderr)
                return 1
            recorded[key] = workload.observe(trial, output)
        references[name] = dict(sorted(recorded.items()))
        print(f"{name}: {len(recorded)} inputs", flush=True)
    shutil.rmtree(OUT, ignore_errors=True)
    with open(wl.REFERENCES, "w") as fh:
        json.dump(references, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
