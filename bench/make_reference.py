"""Write bench/reference.json: the answer of every benchmark operation.

    python3 bench/make_reference.py

run.py compares each answer with this file (within 1e-9 on lengths, margins
and sweep rows), so the file pins the answers of the commit it was made at.
Regenerate it only for a change that is meant to alter answers, and say so.
Every answer must pass the workload's own checks before it is written.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for wl in workloads.WORKLOADS.values():
        inputs = wl.generate(0, HERE.parent / ".bench_out" / f"reference-{os.getpid()}")
        state = wl.fresh(inputs)
        values = [None] * len(inputs.ops)
        try:
            for op in inputs.ops:
                result = wl.run(state, op)
                problem = wl.check(inputs, op, result, None)
                if problem:
                    print(f"{wl.name} op {op.index}: {problem}", file=sys.stderr)
                    return 1
                values[op.index] = wl.reference_values(op, result)
        finally:
            wl.cleanup(inputs)
        reference[wl.name] = values
        print(f"{wl.name}: {len(values)} answers", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
