"""Regenerate reference/fig1.json, the stored solutions the fig1 workloads
are checked against.

    python3 perfbench/make_reference.py

Run from the root of a corrosim checkout.  For each of the FIG1_POINTS
parameter points it runs both fig1 workloads through the CLI in-process
and stores the last snapshot of u1, u4 (macro grid) and u2, u3 (the x = 0.5
cell) with 17 significant digits.  Regenerate only when the workload
definitions change, never to make a changed program pass.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile

import workloads
from run import source_digest

COMMAND = "python3 perfbench/make_reference.py"


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy
    from corrosim import cli

    points = []
    for index in range(workloads.FIG1_POINTS):
        entry = {"seed_index": index, "params": workloads.fig1_point(index)}
        for workload in workloads.FIG1_SPECS:
            with tempfile.TemporaryDirectory(dir=root) as out:
                argv = workloads.prepare(workload, index, out)
                if cli.main(argv) != 0:
                    raise SystemExit(f"{workload} point {index} failed")
                entry[workload] = workloads.final_fields(workloads.fig1_outputs(out))
        points.append(entry)
    reference = {
        "command": COMMAND,
        "source": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "points": points,
    }
    # one line per point keeps the file diffable and compact
    lines = [f' "{key}": {json.dumps(value)},' for key, value in reference.items()
             if key != "points"]
    lines += [' "points": [', ",\n".join("  " + json.dumps(p) for p in points), " ]"]
    with open(workloads.REFERENCE_PATH, "w") as handle:
        handle.write("{\n" + "\n".join(lines) + "\n}\n")
    print(f"wrote {workloads.REFERENCE_PATH}: {len(points)} points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
