"""One run of one workload in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --out DIR --record FILE
                               [--trace 0|1] [--spans FILE]
    python3 perfbench/child.py --warmup

Run from the root of a corrosim checkout with PYTHONPATH=<root>/src.
Writes the inputs into DIR, times set-up (the import of corrosim) and the
command itself in-process, checks the outputs and writes one JSON record
to FILE.  The command does its own config resolution, grid construction
and initial projection, so those count in its wall time.  `--trace 1`
wraps corrosim's layer boundaries after the import (see tracing.py) and
adds the per-layer metrics.  `--warmup` only imports corrosim, which
compiles its bytecode before any timed run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import workloads
from tracing import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--record")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not args.warmup:
        cli_argv = workloads.prepare(args.workload, args.seed, args.out)

    t0 = time.perf_counter()
    import corrosim
    import corrosim.cli
    t1 = time.perf_counter()

    if not os.path.abspath(corrosim.__file__).startswith(src + os.sep):
        print(f"corrosim imported from {corrosim.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.warmup:
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    t2 = time.perf_counter()
    try:
        exit_code = corrosim.cli.main(cli_argv)
        error = None
    except Exception:  # the run fails; the record says why
        exit_code = None
        error = traceback.format_exc(limit=4)
    t3 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [f"corrosim raised: {error}"] if error else \
        workloads.check(args.workload, args.seed, args.out, exit_code)
    import numpy

    record = {
        "ok": not failures,
        "failures": failures,
        "exit_code": exit_code,
        "traced": bool(args.trace),
        "setup_s": t1 - t0,
        "wall_s": t3 - t2,
        "peak_rss_mb": peak_rss_mb,
        "bytes_written": workloads.bytes_written(args.out),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.bytes_written"] = record["bytes_written"]
        record["layers"] = layers
        record["missing"] = tracer.missing
        if args.spans:
            tracer.save(args.spans)
    with open(args.record, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
