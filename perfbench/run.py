#!/usr/bin/env python3
"""Run one benchmark workload on the phonoam sources of this checkout.

    python3 perfbench/run.py --workload ctc_pipeline --seed 0 --seconds 10 --trace 0

Workloads: ctc_pipeline, crf_bigram, long_eval (see perfbench/README.md).
Lines before the last print the machine record, each output check and every
metric by name with its unit.  The last line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1.  A traced run also
writes its spans to perfbench/out/.  Exits with 2, printing no result, when
the checkout has no phonoam sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("ctc_pipeline", "crf_bigram", "long_eval")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured section")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "phonoam" / "__init__.py").is_file():
        print(f"error: no phonoam sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when NumPy is first imported.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [str(SRC), str(ROOT)]

    import phonoam
    from perfbench.harness import machine_record, result_line, run_workload
    from perfbench.workloads import WORKLOADS as REGISTRY

    if Path(phonoam.__file__).resolve().parent != SRC / "phonoam":
        print(f"error: imported phonoam from {phonoam.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    record = {**machine_record(ROOT), "workload": args.workload, "seed": args.seed, "trace": args.trace}
    print("machine " + json.dumps(record, sort_keys=True), flush=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        result = run_workload(REGISTRY[args.workload], args.seed, args.seconds, bool(args.trace), Path(workdir))

    for name, ok in result.checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}")
    print(f"units {len(result.units)}  attempted {result.attempted}  failed {result.failed}")
    print("unit seconds " + " ".join(f"{s:.3f}" for s in result.unit_seconds))
    for name, (value, unit) in {**result.report, **result.metrics}.items():
        print(f"metric {name} {value:.6g} {unit}")
    if result.tracer is not None:
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        result.tracer.write(path, record)
        print(f"spans {len(result.tracer)} written to {path.relative_to(ROOT)}")
        if result.tracer.missing:
            print("not traced (attribute absent): " + ", ".join(result.tracer.missing))
    print(result_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
