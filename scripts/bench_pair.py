#!/usr/bin/env python3
"""Time this checkout against a parent commit with the benchmark harness, in pairs.

    python3 scripts/bench_pair.py --parent HEAD~1 --pairs ctc_pipeline=10 crf_bigram=10 long_eval=10

The parent's files are extracted with `git archive <parent> | tar -x` into a
temporary directory, so nothing under `.git` changes.  For each workload and
pair i (seed SEED + i) it runs `perfbench/run.py --trace 0` once on each
side for BENCHMARK.json's `run_seconds`, alternating which side goes first,
then one `--trace 1` run of TRACE_SECONDS per side for the exact per-layer
counts.  It writes BENCH_<commit>.json at the root of this checkout (commit =
the short hash of its HEAD, `-dirty` when the tree has uncommitted changes):
the machine record, every run's metrics, each side's median `attempted` per
run (the utterances its units offered to training or evaluation, plus its
checks: it grows with the units a run fits in its seconds, and the harness
keeps every unit's result until the run ends, so a side that runs more units
reads a higher peak memory), each end-to-end metric's median and
interquartile range per side, how many pairs each side won, and two verdicts:
`gain` (won at least 9 in 10 pairs, median better by more than the parent's
IQR) and `past_bound` (median worse by more than BENCHMARK.json's bound).  A
workload with no pair of two complete runs gets a null summary; a workload that
BENCHMARK.json does not name stops the script before any run, with exit 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACE_SECONDS = 1.0  # measured section of the traced runs; their counts are exact


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict[str, dict[str, float]]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict[str, dict]:
    """Per metric: each side's median, quartiles and IQR, the pairs each side won, and the verdicts.

    pairs[i] maps side -> {metric: value}; better maps metric -> "lower" or
    "higher"; bounds maps metric -> the share of the parent's median by which
    the change's may be worse.  A pair with equal values is a tie and counts
    for neither side.  `change_vs_parent` is the change's median over the
    parent's, minus one.  `gain`: the change won at least 9 in 10 of the pairs
    and its median beats the parent's by more than the parent's IQR.
    `past_bound`: the change's median is worse than the parent's by more than
    the bound (None for a metric without one).
    """
    out = {}
    for metric, direction in better.items():
        values = {side: [p[side][metric] for p in pairs] for side in SIDES}
        entry = {}
        for side in SIDES:
            q1, med, q3 = quartiles(values[side])
            entry[side] = {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}
        sign = 1 if direction == "lower" else -1
        wins = [sign * (a - b) for a, b in zip(values["parent"], values["change"])]
        entry["pairs"] = len(pairs)
        entry["change_won"] = sum(w > 0 for w in wins)
        entry["parent_won"] = sum(w < 0 for w in wins)
        base = entry["parent"]["median"]
        entry["change_vs_parent"] = entry["change"]["median"] / base - 1 if base else None
        worse = sign * (entry["change"]["median"] - base)
        entry["gain"] = 10 * entry["change_won"] >= 9 * len(pairs) and -worse > entry["parent"]["iqr"]
        bound = (bounds or {}).get(metric)
        entry["past_bound"] = None if bound is None else worse > bound * abs(base)
        out[metric] = entry
    return out


def median_attempted(runs: list[dict], side: str) -> float | None:
    """Median `attempted` over one side's complete runs, None without any."""
    counts = [r["attempted"] for r in runs if r["side"] == side and "attempted" in r]
    return statistics.median(counts) if counts else None


def run_side(root: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, dict]:
    """One perfbench run of the checkout at root: (its machine record, its
    outcome), the outcome being the result line's fields with each metric's
    value, or the exit code and the end of stderr of a run that printed none."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines if line.startswith("machine ")), None)
    if proc.returncode or not lines:
        return machine, {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return machine, {"correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"], "metrics": metrics}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def extract(rev: str, into: Path) -> None:
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def _pairs_arg(text: str) -> tuple[str, int]:
    name, _, count = text.partition("=")
    if not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=N with N >= 1, got {text!r}")
    return name, int(count)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=_pairs_arg, nargs="+", required=True, metavar="WORKLOAD=N")
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    unknown = [name for name, _ in args.pairs if name not in known]
    if unknown:
        print(f"error: unknown workload {', '.join(unknown)}; BENCHMARK.json names {', '.join(known)}",
              file=sys.stderr)
        return 1
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    commit = _git("rev-parse", "--short", "HEAD") + ("-dirty" if _git("status", "--porcelain", "--untracked-files=no") else "")
    out_path = ROOT / f"BENCH_{commit}.json"

    doc = {"parent": _git("rev-parse", args.parent), "change": commit, "seconds": seconds,
           "trace_seconds": TRACE_SECONDS, "machine": None, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": Path(tmp), "change": ROOT}
        extract(args.parent, roots["parent"])
        for workload, n_pairs in args.pairs:
            runs, pairs = [], []
            for i in range(n_pairs):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {}
                for side in order:
                    machine, run = run_side(roots[side], workload, seed, seconds, 0)
                    if machine and not doc["machine"]:
                        doc["machine"] = {k: v for k, v in machine.items() if k not in ("workload", "seed", "trace")}
                    runs.append({"pair": i, "seed": seed, "side": side, **run})
                    print(f"{workload} pair {i} {side}: {json.dumps(run.get('metrics', run))}", flush=True)
                    if "metrics" in run:
                        pair[side] = run["metrics"]
                if len(pair) == 2:
                    pairs.append(pair)
            traced = {side: run_side(roots[side], workload, args.seed, TRACE_SECONDS, 1)[1] for side in SIDES}
            doc["workloads"][workload] = {
                "runs": runs,
                "summary": summarize(pairs, better, bounds) if pairs else None,
                "failed": {side: sum(r.get("failed", 1) for r in runs if r["side"] == side) for side in SIDES},
                "attempted": {side: median_attempted(runs, side) for side in SIDES},
                "traced": traced,
            }
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    for workload, entry in doc["workloads"].items():
        attempted = entry["attempted"]
        print(f"{workload:13s} {'attempted':12s} parent {attempted['parent']}  change {attempted['change']}"
              "  (median per run, in proportion to the units run)")
        if entry["summary"] is None:
            print(f"{workload:13s} no pair of two complete runs")
        for metric, s in (entry["summary"] or {}).items():
            print(f"{workload:13s} {metric:12s} parent {s['parent']['median']:.4g} (IQR {s['parent']['iqr']:.3g})"
                  f"  change {s['change']['median']:.4g} (IQR {s['change']['iqr']:.3g})"
                  f"  won {s['change_won']}/{s['pairs']}  gain {'yes' if s['gain'] else 'no'}"
                  f"  past bound {'yes' if s['past_bound'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
