"""Benchmark a base commit against the working tree in alternating pairs.

    python tools/bench_pairs.py --pairs 10 --seconds 30 --out BENCH_<n>.json \
        [--base HEAD] [--workload NAME ...] [--seed 1]

The base commit's committed files are exported with ``git archive`` into a
temporary directory, and the working tree is copied beside it: its tracked
files with their content in the working tree, and its untracked files that
git does not ignore, such as a new module.  So both sides run from fresh
directories of the same kind, and only the code differs between them.
Each pair runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in the base tree and once in the working tree, the base
first in even pairs and the working tree first in odd ones, so that a drift
of the host falls on both alike.  For every workload and every end-to-end
metric of ``BENCHMARK.json`` the output file gets both medians, both sets of
quartiles and values, the relative change of the medians (head / base - 1)
and the number of pairs in which the working tree was better (lower or
higher, as the metric says); the failed-run counts of both sides come with
them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The JSON result line of one perfbench/run.py run in a source tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def export_working_tree(dest: Path) -> None:
    """Copy the working tree's tracked files and its untracked, unignored ones into dest."""
    listing = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                             cwd=ROOT, check=True, capture_output=True).stdout
    for name in map(os.fsdecode, filter(None, listing.split(b"\0"))):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(results: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per metric: base and head summaries, the change of the medians, the pairs the head won."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        base = [b["metrics"][name]["value"] for b, _ in results]
        head = [h["metrics"][name]["value"] for _, h in results]
        sign = 1 if spec["better"] == "lower" else -1
        mid_base, mid_head = statistics.median(base), statistics.median(head)
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "base": summary(base),
            "head": summary(head),
            "median_change": mid_head / mid_base - 1 if mid_base else None,
            "pairs_won": sum(sign * (h - b) < 0 for b, h in zip(base, head)),
        }
    out["failed"] = {"base": sum(b["failed"] for b, _ in results),
                     "head": sum(h["failed"] for _, h in results),
                     "attempted": sum(b["attempted"] + h["attempted"] for b, h in results)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--base", default="HEAD", help="git revision of the base tree")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    with tempfile.TemporaryDirectory() as tmp:
        revision = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                                  capture_output=True, text=True).stdout.strip()
        archive = subprocess.run(["git", "archive", revision], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        base_dir = Path(tmp) / "base"
        base_dir.mkdir()
        subprocess.run(["tar", "-x", "-C", str(base_dir)], input=archive, check=True)
        head_dir = Path(tmp) / "head"
        export_working_tree(head_dir)
        report = {"base": revision, "head": "working tree", "pairs": args.pairs,
                  "seconds": args.seconds, "seed": args.seed, "workloads": {}}
        for workload in workloads:
            results = []
            for i in range(args.pairs):
                trees = (base_dir, head_dir) if i % 2 == 0 else (head_dir, base_dir)
                runs = {tree: run_bench(tree, workload, args.seed, args.seconds)
                        for tree in trees}
                results.append((runs[base_dir], runs[head_dir]))
                print(f"{workload} pair {i + 1}/{args.pairs}: batch_wall_ref "
                      f"{runs[base_dir]['metrics']['batch_wall_ref']['value']:.4g} -> "
                      f"{runs[head_dir]['metrics']['batch_wall_ref']['value']:.4g}",
                      file=sys.stderr)
            report["workloads"][workload] = compare(results, spec["end_to_end"])
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
