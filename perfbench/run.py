"""stokeslab benchmark: time to verdict, memory and correctness per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run is split into SLOTS fresh worker
processes of S/SLOTS seconds each, and reports the end-to-end metrics:

    setup_s         median time from process start until the first run can start
    batch_wall_ref  median wall time of the workload's fixed batch of CLI runs,
                    each over the mean reference kernel pass (reference.py)
                    timed around its runs
    peak_rss_mb     median peak resident memory of the worker processes

The raw median batch wall time, ``batch_wall_s``, is printed beside them
and kept in the detail record.  It drifts with the host's speed, which
dividing by the reference time cancels.

With ``--trace 1`` one worker runs an untraced batch, then traced batches
for the rest of the S seconds, and reports the per-layer metrics of
tracer.py plus ``trace.overhead_ratio``.  Every CLI run's report.json is
checked; ``failed`` counts the runs whose exit code or checked numbers are
wrong.  The last stdout line is the JSON result; a detail record with every
batch time, report.json hash and the environment goes to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

SLOTS = 3
RUN_TIMEOUT_S = 170.0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # one BLAS/OpenMP thread, and one hash seed so that runs repeat exactly
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_worker(args, slot: float, out: Path, trace: bool, deadline: float) -> dict:
    """Run one worker; return its record with the measured set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--slot", repr(slot), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    record = json.loads(rest.strip().splitlines()[-1])
    record["setup_s"] = setup_s
    return record


def environment(versions: dict) -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg()), **versions}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def batch_wall_s(workers: list[dict]) -> dict:
    return metric(statistics.median(t for w in workers for t in w["batch_s"]), "s")


def end_to_end(workers: list[dict]) -> dict:
    relative = [t / ref for w in workers for t, ref in zip(w["batch_s"], w["reference_s"])]
    return {
        "setup_s": metric(statistics.median(w["setup_s"] for w in workers), "s"),
        "batch_wall_ref": metric(statistics.median(relative), "ref"),
        "peak_rss_mb": metric(statistics.median(w["peak_rss_mb"] for w in workers), "MiB"),
    }


def per_layer(worker: dict) -> dict:
    """Median of each layer metric over the traced batches."""
    layers = worker["layers"]
    out = {}
    for name in layers[0]:
        unit = ("1/s" if name.endswith("_per_s") else "s" if name.endswith("_s")
                else "ratio" if name.endswith("_ratio") else "count")
        out[name] = metric(statistics.median(m[name] for m in layers), unit)
    out["trace.overhead_ratio"] = metric(
        statistics.median(worker["traced_s"]) / statistics.median(worker["batch_s"]), "ratio")
    return out


def print_summary(args, metrics: dict, counts: dict, env: dict, workers: list[dict],
                  detail: Path):
    print(f"stokeslab benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    rows = sorted(metrics.items(), key=lambda kv: (not kv[0].endswith(".self_s"), kv[0]))
    for name, m in rows:
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        raw = batch_wall_s(workers)
        print(f"  {'batch_wall_s':32s} {raw['value']:14.6g} {raw['unit']} (not host-corrected)")
    ratio = counts["failed"] / counts["attempted"]
    print(f"  {'failed_ratio':32s} {ratio:14.6g} ratio "
          f"({counts['failed']} of {counts['attempted']} runs)")
    batches = sum(len(w.get("traced_s", w["batch_s"])) for w in workers)
    print(f"  samples: {batches} batches (traced when trace=1), {len(workers)} set-ups "
          f"and peak RSS readings")
    print(f"  environment: {json.dumps(env)}")
    print(f"  detail: {detail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "stokeslab" / "cli.py").is_file():
        print(f"error: no stokeslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = perf_counter() + RUN_TIMEOUT_S
    try:
        if args.trace:
            workers = [spawn_worker(args, args.seconds, out, True, deadline)]
            metrics = per_layer(workers[0])
        else:
            workers = [spawn_worker(args, args.seconds / SLOTS, out / f"slot{i}", False, deadline)
                       for i in range(SLOTS)]
            metrics = end_to_end(workers)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = [r for w in workers for r in w["runs"]]
    counts = {"attempted": len(runs), "failed": sum(1 for r in runs if r["problems"])}
    env = environment(workers[0]["versions"])
    detail = out / "result.json"
    detail.write_text(json.dumps({"args": vars(args), "environment": env, "metrics": metrics,
                                  "batch_wall_s": batch_wall_s(workers), "workers": workers},
                                 indent=1))
    print_summary(args, metrics, counts, env, workers, detail.relative_to(ROOT))
    print(json.dumps({"correct": counts["failed"] == 0, **counts, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
