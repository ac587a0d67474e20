"""One fresh benchmark process: set up stokeslab, then run a workload in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --slot SECONDS --out DIR [--trace]

It prints ``ready`` once the imports and the process-global tables are
built, so the parent can time set-up, then runs the workload's batch
(one CLI run at a time, each started when the last has written its
report.json) until the next batch would end past ``--slot`` seconds; at
least one batch always runs.  The worker pins itself to the CPU it starts
on, and times the reference kernel (reference.py) before each CLI run and
after the last run of each batch.  With ``--trace`` the first batch is
untraced and the rest run under the layer tracer.  The last stdout line is
a JSON record of batch times, mean reference time per batch, per-run checks
and peak RSS.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from reference import pin_to_current_cpu, reference_s
from workloads import WORKLOADS


def set_up():
    """Import the CLI and build the lazily made process-global tables."""
    from stokeslab import cli
    from stokeslab.counterexample import default_transition
    from stokeslab.quadrature import gauss_rule

    default_transition()
    for order in (10, 12):
        gauss_rule(order)
    return cli


def check_run(run, exit_code: int, out: Path) -> dict:
    """Exit code, report.json hash and the workload's checks for one run."""
    record = {"command": run.command, "exit_code": exit_code, "sha256": None, "problems": []}
    try:
        raw = (out / "report.json").read_bytes()
    except OSError as exc:
        record["problems"].append(f"no report.json: {exc}")
        return record
    record["sha256"] = hashlib.sha256(raw).hexdigest()
    if exit_code != 0:
        record["problems"].append(f"exit code {exit_code}, expected 0")
    try:
        record["problems"] += run.check(json.loads(raw))
    except (KeyError, TypeError, ValueError) as exc:
        record["problems"].append(f"report.json lacks a checked field: {exc!r}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--slot", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    pin_to_current_cpu()
    cli = set_up()
    print("ready", flush=True)

    runs = WORKLOADS[args.workload](args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    configs = []
    for i, run in enumerate(runs):
        path = args.out / f"config{i}.json"
        path.write_text(json.dumps(run.config))
        configs.append(path)
    records = []
    reference = []

    def batch() -> float:
        """Wall time of one batch; appends its mean reference time to ``reference``."""
        wall = 0.0
        refs = []
        for i, (run, config) in enumerate(zip(runs, configs)):
            refs.append(reference_s())
            out = args.out / f"run{i}"
            (out / "report.json").unlink(missing_ok=True)
            argv = [run.command, "--config", str(config), "--out", str(out),
                    "--seed", str(run.seed)]
            t0 = perf_counter()
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
            run_s = perf_counter() - t0
            wall += run_s
            records.append(check_run(run, code, out) | {"wall_s": run_s})
        refs.append(reference_s())
        reference.append(sum(refs) / len(refs))
        return wall

    result = {}
    start = perf_counter()
    if args.trace:
        from tracer import LayerTracer

        result["batch_s"] = [batch()]
        tracer = LayerTracer()
        tracer.install()
        try:
            traced, layers, coverage = [], [], []
            while not traced or perf_counter() - start + traced[-1] <= args.slot:
                tracer.reset()
                traced.append(batch())
                layers.append(tracer.metrics())
                coverage.append(tracer.root_s / traced[-1])
        finally:
            tracer.uninstall()
        result["traced_s"] = traced
        result["span_coverage"] = coverage
        result["layers"] = layers
    else:
        times = []
        while not times or perf_counter() - start + times[-1] <= args.slot:
            times.append(batch())
        result["batch_s"] = times
    result["reference_s"] = reference

    import numpy
    import scipy

    result["runs"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
