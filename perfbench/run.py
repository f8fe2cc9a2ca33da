"""Run one itsbeam benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rp_40dbm --seed 0 --seconds 40 --trace 0

With ``--trace 0`` the run repeats whole passes over the workload's sweep while
another pass is expected to end within ``--seconds``, reruns the cells of
trial 0 to check that they reproduce, and prints the end-to-end metrics.
With ``--trace 1`` it runs one untraced and one traced pass over half the
trials and a one- versus two-worker sweep of a fixed RP slice, and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Run records,
the detail CSV and the spans go to ``perfbench/results/``.  The exit code is
1 when an output check fails and 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import bench
from tracer import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 8  # fresh processes timed for set-up, spread over the run


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


class SetupProbes:
    """Set-up probes taken between cells, one per ``seconds / SETUP_PROBES``.

    The host's speed drifts over seconds, so probes spread over the whole run
    see the same conditions as the cells; a burst of probes at the start sees
    only the conditions of its first second.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.args = (workload, seed)
        self.interval = seconds / SETUP_PROBES
        self.due = time.perf_counter()
        self.samples = []

    def __call__(self):
        if len(self.samples) < SETUP_PROBES and time.perf_counter() >= self.due:
            self.samples.append(probe_setup(*self.args))
            self.due += self.interval

    def finish(self) -> list:
        while len(self.samples) < SETUP_PROBES:
            self.samples.append(probe_setup(*self.args))
        return self.samples


def workers_speedup(seed: int):
    """run_sweep wall time at one worker over that at two, on the fixed RP slice.

    Returns (speedup, whether both runs gave the same records).
    """
    from itsbeam.harness import run_sweep

    config = bench.mapping("rp_40dbm", seed, **bench.WORKERS_SLICE)
    del config["solver"]  # the reference configuration keeps the default BCD cap
    spec = bench.build_spec(config)
    start = time.perf_counter()
    serial = run_sweep(spec, workers=1)
    middle = time.perf_counter()
    parallel = run_sweep(spec, workers=2)
    end = time.perf_counter()
    same = [r.to_csv_row() for r in serial] == [r.to_csv_row() for r in parallel]
    return (middle - start) / (end - middle), same


def traced_run(spec, seed: int, spans_path: str):
    """One untraced and one traced pass, then the workers slice.

    Returns (passes, metrics, absent layer names, whether the workers slice
    gave the same records at one and two workers).
    """
    untraced = bench.run_pass(spec)
    with Tracer() as tracer:
        traced = bench.run_pass(spec, tracer)
    tracer.write_spans(spans_path)
    metrics = layer_metrics(tracer)
    speedup, same = workers_speedup(seed)
    metrics["harness.workers2_speedup"] = (speedup, "x")
    metrics["trace.overhead_frac"] = (traced.wall_s / untraced.wall_s - 1.0, "frac")
    return [untraced, traced], metrics, tracer.absent, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_before = os.getloadavg()
    if not os.path.isfile(os.path.join(bench.SRC, "itsbeam", "__init__.py")):
        print(f"error: no itsbeam package under {bench.SRC}; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, bench.SRC)

    spec, own_setup = bench.timed_setup(args.workload, args.seed)
    environment = bench.environment()
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    config = bench.mapping(args.workload, args.seed)
    notes, problems, rerun = {"own_setup_s": own_setup}, [], None
    if args.trace:
        # Half the trials, so that two passes and the workers slice end well within 180 s.
        config["sweep"]["trials"] //= 2
        spec = bench.build_spec(config)
        passes, metrics, absent, same = traced_run(spec, args.seed, stem + "-spans.jsonl")
        notes["absent_layers"] = absent
        if not same:
            problems.append("run_sweep records differ between one and two workers")
    else:
        probes = SetupProbes(args.workload, args.seed, args.seconds)
        passes = bench.run_passes(spec, args.seconds, between_cells=probes)
        setup_samples = notes["setup_samples_s"] = probes.finish()
        rerun = bench.rerun_first_trial(config)
        metrics = bench.end_to_end(passes, setup_samples)
    digest = bench.write_csv(passes[0].records, stem + ".csv")
    problems = bench.check_outputs(spec, passes, rerun) + problems
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.records) for p in passes)
    wall_ms = [ms for p in (passes[:1] if args.trace else passes) for ms in p.wall_ms]  # untraced only
    p50, p90 = bench.percentile(wall_ms, 50), bench.percentile(wall_ms, 90)

    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "config": config,
        "environment": environment,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "passes": len(passes),
        "cells": attempted,
        "cell_ms_p50": p50,
        "cell_ms_p90": p90,
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "cell_wall_ms": wall_ms,
        "csv_sha256": digest,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **notes,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(run_record, fh, indent=2)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}  cells {attempted}")
    print(f"nproc {environment['nproc']}  python {environment['python']}  numpy {environment['numpy']}  "
          f"blas {environment['blas']}  env {environment['env']}")
    print(f"loadavg before {load_before}  after {run_record['loadavg_after']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for name, value in (("cell_ms_p50", p50), ("cell_ms_p90", p90)):
        shown = "n/a (fewer than ten cells beyond it)" if value is None else f"{value:.6g} ms"
        print(f"  {name} {shown}  (n={len(wall_ms)}, not gated)")
    print(f"  failed_frac {run_record['failed_frac']:.6g}  ({len(failures)} of {attempted}, not gated)")
    for failure in failures[:10]:
        print(f"  failed cell {failure['cell']}: {failure['class']}: {failure['message']}")
    print(f"csv sha256 {digest}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": run_record["metrics"],
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
