"""Workloads, the cell loop and the end-to-end metrics of the itsbeam benchmark.

The benchmark drives the package only through its public entry points:
``itsbeam.config.spec_from_mapping`` builds the spec and
``itsbeam.harness.run_trial`` runs each cell, in the order ``run_sweep`` uses.
``numpy`` and ``itsbeam`` are imported inside the functions, never at module
level, so that the timed set-up of a fresh process covers their import.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import statistics
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Each workload is a plain config mapping; the run's seed becomes base_seed.
# The work of a cell varies with its trial's draw, so each workload holds as
# many trials as fit in one pass of about 35 s: the more trials a run holds,
# the less its figures move with the seed.
# rp_40dbm: the reference configuration under RP at 40 dBm, with the BCD cap
# cut from 200 to 50 iterations.  Every wmmse_bcd solve stops at the cap, and
# the phase block dominates.  At the default cap a BCD cell takes 1 to 6 s,
# depending on its draw, so only 12 trials fit in a run; at 50, 40 trials fit.
# (At 20 dBm the iterations of six trials ranged from 240 to 814 between
# seeds, which no bound could hold.)
# tp_frozen: TP with frozen or absent phases; the phase block never runs, the
# dual search dominates, and cheap ZF cells put geometry, channel and harness
# overhead at the median.  It is the only workload on the no-surface path.
# One loss value: no_its ignores the surface loss, so on a grid of three its
# cells repeat each trial three times, and the seed-to-seed spread grows.
WORKLOADS = {
    "rp_40dbm": {
        "sweep": {
            "kind": "power",
            "grid": [40],
            "constraint": "rp",
            "methods": ["wmmse_bcd", "zf_wf", "random_phases"],
            "trials": 40,
        },
        "solver": {"bcd_max_iters": 50},
    },
    "tp_frozen": {
        "sweep": {
            "kind": "loss",
            "grid": [7.5],
            "constraint": "tp",
            "methods": ["zf_wf", "random_phases", "no_its"],
            "trials": 500,
        }
    },
}

# Fixed slice of the RP reference configuration, at the 30 dBm reference
# point, timed at one and two workers in the traced run.
WORKERS_SLICE = {"grid": [30], "methods": ["wmmse_bcd"], "trials": 2}

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def mapping(workload: str, seed: int, **sweep_overrides) -> dict:
    """The workload's config mapping with ``base_seed`` set from the run's seed."""
    sweep = dict(WORKLOADS[workload]["sweep"], base_seed=seed % 2**32, **sweep_overrides)
    return dict(WORKLOADS[workload], sweep=sweep)


def build_spec(config: dict):
    from itsbeam.config import spec_from_mapping

    return spec_from_mapping(config)


def cells(spec):
    """The (grid value, trial, method, illumination) cells in run_sweep's order."""
    return [
        (value, trial, method, illumination)
        for value in spec.grid
        for trial in range(spec.trials)
        for method in spec.methods
        for illumination in spec.illuminations
    ]


def timed_setup(workload: str, seed: int):
    """Import itsbeam, build the spec and run one warm-up cell; return (spec, seconds).

    The warm-up cell is the zf_wf cell at the first grid value and trial 0:
    it builds the workload's geometry and channel and runs its BLAS calls at
    full size, yet costs milliseconds, so set-up can be repeated in every run.
    """
    start = time.perf_counter()
    from itsbeam import harness

    spec = build_spec(mapping(workload, seed))
    harness.run_trial(spec, spec.grid[0], 0, harness.Method.ZF_WF, spec.illuminations[0])
    return spec, time.perf_counter() - start


@dataclass
class PassResult:
    """One pass over every cell of a spec."""

    records: list = field(default_factory=list)  # ResultRecord, or None where the cell raised
    wall_ms: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # {"cell", "class", "message"}
    wall_s: float = 0.0
    cpu_s: float = 0.0


def run_pass(spec, tracer=None, between_cells=None) -> PassResult:
    """Run every cell of ``spec`` once; a failing cell is recorded, never raised.

    A cell fails when ``run_trial`` returns a NaN WSR (it caught a
    ``SolverError``) or when a ``BeamformingError`` or ``LinAlgError`` escapes
    it.  With a tracer, each cell runs inside a ``harness.cell`` span.
    ``between_cells``, if given, is called before each cell, outside its timing.
    """
    import numpy as np
    from itsbeam import harness
    from itsbeam.errors import BeamformingError

    result = PassResult()
    for index, cell in enumerate(cells(spec)):
        if between_cells is not None:
            between_cells()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                record = harness.run_trial(spec, *cell)
            else:
                tracer.cell = index
                record = tracer.call("harness.cell", harness.run_trial, spec, *cell)
        except (BeamformingError, np.linalg.LinAlgError) as exc:
            record = None
            result.failures.append({"cell": index, "class": type(exc).__name__, "message": str(exc)})
        else:
            if math.isnan(record.wsr):
                result.failures.append(
                    {"cell": index, "class": "SolverError", "message": "caught in run_trial; wsr is NaN"}
                )
        result.cpu_s += time.process_time() - cpu_start
        result.wall_ms.append(1000.0 * (time.perf_counter() - start))
        result.records.append(record)
    result.wall_s = sum(result.wall_ms) / 1000.0
    return result


def run_passes(spec, seconds: float, between_cells=None) -> list:
    """Repeat whole passes while another one is expected to end within ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(spec, between_cells=between_cells))
        if time.perf_counter() - start + passes[-1].wall_s > seconds:
            return passes


def rerun_first_trial(config: dict) -> PassResult:
    """Run the cells of trial 0 again, untimed by any metric, to check a rerun."""
    return run_pass(build_spec(dict(config, sweep=dict(config["sweep"], trials=1))))


def write_csv(records, path) -> str:
    """Write the records with ``itsbeam.harness.write_results``; return the file's sha256."""
    from itsbeam.harness import write_results

    write_results([r for r in records if r is not None], path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_outputs(spec, passes, rerun=None) -> list:
    """Problems with the outputs.

    These are a non-finite or negative WSR, iterations over the cap, a record
    that does not match its cell, and a later pass, or the ``rerun`` of
    trial 0, whose records differ from the first pass's.
    """
    problems = []
    cap = spec.solver.bcd_max_iters
    first = passes[0].records
    rows = [r and r.to_csv_row() for r in first]
    for index, ((value, trial, method, _), record) in enumerate(zip(cells(spec), first)):
        if record is None or math.isnan(record.wsr):
            continue
        if not math.isfinite(record.wsr) or record.wsr < 0:
            problems.append(f"cell {index}: wsr {record.wsr!r}")
        if not 0 <= record.iterations <= cap:
            problems.append(f"cell {index}: {record.iterations} iterations, cap {cap}")
        if (record.sweep_value, record.trial, record.method) != (value, trial, method.value):
            problems.append(f"cell {index}: record does not match its cell")
    for number, later in enumerate(passes[1:], start=2):
        if [r and r.to_csv_row() for r in later.records] != rows:
            problems.append(f"pass {number} records differ from pass 1")
    if rerun is not None:
        trial0 = [row for row, (_, trial, _, _) in zip(rows, cells(spec)) if trial == 0]
        if [r and r.to_csv_row() for r in rerun.records] != trial0:
            problems.append("rerun of trial 0 differs from pass 1")
    return problems


def percentile(samples, q: float):
    """The q-th percentile, or None unless at least ten samples lie beyond it."""
    if len(samples) * (100 - q) < 1000:
        return None
    return statistics.quantiles(samples, n=100, method="inclusive")[int(q) - 1]


def end_to_end(passes, setup_samples) -> dict:
    """The gated metrics: {name: (value, unit)}.

    Cell-time percentiles are printed by the caller but not gated: on both
    workloads the median falls on the boundary between cheap and costly
    methods, so it moves with the seed far more than any bound allows.
    """
    import resource

    cells_run = sum(len(p.wall_ms) for p in passes)
    wsr = [r.wsr for r in passes[0].records if r is not None and math.isfinite(r.wsr)]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "cells_per_s": (cells_run / sum(p.wall_s for p in passes), "1/s"),
        "cpu_ms_per_cell": (1000.0 * sum(p.cpu_s for p in passes) / cells_run, "ms"),
        "wsr_mean": (statistics.fmean(wsr) if wsr else math.nan, "bit/s/Hz"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def environment() -> dict:
    """Machine and library facts recorded with every run; BLAS thread variables as found."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 only prints its configuration
        text = io.StringIO()
        with redirect_stdout(text):
            np.show_config()
        blas = {"name": text.getvalue()}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "env": {name: os.environ.get(name) for name in BLAS_ENV},
    }
