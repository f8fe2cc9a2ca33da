"""Write the benchmark workloads' sweep CSVs, and compare two sets of them.

Usage, from the root of a checkout:

    python tools/parity.py write DIR --seeds 300 500-519
    python tools/parity.py reference DIR --seeds 0-3 --trials 32
    python tools/parity.py illuminations DIR --seeds 300-309 --trials 16
    python tools/parity.py scale DIR --m 128,512,2048,8192 --trials 8 --seeds 300
    python tools/parity.py scale DIR --m 128,2048 --trials 64 --seeds 300 --workers 1,2
    python tools/parity.py compare A B

``write`` builds each workload of ``perfbench/bench.py`` at each seed, runs it
with ``run_sweep(spec, workers=1)`` on the ``src`` of the checkout this file
sits in, writes ``<workload>-<seed>.csv`` and, from the same records through
``write_summary``, ``<workload>-<seed>-summary.csv`` into DIR, and prints each
file's sha256.  To get a parent commit's files, run a copy of this file from the root
of that commit's checkout.

``reference`` writes ``reference-<constraint>-<seed>.csv`` for rp and tp: the
default power sweep (every grid value, the default methods and solver) at
base seed ``seed``, cut to ``--trials`` trials.  Each grid value runs as a
sweep of its own, which gives the rows that the whole sweep gives, so that the
CPU seconds of each can be printed after the file's sha256.  ``compare`` then
reports the converged-point means and iterations of a numerical change.

``illuminations`` writes ``illuminations-<constraint>-<seed>.csv`` the same
way: that power sweep at 20 and 40 dBm only, over every method and every
illumination (full, partial, separate), with ``bcd_max_iters: 30``.  The
workloads run the full illumination only, so these files are the ones that
cover the ZF-WF and BCD batches of partial and separate illumination.

``scale`` writes ``scale-<M>-<seed>.csv``: the ``rp_40dbm`` workload (RP at 40
dBm, BCD cap 50, methods wmmse_bcd, zf_wf and random_phases) cut to
``--trials``, on a 2c x c surface of M = 2 c^2 elements, for each M of ``--m``
(any other M is refused).  Each M runs in a fresh child process, which prints
after each file's sha256 line its wall and CPU ms per trial, the child's own
peak RSS, the mean WSR per method and the BLAS thread variables.  With
``--workers 1,2`` each M runs once per worker count, each in its own child,
through ``run_sweep(spec, workers=N)``; a run at N > 1 workers writes
``scale-<M>-w<N>-<seed>.csv``, counts its pool's CPU in the CPU figure and adds
the number of trial ranges and the largest worker's peak RSS to its line.  After
the children of an M, one line gives the wall-time ratio of 1 worker over N
workers and whether the files' sha256s agree.

``compare`` pairs the files of A and B by name and their columns by header
name; a summary, which has no ``wsr`` or ``iterations`` column, is compared by
its shared columns, and its WSR and iterations figures read nan.  Per file it prints the number of rows whose shared columns differ, the
rows whose ``iterations`` changed, the largest relative WSR change and the
mean finite WSR on each side, and names any column that only one side has.
Under each file it prints one line per method: the mean finite WSR and the
mean ``iterations`` on each side, the cells whose WSR went up and down, the
largest relative rise and drop (over the rows finite on both sides) and the
rows whose ``iterations`` changed; then one line per differing row: its trial,
method and illumination, both WSRs, the relative change and both
``iterations``.  It exits 1 if a file is missing on one side, the row counts
differ or a shared column differs in any row, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(items) -> list:
    """Seeds from items such as "300" and "500-519" (inclusive ranges)."""
    seeds = []
    for item in items:
        first, _, last = item.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write(directory: str, seeds) -> dict:
    """Write every workload at every seed into ``directory``; return {file name: sha256}."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import bench
    from itsbeam.harness import run_sweep, write_results, write_summary

    os.makedirs(directory, exist_ok=True)
    digests = {}
    for workload in bench.WORKLOADS:
        for seed in seeds:
            records = run_sweep(bench.build_spec(bench.mapping(workload, seed)), workers=1)
            for name, writer in ((f"{workload}-{seed}.csv", write_results),
                                 (f"{workload}-{seed}-summary.csv", write_summary)):
                writer(records, os.path.join(directory, name))
                digests[name] = _sha256(os.path.join(directory, name))
                print(f"{digests[name]}  {name}", flush=True)
    return digests


def _reference_spec(constraint, seed: int, trials: int):
    """The default power sweep under ``constraint``, cut to ``trials`` at base seed ``seed``."""
    from itsbeam import SweepKind, default_experiment_spec

    return replace(default_experiment_spec(SweepKind.POWER, constraint),
                   trials=trials, base_seed=seed)


def _illuminations_spec(constraint, seed: int, trials: int):
    """The reference power sweep at 20 and 40 dBm over every method and illumination,
    with a BCD cap of 30."""
    from itsbeam import IlluminationMode, Method

    spec = _reference_spec(constraint, seed, trials)
    return replace(spec, grid=(20.0, 40.0), methods=tuple(Method),
                   illuminations=tuple(IlluminationMode),
                   solver=replace(spec.solver, bcd_max_iters=30))


def _scale_spec(m: int, seed: int, trials: int):
    """The rp_40dbm workload cut to ``trials``, on a 2c x c surface of M = 2 c^2 elements."""
    import bench
    from itsbeam import spec_from_mapping

    c = math.isqrt(m // 2)
    geometry = {"n_elements": m, "grid_rows": 2 * c, "grid_cols": c}
    return spec_from_mapping(dict(bench.mapping("rp_40dbm", seed, trials=trials),
                                  geometry=geometry))


SWEEPS = {"reference": _reference_spec, "illuminations": _illuminations_spec, "scale": _scale_spec}


def _cpu() -> float:
    """CPU seconds of this process and of its children that have ended (a pool's workers)."""
    times = os.times()
    return time.process_time() + times.children_user + times.children_system


def sweeps(name: str, directory: str, seeds, trials: int, variants=None, workers: int = 1) -> list:
    """Write ``<name>-<label>-<seed>.csv``, the spec of ``SWEEPS[name]`` at each variant of
    ``variants`` ({label: variant}; rp and tp by default) and every seed, into ``directory``,
    through ``run_sweep(spec, workers)``; print each file's sha256 and CPU seconds, and
    return its path, wall and CPU seconds."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from itsbeam import ConstraintKind
    from itsbeam.harness import run_sweep, write_results

    os.makedirs(directory, exist_ok=True)
    written = []
    for label, variant in (variants or {c.value: c for c in ConstraintKind}).items():
        for seed in seeds:
            spec = SWEEPS[name](variant, seed, trials)
            records, cpu, wall = [], {}, time.perf_counter()
            for value in spec.grid:
                start = _cpu()
                records += run_sweep(replace(spec, grid=(value,)), workers=workers)
                cpu[value] = _cpu() - start
            wall = time.perf_counter() - wall
            file_name = f"{name}-{label}-{seed}.csv"
            path = os.path.join(directory, file_name)
            write_results(records, path)
            per_value = ", ".join(f"{value:g}: {seconds:.2f}" for value, seconds in cpu.items())
            total = math.fsum(cpu.values())
            print(f"{_sha256(path)}  {file_name}  cpu {total:.2f} s ({per_value})", flush=True)
            written.append((path, wall, total))
    return written


def parse_sizes(text: str) -> list:
    """Surface sizes from "128,512"; each must be M = 2 c^2, a 2c x c grid."""
    sizes = [int(part) for part in text.split(",")]
    bad = [m for m in sizes if m < 2 or 2 * math.isqrt(m // 2) ** 2 != m]
    if bad:
        raise argparse.ArgumentTypeError(f"M must be 2 c^2 for a whole c, not {bad}")
    return sizes


def parse_workers(text: str) -> list:
    """Worker counts from "1,2"; each at least 1."""
    counts = [int(part) for part in text.split(",")]
    if min(counts) < 1:
        raise argparse.ArgumentTypeError(f"worker counts must be at least 1, not {counts}")
    return counts


def scale_size(directory: str, m: str, trials: str, workers: str, *seeds: str) -> None:
    """``scale`` at one M and worker count, in this process: each file's sha256 line, then its
    wall and CPU ms per trial, this process's peak RSS, the mean WSR per method and the BLAS
    thread variables; at more than one worker, the trial ranges and the largest worker's RSS."""
    trials, workers = int(trials), int(workers)
    label = m if workers == 1 else f"{m}-w{workers}"
    files = sweeps("scale", directory, [int(seed) for seed in seeds], trials, {label: int(m)},
                   workers)
    import bench

    blas = " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in bench.BLAS_ENV)
    for path, wall, cpu in files:
        methods = {}
        for row in _read(path)[0]:
            methods.setdefault(row["method"], []).append(row)
        wsr = ", ".join(f"{method} {_mean(rows):.4f}" for method, rows in methods.items())
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        pool = ""
        if workers > 1:  # an older checkout's harness lacks _ranges
            from itsbeam.harness import _ranges

            ranges = len(_ranges(_scale_spec(int(m), 0, trials), workers))
            largest = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            pool = f"; {workers} workers, {ranges} ranges, largest worker's peak rss {largest:.1f} MB"
        print(f"  wall {1e3 * wall / trials:.1f} ms/trial, cpu {1e3 * cpu / trials:.1f} ms/trial, "
              f"peak rss {peak:.1f} MB; mean wsr {wsr}; {blas}{pool}", flush=True)


def scale(directory: str, sizes, seeds, trials: int, workers=(1,)) -> None:
    """Run ``scale_size`` at each M and worker count in a fresh child process and print what
    it prints; then, per M and worker count N > 1, the wall-time ratio of 1 worker over N and
    whether the files at N workers have the sha256s of those at 1 worker."""
    child = ("import sys; sys.path.insert(0, sys.argv[1]); import parity; "
             "parity.scale_size(*sys.argv[2:])")
    for m in sizes:
        wall = {}
        for count in workers:
            out = subprocess.run(
                [sys.executable, "-c", child, os.path.dirname(os.path.abspath(__file__)),
                 directory, str(m), str(trials), str(count), *map(str, seeds)],
                stdout=subprocess.PIPE, text=True, check=True,
            ).stdout
            print(out, end="", flush=True)
            wall[count] = math.fsum(float(line.split()[1]) for line in out.splitlines()
                                    if line.startswith("  wall "))
        for count in (c for c in workers if c > 1 and 1 in wall):
            agree = all(_sha256(os.path.join(directory, f"scale-{m}-{seed}.csv"))
                        == _sha256(os.path.join(directory, f"scale-{m}-w{count}-{seed}.csv"))
                        for seed in seeds)
            print(f"M {m}: wall at 1 worker / {count} workers {wall[1] / wall[count]:.2f}, "
                  f"sha256 {'same' if agree else 'DIFFERENT'}", flush=True)


def _read(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader), list(reader.fieldnames or [])


def _mean(rows, column: str = "wsr") -> float:
    finite = [v for v in (float(row.get(column, "nan")) for row in rows) if math.isfinite(v)]
    return math.fsum(finite) / len(finite) if finite else math.nan


def _relative(a: dict, b: dict) -> float:
    """The relative WSR change from row a to row b; nan unless both are finite."""
    wsr_a, wsr_b = float(a.get("wsr", "nan")), float(b.get("wsr", "nan"))
    if not (math.isfinite(wsr_a) and math.isfinite(wsr_b)):
        return math.nan
    if wsr_a == wsr_b:
        return 0.0
    return (wsr_b - wsr_a) / abs(wsr_a) if wsr_a else math.copysign(math.inf, wsr_b - wsr_a)


def _changes(rows_a, rows_b) -> dict:
    """Cells up and down, the largest relative WSR rise and drop, and the iterations changes."""
    rel = [_relative(a, b) for a, b in zip(rows_a, rows_b)]
    return {"up": sum(r > 0 for r in rel), "down": sum(r < 0 for r in rel),
            "largest_rise": max([0.0] + [r for r in rel if r > 0]),
            "largest_drop": min([0.0] + [r for r in rel if r < 0]),
            "iterations_changed": sum(a.get("iterations") != b.get("iterations")
                                      for a, b in zip(rows_a, rows_b))}


def compare_files(path_a: str, path_b: str) -> dict:
    """The differences between two sweep CSVs, matched row by row and column by name."""
    rows_a, columns_a = _read(path_a)
    rows_b, columns_b = _read(path_b)
    shared = [name for name in columns_a if name in columns_b]
    changed = [
        {"trial": a.get("trial"), "method": a.get("method"), "illumination": a.get("illumination"),
         "wsr": (a.get("wsr"), b.get("wsr")), "relative": _relative(a, b),
         "iterations": (a.get("iterations"), b.get("iterations"))}
        for a, b in zip(rows_a, rows_b) if any(a[name] != b[name] for name in shared)
    ]
    moved = [abs(row["relative"]) for row in changed if row["wsr"][0] != row["wsr"][1]]
    methods = {}
    for side, rows in enumerate((rows_a, rows_b)):
        for row in rows:
            methods.setdefault(row.get("method", ""), ([], []))[side].append(row)
    return {
        "methods": {
            name: dict(mean_wsr=(_mean(a), _mean(b)),
                       mean_iterations=(_mean(a, "iterations"), _mean(b, "iterations")),
                       **_changes(a, b))
            for name, (a, b) in sorted(methods.items())
        },
        "rows": (len(rows_a), len(rows_b)),
        "only_a": [name for name in columns_a if name not in columns_b],
        "only_b": [name for name in columns_b if name not in columns_a],
        "changed": changed,
        "differing_rows": len(changed),
        "iterations_changed": sum(row["iterations"][0] != row["iterations"][1] for row in changed),
        "max_rel_wsr": max([0.0] + [math.inf if math.isnan(r) else r for r in moved]),  # nan vs number
        "mean_wsr": (_mean(rows_a), _mean(rows_b)),
    }


def same(report: dict) -> bool:
    """Whether a report shows equal row counts and equal shared columns in every row."""
    return report["rows"][0] == report["rows"][1] and report["differing_rows"] == 0


def compare(dir_a: str, dir_b: str) -> bool:
    """Print the report of every file of A and B; return whether all of them are the same."""
    names_a = {n for n in os.listdir(dir_a) if n.endswith(".csv")}
    names_b = {n for n in os.listdir(dir_b) if n.endswith(".csv")}
    ok = names_a == names_b
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {dir_a if name in names_a else dir_b}")
    for name in sorted(names_a & names_b):
        report = compare_files(os.path.join(dir_a, name), os.path.join(dir_b, name))
        ok = ok and same(report)
        columns = "".join(
            f"; only in {side}: {','.join(report[key])}"
            for side, key in (("A", "only_a"), ("B", "only_b")) if report[key]
        )
        print(
            f"{name}: rows {report['rows'][0]}/{report['rows'][1]}, "
            f"{report['differing_rows']} differ, {report['iterations_changed']} iterations changed, "
            f"max rel wsr {report['max_rel_wsr']:.3g}, "
            f"mean wsr {report['mean_wsr'][0]!r} / {report['mean_wsr'][1]!r}{columns}"
        )
        for method, part in report["methods"].items():
            print(
                f"  {method}: mean wsr {part['mean_wsr'][0]!r} / {part['mean_wsr'][1]!r}, "
                f"mean iterations {part['mean_iterations'][0]:.2f} / {part['mean_iterations'][1]:.2f}, "
                f"{part['up']} up, {part['down']} down, largest rise {part['largest_rise']:+.2e}, "
                f"largest drop {part['largest_drop']:+.2e}, "
                f"{part['iterations_changed']} iterations changed"
            )
        for row in report["changed"]:
            print(
                f"  trial {row['trial']} {row['method']} {row['illumination']}: "
                f"wsr {row['wsr'][0]} / {row['wsr'][1]} ({row['relative']:+.2e}), "
                f"iterations {row['iterations'][0]} / {row['iterations'][1]}"
            )
    print("same" if ok else "DIFFERENT")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="parity", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    writer = sub.add_parser("write", help="write <workload>-<seed>.csv and its -summary.csv for "
                            "every workload and seed")
    writer.add_argument("directory")
    writer.add_argument("--seeds", nargs="+", required=True, help='seeds or ranges, e.g. 300 500-519')
    ref = sub.add_parser("reference", help="write reference-<constraint>-<seed>.csv, the default "
                         "power sweep cut to --trials, for rp and tp at every seed")
    lit = sub.add_parser("illuminations", help="write illuminations-<constraint>-<seed>.csv, "
                         "every method and illumination at 20 and 40 dBm, for rp and tp")
    sizes = sub.add_parser("scale", help="write scale-<M>-<seed>.csv, rp_40dbm on a 2c x c "
                           "surface, each M in a fresh process")
    sizes.add_argument("--m", type=parse_sizes, required=True, help="sizes M = 2 c^2, e.g. 128,512")
    sizes.add_argument("--workers", type=parse_workers, default=[1],
                       help="worker counts of run_sweep, each M in a child per count, e.g. 1,2")
    for sweep in (ref, lit, sizes):
        sweep.add_argument("directory")
        sweep.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges, e.g. 0-3")
        sweep.add_argument("--trials", type=int, required=True)
    comparer = sub.add_parser("compare", help="compare the CSV files of two directories")
    comparer.add_argument("a")
    comparer.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.directory, parse_seeds(args.seeds))
        return 0
    if args.command == "scale":
        scale(args.directory, args.m, parse_seeds(args.seeds), args.trials, args.workers)
        return 0
    if args.command in SWEEPS:
        sweeps(args.command, args.directory, parse_seeds(args.seeds), args.trials)
        return 0
    return 0 if compare(args.a, args.b) else 1


if __name__ == "__main__":
    sys.exit(main())
