"""Write the benchmark workloads' sweep CSVs, and compare two sets of them.

Usage, from the root of a checkout:

    python tools/parity.py write DIR --seeds 300 500-519
    python tools/parity.py reference DIR --seeds 0-3 --trials 32
    python tools/parity.py compare A B

``write`` builds each workload of ``perfbench/bench.py`` at each seed, runs it
with ``run_sweep(spec, workers=1)`` on the ``src`` of the checkout this file
sits in, writes ``<workload>-<seed>.csv`` into DIR and prints each file's
sha256.  To get a parent commit's files, run a copy of this file from the root
of that commit's checkout.

``reference`` writes ``reference-<constraint>-<seed>.csv`` for rp and tp: the
default power sweep (every grid value, the default methods and solver) at
base seed ``seed``, cut to ``--trials`` trials.  Each grid value runs as a
sweep of its own, which gives the rows that the whole sweep gives, so that the
CPU seconds of each can be printed after the file's sha256.  ``compare`` then
reports the converged-point means and iterations of a numerical change.

``compare`` pairs the files of A and B by name and their columns by header
name.  Per file it prints the number of rows whose shared columns differ, the
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
    from itsbeam.harness import run_sweep, write_results

    os.makedirs(directory, exist_ok=True)
    digests = {}
    for workload in bench.WORKLOADS:
        for seed in seeds:
            name = f"{workload}-{seed}.csv"
            path = os.path.join(directory, name)
            write_results(run_sweep(bench.build_spec(bench.mapping(workload, seed)), workers=1), path)
            digests[name] = _sha256(path)
            print(f"{digests[name]}  {name}", flush=True)
    return digests


def reference(directory: str, seeds, trials: int) -> None:
    """Write the default power sweep, rp and tp, cut to ``trials`` at every seed into
    ``directory``, printing each file's sha256 and CPU seconds."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from itsbeam import ConstraintKind, SweepKind, default_experiment_spec
    from itsbeam.harness import run_sweep, write_results

    os.makedirs(directory, exist_ok=True)
    for constraint in ConstraintKind:  # rp, then tp
        for seed in seeds:
            spec = replace(default_experiment_spec(SweepKind.POWER, constraint),
                           trials=trials, base_seed=seed)
            records, cpu = [], {}
            for value in spec.grid:
                start = time.process_time()
                records += run_sweep(replace(spec, grid=(value,)), workers=1)
                cpu[value] = time.process_time() - start
            name = f"reference-{constraint.value}-{seed}.csv"
            path = os.path.join(directory, name)
            write_results(records, path)
            per_value = ", ".join(f"{value:g}: {seconds:.2f}" for value, seconds in cpu.items())
            print(f"{_sha256(path)}  {name}  cpu {math.fsum(cpu.values()):.2f} s ({per_value})",
                  flush=True)


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
    writer = sub.add_parser("write", help="write <workload>-<seed>.csv for every workload and seed")
    writer.add_argument("directory")
    writer.add_argument("--seeds", nargs="+", required=True, help='seeds or ranges, e.g. 300 500-519')
    ref = sub.add_parser("reference", help="write reference-<constraint>-<seed>.csv, the default "
                         "power sweep cut to --trials, for rp and tp at every seed")
    ref.add_argument("directory")
    ref.add_argument("--seeds", nargs="+", required=True, help="base seeds or ranges, e.g. 0-3")
    ref.add_argument("--trials", type=int, required=True)
    comparer = sub.add_parser("compare", help="compare the CSV files of two directories")
    comparer.add_argument("a")
    comparer.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.directory, parse_seeds(args.seeds))
        return 0
    if args.command == "reference":
        reference(args.directory, parse_seeds(args.seeds), args.trials)
        return 0
    return 0 if compare(args.a, args.b) else 1


if __name__ == "__main__":
    sys.exit(main())
