"""Command line front end: ``itsbeam sweep | solve | selfcheck``.

``sweep`` runs a Monte Carlo sweep and writes the detail CSV (plus optional
summary CSV and plot script); ``solve`` runs one instance and dumps the
solution as JSON; ``selfcheck`` runs the built-in invariant checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .config import load_experiment_spec
from .errors import BeamformingError
from .harness import (
    Method,
    dbm_to_watts,
    emit_plot_script,
    run_sweep,
    solve_cell,
    trial_seed,
    write_results,
    write_summary,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itsbeam",
        description="Transmissive-surface downlink beamforming experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep and write CSV results")
    sweep.add_argument("--kind", choices=["power", "distance", "loss"], default=None)
    sweep.add_argument("--constraint", choices=["rp", "tp"], default=None)
    sweep.add_argument("--config", default=None, help="YAML configuration file")
    sweep.add_argument("--trials", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", required=True, help="detail CSV output path")
    sweep.add_argument("--plot", default=None, help="write a matplotlib script here")
    sweep.add_argument("--summary", default=None, help="also write a summary CSV here")
    sweep.add_argument("--workers", type=int, default=1)

    solve = sub.add_parser("solve", help="solve one instance and dump the solution")
    solve.add_argument("--config", default=None)
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--method", choices=[m.value for m in Method], default="wmmse_bcd")
    solve.add_argument("--constraint", choices=["rp", "tp"], default=None)
    solve.add_argument("--dump-solution", required=True, help="JSON output path")

    sub.add_parser("selfcheck", help="run built-in invariant checks")
    return parser


def _overrides_from_args(args) -> dict:
    """The flags as a ``sweep`` override; an absent flag is None and keeps the file's value."""
    return {
        "sweep": {
            "kind": getattr(args, "kind", None),
            "constraint": args.constraint,
            "trials": getattr(args, "trials", None),
            "base_seed": args.seed,
        }
    }


def _cmd_sweep(args) -> int:
    spec = load_experiment_spec(args.config, _overrides_from_args(args))
    records = run_sweep(spec, workers=max(1, args.workers))
    write_results(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    if args.summary:
        write_summary(records, args.summary)
        print(f"wrote summary to {args.summary}")
    if args.plot:
        emit_plot_script(spec, args.out, args.plot)
        print(f"wrote plot script to {args.plot}")
    return 0


def _cmd_solve(args) -> int:
    spec = load_experiment_spec(args.config, _overrides_from_args(args))
    # Only trial 0 is read; one trial changes no draw, and its queues solve no other.
    spec = replace(spec, trials=1)
    method = Method(args.method)
    value = spec.power_budget_dbm if spec.sweep.value == "power" else spec.grid[0]
    solution, applied = solve_cell(spec, value, 0, method, spec.illuminations[0])
    payload = {
        "method": method.value,
        "constraint": applied.value,
        "seed": trial_seed(spec.base_seed, 0),
        "power_budget_watts": dbm_to_watts(spec.power_budget_dbm),
        "wsr": solution.wsr,
        "sinr": solution.sinr.tolist(),
        "spectral_efficiency": solution.spectral_efficiency.tolist(),
        "constraint_slack": solution.constraint_slack,
        "phases": solution.phases.phases.tolist(),
        "precoder_real": np.real(solution.precoder.matrix).tolist(),
        "precoder_imag": np.imag(solution.precoder.matrix).tolist(),
        "trace": [[int(i), float(v)] for i, v in solution.trace],
        "detail": solution.detail,
    }
    with open(args.dump_solution, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wsr {solution.wsr:.4f} bits/s/Hz; solution written to {args.dump_solution}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "selfcheck":
            from .selfcheck import run_selfcheck

            return 0 if run_selfcheck() else 1
    except BeamformingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
