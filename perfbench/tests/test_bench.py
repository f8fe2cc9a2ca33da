"""Tests of the benchmark itself: spans, percentiles, wrappers and failure capture.

Run from the root of the repository: python3 -m pytest perfbench/tests
"""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import bench
import itsbeam.harness
import itsbeam.wmmse
from tracer import PLAN, Tracer, layer_metrics, layer_times


def tiny_spec(workload="rp_40dbm"):
    config = bench.mapping(workload, 3, trials=1)
    config["sweep"]["grid"] = config["sweep"]["grid"][-1:]
    config["solver"] = {"bcd_max_iters": 4, "pga_max_iters": 3}
    return config, bench.build_spec(config)


def test_self_time_of_nested_spans():
    spans = [
        ["a", 0.0, 10.0, None, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["d", 5.0, 7.0, 0, 0],
        ["b", 8.0, 9.0, 0, 0],
    ]
    total, self_time, calls = layer_times(spans)
    assert total == {"a": 10.0, "b": 4.0, "c": 1.0, "d": 2.0}
    assert self_time == {"a": 4.0, "b": 3.0, "c": 1.0, "d": 2.0}
    assert calls["b"] == 2


def test_tracer_call_nests_spans():
    tracer = Tracer(plan=())
    tracer.call("outer", lambda: tracer.call("inner", lambda: None))
    (outer, _, _, parent_o, _), (inner, _, _, parent_i, _) = tracer.spans
    assert (outer, parent_o, inner, parent_i) == ("outer", None, "inner", 0)


def test_percentile_needs_ten_samples_beyond():
    assert bench.percentile(list(range(99)), 90) is None
    assert bench.percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert bench.percentile(list(range(19)), 50) is None
    assert bench.percentile(list(range(20)), 50) == pytest.approx(9.5)


def test_wrappers_removed_after_traced_run():
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in PLAN}
    _, spec = tiny_spec()
    with Tracer() as tracer:
        assert itsbeam.harness.bcd_solve is not originals[("itsbeam.harness", "bcd_solve")]
        bench.run_pass(spec, tracer)
    assert all(getattr(sys.modules[m], a) is fn for (m, a), fn in originals.items())
    assert tracer.absent == []


def test_missing_name_is_reported_absent():
    plan = (
        ("itsbeam.wmmse", "_no_such_phase_block", "wmmse.phase", "span"),
        ("itsbeam.no_such_module", "anything", "geometry", "span"),
        ("itsbeam.harness", "bcd_solve", "wmmse", "span"),
    )
    _, spec = tiny_spec()
    with Tracer(plan) as tracer:
        result = bench.run_pass(spec, tracer)
    assert tracer.absent == ["itsbeam.wmmse._no_such_phase_block", "itsbeam.no_such_module.anything"]
    assert not hasattr(itsbeam.wmmse, "_no_such_phase_block")
    metrics = layer_metrics(tracer)
    assert metrics["wmmse.phase_ms"][0] == 0.0
    assert metrics["wmmse.self_ms"][0] == pytest.approx(metrics["wmmse.ms"][0])
    assert metrics["wmmse.solves"][0] == 2 and result.failures == []


def test_injected_linalg_error_is_counted(monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(itsbeam.harness, "bcd_solve", broken)
    _, spec = tiny_spec()
    result = bench.run_pass(spec)
    assert [f["class"] for f in result.failures] == ["LinAlgError", "LinAlgError"]
    assert result.failures[0]["message"] == "injected"
    assert [r is None for r in result.records] == [True, False, True]
    assert math.isfinite(result.records[1].wsr)


def test_traced_pass_matches_untraced_and_counts_layers():
    _, spec = tiny_spec()
    plain = bench.run_pass(spec)
    with Tracer() as tracer:
        traced = bench.run_pass(spec, tracer)
    assert bench.check_outputs(spec, [plain, traced]) == []
    metrics = {k: v for k, (v, _) in layer_metrics(tracer).items()}
    assert metrics["wmmse.solves"] == 2
    assert metrics["wmmse.dual_searches"] == 2 * metrics["wmmse.outer_iters_per_solve"]
    assert metrics["wmmse.dual_evals_per_search"] >= 1
    assert metrics["wmmse.objective_evals"] > 0 and metrics["wmmse.phase_steps"] > 0
    assert metrics["zfwf.calls"] == 3 and metrics["geometry.calls"] == 6
    assert metrics["wmmse.cap_hit_frac"] > 0
    assert 0 < metrics["wmmse.self_ms"] < metrics["wmmse.ms"]


def test_check_outputs_flags_a_differing_rerun():
    config, spec = tiny_spec()
    result = bench.run_pass(spec)
    rerun = bench.rerun_first_trial(config)
    assert bench.check_outputs(spec, [result], rerun) == []
    record = rerun.records[1]
    rerun.records[1] = dataclasses.replace(record, iterations=record.iterations + 1)
    assert bench.check_outputs(spec, [result], rerun) == ["rerun of trial 0 differs from pass 1"]


def test_digest_matches_cli_sweep(tmp_path):
    for workload in bench.WORKLOADS:
        config, spec = tiny_spec(workload)
        result = bench.run_pass(spec)
        digest = bench.write_csv(result.records, tmp_path / "bench.csv")
        assert result.records == itsbeam.harness.run_sweep(spec)
        (tmp_path / "config.yaml").write_text(yaml.safe_dump(config))
        subprocess.run(
            [sys.executable, "-m", "itsbeam", "sweep", "--config", str(tmp_path / "config.yaml"),
             "--out", str(tmp_path / "cli.csv")],
            check=True, capture_output=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=bench.SRC),
        )
        assert hashlib.sha256((tmp_path / "cli.csv").read_bytes()).hexdigest() == digest
