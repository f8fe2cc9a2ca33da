"""Sweep harness: seeding, determinism, CSV output, config loading."""

import concurrent.futures
import math
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from itsbeam import (
    CSV_HEADER,
    ChannelError,
    ChannelParams,
    ConfigError,
    ConstraintKind,
    DimensionMismatchError,
    ExperimentSpec,
    GeometryConfig,
    GeometryError,
    IlluminationMode,
    Method,
    PhaseConfig,
    SolverError,
    SolverSettings,
    SweepKind,
    SystemInstance,
    bcd_solve,
    build_layout,
    characteristic_distance,
    constraint_value,
    dbm_to_watts,
    default_experiment_spec,
    emit_plot_script,
    load_experiment_spec,
    run_sweep,
    run_trial,
    sample_channel,
    sample_direct_channel,
    sample_user_drop,
    spec_from_mapping,
    trial_seed,
    write_results,
    write_summary,
    zfwf_solve,
)
import itsbeam.config as config
import itsbeam.harness as harness
import itsbeam.selfcheck as selfcheck
from itsbeam.harness import (
    LOOK_AHEAD, QUEUE_WIDTH, SPEED_OF_LIGHT, _bcd_init, _resolve_sweep, _trial_streams, memo, trial,
)


def tiny_spec(**sweep_overrides):
    """A desk-scale experiment that runs in well under a second per trial."""
    mapping = {
        "system": {"n_users": 2, "weights": [1.0, 1.0]},
        "geometry": {"n_active": 2, "n_elements": 8, "grid_rows": 4, "grid_cols": 2},
        "solver": {"bcd_max_iters": 25},
        "sweep": {
            "kind": "power",
            "grid": [20.0, 30.0],
            "trials": 2,
            "methods": ["zf_wf", "wmmse_bcd"],
            "constraint": "tp",
            **sweep_overrides,
        },
    }
    return spec_from_mapping(mapping)


def test_default_spec_reference_values():
    spec = default_experiment_spec()
    assert spec.noise_power == 1e-7
    assert spec.power_budget_dbm == 30.0
    assert spec.trials == 1000
    assert spec.base_seed == 0
    assert spec.weights == (1.0, 1.0, 1.0, 1.0)
    geo = spec.geometry
    wavelength = SPEED_OF_LIGHT / 28e9
    assert abs(geo.wavelength - wavelength) < 1e-15
    assert abs(geo.active_radius - wavelength) < 1e-15
    assert geo.kappa == 49.0
    assert abs(geo.surface_efficiency - 10.0 ** (-0.35)) < 1e-12
    r0 = characteristic_distance(128, 4, wavelength)
    assert abs(geo.separation - 10.0 * r0) < 1e-12
    assert spec.grid == (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    assert spec.methods == (Method.WMMSE_BCD, Method.ZF_WF, Method.RANDOM_PHASES)

    loss = default_experiment_spec(sweep=SweepKind.LOSS)
    assert loss.grid == (0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0)
    assert Method.NO_ITS in loss.methods

    dist = default_experiment_spec(sweep=SweepKind.DISTANCE)
    assert dist.grid == (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)


def test_dbm_conversion():
    assert abs(dbm_to_watts(30.0) - 1.0) < 1e-15
    assert abs(dbm_to_watts(0.0) - 1e-3) < 1e-18
    assert abs(dbm_to_watts(40.0) - 10.0) < 1e-14


def test_resolve_sweep_semantics():
    power = tiny_spec(kind="power", grid=[20.0])
    geometry, budget = _resolve_sweep(power, 20.0)
    assert abs(budget - 0.1) < 1e-15
    assert geometry.separation == power.geometry.separation

    loss = tiny_spec(kind="loss", grid=[0.0, 2.5], methods=["wmmse_bcd", "no_its"])
    geometry, budget = _resolve_sweep(loss, 0.0)
    assert geometry.surface_efficiency == 1.0
    assert abs(budget - dbm_to_watts(loss.power_budget_dbm)) < 1e-15
    geometry, _ = _resolve_sweep(loss, 2.5)
    assert abs(geometry.surface_efficiency - 10.0 ** (-0.25)) < 1e-15

    dist = tiny_spec(kind="distance", grid=[2.0])
    geometry, _ = _resolve_sweep(dist, 2.0)
    r0 = characteristic_distance(8, 2, dist.geometry.wavelength)
    assert abs(geometry.separation - 2.0 * r0) < 1e-12


def test_trial_seed_deterministic():
    assert trial_seed(0, 5) == trial_seed(0, 5)
    assert trial_seed(0, 5) != trial_seed(0, 6)
    assert trial_seed(0, 5) != trial_seed(1, 5)


def test_trial_streams_reproducible_and_distinct():
    a1, b1, c1 = _trial_streams(0, 3)
    a2, b2, c2 = _trial_streams(0, 3)
    assert np.array_equal(a1.standard_normal(4), a2.standard_normal(4))
    assert np.array_equal(b1.standard_normal(4), b2.standard_normal(4))
    d1 = np.random.default_rng(np.random.SeedSequence([0, 4]).spawn(3)[0])
    assert not np.array_equal(c1.standard_normal(4), d1.standard_normal(4))


def test_common_random_numbers_across_methods():
    # Every illumination of a trial sees one drop and one channel, equal bit
    # for bit to a fresh draw from stream 0 (drop, then channel) under that
    # illumination's layout; the no-surface channel uses the same drop.
    spec = tiny_spec()
    state = trial(spec, 30.0, 1)
    for illumination in IlluminationMode:
        rng, rng_direct, _ = _trial_streams(spec.base_seed, 1)
        layout = build_layout(spec.geometry, illumination)
        drop = sample_user_drop(spec.channel, spec.n_users, rng)
        channel = sample_channel(layout, drop, spec.channel, rng)
        assert np.array_equal(state.instance(illumination).channel, channel)
    full = build_layout(spec.geometry)
    direct = sample_direct_channel(full, drop, spec.channel, rng_direct)
    assert np.array_equal(state.no_surface.channel, direct)
    assert np.array_equal(state.drop.distances, drop.distances)


def test_memoised_cell_matches_cold_cell():
    # A trial's cells share one memoised grid value; a cell solved after its
    # trial's other cells equals the same cell solved from an empty memo.
    spec = tiny_spec(methods=[m.value for m in Method], illuminations=["full", "separate"])
    cells = [(m, i) for m in Method for i in (IlluminationMode.FULL, IlluminationMode.SEPARATE)]
    for cell in cells:
        memo.cache_clear()
        cold = harness.solve_cell(spec, 30.0, 1, *cell)[0]
        memo.cache_clear()
        for other in cells:
            if other != cell:
                harness.solve_cell(spec, 30.0, 1, *other)
        warm = harness.solve_cell(spec, 30.0, 1, *cell)[0]
        assert warm.wsr == cold.wsr and warm.trace == cold.trace
        assert np.array_equal(warm.precoder.matrix, cold.precoder.matrix)
        assert np.array_equal(warm.phases.phases, cold.phases.phases)
    assert memo.cache_info().hits == len(cells) - 1


def test_memoised_arrays_are_read_only():
    spec = tiny_spec()
    state, zf = trial(spec, 30.0, 0), memo(spec, 30.0).zfwf(IlluminationMode.FULL, 0)
    inst = state.instance(IlluminationMode.FULL)
    layout, transfer = harness._geometry(spec.geometry, IlluminationMode.FULL)
    arrays = (
        inst.transfer, inst.channel, inst.weights, zf.phases.phases, zf.precoder.matrix,
        state.no_surface.channel, state.random_phases.phases, transfer, layout.element_positions,
    )
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_surface_memo_keys_on_base_seed():
    spec = tiny_spec()
    other = replace(spec, base_seed=spec.base_seed + 1)
    a = trial(spec, 30.0, 0).instance(IlluminationMode.FULL)
    b = trial(other, 30.0, 0).instance(IlluminationMode.FULL)
    assert a.transfer is b.transfer  # one geometry, two draws
    assert not np.array_equal(a.channel, b.channel)


def test_near_field_surface_draw_spares_no_its():
    # Users 0.3-0.5 m away sit in the near field of the 16x8 surface but not
    # of the 4-antenna ring: the surface cells fail, the no-surface cell runs.
    spec = spec_from_mapping({
        "channel": {"distance_min_m": 0.3, "distance_max_m": 0.5},
        "solver": {"bcd_max_iters": 5},
        "sweep": {"grid": [30.0], "trials": 1, "constraint": "tp",
                  "methods": ["wmmse_bcd", "no_its", "zf_wf", "random_phases"]},
    })
    records = run_sweep(spec)
    assert [r.method for r in records if math.isfinite(r.wsr)] == ["no_its"]


def test_failed_surface_draw_fails_only_its_trial(monkeypatch):
    # Trial 1 draws the near-field drop of the test above: its
    # surface cells become NaN records, and every other cell keeps its bits.
    spec = spec_from_mapping({
        "solver": {"bcd_max_iters": 5},
        "sweep": {"grid": [30.0], "trials": 3, "constraint": "tp",
                  "methods": ["wmmse_bcd", "no_its", "zf_wf", "random_phases"]},
    })
    clean = run_sweep(spec)
    target = _trial_streams(spec.base_seed, 1)[0].bit_generator.state
    near = replace(spec.channel, user_distance_range=(0.3, 0.5))

    def drop(params, n_users, rng):
        return sample_user_drop(near if rng.bit_generator.state == target else params, n_users, rng)

    monkeypatch.setattr(harness, "sample_user_drop", drop)
    memo.cache_clear()
    records = run_sweep(spec)
    assert [(r.trial, r.method) for r in records if math.isnan(r.wsr)] == [
        (1, "wmmse_bcd"), (1, "zf_wf"), (1, "random_phases")
    ]
    assert [r for r in records if r.trial != 1] == [r for r in clean if r.trial != 1]
    assert all(math.isfinite(r.wsr) for r in clean)


def test_selfcheck_determinism_draws_twice(monkeypatch):
    draws = []

    def counting_drop(*args):
        draws.append(args)
        return sample_user_drop(*args)

    monkeypatch.setattr(harness, "sample_user_drop", counting_drop)
    memo.cache_clear()
    assert selfcheck._check_harness_determinism()
    assert len(draws) == 2


def test_run_trial_deterministic():
    spec = tiny_spec()
    rec1 = run_trial(spec, 30.0, 0, Method.WMMSE_BCD, IlluminationMode.FULL)
    rec2 = run_trial(spec, 30.0, 0, Method.WMMSE_BCD, IlluminationMode.FULL)
    assert rec1 == rec2
    assert rec1.seed == trial_seed(0, 0)
    assert rec1.iterations >= 1


def test_no_its_invariant_to_surface_loss():
    spec = tiny_spec(kind="loss", grid=[0.0, 10.0], methods=["no_its"])
    rec_lossless = run_trial(spec, 0.0, 0, Method.NO_ITS, IlluminationMode.FULL)
    rec_lossy = run_trial(spec, 10.0, 0, Method.NO_ITS, IlluminationMode.FULL)
    assert rec_lossless.wsr == rec_lossy.wsr
    assert rec_lossless.constraint == "tp"


def test_no_its_constraint_always_tp():
    spec = tiny_spec(kind="loss", grid=[0.0], methods=["no_its"], constraint="rp")
    rec = run_trial(spec, 0.0, 0, Method.NO_ITS, IlluminationMode.FULL)
    assert rec.constraint == "tp"
    other = run_trial(replace(spec, constraint=ConstraintKind.TRANSMITTED_POWER), 0.0, 0, Method.NO_ITS, IlluminationMode.FULL)
    assert rec.wsr == other.wsr


def test_random_phases_ignore_illumination():
    spec = tiny_spec(methods=["random_phases"], illuminations=["full", "separate"])
    rec_full = run_trial(spec, 30.0, 0, Method.RANDOM_PHASES, IlluminationMode.FULL)
    rec_sep = run_trial(spec, 30.0, 0, Method.RANDOM_PHASES, IlluminationMode.SEPARATE)
    assert rec_full.wsr == rec_sep.wsr


def test_frozen_kinds_are_solved_once_for_all_illuminations(monkeypatch):
    # random_phases and no_its ignore the illumination: over three illuminations one
    # queue each serves every illumination, and every cell equals a cold solve of it.
    spec = tiny_spec(
        methods=["random_phases", "no_its", "wmmse_bcd"],
        illuminations=["full", "partial", "separate"],
        grid=[30.0],
        trials=3,
    )
    frozen = []
    solve = harness.bcd_solve

    def counting(items, settings, **kwargs):
        frozen.append(settings.freeze_phases)
        return solve(items, settings, **kwargs)

    monkeypatch.setattr(harness, "bcd_solve", counting)
    admitted = counted_admissions(monkeypatch)
    memo.cache_clear()
    records = run_sweep(spec)
    assert frozen.count(True) == 2 and frozen.count(False) == 3
    assert [admitted[kind] for kind, freeze in enumerate(frozen) if freeze] == [3, 3]
    for record in records:
        memo.cache_clear()
        cell = (Method(record.method), IlluminationMode(record.illumination))
        assert run_trial(spec, record.sweep_value, record.trial, *cell) == record
    assert all(math.isfinite(record.wsr) for record in records)


def test_far_no_surface_drop_gives_finite_cells():
    # Trial 225 of the 7.5 dB TP loss sweep at seed 901: its direct channel is so
    # weak that the no-surface water-filling once overspent the budget by 2.9e-5,
    # which the solution check rejected.
    spec = spec_from_mapping({
        "sweep": {
            "kind": "loss", "grid": [7.5], "constraint": "tp", "base_seed": 901,
            "methods": ["zf_wf", "random_phases", "no_its"], "trials": 226,
        }
    })
    memo.cache_clear()
    for method in spec.methods:
        record = run_trial(spec, 7.5, 225, method, IlluminationMode.FULL)
        assert math.isfinite(record.wsr) and record.iterations >= 0
    start = zfwf_solve(trial(spec, 7.5, 225).no_surface, phases=PhaseConfig(np.zeros(4)))
    assert max(start.detail["chain_costs"]) > 1e20


def test_run_sweep_order_and_shape():
    spec = tiny_spec()
    records = run_sweep(spec)
    assert len(records) == 2 * 2 * 2  # grid x trials x methods
    expected = [
        (value, trial, method.value)
        for value in (20.0, 30.0)
        for trial in (0, 1)
        for method in (Method.ZF_WF, Method.WMMSE_BCD)
    ]
    assert [(r.sweep_value, r.trial, r.method) for r in records] == expected
    assert all(r.sweep == "power" for r in records)
    assert all(np.isfinite(r.wsr) for r in records)


def test_run_sweep_workers_match_serial():
    # Two ranges of trials, [0, 35) and [35, 71): each worker runs a whole range.
    trials = 2 * QUEUE_WIDTH + 7
    spec = tiny_spec(trials=trials, grid=[30.0])
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    assert serial == parallel
    assert [r.trial for r in serial] == [t for t in range(trials) for _ in spec.methods]


def test_one_block_sweep_starts_no_pool(monkeypatch):
    # No range is narrower than a queue's batch, so a sweep of one batch is one range.
    # run_sweep imports the pool class when it starts one, so patching it at its source
    # reaches that import.
    def no_pool(*args, **kwargs):
        raise AssertionError("a sweep of one range must run in process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    spec = tiny_spec(trials=QUEUE_WIDTH, grid=[30.0])
    assert run_sweep(spec, workers=4) == run_sweep(spec)


COLD_RUN = """
import sys
from itsbeam import harness
from itsbeam.config import spec_from_mapping

for constraint in ("tp", "rp"):
    spec = spec_from_mapping({
        "system": {"n_users": 2, "weights": [1.0, 1.0]},
        "geometry": {"n_active": 2, "n_elements": 8, "grid_rows": 4, "grid_cols": 2},
        "sweep": {"grid": [30.0], "trials": 1, "methods": ["zf_wf"], "constraint": constraint},
    })
    record = harness.run_trial(spec, 30.0, 0, harness.Method.ZF_WF, spec.illuminations[0])
    assert record.wsr > 0, record
print(*(name for name in ("yaml", "concurrent.futures", "multiprocessing", "numpy.ma")
        if name in sys.modules))
"""


def test_cold_run_loads_neither_yaml_nor_pool_nor_masked_arrays(tmp_path):
    # A fresh process that builds a spec from a mapping and runs one ZF-WF cell under
    # each constraint loads none of these modules: PyYAML loads when a file is read, the
    # pool when a sweep starts one, and the calibration's median does not need numpy.ma.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_RUN],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def counted_admissions(monkeypatch):
    """Wrap harness.bcd_solve so that the items each queue admits are counted, by queue."""
    admitted, solve = {}, harness.bcd_solve

    def counting(items, settings, **kwargs):
        kind = len(admitted)
        admitted[kind] = 0

        def source():
            for item in items:
                admitted[kind] += item is not None
                yield item

        return solve(source(), settings, **kwargs)

    monkeypatch.setattr(harness, "bcd_solve", counting)
    return admitted


def test_queues_hold_at_most_the_look_ahead(monkeypatch):
    # Over a 200-trial sweep the memo's states hold no more than LOOK_AHEAD finished
    # outcomes of any kind and the memo no more than LOOK_AHEAD + QUEUE_WIDTH trial
    # states, and every queue runs from the first trial to the last.
    spec = tiny_spec(trials=200, grid=[30.0], methods=["random_phases", "no_its", "wmmse_bcd"])
    admitted = counted_admissions(monkeypatch)
    memo.cache_clear()
    held, states, run = [], [], harness.run_trial

    def watching(*args):
        record = run(*args)
        cells = memo(*args[:2])
        kinds = [kind for state in cells.states.values() for kind in state.solved]
        held.extend(kinds.count(kind) for kind in cells.queues)
        states.append(len(cells.states))
        return record

    monkeypatch.setattr(harness, "run_trial", watching)
    records = run_sweep(spec)
    assert 0 < max(held) <= LOOK_AHEAD and max(states) <= LOOK_AHEAD + QUEUE_WIDTH
    assert admitted == {0: 200, 1: 200, 2: 200}
    monkeypatch.undo()
    memo.cache_clear()
    assert records == run_sweep(spec)


def test_cold_trial_admits_one_batch(monkeypatch):
    # A request for trial 150 from an empty memo solves at most one batch of trials.
    spec = tiny_spec(trials=400, grid=[30.0], methods=["random_phases"])
    admitted = counted_admissions(monkeypatch)
    memo.cache_clear()
    record = run_trial(spec, 30.0, 150, Method.RANDOM_PHASES, IlluminationMode.FULL)
    assert math.isfinite(record.wsr) and admitted == {0: QUEUE_WIDTH}
    monkeypatch.undo()
    memo.cache_clear()
    assert run_sweep(replace(spec, trials=151))[150] == record


def test_bcd_cell_asked_twice_is_solved_twice(monkeypatch):
    # The second request for a served BCD cell starts the memo afresh: a new queue
    # from the same trial, which gives an equal record.
    spec = tiny_spec(trials=3, grid=[30.0], methods=["wmmse_bcd"])
    admitted = counted_admissions(monkeypatch)
    memo.cache_clear()
    first = run_trial(spec, 30.0, 1, Method.WMMSE_BCD, IlluminationMode.FULL)
    again = run_trial(spec, 30.0, 1, Method.WMMSE_BCD, IlluminationMode.FULL)
    assert again == first and admitted == {0: 2, 1: 2}


def test_zf_wf_cell_asked_twice_keeps_the_memo(monkeypatch):
    # A zf_wf cell asked again is read from its trial: each trial is drawn once, and
    # the wmmse_bcd queue in flight serves the next trial.
    draws = []

    def counting_drop(*args):
        draws.append(args)
        return sample_user_drop(*args)

    monkeypatch.setattr(harness, "sample_user_drop", counting_drop)
    admitted = counted_admissions(monkeypatch)
    spec = tiny_spec(trials=3, grid=[30.0])
    memo.cache_clear()
    zf = run_trial(spec, 30.0, 0, Method.ZF_WF, IlluminationMode.FULL)
    run_trial(spec, 30.0, 0, Method.WMMSE_BCD, IlluminationMode.FULL)
    assert run_trial(spec, 30.0, 0, Method.ZF_WF, IlluminationMode.FULL) == zf
    run_trial(spec, 30.0, 1, Method.WMMSE_BCD, IlluminationMode.FULL)
    assert len(draws) == spec.trials and admitted == {0: spec.trials}


def test_earlier_trial_matches_its_cold_record(monkeypatch):
    # After trials 0-40 in order, trial 5 starts the memo afresh, with a fresh queue
    # per BCD kind, and each of its records equals the one from an empty memo.
    spec = tiny_spec(trials=41, grid=[30.0], methods=["zf_wf", "wmmse_bcd", "random_phases"])
    admitted = counted_admissions(monkeypatch)
    memo.cache_clear()
    for index in range(spec.trials):
        for method in spec.methods:
            run_trial(spec, 30.0, index, method, IlluminationMode.FULL)
    assert len(admitted) == 2
    warm = [run_trial(spec, 30.0, 5, method, IlluminationMode.FULL) for method in spec.methods]
    assert len(admitted) == 4
    memo.cache_clear()
    assert warm == [run_trial(spec, 30.0, 5, method, IlluminationMode.FULL) for method in spec.methods]


def test_csv_roundtrip(tmp_path):
    spec = tiny_spec()
    records = run_sweep(spec)
    path = tmp_path / "out.csv"
    write_results(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(records) + 1
    for line, record in zip(lines[1:], records):
        fields = line.split(",")
        assert len(fields) == 9
        assert float(fields[1]) == record.sweep_value
        assert float(fields[6]) == record.wsr  # repr round-trips exactly
        assert int(fields[8]) == record.seed


def test_csv_byte_identical_reruns(tmp_path):
    spec = tiny_spec()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results(run_sweep(spec), p1)
    write_results(run_sweep(spec), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_empty_records(tmp_path):
    path = tmp_path / "empty.csv"
    write_results([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_summary_statistics(tmp_path):
    spec = tiny_spec()
    records = run_sweep(spec)
    path = tmp_path / "summary.csv"
    write_summary(records, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + grid x methods groups
    by_group = {}
    for record in records:
        by_group.setdefault((record.sweep_value, record.method), []).append(record.wsr)
    for line in lines[1:]:
        fields = line.split(",")
        key = (float(fields[1]), fields[2])
        values = np.asarray(by_group[key])
        assert abs(float(fields[5]) - values.mean()) < 1e-12
        assert abs(float(fields[6]) - values.std(ddof=1)) < 1e-12
        assert int(fields[7]) == len(values)
        assert int(fields[8]) == 0


def test_failed_trial_becomes_nan_record(tmp_path):
    # Three users on two chains: zero-forcing cannot proceed, the record keeps
    # the cell with a NaN wsr, and the summary counts it as failed.
    mapping = {
        "system": {"n_users": 3, "weights": [1.0, 1.0, 1.0]},
        "geometry": {"n_active": 2, "n_elements": 8, "grid_rows": 4, "grid_cols": 2},
        "sweep": {"grid": [30.0], "trials": 1, "methods": ["zf_wf"], "constraint": "tp"},
    }
    spec = spec_from_mapping(mapping)
    records = run_sweep(spec)
    assert len(records) == 1
    assert math.isnan(records[0].wsr)
    assert records[0].iterations == 0
    path = tmp_path / "summary.csv"
    write_summary(records, path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[7] == "0" and row[8] == "1"


def test_overflowing_water_level_gives_nan_records():
    # At noise power 1e308, sigma^2 sum a overflows and water-filling fails in every
    # start, the ZF-WF cells' and the BCD kinds': the sweep writes NaN records.
    spec = spec_from_mapping({
        "system": {"n_users": 2, "weights": [1.0, 1.0], "noise_power": 1.0e308},
        "geometry": {"n_active": 2, "n_elements": 8, "grid_rows": 4, "grid_cols": 2},
        "sweep": {"grid": [30.0], "trials": 2, "methods": [m.value for m in Method],
                  "illuminations": [i.value for i in IlluminationMode]},
    })
    records = run_sweep(spec)
    assert len(records) == 2 * len(Method) * len(IlluminationMode)
    assert all(math.isnan(r.wsr) and r.iterations == 0 for r in records)


@pytest.mark.parametrize("key, value", [("pathloss_intercept_db", -1.0e4),
                                        ("shadowing_std_db", 1.0e300)])
def test_overflowing_channel_gain_gives_nan_records(key, value):
    # A path loss of -1e4 dB, or a shadowing draw of that order, overflows the gain
    # 10 ** (-PL / 10): the draw raises ChannelError and the trial writes NaN records.
    spec = spec_from_mapping({
        "channel": {key: value},
        "sweep": {"grid": [30.0], "trials": 1, "methods": ["zf_wf", "random_phases", "no_its"]},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_sweep(spec)
    assert [r.method for r in records] == ["zf_wf", "random_phases", "no_its"]
    assert all(math.isnan(r.wsr) and r.iterations == 0 for r in records)


@pytest.mark.parametrize(
    "error",
    [np.linalg.LinAlgError("singular matrix"), DimensionMismatchError("constraint violated")],
    ids=["LinAlgError", "DimensionMismatchError"],
)
def test_solver_exceptions_become_nan_records(monkeypatch, error):
    def failing_solve(*args, **kwargs):
        raise error

    monkeypatch.setattr(harness, "bcd_solve", failing_solve)
    spec = tiny_spec(grid=[30.0], trials=1, methods=["wmmse_bcd"])
    record = run_trial(spec, 30.0, 0, Method.WMMSE_BCD, IlluminationMode.FULL)
    assert math.isnan(record.wsr)
    assert record.iterations == 0
    assert record.constraint == "tp"


def test_bcd_init_revives_silenced_user():
    # Near-collinear user pair: water-filling drops the expensive direction,
    # and a zero-power user would stay silent for the whole BCD run.
    channel = np.array(
        [[1.0, 0.0, 0.0], [1.0, 1e-3, 0.0], [0.0, 0.0, 1.0]], dtype=complex
    )
    inst = SystemInstance(
        transfer=np.eye(3, dtype=complex),
        channel=channel,
        noise_power=1e-2,
        power_budget=1.0,
        weights=np.ones(3),
        constraint=ConstraintKind.TRANSMITTED_POWER,
    )
    zf = zfwf_solve(inst)
    assert np.any(np.asarray(zf.detail["powers"]) == 0.0)
    (init,) = _bcd_init([inst], [zf.phases])
    assert np.all(np.linalg.norm(init.precoder.matrix, axis=0) > 0.0)
    assert abs(inst.power_budget - constraint_value(inst, init.precoder)) < 1e-9
    refined = bcd_solve(inst, SolverSettings(), init)
    assert refined.wsr >= refined.trace[0][1] - 1e-9
    assert np.all(refined.sinr > 0.0)



def test_batched_bcd_init_equals_starts_alone():
    # One _bcd_init call over RP trial draws, the near-collinear instance of the test
    # above (its start revives a user) and a rank-deficient row: each start equals the
    # one from a batch of one, bit for bit, and the rank-deficient row holds its error.
    spec = default_experiment_spec(SweepKind.POWER, ConstraintKind.RADIATED_POWER)
    spec = replace(spec, trials=4)
    memo.cache_clear()
    insts = [trial(spec, 40.0, index).instance(IlluminationMode.FULL) for index in range(4)]
    phases = [memo(spec, 40.0).zfwf(IlluminationMode.FULL, index).phases for index in range(4)]
    silenced = np.zeros_like(insts[0].channel)
    silenced[:, :4] = [[1, 0, 0, 0], [1, 1e-3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    revived = replace(
        insts[0], channel=silenced, transfer=np.eye(*silenced.shape[::-1], dtype=complex),
        noise_power=1e-2, power_budget=1.0, constraint=ConstraintKind.TRANSMITTED_POWER,
    )
    deficient = replace(insts[1], channel=np.repeat(insts[1].channel[:1], 4, axis=0))
    insts += [revived, deficient]
    phases += [PhaseConfig(np.zeros(insts[0].n_elements)), phases[1]]
    batch = _bcd_init(insts, phases)
    assert isinstance(batch[5], SolverError) and "rank-deficient" in str(batch[5])
    powers = zfwf_solve(revived, phases[4]).detail["powers"]
    assert 0.0 in powers and np.all(np.linalg.norm(batch[4].precoder.matrix, axis=0) > 0.0)
    for inst, row_phases, together in zip(insts, phases, batch):
        (alone,) = _bcd_init([inst], [row_phases])
        if isinstance(alone, Exception):
            assert type(together) is type(alone) and str(together) == str(alone)
            continue
        assert together.phases is row_phases
        assert np.array_equal(together.precoder.matrix, alone.precoder.matrix)


def test_cold_zf_wf_cell_holds_one_trial():
    # The benchmark's warm-up cell: a zf_wf cell from an empty memo draws its own trial
    # and no other, so set-up pays for one zero-forcing solve.
    spec = tiny_spec(trials=50, grid=[30.0], methods=["zf_wf", "random_phases"])
    memo.cache_clear()
    record = run_trial(spec, 30.0, 0, Method.ZF_WF, IlluminationMode.FULL)
    assert math.isfinite(record.wsr) and list(memo(spec, 30.0).states) == [0]
    assert list(memo(spec, 30.0).trial(0).solved) == [(Method.ZF_WF, IlluminationMode.FULL)]

def reference_spec(sweep, constraint):
    """The reference configuration built by hand, independent of the config table."""
    wavelength = SPEED_OF_LIGHT / 28e9
    geometry = GeometryConfig(
        n_active=4,
        n_elements=128,
        wavelength=wavelength,
        active_radius=wavelength,
        separation=10.0 * characteristic_distance(128, 4, wavelength),
        kappa=49.0,
        surface_efficiency=10.0 ** (-3.5 / 10.0),
        grid_shape=(16, 8),
    )
    grid = {
        SweepKind.POWER: (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
        SweepKind.DISTANCE: (1.0, 2.0, 5.0, 10.0, 20.0, 50.0),
        SweepKind.LOSS: (0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0),
    }[sweep]
    methods = (
        (Method.WMMSE_BCD, Method.RANDOM_PHASES, Method.NO_ITS)
        if sweep is SweepKind.LOSS
        else (Method.WMMSE_BCD, Method.ZF_WF, Method.RANDOM_PHASES)
    )
    return ExperimentSpec(
        sweep=sweep,
        grid=grid,
        trials=1000,
        base_seed=0,
        methods=methods,
        illuminations=(IlluminationMode.FULL,),
        constraint=constraint,
        n_users=4,
        weights=(1.0, 1.0, 1.0, 1.0),
        noise_power=1e-7,
        power_budget_dbm=30.0,
        geometry=geometry,
        channel=ChannelParams(),
        solver=SolverSettings(),
    )


def test_config_defaults_match_reference():
    for sweep in SweepKind:
        for constraint in ConstraintKind:
            assert default_experiment_spec(sweep, constraint) == reference_spec(sweep, constraint)
    spec = default_experiment_spec()
    assert spec_from_mapping({}) == spec
    assert spec_from_mapping(None) == spec
    assert spec.channel == ChannelParams()
    assert spec.solver == SolverSettings()


def _config_docstring_block():
    return textwrap.dedent(config.__doc__.split("::\n", 1)[1])


def _readme_config_block():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("### Configuration file", 1)[1]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize(
    "block", [_config_docstring_block, _readme_config_block], ids=["docstring", "readme"]
)
def test_documented_config_is_the_default_spec(block):
    mapping = yaml.safe_load(block())
    assert spec_from_mapping(mapping) == default_experiment_spec()
    assert {section: set(keys) for section, keys in mapping.items()} == {
        section: set(keys) for section, keys in config._DEFAULTS.items()
    }


def test_config_yaml_roundtrip(tmp_path):
    text = """
system:
  carrier_frequency_hz: 1.0e10
  n_users: 2
  weights: [2.0, 0.5]
  noise_power: 1.0e-6
geometry:
  n_active: 2
  n_elements: 32
  grid_rows: 8
  grid_cols: 4
  kappa: 10.0
  surface_loss_db: 5.0
channel:
  median_element_gain_db: null
  azimuth_deg: 45.0
  direct_kappa: 0.0
solver:
  bcd_epsilon: 1.0e-4
sweep:
  kind: loss
  grid: [0.0, 5.0]
  trials: 3
  base_seed: 7
  constraint: tp
  methods: [wmmse_bcd, no_its]
  illuminations: [full, partial]
"""
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    spec = load_experiment_spec(path)
    assert spec.sweep is SweepKind.LOSS
    assert spec.grid == (0.0, 5.0)
    assert spec.trials == 3
    assert spec.base_seed == 7
    assert spec.constraint is ConstraintKind.TRANSMITTED_POWER
    assert spec.methods == (Method.WMMSE_BCD, Method.NO_ITS)
    assert spec.illuminations == (IlluminationMode.FULL, IlluminationMode.PARTIAL)
    assert spec.weights == (2.0, 0.5)
    assert spec.noise_power == 1e-6
    geo = spec.geometry
    assert geo.n_elements == 32
    assert geo.grid_shape == (8, 4)
    assert abs(geo.wavelength - SPEED_OF_LIGHT / 1e10) < 1e-15
    assert abs(geo.surface_efficiency - 10.0 ** (-0.5)) < 1e-15
    ch = spec.channel
    assert ch.gain_normalization_db is None
    assert ch.direct_kappa == 0.0
    assert abs(ch.azimuth_range[1] - math.radians(45.0)) < 1e-15
    assert spec.solver.bcd_epsilon == 1e-4


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown configuration section"):
        spec_from_mapping({"sweeps": {}})
    with pytest.raises(ConfigError, match="unknown keys"):
        spec_from_mapping({"sweep": {"grids": [1.0]}})
    # The illumination is an experiment axis, set only by sweep.illuminations.
    with pytest.raises(ConfigError, match=r"'geometry': \['illumination'\]"):
        spec_from_mapping({"geometry": {"illumination": "separate"}})
    with pytest.raises(ConfigError):
        spec_from_mapping({"sweep": {"kind": "voltage"}})
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError, match="must be a mapping"):
        load_experiment_spec(path)


def test_config_rejects_malformed_values():
    for section, key, value in (
        ("sweep", "grid", 30),
        ("sweep", "grid", "20"),
        ("sweep", "trials", "abc"),
        ("sweep", "methods", ["zf_wf", "annealing"]),
        ("system", "weights", [1.0, "heavy"]),
        ("geometry", "grid_rows", [16]),
        ("channel", "direct_kappa", "wide"),
        ("solver", "bcd_max_iters", "many"),
        ("sweep", "trials", 2.7),
        ("sweep", "base_seed", True),
        ("geometry", "n_active", 4.9),
        ("solver", "bcd_max_iters", 7.9),
        ("geometry", "kappa", True),
        ("sweep", "methods", []),
        ("sweep", "illuminations", []),
        ("system", "carrier_frequency_hz", 0),
        ("system", "carrier_frequency_hz", -28e9),
        ("system", "carrier_frequency_hz", float("nan")),
        ("system", "carrier_frequency_hz", float("inf")),
    ):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            spec_from_mapping({section: {key: value}})


@pytest.mark.parametrize("section, key, value, error, field", [
    ("geometry", "kappa", math.nan, GeometryError, "kappa"),
    ("geometry", "kappa", math.inf, GeometryError, "kappa"),
    ("geometry", "kappa", 1.0e308, GeometryError, "kappa"),  # 2 (1 + kappa) overflows
    ("geometry", "active_radius_wavelengths", math.nan, GeometryError, "active_radius"),
    ("geometry", "separation_m", math.inf, GeometryError, "separation"),
    ("channel", "distance_max_m", math.inf, ChannelError, "user_distance_range"),
    ("channel", "shadowing_std_db", math.nan, ChannelError, "shadowing_std_db"),
    ("channel", "cluster_angle_std_deg", math.nan, ChannelError, "cluster_angle_std"),
    ("channel", "pathloss_exponent", math.nan, ChannelError, "pathloss_exponent"),
    ("channel", "pathloss_intercept_db", math.inf, ChannelError, "pathloss_intercept_db"),
    ("channel", "median_element_gain_db", math.nan, ChannelError, "gain_normalization_db"),
    ("channel", "direct_kappa", math.nan, ChannelError, "direct_kappa"),
    ("channel", "direct_kappa", 1.0e308, ChannelError, "direct_kappa"),
])
def test_config_rejects_non_finite_parameters(section, key, value, error, field):
    # Accepted, such a value would end the sweep on an exception, turn every cell
    # into NaN (a kappa of 1e308 with a warning: inf * 0 in the antenna gain) or
    # silently drop the shadowing.
    with pytest.raises(error, match=f"^{field} must be finite"):
        spec_from_mapping({section: {key: value}})


def test_config_solver_keys_come_from_settings():
    spec = spec_from_mapping(
        {"solver": {"pga_max_iters": 7, "bcd_epsilon": 1, "bcd_max_iters": None}}
    )
    assert spec.solver == replace(SolverSettings(), pga_max_iters=7, bcd_epsilon=1.0)
    assert isinstance(spec.solver.bcd_epsilon, float)
    with pytest.raises(ConfigError, match="unknown keys"):
        spec_from_mapping({"solver": {"freeze_phases": True}})


def test_config_overrides_layer(tmp_path):
    path = tmp_path / "base.yaml"
    path.write_text("sweep:\n  trials: 5\n  base_seed: 3\n")
    spec = load_experiment_spec(path, overrides={"sweep": {"trials": 2, "base_seed": None}})
    assert spec.trials == 2
    assert spec.base_seed == 3  # None override means "keep"


def test_emit_plot_script(tmp_path):
    spec = tiny_spec()
    script = tmp_path / "plot.py"
    emit_plot_script(spec, str(tmp_path / "r.csv"), str(script))
    source = script.read_text()
    compile(source, str(script), "exec")
    assert "matplotlib" in source
    assert "r.csv" in source


def test_spec_validation():
    with pytest.raises(SolverError, match="grid"):
        tiny_spec(grid=[])
    with pytest.raises(SolverError, match="trials"):
        tiny_spec(trials=0)
    with pytest.raises(SolverError, match="loss"):
        tiny_spec(kind="loss", grid=[-1.0])
    with pytest.raises(SolverError, match="distance"):
        tiny_spec(kind="distance", grid=[0.0])
    for grid in ([math.nan], [20.0, math.inf]):
        with pytest.raises(SolverError, match="grid values must be finite"):
            tiny_spec(grid=grid)
    for weights in ((1.0, -1.0), (1.0, math.nan), (math.inf, 1.0), (0.0, 0.0)):
        with pytest.raises(SolverError, match="weights must be finite, nonnegative and not all"):
            replace(tiny_spec(), weights=weights)
    for dbm in (math.inf, -math.inf, math.nan):
        with pytest.raises(SolverError, match="power_budget_dbm"):
            replace(tiny_spec(), power_budget_dbm=dbm)
    with pytest.raises(SolverError, match="noise_power"):
        replace(tiny_spec(), noise_power=math.inf)
    with pytest.raises(SolverError, match="base_seed"):
        replace(tiny_spec(), base_seed=-1)
