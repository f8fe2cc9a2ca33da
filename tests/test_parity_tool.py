"""tools/parity.py: comparing two sets of sweep CSVs."""

import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from itsbeam import (
    ConstraintKind,
    IlluminationMode,
    Method,
    SweepKind,
    default_experiment_spec,
    spec_from_mapping,
)
from itsbeam.harness import run_sweep, write_results, write_summary

_PATH = Path(__file__).parents[1] / "tools" / "parity.py"
_SPEC = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)

HEADER = "sweep,sweep_value,trial,method,illumination,constraint,wsr,iterations,seed"
ROWS = [
    "power,40.0,0,wmmse_bcd,full,rp,20.0,50,7",
    "power,40.0,0,zf_wf,full,rp,10.0,0,7",
]


def write(directory, name, header, rows):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text("\n".join([header] + rows) + "\n")


def test_compare_reports_a_moved_wsr_and_a_dropped_column(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "moved.csv", HEADER, ROWS)
    write(b, "moved.csv", HEADER, [ROWS[0].replace("20.0,50", "20.5,49"), ROWS[1]])
    # The parent's layout had a wall-time column before the seed.
    old_header = HEADER.replace("iterations,seed", "iterations,wall_time_ms,seed")
    write(a, "dropped.csv", old_header, [row[:-2] + ",0,7" for row in ROWS])
    write(b, "dropped.csv", HEADER, ROWS)

    moved = parity.compare_files(a / "moved.csv", b / "moved.csv")
    assert moved["rows"] == (2, 2)
    assert (moved["differing_rows"], moved["iterations_changed"]) == (1, 1)
    assert moved["max_rel_wsr"] == pytest.approx(0.025)
    assert moved["mean_wsr"] == (15.0, 15.25)
    assert not parity.same(moved)

    dropped = parity.compare_files(a / "dropped.csv", b / "dropped.csv")
    assert (dropped["only_a"], dropped["only_b"]) == (["wall_time_ms"], [])
    assert (dropped["differing_rows"], dropped["iterations_changed"]) == (0, 0)
    assert dropped["max_rel_wsr"] == 0.0
    assert dropped["mean_wsr"] == (15.0, 15.0)
    assert parity.same(dropped)

    assert parity.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "dropped.csv: rows 2/2, 0 differ" in out and "only in A: wall_time_ms" in out
    assert "moved.csv: rows 2/2, 1 differ, 1 iterations changed" in out
    (b / "moved.csv").unlink()
    (a / "moved.csv").unlink()
    assert parity.main(["compare", str(a), str(b)]) == 0


def test_compare_reports_rises_and_drops_per_method(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    rows_a = ROWS + [
        "power,40.0,1,wmmse_bcd,full,rp,40.0,50,7",
        "power,40.0,1,zf_wf,full,rp,nan,0,7",
        "power,40.0,2,wmmse_bcd,full,rp,10.0,34,7",
        "power,40.0,2,zf_wf,full,rp,5.0,0,7",
    ]
    rows_b = list(rows_a)
    rows_b[0] = rows_b[0].replace("20.0,50", "21.0,50")  # up 5%
    rows_b[2] = rows_b[2].replace("40.0,50", "39.0,50")  # down 2.5%
    rows_b[4] = rows_b[4].replace("10.0,34", "10.5,50")  # up 5%, iterations 34 -> 50
    rows_b[3] = rows_b[3].replace("nan", "1.0")  # nan to a number: no rise or drop
    write(a, "mixed.csv", HEADER, rows_a)
    write(b, "mixed.csv", HEADER, rows_b)

    methods = parity.compare_files(a / "mixed.csv", b / "mixed.csv")["methods"]
    assert list(methods) == ["wmmse_bcd", "zf_wf"]
    bcd, zf = methods["wmmse_bcd"], methods["zf_wf"]
    assert bcd["mean_wsr"] == (pytest.approx(70.0 / 3), pytest.approx(70.5 / 3))
    assert (bcd["up"], bcd["down"], bcd["iterations_changed"]) == (2, 1, 1)
    assert bcd["mean_iterations"] == (pytest.approx(134 / 3), 50.0)
    assert bcd["largest_rise"] == pytest.approx(0.05)
    assert bcd["largest_drop"] == pytest.approx(-0.025)
    assert zf["mean_wsr"] == (7.5, pytest.approx(16.0 / 3))
    assert (zf["up"], zf["down"], zf["iterations_changed"]) == (0, 0, 0)
    assert zf["mean_iterations"] == (0.0, 0.0)
    assert (zf["largest_rise"], zf["largest_drop"]) == (0.0, 0.0)

    assert parity.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "wmmse_bcd: mean wsr" in out and "mean iterations 44.67 / 50.00, 2 up" in out
    assert "mean iterations 0.00 / 0.00, 0 up" in out
    assert "2 up, 1 down, largest rise +5.00e-02, largest drop -2.50e-02, 1 iterations changed" in out
    assert "0 up, 0 down, largest rise +0.00e+00, largest drop +0.00e+00, 0 iterations changed" in out
    assert "  trial 2 wmmse_bcd full: wsr 10.0 / 10.5 (+5.00e-02), iterations 34 / 50\n" in out
    assert "  trial 1 zf_wf full: wsr nan / 1.0 (+nan), iterations 0 / 0\n" in out


def test_compare_lists_a_change_below_the_old_percent_resolution(tmp_path, capsys):
    # A -5.0e-7 change printed as "-0.000%" in a percent format; each such cell is listed.
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "small.csv", HEADER, ROWS)
    write(b, "small.csv", HEADER, [ROWS[0].replace("20.0,50", "19.99999,50"), ROWS[1]])
    report = parity.compare_files(a / "small.csv", b / "small.csv")
    (row,) = report["changed"]
    assert (row["trial"], row["method"], row["illumination"]) == ("0", "wmmse_bcd", "full")
    assert row["wsr"] == ("20.0", "19.99999") and row["iterations"] == ("50", "50")
    assert row["relative"] == pytest.approx(-5.0e-7)
    assert parity.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "1 down, largest rise +0.00e+00, largest drop -5.00e-07, 0 iterations changed" in out
    assert "  trial 0 wmmse_bcd full: wsr 20.0 / 19.99999 (-5.00e-07), iterations 50 / 50\n" in out


def test_write_adds_each_workload_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(_PATH.parents[1] / "perfbench"))
    import bench

    workloads = {name: dict(workload, sweep=dict(workload["sweep"], trials=2))
                 for name, workload in bench.WORKLOADS.items()}
    monkeypatch.setattr(bench, "WORKLOADS", workloads)
    out = tmp_path / "write"
    assert parity.main(["write", str(out), "--seeds", "3"]) == 0
    assert sorted(path.name for path in out.iterdir()) == [
        "rp_40dbm-3-summary.csv", "rp_40dbm-3.csv", "tp_frozen-3-summary.csv", "tp_frozen-3.csv"
    ]
    lines = capsys.readouterr().out.splitlines()
    for path in out.iterdir():
        assert f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}" in lines
    for name in workloads:
        records = run_sweep(bench.build_spec(bench.mapping(name, 3)))
        write_summary(records, tmp_path / "summary.csv")
        assert (out / f"{name}-3-summary.csv").read_bytes() == (tmp_path / "summary.csv").read_bytes()
    # A summary has no wsr or iterations column: compare matches it by its shared columns.
    copy = tmp_path / "copy"
    copy.mkdir()
    summary = (out / "tp_frozen-3-summary.csv").read_text().splitlines()
    (copy / "tp_frozen-3-summary.csv").write_text("\n".join(summary) + "\n")
    assert parity.main(["compare", str(out), str(copy)]) == 1  # three files only in A
    for path in out.iterdir():
        if path.name != "tp_frozen-3-summary.csv":
            path.unlink()
    assert parity.main(["compare", str(out), str(copy)]) == 0
    summary[1] = summary[1].replace(",2,0", ",1,1")  # one trial failed
    (copy / "tp_frozen-3-summary.csv").write_text("\n".join(summary) + "\n")
    report = parity.compare_files(out / "tp_frozen-3-summary.csv", copy / "tp_frozen-3-summary.csv")
    assert report["differing_rows"] == 1 and report["max_rel_wsr"] == 0.0
    assert parity.main(["compare", str(out), str(copy)]) == 1


def test_seed_ranges():
    assert parity.parse_seeds(["300", "500-502"]) == [300, 500, 501, 502]


def test_reference_writes_the_default_power_sweep_cut_to_n_trials(tmp_path, capsys):
    ref = tmp_path / "ref"
    assert parity.main(["reference", str(ref), "--seeds", "3", "--trials", "2"]) == 0
    assert sorted(path.name for path in ref.iterdir()) == [
        "reference-rp-3.csv", "reference-tp-3.csv"
    ]
    out = capsys.readouterr().out
    for constraint in ConstraintKind:
        name = f"reference-{constraint.value}-3.csv"
        spec = default_experiment_spec(SweepKind.POWER, constraint)
        sha = hashlib.sha256((ref / name).read_bytes()).hexdigest()
        line = next(line for line in out.splitlines() if line.startswith(f"{sha}  {name}  cpu "))
        per_value = line.split("(")[1].split(", ")  # "10: 0.12", ..., "40: 0.34)"
        assert [part.split(":")[0] for part in per_value] == [f"{v:g}" for v in spec.grid]
        # Grid value by grid value, the rows of the whole sweep.
        write_results(run_sweep(replace(spec, trials=2, base_seed=3)), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (ref / name).read_bytes()
    assert parity.main(["compare", str(ref), str(ref)]) == 0


def test_illuminations_writes_every_method_and_illumination(tmp_path, capsys):
    lit = tmp_path / "lit"
    assert parity.main(["illuminations", str(lit), "--seeds", "3", "--trials", "2"]) == 0
    assert sorted(path.name for path in lit.iterdir()) == [
        "illuminations-rp-3.csv", "illuminations-tp-3.csv"
    ]
    out = capsys.readouterr().out
    for constraint in ConstraintKind:
        name = f"illuminations-{constraint.value}-3.csv"
        sha = hashlib.sha256((lit / name).read_bytes()).hexdigest()
        assert any(line.startswith(f"{sha}  {name}  cpu ") for line in out.splitlines())
        rows = [line.split(",") for line in (lit / name).read_text().splitlines()[1:]]
        assert {(row[1], row[3], row[4]) for row in rows} == {
            (value, method.value, illumination.value)
            for value in ("20.0", "40.0") for method in Method for illumination in IlluminationMode
        }
        # The rows of the same sweep written as a configuration file would give it.
        spec = spec_from_mapping({
            "solver": {"bcd_max_iters": 30},
            "sweep": {"grid": [20, 40], "trials": 2, "base_seed": 3, "constraint": constraint.value,
                      "methods": ["wmmse_bcd", "zf_wf", "random_phases", "no_its"],
                      "illuminations": ["full", "partial", "separate"]},
        })
        write_results(run_sweep(spec), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (lit / name).read_bytes()
    assert parity.main(["compare", str(lit), str(lit)]) == 0


def test_scale_writes_the_rp_40dbm_sweep_at_each_surface_size(tmp_path, capsys):
    out = tmp_path / "scale"
    assert parity.main(["scale", str(out), "--m", "8,32", "--trials", "2", "--seeds", "3"]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["scale-32-3.csv", "scale-8-3.csv"]
    lines = capsys.readouterr().out.splitlines()
    for m, rows, cols in ((8, 4, 2), (32, 8, 4)):
        name = f"scale-{m}-3.csv"
        sha = hashlib.sha256((out / name).read_bytes()).hexdigest()
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{sha}  {name}  cpu "))
        assert "ms/trial" in lines[at + 1] and "peak rss" in lines[at + 1]
        assert "mean wsr wmmse_bcd" in lines[at + 1] and "OPENBLAS_NUM_THREADS=" in lines[at + 1]
        spec = spec_from_mapping({
            "geometry": {"n_elements": m, "grid_rows": rows, "grid_cols": cols},
            "solver": {"bcd_max_iters": 50},
            "sweep": {"grid": [40], "trials": 2, "base_seed": 3, "constraint": "rp",
                      "methods": ["wmmse_bcd", "zf_wf", "random_phases"]},
        })
        write_results(run_sweep(spec), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
    with pytest.raises(SystemExit):  # M = 100 is not 2 c^2
        parity.main(["scale", str(out), "--m", "32,100", "--trials", "2", "--seeds", "3"])


def test_scale_runs_each_worker_count_in_its_own_child(tmp_path, capsys):
    # 64 trials make two ranges of a queue's width, so two workers start a pool.
    out = tmp_path / "scale"
    assert parity.main(["scale", str(out), "--m", "8", "--trials", "64", "--seeds", "3",
                        "--workers", "1,2"]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["scale-8-3.csv", "scale-8-w2-3.csv"]
    assert (out / "scale-8-3.csv").read_bytes() == (out / "scale-8-w2-3.csv").read_bytes()
    lines = capsys.readouterr().out.splitlines()
    sha = hashlib.sha256((out / "scale-8-w2-3.csv").read_bytes()).hexdigest()
    at = next(i for i, line in enumerate(lines) if line.startswith(f"{sha}  scale-8-w2-3.csv  cpu "))
    assert "; 2 workers, 2 ranges, largest worker's peak rss " in lines[at + 1]
    assert not any("workers" in line for line in lines[:at])  # the 1-worker lines as before
    assert lines[-1].startswith("M 8: wall at 1 worker / 2 workers ")
    assert lines[-1].endswith(", sha256 same")
    with pytest.raises(SystemExit):
        parity.main(["scale", str(out), "--m", "8", "--trials", "2", "--seeds", "3",
                     "--workers", "0"])
