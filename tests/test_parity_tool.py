"""tools/parity.py: comparing two sets of sweep CSVs."""

import importlib.util
from pathlib import Path

import pytest

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


def test_seed_ranges():
    assert parity.parse_seeds(["300", "500-502"]) == [300, 500, 501, 502]
