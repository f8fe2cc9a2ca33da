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


def test_seed_ranges():
    assert parity.parse_seeds(["300", "500-502"]) == [300, 500, 501, 502]
