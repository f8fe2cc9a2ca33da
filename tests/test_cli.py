"""Command line interface: sweep, solve, selfcheck."""

import ast
import importlib
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import itsbeam
from itsbeam import CSV_HEADER, zfwf_solve
from itsbeam.cli import main
from itsbeam.selfcheck import _check_zf, _random_instance

TINY_CONFIG = """
system:
  n_users: 2
  weights: [1.0, 1.0]
geometry:
  n_active: 2
  n_elements: 8
  grid_rows: 4
  grid_cols: 2
solver:
  bcd_max_iters: 25
sweep:
  kind: power
  grid: [20.0, 30.0]
  trials: 2
  constraint: tp
  methods: [zf_wf, wmmse_bcd]
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_CONFIG)
    return str(path)


def test_sweep_writes_outputs(tmp_path, config_path):
    out = tmp_path / "results.csv"
    summary = tmp_path / "summary.csv"
    plot = tmp_path / "plot.py"
    code = main(
        [
            "sweep",
            "--config",
            config_path,
            "--out",
            str(out),
            "--summary",
            str(summary),
            "--plot",
            str(plot),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 2
    assert summary.read_text().startswith("sweep,")
    compile(plot.read_text(), str(plot), "exec")


def test_sweep_byte_identical_reruns(tmp_path, config_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", config_path, "--out", str(a)]) == 0
    assert main(["sweep", "--config", config_path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_flag_overrides(tmp_path, config_path):
    out = tmp_path / "one.csv"
    code = main(
        ["sweep", "--config", config_path, "--trials", "1", "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2 * 1 * 2
    assert all(row.split(",")[2] == "0" for row in rows)


def test_sweep_requires_out(config_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--config", config_path])


# Former keys, now constants of wmmse, gone with the CSV's time column, or
# (illumination) read only from sweep.illuminations: a file that still sets one
# fails with an error that names it.
REMOVED_KEYS = (
    ("geometry", "illumination", "separate"),
    ("solver", "tau_init", "1.0"),
    ("solver", "armijo_shrink", "0.5"),
    ("solver", "armijo_zeta", "1.0e-3"),
    ("solver", "dual_tolerance", "1.0e-6"),
    ("solver", "dual_max_iters", "100"),
    ("sweep", "record_timing", "false"),
)


def test_sweep_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    out = tmp_path / "never.csv"
    for text in (
        "sweep:\n  nonsense_key: 1\n",
        TINY_CONFIG.replace("[1.0, 1.0]", "[1.0, -1.0]"),
        TINY_CONFIG.replace("grid: [20.0, 30.0]", "grid: 30"),
        TINY_CONFIG.replace("trials: 2", "trials: abc"),
    ):
        bad.write_text(text)
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
    for section, key, value in REMOVED_KEYS:
        bad.write_text(TINY_CONFIG.replace(f"{section}:\n", f"{section}:\n  {key}: {value}\n"))
        capsys.readouterr()
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
        assert f"unknown keys in section '{section}': ['{key}']" in capsys.readouterr().err
        assert not out.exists()
    bad.write_text(TINY_CONFIG)
    with pytest.raises(SystemExit) as exit_info:  # the wall-time switch is gone too
        main(["sweep", "--config", str(bad), "--out", str(out), "--timing"])
    assert exit_info.value.code == 2
    assert not out.exists()
    # A section that is not a mapping, with a flag to merge into it.
    bad.write_text("sweep: [1]\n")
    assert main(["sweep", "--config", str(bad), "--trials", "2", "--out", str(out)]) == 2
    assert not out.exists()
    # A zero carrier, for solve too: an error line naming the key, not a traceback.
    bad.write_text(TINY_CONFIG.replace("system:\n", "system:\n  carrier_frequency_hz: 0\n"))
    for command in (["sweep", "--out", str(out)], ["solve", "--dump-solution", str(out)]):
        capsys.readouterr()
        assert main([*command, "--config", str(bad)]) == 2
        assert "system.carrier_frequency_hz" in capsys.readouterr().err
        assert not out.exists()
    # An infinite distance, from which no user can be drawn.
    bad.write_text(TINY_CONFIG.replace("system:\n", "channel:\n  distance_max_m: .inf\nsystem:\n"))
    capsys.readouterr()
    assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: user_distance_range must be finite")
    assert not out.exists()
    # A kappa whose peak gain 2 (1 + kappa) overflows.
    bad.write_text(TINY_CONFIG.replace("geometry:\n", "geometry:\n  kappa: 1.0e308\n"))
    capsys.readouterr()
    assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: kappa must be finite")
    assert not out.exists()
    # Five antennas, which no layout can give equal rectangular sectors of the 4x2 grid.
    bad.write_text(TINY_CONFIG.replace("n_active: 2", "n_active: 5"))
    capsys.readouterr()
    assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: cannot partition a 4x2 grid into 5 equal rectangular sectors")
    assert not out.exists()


def test_sweep_rejects_negative_seed(tmp_path, config_path):
    out = tmp_path / "never.csv"
    assert main(["sweep", "--config", config_path, "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()


def test_sweep_rejects_nan_solver_setting(tmp_path):
    bad = tmp_path / "nan.yaml"
    out = tmp_path / "never.csv"
    solver = "bcd_max_iters: 25"
    bad.write_text(TINY_CONFIG.replace(solver, solver + "\n  bcd_epsilon: .nan"))
    assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


def test_solve_dumps_json(tmp_path, config_path):
    dump = tmp_path / "solution.json"
    code = main(
        [
            "solve",
            "--config",
            config_path,
            "--method",
            "zf_wf",
            "--dump-solution",
            str(dump),
        ]
    )
    assert code == 0
    payload = json.loads(dump.read_text())
    assert payload["method"] == "zf_wf"
    assert payload["constraint"] == "tp"
    assert isinstance(payload["wsr"], float) and payload["wsr"] > 0
    assert len(payload["sinr"]) == 2
    assert len(payload["phases"]) == 8
    assert len(payload["precoder_real"]) == 2
    assert len(payload["precoder_real"][0]) == 2
    assert payload["constraint_slack"] >= -1e-9


def test_solve_bcd_trace_monotone(tmp_path, config_path):
    dump = tmp_path / "bcd.json"
    code = main(
        [
            "solve",
            "--config",
            config_path,
            "--method",
            "wmmse_bcd",
            "--dump-solution",
            str(dump),
        ]
    )
    assert code == 0
    payload = json.loads(dump.read_text())
    values = [v for _, v in payload["trace"]]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    assert abs(payload["wsr"] - values[-1]) < 1e-9
    assert "stop" in payload["detail"][-1]


def test_solve_solves_one_instance(tmp_path, config_path, monkeypatch):
    # The config holds two trials; solve reads trial 0 at the 30 dBm budget and
    # solves it alone, with the bits that trial's cell has in a sweep.
    import itsbeam.harness as harness

    admitted = []
    solve = harness.bcd_solve

    def counting(items, settings, **kwargs):
        admitted.append(0)

        def source():
            for item in items:
                admitted[-1] += item is not None
                yield item

        return solve(source(), settings, **kwargs)

    monkeypatch.setattr(harness, "bcd_solve", counting)
    dump = tmp_path / "bcd.json"
    assert main(["solve", "--config", config_path, "--dump-solution", str(dump)]) == 0
    assert admitted == [1]
    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", config_path, "--out", str(sweep)]) == 0
    row = next(line for line in sweep.read_text().splitlines() if ",30.0,0,wmmse_bcd," in line)
    assert float(row.split(",")[6]) == json.loads(dump.read_text())["wsr"]


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_selfcheck_zf_passes_with_a_user_switched_off():
    # On this draw water-filling gives user 2 zero power, so its signal is 0
    # and only roundoff interference remains in the cross-gain matrix.
    powers = zfwf_solve(_random_instance(np.random.default_rng(1))).detail["powers"]
    assert np.count_nonzero(powers) == 3
    assert _check_zf(np.random.default_rng(1))


def test_every_export_resolves():
    # A name left in an __all__ after its definition is gone fails only on a star import.
    modules = [itsbeam] + [
        importlib.import_module(f"itsbeam.{info.name}")
        for info in pkgutil.iter_modules(itsbeam.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 10 and missing == []
    # The package exports each module's __all__, in import order, and no name twice.
    order = ("errors", "model", "geometry", "channel", "wmmse", "zfwf", "harness", "config")
    joined = [name for part in order for name in importlib.import_module(f"itsbeam.{part}").__all__]
    assert itsbeam.__all__ == joined and len(set(joined)) == len(joined)


# Names imported only so that the benchmark's call-site tracer can wrap them as module
# attributes; they can go once it wraps them where they are defined (ROADMAP 12(b)).
TRACED_IMPORTS = {
    "harness": {"sinr", "constraint_value", "effective_channel"},
    "zfwf": {"sinr", "constraint_value", "effective_channel"},
    "wmmse": {"wsr"},
}


def test_modules_use_what_they_import():
    unused = []
    for path in sorted(Path(itsbeam.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if alias.name != "*" and getattr(node, "module", None) != "__future__"
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        allowed = TRACED_IMPORTS.get(path.stem, set())
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used - allowed)]
    assert unused == []
