"""YAML experiment configuration: one table of keys and defaults, strict values.

The file is a nested mapping with five optional sections.  ``_DEFAULTS`` lists
every key with its default in file units, and the reference configuration is
the spec of an empty file (:func:`default_experiment_spec`).  An omitted or
null key takes its default; only ``median_element_gain_db: null`` means
something else (no calibration).  Unknown keys are rejected so typos fail
loudly, and a value must fit its default's type: no boolean for a number, no
fraction for an integer.  Each section is converted in one pass over its keys
in table order, so every given key is checked, even one that another key
overrides, and the first bad key is the one reported.  Decibel and degree
units appear only here; everything is converted to linear/radian/metre units
when the spec is built.

Schema (values shown are the defaults)::

    system:
      carrier_frequency_hz: 2.8e10
      noise_power: 1.0e-7          # watts
      n_users: 4
      weights: [1.0, 1.0, 1.0, 1.0]
      power_budget_dbm: 30.0       # used by non-power sweeps
    geometry:
      n_active: 4
      n_elements: 128
      grid_rows: 16
      grid_cols: 8
      active_radius_wavelengths: 1.0
      separation_r0: 10.0          # multiples of the characteristic distance
      separation_m: null           # overrides separation_r0 when set
      kappa: 49.0
      surface_loss_db: 3.5
    channel:
      n_clusters_min: 1
      n_clusters_max: 6
      pathloss_intercept_db: 72.0
      pathloss_exponent: 2.92
      shadowing_std_db: 8.7
      distance_min_m: 25.0
      distance_max_m: 100.0
      azimuth_deg: 60.0            # users uniform in [-azimuth, +azimuth]
      elevation_deg: 30.0
      cluster_angle_std_deg: 10.0
      median_element_gain_db: -70.0  # null disables calibration
      direct_kappa: null           # baseline element exponent; null = layout kappa
    solver:
      bcd_epsilon: 1.0e-3
      bcd_max_iters: 200
      pga_max_iters: 10            # phase-block L-BFGS iterations per outer iteration
    sweep:
      kind: power                  # power | distance | loss
      grid: [10, 15, 20, 25, 30, 35, 40]
      trials: 1000
      base_seed: 0
      constraint: rp               # rp | tp
      methods: [wmmse_bcd, zf_wf, random_phases]
      illuminations: [full]
"""

from __future__ import annotations

import math
from dataclasses import fields

from .channel import ChannelParams
from .errors import ConfigError
from .geometry import GeometryConfig, IlluminationMode, characteristic_distance
from .harness import SPEED_OF_LIGHT, ExperimentSpec, Method, SweepKind
from .model import ConstraintKind
from .wmmse import SolverSettings

__all__ = ["default_experiment_spec", "load_experiment_spec", "spec_from_mapping"]

# Every key of the file and its default.  None marks a default derived from
# other keys: separation_m (separation_r0), weights (1.0 per user), grid and
# methods (the per-kind tables below).  Solver keys are the SolverSettings
# fields; freeze_phases is set by the harness per method, never by a file.
_DEFAULTS = {
    "system": {
        "carrier_frequency_hz": 28e9,
        "noise_power": 1e-7,
        "n_users": 4,
        "weights": None,
        "power_budget_dbm": 30.0,
    },
    "geometry": {
        "n_active": 4,
        "n_elements": 128,
        "grid_rows": 16,
        "grid_cols": 8,
        "active_radius_wavelengths": 1.0,
        "separation_r0": 10.0,
        "separation_m": None,
        "kappa": 49.0,
        "surface_loss_db": 3.5,
    },
    "channel": {
        "n_clusters_min": 1,
        "n_clusters_max": 6,
        "pathloss_intercept_db": 72.0,
        "pathloss_exponent": 2.92,
        "shadowing_std_db": 8.7,
        "distance_min_m": 25.0,
        "distance_max_m": 100.0,
        "azimuth_deg": 60.0,
        "elevation_deg": 30.0,
        "cluster_angle_std_deg": 10.0,
        "median_element_gain_db": -70.0,
        "direct_kappa": None,
    },
    "solver": {f.name: f.default for f in fields(SolverSettings) if f.name != "freeze_phases"},
    "sweep": {
        "kind": SweepKind.POWER,
        "grid": None,
        "trials": 1000,
        "base_seed": 0,
        "constraint": ConstraintKind.RADIATED_POWER,
        "methods": None,
        "illuminations": (IlluminationMode.FULL,),
    },
}

_DEFAULT_GRIDS = {
    SweepKind.POWER: (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
    SweepKind.DISTANCE: (1.0, 2.0, 5.0, 10.0, 20.0, 50.0),
    SweepKind.LOSS: (0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0),
}

_DEFAULT_METHODS = {
    SweepKind.POWER: (Method.WMMSE_BCD, Method.ZF_WF, Method.RANDOM_PHASES),
    SweepKind.DISTANCE: (Method.WMMSE_BCD, Method.ZF_WF, Method.RANDOM_PHASES),
    SweepKind.LOSS: (Method.WMMSE_BCD, Method.RANDOM_PHASES, Method.NO_ITS),
}


def _real(value) -> float:
    if isinstance(value, bool):
        raise TypeError("expected a number, not a boolean")
    return float(value)


def _integer(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("expected an integer")
    return int(value)


# A key is converted by its default's type: numbers strictly, enums by value.
_CONVERTERS = {float: _real, int: _integer, type(None): _real}


def _check_keys(mapping: dict) -> None:
    for section, content in mapping.items():
        if section not in _DEFAULTS:
            raise ConfigError(f"unknown configuration section {section!r}")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        unknown = set(content) - set(_DEFAULTS[section])
        if unknown:
            raise ConfigError(f"unknown keys in section {section!r}: {sorted(unknown)}")


def _tuple_of(convert, nonempty: bool = False):
    """Converter of a list, which must name at least one item if ``nonempty``; a bare string
    is rejected, not split into characters."""
    def converted(values):
        if isinstance(values, str):
            raise TypeError("expected a list")
        items = tuple(convert(v) for v in values)
        if nonempty and not items:
            raise ValueError("expected at least one item")
        return items
    return converted


# The list keys, whose converters no default's type gives.
_LISTS = {
    "weights": _tuple_of(_real),
    "grid": _tuple_of(_real),
    "methods": _tuple_of(Method, nonempty=True),
    "illuminations": _tuple_of(IlluminationMode, nonempty=True),
}


def _section(mapping: dict, section: str) -> dict:
    """Every key of ``section``, given or defaulted, converted in ``_DEFAULTS`` order."""
    given, values = mapping.get(section) or {}, {}
    for key, default in _DEFAULTS[section].items():
        value = given.get(key, default)
        if value is None and key != "median_element_gain_db":
            value = default
        convert = _LISTS.get(key) or _CONVERTERS.get(type(default), type(default))
        try:
            values[key] = None if value is None else convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid value {value!r} for {section}.{key}: {exc}") from None
    return values


def spec_from_mapping(mapping: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a (possibly partial) nested mapping."""
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, dict):
        raise ConfigError("configuration root must be a mapping")
    _check_keys(mapping)

    system = _section(mapping, "system")
    carrier = system["carrier_frequency_hz"]
    if not 0.0 < carrier < math.inf:  # NaN fails
        raise ConfigError(f"system.carrier_frequency_hz must be finite and positive: {carrier!r}")
    wavelength = SPEED_OF_LIGHT / carrier
    geo = _section(mapping, "geometry")
    r0 = characteristic_distance(geo["n_elements"], geo["n_active"], wavelength)
    separation = geo["separation_r0"] * r0 if geo["separation_m"] is None else geo["separation_m"]
    geometry = GeometryConfig(
        n_active=geo["n_active"], n_elements=geo["n_elements"], wavelength=wavelength,
        active_radius=geo["active_radius_wavelengths"] * wavelength, separation=separation,
        kappa=geo["kappa"], surface_efficiency=10.0 ** (-geo["surface_loss_db"] / 10.0),
        grid_shape=(geo["grid_rows"], geo["grid_cols"]),
    )
    ch = _section(mapping, "channel")
    channel = ChannelParams(
        n_clusters_range=(ch["n_clusters_min"], ch["n_clusters_max"]),
        pathloss_intercept_db=ch["pathloss_intercept_db"],
        pathloss_exponent=ch["pathloss_exponent"], shadowing_std_db=ch["shadowing_std_db"],
        user_distance_range=(ch["distance_min_m"], ch["distance_max_m"]),
        azimuth_range=_symmetric_range(ch["azimuth_deg"]),
        elevation_range=_symmetric_range(ch["elevation_deg"]),
        cluster_angle_std=math.radians(ch["cluster_angle_std_deg"]),
        gain_normalization_db=ch["median_element_gain_db"], direct_kappa=ch["direct_kappa"],
    )
    solver = SolverSettings(**_section(mapping, "solver"))
    sweep = _section(mapping, "sweep")
    kind, n_users = sweep["kind"], system["n_users"]
    return ExperimentSpec(
        sweep=kind, trials=sweep["trials"], base_seed=sweep["base_seed"],
        grid=_DEFAULT_GRIDS[kind] if sweep["grid"] is None else sweep["grid"],
        methods=_DEFAULT_METHODS[kind] if sweep["methods"] is None else sweep["methods"],
        illuminations=sweep["illuminations"], constraint=sweep["constraint"],
        n_users=n_users, noise_power=system["noise_power"],
        weights=(1.0,) * n_users if system["weights"] is None else system["weights"],
        power_budget_dbm=system["power_budget_dbm"],
        geometry=geometry, channel=channel, solver=solver,
    )


def default_experiment_spec(
    sweep: SweepKind = SweepKind.POWER,
    constraint: ConstraintKind = ConstraintKind.RADIATED_POWER,
) -> ExperimentSpec:
    """Reference configuration: 4 chains, 16x8 surface, 4 users at 28 GHz.

    The model of Jamali et al., IEEE OJ-COMS 2021: the spec of an empty
    configuration file under ``sweep`` and ``constraint``.  Every study varies
    it along one axis.
    """
    return spec_from_mapping({"sweep": {"kind": sweep.value, "constraint": constraint.value}})


def _symmetric_range(half_width_deg: float) -> tuple:
    half = math.radians(half_width_deg)
    return (-half, half)


def load_experiment_spec(path=None, overrides: dict | None = None) -> ExperimentSpec:
    """Load a spec from a YAML file (or defaults when ``path`` is None).

    ``overrides`` is an optional ``{section: {key: value}}`` mapping applied on
    top of the file, used by the command line flags; a None value keeps the
    file's value.  PyYAML is imported only here, when a file is read.
    """
    mapping: dict = {}
    if path is not None:
        import yaml
        with open(path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"configuration root in {path} must be a mapping")
        mapping = loaded
    _check_keys(mapping)  # a section must be a mapping before overrides merge into it
    for section, content in (overrides or {}).items():
        given = {k: v for k, v in (content or {}).items() if v is not None}
        if given:
            mapping[section] = {**(mapping.get(section) or {}), **given}
    return spec_from_mapping(mapping)
