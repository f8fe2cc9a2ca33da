"""YAML experiment configuration: documented schema, defaults, strict key checking.

The file is a nested mapping with five optional sections; any omitted key
falls back to the reference defaults of
:func:`itsbeam.harness.default_experiment_spec`.  Unknown keys are rejected so
typos fail loudly.  Decibel and degree units appear only here; everything is
converted to linear/radian/metre units when the spec is built.

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
      illumination: full           # full | partial | separate
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
      pga_max_iters: 50
      tau_init: 1.0
      armijo_shrink: 0.5
      armijo_zeta: 1.0e-3
      dual_tolerance: 1.0e-6
      dual_max_iters: 100
    sweep:
      kind: power                  # power | distance | loss
      grid: [10, 15, 20, 25, 30, 35, 40]
      trials: 1000
      base_seed: 0
      constraint: rp               # rp | tp
      methods: [wmmse_bcd, zf_wf, random_phases]
      illuminations: [full]
      record_timing: false
"""

from __future__ import annotations

import math
from dataclasses import fields

import yaml

from .channel import ChannelParams
from .errors import ConfigError
from .geometry import GeometryConfig, IlluminationMode, characteristic_distance
from .harness import (
    SPEED_OF_LIGHT,
    ExperimentSpec,
    Method,
    SweepKind,
    _DEFAULT_GRIDS,
    _DEFAULT_METHODS,
)
from .model import ConstraintKind
from .wmmse import SolverSettings

__all__ = ["load_experiment_spec", "spec_from_mapping"]

# Solver keys are the SolverSettings fields, converted to their default's type;
# freeze_phases is set by the harness per method, never by a file.
_SOLVER_TYPES = {f.name: type(f.default) for f in fields(SolverSettings)}
del _SOLVER_TYPES["freeze_phases"]

_SECTION_KEYS = {
    "system": {
        "carrier_frequency_hz",
        "noise_power",
        "n_users",
        "weights",
        "power_budget_dbm",
    },
    "geometry": {
        "n_active",
        "n_elements",
        "grid_rows",
        "grid_cols",
        "active_radius_wavelengths",
        "separation_r0",
        "separation_m",
        "kappa",
        "surface_loss_db",
        "illumination",
    },
    "channel": {
        "n_clusters_min",
        "n_clusters_max",
        "pathloss_intercept_db",
        "pathloss_exponent",
        "shadowing_std_db",
        "distance_min_m",
        "distance_max_m",
        "azimuth_deg",
        "elevation_deg",
        "cluster_angle_std_deg",
        "median_element_gain_db",
        "direct_kappa",
    },
    "solver": set(_SOLVER_TYPES),
    "sweep": {
        "kind",
        "grid",
        "trials",
        "base_seed",
        "constraint",
        "methods",
        "illuminations",
        "record_timing",
    },
}


def _check_keys(mapping: dict) -> None:
    for section, content in mapping.items():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown configuration section {section!r}")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        unknown = set(content) - _SECTION_KEYS[section]
        if unknown:
            raise ConfigError(f"unknown keys in section {section!r}: {sorted(unknown)}")


def _get(mapping: dict, section: str, key: str, default, convert=float):
    """``convert`` of the value (or of ``default``); ConfigError naming the key if it fails."""
    value = (mapping.get(section) or {}).get(key, default)
    if value is None and key != "median_element_gain_db":
        value = default
    try:
        return None if value is None else convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value {value!r} for {section}.{key}: {exc}") from None


def _tuple_of(convert):
    """Converter of a list; a bare string is rejected, not split into characters."""
    def converted(values):
        if isinstance(values, str):
            raise TypeError("expected a list")
        return tuple(convert(v) for v in values)
    return converted


def spec_from_mapping(mapping: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a (possibly partial) nested mapping."""
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, dict):
        raise ConfigError("configuration root must be a mapping")
    _check_keys(mapping)

    kind = _get(mapping, "sweep", "kind", "power", SweepKind)
    carrier = _get(mapping, "system", "carrier_frequency_hz", 28e9)
    wavelength = SPEED_OF_LIGHT / carrier
    n_active = _get(mapping, "geometry", "n_active", 4, int)
    n_elements = _get(mapping, "geometry", "n_elements", 128, int)
    r0 = characteristic_distance(n_elements, n_active, wavelength)
    separation = _get(mapping, "geometry", "separation_m", None)
    if separation is None:
        separation = _get(mapping, "geometry", "separation_r0", 10.0) * r0
    geometry = GeometryConfig(
        n_active=n_active,
        n_elements=n_elements,
        wavelength=wavelength,
        active_radius=_get(mapping, "geometry", "active_radius_wavelengths", 1.0) * wavelength,
        separation=separation,
        kappa=_get(mapping, "geometry", "kappa", 49.0),
        surface_efficiency=10.0 ** (-_get(mapping, "geometry", "surface_loss_db", 3.5) / 10.0),
        illumination=_get(mapping, "geometry", "illumination", "full", IlluminationMode),
        grid_shape=(
            _get(mapping, "geometry", "grid_rows", 16, int),
            _get(mapping, "geometry", "grid_cols", 8, int),
        ),
    )

    channel = ChannelParams(
        carrier_frequency=carrier,
        n_clusters_range=(
            _get(mapping, "channel", "n_clusters_min", 1, int),
            _get(mapping, "channel", "n_clusters_max", 6, int),
        ),
        pathloss_intercept_db=_get(mapping, "channel", "pathloss_intercept_db", 72.0),
        pathloss_exponent=_get(mapping, "channel", "pathloss_exponent", 2.92),
        shadowing_std_db=_get(mapping, "channel", "shadowing_std_db", 8.7),
        user_distance_range=(
            _get(mapping, "channel", "distance_min_m", 25.0),
            _get(mapping, "channel", "distance_max_m", 100.0),
        ),
        azimuth_range=_get(mapping, "channel", "azimuth_deg", 60.0, _symmetric_range),
        elevation_range=_get(mapping, "channel", "elevation_deg", 30.0, _symmetric_range),
        cluster_angle_std=math.radians(_get(mapping, "channel", "cluster_angle_std_deg", 10.0)),
        gain_normalization_db=_get(mapping, "channel", "median_element_gain_db", -70.0),
        direct_kappa=_get(mapping, "channel", "direct_kappa", None),
    )

    solver = SolverSettings(**{
        key: _get(mapping, "solver", key, None, _SOLVER_TYPES[key])
        for key, value in (mapping.get("solver") or {}).items() if value is not None
    })

    n_users = _get(mapping, "system", "n_users", 4, int)
    return ExperimentSpec(
        sweep=kind,
        grid=_get(mapping, "sweep", "grid", _DEFAULT_GRIDS[kind], _tuple_of(float)),
        trials=_get(mapping, "sweep", "trials", 1000, int),
        base_seed=_get(mapping, "sweep", "base_seed", 0, int),
        methods=_get(mapping, "sweep", "methods", None, _tuple_of(Method))
        or _DEFAULT_METHODS[kind],
        illuminations=_get(mapping, "sweep", "illuminations", None, _tuple_of(IlluminationMode))
        or (IlluminationMode.FULL,),
        constraint=_get(mapping, "sweep", "constraint", "rp", ConstraintKind),
        n_users=n_users,
        weights=_get(mapping, "system", "weights", (1.0,) * n_users, _tuple_of(float)),
        noise_power=_get(mapping, "system", "noise_power", 1e-7),
        power_budget_dbm=_get(mapping, "system", "power_budget_dbm", 30.0),
        geometry=geometry,
        channel=channel,
        solver=solver,
        record_timing=_get(mapping, "sweep", "record_timing", False, bool),
    )


def _symmetric_range(half_width_deg) -> tuple:
    half = math.radians(float(half_width_deg))
    return (-half, half)


def load_experiment_spec(path=None, overrides: dict | None = None) -> ExperimentSpec:
    """Load a spec from a YAML file (or defaults when ``path`` is None).

    ``overrides`` is an optional ``{section: {key: value}}`` mapping applied on
    top of the file, used by the command line flags.
    """
    mapping: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"configuration root in {path} must be a mapping")
        mapping = loaded
    if overrides:
        for section, content in overrides.items():
            if content is None:
                continue
            base = dict(mapping.get(section) or {})
            base.update({k: v for k, v in content.items() if v is not None})
            mapping[section] = base
    return spec_from_mapping(mapping)
