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
    "solver": {
        "bcd_epsilon",
        "bcd_max_iters",
        "pga_max_iters",
        "tau_init",
        "armijo_shrink",
        "armijo_zeta",
        "dual_tolerance",
        "dual_max_iters",
    },
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


def _get(mapping: dict, section: str, key: str, default):
    content = mapping.get(section) or {}
    value = content.get(key, default)
    return default if value is None and key != "median_element_gain_db" else value


def spec_from_mapping(mapping: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a (possibly partial) nested mapping."""
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, dict):
        raise ConfigError("configuration root must be a mapping")
    _check_keys(mapping)

    try:
        kind = SweepKind(_get(mapping, "sweep", "kind", "power"))
        constraint = ConstraintKind(_get(mapping, "sweep", "constraint", "rp"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    carrier = float(_get(mapping, "system", "carrier_frequency_hz", 28e9))
    wavelength = SPEED_OF_LIGHT / carrier
    n_active = int(_get(mapping, "geometry", "n_active", 4))
    n_elements = int(_get(mapping, "geometry", "n_elements", 128))
    rows = int(_get(mapping, "geometry", "grid_rows", 16))
    cols = int(_get(mapping, "geometry", "grid_cols", 8))
    r0 = characteristic_distance(n_elements, n_active, wavelength)
    separation_m = (mapping.get("geometry") or {}).get("separation_m")
    separation = (
        float(separation_m)
        if separation_m is not None
        else float(_get(mapping, "geometry", "separation_r0", 10.0)) * r0
    )
    try:
        illumination = IlluminationMode(_get(mapping, "geometry", "illumination", "full"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    geometry = GeometryConfig(
        n_active=n_active,
        n_elements=n_elements,
        wavelength=wavelength,
        active_radius=float(_get(mapping, "geometry", "active_radius_wavelengths", 1.0))
        * wavelength,
        separation=separation,
        kappa=float(_get(mapping, "geometry", "kappa", 49.0)),
        surface_efficiency=10.0
        ** (-float(_get(mapping, "geometry", "surface_loss_db", 3.5)) / 10.0),
        illumination=illumination,
        grid_shape=(rows, cols),
    )

    gain_db = _get(mapping, "channel", "median_element_gain_db", -70.0)
    direct_kappa = _get(mapping, "channel", "direct_kappa", None)
    channel = ChannelParams(
        carrier_frequency=carrier,
        n_clusters_range=(
            int(_get(mapping, "channel", "n_clusters_min", 1)),
            int(_get(mapping, "channel", "n_clusters_max", 6)),
        ),
        pathloss_intercept_db=float(_get(mapping, "channel", "pathloss_intercept_db", 72.0)),
        pathloss_exponent=float(_get(mapping, "channel", "pathloss_exponent", 2.92)),
        shadowing_std_db=float(_get(mapping, "channel", "shadowing_std_db", 8.7)),
        user_distance_range=(
            float(_get(mapping, "channel", "distance_min_m", 25.0)),
            float(_get(mapping, "channel", "distance_max_m", 100.0)),
        ),
        azimuth_range=_symmetric_range(_get(mapping, "channel", "azimuth_deg", 60.0)),
        elevation_range=_symmetric_range(_get(mapping, "channel", "elevation_deg", 30.0)),
        cluster_angle_std=math.radians(
            float(_get(mapping, "channel", "cluster_angle_std_deg", 10.0))
        ),
        gain_normalization_db=None if gain_db is None else float(gain_db),
        direct_kappa=(
            None if direct_kappa is None else float(direct_kappa)
        ),
    )

    solver = SolverSettings(
        bcd_epsilon=float(_get(mapping, "solver", "bcd_epsilon", 1e-3)),
        bcd_max_iters=int(_get(mapping, "solver", "bcd_max_iters", 200)),
        pga_max_iters=int(_get(mapping, "solver", "pga_max_iters", 50)),
        tau_init=float(_get(mapping, "solver", "tau_init", 1.0)),
        armijo_shrink=float(_get(mapping, "solver", "armijo_shrink", 0.5)),
        armijo_zeta=float(_get(mapping, "solver", "armijo_zeta", 1e-3)),
        dual_tolerance=float(_get(mapping, "solver", "dual_tolerance", 1e-6)),
        dual_max_iters=int(_get(mapping, "solver", "dual_max_iters", 100)),
    )

    n_users = int(_get(mapping, "system", "n_users", 4))
    weights = _get(mapping, "system", "weights", None)
    if weights is None:
        weights = (1.0,) * n_users
    try:
        methods = tuple(
            Method(m) for m in _get(mapping, "sweep", "methods", None)
            or [m.value for m in _DEFAULT_METHODS[kind]]
        )
        illuminations = tuple(
            IlluminationMode(i)
            for i in _get(mapping, "sweep", "illuminations", None) or ["full"]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    return ExperimentSpec(
        sweep=kind,
        grid=tuple(float(v) for v in _get(mapping, "sweep", "grid", _DEFAULT_GRIDS[kind])),
        trials=int(_get(mapping, "sweep", "trials", 1000)),
        base_seed=int(_get(mapping, "sweep", "base_seed", 0)),
        methods=methods,
        illuminations=illuminations,
        constraint=constraint,
        n_users=n_users,
        weights=tuple(float(w) for w in weights),
        noise_power=float(_get(mapping, "system", "noise_power", 1e-7)),
        power_budget_dbm=float(_get(mapping, "system", "power_budget_dbm", 30.0)),
        geometry=geometry,
        channel=channel,
        solver=solver,
        record_timing=bool(_get(mapping, "sweep", "record_timing", False)),
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
