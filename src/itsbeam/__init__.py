"""itsbeam: multi-user MIMO downlink beamforming through a transmissive surface.

A small active array illuminates a large passive surface whose elements apply
unit-modulus phase shifts; the surface, not the array, forms the beams toward
the users.  The package provides

* ``model``     the frozen problem instance and SINR / sum-rate / power ops;
* ``geometry``  array layouts, the cosine-power element pattern and the
  antenna-to-surface transfer matrix for full / partial / separate
  illumination;
* ``channel``   clustered stochastic surface-to-user channels with a
  log-distance pathloss law, plus the direct channel of the no-surface
  baseline;
* ``wmmse``     the block-coordinate solver (FP surrogate, gradient ascent on
  the unit circle for the phases, water-level dual for the precoder);
* ``zfwf``      the closed-form phase-alignment + zero-forcing +
  water-filling baseline;
* ``harness``   seeded Monte Carlo sweeps with deterministic CSV output.

See the README for the experiment CLI (``itsbeam sweep | solve | selfcheck``)
and the YAML configuration schema.
"""

from .errors import (
    BeamformingError,
    ChannelError,
    ConfigError,
    DimensionMismatchError,
    GeometryError,
    SolverError,
)
from .model import (
    ConstraintKind,
    PhaseConfig,
    Precoder,
    Solution,
    SystemInstance,
    constraint_value,
    effective_channel,
    sinr,
    spectral_efficiency,
    wsr,
)
from .geometry import (
    ArrayLayout,
    GeometryConfig,
    IlluminationMode,
    antenna_gain,
    build_layout,
    build_transfer_matrix,
    characteristic_distance,
)
from .channel import (
    ChannelParams,
    UserDrop,
    aperture_response,
    sample_channel,
    sample_direct_channel,
    sample_user_drop,
)
from .wmmse import (
    AnalogSubproblem,
    AuxVariables,
    SolverSettings,
    analog_objective,
    analog_objective_and_gradient,
    bcd_solve,
    build_analog_subproblem,
    dual_search,
    surrogate_objective,
    update_gamma,
    update_y,
)
from .zfwf import PowerAllocation, phase_align, waterfill, zf_directions, zfwf_solve
from .harness import (
    CSV_HEADER,
    SPEED_OF_LIGHT,
    ExperimentSpec,
    Method,
    ResultRecord,
    SweepKind,
    dbm_to_watts,
    emit_plot_script,
    run_sweep,
    run_trial,
    solve_cell,
    trial,
    trial_seed,
    write_results,
    write_summary,
)
from .config import default_experiment_spec, load_experiment_spec, spec_from_mapping

__version__ = "0.1.0"

__all__ = [
    "BeamformingError",
    "ChannelError",
    "ConfigError",
    "DimensionMismatchError",
    "GeometryError",
    "SolverError",
    "ConstraintKind",
    "PhaseConfig",
    "Precoder",
    "Solution",
    "SystemInstance",
    "constraint_value",
    "effective_channel",
    "sinr",
    "spectral_efficiency",
    "wsr",
    "ArrayLayout",
    "GeometryConfig",
    "IlluminationMode",
    "antenna_gain",
    "build_layout",
    "build_transfer_matrix",
    "characteristic_distance",
    "ChannelParams",
    "UserDrop",
    "aperture_response",
    "sample_channel",
    "sample_direct_channel",
    "sample_user_drop",
    "AnalogSubproblem",
    "AuxVariables",
    "SolverSettings",
    "analog_objective",
    "analog_objective_and_gradient",
    "bcd_solve",
    "build_analog_subproblem",
    "dual_search",
    "surrogate_objective",
    "update_gamma",
    "update_y",
    "PowerAllocation",
    "phase_align",
    "waterfill",
    "zf_directions",
    "zfwf_solve",
    "CSV_HEADER",
    "SPEED_OF_LIGHT",
    "ExperimentSpec",
    "Method",
    "ResultRecord",
    "SweepKind",
    "dbm_to_watts",
    "default_experiment_spec",
    "emit_plot_script",
    "run_sweep",
    "run_trial",
    "solve_cell",
    "trial",
    "trial_seed",
    "write_results",
    "write_summary",
    "load_experiment_spec",
    "spec_from_mapping",
]
