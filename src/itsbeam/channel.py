"""Stochastic surface-to-user channels: user drops, pathloss, clustered fading.

The small-scale model is a clustered geometric stand-in: each user's channel is
a pathloss-weighted sum of L planewave arrivals,

    h_k = sqrt(beta_k) * sum_l g_l * a(omega_l),      E[ sum_l |g_l|^2 ] = 1,

where a(.) is the aperture response of the surface grid, cluster 1 points at
the true user direction, and the remaining clusters are angular perturbations
of it.  Large-scale gain beta_k follows the usual log-distance law

    PL_dB = intercept + 10 * exponent * log10(d) + shadowing,

with NLOS mmWave defaults (72.0 dB intercept, exponent 2.92, 8.7 dB lognormal
shadowing at 28 GHz).  Because the absolute link budget of a transmissive
surface deployment is scenario-specific, an optional calibration rescales each
sampled matrix by one scalar so that its median per-element gain equals
``gain_normalization_db`` (default -70 dB, which puts the default noise floor
and power budgets in a useful operating range).  The calibration pins the
overall level of every draw while preserving the relative strengths of the
users within it; disable it to study raw pathloss and shadowing.

`sample_direct_channel` produces the K x N antenna-to-user channel used by the
no-surface baseline: identical propagation statistics and calibration, but the
aperture is the active antenna ring and each antenna additionally applies its
element gain toward every arrival.  The gain pattern sits outside the
calibration: the propagation medium is calibrated, the pattern is hardware.
``direct_kappa`` selects the baseline's pattern exponent; the default (None)
keeps the layout's feed horns, which pay a heavy penalty toward off-axis users.
Both draw each user in one order: the shadowing normal (if its spread is not 0),
the cluster count L, then one block of 4L normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChannelError
from .geometry import ArrayLayout, antenna_gain

__all__ = [
    "ChannelParams",
    "UserDrop",
    "direction_from_angles",
    "sample_user_drop",
    "aperture_response",
    "pathloss_db",
    "calibrate_rows",
    "cluster_channel_row",
    "sample_channel",
    "sample_direct_channel",
]


@dataclass(frozen=True)
class ChannelParams:
    """Parameters of the stochastic channel model (angles in radians)."""

    n_clusters_range: tuple = (1, 6)
    pathloss_intercept_db: float = 72.0
    pathloss_exponent: float = 2.92
    shadowing_std_db: float = 8.7
    user_distance_range: tuple = (25.0, 100.0)
    azimuth_range: tuple = (-math.pi / 3, math.pi / 3)
    elevation_range: tuple = (-math.pi / 6, math.pi / 6)
    cluster_angle_std: float = math.radians(10.0)
    gain_normalization_db: float | None = -70.0
    direct_kappa: float | None = None

    def __post_init__(self):
        lo, hi = self.n_clusters_range
        if not (1 <= lo <= hi):
            raise ChannelError("n_clusters_range must satisfy 1 <= lo <= hi")
        d_lo, d_hi = self.user_distance_range
        if not (0 < d_lo <= d_hi):
            raise ChannelError("user_distance_range must satisfy 0 < lo <= hi")
        for name, (a_lo, a_hi) in (
            ("azimuth_range", self.azimuth_range),
            ("elevation_range", self.elevation_range),
        ):
            if not (-0.5 * math.pi < a_lo <= a_hi < 0.5 * math.pi):
                raise ChannelError(f"{name} must lie strictly inside (-pi/2, pi/2)")
        for name in ("pathloss_intercept_db", "pathloss_exponent", "shadowing_std_db",
                     "user_distance_range", "cluster_angle_std", "gain_normalization_db",
                     "direct_kappa"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):  # None: an optional field
                raise ChannelError(f"{name} must be finite, got {value!r}")
        kappa = self.direct_kappa
        if kappa is not None and not (kappa >= 0 and math.isfinite(2.0 * (1.0 + kappa))):
            raise ChannelError(f"direct_kappa must be finite in 2 (1 + kappa) and >= 0, got {kappa!r}")
        if self.shadowing_std_db < 0 or self.cluster_angle_std < 0:
            raise ChannelError("spread parameters must be nonnegative")
        object.__setattr__(self, "n_clusters_range", (int(lo), int(hi)))


@dataclass(frozen=True)
class UserDrop:
    """Sampled user positions relative to the surface centre."""

    positions: np.ndarray   # (K, 3)
    distances: np.ndarray   # (K,)
    azimuths: np.ndarray    # (K,)
    elevations: np.ndarray  # (K,)

    @property
    def n_users(self) -> int:
        return self.positions.shape[0]


def direction_from_angles(azimuth, elevation) -> np.ndarray:
    """Unit direction(s) for azimuth/elevation measured from the +z surface normal."""
    az = np.asarray(azimuth, dtype=float)
    el = np.asarray(elevation, dtype=float)
    direction = np.stack(
        [np.sin(az) * np.cos(el), np.sin(el), np.cos(az) * np.cos(el)],
        axis=-1,
    )
    return direction


def sample_user_drop(params: ChannelParams, n_users: int, rng: np.random.Generator) -> UserDrop:
    """Draw n_users positions uniformly over the configured distance/angle ranges."""
    if n_users < 1:
        raise ChannelError("n_users must be >= 1")
    d_lo, d_hi = params.user_distance_range
    distances = rng.uniform(d_lo, d_hi, size=n_users)
    azimuths = rng.uniform(*params.azimuth_range, size=n_users)
    elevations = rng.uniform(*params.elevation_range, size=n_users)
    positions = distances[:, None] * direction_from_angles(azimuths, elevations)
    return UserDrop(positions=positions, distances=distances, azimuths=azimuths, elevations=elevations)


def aperture_response(layout: ArrayLayout, direction) -> np.ndarray:
    """Surface response exp(j 2 pi / lambda * <p_m, direction>), (M,) or stacked (..., M).

    ``direction`` is a unit vector of shape (3,), or a stack of them of shape (..., 3),
    pointing from the surface toward the source; broadside (0, 0, 1) gives the all-ones
    vector because the grid lies in z = 0.  Each direction gets its own product.
    """
    d = np.asarray(direction, dtype=float)
    phase = (2.0 * np.pi / layout.wavelength) * np.matvec(layout.element_positions, d)
    return np.exp(1j * phase)


def pathloss_db(params: ChannelParams, distance, shadowing_db=0.0):
    """Log-distance pathloss in dB: intercept + 10 * exponent * log10(d) + shadowing."""
    return (
        params.pathloss_intercept_db
        + 10.0 * params.pathloss_exponent * np.log10(np.asarray(distance, dtype=float))
        + shadowing_db
    )


def _median(values: np.ndarray) -> float:
    """``np.median(values)`` by numpy's own steps, less the ``numpy.ma`` import of its NaN check."""
    half, odd = divmod(values.size, 2)
    part = np.partition(values, [half, -1] if odd else [half - 1, half, -1], axis=None)
    middle = float(np.mean(part[half - 1 + odd : half + 1]))
    return math.nan if math.isnan(part[-1]) else middle


def calibrate_rows(rows: np.ndarray, params: ChannelParams, reference=None) -> np.ndarray:
    """Rescale a sampled channel so its median per-element gain hits the target.

    No-op when ``gain_normalization_db`` is None.  One scalar multiplies all
    rows, chosen so that the median of |h|^2 over every entry equals the
    target: the absolute link budget of the draw is pinned, while the relative
    strengths of the users within it are untouched.  When ``reference`` is
    given, the factor is computed from it instead of from ``rows`` (the
    no-surface baseline calibrates the bare propagation rows, then applies its
    antenna pattern on top, so the pattern is excluded from the calibration).
    The median is ``_median``'s: ``np.median``'s NaN check imports ``numpy.ma``.
    """
    if params.gain_normalization_db is None:
        return rows
    ref = rows if reference is None else reference
    target = 10.0 ** (params.gain_normalization_db / 10.0)
    median = _median(np.abs(ref) ** 2)
    if median <= 0:
        raise ChannelError("cannot calibrate a channel with zero median gain")
    return rows * math.sqrt(target / median)


def cluster_channel_row(
    layout: ArrayLayout,
    beta: float,
    gains: np.ndarray,
    azimuths: np.ndarray,
    elevations: np.ndarray,
) -> np.ndarray:
    """Compose one channel row sqrt(beta) * sum_l g_l * a(omega_l) from given clusters."""
    steering = aperture_response(layout, direction_from_angles(azimuths, elevations))  # (L, M)
    return math.sqrt(beta) * (np.asarray(gains, dtype=complex) @ steering)


def _check_far_field(layout_diagonal: float, drop: UserDrop) -> None:
    limit = 10.0 * layout_diagonal
    if np.any(drop.distances <= limit):
        raise ChannelError(
            f"user inside the array near field: need distance > {limit:.3g} m, "
            f"got min {drop.distances.min():.3g} m"
        )


def _draw_user(params: ChannelParams, drop: UserDrop, k: int, rng):
    """User k's (beta, gains, azimuths, elevations), drawn as the shadowing normal, the cluster
    count L, then 4L normals: gains' real and imaginary parts, azimuth and elevation offsets."""
    shadow = params.shadowing_std_db * rng.standard_normal() if params.shadowing_std_db > 0 else 0.0
    pl_db = float(pathloss_db(params, float(drop.distances[k]), shadow))
    try:
        beta = 10.0 ** (-pl_db / 10.0)
    except OverflowError:
        raise ChannelError(f"path loss {pl_db:.4g} dB overflows the channel gain") from None
    n_clusters = int(rng.integers(*params.n_clusters_range, endpoint=True))
    re, im, d_az, d_el = rng.standard_normal(4 * n_clusters).reshape(4, n_clusters)
    gains = (re + 1j * im) * math.sqrt(0.5 / n_clusters)  # E[sum |g_l|^2] = 1: CN(0, 1/L) each
    az = drop.azimuths[k] + params.cluster_angle_std * d_az
    el = drop.elevations[k] + params.cluster_angle_std * d_el
    az[0], el[0] = drop.azimuths[k], drop.elevations[k]  # cluster 1 is the true direction
    return beta, gains, az, el


def sample_channel(
    layout: ArrayLayout,
    drop: UserDrop,
    params: ChannelParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the (K, M) surface-to-user channel matrix for one drop."""
    _check_far_field(layout.aperture_diagonal(), drop)
    rows = [cluster_channel_row(layout, *_draw_user(params, drop, k, rng))
            for k in range(drop.n_users)]
    return calibrate_rows(np.array(rows), params)


def sample_direct_channel(
    layout: ArrayLayout,
    drop: UserDrop,
    params: ChannelParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the (K, N) antenna-to-user channel used by the no-surface baseline.

    Propagation (pathloss, clusters, calibration) is identical to
    :func:`sample_channel`; on top of it every antenna applies its element gain
    toward each arrival.  The calibration factor comes from the bare
    (pattern-free) rows, so off-boresight users keep the full pattern penalty.
    """
    _check_far_field(2.0 * float(np.linalg.norm(layout.active_positions[:, :2], axis=1).max()), drop)
    kappa = layout.kappa if params.direct_kappa is None else params.direct_kappa
    bare_rows, rows = [], []
    for k in range(drop.n_users):
        beta, gains, az, el = _draw_user(params, drop, k, rng)
        directions = direction_from_angles(az, el)
        phases = np.exp(
            1j * (2.0 * np.pi / layout.wavelength) * (directions @ layout.active_positions.T)
        )  # (L, N)
        cos_theta = np.clip(directions @ layout.active_boresights.T, -1.0, 1.0)
        pattern = np.sqrt(antenna_gain(np.arccos(cos_theta), kappa))
        g = math.sqrt(beta) * gains
        bare_rows.append(g @ phases)
        rows.append(g @ (pattern * phases))
    return calibrate_rows(np.array(rows), params, reference=np.array(bare_rows))

