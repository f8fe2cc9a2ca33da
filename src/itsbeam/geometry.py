"""Array geometry: element grid, active-antenna ring, gain pattern, transfer matrix.

Coordinate convention used throughout the package:

* the surface is a rows x cols rectangular grid of elements with half-wavelength
  spacing, centred at the origin in the z = 0 plane, normal +z;
* the N active antennas sit on a ring of radius `active_radius` in the plane
  z = -separation, centred on the grid normal axis;
* users live in the front half-space z > 0, so the signal crosses the surface.

Each active antenna has a rotationally symmetric cosine-power element pattern
G(theta) = 2 (1 + kappa) cos(theta)^kappa for |theta| < pi/2 and zero behind,
where theta is measured from that antenna's own boresight.  The pattern
integrates to 1 over the sphere for every kappa >= 0.

The illumination is an argument of build_layout, not part of GeometryConfig;
build_transfer_matrix(build_layout(cfg, illumination)) reads it off the layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GeometryError

__all__ = [
    "IlluminationMode",
    "GeometryConfig",
    "ArrayLayout",
    "characteristic_distance",
    "antenna_gain",
    "build_layout",
    "build_transfer_matrix",
]


class IlluminationMode(Enum):
    """How the active antennas aim at the surface.

    FULL:     every antenna boresights the grid centre.
    PARTIAL:  antenna n boresights the centroid of its grid sector.
    SEPARATE: like PARTIAL, and the transfer matrix is masked so antenna n
              couples only to its own sector (entries elsewhere exactly zero).
    """

    FULL = "full"
    PARTIAL = "partial"
    SEPARATE = "separate"


@dataclass(frozen=True)
class GeometryConfig:
    """Static description of the array pair.

    Attributes
    ----------
    n_active : int
        Number of active antennas N.
    n_elements : int
        Number of surface elements M (must equal rows * cols).
    wavelength : float
        Carrier wavelength in metres.
    active_radius : float
        Radius of the active-antenna ring (metres, may be zero).
    separation : float
        Distance between the antenna plane and the surface plane (metres).
    kappa : float
        Cosine-power exponent of the antenna element pattern.
    surface_efficiency : float
        Fraction of captured power re-radiated by the surface, in (0, 1].
    grid_shape : (rows, cols)
        Surface grid dimensions.
    """

    n_active: int
    n_elements: int
    wavelength: float
    active_radius: float
    separation: float
    kappa: float
    surface_efficiency: float
    grid_shape: tuple

    def __post_init__(self):
        rows, cols = self.grid_shape
        if self.n_active < 1:
            raise GeometryError("n_active must be >= 1")
        if rows < 1 or cols < 1 or rows * cols != self.n_elements:
            raise GeometryError(
                f"grid_shape {self.grid_shape} incompatible with n_elements {self.n_elements}"
            )
        _sector_partition((rows, cols), self.n_active)  # every layout splits the grid by N
        for name in ("wavelength", "active_radius", "separation", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise GeometryError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.kappa >= 0 and math.isfinite(2.0 * (1.0 + self.kappa))):
            raise GeometryError(f"kappa must be finite in 2 (1 + kappa) and >= 0, got {self.kappa!r}")
        if not self.wavelength > 0:
            raise GeometryError("wavelength must be positive")
        if not self.separation > 0:
            raise GeometryError("separation must be positive")
        if self.active_radius < 0:
            raise GeometryError("active_radius must be nonnegative")
        if not 0 < self.surface_efficiency <= 1:
            raise GeometryError("surface_efficiency must lie in (0, 1]")
        object.__setattr__(self, "grid_shape", (int(rows), int(cols)))


@dataclass(frozen=True)
class ArrayLayout:
    """Concrete positions and orientations produced by build_layout.

    Carries everything build_transfer_matrix reads: the positions, the aim and
    sectors of one illumination, and the wavelength, kappa and efficiency.
    """

    element_positions: np.ndarray   # (M, 3)
    active_positions: np.ndarray    # (N, 3)
    active_boresights: np.ndarray   # (N, 3), unit vectors
    sector_assignment: np.ndarray   # (M,) int, owning antenna per element
    grid_shape: tuple
    wavelength: float
    kappa: float
    surface_efficiency: float
    illumination: IlluminationMode

    @property
    def n_elements(self) -> int:
        return self.element_positions.shape[0]

    @property
    def n_active(self) -> int:
        return self.active_positions.shape[0]

    def aperture_diagonal(self) -> float:
        """Diagonal extent of the element grid, metres."""
        rows, cols = self.grid_shape
        half = 0.5 * self.wavelength
        return math.hypot((rows - 1) * half, (cols - 1) * half)


def characteristic_distance(n_elements: int, n_active: int, wavelength: float) -> float:
    """Reference antenna-to-surface distance R0 = (lambda / 2) sqrt(M / (pi N)).

    At this distance the surface subtends roughly the solid angle needed to
    capture one antenna's main lobe, so separations are naturally quoted as
    multiples of R0.
    """
    if n_elements < 1 or n_active < 1:
        raise GeometryError("n_elements and n_active must be >= 1")
    if not wavelength > 0:
        raise GeometryError("wavelength must be positive")
    return 0.5 * wavelength * math.sqrt(n_elements / (math.pi * n_active))


def antenna_gain(theta, kappa: float):
    """Element gain G(theta) = 2 (1 + kappa) cos(theta)^kappa, zero for |theta| >= pi/2.

    Accepts scalars or arrays; theta in radians.  The normalisation makes the
    pattern integrate to one over the full sphere for any kappa >= 0.
    """
    if kappa < 0:
        raise GeometryError("kappa must be nonnegative")
    theta_arr = np.asarray(theta, dtype=float)
    cosines = np.clip(np.cos(theta_arr), 0.0, None)
    gain = 2.0 * (1.0 + kappa) * cosines**kappa
    gain = np.where(np.abs(theta_arr) >= 0.5 * np.pi, 0.0, gain)
    if np.isscalar(theta) or theta_arr.ndim == 0:
        return float(gain)
    return gain


def _sector_partition(grid_shape: tuple, n_active: int) -> tuple:
    """Split (rows, cols) into n_active equal rectangles, as square as possible.

    Returns (block_rows, block_cols): the number of sector blocks along each
    grid axis.  Raises GeometryError when no divisor pair of n_active divides
    the grid evenly.
    """
    rows, cols = grid_shape
    best = None
    best_score = None
    for block_rows in range(1, min(n_active, rows) + 1):  # block_rows divides rows
        if n_active % block_rows:
            continue
        block_cols = n_active // block_rows
        if rows % block_rows or cols % block_cols:
            continue
        sector_rows = rows // block_rows
        sector_cols = cols // block_cols
        score = abs(math.log(sector_rows / sector_cols))
        if best_score is None or score < best_score:
            best = (block_rows, block_cols)
            best_score = score
    if best is None:
        raise GeometryError(
            f"cannot partition a {rows}x{cols} grid into {n_active} equal rectangular sectors"
        )
    return best


def _grid_positions(cfg: GeometryConfig) -> np.ndarray:
    rows, cols = cfg.grid_shape
    half = 0.5 * cfg.wavelength
    r_idx, c_idx = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    x = (c_idx - 0.5 * (cols - 1)) * half
    y = (0.5 * (rows - 1) - r_idx) * half
    pos = np.stack([x, y, np.zeros_like(x)], axis=-1)
    return pos.reshape(rows * cols, 3)  # row-major element order


def build_layout(
    cfg: GeometryConfig, illumination: IlluminationMode = IlluminationMode.FULL
) -> ArrayLayout:
    """Place elements and antennas and aim each antenna per ``illumination``."""
    if not isinstance(illumination, IlluminationMode):
        raise GeometryError("illumination must be an IlluminationMode")
    elements = _grid_positions(cfg)
    rows, cols = cfg.grid_shape

    angles = 2.0 * np.pi * np.arange(cfg.n_active) / cfg.n_active
    active = np.stack(
        [
            cfg.active_radius * np.cos(angles),
            cfg.active_radius * np.sin(angles),
            np.full(cfg.n_active, -cfg.separation),
        ],
        axis=-1,
    )

    block_rows, block_cols = _sector_partition(cfg.grid_shape, cfg.n_active)
    sector_rows = rows // block_rows
    sector_cols = cols // block_cols
    r_idx = np.arange(rows * cols) // cols
    c_idx = np.arange(rows * cols) % cols
    sector = (r_idx // sector_rows) * block_cols + (c_idx // sector_cols)

    if illumination is IlluminationMode.FULL:
        targets = np.zeros((cfg.n_active, 3))
    else:
        targets = np.stack(
            [elements[sector == n].mean(axis=0) for n in range(cfg.n_active)]
        )
    boresights = targets - active
    norms = np.linalg.norm(boresights, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise GeometryError("antenna coincides with its boresight target")
    boresights = boresights / norms

    return ArrayLayout(
        element_positions=elements,
        active_positions=active,
        active_boresights=boresights,
        sector_assignment=sector.astype(int),
        grid_shape=cfg.grid_shape,
        wavelength=cfg.wavelength,
        kappa=cfg.kappa,
        surface_efficiency=cfg.surface_efficiency,
        illumination=illumination,
    )


def build_transfer_matrix(layout: ArrayLayout) -> np.ndarray:
    """Free-space coupling T between antennas and surface elements, shape (M, N).

    Entry (m, n) has magnitude (lambda / (4 pi r_mn)) sqrt(eff * G(theta_mn))
    and phase -2 pi r_mn / lambda, with r_mn the antenna-element distance and
    theta_mn the departure angle off antenna n's boresight.  A SEPARATE layout
    zeroes every entry outside the antenna's own sector.  Everything is read
    from ``layout``, so the aim and the mask come from one illumination.
    """
    delta = layout.element_positions[np.newaxis, :, :] - layout.active_positions[:, np.newaxis, :]
    dist = np.linalg.norm(delta, axis=-1)  # (N, M)
    if np.any(dist < 1e-12):
        raise GeometryError("an antenna coincides with a surface element")
    cos_theta = np.einsum("nmk,nk->nm", delta, layout.active_boresights) / dist
    theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
    gain = antenna_gain(theta, layout.kappa)
    amplitude = (layout.wavelength / (4.0 * np.pi * dist)) * np.sqrt(
        layout.surface_efficiency * gain
    )
    transfer = (amplitude * np.exp(-2j * np.pi * dist / layout.wavelength)).T  # (M, N)
    if layout.illumination is IlluminationMode.SEPARATE:
        mask = layout.sector_assignment[:, np.newaxis] == np.arange(layout.n_active)[np.newaxis, :]
        transfer = np.where(mask, transfer, 0.0 + 0.0j)
    return transfer
