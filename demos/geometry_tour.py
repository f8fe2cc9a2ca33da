"""
Geometry tour: feeds, surface grid, and the transfer matrix
===========================================================

Walks through the static geometry layer: where the characteristic
distance comes from, what the three illumination modes do to the
feed boresights, and how that shows up in the transfer matrix.
Run it from anywhere, it only prints.
"""

import numpy as np

from itsbeam import (
    GeometryConfig,
    IlluminationMode,
    SPEED_OF_LIGHT,
    antenna_gain,
    build_layout,
    build_transfer_matrix,
    characteristic_distance,
)

wavelength = SPEED_OF_LIGHT / 28e9
r0 = characteristic_distance(128, 4, wavelength)
print(f"wavelength at 28 GHz: {wavelength * 1e3:.3f} mm")
print(f"characteristic distance R0 for M=128, N=4: {r0 * 1e3:.3f} mm")
print(f"reference separation 10 R0: {10 * r0 * 1e3:.1f} mm")
print()

# The feed pattern is a cosine power law, normalized so the radiated power
# over the forward hemisphere integrates to one.  kappa = 49 gives the
# narrow horn used throughout; kappa = 0 would be a bare element.
theta = np.linspace(0.0, np.pi / 2, 2001)
for kappa in (0.0, 5.0, 49.0):
    g = antenna_gain(theta, kappa)
    total = np.trapezoid(g * np.sin(theta) / 2.0, theta)
    half = theta[np.searchsorted(-g, -g[0] / 2.0)]
    print(
        f"kappa {kappa:4.0f}: boresight gain {g[0]:7.2f}, "
        f"half-power angle {np.degrees(half):5.2f} deg, "
        f"hemisphere integral {total:.4f}"
    )
print()

base = GeometryConfig(
    n_active=4,
    n_elements=128,
    wavelength=wavelength,
    active_radius=wavelength,
    separation=10.0 * r0,
    kappa=49.0,
    surface_efficiency=10.0 ** (-3.5 / 10.0),
    grid_shape=(16, 8),
)

# Same physical arrays under the three aiming strategies.  FULL points every
# feed at the grid centre, PARTIAL points feed n at the centroid of its own
# quarter of the grid, SEPARATE additionally zeroes the coupling outside
# that quarter.  The per-sector power table below makes the difference
# concrete: rows are feeds, columns are sectors, entries are the share of
# the feed's column energy landing in that sector.
for mode in IlluminationMode:
    layout = build_layout(base, mode)
    transfer = build_transfer_matrix(layout)
    norms = np.linalg.norm(transfer, axis=0)
    svals = np.linalg.svd(transfer, compute_uv=False)
    print(f"{mode.value:9s} column norms {np.round(norms * 1e3, 3)} (x1e-3)")
    print(f"{'':9s} singular values {np.round(svals * 1e3, 3)} (x1e-3)")
    share = np.zeros((4, 4))
    for n in range(4):
        col = np.abs(transfer[:, n]) ** 2
        for s in range(4):
            share[n, s] = col[layout.sector_assignment == s].sum() / col.sum()
    for n in range(4):
        row = "  ".join(f"{v:5.3f}" for v in share[n])
        print(f"{'':9s} feed {n} sector shares  {row}")
    print()

# The SEPARATE matrix is exactly the PARTIAL one with off-sector entries
# masked to zero, so the sector-share table above is the identity.
tp = build_transfer_matrix(build_layout(base, IlluminationMode.PARTIAL))
ts = build_transfer_matrix(build_layout(base, IlluminationMode.SEPARATE))
mask = ts != 0
print(f"separate == masked partial: {np.allclose(ts[mask], tp[mask])}")
print(f"masked-out fraction: {1.0 - mask.mean():.3f}")
