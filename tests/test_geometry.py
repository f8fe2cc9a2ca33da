"""Layout construction, the element gain pattern and the transfer matrix."""

import math

import numpy as np
import pytest

from itsbeam import (
    GeometryConfig,
    GeometryError,
    IlluminationMode,
    antenna_gain,
    build_layout,
    build_transfer_matrix,
    characteristic_distance,
)


def config(
    n_active=4,
    n_elements=128,
    grid_shape=(16, 8),
    wavelength=1.0,
    active_radius=1.0,
    separation=None,
    kappa=49.0,
    surface_efficiency=1.0,
):
    if separation is None:
        separation = 10.0 * characteristic_distance(n_elements, n_active, wavelength)
    return GeometryConfig(
        n_active=n_active,
        n_elements=n_elements,
        wavelength=wavelength,
        active_radius=active_radius,
        separation=separation,
        kappa=kappa,
        surface_efficiency=surface_efficiency,
        grid_shape=grid_shape,
    )


def transfer_of(cfg, illumination=IlluminationMode.FULL):
    return build_transfer_matrix(build_layout(cfg, illumination))


def test_characteristic_distance_reference_value():
    # (1/2) sqrt(128 / (4 pi)), evaluated once by hand and frozen.
    assert abs(characteristic_distance(128, 4, 1.0) - 1.5957691216057308) < 1e-12


def test_characteristic_distance_scales_with_wavelength():
    base = characteristic_distance(64, 2, 1.0)
    assert abs(characteristic_distance(64, 2, 2.0) - 2.0 * base) < 1e-12
    with pytest.raises(GeometryError):
        characteristic_distance(0, 4, 1.0)
    with pytest.raises(GeometryError):
        characteristic_distance(64, 2, 0.0)


def test_antenna_gain_values():
    assert abs(antenna_gain(0.0, 49.0) - 100.0) < 1e-12
    assert antenna_gain(np.pi / 2, 49.0) == 0.0
    assert antenna_gain(2.0, 49.0) == 0.0  # behind the element plane
    arr = antenna_gain(np.array([0.0, np.pi / 3, np.pi]), 0.0)
    assert arr.shape == (3,)
    assert np.allclose(arr, [2.0, 2.0, 0.0])
    with pytest.raises(GeometryError):
        antenna_gain(0.1, -1.0)


def test_antenna_gain_integrates_to_one():
    # (1/4pi) * integral of G over the sphere = 1 for every kappa; the pattern
    # is zero on the back hemisphere, so integrate theta over [0, pi/2].
    theta = np.linspace(0.0, np.pi / 2, 20001)
    for kappa in (0.0, 1.0, 5.0, 49.0):
        integrand = antenna_gain(theta, kappa) * np.sin(theta) / 2.0
        total = np.trapezoid(integrand, theta)
        assert abs(total - 1.0) < 1e-3


def test_grid_positions_spacing_and_centre():
    layout = build_layout(config())
    pos = layout.element_positions.reshape(16, 8, 3)
    along_cols = np.diff(pos[:, :, 1], axis=0)
    along_rows = np.diff(pos[:, :, 0], axis=1)
    assert np.allclose(np.abs(along_cols), 0.5, atol=1e-12)
    assert np.allclose(np.abs(along_rows), 0.5, atol=1e-12)
    assert np.allclose(layout.element_positions.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(layout.element_positions[:, 2], 0.0)


def test_active_ring_geometry():
    cfg = config(active_radius=0.7)
    layout = build_layout(cfg)
    radii = np.linalg.norm(layout.active_positions[:, :2], axis=1)
    assert np.allclose(radii, 0.7, atol=1e-12)
    assert np.allclose(layout.active_positions[:, 2], -cfg.separation, atol=1e-12)
    assert np.allclose(np.linalg.norm(layout.active_boresights, axis=1), 1.0, atol=1e-12)


def test_full_illumination_aims_at_centre():
    layout = build_layout(config())
    expected = -layout.active_positions
    expected /= np.linalg.norm(expected, axis=1, keepdims=True)
    assert np.allclose(layout.active_boresights, expected, atol=1e-12)


def test_single_antenna_full_boresight_is_normal():
    layout = build_layout(config(n_active=1, active_radius=0.0, grid_shape=(16, 8)))
    assert np.allclose(layout.active_boresights[0], [0.0, 0.0, 1.0], atol=1e-12)


def test_sector_partition_16x8_into_four():
    layout = build_layout(config(), IlluminationMode.PARTIAL)
    sectors = layout.sector_assignment
    counts = np.bincount(sectors, minlength=4)
    assert np.all(counts == 32)  # four equal 8x4 sectors
    pos = layout.element_positions
    for n in range(4):
        members = pos[sectors == n]
        # contiguous rectangle: the bounding box contains exactly the members
        x_in = (pos[:, 0] >= members[:, 0].min() - 1e-9) & (
            pos[:, 0] <= members[:, 0].max() + 1e-9
        )
        y_in = (pos[:, 1] >= members[:, 1].min() - 1e-9) & (
            pos[:, 1] <= members[:, 1].max() + 1e-9
        )
        assert int(np.sum(x_in & y_in)) == 32
        # boresight passes through the sector centroid
        centroid = members.mean(axis=0)
        ray = centroid - layout.active_positions[n]
        ray /= np.linalg.norm(ray)
        assert np.allclose(ray, layout.active_boresights[n], atol=1e-12)


def test_sector_partition_failure():
    with pytest.raises(GeometryError):
        build_layout(config(n_active=3, n_elements=128, grid_shape=(16, 8)))


def test_transfer_single_antenna_on_axis():
    cfg = GeometryConfig(
        n_active=1,
        n_elements=1,
        wavelength=1.0,
        active_radius=0.0,
        separation=7.0,
        kappa=49.0,
        surface_efficiency=1.0,
        grid_shape=(1, 1),
    )
    transfer = transfer_of(cfg)
    expected = (1.0 / (4.0 * np.pi * 7.0)) * 10.0 * np.exp(-2j * np.pi * 7.0)
    assert abs(transfer[0, 0] - expected) < 1e-12


def test_transfer_loss_scaling():
    base = transfer_of(config(surface_efficiency=1.0))
    lossy = transfer_of(config(surface_efficiency=0.5))
    ratio = np.abs(lossy) ** 2 / np.abs(base) ** 2
    assert np.allclose(ratio, 0.5, rtol=1e-12)


def test_transfer_magnitude_bound():
    cfg = config()
    layout = build_layout(cfg)
    transfer = build_transfer_matrix(layout)
    delta = layout.element_positions[None, :, :] - layout.active_positions[:, None, :]
    r_min = np.linalg.norm(delta, axis=-1).min()
    bound = (cfg.wavelength / (4.0 * np.pi * r_min)) * math.sqrt(
        cfg.surface_efficiency * 2.0 * (1.0 + cfg.kappa)
    )
    assert np.max(np.abs(transfer)) <= bound + 1e-15


def test_transfer_phase_consistency():
    cfg = config()
    layout = build_layout(cfg)
    transfer = build_transfer_matrix(layout)
    delta = layout.element_positions[:, None, :] - layout.active_positions[None, :, :]
    dist = np.linalg.norm(delta, axis=-1)
    expected = np.exp(-2j * np.pi * dist / cfg.wavelength)
    nonzero = np.abs(transfer) > 0
    ratio = transfer[nonzero] / np.abs(transfer[nonzero])
    assert np.max(np.abs(ratio - expected[nonzero])) < 1e-9


def test_separate_is_masked_partial():
    partial = transfer_of(config(), IlluminationMode.PARTIAL)
    layout = build_layout(config(), IlluminationMode.SEPARATE)
    separate = build_transfer_matrix(layout)
    mask = layout.sector_assignment[:, None] == np.arange(4)[None, :]
    assert np.all(separate[~mask] == 0.0)
    assert np.allclose(separate[mask], partial[mask], rtol=1e-12)
    assert int(np.count_nonzero(separate)) == layout.n_elements


def test_capture_monotone_in_distance():
    r0 = characteristic_distance(128, 4, 1.0)
    norms = [
        np.linalg.norm(transfer_of(config(separation=mult * r0)))
        for mult in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
    ]
    assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_config_validation():
    with pytest.raises(GeometryError):
        config(grid_shape=(16, 9))
    with pytest.raises(GeometryError):
        config(kappa=-0.5)
    with pytest.raises(GeometryError):
        config(surface_efficiency=1.5)
    with pytest.raises(GeometryError):
        config(separation=0.0)


def test_layout_rejects_an_illumination_that_is_not_a_mode():
    with pytest.raises(GeometryError, match="IlluminationMode"):
        build_layout(config(), "separate")
