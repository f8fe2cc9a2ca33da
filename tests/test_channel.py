"""Stochastic channel model: drops, pathloss law, clusters, calibration."""

import math

import numpy as np
import pytest

from itsbeam import (
    ChannelParams,
    ChannelError,
    IlluminationMode,
    UserDrop,
    antenna_gain,
    aperture_response,
    build_layout,
    direction_from_angles,
    sample_channel,
    sample_direct_channel,
    sample_user_drop,
)
from itsbeam.channel import _median, calibrate_rows, cluster_channel_row, pathloss_db
from test_geometry import config as geometry_config


WAVELENGTH = 299792458.0 / 28e9  # carrier wavelength, ~1.07 cm


def layout_for(**kwargs):
    kwargs.setdefault("wavelength", WAVELENGTH)
    kwargs.setdefault("active_radius", WAVELENGTH)
    return build_layout(geometry_config(**kwargs))


def fixed_drop(distance=50.0, azimuth=0.0, elevation=0.0, n_users=1):
    d = np.full(n_users, float(distance))
    az = np.full(n_users, float(azimuth))
    el = np.full(n_users, float(elevation))
    pos = d[:, None] * np.stack(
        [np.sin(az) * np.cos(el), np.sin(el), np.cos(az) * np.cos(el)], axis=-1
    )
    return UserDrop(positions=pos, distances=d, azimuths=az, elevations=el)


def test_drop_determinism():
    params = ChannelParams()
    a = sample_user_drop(params, 4, np.random.default_rng(5))
    b = sample_user_drop(params, 4, np.random.default_rng(5))
    assert np.array_equal(a.positions, b.positions)


def test_drop_degenerate_ranges():
    params = ChannelParams(
        user_distance_range=(50.0, 50.0),
        azimuth_range=(0.0, 0.0),
        elevation_range=(0.0, 0.0),
    )
    drop = sample_user_drop(params, 1, np.random.default_rng(0))
    assert np.allclose(drop.positions[0], [0.0, 0.0, 50.0], atol=1e-12)


def test_drop_distance_uniformity():
    params = ChannelParams()
    drop = sample_user_drop(params, 1000, np.random.default_rng(7))
    lo, hi = params.user_distance_range
    u = np.sort((drop.distances - lo) / (hi - lo))
    n = u.size
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(grid - u)), np.max(np.abs(u - (grid - 1.0 / n))))
    assert ks < 0.05


def test_aperture_response_broadside():
    layout = layout_for()
    resp = aperture_response(layout, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(resp, 1.0, atol=1e-12)


def test_aperture_response_opposite_conjugate():
    layout = layout_for()
    d = np.array([0.3, -0.5, 0.81])
    d /= np.linalg.norm(d)
    assert np.allclose(aperture_response(layout, -d), np.conj(aperture_response(layout, d)))


def test_aperture_response_linear_progression():
    # 1x4 grid along x: successive elements differ by exp(j pi sin(az)).
    layout = layout_for(n_active=1, n_elements=4, grid_shape=(1, 4), active_radius=0.0)
    az = 0.4
    d = np.array([math.sin(az), 0.0, math.cos(az)])
    resp = aperture_response(layout, d)
    step = np.exp(1j * np.pi * math.sin(az))
    assert np.allclose(resp[1:] / resp[:-1], step, atol=1e-12)


def test_pathloss_distance_doubling():
    params = ChannelParams(pathloss_exponent=2.0)
    delta = pathloss_db(params, 80.0) - pathloss_db(params, 40.0)
    assert abs(delta - 20.0 * math.log10(2.0)) < 1e-12  # 6.02 dB


def test_channel_determinism():
    layout = layout_for()
    params = ChannelParams()
    drop = sample_user_drop(params, 3, np.random.default_rng(9))
    a = sample_channel(layout, drop, params, np.random.default_rng(10))
    b = sample_channel(layout, drop, params, np.random.default_rng(10))
    assert np.array_equal(a, b)


def test_cluster_row_single_path():
    layout = layout_for()
    beta = 2.5e-9
    row = cluster_channel_row(layout, beta, np.array([1.0]), np.array([0.2]), np.array([-0.1]))
    d = np.array(
        [math.sin(0.2) * math.cos(-0.1), math.sin(-0.1), math.cos(0.2) * math.cos(-0.1)]
    )
    expected = math.sqrt(beta) * aperture_response(layout, d)
    assert np.allclose(row, expected, rtol=1e-12)


def test_channel_energy_matches_pathloss():
    # E ||h||^2 = beta * M with calibration and shadowing off.
    layout = layout_for()
    params = ChannelParams(shadowing_std_db=0.0, gain_normalization_db=None)
    drop = fixed_drop(distance=60.0)
    beta = 10.0 ** (-pathloss_db(params, 60.0) / 10.0)
    rng = np.random.default_rng(11)
    total = 0.0
    draws = 10_000
    for _ in range(draws):
        row = sample_channel(layout, drop, params, rng)
        total += float(np.sum(np.abs(row) ** 2))
    ratio = total / draws / (beta * layout.n_elements)
    assert abs(ratio - 1.0) < 0.03


def test_channel_energy_scales_with_elements():
    params = ChannelParams(shadowing_std_db=0.0, gain_normalization_db=None)
    drop = fixed_drop(distance=60.0, azimuth=0.3)
    means = []
    for m, shape in ((32, (8, 4)), (64, (8, 8)), (128, (16, 8))):
        layout = layout_for(n_elements=m, grid_shape=shape)
        rng = np.random.default_rng(12)
        energy = [
            float(np.sum(np.abs(sample_channel(layout, drop, params, rng)) ** 2))
            for _ in range(2000)
        ]
        means.append(np.mean(energy) / m)
    assert np.max(means) / np.min(means) - 1.0 < 0.05


def test_calibration_pins_median_gain():
    layout = layout_for()
    params = ChannelParams()
    drop = sample_user_drop(params, 4, np.random.default_rng(13))
    h = sample_channel(layout, drop, params, np.random.default_rng(14))
    median = np.median(np.abs(h) ** 2)
    assert abs(median / 1e-7 - 1.0) < 1e-12


def test_calibration_disabled_is_noop():
    rows = np.array([[1.0 + 1.0j, 2.0], [0.5, 3.0 - 1.0j]])
    out = calibrate_rows(rows, ChannelParams(gain_normalization_db=None))
    assert out is rows


def test_calibration_uses_reference_when_given():
    params = ChannelParams(gain_normalization_db=-10.0)
    rows = np.full((2, 4), 2.0 + 0.0j)
    reference = np.full((2, 4), 4.0 + 0.0j)  # median gain 16 -> scale sqrt(0.1/16)
    out = calibrate_rows(rows, params, reference=reference)
    assert np.allclose(np.abs(out) ** 2, 4.0 * 0.1 / 16.0, rtol=1e-12)
    with pytest.raises(ChannelError):
        calibrate_rows(np.zeros((1, 3), dtype=complex), params)


def test_median_is_numpys_to_the_bit():
    # The calibration takes np.median's steps without calling it; a last-bit change of
    # the median would move every calibrated draw.
    rng = np.random.default_rng(15)
    for size in range(1, 602):
        draws = rng.standard_normal((3, size)) + 1j * rng.standard_normal((3, size))
        ties = rng.integers(0, 3, size=(2, size)).astype(complex)
        for ref in (draws[0], draws[:2], draws, ties[0], ties):
            power = np.abs(ref) ** 2
            assert _median(power).hex() == float(np.median(power)).hex(), (size, ref.shape)


def test_calibration_with_nan_reference_gives_nan_rows():
    params = ChannelParams(gain_normalization_db=-10.0)
    rows = np.full((2, 4), 2.0 + 0.0j)
    for position in ((0, 0), (0, 2), (1, 3)):
        reference = np.full((2, 4), 4.0 + 0.0j)
        reference[position] = np.nan
        assert np.isnan(calibrate_rows(rows, params, reference=reference)).all()
    with pytest.raises(ChannelError, match="^cannot calibrate a channel with zero median gain$"):
        calibrate_rows(rows, params, reference=np.zeros((2, 4), dtype=complex))


def test_near_field_rejected():
    layout = layout_for()
    params = ChannelParams()
    with pytest.raises(ChannelError):
        sample_channel(layout, fixed_drop(distance=0.5), params, np.random.default_rng(0))


def test_direct_channel_determinism():
    layout = layout_for()
    params = ChannelParams()
    drop = sample_user_drop(params, 3, np.random.default_rng(15))
    a = sample_direct_channel(layout, drop, params, np.random.default_rng(16))
    b = sample_direct_channel(layout, drop, params, np.random.default_rng(16))
    assert np.array_equal(a, b)
    assert a.shape == (3, layout.n_active)


def test_direct_channel_applies_element_pattern():
    # Same seed with the horn pattern versus an isotropic-ish baseline: the
    # propagation draws coincide, so entries differ exactly by sqrt(G49/G0).
    layout = layout_for()
    drop = fixed_drop(distance=60.0, azimuth=0.25, elevation=0.1)
    horn = ChannelParams(n_clusters_range=(1, 1), cluster_angle_std=0.0, gain_normalization_db=None)
    flat = ChannelParams(
        n_clusters_range=(1, 1),
        cluster_angle_std=0.0,
        gain_normalization_db=None,
        direct_kappa=0.0,
    )
    row_horn = sample_direct_channel(layout, drop, horn, np.random.default_rng(17))[0]
    row_flat = sample_direct_channel(layout, drop, flat, np.random.default_rng(17))[0]
    direction = drop.positions[0] / np.linalg.norm(drop.positions[0])
    theta = np.arccos(np.clip(layout.active_boresights @ direction, -1.0, 1.0))
    expected = np.sqrt(antenna_gain(theta, layout.kappa) / antenna_gain(theta, 0.0))
    assert np.allclose(np.abs(row_horn / row_flat), expected, rtol=1e-10)


def test_direct_pattern_survives_calibration():
    # The calibration factor comes from the bare rows, so switching the
    # pattern exponent must not change the factor: the patterned entries keep
    # their relative gain even with normalization enabled.
    layout = layout_for()
    drop = fixed_drop(distance=60.0, azimuth=0.25, elevation=0.1)
    horn = ChannelParams(n_clusters_range=(1, 1), cluster_angle_std=0.0)
    flat = ChannelParams(n_clusters_range=(1, 1), cluster_angle_std=0.0, direct_kappa=0.0)
    row_horn = sample_direct_channel(layout, drop, horn, np.random.default_rng(18))[0]
    row_flat = sample_direct_channel(layout, drop, flat, np.random.default_rng(18))[0]
    direction = drop.positions[0] / np.linalg.norm(drop.positions[0])
    theta = np.arccos(np.clip(layout.active_boresights @ direction, -1.0, 1.0))
    expected = np.sqrt(antenna_gain(theta, layout.kappa) / antenna_gain(theta, 0.0))
    assert np.allclose(np.abs(row_horn / row_flat), expected, rtol=1e-10)


def test_direct_isotropic_column_norms_follow_pathloss():
    # With kappa -> 0 the pattern is direction-free, so mean row energy across
    # users differs only through beta.
    layout = layout_for()
    params = ChannelParams(
        shadowing_std_db=0.0, gain_normalization_db=None, direct_kappa=0.0
    )
    near = fixed_drop(distance=40.0, azimuth=0.9)
    far = fixed_drop(distance=80.0, azimuth=-0.4)
    rng = np.random.default_rng(19)
    draws = 10_000
    e_near = np.mean(
        [
            float(np.sum(np.abs(sample_direct_channel(layout, near, params, rng)) ** 2))
            for _ in range(draws)
        ]
    )
    e_far = np.mean(
        [
            float(np.sum(np.abs(sample_direct_channel(layout, far, params, rng)) ** 2))
            for _ in range(draws)
        ]
    )
    expected = 10.0 ** ((pathloss_db(params, 80.0) - pathloss_db(params, 40.0)) / 10.0)
    assert abs((e_near / e_far) / expected - 1.0) < 0.03


def _per_cluster_user(params, distance, azimuth, elevation, rng):
    """One user's draw as separate generator calls: beta, then the cluster count and
    four normal vectors of length L."""
    shadow = params.shadowing_std_db * rng.standard_normal() if params.shadowing_std_db > 0 else 0.0
    beta = 10.0 ** (-float(pathloss_db(params, distance, shadow)) / 10.0)
    lo, hi = params.n_clusters_range
    n = int(rng.integers(lo, hi + 1))
    gains = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(0.5 / n)
    az = azimuth + params.cluster_angle_std * rng.standard_normal(n)
    el = elevation + params.cluster_angle_std * rng.standard_normal(n)
    az[0], el[0] = azimuth, elevation
    return beta, gains, az, el


def _per_cluster_channels(layout, drop, params, rng):
    """The surface and direct channels with one steering product per cluster, stacked."""
    surface = []
    for k in range(drop.n_users):
        beta, gains, az, el = _per_cluster_user(
            params, float(drop.distances[k]), drop.azimuths[k], drop.elevations[k], rng)
        steering = np.stack([
            np.exp(1j * ((2.0 * np.pi / layout.wavelength) * (layout.element_positions @ d)))
            for d in direction_from_angles(az, el)
        ])
        surface.append(math.sqrt(beta) * (np.asarray(gains, dtype=complex) @ steering))
    surface, state = calibrate_rows(np.stack(surface), params), rng.bit_generator.state
    bare, direct = [], []
    for k in range(drop.n_users):
        beta, gains, az, el = _per_cluster_user(
            params, float(drop.distances[k]), drop.azimuths[k], drop.elevations[k], rng)
        directions = direction_from_angles(az, el)
        phases = np.exp(
            1j * (2.0 * np.pi / layout.wavelength) * (directions @ layout.active_positions.T)
        )
        cos_theta = np.clip(directions @ layout.active_boresights.T, -1.0, 1.0)
        pattern = np.sqrt(antenna_gain(np.arccos(cos_theta), layout.kappa))
        g = math.sqrt(beta) * np.asarray(gains, dtype=complex)
        bare.append(g @ phases)
        direct.append(g @ (pattern * phases))
    direct = calibrate_rows(np.stack(direct), params, reference=np.stack(bare))
    return surface, state, direct, rng.bit_generator.state


def test_draws_equal_the_per_cluster_draw_bit_for_bit():
    # One normal block per user and one steering product per user give the bits, and
    # leave the generator in the state, of four normal calls and one product per cluster.
    layout = layout_for(wavelength=WAVELENGTH, active_radius=3 * WAVELENGTH)
    directions = direction_from_angles(np.array([0.3, -0.7, 0.0]), np.array([0.1, 0.0, -0.4]))
    stacked = aperture_response(layout, directions)
    assert stacked.shape == (3, layout.n_elements)
    assert np.array_equal(stacked, np.stack([aperture_response(layout, d) for d in directions]))
    assert aperture_response(layout, directions[0]).shape == (layout.n_elements,)
    configs = [
        ChannelParams(n_clusters_range=(1, 6), shadowing_std_db=shadowing, gain_normalization_db=gain)
        for shadowing in (8.7, 0.0) for gain in (-70.0, None)
    ]
    for index in range(512):
        params = configs[index % len(configs)]
        drop = sample_user_drop(params, 4, np.random.default_rng(index))
        rng, ref = np.random.default_rng(1000 + index), np.random.default_rng(1000 + index)
        surface, state, direct, end = _per_cluster_channels(layout, drop, params, ref)
        assert np.array_equal(sample_channel(layout, drop, params, rng), surface)
        assert rng.bit_generator.state == state
        assert np.array_equal(sample_direct_channel(layout, drop, params, rng), direct)
        assert rng.bit_generator.state == end


def test_params_validation():
    with pytest.raises(ChannelError):
        ChannelParams(n_clusters_range=(0, 3))
    with pytest.raises(ChannelError):
        ChannelParams(user_distance_range=(-1.0, 10.0))
    with pytest.raises(ChannelError):
        ChannelParams(azimuth_range=(-2.0, 2.0))
    with pytest.raises(ChannelError):
        ChannelParams(direct_kappa=-1.0)
