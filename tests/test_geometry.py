import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmpinhole import (MaskGeometry, RotationSampling, SceneGrid, assemble_oneway,
                       build_scene_grid, default_plane_sampling,
                       default_radar_config, open_mask)
from mmpinhole import mask as mask_module
from mmpinhole import sync as sync_module
from mmpinhole.errors import ParameterError, UnsupportedConfigurationError
from mmpinhole.geometry import _ANGLE_BLOCK, footprint_mask_array, footprint_rows

from conftest import full_lattice_footprint


class TestSceneGrid:
    def test_wide_grid_bin_count_and_range(self):
        grid = build_scene_grid(20.0, -50, 50, 0.5, [0])
        assert grid.n_azimuth == 201
        assert grid.n_points == 201
        radii = np.linalg.norm(grid.points, axis=1)
        assert np.max(np.abs(radii - 20.0)) < 1e-9

    def test_points_are_derived_not_passed(self):
        with pytest.raises(TypeError):
            SceneGrid(range_m=5.0, azimuth_deg=[0.0], elevation_deg=[0.0],
                      points=np.zeros((1, 3)))

    def test_single_boresight_point(self):
        grid = build_scene_grid(5.0, 0, 0, 1, [0])
        assert grid.n_points == 1
        np.testing.assert_allclose(grid.points[0], [0.0, 0.0, 5.0], atol=1e-12)

    def test_three_elevation_rings(self):
        grid = build_scene_grid(20.0, -50, 50, 0.5, [-10, 0, 10])
        assert grid.n_points == 603
        assert grid.shape == (3, 201)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            build_scene_grid(20.0, -50, 50, 0.0, [0])
        with pytest.raises(ParameterError):
            build_scene_grid(-1.0, -50, 50, 0.5, [0])
        with pytest.raises(ParameterError):
            build_scene_grid(20.0, 50, -50, 0.5, [0])

    def test_points_on_sphere_with_elevation(self):
        grid = build_scene_grid(7.5, -40, 40, 2.5, [-15, 0, 15])
        radii = np.linalg.norm(grid.points, axis=1)
        assert np.max(np.abs(radii - 7.5)) < 1e-9

    def test_index_of_picks_nearest(self):
        grid = build_scene_grid(20.0, -10, 10, 1.0, [0])
        assert grid.index_of(0.2) == 10
        assert grid.index_of(-10.0) == 0


class TestBladeFootprint:
    def test_single_blade_at_zero(self):
        mask = MaskGeometry()
        inside = [0.0, mask.blade_length_m / 2]
        outside = [0.0, -mask.blade_length_m / 2]
        assert footprint_mask_array(mask, [0.0], [inside])[0, 0]
        assert not footprint_mask_array(mask, [0.0], [outside])[0, 0]

    def test_two_blades_cover_both_sides(self):
        mask = MaskGeometry(blade_count=2)
        pts = [[0.0, mask.blade_length_m / 2], [0.0, -mask.blade_length_m / 2]]
        assert footprint_mask_array(mask, [0.0], pts).all()

    def test_beyond_tip_never_covered(self):
        mask = MaskGeometry()
        point = [[0.0, mask.blade_length_m * 1.05]]
        for angle in np.linspace(0, 2 * math.pi, 64, endpoint=False):
            assert not footprint_mask_array(mask, [angle], point)[0, 0]

    def test_unsupported_blade_count(self):
        with pytest.raises(UnsupportedConfigurationError):
            MaskGeometry(blade_count=3)

    @pytest.mark.parametrize("count", [2.0, 1.5, True])
    def test_non_integer_blade_count_rejected(self, count):
        with pytest.raises(ParameterError, match="must be an integer"):
            MaskGeometry(blade_count=count)

    def test_blade_count_stored_as_int(self):
        assert type(MaskGeometry(blade_count=np.int64(2)).blade_count) is int

    @settings(max_examples=25, deadline=None)
    @given(angle=st.floats(0, 2 * math.pi - 1e-9),
           blades=st.sampled_from([1, 2]))
    def test_rotation_periodicity(self, angle, blades):
        mask = MaskGeometry(blade_count=blades)
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(-0.2, 0.2, 50),
                               rng.uniform(-0.2, 0.2, 50)])
        shifted = (angle + 2 * math.pi / blades) % (2 * math.pi)
        np.testing.assert_array_equal(footprint_mask_array(mask, [angle], pts),
                                      footprint_mask_array(mask, [shifted], pts))

    def test_swept_union_fills_disc(self):
        mask = MaskGeometry()
        rng = np.random.default_rng(1)
        r = mask.blade_length_m * np.sqrt(rng.uniform(0, 1, 200))
        phi = rng.uniform(0, 2 * math.pi, 200)
        pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), np.full(200, 0.12)])
        angles = np.linspace(0, 2 * math.pi, 2000, endpoint=False)
        hit = footprint_mask_array(mask, angles, pts[:, :2]).any(axis=0)
        assert hit.all()


@st.composite
def footprint_cases(draw):
    """A mask, an angle list and mask-plane points, many on blade edges."""
    blades = draw(st.sampled_from([1, 2]))
    length = draw(st.floats(0.01, 0.3))
    width = 2.0 * length * draw(st.floats(0.01, 0.95))
    mask = MaskGeometry(blade_count=blades, blade_length_m=length,
                        blade_width_m=width)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["uniform", "warped", "negative", "above-2pi",
                                 "single", "empty"]))
    if kind == "uniform":
        count = draw(st.integers(1, 1000))
        start = draw(st.integers(0, count - 1))
        angles = (2.0 * math.pi * np.arange(count) / count)[start:start + 4 * _ANGLE_BLOCK]
    elif kind == "warped":
        angles = np.cumsum(rng.uniform(0.0, 0.05, draw(st.integers(1, 200))))
    elif kind == "negative":
        angles = rng.uniform(-20.0, 0.0, draw(st.integers(1, 64)))
    elif kind == "above-2pi":
        angles = rng.uniform(2.0 * math.pi, 200.0, draw(st.integers(1, 64)))
    elif kind == "single":
        angles = np.array([draw(st.floats(-50.0, 50.0))])
    else:
        angles = np.empty(0)
    extent = length + width
    pts = [rng.uniform(-extent, extent, (draw(st.integers(0, 300)), 2))]
    # points on the edges u = 0, u = L and |v| = w/2 of a blade at a drawn
    # angle; (x, y) = R (u, v) inverts the blade frame rotation R
    edge_angles = angles if angles.size else rng.uniform(0, 2 * math.pi, 4)
    for _ in range(draw(st.integers(0, 40))):
        a = rng.choice(edge_angles) + 2.0 * math.pi * rng.integers(blades) / blades
        u = rng.uniform(0.0, length)
        v = rng.uniform(-width / 2.0, width / 2.0)
        half = width / 2.0 * rng.choice([-1.0, 1.0])
        u, v = [(0.0, v), (length, v), (u, half), (0.0, half),
                (length, half)][rng.integers(5)]
        pts.append([[-math.sin(a) * u + math.cos(a) * v,
                     math.cos(a) * u + math.sin(a) * v]])
    # points just inside and outside r = w/2, where the angular bound is widest
    psi = rng.uniform(0.0, 2.0 * math.pi, 20)
    r = width / 2.0 * (1.0 + rng.choice([-1e-12, 0.0, 1e-12, 1e-6], 20))
    pts.append(np.column_stack([-r * np.sin(psi), r * np.cos(psi)]))
    pts.append([[0.0, 0.0]])
    return mask, angles, np.concatenate(pts)


class TestFootprintCandidates:
    """footprint_rows tests only reachable cells; results must not move."""

    @settings(max_examples=300, deadline=None)
    @given(case=footprint_cases())
    def test_matches_full_lattice(self, case):
        mask, angles, pts = case
        got = footprint_mask_array(mask, angles, pts)
        assert got.shape == (angles.size, len(pts))
        assert np.array_equal(got, full_lattice_footprint(mask, angles, pts))

    @settings(max_examples=300, deadline=None)
    @given(case=footprint_cases())
    def test_rows_match_full_lattice(self, case):
        # footprint_rows blocks the angles itself and never builds the
        # dense array; each row is the nonzeros of the full-lattice row
        mask, angles, pts = case
        rows = footprint_rows(mask, angles, pts)
        full = full_lattice_footprint(mask, angles, pts)
        assert len(rows) == angles.size
        for row, ref in zip(rows, full):
            assert row.dtype == np.intp
            assert np.array_equal(row, np.flatnonzero(ref))

    @pytest.mark.parametrize("blades", [1, 2])
    def test_default_geometry_matches_full_lattice(self, blades, monkeypatch):
        radar = default_radar_config(MaskGeometry())
        sampling = default_plane_sampling(radar, MaskGeometry())
        rotation = RotationSampling(1000)
        angles, pts = rotation.angles_rad, sampling.samples[:, :2]
        mask = MaskGeometry(blade_count=blades)
        chunk = 128  # angles per full-lattice block: 4 MB of booleans
        full_rows = [np.flatnonzero(row)
                     for start in range(0, angles.size, chunk)
                     for row in full_lattice_footprint(mask, angles[start:start + chunk], pts)]
        for mode in ("inverse-pinhole", "regular-pinhole"):
            mode_mask = MaskGeometry(blade_count=blades, mode=mode, attenuation_db=12.0)
            rows = mask_module.transmission_for(mode_mask, rotation, sampling).footprint_indices
            assert len(rows) == len(full_rows)
            assert all(np.array_equal(a, b) for a, b in zip(rows, full_rows))
        profile = sync_module.blade_return_profile(radar, mask, sampling, angles)
        monkeypatch.setattr(sync_module, "footprint_rows", lambda *args: full_rows)
        full_profile = sync_module.blade_return_profile(radar, mask, sampling, angles)
        assert np.array_equal(profile, full_profile)


class TestRotationSampling:
    def test_uniform_angles(self):
        rot = RotationSampling(1000)
        assert rot.angles_rad[0] == 0.0
        assert rot.count == 1000
        steps = np.diff(rot.angles_rad)
        np.testing.assert_allclose(steps, 2 * math.pi / 1000, atol=1e-12)

    def test_warped_roundtrip(self):
        angles = np.sort(np.random.default_rng(3).uniform(0, 2 * math.pi, 100))
        rot = RotationSampling.warped(angles)
        np.testing.assert_array_equal(rot.angles_rad, angles)

    def test_warped_is_its_angles(self):
        angles = np.array([0.0, 1.0, 2.0, 5.0])
        warped, explicit = RotationSampling.warped(angles), RotationSampling(4, angles)
        assert warped.count == explicit.count == 4
        np.testing.assert_array_equal(warped.angles_rad, explicit.angles_rad)
        with pytest.raises(ParameterError):
            RotationSampling(3, angles)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_rejected(self, bad):
        # a non-finite angle has an empty footprint: its blade would vanish
        angles = np.array([0.0, 1.0, bad, 5.0])
        with pytest.raises(ParameterError, match="finite"):
            RotationSampling.warped(angles)
        with pytest.raises(ParameterError, match="finite"):
            RotationSampling(4, angles)


class TestMaskPlaneSampling:
    def test_default_covers_swept_circle(self):
        mask = MaskGeometry()
        radar = default_radar_config(mask)
        samp = default_plane_sampling(radar, mask)
        assert samp.spacing_m == pytest.approx(radar.wavelength_m / 2)
        assert samp.extent_m >= mask.blade_length_m + mask.blade_width_m - 1e-12
        pts = samp.samples
        assert pts.shape[1] == 3
        assert np.all(pts[:, 2] == mask.plane_depth_m)
        assert samp.n_samples == pts.shape[0]

    def test_pitch_above_nyquist_rejected(self):
        mask = MaskGeometry()
        radar = default_radar_config(mask)
        samp = replace(default_plane_sampling(radar, mask), spacing_m=radar.wavelength_m)
        rot = RotationSampling(4)
        with pytest.raises(ParameterError, match="wavelength/2"):
            assemble_oneway(radar, build_scene_grid(20.0, 0, 0, 1, [0]), mask, rot,
                            samp, open_mask(rot, samp))


class TestRadarConfig:
    def test_default_separation_and_offset(self):
        mask = MaskGeometry()
        radar = default_radar_config(mask)
        sep = radar.rx - radar.tx
        np.testing.assert_allclose(sep, [0.01, 0.0, 0.0], atol=1e-12)
        assert radar.tx[1] == -mask.axis_offset_m

    def test_colocated_mode(self):
        mask = MaskGeometry()
        radar = default_radar_config(mask, colocated=True)
        assert radar.colocated

    def test_invariants(self):
        radar = default_radar_config(MaskGeometry())
        with pytest.raises(ParameterError):
            replace(radar, wavelength_m=0.0)
        with pytest.raises(ParameterError):
            replace(radar, azimuth_fov_deg=95.0)


class TestMaskGeometry:
    def test_attenuation_amplitude(self):
        assert MaskGeometry(attenuation_db=30.0).base_attenuation_amp == pytest.approx(0.0316, abs=2e-4)
        assert MaskGeometry(attenuation_db=math.inf).base_attenuation_amp == 0.0

    def test_invariants(self):
        with pytest.raises(ParameterError):
            MaskGeometry(blade_length_m=0.004, blade_width_m=0.016)
        with pytest.raises(ParameterError):
            MaskGeometry(plane_depth_m=0.0)
        with pytest.raises(ParameterError):
            MaskGeometry(attenuation_db=-1.0)
        with pytest.raises(ParameterError):
            MaskGeometry(mode="other")
