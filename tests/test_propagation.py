import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmpinhole import (AntennaPattern, MaskGeometry, MaskPlaneSampling,
                       MaskTransmission, RotationSampling, assemble_oneway,
                       build_scene_grid, default_radar_config, greens,
                       pattern_weight, rs_weight, soft_edge_transmission)
from mmpinhole import propagation
from mmpinhole.errors import ParameterError, ShapeError, SingularityError
from mmpinhole.geometry import angles_to_points
from mmpinhole.mask import open_mask, transmission_for
from mmpinhole.propagation import (_SCENE_CHUNK, _antenna_to_plane,
                                   _folded_chunk, _plane_to_scene_chunk)

LAMBDA = 4e-3


class TestGreens:
    def test_full_wavelength_wraps_phase(self):
        g = greens((0, 0, 0), (0, 0, LAMBDA), LAMBDA)
        assert abs(g) == pytest.approx(1 / LAMBDA)
        assert math.remainder(np.angle(g), 2 * math.pi) == pytest.approx(0.0, abs=1e-9)

    def test_half_wavelength_phase_pi(self):
        g = greens((0, 0, 0), (0, 0, LAMBDA / 2), LAMBDA)
        assert abs(np.angle(g)) == pytest.approx(math.pi, abs=1e-9)

    def test_five_meter_target(self):
        g = greens((0, 0, 0), (0, 0, 5.0), LAMBDA)
        assert abs(g) == pytest.approx(0.2)
        assert math.remainder(np.angle(g), 2 * math.pi) == pytest.approx(0.0, abs=1e-7)

    def test_singularity(self):
        with pytest.raises(SingularityError):
            greens((1, 2, 3), (1, 2, 3), LAMBDA)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_reciprocity(self, seed):
        rng = np.random.default_rng(seed)
        p, q = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        if np.allclose(p, q):
            return
        assert greens(p, q, LAMBDA) == greens(q, p, LAMBDA)

    def test_wavelength_doubling_halves_phase(self):
        # sub-wavelength distance keeps the phase unwrapped
        d = 1e-3
        p1 = np.angle(greens((0, 0, 0), (0, 0, d), 4e-3))
        p2 = np.angle(greens((0, 0, 0), (0, 0, d), 8e-3))
        assert p1 == pytest.approx(2 * p2)
        assert p1 * 4e-3 == pytest.approx(p2 * 8e-3)


class TestRsWeight:
    def test_on_axis_magnitude(self):
        w = rs_weight((0, 0, 0), (0, 0, 2.0), (0, 0, 1), LAMBDA)
        assert abs(w) == pytest.approx(1 / (LAMBDA * 2.0))

    def test_grazing_obliquity_null(self):
        w = rs_weight((0, 0, 0), (1.0, 0, 0), (0, 0, 1), LAMBDA)
        assert abs(w) == pytest.approx(0.0, abs=1e-15)

    def test_45_degree_magnitude(self):
        w = rs_weight((0, 0, 0), (math.sqrt(0.5), 0, math.sqrt(0.5)), (0, 0, 1), LAMBDA)
        assert abs(w) == pytest.approx(math.cos(math.radians(45)) / LAMBDA, rel=1e-9)
        assert abs(w) == pytest.approx(176.8, abs=0.1)


class TestAntennaPattern:
    def test_boresight_unity(self):
        pat = AntennaPattern.from_half_power(50, 20)
        assert pattern_weight(pat, (0, 0, 1.0)) == pytest.approx(1.0)

    def test_half_power_at_fov_edge(self):
        pat = AntennaPattern.from_half_power(50, 20)
        d = (math.sin(math.radians(50)), 0.0, math.cos(math.radians(50)))
        assert pattern_weight(pat, d) == pytest.approx(2 ** -0.5, abs=0.01)
        d_el = (0.0, math.sin(math.radians(20)), math.cos(math.radians(20)))
        assert pattern_weight(pat, d_el) == pytest.approx(2 ** -0.5, abs=0.01)

    def test_tail_beyond_90(self):
        pat = AntennaPattern.from_half_power(50, 20)
        assert pattern_weight(pat, (1.0, 0.0, 0.0)) <= 0.05

    def test_monotone_decay(self):
        pat = AntennaPattern.from_half_power(50, 20)
        a = np.linspace(0, 90, 91)
        w = pat.azimuth_shape(a)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.all(w >= 0)

    def test_tabulated_pattern(self, tmp_path):
        table = tmp_path / "az.txt"
        table.write_text("-90 0.0\n0 2.0\n90 0.0\n")
        pat = AntennaPattern.from_tables(str(table), np.array([[-90, 0], [0, 1], [90, 0]]))
        assert pat.azimuth_shape(0.0) == pytest.approx(1.0)  # rescaled to boresight
        assert pat.azimuth_shape(45.0) == pytest.approx(0.5)


def _one_way(radar, grid, mask, rot, samp, trans):
    rx, = assemble_oneway(radar, grid, mask, rot, samp, ("rx",), trans)
    return rx


class TestAssembleOneway:
    def test_open_mask_time_invariant(self, toy_radar, toy_grid, toy_mask,
                                      toy_rotation, toy_sampling):
        trans = open_mask(toy_rotation, toy_sampling)
        F = _one_way(toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling, trans)
        dev = np.abs(F - F[0]) / np.abs(F[0])
        assert dev.max() < 1e-12

    def test_full_block_zero_matrix(self, toy_radar, toy_grid, toy_mask,
                                    toy_rotation, toy_sampling):
        values = np.zeros((toy_rotation.count, toy_sampling.n_samples))
        trans = MaskTransmission.from_values(values)
        F = _one_way(toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling, trans)
        assert np.all(F == 0)

    def test_regular_pinhole_peak_at_alignment(self, toy_radar, toy_mask,
                                               toy_rotation, toy_sampling):
        # boresight target: the ray from the antenna crosses the mask plane
        # just above the antenna, i.e. at polar angle -pi/2 on the plane;
        # the blade points there at rotation angle pi (blade at angle 0
        # points to +y, the antenna sits at -y).
        grid = build_scene_grid(2.0, 0, 0, 1, [0])
        rot = RotationSampling(256)
        mask = MaskGeometry(blade_count=1, blade_length_m=toy_mask.blade_length_m,
                            blade_width_m=toy_mask.blade_width_m,
                            plane_depth_m=toy_mask.plane_depth_m,
                            axis_offset_m=toy_mask.axis_offset_m,
                            mode="regular-pinhole")
        trans = transmission_for(mask, rot, toy_sampling)
        F = _one_way(toy_radar, grid, mask, rot, toy_sampling, trans)
        t_peak = int(np.argmax(np.abs(F[:, 0])))
        expected = rot.count // 2
        assert abs(t_peak - expected) <= rot.count * 0.05

    def test_shape_mismatch_rejected(self, toy_radar, toy_grid, toy_mask,
                                     toy_rotation, toy_sampling):
        bad = open_mask(RotationSampling(toy_rotation.count + 1), toy_sampling)
        with pytest.raises(ShapeError):
            _one_way(toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling, bad)

    def test_extent_must_cover_swept_circle(self, toy_radar, toy_grid, toy_mask,
                                            toy_rotation):
        small = MaskPlaneSampling(spacing_m=0.01, extent_m=0.01,
                                  plane_depth_m=toy_mask.plane_depth_m)
        trans = open_mask(toy_rotation, small)
        with pytest.raises(ParameterError):
            _one_way(toy_radar, toy_grid, toy_mask, toy_rotation, small, trans)

    @pytest.mark.parametrize("kind", ["structured", "explicit"])
    def test_two_ends_match_single_end_calls(self, toy_radar, toy_mask,
                                             toy_rotation, toy_sampling, kind):
        # several scene chunks and two elevations
        grid = build_scene_grid(2.0, -30.0, 30.0, 0.5, [0.0, 5.0])
        assert grid.n_points > 2 * _SCENE_CHUNK
        if kind == "structured":
            trans = transmission_for(replace(toy_mask, mode="regular-pinhole"),
                                     toy_rotation, toy_sampling)
        else:
            rng = np.random.default_rng(3)
            trans = MaskTransmission.from_values(
                rng.uniform(size=(toy_rotation.count, toy_sampling.n_samples)))
        args = (toy_radar, grid, toy_mask, toy_rotation, toy_sampling)
        tx, rx = assemble_oneway(*args, ("tx", "rx"), trans)
        rx2, tx2 = assemble_oneway(*args, ("rx", "tx"), trans)
        for end, pair in (("tx", (tx, tx2)), ("rx", (rx, rx2))):
            single, = assemble_oneway(*args, (end,), trans)
            for matrix in pair:
                assert np.array_equal(matrix, single)
        assert not np.array_equal(tx, rx)

    @pytest.mark.parametrize("ends", [("tx", "bogus"), (), "both", "tx"])
    def test_unknown_end_rejected(self, toy_radar, toy_grid, toy_mask,
                                  toy_rotation, toy_sampling, ends):
        trans = open_mask(toy_rotation, toy_sampling)
        with pytest.raises(ParameterError):
            assemble_oneway(toy_radar, toy_grid, toy_mask, toy_rotation,
                            toy_sampling, ends, trans)

    def test_non_finite_entries_rejected(self, toy_radar, toy_grid, toy_mask,
                                         toy_rotation, toy_sampling):
        trans = open_mask(toy_rotation, toy_sampling)
        nan_shape = AntennaPattern(azimuth_shape=lambda a: np.full(np.shape(a), np.nan),
                                   elevation_shape=lambda a: np.ones(np.shape(a)))
        with pytest.raises(ParameterError, match="finite"):
            assemble_oneway(toy_radar, toy_grid, toy_mask, toy_rotation,
                            toy_sampling, ("tx", "rx"), trans, pattern=nan_shape)

    def test_far_field_phase_matches_plane_wave(self, toy_mask):
        # a single open cell swept along x acts as a moving point source;
        # far away, row phases (after removing the antenna-to-cell leg)
        # follow the linear plane-wave model in the sweep coordinate.
        wavelength = 0.04
        radar = default_radar_config(toy_mask, wavelength_m=wavelength,
                                     colocated=True)
        samp = MaskPlaneSampling(spacing_m=0.01, extent_m=0.04,
                                 plane_depth_m=toy_mask.plane_depth_m)
        pts = samp.samples
        cells = [np.argmin(np.linalg.norm(pts[:, :2] - np.array([x, 0.0]), axis=1))
                 for x in np.linspace(-0.03, 0.03, 13)]
        aperture = 0.06
        r = 1000.0 * aperture
        theta = math.radians(20.0)
        grid = build_scene_grid(r, 20.0, 20.0, 1.0, [0])
        T = len(cells)
        values = np.zeros((T, samp.n_samples))
        for t, c in enumerate(cells):
            values[t, c] = 1.0
        trans = MaskTransmission.from_values(values)
        rot = RotationSampling(T)
        F, = assemble_oneway(radar, grid, toy_mask, rot, samp, ("rx",), trans)
        cell_x = pts[cells, 0]
        d_leg = np.linalg.norm(pts[cells] - radar.rx[None, :], axis=1)
        measured = np.unwrap(np.angle(F[:, 0])) - 2 * math.pi * d_leg / wavelength
        measured -= measured[0]
        # sweep axis is x; cos(angle from axis) = sin(azimuth)
        expected = -2 * math.pi * (cell_x - cell_x[0]) * math.sin(theta) / wavelength
        assert np.max(np.abs(measured - expected)) < 0.05

    def test_open_aperture_energy_stays_in_fresnel_band(self, toy_mask):
        # growing circular apertures: the raw on-axis magnitude rings with
        # the Fresnel zones, but once averaged over one zone period it stays
        # in a bounded band around the free-space field and converges to it.
        wavelength = 0.04
        radar = default_radar_config(toy_mask, wavelength_m=wavelength,
                                     colocated=True)
        samp = MaskPlaneSampling(spacing_m=0.01, extent_m=0.30,
                                 plane_depth_m=toy_mask.plane_depth_m)
        grid = build_scene_grid(3.0, 0, 0, 1, [0])
        pts = samp.samples
        depth = toy_mask.plane_depth_m
        d_eff = depth * (3.0 - depth) / 3.0
        period_r2 = wavelength * d_eff
        center = np.array([0.0, -toy_mask.axis_offset_m * (1 - depth / 3.0)])
        rr = np.linalg.norm(pts[:, :2] - center, axis=1)
        r2 = np.linspace(0.5 * period_r2, 6 * period_r2, 34)
        values = np.stack([(rr <= rad).astype(float) for rad in np.sqrt(r2)])
        trans = MaskTransmission.from_values(values)
        rot = RotationSampling(len(r2))
        F, = assemble_oneway(radar, grid, toy_mask, rot, samp, ("rx",), trans)
        mags = np.abs(F[:, 0])
        free = abs(greens(radar.rx, grid.points[0], wavelength))
        smoothed = np.convolve(mags, np.ones(6) / 6, mode="valid")
        assert np.all(smoothed > 0.5 * free)
        assert np.all(smoothed < 1.5 * free)
        assert abs(smoothed[-1] - free) < 0.15 * free


def full_lattice_oneway(radar, grid, plane_sampling, transmission, end):
    """Reference one-way matrix: dense (T, M) weights @ full (M, N) kernel."""
    pts = plane_sampling.samples
    illum = _antenna_to_plane(radar, radar.tx if end == "tx" else radar.rx, pts,
                              AntennaPattern.from_half_power(radar.azimuth_fov_deg,
                                                             radar.elevation_fov_deg))
    kernel = _plane_to_scene_chunk(pts, grid.points, radar.wavelength_m)
    return (transmission.values * illum[None, :]) @ kernel * plane_sampling.cell_area


class TestMirrorFold:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-3, 0.05), st.integers(1, 40), st.floats(0.01, 1.0),
           st.floats(0.5, 50.0), st.sampled_from([0.0, -0.0]),
           st.integers(1, _SCENE_CHUNK), st.integers(0, 2 ** 32 - 1))
    def test_folded_kernel_rows_equal_full_lattice(self, spacing, cells, depth,
                                                   range_m, elevation, n_cols, seed):
        samp = MaskPlaneSampling(spacing_m=spacing, extent_m=spacing * cells,
                                 plane_depth_m=depth)
        pts = samp.samples
        n = samp.axis_coords.size
        rng = np.random.default_rng(seed)
        scene = angles_to_points(range_m, np.sort(rng.uniform(-85.0, 85.0, n_cols)),
                                 [elevation])
        folded = _folded_chunk(pts, n, scene, LAMBDA)
        full = _plane_to_scene_chunk(pts, scene, LAMBDA)
        assert folded.tobytes() == full.tobytes()

    @pytest.mark.parametrize("elevations", [[0.0], [-5.0, 0.0, 5.0]],
                             ids=["flat", "three-elevations"])
    @pytest.mark.parametrize("edge", ["hard", "soft"])
    @pytest.mark.parametrize("mode", ["regular-pinhole", "inverse-pinhole"])
    @pytest.mark.parametrize("blades", [1, 2])
    def test_assembly_matches_full_lattice_reference(self, toy_radar, toy_mask,
                                                     toy_rotation, toy_sampling,
                                                     monkeypatch, elevations,
                                                     edge, mode, blades):
        # asymmetric azimuth range; with three elevations the chunks
        # [64, 128) and [192, 256) mix elevations and [128, 192) is all 0 deg
        grid = build_scene_grid(2.0, -20.0, 30.0, 0.5, elevations)
        mask = replace(toy_mask, mode=mode, blade_count=blades, attenuation_db=20.0)
        make = transmission_for if edge == "hard" else soft_edge_transmission
        trans = make(mask, toy_rotation, toy_sampling)
        kernel_rows = []

        def spy(plane_pts, scene_pts, wavelength_m):
            kernel_rows.append(len(plane_pts))
            return _plane_to_scene_chunk(plane_pts, scene_pts, wavelength_m)
        monkeypatch.setattr(propagation, "_plane_to_scene_chunk", spy)
        tx, rx = assemble_oneway(toy_radar, grid, mask, toy_rotation, toy_sampling,
                                 ("tx", "rx"), trans)
        n = toy_sampling.axis_coords.size
        assert (n + 1) // 2 * n in kernel_rows
        assert (toy_sampling.n_samples in kernel_rows) == (len(elevations) > 1)
        ref_tx, ref_rx = (full_lattice_oneway(toy_radar, grid, toy_sampling, trans, end)
                          for end in ("tx", "rx"))
        # unidirectional B is the rx end, bidirectional B is tx * rx
        for got, ref in ((rx, ref_rx), (tx, ref_tx), (tx * rx, ref_tx * ref_rx)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("elevation", [-90.0, 90.0])
    def test_scene_point_on_mirrored_cell_is_singular(self, tmp_path, capsys,
                                                      elevation):
        # straight up or down the point is (0, +-0.25, z) with z tiny; every
        # square is exact, so its distance to the cell at the same place is 0
        x, y, z = angles_to_points(0.25, [0.0], [elevation])[0]
        assert (x, abs(y)) == (0.0, 0.25)
        mask = MaskGeometry(blade_length_m=0.3, blade_width_m=0.1,
                            plane_depth_m=z, axis_offset_m=0.1)
        radar = default_radar_config(mask, wavelength_m=0.5)
        samp = MaskPlaneSampling(spacing_m=0.25, extent_m=0.4, plane_depth_m=z)
        elevations = sorted([elevation, 0.0])
        grid = build_scene_grid(0.25, 0.0, 0.0, 1.0, elevations)
        rot = RotationSampling(4)
        with pytest.raises(SingularityError, match="coincides"):
            assemble_oneway(radar, grid, mask, rot, samp, ("tx", "rx"),
                            transmission_for(mask, rot, samp))
        from mmpinhole.cli import main
        config = {
            "radar": {"wavelength_m": 0.5},
            "mask": {"blade_length_m": 0.3, "blade_width_m": 0.1,
                     "plane_depth_m": z, "axis_offset_m": 0.1},
            "rotation": {"positions_per_rotation": 4},
            "sampling": {"spacing_m": 0.25, "extent_m": 0.4},
            "grid": {"range_m": 0.25, "az_min_deg": 0.0, "az_max_deg": 0.0,
                     "az_step_deg": 1.0, "elevations_deg": elevations},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "coincides with a mask-plane sample" in capsys.readouterr().err
