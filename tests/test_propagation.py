import json
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from mmpinhole import (AntennaPattern, MaskGeometry, MaskPlaneSampling,
                       MaskTransmission, RotationSampling, SceneGrid, assemble_oneway,
                       build_forward, build_scene_grid, default_radar_config,
                       pattern_weight)
from mmpinhole import propagation
from mmpinhole.errors import ParameterError, ShapeError, SingularityError
from mmpinhole.geometry import angles_to_points, default_plane_sampling
from mmpinhole.mask import open_mask, transmission_for
from mmpinhole.propagation import (_RESTART, _antenna_to_plane, _fill_rows,
                                   _footprint_steps, _plane_to_scene_chunk, _ranges,
                                   _scene_block_columns, _through_mask)

LAMBDA = 4e-3


def kernel(p, q, wavelength_m=LAMBDA):
    """Rayleigh-Sommerfeld factor from a plane cell at ``p`` to a point ``q``."""
    return _plane_to_scene_chunk(np.array([p], dtype=float), np.array([q], dtype=float),
                                 wavelength_m)[0, 0]


def free_space_phase(k):
    """Phase of the spherical wave, after removing the 1/(i lambda) factor."""
    return math.remainder(np.angle(1j * k), 2 * math.pi)


class TestPlaneToSceneKernel:
    # closed form on the +z axis: exp(i 2 pi d / lambda) / (i lambda d)
    @pytest.mark.parametrize("d", [LAMBDA / 2, LAMBDA, 2.0, 5.0])
    def test_on_axis_magnitude_and_phase(self, d):
        k = kernel((0, 0, 0), (0, 0, d))
        assert abs(k) == pytest.approx(1 / (LAMBDA * d), rel=1e-12)
        expected = math.remainder(2 * math.pi * d / LAMBDA, 2 * math.pi)
        assert abs(math.remainder(free_space_phase(k) - expected, 2 * math.pi)) < 1e-7

    def test_wavelength_doubling_halves_phase(self):
        # sub-wavelength distance keeps the phase unwrapped
        d = 1e-3
        p1 = free_space_phase(kernel((0, 0, 0), (0, 0, d), 4e-3))
        p2 = free_space_phase(kernel((0, 0, 0), (0, 0, d), 8e-3))
        assert p1 == pytest.approx(2 * p2)

    def test_grazing_obliquity_null(self):
        assert kernel((0, 0, 0), (1.0, 0, 0)) == 0

    def test_45_degree_obliquity(self):
        k = kernel((0, 0, 0), (math.sqrt(0.5), 0, math.sqrt(0.5)))
        assert abs(k) == pytest.approx(math.cos(math.radians(45)) / LAMBDA, rel=1e-9)
        assert abs(k) == pytest.approx(176.8, abs=0.1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_reciprocity(self, seed):
        # swapping the ends keeps the distance and flips the obliquity sign
        rng = np.random.default_rng(seed)
        p, q = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        assert kernel(q, p) == pytest.approx(-kernel(p, q), rel=1e-9)

    def test_point_on_lattice_cell_is_singular(self):
        # quarter-metre coordinates square exactly, so the distance is 0
        cells = MaskPlaneSampling(spacing_m=0.25, extent_m=0.5,
                                  plane_depth_m=0.5).samples
        for cell in (cells[0], cells[7]):
            with pytest.raises(SingularityError, match="coincides"):
                _plane_to_scene_chunk(cells, cell[None, :], LAMBDA)


class TestAntennaPattern:
    # half-power half-angles of 50 degrees in azimuth and 20 in elevation
    radar = default_radar_config(MaskGeometry(), azimuth_fov_deg=50.0,
                                 elevation_fov_deg=20.0)

    def test_boresight_unity(self):
        assert pattern_weight(self.radar, (0, 0, 1.0)) == pytest.approx(1.0)

    def test_half_power_at_fov_edge(self):
        d = (math.sin(math.radians(50)), 0.0, math.cos(math.radians(50)))
        assert pattern_weight(self.radar, d) == pytest.approx(2 ** -0.5, abs=0.01)
        d_el = (0.0, math.sin(math.radians(20)), math.cos(math.radians(20)))
        assert pattern_weight(self.radar, d_el) == pytest.approx(2 ** -0.5, abs=0.01)

    def test_tail_beyond_90(self):
        assert pattern_weight(self.radar, (1.0, 0.0, 0.0)) <= 0.05

    def test_monotone_decay(self):
        a = np.radians(np.linspace(0, 90, 91))
        w = pattern_weight(self.radar, np.stack([np.sin(a), np.zeros_like(a), np.cos(a)],
                                                axis=-1))
        assert np.all(np.diff(w) <= 1e-12)
        assert np.all(w >= 0)

    def test_fov_pair_weighs_as_its_radar(self):
        # AntennaPattern holds the radar's two FoV half-angles, nothing else
        rng = np.random.default_rng(0)
        d = rng.normal(size=(100, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        fov = AntennaPattern.from_half_power(self.radar.azimuth_fov_deg,
                                             self.radar.elevation_fov_deg)
        assert np.array_equal(pattern_weight(fov, d), pattern_weight(self.radar, d))


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
        T = toy_rotation.count
        trans = MaskTransmission(n_samples=toy_sampling.n_samples,
                                 inside_amp=0.0, outside_amp=0.0,
                                 footprint_indices=[np.empty(0, dtype=int)] * T)
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

    def test_two_ends_match_single_end_calls(self, toy_radar, toy_mask,
                                             toy_rotation, toy_sampling, monkeypatch):
        # several 64-column scene blocks and two elevations
        monkeypatch.setattr(propagation, "_SCENE_BLOCK_BYTES",
                            64 * 16 * toy_sampling.n_samples)
        grid = build_scene_grid(2.0, -30.0, 30.0, 0.5, [0.0, 5.0])
        assert grid.n_points > 2 * 64
        trans = transmission_for(replace(toy_mask, mode="regular-pinhole"),
                                 toy_rotation, toy_sampling)
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
                                         toy_rotation, toy_sampling, monkeypatch):
        trans = open_mask(toy_rotation, toy_sampling)
        monkeypatch.setattr(propagation, "pattern_weight",
                            lambda radar, d: np.full(np.shape(d)[:-1], np.nan))
        with pytest.raises(ParameterError, match="entries must be finite"):
            assemble_oneway(toy_radar, toy_grid, toy_mask, toy_rotation,
                            toy_sampling, ("tx", "rx"), trans)

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
        trans = MaskTransmission(n_samples=samp.n_samples,
                                 inside_amp=1.0, outside_amp=0.0,
                                 footprint_indices=[np.array([c]) for c in cells])
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
        trans = MaskTransmission(n_samples=samp.n_samples,
                                 inside_amp=1.0, outside_amp=0.0,
                                 footprint_indices=[np.flatnonzero(rr <= rad)
                                                    for rad in np.sqrt(r2)])
        rot = RotationSampling(len(r2))
        F, = assemble_oneway(radar, grid, toy_mask, rot, samp, ("rx",), trans)
        mags = np.abs(F[:, 0])
        free = 1.0 / np.linalg.norm(grid.points[0] - radar.rx)
        smoothed = np.convolve(mags, np.ones(6) / 6, mode="valid")
        assert np.all(smoothed > 0.5 * free)
        assert np.all(smoothed < 1.5 * free)
        assert abs(smoothed[-1] - free) < 0.15 * free


def full_lattice_oneway(radar, grid, plane_sampling, transmission, end):
    """Reference one-way matrix: dense (T, M) weights @ full (M, N) kernel."""
    pts = plane_sampling.samples
    illum = _antenna_to_plane(radar, radar.tx if end == "tx" else radar.rx, pts)
    kernel = _plane_to_scene_chunk(pts, grid.points, radar.wavelength_m)
    return (transmission.values * illum[None, :]) @ kernel * plane_sampling.cell_area


class TestMirrorFold:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-3, 0.05), st.integers(1, 40), st.floats(0.01, 1.0),
           st.floats(0.5, 50.0), st.sampled_from([0.0, -0.0]),
           st.integers(1, 64), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_folded_kernel_rows_equal_full_lattice(self, spacing, cells, depth,
                                                   range_m, elevation, n_cols,
                                                   workers, seed):
        samp = MaskPlaneSampling(spacing_m=spacing, extent_m=spacing * cells,
                                 plane_depth_m=depth)
        pts = samp.samples
        n = samp.axis_coords.size
        rng = np.random.default_rng(seed)
        scene = angles_to_points(range_m, np.sort(rng.uniform(-85.0, 85.0, n_cols)),
                                 [elevation])
        full = _plane_to_scene_chunk(pts, scene, LAMBDA)
        for folded, rows in ((True, (n + 1) // 2), (False, n)):
            # each worker's range of the (half) lattice, twins included
            block = np.full_like(full, np.nan)
            for r in _ranges(rows, workers, 1):
                _fill_rows(block, pts, n, scene, LAMBDA, r, folded)
            assert block.tobytes() == full.tobytes()

    @pytest.mark.parametrize("elevations", [[0.0], [-5.0, 0.0, 5.0]],
                             ids=["flat", "three-elevations"])
    @pytest.mark.parametrize("amps", ["mode", "partial"])
    @pytest.mark.parametrize("mode", ["regular-pinhole", "inverse-pinhole"])
    @pytest.mark.parametrize("blades", [1, 2])
    def test_assembly_matches_full_lattice_reference(self, toy_radar, toy_mask,
                                                     toy_rotation, toy_sampling,
                                                     monkeypatch, kernel_blocks,
                                                     elevations, amps, mode, blades):
        # asymmetric azimuth range in 64-column blocks; with three elevations
        # the blocks [64, 128) and [192, 256) mix elevations and [128, 192)
        # is all 0 deg
        monkeypatch.setattr(propagation, "_SCENE_BLOCK_BYTES",
                            64 * 16 * toy_sampling.n_samples)
        grid = build_scene_grid(2.0, -20.0, 30.0, 0.5, elevations)
        mask = replace(toy_mask, mode=mode, blade_count=blades, attenuation_db=20.0)
        trans = transmission_for(mask, toy_rotation, toy_sampling)
        if amps == "partial":
            # neither amplitude 0 or 1, so both the footprint and the
            # open-plane terms of the assembly carry a scale factor
            inside, outside = (0.7, 0.2) if mode == "regular-pinhole" else (0.2, 0.7)
            trans = replace(trans, inside_amp=inside, outside_amp=outside)
        tx, rx = assemble_oneway(toy_radar, grid, mask, toy_rotation, toy_sampling,
                                 ("tx", "rx"), trans)
        kernel_rows = [rows for _, rows in kernel_blocks.per_block()]
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

    @pytest.mark.parametrize("elevation", [-90.0, 90.0])
    def test_scene_point_in_mask_plane_between_cells_is_accepted(self, elevation):
        # (0, +-0.3, z) lies in the plane z but between the cells at +-0.25
        x, y, z = angles_to_points(0.3, [0.0], [elevation])[0]
        mask = MaskGeometry(blade_length_m=0.3, blade_width_m=0.1,
                            plane_depth_m=z, axis_offset_m=0.1)
        radar = default_radar_config(mask, wavelength_m=0.5)
        samp = MaskPlaneSampling(spacing_m=0.25, extent_m=0.4, plane_depth_m=z)
        grid = build_scene_grid(0.3, 0.0, 0.0, 1.0, sorted([elevation, 0.0]))
        assert np.min(grid.points[:, 2]) == z
        rot = RotationSampling(4)
        tx, rx = assemble_oneway(radar, grid, mask, rot, samp, ("tx", "rx"),
                                 transmission_for(mask, rot, samp))
        assert np.all(np.isfinite(tx * rx))


class TestMirrorSymmetry:
    """x -> -x maps the Tx antenna onto the Rx antenna, blade angle a onto
    -a and azimuth az onto -az, and leaves the lattice and the pattern as
    they are.  So the rx matrix at angles a is the tx matrix at -a with each
    elevation ring's azimuths reversed, and the bidirectional B maps to
    itself the same way.  One relation covers the blade frame, footprint,
    illumination, kernel and fold together."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2]), st.floats(0.015, 0.05), st.floats(0.004, 0.02),
           st.floats(0.02, 0.1), st.floats(-0.04, 0.04), st.floats(0.0, 0.04),
           st.sampled_from(["regular-pinhole", "inverse-pinhole"]),
           st.integers(3, 40), st.floats(0.0, 2 * math.pi),
           st.integers(0, 8), st.floats(1.0, 6.0), st.floats(0.5, 3.0),
           st.sampled_from([[0.0], [-6.0, 0.0, 6.0]]))
    def test_mirror_maps_rx_to_tx_and_b_to_itself(self, blades, length, width, depth,
                                                   offset, separation, mode, T, phase,
                                                   n_half, az_step, range_m, elevations):
        mask = MaskGeometry(blade_count=blades, blade_length_m=length,
                            blade_width_m=width, plane_depth_m=depth,
                            axis_offset_m=offset, mode=mode)
        radar = default_radar_config(mask, wavelength_m=0.04, separation_m=separation)
        samp = MaskPlaneSampling(spacing_m=0.01, extent_m=length + width,
                                 plane_depth_m=depth)
        side = az_step * np.arange(1, n_half + 1)
        grid = SceneGrid(range_m=range_m,
                         azimuth_deg=np.concatenate((-side[::-1], [0.0], side)),
                         elevation_deg=elevations)
        mirror = np.arange(grid.n_points).reshape(grid.shape)[:, ::-1].ravel()
        a = phase + 2.0 * math.pi * np.arange(T) / T
        rot, rot_mirrored = RotationSampling(T, a), RotationSampling(T, -a)

        def one_way(rotation):
            return assemble_oneway(radar, grid, mask, rotation, samp, ("tx", "rx"),
                                   transmission_for(mask, rotation, samp))
        tx, rx = one_way(rot)
        tx_m, rx_m = one_way(rot_mirrored)
        assert np.max(np.abs(rx[:, mirror] - tx_m)) <= 1e-12 * np.max(np.abs(rx))
        assert np.max(np.abs(tx[:, mirror] - rx_m)) <= 1e-12 * np.max(np.abs(tx))
        B = build_forward(radar, grid, mask, rot, samp, "bidirectional").B
        B_m = build_forward(radar, grid, mask, rot_mirrored, samp, "bidirectional").B
        assert np.max(np.abs(B[:, mirror] - B_m)) <= 1e-12 * np.max(np.abs(B))


def direct_through_mask(transmission, illum, prop):
    """Reference: open term plus a direct CSR (T, M) footprint @ (M, C) product."""
    T, M = transmission.n_positions, transmission.n_samples
    rows = np.repeat(np.arange(T), [idx.size for idx in transmission.footprint_indices])
    cols = np.concatenate(transmission.footprint_indices)
    fp = sparse.csr_matrix((illum[cols], (rows, cols)), shape=(T, M))
    delta = transmission.inside_amp - transmission.outside_amp
    return transmission.outside_amp * (illum @ prop)[None, :] + delta * (fp @ prop)


def through_mask(transmission, steps, illum, prop, workers):
    """The (T, C) rows ``_through_mask`` writes, its row ranges taken in turn."""
    T = transmission.n_positions
    open_term, fills = _through_mask(transmission, steps, illum,
                                     _ranges(T, workers, _RESTART))
    open_row = open_term(prop)
    out = np.empty((T, prop.shape[1]), dtype=np.complex128)
    out[:] = open_row
    for fill in fills:
        fill(prop, open_row, out)
    return out


def direct_forward(radar, grid, plane_sampling, transmission, directionality):
    """Reference B from the full-lattice kernel and the direct footprint product."""
    pts = plane_sampling.samples
    kernel = _plane_to_scene_chunk(pts, grid.points, radar.wavelength_m)

    def end(antenna):
        illum = _antenna_to_plane(radar, antenna, pts)
        return direct_through_mask(transmission, illum, kernel) * plane_sampling.cell_area
    rx = end(radar.rx)
    return rx if directionality == "unidirectional" else end(radar.tx) * rx


@st.composite
def footprints(draw, T=None):
    """Footprint rows over M cells: empty, full, repeated, disjoint or random."""
    if T is None:
        T = draw(st.integers(1, 3 * _RESTART))
    M = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["empty", "full", "same", "disjoint", "random"]),
                          min_size=T, max_size=T))
    rows, prev = [], np.zeros(M, dtype=bool)
    for kind in kinds:
        if kind == "empty":
            row = np.zeros(M, dtype=bool)
        elif kind == "full":
            row = np.ones(M, dtype=bool)
        elif kind == "same":
            row = prev
        elif kind == "disjoint":
            row = ~prev & (rng.uniform(size=M) < 0.7)
        else:
            row = rng.uniform(size=M) < rng.uniform()
        rows.append(np.flatnonzero(row))
        prev = row
    return M, rows


def whole_footprint_steps(footprint_indices, n_samples):
    """Reference row differences: one subtraction of two whole-footprint copies."""
    T = len(footprint_indices)
    t = np.arange(T)
    cols = np.concatenate(footprint_indices)
    # the footprint plus one empty row T, the predecessor of every restart row
    indptr = np.cumsum([0] + [idx.size for idx in footprint_indices] + [0])
    fp = sparse.csr_matrix((np.ones(cols.size), cols, indptr), shape=(T + 1, n_samples))
    return fp[:T] - fp[np.where(t % _RESTART == 0, T, t - 1)]


class TestRowDifferenceProduct:
    # fewer rows than one restart block, whole blocks, and one row past them
    @pytest.mark.parametrize("T", [1, 7, _RESTART, 2 * _RESTART, _RESTART + 1,
                                   2 * _RESTART + 1])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_steps_match_whole_footprint_subtraction(self, T, data):
        M, rows = data.draw(footprints(T))
        for footprint in (rows, [np.empty(0, dtype=np.intp)] * T):
            got = _footprint_steps(footprint, M)
            ref = whole_footprint_steps(footprint, M)
            assert got.shape == ref.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @settings(max_examples=150, deadline=None)
    @given(footprints(), st.sampled_from([(1.0, 0.0), (1.0, 0.25), (0.25, 1.0),
                                          (0.0, 1.0), (1.0, 1.0)]),
           st.integers(1, 64), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_matches_direct_csr_product(self, footprint, amps, n_cols, workers, seed):
        M, rows = footprint
        T = len(rows)
        trans = MaskTransmission(n_samples=M, inside_amp=amps[0],
                                 outside_amp=amps[1], footprint_indices=rows)
        rng = np.random.default_rng(seed)
        illum = rng.normal(size=M) + 1j * rng.normal(size=M)
        prop = rng.normal(size=(M, n_cols)) + 1j * rng.normal(size=(M, n_cols))
        steps = _footprint_steps(rows, M)
        fp = np.zeros((T, M))
        for t, row in enumerate(rows):
            fp[t, row] = 1.0
        expected = np.diff(fp, axis=0, prepend=0.0)
        expected[::_RESTART] = fp[::_RESTART]
        # cells that stay covered are not stored, not even as zeros
        assert np.array_equal(steps.toarray(), expected)
        assert steps.nnz == np.count_nonzero(expected)
        got = through_mask(trans, steps, illum, prop, workers)
        ref = direct_through_mask(trans, illum, prop)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("directionality", ["unidirectional", "bidirectional"])
    @pytest.mark.parametrize("geometry", ["warped", "c14"])
    def test_build_forward_matches_direct_product(self, toy_radar, toy_mask,
                                                  toy_sampling, directionality,
                                                  geometry):
        if geometry == "warped":
            # non-uniform steps, 2 blades, leaky regular pinhole; 130 rows
            # leave a 30-row tail after the last restart
            base = 2.0 * math.pi * np.arange(130) / 130
            rot = RotationSampling.warped(base + 0.05 * np.sin(3.0 * base) + 0.01)
            mask = replace(toy_mask, mode="regular-pinhole", blade_count=2,
                           attenuation_db=12.0)
            radar, samp = toy_radar, toy_sampling
            grid = build_scene_grid(2.0, -30.0, 30.0, 1.0, [-5.0, 0.0])
        else:
            # the C14 CLI determinism geometry (T=64)
            mask = MaskGeometry(blade_count=1, blade_length_m=0.12, blade_width_m=0.02,
                                plane_depth_m=0.06, axis_offset_m=0.06,
                                mode="inverse-pinhole")
            radar = default_radar_config(mask, wavelength_m=0.04)
            samp = default_plane_sampling(radar, mask)
            rot = RotationSampling(64)
            grid = build_scene_grid(2.0, -30.0, 30.0, 2.0, [0.0])
        B = build_forward(radar, grid, mask, rot, samp, directionality).B
        ref = direct_forward(radar, grid, samp, transmission_for(mask, rot, samp),
                             directionality)
        assert np.linalg.norm(B - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.max(np.abs(B - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSceneBlocks:
    """Kernel blocks are sized by bytes; their width leaves the matrices as they are."""

    def test_width_follows_the_byte_budget(self, monkeypatch):
        radar = default_radar_config(MaskGeometry())
        M = default_plane_sampling(radar, MaskGeometry()).n_samples  # 31,329
        assert _scene_block_columns(M) == 16
        assert _scene_block_columns(10 ** 9) == 1
        monkeypatch.setattr(propagation, "_SCENE_BLOCK_BYTES", 5 * 16 * 81 + 16 * 81 - 1)
        assert _scene_block_columns(81) == 5

    @pytest.mark.parametrize("elevations", [[0.0], [-5.0, 0.0, 5.0]],
                             ids=["flat", "three-elevations"])
    @pytest.mark.parametrize("mode", ["regular-pinhole", "inverse-pinhole"])
    def test_block_width_keeps_the_matrices(self, toy_radar, toy_mask, toy_rotation,
                                            toy_sampling, monkeypatch, kernel_blocks,
                                            elevations, mode):
        grid = build_scene_grid(2.0, -20.0, 30.0, 0.5, elevations)
        N, M = grid.n_points, toy_sampling.n_samples
        mask = replace(toy_mask, mode=mode, blade_count=2)
        trans = transmission_for(mask, toy_rotation, toy_sampling)
        results = {}
        for w in (1, 5, 16, N):
            monkeypatch.setattr(propagation, "_SCENE_BLOCK_BYTES", 16 * M * w)
            kernel_blocks.calls.clear()
            results[w] = assemble_oneway(toy_radar, grid, mask, toy_rotation,
                                         toy_sampling, ("tx", "rx"), trans)
            widths = [width for width, _ in kernel_blocks.per_block()]
            assert widths == [w] * (N // w) + [N % w] * (N % w > 0)
        for w, matrices in results.items():
            for got, ref in zip(matrices, results[N]):
                if trans.outside_amp == 0.0:
                    # kernel entries and footprint products do not depend on w
                    assert np.array_equal(got, ref)
                else:
                    # the open term illum @ block is a BLAS product: its sum
                    # order may follow a column's place in the block (a
                    # one-column block goes to a dot product) and the BLAS
                    # thread split, so every width keeps the 1e-12 bound
                    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestWorkers:
    """Kernel rows and footprint rows are split across worker threads; the
    split leaves every bit of the matrices as it is."""

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity API")
    def test_worker_count_follows_the_affinity(self):
        assert propagation._worker_count() == len(os.sched_getaffinity(0))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 500), st.integers(1, 8), st.sampled_from([1, 3, _RESTART]))
    def test_ranges_cover_the_rows_at_unit_cuts(self, count, parts, unit):
        ranges = _ranges(count, parts, unit)
        assert 1 <= len(ranges) <= parts
        assert ranges[0][0] == 0 and ranges[-1][1] == count
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start and start % unit == 0
        lengths = [stop - start for start, stop in ranges]
        assert max(lengths) - min(lengths) <= unit

    @pytest.mark.parametrize("elevations", [[0.0], [-5.0, 0.0, 5.0]],
                             ids=["flat", "three-elevations"])
    @pytest.mark.parametrize("blades", [1, 2])
    @pytest.mark.parametrize("mode", ["regular-pinhole", "inverse-pinhole"])
    @pytest.mark.parametrize("ends", [("rx",), ("tx", "rx")],
                             ids=["unidirectional", "bidirectional"])
    def test_worker_count_keeps_the_bits(self, toy_radar, toy_mask, toy_sampling,
                                         monkeypatch, elevations, blades, mode, ends):
        # 130 positions leave a 30-row tail after the last restart; 16-column
        # blocks, and with three elevations some are folded and some not
        monkeypatch.setattr(propagation, "_SCENE_BLOCK_BYTES",
                            16 * 16 * toy_sampling.n_samples)
        grid = build_scene_grid(2.0, -20.0, 30.0, 1.0, elevations)
        rot = RotationSampling(130)
        mask = replace(toy_mask, mode=mode, blade_count=blades, attenuation_db=20.0)
        trans = transmission_for(mask, rot, toy_sampling)
        results = []
        threads = set(threading.enumerate())
        for workers in (1, 2, 3):
            monkeypatch.setattr(propagation, "_worker_count", lambda: workers)
            results.append(assemble_oneway(toy_radar, grid, mask, rot, toy_sampling,
                                           ends, trans))
            assert set(threading.enumerate()) == threads
        for matrices in results[1:]:
            for got, ref in zip(matrices, results[0]):
                assert np.array_equal(got, ref)

    def test_more_workers_than_cores_with_a_short_switch_interval(
            self, toy_radar, toy_mask, toy_rotation, toy_sampling, monkeypatch):
        # workers share the block and the outputs, each writing its own rows;
        # frequent thread switches would expose a range written twice or not
        # at all
        monkeypatch.setattr(propagation, "_SCENE_BLOCK_BYTES",
                            16 * 16 * toy_sampling.n_samples)
        grid = build_scene_grid(2.0, -20.0, 30.0, 1.0, [-5.0, 0.0, 5.0])
        mask = replace(toy_mask, blade_count=2, attenuation_db=20.0)
        trans = transmission_for(mask, toy_rotation, toy_sampling)
        args = (toy_radar, grid, mask, toy_rotation, toy_sampling, ("tx", "rx"), trans)
        monkeypatch.setattr(propagation, "_worker_count", lambda: 1)
        ref = assemble_oneway(*args)
        monkeypatch.setattr(propagation, "_worker_count", lambda: 4 * os.cpu_count())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = assemble_oneway(*args)
        finally:
            sys.setswitchinterval(interval)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("elevation", [-90.0, 90.0])
    def test_singular_point_reported_at_every_worker_count(self, monkeypatch,
                                                           workers, elevation):
        # the quarter-metre lattice of TestMirrorFold: (0, +-0.25, z) sits on a
        # cell; azimuth 120 deg at elevation 0 puts a point in front of the
        # plane as well, and the lattice cell is what is reported
        monkeypatch.setattr(propagation, "_worker_count", lambda: workers)
        z = angles_to_points(0.25, [0.0], [elevation])[0, 2]
        mask = MaskGeometry(blade_length_m=0.3, blade_width_m=0.1,
                            plane_depth_m=z, axis_offset_m=0.1)
        radar = default_radar_config(mask, wavelength_m=0.5)
        samp = MaskPlaneSampling(spacing_m=0.25, extent_m=0.4, plane_depth_m=z)
        grid = build_scene_grid(0.25, 0.0, 120.0, 120.0, sorted([elevation, 0.0]))
        assert np.min(grid.points[:, 2]) < z
        rot = RotationSampling(4)
        threads = set(threading.enumerate())
        with pytest.raises(SingularityError, match="coincides"):
            assemble_oneway(radar, grid, mask, rot, samp, ("tx", "rx"),
                            transmission_for(mask, rot, samp))
        assert set(threading.enumerate()) == threads  # no worker outlives the call


class TestWorkingSet:
    """Transient memory of one B assembly on the default geometry at N=201.

    tracemalloc counts numpy's buffers, results included.  With 32-angle
    footprint blocks and 16-column kernel blocks the peaks were 7.6 MB and
    22.6 MB; the bounds are under 1.5 times that, and 128-angle dense
    footprint blocks and 64-column kernel blocks (24.1 MB and 58.7 MB)
    exceed them.
    """

    @staticmethod
    def traced_peak_mb(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_transmission_and_assembly_peaks(self):
        mask = MaskGeometry()
        radar = default_radar_config(mask)
        sampling = default_plane_sampling(radar, mask)
        rotation = RotationSampling(1000)
        trans, peak = self.traced_peak_mb(transmission_for, mask, rotation, sampling)
        assert peak < 10.0
        grid = build_scene_grid(20.0, -50.0, 50.0, 0.5, [0.0])
        assert grid.n_points == 201
        _, peak = self.traced_peak_mb(assemble_oneway, radar, grid, mask, rotation,
                                      sampling, ("tx", "rx"), trans)
        assert peak < 33.0
