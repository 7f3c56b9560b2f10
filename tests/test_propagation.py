import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from mmpinhole import (AntennaPattern, MaskGeometry, MaskPlaneSampling,
                       MaskTransmission, RotationSampling, assemble_oneway,
                       build_forward, build_scene_grid, default_radar_config,
                       pattern_weight)
from mmpinhole import propagation
from mmpinhole.errors import ParameterError, ShapeError, SingularityError
from mmpinhole.geometry import angles_to_points, default_plane_sampling
from mmpinhole.mask import open_mask, transmission_for
from mmpinhole.propagation import (_RESTART, _SCENE_CHUNK, _antenna_to_plane,
                                   _folded_chunk, _footprint_steps,
                                   _plane_to_scene_chunk, _through_mask)

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
                                             toy_rotation, toy_sampling):
        # several scene chunks and two elevations
        grid = build_scene_grid(2.0, -30.0, 30.0, 0.5, [0.0, 5.0])
        assert grid.n_points > 2 * _SCENE_CHUNK
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
    @pytest.mark.parametrize("amps", ["mode", "partial"])
    @pytest.mark.parametrize("mode", ["regular-pinhole", "inverse-pinhole"])
    @pytest.mark.parametrize("blades", [1, 2])
    def test_assembly_matches_full_lattice_reference(self, toy_radar, toy_mask,
                                                     toy_rotation, toy_sampling,
                                                     monkeypatch, elevations,
                                                     amps, mode, blades):
        # asymmetric azimuth range; with three elevations the chunks
        # [64, 128) and [192, 256) mix elevations and [128, 192) is all 0 deg
        grid = build_scene_grid(2.0, -20.0, 30.0, 0.5, elevations)
        mask = replace(toy_mask, mode=mode, blade_count=blades, attenuation_db=20.0)
        trans = transmission_for(mask, toy_rotation, toy_sampling)
        if amps == "partial":
            # neither amplitude 0 or 1, so both the footprint and the
            # open-plane terms of the assembly carry a scale factor
            inside, outside = (0.7, 0.2) if mode == "regular-pinhole" else (0.2, 0.7)
            trans = replace(trans, inside_amp=inside, outside_amp=outside)
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


def direct_through_mask(transmission, illum, prop):
    """Reference: open term plus a direct CSR (T, M) footprint @ (M, C) product."""
    T, M = transmission.n_positions, transmission.n_samples
    rows = np.repeat(np.arange(T), [idx.size for idx in transmission.footprint_indices])
    cols = np.concatenate(transmission.footprint_indices)
    fp = sparse.csr_matrix((illum[cols], (rows, cols)), shape=(T, M))
    delta = transmission.inside_amp - transmission.outside_amp
    return transmission.outside_amp * (illum @ prop)[None, :] + delta * (fp @ prop)


def direct_forward(radar, grid, plane_sampling, transmission, directionality):
    """Reference B from the full-lattice kernel and the direct footprint product."""
    pts = plane_sampling.samples
    kernel = _plane_to_scene_chunk(pts, grid.points, radar.wavelength_m)
    pattern = AntennaPattern.from_half_power(radar.azimuth_fov_deg,
                                             radar.elevation_fov_deg)

    def end(antenna):
        illum = _antenna_to_plane(radar, antenna, pts, pattern)
        return direct_through_mask(transmission, illum, kernel) * plane_sampling.cell_area
    rx = end(radar.rx)
    return rx if directionality == "unidirectional" else end(radar.tx) * rx


@st.composite
def footprints(draw):
    """Footprint rows over M cells: empty, full, repeated, disjoint or random."""
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


class TestRowDifferenceProduct:
    @settings(max_examples=150, deadline=None)
    @given(footprints(), st.sampled_from([(1.0, 0.0), (1.0, 0.25), (0.25, 1.0),
                                          (0.0, 1.0), (1.0, 1.0)]),
           st.integers(1, _SCENE_CHUNK), st.integers(0, 2 ** 32 - 1))
    def test_matches_direct_csr_product(self, footprint, amps, n_cols, seed):
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
        got = np.broadcast_to(_through_mask(trans, steps, illum)(prop), (T, n_cols))
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
