from dataclasses import replace

import numpy as np
import pytest

from mmpinhole import (MaskGeometry, MaskPlaneSampling, RotationSampling,
                       assemble_oneway, build_forward, build_scene_grid,
                       default_plane_sampling, default_radar_config)
from mmpinhole import mask as mask_module
from mmpinhole.errors import ParameterError
from mmpinhole.geometry import _ANGLE_CHUNK, footprint_mask_array
from mmpinhole.mask import (MaskTransmission, count_null_events, find_nulls,
                            null_signature, open_mask, transmission_for)


def regular(mask):
    return replace(mask, mode="regular-pinhole")


def inverse(mask):
    return replace(mask, mode="inverse-pinhole")


@pytest.fixture(scope="module")
def mid_setup():
    # fine enough lattice that footprints hold 100+ cells
    mask = MaskGeometry(blade_count=1, blade_length_m=0.05, blade_width_m=0.01,
                        plane_depth_m=0.04, axis_offset_m=0.03)
    radar = default_radar_config(mask, wavelength_m=4e-3)
    rot = RotationSampling(96)
    samp = default_plane_sampling(radar, mask)
    return mask, radar, rot, samp


class TestRegularPinhole:
    def test_constant_hole_area(self, mid_setup):
        mask, _, rot, samp = mid_setup
        trans = transmission_for(regular(mask), rot, samp)
        counts = np.array([idx.size for idx in trans.footprint_indices])
        expected = mask.blade_length_m * mask.blade_width_m / samp.cell_area
        assert np.all(np.abs(counts - expected) < 0.15 * expected)

    def test_opposite_angles_disjoint(self, mid_setup):
        mask, _, _, samp = mid_setup
        rot2 = RotationSampling(2)  # angles 0 and pi
        trans = transmission_for(regular(mask), rot2, samp)
        a, b = trans.footprint_indices
        overlap = np.intersect1d(a, b)
        # supports are disjoint except the shared hub at the rotation axis
        if overlap.size:
            radii = np.linalg.norm(samp.samples[overlap, :2], axis=1)
            assert radii.max() <= mask.blade_width_m / 2 + samp.spacing_m

    def test_binary_values_in_ideal_mode(self, mid_setup):
        mask, _, rot, samp = mid_setup
        values = transmission_for(regular(mask), rot, samp).values
        assert set(np.unique(values)) <= {0.0, 1.0}


class TestInversePinhole:
    @pytest.mark.parametrize("db,amp", [(30.0, 0.0316), (9.0, 0.355)])
    def test_material_leakage(self, mid_setup, db, amp):
        mask, _, rot, samp = mid_setup
        trans = transmission_for(inverse(replace(mask, attenuation_db=db)), rot, samp)
        assert trans.inside_amp == pytest.approx(amp, abs=2e-3)
        assert trans.outside_amp == 1.0

    def test_ideal_complement(self, mid_setup):
        mask, _, rot, samp = mid_setup
        reg = transmission_for(regular(mask), rot, samp).values
        inv = transmission_for(inverse(mask), rot, samp).values
        np.testing.assert_array_equal(reg + inv, np.ones_like(reg))

    def test_transmission_for_dispatch(self, mid_setup):
        mask, _, rot, samp = mid_setup
        mask = replace(mask, attenuation_db=12.0)
        leak = mask.base_attenuation_amp
        reg = transmission_for(regular(mask), rot, samp)
        inv = transmission_for(inverse(mask), rot, samp)
        assert (reg.inside_amp, reg.outside_amp) == (1.0, leak)
        assert (inv.inside_amp, inv.outside_amp) == (leak, 1.0)


class TestTransmissionType:
    @pytest.mark.parametrize("amps", [(1.5, 0.0), (1.0, -0.1), (float("nan"), 0.0)])
    def test_amplitudes_bounds_checked(self, amps):
        with pytest.raises(ParameterError):
            MaskTransmission(n_samples=3, inside_amp=amps[0],
                             outside_amp=amps[1],
                             footprint_indices=[np.empty(0, dtype=int)] * 2)


class TestFootprintIndices:
    @pytest.mark.parametrize("blades", [1, 2])
    @pytest.mark.parametrize("mode", ["regular", "inverse"])
    def test_angle_blocks_match_unchunked_reference(self, monkeypatch, mode, blades):
        mask = MaskGeometry(blade_count=blades, blade_length_m=0.024,
                            blade_width_m=0.012, plane_depth_m=0.03,
                            axis_offset_m=0.015, attenuation_db=12.0,
                            mode=f"{mode}-pinhole")
        radar = default_radar_config(mask, wavelength_m=0.04)
        samp = MaskPlaneSampling(spacing_m=0.01, extent_m=0.036, plane_depth_m=0.03)
        rot = RotationSampling(2 * _ANGLE_CHUNK + 44)
        blocks = []

        def recording(mask, angles_rad, pts_xy):
            blocks.append(np.size(angles_rad))
            return footprint_mask_array(mask, angles_rad, pts_xy)

        monkeypatch.setattr(mask_module, "footprint_mask_array", recording)
        trans = transmission_for(mask, rot, samp)
        assert max(blocks) <= _ANGLE_CHUNK and sum(blocks) == rot.count
        # one block over every angle
        ref = footprint_mask_array(mask, rot.angles_rad, samp.samples[:, :2])
        assert len(trans.footprint_indices) == rot.count
        for got, row in zip(trans.footprint_indices, ref):
            assert np.array_equal(got, np.flatnonzero(row))
        assert any(idx.size for idx in trans.footprint_indices)
        ref_trans = MaskTransmission(n_samples=samp.n_samples,
                                     inside_amp=trans.inside_amp,
                                     outside_amp=trans.outside_amp,
                                     footprint_indices=[np.flatnonzero(r) for r in ref])
        grid = build_scene_grid(2.0, -30.0, 30.0, 4.0, [0.0, 5.0])
        for directionality in ("unidirectional", "bidirectional"):
            models = [build_forward(radar, grid, mask, rot, samp, directionality,
                                    transmission=t)
                      for t in (trans, ref_trans)]
            assert np.array_equal(models[0].B, models[1].B)


class TestBackgroundSubtractionIdentity:
    def test_unidirectional_equivalence(self, toy_radar, toy_grid, toy_mask,
                                        toy_rotation, toy_sampling):
        # (1 - H) F - O F = -(H F), entrywise, for one-way propagation
        reg = transmission_for(regular(toy_mask), toy_rotation, toy_sampling)
        inv = transmission_for(inverse(toy_mask), toy_rotation, toy_sampling)
        opn = open_mask(toy_rotation, toy_sampling)
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling, ("rx",))
        HF, = assemble_oneway(*args, reg)
        IF, = assemble_oneway(*args, inv)
        OF, = assemble_oneway(*args, opn)
        residual = (IF - OF) + HF
        assert np.abs(residual).max() < 1e-12 * np.abs(OF).max()


@pytest.fixture(scope="module")
def default_models():
    # real geometry, sparse five-target grid: cheap but physical
    rot = RotationSampling(500)
    grid = build_scene_grid(20.0, -30, 30, 15.0, [0])
    mask = MaskGeometry(mode="inverse-pinhole")
    radar = default_radar_config(mask)
    samp = default_plane_sampling(radar, mask)
    return build_forward(radar, grid, mask, rot, samp, "bidirectional"), grid


class TestNullSignature:

    def test_single_blade_single_event(self, default_models):
        model, grid = default_models
        trace = null_signature(model, grid.index_of(0.0))
        timings, depths = count_null_events(trace, blade_count=1)
        assert timings.size == 1
        assert depths[0] > 6.0

    def test_null_timing_monotone_in_azimuth(self, default_models):
        model, grid = default_models
        timings = []
        for az in grid.azimuth_deg:
            trace = null_signature(model, grid.index_of(az))
            t, _ = count_null_events(trace, blade_count=1)
            assert t.size == 1
            timings.append(t[0])
        diffs = np.diff(timings)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_target_index_validated(self, default_models):
        model, _ = default_models
        with pytest.raises(ParameterError):
            null_signature(model, 10_000)


class TestAbsorberDipDepth:
    def test_single_blade_absorber_dip(self):
        # boresight target, default geometry, 30 dB one-way absorber: the
        # two-way shadow is diffraction-limited by the 4-wavelength blade
        # width crossing the first Fresnel zone; simulation gives ~12.5 dB
        rot = RotationSampling(500)
        grid = build_scene_grid(20.0, 0, 0, 1, [0])
        mask = MaskGeometry(mode="inverse-pinhole", attenuation_db=30.0)
        radar = default_radar_config(mask)
        samp = default_plane_sampling(radar, mask)
        model = build_forward(radar, grid, mask, rot, samp, "bidirectional")
        timings, depths = count_null_events(null_signature(model, 0), 1)
        assert timings.size == 1
        assert depths[0] >= 10.0


class TestFindNulls:
    def test_synthetic_dips(self):
        trace = np.ones(200)
        trace[40:45] = [0.4, 0.2, 0.1, 0.2, 0.4]
        trace[120:123] = 0.3
        idx, depths = find_nulls(trace)
        assert list(idx) == [42, 120]
        assert depths[0] == pytest.approx(20.0, abs=1e-9)

    def test_wraparound_merged(self):
        trace = np.ones(100)
        trace[:3] = 0.2
        trace[-3:] = 0.3
        idx, _ = find_nulls(trace)
        assert idx.size == 1

    def test_period_folding(self):
        # two pi-paired dips fold onto one event for a 2-blade mask
        trace = np.ones(400)
        trace[50:55] = 0.1
        trace[250:255] = 0.1
        timings, _ = count_null_events(trace, blade_count=2)
        assert timings.size == 1
        # distinct timings stay separate
        trace[120:125] = 0.2
        trace[320:325] = 0.2
        timings, _ = count_null_events(trace, blade_count=2)
        assert timings.size == 2
