import math

import numpy as np
import pytest

from mmpinhole import (MaskGeometry, MeasurementSet, RotationSampling,
                       default_plane_sampling, default_radar_config, dtw_align,
                       resample_to_uniform, synth_signature,
                       warped_rotation_angles)
from mmpinhole.errors import AlignmentError, InterpolationError, ParameterError
from mmpinhole.sync import RotationSignature, WarpPath, path_observed_index


def _sig(samples, period=None):
    samples = np.asarray(samples, dtype=float)
    return RotationSignature(samples=samples,
                             nominal_period_samples=period or samples.size)


@pytest.fixture(scope="module")
def sig_setup():
    mask = MaskGeometry(mode="inverse-pinhole")
    radar = default_radar_config(mask)
    samp = default_plane_sampling(radar, mask)
    rot = RotationSampling(500)
    return mask, radar, samp, rot


class TestSynthSignature:
    def test_constant_speed_matches_angle_function(self, sig_setup):
        mask, radar, samp, rot = sig_setup
        sig = synth_signature(mask, rot, np.full(rot.count, 600.0),
                              radar=radar, plane_sampling=samp)
        assert len(sig) == rot.count
        assert np.all(sig.samples >= 0)
        # uniform profile reproduces the uniform rotation angles exactly
        np.testing.assert_allclose(
            warped_rotation_angles(rot, np.full(rot.count, 600.0)),
            rot.angles_rad, atol=1e-12)

    def test_two_blades_halve_the_period(self, sig_setup):
        mask, radar, samp, rot = sig_setup
        from dataclasses import replace
        twin = replace(mask, blade_count=2)
        sig = synth_signature(twin, rot, np.full(rot.count, 600.0),
                              radar=radar, plane_sampling=samp)
        half = rot.count // 2
        # exact up to lattice-boundary cells flipping under angle roundoff
        np.testing.assert_allclose(sig.samples[:half], sig.samples[half:],
                                   atol=0.01 * sig.samples.max())

    def test_speed_ramp_shrinks_cycles(self, sig_setup):
        mask, radar, samp, rot = sig_setup
        from dataclasses import replace
        twin = replace(mask, blade_count=2)
        # +10% linear ramp: the second blade pass completes in fewer samples
        speeds = 600.0 * (1.0 + 0.1 * np.arange(rot.count) / rot.count)
        angles = warped_rotation_angles(rot, speeds)
        first = int(np.searchsorted(angles, math.pi))
        second = int(np.searchsorted(angles, 2 * math.pi - angles[1])) - first
        assert second < first

    def test_positive_speeds_required(self, sig_setup):
        mask, radar, samp, rot = sig_setup
        with pytest.raises(ParameterError):
            synth_signature(mask, rot, np.zeros(rot.count), radar=radar,
                            plane_sampling=samp)


class TestDtwAlign:
    def test_identity_alignment(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(0, 1, 64)
        path = dtw_align(_sig(s), _sig(s))
        assert path.cost == 0.0
        np.testing.assert_array_equal(path.pairs[:, 0], path.pairs[:, 1])

    def test_duplicated_samples_exact_stretch(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(0, 1, 40)
        doubled = np.repeat(s, 2)
        path = dtw_align(_sig(s), _sig(doubled, period=40))
        assert path.cost == pytest.approx(0.0, abs=1e-15)
        counts = np.bincount(path.pairs[:, 0], minlength=40)
        assert np.all(counts >= 2)
        assert path.pairs[-1, 1] == 79

    def test_boundary_and_monotonicity(self):
        rng = np.random.default_rng(2)
        a, b = rng.uniform(0, 1, 50), rng.uniform(0, 1, 55)
        path = dtw_align(_sig(a), _sig(b, period=50))
        assert tuple(path.pairs[0]) == (0, 0)
        assert tuple(path.pairs[-1]) == (49, 54)
        steps = np.diff(path.pairs, axis=0)
        assert steps.min() >= 0 and steps.max() <= 1
        assert np.all(steps.sum(axis=1) >= 1)

    def test_cost_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(0, 1, 48), rng.uniform(0, 1, 48)
        assert dtw_align(_sig(a), _sig(b)).cost == pytest.approx(
            dtw_align(_sig(b), _sig(a)).cost)

    def test_zero_cost_iff_equal_up_to_repeats(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.1, 1, 32)
        assert dtw_align(_sig(a), _sig(a)).cost == 0.0
        b = a.copy()
        b[10] += 0.2
        assert dtw_align(_sig(a), _sig(b)).cost > 0.0

    def test_empty_rejected(self):
        with pytest.raises((AlignmentError, ParameterError)):
            dtw_align(_sig(np.ones(4)), _sig(np.ones(0)))

    def test_wobble_inject_recover(self, sig_setup):
        mask, radar, samp, rot = sig_setup
        T = rot.count
        speeds = 600.0 * (1.0 + 0.05 * np.sin(2 * math.pi * np.arange(T) / T + 0.7))
        template = synth_signature(mask, rot, np.full(T, 600.0), radar=radar,
                                   plane_sampling=samp)
        observed = synth_signature(mask, rot, speeds, radar=radar,
                                   plane_sampling=samp)
        path = dtw_align(template, observed)
        mapping = path_observed_index(path, T)
        true_map = np.interp(rot.angles_rad,
                             warped_rotation_angles(rot, speeds), np.arange(T))
        err = np.abs(mapping - true_map)
        assert np.median(err) <= 1.0


class TestResample:
    def test_identity_path_unchanged(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        pairs = np.stack([np.arange(32), np.arange(32)], axis=1)
        out = resample_to_uniform(MeasurementSet(y=y), WarpPath(pairs=pairs))
        np.testing.assert_allclose(out.y, y, atol=1e-15)

    def test_path_must_cover_measurements(self):
        y = np.ones(10, dtype=complex)
        pairs = np.stack([np.arange(5), np.arange(5)], axis=1)
        with pytest.raises(InterpolationError):
            resample_to_uniform(MeasurementSet(y=y), WarpPath(pairs=pairs))

    def test_warp_path_validation(self):
        with pytest.raises(ParameterError):
            WarpPath(pairs=np.array([[1, 0], [2, 1]]))  # must start at origin
        with pytest.raises(ParameterError):
            WarpPath(pairs=np.array([[0, 0], [2, 1]]))  # step too large


class TestRotationSignature:
    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            RotationSignature(samples=np.array([1.0, -0.1]),
                              nominal_period_samples=2)
