import logging
import math

import numpy as np
import pytest

from mmpinhole import (MaskGeometry, ReconConfig, RotationSampling,
                       build_scene_grid, default_radar_config, factorize,
                       half_power_width_deg, psf, sar_baseline)
from mmpinhole.analysis import (calibrate_noise_power, chamfer, image_to_points,
                                metric_report, mse, peaks_resolved,
                                rotational_power, rpm_to_rad_s, sharpness,
                                ssim, sweep)
from mmpinhole.errors import ParameterError, UndefinedMetricError


class TestHalfPowerWidth:
    def test_gaussian_analytic_width(self):
        angles = np.linspace(-5, 5, 2001)
        sigma = 0.8
        resp = np.exp(-0.5 * (angles / sigma) ** 2)
        # amplitude 2^-1/2 at angle sigma*sqrt(ln 2)
        expected = 2 * sigma * math.sqrt(math.log(2))
        assert half_power_width_deg(angles, resp) == pytest.approx(expected, abs=0.01)

    def test_sinc_width(self):
        angles = np.linspace(-5, 5, 4001)
        null = 1.5
        resp = np.abs(np.sinc(angles / null))
        assert half_power_width_deg(angles, resp) == pytest.approx(0.886 * null, abs=0.01)


@pytest.fixture(scope="module")
def psf_grid():
    return build_scene_grid(20.0, -8, 8, 0.05, [0])


@pytest.fixture(scope="module")
def full_grid():
    # classical-bound checks use the full field of view: narrow grid windows
    # let evanescent modes below the spectral plateau over-resolve the
    # noiseless projection
    return build_scene_grid(20.0, -50, 50, 0.05, [0])


class TestSarBaseline:
    def test_linear_aperture_classical_bound(self, full_grid):
        radar = default_radar_config(MaskGeometry())
        L = 0.085
        model = sar_baseline("linear", L, radar, full_grid, positions=257)
        curve = psf(model, 0.0, ReconConfig(rel_threshold=1e-2))
        bound = math.degrees(radar.wavelength_m / (2 * L))
        assert abs(curve.fwhp_deg - bound) / bound < 0.15

    def test_doubling_length_halves_width(self, full_grid):
        radar = default_radar_config(MaskGeometry())
        f = {}
        for L in (0.04, 0.08):
            model = sar_baseline("linear", L, radar, full_grid, positions=257)
            f[L] = psf(model, 0.0, ReconConfig(rel_threshold=1e-2)).fwhp_deg
        assert f[0.08] == pytest.approx(f[0.04] / 2, rel=0.1)

    def test_vanishing_circle_loses_resolution(self):
        radar = default_radar_config(MaskGeometry())
        grid = build_scene_grid(20.0, -8, 8, 0.5, [0])
        model = sar_baseline("circular", 1e-6, radar, grid, positions=64)
        curve = psf(model, 0.0, ReconConfig(sigma_max=1))
        window = grid.azimuth_deg[-1] - grid.azimuth_deg[0]
        assert curve.fwhp_deg > 0.8 * window

    def test_psf_target_outside_grid(self, psf_grid):
        radar = default_radar_config(MaskGeometry())
        model = sar_baseline("linear", 0.05, radar, psf_grid, positions=65)
        with pytest.raises(ParameterError):
            psf(model, 45.0)

    def test_fwhp_symmetric_under_reflection(self, psf_grid):
        radar = default_radar_config(MaskGeometry())
        model = sar_baseline("linear", 0.06, radar, psf_grid, positions=257)
        fact = factorize(model)
        cfg = ReconConfig(rel_threshold=1e-2)
        f_pos = psf(model, 4.0, cfg, fact=fact).fwhp_deg
        f_neg = psf(model, -4.0, cfg, fact=fact).fwhp_deg
        assert abs(f_pos - f_neg) < 0.05  # grid step


class TestSweep:
    def test_radius_sweep_improves_resolution(self):
        mask = MaskGeometry(mode="regular-pinhole")
        rows = sweep("radius", [0.04, 0.08, 0.16], mask, default_radar_config(mask),
                     rotation=RotationSampling(500), directionality="bidirectional")
        fwhp = [r.fwhp_deg for r in rows]
        assert len(rows) == 3
        assert fwhp[0] > fwhp[1] > fwhp[2]

    def test_width_sweep_raises_singular_values(self):
        mask = MaskGeometry(mode="regular-pinhole")
        grid = build_scene_grid(20.0, -8, 8, 0.25, [0])
        rows = sweep("width", [0.008, 0.016, 0.032], mask, default_radar_config(mask),
                     rotation=RotationSampling(250), directionality="bidirectional",
                     grid=grid)
        sig1 = [r.sigma_1 for r in rows]
        assert sig1[0] < sig1[1] < sig1[2]

    def test_infeasible_width_skipped(self, caplog):
        mask = MaskGeometry(mode="regular-pinhole")
        grid = build_scene_grid(20.0, -8, 8, 0.5, [0])
        with caplog.at_level(logging.WARNING, logger="mmpinhole"):
            rows = sweep("width", [0.5, mask.blade_width_m], mask,
                         default_radar_config(mask), rotation=RotationSampling(64),
                         directionality="bidirectional", grid=grid)
        assert [row.value for row in rows] == [mask.blade_width_m]
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("mmpinhole.analysis", logging.WARNING)]
        assert caplog.records[0].getMessage().startswith("skipping width=0.5: ")

    def test_non_integral_blade_count_skipped(self, caplog):
        mask = MaskGeometry(mode="regular-pinhole")
        grid = build_scene_grid(20.0, -8, 8, 0.5, [0])
        with caplog.at_level(logging.WARNING, logger="mmpinhole"):
            rows = sweep("blades", [1.7, 1], mask, default_radar_config(mask),
                         rotation=RotationSampling(64), directionality="bidirectional",
                         grid=grid)
        assert [row.value for row in rows] == [1.0]
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "skipping blades=1.7"]

    def test_all_infeasible_values_raise(self, caplog):
        with caplog.at_level(logging.WARNING, logger="mmpinhole"), \
                pytest.raises(ParameterError, match=r"\[0\.5, 0\.6\]"):
            sweep("width", [0.5, 0.6], MaskGeometry(), default_radar_config(MaskGeometry()),
                  rotation=RotationSampling(64), directionality="bidirectional")
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "skipping width=0.5", "skipping width=0.6"]

    def test_unknown_parameter(self):
        with pytest.raises(ParameterError):
            sweep("mass", [1.0], MaskGeometry(), default_radar_config(MaskGeometry()),
                  rotation=RotationSampling(64), directionality="bidirectional")


class TestSharpness:
    def test_identical_images(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (4, 64))
        assert sharpness(img, img) == pytest.approx(1.0)

    def test_constant_azimuth_rows_zero(self):
        ref = np.random.default_rng(1).uniform(0.1, 1, (4, 64))
        flat = np.outer(np.linspace(0.2, 1, 4), np.ones(64))
        assert sharpness(flat, ref) == pytest.approx(0.0, abs=1e-12)

    def test_blurred_gaussian_less_sharp(self):
        az = np.linspace(-10, 10, 201)
        narrow = np.exp(-0.5 * (az / 0.5) ** 2)[None, :]
        wide = np.exp(-0.5 * (az / 1.0) ** 2)[None, :]
        assert sharpness(wide, narrow) < 1.0

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        a, b = rng.uniform(0, 1, (2, 3, 48))
        assert sharpness(3.7 * a, 3.7 * b) == pytest.approx(sharpness(a, b))

    def test_zero_reference(self):
        with pytest.raises(UndefinedMetricError):
            sharpness(np.ones((2, 16)), np.ones((2, 16)))


class TestMse:
    def test_identical_zero(self):
        img = np.random.default_rng(3).uniform(0.02, 1, (2, 30))
        assert mse(img, img) == 0.0

    def test_constant_offset_closed_form(self):
        ref = np.full((1, 50), 0.5)
        img = ref + 0.03
        assert mse(img, ref) == pytest.approx(1e3 * 0.03 ** 2)

    def test_window_excludes_background(self):
        ref = np.zeros((1, 10))
        ref[0, 3] = 0.5
        img = ref + 1.0  # error everywhere, but only one pixel in window
        assert mse(img, ref) == pytest.approx(1e3 * 1.0)

    def test_empty_window(self):
        with pytest.raises(UndefinedMetricError):
            mse(np.ones((1, 5)), np.zeros((1, 5)))


class TestSsim:
    def _pattern(self):
        rng = np.random.default_rng(5)
        base = rng.uniform(0, 1, (32, 32))
        from scipy.ndimage import uniform_filter
        return uniform_filter(base, 4)

    def test_identical_unity(self):
        img = self._pattern()
        assert ssim(img, img) == pytest.approx(1.0)

    def test_contrast_inversion_low(self):
        img = self._pattern()
        assert ssim(img.max() - img, img) < 0.3

    def test_small_noise_high(self):
        img = self._pattern()
        noisy = img + np.random.default_rng(6).normal(0, 0.01, img.shape)
        assert ssim(noisy, img) > 0.9

    def test_small_image_rejected(self):
        with pytest.raises(ParameterError):
            ssim(np.ones((4, 4)), np.ones((4, 4)))


class TestChamfer:
    def test_identical_zero(self):
        pts = np.random.default_rng(7).uniform(0, 1, (20, 2))
        assert chamfer(pts, pts) == 0.0

    def test_uniform_offset(self):
        pts = np.random.default_rng(8).uniform(0, 1, (15, 2))
        # offset smaller than half the minimum pair distance keeps the
        # nearest-neighbor matching intact
        delta = 1e-3
        shifted = pts + [delta, 0.0]
        assert chamfer(pts, shifted) == pytest.approx(delta, rel=1e-6)

    def test_single_points_one_meter(self):
        assert chamfer([[0.0, 0.0]], [[1.0, 0.0]]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            chamfer(np.empty((0, 2)), [[0.0, 0.0]])

    def test_image_thresholding(self):
        grid = build_scene_grid(10.0, -5, 5, 1.0, [0])
        img = np.zeros((1, grid.n_azimuth))
        img[0, 5] = 1.0
        img[0, 7] = 0.6
        img[0, 2] = 0.1  # below half peak
        pts = image_to_points(img, grid)
        assert pts.shape == (2, 2)


class TestRotationalPower:
    def test_rotating_mask_case(self):
        p = rotational_power(0.010, 0.16, rpm_to_rad_s(600))
        assert p == pytest.approx(0.986, abs=0.001)

    def test_spinning_radar_case(self):
        p = rotational_power(0.120, 0.0225, rpm_to_rad_s(600))
        assert p == pytest.approx(1.664, abs=0.001)
        assert rotational_power(0.010, 0.16, rpm_to_rad_s(600)) < p

    def test_zero_mass(self):
        assert rotational_power(0.0, 0.16, 10.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            rotational_power(-1.0, 0.1, 1.0)


class TestPeaksResolved:
    def test_clearly_separated(self):
        az = np.linspace(-10, 10, 401)
        inten = (np.exp(-0.5 * ((az + 2) / 0.5) ** 2)
                 + np.exp(-0.5 * ((az - 2) / 0.5) ** 2))
        assert peaks_resolved(az, inten, -2.0, 2.0)

    def test_merged_pair(self):
        az = np.linspace(-10, 10, 401)
        inten = (np.exp(-0.5 * ((az + 0.3) / 0.5) ** 2)
                 + np.exp(-0.5 * ((az - 0.3) / 0.5) ** 2))
        assert not peaks_resolved(az, inten, -0.3, 0.3)

    def test_peak_must_match_target(self):
        az = np.linspace(-10, 10, 401)
        inten = (np.exp(-0.5 * ((az + 5) / 0.5) ** 2)
                 + np.exp(-0.5 * ((az - 5) / 0.5) ** 2))
        assert not peaks_resolved(az, inten, -2.0, 2.0)


@pytest.fixture(scope="module")
def spectra():
    from dataclasses import replace
    from scipy.linalg import svdvals
    from mmpinhole import build_forward, default_plane_sampling
    # the grid must oversample the one-way information dimension
    # (about 130 modes) for the spectral cliff to be visible
    mask = MaskGeometry(mode="regular-pinhole")
    radar = default_radar_config(mask)
    rot = RotationSampling(500)
    samp = default_plane_sampling(radar, mask)
    grid = build_scene_grid(20.0, -50, 50, 0.5, [0])
    reg = build_forward(radar, grid, mask, rot, samp, "bidirectional")
    uni = build_forward(radar, grid, mask, rot, samp, "unidirectional")
    inv = build_forward(radar, grid, replace(mask, mode="inverse-pinhole"),
                        rot, samp, "bidirectional")
    sar = sar_baseline("circular", 0.16, radar, grid, positions=500)
    return {
        "reg": svdvals(reg.B), "uni": svdvals(uni.B),
        "inv": svdvals(inv.B), "sar": svdvals(sar.B),
    }


class TestSpectrumComparisons:
    def test_bidirectional_spectrum_extends_beyond_unidirectional(self, spectra):
        # the two-way pass doubles the spatial-frequency band: the
        # bidirectional spectrum keeps usable content far past the
        # unidirectional cliff on the same grid
        from mmpinhole import numerical_rank
        r_bi = numerical_rank(spectra["reg"], rtol=1e-8)
        r_uni = numerical_rank(spectra["uni"], rtol=1e-8)
        assert r_bi > 1.3 * r_uni
        nb = spectra["reg"] / spectra["reg"][0]
        nu = spectra["uni"] / spectra["uni"][0]
        beyond = slice(r_uni, min(nb.size, r_bi))
        assert np.all(nb[beyond] > nu[beyond])

    def test_pinhole_decays_sharper_than_sar(self, spectra):
        nb = spectra["reg"] / spectra["reg"][0]
        ns = spectra["sar"] / spectra["sar"][0]
        assert nb[40] < ns[40]

    def test_inverse_usable_count_at_fixed_floor(self, spectra):
        floor = 1e-3 * spectra["reg"][0]
        usable_reg = int(np.count_nonzero(spectra["reg"] >= floor))
        usable_inv = int(np.count_nonzero(spectra["inv"] >= floor))
        assert usable_inv >= usable_reg


class TestCalibration:
    def test_noise_floor_at_usable_count(self):
        S = np.geomspace(1.0, 1e-3, 100)
        power = calibrate_noise_power(S, usable_count=40, margin=1.0)
        sigma = math.sqrt(power)
        assert np.count_nonzero(S >= sigma) == 40

    def test_bounds(self):
        with pytest.raises(ParameterError):
            calibrate_noise_power(np.ones(10), usable_count=11, margin=0.8)


class TestMetricReport:
    def test_report_fields(self):
        grid = build_scene_grid(10.0, -5, 5, 1.0, [0])
        rng = np.random.default_rng(9)
        ref = rng.uniform(0.05, 1, (1, grid.n_azimuth))
        img = ref + rng.normal(0, 0.01, ref.shape)
        rep = metric_report(img, ref, grid)
        assert rep.mse >= 0
        assert rep.ssim is None  # single-row image is below the ssim window
        assert rep.chamfer_m is not None
