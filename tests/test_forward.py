import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmpinhole import (MaskGeometry, MaskPlaneSampling, MaskTransmission,
                       MeasurementSet, NoiseModel, RotationSampling,
                       apply_blade_phase, apply_doppler, assemble_oneway,
                       build_forward, build_scene_grid, config_fingerprint,
                       default_radar_config, estimate_blade_phase,
                       noise_from_snr, sample_interval_s, simulate)
from mmpinhole import propagation
from mmpinhole.errors import (EstimationError, NumericError, ParameterError,
                              ShapeError)
from mmpinhole.mask import open_mask, transmission_for

TOY_WAVELENGTH = 0.04


@pytest.fixture(scope="module")
def toy_model(toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling):
    return build_forward(toy_radar, toy_grid, toy_mask, toy_rotation,
                         toy_sampling, "bidirectional")


class TestBuildForward:
    def test_bidirectional_is_entrywise_product(self, toy_radar, toy_grid,
                                                toy_mask, toy_rotation,
                                                toy_sampling):
        trans = open_mask(toy_rotation, toy_sampling)
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling)
        tx, = assemble_oneway(*args, ("tx",), trans)
        rx, = assemble_oneway(*args, ("rx",), trans)
        bi = build_forward(*args, "bidirectional", transmission=trans)
        uni = build_forward(*args, "unidirectional", transmission=trans)
        np.testing.assert_allclose(bi.B, tx * rx, rtol=1e-12)
        np.testing.assert_allclose(uni.B, rx, rtol=1e-12)

    def test_bidirectional_evaluates_each_kernel_chunk_once(
            self, toy_radar, toy_mask, toy_rotation, toy_sampling, monkeypatch,
            kernel_blocks):
        grid = build_scene_grid(2.0, -30.0, 30.0, 0.5, [0.0])
        monkeypatch.setattr(propagation, "_SCENE_BLOCK_BYTES",
                            64 * 16 * toy_sampling.n_samples)
        build_forward(toy_radar, grid, toy_mask, toy_rotation, toy_sampling,
                      "bidirectional")
        blocks = kernel_blocks.per_block()
        assert len(blocks) == math.ceil(grid.n_points / 64) > 1
        assert sum(width for width, _ in blocks) == grid.n_points
        # every block of this flat grid is folded: the y <= 0 half, once
        n = toy_sampling.axis_coords.size
        assert {rows for _, rows in blocks} == {(n + 1) // 2 * n}

    def test_colocated_open_mask_matches_two_way_free_space(self, toy_mask,
                                                            monkeypatch):
        # Rayleigh-Sommerfeld integral over the open plane reproduces the
        # free-space round trip (1/d^2) exp(i 4 pi d / lambda).  The phase
        # identity is sharp; the amplitude converges slowly with the window
        # size, and the antenna pattern contributes a fixed range-independent
        # factor, so entries stay proportional to the two-way kernel.
        mask = replace(toy_mask, blade_length_m=0.08, blade_width_m=0.012,
                       axis_offset_m=0.0)
        radar = default_radar_config(mask, wavelength_m=TOY_WAVELENGTH,
                                     colocated=True)
        samp = MaskPlaneSampling(spacing_m=TOY_WAVELENGTH / 8,
                                 extent_m=0.96, plane_depth_m=mask.plane_depth_m)
        rot = RotationSampling(1)
        grid = build_scene_grid(2.0, 0, 0, 1, [0])
        with monkeypatch.context() as m:
            # a flat pattern: a wide-FoV radar still tapers too much
            m.setattr(propagation, "pattern_weight",
                      lambda radar, direction: np.ones(np.shape(direction)[:-1]))
            model = build_forward(radar, grid, mask, rot, samp, "bidirectional",
                                  transmission=open_mask(rot, samp))
        entry = model.B[0, 0]
        err = math.remainder(np.angle(entry) - 4 * math.pi * 2.0 / TOY_WAVELENGTH,
                             2 * math.pi)
        assert abs(err) < 0.05
        assert abs(entry) == pytest.approx(1 / 2.0 ** 2, rel=0.15)
        # proportionality across target ranges under the default pattern
        consts = []
        for dist in (1.0, 2.0, 4.0):
            g = build_scene_grid(dist, 0, 0, 1, [0])
            m = build_forward(radar, g, mask, rot, samp, "bidirectional",
                              transmission=open_mask(rot, samp))
            consts.append(m.B[0, 0] * dist ** 2
                          * np.exp(-4j * math.pi * dist / TOY_WAVELENGTH))
        consts = np.array(consts) / consts[0]
        assert np.abs(np.abs(consts) - 1).max() < 0.03
        assert np.abs(np.angle(consts)).max() < 0.03

    def test_phase_doubling_colocated(self, toy_mask, toy_rotation, toy_sampling,
                                      toy_grid):
        radar = default_radar_config(toy_mask, wavelength_m=TOY_WAVELENGTH,
                                     colocated=True)
        trans = open_mask(toy_rotation, toy_sampling)
        args = (radar, toy_grid, toy_mask, toy_rotation, toy_sampling)
        bi = build_forward(*args, "bidirectional", transmission=trans).B
        uni = build_forward(*args, "unidirectional", transmission=trans).B
        err = np.angle(bi * np.exp(-2j * np.angle(uni)))
        assert np.abs(err).max() < 1e-9

    def test_fingerprint_tracks_inputs(self, toy_radar, toy_grid, toy_mask,
                                       toy_rotation, toy_sampling):
        fp1, fp2, fp3 = (
            config_fingerprint(toy_radar, toy_grid, mask, toy_rotation, toy_sampling,
                               "bidirectional",
                               transmission_for(mask, toy_rotation, toy_sampling))
            for mask in (toy_mask, toy_mask,
                         replace(toy_mask, blade_width_m=toy_mask.blade_width_m * 1.5)))
        assert fp1 == fp2 and len(fp1) == 16
        assert fp3 != fp1

    def test_fingerprint_covers_transmission_and_pattern(
            self, toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling):
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling, "bidirectional")
        narrow = replace(toy_radar, azimuth_fov_deg=30.0, elevation_fov_deg=10.0)
        models = [build_forward(*args),
                  build_forward(*args, transmission=open_mask(toy_rotation, toy_sampling)),
                  build_forward(narrow, *args[1:])]
        assert not np.array_equal(models[0].B, models[1].B)
        assert not np.array_equal(models[0].B, models[2].B)
        assert len({m.fingerprint for m in models}) == 3

    def test_explicit_defaults_keep_fingerprint(
            self, toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling):
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling, "bidirectional")
        default = build_forward(*args).fingerprint
        trans = transmission_for(toy_mask, toy_rotation, toy_sampling)
        explicit = build_forward(*args, transmission=trans)
        assert explicit.fingerprint == default == config_fingerprint(*args, trans)

    @settings(max_examples=30, deadline=None)
    @given(change=st.sampled_from(["drop-cell", "add-cell", "inside-amp",
                                   "outside-amp", "azimuth-fov"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_any_change_to_b_changes_fingerprint(
            self, toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling,
            change, seed):
        rng = np.random.default_rng(seed)
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling, "bidirectional")
        base = transmission_for(toy_mask, toy_rotation, toy_sampling)
        rows = list(base.footprint_indices)
        amps = {"inside_amp": base.inside_amp, "outside_amp": base.outside_amp}
        radar = toy_radar
        t = int(rng.choice([i for i, row in enumerate(rows) if row.size]))
        if change == "drop-cell":
            rows[t] = np.delete(rows[t], rng.integers(rows[t].size))
        elif change == "add-cell":
            free = np.setdiff1d(np.arange(base.n_samples), rows[t])
            rows[t] = np.sort(np.append(rows[t], rng.choice(free)))
        elif change in ("inside-amp", "outside-amp"):
            amps[change.replace("-", "_")] = float(rng.uniform(0.05, 0.95))
        elif change == "azimuth-fov":
            radar = replace(toy_radar, azimuth_fov_deg=toy_radar.azimuth_fov_deg
                            * (1.0 + rng.uniform(0.01, 0.5)))
        other = MaskTransmission(n_samples=base.n_samples, footprint_indices=rows,
                                 **amps)
        model = build_forward(radar, *args[1:], transmission=other)
        reference = build_forward(*args)
        assert not np.array_equal(model.B, reference.B)
        assert model.fingerprint != reference.fingerprint

    def test_virtual_source_phase_consistency(self, toy_mask):
        # a cell-sized pinhole swept on a circle, diffraction weighting
        # disabled: column phases follow two-way (d_antenna->hole + d_hole->
        # target) geometry
        radar = default_radar_config(toy_mask, wavelength_m=TOY_WAVELENGTH,
                                     colocated=True)
        samp = MaskPlaneSampling(spacing_m=0.01, extent_m=0.04,
                                 plane_depth_m=toy_mask.plane_depth_m)
        pts = samp.samples
        T = 16
        angles = 2 * math.pi * np.arange(T) / T
        ring = np.column_stack([0.015 * np.cos(angles), 0.015 * np.sin(angles)])
        cells = [int(np.argmin(np.linalg.norm(pts[:, :2] - c, axis=1)))
                 for c in ring]
        trans = MaskTransmission(n_samples=samp.n_samples,
                                 inside_amp=1.0, outside_amp=0.0,
                                 footprint_indices=[np.array([c]) for c in cells])
        grid = build_scene_grid(3.0, 10, 10, 1, [0])
        model = build_forward(radar, grid, toy_mask, RotationSampling(T), samp,
                              "bidirectional", transmission=trans)
        d0 = np.linalg.norm(pts[cells] - radar.tx[None, :], axis=1)
        d1 = np.linalg.norm(pts[cells] - grid.points[0][None, :], axis=1)
        expected = 2.0 * 2 * math.pi * (d0 + d1) / TOY_WAVELENGTH
        measured = np.angle(model.B[:, 0])
        err = np.array([math.remainder(m - e, 2 * math.pi)
                        for m, e in zip(measured - measured[0],
                                        expected - expected[0])])
        assert np.abs(err).max() < 0.1


class TestSimulate:
    def test_zero_scene_zero_noise(self, toy_model):
        out = simulate(toy_model, np.zeros(toy_model.n_points), NoiseModel(0.0))
        assert np.all(out.y == 0)

    def test_unit_impulse_returns_column(self, toy_model):
        x = np.zeros(toy_model.n_points)
        x[3] = 1.0
        out = simulate(toy_model, x, NoiseModel(0.0))
        np.testing.assert_array_equal(out.y, toy_model.B[:, 3])

    def test_fixed_seed_bitwise_identical(self, toy_model):
        x = np.ones(toy_model.n_points)
        a = simulate(toy_model, x, NoiseModel(1e-3, seed=42))
        b = simulate(toy_model, x, NoiseModel(1e-3, seed=42))
        np.testing.assert_array_equal(a.y, b.y)

    def test_linearity(self, toy_model):
        rng = np.random.default_rng(0)
        x1 = rng.standard_normal(toy_model.n_points) + 1j * rng.standard_normal(toy_model.n_points)
        x2 = rng.standard_normal(toy_model.n_points) + 1j * rng.standard_normal(toy_model.n_points)
        a, b = 2.5 - 1j, -0.3 + 0.7j
        lhs = simulate(toy_model, a * x1 + b * x2, NoiseModel(0.0)).y
        rhs = a * simulate(toy_model, x1, NoiseModel(0.0)).y \
            + b * simulate(toy_model, x2, NoiseModel(0.0)).y
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-16)

    def test_dimension_mismatch(self, toy_model):
        with pytest.raises(ShapeError):
            simulate(toy_model, np.zeros(toy_model.n_points + 1), NoiseModel(0.0))

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, -np.inf)])
    def test_non_finite_scene_rejected(self, toy_model, bad):
        x = np.zeros(toy_model.n_points, dtype=complex)
        x[1] = bad
        with pytest.raises(NumericError):
            simulate(toy_model, x, NoiseModel(0.0))

    @pytest.mark.parametrize("power", [np.nan, np.inf, -1e-3])
    def test_invalid_noise_power_rejected(self, power):
        with pytest.raises(ParameterError):
            NoiseModel(power)

    def test_noise_from_snr(self, toy_model):
        noise = noise_from_snr(toy_model, 20.0)
        j = toy_model.grid.index_of(0.0)
        sig = np.mean(np.abs(toy_model.B[:, j]) ** 2)
        assert noise.noise_power == pytest.approx(sig / 100.0)

    @pytest.mark.parametrize("snr_db", [-4000.0, 4000.0])
    def test_noise_from_snr_out_of_range(self, toy_model, snr_db):
        with pytest.raises(ParameterError):
            noise_from_snr(toy_model, snr_db)


class TestSampleInterval:
    def test_default_rate(self):
        assert sample_interval_s(600.0, 1000) == pytest.approx(1e-4)

    def test_validation(self):
        with pytest.raises(ParameterError):
            sample_interval_s(0.0, 1000)


class TestDoppler:
    def test_zero_velocity_identity(self):
        m = MeasurementSet(y=np.exp(1j * np.linspace(0, 5, 64)))
        out = apply_doppler(m, 0.0, 1e-4, 4e-3)
        np.testing.assert_array_equal(out.y, m.y)

    def test_half_cycle_ramp(self):
        T, dt, lam = 256, 1e-4, 4e-3
        v = lam / (4 * T * dt)
        m = MeasurementSet(y=np.ones(T, dtype=complex))
        out = apply_doppler(m, v, dt, lam)
        assert np.angle(out.y[-1]) == pytest.approx(math.pi * (T - 1) / T, rel=1e-9)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        m = MeasurementSet(y=rng.standard_normal(128) + 1j * rng.standard_normal(128))
        out = apply_doppler(apply_doppler(m, 3.7, 1e-4, 4e-3), -3.7, 1e-4, 4e-3)
        assert np.abs(out.y - m.y).max() < 1e-12


class TestBladePhase:
    def _synthetic_cal(self, T=1000, blade_count=2, phase_amp=(0.4, 0.15),
                       snr_db=None, seed=0):
        t = np.arange(T)
        w = 2 * math.pi * t / T
        mag = np.ones(T)
        for k in range(blade_count):
            center = (2 * k + 1) * T // (2 * blade_count)
            mag -= 0.92 * np.exp(-0.5 * ((t - center) / (T * 0.01)) ** 2)
        phi = phase_amp[0] * np.sin(blade_count * w + 0.3) \
            + phase_amp[1] * np.sin(2 * blade_count * w - 1.1)
        y = mag * np.exp(1j * phi)
        if snr_db is not None:
            rng = np.random.default_rng(seed)
            sigma = math.sqrt(np.mean(mag ** 2) / 10 ** (snr_db / 10) / 2)
            y = y + sigma * (rng.standard_normal(T) + 1j * rng.standard_normal(T))
        return MeasurementSet(y=y), phi

    def test_identity_when_zero_profile(self):
        m = MeasurementSet(y=np.exp(1j * np.linspace(0, 2, 50)))
        out = apply_blade_phase(m, np.zeros(50))
        np.testing.assert_array_equal(out.y, m.y)

    def test_apply_then_negate_restores(self):
        rng = np.random.default_rng(1)
        m = MeasurementSet(y=rng.standard_normal(64) + 1j * rng.standard_normal(64))
        phi = rng.uniform(-1, 1, 64)
        out = apply_blade_phase(apply_blade_phase(m, phi), -phi)
        assert np.abs(out.y - m.y).max() < 1e-12

    def test_length_mismatch(self):
        m = MeasurementSet(y=np.ones(10, dtype=complex))
        with pytest.raises(ShapeError):
            apply_blade_phase(m, np.zeros(11))

    def test_inject_recover_round_trip(self):
        cal, phi = self._synthetic_cal()
        est = estimate_blade_phase(cal, blade_count=2)
        mag = np.abs(cal.y)
        valid = mag >= 0.5 * np.median(mag)
        assert np.abs(est - phi)[valid].max() < 0.1

    def test_null_case_statistics(self):
        cal, _ = self._synthetic_cal(phase_amp=(0.0, 0.0), snr_db=30.0)
        est = estimate_blade_phase(cal, blade_count=2)
        assert np.abs(est).max() < 0.02

    def test_profile_periodicity(self):
        cal, _ = self._synthetic_cal(snr_db=25.0)
        est = estimate_blade_phase(cal, blade_count=2)
        np.testing.assert_allclose(est, np.roll(est, est.size // 2), atol=1e-9)

    def test_estimation_needs_valid_samples(self):
        y = np.full(100, 1e-6, dtype=complex)
        y[:10] = 1.0
        with pytest.raises(EstimationError):
            estimate_blade_phase(MeasurementSet(y=y), blade_count=2)

    def test_estimate_and_cancel_residual(self):
        cal, phi = self._synthetic_cal(snr_db=35.0, seed=4)
        est = estimate_blade_phase(cal, blade_count=2)
        cleaned = apply_blade_phase(cal, -est)
        mag = np.abs(cal.y)
        valid = mag >= 0.5 * np.median(mag)
        residual = np.angle(cleaned.y * np.exp(-1j * 0))[valid]
        # remove the constant component before measuring the residual spread
        residual = residual - residual.mean()
        assert residual.std() < 0.05

    def test_twin_blade_phase_spectrum_peak(self):
        cal, phi = self._synthetic_cal(phase_amp=(0.4, 0.0))
        spec = np.abs(np.fft.fft(phi))
        assert int(np.argmax(spec[1:spec.size // 2])) + 1 == 2
