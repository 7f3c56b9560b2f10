"""Moving targets and natural two-blade rotors.

Two practical effects on top of the static model:

* A radially moving target adds a two-way Doppler phase ramp across the
  rotation.  Known (or hypothesized) velocity is compensated exactly by the
  conjugate ramp before inversion.
* Stock two-blade rotors act as natural rotating blockers.  With the
  antenna on the rotation axis the mask is point-symmetric as seen from the
  antenna, so a single target returns two distinct null timings per blade
  period and a mirror ghost appears in the image.  Offsetting the antenna
  (with its narrow elevation beam) keeps only one blade in the beam at a
  time: one null timing per period, unambiguous image.
* A flexing or wobbling rotor adds a rotation-locked phase to every return.
  A calibration point target at a known angle measures it: its return,
  referenced to its model column, is fitted by harmonics of the blade
  rate, and the conjugate phase is applied before inversion.
"""

import math

import numpy as np

import mmpinhole as mp
from mmpinhole.mask import count_null_events, null_signature

rotation = mp.RotationSampling(1000)

# --- Doppler compensation -------------------------------------------------
mask = mp.MaskGeometry(mode="inverse-pinhole")
radar = mp.default_radar_config(mask)
sampling = mp.default_plane_sampling(radar, mask)
grid = mp.build_scene_grid(20.0, -50, 50, 0.5, [0])
model = mp.build_forward(radar, grid, mask, rotation, sampling, "bidirectional")
fact = mp.factorize(model)

x = np.zeros(grid.n_points, dtype=complex)
x[grid.index_of(-12.0)] = 1.0
x[grid.index_of(9.0)] = 0.8j
noise = mp.NoiseModel(mp.calibrate_noise_power(fact.S, 40, margin=0.2), seed=1)
static = mp.simulate(model, x, noise)
dt = mp.sample_interval_s(600.0, rotation.count)
v = 5.0
moving = mp.apply_doppler(static, v, dt, radar.wavelength_m)
compensated = mp.apply_doppler(moving, -v, dt, radar.wavelength_m)

cfg = mp.ReconConfig(sigma_max=40, normalize_output=True)
for name, meas in (("static", static), ("moving, uncompensated", moving),
                   ("moving, compensated", compensated)):
    img = mp.reconstruct(fact, meas.y, cfg)
    peak_az = grid.azimuth_deg[int(np.argmax(img.intensity[0]))]
    print(f"{name:22s}: strongest response at {peak_az:+.1f} deg")
print(f"(5 m/s shifts the phase by {2 * math.pi * 2 * v * dt / radar.wavelength_m:.2f} "
      "rad per sample; uncompensated inversion scatters the energy)")

# --- twin-blade ambiguity ---------------------------------------------------
print()
grid11 = mp.build_scene_grid(20.0, -50, 50, 1.0, [0])
jt = grid11.index_of(10.0)
for name, offset in (("centered antenna", 0.0), ("offset antenna", 0.12)):
    mask2 = mp.MaskGeometry(blade_count=2, axis_offset_m=offset,
                            mode="inverse-pinhole")
    radar2 = mp.default_radar_config(mask2)
    sampling2 = mp.default_plane_sampling(radar2, mask2)
    model2 = mp.build_forward(radar2, grid11, mask2, rotation, sampling2,
                              "bidirectional")
    timings, depths = count_null_events(null_signature(model2, jt), 2)
    img = mp.reconstruct(mp.factorize(model2), model2.B @ np.eye(grid11.n_points)[jt],
                         mp.ReconConfig(sigma_max=40, normalize_output=True))
    inten = img.intensity[0]
    mirror = inten[grid11.index_of(-10.0)]
    print(f"{name:17s}: {timings.size} null timing(s) per blade period, "
          f"mirror-image level {mirror:.2f}")
print("-> the offset antenna removes the twin-blade direction ambiguity")

# --- rotation-locked blade phase ---------------------------------------------
# model2 is the offset-antenna twin-blade model of the last loop pass
print()
w = rotation.angles_rad
phase = 1.2 * np.sin(2 * w + 0.3) + 0.6 * np.sin(4 * w - 1.1)
b_cal = model2.B[:, grid11.index_of(0.0)]  # calibration target at boresight
cal = mp.apply_blade_phase(mp.MeasurementSet(y=b_cal), phase)
# referenced to its model column, the calibration return keeps only the phase
estimate = mp.estimate_blade_phase(mp.MeasurementSet(y=cal.y * np.conj(b_cal)),
                                   blade_count=2)
residual = np.angle(np.exp(1j * (phase - estimate)))
print(f"blade phase: injected {np.ptp(phase):.2f} rad peak-to-peak, "
      f"estimate off by {np.max(np.abs(residual - residual.mean())):.1e} rad "
      "(after its constant)")
x2 = np.eye(grid11.n_points)[jt]
fact2 = mp.factorize(model2)
noise2 = mp.NoiseModel(mp.calibrate_noise_power(fact2.S, 40, margin=0.2), seed=2)
distorted = mp.apply_blade_phase(mp.simulate(model2, x2, noise2), phase)
cfg2 = mp.ReconConfig(sigma_max=40, normalize_output=True)
for name, meas in (("phase uncorrected", distorted),
                   ("phase removed", mp.apply_blade_phase(distorted, -estimate))):
    inten = mp.reconstruct(fact2, meas.y, cfg2).intensity[0]
    peak_az = grid11.azimuth_deg[int(np.argmax(inten))]
    mirror = inten[grid11.index_of(-10.0)]
    print(f"{name:17s}: image peak at {peak_az:+.1f} deg, "
          f"mirror-image level {mirror:.2f}")
print("-> a calibration target measures the blade phase; removing it restores the image")
