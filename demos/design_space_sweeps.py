"""How blade geometry shapes resolution and measurement diversity.

Two clean design rules fall out of the model:

* the blade tip radius sets the synthetic-aperture circle, so a larger
  radius sharpens the point-spread function;
* a wider blade passes more energy per position, raising singular-value
  magnitudes (better noise margin) at a mild cost in spectrum flatness.

The circular- and linear-trajectory references put the numbers in context:
the 16 cm mask circle matches the resolution of moving the whole radar
around the same circle.
"""

import math
from dataclasses import astuple, fields

import mmpinhole as mp
from mmpinhole.analysis import SweepRow, sweep
from mmpinhole.container import write_csv

SWEEP_HEADER = [f.name for f in fields(SweepRow)]

mask = mp.MaskGeometry(mode="regular-pinhole")
radar = mp.default_radar_config(mask)
rotation = mp.RotationSampling(500)

print("sweeping blade tip radius (m) ...")
rows = sweep("radius", [0.04, 0.08, 0.16], mask, radar, rotation=rotation,
             directionality="bidirectional")
print(f"{'radius':>8s} {'fwhp(deg)':>10s} {'sigma_1':>10s}")
for r in rows:
    print(f"{r.value:8.2f} {r.fwhp_deg:10.3f} {r.sigma_1:10.3e}")
write_csv("sweep_radius.csv", [SWEEP_HEADER, *map(astuple, rows)])

print("\nsweeping blade width (m) at 16 cm radius ...")
grid = mp.build_scene_grid(20.0, -8, 8, 0.25, [0])
rows = sweep("width", [0.008, 0.016, 0.032], mask, radar,
             rotation=mp.RotationSampling(250), directionality="bidirectional",
             grid=grid)
print(f"{'width':>8s} {'sigma_1':>10s} {'usable':>7s}")
for r in rows:
    print(f"{r.value:8.3f} {r.sigma_1:10.3e} {r.usable_count:7d}")
write_csv("sweep_width.csv", [SWEEP_HEADER, *map(astuple, rows)])

print("\ntrajectory references over the same field of view ...")
grid = mp.build_scene_grid(20.0, -50, 50, 0.05, [0])
cfg = mp.ReconConfig(rel_threshold=1e-2)
circ = mp.sar_baseline("circular", 0.16, radar, grid, positions=720)
lin = mp.sar_baseline("linear", 0.085, radar, grid, positions=257)
f_circ = mp.psf(circ, 0.0, cfg).fwhp_deg
f_lin = mp.psf(lin, 0.0, cfg).fwhp_deg
print(f"circular trajectory, 16 cm radius: fwhp = {f_circ:.3f} deg")
print(f"linear trajectory, 8.5 cm length:  fwhp = {f_lin:.3f} deg "
      f"(classical bound {math.degrees(radar.wavelength_m / (2 * 0.085)):.3f} deg)")
print("wrote sweep_radius.csv and sweep_width.csv")
