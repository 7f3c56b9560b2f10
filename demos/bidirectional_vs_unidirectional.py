"""Why the two-way mask pass doubles angular resolution.

The transmitted wave crosses the rotating mask on the way out and the echo
crosses it again on the way back, so the sensing matrix is the entrywise
product of two one-way propagation matrices.  The product doubles the phase
sensitivity to target angle, which shows up two ways:

* the singular-value spectrum keeps significant content to roughly twice
  the index of the receive-only model, and
* the point-spread function is about half as wide.

Runtime: about one minute (reduced grid).
"""

import numpy as np

import mmpinhole as mp
from mmpinhole.propagation import assemble_oneway

mask = mp.MaskGeometry(mode="regular-pinhole")
radar = mp.default_radar_config(mask)
rotation = mp.RotationSampling(1000)
sampling = mp.default_plane_sampling(radar, mask)

# fine grid around boresight for the PSF, full FoV for the spectra
grid = mp.build_scene_grid(20.0, -50, 50, 0.1, [0])
print(f"building one-way matrices: {rotation.count} rotation positions x "
      f"{grid.n_points} scene angles, {sampling.n_samples} mask cells")
trans = mp.transmission_for(mask, rotation, sampling)
tx, rx = assemble_oneway(radar, grid, mask, rotation, sampling, trans)

bi = mp.ForwardModel(B=tx * rx, fingerprint="0" * 16,
                     directionality="bidirectional", grid=grid)
uni = mp.ForwardModel(B=rx, fingerprint="1" * 16,
                      directionality="unidirectional", grid=grid)

curves = {}
spectra = {}
for name, model in (("bidirectional", bi), ("unidirectional", uni)):
    fact = mp.factorize(model)
    spectra[name] = fact.S / fact.S[0]
    curves[name] = mp.psf(model, 0.0, mp.ReconConfig(sigma_max=None), fact=fact)
    print(f"{name:15s} fwhp = {curves[name].fwhp_deg:.3f} deg, "
          f"numerical rank = {mp.numerical_rank(fact.S)}")

ratio = curves["bidirectional"].fwhp_deg / curves["unidirectional"].fwhp_deg
print(f"resolution ratio bidirectional/unidirectional = {ratio:.2f} "
      "(the two-way pass doubles resolution)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(11, 4))
    for name in spectra:
        axes[0].semilogy(spectra[name][:300], label=name)
        axes[1].plot(curves[name].angles_deg, curves[name].response, label=name)
    axes[0].set_xlabel("singular value index")
    axes[0].set_ylabel("normalized singular value")
    axes[0].legend()
    axes[1].set_xlim(-2, 2)
    axes[1].set_xlabel("azimuth (deg)")
    axes[1].set_ylabel("normalized response")
    axes[1].legend()
    fig.tight_layout()
    fig.savefig("bidirectional_vs_unidirectional.png", dpi=130)
    print("wrote bidirectional_vs_unidirectional.png")
except ImportError:
    print("matplotlib not available; skipping the figure")
