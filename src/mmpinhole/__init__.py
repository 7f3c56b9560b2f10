"""mmWave rotating-mask (inverse-pinhole) imaging toolkit.

Builds the bidirectional pass-through forward model of a rotating blade
mask in front of a single radar antenna pair, simulates noisy measurements,
reconstructs scene reflectivity by truncated-SVD inversion, and reproduces
the design-space and resolution analyses that motivate the design.
"""

from .geometry import (MaskGeometry, MaskPlaneSampling, RadarConfig,
                       RotationSampling, SceneGrid, build_scene_grid,
                       default_plane_sampling, default_radar_config)
from .propagation import AntennaPattern, assemble_oneway, pattern_weight
from .mask import (MaskTransmission, count_null_events, find_nulls,
                   null_signature, open_mask, transmission_for)
from .forward import (ForwardModel, MeasurementSet, NoiseModel, apply_blade_phase,
                      apply_doppler, build_forward, config_fingerprint,
                      estimate_blade_phase, noise_from_snr, sample_interval_s,
                      simulate)
from .recon import (ImageResult, ReconConfig, SvdFactorization, factorize,
                    numerical_rank, reconstruct)
from .analysis import (MetricReport, PsfCurve, SweepRow, calibrate_noise_power,
                       chamfer, half_power_width_deg, image_to_points,
                       metric_report, mse, peaks_resolved, psf,
                       rotational_power, rpm_to_rad_s, sar_baseline, sharpness,
                       ssim, sweep)
from .sync import (RotationSignature, WarpPath, dtw_align, resample_to_uniform,
                   synth_signature, warped_rotation_angles)

__version__ = "0.1.0"
