"""Sensing-matrix assembly, measurement simulation and phase effects.

The bidirectional model multiplies the Tx-side and Rx-side one-way matrices
entrywise: the wave crosses the rotating mask once on the way out and once
on the way back.  The unidirectional baseline keeps only the receive-side
matrix.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import EstimationError, NumericError, ParameterError, ShapeError
from .geometry import (MaskGeometry, MaskPlaneSampling, RadarConfig,
                       RotationSampling, SceneGrid)
from .mask import MaskTransmission, transmission_for
from .propagation import _antenna_to_plane, assemble_oneway

DEFAULT_ROTATION_RPM = 600.0
CAL_NULL_REL_THRESHOLD = 0.5


def sample_interval_s(rpm: float, positions_per_rotation: int) -> float:
    """Time between rotation positions (600 rpm, 1000 positions -> 100 us)."""
    if rpm <= 0 or positions_per_rotation <= 0:
        raise ParameterError("rpm and positions_per_rotation must be positive")
    return 60.0 / (rpm * positions_per_rotation)


def _transmission_digest(transmission: MaskTransmission) -> str:
    """Digest of the transmission's amplitudes and footprint rows."""
    h = hashlib.sha256()
    h.update(repr((transmission.n_positions, transmission.n_samples)).encode())
    rows = transmission.footprint_indices
    h.update(repr((transmission.inside_amp, transmission.outside_amp)).encode())
    h.update(np.array([row.size for row in rows], dtype=np.int64).tobytes())
    # row by row: the same bytes as the concatenated rows, without the copy
    for row in rows:
        h.update(row.astype(np.int64, copy=False).tobytes())
    return h.hexdigest()


def _pattern_digest(radar: RadarConfig, plane_sampling: MaskPlaneSampling) -> str:
    """Digest of each antenna's illumination of the mask cells.

    The antenna pattern enters ``B`` only through this illumination.
    """
    h = hashlib.sha256()
    for antenna in (radar.tx, radar.rx):
        h.update(_antenna_to_plane(radar, antenna, plane_sampling.samples).tobytes())
    return h.hexdigest()


def config_fingerprint(radar: RadarConfig, grid: SceneGrid, mask: MaskGeometry,
                       rotation: RotationSampling, plane_sampling: MaskPlaneSampling,
                       directionality: str, transmission: MaskTransmission) -> str:
    """Stable hex digest of every input that shapes the sensing matrix.

    The transmission and each antenna's illumination of the mask cells
    enter through their content.
    """
    h = hashlib.sha256()
    parts = [
        repr(radar.wavelength_m), repr(radar.tx_position), repr(radar.rx_position),
        repr(radar.azimuth_fov_deg), repr(radar.elevation_fov_deg),
        repr(grid.range_m), repr(grid.azimuth_deg.tolist()), repr(grid.elevation_deg.tolist()),
        repr(mask.blade_count), repr(mask.blade_length_m), repr(mask.blade_width_m),
        repr(mask.plane_depth_m), repr(mask.axis_offset_m), repr(mask.attenuation_db),
        mask.mode,
        repr(rotation.angles_rad.tolist()),
        repr(plane_sampling.spacing_m), repr(plane_sampling.extent_m),
        repr(plane_sampling.plane_depth_m),
        directionality,
        _transmission_digest(transmission),
        _pattern_digest(radar, plane_sampling),
    ]
    h.update("|".join(parts).encode())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class ForwardModel:
    """Sensing matrix B with provenance.

    ``B`` maps scene reflectivity to one complex measurement per rotation
    position.  The grid reference is kept so downstream consumers can map
    columns back to angles.
    """

    B: np.ndarray
    fingerprint: str
    directionality: str  # "unidirectional" | "bidirectional"
    grid: SceneGrid = field(repr=False)

    def __post_init__(self):
        if self.directionality not in ("unidirectional", "bidirectional"):
            raise ParameterError(f"unknown directionality {self.directionality!r}")
        if not np.all(np.isfinite(self.B)):
            raise NumericError("sensing matrix contains non-finite entries")

    @property
    def n_positions(self) -> int:
        return self.B.shape[0]

    @property
    def n_points(self) -> int:
        return self.B.shape[1]


def build_forward(radar: RadarConfig, grid: SceneGrid, mask: MaskGeometry,
                  rotation: RotationSampling, plane_sampling: MaskPlaneSampling,
                  directionality: str = "bidirectional",
                  transmission: Optional[MaskTransmission] = None) -> ForwardModel:
    """Assemble the sensing matrix for the configured mask mode.

    A custom transmission map overrides the mask mode when supplied (used
    for background/open references and synthetic studies).
    """
    if directionality not in ("unidirectional", "bidirectional"):
        raise ParameterError("directionality must be 'unidirectional' or 'bidirectional'")
    if transmission is None:
        transmission = transmission_for(mask, rotation, plane_sampling)
    if directionality == "unidirectional":
        B, = assemble_oneway(radar, grid, mask, rotation, plane_sampling, ("rx",),
                             transmission)
    else:
        tx, rx = assemble_oneway(radar, grid, mask, rotation, plane_sampling,
                                 ("tx", "rx"), transmission)
        B = tx * rx
    fp = config_fingerprint(radar, grid, mask, rotation, plane_sampling, directionality,
                            transmission)
    return ForwardModel(B=B, fingerprint=fp, directionality=directionality, grid=grid)


@dataclass(frozen=True)
class NoiseModel:
    """Signal-independent complex Gaussian receiver noise."""

    noise_power: float = 0.0   # variance per complex measurement sample
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.noise_power) or self.noise_power < 0:
            raise ParameterError("noise_power must be finite and non-negative")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ParameterError("seed must be a non-negative integer")

    def draw(self, n: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        scale = math.sqrt(self.noise_power / 2.0)
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def noise_from_snr(model: ForwardModel, snr_db: float, seed: int = 0) -> NoiseModel:
    """Noise power set relative to a unit-reflectivity boresight target.

    The reference signal power is the mean squared magnitude of the model
    column nearest azimuth 0 at elevation 0.
    """
    j = model.grid.index_of(0.0, 0.0)
    sig = float(np.mean(np.abs(model.B[:, j]) ** 2))
    try:
        noise_power = sig / (10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        raise ParameterError(f"snr_db={snr_db!r} puts the noise power out of "
                             "floating-point range")
    return NoiseModel(noise_power=noise_power, seed=seed)


@dataclass(frozen=True)
class MeasurementSet:
    """Complex measurement vector and the rotation speed it was taken at."""

    y: np.ndarray
    rotation_rpm: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.complex128))

    def __len__(self) -> int:
        return self.y.size


def simulate(model: ForwardModel, x, noise: NoiseModel,
             rotation_rpm: float = DEFAULT_ROTATION_RPM) -> MeasurementSet:
    """Simulate y = B x + n; deterministic for a fixed noise seed."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (model.n_points,):
        raise ShapeError(f"x must have length {model.n_points}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NumericError("scene vector x contains non-finite entries")
    y = model.B @ x
    if noise.noise_power > 0:
        y = y + noise.draw(y.size)
    return MeasurementSet(y=y, rotation_rpm=rotation_rpm)


def apply_doppler(measurements: MeasurementSet, radial_velocity_mps: float,
                  sample_interval_s: float, wavelength_m: float) -> MeasurementSet:
    """Two-way Doppler phase ramp for a radially moving scene.

    Compensation is the same call with the negated velocity; applying v then
    -v restores the input exactly.
    """
    if not math.isfinite(radial_velocity_mps):
        raise ParameterError("radial velocity must be finite")
    t = np.arange(measurements.y.size)
    ramp = np.exp(2j * math.pi * 2.0 * radial_velocity_mps * t * sample_interval_s
                  / wavelength_m)
    return replace(measurements, y=measurements.y * ramp)


def apply_blade_phase(measurements: MeasurementSet, phase_profile) -> MeasurementSet:
    """Multiply each sample by exp(i phi(t)); -phi undoes the operation."""
    phi = np.asarray(phase_profile, dtype=float)
    if phi.shape != measurements.y.shape:
        raise ShapeError("phase profile length must match the measurement vector")
    return replace(measurements, y=measurements.y * np.exp(1j * phi))


def estimate_blade_phase(y_cal: MeasurementSet, blade_count: int = 2) -> np.ndarray:
    """Systematic rotation-locked phase of a calibration point target.

    Fits the unwrapped phase with harmonics of the rotation at multiples of
    the blade count up to 2 * blade_count (plus a constant), excluding
    samples inside mask-null neighborhoods where the phase is unreliable.
    Null neighborhoods are samples below ``CAL_NULL_REL_THRESHOLD`` of the
    open level (the 90th magnitude percentile).  The result is
    2 pi / blade_count periodic by construction.
    """
    y = y_cal.y
    T = y.size
    mag = np.abs(y)
    open_level = float(np.quantile(mag, 0.9))
    valid = mag >= CAL_NULL_REL_THRESHOLD * open_level
    if np.count_nonzero(valid) <= T // 2:
        raise EstimationError("more than half of the calibration samples fall "
                              "in null neighborhoods")
    idx = np.flatnonzero(valid)
    phase = np.unwrap(np.angle(y[idx]))
    w = 2.0 * math.pi * idx / T
    harmonics = [blade_count * k for k in range(1, 3)]
    cols = [np.ones(idx.size)]
    for h in harmonics:
        cols.append(np.cos(h * w))
        cols.append(np.sin(h * w))
    A = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(A, phase, rcond=None)
    wt = 2.0 * math.pi * np.arange(T) / T
    profile = np.full(T, coef[0])
    for i, h in enumerate(harmonics):
        profile += coef[1 + 2 * i] * np.cos(h * wt) + coef[2 + 2 * i] * np.sin(h * wt)
    return profile
