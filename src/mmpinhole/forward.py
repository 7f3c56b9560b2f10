"""Sensing-matrix assembly, measurement simulation and phase effects.

The bidirectional model multiplies the Tx-side and Rx-side one-way matrices
entrywise: the wave crosses the rotating mask once on the way out and once
on the way back.  The unidirectional baseline keeps only the receive-side
matrix.

:func:`build_forward` assembles both ends whatever the directionality and
keeps the last geometry in memory: the bidirectional ``B`` and the rx end
(2 * 16 * T * N bytes).  Another call on the same inputs, of either
directionality, returns them without assembling.  The returned ``B`` is
read-only.  A call on other inputs drops the kept models before it
assembles.  Separate processes share nothing, so ``reconstruct`` in its
own process still reads the ``model.bin`` that ``simulate`` wrote.

The kept entry also holds what :func:`kept_derived` computes from either
end: the SVD that ``recon.factorize`` makes and the singular values of
``analyze svd``, once per end.  They are dropped with the models.  A model
read back from ``model.bin`` shares them only when its fingerprint names the
kept geometry and its ``B`` equals the kept array bit for bit.  The
``mmpinhole.forward`` logger writes one DEBUG line per hit and miss of the
kept models and of the derived results.

A model's fingerprint hashes the config fields, the transmission's content
and :data:`MODEL_EPOCH`, which a change that moves ``B`` with no input
changed must bump; a canary test pins ``B``'s sha256 on a toy geometry.
A transmission of ``None`` means the mask mode's own, which
:func:`~mmpinhole.mask.transmission_for` derives from config fields alone.
Its digest is kept with those fields, so a later call on them derives no
transmission to hash, and one to assemble only when no model is kept.  A
passed transmission is hashed itself and never kept.
"""

from __future__ import annotations

import hashlib
import logging
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import EstimationError, NumericError, ParameterError, ShapeError
from .geometry import (MaskGeometry, MaskPlaneSampling, RadarConfig,
                       RotationSampling, SceneGrid)
from .mask import MaskTransmission, transmission_for
from .propagation import _check_lattice, _check_transmission_shape, assemble_oneway

DEFAULT_ROTATION_RPM = 600.0
CAL_NULL_REL_THRESHOLD = 0.5
# Hashed into every fingerprint: bump it when a change moves B's bits with no
# input changed (the canary in tests/test_forward.py fails until then).
MODEL_EPOCH = 1

_log = logging.getLogger(__name__)


def sample_interval_s(rpm: float, positions_per_rotation: int) -> float:
    """Time between rotation positions (600 rpm, 1000 positions -> 100 us)."""
    if rpm <= 0 or positions_per_rotation <= 0:
        raise ParameterError("rpm and positions_per_rotation must be positive")
    return 60.0 / (rpm * positions_per_rotation)


def _transmission_digest(transmission: MaskTransmission) -> str:
    """Digest of the transmission's amplitudes and footprint rows."""
    h = hashlib.sha256(repr((transmission.inside_amp, transmission.outside_amp)).encode())
    rows = transmission.footprint_indices
    h.update(np.array([row.size for row in rows], dtype=np.int64).tobytes())
    # row by row: the same bytes as the concatenated rows, without the copy
    for row in rows:
        h.update(row.astype(np.int64, copy=False).tobytes())
    return h.hexdigest()


# (config fields, digest of the mask mode's transmission on them): the key of
# that transmission, one tuple replaced by one assignment like _memo below
_mode_digest = None


def _geometry_key(radar: RadarConfig, grid: SceneGrid, mask: MaskGeometry,
                  rotation: RotationSampling, plane_sampling: MaskPlaneSampling,
                  transmission: Optional[MaskTransmission]) -> tuple:
    """Every input that shapes the sensing matrix but its directionality.

    The fields as text and the transmission's digest; the antenna pattern
    follows from radar and lattice fields among them.  Nothing here is
    computed in floating point, so no input can overflow it.  A lattice that
    assembly rejects raises its ``ParameterError``, and a transmission of the
    wrong shape ``ShapeError``, as assembly would.  Returns the key and the
    transmission digested, None where the kept digest served.
    """
    global _mode_digest
    _check_lattice(radar, mask, plane_sampling)
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
    ]
    fields = "|".join(parts)
    if transmission is None:
        kept = _mode_digest
        if kept is not None and kept[0] == fields:
            return kept, None
        # transmission_for reads only mask, angle and lattice fields, all in
        # ``fields``: its digest is a function of them
        transmission = transmission_for(mask, rotation, plane_sampling)
        key = _mode_digest = (fields, _transmission_digest(transmission))
        return key, transmission
    _check_transmission_shape(transmission, rotation, plane_sampling)
    return (fields, _transmission_digest(transmission)), transmission


def _fingerprint(key: tuple, directionality: str) -> str:
    """Fingerprint of the model that ``key`` and ``directionality`` name."""
    if directionality not in ("unidirectional", "bidirectional"):
        raise ParameterError("directionality must be 'unidirectional' or 'bidirectional'")
    fields, transmission = key
    text = f"{MODEL_EPOCH}|{fields}|{directionality}|{transmission}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def config_fingerprint(radar: RadarConfig, grid: SceneGrid, mask: MaskGeometry,
                       rotation: RotationSampling, plane_sampling: MaskPlaneSampling,
                       directionality: str,
                       transmission: Optional[MaskTransmission]) -> str:
    """Stable hex digest of every input that shapes the sensing matrix.

    It hashes the config fields, the transmission's content and
    :data:`MODEL_EPOCH`, the version of the code that turns them into ``B``.
    A ``transmission`` of None means the mask mode's own, as in
    :func:`build_forward`: the same fingerprint as passing
    ``transmission_for(mask, rotation, plane_sampling)``.
    """
    key, _ = _geometry_key(radar, grid, mask, rotation, plane_sampling, transmission)
    return _fingerprint(key, directionality)


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


# The last geometry assembled: (key, bidirectional B, rx end, derived), one
# tuple replaced by one assignment, so no thread pairs a key with another's
# arrays.  ``derived`` maps (name, directionality) to a result computed from
# that end's B (see kept_derived); it goes with the tuple.
_memo = None


def build_forward(radar: RadarConfig, grid: SceneGrid, mask: MaskGeometry,
                  rotation: RotationSampling, plane_sampling: MaskPlaneSampling,
                  directionality: str = "bidirectional",
                  transmission: Optional[MaskTransmission] = None) -> ForwardModel:
    """Assemble the sensing matrix for the configured mask mode.

    A custom transmission map overrides the mask mode when supplied (used
    for background/open references and synthetic studies).  The models of
    the last geometry are kept, so the same call again assembles nothing
    (see the module docstring); ``B`` is read-only.
    """
    global _memo
    key, transmission = _geometry_key(radar, grid, mask, rotation, plane_sampling,
                                      transmission)
    fingerprint = _fingerprint(key, directionality)
    memo = _memo
    hit = memo is not None and memo[0] == key
    _log.debug("model %s (%s): kept model %s", fingerprint, directionality,
               "hit" if hit else "miss, assembling")
    if not hit:
        # drop the old models first: two geometries are never held at once
        _memo = memo = None
        if transmission is None:  # the kept digest named it
            transmission = transmission_for(mask, rotation, plane_sampling)
        bi, rx = assemble_oneway(radar, grid, mask, rotation, plane_sampling, transmission)
        bi *= rx  # tx * rx in the tx end's storage
        bi.flags.writeable = rx.flags.writeable = False
        memo = _memo = (key, bi, rx, {})
    _, bi, rx, _ = memo
    return ForwardModel(B=bi if directionality == "bidirectional" else rx,
                        fingerprint=fingerprint,
                        directionality=directionality, grid=grid)


def kept_derived(model: ForwardModel, name: str, compute):
    """``compute(model)``, kept with the kept geometry when ``model`` is of it.

    ``model`` is of the kept geometry when its ``B`` is a kept array, or when
    its fingerprint names the kept geometry and its ``B`` equals the kept
    array of its directionality bit for bit (a ``model.bin`` read back).  The
    result is then kept under ``(name, directionality)`` and returned again
    until another geometry is assembled, which drops it with the models.  For
    any other model it is computed and nothing is kept.
    """
    memo = _memo
    end = None
    if memo is not None:
        key, bi, rx, derived = memo
        B = model.B
        if B is bi or B is rx:
            end = "bidirectional" if B is bi else "unidirectional"
        elif model.fingerprint == _fingerprint(key, model.directionality):
            kept = bi if model.directionality == "bidirectional" else rx
            if (B.dtype == kept.dtype and B.shape == kept.shape
                    and np.array_equal(np.ascontiguousarray(B).view(np.uint64),
                                       kept.view(np.uint64))):
                end = model.directionality
    if end is None:
        _log.debug("%s of model %s: not a kept model, computed", name, model.fingerprint)
        return compute(model)
    result = derived.get((name, end))
    _log.debug("%s of model %s: derived result %s", name, model.fingerprint,
               "miss" if result is None else "hit")
    if result is None:
        result = derived[name, end] = compute(model)
    return result


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
