"""Rotation self-synchronization from the near-range mask signature.

The spinning blade modulates the first few range bins of the radar return
with a scene-independent periodic signature.  Aligning observed signatures
against a nominal-speed template with dynamic time warping recovers the
actual rotation phase of every sample, which lets measurements taken under
motor speed wobble be resampled onto the uniform rotation grid the forward
model assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AlignmentError, InterpolationError, ParameterError
from .forward import MeasurementSet
from .geometry import (_ANGLE_CHUNK, MaskGeometry, MaskPlaneSampling,
                       RadarConfig, RotationSampling, footprint_mask_array)
from .propagation import _radar_pattern, pattern_weight


@dataclass(frozen=True)
class RotationSignature:
    """Near-range magnitude trace of the rotating mask."""

    samples: np.ndarray
    nominal_period_samples: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if np.any(s < 0):
            raise ParameterError("signature samples must be non-negative")
        object.__setattr__(self, "samples", s)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class WarpPath:
    """Monotone DTW alignment between template and observed indices."""

    pairs: np.ndarray = field(repr=False)
    cost: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.pairs, dtype=int)
        if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] == 0:
            raise ParameterError("pairs must be a non-empty (K, 2) index array")
        steps = np.diff(p, axis=0)
        if p[0, 0] != 0 or p[0, 1] != 0:
            raise ParameterError("warp path must start at (0, 0)")
        if np.any(steps < 0) or np.any(steps > 1) or np.any(steps.sum(axis=1) == 0):
            raise ParameterError("warp path steps must be (1,0), (0,1) or (1,1)")
        object.__setattr__(self, "pairs", p)


def blade_return_profile(radar: RadarConfig, mask: MaskGeometry,
                         plane_sampling: MaskPlaneSampling, angles_rad) -> np.ndarray:
    """Two-way blade backscatter magnitude at each rotation angle.

    The blade is treated as an incoherent near-field reflector: each covered
    mask cell returns power weighted by the antenna pattern squared and the
    two-way spreading loss.
    """
    pts = plane_sampling.samples
    diff = pts - radar.rx[None, :]
    d = np.linalg.norm(diff, axis=1)
    w = pattern_weight(_radar_pattern(radar), diff / d[:, None]) ** 2 / d ** 4
    out = np.empty(len(angles_rad))
    angles = np.asarray(angles_rad, dtype=float)
    for start in range(0, angles.size, _ANGLE_CHUNK):
        block = footprint_mask_array(mask, angles[start:start + _ANGLE_CHUNK], pts[:, :2])
        out[start:start + block.shape[0]] = block @ w
    return np.sqrt(out * plane_sampling.cell_area)


def synth_signature(mask: MaskGeometry, rotation: RotationSampling,
                    speed_profile_rpm, *, radar: RadarConfig,
                    plane_sampling: MaskPlaneSampling) -> RotationSignature:
    """Simulated near-range signature under a per-sample rpm profile.

    Rotation angles follow :func:`warped_rotation_angles`, so a constant
    profile reproduces the uniform rotation exactly.
    """
    speeds = np.asarray(speed_profile_rpm, dtype=float)
    if np.any(speeds <= 0):
        raise ParameterError("speed profile must be positive")
    T = rotation.count
    if speeds.size != T:
        raise ParameterError("speed profile length must match rotation positions")
    angles = warped_rotation_angles(rotation, speeds)
    samples = blade_return_profile(radar, mask, plane_sampling, angles)
    return RotationSignature(samples=samples, nominal_period_samples=T)


def warped_rotation_angles(rotation: RotationSampling, speed_profile_rpm) -> np.ndarray:
    """Rotation angles reached under a per-sample rpm profile.

    Angles advance by integrating the profile at the nominal sample interval
    (the speed of sample 0), so a constant profile gives uniform angles.
    """
    speeds = np.asarray(speed_profile_rpm, dtype=float)
    step = 2.0 * math.pi / rotation.count  # angle per sample at nominal speed
    increments = step * speeds / speeds[0]
    return np.concatenate([[0.0], np.cumsum(increments[:-1])])


def dtw_align(template: RotationSignature, observed: RotationSignature,
              band_fraction: float = 0.1) -> WarpPath:
    """Optimal monotone alignment under squared-difference local cost.

    The search is restricted to a Sakoe-Chiba band of ``band_fraction``
    around the length-scaled diagonal, which admits uniform stretches (e.g.
    a duplicated-sample observed sequence) while bounding pathological
    paths.
    """
    a = np.asarray(template.samples, dtype=float)
    b = np.asarray(observed.samples, dtype=float)
    if a.size == 0 or b.size == 0:
        raise AlignmentError("cannot align empty signatures")
    n, m = a.size, b.size
    scale = (m - 1) / (n - 1) if n > 1 else 1.0
    radius = max(1, int(round(band_fraction * max(n, m))))

    INF = np.inf
    acc = np.full((n, m), INF)
    diag = np.arange(n) * scale
    lo = np.maximum(0, np.ceil(diag - radius).astype(int))
    hi = np.minimum(m - 1, np.floor(diag + radius).astype(int))
    if np.any(lo > hi):
        raise AlignmentError("Sakoe-Chiba band is empty for these lengths")

    acc[0, 0:hi[0] + 1] = np.cumsum((a[0] - b[0:hi[0] + 1]) ** 2)
    for i in range(1, n):
        j0, j1 = lo[i], hi[i]
        width = j1 - j0 + 1
        local = (a[i] - b[j0:j1 + 1]) ** 2
        prev = acc[i - 1]
        best = prev[j0:j1 + 1].copy()            # step (1,0)
        diag_prev = np.full(width, INF)          # step (1,1)
        if j0 >= 1:
            diag_prev[:] = prev[j0 - 1:j1]
        else:
            diag_prev[1:] = prev[0:j1]
        np.minimum(best, diag_prev, out=best)
        base = local + best
        # step (0,1) folds in as a running minimum over the row:
        # row[j] = min_{k<=j} (base[k] + sum(local[k+1..j]))
        cum = np.cumsum(local)
        row = np.minimum.accumulate(base - cum) + cum
        acc[i, j0:j1 + 1] = row
    if not np.isfinite(acc[n - 1, m - 1]):
        raise AlignmentError("no warp path reaches the boundary inside the band")

    # traceback
    i, j = n - 1, m - 1
    pairs = [(i, j)]
    while i > 0 or j > 0:
        candidates = []
        if i > 0 and j > 0:
            candidates.append((acc[i - 1, j - 1], i - 1, j - 1))
        if i > 0:
            candidates.append((acc[i - 1, j], i - 1, j))
        if j > 0:
            candidates.append((acc[i, j - 1], i, j - 1))
        _, i, j = min(candidates, key=lambda c: c[0])
        pairs.append((i, j))
    pairs.reverse()
    return WarpPath(pairs=np.asarray(pairs, dtype=int), cost=float(acc[n - 1, m - 1]))


def path_observed_index(path: WarpPath, n_template: int) -> np.ndarray:
    """Fractional observed index matched to each template index."""
    pairs = path.pairs
    if pairs[-1, 0] != n_template - 1:
        raise InterpolationError("warp path does not cover the template span")
    sums = np.zeros(n_template)
    counts = np.zeros(n_template)
    np.add.at(sums, pairs[:, 0], pairs[:, 1].astype(float))
    np.add.at(counts, pairs[:, 0], 1.0)
    if np.any(counts == 0):
        raise InterpolationError("warp path skips template indices")
    return sums / counts


def resample_to_uniform(measurements: MeasurementSet, path: WarpPath,
                        n_template: int = None) -> MeasurementSet:
    """Re-index measurements onto the uniform rotation grid via the path.

    Complex samples are linearly interpolated at the fractional observed
    index matched to each template position.
    """
    y = measurements.y
    pairs = path.pairs
    if pairs[-1, 1] != y.size - 1:
        raise InterpolationError("warp path does not cover the measurement span")
    if n_template is None:
        n_template = pairs[-1, 0] + 1
    src = path_observed_index(path, n_template)
    base = np.arange(y.size)
    y_new = (np.interp(src, base, y.real) + 1j * np.interp(src, base, y.imag))
    return replace(measurements, y=y_new)
