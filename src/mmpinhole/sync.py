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
# footprint_mask_array is not called here; it stays bound in this module,
# one of the lookup sites that bench/tracing.py patches
from .geometry import (MaskGeometry, MaskPlaneSampling, RadarConfig,  # noqa: F401
                       RotationSampling, footprint_mask_array, footprint_rows)
from .propagation import pattern_weight


@dataclass(frozen=True)
class RotationSignature:
    """Near-range magnitude trace of the rotating mask."""

    samples: np.ndarray
    nominal_period_samples: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if not np.all(np.isfinite(s)):
            raise ParameterError("signature samples must be finite")
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
    two-way spreading loss.  The power at each angle is the sum of the
    weights over that angle's :func:`footprint_rows` row; it agrees with the
    dense (angles, M) coverage product to 1e-14 relative.
    """
    pts = plane_sampling.samples
    diff = pts - radar.rx[None, :]
    d = np.linalg.norm(diff, axis=1)
    w = pattern_weight(radar, diff / d[:, None]) ** 2 / d ** 4
    rows = footprint_rows(mask, angles_rad, pts[:, :2])
    out = np.array([w[row].sum() for row in rows])
    return np.sqrt(out * plane_sampling.cell_area)


def synth_signature(mask: MaskGeometry, rotation: RotationSampling,
                    speed_profile_rpm, *, radar: RadarConfig,
                    plane_sampling: MaskPlaneSampling) -> RotationSignature:
    """Simulated near-range signature under a per-sample rpm profile.

    Rotation angles follow :func:`warped_rotation_angles`, so a constant
    profile reproduces the uniform rotation exactly.
    """
    angles = warped_rotation_angles(rotation, speed_profile_rpm)
    samples = blade_return_profile(radar, mask, plane_sampling, angles)
    return RotationSignature(samples=samples, nominal_period_samples=rotation.count)


def warped_rotation_angles(rotation: RotationSampling, speed_profile_rpm) -> np.ndarray:
    """Rotation angles reached under a per-sample rpm profile.

    Angles advance by integrating the profile at the nominal sample interval
    (the speed of sample 0), so a constant profile gives uniform angles.
    The profile holds one positive, finite speed per rotation position.
    """
    speeds = np.asarray(speed_profile_rpm, dtype=float)
    if not np.all(np.isfinite(speeds) & (speeds > 0)):
        raise ParameterError("speed profile must be positive and finite")
    if speeds.shape != (rotation.count,):
        raise ParameterError("speed profile length must match rotation positions")
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

    Only the band is stored.  Row i keeps the cells ``lo[i]..hi[i]`` in an
    (n, W) layout, W = max(hi - lo) + 1: the local costs, their row prefix
    sums, and the accumulated costs (with one extra column of inf).  At the
    default band and n = m = 1000 these three float64 arrays take about
    4.8 MB, where a dense n x m table takes 8 MB.  The shift
    ``lo[i] - lo[i-1]`` locates the (1,0) and (1,1) predecessors in the
    previous row; every cell outside the band reads as inf.  The traceback
    breaks ties in the order (i-1, j-1), (i-1, j), (i, j-1).
    """
    if not (math.isfinite(band_fraction) and band_fraction > 0):
        raise ParameterError("band_fraction must be positive and finite")
    a = np.asarray(template.samples, dtype=float)
    b = np.asarray(observed.samples, dtype=float)
    if a.size == 0 or b.size == 0:
        raise AlignmentError("cannot align empty signatures")
    n, m = a.size, b.size
    scale = (m - 1) / (n - 1) if n > 1 else 1.0
    radius = max(1, int(round(band_fraction * max(n, m))))

    diag = np.arange(n) * scale
    # every row's band is non-empty, lo <= hi: with radius >= 1,
    # ceil(x) - radius <= floor(x) + radius; 0 <= hi as x >= 0; and
    # ceil(x - radius) <= m - 1 as x <= m - 1 up to a rounding that radius
    # >= 1 absorbs
    lo = np.maximum(0, np.ceil(diag - radius).astype(int))
    hi = np.minimum(m - 1, np.floor(diag + radius).astype(int))
    width = hi - lo + 1
    W = int(width.max())

    # local[i, k] is the cost of cell (i, lo[i] + k); cells past hi[i] are
    # padding, and a prefix sum never reads them
    padded = np.concatenate((b, np.zeros(W - 1)))
    local = np.lib.stride_tricks.sliding_window_view(padded, W)[lo]
    np.subtract(a[:, None], local, out=local)
    np.square(local, out=local)
    cum = np.cumsum(local, axis=1)
    # accumulated cost of cell (i, j) at acc[i, j - lo[i] + 1]; column 0 and
    # the cells past hi[i] stay inf
    R = W + 1
    acc = np.full((n, R), np.inf)
    acc[0, 1:width[0] + 1] = cum[0, :width[0]]
    flat, local, cum = acc.reshape(-1), local.reshape(-1), cum.reshape(-1)
    # flat index of cell (i-1, lo[i] - 1); a shift past the previous row
    # lands on inf cells of row i, which are written only after it is read
    prev = np.arange(n - 1) * R + np.minimum(np.diff(lo), R)
    for i, w, d in zip(range(1, n), width[1:].tolist(), prev.tolist()):
        row = flat[i * R + 1:i * R + 1 + w]
        c = slice(i * W, i * W + w)
        # best[k] = min(step (1,0), step (1,1)); base = local + best
        np.minimum(flat[d + 1:d + 1 + w], flat[d:d + w], out=row)
        np.add(local[c], row, out=row)
        # step (0,1) folds in as a running minimum over the row:
        # acc[i, j] = min_{k<=j} (base[k] + sum(local[k+1..j]))
        np.subtract(row, cum[c], out=row)
        np.minimum.accumulate(row, out=row)
        np.add(row, cum[c], out=row)

    lo, hi, item = lo.tolist(), hi.tolist(), acc.item

    def at(i, j):
        return item(i, j - lo[i] + 1) if lo[i] <= j <= hi[i] else math.inf

    cost = at(n - 1, m - 1)
    if not math.isfinite(cost):
        raise AlignmentError("no warp path reaches the boundary inside the band")

    # traceback; a candidate replaces the best one only when strictly lower
    i, j = n - 1, m - 1
    pairs = [(i, j)]
    while i > 0 and j > 0:
        best, bi, bj = at(i - 1, j - 1), i - 1, j - 1
        up = at(i - 1, j)
        if up < best:
            best, bi, bj = up, i - 1, j
        if at(i, j - 1) < best:
            bi, bj = i, j - 1
        i, j = bi, bj
        pairs.append((i, j))
    # on row 0 or column 0 one step is left, straight to (0, 0)
    pairs.extend((k, 0) for k in range(i - 1, -1, -1))
    pairs.extend((0, k) for k in range(j - 1, -1, -1))
    pairs.reverse()
    return WarpPath(pairs=np.asarray(pairs, dtype=int), cost=cost)


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
