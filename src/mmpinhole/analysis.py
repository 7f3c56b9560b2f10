"""Quantitative studies: point-spread curves, SAR baselines, design sweeps,
image-quality metrics and the rotation power trade-off.

Angular resolution is measured as the full width at half power (FWHP) of a
noiseless point-target reconstruction.  Two truncation conventions matter
and both appear below:

* ``sigma_max=None`` keeps every singular value above the numerical-rank
  floor, the "all singular values" setting used when comparing propagation
  physics (bidirectional vs unidirectional vs SAR parity).
* ``ReconConfig(rel_threshold=1e-2)`` truncates at the informative plateau,
  the right setting when checking classical aperture bounds, because the
  evanescent shoulder below the plateau super-resolves a noiseless
  simulation in ways no physical system can use.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .errors import ParameterError, UndefinedMetricError
from .forward import ForwardModel, build_forward
from .geometry import (MaskGeometry, RadarConfig, RotationSampling, SceneGrid,
                       build_scene_grid, default_plane_sampling,
                       default_radar_config)
from .recon import ReconConfig, factorize, reconstruct

GRAVITY_MPS2 = 9.81
PEAK_MATCH_TOL_DEG = 0.7
PEAK_DIP_DB = 3.0
SWEEP_USABLE_REL = 1e-2
SSIM_WINDOW = 8
SSIM_DYNAMIC_RANGE = 1.0
POINT_THRESHOLD_REL = 0.5

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# point-spread analysis

@dataclass(frozen=True)
class PsfCurve:
    """Normalized point-spread response along azimuth."""

    angles_deg: np.ndarray
    response: np.ndarray
    fwhp_deg: float


def half_power_width_deg(angles_deg, response) -> float:
    """Full width of the main lobe at half power (amplitude 2^-1/2).

    Crossings are located by linear interpolation on the two samples that
    straddle the half-power level on each side of the peak.
    """
    r = np.asarray(response, dtype=float)
    angles = np.asarray(angles_deg, dtype=float)
    peak = r.max()
    if peak <= 0:
        raise ParameterError("response has no positive peak")
    r = r / peak
    k = int(np.argmax(r))
    half = 2.0 ** -0.5
    i = k
    while i > 0 and r[i] > half:
        i -= 1
    if i == k:
        left = angles[0]
    else:
        left = np.interp(half, [r[i], r[i + 1]], [angles[i], angles[i + 1]])
    j = k
    while j < r.size - 1 and r[j] > half:
        j += 1
    if j == k:
        right = angles[-1]
    else:
        right = np.interp(half, [r[j], r[j - 1]], [angles[j], angles[j - 1]])
    return float(right - left)


def psf(model: ForwardModel, target_angle_deg: float,
        cfg: Optional[ReconConfig] = None, fact=None) -> PsfCurve:
    """Noiseless reconstruction of a unit point target at the given azimuth.

    The response is the peak-normalized intensity along the elevation-0 cut
    of the model's grid.  Pass a precomputed factorization to amortize the
    SVD across repeated calls.
    """
    grid = model.grid
    if not (grid.azimuth_deg[0] <= target_angle_deg <= grid.azimuth_deg[-1]):
        raise ParameterError("target angle lies outside the scene grid")
    if cfg is None:
        cfg = ReconConfig(sigma_max=None)
    if fact is None:
        fact = factorize(model)
    j = grid.index_of(target_angle_deg, 0.0)
    y = model.B[:, j]
    image = reconstruct(fact, y, cfg)
    el_row = int(np.argmin(np.abs(grid.elevation_deg)))
    response = image.intensity[el_row, :].astype(float)
    response = response / response.max()
    return PsfCurve(angles_deg=grid.azimuth_deg, response=response,
                    fwhp_deg=half_power_width_deg(grid.azimuth_deg, response))


def sar_baseline(kind: str, extent_m: float, radar: RadarConfig,
                 grid: SceneGrid, positions: int) -> ForwardModel:
    """Colocated-antenna SAR reference model over a circle or line.

    ``extent_m`` is the circle radius for ``kind="circular"`` (matching the
    swept blade-tip circle) and the total aperture length for
    ``kind="linear"``.  Entries carry the two-way spherical factor
    (1/d^2) exp(i 4 pi d / lambda).
    """
    if extent_m <= 0:
        raise ParameterError("extent_m must be positive")
    if kind == "circular":
        psi = 2.0 * math.pi * np.arange(positions) / positions
        pos = np.stack([extent_m * np.cos(psi), extent_m * np.sin(psi),
                        np.zeros(positions)], axis=1)
    elif kind == "linear":
        xs = np.linspace(-extent_m / 2.0, extent_m / 2.0, positions)
        pos = np.stack([xs, np.zeros(positions), np.zeros(positions)], axis=1)
    else:
        raise ParameterError("kind must be 'circular' or 'linear'")
    d = np.linalg.norm(grid.points[None, :, :] - pos[:, None, :], axis=2)
    B = np.exp(2j * math.pi * 2.0 * d / radar.wavelength_m) / d ** 2
    token = f"sar|{kind}|{extent_m!r}|{positions}|{radar.wavelength_m!r}|" \
            f"{grid.range_m!r}|{grid.azimuth_deg.tolist()!r}|{grid.elevation_deg.tolist()!r}"
    fp = hashlib.sha256(token.encode()).hexdigest()[:16]
    return ForwardModel(B=B, fingerprint=fp, directionality="bidirectional",
                        grid=grid)


# ---------------------------------------------------------------------------
# noise calibration and two-target resolvability

def calibrate_noise_power(S, usable_count: int = 40, margin: float = 0.8) -> float:
    """Noise variance placing the noise-equivalent cutoff at ``usable_count``.

    The noise standard deviation is ``margin`` times the singular value at
    that index, so roughly the first ``usable_count`` values stay above the
    per-mode noise level.  ``margin`` near 1 suits image-error studies;
    around 0.1 it matches the per-mode signal coefficient of a unit point
    target and suits resolution studies.
    """
    S = np.asarray(S, dtype=float)
    if not 1 <= usable_count <= S.size:
        raise ParameterError("usable_count outside the spectrum length")
    return float((margin * S[usable_count - 1]) ** 2)


def _local_maxima(v):
    return np.flatnonzero((v[1:-1] >= v[:-2]) & (v[1:-1] > v[2:])) + 1


def peaks_resolved(angles_deg, intensity, target1_deg, target2_deg) -> bool:
    """Two-point resolvability by the -3 dB dip criterion.

    Both targets must produce a local maximum within ``PEAK_MATCH_TOL_DEG``
    of their true angle and the power valley between the peaks must fall at
    least ``PEAK_DIP_DB`` below the lower peak.
    """
    power = np.asarray(intensity, dtype=float) ** 2
    peaks = _local_maxima(power)
    if peaks.size < 2:
        return False
    angles = np.asarray(angles_deg, dtype=float)
    c1 = peaks[np.abs(angles[peaks] - target1_deg) <= PEAK_MATCH_TOL_DEG]
    c2 = peaks[np.abs(angles[peaks] - target2_deg) <= PEAK_MATCH_TOL_DEG]
    if c1.size == 0 or c2.size == 0:
        return False
    p1 = c1[np.argmax(power[c1])]
    p2 = c2[np.argmax(power[c2])]
    if p1 == p2:
        return False
    lo, hi = sorted((p1, p2))
    valley = power[lo:hi + 1].min()
    return valley <= 10.0 ** (-PEAK_DIP_DB / 10.0) * min(power[p1], power[p2])


# ---------------------------------------------------------------------------
# design-space sweeps

@dataclass(frozen=True)
class SweepRow:
    value: float
    fwhp_deg: float
    sigma_1: float
    sigma_40: float
    usable_count: int


_SWEEP_FIELDS = {"width": "blade_width_m", "radius": "blade_length_m",
                 "depth": "plane_depth_m", "blades": "blade_count",
                 "attenuation": "attenuation_db"}


def sweep(parameter: str, values: Sequence, base_mask: MaskGeometry,
          radar: Optional[RadarConfig] = None, *,
          rotation: Optional[RotationSampling] = None,
          grid: Optional[SceneGrid] = None,
          directionality: str = "bidirectional") -> List[SweepRow]:
    """One (value, fwhp, spectrum summary) row per swept parameter value.

    Values the mask rejects (e.g. a blade width above the swept diameter)
    are skipped, each logged as a warning; ``ParameterError`` names them
    when no value is left.  ``usable_count`` counts singular values at or
    above ``SWEEP_USABLE_REL * sigma_1``.
    """
    if parameter not in _SWEEP_FIELDS:
        raise ParameterError(f"unknown sweep parameter {parameter!r}")
    if len(values) == 0:
        raise ParameterError("sweep needs at least one value")
    rows: List[SweepRow] = []
    skipped = []
    for value in values:
        try:
            mask = replace(base_mask, **{_SWEEP_FIELDS[parameter]: value})
        except ParameterError as exc:
            logger.warning("skipping %s=%s: %s", parameter, value, exc)
            skipped.append(value)
            continue
        r = radar if radar is not None else default_radar_config(mask)
        rot = rotation if rotation is not None else RotationSampling(1000)
        g = grid if grid is not None else build_scene_grid(20.0, -8, 8, 0.05, [0])
        sampling = default_plane_sampling(r, mask)
        model = build_forward(r, g, mask, rot, sampling, directionality)
        fact = factorize(model)
        curve = psf(model, 0.0, fact=fact)
        S = fact.S
        floor = SWEEP_USABLE_REL * S[0]
        rows.append(SweepRow(value=float(value), fwhp_deg=curve.fwhp_deg,
                             sigma_1=float(S[0]),
                             sigma_40=float(S[39]) if S.size > 39 else 0.0,
                             usable_count=int(np.count_nonzero(S >= floor))))
    if not rows:
        raise ParameterError(f"the mask rejects every {parameter} value: {skipped}")
    return rows


# ---------------------------------------------------------------------------
# image-quality metrics

@dataclass(frozen=True)
class MetricReport:
    sharpness_ratio: float
    mse: float
    ssim: Optional[float]
    chamfer_m: Optional[float]


def _as_image(img):
    arr = np.asarray(img, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ParameterError("images must be 2-D (rows x azimuth)")
    return arr


def sharpness(image, reference) -> float:
    """High-frequency azimuth content of ``image`` relative to ``reference``.

    The score of one image is the summed 2-D DFT magnitude in the zero row
    (zero frequency along the first axis) at normalized azimuth frequencies
    of at least 0.1 cycles per bin.
    """
    img = _as_image(image)
    ref = _as_image(reference)
    if img.shape != ref.shape:
        raise ParameterError("image and reference dimensions differ")

    def score(arr):
        spec = np.fft.fft2(arr)
        freqs = np.fft.fftfreq(arr.shape[1])
        return float(np.sum(np.abs(spec[0, freqs >= 0.1])))

    denom = score(ref)
    if denom == 0.0:
        raise UndefinedMetricError("reference has no high-frequency azimuth energy")
    return score(img) / denom


MSE_REPORT_SCALE = 1e3
MSE_INTENSITY_WINDOW = (0.01, 1.0)


def mse(image, reference) -> float:
    """Windowed pixel MSE, scaled by 1e3 for readable magnitudes.

    Only pixels whose reference intensity lies in ``MSE_INTENSITY_WINDOW``
    enter the mean, which keeps empty background out of the score.
    """
    img = _as_image(image)
    ref = _as_image(reference)
    if img.shape != ref.shape:
        raise ParameterError("image and reference dimensions differ")
    lo, hi = MSE_INTENSITY_WINDOW
    sel = (ref >= lo) & (ref <= hi)
    if not np.any(sel):
        raise UndefinedMetricError("no reference pixels inside the intensity window")
    return MSE_REPORT_SCALE * float(np.mean((img[sel] - ref[sel]) ** 2))


def ssim(image, reference) -> float:
    """Structural similarity with uniform ``SSIM_WINDOW`` square windows.

    Uses the standard stabilization constants C1 = (0.01 L)^2 and
    C2 = (0.03 L)^2, L = ``SSIM_DYNAMIC_RANGE``, and valid-region averaging
    of the local SSIM map.
    """
    img = _as_image(image)
    ref = _as_image(reference)
    if img.shape != ref.shape:
        raise ParameterError("image and reference dimensions differ")
    if min(img.shape) < SSIM_WINDOW:
        raise ParameterError(f"images must be at least {SSIM_WINDOW} pixels per axis")
    # imported here: scipy.ndimage adds about 0.14 s to every CLI start
    from scipy.ndimage import uniform_filter
    c1 = (0.01 * SSIM_DYNAMIC_RANGE) ** 2
    c2 = (0.03 * SSIM_DYNAMIC_RANGE) ** 2

    def filt(a):
        return uniform_filter(a, size=SSIM_WINDOW, mode="constant")

    mu_x = filt(img)
    mu_y = filt(ref)
    sxx = filt(img * img) - mu_x ** 2
    syy = filt(ref * ref) - mu_y ** 2
    sxy = filt(img * ref) - mu_x * mu_y
    ssim_map = ((2 * mu_x * mu_y + c1) * (2 * sxy + c2)
                / ((mu_x ** 2 + mu_y ** 2 + c1) * (sxx + syy + c2)))
    half = SSIM_WINDOW // 2
    valid = ssim_map[half:img.shape[0] - half or None, half:img.shape[1] - half or None]
    if valid.size == 0:
        valid = ssim_map
    return float(np.clip(np.mean(valid), -1.0, 1.0))


def image_to_points(intensity, grid: SceneGrid) -> np.ndarray:
    """Threshold an image at a fraction of its peak and return 2-D points.

    Pixels at or above ``POINT_THRESHOLD_REL`` times the peak convert to
    Cartesian (x, z) meters via their azimuth angle at the grid range.
    """
    img = _as_image(intensity)
    peak = img.max()
    if peak <= 0:
        raise UndefinedMetricError("image has no positive intensity")
    sel = img >= POINT_THRESHOLD_REL * peak
    if not np.any(sel):
        raise UndefinedMetricError("no pixels above the threshold")
    rows, cols = np.nonzero(sel)
    az = np.radians(np.asarray(grid.azimuth_deg)[cols])
    return np.stack([grid.range_m * np.sin(az), grid.range_m * np.cos(az)], axis=1)


def chamfer(points_a, points_b) -> float:
    """Symmetric mean nearest-neighbor distance between two point sets."""
    a = np.atleast_2d(np.asarray(points_a, dtype=float))
    b = np.atleast_2d(np.asarray(points_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise UndefinedMetricError("chamfer distance needs non-empty point sets")
    from scipy.spatial import cKDTree  # imported here: about 0.05 s at start-up
    d_ab = cKDTree(b).query(a)[0]
    d_ba = cKDTree(a).query(b)[0]
    return 0.5 * (float(np.mean(d_ab)) + float(np.mean(d_ba)))


def metric_report(image, reference, grid: SceneGrid) -> MetricReport:
    """All Table-style metrics at once; SSIM and chamfer when computable."""
    img = _as_image(image)
    ref = _as_image(reference)
    s = sharpness(img, ref)
    m = mse(img, ref)
    try:
        q = ssim(img, ref)
    except ParameterError:
        q = None
    try:
        c = chamfer(image_to_points(img, grid), image_to_points(ref, grid))
    except UndefinedMetricError:
        c = None
    return MetricReport(sharpness_ratio=s, mse=m, ssim=q, chamfer_m=c)


# ---------------------------------------------------------------------------
# rotation power

def rotational_power(mass_kg: float, radius_m: float, omega_rad_s: float) -> float:
    """Motor power to keep a mass spinning at radius: m g r omega."""
    if mass_kg < 0 or radius_m < 0 or omega_rad_s < 0:
        raise ParameterError("mass, radius and speed must be non-negative")
    return mass_kg * GRAVITY_MPS2 * radius_m * omega_rad_s


def rpm_to_rad_s(rpm: float) -> float:
    return rpm * 2.0 * math.pi / 60.0
