"""One-way complex field transfer: antenna -> mask plane -> scene.

The field kernel is the first Rayleigh-Sommerfeld solution: every open mask
cell re-radiates the incident spherical wave weighted by ``1/(i lambda)``
and the obliquity cosine toward the destination.  Assembled matrices have
one row per rotation position and one column per scene point, with the
time-variant mask transmission folded into each row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import sparse

from .errors import ParameterError, ShapeError, SingularityError
from .geometry import (MaskGeometry, MaskPlaneSampling, RadarConfig,
                       RotationSampling, SceneGrid)

_SCENE_CHUNK = 64  # scene columns per assembly chunk, bounds transient memory


def _spherical(d, wavelength_m: float, singular_msg: str):
    """Spherical wave exp(i 2 pi d / lambda) / d over distances ``d``."""
    if np.any(d == 0.0):
        raise SingularityError(singular_msg)
    return np.exp(2j * math.pi * d / wavelength_m) / d


def greens(p, q, wavelength_m: float) -> complex:
    """Free-space spherical wave factor (1/d) * exp(i 2 pi d / lambda).

    ``p`` and ``q`` are 3-vectors in meters; broadcasting over leading
    dimensions is supported.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = np.linalg.norm(p - q, axis=-1)
    out = _spherical(d, wavelength_m, "greens is singular for coincident points")
    if out.ndim == 0:
        return complex(out)
    return out


def rs_weight(source, dest, plane_normal, wavelength_m: float):
    """Rayleigh-Sommerfeld secondary-source factor from a mask cell.

    Returns ``(1/(i lambda)) * cos(chi) * greens(source, dest)`` where chi is
    the angle between the plane normal and the source->dest direction.
    """
    source = np.asarray(source, dtype=float)
    dest = np.asarray(dest, dtype=float)
    n = np.asarray(plane_normal, dtype=float)
    n = n / np.linalg.norm(n)
    diff = dest - source
    d = np.linalg.norm(diff, axis=-1)
    g = _spherical(d, wavelength_m, "rs_weight is singular for coincident points")
    cos_chi = (diff @ n) / d
    out = (1.0 / (1j * wavelength_m)) * cos_chi * g
    if out.ndim == 0:
        return complex(out)
    return out


def _cos_power_for_half_power(half_power_deg: float) -> float:
    """Exponent p so that cos(angle)^p hits amplitude 2^-1/2 at the edge."""
    c = math.cos(math.radians(half_power_deg))
    return 0.5 * math.log(2.0) / (-math.log(c))


@dataclass(frozen=True)
class AntennaPattern:
    """Separable direction-dependent amplitude weight of the antenna.

    ``azimuth_shape`` and ``elevation_shape`` map an angle in degrees to an
    amplitude in [0, 1] with value 1 at boresight.  The default
    parameterization is cosine-power shapes fitted to half-power beamwidths.
    """

    azimuth_shape: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    elevation_shape: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    parameterization: str = "cosine-power"

    @classmethod
    def from_half_power(cls, azimuth_deg: float, elevation_deg: float) -> "AntennaPattern":
        p_az = _cos_power_for_half_power(azimuth_deg)
        p_el = _cos_power_for_half_power(elevation_deg)

        def shape(power):
            def f(angle_deg):
                a = np.radians(np.asarray(angle_deg, dtype=float))
                c = np.clip(np.cos(a), 0.0, None)
                return c ** power
            return f

        return cls(azimuth_shape=shape(p_az), elevation_shape=shape(p_el),
                   parameterization=f"cosine-power az={p_az:.4f} el={p_el:.4f}")

    @classmethod
    def from_tables(cls, az_table, el_table) -> "AntennaPattern":
        """Pattern from tabulated (angle_deg, amplitude) rows, one table per axis.

        Tables may be file paths or (K, 2) arrays; amplitudes are linearly
        interpolated and rescaled so that boresight weight is exactly 1.
        """
        def load(table):
            arr = np.loadtxt(table, dtype=float) if isinstance(table, (str, bytes)) else np.asarray(table, dtype=float)
            arr = arr.reshape(-1, 2)
            order = np.argsort(arr[:, 0])
            ang, amp = arr[order, 0], arr[order, 1]
            if np.any(amp < 0):
                raise ParameterError("tabulated pattern amplitudes must be non-negative")
            ref = np.interp(0.0, ang, amp)
            if ref <= 0:
                raise ParameterError("tabulated pattern must be positive at boresight")
            amp = amp / ref

            def f(angle_deg):
                return np.interp(np.asarray(angle_deg, dtype=float), ang, amp,
                                 left=amp[0], right=amp[-1])
            return f

        return cls(azimuth_shape=load(az_table), elevation_shape=load(el_table),
                   parameterization="tabulated")


def direction_angles_deg(directions):
    """(azimuth, elevation) in degrees for an (..., 3) array of directions."""
    v = np.asarray(directions, dtype=float)
    az = np.degrees(np.arctan2(v[..., 0], v[..., 2]))
    el = np.degrees(np.arctan2(v[..., 1], np.hypot(v[..., 0], v[..., 2])))
    return az, el


def pattern_weight(pattern: AntennaPattern, direction) -> np.ndarray:
    """Amplitude weight of the pattern along unit direction(s)."""
    az, el = direction_angles_deg(direction)
    w = pattern.azimuth_shape(az) * pattern.elevation_shape(el)
    if np.ndim(w) == 0:
        return float(w)
    return w


@dataclass(frozen=True)
class PropagationMatrix:
    """One-way transfer matrix, (rotation positions) x (scene points).

    Each row already contains the per-position mask transmission, so the
    matrix realizes the product of the blocking operator with free-space
    propagation for one direction of travel.
    """

    entries: np.ndarray
    direction: str  # "tx-to-scene" | "scene-to-rx"

    def __post_init__(self):
        if self.direction not in ("tx-to-scene", "scene-to-rx"):
            raise ParameterError(f"unknown direction {self.direction!r}")
        if not np.all(np.isfinite(self.entries)):
            raise ParameterError("propagation matrix entries must be finite")

    @property
    def shape(self):
        return self.entries.shape


def _antenna_to_plane(radar: RadarConfig, antenna_pos, plane_pts, pattern):
    """Per-cell illumination: pattern * greens from the antenna to each cell."""
    diff = plane_pts - antenna_pos[None, :]
    d = np.linalg.norm(diff, axis=1)
    g = _spherical(d, radar.wavelength_m, "antenna lies on the mask plane sample lattice")
    w = pattern_weight(pattern, diff / d[:, None])
    return w * g


def _plane_to_scene_chunk(plane_pts, scene_pts, wavelength_m):
    """Rayleigh-Sommerfeld factors from every cell to a chunk of scene points."""
    # squared distances via the dot-product expansion to avoid an (M, N, 3) temp
    d2 = (np.sum(plane_pts ** 2, axis=1)[:, None]
          + np.sum(scene_pts ** 2, axis=1)[None, :]
          - 2.0 * plane_pts @ scene_pts.T)
    d = np.sqrt(np.maximum(d2, 0.0))
    out = _spherical(d, wavelength_m, "scene point coincides with a mask-plane sample")
    # obliquity cosine for the +z plane normal: (z_scene - z_plane) / d
    dz = scene_pts[None, :, 2] - plane_pts[:, None, 2]
    out *= dz / d
    out *= 1.0 / (1j * wavelength_m)
    return out


def assemble_oneway(radar: RadarConfig, grid: SceneGrid, mask: MaskGeometry,
                    rotation: RotationSampling, plane_sampling: MaskPlaneSampling,
                    antenna_end: str, transmission,
                    pattern: Optional[AntennaPattern] = None) -> PropagationMatrix:
    """One-way propagation matrix through the time-variant mask.

    Entry (t, j) integrates antenna illumination, per-position transmission
    and the Rayleigh-Sommerfeld secondary-source factor over the mask-plane
    lattice (midpoint rule, cell area weighting).  Accumulation is in double
    complex precision.

    Parameters
    ----------
    antenna_end : "tx" or "rx"
        Which antenna of the pair illuminates the mask plane.
    transmission : MaskTransmission
        Per-rotation-position amplitude transmission over the lattice.
    """
    if antenna_end not in ("tx", "rx"):
        raise ParameterError("antenna_end must be 'tx' or 'rx'")
    if plane_sampling.spacing_m > radar.wavelength_m / 2.0 + 1e-15:
        raise ParameterError("plane sampling pitch must be at most wavelength/2")
    if plane_sampling.extent_m + 1e-12 < mask.blade_length_m + mask.blade_width_m:
        raise ParameterError("plane sampling extent must cover the swept circle "
                             "plus one blade width")
    plane_pts = plane_sampling.samples
    M = plane_pts.shape[0]
    T = rotation.count
    N = grid.n_points
    if transmission.n_positions != T or transmission.n_samples != M:
        raise ShapeError(
            f"transmission is {transmission.n_positions}x{transmission.n_samples}, "
            f"expected {T}x{M}")

    if pattern is None:
        pattern = AntennaPattern.from_half_power(radar.azimuth_fov_deg,
                                                 radar.elevation_fov_deg)
    antenna = radar.tx if antenna_end == "tx" else radar.rx
    illum = _antenna_to_plane(radar, antenna, plane_pts, pattern)

    if transmission.explicit_values is None:
        # transmission(t, m) = outside + (inside - outside) * footprint(t, m):
        # a time-invariant open term plus a sparse footprint correction.
        rows = np.repeat(np.arange(T), [idx.size for idx in transmission.footprint_indices])
        cols = (np.concatenate(transmission.footprint_indices)
                if T > 0 else np.empty(0, dtype=int))
        fp = sparse.csr_matrix((illum[cols], (rows, cols)), shape=(T, M))
        delta = transmission.inside_amp - transmission.outside_amp

        def through_mask(prop):
            block = transmission.outside_amp * (illum @ prop)[None, :]
            return block + delta * (fp @ prop) if delta != 0.0 else block
    else:
        weighted = transmission.explicit_values * illum[None, :]

        def through_mask(prop):
            return weighted @ prop

    entries = np.empty((T, N), dtype=np.complex128)
    for start in range(0, N, _SCENE_CHUNK):
        sl = slice(start, start + _SCENE_CHUNK)
        entries[:, sl] = through_mask(
            _plane_to_scene_chunk(plane_pts, grid.points[sl], radar.wavelength_m))
    entries *= plane_sampling.cell_area
    direction = "tx-to-scene" if antenna_end == "tx" else "scene-to-rx"
    return PropagationMatrix(entries=entries, direction=direction)
