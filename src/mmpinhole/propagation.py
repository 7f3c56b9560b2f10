"""One-way complex field transfer: antenna -> mask plane -> scene.

The field kernel is the first Rayleigh-Sommerfeld solution: every open mask
cell re-radiates the incident spherical wave weighted by ``1/(i lambda)``
and the obliquity cosine toward the destination.  Assembled matrices have
one row per rotation position and one column per scene point, with the
time-variant mask transmission folded into each row.

The plane-to-scene kernel does not depend on the antenna; only the
illumination of the mask plane does.  ``assemble_oneway`` therefore takes
a tuple of antenna ends and evaluates each kernel chunk once for all of
them, so the Tx and Rx matrices of a bidirectional model cost one kernel
pass.

The lattice is symmetric under the mirror y -> -y, and a scene point with
y = 0 sees cells (x, y) and (x, -y) at bit-equal distances.  For every
64-column chunk whose scene points all have y == 0 (every chunk of a
single-elevation-0 grid, and the chunks of any other grid that lie wholly
in its elevation-0 run) the kernel is evaluated only on the cells with
y <= 0, and each mirrored cell copies its twin's row.  Other chunks take
the full lattice.  Either way the assembled matrices carry the same bits.

The blade turns a small step between rotation positions, so footprint row
t differs from row t - 1 only along the blade's moving edges.  The footprint
product is therefore taken in row-difference form: a sparse matrix of
signed (+-1) row differences, weighted by one end's illumination, times the
kernel chunk, then a running sum down the rows.  Every ``_RESTART`` = 50
rows the sum restarts from an exact footprint row, which bounds how far
rounding can accumulate.  Cells that stay covered cancel in the sparse
subtraction and are never stored: on the default 77 GHz geometry (T=1000)
the differences hold 52,674 entries against 640,384 in the footprint with
one blade, and 105,134 against 1,279,675 with two.  The result is a
reassociation of the direct product; the stated bound against it is 1e-12
of ||B||_F and of max|B| (measured on the default geometry: at most 1.8e-15
and 7.3e-15).
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
_RESTART = 50  # footprint rows per running sum of row differences


def _spherical(d, wavelength_m: float, singular_msg: str):
    """Spherical wave exp(i 2 pi d / lambda) / d over distances ``d``."""
    if np.any(d == 0.0):
        raise SingularityError(singular_msg)
    # one complex buffer, updated in place: a kernel chunk is M x 64 entries
    out = 2j * math.pi * d
    out /= wavelength_m
    np.exp(out, out=out)
    out /= d
    return out


def _cos_power_for_half_power(half_power_deg: float) -> float:
    """Exponent p so that cos(angle)^p hits amplitude 2^-1/2 at the edge."""
    c = math.cos(math.radians(half_power_deg))
    if not 0.0 < c < 1.0:
        raise ParameterError(f"half-power angle {half_power_deg!r} deg is too "
                             "close to 0 or 90 for a cosine-power fit")
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

        return cls(azimuth_shape=shape(p_az), elevation_shape=shape(p_el))


def _radar_pattern(radar: RadarConfig) -> AntennaPattern:
    """The radar's cosine-power pattern, fitted to its half-power FoV."""
    return AntennaPattern.from_half_power(radar.azimuth_fov_deg, radar.elevation_fov_deg)


def pattern_weight(pattern: AntennaPattern, direction) -> np.ndarray:
    """Amplitude weight of the pattern along unit direction(s)."""
    v = np.asarray(direction, dtype=float)
    az = np.degrees(np.arctan2(v[..., 0], v[..., 2]))
    el = np.degrees(np.arctan2(v[..., 1], np.hypot(v[..., 0], v[..., 2])))
    w = pattern.azimuth_shape(az) * pattern.elevation_shape(el)
    if np.ndim(w) == 0:
        return float(w)
    return w


def _antenna_to_plane(radar: RadarConfig, antenna_pos, plane_pts, pattern):
    """Per-cell illumination: pattern * spherical wave from the antenna to each cell."""
    diff = plane_pts - antenna_pos[None, :]
    d = np.linalg.norm(diff, axis=1)
    g = _spherical(d, radar.wavelength_m, "antenna lies on the mask plane sample lattice")
    w = pattern_weight(pattern, diff / d[:, None])
    return w * g


def _plane_to_scene_chunk(plane_pts, scene_pts, wavelength_m):
    """Rayleigh-Sommerfeld factors from every cell to a chunk of scene points."""
    # squared distances via the dot-product expansion to avoid an (M, N, 3) temp
    d = (np.sum(plane_pts ** 2, axis=1)[:, None]
         + np.sum(scene_pts ** 2, axis=1)[None, :])
    d -= 2.0 * plane_pts @ scene_pts.T
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    out = _spherical(d, wavelength_m, "scene point coincides with a mask-plane sample")
    # obliquity cosine for the +z plane normal: (z_scene - z_plane) / d
    dz = scene_pts[None, :, 2] - plane_pts[:, None, 2]
    dz /= d
    out *= dz
    out *= 1.0 / (1j * wavelength_m)
    return out


def _folded_chunk(plane_pts, n, scene_pts, wavelength_m):
    """Kernel chunk for scene points with y = 0, evaluated on half the lattice.

    Samples run y-major over the symmetric ``axis_coords`` (``n`` per axis),
    so the cells with y <= 0 are the first (n + 1) // 2 lattice rows and the
    rows with y > 0 are their mirror twins in reverse order.  A scene point
    with y = 0 sees each twin at a bit-equal distance, so the twin rows are
    copies.
    """
    rows = _plane_to_scene_chunk(plane_pts[:(n + 1) // 2 * n], scene_pts, wavelength_m)
    rows = rows.reshape((n + 1) // 2, n, -1)
    return np.concatenate((rows, rows[-2::-1])).reshape(n * n, -1)


def _footprint_steps(footprint_indices, n_samples):
    """Signed row differences of a footprint, restarting every ``_RESTART`` rows.

    Row t holds +1 on the cells that enter the footprint at position t and
    -1 on the cells that leave it; at a restart row (t % _RESTART == 0) it
    is the footprint row itself.  Cells covered at both t - 1 and t cancel
    in the sparse subtraction and are not stored.
    """
    T = len(footprint_indices)
    t = np.arange(T)
    cols = np.concatenate(footprint_indices)
    # the footprint plus one empty row T, the predecessor of every restart row
    indptr = np.cumsum([0] + [idx.size for idx in footprint_indices] + [0])
    fp = sparse.csr_matrix((np.ones(cols.size), cols, indptr), shape=(T + 1, n_samples))
    return fp[:T] - fp[np.where(t % _RESTART == 0, T, t - 1)]


def _through_mask(transmission, steps, illum):
    """Map a kernel chunk to rows of one end's matrix: (T, M) weights @ chunk.

    ``steps`` is the :func:`_footprint_steps` pattern of the transmission,
    shared by every antenna end.
    """
    # transmission(t, m) = outside + (inside - outside) * footprint(t, m):
    # a time-invariant open term plus a sparse footprint correction, whose
    # rows are running sums of the weighted row differences
    weighted = sparse.csr_matrix((steps.data * illum[steps.indices], steps.indices,
                                  steps.indptr), shape=steps.shape)
    delta = transmission.inside_amp - transmission.outside_amp

    def through_mask(prop):
        block = transmission.outside_amp * (illum @ prop)[None, :]
        if delta == 0.0:
            return block
        rows = weighted @ prop
        for start in range(0, len(rows), _RESTART):
            run = rows[start:start + _RESTART]
            np.cumsum(run, axis=0, out=run)
        rows *= delta
        rows += block
        return rows
    return through_mask


def assemble_oneway(radar: RadarConfig, grid: SceneGrid, mask: MaskGeometry,
                    rotation: RotationSampling, plane_sampling: MaskPlaneSampling,
                    ends, transmission,
                    pattern: Optional[AntennaPattern] = None):
    """One-way propagation matrices through the time-variant mask.

    Entry (t, j) integrates antenna illumination, per-position transmission
    and the Rayleigh-Sommerfeld secondary-source factor over the mask-plane
    lattice (midpoint rule, cell area weighting).  Accumulation is in double
    complex precision.

    Parameters
    ----------
    ends : tuple of "tx" and "rx"
        The antennas that illuminate the mask plane, e.g. ``("tx", "rx")``
        or ``("rx",)``.  Returns one (rotation positions) x (scene points)
        complex128 array per end, in the same order, from a single pass over
        the plane-to-scene kernel.
    transmission : MaskTransmission
        Per-rotation-position amplitude transmission over the lattice.

    A scene point in front of the mask plane (z below the lattice depth)
    raises ``ParameterError``; one on a lattice cell ``SingularityError``.
    """
    if (not isinstance(ends, tuple) or not ends
            or any(end not in ("tx", "rx") for end in ends)):
        raise ParameterError("ends must be a non-empty tuple of 'tx' and 'rx'")
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

    # squared distances between points within ``reach`` of the origin stay
    # below 12 reach^2, which must be a finite float
    reach = max(float(np.max(np.abs(pts))) for pts in
                (plane_pts, grid.points, radar.tx, radar.rx))
    if not math.isfinite(12.0 * reach * reach):
        raise ParameterError(f"coordinates up to {reach!r} m overflow the squared "
                             "distances of the propagation kernel")
    if pattern is None:
        pattern = _radar_pattern(radar)
    steps = _footprint_steps(transmission.footprint_indices, M)
    through = [_through_mask(transmission, steps, _antenna_to_plane(
                   radar, radar.tx if end == "tx" else radar.rx, plane_pts, pattern))
               for end in ends]
    n = plane_sampling.axis_coords.size
    matrices = tuple(np.empty((T, N), dtype=np.complex128) for _ in ends)
    for start in range(0, N, _SCENE_CHUNK):
        sl = slice(start, start + _SCENE_CHUNK)
        scene = grid.points[sl]
        if np.all(scene[:, 1] == 0.0):
            prop = _folded_chunk(plane_pts, n, scene, radar.wavelength_m)
        else:
            prop = _plane_to_scene_chunk(plane_pts, scene, radar.wavelength_m)
        # after the kernel, so that a point on a lattice cell reports that
        if np.any(scene[:, 2] < plane_sampling.plane_depth_m):
            raise ParameterError(f"scene points lie in front of the mask plane at "
                                 f"z = {plane_sampling.plane_depth_m!r} m; the scene "
                                 "must be at or beyond the plane")
        for out, through_mask in zip(matrices, through):
            out[:, sl] = through_mask(prop)
        del prop  # free the M x 64 chunk before the next one is computed
    for out in matrices:
        out *= plane_sampling.cell_area
        if not np.all(np.isfinite(out)):
            raise ParameterError("propagation matrix entries must be finite")
    return matrices
