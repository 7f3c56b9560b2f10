"""One-way complex field transfer: antenna -> mask plane -> scene.

The field kernel is the first Rayleigh-Sommerfeld solution: every open mask
cell re-radiates the incident spherical wave weighted by ``1/(i lambda)``
and the obliquity cosine toward the destination.  Assembled matrices have
one row per rotation position and one column per scene point, with the
time-variant mask transmission folded into each row.

The antenna has one amplitude pattern, :func:`pattern_weight`: separable
cosine-power factors fitted to the radar's half-power azimuth and elevation
FoV.  It enters the matrices only through the illumination of the mask
cells.

The plane-to-scene kernel does not depend on the antenna; only the
illumination of the mask plane does.  ``assemble_oneway`` therefore takes
a tuple of antenna ends and evaluates each kernel block once for all of
them, so the Tx and Rx matrices of a bidirectional model cost one kernel
pass.

The kernel is evaluated one block of scene columns at a time, sized by
bytes: the M x w complex block takes at most ``_SCENE_BLOCK_BYTES`` (8 MiB),
so w = 16 on the default 77 GHz lattice (M = 31,329), and never less than
one column.  The block and its temporaries are the whole transient working
set of the kernel; only the (T, N) outputs grow with the grid.  Kernel
entries and footprint products do not depend on w.  The open term
``illum @ block`` is a BLAS product whose summation order may follow a
column's place in its block and the BLAS thread split, so another w may
move ``B`` by a few ulp.

Each block is filled and consumed by W worker threads, one pool per call,
where W is the number of cores the process may run on (its CPU affinity,
so ``taskset`` limits it).  Only one block is in flight.  The workers first
evaluate the kernel on ranges of lattice rows, ``_KERNEL_TASKS`` ranges per
worker, and then take the footprint product one (end, row range) at a
time, the row ranges cut at multiples of ``_RESTART``.  The open term stays
one BLAS product per end and block on the calling thread.  Every entry
sees the same IEEE operations in the same order whatever W is, so ``B``
does not depend on the worker count; like the open term, it does depend
on the BLAS thread count.

The lattice is symmetric under the mirror y -> -y, and a scene point with
y = 0 sees cells (x, y) and (x, -y) at bit-equal distances.  For every
kernel block whose scene points all have y == 0 (every block of a
single-elevation-0 grid, and the blocks of any other grid that lie wholly
in its elevation-0 run) the kernel is evaluated only on the cells with
y <= 0, the workers' row ranges cut from that half, and each mirrored cell
copies its twin's row.  Other blocks take the full lattice.  Either way the
assembled matrices carry the same bits.

The blade turns a small step between rotation positions, so footprint row
t differs from row t - 1 only along the blade's moving edges.  The footprint
product is therefore taken in row-difference form: a sparse matrix of
signed (+-1) row differences, weighted by one end's illumination, times the
kernel block, then a running sum down the rows.  Every ``_RESTART`` = 50
rows the sum restarts from an exact footprint row, which bounds how far
rounding can accumulate.  The differences are taken one restart block at
a time (its rows and an empty predecessor row) and stacked, so no copy of
the whole footprint is made.  Cells that stay covered cancel in the sparse
subtraction and are never stored: on the default geometry (T=1000)
the differences hold 52,674 entries against 640,384 in the footprint with
one blade, and 105,134 against 1,279,675 with two.  The result is a
reassociation of the direct product; the stated bound against it is 1e-12
of ||B||_F and of max|B| (measured on the default geometry: at most 1.8e-15
and 7.3e-15).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ParameterError, ShapeError, SingularityError
from .geometry import (MaskGeometry, MaskPlaneSampling, RadarConfig,
                       RotationSampling, SceneGrid)

_SCENE_BLOCK_BYTES = 1 << 23  # 8 MiB: bytes of one M x w complex kernel block
_RESTART = 50  # footprint rows per running sum of row differences
# kernel row ranges per worker: a task's temporaries are about 2.5 times its
# share of the block, so several small tasks keep them below the block itself
_KERNEL_TASKS = 4


def _scene_block_columns(n_samples: int) -> int:
    """Scene columns per kernel block: as many as ``_SCENE_BLOCK_BYTES`` holds, at least 1."""
    return max(1, _SCENE_BLOCK_BYTES // (16 * n_samples))


def _spherical(d, wavelength_m: float, singular_msg: str):
    """Spherical wave exp(i 2 pi d / lambda) / d over distances ``d``."""
    if np.any(d == 0.0):
        raise SingularityError(singular_msg)
    # one complex buffer, updated in place: a kernel block is M x w entries
    out = 2j * math.pi * d
    out /= wavelength_m
    np.exp(out, out=out)
    out /= d
    return out


def _cos_power(angle_deg, half_power_deg: float):
    """cos(angle)^p clipped at 0, with p so that it is 2^-1/2 at the half-power angle."""
    c = math.cos(math.radians(half_power_deg))
    if not 0.0 < c < 1.0:
        raise ParameterError(f"half-power angle {half_power_deg!r} deg is too "
                             "close to 0 or 90 for a cosine-power fit")
    power = 0.5 * math.log(2.0) / (-math.log(c))
    return np.clip(np.cos(np.radians(angle_deg)), 0.0, None) ** power


@dataclass(frozen=True)
class AntennaPattern:
    """The half-power FoV half-angles that :func:`pattern_weight` reads.

    Every caller in the package passes its :class:`RadarConfig`, which holds
    the same two fields.  This class remains because ``bench/oracle.py``
    builds its reference illumination with :meth:`from_half_power`.
    """

    azimuth_fov_deg: float
    elevation_fov_deg: float

    @classmethod
    def from_half_power(cls, azimuth_deg: float, elevation_deg: float) -> "AntennaPattern":
        return cls(azimuth_deg, elevation_deg)


def pattern_weight(radar: RadarConfig, direction) -> np.ndarray:
    """Amplitude weight of the radar's antenna along unit direction(s).

    The weight is the product of a cosine-power azimuth factor and a
    cosine-power elevation factor, each fitted to the radar's half-power
    FoV half-angle (``azimuth_fov_deg``, ``elevation_fov_deg``).
    """
    v = np.asarray(direction, dtype=float)
    az = np.degrees(np.arctan2(v[..., 0], v[..., 2]))
    el = np.degrees(np.arctan2(v[..., 1], np.hypot(v[..., 0], v[..., 2])))
    w = _cos_power(az, radar.azimuth_fov_deg) * _cos_power(el, radar.elevation_fov_deg)
    if np.ndim(w) == 0:
        return float(w)
    return w


def _antenna_to_plane(radar: RadarConfig, antenna_pos, plane_pts):
    """Per-cell illumination: pattern * spherical wave from the antenna to each cell."""
    diff = plane_pts - antenna_pos[None, :]
    d = np.linalg.norm(diff, axis=1)
    g = _spherical(d, radar.wavelength_m, "antenna lies on the mask plane sample lattice")
    w = pattern_weight(radar, diff / d[:, None])
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


def _fill_rows(block, plane_pts, n, scene_pts, wavelength_m, rows, folded):
    """Write the kernel of lattice rows ``rows`` = (start, stop) into ``block``.

    Samples run y-major over the symmetric ``axis_coords`` (``n`` per axis,
    ``n`` odd), so lattice row r holds the cells at the r-th y and its mirror
    twin is row n - 1 - r.  With ``folded`` the scene points all have y = 0
    and see each twin at a bit-equal distance, so the rows are taken from
    the y <= 0 half and each one is also copied to its twin (the middle row
    is its own).
    """
    start, stop = rows
    lattice = block.reshape(n, n, -1)
    lattice[start:stop] = _plane_to_scene_chunk(
        plane_pts[start * n:stop * n], scene_pts, wavelength_m).reshape(stop - start, n, -1)
    if folded:
        lattice[n - stop:n - start] = lattice[start:stop][::-1]


def _footprint_steps(footprint_indices, n_samples):
    """Signed row differences of a footprint, restarting every ``_RESTART`` rows.

    Row t holds +1 on the cells that enter the footprint at position t and
    -1 on the cells that leave it; at a restart row (t % _RESTART == 0) it
    is the footprint row itself.  Cells covered at both t - 1 and t cancel
    in the sparse subtraction and are not stored.  Each restart block is
    subtracted on its own, so no copy of the whole footprint is made.
    """
    blocks = []
    for start in range(0, len(footprint_indices), _RESTART):
        rows = footprint_indices[start:start + _RESTART]
        # an empty row, the predecessor of the restart row, then the block
        indptr = np.cumsum([0, 0] + [idx.size for idx in rows])
        cols = np.concatenate(rows)
        fp = sparse.csr_matrix((np.ones(cols.size), cols, indptr),
                               shape=(len(rows) + 1, n_samples))
        blocks.append(fp[1:] - fp[:-1])
    return sparse.vstack(blocks, format="csr")


def _through_mask(transmission, steps, illum, ranges):
    """Map a kernel block to one end's matrix: (T, M) weights @ block.

    ``steps`` is the :func:`_footprint_steps` pattern of the transmission,
    shared by every antenna end; ``ranges`` cut the T rows at multiples of
    ``_RESTART``.  Returns ``open_term(block)``, the time-invariant row, and
    one ``fill(block, open_row, out)`` per range that writes the range's rows
    of ``out``; there are none when only the open term is left.
    """
    # transmission(t, m) = outside + (inside - outside) * footprint(t, m):
    # a time-invariant open term plus a sparse footprint correction, whose
    # rows are running sums of the weighted row differences
    weighted = sparse.csr_matrix((steps.data * illum[steps.indices], steps.indices,
                                  steps.indptr), shape=steps.shape)
    delta = transmission.inside_amp - transmission.outside_amp

    def open_term(prop):
        return transmission.outside_amp * (illum @ prop)

    def part(start, stop):
        weights = weighted[start:stop]

        def fill(prop, open_row, out):
            rows = weights @ prop
            for first in range(0, len(rows), _RESTART):
                run = rows[first:first + _RESTART]
                np.cumsum(run, axis=0, out=run)
            rows *= delta
            rows += open_row
            out[start:stop] = rows
        return fill
    return open_term, ([] if delta == 0.0 else [part(*r) for r in ranges])


def _worker_count() -> int:
    """Cores this process may run on: its CPU affinity, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _ranges(count: int, parts: int, unit: int):
    """Cut range(count) into at most ``parts`` contiguous (start, stop) ranges
    of near-equal length, at multiples of ``unit``."""
    units = -(-count // unit)
    parts = max(1, min(parts, units))
    cuts = [min(count, unit * (units * i // parts)) for i in range(parts + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _wait(futures):
    """Wait for every task, then raise the first failure in submission order."""
    for error in [future.exception() for future in futures]:
        if error is not None:
            raise error


def assemble_oneway(radar: RadarConfig, grid: SceneGrid, mask: MaskGeometry,
                    rotation: RotationSampling, plane_sampling: MaskPlaneSampling,
                    ends, transmission):
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
    workers = _worker_count()
    steps = _footprint_steps(transmission.footprint_indices, M)
    row_ranges = _ranges(T, workers, _RESTART)
    through = [_through_mask(transmission, steps, _antenna_to_plane(
                   radar, radar.tx if end == "tx" else radar.rx, plane_pts),
                   row_ranges)
               for end in ends]
    n = plane_sampling.axis_coords.size
    width = _scene_block_columns(M)
    matrices = tuple(np.empty((T, N), dtype=np.complex128) for _ in ends)
    # the tasks run private helpers only, so a tracer that wraps the public
    # functions (bench/tracing.py) still sees every call on one thread
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for start in range(0, N, width):
            sl = slice(start, start + width)
            scene = grid.points[sl]
            folded = np.all(scene[:, 1] == 0.0)
            lattice_rows = (n + 1) // 2 if folded else n
            block = np.empty((M, len(scene)), dtype=np.complex128)
            _wait([pool.submit(_fill_rows, block, plane_pts, n, scene,
                               radar.wavelength_m, rows, folded)
                   for rows in _ranges(lattice_rows, _KERNEL_TASKS * workers, 1)])
            # after the kernel, so that a point on a lattice cell reports that
            if np.any(scene[:, 2] < plane_sampling.plane_depth_m):
                raise ParameterError(f"scene points lie in front of the mask plane at "
                                     f"z = {plane_sampling.plane_depth_m!r} m; the scene "
                                     "must be at or beyond the plane")
            fills = []
            for out, (open_term, parts) in zip(matrices, through):
                open_row = open_term(block)
                if not parts:
                    out[:, sl] = open_row
                fills += [pool.submit(fill, block, open_row, out[:, sl]) for fill in parts]
            _wait(fills)
            del block  # free the kernel block before the next one is computed
    for out in matrices:
        out *= plane_sampling.cell_area
        if not np.all(np.isfinite(out)):
            raise ParameterError("propagation matrix entries must be finite")
    return matrices
