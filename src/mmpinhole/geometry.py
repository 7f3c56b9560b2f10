"""Coordinate frames, scene discretization and rotating-mask geometry.

Conventions used throughout the package:

* The antenna plane is z = 0 and the mask plane is z = ``plane_depth_m``.
* The rotation axis passes through the origin, parallel to +z (boresight).
* Azimuth is the angle in the x-z plane (positive toward +x), elevation the
  angle toward +y.  A scene point at range R is
  ``R * (sin az * cos el, sin el, cos az * cos el)``.
* The antenna pair sits below the rotation axis at y = -axis_offset_m.
* A blade at rotation angle 0 points along +y (away from the antenna);
  angles increase counterclockwise when looking along +z.

All lengths are in meters and all angles in degrees at API boundaries
(radians internally where noted by a ``_rad`` suffix).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, UnsupportedConfigurationError

# Rotation positions per block of footprint_rows: a block holds a few
# (block, candidate cells) float64 arrays, under 1 MB each on the default
# lattice, and its candidates span the block's angles plus one blade.
_ANGLE_BLOCK = 32

# Slack (meters and radians) on the bounds that pick footprint candidates:
# over a million times the rounding error of the blade frame coordinates.
_REACH_TOL = 1e-9


def angles_to_points(range_m, azimuth_deg, elevation_deg):
    """Cartesian points for an azimuth x elevation grid at fixed range.

    Returns an (n_el * n_az, 3) array ordered elevation-major: the point for
    elevation ring i and azimuth bin j sits at row ``i * n_az + j``.
    """
    az = np.radians(np.atleast_1d(azimuth_deg).astype(float))
    el = np.radians(np.atleast_1d(elevation_deg).astype(float))
    el_g, az_g = np.meshgrid(el, az, indexing="ij")
    pts = range_m * np.stack(
        [
            np.sin(az_g) * np.cos(el_g),
            np.sin(el_g),
            np.cos(az_g) * np.cos(el_g),
        ],
        axis=-1,
    )
    return pts.reshape(-1, 3)


@dataclass(frozen=True)
class RadarConfig:
    """Single Tx/Rx antenna pair operating at a fixed wavelength.

    Every field is required; :func:`default_radar_config` holds the default
    values and derives the antenna positions from a mask.
    """

    wavelength_m: float
    tx_position: tuple
    rx_position: tuple
    azimuth_fov_deg: float   # half-power half-angle
    elevation_fov_deg: float

    def __post_init__(self):
        if not 0.0 < self.wavelength_m < math.inf:
            raise ParameterError("wavelength_m must be positive and finite")
        for fov in (self.azimuth_fov_deg, self.elevation_fov_deg):
            if not 0.0 < fov < 90.0:
                raise ParameterError("FoV half-angles must lie in (0, 90) degrees")
        object.__setattr__(self, "tx_position", tuple(float(v) for v in self.tx_position))
        object.__setattr__(self, "rx_position", tuple(float(v) for v in self.rx_position))
        if not all(map(math.isfinite, self.tx_position + self.rx_position)):
            raise ParameterError("antenna positions must be finite")

    @property
    def tx(self) -> np.ndarray:
        return np.asarray(self.tx_position, dtype=float)

    @property
    def rx(self) -> np.ndarray:
        return np.asarray(self.rx_position, dtype=float)


def default_radar_config(mask: "MaskGeometry", *, wavelength_m=4.0e-3,
                         colocated=False, separation_m=0.01,
                         azimuth_fov_deg=50.0, elevation_fov_deg=20.0) -> RadarConfig:
    """Radar config whose antenna offset follows the mask's axis offset.

    ``colocated=True`` puts Tx and Rx at the same point, the mode used by the
    analytical comparisons that assume a single propagation matrix.
    """
    y = -mask.axis_offset_m
    if colocated:
        tx = rx = (0.0, y, 0.0)
    else:
        tx = (-separation_m / 2.0, y, 0.0)
        rx = (separation_m / 2.0, y, 0.0)
    return RadarConfig(wavelength_m=wavelength_m, tx_position=tx, rx_position=rx,
                       azimuth_fov_deg=azimuth_fov_deg, elevation_fov_deg=elevation_fov_deg)


@dataclass(frozen=True)
class SceneGrid:
    """Discretized reflectivity domain: angular bins at a fixed range."""

    range_m: float
    azimuth_deg: np.ndarray
    elevation_deg: np.ndarray
    points: np.ndarray = field(init=False, repr=False)  # from the angles

    def __post_init__(self):
        az = np.asarray(self.azimuth_deg, dtype=float)
        el = np.asarray(self.elevation_deg, dtype=float)
        if not 0.0 < self.range_m < math.inf:
            raise ParameterError("range_m must be positive and finite")
        if az.ndim != 1 or el.ndim != 1 or az.size == 0 or el.size == 0:
            raise ParameterError("grid needs non-empty 1-D azimuth and elevation lists")
        if not (np.all(np.isfinite(az)) and np.all(np.isfinite(el))):
            raise ParameterError("grid angles must be finite")
        if az.size > 1 and not np.all(np.diff(az) > 0):
            raise ParameterError("azimuth angles must be strictly increasing")
        if el.size > 1 and not np.all(np.diff(el) > 0):
            raise ParameterError("elevation angles must be strictly increasing")
        object.__setattr__(self, "azimuth_deg", az)
        object.__setattr__(self, "elevation_deg", el)
        object.__setattr__(self, "points", angles_to_points(self.range_m, az, el))

    @property
    def n_azimuth(self) -> int:
        return self.azimuth_deg.size

    @property
    def n_elevation(self) -> int:
        return self.elevation_deg.size

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def shape(self):
        """(n_elevation, n_azimuth); images over the grid use this shape."""
        return (self.n_elevation, self.n_azimuth)

    def index_of(self, azimuth_deg, elevation_deg=0.0) -> int:
        """Flat index of the grid point nearest to the given angles."""
        i = int(np.argmin(np.abs(self.elevation_deg - elevation_deg)))
        j = int(np.argmin(np.abs(self.azimuth_deg - azimuth_deg)))
        return i * self.n_azimuth + j


def build_scene_grid(range_m, az_min_deg, az_max_deg, az_step_deg,
                     el_list_deg=(0.0,)) -> SceneGrid:
    """Uniform azimuth grid from az_min to az_max with the given step.

    The grid has ``ceil((max - min) / step) + 1`` azimuth bins; az_min equal
    to az_max produces a single bin.
    """
    if not 0.0 < az_step_deg < math.inf:
        raise ParameterError("az_step_deg must be positive and finite")
    if not -math.inf < az_min_deg <= az_max_deg < math.inf:
        raise ParameterError("need finite az_min_deg <= az_max_deg")
    steps = (az_max_deg - az_min_deg) / az_step_deg
    if not math.isfinite(steps):
        raise ParameterError("the azimuth range holds too many az_step_deg bins")
    n = int(math.ceil(steps - 1e-12)) + 1
    az = az_min_deg + az_step_deg * np.arange(n)
    return SceneGrid(range_m=range_m, azimuth_deg=az,
                     elevation_deg=np.asarray(el_list_deg, dtype=float))


@dataclass(frozen=True)
class MaskGeometry:
    """Rotating blade mask in front of the antenna.

    ``blade_length_m`` is both the blade's radial extent and the radius of
    the circle its tip sweeps; ``attenuation_db`` is the one-way power
    attenuation of the blocker material (``inf`` means an ideal blocker).
    """

    blade_count: int = 1
    blade_length_m: float = 0.16
    blade_width_m: float = 0.016          # 4 wavelengths at 77 GHz
    plane_depth_m: float = 0.12
    axis_offset_m: float = 0.12
    attenuation_db: float = math.inf
    mode: str = "inverse-pinhole"

    def __post_init__(self):
        count = self.blade_count
        if isinstance(count, bool) or not isinstance(count, numbers.Integral):
            raise ParameterError(f"blade_count={count!r} must be an integer")
        object.__setattr__(self, "blade_count", int(count))
        if count not in (1, 2):
            raise UnsupportedConfigurationError(f"blade_count={count} unsupported (1 or 2 blades)")
        if not math.inf > self.blade_length_m > self.blade_width_m / 2.0 > 0.0:
            raise ParameterError("need a finite blade_length_m > blade_width_m/2 > 0")
        if not 0.0 < self.plane_depth_m < math.inf:
            raise ParameterError("plane_depth_m must be positive and finite")
        if not math.isfinite(self.axis_offset_m):
            raise ParameterError("axis_offset_m must be finite")
        if not self.attenuation_db >= 0:  # inf is the ideal blocker
            raise ParameterError("attenuation_db must be non-negative")
        if self.mode not in ("regular-pinhole", "inverse-pinhole"):
            raise ParameterError(f"unknown mask mode {self.mode!r}")

    @property
    def base_attenuation_amp(self) -> float:
        """One-way amplitude transmission of the blocker material."""
        return 10.0 ** (-self.attenuation_db / 20.0)


def _reach(mask: MaskGeometry, pts):
    """The points some blade can reach, with their polar angle and angular reach.

    A point at radius r and polar blade angle psi (the rotation angle at
    which blade 0 points at it) has u = r cos(a - psi) and
    v = r sin(a - psi) in the frame of a blade at angle a, so it can only
    be covered if r <= hypot(L, w/2) and a lies within asin(w / 2r) of psi;
    a point within w/2 of the axis may be covered at any angle.  Returns
    the indices of the points with r <= hypot(L, w/2), and their psi and
    reach, the latter inf within w/2 of the axis.
    """
    x, y = pts[:, 0], pts[:, 1]
    r = np.hypot(x, y)
    r_max = math.hypot(mask.blade_length_m, mask.blade_width_m / 2.0) + _REACH_TOL
    idx = np.flatnonzero(r <= r_max)
    r = r[idx]
    psi = np.arctan2(-x[idx], y[idx]) % (2.0 * math.pi)
    half_w = mask.blade_width_m / 2.0 + _REACH_TOL
    reach = np.arcsin(half_w / np.maximum(r, half_w)) + _REACH_TOL
    reach[r <= half_w] = math.inf
    return idx, psi, reach


def _within_reach(mask: MaskGeometry, angles, psi, reach) -> np.ndarray:
    """Which of the points of :func:`_reach` a blade may cover at one of ``angles``."""
    finite = angles[np.isfinite(angles)]
    if finite.size == 0:
        return np.zeros(psi.shape, dtype=bool)
    two_pi = 2.0 * math.pi
    # reduce through sin/cos, as the rectangle test does, so that large
    # angles land on [0, 2 pi) without the drift of a float "% 2 pi"
    blade = np.concatenate([finite + two_pi * b / mask.blade_count
                            for b in range(mask.blade_count)])
    blade = np.sort(np.arctan2(np.sin(blade), np.cos(blade)) % two_pi)
    k = np.searchsorted(blade, psi)
    gap = np.full(psi.shape, math.pi)
    for nearest in (blade[k % blade.size], blade[k - 1]):
        d = np.abs(psi - nearest)
        np.minimum(gap, np.minimum(d, two_pi - d), out=gap)
    return gap <= reach


def _covered(mask: MaskGeometry, angles, pts) -> np.ndarray:
    """The blade rectangle test: (len(angles), len(pts)) boolean coverage."""
    hit = np.zeros((angles.size, len(pts)), dtype=bool)
    if not len(pts):
        return hit
    half_w = mask.blade_width_m / 2.0
    x = pts[None, :, 0]
    y = pts[None, :, 1]
    for b in range(mask.blade_count):
        a = angles + 2.0 * math.pi * b / mask.blade_count
        sin_a = np.sin(a)[:, None]
        cos_a = np.cos(a)[:, None]
        # u runs radially along blade b and v across it
        u = -x * sin_a + y * cos_a
        v = x * cos_a + y * sin_a
        hit |= (u >= 0.0) & (u <= mask.blade_length_m) & (np.abs(v) <= half_w)
    return hit


def footprint_rows(mask: MaskGeometry, angles_rad, plane_points_xy):
    """Ascending indices of the covered points, one array per angle.

    Each blade is a rectangle of width ``blade_width_m`` reaching from the
    rotation axis to ``blade_length_m``; blades are spaced uniformly in
    angle, blade 0 at the given rotation angle.  Each point's polar angle
    and reach are computed once, and each block of ``_ANGLE_BLOCK`` angles
    runs the rectangle test only on the points that some blade can reach at
    one of its angles.  That candidate set is widened by a tolerance a
    million times the rounding error of the blade frame, so it never drops
    a point the test would accept, and every point gets the same result as
    on the full lattice.
    """
    angles = np.asarray(angles_rad, dtype=float).reshape(-1)
    pts = np.asarray(plane_points_xy, dtype=float)
    cells, psi, reach = _reach(mask, pts)
    rows = []
    for start in range(0, angles.size, _ANGLE_BLOCK):
        block = angles[start:start + _ANGLE_BLOCK]
        idx = cells[_within_reach(mask, block, psi, reach)]
        # idx ascends, so each row's indices do too
        rows.extend(idx[np.flatnonzero(hit)] for hit in _covered(mask, block, pts[idx]))
    return rows


def footprint_mask_array(mask: MaskGeometry, angles_rad, plane_points_xy):
    """Boolean coverage array of shape (len(angles), M): :func:`footprint_rows` made dense."""
    rows = footprint_rows(mask, angles_rad, plane_points_xy)
    out = np.zeros((len(rows), len(plane_points_xy)), dtype=bool)
    for a, row in enumerate(rows):
        out[a, row] = True
    return out


@dataclass(frozen=True)
class RotationSampling:
    """Rotation positions of the mask over one revolution.

    ``angles_rad`` defaults to ``positions_per_rotation`` uniform angles
    starting at 0.  Non-uniform angle lists (e.g. a wobbling motor) can be
    injected with :meth:`warped` for synchronization studies.
    """

    positions_per_rotation: int = 1000
    angles_rad: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if (not isinstance(self.positions_per_rotation, numbers.Integral)
                or self.positions_per_rotation <= 0):
            raise ParameterError("positions_per_rotation must be a positive integer")
        if self.angles_rad is None:
            angles = 2.0 * math.pi * np.arange(self.positions_per_rotation) / self.positions_per_rotation
        else:
            angles = np.asarray(self.angles_rad, dtype=float)
            if angles.size != self.positions_per_rotation:
                raise ParameterError("angles_rad length must equal positions_per_rotation")
            if not np.all(np.isfinite(angles)):
                raise ParameterError("angles_rad must be finite")
        object.__setattr__(self, "angles_rad", angles)

    @classmethod
    def warped(cls, angles_rad) -> "RotationSampling":
        """Sampling with explicit, possibly non-uniform rotation angles."""
        angles = np.asarray(angles_rad, dtype=float)
        return cls(positions_per_rotation=angles.size, angles_rad=angles)

    @property
    def count(self) -> int:
        return self.positions_per_rotation


@dataclass(frozen=True)
class MaskPlaneSampling:
    """Uniform sample lattice on the mask plane used for field integration."""

    spacing_m: float
    extent_m: float
    plane_depth_m: float

    def __post_init__(self):
        # lengths get squared (cell area, distances), so they stay below 1e154
        if not 0.0 < self.spacing_m <= self.extent_m < math.sqrt(sys.float_info.max):
            raise ParameterError("need 0 < spacing_m <= extent_m < 1e154")
        # (2 n + 1)^2 cells with n = ceil(extent / spacing) must be indexable
        if 2.0 * self.extent_m / self.spacing_m + 3.0 > math.sqrt(np.iinfo(np.intp).max):
            raise ParameterError("plane sampling lattice has too many cells")

    @property
    def axis_coords(self) -> np.ndarray:
        n_half = int(math.ceil(self.extent_m / self.spacing_m - 1e-12))
        return self.spacing_m * np.arange(-n_half, n_half + 1)

    @property
    def samples(self) -> np.ndarray:
        """(M, 3) sample points on the plane z = plane_depth_m."""
        c = self.axis_coords
        yy, xx = np.meshgrid(c, c, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel(), np.full(xx.size, self.plane_depth_m)], axis=-1)
        return pts

    @property
    def n_samples(self) -> int:
        return self.axis_coords.size ** 2

    @property
    def cell_area(self) -> float:
        return self.spacing_m ** 2


def default_plane_sampling(radar: RadarConfig, mask: MaskGeometry,
                           **given) -> MaskPlaneSampling:
    """Half-wavelength lattice covering the swept circle plus one blade width.

    A field in ``given`` replaces its default before the lattice is checked.
    """
    return MaskPlaneSampling(**{"spacing_m": radar.wavelength_m / 2.0,
                                "extent_m": mask.blade_length_m + mask.blade_width_m,
                                "plane_depth_m": mask.plane_depth_m, **given})
