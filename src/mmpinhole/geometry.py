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
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, UnsupportedConfigurationError


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

    The default positions put the pair 1 cm apart along the azimuth (x) axis,
    12 cm below the rotation axis, matching the default mask geometry.  Use
    :func:`default_radar_config` to derive positions from a mask.
    """

    wavelength_m: float = 4.0e-3
    tx_position: tuple = (-0.005, -0.12, 0.0)
    rx_position: tuple = (0.005, -0.12, 0.0)
    azimuth_fov_deg: float = 50.0   # half-power half-angle
    elevation_fov_deg: float = 20.0

    def __post_init__(self):
        if self.wavelength_m <= 0:
            raise ParameterError("wavelength_m must be positive")
        for fov in (self.azimuth_fov_deg, self.elevation_fov_deg):
            if not 0.0 < fov < 90.0:
                raise ParameterError("FoV half-angles must lie in (0, 90) degrees")
        object.__setattr__(self, "tx_position", tuple(float(v) for v in self.tx_position))
        object.__setattr__(self, "rx_position", tuple(float(v) for v in self.rx_position))

    @property
    def colocated(self) -> bool:
        return self.tx_position == self.rx_position

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
    points: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        az = np.asarray(self.azimuth_deg, dtype=float)
        el = np.asarray(self.elevation_deg, dtype=float)
        if self.range_m <= 0:
            raise ParameterError("range_m must be positive")
        if az.size == 0 or el.size == 0:
            raise ParameterError("grid needs at least one azimuth and one elevation")
        if az.size > 1 and not np.all(np.diff(az) > 0):
            raise ParameterError("azimuth angles must be strictly increasing")
        if el.size > 1 and not np.all(np.diff(el) > 0):
            raise ParameterError("elevation angles must be strictly increasing")
        object.__setattr__(self, "azimuth_deg", az)
        object.__setattr__(self, "elevation_deg", el)
        pts = angles_to_points(self.range_m, az, el)
        object.__setattr__(self, "points", pts)

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
    if az_step_deg <= 0:
        raise ParameterError("az_step_deg must be positive")
    if range_m <= 0:
        raise ParameterError("range_m must be positive")
    if az_max_deg < az_min_deg:
        raise ParameterError("az_max_deg must not be below az_min_deg")
    span = az_max_deg - az_min_deg
    n = int(math.ceil(span / az_step_deg - 1e-12)) + 1
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
        if self.blade_count not in (1, 2):
            raise UnsupportedConfigurationError(
                f"blade_count={self.blade_count} unsupported (1 or 2 blades)")
        if not self.blade_length_m > self.blade_width_m / 2.0 > 0.0:
            raise ParameterError("need blade_length_m > blade_width_m/2 > 0")
        if self.plane_depth_m <= 0:
            raise ParameterError("plane_depth_m must be positive")
        if self.attenuation_db < 0:
            raise ParameterError("attenuation_db must be non-negative")
        if self.mode not in ("regular-pinhole", "inverse-pinhole"):
            raise ParameterError(f"unknown mask mode {self.mode!r}")

    @property
    def base_attenuation_amp(self) -> float:
        """One-way amplitude transmission of the blocker material."""
        return 10.0 ** (-self.attenuation_db / 20.0)


# One-way power attenuations measured for candidate blocker materials.
MATERIAL_ATTENUATION_DB = {
    "rf-absorber": 30.0,
    "metal-strip": 12.0,
    "pla": 9.0,
}


def effective_fov_deg(mask: MaskGeometry) -> float:
    """Effective half-angle field of view, arctan(blade length / depth)."""
    return math.degrees(math.atan2(mask.blade_length_m, mask.plane_depth_m))


def blade_frames(mask: MaskGeometry, angles_rad, pts_xy):
    """Yield each blade's (u, v) coordinates of mask-plane points.

    ``u`` runs radially along the blade and ``v`` across it; both have shape
    (len(angles), M).  Blades are spaced uniformly in angle, blade 0 at the
    given rotation angle.
    """
    angles = np.asarray(angles_rad, dtype=float)
    pts = np.asarray(pts_xy, dtype=float)
    x = pts[None, :, 0]
    y = pts[None, :, 1]
    for b in range(mask.blade_count):
        a = angles + 2.0 * math.pi * b / mask.blade_count
        sin_a = np.sin(a)[:, None]
        cos_a = np.cos(a)[:, None]
        yield -x * sin_a + y * cos_a, x * cos_a + y * sin_a


def footprint_mask_array(mask: MaskGeometry, angles_rad, plane_points_xy):
    """Boolean coverage array of shape (len(angles), M) for mask-plane points.

    Each blade is a rectangle of width ``blade_width_m`` reaching from the
    rotation axis to ``blade_length_m``.
    """
    half_w = mask.blade_width_m / 2.0
    out = np.zeros((np.size(angles_rad), len(plane_points_xy)), dtype=bool)
    for u, v in blade_frames(mask, angles_rad, plane_points_xy):
        out |= (u >= 0.0) & (u <= mask.blade_length_m) & (np.abs(v) <= half_w)
    return out


def blade_footprint(mask: MaskGeometry, rotation_angle_rad: float):
    """Predicate over mask-plane points covered by any blade.

    The returned callable accepts an (..., 2) or (..., 3) array of mask-plane
    coordinates and returns a boolean array of the leading shape.
    """
    if not 0.0 <= rotation_angle_rad < 2.0 * math.pi + 1e-12:
        rotation_angle_rad = rotation_angle_rad % (2.0 * math.pi)

    def covered(points):
        pts = np.asarray(points, dtype=float)
        hit = footprint_mask_array(mask, [rotation_angle_rad], pts[..., :2].reshape(-1, 2))
        return hit.reshape(pts.shape[:-1])

    return covered


@dataclass(frozen=True)
class RotationSampling:
    """Rotation positions of the mask over one revolution.

    ``angles_rad`` defaults to ``positions_per_rotation`` uniform angles
    starting at 0.  Non-uniform angle lists (e.g. a wobbling motor) can be
    injected with :meth:`warped` for synchronization studies.
    """

    positions_per_rotation: int = 1000
    angles_rad: np.ndarray = field(default=None, repr=False)
    uniform: bool = True

    def __post_init__(self):
        if self.positions_per_rotation <= 0:
            raise ParameterError("positions_per_rotation must be positive")
        if self.angles_rad is None:
            angles = 2.0 * math.pi * np.arange(self.positions_per_rotation) / self.positions_per_rotation
            object.__setattr__(self, "angles_rad", angles)
        else:
            angles = np.asarray(self.angles_rad, dtype=float)
            if angles.size != self.positions_per_rotation:
                raise ParameterError("angles_rad length must equal positions_per_rotation")
            object.__setattr__(self, "angles_rad", angles)
            if self.uniform:
                step = 2.0 * math.pi / self.positions_per_rotation
                expect = step * np.arange(self.positions_per_rotation)
                if angles[0] != 0.0 or not np.allclose(angles, expect, atol=1e-9):
                    raise ParameterError("angles_rad must be uniform starting at 0; "
                                         "use RotationSampling.warped for non-uniform angles")

    @classmethod
    def warped(cls, angles_rad) -> "RotationSampling":
        """Sampling with explicit, possibly non-uniform rotation angles."""
        angles = np.asarray(angles_rad, dtype=float)
        return cls(positions_per_rotation=angles.size, angles_rad=angles, uniform=False)

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
        if self.spacing_m <= 0 or self.extent_m <= 0:
            raise ParameterError("spacing_m and extent_m must be positive")

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
                           spacing_m=None) -> MaskPlaneSampling:
    """Half-wavelength lattice covering the swept circle plus one blade width."""
    spacing = radar.wavelength_m / 2.0 if spacing_m is None else spacing_m
    if spacing > radar.wavelength_m / 2.0 + 1e-15:
        raise ParameterError("plane sampling pitch must be at most wavelength/2")
    extent = mask.blade_length_m + mask.blade_width_m
    return MaskPlaneSampling(spacing_m=spacing, extent_m=extent,
                             plane_depth_m=mask.plane_depth_m)
