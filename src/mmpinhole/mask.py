"""Time-variant mask transmission maps for regular and inverse pinholes.

The regular pinhole is a rotating transparent slot in an otherwise opaque
sheet; the inverse pinhole is the complement, a rotating blocker in an
otherwise open field.  Both are described by the same amplitude-transmission
structure: a uniform value outside the blade footprint and another inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import ParameterError, ShapeError
from .geometry import (MaskGeometry, MaskPlaneSampling, RotationSampling,
                       blade_frames, footprint_mask_array)

_ANGLE_CHUNK = 128  # rotation positions per footprint chunk


@dataclass(frozen=True)
class MaskTransmission:
    """Amplitude transmission per rotation position and mask-plane sample.

    Structured transmissions (the usual case) store the blade footprint as
    per-position index arrays plus the inside/outside amplitudes; arbitrary
    maps can be supplied through ``explicit_values`` (shape T x M).  The
    dense ``values`` array is materialized on demand.
    """

    mode: str
    n_positions: int
    n_samples: int
    inside_amp: float = 1.0
    outside_amp: float = 0.0
    footprint_indices: Optional[List[np.ndarray]] = field(default=None, repr=False)
    explicit_values: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.explicit_values is not None:
            vals = np.asarray(self.explicit_values, dtype=float)
            if vals.shape != (self.n_positions, self.n_samples):
                raise ShapeError(f"explicit values must have shape "
                                 f"({self.n_positions}, {self.n_samples})")
            if np.any(vals < 0.0) or np.any(vals > 1.0):
                raise ParameterError("transmission values must lie in [0, 1]")
            object.__setattr__(self, "explicit_values", vals)
        else:
            if self.footprint_indices is None or len(self.footprint_indices) != self.n_positions:
                raise ShapeError("structured transmission needs one footprint "
                                 "index array per rotation position")
            for amp in (self.inside_amp, self.outside_amp):
                if not 0.0 <= amp <= 1.0:
                    raise ParameterError("transmission amplitudes must lie in [0, 1]")

    @classmethod
    def from_values(cls, values, mode="custom") -> "MaskTransmission":
        values = np.asarray(values, dtype=float)
        return cls(mode=mode, n_positions=values.shape[0], n_samples=values.shape[1],
                   explicit_values=values)

    @property
    def values(self) -> np.ndarray:
        """Dense (T, M) transmission array."""
        if self.explicit_values is not None:
            return self.explicit_values
        out = np.full((self.n_positions, self.n_samples), self.outside_amp)
        for t, idx in enumerate(self.footprint_indices):
            out[t, idx] = self.inside_amp
        return out


def _footprint_indices(mask: MaskGeometry, rotation: RotationSampling,
                       plane_sampling: MaskPlaneSampling) -> List[np.ndarray]:
    pts_xy = plane_sampling.samples[:, :2]
    angles = rotation.angles_rad
    indices: List[np.ndarray] = []
    for start in range(0, angles.size, _ANGLE_CHUNK):
        block = footprint_mask_array(mask, angles[start:start + _ANGLE_CHUNK], pts_xy)
        indices.extend(np.flatnonzero(row) for row in block)
    return indices


def _footprint_amplitudes(mask: MaskGeometry, mode: str = None):
    """(mode, inside, outside) amplitudes of a "regular" or "inverse" mask.

    A slot is open inside its footprint and the sheet around it leaks the
    material transmission; a blocker leaks inside and is open around it.
    ``mode`` defaults to the mask's configured mode.
    """
    mode = mode or ("regular" if mask.mode == "regular-pinhole" else "inverse")
    leak = mask.base_attenuation_amp
    return (mode, 1.0, leak) if mode == "regular" else (mode, leak, 1.0)


def _footprint_coverage(mask: MaskGeometry, angles_rad, pts_xy,
                        half_width: float) -> np.ndarray:
    """Raised-cosine edge coverage in [0, 1] per (angle, sample).

    Coverage follows a half-cosine ramp over +-half_width of signed distance
    to the blade rectangle boundary (1 deep inside, 0 well outside).
    """
    cov = np.zeros((np.size(angles_rad), len(pts_xy)))
    for u, v in blade_frames(mask, angles_rad, pts_xy):
        du = np.maximum(-u, u - mask.blade_length_m)
        dv = np.abs(v) - mask.blade_width_m / 2.0
        sd = np.maximum(du, dv)  # signed distance, negative inside
        ramp = np.clip((sd + half_width) / (2.0 * half_width), 0.0, 1.0)
        np.maximum(cov, 0.5 * (1.0 + np.cos(math.pi * ramp)), out=cov)
    return cov


def soft_edge_transmission(mask: MaskGeometry, rotation: RotationSampling,
                           plane_sampling: MaskPlaneSampling,
                           mode: str = None) -> MaskTransmission:
    """Transmission with raised-cosine tapered footprint edges.

    The taper spans half a lattice cell on each side of the blade boundary
    and reduces staircase artifacts in sensitivity studies.  The result is
    materialized densely, so prefer reduced configurations.  The default
    hard-edged builders remain the reproducible reference.
    """
    mode, inside, outside = _footprint_amplitudes(mask, mode)
    half_width = plane_sampling.spacing_m / 2.0
    cov = _footprint_coverage(mask, rotation.angles_rad,
                              plane_sampling.samples[:, :2], half_width)
    values = outside + (inside - outside) * cov
    return MaskTransmission.from_values(values, mode=f"{mode}-soft")


def _hard_edge(mask: MaskGeometry, rotation: RotationSampling,
               plane_sampling: MaskPlaneSampling, mode: str = None) -> MaskTransmission:
    mode, inside, outside = _footprint_amplitudes(mask, mode)
    return MaskTransmission(
        mode=mode,
        n_positions=rotation.count,
        n_samples=plane_sampling.n_samples,
        inside_amp=inside,
        outside_amp=outside,
        footprint_indices=_footprint_indices(mask, rotation, plane_sampling),
    )


def regular_pinhole(mask: MaskGeometry, rotation: RotationSampling,
                    plane_sampling: MaskPlaneSampling) -> MaskTransmission:
    """Transmission of a rotating slot: open inside the blade footprint.

    Outside the footprint the sheet transmits the material leakage
    ``10^(-attenuation_db/20)``, which is 0 for the default ideal blocker.
    """
    return _hard_edge(mask, rotation, plane_sampling, "regular")


def inverse_pinhole(mask: MaskGeometry, rotation: RotationSampling,
                    plane_sampling: MaskPlaneSampling) -> MaskTransmission:
    """Transmission of a rotating blocker: open everywhere except the blade."""
    return _hard_edge(mask, rotation, plane_sampling, "inverse")


def open_mask(rotation: RotationSampling,
              plane_sampling: MaskPlaneSampling) -> MaskTransmission:
    """Fully open aperture (transmission 1 everywhere), the background case."""
    T = rotation.count
    return MaskTransmission(
        mode="open",
        n_positions=T,
        n_samples=plane_sampling.n_samples,
        inside_amp=1.0,
        outside_amp=1.0,
        footprint_indices=[np.empty(0, dtype=int)] * T,
    )


def transmission_for(mask: MaskGeometry, rotation: RotationSampling,
                     plane_sampling: MaskPlaneSampling) -> MaskTransmission:
    """Transmission matching the mask's configured mode."""
    return _hard_edge(mask, rotation, plane_sampling)


def null_signature(model, target_index: int) -> np.ndarray:
    """Per-rotation-position return magnitude of a single point target.

    For an inverse pinhole the trace dips once per blade pass as the
    blocker's shadow crosses the target direction; the dip timing encodes
    the target angle.
    """
    B = model.B
    if not 0 <= target_index < B.shape[1]:
        raise ParameterError("target_index outside the scene grid")
    return np.abs(B[:, target_index])


def find_nulls(trace, rel_threshold: float = 0.5):
    """Locate dominant dips in a rotation trace.

    A null is a contiguous run of samples below ``rel_threshold * median``;
    the deepest sample of each run is reported.  Returns (indices, depths_db)
    where depth is the dip below the trace median in amplitude dB.
    """
    trace = np.asarray(trace, dtype=float)
    med = float(np.median(trace))
    if med <= 0.0:
        raise ParameterError("trace median must be positive")
    below = trace < rel_threshold * med
    indices = []
    depths_db = []
    t = 0
    n = trace.size
    while t < n:
        if below[t]:
            start = t
            while t < n and below[t]:
                t += 1
            seg = trace[start:t]
            k = start + int(np.argmin(seg))
            indices.append(k)
            depths_db.append(20.0 * np.log10(med / trace[k]))
        else:
            t += 1
    # merge a run that wraps around the rotation boundary
    if len(indices) >= 2 and below[0] and below[-1]:
        keep = indices[0] if trace[indices[0]] < trace[indices[-1]] else indices[-1]
        depth = max(depths_db[0], depths_db[-1])
        indices = [keep] + indices[1:-1]
        depths_db = [depth] + depths_db[1:-1]
    return np.asarray(indices, dtype=int), np.asarray(depths_db, dtype=float)


def count_null_events(trace, blade_count: int, rel_threshold: float = 0.5,
                      merge_fraction: float = 0.05):
    """Distinct null timings per blade period of a rotation trace.

    A trace from a ``blade_count``-blade mask repeats every
    ``T / blade_count`` samples, so physically distinct shadow events are
    counted after folding dip locations onto one blade period; dips closer
    than ``merge_fraction`` of the period (circularly) merge into one event.
    An angle-ambiguous configuration shows two events per period where an
    unambiguous one shows a single event.

    Returns (event_timings, event_depths_db) with timings in folded samples.
    """
    trace = np.asarray(trace, dtype=float)
    period = trace.size // blade_count
    idx, depths = find_nulls(trace, rel_threshold)
    if idx.size == 0:
        return np.asarray([], dtype=int), np.asarray([], dtype=float)
    folded = idx % period
    order = np.argsort(folded)
    folded = folded[order]
    depths = depths[order]
    gap = max(1, int(round(merge_fraction * period)))
    events = [[folded[0], depths[0]]]
    for f, d in zip(folded[1:], depths[1:]):
        if f - events[-1][0] <= gap:
            if d > events[-1][1]:
                events[-1] = [f, d]
        else:
            events.append([f, d])
    # circular merge across the period boundary
    if len(events) >= 2 and (period - events[-1][0]) + events[0][0] <= gap:
        if events[-1][1] > events[0][1]:
            events[0] = events[-1]
        events.pop()
    timings = np.asarray([e[0] for e in events], dtype=int)
    depth_db = np.asarray([e[1] for e in events], dtype=float)
    return timings, depth_db
