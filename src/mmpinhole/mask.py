"""Time-variant mask transmission maps for regular and inverse pinholes.

The regular pinhole is a rotating transparent slot in an otherwise opaque
sheet; the inverse pinhole is the complement, a rotating blocker in an
otherwise open field.  Both are described by the same amplitude-transmission
structure: a uniform value outside the blade footprint and another inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import ParameterError
# footprint_mask_array is not called here; it stays bound in this module,
# one of the lookup sites that bench/tracing.py patches
from .geometry import (MaskGeometry, MaskPlaneSampling, RotationSampling,  # noqa: F401
                       footprint_mask_array, footprint_rows)

NULL_REL_THRESHOLD = 0.5
NULL_MERGE_FRACTION = 0.05


@dataclass(frozen=True)
class MaskTransmission:
    """Amplitude transmission per rotation position and mask-plane sample.

    The blade footprint at each rotation position is a 1-D integer array of
    covered sample indices, strictly ascending and in ``[0, n_samples)``;
    covered samples transmit ``inside_amp`` and the rest ``outside_amp``.
    The dense (T, M) ``values`` array is materialized on demand.
    """

    n_samples: int
    footprint_indices: List[np.ndarray] = field(repr=False)
    inside_amp: float = 1.0
    outside_amp: float = 0.0
    # read only by the benchmark's oracle and tracer; always None
    explicit_values = None

    def __post_init__(self):
        for amp in (self.inside_amp, self.outside_amp):
            if not 0.0 <= amp <= 1.0:
                raise ParameterError("transmission amplitudes must lie in [0, 1]")
        # row by row: a concatenated copy of the footprint would double its memory
        for row in self.footprint_indices:
            if not (isinstance(row, np.ndarray) and row.ndim == 1
                    and np.issubdtype(row.dtype, np.integer)
                    and (row.size == 0 or (0 <= row[0] and row[-1] < self.n_samples
                                           and np.all(row[1:] > row[:-1])))):
                raise ParameterError("footprint rows must be 1-D integer arrays of strictly "
                                     "ascending indices in [0, n_samples)")

    @property
    def n_positions(self) -> int:
        """Rotation positions: one footprint index array each."""
        return len(self.footprint_indices)

    @property
    def values(self) -> np.ndarray:
        """Dense (T, M) transmission array."""
        out = np.full((self.n_positions, self.n_samples), self.outside_amp)
        for t, idx in enumerate(self.footprint_indices):
            out[t, idx] = self.inside_amp
        return out


def open_mask(rotation: RotationSampling,
              plane_sampling: MaskPlaneSampling) -> MaskTransmission:
    """Fully open aperture (transmission 1 everywhere), the background case."""
    return MaskTransmission(
        n_samples=plane_sampling.n_samples,
        inside_amp=1.0,
        outside_amp=1.0,
        footprint_indices=[np.empty(0, dtype=int)] * rotation.count,
    )


def transmission_for(mask: MaskGeometry, rotation: RotationSampling,
                     plane_sampling: MaskPlaneSampling) -> MaskTransmission:
    """Hard-edged transmission of the mask's configured mode.

    A regular pinhole (rotating slot) is open inside the blade footprint and
    leaks ``10^(-attenuation_db/20)`` elsewhere, 0 for the ideal blocker; an
    inverse pinhole (rotating blocker) is its complement.
    """
    leak = mask.base_attenuation_amp
    inside, outside = (1.0, leak) if mask.mode == "regular-pinhole" else (leak, 1.0)
    return MaskTransmission(
        n_samples=plane_sampling.n_samples,
        inside_amp=inside,
        outside_amp=outside,
        footprint_indices=footprint_rows(mask, rotation.angles_rad,
                                         plane_sampling.samples[:, :2]),
    )


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


def find_nulls(trace):
    """Locate dominant dips in a rotation trace.

    A null is a contiguous run of samples below ``NULL_REL_THRESHOLD`` times
    the median; the deepest sample of each run is reported.  Returns
    (indices, depths_db); depth is the dip below the median in amplitude dB.
    """
    trace = np.asarray(trace, dtype=float)
    med = float(np.median(trace))
    if med <= 0.0:
        raise ParameterError("trace median must be positive")
    below = trace < NULL_REL_THRESHOLD * med
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


def count_null_events(trace, blade_count: int):
    """Distinct null timings per blade period of a rotation trace.

    A trace from a ``blade_count``-blade mask repeats every
    ``T / blade_count`` samples, so physically distinct shadow events are
    counted after folding dip locations onto one blade period; dips closer
    than ``NULL_MERGE_FRACTION`` of a period (circularly) merge into one event.
    An angle-ambiguous configuration shows two events per period where an
    unambiguous one shows a single event.

    Returns (event_timings, event_depths_db) with timings in folded samples.
    """
    trace = np.asarray(trace, dtype=float)
    period = trace.size // blade_count
    idx, depths = find_nulls(trace)
    if idx.size == 0:
        return np.asarray([], dtype=int), np.asarray([], dtype=float)
    folded = idx % period
    order = np.argsort(folded)
    folded = folded[order]
    depths = depths[order]
    gap = max(1, int(round(NULL_MERGE_FRACTION * period)))
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
