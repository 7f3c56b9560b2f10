"""Correctness oracle for the benchmark.

Every check here is written from the physics and the linear algebra, not by
calling the code it checks:

* ``entry_errors`` recomputes sampled entries of a sensing matrix ``B`` by
  direct midpoint summation over the mask-plane lattice.  The antenna
  illumination, the spherical waves and the obliquity cosine are written
  out below; only the mask transmission row and the antenna pattern
  (``pattern_weight``) come from the package.
* ``factorization_error`` estimates ||B - U S V^H||_F / ||B||_F with random
  probe vectors.
* ``warp_errors`` compares a DTW warp path with the warp the input generator
  applied.

Each check returns a list of problem strings; an empty list means the output
is correct.  ``negative_cases`` proves that each check fires on a corrupted
input.
"""

from __future__ import annotations

import math

import numpy as np

import mmpinhole as mp

# Tolerances on |B_program - B_oracle|, relative to the sum of the magnitudes
# of the lattice terms that make up the entry (the scale of its rounding
# error).  float64 assembly agrees to within ~4e-13 of that scale on the
# default geometry; a model.bin payload is complex64, whose rounding is
# 2^-24 of the entry per component.
RTOL_F64 = 1e-10
RTOL_F32 = 1e-6
FACTOR_RTOL = 1e-10        # ||B - U S V^H||_F / ||B||_F
WARP_MEDIAN_SAMPLES = 2.0  # median |matched - true| observed index
WARP_MEAN_SAMPLES = 4.0    # mean |matched - true| observed index
PROBES = 8


def transmission_row(transmission, t: int) -> np.ndarray:
    """Row ``t`` of ``MaskTransmission.values`` without the dense T x M array."""
    if transmission.explicit_values is not None:
        return transmission.explicit_values[t]
    row = np.full(transmission.n_samples, transmission.outside_amp)
    row[transmission.footprint_indices[t]] = transmission.inside_amp
    return row


class DirectSum:
    """Midpoint-rule one-way fields of one geometry, one entry at a time."""

    def __init__(self, radar, mask, rotation, sampling, transmission):
        self.k = 2.0 * math.pi / radar.wavelength_m
        self.wavelength = radar.wavelength_m
        self.pts = sampling.samples
        self.area = sampling.cell_area
        self.transmission = transmission
        pattern = mp.AntennaPattern.from_half_power(radar.azimuth_fov_deg,
                                                    radar.elevation_fov_deg)
        self.illum = {end: self._illumination(pattern, pos)
                      for end, pos in (("tx", radar.tx), ("rx", radar.rx))}

    def _illumination(self, pattern, antenna):
        r = self.pts - antenna
        d = np.sqrt(np.sum(r * r, axis=1))
        return mp.pattern_weight(pattern, r / d[:, None]) * np.exp(1j * self.k * d) / d

    def oneway(self, end: str, t: int, scene_point):
        """(value, scale): entry (t, point) of one end and its term-magnitude sum."""
        r = np.asarray(scene_point, dtype=float) - self.pts
        d = np.sqrt(np.sum(r * r, axis=1))
        secondary = (r[:, 2] / d) * np.exp(1j * self.k * d) / d / (1j * self.wavelength)
        terms = transmission_row(self.transmission, t) * self.illum[end] * secondary
        return self.area * np.sum(terms), self.area * np.sum(np.abs(terms))

    def entry(self, directionality: str, t: int, scene_point):
        rx, rx_scale = self.oneway("rx", t, scene_point)
        if directionality == "unidirectional":
            return rx, rx_scale
        tx, tx_scale = self.oneway("tx", t, scene_point)
        return tx * rx, abs(tx) * rx_scale + abs(rx) * tx_scale


def sample_entries(rng, shape, count: int):
    """Seeded (t, j) pairs to check in a T x N matrix."""
    return list(zip(rng.integers(0, shape[0], count).tolist(),
                    rng.integers(0, shape[1], count).tolist()))


def entry_errors(B, directionality, direct: DirectSum, points, entries,
                 rtol: float, label: str):
    problems = []
    for t, j in entries:
        value, scale = direct.entry(directionality, t, points[j])
        err = abs(B[t, j] - value)
        if not err <= rtol * scale:
            problems.append(f"{label} B[{t},{j}] off by {err / scale:.2e} of its "
                            f"term scale (tolerance {rtol:.0e})")
    return problems


def factorization_error(B, U, S, V, rng, label: str):
    """Random-probe estimate of ||B - U S V^H||_F / ||B||_F against FACTOR_RTOL."""
    z = rng.standard_normal((B.shape[1], PROBES)) + 1j * rng.standard_normal((B.shape[1], PROBES))
    ref = B @ z
    rel = np.linalg.norm(ref - U @ (S[:, None] * (V.conj().T @ z))) / np.linalg.norm(ref)
    if not rel <= FACTOR_RTOL:
        return [f"{label} factorization residual {rel:.2e} > {FACTOR_RTOL:.0e}"]
    return []


def matched_observed_index(pairs, n_template: int) -> np.ndarray:
    """Mean observed index paired with each template index of a warp path."""
    sums = np.bincount(pairs[:, 0], weights=pairs[:, 1], minlength=n_template)
    counts = np.bincount(pairs[:, 0], minlength=n_template)
    return sums / np.maximum(counts, 1)


def warp_errors(matched, true_index, label: str):
    err = np.abs(np.asarray(matched) - np.asarray(true_index))
    problems = []
    if not np.median(err) <= WARP_MEDIAN_SAMPLES:
        problems.append(f"{label} median warp error {np.median(err):.2f} > "
                        f"{WARP_MEDIAN_SAMPLES} samples")
    if not err.mean() <= WARP_MEAN_SAMPLES:
        problems.append(f"{label} mean warp error {err.mean():.2f} > "
                        f"{WARP_MEAN_SAMPLES} samples")
    return problems


def truncated_svd_solution(U, S, V, y, k: int) -> np.ndarray:
    return V[:, :k] @ ((U[:, :k].conj().T @ y) / S[:k])


def negative_cases(scale) -> list:
    """Corrupt a toy model, factorization and warp; return the cases not flagged."""
    rng = np.random.default_rng(12345)
    mask = mp.MaskGeometry(**scale.mask)
    radar = mp.default_radar_config(mask, wavelength_m=scale.wavelength_m)
    rotation = mp.RotationSampling(scale.positions)
    sampling = mp.default_plane_sampling(radar, mask)
    grid = mp.build_scene_grid(*scale.grid)
    transmission = mp.transmission_for(mask, rotation, sampling)
    model = mp.build_forward(radar, grid, mask, rotation, sampling, "bidirectional",
                             transmission=transmission)
    direct = DirectSum(radar, mask, rotation, sampling, transmission)
    entries = sample_entries(rng, model.B.shape, 4)
    fact = mp.factorize(model)

    missed = []
    if entry_errors(model.B, "bidirectional", direct, grid.points, entries, RTOL_F64, "clean"):
        missed.append("clean model flagged")
    for rtol, dtype, bump in ((RTOL_F64, np.complex128, 1e-6), (RTOL_F32, np.complex64, 1e-3)):
        B = model.B.astype(dtype)
        t, j = entries[0]
        B[t, j] *= 1.0 + bump
        if not entry_errors(B, "bidirectional", direct, grid.points, entries, rtol, "perturbed"):
            missed.append(f"perturbed {np.dtype(dtype).name} entry not flagged")
    if factorization_error(model.B, fact.U, fact.S, fact.V, rng, "clean"):
        missed.append("clean factorization flagged")
    S_bad = fact.S.copy()
    S_bad[0] *= 1.0 + 1e-6
    if not factorization_error(model.B, fact.U, S_bad, fact.V, rng, "perturbed"):
        missed.append("perturbed factorization not flagged")
    template = mp.synth_signature(mask, rotation, np.full(scale.positions, 600.0),
                                  radar=radar, plane_sampling=sampling)
    pairs = mp.dtw_align(template, template).pairs
    true_index = np.arange(scale.positions, dtype=float)
    if warp_errors(matched_observed_index(pairs, true_index.size), true_index, "clean"):
        missed.append("exact warp flagged")
    shifted = pairs + [0, int(2 * WARP_MEAN_SAMPLES)]
    if not warp_errors(matched_observed_index(shifted, true_index.size), true_index, "shifted"):
        missed.append("shifted warp not flagged")
    return missed
