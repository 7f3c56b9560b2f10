"""Truncated-SVD reconstruction of scene reflectivity.

Plain pseudo-inversion amplifies receiver noise through the small singular
values; truncating the factorization to the dominant ones trades resolution
for noise robustness.  The truncation count is the central tuning parameter
of the whole system.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import linalg

from .container import write_csv
from .errors import (NumericError, ParameterError, RankDeficiencyError,
                     ShapeError)
from .forward import ForwardModel
from .geometry import SceneGrid


@dataclass(frozen=True)
class SvdFactorization:
    """B = U diag(S) V^H with singular values sorted descending."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    grid: SceneGrid = field(repr=False)


def factorize(model: ForwardModel) -> SvdFactorization:
    """Full thin SVD of the sensing matrix."""
    if not np.all(np.isfinite(model.B)):
        raise NumericError("sensing matrix contains non-finite entries")
    # finiteness is checked just above; a second scan of B would add nothing
    U, S, Vh = linalg.svd(model.B, full_matrices=False, check_finite=False)
    return SvdFactorization(U=U, S=S, V=Vh.conj().T, grid=model.grid)


def numerical_rank(S, rtol: float = 1e-10) -> int:
    """Count of singular values above rtol times the largest."""
    S = np.asarray(S, dtype=float)
    if S.size == 0 or S[0] <= 0:
        return 0
    return int(np.count_nonzero(S >= rtol * S[0]))


@dataclass(frozen=True)
class ReconConfig:
    """Truncation and output options for :func:`reconstruct`.

    ``sigma_max`` is the number of singular values retained; ``None`` keeps
    every value above the numerical-rank threshold (the noiseless
    "full rank" setting).  ``rel_threshold`` switches to discarding values
    below that fraction of the largest instead of counting.

    When ``rel_threshold`` is set it overrides ``sigma_max``, which is then
    ignored.  ``sigma_max`` defaults to 40, so ``ReconConfig(rel_threshold=1e-2)``,
    the setting :mod:`mmpinhole.analysis` uses against classical aperture
    bounds, carries both.  The CLI rejects a config that sets both keys.
    """

    sigma_max: Optional[int] = 40
    normalize_output: bool = False
    rel_threshold: Optional[float] = None

    def __post_init__(self):
        if self.sigma_max is not None and not (
                isinstance(self.sigma_max, numbers.Integral) and self.sigma_max >= 1):
            raise ParameterError("sigma_max must be a positive integer")
        if self.rel_threshold is not None and not 0.0 < self.rel_threshold < 1.0:
            raise ParameterError("rel_threshold must lie in (0, 1)")

    def truncation(self, S: np.ndarray) -> int:
        if self.rel_threshold is not None:
            return int(np.count_nonzero(S >= self.rel_threshold * S[0]))
        if self.sigma_max is None:
            return numerical_rank(S)
        if self.sigma_max > S.size:
            raise ParameterError(f"sigma_max={self.sigma_max} exceeds the "
                                 f"factorization rank limit {S.size}")
        return self.sigma_max


@dataclass(frozen=True)
class ImageResult:
    """Reconstructed reflectivity over the scene grid.

    ``intensity`` is the magnitude of the complex estimate arranged as
    (n_elevation, n_azimuth); it is peak-normalized when the recon config
    requested it.
    """

    intensity: np.ndarray
    complex_amplitude: np.ndarray
    grid: SceneGrid = field(repr=False)
    truncation_used: int = 0


def reconstruct(fact: SvdFactorization, y, cfg: ReconConfig) -> ImageResult:
    """x_hat = V_k diag(1/S_1..k) U_k^H y with k from the config."""
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (fact.U.shape[0],):
        raise ShapeError(f"y must have length {fact.U.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise NumericError("measurement vector y contains non-finite entries")
    k = cfg.truncation(fact.S)
    if k < 1:
        raise RankDeficiencyError("truncation keeps no singular values")
    zero_floor = max(fact.U.shape[0], fact.V.shape[0]) * np.finfo(float).eps * fact.S[0]
    if fact.S[k - 1] <= zero_floor:
        raise RankDeficiencyError(
            f"singular value {k} is numerically zero; retry with sigma_max < {k}")
    coef = (fact.U[:, :k].conj().T @ y) / fact.S[:k]
    x_hat = fact.V[:, :k] @ coef
    intensity = np.abs(x_hat)
    if cfg.normalize_output:
        peak = intensity.max()
        if peak > 0:
            intensity = intensity / peak
    return ImageResult(intensity=intensity.reshape(fact.grid.shape),
                       complex_amplitude=x_hat, grid=fact.grid, truncation_used=k)


# ---------------------------------------------------------------------------
# image export

def image_to_pgm(path, image: ImageResult) -> None:
    """8-bit binary PGM; intensities in [0.1, 1] of peak map to the gray scale."""
    inten = image.intensity
    peak = inten.max()
    norm = inten / peak if peak > 0 else inten
    scaled = np.clip((norm - 0.1) / 0.9, 0.0, 1.0)
    data = np.round(255.0 * scaled).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def image_to_csv(path, image: ImageResult) -> None:
    """CSV rows of (azimuth_deg, elevation_deg, intensity) in grid order."""
    grid = image.grid
    write_csv(path, [("azimuth_deg", "elevation_deg", "intensity"),
                     *((az, el, image.intensity[i, j])
                       for i, el in enumerate(grid.elevation_deg)
                       for j, az in enumerate(grid.azimuth_deg))])
