import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmpinhole import (MaskGeometry, MeasurementSet, RotationSampling,
                       default_plane_sampling, default_radar_config, dtw_align,
                       resample_to_uniform, synth_signature,
                       warped_rotation_angles)
from mmpinhole.errors import AlignmentError, InterpolationError, ParameterError
from mmpinhole.sync import RotationSignature, WarpPath, path_observed_index


def _sig(samples, period=None):
    samples = np.asarray(samples, dtype=float)
    return RotationSignature(samples=samples,
                             nominal_period_samples=period or samples.size)


def dense_dtw_reference(template, observed, band_fraction=0.1):
    """The dense n x m DTW that ``dtw_align`` replaced, kept as its oracle."""
    a = np.asarray(template.samples, dtype=float)
    b = np.asarray(observed.samples, dtype=float)
    if a.size == 0 or b.size == 0:
        raise AlignmentError("cannot align empty signatures")
    n, m = a.size, b.size
    scale = (m - 1) / (n - 1) if n > 1 else 1.0
    radius = max(1, int(round(band_fraction * max(n, m))))

    INF = np.inf
    acc = np.full((n, m), INF)
    diag = np.arange(n) * scale
    lo = np.maximum(0, np.ceil(diag - radius).astype(int))
    hi = np.minimum(m - 1, np.floor(diag + radius).astype(int))
    if np.any(lo > hi):
        raise AlignmentError("Sakoe-Chiba band is empty for these lengths")

    acc[0, 0:hi[0] + 1] = np.cumsum((a[0] - b[0:hi[0] + 1]) ** 2)
    for i in range(1, n):
        j0, j1 = lo[i], hi[i]
        width = j1 - j0 + 1
        local = (a[i] - b[j0:j1 + 1]) ** 2
        prev = acc[i - 1]
        best = prev[j0:j1 + 1].copy()            # step (1,0)
        diag_prev = np.full(width, INF)          # step (1,1)
        if j0 >= 1:
            diag_prev[:] = prev[j0 - 1:j1]
        else:
            diag_prev[1:] = prev[0:j1]
        np.minimum(best, diag_prev, out=best)
        base = local + best
        # step (0,1) folds in as a running minimum over the row:
        # row[j] = min_{k<=j} (base[k] + sum(local[k+1..j]))
        cum = np.cumsum(local)
        row = np.minimum.accumulate(base - cum) + cum
        acc[i, j0:j1 + 1] = row
    if not np.isfinite(acc[n - 1, m - 1]):
        raise AlignmentError("no warp path reaches the boundary inside the band")

    # traceback
    i, j = n - 1, m - 1
    pairs = [(i, j)]
    while i > 0 or j > 0:
        candidates = []
        if i > 0 and j > 0:
            candidates.append((acc[i - 1, j - 1], i - 1, j - 1))
        if i > 0:
            candidates.append((acc[i - 1, j], i - 1, j))
        if j > 0:
            candidates.append((acc[i, j - 1], i, j - 1))
        _, i, j = min(candidates, key=lambda c: c[0])
        pairs.append((i, j))
    pairs.reverse()
    return WarpPath(pairs=np.asarray(pairs, dtype=int), cost=float(acc[n - 1, m - 1]))


def _outcome(align, template, observed, band_fraction=0.1):
    """(pairs, cost) of an alignment, or the message of its AlignmentError."""
    try:
        path = align(template, observed, band_fraction)
    except AlignmentError as exc:
        return str(exc)
    return path.pairs, path.cost


def assert_same_alignment(template, observed, band_fraction=0.1):
    got = _outcome(dtw_align, template, observed, band_fraction)
    want = _outcome(dense_dtw_reference, template, observed, band_fraction)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got[0], want[0])
        assert type(got[1]) is float and got[1] == want[1]


@st.composite
def tie_prone_signal(draw):
    """Random, constant, {0, 1, 2}-valued or repeated-sample signals."""
    size = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "constant", "012", "repeats"]))
    if kind == "random":
        return rng.uniform(0.0, 1.0, size)
    if kind == "constant":
        return np.full(size, draw(st.sampled_from([0.0, 1.0, 0.3])))
    if kind == "012":
        return rng.integers(0, 3, size).astype(float)
    return np.repeat(rng.uniform(0.0, 1.0, size), rng.integers(1, 4, size))[:size]


@pytest.fixture(scope="module")
def sig_setup():
    mask = MaskGeometry(mode="inverse-pinhole")
    radar = default_radar_config(mask)
    samp = default_plane_sampling(radar, mask)
    rot = RotationSampling(500)
    return mask, radar, samp, rot


class TestSynthSignature:
    def test_constant_speed_matches_angle_function(self, sig_setup):
        mask, radar, samp, rot = sig_setup
        sig = synth_signature(mask, rot, np.full(rot.count, 600.0),
                              radar=radar, plane_sampling=samp)
        assert len(sig) == rot.count
        assert np.all(sig.samples >= 0)
        # uniform profile reproduces the uniform rotation angles exactly
        np.testing.assert_allclose(
            warped_rotation_angles(rot, np.full(rot.count, 600.0)),
            rot.angles_rad, atol=1e-12)

    def test_two_blades_halve_the_period(self, sig_setup):
        mask, radar, samp, rot = sig_setup
        from dataclasses import replace
        twin = replace(mask, blade_count=2)
        sig = synth_signature(twin, rot, np.full(rot.count, 600.0),
                              radar=radar, plane_sampling=samp)
        half = rot.count // 2
        # exact up to lattice-boundary cells flipping under angle roundoff
        np.testing.assert_allclose(sig.samples[:half], sig.samples[half:],
                                   atol=0.01 * sig.samples.max())

    def test_speed_ramp_shrinks_cycles(self, sig_setup):
        mask, radar, samp, rot = sig_setup
        from dataclasses import replace
        twin = replace(mask, blade_count=2)
        # +10% linear ramp: the second blade pass completes in fewer samples
        speeds = 600.0 * (1.0 + 0.1 * np.arange(rot.count) / rot.count)
        angles = warped_rotation_angles(rot, speeds)
        first = int(np.searchsorted(angles, math.pi))
        second = int(np.searchsorted(angles, 2 * math.pi - angles[1])) - first
        assert second < first

    def test_positive_speeds_required(self, sig_setup):
        mask, radar, samp, rot = sig_setup
        with pytest.raises(ParameterError):
            synth_signature(mask, rot, np.zeros(rot.count), radar=radar,
                            plane_sampling=samp)


class TestDtwAlign:
    def test_identity_alignment(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(0, 1, 64)
        path = dtw_align(_sig(s), _sig(s))
        assert path.cost == 0.0
        np.testing.assert_array_equal(path.pairs[:, 0], path.pairs[:, 1])

    def test_duplicated_samples_exact_stretch(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(0, 1, 40)
        doubled = np.repeat(s, 2)
        path = dtw_align(_sig(s), _sig(doubled, period=40))
        assert path.cost == pytest.approx(0.0, abs=1e-15)
        counts = np.bincount(path.pairs[:, 0], minlength=40)
        assert np.all(counts >= 2)
        assert path.pairs[-1, 1] == 79

    def test_boundary_and_monotonicity(self):
        rng = np.random.default_rng(2)
        a, b = rng.uniform(0, 1, 50), rng.uniform(0, 1, 55)
        path = dtw_align(_sig(a), _sig(b, period=50))
        assert tuple(path.pairs[0]) == (0, 0)
        assert tuple(path.pairs[-1]) == (49, 54)
        steps = np.diff(path.pairs, axis=0)
        assert steps.min() >= 0 and steps.max() <= 1
        assert np.all(steps.sum(axis=1) >= 1)

    def test_cost_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(0, 1, 48), rng.uniform(0, 1, 48)
        assert dtw_align(_sig(a), _sig(b)).cost == pytest.approx(
            dtw_align(_sig(b), _sig(a)).cost)

    def test_zero_cost_iff_equal_up_to_repeats(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.1, 1, 32)
        assert dtw_align(_sig(a), _sig(a)).cost == 0.0
        b = a.copy()
        b[10] += 0.2
        assert dtw_align(_sig(a), _sig(b)).cost > 0.0

    def test_empty_rejected(self):
        with pytest.raises((AlignmentError, ParameterError)):
            dtw_align(_sig(np.ones(4)), _sig(np.ones(0)))

    def test_wobble_inject_recover(self, sig_setup):
        mask, radar, samp, rot = sig_setup
        T = rot.count
        speeds = 600.0 * (1.0 + 0.05 * np.sin(2 * math.pi * np.arange(T) / T + 0.7))
        template = synth_signature(mask, rot, np.full(T, 600.0), radar=radar,
                                   plane_sampling=samp)
        observed = synth_signature(mask, rot, speeds, radar=radar,
                                   plane_sampling=samp)
        path = dtw_align(template, observed)
        mapping = path_observed_index(path, T)
        true_map = np.interp(rot.angles_rad,
                             warped_rotation_angles(rot, speeds), np.arange(T))
        err = np.abs(mapping - true_map)
        assert np.median(err) <= 1.0


    def test_band_fraction_must_be_positive_and_finite(self):
        s = _sig(np.linspace(0.0, 1.0, 8))
        for bad in (math.nan, -1.0, 0.0, math.inf, -math.inf):
            with pytest.raises(ParameterError):
                dtw_align(s, s, band_fraction=bad)


class TestBandedEqualsDense:
    """The banded DTW returns the dense DTW's path and cost bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(tie_prone_signal(), tie_prone_signal(),
           st.one_of(st.sampled_from([1e-3, 0.01, 0.1, 1.0, 2.0]),
                     st.floats(1e-3, 1.5)))
    def test_matches_dense_reference(self, a, b, band_fraction):
        assert_same_alignment(_sig(a), _sig(b), band_fraction)

    @pytest.mark.parametrize("n, m, band_fraction", [
        (2, 80, 0.01), (80, 2, 0.01), (1, 5, 0.1), (5, 1, 0.1), (1, 1, 0.5)])
    def test_one_sample_and_lopsided_lengths(self, n, m, band_fraction):
        rng = np.random.default_rng(n * 100 + m)
        assert_same_alignment(_sig(rng.uniform(0, 1, n)), _sig(rng.uniform(0, 1, m)),
                              band_fraction)

    def test_default_geometry_wobble(self, sig_setup):
        mask, radar, samp, rot = sig_setup
        T = rot.count
        speeds = 600.0 * (1.0 + 0.04 * np.sin(2 * math.pi * np.arange(T) / T + 1.3))
        template = synth_signature(mask, rot, np.full(T, 600.0), radar=radar,
                                   plane_sampling=samp)
        observed = synth_signature(mask, rot, speeds, radar=radar, plane_sampling=samp)
        assert_same_alignment(template, observed)


class TestResample:
    def test_identity_path_unchanged(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        pairs = np.stack([np.arange(32), np.arange(32)], axis=1)
        out = resample_to_uniform(MeasurementSet(y=y), WarpPath(pairs=pairs))
        np.testing.assert_allclose(out.y, y, atol=1e-15)

    def test_path_must_cover_measurements(self):
        y = np.ones(10, dtype=complex)
        pairs = np.stack([np.arange(5), np.arange(5)], axis=1)
        with pytest.raises(InterpolationError):
            resample_to_uniform(MeasurementSet(y=y), WarpPath(pairs=pairs))

    def test_warp_path_validation(self):
        with pytest.raises(ParameterError):
            WarpPath(pairs=np.array([[1, 0], [2, 1]]))  # must start at origin
        with pytest.raises(ParameterError):
            WarpPath(pairs=np.array([[0, 0], [2, 1]]))  # step too large


class TestRotationSignature:
    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            RotationSignature(samples=np.array([1.0, -0.1]),
                              nominal_period_samples=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            RotationSignature(samples=np.array([bad, 1.0, 2.0, 3.0]),
                              nominal_period_samples=4)
