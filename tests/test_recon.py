import numpy as np
import pytest

from mmpinhole import (ForwardModel, ReconConfig, build_forward, build_scene_grid,
                       factorize, numerical_rank, reconstruct)
from mmpinhole.errors import (NumericError, ParameterError, RankDeficiencyError,
                              ShapeError)
from mmpinhole.recon import image_to_csv, image_to_pgm


def _random_model(T=48, N=20, seed=0, rank=None):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((T, N)) + 1j * rng.standard_normal((T, N))
    if rank is not None:
        U, S, Vh = np.linalg.svd(B, full_matrices=False)
        S[rank:] = 0.0
        B = (U * S) @ Vh
    grid = build_scene_grid(10.0, 0, N - 1.0, 1.0, [0])
    return ForwardModel(B=B, fingerprint="f" * 16, directionality="bidirectional",
                        grid=grid)


class TestFactorize:
    def test_identity_all_ones(self):
        model = _random_model()
        model = ForwardModel(B=np.eye(12, dtype=complex), fingerprint="a" * 16,
                             directionality="bidirectional",
                             grid=build_scene_grid(1.0, 0, 11, 1.0, [0]))
        fact = factorize(model)
        np.testing.assert_allclose(fact.S, np.ones(12), atol=1e-12)

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        B = np.outer(u, v.conj())
        model = ForwardModel(B=B, fingerprint="b" * 16,
                             directionality="bidirectional",
                             grid=build_scene_grid(1.0, 0, 7, 1.0, [0]))
        fact = factorize(model)
        assert fact.S[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))
        assert np.all(fact.S[1:] < 1e-12 * fact.S[0])

    def test_reconstruction_residual(self):
        model = _random_model(seed=7)
        fact = factorize(model)
        approx = (fact.U * fact.S) @ fact.V.conj().T
        rel = np.linalg.norm(approx - model.B) / np.linalg.norm(model.B)
        assert rel < 1e-12

    def test_orthonormal_columns(self):
        fact = factorize(_random_model(seed=3))
        gram_u = fact.U.conj().T @ fact.U
        gram_v = fact.V.conj().T @ fact.V
        assert np.abs(gram_u - np.eye(gram_u.shape[0])).max() < 1e-6
        assert np.abs(gram_v - np.eye(gram_v.shape[0])).max() < 1e-6

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_b_rejected(self, bad):
        # B is checked at construction, but its array stays writable; the SVD
        # itself skips the check, so factorize's own scan is the only one
        model = _random_model()
        model.B[2, 3] = bad
        with pytest.raises(NumericError, match="non-finite"):
            factorize(model)

    @pytest.mark.parametrize("name", ["U", "S", "V"])
    @pytest.mark.parametrize("source", ["kept", "other"])
    def test_factors_are_read_only(self, toy_radar, toy_grid, toy_mask, toy_rotation,
                                   toy_sampling, svd_calls, name, source):
        # a kept factorization is handed to every caller on the kept geometry
        if source == "kept":
            model = build_forward(toy_radar, toy_grid, toy_mask, toy_rotation,
                                  toy_sampling)
            assert factorize(model) is factorize(model)
        else:
            model = _random_model()
        array = getattr(factorize(model), name)
        with pytest.raises(ValueError):
            array[0] = 0.0
        with pytest.raises(ValueError):
            array *= 2.0
        assert svd_calls.svd == 1


class TestReconstruct:
    def test_exact_inversion_of_impulse(self):
        model = _random_model(seed=11)
        fact = factorize(model)
        x = np.zeros(model.n_points, dtype=complex)
        x[5] = 1.0
        img = reconstruct(fact, model.B @ x, ReconConfig(sigma_max=None))
        err = np.linalg.norm(img.complex_amplitude - x) / np.linalg.norm(x)
        assert err < 1e-10
        assert int(np.argmax(img.intensity.ravel())) == 5

    def test_monotone_truncation_error(self):
        model = _random_model(seed=13)
        fact = factorize(model)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(model.n_points) + 1j * rng.standard_normal(model.n_points)
        y = model.B @ x
        errs = []
        for k in range(1, model.n_points + 1):
            img = reconstruct(fact, y, ReconConfig(sigma_max=k))
            errs.append(np.linalg.norm(img.complex_amplitude - x))
        assert np.all(np.diff(errs) < 1e-9)

    def test_scaling_equivariance(self):
        model = _random_model(seed=17)
        fact = factorize(model)
        rng = np.random.default_rng(4)
        y = rng.standard_normal(model.n_positions) + 1j * rng.standard_normal(model.n_positions)
        alpha = 1.7 - 2.2j
        a = reconstruct(fact, alpha * y, ReconConfig(sigma_max=10))
        b = reconstruct(fact, y, ReconConfig(sigma_max=10))
        np.testing.assert_allclose(a.complex_amplitude,
                                   alpha * b.complex_amplitude, rtol=1e-10)

    def test_permutation_consistency(self):
        model = _random_model(seed=19)
        rng = np.random.default_rng(6)
        perm = rng.permutation(model.n_points)
        permuted = ForwardModel(B=model.B[:, perm], fingerprint="c" * 16,
                                directionality="bidirectional", grid=model.grid)
        y = rng.standard_normal(model.n_positions) + 1j * rng.standard_normal(model.n_positions)
        x1 = reconstruct(factorize(model), y, ReconConfig(sigma_max=None)).complex_amplitude
        x2 = reconstruct(factorize(permuted), y, ReconConfig(sigma_max=None)).complex_amplitude
        np.testing.assert_allclose(x2, x1[perm], rtol=1e-8, atol=1e-10)

    def test_rank_deficiency_error(self):
        model = _random_model(seed=23, rank=4)
        fact = factorize(model)
        with pytest.raises(RankDeficiencyError):
            reconstruct(fact, model.B[:, 0], ReconConfig(sigma_max=10))

    def test_sigma_max_bounds(self):
        model = _random_model()
        fact = factorize(model)
        with pytest.raises(ParameterError):
            reconstruct(fact, model.B[:, 0], ReconConfig(sigma_max=model.n_points + 5))
        with pytest.raises(ParameterError):
            ReconConfig(sigma_max=0)

    def test_rel_threshold_mode(self):
        model = _random_model(seed=29, rank=6)
        fact = factorize(model)
        img = reconstruct(fact, model.B[:, 1], ReconConfig(sigma_max=None,
                                                           rel_threshold=1e-6))
        assert img.truncation_used == 6

    def test_rel_threshold_overrides_sigma_max(self):
        S = factorize(_random_model(seed=29, rank=6)).S
        assert ReconConfig(sigma_max=2, rel_threshold=1e-6).truncation(S) == 6

    def test_normalize_output(self):
        model = _random_model(seed=31)
        fact = factorize(model)
        img = reconstruct(fact, model.B[:, 2],
                          ReconConfig(sigma_max=None, normalize_output=True))
        assert img.intensity.max() == pytest.approx(1.0)

    def test_length_checked(self):
        model = _random_model()
        fact = factorize(model)
        with pytest.raises(ShapeError):
            reconstruct(fact, np.ones(model.n_positions + 1, dtype=complex),
                        ReconConfig(sigma_max=4))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("where", [3, slice(None)])
    def test_non_finite_y_rejected(self, bad, where):
        model = _random_model()
        fact = factorize(model)
        y = model.B[:, 0].copy()
        y[where] = bad
        with pytest.raises(NumericError):
            reconstruct(fact, y, ReconConfig(sigma_max=4))


class TestMultiElevationPipeline:
    def test_three_ring_grid_end_to_end(self, toy_radar, toy_mask, toy_rotation,
                                        toy_sampling, tmp_path):
        # the whole chain, simulate through export, on a 3-elevation grid
        from mmpinhole import NoiseModel, build_forward, build_scene_grid, simulate
        grid = build_scene_grid(2.0, -20, 20, 5.0, [-10.0, 0.0, 10.0])
        model = build_forward(toy_radar, grid, toy_mask, toy_rotation,
                              toy_sampling, "bidirectional")
        x = np.zeros(grid.n_points, dtype=complex)
        x[grid.index_of(0.0, 0.0)] = 1.0
        y = simulate(model, x, NoiseModel(0.0))
        img = reconstruct(factorize(model), y.y,
                          ReconConfig(sigma_max=None, normalize_output=True))
        assert img.intensity.shape == (3, grid.n_azimuth)
        el_row, az_col = np.unravel_index(np.argmax(img.intensity),
                                          img.intensity.shape)
        assert el_row == 1 and grid.azimuth_deg[az_col] == 0.0
        image_to_pgm(tmp_path / "multi.pgm", img)
        header = (tmp_path / "multi.pgm").read_bytes().split(b"\n", 3)
        assert header[1] == f"{grid.n_azimuth} 3".encode()
        image_to_csv(tmp_path / "multi.csv", img)
        rows = np.loadtxt(tmp_path / "multi.csv", delimiter=",", skiprows=1)
        assert rows.shape == (grid.n_points, 3)


class TestNumericalRank:
    def test_counts_above_floor(self):
        S = np.array([1.0, 0.5, 1e-3, 1e-12])
        assert numerical_rank(S, rtol=1e-10) == 3
        assert numerical_rank(S, rtol=1e-2) == 2
        assert numerical_rank(np.array([])) == 0


class TestExports:
    def _image(self):
        model = _random_model(seed=37)
        fact = factorize(model)
        return reconstruct(fact, model.B[:, 4],
                           ReconConfig(sigma_max=None, normalize_output=True))

    def test_pgm_format_and_determinism(self, tmp_path):
        img = self._image()
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        image_to_pgm(p1, img)
        image_to_pgm(p2, img)
        data = p1.read_bytes()
        assert data.startswith(b"P5\n")
        h, w = img.intensity.shape
        assert data == p2.read_bytes()
        header = data.split(b"\n", 3)
        assert header[1] == f"{w} {h}".encode()
        assert len(header[3]) == h * w

    def test_csv_roundtrip(self, tmp_path):
        img = self._image()
        path = tmp_path / "img.csv"
        image_to_csv(path, img)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, 2], img.intensity.ravel(), rtol=1e-12)
