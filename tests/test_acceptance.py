"""End-to-end acceptance suite.

Each test prints one PASS line with the measured quantities when its
criterion holds; a failed assertion marks the criterion red.  Heavy models
are shared through session fixtures.  Measurement conventions:

* "full rank" point-spread responses truncate at the numerical-rank floor
  (every singular value above 1e-10 of the largest).
* Classical SAR-bound anchors truncate at the informative plateau
  (rel_threshold 1e-2): evanescent modes below the plateau super-resolve
  noiseless projections in ways no physical system can use.
* Calibrated noise places the noise-equivalent cutoff at singular value 40
  with a study-specific margin (see mmpinhole.analysis.calibrate_noise_power).
* Two-point resolution targets are unit magnitude in phase quadrature, the
  deterministic stand-in for incoherent scatterers in the classical
  two-point resolution setting.
"""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import mmpinhole as mp
from mmpinhole import (MaskGeometry, MaskPlaneSampling, NoiseModel,
                       ReconConfig, RotationSampling, build_forward,
                       build_scene_grid, calibrate_noise_power,
                       default_plane_sampling, default_radar_config, factorize,
                       peaks_resolved, psf, reconstruct, rotational_power,
                       rpm_to_rad_s, sar_baseline, simulate)
from mmpinhole.mask import (count_null_events, null_signature, open_mask,
                            transmission_for)
from mmpinhole.propagation import assemble_oneway

SEED_BANK = 1000


def _noise(rng, sigma, n):
    return sigma / math.sqrt(2) * (rng.standard_normal(n)
                                   + 1j * rng.standard_normal(n))


# ---------------------------------------------------------------------------
# shared heavy fixtures

@pytest.fixture(scope="session")
def default_geometry():
    mask = MaskGeometry(mode="regular-pinhole")
    radar = default_radar_config(mask)
    rotation = RotationSampling(1000)
    sampling = default_plane_sampling(radar, mask)
    return mask, radar, rotation, sampling


@pytest.fixture(scope="session")
def psf_bundle(default_geometry):
    """Fine full-FoV grid: pinhole bi/uni plus SAR baselines, factorized."""
    mask, radar, rotation, sampling = default_geometry
    grid = build_scene_grid(20.0, -50, 50, 0.05, [0])
    trans = transmission_for(mask, rotation, sampling)
    tx, rx = assemble_oneway(radar, grid, mask, rotation, sampling, trans)
    bi = mp.ForwardModel(B=tx * rx, fingerprint="0" * 16,
                         directionality="bidirectional", grid=grid)
    uni = mp.ForwardModel(B=rx, fingerprint="1" * 16,
                          directionality="unidirectional", grid=grid)
    circ = sar_baseline("circular", mask.blade_length_m, radar, grid, positions=720)
    lin = sar_baseline("linear", 0.085, radar, grid, positions=257)
    return {
        "grid": grid,
        "bi": (bi, factorize(bi)),
        "uni": (uni, factorize(uni)),
        "circ": (circ, factorize(circ)),
        "lin": (lin, factorize(lin)),
    }


@pytest.fixture(scope="session")
def resolution_bundle():
    """Default inverse-pinhole system on the 0.25-degree grid (criterion 4)."""
    mask = MaskGeometry(mode="inverse-pinhole")
    radar = default_radar_config(mask)
    rotation = RotationSampling(1000)
    sampling = default_plane_sampling(radar, mask)
    grid = build_scene_grid(20.0, -50, 50, 0.25, [0])
    model = build_forward(radar, grid, mask, rotation, sampling, "bidirectional")
    return model, factorize(model)


@pytest.fixture(scope="session")
def scene_bundle():
    """Inverse-pinhole system on the 0.5-degree grid with an extended scene."""
    mask = MaskGeometry(mode="inverse-pinhole")
    radar = default_radar_config(mask)
    rotation = RotationSampling(1000)
    sampling = default_plane_sampling(radar, mask)
    grid = build_scene_grid(20.0, -50, 50, 0.5, [0])
    model = build_forward(radar, grid, mask, rotation, sampling, "bidirectional")
    fact = factorize(model)
    az = grid.azimuth_deg
    profile = np.zeros(az.size)
    for c0, w, a in ((-30, 1.5, 0.8), (-12, 2.5, 1.0), (3, 1.0, 0.6),
                     (20, 2.0, 0.9), (38, 1.2, 0.5)):
        profile += a * np.exp(-0.5 * ((az - c0) / w) ** 2)
    profile[grid.index_of(-45)] += 0.7
    profile[grid.index_of(30)] += 0.65
    rng = np.random.default_rng(11)
    x = profile * np.exp(1j * rng.uniform(0, 2 * math.pi, az.size))
    cfg40 = ReconConfig(sigma_max=40)
    truth_img = np.abs(x).reshape(grid.shape)
    ref40_img = reconstruct(fact, model.B @ x, cfg40).intensity
    return {
        "mask": mask, "radar": radar, "rotation": rotation,
        "sampling": sampling, "grid": grid, "model": model, "fact": fact,
        "x": x, "cfg40": cfg40,
        # truth reference scores absolute image fidelity (ablation study);
        # the noiseless k=40 reference isolates noise and motion effects
        "truth": (truth_img, (truth_img >= 0.01) & (truth_img <= 1.0)),
        "ref40": (ref40_img, (ref40_img >= 0.01) & (ref40_img <= 1.0)),
    }


def _windowed_mse(bundle, y, cfg=None, ref="ref40"):
    img = reconstruct(bundle["fact"], y, cfg or bundle["cfg40"]).intensity
    ref_img, window = bundle[ref]
    return 1e3 * float(np.mean((img[window] - ref_img[window]) ** 2))


# ---------------------------------------------------------------------------
# criteria

def test_c01_bidirectional_doubling(psf_bundle):
    cfg = ReconConfig(sigma_max=None)
    bi_model, bi_fact = psf_bundle["bi"]
    uni_model, uni_fact = psf_bundle["uni"]
    f_bi = psf(bi_model, 0.0, cfg, fact=bi_fact).fwhp_deg
    f_uni = psf(uni_model, 0.0, cfg, fact=uni_fact).fwhp_deg
    assert f_bi <= 0.55 * f_uni, (f_bi, f_uni)
    print(f"\n[C1] PASS bidirectional doubling: fwhp_bi={f_bi:.4f} deg, "
          f"fwhp_uni={f_uni:.4f} deg, ratio={f_bi / f_uni:.3f} <= 0.55")


def test_c02_sar_parity(psf_bundle):
    cfg = ReconConfig(sigma_max=None)
    bi_model, bi_fact = psf_bundle["bi"]
    circ_model, circ_fact = psf_bundle["circ"]
    f_bi = psf(bi_model, 0.0, cfg, fact=bi_fact).fwhp_deg
    f_sar = psf(circ_model, 0.0, cfg, fact=circ_fact).fwhp_deg
    rel = abs(f_bi - f_sar) / f_sar
    assert rel <= 0.20, (f_bi, f_sar)
    print(f"\n[C2] PASS SAR parity: fwhp_bi={f_bi:.4f} deg vs "
          f"fwhp_sar={f_sar:.4f} deg ({100 * rel:.1f}% <= 20%)")


def test_c03_sar_anchors(psf_bundle):
    cfg = ReconConfig(rel_threshold=1e-2)
    circ_model, circ_fact = psf_bundle["circ"]
    lin_model, lin_fact = psf_bundle["lin"]
    f_circ = psf(circ_model, 0.0, cfg, fact=circ_fact).fwhp_deg
    assert 0.30 <= f_circ <= 0.40, f_circ
    f_lin = psf(lin_model, 0.0, cfg, fact=lin_fact).fwhp_deg
    bound = math.degrees(4e-3 / (2 * 0.085))
    assert abs(f_lin - bound) / bound <= 0.15, (f_lin, bound)
    print(f"\n[C3] PASS SAR anchors: circular fwhp={f_circ:.4f} deg "
          f"(0.35 +- 0.05), linear fwhp={f_lin:.4f} deg vs bound "
          f"{bound:.4f} deg ({100 * abs(f_lin - bound) / bound:.1f}% <= 15%)")


def test_c04_resolution_bracket(resolution_bundle):
    model, fact = resolution_bundle
    grid = model.grid
    az = grid.azimuth_deg
    k = 40
    sigma_n = math.sqrt(calibrate_noise_power(fact.S, 40, margin=0.1))
    Uk = fact.U[:, :k]
    Sk = fact.S[:k]
    Vk = fact.V[:, :k]
    separations = (1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0)
    majorities = {}
    for sep in separations:
        j1, j2 = grid.index_of(0.0), grid.index_of(sep)
        x = np.zeros(grid.n_points, dtype=complex)
        x[j1], x[j2] = 1.0, 1.0j   # unit targets in phase quadrature
        y0 = model.B @ x
        hits = 0
        for s in range(20):
            rng = np.random.default_rng(SEED_BANK + s)
            y = y0 + _noise(rng, sigma_n, y0.size)
            x_hat = Vk @ ((Uk.conj().T @ y) / Sk)
            if peaks_resolved(az, np.abs(x_hat), az[j1], az[j2]):
                hits += 1
        majorities[sep] = hits
    resolved = {sep: hits >= 10 for sep, hits in majorities.items()}
    assert resolved[2.5], majorities
    assert not resolved[1.5], majorities
    transition = None
    for i, sep in enumerate(separations):
        if all(resolved[s] for s in separations[i:]):
            transition = sep
            break
    assert transition is not None and 1.9 <= transition <= 2.5, majorities
    counts = " ".join(f"{s}:{majorities[s]}" for s in separations)
    print(f"\n[C4] PASS resolution bracket: transition={transition:.2f} deg "
          f"(2.2 +- 0.3); resolved/20 by separation: {counts}")


def test_c05_inverse_spectrum_above_regular(scene_bundle):
    b = scene_bundle
    reg_mask = replace(b["mask"], mode="regular-pinhole")
    reg = build_forward(b["radar"], b["grid"], reg_mask, b["rotation"],
                        b["sampling"], "bidirectional")
    S_reg = np.linalg.svd(reg.B, compute_uv=False)
    S_inv = b["fact"].S
    # same simulator, same grid, same units: compare spectra directly, the
    # fixed-noise-floor comparison the inverse design argument rests on
    assert np.all(S_inv[:40] >= S_reg[:40])
    ratio = float(np.min(S_inv[:40] / S_reg[:40]))
    print(f"\n[C5] PASS inverse >= regular at first 40 indices "
          f"(min ratio {ratio:.2f})")


def test_c06_sigma_max_ordering(scene_bundle):
    b = scene_bundle
    S = b["fact"].S
    sigma_n = math.sqrt(calibrate_noise_power(S, 40, margin=0.8))
    ks = (10, 15, 20, 30, 40, 60, 80)
    y0 = b["model"].B @ b["x"]
    means = {}
    for k in ks:
        cfg = ReconConfig(sigma_max=k)
        acc = []
        for s in range(20):
            rng = np.random.default_rng(300 + s)
            acc.append(_windowed_mse(b, y0 + _noise(rng, sigma_n, y0.size),
                                     cfg, ref="truth"))
        means[k] = float(np.mean(acc))
    assert all(means[40] <= means[k] for k in ks), means
    assert means[80] >= 1.5 * means[40], means
    table = " ".join(f"{k}:{means[k]:.1f}" for k in ks)
    print(f"\n[C6] PASS sigma_max ordering (MSE x1e3): {table}; "
          f"mse80/mse40={means[80] / means[40]:.1f} >= 1.5")


def test_c07_background_subtraction_identity():
    mask = MaskGeometry(blade_count=1, blade_length_m=0.024,
                        blade_width_m=0.012, plane_depth_m=0.03,
                        axis_offset_m=0.015)
    radar = default_radar_config(mask, wavelength_m=0.04)
    rotation = RotationSampling(32)
    sampling = MaskPlaneSampling(spacing_m=0.02, extent_m=0.036,
                                 plane_depth_m=0.03)
    grid = build_scene_grid(2.0, -30, 30, 4.0, [0])
    assert rotation.count <= 64 and grid.n_points <= 32
    assert sampling.n_samples <= 256
    reg = transmission_for(replace(mask, mode="regular-pinhole"), rotation, sampling)
    inv = transmission_for(replace(mask, mode="inverse-pinhole"), rotation, sampling)
    opn = open_mask(rotation, sampling)
    args = (radar, grid, mask, rotation, sampling)
    (HFt, HF), (IFt, IF), (OFt, OF) = (assemble_oneway(*args, t) for t in (reg, inv, opn))
    residual_uni = float(np.abs((IF - OF) + HF).max())
    assert residual_uni < 1e-10, residual_uni
    residual_bi = float(np.abs((IFt * IF - OFt * OF) + HFt * HF).max())
    assert residual_bi > 1e6 * max(residual_uni, 1e-300)
    assert residual_bi > 1e-3 * float(np.abs(OFt * OF).max())
    print(f"\n[C7] PASS background subtraction: one-way residual "
          f"{residual_uni:.2e} < 1e-10; bidirectional residual "
          f"{residual_bi:.2e} (cross terms remain)")


def test_c08_exact_inversion_oracle():
    mask = MaskGeometry(mode="inverse-pinhole")
    radar = default_radar_config(mask)
    rotation = RotationSampling(256)
    sampling = default_plane_sampling(radar, mask)
    grid = build_scene_grid(20.0, -45, 45, 1.5, [0])
    model = build_forward(radar, grid, mask, rotation, sampling, "bidirectional")
    fact = factorize(model)
    cfg = ReconConfig(sigma_max=None)
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):
        x = np.zeros(grid.n_points, dtype=complex)
        idx = rng.choice(grid.n_points, 3, replace=False)
        x[idx] = rng.uniform(0.5, 1.5, 3) * np.exp(1j * rng.uniform(0, 2 * math.pi, 3))
        img = reconstruct(fact, model.B @ x, cfg)
        err = np.linalg.norm(img.complex_amplitude - x) / np.linalg.norm(x)
        worst = max(worst, float(err))
    assert worst < 1e-6, worst
    print(f"\n[C8] PASS exact inversion: worst relative error over 50 "
          f"3-sparse scenes = {worst:.2e} < 1e-6")


def test_c09_doppler_compensation(scene_bundle):
    b = scene_bundle
    sigma_n = math.sqrt(calibrate_noise_power(b["fact"].S, 40, margin=0.2))
    dt = mp.sample_interval_s(600.0, 1000)
    lam = b["radar"].wavelength_m
    v = 5.0
    T = b["model"].n_positions
    ramp = np.exp(2j * math.pi * 2 * v * np.arange(T) * dt / lam)
    y0 = b["model"].B @ b["x"]
    ms = {"static": [], "comp": [], "unc": []}
    for s in range(200):
        rng = np.random.default_rng(SEED_BANK + s)
        n = _noise(rng, sigma_n, T)
        ms["static"].append(_windowed_mse(b, y0 + n))
        y_moving = y0 * ramp + n
        ms["comp"].append(_windowed_mse(b, y_moving * np.conj(ramp)))
        ms["unc"].append(_windowed_mse(b, y_moving))
    static = float(np.mean(ms["static"]))
    comp = float(np.mean(ms["comp"]))
    unc = float(np.mean(ms["unc"]))
    assert abs(comp - static) <= 0.05 * static, (static, comp)
    assert unc >= 5.0 * static, (static, unc)
    print(f"\n[C9] PASS doppler compensation: MSE static={static:.3f}, "
          f"compensated={comp:.3f} ({100 * abs(comp - static) / static:.1f}% <= 5%), "
          f"uncompensated={unc:.2f} ({unc / static:.1f}x >= 5x)")


def test_c10_dtw_synchronization(scene_bundle):
    b = scene_bundle
    T = b["rotation"].count
    speeds = 600.0 * (1.0 + 0.05 * np.sin(2 * math.pi * np.arange(T) / T + 1.3))
    warped = RotationSampling.warped(mp.warped_rotation_angles(b["rotation"], speeds))
    model_w = build_forward(b["radar"], b["grid"], b["mask"], warped,
                            b["sampling"], "bidirectional")
    template = mp.synth_signature(b["mask"], b["rotation"], np.full(T, 600.0),
                                  radar=b["radar"], plane_sampling=b["sampling"])
    observed = mp.synth_signature(b["mask"], b["rotation"], speeds,
                                  radar=b["radar"], plane_sampling=b["sampling"])
    path = mp.dtw_align(template, observed)
    sigma_n = math.sqrt(calibrate_noise_power(b["fact"].S, 40, margin=0.4))
    ms = {"uniform": [], "corr": [], "unc": []}
    for s in range(12):
        noise_model = NoiseModel(sigma_n ** 2, seed=500 + s)
        y_u = simulate(b["model"], b["x"], noise_model)
        ms["uniform"].append(_windowed_mse(b, y_u.y))
        y_w = simulate(model_w, b["x"], noise_model)
        y_c = mp.resample_to_uniform(y_w, path)
        ms["corr"].append(_windowed_mse(b, y_c.y))
        ms["unc"].append(_windowed_mse(b, y_w.y))
    uniform = float(np.mean(ms["uniform"]))
    corr = float(np.mean(ms["corr"]))
    unc = float(np.mean(ms["unc"]))
    assert abs(corr - uniform) <= 0.10 * uniform, (uniform, corr)
    assert unc >= 2.0 * uniform, (uniform, unc)
    print(f"\n[C10] PASS dtw sync: MSE uniform={uniform:.3f}, "
          f"corrected={corr:.3f} ({100 * abs(corr - uniform) / uniform:.1f}% <= 10%), "
          f"uncorrected={unc:.3f} ({unc / uniform:.1f}x >= 2x)")


def test_c11_multi_blade_behavior():
    rotation = RotationSampling(1000)
    grid = build_scene_grid(20.0, -50, 50, 1.0, [0])
    jt = grid.index_of(10.0)
    results = {}
    for name, offset in (("centered", 0.0), ("offset", 0.12)):
        mask = MaskGeometry(blade_count=2, axis_offset_m=offset,
                            mode="inverse-pinhole")
        radar = default_radar_config(mask)
        sampling = default_plane_sampling(radar, mask)
        model = build_forward(radar, grid, mask, rotation, sampling,
                              "bidirectional")
        trace = null_signature(model, jt)
        timings, depths = count_null_events(trace, blade_count=2)
        fact = factorize(model)
        x = np.zeros(grid.n_points, dtype=complex)
        x[jt] = 1.0
        img = reconstruct(fact, model.B @ x, ReconConfig(sigma_max=40),)
        inten = img.intensity[0] / img.intensity.max()
        mirror = inten[grid.index_of(-10.0)]
        results[name] = (timings.size, float(min(depths, default=0.0)),
                         float(inten[jt]), float(mirror))
    # centered: both timing candidates per blade period -> ghost at -10 deg
    n_events, _, peak, mirror = results["centered"]
    assert n_events == 2, results
    assert peak >= 0.8 and mirror >= 0.8, results
    # offset: a single event per blade period -> unambiguous single peak
    n_events, depth, peak, mirror = results["offset"]
    assert n_events == 1, results
    assert depth > 6.0
    assert peak == 1.0 and mirror < 0.5, results
    print(f"\n[C11] PASS multi-blade: centered -> 2 null timings per blade "
          f"period with mirror ghost {results['centered'][3]:.2f}; offset -> "
          f"1 dominant null ({results['offset'][1]:.1f} dB) and single peak "
          f"(mirror {results['offset'][3]:.2f})")


def test_c12_noise_signal_independence():
    mask = MaskGeometry(mode="inverse-pinhole")
    radar = default_radar_config(mask)
    rotation = RotationSampling(256)
    sampling = default_plane_sampling(radar, mask)
    grid = build_scene_grid(20.0, -45, 45, 1.5, [0])
    model = build_forward(radar, grid, mask, rotation, sampling, "bidirectional")
    noise_power = 1e-4
    signal_power, noise_est = [], []
    for s in range(20):
        rng = np.random.default_rng(42 + s)
        amp = 10 ** rng.uniform(-1, 1)
        x = amp * (rng.standard_normal(grid.n_points)
                   + 1j * rng.standard_normal(grid.n_points)) / 10
        meas = simulate(model, x, NoiseModel(noise_power, seed=900 + s))
        clean = model.B @ x
        signal_power.append(float(np.mean(np.abs(clean) ** 2)))
        noise_est.append(float(np.mean(np.abs(meas.y - clean) ** 2)))
    X = np.column_stack([np.ones(20), signal_power])
    beta, *_ = np.linalg.lstsq(X, np.asarray(noise_est), rcond=None)
    resid = noise_est - X @ beta
    se = math.sqrt(float(resid @ resid) / 18 * np.linalg.inv(X.T @ X)[1, 1])
    t = stats.t.ppf(0.975, 18)
    lo, hi = beta[1] - t * se, beta[1] + t * se
    assert lo <= 0.0 <= hi, (lo, hi)
    print(f"\n[C12] PASS noise independence: slope 95% CI "
          f"[{lo:.2e}, {hi:.2e}] contains 0 over 20 scenes")


def test_c13_rotation_power():
    omega = rpm_to_rad_s(600.0)
    p_mask = rotational_power(0.010, 0.16, omega)
    p_radar = rotational_power(0.120, 0.0225, omega)
    assert p_mask == pytest.approx(0.986, abs=0.001)
    assert p_radar == pytest.approx(1.664, abs=0.001)
    assert p_mask < p_radar
    print(f"\n[C13] PASS rotation power: 10 g at 16 cm -> {p_mask:.3f} W < "
          f"120 g at 2.25 cm -> {p_radar:.3f} W")


def test_c14_cli_determinism(tmp_path):
    from mmpinhole.cli import main
    config = {
        "radar": {"wavelength_m": 0.04},
        "mask": {"blade_count": 1, "blade_length_m": 0.12,
                 "blade_width_m": 0.02, "plane_depth_m": 0.06,
                 "axis_offset_m": 0.06, "attenuation_db": "inf",
                 "mode": "inverse-pinhole"},
        "rotation": {"positions_per_rotation": 64},
        "grid": {"range_m": 2.0, "az_min_deg": -30.0, "az_max_deg": 30.0,
                 "az_step_deg": 2.0, "elevations_deg": [0.0]},
        "scene": {"targets": [{"azimuth_deg": -8.0, "amplitude": 1.0},
                              {"azimuth_deg": 12.0, "amplitude": 0.7,
                               "phase_deg": 90.0}]},
        "noise": {"noise_power": 1e-8, "seed": 7},
        "recon": {"sigma_max": 12, "normalize": True},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config, indent=1))

    def run_all(tag):
        out = tmp_path / tag
        assert main(["simulate", str(cfg_path), "--out-dir", str(out / "sim")]) == 0
        assert main(["reconstruct", str(out / "sim" / "measurements.bin"),
                     "--config", str(cfg_path),
                     "--reference", str(out / "sim" / "truth.csv"),
                     "--out-dir", str(out / "rec")]) == 0
        assert main(["analyze", "svd", "--config", str(cfg_path),
                     "--out-dir", str(out / "svd")]) == 0
        assert main(["analyze", "power", "--config", str(cfg_path),
                     "--out-dir", str(out / "pow")]) == 0
        return out

    a, b = run_all("a"), run_all("b")
    compared = []
    for rel in ("sim/measurements.bin", "sim/measurements.csv", "sim/model.bin",
                "sim/truth.csv", "rec/image.pgm", "rec/image.csv",
                "rec/metrics.csv", "svd/svd.csv", "pow/power.csv"):
        pa, pb = a / rel, b / rel
        assert pa.read_bytes() == pb.read_bytes(), rel
        compared.append(rel)
    print(f"\n[C14] PASS CLI determinism: {len(compared)} artifacts "
          f"byte-identical across reruns")
