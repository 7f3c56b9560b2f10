import json
import os

import numpy as np
import pytest

from mmpinhole.cli import load_config, main

# small, fast experiment: centimeter wavelength keeps the mask lattice tiny
BASE_CONFIG = {
    "radar": {"wavelength_m": 0.04, "colocated": False, "separation_m": 0.01,
              "azimuth_fov_deg": 50.0, "elevation_fov_deg": 20.0},
    "mask": {"blade_count": 1, "blade_length_m": 0.12, "blade_width_m": 0.02,
             "plane_depth_m": 0.06, "axis_offset_m": 0.06,
             "attenuation_db": "inf", "mode": "inverse-pinhole"},
    "rotation": {"positions_per_rotation": 64, "rpm": 600.0},
    "grid": {"range_m": 2.0, "az_min_deg": -30.0, "az_max_deg": 30.0,
             "az_step_deg": 2.0, "elevations_deg": [0.0]},
    "scene": {"targets": [{"azimuth_deg": -8.0, "amplitude": 1.0},
                          {"azimuth_deg": 12.0, "amplitude": 0.7,
                           "phase_deg": 90.0}]},
    "noise": {"noise_power": 1e-8, "seed": 7},
    "recon": {"sigma_max": 12, "normalize": True},
    "forward": {"directionality": "bidirectional"},
    "output": {"directory": "."},
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for section, vals in overrides.items():
        if isinstance(vals, dict):
            cfg.setdefault(section, {}).update(vals)
        else:
            cfg[section] = vals
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def read_bytes(*parts):
    with open(os.path.join(*parts), "rb") as fh:
        return fh.read()


class TestSimulate:
    def test_valid_config_writes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
        for name in ("measurements.bin", "measurements.csv", "model.bin",
                     "truth.csv", "manifest.json"):
            assert (out / name).exists()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", cfg, "--out-dir", str(out1)]) == 0
        assert main(["simulate", cfg, "--out-dir", str(out2)]) == 0
        for name in ("measurements.bin", "measurements.csv", "truth.csv"):
            assert read_bytes(out1, name) == read_bytes(out2, name)

    def test_blade_count_three_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mask={"blade_count": 3})
        assert main(["simulate", cfg]) == 2
        assert "unsupported" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mask={"blade_span": 1.0})
        assert main(["simulate", cfg]) == 2
        assert "blade_span" in capsys.readouterr().err

    def test_non_finite_target_is_numeric_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scene={"targets": [
            {"azimuth_deg": 0.0, "amplitude": float("nan")}]})
        assert main(["simulate", cfg, "--out-dir", str(tmp_path / "nan")]) == 4
        assert "numeric failure" in capsys.readouterr().err

    def test_invalid_json_line_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n "radar": {,}\n}\n')
        assert main(["simulate", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err


class TestReconstruct:
    @pytest.fixture()
    def simulated(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
        return cfg, out

    def test_image_and_metrics(self, simulated, tmp_path):
        cfg, sim = simulated
        out = tmp_path / "rec"
        rc = main(["reconstruct", str(sim / "measurements.bin"),
                   "--config", cfg, "--reference", str(sim / "truth.csv"),
                   "--out-dir", str(out)])
        assert rc == 0
        assert (out / "image.pgm").exists()
        assert (out / "image.csv").exists()
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "sigma_max,sharpness,mse,ssim,chamfer_m"
        assert len(metrics) == 2

    def test_recovers_two_targets(self, simulated, tmp_path):
        cfg, sim = simulated
        out = tmp_path / "rec2"
        main(["reconstruct", str(sim / "measurements.bin"), "--config", cfg,
              "--out-dir", str(out)])
        rows = np.loadtxt(out / "image.csv", delimiter=",", skiprows=1)
        inten = rows[:, 2]
        az = rows[:, 0]
        peaks = np.flatnonzero((inten[1:-1] >= inten[:-2])
                               & (inten[1:-1] > inten[2:])) + 1
        top2 = np.sort(az[peaks[np.argsort(inten[peaks])[-2:]]])
        assert abs(top2[0] - (-8.0)) <= 2.0
        assert abs(top2[1] - 12.0) <= 2.0

    def test_sigma_max_ablation_rows(self, simulated, tmp_path):
        cfg, sim = simulated
        out = tmp_path / "rec3"
        rc = main(["reconstruct", str(sim / "measurements.bin"),
                   "--config", cfg, "--sigma-max", "4,8,12",
                   "--reference", str(sim / "truth.csv"),
                   "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 4
        for k in (4, 8, 12):
            assert (out / f"image_k{k}.pgm").exists()

    def test_sigma_max_zero_rejected(self, simulated, tmp_path):
        cfg, sim = simulated
        rc = main(["reconstruct", str(sim / "measurements.bin"),
                   "--config", cfg, "--sigma-max", "0",
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_fingerprint_mismatch(self, simulated, tmp_path):
        cfg, sim = simulated
        other = write_config(tmp_path, "other.json",
                             mask={"blade_width_m": 0.010})
        rc = main(["reconstruct", str(sim / "measurements.bin"),
                   "--config", other, "--out-dir", str(tmp_path / "y")])
        assert rc == 3

    @pytest.mark.parametrize("resize", ["truncated", "padded"])
    def test_resized_measurements_are_data_mismatch(self, simulated, tmp_path,
                                                    capsys, resize):
        cfg, sim = simulated
        raw = (sim / "measurements.bin").read_bytes()
        bad = tmp_path / f"{resize}.bin"
        bad.write_bytes(raw[:-8] if resize == "truncated" else raw + b"\x00" * 8)
        rc = main(["reconstruct", str(bad), "--config", cfg,
                   "--out-dir", str(tmp_path / resize)])
        assert rc == 3
        assert "data mismatch" in capsys.readouterr().err

    def test_determinism(self, simulated, tmp_path):
        cfg, sim = simulated
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(["reconstruct", str(sim / "measurements.bin"), "--config", cfg,
                  "--reference", str(sim / "truth.csv"), "--out-dir", str(out)])
            outs.append(out)
        for name in ("image.pgm", "image.csv", "metrics.csv"):
            assert read_bytes(outs[0], name) == read_bytes(outs[1], name)


class TestAnalyze:
    def test_svd_two_spectra(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "svd"
        assert main(["analyze", "svd", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "svd.csv").read_text().splitlines()
        assert lines[0] == "index,sigma_bidirectional,sigma_unidirectional"
        data = np.loadtxt(out / "svd.csv", delimiter=",", skiprows=1)
        assert data.shape[1] == 3
        assert np.all(np.diff(data[:, 1]) <= 1e-12)

    def test_psf_outputs_fwhp(self, tmp_path):
        cfg = write_config(tmp_path, analysis={"psf_kind": "sar-linear",
                                               "psf_extent_m": 0.3,
                                               "sar_positions": 65})
        out = tmp_path / "psf"
        assert main(["analyze", "psf", "--config", cfg, "--out-dir", str(out)]) == 0
        text = (out / "psf.csv").read_text()
        assert text.startswith("# fwhp_deg,")

    def test_power_comparison(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "power"
        assert main(["analyze", "power", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "power.csv").read_text().splitlines()
        assert lines[0] == "label,mass_kg,radius_m,rpm,power_w"
        rows = {ln.split(",")[0]: float(ln.split(",")[-1]) for ln in lines[1:]}
        assert rows["rotating-mask"] < rows["spinning-radar-sar"]

    def test_sweep_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            grid={"range_m": 2.0, "az_min_deg": -20.0, "az_max_deg": 20.0,
                  "az_step_deg": 1.0, "elevations_deg": [0.0]},
            analysis={"sweep_parameter": "width",
                      "sweep_values": [0.008, 0.012]})
        out = tmp_path / "sweep"
        assert main(["analyze", "sweep", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,fwhp_deg,sigma_1,sigma_40,usable_count"
        assert len(lines) == 3

    def test_analyze_determinism(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            main(["analyze", "svd", "--config", cfg, "--out-dir", str(out)])
            outs.append(out)
        assert read_bytes(outs[0], "svd.csv") == read_bytes(outs[1], "svd.csv")


class TestConfigRoundTrip:
    def test_reserialized_config_materializes_identically(self, tmp_path):
        cfg_path = write_config(tmp_path)
        cfg = load_config(cfg_path)
        rewritten = tmp_path / "rewritten.json"
        rewritten.write_text(json.dumps(cfg.raw, indent=2))
        cfg2 = load_config(str(rewritten))
        from mmpinhole import config_fingerprint
        fp1 = config_fingerprint(cfg.radar, cfg.grid, cfg.mask, cfg.rotation,
                                 cfg.sampling, cfg.directionality)
        fp2 = config_fingerprint(cfg2.radar, cfg2.grid, cfg2.mask, cfg2.rotation,
                                 cfg2.sampling, cfg2.directionality)
        assert fp1 == fp2
        assert cfg.targets == cfg2.targets
        assert cfg.noise == cfg2.noise
