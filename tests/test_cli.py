import csv
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

from mmpinhole import (MaskGeometry, MaskPlaneSampling, MaskTransmission,
                       RadarConfig, SceneGrid, build_forward)
from mmpinhole.cli import load_config, main
from mmpinhole.errors import ConfigError, ParameterError

NAN = float("nan")

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


def run_child(args):
    """``python args`` with this tree's package first on the path."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)


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

    @pytest.mark.parametrize("noise", [
        {"noise_power": float("nan")}, {"noise_power": float("inf")},
        {"snr_db": float("nan")}, {"snr_db": "high"}])
    def test_bad_noise_setting_is_config_error(self, tmp_path, capsys, noise):
        cfg = write_config(tmp_path, noise=noise)
        with pytest.raises(ConfigError, match="noise"):
            load_config(cfg)
        assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: noise." in capsys.readouterr().err

    @pytest.mark.parametrize("snr_db", [-4000.0, 4000.0])
    def test_out_of_range_snr_is_config_error(self, tmp_path, capsys, snr_db):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["noise"] = {"snr_db": snr_db, "seed": 7}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "floating-point range" in capsys.readouterr().err

    def test_snr_beside_noise_power_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, noise={"snr_db": 20.0})  # beside noise_power
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="noise.noise_power .* noise.snr_db"):
            load_config(cfg)
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: noise.noise_power")
        assert not out.exists()
        # a null snr_db leaves noise_power in charge
        cfg = write_config(tmp_path, noise={"snr_db": None})
        assert load_config(cfg).noise.noise_power == 1e-8

    @pytest.mark.parametrize("key,value", [
        ("azimuth_deg", 85.0), ("azimuth_deg", -30.5), ("elevation_deg", 40.0),
        ("elevation_deg", -0.1)])
    def test_target_outside_grid_is_config_error(self, tmp_path, capsys, key, value):
        target = {"azimuth_deg": 0.0, key: value}
        cfg = write_config(tmp_path, scene={"targets": [
            {"azimuth_deg": 10.0}, target]})
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=rf"scene\.targets\[1\]\.{key}"):
            load_config(cfg)
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: scene.targets[1].{key}")
        assert not out.exists()

    def test_target_between_bins_snaps_to_nearest(self, tmp_path):
        # bins run -30, -28, ..., 30 at elevation 0
        cfg = write_config(tmp_path, scene={"targets": [
            {"azimuth_deg": 30.0}, {"azimuth_deg": -29.2, "amplitude": 0.5}]})
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
        with open(out / "truth.csv", newline="") as fh:
            rows = [(float(az), float(v)) for az, _, v in list(csv.reader(fh))[1:]]
        assert [row for row in rows if row[1]] == [(-30.0, 0.5), (30.0, 1.0)]

    def test_invalid_json_line_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n "radar": {,}\n}\n')
        assert main(["simulate", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        {"radar": {"wavelength_m": NAN}},
        {"sampling": {"spacing_m": NAN}},
        {"rotation": {"rpm": NAN}},
        {"scene": {"targets": [{"azimuth_deg": NAN}]}},
        {"rotation": {"positions_per_rotation": 64.5}},
        lambda: MaskTransmission(n_samples=3, inside_amp=NAN,
                                 footprint_indices=[np.empty(0, dtype=int)] * 2),
        lambda: SceneGrid(range_m=NAN, azimuth_deg=[0.0], elevation_deg=[0.0]),
        lambda: RadarConfig(wavelength_m=NAN, tx_position=(0.0, 0.0, 0.0),
                            rx_position=(0.0, 0.0, 0.0), azimuth_fov_deg=50.0,
                            elevation_fov_deg=20.0),
        lambda: MaskGeometry(plane_depth_m=NAN),
        {"analysis": {"power_cases": [{"label": "a", "mass_kg": 0.01,
                                       "radius_m": 0.1}]}},
        {"analysis": {"power_cases": [{"label": "a", "mass_kg": "abc",
                                       "radius_m": 0.1, "rpm": 600.0}]}},
        {"analysis": {"psf_target_deg": "abc"}},
        {"analysis": {"sar_positions": "many"}},
        {"analysis": {"sweep_values": "abc"}},
        {"radar": {"colocated": "false"}},
        {"recon": {"normalize": "no"}},
        {"forward": {"directionality": "sideways"}},
        {"analysis": {"psf_kind": "foo"}},
        {"analysis": {"sweep_parameter": "foo"}},
    ], ids=["wavelength", "spacing", "rpm", "target-azimuth", "positions",
            "transmission", "grid-range", "radar-wavelength", "mask-depth",
            "power-no-rpm", "power-mass-string", "psf-target", "sar-positions",
            "sweep-values", "colocated-string", "normalize-string",
            "directionality-name", "psf-kind-name", "sweep-parameter-name"])
    def test_nan_or_fractional_count_rejected(self, tmp_path, capsys, case):
        if callable(case):
            with pytest.raises(ParameterError):
                case()
            return
        cfg = write_config(tmp_path, **case)
        assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error:")


    def test_scene_point_on_mask_plane_is_config_error(self, tmp_path, capsys):
        # the boresight point at the plane depth is a lattice cell
        cfg = write_config(tmp_path, grid={"range_m": BASE_CONFIG["mask"]["plane_depth_m"]})
        assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert "coincides with a mask-plane sample" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"grid": {"range_m": 0.03}},
        {"mask": {"plane_depth_m": 1e20}},
    ], ids=["range-inside-plane-depth", "plane-beyond-grid"])
    def test_scene_in_front_of_mask_plane_is_config_error(self, tmp_path, capsys,
                                                          overrides):
        sim = tmp_path / "sim"
        assert main(["simulate", write_config(tmp_path, "good.json"),
                     "--out-dir", str(sim)]) == 0
        cfg = write_config(tmp_path, **overrides)
        for argv in (["simulate", cfg, "--out-dir", str(tmp_path / "out")],
                     ["reconstruct", str(sim / "measurements.bin"), "--config", cfg,
                      "--out-dir", str(tmp_path / "rec")],
                     ["analyze", "svd", "--config", cfg, "--out-dir", str(tmp_path / "svd")]):
            capsys.readouterr()
            assert main(argv) == 2, argv
            assert "in front of the mask plane" in capsys.readouterr().err
        assert not (tmp_path / "out" / "measurements.bin").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("overrides", [
        {"mask": {"axis_offset_m": 1e300}},
        {"mask": {"plane_depth_m": 1e300}},
        {"grid": {"range_m": 1e300}},
    ], ids=["axis-offset", "plane-depth", "range"])
    def test_overflowing_distances_are_config_error(self, tmp_path, capsys, overrides):
        # squared distances would overflow: rejected before any is computed
        cfg = write_config(tmp_path, **overrides)
        for argv in (["simulate", cfg, "--out-dir", str(tmp_path / "out")],
                     ["analyze", "svd", "--config", cfg, "--out-dir", str(tmp_path / "svd")]):
            capsys.readouterr()
            assert main(argv) == 2, argv
            assert "overflow the squared distances" in capsys.readouterr().err

    def test_measurements_beyond_float32_are_numeric_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scene={"targets": [
            {"azimuth_deg": 0.0, "amplitude": 1e300}]})
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 4
        assert capsys.readouterr().err.startswith("numeric failure:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "reconstruct", "analyze"])
    @pytest.mark.parametrize("cause", ["is-a-file", "under-a-file", "nul-byte"])
    def test_uncreatable_output_directory_is_config_error(self, tmp_path, capsys,
                                                          command, cause):
        # the directory is made at the first write, once the outputs are computed
        cfg = write_config(tmp_path)
        sim = tmp_path / "sim"
        assert main(["simulate", cfg, "--out-dir", str(sim)]) == 0
        (tmp_path / "file").write_text("")
        out = {"is-a-file": str(tmp_path / "file"),
               "under-a-file": str(tmp_path / "file" / "out"),
               "nul-byte": str(tmp_path / "o\0ut")}[cause]
        argv = {"simulate": ["simulate", cfg],
                "reconstruct": ["reconstruct", str(sim / "measurements.bin"),
                                "--config", cfg],
                "analyze": ["analyze", "svd", "--config", cfg]}[command]
        capsys.readouterr()
        assert main([*argv, "--out-dir", out]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: cannot create output directory")


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
        # zero, and a count above the rank of the 31-column model
        for sigma_max in ("0", "5,100"):
            rc = main(["reconstruct", str(sim / "measurements.bin"),
                       "--config", cfg, "--sigma-max", sigma_max,
                       "--out-dir", str(tmp_path / "x")])
            assert rc == 2

    def test_sigma_max_with_rel_threshold_rejected(self, simulated, tmp_path, capsys):
        _, sim = simulated
        cfg = write_config(tmp_path, "rel.json",
                           recon={"sigma_max": None, "rel_threshold": 0.05})
        out = tmp_path / "rec"
        rc = main(["reconstruct", str(sim / "measurements.bin"), "--config", cfg,
                   "--sigma-max", "5,12", "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: --sigma-max")
        assert not list(out.glob("*"))

    def test_config_sigma_max_with_rel_threshold_rejected(self, simulated, tmp_path,
                                                           capsys):
        _, sim = simulated
        cfg = write_config(tmp_path, "both.json", recon={"rel_threshold": 0.05})
        with pytest.raises(ConfigError, match="recon.sigma_max"):
            load_config(cfg)
        out = tmp_path / "rec"
        rc = main(["reconstruct", str(sim / "measurements.bin"), "--config", cfg,
                   "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: recon.sigma_max")
        assert not out.exists()

    def test_rel_threshold_reports_no_count(self, simulated, tmp_path):
        _, sim = simulated
        config = json.loads(json.dumps(BASE_CONFIG))
        config["recon"] = {"normalize": True, "rel_threshold": 0.05}
        cfg = tmp_path / "rel.json"
        cfg.write_text(json.dumps(config))
        assert load_config(cfg).recon.sigma_max is None
        out = tmp_path / "rec"
        rc = main(["reconstruct", str(sim / "measurements.bin"), "--config", str(cfg),
                   "--reference", str(sim / "truth.csv"), "--out-dir", str(out)])
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())["sigma_max"] == [None]
        row = (out / "metrics.csv").read_text().splitlines()[1]
        assert row.startswith(",") and len(row.split(",")) == 5

    @pytest.mark.parametrize("case", ["sigma-max-above-rank", "all-zero-reference"])
    def test_failure_writes_no_images_or_metrics(self, simulated, tmp_path, case):
        cfg, sim = simulated
        args = ["--reference", str(sim / "truth.csv")]
        if case == "sigma-max-above-rank":
            args += ["--sigma-max", "5,100"]
        else:
            empty = write_config(tmp_path, "empty.json", scene={"targets": []})
            assert main(["simulate", empty, "--out-dir", str(tmp_path / "empty")]) == 0
            args = ["--reference", str(tmp_path / "empty" / "truth.csv"),
                    "--sigma-max", "5,12"]
        out = tmp_path / "rec"
        rc = main(["reconstruct", str(sim / "measurements.bin"), "--config", cfg,
                   *args, "--out-dir", str(out)])
        assert rc == (2 if case == "sigma-max-above-rank" else 3)
        assert not list(out.glob("image*")) and not (out / "metrics.csv").exists()

    def test_empty_reference_is_data_error(self, simulated, tmp_path, capsys):
        cfg, sim = simulated
        empty = write_config(tmp_path, "empty.json", scene={"targets": []})
        assert main(["simulate", empty, "--out-dir", str(tmp_path / "empty")]) == 0
        rc = main(["reconstruct", str(sim / "measurements.bin"), "--config", cfg,
                   "--reference", str(tmp_path / "empty" / "truth.csv"),
                   "--out-dir", str(tmp_path / "rec")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data mismatch:") and err.count("\n") == 1

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

    @pytest.mark.parametrize("case", ["no-measurements", "no-reference",
                                      "non-numeric-reference"])
    def test_unreadable_input_file_is_data_error(self, simulated, tmp_path,
                                                 capsys, case):
        cfg, sim = simulated
        measurements = sim / "measurements.bin"
        reference = sim / "truth.csv"
        if case == "no-measurements":
            measurements = tmp_path / "missing.bin"
        elif case == "no-reference":
            reference = tmp_path / "missing.csv"
        else:
            reference = tmp_path / "bad.csv"
            lines = (sim / "truth.csv").read_text().splitlines()
            lines[1] = "abc," + lines[1].split(",", 1)[1]
            reference.write_text("\n".join(lines) + "\n")
        rc = main(["reconstruct", str(measurements), "--config", cfg,
                   "--reference", str(reference), "--out-dir", str(tmp_path / case)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data mismatch: cannot read") and err.count("\n") == 1

    @pytest.mark.parametrize("case", ["nan-intensity", "inf-intensity",
                                      "shifted-azimuth"])
    def test_bad_reference_is_data_error(self, simulated, tmp_path, capsys, case):
        # a reference with a non-finite intensity, or whose angles are not the
        # config grid's bins, stops reconstruct before its first output
        cfg, sim = simulated
        lines = (sim / "truth.csv").read_text().splitlines()
        if case == "shifted-azimuth":
            lines[1:] = [f"{float(az) + 1.0!r},{rest}"
                         for az, rest in (line.split(",", 1) for line in lines[1:])]
        else:
            lines[1] = lines[1].rsplit(",", 1)[0] + "," + case.split("-")[0]
        reference = tmp_path / "reference.csv"
        reference.write_text("\n".join(lines) + "\n")
        out = tmp_path / case
        rc = main(["reconstruct", str(sim / "measurements.bin"), "--config", cfg,
                   "--reference", str(reference), "--out-dir", str(out)])
        assert rc == 3 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("data mismatch: reference CSV") and err.count("\n") == 1

    def test_reference_angles_off_by_rounding_are_accepted(self, tmp_path):
        # bins of a 1.1 degree step are not the decimals a person writes
        cfg = write_config(tmp_path, grid={"az_step_deg": 1.1})
        sim = tmp_path / "sim"
        assert main(["simulate", cfg, "--out-dir", str(sim)]) == 0
        rows = np.loadtxt(sim / "truth.csv", delimiter=",", skiprows=1)
        written = [f"{az:.6f},{el:.1f},{float(v)!r}" for az, el, v in rows]
        assert any(float(line.split(",")[0]) != az for line, az in zip(written, rows[:, 0]))
        reference = tmp_path / "hand.csv"
        reference.write_text("azimuth_deg,elevation_deg,intensity\n"
                             + "\n".join(written) + "\n")
        for ref, tag in ((sim / "truth.csv", "truth"), (reference, "hand")):
            assert main(["reconstruct", str(sim / "measurements.bin"), "--config", cfg,
                         "--reference", str(ref), "--out-dir", str(tmp_path / tag)]) == 0
        assert read_bytes(tmp_path, "hand", "metrics.csv") == read_bytes(
            tmp_path, "truth", "metrics.csv")

    @pytest.mark.parametrize("case", ["not-a-container", "model-file",
                                      "directionality", "point-count"])
    def test_bad_measurements_file_is_data_error(self, simulated, tmp_path,
                                                 capsys, case):
        cfg, sim = simulated
        raw = bytearray((sim / "measurements.bin").read_bytes())
        if case == "not-a-container":
            raw = bytearray(b"sample,re,im\r\n0,1.0,0.0\r\n")
        elif case == "model-file":
            raw = bytearray((sim / "model.bin").read_bytes())
        elif case == "directionality":
            raw[9] = 0  # unidirectional; the config is bidirectional
        else:
            raw[16:20] = (999).to_bytes(4, "little")
        bad = tmp_path / f"{case}.bin"
        bad.write_bytes(bytes(raw))
        rc = main(["reconstruct", str(bad), "--config", cfg,
                   "--out-dir", str(tmp_path / case)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data mismatch:") and err.count("\n") == 1

    @pytest.mark.parametrize("offset", [10, 11, 20, 23])
    def test_reserved_header_byte_is_data_error(self, simulated, tmp_path,
                                                capsys, offset):
        cfg, sim = simulated
        raw = bytearray((sim / "measurements.bin").read_bytes())
        raw[offset] ^= 1
        bad = tmp_path / "reserved.bin"
        bad.write_bytes(bytes(raw))
        rc = main(["reconstruct", str(bad), "--config", cfg,
                   "--out-dir", str(tmp_path / "rec")])
        assert rc == 3
        assert "reserved header bytes" in capsys.readouterr().err

    def test_model_beside_measurements_is_reused_bit_for_bit(self, simulated, tmp_path):
        cfg, sim = simulated
        args = ["--config", cfg, "--sigma-max", "5,12", "--reference",
                str(sim / "truth.csv")]
        rc = main(["reconstruct", str(sim / "measurements.bin"), *args,
                   "--out-dir", str(tmp_path / "reused")])
        assert rc == 0
        (sim / "model.bin").unlink()
        rc = main(["reconstruct", str(sim / "measurements.bin"), *args,
                   "--out-dir", str(tmp_path / "built")])
        assert rc == 0
        for run, source in (("reused", "model.bin"), ("built", "built")):
            assert json.loads((tmp_path / run / "manifest.json").read_text())[
                "model"] == source
        for name in ("image_k5.csv", "image_k5.pgm", "image_k12.csv", "image_k12.pgm",
                     "metrics.csv"):
            assert read_bytes(tmp_path, "reused", name) == read_bytes(tmp_path, "built", name)

    def test_model_of_another_config_is_rebuilt(self, simulated, tmp_path):
        cfg, sim = simulated
        other = write_config(tmp_path, "other.json", mask={"blade_width_m": 0.010})
        assert main(["simulate", other, "--out-dir", str(tmp_path / "other")]) == 0
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        (mixed / "measurements.bin").write_bytes((sim / "measurements.bin").read_bytes())
        (mixed / "model.bin").write_bytes((tmp_path / "other" / "model.bin").read_bytes())
        rc = main(["reconstruct", str(mixed / "measurements.bin"), "--config", cfg,
                   "--out-dir", str(tmp_path / "rec")])
        assert rc == 0
        assert json.loads((tmp_path / "rec" / "manifest.json").read_text())[
            "model"] == "built"

    @pytest.mark.parametrize("damage", ["flip-payload", "truncate-payload",
                                        "flip-checksum"])
    def test_damaged_matching_model_is_data_error(self, simulated, tmp_path, capsys,
                                                  damage):
        cfg, sim = simulated
        raw = bytearray((sim / "model.bin").read_bytes())
        if damage == "flip-payload":
            raw[-3] ^= 0x10
        elif damage == "truncate-payload":
            raw = raw[:-16]
        else:
            raw[50] ^= 1
        (sim / "model.bin").write_bytes(bytes(raw))
        out = tmp_path / "rec"
        rc = main(["reconstruct", str(sim / "measurements.bin"), "--config", cfg,
                   "--reference", str(sim / "truth.csv"), "--out-dir", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data mismatch: cannot read the configured model")
        assert not out.exists()

    def test_flipped_measurements_payload_byte_is_data_error(self, simulated, tmp_path,
                                                             capsys):
        cfg, sim = simulated
        raw = bytearray((sim / "measurements.bin").read_bytes())
        raw[-3] ^= 0x10
        alone = tmp_path / "alone"
        alone.mkdir()
        (alone / "measurements.bin").write_bytes(bytes(raw))
        out = tmp_path / "rec"
        rc = main(["reconstruct", str(alone / "measurements.bin"), "--config", cfg,
                   "--reference", str(sim / "truth.csv"), "--out-dir", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data mismatch:") and "sha256" in err
        assert not out.exists()

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


@pytest.fixture(scope="module")
def simulated_c14(tmp_path_factory):
    """C14 toy config and its simulated measurements.bin bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = write_config(root)
    assert main(["simulate", cfg, "--out-dir", str(root / "sim")]) == 0
    return cfg, root, (root / "sim" / "measurements.bin").read_bytes()


@st.composite
def damaged(draw, raw):
    """Container bytes truncated, padded, or with bytes flipped."""
    kind = draw(st.sampled_from(["truncate", "pad", "flip-header", "flip-payload"]))
    data = bytearray(raw)
    if kind == "truncate":
        return bytes(data[:draw(st.integers(0, len(data) - 1))])
    if kind == "pad":
        return bytes(data) + draw(st.binary(min_size=1, max_size=64))
    lo, hi = (0, 40) if kind == "flip-header" else (40, len(data))
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(lo, hi - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


class TestReconstructFuzz:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_damaged_measurements_never_raise(self, simulated_c14, data):
        """Any changed byte, header or payload, exits 3 and writes nothing."""
        cfg, root, raw = simulated_c14
        bad = data.draw(damaged(raw))
        run = root / "measurements-fuzz"
        shutil.rmtree(run, ignore_errors=True)
        run.mkdir()
        (run / "damaged.bin").write_bytes(bad)
        out = run / "rec"
        rc = main(["reconstruct", str(run / "damaged.bin"), "--config", cfg,
                   "--reference", str(root / "sim" / "truth.csv"),
                   "--sigma-max", "5,12", "--out-dir", str(out)])
        if bad == raw:  # two flips of one byte can cancel
            assert rc == 0
        else:
            assert rc == 3
            assert not list(out.glob("*"))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_damaged_model_is_rebuilt_or_rejected(self, simulated_c14, data):
        """A changed header rebuilds; an intact header over a changed body exits 3."""
        cfg, root, measurements = simulated_c14
        raw = (root / "sim" / "model.bin").read_bytes()
        bad = data.draw(damaged(raw))
        run = root / "model-fuzz"
        shutil.rmtree(run, ignore_errors=True)
        run.mkdir()
        (run / "measurements.bin").write_bytes(measurements)
        (run / "model.bin").write_bytes(bad)
        out = run / "rec"
        rc = main(["reconstruct", str(run / "measurements.bin"), "--config", cfg,
                   "--reference", str(root / "sim" / "truth.csv"),
                   "--sigma-max", "5,12", "--out-dir", str(out)])
        if len(bad) >= 40 and bad[:40] == raw[:40] and bad != raw:
            assert rc == 3
            assert not list(out.glob("*"))
        else:
            assert rc == 0
            source = json.loads((out / "manifest.json").read_text())["model"]
            assert source == ("model.bin" if bad == raw else "built")


# every numeric field of BASE_CONFIG, with "targets" meaning the first target
_NUMERIC_FIELDS = [
    ("radar", key) for key in ("wavelength_m", "separation_m", "azimuth_fov_deg",
                               "elevation_fov_deg")
] + [
    ("mask", key) for key in ("blade_count", "blade_length_m", "blade_width_m",
                              "plane_depth_m", "axis_offset_m", "attenuation_db")
] + [
    ("rotation", "positions_per_rotation"), ("rotation", "rpm"),
    ("sampling", "spacing_m"), ("sampling", "extent_m"),
] + [
    ("grid", key) for key in ("range_m", "az_min_deg", "az_max_deg", "az_step_deg",
                              "elevations_deg")
] + [
    ("targets", key) for key in ("azimuth_deg", "elevation_deg", "amplitude",
                                 "phase_deg")
] + [
    ("noise", "noise_power"), ("noise", "snr_db"), ("noise", "seed"),
    ("recon", "sigma_max"), ("recon", "rel_threshold"),
]
_BAD_NUMBERS = st.sampled_from([NAN, math.inf, -math.inf, 1e300, -1e300, 1e-300,
                                "abc", "1.0"])


def _set_field(cfg, section, key, value):
    if section == "targets":
        cfg["scene"]["targets"][0][key] = value
    else:
        cfg.setdefault(section, {})[key] = [value] if key == "elevations_deg" else value
    if key == "snr_db":  # noise_power may not stand beside it
        del cfg["noise"]["noise_power"]


class TestConfigNumbers:
    @pytest.mark.parametrize("value", [True, False, 2 ** 63, -2 ** 63 - 1],
                             ids=["true", "false", "above-int64", "below-int64"])
    @pytest.mark.parametrize("section,key", _NUMERIC_FIELDS,
                             ids=[f"{s}.{k}" for s, k in _NUMERIC_FIELDS])
    def test_bool_or_oversized_integer_is_config_error(self, tmp_path, capsys,
                                                       section, key, value):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        _set_field(cfg, section, key, value)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match=key):
            load_config(str(path))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_integers_in_float_fields_read_as_floats(self, tmp_path):
        from mmpinhole import config_fingerprint
        ints = write_config(tmp_path, "ints.json",
                            grid={"range_m": 2, "az_min_deg": -30, "az_max_deg": 30,
                                  "az_step_deg": 2, "elevations_deg": [0]},
                            mask={"attenuation_db": 40}, rotation={"rpm": 600})
        floats = write_config(tmp_path, "floats.json",
                              grid={"range_m": 2.0, "az_min_deg": -30.0,
                                    "az_max_deg": 30.0, "az_step_deg": 2.0,
                                    "elevations_deg": [0.0]},
                              mask={"attenuation_db": 40.0}, rotation={"rpm": 600.0})
        a, b = load_config(ints), load_config(floats)
        assert isinstance(a.grid.range_m, float)
        assert isinstance(a.mask.attenuation_db, float)
        fp_a, fp_b = (config_fingerprint(c.radar, c.grid, c.mask, c.rotation,
                                         c.sampling, c.directionality)
                      for c in (a, b))
        assert fp_a == fp_b


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs RLIMIT_AS and /proc/self/statm")
def test_out_of_memory_is_numeric_failure(tmp_path):
    # a 100 m lattice at 2 cm pitch has 10,001^2 cells: its first (M,) array
    # needs 800 MB, four times the headroom the child gets
    cfg = write_config(tmp_path, sampling={"extent_m": 100.0})
    code = textwrap.dedent(f"""
        import resource, sys
        from mmpinhole.cli import main
        with open("/proc/self/statm") as fh:
            limit = int(fh.read().split()[0]) * resource.getpagesize() + 200 * 2 ** 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        sys.exit(main(["simulate", {cfg!r}, "--out-dir", {str(tmp_path / "out")!r}]))
    """)
    proc = run_child(["-c", code])
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("numeric failure: out of memory")
    assert "Traceback" not in proc.stderr


# every key of the config format with its JSON type; 0 steps into the
# first scene target or power case
_KEY_TYPES = (
    [((section,), "object") for section in (
        "radar", "mask", "rotation", "sampling", "grid", "scene", "noise", "recon",
        "forward", "analysis", "output")]
    + [(("scene", "targets", 0, key) if section == "targets" else (section, key),
        "array" if key == "elevations_deg" else "number")
       for section, key in _NUMERIC_FIELDS]
    + [(("analysis", key), "number")
       for key in ("psf_extent_m", "psf_target_deg", "sar_positions")]
    + [(("analysis", "power_cases", 0, key), "number")
       for key in ("mass_kg", "radius_m", "rpm")]
    + [(path, "string") for path in (
        ("mask", "mode"), ("forward", "directionality"), ("analysis", "psf_kind"),
        ("analysis", "sweep_parameter"), ("output", "directory"),
        ("analysis", "power_cases", 0, "label"))]
    + [(("radar", "colocated"), "bool"), (("recon", "normalize"), "bool")]
    + [(path, "array") for path in (
        ("scene", "targets"), ("analysis", "sweep_values"), ("analysis", "power_cases"))]
    + [(("scene", "targets", 0), "object"), (("analysis", "power_cases", 0), "object")]
)
_NULLABLE_KEYS = {("noise", "snr_db"), ("recon", "sigma_max"), ("recon", "rel_threshold")}
_JSON_VALUES = {
    "number": st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats()),
    "string": st.text(max_size=8),
    "bool": st.booleans(),
    "null": st.none(),
    "array": st.lists(st.one_of(st.integers(-9, 9), st.floats(-9, 9),
                                st.text(max_size=3)), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(-9, 9), max_size=2),
}
# the analyze subcommand that reads each analysis key
_ANALYSIS_READERS = {"psf_kind": "psf", "psf_extent_m": "psf", "psf_target_deg": "psf",
                     "sar_positions": "psf", "sweep_parameter": "sweep",
                     "sweep_values": "sweep", "power_cases": "power"}


def _set_path(cfg, path, value):
    *parents, last = path
    for key in parents:
        cfg = cfg.setdefault(key, {}) if isinstance(key, str) else cfg[key]
    cfg[last] = value


class TestConfigFuzz:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bad_numbers_never_raise(self, tmp_path_factory, data):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        fields = data.draw(st.lists(st.sampled_from(_NUMERIC_FIELDS), min_size=1,
                                    max_size=3, unique=True))
        for section, key in fields:
            where = (cfg["scene"]["targets"][0] if section == "targets"
                     else cfg.setdefault(section, {}))
            where[key] = data.draw(_BAD_NUMBERS)
        if "snr_db" in cfg["noise"]:  # noise_power may not stand beside it
            cfg["noise"].pop("noise_power")
        root = tmp_path_factory.mktemp("config-fuzz")
        path = root / "config.json"
        path.write_text(json.dumps(cfg))
        for argv in (["simulate", str(path), "--out-dir", str(root / "sim")],
                     ["reconstruct", str(root / "sim" / "measurements.bin"),
                      "--config", str(path), "--out-dir", str(root / "rec")],
                     ["analyze", "svd", "--config", str(path),
                      "--out-dir", str(root / "svd")]):
            assert main(argv) in (0, 2, 3, 4)

    @pytest.mark.parametrize("path,kind", _KEY_TYPES,
                             ids=[".".join(map(str, path)) for path, _ in _KEY_TYPES])
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_wrong_json_types_never_raise(self, tmp_path_factory, path, kind, data):
        root = tmp_path_factory.mktemp("type-fuzz")
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["output"]["directory"] = str(root / "out")
        cfg["analysis"] = {"power_cases": [{"label": "a", "mass_kg": 0.01,
                                            "radius_m": 0.1, "rpm": 600.0}]}
        wrong = [k for k in _JSON_VALUES
                 if k != kind and not (k == "null" and path in _NULLABLE_KEYS)]
        _set_path(cfg, path, data.draw(st.sampled_from(wrong).flatmap(_JSON_VALUES.get)))
        config = str(root / "config.json")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        if path[0] == "analysis" and len(path) > 1:
            subcommands = [_ANALYSIS_READERS[path[1]]]
        else:
            subcommands = ["svd", "psf", "sweep", "power"]
        argvs = [["simulate", config, "--out-dir", str(root / "sim")],
                 ["reconstruct", str(root / "sim" / "measurements.bin"),
                  "--config", config, "--out-dir", str(root / "rec")]]
        # analyze writes to output.directory
        argvs += [["analyze", sub, "--config", config] for sub in subcommands]
        for argv in argvs:
            assert main(argv) in (0, 2, 3, 4), (path, argv)


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

    def test_svd_matches_two_forward_builds(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "svd"
        assert main(["analyze", "svd", "--config", cfg_path, "--out-dir", str(out)]) == 0
        cfg = load_config(cfg_path)
        s_bi, s_uni = (svdvals(build_forward(cfg.radar, cfg.grid, cfg.mask,
                                             cfg.rotation, cfg.sampling, d).B)
                       for d in ("bidirectional", "unidirectional"))
        expected = "index,sigma_bidirectional,sigma_unidirectional\r\n" + "".join(
            f"{i},{float(a)!r},{float(b)!r}\r\n" for i, (a, b) in enumerate(zip(s_bi, s_uni)))
        assert read_bytes(out, "svd.csv") == expected.encode()

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

    @pytest.mark.parametrize("source,directory", [
        ("config", 5), ("config", None), ("config", []), ("config", True),
        ("config", ""), ("config", "file"), ("config", "file/sub"),
        ("config", "nul\0byte"), ("--out-dir", "file"), ("--out-dir", "file/sub"),
        ("--out-dir", ""),
    ], ids=["number", "null", "array", "true", "empty", "existing-file",
            "through-file", "nul-byte", "flag-existing-file", "flag-through-file",
            "flag-empty"])
    def test_bad_output_directory_is_config_error(self, tmp_path, capsys, source,
                                                  directory):
        (tmp_path / "file").write_text("")
        if isinstance(directory, str) and directory:
            directory = str(tmp_path / directory)
        argv = ["analyze", "power", "--config"]
        if source == "config":
            argv.append(write_config(tmp_path, output={"directory": directory}))
        else:
            argv += [write_config(tmp_path), "--out-dir", directory]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "output" in err

    @pytest.mark.parametrize("argv,blocked", [
        (["analyze", "power"], "power.csv"), (["simulate"], "model.bin"),
        (["analyze", "svd"], "manifest.json"),
    ], ids=["power-csv", "model-bin", "manifest"])
    def test_unwritable_output_file_is_config_error(self, tmp_path, capsys, argv,
                                                    blocked):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        cfg = write_config(tmp_path)
        argv = argv + ([cfg] if argv[0] == "simulate" else ["--config", cfg])
        assert main(argv + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / blocked}")
        assert err.count("\n") == 1

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

    def test_all_rejected_sweep_is_config_error(self, tmp_path, capsys, caplog):
        # both widths exceed the 0.24 m swept diameter of the 0.12 m blade
        cfg = write_config(tmp_path, analysis={"sweep_parameter": "width",
                                               "sweep_values": [2, 3]})
        out = tmp_path / "sweep"
        assert main(["analyze", "sweep", "--config", cfg, "--out-dir", str(out)]) == 2
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "skipping width=2", "skipping width=3"]
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "[2, 3]" in err
        assert not (out / "sweep.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_sweep_prints_one_line_per_skipped_value(self, tmp_path):
        # 0.5 m and 0.3 m exceed the 0.24 m swept diameter of the 0.12 m blade
        cfg = write_config(tmp_path, analysis={"sweep_parameter": "width",
                                               "sweep_values": [0.5, 0.02, 0.3]})
        out = tmp_path / "sweep"
        proc = run_child(["-m", "mmpinhole.cli", "analyze", "sweep", "--config", cfg,
                          "--out-dir", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            f"skipping width={w}: need a finite blade_length_m > blade_width_m/2 > 0"
            for w in (0.5, 0.3)]
        assert len((out / "sweep.csv").read_text().splitlines()) == 2

    def test_analyze_determinism(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            main(["analyze", "svd", "--config", cfg, "--out-dir", str(out)])
            outs.append(out)
        assert read_bytes(outs[0], "svd.csv") == read_bytes(outs[1], "svd.csv")


class TestConfigRoundTrip:
    @pytest.mark.parametrize("sampling", [{}, {"spacing_m": 0.015}, {"extent_m": 0.2}],
                             ids=["empty", "spacing", "extent"])
    def test_missing_sampling_keys_take_the_defaults(self, tmp_path, sampling):
        cfg = load_config(write_config(tmp_path, sampling=sampling))
        # half the 0.04 m wavelength; the 0.12 m blade plus its 0.02 m width
        expected = {"spacing_m": 0.04 / 2.0, "extent_m": 0.12 + 0.02, **sampling}
        assert cfg.sampling == MaskPlaneSampling(plane_depth_m=0.06, **expected)

    def test_given_sampling_keys_replace_the_defaults_before_the_check(self, tmp_path):
        # the default lambda/2 pitch, 0.2 m, exceeds the default 0.14 m extent
        cfg = write_config(tmp_path, radar={"wavelength_m": 0.4},
                           sampling={"spacing_m": 0.02})
        assert load_config(cfg).sampling == MaskPlaneSampling(0.02, 0.12 + 0.02, 0.06)
        assert main(["simulate", cfg, "--out-dir", str(tmp_path / "sim")]) == 0

    def test_reserialized_config_materializes_identically(self, tmp_path):
        cfg_path = write_config(tmp_path)
        cfg = load_config(cfg_path)
        rewritten = tmp_path / "rewritten.json"
        with open(cfg_path) as fh:
            rewritten.write_text(json.dumps(json.load(fh), indent=2))
        cfg2 = load_config(str(rewritten))
        from mmpinhole import config_fingerprint
        fp1, fp2 = (config_fingerprint(c.radar, c.grid, c.mask, c.rotation, c.sampling,
                                       c.directionality)
                    for c in (cfg, cfg2))
        assert fp1 == fp2
        assert cfg.targets == cfg2.targets
        assert cfg.noise == cfg2.noise


def test_every_csv_in_one_dialect(tmp_path):
    """Each CSV of the toy pipeline: a header, CRLF lines, exact float cells."""
    cfg = write_config(tmp_path)
    sim, rec = tmp_path / "sim", tmp_path / "rec"
    assert main(["simulate", cfg, "--out-dir", str(sim)]) == 0
    assert main(["reconstruct", str(sim / "measurements.bin"), "--config", cfg,
                 "--sigma-max", "5,12", "--reference", str(sim / "truth.csv"),
                 "--out-dir", str(rec)]) == 0
    for sub in ("svd", "psf", "sweep", "power"):
        assert main(["analyze", sub, "--config", cfg,
                     "--out-dir", str(tmp_path / sub)]) == 0
    paths = sorted(tmp_path.glob("*/*.csv"))
    assert [p.name for p in paths] == [
        "power.csv", "psf.csv", "image_k12.csv", "image_k5.csv", "metrics.csv",
        "measurements.csv", "truth.csv", "svd.csv", "sweep.csv"]
    for path in paths:
        raw = path.read_bytes()
        assert raw.endswith(b"\r\n") and b"\n" not in raw.replace(b"\r\n", b""), path
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if path.name == "psf.csv":
            assert rows[0][0] == "# fwhp_deg"
            rows = rows[1:]
        header, body = rows[0], rows[1:]
        assert body and all(len(row) == len(header) for row in body), path
        assert all(cell.replace("_", "").isalnum() for cell in header), path
        for row in body:
            # power.csv starts each row with a text label
            for cell in row[1:] if path.name == "power.csv" else row:
                if cell.lstrip("-").isdigit():
                    assert str(int(cell)) == cell, (path, cell)
                elif cell:
                    assert repr(float(cell)) == cell, (path, cell)


def test_start_up_leaves_ndimage_and_spatial_unloaded():
    # only ssim and chamfer (reconstruct --reference) use them, and importing
    # them costs about 0.19 s
    code = ("import sys, mmpinhole, mmpinhole.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.ndimage', 'scipy.spatial'))))")
    result = run_child(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
