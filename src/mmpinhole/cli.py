"""Command-line front end: simulate, reconstruct and analyze pipelines.

Commands read a single JSON experiment config (documented key set, unknown
keys rejected) and write CSV, PGM and binary-container outputs.  All angles
are degrees, lengths meters, attenuations dB.  Exit codes: 0 success,
2 config error, 3 data mismatch, 4 numeric failure (including running out of
memory).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.linalg import svdvals

from . import __version__, container
from .analysis import (metric_report, psf, rotational_power, rpm_to_rad_s,
                       sar_baseline, sweep, sweep_to_csv)
from .errors import (ConfigError, DataFileError, FingerprintMismatchError,
                     NumericError, ParameterError, RankDeficiencyError,
                     ShapeError, SingularityError, UndefinedMetricError)
from .forward import (DEFAULT_ROTATION_RPM, NoiseModel, build_forward,
                      noise_from_snr, simulate)
from .geometry import (MaskGeometry, MaskPlaneSampling, RadarConfig,
                       RotationSampling, SceneGrid, build_scene_grid,
                       default_plane_sampling, default_radar_config)
from .mask import transmission_for
from .propagation import assemble_oneway
from .recon import (ImageResult, ReconConfig, factorize, image_to_csv,
                    image_to_pgm, reconstruct)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISMATCH = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# config parsing

_SECTION_KEYS = {
    "radar": {"wavelength_m", "colocated", "separation_m",
              "azimuth_fov_deg", "elevation_fov_deg"},
    "mask": {"blade_count", "blade_length_m", "blade_width_m", "plane_depth_m",
             "axis_offset_m", "attenuation_db", "mode"},
    "rotation": {"positions_per_rotation", "rpm"},
    "sampling": {"spacing_m", "extent_m"},
    "grid": {"range_m", "az_min_deg", "az_max_deg", "az_step_deg", "elevations_deg"},
    "scene": {"targets"},
    "noise": {"snr_db", "noise_power", "seed"},
    "recon": {"sigma_max", "normalize", "rel_threshold"},
    "forward": {"directionality"},
    "analysis": {"psf_kind", "psf_extent_m", "psf_target_deg", "sar_positions",
                 "sweep_parameter", "sweep_values",
                 "power_cases"},
    "output": {"directory"},
}
_TARGET_KEYS = {"azimuth_deg", "elevation_deg", "amplitude", "phase_deg"}
_POWER_KEYS = {"label", "mass_kg", "radius_m", "rpm"}
_DEFAULT_POWER_CASES = [
    {"label": "rotating-mask", "mass_kg": 0.010, "radius_m": 0.16, "rpm": 600.0},
    {"label": "spinning-radar-sar", "mass_kg": 0.120, "radius_m": 0.0225,
     "rpm": 600.0},
]


def _check_keys(obj: dict, allowed, where: str):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(allowed)}")


@dataclass
class ExperimentConfig:
    """Materialized experiment description built from a JSON config file."""

    radar: RadarConfig
    mask: MaskGeometry
    rotation: RotationSampling
    sampling: MaskPlaneSampling
    grid: SceneGrid
    targets: list
    noise: NoiseModel
    recon: ReconConfig
    directionality: str
    rpm: float
    output_dir: str
    analysis: dict = field(default_factory=dict)
    snr_db: Optional[float] = None
    config_sha256: str = ""


# numeric fields of each section: float, or int for counts and seeds; the
# fields in _NULLABLE may also be JSON null, which means "not set"
_NUMBER_KEYS = {
    "radar": {"wavelength_m": float, "separation_m": float,
              "azimuth_fov_deg": float, "elevation_fov_deg": float},
    "mask": {"blade_count": int, "blade_length_m": float, "blade_width_m": float,
             "plane_depth_m": float, "axis_offset_m": float},
    "rotation": {"positions_per_rotation": int, "rpm": float},
    "sampling": {"spacing_m": float, "extent_m": float},
    "grid": {"range_m": float, "az_min_deg": float, "az_max_deg": float,
             "az_step_deg": float},
    "noise": {"snr_db": float, "noise_power": float, "seed": int},
    "recon": {"sigma_max": int, "rel_threshold": float},
}
_NULLABLE = {"noise.snr_db", "recon.sigma_max", "recon.rel_threshold"}


def _expect(value, types, where: str):
    """``value`` unchanged, once it is a JSON value of one of ``types``."""
    # bool subclasses int, but JSON true is not a number
    if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
        names = " or ".join(t.__name__ for t in types)
        raise ConfigError(f"{where} must be a JSON {names}, got {value!r}")
    return value


def _number(value, where: str, *, integer: bool = False, finite: bool = True):
    """A JSON number converted where it enters: int for ``integer``, else float.

    JSON true/false are not numbers, and JSON integers must fit in int64,
    so no Python int too large for numpy reaches an array operation.
    """
    _expect(value, (int,) if integer else (int, float), where)
    if isinstance(value, int) and not -2 ** 63 <= value < 2 ** 63:
        raise ConfigError(f"{where} must fit in 64 bits, got {value!r}")
    number = value if integer else float(value)
    if finite and not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _section(raw: dict, name: str) -> dict:
    """A copy of config section ``name`` with its numeric fields converted."""
    sec = dict(raw.get(name, {}))
    for key, kind in _NUMBER_KEYS.get(name, {}).items():
        where = f"{name}.{key}"
        if key in sec and not (sec[key] is None and where in _NULLABLE):
            sec[key] = _number(sec[key], where, integer=kind is int)
    return sec


def _parse_attenuation(value):
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity", "ideal"):
            return math.inf
        raise ConfigError(f"attenuation_db string must be 'inf', got {value!r}")
    # inf is the ideal blocker; MaskGeometry rejects nan and negatives
    return _number(value, "mask.attenuation_db", finite=False)


def _parse_analysis(sec: dict, mask: MaskGeometry) -> dict:
    """The analysis section with its defaults filled in and its values checked.

    Sweep values and power cases keep their JSON form, which ``analyze
    power`` echoes into its CSV; a non-finite sweep value reaches ``sweep``,
    which skips the values the mask rejects.
    """
    ana = {
        "psf_kind": sec.get("psf_kind", "bidirectional"),
        "psf_target_deg": _number(sec.get("psf_target_deg", 0.0), "analysis.psf_target_deg"),
        "psf_extent_m": _number(sec.get("psf_extent_m", mask.blade_length_m),
                                "analysis.psf_extent_m"),
        "sar_positions": _number(sec.get("sar_positions", 720), "analysis.sar_positions",
                                 integer=True),
        "sweep_parameter": _expect(sec.get("sweep_parameter", "radius"), (str,),
                                   "analysis.sweep_parameter"),
        "sweep_values": _expect(sec.get("sweep_values", [0.04, 0.08, 0.16]), (list,),
                                "analysis.sweep_values"),
        "power_cases": _expect(sec.get("power_cases") or _DEFAULT_POWER_CASES, (list,),
                               "analysis.power_cases"),
    }
    if ana["sar_positions"] < 1:
        raise ConfigError("analysis.sar_positions must be positive")
    kinds = (int,) if ana["sweep_parameter"] == "blades" else (int, float)
    for i, value in enumerate(ana["sweep_values"]):
        _expect(value, kinds, f"analysis.sweep_values[{i}]")
    for i, case in enumerate(ana["power_cases"]):
        where = f"analysis.power_cases[{i}]"
        if set(_expect(case, (dict,), where)) != _POWER_KEYS:
            raise ConfigError(f"{where} needs exactly the keys {sorted(_POWER_KEYS)}")
        for key in ("mass_kg", "radius_m", "rpm"):
            _number(case[key], f"{where}.{key}")
    return ana


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config."""
    try:
        with open(path) as fh:
            text = fh.read()
        raw = json.loads(text)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}, "
                          f"column {exc.colno}): {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, _SECTION_KEYS, "config root")
    for section, keys in _SECTION_KEYS.items():
        if section in raw:
            if not isinstance(raw[section], dict):
                raise ConfigError(f"section {section!r} must be an object")
            _check_keys(raw[section], keys, f"section {section!r}")

    try:
        mask_sec = _section(raw, "mask")
        if "attenuation_db" in mask_sec:
            mask_sec["attenuation_db"] = _parse_attenuation(mask_sec["attenuation_db"])
        mask = MaskGeometry(**mask_sec)

        radar_sec = _section(raw, "radar")
        colocated = _expect(radar_sec.pop("colocated", False), (bool,), "radar.colocated")
        separation = radar_sec.pop("separation_m", 0.01)
        radar = default_radar_config(mask, colocated=colocated,
                                     separation_m=separation, **radar_sec)

        rot_sec = _section(raw, "rotation")
        rpm = rot_sec.pop("rpm", DEFAULT_ROTATION_RPM)
        if rpm <= 0:
            raise ParameterError("rotation.rpm must be positive")
        rotation = RotationSampling(**rot_sec)

        samp_sec = _section(raw, "sampling")
        if samp_sec:
            spacing = samp_sec.get("spacing_m", radar.wavelength_m / 2.0)
            extent = samp_sec.get("extent_m",
                                  mask.blade_length_m + mask.blade_width_m)
            sampling = MaskPlaneSampling(spacing_m=spacing, extent_m=extent,
                                         plane_depth_m=mask.plane_depth_m)
        else:
            sampling = default_plane_sampling(radar, mask)

        grid_sec = _section(raw, "grid")
        elevations = _expect(grid_sec.get("elevations_deg", [0.0]), (list,),
                             "grid.elevations_deg")
        grid = build_scene_grid(
            grid_sec.get("range_m", 20.0),
            grid_sec.get("az_min_deg", -50.0),
            grid_sec.get("az_max_deg", 50.0),
            grid_sec.get("az_step_deg", 0.5),
            [_number(el, f"grid.elevations_deg[{i}]") for i, el in enumerate(elevations)],
        )

        targets = []
        for i, tgt in enumerate(raw.get("scene", {}).get("targets", [])):
            where = f"scene.targets[{i}]"
            if not isinstance(tgt, dict):
                raise ConfigError(f"{where} must be an object")
            _check_keys(tgt, _TARGET_KEYS, where)
            # a non-finite amplitude reaches simulate's check on x (exit 4)
            targets.append({
                "azimuth_deg": _number(tgt["azimuth_deg"], f"{where}.azimuth_deg"),
                "elevation_deg": _number(tgt.get("elevation_deg", 0.0),
                                         f"{where}.elevation_deg"),
                "amplitude": _number(tgt.get("amplitude", 1.0), f"{where}.amplitude",
                                     finite=False),
                "phase_deg": _number(tgt.get("phase_deg", 0.0), f"{where}.phase_deg"),
            })

        noise_sec = _section(raw, "noise")
        snr_db = noise_sec.get("snr_db")
        noise = NoiseModel(noise_power=noise_sec.get("noise_power", 0.0),
                           seed=noise_sec.get("seed", 0))

        recon_sec = _section(raw, "recon")
        recon_cfg = ReconConfig(
            sigma_max=recon_sec.get("sigma_max", 40),
            normalize_output=_expect(recon_sec.get("normalize", True), (bool,),
                                     "recon.normalize"),
            rel_threshold=recon_sec.get("rel_threshold"),
        )

        directionality = raw.get("forward", {}).get("directionality", "bidirectional")
        if directionality not in ("unidirectional", "bidirectional"):
            raise ConfigError("forward.directionality must be 'unidirectional' "
                              "or 'bidirectional'")

        analysis = _parse_analysis(raw.get("analysis", {}), mask)

        out_dir = raw.get("output", {}).get("directory", ".")
    except (ParameterError, ShapeError, TypeError, KeyError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc))

    sha = hashlib.sha256(text.encode()).hexdigest()
    return ExperimentConfig(radar=radar, mask=mask, rotation=rotation,
                            sampling=sampling, grid=grid, targets=targets,
                            noise=noise, recon=recon_cfg,
                            directionality=directionality, rpm=rpm,
                            output_dir=out_dir, analysis=analysis,
                            snr_db=snr_db, config_sha256=sha)


def scene_vector(cfg: ExperimentConfig) -> np.ndarray:
    x = np.zeros(cfg.grid.n_points, dtype=np.complex128)
    for tgt in cfg.targets:
        j = cfg.grid.index_of(tgt["azimuth_deg"], tgt["elevation_deg"])
        x[j] += tgt["amplitude"] * np.exp(1j * math.radians(tgt["phase_deg"]))
    return x


def _write_manifest(path, cfg: ExperimentConfig, extra: dict):
    manifest = {
        "config_sha256": cfg.config_sha256,
        "seed": cfg.noise.seed,
        "versions": {"mmpinhole": __version__, "numpy": np.__version__},
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    manifest.update(extra)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_reference_csv(path, grid: SceneGrid) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        raise DataFileError(f"cannot read reference CSV {path}: {exc}")
    data = np.atleast_2d(data)
    if data.shape[0] != grid.n_points or data.shape[1] != 3:
        raise ShapeError(f"reference CSV must have {grid.n_points} rows of "
                         "azimuth_deg,elevation_deg,intensity")
    return data[:, 2].reshape(grid.shape)


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(config_path, out_dir=None) -> int:
    cfg = load_config(config_path)
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    model = build_forward(cfg.radar, cfg.grid, cfg.mask, cfg.rotation,
                          cfg.sampling, cfg.directionality)
    noise = cfg.noise
    if cfg.snr_db is not None:
        noise = noise_from_snr(model, cfg.snr_db, seed=cfg.noise.seed)
    x = scene_vector(cfg)
    measured = simulate(model, x, noise, rotation_rpm=cfg.rpm)
    container.write_container(
        os.path.join(out, "measurements.bin"), "measurements",
        fingerprint=model.fingerprint, directionality=cfg.directionality,
        arrays={"y": measured.y, "n_points": cfg.grid.n_points})
    container.write_container(
        os.path.join(out, "model.bin"), "model",
        fingerprint=model.fingerprint, directionality=cfg.directionality,
        arrays={"B": model.B})
    if measured.y.size <= 4096:
        container.measurements_to_csv(os.path.join(out, "measurements.csv"),
                                      measured.y)
    truth = ImageResult(intensity=np.abs(x).reshape(cfg.grid.shape),
                        complex_amplitude=x, grid=cfg.grid)
    image_to_csv(os.path.join(out, "truth.csv"), truth)
    _write_manifest(os.path.join(out, "manifest.json"), cfg,
                    {"command": "simulate", "fingerprint": model.fingerprint,
                     "noise_power": noise.noise_power})
    return EXIT_OK


def cmd_reconstruct(measurements_path, config_path, sigma_max=None,
                    reference=None, out_dir=None) -> int:
    cfg = load_config(config_path)
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    try:
        payload = container.read_container(measurements_path)
    except (OSError, ParameterError) as exc:
        raise DataFileError(f"cannot read measurements: {exc}")
    if payload.kind != "measurements":
        raise DataFileError(f"{measurements_path} does not hold measurements")
    if payload.directionality != cfg.directionality:
        raise DataFileError(f"{measurements_path} holds {payload.directionality} "
                            f"measurements; the config is {cfg.directionality}")
    if payload.arrays["n_points"] != cfg.grid.n_points:
        raise DataFileError(f"{measurements_path} header has N={payload.arrays['n_points']}; "
                            f"the config grid has {cfg.grid.n_points} points")
    ref_img = _read_reference_csv(reference, cfg.grid) if reference else None
    model = build_forward(cfg.radar, cfg.grid, cfg.mask, cfg.rotation,
                          cfg.sampling, cfg.directionality)
    if payload.fingerprint != model.fingerprint:
        raise FingerprintMismatchError(
            f"measurements fingerprint {payload.fingerprint} does not match "
            f"the configured model {model.fingerprint}")
    y = payload.arrays["y"]
    if y.size != model.n_positions:
        raise ShapeError("measurement length does not match the model")
    fact = factorize(model)
    ks = sigma_max if sigma_max is not None else [cfg.recon.sigma_max]
    # every image and metric before the first write: a failing command
    # leaves no partial outputs
    images = [reconstruct(fact, y, replace(cfg.recon, sigma_max=k)) for k in ks]
    reports = ([metric_report(image.intensity, ref_img, cfg.grid) for image in images]
               if ref_img is not None else [])
    for k, image in zip(ks, images):
        tag = f"_k{k}" if len(ks) > 1 else ""
        image_to_pgm(os.path.join(out, f"image{tag}.pgm"), image)
        image_to_csv(os.path.join(out, f"image{tag}.csv"), image)
    if reports:
        with open(os.path.join(out, "metrics.csv"), "w", newline="") as fh:
            fh.write("sigma_max,sharpness,mse,ssim,chamfer_m\r\n")
            for k, rep in zip(ks, reports):
                ssim_s = "" if rep.ssim is None else repr(rep.ssim)
                cd_s = "" if rep.chamfer_m is None else repr(rep.chamfer_m)
                fh.write(f"{k},{rep.sharpness_ratio!r},{rep.mse!r},{ssim_s},{cd_s}\r\n")
    _write_manifest(os.path.join(out, "manifest.json"), cfg,
                    {"command": "reconstruct", "fingerprint": model.fingerprint,
                     "sigma_max": list(ks)})
    return EXIT_OK


def cmd_analyze(subcommand, config_path, out_dir=None) -> int:
    cfg = load_config(config_path)
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    ana = cfg.analysis
    if subcommand == "svd":
        # the unidirectional model is the rx end of the bidirectional one
        transmission = transmission_for(cfg.mask, cfg.rotation, cfg.sampling)
        tx, rx = assemble_oneway(cfg.radar, cfg.grid, cfg.mask, cfg.rotation,
                                 cfg.sampling, ("tx", "rx"), transmission)
        s_bi = svdvals(tx * rx)
        s_uni = svdvals(rx)
        with open(os.path.join(out, "svd.csv"), "w", newline="") as fh:
            fh.write("index,sigma_bidirectional,sigma_unidirectional\r\n")
            for i in range(min(s_bi.size, s_uni.size)):
                fh.write(f"{i},{float(s_bi[i])!r},{float(s_uni[i])!r}\r\n")
    elif subcommand == "psf":
        kind, target = ana["psf_kind"], ana["psf_target_deg"]
        if kind in ("bidirectional", "unidirectional"):
            model = build_forward(cfg.radar, cfg.grid, cfg.mask, cfg.rotation,
                                  cfg.sampling, kind)
            curve = psf(model, target, ReconConfig(sigma_max=None))
        elif kind in ("sar-circular", "sar-linear"):
            model = sar_baseline(kind.split("-")[1], ana["psf_extent_m"], cfg.radar,
                                 cfg.grid, positions=ana["sar_positions"])
            curve = psf(model, target, ReconConfig(rel_threshold=1e-2))
        else:
            raise ConfigError(f"unknown psf_kind {kind!r}")
        with open(os.path.join(out, "psf.csv"), "w", newline="") as fh:
            fh.write(f"# fwhp_deg,{float(curve.fwhp_deg)!r}\r\n")
            fh.write("angle_deg,response\r\n")
            for a, r in zip(curve.angles_deg, curve.response):
                fh.write(f"{float(a)!r},{float(r)!r}\r\n")
    elif subcommand == "sweep":
        rows = sweep(ana["sweep_parameter"], ana["sweep_values"], cfg.mask,
                     cfg.radar, rotation=cfg.rotation,
                     directionality=cfg.directionality)
        sweep_to_csv(os.path.join(out, "sweep.csv"), rows)
    elif subcommand == "power":
        with open(os.path.join(out, "power.csv"), "w", newline="") as fh:
            fh.write("label,mass_kg,radius_m,rpm,power_w\r\n")
            for case in ana["power_cases"]:
                p = rotational_power(case["mass_kg"], case["radius_m"],
                                     rpm_to_rad_s(case["rpm"]))
                fh.write(f"{case['label']},{case['mass_kg']!r},"
                         f"{case['radius_m']!r},{case['rpm']!r},{p!r}\r\n")
    else:
        raise ConfigError(f"unknown analyze subcommand {subcommand!r}")
    _write_manifest(os.path.join(out, "manifest.json"), cfg,
                    {"command": f"analyze {subcommand}"})
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmpinhole",
        description="Rotating-mask mmWave imaging: simulate, reconstruct, analyze. "
                    "Angles are degrees, lengths meters, attenuations dB.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate measurements from a config")
    p_sim.add_argument("config")
    p_sim.add_argument("--out-dir", default=None)

    p_rec = sub.add_parser("reconstruct", help="reconstruct an image from measurements")
    p_rec.add_argument("measurements")
    p_rec.add_argument("--config", required=True)
    p_rec.add_argument("--sigma-max", default=None,
                       help="truncation count, or comma list for an ablation")
    p_rec.add_argument("--reference", default=None,
                       help="reference image CSV for quality metrics")
    p_rec.add_argument("--out-dir", default=None)

    p_ana = sub.add_parser("analyze", help="run a quantitative study")
    p_ana.add_argument("subcommand", choices=["svd", "psf", "sweep", "power"])
    p_ana.add_argument("--config", required=True)
    p_ana.add_argument("--out-dir", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, out_dir=args.out_dir)
        if args.command == "reconstruct":
            ks = None
            if args.sigma_max is not None:
                try:
                    ks = [int(v) for v in str(args.sigma_max).split(",")]
                except ValueError:
                    raise ConfigError(f"--sigma-max must be integers, got "
                                      f"{args.sigma_max!r}")
                for k in ks:
                    if k < 1:
                        raise ConfigError("--sigma-max values must be >= 1")
            return cmd_reconstruct(args.measurements, args.config, sigma_max=ks,
                                   reference=args.reference, out_dir=args.out_dir)
        if args.command == "analyze":
            return cmd_analyze(args.subcommand, args.config, out_dir=args.out_dir)
        return EXIT_CONFIG
    except (ConfigError, ParameterError, SingularityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFileError, FingerprintMismatchError, ShapeError,
            UndefinedMetricError) as exc:
        print(f"data mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (NumericError, RankDeficiencyError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"numeric failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
