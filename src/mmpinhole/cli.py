"""Command-line front end: simulate, reconstruct and analyze pipelines.

Commands read a single JSON experiment config (documented key set, unknown
keys rejected) and write CSV, PGM and binary-container outputs; ``reconstruct``
uses the ``model.bin`` beside its measurements when that file holds the
configured model, and assembles the model otherwise.  All angles
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
from dataclasses import astuple, dataclass, fields, replace
from typing import Optional, Union, get_args, get_origin

import numpy as np

from . import __version__, container
from .analysis import (SweepRow, metric_report, psf, rotational_power,
                       rpm_to_rad_s, sar_baseline, sweep)
from .errors import (ConfigError, DataFileError, FingerprintMismatchError,
                     NumericError, ParameterError, RankDeficiencyError,
                     ShapeError, SingularityError, UndefinedMetricError)
from .forward import (DEFAULT_ROTATION_RPM, ForwardModel, NoiseModel, build_forward,
                      config_fingerprint, noise_from_snr, simulate)
from .geometry import (MaskGeometry, MaskPlaneSampling, RadarConfig,
                       RotationSampling, SceneGrid, build_scene_grid,
                       default_plane_sampling, default_radar_config)
from .recon import (ImageResult, ReconConfig, factorize, image_to_csv,
                    image_to_pgm, reconstruct, singular_values)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISMATCH = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# config parsing

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


def _any_float(value, where: str) -> float:
    """A JSON number read as float; inf and nan pass through."""
    return _number(value, where, finite=False)


def _attenuation(value, where: str) -> float:
    """Attenuation in dB, or the ideal blocker as the string ``"inf"``."""
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity", "ideal"):
            return math.inf
        raise ConfigError(f"{where} string must be 'inf', got {value!r}")
    # inf is the ideal blocker; MaskGeometry rejects nan and negatives
    return _any_float(value, where)


def _as_written(value, where: str):
    """A finite JSON number kept as written: ``analyze power`` echoes it."""
    _number(value, where)
    return value


def _sweep_value(value, where: str):
    """A JSON number kept as written; ``sweep`` skips what the mask rejects."""
    return _expect(value, (int, float), where)


def _one_of(*names):
    """The spec of a JSON string that must be one of ``names``."""
    def check(value, where: str):
        if _expect(value, (str,), where) not in names:
            raise ConfigError(f"{where} must be one of {list(names)}, got {value!r}")
        return value
    return check


# The config format, each key once.  A type is float (a finite JSON number,
# read as float), int (a JSON integer within int64), bool, str, Optional[t]
# (t or null), [t] (an array of t), a dict (an object with these keys and no
# others) or a function that checks and converts one value.  An entry
# (type, default) fills in a missing key, and the default ``...`` makes the
# key required.  A missing key given by its type alone takes the default of
# the constructor its section is passed to, or one that load_config derives,
# and a missing section reads as an empty object.
_TARGET = {"azimuth_deg": (float, ...), "elevation_deg": (float, 0.0),
           # a non-finite amplitude reaches simulate's check on x (exit 4)
           "amplitude": (_any_float, 1.0), "phase_deg": (float, 0.0)}
_POWER_CASE = {"label": (str, ...), "mass_kg": (_as_written, ...),
               "radius_m": (_as_written, ...), "rpm": (_as_written, ...)}
_DEFAULT_POWER_CASES = [
    {"label": "rotating-mask", "mass_kg": 0.010, "radius_m": 0.16, "rpm": 600.0},
    {"label": "spinning-radar-sar", "mass_kg": 0.120, "radius_m": 0.0225,
     "rpm": 600.0},
]
_SCHEMA = {
    "radar": {"wavelength_m": float, "colocated": bool, "separation_m": float,
              "azimuth_fov_deg": float, "elevation_fov_deg": float},
    "mask": {"blade_count": int, "blade_length_m": float, "blade_width_m": float,
             "plane_depth_m": float, "axis_offset_m": float,
             "attenuation_db": _attenuation, "mode": str},
    "rotation": {"positions_per_rotation": int,
                 "rpm": (float, DEFAULT_ROTATION_RPM)},
    # a missing key takes the value of default_plane_sampling
    "sampling": {"spacing_m": float, "extent_m": float},
    "grid": {"range_m": (float, 20.0), "az_min_deg": (float, -50.0),
             "az_max_deg": (float, 50.0), "az_step_deg": (float, 0.5),
             "elevations_deg": ([float], [0.0])},
    "scene": {"targets": ([_TARGET], [])},
    "noise": {"snr_db": Optional[float], "noise_power": float, "seed": int},
    "recon": {"sigma_max": Optional[int], "normalize": (bool, True),
              "rel_threshold": Optional[float]},
    "forward": {"directionality": (_one_of("unidirectional", "bidirectional"),
                                   "bidirectional")},
    # psf_extent_m defaults to the blade length; an empty power_cases list
    # means the default cases
    "analysis": {"psf_kind": (_one_of("bidirectional", "unidirectional",
                                      "sar-circular", "sar-linear"), "bidirectional"),
                 "psf_extent_m": float, "psf_target_deg": (float, 0.0),
                 "sar_positions": (int, 720),
                 "sweep_parameter": (_one_of("width", "radius", "depth", "blades",
                                             "attenuation"), "radius"),
                 "sweep_values": ([_sweep_value], [0.04, 0.08, 0.16]),
                 "power_cases": ([_POWER_CASE], [])},
    "output": {"directory": (str, ".")},
}


def _check(spec, value, where: str):
    """``value`` checked against ``spec``, converted, with defaults filled in.

    ``where`` is the key path of ``value``, which every error names.
    """
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where or 'config root'} must be a JSON object, "
                              f"got {value!r}")
        unknown = set(value) - set(spec)
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in "
                              f"{where or 'config root'}; allowed: {sorted(spec)}")
        out = {}
        for key, entry in spec.items():
            kind, default = entry if isinstance(entry, tuple) else (entry, None)
            if isinstance(kind, dict) and default is None:
                default = {}
            if key not in value and default is ...:
                raise ConfigError(f"{where} needs the key {key!r}")
            if key in value or default is not None:
                out[key] = _check(kind, value.get(key, default),
                                  f"{where}.{key}" if where else key)
        return out
    if isinstance(spec, list):
        return [_check(spec[0], item, f"{where}[{i}]")
                for i, item in enumerate(_expect(value, (list,), where))]
    if get_origin(spec) is Union:
        if value is None:
            return None
        spec = get_args(spec)[0]
    if spec in (float, int):
        return _number(value, where, integer=spec is int)
    if spec in (bool, str):
        return _expect(value, (spec,), where)
    return spec(value, where)


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
    output_dir: str
    analysis: dict
    snr_db: Optional[float]
    config_sha256: str


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
    sec = _check(_SCHEMA, raw, "")
    try:
        mask = MaskGeometry(**sec["mask"])
        radar = default_radar_config(mask, **sec["radar"])
        # checked, though no computed output reads it
        if sec["rotation"].pop("rpm") <= 0:
            raise ParameterError("rotation.rpm must be positive")
        rotation = RotationSampling(**sec["rotation"])
        sampling = default_plane_sampling(radar, mask, **sec["sampling"])
        grid = build_scene_grid(el_list_deg=sec["grid"].pop("elevations_deg"),
                                **sec["grid"])
        # a target off the grid would snap to an edge bin
        for i, target in enumerate(sec["scene"]["targets"]):
            for key, bins in (("azimuth_deg", grid.azimuth_deg),
                              ("elevation_deg", grid.elevation_deg)):
                lo, hi = float(bins[0]), float(bins[-1])
                if not lo <= target[key] <= hi:
                    raise ConfigError(f"scene.targets[{i}].{key} = {target[key]!r} lies "
                                      f"outside the grid's bins [{lo!r}, {hi!r}]")
        snr_db = sec["noise"].pop("snr_db", None)
        if snr_db is not None and "noise_power" in sec["noise"]:
            raise ConfigError("noise.noise_power has no effect while noise.snr_db "
                              "is set; drop one of them")
        noise = NoiseModel(**sec["noise"])
        recon = sec["recon"]
        if recon.get("rel_threshold") is not None:
            if recon.get("sigma_max") is not None:
                raise ConfigError("recon.sigma_max has no effect while "
                                  "recon.rel_threshold is set; drop one of them")
            recon["sigma_max"] = None
        recon_cfg = ReconConfig(normalize_output=recon.pop("normalize"), **recon)
    except ValueError as exc:  # ParameterError and ShapeError among them
        raise ConfigError(str(exc))
    analysis = sec["analysis"]
    analysis.setdefault("psf_extent_m", mask.blade_length_m)
    if analysis["sar_positions"] < 1:
        raise ConfigError("analysis.sar_positions must be positive")
    if analysis["sweep_parameter"] == "blades":
        for i, value in enumerate(analysis["sweep_values"]):
            _expect(value, (int,), f"analysis.sweep_values[{i}]")

    sha = hashlib.sha256(text.encode()).hexdigest()
    return ExperimentConfig(radar=radar, mask=mask, rotation=rotation,
                            sampling=sampling, grid=grid, targets=sec["scene"]["targets"],
                            noise=noise, recon=recon_cfg,
                            directionality=sec["forward"]["directionality"],
                            output_dir=sec["output"]["directory"], analysis=analysis,
                            snr_db=snr_db, config_sha256=sha)


def scene_vector(cfg: ExperimentConfig) -> np.ndarray:
    x = np.zeros(cfg.grid.n_points, dtype=np.complex128)
    for tgt in cfg.targets:
        j = cfg.grid.index_of(tgt["azimuth_deg"], tgt["elevation_deg"])
        # an infinite amplitude gives a non-finite x, which simulate rejects
        with np.errstate(invalid="ignore"):
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
    # the grid's bins in image_to_csv's row order, azimuth fastest, within 1e-9
    # degrees: a hand-written angle may differ by rounding only
    bins = np.meshgrid(grid.azimuth_deg, grid.elevation_deg)
    if not all(np.all(np.abs(data[:, i] - b.ravel()) <= 1e-9) for i, b in enumerate(bins)):
        raise DataFileError(f"reference CSV {path} rows are not the config grid's "
                            "azimuth and elevation bins in grid order")
    if not np.all(np.isfinite(data[:, 2])):
        raise DataFileError(f"reference CSV {path} has non-finite intensities")
    return data[:, 2].reshape(grid.shape)


# ---------------------------------------------------------------------------
# commands

def _output_paths(out: str):
    """``path(name)`` in ``out``, which the call creates: commands ask only once
    their outputs are computed, so one that fails first leaves no directory."""
    def path(name: str) -> str:
        try:
            os.makedirs(out, exist_ok=True)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise ConfigError(f"cannot create output directory {out!r}: {exc}")
        return os.path.join(out, name)
    return path


def cmd_simulate(cfg: ExperimentConfig, out) -> dict:
    model = build_forward(cfg.radar, cfg.grid, cfg.mask, cfg.rotation,
                          cfg.sampling, cfg.directionality)
    noise = cfg.noise
    if cfg.snr_db is not None:
        noise = noise_from_snr(model, cfg.snr_db, seed=cfg.noise.seed)
    x = scene_vector(cfg)
    measured = simulate(model, x, noise)
    y = container.measurement_payload(measured.y)  # may fail: before the first out()
    container.write_container(
        out("measurements.bin"), "measurements",
        fingerprint=model.fingerprint, directionality=cfg.directionality,
        arrays={"y": y, "n_points": cfg.grid.n_points})
    container.write_container(
        out("model.bin"), "model",
        fingerprint=model.fingerprint, directionality=cfg.directionality,
        arrays={"B": model.B})
    if measured.y.size <= 4096:
        container.write_csv(out("measurements.csv"),
                            [("sample", "re", "im"),
                             *((t, v.real, v.imag) for t, v in enumerate(measured.y))])
    truth = ImageResult(intensity=np.abs(x).reshape(cfg.grid.shape),
                        complex_amplitude=x, grid=cfg.grid)
    image_to_csv(out("truth.csv"), truth)
    return {"command": "simulate", "fingerprint": model.fingerprint,
            "noise_power": noise.noise_power}


def _model_beside(measurements_path, cfg: ExperimentConfig, fingerprint: str):
    """``B`` of the ``model.bin`` beside the measurements, if it is this config's.

    A missing or unreadable file, or one whose header names another model,
    gives None; a matching header over a damaged payload is a data error.
    """
    path = os.path.join(os.path.dirname(measurements_path), "model.bin")
    try:
        head = container.read_header(path)
    except (OSError, ParameterError):
        return None
    if head != ("model", cfg.directionality, cfg.rotation.count, cfg.grid.n_points,
                fingerprint):
        return None
    try:
        return container.read_container(path).arrays["B"]
    except (OSError, ValueError) as exc:
        raise DataFileError(f"cannot read the configured model: {exc}")


def cmd_reconstruct(cfg: ExperimentConfig, out, measurements_path, sigma_max,
                    reference) -> dict:
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
    fingerprint = config_fingerprint(cfg.radar, cfg.grid, cfg.mask, cfg.rotation,
                                     cfg.sampling, cfg.directionality)
    B = _model_beside(measurements_path, cfg, fingerprint)
    if B is None:
        # a config that no model can be built from is a config error first
        model = build_forward(cfg.radar, cfg.grid, cfg.mask, cfg.rotation,
                              cfg.sampling, cfg.directionality)
    else:
        model = ForwardModel(B=B, fingerprint=fingerprint,
                             directionality=cfg.directionality, grid=cfg.grid)
    if payload.fingerprint != fingerprint:
        raise FingerprintMismatchError(
            f"measurements fingerprint {payload.fingerprint} does not match "
            f"the configured model {fingerprint}")
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
        image_to_pgm(out(f"image{tag}.pgm"), image)
        image_to_csv(out(f"image{tag}.csv"), image)
    if reports:
        container.write_csv(out("metrics.csv"),
                            [("sigma_max", "sharpness", "mse", "ssim", "chamfer_m"),
                             *((k, r.sharpness_ratio, r.mse, r.ssim, r.chamfer_m)
                               for k, r in zip(ks, reports))])
    return {"command": "reconstruct", "fingerprint": fingerprint,
            "model": "built" if B is None else "model.bin", "sigma_max": list(ks)}


def cmd_analyze(cfg: ExperimentConfig, out, subcommand) -> dict:
    ana = cfg.analysis
    if subcommand == "svd":
        # one assembly makes both ends; recon keeps each end's singular values
        s_bi, s_uni = (singular_values(build_forward(cfg.radar, cfg.grid, cfg.mask,
                                                     cfg.rotation, cfg.sampling, d))
                       for d in ("bidirectional", "unidirectional"))
        container.write_csv(out("svd.csv"),
                            [("index", "sigma_bidirectional", "sigma_unidirectional"),
                             *((i, a, b) for i, (a, b) in enumerate(zip(s_bi, s_uni)))])
    elif subcommand == "psf":
        kind, target = ana["psf_kind"], ana["psf_target_deg"]
        if kind in ("bidirectional", "unidirectional"):
            model = build_forward(cfg.radar, cfg.grid, cfg.mask, cfg.rotation,
                                  cfg.sampling, kind)
            curve = psf(model, target)
        else:  # sar-circular or sar-linear
            model = sar_baseline(kind.split("-")[1], ana["psf_extent_m"], cfg.radar,
                                 cfg.grid, positions=ana["sar_positions"])
            curve = psf(model, target, ReconConfig(rel_threshold=1e-2))
        container.write_csv(out("psf.csv"),
                            [("# fwhp_deg", curve.fwhp_deg), ("angle_deg", "response"),
                             *zip(curve.angles_deg, curve.response)])
    elif subcommand == "sweep":
        rows = sweep(ana["sweep_parameter"], ana["sweep_values"], cfg.mask,
                     cfg.radar, rotation=cfg.rotation,
                     directionality=cfg.directionality)
        container.write_csv(out("sweep.csv"),
                            [[f.name for f in fields(SweepRow)], *map(astuple, rows)])
    else:  # power
        container.write_csv(out("power.csv"),
                            [("label", "mass_kg", "radius_m", "rpm", "power_w"),
                             *((c["label"], c["mass_kg"], c["radius_m"], c["rpm"],
                                rotational_power(c["mass_kg"], c["radius_m"],
                                                 rpm_to_rad_s(c["rpm"])))
                               for c in ana["power_cases"] or _DEFAULT_POWER_CASES)])
    return {"command": f"analyze {subcommand}"}


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
        ks = None
        if args.command == "reconstruct" and args.sigma_max is not None:
            try:
                ks = [int(v) for v in str(args.sigma_max).split(",")]
            except ValueError:
                raise ConfigError(f"--sigma-max must be integers, got "
                                  f"{args.sigma_max!r}")
            if min(ks) < 1:
                raise ConfigError("--sigma-max values must be >= 1")
        cfg = load_config(args.config)
        if ks is not None and cfg.recon.rel_threshold is not None:
            raise ConfigError("--sigma-max has no effect while recon.rel_threshold "
                              "is set; drop one of them")
        out = _output_paths(cfg.output_dir if args.out_dir is None else args.out_dir)
        if args.command == "simulate":
            summary = cmd_simulate(cfg, out)
        elif args.command == "reconstruct":
            summary = cmd_reconstruct(cfg, out, args.measurements, sigma_max=ks,
                                      reference=args.reference)
        else:
            summary = cmd_analyze(cfg, out, args.subcommand)
        _write_manifest(out("manifest.json"), cfg, summary)
        return EXIT_OK
    except (ConfigError, ParameterError, SingularityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # input reads raise ConfigError or DataFileError
        print(f"config error: cannot write {exc.filename}: {exc.strerror or exc}",
              file=sys.stderr)
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
