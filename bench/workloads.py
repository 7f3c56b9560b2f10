"""The benchmark's three workloads.

Each workload is a closed loop with one caller in one process.  Its parts:

* ``setup()``: the work the program pays once (counted in ``setup_s``).
* ``generate()``: input-generator and oracle set-up (reported as ``gen_s``,
  not in ``setup_s``); returns oracle problems found on set-up models.
* ``make_input()``: seeded inputs of one op, built outside the op's timer.
* ``run(inp)``: one op, the only timed part; raises on failure.
* ``check(inp, out)``: oracle problems of one op, outside the timer.

Workloads call the package through module attributes (``mp.build_forward``,
``mmpinhole.cli.main``) so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.linalg

import mmpinhole as mp
import mmpinhole.cli
import mmpinhole.container

import oracle

RPM = 600.0
ENTRIES_CHECKED = 6   # oracle entries per built B


@dataclass(frozen=True)
class Scale:
    """Geometry of one benchmark scale; ``mask`` holds MaskGeometry overrides."""

    name: str
    wavelength_m: float
    mask: dict
    positions: int
    grid: tuple                # (range_m, az_min_deg, az_max_deg, az_step_deg)
    design_step_deg: float     # design_study grid step over the same span
    design_width_m: tuple      # blade width range of design_study
    design_depth_m: tuple      # plane depth range of design_study
    target_az_deg: tuple       # azimuth range of generated targets
    sigma_range: tuple         # truncation counts drawn by cli_pipeline
    sigma_max: int             # truncation of sync_frames


# The default 77 GHz geometry: T=1000, M=31,329, N=201 at 0.5 deg (N=1001 at
# 0.1 deg for design_study).  Blade widths 3-5 wavelengths keep M within
# about +-5% of the default.
FULL = Scale(name="full", wavelength_m=4.0e-3, mask={}, positions=1000,
             grid=(20.0, -50.0, 50.0, 0.5), design_step_deg=0.1,
             design_width_m=(0.012, 0.020), design_depth_m=(0.10, 0.14),
             target_az_deg=(-40.0, 40.0), sigma_range=(10, 120), sigma_max=40)

# The C14 toy geometry of the acceptance tests: every workload in seconds.
SMOKE = Scale(name="smoke", wavelength_m=0.04,
              mask=dict(blade_length_m=0.12, blade_width_m=0.02,
                        plane_depth_m=0.06, axis_offset_m=0.06),
              positions=64, grid=(2.0, -30.0, 30.0, 2.0), design_step_deg=1.0,
              design_width_m=(0.016, 0.024), design_depth_m=(0.05, 0.07),
              target_az_deg=(-20.0, 20.0), sigma_range=(4, 16), sigma_max=12)


@dataclass
class Geometry:
    mask: mp.MaskGeometry
    radar: mp.RadarConfig
    rotation: mp.RotationSampling
    sampling: mp.MaskPlaneSampling
    grid: mp.SceneGrid

    @classmethod
    def of(cls, scale: Scale, az_step_deg=None, **mask_overrides) -> "Geometry":
        mask = mp.MaskGeometry(**{**scale.mask, **mask_overrides})
        radar = mp.default_radar_config(mask, wavelength_m=scale.wavelength_m)
        r, lo, hi, step = scale.grid
        return cls(mask=mask, radar=radar,
                   rotation=mp.RotationSampling(scale.positions),
                   sampling=mp.default_plane_sampling(radar, mask),
                   grid=mp.build_scene_grid(r, lo, hi, az_step_deg or step, [0.0]))

    def direct_sum(self, transmission=None) -> oracle.DirectSum:
        if transmission is None:
            transmission = mp.transmission_for(self.mask, self.rotation, self.sampling)
        return oracle.DirectSum(self.radar, self.mask, self.rotation, self.sampling,
                                transmission)

    def check_model(self, model, direct, rng, label):
        """Seeded float64 entries of ``model.B`` against direct summation."""
        entries = oracle.sample_entries(rng, model.B.shape, ENTRIES_CHECKED)
        return oracle.entry_errors(model.B, model.directionality, direct,
                                   self.grid.points, entries, oracle.RTOL_F64, label)


def scene(rng, grid, target_az_deg, max_targets):
    """Point targets on distinct grid bins: (x, list of (bin, amp, phase_deg))."""
    az = grid.azimuth_deg
    candidates = np.flatnonzero((az >= target_az_deg[0]) & (az <= target_az_deg[1]))
    count = int(rng.integers(1, max_targets + 1))
    bins = rng.choice(candidates, size=count, replace=False)
    targets = [(int(j), float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.0, 360.0)))
               for j in bins]
    x = np.zeros(grid.n_points, dtype=np.complex128)
    for j, amp, phase in targets:
        x[j] = amp * np.exp(1j * math.radians(phase))
    return x, targets


def _rows(path) -> list:
    return [line.split(",") for line in Path(path).read_text().splitlines()[1:]]


# ---------------------------------------------------------------------------

class CliPipeline:
    """simulate -> reconstruct (several truncations, with reference) -> analyze svd."""

    name = "cli_pipeline"

    def __init__(self, scale: Scale, rng, workdir: Path):
        self.scale = scale
        self.rng = rng
        self.work = workdir / self.name

    def setup(self):
        """Nothing beyond the imports: every CLI call rebuilds what it needs."""

    def _config(self, targets, snr_db, noise_seed):
        r, lo, hi, step = self.scale.grid
        return {
            "radar": {"wavelength_m": self.scale.wavelength_m},
            "mask": dict(self.scale.mask),
            "rotation": {"positions_per_rotation": self.scale.positions, "rpm": RPM},
            "grid": {"range_m": r, "az_min_deg": lo, "az_max_deg": hi,
                     "az_step_deg": step, "elevations_deg": [0.0]},
            "scene": {"targets": [{"azimuth_deg": float(self.geo.grid.azimuth_deg[j]),
                                   "amplitude": a, "phase_deg": p}
                                  for j, a, p in targets]},
            "noise": {"snr_db": snr_db, "seed": noise_seed},
            "recon": {"normalize": True},
        }

    def generate(self):
        """Reference models for the oracle; every op shares this geometry.

        The CLI builds the same B from its config: ``check`` compares the
        model fingerprints.
        """
        self.work.mkdir(parents=True, exist_ok=True)
        self.geo = Geometry.of(self.scale)
        g = self.geo
        transmission = mp.transmission_for(g.mask, g.rotation, g.sampling)
        self.bi = mp.build_forward(g.radar, g.grid, g.mask, g.rotation, g.sampling,
                                   "bidirectional", transmission=transmission)
        uni = mp.build_forward(g.radar, g.grid, g.mask, g.rotation, g.sampling,
                               "unidirectional", transmission=transmission)
        self.fact = mp.factorize(self.bi)
        self.s_bi = scipy.linalg.svdvals(self.bi.B)
        self.s_uni = scipy.linalg.svdvals(uni.B)
        self.direct = g.direct_sum(transmission)
        return (g.check_model(self.bi, self.direct, self.rng, "reference bidirectional")
                + g.check_model(uni, self.direct, self.rng, "reference unidirectional")
                + oracle.factorization_error(self.bi.B, self.fact.U, self.fact.S,
                                             self.fact.V, self.rng, "reference"))

    def make_input(self):
        rng = self.rng
        x, targets = scene(rng, self.geo.grid, self.scale.target_az_deg, 4)
        snr_db = float(rng.uniform(10.0, 30.0))
        noise_seed = int(rng.integers(2 ** 31))
        lo, hi = self.scale.sigma_range
        ks = sorted(int(k) for k in rng.choice(np.arange(lo, hi + 1),
                                               size=int(rng.integers(2, 5)), replace=False))
        op = self.work / "op"
        shutil.rmtree(op, ignore_errors=True)
        op.mkdir(parents=True)
        cfg = op / "config.json"
        cfg.write_text(json.dumps(self._config(targets, snr_db, noise_seed), indent=1))
        sim, rec, svd = op / "sim", op / "rec", op / "svd"
        argvs = [
            ["simulate", str(cfg), "--out-dir", str(sim)],
            ["reconstruct", str(sim / "measurements.bin"), "--config", str(cfg),
             "--sigma-max", ",".join(map(str, ks)), "--reference", str(sim / "truth.csv"),
             "--out-dir", str(rec)],
            ["analyze", "svd", "--config", str(cfg), "--out-dir", str(svd)],
        ]
        return dict(x=x, snr_db=snr_db, noise_seed=noise_seed, ks=ks, argvs=argvs,
                    sim=sim, rec=rec, svd=svd)

    def run(self, inp):
        for argv in inp["argvs"]:
            code = mmpinhole.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"mmpinhole {argv[0]} exited with {code}")

    def check(self, inp, out):
        problems = []
        B = self.bi.B
        model = mmpinhole.container.read_container(str(inp["sim"] / "model.bin"))
        B32 = model.arrays["B"]
        if model.fingerprint != self.bi.fingerprint or B32.shape != B.shape:
            return ["model.bin does not hold the configured model"]
        if not np.all(np.abs(B32 - B) <= 2.0 ** -23 * np.abs(B)):
            problems.append("model.bin differs from B beyond complex64 rounding")
        entries = oracle.sample_entries(self.rng, B.shape, ENTRIES_CHECKED)
        problems += oracle.entry_errors(B32, "bidirectional", self.direct,
                                        self.geo.grid.points, entries,
                                        oracle.RTOL_F32, "model.bin")

        # measurements: y = B x + n, with n drawn as the noise model documents
        j0 = int(np.argmin(np.abs(self.geo.grid.azimuth_deg)))
        power = np.mean(np.abs(B[:, j0]) ** 2) / 10.0 ** (inp["snr_db"] / 10.0)
        noise_rng = np.random.default_rng(inp["noise_seed"])
        T = B.shape[0]
        noise = math.sqrt(power / 2.0) * (noise_rng.standard_normal(T)
                                          + 1j * noise_rng.standard_normal(T))
        y_expected = B @ inp["x"] + noise
        y = mmpinhole.container.read_container(str(inp["sim"] / "measurements.bin")).arrays["y"]
        if y.shape != y_expected.shape or not np.all(
                np.abs(y - y_expected) <= 2.0 ** -23 * np.abs(y_expected)):
            problems.append("measurements.bin differs from B x + n")

        truth = np.array([float(r[2]) for r in _rows(inp["sim"] / "truth.csv")])
        if truth.shape != inp["x"].shape or np.max(np.abs(truth - np.abs(inp["x"]))) > 1e-15:
            problems.append("truth.csv differs from |x|")

        for k in inp["ks"]:
            x_hat = oracle.truncated_svd_solution(self.fact.U, self.fact.S, self.fact.V, y, k)
            expected = np.abs(x_hat) / np.max(np.abs(x_hat))
            got = np.array([float(r[2]) for r in _rows(inp["rec"] / f"image_k{k}.csv")])
            if got.shape != expected.shape or np.max(np.abs(got - expected)) > 1e-9:
                problems.append(f"image_k{k}.csv differs from the truncated-SVD solution")
            pgm = (inp["rec"] / f"image_k{k}.pgm").read_bytes()
            if not pgm.startswith(b"P5\n") or len(pgm) < expected.size:
                problems.append(f"image_k{k}.pgm is malformed")
        metrics = _rows(inp["rec"] / "metrics.csv")
        if ([int(r[0]) for r in metrics] != inp["ks"]
                or not all(math.isfinite(float(r[1])) and math.isfinite(float(r[2]))
                           for r in metrics)):
            problems.append("metrics.csv does not hold one finite row per truncation")

        svd = np.array([[float(v) for v in r] for r in _rows(inp["svd"] / "svd.csv")])
        n = min(self.s_bi.size, self.s_uni.size)
        if (svd.shape != (n, 3)
                or np.max(np.abs(svd[:, 1] - self.s_bi[:n])) > 1e-9 * self.s_bi[0]
                or np.max(np.abs(svd[:, 2] - self.s_uni[:n])) > 1e-9 * self.s_uni[0]):
            problems.append("svd.csv differs from the singular values of B")
        return problems


# ---------------------------------------------------------------------------

class DesignStudy:
    """Bidirectional vs unidirectional resolution study on a fresh geometry per op.

    Geometries come in stratified batches: each batch of STRATA ops spans the
    blade-width and plane-depth ranges evenly and holds as many regular as
    inverse pinholes, so the mix of op sizes differs little between runs.
    """

    name = "design_study"
    STRATA = 6

    def __init__(self, scale: Scale, rng, workdir: Path):
        self.scale = scale
        self.rng = rng
        self.batch = []

    def _stratified_batch(self):
        rng, k = self.rng, self.STRATA

        def strata(lo, hi):
            return lo + (hi - lo) * (rng.permutation(k) + rng.uniform(size=k)) / k

        modes = rng.permutation(["regular-pinhole", "inverse-pinhole"] * (k // 2))
        return list(zip(strata(*self.scale.design_width_m),
                        strata(*self.scale.design_depth_m), modes))

    def setup(self):
        """Nothing beyond the imports: each op has its own geometry."""

    def generate(self):
        return []

    def make_input(self):
        if not self.batch:
            self.batch = self._stratified_batch()
        width, depth, mode = self.batch.pop()
        geo = Geometry.of(self.scale, az_step_deg=self.scale.design_step_deg,
                          blade_width_m=float(width), plane_depth_m=float(depth),
                          mode=str(mode))
        return dict(geo=geo, target_deg=float(self.rng.uniform(*self.scale.target_az_deg)))

    def run(self, inp):
        g = inp["geo"]
        out = {}
        for directionality in ("bidirectional", "unidirectional"):
            out[directionality] = mp.build_forward(g.radar, g.grid, g.mask, g.rotation,
                                                   g.sampling, directionality)
        facts = {d: mp.factorize(m) for d, m in out.items()}
        psfs = {d: mp.psf(m, inp["target_deg"], fact=facts[d]) for d, m in out.items()}
        return out, facts, psfs

    def check(self, inp, out):
        models, facts, psfs = out
        g = inp["geo"]
        direct = g.direct_sum()
        problems = []
        j = int(np.argmin(np.abs(g.grid.azimuth_deg - inp["target_deg"])))
        for d, model in models.items():
            problems += g.check_model(model, direct, self.rng, d)
            f = facts[d]
            problems += oracle.factorization_error(model.B, f.U, f.S, f.V, self.rng, d)
            curve = psfs[d]
            if abs(int(np.argmax(curve.response)) - j) > 1 or not 0.0 < curve.fwhp_deg < 90.0:
                problems.append(f"{d} psf peak or width is wrong")
        return problems


# ---------------------------------------------------------------------------

@dataclass
class WarpedRotation:
    """One wobbling-motor rotation of the input generator."""

    model: mp.ForwardModel
    signature: np.ndarray
    true_index: np.ndarray  # observed index of each template angle


class SyncFrames:
    """Per-frame resynchronisation: DTW, resample, Doppler compensation, recon."""

    name = "sync_frames"
    POOL = 3            # warped-rotation models of the generator
    JITTER = 0.005      # relative signature noise per frame

    def __init__(self, scale: Scale, rng, workdir: Path):
        self.scale = scale
        self.rng = rng

    def setup(self):
        g = self.geo = Geometry.of(self.scale)
        T = g.rotation.count
        self.model = mp.build_forward(g.radar, g.grid, g.mask, g.rotation, g.sampling,
                                      "bidirectional")
        self.fact = mp.factorize(self.model)
        self.template = mp.synth_signature(g.mask, g.rotation, np.full(T, RPM),
                                           radar=g.radar, plane_sampling=g.sampling)
        self.recon = mp.ReconConfig(sigma_max=self.scale.sigma_max)
        self.dt = mp.sample_interval_s(RPM, T)

    def generate(self):
        g, rng = self.geo, self.rng
        T = g.rotation.count
        problems = (g.check_model(self.model, g.direct_sum(), rng, "uniform")
                    + oracle.factorization_error(self.model.B, self.fact.U, self.fact.S,
                                                 self.fact.V, rng, "uniform"))
        phase = 2.0 * math.pi * np.arange(T) / T
        self.pool = []
        for p in range(self.POOL):
            a1, a2 = rng.uniform(0.02, 0.05), rng.uniform(0.0, 0.02)
            p1, p2 = rng.uniform(0.0, 2.0 * math.pi, 2)
            speeds = RPM * (1.0 + a1 * np.sin(phase + p1) + a2 * np.sin(2.0 * phase + p2))
            angles = mp.warped_rotation_angles(g.rotation, speeds)
            rotation = mp.RotationSampling.warped(angles)
            model = mp.build_forward(g.radar, g.grid, g.mask, rotation, g.sampling,
                                     "bidirectional")
            warped = replace(g, rotation=rotation)
            problems += warped.check_model(model, warped.direct_sum(), rng, f"warped {p}")
            signature = mp.synth_signature(g.mask, g.rotation, speeds,
                                           radar=g.radar, plane_sampling=g.sampling)
            self.pool.append(WarpedRotation(
                model=model, signature=signature.samples,
                true_index=np.interp(g.rotation.angles_rad, angles, np.arange(T))))
        return problems

    def make_input(self):
        rng = self.rng
        w = self.pool[int(rng.integers(self.POOL))]
        T = w.signature.size
        signature = mp.RotationSignature(
            np.abs(w.signature * (1.0 + self.JITTER * rng.standard_normal(T))), T)
        x, _ = scene(rng, self.geo.grid, self.scale.target_az_deg, 3)
        noise = mp.noise_from_snr(w.model, float(rng.uniform(15.0, 30.0)),
                                  seed=int(rng.integers(2 ** 31)))
        velocity = float(rng.uniform(-0.5, 0.5))
        measured = mp.apply_doppler(mp.simulate(w.model, x, noise, rotation_rpm=RPM),
                                    velocity, self.dt, self.geo.radar.wavelength_m)
        return dict(warp=w, signature=signature, measured=measured, velocity=velocity)

    def run(self, inp):
        T = self.template.samples.size
        path = mp.dtw_align(self.template, inp["signature"])
        uniform = mp.resample_to_uniform(inp["measured"], path, T)
        compensated = mp.apply_doppler(uniform, -inp["velocity"], self.dt,
                                       self.geo.radar.wavelength_m)
        image = mp.reconstruct(self.fact, compensated.y, self.recon)
        return path, uniform, compensated, image

    def check(self, inp, out):
        path, uniform, compensated, image = out
        T = self.template.samples.size
        matched = oracle.matched_observed_index(path.pairs, T)
        problems = oracle.warp_errors(matched, inp["warp"].true_index, "dtw")
        y = inp["measured"].y
        base = np.arange(y.size)
        y_uniform = np.interp(matched, base, y.real) + 1j * np.interp(matched, base, y.imag)
        scale = np.max(np.abs(y))
        if np.max(np.abs(uniform.y - y_uniform)) > 1e-12 * scale:
            problems.append("resampled measurements differ from interpolation at the path")
        ramp = np.exp(-4j * math.pi * inp["velocity"] * np.arange(T) * self.dt
                      / self.geo.radar.wavelength_m)
        if np.max(np.abs(compensated.y - uniform.y * ramp)) > 1e-12 * scale:
            problems.append("Doppler compensation differs from the phase ramp")
        x_hat = oracle.truncated_svd_solution(self.fact.U, self.fact.S, self.fact.V,
                                              compensated.y, image.truncation_used)
        if (image.truncation_used != self.recon.sigma_max
                or np.max(np.abs(image.complex_amplitude - x_hat)) > 1e-9 * np.max(np.abs(x_hat))):
            problems.append("reconstruction differs from the truncated-SVD solution")
        return problems


WORKLOADS = {w.name: w for w in (CliPipeline, DesignStudy, SyncFrames)}
