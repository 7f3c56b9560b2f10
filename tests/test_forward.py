import hashlib
import json
import logging
import math
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmpinhole import (ForwardModel, MaskGeometry, MaskPlaneSampling,
                       MaskTransmission, MeasurementSet, NoiseModel,
                       RotationSampling, apply_blade_phase, apply_doppler,
                       assemble_oneway, build_forward, build_scene_grid,
                       config_fingerprint, default_plane_sampling,
                       default_radar_config, estimate_blade_phase, factorize,
                       noise_from_snr, reconstruct, sample_interval_s, simulate,
                       singular_values)
from mmpinhole import container, forward, propagation
from mmpinhole.cli import load_config, main
from mmpinhole.errors import (EstimationError, NumericError, ParameterError,
                              ShapeError)
from mmpinhole.mask import open_mask, transmission_for
from mmpinhole.recon import image_to_csv

TOY_WAVELENGTH = 0.04

# sha256 of B.tobytes() on the C14 toy geometry in regular-pinhole mode, by
# blade count and directionality.  They do not depend on the BLAS thread count
# or core type; the inverse pinhole's open term (a threaded zgemv) does, so it
# stays out until that term leaves the BLAS.
CANARY_SHA256 = {
    (1, "bidirectional"):
        "b2f72a74d57747b811c5767b7dcc1cbd85184b00c056a598d2a9e3b7ea4ac7d4",
    (1, "unidirectional"):
        "dc770958a35e4000b85659f359d68765f0aa6ea61760fc0b2837347c0682d26f",
    (2, "bidirectional"):
        "d1f4f91a4677f2024399985cbaa9969d7a99b0ca122c6e3b76a692cb7b842f45",
    (2, "unidirectional"):
        "4379d7ab81f1002a57321082296551d8a0e3a38502ced1037c8547f06dea1128",
}


def test_model_canary():
    """B's bits are pinned for one model epoch.

    A change that moves them without moving an input must bump
    ``forward.MODEL_EPOCH``, so that no older ``model.bin`` is reused, and pin
    the new hashes here together with the new epoch.
    """
    computed = {}
    for blades in (1, 2):
        mask = MaskGeometry(blade_count=blades, blade_length_m=0.12, blade_width_m=0.02,
                            plane_depth_m=0.06, axis_offset_m=0.06, mode="regular-pinhole")
        radar = default_radar_config(mask, wavelength_m=TOY_WAVELENGTH)
        args = (radar, build_scene_grid(2.0, -30.0, 30.0, 2.0, [0.0]), mask,
                RotationSampling(64), default_plane_sampling(radar, mask))
        for directionality in ("bidirectional", "unidirectional"):
            B = build_forward(*args, directionality).B
            computed[blades, directionality] = hashlib.sha256(B.tobytes()).hexdigest()
    assert forward.MODEL_EPOCH == 1, "pin B's hashes for the new epoch"
    assert computed == CANARY_SHA256, (
        f"B moved with no input changed: bump forward.MODEL_EPOCH and pin {computed}")


@pytest.fixture(scope="module")
def toy_model(toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling):
    return build_forward(toy_radar, toy_grid, toy_mask, toy_rotation,
                         toy_sampling, "bidirectional")


@pytest.fixture
def assemblies(monkeypatch):
    """Counts the assemblies that ``build_forward`` runs, in ``.count``.

    Each assembly must start with no model kept: the old one is dropped first.
    """
    calls = SimpleNamespace(count=0)

    def spy(*args):
        assert forward._memo is None
        calls.count += 1
        return assemble_oneway(*args)
    monkeypatch.setattr(forward, "assemble_oneway", spy)
    return calls


class TestModelMemo:
    def test_same_call_assembles_once(self, toy_radar, toy_grid, toy_mask,
                                      toy_rotation, toy_sampling, assemblies):
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling)
        first, second = (build_forward(*args) for _ in range(2))
        assert assemblies.count == 1
        forward._memo = None
        fresh = build_forward(*args)
        assert assemblies.count == 2
        for model in (second, fresh):
            assert np.array_equal(model.B, first.B)
            assert model.fingerprint == first.fingerprint

    def test_hit_returns_the_kept_models(self, toy_radar, toy_grid, toy_mask,
                                         toy_rotation, toy_sampling, assemblies,
                                         monkeypatch):
        # a hit returns the kept object of each directionality: it constructs
        # no ForwardModel, so it scans no B; a miss constructs both ends'
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling)
        kept = {d: build_forward(*args, d) for d in ("bidirectional", "unidirectional")}
        built = []
        post_init = ForwardModel.__post_init__

        def spy(model):
            built.append(model.directionality)
            post_init(model)
        monkeypatch.setattr(ForwardModel, "__post_init__", spy)
        for d in ("unidirectional", "bidirectional"):
            assert build_forward(*args, d) is kept[d]
        assert built == [] and assemblies.count == 1
        assert all(forward._memo[1][d] is model for d, model in kept.items())
        forward._memo = None
        fresh = build_forward(*args, "unidirectional")
        assert sorted(built) == ["bidirectional", "unidirectional"]
        assert forward._memo[1]["unidirectional"] is fresh

    @pytest.mark.parametrize("order", [("unidirectional", "bidirectional"),
                                       ("bidirectional", "unidirectional")],
                             ids=["unidirectional-first", "bidirectional-first"])
    def test_unidirectional_is_the_kept_rx_end(self, toy_radar, toy_grid, toy_mask,
                                               toy_rotation, toy_sampling, assemblies,
                                               order):
        # either request order assembles both ends once
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling)
        models = {d: build_forward(*args, d) for d in order}
        assert assemblies.count == 1
        trans = transmission_for(toy_mask, toy_rotation, toy_sampling)
        tx, rx = assemble_oneway(*args, trans)
        assert np.array_equal(models["unidirectional"].B, rx)
        assert np.array_equal(models["bidirectional"].B, tx * rx)
        for d, model in models.items():
            assert model.fingerprint == config_fingerprint(*args, d)

    @pytest.mark.parametrize("failure", ["scene-in-front", "non-finite"])
    def test_failed_assembly_keeps_no_model(self, toy_radar, toy_grid, toy_mask,
                                            toy_rotation, toy_sampling, assemblies,
                                            monkeypatch, failure):
        # the old models and their derived results are dropped before the new
        # geometry is assembled, and one that fails leaves nothing kept: the old
        # geometry assembles again, and its models keep no factorization
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling)
        first = build_forward(*args)
        kept = weakref.ref(factorize(first))
        grid, mask = toy_grid, toy_mask
        with monkeypatch.context() as m:
            if failure == "scene-in-front":
                grid, match = build_scene_grid(0.01, -30.0, 30.0, 4.0, [0.0]), "in front"
            else:
                mask, match = replace(toy_mask, blade_count=2), "entries must be finite"
                m.setattr(propagation, "pattern_weight",
                          lambda radar, d: np.full(np.shape(d)[:-1], np.nan))
            with pytest.raises(ParameterError, match=match):
                build_forward(toy_radar, grid, mask, toy_rotation, toy_sampling)
        assert forward._memo is None and kept() is None
        assert factorize(first) is not factorize(first)
        again = build_forward(*args)
        assert assemblies.count == 3
        assert np.array_equal(again.B, first.B)
        assert again.fingerprint == first.fingerprint

    def test_other_geometry_frees_the_kept_models(self, toy_radar, toy_grid, toy_mask,
                                                  toy_rotation, toy_sampling):
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling)
        refs = [weakref.ref(build_forward(*args, d).B)
                for d in ("bidirectional", "unidirectional")]
        assert all(ref() is not None for ref in refs)
        narrow = replace(toy_mask, blade_width_m=toy_mask.blade_width_m * 0.5)
        model = build_forward(toy_radar, toy_grid, narrow, toy_rotation, toy_sampling)
        assert [ref() for ref in refs] == [None, None]
        assert forward._memo[1]["bidirectional"] is model

    @pytest.mark.parametrize("directionality", ["bidirectional", "unidirectional"])
    def test_returned_b_is_read_only(self, toy_radar, toy_grid, toy_mask, toy_rotation,
                                     toy_sampling, directionality):
        model = build_forward(toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling,
                              directionality)
        with pytest.raises(ValueError):
            model.B[0, 0] = 0.0
        with pytest.raises(ValueError):
            model.B *= 2.0


@pytest.fixture
def derivations(monkeypatch):
    """The mask-mode transmissions that ``forward`` derives, one per call."""
    calls = []

    def spy(*args):
        calls.append(args)
        return transmission_for(*args)
    monkeypatch.setattr(forward, "transmission_for", spy)
    return calls


# the C14 toy config of tests/test_acceptance.py
C14_CONFIG = {
    "radar": {"wavelength_m": 0.04},
    "mask": {"blade_count": 1, "blade_length_m": 0.12, "blade_width_m": 0.02,
             "plane_depth_m": 0.06, "axis_offset_m": 0.06,
             "attenuation_db": "inf", "mode": "inverse-pinhole"},
    "rotation": {"positions_per_rotation": 64},
    "grid": {"range_m": 2.0, "az_min_deg": -30.0, "az_max_deg": 30.0,
             "az_step_deg": 2.0, "elevations_deg": [0.0]},
    "scene": {"targets": [{"azimuth_deg": -8.0, "amplitude": 1.0},
                          {"azimuth_deg": 12.0, "amplitude": 0.7, "phase_deg": 90.0}]},
    "noise": {"noise_power": 1e-8, "seed": 7},
    "recon": {"sigma_max": 12, "normalize": True},
}


class TestKeptTransmissionDigest:
    def test_cli_rounds_derive_the_transmission_once(self, tmp_path, derivations):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(C14_CONFIG))

        def run_round(tag):
            out = tmp_path / tag
            for argv in (["simulate", str(cfg), "--out-dir", str(out / "sim")],
                         ["reconstruct", str(out / "sim" / "measurements.bin"),
                          "--config", str(cfg), "--sigma-max", "5,12",
                          "--reference", str(out / "sim" / "truth.csv"),
                          "--out-dir", str(out / "rec")],
                         ["analyze", "svd", "--config", str(cfg),
                          "--out-dir", str(out / "svd")]):
                assert main(argv) == 0, argv
            payloads = {}
            for path in sorted(out.rglob("*")):
                if path.is_file():
                    raw = path.read_bytes()
                    if path.name == "manifest.json":
                        raw = {k: v for k, v in json.loads(raw).items()
                               if k != "created_utc"}
                    payloads[str(path.relative_to(out))] = raw
            return payloads

        first = run_round("first")
        assert len(derivations) == 1
        second = run_round("second")
        assert len(derivations) == 1
        forward._memo = forward._mode_digest = None
        fresh = run_round("fresh")
        assert len(derivations) == 2
        assert len(fresh) == 13  # 3 manifests, 10 payloads
        assert first == second == fresh

    @pytest.mark.parametrize("mode", ["inverse-pinhole", "regular-pinhole"])
    @pytest.mark.parametrize("directionality", ["bidirectional", "unidirectional"])
    def test_fingerprint_of_none_is_the_mode_transmissions(
            self, toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling,
            derivations, mode, directionality):
        mask = replace(toy_mask, mode=mode)
        args = (toy_radar, toy_grid, mask, toy_rotation, toy_sampling, directionality)
        explicit = build_forward(*args, transmission=transmission_for(
            mask, toy_rotation, toy_sampling)).fingerprint
        # a passed transmission fills no kept digest
        assert forward._mode_digest is None and derivations == []
        miss = config_fingerprint(*args)
        hit = config_fingerprint(*args)
        assert len(derivations) == 1
        assert miss == hit == explicit == build_forward(*args).fingerprint

    @pytest.mark.parametrize("order", ["open-first", "mode-first"])
    def test_custom_transmission_never_serves_the_mode(
            self, toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling,
            assemblies, order):
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling, "bidirectional")
        opened = open_mask(toy_rotation, toy_sampling)
        transmissions = [opened, None] if order == "open-first" else [None, opened]
        models = [build_forward(*args, transmission=t) for t in transmissions]
        assert assemblies.count == 2
        assert models[0].fingerprint != models[1].fingerprint
        forward._memo = forward._mode_digest = None
        fresh = build_forward(*args, transmission=transmissions[1])
        assert np.array_equal(models[1].B, fresh.B)
        assert models[1].fingerprint == fresh.fingerprint

    @pytest.mark.parametrize("transmission", ["mode", "passed"])
    def test_unknown_directionality_has_no_fingerprint(
            self, toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling,
            transmission, assemblies):
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling, "sideways")
        trans = (None if transmission == "mode"
                 else transmission_for(toy_mask, toy_rotation, toy_sampling))
        message = "directionality must be 'unidirectional' or 'bidirectional'"
        with pytest.raises(ParameterError, match=message):
            config_fingerprint(*args)
        with pytest.raises(ParameterError, match=message):
            build_forward(*args, transmission=trans)
        assert assemblies.count == 0


class TestKeptDerived:
    @pytest.fixture
    def cli_run(self, tmp_path):
        """``run(command, tag)`` runs one CLI command on the C14 toy config."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(C14_CONFIG))
        sim = tmp_path / "sim"

        def run(command, tag):
            argv = {"simulate": ["simulate", str(cfg)],
                    "reconstruct": ["reconstruct", str(sim / "measurements.bin"),
                                    "--config", str(cfg), "--sigma-max", "5,12"],
                    "svd": ["analyze", "svd", "--config", str(cfg)]}[command]
            assert main(argv + ["--out-dir", str(tmp_path / tag)]) == 0, argv
            return {p.name: p.read_bytes() for p in (tmp_path / tag).iterdir()
                    if p.name != "manifest.json"}
        run.cfg, run.sim = cfg, sim
        return run

    def test_cli_ops_run_one_svd_and_two_svdvals(self, cli_run, svd_calls):
        # reconstruct reads model.bin, whose B equals the kept one bit for bit
        cli_run("simulate", "sim")
        images = [cli_run("reconstruct", f"rec{i}") for i in range(2)]
        sigmas = [cli_run("svd", f"svd{i}") for i in range(2)]
        assert (svd_calls.svd, svd_calls.svdvals) == (1, 2)
        assert images[0] == images[1] and len(images[0]) == 4
        assert sigmas[0] == sigmas[1] and list(sigmas[0]) == ["svd.csv"]

    def test_changed_model_bin_is_factorized_on_its_own_bits(self, cli_run, tmp_path,
                                                              svd_calls):
        cli_run("simulate", "sim")
        kept = cli_run("reconstruct", "kept")
        path = cli_run.sim / "model.bin"
        payload = container.read_container(path)
        B = payload.arrays["B"].copy()
        B[3, 5] += 0.1 * np.abs(B).max()
        # a valid digest over the changed payload, under the configured fingerprint
        container.write_container(path, "model", fingerprint=payload.fingerprint,
                                  directionality=payload.directionality,
                                  arrays={"B": B})
        changed = [cli_run("reconstruct", f"changed{i}") for i in range(2)]
        # one SVD for the kept B, and one per run of the changed B: none is kept
        assert svd_calls.svd == 3
        forward._memo = None
        cfg = load_config(cli_run.cfg)
        fact = factorize(ForwardModel(B=B, fingerprint=payload.fingerprint,
                                      directionality=payload.directionality,
                                      grid=cfg.grid))
        y = container.read_container(cli_run.sim / "measurements.bin").arrays["y"]
        for k in (5, 12):
            name = f"image_k{k}.csv"
            image_to_csv(tmp_path / name, reconstruct(fact, y, replace(cfg.recon,
                                                                       sigma_max=k)))
            expected = (tmp_path / name).read_bytes()
            assert changed[0][name] == changed[1][name] == expected != kept[name]

    def test_other_geometry_frees_the_kept_results(self, toy_radar, toy_grid, toy_mask,
                                                   toy_rotation, toy_sampling,
                                                   svd_calls):
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling)
        model = build_forward(*args)
        fact = factorize(model)
        assert factorize(model) is fact and svd_calls.svd == 1
        sigma = singular_values(model)
        assert singular_values(model) is sigma and svd_calls.svdvals == 1
        refs = [weakref.ref(fact), weakref.ref(fact.U), weakref.ref(sigma)]
        del fact, sigma
        assert all(ref() is not None for ref in refs)
        narrow = replace(toy_mask, blade_width_m=toy_mask.blade_width_m * 0.5)
        build_forward(toy_radar, toy_grid, narrow, toy_rotation, toy_sampling)
        assert [ref() for ref in refs] == [None, None, None]

    @pytest.mark.parametrize("wrap", ["fingerprint", "directionality"])
    def test_wrapped_kept_b_gets_its_own_results(self, toy_radar, toy_grid, toy_mask,
                                                 toy_rotation, toy_sampling, svd_calls,
                                                 wrap):
        # a model that wraps the kept bidirectional B under another fingerprint,
        # or as the unidirectional model, is not a kept model: each call
        # computes, and the kept model's results stay as they were
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling)
        model = build_forward(*args)
        fact, sigma = factorize(model), singular_values(model)
        if wrap == "fingerprint":
            other = replace(model, fingerprint="0" * 16)
        else:
            other = replace(build_forward(*args, "unidirectional"), B=model.B)
        facts = [factorize(other) for _ in range(2)]
        sigmas = [singular_values(other) for _ in range(2)]
        assert (svd_calls.svd, svd_calls.svdvals) == (3, 3)
        assert facts[0] is not facts[1] and all(f is not fact for f in facts)
        assert sigmas[0] is not sigmas[1] and all(s is not sigma for s in sigmas)
        assert factorize(model) is fact and singular_values(model) is sigma
        assert np.array_equal(facts[0].S, fact.S) and np.array_equal(sigmas[0], sigma)

    def test_log_reads_kept_hits_and_misses(self, cli_run, caplog):
        cli_run("simulate", "sim")
        (cli_run.sim / "model.bin").unlink()
        forward._memo = None
        caplog.set_level(logging.DEBUG, logger="mmpinhole.forward")
        for i in range(2):
            cli_run("reconstruct", f"rec{i}")
        fingerprint = container.read_header(cli_run.sim / "measurements.bin")[-1]
        lines = [r.getMessage() for r in caplog.records if r.name == "mmpinhole.forward"]
        assert lines == [
            f"model {fingerprint} (bidirectional): kept model miss, assembling",
            f"factorize of model {fingerprint}: derived result miss",
            f"model {fingerprint} (bidirectional): kept model hit",
            f"factorize of model {fingerprint}: derived result hit",
        ]

    @pytest.mark.parametrize("check", ["depth", "pitch", "extent"])
    def test_rejected_lattice_has_no_fingerprint(self, toy_radar, toy_grid, toy_mask,
                                                 toy_rotation, toy_sampling, assemblies,
                                                 check):
        # both entry points raise assembly's error, and the kept model stays
        kept = build_forward(toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling)
        mask, samp = toy_mask, toy_sampling
        if check == "depth":
            mask = replace(toy_mask, plane_depth_m=0.09)
            message = "plane sampling depth 0.03 m differs from the mask plane depth 0.09 m"
        elif check == "pitch":
            samp = replace(toy_sampling, spacing_m=0.6 * TOY_WAVELENGTH)
            message = "plane sampling pitch must be at most wavelength/2"
        else:
            samp = replace(toy_sampling, extent_m=0.5 * toy_sampling.extent_m)
            message = "plane sampling extent must cover the swept circle plus one blade width"
        args = (toy_radar, toy_grid, mask, toy_rotation, samp)
        for call in (lambda: config_fingerprint(*args, "bidirectional"),
                     lambda: build_forward(*args, transmission=transmission_for(
                         mask, toy_rotation, samp)),
                     lambda: build_forward(*args)):
            with pytest.raises(ParameterError) as exc:
                call()
            assert str(exc.value) == message
        assert assemblies.count == 1 and forward._memo[1]["bidirectional"] is kept


class TestBuildForward:
    def test_bidirectional_is_entrywise_product(self, toy_radar, toy_grid,
                                                toy_mask, toy_rotation,
                                                toy_sampling):
        trans = open_mask(toy_rotation, toy_sampling)
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling)
        tx, rx = assemble_oneway(*args, trans)
        bi = build_forward(*args, "bidirectional", transmission=trans)
        uni = build_forward(*args, "unidirectional", transmission=trans)
        np.testing.assert_allclose(bi.B, tx * rx, rtol=1e-12)
        np.testing.assert_allclose(uni.B, rx, rtol=1e-12)

    @pytest.mark.parametrize("mode", ["regular-pinhole", "inverse-pinhole"])
    @pytest.mark.parametrize("directionality", ["unidirectional", "bidirectional"])
    def test_lossless_blade_is_the_open_mask(self, toy_radar, toy_grid, toy_mask,
                                             toy_rotation, toy_sampling, mode,
                                             directionality):
        # attenuation 0 dB: inside_amp == outside_amp == 1, so the footprint
        # rows are assembled and scaled by 0, leaving the open mask's bits
        mask = replace(toy_mask, mode=mode, attenuation_db=0.0)
        trans = transmission_for(mask, toy_rotation, toy_sampling)
        assert trans.inside_amp == trans.outside_amp == 1.0
        assert any(idx.size for idx in trans.footprint_indices)
        args = (toy_radar, toy_grid, mask, toy_rotation, toy_sampling, directionality)
        lossless = build_forward(*args)
        opened = build_forward(*args, transmission=open_mask(toy_rotation, toy_sampling))
        assert np.array_equal(lossless.B, opened.B)
        assert lossless.fingerprint != opened.fingerprint

    def test_bidirectional_evaluates_each_kernel_chunk_once(
            self, toy_radar, toy_mask, toy_rotation, toy_sampling, monkeypatch,
            kernel_blocks):
        grid = build_scene_grid(2.0, -30.0, 30.0, 0.5, [0.0])
        monkeypatch.setattr(propagation, "_SCENE_BLOCK_BYTES",
                            64 * 16 * toy_sampling.n_samples)
        build_forward(toy_radar, grid, toy_mask, toy_rotation, toy_sampling,
                      "bidirectional")
        blocks = kernel_blocks.per_block()
        assert len(blocks) == math.ceil(grid.n_points / 64) > 1
        assert sum(width for width, _ in blocks) == grid.n_points
        # every block of this flat grid is folded: the y <= 0 half, once
        n = toy_sampling.axis_coords.size
        assert {rows for _, rows in blocks} == {(n + 1) // 2 * n}

    def test_colocated_open_mask_matches_two_way_free_space(self, toy_mask,
                                                            monkeypatch):
        # Rayleigh-Sommerfeld integral over the open plane reproduces the
        # free-space round trip (1/d^2) exp(i 4 pi d / lambda).  The phase
        # identity is sharp; the amplitude converges slowly with the window
        # size, and the antenna pattern contributes a fixed range-independent
        # factor, so entries stay proportional to the two-way kernel.
        mask = replace(toy_mask, blade_length_m=0.08, blade_width_m=0.012,
                       axis_offset_m=0.0)
        radar = default_radar_config(mask, wavelength_m=TOY_WAVELENGTH,
                                     colocated=True)
        samp = MaskPlaneSampling(spacing_m=TOY_WAVELENGTH / 8,
                                 extent_m=0.96, plane_depth_m=mask.plane_depth_m)
        rot = RotationSampling(1)
        grid = build_scene_grid(2.0, 0, 0, 1, [0])
        with monkeypatch.context() as m:
            # a flat pattern: a wide-FoV radar still tapers too much
            m.setattr(propagation, "pattern_weight",
                      lambda radar, direction: np.ones(np.shape(direction)[:-1]))
            model = build_forward(radar, grid, mask, rot, samp, "bidirectional",
                                  transmission=open_mask(rot, samp))
        entry = model.B[0, 0]
        err = math.remainder(np.angle(entry) - 4 * math.pi * 2.0 / TOY_WAVELENGTH,
                             2 * math.pi)
        assert abs(err) < 0.05
        assert abs(entry) == pytest.approx(1 / 2.0 ** 2, rel=0.15)
        # proportionality across target ranges under the default pattern
        consts = []
        for dist in (1.0, 2.0, 4.0):
            g = build_scene_grid(dist, 0, 0, 1, [0])
            m = build_forward(radar, g, mask, rot, samp, "bidirectional",
                              transmission=open_mask(rot, samp))
            consts.append(m.B[0, 0] * dist ** 2
                          * np.exp(-4j * math.pi * dist / TOY_WAVELENGTH))
        consts = np.array(consts) / consts[0]
        assert np.abs(np.abs(consts) - 1).max() < 0.03
        assert np.abs(np.angle(consts)).max() < 0.03

    def test_phase_doubling_colocated(self, toy_mask, toy_rotation, toy_sampling,
                                      toy_grid):
        radar = default_radar_config(toy_mask, wavelength_m=TOY_WAVELENGTH,
                                     colocated=True)
        trans = open_mask(toy_rotation, toy_sampling)
        args = (radar, toy_grid, toy_mask, toy_rotation, toy_sampling)
        bi = build_forward(*args, "bidirectional", transmission=trans).B
        uni = build_forward(*args, "unidirectional", transmission=trans).B
        err = np.angle(bi * np.exp(-2j * np.angle(uni)))
        assert np.abs(err).max() < 1e-9

    def test_fingerprint_tracks_inputs(self, toy_radar, toy_grid, toy_mask,
                                       toy_rotation, toy_sampling, assemblies):
        # a narrower blade, so that the lattice still covers it
        masks = (toy_mask, toy_mask,
                 replace(toy_mask, blade_width_m=toy_mask.blade_width_m * 0.5))
        fp1, fp2, fp3 = (
            config_fingerprint(toy_radar, toy_grid, mask, toy_rotation, toy_sampling,
                               "bidirectional")
            for mask in masks)
        assert fp1 == fp2 and len(fp1) == 16
        assert fp3 != fp1
        # the kept model serves the same inputs only: the second mask hits; the
        # first mask with one footprint cell less misses, and so does the third
        trans = transmission_for(toy_mask, toy_rotation, toy_sampling)
        rows = list(trans.footprint_indices)
        t = next(i for i, row in enumerate(rows) if row.size)
        rows[t] = rows[t][1:]
        for mask, transmission in [(masks[0], None), (masks[1], None),
                                   (toy_mask, replace(trans, footprint_indices=rows)),
                                   (masks[2], None)]:
            build_forward(toy_radar, toy_grid, mask, toy_rotation, toy_sampling,
                          transmission=transmission)
        assert assemblies.count == 3

    def test_fingerprint_covers_transmission_and_pattern(
            self, toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling):
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling, "bidirectional")
        narrow = replace(toy_radar, azimuth_fov_deg=30.0, elevation_fov_deg=10.0)
        models = [build_forward(*args),
                  build_forward(*args, transmission=open_mask(toy_rotation, toy_sampling)),
                  build_forward(narrow, *args[1:])]
        assert not np.array_equal(models[0].B, models[1].B)
        assert not np.array_equal(models[0].B, models[2].B)
        assert len({m.fingerprint for m in models}) == 3

    def test_explicit_defaults_keep_fingerprint(
            self, toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling):
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling, "bidirectional")
        default = build_forward(*args).fingerprint
        trans = transmission_for(toy_mask, toy_rotation, toy_sampling)
        explicit = build_forward(*args, transmission=trans)
        assert explicit.fingerprint == default == config_fingerprint(*args)

    def test_fingerprint_evaluates_no_antenna_pattern(
            self, toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling, monkeypatch):
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling, "bidirectional")
        trans = transmission_for(toy_mask, toy_rotation, toy_sampling)
        built = build_forward(*args, transmission=trans)

        def no_pattern(radar, direction):
            raise AssertionError("the fingerprint evaluated the antenna pattern")
        monkeypatch.setattr(propagation, "pattern_weight", no_pattern)
        assert config_fingerprint(*args) == built.fingerprint
        assert build_forward(*args, transmission=trans).fingerprint == built.fingerprint

    def test_transmission_of_wrong_shape_has_no_fingerprint(
            self, toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling):
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling, "bidirectional")
        wrong = open_mask(RotationSampling(10), toy_sampling)
        with pytest.raises(ShapeError, match="10x"):
            build_forward(*args, transmission=wrong)

    @settings(max_examples=40, deadline=None)
    @given(change=st.sampled_from(["drop-cell", "add-cell", "inside-amp",
                                   "outside-amp", "azimuth-fov", "elevation-fov",
                                   "rx-position", "wavelength"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_any_change_to_b_changes_fingerprint(
            self, toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling,
            change, seed):
        rng = np.random.default_rng(seed)
        args = (toy_radar, toy_grid, toy_mask, toy_rotation, toy_sampling, "bidirectional")
        base = transmission_for(toy_mask, toy_rotation, toy_sampling)
        rows = list(base.footprint_indices)
        amps = {"inside_amp": base.inside_amp, "outside_amp": base.outside_amp}
        radar = toy_radar
        t = int(rng.choice([i for i, row in enumerate(rows) if row.size]))
        if change == "drop-cell":
            rows[t] = np.delete(rows[t], rng.integers(rows[t].size))
        elif change == "add-cell":
            free = np.setdiff1d(np.arange(base.n_samples), rows[t])
            rows[t] = np.sort(np.append(rows[t], rng.choice(free)))
        elif change in ("inside-amp", "outside-amp"):
            amps[change.replace("-", "_")] = float(rng.uniform(0.05, 0.95))
        elif change in ("azimuth-fov", "elevation-fov", "wavelength"):
            name = {"azimuth-fov": "azimuth_fov_deg", "elevation-fov": "elevation_fov_deg",
                    "wavelength": "wavelength_m"}[change]
            # larger only: the lattice stays within half a wavelength
            radar = replace(toy_radar, **{name: getattr(toy_radar, name)
                                          * (1.0 + rng.uniform(0.01, 0.5))})
        elif change == "rx-position":
            shift = rng.uniform(-0.01, 0.01, 3) * [1.0, 1.0, 0.0]
            radar = replace(toy_radar, rx_position=np.add(toy_radar.rx_position, shift))
        other = MaskTransmission(n_samples=base.n_samples, footprint_indices=rows,
                                 **amps)
        model = build_forward(radar, *args[1:], transmission=other)
        reference = build_forward(*args)
        assert not np.array_equal(model.B, reference.B)
        assert model.fingerprint != reference.fingerprint

    def test_virtual_source_phase_consistency(self, toy_mask):
        # a cell-sized pinhole swept on a circle, diffraction weighting
        # disabled: column phases follow two-way (d_antenna->hole + d_hole->
        # target) geometry
        radar = default_radar_config(toy_mask, wavelength_m=TOY_WAVELENGTH,
                                     colocated=True)
        samp = MaskPlaneSampling(spacing_m=0.01, extent_m=0.04,
                                 plane_depth_m=toy_mask.plane_depth_m)
        pts = samp.samples
        T = 16
        angles = 2 * math.pi * np.arange(T) / T
        ring = np.column_stack([0.015 * np.cos(angles), 0.015 * np.sin(angles)])
        cells = [int(np.argmin(np.linalg.norm(pts[:, :2] - c, axis=1)))
                 for c in ring]
        trans = MaskTransmission(n_samples=samp.n_samples,
                                 inside_amp=1.0, outside_amp=0.0,
                                 footprint_indices=[np.array([c]) for c in cells])
        grid = build_scene_grid(3.0, 10, 10, 1, [0])
        model = build_forward(radar, grid, toy_mask, RotationSampling(T), samp,
                              "bidirectional", transmission=trans)
        d0 = np.linalg.norm(pts[cells] - radar.tx[None, :], axis=1)
        d1 = np.linalg.norm(pts[cells] - grid.points[0][None, :], axis=1)
        expected = 2.0 * 2 * math.pi * (d0 + d1) / TOY_WAVELENGTH
        measured = np.angle(model.B[:, 0])
        err = np.array([math.remainder(m - e, 2 * math.pi)
                        for m, e in zip(measured - measured[0],
                                        expected - expected[0])])
        assert np.abs(err).max() < 0.1


class TestSimulate:
    def test_zero_scene_zero_noise(self, toy_model):
        out = simulate(toy_model, np.zeros(toy_model.n_points), NoiseModel(0.0))
        assert np.all(out.y == 0)

    def test_unit_impulse_returns_column(self, toy_model):
        x = np.zeros(toy_model.n_points)
        x[3] = 1.0
        out = simulate(toy_model, x, NoiseModel(0.0))
        np.testing.assert_array_equal(out.y, toy_model.B[:, 3])

    def test_fixed_seed_bitwise_identical(self, toy_model):
        x = np.ones(toy_model.n_points)
        a = simulate(toy_model, x, NoiseModel(1e-3, seed=42))
        b = simulate(toy_model, x, NoiseModel(1e-3, seed=42))
        np.testing.assert_array_equal(a.y, b.y)

    def test_linearity(self, toy_model):
        rng = np.random.default_rng(0)
        x1 = rng.standard_normal(toy_model.n_points) + 1j * rng.standard_normal(toy_model.n_points)
        x2 = rng.standard_normal(toy_model.n_points) + 1j * rng.standard_normal(toy_model.n_points)
        a, b = 2.5 - 1j, -0.3 + 0.7j
        lhs = simulate(toy_model, a * x1 + b * x2, NoiseModel(0.0)).y
        rhs = a * simulate(toy_model, x1, NoiseModel(0.0)).y \
            + b * simulate(toy_model, x2, NoiseModel(0.0)).y
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-16)

    def test_dimension_mismatch(self, toy_model):
        with pytest.raises(ShapeError):
            simulate(toy_model, np.zeros(toy_model.n_points + 1), NoiseModel(0.0))

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, -np.inf)])
    def test_non_finite_scene_rejected(self, toy_model, bad):
        x = np.zeros(toy_model.n_points, dtype=complex)
        x[1] = bad
        with pytest.raises(NumericError):
            simulate(toy_model, x, NoiseModel(0.0))

    @pytest.mark.parametrize("power", [np.nan, np.inf, -1e-3])
    def test_invalid_noise_power_rejected(self, power):
        with pytest.raises(ParameterError):
            NoiseModel(power)

    def test_noise_from_snr(self, toy_model):
        noise = noise_from_snr(toy_model, 20.0, seed=0)
        j = toy_model.grid.index_of(0.0)
        sig = np.mean(np.abs(toy_model.B[:, j]) ** 2)
        assert noise.noise_power == pytest.approx(sig / 100.0)

    @pytest.mark.parametrize("snr_db", [-4000.0, 4000.0])
    def test_noise_from_snr_out_of_range(self, toy_model, snr_db):
        with pytest.raises(ParameterError):
            noise_from_snr(toy_model, snr_db, seed=0)


class TestSampleInterval:
    def test_default_rate(self):
        assert sample_interval_s(600.0, 1000) == pytest.approx(1e-4)

    def test_validation(self):
        with pytest.raises(ParameterError):
            sample_interval_s(0.0, 1000)


class TestDoppler:
    def test_zero_velocity_identity(self):
        m = MeasurementSet(y=np.exp(1j * np.linspace(0, 5, 64)))
        out = apply_doppler(m, 0.0, 1e-4, 4e-3)
        np.testing.assert_array_equal(out.y, m.y)

    def test_half_cycle_ramp(self):
        T, dt, lam = 256, 1e-4, 4e-3
        v = lam / (4 * T * dt)
        m = MeasurementSet(y=np.ones(T, dtype=complex))
        out = apply_doppler(m, v, dt, lam)
        assert np.angle(out.y[-1]) == pytest.approx(math.pi * (T - 1) / T, rel=1e-9)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        m = MeasurementSet(y=rng.standard_normal(128) + 1j * rng.standard_normal(128))
        out = apply_doppler(apply_doppler(m, 3.7, 1e-4, 4e-3), -3.7, 1e-4, 4e-3)
        assert np.abs(out.y - m.y).max() < 1e-12


class TestBladePhase:
    def _synthetic_cal(self, T=1000, blade_count=2, phase_amp=(0.4, 0.15),
                       snr_db=None, seed=0):
        t = np.arange(T)
        w = 2 * math.pi * t / T
        mag = np.ones(T)
        for k in range(blade_count):
            center = (2 * k + 1) * T // (2 * blade_count)
            mag -= 0.92 * np.exp(-0.5 * ((t - center) / (T * 0.01)) ** 2)
        phi = phase_amp[0] * np.sin(blade_count * w + 0.3) \
            + phase_amp[1] * np.sin(2 * blade_count * w - 1.1)
        y = mag * np.exp(1j * phi)
        if snr_db is not None:
            rng = np.random.default_rng(seed)
            sigma = math.sqrt(np.mean(mag ** 2) / 10 ** (snr_db / 10) / 2)
            y = y + sigma * (rng.standard_normal(T) + 1j * rng.standard_normal(T))
        return MeasurementSet(y=y), phi

    def test_identity_when_zero_profile(self):
        m = MeasurementSet(y=np.exp(1j * np.linspace(0, 2, 50)))
        out = apply_blade_phase(m, np.zeros(50))
        np.testing.assert_array_equal(out.y, m.y)

    def test_apply_then_negate_restores(self):
        rng = np.random.default_rng(1)
        m = MeasurementSet(y=rng.standard_normal(64) + 1j * rng.standard_normal(64))
        phi = rng.uniform(-1, 1, 64)
        out = apply_blade_phase(apply_blade_phase(m, phi), -phi)
        assert np.abs(out.y - m.y).max() < 1e-12

    def test_length_mismatch(self):
        m = MeasurementSet(y=np.ones(10, dtype=complex))
        with pytest.raises(ShapeError):
            apply_blade_phase(m, np.zeros(11))

    def test_inject_recover_round_trip(self):
        cal, phi = self._synthetic_cal()
        est = estimate_blade_phase(cal, blade_count=2)
        mag = np.abs(cal.y)
        valid = mag >= 0.5 * np.median(mag)
        assert np.abs(est - phi)[valid].max() < 0.1

    def test_null_case_statistics(self):
        cal, _ = self._synthetic_cal(phase_amp=(0.0, 0.0), snr_db=30.0)
        est = estimate_blade_phase(cal, blade_count=2)
        assert np.abs(est).max() < 0.02

    def test_profile_periodicity(self):
        cal, _ = self._synthetic_cal(snr_db=25.0)
        est = estimate_blade_phase(cal, blade_count=2)
        np.testing.assert_allclose(est, np.roll(est, est.size // 2), atol=1e-9)

    def test_estimation_needs_valid_samples(self):
        y = np.full(100, 1e-6, dtype=complex)
        y[:10] = 1.0
        with pytest.raises(EstimationError):
            estimate_blade_phase(MeasurementSet(y=y), blade_count=2)

    def test_estimate_and_cancel_residual(self):
        cal, phi = self._synthetic_cal(snr_db=35.0, seed=4)
        est = estimate_blade_phase(cal, blade_count=2)
        cleaned = apply_blade_phase(cal, -est)
        mag = np.abs(cal.y)
        valid = mag >= 0.5 * np.median(mag)
        residual = np.angle(cleaned.y * np.exp(-1j * 0))[valid]
        # remove the constant component before measuring the residual spread
        residual = residual - residual.mean()
        assert residual.std() < 0.05

    def test_twin_blade_phase_spectrum_peak(self):
        cal, phi = self._synthetic_cal(phase_amp=(0.4, 0.0))
        spec = np.abs(np.fft.fft(phi))
        assert int(np.argmax(spec[1:spec.size // 2])) + 1 == 2
