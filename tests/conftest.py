import math

import numpy as np
import pytest

from mmpinhole import (MaskGeometry, MaskPlaneSampling, RadarConfig,
                       RotationSampling, build_scene_grid,
                       default_radar_config)

# Toy configuration: centimeter wavelength and a coarse lattice so that
# model assembly takes milliseconds.  Physics is unchanged, only scaled.
TOY_WAVELENGTH = 0.04


@pytest.fixture(scope="session")
def toy_mask():
    return MaskGeometry(blade_count=1, blade_length_m=0.024, blade_width_m=0.012,
                        plane_depth_m=0.03, axis_offset_m=0.015)


@pytest.fixture(scope="session")
def toy_radar(toy_mask):
    return default_radar_config(toy_mask, wavelength_m=TOY_WAVELENGTH)


@pytest.fixture(scope="session")
def toy_radar_colocated(toy_mask):
    return default_radar_config(toy_mask, wavelength_m=TOY_WAVELENGTH,
                                colocated=True)


@pytest.fixture(scope="session")
def toy_rotation():
    return RotationSampling(64)


@pytest.fixture(scope="session")
def toy_sampling(toy_mask):
    return MaskPlaneSampling(spacing_m=TOY_WAVELENGTH / 4.0,
                             extent_m=toy_mask.blade_length_m + toy_mask.blade_width_m,
                             plane_depth_m=toy_mask.plane_depth_m)


@pytest.fixture(scope="session")
def toy_grid():
    return build_scene_grid(2.0, -30.0, 30.0, 4.0, [0.0])


class KernelBlocks:
    """Records every plane->scene kernel call of ``assemble_oneway``.

    Workers evaluate a kernel block in lattice-row ranges, so ``per_block``
    sums the rows of the calls that share a block (the same first scene
    point) and returns one (scene columns, lattice rows) pair per block, in
    block order.
    """

    def __init__(self, propagation):
        self.calls = []
        self._kernel = propagation._plane_to_scene_chunk

    def spy(self, plane_pts, scene_pts, wavelength_m):
        self.calls.append((scene_pts[0].tobytes(), len(scene_pts), len(plane_pts)))
        return self._kernel(plane_pts, scene_pts, wavelength_m)

    def per_block(self):
        blocks = {}
        for key, width, rows in self.calls:
            blocks[key] = (width, blocks.get(key, (width, 0))[1] + rows)
        return list(blocks.values())


@pytest.fixture
def kernel_blocks(monkeypatch):
    from mmpinhole import propagation
    blocks = KernelBlocks(propagation)
    monkeypatch.setattr(propagation, "_plane_to_scene_chunk", blocks.spy)
    return blocks


@pytest.fixture(autouse=True)
def no_kept_model(monkeypatch):
    """Start every test with no model and no transmission digest kept.

    A model kept from an earlier test would skip the assembly that kernel
    spies and patched antenna patterns rely on, and a kept digest the
    footprint code that a test patches.
    """
    from mmpinhole import forward
    monkeypatch.setattr(forward, "_memo", None)
    monkeypatch.setattr(forward, "_mode_digest", None)


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts the SVDs run: ``.svd`` by ``factorize``, ``.svdvals`` by ``analyze svd``."""
    from types import SimpleNamespace

    from mmpinhole import cli, recon
    calls = SimpleNamespace(svd=0, svdvals=0)

    def counted(name, function):
        def spy(*args, **kwargs):
            setattr(calls, name, getattr(calls, name) + 1)
            return function(*args, **kwargs)
        return spy
    monkeypatch.setattr(recon.linalg, "svd", counted("svd", recon.linalg.svd))
    monkeypatch.setattr(cli, "svdvals", counted("svdvals", cli.svdvals))
    return calls


def full_lattice_footprint(mask, angles_rad, pts_xy):
    """Reference: the blade rectangle test on every point for every angle."""
    angles = np.asarray(angles_rad, dtype=float)
    pts = np.asarray(pts_xy, dtype=float)
    x, y = pts[None, :, 0], pts[None, :, 1]
    out = np.zeros((angles.size, len(pts)), dtype=bool)
    for b in range(mask.blade_count):
        a = angles + 2.0 * math.pi * b / mask.blade_count
        sin_a, cos_a = np.sin(a)[:, None], np.cos(a)[:, None]
        u = -x * sin_a + y * cos_a
        v = x * cos_a + y * sin_a
        out |= ((u >= 0.0) & (u <= mask.blade_length_m)
                & (np.abs(v) <= mask.blade_width_m / 2.0))
    return out
