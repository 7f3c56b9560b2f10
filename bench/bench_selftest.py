"""Self-tests of the benchmark, on the toy geometry (a few seconds each).

    python3 -m pytest bench/bench_selftest.py

The file name keeps it out of the repository's default test collection.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import mmpinhole  # noqa: E402
import mmpinhole.cli  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    done = subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace),
                           "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][len("info "):])


def check_result(result, info, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert info["fail_ratio"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec_metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, info = run_bench(workload, 0)
    check_result(result, info, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert ("op_s_tail" in info) == (info["untraced_ops"] >= 100)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, info = run_bench(workload, 1)
    check_result(result, info, SPEC["per_layer"])
    assert info["traced_ops"] >= 1
    assert 0.0 < info["traced_self_s"] <= info["traced_wall_s"]
    per_op_self = sum(m["value"] for name, m in result["metrics"].items()
                      if name.endswith(".self_s"))
    assert per_op_self * info["traced_ops"] <= info["traced_wall_s"] * (1 + 1e-9)


def test_oracle_flags_corrupted_outputs():
    assert oracle.negative_cases(workloads.SMOKE) == []


def test_transmission_row_matches_dense_values():
    geo = workloads.Geometry.of(workloads.SMOKE)
    transmission = mmpinhole.transmission_for(geo.mask, geo.rotation, geo.sampling)
    for t in (0, 7, geo.rotation.count - 1):
        assert (oracle.transmission_row(transmission, t) == transmission.values[t]).all()


def test_tracer_patches_every_lookup_site_and_restores_them():
    import scipy.linalg
    sites = [(mmpinhole.forward, "assemble_oneway"), (mmpinhole.forward, "transmission_for"),
             (mmpinhole.mask, "footprint_mask_array"), (mmpinhole.sync, "footprint_mask_array"),
             (mmpinhole.cli, "build_forward"), (mmpinhole.analysis, "build_forward"),
             (mmpinhole, "build_forward"), (mmpinhole.cli, "image_to_csv"),
             (scipy.linalg, "svdvals")]
    originals = [getattr(module, attr) for module, attr in sites]
    tracer = Tracer()
    tracer.start(0)
    try:
        patched = [getattr(module, attr) for module, attr in sites]
    finally:
        tracer.stop(0.0, 0.0)
    assert all(p is not o and p.__wrapped__ is o for p, o in zip(patched, originals))
    assert [getattr(module, attr) for module, attr in sites] == originals


def test_fails_without_sources(tmp_path):
    """A directory with only BENCHMARK.json and the benchmark exits non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, str(tmp_path / BENCH.name / "run.py"),
                           "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
