"""Per-layer tracing from outside the package.

``Tracer`` wraps public functions of ``mmpinhole`` (and ``svdvals``, which
``mmpinhole.cli`` imports inline) and records one span per call while an op
is traced: name, start, end, parent span and op id.  Modules bind names with
``from .x import f``, so a wrapper is installed at every module attribute
that holds the original function.  Spans stay in memory; ``aggregate`` turns
them into per-op metrics at the end of the run.

Self time of a span is its duration minus the time its direct child spans
cover.  Counts are computed from argument shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np


def _transmission_nnz(transmission) -> int:
    if transmission.explicit_values is not None:
        return transmission.n_positions * transmission.n_samples
    return sum(idx.size for idx in transmission.footprint_indices)


def _footprint_cells(result, a):
    return {"cells": np.size(a["angles_rad"]) * len(a["plane_points_xy"])}


def _assembly(result, a):
    n = a["grid"].n_points
    return {"kernel_evals": a["plane_sampling"].n_samples * n,
            "footprint_macs": _transmission_nnz(a["transmission"]) * n}


def _dtw_band(result, a):
    """Sakoe-Chiba band cells, sum(hi - lo + 1), as ``dtw_align`` sizes it."""
    n, m = len(a["template"]), len(a["observed"])
    scale = (m - 1) / (n - 1) if n > 1 else 1.0
    radius = max(1, int(round(a["band_fraction"] * max(n, m))))
    diag = np.arange(n) * scale
    lo = np.maximum(0, np.ceil(diag - radius).astype(int))
    hi = np.minimum(m - 1, np.floor(diag + radius).astype(int))
    return {"band_cells": int(np.sum(hi - lo + 1))}


def _file_bytes(result, a):
    return {"bytes": os.path.getsize(a["path"])}


def _cli_span(a) -> str:
    argv = list(a["argv"])
    return "cli.main." + ("_".join(argv[:2]) if argv[0] == "analyze" else argv[0])


@dataclass(frozen=True)
class Layer:
    module: str
    function: str
    span: str
    counter: Optional[Callable] = None    # (result, bound args) -> {stat: count}
    span_of: Optional[Callable] = None    # bound args -> span name


LAYERS = (
    Layer("mmpinhole.geometry", "footprint_mask_array", "geometry.footprint_mask_array",
          _footprint_cells),
    Layer("mmpinhole.mask", "transmission_for", "mask.transmission_for",
          lambda r, a: {"footprint_nnz": _transmission_nnz(r)}),
    Layer("mmpinhole.propagation", "assemble_oneway", "propagation.assemble_oneway",
          _assembly),
    Layer("mmpinhole.forward", "build_forward", "forward.build_forward"),
    Layer("mmpinhole.forward", "simulate", "forward.simulate"),
    Layer("mmpinhole.forward", "apply_doppler", "forward.apply_doppler"),
    Layer("mmpinhole.recon", "factorize", "recon.factorize"),
    Layer("mmpinhole.recon", "reconstruct", "recon.reconstruct"),
    Layer("mmpinhole.recon", "image_to_csv", "recon.image_to_csv"),
    Layer("mmpinhole.recon", "image_to_pgm", "recon.image_to_pgm"),
    Layer("mmpinhole.analysis", "psf", "analysis.psf"),
    Layer("mmpinhole.analysis", "metric_report", "analysis.metric_report"),
    Layer("mmpinhole.sync", "dtw_align", "sync.dtw_align", _dtw_band),
    Layer("mmpinhole.sync", "resample_to_uniform", "sync.resample_to_uniform"),
    Layer("mmpinhole.container", "write_container", "container.write_container",
          _file_bytes),
    Layer("mmpinhole.container", "read_container", "container.read_container",
          _file_bytes),
    Layer("mmpinhole.cli", "load_config", "cli.load_config"),
    Layer("mmpinhole.cli", "main", "cli.main", span_of=_cli_span),
    Layer("scipy.linalg", "svdvals", "cli.svdvals"),
)

# (metric, unit) emitted by a traced run; every value is per traced op
# except trace.overhead_s.
PER_LAYER = (
    [(f"geometry.footprint_mask_array.{s}", u) for s, u in
     (("calls", "count/op"), ("self_s", "s/op"), ("cells", "count/op"))]
    + [(f"mask.transmission_for.{s}", u) for s, u in
       (("calls", "count/op"), ("self_s", "s/op"), ("footprint_nnz", "count/op"))]
    + [(f"propagation.assemble_oneway.{s}", u) for s, u in
       (("calls", "count/op"), ("self_s", "s/op"), ("kernel_evals", "count/op"),
        ("footprint_macs", "count/op"))]
    + [(f"{f}.{s}", u) for f in ("forward.build_forward", "forward.simulate",
                                 "forward.apply_doppler", "recon.factorize",
                                 "recon.reconstruct")
       for s, u in (("calls", "count/op"), ("self_s", "s/op"))]
    + [("recon.image_to_csv.self_s", "s/op"), ("recon.image_to_pgm.self_s", "s/op")]
    + [(f"{f}.{s}", u) for f in ("analysis.psf", "analysis.metric_report")
       for s, u in (("calls", "count/op"), ("self_s", "s/op"))]
    + [(f"sync.dtw_align.{s}", u) for s, u in
       (("calls", "count/op"), ("self_s", "s/op"), ("band_cells", "count/op"))]
    + [(f"sync.resample_to_uniform.{s}", u) for s, u in
       (("calls", "count/op"), ("self_s", "s/op"))]
    + [(f"container.{f}.{s}", u) for f in ("write_container", "read_container")
       for s, u in (("calls", "count/op"), ("self_s", "s/op"), ("bytes", "bytes/op"))]
    + [("cli.load_config.self_s", "s/op")]
    + [(f"cli.main.{c}.self_s", "s/op") for c in ("simulate", "reconstruct", "analyze_svd")]
    + [("cli.svdvals.calls", "count/op"), ("cli.svdvals.self_s", "s/op"),
       ("trace.overhead_s", "s")]
)


class Tracer:
    """Records spans of wrapped calls while an op is traced."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1, op id]
        self.ops = []          # [op id, start, end]
        self.counts = defaultdict(float)
        self._stack = []
        self._op = None
        self._sites = []       # (module, attribute, original, wrapper)
        for layer in LAYERS:
            home = importlib.import_module(layer.module)
            original = getattr(home, layer.function)
            wrapper = self._wrap(layer, original)
            modules = [home] + [m for name, m in list(sys.modules.items())
                                if m is not None and name.split(".")[0] == "mmpinhole"]
            for module in dict.fromkeys(modules):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._sites.append((module, attr, original, wrapper))

    def _wrap(self, layer: Layer, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if layer.span_of or layer.counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            name = layer.span_of(bound) if layer.span_of else layer.span
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op])
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            self.counts[(name, "calls")] += 1
            if layer.counter:
                for stat, value in layer.counter(result, bound).items():
                    self.counts[(name, stat)] += value
            return result
        return wrapper

    def start(self, op_id):
        """Install the wrappers for one traced op."""
        self._op = op_id
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def stop(self, start: float, end: float):
        """Remove the wrappers and record the op's own span."""
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)
        self.ops.append([self._op, start, end])
        self._op = None

    def self_times(self):
        """{span name: total self seconds} over all traced ops."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name] += (end - start) - covered
        return totals

    def aggregate(self, overhead_s: float) -> dict:
        """Every PER_LAYER metric, per traced op; zero for layers never called."""
        n = max(1, len(self.ops))
        values = {f"{name}.self_s": t / n for name, t in self.self_times().items()}
        values.update({f"{name}.{stat}": c / n for (name, stat), c in self.counts.items()})
        values["trace.overhead_s"] = overhead_s
        return {metric: {"value": values.get(metric, 0.0), "unit": unit}
                for metric, unit in PER_LAYER}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"ops": self.ops, "spans": self.spans}, fh)
