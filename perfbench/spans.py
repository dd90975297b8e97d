"""Outside-in span and counter recorder for the flowforge benchmark.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` swaps
the entry points of each layer for timing wrappers, in every loaded
``flowforge`` module that bound the original function, and
``Tracer.uninstall`` puts the originals back, so traced and untraced
iterations run in one process.  The span model follows OpenTelemetry: a
span has a name, start, end, the span that caused it, and the scene stem
or case id it worked on; spans of one iteration share a trace id.  Spans
and counters stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

# layer of a span = the part of its name before the first dot; stage spans
# are opened by the benchmark around each ``flowforge.cli.main`` call
LAYERS = ("cli", "geometry", "sampling", "sdf", "resample", "orchestrate",
          "config", "fields", "diagnostics")
REJECTION_REASONS = ("in_bounds", "non_intersection", "clearance",
                     "min_volume", "no_candidate")
STAGES = ("generate", "sdf", "orchestrate", "orchestrate_rerun", "resample",
          "gate", "report")


def _stem(value):
    """Scene stem or case id from a path-like argument, else None."""
    if isinstance(value, (str, os.PathLike)):
        path = Path(value)
        return path.stem if path.suffix else path.name
    return None


class Tracer:
    """Spans and counters of one process; safe to use from worker threads."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self.trace_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._stage = None      # (span id, item) of the open stage span
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    @contextmanager
    def span(self, name: str, item: str | None = None, stage: bool = False,
             sticky: bool = False):
        """Time a block.  The item is the parent's when it has one, else the
        given one, else the last ``sticky`` item this thread saw in the
        current stage (the scene a ``forge sdf`` worker is voxelizing)."""
        stack = self._stack()
        # a worker thread's first span hangs off the stage that spawned it
        parent = stack[-1] if stack else self._stage
        stage_id = self._stage[0] if self._stage else None
        if parent is not None and parent[2] is not None:
            item = parent[2]
        elif item is None:
            last = getattr(self._local, "sticky", None)
            if last is not None and last[0] == stage_id:
                item = last[1]
        if sticky:
            self._local.sticky = (stage_id, item)
        sid = next(self._ids)
        frame = (sid, name, item)
        stack.append(frame)
        if stage:
            self._stage = frame
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if stage:
                self._stage = None
            record = {"trace": self.trace_id, "id": sid, "name": name,
                      "parent": parent[0] if parent else None, "item": item,
                      "start": start, "end": end}
            with self._lock:
                self.spans.append(record)

    def stage(self, name: str, item: str | None = None):
        """Span of one ``forge`` stage; worker threads' spans nest under it."""
        return self.span(name, item, stage=True)

    def count(self, name: str, n: float = 1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def maximum(self, name: str, value: float):
        with self._lock:
            self.counters[name] = max(self.counters.get(name, 0), value)

    def reset(self, trace_id: int):
        """Start a new iteration; earlier spans are kept for the dump."""
        self.trace_id = trace_id
        self.counters = {}

    # -- patching ----------------------------------------------------------
    def install(self):
        for target, make in _wrappers(self):
            module_name, _, attr = target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = getattr(owner, method)
                self._patch(owner, method, original, make(original))
                continue
            original = getattr(module, attr)
            wrapped = make(original)
            # rebind every module that imported the function by name
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("flowforge"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def dump(self, path: Path):
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Wrappers: one per layer entry point
# ---------------------------------------------------------------------------
def _spanned(tracer: Tracer, name: str, item=None, after=None,
             sticky: bool = False):
    """Wrap a function in a span; ``after(result, args, kwargs)`` records
    counters from what the call returned."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, item(args) if item else None,
                             sticky=sticky):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper
    return make


def _point_triangle_counter(tracer: Tracer):
    """Pair counts of the voxelizer's band pass; no span (hot path)."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(points, base, *rest):
            # calls made through signed_distance_at are far-field queries
            if tracer.current() == "sdf.voxelize":
                k, t = len(points), len(base)
                tracer.count("sdf.point_evals", k)
                tracer.count("sdf.pair_evals", k * t)
                tracer.maximum("sdf.max_call_pairs", k * t)
            return fn(points, base, *rest)
        return wrapper
    return make


def _wrappers(tracer: Tracer):
    count = tracer.count

    def rejection(result, _args, _kwargs):
        ok, reason = result
        if not ok:
            count(f"geometry.rejections.{reason}")

    def no_candidate(result, _args, _kwargs):
        if result is None:
            count("geometry.rejections.no_candidate")

    def band(field, args, kwargs):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        band_w = args[2] if len(args) > 2 else kwargs.get("band_w", 8)
        edge = band_w * grid.spacing[0]
        count("sdf.band_voxels", int((abs(field.values) < edge).sum()))

    def interpolated(result, _args, _kwargs):
        count("resample.holes", result[1]["holes"])

    def knn_rows(_result, args, _kwargs):
        count("resample.knn_rows", len(args[1]))

    def npy_written(path, _args, _kwargs):
        count("fields.npy_write_bytes", os.path.getsize(path))

    def npy_read(array, _args, _kwargs):
        count("fields.npy_read_bytes", array.nbytes)

    def arg0(args):
        return _stem(args[0]) if args else None

    s = functools.partial(_spanned, tracer)
    return [
        ("flowforge.geometry.scene:build_scene", s("geometry.build_scene")),
        ("flowforge.geometry.scene:make_candidate",
         s("geometry.make_candidate", after=no_candidate)),
        ("flowforge.geometry.scene:validate_candidate",
         s("geometry.validate_candidate", after=rejection)),
        ("flowforge.geometry.export:export_scene",
         s("geometry.export_scene",
           item=lambda a: f"{a[2]}_{a[3]}" if len(a) > 3 else None)),
        ("flowforge.geometry.stl:read_stl",
         s("geometry.read_stl", item=arg0, sticky=True)),
        ("flowforge.sampling:next_point", s("sampling.next_point")),
        ("flowforge.sdf:MeshAccel.__init__", s("sdf.accel_build")),
        ("flowforge.sdf:voxelize", s("sdf.voxelize", after=band)),
        ("flowforge.sdf:signed_distance_at", s("sdf.farfield")),
        ("flowforge.sdf:_point_triangle", _point_triangle_counter(tracer)),
        ("flowforge.resample:interpolate",
         s("resample.interpolate", after=interpolated)),
        ("flowforge.resample:build_index", s("resample.index_build")),
        ("flowforge.resample:_neighbor_sets_n_closest",
         s("resample.knn", after=knn_rows)),
        ("flowforge.resample:_neighbor_sets_radius",
         s("resample.knn", after=knn_rows)),
        ("flowforge.orchestrate:materialize_case",
         s("orchestrate.materialize", item=arg0)),
        ("flowforge.orchestrate:submit", s("orchestrate.submit")),
        ("flowforge.orchestrate:synthetic_solver",
         s("orchestrate.runner", item=arg0)),
        ("flowforge.orchestrate:_persist",
         s("orchestrate.persist",
           item=lambda a: getattr(a[0], "case_id", None) if a else None)),
        ("flowforge.config:config_hash", s("config.config_hash")),
        ("flowforge.fields:export_npy",
         s("fields.npy_write", item=lambda a: _stem(a[1]) if len(a) > 1 else None,
           after=npy_written)),
        ("flowforge.fields:load_npy",
         s("fields.npy_read", item=arg0, after=npy_read)),
        ("flowforge.diagnostics:stationarity_gate", s("diagnostics.gate")),
        ("flowforge.diagnostics:coverage_report", s("diagnostics.report")),
    ]


# ---------------------------------------------------------------------------
# Per-iteration metrics from spans and counters
# ---------------------------------------------------------------------------
def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval covered by children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    out = {}
    for sp in spans:
        covered, cursor = 0.0, sp["start"]
        for lo, hi in sorted(children.get(sp["id"], ())):
            lo, hi = max(lo, cursor), min(hi, sp["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp["id"]] = (sp["end"] - sp["start"]) - covered
    return out


def layer_metrics(spans: list[dict], counters: dict) -> dict[str, float]:
    """Every per-layer metric of one traced iteration (0 where unused)."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    selfs = _self_times(spans)
    for sp in spans:
        name = sp["name"]
        total[name] = total.get(name, 0.0) + sp["end"] - sp["start"]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + selfs[sp["id"]]
        prefix = name.split(".", 1)[0]
        self_by_layer["cli" if prefix == "stage" else prefix] += selfs[sp["id"]]

    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"stage.{stage}_s"] = total.get(f"stage.{stage}", 0.0)
    m["geometry.build_scene_s"] = total.get("geometry.build_scene", 0.0)
    m["geometry.export_scene_s"] = total.get("geometry.export_scene", 0.0)
    for reason in REJECTION_REASONS:
        key = f"geometry.rejections.{reason}"
        m[key] = counters.get(key, 0)
    m["sampling.draws"] = calls.get("sampling.next_point", 0)

    m["sdf.accel_build_s"] = total.get("sdf.accel_build", 0.0)
    m["sdf.voxelize_s"] = total.get("sdf.voxelize", 0.0)
    m["sdf.farfield_s"] = total.get("sdf.farfield", 0.0)
    m["sdf.farfield_queries"] = calls.get("sdf.farfield", 0)
    for key in ("sdf.pair_evals", "sdf.point_evals", "sdf.band_voxels",
                "sdf.max_call_pairs"):
        m[key] = counters.get(key, 0)
    band = counters.get("sdf.band_voxels", 0)
    m["sdf.evals_per_band_voxel"] = (counters.get("sdf.point_evals", 0) / band
                                     if band else 0.0)

    m["resample.interpolate_s"] = total.get("resample.interpolate", 0.0)
    m["resample.fields"] = calls.get("resample.interpolate", 0)
    m["resample.index_builds"] = calls.get("resample.index_build", 0)
    m["resample.index_build_s"] = total.get("resample.index_build", 0.0)
    m["resample.knn_s"] = total.get("resample.knn", 0.0)
    m["resample.knn_rows"] = counters.get("resample.knn_rows", 0)
    m["resample.weights_s"] = self_by_name.get("resample.interpolate", 0.0)
    m["resample.holes"] = counters.get("resample.holes", 0)

    m["orchestrate.materialize_s"] = total.get("orchestrate.materialize", 0.0)
    m["orchestrate.submit_s"] = total.get("orchestrate.submit", 0.0)
    m["orchestrate.runner_s"] = total.get("orchestrate.runner", 0.0)
    m["orchestrate.persist_calls"] = calls.get("orchestrate.persist", 0)
    m["orchestrate.persist_s"] = total.get("orchestrate.persist", 0.0)
    m["config.config_hash_calls"] = calls.get("config.config_hash", 0)

    m["fields.npy_write_s"] = total.get("fields.npy_write", 0.0)
    m["fields.npy_write_bytes"] = counters.get("fields.npy_write_bytes", 0)
    m["fields.npy_read_s"] = total.get("fields.npy_read", 0.0)
    m["fields.npy_read_bytes"] = counters.get("fields.npy_read_bytes", 0)

    m["diagnostics.gate_s"] = total.get("diagnostics.gate", 0.0)
    m["diagnostics.report_s"] = total.get("diagnostics.report", 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    return m
