"""forge: one entry point wiring all pipeline stages under one config.

Stages are composable but independently runnable on prior outputs; each
stage re-reads upstream sidecars rather than trusting process memory.
Exit codes: 0 success, 1 validation error, 2 I/O or scheduler error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import atomic_open
from .config import (ResolvedConfig, config_hash, resolve_config,
                     write_provenance)
from .diagnostics import (DEFAULT_DELTA_PHI, DEFAULT_EPS_U, coverage_report,
                          stationarity_gate)
from .errors import ArtifactIOError, ForgeError, StateError
from .fields import (DenseField, GridSpec, export_npy, load_npy,
                     read_field_sidecar, write_field_sidecar)
from .geometry import build_scene, draw_dimension, export_scene, read_stl
from .geometry.export import read_scene_yaml, scene_sidecars
from .orchestrate import (BACKENDS, discover_pairs, materialize_case,
                          plan_lanes, read_index, read_manifest, submit,
                          synthetic_solver)
from .resample import (ResampleOperator, apply, build_operator,
                       resample_specs, sample_values)
from .sampling import GeneratorState, freeze_dimension, load_state, save_state
from .sdf import MeshAccel, voxelize
from .yamlio import write_yaml


def _positive_int(text: str) -> int:
    value = int(text)   # argparse reports a ValueError as a usage error
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forge",
        description="procedural channel-flow scenes, SDFs, resampling, "
                    "and campaign orchestration")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-c", "--config", default=None,
                       help="base YAML config (defaults apply when omitted)")
        p.add_argument("overrides", nargs="*",
                       help="key.path=value overrides, applied last")

    p = sub.add_parser("generate", help="sample scenes, write STL+YAML pairs")
    common(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sdf", help="voxelize STL scenes into SDF fields")
    common(p)
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dx", type=int, default=None,
                   help="shorthand for sdf_policy.dx=<n>")
    p.add_argument("--band", type=int, default=None,
                   help="shorthand for sdf_policy.band_w=<n>")
    # the CPUs this process may use (a batch allocation's share of a node)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    p.add_argument("--jobs", type=_positive_int, default=cpus,
                   help="worker processes, one scene each at a time")
    p.add_argument("--require-completed", default=None, metavar="CASES_DIR",
                   help="only voxelize scenes whose case completed")

    p = sub.add_parser("orchestrate", help="materialize cases and submit lanes")
    common(p)
    p.add_argument("--scenes", required=True)
    p.add_argument("--sdf", dest="sdf_dir", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--backend", default=None,
                   choices=BACKENDS)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--end", type=int, default=None)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("resample", help="interpolate case fields onto ML grids")
    common(p)
    p.add_argument("--cases", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ini", default=None,
                   help="classic INI settings file (overrides the policy block)")

    p = sub.add_parser("report", help="coverage CSV tables from scene sidecars")
    common(p)
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gate", help="stationarity gate on one case")
    p.add_argument("--case", required=True)
    p.add_argument("--eps-u", type=float, default=DEFAULT_EPS_U)
    p.add_argument("--dphi", type=float, default=DEFAULT_DELTA_PHI)

    p = sub.add_parser("validate", help="resolve and validate a configuration")
    common(p)
    p.add_argument("--scenes", default=None,
                   help="also re-check exported scene sidecars")
    return parser


def _resolve(args) -> ResolvedConfig:
    overrides = list(getattr(args, "overrides", []) or [])
    if getattr(args, "dx", None) is not None:
        overrides.append(f"sdf_policy.dx={args.dx}")
    if getattr(args, "band", None) is not None:
        overrides.append(f"sdf_policy.band_w={args.band}")
    return resolve_config(getattr(args, "config", None), overrides)


def _recorded_count(path: Path) -> int:
    """The ``samples_generated`` of an earlier run's provenance.json; 0 when
    there is none."""
    if not path.exists():
        return 0
    try:
        return json.loads(path.read_text(encoding="utf-8")).get(
            "samples_generated", 0)
    except (OSError, ValueError, AttributeError) as exc:
        raise ArtifactIOError(f"cannot reread {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------
def _cmd_generate(args) -> int:
    # scipy loads first: imported mid-stage, after the arrays, it adds peak RSS
    import scipy.spatial  # noqa: F401
    cfg = _resolve(args)
    digest = config_hash(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    state_path = out_dir / "generator_state.txt"
    if state_path.exists():
        state = load_state(state_path)
    else:
        state = GeneratorState(mode=cfg.sampling_mode, seed=cfg.seed)
    if state.phase != "final_run":
        skip = cfg.initial_test_repeat if cfg.sampling_mode == "sobol" else 0
        freeze_dimension(state, draw_dimension(cfg.data), skip)

    # generate is the one stage whose count accumulates across runs (it
    # resumes from generator_state.txt), so a run may not shrink it
    target = cfg.repeat
    count = max(state.samples_generated, target)
    previous = _recorded_count(out_dir / "provenance.json")
    if count < previous:
        raise StateError(f"counter regression: samples_generated {count} "
                         f"< previous {previous}")
    made = 0
    while state.samples_generated < target:
        scene = build_scene(cfg, state)
        index = state.samples_generated - 1
        export_scene(scene, out_dir, cfg.data["output_prefix"], index,
                     cfg.data["name_object_out"], cfg, digest)
        save_state(state, state_path)
        made += 1
    write_provenance(cfg, out_dir, state.samples_generated,
                     state.index if cfg.sampling_mode == "sobol" else None)
    print(f"generate: {made} new scene(s), {state.samples_generated} total "
          f"in {out_dir}")
    return 0


def _cmd_sdf(args) -> int:
    # scipy loads first: imported mid-stage, after the arrays, it adds peak RSS
    import scipy.ndimage  # noqa: F401
    cfg = _resolve(args)
    in_dir = Path(args.in_dir)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stls = sorted(in_dir.glob("*.stl"))
    if not stls:
        raise ArtifactIOError(f"no STL files under {in_dir}")
    if args.require_completed:
        keep = {e["stem"] for e in read_index(args.require_completed).values()
                if e.get("status") == "completed"}
        stls = [p for p in stls if p.stem in keep]

    sdf_policy = cfg.sdf_policy
    box = cfg.bounding_box
    grid = GridSpec.preset(sdf_policy["dx"], extents=box.extents,
                           origin=box.mins, aniso=tuple(sdf_policy["aniso"]))

    scene = functools.partial(_voxelize_scene, out_dir=out_dir, grid=grid,
                              sdf_policy=sdf_policy)
    import multiprocessing  # here: it would add start-up to every command
    workers = min(args.jobs, len(stls))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        done = [scene(stl_path) for stl_path in stls]
    else:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        # fork, not spawn: workers start with numpy, scipy and flowforge
        # loaded, and this process runs no other thread while it forks them
        context = multiprocessing.get_context("fork")
        try:
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                done = list(pool.map(scene, stls))
        except BrokenProcessPool as exc:
            raise ArtifactIOError(f"a worker process died: {exc}") from exc
    write_provenance(cfg, out_dir, len(done))
    print(f"sdf: wrote {len(done)} field(s) at dx={sdf_policy['dx']} "
          f"into {out_dir}")
    return 0


def _voxelize_scene(stl_path: Path, out_dir: Path, grid: GridSpec,
                    sdf_policy: dict) -> str:
    """One scene of ``forge sdf``: its SDF ``.npy`` and sidecar."""
    mesh = read_stl(stl_path)
    field = voxelize(mesh, grid, sdf_policy["band_w"], accel=MeshAccel(mesh))
    stem = out_dir / stl_path.stem
    export_npy(field.values, stem.with_suffix(".npy"))
    write_field_sidecar(
        stem.with_suffix(".yaml"), grid,
        components=1, sign_convention="negative_inside",
        band_w=int(sdf_policy["band_w"]),
        aniso=list(sdf_policy["aniso"]),
        source_mesh_sha256=hashlib.sha256(stl_path.read_bytes()).hexdigest(),
        source_stl=stl_path.name)
    return stl_path.stem


def _cmd_orchestrate(args) -> int:
    cfg = _resolve(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = discover_pairs(args.scenes)
    end = args.end if args.end is not None else len(pairs)
    if not (0 <= args.start < end <= len(pairs)):
        raise ArtifactIOError(
            f"case range [{args.start}, {end}) outside 0..{len(pairs)}")
    pairs = pairs[args.start:end]

    sdf_dir = Path(args.sdf_dir) if args.sdf_dir else None
    records = []
    for stem, yaml_path, stl_path in pairs:
        sdf_stem = sdf_dir / stem if sdf_dir else None
        records.append(materialize_case(
            yaml_path, stl_path, cfg.orchestration_policy["templates_dir"],
            cfg, out_dir, sdf_stem=sdf_stem, force=args.force))

    orch = cfg.orchestration_policy
    backend = args.backend or orch["backend"]
    plan = plan_lanes(args.start, end, orch["lanes"])
    result = submit(records, plan, backend, out_dir,
                    submit_command=orch["submit_command"],
                    runner=synthetic_solver if backend == "local" else None)
    write_provenance(cfg, out_dir, len(records))
    print(f"orchestrate[{backend}]: {result.submitted} submitted, "
          f"{result.skipped_completed} already complete, "
          f"{len(result.failed)} failed, "
          f"{len(result.skipped_after_failure)} skipped in {out_dir}")
    return 0


def _cmd_resample(args) -> int:
    # scipy loads first: imported mid-stage, after the arrays, it adds peak RSS
    import scipy.spatial  # noqa: F401
    cfg = _resolve(args)
    cases_dir = Path(args.cases)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    ordered = sorted(read_index(cases_dir).items(),
                     key=lambda kv: kv[1]["stem"])

    policy = cfg.resample_policy
    box = cfg.bounding_box
    if args.ini:
        from .resample import read_ini_config
        ini = read_ini_config(args.ini)
        target, kernel, footprint = ini["target"], ini["kernel"], ini["footprint"]
    else:
        target, kernel, footprint = resample_specs(policy, box.mins, box.extents)

    def write_components(stem_path: Path, suffix: str, values: np.ndarray):
        if policy["split_components"] and values.ndim == 4:
            for c, axis in enumerate("xyz"):
                export_npy(values[c],
                           Path(f"{stem_path}_{suffix}_{axis}.npy"))
        else:
            export_npy(values, Path(f"{stem_path}_{suffix}.npy"))

    # neighbor sets and weights depend only on the source grid: build them
    # once per grid and reuse them for every velocity and SDF field on it
    operators: dict[GridSpec, ResampleOperator] = {}

    def resample_field(field: DenseField):
        operator = operators.get(field.grid)
        if operator is None:
            operator = operators[field.grid] = build_operator(
                field.grid.sample_positions(), target, kernel, footprint)
        return apply(operator, sample_values(field))

    done = 0
    for case_id, entry in ordered:
        case_dir = cases_dir / case_id
        vel_path = case_dir / "velocity_avg.npy"
        if not vel_path.exists():
            continue
        meta = read_field_sidecar(case_dir / "velocity_avg.yaml")
        grid = GridSpec.from_dict(meta)
        vel_field = DenseField(grid, load_npy(vel_path))
        if policy["prefilter"]:
            from .resample import box_prefilter
            vel_field = box_prefilter(vel_field, target)
        field, summary = resample_field(vel_field)
        stem = out_dir / entry["stem"]
        write_components(stem, "velocity", field.values)

        extra = {"holes_velocity": summary["holes"]}
        sdf_path = case_dir / "sdf.npy"
        if sdf_path.exists():
            sdf_meta = read_field_sidecar(case_dir / "sdf.yaml")
            sdf_grid = GridSpec.from_dict(sdf_meta)
            phi_field, phi_summary = resample_field(
                DenseField(sdf_grid, load_npy(sdf_path)))
            export_npy(phi_field.values, Path(str(stem) + "_sdf.npy"))
            mask = (phi_field.values > 0).astype(np.uint8)
            with atomic_open(Path(str(stem) + "_mask.npy")) as handle:
                np.save(handle, mask)
            extra["holes_sdf"] = phi_summary["holes"]

        write_field_sidecar(
            Path(str(stem) + "_resample.yaml"), target,
            components=3, kernel=kernel.kind, footprint=footprint.mode,
            num_neighbours=(footprint.k if footprint.mode == "n_closest"
                            else None),
            radius=footprint.radius, prefilter=bool(policy["prefilter"]),
            case_id=case_id, **extra)
        done += 1
    if done == 0:
        raise ArtifactIOError(f"no completed case fields under {cases_dir}")
    write_provenance(cfg, out_dir, done)
    print(f"resample: {done} case(s) onto {target.dims} in {out_dir}")
    return 0


def _cmd_report(args) -> int:
    cfg = _resolve(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    box = cfg.bounding_box
    summary = coverage_report(
        args.scenes, out_dir,
        roi_x=cfg.roi_x,
        cross_range=(box.y_min, box.y_max),
        re_band=tuple(cfg.sim_param_policy["re_band"]))
    write_provenance(cfg, out_dir, summary["scenes"])
    print(f"report: {summary['scenes']} scene(s), {summary['objects']} "
          f"object(s), {summary['skipped']} skipped, tables in {out_dir}")
    return 0


# what the gate compares: (newest window mean, the field it is checked against)
_GATE_FIELDS = ("velocity_avg.npy", "velocity.npy")


def _cmd_gate(args) -> int:
    case_dir = Path(args.case)
    manifest = read_manifest(case_dir)
    grid = GridSpec.from_dict(manifest["grid"])
    mean_k, mean_km1 = (load_npy(case_dir / name).astype(np.float64)
                        for name in _GATE_FIELDS)
    phi = load_npy(case_dir / "sdf.npy")
    mask = phi > 0
    report = stationarity_gate(
        mean_k, mean_km1, mask,
        h=grid.spacing[0],
        sample_area=grid.spacing[1] * grid.spacing[2],
        eps_u_max=args.eps_u, delta_phi_max=args.dphi)
    write_yaml(case_dir / "gate_report.yaml",
               {**report.to_dict(), "compared": list(_GATE_FIELDS)})
    verdict = "PASS" if report.passed else "FAIL"
    print(f"gate[{case_dir.name[:12]}]: {verdict} eps_u={report.eps_u:.3e} "
          f"({' vs '.join(_GATE_FIELDS)}) dphi={report.delta_phi:.3e} "
          f"eps2={report.eps2:.3e} eps_inf={report.eps_inf:.3e}")
    return 0 if report.passed else 1


def _number(value) -> float | None:
    """``value`` as a float; None when it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _cmd_validate(args) -> int:
    cfg = _resolve(args)
    digest = config_hash(cfg)
    problems = []
    if args.scenes:
        for path in scene_sidecars(args.scenes):
            doc = read_scene_yaml(path)
            sim = doc.get("simulation_parameters")
            if not isinstance(sim, dict):
                sim = {}    # reported below as no inlet velocity and no Re
            u_x = _number(sim.get("inlet_velocity_x", -1))
            re_ = _number(sim.get("Re", -1))
            lo, hi = cfg.sim_param_policy["re_band"]
            if u_x is None:
                problems.append(f"{path.name}: non-numeric inlet_velocity_x")
            elif u_x <= 0:
                problems.append(f"{path.name}: nonpositive inlet x-velocity")
            if re_ is None:
                problems.append(f"{path.name}: non-numeric Re")
            elif not (lo <= re_ <= hi):
                problems.append(f"{path.name}: Re outside policy band")
            for geom in doc.get("geometries", []):
                try:
                    pos_x = float(geom["pos_x"])
                except (KeyError, TypeError, ValueError):
                    problems.append(f"{path.name}: geometry without a numeric pos_x")
                    continue
                if not (cfg.roi_x[0] <= pos_x <= cfg.roi_x[1]):
                    problems.append(f"{path.name}: centroid outside ROI")
    if problems:
        for p in problems:
            print(f"validate: {p}", file=sys.stderr)
        return 1
    print(f"validate: OK (config digest {digest[:16]}...)")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "sdf": _cmd_sdf,
    "orchestrate": _cmd_orchestrate,
    "resample": _cmd_resample,
    "report": _cmd_report,
    "gate": _cmd_gate,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ArtifactIOError, OSError) as exc:
        print(f"forge {args.command}: {exc}", file=sys.stderr)
        return 2
    except ForgeError as exc:
        print(f"forge {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
