"""Campaign orchestration: materialize per-case run capsules, patch solver
parameter templates, and submit K dependency-chained lanes.

Every case directory is named by a stable content hash of its inputs
(STL bytes, YAML bytes, config digest) and carries everything needed to
rerun or audit it: geometry, metadata with a provenance trailer, the
patched parameter file, a job script, and a manifest.  Re-materializing
the same inputs is a no-op; completed cases are never resubmitted unless
forced.

A case's ``manifest.yaml`` is the only record of its state, and the only
file a submission writes per case.  ``index.yaml`` is derived: ``slurm``
and ``local`` rebuild it once per submit from the manifests of every
case under the output root, leaving out cases still pending.

The backends share one lane walk (skip completed cases, skip the rest of
a lane after a failure, chain each job on the previous one) and differ
only in how one case is launched: ``slurm`` runs the submit command with
``--chdir=<case_dir>`` and an after-success dependency, ``local`` calls
the runner with one thread per lane, and ``dry_run`` writes the command
sequence to ``submission_plan.txt`` without other side effects.
"""

from __future__ import annotations

import hashlib
import itertools
import re
import shutil
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import ArtifactIOError, OrchestrationError
from .fields import GridSpec, export_npy, load_npy, write_field_sidecar
from .geometry.export import read_scene_yaml, scene_sidecars
from .yamlio import dumps, read_yaml, write_yaml

_PLACEHOLDER_RE = re.compile(r"@([A-Za-z_][A-Za-z0-9_]*)@")
_BOUND_RE = re.compile(r"^#BOUND\s+(\S+)\s+(\S+)\s+(\S+)\s*$", re.MULTILINE)
_SBATCH_RE = re.compile(r"Submitted batch job (\d+)")

BACKENDS = ("slurm", "local", "dry_run")

REQUIRED_PLACEHOLDERS = (
    "omega", "inlet_velocity_x", "inlet_velocity_y", "inlet_velocity_z",
    "periodicity_x", "periodicity_y", "periodicity_z", "timesteps",
)

STANDARD_EXECUTABLE = "LBComplexGeometryCGSmagorinsky"
STANDARD_TEMPLATE = "D3Q27_cumulant_test_stability_1.prm"
REFINED_EXECUTABLE = "ComplexGeometry_withRefinement"
REFINED_TEMPLATE = "D3Q27_cumulant_test_stability_cube_100_1.conf"

_PACKAGED_TEMPLATES = Path(__file__).parent / "templates"

# the simulation parameters a case reads from its scene sidecar and their
# types; materialize_case defaults the optional ones
_SIM_TYPES = {"LU": float, "dx": int, "Re": float, "refinement_parameter": int,
              **{f"inlet_velocity_{axis}": float for axis in "xyz"},
              **{f"periodicity_{axis}": int for axis in "xyz"},
              "omega": float, "tau": float, "mach_inlet": float}
_SIM_OPTIONAL = ("omega", "tau", "mach_inlet")


def select_executable(refinement_parameter: int) -> tuple[str, str]:
    """Map the refinement flag to the (executable, parameter template) pair."""
    if refinement_parameter == 0:
        return STANDARD_EXECUTABLE, STANDARD_TEMPLATE
    if refinement_parameter == 1:
        return REFINED_EXECUTABLE, REFINED_TEMPLATE
    raise OrchestrationError(
        f"refinement flag must be 0 or 1, got {refinement_parameter!r}")


# ---------------------------------------------------------------------------
# Template patching
# ---------------------------------------------------------------------------
def _render(value, precision: int = 5) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def patch_template(template: str, values: dict, precision: int = 5) -> str:
    """Substitute @name@ placeholders; deterministic pure-text output.

    Unknown placeholders and required-but-absent keys both raise.  ``#BOUND
    name lo hi`` lines in the template declare numeric bounds checked on
    substitution.
    """
    found = set(_PLACEHOLDER_RE.findall(template))
    unknown = sorted(found - set(values))
    if unknown:
        raise OrchestrationError(
            f"template has unknown placeholder(s): {', '.join(unknown)}")
    missing = sorted(k for k in REQUIRED_PLACEHOLDERS
                     if k in values and k not in found)
    if missing:
        raise OrchestrationError(
            f"template missing required placeholder(s): {', '.join(missing)}")

    for name, lo, hi in _BOUND_RE.findall(template):
        if name in values:
            v = float(values[name])
            if not (float(lo) <= v <= float(hi)):
                raise OrchestrationError(
                    f"template bound violated: {name}={v} outside "
                    f"[{lo}, {hi}]")

    return _PLACEHOLDER_RE.sub(
        lambda m: _render(values[m.group(1)], precision), template)


# ---------------------------------------------------------------------------
# Case records and materialization
# ---------------------------------------------------------------------------
@dataclass
class CaseRecord:
    case_id: str
    case_dir: Path
    stem: str
    lane: int = -1
    job_id: str = "unsubmitted"
    status: str = "pending"
    manifest: dict = field(default_factory=dict)


def case_id_for(stl_bytes: bytes, yaml_bytes: bytes, config_digest: str) -> str:
    return hashlib.sha256(
        stl_bytes + yaml_bytes + config_digest.encode("ascii")).hexdigest()


def discover_pairs(geometry_dir) -> list[tuple[str, Path, Path]]:
    """Paired (stem, yaml, stl) inputs, sorted; an orphan is an error."""
    geometry_dir = Path(geometry_dir)
    yamls = {p.stem: p for p in scene_sidecars(geometry_dir)}
    stls = {p.stem: p for p in sorted(geometry_dir.glob("*.stl"))}
    orphans = sorted(set(yamls) ^ set(stls))
    if orphans:
        raise OrchestrationError(
            f"unpaired geometry inputs under {geometry_dir}: "
            f"{', '.join(orphans)}")
    if not yamls:
        raise OrchestrationError(f"no geometry pairs under {geometry_dir}")
    return [(stem, yamls[stem], stls[stem]) for stem in sorted(yamls)]


def _write_manifest(case_dir: Path, manifest: dict):
    write_yaml(case_dir / "manifest.yaml", manifest)


def read_manifest(case_dir) -> dict:
    path = Path(case_dir) / "manifest.yaml"
    if not path.exists():
        raise ArtifactIOError(f"no case manifest at {path}")
    return read_yaml(path)


def _read_sim_parameters(yaml_path: Path) -> dict:
    """The sidecar's simulation parameters, each converted to its type;
    ArtifactIOError names the file and a missing or malformed key."""
    sim = read_scene_yaml(yaml_path).get("simulation_parameters")
    sim = dict(sim) if isinstance(sim, dict) else {}
    for key, kind in _SIM_TYPES.items():
        where = f"scene sidecar {yaml_path}: simulation_parameters.{key}"
        if key in sim:
            raw = sim[key]
            try:
                sim[key] = kind(raw)
            except (TypeError, ValueError, OverflowError):
                sim[key] = None
            # int() truncates: a sidecar's 16.7 must not become a silent 16
            if sim[key] is None or (kind is int and isinstance(raw, float)
                                    and sim[key] != raw):
                raise ArtifactIOError(f"{where}: expected {kind.__name__}, "
                                      f"got {raw!r}")
        elif key not in _SIM_OPTIONAL:
            raise ArtifactIOError(f"{where} is missing")
    return sim


def materialize_case(yaml_path, stl_path, templates_dir, cfg, out_root,
                     sdf_stem=None, force: bool = False) -> CaseRecord:
    """Create (or reuse) the self-contained run directory for one case."""
    from .config import config_hash

    yaml_path, stl_path = Path(yaml_path), Path(stl_path)
    out_root = Path(out_root)
    for path, kind in ((yaml_path, "metadata"), (stl_path, "geometry")):
        if not path.exists():
            raise OrchestrationError(f"missing {kind} input: {path}")

    stl_bytes = stl_path.read_bytes()
    yaml_bytes = yaml_path.read_bytes()
    digest = config_hash(cfg)
    case_id = case_id_for(stl_bytes, yaml_bytes, digest)
    case_dir = out_root / case_id

    # the manifest is a case's last write: a directory without one was cut
    # off mid-materialization and is rebuilt below
    if (case_dir / "manifest.yaml").exists():
        stored = case_dir / "geometry.stl"
        if stored.exists() and stored.read_bytes() != stl_bytes:
            raise OrchestrationError(
                f"integrity failure: case {case_id} exists with different "
                "geometry bytes")
        manifest = read_manifest(case_dir)
        if manifest.get("status") == "completed" and not force:
            return _record_from_manifest(case_dir, manifest)
        if manifest.get("status") == "completed" and force:
            stamp = time.strftime("%Y%m%dT%H%M%S")
            archive = case_dir / f"previous_{stamp}"
            archive.mkdir()
            for name in ("velocity.npy", "velocity_avg.npy", "velocity.yaml",
                         "velocity_avg.yaml"):
                src = case_dir / name
                if src.exists():
                    shutil.move(str(src), archive / name)

    # a malformed sidecar fails before the case directory exists
    sim = _read_sim_parameters(yaml_path)
    case_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(case_dir / "geometry.stl", stl_bytes)

    lu, dx = sim["LU"], sim["dx"]
    omega = sim.get("omega", 1.0 / (3.0 * lu + 0.5))
    tau = sim.get("tau", 3.0 * lu + 0.5)

    trailer = dumps({"provenance_trailer": {
        "job_identifier": sim.get("job_identifier_", yaml_path.stem),
        "LU": lu,
        "dx": dx,
    }})
    atomic_write(case_dir / "metadata.yaml",
                 yaml_bytes + b"\n" + trailer.encode("utf-8"))

    executable, template_name = select_executable(sim["refinement_parameter"])
    templates_dir = Path(templates_dir) if templates_dir else _PACKAGED_TEMPLATES
    template_path = templates_dir / template_name
    if not template_path.exists():
        raise OrchestrationError(f"parameter template not found: {template_path}")

    orch = cfg.orchestration_policy
    sdf_policy = cfg.sdf_policy
    box = cfg.bounding_box
    grid = GridSpec.preset(dx, extents=box.extents,
                           origin=box.mins, aniso=tuple(sdf_policy["aniso"]))

    patch_values = {
        "omega": omega, "tau": tau, "nu0": lu, "re": sim["Re"],
        "timesteps": int(orch["timesteps"]),
        **{key: sim[key] for key in (
            "inlet_velocity_x", "inlet_velocity_y", "inlet_velocity_z",
            "periodicity_x", "periodicity_y", "periodicity_z")},
        "nx": grid.dims[0], "ny": grid.dims[1], "nz": grid.dims[2],
        "dx": dx,
        "comp_interval": int(orch["comp_interval"]),
        "timesteps_to_average": int(orch["timesteps_to_average"]),
    }
    patched = patch_template(template_path.read_text(encoding="utf-8"),
                             patch_values)
    atomic_write(case_dir / template_name, patched)

    job_template = templates_dir / "job_script.slurm"
    if not job_template.exists():
        job_template = _PACKAGED_TEMPLATES / "job_script.slurm"
    job_values = {
        "ntasks_per_node": int(orch["ntasks_per_node"]),
        "partition": orch["partition"],
        "time_limit": orch["time_limit"],
        "env_setup": "\n".join(orch["env_setup"]),
        "modules": "\n".join(f"module load {m}" for m in orch["modules"]),
        "executable": executable,
        "param_file": template_name,
    }
    atomic_write(case_dir / "job_script.slurm",
                 patch_template(job_template.read_text(encoding="utf-8"),
                                job_values))

    if sdf_stem is not None:
        sdf_stem = Path(sdf_stem)
        for suffix in (".npy", ".yaml"):
            src = sdf_stem.with_suffix(suffix)
            if not src.exists():
                raise OrchestrationError(f"SDF artifact missing: {src}")
            atomic_write(case_dir / f"sdf{suffix}", src.read_bytes())

    manifest = {
        "case_id": case_id,
        "source": {"yaml": yaml_path.name, "stl": stl_path.name},
        "hashes": {"stl": hashlib.sha256(stl_bytes).hexdigest(),
                   "yaml": hashlib.sha256(yaml_bytes).hexdigest(),
                   "config": digest},
        "grid": grid.to_dict(),
        "units": "lu",
        "sdf_sign": "negative_inside",
        "band_w": int(sdf_policy["band_w"]),
        "bc_policy": {
            "inlet": "velocity", "outlet": "pressure", "walls": "no_slip",
            "periodic": [sim[f"periodicity_{axis}"] for axis in "xyz"],
        },
        "re_target": sim["Re"],
        "mach": {"inlet": sim.get("mach_inlet", 0.0),
                 "ok_inlet": bool(sim.get("mach_ok_inlet", True)),
                 "ok_global": bool(sim.get("mach_ok_global", True))},
        "relaxation": {"tau": tau, "omega": omega},
        "inlet_profile": "uniform",
        "inlet_velocity": [sim[f"inlet_velocity_{axis}"] for axis in "xyz"],
        "executable": executable,
        "template": template_name,
        "lane": -1,
        "job_id": "unsubmitted",
        "status": "pending",
    }
    _write_manifest(case_dir, manifest)
    return _record_from_manifest(case_dir, manifest)


def _record_from_manifest(case_dir: Path, manifest: dict) -> CaseRecord:
    return CaseRecord(
        case_id=manifest["case_id"],
        case_dir=Path(case_dir),
        stem=Path(manifest["source"]["yaml"]).stem,
        lane=manifest.get("lane", -1),
        job_id=manifest.get("job_id", "unsubmitted"),
        status=manifest.get("status", "pending"),
        manifest=manifest,
    )


# ---------------------------------------------------------------------------
# Lane planning
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LanePlan:
    start: int
    end: int
    lanes: tuple[tuple[int, ...], ...]

    @property
    def dependency_edges(self) -> int:
        return sum(max(0, len(lane) - 1) for lane in self.lanes)


def plan_lanes(start: int, end: int, k: int) -> LanePlan:
    """Contiguous near-equal split of [start, end) into k ordered lanes.

    Earlier lanes take the remainder; empty lanes are allowed (skipped at
    submission).
    """
    if end <= start:
        raise OrchestrationError(f"empty case range [{start}, {end})")
    if k < 1:
        raise OrchestrationError(f"lane count must be >= 1, got {k}")
    n = end - start
    base, extra = divmod(n, k)
    lanes = []
    cursor = start
    for lane in range(k):
        size = base + (1 if lane < extra else 0)
        lanes.append(tuple(range(cursor, cursor + size)))
        cursor += size
    return LanePlan(start=start, end=end, lanes=tuple(lanes))


# ---------------------------------------------------------------------------
# Submission backends
# ---------------------------------------------------------------------------
@dataclass
class SubmitResult:
    submitted: int = 0
    skipped_completed: int = 0
    failed: list = field(default_factory=list)
    skipped_after_failure: list = field(default_factory=list)
    commands: list = field(default_factory=list)


def _persist(record: CaseRecord):
    record.manifest["lane"] = record.lane
    record.manifest["job_id"] = record.job_id
    record.manifest["status"] = record.status
    _write_manifest(record.case_dir, record.manifest)


def _write_index(out_root: Path):
    """Rebuild ``index.yaml`` from the manifest of every case directory
    under ``out_root``; cases still pending are left out."""
    entries = {}
    for path in out_root.glob("*/manifest.yaml"):
        record = _record_from_manifest(path.parent, read_manifest(path.parent))
        if record.status != "pending":
            entries[record.case_id] = {
                "stem": record.stem, "lane": record.lane,
                "job_id": record.job_id, "status": record.status,
            }
    write_yaml(out_root / "index.yaml", entries)


def read_index(cases_dir) -> dict:
    """``index.yaml`` under ``cases_dir``: case id -> stem, lane, job id and
    status of every case a submission has run."""
    path = Path(cases_dir) / "index.yaml"
    if not path.exists():
        raise ArtifactIOError(f"no case index at {path}")
    return read_yaml(path) or {}


def _scheduler_argv(submit_command: str, record: CaseRecord,
                    previous: str | None) -> list[str]:
    """Scheduler argv for one case's job script: it runs in its case
    directory (sbatch runs a spooled copy of the script) and after the job
    ``previous``."""
    argv = [submit_command, f"--chdir={record.case_dir}"]
    if previous is not None:
        argv.append(f"--dependency=afterok:{previous}")
    return argv + [str(record.case_dir / "job_script.slurm")]


def _walk_lanes(records: list[CaseRecord], plan: LanePlan, launch,
                threaded: bool = False) -> SubmitResult:
    """Walk every lane in order, calling ``launch(record, lane_no,
    position, previous_job_id)`` for each case to run.

    ``launch`` returns the job id the lane's next case chains on, or None
    when the case failed.  Completed cases are skipped, and so is the rest
    of a lane after a failure.  With ``threaded`` each lane is walked on its
    own thread; the result is tallied in plan order either way.
    """
    def walk(lane_no: int) -> list[tuple[str, str]]:
        outcomes, previous, failed = [], None, False
        for position, index in enumerate(plan.lanes[lane_no]):
            record = records[index - plan.start]
            if record.status == "completed":
                outcome = "completed"
            elif failed:
                outcome = "skipped"
            else:
                previous = launch(record, lane_no, position, previous)
                failed = previous is None
                outcome = "failed" if failed else "submitted"
            outcomes.append((record.case_id, outcome))
        return outcomes

    lanes = range(len(plan.lanes))
    if threaded:
        with ThreadPoolExecutor(max_workers=len(plan.lanes)) as pool:
            walked = list(pool.map(walk, lanes))
    else:
        walked = [walk(lane_no) for lane_no in lanes]
    result = SubmitResult()
    for case_id, outcome in itertools.chain.from_iterable(walked):
        if outcome == "completed":
            result.skipped_completed += 1
        elif outcome == "submitted":
            result.submitted += 1
        elif outcome == "failed":
            result.failed.append(case_id)
        else:
            result.skipped_after_failure.append(case_id)
    return result


def submit(records: list[CaseRecord], plan: LanePlan, backend: str,
           out_root, submit_command: str = "sbatch",
           runner=None) -> SubmitResult:
    """Dispatch the planned lanes through the chosen backend.

    The backends share one lane walk and differ only in how a case is
    launched.  ``dry_run`` writes the command sequence to
    ``submission_plan.txt`` and nothing else.  ``slurm`` and ``local``
    write each case's manifest once its outcome is known, then rebuild
    ``index.yaml`` from the manifests.  ``local`` walks the lanes
    concurrently and calls ``runner`` (default: the synthetic solver) per
    case; a runner failure ends only its own lane.
    """
    if backend not in BACKENDS:
        raise OrchestrationError(f"unknown backend {backend!r}")
    out_root = Path(out_root)

    if backend == "dry_run":
        lines, job_numbers = [], itertools.count(1)

        def launch(record, lane_no, position, previous):
            lines.append(" ".join(
                _scheduler_argv(submit_command, record, previous)))
            return f"dry-{next(job_numbers)}"

        result = _walk_lanes(records, plan, launch)
        result.commands = lines
        atomic_write(out_root / "submission_plan.txt",
                     "".join(line + "\n" for line in lines))
        return result

    if backend == "slurm":
        def launch(record, lane_no, position, previous):
            try:
                proc = subprocess.run(
                    _scheduler_argv(submit_command, record, previous),
                    capture_output=True, text=True, check=False)
            except OSError as exc:
                raise ArtifactIOError(
                    f"cannot invoke scheduler {submit_command!r}: {exc}"
                ) from exc
            if proc.returncode != 0:
                record.status = "failed"
                _persist(record)
                return None
            match = _SBATCH_RE.search(proc.stdout)
            if not match:
                raise OrchestrationError(
                    "cannot parse scheduler response; raw output: "
                    f"{proc.stdout!r}")
            record.lane, record.job_id = lane_no, match.group(1)
            record.status = "submitted"
            _persist(record)
            return record.job_id
    else:
        if runner is None:
            runner = synthetic_solver

        def launch(record, lane_no, position, previous):
            # the job id is a pure function of the plan, not of scheduling
            record.lane, record.job_id = lane_no, f"local-{lane_no}.{position}"
            try:
                runner(record.case_dir)
            except Exception as exc:  # a failure isolates the lane tail
                # type and message only: a traceback is not byte-stable
                record.status = "failed"
                record.manifest["error"] = f"{type(exc).__name__}: {exc}"
            else:
                record.status = "completed"
                record.manifest.pop("error", None)
            _persist(record)
            return record.job_id if record.status == "completed" else None

    result = _walk_lanes(records, plan, launch, threaded=backend == "local")
    _write_index(out_root)
    return result


# ---------------------------------------------------------------------------
# Synthetic solver (desk-scale stand-in)
# ---------------------------------------------------------------------------
def synthetic_solver(case_dir) -> tuple[Path, Path]:
    """Write a uniform-inlet velocity field over the fluid voxels.

    Stand-in for the external solver so orchestration, diagnostics, and
    resampling can be exercised end to end: u equals the inlet velocity
    where the SDF is positive and zero inside solids.  It has no time
    dependence, so the same array goes to ``velocity.npy`` and
    ``velocity_avg.npy``, and ``forge gate``, which compares the two,
    reports ``eps_u`` = 0 on every case it ran.
    """
    case_dir = Path(case_dir)
    manifest = read_manifest(case_dir)
    sdf_path = case_dir / "sdf.npy"
    if not sdf_path.exists():
        raise OrchestrationError(f"missing SDF in case {case_dir.name}")
    phi = load_npy(sdf_path)
    fluid = phi > 0
    inlet = np.asarray(manifest["inlet_velocity"], dtype=np.float64)
    u = np.zeros((3,) + phi.shape, dtype=np.float32)
    for c in range(3):
        u[c][fluid] = inlet[c]

    grid = GridSpec.from_dict(manifest["grid"])
    out_u = export_npy(u, case_dir / "velocity.npy")
    write_field_sidecar(case_dir / "velocity.yaml", grid, components=3,
                        kind="instantaneous")
    out_avg = export_npy(u, case_dir / "velocity_avg.npy")
    write_field_sidecar(case_dir / "velocity_avg.yaml", grid, components=3,
                        kind="averaged")
    return out_u, out_avg
