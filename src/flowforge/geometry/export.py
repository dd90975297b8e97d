"""Scene artifact export: one binary STL plus one YAML sidecar per scene.

Accepted objects are pairwise disjoint with positive clearance, so the
fused obstacle set is the plain concatenation of the per-object watertight
meshes; no boolean CSG is needed.  Sidecar values are emitted as numbers;
the reader also tolerates quoted-number styles from other toolchains.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import ArtifactIOError, GeometryError
from ..yamlio import read_yaml, write_yaml
from .mesh import concatenate
from .scene import Scene
from .stl import write_stl


# what the stages write beside the scene pairs; none of it is a scene
_STAGE_FILE_STEMS = {"config_frozen", "provenance", "generator_state"}


def scene_sidecars(scene_dir) -> list[Path]:
    """Every scene YAML sidecar under ``scene_dir``, sorted by name; the
    frozen config and other stage files beside them are left out."""
    return [p for p in sorted(Path(scene_dir).glob("*.yaml"))
            if p.stem not in _STAGE_FILE_STEMS]


def scene_filenames(prefix: str, index: int, family: str | None = None
                    ) -> tuple[str, str]:
    stem = f"{prefix}_{family}_{index}" if family else f"{prefix}_{index}"
    return f"{stem}.stl", f"{stem}.yaml"


def _geometry_entry(placed) -> dict:
    entry = {"type": placed.family}
    for name, value in placed.params.items():
        if value is not None:
            entry[name] = float(value)
    px, py, pz = placed.pose.position
    entry.update({"pos_x": float(px), "pos_y": float(py), "pos_z": float(pz)})
    dx, dy, dz = placed.pose.dir_vector
    entry.update({"dir_vec_x": float(dx), "dir_vec_y": float(dy),
                  "dir_vec_z": float(dz)})
    qw, qx, qy, qz = placed.pose.quaternion
    entry.update({"quat_w": float(qw), "quat_x": float(qx),
                  "quat_y": float(qy), "quat_z": float(qz)})
    entry["volume"] = float(placed.volume)
    return entry


def scene_sidecar(scene: Scene, cfg, config_digest: str, job_identifier: str
                  ) -> dict:
    box = cfg.bounding_box
    sim = scene.sim_params
    ux, uy, uz = sim.inlet_velocity
    return {
        "domain": {
            "units": "lu",
            "bounds": [box.x_min, box.x_max, box.y_min, box.y_max,
                       box.z_min, box.z_max],
        },
        "geometries": [_geometry_entry(p) for p in scene.objects],
        "simulation_parameters": {
            "LU": float(sim.nu0),
            "Re": float(sim.re),
            "re_formula": "Re = |u| * L_char / nu0",
            "dx": int(sim.dx_meta),
            "inlet_velocity_x": float(ux),
            "inlet_velocity_y": float(uy),
            "inlet_velocity_z": float(uz),
            "job_identifier_": job_identifier,
            "periodicity_x": int(sim.periodicity[0]),
            "periodicity_y": int(sim.periodicity[1]),
            "periodicity_z": int(sim.periodicity[2]),
            "refinement_parameter": int(sim.refinement_flag),
            "vector_magnitude": float(sim.vector_magnitude),
            "tau": float(sim.tau),
            "omega": float(sim.omega),
            "mach_inlet": float(sim.mach_inlet),
            "mach_ok_inlet": bool(sim.mach_ok_inlet),
            "mach_ok_global": bool(sim.mach_ok_global),
            "tau_capped": bool(sim.tau_capped),
        },
        "provenance": {
            "config_digest": config_digest,
            **scene.provenance,
        },
    }


def export_scene(scene: Scene, out_dir, prefix: str, index: int,
                 name_object_out: bool, cfg, config_digest: str
                 ) -> tuple[Path, Path]:
    """Write <prefix>_<i>.stl and .yaml (family-tagged names optional)."""
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise ArtifactIOError(f"output directory does not exist: {out_dir}")
    if not scene.objects:
        raise GeometryError("cannot export an empty scene")
    last_family = scene.objects[-1].family
    stl_name, yaml_name = scene_filenames(
        prefix, index, last_family if name_object_out else None)

    fused = concatenate([p.mesh for p in scene.objects])
    stl_path = write_stl(fused, out_dir / stl_name)

    job_identifier = f"{last_family}_{cfg.data['campaign']}{index}"
    sidecar = scene_sidecar(scene, cfg, config_digest, job_identifier)
    yaml_path = out_dir / yaml_name
    try:
        write_yaml(yaml_path, sidecar, sort_keys=False)
    except OSError as exc:
        raise ArtifactIOError(f"cannot write sidecar {yaml_path}: {exc}") from exc
    return stl_path, yaml_path


# ---------------------------------------------------------------------------
# Reading sidecars back (tolerant of quoted-number styles)
# ---------------------------------------------------------------------------
def _coerce(value):
    if isinstance(value, dict):
        return {k: _coerce(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_coerce(v) for v in value]
    if isinstance(value, str):
        text = value.strip()
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            return value
    return value


def read_scene_yaml(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ArtifactIOError(f"scene sidecar not found: {path}")
    raw = read_yaml(path)
    if not isinstance(raw, dict):
        raise ArtifactIOError(f"scene sidecar {path} is not a mapping")
    return _coerce(raw)
