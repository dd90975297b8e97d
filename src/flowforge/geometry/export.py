"""Scene artifact export: one binary STL plus one YAML sidecar per scene.

Accepted objects are pairwise disjoint with positive clearance, so the
fused obstacle set is the plain concatenation of the per-object watertight
meshes; no boolean CSG is needed.  Sidecar values are emitted as numbers.
``read_scene_sidecar`` is the one reader of a scene sidecar: it converts
each value the later stages use to its type once, and for numeric keys it
also accepts the quoted-number styles of other toolchains.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

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
# Reading sidecars back
# ---------------------------------------------------------------------------
# the simulation parameters the later stages read back and their types; a
# sidecar may leave out those of _SIM_MAY_OMIT, which orchestrate defaults
_SIM_TYPES = {"LU": float, "dx": int, "Re": float, "refinement_parameter": int,
              **{f"inlet_velocity_{axis}": float for axis in "xyz"},
              **{f"periodicity_{axis}": int for axis in "xyz"},
              "vector_magnitude": float, "omega": float, "tau": float,
              "mach_inlet": float, "mach_ok_inlet": bool,
              "mach_ok_global": bool, "job_identifier_": str}
_SIM_MAY_OMIT = ("omega", "tau", "mach_inlet", "mach_ok_inlet",
                 "mach_ok_global", "job_identifier_")
_GEOMETRY_TYPES = {"type": str, **{f"pos_{axis}": float for axis in "xyz"}}


class SceneSidecar(NamedTuple):
    """A scene sidecar as the later stages read it: ``sim`` maps each
    simulation parameter present to its typed value, and ``objects`` holds
    one ``(type, (pos_x, pos_y, pos_z))`` per geometry."""
    sim: dict
    objects: list


def _typed(value, kind):
    """``value`` as ``kind``, None when it is not one.  A number may be
    quoted but must be finite, an int must be integral, and a bool is no
    number."""
    if kind in (bool, str) or isinstance(value, bool):
        return value if type(value) is kind else None
    if kind is int and isinstance(value, int):
        return value
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    # int() truncates: a sidecar's 16.7 must not become a silent 16
    if not math.isfinite(number) or kind is int and not number.is_integer():
        return None
    return kind(number)


def _checked(block, where: str, types: dict, may_omit=()) -> dict:
    """The values of ``types``' keys in the mapping ``block``, each as its
    type; the ArtifactIOError names ``where`` and the key."""
    if not isinstance(block, dict):
        raise ArtifactIOError(f"{where}: expected a mapping, got {block!r}")
    typed = {}
    for key, kind in types.items():
        if key not in block:
            if key in may_omit:
                continue
            raise ArtifactIOError(f"{where}.{key} is missing")
        typed[key] = _typed(block[key], kind)
        if typed[key] is None:
            raise ArtifactIOError(f"{where}.{key}: expected {kind.__name__}, "
                                  f"got {block[key]!r}")
    return typed


def read_scene_sidecar(path, data: bytes | None = None) -> SceneSidecar:
    """The typed record of a scene sidecar (from ``data``, its bytes, when
    given), as ``validate --scenes``, ``orchestrate`` and ``report`` read it.
    ArtifactIOError names the file and the first missing or malformed key."""
    where = f"scene sidecar {path}"
    try:
        doc = read_yaml(path, data)
    except (OSError, ArtifactIOError) as exc:
        raise ArtifactIOError(f"{where}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ArtifactIOError(f"{where}: expected a mapping, got {doc!r}")
    sim = _checked(doc.get("simulation_parameters"),
                   f"{where}: simulation_parameters", _SIM_TYPES, _SIM_MAY_OMIT)
    geometries = doc.get("geometries")
    if not isinstance(geometries, list):
        raise ArtifactIOError(f"{where}: geometries: expected a list, got "
                              f"{geometries!r}")
    objects = []
    for i, geom in enumerate(geometries):
        geom = _checked(geom, f"{where}: geometries[{i}]", _GEOMETRY_TYPES)
        objects.append((geom.pop("type"), tuple(geom.values())))
    return SceneSidecar(sim, objects)
