"""Scene construction: sample candidates, validate feasibility, assemble
accepted objects plus per-scene simulation parameters.

Draw protocol
-------------
Every candidate object consumes exactly one generator vector with fixed
component slots (family pick, up to four shape parameters, position,
orientation, direction vector); unused slots are ignored so the frozen
dimensionality is independent of which family gets picked.  A rejected
candidate advances the sequence one extra ordinal, which keeps the stream
stable across restarts and resumes.

Feasibility guards run in a fixed order and the rejection reason names the
first failure: in_bounds, non_intersection, clearance, min_volume.  The
clearance test is conservative: candidate boundary vertices must clear the
context meshes by the clearance plus the candidate's own maximum edge
length, which bounds the gap between vertex sampling and the true surface
distance, so accepted scenes satisfy the exact set-distance requirement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import GeometryError
from ..sampling import GeneratorState, advance_on_reject, next_point
from ..simparams import SimParams, sample_sim_params, sim_draw_width, unit_vector
from .mesh import TriMesh
from .primitives import (FAMILY_PARAM_ORDER, MAX_FAMILY_PARAMS, Solid,
                         analytic_volume, default_segments, tessellate)

# candidate vector slots: family | params | position | orientation | direction
GEOM_DRAW_WIDTH = 1 + MAX_FAMILY_PARAMS + 3 + 3 + 2
_PARAM_SLOT = 1
_POS_SLOT = 1 + MAX_FAMILY_PARAMS


def draw_dimension(cfg_data: dict) -> int:
    """Frozen generator dimensionality covering both draw kinds."""
    return max(GEOM_DRAW_WIDTH, sim_draw_width(cfg_data["sim_param_policy"]))


# ---------------------------------------------------------------------------
# Pose
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Pose:
    position: tuple[float, float, float]
    quaternion: tuple[float, float, float, float]  # (w, x, y, z), unit
    dir_vector: tuple[float, float, float]

    def rotation_matrix(self) -> np.ndarray:
        w, x, y, z = self.quaternion
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])


def random_quaternion(u1: float, u2: float, u3: float) -> tuple:
    """Uniform rotation on SO(3) (subgroup-algorithm construction)."""
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    t2, t3 = 2.0 * math.pi * u2, 2.0 * math.pi * u3
    q = np.array([b * math.cos(t3),             # w
                  a * math.sin(t2), a * math.cos(t2), b * math.sin(t3)])
    q /= np.linalg.norm(q)
    return tuple(float(v) for v in q)


def sample_pose(roi_x, y_range, z_range, draw: np.ndarray,
                position_decimals: int = 1, dir_decimals: int = 2) -> Pose:
    """Pose from 8 uniforms: 3 position, 3 orientation, 2 direction vector."""
    px = round(roi_x[0] + draw[0] * (roi_x[1] - roi_x[0]), position_decimals)
    py = round(y_range[0] + draw[1] * (y_range[1] - y_range[0]), position_decimals)
    pz = round(z_range[0] + draw[2] * (z_range[1] - z_range[0]), position_decimals)
    quat = random_quaternion(draw[3], draw[4], draw[5])
    direction = unit_vector(draw[6], draw[7])
    direction = np.round(direction, dir_decimals)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        direction = np.array([1.0, 0.0, 0.0])
        norm = 1.0
    direction = direction / norm
    return Pose(position=(px, py, pz), quaternion=quat,
                dir_vector=tuple(float(v) for v in direction))


# ---------------------------------------------------------------------------
# Family pick and parameter sampling
# ---------------------------------------------------------------------------
def pick_family(weights: dict, u: float) -> str:
    """Cumulative-weight inversion over lexicographically ordered families."""
    names = sorted(name for name, w in weights.items() if w > 0)
    total = sum(weights[name] for name in names)
    if total <= 0:
        raise GeometryError("no positive weight in shape mix")
    acc = 0.0
    threshold = u * total
    for name in names:
        acc += weights[name]
        if threshold < acc:
            return name
    return names[-1]


def check_ranges_satisfiable(family: str, ranges: dict):
    """Reject configurations whose constraints no draw can ever satisfy."""
    if family == "cone":
        min_sum = ranges.get("min_radius_sum", 0.0)
        if ranges["radius_1"][1] + ranges["radius_2"][1] < min_sum:
            raise GeometryError(
                f"cone ranges cannot satisfy radius_1+radius_2 >= {min_sum}")
    if family == "torus":
        if ranges["radius_major"][1] <= ranges["radius_minor"][0]:
            raise GeometryError(
                "torus ranges cannot satisfy major radius > minor radius")
    if family == "sphere":
        alpha, beta = ranges.get("alpha"), ranges.get("beta")
        if alpha is not None and beta is not None and alpha[0] >= beta[1]:
            raise GeometryError(
                "sphere sector ranges cannot satisfy lower < upper latitude")


def sample_shape(family: str, ranges: dict, draw: np.ndarray,
                 decimals: int = 1) -> dict | None:
    """Parameters from uniforms via min + u*(max-min), rounded.

    Returns None when a family-specific constraint rejects the draw (the
    caller advances the sequence ordinal).
    """
    check_ranges_satisfiable(family, ranges)
    decimals = int(ranges.get("decimals", decimals))

    params: dict = {}
    cursor = 0
    for name in FAMILY_PARAM_ORDER[family]:
        bounds = ranges.get(name)
        if bounds is None:
            params[name] = None  # optional sphere sector angle: absent
            continue
        lo, hi = bounds
        params[name] = round(lo + float(draw[cursor]) * (hi - lo), decimals)
        cursor += 1

    if family == "cone":
        if params["radius_1"] + params["radius_2"] < ranges.get("min_radius_sum", 0.0):
            return None
    if family == "torus":
        if params["radius_major"] <= params["radius_minor"]:
            return None
    if family == "sphere":
        alpha, beta = params.get("alpha"), params.get("beta")
        if alpha is not None and beta is not None and alpha >= beta:
            return None
    return params


# ---------------------------------------------------------------------------
# Placed shapes and scenes
# ---------------------------------------------------------------------------
@dataclass
class PlacedShape:
    family: str
    params: dict
    pose: Pose
    solid: Solid
    mesh: TriMesh          # world frame
    volume: float
    max_edge: float

    def inside_world(self, points: np.ndarray) -> np.ndarray:
        """Sign-correct membership test for world-frame points."""
        rot = self.pose.rotation_matrix()
        local = (np.asarray(points, dtype=np.float64).reshape(-1, 3)
                 - np.asarray(self.pose.position)) @ rot + self.solid.centroid
        return self.solid.inside(local)


@dataclass
class _ContextEntry:
    placed: PlacedShape
    vertex_tree: object             # scipy.spatial.cKDTree
    tri_base: np.ndarray
    tri_e0: np.ndarray
    tri_e1: np.ndarray


def _context_entry(placed: PlacedShape) -> _ContextEntry:
    from scipy.spatial import cKDTree   # on first use: see README "Dependencies"
    corners = placed.mesh.corners
    return _ContextEntry(
        placed=placed,
        vertex_tree=cKDTree(placed.mesh.vertices),
        tri_base=np.ascontiguousarray(corners[:, 0]),
        tri_e0=np.ascontiguousarray(corners[:, 1] - corners[:, 0]),
        tri_e1=np.ascontiguousarray(corners[:, 2] - corners[:, 0]),
    )


def _exact_point_mesh(points: np.ndarray, entry: _ContextEntry) -> np.ndarray:
    from ..sdf import nearest_triangles     # sdf imports geometry
    dist2, _, _, _ = nearest_triangles(points, entry.tri_base, entry.tri_e0,
                                       entry.tri_e1)
    return np.sqrt(dist2)


@dataclass
class Scene:
    objects: list[PlacedShape]
    sim_params: SimParams
    provenance: dict = field(default_factory=dict)


def validate_candidate(candidate: PlacedShape, context: list[_ContextEntry],
                       domain_box, roi_x, c_min: float, v_min: float,
                       eps: float = 1e-6) -> tuple[bool, str]:
    """Four feasibility guards; returns (accepted, first failed guard)."""
    lo, hi = candidate.mesh.aabb()
    mins = np.asarray(domain_box.mins)
    maxs = np.asarray(domain_box.maxs)
    if (lo < mins - eps).any() or (hi > maxs + eps).any():
        return False, "in_bounds"
    if not (roi_x[0] - eps <= candidate.pose.position[0] <= roi_x[1] + eps):
        return False, "in_bounds"

    cand_verts = candidate.mesh.vertices
    for entry in context:
        if entry.placed.inside_world(cand_verts).any():
            return False, "non_intersection"
        if candidate.inside_world(entry.placed.mesh.vertices).any():
            return False, "non_intersection"

    threshold = c_min + candidate.max_edge
    for entry in context:
        vert_dist, _ = entry.vertex_tree.query(cand_verts, k=1)
        # surface lies within max_edge of a context vertex, so this lower
        # bound is exact enough to clear most pairs without triangle tests
        if vert_dist.min() - entry.placed.max_edge >= threshold:
            continue
        suspicious = np.flatnonzero(vert_dist - entry.placed.max_edge < threshold)
        exact = _exact_point_mesh(cand_verts[suspicious], entry)
        if exact.min() < threshold:
            return False, "clearance"

    if candidate.volume < v_min:
        return False, "min_volume"
    return True, "accepted"


def make_candidate(cfg_data: dict, vec: np.ndarray) -> PlacedShape | None:
    """One candidate from one generator vector; None when parameter
    constraints or degenerate tessellation reject the draw."""
    family = pick_family(cfg_data["shape_mix"], float(vec[0]))
    ranges = cfg_data["shapes"][family]
    params = sample_shape(family, ranges, vec[_PARAM_SLOT:_POS_SLOT],
                          decimals=cfg_data["pose"]["param_decimals"])
    if params is None:
        return None
    box = cfg_data["bounding_box"]
    pose = sample_pose(cfg_data["roi_x"],
                       (box["y_min"], box["y_max"]),
                       (box["z_min"], box["z_max"]),
                       vec[_POS_SLOT:],
                       cfg_data["pose"]["position_decimals"],
                       cfg_data["pose"]["dir_vector_decimals"])
    segments = default_segments(family, params, cfg_data["sdf_policy"]["dx"])
    try:
        solid = tessellate(family, params, segments)
    except GeometryError:
        return None
    rot = pose.rotation_matrix()
    world = TriMesh(
        (solid.mesh.vertices - solid.centroid) @ rot.T + np.asarray(pose.position),
        solid.mesh.triangles.copy())
    return PlacedShape(
        family=family, params=params, pose=pose, solid=solid, mesh=world,
        volume=analytic_volume(family, params, solid.mesh),
        max_edge=world.max_edge_length())


def build_scene(cfg, state: GeneratorState) -> Scene:
    """Sample one feasible scene, advancing the generator deterministically.

    Slot failures discard and restart the whole scene; exceeding the
    configured restart budget means the configuration is infeasible.
    """
    data = cfg.data
    box = cfg.bounding_box

    for fam, weight in data["shape_mix"].items():
        if weight > 0:
            check_ranges_satisfiable(fam, data["shapes"][fam])

    retry_budget = data["number_of_retries_object_creation"]
    restarts = 0
    while restarts <= data["max_scene_restarts"]:
        objects: list[PlacedShape] = []
        context: list[_ContextEntry] = []
        scene_retries = 0
        scene_ok = True
        for slot in range(data["number_of_objects"]):
            placed = None
            for _attempt in range(retry_budget + 1):
                vec = next_point(state)
                candidate = make_candidate(data, vec)
                if candidate is not None:
                    ok, _reason = validate_candidate(
                        candidate, context, box, data["roi_x"],
                        data["clearance"], data["min_volume"])
                    if ok:
                        placed = candidate
                        break
                advance_on_reject(state)
                scene_retries += 1
            if placed is None:
                scene_ok = False
                break
            objects.append(placed)
            # only a later slot validates against this object: the last one
            # builds no vertex tree
            if slot < data["number_of_objects"] - 1:
                context.append(_context_entry(placed))
        if not scene_ok:
            restarts += 1
            continue

        sim = sample_sim_params(data, state)
        state.samples_generated += 1
        return Scene(objects=objects, sim_params=sim, provenance={
            "seed": state.seed,
            "sampling_mode": state.mode,
            "index_at_accept": state.index,
            "retries": scene_retries,
            "restarts": restarts,
        })

    raise GeometryError(
        f"infeasible configuration: exceeded {data['max_scene_restarts']} "
        "scene restarts")
