"""Procedural obstacle geometry: primitives, scene assembly, STL + YAML export."""

from .export import export_scene, scene_filenames
from .mesh import TriMesh, concatenate, from_triangle_soup
from .primitives import (FAMILY_PARAM_ORDER, Solid, analytic_volume,
                         default_segments, tessellate)
from .scene import (GEOM_DRAW_WIDTH, PlacedShape, Pose, Scene, build_scene,
                    draw_dimension, make_candidate, pick_family, sample_pose,
                    sample_shape, validate_candidate)
from .stl import read_stl, stl_bytes, write_stl

__all__ = [
    "FAMILY_PARAM_ORDER", "GEOM_DRAW_WIDTH", "PlacedShape", "Pose", "Scene",
    "Solid", "TriMesh", "analytic_volume", "build_scene", "concatenate",
    "default_segments", "draw_dimension", "export_scene", "from_triangle_soup",
    "make_candidate", "pick_family", "read_stl", "sample_pose",
    "sample_shape", "scene_filenames", "stl_bytes", "tessellate",
    "validate_candidate", "write_stl",
]
