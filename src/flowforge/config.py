"""Single hierarchical configuration governing every pipeline stage.

A base YAML file is merged over built-in defaults, then a classic INI
resampler file, and ``key.path=value`` overrides are merged last (each
like the file block ``key: {path: value}``), ``${dotted.path}``
references are resolved, and the result is validated against a strict
schema (unknown keys are rejected so typos surface immediately --
provenance depends on configs being exact).

Hashing uses a canonical serialization: keys sorted at every level, floats
rendered in shortest round-trip form, no insignificant whitespace.  Two
configs that resolve to the same semantic content hash identically no
matter how the files were formatted.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .atomic import atomic_write
from .errors import ArtifactIOError, ConfigError, FieldError
from .fields import GridSpec
from .orchestrate import BACKENDS
from .resample import DEFAULT_K, KERNEL_KINDS, resample_specs
from .yamlio import YAMLError, loads, read_yaml, write_yaml

FAMILIES = ("cone", "cuboid", "cylinder", "sphere", "torus", "wedge")

# Parameter-range keys accepted per family.  Only the sphere sector angles
# may be null (absent: full spheres).
_FAMILY_KEYS = {
    "cuboid": {"height", "width", "thickness", "decimals"},
    "cylinder": {"radius", "height", "angle", "decimals"},
    "cone": {"radius_1", "radius_2", "height", "angle", "min_radius_sum", "decimals"},
    "sphere": {"radius", "alpha", "beta", "gamma", "decimals"},
    "torus": {"radius_major", "radius_minor", "decimals"},
    "wedge": {"length", "width", "height", "opening_angle", "decimals"},
}

_SECTOR_KEYS = ("alpha", "beta", "gamma")

# legacy wedge keys, renamed to their canonical keys when the config resolves
_WEDGE_ALIASES = {"x_max": "length", "depth": "width"}

_DEFAULTS: dict = {
    "bounding_box": {
        "x_min": 0.0, "x_max": 2048.0,
        "y_min": 0.0, "y_max": 512.0,
        "z_min": 0.0, "z_max": 512.0,
    },
    "roi_x": [146.0, 1800.0],
    "number_of_objects": 1,
    "repeat": 100,
    "seed": 0,
    "sampling_mode": "uniform",
    "initial_test_repeat": "${repeat}",
    "number_of_retries_object_creation": 100,
    "max_scene_restarts": 1000,
    "min_volume": 1000.0,
    "clearance": None,  # null -> 2 * sdf_policy.dx
    "name_object_out": False,
    "output_prefix": "object",
    "campaign": "run",
    "shape_mix": {
        "cuboid": 1.0, "cylinder": 1.0, "sphere": 1.0,
        "cone": 1.0, "torus": 0.5, "wedge": 1.0,
    },
    "shapes": {
        "cuboid": {"height": [5.0, 200.0], "width": [5.0, 200.0],
                   "thickness": [5.0, 200.0]},
        "cylinder": {"radius": [5.0, 200.0], "height": [5.0, 200.0],
                     "angle": [45.0, 360.0]},
        "cone": {"radius_1": [0.0, 200.0], "radius_2": [0.0, 200.0],
                 "height": [5.0, 200.0], "angle": [45.0, 360.0],
                 "min_radius_sum": 10.0},
        "sphere": {"radius": [5.0, 200.0],
                   "alpha": None, "beta": None, "gamma": None},
        "torus": {"radius_major": [5.0, 200.0], "radius_minor": [5.0, 200.0]},
        "wedge": {"length": [10.0, 200.0], "width": [30.0, 200.0],
                  "height": [5.0, 200.0], "opening_angle": [10.0, 80.0]},
    },
    "pose": {
        "position_decimals": 1,
        "dir_vector_decimals": 2,
        "param_decimals": 1,
    },
    "sim_param_policy": {
        "re_band": [100.0, 15000.0],
        "magnitude_min": 0.001488,
        "magnitude_max": 0.1488,
        "min_x_component_generator": 0.10,
        "min_x_component_after_scaling": 0.001,
        "periodic_axes": {"x": False, "y": True, "z": True},
        "periodic_probability": 0.5,
        "refinement_probability": 0.20,
        "precision_decimals": 5,
        "rejection_budget": 1000,
        "tau_stability_cap": 1.99,
    },
    "solver_policy": {
        "l_char": 512.0,
        "cs": 0.16,
        "ma_inlet_max": 0.12,
        "ma_max": 0.20,
    },
    "sdf_policy": {
        "dx": 16,
        "band_w": 8,
        "aniso": [1.0, 1.0],
    },
    "resample_policy": {
        "kernel": "linear",
        "footprint": "n_closest",
        "num_neighbours": None,  # null -> per-grid schedule 4/6/8
        "radius": None,
        "sharpness": 2.0,
        "power": 2.0,
        "eps": 1.0e-12,
        "eccentricity": [1.0, 1.0, 1.0],
        "cells": [127, 31, 31],
        "prefilter": False,
        "split_components": False,
    },
    "orchestration_policy": {
        "lanes": 3,
        "backend": "dry_run",
        "templates_dir": None,  # null -> packaged defaults
        "submit_command": "sbatch",
        "partition": "singlenode",
        "time_limit": "24:00:00",
        "ntasks_per_node": 72,
        "modules": [],
        "env_setup": [],
        "timesteps": 100000,
        "comp_interval": 100,
        "timesteps_to_average": 1000,
    },
}

_INTERP_RE = re.compile(r"^\$\{([A-Za-z0-9_.]+)\}$")


# ---------------------------------------------------------------------------
# Classic-layout compatibility
# ---------------------------------------------------------------------------
_LEGACY_SIM_KEYS = {"periodic_directions": "periodic_axes", **{key: key for key in (
    "re_band", "magnitude_min", "magnitude_max", "min_x_component_generator",
    "min_x_component_after_scaling", "refinement_probability",
    "precision_decimals")}}


def _normalize_family_ranges(family: str, block: dict) -> dict:
    """Accept `<param>_min` / `<param>_max` pairs next to [lo, hi] records.

    The classic cone block uses one radius range for both radii and names
    the sweep `angle_min_deg` / `angle_max_deg`.  The wedge's legacy
    `x_max` / `depth` become `length` / `width`: a set alias wins over the
    canonical key of the same block, a null one is ignored.
    """
    if family == "wedge":
        block = dict(block)
        for alias, key in _WEDGE_ALIASES.items():
            value = block.pop(alias, None)
            if value is not None:
                block[key] = value
    out = {}
    pairs: dict[str, dict] = {}  # stem -> {bound: (key, value)}
    for key, value in block.items():
        if key in _FAMILY_KEYS.get(family, ()):
            out[key] = value
        elif key in ("angle_min_deg", "angle_max_deg"):
            pairs.setdefault("angle", {})[key.rsplit("_", 2)[1]] = (key, value)
        elif key.endswith("_min") or key.endswith("_max"):
            stem, bound = key[:-4], key[-3:]
            pairs.setdefault(stem, {})[bound] = (key, value)
        else:
            out[key] = value
    for stem, bounds in pairs.items():
        if set(bounds) != {"min", "max"}:
            ((lone, _),) = bounds.values()
            raise ConfigError(
                f"shapes.{family}.{stem}: need both _min and _max, "
                f"got shapes.{family}.{lone} alone")
        interval = [bounds["min"][1], bounds["max"][1]]
        if family == "cone" and stem == "radius":
            out.setdefault("radius_1", interval)
            out.setdefault("radius_2", list(interval))
        else:
            out[stem] = interval
    return out


def _read_config_yaml(path: Path):
    """A config file's YAML document; a parse failure is a ConfigError at
    ``file:line``."""
    try:
        return read_yaml(path)
    except ArtifactIOError as exc:
        mark = getattr(exc.__cause__, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        raise ConfigError(
            f"{where}: config parse failure: {exc.__cause__}") from exc


def _normalize_legacy(user: dict) -> dict:
    """Translate the classic config layout into the canonical schema."""
    user = copy.deepcopy(user)

    if "use_sobol" in user:
        flag = user.pop("use_sobol")
        user.setdefault("sampling_mode", "sobol" if flag else "uniform")

    # factory list: names select the enabled families; module paths in any
    # `_target_` entries are recorded-but-ignored (no dynamic loading)
    if "geometries" in user:
        entries = user.pop("geometries")
        if not isinstance(entries, list):
            raise ConfigError("geometries: expected a list of factory entries")
        names = []
        for entry in entries:
            name = entry.get("name") if isinstance(entry, dict) else entry
            if name not in FAMILIES:
                raise ConfigError(f"geometries: unknown shape family {name!r}")
            names.append(name)
        mix = user.get("shape_mix", {})
        user["shape_mix"] = {fam: mix.get(fam, 1.0 if fam in names else 0.0)
                             for fam in FAMILIES}

    sim = user.get("simulation_parameters")
    if sim is not None:
        user.pop("simulation_parameters")
        if isinstance(sim, str):
            path = Path(sim)
            if not path.exists():
                raise ConfigError(
                    f"simulation_parameters: file not found: {path}")
            sim = _read_config_yaml(path) or {}
        if not isinstance(sim, dict):
            raise ConfigError("simulation_parameters: expected a mapping or path")
        policy = dict(user.get("sim_param_policy", {}))
        inlet = sim.pop("inlet_velocity", {})
        for key, value in {**sim, **inlet}.items():
            if key not in _LEGACY_SIM_KEYS:
                raise ConfigError(f"simulation_parameters.{key}: unknown key")
            policy[_LEGACY_SIM_KEYS[key]] = value
        user["sim_param_policy"] = policy

    return user


def _read_ini(path) -> dict:
    """The ``resample_policy`` (but ``prefilter`` and ``split_components``)
    and ``bounding_box`` blocks that a classic INI resampler file means, as
    README "INI resampler settings" maps them.  A kernel key the file omits
    takes its built-in default, and ``num_neighbours`` the fixed
    ``DEFAULT_K``, so no earlier layer's value leaks into an INI run."""
    import configparser  # only an --ini run reads one

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        parser.read_string(text, source=str(path))
    except configparser.ParsingError as exc:
        # one line: configparser's own text spans lines and repeats the file
        missing = isinstance(exc, configparser.MissingSectionHeaderError)
        lineno = exc.lineno if missing else exc.errors[0][0]
        line = text.split("\n")[lineno - 1].strip()
        problem = "no section header before" if missing else "cannot parse"
        raise ConfigError(f"{path}: line {lineno}: {problem} {line!r}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    def setting(section: str, key: str, convert=str, default=None):
        raw = parser.get(section, key, fallback=None)
        if raw is None and default is None:
            raise ConfigError(f"{path}: [{section}] {key} is missing")
        try:
            return default if raw is None else convert(raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}: [{section}] {key}: {exc}") from exc

    # Linear_Kernel ... Ellipsoidal_Gaussian_Kernel
    kinds = {f"{kind.title()}_Kernel": kind for kind in KERNEL_KINDS}
    name = setting("interpolation", "kernel")
    if name not in kinds:
        raise ConfigError(f"{path}: [interpolation] kernel: unknown kernel {name!r}")
    policy = copy.deepcopy(_DEFAULTS["resample_policy"])
    del policy["prefilter"], policy["split_components"]
    policy["kernel"] = kinds[name]
    for key in ("sharpness", "power"):
        policy[key] = setting(name, key, float, policy[key])
    ratios = setting(name, "eccentricity",
                     lambda text: [float(part) for part in text.split(",")],
                     policy["eccentricity"])
    # one ratio means three equal ones; any other count goes on to _validate
    policy["eccentricity"] = ratios * 3 if len(ratios) == 1 else ratios
    footprint = setting(name, "kernel_footprint", default="N Closest")
    if footprint.lower() not in ("n closest", "radius"):
        raise ConfigError(f"{path}: [{name}] kernel_footprint: expected "
                          f"'N Closest' or 'Radius', got {footprint!r}")
    if footprint.lower() == "n closest":
        policy["num_neighbours"] = setting(name, "num_neighbours", int, DEFAULT_K)
    else:
        policy["footprint"] = "radius"
        policy["radius"] = setting(name, "radius", float)
    policy["cells"] = [setting("gridsize", f"num_cells_{a}", int) for a in "xyz"]

    box = {}
    for axis in "xyz":
        origin = setting("gridsize", f"origin_{axis}", float, 0.0)
        box[f"{axis}_min"] = origin
        box[f"{axis}_max"] = origin + setting("gridsize", f"scale_{axis}", float)
    return {"resample_policy": policy, "bounding_box": box}


# ---------------------------------------------------------------------------
# Typed views
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BoundingBox:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    @property
    def mins(self):
        return (self.x_min, self.y_min, self.z_min)

    @property
    def maxs(self):
        return (self.x_max, self.y_max, self.z_max)

    @property
    def extents(self):
        return (self.x_max - self.x_min, self.y_max - self.y_min,
                self.z_max - self.z_min)


@dataclass(frozen=True)
class ResolvedConfig:
    """Validated, fully-defaulted configuration.

    Read-only after resolution; safe to share across threads.  ``data`` is
    the canonical plain-dict form used for hashing and frozen snapshots.
    """

    data: dict = field(repr=False)

    # convenience accessors -------------------------------------------------
    @property
    def bounding_box(self) -> BoundingBox:
        return BoundingBox(**self.data["bounding_box"])

    @property
    def roi_x(self) -> tuple[float, float]:
        return tuple(self.data["roi_x"])

    @property
    def repeat(self) -> int:
        return self.data["repeat"]

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def sampling_mode(self) -> str:
        return self.data["sampling_mode"]

    @property
    def initial_test_repeat(self) -> int:
        return self.data["initial_test_repeat"]

    @property
    def sim_param_policy(self) -> dict:
        return self.data["sim_param_policy"]

    @property
    def sdf_policy(self) -> dict:
        return self.data["sdf_policy"]

    @property
    def resample_policy(self) -> dict:
        return self.data["resample_policy"]

    @property
    def orchestration_policy(self) -> dict:
        return self.data["orchestration_policy"]


# ---------------------------------------------------------------------------
# Merge / override machinery
# ---------------------------------------------------------------------------
def _merge(base: dict, user: dict, path: str = "") -> dict:
    """Recursively merge ``user`` over ``base``, rejecting unknown keys."""
    out = copy.deepcopy(base)
    for key, value in user.items():
        here = f"{path}.{key}" if path else str(key)
        if key not in base:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(base[key], dict) and not isinstance(value, dict):
            raise ConfigError(f"{here}: expected a mapping")
        if key == "shape_mix":  # free-form: validated by _validate
            out[key] = dict(value)
        elif key == "shapes":
            out[key] = _merge_shapes(base[key], value, here)
        elif isinstance(base[key], dict):
            out[key] = _merge(base[key], value, here)
        elif isinstance(value, dict):
            raise ConfigError(f"{here}: takes a value, not a mapping")
        else:
            out[key] = copy.deepcopy(value)
    return out


def _merge_shapes(base: dict, user: dict, here: str) -> dict:
    """``base`` with ``user``'s shape blocks merged in per family: legacy
    keys renamed, every key checked against ``_FAMILY_KEYS``, the family's
    other ranges kept."""
    merged = copy.deepcopy(base)
    for fam, ranges in user.items():
        if fam not in FAMILIES:
            raise ConfigError(f"{here}.{fam}: unknown shape family")
        if not isinstance(ranges, dict):
            raise ConfigError(f"{here}.{fam}: expected a mapping")
        fam_out = dict(merged.get(fam, {}))
        for rkey, rval in _normalize_family_ranges(fam, ranges).items():
            if rkey not in _FAMILY_KEYS[fam]:
                raise ConfigError(f"{here}.{fam}.{rkey}: unknown parameter key")
            fam_out[rkey] = copy.deepcopy(rval)
        merged[fam] = fam_out
    return merged


def parse_override(item: str) -> tuple[list[str], object]:
    """Parse one ``key.path=value`` override; the value uses YAML syntax."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not of the form key.path=value")
    key, _, raw = item.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(f"override {item!r} has an empty key")
    try:
        value = loads(raw) if raw.strip() else ""
    except YAMLError as exc:
        raise ConfigError(f"override {item!r}: unparseable value: {exc}") from exc
    return key.split("."), value


def _resolve_interpolations(tree: dict):
    """Resolve full-string ``${dotted.path}`` references against the root."""

    def lookup(dotted: str):
        node = tree
        for part in dotted.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"interpolation ${{{dotted}}} does not resolve")
            node = node[part]
        return node

    def walk(node, seen: tuple = ()):
        if isinstance(node, dict):
            return {k: walk(v, seen) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v, seen) for v in node]
        if isinstance(node, str):
            match = _INTERP_RE.match(node)
            if match:
                target = match.group(1)
                if target in seen:
                    raise ConfigError(f"interpolation cycle through ${{{target}}}")
                return walk(lookup(target), seen + (target,))
        return node

    return walk(tree)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _is_number(value) -> bool:
    """An int or float that is a finite float; a bool is no number."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):    # not a number, or past float range
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list(value, item_ok, length=None) -> bool:
    return (isinstance(value, (list, tuple)) and all(map(item_ok, value))
            and length in (None, len(value)))


def _is_interval(value) -> bool:
    return _is_list(value, _is_number, 2)


def _lookup(data: dict, dotted: str):
    for part in dotted.split("."):
        data = data[part]
    return data


# every integer field, with the least value it allows (None: any integer)
_INT_FIELDS = {
    "number_of_objects": 1, "repeat": 1,
    "number_of_retries_object_creation": 1, "max_scene_restarts": 1,
    "initial_test_repeat": 0, "seed": None,
    "pose.position_decimals": None, "pose.dir_vector_decimals": None,
    "pose.param_decimals": None,
    "sim_param_policy.precision_decimals": None,
    "sim_param_policy.rejection_budget": 1,
    "sdf_policy.dx": 1, "sdf_policy.band_w": 1,
    "orchestration_policy.lanes": 1, "orchestration_policy.ntasks_per_node": 1,
    "orchestration_policy.timesteps": 1, "orchestration_policy.comp_interval": 1,
    "orchestration_policy.timesteps_to_average": 1,
}
_INT_KINDS = {None: "an integer", 0: "a nonnegative integer",
              1: "a positive integer"}

# every non-null float field; checked before any comparison reads it
_NUMBER_FIELDS = (
    *(f"bounding_box.{axis}_{end}" for axis in "xyz" for end in ("min", "max")),
    "min_volume",
    *(f"sim_param_policy.{key}" for key in (
        "magnitude_min", "magnitude_max", "min_x_component_generator",
        "min_x_component_after_scaling", "periodic_probability",
        "refinement_probability", "tau_stability_cap")),
    *(f"solver_policy.{key}" for key in ("l_char", "cs", "ma_inlet_max", "ma_max")),
    *(f"resample_policy.{key}" for key in ("sharpness", "power", "eps")),
)

# every boolean and every string field
_BOOL_FIELDS = ("name_object_out", "resample_policy.prefilter",
                "resample_policy.split_components",
                *(f"sim_param_policy.periodic_axes.{axis}" for axis in "xyz"))
_STR_FIELDS = ("output_prefix", "campaign",
               *(f"orchestration_policy.{key}"
                 for key in ("submit_command", "partition", "time_limit")))


def _validate(data: dict):
    for dotted, least in _INT_FIELDS.items():
        value = _lookup(data, dotted)
        _require(_is_int(value) and (least is None or value >= least),
                 f"{dotted}: must be {_INT_KINDS[least]}")
    for fields, ok, kind in (
            (_NUMBER_FIELDS, _is_number, "a number"),
            (_BOOL_FIELDS, lambda value: isinstance(value, bool), "true or false"),
            (_STR_FIELDS, lambda value: isinstance(value, str), "a (quoted) string")):
        for dotted in fields:
            _require(ok(_lookup(data, dotted)), f"{dotted}: must be {kind}")

    box = data["bounding_box"]
    for axis in ("x", "y", "z"):
        _require(box[f"{axis}_min"] <= box[f"{axis}_max"],
                 f"bounding_box: {axis}_min > {axis}_max")

    _require(_is_interval(data["roi_x"]) and data["roi_x"][0] <= data["roi_x"][1],
             "roi_x: expected a nonempty [min, max] interval")
    _require(box["x_min"] <= data["roi_x"][0] and data["roi_x"][1] <= box["x_max"],
             "roi_x: must lie within the domain x-range")

    _require(data["sampling_mode"] in ("uniform", "sobol"),
             "sampling_mode: must be 'uniform' or 'sobol'")
    _require(data["min_volume"] > 0, "min_volume: must be positive")
    _require(data["clearance"] is None
             or _is_number(data["clearance"]) and data["clearance"] >= 0,
             "clearance: must be a nonnegative number")

    mix = data["shape_mix"]
    _require(len(mix) > 0, "shape_mix: no families configured")
    for fam, weight in mix.items():
        _require(fam in FAMILIES, f"shape_mix.{fam}: unknown shape family")
        _require(_is_number(weight) and weight >= 0,
                 f"shape_mix.{fam}: weight must be a number >= 0")
    _require(any(w > 0 for w in mix.values()),
             "shape_mix: no positive weight")
    for fam, weight in mix.items():
        if weight > 0:
            _require(fam in data["shapes"],
                     f"shape_mix.{fam}: no parameter ranges configured")

    for fam, ranges in data["shapes"].items():
        for key, value in ranges.items():
            here = f"shapes.{fam}.{key}"
            if key == "decimals":
                _require(_is_int(value), f"{here}: must be an integer")
            elif key == "min_radius_sum":
                _require(_is_number(value), f"{here}: must be a number")
            elif not (fam == "sphere" and key in _SECTOR_KEYS and value is None):
                _require(_is_interval(value) and value[0] <= value[1],
                         f"{here}: expected a nonempty [min, max] interval")

    spp = data["sim_param_policy"]
    _require(_is_interval(spp["re_band"]) and 0 < spp["re_band"][0] <= spp["re_band"][1],
             "sim_param_policy.re_band: expected a positive [min, max] interval")
    _require(0 < spp["magnitude_min"] <= spp["magnitude_max"],
             "sim_param_policy: magnitude_min must be in (0, magnitude_max]")
    _require(not spp["periodic_axes"]["x"],
             "sim_param_policy.periodic_axes.x: streamwise periodicity is never allowed")
    for key in ("periodic_probability", "refinement_probability"):
        _require(0.0 <= spp[key] <= 1.0, f"sim_param_policy.{key}: must be in [0, 1]")
    _require(spp["tau_stability_cap"] > 0.5,
             "sim_param_policy.tau_stability_cap: must exceed 0.5")

    sol = data["solver_policy"]
    _require(0.12 <= sol["cs"] <= 0.18,
             "solver_policy.cs: must lie in [0.12, 0.18]")
    _require(sol["l_char"] > 0, "solver_policy.l_char: must be positive")

    sdf = data["sdf_policy"]
    _require(_is_list(sdf["aniso"], lambda s: _is_number(s) and s > 0, 2),
             "sdf_policy.aniso: expected two positive scale factors")
    bbox = BoundingBox(**box)
    try:
        GridSpec.preset(sdf["dx"], bbox.extents)
    except FieldError as exc:
        raise ConfigError(f"sdf_policy: {exc}") from exc

    res = data["resample_policy"]
    _require(_is_list(res["cells"], lambda c: _is_int(c) and c >= 1, 3),
             "resample_policy.cells: expected three positive integers")
    _require(_is_list(res["eccentricity"], _is_number),
             "resample_policy.eccentricity: expected a list of numbers")
    _require(res["radius"] is None or _is_number(res["radius"]),
             "resample_policy.radius: must be a number or null")
    try:
        resample_specs(res, bbox.mins, bbox.extents)
    except FieldError as exc:
        raise ConfigError(f"resample_policy: {exc}") from exc

    orc = data["orchestration_policy"]
    _require(orc["backend"] in BACKENDS,
             "orchestration_policy.backend: unknown backend")
    _require(orc["templates_dir"] is None or isinstance(orc["templates_dir"], str),
             "orchestration_policy.templates_dir: must be a string or null")
    for key in ("modules", "env_setup"):
        _require(_is_list(orc[key], lambda line: isinstance(line, str)),
                 f"orchestration_policy.{key}: expected a list of strings")


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------
def resolve_config(base_file=None, override_list: list[str] | None = None,
                   base_dict: dict | None = None,
                   ini_file=None) -> ResolvedConfig:
    """Load, merge, interpolate, and validate the configuration.

    ``base_file`` may be omitted to start from built-in defaults;
    ``base_dict`` supports in-memory configs (tests, embedding).  The
    blocks of a classic INI resampler file (:func:`_read_ini`) merge over
    the file, and ``key.path=value`` overrides merge last, in order.
    """
    user = base_dict or {}  # _normalize_legacy copies it
    if base_file is not None:
        path = Path(base_file)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        user = _read_config_yaml(path)
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: top level must be a mapping")

    merged = _merge(_DEFAULTS, _normalize_legacy(user))
    if ini_file is not None:
        merged = _merge(merged, _read_ini(ini_file))

    # `a.b=v` merges exactly like the file block `a: {b: v}`, except that a
    # dotted `shape_mix.<family>=w` sets one weight of the current mix
    for item in override_list or []:
        parts, value = parse_override(item)
        for part in reversed(parts):
            value = {part: value}
        if parts[0] == "shape_mix" and len(parts) > 1:
            value["shape_mix"] = {**merged["shape_mix"], **value["shape_mix"]}
        merged = _merge(merged, _normalize_legacy(value))

    merged = _resolve_interpolations(merged)
    try:
        _validate(merged)
    except ConfigError as exc:
        if ini_file is None:
            raise
        try:  # the INI file is named when the config resolves without it
            resolve_config(base_file, override_list, base_dict)
        except ConfigError:
            raise exc from None
        raise ConfigError(f"{ini_file}: {exc}") from exc

    # resolve derived defaults so the frozen snapshot is self-contained
    if merged["clearance"] is None:
        merged["clearance"] = 2.0 * merged["sdf_policy"]["dx"]
    return ResolvedConfig(data=merged)


def canonical_bytes(obj) -> bytes:
    """Canonical serialization: sorted keys, shortest floats, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False).encode("utf-8")


def config_hash(cfg: ResolvedConfig) -> str:
    """SHA-256 hex digest of the canonical resolved-config bytes."""
    return hashlib.sha256(canonical_bytes(cfg.data)).hexdigest()


def write_provenance(cfg: ResolvedConfig, out_dir, count: int,
                     sobol_index: int | None = None) -> Path:
    """Record what reproduces a stage's run in ``out_dir``; atomic replace.

    ``provenance.json`` holds the config digest, the seed, the run's item
    count (``samples_generated``), the tool version, a UTC timestamp and,
    when given, the next Sobol ordinal.  ``config_frozen.yaml`` is a
    snapshot that resolves back to an identical config.
    """
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise ArtifactIOError(f"provenance directory does not exist: {out_dir}")
    record = {
        "config_digest": config_hash(cfg),
        "seed": cfg.seed,
        "samples_generated": count,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if sobol_index is not None:
        record["sobol_index"] = sobol_index
    target = out_dir / "provenance.json"
    try:
        atomic_write(target, json.dumps(record, sort_keys=True, indent=2) + "\n")
        write_yaml(out_dir / "config_frozen.yaml", cfg.data)
    except OSError as exc:
        raise ArtifactIOError(f"cannot write provenance at {target}: {exc}") from exc
    return target
