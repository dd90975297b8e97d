"""Benchmark workloads: untimed inputs, the timed stage chain, and checks.

Each workload drives ``flowforge.cli.main`` in-process, stage after stage
(a closed loop), exactly as a user's shell would call ``forge``.  Every
operation the chain performs is checked from the artifacts it leaves,
which yields the attempted/failed counts behind ``failed_frac``.  Why each
workload exists is in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np
import yaml

DOMAIN = (2048, 512, 512)            # lattice-unit channel of the default config
TARGET_DIMS = (128, 32, 32)          # default resample_policy.cells + 1

# generated scenes per iteration (full size, self-test size); sdf_dx4
# voxelizes the fixed solids built in prepare() instead
REPEAT = {"e2e_dx16": (2, 2), "campaign_dx64": (40, 2)}


def overrides(workload: str, seed: int, tiny: bool) -> list[str]:
    """The exact config overrides every stage of the workload receives.

    The seed enters the hashed config, so it changes every case id and
    artifact digest.  Generated scenes come from the Sobol stream, which the
    seed does not scramble, so the amount of work is the same for every seed.
    """
    if workload == "sdf_dx4":
        return [f"seed={seed}", "sdf_policy.dx=4"]
    n = REPEAT[workload][1 if tiny else 0]
    if workload == "e2e_dx16":
        # the end-to-end determinism criterion's input, fewer scenes
        return [f"repeat={n}", f"seed={seed}", "sampling_mode=sobol"]
    return [f"repeat={n}", f"seed={seed}", "sampling_mode=sobol",
            "sdf_policy.dx=64"]


def tree_digest(root: Path) -> str:
    """sha256 over every artifact's relative path and bytes, provenance.json
    excluded (it holds timestamps)."""
    outer = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name == "provenance.json":
            continue
        outer.update(path.relative_to(root).as_posix().encode("utf-8"))
        outer.update(hashlib.sha256(path.read_bytes()).digest())
    return outer.hexdigest()


class Ledger:
    """Attempted and failed operation counts, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, test, what: str):
        """Count one operation; ``test()`` is true when its output is sound.
        A missing or unreadable artifact counts as a failure."""
        self.attempted += 1
        try:
            ok = bool(test())
        except (OSError, ValueError, LookupError, TypeError, yaml.YAMLError):
            ok = False
        if not ok:
            self.failed += 1
            self.errors.append(what)


class Chain:
    """Runs forge stages in order; stops at the first stage that fails."""

    def __init__(self, main, span):
        self._main = main
        self._span = span          # (name, item) -> context manager
        self.ok = True
        self.errors: list[str] = []

    def forge(self, stage: str, argv: list[str], item: str | None = None) -> int:
        if not self.ok:
            return -1
        with self._span(f"stage.{stage}", item), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = self._main(argv)
            except Exception as exc:  # MemoryError included: counted, not fatal
                rc = -1
                self.errors.append(f"{stage}: {type(exc).__name__}: {exc}")
        if rc != 0 and stage != "gate":
            self.ok = False
            self.errors.append(f"{stage}: exit {rc}")
        return rc


# ---------------------------------------------------------------------------
# Untimed input preparation
# ---------------------------------------------------------------------------
def prepare(workload: str, seed: int, tiny: bool, inputs: Path) -> dict:
    """Build the workload's inputs once; returns their description."""
    if workload != "sdf_dx4":
        return {}
    from flowforge.geometry.primitives import tessellate
    from flowforge.geometry.stl import write_stl

    rng = np.random.default_rng(seed)
    inputs.mkdir(parents=True)
    if tiny:
        shapes = [("cuboid", {"height": 40.0, "width": 40.0, "thickness": 40.0}, 16),
                  ("sphere", {"radius": 16.0, "alpha": None, "beta": None,
                              "gamma": None}, 16)]
    else:
        # few large triangles (whole interiors inside one leaf box) next to
        # the acceptance sphere's 16,128 small ones
        shapes = [("cuboid", {"height": 96.0, "width": 160.0, "thickness": 96.0}, 16),
                  ("wedge", {"length": 192.0, "width": 128.0, "height": 96.0,
                             "opening_angle": 40.0}, 16),
                  ("sphere", {"radius": 64.0, "alpha": None, "beta": None,
                              "gamma": None}, 128)]
    described = []
    centres = np.linspace(400.0, 1600.0, len(shapes))
    for i, (family, params, segments) in enumerate(shapes):
        solid = tessellate(family, params, segments)
        # the seed moves each solid by up to one dx=4 voxel per axis
        centre = np.array([centres[i], 256.0, 256.0]) + rng.uniform(0.0, 4.0, 3)
        mesh = solid.mesh.translated(centre - solid.centroid)
        # one directory per scene: each forge sdf call voxelizes one scene,
        # so the memory peak does not hinge on how two scenes' threads overlap
        scene_dir = inputs / f"{i}_{family}"
        scene_dir.mkdir()
        write_stl(mesh, scene_dir / f"{family}_{i}.stl")
        described.append({"stl": f"{family}_{i}.stl", "family": family,
                          "params": params, "segments": segments,
                          "triangles": int(len(mesh.triangles)),
                          "centre": [round(float(c), 6) for c in centre]})
    return {"solids": described}


# ---------------------------------------------------------------------------
# Timed stage chains
# ---------------------------------------------------------------------------
def run_chain(workload: str, ov: list[str], root: Path, inputs: Path,
              chain: Chain) -> list[int]:
    """Run the workload's stages under ``root``; returns the gate exit codes."""
    scenes, sdf, cases, tensors, report = (
        str(root / n) for n in ("scenes", "sdf", "cases", "tensors", "report"))
    if workload == "sdf_dx4":
        for scene_dir in sorted(inputs.iterdir()):
            chain.forge("sdf", ["sdf", *ov, "--in", str(scene_dir), "--out", sdf])
        return []
    orchestrate = ["orchestrate", *ov, "--scenes", scenes, "--sdf", sdf,
                   "--out", cases, "--backend", "local"]
    chain.forge("generate", ["generate", *ov, "--out", scenes])
    chain.forge("sdf", ["sdf", *ov, "--in", scenes, "--out", sdf])
    chain.forge("orchestrate", orchestrate)
    gates = []
    if workload == "e2e_dx16":
        chain.forge("resample", ["resample", *ov, "--cases", cases,
                                 "--out", tensors])
    else:
        chain.forge("orchestrate_rerun", orchestrate)
        if chain.ok:
            for case in sorted(p for p in Path(cases).iterdir() if p.is_dir()):
                gates.append(chain.forge("gate", ["gate", "--case", str(case)],
                                         item=case.name))
    chain.forge("report", ["report", *ov, "--scenes", scenes, "--out", report])
    return gates


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------
def _finite_with_shape(path: Path, shape: tuple) -> bool:
    array = np.load(path)
    return array.shape == shape and bool(np.isfinite(array).all())


def _field_matches_sidecar(stem: Path, dims: tuple) -> bool:
    meta = yaml.safe_load(stem.with_suffix(".yaml").read_text())
    array = np.load(stem.with_suffix(".npy"), mmap_mode="r")
    return (tuple(meta["dims"]) == dims == array.shape
            and array.dtype == np.float32)


def _completed(manifest: Path) -> bool:
    return yaml.safe_load(manifest.read_text())["status"] == "completed"


def scene_stems(workload: str, ov: list[str], inputs: Path) -> list[str]:
    """Stems of the scenes one iteration must carry through every stage."""
    if workload == "sdf_dx4":
        return sorted(p.stem for p in inputs.glob("*/*.stl"))
    n = next(int(o.split("=", 1)[1]) for o in ov if o.startswith("repeat="))
    return [f"object_{i}" for i in range(n)]


def check(workload: str, ov: list[str], root: Path, inputs: Path,
          gates: list[int], ledger: Ledger):
    """Count every expected operation and whether its artifact is sound."""
    dx = {"e2e_dx16": 16, "sdf_dx4": 4, "campaign_dx64": 64}[workload]
    sdf_dims = tuple(e // dx for e in DOMAIN)
    stems = scene_stems(workload, ov, inputs)
    scenes = root / "scenes"
    if workload != "sdf_dx4":
        for stem in stems:
            ledger.check(lambda: (scenes / f"{stem}.stl").is_file()
                         and (scenes / f"{stem}.yaml").is_file(),
                         f"scene {stem} missing")
    for stem in stems:
        ledger.check(lambda: _field_matches_sidecar(root / "sdf" / stem, sdf_dims),
                     f"sdf field {stem} missing or mis-shaped")
    if workload == "sdf_dx4":
        return

    try:
        entries = yaml.safe_load((root / "cases" / "index.yaml").read_text()) or {}
    except (OSError, yaml.YAMLError):
        entries = {}
    by_stem = {entry["stem"]: case_id for case_id, entry in entries.items()}
    for stem in stems:
        ledger.check(lambda: _completed(root / "cases" / by_stem[stem]
                                        / "manifest.yaml"),
                     f"case of {stem} not completed")

    if workload == "e2e_dx16":
        tensors = root / "tensors"
        for stem in stems:
            ledger.check(
                lambda: _finite_with_shape(tensors / f"{stem}_velocity.npy",
                                           (3,) + TARGET_DIMS)
                and _finite_with_shape(tensors / f"{stem}_sdf.npy", TARGET_DIMS),
                f"resampled tensors of {stem} missing, mis-shaped or not finite")
    else:
        for i in range(len(stems)):
            ledger.check(lambda: gates[i] == 0, f"gate {i} did not exit 0")
