"""The YAML codec: one module owns the dialect, and libyaml changes no byte."""

import ast
import hashlib
from pathlib import Path

import pytest
import yaml

import flowforge
import flowforge.yamlio as yamlio
from flowforge.cli import main
from flowforge.orchestrate import read_index

SRC = Path(flowforge.__file__).resolve().parent


def test_only_the_codec_imports_yaml():
    importers = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(n == "yaml" or n.startswith("yaml.") for n in names):
                importers.add(path.relative_to(SRC).as_posix())
    assert importers == {"yamlio.py"}


CONFIG = """\
repeat: 2
seed: 77
sampling_mode: sobol
shape_mix: {cuboid: 1, sphere: 1, cylinder: 0, cone: 0, torus: 0, wedge: 0}
"""


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, provenance.json
    (which holds timestamps) left out."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "provenance.json":
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_chain(root: Path) -> str:
    """generate -> sdf -> orchestrate (local) -> resample -> gate per case
    -> report, under one config file plus overrides."""
    root.mkdir()
    config = root / "config.yaml"
    config.write_text(CONFIG)
    common = ["-c", str(config), "shapes.sphere.radius=[20,40]",
              "shapes.cuboid.height=[30,70]"]
    scenes, sdf, cases = root / "scenes", root / "sdf", root / "cases"
    assert main(["generate", *common, "--out", str(scenes)]) == 0
    assert main(["sdf", *common, "--in", str(scenes), "--out", str(sdf),
                 "--jobs", "1"]) == 0
    assert main(["orchestrate", *common, "--scenes", str(scenes), "--sdf",
                 str(sdf), "--out", str(cases), "--backend", "local"]) == 0
    assert main(["resample", *common, "--cases", str(cases),
                 "--out", str(root / "tensors")]) == 0
    case_ids = sorted(read_index(cases))
    assert len(case_ids) == 2
    for case_id in case_ids:
        assert main(["gate", "--case", str(cases / case_id)]) == 0
    assert main(["report", *common, "--scenes", str(scenes),
                 "--out", str(root / "report")]) == 0
    return tree_digest(root)


def test_libyaml_and_pure_python_trees_are_byte_identical(tmp_path,
                                                          monkeypatch):
    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    assert yamlio._LOADER is yaml.CSafeLoader
    assert yamlio._DUMPER is yaml.CSafeDumper
    shipped = run_chain(tmp_path / "libyaml")
    monkeypatch.setattr(yamlio, "_LOADER", yaml.SafeLoader)
    monkeypatch.setattr(yamlio, "_DUMPER", yaml.SafeDumper)
    assert run_chain(tmp_path / "pure_python") == shipped
