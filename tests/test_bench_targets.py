"""Every flowforge function the benchmark tracer wraps still exists.

``perfbench/spans.py`` patches flowforge entry points by name, so a
renamed or deleted target crashes every traced benchmark run.  This test
resolves each target the way ``Tracer.install`` does, without patching.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [target for target, _ in spans._wrappers(spans.Tracer())]


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    missing = []
    for target in targets:
        # "package.module:function" or "package.module:Class.method"
        module_name, _, attr = target.partition(":")
        node = importlib.import_module(module_name)
        for part in attr.split("."):
            node = getattr(node, part, None)
        if not callable(node):
            missing.append(target)
    assert missing == []
