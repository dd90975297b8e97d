"""The one YAML dialect of every artifact, and the only module that imports
PyYAML: safe tags only, block style, keys sorted unless the caller keeps
insertion order.  libyaml's C loader and dumper are used when PyYAML has
them; they give the same values and bytes as the pure-Python classes,
several times faster.
"""

from __future__ import annotations

from pathlib import Path

import yaml

from .atomic import atomic_write
from .errors import ArtifactIOError

YAMLError = yaml.YAMLError
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def loads(text: str):
    """The value of one YAML document; None when it is empty."""
    return yaml.load(text, Loader=_LOADER)


def dumps(obj, sort_keys: bool = True) -> str:
    return yaml.dump(obj, Dumper=_DUMPER, sort_keys=sort_keys)


def read_yaml(path, data: bytes | None = None):
    """The value of the YAML document in ``path``, or in ``data`` when the
    caller has read its bytes already; None when it is empty.

    A parse failure, invalid UTF-8 included, raises ArtifactIOError from the
    YAMLError, whose mark names the line (and the file, if read here).  The
    loader decodes the bytes itself, so its mark also covers decoding errors.
    """
    try:
        if data is not None:
            return yaml.load(data, Loader=_LOADER)
        with Path(path).open("rb") as stream:
            return yaml.load(stream, Loader=_LOADER)
    except YAMLError as exc:
        raise ArtifactIOError(f"unparseable YAML: {exc}") from exc


def write_yaml(path, obj, sort_keys: bool = True) -> Path:
    """Atomically replace ``path`` with ``dumps(obj, sort_keys)``."""
    return atomic_write(path, dumps(obj, sort_keys))
