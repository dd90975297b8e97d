"""Deterministic draw layer: uniform and Sobol low-discrepancy vectors.

Both modes share one bookkeeping contract: every draw *and* every rejection
advances ``index`` by exactly one, so the k-th emitted vector is a pure
function of (mode, seed, dimension, k).  Interrupting a run and resuming
from a saved state therefore reproduces the uninterrupted stream exactly.
``forge generate`` saves the state after each scene's STL and YAML; a kill
between those writes leaves the previous state, so the rerun rebuilds
scene i from the same ordinals and atomically replaces both files with
the same bytes.

Sobol vectors are built with the Gray-code construction over the Joe--Kuo
direction numbers embedded in :mod:`flowforge._directions`.  The all-zeros
point of the raw sequence is skipped: emitted ordinal k corresponds to raw
sequence position k + 1, and the skip is implicit in the stored ``index``
so resume needs no extra flag.

Uniform vectors come from a counter-based PRNG (Philox) keyed by
``(seed, index)``, which gives the same index-addressable semantics as the
Sobol path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._directions import MAX_DIMENSION, M_INIT, POLY
from .atomic import atomic_write
from .errors import StateError

SOBOL_BITS = 32
_SCALE = float(2**SOBOL_BITS)

MODES = ("uniform", "sobol")
PHASES = ("initial_test", "final_run")


# ---------------------------------------------------------------------------
# Direction integers
# ---------------------------------------------------------------------------
_direction_cache: dict[int, np.ndarray] = {}


def _direction_integers(dimension: int) -> np.ndarray:
    """Direction integers V[j, k] = m_{k+1} << (SOBOL_BITS - 1 - k).

    Column k carries the direction number for bit k of the Gray-coded
    sequence position.  Rows are sequence dimensions.
    """
    if dimension in _direction_cache:
        return _direction_cache[dimension]
    if dimension > MAX_DIMENSION:
        raise StateError(
            f"sobol dimension {dimension} exceeds the built-in direction-number "
            f"table (max {MAX_DIMENSION})"
        )
    v = np.zeros((dimension, SOBOL_BITS), dtype=np.int64)
    for j in range(dimension):
        m = list(M_INIT[j])
        if j == 0:
            m = [1] * SOBOL_BITS
        else:
            poly = POLY[j]
            s = poly.bit_length() - 1
            a = (poly >> 1) & ((1 << (s - 1)) - 1)
            for k in range(s, SOBOL_BITS):
                new = m[k - s] ^ (m[k - s] << s)
                for t in range(1, s):
                    if (a >> (s - 1 - t)) & 1:
                        new ^= m[k - t] << t
                m.append(new)
        for k in range(SOBOL_BITS):
            v[j, k] = m[k] << (SOBOL_BITS - 1 - k)
    _direction_cache[dimension] = v
    return v


def sobol_raw(position: int, dimension: int) -> np.ndarray:
    """Raw Sobol point at 0-based sequence ``position`` (position 0 is all zeros).

    Uses the closed form over the Gray code of ``position``, so evaluation is
    independent of any generator state.
    """
    if position < 0:
        raise StateError("sobol position must be nonnegative")
    v = _direction_integers(dimension)
    x = np.zeros(dimension, dtype=np.int64)
    g = position ^ (position >> 1)
    bit = 0
    while g:
        if g & 1:
            x ^= v[:, bit]
        g >>= 1
        bit += 1
    return x / _SCALE


def sobol_point(ordinal: int, dimension: int) -> np.ndarray:
    """Emitted Sobol point: ordinal 0 maps to the first nonzero raw point."""
    return sobol_raw(ordinal + 1, dimension)


def uniform_point(seed: int, index: int, dimension: int) -> np.ndarray:
    """I.i.d. uniforms addressed purely by (seed, index)."""
    bit_gen = np.random.Philox(key=seed & (2**128 - 1), counter=[index, 0, 0, 0])
    return np.random.Generator(bit_gen).random(dimension)


# ---------------------------------------------------------------------------
# Generator state
# ---------------------------------------------------------------------------
@dataclass
class GeneratorState:
    """Serializable sampler state; single-owner, draws strictly sequential.

    ``index`` is the ordinal of the next vector; ``samples_generated`` counts
    accepted scenes and is maintained by the scene builder, not by draws.
    """

    mode: str = "uniform"
    seed: int = 0
    dimension: int | None = None
    index: int = 0
    samples_generated: int = 0
    phase: str = "initial_test"

    def __post_init__(self):
        if self.mode not in MODES:
            raise StateError(f"unknown sampling mode {self.mode!r}")
        if self.phase not in PHASES:
            raise StateError(f"unknown phase {self.phase!r}")
        if self.index < 0 or self.samples_generated < 0:
            raise StateError("index and samples_generated must be nonnegative")


def freeze_dimension(state: GeneratorState, dimension: int,
                     initial_test_repeat: int = 0) -> GeneratorState:
    """Lock the draw dimensionality and enter the final-run phase.

    Advances the index past ``initial_test_repeat`` discovery draws so the
    final run starts on a fresh stretch of the sequence.
    """
    if state.phase == "final_run":
        raise StateError("dimension locked: generator already in final_run phase")
    if dimension < 1:
        raise StateError("dimension must be positive")
    if state.mode == "sobol" and dimension > MAX_DIMENSION:
        raise StateError(
            f"sobol dimension {dimension} exceeds the built-in direction-number "
            f"table (max {MAX_DIMENSION})"
        )
    state.dimension = dimension
    state.phase = "final_run"
    state.index += int(initial_test_repeat)
    return state


def next_point(state: GeneratorState) -> np.ndarray:
    """Emit the vector at the current index and advance by one."""
    if state.dimension is None:
        raise StateError("dimension unset: call freeze_dimension first")
    if state.mode == "sobol" and state.phase != "final_run":
        raise StateError("sobol draws require the final_run phase")
    if state.mode == "sobol":
        point = sobol_point(state.index, state.dimension)
    else:
        point = uniform_point(state.seed, state.index, state.dimension)
    state.index += 1
    return point


def advance_on_reject(state: GeneratorState) -> GeneratorState:
    """Record a rejection: skip one ordinal, never reordering later draws."""
    state.index += 1
    return state


# ---------------------------------------------------------------------------
# Plain-text state persistence
# ---------------------------------------------------------------------------
_STATE_FIELDS = ("mode", "seed", "dimension", "index", "samples_generated", "phase")


def save_state(state: GeneratorState, path) -> Path:
    """Write the state as key=value lines (no opaque binary)."""
    path = Path(path)
    lines = []
    for name in _STATE_FIELDS:
        value = getattr(state, name)
        if value is None:
            continue
        lines.append(f"{name}={value}")
    return atomic_write(path, "\n".join(lines) + "\n")


def load_state(path) -> GeneratorState:
    """Parse a state file, reporting every missing or invalid field."""
    path = Path(path)
    if not path.exists():
        raise StateError(f"state file not found: {path}")
    values: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise StateError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        values[key.strip()] = raw.strip()

    problems = []
    for name in ("mode", "seed", "index", "samples_generated", "phase"):
        if name not in values:
            problems.append(f"missing field {name}")
    ints = {}
    for name in ("seed", "index", "samples_generated", "dimension"):
        if name in values:
            try:
                ints[name] = int(values[name])
            except ValueError:
                problems.append(f"invalid integer for {name}: {values[name]!r}")
    if values.get("mode") not in MODES:
        problems.append(f"invalid mode: {values.get('mode')!r}")
    if values.get("phase") not in PHASES:
        problems.append(f"invalid phase: {values.get('phase')!r}")
    if values.get("phase") == "final_run" and "dimension" not in values:
        problems.append("missing field dimension (required once final_run)")
    if problems:
        raise StateError(f"corrupt state file {path}: " + "; ".join(problems))

    return GeneratorState(
        mode=values["mode"],
        seed=ints["seed"],
        dimension=ints.get("dimension"),
        index=ints["index"],
        samples_generated=ints["samples_generated"],
        phase=values["phase"],
    )
