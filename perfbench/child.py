"""One workload in one process, started by run.py.

The process caps its own address space, imports flowforge from the
checkout's ``src/``, resolves the workload's config and prints ``ready``:
that much is ``setup_s``.  With ``--probe`` it exits there.  Otherwise it
builds the untimed inputs, then runs the timed stage chain again and again
in fresh directories until ``--seconds`` have passed, checks every
iteration's artifacts and tree digest, and writes one JSON result file.
With ``--trace 1`` iterations alternate untraced and traced, so one run
yields both the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def memory_cap() -> int:
    """Address-space cap: half the machine's memory, at most 4 GiB."""
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return min(4 << 30, phys // 2)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _untraced(_name, _item=None):
    return nullcontext()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--work", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    cap = memory_cap()
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, str(ROOT / "src"))
    from flowforge.cli import main as forge_main
    from flowforge.config import resolve_config

    import workloads as wl

    ov = wl.overrides(args.workload, args.seed, args.tiny)
    resolve_config(None, ov)
    print("ready", flush=True)
    if args.probe:
        return 0

    import numpy
    import scipy

    from spans import Tracer, layer_metrics

    inputs = args.work / "inputs"
    described = wl.prepare(args.workload, args.seed, args.tiny, inputs)
    tracer = Tracer() if args.trace else None
    ledger = wl.Ledger()
    chain_errors: list[str] = []
    iterations = []
    reference = None
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        root = args.work / f"iter_{k}"
        root.mkdir()
        chain = wl.Chain(forge_main, tracer.stage if traced else _untraced)
        if traced:
            tracer.reset(k)
            tracer.install()
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            gates = wl.run_chain(args.workload, ov, root, inputs, chain)
        finally:
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
            if traced:
                tracer.uninstall()
        chain_errors.extend(chain.errors)
        wl.check(args.workload, ov, root, inputs, gates, ledger)
        digest = wl.tree_digest(root)
        ledger.check(lambda: reference in (None, digest),
                     f"iteration {k}: tree digest differs from iteration 0")
        reference = reference or digest
        record = {"iteration": k, "traced": traced, "wall_s": wall,
                  "cpu_s": cpu, "digest": digest}
        if traced:
            record["layers"] = layer_metrics(
                [s for s in tracer.spans if s["trace"] == k], tracer.counters)
        iterations.append(record)
        shutil.rmtree(root)
        k += 1
        # iteration 0 is a warm-up; trace runs need one more of each kind
        if (time.perf_counter() - start >= args.seconds
                and k >= (3 if tracer else 2)):
            break

    if tracer is not None and args.spans:
        tracer.dump(args.spans)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "overrides": ov,
        "inputs": described,
        "scenes_per_iteration": len(wl.scene_stems(args.workload, ov, inputs)),
        "memory_cap_bytes": cap,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": list(dict.fromkeys(chain_errors + ledger.errors))[:50],
        "digest": reference,
        "iterations": iterations,
    }
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
