"""flowforge pipeline benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--tiny]

Each workload runs in its own child process (child.py) under an
address-space cap.  ``setup_s`` is the median time from starting a child
until it reports ready, over several children.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones; the metric names
and units come from BENCHMARK.json at the checkout root.  The last line of
standard output is one JSON object.  A results file with the host, inputs
and every iteration goes to .bench_results/ in the checkout.

Exits 0 after printing a result, 1 when a child crashes or overruns, and
2 when the checkout holds no flowforge sources to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "flowforge"
SETUP_PROBES = 6          # plus the workload child itself
RUN_BUDGET_S = 170.0      # a run must end within 180 s


class HarnessError(RuntimeError):
    pass


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _host() -> dict:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode())
            src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "mem_total_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _child_cmd(args, workload: str, *extra: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    return cmd + (["--tiny"] if args.tiny else [])


def _start(cmd: list[str], stderr) -> tuple[subprocess.Popen, float]:
    """Start a child and return it with its time to ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr,
                            text=True, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise HarnessError(f"child did not become ready (exit {proc.returncode})")
    return proc, ready


def _finish(proc: subprocess.Popen, deadline: float):
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError("child overran the run budget and was stopped")
    if proc.returncode != 0:
        raise HarnessError(f"child exited {proc.returncode}")


def run_workload(args, workload: str, base: Path) -> dict:
    """Setup probes, then the measuring child; returns the child's result."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    err_path = work / "child.err"
    try:
        with open(err_path, "w") as err:
            setup = []
            for _ in range(SETUP_PROBES):
                proc, ready = _start(_child_cmd(args, workload, "--probe"), err)
                _finish(proc, deadline)
                setup.append(ready)
            result_path = work / "child.json"
            proc, ready = _start(_child_cmd(
                args, workload, "--work", str(work), "--result", str(result_path),
                "--spans", str(base) + ".spans.jsonl"), err)
            setup.append(ready)
            _finish(proc, deadline)
        child = json.loads(result_path.read_text())
    except (HarnessError, OSError, ValueError) as exc:
        tail = err_path.read_text()[-2000:] if err_path.is_file() else ""
        raise HarnessError(f"{workload}: {exc}\n{tail}") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    child["setup_samples_s"] = setup
    return child


def metrics_of(child: dict, trace: int) -> dict[str, float]:
    """Medians over the measured iterations; iteration 0 is a warm-up."""
    plain = [it for it in child["iterations"][1:] if not it["traced"]]
    traced = [it for it in child["iterations"] if it["traced"]]
    if not trace:
        return {
            "wall_s": statistics.median(it["wall_s"] for it in plain),
            "cpu_s": statistics.median(it["cpu_s"] for it in plain),
            "peak_rss_mb": child["peak_rss_mb"],
            "setup_s": statistics.median(child["setup_samples_s"]),
        }
    out = {name: statistics.median(it["layers"][name] for it in traced)
           for name in traced[0]["layers"]}
    out["trace.untraced_wall_s"] = statistics.median(it["wall_s"] for it in plain)
    out["trace.traced_wall_s"] = statistics.median(it["wall_s"] for it in traced)
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    return out


def report(args, spec: dict, child: dict, host: dict, base: Path) -> dict:
    declared = spec["per_layer" if args.trace else "end_to_end"]
    measured = metrics_of(child, args.trace)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted, failed = child["attempted"], child["failed"]
    correct = failed == 0 and attempted > 0
    print(f"workload {child['workload']}  seed {child['seed']}  trace {args.trace}"
          f"  iterations {len(child['iterations'])}  overrides {' '.join(child['overrides'])}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6f} {m['unit']}")
    print(f"  {'failed_frac':34s} {failed / attempted if attempted else 1.0:>16.6f} "
          f"ratio ({failed} of {attempted} operations)")
    print(f"  digest sha256 {child['digest']}")
    for line in child["errors"]:
        print(f"  error: {line}")
    record = {"host": host, "args": vars(args) | {"workload": child["workload"]},
              "correct": correct, "metrics": metrics, "child": child}
    Path(str(base) + ".json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test input sizes (2 scenes)")
    args = parser.parse_args(argv)

    if not (SRC / "cli.py").is_file():
        print(f"run.py: no flowforge sources under {SRC.parent}; nothing to "
              "measure", file=sys.stderr)
        return 2
    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    host = _host()
    outcomes = {}
    for workload in (names if args.workload == "all" else [args.workload]):
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        base = results_dir / f"{workload}-seed{args.seed}-trace{args.trace}-{stamp}"
        try:
            child = run_workload(args, workload, base)
        except HarnessError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        outcomes[workload] = report(args, spec, child, host, base)
    if args.workload != "all":
        print(json.dumps(outcomes[args.workload], sort_keys=True))
    else:
        print(json.dumps({
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "workloads": {w: o["metrics"] for w, o in outcomes.items()}},
            sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
