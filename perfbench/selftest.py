"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at self-test size (2 scenes; small solids for sdf_dx4)
untraced and traced.  It checks that the last output line is the result
object, that every metric BENCHMARK.json declares is printed with its
unit, that nothing failed, and that the traced and untraced runs leave the
same artifact-tree digest.  It also checks that run.py refuses to run, with
a nonzero exit and no result, in a directory holding only BENCHMARK.json
and the benchmark.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_workload(spec: dict, workload: str) -> list[str]:
    problems, digests = [], {}
    for trace in (0, 1):
        proc = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--tiny"], ROOT)
        where = f"{workload} trace {trace}"
        if proc.returncode != 0:
            return [f"{where}: exit {proc.returncode}: {proc.stderr[-1000:]}"]
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{where}: result keys {sorted(result)}")
        if not (result["correct"] and result["failed"] == 0
                and result["attempted"] >= 1):
            problems.append(f"{where}: not correct: {proc.stdout[-2000:]}")
        declared = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != declared:
            problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got) ^ set(declared))}")
        for name, unit in declared.items():
            if not any(line.split()[:1] == [name] and line.split()[-1] == unit
                       for line in lines[:-1]):
                problems.append(f"{where}: {name} not printed with unit {unit}")
        digests[trace] = next((line.split()[-1] for line in lines
                               if line.strip().startswith("digest sha256")), None)
    if digests[0] is None or digests[0] != digests[1]:
        problems.append(f"{workload}: traced and untraced digests differ: {digests}")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".bench_work" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(["--workload", "e2e_dx16"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_refuses_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        problems += check_workload(spec, workload)
        print(f"selftest: {workload} checked", flush=True)
    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: OK" if not problems else f"selftest: {len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
