#!/usr/bin/env python3
"""Self-test of the benchmark: every workload in --smoke mode, traced and untraced.

    python3 perfbench/smoke.py

Checks each run's last stdout line against BENCHMARK.json (keys, names, units,
finite numbers, end-to-end values never 0, every check passed), then runs
run.py from a directory that holds only BENCHMARK.json and perfbench/ and
checks that it fails without printing a result. Takes under a minute.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def problems(proc: subprocess.CompletedProcess, declared: list[dict], trace: int) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        out.append(f"correct={result['correct']} failed={result['failed']} "
                   f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if [m["name"] for m in declared] != list(metrics):
        out.append("metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            out.append(f"{m['name']}: unit {got.get('unit')!r}, want {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            out.append(f"{m['name']}: value {value!r}")
        elif trace == 0 and value <= 0:
            out.append(f"{m['name']}: end-to-end value {value} is not positive")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            found = problems(run(ROOT, w["name"], trace), spec[key], trace)
            print(f"{w['name']} trace={trace}: {'ok' if not found else '; '.join(found)}")
            failed |= bool(found)

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, spec["workloads"][0]["name"], 0)
        ok = proc.returncode != 0 and not proc.stdout.strip()
        print(f"bare directory: {'ok' if ok else 'printed a result or exited 0'}")
        failed |= not ok
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
