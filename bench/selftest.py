"""Quick self-test of the benchmark (not part of the test suite).

    python3 bench/selftest.py

Runs every workload at tiny sizes, untraced and traced, and checks that
the result line has the contract's keys and every metric BENCHMARK.json
names, with its unit.  Then copies only BENCHMARK.json and bench/ into a
scratch directory and checks that the benchmark refuses to run there.
Takes about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def _run(root, workload, trace, quick=True):
    cmd = [
        sys.executable, os.path.join(root, "bench", "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace),
    ] + (["--quick"] if quick else [])
    return subprocess.run(
        cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180,
    )


def check_result(proc, wanted):
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']}")
    names = [m["name"] for m in wanted]
    if list(result["metrics"]) != names:
        problems.append(f"metrics {sorted(set(names) ^ set(result['metrics']))}")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got}")
    return problems


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE, os.path.join(bare, "bench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = _run(bare, WORKLOADS[0], 0, quick=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return ["benchmark ran without the dropattack sources"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = 0
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            problems = check_result(_run(ROOT, workload, trace), wanted)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload:16} trace={trace}  {status}")
            failures += bool(problems)
    problems = check_bare_directory()
    print(f"{'bare directory':16} {'ok' if not problems else 'FAIL ' + problems[0]}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
