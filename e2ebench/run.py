#!/usr/bin/env python3
"""End-to-end benchmark of the HOS-Miner QueryService.

Builds the harness in e2ebench/ (which compiles the repository's own
libraries from source) into .bench_build/e2ebench, then runs it:

  python3 e2ebench/run.py --workload lookup_uniform --seed 1 --seconds 25 --trace 0
  python3 e2ebench/run.py --workload all --seed 1     # every workload in turn
  python3 e2ebench/run.py --counts                    # deterministic work counts

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". The exit code is 0 only
when every operation succeeded and every checked answer matched the
linear-scan oracle. Each run's provenance (seed, core count, build type,
source id, host reference timings, load average) and its full details go
to .bench_build/e2ebench/runs/<workload>-seed<seed>-trace<t>.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["lookup_uniform", "explain_hot", "window_ingest"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
COUNTS_SEED = 1

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def source_id():
    """The commit when run inside a git checkout, else a digest of the
    sources the benchmark builds from."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", ROOT / "bench" / "bench_util.h"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file()
                  and "__pycache__" not in p.parts]
    for path in sorted(files):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "service" / "query_service.h").is_file():
        log(f"no HOS-Miner source tree at {ROOT}; cannot build the benchmark")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "hos_e2e",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as err:
            log(f"build step failed: {err}")
            return None
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(step)}")
            return None
    binary = BUILD_DIR / "hos_e2e"
    return binary if binary.is_file() else None


def run_binary(binary, argv):
    """Runs the harness; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([str(binary)] + argv, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"hos_e2e did not finish within {RUN_TIMEOUT_S} s")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    """The harness's last stdout line, if it is a well-formed result."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def run_workload(binary, workload, seed, seconds, trace, sid):
    runs = BUILD_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    details = runs / f"{workload}-seed{seed}-trace{trace}.json"
    code, lines = run_binary(binary, [
        "--workload", workload, "--seed", str(seed), "--seconds",
        str(seconds), "--trace", str(trace), "--details", str(details),
        "--source-id", sid])
    result = parse_result(lines)
    for line in lines[:-1]:
        print(line)
    if result is None:
        log(f"{workload}: no result (exit code {code})")
        return code or 1, None
    return code, result


def counts(binary):
    """Deterministic one-client replay counts of every workload, compared
    with the recorded ones in expected_counts.json."""
    recorded = {}
    expected = HERE / "expected_counts.json"
    if expected.is_file():
        recorded = json.loads(expected.read_text())
    measured = {}
    status = 0
    for workload in WORKLOADS:
        code, lines = run_binary(binary, ["--counts", "--workload", workload,
                                          "--seed", str(COUNTS_SEED)])
        if code != 0 or not lines:
            log(f"{workload}: counts failed or did not repeat")
            status = 1
            continue
        measured[workload] = json.loads(lines[-1])
        old = recorded.get(workload)
        if old == measured[workload]:
            print(f"{workload}: counts repeat and match expected_counts.json")
        else:
            old = old or {}
            changed = {k: [old.get(k), v]
                       for k, v in measured[workload].items()
                       if old.get(k) != v}
            print(f"{workload}: counts repeat; differ from expected_counts.json "
                  f"as [recorded, measured]: {json.dumps(changed)}")
    print(json.dumps(measured, sort_keys=True))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--counts", action="store_true",
                        help="print the deterministic per-layer work counts")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    if args.counts:
        return counts(binary)

    sid = source_id()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        code, result = run_workload(binary, workload, args.seed, args.seconds,
                                    args.trace, sid)
        status = status or code
        if result is None:
            return status
        print(json.dumps(result))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    if len(workloads) > 1:
        print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
