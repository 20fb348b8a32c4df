#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see README.md in this directory).

Run from the root of a checkout:

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

It configures and builds `flora_bench` (a Release build of ../src plus the
load generator) under $CARGO_TARGET_DIR, or `.bench_build` when that is not
set, runs one workload and prints a readable summary followed, as the last
line of standard output, by one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
`end_to_end` metrics of BENCHMARK.json, with `--trace 1` its `per_layer`
metrics. Everything the build and the run leave behind stays in the build
directory.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    cmake_dir = build_dir / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(cmake_dir), "--target", "flora_bench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return cmake_dir / "flora_bench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"


def source_digest():
    """SHA-256 over the paths and contents of src/, so a result names the
    code it measured even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def summarize(report):
    print(f"workload {report['workload']}  seed {report['seed']:.0f}  "
          f"trace {report['trace']}  rounds {report['rounds']:.0f}  "
          f"reads {report['reads']:.0f}  writes {report['writes']:.0f}")
    print("host " + json.dumps(report["host"], sort_keys=True))
    print("flora " + json.dumps(report["flora"], sort_keys=True))
    print("store flush policy: " + report["flush_policy"])
    section = "per_layer" if report["trace"] else "end_to_end"
    for name, m in report[section].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    for name, value in report["workload_facts"].items():
        print(f"  fact {name:29s} {value:14.6g}")
    for name, verdict in report["validity"].items():
        print(f"  validity {name:25s} {verdict}")
    for name, totals in report["spans"].items():
        print(f"  span {name:20s} count {totals['count']:8.0f}  "
              f"total {totals['total_us'] / 1000:10.3f} ms  "
              f"self {totals['self_us'] / 1000:10.3f} ms")
    if report["spans_file"]:
        print(f"  spans written to {report['spans_file']}")
    for failure in report["failures"]:
        print(f"  FAILED {failure['why']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["browse", "hotset", "revise"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", str(build_dir / "work"),
               "--git-sha", git_sha()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"flora_bench exited with {proc.returncode}")
    report = json.loads(lines[-1])
    report["host"]["src_sha256"] = source_digest()
    summarize(report)

    metrics = {}
    for entry in wanted:
        m = report["per_layer" if args.trace else "end_to_end"].get(
            entry["name"])
        if m is None or m["unit"] != entry["unit"]:
            fail(f"metric {entry['name']} ({entry['unit']}) not measured")
        metrics[entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": report["correct"],
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
