#!/usr/bin/env python3
# Copyright (c) hyperdom authors. Licensed under the MIT license.
"""The repository benchmark: served workloads on the real hyperdom_server.

Run one workload (the last stdout line is the result as JSON):

    python3 perfbench/run.py --workload point_d4 --seed 1 --seconds 20 --trace 0

Every run builds what it needs first (the repository's own CMake build,
plus the driver in perfbench/driver) under .bench_build/perfbench, and
writes its full record (provenance, phases, every metric) under
.bench_build/perfbench/results unless --out names another directory.

Compare two sets of records, per workload and end-to-end metric, against
the bounds in BENCHMARK.json (exit 1 when a metric got worse):

    python3 perfbench/run.py compare BASE_DIR CHANGE_DIR

Show the run-to-run spread of one set:

    python3 perfbench/run.py spread DIR

See perfbench/README.md for the workloads, metrics and phases.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DEFAULT_OUT = os.path.join(BUILD_DIR, "results")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
SERVER = os.path.join(BUILD_DIR, "tools", "hyperdom_server")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Build


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no repository sources next to perfbench/; nothing to build")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench_driver",
         "hyperdom_server_bin"]
    )
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; full log in " + log_path)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                         text=True)
    return out.stdout.strip() or "unknown"


def source_digest():
    """sha256 over the files that make up the served program and the driver,
    so a record identifies the code even outside a git checkout."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", os.path.join("perfbench", "driver")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run(argv):
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench/run.py", allow_abbrev=False, description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for the full result records")
    # argparse exits 2 on an unknown flag or workload, before any work.
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")
    build()
    command = [
        DRIVER,
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%d" % args.seconds,
        "--trace=%d" % args.trace,
        "--server-bin=" + SERVER,
        "--work-dir=" + os.path.join(BUILD_DIR, "work"),
        "--results-dir=" + os.path.abspath(args.out),
        "--git-sha=" + git_sha(),
        "--source-digest=" + source_digest(),
    ]
    sys.stdout.flush()
    sys.stderr.flush()
    # The driver replaces this process: a signal meant for the benchmark
    # reaches the driver, and the server it starts dies with it.
    os.execv(DRIVER, command)


# ---------------------------------------------------------------------------
# Result sets


def load_records(directory):
    """{workload: [record, ...]} of the end-to-end (trace 0) records."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or name.startswith("spans-"):
            continue
        with open(os.path.join(directory, name)) as f:
            record = json.load(f)
        if record.get("schema") != "perfbench-result-v1" or record.get("trace") != 0:
            continue
        out.setdefault(record["workload"], []).append(record)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(base_dir, change_dir):
    bench = load_benchmark()
    base = load_records(base_dir)
    change = load_records(change_dir)
    # worse: the change's median is worse than the base's by more than the
    # metric's bound. better: the change wins at least nine tenths of the
    # seed-matched pairs and the medians differ by more than the base's own
    # quartile spread. Anything else is unresolved.
    worse = 0
    print("%-18s %-15s %12s %25s %12s %25s  %s" % (
        "workload", "metric", "base_med", "base_q1..q3", "change_med", "change_q1..q3",
        "verdict"))
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in base or workload not in change:
            print("%-18s (missing from %s)" % (
                workload, "base" if workload not in base else "change"))
            continue
        b_by_seed = {r["seed"]: r for r in base[workload]}
        c_by_seed = {r["seed"]: r for r in change[workload]}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            c = [r["metrics"][name]["value"] for r in change[workload]]
            b_q1, b_med, b_q3 = quartiles(b)
            c_q1, c_med, c_q3 = quartiles(c)
            lower = metric["better"] == "lower"
            worse_by = (c_med - b_med) if lower else (b_med - c_med)
            pairs = [(b_by_seed[s]["metrics"][name]["value"],
                      c_by_seed[s]["metrics"][name]["value"])
                     for s in sorted(set(b_by_seed) & set(c_by_seed))]
            wins = sum(1 for bv, cv in pairs if (cv < bv if lower else cv > bv))
            if b_med != 0 and worse_by / abs(b_med) > metric["bound"]:
                result = "worse"
                worse += 1
            elif pairs and wins >= 0.9 * len(pairs) and -worse_by > (b_q3 - b_q1):
                result = "better"
            else:
                result = "unresolved"
            print("%-18s %-15s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g  %s" % (
                workload, name, b_med, b_q1, b_q3, c_med, c_q1, c_q3, result))
    return 1 if worse else 0


def spread(directory):
    """Quartile spread over median per workload and metric, against the
    metric's bound (the benchmark aims for a third of it)."""
    bench = load_benchmark()
    records = load_records(directory)
    steady = True
    print("%-18s %-15s %4s %12s %10s %8s  %s" % (
        "workload", "metric", "runs", "median", "iqr/med", "bound", "status"))
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in records.get(workload, [])]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / abs(med) if med else float("inf")
            # setup_s is held to its bound by its median, not its spread.
            gated = metric["name"] != "setup_s"
            ok = share <= metric["bound"] / 3 or not gated
            steady &= share <= metric["bound"] or not gated
            print("%-18s %-15s %4d %12.6g %10.4f %8.3f  %s" % (
                workload, metric["name"], len(values), med, share, metric["bound"],
                "ok" if ok else ("within bound" if share <= metric["bound"] else "OVER BOUND")))
    return 0 if steady else 1


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare BASE_DIR CHANGE_DIR", 2)
        return compare(argv[1], argv[2])
    if argv[:1] == ["spread"]:
        if len(argv) != 2:
            fail("usage: run.py spread DIR", 2)
        return spread(argv[1])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
