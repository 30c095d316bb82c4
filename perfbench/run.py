#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload fig10_campaign|tape_lifecycle|rt_copy
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  It builds the perfbench binary from the
repository's sources (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR or .bench_build, runs it, and prints the binary's report
followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics (a layer the workload does not exercise
reads 0).  The binary's full record, every metric with its clock, is kept
in .bench_out/.  The exit code is 0 only when every correctness check
passed.  See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".bench_out"
BINARY = "perfbench"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


class BenchError(Exception):
    pass


def validate_benchmark(spec, size_bytes=0):
    """Raises BenchError unless `spec` (parsed BENCHMARK.json) keeps to the
    benchmark contract: key set, name/unit/path syntax, counts and bounds."""
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != want:
        raise BenchError(f"BENCHMARK.json keys {sorted(spec)} != {sorted(want)}")
    if size_bytes > 64 * 1024:
        raise BenchError("BENCHMARK.json is larger than 64 KiB")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        raise BenchError("paths: 1 to 16 directories")
    for p in paths:
        if not (isinstance(p, str) and PATH_RE.match(p)) or p.startswith("/") \
                or ".." in p.split("/"):
            raise BenchError(f"paths: bad directory {p!r}")
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32):
        raise BenchError("command: a list of 1 to 32 strings")
    for c in cmd:
        if not isinstance(c, str) or len(c) > 200 or c.startswith("/") \
                or ".." in c.split("/"):
            raise BenchError(f"command: bad argument {c!r}")
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        raise BenchError("run_seconds: a whole number from 1 to 60")
    names = set()

    def name_ok(n):
        if not (isinstance(n, str) and NAME_RE.match(n)) or n in names:
            raise BenchError(f"bad or repeated name {n!r}")
        names.add(n)

    wl = spec["workloads"]
    if not (isinstance(wl, list) and 2 <= len(wl) <= 8):
        raise BenchError("workloads: 2 to 8")
    for w in wl:
        if set(w) != {"name", "why"}:
            raise BenchError(f"workload keys {sorted(w)}")
        name_ok(w["name"])
        why = w["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
            raise BenchError(f"workload {w['name']}: why must be one line <= 200")
    e2e = spec["end_to_end"]
    if not (isinstance(e2e, list) and 1 <= len(e2e) <= 16):
        raise BenchError("end_to_end: 1 to 16 metrics")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            raise BenchError(f"end_to_end keys {sorted(m)}")
        name_ok(m["name"])
        if not (isinstance(m["unit"], str) and UNIT_RE.match(m["unit"])):
            raise BenchError(f"{m['name']}: bad unit {m['unit']!r}")
        if m["better"] not in ("lower", "higher"):
            raise BenchError(f"{m['name']}: better is lower or higher")
        b = m["bound"]
        if not (isinstance(b, (int, float)) and not isinstance(b, bool)
                and 0 < b <= 0.25):
            raise BenchError(f"{m['name']}: bound must be in (0, 0.25]")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise BenchError("end_to_end needs setup_s in s, better lower")
    pl = spec["per_layer"]
    if not (isinstance(pl, list) and 1 <= len(pl) <= 128):
        raise BenchError("per_layer: 1 to 128 metrics")
    for m in pl:
        if set(m) != {"name", "unit", "better"}:
            raise BenchError(f"per_layer keys {sorted(m)}")
        name_ok(m["name"])
        if not (isinstance(m["unit"], str) and UNIT_RE.match(m["unit"])):
            raise BenchError(f"{m['name']}: bad unit {m['unit']!r}")
        if m["better"] not in ("lower", "higher"):
            raise BenchError(f"{m['name']}: better is lower or higher")


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"{path} not found")
    with open(path, "rb") as f:
        raw = f.read()
    spec = json.loads(raw)
    validate_benchmark(spec, len(raw))
    return spec


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build_binary():
    """Configures and builds the binary; returns its path.  Build output
    goes to stderr so standard output stays the benchmark's report."""
    if not os.path.isfile(os.path.join(ROOT, "src", "archive", "system.hpp")):
        raise BenchError("repository sources (src/) not found next to perfbench/")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(bdir, "Makefile")):
        configure += ["-G", "Ninja"]

    def run(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode

    if run(configure) != 0:
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(bdir, ignore_errors=True)
        if run(configure) != 0:
            raise BenchError("cmake configure failed")
    if run(["cmake", "--build", bdir, "--target", BINARY, "-j", jobs]) != 0:
        raise BenchError("build failed")
    return os.path.join(bdir, BINARY)


def contract_result(record, spec, trace):
    """Turns the binary's record into the contract's result object."""
    metrics = {}
    measured = record["metrics"]
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                raise BenchError(f"perfbench did not report {m['name']}")
            got = {"value": 0, "unit": m["unit"]}  # layer not exercised
        if got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: reported unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(record["correct"]), "attempted": int(record["attempted"]),
            "failed": int(record["failed"]), "metrics": metrics}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2009)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_benchmark()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        binary = build_binary()
        os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(float(seconds)), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=seconds + 120)
        except subprocess.TimeoutExpired:
            raise BenchError("perfbench timed out")
        lines = proc.stdout.rstrip("\n").split("\n")
        try:
            record = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            sys.stdout.write(proc.stdout)
            raise BenchError(f"perfbench exited {proc.returncode} without a result")
        result = contract_result(record, spec, args.trace == 1)
        result["correct"] = result["correct"] and proc.returncode == 0
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        with open(os.path.join(ROOT, OUT_DIR, f"result-{tag}.json"), "w") as f:
            json.dump(record, f, indent=1)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
