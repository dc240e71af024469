#!/usr/bin/env python3
"""Runs the repository benchmark.

Builds the perfbench harness and the repl_cluster worker from the
repository sources, then runs one workload for one seed and prints the
harness's result; the last line of stdout is one JSON object:

    python3 perfbench/run.py --workload replay-hot --seed 1 --seconds 30 --trace 0

All four arguments are required. --self-check runs every workload at smoke
scale (tiny inputs: it checks wiring, not speed), checks that each prints
exactly the metrics BENCHMARK.json declares, with their units, and that a
corrupted reference makes the run fail:

    python3 perfbench/run.py --self-check

Inputs and reference aggregates are cached under .bench_cache/, keyed by
workload, seed and a digest of the built binaries. The build goes to
$CARGO_TARGET_DIR (default .bench_build/).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("replay-1m", "replay-hot", "cluster-2p-kill")
CACHE = Path(".bench_cache")
# The harness must leave time for the build check and output handling
# within the benchmark's 180-second limit per run.
HARNESS_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns (harness, worker) paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("the repository sources are missing; nothing to build")
        sys.exit(2)
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", "perfbench", "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(2)
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
                   "-j", str(os.cpu_count() or 1)]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(2)
    return (build_dir / "perfbench",
            build_dir / "repl" / "examples" / "repl_cluster")


def build_digest(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def cache_dir(workload, seed, digest, smoke=False):
    """The (workload, seed, build) cache entry; older entries of the same
    workload are evicted so the cache holds one log per workload."""
    name = f"{workload}-{seed}-{digest}" + ("-smoke" if smoke else "")
    CACHE.mkdir(exist_ok=True)
    for entry in CACHE.iterdir():
        if entry.name.startswith(workload + "-") and entry.name != name:
            shutil.rmtree(entry, ignore_errors=True)
    return CACHE / name


def run_harness(harness, workload, seed, seconds, trace, cache, smoke=False):
    """Runs one invocation; returns (exit code, stdout text)."""
    work = CACHE / f"work.{workload}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(harness), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--cache", str(cache), "--work", str(work)]
    if smoke:
        cmd.append("--smoke")
    # Own process group, so a timeout also stops the cluster workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{workload} did not finish within {HARNESS_TIMEOUT_S} s")
        return 2, ""
    return proc.returncode, out


def parse_result(out):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def self_check(harness, digest):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        cache = cache_dir(workload, 1, digest, smoke=True)
        for trace in (0, 1):
            code, out = run_harness(harness, workload, 1, 1, trace, cache,
                                    smoke=True)
            result = parse_result(out)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append(f"{label}: printed {printed}, "
                                f"declared {declared[trace]}")
        # A reference that no longer matches must fail the run.
        reference = cache / "log.reference"
        text = reference.read_text()
        field = text.split("transfers=")[1].split()[0]
        reference.write_text(text.replace(f"transfers={field}",
                                          f"transfers={int(field) + 1}"))
        code, out = run_harness(harness, workload, 1, 1, 0, cache, smoke=True)
        result = parse_result(out)
        if code == 0 or result is None or result["correct"]:
            problems.append(f"{workload}: a corrupted reference passed "
                            f"(exit {code}, result {result})")
        shutil.rmtree(cache, ignore_errors=True)
    for problem in problems:
        log(f"self-check: {problem}")
    log("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check:
        missing = [f"--{name}"
                   for name in ("workload", "seed", "seconds", "trace")
                   if getattr(args, name) is None]
        if missing:
            parser.error("missing " + ", ".join(missing))

    os.chdir(ROOT)
    harness, worker = build()
    digest = build_digest([harness, worker])
    if args.self_check:
        return self_check(harness, digest)

    cache = cache_dir(args.workload, args.seed, digest)
    code, out = run_harness(harness, args.workload, args.seed, args.seconds,
                            args.trace, cache)
    sys.stdout.write(out)
    sys.stdout.flush()
    if parse_result(out) is None:
        log("the harness printed no result")
        return code or 2
    return code


if __name__ == "__main__":
    sys.exit(main())
