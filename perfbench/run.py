#!/usr/bin/env python3
"""Builds and runs the poce benchmark.

    python3 perfbench/run.py --workload pointsto_batch --seed 1 \
        --seconds 25 --trace 0

Run it from the repository root. The first run configures and builds the
poce libraries, scserved and the benchmark driver into .bench_build/perfbench
(Release); later runs only rebuild what changed. The driver's output goes to
stdout; its last line is the JSON result. Spans and run records are written
under .bench_out/. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = ".bench_out"
WORKLOADS = ("pointsto_batch", "serve_read", "serve_edit")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no poce sources at %s (src/CMakeLists.txt is missing)" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "poce_perfbench", "scserved"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return (os.path.join(BUILD_DIR, "poce_perfbench"),
            os.path.join(BUILD_DIR, "poce", "driver", "scserved"))


def source_id():
    """The git commit if there is one, else a digest of the sources."""
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary, scserved = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scserved", scserved, "--out-dir", OUT_DIR,
               "--commit", source_id()]
    # A session of its own, so a timeout can stop the driver and any
    # scserved it started.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        out_dir = os.path.join(ROOT, OUT_DIR)
        for name in os.listdir(out_dir) if os.path.isdir(out_dir) else ():
            if name.startswith("run-"):
                shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("the driver printed no result (exit %d)" % proc.returncode)
    missing = expected_metrics(args.trace) - set(result["metrics"])
    extra = set(result["metrics"]) - expected_metrics(args.trace)
    if missing or extra:
        print("\n".join(lines[:-1]))
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (sorted(missing), sorted(extra)))
    print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
