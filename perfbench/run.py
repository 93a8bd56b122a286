#!/usr/bin/env python3
"""Builds and runs the wiresort end-to-end benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The harness and the tools it drives are built from the checkout's own
sources into $CARGO_TARGET_DIR (default .bench_build), then the harness
runs one workload. Its last stdout line is the JSON result. Build output
goes to stderr. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("cli_soc_cold", "daemon_soc_edits", "lib_opdb_infer",
             "lib_mega_compose")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        fail(f"no wiresort sources in {root}")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target",
                    "wsbench"], check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    work = os.path.join(build_dir, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(build_dir, "wsbench"), "--work", work,
           "--tools", os.path.join(build_dir, "wiresort", "tools")]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The harness reaps every process it starts. Its own process group
    # lets a timeout or a crash take down anything it left behind.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = 3
        print("perfbench: harness timed out", file=sys.stderr)
    finally:
        stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


def stop_group(proc):
    """Kills whatever is left of the harness's process group and waits
    (up to 10 s) until the group is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    main()
