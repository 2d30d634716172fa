#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload tune|serve-churn|remote \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark binary is configured and built
(Release) from perfbench/CMakeLists.txt, which compiles the library sources
under src/, into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
The binary's standard output is passed through; its last line is the result
object.  Span traces of --trace 1 runs land in <build dir>/traces.
"""

import argparse
import fcntl
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("tune", "serve-churn", "remote")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """The commit when run from a git checkout, else a hash of src/."""
    try:
        if not os.path.isdir(os.path.join(root, ".git")):
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()[:16]


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                        "--target", "perfbench"],
                       check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no library sources under {root}/src")
    os.chdir(root)
    # Relative to the checkout root, so the Unix socket path of the remote
    # workload stays short.
    build_dir = os.path.relpath(os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench"))
    try:
        build(root, os.path.abspath(build_dir))
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--commit", source_id(root), "--out-dir", out_dir]
    proc = subprocess.Popen(command)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        fail(f"stopped by signal {signum}")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
