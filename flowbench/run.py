#!/usr/bin/env python3
"""Build the whole-flow benchmark from source, then run it.

    python3 flowbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark package (flowbench/
CMakeLists.txt, which builds the library from src/) is configured and
built incrementally under $CARGO_TARGET_DIR/flowbench, default
.bench_build/flowbench; build output goes to stderr.  The process then
becomes the benchmark binary, whose last line of stdout is the JSON
result.  Exits non-zero without a result if the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "flowbench")


def configured_for_other_source(build):
    cache = os.path.join(build, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) != os.path.realpath(HERE)
    return True


def main():
    build = build_dir()
    if configured_for_other_source(build):
        shutil.rmtree(build)
    jobs = str(min(2, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "flowbench", "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("flowbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    binary = os.path.join(build, "flowbench")
    args = [binary] + sys.argv[1:] + [
        "--objs", os.path.join(ROOT, "tools", "objs"),
        "--work", os.path.join(build, "work"),
    ]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
