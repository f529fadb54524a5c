#!/bin/sh
# Tier-1 benchmark-build leg: configure the whole-flow benchmark
# (flowbench/, a CMake package of its own that builds the library from
# src/) into build-flowbench/, build it and run its determinism
# self-test.  This is the check that a library API change -- the field
# order of EquivOptions, a constructor's parameters -- still builds the
# benchmark every later change is measured with.  It writes nothing
# under flowbench/.
#
# Usage: flowbench_suite.sh <source-dir> [jobs]
set -eu

SRC="${1:?usage: flowbench_suite.sh <source-dir> [jobs]}"
JOBS="${2:-2}"

cd "$SRC"
cmake -S flowbench -B build-flowbench -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-flowbench -j "$JOBS" --target flowbench flowbench_selftest

echo "== flowbench_selftest"
./build-flowbench/flowbench_selftest tools/objs build-flowbench/selftest_work
