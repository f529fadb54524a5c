#!/bin/sh
# Tier-1 thread-sanitizer leg: build the sharded-kernel and fabric test
# suites under the `tsan` preset (see CMakePresets.json) and run them,
# plus a multi-threaded hlcs_fabric verify run and the equivalence
# check's thread-count test, whose lane blocks build and JIT-compile
# NetlistSims on worker threads.  Any data race makes the
# binary exit non-zero and fails this test.  The build-tsan tree is
# incremental, so after the first run this costs only the re-link of
# whatever changed.
#
# Usage: tsan_shard_suite.sh <source-dir> [jobs]
set -eu

SRC="${1:?usage: tsan_shard_suite.sh <source-dir> [jobs]}"
JOBS="${2:-2}"

TARGETS="test_sim_shard test_fabric hlcs_fabric test_synth_equiv"

cd "$SRC"
cmake --preset tsan >/dev/null
# gtest discovery runs each fresh binary at build time, so a racy
# initialization can already fail here.
cmake --build build-tsan -j "$JOBS" --target $TARGETS

status=0
for t in test_sim_shard test_fabric; do
  echo "== tsan: $t"
  if ! "./build-tsan/tests/$t" --gtest_brief=1; then
    status=1
  fi
done

echo "== tsan: test_synth_equiv (thread-count identity)"
if ! ./build-tsan/tests/test_synth_equiv --gtest_brief=1 \
    --gtest_filter='Equivalence.IdenticalAtAnyThreadCount'; then
  status=1
fi

echo "== tsan: hlcs_fabric --verify"
if ! ./build-tsan/tools/hlcs_fabric --segments 8 --shards 4 --threads 4 \
    --ops 4 --run 1500 --verify; then
  status=1
fi
exit $status
