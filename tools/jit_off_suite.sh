#!/bin/sh
# Tier-1 interpreter-only leg: configure a tree with -DHLCS_JIT=OFF (the
# emitter compiles out, host_supported() reports false, every JIT
# request silently falls back to the bytecode tape) and run the JIT
# parity suite and the netlist-engine suites against it.  This is the
# proof that non-x86-64 hosts keep working: NetlistSim and
# check_equivalence run on the interpreter alone and must still match
# the test oracle.
#
# Usage: jit_off_suite.sh <source-dir> [jobs]
set -eu

SRC="${1:?usage: jit_off_suite.sh <source-dir> [jobs]}"
JOBS="${2:-2}"

TARGETS="test_synth_jit test_synth_tape \
test_synth_netlist_sim test_synth_equiv test_check_lowering"

cd "$SRC"
cmake -B build-nojit -S . -DCMAKE_BUILD_TYPE=Release -DHLCS_JIT=OFF >/dev/null
cmake --build build-nojit -j "$JOBS" --target $TARGETS

status=0
for t in $TARGETS; do
  echo "== nojit: $t"
  if ! "./build-nojit/tests/$t" --gtest_brief=1; then
    status=1
  fi
done
exit $status
