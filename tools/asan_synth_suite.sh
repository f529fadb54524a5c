#!/bin/sh
# Tier-1 sanitizer leg: build the synthesis test suite under the `asan`
# preset (ASan+UBSan, see CMakePresets.json) and run every binary.  Any
# sanitizer report makes the binary exit non-zero and fails this test.
# The build-asan tree is incremental, so after the first run this costs
# only the re-link of whatever changed.
#
# Usage: asan_synth_suite.sh <source-dir> [jobs]
set -eu

SRC="${1:?usage: asan_synth_suite.sh <source-dir> [jobs]}"
JOBS="${2:-2}"

TARGETS="test_synth_expr test_synth_object_interp test_synth_netlist_sim \
test_synth_comm_synth test_synth_verilog_report test_synth_poly \
test_synth_equiv test_synth_golden test_synth_fuzz test_synth_optimize \
test_synth_parser test_synth_tape test_synth_jit \
test_vcd_reader \
test_trace_roundtrip \
test_check_property test_check_lowering \
test_osss_arbitration test_contend \
test_sim_shard test_fabric \
test_tlm test_tlm_lt \
test_pattern_rtl_system"

cd "$SRC"
cmake --preset asan >/dev/null
# gtest discovery runs each fresh binary at build time, so a sanitizer
# hit can already fail here.
cmake --build build-asan -j "$JOBS" --target $TARGETS

status=0
for t in $TARGETS; do
  echo "== asan: $t"
  if ! "./build-asan/tests/$t" --gtest_brief=1; then
    status=1
  fi
done
exit $status
