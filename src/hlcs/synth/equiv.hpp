// Pre/post-synthesis equivalence checking as a library service.
//
// check_equivalence() drives the synthesised netlist and the golden
// cycle model in lock step with randomized-but-reproducible stimulus
// (clients request random methods, re-rolling after a few blocked
// cycles so guard-heavy objects keep making progress) and compares
// grants, return values and every state variable on every cycle.
// It also records the stimulus/response vectors, which
// emit_verilog_testbench() can turn into a self-checking Verilog bench
// for downstream tools.
//
// The check scales out over lanes: N independently seeded stimulus
// streams (lane i's RNG is seeded with sim::lane_seed(seed, i)), each a
// complete lock-step run.  More lanes = more coverage from one
// invocation, and any failure names the lane and a root seed that
// replays it standalone.  Every lane runs on NetlistSim (native through
// TapeJit where the host has it, on the tape interpreter otherwise).
// The lanes are cut into fixed 64-lane blocks, each with its own
// NetlistSim running its lanes one after another, and the blocks are
// sharded across worker threads.  Stimulus depends only on each lane's
// RNG and the golden model, never on RTL outputs, and outcomes are
// merged in lane order, so verdicts are identical at any thread count;
// the first mismatching lane is re-run alone to regenerate its
// EquivVector diagnostics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hlcs/synth/comm_synth.hpp"
#include "hlcs/synth/golden.hpp"
#include "hlcs/synth/rtl_sim.hpp"

namespace hlcs::synth {

struct EquivOptions {
  std::size_t cycles = 1000;
  std::uint64_t seed = 0xEC1;
  /// Probability (percent) that an idle client issues a request.
  unsigned request_percent = 50;
  /// Re-roll a blocked request after this many ungranted cycles.
  unsigned reroll_after = 5;
  /// Probability (percent, per cycle) of pulsing the synchronous reset.
  unsigned reset_percent = 0;
  /// Independently seeded stimulus streams, each `cycles` long.
  std::size_t lanes = 1;
  /// Worker threads, each claiming one 64-lane block at a time;
  /// 0 = hardware concurrency.
  unsigned threads = 1;
};

/// One recorded cycle of the lock-step run (also usable as a test
/// vector for the emitted Verilog testbench).
struct EquivVector {
  bool rst = false;
  std::vector<GoldenCycleModel::ClientIn> in;
  /// Expected combinational outputs (from the golden model).
  std::vector<bool> grant;
  std::vector<std::uint64_t> ret;  ///< valid where grant is set
  /// Expected registered state AFTER the edge.
  std::vector<std::uint64_t> vars;
};

struct EquivResult {
  bool equal = true;
  std::size_t cycles = 0;  ///< total simulated cycles across all lanes
  std::size_t grants = 0;  ///< total grants across all lanes
  std::string first_mismatch;  ///< empty when equal; names lane + seed
  /// Recorded golden vectors: the lowest mismatching lane's stream when
  /// unequal, lane 0's stream otherwise.
  std::vector<EquivVector> vectors;
  std::size_t lanes = 1;
  /// Lowest mismatching lane and the root seed that replays it (valid
  /// when !equal): a 1-lane run with first_bad_seed as its seed drives
  /// exactly that lane's stimulus (sim::lane_root).
  std::size_t first_bad_lane = 0;
  std::uint64_t first_bad_seed = 0;
  /// JIT compile/runtime counters of every block's NetlistSim, summed in
  /// block order.  enabled is false when the tape interpreter ran.
  JitStats jit_stats;

  explicit operator bool() const { return equal; }
};

/// Lock-step comparison of `nl` against GoldenCycleModel(desc, opt).
/// `nl` is the netlist under test: synthesize(desc, opt), or any netlist
/// with its ports and state nets, such as optimize() of it.
EquivResult check_equivalence(const ObjectDesc& desc, const SynthOptions& opt,
                              const Netlist& nl, const EquivOptions& eopt = {});

/// Lock-step comparison of synthesize(desc, opt) against
/// GoldenCycleModel(desc, opt).
EquivResult check_equivalence(const ObjectDesc& desc, const SynthOptions& opt,
                              const EquivOptions& eopt = {});

/// Render a self-checking Verilog testbench that instantiates the
/// synthesised module and replays the recorded vectors, $fatal-ing on
/// the first divergence.  `module_name` must match emit_verilog(nl).
std::string emit_verilog_testbench(const Netlist& nl,
                                   const std::vector<EquivVector>& vectors);

}  // namespace hlcs::synth
