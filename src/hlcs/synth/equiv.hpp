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
// The check scales out in two independent directions:
//   - lanes: N independently seeded stimulus streams (lane i's RNG is
//     seeded with sim::lane_seed(seed, i)), each a complete lock-step
//     run.  More lanes = more coverage from one invocation, and any
//     failure names the lane and its standalone-reproducible seed.
//   - batch: evaluate lanes K*64 at a time on the bit-parallel engine
//     (synth::BatchNetlistSim), sharding superlane blocks across worker
//     threads.  Stimulus depends only on each lane's RNG and the golden
//     model, never on RTL outputs, so batch and scalar backends produce
//     bit-identical verdicts at any thread count, lane count, or
//     superlane width; the first mismatching lane is re-run on the
//     scalar engine to regenerate the single-lane EquivVector
//     diagnostics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hlcs/synth/batch_tape.hpp"
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
  /// Evaluate lanes on the bit-parallel engine instead of one scalar
  /// simulation per lane.  Verdicts are bit-identical either way.
  bool batch = false;
  /// Worker threads for batch mode (one superlane block per claim);
  /// 0 = hardware concurrency.  Ignored when batch is false.
  unsigned threads = 1;
  /// Superlane factor for batch mode: 1, 4 or 8 (K*64 lanes advanced
  /// per tape instruction), or 0 to pick cpu_superlanes().  The
  /// partition of lanes into blocks depends only on (lanes, superlanes),
  /// never on thread count.  Ignored when batch is false.
  unsigned superlanes = 1;
  /// Run each block's comb tape as native code (hlcs/synth/jit.hpp).
  /// Verdicts are bit-identical to the interpreter; a silent no-op on
  /// hosts without JIT support.  Ignored when batch is false.
  bool jit = false;
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
  /// Lowest mismatching lane and its derived seed (valid when !equal).
  /// Re-running with that value as the root seed and lanes=1 replays
  /// the failing stream standalone.
  std::size_t first_bad_lane = 0;
  std::uint64_t first_bad_seed = 0;
  /// Batch mode only: fraction of comb evaluations that took the
  /// per-lane scalar fallback (0 when fully bit-parallel).
  double batch_scalar_fraction = 0.0;
  /// Batch mode only: engine counters summed over every block (fused
  /// superinstructions executed, scalar-fallback tape instructions,
  /// plane instructions, ...).
  BatchStats batch_stats;
  /// Batch+jit mode only: JIT compile/runtime counters summed over
  /// every block in block order.  enabled is false when the JIT was
  /// requested but unavailable (or never requested).
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
